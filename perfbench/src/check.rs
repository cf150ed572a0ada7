//! The benchmark's own check of every mapping result, independent of the
//! mappers' self-verification (`turbosyn::verify`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use turbosyn::{MapOptions, MapReport};
use turbosyn_json::Json;
use turbosyn_netlist::equiv::sequential_equiv_by_simulation;
use turbosyn_netlist::{blif, Circuit};
use turbosyn_retime::{clock_period, mdr_ratio};

/// Co-simulated cycles, ignored initial cycles, largest per-output
/// latency searched, and stimulus seed of the equivalence check.
const CYCLES: usize = 96;
const WARMUP: usize = 16;
const MAX_LAG: usize = 4;
const STIMULUS_SEED: u64 = 0x5eed;

/// Checks a library report against the circuit it mapped.
pub fn report(input: &Circuit, report: &MapReport) -> Result<(), String> {
    if report.degradation.is_some() {
        return Err("degraded report".into());
    }
    mapping(
        input,
        report.phi,
        report.clock_period,
        &report.mapped,
        &report.final_circuit,
    )
}

/// Checks a canonical report object (`report_to_json`), as a service
/// client receives it, against the circuit it mapped.
pub fn report_json(input: &Circuit, report: &Json) -> Result<(), String> {
    if report.get("degradation") != Some(&Json::Null) {
        return Err("degraded report".into());
    }
    let int = |key: &str| {
        report
            .get(key)
            .and_then(Json::as_int)
            .and_then(|v| i64::try_from(v).ok())
            .ok_or_else(|| format!("report lacks {key}"))
    };
    let netlist = |key: &str| {
        let text = report
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("report lacks {key}"))?;
        blif::parse(text).map_err(|e| format!("{key}: {e}"))
    };
    mapping(
        input,
        int("phi")?,
        int("clock_period")?,
        &netlist("mapped_blif")?,
        &netlist("final_blif")?,
    )
}

/// The mapped circuit is K-bounded, its MDR ratio rounds up to at most
/// Φ, the final circuit's clock period measured here is the reported one
/// and at most Φ, and the mapped circuit behaves like the input in
/// co-simulation. A panic in any check is a failure too.
fn mapping(
    input: &Circuit,
    phi: i64,
    period: i64,
    mapped: &Circuit,
    final_circuit: &Circuit,
) -> Result<(), String> {
    let k = MapOptions::default().k;
    catch_unwind(AssertUnwindSafe(|| {
        mapped
            .validate()
            .map_err(|e| format!("mapped circuit invalid: {e}"))?;
        final_circuit
            .validate()
            .map_err(|e| format!("final circuit invalid: {e}"))?;
        if !mapped.is_k_bounded(k) {
            return Err(format!("mapped circuit is not {k}-bounded"));
        }
        if let Ok(mdr) = mdr_ratio(mapped) {
            if mdr.ceil() > phi {
                return Err(format!("mapped MDR ratio {mdr} exceeds phi {phi}"));
            }
        }
        let measured = clock_period(final_circuit);
        if measured != period || period > phi {
            return Err(format!(
                "final clock period {measured}, reported {period}, phi {phi}"
            ));
        }
        sequential_equiv_by_simulation(input, mapped, CYCLES, WARMUP, MAX_LAG, STIMULUS_SEED)
            .map(|_| ())
            .map_err(|e| format!("not equivalent: {e}"))
    }))
    .unwrap_or_else(|_| Err("the check panicked".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn::report_to_json;
    use turbosyn_netlist::{gen, NodeKind};

    #[test]
    fn accepts_a_real_mapping_and_rejects_tampered_ones() {
        let c = gen::figure1();
        let r = turbosyn::turbosyn(&c, &MapOptions::default()).expect("maps");
        assert_eq!(report(&c, &r), Ok(()));
        assert_eq!(report_json(&c, &report_to_json(&r)), Ok(()));

        let mut wrong_period = r.clone();
        wrong_period.clock_period += 1;
        assert!(report(&c, &wrong_period).is_err());

        let mut wrong_phi = r.clone();
        wrong_phi.phi = 0;
        assert!(report(&c, &wrong_phi).is_err());

        let mut wrong_logic = r.clone();
        let lut = wrong_logic.mapped.gates().next().expect("has a LUT");
        let NodeKind::Gate(tt) = &wrong_logic.mapped.node(lut).kind else {
            panic!("gates() yields gates")
        };
        let flipped = tt.not();
        wrong_logic.mapped.replace_gate_tt(lut, flipped);
        assert!(report(&c, &wrong_logic)
            .unwrap_err()
            .starts_with("not equivalent"));

        let mut degraded = report_to_json(&r);
        if let Json::Obj(pairs) = &mut degraded {
            for (key, value) in pairs.iter_mut() {
                if key == "degradation" {
                    *value = Json::obj(vec![("phi_achieved", Json::from(1u64))]);
                }
            }
        }
        assert_eq!(report_json(&c, &degraded), Err("degraded report".into()));
    }
}
