//! Per-layer metrics: trace phases read by name, the library's work
//! counters, and the benchmark's own timers around the public calls the
//! trace does not cover.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use turbosyn::MapOptions;
use turbosyn_json::Json;
use turbosyn_netlist::kbound::decompose_to_k;
use turbosyn_netlist::{blif, Circuit};
use turbosyn_retime::period_lower_bound;

use crate::report::Outcome;
use crate::stats::Counters;

/// Per-phase call counts and total nanoseconds, read by name from a
/// trace summary in its JSON form (`turbosyn_json::chrome::summary_to_json`,
/// the shape the serve `metrics` frame shares).
#[derive(Debug, Clone, Default)]
pub struct Phases(BTreeMap<String, (u64, u64)>);

impl Phases {
    pub fn from_json(summary: &Json) -> Phases {
        let mut phases = BTreeMap::new();
        let listed = summary.get("phases").and_then(Json::as_arr);
        for phase in listed.unwrap_or_default() {
            let name = phase.get("name").and_then(Json::as_str);
            let count = phase.get("count").and_then(Json::as_u64);
            let total_ns = phase.get("total_ns").and_then(Json::as_u64);
            if let (Some(name), Some(count), Some(total_ns)) = (name, count, total_ns) {
                phases.insert(name.to_string(), (count, total_ns));
            }
        }
        Phases(phases)
    }

    /// The activity between an earlier cumulative reading and this one.
    pub fn since(&self, earlier: &Phases) -> Phases {
        Phases(
            self.0
                .iter()
                .map(|(name, &(count, ns))| {
                    let (count0, ns0) = earlier.0.get(name).copied().unwrap_or_default();
                    let delta = (count.saturating_sub(count0), ns.saturating_sub(ns0));
                    (name.clone(), delta)
                })
                .collect(),
        )
    }

    /// Calls of phase `name`; a phase that never ran made 0.
    fn calls(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |p| p.0 as f64)
    }

    /// Seconds spent in phase `name`.
    fn secs(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |p| p.1 as f64 / 1e9)
    }

    /// Every phase's call count, as work counters.
    pub fn counters(&self) -> Counters {
        self.0
            .iter()
            .map(|(name, (count, _))| (format!("phase.{name}"), *count))
            .collect()
    }
}

/// Records the metrics of the mapping layers from the traced `phases`
/// and the summed work counters `work`; `map_s` is the mapping wall time
/// the phases fall inside. A counter the library's encoders no longer
/// emit leaves its metrics absent.
pub fn set_mapping_metrics(out: &mut Outcome, phases: &Phases, work: &Counters, map_s: f64) {
    let get = |key: &str| work.get(key).map(|&v| v as f64);
    let plus = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a + b);
    let ratio = |num: Option<f64>, den: Option<f64>| {
        num.zip(den).map(|(n, d)| if d > 0.0 { n / d } else { 0.0 })
    };

    out.set("seqdecomp.calls", Some(phases.calls("seqdecomp")), 1);
    out.set("seqdecomp.s", Some(phases.secs("seqdecomp")), 1);
    out.set("seqdecomp.share", Some(phases.secs("seqdecomp") / map_s), 1);

    let (cut_tests, skipped) = (get("label.cut_tests"), get("label.candidates_skipped"));
    let (attempts, successes) = (get("label.resyn_attempts"), get("label.resyn_successes"));
    out.set("label.probes", Some(phases.calls("label.probe")), 1);
    out.set("label.probe_s", Some(phases.secs("label.probe")), 1);
    out.set("label.sweeps", get("label.sweeps"), 1);
    out.set("label.cut_tests", cut_tests, 1);
    out.set("label.candidates_skipped", skipped, 1);
    out.set(
        "label.skip_ratio",
        ratio(skipped, plus(skipped, cut_tests)),
        1,
    );
    out.set("label.resyn_attempts", attempts, 1);
    out.set("label.resyn_successes", successes, 1);
    out.set("label.resyn_success_ratio", ratio(successes, attempts), 1);
    out.set(
        "label.warm_started_probes",
        get("label.warm_started_probes"),
        1,
    );

    out.set("expand.calls", Some(phases.calls("expand")), 1);
    out.set("expand.s", Some(phases.secs("expand")), 1);
    out.set("min_cut.calls", Some(phases.calls("flow.min_cut")), 1);
    out.set("min_cut.s", Some(phases.secs("flow.min_cut")), 1);
    out.set("pld.checks", Some(phases.calls("pld.check")), 1);
    out.set("pld.checks_skipped", get("label.pld_checks_skipped"), 1);
    out.set("pld.s", Some(phases.secs("pld.check")), 1);

    let (hits, misses) = (get("cache.expansion_hits"), get("cache.expansion_misses"));
    out.set("cache.exp_hits", hits, 1);
    out.set("cache.exp_misses", misses, 1);
    out.set("cache.exp_hit_ratio", ratio(hits, plus(hits, misses)), 1);
    let (hits, misses) = (
        get("cache.decomposition_hits"),
        get("cache.decomposition_misses"),
    );
    out.set("cache.decomp_hits", hits, 1);
    out.set("cache.decomp_misses", misses, 1);
    out.set("cache.decomp_hit_ratio", ratio(hits, plus(hits, misses)), 1);

    out.set("mapgen.s", Some(phases.secs("mapgen")), 1);
    out.set("verify.s", Some(phases.secs("verify")), 1);
    out.set("retime.s", Some(phases.secs("retime")), 1);
}

/// Times, once per circuit, the public calls the trace does not cover:
/// K-bounding (`kbound::decompose_to_k`, the mappers' prepare step), the
/// period bound (`period_lower_bound`), and BLIF write and parse.
pub fn set_netlist_metrics(out: &mut Outcome, circuits: &[Circuit]) {
    let k = MapOptions::default().k;
    let (mut prepare, mut bound, mut write, mut parse) = (0.0, 0.0, 0.0, 0.0);
    for c in circuits {
        let t = Instant::now();
        let bounded = black_box(decompose_to_k(black_box(c), k));
        prepare += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(period_lower_bound(&bounded));
        bound += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let text = black_box(blif::write(c));
        write += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _ = black_box(blif::parse(&text));
        parse += t.elapsed().as_secs_f64();
    }
    let n = circuits.len();
    out.set("prepare.s", Some(prepare), n);
    out.set("retime.bound_s", Some(bound), n);
    out.set("blif.write_s", Some(write), n);
    out.set("blif.parse_s", Some(parse), n);
}

/// The batch workloads call the library directly: no service layer, so
/// its queueing and overhead read 0.
pub fn set_no_service(out: &mut Outcome) {
    for name in [
        "serve.queue_ms_p50",
        "serve.queue_ms_p99",
        "serve.run_ms_p50",
        "serve.overhead_ms_p50",
        "serve.worker_imbalance",
    ] {
        out.set(name, Some(0.0), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn::TraceSink;
    use turbosyn_json::chrome::summary_to_json;

    fn summary(phases: &[(&str, u64, u64)]) -> Json {
        let listed = phases
            .iter()
            .map(|&(name, count, ns)| {
                Json::obj(vec![
                    ("name", Json::from(name)),
                    ("count", Json::from(count)),
                    ("total_ns", Json::from(ns)),
                ])
            })
            .collect();
        Json::obj(vec![("phases", Json::Arr(listed))])
    }

    #[test]
    fn phases_are_read_by_name_from_a_trace_summary() {
        let sink = TraceSink::enabled();
        drop(sink.span("label.probe"));
        drop(sink.hot("seqdecomp"));
        drop(sink.hot("seqdecomp"));
        let phases = Phases::from_json(&summary_to_json(&sink.drain().summary()));
        assert_eq!(phases.calls("seqdecomp"), 2.0);
        assert_eq!(phases.calls("label.probe"), 1.0);
        assert_eq!(phases.calls("pld.check"), 0.0, "a phase that never ran");
        assert_eq!(phases.secs("pld.check"), 0.0);
        assert_eq!(phases.counters()["phase.seqdecomp"], 2);
    }

    #[test]
    fn phase_deltas_between_cumulative_readings() {
        let earlier = Phases::from_json(&summary(&[("a", 3, 30)]));
        let later = Phases::from_json(&summary(&[("a", 5, 50), ("b", 1, 2_000_000_000)]));
        let delta = later.since(&earlier);
        assert_eq!((delta.calls("a"), delta.secs("a")), (2.0, 20e-9));
        assert_eq!((delta.calls("b"), delta.secs("b")), (1.0, 2.0));
    }

    #[test]
    fn mapping_metrics_leave_missing_counters_absent() {
        let mut out = Outcome::new("t".into(), true);
        let phases = Phases::from_json(&summary(&[("seqdecomp", 4, 500_000_000)]));
        let work: Counters = [
            ("label.cut_tests".to_string(), 30),
            ("label.candidates_skipped".to_string(), 10),
            ("label.resyn_attempts".to_string(), 0),
            ("label.resyn_successes".to_string(), 0),
        ]
        .into();
        set_mapping_metrics(&mut out, &phases, &work, 1.0);
        assert_eq!(out.value("seqdecomp.share"), Some(0.5));
        assert_eq!(out.value("label.skip_ratio"), Some(0.25));
        assert_eq!(out.value("label.resyn_success_ratio"), Some(0.0));
        assert_eq!(out.value("pld.checks"), Some(0.0));
        assert_eq!(out.value("cache.exp_hits"), None);
        assert_eq!(out.value("cache.exp_hit_ratio"), None);
    }
}
