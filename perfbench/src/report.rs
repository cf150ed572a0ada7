//! What one run reports: every metric by name with its unit and sample
//! count, the failure tally, what failed to repeat, and the JSON result
//! line that ends the output.

use std::collections::BTreeMap;
use turbosyn_json::quote;

use crate::stats::{geomean, Tally};

/// End-to-end metrics (name, unit), measured on untraced runs. The same
/// names, with their bounds, are listed in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("map_wall_s", "s"),
    ("map_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("phi_geomean", "ratio"),
    ("luts_total", "count"),
    ("regs_total", "count"),
    ("warm_p50_ms", "ms"),
    ("warm_p99_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
];

/// Per-layer metrics (name, unit), reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("seqdecomp.calls", "count"),
    ("seqdecomp.s", "s"),
    ("seqdecomp.share", "ratio"),
    ("label.probes", "count"),
    ("label.probe_s", "s"),
    ("label.sweeps", "count"),
    ("label.cut_tests", "count"),
    ("label.candidates_skipped", "count"),
    ("label.skip_ratio", "ratio"),
    ("label.resyn_attempts", "count"),
    ("label.resyn_successes", "count"),
    ("label.resyn_success_ratio", "ratio"),
    ("label.warm_started_probes", "count"),
    ("expand.calls", "count"),
    ("expand.s", "s"),
    ("min_cut.calls", "count"),
    ("min_cut.s", "s"),
    ("pld.checks", "count"),
    ("pld.checks_skipped", "count"),
    ("pld.s", "s"),
    ("cache.exp_hits", "count"),
    ("cache.exp_misses", "count"),
    ("cache.exp_hit_ratio", "ratio"),
    ("cache.decomp_hits", "count"),
    ("cache.decomp_misses", "count"),
    ("cache.decomp_hit_ratio", "ratio"),
    ("mapgen.s", "s"),
    ("verify.s", "s"),
    ("retime.s", "s"),
    ("retime.bound_s", "s"),
    ("prepare.s", "s"),
    ("blif.parse_s", "s"),
    ("blif.write_s", "s"),
    ("json.report_s", "s"),
    ("json.report_bytes", "bytes"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.worker_imbalance", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One run's findings.
#[derive(Debug, Default)]
pub struct Outcome {
    /// What ran, in one line.
    pub title: String,
    /// A traced run, reporting [`PER_LAYER`] instead of [`END_TO_END`].
    pub trace: bool,
    pub tally: Tally,
    /// Results or work counters that failed to repeat exactly.
    pub mismatches: Vec<String>,
    /// Digest of the canonical report bytes; equal across runs of a seed.
    pub report_digest: u64,
    /// Digest of the deterministic work counters; equal across runs of a
    /// seed.
    pub counter_digest: u64,
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Outcome {
    pub fn new(title: String, trace: bool) -> Outcome {
        Outcome {
            title,
            trace,
            ..Outcome::default()
        }
    }

    /// Records metric `name`, measured over `samples` samples. A missing
    /// or non-finite value leaves the metric absent.
    pub fn set(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not listed"
        );
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.values.insert(name, (v, samples));
        }
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Something was attempted, nothing failed, everything repeated.
    pub fn correct(&self) -> bool {
        self.tally.attempted() > 0 && self.tally.failed() == 0 && self.mismatches.is_empty()
    }

    fn listed(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// present metric of the run's kind with its value and unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .listed()
            .iter()
            .filter_map(|&(name, unit)| {
                let (v, _) = self.values.get(name)?;
                Some(format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    quote(name),
                    quote(unit)
                ))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.tally.attempted().max(1),
            self.tally.failed(),
            metrics.join(",")
        )
    }

    /// Prints every metric with unit and sample count, what failed, and
    /// the result line last.
    pub fn print(&self) {
        println!("{}", self.title);
        for &(name, unit) in self.listed() {
            match self.values.get(name) {
                Some((v, n)) => println!("  {name:<26} {v:>16.6} {unit:<6} n={n}"),
                None => println!("  {name:<26} {:>16} {unit:<6}", "absent"),
            }
        }
        println!(
            "  fail_share {}/{} = {}",
            self.tally.failed(),
            self.tally.attempted(),
            self.tally.share()
        );
        println!(
            "  report digest {:016x}, counter digest {:016x}",
            self.report_digest, self.counter_digest
        );
        for why in self.tally.failures().iter().take(20) {
            println!("  FAILED {why}");
        }
        for what in self.mismatches.iter().take(20) {
            println!("  NOT REPEATED {what}");
        }
        println!("{}", self.json_line());
    }

    /// Records the quality of results from (Φ, LUTs, registers) per
    /// mapped circuit.
    pub fn set_quality(&mut self, results: &[(i64, u64, u64)]) {
        let n = results.len();
        let phis: Vec<f64> = results.iter().map(|r| r.0 as f64).collect();
        self.set("phi_geomean", geomean(&phis), n);
        let luts = results.iter().map(|r| r.1).sum::<u64>();
        self.set("luts_total", Some(luts as f64), n);
        let regs = results.iter().map(|r| r.2).sum::<u64>();
        self.set("regs_total", Some(regs as f64), n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_exactly_the_run_kind_metrics() {
        let mut out = Outcome::new("t".into(), false);
        out.tally.record(Ok(()));
        out.set("setup_s", Some(0.25), 3);
        out.set("map_wall_s", None, 2);
        out.set("map_cpu_s", Some(f64::NAN), 2);
        out.set("seqdecomp.calls", Some(4.0), 1);
        assert!(out.correct());
        assert_eq!(
            out.json_line(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        out.mismatches.push("x".into());
        assert!(!out.correct());
        out.trace = true;
        assert!(out
            .json_line()
            .contains("\"seqdecomp.calls\":{\"value\":4,\"unit\":\"count\"}"));
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        let out = Outcome::new("t".into(), false);
        assert!(!out.correct());
        assert!(out.json_line().contains("\"attempted\":1"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside this package");
        let names = text.matches("\"name\": ").count();
        assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
