//! `perfbench`: the repository benchmark.
//!
//! Runs one named workload through the public API of the TurboSYN
//! crates, checks every mapping result independently of the mappers'
//! self-verification, prints every metric by name with its unit and
//! sample count, and ends with one JSON result line:
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics. `--smoke`
//! shrinks a workload to a seconds-long run. See README.md beside this
//! package's manifest.

mod batch;
mod check;
mod layers;
mod report;
mod serve;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <turbosyn_cold|turbomap_large|serve_resubmit> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]";

/// One run's settings, from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: Workload,
    /// Generator seed; 0 reproduces the `gen::suite()` rows.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Shrink the workload to a seconds-long run.
    pub smoke: bool,
}

impl Run {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Run, String> {
        let mut args = args.into_iter();
        let mut workload = None;
        let mut run = Run {
            workload: Workload::TurbosynCold,
            seed: 0,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                run.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    run.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
                }
                "--seconds" => {
                    run.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                }
                "--trace" => {
                    run.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}")),
                    };
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        run.workload = workload.ok_or("--workload is required")?;
        Ok(run)
    }
}

/// Runs the workload `run` names.
fn execute(run: &Run) -> report::Outcome {
    match run.workload {
        Workload::ServeResubmit => serve::run(run),
        batch_workload => batch::run(batch_workload, run),
    }
}

fn main() -> ExitCode {
    match Run::parse(std::env::args().skip(1)) {
        Ok(run) => {
            execute(&run).print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Outcome, END_TO_END, PER_LAYER};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let run = Run::parse(args(
            "--workload serve_resubmit --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            run,
            Ok(Run {
                workload: Workload::ServeResubmit,
                seed: 7,
                seconds: 10.0,
                trace: true,
                smoke: false,
            })
        );
        let smoke = Run::parse(args("--smoke --workload turbosyn_cold")).expect("parses");
        assert!(smoke.smoke && !smoke.trace && smoke.seed == 0);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload turbosyn_cold --trace 2",
            "--workload turbosyn_cold --seconds 0",
            "--workload turbosyn_cold --seed",
            "--workload turbosyn_cold --seed -1",
            "--workload turbosyn_cold --frobnicate 1",
        ] {
            assert!(Run::parse(args(bad)).is_err(), "{bad:?}");
        }
    }

    fn smoke(workload: Workload, trace: bool) -> Outcome {
        execute(&Run {
            workload,
            seed: 0,
            seconds: 1.0,
            trace,
            smoke: true,
        })
    }

    fn assert_complete(out: &Outcome, listed: &[(&str, &str)]) {
        assert!(
            out.correct(),
            "{}: failures {:?}, not repeated {:?}",
            out.title,
            out.tally.failures(),
            out.mismatches
        );
        for (name, _) in listed {
            assert!(out.value(name).is_some(), "{} lacks {name}", out.title);
        }
    }

    /// A workload's smoke runs: correct, every metric of each run kind
    /// present, end-to-end metrics nonzero, and report bytes and work
    /// counters repeating exactly across two runs of the same seed.
    fn check_smoke(workload: Workload) -> Outcome {
        let (a, b) = (smoke(workload, false), smoke(workload, false));
        assert_complete(&a, END_TO_END);
        for (name, _) in END_TO_END {
            assert!(a.value(name) > Some(0.0), "{}: {name} is 0", a.title);
        }
        assert_eq!(a.report_digest, b.report_digest, "report bytes repeat");
        assert_eq!(a.counter_digest, b.counter_digest, "work counters repeat");
        let (t, u) = (smoke(workload, true), smoke(workload, true));
        assert_complete(&t, PER_LAYER);
        assert_eq!(t.counter_digest, u.counter_digest, "traced counters repeat");
        t
    }

    #[test]
    fn turbosyn_cold_smoke() {
        let traced = check_smoke(Workload::TurbosynCold);
        assert!(traced.value("seqdecomp.calls") > Some(0.0));
    }

    #[test]
    fn turbomap_large_smoke_makes_no_seqdecomp_calls() {
        let traced = check_smoke(Workload::TurbomapLarge);
        assert_eq!(traced.value("seqdecomp.calls"), Some(0.0));
        assert!(traced.value("min_cut.calls") > Some(0.0));
    }

    #[test]
    fn serve_resubmit_smoke() {
        let traced = check_smoke(Workload::ServeResubmit);
        assert!(traced.value("serve.run_ms_p50").is_some());
    }
}
