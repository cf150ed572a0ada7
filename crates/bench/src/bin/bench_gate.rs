//! CI regression gate over `BENCH_*.json` timing files.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--threshold-pct N]
//! ```
//!
//! Compares every `mappers/*` benchmark present in the baseline against
//! the current run and exits non-zero if any regressed by more than the
//! threshold (default 25%). Comparison is machine-normalized: each
//! file's timings are divided by its own `calib_ns` (a fixed synthetic
//! workload measured in the same process), so a faster or slower runner
//! shifts both sides equally instead of masking or faking a regression.
//!
//! Entries outside `mappers/*` (the `jobs/*` thread-scaling runs, whose
//! timing depends on the runner's core count) are reported but never
//! time-gated. A `mappers/*` bench that exists in the baseline but not
//! in the current file fails the gate — a silently vanished benchmark
//! is indistinguishable from an unmeasured regression.
//!
//! **Counter gate.** Any baseline entry carrying work counters (the
//! `probe_ladder/*` scenarios) is additionally gated on `cut_tests` and
//! `sweeps`: the current run fails if either counter grew more than 5%
//! over the baseline. Counters are machine-independent — the same
//! binary does the same number of cut tests anywhere — so they are
//! compared raw (never calib-normalized) and the threshold is much
//! tighter than the timing one. This is what catches a regression that
//! quietly disables the worklist or the probe memo: wall-clock on
//! a fast runner might still pass, the work counts cannot.
//!
//! Exit codes: `0` pass, `1` regression (or vanished bench/counter),
//! `2` usage or unreadable/malformed input.

use std::process::ExitCode;
use turbosyn_bench::json::BenchFile;

const DEFAULT_THRESHOLD_PCT: f64 = 25.0;
const GATED_PREFIX: &str = "mappers/";
/// Work counters gated when the baseline entry records them.
const GATED_COUNTERS: [&str; 2] = ["cut_tests", "sweeps"];
/// Allowed counter growth, in percent. Counters are deterministic per
/// binary, but legitimate code changes (a new expansion heuristic, say)
/// shift them slightly; 5% passes noise-free refactors while catching
/// a disabled worklist (which multiplies `cut_tests`).
const COUNTER_THRESHOLD_PCT: f64 = 5.0;

fn usage() -> &'static str {
    "usage: bench_gate <baseline.json> <current.json> [--threshold-pct N]"
}

struct Args {
    baseline: String,
    current: String,
    threshold_pct: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut threshold_pct = DEFAULT_THRESHOLD_PCT;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => return Err(usage().into()),
            "--threshold-pct" => {
                let v = it.next().ok_or("missing value for --threshold-pct")?;
                threshold_pct = v
                    .parse()
                    .map_err(|_| format!("bad threshold percentage: {v}"))?;
                if !threshold_pct.is_finite() || threshold_pct <= 0.0 {
                    return Err("--threshold-pct must be a positive number".into());
                }
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let [baseline, current] = <[String; 2]>::try_from(positional)
        .map_err(|v| format!("expected 2 file arguments, got {}\n{}", v.len(), usage()))?;
    Ok(Args {
        baseline,
        current,
        threshold_pct,
    })
}

fn load(path: &str) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchFile::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let baseline = load(&args.baseline)?;
    let current = load(&args.current)?;
    let limit = 1.0 + args.threshold_pct / 100.0;

    println!(
        "bench gate: threshold +{:.1}% | calib {} -> {} ns",
        args.threshold_pct, baseline.calib_ns, current.calib_ns
    );
    let mut ok = true;
    for base in &baseline.results {
        if !base.name.starts_with(GATED_PREFIX) {
            continue;
        }
        let base_score = baseline.score(&base.name).expect("entry from this file");
        let Some(cur_score) = current.score(&base.name) else {
            println!("FAIL {:<40} missing from current run", base.name);
            ok = false;
            continue;
        };
        let ratio = cur_score / base_score;
        let verdict = if ratio > limit { "FAIL" } else { "ok  " };
        println!(
            "{verdict} {:<40} {ratio:>7.3}x normalized ({} -> {} ns raw)",
            base.name,
            base.median_ns,
            current.get(&base.name).expect("entry exists"),
        );
        if ratio > limit {
            ok = false;
        }
    }
    for cur in &current.results {
        if cur.name.starts_with(GATED_PREFIX) && baseline.get(&cur.name).is_none() {
            println!(
                "new  {:<40} {} ns (no baseline, not gated)",
                cur.name, cur.median_ns
            );
        }
    }
    for cur in &current.results {
        if !cur.name.starts_with(GATED_PREFIX) {
            println!(
                "info {:<40} {} ns (not time-gated)",
                cur.name, cur.median_ns
            );
        }
    }
    if !gate_counters(&baseline, &current) {
        ok = false;
    }
    Ok(ok)
}

/// Gates the work counters of every baseline entry that records them.
/// Raw comparison (no calib normalization): the counts are
/// machine-independent. Returns `false` on any failure.
fn gate_counters(baseline: &BenchFile, current: &BenchFile) -> bool {
    let limit = 1.0 + COUNTER_THRESHOLD_PCT / 100.0;
    let mut ok = true;
    for base in &baseline.results {
        for name in GATED_COUNTERS {
            let Some(base_count) = base.counter(name) else {
                continue;
            };
            let label = format!("{}#{name}", base.name);
            let cur_count = current
                .results
                .iter()
                .find(|r| r.name == base.name)
                .and_then(|r| r.counter(name));
            let Some(cur_count) = cur_count else {
                println!("FAIL {label:<40} counter missing from current run");
                ok = false;
                continue;
            };
            let grew_past = cur_count as f64 > base_count as f64 * limit;
            let verdict = if grew_past { "FAIL" } else { "ok  " };
            println!(
                "{verdict} {label:<40} {base_count} -> {cur_count} \
                 (counter, +{COUNTER_THRESHOLD_PCT:.0}% gate)"
            );
            if grew_past {
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) if argv.iter().any(|a| a == "-h" || a == "--help") => {
            println!("{msg}");
            return ExitCode::from(0);
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => {
            println!("bench gate: PASS");
            ExitCode::from(0)
        }
        Ok(false) => {
            eprintln!("bench gate: FAIL (see lines above)");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_positional_and_threshold() {
        let a = args(&["base.json", "cur.json"]).expect("parses");
        assert_eq!(a.baseline, "base.json");
        assert_eq!(a.current, "cur.json");
        assert!((a.threshold_pct - DEFAULT_THRESHOLD_PCT).abs() < 1e-12);

        let a = args(&["--threshold-pct", "10", "b.json", "c.json"]).expect("parses");
        assert!((a.threshold_pct - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rejections() {
        assert!(args(&[]).is_err(), "no files");
        assert!(args(&["only-one.json"]).is_err(), "one file");
        assert!(args(&["a", "b", "c"]).is_err(), "three files");
        assert!(args(&["--threshold-pct", "-5", "a", "b"]).is_err());
        assert!(args(&["--threshold-pct", "NaN", "a", "b"]).is_err());
        assert!(args(&["--bogus", "a", "b"]).is_err());
    }

    fn write_file(
        dir: &std::path::Path,
        name: &str,
        calib: u128,
        entries: &[(&str, u128)],
    ) -> String {
        write_file_counters(dir, name, calib, entries, &[])
    }

    fn write_file_counters(
        dir: &std::path::Path,
        name: &str,
        calib: u128,
        entries: &[(&str, u128)],
        counters: &[(&str, &str, u64)],
    ) -> String {
        use turbosyn_bench::json::{BenchFile, BenchResult};
        let f = BenchFile {
            calib_ns: calib,
            results: entries
                .iter()
                .map(|(n, ns)| BenchResult {
                    name: (*n).into(),
                    median_ns: *ns,
                    counters: counters
                        .iter()
                        .filter(|(entry, _, _)| entry == n)
                        .map(|&(_, cname, cval)| (cname.into(), cval))
                        .collect(),
                })
                .collect(),
        };
        let path = dir.join(name);
        std::fs::write(&path, f.to_json()).expect("write temp bench file");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_beyond() {
        let dir = std::env::temp_dir().join(format!("bench_gate_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let base = write_file(&dir, "base.json", 100, &[("mappers/turbosyn/x", 1000)]);

        // Same calibration, 20% slower: inside the 25% default gate.
        let ok = write_file(&dir, "ok.json", 100, &[("mappers/turbosyn/x", 1200)]);
        // 50% slower: a regression.
        let slow = write_file(&dir, "slow.json", 100, &[("mappers/turbosyn/x", 1500)]);
        // 50% slower, but the machine is 2x slower overall (calib 200):
        // normalized it is a 25% *improvement*.
        let slow_machine = write_file(&dir, "sm.json", 200, &[("mappers/turbosyn/x", 1500)]);
        // The gated bench vanished; a jobs/ entry alone must not save it.
        let gone = write_file(&dir, "gone.json", 100, &[("jobs/turbosyn/x/j8", 1)]);

        let gate = |cur: &str| {
            run(&Args {
                baseline: base.clone(),
                current: cur.into(),
                threshold_pct: DEFAULT_THRESHOLD_PCT,
            })
            .expect("runs")
        };
        assert!(gate(&ok));
        assert!(!gate(&slow));
        assert!(gate(&slow_machine));
        assert!(!gate(&gone));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counter_gate_bounds_growth_raw() {
        let dir = std::env::temp_dir().join(format!("bench_gate_ctr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let entry = "probe_ladder/s5378/delta";
        let base = write_file_counters(
            &dir,
            "base.json",
            100,
            &[(entry, 1000)],
            &[(entry, "cut_tests", 1000), (entry, "sweeps", 40)],
        );
        // 4% more cut tests: inside the 5% counter gate. The entry is
        // outside mappers/*, so its (huge) timing swing is not gated.
        let ok = write_file_counters(
            &dir,
            "ok.json",
            100,
            &[(entry, 9000)],
            &[(entry, "cut_tests", 1040), (entry, "sweeps", 40)],
        );
        // 10% more cut tests: the worklist regressed. A 2x slower
        // machine (calib 200) must not excuse it — counters are raw.
        let slow = write_file_counters(
            &dir,
            "slow.json",
            200,
            &[(entry, 1000)],
            &[(entry, "cut_tests", 1100), (entry, "sweeps", 40)],
        );
        // Counters vanished from the current run entirely.
        let gone = write_file(&dir, "gone.json", 100, &[(entry, 1000)]);
        // Extra non-gated counters in the current run are fine.
        let extra = write_file_counters(
            &dir,
            "extra.json",
            100,
            &[(entry, 1000)],
            &[
                (entry, "cut_tests", 900),
                (entry, "sweeps", 40),
                (entry, "resyn_attempts", 999_999),
            ],
        );

        let gate = |cur: &str| {
            run(&Args {
                baseline: base.clone(),
                current: cur.into(),
                threshold_pct: DEFAULT_THRESHOLD_PCT,
            })
            .expect("runs")
        };
        assert!(gate(&ok));
        assert!(!gate(&slow));
        assert!(!gate(&gone));
        assert!(gate(&extra));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_input_is_an_error_not_a_verdict() {
        let err = run(&Args {
            baseline: "/nonexistent/base.json".into(),
            current: "/nonexistent/cur.json".into(),
            threshold_pct: 25.0,
        })
        .expect_err("missing file");
        assert!(err.contains("cannot read"));
    }
}
