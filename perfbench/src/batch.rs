//! The batch workloads, `turbosyn_cold` and `turbomap_large`: every
//! circuit is mapped cold on a fresh [`Engine`] and then resubmitted warm
//! to that engine, pass after pass until the window closes, on two
//! threads side by side.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use turbosyn::{
    cache_stats_to_json, label_stats_to_json, report_to_json, Engine, MapOptions, MapReport,
    TraceSink,
};
use turbosyn_json::chrome::summary_to_json;
use turbosyn_netlist::Circuit;

use crate::layers::{self, Phases};
use crate::report::Outcome;
use crate::stats::{self, add_counters, Counters, Samples, FNV_START};
use crate::workloads::{self, Row, Workload};
use crate::{check, Run};

/// Untraced passes per run at the least, so that every run checks that
/// reports and work counters repeat.
const MIN_PASSES: usize = 2;

/// The mapper a batch workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapper {
    TurboSyn,
    TurboMap,
}

impl Mapper {
    /// Maps `c` on `engine` with `MapOptions::default()` (K = 5,
    /// jobs = 1). A panic becomes an error.
    fn map(self, engine: &Engine, c: &Circuit) -> Result<MapReport, String> {
        let opts = MapOptions::default();
        let result = catch_unwind(AssertUnwindSafe(|| match self {
            Mapper::TurboSyn => engine.turbosyn(c, &opts),
            Mapper::TurboMap => engine.turbomap(c, &opts),
        }));
        match result {
            Ok(mapped) => mapped.map_err(|e| e.to_string()),
            Err(_) => Err("the mapper panicked".into()),
        }
    }
}

/// One circuit's cold map in one pass, with its warm resubmissions.
pub struct Cold {
    report: Result<MapReport, String>,
    /// `report_to_json` bytes; empty after a failure.
    json: String,
    /// The engine's work counters right after the cold map.
    counters: Counters,
    wall_s: f64,
    cpu_s: f64,
    /// Latency in ms and verdict of each warm resubmission.
    warm: Vec<(f64, Result<(), String>)>,
}

/// Maps every circuit cold on a fresh engine recording into `sink`, then
/// `warm_rounds` more times on that engine.
fn pass(mapper: Mapper, circuits: &[Circuit], sink: &TraceSink, warm_rounds: usize) -> Vec<Cold> {
    circuits
        .iter()
        .map(|c| {
            let cpu0 = stats::thread_cpu_seconds();
            let t0 = Instant::now();
            let engine = Engine::with_trace(sink.clone());
            let report = mapper.map(&engine, c);
            let wall_s = t0.elapsed().as_secs_f64();
            let cpu_s = stats::thread_cpu_seconds() - cpu0;

            let mut counters = Counters::new();
            add_counters(
                &mut counters,
                "label.",
                &label_stats_to_json(&engine.label_stats()),
            );
            add_counters(
                &mut counters,
                "cache.",
                &cache_stats_to_json(&engine.cache_stats()),
            );
            let json = report
                .as_ref()
                .map(|r| report_to_json(r).write())
                .unwrap_or_default();
            let rounds = if report.is_ok() { warm_rounds } else { 0 };
            let warm = (0..rounds)
                .map(|_| {
                    let t = Instant::now();
                    let again = mapper.map(&engine, c);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let verdict = again.and_then(|r| {
                        if report_to_json(&r).write() == json {
                            Ok(())
                        } else {
                            Err("warm report differs from the cold one".into())
                        }
                    });
                    (ms, verdict)
                })
                .collect();
            Cold {
                report,
                json,
                counters,
                wall_s,
                cpu_s,
                warm,
            }
        })
        .collect()
}

/// A plain and a traced pass over `circuits`, cold maps only, with the
/// traced pass's phases.
pub fn plain_and_traced(mapper: Mapper, circuits: &[Circuit]) -> (Vec<Cold>, Vec<Cold>, Phases) {
    let plain = pass(mapper, circuits, &TraceSink::disabled(), 0);
    let sink = TraceSink::enabled();
    let traced = pass(mapper, circuits, &sink, 0);
    let phases = Phases::from_json(&summary_to_json(&sink.drain().summary()));
    (plain, traced, phases)
}

/// Checks both passes of [`plain_and_traced`] and that the traced one
/// repeats the plain one; returns the traced pass's summed counters.
pub fn check_plain_and_traced(
    out: &mut Outcome,
    circuits: &[Circuit],
    plain: &[Cold],
    traced: &[Cold],
) -> Counters {
    let mut work = Counters::new();
    for (i, c) in circuits.iter().enumerate() {
        out.tally.record(checked(c, &plain[i].report));
        out.tally.record(checked(c, &traced[i].report));
        note_repeats(out, c.name(), &plain[i], &traced[i]);
        stats::merge(&mut work, &traced[i].counters);
    }
    work
}

/// Wall time of the cold maps of a pass.
pub fn wall_s(pass: &[Cold]) -> f64 {
    pass.iter().map(|c| c.wall_s).sum()
}

/// The independent check of one cold map.
fn checked(input: &Circuit, report: &Result<MapReport, String>) -> Result<(), String> {
    report
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|r| check::report(input, r))
        .map_err(|e| format!("{}: {e}", input.name()))
}

/// Notes where `again` failed to repeat `first` exactly.
fn note_repeats(out: &mut Outcome, name: &str, first: &Cold, again: &Cold) {
    if again.json != first.json {
        out.mismatches
            .push(format!("{name}: report bytes differ between passes"));
    }
    for m in stats::repeat_mismatches(&first.counters, &again.counters) {
        out.mismatches.push(format!("{name}: {m}"));
    }
}

fn set_digests(out: &mut Outcome, pass: &[Cold], extra: &Counters) {
    out.report_digest = pass
        .iter()
        .fold(FNV_START, |h, c| stats::fnv(h, c.json.as_bytes()));
    let counters = pass
        .iter()
        .fold(FNV_START, |h, c| stats::counters_digest(h, &c.counters));
    out.counter_digest = stats::counters_digest(counters, extra);
}

/// Runs `turbosyn_cold` or `turbomap_large`.
pub fn run(workload: Workload, run: &Run) -> Outcome {
    // Warm resubmissions per pass: enough for a tail percentile where
    // they are cheap, one where a TurboMap remap costs about half a
    // second.
    let (mapper, warm_rounds) = match workload {
        Workload::TurbomapLarge => (Mapper::TurboMap, 1),
        _ => (Mapper::TurboSyn, 20),
    };
    let rows = workloads::rows(workload, run.smoke);
    let title = format!(
        "{} seed {}, trace {}: {} circuits",
        workload.name(),
        run.seed,
        u8::from(run.trace),
        rows.len()
    );
    let mut out = Outcome::new(title, run.trace);
    if run.trace {
        traced(mapper, &workloads::generate(&rows, run.seed), &mut out);
    } else {
        timed(mapper, warm_rounds, &rows, run, &mut out);
    }
    out
}

/// Threads that map passes side by side in an untraced run, at most one
/// per core. The cores of a shared machine slow down separately, so each
/// circuit's fastest map over both threads is the steadier timing.
fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One pass of an untraced run.
struct TimedPass {
    /// Generating the pass's circuits: its set-up.
    setup_s: f64,
    cold: Vec<Cold>,
    /// The independent check of each cold map.
    checks: Vec<Result<(), String>>,
}

/// One thread's passes, each on circuits it generates itself: passes
/// while another one, as long as the mean pass so far, still ends within
/// `seconds` of `start`; at least [`MIN_PASSES`] of them.
fn lane(
    mapper: Mapper,
    warm_rounds: usize,
    rows: &[Row],
    run: &Run,
    start: Instant,
) -> Vec<TimedPass> {
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / passes.len() as f64 <= run.seconds
    } {
        let t = Instant::now();
        let circuits = workloads::generate(rows, run.seed);
        let setup_s = t.elapsed().as_secs_f64();
        let cold = pass(mapper, &circuits, &TraceSink::disabled(), warm_rounds);
        let checks = circuits
            .iter()
            .zip(&cold)
            .map(|(c, r)| checked(c, &r.report))
            .collect();
        passes.push(TimedPass {
            setup_s,
            cold,
            checks,
        });
    }
    passes
}

/// The untraced run: [`lanes`] threads set up and map passes until the
/// window closes. Set-ups spread over the window this way, as the maps
/// do, so `setup_s` does not hang on the moment the process started.
fn timed(mapper: Mapper, warm_rounds: usize, rows: &[Row], run: &Run, out: &mut Outcome) {
    let start = Instant::now();
    let lanes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes())
            .map(|_| s.spawn(|| lane(mapper, warm_rounds, rows, run, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a mapping thread panicked"))
            .collect()
    });
    let circuits = workloads::generate(rows, run.seed);
    let mut first: Option<&Vec<Cold>> = None;
    let mut setup = Samples::default();
    let mut wall = vec![Samples::default(); circuits.len()];
    let mut cpu = vec![Samples::default(); circuits.len()];
    // Per circuit and warm round, one latency per pass.
    let mut warm = vec![vec![Samples::default(); warm_rounds]; circuits.len()];
    let mut passes = 0;
    for p in lanes.iter().flatten() {
        setup.push(p.setup_s);
        for (i, (c, r)) in circuits.iter().zip(&p.cold).enumerate() {
            wall[i].push(r.wall_s);
            cpu[i].push(r.cpu_s);
            out.tally.record(p.checks[i].clone());
            for (round, (ms, verdict)) in r.warm.iter().enumerate() {
                warm[i][round].push(*ms);
                let verdict = verdict.clone();
                out.tally
                    .record(verdict.map_err(|e| format!("{} warm: {e}", c.name())));
            }
            if let Some(first) = first {
                note_repeats(out, c.name(), &first[i], r);
            }
        }
        first.get_or_insert(&p.cold);
        passes += 1;
    }
    let first = first.expect("at least one pass ran");
    out.title += &format!(", {passes} passes on {} threads", lanes.len());
    for (c, w) in circuits.iter().zip(&wall) {
        println!(
            "  {:<10} cold map fastest {:10.2} ms, median {:10.2} ms  n={}",
            c.name(),
            w.min().unwrap_or(f64::NAN) * 1e3,
            w.median().unwrap_or(f64::NAN) * 1e3,
            w.len()
        );
    }

    // Per-circuit minima over the passes of both threads, summed: a pass
    // slowed by contention from elsewhere moves this least.
    let sum_of_minima = |s: &[Samples]| s.iter().map(Samples::min).sum::<Option<f64>>();
    out.set("setup_s", setup.median(), setup.len());
    let map_wall_s = sum_of_minima(&wall);
    out.set("map_wall_s", map_wall_s, passes);
    out.set("map_cpu_s", sum_of_minima(&cpu), passes);
    out.set("peak_rss_mb", Some(stats::peak_rss_mb()), 1);
    let quality: Vec<(i64, u64, u64)> = first
        .iter()
        .filter_map(|c| c.report.as_ref().ok())
        .map(|r| (r.phi, r.lut_count as u64, r.register_count))
        .collect();
    out.set_quality(&quality);
    // Each resubmission's fastest pass, as for the cold maps: the tail
    // then shows the slow circuits, not one-off stalls from elsewhere.
    let mut warm_ms = Samples::default();
    for latency in warm.iter().flatten().filter_map(Samples::min) {
        warm_ms.push(latency);
    }
    out.set("warm_p50_ms", warm_ms.median(), warm_ms.len());
    out.set("warm_p99_ms", warm_ms.percentile(99), warm_ms.len());
    // The median circuit, by its fastest map: pooling every pass's maps
    // would let noise swap which of two circuits sits in the middle.
    let mut cold_ms = Samples::default();
    for w in &wall {
        cold_ms.push(w.min().unwrap_or(f64::NAN) * 1e3);
    }
    out.set("cold_p50_ms", cold_ms.median(), cold_ms.len());
    let rate = map_wall_s.map(|s| circuits.len() as f64 / s);
    out.set("throughput_rps", rate, circuits.len());
    set_digests(out, first, &Counters::new());
}

/// The traced run: one plain and one traced pass of cold maps.
fn traced(mapper: Mapper, circuits: &[Circuit], out: &mut Outcome) {
    let (plain, traced, phases) = plain_and_traced(mapper, circuits);
    let work = check_plain_and_traced(out, circuits, &plain, &traced);
    layers::set_mapping_metrics(out, &phases, &work, wall_s(&traced));
    layers::set_netlist_metrics(out, circuits);
    let reports: Vec<&MapReport> = traced
        .iter()
        .filter_map(|c| c.report.as_ref().ok())
        .collect();
    let t = Instant::now();
    let bytes: usize = reports
        .iter()
        .map(|r| report_to_json(r).write().len())
        .sum();
    out.set(
        "json.report_s",
        Some(t.elapsed().as_secs_f64()),
        reports.len(),
    );
    out.set("json.report_bytes", Some(bytes as f64), reports.len());
    layers::set_no_service(out);
    let overhead = wall_s(&traced) / wall_s(&plain);
    out.set("trace.overhead_ratio", Some(overhead), 1);
    set_digests(out, &traced, &phases.counters());
}
