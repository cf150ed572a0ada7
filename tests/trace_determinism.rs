//! Tracing must be an observer, never a participant: enabling it, or
//! changing the label-sweep worker count, may change nothing about what
//! the mapper computes — and the span tree itself must be a
//! deterministic function of the circuit. These tests pin all three
//! invariants, plus the disabled-sink overhead model and the
//! cancellation path's trace well-formedness.

use turbosyn::trace::{Trace, TraceSink};
use turbosyn::{report_to_json, turbosyn as run_turbosyn, Budget, CancelToken, MapOptions};
use turbosyn_json::chrome::chrome_trace;
use turbosyn_json::Json;
use turbosyn_netlist::{gen, Circuit};

fn traced_run(circuit: &Circuit, jobs: usize) -> Trace {
    let sink = TraceSink::enabled();
    let opts = MapOptions {
        jobs,
        trace: sink.clone(),
        ..MapOptions::default()
    };
    run_turbosyn(circuit, &opts).expect("maps cleanly");
    sink.drain()
}

/// The span tree as pure structure: each span's name plus the position
/// (in global open order) of its parent — no ids, no timestamps.
fn tree_shape(trace: &Trace) -> Vec<(&'static str, Option<usize>)> {
    trace
        .spans
        .iter()
        .map(|s| {
            let parent = (s.parent != 0).then(|| {
                trace
                    .spans
                    .iter()
                    .position(|p| p.id == s.parent)
                    .expect("parent id resolves to a span in the same trace")
            });
            (s.name, parent)
        })
        .collect()
}

/// Phase names and call counts (spans and hot ops alike), durations
/// ignored.
fn phase_counts(trace: &Trace) -> Vec<(String, u64)> {
    trace
        .summary()
        .phases
        .iter()
        .map(|p| (p.name.to_string(), p.count))
        .collect()
}

#[test]
fn span_tree_is_identical_across_jobs() {
    let circuit = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 3,
        outputs: 3,
        depth: 6,
        seed: 7,
    });
    let serial = traced_run(&circuit, 1);
    let parallel = traced_run(&circuit, 4);
    assert!(
        serial.spans.iter().any(|s| s.name == "label.probe"),
        "the run produced label.probe spans"
    );
    assert_eq!(
        tree_shape(&serial),
        tree_shape(&parallel),
        "span names and nesting must not depend on the worker count"
    );
    assert_eq!(
        phase_counts(&serial),
        phase_counts(&parallel),
        "per-phase call counts (spans and hot ops) must not depend on the worker count"
    );
}

#[test]
fn enabling_tracing_changes_no_report_bytes() {
    let circuit = gen::figure1();
    let baseline = run_turbosyn(&circuit, &MapOptions::default()).expect("maps");
    let sink = TraceSink::enabled();
    let traced = run_turbosyn(
        &circuit,
        &MapOptions {
            trace: sink.clone(),
            ..MapOptions::default()
        },
    )
    .expect("maps");
    let trace = sink.drain();
    assert!(trace.spans.len() > 1, "the traced run recorded spans");
    assert_eq!(
        report_to_json(&baseline).write(),
        report_to_json(&traced).write(),
        "canonical report JSON must be byte-identical with tracing on vs off"
    );
}

#[test]
fn coarse_phase_spans_account_for_most_of_the_wall_time() {
    // The CLI acceptance run checks this on s5378; here the same
    // invariant on a generated circuit guards it in the suite. The
    // `drive` spans cover everything the mapper does after argument
    // validation, so their share of the drained wall clock is high by
    // construction — the point of the assertion is that the spans
    // actually measure the run (non-zero, properly closed durations).
    let circuit = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 3,
        outputs: 3,
        depth: 6,
        seed: 7,
    });
    let trace = traced_run(&circuit, 1);
    let drive_ns: u64 = trace
        .spans
        .iter()
        .filter(|s| s.name == "drive")
        .map(|s| s.dur_ns())
        .sum();
    assert!(drive_ns > 0, "drive spans carry real durations");
    assert!(
        drive_ns * 10 >= trace.wall_ns * 8,
        "drive spans cover >=80% of the trace wall clock \
         ({drive_ns} of {} ns)",
        trace.wall_ns
    );
    assert!(
        trace.spans.iter().all(|s| !s.truncated),
        "a run that finished cleanly leaves no span open"
    );
}

#[test]
fn one_root_span_covers_every_label_probe() {
    // TurboSYN's TurboMap prepass probes labels before the φ search
    // starts; the root span around the whole mapper call covers both.
    let circuit = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 3,
        outputs: 3,
        depth: 6,
        seed: 7,
    });
    let trace = traced_run(&circuit, 1);
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one root span per mapper call");
    let root = roots[0];
    assert_eq!(root.name, "drive");
    let under_root = |mut id: u64| loop {
        if id == root.id {
            return true;
        }
        match trace.spans.iter().find(|s| s.id == id) {
            Some(span) if span.parent != 0 => id = span.parent,
            _ => return false,
        }
    };
    let probes: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "label.probe")
        .collect();
    assert!(!probes.is_empty(), "the run probed labels");
    assert!(
        probes.iter().all(|p| under_root(p.id)),
        "every label.probe nests under the root span"
    );
    let probe_ns: u64 = probes.iter().map(|p| p.dur_ns()).sum();
    assert!(
        root.dur_ns() >= probe_ns,
        "root span {} ns < summed label.probe {probe_ns} ns",
        root.dur_ns()
    );
}

#[test]
fn disabled_sink_overhead_is_under_two_percent() {
    use std::hint::black_box;
    use std::time::Instant;

    let circuit = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 3,
        outputs: 3,
        depth: 6,
        seed: 7,
    });
    // S: how many instrumentation hooks one mapping run actually fires
    // (spans opened + hot ops), from an enabled run.
    let hooks = traced_run(&circuit, 1).hook_calls();
    assert!(hooks > 0, "the run exercises the instrumentation");

    // C: the measured per-call cost of a *disabled* hook.
    let sink = TraceSink::disabled();
    const CALLS: u64 = 1_000_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(sink.span(black_box("x")));
    }
    let per_call_ns = t.elapsed().as_nanos() as f64 / CALLS as f64;

    // Wall time of an untraced run (median of 3 to tame scheduler
    // noise).
    let mut walls = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        black_box(run_turbosyn(&circuit, &MapOptions::default()).expect("maps"));
        walls.push(t.elapsed().as_nanos());
    }
    walls.sort_unstable();
    let wall_ns = walls[1] as f64;

    // The model: all S hooks at disabled cost C must be under 2% of the
    // run. Robust against timer noise — no need to measure a sub-2%
    // delta between two noisy end-to-end timings directly.
    let overhead_ns = hooks as f64 * per_call_ns;
    assert!(
        overhead_ns < 0.02 * wall_ns,
        "disabled-trace overhead model exceeds 2%: {hooks} hooks x \
         {per_call_ns:.2} ns = {overhead_ns:.0} ns vs wall {wall_ns:.0} ns"
    );
}

#[test]
fn cancelled_run_still_yields_a_well_formed_trace_file() {
    // The biggest suite circuit, cancelled shortly after launch. If the
    // race is lost and the run completes first, the trace is simply
    // complete — the assertions below hold either way, so the test
    // cannot flake on scheduling.
    let circuit = gen::suite()
        .into_iter()
        .max_by_key(|b| b.circuit.node_count())
        .expect("suite is non-empty")
        .circuit;
    let cancel = CancelToken::new();
    let sink = TraceSink::enabled();
    let opts = MapOptions {
        budget: Budget::default().with_cancel(cancel.clone()),
        trace: sink.clone(),
        ..MapOptions::default()
    };
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(20));
        cancel.cancel();
    });
    let outcome = run_turbosyn(&circuit, &opts);
    canceller.join().expect("canceller joins");

    // Flush exactly as the CLI's --trace-out path does.
    let trace = sink.drain();
    let mut text = chrome_trace(&trace).write();
    text.push('\n');
    let path =
        std::env::temp_dir().join(format!("turbosyn-cancel-trace-{}.json", std::process::id()));
    std::fs::write(&path, &text).expect("writes trace file");
    let read_back = std::fs::read_to_string(&path).expect("reads trace file");
    std::fs::remove_file(&path).ok();

    let root = Json::parse(read_back.trim_end()).expect("trace file is valid JSON");
    assert_eq!(root.get("displayTimeUnit"), Some(&Json::Str("ms".into())));
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        panic!("traceEvents array present");
    };
    assert!(!events.is_empty(), "the trace captured events");
    if outcome.is_err() {
        assert!(
            !trace.spans.is_empty(),
            "a cancelled run still flushed its spans"
        );
    }
    // Unwinding closes guards, so even a cancelled run's spans are all
    // closed; the file stays checker-clean.
    assert!(trace.spans.iter().all(|s| !s.truncated));
}
