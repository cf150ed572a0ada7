//! Chrome-trace-format export of a [`turbosyn_trace::Trace`], plus the
//! canonical JSON shapes for phase summaries (shared by the CLI's
//! `--trace-out` file and the serve `metrics` frame).
//!
//! The produced value loads directly into `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): a top-level object with a
//! `traceEvents` array of complete (`"ph":"X"`) events. Chrome's
//! timestamps are microseconds; exact nanosecond durations ride along in
//! each event's `args` so tooling (and the CI trace checker) can work at
//! full resolution. Field order is fixed, so equal traces serialize to
//! equal bytes.

use crate::Json;
use turbosyn_trace::{Phase, Summary, Trace};

/// Converts a drained trace into a Chrome-trace JSON object.
///
/// Layout: `{"displayTimeUnit":"ms","traceEvents":[...],"summary":{...}}`
/// with one metadata event naming the process and one `"X"` event per
/// span. Spans that were still open at drain time carry
/// `"truncated":true` in their `args` (their `dur` runs to the drain
/// timestamp).
#[must_use]
pub fn chrome_trace(trace: &Trace) -> Json {
    let mut events = Vec::with_capacity(trace.spans.len() + 1);
    events.push(Json::obj(vec![
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        (
            "args",
            Json::obj(vec![("name", Json::Str("turbosyn".into()))]),
        ),
    ]));
    for span in &trace.spans {
        let mut args = vec![
            ("id", Json::Int(i128::from(span.id))),
            ("parent", Json::Int(i128::from(span.parent))),
            ("seq", Json::Int(i128::from(span.seq))),
            ("dur_ns", Json::Int(i128::from(span.dur_ns()))),
        ];
        if span.truncated {
            args.push(("truncated", Json::Bool(true)));
        }
        events.push(Json::obj(vec![
            ("name", Json::Str(span.name.into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Int(i128::from(span.t0_ns / 1_000))),
            ("dur", Json::Int(i128::from(span.dur_ns() / 1_000))),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(i128::from(span.tid))),
            ("args", Json::obj(args)),
        ]));
    }
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
        ("summary", summary_to_json(&trace.summary())),
        ("wall_ns", Json::Int(i128::from(trace.wall_ns))),
    ])
}

/// Canonical JSON for one phase's latency statistics. Buckets are the
/// sparse `[index, count]` pairs of the non-empty log₂ buckets, in
/// index order; their counts sum to `count`.
#[must_use]
pub fn phase_to_json(phase: &Phase) -> Json {
    let buckets: Vec<Json> = phase
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| {
            Json::Arr(vec![
                Json::Int(i128::from(i as u64)),
                Json::Int(i128::from(c)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("name", Json::Str(phase.name.into())),
        ("count", Json::Int(i128::from(phase.count))),
        ("total_ns", Json::Int(i128::from(phase.total_ns))),
        ("max_ns", Json::Int(i128::from(phase.max_ns))),
        ("buckets", Json::Arr(buckets)),
    ])
}

/// Canonical JSON for a per-phase summary (the serve `metrics` frame's
/// aggregate shape).
#[must_use]
pub fn summary_to_json(summary: &Summary) -> Json {
    Json::obj(vec![
        ("spans", Json::Int(i128::from(summary.spans))),
        ("span_ns", Json::Int(i128::from(summary.span_ns))),
        (
            "phases",
            Json::Arr(summary.phases.iter().map(phase_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_trace::TraceSink;

    #[test]
    fn chrome_export_is_parseable_and_deterministic() {
        let sink = TraceSink::enabled();
        {
            let _outer = sink.span("drive");
            drop(sink.span("label.probe"));
            drop(sink.hot("flow.min_cut"));
        }
        let trace = sink.drain();
        let json = chrome_trace(&trace);
        let text = json.write();
        let parsed = Json::parse(&text).expect("export parses back");
        assert_eq!(parsed, json, "round-trips");
        let events = parsed.get("traceEvents").expect("traceEvents present");
        let Json::Arr(events) = events else {
            panic!("traceEvents is an array");
        };
        assert_eq!(events.len(), 3, "metadata + two spans");
        // Every span event is a complete event with the fixed key order.
        for event in &events[1..] {
            let Json::Obj(pairs) = event else {
                panic!("event is an object");
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "ph", "ts", "dur", "pid", "tid", "args"]);
            assert_eq!(event.get("ph"), Some(&Json::Str("X".into())));
        }
        // Serialization is stable.
        assert_eq!(text, chrome_trace(&trace).write());
    }

    #[test]
    fn truncated_span_is_flagged() {
        let sink = TraceSink::enabled();
        std::mem::forget(sink.span("leak"));
        let json = chrome_trace(&sink.drain());
        let Some(Json::Arr(events)) = json.get("traceEvents") else {
            panic!("traceEvents is an array");
        };
        let args = events[1].get("args").expect("args present");
        assert_eq!(args.get("truncated"), Some(&Json::Bool(true)));
    }

    #[test]
    fn phase_buckets_are_sparse_and_sum_to_count() {
        let sink = TraceSink::enabled();
        for _ in 0..10 {
            drop(sink.hot("op"));
        }
        let summary = sink.drain().summary();
        let json = summary_to_json(&summary);
        let Some(Json::Arr(phases)) = json.get("phases") else {
            panic!("phases is an array");
        };
        let Some(Json::Arr(buckets)) = phases[0].get("buckets") else {
            panic!("buckets is an array");
        };
        let total: i128 = buckets
            .iter()
            .map(|pair| match pair {
                Json::Arr(kv) => match kv[1] {
                    Json::Int(c) => c,
                    _ => panic!("count is an int"),
                },
                _ => panic!("bucket is a pair"),
            })
            .sum();
        assert_eq!(total, 10);
    }
}
