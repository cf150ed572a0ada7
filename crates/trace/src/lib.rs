//! Phase-level tracing for the TurboSYN stack.
//!
//! The synthesis engine attributes its runtime to a handful of *phases*
//! (label probes and sweeps, flow min-cuts, expansions, PLD checks,
//! decomposition, the drive loop). This crate records that attribution
//! with two primitives behind one clonable [`TraceSink`] handle:
//!
//! * **Spans** ([`TraceSink::span`]) — nested, timestamped intervals
//!   forming a tree per sink. Used for the coarse phases whose count is
//!   small (probes, sweeps, mapping generation). Exportable to the
//!   Chrome trace format (see `turbosyn-json`).
//! * **Hot-op histograms** ([`TraceSink::hot`]) — duration-only timings
//!   of very high-frequency operations (min-cuts, expansions), folded
//!   into per-thread log₂-bucket latency histograms at record time so
//!   memory stays O(phases), not O(calls).
//!
//! ## Architecture
//!
//! A sink is either *disabled* (the default — every call is a branch on
//! a `None` and nothing else, so instrumented code compiles to near
//! no-ops) or *enabled*. An enabled sink hands each recording thread its
//! own buffer: pushes touch only thread-local state plus one uncontended
//! mutex, never a shared structure. Interleaving across threads is
//! recovered at [`TraceSink::drain`] time from a global sequence number
//! stamped on every span open/close — the classic thread-local-buffer +
//! sequence-numbered-merge design.
//!
//! ## Determinism
//!
//! Span *content* (names, nesting, counts) reflects the engine's
//! deterministic computation, so two runs of the same workload — at any
//! worker count — produce identical span trees; only timestamps, thread
//! ids, and sequence values differ. Worker threads inherit a logical
//! parent via [`TraceSink::adopt`], which keeps the tree shape
//! independent of how work was partitioned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log₂ latency buckets: bucket `i` counts durations in
/// `[2^i, 2^{i+1})` nanoseconds (bucket 0 also holds zero-length
/// durations), covering the full `u64` nanosecond range.
pub const HIST_BUCKETS: usize = 64;

/// Monotonic source of sink identities (thread-local slots are keyed by
/// sink id, so a dropped sink's slots can never alias a new sink's).
static NEXT_SINK: AtomicU64 = AtomicU64::new(1);

/// A handle for recording spans and hot-op timings.
///
/// Cloning is cheap (an `Arc` bump) and every clone feeds the same
/// trace. The [`Default`] sink is disabled.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    id: u64,
    origin: Instant,
    /// Global open/close interleaving order across all threads.
    seq: AtomicU64,
    /// Span ids start at 1; 0 means "no parent".
    next_span: AtomicU64,
    next_tid: AtomicU64,
    /// Every thread buffer ever registered with this sink, so a drain
    /// can sweep buffers of threads that already exited their scope.
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
}

/// One thread's private buffers. The mutexes are only ever contended by
/// a concurrent [`TraceSink::drain`]; the owning thread's pushes are
/// uncontended lock/unlock pairs.
#[derive(Debug, Default)]
struct ThreadBuf {
    events: Mutex<Vec<Event>>,
    hot: Mutex<Vec<Phase>>,
}

#[derive(Debug, Clone)]
enum Event {
    Open {
        id: u64,
        parent: u64,
        name: &'static str,
        tid: u32,
        seq: u64,
        t0: u64,
    },
    Close {
        id: u64,
        seq: u64,
        t1: u64,
    },
}

/// Thread-local registration of this thread's buffer with one sink,
/// plus the thread's span stack (for parent derivation).
struct Slot {
    sink: u64,
    buf: Arc<ThreadBuf>,
    tid: u32,
    stack: Vec<u64>,
    /// Logical parent adopted from another thread (see
    /// [`TraceSink::adopt`]); used when the local stack is empty.
    base: u64,
}

thread_local! {
    static SLOTS: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
}

fn with_slot<R>(inner: &Arc<Inner>, f: impl FnOnce(&mut Slot) -> R) -> R {
    SLOTS.with(|slots| {
        let mut slots = slots.borrow_mut();
        if let Some(slot) = slots.iter_mut().find(|s| s.sink == inner.id) {
            return f(slot);
        }
        let buf = Arc::new(ThreadBuf::default());
        inner
            .threads
            .lock()
            .expect("trace thread registry poisoned")
            .push(Arc::clone(&buf));
        let tid = inner.next_tid.fetch_add(1, Ordering::Relaxed) as u32;
        slots.push(Slot {
            sink: inner.id,
            buf,
            tid,
            stack: Vec::new(),
            base: 0,
        });
        f(slots.last_mut().expect("slot just pushed"))
    })
}

impl Inner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl TraceSink {
    /// A disabled sink: every recording call is a near-no-op and
    /// [`TraceSink::drain`] returns an empty trace.
    #[must_use]
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// An enabled sink recording from now on (timestamps are relative to
    /// this call).
    #[must_use]
    pub fn enabled() -> Self {
        TraceSink {
            inner: Some(Arc::new(Inner {
                id: NEXT_SINK.fetch_add(1, Ordering::Relaxed),
                origin: Instant::now(),
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                next_tid: AtomicU64::new(0),
                threads: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this sink records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`, closed when the returned guard drops.
    /// Nested spans on the same thread form a stack; the innermost open
    /// span (or the adopted base, see [`TraceSink::adopt`]) becomes the
    /// parent.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let t0 = inner.now_ns();
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        with_slot(inner, |slot| {
            let parent = slot.stack.last().copied().unwrap_or(slot.base);
            slot.buf
                .events
                .lock()
                .expect("trace event buffer poisoned")
                .push(Event::Open {
                    id,
                    parent,
                    name,
                    tid: slot.tid,
                    seq,
                    t0,
                });
            slot.stack.push(id);
        });
        SpanGuard {
            inner: Some((Arc::clone(inner), id)),
        }
    }

    /// Times one high-frequency operation into the per-thread latency
    /// histogram for `name` — O(1) memory per phase, no span record.
    #[must_use]
    pub fn hot(&self, name: &'static str) -> HotGuard {
        let Some(inner) = &self.inner else {
            return HotGuard { inner: None };
        };
        HotGuard {
            inner: Some((Arc::clone(inner), name, Instant::now())),
        }
    }

    /// Installs `parent` as this thread's logical base parent for spans
    /// opened while the guard lives. A coordinator passes its span's
    /// [`SpanGuard::id`] to workers so their spans nest under it — the
    /// span tree then does not depend on how work was partitioned.
    #[must_use]
    pub fn adopt(&self, parent: u64) -> AdoptGuard {
        let Some(inner) = &self.inner else {
            return AdoptGuard { inner: None };
        };
        let prev = with_slot(inner, |slot| std::mem::replace(&mut slot.base, parent));
        AdoptGuard {
            inner: Some((Arc::clone(inner), prev)),
        }
    }

    /// Collects everything recorded since the last drain: spans merged
    /// across threads in global sequence order, and hot-op histograms.
    /// Spans still open at drain time are reported closed at
    /// the drain timestamp and flagged [`Span::truncated`].
    #[must_use]
    pub fn drain(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let wall_ns = inner.now_ns();
        let mut events: Vec<Event> = Vec::new();
        let mut hot: Vec<Phase> = Vec::new();
        {
            let threads = inner
                .threads
                .lock()
                .expect("trace thread registry poisoned");
            for buf in threads.iter() {
                events.append(&mut buf.events.lock().expect("trace event buffer poisoned"));
                for phase in buf.hot.lock().expect("trace hot buffer poisoned").drain(..) {
                    merge_phase(&mut hot, &phase);
                }
            }
        }
        events.sort_by_key(|e| match e {
            Event::Open { seq, .. } | Event::Close { seq, .. } => *seq,
        });
        let mut spans: Vec<Span> = Vec::new();
        let mut open: Vec<usize> = Vec::new(); // indices into `spans`
        for event in events {
            match event {
                Event::Open {
                    id,
                    parent,
                    name,
                    tid,
                    seq,
                    t0,
                } => {
                    open.push(spans.len());
                    spans.push(Span {
                        id,
                        parent,
                        name,
                        tid,
                        seq,
                        t0_ns: t0,
                        t1_ns: wall_ns,
                        truncated: true,
                    });
                }
                Event::Close { id, t1, .. } => {
                    // A close normally matches the most recent open; an
                    // orphan close (its open was drained earlier) pairs
                    // with nothing and is dropped.
                    if let Some(pos) = open.iter().rposition(|&i| spans[i].id == id) {
                        let span = &mut spans[open.remove(pos)];
                        span.t1_ns = t1;
                        span.truncated = false;
                    }
                }
            }
        }
        hot.sort_by(|a, b| a.name.cmp(b.name));
        Trace {
            spans,
            hot,
            wall_ns,
        }
    }
}

/// An open span; closes (and records) when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(Arc<Inner>, u64)>,
}

impl SpanGuard {
    /// The span's id, for [`TraceSink::adopt`] on worker threads.
    /// Returns 0 (the "no parent" sentinel) on a disabled sink.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |(_, id)| *id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, id)) = self.inner.take() {
            let t1 = inner.now_ns();
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            with_slot(&inner, |slot| {
                if let Some(pos) = slot.stack.iter().rposition(|&s| s == id) {
                    slot.stack.remove(pos);
                }
                slot.buf
                    .events
                    .lock()
                    .expect("trace event buffer poisoned")
                    .push(Event::Close { id, seq, t1 });
            });
        }
    }
}

/// An in-flight hot-op timing; folds into the histogram when dropped.
#[derive(Debug)]
pub struct HotGuard {
    inner: Option<(Arc<Inner>, &'static str, Instant)>,
}

impl Drop for HotGuard {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.inner.take() {
            let dur = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            with_slot(&inner, |slot| {
                let mut hot = slot.buf.hot.lock().expect("trace hot buffer poisoned");
                match hot.iter_mut().find(|p| p.name == name) {
                    Some(phase) => phase.record(dur),
                    None => {
                        let mut phase = Phase::new(name);
                        phase.record(dur);
                        hot.push(phase);
                    }
                }
            });
        }
    }
}

/// Restores the thread's previous logical parent when dropped.
#[derive(Debug)]
pub struct AdoptGuard {
    inner: Option<(Arc<Inner>, u64)>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some((inner, prev)) = self.inner.take() {
            with_slot(&inner, |slot| slot.base = prev);
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the sink (starts at 1).
    pub id: u64,
    /// Parent span id; 0 = a root span.
    pub parent: u64,
    /// Phase name.
    pub name: &'static str,
    /// Small per-sink thread index (registration order — *not* stable
    /// across runs).
    pub tid: u32,
    /// Global open-order sequence number.
    pub seq: u64,
    /// Open timestamp, nanoseconds since the sink was enabled.
    pub t0_ns: u64,
    /// Close timestamp (the drain timestamp when `truncated`).
    pub t1_ns: u64,
    /// The span was still open when the trace was drained.
    pub truncated: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// Latency statistics for one phase: count, total, and a log₂-bucket
/// histogram (`buckets[i]` counts durations in `[2^i, 2^{i+1})` ns).
/// The bucket counts always sum to `count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Recorded durations.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds.
    pub total_ns: u64,
    /// Largest recorded duration in nanoseconds.
    pub max_ns: u64,
    /// Log₂ latency histogram.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Phase {
    /// An empty phase named `name`.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Phase {
            name,
            count: 0,
            total_ns: 0,
            max_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// The histogram bucket a duration falls into.
    #[must_use]
    pub fn bucket_of(dur_ns: u64) -> usize {
        if dur_ns == 0 {
            0
        } else {
            63 - dur_ns.leading_zeros() as usize
        }
    }

    /// Folds one duration in.
    pub fn record(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
        self.buckets[Self::bucket_of(dur_ns)] += 1;
    }

    /// Folds another phase's statistics in (same name expected).
    pub fn merge(&mut self, other: &Phase) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

fn merge_phase(phases: &mut Vec<Phase>, incoming: &Phase) {
    match phases.iter_mut().find(|p| p.name == incoming.name) {
        Some(phase) => phase.merge(incoming),
        None => phases.push(incoming.clone()),
    }
}

/// Everything one [`TraceSink::drain`] collected.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in global open order.
    pub spans: Vec<Span>,
    /// Hot-op latency histograms, sorted by name.
    pub hot: Vec<Phase>,
    /// The drain timestamp, nanoseconds since the sink was enabled.
    pub wall_ns: u64,
}

impl Trace {
    /// Aggregates spans and hot ops into per-phase summaries
    /// (the shape the serve `metrics` frame reports).
    #[must_use]
    pub fn summary(&self) -> Summary {
        let mut summary = Summary::default();
        for span in &self.spans {
            summary.spans += 1;
            summary.span_ns = summary.span_ns.saturating_add(span.dur_ns());
            summary.phase_mut(span.name).record(span.dur_ns());
        }
        for phase in &self.hot {
            merge_phase(&mut summary.phases, phase);
        }
        summary.phases.sort_by(|a, b| a.name.cmp(b.name));
        summary
    }

    /// Total recording calls behind this trace (span opens + hot-op
    /// records) — the hook-invocation count the disabled-overhead model
    /// multiplies by the per-hook cost.
    #[must_use]
    pub fn hook_calls(&self) -> u64 {
        let hot: u64 = self.hot.iter().map(|p| p.count).sum();
        self.spans.len() as u64 + hot
    }
}

/// Per-phase aggregates of one or more traces — cheap to keep per
/// worker and to merge across workers.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per-phase latency statistics, sorted by name.
    pub phases: Vec<Phase>,
    /// Total spans folded in.
    pub spans: u64,
    /// Total span duration folded in, nanoseconds.
    pub span_ns: u64,
}

impl Summary {
    fn phase_mut(&mut self, name: &'static str) -> &mut Phase {
        if let Some(pos) = self.phases.iter().position(|p| p.name == name) {
            return &mut self.phases[pos];
        }
        self.phases.push(Phase::new(name));
        self.phases.last_mut().expect("phase just pushed")
    }

    /// Folds another summary in.
    pub fn merge(&mut self, other: &Summary) {
        for phase in &other.phases {
            merge_phase(&mut self.phases, phase);
        }
        self.phases.sort_by(|a, b| a.name.cmp(b.name));
        self.spans += other.spans;
        self.span_ns = self.span_ns.saturating_add(other.span_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        let guard = sink.span("x");
        assert_eq!(guard.id(), 0);
        drop(guard);
        drop(sink.hot("y"));
        let trace = sink.drain();
        assert!(trace.spans.is_empty());
        assert!(trace.hot.is_empty());
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let sink = TraceSink::enabled();
        {
            let outer = sink.span("outer");
            let inner = sink.span("inner");
            assert_ne!(outer.id(), inner.id());
            drop(inner);
            let sibling = sink.span("sibling");
            drop(sibling);
        }
        let trace = sink.drain();
        assert_eq!(trace.spans.len(), 3);
        let outer = &trace.spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, 0);
        assert!(!outer.truncated);
        for child in &trace.spans[1..] {
            assert_eq!(child.parent, outer.id, "{} nests under outer", child.name);
            assert!(child.t0_ns >= outer.t0_ns && child.t1_ns <= outer.t1_ns);
        }
    }

    #[test]
    fn adopt_reparents_worker_spans() {
        let sink = TraceSink::enabled();
        let sweep = sink.span("sweep");
        let sweep_id = sweep.id();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let sink = sink.clone();
                s.spawn(move || {
                    let _adopt = sink.adopt(sweep_id);
                    drop(sink.span("task"));
                });
            }
        });
        drop(sweep);
        let trace = sink.drain();
        let tasks: Vec<_> = trace.spans.iter().filter(|s| s.name == "task").collect();
        assert_eq!(tasks.len(), 2);
        for task in tasks {
            assert_eq!(task.parent, sweep_id);
        }
        // The sweep closes after both tasks: sequence order places it last.
        let sweep_span = trace
            .spans
            .iter()
            .find(|s| s.name == "sweep")
            .expect("sweep recorded");
        assert!(!sweep_span.truncated);
    }

    #[test]
    fn unclosed_span_is_truncated_at_drain() {
        let sink = TraceSink::enabled();
        let guard = sink.span("leaked");
        std::mem::forget(guard);
        let trace = sink.drain();
        assert_eq!(trace.spans.len(), 1);
        assert!(trace.spans[0].truncated);
        assert_eq!(trace.spans[0].t1_ns, trace.wall_ns);
    }

    #[test]
    fn drain_clears_and_restarts() {
        let sink = TraceSink::enabled();
        drop(sink.span("a"));
        assert_eq!(sink.drain().spans.len(), 1);
        assert_eq!(sink.drain().spans.len(), 0, "second drain is empty");
        drop(sink.span("b"));
        let trace = sink.drain();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "b");
    }

    #[test]
    fn hot_histogram_buckets_sum_to_count() {
        let sink = TraceSink::enabled();
        for _ in 0..100 {
            drop(sink.hot("op"));
        }
        let trace = sink.drain();
        assert_eq!(trace.hot.len(), 1);
        let phase = &trace.hot[0];
        assert_eq!(phase.count, 100);
        assert_eq!(phase.buckets.iter().sum::<u64>(), phase.count);
        assert!(phase.total_ns >= phase.max_ns);
        assert_eq!(trace.hook_calls(), 100);
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(Phase::bucket_of(0), 0);
        assert_eq!(Phase::bucket_of(1), 0);
        assert_eq!(Phase::bucket_of(2), 1);
        assert_eq!(Phase::bucket_of(3), 1);
        assert_eq!(Phase::bucket_of(1024), 10);
        assert_eq!(Phase::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn summary_merges_spans_and_hot_ops() {
        let sink = TraceSink::enabled();
        drop(sink.span("phase.a"));
        drop(sink.span("phase.a"));
        drop(sink.hot("phase.a"));
        drop(sink.hot("phase.b"));
        let summary = sink.drain().summary();
        assert_eq!(summary.spans, 2);
        let a = summary.phases.iter().find(|p| p.name == "phase.a").unwrap();
        assert_eq!(a.count, 3, "span and hot records under one name merge");
        assert_eq!(a.buckets.iter().sum::<u64>(), a.count);
        assert!(summary.phases.iter().any(|p| p.name == "phase.b"));

        let mut merged = Summary::default();
        merged.merge(&summary);
        merged.merge(&summary);
        assert_eq!(merged.spans, 4);
        let a2 = merged.phases.iter().find(|p| p.name == "phase.a").unwrap();
        assert_eq!(a2.count, 6);
    }

    #[test]
    fn cross_thread_spans_merge_in_sequence_order() {
        let sink = TraceSink::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sink = sink.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        drop(sink.span("t"));
                    }
                });
            }
        });
        let trace = sink.drain();
        assert_eq!(trace.spans.len(), 200);
        for pair in trace.spans.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "spans sorted by open sequence");
        }
        // Ids are unique.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }
}
