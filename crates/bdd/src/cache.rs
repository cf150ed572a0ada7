//! A cross-call decomposition cache keyed by canonical cut-function
//! signatures.
//!
//! The TurboSYN label search resynthesizes the *same* cut functions over
//! and over: a binary-search probe at a new target ratio revisits every
//! node, and within a probe the descent of `LabelUpdateSYN` re-derives
//! cuts whose function (and criticality profile) it has already
//! decomposed. A [`DecompCache`] memoizes the *outcome* of one
//! decomposition attempt — a structural [`LutTemplate`], or `None` for
//! "no realization" — keyed by everything the attempt's verdict depends
//! on and nothing else:
//!
//! * the cut function's truth table **in cut order** (the caller's input
//!   order — the decomposition pipeline re-sorts internally by
//!   criticality, and that sort is a stable function of the deltas
//!   below, so no further canonicalization is needed);
//! * the per-input criticality *deltas* `λ_i − height` (the pipeline
//!   only ever compares `λ_i` against `height − 1` / `height − 2` and
//!   takes maxima, so only the differences matter — normalizing by
//!   `height` makes signatures hit across probes at different absolute
//!   labels with the same slack profile);
//! * the LUT input bound `k` and the encoder wire allowance `max_wires`.
//!
//! Because the cached value is a pure function of its key, concurrent
//! workers may race to insert the same entry without affecting results:
//! whoever wins stores the same value the loser computed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where a template LUT input comes from, positionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateInput {
    /// Index into the original cut (the caller's input order).
    Cut(usize),
    /// Output of an earlier LUT of the same template.
    Lut(usize),
}

/// One LUT of a cached realization, in circuit-free form: a flat truth
/// table over positional inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateLut {
    /// Input count of the truth table.
    pub nvars: u8,
    /// Truth-table bits, 64 minterms per word (LSB-first).
    pub bits: Vec<u64>,
    /// Ordered inputs (truth-table input `i` = `inputs[i]`).
    pub inputs: Vec<TemplateInput>,
}

/// A whole cached realization: the LUT tree with `luts[root]` computing
/// the cut function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutTemplate {
    /// All LUTs; [`TemplateInput::Lut`] references point into this list.
    pub luts: Vec<TemplateLut>,
    /// Index of the root LUT.
    pub root: usize,
}

/// Canonical signature of one decomposition attempt.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignatureKey {
    /// Input count of the cut function.
    pub nvars: u8,
    /// Truth table of the cut function in cut order.
    pub tt: Vec<u64>,
    /// Per-input criticality deltas `λ_i − height`, in cut order.
    pub deltas: Vec<i64>,
    /// LUT input bound.
    pub k: u8,
    /// Encoder wires allowed per extraction.
    pub max_wires: u8,
}

/// Thread-safe memo table for decomposition outcomes, with hit/miss
/// counters. Entries are never evicted individually; once `capacity`
/// distinct signatures are stored, further inserts are dropped (the
/// computation still returns its fresh result — only the memo is
/// skipped, so behaviour is unaffected).
#[derive(Debug)]
pub struct DecompCache {
    /// Each attempt's realization, or `None` when none exists.
    map: Mutex<HashMap<SignatureKey, Option<LutTemplate>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl Default for DecompCache {
    fn default() -> Self {
        DecompCache::new()
    }
}

impl DecompCache {
    /// Default capacity: enough for every distinct cut function of a
    /// large run while bounding worst-case memory.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        DecompCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` signatures.
    pub fn with_capacity(capacity: usize) -> Self {
        DecompCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// Looks up a signature, counting the hit or miss.
    pub fn get(&self, key: &SignatureKey) -> Option<Option<LutTemplate>> {
        let got = self
            .map
            .lock()
            .expect("decomp cache poisoned")
            .get(key)
            .cloned();
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an outcome (dropped silently once the cache is full; a
    /// racing insert of the same key keeps whichever value landed first
    /// — both are identical by construction).
    pub fn insert(&self, key: SignatureKey, outcome: Option<LutTemplate>) {
        let mut map = self.map.lock().expect("decomp cache poisoned");
        if map.len() >= self.capacity && !map.contains_key(&key) {
            return;
        }
        map.entry(key).or_insert(outcome);
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Zeroes the hit/miss counters while keeping every cached entry —
    /// so an embedding service can report per-request deltas from a
    /// still-warm cache.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Distinct signatures stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("decomp cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.map.lock().expect("decomp cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> SignatureKey {
        SignatureKey {
            nvars: 2,
            tt: vec![tag],
            deltas: vec![-1, -2],
            k: 4,
            max_wires: 1,
        }
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let c = DecompCache::new();
        assert!(c.get(&key(6)).is_none());
        c.insert(key(6), None);
        assert_eq!(c.get(&key(6)), Some(None));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn reset_counters_keeps_entries() {
        let c = DecompCache::new();
        c.insert(key(6), None);
        assert!(c.get(&key(6)).is_some());
        assert!(c.get(&key(7)).is_none());
        c.reset_counters();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert!(c.get(&key(6)).is_some(), "entries survive a counter reset");
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn capacity_bounds_inserts() {
        let c = DecompCache::with_capacity(2);
        c.insert(key(1), None);
        c.insert(key(2), None);
        c.insert(key(3), None);
        assert_eq!(c.len(), 2, "third insert dropped at capacity");
        // Updating an existing key is still allowed at capacity.
        let template = LutTemplate {
            luts: Vec::new(),
            root: 0,
        };
        c.insert(key(2), Some(template));
        assert_eq!(c.get(&key(2)), Some(None), "first value wins races");
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let c = DecompCache::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..64 {
                        c.insert(key(i % 8), None);
                        let _ = c.get(&key((i + t) % 8));
                    }
                });
            }
        });
        assert_eq!(c.len(), 8);
    }
}
