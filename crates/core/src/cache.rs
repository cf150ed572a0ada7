//! Session state that survives across binary-search probes (and across
//! runs of one [`Engine`](crate::Engine)): decomposition outcomes and
//! the memo of settled φ probes.
//!
//! Decomposition verdicts are keyed by the cut function's truth table,
//! so they are circuit-free and survive rebinding. The probe memo
//! (feasible labels or the infeasible SCC size per `(key, stop, φ)`) is
//! per-circuit and is flushed when the engine is bound to a different
//! circuit structure. Every probe that misses the memo starts cold, so
//! either way the state changes wall-clock, never results.

use crate::label::{LabelOutcome, LabelStats, StopRule};
use std::sync::Mutex;
use turbosyn_bdd::cache::DecompCache;
use turbosyn_netlist::{Circuit, NodeKind};

/// Cache performance counters of one engine/session.
///
/// Counters are monotonic totals; [`CacheStats::delta_since`] turns two
/// snapshots into the per-request delta an embedding service reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Decomposition signatures answered from the cache.
    pub decomposition_hits: u64,
    /// Decomposition signatures computed fresh.
    pub decomposition_misses: u64,
}

impl CacheStats {
    /// The counter increments between `earlier` and `self`.
    ///
    /// Saturating: a reset between the two snapshots yields the
    /// post-reset totals instead of an underflowed garbage delta.
    #[must_use]
    pub fn delta_since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            decomposition_hits: self
                .decomposition_hits
                .saturating_sub(earlier.decomposition_hits),
            decomposition_misses: self
                .decomposition_misses
                .saturating_sub(earlier.decomposition_misses),
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            decomposition_hits: self.decomposition_hits + rhs.decomposition_hits,
            decomposition_misses: self.decomposition_misses + rhs.decomposition_misses,
        }
    }
}

/// Identity of a label-computation configuration, as far as converged
/// labels are concerned: half of the [`SessionCaches`] memo key (the
/// other half is the stopping rule and φ). Two probes with equal keys,
/// stopping rules and φ reach the same verdict on the same circuit.
///
/// Deliberately excluded: `jobs`/`full_sweeps` (bit-identical labels by
/// the chaotic-iteration argument in [`crate::label`]) and `relax`
/// (mapping generation only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineageKey {
    pub k: usize,
    pub resynthesis: bool,
    pub slack: usize,
    pub max_nodes: usize,
    pub cmax: usize,
    pub max_wires: usize,
}

/// A settled probe: the outcome of the label computation under
/// `(key, stop, phi)` on the bound circuit, carrying the work counters
/// of a replay (one replayed probe, nothing else). The computation is
/// deterministic, so the outcome replays exactly: feasible labels *are*
/// the fixpoint, and an infeasible SCC size *is* the verdict.
#[derive(Debug)]
struct SettledProbe {
    key: LineageKey,
    stop: StopRule,
    phi: i64,
    outcome: LabelOutcome,
}

/// The caches one engine shares across runs (and across the workers of
/// one parallel label sweep).
#[derive(Debug)]
pub(crate) struct SessionCaches {
    /// Structural fingerprint of the circuit the probe memo is currently
    /// bound to (decomposition signatures are circuit-free and survive a
    /// rebind).
    fingerprint: Mutex<Option<u64>>,
    pub decomp: DecompCache,
    /// Settled φ probes, one per `(LineageKey, stop, φ)` (bounded by the
    /// handful of label configurations and probe ratios a caller uses);
    /// outcomes are per-circuit, so [`SessionCaches::bind`] clears it.
    probes: Mutex<Vec<SettledProbe>>,
    /// Label-work counters accumulated over every probe of this session
    /// (the engine-level observability feed; per-run counters live in
    /// [`crate::mappers::MapReport::stats`]).
    label_totals: Mutex<LabelStats>,
}

impl SessionCaches {
    pub fn new() -> Self {
        SessionCaches {
            fingerprint: Mutex::new(None),
            decomp: DecompCache::new(),
            probes: Mutex::new(Vec::new()),
            label_totals: Mutex::new(LabelStats::default()),
        }
    }

    /// Binds the caches to `c`, flushing the probe memo when the circuit
    /// structure changed since the previous bind.
    pub fn bind(&self, c: &Circuit) {
        let fp = fingerprint(c);
        let mut cur = self.fingerprint.lock().expect("fingerprint poisoned");
        if *cur != Some(fp) {
            self.probes.lock().expect("probe memo poisoned").clear();
            *cur = Some(fp);
        }
    }

    /// The outcome of an earlier probe at exactly `(key, stop, phi)` on
    /// the bound circuit, with the work counters of a replay.
    pub fn settled_probe(
        &self,
        key: &LineageKey,
        stop: StopRule,
        phi: i64,
    ) -> Option<LabelOutcome> {
        let probes = self.probes.lock().expect("probe memo poisoned");
        probes
            .iter()
            .find(|p| p.key == *key && p.stop == stop && p.phi == phi)
            .map(|p| p.outcome.clone())
    }

    /// Records the outcome of a probe at `(key, stop, phi)`, replacing any
    /// earlier entry for the same coordinates. The caller must ensure an
    /// infeasible outcome stopped through its own rule (PLD or the n²
    /// bound), not through a budget degrade.
    pub fn settle_probe(&self, key: LineageKey, stop: StopRule, phi: i64, outcome: &LabelOutcome) {
        let stats = LabelStats {
            warm_started_probes: 1,
            ..LabelStats::default()
        };
        let outcome = match outcome {
            LabelOutcome::Feasible { labels, .. } => LabelOutcome::Feasible {
                labels: labels.clone(),
                stats,
            },
            &LabelOutcome::Infeasible { scc_size, .. } => {
                LabelOutcome::Infeasible { stats, scc_size }
            }
        };
        let entry = SettledProbe {
            key,
            stop,
            phi,
            outcome,
        };
        let mut probes = self.probes.lock().expect("probe memo poisoned");
        match probes
            .iter_mut()
            .find(|p| p.key == key && p.stop == stop && p.phi == phi)
        {
            Some(slot) => *slot = entry,
            None => probes.push(entry),
        }
    }

    /// Folds one probe's work counters into the session totals.
    pub fn note_label_stats(&self, stats: LabelStats) {
        let mut totals = self.label_totals.lock().expect("label totals poisoned");
        *totals = *totals + stats;
    }

    /// Label-work totals accumulated since construction (or the last
    /// [`SessionCaches::reset_stats`]).
    pub fn label_totals(&self) -> LabelStats {
        *self.label_totals.lock().expect("label totals poisoned")
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            decomposition_hits: self.decomp.hits(),
            decomposition_misses: self.decomp.misses(),
        }
    }

    /// Zeroes every counter (cache and label-work totals) while keeping
    /// the cached entries — and the probe memo — warm.
    pub fn reset_stats(&self) {
        self.decomp.reset_counters();
        *self.label_totals.lock().expect("label totals poisoned") = LabelStats::default();
    }
}

/// FNV-1a over the circuit's structure (kinds, truth tables, fanins).
/// Names are ignored: they do not influence labels or cuts.
fn fingerprint(c: &Circuit) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(c.node_count() as u64);
    for id in c.node_ids() {
        let node = c.node(id);
        match &node.kind {
            NodeKind::Input => mix(1),
            NodeKind::Output => mix(2),
            NodeKind::Gate(tt) => {
                mix(3);
                mix(u64::from(tt.nvars()));
                for &w in tt.bits() {
                    mix(w);
                }
            }
        }
        for f in &node.fanins {
            mix(f.source.index() as u64);
            mix(u64::from(f.weight));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_bdd::cache::SignatureKey;
    use turbosyn_netlist::gen;

    #[test]
    fn stats_reset_keeps_entries_and_deltas_are_saturating() {
        let caches = SessionCaches::new();
        let key = SignatureKey {
            nvars: 2,
            tt: vec![6],
            deltas: vec![-1, -2],
            k: 4,
            max_wires: 1,
        };
        assert!(caches.decomp.get(&key).is_none());
        caches.decomp.insert(key.clone(), None);
        assert!(caches.decomp.get(&key).is_some());
        let before = caches.stats();
        assert_eq!(
            (before.decomposition_hits, before.decomposition_misses),
            (1, 1)
        );
        caches.reset_stats();
        assert_eq!(caches.stats(), CacheStats::default(), "counters zeroed");
        assert!(caches.decomp.get(&key).is_some());
        let after = caches.stats();
        assert_eq!(after.decomposition_hits, 1, "entries stayed warm");
        // A saturating delta across the reset reports the fresh totals.
        assert_eq!(after.delta_since(before).decomposition_hits, 0);
        assert_eq!(after.delta_since(CacheStats::default()), after);
        let sum = after + before;
        assert_eq!((sum.decomposition_hits, sum.decomposition_misses), (2, 1));
    }

    #[test]
    fn fingerprint_ignores_names_but_sees_structure() {
        let a = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 2,
            outputs: 1,
            depth: 2,
            seed: 5,
        });
        let b = gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 2,
            outputs: 1,
            depth: 2,
            seed: 6,
        });
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b), "different seeds differ");
    }

    fn lineage_key(resynthesis: bool) -> LineageKey {
        LineageKey {
            k: 5,
            resynthesis,
            slack: 1,
            max_nodes: 64,
            cmax: 4,
            max_wires: 16,
        }
    }

    fn feasible(labels: &[i64]) -> LabelOutcome {
        LabelOutcome::Feasible {
            labels: labels.to_vec(),
            stats: LabelStats::default(),
        }
    }

    fn labels_of(outcome: Option<LabelOutcome>) -> Option<Vec<i64>> {
        match outcome? {
            LabelOutcome::Feasible { labels, .. } => Some(labels),
            LabelOutcome::Infeasible { .. } => None,
        }
    }

    fn scc_size_of(outcome: Option<LabelOutcome>) -> Option<usize> {
        match outcome? {
            LabelOutcome::Feasible { .. } => None,
            LabelOutcome::Infeasible { scc_size, .. } => Some(scc_size),
        }
    }

    #[test]
    fn settled_probes_replay_only_their_exact_coordinates() {
        use StopRule::{NSquared, Pld};
        let caches = SessionCaches::new();
        caches.bind(&gen::figure1());
        let key = lineage_key(true);
        assert!(
            caches.settled_probe(&key, Pld, 3).is_none(),
            "empty at start"
        );
        let worked = LabelOutcome::Feasible {
            labels: vec![1, 2, 3],
            stats: LabelStats {
                sweeps: 4,
                ..LabelStats::default()
            },
        };
        caches.settle_probe(key, Pld, 3, &worked);
        let replay = caches.settled_probe(&key, Pld, 3).expect("settled");
        assert_eq!(
            replay.stats(),
            LabelStats {
                warm_started_probes: 1,
                ..LabelStats::default()
            },
            "a replay counts itself, not the original work"
        );
        assert_eq!(labels_of(Some(replay)), Some(vec![1, 2, 3]));
        // Exact on every dimension: a feasible φ = 3 says nothing about
        // φ = 2, and neither the stopping rule nor the key is shared.
        assert!(caches.settled_probe(&key, Pld, 2).is_none());
        assert!(caches.settled_probe(&key, Pld, 4).is_none());
        assert!(caches.settled_probe(&key, NSquared, 3).is_none());
        assert!(caches.settled_probe(&lineage_key(false), Pld, 3).is_none());
        // Infeasible verdicts share the memo and its lookup.
        let infeasible = LabelOutcome::Infeasible {
            stats: LabelStats::default(),
            scc_size: 7,
        };
        caches.settle_probe(key, Pld, 1, &infeasible);
        assert_eq!(scc_size_of(caches.settled_probe(&key, Pld, 1)), Some(7));
        assert!(caches.settled_probe(&key, NSquared, 1).is_none());
        // The same coordinates replace in place.
        caches.settle_probe(key, Pld, 3, &feasible(&[7, 8, 9]));
        assert_eq!(
            labels_of(caches.settled_probe(&key, Pld, 3)),
            Some(vec![7, 8, 9])
        );
        assert_eq!(caches.probes.lock().expect("memo").len(), 2);
    }

    #[test]
    fn bind_to_new_circuit_flushes_the_probe_memo() {
        let caches = SessionCaches::new();
        let c1 = gen::figure1();
        caches.bind(&c1);
        let key = lineage_key(true);
        caches.settle_probe(key, StopRule::Pld, 3, &feasible(&[1, 2, 3]));
        caches.bind(&c1); // same circuit: the memo survives
        assert_eq!(
            labels_of(caches.settled_probe(&key, StopRule::Pld, 3)),
            Some(vec![1, 2, 3])
        );
        caches.bind(&gen::ring(4, 2)); // new circuit: outcomes are stale
        assert!(caches.settled_probe(&key, StopRule::Pld, 3).is_none());
    }
}
