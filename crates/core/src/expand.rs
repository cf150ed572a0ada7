//! Expanded circuits `E_v` and cuts on them.
//!
//! The expanded circuit of a node `v` (Pan & Liu \[19\]) represents every
//! LUT that can be rooted at `v` under retiming and node replication: its
//! nodes are pairs `u^w` — original node `u` reached through `w` registers
//! on the way to the root — and every path from `u^w` to the root `v^0`
//! crosses exactly `w` registers. A cut `(X, X̄)` on `E_v` therefore
//! corresponds to a *sequential* LUT: the LUT computes `v` from inputs
//! `u_i` delayed by `w_i` cycles.
//!
//! `E_v` is infinite (loops unroll with growing `w`), but for a height
//! test only the finite *must-be-inside* region `l(u) − φ·w >= H` matters,
//! plus however much of the allowed region one wants to search for
//! narrower cuts through reconvergence. [`Expansion::build`] materializes
//! the must-inside region plus `slack` extra levels (a tunable of
//! [`MapOptions`](crate::MapOptions)); found cuts are always valid, and
//! tests cross-check label optimality against brute force on small
//! circuits.
//!
//! Two pieces of the per-worker [`Scratch`] make TurboSYN's resynthesis
//! descent (cuts of height `L(v) − h` for `h = 0, 1, …`) cheap:
//!
//! * **Cone memo.** The function of the cone between a root and a cut is
//!   fixed by the circuit, the root and the cut's ordered `(orig, weight)`
//!   pairs, so [`ConeMemo`] keeps each simulated table under that key for
//!   the life of the scratch (one label probe, or one mapping
//!   generation). Later sweeps of the probe re-derive the same cuts and
//!   read their tables back instead of re-simulating the cone.
//! * **Carried flow.** Every cut of height `<= H − 1` is also a cut of
//!   height `<= H`, so the maximum flow found on `E_v` at height `H`
//!   stays a feasible flow at `H − 1` once its paths are mapped over.
//!   [`Scratch::expand_below`] keeps the expansion and flow of height `H`;
//!   [`Scratch::carry_flow`] maps each unit path into the new expansion
//!   by `(orig, weight)` (a fanin arc keeps its position among its
//!   consumer's fanins), extends it back to a new leaf or drops it, and
//!   the cut test then only augments from there. The residual-reachable
//!   minimum cut is the same for every maximum flow, so the cut is
//!   exactly the one a fresh flow finds.

use std::collections::{HashMap, VecDeque};
use turbosyn_netlist::tt::{TruthTable, MAX_VARS};
use turbosyn_netlist::{Circuit, NodeId, NodeKind};

/// One node of an expanded circuit: original node `orig` seen through
/// `weight` registers from the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpNode {
    /// Original circuit node index.
    pub orig: usize,
    /// Registers between this replica and the root.
    pub weight: i64,
}

/// A materialized, truncated expanded circuit rooted at some node.
#[derive(Debug, Clone, Default)]
pub struct Expansion {
    /// Expanded nodes, numbered in build (BFS) order; index 0 is the root
    /// `v^0`.
    pub nodes: Vec<ExpNode>,
    /// Per node, the `(start, len)` range of its fanins in `fanin_list`
    /// (empty for leaves/PIs). A position in `fanin_list` names one
    /// fanin arc, which is what the cut kernel keeps flow on.
    fanin_spans: Vec<(u32, u32)>,
    /// Every node's fanin expanded nodes, in node-expansion order.
    fanin_list: Vec<usize>,
    /// Whether the node's fanins were materialized.
    pub expanded: Vec<bool>,
    /// Whether the node must be inside every cut of the requested height.
    pub must_inside: Vec<bool>,
}

/// Why an expansion (and hence any cut of the requested height) is
/// impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandFail {
    /// A primary input fell into the must-be-inside region: no cut of this
    /// height exists in any mapping.
    PiMustBeInside,
}

/// Truncation limits for expansion (see [`MapOptions`](crate::MapOptions)).
#[derive(Debug, Clone, Copy)]
pub struct ExpandLimits {
    /// Extra levels of *allowed* nodes materialized beyond the must-inside
    /// region, to catch reconvergent sharing below the first feasible
    /// frontier.
    pub slack: usize,
    /// Hard cap on materialized nodes (soundness is unaffected; cuts just
    /// get no deeper).
    pub max_nodes: usize,
}

impl Default for ExpandLimits {
    fn default() -> Self {
        ExpandLimits {
            slack: 3,
            max_nodes: 4096,
        }
    }
}

/// End of a replica chain in [`BuildScratch`].
const NONE: u32 = u32::MAX;

/// Reusable buffers of [`Expansion::build`]: the `(orig, weight)` →
/// replica index, kept as epoch-stamped per-original-node chains, and the
/// BFS queue. The index is looked up once per materialized fanin; a
/// `HashMap` cleared per build made warm service resubmissions, whose
/// mapping generation is mostly expansion builds, measurably slower.
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    /// Per original node: `(epoch, newest replica)`; stale unless the
    /// epoch is the current build's.
    head: Vec<(u32, u32)>,
    /// Per replica: the next older replica of the same original node.
    next: Vec<u32>,
    queue: VecDeque<(usize, usize)>,
    epoch: u32,
}

impl BuildScratch {
    /// Starts a build on a circuit of `n` nodes: every chain reads empty.
    fn start(&mut self, n: usize) {
        if self.head.len() < n {
            self.head.resize(n, (0, NONE));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.head.fill((0, NONE));
            self.epoch = 1;
        }
        self.next.clear();
        self.queue.clear();
    }

    /// The newest replica of `orig` in this build, or [`NONE`].
    fn first(&self, orig: usize) -> u32 {
        let (epoch, xi) = self.head[orig];
        if epoch == self.epoch {
            xi
        } else {
            NONE
        }
    }

    fn find(&self, nodes: &[ExpNode], orig: usize, weight: i64) -> Option<usize> {
        let mut xi = self.first(orig);
        while xi != NONE && nodes[xi as usize].weight != weight {
            xi = self.next[xi as usize];
        }
        (xi != NONE).then_some(xi as usize)
    }

    fn insert(&mut self, orig: usize, xi: usize) {
        self.next.push(self.first(orig));
        self.head[orig] = (self.epoch, xi as u32);
    }
}

impl Expansion {
    /// Materializes `E_root` for a height-`H` cut test at target ratio
    /// `phi`, under labels `labels` (PIs 0, gates current lower bounds).
    ///
    /// A node `u^w` **must be inside** when `labels[u] − phi·w >= height`
    /// (its height contribution `labels[u] − phi·w + 1` exceeds `height`).
    /// The root is always inside. Fanins of every inside node are
    /// materialized; allowed nodes are additionally expanded up to
    /// `limits.slack` levels past the inside region.
    ///
    /// # Errors
    ///
    /// [`ExpandFail::PiMustBeInside`] when a primary input lands in the
    /// must-inside region — no cut of this height can exist.
    pub fn build(
        c: &Circuit,
        root: usize,
        phi: i64,
        labels: &[i64],
        height: i64,
        limits: ExpandLimits,
    ) -> Result<Expansion, ExpandFail> {
        let mut exp = Expansion::default();
        exp.rebuild(
            c,
            (root, phi, height),
            labels,
            limits,
            &mut BuildScratch::default(),
        )?;
        Ok(exp)
    }

    /// [`Expansion::build`] of `(root, phi, height)` into this expansion's
    /// buffers, with the replica index and queue in `scratch`. On error
    /// the expansion is left partial and must be rebuilt before use.
    pub(crate) fn rebuild(
        &mut self,
        c: &Circuit,
        (root, phi, height): (usize, i64, i64),
        labels: &[i64],
        limits: ExpandLimits,
        scratch: &mut BuildScratch,
    ) -> Result<(), ExpandFail> {
        scratch.start(c.node_count());
        self.nodes.clear();
        self.fanin_spans.clear();
        self.fanin_list.clear();
        self.expanded.clear();
        self.must_inside.clear();
        self.push(root, 0, true);
        scratch.insert(root, 0);

        let is_gate =
            |orig: usize| matches!(c.node(NodeId::from_index(orig)).kind, NodeKind::Gate(_));
        let must = |orig: usize, w: i64| labels[orig] - phi * w >= height;

        // BFS queue: (exp index, allowed-region slack budget for this
        // node). A node may be enqueued again with a larger budget; it is
        // expanded the first time its budget (or must-inside status)
        // permits.
        scratch.queue.push_back((0, limits.slack));

        while let Some((xi, budget)) = scratch.queue.pop_front() {
            if self.expanded[xi] {
                continue;
            }
            let ExpNode { orig, weight } = self.nodes[xi];
            if !is_gate(orig) {
                // PIs have no fanins. A must-inside PI kills the cut.
                if self.must_inside[xi] {
                    return Err(ExpandFail::PiMustBeInside);
                }
                continue;
            }
            if !self.must_inside[xi] && budget == 0 {
                continue; // truncation: this allowed node stays a leaf
            }
            if self.nodes.len() >= limits.max_nodes {
                continue; // size cap: sound truncation
            }
            self.expanded[xi] = true;
            let child_budget = if self.must_inside[xi] {
                limits.slack
            } else {
                budget - 1
            };
            let start = self.fanin_list.len();
            for f in &c.node(NodeId::from_index(orig)).fanins {
                let (fo, fw) = (f.source.index(), weight + i64::from(f.weight));
                let ci = match scratch.find(&self.nodes, fo, fw) {
                    Some(ci) => ci,
                    None => {
                        if must(fo, fw) && !is_gate(fo) {
                            return Err(ExpandFail::PiMustBeInside);
                        }
                        let ci = self.nodes.len();
                        self.push(fo, fw, must(fo, fw));
                        scratch.insert(fo, ci);
                        ci
                    }
                };
                scratch.queue.push_back((ci, child_budget));
                self.fanin_list.push(ci);
            }
            self.fanin_spans[xi] = (start as u32, (self.fanin_list.len() - start) as u32);
        }
        Ok(())
    }

    fn push(&mut self, orig: usize, weight: i64, must_inside: bool) {
        self.nodes.push(ExpNode { orig, weight });
        self.fanin_spans.push((0, 0));
        self.expanded.push(false);
        self.must_inside.push(must_inside);
    }

    /// The fanin expanded nodes of `xi` (empty for leaves/PIs).
    pub fn fanins(&self, xi: usize) -> &[usize] {
        let (start, len) = self.fanin_spans[xi];
        &self.fanin_list[start as usize..(start + len) as usize]
    }

    /// Height of a cut: `max(labels[u] − phi·w + 1)` over its nodes.
    pub fn cut_height(&self, cut: &[usize], phi: i64, labels: &[i64]) -> i64 {
        cut.iter()
            .map(|&xi| {
                let ExpNode { orig, weight } = self.nodes[xi];
                labels[orig] - phi * weight + 1
            })
            .max()
            .unwrap_or(i64::MIN)
    }

    /// Finds a minimum vertex cut of this expansion separating the leaves
    /// from the root, with at most `limit` cut nodes. Only non-must-inside
    /// nodes are cuttable, so any returned cut has height `<= height`.
    ///
    /// Returns `None` when every cut exceeds `limit`.
    pub fn min_cut(&self, limit: usize) -> Option<Vec<usize>> {
        let mut flow = CutFlow::default();
        flow.reset(self);
        flow.min_cut(self, limit)
    }

    /// Computes the cut function as a flat truth table (input `i` = cut
    /// node `cut[i]`), simulating the cone bit-parallel: one pass over the
    /// cone's gates per table word, so memory stays one word per node.
    ///
    /// # Panics
    ///
    /// Panics if the cut has more than 16 nodes (the [`TruthTable`]
    /// limit; every caller passes a cut of at most `Cmax <= 16` or
    /// `K <= 16` nodes), if `cut` does not actually separate the root
    /// from all leaves (i.e. the interior walk reaches an unexpanded
    /// node), or if the interior contains a non-gate.
    pub fn cone_tt(&self, c: &Circuit, cut: &[usize]) -> TruthTable {
        assert!(
            cut.len() <= usize::from(MAX_VARS),
            "cut of {} nodes exceeds the truth-table limit",
            cut.len()
        );
        let nvars = cut.len() as u8;
        // Slots: cut input `i` is slot `i`, interior gate `g` is slot
        // `cut.len() + g`, gates placed fanins first.
        let mut slot: HashMap<usize, usize> =
            cut.iter().enumerate().map(|(i, &xi)| (xi, i)).collect();
        let mut gates: Vec<ConeGate> = Vec::new();
        let root = self.place_gates(c, 0, &mut slot, &mut gates);

        let lits: Vec<TruthTable> = (0..nvars).map(|i| TruthTable::lit(nvars, i)).collect();
        let words = TruthTable::constant(nvars, false).bits().len();
        let mut value = vec![0u64; slot.len()];
        let mut muxes: Vec<u64> = Vec::new();
        let mut out = Vec::with_capacity(words);
        for w in 0..words {
            for (v, lit) in value.iter_mut().zip(&lits) {
                *v = lit.bits()[w];
            }
            for (g, gate) in gates.iter().enumerate() {
                // A multiplexer tree over the gate's table: folding fanin
                // `j` halves the candidate words, selecting by its bits.
                muxes.clear();
                muxes.extend_from_slice(&gate.table);
                let mut len = muxes.len();
                for &f in &gate.fanins {
                    let x = value[f];
                    len /= 2;
                    for i in 0..len {
                        muxes[i] = (x & muxes[2 * i + 1]) | (!x & muxes[2 * i]);
                    }
                }
                value[cut.len() + g] = muxes[0];
            }
            out.push(value[root]);
        }
        TruthTable::from_bits(nvars, &out)
    }

    /// Places the interior gates under `xi` in `gates`, fanins first, and
    /// returns the slot of `xi`.
    fn place_gates(
        &self,
        c: &Circuit,
        xi: usize,
        slot: &mut HashMap<usize, usize>,
        gates: &mut Vec<ConeGate>,
    ) -> usize {
        if let Some(&s) = slot.get(&xi) {
            return s;
        }
        assert!(
            self.expanded[xi],
            "cut does not separate the root: reached leaf {:?}",
            self.nodes[xi]
        );
        let orig = self.nodes[xi].orig;
        let NodeKind::Gate(tt) = &c.node(NodeId::from_index(orig)).kind else {
            panic!("interior node {:?} is not a gate", self.nodes[xi]);
        };
        let fanins: Vec<usize> = self
            .fanins(xi)
            .iter()
            .map(|&ci| self.place_gates(c, ci, slot, gates))
            .collect();
        let table = (0..1u32 << fanins.len())
            .map(|idx| if tt.eval(idx) { u64::MAX } else { 0 })
            .collect();
        gates.push(ConeGate { fanins, table });
        let s = slot.len();
        slot.insert(xi, s);
        s
    }
}

/// One interior gate of a cone under simulation: the slots of its fanins
/// and its table, one all-ones or all-zeros word per entry.
struct ConeGate {
    fanins: Vec<usize>,
    table: Vec<u64>,
}

/// Table words a [`ConeMemo`] holds before it starts over (8 MiB).
const CONE_MEMO_WORDS: usize = 1 << 20;

/// Cone functions already simulated, keyed by the root and the cut's
/// ordered `(orig, weight)` pairs. The key is exact: the interior of a
/// cut's cone is every replica between the cut and the root, and each
/// replica's fanins are fixed by the circuit, so two expansions of one
/// circuit that share the root and the cut share the function, whatever
/// heights or labels built them. A memo therefore must not outlive its
/// circuit; [`Scratch`] holds one per label probe or mapping generation.
#[derive(Debug, Default)]
pub(crate) struct ConeMemo {
    tables: HashMap<Box<[ExpNode]>, TruthTable>,
    /// The lookup key under construction: the root, then the cut.
    key: Vec<ExpNode>,
    /// Table words held, to bound the memo's memory.
    words: usize,
}

impl ConeMemo {
    /// [`Expansion::cone_tt`] of `cut` on `exp`, simulated only the first
    /// time this memo sees the root and cut.
    pub fn cone_tt(&mut self, exp: &Expansion, c: &Circuit, cut: &[usize]) -> &TruthTable {
        self.key.clear();
        self.key.push(exp.nodes[0]);
        self.key.extend(cut.iter().map(|&xi| exp.nodes[xi]));
        if !self.tables.contains_key(self.key.as_slice()) {
            let tt = exp.cone_tt(c, cut);
            if self.words + tt.bits().len() > CONE_MEMO_WORDS {
                self.tables.clear();
                self.words = 0;
            }
            self.words += tt.bits().len();
            self.tables.insert(self.key.as_slice().into(), tt);
        }
        &self.tables[self.key.as_slice()]
    }
}

/// Predecessor of a BFS state reached straight from the super-source.
const FROM_SOURCE: u32 = u32::MAX;
/// Predecessor of a BFS state reached over its own node's in → out arc.
const OVER_NODE: u32 = u32::MAX - 1;

/// FlowMap's cut test run straight on an [`Expansion`]: a maximum flow
/// of unit augmenting paths, found by BFS, from a super-source feeding
/// every leaf (unexpanded node) to the root.
///
/// Nodes are split implicitly: node `x` has an in-half and an out-half
/// joined by an arc of capacity 1 (unbounded when `x` must be inside),
/// and every fanin arc runs unbounded from the fanin's out-half to the
/// consumer's in-half. Flow is kept per node (`through`) and per fanin
/// arc (`along`, indexed by position in the expansion's fanin list), so
/// a flow stopped at one limit can be continued to a larger one.
///
/// The cut returned is the set of nodes whose in-half, but not
/// out-half, is reachable from the super-source in the residual graph of
/// a maximum flow. That set is the same for every maximum flow, so the
/// order augmenting paths are found in, and the feasible flow they start
/// from (see [`CutFlow::carry`]), do not affect it.
#[derive(Debug, Default)]
pub(crate) struct CutFlow {
    /// Augmenting paths found on the current expansion.
    flow: usize,
    /// Per node: units on its in → out arc.
    through: Vec<u32>,
    /// Per fanin arc: units on it.
    along: Vec<u32>,
    /// Per fanin arc: the consumer node it feeds.
    owner: Vec<u32>,
    /// Fanout arcs of node `x`: `fanout[fanout_start[x]..fanout_start[x + 1]]`.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
    /// BFS visit stamps of each node's in- and out-half.
    seen_in: Vec<u32>,
    seen_out: Vec<u32>,
    epoch: u32,
    /// How each half was reached: a fanin arc, [`FROM_SOURCE`] or
    /// [`OVER_NODE`].
    pred_in: Vec<u32>,
    pred_out: Vec<u32>,
    /// BFS queue of halves: `2x` is `x`'s in-half, `2x + 1` its out-half.
    queue: Vec<u32>,
    /// [`CutFlow::carry`]'s mapped paths: the fanin arcs of every path,
    /// back to back, and the paths themselves.
    carried_arcs: Vec<u32>,
    carried: Vec<CarriedPath>,
    /// [`CutFlow::carry`]'s extension search: replicas with the next
    /// fanin arc to try.
    stack: Vec<(u32, u32)>,
}

/// One unit path of [`CutFlow::carry`], mapped into the new expansion:
/// `arcs` (a range of `carried_arcs`) run from `tail` to the root, and
/// `extend` says whether `tail` is expanded there, so that the path
/// still needs extending back to a leaf.
#[derive(Debug, Clone, Copy)]
struct CarriedPath {
    arcs: (u32, u32),
    tail: u32,
    extend: bool,
    /// False once the extension failed: the path is dropped.
    kept: bool,
}

impl CutFlow {
    /// Starts a zero flow on `exp`.
    pub fn reset(&mut self, exp: &Expansion) {
        let n = exp.nodes.len();
        let arcs = exp.fanin_list.len();
        self.flow = 0;
        self.through.clear();
        self.through.resize(n, 0);
        self.along.clear();
        self.along.resize(arcs, 0);
        self.owner.resize(arcs, 0);
        for (x, &(start, len)) in exp.fanin_spans.iter().enumerate() {
            self.owner[start as usize..(start + len) as usize].fill(x as u32);
        }
        // Fanout lists by counting sort, arcs ascending within a node.
        self.fanout_start.clear();
        self.fanout_start.resize(n + 1, 0);
        for &src in &exp.fanin_list {
            self.fanout_start[src] += 1;
        }
        let mut total = 0;
        for s in &mut self.fanout_start {
            total += *s;
            *s = total;
        }
        self.fanout.resize(arcs, 0);
        for (arc, &src) in exp.fanin_list.iter().enumerate().rev() {
            self.fanout_start[src] -= 1;
            self.fanout[self.fanout_start[src] as usize] = arc as u32;
        }
        // Stale stamps are below the current epoch, so no clearing.
        for v in [
            &mut self.seen_in,
            &mut self.seen_out,
            &mut self.pred_in,
            &mut self.pred_out,
        ] {
            v.resize(n, 0);
        }
    }

    /// Continues the flow on `exp` (the expansion of the last
    /// [`CutFlow::reset`]) until it exceeds `limit` or is maximum.
    /// Returns the minimum cut, sorted by node index, when the maximum
    /// flow is at most `limit`, else `None`.
    pub fn min_cut(&mut self, exp: &Expansion, limit: usize) -> Option<Vec<usize>> {
        while self.flow <= limit {
            if !self.augment(exp) {
                // The failed search's marks are the residual reachable set.
                let e = self.epoch;
                let cut: Vec<usize> = (0..exp.nodes.len())
                    .filter(|&x| self.seen_in[x] == e && self.seen_out[x] != e)
                    .collect();
                debug_assert_eq!(cut.len(), self.flow);
                return Some(cut);
            }
            self.flow += 1;
        }
        None
    }

    /// Starts this flow, just [reset](CutFlow::reset) on `exp`, from the
    /// maximum flow `above` found on `above_exp`: the expansion of the
    /// same root under the same labels, φ and limits at a greater
    /// height. Every replica that may be cut at the lower height could be
    /// cut at the greater one, so `above` sends at most one unit through
    /// it, and its unit paths stay disjoint where they must.
    ///
    /// Each unit path is walked from the root down the arcs that carry
    /// it, and mapped into `exp` arc by arc: both expansions list a
    /// replica's fanins in circuit order, so an arc keeps its position
    /// and each step lands on the replica of the same `(orig, weight)`.
    /// A path that reaches a leaf of `exp` starts there. One that ends
    /// at a replica `exp` expanded is extended back, over replicas with
    /// room left, to a leaf of `exp`; once every path is placed, those
    /// that found no such leaf are dropped. Consumes `above`'s arc flows.
    pub fn carry(&mut self, exp: &Expansion, above: &mut CutFlow, above_exp: &Expansion) {
        self.carried.clear();
        self.carried_arcs.clear();
        for _ in 0..above.flow {
            // `x` walks `above_exp`, `y` its image in `exp`.
            let (mut x, mut y) = (0usize, 0usize);
            let first = self.carried_arcs.len() as u32;
            let extend = loop {
                if !exp.expanded[y] {
                    break false;
                }
                if !above_exp.expanded[x] {
                    break true;
                }
                let (start, len) = above_exp.fanin_spans[x];
                let arc = (start..start + len)
                    .find(|&a| above.along[a as usize] > 0)
                    .expect("a maximum flow is conserved at every replica");
                above.along[arc as usize] -= 1;
                let image = exp.fanin_spans[y].0 + (arc - start);
                x = above_exp.fanin_list[arc as usize];
                y = exp.fanin_list[image as usize];
                debug_assert_eq!(above_exp.nodes[x], exp.nodes[y]);
                self.carried_arcs.push(image);
            };
            let path = CarriedPath {
                arcs: (first, self.carried_arcs.len() as u32),
                tail: y as u32,
                extend,
                kept: true,
            };
            self.route(exp, path, 1);
            self.carried.push(path);
        }
        // Dead marks: replicas from which no extension reaches a leaf.
        // Extensions only use up room, so a mark stays true until every
        // path is placed; the failed paths are dropped after that.
        self.next_epoch();
        for p in 0..self.carried.len() {
            let path = self.carried[p];
            if path.extend && !self.extend_to_leaf(exp, path.tail as usize) {
                self.carried[p].kept = false;
            }
        }
        self.flow = 0;
        for p in 0..self.carried.len() {
            let path = self.carried[p];
            if path.kept {
                self.flow += 1;
            } else {
                self.route(exp, path, -1);
            }
        }
    }

    /// Adds (`units = 1`) or removes (`-1`) one unit along a carried
    /// path's tail and arcs.
    fn route(&mut self, exp: &Expansion, path: CarriedPath, units: i32) {
        let tail = path.tail as usize;
        self.through[tail] = self.through[tail].wrapping_add_signed(units);
        debug_assert!(exp.must_inside[tail] || self.through[tail] <= 1);
        for i in path.arcs.0..path.arcs.1 {
            let arc = self.carried_arcs[i as usize] as usize;
            self.along[arc] = self.along[arc].wrapping_add_signed(units);
            let x = self.owner[arc] as usize;
            self.through[x] = self.through[x].wrapping_add_signed(units);
            debug_assert!(exp.must_inside[x] || self.through[x] <= 1);
        }
    }

    /// Extends the unit that reaches the expanded replica `tail` back
    /// to a leaf, over replicas with room left (a must-inside one, or one
    /// no unit passes yet): a depth-first search over fanin arcs, marking
    /// every replica it exhausts dead with the current epoch. Returns
    /// false, changing nothing, when no such leaf is reachable.
    fn extend_to_leaf(&mut self, exp: &Expansion, tail: usize) -> bool {
        let dead = self.epoch;
        if self.seen_out[tail] == dead {
            return false;
        }
        self.stack.clear();
        self.stack.push((tail as u32, exp.fanin_spans[tail].0));
        while let Some(&mut (x, ref mut next)) = self.stack.last_mut() {
            let (start, len) = exp.fanin_spans[x as usize];
            if *next == start + len {
                self.seen_out[x as usize] = dead;
                self.stack.pop();
                continue;
            }
            let arc = *next;
            *next += 1;
            let f = exp.fanin_list[arc as usize];
            if self.seen_out[f] == dead || !(exp.must_inside[f] || self.through[f] == 0) {
                continue;
            }
            if exp.expanded[f] {
                self.stack.push((f as u32, exp.fanin_spans[f].0));
                continue;
            }
            // `f` is a leaf: the unit now starts there.
            self.through[f] += 1;
            for &(x, next) in &self.stack {
                self.along[next as usize - 1] += 1;
                if x as usize != tail {
                    self.through[x as usize] += 1;
                }
            }
            return true;
        }
        false
    }

    /// Opens a new visit epoch: every stamp of an earlier one reads stale.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen_in.fill(0);
            self.seen_out.fill(0);
            self.epoch = 1;
        }
    }

    /// One BFS from the super-source; on reaching the root's out-half
    /// (the sink), pushes one unit along the path found and returns true.
    fn augment(&mut self, exp: &Expansion) -> bool {
        self.next_epoch();
        self.queue.clear();
        for x in 0..exp.nodes.len() {
            if !exp.expanded[x] {
                self.visit(2 * x as u32, FROM_SOURCE);
            }
        }
        let mut head = 0;
        while let Some(&half) = self.queue.get(head) {
            head += 1;
            let x = (half / 2) as usize;
            let mut sink = false;
            if half % 2 == 0 {
                if exp.must_inside[x] || self.through[x] == 0 {
                    sink |= self.visit(half + 1, OVER_NODE);
                }
                // Cancel flow back along the fanin arcs into `x`.
                let (start, len) = exp.fanin_spans[x];
                for arc in start..start + len {
                    if self.along[arc as usize] > 0 {
                        let src = exp.fanin_list[arc as usize] as u32;
                        sink |= self.visit(2 * src + 1, arc);
                    }
                }
            } else {
                for i in self.fanout_start[x]..self.fanout_start[x + 1] {
                    let arc = self.fanout[i as usize];
                    self.visit(2 * self.owner[arc as usize], arc);
                }
                if self.through[x] > 0 {
                    self.visit(half - 1, OVER_NODE);
                }
            }
            if sink {
                self.push_path(exp);
                return true;
            }
        }
        false
    }

    /// Marks `half` reached over `pred` and queues it, unless this search
    /// already reached it. Returns whether it is the sink, the root's
    /// out-half.
    fn visit(&mut self, half: u32, pred: u32) -> bool {
        let x = (half / 2) as usize;
        let (seen, from) = if half % 2 == 0 {
            (&mut self.seen_in[x], &mut self.pred_in[x])
        } else {
            (&mut self.seen_out[x], &mut self.pred_out[x])
        };
        if *seen == self.epoch {
            return false;
        }
        (*seen, *from) = (self.epoch, pred);
        self.queue.push(half);
        half == 1
    }

    /// Pushes one unit from the sink back to the super-source along the
    /// predecessors of the last search.
    fn push_path(&mut self, exp: &Expansion) {
        let mut half = 1u32;
        loop {
            let x = (half / 2) as usize;
            let pred = if half % 2 == 0 {
                self.pred_in[x]
            } else {
                self.pred_out[x]
            };
            half = match (half % 2, pred) {
                (0, FROM_SOURCE) => return,
                (0, OVER_NODE) => {
                    self.through[x] -= 1;
                    half + 1
                }
                (_, OVER_NODE) => {
                    self.through[x] += 1;
                    half - 1
                }
                (0, arc) => {
                    self.along[arc as usize] += 1;
                    2 * exp.fanin_list[arc as usize] as u32 + 1
                }
                (_, arc) => {
                    self.along[arc as usize] -= 1;
                    2 * self.owner[arc as usize]
                }
            };
        }
    }
}

/// Per-worker scratch of the label sweep and of mapping generation: the
/// expansion under test, its build buffers, the flow on it, the
/// expansion and flow one height above it, and the cone memo. Each
/// worker owns one (`&mut` access, never shared) for a whole label probe
/// or mapping generation, so cut tests reuse these buffers instead of
/// reallocating them. A scratch serves one circuit: its cone memo is
/// keyed by replicas of that circuit.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The expansion of the last [`Scratch::expand`].
    pub exp: Expansion,
    build: BuildScratch,
    flow: CutFlow,
    /// The expansion and flow [`Scratch::expand_below`] replaced, for
    /// [`Scratch::carry_flow`].
    above: Expansion,
    above_flow: CutFlow,
    /// Cone functions already simulated on this scratch's circuit.
    pub cones: ConeMemo,
    /// Augmenting paths [`Scratch::min_cut`] found, over the scratch's
    /// life.
    pub augmentations: u64,
}

impl Scratch {
    /// Rebuilds [`Scratch::exp`] as `E_root` for a height-`height` cut
    /// test (see [`Expansion::build`]) and starts a zero flow on it.
    pub fn expand(
        &mut self,
        c: &Circuit,
        root: usize,
        phi: i64,
        labels: &[i64],
        height: i64,
        limits: ExpandLimits,
    ) -> Result<(), ExpandFail> {
        self.exp
            .rebuild(c, (root, phi, height), labels, limits, &mut self.build)?;
        self.flow.reset(&self.exp);
        Ok(())
    }

    /// [`Scratch::expand`] at a lower `height` of the same root, keeping
    /// the expansion and flow it replaces for [`Scratch::carry_flow`].
    pub fn expand_below(
        &mut self,
        c: &Circuit,
        root: usize,
        phi: i64,
        labels: &[i64],
        height: i64,
        limits: ExpandLimits,
    ) -> Result<(), ExpandFail> {
        std::mem::swap(&mut self.exp, &mut self.above);
        std::mem::swap(&mut self.flow, &mut self.above_flow);
        self.expand(c, root, phi, labels, height, limits)
    }

    /// Starts the flow on [`Scratch::exp`] from the one above it (see
    /// [`CutFlow::carry`]). The last [`Scratch::expand_below`] must have
    /// succeeded, and the last [`Scratch::min_cut`] before it must have
    /// returned a cut, so that the flow above is maximum.
    pub fn carry_flow(&mut self) {
        self.flow
            .carry(&self.exp, &mut self.above_flow, &self.above);
    }

    /// [`Expansion::min_cut`] on [`Scratch::exp`], continuing the flow of
    /// earlier calls on the same expansion (or the one carried to it):
    /// after a test at limit `K` fails, a test at `Cmax` only adds the
    /// missing augmenting paths.
    pub fn min_cut(&mut self, limit: usize) -> Option<Vec<usize>> {
        let before = self.flow.flow;
        let cut = self.flow.min_cut(&self.exp, limit);
        self.augmentations += (self.flow.flow - before) as u64;
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::circuit::Fanin;
    use turbosyn_netlist::gen;

    /// a chain PI -> g0 -> g1 -> g2 (combinational).
    fn chain3() -> Circuit {
        let mut c = Circuit::new("chain3");
        let a = c.add_input("a");
        let g0 = c.add_gate("g0", TruthTable::inv(), vec![Fanin::wire(a)]);
        let g1 = c.add_gate("g1", TruthTable::inv(), vec![Fanin::wire(g0)]);
        let g2 = c.add_gate("g2", TruthTable::inv(), vec![Fanin::wire(g1)]);
        c.add_output("o", Fanin::wire(g2));
        c
    }

    #[test]
    fn combinational_expansion_is_the_cone() {
        let c = chain3();
        // Labels: PI 0, gates 1 each (pretend); height 1, phi 1.
        let labels = vec![0, 1, 1, 1, 0];
        let e =
            Expansion::build(&c, 3, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        // Nodes: g2^0, g1^0, g0^0, a^0 — cone of g2.
        assert_eq!(e.nodes.len(), 4);
        assert!(e.nodes.iter().all(|n| n.weight == 0));
    }

    #[test]
    fn min_cut_finds_single_input() {
        let c = chain3();
        let labels = vec![0, 1, 1, 1, 0];
        let e =
            Expansion::build(&c, 3, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        let cut = e.min_cut(4).expect("cut exists");
        assert_eq!(cut.len(), 1);
        // The cheapest cut is the PI itself.
        assert_eq!(e.nodes[cut[0]].orig, 0);
        // Cone function: three inverters = inverter.
        let tt = e.cone_tt(&c, &cut);
        assert_eq!(tt, TruthTable::inv());
    }

    #[test]
    fn ring_unrolls_with_weights() {
        // ring(3, 2): gates r0,r1,r2 on a loop with 2 registers.
        let c = gen::ring(3, 2);
        // Labels: PIs/POs 0, gates 1.
        let labels: Vec<i64> = c
            .node_ids()
            .map(|id| i64::from(matches!(c.node(id).kind, NodeKind::Gate(_))))
            .collect();
        let root = c.find("r2").expect("exists").index();
        let e =
            Expansion::build(&c, root, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        // Unrolled replicas of loop gates at increasing weights appear.
        assert!(e.nodes.iter().any(|n| n.weight > 0));
        // No replica repeats (orig, weight) pairs.
        let mut seen = std::collections::HashSet::new();
        for n in &e.nodes {
            assert!(seen.insert((n.orig, n.weight)), "duplicate {n:?}");
        }
    }

    #[test]
    fn must_inside_pi_fails() {
        let c = chain3();
        // Height 0 forces the PI (label 0, weight 0: 0 - 0 >= 0) inside.
        let labels = vec![0, 1, 1, 1, 0];
        let r = Expansion::build(&c, 3, 1, &labels, 0, ExpandLimits::default());
        assert!(matches!(r, Err(ExpandFail::PiMustBeInside)));
    }

    #[test]
    fn cut_height_matches_definition() {
        let c = chain3();
        let labels = vec![0, 1, 2, 3, 0];
        let e =
            Expansion::build(&c, 3, 1, &labels, 3, ExpandLimits::default()).expect("expandable");
        let cut = e.min_cut(4).expect("cut exists");
        let h = e.cut_height(&cut, 1, &labels);
        assert!(h <= 3, "height {h}");
    }

    #[test]
    fn figure1_cone_function_is_correct() {
        // Cover two adjacent figure-1 gates and check the cut function.
        let c = gen::figure1();
        let labels: Vec<i64> = c
            .node_ids()
            .map(|id| i64::from(matches!(c.node(id).kind, NodeKind::Gate(_))))
            .collect();
        let root = c.find("g1").expect("exists").index();
        // Height 2 allows cutting at PIs and at g0's replica.
        let e =
            Expansion::build(&c, root, 1, &labels, 2, ExpandLimits::default()).expect("expandable");
        let cut = e.min_cut(16).expect("cut exists");
        let tt = e.cone_tt(&c, &cut);
        assert!(tt.nvars() as usize == cut.len());
        assert!(!tt.support().is_empty());
    }

    /// The cut on the explicit node-split graph, as the general max-flow
    /// reference computes it: leaves fed from a synthetic source, the
    /// root as sink, must-inside nodes uncuttable.
    fn reference_cut(exp: &Expansion, limit: usize) -> Option<Vec<usize>> {
        use turbosyn_graph::maxflow::{min_vertex_cut, VertexCut};
        let n = exp.nodes.len();
        let mut g = turbosyn_graph::Digraph::new(n + 1);
        for xi in 0..n {
            for &ci in exp.fanins(xi) {
                g.add_edge(ci, xi, 0);
            }
            if !exp.expanded[xi] {
                g.add_edge(n, xi, 0);
            }
        }
        let cap: Vec<u32> = (0..=n)
            .map(|xi| {
                if xi < n && exp.must_inside[xi] {
                    u32::MAX
                } else {
                    1
                }
            })
            .collect();
        match min_vertex_cut(&g, &[n], &[0], &cap, limit as u32) {
            VertexCut::Cut(cut) => Some(cut),
            VertexCut::ExceedsLimit => None,
        }
    }

    /// The kernel against the general max-flow reference on expansions
    /// of random FSM- and ISCAS-class circuits (random root, φ, height
    /// and labels): same verdict and same cut at every K in 3..=6, a
    /// K-limited flow continued to Cmax answers exactly like a fresh
    /// Cmax-limited one, and so does a flow carried from height H to
    /// H − 1 (and on down to H − 3).
    #[test]
    fn kernel_matches_the_max_flow_reference() {
        use turbosyn_graph::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0x15);
        let mut scratch = Scratch::default();
        let (mut cuts, mut exceeded) = (0, 0);
        let (mut carries, mut carried_units) = (0, 0);
        let (mut carried_augmentations, mut fresh_augmentations) = (0, 0);
        for round in 0..48u64 {
            let c = if round % 2 == 0 {
                gen::fsm(gen::FsmConfig {
                    state_bits: rng.random_range(2usize..5),
                    inputs: rng.random_range(2usize..6),
                    outputs: 2,
                    depth: rng.random_range(3usize..8),
                    seed: round,
                })
            } else {
                gen::iscas_like(gen::IscasConfig {
                    layers: rng.random_range(4usize..9),
                    width: rng.random_range(4usize..12),
                    inputs: 6,
                    outputs: 4,
                    feedback_pct: 30,
                    seed: round,
                })
            };
            let labels: Vec<i64> = c
                .node_ids()
                .map(|id| match c.node(id).kind {
                    NodeKind::Gate(_) => rng.random_range(1i64..6),
                    _ => 0,
                })
                .collect();
            let gates: Vec<usize> = c.gates().map(|g| g.index()).collect();
            for _ in 0..8 {
                let root = gates[rng.random_range(0..gates.len())];
                let phi = rng.random_range(1i64..4);
                let height = labels[root] + rng.random_range(-1i64..3);
                let limits = ExpandLimits::default();
                if scratch
                    .expand(&c, root, phi, &labels, height, limits)
                    .is_err()
                {
                    continue;
                }
                let exp = &scratch.exp;
                for k in 3..=6 {
                    let want = reference_cut(exp, k);
                    assert_eq!(exp.min_cut(k), want, "K = {k}");
                    match &want {
                        Some(_) => cuts += 1,
                        None => exceeded += 1,
                    }
                }
                for cmax in [8, 15, 16] {
                    let k = rng.random_range(3usize..7);
                    let mut flow = CutFlow::default();
                    flow.reset(exp);
                    if flow.min_cut(exp, k).is_none() {
                        let fresh = exp.min_cut(cmax);
                        assert_eq!(fresh, reference_cut(exp, cmax), "Cmax = {cmax}");
                        assert_eq!(flow.min_cut(exp, cmax), fresh, "K = {k} → Cmax = {cmax}");
                    }
                }
                // The descent: the maximum flow at `height` carried down
                // one height at a time, while the cut stays within Cmax,
                // answers exactly like a fresh flow at each height. Tight
                // truncation limits make carried paths need extending.
                let cmax = 15;
                let limits = ExpandLimits {
                    slack: rng.random_range(0usize..4),
                    max_nodes: [16, 48, 4096][rng.random_range(0usize..3)],
                };
                let mut descent = Scratch::default();
                if descent
                    .expand(&c, root, phi, &labels, height, limits)
                    .is_err()
                {
                    continue;
                }
                let mut cut = descent.min_cut(cmax);
                for below in 1..=3 {
                    if cut.is_none() {
                        break;
                    }
                    let lower = height - below;
                    let built = descent.expand_below(&c, root, phi, &labels, lower, limits);
                    let mut fresh = Scratch::default();
                    let fresh_built = fresh.expand(&c, root, phi, &labels, lower, limits);
                    assert_eq!(built, fresh_built, "height {lower}");
                    if built.is_err() {
                        break;
                    }
                    descent.carry_flow();
                    carried_units += descent.flow.flow;
                    let before = descent.augmentations;
                    cut = descent.min_cut(cmax);
                    carried_augmentations += descent.augmentations - before;
                    let want = fresh.min_cut(cmax);
                    fresh_augmentations += fresh.augmentations;
                    assert_eq!(cut, want, "carried to height {lower}");
                    assert_eq!(cut, reference_cut(&descent.exp, cmax), "height {lower}");
                    carries += 1;
                }
            }
        }
        assert!(
            cuts > 100 && exceeded > 100,
            "{cuts} cuts, {exceeded} over K"
        );
        assert!(carries > 50, "{carries} carried flows");
        assert!(
            carried_units > 0 && carried_augmentations < fresh_augmentations,
            "{carried_units} units carried; {carried_augmentations} augmentations \
             after carrying, {fresh_augmentations} fresh"
        );
    }

    /// The memoized cone function equals a fresh simulation, on min-cuts
    /// of random FSM- and ISCAS-class circuits at random roots, φ and
    /// heights; one memo per circuit, shared by every expansion of it.
    #[test]
    fn memoized_cone_functions_equal_fresh_simulation() {
        use turbosyn_graph::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0xC0E);
        let (mut lookups, mut distinct) = (0, 0);
        for round in 0..24u64 {
            let c = if round % 2 == 0 {
                gen::fsm(gen::FsmConfig {
                    state_bits: rng.random_range(2usize..5),
                    inputs: rng.random_range(2usize..6),
                    outputs: 2,
                    depth: rng.random_range(3usize..8),
                    seed: round,
                })
            } else {
                gen::iscas_like(gen::IscasConfig {
                    layers: rng.random_range(4usize..9),
                    width: rng.random_range(4usize..12),
                    inputs: 6,
                    outputs: 4,
                    feedback_pct: 30,
                    seed: round,
                })
            };
            let labels: Vec<i64> = c
                .node_ids()
                .map(|id| match c.node(id).kind {
                    NodeKind::Gate(_) => rng.random_range(1i64..6),
                    _ => 0,
                })
                .collect();
            let gates: Vec<usize> = c.gates().map(|g| g.index()).collect();
            let mut memo = ConeMemo::default();
            for _ in 0..12 {
                let root = gates[rng.random_range(0..gates.len())];
                let phi = rng.random_range(1i64..4);
                for height in labels[root] - 2..=labels[root] + 1 {
                    let Ok(exp) =
                        Expansion::build(&c, root, phi, &labels, height, ExpandLimits::default())
                    else {
                        continue;
                    };
                    let Some(cut) = exp.min_cut(16) else {
                        continue;
                    };
                    lookups += 1;
                    assert_eq!(*memo.cone_tt(&exp, &c, &cut), exp.cone_tt(&c, &cut));
                }
            }
            distinct += memo.tables.len();
        }
        assert!(
            lookups > 200 && distinct < lookups,
            "{lookups} lookups of {distinct} cones"
        );
    }
}
