//! Sequential functional decomposition (the paper's Section 3.3).
//!
//! When no K-feasible cut of height `H = L(v)` exists on the expanded
//! circuit, TurboSYN takes a (possibly wide) min-cut of height `<= H − h`
//! for growing `h`, forms the **sequential cut function**
//! `f(u_1^{w_1}, …, u_m^{w_m})` (Figure 2 of the paper), and resynthesizes
//! it by functional decomposition (OBDD-based in the paper, on truth
//! tables here) so that the root LUT sees at most K inputs while every
//! original input still meets its timing budget:
//!
//! * input `u^w` enters the tree at depth `j` LUT levels ⇒ it contributes
//!   `l(u) − φ·w + j` to the root label, which must stay `<= H`;
//! * so inputs are sorted by increasing `l(u) − φ·w` (the paper's order)
//!   and only the *least critical* ones are buried in extracted
//!   sub-LUTs.
//!
//! Each extraction is an Ashenhurst step (column multiplicity `<= 2`, one
//! encoding wire) computed on the cut function's truth table: with the
//! bound set moved to the top inputs, each cofactor is one contiguous
//! block of the table, so cofactor classes are found by comparing
//! blocks. Cut functions have at most `Cmax <= 16` inputs, so a table is
//! at most 1024 words. The result is a [`Realization`]: the LUT tree that
//! mapping generation will instantiate.
//!
//! Two things keep the descent cheap. The cut function comes from the
//! worker's [`ConeMemo`], so a cut the probe already met is not simulated
//! again. And the bound-set windows of one size are tested by sliding a
//! single table: column multiplicity does not depend on the order of the
//! bound inputs or of the free ones, so moving from window `start` to
//! `start + 1` is one input swap (the leaving input trades slots with
//! the entering one). Only the window that passes is extracted, in
//! canonical order, so the encoders and image do not depend on the slide.

use crate::expand::{ConeMemo, ExpNode, Expansion};
use turbosyn_bdd::cache::{LutTemplate, SignatureKey, TemplateInput, TemplateLut};
use turbosyn_bdd::DecompCache;
use turbosyn_netlist::tt::TruthTable;
use turbosyn_netlist::Circuit;

/// Largest bound set one extraction enumerates (`2^12` cofactors).
const MAX_BOUND: usize = 12;

/// The extraction search reached a bound-set window wider than
/// [`MAX_BOUND`]: the label descent gives up on the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowTooWide;

/// Where a LUT input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LutInput {
    /// The original circuit node `orig`, delayed by `weight` registers.
    Sequential {
        /// Original circuit node index.
        orig: usize,
        /// Register count on the connection.
        weight: i64,
    },
    /// Output of another LUT of the same realization (wire, 0 registers).
    Internal(usize),
}

/// One LUT of a realization.
#[derive(Debug, Clone)]
pub struct LutSpec {
    /// Function over the ordered `inputs`.
    pub tt: TruthTable,
    /// Ordered inputs (truth-table input `i` = `inputs[i]`).
    pub inputs: Vec<LutInput>,
}

/// How a node's function is realized in the mapped network: one or more
/// LUTs, the last of which (`luts[root]`) computes the node.
#[derive(Debug, Clone)]
pub struct Realization {
    /// All LUTs; internal references point into this list.
    pub luts: Vec<LutSpec>,
    /// Index of the root LUT.
    pub root: usize,
}

impl Realization {
    /// A single-LUT realization straight from a K-feasible cut.
    ///
    /// # Panics
    ///
    /// Panics if `cut` has more than 16 nodes — callers only pass
    /// K-feasible cuts (`K <= 16`), so this is a caller bug, not an input
    /// condition.
    pub fn from_cut(exp: &Expansion, c: &Circuit, cut: &[usize]) -> Realization {
        let tt = exp.cone_tt(c, cut);
        let inputs = cut
            .iter()
            .map(|&xi| {
                let ExpNode { orig, weight } = exp.nodes[xi];
                LutInput::Sequential { orig, weight }
            })
            .collect();
        Realization {
            luts: vec![LutSpec { tt, inputs }],
            root: 0,
        }
    }

    /// Number of LUTs.
    pub fn lut_count(&self) -> usize {
        self.luts.len()
    }
}

/// Attempts to resynthesize the cut function of `cut` (on `exp`) so that
/// the root label is at most `height`: returns the LUT tree on success.
///
/// `labels`/`phi` give each cut input its criticality
/// `λ_i = l(u_i) − φ·w_i`; the root LUT needs every (possibly extracted)
/// input signal to carry label `<= height − 1`. `k` bounds every LUT's
/// input count, and `max_wires` the encoding functions per extraction.
/// The paper uses single-output decomposition (`max_wires = 1`) and cites
/// multi-output decomposition \[26\] as future work; `max_wires = 2`
/// implements that extension: bound sets with column multiplicity up to 4
/// become two encoder LUTs feeding the root.
///
/// The cut function is read from `cones` when it holds this root and cut.
/// The outcome is memoized in `cache`, keyed by the canonical
/// cut-function signature (truth table in cut order, criticality deltas,
/// `k` and `max_wires`). It is a pure function of the key, so hit
/// replays are exact.
///
/// # Errors
///
/// [`WindowTooWide`] (not cached) when the extraction search reaches a
/// bound-set window wider than [`MAX_BOUND`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn resynthesize(
    exp: &Expansion,
    cones: &mut ConeMemo,
    c: &Circuit,
    cut: &[usize],
    phi: i64,
    labels: &[i64],
    height: i64,
    k: usize,
    max_wires: usize,
    cache: &DecompCache,
) -> Result<Option<Realization>, WindowTooWide> {
    if cut.is_empty() {
        return Ok(None);
    }
    // Locally proven: the mappers validate max_wires before any labeling
    // starts.
    assert!(
        (1..=2).contains(&max_wires),
        "1 or 2 encoding wires supported"
    );
    let f = cones.cone_tt(exp, c, cut);
    let key = SignatureKey {
        nvars: f.nvars(),
        tt: f.bits().to_vec(),
        deltas: cut_deltas(exp, cut, phi, labels, height),
        k: k as u8,
        max_wires: max_wires as u8,
    };
    let srcs = cut_srcs(exp, cut);
    if let Some(outcome) = cache.get(&key) {
        return Ok(outcome.map(|t| instantiate(&t, &srcs)));
    }
    let template = decompose_template(f, &key.deltas, k, max_wires)?;
    let realization = template.as_ref().map(|t| instantiate(t, &srcs));
    cache.insert(key, template);
    Ok(realization)
}

/// Per-cut-input criticality deltas `λ_i − height` (`λ_i = l(u_i) − φ·w_i`),
/// in cut order. The decomposition pipeline only ever compares λ against
/// `height − 1` / `height − 2` and takes maxima, so deltas carry all the
/// timing information — and make signatures probe-independent.
fn cut_deltas(exp: &Expansion, cut: &[usize], phi: i64, labels: &[i64], height: i64) -> Vec<i64> {
    cut.iter()
        .map(|&xi| {
            let ExpNode { orig, weight } = exp.nodes[xi];
            labels[orig] - phi * weight - height
        })
        .collect()
}

/// The sequential source of each cut input, in cut order.
fn cut_srcs(exp: &Expansion, cut: &[usize]) -> Vec<LutInput> {
    cut.iter()
        .map(|&xi| {
            let ExpNode { orig, weight } = exp.nodes[xi];
            LutInput::Sequential { orig, weight }
        })
        .collect()
}

/// Binds a circuit-free [`LutTemplate`] to the concrete cut inputs.
fn instantiate(template: &LutTemplate, srcs: &[LutInput]) -> Realization {
    let luts = template
        .luts
        .iter()
        .map(|lut| LutSpec {
            tt: TruthTable::from_bits(lut.nvars, &lut.bits),
            inputs: lut
                .inputs
                .iter()
                .map(|inp| match *inp {
                    TemplateInput::Cut(i) => srcs[i],
                    TemplateInput::Lut(j) => LutInput::Internal(j),
                })
                .collect(),
        })
        .collect();
    Realization {
        luts,
        root: template.root,
    }
}

/// One input of the root function during the decomposition: its
/// criticality delta and where its signal comes from.
#[derive(Debug, Clone, Copy)]
struct Sig {
    delta: i64,
    src: TemplateInput,
}

/// The decomposition pipeline proper, in circuit-free form: input `i` of
/// `f` is cut input `i`, and `deltas[i]` is its criticality relative to
/// the target height (burial requires `delta <= −2`, feeding the root
/// requires `delta <= −1`). Deterministic in `(f, deltas, k, max_wires)`
/// alone: the stable criticality sort is keyed on deltas over the initial
/// cut order, and every extraction is canonical in the function.
fn decompose_template(
    f: &TruthTable,
    deltas: &[i64],
    k: usize,
    max_wires: usize,
) -> Result<Option<LutTemplate>, WindowTooWide> {
    // Current root inputs; input `i` of `current` is `sigs[i]`.
    let mut sigs: Vec<Sig> = deltas
        .iter()
        .enumerate()
        .map(|(i, &delta)| Sig {
            delta,
            src: TemplateInput::Cut(i),
        })
        .collect();
    let mut current = f.clone();

    // Drop inputs outside the support immediately.
    drop_unused(&mut current, &mut sigs);
    if sigs.iter().any(|s| s.delta > -1) {
        return Ok(None); // a critical input cannot even feed the root directly
    }

    let mut luts: Vec<TemplateLut> = Vec::new();
    loop {
        drop_unused(&mut current, &mut sigs);
        if sigs.len() <= k {
            break; // root LUT fits
        }
        // Candidates for burial: λ <= height − 2 (they will sit 2 levels
        // deep). Sorted by increasing λ — the paper's ordering.
        let mut order: Vec<usize> = (0..sigs.len()).collect();
        order.sort_by_key(|&i| sigs[i].delta);
        reorder(&mut current, &order);
        sigs = order.iter().map(|&i| sigs[i]).collect();
        let buriable = sigs.iter().filter(|s| s.delta <= -2).count();
        if buriable < 2 {
            return Ok(None);
        }
        // Try bound sets: windows of the least-critical buriable inputs,
        // largest first (reduces support fastest). Single-wire Ashenhurst
        // extractions are preferred; with `max_wires = 2` a second pass
        // admits Roth–Karp bound sets of multiplicity up to 4 (they must
        // shrink the support, so the window needs at least `wires + 1`
        // members).
        let mut extracted = false;
        'outer: for wires in 1..=max_wires {
            for size in ((wires + 1)..=k.min(buriable)).rev() {
                if size > MAX_BOUND {
                    return Err(WindowTooWide);
                }
                let Some(start) = first_window(&current, buriable, size, wires) else {
                    continue; // multiplicity too high for `wires` everywhere
                };
                let Extraction { encoders, image } =
                    extract(&current, start, size, wires).expect("the window passed the scan");
                // New signals sit one LUT level above their worst member.
                let window = start..start + size;
                let delta = sigs[window.clone()]
                    .iter()
                    .map(|s| s.delta)
                    .max()
                    .expect("non-empty bound set")
                    + 1;
                let enc_inputs: Vec<TemplateInput> = sigs.drain(window).map(|s| s.src).collect();
                // The image keeps the free inputs in order and takes
                // the encoder outputs as its top inputs.
                for enc in encoders {
                    sigs.push(Sig {
                        delta,
                        src: TemplateInput::Lut(luts.len()),
                    });
                    luts.push(TemplateLut {
                        nvars: enc.nvars(),
                        bits: enc.bits().to_vec(),
                        inputs: enc_inputs.clone(),
                    });
                }
                current = image;
                extracted = true;
                break 'outer;
            }
        }
        if !extracted {
            return Ok(None);
        }
    }

    // Root LUT over the remaining signals.
    if sigs.iter().any(|s| s.delta > -1) {
        return Ok(None);
    }
    let root = luts.len();
    luts.push(TemplateLut {
        nvars: current.nvars(),
        bits: current.bits().to_vec(),
        inputs: sigs.iter().map(|s| s.src).collect(),
    });
    debug_assert!(luts.iter().all(|l| l.inputs.len() <= k));
    Ok(Some(LutTemplate { luts, root }))
}

/// Reorders the inputs of `f` so that new input `j` is old input
/// `order[j]` (`order` is a permutation of the inputs).
fn reorder(f: &mut TruthTable, order: &[usize]) {
    // at[p] = the old input now at position p.
    let mut at: Vec<usize> = (0..order.len()).collect();
    for (p, &want) in order.iter().enumerate() {
        let q = p + at[p..]
            .iter()
            .position(|&o| o == want)
            .expect("order is a permutation");
        if q != p {
            f.swap_inputs(p as u8, q as u8);
            at.swap(p, q);
        }
    }
}

/// Drops the inputs `f` does not depend on, from `f` and `sigs` alike.
fn drop_unused(f: &mut TruthTable, sigs: &mut Vec<Sig>) {
    let used: Vec<bool> = (0..sigs.len()).map(|v| f.depends_on(v as u8)).collect();
    let live = used.iter().filter(|&&u| u).count();
    if live == sigs.len() {
        return;
    }
    let (mut order, unused): (Vec<usize>, Vec<usize>) = (0..sigs.len()).partition(|&v| used[v]);
    order.extend(unused);
    reorder(f, &order);
    // The unused inputs now sit on top; the table at their 0 assignment
    // is the function of the others.
    *f = TruthTable::from_bits(live as u8, f.bits());
    *sigs = order[..live].iter().map(|&i| sigs[i]).collect();
}

/// A disjoint decomposition `f(B, F) = image(encoders(B), F)`.
struct Extraction {
    /// Encoding functions over the bound set, in its order: encoder `j`
    /// is bit `j` of the class code.
    encoders: Vec<TruthTable>,
    /// The composition function over the free inputs, in order, followed
    /// by the encoder outputs.
    image: TruthTable,
}

/// The first window `start..start + size` of inputs, with `start + size
/// <= buriable`, over which `f` has column multiplicity at most
/// `2^wires`: the window [`extract`] accepts first.
fn first_window(f: &TruthTable, buriable: usize, size: usize, wires: usize) -> Option<usize> {
    let mut slide = WindowSlide::new(f, size);
    loop {
        if slide.fits(wires) {
            return Some(slide.start);
        }
        if slide.start + size == buriable {
            return None;
        }
        slide.advance();
    }
}

/// The bound-set windows of one size, tested on one sliding table: `g`
/// is `f` with window `start..start + size` on top, in some order, and
/// the free inputs below it, in some order. Column multiplicity depends
/// on neither order.
struct WindowSlide {
    g: TruthTable,
    /// `slot[i]`: where input `i` of `f` sits in `g`.
    slot: Vec<usize>,
    size: usize,
    start: usize,
}

impl WindowSlide {
    /// Window 0 of `f`, moved on top in order.
    fn new(f: &TruthTable, size: usize) -> WindowSlide {
        let n = usize::from(f.nvars());
        WindowSlide {
            g: bound_on_top(f, 0, size),
            slot: (0..n)
                .map(|i| if i < size { n - size + i } else { i - size })
                .collect(),
            size,
            start: 0,
        }
    }

    /// Moves to the next window: the leaving input trades slots with the
    /// entering one.
    fn advance(&mut self) {
        let (leaving, entering) = (self.start, self.start + self.size);
        self.g
            .swap_inputs(self.slot[leaving] as u8, self.slot[entering] as u8);
        self.slot.swap(leaving, entering);
        self.start += 1;
    }

    /// Whether [`extract`] accepts this window with `wires` encoders.
    fn fits(&self, wires: usize) -> bool {
        multiplicity_at_most(&self.g, self.size, 1 << wires)
    }
}

/// Whether `g` has at most `limit` distinct cofactors over its top
/// `size` inputs: [`cofactor_classes`]' verdict, without building the
/// per-assignment class map no rejected window needs.
fn multiplicity_at_most(g: &TruthTable, size: usize, limit: usize) -> bool {
    let free = usize::from(g.nvars()) - size;
    let mut reps: Vec<Column<'_>> = Vec::with_capacity(limit);
    for b in 0..1usize << size {
        let col = column(g, free, b);
        if !reps.contains(&col) {
            if reps.len() == limit {
                return false;
            }
            reps.push(col);
        }
    }
    true
}

/// `f` with its inputs `start..start + size` moved, in order, to the top:
/// cofactor `f|_{B=b}` is then block `b` of the table.
fn bound_on_top(f: &TruthTable, start: usize, size: usize) -> TruthTable {
    let n = usize::from(f.nvars());
    let order: Vec<usize> = (0..start)
        .chain(start + size..n)
        .chain(start..start + size)
        .collect();
    let mut g = f.clone();
    reorder(&mut g, &order);
    g
}

/// One cofactor of a table with `free` low inputs: block `b`, as a word
/// slice or, below one word, as the block's bits.
#[derive(PartialEq, Eq)]
enum Column<'a> {
    Words(&'a [u64]),
    Bits(u64),
}

fn column(g: &TruthTable, free: usize, b: usize) -> Column<'_> {
    if free >= 6 {
        let words = 1usize << (free - 6);
        Column::Words(&g.bits()[b * words..(b + 1) * words])
    } else {
        let (width, pos) = (1usize << free, b << free);
        Column::Bits((g.bits()[pos / 64] >> (pos % 64)) & (u64::MAX >> (64 - width)))
    }
}

/// Cofactor classes of `g` over its top `size` inputs: for every
/// assignment `b` of them (bit `j` of `b` = top input `j`), the class of
/// the cofactor `g|_{B=b}`, classes numbered in first-seen order; and the
/// first assignment of each class. `None` once more than `limit` classes
/// appear.
fn cofactor_classes(g: &TruthTable, size: usize, limit: usize) -> Option<(Vec<usize>, Vec<usize>)> {
    let free = usize::from(g.nvars()) - size;
    let mut class_of = Vec::with_capacity(1 << size);
    let mut reps: Vec<usize> = Vec::new();
    for b in 0..1usize << size {
        let col = column(g, free, b);
        let class = match reps.iter().position(|&r| column(g, free, r) == col) {
            Some(class) => class,
            None if reps.len() == limit => return None,
            None => {
                reps.push(b);
                reps.len() - 1
            }
        };
        class_of.push(class);
    }
    Some((class_of, reps))
}

/// Attempts the disjoint decomposition of `f` with the bound set
/// `B` = inputs `start..start + size` and at most `wires` encoding
/// functions. `None` if the column multiplicity exceeds `2^wires`.
///
/// Class `c` is encoded as the binary code `c`; unused codes map to
/// class 0 in the image (a free choice — don't cares).
fn extract(f: &TruthTable, start: usize, size: usize, wires: usize) -> Option<Extraction> {
    let g = bound_on_top(f, start, size);
    let (class_of, reps) = cofactor_classes(&g, size, 1 << wires)?;
    let free = usize::from(f.nvars()) - size;
    // At least one wire keeps the shape; ceil(log2 μ) otherwise.
    let needed = ((usize::BITS - (reps.len() - 1).leading_zeros()) as usize).max(1);
    let encoders = (0..needed)
        .map(|j| TruthTable::from_fn(size as u8, |b| (class_of[b as usize] >> j) & 1 == 1))
        .collect();
    let mut bits = vec![0u64; (1usize << (free + needed)).div_ceil(64)];
    for code in 0..1usize << needed {
        let rep = reps[if code < reps.len() { code } else { 0 }];
        match column(&g, free, rep) {
            Column::Words(ws) => bits[code * ws.len()..(code + 1) * ws.len()].copy_from_slice(ws),
            Column::Bits(v) => bits[(code << free) / 64] |= v << ((code << free) % 64),
        }
    }
    Some(Extraction {
        encoders,
        image: TruthTable::from_bits((free + needed) as u8, &bits),
    })
}

/// Evaluates a realization on concrete input values (keyed by
/// `(orig, weight)`): used by tests and verification to confirm the LUT
/// tree computes the original cut function.
pub fn eval_realization(r: &Realization, value_of: &dyn Fn(usize, i64) -> bool) -> bool {
    let mut memo: Vec<Option<bool>> = vec![None; r.luts.len()];
    fn rec(
        r: &Realization,
        idx: usize,
        value_of: &dyn Fn(usize, i64) -> bool,
        memo: &mut Vec<Option<bool>>,
    ) -> bool {
        if let Some(v) = memo[idx] {
            return v;
        }
        let lut = &r.luts[idx];
        let mut bits = 0u32;
        for (i, inp) in lut.inputs.iter().enumerate() {
            let b = match *inp {
                LutInput::Sequential { orig, weight } => value_of(orig, weight),
                LutInput::Internal(j) => rec(r, j, value_of, memo),
            };
            bits |= u32::from(b) << i;
        }
        let v = lut.tt.eval(bits);
        memo[idx] = Some(v);
        v
    }
    rec(r, r.root, value_of, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::ExpandLimits;
    use turbosyn_bdd::decompose::{column_multiplicity, decompose};
    use turbosyn_bdd::Manager;
    use turbosyn_graph::rng::StdRng;
    use turbosyn_netlist::circuit::Fanin;
    use turbosyn_netlist::gen;
    use turbosyn_netlist::NodeKind;

    fn unit_labels(c: &Circuit) -> Vec<i64> {
        c.node_ids()
            .map(|id| i64::from(matches!(c.node(id).kind, NodeKind::Gate(_))))
            .collect()
    }

    /// The figure-1 circuit at its converged φ=1 labels (gates 2): the
    /// LUT covering g1+g0 needs 7 inputs, but the AND3 side product of g0
    /// decomposes out, leaving a 5-input root.
    #[test]
    fn figure1_cut_function_resynthesizes() {
        let c = gen::figure1();
        // Converged labels at phi=1: every loop gate carries label 2.
        let labels: Vec<i64> = unit_labels(&c).iter().map(|&l| l * 2).collect();
        let root = c.find("g1").expect("exists").index();
        // Height 2 at phi 1: must-inside = nodes with l − w >= 2: both g1
        // and g0 (w=0 on that edge).
        let exp =
            Expansion::build(&c, root, 1, &labels, 2, ExpandLimits::default()).expect("expandable");
        let cut = exp.min_cut(15).expect("wide cut exists");
        assert!(cut.len() > 5, "cut should exceed K=5, got {}", cut.len());
        let real = resynthesize(
            &exp,
            &mut ConeMemo::default(),
            &c,
            &cut,
            1,
            &labels,
            2,
            5,
            1,
            &DecompCache::new(),
        )
        .expect("windows fit")
        .expect("decomposes");
        assert!(real.lut_count() >= 2);
        for lut in &real.luts {
            assert!(lut.inputs.len() <= 5);
        }
        // The realization computes the cone function.
        let tt = exp.cone_tt(&c, &cut);
        for i in 0..(1u32 << cut.len()) {
            let value_of = |orig: usize, weight: i64| -> bool {
                let pos = cut
                    .iter()
                    .position(|&xi| exp.nodes[xi].orig == orig && exp.nodes[xi].weight == weight)
                    .expect("input is a cut node");
                (i >> pos) & 1 == 1
            };
            assert_eq!(eval_realization(&real, &value_of), tt.eval(i), "input {i}");
        }
    }

    /// Inputs too critical to bury make resynthesis fail: at height 1 the
    /// PIs (λ = 0) would need λ <= −1 to pass through an extra LUT level.
    #[test]
    fn critical_inputs_block_burial() {
        let c = gen::figure1();
        let labels = unit_labels(&c);
        let root = c.find("g1").expect("exists").index();
        let exp =
            Expansion::build(&c, root, 1, &labels, 1, ExpandLimits::default()).expect("expandable");
        let cut = exp.min_cut(15).expect("cut exists");
        assert!(cut.len() > 5, "cut should exceed K=5");
        assert!(resynthesize(
            &exp,
            &mut ConeMemo::default(),
            &c,
            &cut,
            1,
            &labels,
            1,
            5,
            1,
            &DecompCache::new()
        )
        .expect("windows fit")
        .is_none());
    }

    /// A wide AND is always decomposable: chain of ANDs.
    #[test]
    fn wide_and_decomposes() {
        let mut c = Circuit::new("wide");
        let pis: Vec<_> = (0..8).map(|i| c.add_input(format!("i{i}"))).collect();
        // Balanced tree of ANDs: depth 3.
        let mut layer: Vec<_> = pis.clone();
        let mut n = 0;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                n += 1;
                let g = c.add_gate(
                    format!("g{n}"),
                    TruthTable::and2(),
                    vec![Fanin::wire(pair[0]), Fanin::wire(pair[1])],
                );
                next.push(g);
            }
            layer = next;
        }
        c.add_output("o", Fanin::wire(layer[0]));
        // Pretend labels: gates 2, PIs 0. Covering the whole tree at
        // height 2 forces the 8-PI cut; K = 4 requires two extractions.
        let labels: Vec<i64> = unit_labels(&c).iter().map(|&l| l * 2).collect();
        let root = layer[0].index();
        let exp =
            Expansion::build(&c, root, 1, &labels, 2, ExpandLimits::default()).expect("expandable");
        let cut = exp.min_cut(15).expect("cut exists");
        assert_eq!(cut.len(), 8, "cut is the 8 PIs");
        let real = resynthesize(
            &exp,
            &mut ConeMemo::default(),
            &c,
            &cut,
            1,
            &labels,
            2,
            4,
            1,
            &DecompCache::new(),
        )
        .expect("windows fit")
        .expect("AND decomposes");
        assert!(real.luts.iter().all(|l| l.inputs.len() <= 4));
        assert!(real.lut_count() >= 3);
    }

    /// The BDD reference rejects bound sets wider than 12 inputs, which
    /// ends the descent; the truth-table search gives up at the same
    /// point instead of trying narrower windows.
    #[test]
    fn windows_wider_than_twelve_give_up() {
        let and14 = TruthTable::from_fn(14, |i| i == (1 << 14) - 1);
        let deltas = [-2; 14];
        assert_eq!(
            decompose_template(&and14, &deltas, 13, 1),
            Err(WindowTooWide),
            "K = 13 opens with a 13-input window"
        );
        let t = decompose_template(&and14, &deltas, 12, 1)
            .expect("12-input windows are enumerated")
            .expect("a wide AND decomposes");
        assert!(t.luts.iter().all(|l| l.inputs.len() <= 12));
    }

    /// A random function of `n` inputs that decomposes over the window
    /// `start..start + size` with `r` wires: `g(free, h_1(B), …, h_r(B))`
    /// for random `g` and `h_j`. With `r = 0` the function is fully
    /// random (high multiplicity).
    fn structured(rng: &mut StdRng, n: usize, start: usize, size: usize, r: usize) -> TruthTable {
        let random = |rng: &mut StdRng, nvars: usize| {
            let words: Vec<u64> = (0..(1usize << nvars).div_ceil(64))
                .map(|_| rng.random())
                .collect();
            TruthTable::from_bits(nvars as u8, &words)
        };
        if r == 0 {
            return random(rng, n);
        }
        let hs: Vec<TruthTable> = (0..r).map(|_| random(rng, size)).collect();
        let g = random(rng, n - size + r);
        TruthTable::from_fn(n as u8, |i| {
            let low = i & ((1 << start) - 1);
            let b = (i >> start) & ((1 << size) - 1);
            let high = i >> (start + size);
            let mut idx = low | (high << start);
            for (j, h) in hs.iter().enumerate() {
                idx |= u32::from(h.eval(b)) << (n - size + j);
            }
            g.eval(idx)
        })
    }

    /// The sliding scan accepts exactly the windows `extract` accepts:
    /// seeded tables of 3–15 inputs (fully random, or decomposable over a
    /// random window with one to two wires), every window size and
    /// start, 1 and 2 wires; and `first_window` picks the first of them.
    #[test]
    fn sliding_scan_accepts_exactly_the_windows_extract_accepts() {
        let mut rng = StdRng::seed_from_u64(0x51DE);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..60 {
            let n = rng.random_range(3usize..16);
            let shape_size = rng.random_range(1usize..n);
            let shape_start = rng.random_range(0..n - shape_size + 1);
            let r = rng.random_range(0usize..3);
            let f = structured(&mut rng, n, shape_start, shape_size, r);
            for size in 1..=n {
                for wires in 1..=2 {
                    let mut slide = WindowSlide::new(&f, size);
                    let mut first = None;
                    for start in 0..=n - size {
                        if start > 0 {
                            slide.advance();
                        }
                        let fits = slide.fits(wires);
                        assert_eq!(
                            fits,
                            extract(&f, start, size, wires).is_some(),
                            "n {n} window {start}+{size} wires {wires}"
                        );
                        if fits {
                            accepted += 1;
                            first = first.or(Some(start));
                        } else {
                            rejected += 1;
                        }
                    }
                    assert_eq!(first_window(&f, n, size, wires), first);
                }
            }
        }
        assert!(
            accepted > 500 && rejected > 500,
            "{accepted} windows accepted, {rejected} rejected"
        );
    }

    /// The truth-table extraction matches the BDD reference
    /// `turbosyn_bdd::decompose` exactly: the same column multiplicity,
    /// the same encoder tables (classes numbered in first-seen order) and
    /// the same image table, on seeded random functions of 5–15 inputs,
    /// bound windows of 2–5, and 1 or 2 wires.
    #[test]
    fn extraction_matches_the_bdd_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut decomposed = 0;
        for _ in 0..160 {
            let n = rng.random_range(5usize..16);
            let size = rng.random_range(2usize..6);
            let start = rng.random_range(0..n - size + 1);
            let wires = rng.random_range(1usize..3);
            let r = rng.random_range(0usize..3);
            let f = structured(&mut rng, n, start, size, r);

            let mut m = Manager::new();
            let fb = m.from_truth_table(n as u32, f.bits()).expect("fits");
            let bound: Vec<u32> = (start..start + size).map(|v| v as u32).collect();
            let mu = column_multiplicity(&mut m, fb, &bound);
            let (_, reps) = cofactor_classes(&bound_on_top(&f, start, size), size, usize::MAX)
                .expect("no class limit");
            assert_eq!(reps.len(), mu, "multiplicity, n {n} window {start}+{size}");

            let reference = decompose(&mut m, fb, &bound, wires, n as u32).expect("valid");
            let got = extract(&f, start, size, wires);
            let (Some(dec), Some(ext)) = (reference, got) else {
                assert!(mu > 1 << wires, "both fail exactly when μ > 2^wires");
                assert!(extract(&f, start, size, wires).is_none());
                continue;
            };
            decomposed += 1;
            assert_eq!(dec.multiplicity, mu);
            let free: Vec<usize> = (0..start).chain(start + size..n).collect();
            let eval = |m: &Manager, g, assign: &[(usize, bool)]| {
                let mut values = vec![false; n + 2];
                for &(v, b) in assign {
                    values[v] = b;
                }
                m.eval(g, &values)
            };
            assert_eq!(ext.encoders.len(), dec.encoders.len());
            for (enc, &h) in ext.encoders.iter().zip(&dec.encoders) {
                let want = TruthTable::from_fn(size as u8, |b| {
                    let assign: Vec<(usize, bool)> =
                        (0..size).map(|j| (start + j, (b >> j) & 1 == 1)).collect();
                    eval(&m, h, &assign)
                });
                assert_eq!(*enc, want, "encoder table");
            }
            let nz = dec.encoders.len();
            let want = TruthTable::from_fn((free.len() + nz) as u8, |i| {
                let assign: Vec<(usize, bool)> = free
                    .iter()
                    .copied()
                    .chain(n..n + nz)
                    .enumerate()
                    .map(|(j, v)| (v, (i >> j) & 1 == 1))
                    .collect();
                eval(&m, dec.image, &assign)
            });
            assert_eq!(ext.image, want, "image table");
        }
        assert!(decomposed >= 40, "only {decomposed} cases decomposed");
    }
}
