//! Dense truth tables for gate and LUT functions.
//!
//! Gates in a K-bounded network and LUT contents after mapping are
//! functions of at most ~16 inputs, so a flat bit table is the fastest and
//! simplest representation. Bit `i` of the table is the function value at
//! the assignment whose input `v` equals bit `v` of `i` (input 0 is the
//! least significant index bit) — the same layout as
//! [`turbosyn_bdd::Manager::from_truth_table`], so conversion is free.

use std::fmt;

/// Maximum supported input count.
pub const MAX_VARS: u8 = 16;

/// A complete truth table over `nvars <= 16` ordered inputs.
///
/// # Example
///
/// ```
/// use turbosyn_netlist::tt::TruthTable;
///
/// let a = TruthTable::lit(2, 0);
/// let b = TruthTable::lit(2, 1);
/// let f = a.and(&b);
/// assert!(f.eval(0b11));
/// assert!(!f.eval(0b01));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    nvars: u8,
    bits: Vec<u64>,
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars:", self.nvars)?;
        for w in self.bits.iter().rev() {
            write!(f, " {w:016x}")?;
        }
        write!(f, ")")
    }
}

fn words_for(nvars: u8) -> usize {
    (1usize << nvars).div_ceil(64).max(1)
}

/// Mask selecting the valid bits of the last word for small tables.
fn tail_mask(nvars: u8) -> u64 {
    if nvars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << nvars)) - 1
    }
}

/// Bit positions within a word where input `v < 6` is 1.
const LIT_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl TruthTable {
    /// The constant function `value` over `nvars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 16`.
    pub fn constant(nvars: u8, value: bool) -> Self {
        assert!(nvars <= MAX_VARS, "at most {MAX_VARS} inputs supported");
        let fill = if value { tail_mask(nvars) } else { 0 };
        let mut bits = vec![if value { u64::MAX } else { 0 }; words_for(nvars)];
        *bits.last_mut().expect("non-empty") = fill;
        TruthTable { nvars, bits }
    }

    /// The projection of input `var` over `nvars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars` or `nvars > 16`.
    pub fn lit(nvars: u8, var: u8) -> Self {
        assert!(var < nvars, "literal {var} out of range for {nvars} inputs");
        let mut t = TruthTable::constant(nvars, false);
        for (w, word) in t.bits.iter_mut().enumerate() {
            *word = if var < 6 {
                LIT_MASKS[var as usize] & tail_mask(nvars)
            } else if (w >> (var - 6)) & 1 == 1 {
                u64::MAX
            } else {
                0
            };
        }
        t
    }

    /// Builds from raw bits (low table bits in `bits[0]`'s low bits).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is too short for `2^nvars` entries or `nvars > 16`.
    pub fn from_bits(nvars: u8, bits: &[u64]) -> Self {
        assert!(nvars <= MAX_VARS, "at most {MAX_VARS} inputs supported");
        let w = words_for(nvars);
        assert!(bits.len() >= w, "truth table bits too short");
        let mut bits = bits[..w].to_vec();
        *bits.last_mut().expect("non-empty") &= tail_mask(nvars);
        TruthTable { nvars, bits }
    }

    /// Builds an `nvars`-input table from a predicate on assignments.
    pub fn from_fn(nvars: u8, f: impl Fn(u32) -> bool) -> Self {
        let mut t = TruthTable::constant(nvars, false);
        for i in 0..(1u32 << nvars) {
            if f(i) {
                t.bits[(i / 64) as usize] |= 1 << (i % 64);
            }
        }
        t
    }

    /// Number of inputs.
    pub fn nvars(&self) -> u8 {
        self.nvars
    }

    /// Raw table words.
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Value at assignment `input` (bit `v` of `input` = value of input `v`).
    ///
    /// # Panics
    ///
    /// Panics if `input >= 2^nvars`.
    pub fn eval(&self, input: u32) -> bool {
        assert!(
            (input as usize) < (1usize << self.nvars),
            "assignment out of range"
        );
        (self.bits[(input / 64) as usize] >> (input % 64)) & 1 == 1
    }

    /// Evaluates with a slice of input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != nvars`.
    pub fn eval_slice(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.nvars as usize, "input arity mismatch");
        let mut idx = 0u32;
        for (v, &b) in inputs.iter().enumerate() {
            idx |= u32::from(b) << v;
        }
        self.eval(idx)
    }

    /// True if the function is constant (does not depend on any input).
    pub fn is_constant(&self) -> Option<bool> {
        let zero = TruthTable::constant(self.nvars, false);
        if *self == zero {
            return Some(false);
        }
        let one = TruthTable::constant(self.nvars, true);
        (*self == one).then_some(true)
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.nvars, other.nvars, "arity mismatch");
        let bits: Vec<u64> = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut t = TruthTable {
            nvars: self.nvars,
            bits,
        };
        *t.bits.last_mut().expect("non-empty") &= tail_mask(self.nvars);
        t
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    /// Complement.
    pub fn not(&self) -> Self {
        let bits: Vec<u64> = self.bits.iter().map(|&a| !a).collect();
        let mut t = TruthTable {
            nvars: self.nvars,
            bits,
        };
        *t.bits.last_mut().expect("non-empty") &= tail_mask(self.nvars);
        t
    }

    /// Cofactor with input `var` fixed to `val`; the result keeps the same
    /// arity (the fixed input becomes irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    pub fn cofactor(&self, var: u8, val: bool) -> Self {
        assert!(var < self.nvars, "cofactor variable out of range");
        TruthTable::from_fn(self.nvars, |i| {
            let fixed = if val { i | (1 << var) } else { i & !(1 << var) };
            self.eval(fixed)
        })
    }

    /// Whether the function depends on input `var` (its two cofactors
    /// differ), compared word-parallel.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars`.
    pub fn depends_on(&self, var: u8) -> bool {
        assert!(var < self.nvars, "input {var} out of range");
        if var < 6 {
            let shift = 1 << var;
            let low = !LIT_MASKS[var as usize];
            self.bits.iter().any(|&w| (w ^ (w >> shift)) & low != 0)
        } else {
            let stride = 1usize << (var - 6);
            self.bits
                .chunks(2 * stride)
                .any(|pair| pair[..stride] != pair[stride..])
        }
    }

    /// Inputs the function actually depends on, ascending.
    pub fn support(&self) -> Vec<u8> {
        (0..self.nvars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Exchanges inputs `a` and `b` in place: the result at an assignment
    /// is `self` at that assignment with the values of `a` and `b`
    /// swapped. Word-parallel, so reordering a table's inputs costs a few
    /// passes over its words.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is `>= nvars`.
    pub fn swap_inputs(&mut self, a: u8, b: u8) {
        assert!(a < self.nvars && b < self.nvars, "input out of range");
        let (i, j) = (a.min(b), a.max(b));
        if i == j {
            return;
        }
        if j < 6 {
            // Both inside a word: positions with i = 1, j = 0 trade places
            // with their partners `shift` higher (i = 0, j = 1).
            let shift = (1 << j) - (1 << i);
            let m = LIT_MASKS[i as usize] & !LIT_MASKS[j as usize];
            for w in &mut self.bits {
                *w = (*w & !(m | (m << shift))) | ((*w & m) << shift) | ((*w >> shift) & m);
            }
        } else if i < 6 {
            // `j` selects a word of each pair, `i` a bit within it.
            let (shift, m) = (1 << i, LIT_MASKS[i as usize]);
            let stride = 1usize << (j - 6);
            for pair in self.bits.chunks_mut(2 * stride) {
                let (lo, hi) = pair.split_at_mut(stride);
                for (w0, w1) in lo.iter_mut().zip(hi) {
                    let (a0, a1) = (*w0, *w1);
                    *w0 = (a0 & !m) | ((a1 << shift) & m);
                    *w1 = (a1 & m) | ((a0 >> shift) & !m);
                }
            }
        } else {
            // Both select words: swap whole words.
            let (si, sj) = (1usize << (i - 6), 1usize << (j - 6));
            for w in 0..self.bits.len() {
                if w & si != 0 && w & sj == 0 {
                    self.bits.swap(w, w - si + sj);
                }
            }
        }
    }

    /// Reexpresses the function over the input subset `keep` (which must
    /// contain the support): input `j` of the result is input `keep[j]` of
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics if `keep` omits a support input or lists one twice.
    pub fn project(&self, keep: &[u8]) -> Self {
        let support = self.support();
        for s in &support {
            assert!(keep.contains(s), "projection drops support input {s}");
        }
        {
            let mut k = keep.to_vec();
            k.sort_unstable();
            k.dedup();
            assert_eq!(k.len(), keep.len(), "duplicate input in projection");
        }
        TruthTable::from_fn(keep.len() as u8, |i| {
            let mut idx = 0u32;
            for (j, &orig) in keep.iter().enumerate() {
                idx |= ((i >> j) & 1) << orig;
            }
            self.eval(idx)
        })
    }

    /// Permutes/expands inputs: input `j` of `self` becomes input
    /// `map[j]` of the result, which has `new_nvars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `map.len() != nvars`, any target is `>= new_nvars`, or two
    /// inputs map to the same target.
    pub fn remap(&self, new_nvars: u8, map: &[u8]) -> Self {
        assert_eq!(map.len(), self.nvars as usize, "remap table arity mismatch");
        assert!(
            map.iter().all(|&t| t < new_nvars),
            "remap target out of range"
        );
        {
            let mut m = map.to_vec();
            m.sort_unstable();
            m.dedup();
            assert_eq!(m.len(), map.len(), "remap targets collide");
        }
        TruthTable::from_fn(new_nvars, |i| {
            let mut idx = 0u32;
            for (j, &t) in map.iter().enumerate() {
                idx |= ((i >> t) & 1) << j;
            }
            self.eval(idx)
        })
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Column multiplicity of the bound set `bound` (distinct cofactor
    /// patterns over the remaining inputs). Exact; used to cross-check the
    /// BDD-based computation.
    ///
    /// # Panics
    ///
    /// Panics if `bound` has out-of-range or duplicate entries.
    pub fn column_multiplicity(&self, bound: &[u8]) -> usize {
        assert!(
            bound.iter().all(|&v| v < self.nvars),
            "bound input out of range"
        );
        let free: Vec<u8> = (0..self.nvars).filter(|v| !bound.contains(v)).collect();
        assert_eq!(
            free.len() + bound.len(),
            self.nvars as usize,
            "duplicate bound input"
        );
        let mut cols = std::collections::HashSet::new();
        for b in 0..(1u32 << bound.len()) {
            let mut col = Vec::with_capacity(1 << free.len());
            for fr in 0..(1u32 << free.len()) {
                let mut idx = 0u32;
                for (j, &bv) in bound.iter().enumerate() {
                    idx |= ((b >> j) & 1) << bv;
                }
                for (j, &fv) in free.iter().enumerate() {
                    idx |= ((fr >> j) & 1) << fv;
                }
                col.push(self.eval(idx));
            }
            cols.insert(col);
        }
        cols.len()
    }

    /// Common two-input helpers used by the generators.
    pub fn and2() -> Self {
        TruthTable::from_bits(2, &[0b1000])
    }

    /// Two-input OR.
    pub fn or2() -> Self {
        TruthTable::from_bits(2, &[0b1110])
    }

    /// Two-input XOR.
    pub fn xor2() -> Self {
        TruthTable::from_bits(2, &[0b0110])
    }

    /// Two-input NAND.
    pub fn nand2() -> Self {
        TruthTable::from_bits(2, &[0b0111])
    }

    /// One-input inverter.
    pub fn inv() -> Self {
        TruthTable::from_bits(1, &[0b01])
    }

    /// One-input buffer.
    pub fn buf() -> Self {
        TruthTable::from_bits(1, &[0b10])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let z = TruthTable::constant(3, false);
        let o = TruthTable::constant(3, true);
        assert_eq!(z.is_constant(), Some(false));
        assert_eq!(o.is_constant(), Some(true));
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 8);
        assert_ne!(z, o);
    }

    #[test]
    fn literals_and_gates() {
        let a = TruthTable::lit(2, 0);
        let b = TruthTable::lit(2, 1);
        assert_eq!(a.and(&b), TruthTable::and2());
        assert_eq!(a.or(&b), TruthTable::or2());
        assert_eq!(a.xor(&b), TruthTable::xor2());
        assert_eq!(a.and(&b).not(), TruthTable::nand2());
        assert_eq!(TruthTable::lit(1, 0).not(), TruthTable::inv());
        assert_eq!(TruthTable::lit(1, 0), TruthTable::buf());
    }

    #[test]
    fn eval_slice_matches_eval() {
        let f = TruthTable::from_fn(3, |i| i.count_ones() >= 2);
        for i in 0..8u32 {
            let slice = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            assert_eq!(f.eval_slice(&slice), f.eval(i));
        }
    }

    #[test]
    fn cofactor_and_support() {
        let f = {
            // f = x0 & x2 (x1 irrelevant)
            let a = TruthTable::lit(3, 0);
            let c = TruthTable::lit(3, 2);
            a.and(&c)
        };
        assert_eq!(f.support(), vec![0, 2]);
        assert_eq!(f.cofactor(0, true).support(), vec![2]);
        assert_eq!(f.cofactor(0, false).is_constant(), Some(false));
    }

    #[test]
    fn project_drops_dummies() {
        let a = TruthTable::lit(3, 0);
        let c = TruthTable::lit(3, 2);
        let f = a.and(&c);
        let p = f.project(&[0, 2]);
        assert_eq!(p.nvars(), 2);
        assert_eq!(p, TruthTable::and2());
    }

    #[test]
    #[should_panic(expected = "drops support")]
    fn project_refuses_to_drop_support() {
        let f = TruthTable::lit(2, 1);
        let _ = f.project(&[0]);
    }

    #[test]
    fn remap_moves_inputs() {
        let f = TruthTable::and2(); // x0 & x1
        let g = f.remap(3, &[2, 0]); // x2 & x0 over 3 vars
        assert_eq!(g.support(), vec![0, 2]);
        for i in 0..8u32 {
            let expect = ((i >> 2) & 1 == 1) && (i & 1 == 1);
            assert_eq!(g.eval(i), expect);
        }
    }

    #[test]
    fn multiword_tables() {
        // 7-input parity = 128 bits = 2 words.
        let f = TruthTable::from_fn(7, |i| i.count_ones() % 2 == 1);
        assert_eq!(f.bits().len(), 2);
        assert_eq!(f.count_ones(), 64);
        assert_eq!(f.support().len(), 7);
        let g = f.cofactor(6, false);
        assert_eq!(g.support().len(), 6);
    }

    #[test]
    fn column_multiplicity_examples() {
        // (x0&x1)|x2 : bound {0,1} has μ=2.
        let a = TruthTable::lit(3, 0);
        let b = TruthTable::lit(3, 1);
        let c = TruthTable::lit(3, 2);
        let f = a.and(&b).or(&c);
        assert_eq!(f.column_multiplicity(&[0, 1]), 2);
        // majority: bound {0,1} has μ=3.
        let maj = TruthTable::from_fn(3, |i| i.count_ones() >= 2);
        assert_eq!(maj.column_multiplicity(&[0, 1]), 3);
        // parity: every bound has μ=2.
        let par = TruthTable::from_fn(4, |i| i.count_ones() % 2 == 1);
        assert_eq!(par.column_multiplicity(&[0, 1, 2]), 2);
    }

    /// The word-parallel `swap_inputs`, `depends_on` and `lit` agree with
    /// their per-minterm definitions on every input pair, inside a word,
    /// across words, and between them.
    #[test]
    fn word_parallel_ops_match_per_minterm_definitions() {
        let mut rng = turbosyn_graph::rng::StdRng::seed_from_u64(11);
        for nvars in [3u8, 6, 8] {
            let raw: Vec<u64> = (0..4).map(|_| rng.random()).collect();
            // Pin input 1 to irrelevance so `depends_on` sees both answers.
            let f = TruthTable::from_bits(nvars, &raw);
            let f = f.cofactor(1, false);
            for v in 0..nvars {
                assert_eq!(f.depends_on(v), f.cofactor(v, false) != f.cofactor(v, true));
                let lit = TruthTable::from_fn(nvars, |i| (i >> v) & 1 == 1);
                assert_eq!(TruthTable::lit(nvars, v), lit);
            }
            for a in 0..nvars {
                for b in 0..nvars {
                    let mut swapped = f.clone();
                    swapped.swap_inputs(a, b);
                    let map: Vec<u8> = (0..nvars)
                        .map(|j| {
                            if j == a {
                                b
                            } else if j == b {
                                a
                            } else {
                                j
                            }
                        })
                        .collect();
                    assert_eq!(swapped, f.remap(nvars, &map), "swap {a} {b} of {nvars}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_bdd_package() {
        let mut rng = turbosyn_graph::rng::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let raw: u64 = rng.random();
            let tt = TruthTable::from_bits(5, &[raw]);
            let mut m = turbosyn_bdd::Manager::new();
            let f = m.from_truth_table(5, tt.bits()).expect("5 vars fits");
            assert_eq!(
                m.to_truth_table(f, 5).expect("5 vars fits")[0],
                tt.bits()[0]
            );
            // Column multiplicity agreement.
            let mu_tt = tt.column_multiplicity(&[0, 1]);
            let mu_bdd = turbosyn_bdd::decompose::column_multiplicity(&mut m, f, &[0, 1]);
            assert_eq!(mu_tt, mu_bdd);
            // Support agreement.
            let sup_tt: Vec<u32> = tt.support().iter().map(|&v| v as u32).collect();
            assert_eq!(sup_tt, m.support(f));
        }
    }

    #[test]
    fn zero_input_tables() {
        let t = TruthTable::constant(0, true);
        assert!(t.eval(0));
        assert_eq!(t.is_constant(), Some(true));
        assert!(t.support().is_empty());
    }
}
