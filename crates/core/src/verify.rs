//! End-to-end verification of mapping results.
//!
//! Mapping with retiming repositions registers, so — exactly as in the
//! classical retiming literature — the mapped circuit is equivalent to
//! the original **for an appropriately chosen register initialization**,
//! not necessarily from the all-zero state. Output-to-output
//! co-simulation from zero is therefore the wrong oracle for cyclic
//! circuits. The authoritative check used here is *trace-grounded and
//! per-LUT*: simulate only the **original** circuit, and demand that
//! every mapped LUT rooted at an original gate `v` reproduces `v`'s
//! signal when its inputs are read from the original trace at their
//! declared register offsets:
//!
//! ```text
//!     v(t)  ==  tt_LUT( src_1(t − w_1), …, src_K(t − w_K) )
//! ```
//!
//! for every cycle `t` past the register-initialization shadow.
//! Resynthesis LUTs (`…__syn…` nodes) have no original counterpart and
//! are evaluated functionally from the trace. This catches wrong cone
//! functions, wrong decompositions and wrong register counts, while
//! being immune to the legal initial-state shift.

use std::collections::HashMap;
use turbosyn_netlist::sim::{random_stimulus, trace};
use turbosyn_netlist::{Circuit, NodeId, NodeKind};
use turbosyn_retime::mdr_ratio;

/// A failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The mapped circuit fails structural validation.
    Invalid(String),
    /// Some LUT exceeds K inputs.
    NotKBounded {
        /// Largest LUT input count found.
        max_fanin: usize,
    },
    /// The mapped circuit's MDR ratio exceeds the claimed φ.
    RatioExceeded {
        /// Claimed target.
        phi: i64,
        /// Measured ceil(MDR).
        measured: i64,
    },
    /// The circuits' primary interfaces differ.
    InterfaceMismatch,
    /// A mapped LUT's trace-grounded value differs from the original
    /// signal it claims to compute.
    NotEquivalent(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Invalid(s) => write!(f, "mapped circuit invalid: {s}"),
            VerifyError::NotKBounded { max_fanin } => {
                write!(f, "mapped circuit has a {max_fanin}-input LUT")
            }
            VerifyError::RatioExceeded { phi, measured } => {
                write!(f, "mapped MDR ratio {measured} exceeds target {phi}")
            }
            VerifyError::InterfaceMismatch => write!(f, "primary interface differs"),
            VerifyError::NotEquivalent(s) => write!(f, "behaviour differs: {s}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies `mapped` against the original circuit: structure, K-bound,
/// MDR `<= phi`, and the trace-grounded per-LUT signal check over
/// `cycles` random cycles (see the module docs).
///
/// Mapped nodes are matched to original signals **by name**: LUTs keep
/// the name of the gate they are rooted at, and `…__syn…` resynthesis
/// LUTs are internal.
///
/// # Errors
///
/// The first failed check, as a [`VerifyError`].
pub fn verify_mapping(
    orig: &Circuit,
    mapped: &Circuit,
    k: usize,
    phi: i64,
    cycles: usize,
) -> Result<(), VerifyError> {
    mapped
        .validate()
        .map_err(|e| VerifyError::Invalid(e.to_string()))?;
    orig.validate()
        .map_err(|e| VerifyError::Invalid(e.to_string()))?;
    if !mapped.is_k_bounded(k) {
        return Err(VerifyError::NotKBounded {
            max_fanin: mapped.max_fanin(),
        });
    }
    if let Ok(r) = mdr_ratio(mapped) {
        if r.ceil() > phi {
            return Err(VerifyError::RatioExceeded {
                phi,
                measured: r.ceil(),
            });
        }
    }

    // Interface: same PI/PO name sets, and each mapped PO must read the
    // signal of the same-named original PO's driver at the same offset
    // (checked through the per-LUT test on the driver + weight equality
    // by the naming convention; here we check the name sets).
    let names = |c: &Circuit, ids: &[NodeId]| -> std::collections::BTreeSet<String> {
        ids.iter().map(|&i| c.node(i).name.clone()).collect()
    };
    if names(orig, orig.inputs()) != names(mapped, mapped.inputs())
        || names(orig, orig.outputs()) != names(mapped, mapped.outputs())
    {
        return Err(VerifyError::InterfaceMismatch);
    }

    // --- Trace-grounded per-LUT check --------------------------------
    let cycles = cycles.max(24);
    let stim = random_stimulus(orig, cycles, 0xDEAD_BEEF);
    let tr = trace(orig, &stim);

    // Map every mapped node to its original counterpart by name (PIs and
    // rooted LUTs); syn nodes get None. A name names the first original
    // node that carries it, as `Circuit::find` does.
    let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(orig.node_count());
    for id in orig.node_ids() {
        by_name
            .entry(orig.node(id).name.as_str())
            .or_insert(id.index());
    }
    let orig_of: Vec<Option<usize>> = mapped
        .node_ids()
        .map(|id| by_name.get(mapped.node(id).name.as_str()).copied())
        .collect();

    // Initialization shadow: largest fanin register count in the mapped
    // circuit bounds every cone's interior path weight.
    let shadow = mapped
        .node_ids()
        .flat_map(|id| mapped.node(id).fanins.iter().map(|f| f.weight as usize))
        .max()
        .unwrap_or(0)
        + 1;
    if cycles <= shadow + 8 {
        return Err(VerifyError::Invalid(format!(
            "verification needs more than {} cycles for this register depth",
            shadow + 8
        )));
    }

    // Ground-truth value of a mapped node at cycle t, computed from the
    // original trace (memoized). Named nodes read the original trace
    // directly; syn nodes evaluate functionally (their input chains reach
    // named nodes or PIs without cycles).
    struct Gt<'a> {
        mapped: &'a Circuit,
        orig_of: &'a [Option<usize>],
        tr: &'a [Vec<bool>],
        memo: HashMap<(usize, usize), bool>,
    }
    impl Gt<'_> {
        fn value(&mut self, node: usize, t: i64) -> bool {
            if t < 0 {
                return false;
            }
            let t = t as usize;
            if let Some(o) = self.orig_of[node] {
                return self.tr[t][o];
            }
            if let Some(&v) = self.memo.get(&(node, t)) {
                return v;
            }
            let n = self.mapped.node(NodeId::from_index(node));
            let NodeKind::Gate(tt) = &n.kind else {
                unreachable!("unnamed non-gate mapped node");
            };
            let mut idx = 0u32;
            // Clone fanins to appease the borrow checker (tiny vectors).
            let fanins = n.fanins.clone();
            for (i, f) in fanins.iter().enumerate() {
                let b = self.value(f.source.index(), t as i64 - i64::from(f.weight));
                idx |= u32::from(b) << i;
            }
            let v = tt.eval(idx);
            self.memo.insert((node, t), v);
            v
        }
    }
    let mut gt = Gt {
        mapped,
        orig_of: &orig_of,
        tr: &tr,
        memo: HashMap::new(),
    };

    for id in mapped.gates() {
        let Some(o) = orig_of[id.index()] else {
            continue; // syn node: checked transitively through its users
        };
        let n = mapped.node(id);
        let NodeKind::Gate(tt) = &n.kind else {
            unreachable!()
        };
        let fanins = n.fanins.clone();
        #[allow(clippy::needless_range_loop)] // t is a clock cycle indexing a trace
        for t in shadow..cycles {
            let mut idx = 0u32;
            for (i, f) in fanins.iter().enumerate() {
                let b = gt.value(f.source.index(), t as i64 - i64::from(f.weight));
                idx |= u32::from(b) << i;
            }
            if tt.eval(idx) != tr[t][o] {
                return Err(VerifyError::NotEquivalent(format!(
                    "LUT {:?} differs from original signal at cycle {t}",
                    n.name
                )));
            }
        }
    }

    // POs: same driver signal at the same offset.
    for &po in mapped.outputs() {
        let name = &mapped.node(po).name;
        let opo = by_name[name.as_str()];
        let of = orig.node(NodeId::from_index(opo)).fanins[0];
        let mf = mapped.node(po).fanins[0];
        for t in shadow..cycles {
            let want = if (t as i64) < i64::from(of.weight) {
                false
            } else {
                tr[t - of.weight as usize][of.source.index()]
            };
            let got = gt.value(mf.source.index(), t as i64 - i64::from(mf.weight));
            if want != got {
                return Err(VerifyError::NotEquivalent(format!(
                    "primary output {name:?} differs at cycle {t}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::gen;

    #[test]
    fn identity_mapping_verifies() {
        let c = gen::ring(4, 2);
        verify_mapping(&c, &c, 2, 2, 32).expect("identity is a valid mapping at phi=2");
    }

    #[test]
    fn ratio_violation_caught() {
        let c = gen::ring(4, 2);
        assert!(matches!(
            verify_mapping(&c, &c, 2, 1, 32),
            Err(VerifyError::RatioExceeded { .. })
        ));
    }

    #[test]
    fn k_violation_caught() {
        let c = gen::figure1(); // 4-input gates
        assert!(matches!(
            verify_mapping(&c, &c, 2, 10, 32),
            Err(VerifyError::NotKBounded { .. })
        ));
    }

    #[test]
    fn behaviour_violation_caught() {
        let a = gen::ring(4, 2);
        let mut b = gen::ring(4, 2);
        // Flip one gate function.
        let g = b.find("r1").expect("exists");
        let turbosyn_netlist::NodeKind::Gate(tt) = &b.node(g).kind else {
            panic!("r1 is a gate")
        };
        let flipped = tt.not();
        b.replace_gate_tt(g, flipped);
        assert!(matches!(
            verify_mapping(&a, &b, 2, 3, 64),
            Err(VerifyError::NotEquivalent(_))
        ));
    }

    #[test]
    fn wrong_register_count_caught() {
        let a = gen::ring(4, 2);
        let mut b = gen::ring(4, 2);
        // Add a register on one loop edge: signals shift in time.
        let g = b.find("r2").expect("exists");
        b.add_registers(g, 1, 1);
        assert!(matches!(
            verify_mapping(&a, &b, 2, 3, 64),
            Err(VerifyError::NotEquivalent(_))
        ));
    }

    #[test]
    fn interface_mismatch_caught() {
        let a = gen::ring(4, 2);
        let b = gen::ring(3, 2); // same interface names actually — rename
        let mut b2 = b.clone();
        let pi = b2.inputs()[0];
        b2.rename_node(pi, "other");
        assert!(matches!(
            verify_mapping(&a, &b2, 2, 3, 32),
            Err(VerifyError::InterfaceMismatch)
        ));
    }
}
