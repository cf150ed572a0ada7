//! Randomized (seeded, deterministic) tests for the mapping core:
//! expansion invariants, label monotonicity, and realization correctness
//! on random circuits.

use turbosyn::expand::{ExpandLimits, Expansion};
use turbosyn::label::{compute_labels, LabelOptions};
use turbosyn_graph::rng::StdRng;
use turbosyn_netlist::gen;
use turbosyn_netlist::NodeKind;

fn unit_labels(c: &turbosyn_netlist::Circuit) -> Vec<i64> {
    c.node_ids()
        .map(|id| i64::from(matches!(c.node(id).kind, NodeKind::Gate(_))))
        .collect()
}

/// Expansion invariants on random FSM circuits: the root is inside,
/// must-inside nodes are expanded gates, every expanded node's fanins
/// are materialized, and no (orig, weight) pair repeats.
#[test]
fn expansion_invariants() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for _ in 0..16 {
        let seed = rng.random_range(0u64..1000);
        let height = rng.random_range(1i64..3);
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 2,
            inputs: 3,
            outputs: 1,
            depth: 3,
            seed,
        });
        let labels = unit_labels(&c);
        let root = c.gates().next().expect("has gates").index();
        let Ok(exp) = Expansion::build(&c, root, 1, &labels, height, ExpandLimits::default())
        else {
            continue; // PiMustBeInside: legitimately no cut
        };
        assert!(exp.must_inside[0], "root is always inside");
        let mut seen = std::collections::HashSet::new();
        for (i, n) in exp.nodes.iter().enumerate() {
            assert!(seen.insert((n.orig, n.weight)), "duplicate replica");
            if exp.must_inside[i] {
                assert!(exp.expanded[i], "must-inside node not expanded");
            }
            if exp.expanded[i] {
                assert!(
                    !exp.fanins(i).is_empty()
                        || c.node(turbosyn_netlist::NodeId::from_index(n.orig))
                            .fanins
                            .is_empty()
                );
            }
        }
    }
}

/// Cuts returned by min_cut never contain must-inside nodes and have
/// height within the requested bound.
#[test]
fn cuts_respect_height() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    for _ in 0..16 {
        let seed = rng.random_range(0u64..1000);
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 2,
            inputs: 3,
            outputs: 1,
            depth: 3,
            seed,
        });
        let labels = unit_labels(&c);
        let root = c.gates().next().expect("has gates").index();
        let height = 2;
        let Ok(exp) = Expansion::build(&c, root, 1, &labels, height, ExpandLimits::default())
        else {
            continue;
        };
        if let Some(cut) = exp.min_cut(15) {
            for &xi in &cut {
                assert!(!exp.must_inside[xi], "cut through must-inside node");
            }
            assert!(exp.cut_height(&cut, 1, &labels) <= height);
            // The cone function is well defined (the cut separates).
            let tt = exp.cone_tt(&c, &cut);
            assert_eq!(tt.nvars() as usize, cut.len());
        }
    }
}

/// Feasibility is monotone in φ, and labels at a feasible φ are bounded
/// by the labels at any smaller feasible φ (larger φ can only lower
/// labels). We check monotone feasibility and basic label sanity (PIs 0,
/// gates >= 1).
#[test]
fn phi_monotonicity() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    for _ in 0..16 {
        let seed = rng.random_range(0u64..500);
        let c = gen::fsm(gen::FsmConfig {
            state_bits: 2,
            inputs: 3,
            outputs: 1,
            depth: 3,
            seed,
        });
        let mut prev_feasible = false;
        let mut prev_labels: Option<Vec<i64>> = None;
        for phi in 1..=5 {
            let out = compute_labels(&c, &LabelOptions::turbomap(5, phi));
            assert!(!prev_feasible || out.is_feasible(), "monotone in phi");
            if let turbosyn::LabelOutcome::Feasible { labels, .. } = &out {
                for id in c.node_ids() {
                    match c.node(id).kind {
                        NodeKind::Input => assert_eq!(labels[id.index()], 0),
                        NodeKind::Gate(_) => assert!(labels[id.index()] >= 1),
                        NodeKind::Output => {}
                    }
                }
                if let Some(prev) = &prev_labels {
                    for (a, b) in prev.iter().zip(labels) {
                        assert!(b <= a, "labels must not grow with phi");
                    }
                }
                prev_labels = Some(labels.clone());
            }
            prev_feasible = prev_feasible || out.is_feasible();
        }
    }
}
