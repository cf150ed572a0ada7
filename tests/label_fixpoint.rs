//! Fixpoint-identity properties of the delta-driven label engine.
//!
//! The worklist rewrite promises *bit-identical* results, not merely
//! equivalent ones: skipping a quiescent candidate, parallelizing the
//! sweep, or replaying a probe an engine already settled must all end
//! at the exact same least fixpoint the legacy full-sweep engine
//! computes from the floor (see the monotone-iteration argument in
//! `crates/core/src/label.rs` and DESIGN.md). These tests pin that
//! contract on seeded generator circuits across K and `jobs`, pin that
//! a probe's outcome does not depend on the probes run before it, and pin
//! the canonical report JSON — the serve daemon byte-compares warm
//! responses against cold CLI output, so any drift here is a protocol
//! break, not just a perf bug.

use turbosyn::{
    compute_labels, report_to_json, Engine, LabelOptions, LabelOutcome, MapOptions, StopRule,
};
use turbosyn_netlist::gen;
use turbosyn_netlist::Circuit;

/// The seeded circuit set: the paper's Figure 1 loop, a register ring,
/// and two FSM-class circuits from different seeds.
fn circuits() -> Vec<(&'static str, Circuit)> {
    let fsm = |seed| {
        gen::fsm(gen::FsmConfig {
            state_bits: 3,
            inputs: 2,
            outputs: 1,
            depth: 2,
            seed,
        })
    };
    vec![
        ("figure1", gen::figure1()),
        ("ring", gen::ring(6, 2)),
        ("fsm5", fsm(5)),
        ("fsm11", fsm(11)),
    ]
}

/// Outcomes must agree structurally: same verdict, same labels (or the
/// same positive-loop SCC size).
fn assert_same_outcome(a: &LabelOutcome, b: &LabelOutcome, what: &str) {
    match (a, b) {
        (LabelOutcome::Feasible { labels: la, .. }, LabelOutcome::Feasible { labels: lb, .. }) => {
            assert_eq!(la, lb, "feasible labels differ: {what}")
        }
        (
            LabelOutcome::Infeasible { scc_size: sa, .. },
            LabelOutcome::Infeasible { scc_size: sb, .. },
        ) => assert_eq!(sa, sb, "infeasible SCC size differs: {what}"),
        _ => panic!("feasibility verdicts differ: {what}"),
    }
}

#[test]
fn worklist_labels_match_full_sweeps_across_k_and_jobs() {
    for (name, c) in circuits() {
        for k in [4usize, 6] {
            for resynthesis in [false, true] {
                for phi in 1..=3i64 {
                    let base = if resynthesis {
                        LabelOptions::turbosyn(k, phi)
                    } else {
                        LabelOptions::turbomap(k, phi)
                    };
                    let legacy = compute_labels(
                        &c,
                        &LabelOptions {
                            full_sweeps: true,
                            ..base
                        },
                    );
                    for jobs in [1usize, 4] {
                        let delta = compute_labels(&c, &LabelOptions { jobs, ..base });
                        assert_same_outcome(
                            &delta,
                            &legacy,
                            &format!("{name} k={k} resyn={resynthesis} phi={phi} jobs={jobs}"),
                        );
                        // The sweep count is path-invariant (raises per
                        // round are identical), unlike cut_tests.
                        assert_eq!(
                            delta.stats().sweeps,
                            legacy.stats().sweeps,
                            "sweep count must not depend on the engine: {name} phi={phi}"
                        );
                        assert_eq!(
                            legacy.stats().candidates_skipped,
                            0,
                            "the legacy path never skips"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn worklist_skips_engage_at_suite_scale() {
    // The toy circuits above pin the identity argument but never take
    // the skip path: their SCCs are fully coupled, so every pending
    // member sees a raised dependency each round. Suite circuits have
    // looser support structure — bbara is the smallest that skips —
    // which makes this the engagement check for the delta machinery.
    let suite = gen::suite();
    let b = suite
        .iter()
        .find(|b| b.name == "bbara")
        .expect("suite has bbara");
    let delta = turbosyn::turbosyn(&b.circuit, &MapOptions::default()).expect("maps");
    let legacy = turbosyn::turbosyn(
        &b.circuit,
        &MapOptions {
            full_sweeps: true,
            ..MapOptions::default()
        },
    )
    .expect("maps");
    assert_eq!(
        report_to_json(&delta).write(),
        report_to_json(&legacy).write(),
        "delta and legacy searches must emit identical reports"
    );
    assert!(
        delta.stats.candidates_skipped > 0,
        "the worklist never skipped a candidate on bbara — the delta machinery is not engaging"
    );
    assert_eq!(legacy.stats.candidates_skipped, 0);
    assert!(
        delta.stats.cut_tests < legacy.stats.cut_tests,
        "every skip is a cut test the legacy engine re-ran"
    );
}

#[test]
fn exact_phi_probes_replay_with_zero_sweeps() {
    // Re-probing an exact (key, stop, φ) the engine already settled —
    // feasible or infeasible — replays the stored verdict without a
    // single sweep. This is the contract the
    // serve daemon's resubmission path and the probe_ladder bench lean
    // on.
    for (name, c) in circuits() {
        let engine = Engine::new();
        for phi in [2i64, 1] {
            let opts = LabelOptions::turbosyn(4, phi);
            let first = engine.compute_labels(&c, &opts);
            let second = engine.compute_labels(&c, &opts);
            assert_same_outcome(&second, &first, &format!("{name} phi={phi} (replay)"));
            assert_eq!(
                second.stats().sweeps,
                0,
                "a replayed probe sweeps nothing: {name} phi={phi}"
            );
            assert_eq!(second.stats().cut_tests, 0);
            assert_eq!(second.stats().warm_started_probes, 1);
            let cold = compute_labels(
                &c,
                &LabelOptions {
                    full_sweeps: true,
                    ..opts
                },
            );
            assert_same_outcome(
                &second,
                &cold,
                &format!("{name} phi={phi} (replay vs cold)"),
            );
        }
    }
}

/// The seeded circuits plus suite rows whose TurboSYN labels are not
/// anti-monotone in φ: sand (whose φ = 3 verdict a warm start from
/// φ = 4 used to flip) and two fast FSM rows.
fn search_order_circuits() -> Vec<(&'static str, Circuit)> {
    let suite = gen::suite();
    let mut set = circuits();
    for row in ["sand", "bbara", "dk16"] {
        let b = suite.iter().find(|b| b.name == row).expect("suite row");
        set.push((row, b.circuit.clone()));
    }
    set
}

#[test]
fn probe_outcomes_do_not_depend_on_search_order() {
    // One engine walks the φ ladder downward, as the binary search in
    // `drive()` does after feasible probes, and then back up. Every
    // outcome must be the cold fixpoint of a fresh computation at that φ:
    // what the engine settled earlier may be replayed, never used as a
    // starting point.
    for (name, c) in search_order_circuits() {
        let c = if c.is_k_bounded(5) {
            c
        } else {
            turbosyn_netlist::kbound::decompose_to_k(&c, 5)
        };
        for resynthesis in [false, true] {
            let opts = |phi| {
                if resynthesis {
                    LabelOptions::turbosyn(5, phi)
                } else {
                    LabelOptions::turbomap(5, phi)
                }
            };
            let cold: Vec<LabelOutcome> = (1..=5i64)
                .map(|phi| compute_labels(&c, &opts(phi)))
                .collect();
            let engine = Engine::new();
            for phi in (1..=5i64).rev().chain(1..=5) {
                let got = engine.compute_labels(&c, &opts(phi));
                assert_same_outcome(
                    &got,
                    &cold[(phi - 1) as usize],
                    &format!("{name} resyn={resynthesis} phi={phi} (engine vs fresh)"),
                );
            }
            assert_eq!(
                engine.label_stats().warm_started_probes,
                5,
                "the upward walk replays every settled probe: {name} resyn={resynthesis}"
            );
        }
    }
}

#[test]
fn n_squared_stop_rule_agrees_with_worklist_too() {
    // The worklist skip logic interacts with the stopping rule only
    // through the per-round `changed` flag; the conservative n² rule
    // must see the identical convergence trace.
    for (name, c) in circuits() {
        for phi in 1..=2i64 {
            let base = LabelOptions {
                stop: StopRule::NSquared,
                ..LabelOptions::turbomap(4, phi)
            };
            let delta = compute_labels(&c, &base);
            let legacy = compute_labels(
                &c,
                &LabelOptions {
                    full_sweeps: true,
                    ..base
                },
            );
            assert_same_outcome(&delta, &legacy, &format!("{name} phi={phi} (n² rule)"));
        }
    }
}

#[test]
fn report_json_bytes_are_engine_invariant() {
    for (name, c) in circuits() {
        let variants = [
            MapOptions::default(),
            MapOptions {
                jobs: 4,
                ..MapOptions::default()
            },
            MapOptions {
                full_sweeps: true,
                ..MapOptions::default()
            },
        ];
        let reference = {
            let r = turbosyn::turbosyn(&c, &MapOptions::default()).expect("maps");
            report_to_json(&r).write()
        };
        for (i, opts) in variants.iter().enumerate() {
            let r = turbosyn::turbosyn(&c, opts).expect("maps");
            assert_eq!(
                report_to_json(&r).write(),
                reference,
                "report bytes drifted on {name}, variant {i}"
            );
        }
        // A warm engine (second run on the same circuit) must also emit
        // the reference bytes — this is the serve daemon's contract.
        let engine = Engine::new();
        for run in 0..2 {
            let r = engine.turbosyn(&c, &MapOptions::default()).expect("maps");
            assert_eq!(
                report_to_json(&r).write(),
                reference,
                "warm engine run {run} drifted on {name}"
            );
        }
    }
}
