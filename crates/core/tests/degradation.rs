//! Graceful-degradation contract: when a resource budget trips mid-run,
//! the mapper still returns a *verified* mapping at the lowest φ it could
//! prove feasible, and says so through [`MapReport::degradation`].

use std::time::Duration;
use turbosyn::{
    turbomap, turbosyn, verify_mapping, Budget, CancelToken, DegradeEvent, MapOptions,
    SynthesisError,
};
use turbosyn_netlist::gen;

#[test]
fn sweep_cap_degrades_but_stays_verified() {
    let c = gen::figure1();

    // Unbudgeted, resynthesis reaches the paper's φ = 1.
    let free = turbosyn(&c, &MapOptions::default()).expect("maps unbudgeted");
    assert_eq!(free.phi, 1);
    assert!(free.degradation.is_none());

    // A two-sweep cap truncates every probe that needs more sweeps (the
    // TurboMap prepass's φ = 1 probe does) and treats it as infeasible;
    // one sweep would leave no probe converging at all.
    let opts = MapOptions {
        budget: Budget::default().with_max_sweeps(2),
        ..MapOptions::default()
    };
    let capped = turbosyn(&c, &opts).expect("still maps under the cap");
    assert!(capped.phi >= free.phi, "degradation never improves φ");

    let d = capped
        .degradation
        .as_ref()
        .expect("degradation is reported");
    assert_eq!(d.phi_achieved, capped.phi);
    assert!(
        d.events
            .iter()
            .any(|e| matches!(e, DegradeEvent::SweepCap { .. })),
        "events: {:?}",
        d.events
    );

    // The degraded mapping is still a real mapping: verified per-LUT.
    verify_mapping(&c, &capped.mapped, 5, capped.phi, 48).expect("degraded mapping verifies");
}

#[test]
fn pre_cancelled_token_fails_promptly() {
    let token = CancelToken::new();
    token.cancel();
    let opts = MapOptions {
        budget: Budget::default().with_cancel(token),
        ..MapOptions::default()
    };
    let c = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 3,
        outputs: 2,
        depth: 4,
        seed: 77,
    });
    let start = std::time::Instant::now();
    let err = turbosyn(&c, &opts).expect_err("cancelled before any work");
    assert!(matches!(err, SynthesisError::Cancelled), "got {err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "cancellation must short-circuit, not finish the run"
    );
}

#[test]
fn zero_deadline_is_budget_exceeded() {
    let opts = MapOptions {
        budget: Budget::default().with_deadline(Duration::ZERO),
        ..MapOptions::default()
    };
    let err = turbomap(&gen::figure1(), &opts).expect_err("expired before the first probe");
    assert!(
        matches!(err, SynthesisError::BudgetExceeded { .. }),
        "got {err}"
    );
}

#[test]
fn generous_budget_changes_nothing() {
    // A budget that never trips must be decision-identical to no budget:
    // same φ, same LUT count, no degradation report.
    let c = gen::fsm(gen::FsmConfig {
        state_bits: 3,
        inputs: 2,
        outputs: 2,
        depth: 3,
        seed: 9,
    });
    let free = turbosyn(&c, &MapOptions::default()).expect("maps");
    let opts = MapOptions {
        budget: Budget::default()
            .with_deadline(Duration::from_secs(600))
            .with_max_work(u64::MAX)
            .with_max_sweeps(u64::MAX)
            .with_cancel(CancelToken::new()),
        ..MapOptions::default()
    };
    let governed = turbosyn(&c, &opts).expect("maps governed");
    assert_eq!(governed.phi, free.phi);
    assert_eq!(governed.lut_count, free.lut_count);
    assert!(governed.degradation.is_none());
}

#[test]
fn tiny_work_budget_keeps_best_verified_mapping_or_fails_typed() {
    // A small expanded-node work budget may cut the binary search short.
    // Contract: either a typed BudgetExceeded error (no mapping proven
    // yet) or a verified mapping with a degradation report — never a
    // panic, never an unverified result.
    let c = gen::fsm(gen::FsmConfig {
        state_bits: 4,
        inputs: 3,
        outputs: 3,
        depth: 4,
        seed: 5,
    });
    let opts = MapOptions {
        budget: Budget::default().with_max_work(2_000),
        ..MapOptions::default()
    };
    match turbosyn(&c, &opts) {
        Ok(report) => {
            verify_mapping(&c, &report.mapped, 5, report.phi, 48).expect("mapping verifies");
            if let Some(d) = &report.degradation {
                assert_eq!(d.phi_achieved, report.phi);
                assert!(!d.events.is_empty());
            }
        }
        Err(e) => assert!(
            matches!(e, SynthesisError::BudgetExceeded { .. }),
            "got {e}"
        ),
    }
}
