//! Benchmarks of the algorithmic kernels: label computation (PLD vs n²
//! on an infeasible probe), one TurboSYN probe dominated by the
//! resynthesis descent, the exact MDR ratio, min-period retiming, BDD
//! functional decomposition, and decoding a service map frame.
//!
//! Hermetic harness (no criterion): each kernel runs a warmup pass and
//! then a fixed number of timed iterations; the median per-iteration
//! time is printed. Run with `cargo bench -p turbosyn-bench`.

use std::hint::black_box;
use std::time::Instant;
use turbosyn::label::{compute_labels, LabelOptions};
use turbosyn::StopRule;
use turbosyn_bdd::decompose::{column_multiplicity, decompose};
use turbosyn_bdd::Manager;
use turbosyn_graph::cycle_ratio::max_cycle_ratio;
use turbosyn_json::Json;
use turbosyn_netlist::kbound::decompose_to_k;
use turbosyn_netlist::{blif, gen};
use turbosyn_retime::{min_period_retiming, retime_with_pipelining};

/// Times `f` over `iters` iterations (after one warmup) and prints the
/// median per-iteration time.
fn bench(name: &str, iters: usize, mut f: impl FnMut()) {
    f(); // warmup
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        times.push(t.elapsed());
    }
    times.sort();
    let median = times[times.len() / 2];
    println!("{name:<40} {:>12.3?} /iter  ({iters} iters)", median);
}

fn bench_labels() {
    let c = gen::fsm(gen::FsmConfig {
        state_bits: 4,
        inputs: 6,
        outputs: 4,
        depth: 8,
        seed: 55,
    });
    // Find the minimum feasible phi, then benchmark the infeasible probe.
    let mut phi = 1;
    while !compute_labels(&c, &LabelOptions::turbomap(5, phi)).is_feasible() {
        phi += 1;
    }
    let probe = (phi - 1).max(1);
    let pld = LabelOptions {
        stop: StopRule::Pld,
        ..LabelOptions::turbomap(5, probe)
    };
    bench("labels_infeasible_probe/pld", 10, || {
        black_box(compute_labels(black_box(&c), &pld));
    });
    let n2 = LabelOptions {
        stop: StopRule::NSquared,
        ..LabelOptions::turbomap(5, probe)
    };
    bench("labels_infeasible_probe/n_squared", 10, || {
        black_box(compute_labels(black_box(&c), &n2));
    });
    let tm = LabelOptions::turbomap(5, phi);
    bench("labels_infeasible_probe/feasible_turbomap", 10, || {
        black_box(compute_labels(black_box(&c), &tm));
    });
    let ts = LabelOptions::turbosyn(5, phi);
    bench("labels_infeasible_probe/feasible_turbosyn", 10, || {
        black_box(compute_labels(black_box(&c), &ts));
    });
}

/// One cold TurboSYN probe on cse at K = 5, at the largest infeasible φ
/// (the probe of the binary search that does most of the descent's
/// work: min-cuts below `L(v)` and sequential decomposition). Prints
/// the probe's descent counters too.
fn bench_descent() {
    let cse = gen::suite()
        .into_iter()
        .find(|b| b.name == "cse")
        .expect("suite row");
    let c = if cse.circuit.is_k_bounded(5) {
        cse.circuit
    } else {
        decompose_to_k(&cse.circuit, 5)
    };
    let mut phi = 1;
    while !compute_labels(&c, &LabelOptions::turbosyn(5, phi)).is_feasible() {
        phi += 1;
    }
    let opts = LabelOptions::turbosyn(5, (phi - 1).max(1));
    bench("descent/cse_k5", 10, || {
        black_box(compute_labels(black_box(&c), &opts));
    });
    let stats = compute_labels(&c, &opts).stats();
    println!(
        "descent/cse_k5: phi {}, {} resynthesis attempts, {} min-cuts below L(v), \
         {} augmenting paths",
        opts.phi, stats.resyn_attempts, stats.descent_cuts, stats.descent_augmentations
    );
}

fn bench_mdr() {
    let c = gen::iscas_like(gen::IscasConfig {
        layers: 10,
        width: 100,
        inputs: 16,
        outputs: 16,
        feedback_pct: 10,
        seed: 9,
    });
    let g = c.to_digraph();
    let d = c.delays();
    bench("mdr_exact_1000_gates", 20, || {
        black_box(max_cycle_ratio(black_box(&g), black_box(&d)).expect("cyclic"));
    });
}

fn bench_retiming() {
    let c = gen::ring(64, 16);
    bench("retiming/min_period_ring64", 20, || {
        black_box(min_period_retiming(black_box(&c)));
    });
    bench("retiming/pipeline_ring64", 20, || {
        black_box(retime_with_pipelining(black_box(&c)));
    });
    let fsm = gen::fsm(gen::FsmConfig {
        state_bits: 4,
        inputs: 4,
        outputs: 3,
        depth: 6,
        seed: 77,
    });
    let period = min_period_retiming(&fsm).period;
    bench("retiming/wd_matrices_fsm", 20, || {
        black_box(turbosyn_retime::wd::WdMatrices::of(black_box(&fsm)));
    });
    bench("retiming/min_registers_fsm", 20, || {
        black_box(
            turbosyn_retime::min_register_retiming(black_box(&fsm), period).expect("feasible"),
        );
    });
}

fn bench_decomposition() {
    // A 12-input function with a decomposable 5-input bound set.
    bench("bdd_decompose/mu_and_extract_12in", 20, || {
        let mut m = Manager::new();
        let mut side = m.one();
        for v in 0..5 {
            let x = m.var(v);
            side = m.and(side, x);
        }
        let mut rest = m.zero();
        for v in 5..12 {
            let x = m.var(v);
            rest = m.xor(rest, x);
        }
        let f = m.xor(side, rest);
        let bound = [0u32, 1, 2, 3, 4];
        let mu = column_multiplicity(&mut m, f, &bound);
        assert_eq!(mu, 2);
        black_box(
            decompose(&mut m, f, &bound, 1, 20)
                .expect("valid arguments")
                .expect("decomposes"),
        );
    });
}

/// Decodes `turbosyn-serve` map frames whose inline BLIF is 16, 256
/// and 4096 KiB (s1423's BLIF repeated to size). Decode time should
/// grow linearly with the frame, i.e. ×16 per step.
fn bench_json_frames() {
    let s1423 = gen::suite()
        .into_iter()
        .find(|b| b.name == "s1423")
        .expect("suite row");
    let text = blif::write(&s1423.circuit);
    for kib in [16usize, 256, 4096] {
        let mut design = String::with_capacity(kib * 1024 + text.len());
        while design.len() < kib * 1024 {
            design.push_str(&text);
        }
        design.truncate(kib * 1024);
        let frame = Json::obj(vec![
            ("type", Json::from("map")),
            ("id", Json::from("r1")),
            ("blif", Json::from(design)),
            ("k", Json::from(5u64)),
        ])
        .write();
        bench(&format!("json/parse_map_frame/{kib}KiB"), 10, || {
            black_box(Json::parse(black_box(&frame)).expect("valid frame"));
        });
    }
}

fn main() {
    bench_labels();
    bench_descent();
    bench_mdr();
    bench_retiming();
    bench_decomposition();
    bench_json_frames();
}
