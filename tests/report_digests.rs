//! Report bytes pinned on the fast `gen::suite()` rows: FNV-1a digests of
//! `report_to_json` for TurboSYN, TurboMap and FlowSYN-s at K = 4, 5 and
//! 6, plus `max_wires = 2` at K = 5 on two rows, plus TurboSYN runs under
//! work budgets that run out mid-search. Any change to a mapping decision
//! (a label, a decomposition, a LUT table) changes a digest; a change
//! that is meant to alter reports must update this table and say why.

use turbosyn::{flowsyn_s, report_to_json, turbomap, turbosyn, Budget, MapOptions};
use turbosyn_netlist::gen;

/// (suite row, algorithm, K, max_wires, digest of the report JSON).
const PINNED: &[(&str, &str, usize, usize, u64)] = &[
    ("bbara", "TurboSYN", 4, 1, 0xf18d0b5bb56d0365),
    ("bbara", "FlowSYN-s", 4, 1, 0x4e0d5f2cdf5f448d),
    ("bbara", "TurboSYN", 5, 1, 0xc1ccf071284f763c),
    ("bbara", "FlowSYN-s", 5, 1, 0xf20ab9c90d46f509),
    ("bbara", "TurboSYN", 6, 1, 0x9c53ec1690f68748),
    ("bbara", "FlowSYN-s", 6, 1, 0xc85c4575e2c22121),
    ("bbsse", "TurboSYN", 4, 1, 0x7c2768ff7f3ad0b3),
    ("bbsse", "FlowSYN-s", 4, 1, 0x718e655fef8e933c),
    ("bbsse", "TurboSYN", 5, 1, 0x9cf39dd6514602ae),
    ("bbsse", "FlowSYN-s", 5, 1, 0xe09b5859bdb1c4ea),
    ("bbsse", "TurboSYN", 6, 1, 0x07be9a9c02cc9ca0),
    ("bbsse", "FlowSYN-s", 6, 1, 0xb94428c68a65cbe0),
    ("cse", "TurboSYN", 4, 1, 0x8180e58050565a18),
    ("cse", "FlowSYN-s", 4, 1, 0x4dcd91a745c757b9),
    ("cse", "TurboSYN", 5, 1, 0xdeefc2573391b625),
    ("cse", "FlowSYN-s", 5, 1, 0x4173e3eb667e0c29),
    ("cse", "TurboSYN", 6, 1, 0xb62526cda1241686),
    ("cse", "FlowSYN-s", 6, 1, 0x1a41b84a79484ef8),
    ("cse", "TurboSYN", 5, 2, 0xa981cf93b0089bbf),
    ("cse", "FlowSYN-s", 5, 2, 0xb6a2b143503ccac4),
    ("dk16", "TurboSYN", 4, 1, 0x9bd47efe33535c9e),
    ("dk16", "FlowSYN-s", 4, 1, 0xc6ab7fb88128f69e),
    ("dk16", "TurboSYN", 5, 1, 0x7bfb2b4e52c4e615),
    ("dk16", "FlowSYN-s", 5, 1, 0x1caba4d215d186b9),
    ("dk16", "TurboSYN", 6, 1, 0xf64ff76b9a712b8b),
    ("dk16", "FlowSYN-s", 6, 1, 0x43880777f7a322a8),
    ("kirkman", "TurboSYN", 4, 1, 0x24378ba413c74b3d),
    ("kirkman", "FlowSYN-s", 4, 1, 0x9b28d80d7a516e2d),
    ("kirkman", "TurboSYN", 5, 1, 0x93243e753aee9968),
    ("kirkman", "FlowSYN-s", 5, 1, 0xe71de5bd2c0682b7),
    ("kirkman", "TurboSYN", 6, 1, 0x07ac2756645bd423),
    ("kirkman", "FlowSYN-s", 6, 1, 0x68b62c8f2ff2cb6b),
    ("s420", "TurboSYN", 4, 1, 0x32cea11da37cb0f5),
    ("s420", "FlowSYN-s", 4, 1, 0x01832eef8c69a346),
    ("s420", "TurboSYN", 5, 1, 0x48cebca3649e91bf),
    ("s420", "FlowSYN-s", 5, 1, 0x9a357e317e597e9f),
    ("s420", "TurboSYN", 6, 1, 0xeb4a0d74753fbea1),
    ("s420", "FlowSYN-s", 6, 1, 0xf71453017040a516),
    ("s838", "TurboSYN", 4, 1, 0x4ac37bd4a6e5b0f8),
    ("s838", "FlowSYN-s", 4, 1, 0x2c0f73771f63129a),
    ("s838", "TurboSYN", 5, 1, 0xf2e2d6888834b877),
    ("s838", "FlowSYN-s", 5, 1, 0x5b39df96e25325b0),
    ("s838", "TurboSYN", 6, 1, 0x35e78bc5854c5529),
    ("s838", "FlowSYN-s", 6, 1, 0xa2869e4c206e2466),
    ("s838", "TurboSYN", 5, 2, 0x61fc3d3fc71d6c6f),
    ("s838", "FlowSYN-s", 5, 2, 0x5b39df96e25325b0),
    ("bbara", "TurboMap", 4, 1, 0xaa08bb2ee0ebc3de),
    ("bbara", "TurboMap", 5, 1, 0x415b37352f4d0346),
    ("bbara", "TurboMap", 6, 1, 0xbc5df8ae71d89922),
    ("bbsse", "TurboMap", 4, 1, 0xedced814fcdda885),
    ("bbsse", "TurboMap", 5, 1, 0x9b1ba26ed7037f12),
    ("bbsse", "TurboMap", 6, 1, 0x97026cd9f91a84ea),
    ("cse", "TurboMap", 4, 1, 0x31079f70cef5778e),
    ("cse", "TurboMap", 5, 1, 0x0286a12f59b31bcf),
    ("cse", "TurboMap", 6, 1, 0x83cdf7025fda195d),
    ("dk16", "TurboMap", 4, 1, 0x34f15474f5734ff0),
    ("dk16", "TurboMap", 5, 1, 0x5c45896bd3856da1),
    ("dk16", "TurboMap", 6, 1, 0x63baf649e8bfe100),
    ("kirkman", "TurboMap", 4, 1, 0x82549abcf79dfbc4),
    ("kirkman", "TurboMap", 5, 1, 0x2302ac35c432d099),
    ("kirkman", "TurboMap", 6, 1, 0x1401d80137e9616d),
    ("s420", "TurboMap", 4, 1, 0x8bb7f07487d09d5d),
    ("s420", "TurboMap", 5, 1, 0x57a4b392fad6f263),
    ("s420", "TurboMap", 6, 1, 0x61b13168737cb80f),
    ("s838", "TurboMap", 4, 1, 0xb55476e0db53d159),
    ("s838", "TurboMap", 5, 1, 0xef1f205d535af1d0),
    ("s838", "TurboMap", 6, 1, 0x4aba954c93244297),
];

/// (suite row, K, `Budget::with_max_work` cap, digest) of TurboSYN runs
/// that degrade mid-search. The gauge is charged the node count of every
/// expansion use, so the cap trips at a fixed point: 178727 is exactly
/// the work through the φ = 1 probe (one node more anywhere abandons
/// φ = 1 instead of φ = 2), and 267617 is one node short of the whole
/// search (one node less anywhere completes it without degrading).
const WORK_CAPPED: &[(&str, usize, u64, u64)] = &[
    ("cse", 5, 178_727, 0x5c8dc25072efb7ab),
    ("cse", 5, 267_617, 0x5c8dc25072efb7ab),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn suite_reports_match_pinned_digests() {
    let suite = gen::suite();
    let circuit = |row: &str| {
        &suite
            .iter()
            .find(|b| b.name == row)
            .expect("pinned row is in the suite")
            .circuit
    };
    let digest = |report| fnv1a(report_to_json(&report).write().as_bytes());
    let mut mismatches = Vec::new();
    for &(row, algorithm, k, max_wires, want) in PINNED {
        let opts = MapOptions {
            k,
            max_wires,
            ..MapOptions::default()
        };
        let report = match algorithm {
            "TurboSYN" => turbosyn(circuit(row), &opts),
            "TurboMap" => turbomap(circuit(row), &opts),
            _ => flowsyn_s(circuit(row), &opts),
        }
        .expect("maps");
        let got = digest(report);
        if got != want {
            mismatches.push(format!(
                "{row} {algorithm} K={k} wires={max_wires}: 0x{got:016x}"
            ));
        }
    }
    for &(row, k, max_work, want) in WORK_CAPPED {
        let opts = MapOptions {
            k,
            budget: Budget::default().with_max_work(max_work),
            ..MapOptions::default()
        };
        let got = digest(turbosyn(circuit(row), &opts).expect("degrades, still maps"));
        if got != want {
            mismatches.push(format!(
                "{row} TurboSYN K={k} max_work={max_work}: 0x{got:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "report digests changed:\n{}",
        mismatches.join("\n")
    );
}
