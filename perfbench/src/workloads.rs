//! The workloads and the circuits they generate from `--seed`.
//!
//! The program only ever sees the generated circuits. Seed 0 reproduces
//! the rows of `turbosyn_netlist::gen::suite()` exactly, so
//! `turbosyn_cold` can be read against `exp_table1`. Any other seed
//! renames every signal, so BLIF text and service fingerprints change
//! while structure, node order, and with them the mapping work stay put.
//! Fresh random logic per seed would not do: on these circuit counts one
//! seed's circuits took up to three times as long to map as another's.
//! Nor would creating the nodes in a seed-dependent order: that moved
//! the label work, and the map time by up to 18%.

use turbosyn_netlist::gen::{fsm, iscas_like, FsmConfig, IscasConfig};
use turbosyn_netlist::Circuit;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `turbosyn::turbosyn` on the fast Table 1 rows, fresh engine each.
    TurbosynCold,
    /// `turbosyn::turbomap` on three s5378-shaped circuits of 2760 gates.
    TurbomapLarge,
    /// Resubmissions to an in-process `turbosyn-serve` server.
    ServeResubmit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TurbosynCold,
        Workload::TurbomapLarge,
        Workload::ServeResubmit,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TurbosynCold => "turbosyn_cold",
            Workload::TurbomapLarge => "turbomap_large",
            Workload::ServeResubmit => "serve_resubmit",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Fsm(FsmConfig),
    Iscas(IscasConfig),
}

/// One generated circuit: a name and a generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub name: &'static str,
    shape: Shape,
}

impl Row {
    /// The same shape with its base seed moved by `offset`.
    pub fn offset(self, offset: u64) -> Row {
        let shape = match self.shape {
            Shape::Fsm(cfg) => Shape::Fsm(FsmConfig {
                seed: cfg.seed.wrapping_add(offset),
                ..cfg
            }),
            Shape::Iscas(cfg) => Shape::Iscas(IscasConfig {
                seed: cfg.seed.wrapping_add(offset),
                ..cfg
            }),
        };
        Row { shape, ..self }
    }

    /// The circuit this row generates under workload seed `seed`.
    pub fn generate(self, seed: u64) -> Circuit {
        let mut c = match self.shape {
            Shape::Fsm(cfg) => fsm(cfg),
            Shape::Iscas(cfg) => iscas_like(cfg),
        };
        c.set_name(self.name);
        rename(c, seed)
    }
}

/// `c` with every signal renamed for `seed`; seed 0 keeps the names.
fn rename(mut c: Circuit, seed: u64) -> Circuit {
    if seed != 0 {
        for id in c.node_ids().collect::<Vec<_>>() {
            let name = format!("{}_s{seed}", c.node(id).name);
            c.rename_node(id, name);
        }
    }
    c
}

const fn fsm_row(
    name: &'static str,
    state_bits: usize,
    inputs: usize,
    outputs: usize,
    depth: usize,
    seed: u64,
) -> Row {
    Row {
        name,
        shape: Shape::Fsm(FsmConfig {
            state_bits,
            inputs,
            outputs,
            depth,
            seed,
        }),
    }
}

const fn iscas_row(
    name: &'static str,
    layers: usize,
    width: usize,
    inputs: usize,
    outputs: usize,
    feedback_pct: u8,
    seed: u64,
) -> Row {
    Row {
        name,
        shape: Shape::Iscas(IscasConfig {
            layers,
            width,
            inputs,
            outputs,
            feedback_pct,
            seed,
        }),
    }
}

// The Table 1 rows, configured as `gen::suite()` configures them.
const BBARA: Row = fsm_row("bbara", 4, 4, 2, 6, 101);
const CSE: Row = fsm_row("cse", 4, 7, 7, 8, 103);
const DK16: Row = fsm_row("dk16", 5, 2, 3, 10, 104);
const KIRKMAN: Row = fsm_row("kirkman", 4, 12, 6, 6, 106);
const S420: Row = iscas_row("s420", 6, 35, 18, 2, 20, 201);
const S838: Row = iscas_row("s838", 8, 55, 34, 2, 20, 202);
const S1423: Row = iscas_row("s1423", 10, 70, 17, 5, 24, 203);
const S5378: Row = iscas_row("s5378", 12, 230, 35, 49, 24, 204);

/// The circuits a workload maps; for `serve_resubmit`, its warm set.
/// `smoke` shrinks every workload to a seconds-long run.
///
/// Every circuit maps cold in at most ~2 s, so that a run times each one
/// many times over its window: timings of few, long maps spread too far
/// from run to run on a shared machine.
pub fn rows(workload: Workload, smoke: bool) -> Vec<Row> {
    match (workload, smoke) {
        // Table 1 rows whose cold TurboSYN map takes at most ~2 s, cse
        // among them, so that `seqdecomp` carries more than 80% of the
        // time. bbsse, keyb, pma and s1 take 3-5 s each; planet, sand,
        // scf, styr and s5378 longer; s838 is left out for its small
        // `seqdecomp` share.
        (Workload::TurbosynCold, false) => vec![BBARA, CSE, DK16, KIRKMAN, S420, S1423],
        (Workload::TurbosynCold, true) => vec![BBARA, DK16],
        (Workload::TurbomapLarge, false) => vec![
            S5378,
            Row {
                name: "s5378_b",
                ..S5378.offset(1)
            },
            Row {
                name: "s5378_c",
                ..S5378.offset(2)
            },
        ],
        (Workload::TurbomapLarge, true) => vec![S420, S838],
        // Largest first: each set-up starts a fresh server, and a worker's
        // first map also grows its heap. Left to the small maps, that cost
        // made the median circuit's cold map swing by half between runs.
        (Workload::ServeResubmit, false) => vec![S1423, S838, S420, KIRKMAN, DK16],
        (Workload::ServeResubmit, true) => vec![BBARA, DK16],
    }
}

/// Generates every row under workload seed `seed`.
pub fn generate(rows: &[Row], seed: u64) -> Vec<Circuit> {
    rows.iter().map(|row| row.generate(seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn_netlist::{blif, gen};

    #[test]
    fn seed_zero_reproduces_the_suite_rows() {
        let suite = gen::suite();
        let mut matched = 0;
        for workload in Workload::ALL {
            for row in rows(workload, false) {
                if let Some(bench) = suite.iter().find(|b| b.name == row.name) {
                    assert_eq!(
                        blif::write(&row.generate(0)),
                        blif::write(&bench.circuit),
                        "{}",
                        row.name
                    );
                    matched += 1;
                }
            }
        }
        // 6 turbosyn_cold rows, s5378, and the 5 warm-set rows.
        assert_eq!(matched, 12);
    }

    #[test]
    fn other_seeds_rename_the_same_circuits() {
        for row in [DK16, S420] {
            let (a, b) = (row.generate(0), row.generate(1));
            assert_ne!(blif::write(&a), blif::write(&b), "{}", row.name);
            assert_eq!(blif::write(&b), blif::write(&row.generate(1)));
            assert_eq!(a.name(), b.name());
            assert_eq!(a.node_count(), b.node_count());
            for id in a.node_ids() {
                assert_eq!(b.node(id).name, format!("{}_s1", a.node(id).name));
                assert_eq!(a.node(id).kind, b.node(id).kind);
                assert_eq!(a.node(id).fanins, b.node(id).fanins);
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
