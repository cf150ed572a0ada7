//! Graph algorithms backing the TurboSYN FPGA-synthesis reproduction.
//!
//! This crate is a dependency-free substrate: it knows nothing about
//! netlists, LUTs or retiming. It provides exactly the algorithmic
//! machinery the paper's pipeline needs:
//!
//! * [`Digraph`] — a compact directed multigraph with integer edge weights
//!   (used as the retiming graph `G(V, E, W)` where weights count
//!   flip-flops).
//! * [`scc`] — Tarjan's strongly connected components plus a condensation in
//!   topological order. TurboMap/TurboSYN process SCCs in topological order
//!   during label computation, and positive-loop detection is a per-SCC
//!   test.
//! * [`topo`] — topological sorting and cycle detection for DAGs (expanded
//!   circuits, combinational cones).
//! * [`bellman_ford`] — longest-path relaxation with positive-cycle
//!   detection, the oracle behind exact cycle-ratio computation.
//! * [`cycle_ratio`] — exact maximum delay-to-register (MDR) ratio of a
//!   cyclic graph, the quantity the whole paper minimizes
//!   (Papaefthymiou, *Mathematical Systems Theory* 1994).
//! * [`maxflow`] — general max-flow / minimum vertex cut with early
//!   termination, the reference the mappers' FlowMap cut kernel (which
//!   runs straight on the expanded circuit) is tested against.
//! * [`mincost`] — min-cost flow (successive shortest paths), the solver
//!   behind exact minimum-register retiming.
//! * [`reach`] — multi-source reachability used by positive-loop detection
//!   (predecessor graph isolation test).
//! * [`rng`] — a tiny deterministic PRNG behind the seeded benchmark
//!   generators and randomized tests (keeps the workspace free of
//!   registry dependencies).
//!
//! # Example
//!
//! Computing the maximum cycle ratio of a two-loop graph:
//!
//! ```
//! use turbosyn_graph::{Digraph, cycle_ratio::{max_cycle_ratio, Ratio}};
//!
//! let mut g = Digraph::new(3);
//! // Loop a: 0 -> 1 -> 0 with 2 units of delay and 1 register.
//! g.add_edge(0, 1, 1);
//! g.add_edge(1, 0, 0);
//! // Loop b: 0 -> 2 -> 0 with 2 units of delay and 2 registers.
//! g.add_edge(0, 2, 1);
//! g.add_edge(2, 0, 1);
//! let delays = vec![1i64; 3];
//! let mdr = max_cycle_ratio(&g, &delays).expect("graph has a registered cycle");
//! assert_eq!(mdr, Ratio::new(2, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bellman_ford;
pub mod cycle_ratio;
pub mod maxflow;
pub mod mincost;
pub mod reach;
pub mod rng;
pub mod scc;
pub mod topo;

mod digraph;

pub use digraph::{Digraph, EdgeId, EdgeRef};
