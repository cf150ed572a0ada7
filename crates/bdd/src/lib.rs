//! A reduced ordered binary decision diagram (ROBDD) package, the BDD
//! form of the functional decomposition used by FlowSYN and TurboSYN,
//! and the decomposition cache of the mapping path.
//!
//! The TurboSYN paper resynthesizes the *cut functions* that block a target
//! clock period using "OBDD based functional decomposition ... since it
//! shows to be very effective for FPGA mapping" (Section 3.3, citing
//! FlowSYN \[5\] and Lai–Pan–Pedram \[14\]). Cut functions have at most
//! 16 inputs here, so the mapper (`turbosyn::seqdecomp`) decomposes them
//! on truth tables instead; no BDD is built on the mapping path. This
//! crate provides:
//!
//! * [`Manager`] — a hash-consed ROBDD store with the classic operation
//!   set: `and`/`or`/`xor`/`not`/[`Manager::ite`], cofactors, composition,
//!   quantification, support, satisfying-assignment counting, and
//!   conversions to and from flat truth tables. The netlist crate's
//!   symbolic equivalence checks run on it.
//! * [`decompose`] — Ashenhurst single-output decomposition and the
//!   Roth–Karp multi-output generalization, driven by exact
//!   column-multiplicity computation (`μ(f, B)` = number of distinct
//!   cofactors of `f` under assignments to the bound set `B`). It is the
//!   reference the truth-table decomposer is tested against.
//! * [`cache`] — the decomposition cache keyed by cut-function truth
//!   tables, shared by the mapper's label search and mapping generation.
//!
//! The manager favours simplicity over arena tricks: no complement
//! edges, no garbage collection. Node indices are append-only and remain
//! valid for the manager's lifetime.
//!
//! # Example
//!
//! ```
//! use turbosyn_bdd::Manager;
//!
//! let mut m = Manager::new();
//! let x0 = m.var(0);
//! let x1 = m.var(1);
//! let f = m.and(x0, x1);
//! assert!(m.eval(f, &[true, true]));
//! assert!(!m.eval(f, &[true, false]));
//! assert_eq!(m.sat_count(f, 2), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod decompose;
pub mod explore;

mod error;
mod manager;

pub use cache::DecompCache;
pub use error::BddError;
pub use manager::{Bdd, Manager};
