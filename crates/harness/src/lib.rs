#![forbid(unsafe_code)]

//! # itq — umbrella crate for the Hull–Su reproduction
//!
//! This crate re-exports the whole workspace so the cross-crate integration
//! suites in `tests/` and the walkthroughs in `examples/` have a single
//! dependency root.  The substance lives in the member crates:
//!
//! | crate | paper section |
//! |---|---|
//! | [`itq_object`] | §2 — complex objects, types, constructive domains |
//! | [`itq_calculus`] | §2–3 — typed calculus, limited interpretation |
//! | [`itq_algebra`] | §2–3 — algebra with powerset, `ALG = CALC` |
//! | [`itq_relational`] | §3 — flat baselines: Datalog, while-loops, TC |
//! | [`itq_turing`] | §3–4 — machine encodings (Example 3.5, Figure 2) |
//! | [`itq_invention`] | §6 — invented values, the universal type |
//! | [`itq_workloads`] | — deterministic input generators |
//! | [`itq_core`] | §4–5 — canonical queries, complexity, hierarchy |
//!
//! Two pieces live here rather than in a member crate: [`fault`], the
//! seed-driven fault-injection harness that drives the resource-governor
//! property suite in `tests/fault_injection.rs`, and [`walker`], which runs
//! the tree walker as the reference the equivalence suites check prepared
//! handles against.

pub mod fault;
pub mod walker;

/// The repository README, compiled and run as doctests so its `rust`
/// examples keep up with the API; its `text` and `sh` blocks are not run.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

pub use itq_algebra as algebra;
pub use itq_calculus as calculus;
pub use itq_core as core;
pub use itq_invention as invention;
pub use itq_object as object;
pub use itq_relational as relational;
pub use itq_turing as turing;
pub use itq_workloads as workloads;
