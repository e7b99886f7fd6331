#![forbid(unsafe_code)]

//! # itq-relational — the flat relational substrate and baseline algorithms
//!
//! The paper's primary focus is on queries that map *flat* (relational) databases
//! to flat relations, and several of its reference points — the relational
//! calculus `CALC_{0,0}`, fixpoint queries, DATALOG¬ — live entirely in the
//! relational world.  This crate provides that substrate:
//!
//! * [`Relation`]: a flat relation of fixed arity over atoms, with conversions to
//!   and from the complex-object [`Instance`](itq_object::Instance) model;
//! * [`ops`]: the classical relational-algebra operators specialised to flat
//!   relations (selection, projection, natural/equi-join, union, difference,
//!   product);
//! * [`datalog`]: positive Datalog programs with semi-naive (differential)
//!   evaluation — the fixpoint baseline referenced in Remark 3.6;
//! * [`fixpoint`]: the shared semi-naive loop drivers (from-scratch, warm-start,
//!   and store-wide) that [`tc`], [`datalog`], [`while_loop`], and the engine's
//!   incremental view-refresh path all call;
//! * [`tc`]: three transitive-closure baselines (naive iteration, semi-naive
//!   iteration, Floyd–Warshall) used by experiment E2 against the CALC_{0,1}
//!   powerset query;
//! * [`while_loop`]: an inflationary while-loop evaluator over relational algebra
//!   assignments, the "relational algebra + while" language whose PSPACE
//!   connection the paper cites.

pub mod datalog;
pub mod fixpoint;
pub mod ops;
pub mod relation;
pub mod tc;
pub mod while_loop;

pub use datalog::{Atom as DatalogAtom, Program, Rule, TermPattern};
pub use fixpoint::{bounded_loop, seminaive, seminaive_from, seminaive_store, RelationStore};
pub use relation::Relation;
pub use tc::{transitive_closure_naive, transitive_closure_seminaive, transitive_closure_warshall};
pub use while_loop::{RaExpr, Statement, WhileProgram};
