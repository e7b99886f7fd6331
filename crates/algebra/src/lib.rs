#![forbid(unsafe_code)]

//! # itq-algebra — the complex object algebra
//!
//! This crate implements the algebraic query language of Hull & Su (Section 2):
//! typed expressions built from predicate symbols and singleton constants with
//! union, intersection, difference, projection, selection, Cartesian product,
//! untuple, collapse, and **powerset**.  Together with `itq-calculus` it makes the
//! equivalence `ALG_{k,i} = CALC_{k,i}` (for `i ≥ k`, Theorem 3.8) executable: the
//! [`to_calculus`] module translates any algebra expression into an equivalent
//! calculus query, and the test suite checks that both sides produce identical
//! answers.
//!
//! One pass ([`typing`]) types every subexpression; the planner, the
//! classifier and the translation read that record, so a caller that needs
//! several of them types the expression once ([`plan_typing`],
//! [`classify_typing`], [`to_calculus_typing`]).
//!
//! An expression runs either tuple-at-a-time ([`eval`]) or, planned once
//! ([`mod@plan`]), set-at-a-time ([`exec`]) over row arenas, whose cells are
//! atoms when every subexpression has type `U` or `[U, …, U]` and interned
//! values otherwise; a plan refuses a relation holding a value of another
//! type than its declared one.  The plan executor counts its join probes,
//! materialised objects and interned values in the one counter block every
//! backend fills, [`ExecStats`](itq_object::ExecStats).
//!
//! ## Example — transitive closure by powerset (Example 3.1, algebra style)
//!
//! ```
//! use itq_algebra::{AlgExpr, EvalConfig};
//! use itq_object::{Atom, Database, Instance, Schema, Type};
//!
//! // All pairs over the active domain of PAR, as a single relation.
//! let schema = Schema::single("PAR", Type::flat_tuple(2));
//! let expr = AlgExpr::pred("PAR");
//! let db = Database::single(
//!     "PAR",
//!     Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
//! );
//! let out = expr.eval(&db, &schema, &EvalConfig::default()).unwrap();
//! assert_eq!(out.len(), 2);
//! ```

pub mod classify;
pub mod error;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod to_calculus;
pub mod typing;

pub use classify::{classify_expr, classify_typing, AlgClassification};
pub use error::AlgError;
pub use eval::EvalConfig;
pub use expr::{AlgExpr, SelFormula, SelTerm};
pub use plan::{plan, plan_typing, JoinStrategy, PhysNode, PhysicalPlan};
pub use to_calculus::{to_calculus_query, to_calculus_typing};
pub use typing::{infer_type, NodeType, Typing};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AlgError>;
