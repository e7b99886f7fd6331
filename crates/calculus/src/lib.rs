#![forbid(unsafe_code)]

//! # itq-calculus — the typed complex object calculus
//!
//! This crate implements the query language at the heart of Hull & Su,
//! *"On the Expressive Power of Database Queries with Intermediate Types"*
//! (PODS 1988 / JCSS 1991), Section 2:
//!
//! * [`Term`]s: constants, variables, and coordinate projections `x.i`;
//! * [`Formula`]s: the atomic formulas `t1 ≈ t2`, `t1 ∈ t2`, `P(t)`, the sentential
//!   connectives, and *typed* quantifiers `(∃x/T φ)`, `(∀x/T φ)`;
//! * type assignments and t-wff checking ([`typing`]);
//! * typed calculus queries `Q = {t/T | φ}` ([`Query`]);
//! * the **limited interpretation** (active-domain) semantics and the generalised
//!   `Q|^Y` semantics parameterised by extra atoms, with explicit evaluation
//!   budgets ([`eval`]), run by the tree walker and by the slot-compiled form
//!   ([`mod@compile`]); both count their work (formula steps, quantifier draws,
//!   candidates, the largest domain) in the one counter block every backend
//!   fills, [`ExecStats`](itq_object::ExecStats);
//! * prenex-normal-form transformation and recognition of the existential fragment
//!   `CALC_{0,1,∃}` ([`normal`]);
//! * classification of a query into the family `CALC_{k,i}` via its intermediate
//!   types ([`classify`]).
//!
//! ## Example — the grandparent query of Example 2.4
//!
//! ```
//! use itq_calculus::{Formula, Query, Term};
//! use itq_calculus::eval::EvalConfig;
//! use itq_object::{Database, Instance, Schema, Type, Universe, Value};
//!
//! let t_pair = Type::flat_tuple(2);
//! let schema = Schema::single("PAR", t_pair.clone());
//!
//! // ψ(t) = ∃x/T1 ∃y/T1 (PAR(x) ∧ PAR(y) ∧ x.2 ≈ y.1 ∧ t.1 ≈ x.1 ∧ t.2 ≈ y.2)
//! let body = Formula::exists(
//!     "x",
//!     t_pair.clone(),
//!     Formula::exists(
//!         "y",
//!         t_pair.clone(),
//!         Formula::and(vec![
//!             Formula::pred("PAR", Term::var("x")),
//!             Formula::pred("PAR", Term::var("y")),
//!             Formula::eq(Term::proj("x", 2), Term::proj("y", 1)),
//!             Formula::eq(Term::proj("t", 1), Term::proj("x", 1)),
//!             Formula::eq(Term::proj("t", 2), Term::proj("y", 2)),
//!         ]),
//!     ),
//! );
//! let query = Query::new("t", t_pair.clone(), body, schema).unwrap();
//!
//! let mut u = Universe::new();
//! let (tom, mary, sue) = (u.atom("Tom"), u.atom("Mary"), u.atom("Sue"));
//! let db = Database::single(
//!     "PAR",
//!     Instance::from_pairs(vec![(tom, mary), (mary, sue)]),
//! );
//!
//! let answer = query.eval(&db, &EvalConfig::default()).unwrap();
//! assert_eq!(answer.values().len(), 1);
//! assert!(answer.contains(&Value::pair(tom, sue)));
//! ```

pub mod builders;
pub mod classify;
pub mod compile;
pub mod error;
pub mod eval;
pub mod formula;
pub mod normal;
pub mod query;
pub mod term;
pub mod typing;

pub use classify::{CalcClass, QueryClassification};
pub use compile::{compile, CompiledQuery};
pub use error::CalcError;
pub use eval::{EvalConfig, Evaluable, Evaluation};
pub use formula::Formula;
pub use query::Query;
pub use term::{Term, Var};
pub use typing::TypeEnv;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CalcError>;
