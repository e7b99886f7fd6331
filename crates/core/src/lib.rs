#![forbid(unsafe_code)]

//! # itq-core — intermediate-type queries as a usable library
//!
//! This crate is the front door of the reproduction of Hull & Su,
//! *"On the Expressive Power of Database Queries with Intermediate Types"*
//! (PODS 1988 / JCSS 1991).  It assembles the substrates
//! (`itq-object`, `itq-calculus`, `itq-algebra`, `itq-relational`, `itq-turing`,
//! `itq-invention`) into:
//!
//! * a library of the paper's **canonical queries** ([`queries`]): the grandparent
//!   query of Example 2.4, the transitive-closure query of Example 3.1, the
//!   even-cardinality query of Example 3.2, the total-order query of Example 3.4,
//!   and a scaled-down analogue of the exponent-equation family of Example 3.7;
//! * the **complexity calculators** of Theorem 4.4 ([`complexity`]): hyper-
//!   exponential bounds on constructive domains and on the space needed to
//!   instantiate a query's variables;
//! * the **hierarchy analysis** of Theorem 5.1 ([`hierarchy`]): the per-level
//!   counting power that makes `CALC_{0,i} ⊊ CALC_{0,i+1}`;
//! * an [`Engine`](engine::Engine) facade with a prepare-once / execute-many
//!   [`pipeline`]: [`Engine::prepare`](engine::Engine::prepare) does the static
//!   work (typing, classification, normal forms, Theorem 3.8 compilation)
//!   exactly once, and the resulting [`Prepared`](pipeline::Prepared) handle
//!   executes on any database under the limited interpretation or the
//!   invented-value semantics of Section 6, returning one unified
//!   [`QueryOutcome`](pipeline::QueryOutcome) with execution statistics;
//! * a **mutable, versioned database** with watched queries ([`incremental`]):
//!   inserts and deletes mutate one plain database in place, one versioned
//!   epoch per call, and registered views stay warm — the Example 3.1
//!   closure extended semi-naively from the delta, every other view
//!   re-executed behind a changed-support guard (a conjunctive one through
//!   its planned hash joins).
//!
//! ## Quickstart
//!
//! ```
//! use itq_core::prelude::*;
//!
//! // Build the PAR database of Example 2.4.
//! let mut universe = Universe::new();
//! let (tom, mary, sue) = (universe.atom("Tom"), universe.atom("Mary"), universe.atom("Sue"));
//! let db = Database::single("PAR", Instance::from_pairs(vec![(tom, mary), (mary, sue)]));
//!
//! // The transitive-closure query of Example 3.1 lives in CALC_{0,1}.
//! let query = itq_core::queries::transitive_closure_query();
//!
//! // Prepare once (typing + classification + normal forms), execute many.
//! let engine = Engine::builder().universe(universe.clone()).build();
//! let prepared = engine.prepare(&query).unwrap();
//! assert_eq!(prepared.classification().minimal_class, CalcClass::second_order());
//! let outcome = prepared.execute(&db, Semantics::Limited).unwrap();
//! assert!(outcome.result.contains(&Value::pair(tom, sue)));
//! assert!(outcome.stats.steps > 0);
//! ```

pub mod complexity;
pub mod engine;
pub mod hierarchy;
pub mod incremental;
mod lowering;
pub mod pipeline;
pub mod queries;
pub mod report;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::engine::{Engine, EngineError, GovernorConfig, Semantics};
    pub use crate::incremental::{
        IncrementalDb, IncrementalError, MutationOutcome, RefreshPath, ViewRefresh, WatchedView,
    };
    pub use crate::pipeline::{EngineBuilder, ExecStats, PrepareStats, Prepared, QueryOutcome};
    pub use crate::queries;
    pub use itq_algebra::{AlgExpr, PhysicalPlan, SelFormula};
    pub use itq_calculus::{CalcClass, CompiledQuery, EvalConfig, Evaluable, Formula, Query, Term};
    pub use itq_invention::{InventionConfig, TerminalOutcome, UniversalCodec};
    pub use itq_object::{
        Atom, CancelFlag, Database, ExecCtx, Instance, Interrupt, ResourceError, Schema, TripKind,
        Type, Universe, Value,
    };
    pub use itq_relational::Relation;
}
