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
//!   [`QueryOutcome`](pipeline::QueryOutcome) with execution statistics.
//!   Two fragments skip the quantifier enumeration under the limited
//!   interpretation: conjunctive queries run as planned hash joins, and
//!   least-fixpoint queries such as the Example 3.1 closure run as
//!   semi-naive Datalog;
//! * a **mutable, versioned database** with watched queries ([`incremental`]):
//!   inserts and deletes mutate one plain database in place, one versioned
//!   epoch per call, and registered views stay warm — a least-fixpoint view
//!   extends its least model semi-naively from the delta, every other view
//!   is re-executed behind a changed-support guard (a conjunctive one
//!   through its planned hash joins).
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
//!
//! // Its set quantifier asks for the least transitive relation containing
//! // PAR: prepare lowers it to two Datalog rules and one guard, which run
//! // semi-naively instead of enumerating all 2^9 candidate relations.
//! let (program, guards) = prepared.least_fixpoint().unwrap();
//! assert_eq!((program.rules.len(), guards), (2, 1));
//! let outcome = prepared.execute(&db, Semantics::Limited).unwrap();
//! assert!(outcome.result.contains(&Value::pair(tom, sue)));
//! assert!(outcome.stats.max_domain_seen < 1 << 9);
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
    pub use itq_invention::{TerminalOutcome, UniversalCodec};
    pub use itq_object::{
        Atom, CancelFlag, Database, ExecCtx, Instance, Interrupt, ResourceError, Schema, TripKind,
        Type, Universe, Value,
    };
    pub use itq_relational::Relation;
}
