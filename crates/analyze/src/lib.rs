//! # itq-analyze — static analysis for intermediate-type queries
//!
//! A diagnostics engine and multi-pass static analyzer over the calculus
//! ([`itq_calculus::Query`]) and the algebra ([`itq_algebra::AlgExpr`]).
//! Every defect or report is a [`Diagnostic`] with a stable `ITQ####`
//! [`Code`], a [`Severity`], and an optional pre-order node index that the
//! surface layer resolves to a source span and renders as a rustc-style caret
//! snippet ([`render_snippet`]).
//!
//! The passes (see [`passes`]) cover:
//!
//! * variable hygiene — unused (`ITQ0101`) and shadowed (`ITQ0102`)
//!   quantified variables;
//! * constant folding — always-true/false subformulas (`ITQ0103`/`ITQ0104`)
//!   and selection formulas (`ITQ0204`/`ITQ0205`), contradictory selection
//!   conjunctions, and always-empty expressions (`ITQ0206`);
//! * pre-execution defect detection — undefined relations (`ITQ0201`),
//!   operator type/arity mismatches (`ITQ0202`), and the vacuous
//!   selection-over-non-tuple typing hole (`ITQ0203`) with the exact message
//!   the planner raises;
//! * static budget prediction — quantifier domains (`ITQ0301`) and
//!   powerset/product cardinality lower bounds (`ITQ0302`) that must exceed
//!   the configured evaluation budgets;
//! * stratum reporting — the minimal `CALC_{k,i}`/`ALG_{k,i}` class
//!   (`ITQ0401`) and per-quantifier intermediate-type markers (`ITQ0402`).
//!
//! Analysis is pure and infallible: it never mutates its input, never blocks
//! evaluation by itself, and always returns a [`Report`]. The engine decides
//! what severity gates preparation.
//!
//! ```
//! use itq_analyze::{analyze_query, Budgets, Severity};
//! use itq_calculus::{Formula, Query, Term};
//! use itq_object::{Schema, Type};
//!
//! let body = Formula::exists("y", Type::Atomic, Formula::eq(Term::var("t"), Term::var("t")));
//! let query = Query::new("t", Type::Atomic, body, Schema::single("P", Type::Atomic)).unwrap();
//! let report = analyze_query(&query, &Budgets::default());
//! // `y` is unused and `t ≈ t` is always true.
//! assert_eq!(report.max_severity(), Some(Severity::Warning));
//! ```

#![forbid(unsafe_code)]

pub mod diag;
pub mod passes;
pub mod render;
pub mod walk;

pub use diag::{all_codes, code_info, Code, CodeInfo, Diagnostic, Report, Severity};
pub use passes::{analyze_algebra, analyze_algebra_typing, analyze_query, Budgets};
pub use render::{render_snippet, Span};
pub use walk::{algebra_preorder, formula_preorder, AlgNode};
