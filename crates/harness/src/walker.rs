//! The tree walker as the equivalence suites' reference.
//!
//! A [`Prepared`](itq_core::pipeline::Prepared) handle runs the compiled
//! slot evaluator, or the planned join, least fixpoint or algebra evaluator
//! one run of which answers every invention level.  The tree walker (`impl
//! Evaluable for Query`) is the literal transcription of the limited
//! interpretation, and under the invention semantics it enumerates every
//! level, so the suites check handles (on an algebra handle, its Theorem 3.8
//! translation) against it by calling it directly: [`walker_outcome`] runs
//! it under one of the three semantics and maps its results onto the fields
//! a [`QueryOutcome`] reports, and [`assert_matches_walker`] compares the two.

use itq_calculus::eval::Evaluable;
use itq_calculus::Query;
use itq_core::engine::{Engine, EngineError, Semantics};
use itq_core::pipeline::QueryOutcome;
use itq_invention::{finite_invention_ctx, terminal_invention_ctx, TerminalOutcome};
use itq_object::{Database, ExecCtx, ExecStats, Instance, Interrupt};

/// The tree walker's answer to one query under one semantics, in the shape
/// of a [`QueryOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkerOutcome {
    /// The answer instance.
    pub result: Instance,
    /// The finite-invention union did not stabilise, or terminal invention
    /// stayed undefined, within the invention bound.
    pub bounded_approximation: bool,
    /// Terminal invention only: the least inventing level.
    pub defined_at: Option<usize>,
    /// Finite invention only: the level after which no new answer appeared.
    pub stabilised_at: Option<usize>,
    /// The walker's counters, with the invention levels explored; the cache,
    /// interning, planner and partition counters stay zero (the walker runs
    /// sequentially).
    pub stats: ExecStats,
}

/// Run the tree walker on `query` and `db` under `semantics`, with `engine`'s
/// budgets, invention bound and governor, sequentially: `Query::eval_ctx` for
/// the limited interpretation, [`finite_invention_ctx`] and
/// [`terminal_invention_ctx`] over `&Query` for the invention semantics.
/// Errors convert exactly as a prepared handle converts its backends'.
///
/// ```
/// use itq::walker::walker_outcome;
/// use itq_core::prelude::*;
/// use itq_core::queries;
///
/// let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
/// let engine = Engine::new();
/// let query = queries::grandparent_query();
/// let walker = walker_outcome(&engine, &query, &db, Semantics::Limited).unwrap();
/// let prepared = engine.prepare(&query).unwrap().execute(&db, Semantics::Limited);
/// assert_eq!(walker.result, prepared.unwrap().result);
/// ```
pub fn walker_outcome(
    engine: &Engine,
    query: &Query,
    db: &Database,
    semantics: Semantics,
) -> Result<WalkerOutcome, EngineError> {
    let governor = engine.governor();
    let armed;
    let interrupt = if governor.is_disarmed() {
        Interrupt::disarmed()
    } else {
        armed = governor.interrupt();
        &armed
    };
    let ctx = ExecCtx {
        interrupt,
        ..ExecCtx::default()
    };
    let outcome = |result, stats| WalkerOutcome {
        result,
        bounded_approximation: false,
        defined_at: None,
        stabilised_at: None,
        stats,
    };
    let (max_invented, config) = (engine.max_invented(), engine.calc_config());
    match semantics {
        Semantics::Limited => {
            let (evaluation, _) = query.eval_ctx(db, &[], config, &ctx)?;
            Ok(outcome(evaluation.result, evaluation.stats))
        }
        Semantics::FiniteInvention => {
            let (report, stats, _) = finite_invention_ctx(query, db, max_invented, config, &ctx)?;
            Ok(WalkerOutcome {
                bounded_approximation: report.stabilised_at.is_none(),
                stabilised_at: report.stabilised_at,
                ..outcome(report.union, stats)
            })
        }
        Semantics::TerminalInvention => {
            let (terminal, stats, _) =
                terminal_invention_ctx(query, db, max_invented, config, &ctx)?;
            Ok(match terminal {
                TerminalOutcome::Defined { n, answer } => WalkerOutcome {
                    defined_at: Some(n),
                    ..outcome(answer, stats)
                },
                TerminalOutcome::UndefinedWithinBound { .. } => WalkerOutcome {
                    bounded_approximation: true,
                    ..outcome(Instance::empty(), stats)
                },
            })
        }
    }
}

/// Assert that a prepared handle's outcome matches the walker's: the same
/// answer, boundedness flag, `defined_at` and `stabilised_at` when both
/// succeed, the same error text when both fail.  Returns both outcomes when
/// they succeeded, so a suite can go on to compare the counters it pins.
pub fn assert_matches_walker<'a>(
    outcome: &'a Result<QueryOutcome, EngineError>,
    walker: &'a Result<WalkerOutcome, EngineError>,
    context: &str,
) -> Option<(&'a QueryOutcome, &'a WalkerOutcome)> {
    match (outcome, walker) {
        (Ok(outcome), Ok(walker)) => {
            assert_eq!(outcome.result, walker.result, "{context}: answers");
            assert_eq!(
                outcome.bounded_approximation, walker.bounded_approximation,
                "{context}: boundedness flags"
            );
            assert_eq!(outcome.defined_at, walker.defined_at, "{context}");
            assert_eq!(outcome.stabilised_at, walker.stabilised_at, "{context}");
            Some((outcome, walker))
        }
        (Err(outcome), Err(walker)) => {
            assert_eq!(outcome.to_string(), walker.to_string(), "{context}");
            None
        }
        (outcome, walker) => panic!("{context}: prepared {outcome:?} vs tree walker {walker:?}"),
    }
}
