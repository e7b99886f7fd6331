//! The invented-value semantics of Section 6.
//!
//! All semantics are built from the primitive `Q|_n[d]`: evaluate `Q` with the
//! ranges of all variables extended by `n` fresh atoms, then restrict the answer
//! to objects constructed from the *original* active domain (invented values are
//! scratch paper, never output).  By Proposition 6.1 the choice of the `n` fresh
//! atoms is irrelevant, so each level takes the `n` ids directly above the
//! largest atom of `adom(d) ∪ adom(Q)` — or, when those would pass `u32::MAX`,
//! the `n` smallest ids outside it: no universe is consulted, and a level's
//! answer is a function of the query, the database and `n` alone.
//!
//! * **Finite invention** `Q^fi[d] = ⋃_{0 ≤ n < ω} Q|_n[d]`.  The exact union is
//!   not computable in general (Lemma 6.16 shows it is only recursively
//!   enumerable, and Lemma 6.18 separates it from countable invention), so
//!   [`finite_invention`] computes the union up to a level bound and reports
//!   the level after which it stopped growing.
//! * **Bounded invention** `Q|_f[d] = ⋃ { Q|_n[d] : n ≤ f(|adom(d)|) }`
//!   is computable outright and implemented exactly.
//! * **Terminal invention** `Q^ti[d]` returns `Q|_n[d]` for the least `n` at which
//!   the *unrestricted* answer `Q|^Y[d]` contains an invented value, and is
//!   undefined (`?`) if there is no such `n` (Theorem 6.19 shows this semantics is
//!   equivalent to the computable queries).
//!
//! Each level `Q|_n[d]` is the limited interpretation over a widened range, so
//! every driver takes the one calculus [`EvalConfig`] its levels run under,
//! next to the level bound.  The finite and terminal drivers evaluate the
//! levels in turn and keep no level's answer: each moves into the union, or
//! becomes the terminal answer.  A query whose answer is the same at every
//! level and never holds an invented value (a domain-independent one,
//! Theorem 6.11) needs no sweep: `Q^fi` is its limited answer, stable from
//! level 1, and `Q^ti` is undefined within the bound.  A caller that states
//! those outcomes from one run builds the same level spans through
//! [`level_span`].

use crate::error::InventionError;
use itq_calculus::eval::{EvalConfig, Evaluable, Evaluation};
use itq_object::{Atom, Database, ExecCtx, ExecStats, Instance, Value};
use itq_trace::Span;
use std::collections::BTreeSet;
use std::time::Instant;

/// The span of level `Q|_n[d]` of an invention sweep: the level's answer
/// sizes and the counters of the run that produced it.  The caller stamps
/// its wall clock and nests any child.
///
/// ```
/// use itq_invention::level_span;
/// use itq_object::ExecStats;
///
/// let span = level_span(2, 1, 3, &ExecStats::default());
/// assert_eq!(span.name, "Q|_2[d]");
/// assert_eq!(span.field("unrestricted_answers"), Some(3));
/// ```
pub fn level_span(
    n: usize,
    answers: usize,
    unrestricted_answers: usize,
    stats: &ExecStats,
) -> Span {
    let mut span = Span::new(format!("Q|_{n}[d]"));
    span.push_field("invented", n as u64);
    span.push_field("answers", answers as u64);
    span.push_field("unrestricted_answers", unrestricted_answers as u64);
    span.push_field("steps", stats.steps);
    span.push_field("quantifier_values", stats.quantifier_values);
    span.push_field("candidates_checked", stats.candidates_checked);
    span
}

/// The level bound the engine searches up to unless configured otherwise:
/// levels `0..=4` of finite and terminal invention.
pub const DEFAULT_MAX_INVENTED: usize = 4;

/// Evaluate `Q|_n[d]`: extend every variable's range by `n` fresh atoms and keep
/// only the answers built from the original active domain.
///
/// Returns both the restricted answer and the unrestricted `Q|^Y[d]` evaluation
/// (which terminal invention needs in order to detect invented values in the
/// output).
///
/// Generic over the query form: a [`CompiledQuery`](itq_calculus::CompiledQuery)
/// runs the slot-based interpreter — the prepared pipeline passes it, so
/// per-level re-evaluation never re-lowers the query — and a source-level
/// [`Query`](itq_calculus::Query) runs the tree walker, the reference the
/// equivalence suites compare it with.
pub fn eval_with_invented<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    n: usize,
    config: &EvalConfig,
) -> Result<(Instance, Evaluation), InventionError> {
    let domain = query.evaluation_domain(db);
    invent_level(query, db, &domain, n, config, &ExecCtx::default())
}

/// [`eval_with_invented`] over `original_domain`, the query's evaluation
/// domain on `db` (which a sweep computes once), under an execution context,
/// which the level's evaluation polls and partitions by.  The evaluation
/// itself is never traced: the drivers record one span per level from its
/// statistics.
fn invent_level<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    original_domain: &BTreeSet<Atom>,
    n: usize,
    config: &EvalConfig,
    ctx: &ExecCtx,
) -> Result<(Instance, Evaluation), InventionError> {
    let invented = fresh_atoms(original_domain, n);
    let untraced = ExecCtx {
        traced: false,
        ..*ctx
    };
    let (evaluation, _) = query.eval_ctx(db, &invented, config, &untraced)?;
    let restricted = Instance::from_values(
        evaluation
            .result
            .iter()
            .filter(|v| {
                v.active_domain()
                    .iter()
                    .all(|a| original_domain.contains(a))
            })
            .cloned()
            .collect::<Vec<Value>>(),
    );
    Ok((restricted, evaluation))
}

/// Evaluate level `n` of a sweep over `original_domain` ([`invent_level`]),
/// merge its counters into `stats`, counting one invention level and none of
/// the level's partitions (a sweep reports no partitions), and, when the
/// sweep is traced (`spans` is `Some`), record its span, charged the level's
/// wall clock.  Returns `Q|_n[d]` and the size of the unrestricted answer
/// `Q|^Y[d]`, which exceeds `Q|_n[d]`'s exactly when `Q|^Y[d]` holds an
/// invented value.
fn sweep_level<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    original_domain: &BTreeSet<Atom>,
    n: usize,
    config: &EvalConfig,
    ctx: &ExecCtx,
    stats: &mut ExecStats,
    spans: &mut Option<Vec<Span>>,
) -> Result<(Instance, usize), InventionError> {
    let start = ctx.traced.then(Instant::now);
    let (answer, evaluation) = invent_level(query, db, original_domain, n, config, ctx)?;
    let unrestricted = evaluation.result.len();
    stats.merge(&ExecStats {
        invention_levels: 1,
        partitions: 0,
        ..evaluation.stats
    });
    if let (Some(spans), Some(start)) = (spans.as_mut(), start) {
        let mut span = level_span(n, answer.len(), unrestricted, &evaluation.stats);
        span.wall_micros = start.elapsed().as_micros() as u64;
        spans.push(span);
    }
    Ok((answer, unrestricted))
}

/// `n` atoms outside `domain`: the ids directly above its largest atom when
/// they fit in `u32`, otherwise the smallest ids it lacks.
fn fresh_atoms(domain: &BTreeSet<Atom>, n: usize) -> Vec<Atom> {
    let first = domain.last().map_or(0, |atom| u64::from(atom.0) + 1);
    if first + n as u64 <= 1 << 32 {
        return (first..first + n as u64)
            .map(|id| Atom(id as u32))
            .collect();
    }
    (0..=u32::MAX)
        .map(Atom)
        .filter(|atom| !domain.contains(atom))
        .take(n)
        .collect()
}

/// The outcome of [`finite_invention`]: the union of the levels' answers and
/// the level after which it stopped growing.  No level's own answer is kept
/// (each moves into the union); [`eval_with_invented`] computes one.  The
/// levels run are counted in the statistics of [`finite_invention_ctx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiniteInventionReport {
    /// The union of all computed answers — the bounded approximation of `Q^fi[d]`.
    pub union: Instance,
    /// The smallest `n` after which no new answer appeared within the bound, if
    /// the trace stabilised before the bound was hit.
    pub stabilised_at: Option<usize>,
}

/// Approximate finite invention: `⋃_{n ≤ max_invented} Q|_n[d]`, each level
/// under `config`, with a stabilisation report.  (The exact semantics is a
/// countable union and is not computable in general; see Lemma 6.16.)
pub fn finite_invention<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    max_invented: usize,
    config: &EvalConfig,
) -> Result<FiniteInventionReport, InventionError> {
    Ok(finite_invention_ctx(query, db, max_invented, config, &ExecCtx::default())?.0)
}

/// [`finite_invention`] under an execution context, plus the merged
/// [`ExecStats`] of every per-level evaluation (`invention_levels` counts
/// them) and, when `ctx.traced`, one [`Span`] per `Q|_n[d]` level carrying
/// the level's answer sizes and evaluation counters.  The report and
/// statistics never depend on `ctx.traced`.  The union stabilised at the
/// first level after which it stopped growing (`None` when it grew at the
/// last level, or when only level 0 ran).
///
/// Every per-level evaluation polls `ctx.interrupt` and partitions across
/// `ctx.workers`.  A resource limit that trips at any level is the sweep's
/// error: a union missing the later levels is no answer.
///
/// ```
/// use itq_calculus::{EvalConfig, Formula, Query};
/// use itq_invention::{finite_invention_ctx, DEFAULT_MAX_INVENTED};
/// use itq_object::{Atom, Database, ExecCtx, Instance, Schema, Type};
///
/// let q = Query::new("t", Type::Atomic, Formula::pred("R", itq_calculus::Term::var("t")),
///                    Schema::single("R", Type::Atomic)).unwrap();
/// let db = Database::single("R", Instance::from_atoms(vec![Atom(0)]));
/// let ctx = ExecCtx { traced: true, ..ExecCtx::default() };
/// let config = EvalConfig::default();
/// let (report, stats, levels) =
///     finite_invention_ctx(&q, &db, DEFAULT_MAX_INVENTED, &config, &ctx).unwrap();
/// assert_eq!(report.union.len(), 1);
/// assert!(stats.steps > 0, "one evaluation per invention level was counted");
/// assert_eq!(stats.invention_levels, DEFAULT_MAX_INVENTED as u64 + 1);
/// assert_eq!(levels.unwrap().len() as u64, stats.invention_levels);
/// ```
pub fn finite_invention_ctx<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    max_invented: usize,
    config: &EvalConfig,
    ctx: &ExecCtx,
) -> Result<(FiniteInventionReport, ExecStats, Option<Vec<Span>>), InventionError> {
    let domain = query.evaluation_domain(db);
    let (mut stats, mut spans) = (ExecStats::default(), ctx.traced.then(Vec::new));
    let mut union = Instance::empty();
    let mut stabilised_at = None;
    for n in 0..=max_invented {
        let (answer, _) = sweep_level(query, db, &domain, n, config, ctx, &mut stats, &mut spans)?;
        let before = union.len();
        for v in answer {
            union.insert(v);
        }
        if union.len() == before && n > 0 {
            stabilised_at.get_or_insert(n);
        } else {
            stabilised_at = None;
        }
    }
    let report = FiniteInventionReport {
        union,
        stabilised_at,
    };
    Ok((report, stats, spans))
}

/// Bounded invention `Q|_f[d]` for a bound function `f` of the active-domain
/// size: the union of `Q|_n[d]` for `n ≤ f(|adom(d)|)`, which is finite
/// invention bounded at that level.
pub fn bounded_invention<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    bound: impl Fn(usize) -> usize,
    config: &EvalConfig,
) -> Result<Instance, InventionError> {
    let limit = bound(db.active_domain().len());
    Ok(finite_invention(query, db, limit, config)?.union)
}

/// The outcome of a terminal-invention evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminalOutcome {
    /// The least `n` at which the unrestricted answer contained an invented value,
    /// together with `Q|_n[d]`.
    Defined {
        /// The least such `n`.
        n: usize,
        /// The answer `Q|_n[d]`.
        answer: Instance,
    },
    /// No such `n` was found within the configured bound — the paper's `?`
    /// (undefined) outcome, which in general cannot be distinguished from
    /// "defined at some larger n" by any terminating procedure.
    UndefinedWithinBound {
        /// The number of invention levels tried.
        tried: usize,
    },
}

/// Terminal invention `Q^ti[d]` (Theorem 6.19), searched over the levels
/// `0..=max_invented`, each under `config`.
pub fn terminal_invention<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    max_invented: usize,
    config: &EvalConfig,
) -> Result<TerminalOutcome, InventionError> {
    Ok(terminal_invention_ctx(query, db, max_invented, config, &ExecCtx::default())?.0)
}

/// [`terminal_invention`] under an execution context, plus the merged
/// [`ExecStats`] of every level searched (`invention_levels` counts them)
/// and, when `ctx.traced`, one [`Span`] per `Q|_n[d]` level searched (the
/// search stops at the defining level, so a defined outcome at `n` yields
/// `n + 1` spans).  The outcome and statistics never depend on
/// `ctx.traced`.
///
/// Terminal invention returns the answer at the *least* inventing level, so a
/// partially completed search carries no sound answer: a resource limit
/// always surfaces as an error.
///
/// ```
/// use itq_calculus::{EvalConfig, Formula, Query};
/// use itq_invention::{terminal_invention_ctx, TerminalOutcome, DEFAULT_MAX_INVENTED};
/// use itq_object::{Atom, Database, ExecCtx, Instance, Schema, Type};
///
/// // {t/U | ⊤} surfaces an invented value at n = 1.
/// let q = Query::new("t", Type::Atomic, Formula::truth(),
///                    Schema::single("R", Type::Atomic)).unwrap();
/// let db = Database::single("R", Instance::from_atoms(vec![Atom(0)]));
/// let config = EvalConfig::default();
/// let (outcome, stats, levels) =
///     terminal_invention_ctx(&q, &db, DEFAULT_MAX_INVENTED, &config, &ExecCtx::default())
///         .unwrap();
/// assert!(matches!(outcome, TerminalOutcome::Defined { n: 1, .. }));
/// assert!(stats.candidates_checked > 0);
/// assert!(levels.is_none(), "untraced runs record no level spans");
/// ```
pub fn terminal_invention_ctx<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    max_invented: usize,
    config: &EvalConfig,
    ctx: &ExecCtx,
) -> Result<(TerminalOutcome, ExecStats, Option<Vec<Span>>), InventionError> {
    let domain = query.evaluation_domain(db);
    let (mut stats, mut spans) = (ExecStats::default(), ctx.traced.then(Vec::new));
    for n in 0..=max_invented {
        let (answer, unrestricted) =
            sweep_level(query, db, &domain, n, config, ctx, &mut stats, &mut spans)?;
        if unrestricted > answer.len() {
            let outcome = TerminalOutcome::Defined { n, answer };
            return Ok((outcome, stats, spans));
        }
    }
    let outcome = TerminalOutcome::UndefinedWithinBound {
        tried: max_invented + 1,
    };
    Ok((outcome, stats, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_calculus::{Formula, Query, Term};
    use itq_object::{Schema, Type};

    fn unary_schema() -> Schema {
        Schema::single("R", Type::Atomic)
    }

    fn unary_db(n: u32) -> Database {
        Database::single("R", Instance::from_atoms((0..n).map(Atom)))
    }

    /// `{t/U | R(t) ∧ ∃y/U (¬R(y))}`: returns R exactly when some atom outside R
    /// is available — false under the limited interpretation, true with ≥1
    /// invented value.
    fn needs_external_witness() -> Query {
        Query::new(
            "t",
            Type::Atomic,
            Formula::and(vec![
                Formula::pred("R", Term::var("t")),
                Formula::exists(
                    "y",
                    Type::Atomic,
                    Formula::not(Formula::pred("R", Term::var("y"))),
                ),
            ]),
            unary_schema(),
        )
        .unwrap()
    }

    #[test]
    fn invention_levels_change_answers() {
        let q = needs_external_witness();
        let db = unary_db(3);
        let cfg = EvalConfig::default();
        let (level0, _) = eval_with_invented(&q, &db, 0, &cfg).unwrap();
        assert!(level0.is_empty(), "no witness without invention");
        let (level1, _) = eval_with_invented(&q, &db, 1, &cfg).unwrap();
        assert_eq!(level1.len(), 3, "one invented value provides the witness");
        // The answer never contains an invented value.
        let original = q.evaluation_domain(&db);
        for v in level1.iter() {
            assert!(v.active_domain().iter().all(|a| original.contains(a)));
        }
    }

    #[test]
    fn finite_invention_unions_all_levels() {
        let q = needs_external_witness();
        let db = unary_db(2);
        let cfg = EvalConfig::default();
        let (report, stats, _) =
            finite_invention_ctx(&q, &db, DEFAULT_MAX_INVENTED, &cfg, &ExecCtx::default()).unwrap();
        assert_eq!(stats.invention_levels, 5);
        assert!(eval_with_invented(&q, &db, 0, &cfg).unwrap().0.is_empty());
        assert_eq!(eval_with_invented(&q, &db, 1, &cfg).unwrap().0.len(), 2);
        assert_eq!(report.union.len(), 2);
        assert!(report.stabilised_at.is_some());
    }

    #[test]
    fn relational_queries_gain_nothing_from_invention() {
        // Theorem 6.11 (executable spot-check): for a pure relational-calculus
        // query, Q|_n = Q|_0 for every n.
        let q = Query::new(
            "t",
            Type::flat_tuple(2),
            Formula::exists(
                "x",
                Type::flat_tuple(2),
                Formula::and(vec![
                    Formula::pred("PAR", Term::var("x")),
                    Formula::eq(Term::proj("t", 1), Term::proj("x", 2)),
                    Formula::eq(Term::proj("t", 2), Term::proj("x", 1)),
                ]),
            ),
            Schema::single("PAR", Type::flat_tuple(2)),
        )
        .unwrap();
        let db = Database::single("PAR", Instance::from_pairs(vec![(Atom(0), Atom(1))]));
        let cfg = EvalConfig::default();
        let (baseline, _) = eval_with_invented(&q, &db, 0, &cfg).unwrap();
        for n in 1..4 {
            let (with_invention, _) = eval_with_invented(&q, &db, n, &cfg).unwrap();
            assert_eq!(with_invention, baseline, "n = {n}");
        }
    }

    #[test]
    fn bounded_invention_respects_the_bound_function() {
        let q = needs_external_witness();
        let db = unary_db(2);
        let cfg = EvalConfig::default();
        // Bound 0: no invention allowed → empty.
        let zero = bounded_invention(&q, &db, |_| 0, &cfg).unwrap();
        assert!(zero.is_empty());
        // Bound n ↦ n: plenty of invention → full answer.
        let linear = bounded_invention(&q, &db, |n| n, &cfg).unwrap();
        assert_eq!(linear.len(), 2);
    }

    #[test]
    fn terminal_invention_detects_the_first_inventing_level() {
        // {t/U | ⊤} outputs every atom in range, so with 1 invented value the
        // unrestricted answer already contains an invented atom.
        let q = Query::new("t", Type::Atomic, Formula::truth(), unary_schema()).unwrap();
        let db = unary_db(2);
        let outcome =
            terminal_invention(&q, &db, DEFAULT_MAX_INVENTED, &EvalConfig::default()).unwrap();
        match outcome {
            TerminalOutcome::Defined { n, answer } => {
                assert_eq!(n, 1);
                // The restricted answer only holds original atoms.
                assert_eq!(answer.len(), 2);
            }
            other => panic!("expected defined outcome, got {other:?}"),
        }
    }

    #[test]
    fn invented_atoms_stay_outside_a_domain_holding_the_largest_id() {
        // `{t/U | ¬R(t)}` answers only invented atoms, so terminal invention
        // is defined at n = 1 whichever ids R holds (Proposition 6.1).
        let q = Query::new(
            "t",
            Type::Atomic,
            Formula::not(Formula::pred("R", Term::var("t"))),
            unary_schema(),
        )
        .unwrap();
        for top in [7, u32::MAX] {
            let db = Database::single("R", Instance::from_atoms([Atom(0), Atom(top)]));
            let outcome =
                terminal_invention(&q, &db, DEFAULT_MAX_INVENTED, &EvalConfig::default()).unwrap();
            let expected = TerminalOutcome::Defined {
                n: 1,
                answer: Instance::empty(),
            };
            assert_eq!(outcome, expected, "R = {{a0, a{top}}}");
            let (_, level) = eval_with_invented(&q, &db, 2, &EvalConfig::default()).unwrap();
            assert_eq!(level.result.len(), 2, "two atoms outside R at n = 2");
        }
        // Ids above the largest atom are kept while they fit.
        let near_top = BTreeSet::from([Atom(3), Atom(u32::MAX - 2)]);
        assert_eq!(
            fresh_atoms(&near_top, 2),
            [Atom(u32::MAX - 1), Atom(u32::MAX)]
        );
        assert_eq!(fresh_atoms(&near_top, 3), [Atom(0), Atom(1), Atom(2)]);
    }

    #[test]
    fn terminal_invention_reports_undefined_within_bound() {
        // {t/U | R(t)} never outputs an invented value, so terminal invention is
        // undefined (the paper's "?").
        let q = Query::new(
            "t",
            Type::Atomic,
            Formula::pred("R", Term::var("t")),
            unary_schema(),
        )
        .unwrap();
        let db = unary_db(2);
        let outcome = terminal_invention(&q, &db, 2, &EvalConfig::default()).unwrap();
        assert_eq!(outcome, TerminalOutcome::UndefinedWithinBound { tried: 3 });
    }

    #[test]
    fn even_cardinality_via_invention_example_6_2_style() {
        // With invention, parity can be decided with a *flat* intermediate pairing
        // held in a variable of type {[U,U]} whose left column uses invented
        // "indices": here we check the simpler observable from Example 6.2's
        // discussion — the query that needs an external witness has, for every n,
        // answers that are always restricted to the original domain.
        let q = needs_external_witness();
        let db = unary_db(4);
        let original = q.evaluation_domain(&db);
        for n in 0..=2 {
            let (answer, _) = eval_with_invented(&q, &db, n, &EvalConfig::default()).unwrap();
            for v in answer.iter() {
                assert!(v.active_domain().iter().all(|a| original.contains(a)));
            }
        }
    }

    #[test]
    fn traced_invention_is_identical_and_records_one_span_per_level() {
        let q = needs_external_witness();
        let db = unary_db(2);
        let config = EvalConfig::default();
        let plain = ExecCtx::default();
        let traced = ExecCtx {
            traced: true,
            ..plain
        };

        let (plain_report, plain_stats, none) =
            finite_invention_ctx(&q, &db, 3, &config, &plain).unwrap();
        assert!(none.is_none());
        let (traced_report, traced_stats, spans) =
            finite_invention_ctx(&q, &db, 3, &config, &traced).unwrap();
        let spans = spans.expect("traced runs record level spans");
        assert_eq!(plain_report, traced_report);
        assert_eq!(plain_stats, traced_stats);
        assert_eq!(spans.len(), 4, "one span per level 0..=3");
        assert_eq!(spans[0].name, "Q|_0[d]");
        assert_eq!(spans[0].field("answers"), Some(0));
        assert_eq!(spans[1].field("invented"), Some(1));
        assert_eq!(spans[1].field("answers"), Some(2));
        let span_steps: u64 = spans.iter().map(|s| s.field("steps").unwrap()).sum();
        assert_eq!(
            span_steps, traced_stats.steps,
            "level spans cover all steps"
        );

        let (plain_outcome, plain_term_stats, _) =
            terminal_invention_ctx(&q, &db, 3, &config, &plain).unwrap();
        let (traced_outcome, traced_term_stats, term_spans) =
            terminal_invention_ctx(&q, &db, 3, &config, &traced).unwrap();
        assert_eq!(plain_outcome, traced_outcome);
        assert_eq!(plain_term_stats, traced_term_stats);
        assert_eq!(
            traced_term_stats.invention_levels, 4,
            "one per level searched"
        );
        assert_eq!(
            term_spans.map(|spans| spans.len()),
            Some(4),
            "undefined search visits every level"
        );
    }
}
