//! Equivalence suite for the compiled slot-based evaluator: on randomly
//! generated well-typed queries and databases, `eval_compiled` must be
//! bit-identical to the tree walker — same answers, same shared statistics
//! counters, and the same budget-error classification — and a `Prepared`
//! handle must produce the same outcome as the tree walker called directly
//! ([`walker_outcome`]), under all three semantics.
//!
//! A conjunctive query prepared by the default engine runs through a
//! physical plan instead of the slots, under every semantics: one run of the
//! plan answers every invention level.  On those rows the pipeline-level
//! comparison pins the route's contract (identical answers, flags, errors
//! and invention levels; calculus counters zero; joins probed), while
//! [`assert_backends_agree`] keeps pinning the slot evaluator's counters on
//! the same queries.
//!
//! The suite also pins the domain-cache invalidation contract: the invention
//! semantics extend the atom set per level, and a domain memoized over `X`
//! must never be reused for `X ∪ {fresh}` (changed atom set ⇒ changed
//! `cons_X`).

use itq::walker::{assert_matches_walker, walker_outcome};
use itq_calculus::compile::compile;
use itq_calculus::CalcError;
use itq_core::prelude::*;
use itq_core::queries;
use itq_invention::eval_with_invented;
use proptest::prelude::*;

/// Compare one evaluation through both backends: identical answers and
/// shared statistics on success, identical error classification on failure.
fn assert_backends_agree(query: &Query, db: &Database, config: &EvalConfig) {
    let compiled = compile(query).expect("validated queries always compile");
    let slow = query.eval_full(db, config);
    let fast = compiled.eval_full(db, config);
    match (slow, fast) {
        (Ok(slow), Ok(fast)) => {
            assert_eq!(slow.result, fast.result, "answers diverge");
            assert_eq!(slow.stats.steps, fast.stats.steps, "step counts diverge");
            assert_eq!(
                slow.stats.quantifier_values, fast.stats.quantifier_values,
                "quantifier draws diverge"
            );
            assert_eq!(
                slow.stats.candidates_checked, fast.stats.candidates_checked,
                "candidate counts diverge"
            );
            assert_eq!(
                slow.stats.max_domain_seen, fast.stats.max_domain_seen,
                "domain maxima diverge"
            );
        }
        (Err(slow), Err(fast)) => {
            assert_eq!(slow, fast, "error classification diverges");
        }
        (slow, fast) => panic!("backends disagree: tree {slow:?} vs compiled {fast:?}"),
    }
}

/// The engine whose handles the suite checks against the tree walker.
fn engine() -> Engine {
    Engine::builder().max_invented(1).build()
}

/// The contract of a conjunctive query run through its physical plan: no
/// formula is evaluated, and its joins probe.
fn assert_planned_route(stats: &ExecStats, context: &str) {
    assert_eq!(stats.steps, 0, "{context}: routed runs evaluate no formula");
    assert_eq!(stats.quantifier_values, 0, "{context}");
    assert_eq!(stats.candidates_checked, 0, "{context}");
    assert_eq!(stats.max_domain_seen, 0, "{context}");
    assert!(stats.join_probes > 0, "{context}: routed runs join");
}

/// Compare a `Prepared::execute` outcome with the tree walker's under the
/// same engine configuration.
fn assert_outcomes_agree_on(engine: &Engine, query: &Query, db: &Database, semantics: Semantics) {
    let prepared = engine.prepare(query).unwrap();
    let routed = prepared.physical_plan().is_some();
    let fast = prepared.execute(db, semantics);
    let slow = walker_outcome(engine, query, db, semantics);
    let context = format!("{semantics}: {query}");
    if let (Err(fast), Err(slow)) = (&fast, &slow) {
        assert_eq!(slow, fast, "{context}: error classification diverges");
    }
    let Some((fast, slow)) = assert_matches_walker(&fast, &slow, &context) else {
        return;
    };
    assert_eq!(
        slow.stats.invention_levels, fast.stats.invention_levels,
        "{context}"
    );
    if routed {
        assert_planned_route(&fast.stats, &context);
        return;
    }
    assert_eq!(slow.stats.steps, fast.stats.steps, "{context}");
    assert_eq!(
        slow.stats.quantifier_values, fast.stats.quantifier_values,
        "{context}"
    );
    assert_eq!(
        slow.stats.candidates_checked, fast.stats.candidates_checked,
        "{context}"
    );
    assert_eq!(
        slow.stats.max_domain_seen, fast.stats.max_domain_seen,
        "{context}"
    );
}

#[test]
fn exemplar_workloads_agree_under_all_semantics() {
    let engine = engine();
    for (name, query, db) in queries::exemplar_workloads() {
        for semantics in Semantics::ALL {
            assert_outcomes_agree_on(&engine, &query, &db, semantics);
        }
        // Limited evaluation is also pinned at the raw-evaluator level.
        assert_backends_agree(&query, &db, &EvalConfig::default());
        let _ = name;
    }
}

/// `{t/U | R(t) ∧ ∃y/U ¬R(y)}` — empty under the limited interpretation,
/// full once one invented atom provides the witness.  Used to prove the
/// domain cache is per-atom-set: a stale level-0 `U` domain would make the
/// level-1 witness search fail.
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
        Schema::single("R", Type::Atomic),
    )
    .unwrap()
}

#[test]
fn invention_invalidates_the_domain_cache_when_scratch_atoms_arrive() {
    let query = needs_external_witness();
    let compiled = compile(&query).unwrap();
    let db = Database::single("R", Instance::from_atoms(vec![Atom(0), Atom(1)]));
    let config = EvalConfig::default();

    // Level by level through the compiled form: the level-0 atom set has no
    // witness, level 1 must see a quantifier domain that *contains* the fresh
    // atom — which can only happen if cons_X(U) was rebuilt for the extended
    // atom set rather than replayed from a stale memo.
    let (level0, eval0) = eval_with_invented(&compiled, &db, 0, &config).unwrap();
    assert!(level0.is_empty(), "no witness without invention");
    assert_eq!(eval0.stats.max_domain_seen, 2);
    let (level1, eval1) = eval_with_invented(&compiled, &db, 1, &config).unwrap();
    assert_eq!(level1.len(), 2, "one invented value provides the witness");
    assert_eq!(
        eval1.stats.max_domain_seen, 3,
        "the quantifier domain grew with the scratch atom"
    );

    // The full pipeline agrees with the tree walker end to end.
    let engine = engine();
    for semantics in Semantics::ALL {
        assert_outcomes_agree_on(&engine, &query, &db, semantics);
    }
    // With the default invention bound the union stabilises after level 1 —
    // possible only because each level re-materialised its domains and found
    // the witness the level-0 cache could not contain.
    let outcome = Engine::new()
        .prepare(&query)
        .unwrap()
        .execute(&db, Semantics::FiniteInvention)
        .unwrap();
    assert_eq!(outcome.result.len(), 2);
    assert!(!outcome.bounded_approximation);
    assert_eq!(outcome.stabilised_at, Some(2));
}

#[test]
fn compiled_outcomes_expose_the_cache_counters() {
    let engine = Engine::new();
    let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
    // Outside the conjunctive fragment, so the compiled slots run it.
    let enumerated = queries::excluding_parent_pairs(&queries::grandparent_query());
    let outcome = engine
        .prepare(&enumerated)
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap();
    assert!(outcome.stats.interned_values > 0);
    assert!(outcome.stats.domain_cache_misses > 0);
    assert!(
        outcome.stats.domain_cache_hits > outcome.stats.domain_cache_misses,
        "repeated quantifier entries must hit the memo"
    );
    // The tree walker reports zeros.
    let slow = queries::grandparent_query()
        .eval_full(&db, &EvalConfig::default())
        .unwrap();
    assert_eq!(slow.stats.domain_cache_hits, 0);
    assert_eq!(slow.stats.domain_cache_misses, 0);
    assert_eq!(slow.stats.interned_values, 0);
    // The conjunctive grandparent runs its plan: it joins instead of
    // drawing from domains, and over atom rows, without the interner.
    let routed = engine
        .prepare(&queries::grandparent_query())
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap();
    assert_eq!(routed.result, slow.result);
    assert_planned_route(&routed.stats, "grandparent");
    assert_eq!(routed.stats.domain_cache_hits, 0);
    assert_eq!(routed.stats.domain_cache_misses, 0);
    assert_eq!(routed.stats.interned_values, 0);
}

/// Random well-typed queries: one of the repo's canonical PAR-schema queries
/// with a stack of validity-preserving decorations (arbitrary random formulas
/// are almost never t-wffs, so generation works by construction).  The
/// decorations deliberately include non-short-circuit connectives (`↔`),
/// negation, and closed higher-type quantifiers, so the compiled interpreter
/// is exercised on every formula constructor.
fn par_query() -> BoxedStrategy<Query> {
    let base = (0usize..3).prop_map(|i| match i {
        0 => queries::grandparent_query(),
        1 => queries::sibling_query(),
        _ => queries::transitive_closure_query(),
    });
    (base, proptest::collection::vec(0usize..6, 0..4))
        .prop_map(|(q, decorations)| {
            let mut body = q.body().clone();
            for d in decorations {
                body = match d {
                    0 => Formula::And(vec![body]),
                    1 => Formula::Or(vec![body, Formula::falsity()]),
                    2 => Formula::not(Formula::not(body)),
                    3 => Formula::iff(body, Formula::truth()),
                    4 => Formula::implies(Formula::truth(), body),
                    // A closed quantified conjunct with a set-height-2 type —
                    // the hyper-exponential fragment under a tiny atom set.
                    _ => Formula::And(vec![
                        body,
                        Formula::exists("w", Type::nested_set(2), Formula::truth()),
                    ]),
                };
            }
            q.with_body(body).expect("decorations preserve validity")
        })
        .boxed()
}

/// Small random parent databases (0–4 edges over at most 3 atoms — the
/// transitive-closure query's `∀x/{[U,U]}` domain is `2^(n²)`, so 3 atoms is
/// the largest size where full tree-walk enumeration stays in milliseconds).
fn par_db() -> BoxedStrategy<Database> {
    proptest::collection::vec((0u32..3, 0u32..3), 0..5)
        .prop_map(|edges| {
            let pairs: Vec<(Atom, Atom)> =
                edges.into_iter().map(|(a, b)| (Atom(a), Atom(b))).collect();
            queries::parent_database(&pairs)
        })
        .boxed()
}

/// The engine for the property sweep, with a step cap on every evaluation
/// path (invention levels extend the atom set, and one extra atom can
/// multiply the transitive-closure workload by ~500×).
fn capped_engine() -> Engine {
    let capped = EvalConfig {
        max_steps: 500_000,
        ..EvalConfig::default()
    };
    Engine::builder()
        .calc_config(capped)
        .max_invented(1)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Limited interpretation: answers and shared statistics are
    /// bit-identical on arbitrary decorated queries and databases.
    #[test]
    fn eval_compiled_equals_evaluate(q in par_query(), db in par_db()) {
        assert_backends_agree(&q, &db, &EvalConfig::default());
    }

    /// Budget errors classify identically: under tiny budgets many of the
    /// decorated queries die on the candidate, quantifier-domain, or step
    /// budget, and both backends must report the same `CalcError`.
    #[test]
    fn budget_errors_classify_identically(q in par_query(), db in par_db()) {
        assert_backends_agree(&q, &db, &EvalConfig::tiny());
        let step_starved = EvalConfig { max_steps: 7, ..EvalConfig::default() };
        assert_backends_agree(&q, &db, &step_starved);
    }

    /// The full pipeline: a `Prepared` handle produces the tree walker's
    /// outcome under every semantics.
    #[test]
    fn prepared_outcomes_agree_across_backends(q in par_query(), db in par_db()) {
        let engine = capped_engine();
        for semantics in Semantics::ALL {
            assert_outcomes_agree_on(&engine, &q, &db, semantics);
        }
    }
}

#[test]
fn tiny_budget_candidate_error_matches_exactly() {
    // Pin one concrete budget error end to end (not just equality of the two
    // backends, but the exact classification both produce).
    let q = Query::new(
        "t",
        Type::set(Type::flat_tuple(2)),
        Formula::truth(),
        queries::parent_schema(),
    )
    .unwrap();
    let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
    let compiled_err = compile(&q)
        .unwrap()
        .eval_full(&db, &EvalConfig::tiny())
        .unwrap_err();
    let tree_err = q.eval_full(&db, &EvalConfig::tiny()).unwrap_err();
    assert_eq!(compiled_err, tree_err);
    assert!(matches!(compiled_err, CalcError::Budget { limit: 64, .. }));
}
