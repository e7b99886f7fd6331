//! Integration suite for the prepare-once / execute-many pipeline: on the
//! genealogy, parity, and exponent workloads, [`Prepared::execute`] must be
//! bit-identical to the per-semantics reference drivers under all three
//! semantics, a single handle must survive many executions, and the static
//! artifacts cached at prepare time must equal what the underlying crates
//! compute directly (property-tested over generated queries).

use itq_calculus::{Formula, Query};
use itq_core::prelude::*;
use itq_core::queries;
use itq_invention::{finite_invention, terminal_invention};
use proptest::prelude::*;

/// The exemplar queries of the three workloads named by the acceptance
/// criteria, each paired with a database small enough for every semantics —
/// the same grid the `report --stats-json` trajectory records.
fn workloads() -> Vec<(&'static str, Query, Database)> {
    queries::exemplar_workloads()
}

/// A tight invention bound keeps the set-height-1 workloads affordable under
/// the invention semantics while still exercising the n > 0 levels.
fn engine() -> Engine {
    Engine::builder().max_invented(1).build()
}

#[test]
fn prepared_execute_is_bit_identical_to_the_legacy_api_under_all_semantics() {
    let engine = engine();
    for (name, query, db) in workloads() {
        let prepared = engine.prepare(&query).unwrap();
        // Limited: the tree walker over the source query is the reference.
        let evaluation = query.eval_full(&db, engine.calc_config()).unwrap();
        let limited = prepared.execute(&db, Semantics::Limited).unwrap();
        assert_eq!(evaluation.result, limited.result, "{name}");
        assert!(!limited.bounded_approximation, "{name}");
        let (reference, stats) = (&evaluation.stats, &limited.stats);
        if prepared.physical_plan().is_some() {
            // A conjunctive exemplar runs its plan: joins, and no formula.
            assert_eq!(stats.steps, 0, "{name}");
            assert_eq!(stats.quantifier_values, 0, "{name}");
            assert_eq!(stats.candidates_checked, 0, "{name}");
            assert_eq!(stats.max_domain_seen, 0, "{name}");
            assert!(stats.join_probes > 0, "{name}");
        } else {
            assert_eq!(reference.steps, stats.steps, "{name}");
            assert_eq!(
                reference.quantifier_values, stats.quantifier_values,
                "{name}"
            );
            assert_eq!(
                reference.candidates_checked, stats.candidates_checked,
                "{name}"
            );
            assert_eq!(reference.max_domain_seen, stats.max_domain_seen, "{name}");
        }
        // Invention: the drivers over the source query.
        let (max_invented, config) = (engine.max_invented(), engine.calc_config());
        let report = finite_invention(&query, &db, max_invented, config).unwrap();
        let finite = prepared.execute(&db, Semantics::FiniteInvention).unwrap();
        assert_eq!(report.union, finite.result, "{name}");
        assert_eq!(report.stabilised_at, finite.stabilised_at, "{name}");
        assert_eq!(
            report.stabilised_at.is_none(),
            finite.bounded_approximation,
            "{name}"
        );
        let outcome = terminal_invention(&query, &db, max_invented, config).unwrap();
        let terminal = prepared.execute(&db, Semantics::TerminalInvention).unwrap();
        match outcome {
            TerminalOutcome::Defined { n, answer } => {
                assert_eq!(terminal.defined_at, Some(n), "{name}");
                assert_eq!(terminal.result, answer, "{name}");
                assert!(!terminal.bounded_approximation, "{name}");
            }
            TerminalOutcome::UndefinedWithinBound { tried } => {
                assert_eq!(terminal.defined_at, None, "{name}");
                assert!(terminal.result.is_empty(), "{name}");
                assert!(terminal.bounded_approximation, "{name}");
                assert_eq!(terminal.stats.invention_levels as usize, tried, "{name}");
            }
        }
    }
}

#[test]
fn prepare_once_execute_many_is_stable_across_repetition_and_databases() {
    let engine = engine();
    let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
    // Repeated execution of one handle never drifts (the invention scratch
    // space is rebuilt per call, so earlier calls cannot leak into later ones).
    let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
    for semantics in Semantics::ALL {
        let first = prepared.execute(&db, semantics).unwrap();
        for _ in 0..3 {
            let again = prepared.execute(&db, semantics).unwrap();
            assert_eq!(first.result, again.result, "{semantics}");
            assert_eq!(
                first.bounded_approximation, again.bounded_approximation,
                "{semantics}"
            );
            // Whole-stats equality modulo wall clock: every deterministic
            // evaluator counter must be reproduced run over run.
            assert_eq!(
                first.stats.deterministic(),
                again.stats.deterministic(),
                "{semantics}"
            );
        }
    }
    // One handle, many databases: identical to a freshly prepared handle each
    // time (prepare-once loses nothing).
    for n in 2..=4u32 {
        let edges: Vec<(Atom, Atom)> = (0..n - 1).map(|i| (Atom(i), Atom(i + 1))).collect();
        let db = queries::parent_database(&edges);
        let reused = prepared.execute(&db, Semantics::Limited).unwrap();
        let fresh = engine
            .prepare(&queries::grandparent_query())
            .unwrap()
            .execute(&db, Semantics::Limited)
            .unwrap();
        assert_eq!(reused.result, fresh.result, "n = {n}");
        assert_eq!(
            reused.stats.deterministic(),
            fresh.stats.deterministic(),
            "n = {n}"
        );
    }
}

#[test]
fn execute_shares_the_handle_without_exclusive_access() {
    // The REPL use case behind the `&mut` asymmetry fix: several readers of
    // one handle evaluate limited queries with no mutable borrow in sight.
    let engine = engine();
    let prepared = engine.prepare(&queries::sibling_query()).unwrap();
    let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(0), Atom(2))]);
    let readers = [&prepared, &prepared, &prepared];
    for reader in readers {
        assert_eq!(
            reader
                .execute(&db, Semantics::Limited)
                .unwrap()
                .result
                .len(),
            2
        );
    }
    // Invention semantics also go through `&self`: invented atoms are ids
    // above the evaluation domain, and the engine's universe is untouched.
    let before = engine.universe().len();
    let _ = prepared.execute(&db, Semantics::FiniteInvention).unwrap();
    assert_eq!(engine.universe().len(), before);
}

/// Well-typed queries: one of the repo's canonical queries with a random stack
/// of validity-preserving decorations applied to its body (arbitrary random
/// formulas are almost never t-wffs, so generation works by construction).
fn query() -> BoxedStrategy<Query> {
    let base = (0usize..4).prop_map(|i| match i {
        0 => queries::grandparent_query(),
        1 => queries::sibling_query(),
        2 => queries::transitive_closure_query(),
        _ => queries::even_cardinality_query(),
    });
    (base, proptest::collection::vec(0usize..4, 0..4))
        .prop_map(|(q, decorations)| {
            let mut body = q.body().clone();
            for d in decorations {
                body = match d {
                    0 => Formula::And(vec![body]),
                    1 => Formula::Or(vec![body]),
                    2 => Formula::not(Formula::not(body)),
                    // A closed quantified conjunct with a type of height 2.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The classification cached in a `Prepared` handle is exactly the
    /// query's own classification, for arbitrary (decorated) queries.
    #[test]
    fn prepared_classification_equals_query_classification(q in query()) {
        let engine = Engine::new();
        let prepared = engine.prepare(&q).unwrap();
        prop_assert_eq!(prepared.classification(), &q.classification());
        prop_assert_eq!(prepared.query(), &q);
    }
}
