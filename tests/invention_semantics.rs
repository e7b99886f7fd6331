//! Integration tests for Section 6: invented-value semantics interacting with the
//! query library, the universal-type codec, and the engine facade.

use itq_calculus::eval::EvalConfig;
use itq_calculus::{Formula, Query, Term};
use itq_core::prelude::*;
use itq_core::queries;
use itq_invention::{
    bounded_invention, eval_with_invented, finite_invention, terminal_invention, TerminalOutcome,
    UniversalCodec, DEFAULT_MAX_INVENTED,
};
use itq_workloads::people::person_database;

/// Theorem 6.11 (spot-check): invention does not change the answers of
/// relational-calculus queries.
#[test]
fn relational_queries_are_invention_invariant() {
    let queries = vec![queries::grandparent_query(), queries::sibling_query()];
    let db = queries::parent_database(&[
        (Atom(0), Atom(1)),
        (Atom(0), Atom(2)),
        (Atom(1), Atom(3)),
        (Atom(3), Atom(4)),
    ]);
    let config = EvalConfig::default();
    for query in queries {
        let (baseline, _) = eval_with_invented(&query, &db, 0, &config).unwrap();
        for n in 1..=3 {
            let (answer, _) = eval_with_invented(&query, &db, n, &config).unwrap();
            assert_eq!(answer, baseline, "n = {n}");
        }
    }
}

/// The even-cardinality query is also invention-invariant: its matching variable
/// is already restricted to pairs of persons.
#[test]
fn parity_query_is_invention_invariant_on_small_inputs() {
    let query = queries::even_cardinality_query();
    let config = EvalConfig::default();
    for n in 0..4u32 {
        let db = person_database(n);
        let (baseline, _) = eval_with_invented(&query, &db, 0, &config).unwrap();
        let (with_one, _) = eval_with_invented(&query, &db, 1, &config).unwrap();
        assert_eq!(baseline, with_one, "n = {n}");
        // Odd committees (and the empty one, which has no persons to return) give
        // an empty answer; non-empty even committees return every person.
        let expect_empty = n == 0 || n % 2 == 1;
        assert_eq!(baseline.is_empty(), expect_empty, "n = {n}");
    }
}

/// A query whose truth genuinely depends on invention: "is the committee smaller
/// than the whole universe?"  Under the limited interpretation the answer is
/// empty; with any invention it returns the committee.
fn needs_invention_query() -> Query {
    Query::new(
        "t",
        Type::Atomic,
        Formula::and(vec![
            Formula::pred("PERSON", Term::var("t")),
            Formula::exists(
                "outsider",
                Type::Atomic,
                Formula::not(Formula::pred("PERSON", Term::var("outsider"))),
            ),
        ]),
        Schema::single("PERSON", Type::Atomic),
    )
    .unwrap()
}

#[test]
fn finite_invention_strictly_extends_the_limited_interpretation() {
    let query = needs_invention_query();
    let db = person_database(3);
    let config = EvalConfig::default();
    let report = finite_invention(&query, &db, DEFAULT_MAX_INVENTED, &config).unwrap();
    let (level0, _) = eval_with_invented(&query, &db, 0, &config).unwrap();
    let (level1, _) = eval_with_invented(&query, &db, 1, &config).unwrap();
    assert!(level0.is_empty());
    assert_eq!(level1.len(), 3);
    assert_eq!(report.union.len(), 3);
    // Bounded invention with bound 0 coincides with the limited interpretation.
    let zero = bounded_invention(&query, &db, |_| 0, &EvalConfig::default()).unwrap();
    assert!(zero.is_empty());
}

#[test]
fn terminal_invention_is_defined_exactly_when_invented_values_surface() {
    let db = person_database(2);
    // {t/U | ⊤}: defined at n = 1 because the unrestricted answer contains the
    // invented atom.
    let everything = Query::new(
        "t",
        Type::Atomic,
        Formula::truth(),
        Schema::single("PERSON", Type::Atomic),
    )
    .unwrap();
    let config = EvalConfig::default();
    match terminal_invention(&everything, &db, DEFAULT_MAX_INVENTED, &config).unwrap() {
        TerminalOutcome::Defined { n, answer } => {
            assert_eq!(n, 1);
            assert_eq!(answer.len(), 2);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The guarded query never outputs invented values → undefined within bound.
    let guarded = needs_invention_query();
    match terminal_invention(&guarded, &db, DEFAULT_MAX_INVENTED, &config).unwrap() {
        TerminalOutcome::UndefinedWithinBound { tried } => assert!(tried >= 1),
        other => panic!("unexpected {other:?}"),
    }
}

/// The universal-type codec composes with query evaluation: encode the *answer*
/// of a set-height-1 query into `T_univ` and decode it back.
#[test]
fn query_answers_round_trip_through_the_universal_type() {
    let engine = Engine::new();
    let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
    let answer = engine
        .prepare(&queries::transitive_closure_query())
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap()
        .result;
    // The answer is an instance of [U,U]; view it as a single object of {[U,U]}.
    let as_object = answer.as_set_value();
    let ty = Type::set(Type::flat_tuple(2));
    let mut universe = Universe::new();
    let codec = UniversalCodec::new(&ty, &mut universe);
    let encoded = codec.encode(&as_object, &mut universe).unwrap();
    assert!(encoded.value.has_type(&UniversalCodec::target_type()));
    assert_eq!(codec.decode(&encoded).unwrap(), as_object);
    // The encoding is strictly larger (it spells out every edge of the object
    // tree) but stays at set-height 1 — the collapse mechanism of Theorem 6.4.
    assert!(encoded.rows() >= answer.len());
    assert_eq!(UniversalCodec::target_type().set_height(), 1);
    assert_eq!(ty.set_height(), 1);
}

/// Engine-level smoke test covering all three semantics on one prepared query.
#[test]
fn engine_semantics_dispatch() {
    let engine = Engine::new();
    let db = person_database(3);
    let prepared = engine.prepare(&needs_invention_query()).unwrap();
    let limited = prepared.execute(&db, Semantics::Limited).unwrap();
    let finite = prepared.execute(&db, Semantics::FiniteInvention).unwrap();
    let terminal = prepared.execute(&db, Semantics::TerminalInvention).unwrap();
    assert!(limited.result.is_empty());
    assert_eq!(finite.result.len(), 3);
    // The guarded query never emits invented values, so terminal invention is a
    // bounded "undefined".
    assert!(terminal.bounded_approximation);
    assert_eq!(terminal.defined_at, None);
    // Each outcome remembers the semantics that produced it, and the invention
    // paths report how many levels they explored.
    assert_eq!(limited.semantics, Semantics::Limited);
    assert_eq!(
        finite.stats.invention_levels as usize,
        engine.max_invented() + 1
    );
}
