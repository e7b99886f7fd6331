//! Parallel == sequential differential suite.
//!
//! The `parallelism(n)` knob must trade wall-clock only: answers, flags,
//! error strings (logical budgets *and* governor trips), and every
//! deterministic counter are byte-identical at every worker count, on both
//! backends (planned algebra and compiled calculus), under all three
//! semantics.  This suite is the executable form of that contract:
//!
//! * random well-typed algebra expressions and random small databases run
//!   through `Prepared::with_parallelism` at workers ∈ {1, 2, 8}, under
//!   default and starved step budgets;
//! * the exemplar calculus workloads (grandparent, sibling, parity,
//!   perfect-square, total orders) do the same on the compiled-calculus
//!   route;
//! * deterministic governor trips (zero deadline, pre-raised cancellation)
//!   surface one canonical message each, independent of worker count;
//! * stats keep their shape: the `partitions` counter is 0 exactly on the
//!   sequential paths (workers = 1, or the planner at any setting), and the
//!   deterministic work counters (`steps`,
//!   `quantifier_values`, `candidates_checked`, `max_domain_seen`,
//!   `join_probes`, `tuples_materialised`) never depend on the worker count.
//!
//! The cache-locality counters (`domain_cache_hits`/`misses`,
//! `interned_values`) keep their *meaning* but not their exact values at
//! workers > 1 — per-worker overlays may re-materialise what a sequential
//! memo would have shared — so they are deliberately not compared.

use itq_core::prelude::*;
use itq_core::queries;
use proptest::prelude::*;

use itq_algebra::AlgExpr;
use itq_calculus::Query;

const WORKER_SWEEP: [usize; 2] = [2, 8];

fn schema() -> Schema {
    Schema::single("PAR", Type::flat_tuple(2)).with("PERSON", Type::Atomic)
}

/// Databases over at most four atoms: enough candidates for the compiled
/// loop to actually partition, small enough for the invention levels.
fn small_db() -> BoxedStrategy<Database> {
    (
        proptest::collection::vec((0u32..4, 0u32..4), 0..8),
        proptest::collection::vec(0u32..4, 0..5),
    )
        .prop_map(|(edges, people)| {
            let pairs: Vec<(Atom, Atom)> =
                edges.into_iter().map(|(a, b)| (Atom(a), Atom(b))).collect();
            Database::single("PAR", Instance::from_pairs(pairs))
                .with("PERSON", Instance::from_atoms(people.into_iter().map(Atom)))
        })
        .boxed()
}

/// A small deterministic family of well-typed algebra expressions, indexed by
/// a proptest-drawn selector: joins, products, powersets, set algebra, and
/// projections.
fn algebra_exemplar(index: usize) -> AlgExpr {
    let join = AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(itq_algebra::SelFormula::coords_eq(2, 3))
        .project(vec![1, 4]);
    match index % 6 {
        0 => join,
        1 => AlgExpr::pred("PAR").product(AlgExpr::pred("PERSON")),
        2 => AlgExpr::pred("PERSON").powerset(),
        3 => join.union(AlgExpr::pred("PAR")),
        4 => AlgExpr::pred("PAR")
            .select(itq_algebra::SelFormula::coords_eq(1, 2))
            .project(vec![1]),
        _ => AlgExpr::pred("PAR")
            .project(vec![2, 1])
            .diff(AlgExpr::pred("PAR")),
    }
}

/// The engine pair at a given step budget.  Budgets are capped so
/// pathological draws die on a classified budget error (whose string must
/// *also* be worker-count independent) instead of burning time.
fn pair(max_steps: u64) -> [(&'static str, Engine); 2] {
    let capped = EvalConfig {
        max_steps,
        ..EvalConfig::default()
    };
    [
        (
            "planner",
            Engine::builder()
                .calc_config(capped)
                .max_invented(1)
                .parallelism(1)
                .build(),
        ),
        (
            "compiled",
            Engine::builder()
                .calc_config(capped)
                .max_invented(1)
                .use_algebra_planner(false)
                .parallelism(1)
                .build(),
        ),
    ]
}

/// Byte-for-byte comparison of a sequential and a parallel outcome: answers,
/// flags, levels, and error *strings* (the rendered form is the contract the
/// REPL and serve mode expose), plus the worker-independent counters.
fn assert_outcomes_byte_identical(
    label: &str,
    semantics: Semantics,
    workers: usize,
    sequential: &Result<QueryOutcome, EngineError>,
    parallel: &Result<QueryOutcome, EngineError>,
) {
    match (sequential, parallel) {
        (Ok(seq), Ok(par)) => {
            assert_eq!(
                seq.result, par.result,
                "{label}/{semantics}: answers at workers={workers}"
            );
            assert_eq!(
                seq.result.iter().collect::<Vec<_>>(),
                par.result.iter().collect::<Vec<_>>(),
                "{label}/{semantics}: answer order at workers={workers}"
            );
            assert_eq!(seq.bounded_approximation, par.bounded_approximation);
            assert_eq!(seq.defined_at, par.defined_at);
            assert_eq!(seq.stabilised_at, par.stabilised_at);
            assert_eq!(seq.semantics, par.semantics);
            for (counter, s, p) in [
                ("steps", seq.stats.steps, par.stats.steps),
                (
                    "quantifier_values",
                    seq.stats.quantifier_values,
                    par.stats.quantifier_values,
                ),
                (
                    "candidates_checked",
                    seq.stats.candidates_checked,
                    par.stats.candidates_checked,
                ),
                (
                    "max_domain_seen",
                    seq.stats.max_domain_seen,
                    par.stats.max_domain_seen,
                ),
                ("join_probes", seq.stats.join_probes, par.stats.join_probes),
                (
                    "tuples_materialised",
                    seq.stats.tuples_materialised,
                    par.stats.tuples_materialised,
                ),
            ] {
                assert_eq!(
                    s, p,
                    "{label}/{semantics}: {counter} must not depend on workers={workers}"
                );
            }
            assert_eq!(
                seq.stats.partitions, 0,
                "{label}/{semantics}: sequential runs report no partitions"
            );
        }
        (Err(seq), Err(par)) => {
            assert_eq!(
                seq.to_string(),
                par.to_string(),
                "{label}/{semantics}: error strings at workers={workers}"
            );
        }
        (seq, par) => panic!(
            "{label}/{semantics}: workers={workers} diverged: sequential {seq:?} vs parallel {par:?}"
        ),
    }
}

fn assert_algebra_parallel_equivalence(expr: &AlgExpr, db: &Database, max_steps: u64) {
    for (label, engine) in pair(max_steps) {
        let prepared = engine
            .prepare_algebra(expr, &schema())
            .expect("exemplar expressions prepare");
        for semantics in Semantics::ALL {
            let sequential = prepared.execute(db, semantics);
            for workers in WORKER_SWEEP {
                let parallel = prepared.with_parallelism(workers).execute(db, semantics);
                assert_outcomes_byte_identical(label, semantics, workers, &sequential, &parallel);
            }
        }
    }
}

fn assert_calculus_parallel_equivalence(query: &Query, db: &Database, max_steps: u64) {
    for (label, engine) in pair(max_steps) {
        let prepared = engine.prepare(query).expect("exemplar queries prepare");
        for semantics in Semantics::ALL {
            let sequential = prepared.execute(db, semantics);
            for workers in WORKER_SWEEP {
                let parallel = prepared.with_parallelism(workers).execute(db, semantics);
                assert_outcomes_byte_identical(label, semantics, workers, &sequential, &parallel);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random databases through the algebra exemplars: both engines ×
    /// {1,2,8} workers × all semantics, under a healthy and a starved step
    /// budget (so budget error strings are compared too).
    #[test]
    fn algebra_handles_are_worker_count_independent(
        index in 0usize..12,
        db in small_db(),
    ) {
        let expr = algebra_exemplar(index);
        assert_algebra_parallel_equivalence(&expr, &db, 500_000);
        assert_algebra_parallel_equivalence(&expr, &db, 1_000);
    }

    /// Random parent databases through the exemplar calculus queries on the
    /// compiled route.
    #[test]
    fn calculus_queries_are_worker_count_independent(
        edges in proptest::collection::vec((0u32..5, 0u32..5), 0..7),
    ) {
        let pairs: Vec<(Atom, Atom)> = edges.into_iter().map(|(a, b)| (Atom(a), Atom(b))).collect();
        let db = queries::parent_database(&pairs);
        assert_calculus_parallel_equivalence(&queries::grandparent_query(), &db, 500_000);
        assert_calculus_parallel_equivalence(&queries::sibling_query(), &db, 50_000);
    }
}

/// Every exemplar workload of the report grid, once, at the full sweep — the
/// non-random anchor of the suite.
#[test]
fn exemplar_workloads_are_worker_count_independent() {
    for (name, query, db) in queries::exemplar_workloads() {
        let engine = Engine::builder().parallelism(1).build();
        let prepared = engine.prepare(&query).expect("exemplars prepare");
        let sequential = prepared.execute(&db, Semantics::Limited);
        for workers in WORKER_SWEEP {
            let parallel = prepared
                .with_parallelism(workers)
                .execute(&db, Semantics::Limited);
            assert_outcomes_byte_identical(
                name,
                Semantics::Limited,
                workers,
                &sequential,
                &parallel,
            );
        }
    }
}

/// Deterministic governor trips surface one canonical message each, no
/// matter the worker count, the backend, or the semantics.
#[test]
fn governor_trips_are_byte_identical_at_every_worker_count() {
    let expr = algebra_exemplar(0);
    let db = Database::single(
        "PAR",
        Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
    )
    .with("PERSON", Instance::empty());

    for (governor, expected) in [
        (
            GovernorConfig {
                deadline_millis: Some(0),
                ..GovernorConfig::default()
            },
            "execution deadline of 0 ms exceeded",
        ),
        (
            {
                let flag = CancelFlag::new();
                flag.cancel();
                GovernorConfig {
                    cancel: Some(flag),
                    ..GovernorConfig::default()
                }
            },
            "execution cancelled",
        ),
    ] {
        for (label, engine) in pair(500_000) {
            let prepared = engine
                .prepare_algebra(&expr, &schema())
                .unwrap()
                .with_governor(governor.clone());
            for workers in [1, 2, 8] {
                for semantics in Semantics::ALL {
                    let err = prepared
                        .with_parallelism(workers)
                        .execute(&db, semantics)
                        .unwrap_err();
                    assert!(
                        matches!(err, EngineError::Resource(_)),
                        "{label}/{semantics}/workers={workers}: {err}"
                    );
                    assert_eq!(
                        err.to_string(),
                        expected,
                        "{label}/{semantics}/workers={workers}"
                    );
                }
            }
        }
    }
}

/// Stats-shape pin: a database big enough to partition reports `partitions`
/// only where the parallel path actually engaged, and the planner is
/// sequential at every worker count.
#[test]
fn partitions_counter_keeps_its_shape() {
    let edges: Vec<(Atom, Atom)> = (0..24).map(|i| (Atom(i), Atom(i + 1))).collect();
    let db = Database::single("PAR", Instance::from_pairs(edges)).with("PERSON", Instance::empty());
    let expr = algebra_exemplar(0);

    let [(_, planner), (_, compiled)] = pair(10_000_000);

    // Planned algebra runs sequentially: the knob is a no-op there.
    let planned = planner.prepare_algebra(&expr, &schema()).unwrap();
    for workers in [1, 4] {
        let outcome = planned
            .with_parallelism(workers)
            .execute(&db, Semantics::Limited)
            .unwrap();
        assert_eq!(outcome.stats.partitions, 0, "workers={workers}");
    }

    // Compiled calculus: the candidate loop partitions across the workers.
    // (A smaller database here — the calculus quantifier domains grow with
    // the square of the atom count.)
    let small =
        queries::parent_database(&(0..6).map(|i| (Atom(i), Atom(i + 1))).collect::<Vec<_>>());
    let query = queries::grandparent_query();
    let compiled_handle = compiled.prepare(&query).unwrap();
    assert_eq!(
        compiled_handle
            .execute(&small, Semantics::Limited)
            .unwrap()
            .stats
            .partitions,
        0
    );
    let compiled_par = compiled_handle
        .with_parallelism(4)
        .execute(&small, Semantics::Limited)
        .unwrap();
    assert!(
        compiled_par.stats.partitions > 0,
        "parallel compiled run must report its candidate partitions"
    );
}
