//! E13 — compiled slot-based evaluator vs the legacy tree walker.
//!
//! The compiled evaluator (interned values, de-Bruijn slots, memoized
//! constructive domains — see `itq_calculus::compile`) and the tree walker
//! (`itq_calculus::eval`) produce bit-identical answers; this bench
//! quantifies the gap on the three workload families the optimisation
//! targets:
//!
//! * **transitive closure** (Example 3.1): a `∀x/{[U,U]}` whose `2^(n²)`
//!   domain the tree walker re-enumerates for every one of the `n²`
//!   candidates;
//! * **even cardinality** (Example 3.2): an `∃x/{[U,U]}` matching search with
//!   heavily nested inner quantifiers;
//! * **hyperexp** (Example 3.7 analogue): the perfect-square query, whose
//!   candidate space is the set-height-1 fragment of the hyper-exponential
//!   hierarchy.
//!
//! The compiled arm executes one `Prepared` handle per query (which runs the
//! transitive closure through its least-fixpoint route); the legacy arm
//! calls the tree walker directly.  Neither arm repeats static work, so the
//! measured difference is purely the dynamic (execute) phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itq_core::prelude::*;
use itq_core::queries;
use itq_invention::finite_invention;
use itq_workloads::graphs::chain_edges;
use itq_workloads::people::person_database;

/// The `(name, query, database)` grid: nested-quantifier workloads sized so
/// the slower (legacy) arm stays within bench budgets.
fn workloads() -> Vec<(&'static str, Query, Database)> {
    vec![
        (
            "transitive-closure",
            queries::transitive_closure_query(),
            queries::parent_database(&chain_edges(3)),
        ),
        (
            "even-cardinality",
            queries::even_cardinality_query(),
            person_database(3),
        ),
        (
            "hyperexp-square",
            queries::perfect_square_query(),
            Database::single("R", Instance::from_atoms(vec![Atom(0)])),
        ),
    ]
}

fn bench_compiled_vs_legacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("E13/compiled-vs-legacy");
    group.sample_size(10);
    let compiled_engine = Engine::new();
    for (name, query, db) in workloads() {
        let compiled = compiled_engine.prepare(&query).unwrap();
        group.bench_with_input(BenchmarkId::new("compiled", name), &db, |b, db| {
            b.iter(|| {
                compiled
                    .execute(db, Semantics::Limited)
                    .unwrap()
                    .result
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("legacy", name), &db, |b, db| {
            b.iter(|| query.eval(db, &EvalConfig::default()).unwrap().len())
        });
    }
    group.finish();
}

/// The invention path: every level re-executes the same compiled form with a
/// fresh atom set, so the per-level win compounds across levels.
fn bench_compiled_invention(c: &mut Criterion) {
    let mut group = c.benchmark_group("E13/finite-invention");
    group.sample_size(10);
    let compiled_engine = Engine::builder().max_invented(1).build();
    let query = queries::even_cardinality_query();
    let db = person_database(2);
    let compiled = compiled_engine.prepare(&query).unwrap();
    group.bench_function("compiled", |b| {
        b.iter(|| {
            compiled
                .execute(&db, Semantics::FiniteInvention)
                .unwrap()
                .result
                .len()
        })
    });
    let (levels, config) = (
        compiled_engine.max_invented(),
        compiled_engine.calc_config(),
    );
    group.bench_function("legacy", |b| {
        b.iter(|| {
            finite_invention(&query, &db, levels, config)
                .unwrap()
                .union
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_compiled_vs_legacy, bench_compiled_invention);
criterion_main!(benches);
