//! E12 — prepare-once/execute-many amortization: executing a cached
//! [`Prepared`] handle N times versus N prepare-plus-execute calls (each of
//! which re-does the static work: typing, classification, normal forms) on
//! the genealogy workload.
//!
//! The answers are identical by construction (both arms run the same
//! pipeline); the difference is purely the amortized static work, which is
//! what this bench makes visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itq_core::prelude::*;
use itq_core::queries;

/// The genealogy database: one parent edge.  The serve-heavy-traffic scenario
/// this bench models is many cheap point queries against a prepared handle —
/// execution must not drown out the static work being amortized, so the
/// active domain is kept minimal.
fn family() -> Database {
    queries::parent_database(&[(Atom(0), Atom(1))])
}

fn bench_prepare_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("E12/prepare-amortization");
    let engine = Engine::new();
    let query = queries::grandparent_query();
    let db = family();
    for execs in [1usize, 8, 32] {
        group.bench_with_input(
            BenchmarkId::new("prepare-once", execs),
            &execs,
            |b, &execs| {
                b.iter(|| {
                    let prepared = engine.prepare(&query).unwrap();
                    let mut total = 0usize;
                    for _ in 0..execs {
                        total += prepared
                            .execute(&db, Semantics::Limited)
                            .unwrap()
                            .result
                            .len();
                    }
                    total
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("legacy-per-call", execs),
            &execs,
            |b, &execs| {
                b.iter(|| {
                    let mut total = 0usize;
                    for _ in 0..execs {
                        total += engine
                            .prepare(&query)
                            .unwrap()
                            .execute(&db, Semantics::Limited)
                            .unwrap()
                            .result
                            .len();
                    }
                    total
                })
            },
        );
    }
    group.finish();
}

/// The static half alone: what one `prepare` costs, so the amortization above
/// can be read as "N executions save (N-1) of these".
fn bench_prepare_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("E12/prepare-cost");
    let engine = Engine::new();
    for (name, query) in [
        ("grandparent", queries::grandparent_query()),
        ("transitive-closure", queries::transitive_closure_query()),
        ("even-cardinality", queries::even_cardinality_query()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &query, |b, query| {
            b.iter(|| {
                engine
                    .prepare(query)
                    .unwrap()
                    .classification()
                    .intermediate_types
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prepare_amortization, bench_prepare_cost);
criterion_main!(benches);
