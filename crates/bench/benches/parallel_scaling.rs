//! E16 — in-query parallelism: speedup vs worker count.
//!
//! The `parallelism(n)` knob partitions the compiled backend's top-level
//! candidate loop across a small worker pool; everything else — answers,
//! error strings, the deterministic counters — is required byte-identical by
//! `tests/parallel_equivalence.rs`.  This bench measures the only thing the
//! knob is *allowed* to change: wall-clock time, on the grid shared with
//! `report --parallel-json` (`itq_bench::parallel_scaling_workloads`).
//!
//! One `Prepared` handle per workload is re-bound per worker count with
//! [`with_parallelism`](itq_core::pipeline::Prepared::with_parallelism), so
//! the measured difference is purely the execute phase.  Worker counts beyond
//! `std::thread::available_parallelism()` still run (the partitions just
//! time-slice), which is how the single-core CI container exercises the
//! parallel code path without asserting a speedup it cannot see.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itq_bench::parallel_scaling_workloads;
use itq_core::prelude::*;

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("E16/parallel-scaling");
    group.sample_size(10);
    let engine = Engine::builder().parallelism(1).build();
    for (name, query, db) in parallel_scaling_workloads() {
        let prepared = engine.prepare(&query).unwrap();
        // The answers are identical by the parallel-equivalence contract;
        // assert it here too so a bench run can never record a lie.
        let baseline = prepared.execute(&db, Semantics::Limited).unwrap();
        for workers in [1usize, 2, 4] {
            let handle = prepared.with_parallelism(workers);
            assert_eq!(
                baseline.result,
                handle.execute(&db, Semantics::Limited).unwrap().result,
                "{name} at {workers} workers"
            );
            group.bench_with_input(
                BenchmarkId::new(format!("workers-{workers}"), name),
                &db,
                |b, db| b.iter(|| handle.execute(db, Semantics::Limited).unwrap().result.len()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
