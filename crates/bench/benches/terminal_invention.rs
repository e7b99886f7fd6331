//! E10 (Theorem 6.19, Example 6.14): terminal invention driving the Turing
//! machine substrate — the cost of the bounded search for the first invention
//! level that surfaces an invented value, and of simulating a bounded-halting
//! check through the machine substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itq_calculus::{EvalConfig, Formula, Query, Term};
use itq_invention::terminal_invention;
use itq_object::{Atom, Database, Instance, Schema, Type, Universe};
use itq_turing::machines::{parity_machine, ONE};
use itq_turing::{encode_run, run, verify_encoding};

/// A query that surfaces an invented value immediately (defined at n = 1).
fn defined_query() -> Query {
    Query::new(
        "t",
        Type::Atomic,
        Formula::truth(),
        Schema::single("R", Type::Atomic),
    )
    .unwrap()
}

/// A query that never surfaces an invented value (undefined within any bound).
fn undefined_query() -> Query {
    Query::new(
        "t",
        Type::Atomic,
        Formula::pred("R", Term::var("t")),
        Schema::single("R", Type::Atomic),
    )
    .unwrap()
}

fn bench_terminal_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("E10/terminal-invention-search");
    group.sample_size(20);
    let db = Database::single("R", Instance::from_atoms((0..3u32).map(Atom)));
    for (name, query, max) in [
        ("defined-at-1", defined_query(), 4usize),
        ("undefined-bound-2", undefined_query(), 2),
        ("undefined-bound-4", undefined_query(), 4),
    ] {
        let config = EvalConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(name), &max, |b, &max| {
            b.iter(|| terminal_invention(&query, &db, max, &config).unwrap())
        });
    }
    group.finish();
}

fn bench_bounded_halting_simulation(c: &mut Criterion) {
    // The Example 6.14 construction decides halting by encoding the machine run
    // with invented index values; the measurable kernel is run + encode + verify
    // for unary inputs of growing length.
    let mut group = c.benchmark_group("E10/bounded-halting-kernel");
    let machine = parity_machine();
    for n in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let execution = run(&machine, &vec![ONE; n], 10_000);
                let mut universe = Universe::new();
                let encoding = encode_run(&execution, &machine, &mut universe);
                verify_encoding(&encoding, &machine, n % 2 == 0).is_ok()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_terminal_search,
    bench_bounded_halting_simulation
);
criterion_main!(benches);
