//! E9 (Section 6, Example 6.6 / Figure 3, Theorem 6.4): the universal-type codec
//! and the finite-invention semantics — encoding cost as the object grows and as
//! its set-height grows, and the per-level cost of `Q|_n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itq_calculus::eval::EvalConfig;
use itq_calculus::{Formula, Query, Term};
use itq_invention::{eval_with_invented, UniversalCodec};
use itq_object::{Atom, Database, Instance, Schema, Type, Universe, Value};

/// A set-height-2 value with `n` outer elements, each holding an `n`-element set.
fn nested_value(n: u32) -> Value {
    Value::set((0..n).map(|i| {
        Value::tuple(vec![
            Value::set(
                (0..n)
                    .map(|j| Value::Atom(Atom(100 + i * n + j)))
                    .collect::<Vec<_>>(),
            ),
            Value::Atom(Atom(i)),
        ])
    }))
}

fn nested_type() -> Type {
    Type::set(Type::tuple(vec![Type::set(Type::Atomic), Type::Atomic]))
}

fn bench_universal_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9/universal-codec");
    for n in [2u32, 4, 8, 16] {
        let object = nested_value(n);
        group.bench_with_input(BenchmarkId::new("encode", n), &object, |b, object| {
            let mut universe = Universe::new();
            let codec = UniversalCodec::new(&nested_type(), &mut universe);
            b.iter(|| codec.encode(object, &mut universe).unwrap().rows())
        });
        group.bench_with_input(BenchmarkId::new("round-trip", n), &object, |b, object| {
            let mut universe = Universe::new();
            let codec = UniversalCodec::new(&nested_type(), &mut universe);
            b.iter(|| {
                let encoded = codec.encode(object, &mut universe).unwrap();
                codec.decode(&encoded).unwrap().size()
            })
        });
    }
    group.finish();
}

/// A query whose truth requires an invented witness.
fn invention_query() -> Query {
    Query::new(
        "t",
        Type::Atomic,
        Formula::and(vec![
            Formula::pred("R", Term::var("t")),
            Formula::exists(
                "outside",
                Type::Atomic,
                Formula::not(Formula::pred("R", Term::var("outside"))),
            ),
        ]),
        Schema::single("R", Type::Atomic),
    )
    .unwrap()
}

fn bench_invention_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9/invention-levels");
    group.sample_size(20);
    let query = invention_query();
    let db = Database::single("R", Instance::from_atoms((0..4u32).map(Atom)));
    for n in [0usize, 1, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                eval_with_invented(&query, &db, n, &EvalConfig::default())
                    .unwrap()
                    .0
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_universal_codec, bench_invention_levels);
criterion_main!(benches);
