//! E2 (Examples 2.4, 3.1): transitive closure via the CALC_{0,1} powerset query
//! against the polynomial-time baselines (semi-naive fixpoint, Warshall, Datalog).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itq_calculus::eval::EvalConfig;
use itq_core::queries::{parent_database, transitive_closure_query};
use itq_object::Interrupt;
use itq_relational::datalog::{Atom as DatalogAtom, Program, Rule};
use itq_relational::{transitive_closure_seminaive, transitive_closure_warshall, Relation};
use itq_workloads::graphs::chain_edges;
use std::collections::BTreeMap;

fn tc_program() -> Program {
    Program::new(vec![
        Rule::new(
            DatalogAtom::vars("T", &["x", "y"]),
            vec![DatalogAtom::vars("E", &["x", "y"])],
        ),
        Rule::new(
            DatalogAtom::vars("T", &["x", "z"]),
            vec![
                DatalogAtom::vars("T", &["x", "y"]),
                DatalogAtom::vars("E", &["y", "z"]),
            ],
        ),
    ])
}

fn bench_calculus_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2/calc01-powerset-query");
    group.sample_size(10);
    let query = transitive_closure_query();
    // n = 3 already walks a 512-element quantifier domain with a quadratic inner
    // check per candidate; n = 4 (2^16 candidates, ~20 s/run) is reported by the
    // `report` binary instead of being iterated by Criterion.
    for n in [2u32, 3] {
        let db = parent_database(&chain_edges(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| query.eval(db, &EvalConfig::default()).unwrap().len())
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2/polynomial-baselines");
    for n in [4u32, 16, 64, 128] {
        let edges = Relation::from_pairs(chain_edges(n));
        group.bench_with_input(BenchmarkId::new("semi-naive", n), &edges, |b, edges| {
            b.iter(|| transitive_closure_seminaive(edges).len())
        });
        group.bench_with_input(BenchmarkId::new("warshall", n), &edges, |b, edges| {
            b.iter(|| transitive_closure_warshall(edges).len())
        });
        group.bench_with_input(BenchmarkId::new("datalog", n), &edges, |b, edges| {
            let program = tc_program();
            b.iter(|| {
                let mut edb = BTreeMap::new();
                edb.insert("E".to_string(), edges.clone());
                program.evaluate(&edb, Interrupt::disarmed()).unwrap()["T"].len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_calculus_query, bench_baselines);
criterion_main!(benches);
