//! E15 — incremental view maintenance: refreshing a watched view after a
//! one-tuple delta vs executing its `Prepared` handle from scratch.
//!
//! Two workload families, matching `report --incremental-json`:
//!
//! * **transitive closure** (Example 3.1): both arms run the query's
//!   least-fixpoint route, on a chain of `itq_bench::E15_TC_CHAIN` atoms.
//!   The from-scratch arm derives all n(n+1)/2 pairs and checks the guard on
//!   each; the delta arm extends the watched view's warm least model by the
//!   n pairs one appended edge derives, and checks only those.  A deletion
//!   re-executes through the route, so this arm inserts into a clone of the
//!   watched database rather than round-tripping;
//! * **genealogy** (grandparent, sibling): conjunctive bodies have no delta
//!   path, so each refresh re-executes the watched `Prepared` handle through
//!   the hash-join plan prepare built — the plan the from-scratch arm runs.
//!
//! Each genealogy delta iteration is an insert+delete round trip so the
//! database (and therefore the measured work) is identical across
//! iterations.  Answers are asserted equal to a from-scratch execution before
//! anything is timed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itq_core::incremental::IncrementalDb;
use itq_core::prelude::*;
use itq_core::queries;
use itq_workloads::graphs::{chain_edges, tree_edges};

/// A watched database plus the handle its from-scratch arm executes.
fn watched(
    query: &Query,
    edges: &[(Atom, Atom)],
    name: &str,
) -> (IncrementalDb, Prepared, Database) {
    let db = queries::parent_database(edges);
    let mut inc = IncrementalDb::new(queries::parent_schema(), &db).expect("edges conform");
    let prepared = Engine::new().prepare(query).expect("query prepares");
    inc.watch(name, prepared.clone(), Semantics::Limited);
    let stored = inc
        .view(name)
        .unwrap()
        .outcome()
        .clone()
        .expect("view executes");
    let scratch = prepared
        .execute(&db, Semantics::Limited)
        .expect("scratch executes");
    assert_eq!(stored, scratch.result, "watched answer must match scratch");
    (inc, prepared, db)
}

/// The fresh tuple a delta iteration inserts and removes: an edge out of the
/// last chain node to an otherwise-unused atom.
fn probe(edges: &[(Atom, Atom)]) -> Value {
    let last = edges.iter().map(|&(_, Atom(b))| b).max().unwrap_or(0);
    Value::pair(Atom(last), Atom(last + 1))
}

fn bench_transitive_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("E15/transitive-closure");
    group.sample_size(10);
    let query = queries::transitive_closure_query();
    let edges = chain_edges(itq_bench::E15_TC_CHAIN);
    let (inc, prepared, db) = watched(&query, &edges, "tc");
    let tuple = probe(&edges);
    group.bench_function("scratch-execute", |b| {
        b.iter(|| {
            prepared
                .execute(&db, Semantics::Limited)
                .unwrap()
                .result
                .len()
        })
    });
    group.bench_function("delta-insert", |b| {
        b.iter(|| {
            let mut fresh = inc.clone();
            fresh.insert("PAR", vec![tuple.clone()]).unwrap().added
        })
    });
    group.finish();
}

fn bench_genealogy(c: &mut Criterion) {
    let mut group = c.benchmark_group("E15/genealogy");
    group.sample_size(10);
    // Sized so the from-scratch arm stays inside the default step budget; the
    // sibling view runs on a binary tree so its answer is non-empty.
    for (name, query, edges) in [
        ("grandparent", queries::grandparent_query(), chain_edges(16)),
        ("sibling", queries::sibling_query(), tree_edges(17)),
    ] {
        let (mut inc, prepared, db) = watched(&query, &edges, name);
        let tuple = probe(&edges);
        group.bench_with_input(BenchmarkId::new("scratch-execute", name), &db, |b, db| {
            b.iter(|| {
                prepared
                    .execute(db, Semantics::Limited)
                    .unwrap()
                    .result
                    .len()
            })
        });
        group.bench_function(BenchmarkId::new("delta-roundtrip", name), |b| {
            b.iter(|| {
                let added = inc.insert("PAR", vec![tuple.clone()]).unwrap().added;
                inc.delete("PAR", vec![tuple.clone()]).unwrap();
                added
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transitive_closure, bench_genealogy);
criterion_main!(benches);
