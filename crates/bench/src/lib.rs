#![forbid(unsafe_code)]

//! # itq-bench — benchmark harness
//!
//! The real content of this crate lives in `benches/` (one Criterion bench per
//! experiment of DESIGN.md) and in the `report` binary that prints the
//! paper-style tables.  This library target hosts the helpers shared between
//! the two — most importantly the workload grids that a bench and its
//! `report --*-json` trajectory must agree on.

use itq_algebra::{AlgExpr, SelFormula};
use itq_calculus::Query;
use itq_core::queries;
use itq_object::{Atom, Database, Instance, Schema, Type};
use itq_workloads::graphs::chain_edges;

/// Width of the printed report tables.
pub const REPORT_WIDTH: usize = 100;

/// The chain length (in atoms) of E15's transitive-closure row, shared by the
/// `incremental_delta` bench and `report --incremental-json`.  Both arms run
/// the closure's least-fixpoint route, so the chain is long enough for their
/// ratio to follow from the work: appending one edge to an n-atom chain derives n
/// new pairs, a scratch run all n(n+1)/2.
pub const E15_TC_CHAIN: u32 = 48;

/// The E14 workload grid: product-heavy algebra expressions whose
/// tuple-at-a-time evaluation materialises the full Cartesian product, paired
/// with databases big enough for the planner's set-at-a-time win to be
/// unambiguous.  Shared between the `algebra_exec` bench and
/// `report --algebra-json`, so the recorded trajectory describes exactly the
/// workloads the bench tracks.
pub fn algebra_exec_workloads() -> Vec<(&'static str, AlgExpr, Schema, Database)> {
    let parent_schema = Schema::single("PAR", Type::flat_tuple(2));
    let person_schema = Schema::single("PERSON", Type::Atomic);

    // Example 2.4's grandparent over a 120-node chain: the product scans
    // 119 × 119 pairs, the hash join probes 119 rows.
    let grandparent = AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(SelFormula::coords_eq(2, 3))
        .project(vec![1, 4]);
    let chain: Vec<(Atom, Atom)> = (0..119).map(|i| (Atom(i), Atom(i + 1))).collect();
    let chain_db = Database::single("PAR", Instance::from_pairs(chain));

    // Siblings (shared parent, distinct children) over a 12-family forest:
    // an equi-join key plus a negated residual.
    let sibling = AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(SelFormula::all(vec![
            SelFormula::coords_eq(1, 3),
            SelFormula::negate(SelFormula::coords_eq(2, 4)),
        ]))
        .project(vec![2, 4]);
    let forest: Vec<(Atom, Atom)> = (0..120u32).map(|i| (Atom(i % 12), Atom(12 + i))).collect();
    let forest_db = Database::single("PAR", Instance::from_pairs(forest));

    // Self-pairs over a wide unary relation: the smallest query whose product
    // is quadratic while its join output is linear.
    let self_pairs = AlgExpr::pred("PERSON")
        .product(AlgExpr::pred("PERSON"))
        .select(SelFormula::coords_eq(1, 2));
    let people_db = Database::single("PERSON", Instance::from_atoms((0..150).map(Atom)));

    vec![
        (
            "algebra/grandparent-product",
            grandparent,
            parent_schema.clone(),
            chain_db,
        ),
        ("algebra/sibling-product", sibling, parent_schema, forest_db),
        ("algebra/self-pairs", self_pairs, person_schema, people_db),
    ]
}

/// The E16 workload grid: the report-grid queries scaled until a sequential
/// execution takes long enough (hundreds of milliseconds) for the
/// `parallelism(n)` partitioning to amortise its merge cost.  Shared between
/// the `parallel_scaling` bench and `report --parallel-json`, so the recorded
/// speedup trajectory describes exactly the workloads the bench tracks.
///
/// Both workloads run the compiled calculus backend, the only one that
/// partitions: their cost is pure quantifier enumeration (2·|adom|⁶
/// evaluation steps on an n-atom chain) with answer-sized merges.  The
/// queries are grandparent and sibling with a negated `PAR(t)` conjunct
/// ([`queries::excluding_parent_pairs`], which removes no answer on a
/// chain): conjunctive queries would run as hash joins instead.
pub fn parallel_scaling_workloads() -> Vec<(&'static str, Query, Database)> {
    // 16 atoms → a 256-tuple [U, U] domain → ≈ 3.4e7 steps sequentially.
    let chain_db = queries::parent_database(&chain_edges(15));
    vec![
        (
            "parallel/grandparent-not-par-chain16",
            queries::excluding_parent_pairs(&queries::grandparent_query()),
            chain_db.clone(),
        ),
        (
            "parallel/sibling-not-par-chain16",
            queries::excluding_parent_pairs(&queries::sibling_query()),
            chain_db,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_core::prelude::*;

    #[test]
    fn e14_workloads_prepare_and_agree_across_algebra_backends() {
        let planner = Engine::new();
        let tuple = Engine::builder().use_algebra_planner(false).build();
        for (name, expr, schema, db) in algebra_exec_workloads() {
            let planned = planner
                .prepare_algebra(&expr, &schema)
                .unwrap()
                .execute(&db, Semantics::Limited)
                .unwrap();
            let direct = tuple
                .prepare_algebra(&expr, &schema)
                .unwrap()
                .execute(&db, Semantics::Limited)
                .unwrap();
            assert_eq!(planned.result, direct.result, "{name}");
            assert!(!planned.result.is_empty(), "{name} must not be vacuous");
            assert!(planned.stats.join_probes > 0, "{name} must join");
        }
    }
}
