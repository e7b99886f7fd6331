#![forbid(unsafe_code)]

//! # itq-bench — benchmark harness
//!
//! The `report` binary prints the paper-style tables and records the
//! `BENCH_*.json` trajectories.  This library holds what its timed modes
//! share: [`measure`], the one routine every timed trajectory goes through,
//! and E14's workload grid, which `report --algebra-json` times and the
//! trace and governor overhead grids reuse.

mod measure;

pub use measure::{measure, Bound, Estimate, Gate, Measurement, Schedule};

use itq_algebra::{AlgExpr, SelFormula, SelTerm};
use itq_object::{Atom, Database, Instance, Schema, Type};

/// The E14 workload grid: product-heavy algebra expressions whose
/// tuple-at-a-time evaluation materialises the full Cartesian product, paired
/// with databases big enough for the planner's set-at-a-time win to be
/// unambiguous.
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

    // Each parent next to every set of children holding one of theirs, over
    // 3 parents and 6 children: the set-typed member join indexes the 64
    // subsets by element instead of testing 6 × 64 pairs.
    let kids = AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR").project(vec![2]).untuple().powerset())
        .select(SelFormula::In(SelTerm::Coord(2), SelTerm::Coord(3)))
        .project(vec![1, 3]);
    let families: Vec<(Atom, Atom)> = (0..6u32).map(|i| (Atom(i / 2), Atom(3 + i))).collect();
    let families_db = Database::single("PAR", Instance::from_pairs(families));

    vec![
        (
            "algebra/grandparent-product",
            grandparent,
            parent_schema.clone(),
            chain_db,
        ),
        (
            "algebra/sibling-product",
            sibling,
            parent_schema.clone(),
            forest_db,
        ),
        ("algebra/self-pairs", self_pairs, person_schema, people_db),
        ("algebra/member-join", kids, parent_schema, families_db),
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
