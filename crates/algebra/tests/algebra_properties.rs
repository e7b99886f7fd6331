//! Property-based tests for the algebra: every well-typed randomly generated
//! expression evaluates to an instance of its inferred type, agrees with its
//! calculus translation, and the set-theoretic operators satisfy their algebraic
//! laws.

use itq_algebra::{to_calculus_query, AlgExpr, EvalConfig, SelFormula};
use itq_calculus::eval::EvalConfig as CalcConfig;
use itq_object::{Atom, Database, Instance, Schema, Type};
use proptest::prelude::*;

// `infer` is not a public item; re-derive typing through classify instead.
use itq_algebra::classify_expr as infer;

fn schema() -> Schema {
    Schema::single("PAR", Type::flat_tuple(2)).with("PERSON", Type::Atomic)
}

fn database(pairs: &[(u32, u32)], people: &[u32]) -> Database {
    Database::single(
        "PAR",
        Instance::from_pairs(pairs.iter().map(|&(a, b)| (Atom(a), Atom(b)))),
    )
    .with(
        "PERSON",
        Instance::from_atoms(people.iter().map(|&a| Atom(a))),
    )
}

/// Strategy: a random algebra expression; ill-typed candidates are filtered out.
fn algebra_expr() -> impl Strategy<Value = AlgExpr> {
    let leaf = prop_oneof![
        Just(AlgExpr::pred("PAR")),
        Just(AlgExpr::pred("PERSON")),
        (0u32..3).prop_map(|a| AlgExpr::singleton(Atom(a))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.product(b)),
            (inner.clone(), proptest::collection::vec(1usize..3, 1..3))
                .prop_map(|(a, coords)| a.project(coords)),
            (inner.clone(), 1usize..3, 1usize..3)
                .prop_map(|(a, i, j)| a.select(SelFormula::coords_eq(i, j))),
            inner.clone().prop_map(|a| a.powerset()),
            inner.clone().prop_map(|a| a.collapse()),
            inner.prop_map(|a| a.untuple()),
        ]
    })
    .prop_filter("well-typed over the schema", |e| {
        infer(e, &schema()).is_ok()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Evaluation produces an instance of the inferred type (or a budget error for
    /// powerset blow-ups), and agrees with the calculus translation when both
    /// sides stay within budget.
    #[test]
    fn random_expressions_evaluate_at_their_inferred_type(
        expr in algebra_expr(),
        pairs in proptest::collection::btree_set((0u32..2, 0u32..2), 0..3),
        people in proptest::collection::btree_set(0u32..2, 0..2),
    ) {
        let db = database(
            &pairs.iter().copied().collect::<Vec<_>>(),
            &people.iter().copied().collect::<Vec<_>>(),
        );
        let classification = infer(&expr, &schema()).unwrap();
        let config = EvalConfig { max_instance: 1024 };
        match expr.eval(&db, &schema(), &config) {
            Ok(result) => {
                prop_assert!(result.iter().all(|v| v.has_type(&classification.output_type)));
                // Cross-check against the calculus translation with a *small* budget:
                // cases that stay cheap are compared exactly, expensive ones are
                // skipped rather than allowed to dominate the test's running time.
                let query = to_calculus_query(&expr, &schema()).unwrap();
                let calc_config = CalcConfig {
                    max_quantifier_domain: 4096,
                    max_candidates: 4096,
                    max_steps: 2_000_000,
                };
                if let Ok(calc_answer) = query.eval(&db, &calc_config) {
                    prop_assert_eq!(result, calc_answer);
                }
            }
            Err(itq_algebra::AlgError::Budget { .. }) => {
                // Powerset / product blow-ups are allowed to trip the budget.
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
        }
    }

    /// Set-theoretic laws: union is idempotent and commutative, difference with
    /// self is empty, intersection is contained in both operands.
    #[test]
    fn set_operator_laws(
        pairs in proptest::collection::btree_set((0u32..4, 0u32..4), 0..8),
        split in 0usize..8,
    ) {
        let all: Vec<(u32, u32)> = pairs.iter().copied().collect();
        let (left, right) = all.split_at(split.min(all.len()));
        let db = Database::single(
            "A",
            Instance::from_pairs(left.iter().map(|&(a, b)| (Atom(a), Atom(b)))),
        )
        .with(
            "B",
            Instance::from_pairs(right.iter().map(|&(a, b)| (Atom(a), Atom(b)))),
        );
        let s = Schema::single("A", Type::flat_tuple(2)).with("B", Type::flat_tuple(2));
        let cfg = EvalConfig::default();
        let a = AlgExpr::pred("A");
        let b = AlgExpr::pred("B");

        let union_ab = a.clone().union(b.clone()).eval(&db, &s, &cfg).unwrap();
        let union_ba = b.clone().union(a.clone()).eval(&db, &s, &cfg).unwrap();
        prop_assert_eq!(&union_ab, &union_ba);
        let union_aa = a.clone().union(a.clone()).eval(&db, &s, &cfg).unwrap();
        prop_assert_eq!(union_aa, a.clone().eval(&db, &s, &cfg).unwrap());

        let diff_self = a.clone().diff(a.clone()).eval(&db, &s, &cfg).unwrap();
        prop_assert!(diff_self.is_empty());

        let meet = a.clone().intersect(b.clone()).eval(&db, &s, &cfg).unwrap();
        let a_val = a.clone().eval(&db, &s, &cfg).unwrap();
        let b_val = b.clone().eval(&db, &s, &cfg).unwrap();
        for v in meet.iter() {
            prop_assert!(a_val.contains(v) && b_val.contains(v));
        }
        // |A ∪ B| + |A ∩ B| = |A| + |B| (inclusion–exclusion for sets).
        prop_assert_eq!(union_ab.len() + meet.len(), a_val.len() + b_val.len());
    }

    /// Powerset cardinality is exactly 2^|operand| and collapse(powerset(E)) = E.
    #[test]
    fn powerset_laws(pairs in proptest::collection::btree_set((0u32..3, 0u32..3), 0..5)) {
        let db = database(&pairs.iter().copied().collect::<Vec<_>>(), &[]);
        let cfg = EvalConfig::default();
        let base = AlgExpr::pred("PAR").eval(&db, &schema(), &cfg).unwrap();
        let pow = AlgExpr::pred("PAR").powerset().eval(&db, &schema(), &cfg).unwrap();
        prop_assert_eq!(pow.len(), 1usize << base.len());
        let back = AlgExpr::pred("PAR")
            .powerset()
            .collapse()
            .eval(&db, &schema(), &cfg)
            .unwrap();
        prop_assert_eq!(back, base);
    }
}
