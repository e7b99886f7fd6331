//! Formula-building shorthands used throughout the paper's examples.
//!
//! The paper freely uses abbreviations such as "the tuple `[y1, y2]` is in `x`"
//! (an existential over a pair variable), subset and emptiness tests, and the
//! total-order formula `ORD_T` of Example 3.4.  This module provides those
//! shorthands as plain functions producing [`Formula`]s, so that the canonical
//! queries in `itq-core` read almost exactly like the paper.
//!
//! All helpers take an explicit `fresh` prefix for the auxiliary bound variables
//! they introduce, so callers can keep variable names disjoint.

use crate::formula::Formula;
use crate::term::Term;
use itq_object::Type;

/// The shorthand "`[a, b] ∈ set`" for a set of pairs with component type `elem`:
/// `∃z/[elem, elem] (z ∈ set ∧ z.1 ≈ a ∧ z.2 ≈ b)`.
///
/// `elem` must be the atomic type or a set type so that `[elem, elem]` is a legal
/// pair type (the paper's "no consecutive tuples" rule); the canonical uses are
/// pairs of atoms.
pub fn pair_in_set(a: Term, b: Term, set: Term, elem: Type, fresh: &str) -> Formula {
    let z = format!("{fresh}_pair");
    let pair_ty = Type::tuple(vec![elem.clone(), elem]);
    Formula::exists(
        &z,
        pair_ty,
        Formula::and(vec![
            Formula::member(Term::var(&z), set),
            Formula::eq(Term::proj(&z, 1), a),
            Formula::eq(Term::proj(&z, 2), b),
        ]),
    )
}

/// Subset test `x ⊆ y` for two terms of type `{elem}`:
/// `∀v/elem (v ∈ x → v ∈ y)`.
pub fn subset(x: Term, y: Term, elem: Type, fresh: &str) -> Formula {
    let v = format!("{fresh}_sub");
    Formula::forall(
        &v,
        elem,
        Formula::implies(
            Formula::member(Term::var(&v), x),
            Formula::member(Term::var(&v), y),
        ),
    )
}

/// Emptiness test `x ≈ ∅` for a term of type `{elem}`:
/// `∀v/elem ¬(v ∈ x)` — the paper's `x ≈ ∅` shorthand.
pub fn is_empty(x: Term, elem: Type, fresh: &str) -> Formula {
    let v = format!("{fresh}_emp");
    Formula::forall(&v, elem, Formula::not(Formula::member(Term::var(&v), x)))
}

/// The total-order formula `ORD_U(x)` of Example 3.4 specialised to the atomic
/// type: `x` (of type `{[U, U]}`) holds a reflexive, antisymmetric, transitive and
/// total relation on the atoms of the current constructive domain — i.e. a total
/// order on the active domain.
///
/// Combined with an existential quantifier, this is how calculus queries "create"
/// the ordering needed to index Turing-machine computations (Remark 3.6).
pub fn ord_atoms(x: Term, fresh: &str) -> Formula {
    let u = format!("{fresh}_u");
    let v = format!("{fresh}_v");
    let w = format!("{fresh}_w");

    let totality = Formula::forall_many(
        &[&u, &v],
        Type::Atomic,
        Formula::or(vec![
            pair_in_set(
                Term::var(&u),
                Term::var(&v),
                x.clone(),
                Type::Atomic,
                &format!("{fresh}_t1"),
            ),
            pair_in_set(
                Term::var(&v),
                Term::var(&u),
                x.clone(),
                Type::Atomic,
                &format!("{fresh}_t2"),
            ),
        ]),
    );

    let antisymmetry = Formula::forall_many(
        &[&u, &v],
        Type::Atomic,
        Formula::implies(
            Formula::and(vec![
                pair_in_set(
                    Term::var(&u),
                    Term::var(&v),
                    x.clone(),
                    Type::Atomic,
                    &format!("{fresh}_a1"),
                ),
                pair_in_set(
                    Term::var(&v),
                    Term::var(&u),
                    x.clone(),
                    Type::Atomic,
                    &format!("{fresh}_a2"),
                ),
            ]),
            Formula::eq(Term::var(&u), Term::var(&v)),
        ),
    );

    let transitivity = Formula::forall_many(
        &[&u, &v, &w],
        Type::Atomic,
        Formula::implies(
            Formula::and(vec![
                pair_in_set(
                    Term::var(&u),
                    Term::var(&v),
                    x.clone(),
                    Type::Atomic,
                    &format!("{fresh}_r1"),
                ),
                pair_in_set(
                    Term::var(&v),
                    Term::var(&w),
                    x.clone(),
                    Type::Atomic,
                    &format!("{fresh}_r2"),
                ),
            ]),
            pair_in_set(
                Term::var(&u),
                Term::var(&w),
                x,
                Type::Atomic,
                &format!("{fresh}_r3"),
            ),
        ),
    );

    Formula::and(vec![totality, antisymmetry, transitivity])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{satisfies_sentence, EvalConfig};
    use crate::query::Query;
    use itq_object::{Atom, Database, Instance, Schema, Value};

    fn unary_db(n: u32) -> Database {
        Database::single("R", Instance::from_atoms((0..n).map(Atom)))
    }

    #[test]
    fn pair_in_set_shorthand_expands_correctly() {
        // Sentence: ∃s/{[U,U]} ([a0, a1] ∈ s ∧ s ⊆ R-pairs) over db with R = {a0,a1}.
        let db = unary_db(2);
        let f = Formula::exists(
            "s",
            Type::set(Type::flat_tuple(2)),
            Formula::and(vec![
                pair_in_set(
                    Term::constant(Atom(0)),
                    Term::constant(Atom(1)),
                    Term::var("s"),
                    Type::Atomic,
                    "h",
                ),
                // Every pair in s is drawn from R.
                Formula::forall(
                    "z",
                    Type::flat_tuple(2),
                    Formula::implies(
                        Formula::member(Term::var("z"), Term::var("s")),
                        Formula::and(vec![
                            Formula::pred("R", Term::proj("z", 1)),
                            Formula::pred("R", Term::proj("z", 2)),
                        ]),
                    ),
                ),
            ]),
        );
        assert!(satisfies_sentence(&f, &db, &[], &EvalConfig::default()).unwrap());
    }

    #[test]
    fn subset_and_set_equality() {
        let db = unary_db(2);
        // ∀x/{U} ∀y/{U} (x ⊆ y ∧ y ⊆ x → x ≈ y): extensionality holds.
        let f = Formula::forall(
            "x",
            Type::set(Type::Atomic),
            Formula::forall(
                "y",
                Type::set(Type::Atomic),
                Formula::implies(
                    Formula::and(vec![
                        subset(Term::var("x"), Term::var("y"), Type::Atomic, "l"),
                        subset(Term::var("y"), Term::var("x"), Type::Atomic, "r"),
                    ]),
                    Formula::eq(Term::var("x"), Term::var("y")),
                ),
            ),
        );
        assert!(satisfies_sentence(&f, &db, &[], &EvalConfig::default()).unwrap());
        // And a subset statement that is false: ∀x ∀y (x ⊆ y).
        let g = Formula::forall(
            "x",
            Type::set(Type::Atomic),
            Formula::forall(
                "y",
                Type::set(Type::Atomic),
                subset(Term::var("x"), Term::var("y"), Type::Atomic, "h"),
            ),
        );
        assert!(!satisfies_sentence(&g, &db, &[], &EvalConfig::default()).unwrap());
    }

    #[test]
    fn emptiness_tests() {
        let db = unary_db(2);
        // ∃x/{U} (x ≈ ∅) and ∃x/{U} ¬(x ≈ ∅) both hold over a 2-atom domain.
        let empty = Formula::exists(
            "x",
            Type::set(Type::Atomic),
            is_empty(Term::var("x"), Type::Atomic, "h"),
        );
        let nonempty = Formula::exists(
            "x",
            Type::set(Type::Atomic),
            Formula::not(is_empty(Term::var("x"), Type::Atomic, "h")),
        );
        // ∀x (x ≈ ∅) is false.
        let all_empty = Formula::forall(
            "x",
            Type::set(Type::Atomic),
            is_empty(Term::var("x"), Type::Atomic, "h"),
        );
        let cfg = EvalConfig::default();
        assert!(satisfies_sentence(&empty, &db, &[], &cfg).unwrap());
        assert!(satisfies_sentence(&nonempty, &db, &[], &cfg).unwrap());
        assert!(!satisfies_sentence(&all_empty, &db, &[], &cfg).unwrap());
    }

    #[test]
    fn ord_atoms_characterises_total_orders() {
        // Query {x/{[U,U]} | ORD(x)} over a 2-atom domain: the total orders on
        // {a0, a1} are exactly the two linear orders (each reflexive, with one of
        // the two possible orientations of the off-diagonal pair).
        let db = unary_db(2);
        let q = Query::new(
            "x",
            Type::set(Type::flat_tuple(2)),
            ord_atoms(Term::var("x"), "o"),
            Schema::single("R", Type::Atomic),
        )
        .unwrap();
        let out = q.eval(&db, &EvalConfig::default()).unwrap();
        assert_eq!(out.len(), 2, "exactly two total orders on two elements");
        let refl: Vec<Value> = vec![Value::pair(Atom(0), Atom(0)), Value::pair(Atom(1), Atom(1))];
        for order in out.iter() {
            let set = order.as_set().unwrap();
            for r in &refl {
                assert!(set.contains(r), "total orders are reflexive");
            }
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn ord_atoms_counts_match_factorial_for_three_atoms() {
        let db = unary_db(3);
        let q = Query::new(
            "x",
            Type::set(Type::flat_tuple(2)),
            ord_atoms(Term::var("x"), "o"),
            Schema::single("R", Type::Atomic),
        )
        .unwrap();
        let out = q.eval(&db, &EvalConfig::default()).unwrap();
        assert_eq!(out.len(), 6, "3! total orders on three elements");
    }
}
