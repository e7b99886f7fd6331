//! Property-based tests for formula transformations: implication elimination,
//! negation normal form, prenexing, and semantic preservation on randomly
//! generated closed sentences over a small flat schema.

use itq_calculus::eval::{satisfies_sentence, EvalConfig};
use itq_calculus::normal::{eliminate_implications, negation_normal_form, to_prenex};
use itq_calculus::{Formula, Term};
use itq_object::{Atom, Database, Instance, Type};
use proptest::prelude::*;

/// The variables available to generated formulas: two atomic, two pair-typed.
const ATOM_VARS: [&str; 2] = ["u", "v"];
const PAIR_VARS: [&str; 2] = ["p", "q"];

/// Strategy: an atomic formula over the fixed variable pool.
fn atomic_formula() -> impl Strategy<Value = Formula> {
    prop_oneof![
        // Equalities between atomic variables or constants.
        (0usize..2, 0usize..2)
            .prop_map(|(i, j)| Formula::eq(Term::var(ATOM_VARS[i]), Term::var(ATOM_VARS[j]))),
        (0usize..2, 0u32..2)
            .prop_map(|(i, c)| Formula::eq(Term::var(ATOM_VARS[i]), Term::constant(Atom(c)))),
        // Predicate atoms.
        (0usize..2).prop_map(|i| Formula::pred("R", Term::var(ATOM_VARS[i]))),
        (0usize..2).prop_map(|i| Formula::pred("PAR", Term::var(PAIR_VARS[i]))),
        // Projections from the pair variables.
        (0usize..2, 1usize..3, 0usize..2).prop_map(|(i, coord, j)| Formula::eq(
            Term::proj(PAIR_VARS[i], coord),
            Term::var(ATOM_VARS[j])
        )),
    ]
}

/// Strategy: a quantifier-free body built from the atomic formulas.
fn body() -> impl Strategy<Value = Formula> {
    atomic_formula().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Formula::and),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Formula::or),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Formula::iff(a, b)),
        ]
    })
}

/// Strategy: a closed sentence — the body wrapped in quantifiers binding all four
/// variables (in random order/flavour).
fn sentence() -> impl Strategy<Value = Formula> {
    (body(), proptest::collection::vec(any::<bool>(), 4)).prop_map(|(matrix, flavours)| {
        let mut formula = matrix;
        let bindings = [
            (ATOM_VARS[0], Type::Atomic),
            (ATOM_VARS[1], Type::Atomic),
            (PAIR_VARS[0], Type::flat_tuple(2)),
            (PAIR_VARS[1], Type::flat_tuple(2)),
        ];
        for ((name, ty), exists) in bindings.into_iter().zip(flavours) {
            formula = if exists {
                Formula::exists(name, ty, formula)
            } else {
                Formula::forall(name, ty, formula)
            };
        }
        formula
    })
}

fn sample_db() -> Database {
    Database::single(
        "PAR",
        Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
    )
    .with("R", Instance::from_atoms(vec![Atom(0), Atom(2)]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Implication elimination removes every `→` and `↔`, and NNF leaves negation
    /// only on atoms — while both preserve the set of free variables.
    #[test]
    fn normal_forms_preserve_structure(f in body()) {
        let no_implications = eliminate_implications(&f);
        no_implications.visit(&mut |sub| {
            assert!(!matches!(sub, Formula::Implies(..) | Formula::Iff(..)));
            true
        });
        let nnf = negation_normal_form(&f);
        nnf.visit(&mut |sub| {
            if let Formula::Not(inner) = sub {
                assert!(matches!(
                    inner.as_ref(),
                    Formula::Eq(..) | Formula::Member(..) | Formula::Pred(..)
                ));
            }
            true
        });
        prop_assert_eq!(no_implications.free_vars(), f.free_vars());
        prop_assert_eq!(nnf.free_vars(), f.free_vars());
    }

    /// Prenexing produces a quantifier-free matrix, keeps the number of
    /// quantifiers, and closed sentences keep their truth value on a concrete
    /// database (all quantified types have non-empty domains here).
    #[test]
    fn prenex_preserves_semantics_of_closed_sentences(s in sentence()) {
        let prenex = to_prenex(&s);
        prop_assert_eq!(prenex.matrix.quantifier_count(), 0);
        prop_assert!(prenex.prefix.len() >= s.quantifier_count());
        let rebuilt = prenex.to_formula();
        prop_assert!(rebuilt.free_vars().is_empty());

        let db = sample_db();
        let config = EvalConfig::default();
        let direct = satisfies_sentence(&s, &db, &[], &config).unwrap();
        let via_prenex = satisfies_sentence(&rebuilt, &db, &[], &config).unwrap();
        prop_assert_eq!(direct, via_prenex);
    }

    /// Negation normal form also preserves semantics on closed sentences.
    #[test]
    fn nnf_preserves_semantics_of_closed_sentences(s in sentence()) {
        let db = sample_db();
        let config = EvalConfig::default();
        let direct = satisfies_sentence(&s, &db, &[], &config).unwrap();
        let nnf = negation_normal_form(&s);
        let via_nnf = satisfies_sentence(&nnf, &db, &[], &config).unwrap();
        prop_assert_eq!(direct, via_nnf);
    }

    /// Double negation does not change the truth value.
    #[test]
    fn double_negation_is_identity(s in sentence()) {
        let db = sample_db();
        let config = EvalConfig::default();
        let direct = satisfies_sentence(&s, &db, &[], &config).unwrap();
        let doubled = Formula::not(Formula::not(s));
        prop_assert_eq!(satisfies_sentence(&doubled, &db, &[], &config).unwrap(), direct);
    }
}
