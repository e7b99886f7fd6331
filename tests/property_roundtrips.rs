//! Property-based integration tests over the whole stack: constructive-domain
//! ranking, genericity of query answers under atom permutations, and
//! stability of the baselines on random graphs.

use itq_algebra::{AlgExpr, SelFormula};
use itq_calculus::eval::EvalConfig;
use itq_calculus::{Formula, Query, Term};
use itq_core::engine::{Engine, EngineError, Semantics};
use itq_core::queries;
use itq_object::cons::{cons_cardinality, rank_of_value, value_at_rank};
use itq_object::{conform, Atom, Database, Instance, Type, Value};
use itq_relational::{transitive_closure_seminaive, transitive_closure_warshall, Relation};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a small set of atoms with ids in a fixed window.
fn small_atoms() -> impl Strategy<Value = Vec<Atom>> {
    (1usize..5).prop_map(|n| (0..n as u32).map(Atom).collect())
}

/// Strategy: an arbitrary type of set-height at most 2 and width at most 2.
fn small_type() -> impl Strategy<Value = Type> {
    let leaf = Just(Type::Atomic);
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Type::set),
            proptest::collection::vec(inner, 1..3).prop_map(|components| {
                // Respect the "no nested tuple" invariant via the constructor.
                Type::tuple(components)
            }),
        ]
    })
    .prop_filter("keep the domain enumerable", |t| t.set_height() <= 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every rank below the cardinality decodes to a value that re-ranks to the
    /// same rank and lies in the constructive domain.
    #[test]
    fn cons_domain_ranking_round_trips(ty in small_type(), atoms in small_atoms()) {
        let card = cons_cardinality(&ty, atoms.len());
        if let Some(total) = card.as_exact() {
            let total = total.min(64);
            for rank in 0..total {
                let value = value_at_rank(&ty, &atoms, rank).unwrap();
                prop_assert!(value.has_type(&ty));
                prop_assert!(value.active_domain().iter().all(|a| atoms.contains(a)));
                prop_assert_eq!(rank_of_value(&ty, &atoms, &value), Some(rank));
            }
        }
    }

    /// The grandparent query is generic: permuting the atoms of the database
    /// permutes the answer (Section 2's C-genericity with C = ∅).
    #[test]
    fn grandparent_query_is_generic(
        pairs in proptest::collection::btree_set((0u32..5, 0u32..5), 0..8),
        shift in 1u32..50
    ) {
        let db = Database::single(
            "PAR",
            Instance::from_pairs(pairs.iter().map(|&(a, b)| (Atom(a), Atom(b)))),
        );
        let permute = move |a: Atom| Atom(a.id() + shift);
        let permuted_db = Database::single(
            "PAR",
            Instance::from_values(
                db.relation("PAR").unwrap().iter().map(|v| v.permute(&permute)),
            ),
        );
        let config = EvalConfig::default();
        let query = queries::grandparent_query();
        let direct = query.eval(&db, &config).unwrap();
        let of_permuted = query.eval(&permuted_db, &config).unwrap();
        let permuted_answer =
            Instance::from_values(direct.iter().map(|v| v.permute(&permute)));
        prop_assert_eq!(of_permuted, permuted_answer);
    }

    /// The two closure baselines agree on arbitrary random graphs.
    #[test]
    fn closure_baselines_agree(
        pairs in proptest::collection::btree_set((0u32..8, 0u32..8), 0..30)
    ) {
        let relation = Relation::from_pairs(pairs.iter().map(|&(a, b)| (Atom(a), Atom(b))));
        prop_assert_eq!(
            transitive_closure_seminaive(&relation),
            transitive_closure_warshall(&relation)
        );
    }

    /// Converting a flat relation to a complex-object instance and back is the
    /// identity, and the instance conforms to the declared flat type.
    #[test]
    fn relation_instance_round_trip(
        // At least one tuple: the arity of an empty instance cannot be recovered.
        tuples in proptest::collection::btree_set(
            proptest::collection::vec(0u32..6, 3), 1..10
        )
    ) {
        let relation = Relation::from_tuples(
            3,
            tuples.iter().map(|t| t.iter().map(|&x| Atom(x)).collect::<Vec<_>>()),
        );
        let instance = relation.to_instance();
        prop_assert!(conform("R", &relation.flat_type(), instance.iter()).is_ok());
        prop_assert_eq!(Relation::from_instance(&instance).unwrap(), relation);
    }

    /// Values keep their set-height and active domain under permutation.
    #[test]
    fn permutation_preserves_structure(atoms in small_atoms(), shift in 1u32..40) {
        let value = Value::set(
            atoms.iter().map(|&a| Value::pair(a, a)).collect::<Vec<_>>(),
        );
        let permuted = value.permute(&move |a: Atom| Atom(a.id() + shift));
        prop_assert_eq!(value.set_height(), permuted.set_height());
        prop_assert_eq!(value.size(), permuted.size());
        prop_assert_eq!(value.active_domain().len(), permuted.active_domain().len());
    }
}

/// `{t/U | t ≈ a1 ∨ ¬∃x/[U,U] (PAR(x) ∧ (x.1 ≈ t ∨ x.2 ≈ t))}`: the constant
/// `a1`, and every atom in range that no `PAR` pair mentions — none under the
/// limited interpretation, every invented atom under the others.
fn constant_or_unmentioned() -> Query {
    let mentioned = Formula::exists(
        "x",
        Type::flat_tuple(2),
        Formula::and(vec![
            Formula::pred("PAR", Term::var("x")),
            Formula::or(vec![
                Formula::eq(Term::proj("x", 1), Term::var("t")),
                Formula::eq(Term::proj("x", 2), Term::var("t")),
            ]),
        ]),
    );
    let body = Formula::or(vec![
        Formula::eq(Term::var("t"), Term::constant(Atom(1))),
        Formula::not(mentioned),
    ]);
    Query::new("t", Type::Atomic, body, queries::parent_schema()).unwrap()
}

/// An error's kind: its variant path without the payload, e.g. `Calc(Budget`.
fn error_kind(error: &EngineError) -> String {
    let debug = format!("{error:?}");
    let end = debug
        .find(|c: char| !(c.is_alphanumeric() || c == '('))
        .unwrap_or(debug.len());
    debug[..end].to_string()
}

/// An atom id anywhere in `u32`, often at the top of the range.
fn atom_id() -> BoxedStrategy<u32> {
    prop_oneof![
        Just(u32::MAX),
        u32::MAX - 4..u32::MAX,
        any::<u32>(),
        0u32..8
    ]
    .boxed()
}

/// A bijection between `atoms` and as many other atoms that fixes
/// `constants`: each atom outside them takes the first of `draws` (then of
/// `0, 1, …`) that is neither a constant nor taken.
fn renaming(
    atoms: &BTreeSet<Atom>,
    constants: &BTreeSet<Atom>,
    draws: &[u32],
) -> BTreeMap<Atom, Atom> {
    let mut taken = constants.clone();
    let mut images = draws.iter().copied().chain(0..=u32::MAX).map(Atom);
    let mut pi: BTreeMap<Atom, Atom> = constants.iter().map(|&c| (c, c)).collect();
    for &atom in atoms.difference(constants) {
        let image = images
            .find(|image| taken.insert(*image))
            .expect("u32 has room for a few atoms");
        pi.insert(atom, image);
    }
    pi
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Queries are C-generic (Section 2) through a default-budget `Prepared`
    /// handle under every semantics: for a bijection π of the atoms that
    /// fixes the query's constants C, with images anywhere in `u32`,
    /// Q(π(d)) = π(Q(d)), with the same flags and levels, or the same kind
    /// of error.  The workloads are the exemplars, and on `edges` over two
    /// atoms the Example 3.1 closure, a query with a constant, and three
    /// algebra handles: the grandparent join, `𝒫(PAR)` and a selection
    /// against a constant.  The invention bound is 1, so the handles that
    /// enumerate their levels draw at most 2^9 relations.
    #[test]
    fn prepared_queries_are_generic_under_every_semantics(
        edges in proptest::collection::vec((0u32..2, 0u32..2), 0..4),
        draws in proptest::collection::vec(atom_id(), 8),
    ) {
        let engine = Engine::builder().max_invented(1).build();
        let pairs: Vec<(Atom, Atom)> = edges.iter().map(|&(a, b)| (Atom(a), Atom(b))).collect();
        let db = queries::parent_database(&pairs);
        let mut workloads = queries::exemplar_workloads();
        workloads.push(("transitive-closure", queries::transitive_closure_query(), db.clone()));
        workloads.push(("constant-or-unmentioned", constant_or_unmentioned(), db.clone()));
        let mut handles: Vec<_> = workloads
            .into_iter()
            .map(|(name, query, db)| (name, engine.prepare(&query).unwrap(), db))
            .collect();
        let grandparent = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        for (name, expr) in [
            ("algebra-grandparent", grandparent),
            ("algebra-powerset", AlgExpr::pred("PAR").powerset()),
            ("algebra-constant", AlgExpr::pred("PAR").select(SelFormula::coord_is(1, Atom(0)))),
        ] {
            let prepared = engine.prepare_algebra(&expr, &queries::parent_schema()).unwrap();
            handles.push((name, prepared, db.clone()));
        }
        for (name, prepared, db) in handles {
            let query = prepared.query();
            let pi = renaming(&query.evaluation_domain(&db), &query.constants(), &draws);
            let rename = |atom: Atom| pi[&atom];
            let renamed = Database::new(db.iter().map(|(relation, instance)| {
                let values = instance.iter().map(|v| v.permute(&rename));
                (relation.to_string(), Instance::from_values(values))
            }));
            for semantics in Semantics::ALL {
                let here = format!("{name}/{semantics} under {pi:?}");
                match (prepared.execute(&db, semantics), prepared.execute(&renamed, semantics)) {
                    (Ok(direct), Ok(of_renamed)) => {
                        let expected =
                            Instance::from_values(direct.result.iter().map(|v| v.permute(&rename)));
                        prop_assert!(
                            of_renamed.result == expected,
                            "{here}: {:?} is not π of {:?}", of_renamed.result, direct.result
                        );
                        prop_assert_eq!(
                            direct.bounded_approximation, of_renamed.bounded_approximation,
                            "{here}: flags"
                        );
                        prop_assert_eq!(direct.defined_at, of_renamed.defined_at, "{here}: defined_at");
                        prop_assert_eq!(
                            direct.stabilised_at, of_renamed.stabilised_at,
                            "{here}: stabilised_at"
                        );
                    }
                    (Err(direct), Err(of_renamed)) => prop_assert!(
                        error_kind(&direct) == error_kind(&of_renamed),
                        "{here}: {direct} vs {of_renamed}"
                    ),
                    (direct, of_renamed) => {
                        prop_assert!(false, "{here}: {direct:?} vs {of_renamed:?}")
                    }
                }
            }
        }
    }
}
