//! The genealogy queries: grandparent (Example 2.4) and transitive closure via an
//! intermediate type of set-height 1 (Example 3.1).

use itq_algebra::AlgExpr;
use itq_calculus::{Formula, Query, Term};
use itq_object::{Atom, Database, Instance, Schema, Type};

/// The schema `D = (PAR : [U, U])` of Examples 2.4 and 3.1.
pub fn parent_schema() -> Schema {
    Schema::single("PAR", Type::flat_tuple(2))
}

/// Wrap a list of `(parent, child)` pairs as an instance of [`parent_schema`].
pub fn parent_database(pairs: &[(Atom, Atom)]) -> Database {
    Database::single("PAR", Instance::from_pairs(pairs.iter().copied()))
}

/// The grandparent query `Q1` of Example 2.4:
///
/// `{t/[U,U] | ∃x/[U,U] ∃y/[U,U] (PAR(x) ∧ PAR(y) ∧ x.2 ≈ y.1 ∧ t.1 ≈ x.1 ∧ t.2 ≈ y.2)}`
///
/// This is a pure relational-calculus query (class `CALC_{0,0}`).
pub fn grandparent_query() -> Query {
    let t_pair = Type::flat_tuple(2);
    let body = Formula::exists(
        "x",
        t_pair.clone(),
        Formula::exists(
            "y",
            t_pair.clone(),
            Formula::and(vec![
                Formula::pred("PAR", Term::var("x")),
                Formula::pred("PAR", Term::var("y")),
                Formula::eq(Term::proj("x", 2), Term::proj("y", 1)),
                Formula::eq(Term::proj("t", 1), Term::proj("x", 1)),
                Formula::eq(Term::proj("t", 2), Term::proj("y", 2)),
            ]),
        ),
    );
    Query::new("t", t_pair, body, parent_schema()).expect("grandparent query is well-typed")
}

/// The sibling query: pairs of distinct children sharing a parent — another
/// `CALC_{0,0}` query used by the examples.
pub fn sibling_query() -> Query {
    let t_pair = Type::flat_tuple(2);
    let body = Formula::exists(
        "x",
        t_pair.clone(),
        Formula::exists(
            "y",
            t_pair.clone(),
            Formula::and(vec![
                Formula::pred("PAR", Term::var("x")),
                Formula::pred("PAR", Term::var("y")),
                Formula::eq(Term::proj("x", 1), Term::proj("y", 1)),
                Formula::not(Formula::eq(Term::proj("x", 2), Term::proj("y", 2))),
                Formula::eq(Term::proj("t", 1), Term::proj("x", 2)),
                Formula::eq(Term::proj("t", 2), Term::proj("y", 2)),
            ]),
        ),
    );
    Query::new("t", t_pair, body, parent_schema()).expect("sibling query is well-typed")
}

/// `Q ∧ ¬PAR(t)` for a `[U,U]`-targeted PAR query `Q`: its answers that are
/// not themselves parent pairs.  The negated atom keeps the query in
/// `CALC_{0,0}` but outside the conjunctive fragment that prepares into a
/// set-at-a-time plan, so it always runs the compiled slot evaluator; on a
/// forest (a chain, a tree) the extra conjunct removes nothing from
/// [`grandparent_query`] or [`sibling_query`].
pub fn excluding_parent_pairs(query: &Query) -> Query {
    let body = Formula::and(vec![
        query.body().clone(),
        Formula::not(Formula::pred("PAR", Term::var(query.target()))),
    ]);
    query
        .with_body(body)
        .expect("a [U,U] target over PAR may be negated against PAR")
}

/// The formula `φ(x)` of Examples 2.4/3.1: `x` (of type `{[U,U]}`) is a binary
/// relation over the atoms appearing in `PAR`, contains `PAR`, and is transitive.
pub fn transitive_superset_formula(x: &str) -> Formula {
    let t_pair = Type::flat_tuple(2);
    // Every element of x is a pair whose endpoints occur somewhere in PAR.
    let endpoints_in_domain = Formula::forall(
        "y",
        t_pair.clone(),
        Formula::implies(
            Formula::member(Term::var("y"), Term::var(x)),
            Formula::and(vec![
                Formula::exists(
                    "z",
                    t_pair.clone(),
                    Formula::and(vec![
                        Formula::pred("PAR", Term::var("z")),
                        Formula::or(vec![
                            Formula::eq(Term::proj("y", 1), Term::proj("z", 1)),
                            Formula::eq(Term::proj("y", 1), Term::proj("z", 2)),
                        ]),
                    ]),
                ),
                Formula::exists(
                    "z",
                    t_pair.clone(),
                    Formula::and(vec![
                        Formula::pred("PAR", Term::var("z")),
                        Formula::or(vec![
                            Formula::eq(Term::proj("y", 2), Term::proj("z", 1)),
                            Formula::eq(Term::proj("y", 2), Term::proj("z", 2)),
                        ]),
                    ]),
                ),
            ]),
        ),
    );
    // PAR ⊆ x.
    let contains_par = Formula::forall(
        "y",
        t_pair.clone(),
        Formula::implies(
            Formula::pred("PAR", Term::var("y")),
            Formula::member(Term::var("y"), Term::var(x)),
        ),
    );
    // x is transitive.
    let transitive = Formula::forall(
        "y",
        t_pair.clone(),
        Formula::forall(
            "y2",
            t_pair.clone(),
            Formula::implies(
                Formula::and(vec![
                    Formula::member(Term::var("y"), Term::var(x)),
                    Formula::member(Term::var("y2"), Term::var(x)),
                    Formula::eq(Term::proj("y", 2), Term::proj("y2", 1)),
                ]),
                Formula::exists(
                    "y3",
                    t_pair,
                    Formula::and(vec![
                        Formula::member(Term::var("y3"), Term::var(x)),
                        Formula::eq(Term::proj("y3", 1), Term::proj("y", 1)),
                        Formula::eq(Term::proj("y3", 2), Term::proj("y2", 2)),
                    ]),
                ),
            ),
        ),
    );
    Formula::and(vec![endpoints_in_domain, contains_par, transitive])
}

/// The transitive-closure query of Example 3.1:
///
/// `{z/[U,U] | ∀x/{[U,U]} (φ(x) → z ∈ x)}`
///
/// where `φ(x)` is [`transitive_superset_formula`].  The intermediate type
/// `{[U,U]}` has set-height 1, so the query lies in `CALC_{0,1} − CALC_{0,0}` —
/// the paper's first demonstration that intermediate types add expressive power.
pub fn transitive_closure_query() -> Query {
    let t_pair = Type::flat_tuple(2);
    let body = Formula::forall(
        "x",
        Type::set(t_pair.clone()),
        Formula::implies(
            transitive_superset_formula("x"),
            Formula::member(Term::var("z"), Term::var("x")),
        ),
    );
    Query::new("z", t_pair, body, parent_schema()).expect("transitive closure query is well-typed")
}

/// The algebra expression `𝒫(PAR)` materialising every subset of the parent
/// relation — the powerset step whose cost experiment E2 measures against the
/// polynomial-time fixpoint baselines.
pub fn powerset_of_parents() -> AlgExpr {
    AlgExpr::pred("PAR").powerset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_calculus::{CalcClass, EvalConfig};
    use itq_object::Value;
    use itq_relational::{transitive_closure_seminaive, Relation};

    fn a(n: u32) -> Atom {
        Atom(n)
    }

    #[test]
    fn grandparent_matches_example_2_4() {
        let db = parent_database(&[(a(0), a(1)), (a(1), a(2)), (a(2), a(3))]);
        let out = grandparent_query()
            .eval(&db, &EvalConfig::default())
            .unwrap();
        assert_eq!(out, Instance::from_pairs(vec![(a(0), a(2)), (a(1), a(3))]));
        assert_eq!(
            grandparent_query().classification().minimal_class,
            CalcClass::relational()
        );
    }

    #[test]
    fn sibling_query_finds_shared_parents() {
        let db = parent_database(&[(a(0), a(1)), (a(0), a(2)), (a(3), a(4))]);
        let out = sibling_query().eval(&db, &EvalConfig::default()).unwrap();
        assert_eq!(out.len(), 2); // (1,2) and (2,1)
        assert!(out.contains(&Value::pair(a(1), a(2))));
    }

    #[test]
    fn excluding_parent_pairs_keeps_forest_answers_and_leaves_the_fragment() {
        let db = parent_database(&[(a(0), a(1)), (a(1), a(2)), (a(1), a(3)), (a(0), a(2))]);
        let gp = excluding_parent_pairs(&grandparent_query())
            .eval(&db, &EvalConfig::default())
            .unwrap();
        // (0,2) is both a grandparent pair and a parent pair.
        assert_eq!(gp, Instance::from_pairs(vec![(a(0), a(3))]));
        let query = excluding_parent_pairs(&sibling_query());
        assert_eq!(
            query.classification().minimal_class,
            CalcClass::relational()
        );
        let prepared = crate::engine::Engine::new().prepare(&query).unwrap();
        assert!(prepared.physical_plan().is_none());
    }

    #[test]
    fn genealogy_exemplars_run_through_the_prepared_pipeline() {
        use crate::engine::{Engine, Semantics};
        let engine = Engine::new();
        // Three atoms: the transitive-closure query's quantifier domain is
        // 2^(n²), so this is the largest size a debug-mode unit test affords.
        let db = parent_database(&[(a(0), a(1)), (a(1), a(2))]);
        for query in [
            grandparent_query(),
            sibling_query(),
            transitive_closure_query(),
        ] {
            let prepared = engine.prepare(&query).unwrap();
            let direct = query.eval(&db, engine.calc_config()).unwrap();
            let outcome = prepared.execute(&db, Semantics::Limited).unwrap();
            assert_eq!(outcome.result, direct);
            assert_eq!(prepared.classification(), &query.classification());
        }
    }

    #[test]
    fn transitive_closure_query_is_in_calc_0_1() {
        let classification = transitive_closure_query().classification();
        assert_eq!(classification.minimal_class, CalcClass::second_order());
        assert!(classification
            .intermediate_types
            .contains(&Type::set(Type::flat_tuple(2))));
    }

    #[test]
    fn transitive_closure_query_matches_relational_baseline() {
        // The empty database yields an empty closure.
        let empty_db = parent_database(&[]);
        let empty_out = transitive_closure_query()
            .eval(&empty_db, &EvalConfig::default())
            .unwrap();
        assert!(empty_out.is_empty());

        let cases: Vec<Vec<(Atom, Atom)>> = vec![
            vec![(a(0), a(1))],
            vec![(a(0), a(1)), (a(1), a(2))],
            vec![(a(0), a(1)), (a(1), a(0))],
            vec![(a(0), a(1)), (a(1), a(2)), (a(2), a(0))],
        ];
        for pairs in cases {
            let db = parent_database(&pairs);
            let calc = transitive_closure_query()
                .eval(&db, &EvalConfig::default())
                .unwrap();
            let baseline = transitive_closure_seminaive(&Relation::from_pairs(pairs.clone()));
            assert_eq!(
                Relation::from_instance(&calc).unwrap(),
                baseline,
                "edges {pairs:?}"
            );
        }
    }

    #[test]
    fn powerset_expression_classifies_at_level_one() {
        use itq_algebra::classify_expr;
        let c = classify_expr(&powerset_of_parents(), &parent_schema()).unwrap();
        assert_eq!(c.minimal_class.i, 0); // the powerset type is the *output* here…
        let through = powerset_of_parents().collapse();
        let c2 = classify_expr(&through, &parent_schema()).unwrap();
        assert_eq!(c2.minimal_class, CalcClass::second_order()); // …but intermediate once collapsed away
    }
}
