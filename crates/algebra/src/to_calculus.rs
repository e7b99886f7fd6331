//! Translation of algebraic expressions into equivalent calculus queries —
//! the executable half of Theorem 3.8 (`ALG_{k,i} ⊆ CALC_{k,i}` for `i ≥ k`),
//! following the structural induction sketched in the proof of Theorem 3.11.
//!
//! Every operator of the algebra becomes a quantifier pattern in the calculus:
//! projection and product introduce existentials over the operand types,
//! powerset becomes a universal ("every member of the candidate set satisfies the
//! operand formula"), and collapse becomes an existential over the operand's set
//! type.  Because the introduced variables have exactly the types of the algebraic
//! subexpressions, the translation preserves the intermediate-type profile of the
//! query.
//!
//! # Invented values add nothing to an algebra expression
//!
//! A prepared algebra handle relies on this to answer the Section 6 semantics
//! from one run of its limited evaluator.  *Claim:* on a database `d` whose
//! relations hold values of their declared types, for any subexpression `E`
//! of type `T` and any range `R ⊇ adom(d) ∪ adom(E)`, the objects `v` of
//! `cons_R(T)` that satisfy `E`'s translated formula `φ_E(v)` are exactly
//! `E(d)`.  By induction over `translate`, one case per operator:
//!
//! * `Pred`: the formula is `P(t)`.  `Singleton`: it is `t ≈ a`.
//! * `∪`, `∩` and `−`: it combines the operands' formulas; for `−` the result
//!   stays under its left operand.
//! * `π`, `×`, `μ` and `𝒞`: it pins `t` to components or members of an
//!   `∃`-bound operand variable, whose range `cons_R` holds every answer of
//!   the operand.
//! * `σ`: it conjoins a test on `t` with the operand's formula.
//! * `𝒫`: it is `∀v (v ∈ t → φ_E(v))`, which forces `t ⊆ E(d)`; every such
//!   subset lies in `cons_R({T})`.
//!
//! *Consequence:* every invention level's range contains `adom(d) ∪ adom(E)`,
//! so the unrestricted answer `Q|^Y[d]` is `E(d)` at every level, with no
//! invented atom: `Q^fi[d] = E(d)`, stable from level 1, and `Q^ti[d]` is
//! undefined.  The claim needs no case for a database holding values of
//! other types than the declared ones: every handle refuses a relation it
//! reads that holds one, under every semantics, before it computes anything
//! from it — a planned handle at its scan, a tuple-at-a-time one
//! (`use_algebra_planner(false)`) before its evaluator runs.

use crate::error::AlgError;
use crate::expr::{AlgExpr, SelFormula, SelTerm};
use crate::typing::{product_width, Typing};
use itq_calculus::{Formula, Query, Term};
use itq_object::{Schema, Type};

/// Translate an algebraic expression over `schema` into an equivalent calculus
/// query with target variable `t`.
pub fn to_calculus_query(expr: &AlgExpr, schema: &Schema) -> Result<Query, AlgError> {
    to_calculus_typing(expr, &Typing::new(expr, schema), schema)
}

/// [`to_calculus_query`] from the expression's [`Typing`] over `schema`,
/// whose recorded types the introduced variables take.
pub fn to_calculus_typing(
    expr: &AlgExpr,
    typing: &Typing,
    schema: &Schema,
) -> Result<Query, AlgError> {
    let output_type = typing.result()?.clone();
    let mut counter = 0usize;
    let body = translate(expr, 0, typing, "t", &mut counter);
    Query::new("t", output_type, body, schema.clone()).map_err(|e| AlgError::TypeMismatch {
        operator: "algebra→calculus translation".to_string(),
        detail: e.to_string(),
    })
}

fn fresh(counter: &mut usize) -> String {
    let name = format!("v#{counter}");
    *counter += 1;
    name
}

/// Formula stating that the components `offset+1 .. offset+width(ty)` of the
/// target variable equal the (components of the) operand variable.
fn components_match(target: &str, offset: usize, var: &str, ty: &Type) -> Formula {
    match ty {
        Type::Tuple(cs) => Formula::and(
            (1..=cs.len())
                .map(|j| Formula::eq(Term::proj(target, offset + j), Term::proj(var, j)))
                .collect(),
        ),
        _ => Formula::eq(Term::proj(target, offset + 1), Term::var(var)),
    }
}

/// Translate the subexpression at pre-order index `at` of a typing with no
/// error into a formula in the free variable `target`.
fn translate(
    expr: &AlgExpr,
    at: usize,
    typing: &Typing,
    target: &str,
    counter: &mut usize,
) -> Formula {
    match expr {
        AlgExpr::Pred(p) => Formula::pred(p, Term::var(target)),
        AlgExpr::Singleton(a) => Formula::eq(Term::var(target), Term::constant(*a)),
        AlgExpr::Union(a, b) => Formula::or(vec![
            translate(a, at + 1, typing, target, counter),
            translate(b, typing.second_operand(at), typing, target, counter),
        ]),
        AlgExpr::Intersect(a, b) => Formula::and(vec![
            translate(a, at + 1, typing, target, counter),
            translate(b, typing.second_operand(at), typing, target, counter),
        ]),
        AlgExpr::Diff(a, b) => Formula::and(vec![
            translate(a, at + 1, typing, target, counter),
            Formula::not(translate(
                b,
                typing.second_operand(at),
                typing,
                target,
                counter,
            )),
        ]),
        AlgExpr::Project(coords, a) => {
            let u = fresh(counter);
            let inner = translate(a, at + 1, typing, &u, counter);
            let mut conjuncts = vec![inner];
            for (j, &c) in coords.iter().enumerate() {
                conjuncts.push(Formula::eq(Term::proj(target, j + 1), Term::proj(&u, c)));
            }
            Formula::exists(&u, typing.ty(at + 1).clone(), Formula::and(conjuncts))
        }
        AlgExpr::Select(sel, a) => {
            let inner = translate(a, at + 1, typing, target, counter);
            let condition = translate_selection(sel, target);
            Formula::and(vec![inner, condition])
        }
        AlgExpr::Product(a, b) => {
            let second = typing.second_operand(at);
            let (ta, tb) = (typing.ty(at + 1), typing.ty(second));
            let u = fresh(counter);
            let v = fresh(counter);
            let fa = translate(a, at + 1, typing, &u, counter);
            let fb = translate(b, second, typing, &v, counter);
            let body = Formula::and(vec![
                fa,
                fb,
                components_match(target, 0, &u, ta),
                components_match(target, product_width(ta), &v, tb),
            ]);
            Formula::exists(&u, ta.clone(), Formula::exists(&v, tb.clone(), body))
        }
        AlgExpr::Untuple(a) => {
            let u = fresh(counter);
            let inner = translate(a, at + 1, typing, &u, counter);
            Formula::exists(
                &u,
                typing.ty(at + 1).clone(),
                Formula::and(vec![
                    inner,
                    Formula::eq(Term::proj(&u, 1), Term::var(target)),
                ]),
            )
        }
        AlgExpr::Collapse(a) => {
            let u = fresh(counter);
            let inner = translate(a, at + 1, typing, &u, counter);
            Formula::exists(
                &u,
                typing.ty(at + 1).clone(),
                Formula::and(vec![
                    inner,
                    Formula::member(Term::var(target), Term::var(&u)),
                ]),
            )
        }
        AlgExpr::Powerset(a) => {
            let v = fresh(counter);
            let inner = translate(a, at + 1, typing, &v, counter);
            Formula::forall(
                &v,
                typing.ty(at + 1).clone(),
                Formula::implies(Formula::member(Term::var(&v), Term::var(target)), inner),
            )
        }
    }
}

fn translate_sel_term(term: &SelTerm, target: &str) -> Term {
    match term {
        SelTerm::Coord(i) => Term::proj(target, *i),
        SelTerm::Const(a) => Term::constant(*a),
    }
}

fn translate_selection(sel: &SelFormula, target: &str) -> Formula {
    match sel {
        SelFormula::Eq(t1, t2) => Formula::eq(
            translate_sel_term(t1, target),
            translate_sel_term(t2, target),
        ),
        SelFormula::In(t1, t2) => Formula::member(
            translate_sel_term(t1, target),
            translate_sel_term(t2, target),
        ),
        SelFormula::Not(f) => Formula::not(translate_selection(f, target)),
        SelFormula::And(fs) => {
            Formula::and(fs.iter().map(|f| translate_selection(f, target)).collect())
        }
        SelFormula::Or(fs) => {
            Formula::or(fs.iter().map(|f| translate_selection(f, target)).collect())
        }
        SelFormula::Implies(f1, f2) => Formula::implies(
            translate_selection(f1, target),
            translate_selection(f2, target),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalConfig as AlgConfig;
    use itq_calculus::classify::classify;
    use itq_calculus::eval::EvalConfig as CalcConfig;
    use itq_object::{Atom, Database, Instance};

    fn schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2)).with("PERSON", Type::Atomic)
    }

    fn db() -> Database {
        Database::single(
            "PAR",
            Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
        )
        .with(
            "PERSON",
            Instance::from_atoms(vec![Atom(0), Atom(1), Atom(2)]),
        )
    }

    /// Check that the algebra expression and its calculus translation agree on a
    /// database.
    fn assert_agree(expr: &AlgExpr) {
        let alg_out = expr.eval(&db(), &schema(), &AlgConfig::default()).unwrap();
        let query = to_calculus_query(expr, &schema()).unwrap();
        let calc_out = query.eval(&db(), &CalcConfig::default()).unwrap();
        assert_eq!(alg_out, calc_out, "expression {expr}");
    }

    #[test]
    fn predicates_and_singletons_agree() {
        assert_agree(&AlgExpr::pred("PAR"));
        assert_agree(&AlgExpr::pred("PERSON"));
        assert_agree(&AlgExpr::singleton(Atom(1)));
        // A singleton outside the active domain also works: the constant enters
        // adom(Q).
        assert_agree(&AlgExpr::singleton(Atom(9)));
    }

    #[test]
    fn set_operators_agree() {
        assert_agree(&AlgExpr::pred("PAR").union(AlgExpr::pred("PAR")));
        assert_agree(
            &AlgExpr::pred("PAR")
                .intersect(AlgExpr::pred("PAR").select(SelFormula::coord_is(1, Atom(0)))),
        );
        assert_agree(
            &AlgExpr::pred("PAR")
                .diff(AlgExpr::pred("PAR").select(SelFormula::coord_is(1, Atom(0)))),
        );
        assert_agree(&AlgExpr::pred("PERSON").diff(AlgExpr::singleton(Atom(2))));
    }

    #[test]
    fn grandparent_expression_agrees() {
        let e = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        assert_agree(&e);
    }

    #[test]
    fn untuple_and_projection_agree() {
        assert_agree(&AlgExpr::pred("PAR").project(vec![1]));
        assert_agree(&AlgExpr::pred("PAR").project(vec![2, 1]));
        assert_agree(&AlgExpr::pred("PAR").project(vec![1]).untuple());
    }

    #[test]
    fn powerset_and_collapse_agree() {
        // Use a selective operand so the powerset stays small on the calculus side.
        let small = AlgExpr::pred("PAR").select(SelFormula::coord_is(1, Atom(0)));
        assert_agree(&small.clone().powerset());
        assert_agree(&small.powerset().collapse());
    }

    #[test]
    fn product_with_atomic_operand_agrees() {
        let e = AlgExpr::pred("PERSON").product(AlgExpr::singleton(Atom(0)));
        assert_agree(&e);
    }

    #[test]
    fn translation_preserves_intermediate_type_profile() {
        use crate::classify::classify_expr;
        let e = AlgExpr::pred("PAR").powerset().collapse();
        let alg_class = classify_expr(&e, &schema()).unwrap();
        let query = to_calculus_query(&e, &schema()).unwrap();
        let calc_class = classify(&query);
        assert_eq!(alg_class.minimal_class, calc_class.minimal_class);
    }

    #[test]
    fn nested_selection_connectives_agree() {
        let e = AlgExpr::pred("PAR").select(SelFormula::implies(
            SelFormula::coord_is(1, Atom(0)),
            SelFormula::negate(SelFormula::coords_eq(1, 2)),
        ));
        assert_agree(&e);
        let e2 = AlgExpr::pred("PAR").select(SelFormula::any(vec![
            SelFormula::coord_is(2, Atom(2)),
            SelFormula::coord_is(2, Atom(1)),
        ]));
        assert_agree(&e2);
    }
}
