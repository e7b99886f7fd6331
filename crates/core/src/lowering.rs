//! Prepare-time lowering of recognised calculus shapes: the one recogniser
//! the prepare pipeline and the incremental engine share.
//!
//! Two shapes are recognised:
//!
//! * [`lower_to_datalog`] — the conjunctive fragment of `CALC_{0,0}`: a flat
//!   target and an ∃-prefix of flat variables over a conjunction of
//!   predicate, `≈` and `¬≈` atoms, lowered to one range-restricted Datalog
//!   rule.  These are the conjunctive queries with disequalities, the target
//!   class of the semijoin-query analysis of Leinders, Tyszkiewicz and Van
//!   den Bussche.
//! * [`recognize_transitive_closure`] — the Example 3.1 closure, up to
//!   alpha-renaming and the name of its edge predicate.
//!
//! [`Engine::prepare`](crate::engine::Engine::prepare) turns a recognised
//! rule into a σ/π/× expression and plans it once ([`plan_rule`]), so the
//! limited interpretation of a conjunctive query runs as set-at-a-time hash
//! joins instead of enumerating its quantifier domains.
//! [`IncrementalDb`](crate::incremental::IncrementalDb) re-executes a
//! watched conjunctive view through that plan, and maintains only the
//! closure differentially (semi-naively).
//!
//! Why the rule's answer is the limited interpretation's: range restriction
//! puts every answer coordinate and every disequality variable in a body
//! literal, so their values are read from the database; any other class of
//! equated coordinates is witnessed by its constant (in `adom(Q)`) or, having
//! none, by any atom of the range `adom(d) ∪ adom(Q)`, which a matched
//! literal makes non-empty.

use itq_algebra::{AlgExpr, PhysicalPlan, SelFormula};
use itq_calculus::{Formula, Query, Term};
use itq_object::{Atom, Type};
use itq_relational::{DatalogAtom, Rule, TermPattern};
use std::collections::BTreeMap;

/// The reserved head predicate of lowered rules.
pub(crate) const VIEW_PRED: &str = "__view__";

/// The width of a flat type: 1 for `U`, `n` for `[U,…,U]`, `None` otherwise.
pub(crate) fn flat_width(ty: &Type) -> Option<usize> {
    match ty {
        Type::Atomic => Some(1),
        Type::Tuple(components) if components.iter().all(|c| matches!(c, Type::Atomic)) => {
            Some(components.len())
        }
        _ => None,
    }
}

/// Recognise the Example 3.1 transitive-closure query over some binary
/// predicate: the body must alpha-match the canonical
/// [`crate::queries::transitive_closure_query`] with its predicate renamed.
/// Returns the edge predicate.
pub(crate) fn recognize_transitive_closure(query: &Query) -> Option<String> {
    if *query.target_type() != Type::flat_tuple(2) {
        return None;
    }
    let preds: Vec<String> = query.body().predicates().into_iter().collect();
    let [pred] = preds.as_slice() else {
        return None;
    };
    if query.schema().type_of(pred) != Some(&Type::flat_tuple(2)) {
        return None;
    }
    let reference = crate::queries::transitive_closure_query();
    let lhs = alpha_canonical(reference.body(), reference.target(), "PAR");
    let rhs = alpha_canonical(query.body(), query.target(), pred);
    (lhs == rhs).then(|| pred.clone())
}

/// Rename the target variable to `t#`, the edge predicate to `P#`, and every
/// bound variable to `q0, q1, …` in pre-order (scoped, so shadowing is
/// handled) — two formulas are alpha-equivalent modulo the predicate name
/// exactly when their canonical forms are equal.
fn alpha_canonical(formula: &Formula, target: &str, pred: &str) -> Formula {
    fn lookup(v: &str, target: &str, scope: &[(String, String)]) -> String {
        for (orig, fresh) in scope.iter().rev() {
            if orig == v {
                return fresh.clone();
            }
        }
        if v == target {
            "t#".to_string()
        } else {
            format!("free#{v}")
        }
    }
    fn term(t: &Term, target: &str, scope: &[(String, String)]) -> Term {
        match t {
            Term::Const(a) => Term::Const(*a),
            Term::Var(v) => Term::Var(lookup(v, target, scope)),
            Term::Proj(v, i) => Term::Proj(lookup(v, target, scope), *i),
        }
    }
    fn go(
        f: &Formula,
        target: &str,
        pred: &str,
        scope: &mut Vec<(String, String)>,
        counter: &mut usize,
    ) -> Formula {
        match f {
            Formula::Eq(a, b) => Formula::Eq(term(a, target, scope), term(b, target, scope)),
            Formula::Member(a, b) => {
                Formula::Member(term(a, target, scope), term(b, target, scope))
            }
            Formula::Pred(name, t) => Formula::Pred(
                if name == pred {
                    "P#".to_string()
                } else {
                    name.clone()
                },
                term(t, target, scope),
            ),
            Formula::Not(inner) => Formula::not(go(inner, target, pred, scope, counter)),
            Formula::And(fs) => Formula::And(
                fs.iter()
                    .map(|g| go(g, target, pred, scope, counter))
                    .collect(),
            ),
            Formula::Or(fs) => Formula::Or(
                fs.iter()
                    .map(|g| go(g, target, pred, scope, counter))
                    .collect(),
            ),
            Formula::Implies(a, b) => Formula::implies(
                go(a, target, pred, scope, counter),
                go(b, target, pred, scope, counter),
            ),
            Formula::Iff(a, b) => Formula::iff(
                go(a, target, pred, scope, counter),
                go(b, target, pred, scope, counter),
            ),
            Formula::Exists(v, ty, body) | Formula::Forall(v, ty, body) => {
                let fresh = format!("q{counter}");
                *counter += 1;
                scope.push((v.clone(), fresh.clone()));
                let inner = go(body, target, pred, scope, counter);
                scope.pop();
                match f {
                    Formula::Exists(..) => Formula::Exists(fresh, ty.clone(), Box::new(inner)),
                    _ => Formula::Forall(fresh, ty.clone(), Box::new(inner)),
                }
            }
        }
    }
    go(formula, target, pred, &mut Vec::new(), &mut 0)
}

/// A coordinate of a flat variable, or a constant — the nodes the equality
/// conjuncts of a conjunctive body merge into classes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ClassKey {
    Coord(String, usize),
    Const(Atom),
}

#[derive(Default)]
struct Classes {
    index: BTreeMap<ClassKey, usize>,
    parent: Vec<usize>,
}

impl Classes {
    fn node(&mut self, key: ClassKey) -> usize {
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.index.insert(key, i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Lower a conjunctive calculus query to a single safe Datalog rule with head
/// [`VIEW_PRED`], or `None` when the query falls outside the fragment:
///
/// * the target type is `U` or `[U,…,U]` with width ≥ 2 (width-1 tuples
///   cannot round-trip through [`itq_relational::Relation::to_instance`]);
/// * the body is an ∃-prefix of flat-typed variables over a conjunction of
///   `P(x)`, `s ≈ t`, and `¬(s ≈ t)` conjuncts;
/// * the resulting rule has at least one body literal and is range
///   restricted (so the Datalog answer matches the limited interpretation).
pub(crate) fn lower_to_datalog(query: &Query) -> Option<Rule> {
    let target = query.target().to_string();
    let width = flat_width(query.target_type())?;
    if matches!(query.target_type(), Type::Tuple(c) if c.len() == 1) {
        return None;
    }
    let mut widths: BTreeMap<String, usize> = BTreeMap::new();
    widths.insert(target.clone(), width);

    let mut body = query.body();
    while let Formula::Exists(v, ty, inner) = body {
        if widths.contains_key(v) {
            return None; // shadowing — stay out of the fragment
        }
        widths.insert(v.clone(), flat_width(ty)?);
        body = inner;
    }
    let conjuncts: Vec<&Formula> = match body {
        Formula::And(fs) => fs.iter().collect(),
        other => vec![other],
    };

    let mut classes = Classes::default();
    // A wide variable (width > 1) only participates through projections or
    // whole-tuple equality with an equally wide variable.
    let wide = |t: &Term, widths: &BTreeMap<String, usize>| match t {
        Term::Var(v) => widths
            .get(v)
            .copied()
            .filter(|&w| w > 1)
            .map(|w| (v.clone(), w)),
        _ => None,
    };
    let key_of = |t: &Term, widths: &BTreeMap<String, usize>| -> Option<ClassKey> {
        match t {
            Term::Const(a) => Some(ClassKey::Const(*a)),
            Term::Var(v) => (*widths.get(v)? == 1).then(|| ClassKey::Coord(v.clone(), 1)),
            Term::Proj(v, i) => {
                (*i >= 1 && *i <= *widths.get(v)?).then(|| ClassKey::Coord(v.clone(), *i))
            }
        }
    };

    let mut literals: Vec<(String, Vec<usize>)> = Vec::new();
    let mut neqs: Vec<(usize, usize)> = Vec::new();
    for conjunct in conjuncts {
        match conjunct {
            Formula::Pred(name, t) => {
                let pred_width = flat_width(query.schema().type_of(name)?)?;
                let keys: Vec<ClassKey> = match t {
                    Term::Var(v) => {
                        if widths.get(v) != Some(&pred_width) {
                            return None;
                        }
                        (1..=pred_width)
                            .map(|i| ClassKey::Coord(v.clone(), i))
                            .collect()
                    }
                    Term::Proj(..) | Term::Const(_) => {
                        if pred_width != 1 {
                            return None;
                        }
                        vec![key_of(t, &widths)?]
                    }
                };
                let nodes = keys.into_iter().map(|k| classes.node(k)).collect();
                literals.push((name.clone(), nodes));
            }
            Formula::Eq(a, b) => match (wide(a, &widths), wide(b, &widths)) {
                (Some((va, wa)), Some((vb, wb))) if wa == wb => {
                    for i in 1..=wa {
                        let na = classes.node(ClassKey::Coord(va.clone(), i));
                        let nb = classes.node(ClassKey::Coord(vb.clone(), i));
                        classes.union(na, nb);
                    }
                }
                (None, None) => {
                    let na = classes.node(key_of(a, &widths)?);
                    let nb = classes.node(key_of(b, &widths)?);
                    classes.union(na, nb);
                }
                _ => return None,
            },
            Formula::Not(inner) => match inner.as_ref() {
                Formula::Eq(a, b) => {
                    let na = classes.node(key_of(a, &widths)?);
                    let nb = classes.node(key_of(b, &widths)?);
                    neqs.push((na, nb));
                }
                _ => return None,
            },
            _ => return None,
        }
    }
    if literals.is_empty() {
        return None;
    }

    // Map each class to its datalog term: the class constant if one exists
    // (two distinct constants make the body unsatisfiable — out of fragment),
    // a canonical variable otherwise.
    let mut class_const: BTreeMap<usize, Atom> = BTreeMap::new();
    let keyed: Vec<(ClassKey, usize)> =
        classes.index.iter().map(|(k, &i)| (k.clone(), i)).collect();
    for (key, node) in &keyed {
        if let ClassKey::Const(a) = key {
            let root = classes.find(*node);
            match class_const.get(&root) {
                Some(existing) if existing != a => return None,
                _ => {
                    class_const.insert(root, *a);
                }
            }
        }
    }
    let term_for = |classes: &mut Classes, node: usize| -> TermPattern {
        let root = classes.find(node);
        match class_const.get(&root) {
            Some(a) => TermPattern::Const(*a),
            None => TermPattern::Var(format!("v{root}")),
        }
    };

    let mut head_terms = Vec::with_capacity(width);
    for i in 1..=width {
        let key = ClassKey::Coord(target.clone(), i);
        let &node = classes.index.get(&key)?; // unmentioned output coordinate — unsafe
        head_terms.push(term_for(&mut classes, node));
    }
    let body_atoms: Vec<DatalogAtom> = literals
        .into_iter()
        .map(|(name, nodes)| {
            DatalogAtom::new(
                &name,
                nodes
                    .into_iter()
                    .map(|n| term_for(&mut classes, n))
                    .collect(),
            )
        })
        .collect();
    let mut rule = Rule::new(DatalogAtom::new(VIEW_PRED, head_terms), body_atoms);
    for (a, b) in neqs {
        let (ta, tb) = (term_for(&mut classes, a), term_for(&mut classes, b));
        match (ta, tb) {
            (TermPattern::Var(va), TermPattern::Var(vb)) => {
                if va == vb {
                    return None; // ¬(x ≈ x) — never satisfiable
                }
                rule = rule.with_neq(&va, &vb);
            }
            // A disequality against a constant (or between two constants)
            // falls outside the Rule::neq fragment.
            _ => return None,
        }
    }
    rule.is_range_restricted().then_some(rule)
}

/// The σ/π/× form of a lowered rule, planned once: the body literals'
/// left-deep product (then one singleton per head constant), each equality
/// and disequality selected at the first product that binds both of its
/// sides, and the head projected out (untupled for a `U` target).  The
/// planner turns each selected product into a hash join.  `None` if the plan
/// does not produce the query's target type, which no rule from
/// [`lower_to_datalog`] does.
pub(crate) fn plan_rule(rule: &Rule, query: &Query) -> Option<PhysicalPlan> {
    let mut factors = Vec::new();
    // The conjuncts each factor makes testable, in factor order.
    let mut stages: Vec<Vec<SelFormula>> = Vec::new();
    let mut first: BTreeMap<&str, usize> = BTreeMap::new();
    let mut factor_of = Vec::new();
    for (k, literal) in rule.body.iter().enumerate() {
        factors.push(AlgExpr::pred(&literal.pred));
        let mut conjuncts = Vec::new();
        for term in &literal.terms {
            factor_of.push(k);
            let coord = factor_of.len();
            match term {
                TermPattern::Var(v) => match first.get(v.as_str()) {
                    Some(&seen) => conjuncts.push(SelFormula::coords_eq(seen, coord)),
                    None => {
                        first.insert(v, coord);
                    }
                },
                TermPattern::Const(a) => conjuncts.push(SelFormula::coord_is(coord, *a)),
            }
        }
        stages.push(conjuncts);
    }
    for (a, b) in &rule.neq {
        let (ca, cb) = (*first.get(a.as_str())?, *first.get(b.as_str())?);
        stages[factor_of[ca.max(cb) - 1]].push(SelFormula::negate(SelFormula::coords_eq(ca, cb)));
    }
    let mut head = Vec::with_capacity(rule.head.terms.len());
    for term in &rule.head.terms {
        head.push(match term {
            TermPattern::Var(v) => *first.get(v.as_str())?,
            TermPattern::Const(a) => {
                factors.push(AlgExpr::singleton(*a));
                stages.push(Vec::new());
                factor_of.push(factors.len() - 1);
                factor_of.len()
            }
        });
    }

    // The first factor's own conjuncts wait for the first product: a
    // selection needs tuples, and a lone `U` relation has none.
    let mut factors = factors.into_iter();
    let mut stages = stages.into_iter();
    let mut expr = factors.next()?;
    let mut pending = stages.next()?;
    for (factor, conjuncts) in factors.zip(stages) {
        pending.extend(conjuncts);
        expr = expr.product(factor);
        if !pending.is_empty() {
            expr = expr.select(SelFormula::all(std::mem::take(&mut pending)));
        }
    }
    if !pending.is_empty() {
        expr = expr.select(SelFormula::all(pending));
    }
    let target = query.target_type();
    let identity = head.iter().copied().eq(1..=factor_of.len());
    if !identity || itq_algebra::infer_type(&expr, query.schema()).ok()? != *target {
        expr = expr.project(head);
        if *target == Type::Atomic {
            expr = expr.untuple();
        }
    }
    let plan = itq_algebra::plan(&expr, query.schema()).ok()?;
    (plan.output_type() == target).then_some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use itq_algebra::{JoinStrategy, PhysNode};

    #[test]
    fn lowering_covers_the_genealogy_shapes_and_rejects_the_rest() {
        let gp = lower_to_datalog(&queries::grandparent_query()).unwrap();
        assert!(itq_relational::Program::new(vec![gp.clone()]).is_safe());
        assert_eq!(gp.head.pred, VIEW_PRED);
        assert_eq!(gp.body.len(), 2);

        let sib = lower_to_datalog(&queries::sibling_query()).unwrap();
        assert_eq!(sib.neq.len(), 1);

        // The TC query quantifies over a set type — out of the fragment.
        assert!(lower_to_datalog(&queries::transitive_closure_query()).is_none());
    }

    #[test]
    fn tc_recognition_is_alpha_and_predicate_insensitive() {
        assert_eq!(
            recognize_transitive_closure(&queries::transitive_closure_query()),
            Some("PAR".to_string())
        );
        // The grandparent query is not the TC shape.
        assert_eq!(
            recognize_transitive_closure(&queries::grandparent_query()),
            None
        );
    }

    fn planned(query: &Query) -> PhysicalPlan {
        plan_rule(&lower_to_datalog(query).unwrap(), query).unwrap()
    }

    #[test]
    fn genealogy_rules_plan_to_the_algebra_exemplar_joins() {
        // Grandparent is π_{1,4}(σ_{$2=$3}(PAR × PAR)), the algebra `ga`.
        let gp = planned(&queries::grandparent_query());
        assert_eq!(
            gp.render(),
            "hash-join [$2 = $1'] project π_{1,4}\n├─ scan PAR\n└─ scan PAR"
        );
        // Sibling keys on the shared parent; the disequality is a residual.
        let sib = planned(&queries::sibling_query());
        assert!(matches!(
            sib.root(),
            PhysNode::Join { strategy: JoinStrategy::Hash { keys }, residual, .. }
                if keys == &[(1, 1)] && residual.len() == 1
        ));
    }

    #[test]
    fn constants_and_unary_targets_plan_to_their_target_type() {
        let schema = queries::parent_schema().with("PERSON", Type::Atomic);
        let query = |target: Type, body: Formula| Query::new("t", target, body, schema.clone());
        // {t/U | PERSON(t)} is the relation itself.
        let people = query(Type::Atomic, Formula::pred("PERSON", Term::var("t"))).unwrap();
        assert_eq!(planned(&people).render(), "scan PERSON");
        // A head constant joins as a singleton: {t/[U,U] | PERSON(t.1) ∧ t.2 ≈ a0}.
        let tagged = query(
            Type::flat_tuple(2),
            Formula::and(vec![
                Formula::pred("PERSON", Term::proj("t", 1)),
                Formula::eq(Term::proj("t", 2), Term::Const(Atom(0))),
            ]),
        )
        .unwrap();
        assert_eq!(planned(&tagged).output_type(), &Type::flat_tuple(2));
        assert!(planned(&tagged).render().contains("const {a0}"));
        // A `U` target over a pair relation is projected, then untupled.
        let parents = query(
            Type::Atomic,
            Formula::exists(
                "x",
                Type::flat_tuple(2),
                Formula::and(vec![
                    Formula::pred("PAR", Term::var("x")),
                    Formula::eq(Term::var("t"), Term::proj("x", 1)),
                ]),
            ),
        )
        .unwrap();
        assert_eq!(planned(&parents).output_type(), &Type::Atomic);
        assert!(planned(&parents).render().starts_with("untuple μ"));
    }
}
