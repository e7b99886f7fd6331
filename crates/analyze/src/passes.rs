//! The analysis passes.
//!
//! [`analyze_query`] and [`analyze_algebra`] run every pass and collect the
//! diagnostics into a [`Report`]. Analysis is **pure**: it borrows the query
//! or expression, never mutates anything, and never fails — defects become
//! diagnostics, not errors. Running it any number of times changes no
//! observable behaviour of evaluation (pinned by `tests/analyze_equivalence.rs`
//! at the repository root).

use crate::diag::{self, Diagnostic, Report};
use crate::walk::{algebra_preorder, formula_preorder, AlgNode};
use itq_algebra::{
    classify_typing, AlgError, AlgExpr, EvalConfig as AlgConfig, NodeType, SelFormula, SelTerm,
    Typing,
};
use itq_calculus::{EvalConfig as CalcConfig, Formula, Query, Var};
use itq_object::{cons_cardinality, Schema, Type};

/// The evaluation budgets the static budget passes predict against. Mirrors
/// the calculus `max_quantifier_domain` and the algebra `max_instance` limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budgets {
    /// Calculus quantifier-domain budget (`EvalConfig::max_quantifier_domain`).
    pub max_quantifier_domain: u64,
    /// Algebra instance-size budget (`EvalConfig::max_instance`).
    pub max_instance: u64,
}

impl Default for Budgets {
    /// The budgets of the default evaluation configs.
    fn default() -> Self {
        Budgets {
            max_quantifier_domain: CalcConfig::default().max_quantifier_domain,
            max_instance: AlgConfig::default().max_instance,
        }
    }
}

/// Analyze a validated calculus query. Diagnostic `node` indices point into
/// [`formula_preorder`] of the query body.
pub fn analyze_query(query: &Query, budgets: &Budgets) -> Report {
    let mut report = Report::default();
    let body = query.body();

    variable_hygiene(body, query.target(), &mut report);
    formula_folding(body, &mut report);
    quantifier_budget(body, budgets, &mut report);
    stratum_report(query, &mut report);
    report
}

/// Analyze an algebra expression over a schema. Diagnostic `node` indices
/// point into [`algebra_preorder`] of the expression.
pub fn analyze_algebra(expr: &AlgExpr, schema: &Schema, budgets: &Budgets) -> Report {
    let mut report = Report::default();
    let nodes = algebra_preorder(expr);
    let index_of = |node: &AlgNode<'_>| -> usize {
        nodes
            .iter()
            .position(|n| n.key() == node.key())
            .expect("node comes from the same tree")
    };

    // The typing numbers the expression nodes alone, in the same pre-order:
    // `exprs[at]` is the `nodes` index of typing node `at`.
    let typing = Typing::new(expr, schema);
    let exprs: Vec<usize> = (0..nodes.len())
        .filter(|&i| matches!(nodes[i], AlgNode::Expr(_)))
        .collect();

    undefined_relations(&nodes, schema, &mut report);
    algebra_typing(&typing, &exprs, &mut report);
    vacuous_selections(&nodes, &typing, &exprs, &mut report);
    selection_folding(&nodes, &mut report);
    always_empty(&nodes, &mut report);
    cardinality_budget(expr, budgets, &index_of, &mut report);
    algebra_stratum(&typing, schema, &mut report);
    report
}

// ---------------------------------------------------------------------------
// Calculus passes
// ---------------------------------------------------------------------------

/// ITQ0101 / ITQ0102: unused and shadowed quantified variables.
fn variable_hygiene(body: &Formula, target: &str, report: &mut Report) {
    let mut scope: Vec<Var> = vec![target.to_string()];
    let mut idx = 0usize;
    hygiene_walk(body, &mut idx, &mut scope, target, report);
}

fn hygiene_walk(
    f: &Formula,
    idx: &mut usize,
    scope: &mut Vec<Var>,
    target: &str,
    report: &mut Report,
) {
    let my = *idx;
    *idx += 1;
    match f {
        Formula::Eq(..) | Formula::Member(..) | Formula::Pred(..) => {}
        Formula::Not(inner) => hygiene_walk(inner, idx, scope, target, report),
        Formula::And(parts) | Formula::Or(parts) => {
            for part in parts {
                hygiene_walk(part, idx, scope, target, report);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            hygiene_walk(a, idx, scope, target, report);
            hygiene_walk(b, idx, scope, target, report);
        }
        Formula::Exists(var, _, inner) | Formula::Forall(var, _, inner) => {
            if scope.contains(var) {
                let mut d = Diagnostic::new(
                    diag::SHADOWED_VARIABLE,
                    format!("quantifier rebinds `{var}`, shadowing the enclosing binding"),
                )
                .at(my);
                if var == target {
                    d = d.with_note(format!(
                        "`{var}` is the query target; the body can no longer refer to it"
                    ));
                }
                report.diagnostics.push(d);
            }
            if !inner.free_vars().contains(var) {
                report.diagnostics.push(
                    Diagnostic::new(
                        diag::UNUSED_VARIABLE,
                        format!("quantified variable `{var}` is never used"),
                    )
                    .at(my),
                );
            }
            scope.push(var.clone());
            hygiene_walk(inner, idx, scope, target, report);
            scope.pop();
        }
    }
}

/// ITQ0103 / ITQ0104: constant-fold subformulas and flag the *maximal* ones
/// that are always true or always false. The literal constants `⊤` and `⊥`
/// themselves are deliberate and never flagged.
fn formula_folding(body: &Formula, report: &mut Report) {
    let mut folds: Vec<(Option<bool>, usize)> = Vec::new();
    fold_formula(body, &mut folds);
    let pre = formula_preorder(body);
    let mut i = 0usize;
    while i < folds.len() {
        let (fold, size) = folds[i];
        let node = pre[i];
        let literal = node == &Formula::truth() || node == &Formula::falsity();
        match fold {
            Some(value) if !literal => {
                let (code, rendered) = if value {
                    (diag::ALWAYS_TRUE, "true; it can be replaced by ⊤")
                } else {
                    (diag::ALWAYS_FALSE, "false; it can be replaced by ⊥")
                };
                report.diagnostics.push(
                    Diagnostic::new(
                        code,
                        format!("subformula is {rendered} on every database instance"),
                    )
                    .at(i),
                );
                // Skip the whole subtree: descendants fold too, but the
                // maximal node is the actionable one.
                i += size;
            }
            _ => i += 1,
        }
    }
}

/// Bottom-up constant folding. Returns `(fold, subtree_size)` for the root and
/// records the same pair for every node in pre-order.
fn fold_formula(f: &Formula, out: &mut Vec<(Option<bool>, usize)>) -> (Option<bool>, usize) {
    let my = out.len();
    out.push((None, 1)); // placeholder, fixed below
    let mut size = 1usize;
    let fold = match f {
        Formula::Eq(t1, t2) => {
            if t1 == t2 {
                Some(true)
            } else {
                match (t1.constant_atom(), t2.constant_atom()) {
                    (Some(a), Some(b)) if a != b => Some(false),
                    _ => None,
                }
            }
        }
        Formula::Member(..) | Formula::Pred(..) => None,
        Formula::Not(inner) => {
            let (v, s) = fold_formula(inner, out);
            size += s;
            v.map(|b| !b)
        }
        Formula::And(parts) | Formula::Or(parts) => {
            let mut vals = Vec::with_capacity(parts.len());
            for part in parts {
                let (v, s) = fold_formula(part, out);
                size += s;
                vals.push(v);
            }
            let conjunctive = matches!(f, Formula::And(_));
            if vals.contains(&Some(!conjunctive)) {
                Some(!conjunctive)
            } else if vals.iter().all(|v| *v == Some(conjunctive)) {
                Some(conjunctive)
            } else {
                None
            }
        }
        Formula::Implies(a, b) => {
            let (va, sa) = fold_formula(a, out);
            let (vb, sb) = fold_formula(b, out);
            size += sa + sb;
            match (va, vb) {
                (Some(false), _) | (_, Some(true)) => Some(true),
                (Some(true), Some(false)) => Some(false),
                _ => None,
            }
        }
        Formula::Iff(a, b) => {
            let (va, sa) = fold_formula(a, out);
            let (vb, sb) = fold_formula(b, out);
            size += sa + sb;
            match (va, vb) {
                (Some(x), Some(y)) => Some(x == y),
                _ => None,
            }
        }
        Formula::Exists(_, ty, inner) | Formula::Forall(_, ty, inner) => {
            let (v, s) = fold_formula(inner, out);
            size += s;
            // The constructive domain of any set type contains ∅ even over an
            // empty universe, so those domains are provably nonempty; atomic
            // and flat-tuple domains may be empty and block the inference.
            let domain_nonempty = cons_cardinality(ty, 0).as_exact() != Some(0);
            let existential = matches!(f, Formula::Exists(..));
            match v {
                Some(value) if value == existential => {
                    if domain_nonempty {
                        Some(existential)
                    } else {
                        None
                    }
                }
                Some(value) => Some(value),
                None => None,
            }
        }
    };
    out[my] = (fold, size);
    (fold, size)
}

/// ITQ0301: a quantifier whose domain must exceed the budget even over a
/// single-atom universe can never evaluate.
fn quantifier_budget(body: &Formula, budgets: &Budgets, report: &mut Report) {
    for (i, node) in formula_preorder(body).iter().enumerate() {
        if let Formula::Exists(var, ty, _) | Formula::Forall(var, ty, _) = node {
            let floor = cons_cardinality(ty, 1);
            if !floor.fits_within(budgets.max_quantifier_domain) {
                report.diagnostics.push(
                    Diagnostic::new(
                        diag::QUANTIFIER_BUDGET,
                        format!(
                            "the domain of `{var}`/{ty} holds at least {floor} objects over a \
                             single atom, so evaluation must exceed the quantifier budget \
                             (limit {})",
                            budgets.max_quantifier_domain
                        ),
                    )
                    .at(i)
                    .with_note(format!(
                        "cons domains grow as a tower in the set-height of the type \
                         ({} here); lower the type or raise max_quantifier_domain",
                        ty.set_height()
                    )),
                );
            }
        }
    }
}

/// ITQ0401 / ITQ0402: the CALC_{k,i} stratum report and the per-quantifier
/// intermediate-type markers that drive the `i` coordinate.
fn stratum_report(query: &Query, report: &mut Report) {
    let c = query.classification();
    let mut d = Diagnostic::new(
        diag::STRATUM_REPORT,
        format!(
            "query is in {} (k from input/output types, i from intermediates)",
            c.minimal_class
        ),
    )
    .at(0);
    if !c.intermediate_types.is_empty() {
        let tys: Vec<String> = c.intermediate_types.iter().map(|t| t.to_string()).collect();
        d = d.with_note(format!("intermediate types: {}", tys.join(", ")));
    }
    report.diagnostics.push(d);

    for (i, node) in formula_preorder(query.body()).iter().enumerate() {
        if let Formula::Exists(var, ty, _) | Formula::Forall(var, ty, _) = node {
            if c.intermediate_types.contains(ty) {
                report.diagnostics.push(
                    Diagnostic::new(
                        diag::INTERMEDIATE_TYPE,
                        format!(
                            "`{var}` ranges over intermediate type {ty} (set-height {}), \
                             keeping the query out of CALC_{{{},{}}}",
                            ty.set_height(),
                            c.minimal_class.k,
                            ty.set_height().saturating_sub(1),
                        ),
                    )
                    .at(i),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Algebra passes
// ---------------------------------------------------------------------------

/// ITQ0201: predicate symbols the schema does not declare.
fn undefined_relations(nodes: &[AlgNode<'_>], schema: &Schema, report: &mut Report) {
    for (i, node) in nodes.iter().enumerate() {
        if let AlgNode::Expr(AlgExpr::Pred(name)) = node {
            if schema.type_of(name).is_none() {
                report.diagnostics.push(
                    Diagnostic::new(
                        diag::UNDEFINED_RELATION,
                        AlgError::UnknownPredicate { name: name.clone() }.to_string(),
                    )
                    .at(i)
                    .with_note(format!(
                        "the schema declares: {}",
                        schema.iter().map(|(n, _)| n).collect::<Vec<_>>().join(", ")
                    )),
                );
            }
        }
    }
}

/// ITQ0202: operators whose operands type-check individually but whose
/// combination does not (arity/width mismatches included), in subterm order.
/// Flagging only the originating operator keeps one defect from cascading up
/// the tree.
fn algebra_typing(typing: &Typing, exprs: &[usize], report: &mut Report) {
    for (node, &i) in typing.nodes().iter().zip(exprs) {
        match node {
            // An undefined relation is ITQ0201's.
            NodeType::Failed(AlgError::UnknownPredicate { .. })
            | NodeType::Typed(_)
            | NodeType::Blocked => {}
            NodeType::Failed(err) => {
                report
                    .diagnostics
                    .push(Diagnostic::new(diag::TYPE_MISMATCH, err.to_string()).at(i));
            }
        }
    }
}

/// ITQ0203: the typing hole — a coordinate-free selection over a non-tuple
/// operand types, but every backend rejects it before execution (the planner
/// at prepare time). The message is byte-identical to the planner's.
fn vacuous_selections(
    nodes: &[AlgNode<'_>],
    typing: &Typing,
    exprs: &[usize],
    report: &mut Report,
) {
    for (at, &i) in exprs.iter().enumerate() {
        let AlgNode::Expr(AlgExpr::Select(_, operand)) = nodes[i] else {
            continue;
        };
        // Report once per selection chain, at the innermost σ, matching the
        // single error the planner raises after peeling nested selections.
        if matches!(operand.as_ref(), AlgExpr::Select(..)) {
            continue;
        }
        // The operand directly follows its selection in pre-order.
        let (Some(_), Some(ty)) = (typing.nodes()[at].ty(), typing.nodes()[at + 1].ty()) else {
            continue;
        };
        if matches!(ty, Type::Tuple(_)) {
            continue;
        }
        report.diagnostics.push(
            Diagnostic::new(
                diag::VACUOUS_SELECTION,
                AlgError::TypeMismatch {
                    operator: "selection".to_string(),
                    detail: format!("non-tuple operand {operand} of type {ty}"),
                }
                .to_string(),
            )
            .at(i)
            .with_note(
                "typing admits a coordinate-free selection over any operand, but every \
                 backend rejects a non-tuple operand before execution",
            ),
        );
    }
}

/// ITQ0204 / ITQ0205: selection formulas that can never hold (contradictions)
/// or always hold. Unlike the calculus pass, the literal `⊤`/`⊥` selections
/// are flagged too: `σ_⊤` is the identity and `σ_⊥` the empty set.
fn selection_folding(nodes: &[AlgNode<'_>], report: &mut Report) {
    for (i, node) in nodes.iter().enumerate() {
        let AlgNode::Expr(AlgExpr::Select(sel, _)) = node else {
            continue;
        };
        // The selection subtree starts right after the Select node itself.
        let sel_idx = i + 1;
        match fold_sel(sel) {
            Some(false) => {
                report.diagnostics.push(
                    Diagnostic::new(
                        diag::SELECTION_ALWAYS_FALSE,
                        "selection formula never holds; the selection is always empty",
                    )
                    .at(sel_idx),
                );
            }
            Some(true) => {
                report.diagnostics.push(
                    Diagnostic::new(
                        diag::SELECTION_ALWAYS_TRUE,
                        "selection formula always holds; the selection is the identity",
                    )
                    .at(sel_idx),
                );
            }
            None => {
                if let SelFormula::And(parts) = sel {
                    if let Some(reason) = sel_contradiction(parts) {
                        report.diagnostics.push(
                            Diagnostic::new(
                                diag::SELECTION_ALWAYS_FALSE,
                                "selection formula is contradictory; the selection is always \
                                 empty",
                            )
                            .at(sel_idx)
                            .with_note(reason),
                        );
                    }
                }
            }
        }
    }
}

/// Constant-fold a selection formula.
fn fold_sel(s: &SelFormula) -> Option<bool> {
    match s {
        SelFormula::Eq(t1, t2) => {
            if t1 == t2 {
                Some(true)
            } else {
                match (t1, t2) {
                    (SelTerm::Const(a), SelTerm::Const(b)) if a != b => Some(false),
                    _ => None,
                }
            }
        }
        SelFormula::In(..) => None,
        SelFormula::Not(inner) => fold_sel(inner).map(|b| !b),
        SelFormula::And(parts) => {
            let vals: Vec<_> = parts.iter().map(fold_sel).collect();
            if vals.contains(&Some(false)) {
                Some(false)
            } else if vals.iter().all(|v| *v == Some(true)) {
                Some(true)
            } else {
                None
            }
        }
        SelFormula::Or(parts) => {
            let vals: Vec<_> = parts.iter().map(fold_sel).collect();
            if vals.contains(&Some(true)) {
                Some(true)
            } else if vals.iter().all(|v| *v == Some(false)) {
                Some(false)
            } else {
                None
            }
        }
        SelFormula::Implies(a, b) => match (fold_sel(a), fold_sel(b)) {
            (Some(false), _) | (_, Some(true)) => Some(true),
            (Some(true), Some(false)) => Some(false),
            _ => None,
        },
    }
}

/// Syntactic contradictions among the conjuncts of an `And` that folding alone
/// misses: a literal and its negation, or one coordinate pinned to two
/// different constants.
fn sel_contradiction(parts: &[SelFormula]) -> Option<String> {
    for (i, p) in parts.iter().enumerate() {
        for q in &parts[i + 1..] {
            if q == &SelFormula::Not(Box::new(p.clone()))
                || p == &SelFormula::Not(Box::new(q.clone()))
            {
                return Some(format!("`{p}` and its negation are both required"));
            }
        }
    }
    // $i = 'a' ∧ $i = 'b' with a ≠ b.
    let pinned: Vec<(usize, itq_object::Atom)> = parts
        .iter()
        .filter_map(|p| match p {
            SelFormula::Eq(SelTerm::Coord(c), SelTerm::Const(a))
            | SelFormula::Eq(SelTerm::Const(a), SelTerm::Coord(c)) => Some((*c, *a)),
            _ => None,
        })
        .collect();
    for (i, (c1, a1)) in pinned.iter().enumerate() {
        for (c2, a2) in &pinned[i + 1..] {
            if c1 == c2 && a1 != a2 {
                return Some(format!(
                    "coordinate ${c1} is required to equal both {a1} and {a2}"
                ));
            }
        }
    }
    None
}

/// ITQ0206: expressions that denote the empty set on every instance for
/// syntactic reasons (difference of an expression with itself).
fn always_empty(nodes: &[AlgNode<'_>], report: &mut Report) {
    for (i, node) in nodes.iter().enumerate() {
        if let AlgNode::Expr(AlgExpr::Diff(a, b)) = node {
            if a == b {
                report.diagnostics.push(
                    Diagnostic::new(
                        diag::ALWAYS_EMPTY,
                        "difference of an expression with itself is always empty",
                    )
                    .at(i),
                );
            }
        }
    }
}

/// A lower bound on the cardinality an expression produces on *any* instance.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Lower {
    Exact(u128),
    /// At least 2^127 — beyond any representable budget.
    Huge,
}

impl Lower {
    fn exceeds(&self, limit: u64) -> bool {
        match self {
            Lower::Exact(n) => *n > u128::from(limit),
            Lower::Huge => true,
        }
    }
}

impl std::fmt::Display for Lower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lower::Exact(n) => write!(f, "{n}"),
            Lower::Huge => write!(f, "2^127 or more"),
        }
    }
}

/// ITQ0302: operators whose output must exceed the instance budget regardless
/// of the database, by a conservative minimum-cardinality analysis. Only the
/// deepest offending operator is flagged.
fn cardinality_budget(
    expr: &AlgExpr,
    budgets: &Budgets,
    index_of: &dyn Fn(&AlgNode<'_>) -> usize,
    report: &mut Report,
) {
    lower_bound(expr, budgets, index_of, report);
}

fn lower_bound(
    e: &AlgExpr,
    budgets: &Budgets,
    index_of: &dyn Fn(&AlgNode<'_>) -> usize,
    report: &mut Report,
) -> (Lower, bool) {
    let (bound, child_flagged, op) = match e {
        AlgExpr::Pred(_) => (Lower::Exact(0), false, ""),
        AlgExpr::Singleton(_) => (Lower::Exact(1), false, ""),
        AlgExpr::Union(a, b) => {
            let (la, fa) = lower_bound(a, budgets, index_of, report);
            let (lb, fb) = lower_bound(b, budgets, index_of, report);
            let max = match (la, lb) {
                (Lower::Exact(x), Lower::Exact(y)) => Lower::Exact(x.max(y)),
                _ => Lower::Huge,
            };
            (max, fa || fb, "union")
        }
        AlgExpr::Intersect(a, b) | AlgExpr::Diff(a, b) => {
            let (_, fa) = lower_bound(a, budgets, index_of, report);
            let (_, fb) = lower_bound(b, budgets, index_of, report);
            (Lower::Exact(0), fa || fb, "")
        }
        AlgExpr::Project(_, a) => {
            let (la, fa) = lower_bound(a, budgets, index_of, report);
            let projected = match la {
                Lower::Exact(0) => Lower::Exact(0),
                _ => Lower::Exact(1),
            };
            (projected, fa, "projection")
        }
        AlgExpr::Select(_, a) => {
            let (_, fa) = lower_bound(a, budgets, index_of, report);
            (Lower::Exact(0), fa, "")
        }
        AlgExpr::Product(a, b) => {
            let (la, fa) = lower_bound(a, budgets, index_of, report);
            let (lb, fb) = lower_bound(b, budgets, index_of, report);
            let prod = match (la, lb) {
                (Lower::Exact(x), Lower::Exact(y)) => {
                    x.checked_mul(y).map(Lower::Exact).unwrap_or(Lower::Huge)
                }
                _ => Lower::Huge,
            };
            (prod, fa || fb, "product")
        }
        AlgExpr::Untuple(a) => {
            let (la, fa) = lower_bound(a, budgets, index_of, report);
            (la, fa, "untuple")
        }
        AlgExpr::Collapse(a) => {
            let (_, fa) = lower_bound(a, budgets, index_of, report);
            (Lower::Exact(0), fa, "")
        }
        AlgExpr::Powerset(a) => {
            let (la, fa) = lower_bound(a, budgets, index_of, report);
            let pow = match la {
                Lower::Exact(n) if n < 127 => Lower::Exact(1u128 << n),
                _ => Lower::Huge,
            };
            (pow, fa, "powerset")
        }
    };
    let mut flagged = child_flagged;
    if !child_flagged && !op.is_empty() && bound.exceeds(budgets.max_instance) {
        report.diagnostics.push(
            Diagnostic::new(
                diag::CARDINALITY_BUDGET,
                format!(
                    "{op} must produce at least {bound} objects on any instance, exceeding the \
                     instance budget (limit {})",
                    budgets.max_instance
                ),
            )
            .at(index_of(&AlgNode::Expr(e)))
            .with_note(
                "evaluation is guaranteed to stop with an `evaluation budget exceeded` error",
            ),
        );
        flagged = true;
    }
    (bound, flagged)
}

/// ITQ0401 for algebra: the ALG_{k,i} stratum report (Theorem 3.8 equates it
/// with CALC_{k,i} for i ≥ k). Skipped when the expression does not type.
fn algebra_stratum(typing: &Typing, schema: &Schema, report: &mut Report) {
    let Ok(c) = classify_typing(typing, schema) else {
        return;
    };
    let mut d = Diagnostic::new(
        diag::STRATUM_REPORT,
        format!(
            "expression is in ALG_{{{},{}}} with output type {}",
            c.minimal_class.k, c.minimal_class.i, c.output_type
        ),
    )
    .at(0);
    if !c.intermediate_types.is_empty() {
        let tys: Vec<String> = c.intermediate_types.iter().map(|t| t.to_string()).collect();
        d = d.with_note(format!("intermediate types: {}", tys.join(", ")));
    }
    report.diagnostics.push(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_calculus::Term;
    use itq_object::Atom;

    fn schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2)).with("PERSON", Type::Atomic)
    }

    fn query(body: Formula) -> Query {
        Query::new("t", Type::Atomic, body, schema()).expect("test query is valid")
    }

    fn codes(report: &Report) -> Vec<diag::Code> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unused_and_shadowed_variables_are_flagged() {
        let body = Formula::exists(
            "x",
            Type::Atomic,
            Formula::exists("x", Type::Atomic, Formula::pred("PERSON", Term::var("x"))),
        );
        let report = analyze_query(&query(body), &Budgets::default());
        let codes = codes(&report);
        assert!(
            codes.contains(&diag::UNUSED_VARIABLE),
            "outer x is unused: {report:?}"
        );
        assert!(
            codes.contains(&diag::SHADOWED_VARIABLE),
            "inner x shadows: {report:?}"
        );
        // The shadow diagnostic points at the inner quantifier (pre-order 1).
        let shadow = report
            .diagnostics
            .iter()
            .find(|d| d.code == diag::SHADOWED_VARIABLE)
            .unwrap();
        assert_eq!(shadow.node, Some(1));
    }

    #[test]
    fn rebinding_the_target_gets_a_note() {
        let body = Formula::exists("t", Type::Atomic, Formula::pred("PERSON", Term::var("t")));
        let report = analyze_query(&query(body), &Budgets::default());
        let shadow = report
            .diagnostics
            .iter()
            .find(|d| d.code == diag::SHADOWED_VARIABLE)
            .expect("target shadowing flagged");
        assert!(shadow.notes[0].contains("query target"));
    }

    #[test]
    fn always_true_flags_the_maximal_subformula_once() {
        // x ≈ x ∧ ⊤ folds to true as a whole; only the ∧ is flagged, and the
        // literal ⊤ inside is not reported separately.
        let body = Formula::exists(
            "x",
            Type::Atomic,
            Formula::and(vec![
                Formula::eq(Term::var("x"), Term::var("x")),
                Formula::truth(),
            ]),
        );
        let report = analyze_query(&query(body), &Budgets::default());
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == diag::ALWAYS_TRUE)
            .collect();
        assert_eq!(hits.len(), 1, "{report:?}");
        assert_eq!(hits[0].node, Some(1));
    }

    #[test]
    fn contradictory_equality_folds_false() {
        let body = Formula::eq(Term::constant(Atom(1)), Term::constant(Atom(2)));
        let report = analyze_query(&query(body), &Budgets::default());
        assert!(codes(&report).contains(&diag::ALWAYS_FALSE));
    }

    #[test]
    fn exists_over_a_set_type_with_true_body_folds_true() {
        let body = Formula::exists("s", Type::set(Type::Atomic), Formula::truth());
        let report = analyze_query(&query(body), &Budgets::default());
        // ∃s/{U} ⊤ is true even on the empty universe (∅ inhabits {U}) — but
        // it is also an unused variable.
        let codes = codes(&report);
        assert!(codes.contains(&diag::ALWAYS_TRUE));
        assert!(codes.contains(&diag::UNUSED_VARIABLE));
    }

    #[test]
    fn exists_over_atoms_with_true_body_does_not_fold() {
        // cons U is empty over an empty universe, so ∃x/U ⊤ is not always true.
        let body = Formula::exists("x", Type::Atomic, Formula::truth());
        let report = analyze_query(&query(body), &Budgets::default());
        assert!(!codes(&report).contains(&diag::ALWAYS_TRUE), "{report:?}");
    }

    #[test]
    fn deep_set_quantifier_predicts_budget_error() {
        let deep = Type::set(Type::set(Type::set(Type::set(Type::set(Type::Atomic)))));
        let body = Formula::exists("s", deep, Formula::eq(Term::var("s"), Term::var("s")));
        let report = analyze_query(&query(body), &Budgets::default());
        let budget = report
            .diagnostics
            .iter()
            .find(|d| d.code == diag::QUANTIFIER_BUDGET)
            .expect("tower domain exceeds the default budget");
        assert!(
            budget.message.contains("limit 4194304"),
            "{}",
            budget.message
        );
    }

    #[test]
    fn stratum_report_names_the_minimal_class() {
        let body = Formula::exists(
            "s",
            Type::set(Type::Atomic),
            Formula::member(Term::var("t"), Term::var("s")),
        );
        let report = analyze_query(&query(body), &Budgets::default());
        let stratum = report
            .diagnostics
            .iter()
            .find(|d| d.code == diag::STRATUM_REPORT)
            .unwrap();
        assert!(
            stratum.message.contains("CALC_{0,1}"),
            "{}",
            stratum.message
        );
        assert!(codes(&report).contains(&diag::INTERMEDIATE_TYPE));
    }

    #[test]
    fn undefined_relation_uses_the_runtime_message() {
        let e = AlgExpr::pred("MISSING").union(AlgExpr::pred("PAR"));
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        let missing = report
            .diagnostics
            .iter()
            .find(|d| d.code == diag::UNDEFINED_RELATION)
            .unwrap();
        assert_eq!(missing.message, "unknown predicate MISSING");
        assert_eq!(missing.node, Some(1));
    }

    #[test]
    fn type_mismatch_flags_the_originating_operator_only() {
        let e = AlgExpr::pred("PAR")
            .union(AlgExpr::pred("PERSON"))
            .product(AlgExpr::pred("PAR"));
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == diag::TYPE_MISMATCH)
            .collect();
        assert_eq!(hits.len(), 1, "{report:?}");
        assert_eq!(hits[0].message, "type error in union: [U, U] vs U");
        assert_eq!(hits[0].node, Some(1)); // the Union under the Product
    }

    #[test]
    fn vacuous_selection_matches_the_planner_message_byte_for_byte() {
        let e = AlgExpr::pred("PERSON").select(SelFormula::all(vec![]));
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        let vac = report
            .diagnostics
            .iter()
            .find(|d| d.code == diag::VACUOUS_SELECTION)
            .expect("typing hole detected");
        assert_eq!(
            vac.message,
            "type error in selection: non-tuple operand PERSON of type U"
        );
    }

    #[test]
    fn nested_vacuous_selection_reports_once_at_the_innermost_sigma() {
        let e = AlgExpr::pred("PERSON")
            .select(SelFormula::all(vec![]))
            .select(SelFormula::all(vec![]));
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == diag::VACUOUS_SELECTION)
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].message,
            "type error in selection: non-tuple operand PERSON of type U"
        );
    }

    #[test]
    fn contradictory_selection_is_flagged() {
        let sel = SelFormula::all(vec![
            SelFormula::coord_is(1, Atom(0)),
            SelFormula::coord_is(1, Atom(1)),
        ]);
        let e = AlgExpr::pred("PAR").select(sel);
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        assert!(
            codes(&report).contains(&diag::SELECTION_ALWAYS_FALSE),
            "{report:?}"
        );
    }

    #[test]
    fn complementary_literals_are_a_contradiction() {
        let eq = SelFormula::coords_eq(1, 2);
        let sel = SelFormula::all(vec![eq.clone(), SelFormula::negate(eq)]);
        let e = AlgExpr::pred("PAR").select(sel);
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        assert!(codes(&report).contains(&diag::SELECTION_ALWAYS_FALSE));
    }

    #[test]
    fn identity_selection_is_an_info() {
        let e = AlgExpr::pred("PAR").select(SelFormula::coords_eq(1, 1));
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.code == diag::SELECTION_ALWAYS_TRUE)
            .unwrap();
        assert_eq!(hit.severity, crate::Severity::Info);
    }

    #[test]
    fn self_difference_is_always_empty() {
        let e = AlgExpr::pred("PAR").diff(AlgExpr::pred("PAR"));
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        assert!(codes(&report).contains(&diag::ALWAYS_EMPTY));
    }

    #[test]
    fn powerset_tower_predicts_budget_error_at_the_deepest_operator() {
        // 𝒫⁶({a}) holds at least 2^65536 sets; the lattice saturates at Huge.
        let mut e = AlgExpr::singleton(Atom(0));
        for _ in 0..6 {
            e = e.powerset();
        }
        let report = analyze_algebra(
            &e,
            &Schema::single("PAR", Type::flat_tuple(2)),
            &Budgets::default(),
        );
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == diag::CARDINALITY_BUDGET)
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "only the deepest offender is flagged: {report:?}"
        );
        assert!(hits[0].message.contains("powerset"));
    }

    #[test]
    fn small_powerset_is_not_flagged() {
        let e = AlgExpr::pred("PAR").powerset();
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        assert!(!codes(&report).contains(&diag::CARDINALITY_BUDGET));
    }

    #[test]
    fn algebra_stratum_reports_alg_class() {
        let e = AlgExpr::pred("PAR").powerset().collapse();
        let report = analyze_algebra(&e, &schema(), &Budgets::default());
        let stratum = report
            .diagnostics
            .iter()
            .find(|d| d.code == diag::STRATUM_REPORT)
            .unwrap();
        assert!(stratum.message.contains("ALG_{0,1}"), "{}", stratum.message);
    }

    #[test]
    fn analysis_is_deterministic() {
        let e = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("MISSING"))
            .select(SelFormula::coords_eq(1, 1))
            .diff(
                AlgExpr::pred("PAR")
                    .product(AlgExpr::pred("MISSING"))
                    .select(SelFormula::coords_eq(1, 1)),
            );
        let b = Budgets::default();
        assert_eq!(
            analyze_algebra(&e, &schema(), &b),
            analyze_algebra(&e, &schema(), &b)
        );
    }

    #[test]
    fn clean_query_produces_only_the_stratum_info() {
        let body = Formula::exists("x", Type::Atomic, Formula::pred("PERSON", Term::var("x")));
        let report = analyze_query(&query(body), &Budgets::default());
        assert_eq!(codes(&report), vec![diag::STRATUM_REPORT]);
        assert_eq!(report.max_severity(), Some(crate::Severity::Info));
    }
}
