//! Well-formed formulas of the complex object calculus.
//!
//! Formulas are built from the atomic formulas `t1 ≈ t2`, `t1 ∈ t2`, and `P(t)`
//! using the sentential connectives `¬, ∧, ∨, →, ↔` and the *typed* quantifiers
//! `(∃x/T φ)` and `(∀x/T φ)`.  `∧` and `∨` are represented n-ary for convenience;
//! an empty conjunction is true and an empty disjunction is false.

use crate::term::{Term, Var};
use itq_object::{Atom, PredName, Type};
use std::collections::BTreeSet;
use std::fmt;

/// A formula of the calculus.
#[derive(Clone, PartialEq, Eq)]
pub enum Formula {
    /// `t1 ≈ t2`.
    Eq(Term, Term),
    /// `t1 ∈ t2`.
    Member(Term, Term),
    /// `P(t)`.
    Pred(PredName, Term),
    /// `¬φ`.
    Not(Box<Formula>),
    /// `φ1 ∧ … ∧ φn` (true when empty).
    And(Vec<Formula>),
    /// `φ1 ∨ … ∨ φn` (false when empty).
    Or(Vec<Formula>),
    /// `φ1 → φ2`.
    Implies(Box<Formula>, Box<Formula>),
    /// `φ1 ↔ φ2`.
    Iff(Box<Formula>, Box<Formula>),
    /// `(∃x/T φ)`.
    Exists(Var, Type, Box<Formula>),
    /// `(∀x/T φ)`.
    Forall(Var, Type, Box<Formula>),
}

impl Formula {
    // ----- constructors -------------------------------------------------------

    /// `t1 ≈ t2`.
    pub fn eq(t1: Term, t2: Term) -> Formula {
        Formula::Eq(t1, t2)
    }

    /// `t1 ∈ t2`.
    pub fn member(t1: Term, t2: Term) -> Formula {
        Formula::Member(t1, t2)
    }

    /// `P(t)`.
    pub fn pred(name: &str, t: Term) -> Formula {
        Formula::Pred(name.to_string(), t)
    }

    /// `¬φ`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// n-ary conjunction.
    pub fn and(fs: Vec<Formula>) -> Formula {
        Formula::And(fs)
    }

    /// n-ary disjunction.
    pub fn or(fs: Vec<Formula>) -> Formula {
        Formula::Or(fs)
    }

    /// `φ1 → φ2`.
    pub fn implies(f1: Formula, f2: Formula) -> Formula {
        Formula::Implies(Box::new(f1), Box::new(f2))
    }

    /// `φ1 ↔ φ2`.
    pub fn iff(f1: Formula, f2: Formula) -> Formula {
        Formula::Iff(Box::new(f1), Box::new(f2))
    }

    /// `(∃x/T φ)`.
    pub fn exists(var: &str, ty: Type, body: Formula) -> Formula {
        Formula::Exists(var.to_string(), ty, Box::new(body))
    }

    /// `(∀x/T φ)`.
    pub fn forall(var: &str, ty: Type, body: Formula) -> Formula {
        Formula::Forall(var.to_string(), ty, Box::new(body))
    }

    /// Nested universal quantification over several variables of the same type.
    pub fn forall_many(vars: &[&str], ty: Type, body: Formula) -> Formula {
        vars.iter()
            .rev()
            .fold(body, |acc, v| Formula::forall(v, ty.clone(), acc))
    }

    /// The always-true formula (empty conjunction).
    pub fn truth() -> Formula {
        Formula::And(vec![])
    }

    /// The always-false formula (empty disjunction).
    pub fn falsity() -> Formula {
        Formula::Or(vec![])
    }

    // ----- structural queries --------------------------------------------------

    /// Free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut BTreeSet::new(), &mut out);
        out
    }

    fn collect_free_vars(&self, bound: &mut BTreeSet<Var>, out: &mut BTreeSet<Var>) {
        let mut term = |t: &Term| {
            if let Some(v) = t.variable() {
                if !bound.contains(v) {
                    out.insert(v.clone());
                }
            }
        };
        match self {
            Formula::Eq(t1, t2) | Formula::Member(t1, t2) => {
                term(t1);
                term(t2);
            }
            Formula::Pred(_, t) => term(t),
            Formula::Not(f) => f.collect_free_vars(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free_vars(bound, out);
                }
            }
            Formula::Implies(f1, f2) | Formula::Iff(f1, f2) => {
                f1.collect_free_vars(bound, out);
                f2.collect_free_vars(bound, out);
            }
            Formula::Exists(v, _, f) | Formula::Forall(v, _, f) => {
                let newly = bound.insert(v.clone());
                f.collect_free_vars(bound, out);
                if newly {
                    bound.remove(v);
                }
            }
        }
    }

    /// The constants (elements of `U`) occurring in the formula — the formula's
    /// contribution to `adom(Q)`.
    pub fn constants(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        self.visit(&mut |f| {
            match f {
                Formula::Eq(t1, t2) | Formula::Member(t1, t2) => {
                    if let Some(a) = t1.constant_atom() {
                        out.insert(a);
                    }
                    if let Some(a) = t2.constant_atom() {
                        out.insert(a);
                    }
                }
                Formula::Pred(_, t) => {
                    if let Some(a) = t.constant_atom() {
                        out.insert(a);
                    }
                }
                _ => {}
            }
            true
        });
        out
    }

    /// The predicate symbols occurring in the formula.
    pub fn predicates(&self) -> BTreeSet<PredName> {
        let mut out = BTreeSet::new();
        self.visit(&mut |f| {
            if let Formula::Pred(name, _) = f {
                out.insert(name.clone());
            }
            true
        });
        out
    }

    /// The multiset of quantified variables with their declared types, in
    /// left-to-right order of appearance.
    pub fn quantified_vars(&self) -> Vec<(Var, Type)> {
        let mut out = Vec::new();
        self.visit(&mut |f| {
            match f {
                Formula::Exists(v, ty, _) | Formula::Forall(v, ty, _) => {
                    out.push((v.clone(), ty.clone()));
                }
                _ => {}
            }
            true
        });
        out
    }

    /// The set of distinct types used by quantified variables.
    pub fn quantified_types(&self) -> BTreeSet<Type> {
        self.quantified_vars().into_iter().map(|(_, t)| t).collect()
    }

    /// Number of quantifier nodes in the formula.
    pub fn quantifier_count(&self) -> usize {
        self.quantified_vars().len()
    }

    /// Number of nodes in the formula tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| {
            n += 1;
            true
        });
        n
    }

    /// Visit every subformula in pre-order; the callback returns `false` to prune
    /// the walk below the current node.
    pub fn visit(&self, f: &mut dyn FnMut(&Formula) -> bool) {
        if !f(self) {
            return;
        }
        match self {
            Formula::Eq(..) | Formula::Member(..) | Formula::Pred(..) => {}
            Formula::Not(inner) => inner.visit(f),
            Formula::And(fs) | Formula::Or(fs) => {
                for sub in fs {
                    sub.visit(f);
                }
            }
            Formula::Implies(f1, f2) | Formula::Iff(f1, f2) => {
                f1.visit(f);
                f2.visit(f);
            }
            Formula::Exists(_, _, inner) | Formula::Forall(_, _, inner) => inner.visit(f),
        }
    }

    /// Rename every *free* occurrence of `from` to `to` (capture is the caller's
    /// responsibility; the prenex transformation always renames to fresh names).
    pub fn rename_free(&self, from: &str, to: &str) -> Formula {
        match self {
            Formula::Eq(t1, t2) => Formula::Eq(t1.rename(from, to), t2.rename(from, to)),
            Formula::Member(t1, t2) => Formula::Member(t1.rename(from, to), t2.rename(from, to)),
            Formula::Pred(name, t) => Formula::Pred(name.clone(), t.rename(from, to)),
            Formula::Not(f) => Formula::not(f.rename_free(from, to)),
            Formula::And(fs) => Formula::And(fs.iter().map(|f| f.rename_free(from, to)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|f| f.rename_free(from, to)).collect()),
            Formula::Implies(f1, f2) => {
                Formula::implies(f1.rename_free(from, to), f2.rename_free(from, to))
            }
            Formula::Iff(f1, f2) => {
                Formula::iff(f1.rename_free(from, to), f2.rename_free(from, to))
            }
            Formula::Exists(v, ty, f) if v == from => {
                Formula::Exists(v.clone(), ty.clone(), f.clone())
            }
            Formula::Exists(v, ty, f) => {
                Formula::Exists(v.clone(), ty.clone(), Box::new(f.rename_free(from, to)))
            }
            Formula::Forall(v, ty, f) if v == from => {
                Formula::Forall(v.clone(), ty.clone(), f.clone())
            }
            Formula::Forall(v, ty, f) => {
                Formula::Forall(v.clone(), ty.clone(), Box::new(f.rename_free(from, to)))
            }
        }
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Eq(t1, t2) => write!(f, "{t1} ≈ {t2}"),
            Formula::Member(t1, t2) => write!(f, "{t1} ∈ {t2}"),
            Formula::Pred(name, t) => write!(f, "{name}({t})"),
            Formula::Not(inner) => write!(f, "¬({inner:?})"),
            // A singleton conjunction/disjunction must not print as a bare
            // parenthesized formula: `(φ)` would reparse as φ itself, losing the
            // n-ary node.  The n-ary prefix forms `⋀(φ)` / `⋁(φ)` are unambiguous
            // and are exactly what `itq-surface` parses them back into.
            Formula::And(fs) => {
                if fs.is_empty() {
                    return write!(f, "⊤");
                }
                if let [only] = fs.as_slice() {
                    return write!(f, "⋀({only:?})");
                }
                write!(f, "(")?;
                for (i, sub) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{sub:?}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                if fs.is_empty() {
                    return write!(f, "⊥");
                }
                if let [only] = fs.as_slice() {
                    return write!(f, "⋁({only:?})");
                }
                write!(f, "(")?;
                for (i, sub) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{sub:?}")?;
                }
                write!(f, ")")
            }
            Formula::Implies(f1, f2) => write!(f, "({f1:?} → {f2:?})"),
            Formula::Iff(f1, f2) => write!(f, "({f1:?} ↔ {f2:?})"),
            Formula::Exists(v, ty, inner) => write!(f, "∃{v}/{ty} ({inner:?})"),
            Formula::Forall(v, ty, inner) => write!(f, "∀{v}/{ty} ({inner:?})"),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Formula {
        // ∃x/[U,U] (PAR(x) ∧ x.1 ≈ t.1 ∧ a0 ∈ s)
        Formula::exists(
            "x",
            Type::flat_tuple(2),
            Formula::and(vec![
                Formula::pred("PAR", Term::var("x")),
                Formula::eq(Term::proj("x", 1), Term::proj("t", 1)),
                Formula::member(Term::constant(Atom(0)), Term::var("s")),
            ]),
        )
    }

    #[test]
    fn free_and_bound_variables() {
        let f = sample();
        let free = f.free_vars();
        assert!(free.contains("t"));
        assert!(free.contains("s"));
        assert!(!free.contains("x"));
        let bound: Vec<_> = f.quantified_vars().into_iter().map(|(v, _)| v).collect();
        assert_eq!(bound, ["x"]);
    }

    #[test]
    fn shadowing_does_not_leak_bound_variables() {
        // ∀x/U (P(x)) ∧ Q(x): the second x is free.
        let f = Formula::and(vec![
            Formula::forall("x", Type::Atomic, Formula::pred("P", Term::var("x"))),
            Formula::pred("Q", Term::var("x")),
        ]);
        assert!(f.free_vars().contains("x"));
    }

    #[test]
    fn constants_and_predicates() {
        let f = sample();
        assert_eq!(f.constants(), BTreeSet::from([Atom(0)]));
        assert_eq!(f.predicates(), BTreeSet::from(["PAR".to_string()]));
    }

    #[test]
    fn quantified_vars_and_types() {
        let f = Formula::exists(
            "x",
            Type::universal(),
            Formula::forall("y", Type::Atomic, Formula::truth()),
        );
        let qs = f.quantified_vars();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].0, "x");
        assert_eq!(qs[1].1, Type::Atomic);
        assert_eq!(f.quantified_types().len(), 2);
        assert_eq!(f.quantifier_count(), 2);
    }

    #[test]
    fn forall_many_nests_left_to_right() {
        let f = Formula::forall_many(&["a", "b"], Type::Atomic, Formula::falsity());
        match &f {
            Formula::Forall(v, _, inner) => {
                assert_eq!(v, "a");
                assert!(matches!(inner.as_ref(), Formula::Forall(w, _, _) if w == "b"));
            }
            _ => panic!("expected nested forall"),
        }
        assert_eq!(f.quantifier_count(), 2);
    }

    #[test]
    fn rename_free_respects_binders() {
        let f = Formula::and(vec![
            Formula::pred("P", Term::var("x")),
            Formula::exists("x", Type::Atomic, Formula::pred("Q", Term::var("x"))),
        ]);
        let g = f.rename_free("x", "z");
        // The free occurrence is renamed, the bound one is untouched.
        assert!(g.free_vars().contains("z"));
        assert!(!g.free_vars().contains("x"));
        match &g {
            Formula::And(fs) => match &fs[1] {
                exists @ Formula::Exists(v, _, inner) => {
                    assert_eq!(v, "x");
                    // The bound occurrence of x inside the quantifier is untouched
                    // and remains closed once the binder is taken into account.
                    assert!(exists.free_vars().is_empty());
                    assert!(inner.free_vars().contains("x"));
                }
                _ => panic!("expected exists"),
            },
            _ => panic!("expected and"),
        }
    }

    #[test]
    fn display_round_trips_connective_structure() {
        let f = sample();
        let s = f.to_string();
        assert!(s.contains("∃x/[U, U]"));
        assert!(s.contains("PAR(x)"));
        assert!(s.contains("x.1 ≈ t.1"));
        assert!(s.contains("∈"));
        assert_eq!(Formula::truth().to_string(), "⊤");
        assert_eq!(Formula::falsity().to_string(), "⊥");
        let imp = Formula::implies(Formula::truth(), Formula::falsity());
        assert_eq!(imp.to_string(), "(⊤ → ⊥)");
        let iff = Formula::iff(Formula::truth(), Formula::falsity());
        assert!(iff.to_string().contains("↔"));
        let neg = Formula::not(Formula::truth());
        assert!(neg.to_string().starts_with("¬"));
    }

    #[test]
    fn singleton_connectives_display_unambiguously() {
        // `(φ)` would be indistinguishable from a parenthesized φ, so the
        // one-element conjunction/disjunction use the n-ary prefix forms.
        let p = Formula::pred("P", Term::var("x"));
        assert_eq!(Formula::and(vec![p.clone()]).to_string(), "⋀(P(x))");
        assert_eq!(Formula::or(vec![p.clone()]).to_string(), "⋁(P(x))");
        // Two elements and up keep the familiar infix rendering.
        assert_eq!(
            Formula::and(vec![p.clone(), p.clone()]).to_string(),
            "(P(x) ∧ P(x))"
        );
        // Nested singletons stay distinguishable at every level.
        let nested = Formula::and(vec![Formula::or(vec![p])]);
        assert_eq!(nested.to_string(), "⋀(⋁(P(x)))");
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Formula::truth().size(), 1);
        assert_eq!(sample().size(), 5); // exists, and, pred, eq, member
    }
}
