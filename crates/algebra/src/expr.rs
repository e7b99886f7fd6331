//! Algebraic expressions and selection formulas (Section 2).
//!
//! An algebraic expression denotes, for each database instance, an *instance* of
//! its associated type.  The operator set follows the paper exactly: predicate
//! symbols, singleton constants, the set-theoretic operators, projection,
//! selection, Cartesian product, untuple, collapse, and powerset.

use itq_object::{Atom, PredName};
use std::collections::BTreeSet;
use std::fmt;

/// A term of a selection formula: a (1-based) coordinate of the selected tuple or
/// a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SelTerm {
    /// Coordinate `i` of the tuple being selected.
    Coord(usize),
    /// A constant atom `"a"`.
    Const(Atom),
}

impl fmt::Display for SelTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelTerm::Coord(i) => write!(f, "${i}"),
            SelTerm::Const(a) => write!(f, "\"{a}\""),
        }
    }
}

/// A selection formula: atoms `t1 = t2` and `t1 ∈ t2` over coordinates and
/// constants, closed under the sentential connectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelFormula {
    /// `t1 = t2`.
    Eq(SelTerm, SelTerm),
    /// `t1 ∈ t2`.
    In(SelTerm, SelTerm),
    /// `¬F`.
    Not(Box<SelFormula>),
    /// `F1 ∧ … ∧ Fn` (true when empty).
    And(Vec<SelFormula>),
    /// `F1 ∨ … ∨ Fn` (false when empty).
    Or(Vec<SelFormula>),
    /// `F1 → F2`.
    Implies(Box<SelFormula>, Box<SelFormula>),
}

impl SelFormula {
    /// `t1 = t2`.
    pub fn eq(t1: SelTerm, t2: SelTerm) -> Self {
        SelFormula::Eq(t1, t2)
    }

    /// Coordinate equality `$i = $j`.
    pub fn coords_eq(i: usize, j: usize) -> Self {
        SelFormula::Eq(SelTerm::Coord(i), SelTerm::Coord(j))
    }

    /// Coordinate–constant equality `$i = "a"`.
    pub fn coord_is(i: usize, a: Atom) -> Self {
        SelFormula::Eq(SelTerm::Coord(i), SelTerm::Const(a))
    }

    /// Membership `$i ∈ $j`.
    pub fn coord_in(i: usize, j: usize) -> Self {
        SelFormula::In(SelTerm::Coord(i), SelTerm::Coord(j))
    }

    /// `¬F`.
    pub fn negate(f: SelFormula) -> Self {
        SelFormula::Not(Box::new(f))
    }

    /// `F1 ∧ … ∧ Fn`.
    pub fn all(fs: Vec<SelFormula>) -> Self {
        SelFormula::And(fs)
    }

    /// `F1 ∨ … ∨ Fn`.
    pub fn any(fs: Vec<SelFormula>) -> Self {
        SelFormula::Or(fs)
    }

    /// `F1 → F2`.
    pub fn implies(f1: SelFormula, f2: SelFormula) -> Self {
        SelFormula::Implies(Box::new(f1), Box::new(f2))
    }

    /// The constants occurring in the formula.
    pub fn constants(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        self.collect_constants(&mut out);
        out
    }

    fn collect_constants(&self, out: &mut BTreeSet<Atom>) {
        let mut term = |t: &SelTerm| {
            if let SelTerm::Const(a) = t {
                out.insert(*a);
            }
        };
        match self {
            SelFormula::Eq(t1, t2) | SelFormula::In(t1, t2) => {
                term(t1);
                term(t2);
            }
            SelFormula::Not(f) => f.collect_constants(out),
            SelFormula::And(fs) | SelFormula::Or(fs) => {
                for f in fs {
                    f.collect_constants(out);
                }
            }
            SelFormula::Implies(f1, f2) => {
                f1.collect_constants(out);
                f2.collect_constants(out);
            }
        }
    }

    /// The coordinates referenced by the formula.
    pub fn coordinates(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_coordinates(&mut out);
        out
    }

    fn collect_coordinates(&self, out: &mut BTreeSet<usize>) {
        let mut term = |t: &SelTerm| {
            if let SelTerm::Coord(i) = t {
                out.insert(*i);
            }
        };
        match self {
            SelFormula::Eq(t1, t2) | SelFormula::In(t1, t2) => {
                term(t1);
                term(t2);
            }
            SelFormula::Not(f) => f.collect_coordinates(out),
            SelFormula::And(fs) | SelFormula::Or(fs) => {
                for f in fs {
                    f.collect_coordinates(out);
                }
            }
            SelFormula::Implies(f1, f2) => {
                f1.collect_coordinates(out);
                f2.collect_coordinates(out);
            }
        }
    }
}

impl fmt::Display for SelFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelFormula::Eq(a, b) => write!(f, "{a} = {b}"),
            SelFormula::In(a, b) => write!(f, "{a} ∈ {b}"),
            SelFormula::Not(inner) => write!(f, "¬({inner})"),
            SelFormula::And(fs) if fs.is_empty() => write!(f, "⊤"),
            SelFormula::Or(fs) if fs.is_empty() => write!(f, "⊥"),
            // Like the calculus printer, a singleton conjunction/disjunction must
            // not collapse to `(F)`: the n-ary prefix forms keep the reparse exact.
            SelFormula::And(fs) if fs.len() == 1 => write!(f, "⋀({})", fs[0]),
            SelFormula::Or(fs) if fs.len() == 1 => write!(f, "⋁({})", fs[0]),
            SelFormula::And(fs) => {
                let parts: Vec<String> = fs.iter().map(|x| x.to_string()).collect();
                write!(f, "({})", parts.join(" ∧ "))
            }
            SelFormula::Or(fs) => {
                let parts: Vec<String> = fs.iter().map(|x| x.to_string()).collect();
                write!(f, "({})", parts.join(" ∨ "))
            }
            SelFormula::Implies(a, b) => write!(f, "({a} → {b})"),
        }
    }
}

/// A typed algebraic expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgExpr {
    /// A predicate symbol `P`, denoting the relation stored under `P`.
    Pred(PredName),
    /// A singleton constant `{a}`, an instance of type `U`.
    Singleton(Atom),
    /// `E1 ∪ E2`.
    Union(Box<AlgExpr>, Box<AlgExpr>),
    /// `E1 ∩ E2`.
    Intersect(Box<AlgExpr>, Box<AlgExpr>),
    /// `E1 − E2`.
    Diff(Box<AlgExpr>, Box<AlgExpr>),
    /// `π_{i1,…,ik}(E1)` with 1-based coordinates.
    Project(Vec<usize>, Box<AlgExpr>),
    /// `σ_F(E1)`.
    Select(SelFormula, Box<AlgExpr>),
    /// `E1 × E2` (tuple concatenation of components).
    Product(Box<AlgExpr>, Box<AlgExpr>),
    /// Untuple `μ(E1)`: removes a topmost width-1 tuple constructor.
    Untuple(Box<AlgExpr>),
    /// Collapse `𝒞(E1)`: `⋃ { x | x ∈ E1[d] }`.
    Collapse(Box<AlgExpr>),
    /// Powerset `𝒫(E1)`: `{ x | x ⊆ E1[d] }`.
    Powerset(Box<AlgExpr>),
}

impl AlgExpr {
    /// A predicate reference.
    pub fn pred(name: &str) -> AlgExpr {
        AlgExpr::Pred(name.to_string())
    }

    /// A singleton constant `{a}`.
    pub fn singleton(a: Atom) -> AlgExpr {
        AlgExpr::Singleton(a)
    }

    /// `self ∪ other`.
    pub fn union(self, other: AlgExpr) -> AlgExpr {
        AlgExpr::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: AlgExpr) -> AlgExpr {
        AlgExpr::Intersect(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn diff(self, other: AlgExpr) -> AlgExpr {
        AlgExpr::Diff(Box::new(self), Box::new(other))
    }

    /// `π_{coords}(self)`.
    pub fn project(self, coords: Vec<usize>) -> AlgExpr {
        AlgExpr::Project(coords, Box::new(self))
    }

    /// `σ_F(self)`.
    pub fn select(self, f: SelFormula) -> AlgExpr {
        AlgExpr::Select(f, Box::new(self))
    }

    /// `self × other`.
    pub fn product(self, other: AlgExpr) -> AlgExpr {
        AlgExpr::Product(Box::new(self), Box::new(other))
    }

    /// `μ(self)` — remove the topmost width-1 tuple constructor.
    pub fn untuple(self) -> AlgExpr {
        AlgExpr::Untuple(Box::new(self))
    }

    /// `𝒞(self)` — collapse one level of sets.
    pub fn collapse(self) -> AlgExpr {
        AlgExpr::Collapse(Box::new(self))
    }

    /// `𝒫(self)` — powerset.
    pub fn powerset(self) -> AlgExpr {
        AlgExpr::Powerset(Box::new(self))
    }

    /// The predicate symbols referenced by the expression.
    pub fn predicates(&self) -> BTreeSet<PredName> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let AlgExpr::Pred(p) = e {
                out.insert(p.clone());
            }
        });
        out
    }

    /// The constants referenced by the expression (singletons plus selection
    /// constants) — the expression's contribution to `adom(Q)`.
    pub fn constants(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| match e {
            AlgExpr::Singleton(a) => {
                out.insert(*a);
            }
            AlgExpr::Select(f, _) => {
                out.extend(f.constants());
            }
            _ => {}
        });
        out
    }

    /// Number of operator nodes in the expression tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Number of powerset operators in the expression.
    pub fn powerset_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if matches!(e, AlgExpr::Powerset(_)) {
                n += 1;
            }
        });
        n
    }

    /// Visit every subexpression in pre-order.
    pub fn visit(&self, f: &mut dyn FnMut(&AlgExpr)) {
        f(self);
        match self {
            AlgExpr::Pred(_) | AlgExpr::Singleton(_) => {}
            AlgExpr::Union(a, b)
            | AlgExpr::Intersect(a, b)
            | AlgExpr::Diff(a, b)
            | AlgExpr::Product(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            AlgExpr::Project(_, a)
            | AlgExpr::Select(_, a)
            | AlgExpr::Untuple(a)
            | AlgExpr::Collapse(a)
            | AlgExpr::Powerset(a) => a.visit(f),
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&AlgExpr> {
        match self {
            AlgExpr::Pred(_) | AlgExpr::Singleton(_) => vec![],
            AlgExpr::Union(a, b)
            | AlgExpr::Intersect(a, b)
            | AlgExpr::Diff(a, b)
            | AlgExpr::Product(a, b) => vec![a, b],
            AlgExpr::Project(_, a)
            | AlgExpr::Select(_, a)
            | AlgExpr::Untuple(a)
            | AlgExpr::Collapse(a)
            | AlgExpr::Powerset(a) => vec![a],
        }
    }
}

impl fmt::Display for AlgExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgExpr::Pred(p) => write!(f, "{p}"),
            AlgExpr::Singleton(a) => write!(f, "{{{a}}}"),
            AlgExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            AlgExpr::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            AlgExpr::Diff(a, b) => write!(f, "({a} − {b})"),
            AlgExpr::Project(coords, a) => {
                let cs: Vec<String> = coords.iter().map(|c| c.to_string()).collect();
                write!(f, "π_{{{}}}({a})", cs.join(","))
            }
            AlgExpr::Select(sel, a) => write!(f, "σ_{{{sel}}}({a})"),
            AlgExpr::Product(a, b) => write!(f, "({a} × {b})"),
            AlgExpr::Untuple(a) => write!(f, "μ({a})"),
            AlgExpr::Collapse(a) => write!(f, "𝒞({a})"),
            AlgExpr::Powerset(a) => write!(f, "𝒫({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AlgExpr {
        AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::all(vec![
                SelFormula::coords_eq(2, 3),
                SelFormula::coord_is(1, Atom(9)),
            ]))
            .project(vec![1, 4])
            .union(AlgExpr::singleton(Atom(5)).product(AlgExpr::singleton(Atom(5))))
    }

    #[test]
    fn structural_queries() {
        let e = sample();
        assert_eq!(e.predicates(), BTreeSet::from(["PAR".to_string()]));
        assert_eq!(e.constants(), BTreeSet::from([Atom(5), Atom(9)]));
        assert!(e.size() >= 8);
        assert_eq!(e.powerset_count(), 0);
        assert_eq!(AlgExpr::pred("R").powerset().powerset_count(), 1);
        assert_eq!(e.children().len(), 2);
        assert!(AlgExpr::singleton(Atom(0)).children().is_empty());
    }

    #[test]
    fn display_renders_operators() {
        let e = sample();
        let s = e.to_string();
        assert!(s.contains("π_{1,4}"));
        assert!(s.contains("σ_{"));
        assert!(s.contains("×"));
        assert!(s.contains("∪"));
        let p = AlgExpr::pred("R").powerset().collapse().untuple();
        let s = p.to_string();
        assert!(s.contains("𝒫"));
        assert!(s.contains("𝒞"));
        assert!(s.contains("μ"));
        let d = AlgExpr::pred("R")
            .diff(AlgExpr::pred("S"))
            .intersect(AlgExpr::pred("T"));
        assert!(d.to_string().contains("−"));
        assert!(d.to_string().contains("∩"));
    }

    #[test]
    fn selection_formula_helpers() {
        let f = SelFormula::implies(
            SelFormula::coord_in(1, 2),
            SelFormula::any(vec![
                SelFormula::negate(SelFormula::coords_eq(1, 3)),
                SelFormula::coord_is(2, Atom(7)),
            ]),
        );
        assert_eq!(f.coordinates(), BTreeSet::from([1, 2, 3]));
        assert_eq!(f.constants(), BTreeSet::from([Atom(7)]));
        let s = f.to_string();
        assert!(s.contains("$1 ∈ $2"));
        assert!(s.contains("→"));
        assert!(s.contains("¬"));
        assert_eq!(SelFormula::all(vec![]).to_string(), "⊤");
        assert_eq!(SelFormula::any(vec![]).to_string(), "⊥");
    }

    #[test]
    fn singleton_selection_connectives_display_unambiguously() {
        let eq = SelFormula::coords_eq(1, 2);
        assert_eq!(SelFormula::all(vec![eq.clone()]).to_string(), "⋀($1 = $2)");
        assert_eq!(SelFormula::any(vec![eq.clone()]).to_string(), "⋁($1 = $2)");
        assert_eq!(
            SelFormula::all(vec![eq.clone(), eq]).to_string(),
            "($1 = $2 ∧ $1 = $2)"
        );
    }
}
