//! Terms of the calculus: constants, variables, and coordinate projections.
//!
//! The paper's terms under a type assignment α are (a) constant symbols (members
//! of `U`), (b) variable symbols `x` with `α(x)` defined, and (c) expressions `x.i`
//! where `α(x)` is a tuple type and `i` is a valid coordinate.  Because the formal
//! type definition forbids consecutive tuple constructors, terms of the form
//! `x.i.j` are never needed.

use itq_object::Atom;
use std::fmt;

/// A variable symbol.
///
/// Variables are identified by name; the typing layer associates each occurrence
/// with a [`Type`](itq_object::Type) via the enclosing quantifier or, for the
/// query's target variable, via the query itself.
pub type Var = String;

/// A term of the calculus.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A constant symbol — a member of the universal domain `U`.
    Const(Atom),
    /// A variable symbol.
    Var(Var),
    /// A coordinate projection `x.i` with 1-based coordinate `i`.
    Proj(Var, usize),
}

impl Term {
    /// A constant term.
    pub fn constant(a: Atom) -> Term {
        Term::Const(a)
    }

    /// A variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(name.to_string())
    }

    /// A projection term `x.i` (1-based, as in the paper).
    pub fn proj(name: &str, coordinate: usize) -> Term {
        Term::Proj(name.to_string(), coordinate)
    }

    /// The variable this term mentions, if any.
    pub fn variable(&self) -> Option<&Var> {
        match self {
            Term::Const(_) => None,
            Term::Var(v) => Some(v),
            Term::Proj(v, _) => Some(v),
        }
    }

    /// The constant this term mentions, if any.
    pub fn constant_atom(&self) -> Option<Atom> {
        match self {
            Term::Const(a) => Some(*a),
            _ => None,
        }
    }

    /// True if this term is or projects from the given variable.
    pub fn mentions(&self, var: &str) -> bool {
        self.variable().map(|v| v == var).unwrap_or(false)
    }

    /// Rename a variable occurrence (used by capture-avoiding prenex
    /// transformations).
    pub fn rename(&self, from: &str, to: &str) -> Term {
        match self {
            Term::Const(a) => Term::Const(*a),
            Term::Var(v) if v == from => Term::Var(to.to_string()),
            Term::Var(v) => Term::Var(v.clone()),
            Term::Proj(v, i) if v == from => Term::Proj(to.to_string(), *i),
            Term::Proj(v, i) => Term::Proj(v.clone(), *i),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(a) => write!(f, "{a}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Proj(v, i) => write!(f, "{v}.{i}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let c = Term::constant(Atom(3));
        let v = Term::var("x");
        let p = Term::proj("y", 2);
        assert_eq!(c.constant_atom(), Some(Atom(3)));
        assert_eq!(c.variable(), None);
        assert_eq!(v.variable().map(String::as_str), Some("x"));
        assert_eq!(p.variable().map(String::as_str), Some("y"));
        assert_eq!(p.constant_atom(), None);
        assert!(v.mentions("x"));
        assert!(!v.mentions("y"));
        assert!(p.mentions("y"));
        assert!(!c.mentions("x"));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Term::var("x").to_string(), "x");
        assert_eq!(Term::proj("x", 1).to_string(), "x.1");
        assert_eq!(Term::constant(Atom(7)).to_string(), "a7");
    }

    #[test]
    fn renaming_only_touches_the_requested_variable() {
        let p = Term::proj("x", 2);
        assert_eq!(p.rename("x", "z"), Term::proj("z", 2));
        assert_eq!(p.rename("y", "z"), p);
        let v = Term::var("x");
        assert_eq!(v.rename("x", "w"), Term::var("w"));
        let c = Term::constant(Atom(0));
        assert_eq!(c.rename("x", "w"), c);
    }
}
