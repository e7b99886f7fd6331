//! Flat relations over atoms.
//!
//! A [`Relation`] is a finite set of fixed-arity tuples of atoms — the relational
//! model's view of an instance of a type in `τ_0`.  It interoperates with the
//! complex-object model ([`Instance`]) so that baseline algorithms and the
//! calculus/algebra evaluators can be compared on identical inputs.

use itq_object::{Atom, Instance, Type, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A flat relation: a set of `arity`-wide tuples of atoms.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Vec<Atom>>,
}

impl Relation {
    /// The empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation {
            arity,
            tuples: BTreeSet::new(),
        }
    }

    /// Build a relation from tuples; panics if the tuples disagree on arity.
    pub fn from_tuples<I: IntoIterator<Item = Vec<Atom>>>(arity: usize, tuples: I) -> Self {
        let mut rel = Relation::empty(arity);
        for t in tuples {
            rel.insert(t);
        }
        rel
    }

    /// Build a binary relation from pairs.
    pub fn from_pairs<I: IntoIterator<Item = (Atom, Atom)>>(pairs: I) -> Self {
        Relation::from_tuples(2, pairs.into_iter().map(|(a, b)| vec![a, b]))
    }

    /// Build a unary relation from atoms.
    pub fn from_atoms<I: IntoIterator<Item = Atom>>(atoms: I) -> Self {
        Relation::from_tuples(1, atoms.into_iter().map(|a| vec![a]))
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple; panics on arity mismatch; returns whether it was new.
    pub fn insert(&mut self, tuple: Vec<Atom>) -> bool {
        assert_eq!(
            tuple.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            tuple.len(),
            self.arity
        );
        self.tuples.insert(tuple)
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Atom]) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterate tuples in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<Atom>> {
        self.tuples.iter()
    }

    /// The set of atoms occurring in the relation.
    pub fn active_domain(&self) -> BTreeSet<Atom> {
        self.tuples.iter().flatten().copied().collect()
    }

    /// Union with another relation of the same arity.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity);
        Relation {
            arity: self.arity,
            tuples: self.tuples.union(&other.tuples).cloned().collect(),
        }
    }

    /// Set difference with another relation of the same arity.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity);
        Relation {
            arity: self.arity,
            tuples: self.tuples.difference(&other.tuples).cloned().collect(),
        }
    }

    /// Intersection with another relation of the same arity.
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity);
        Relation {
            arity: self.arity,
            tuples: self.tuples.intersection(&other.tuples).cloned().collect(),
        }
    }

    /// Merge `other` into `self`, returning the number of new tuples.
    pub fn absorb(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity);
        let before = self.tuples.len();
        for t in &other.tuples {
            self.tuples.insert(t.clone());
        }
        self.tuples.len() - before
    }

    /// Convert to a complex-object instance of the flat tuple type of this arity
    /// (arity-1 relations become instances of `U`, matching the paper's examples
    /// such as `PERSON : U`).
    pub fn to_instance(&self) -> Instance {
        if self.arity == 1 {
            Instance::from_atoms(self.tuples.iter().map(|t| t[0]))
        } else {
            Instance::from_values(
                self.tuples
                    .iter()
                    .map(|t| Value::atom_tuple(t.iter().copied())),
            )
        }
    }

    /// The flat type corresponding to this relation (`U` for arity 1, `[U,…,U]`
    /// otherwise).
    pub fn flat_type(&self) -> Type {
        if self.arity == 1 {
            Type::Atomic
        } else {
            Type::flat_tuple(self.arity)
        }
    }

    /// Convert a flat complex-object instance back into a relation.  Returns
    /// `None` if any value is not a flat tuple of atoms (or a bare atom).
    pub fn from_instance(instance: &Instance) -> Option<Relation> {
        let mut arity = None;
        let mut tuples = Vec::new();
        for v in instance.iter() {
            let tuple: Vec<Atom> = match v {
                Value::Atom(a) => vec![*a],
                Value::Tuple(components) => components
                    .iter()
                    .map(|c| c.as_atom())
                    .collect::<Option<Vec<Atom>>>()?,
                Value::Set(_) => return None,
            };
            match arity {
                None => arity = Some(tuple.len()),
                Some(a) if a != tuple.len() => return None,
                _ => {}
            }
            tuples.push(tuple);
        }
        let arity = arity.unwrap_or(0);
        Some(Relation::from_tuples(arity.max(1), tuples))
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation/{}{{", self.arity)?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, a) in t.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Atom {
        Atom(n)
    }

    #[test]
    fn construction_and_membership() {
        let r = Relation::from_pairs(vec![(a(0), a(1)), (a(1), a(2)), (a(0), a(1))]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[a(0), a(1)]));
        assert!(!r.contains(&[a(1), a(0)]));
        assert!(!r.is_empty());
        assert_eq!(r.active_domain().len(), 3);
        let u = Relation::from_atoms(vec![a(5), a(6)]);
        assert_eq!(u.arity(), 1);
        assert_eq!(u.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::empty(2);
        r.insert(vec![a(0)]);
    }

    #[test]
    fn set_operations() {
        let r = Relation::from_pairs(vec![(a(0), a(1)), (a(1), a(2))]);
        let s = Relation::from_pairs(vec![(a(1), a(2)), (a(2), a(3))]);
        assert_eq!(r.union(&s).len(), 3);
        assert_eq!(r.intersection(&s).len(), 1);
        assert_eq!(r.difference(&s).len(), 1);
        let mut acc = r.clone();
        assert_eq!(acc.absorb(&s), 1);
        assert_eq!(acc.absorb(&s), 0);
        assert_eq!(acc.len(), 3);
    }

    #[test]
    fn instance_round_trip_binary() {
        let r = Relation::from_pairs(vec![(a(0), a(1)), (a(1), a(2))]);
        let inst = r.to_instance();
        assert!(itq_object::conform("R", &r.flat_type(), inst.iter()).is_ok());
        let back = Relation::from_instance(&inst).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn instance_round_trip_unary() {
        let r = Relation::from_atoms(vec![a(0), a(1)]);
        assert_eq!(r.flat_type(), Type::Atomic);
        let inst = r.to_instance();
        let back = Relation::from_instance(&inst).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_instance_rejects_non_flat_values() {
        let inst = Instance::from_values(vec![Value::set(vec![Value::Atom(a(0))])]);
        assert!(Relation::from_instance(&inst).is_none());
        let mixed = Instance::from_values(vec![
            Value::pair(a(0), a(1)),
            Value::atom_tuple(vec![a(0), a(1), a(2)]),
        ]);
        assert!(Relation::from_instance(&mixed).is_none());
    }

    #[test]
    fn debug_rendering() {
        let r = Relation::from_pairs(vec![(a(0), a(1))]);
        let s = format!("{r:?}");
        assert!(s.contains("Relation/2"));
        assert!(s.contains("(a0,a1)"));
    }
}
