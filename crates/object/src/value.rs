//! Complex objects (the paper's *objects* of a type).
//!
//! A [`Value`] is an element of `dom(T)` for some type `T`: an atom, a tuple of
//! values, or a finite set of values.  Sets are kept in a canonical sorted
//! representation (`BTreeSet`) so that set-valued equality — which the calculus
//! relies on pervasively — is structural equality.

use crate::atom::{Atom, Universe};
use crate::types::Type;
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// A complex object.
///
/// The variants mirror the recursive definition of `dom(T)` in Section 2:
/// atoms inhabit `U`, tuples inhabit tuple types, finite sets inhabit set types.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An atomic object.
    Atom(Atom),
    /// A tuple `[v1, …, vn]`.
    Tuple(Vec<Value>),
    /// A finite set of objects, kept sorted and deduplicated.
    Set(BTreeSet<Value>),
}

impl Value {
    /// Construct an atom value.
    pub fn atom(a: impl Into<Atom>) -> Value {
        Value::Atom(a.into())
    }

    /// Construct a tuple value.
    pub fn tuple(components: Vec<Value>) -> Value {
        Value::Tuple(components)
    }

    /// Construct a set value from any iterator of values (duplicates collapse).
    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// The empty set value `∅`.
    pub fn empty_set() -> Value {
        Value::Set(BTreeSet::new())
    }

    /// A flat pair `[a, b]` of atoms — the workhorse of the paper's examples
    /// (`PAR`, total orders, TM encodings).
    pub fn pair(a: Atom, b: Atom) -> Value {
        Value::Tuple(vec![Value::Atom(a), Value::Atom(b)])
    }

    /// A flat tuple of atoms.
    pub fn atom_tuple<I: IntoIterator<Item = Atom>>(atoms: I) -> Value {
        Value::Tuple(atoms.into_iter().map(Value::Atom).collect())
    }

    /// True if this value is an element of `dom(ty)`.
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Atom(_), Type::Atomic) => true,
            (Value::Tuple(vs), Type::Tuple(ts)) => {
                vs.len() == ts.len() && vs.iter().zip(ts).all(|(v, t)| v.has_type(t))
            }
            (Value::Set(items), Type::Set(elem)) => items.iter().all(|v| v.has_type(elem)),
            _ => false,
        }
    }

    /// The *active domain* `adom(X)`: the set of atoms occurring anywhere inside
    /// this value (Section 2).
    pub fn active_domain(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    /// Accumulate the atoms of this value into `out`.
    pub fn collect_atoms(&self, out: &mut BTreeSet<Atom>) {
        match self {
            Value::Atom(a) => {
                out.insert(*a);
            }
            Value::Tuple(vs) => {
                for v in vs {
                    v.collect_atoms(out);
                }
            }
            Value::Set(items) => {
                for v in items {
                    v.collect_atoms(out);
                }
            }
        }
    }

    /// The set-height of the value itself: the deepest nesting of set braces
    /// around any atom.  For a value of type `T`, this is at most `sh(T)`.
    pub fn set_height(&self) -> usize {
        match self {
            Value::Atom(_) => 0,
            Value::Tuple(vs) => vs.iter().map(Value::set_height).max().unwrap_or(0),
            Value::Set(items) => 1 + items.iter().map(Value::set_height).max().unwrap_or(0),
        }
    }

    /// Total number of nodes (atoms plus constructors) — a proxy for the
    /// representation size `‖o‖` used in the complexity analysis.
    pub fn size(&self) -> usize {
        match self {
            Value::Atom(_) => 1,
            Value::Tuple(vs) => 1 + vs.iter().map(Value::size).sum::<usize>(),
            Value::Set(items) => 1 + items.iter().map(Value::size).sum::<usize>(),
        }
    }

    /// Project the `i`-th coordinate (1-based, as in the paper's `x.i` terms) of a
    /// tuple value.
    pub fn project(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Tuple(vs) if i >= 1 => vs.get(i - 1),
            _ => None,
        }
    }

    /// If this is a set value, its elements.
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(items) => Some(items),
            _ => None,
        }
    }

    /// If this is a tuple value, its components.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(vs) => Some(vs),
            _ => None,
        }
    }

    /// If this is an atom value, the atom.
    pub fn as_atom(&self) -> Option<Atom> {
        match self {
            Value::Atom(a) => Some(*a),
            _ => None,
        }
    }

    /// Membership test `self ∈ other` (only meaningful when `other` is a set).
    pub fn is_member_of(&self, other: &Value) -> bool {
        match other {
            Value::Set(items) => items.contains(self),
            _ => false,
        }
    }

    /// Cardinality of a set value (`None` for non-sets).
    pub fn cardinality(&self) -> Option<usize> {
        self.as_set().map(|s| s.len())
    }

    /// Apply a permutation of atoms to this value; the image of an atom defaults to
    /// itself when the map is silent.  Used to check genericity (C-genericity) of
    /// query results in tests and experiments.
    pub fn permute(&self, perm: &dyn Fn(Atom) -> Atom) -> Value {
        match self {
            Value::Atom(a) => Value::Atom(perm(*a)),
            Value::Tuple(vs) => Value::Tuple(vs.iter().map(|v| v.permute(perm)).collect()),
            Value::Set(items) => Value::Set(items.iter().map(|v| v.permute(perm)).collect()),
        }
    }

    /// A [`Display`](fmt::Display) adapter that renders the value for human
    /// consumption, resolving atom names through a [`Universe`]: a named atom
    /// prints its name, a nameless one `a<id>`.  It writes straight into the
    /// caller's formatter, so rendering allocates nothing of its own.
    ///
    /// ```
    /// use itq_object::{Universe, Value};
    ///
    /// let mut universe = Universe::new();
    /// let tom = universe.atom("Tom");
    /// let anon = universe.invent();
    /// let v = Value::set(vec![Value::pair(tom, anon)]);
    /// assert_eq!(v.named(&universe).to_string(), format!("{{[Tom, a{}]}}", anon.id()));
    /// ```
    pub fn named<'a>(&'a self, universe: &'a Universe) -> Named<'a> {
        Named {
            value: self,
            universe,
        }
    }

    /// Render the value for human consumption, resolving atom names through a
    /// [`Universe`] (see [`Value::named`]).
    pub fn display_with(&self, universe: &Universe) -> String {
        self.named(universe).to_string()
    }

    /// True if this value contains any atom from `atoms`.
    pub fn mentions_any(&self, atoms: &HashSet<Atom>) -> bool {
        match self {
            Value::Atom(a) => atoms.contains(a),
            Value::Tuple(vs) => vs.iter().any(|v| v.mentions_any(atoms)),
            Value::Set(items) => items.iter().any(|v| v.mentions_any(atoms)),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Atom(a) => write!(f, "{a}"),
            Value::Tuple(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "]")
            }
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A value rendered with the atom names of a [`Universe`]; see
/// [`Value::named`].
#[derive(Clone, Copy)]
pub struct Named<'a> {
    value: &'a Value,
    universe: &'a Universe,
}

impl Named<'_> {
    /// Write `items` comma-separated between `open` and `close`.
    fn write_seq<'v>(
        &self,
        f: &mut fmt::Formatter<'_>,
        open: &str,
        items: impl Iterator<Item = &'v Value>,
        close: &str,
    ) -> fmt::Result {
        f.write_str(open)?;
        for (i, v) in items.enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            fmt::Display::fmt(&v.named(self.universe), f)?;
        }
        f.write_str(close)
    }
}

impl fmt::Display for Named<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Value::Atom(a) => match self.universe.name(*a) {
                Some(name) => f.write_str(name),
                None => write!(f, "{a}"),
            },
            Value::Tuple(vs) => self.write_seq(f, "[", vs.iter(), "]"),
            Value::Set(items) => self.write_seq(f, "{", items.iter(), "}"),
        }
    }
}

impl From<Atom> for Value {
    fn from(a: Atom) -> Self {
        Value::Atom(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(n: u32) -> Vec<Atom> {
        (0..n).map(Atom).collect()
    }

    #[test]
    fn example_2_2_typing() {
        // [Tom, Mary] ∈ dom(T1) and {[Tom, Mary], [Mary, Sue]} is an object of T2.
        let a = atoms(3);
        let t1 = Type::tuple(vec![Type::Atomic, Type::Atomic]);
        let t2 = Type::set(t1.clone());
        let pair1 = Value::pair(a[0], a[1]);
        let pair2 = Value::pair(a[1], a[2]);
        assert!(pair1.has_type(&t1));
        assert!(!pair1.has_type(&t2));
        let rel = Value::set(vec![pair1, pair2]);
        assert!(rel.has_type(&t2));
        assert!(!rel.has_type(&t1));
    }

    #[test]
    fn empty_set_inhabits_every_set_type() {
        let e = Value::empty_set();
        assert!(e.has_type(&Type::set(Type::Atomic)));
        assert!(e.has_type(&Type::set(Type::flat_tuple(3))));
        assert!(e.has_type(&Type::set(Type::set(Type::Atomic))));
        assert!(!e.has_type(&Type::Atomic));
    }

    #[test]
    fn typing_rejects_arity_and_shape_mismatches() {
        let a = atoms(2);
        let t2 = Type::flat_tuple(2);
        let t3 = Type::flat_tuple(3);
        let pair = Value::pair(a[0], a[1]);
        assert!(pair.has_type(&t2));
        assert!(!pair.has_type(&t3));
        assert!(!Value::Atom(a[0]).has_type(&t2));
        // A set containing a non-conforming element fails.
        let bad = Value::set(vec![Value::Atom(a[0]), pair]);
        assert!(!bad.has_type(&Type::set(Type::Atomic)));
    }

    #[test]
    fn active_domain_collects_all_atoms() {
        let a = atoms(4);
        let v = Value::set(vec![
            Value::pair(a[0], a[1]),
            Value::tuple(vec![Value::Atom(a[2]), Value::set(vec![Value::Atom(a[3])])]),
        ]);
        let adom = v.active_domain();
        assert_eq!(adom.len(), 4);
        for x in &a {
            assert!(adom.contains(x));
        }
        assert!(Value::empty_set().active_domain().is_empty());
    }

    #[test]
    fn set_values_are_canonical() {
        let a = atoms(2);
        let s1 = Value::set(vec![
            Value::Atom(a[0]),
            Value::Atom(a[1]),
            Value::Atom(a[0]),
        ]);
        let s2 = Value::set(vec![Value::Atom(a[1]), Value::Atom(a[0])]);
        assert_eq!(s1, s2);
        assert_eq!(s1.cardinality(), Some(2));
    }

    #[test]
    fn set_height_and_size() {
        let a = atoms(2);
        assert_eq!(Value::Atom(a[0]).set_height(), 0);
        assert_eq!(Value::pair(a[0], a[1]).set_height(), 0);
        let s = Value::set(vec![Value::pair(a[0], a[1])]);
        assert_eq!(s.set_height(), 1);
        let ss = Value::set(vec![s.clone()]);
        assert_eq!(ss.set_height(), 2);
        assert_eq!(Value::empty_set().set_height(), 1);
        assert_eq!(Value::Atom(a[0]).size(), 1);
        assert_eq!(Value::pair(a[0], a[1]).size(), 3);
        assert_eq!(ss.size(), 5);
    }

    #[test]
    fn projection_uses_one_based_coordinates() {
        let a = atoms(3);
        let t = Value::atom_tuple(a.clone());
        assert_eq!(t.project(1), Some(&Value::Atom(a[0])));
        assert_eq!(t.project(3), Some(&Value::Atom(a[2])));
        assert_eq!(t.project(0), None);
        assert_eq!(t.project(4), None);
        assert_eq!(Value::Atom(a[0]).project(1), None);
    }

    #[test]
    fn membership_and_accessors() {
        let a = atoms(2);
        let s = Value::set(vec![Value::Atom(a[0])]);
        assert!(Value::Atom(a[0]).is_member_of(&s));
        assert!(!Value::Atom(a[1]).is_member_of(&s));
        assert!(!Value::Atom(a[1]).is_member_of(&Value::Atom(a[0])));
        assert!(s.as_set().is_some());
        assert!(s.as_tuple().is_none());
        assert_eq!(Value::Atom(a[1]).as_atom(), Some(a[1]));
    }

    #[test]
    fn permutation_acts_pointwise() {
        let a = atoms(3);
        let (a0, a1) = (a[0], a[1]);
        let swap = move |x: Atom| -> Atom {
            if x == a0 {
                a1
            } else if x == a1 {
                a0
            } else {
                x
            }
        };
        let v = Value::set(vec![Value::pair(a[0], a[2])]);
        let pv = v.permute(&swap);
        assert_eq!(pv, Value::set(vec![Value::pair(a[1], a[2])]));
        // Applying the involution twice is the identity.
        assert_eq!(pv.permute(&swap), v);
    }

    #[test]
    fn display_resolves_names() {
        let mut u = Universe::new();
        let tom = u.atom("Tom");
        let mary = u.atom("Mary");
        let v = Value::set(vec![Value::pair(tom, mary)]);
        assert_eq!(v.display_with(&u), "{[Tom, Mary]}");
        assert_eq!(
            format!("{v}"),
            format!("{{[a{}, a{}]}}", tom.id(), mary.id())
        );
    }

    #[test]
    fn named_pins_the_rendered_text() {
        let mut u = Universe::new();
        let tom = u.atom("Tom");
        let mary = u.atom("Mary");
        let (a7, top) = (Atom(7), Atom(u32::MAX));
        let cases = [
            (Value::Atom(tom), "Tom"),
            (Value::Atom(a7), "a7"),
            (Value::Atom(top), "a4294967295"),
            (Value::tuple(vec![]), "[]"),
            (Value::pair(tom, a7), "[Tom, a7]"),
            (
                Value::tuple(vec![
                    Value::Atom(mary),
                    Value::tuple(vec![Value::pair(tom, top), Value::tuple(vec![])]),
                ]),
                "[Mary, [[Tom, a4294967295], []]]",
            ),
            (Value::empty_set(), "{}"),
            (
                Value::set(vec![Value::pair(mary, tom), Value::pair(tom, mary)]),
                "{[Tom, Mary], [Mary, Tom]}",
            ),
            (
                Value::set(vec![
                    Value::set(vec![Value::Atom(a7), Value::Atom(mary)]),
                    Value::empty_set(),
                ]),
                "{{}, {Mary, a7}}",
            ),
            (
                Value::tuple(vec![
                    Value::empty_set(),
                    Value::set(vec![Value::pair(a7, top)]),
                ]),
                "[{}, {[a7, a4294967295]}]",
            ),
        ];
        for (value, text) in cases {
            assert_eq!(value.named(&u).to_string(), text);
            assert_eq!(value.display_with(&u), text);
        }
    }

    #[test]
    fn mentions_any_detects_atoms() {
        let a = atoms(3);
        let v = Value::set(vec![Value::pair(a[0], a[1])]);
        let mut probe = HashSet::new();
        probe.insert(a[2]);
        assert!(!v.mentions_any(&probe));
        probe.insert(a[1]);
        assert!(v.mentions_any(&probe));
    }
}
