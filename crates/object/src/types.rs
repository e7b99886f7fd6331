//! Complex object types (Section 2 of the paper).
//!
//! Types are built recursively from the basic type `U` using the finite set
//! constructor `{T}` and the tuple constructor `[T1, …, Tn]`.  Following the paper's
//! formal definition, tuple components must be basic or set types — consecutive
//! application of the tuple constructor is ruled out, but a *collapse*
//! transformation ([`Type::collapse`]) flattens informal nested-tuple "types" into
//! legal ones, preserving information capacity.

use crate::error::ObjectError;
use std::fmt;

/// A complex object type.
///
/// The variants mirror the paper's recursive definition:
///
/// * [`Type::Atomic`] — the basic type `U`;
/// * [`Type::Set`] — `{T}` for a type `T`;
/// * [`Type::Tuple`] — `[T1, …, Tn]`, `n ≥ 1`, where each `Ti` is basic or a set type.
///
/// [`Type::tuple`] and [`Type::set`] are the preferred constructors; `tuple`
/// automatically collapses nested tuples so that the invariant holds.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// The basic type `U` of atomic objects.
    Atomic,
    /// A finite set type `{T}`.
    Set(Box<Type>),
    /// A tuple type `[T1, …, Tn]` with `n ≥ 1`.
    Tuple(Vec<Type>),
}

impl Type {
    /// Construct a set type `{inner}`.
    pub fn set(inner: Type) -> Type {
        Type::Set(Box::new(inner))
    }

    /// Construct a tuple type, collapsing any directly nested tuple components so
    /// that the paper's "no consecutive tuple constructors" invariant holds.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty (the paper requires `n ≥ 1`).
    pub fn tuple(components: Vec<Type>) -> Type {
        assert!(
            !components.is_empty(),
            "tuple types must have at least one component"
        );
        let mut flat = Vec::with_capacity(components.len());
        for c in components {
            match c {
                Type::Tuple(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        Type::Tuple(flat)
    }

    /// A flat relation type `[U, …, U]` of the given arity.
    ///
    /// Arity 0 is not allowed by the paper; arity 1 yields `[U]`.
    pub fn flat_tuple(arity: usize) -> Type {
        Type::tuple(vec![Type::Atomic; arity.max(1)])
    }

    /// The paper's universal type `T_univ = {[U, U, U, U]}` (Section 6).
    pub fn universal() -> Type {
        Type::set(Type::flat_tuple(4))
    }

    /// The *set-height* `sh(T)`: the maximum number of set nodes on any root-to-leaf
    /// path of the type tree (Section 2).
    pub fn set_height(&self) -> usize {
        match self {
            Type::Atomic => 0,
            Type::Set(inner) => 1 + inner.set_height(),
            Type::Tuple(components) => components.iter().map(Type::set_height).max().unwrap_or(0),
        }
    }

    /// True if the type is *flat*, i.e. has set-height 0 (a relational tuple type
    /// or the basic type itself).
    pub fn is_flat(&self) -> bool {
        self.set_height() == 0
    }

    /// The maximum width of any tuple node in the type tree (`w` in the paper's
    /// complexity analysis, Theorem 4.4).  Returns 1 for types without tuple nodes.
    pub fn max_tuple_width(&self) -> usize {
        match self {
            Type::Atomic => 1,
            Type::Set(inner) => inner.max_tuple_width(),
            Type::Tuple(components) => {
                let inner = components
                    .iter()
                    .map(Type::max_tuple_width)
                    .max()
                    .unwrap_or(1);
                inner.max(components.len())
            }
        }
    }

    /// Number of nodes in the type tree (atomic leaves plus constructors).
    pub fn node_count(&self) -> usize {
        match self {
            Type::Atomic => 1,
            Type::Set(inner) => 1 + inner.node_count(),
            Type::Tuple(components) => 1 + components.iter().map(Type::node_count).sum::<usize>(),
        }
    }

    /// Depth of the type tree (an atomic type has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Type::Atomic => 1,
            Type::Set(inner) => 1 + inner.depth(),
            Type::Tuple(components) => 1 + components.iter().map(Type::depth).max().unwrap_or(0),
        }
    }

    /// If this is a tuple type, its arity; otherwise `None`.
    pub fn arity(&self) -> Option<usize> {
        match self {
            Type::Tuple(components) => Some(components.len()),
            _ => None,
        }
    }

    /// If this is a tuple type, its `i`-th component using the paper's 1-based
    /// coordinate convention (`x.i`).
    pub fn component(&self, i: usize) -> Option<&Type> {
        match self {
            Type::Tuple(components) if i >= 1 => components.get(i - 1),
            _ => None,
        }
    }

    /// If this is a set type `{T}`, the element type `T`.
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Set(inner) => Some(inner),
            _ => None,
        }
    }

    /// Validate the structural invariants of a type as defined in the paper:
    /// tuple nodes are non-empty and never have tuple children.
    pub fn validate(&self) -> Result<(), ObjectError> {
        match self {
            Type::Atomic => Ok(()),
            Type::Set(inner) => inner.validate(),
            Type::Tuple(components) => {
                if components.is_empty() {
                    return Err(ObjectError::EmptyTuple);
                }
                for c in components {
                    if matches!(c, Type::Tuple(_)) {
                        return Err(ObjectError::NestedTuple {
                            ty: self.to_string(),
                        });
                    }
                    c.validate()?;
                }
                Ok(())
            }
        }
    }

    /// The collapse transformation: flatten consecutive tuple constructors into a
    /// single tuple, recursively.  Collapsing preserves information capacity
    /// (Hull & Yap 1984), and the paper stipulates that informal nested-tuple
    /// "types" denote their collapse.
    pub fn collapse(&self) -> Type {
        match self {
            Type::Atomic => Type::Atomic,
            Type::Set(inner) => Type::set(inner.collapse()),
            Type::Tuple(components) => {
                let mut flat = Vec::with_capacity(components.len());
                for c in components {
                    match c.collapse() {
                        Type::Tuple(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                Type::Tuple(flat)
            }
        }
    }

    /// Enumerate every distinct subtype of this type (including the type itself),
    /// in depth-first pre-order.  Useful for the universal-type encoding of
    /// Section 6 and for computing the set of types mentioned by a query.
    pub fn subtypes(&self) -> Vec<&Type> {
        let mut out = Vec::new();
        self.collect_subtypes(&mut out);
        out
    }

    fn collect_subtypes<'a>(&'a self, out: &mut Vec<&'a Type>) {
        out.push(self);
        match self {
            Type::Atomic => {}
            Type::Set(inner) => inner.collect_subtypes(out),
            Type::Tuple(components) => {
                for c in components {
                    c.collect_subtypes(out);
                }
            }
        }
    }

    /// The "largest" type of set-height `i` and branching `w` used in the proof of
    /// Theorem 4.4 (`T_big`): a tuple root of width `w`, every tuple node has `w`
    /// children, every set node has a tuple child, and every maximal branch carries
    /// `i` set nodes.
    ///
    /// For `i = 0` this is simply the flat tuple `[U; w]`.
    pub fn big(width: usize, set_height: usize) -> Type {
        let w = width.max(1);
        if set_height == 0 {
            Type::flat_tuple(w)
        } else {
            let inner = Type::big(w, set_height - 1);
            Type::tuple(vec![Type::set(inner); w])
        }
    }

    /// A "nested set of atoms" type `{…{U}…}` with the given nesting depth
    /// (the `T_j` of Example 3.7).
    pub fn nested_set(depth: usize) -> Type {
        let mut t = Type::Atomic;
        for _ in 0..depth {
            t = Type::set(t);
        }
        t
    }

    /// Render the type as an indented tree, mirroring the paper's Figure 1.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_tree_into(&mut out, 0);
        out
    }

    fn render_tree_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Type::Atomic => {
                out.push_str(&pad);
                out.push_str("U\n");
            }
            Type::Set(inner) => {
                out.push_str(&pad);
                out.push_str("{ }\n");
                inner.render_tree_into(out, indent + 1);
            }
            Type::Tuple(components) => {
                out.push_str(&pad);
                out.push_str("[ ]\n");
                for c in components {
                    c.render_tree_into(out, indent + 1);
                }
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Atomic => write!(f, "U"),
            Type::Set(inner) => write!(f, "{{{}}}", inner),
            Type::Tuple(components) => {
                write!(f, "[")?;
                for (i, c) in components.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", c)?;
                }
                write!(f, "]")
            }
        }
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three types of the paper's Figure 1.
    fn figure1() -> (Type, Type, Type) {
        let t1 = Type::tuple(vec![Type::Atomic, Type::Atomic]);
        let t2 = Type::set(t1.clone());
        let t3 = Type::set(Type::set(Type::tuple(vec![Type::Atomic, Type::Atomic])));
        (t1, t2, t3)
    }

    #[test]
    fn figure1_set_heights_match_example_2_3() {
        let (t1, t2, t3) = figure1();
        assert_eq!(t1.set_height(), 0);
        assert_eq!(t2.set_height(), 1);
        assert_eq!(t3.set_height(), 2);
        assert!(t1.is_flat());
        assert!(!t2.is_flat());
    }

    #[test]
    fn display_round_trips_structure() {
        let (t1, t2, t3) = figure1();
        assert_eq!(t1.to_string(), "[U, U]");
        assert_eq!(t2.to_string(), "{[U, U]}");
        assert_eq!(t3.to_string(), "{{[U, U]}}");
        assert_eq!(Type::Atomic.to_string(), "U");
    }

    #[test]
    fn tuple_constructor_collapses_nested_tuples() {
        // [[U, U], U] collapses to [U, U, U].
        let nested = Type::tuple(vec![
            Type::Tuple(vec![Type::Atomic, Type::Atomic]),
            Type::Atomic,
        ]);
        assert_eq!(nested, Type::flat_tuple(3));
        assert!(nested.validate().is_ok());
    }

    #[test]
    fn collapse_flattens_manually_built_nested_tuples() {
        let illegal = Type::Tuple(vec![
            Type::Tuple(vec![Type::Atomic, Type::Atomic]),
            Type::Set(Box::new(Type::Atomic)),
        ]);
        assert!(illegal.validate().is_err());
        let legal = illegal.collapse();
        assert!(legal.validate().is_ok());
        assert_eq!(legal.to_string(), "[U, U, {U}]");
    }

    #[test]
    fn validation_rejects_empty_tuples() {
        let empty = Type::Tuple(vec![]);
        assert!(matches!(empty.validate(), Err(ObjectError::EmptyTuple)));
    }

    #[test]
    fn width_depth_and_node_count() {
        let (t1, t2, t3) = figure1();
        assert_eq!(t1.max_tuple_width(), 2);
        assert_eq!(t2.max_tuple_width(), 2);
        assert_eq!(t1.node_count(), 3);
        assert_eq!(t2.node_count(), 4);
        assert_eq!(t3.node_count(), 5);
        assert_eq!(t3.depth(), 4);
        assert_eq!(t1.arity(), Some(2));
        assert_eq!(t2.arity(), None);
        assert_eq!(t1.component(1), Some(&Type::Atomic));
        assert_eq!(t1.component(0), None);
        assert_eq!(t1.component(3), None);
        assert_eq!(t2.element(), Some(&t1));
        assert_eq!(t1.element(), None);
    }

    #[test]
    fn big_type_has_requested_height_and_width() {
        for w in 1..4 {
            for i in 0..4 {
                let t = Type::big(w, i);
                assert_eq!(t.set_height(), i, "T_big({w},{i})");
                assert_eq!(t.max_tuple_width(), w.max(1));
                assert!(t.validate().is_ok());
            }
        }
    }

    #[test]
    fn nested_set_heights() {
        for d in 0..5 {
            assert_eq!(Type::nested_set(d).set_height(), d);
        }
        assert_eq!(Type::nested_set(0), Type::Atomic);
    }

    #[test]
    fn universal_type_shape() {
        let t = Type::universal();
        assert_eq!(t.to_string(), "{[U, U, U, U]}");
        assert_eq!(t.set_height(), 1);
    }

    #[test]
    fn subtypes_enumeration() {
        let (_, t2, _) = figure1();
        let subs = t2.subtypes();
        assert_eq!(subs.len(), 4); // {[U,U]}, [U,U], U, U
        assert_eq!(subs[0], &t2);
    }

    #[test]
    fn render_tree_matches_structure() {
        let (_, t2, _) = figure1();
        let tree = t2.render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines, vec!["{ }", "  [ ]", "    U", "    U"]);
    }
}
