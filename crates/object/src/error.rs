//! Error types shared across the object model.

use crate::atom::Universe;
use crate::instance::PredName;
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// Errors produced while constructing or inspecting complex objects and types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectError {
    /// A tuple type or tuple value with zero components was encountered; the paper
    /// requires tuple width `n ≥ 1`.
    EmptyTuple,
    /// A tuple type has a direct tuple child, violating the "no consecutive tuple
    /// constructors" invariant.  `collapse` repairs this.
    NestedTuple {
        /// Rendered offending type.
        ty: String,
    },
    /// A relation holds a value of another type than its declared one.
    Nonconforming(Nonconforming),
    /// A constructive domain enumeration or cardinality computation exceeded the
    /// configured budget (the hyper-exponential blow-up the paper analyses).
    BudgetExceeded {
        /// Human-readable description of what blew up.
        what: String,
        /// The configured limit that was exceeded.
        limit: u64,
    },
    /// A named predicate was not found in a schema or database instance.
    UnknownPredicate {
        /// The missing predicate name.
        name: String,
    },
    /// A database instance does not match its schema (arity, predicate set, or
    /// value typing).
    SchemaMismatch {
        /// Explanation of the mismatch.
        detail: String,
    },
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::EmptyTuple => {
                write!(f, "tuple types and values must have at least one component")
            }
            ObjectError::NestedTuple { ty } => {
                write!(
                    f,
                    "tuple type {ty} has a direct tuple child; apply collapse()"
                )
            }
            ObjectError::Nonconforming(e) => write!(f, "{e}"),
            ObjectError::BudgetExceeded { what, limit } => {
                write!(f, "{what} exceeded the configured budget of {limit}")
            }
            ObjectError::UnknownPredicate { name } => {
                write!(f, "unknown predicate {name}")
            }
            ObjectError::SchemaMismatch { detail } => {
                write!(f, "database instance does not match schema: {detail}")
            }
        }
    }
}

impl std::error::Error for ObjectError {}

impl From<Nonconforming> for ObjectError {
    fn from(e: Nonconforming) -> Self {
        ObjectError::Nonconforming(e)
    }
}

/// A relation holds a value that is not of its declared type.  A query is
/// defined only on the instances of its schema, so every execution refuses
/// such a relation when it reads it, and a mutation or a declaration that
/// would store one is refused too.  [`crate::conform`] is the one check
/// that decides it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nonconforming {
    /// The relation.
    pub relation: PredName,
    /// Its declared type.
    pub ty: Type,
    /// The first value it holds that is not of that type.
    pub value: Value,
}

impl Nonconforming {
    /// The refusal of `value`, held by `relation` of the declared type `ty`.
    pub fn new(relation: &str, ty: &Type, value: &Value) -> Self {
        Nonconforming {
            relation: relation.to_string(),
            ty: ty.clone(),
            value: value.clone(),
        }
    }

    /// The error as a client reads it: the value's atoms named through
    /// `universe` (see [`Value::named`]), as the client wrote them.
    ///
    /// ```
    /// use itq_object::{conform, Type, Universe, Value};
    ///
    /// let mut universe = Universe::new();
    /// let triple = Value::atom_tuple(["a", "b", "c"].map(|name| universe.atom(name)));
    /// let refusal = conform("PAR", &Type::flat_tuple(2), [&triple]).unwrap_err();
    /// assert_eq!(refusal.to_string(), "value [a0, a1, a2] does not conform to PAR : [U, U]");
    /// assert_eq!(
    ///     refusal.display_with(&universe),
    ///     "value [a, b, c] does not conform to PAR : [U, U]"
    /// );
    /// ```
    pub fn display_with(&self, universe: &Universe) -> String {
        self.text(self.value.named(universe))
    }

    fn text(&self, value: impl fmt::Display) -> String {
        format!(
            "value {value} does not conform to {} : {}",
            self.relation, self.ty
        )
    }
}

impl fmt::Display for Nonconforming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text(&self.value))
    }
}

impl std::error::Error for Nonconforming {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let cases: Vec<(ObjectError, &str)> = vec![
            (ObjectError::EmptyTuple, "at least one component"),
            (
                ObjectError::NestedTuple {
                    ty: "[U, [U]]".into(),
                },
                "collapse",
            ),
            (
                ObjectError::Nonconforming(Nonconforming {
                    relation: "PAR".into(),
                    ty: Type::flat_tuple(2),
                    value: Value::Atom(crate::Atom(0)),
                }),
                "value a0 does not conform to PAR : [U, U]",
            ),
            (
                ObjectError::BudgetExceeded {
                    what: "cons domain".into(),
                    limit: 10,
                },
                "budget of 10",
            ),
            (
                ObjectError::UnknownPredicate { name: "PAR".into() },
                "unknown predicate PAR",
            ),
            (
                ObjectError::SchemaMismatch {
                    detail: "arity".into(),
                },
                "does not match schema",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg} should contain {needle}");
        }
    }
}
