//! Type inference for algebraic expressions.
//!
//! Every algebraic expression `E` has an associated type `ᾱ(E)` determined by the
//! schema's assignment of types to predicate symbols; the expression denotes
//! instances of that type.  [`Typing`] computes `ᾱ` of every subexpression in one
//! pass and validates the typing side-conditions of the paper's definition
//! (matching operand types for the set-theoretic operators, tuple operands for
//! projection, width-1 tuples for untuple, set operands for collapse, and
//! well-typed selection formulas).  This module is the only code that applies
//! these rules: the planner, the classifier, the Theorem 3.8 translation and
//! the analyzer read one [`Typing`].
//!
//! A selection formula that mentions a coordinate needs a tuple operand, but a
//! coordinate-free one (`σ_⊤`, `σ_{a = a}`) types over an operand of *any*
//! type.  Evaluation needs tuples, so that selection over a non-tuple operand
//! is rejected elsewhere: by the planner ([`crate::plan()`]), by the analyzer
//! as `ITQ0203`, and by the tuple-at-a-time evaluator at run time, on the first
//! non-tuple value it meets.

use crate::error::AlgError;
use crate::expr::{AlgExpr, SelFormula, SelTerm};
use itq_object::{Schema, Type};

/// Infer the type `ᾱ(E)` of an expression over a schema: its [`Typing`]'s
/// [`result`](Typing::result).
pub fn infer_type(expr: &AlgExpr, schema: &Schema) -> Result<Type, AlgError> {
    Typing::new(expr, schema).result().cloned()
}

/// What the typing rules say about one subexpression.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeType {
    /// The subexpression has this type.
    Typed(Type),
    /// Its operands typed, but its own rule failed: the error originates here.
    Failed(AlgError),
    /// An operand did not type, so neither does this subexpression.
    Blocked,
}

impl NodeType {
    /// The type, when the subexpression has one.
    pub fn ty(&self) -> Option<&Type> {
        match self {
            NodeType::Typed(ty) => Some(ty),
            _ => None,
        }
    }
}

/// The type of every subexpression of one expression, from one pass.
///
/// Subexpressions are numbered in pre-order: the expression itself is 0, an
/// operator's first operand directly follows it, and a binary operator's
/// second operand follows the first operand's whole subtree.  An error does
/// not stop the pass: sibling subtrees are still typed, so every operator
/// where an error originates is recorded.
#[derive(Debug)]
pub struct Typing {
    /// One entry per subexpression, in pre-order.
    nodes: Vec<NodeType>,
    /// For each subexpression, one past the pre-order index of the last
    /// subexpression of its subtree.
    ends: Vec<usize>,
}

impl Typing {
    /// Type every subexpression of `expr` over `schema`.
    pub fn new(expr: &AlgExpr, schema: &Schema) -> Typing {
        let mut order = Vec::new();
        let mut stack = vec![expr];
        while let Some(e) = stack.pop() {
            let operands = e.children();
            order.push((e, operands.len()));
            stack.extend(operands.into_iter().rev());
        }
        let mut nodes = vec![NodeType::Blocked; order.len()];
        let mut ends = vec![0; order.len()];
        // Reverse pre-order reaches every operand before its operator.
        for (at, &(e, arity)) in order.iter().enumerate().rev() {
            let mut types = Vec::with_capacity(arity);
            let mut next = at + 1;
            for _ in 0..arity {
                types.extend(nodes[next].ty());
                next = ends[next];
            }
            ends[at] = next;
            let outcome = if types.len() < arity {
                NodeType::Blocked
            } else {
                match rule(e, &types, schema) {
                    Ok(ty) => NodeType::Typed(ty),
                    Err(err) => NodeType::Failed(err),
                }
            };
            nodes[at] = outcome;
        }
        Typing { nodes, ends }
    }

    /// The expression's type, or else the first error that originates in it
    /// in the order operands are typed (left to right, operands before their
    /// operator).
    pub fn result(&self) -> Result<&Type, AlgError> {
        if let NodeType::Typed(ty) = &self.nodes[0] {
            return Ok(ty);
        }
        let first = self.nodes.iter().find_map(|node| match node {
            NodeType::Failed(err) => Some(err.clone()),
            _ => None,
        });
        Err(first.expect("an error originates below a blocked operator"))
    }

    /// Every subexpression's outcome, in pre-order.
    pub fn nodes(&self) -> &[NodeType] {
        &self.nodes
    }

    /// The type of the subexpression at pre-order index `at`.
    ///
    /// # Panics
    ///
    /// When that subexpression has no type.  Every subexpression has one once
    /// [`Typing::result`] is `Ok`.
    pub(crate) fn ty(&self, at: usize) -> &Type {
        self.nodes[at]
            .ty()
            .expect("read only the typing of an expression that types")
    }

    /// The pre-order index of the second operand of the binary operator at
    /// pre-order index `at`.
    pub(crate) fn second_operand(&self, at: usize) -> usize {
        self.ends[at + 1]
    }
}

/// Number of components an operand of type `ty` contributes to a product
/// tuple: a tuple its arity, an atom or a set one (the paper's definition (6)).
pub(crate) fn product_width(ty: &Type) -> usize {
    match ty {
        Type::Tuple(components) => components.len(),
        _ => 1,
    }
}

/// `expr`'s own typing rule, applied to its operands' types.
fn rule(expr: &AlgExpr, operands: &[&Type], schema: &Schema) -> Result<Type, AlgError> {
    match expr {
        AlgExpr::Pred(p) => schema
            .type_of(p)
            .cloned()
            .ok_or_else(|| AlgError::UnknownPredicate { name: p.clone() }),
        AlgExpr::Singleton(_) => Ok(Type::Atomic),
        AlgExpr::Union(..) | AlgExpr::Intersect(..) | AlgExpr::Diff(..) => {
            let (ta, tb) = (operands[0], operands[1]);
            if ta != tb {
                let op = match expr {
                    AlgExpr::Union(..) => "union",
                    AlgExpr::Intersect(..) => "intersection",
                    _ => "difference",
                };
                return Err(AlgError::TypeMismatch {
                    operator: op.to_string(),
                    detail: format!("{ta} vs {tb}"),
                });
            }
            Ok(ta.clone())
        }
        AlgExpr::Project(coords, _) => {
            let components = match operands[0] {
                Type::Tuple(cs) => cs,
                other => {
                    return Err(AlgError::TypeMismatch {
                        operator: "projection".to_string(),
                        detail: format!("operand has non-tuple type {other}"),
                    })
                }
            };
            if coords.is_empty() {
                return Err(AlgError::TypeMismatch {
                    operator: "projection".to_string(),
                    detail: "empty coordinate list".to_string(),
                });
            }
            let mut selected = Vec::with_capacity(coords.len());
            for &c in coords {
                if c == 0 || c > components.len() {
                    return Err(AlgError::BadCoordinate {
                        coordinate: c,
                        width: components.len(),
                    });
                }
                selected.push(components[c - 1].clone());
            }
            Ok(Type::Tuple(selected))
        }
        AlgExpr::Select(sel, _) => {
            check_selection(sel, operands[0])?;
            Ok(operands[0].clone())
        }
        AlgExpr::Product(..) => Ok(Type::tuple(vec![operands[0].clone(), operands[1].clone()])),
        AlgExpr::Untuple(_) => match operands[0] {
            Type::Tuple(cs) if cs.len() == 1 => Ok(cs[0].clone()),
            other => Err(AlgError::TypeMismatch {
                operator: "untuple".to_string(),
                detail: format!("operand must have a width-1 tuple type, got {other}"),
            }),
        },
        AlgExpr::Collapse(_) => match operands[0] {
            Type::Set(inner) => Ok(inner.as_ref().clone()),
            other => Err(AlgError::TypeMismatch {
                operator: "collapse".to_string(),
                detail: format!("operand must have a set type, got {other}"),
            }),
        },
        AlgExpr::Powerset(_) => Ok(Type::set(operands[0].clone())),
    }
}

/// The type of a selection term relative to the operand tuple type.
fn sel_term_type(term: &SelTerm, operand: &Type) -> Result<Type, AlgError> {
    match term {
        SelTerm::Const(_) => Ok(Type::Atomic),
        SelTerm::Coord(i) => {
            let components = match operand {
                Type::Tuple(cs) => cs,
                other => {
                    return Err(AlgError::TypeMismatch {
                        operator: "selection".to_string(),
                        detail: format!("selection over non-tuple type {other}"),
                    })
                }
            };
            if *i == 0 || *i > components.len() {
                return Err(AlgError::BadCoordinate {
                    coordinate: *i,
                    width: components.len(),
                });
            }
            Ok(components[*i - 1].clone())
        }
    }
}

/// Check a selection formula against the operand type, enforcing the paper's
/// "natural typing requirements" (e.g. `1 ∈ 2` is permitted only when coordinate 2
/// has type `{T}` for the type `T` of coordinate 1).
fn check_selection(sel: &SelFormula, operand: &Type) -> Result<(), AlgError> {
    match sel {
        SelFormula::Eq(t1, t2) => {
            let ty1 = sel_term_type(t1, operand)?;
            let ty2 = sel_term_type(t2, operand)?;
            if ty1 != ty2 {
                return Err(AlgError::TypeMismatch {
                    operator: "selection =".to_string(),
                    detail: format!("{ty1} vs {ty2}"),
                });
            }
            Ok(())
        }
        SelFormula::In(t1, t2) => {
            let ty1 = sel_term_type(t1, operand)?;
            let ty2 = sel_term_type(t2, operand)?;
            if ty2.element() != Some(&ty1) {
                return Err(AlgError::TypeMismatch {
                    operator: "selection ∈".to_string(),
                    detail: format!("expected container {{{ty1}}}, got {ty2}"),
                });
            }
            Ok(())
        }
        SelFormula::Not(f) => check_selection(f, operand),
        SelFormula::And(fs) | SelFormula::Or(fs) => {
            for f in fs {
                check_selection(f, operand)?;
            }
            Ok(())
        }
        SelFormula::Implies(f1, f2) => {
            check_selection(f1, operand)?;
            check_selection(f2, operand)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_object::Atom;

    fn schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2))
            .with("PERSON", Type::Atomic)
            .with(
                "NESTED",
                Type::tuple(vec![Type::Atomic, Type::set(Type::Atomic)]),
            )
    }

    #[test]
    fn errors_originate_where_the_operands_type_and_siblings_keep_typing() {
        // (PAR ∪ PERSON) × (PERSON × PAR), in pre-order: 0 ×, 1 ∪, 2 PAR,
        // 3 PERSON, 4 ×, 5 PERSON, 6 PAR.
        let expr = AlgExpr::pred("PAR")
            .union(AlgExpr::pred("PERSON"))
            .product(AlgExpr::pred("PERSON").product(AlgExpr::pred("PAR")));
        let typing = Typing::new(&expr, &schema());
        assert_eq!(typing.nodes().len(), 7);
        assert_eq!(typing.nodes()[0], NodeType::Blocked);
        assert!(matches!(typing.nodes()[1], NodeType::Failed(_)));
        assert_eq!(typing.second_operand(0), 4);
        assert_eq!(typing.second_operand(4), 6);
        assert_eq!(typing.ty(4), &Type::flat_tuple(3));
        assert_eq!(
            typing.result().unwrap_err().to_string(),
            "type error in union: [U, U] vs U"
        );
        assert_eq!(
            infer_type(&expr, &schema()).unwrap_err(),
            typing.result().unwrap_err()
        );
    }

    #[test]
    fn base_cases() {
        assert_eq!(
            infer_type(&AlgExpr::pred("PAR"), &schema()).unwrap(),
            Type::flat_tuple(2)
        );
        assert_eq!(
            infer_type(&AlgExpr::singleton(Atom(3)), &schema()).unwrap(),
            Type::Atomic
        );
        assert!(matches!(
            infer_type(&AlgExpr::pred("NOPE"), &schema()),
            Err(AlgError::UnknownPredicate { .. })
        ));
    }

    #[test]
    fn set_operators_require_equal_types() {
        let ok = AlgExpr::pred("PAR").union(AlgExpr::pred("PAR"));
        assert_eq!(infer_type(&ok, &schema()).unwrap(), Type::flat_tuple(2));
        let bad = AlgExpr::pred("PAR").intersect(AlgExpr::pred("PERSON"));
        assert!(matches!(
            infer_type(&bad, &schema()),
            Err(AlgError::TypeMismatch { .. })
        ));
        let bad2 = AlgExpr::pred("PAR").diff(AlgExpr::pred("PERSON"));
        assert!(infer_type(&bad2, &schema()).is_err());
    }

    #[test]
    fn projection_typing() {
        let e = AlgExpr::pred("NESTED").project(vec![2, 1]);
        assert_eq!(
            infer_type(&e, &schema()).unwrap(),
            Type::Tuple(vec![Type::set(Type::Atomic), Type::Atomic])
        );
        let narrow = AlgExpr::pred("PAR").project(vec![1]);
        assert_eq!(
            infer_type(&narrow, &schema()).unwrap(),
            Type::Tuple(vec![Type::Atomic])
        );
        assert!(matches!(
            infer_type(&AlgExpr::pred("PAR").project(vec![3]), &schema()),
            Err(AlgError::BadCoordinate { .. })
        ));
        assert!(infer_type(&AlgExpr::pred("PERSON").project(vec![1]), &schema()).is_err());
        assert!(infer_type(&AlgExpr::pred("PAR").project(vec![]), &schema()).is_err());
    }

    #[test]
    fn selection_typing() {
        // $1 = $2 over PAR is fine; $1 ∈ $2 over NESTED is fine; $1 ∈ $2 over PAR is not.
        let ok = AlgExpr::pred("PAR").select(SelFormula::coords_eq(1, 2));
        assert!(infer_type(&ok, &schema()).is_ok());
        let member = AlgExpr::pred("NESTED").select(SelFormula::coord_in(1, 2));
        assert!(infer_type(&member, &schema()).is_ok());
        let bad_member = AlgExpr::pred("PAR").select(SelFormula::coord_in(1, 2));
        assert!(infer_type(&bad_member, &schema()).is_err());
        let bad_eq = AlgExpr::pred("NESTED").select(SelFormula::coords_eq(1, 2));
        assert!(infer_type(&bad_eq, &schema()).is_err());
        let const_eq = AlgExpr::pred("PAR").select(SelFormula::coord_is(2, Atom(0)));
        assert!(infer_type(&const_eq, &schema()).is_ok());
        let out_of_range = AlgExpr::pred("PAR").select(SelFormula::coords_eq(1, 5));
        assert!(matches!(
            infer_type(&out_of_range, &schema()),
            Err(AlgError::BadCoordinate { .. })
        ));
        // Connectives are checked recursively.
        let nested = AlgExpr::pred("PAR").select(SelFormula::implies(
            SelFormula::negate(SelFormula::coords_eq(1, 2)),
            SelFormula::any(vec![SelFormula::coord_in(1, 2)]),
        ));
        assert!(infer_type(&nested, &schema()).is_err());
    }

    #[test]
    fn product_flattens_tuples() {
        let e = AlgExpr::pred("PAR").product(AlgExpr::pred("NESTED"));
        assert_eq!(
            infer_type(&e, &schema()).unwrap(),
            Type::Tuple(vec![
                Type::Atomic,
                Type::Atomic,
                Type::Atomic,
                Type::set(Type::Atomic)
            ])
        );
        // Product with a non-tuple operand keeps it as a single component.
        let e2 = AlgExpr::pred("PERSON").product(AlgExpr::pred("PAR"));
        assert_eq!(infer_type(&e2, &schema()).unwrap(), Type::flat_tuple(3));
    }

    #[test]
    fn untuple_collapse_powerset() {
        let single = AlgExpr::pred("PAR").project(vec![1]);
        assert_eq!(
            infer_type(&single.clone().untuple(), &schema()).unwrap(),
            Type::Atomic
        );
        assert!(infer_type(&AlgExpr::pred("PAR").untuple(), &schema()).is_err());
        assert!(infer_type(&AlgExpr::pred("PERSON").untuple(), &schema()).is_err());

        let pow = AlgExpr::pred("PAR").powerset();
        assert_eq!(
            infer_type(&pow, &schema()).unwrap(),
            Type::set(Type::flat_tuple(2))
        );
        let back = pow.collapse();
        assert_eq!(infer_type(&back, &schema()).unwrap(), Type::flat_tuple(2));
        assert!(infer_type(&AlgExpr::pred("PAR").collapse(), &schema()).is_err());
    }
}
