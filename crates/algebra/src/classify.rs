//! Classification of algebraic queries into the `ALG_{k,i}` families (Section 3).
//!
//! Each subexpression of an algebraic query carries a type, and these types play
//! the role that variable types play in the calculus: the *intermediate types* of
//! an algebraic query are the types of its subexpressions that are neither schema
//! types nor the query's output type.  `ALG_{k,i}` then collects the algebraic
//! queries whose input/output types have set-height ≤ k and whose intermediate
//! types have set-height ≤ i.  Theorem 3.8 states `ALG_{k,i} = CALC_{k,i}` for
//! `i ≥ k`; the translation in [`crate::to_calculus`] witnesses the ⊆ direction
//! executably.

use crate::error::AlgError;
use crate::expr::AlgExpr;
use crate::typing::{NodeType, Typing};
use itq_calculus::CalcClass;
use itq_object::{Schema, Type};
use std::collections::BTreeSet;

/// The classification of an algebraic query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgClassification {
    /// The output type of the whole expression.
    pub output_type: Type,
    /// Schema types plus the output type.
    pub io_types: BTreeSet<Type>,
    /// Types of subexpressions that are intermediate (not input or output types).
    pub intermediate_types: BTreeSet<Type>,
    /// The minimal `(k, i)` such that the query is in `ALG_{k,i}`.
    pub minimal_class: CalcClass,
}

impl AlgClassification {
    /// True if the expression is (syntactically) a member of `ALG_{k,i}`.
    pub fn is_in(&self, class: CalcClass) -> bool {
        self.minimal_class.contained_in(&class)
    }

    /// True if the expression uses no intermediate types.
    pub fn has_no_intermediate_types(&self) -> bool {
        self.intermediate_types.is_empty()
    }
}

/// Classify an algebraic expression over a schema.
pub fn classify_expr(expr: &AlgExpr, schema: &Schema) -> Result<AlgClassification, AlgError> {
    classify_typing(&Typing::new(expr, schema), schema)
}

/// Classify an algebraic expression over a schema from its [`Typing`].
pub fn classify_typing(typing: &Typing, schema: &Schema) -> Result<AlgClassification, AlgError> {
    let output_type = typing.result()?.clone();
    let mut io_types: BTreeSet<Type> = schema.iter().map(|(_, t)| t.clone()).collect();
    io_types.insert(output_type.clone());

    let intermediate_types: BTreeSet<Type> = typing
        .nodes()
        .iter()
        .filter_map(NodeType::ty)
        .filter(|t| !io_types.contains(t))
        .cloned()
        .collect();

    let k = io_types.iter().map(Type::set_height).max().unwrap_or(0);
    let i = intermediate_types
        .iter()
        .map(Type::set_height)
        .max()
        .unwrap_or(0);

    Ok(AlgClassification {
        output_type,
        io_types,
        intermediate_types,
        minimal_class: CalcClass::new(k, i),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SelFormula;

    fn schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2))
    }

    #[test]
    fn first_order_expression_has_no_set_intermediates() {
        let e = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let c = classify_expr(&e, &schema()).unwrap();
        assert_eq!(c.output_type, Type::flat_tuple(2));
        // The width-4 product type is an intermediate type of set-height 0.
        assert!(c.intermediate_types.contains(&Type::flat_tuple(4)));
        assert_eq!(c.minimal_class, CalcClass::new(0, 0));
        assert!(c.is_in(CalcClass::second_order()));
    }

    #[test]
    fn powerset_raises_the_intermediate_height() {
        // 𝒞(𝒫(PAR)) maps [U,U] to [U,U] but passes through {[U,U]}.
        let e = AlgExpr::pred("PAR").powerset().collapse();
        let c = classify_expr(&e, &schema()).unwrap();
        assert_eq!(c.output_type, Type::flat_tuple(2));
        assert_eq!(c.minimal_class, CalcClass::new(0, 1));
        assert!(c
            .intermediate_types
            .contains(&Type::set(Type::flat_tuple(2))));
        assert!(!c.has_no_intermediate_types());
    }

    #[test]
    fn double_powerset_reaches_height_two() {
        let e = AlgExpr::pred("PAR")
            .powerset()
            .powerset()
            .collapse()
            .collapse();
        let c = classify_expr(&e, &schema()).unwrap();
        assert_eq!(c.minimal_class, CalcClass::new(0, 2));
    }

    #[test]
    fn identity_expression_has_no_intermediates() {
        let e = AlgExpr::pred("PAR");
        let c = classify_expr(&e, &schema()).unwrap();
        assert!(c.has_no_intermediate_types());
        assert_eq!(c.minimal_class, CalcClass::relational());
    }

    #[test]
    fn classification_propagates_type_errors() {
        let e = AlgExpr::pred("MISSING");
        assert!(classify_expr(&e, &schema()).is_err());
    }
}
