//! Pairing parser span events with analyzer node indices.
//!
//! The parser pushes one `(start, end)` event per formula / algebra /
//! selection node **in construction order**, which for a recursive-descent
//! parse is exactly the post-order of the final tree (parenthesized
//! passthroughs create no node and no event). The analyzer addresses subterms
//! by pre-order index ([`itq_analyze::formula_preorder`] /
//! [`itq_analyze::algebra_preorder`]). This module zips the two: build the
//! post-order node list, pair it positionally with the events, then read the
//! spans back off in pre-order.
//!
//! The pairing is validated by a length check — if a future constructor stops
//! being a plain wrapper and the event count drifts from the node count, the
//! table degrades to all-`None` (diagnostics lose their carets but stay
//! correct) instead of mislabeling source locations.

use crate::error::Pos;
use itq_algebra::{AlgExpr, SelFormula};
use itq_analyze::{algebra_preorder, formula_preorder, AlgNode};
use itq_calculus::Formula;
use std::collections::HashMap;

pub use itq_analyze::Span;

/// Spans for every node of one definition, indexed by the analyzer's
/// pre-order node index; `None` where no location is known.
///
/// A session keeps one table per declared name, so each span is packed into
/// four `u32`s (16 bytes, against 40 for an `Option<Span>`), with line 0 —
/// lines count from 1 — standing for an unknown location.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTable(Box<[[u32; 4]]>);

impl SpanTable {
    /// The span of pre-order node `node`, if known.
    pub fn get(&self, node: usize) -> Option<Span> {
        let &[line, column, end_line, end_column] = self.0.get(node)?;
        let at = |line: u32, column: u32| (line as usize, column as usize);
        (line != 0).then(|| (at(line, column), at(end_line, end_column)))
    }

    /// The number of nodes the table covers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the table covers no node.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Packs each span; one whose coordinates overflow a `u32` becomes unknown.
impl FromIterator<Option<Span>> for SpanTable {
    fn from_iter<I: IntoIterator<Item = Option<Span>>>(spans: I) -> SpanTable {
        let pack = |((line, column), (end_line, end_column)): Span| {
            let fit = |n: usize| u32::try_from(n).ok();
            Some([fit(line)?, fit(column)?, fit(end_line)?, fit(end_column)?])
        };
        SpanTable(
            spans
                .into_iter()
                .map(|span| span.and_then(pack).unwrap_or([0; 4]))
                .collect(),
        )
    }
}

fn to_span(start: Pos, end: Pos) -> Span {
    ((start.line, start.column), (end.line, end.column))
}

/// Offset a statement-relative span to script-absolute coordinates, following
/// the same rule as [`crate::script`]'s error offsetting: columns shift only
/// on the first line of the statement.
pub fn offset_span(span: Span, base: Pos) -> Span {
    let shift = |(line, column): (usize, usize)| {
        let column = if line == 1 {
            column + base.column - 1
        } else {
            column
        };
        (line + base.line - 1, column)
    };
    (shift(span.0), shift(span.1))
}

/// Build the span table for a query body from the events of its parse.
pub fn formula_span_table(body: &Formula, events: &[(Pos, Pos)]) -> SpanTable {
    let mut post = Vec::new();
    post_formula(body, &mut post);
    let pre: Vec<*const ()> = formula_preorder(body)
        .iter()
        .map(|f| *f as *const Formula as *const ())
        .collect();
    zip_table(&post, &pre, events)
}

/// Build the span table for an algebra expression from the events of its
/// parse.
pub fn algebra_span_table(expr: &AlgExpr, events: &[(Pos, Pos)]) -> SpanTable {
    let mut post = Vec::new();
    post_alg(expr, &mut post);
    let pre: Vec<*const ()> = algebra_preorder(expr).iter().map(AlgNode::key).collect();
    zip_table(&post, &pre, events)
}

fn zip_table(post: &[*const ()], pre: &[*const ()], events: &[(Pos, Pos)]) -> SpanTable {
    if post.len() != events.len() {
        return pre.iter().map(|_| None).collect();
    }
    let by_node: HashMap<*const (), Span> = post
        .iter()
        .zip(events)
        .map(|(key, (start, end))| (*key, to_span(*start, *end)))
        .collect();
    pre.iter().map(|key| by_node.get(key).copied()).collect()
}

/// Post-order (children first, node last), children in concrete-syntax order —
/// the mirror of [`itq_analyze::formula_preorder`].
fn post_formula(f: &Formula, out: &mut Vec<*const ()>) {
    match f {
        Formula::Eq(..) | Formula::Member(..) | Formula::Pred(..) => {}
        Formula::Not(inner) => post_formula(inner, out),
        Formula::And(parts) | Formula::Or(parts) => {
            for part in parts {
                post_formula(part, out);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            post_formula(a, out);
            post_formula(b, out);
        }
        Formula::Exists(_, _, body) | Formula::Forall(_, _, body) => post_formula(body, out),
    }
    out.push(f as *const Formula as *const ());
}

fn post_alg(e: &AlgExpr, out: &mut Vec<*const ()>) {
    match e {
        AlgExpr::Pred(_) | AlgExpr::Singleton(_) => {}
        AlgExpr::Union(a, b)
        | AlgExpr::Intersect(a, b)
        | AlgExpr::Diff(a, b)
        | AlgExpr::Product(a, b) => {
            post_alg(a, out);
            post_alg(b, out);
        }
        AlgExpr::Project(_, a)
        | AlgExpr::Untuple(a)
        | AlgExpr::Collapse(a)
        | AlgExpr::Powerset(a) => post_alg(a, out),
        AlgExpr::Select(sel, a) => {
            post_sel(sel, out);
            post_alg(a, out);
        }
    }
    out.push(e as *const AlgExpr as *const ());
}

fn post_sel(s: &SelFormula, out: &mut Vec<*const ()>) {
    match s {
        SelFormula::Eq(..) | SelFormula::In(..) => {}
        SelFormula::Not(inner) => post_sel(inner, out),
        SelFormula::And(parts) | SelFormula::Or(parts) => {
            for part in parts {
                post_sel(part, out);
            }
        }
        SelFormula::Implies(a, b) => {
            post_sel(a, out);
            post_sel(b, out);
        }
    }
    out.push(s as *const SelFormula as *const ());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;

    fn parse_formula(src: &str) -> (Formula, Vec<(Pos, Pos)>) {
        let mut p = Parser::new(src).unwrap();
        let f = p.formula().unwrap();
        p.finish().unwrap();
        (f, p.take_span_events())
    }

    fn known_everywhere(table: &SpanTable) -> bool {
        (0..table.len()).all(|node| table.get(node).is_some())
    }

    fn parse_alg(src: &str) -> (AlgExpr, Vec<(Pos, Pos)>) {
        let mut p = Parser::new(src).unwrap();
        let e = p.alg_expr().unwrap();
        p.finish().unwrap();
        (e, p.take_span_events())
    }

    #[test]
    fn every_formula_node_gets_a_span() {
        let (f, events) = parse_formula("∃x/U (x ≈ x ∧ ¬P(x))");
        let table = formula_span_table(&f, &events);
        assert_eq!(table.len(), formula_preorder(&f).len());
        assert!(known_everywhere(&table), "{table:?}");
        // Pre-order node 0 is the Exists, spanning the whole text.
        assert_eq!(table.get(0).unwrap().0, (1, 1));
    }

    #[test]
    fn spans_point_at_the_right_subformula() {
        let (f, events) = parse_formula("x ≈ x ∨ x ∈ y");
        let table = formula_span_table(&f, &events);
        // Pre-order: Or, Eq, Member.
        assert_eq!(table.get(0).unwrap().0, (1, 1));
        assert_eq!(table.get(1).unwrap().0, (1, 1));
        assert_eq!(table.get(2).unwrap().0, (1, 9));
    }

    #[test]
    fn parenthesized_formulas_still_pair_up() {
        let (f, events) = parse_formula("((x ≈ x)) ∧ (y ≈ y)");
        let table = formula_span_table(&f, &events);
        assert!(known_everywhere(&table));
        // The second conjunct starts at its `(`: the event start is the
        // first token of the operand, which here is the paren passthrough's
        // inner Eq — column 14.
        assert_eq!(table.get(2).unwrap().0, (1, 14));
    }

    #[test]
    fn multi_line_formulas_carry_line_numbers() {
        let (f, events) = parse_formula("x ≈ x\n∧ y ≈ y");
        let table = formula_span_table(&f, &events);
        // Pre-order: And (line 1), Eq (line 1), Eq (line 2).
        assert_eq!(table.get(2).unwrap().0, (2, 3));
    }

    #[test]
    fn algebra_selection_spans_cover_formula_and_operand() {
        let (e, events) = parse_alg("σ_{$1 = $2 ∧ ⊥}(PAR × PAR)");
        let table = algebra_span_table(&e, &events);
        assert_eq!(table.len(), algebra_preorder(&e).len());
        assert!(known_everywhere(&table), "{table:?}");
        // Pre-order: Select, And, Eq, Or(⊥), Product, Pred, Pred.
        assert_eq!(table.get(0).unwrap().0, (1, 1));
        assert_eq!(table.get(3).unwrap().0, (1, 14)); // the ⊥
        assert_eq!(table.get(5).unwrap().0, (1, 17)); // first PAR
    }

    #[test]
    fn mismatched_event_count_degrades_to_none() {
        let (f, events) = parse_formula("x ≈ x");
        let table = formula_span_table(&f, &events[..0]);
        assert_eq!((table.len(), table.get(0)), (1, None));
    }

    #[test]
    fn packed_spans_read_back_and_overflow_to_unknown() {
        let huge = usize::MAX;
        let table: SpanTable = [Some(((1, 2), (3, 4))), None, Some(((huge, 1), (huge, 2)))]
            .into_iter()
            .collect();
        assert_eq!(table.len(), 3);
        assert_eq!(table.get(0), Some(((1, 2), (3, 4))));
        assert_eq!(table.get(1), None);
        assert_eq!(table.get(2), None);
        assert_eq!(table.get(3), None);
    }

    #[test]
    fn offset_span_shifts_first_line_columns_only() {
        let base = Pos {
            line: 3,
            column: 10,
        };
        assert_eq!(offset_span(((1, 2), (1, 5)), base), ((3, 11), (3, 14)));
        assert_eq!(offset_span(((2, 2), (2, 5)), base), ((4, 2), (4, 5)));
    }
}
