//! Prepare-time planning: lowering an [`AlgExpr`] into a physical plan.
//!
//! The tuple-at-a-time evaluator in [`crate::eval`] pays O(|A|·|B|) for every
//! `σ_F(A × B)`, even when `F` is an equi-join: it materialises the whole
//! Cartesian product and only then runs the selection.  The planner in this
//! module rewrites such shapes *once, at prepare time*, into a
//! [`PhysicalPlan`] of set-at-a-time operators that the executor in
//! [`crate::exec`] runs over [`ValueId`](itq_object::ValueId)-interned
//! relations:
//!
//! * **join extraction** — cross-operand `$i = $j` conjuncts of a selection
//!   over a product become hash-join keys; a cross-operand `$i ∈ $j`
//!   membership conjunct becomes a semijoin-style member index when no
//!   equality key is available;
//! * **selection pushdown** — conjuncts that mention only one operand of a
//!   product run once per input row instead of once per pair, and selections
//!   over a projection are pushed below it (coordinates remapped);
//! * **projection fusion** — `π ∘ π` composes, and a projection directly over
//!   a (possibly selected) product is fused into the join so the wide
//!   concatenated tuple is never materialised.
//!
//! The rewrites are *observationally invisible*: every plan node's output is
//! the same set of objects the tuple-at-a-time evaluator computes for the
//! corresponding subexpression, operands are still evaluated left-to-right,
//! and the `Product` / `Powerset` budget checks fire at the same points with
//! byte-identical [`AlgError::Budget`] messages — the join is a faster way to
//! run the product, not a way to dodge its budget.  The three-way differential
//! suite (`tests/backend_differential.rs`) pins this contract against both the
//! tuple-at-a-time evaluator and the Theorem 3.8 calculus translation.

use crate::error::AlgError;
use crate::expr::{AlgExpr, SelFormula, SelTerm};
use crate::typing::{product_width, Typing};
use itq_object::{Atom, PredName, Schema, Type};
use std::collections::BTreeSet;
use std::fmt;

/// How a join operator matches rows from its two inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Equi-join on `(left coordinate, right coordinate)` key pairs (1-based
    /// within each side's flattened tuple): build a hash index on the right,
    /// probe with the left.
    Hash {
        /// The key pairs, in the order the conjuncts appeared.
        keys: Vec<(usize, usize)>,
    },
    /// Membership semijoin for a cross-operand `$elem ∈ $container` conjunct:
    /// index the container side by set element, probe with the element side.
    Member {
        /// True when the element coordinate comes from the left operand.
        elem_on_left: bool,
        /// Element coordinate, 1-based within its side.
        elem: usize,
        /// Container coordinate, 1-based within its side.
        container: usize,
    },
    /// No usable cross-operand conjunct: a (filtered) nested-loop product.
    Loop,
}

/// One operator of a physical plan.  Fields are public so tests can assert
/// plan shapes directly.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysNode {
    /// Scan the relation stored under a predicate symbol.
    Scan {
        /// The predicate to scan.
        pred: PredName,
    },
    /// The singleton constant `{a}`.
    Singleton {
        /// The atom.
        atom: Atom,
    },
    /// `E1 ∪ E2` as an id-set union.
    Union(Box<PhysNode>, Box<PhysNode>),
    /// `E1 ∩ E2` as an id-set intersection.
    Intersect(Box<PhysNode>, Box<PhysNode>),
    /// `E1 − E2` as an id-set difference.
    Diff(Box<PhysNode>, Box<PhysNode>),
    /// A residual selection that could not be pushed into a join.
    Filter {
        /// The conjuncts, evaluated in order per row.
        conjuncts: Vec<SelFormula>,
        /// The input operator.
        input: Box<PhysNode>,
    },
    /// `π_{coords}` over an input that is not a join.
    Project {
        /// 1-based coordinates to keep, in output order.
        coords: Vec<usize>,
        /// The input operator.
        input: Box<PhysNode>,
    },
    /// A Cartesian product and everything fused into it: pushed-down
    /// per-side filters, the join strategy extracted from cross-operand
    /// conjuncts, the residual selection, and an optional fused projection.
    Join {
        /// Left input.
        left: Box<PhysNode>,
        /// Right input.
        right: Box<PhysNode>,
        /// Flattened tuple width contributed by the left operand.
        left_width: usize,
        /// Flattened tuple width contributed by the right operand.
        right_width: usize,
        /// Conjuncts over left coordinates only (numbered within the left).
        left_filter: Vec<SelFormula>,
        /// Conjuncts over right coordinates only (renumbered to the right).
        right_filter: Vec<SelFormula>,
        /// How matching pairs are found.
        strategy: JoinStrategy,
        /// Cross-operand conjuncts not expressible as keys, evaluated on the
        /// concatenated tuple (product coordinate numbering).
        residual: Vec<SelFormula>,
        /// A projection fused into the join output (product coordinates).
        project: Option<Vec<usize>>,
    },
    /// `μ` — unwrap width-1 tuples.
    Untuple {
        /// The input operator.
        input: Box<PhysNode>,
    },
    /// `𝒞` — one level of set union, as an id-set merge.
    Collapse {
        /// The input operator.
        input: Box<PhysNode>,
    },
    /// `𝒫` — powerset, budget-guarded before any subset is materialised.
    Powerset {
        /// The input operator.
        input: Box<PhysNode>,
    },
}

/// A planned algebra expression: the operator tree plus its output type.
///
/// Built once by [`plan`] (typically at `Engine::prepare_algebra` time) and
/// executed any number of times via [`PhysicalPlan::execute`].
///
/// ```
/// use itq_algebra::plan::{plan, JoinStrategy, PhysNode};
/// use itq_algebra::{AlgExpr, SelFormula};
/// use itq_object::{Schema, Type};
///
/// // Example 2.4's grandparent, algebra style: π_{1,4}(σ_{$2=$3}(PAR × PAR)).
/// let expr = AlgExpr::pred("PAR")
///     .product(AlgExpr::pred("PAR"))
///     .select(SelFormula::coords_eq(2, 3))
///     .project(vec![1, 4]);
/// let schema = Schema::single("PAR", Type::flat_tuple(2));
/// let physical = plan(&expr, &schema).unwrap();
/// // The whole σ∘× collapses into one hash join with a fused projection.
/// assert!(matches!(
///     physical.root(),
///     PhysNode::Join { strategy: JoinStrategy::Hash { .. }, project: Some(_), .. }
/// ));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    root: PhysNode,
    output_type: Type,
}

impl PhysicalPlan {
    /// The root operator.
    pub fn root(&self) -> &PhysNode {
        &self.root
    }

    /// The type of the objects the plan produces (the expression's `ᾱ(E)`).
    pub fn output_type(&self) -> &Type {
        &self.output_type
    }

    /// Every constant atom mentioned by the plan's selection formulas — the
    /// executor interns these once, up front.
    pub fn constants(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        self.root.visit(&mut |node| {
            let mut take = |fs: &[SelFormula]| {
                for f in fs {
                    out.extend(f.constants());
                }
            };
            match node {
                PhysNode::Filter { conjuncts, .. } => take(conjuncts),
                PhysNode::Join {
                    left_filter,
                    right_filter,
                    residual,
                    ..
                } => {
                    take(left_filter);
                    take(right_filter);
                    take(residual);
                }
                _ => {}
            }
        });
        out
    }

    /// Render the plan as an indented operator tree, one line per operator —
    /// the output of the surface language's `plan <name>;` statement.
    pub fn render_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        render_into(&self.root, "", "", &mut out);
        out
    }

    /// [`PhysicalPlan::render_lines`] joined with newlines.
    pub fn render(&self) -> String {
        self.render_lines().join("\n")
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl PhysNode {
    /// Direct children, left to right.
    pub fn children(&self) -> Vec<&PhysNode> {
        match self {
            PhysNode::Scan { .. } | PhysNode::Singleton { .. } => vec![],
            PhysNode::Union(a, b) | PhysNode::Intersect(a, b) | PhysNode::Diff(a, b) => {
                vec![a, b]
            }
            PhysNode::Join { left, right, .. } => vec![left, right],
            PhysNode::Filter { input, .. }
            | PhysNode::Project { input, .. }
            | PhysNode::Untuple { input }
            | PhysNode::Collapse { input }
            | PhysNode::Powerset { input } => vec![input],
        }
    }

    /// Visit every operator in pre-order.
    pub fn visit(&self, f: &mut dyn FnMut(&PhysNode)) {
        f(self);
        for child in self.children() {
            child.visit(f);
        }
    }

    /// One-line description of this operator (strategy, filters, fusions).
    pub fn label(&self) -> String {
        match self {
            PhysNode::Scan { pred } => format!("scan {pred}"),
            PhysNode::Singleton { atom } => format!("const {{{atom}}}"),
            PhysNode::Union(..) => "union ∪".to_string(),
            PhysNode::Intersect(..) => "intersect ∩".to_string(),
            PhysNode::Diff(..) => "diff −".to_string(),
            PhysNode::Filter { conjuncts, .. } => {
                format!("filter σ{{{}}}", join_formulas(conjuncts))
            }
            PhysNode::Project { coords, .. } => format!("project π_{{{}}}", join_coords(coords)),
            PhysNode::Join {
                left_filter,
                right_filter,
                strategy,
                residual,
                project,
                ..
            } => {
                let mut label = match strategy {
                    JoinStrategy::Hash { keys } => {
                        let rendered: Vec<String> =
                            keys.iter().map(|(l, r)| format!("${l} = ${r}'")).collect();
                        format!("hash-join [{}]", rendered.join(", "))
                    }
                    JoinStrategy::Member {
                        elem_on_left,
                        elem,
                        container,
                    } => {
                        if *elem_on_left {
                            format!("member-join [${elem} ∈ ${container}']")
                        } else {
                            format!("member-join [${elem}' ∈ ${container}]")
                        }
                    }
                    JoinStrategy::Loop => "product ×".to_string(),
                };
                if !left_filter.is_empty() {
                    label.push_str(&format!(" filter-left{{{}}}", join_formulas(left_filter)));
                }
                if !right_filter.is_empty() {
                    label.push_str(&format!(" filter-right{{{}}}", join_formulas(right_filter)));
                }
                if !residual.is_empty() {
                    label.push_str(&format!(" residual{{{}}}", join_formulas(residual)));
                }
                if let Some(coords) = project {
                    label.push_str(&format!(" project π_{{{}}}", join_coords(coords)));
                }
                label
            }
            PhysNode::Untuple { .. } => "untuple μ".to_string(),
            PhysNode::Collapse { .. } => "collapse 𝒞".to_string(),
            PhysNode::Powerset { .. } => "powerset 𝒫 (budget-guarded)".to_string(),
        }
    }
}

fn join_formulas(fs: &[SelFormula]) -> String {
    if fs.is_empty() {
        return "⊤".to_string();
    }
    let parts: Vec<String> = fs.iter().map(|f| f.to_string()).collect();
    parts.join(" ∧ ")
}

fn join_coords(coords: &[usize]) -> String {
    let parts: Vec<String> = coords.iter().map(|c| c.to_string()).collect();
    parts.join(",")
}

fn render_into(node: &PhysNode, own_prefix: &str, child_prefix: &str, out: &mut Vec<String>) {
    out.push(format!("{own_prefix}{}", node.label()));
    let children = node.children();
    for (i, child) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        let (branch, extend) = if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        render_into(
            child,
            &format!("{child_prefix}{branch}"),
            &format!("{child_prefix}{extend}"),
            out,
        );
    }
}

/// Split a selection formula into its top-level conjuncts, flattening nested
/// conjunctions (truth-functionally invisible; `⋀(⋀(a, b), c)` and `a ∧ b ∧ c`
/// run the same tests in the same order).
fn flatten_conjuncts(f: &SelFormula, out: &mut Vec<SelFormula>) {
    match f {
        SelFormula::And(fs) => {
            for g in fs {
                flatten_conjuncts(g, out);
            }
        }
        other => out.push(other.clone()),
    }
}

/// Rebuild a formula with every coordinate passed through `map`.
fn map_coords(
    f: &SelFormula,
    map: &dyn Fn(usize) -> Result<usize, AlgError>,
) -> Result<SelFormula, AlgError> {
    let term = |t: &SelTerm| -> Result<SelTerm, AlgError> {
        match t {
            SelTerm::Const(a) => Ok(SelTerm::Const(*a)),
            SelTerm::Coord(i) => Ok(SelTerm::Coord(map(*i)?)),
        }
    };
    Ok(match f {
        SelFormula::Eq(t1, t2) => SelFormula::Eq(term(t1)?, term(t2)?),
        SelFormula::In(t1, t2) => SelFormula::In(term(t1)?, term(t2)?),
        SelFormula::Not(g) => SelFormula::Not(Box::new(map_coords(g, map)?)),
        SelFormula::And(fs) => SelFormula::And(
            fs.iter()
                .map(|g| map_coords(g, map))
                .collect::<Result<_, _>>()?,
        ),
        SelFormula::Or(fs) => SelFormula::Or(
            fs.iter()
                .map(|g| map_coords(g, map))
                .collect::<Result<_, _>>()?,
        ),
        SelFormula::Implies(a, b) => {
            SelFormula::Implies(Box::new(map_coords(a, map)?), Box::new(map_coords(b, map)?))
        }
    })
}

/// Plan an algebra expression over a schema: type it, then lower it into a
/// [`PhysicalPlan`] with joins extracted, selections pushed down, and
/// projections fused.
pub fn plan(expr: &AlgExpr, schema: &Schema) -> Result<PhysicalPlan, AlgError> {
    // One pass types every subexpression; lowering reads its operands' types
    // from that record and never applies a typing rule itself.
    let typing = Typing::new(expr, schema);
    let output_type = typing.result()?.clone();
    let root = lower(expr, 0, &typing)?;
    Ok(PhysicalPlan { root, output_type })
}

/// Lower the subexpression at pre-order index `at` of a typing with no error
/// to its operator.
fn lower(expr: &AlgExpr, at: usize, typing: &Typing) -> Result<PhysNode, AlgError> {
    Ok(match expr {
        AlgExpr::Pred(p) => PhysNode::Scan { pred: p.clone() },
        AlgExpr::Singleton(a) => PhysNode::Singleton { atom: *a },
        AlgExpr::Union(a, b) => PhysNode::Union(
            Box::new(lower(a, at + 1, typing)?),
            Box::new(lower(b, typing.second_operand(at), typing)?),
        ),
        AlgExpr::Intersect(a, b) => PhysNode::Intersect(
            Box::new(lower(a, at + 1, typing)?),
            Box::new(lower(b, typing.second_operand(at), typing)?),
        ),
        AlgExpr::Diff(a, b) => PhysNode::Diff(
            Box::new(lower(a, at + 1, typing)?),
            Box::new(lower(b, typing.second_operand(at), typing)?),
        ),
        AlgExpr::Project(coords, a) => fuse_project(coords.clone(), lower(a, at + 1, typing)?)?,
        AlgExpr::Select(f, a) => {
            let mut conjuncts = Vec::new();
            flatten_conjuncts(f, &mut conjuncts);
            lower_selected(conjuncts, a, at + 1, typing)?
        }
        AlgExpr::Product(a, b) => lower_product(Vec::new(), a, b, at, typing)?,
        AlgExpr::Untuple(a) => PhysNode::Untuple {
            input: Box::new(lower(a, at + 1, typing)?),
        },
        AlgExpr::Collapse(a) => PhysNode::Collapse {
            input: Box::new(lower(a, at + 1, typing)?),
        },
        AlgExpr::Powerset(a) => PhysNode::Powerset {
            input: Box::new(lower(a, at + 1, typing)?),
        },
    })
}

/// Place a projection over a lowered input, fusing `π ∘ π` by composition and
/// `π ∘ (join)` into the join's output projection.
fn fuse_project(coords: Vec<usize>, input: PhysNode) -> Result<PhysNode, AlgError> {
    match input {
        PhysNode::Join {
            left,
            right,
            left_width,
            right_width,
            left_filter,
            right_filter,
            strategy,
            residual,
            project,
        } => {
            let fused = match project {
                None => coords,
                Some(inner) => compose_coords(&coords, &inner)?,
            };
            Ok(PhysNode::Join {
                left,
                right,
                left_width,
                right_width,
                left_filter,
                right_filter,
                strategy,
                residual,
                project: Some(fused),
            })
        }
        PhysNode::Project {
            coords: inner,
            input,
        } => Ok(PhysNode::Project {
            coords: compose_coords(&coords, &inner)?,
            input,
        }),
        other => Ok(PhysNode::Project {
            coords,
            input: Box::new(other),
        }),
    }
}

/// `π_outer ∘ π_inner = π_composed`: outer coordinates index into the inner
/// coordinate list (both validated by typing, so failures are defensive).
fn compose_coords(outer: &[usize], inner: &[usize]) -> Result<Vec<usize>, AlgError> {
    outer
        .iter()
        .map(|&k| {
            k.checked_sub(1)
                .and_then(|i| inner.get(i))
                .copied()
                .ok_or(AlgError::BadCoordinate {
                    coordinate: k,
                    width: inner.len(),
                })
        })
        .collect()
}

/// Lower `σ_{conjuncts}(operand)`, with `operand` at pre-order index `at`,
/// pushing the conjuncts as deep as they go.
fn lower_selected(
    conjuncts: Vec<SelFormula>,
    operand: &AlgExpr,
    at: usize,
    typing: &Typing,
) -> Result<PhysNode, AlgError> {
    match operand {
        // σ_f(σ_g(e)) ≡ σ_{g ∧ f}(e): the inner selection's tests run first,
        // exactly as the tuple-at-a-time evaluator orders them.
        AlgExpr::Select(g, inner) => {
            let mut merged = Vec::new();
            flatten_conjuncts(g, &mut merged);
            merged.extend(conjuncts);
            lower_selected(merged, inner, at + 1, typing)
        }
        // σ_f(π_c(e)) ≡ π_c(σ_{f'}(e)) with the coordinates remapped through
        // the projection — the selection now runs before the (possibly
        // join-fused) projection materialises anything.
        AlgExpr::Project(coords, inner) => {
            let remapped: Vec<SelFormula> = conjuncts
                .iter()
                .map(|f| {
                    map_coords(f, &|k| {
                        k.checked_sub(1).and_then(|i| coords.get(i)).copied().ok_or(
                            AlgError::BadCoordinate {
                                coordinate: k,
                                width: coords.len(),
                            },
                        )
                    })
                })
                .collect::<Result<_, _>>()?;
            fuse_project(
                coords.clone(),
                lower_selected(remapped, inner, at + 1, typing)?,
            )
        }
        AlgExpr::Product(a, b) => lower_product(conjuncts, a, b, at, typing),
        other => {
            let input = lower(other, at, typing)?;
            let ty = typing.ty(at);
            if !matches!(ty, Type::Tuple(_)) {
                // Typing admits a coordinate-free (vacuous) selection over any
                // operand, but evaluation needs tuples.  Report it here, at
                // prepare time, naming the operand; the tuple-at-a-time
                // evaluator keeps its own runtime error untouched.
                return Err(AlgError::TypeMismatch {
                    operator: "selection".to_string(),
                    detail: format!("non-tuple operand {other} of type {ty}"),
                });
            }
            if conjuncts.is_empty() {
                // A vacuous selection over tuples is the identity.
                return Ok(input);
            }
            Ok(PhysNode::Filter {
                conjuncts,
                input: Box::new(input),
            })
        }
    }
}

/// Lower `σ_{conjuncts}(a × b)`, with the product at pre-order index `at`,
/// into a join: partition the conjuncts into per-side filters, key/semijoin
/// candidates, and a residual.
fn lower_product(
    conjuncts: Vec<SelFormula>,
    a: &AlgExpr,
    b: &AlgExpr,
    at: usize,
    typing: &Typing,
) -> Result<PhysNode, AlgError> {
    let second = typing.second_operand(at);
    let left = lower(a, at + 1, typing)?;
    let right = lower(b, second, typing)?;
    let left_width = product_width(typing.ty(at + 1));
    let right_width = product_width(typing.ty(second));

    let mut left_filter = Vec::new();
    let mut right_filter = Vec::new();
    let mut keys = Vec::new();
    let mut members = Vec::new();
    let mut residual = Vec::new();
    for f in conjuncts {
        let coords = f.coordinates();
        if coords.iter().all(|&c| c <= left_width) {
            // Coordinate-free conjuncts land here too: over a non-empty
            // product both paths test them; attaching to the left is
            // observationally identical (an empty side empties the output
            // either way).
            left_filter.push(f);
        } else if coords.iter().all(|&c| c > left_width) {
            right_filter.push(map_coords(&f, &|k| {
                k.checked_sub(left_width + 1)
                    .map(|shifted| shifted + 1)
                    .ok_or(AlgError::BadCoordinate {
                        coordinate: k,
                        width: left_width + right_width,
                    })
            })?);
        } else {
            match &f {
                SelFormula::Eq(SelTerm::Coord(i), SelTerm::Coord(j)) => {
                    let (i, j) = (*i, *j);
                    if i <= left_width && j > left_width {
                        keys.push((i, j - left_width));
                    } else if j <= left_width && i > left_width {
                        keys.push((j, i - left_width));
                    } else {
                        residual.push(f);
                    }
                }
                // Typing makes the second term the container: `$i ∈ $j` with
                // the element on one side and the container on the other.
                SelFormula::In(SelTerm::Coord(i), SelTerm::Coord(j)) => {
                    members.push((f.clone(), *i, *j));
                }
                _ => residual.push(f),
            }
        }
    }

    let strategy = if !keys.is_empty() {
        // Equality keys beat membership indexes; leftover `∈` conjuncts are
        // cheap id-set probes in the residual.
        residual.extend(members.into_iter().map(|(f, _, _)| f));
        JoinStrategy::Hash { keys }
    } else if let Some((elem, container)) = members.first().map(|&(_, i, j)| (i, j)) {
        residual.extend(members.into_iter().skip(1).map(|(f, _, _)| f));
        if elem <= left_width {
            JoinStrategy::Member {
                elem_on_left: true,
                elem,
                container: container - left_width,
            }
        } else {
            JoinStrategy::Member {
                elem_on_left: false,
                elem: elem - left_width,
                container,
            }
        }
    } else {
        JoinStrategy::Loop
    };

    Ok(PhysNode::Join {
        left: Box::new(left),
        right: Box::new(right),
        left_width,
        right_width,
        left_filter,
        right_filter,
        strategy,
        residual,
        project: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalConfig;
    use itq_object::{Database, Instance, Value};

    fn schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2))
            .with("PERSON", Type::Atomic)
            .with(
                "NESTED",
                Type::tuple(vec![Type::Atomic, Type::set(Type::Atomic)]),
            )
    }

    fn db() -> Database {
        Database::single(
            "PAR",
            Instance::from_pairs(vec![
                (Atom(0), Atom(1)),
                (Atom(1), Atom(2)),
                (Atom(2), Atom(3)),
            ]),
        )
        .with(
            "PERSON",
            Instance::from_atoms(vec![Atom(0), Atom(1), Atom(2), Atom(3)]),
        )
        .with(
            "NESTED",
            Instance::from_values(vec![
                Value::tuple(vec![
                    Value::Atom(Atom(0)),
                    Value::set(vec![Value::Atom(Atom(0)), Value::Atom(Atom(1))]),
                ]),
                Value::tuple(vec![
                    Value::Atom(Atom(2)),
                    Value::set(vec![Value::Atom(Atom(1))]),
                ]),
            ]),
        )
    }

    /// Plan + execute and compare with the tuple-at-a-time evaluator — the
    /// mini differential every rewrite test runs alongside its shape check.
    fn assert_plan_matches_eval(expr: &AlgExpr) -> PhysicalPlan {
        let physical = plan(expr, &schema()).unwrap();
        let (planned, _) = physical.execute(&db(), &EvalConfig::default()).unwrap();
        let direct = expr.eval(&db(), &schema(), &EvalConfig::default()).unwrap();
        assert_eq!(planned, direct, "{expr}");
        physical
    }

    #[test]
    fn join_extraction_turns_select_product_into_hash_join() {
        // π_{1,4}(σ_{$2=$3}(PAR × PAR)) — the grandparent exemplar.
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let physical = assert_plan_matches_eval(&expr);
        match physical.root() {
            PhysNode::Join {
                strategy: JoinStrategy::Hash { keys },
                residual,
                project,
                left_width,
                right_width,
                ..
            } => {
                assert_eq!(keys, &[(2, 1)], "σ-coordinate 3 is right coordinate 1");
                assert!(residual.is_empty());
                assert_eq!(
                    project.as_deref(),
                    Some(&[1, 4][..]),
                    "π fused into the join"
                );
                assert_eq!((*left_width, *right_width), (2, 2));
            }
            other => panic!("expected a fused hash join, got {other:?}"),
        }
    }

    #[test]
    fn selection_pushdown_splits_per_side_conjuncts() {
        // $1 = "a0" only mentions the left, $4 = "a3" only the right; the
        // cross conjunct becomes the key and nothing is left behind.
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::all(vec![
                SelFormula::coord_is(1, Atom(0)),
                SelFormula::coords_eq(2, 3),
                SelFormula::coord_is(4, Atom(3)),
            ]));
        let physical = assert_plan_matches_eval(&expr);
        match physical.root() {
            PhysNode::Join {
                left_filter,
                right_filter,
                strategy: JoinStrategy::Hash { keys },
                residual,
                ..
            } => {
                assert_eq!(left_filter, &[SelFormula::coord_is(1, Atom(0))]);
                // Right conjunct renumbered from product coordinate 4 to
                // right-side coordinate 2.
                assert_eq!(right_filter, &[SelFormula::coord_is(2, Atom(3))]);
                assert_eq!(keys, &[(2, 1)]);
                assert!(residual.is_empty());
            }
            other => panic!("expected a filtered hash join, got {other:?}"),
        }
    }

    #[test]
    fn selection_pushes_below_projection() {
        // σ_{$1="a0"}(π_{2,1}(PAR)): the conjunct remaps to coordinate 2 and
        // runs below the projection.
        let expr = AlgExpr::pred("PAR")
            .project(vec![2, 1])
            .select(SelFormula::coord_is(1, Atom(0)));
        let physical = assert_plan_matches_eval(&expr);
        match physical.root() {
            PhysNode::Project { coords, input } => {
                assert_eq!(coords, &[2, 1]);
                match input.as_ref() {
                    PhysNode::Filter { conjuncts, .. } => {
                        assert_eq!(conjuncts, &[SelFormula::coord_is(2, Atom(0))]);
                    }
                    other => panic!("expected the selection below the projection, got {other:?}"),
                }
            }
            other => panic!("expected a projection root, got {other:?}"),
        }
    }

    #[test]
    fn membership_conjunct_becomes_member_join() {
        // σ_{$1 ∈ $3}(PERSON × π_{2}(NESTED)): no equality key, so the ∈
        // conjunct drives a membership (semijoin-style) index.
        let expr = AlgExpr::pred("PERSON")
            .product(AlgExpr::pred("NESTED").project(vec![2]))
            .select(SelFormula::In(SelTerm::Coord(1), SelTerm::Coord(2)));
        let physical = assert_plan_matches_eval(&expr);
        match physical.root() {
            PhysNode::Join {
                strategy:
                    JoinStrategy::Member {
                        elem_on_left,
                        elem,
                        container,
                    },
                residual,
                ..
            } => {
                assert!(elem_on_left);
                assert_eq!((*elem, *container), (1, 1));
                assert!(residual.is_empty());
            }
            other => panic!("expected a member join, got {other:?}"),
        }
    }

    #[test]
    fn non_conjunctive_cross_formulas_stay_residual() {
        // A disjunction across both sides cannot key a join: Loop strategy
        // with the whole formula residual (but still applied pre-materialise).
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::any(vec![
                SelFormula::coords_eq(1, 3),
                SelFormula::coords_eq(2, 4),
            ]));
        let physical = assert_plan_matches_eval(&expr);
        match physical.root() {
            PhysNode::Join {
                strategy: JoinStrategy::Loop,
                residual,
                ..
            } => assert_eq!(residual.len(), 1),
            other => panic!("expected a loop join with residual, got {other:?}"),
        }
    }

    #[test]
    fn stacked_selections_merge_and_projections_compose() {
        // σ_f(σ_g(…)) merges (inner conjuncts first); π∘π composes.
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .select(SelFormula::coord_is(1, Atom(0)))
            .project(vec![1, 2, 4])
            .project(vec![3, 1]);
        let physical = assert_plan_matches_eval(&expr);
        match physical.root() {
            PhysNode::Join {
                left_filter,
                strategy: JoinStrategy::Hash { keys },
                project,
                ..
            } => {
                assert_eq!(keys, &[(2, 1)]);
                assert_eq!(left_filter, &[SelFormula::coord_is(1, Atom(0))]);
                assert_eq!(
                    project.as_deref(),
                    Some(&[4, 1][..]),
                    "π_{{3,1}} ∘ π_{{1,2,4}}"
                );
            }
            other => panic!("expected one fused join, got {other:?}"),
        }
    }

    #[test]
    fn plain_operators_lower_structurally() {
        let expr = AlgExpr::pred("PAR")
            .union(AlgExpr::pred("PAR"))
            .diff(AlgExpr::pred("PAR").select(SelFormula::coords_eq(1, 2)))
            .powerset()
            .collapse();
        let physical = assert_plan_matches_eval(&expr);
        assert!(matches!(physical.root(), PhysNode::Collapse { .. }));
        let mut ops = Vec::new();
        physical.root().visit(&mut |n| ops.push(n.label()));
        assert!(ops.iter().any(|l| l.starts_with("powerset")));
        assert!(ops.iter().any(|l| l.starts_with("diff")));
        assert!(ops.iter().any(|l| l.starts_with("union")));
        assert!(ops.iter().any(|l| l.starts_with("filter")));
        assert_eq!(physical.output_type(), &Type::flat_tuple(2));
    }

    #[test]
    fn vacuous_selection_over_non_tuples_is_rejected_at_plan_time() {
        // Typing admits a coordinate-free selection over atoms, but every
        // backend rejects it at runtime; the planner now reports the hole up
        // front, naming the offending operand and its type.
        let expr = AlgExpr::pred("PERSON").select(SelFormula::all(vec![]));
        let err = plan(&expr, &schema()).unwrap_err();
        assert_eq!(
            err,
            AlgError::TypeMismatch {
                operator: "selection".to_string(),
                detail: "non-tuple operand PERSON of type U".to_string(),
            }
        );
        // Over tuples the vacuous selection is dropped entirely.
        let id = AlgExpr::pred("PAR").select(SelFormula::all(vec![]));
        assert!(matches!(
            plan(&id, &schema()).unwrap().root(),
            PhysNode::Scan { .. }
        ));
    }

    #[test]
    fn plans_render_as_trees() {
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let physical = plan(&expr, &schema()).unwrap();
        let rendered = physical.render();
        assert!(rendered.contains("hash-join [$2 = $1']"), "{rendered}");
        assert!(rendered.contains("project π_{1,4}"), "{rendered}");
        assert_eq!(
            rendered.matches("scan PAR").count(),
            2,
            "both scans printed: {rendered}"
        );
        assert!(rendered.contains("└─ "), "{rendered}");
        assert_eq!(physical.to_string(), rendered);
        // Constants surface for the executor.
        let with_const = AlgExpr::pred("PAR").select(SelFormula::coord_is(1, Atom(7)));
        assert_eq!(
            plan(&with_const, &schema()).unwrap().constants(),
            BTreeSet::from([Atom(7)])
        );
    }

    #[test]
    fn planning_rejects_ill_typed_expressions() {
        assert!(plan(&AlgExpr::pred("NOPE"), &schema()).is_err());
        assert!(plan(&AlgExpr::pred("PAR").project(vec![5]), &schema()).is_err());
        assert!(plan(
            &AlgExpr::pred("PAR").select(SelFormula::coord_in(1, 2)),
            &schema()
        )
        .is_err());
    }
}
