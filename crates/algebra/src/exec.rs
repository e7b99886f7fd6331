//! Set-at-a-time execution of a [`PhysicalPlan`] over interned relations.
//!
//! Every relation is a deduplicated vector of [`ValueId`]s in a per-execution
//! [`ValueStore`] (hash-consing arena shared with the compiled calculus
//! backend): equality is an id comparison, the set operators are id-set
//! merges, membership is a sorted-slice probe, and a join probes a hash index
//! instead of walking the Cartesian product.  The executor mirrors the
//! tuple-at-a-time evaluator *observationally*: identical answers, operands
//! evaluated left-to-right, and byte-identical budget errors — the `Product`
//! budget is checked against the unfiltered operand cardinalities **before**
//! any pair is materialised, even when the product was rewritten into a join,
//! and the `Powerset` budget before any subset is built.
//!
//! Two counters make the set-at-a-time behaviour observable in execution
//! statistics rather than merely asserted: `join_probes` (index probes plus
//! candidate pairs examined) and `tuples_materialised` (objects constructed
//! by plan operators).  Compare `join_probes` with the |A|·|B| the
//! tuple-at-a-time path always pays.

use crate::error::AlgError;
use crate::eval::EvalConfig;
use crate::expr::{SelFormula, SelTerm};
use crate::plan::{JoinStrategy, PhysNode, PhysicalPlan};
use itq_object::govern::POLL_MASK;
use itq_object::{Atom, Database, ExecCtx, ExecStats, Instance, Interrupt, ValueId, ValueStore};
use itq_trace::Span;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

impl PhysicalPlan {
    /// Execute the plan on a database under the given budgets, returning the
    /// answer instance and its [`ExecStats`]: `join_probes`,
    /// `tuples_materialised` (see the module docs) and `interned_values`;
    /// every other counter stays 0.
    ///
    /// ```
    /// use itq_algebra::plan::plan;
    /// use itq_algebra::{AlgExpr, EvalConfig, SelFormula};
    /// use itq_object::{Atom, Database, Instance, Schema, Type};
    ///
    /// let schema = Schema::single("PAR", Type::flat_tuple(2));
    /// let db = Database::single(
    ///     "PAR",
    ///     Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
    /// );
    /// let expr = AlgExpr::pred("PAR")
    ///     .product(AlgExpr::pred("PAR"))
    ///     .select(SelFormula::coords_eq(2, 3))
    ///     .project(vec![1, 4]);
    /// let physical = plan(&expr, &schema).unwrap();
    /// let (answer, stats) = physical.execute(&db, &EvalConfig::default()).unwrap();
    /// assert_eq!(answer, Instance::from_pairs(vec![(Atom(0), Atom(2))]));
    /// assert!(stats.join_probes < 4, "hash join beats the 2×2 product");
    /// ```
    pub fn execute(
        &self,
        db: &Database,
        config: &EvalConfig,
    ) -> Result<(Instance, ExecStats), AlgError> {
        let (result, stats, _) = self.execute_ctx(db, config, &ExecCtx::default())?;
        Ok((result, stats))
    }

    /// [`PhysicalPlan::execute`] under an execution context.
    ///
    /// The executor polls `ctx.interrupt` once on entry, then at
    /// join-probe / row-materialisation granularity, and once more on exit,
    /// surfacing deadline expiry, cancellation, injected faults, and
    /// memory-ceiling breaches (against the interner's deterministic byte
    /// estimate) as [`AlgError::Resource`].  It runs sequentially at any
    /// `ctx.workers`: partitioning the hash-join probe did not beat the
    /// sequential probe on the measured joins.
    ///
    /// When `ctx.traced` the returned [`Span`] tree is isomorphic to the plan
    /// (one span per operator, named by [`PhysNode::label`]) and carries
    /// `rows_in` / `rows_out`, the operator's *own* `join_probes` /
    /// `tuples_materialised` (children excluded, so [`Span::subtree_total`]
    /// reproduces the [`ExecStats`] totals), and inclusive wall time.
    /// Answers, statistics, and errors never depend on `ctx.traced`.
    pub fn execute_ctx(
        &self,
        db: &Database,
        config: &EvalConfig,
        ctx: &ExecCtx,
    ) -> Result<(Instance, ExecStats, Option<Span>), AlgError> {
        // Poll once before any work so a deadline of 0 ms (or a pre-set
        // cancel flag) trips even on plans that would finish instantly.
        ctx.interrupt.check(0)?;
        let mut exec = Ctx {
            db,
            config,
            store: ValueStore::new(),
            scans: HashMap::new(),
            consts: HashMap::new(),
            stats: ExecStats::default(),
            interrupt: ctx.interrupt,
            ticks: 0,
            trace: ctx.traced.then(Vec::new),
        };
        for atom in self.constants() {
            let id = exec.store.intern_atom(atom);
            exec.consts.insert(atom, id);
        }
        let rows = exec.eval(self.root())?;
        // A plan of fewer than 256 work units never reaches a masked poll, so
        // without this one its interner would escape the memory ceiling.
        ctx.interrupt.check(exec.store.approx_bytes())?;
        let result = Instance::from_values(rows.iter().map(|&id| exec.store.resolve(id)));
        exec.stats.interned_values = exec.store.len() as u64;
        let root = exec.trace.and_then(|mut spans| spans.pop());
        Ok((result, exec.stats, root))
    }
}

/// Per-execution state: the interner, memoized scans, pre-interned selection
/// constants, and the counters.
struct Ctx<'a> {
    db: &'a Database,
    config: &'a EvalConfig,
    store: ValueStore,
    scans: HashMap<String, Vec<ValueId>>,
    consts: HashMap<Atom, ValueId>,
    stats: ExecStats,
    /// The execution's resource governor, polled every [`POLL_MASK`]+1 ticks.
    interrupt: &'a Interrupt,
    /// Work units since execution start: one per join probe, per row
    /// materialised or filtered, and per operator entered — the plan
    /// executor's analogue of the calculus evaluators' step counter.
    ticks: u64,
    /// Completed spans of already-evaluated siblings, innermost last; `None`
    /// on the untraced path, which therefore pays one branch per operator.
    trace: Option<Vec<Span>>,
}

/// Deduplicating row collector: preserves first-seen order, which keeps every
/// operator's output a set without re-sorting.
#[derive(Default)]
struct RowSet {
    rows: Vec<ValueId>,
    seen: HashSet<ValueId>,
}

impl RowSet {
    fn push(&mut self, id: ValueId) {
        if self.seen.insert(id) {
            self.rows.push(id);
        }
    }
}

impl Ctx<'_> {
    /// Count one work unit and poll the governor at the masked cadence,
    /// reporting the interner's deterministic byte estimate for the memory
    /// ceiling.
    fn tick(&mut self) -> Result<(), AlgError> {
        self.ticks += 1;
        if self.ticks & POLL_MASK == 0 {
            self.interrupt.check(self.store.approx_bytes())?;
        }
        Ok(())
    }

    /// Evaluate one operator, wrapping it in a span when tracing.  Children
    /// are evaluated (and their spans pushed) before any operator does its
    /// own work, so the counter deltas attributable to *this* operator are
    /// the inclusive deltas minus the freshly completed child subtrees.
    fn eval(&mut self, node: &PhysNode) -> Result<Vec<ValueId>, AlgError> {
        if self.trace.is_none() {
            return self.eval_node(node);
        }
        let probes_before = self.stats.join_probes;
        let mat_before = self.stats.tuples_materialised;
        let mark = self.trace.as_ref().map_or(0, Vec::len);
        let start = Instant::now();
        let rows = self.eval_node(node)?;
        let wall_micros = start.elapsed().as_micros() as u64;
        let trace = self.trace.as_mut().expect("tracing checked above");
        let children = trace.split_off(mark);
        let rows_in: u64 = children
            .iter()
            .map(|c| c.field("rows_out").unwrap_or(0))
            .sum();
        let child_probes: u64 = children
            .iter()
            .map(|c| c.subtree_total("join_probes"))
            .sum();
        let child_mat: u64 = children
            .iter()
            .map(|c| c.subtree_total("tuples_materialised"))
            .sum();
        let mut span = Span::new(node.label());
        span.push_field("rows_in", rows_in);
        span.push_field("rows_out", rows.len() as u64);
        span.push_field(
            "join_probes",
            self.stats.join_probes - probes_before - child_probes,
        );
        span.push_field(
            "tuples_materialised",
            self.stats.tuples_materialised - mat_before - child_mat,
        );
        span.wall_micros = wall_micros;
        span.children = children;
        trace.push(span);
        Ok(rows)
    }

    /// Evaluate one operator to its deduplicated row set.  Operands are
    /// evaluated left-to-right, depth-first — the same order the
    /// tuple-at-a-time evaluator visits subexpressions, so the first budget
    /// or missing-relation error is the same one it would report.
    fn eval_node(&mut self, node: &PhysNode) -> Result<Vec<ValueId>, AlgError> {
        self.tick()?;
        match node {
            PhysNode::Scan { pred } => {
                if let Some(rows) = self.scans.get(pred) {
                    return Ok(rows.clone());
                }
                let instance = self
                    .db
                    .relation(pred)
                    .ok_or_else(|| AlgError::UnknownPredicate { name: pred.clone() })?;
                let rows: Vec<ValueId> = instance.iter().map(|v| self.store.intern(v)).collect();
                self.scans.insert(pred.clone(), rows.clone());
                Ok(rows)
            }
            PhysNode::Singleton { atom } => Ok(vec![self.store.intern_atom(*atom)]),
            PhysNode::Union(a, b) => {
                let ra = self.eval(a)?;
                let rb = self.eval(b)?;
                let mut out = RowSet::default();
                for id in ra.into_iter().chain(rb) {
                    out.push(id);
                }
                Ok(out.rows)
            }
            PhysNode::Intersect(a, b) => {
                let ra = self.eval(a)?;
                let rb: HashSet<ValueId> = self.eval(b)?.into_iter().collect();
                Ok(ra.into_iter().filter(|id| rb.contains(id)).collect())
            }
            PhysNode::Diff(a, b) => {
                let ra = self.eval(a)?;
                let rb: HashSet<ValueId> = self.eval(b)?.into_iter().collect();
                Ok(ra.into_iter().filter(|id| !rb.contains(id)).collect())
            }
            PhysNode::Filter { conjuncts, input } => {
                let rows = self.eval(input)?;
                let mut out = Vec::with_capacity(rows.len());
                for id in rows {
                    self.tick()?;
                    let comps = match self.store.tuple_components(id) {
                        Some(c) => c.to_vec(),
                        None => {
                            return Err(AlgError::TypeMismatch {
                                operator: "selection".to_string(),
                                detail: format!("non-tuple value {}", self.store.resolve(id)),
                            })
                        }
                    };
                    if self.passes(conjuncts, &comps)? {
                        out.push(id);
                    }
                }
                Ok(out)
            }
            PhysNode::Project { coords, input } => {
                let rows = self.eval(input)?;
                let mut out = RowSet::default();
                for id in rows {
                    let comps = match self.store.tuple_components(id) {
                        Some(c) => c.to_vec(),
                        None => {
                            return Err(AlgError::TypeMismatch {
                                operator: "projection".to_string(),
                                detail: format!("non-tuple value {}", self.store.resolve(id)),
                            })
                        }
                    };
                    let selected = select_coords(coords.iter().copied(), &comps)?;
                    let tid = self.store.intern_tuple(selected);
                    self.stats.tuples_materialised += 1;
                    self.tick()?;
                    out.push(tid);
                }
                Ok(out.rows)
            }
            PhysNode::Join {
                left,
                right,
                left_filter,
                right_filter,
                strategy,
                residual,
                project,
                ..
            } => self.eval_join(
                left,
                right,
                left_filter,
                right_filter,
                strategy,
                residual,
                project,
            ),
            PhysNode::Untuple { input } => {
                let rows = self.eval(input)?;
                let mut out = RowSet::default();
                for id in rows {
                    let inner = self.store.tuple_components(id).and_then(|c| match c {
                        [single] => Some(*single),
                        _ => None,
                    });
                    match inner {
                        Some(v) => out.push(v),
                        None => {
                            return Err(AlgError::TypeMismatch {
                                operator: "untuple".to_string(),
                                detail: format!(
                                    "value {} is not a width-1 tuple",
                                    self.store.resolve(id)
                                ),
                            })
                        }
                    }
                }
                Ok(out.rows)
            }
            PhysNode::Collapse { input } => {
                let rows = self.eval(input)?;
                let mut out = RowSet::default();
                for id in rows {
                    let elements = match self.store.set_elements(id) {
                        Some(e) => e.to_vec(),
                        None => {
                            return Err(AlgError::TypeMismatch {
                                operator: "collapse".to_string(),
                                detail: format!("value {} is not a set", self.store.resolve(id)),
                            })
                        }
                    };
                    for e in elements {
                        out.push(e);
                    }
                }
                Ok(out.rows)
            }
            PhysNode::Powerset { input } => {
                let rows = self.eval(input)?;
                let n = rows.len();
                if n >= 63 || (1u64 << n) > self.config.max_instance {
                    return Err(AlgError::Budget {
                        what: format!("powerset of an instance with {n} objects"),
                        limit: self.config.max_instance,
                    });
                }
                let mut out = Vec::with_capacity(1 << n);
                for mask in 0u64..(1u64 << n) {
                    let subset: Vec<ValueId> = rows
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &id)| id)
                        .collect();
                    out.push(self.store.intern_set(subset));
                    self.stats.tuples_materialised += 1;
                    self.tick()?;
                }
                Ok(out)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_join(
        &mut self,
        left: &PhysNode,
        right: &PhysNode,
        left_filter: &[SelFormula],
        right_filter: &[SelFormula],
        strategy: &JoinStrategy,
        residual: &[SelFormula],
        project: &Option<Vec<usize>>,
    ) -> Result<Vec<ValueId>, AlgError> {
        let left_all = self.eval(left)?;
        let right_all = self.eval(right)?;
        // The Product budget fires on the *unfiltered* operand cardinalities
        // before anything is materialised — byte-identical to the
        // tuple-at-a-time evaluator, which checks |A|·|B| right after
        // evaluating the operands.  A join is a cheaper way to run the
        // product, not a way around its budget.
        let expected = (left_all.len() as u64).saturating_mul(right_all.len() as u64);
        if expected > self.config.max_instance {
            return Err(AlgError::Budget {
                what: format!(
                    "product of {} × {} objects",
                    left_all.len(),
                    right_all.len()
                ),
                limit: self.config.max_instance,
            });
        }
        // Flatten each surviving row exactly once; every later probe, key
        // extraction, and emission works on these precomputed components.
        let left_rows = self.prefilter_flat(left_all, left_filter)?;
        let right_rows = self.prefilter_flat(right_all, right_filter)?;
        let mut out = RowSet::default();
        match strategy {
            JoinStrategy::Hash { keys } => {
                let mut index: HashMap<Vec<ValueId>, Vec<usize>> = HashMap::new();
                for (j, comps) in right_rows.iter().enumerate() {
                    let key = select_coords(keys.iter().map(|&(_, rc)| rc), comps)?;
                    index.entry(key).or_default().push(j);
                }
                for lcomps in &left_rows {
                    let key = select_coords(keys.iter().map(|&(lc, _)| lc), lcomps)?;
                    self.stats.join_probes += 1;
                    self.tick()?;
                    if let Some(matches) = index.get(&key) {
                        for &j in matches {
                            self.stats.join_probes += 1;
                            self.tick()?;
                            self.emit(lcomps, &right_rows[j], residual, project, &mut out)?;
                        }
                    }
                }
            }
            JoinStrategy::Member {
                elem_on_left,
                elem,
                container,
            } => {
                let (elem_rows, container_rows) = if *elem_on_left {
                    (&left_rows, &right_rows)
                } else {
                    (&right_rows, &left_rows)
                };
                let mut index: HashMap<ValueId, Vec<usize>> = HashMap::new();
                for (j, comps) in container_rows.iter().enumerate() {
                    let cid = coord(*container, comps)?;
                    // A non-set container holds nothing (`Value::is_member_of`).
                    if let Some(elements) = self.store.set_elements(cid) {
                        for &e in elements {
                            index.entry(e).or_default().push(j);
                        }
                    }
                }
                for ecomps in elem_rows {
                    let eid = coord(*elem, ecomps)?;
                    self.stats.join_probes += 1;
                    self.tick()?;
                    if let Some(matches) = index.get(&eid) {
                        for &j in matches {
                            self.stats.join_probes += 1;
                            self.tick()?;
                            let (lcomps, rcomps) = if *elem_on_left {
                                (ecomps, &container_rows[j])
                            } else {
                                (&container_rows[j], ecomps)
                            };
                            self.emit(lcomps, rcomps, residual, project, &mut out)?;
                        }
                    }
                }
            }
            JoinStrategy::Loop => {
                for lcomps in &left_rows {
                    for rcomps in &right_rows {
                        self.stats.join_probes += 1;
                        self.tick()?;
                        self.emit(lcomps, rcomps, residual, project, &mut out)?;
                    }
                }
            }
        }
        Ok(out.rows)
    }

    /// Materialise one candidate pair: concatenate the (already flattened)
    /// sides, test the residual, apply the fused projection, intern.
    fn emit(
        &mut self,
        left: &[ValueId],
        right: &[ValueId],
        residual: &[SelFormula],
        project: &Option<Vec<usize>>,
        out: &mut RowSet,
    ) -> Result<(), AlgError> {
        let mut comps = Vec::with_capacity(left.len() + right.len());
        comps.extend_from_slice(left);
        comps.extend_from_slice(right);
        if !residual.is_empty() && !self.passes(residual, &comps)? {
            return Ok(());
        }
        let tid = match project {
            Some(coords) => {
                let selected = select_coords(coords.iter().copied(), &comps)?;
                self.store.intern_tuple(selected)
            }
            None => self.store.intern_tuple(comps),
        };
        self.stats.tuples_materialised += 1;
        self.tick()?;
        out.push(tid);
        Ok(())
    }

    /// The components a value contributes to a product tuple: a tuple
    /// flattens to its components, anything else stands alone (the paper's
    /// definition (6), in id space).
    fn flat(&self, id: ValueId) -> Vec<ValueId> {
        match self.store.tuple_components(id) {
            Some(c) => c.to_vec(),
            None => vec![id],
        }
    }

    /// Flatten every row once and keep the component vectors of the rows
    /// whose components satisfy every conjunct.
    fn prefilter_flat(
        &mut self,
        rows: Vec<ValueId>,
        conjuncts: &[SelFormula],
    ) -> Result<Vec<Vec<ValueId>>, AlgError> {
        let mut out = Vec::with_capacity(rows.len());
        for id in rows {
            let comps = self.flat(id);
            if conjuncts.is_empty() || self.passes(conjuncts, &comps)? {
                out.push(comps);
            }
        }
        Ok(out)
    }

    fn passes(&self, conjuncts: &[SelFormula], comps: &[ValueId]) -> Result<bool, AlgError> {
        sel_passes(&self.store, &self.consts, conjuncts, comps)
    }
}

fn sel_passes(
    store: &ValueStore,
    consts: &HashMap<Atom, ValueId>,
    conjuncts: &[SelFormula],
    comps: &[ValueId],
) -> Result<bool, AlgError> {
    for f in conjuncts {
        if !sel_eval(store, consts, f, comps)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Selection semantics in id space: `=` is id equality, `∈` a sorted
/// probe — mirroring `eval::eval_selection` value for value.
fn sel_eval(
    store: &ValueStore,
    consts: &HashMap<Atom, ValueId>,
    f: &SelFormula,
    comps: &[ValueId],
) -> Result<bool, AlgError> {
    match f {
        SelFormula::Eq(t1, t2) => Ok(sel_term(consts, t1, comps)? == sel_term(consts, t2, comps)?),
        SelFormula::In(t1, t2) => {
            let elem = sel_term(consts, t1, comps)?;
            let container = sel_term(consts, t2, comps)?;
            Ok(store.set_contains(container, elem))
        }
        SelFormula::Not(g) => Ok(!sel_eval(store, consts, g, comps)?),
        SelFormula::And(fs) => {
            for g in fs {
                if !sel_eval(store, consts, g, comps)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        SelFormula::Or(fs) => {
            for g in fs {
                if sel_eval(store, consts, g, comps)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        SelFormula::Implies(a, b) => {
            Ok(!sel_eval(store, consts, a, comps)? || sel_eval(store, consts, b, comps)?)
        }
    }
}

fn sel_term(
    consts: &HashMap<Atom, ValueId>,
    t: &SelTerm,
    comps: &[ValueId],
) -> Result<ValueId, AlgError> {
    match t {
        SelTerm::Const(a) => Ok(*consts
            .get(a)
            .expect("plan constants are interned before execution")),
        SelTerm::Coord(i) => coord(*i, comps),
    }
}

/// Resolve a 1-based coordinate against flattened components.
fn coord(i: usize, comps: &[ValueId]) -> Result<ValueId, AlgError> {
    i.checked_sub(1)
        .and_then(|k| comps.get(k))
        .copied()
        .ok_or(AlgError::BadCoordinate {
            coordinate: i,
            width: comps.len(),
        })
}

/// Select several coordinates at once (projections and join keys).
fn select_coords(
    coords: impl IntoIterator<Item = usize>,
    comps: &[ValueId],
) -> Result<Vec<ValueId>, AlgError> {
    coords.into_iter().map(|c| coord(c, comps)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use crate::AlgExpr;
    use itq_object::{Schema, Type, Value};

    fn schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2)).with("PERSON", Type::Atomic)
    }

    fn db() -> Database {
        Database::single(
            "PAR",
            Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
        )
        .with(
            "PERSON",
            Instance::from_atoms(vec![Atom(0), Atom(1), Atom(2)]),
        )
    }

    fn run(expr: &AlgExpr, config: &EvalConfig) -> Result<(Instance, ExecStats), AlgError> {
        plan(expr, &schema()).unwrap().execute(&db(), config)
    }

    #[test]
    fn grandparent_joins_instead_of_materialising_the_product() {
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let (answer, stats) = run(&expr, &EvalConfig::default()).unwrap();
        assert_eq!(answer, Instance::from_pairs(vec![(Atom(0), Atom(2))]));
        // 2 probes + 1 matching pair, versus the 4 pairs a product walks.
        assert_eq!(stats.join_probes, 3);
        assert_eq!(stats.tuples_materialised, 1);
        assert!(stats.interned_values > 0);
    }

    #[test]
    fn traced_execution_is_identical_and_its_span_tree_mirrors_the_plan() {
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let physical = plan(&expr, &schema()).unwrap();
        let traced = ExecCtx {
            traced: true,
            ..ExecCtx::default()
        };
        let (plain_answer, plain_stats) = physical.execute(&db(), &EvalConfig::default()).unwrap();
        let (answer, stats, trace) = physical
            .execute_ctx(&db(), &EvalConfig::default(), &traced)
            .unwrap();
        let trace = trace.expect("traced runs return a span");
        assert_eq!(answer, plain_answer);
        assert_eq!(stats, plain_stats);
        // One span per operator: the fused hash-join root over two scans.
        assert_eq!(trace.len(), 3);
        assert!(trace.name.starts_with("hash-join"), "{}", trace.name);
        assert_eq!(trace.field("rows_in"), Some(4));
        assert_eq!(trace.field("rows_out"), Some(1));
        assert_eq!(trace.children[0].field("rows_out"), Some(2));
        // Exclusive per-operator counters sum back to the ExecStats totals.
        assert_eq!(trace.subtree_total("join_probes"), stats.join_probes);
        assert_eq!(
            trace.subtree_total("tuples_materialised"),
            stats.tuples_materialised
        );
        // Errors stay byte-identical on the traced path.
        let tiny = EvalConfig { max_instance: 4 };
        let wide = AlgExpr::pred("PERSON").product(AlgExpr::pred("PERSON"));
        let physical = plan(&wide, &schema()).unwrap();
        assert_eq!(
            physical.execute_ctx(&db(), &tiny, &traced).unwrap_err(),
            physical.execute(&db(), &tiny).unwrap_err()
        );
    }

    #[test]
    fn product_budget_error_is_byte_identical_before_any_materialisation() {
        let tiny = EvalConfig { max_instance: 4 };
        let expr = AlgExpr::pred("PERSON")
            .product(AlgExpr::pred("PERSON"))
            .select(SelFormula::coords_eq(1, 2));
        let planned_err = run(&expr, &tiny).unwrap_err();
        let direct_err = expr.eval(&db(), &schema(), &tiny).unwrap_err();
        assert_eq!(planned_err, direct_err);
        assert_eq!(
            planned_err.to_string(),
            "evaluation budget exceeded: product of 3 × 3 objects (limit 4)"
        );
    }

    #[test]
    fn powerset_budget_error_is_byte_identical() {
        let tiny = EvalConfig::tiny();
        let expr = AlgExpr::pred("PERSON")
            .product(AlgExpr::pred("PERSON"))
            .powerset();
        let planned_err = run(&expr, &tiny).unwrap_err();
        let direct_err = expr.eval(&db(), &schema(), &tiny).unwrap_err();
        assert_eq!(planned_err, direct_err);
        assert!(planned_err
            .to_string()
            .contains("powerset of an instance with 9 objects"));
    }

    #[test]
    fn missing_relations_error_like_the_evaluator() {
        let physical = plan(&AlgExpr::pred("PAR"), &schema()).unwrap();
        let empty = Database::empty();
        let err = physical
            .execute(&empty, &EvalConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            AlgError::UnknownPredicate {
                name: "PAR".to_string()
            }
        );
    }

    #[test]
    fn vacuous_selection_over_atoms_keeps_the_runtime_type_error() {
        let expr = AlgExpr::pred("PERSON").select(SelFormula::all(vec![]));
        // The planner now rejects the expression statically, with a located
        // diagnostic naming the operand …
        let plan_err = plan(&expr, &schema()).unwrap_err();
        assert_eq!(
            plan_err.to_string(),
            "type error in selection: non-tuple operand PERSON of type U"
        );
        // … while the tuple-at-a-time ablation backend keeps its runtime
        // error byte-identical to what it always reported.
        let direct = expr
            .eval(&db(), &schema(), &EvalConfig::default())
            .unwrap_err();
        assert_eq!(
            direct.to_string(),
            "type error in selection: non-tuple value a0"
        );
        // An empty operand still succeeds emptily on the runtime path.
        let empty_db = Database::single("PAR", Instance::empty()).with("PERSON", Instance::empty());
        assert!(expr
            .eval(&empty_db, &schema(), &EvalConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn set_operators_and_dedup_work_in_id_space() {
        let flipped = AlgExpr::pred("PAR").project(vec![2, 1]);
        let expr = AlgExpr::pred("PAR")
            .union(flipped.clone())
            .diff(flipped.clone())
            .intersect(AlgExpr::pred("PAR"));
        let (answer, _) = run(&expr, &EvalConfig::default()).unwrap();
        let direct = expr.eval(&db(), &schema(), &EvalConfig::default()).unwrap();
        assert_eq!(answer, direct);
        assert_eq!(answer.len(), 2);
        // Scans are memoized per execution: PAR appears three times above but
        // the interner sees its values once.
        let (_, stats) = run(
            &AlgExpr::pred("PAR").union(AlgExpr::pred("PAR")),
            &EvalConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.tuples_materialised, 0, "unions materialise nothing");
    }

    #[test]
    fn untuple_collapse_powerset_match_the_evaluator() {
        for expr in [
            AlgExpr::pred("PAR").project(vec![1]).untuple(),
            AlgExpr::pred("PAR").powerset(),
            AlgExpr::pred("PAR").powerset().collapse(),
            AlgExpr::pred("PERSON").product(AlgExpr::pred("PAR")),
        ] {
            let (answer, _) = run(&expr, &EvalConfig::default()).unwrap();
            let direct = expr.eval(&db(), &schema(), &EvalConfig::default()).unwrap();
            assert_eq!(answer, direct, "{expr}");
        }
    }

    #[test]
    fn nested_membership_join_matches_the_evaluator() {
        let nested_schema = Schema::single(
            "N",
            Type::tuple(vec![Type::Atomic, Type::set(Type::Atomic)]),
        )
        .with("PERSON", Type::Atomic);
        let contents = Instance::from_values(vec![
            Value::tuple(vec![
                Value::Atom(Atom(0)),
                Value::set(vec![Value::Atom(Atom(0)), Value::Atom(Atom(1))]),
            ]),
            Value::tuple(vec![
                Value::Atom(Atom(2)),
                Value::set(vec![Value::Atom(Atom(1))]),
            ]),
        ]);
        let ndb = Database::single("N", contents).with(
            "PERSON",
            Instance::from_atoms(vec![Atom(0), Atom(1), Atom(2)]),
        );
        // PERSON × N, keeping people who belong to the row's member set.
        let expr = AlgExpr::pred("PERSON")
            .product(AlgExpr::pred("N"))
            .select(SelFormula::In(SelTerm::Coord(1), SelTerm::Coord(3)))
            .project(vec![1, 2]);
        let physical = plan(&expr, &nested_schema).unwrap();
        let (answer, stats) = physical.execute(&ndb, &EvalConfig::default()).unwrap();
        let direct = expr
            .eval(&ndb, &nested_schema, &EvalConfig::default())
            .unwrap();
        assert_eq!(answer, direct);
        assert_eq!(answer.len(), 3);
        // 3 element probes + 3 matching pairs: every pair the index surfaces
        // is a real output, where the 3×2 product scans blind.
        assert_eq!(stats.join_probes, 6, "{stats:?}");
        assert_eq!(stats.tuples_materialised, 3);
    }
}
