//! Set-at-a-time execution of a [`PhysicalPlan`].
//!
//! A plan runs over one of two representations of its relations:
//!
//! * a **flat** plan, one whose every subexpression has type `U` or
//!   `[U, …, U]` (the relational calculus `CALC_{0,0}`), runs over
//!   row-major atom arenas: a relation is a width and one `Vec<Atom>`.  A
//!   scan copies each relation's atoms once, a join probes an Fx-hashed
//!   arena of the right side's keys, filters compare atoms, a projection
//!   writes straight into its output arena, and each operator's output is
//!   deduplicated once, after it is filled;
//! * every other plan, and a flat plan over a relation that holds a value of
//!   another shape than its declared type, runs over interned relations:
//!   every relation is a deduplicated vector of [`ValueId`]s in a
//!   per-execution [`ValueStore`] (the hash-consing arena shared with the
//!   compiled calculus backend), equality is an id comparison, the set
//!   operators are id-set merges and membership is a sorted-slice probe.
//!
//! Either way a join probes a hash index instead of walking the Cartesian
//! product, and the executor mirrors the tuple-at-a-time evaluator
//! *observationally*: identical answers, operands evaluated left-to-right,
//! and byte-identical budget errors — the `Product` budget is checked
//! against the unfiltered operand cardinalities **before** any pair is
//! materialised, even when the product was rewritten into a join, and the
//! `Powerset` budget before any subset is built.
//!
//! Two counters make the set-at-a-time behaviour observable in execution
//! statistics rather than merely asserted: `join_probes` (index probes plus
//! candidate pairs examined) and `tuples_materialised` (objects constructed
//! by plan operators).  Compare `join_probes` with the |A|·|B| the
//! tuple-at-a-time path always pays.  Both representations count the same
//! work units and poll the governor at the same ones, so these counters, the
//! polls and the spans do not depend on the representation.

use crate::error::AlgError;
use crate::eval::EvalConfig;
use crate::expr::{SelFormula, SelTerm};
use crate::plan::{JoinStrategy, PhysNode, PhysicalPlan};
use itq_object::govern::POLL_MASK;
use itq_object::{
    Atom, Database, ExecCtx, ExecStats, Instance, Interrupt, PredName, Type, Value, ValueId,
    ValueStore,
};
use itq_trace::Span;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::time::Instant;

impl PhysicalPlan {
    /// Execute the plan on a database under the given budgets, returning the
    /// answer instance and its [`ExecStats`]: `join_probes`,
    /// `tuples_materialised` (see the module docs) and `interned_values`,
    /// which is 0 on a flat plan; every other counter stays 0.
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
    /// assert_eq!(stats.interned_values, 0, "a flat plan runs over atom rows");
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
    /// memory-ceiling breaches (against a deterministic byte estimate: of the
    /// atom arenas and their indexes on a flat plan, of the interner
    /// otherwise) as [`AlgError::Resource`].  It runs sequentially at any
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
        let meter = Meter {
            stats: ExecStats::default(),
            interrupt: ctx.interrupt,
            ticks: 0,
            trace: ctx.traced.then(Vec::new),
        };
        if let Some(scans) = self.flat_scans().and_then(|scans| load(db, scans)) {
            let mut exec = Flat {
                config,
                scans,
                meter,
                bytes: 0,
            };
            let rows = exec.eval(self.root())?;
            // A plan of fewer than 256 work units never reaches a masked
            // poll, so without this one its arenas would escape the ceiling.
            ctx.interrupt.check(exec.bytes)?;
            let result = rows.into_instance(self.output_type());
            return Ok((result, exec.meter.stats, exec.meter.root()));
        }
        let mut exec = Interned {
            db,
            config,
            store: ValueStore::new(),
            scans: HashMap::new(),
            consts: HashMap::new(),
            meter,
        };
        for atom in self.constants() {
            let id = exec.store.intern_atom(atom);
            exec.consts.insert(atom, id);
        }
        let rows = exec.eval(self.root())?;
        // As above, for the interner.
        ctx.interrupt.check(exec.store.approx_bytes())?;
        let result = Instance::from_values(rows.iter().map(|&id| exec.store.resolve(id)));
        exec.meter.stats.interned_values = exec.store.len() as u64;
        Ok((result, exec.meter.stats, exec.meter.root()))
    }
}

/// What both representations share: the counters, the work units with
/// their masked governor polls, and the spans of a traced run.
struct Meter<'a> {
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

/// Where a traced operator's span began: the counters and the number of
/// completed sibling spans at its entry, and the clock.
struct SpanMark {
    probes: u64,
    materialised: u64,
    siblings: usize,
    start: Instant,
}

impl Meter<'_> {
    /// Count one work unit and poll the governor at the masked cadence,
    /// reporting `bytes`, the representation's deterministic byte estimate,
    /// for the memory ceiling.
    fn tick(&mut self, bytes: u64) -> Result<(), AlgError> {
        self.ticks += 1;
        if self.ticks & POLL_MASK == 0 {
            self.interrupt.check(bytes)?;
        }
        Ok(())
    }

    /// On a traced run, mark the entry of an operator.
    fn open(&self) -> Option<SpanMark> {
        self.trace.as_ref().map(|trace| SpanMark {
            probes: self.stats.join_probes,
            materialised: self.stats.tuples_materialised,
            siblings: trace.len(),
            start: Instant::now(),
        })
    }

    /// Close the span of `node` opened at `mark`.  Children are evaluated
    /// (and their spans pushed) before any operator does its own work, so
    /// the counter deltas attributable to *this* operator are the inclusive
    /// deltas minus the freshly completed child subtrees.
    fn close(&mut self, node: &PhysNode, mark: SpanMark, rows_out: usize) {
        let wall_micros = mark.start.elapsed().as_micros() as u64;
        let (probes, materialised) = (self.stats.join_probes, self.stats.tuples_materialised);
        let trace = self.trace.as_mut().expect("a span opens only when tracing");
        let children = trace.split_off(mark.siblings);
        let total = |field: &str| -> u64 { children.iter().map(|c| c.subtree_total(field)).sum() };
        let rows_in: u64 = children
            .iter()
            .map(|c| c.field("rows_out").unwrap_or(0))
            .sum();
        let mut span = Span::new(node.label());
        span.push_field("rows_in", rows_in);
        span.push_field("rows_out", rows_out as u64);
        span.push_field("join_probes", probes - mark.probes - total("join_probes"));
        span.push_field(
            "tuples_materialised",
            materialised - mark.materialised - total("tuples_materialised"),
        );
        span.wall_micros = wall_micros;
        span.children = children;
        trace.push(span);
    }

    /// The root operator's span of a traced run.
    fn root(self) -> Option<Span> {
        self.trace.and_then(|mut spans| spans.pop())
    }
}

/// The `Product` budget fires on the *unfiltered* operand cardinalities
/// before anything is materialised — byte-identical to the tuple-at-a-time
/// evaluator, which checks |A|·|B| right after evaluating the operands.  A
/// join is a cheaper way to run the product, not a way around its budget.
fn product_budget(left: usize, right: usize, config: &EvalConfig) -> Result<(), AlgError> {
    let expected = (left as u64).saturating_mul(right as u64);
    if expected > config.max_instance {
        return Err(AlgError::Budget {
            what: format!("product of {left} × {right} objects"),
            limit: config.max_instance,
        });
    }
    Ok(())
}

/// Per-execution state of the interned representation: the interner,
/// memoized scans, pre-interned selection constants, and the meter.
struct Interned<'a> {
    db: &'a Database,
    config: &'a EvalConfig,
    store: ValueStore,
    scans: HashMap<String, Vec<ValueId>>,
    consts: HashMap<Atom, ValueId>,
    meter: Meter<'a>,
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

impl Interned<'_> {
    /// Count one work unit, reporting the interner's byte estimate.
    fn tick(&mut self) -> Result<(), AlgError> {
        self.meter.tick(self.store.approx_bytes())
    }

    /// The view selection formulas take of interned components.
    fn ids(&self) -> Ids<'_> {
        Ids {
            store: &self.store,
            consts: &self.consts,
        }
    }

    /// Evaluate one operator, wrapping it in a span when tracing.
    fn eval(&mut self, node: &PhysNode) -> Result<Vec<ValueId>, AlgError> {
        let mark = self.meter.open();
        let rows = self.eval_node(node)?;
        if let Some(mark) = mark {
            self.meter.close(node, mark, rows.len());
        }
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
                    let comps = self.components(id, "selection")?;
                    if sel_passes(&self.ids(), conjuncts, Row::one(comps))? {
                        out.push(id);
                    }
                }
                Ok(out)
            }
            PhysNode::Project { coords, input } => {
                let rows = self.eval(input)?;
                let mut out = RowSet::default();
                for id in rows {
                    let comps = Row::one(self.components(id, "projection")?);
                    let selected = coords
                        .iter()
                        .map(|&c| comps.coord(c))
                        .collect::<Result<_, _>>()?;
                    let tid = self.store.intern_tuple(selected);
                    self.meter.stats.tuples_materialised += 1;
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
            } => {
                let left_all = self.eval(left)?;
                let right_all = self.eval(right)?;
                product_budget(left_all.len(), right_all.len(), self.config)?;
                // Flatten each surviving row exactly once; every later probe,
                // key extraction, and emission works on these components.
                let left_rows = self.prefilter_flat(left_all, left_filter)?;
                let right_rows = self.prefilter_flat(right_all, right_filter)?;
                self.join(&left_rows, &right_rows, strategy, residual, project)
            }
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
                    self.meter.stats.tuples_materialised += 1;
                    self.tick()?;
                }
                Ok(out)
            }
        }
    }

    /// The components of a tuple row, or the type error `operator` reports
    /// for a non-tuple value.
    fn components(&self, id: ValueId, operator: &str) -> Result<&[ValueId], AlgError> {
        self.store
            .tuple_components(id)
            .ok_or_else(|| AlgError::TypeMismatch {
                operator: operator.to_string(),
                detail: format!("non-tuple value {}", self.store.resolve(id)),
            })
    }

    /// Match the prefiltered rows of a join's two sides and emit each
    /// matching pair.
    fn join(
        &mut self,
        left_rows: &[Vec<ValueId>],
        right_rows: &[Vec<ValueId>],
        strategy: &JoinStrategy,
        residual: &[SelFormula],
        project: &Option<Vec<usize>>,
    ) -> Result<Vec<ValueId>, AlgError> {
        let mut out = RowSet::default();
        match strategy {
            JoinStrategy::Hash { keys } => {
                let key = |comps: &[ValueId], side: fn(&(usize, usize)) -> usize| {
                    keys.iter()
                        .map(|k| Row::one(comps).coord(side(k)))
                        .collect::<Result<Vec<ValueId>, _>>()
                };
                let mut index: HashMap<Vec<ValueId>, Vec<usize>> = HashMap::new();
                for (j, comps) in right_rows.iter().enumerate() {
                    index.entry(key(comps, |k| k.1)?).or_default().push(j);
                }
                for lcomps in left_rows {
                    let key = key(lcomps, |k| k.0)?;
                    self.meter.stats.join_probes += 1;
                    self.tick()?;
                    if let Some(matches) = index.get(&key) {
                        for &j in matches {
                            self.meter.stats.join_probes += 1;
                            self.tick()?;
                            self.emit(
                                Row::pair(lcomps, &right_rows[j]),
                                residual,
                                project,
                                &mut out,
                            )?;
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
                    (left_rows, right_rows)
                } else {
                    (right_rows, left_rows)
                };
                let mut index: HashMap<ValueId, Vec<usize>> = HashMap::new();
                for (j, comps) in container_rows.iter().enumerate() {
                    let cid = Row::one(comps).coord(*container)?;
                    // A non-set container holds nothing (`Value::is_member_of`).
                    if let Some(elements) = self.store.set_elements(cid) {
                        for &e in elements {
                            index.entry(e).or_default().push(j);
                        }
                    }
                }
                for ecomps in elem_rows {
                    let eid = Row::one(ecomps).coord(*elem)?;
                    self.meter.stats.join_probes += 1;
                    self.tick()?;
                    if let Some(matches) = index.get(&eid) {
                        for &j in matches {
                            self.meter.stats.join_probes += 1;
                            self.tick()?;
                            let pair = if *elem_on_left {
                                Row::pair(ecomps, &container_rows[j])
                            } else {
                                Row::pair(&container_rows[j], ecomps)
                            };
                            self.emit(pair, residual, project, &mut out)?;
                        }
                    }
                }
            }
            JoinStrategy::Loop => {
                for lcomps in left_rows {
                    for rcomps in right_rows {
                        self.meter.stats.join_probes += 1;
                        self.tick()?;
                        self.emit(Row::pair(lcomps, rcomps), residual, project, &mut out)?;
                    }
                }
            }
        }
        Ok(out.rows)
    }

    /// Materialise one candidate pair: test the residual, apply the fused
    /// projection, intern.
    fn emit(
        &mut self,
        pair: Row<'_, ValueId>,
        residual: &[SelFormula],
        project: &Option<Vec<usize>>,
        out: &mut RowSet,
    ) -> Result<(), AlgError> {
        if !residual.is_empty() && !sel_passes(&self.ids(), residual, pair)? {
            return Ok(());
        }
        let comps = match project {
            Some(coords) => coords
                .iter()
                .map(|&c| pair.coord(c))
                .collect::<Result<_, _>>()?,
            None => [pair.left, pair.right].concat(),
        };
        let tid = self.store.intern_tuple(comps);
        self.meter.stats.tuples_materialised += 1;
        self.tick()?;
        out.push(tid);
        Ok(())
    }

    /// Flatten every row once — a tuple contributes its components, anything
    /// else stands alone (the paper's definition (6), in id space) — and keep
    /// the component vectors of the rows whose components satisfy every
    /// conjunct.
    fn prefilter_flat(
        &mut self,
        rows: Vec<ValueId>,
        conjuncts: &[SelFormula],
    ) -> Result<Vec<Vec<ValueId>>, AlgError> {
        let mut out = Vec::with_capacity(rows.len());
        for id in rows {
            let comps = match self.store.tuple_components(id) {
                Some(c) => c.to_vec(),
                None => vec![id],
            };
            if conjuncts.is_empty() || sel_passes(&self.ids(), conjuncts, Row::one(&comps))? {
                out.push(comps);
            }
        }
        Ok(out)
    }
}

/// A relation of a flat plan: `width` atoms per row, row after row.
#[derive(Clone)]
struct Rows {
    width: usize,
    atoms: Vec<Atom>,
}

/// Bytes the flat representation counts per atom of an arena and per slot
/// of an index: a fixed figure, so memory-ceiling trips are reproducible
/// across runs and machines.
const SLOT_BYTES: u64 = 4;

impl Rows {
    fn new(width: usize) -> Rows {
        Rows {
            width,
            atoms: Vec::new(),
        }
    }

    /// Copy a relation's atoms, or `None` when one of its values does not
    /// have the flat type `ty`.
    fn load(instance: &Instance, ty: &Type) -> Option<Rows> {
        let width = match ty {
            Type::Tuple(components) => components.len(),
            _ => 1,
        };
        let mut rows = Rows::new(width);
        rows.atoms.reserve(instance.len() * width);
        for value in instance.iter() {
            match (value, ty) {
                (Value::Atom(a), Type::Atomic) => rows.atoms.push(*a),
                (Value::Tuple(components), Type::Tuple(_)) if components.len() == width => {
                    for component in components {
                        rows.atoms.push(component.as_atom()?);
                    }
                }
                _ => return None,
            }
        }
        Some(rows)
    }

    fn len(&self) -> usize {
        self.atoms.len() / self.width
    }

    fn bytes(&self) -> u64 {
        SLOT_BYTES * self.atoms.len() as u64
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, Atom> {
        self.atoms.chunks_exact(self.width)
    }

    fn row(&self, at: usize) -> &[Atom] {
        &self.atoms[at * self.width..(at + 1) * self.width]
    }

    /// Keep the rows `keep` accepts, in place.
    fn retain(
        &mut self,
        mut keep: impl FnMut(&[Atom]) -> Result<bool, AlgError>,
    ) -> Result<(), AlgError> {
        let width = self.width;
        let mut kept = 0;
        for at in (0..self.atoms.len()).step_by(width) {
            if keep(&self.atoms[at..at + width])? {
                self.atoms.copy_within(at..at + width, kept);
                kept += width;
            }
        }
        self.atoms.truncate(kept);
        Ok(())
    }

    /// The answer: atoms when the plan's output type is `U`, flat tuples
    /// otherwise.
    fn into_instance(self, ty: &Type) -> Instance {
        // Rows in order let the answer set build in one pass.
        let mut rows: Vec<&[Atom]> = self.iter().collect();
        rows.sort_unstable();
        let value = |row: &[Atom]| match ty {
            Type::Atomic => Value::Atom(row[0]),
            _ => Value::atom_tuple(row.iter().copied()),
        };
        Instance::from_values(rows.into_iter().map(value))
    }
}

/// Copy each relation a flat plan scans into an arena; a relation the
/// database lacks is `None`, and fails at its scan.  `None` overall when a
/// relation holds a value of another shape than its declared type, which
/// only the library API can build: the plan then runs on the interner.
fn load<'a>(
    db: &'a Database,
    scans: &'a [(PredName, Type)],
) -> Option<Vec<(&'a str, Option<Rows>)>> {
    scans
        .iter()
        .map(|(pred, ty)| match db.relation(pred) {
            Some(instance) => Rows::load(instance, ty).map(|rows| (pred.as_str(), Some(rows))),
            None => Some((pred.as_str(), None)),
        })
        .collect()
}

/// The multiplier of the Fx hash (rotate, xor, multiply): keys are atom ids,
/// which it spreads well at a few cycles per atom.
const FX: u64 = 0x517c_c1b7_2722_0a95;

/// No entry: the end of a bucket chain.
const EMPTY: u32 = u32::MAX;

/// A hash index over keys of `width` atoms: the keys in one arena, in entry
/// order, a head per bucket, and a `next` chain through the entries of each
/// bucket.
struct Index {
    width: usize,
    keys: Vec<Atom>,
    heads: Vec<u32>,
    next: Vec<u32>,
    /// `64 - log2(heads.len())`: a hash's top bits pick its bucket.
    shift: u32,
    /// The hash's random starting state.  A client can choose atom ids
    /// through the raw `a<id>` spelling, so a fixed state would let it pile
    /// its keys into one chain; no answer, counter or span depends on the
    /// bucket order.
    seed: u64,
}

impl Index {
    /// An empty index sized for `entries` keys, at most half as many as
    /// buckets.
    fn with_capacity(width: usize, entries: usize) -> Index {
        let buckets = (entries.max(1) * 2).next_power_of_two();
        Index {
            width,
            keys: Vec::with_capacity(entries * width),
            heads: vec![EMPTY; buckets],
            next: Vec::with_capacity(entries),
            shift: 64 - buckets.trailing_zeros(),
            seed: RandomState::new().build_hasher().finish(),
        }
    }

    /// The index of `rows`' distinct rows, whose keys are the rows.
    fn distinct(rows: &Rows) -> Index {
        let mut index = Index::with_capacity(rows.width, rows.len());
        for row in rows.iter() {
            if index.matches(row.iter().copied()).next().is_none() {
                index.push(row.iter().copied());
            }
        }
        index
    }

    fn bucket(&self, key: impl Iterator<Item = Atom>) -> usize {
        let hash = key.fold(self.seed, |h, a| {
            (h.rotate_left(5) ^ u64::from(a.0)).wrapping_mul(FX)
        });
        (hash >> self.shift) as usize
    }

    /// Add `key` as the next entry.
    fn push(&mut self, key: impl Iterator<Item = Atom> + Clone) {
        let bucket = self.bucket(key.clone());
        let entry = u32::try_from(self.next.len()).expect("index overflow");
        self.keys.extend(key);
        self.next.push(self.heads[bucket]);
        self.heads[bucket] = entry;
    }

    /// The entries whose key equals `key`, latest first.
    fn matches<'i, K>(&'i self, key: K) -> impl Iterator<Item = usize> + 'i
    where
        K: Iterator<Item = Atom> + Clone + 'i,
    {
        let mut at = self.heads[self.bucket(key.clone())];
        std::iter::from_fn(move || {
            while at != EMPTY {
                let entry = at as usize;
                at = self.next[entry];
                let stored = &self.keys[entry * self.width..(entry + 1) * self.width];
                if stored.iter().copied().eq(key.clone()) {
                    return Some(entry);
                }
            }
            None
        })
    }

    fn bytes(&self) -> u64 {
        SLOT_BYTES * (self.keys.len() + self.heads.len() + self.next.len()) as u64
    }
}

/// Per-execution state of the flat representation: the relations the plan
/// scans, already in arenas, the meter, and the bytes reported to the
/// memory ceiling.
struct Flat<'a> {
    config: &'a EvalConfig,
    scans: Vec<(&'a str, Option<Rows>)>,
    meter: Meter<'a>,
    /// Bytes of every operator output and index built so far, counted at
    /// [`SLOT_BYTES`] per atom or slot; an operator filling its output
    /// reports that arena on top.
    bytes: u64,
}

impl Flat<'_> {
    /// Evaluate one operator, wrapping it in a span when tracing, and count
    /// its output arena.
    fn eval(&mut self, node: &PhysNode) -> Result<Rows, AlgError> {
        let mark = self.meter.open();
        let rows = self.eval_node(node)?;
        if let Some(mark) = mark {
            self.meter.close(node, mark, rows.len());
        }
        self.bytes += rows.bytes();
        Ok(rows)
    }

    /// Evaluate one operator to its deduplicated rows, ticking exactly where
    /// the interned representation does.
    fn eval_node(&mut self, node: &PhysNode) -> Result<Rows, AlgError> {
        self.meter.tick(self.bytes)?;
        match node {
            PhysNode::Scan { pred } => {
                let (_, rows) = self
                    .scans
                    .iter()
                    .find(|(name, _)| name == pred)
                    .expect("a flat plan loads every relation it scans");
                rows.clone()
                    .ok_or_else(|| AlgError::UnknownPredicate { name: pred.clone() })
            }
            PhysNode::Singleton { atom } => Ok(Rows {
                width: 1,
                atoms: vec![*atom],
            }),
            PhysNode::Union(a, b) => {
                let mut rows = self.eval(a)?;
                rows.atoms.extend_from_slice(&self.eval(b)?.atoms);
                Ok(self.dedup(rows))
            }
            PhysNode::Intersect(a, b) | PhysNode::Diff(a, b) => {
                let keep = matches!(node, PhysNode::Intersect(..));
                let mut rows = self.eval(a)?;
                let other = Index::distinct(&self.eval(b)?);
                self.bytes += other.bytes();
                rows.retain(|row| Ok(other.matches(row.iter().copied()).next().is_some() == keep))?;
                Ok(rows)
            }
            PhysNode::Filter { conjuncts, input } => {
                let mut rows = self.eval(input)?;
                let (meter, bytes) = (&mut self.meter, self.bytes);
                rows.retain(|row| {
                    meter.tick(bytes)?;
                    sel_passes(&Atoms, conjuncts, Row::one(row))
                })?;
                Ok(rows)
            }
            PhysNode::Project { coords, input } => {
                let rows = self.eval(input)?;
                let mut out = Rows::new(coords.len());
                out.atoms.reserve(rows.len() * coords.len());
                for row in rows.iter() {
                    let row = Row::one(row);
                    for &c in coords {
                        out.atoms.push(row.coord(c)?);
                    }
                    self.meter.stats.tuples_materialised += 1;
                    self.meter.tick(self.bytes + out.bytes())?;
                }
                Ok(self.dedup(out))
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
            } => {
                let mut left_rows = self.eval(left)?;
                let mut right_rows = self.eval(right)?;
                product_budget(left_rows.len(), right_rows.len(), self.config)?;
                for (rows, conjuncts) in [
                    (&mut left_rows, left_filter),
                    (&mut right_rows, right_filter),
                ] {
                    if !conjuncts.is_empty() {
                        rows.retain(|row| sel_passes(&Atoms, conjuncts, Row::one(row)))?;
                    }
                }
                let out = self.join(&left_rows, &right_rows, strategy, residual, project)?;
                // Distinct pairs concatenate to distinct rows; only a fused
                // projection can repeat one.
                Ok(if project.is_some() {
                    self.dedup(out)
                } else {
                    out
                })
            }
            // `[U]` and `U` rows share one arena layout.
            PhysNode::Untuple { input } => self.eval(input),
            PhysNode::Collapse { .. } | PhysNode::Powerset { .. } => {
                unreachable!("a flat plan has no set-typed operand or output")
            }
        }
    }

    /// Deduplicate a filled arena once, counting the index that does it.
    fn dedup(&mut self, rows: Rows) -> Rows {
        let index = Index::distinct(&rows);
        self.bytes += rows.bytes() + index.bytes();
        Rows {
            width: rows.width,
            atoms: index.keys,
        }
    }

    /// Match the filtered rows of a join's two sides and emit each matching
    /// pair, read in place: the probe and emit loops allocate nothing per
    /// row beyond the output arena's growth.
    fn join(
        &mut self,
        left_rows: &Rows,
        right_rows: &Rows,
        strategy: &JoinStrategy,
        residual: &[SelFormula],
        project: &Option<Vec<usize>>,
    ) -> Result<Rows, AlgError> {
        let width = project
            .as_ref()
            .map_or(left_rows.width + right_rows.width, Vec::len);
        let mut out = Rows::new(width);
        match strategy {
            JoinStrategy::Hash { keys } => {
                let (left_keys, right_keys): (Vec<usize>, Vec<usize>) =
                    keys.iter().map(|&(l, r)| (l - 1, r - 1)).unzip();
                let mut index = Index::with_capacity(keys.len(), right_rows.len());
                for row in right_rows.iter() {
                    index.push(right_keys.iter().map(|&c| row[c]));
                }
                self.bytes += index.bytes();
                for left in left_rows.iter() {
                    self.meter.stats.join_probes += 1;
                    self.meter.tick(self.bytes + out.bytes())?;
                    for j in index.matches(left_keys.iter().map(|&c| left[c])) {
                        self.meter.stats.join_probes += 1;
                        self.meter.tick(self.bytes + out.bytes())?;
                        self.emit(
                            Row::pair(left, right_rows.row(j)),
                            residual,
                            project,
                            &mut out,
                        )?;
                    }
                }
            }
            JoinStrategy::Loop => {
                for left in left_rows.iter() {
                    for right in right_rows.iter() {
                        self.meter.stats.join_probes += 1;
                        self.meter.tick(self.bytes + out.bytes())?;
                        self.emit(Row::pair(left, right), residual, project, &mut out)?;
                    }
                }
            }
            JoinStrategy::Member { .. } => {
                unreachable!("a flat plan has no set-typed container")
            }
        }
        Ok(out)
    }

    /// Materialise one candidate pair: test the residual, then write the
    /// fused projection, or the concatenation, into the output arena.
    fn emit(
        &mut self,
        pair: Row<'_, Atom>,
        residual: &[SelFormula],
        project: &Option<Vec<usize>>,
        out: &mut Rows,
    ) -> Result<(), AlgError> {
        if !residual.is_empty() && !sel_passes(&Atoms, residual, pair)? {
            return Ok(());
        }
        match project {
            Some(coords) => {
                for &c in coords {
                    out.atoms.push(pair.coord(c)?);
                }
            }
            None => {
                out.atoms.extend_from_slice(pair.left);
                out.atoms.extend_from_slice(pair.right);
            }
        }
        self.meter.stats.tuples_materialised += 1;
        self.meter.tick(self.bytes + out.bytes())
    }
}

/// A row as selections, keys and projections read it: the concatenation of
/// `left` and `right`, so a join's candidate pair is read in place.
#[derive(Clone, Copy)]
struct Row<'r, T> {
    left: &'r [T],
    right: &'r [T],
}

impl<'r, T: Copy> Row<'r, T> {
    fn one(components: &'r [T]) -> Self {
        Row {
            left: components,
            right: &[],
        }
    }

    fn pair(left: &'r [T], right: &'r [T]) -> Self {
        Row { left, right }
    }

    /// The 1-based coordinate `i`.
    fn coord(&self, i: usize) -> Result<T, AlgError> {
        let k = i.wrapping_sub(1);
        let found = match self.left.get(k) {
            Some(&c) => Some(c),
            None => k
                .checked_sub(self.left.len())
                .and_then(|k| self.right.get(k).copied()),
        };
        found.ok_or(AlgError::BadCoordinate {
            coordinate: i,
            width: self.left.len() + self.right.len(),
        })
    }
}

/// How selection formulas read one representation's components.
trait Components {
    type Id: Copy + Eq;

    /// A selection constant as a component.
    fn constant(&self, atom: Atom) -> Self::Id;

    /// `elem ∈ container`: false when `container` is not a set, mirroring
    /// [`Value::is_member_of`].
    fn member(&self, elem: Self::Id, container: Self::Id) -> bool;
}

/// Interned components: constants are interned before execution.
struct Ids<'s> {
    store: &'s ValueStore,
    consts: &'s HashMap<Atom, ValueId>,
}

impl Components for Ids<'_> {
    type Id = ValueId;

    fn constant(&self, atom: Atom) -> ValueId {
        *self
            .consts
            .get(&atom)
            .expect("plan constants are interned before execution")
    }

    fn member(&self, elem: ValueId, container: ValueId) -> bool {
        self.store.set_contains(container, elem)
    }
}

/// Atom components: a constant is its atom, and an atom is no set.
struct Atoms;

impl Components for Atoms {
    type Id = Atom;

    fn constant(&self, atom: Atom) -> Atom {
        atom
    }

    fn member(&self, _: Atom, _: Atom) -> bool {
        false
    }
}

fn sel_passes<C: Components>(
    space: &C,
    conjuncts: &[SelFormula],
    row: Row<'_, C::Id>,
) -> Result<bool, AlgError> {
    for f in conjuncts {
        if !sel_eval(space, f, row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Selection semantics over components: `=` is component equality, `∈` the
/// representation's membership — mirroring `eval::eval_selection` value for
/// value.
fn sel_eval<C: Components>(
    space: &C,
    f: &SelFormula,
    row: Row<'_, C::Id>,
) -> Result<bool, AlgError> {
    let term = |t: &SelTerm| match t {
        SelTerm::Const(a) => Ok(space.constant(*a)),
        SelTerm::Coord(i) => row.coord(*i),
    };
    match f {
        SelFormula::Eq(t1, t2) => Ok(term(t1)? == term(t2)?),
        SelFormula::In(t1, t2) => {
            let elem = term(t1)?;
            Ok(space.member(elem, term(t2)?))
        }
        SelFormula::Not(g) => Ok(!sel_eval(space, g, row)?),
        SelFormula::And(fs) => sel_passes(space, fs, row),
        SelFormula::Or(fs) => {
            for g in fs {
                if sel_eval(space, g, row)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        SelFormula::Implies(a, b) => Ok(!sel_eval(space, a, row)? || sel_eval(space, b, row)?),
    }
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
        // A flat plan runs over atom rows, without the interner.
        assert_eq!(stats.interned_values, 0);
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

    /// Only the library API can hand a plan a relation that holds values of
    /// another shape than its declared type.  A flat plan then runs on the
    /// interner, so its answer or error and its counters are the ones the
    /// interned executor has always produced (recorded here).
    #[test]
    fn ill_shaped_relations_keep_the_interned_answers_and_counters() {
        use itq_object::govern::TripKind;
        let grandparent = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let plans = [
            grandparent,
            AlgExpr::pred("PAR").union(AlgExpr::pred("PAR").project(vec![2, 1])),
            AlgExpr::pred("PAR").select(SelFormula::coord_is(1, Atom(0))),
            AlgExpr::pred("PAR").project(vec![2]).untuple(),
            AlgExpr::pred("PAR").product(AlgExpr::pred("PERSON")),
        ];
        let strays = [
            Value::Atom(Atom(5)),
            Value::atom_tuple([Atom(0), Atom(1), Atom(2)]),
        ];
        let mut seen = Vec::new();
        for stray in &strays {
            let mut par = Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
            par.insert(stray.clone());
            let db = db().with("PAR", par);
            for expr in &plans {
                let physical = plan(expr, &schema()).unwrap();
                let observer = Interrupt::new().with_trip_after(u64::MAX, TripKind::Cancel);
                let ctx = ExecCtx {
                    interrupt: &observer,
                    ..ExecCtx::default()
                };
                let outcome = physical.execute_ctx(&db, &EvalConfig::default(), &ctx);
                let line = match outcome {
                    Ok((answer, stats, _)) => format!(
                        "{answer:?} {} {} {} {}",
                        stats.join_probes,
                        stats.tuples_materialised,
                        stats.interned_values,
                        observer.polls()
                    ),
                    Err(err) => format!("error: {err} {}", observer.polls()),
                };
                seen.push(line);
            }
        }
        // Answer or error, then `join_probes`, `tuples_materialised`,
        // `interned_values` and the governor's polls.
        let expected = [
            "error: coordinate 2 out of range for width 1 1",
            "error: type error in projection: non-tuple value a5 1",
            "error: type error in selection: non-tuple value a5 1",
            "error: type error in projection: non-tuple value a5 1",
            "{[a0, a1, a0], [a0, a1, a1], [a0, a1, a2], [a1, a2, a0], [a1, a2, a1], \
             [a1, a2, a2], [a5, a0], [a5, a1], [a5, a2]} 9 9 15 2",
            "{[a0, a1], [a0, a2]} 5 2 7 2",
            "{[a0, a1], [a0, a1, a2], [a1, a0], [a1, a2], [a2, a1]} 0 3 8 2",
            "{[a0, a1], [a0, a1, a2]} 0 0 6 2",
            "{a1, a2} 0 3 8 2",
            "{[a0, a1, a0], [a0, a1, a1], [a0, a1, a2], [a0, a1, a2, a0], [a0, a1, a2, a1], \
             [a0, a1, a2, a2], [a1, a2, a0], [a1, a2, a1], [a1, a2, a2]} 9 9 14 2",
        ];
        assert_eq!(seen, expected);
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
        // Set-typed plans keep the interner: this member join and 𝒫(PAR).
        let (_, powerset) = run(&AlgExpr::pred("PAR").powerset(), &EvalConfig::default()).unwrap();
        assert!(stats.interned_values > 0 && powerset.interned_values > 0);
    }
}
