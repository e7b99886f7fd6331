//! Set-at-a-time execution of a [`PhysicalPlan`].
//!
//! Every plan runs over row-major arenas: a relation is a width and one
//! vector of cells, row after row.  A row holds a tuple's components, or one
//! cell for any other value; tuple types never nest, so `[T]` and `T` share
//! a row and `μ` is the identity on rows.  On a *flat* plan, one whose every
//! subexpression has type `U` or `[U, …, U]` (the relational calculus
//! `CALC_{0,0}`), a cell is an atom and nothing is interned.  On any other
//! plan a cell is a [`ValueId`] of a per-execution [`ValueStore`] (the
//! hash-consing arena shared with the compiled calculus backend), where the
//! atoms are interned too, so either way equality is a cell comparison.
//!
//! Each scanned relation is copied once, before the first operator, and
//! every value is checked against the relation's declared type as it is
//! copied: a query is defined on the inputs of its type, so the first value
//! of another type is refused at its scan, as the [`Nonconforming`] error
//! that every other handle, mutation and declaration refuses it with.  A
//! join probes an Fx-hashed arena of the right side's keys, or, for a
//! cross-operand `∈`, an index of the container sets' elements; filters
//! compare cells; a projection writes straight into its output arena; and
//! each operator's output is deduplicated once, after it is filled.  Only `𝒫`, `𝒞`, the member join, `∈`, the plan's atoms and
//! the answer's construction read the interner.
//!
//! On the inputs of its type the executor mirrors the tuple-at-a-time
//! evaluator *observationally*: identical answers, operands evaluated
//! left-to-right, and byte-identical budget errors — the `Product` budget is
//! checked against the unfiltered operand cardinalities **before** any pair
//! is materialised, even when the product was rewritten into a join, and
//! the `Powerset` budget before any subset is built.
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
use crate::typing::product_width;
use itq_object::govern::POLL_MASK;
use itq_object::{
    Atom, Database, ExecCtx, ExecStats, Instance, Interrupt, Nonconforming, Type, Value, ValueId,
    ValueStore,
};
use itq_trace::Span;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
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
    /// memory-ceiling breaches (against a deterministic byte estimate of the
    /// arenas and their indexes, plus the interner on a plan that is not
    /// flat) as [`AlgError::Resource`].  It runs sequentially at any
    /// `ctx.workers`: partitioning the hash-join probe did not beat the
    /// sequential probe on the measured joins.
    ///
    /// A relation holding a value of another type than the one the plan was
    /// typed with is refused at its scan, in scan order, as
    /// [`AlgError::Object`] holding [`Nonconforming`]: no operator runs on
    /// it.
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
        let mut interner = Interner::default();
        if self.flat {
            return self.run::<Atom>(db, config, ctx, interner);
        }
        for atom in self.constants() {
            let id = interner.store.intern_atom(atom);
            interner.named.insert(atom, id);
        }
        self.run::<ValueId>(db, config, ctx, interner)
    }

    /// Load the scanned relations into arenas of `C` cells, then run the
    /// plan over them.
    fn run<C: Cell>(
        &self,
        db: &Database,
        config: &EvalConfig,
        ctx: &ExecCtx,
        mut interner: Interner,
    ) -> Result<(Instance, ExecStats, Option<Span>), AlgError> {
        let scans = self
            .scans
            .iter()
            .map(|(pred, ty)| (pred.as_str(), load::<C>(db, pred, ty, &mut interner.store)))
            .collect();
        let mut exec = Exec {
            config,
            scans,
            interner,
            meter: Meter {
                stats: ExecStats::default(),
                interrupt: ctx.interrupt,
                ticks: 0,
                trace: ctx.traced.then(Vec::new),
            },
            bytes: 0,
        };
        let rows = exec.eval(self.root())?;
        // A plan of fewer than 256 work units never reaches a masked poll,
        // so without this one its arenas would escape the ceiling.
        let store = &exec.interner.store;
        ctx.interrupt.check(exec.bytes + store.approx_bytes())?;
        let result = rows.into_instance(self.output_type(), store);
        exec.meter.stats.interned_values = store.len() as u64;
        Ok((result, exec.meter.stats, exec.meter.root()))
    }
}

/// The counters, the work units with their masked governor polls, and the
/// spans of a traced run.
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
    /// reporting `bytes()`, the execution's deterministic byte estimate, for
    /// the memory ceiling; the estimate is only taken at a poll.
    fn tick(&mut self, bytes: impl FnOnce() -> u64) -> Result<(), AlgError> {
        self.ticks += 1;
        if self.ticks & POLL_MASK == 0 {
            self.interrupt.check(bytes())?;
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

/// The execution's interner: empty on a flat plan, else every cell, and the
/// atoms the plan names, interned before the first operator.
#[derive(Default)]
struct Interner {
    store: ValueStore,
    named: HashMap<Atom, ValueId>,
}

/// What a row's cells hold: an [`Atom`] on a flat plan, a [`ValueId`] of the
/// execution's interner on any other.
trait Cell: Copy + Ord + Hash {
    /// The cell of `value`, a component of a scanned row, or `None` when it
    /// is not of type `ty`.
    fn load(value: &Value, ty: &Type, store: &mut ValueStore) -> Option<Self>;

    /// The cell of an atom the plan names.
    fn named(atom: Atom, interner: &Interner) -> Self;

    /// A cell as an interned value, and back, for the set-typed operators.
    fn from_id(id: ValueId) -> Self;
    fn id(self) -> ValueId;

    /// The value a cell holds, for the answer.
    fn value(self, store: &ValueStore) -> Value;
}

impl Cell for Atom {
    fn load(value: &Value, ty: &Type, _: &mut ValueStore) -> Option<Atom> {
        value.as_atom().filter(|_| *ty == Type::Atomic)
    }

    fn named(atom: Atom, _: &Interner) -> Atom {
        atom
    }

    fn from_id(_: ValueId) -> Atom {
        unreachable!("a flat plan has no set-typed operand or output")
    }

    fn id(self) -> ValueId {
        unreachable!("a flat plan has no set-typed operand or output")
    }

    fn value(self, _: &ValueStore) -> Value {
        Value::Atom(self)
    }
}

impl Cell for ValueId {
    fn load(value: &Value, ty: &Type, store: &mut ValueStore) -> Option<ValueId> {
        value.has_type(ty).then(|| store.intern(value))
    }

    fn named(atom: Atom, interner: &Interner) -> ValueId {
        interner.named[&atom]
    }

    fn from_id(id: ValueId) -> ValueId {
        id
    }

    fn id(self) -> ValueId {
        self
    }

    fn value(self, store: &ValueStore) -> Value {
        store.resolve(self)
    }
}

/// A relation: `width` cells per row, row after row.
#[derive(Clone)]
struct Rows<C> {
    width: usize,
    cells: Vec<C>,
}

/// Bytes counted per cell of an arena and per slot of an index: a fixed
/// figure, so memory-ceiling trips are reproducible across runs and
/// machines.
const SLOT_BYTES: u64 = 4;

impl<C: Cell> Rows<C> {
    fn new(width: usize) -> Rows<C> {
        Rows {
            width,
            cells: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.cells.len() / self.width
    }

    fn bytes(&self) -> u64 {
        SLOT_BYTES * self.cells.len() as u64
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, C> {
        self.cells.chunks_exact(self.width)
    }

    fn row(&self, at: usize) -> &[C] {
        &self.cells[at * self.width..(at + 1) * self.width]
    }

    /// Keep the rows `keep` accepts, in place.
    fn retain(
        &mut self,
        mut keep: impl FnMut(&[C]) -> Result<bool, AlgError>,
    ) -> Result<(), AlgError> {
        let width = self.width;
        let mut kept = 0;
        for at in (0..self.cells.len()).step_by(width) {
            if keep(&self.cells[at..at + width])? {
                self.cells.copy_within(at..at + width, kept);
                kept += width;
            }
        }
        self.cells.truncate(kept);
        Ok(())
    }

    /// The answer: a tuple of the row's values when the plan's output type
    /// is a tuple type, the row's one value otherwise.
    fn into_instance(self, ty: &Type, store: &ValueStore) -> Instance {
        // Atom rows in order let the answer set build in one pass.
        let mut rows: Vec<&[C]> = self.iter().collect();
        rows.sort_unstable();
        let value = |row: &[C]| match ty {
            Type::Tuple(_) => Value::Tuple(row.iter().map(|c| c.value(store)).collect()),
            _ => row[0].value(store),
        };
        Instance::from_values(rows.into_iter().map(value))
    }
}

/// Copy the relation `pred` of the declared type `ty` into an arena, or
/// return the error its scan reports: the database lacks it, or it holds a
/// value of another type.
fn load<C: Cell>(
    db: &Database,
    pred: &str,
    ty: &Type,
    store: &mut ValueStore,
) -> Result<Rows<C>, AlgError> {
    let Some(instance) = db.relation(pred) else {
        return Err(AlgError::UnknownPredicate { name: pred.into() });
    };
    let refusal = |value| AlgError::Object(Nonconforming::new(pred, ty, value).into());
    let mut rows = Rows::new(product_width(ty));
    rows.cells.reserve(instance.len() * rows.width);
    for value in instance.iter() {
        let (components, types) = match (value, ty) {
            (Value::Tuple(vs), Type::Tuple(ts)) if vs.len() == ts.len() => (&vs[..], &ts[..]),
            _ => (std::slice::from_ref(value), std::slice::from_ref(ty)),
        };
        for (component, ty) in components.iter().zip(types) {
            rows.cells
                .push(C::load(component, ty, store).ok_or_else(|| refusal(value))?);
        }
    }
    Ok(rows)
}

/// The multiplier of the Fx hash (rotate, xor, multiply): a cell is one
/// `u32`, which it spreads well at a few cycles per cell.
const FX: u64 = 0x517c_c1b7_2722_0a95;

struct Fx(u64);

impl Hasher for Fx {
    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(FX);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.write_u32(byte.into()));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// No entry: the end of a bucket chain.
const EMPTY: u32 = u32::MAX;

/// A hash index over keys of `width` cells: the keys in one arena, in entry
/// order, a head per bucket, and a `next` chain through the entries of each
/// bucket.
struct Index<C> {
    width: usize,
    keys: Vec<C>,
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

impl<C: Cell> Index<C> {
    /// An empty index sized for `entries` keys, at most half as many as
    /// buckets.
    fn with_capacity(width: usize, entries: usize) -> Index<C> {
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
    fn distinct(rows: &Rows<C>) -> Index<C> {
        let mut index = Index::with_capacity(rows.width, rows.len());
        for row in rows.iter() {
            if index.matches(row.iter().copied()).next().is_none() {
                index.push(row.iter().copied());
            }
        }
        index
    }

    fn bucket(&self, key: impl Iterator<Item = C>) -> usize {
        let mut hash = Fx(self.seed);
        key.for_each(|cell| cell.hash(&mut hash));
        (hash.finish() >> self.shift) as usize
    }

    /// Add `key` as the next entry.
    fn push(&mut self, key: impl Iterator<Item = C> + Clone) {
        let bucket = self.bucket(key.clone());
        let entry = u32::try_from(self.next.len()).expect("index overflow");
        self.keys.extend(key);
        self.next.push(self.heads[bucket]);
        self.heads[bucket] = entry;
    }

    /// The entries whose key equals `key`, latest first.
    fn matches<'i, K>(&'i self, key: K) -> impl Iterator<Item = usize> + 'i
    where
        K: Iterator<Item = C> + Clone + 'i,
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

/// Per-execution state: the scanned relations in arenas (or the error their
/// scan reports), the interner, the meter, and the arenas' bytes.
struct Exec<'a, C> {
    config: &'a EvalConfig,
    scans: Vec<(&'a str, Result<Rows<C>, AlgError>)>,
    interner: Interner,
    meter: Meter<'a>,
    /// Bytes of every operator output and index built so far, at
    /// [`SLOT_BYTES`] per cell or slot.
    bytes: u64,
}

impl<C: Cell> Exec<'_, C> {
    /// Count one work unit, reporting `out` bytes, an output arena being
    /// filled, on top of what the execution holds.
    fn tick(&mut self, out: u64) -> Result<(), AlgError> {
        let (bytes, store) = (self.bytes, &self.interner.store);
        self.meter.tick(|| bytes + out + store.approx_bytes())
    }

    /// Evaluate one operator, wrapping it in a span when tracing, and count
    /// its output arena.
    fn eval(&mut self, node: &PhysNode) -> Result<Rows<C>, AlgError> {
        let mark = self.meter.open();
        let rows = self.eval_node(node)?;
        if let Some(mark) = mark {
            self.meter.close(node, mark, rows.len());
        }
        self.bytes += rows.bytes();
        Ok(rows)
    }

    /// Evaluate one operator to its deduplicated rows.  Operands are
    /// evaluated left-to-right, depth-first — the same order the
    /// tuple-at-a-time evaluator visits subexpressions, so the first budget,
    /// missing-relation or scan error is the same one it would meet first.
    fn eval_node(&mut self, node: &PhysNode) -> Result<Rows<C>, AlgError> {
        self.tick(0)?;
        match node {
            PhysNode::Scan { pred } => {
                let (_, rows) = self
                    .scans
                    .iter()
                    .find(|(name, _)| name == pred)
                    .expect("a plan loads every relation it scans");
                rows.clone()
            }
            PhysNode::Singleton { atom } => Ok(Rows {
                width: 1,
                cells: vec![C::named(*atom, &self.interner)],
            }),
            PhysNode::Union(a, b) => {
                let mut rows = self.eval(a)?;
                rows.cells.extend_from_slice(&self.eval(b)?.cells);
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
                let (meter, interner, bytes) = (&mut self.meter, &self.interner, self.bytes);
                rows.retain(|row| {
                    meter.tick(|| bytes + interner.store.approx_bytes())?;
                    sel_passes(interner, conjuncts, Row::one(row))
                })?;
                Ok(rows)
            }
            PhysNode::Project { coords, input } => {
                let rows = self.eval(input)?;
                let mut out = Rows::new(coords.len());
                out.cells.reserve(rows.len() * coords.len());
                for row in rows.iter() {
                    let row = Row::one(row);
                    for &c in coords {
                        out.cells.push(row.coord(c)?);
                    }
                    self.meter.stats.tuples_materialised += 1;
                    self.tick(out.bytes())?;
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
                        rows.retain(|row| sel_passes(&self.interner, conjuncts, Row::one(row)))?;
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
            // `[T]` and `T` share one row layout.
            PhysNode::Untuple { input } => self.eval(input),
            PhysNode::Collapse { input, width } => {
                let rows = self.eval(input)?;
                let store = &self.interner.store;
                let mut out = Rows::new(*width);
                for row in rows.iter() {
                    let set = store.set_elements(row[0].id());
                    for element in set.expect("a collapsed row holds a set") {
                        let cells = store.tuple_components(*element);
                        let cells = cells.unwrap_or(std::slice::from_ref(element));
                        out.cells.extend(cells.iter().map(|&c| C::from_id(c)));
                    }
                }
                Ok(self.dedup(out))
            }
            PhysNode::Powerset { input, tuple } => {
                let rows = self.eval(input)?;
                let n = rows.len();
                if n >= 63 || (1u64 << n) > self.config.max_instance {
                    return Err(AlgError::Budget {
                        what: format!("powerset of an instance with {n} objects"),
                        limit: self.config.max_instance,
                    });
                }
                let store = &mut self.interner.store;
                let elements: Vec<ValueId> = rows
                    .iter()
                    .map(|row| match row {
                        [cell] if !tuple => cell.id(),
                        cells => store.intern_tuple(cells.iter().map(|c| c.id()).collect()),
                    })
                    .collect();
                let mut out = Rows::new(1);
                out.cells.reserve(1 << n);
                for mask in 0u64..(1u64 << n) {
                    let subset = (0..n)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| elements[i])
                        .collect();
                    out.cells
                        .push(C::from_id(self.interner.store.intern_set(subset)));
                    self.meter.stats.tuples_materialised += 1;
                    self.tick(out.bytes())?;
                }
                Ok(out)
            }
        }
    }

    /// Deduplicate a filled arena once, counting the index that does it.
    fn dedup(&mut self, rows: Rows<C>) -> Rows<C> {
        let index = Index::distinct(&rows);
        self.bytes += rows.bytes() + index.bytes();
        Rows {
            width: rows.width,
            cells: index.keys,
        }
    }

    /// Match the filtered rows of a join's two sides and emit each matching
    /// pair, read in place: the probe and emit loops allocate nothing per
    /// row beyond the output arena's growth.
    fn join(
        &mut self,
        left_rows: &Rows<C>,
        right_rows: &Rows<C>,
        strategy: &JoinStrategy,
        residual: &[SelFormula],
        project: &Option<Vec<usize>>,
    ) -> Result<Rows<C>, AlgError> {
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
                    self.tick(out.bytes())?;
                    for j in index.matches(left_keys.iter().map(|&c| left[c])) {
                        self.meter.stats.join_probes += 1;
                        self.tick(out.bytes())?;
                        let right = right_rows.row(j);
                        self.emit(Row::pair(left, right), residual, project, &mut out)?;
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
                // One entry per element of each container row's set, keyed
                // by the element and owned by that row.
                let mut owners = Vec::new();
                for (j, row) in container_rows.iter().enumerate() {
                    let set = self.interner.store.set_elements(row[container - 1].id());
                    let set = set.expect("a container holds a set");
                    owners.extend(set.iter().map(|&element| (element, j)));
                }
                let mut index = Index::with_capacity(1, owners.len());
                for &(element, _) in &owners {
                    index.push(std::iter::once(C::from_id(element)));
                }
                self.bytes += index.bytes() + SLOT_BYTES * owners.len() as u64;
                for row in elem_rows.iter() {
                    self.meter.stats.join_probes += 1;
                    self.tick(out.bytes())?;
                    for entry in index.matches(std::iter::once(row[elem - 1])) {
                        self.meter.stats.join_probes += 1;
                        self.tick(out.bytes())?;
                        let owner = container_rows.row(owners[entry].1);
                        let pair = if *elem_on_left {
                            Row::pair(row, owner)
                        } else {
                            Row::pair(owner, row)
                        };
                        self.emit(pair, residual, project, &mut out)?;
                    }
                }
            }
            JoinStrategy::Loop => {
                for left in left_rows.iter() {
                    for right in right_rows.iter() {
                        self.meter.stats.join_probes += 1;
                        self.tick(out.bytes())?;
                        self.emit(Row::pair(left, right), residual, project, &mut out)?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Materialise one candidate pair: test the residual, then write the
    /// fused projection, or the concatenation, into the output arena.
    fn emit(
        &mut self,
        pair: Row<'_, C>,
        residual: &[SelFormula],
        project: &Option<Vec<usize>>,
        out: &mut Rows<C>,
    ) -> Result<(), AlgError> {
        if !residual.is_empty() && !sel_passes(&self.interner, residual, pair)? {
            return Ok(());
        }
        match project {
            Some(coords) => {
                for &c in coords {
                    out.cells.push(pair.coord(c)?);
                }
            }
            None => {
                out.cells.extend_from_slice(pair.left);
                out.cells.extend_from_slice(pair.right);
            }
        }
        self.meter.stats.tuples_materialised += 1;
        self.tick(out.bytes())
    }
}

/// A row as selections, keys and projections read it: the concatenation of
/// `left` and `right`, so a join's candidate pair is read in place.
#[derive(Clone, Copy)]
struct Row<'r, C> {
    left: &'r [C],
    right: &'r [C],
}

impl<'r, C: Copy> Row<'r, C> {
    fn one(cells: &'r [C]) -> Self {
        Row {
            left: cells,
            right: &[],
        }
    }

    fn pair(left: &'r [C], right: &'r [C]) -> Self {
        Row { left, right }
    }

    /// The 1-based coordinate `i`.
    fn coord(&self, i: usize) -> Result<C, AlgError> {
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

fn sel_passes<C: Cell>(
    interner: &Interner,
    conjuncts: &[SelFormula],
    row: Row<'_, C>,
) -> Result<bool, AlgError> {
    for f in conjuncts {
        if !sel_eval(interner, f, row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Selection semantics over cells: `=` is cell equality and `∈` the
/// interner's membership — mirroring `eval::eval_selection` value for
/// value.
fn sel_eval<C: Cell>(
    interner: &Interner,
    f: &SelFormula,
    row: Row<'_, C>,
) -> Result<bool, AlgError> {
    let term = |t: &SelTerm| match t {
        SelTerm::Const(a) => Ok(C::named(*a, interner)),
        SelTerm::Coord(i) => row.coord(*i),
    };
    match f {
        SelFormula::Eq(t1, t2) => Ok(term(t1)? == term(t2)?),
        SelFormula::In(t1, t2) => {
            let elem = term(t1)?;
            Ok(interner.store.set_contains(term(t2)?.id(), elem.id()))
        }
        SelFormula::Not(g) => Ok(!sel_eval(interner, g, row)?),
        SelFormula::And(fs) => sel_passes(interner, fs, row),
        SelFormula::Or(fs) => fs
            .iter()
            .try_fold(false, |any, g| Ok(any || sel_eval(interner, g, row)?)),
        SelFormula::Implies(a, b) => {
            Ok(!sel_eval(interner, a, row)? || sel_eval(interner, b, row)?)
        }
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

    fn run_on(expr: &AlgExpr, db: &Database) -> Result<(Instance, ExecStats), AlgError> {
        plan(expr, &schema())
            .unwrap()
            .execute(db, &EvalConfig::default())
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
        // Scans are copied once per execution: PAR appears three times above
        // but its arena is loaded once, and a union materialises nothing.
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

    /// Any client can hand a plan a relation that holds values of another
    /// type than the one the plan was typed with: the REPL and `itq serve`
    /// evaluate a name on any database.  A query is defined only on the
    /// inputs of its type, so the plan refuses the first such value at its
    /// scan, whatever its shape, before any operator reads a row.
    #[test]
    fn relations_of_another_type_are_refused_at_their_scan() {
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
                let err = physical
                    .execute_ctx(&db, &EvalConfig::default(), &ctx)
                    .unwrap_err();
                // The tuple-at-a-time evaluator, called directly, computes
                // on such input; a prepared handle checks it before running
                // that evaluator.
                assert_ne!(
                    expr.eval(&db, &schema(), &EvalConfig::default()),
                    Err(err.clone())
                );
                seen.push(format!("{err} {}", observer.polls()));
            }
        }
        // The error, then the governor's polls: the entry poll only.
        let refusal = |value| format!("value {value} does not conform to PAR : [U, U] 1");
        let expected: Vec<String> = ["a5", "[a0, a1, a2]"]
            .into_iter()
            .flat_map(|value| vec![refusal(value); 5])
            .collect();
        assert_eq!(seen, expected);
    }

    /// Scan errors keep their left-to-right order: the relation scanned
    /// first reports first, missing or holding a value of another type.
    #[test]
    fn the_first_scanned_relation_reports_first() {
        let stray = Instance::from_atoms(vec![Atom(5)]);
        let db = Database::single("PAR", stray);
        let person_first = AlgExpr::pred("PERSON").product(AlgExpr::pred("PAR"));
        let par_first = AlgExpr::pred("PAR").product(AlgExpr::pred("PERSON"));
        let set_typed = AlgExpr::pred("PAR")
            .powerset()
            .product(AlgExpr::pred("PERSON"));
        let errors: Vec<String> = [person_first, par_first, set_typed]
            .iter()
            .map(|expr| run_on(expr, &db).unwrap_err().to_string())
            .collect();
        assert_eq!(
            errors,
            [
                "unknown predicate PERSON",
                "value a5 does not conform to PAR : [U, U]",
                "value a5 does not conform to PAR : [U, U]",
            ]
        );
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
        // Set-typed plans intern their cells: this member join and 𝒫(PAR).
        let (_, powerset) = run(&AlgExpr::pred("PAR").powerset(), &EvalConfig::default()).unwrap();
        assert!(stats.interned_values > 0 && powerset.interned_values > 0);
    }
}
