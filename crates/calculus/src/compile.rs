//! Compilation of calculus queries into a slot-based executable form.
//!
//! The tree-walking evaluator in [`crate::eval`] resolves every variable
//! through a `BTreeMap<String, Value>` and deep-clones set values it only
//! wants to compare; worse, every entry into a quantifier re-enumerates the
//! constructive domain `cons_X(T)` from scratch, so a `∀x ∃y` over a size-`N`
//! domain performs `~N²` deep [`Value`] constructions.
//! This module is the static half of the fix: [`compile`] lowers a validated
//! [`Query`] once — at prepare time — into a [`CompiledQuery`] whose
//!
//! * variables are **slots** (de-Bruijn-style indices into a flat
//!   environment of [`ValueId`]s — no string keys, no shadow-save/restore:
//!   every occurrence is resolved to its binder statically);
//! * constants and predicate symbols are pre-resolved handles into dense
//!   tables (relations are interned to id-sets on first use, making `P(t)`
//!   an O(1) hash probe);
//! * quantifiers carry their domain type as a descriptor looked up in a
//!   per-execution [`DomainCache`], so each `cons_X(T)` is materialised
//!   exactly once per execution and shared by every enclosing iteration.
//!
//! The dynamic half, [`Evaluable::eval_ctx`], mirrors the tree
//! walker *bit for bit*: same enumeration (rank) order, same step counting,
//! same short-circuit decisions, and same budget-error classification — the
//! property suite pins `eval_compiled == evaluate` on answers, shared
//! statistics, and errors across all three semantics.

use crate::error::CalcError;
use crate::eval::{EvalConfig, EvalStats, Evaluable, Evaluation};
use crate::formula::Formula;
use crate::query::Query;
use crate::term::{Term, Var};
use itq_object::cons::cons_cardinality;
use itq_object::govern::POLL_MASK;
use itq_object::pool::{partition_ranges, run_partitions};
use itq_object::store::{DomainCache, DomainHandle, ValueId, ValueStore};
use itq_object::{Atom, Database, ExecCtx, Instance, Interrupt, PredName, Type, Value};
use itq_trace::Span;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// A compiled term: constant/variable references resolved to dense handles.
///
/// Variable names are preserved alongside their slot purely for diagnostics —
/// the error a compiled evaluation reports must classify identically to the
/// tree walker's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CTerm {
    /// A constant, as an index into the query's constant table.
    Const(u32),
    /// A variable, as a slot index into the flat environment.
    Slot {
        /// Environment slot of the binder (0 is the target variable).
        slot: u32,
        /// Source-level name, for error parity with the tree walker.
        var: Var,
    },
    /// A coordinate projection `x.i` (1-based, as in the paper).
    Proj {
        /// Environment slot of the binder.
        slot: u32,
        /// The projected coordinate.
        coordinate: usize,
        /// Source-level name, for error parity with the tree walker.
        var: Var,
    },
}

/// A compiled formula: the sentential structure of the source
/// [`Formula`] with slot-resolved terms, pre-resolved predicate handles, and
/// per-quantifier domain descriptors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CFormula {
    /// `t1 ≈ t2` — an id comparison at runtime.
    Eq(CTerm, CTerm),
    /// `t1 ∈ t2` — an id-set probe at runtime.
    Member(CTerm, CTerm),
    /// `P(t)` with `P` as an index into the query's predicate table.
    Pred(u32, CTerm),
    /// `¬φ`.
    Not(Box<CFormula>),
    /// `φ1 ∧ … ∧ φn` (true when empty).
    And(Vec<CFormula>),
    /// `φ1 ∨ … ∨ φn` (false when empty).
    Or(Vec<CFormula>),
    /// `φ1 → φ2`.
    Implies(Box<CFormula>, Box<CFormula>),
    /// `φ1 ↔ φ2`.
    Iff(Box<CFormula>, Box<CFormula>),
    /// `(∃x/T φ)` with `x` resolved to a slot and `T` to an index into the
    /// query's [domain-type table](CompiledQuery::domain_types) — resolved to
    /// a dense [`DomainCache`] handle at the start of each execution.
    Exists(u32, u32, Box<CFormula>),
    /// `(∀x/T φ)`.
    Forall(u32, u32, Box<CFormula>),
}

/// A query lowered for the slot-based evaluator: the executable artifact
/// cached by `Engine::prepare` and shared by every execution (and, under the
/// invention semantics, by every invention level).
///
/// Produced by [`compile`]; executed by [`CompiledQuery::eval_full`] /
/// [`Evaluable::eval_ctx`], which return the same [`Evaluation`] shape as
/// the tree walker.
///
/// ```
/// use itq_calculus::compile::compile;
/// use itq_calculus::eval::EvalConfig;
/// use itq_calculus::{Formula, Query, Term};
/// use itq_object::{Atom, Database, Instance, Schema, Type};
///
/// let q = Query::new(
///     "t",
///     Type::Atomic,
///     Formula::pred("R", Term::var("t")),
///     Schema::single("R", Type::Atomic),
/// )
/// .unwrap();
/// let compiled = compile(&q).unwrap();
/// assert_eq!(compiled.slot_count(), 1); // just the target variable
///
/// let db = Database::single("R", Instance::from_atoms(vec![Atom(7)]));
/// let fast = compiled.eval_full(&db, &EvalConfig::default()).unwrap();
/// let slow = q.eval_full(&db, &EvalConfig::default()).unwrap();
/// assert_eq!(fast.result, slow.result);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    target_type: Type,
    slot_count: usize,
    consts: Vec<Atom>,
    preds: Vec<PredName>,
    constants: BTreeSet<Atom>,
    /// Every domain a quantifier (or the candidate enumeration) draws from,
    /// deduplicated; entry 0 is always the target type.
    domain_types: Vec<Type>,
    body: CFormula,
}

impl CompiledQuery {
    /// The output type `T` of the source query.
    pub fn target_type(&self) -> &Type {
        &self.target_type
    }

    /// Number of environment slots (1 for the target plus the deepest
    /// quantifier nesting; sibling quantifiers at the same depth share a
    /// slot).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The predicate symbols of the query, in handle order.
    pub fn predicates(&self) -> &[PredName] {
        &self.preds
    }

    /// The constants occurring in the query (`adom(Q)`).
    pub fn constants(&self) -> &BTreeSet<Atom> {
        &self.constants
    }

    /// The deduplicated table of quantifier/candidate domain types; entry 0
    /// is the target type.  Quantifier nodes refer to domains by index into
    /// this table, and each execution resolves the table to dense
    /// [`DomainCache`] handles once, up front.
    pub fn domain_types(&self) -> &[Type] {
        &self.domain_types
    }

    /// The compiled body.
    pub fn body(&self) -> &CFormula {
        &self.body
    }

    /// Evaluate under the limited interpretation (`Y = ∅`).
    pub fn eval_full(&self, db: &Database, config: &EvalConfig) -> Result<Evaluation, CalcError> {
        Ok(self.eval_ctx(db, &[], config, &ExecCtx::default())?.0)
    }

    /// The atoms `Y ∪ adom(d) ∪ adom(Q)` every variable ranges over, and the
    /// size of the candidate domain `cons_X(T)` once it passed its budget.
    fn candidate_domain(
        &self,
        db: &Database,
        extra: &[Atom],
        config: &EvalConfig,
    ) -> Result<(Vec<Atom>, u64), CalcError> {
        let mut atom_set = Evaluable::evaluation_domain(self, db);
        atom_set.extend(extra.iter().copied());
        let atoms: Vec<Atom> = atom_set.into_iter().collect();
        let target_card = cons_cardinality(&self.target_type, atoms.len());
        if !target_card.fits_within(config.max_candidates) {
            return Err(CalcError::Budget {
                what: format!(
                    "candidate domain cons_X({}) of size {target_card}",
                    self.target_type
                ),
                limit: config.max_candidates,
            });
        }
        Ok((atoms, target_card.saturating_u64()))
    }

    /// The sequential evaluator, generic over its quantifier hook so the
    /// untraced instantiation compiles the hook away.
    fn eval_sequential<T: QuantTracer>(
        &self,
        db: &Database,
        extra: &[Atom],
        config: &EvalConfig,
        interrupt: &Interrupt,
        tracer: T,
    ) -> Result<(Evaluation, T), CalcError> {
        // Poll once before any work so a deadline of 0 ms (or a pre-set
        // cancel flag) trips even on queries that would finish instantly —
        // mirrored by the tree walker so both backends always poll at least
        // once per execution.
        interrupt.check(0)?;
        let (atoms, total_candidates) = self.candidate_domain(db, extra, config)?;

        let mut exec = Exec {
            db,
            config,
            compiled: self,
            store: ValueStore::new(),
            domains: DomainCache::new(atoms),
            domain_handles: Vec::with_capacity(self.domain_types.len()),
            domain_sizes: vec![None; self.domain_types.len()],
            env: vec![None; self.slot_count],
            const_ids: Vec::with_capacity(self.consts.len()),
            relations: vec![None; self.preds.len()],
            stats: EvalStats::default(),
            interrupt,
            tracer,
        };
        exec.domain_handles = self
            .domain_types
            .iter()
            .map(|ty| exec.domains.handle(ty))
            .collect();
        for &atom in &self.consts {
            let id = exec.store.intern_atom(atom);
            exec.const_ids.push(id);
        }

        let candidate_handle = exec.domain_handles[0];
        let mut satisfied: Vec<ValueId> = Vec::new();
        for rank in 0..total_candidates {
            exec.stats.candidates_checked += 1;
            let candidate = exec
                .domains
                .nth(candidate_handle, rank as u128, &mut exec.store)?;
            exec.env[0] = Some(candidate);
            if exec.satisfies(&self.body)? {
                satisfied.push(candidate);
            }
        }
        // An execution of fewer than 256 steps never reaches a masked poll,
        // so without this one its interner would escape the memory ceiling.
        interrupt.check(exec.store.approx_bytes() + exec.domains.approx_bytes())?;

        let result = Instance::from_values(satisfied.iter().map(|&id| exec.store.resolve(id)));
        exec.stats.domain_cache_hits = exec.domains.hits();
        exec.stats.domain_cache_misses = exec.domains.misses();
        exec.stats.interned_values = exec.store.len() as u64;
        Ok((
            Evaluation {
                result,
                stats: exec.stats,
                partitions: 0,
            },
            exec.tracer,
        ))
    }

    /// Partitioned evaluation: split the top-level candidate loop into
    /// contiguous rank chunks and evaluate the chunks on a scoped worker pool,
    /// one [`ValueStore`]/[`DomainCache`] overlay per worker over a shared
    /// frozen base.
    ///
    /// The coordinator interns the query constants and pre-materialises the
    /// *entire* candidate domain into the base before freezing it — without
    /// the prefill, the worker owning the last rank chunk would privately
    /// re-materialise every earlier rank (lazy domains extend sequentially)
    /// and the partitioning would not scale.
    ///
    /// Determinism contract, pinned by `tests/parallel_equivalence.rs`:
    ///
    /// * **answers** are byte-identical to the sequential evaluator for every
    ///   worker count — candidates are a pure function of their rank, and the
    ///   merged [`Instance`] canonicalises structurally;
    /// * **deterministic counters** (`steps`, `quantifier_values`,
    ///   `candidates_checked`, `max_domain_seen`) equal the sequential run's —
    ///   per-candidate work is independent, so partition sums reproduce the
    ///   sequential totals exactly;
    /// * **errors** are reconstructed in partition (rank) order with a
    ///   cumulative step counter, so logical budget errors surface with the
    ///   same classification and message the sequential run would have
    ///   produced, no matter which worker tripped first in wall-clock time.
    ///   Physical [`ResourceError`](itq_object::ResourceError) trips
    ///   (cancellation, deadlines, memory ceilings) are inherently racy in
    ///   *when* they fire, but their messages are deterministic, so the
    ///   surfaced error is byte-identical there too.
    ///
    /// The cache counters (`domain_cache_hits`/`misses`, `interned_values`)
    /// keep their meaning but not their exact values at `workers > 1`:
    /// per-worker overlays may duplicate inner-quantifier materialisation the
    /// sequential memo would have shared.
    ///
    /// Traced, the span carries the merged counters plus one child per
    /// partition (rank range, local counters, worker wall-clock) in place of
    /// the sequential trace's per-slot children — under partitioning the
    /// interesting breakdown is *where the work went*, not which nesting
    /// depth drew it.
    fn eval_partitioned(
        &self,
        db: &Database,
        extra: &[Atom],
        config: &EvalConfig,
        ctx: &ExecCtx,
    ) -> Result<(Evaluation, Option<Span>), CalcError> {
        let start = Instant::now();
        let interrupt = ctx.interrupt;
        // Entry poll, mirroring the sequential evaluator: a 0 ms deadline or
        // a pre-raised cancel flag trips before any work.
        interrupt.check(0)?;
        let (atoms, total) = self.candidate_domain(db, extra, config)?;

        // Coordinator phase: build the shared base — constants interned,
        // every candidate rank materialised — then freeze it for the workers.
        let mut store = ValueStore::new();
        let mut domains = DomainCache::new(atoms);
        let mut domain_handles = Vec::with_capacity(self.domain_types.len());
        for ty in &self.domain_types {
            domain_handles.push(domains.handle(ty));
        }
        let mut const_ids = Vec::with_capacity(self.consts.len());
        for &atom in &self.consts {
            const_ids.push(store.intern_atom(atom));
        }
        let candidate_handle = domain_handles[0];
        for rank in 0..total {
            domains.nth(candidate_handle, rank as u128, &mut store)?;
            if rank & POLL_MASK == POLL_MASK {
                interrupt.check(store.approx_bytes() + domains.approx_bytes())?;
            }
        }
        let base_stats = EvalStats {
            domain_cache_hits: domains.hits(),
            domain_cache_misses: domains.misses(),
            interned_values: store.len() as u64,
            ..EvalStats::default()
        };
        let base_len = store.len() as u64;
        let base_bytes = store.approx_bytes() + domains.approx_bytes();
        let frozen_store = store.freeze();
        let frozen_domains = domains.freeze();

        let ranges = partition_ranges(total as usize, ctx.workers.max(1));
        let outcomes = run_partitions(ranges, |_, (start, end)| {
            let begun = Instant::now();
            let mut exec = Exec {
                db,
                config,
                compiled: self,
                store: ValueStore::overlay(Arc::clone(&frozen_store)),
                domains: DomainCache::overlay(Arc::clone(&frozen_domains)),
                domain_handles: domain_handles.clone(),
                domain_sizes: vec![None; self.domain_types.len()],
                env: vec![None; self.slot_count],
                const_ids: const_ids.clone(),
                relations: vec![None; self.preds.len()],
                stats: EvalStats::default(),
                interrupt,
                tracer: NoTrace,
            };
            let mut satisfied: Vec<ValueId> = Vec::new();
            let mut error = None;
            for rank in start..end {
                exec.stats.candidates_checked += 1;
                let candidate =
                    match exec
                        .domains
                        .nth(candidate_handle, rank as u128, &mut exec.store)
                    {
                        Ok(id) => id,
                        Err(e) => {
                            error = Some(CalcError::from(e));
                            break;
                        }
                    };
                exec.env[0] = Some(candidate);
                match exec.satisfies(&self.body) {
                    Ok(true) => satisfied.push(candidate),
                    Ok(false) => {}
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            exec.stats.domain_cache_hits = exec.domains.hits();
            exec.stats.domain_cache_misses = exec.domains.misses();
            exec.stats.interned_values = (exec.store.len() as u64).saturating_sub(base_len);
            PartitionOutcome {
                ranks: (start as u64, end as u64),
                satisfied: satisfied.iter().map(|&id| exec.store.resolve(id)).collect(),
                stats: exec.stats,
                bytes: exec.store.approx_bytes() + exec.domains.approx_bytes() - base_bytes,
                error,
                wall_micros: begun.elapsed().as_micros() as u64,
            }
        });

        // Deterministic error reconstruction: replay the partitions in rank
        // order with a cumulative step counter.  The sequential run errors
        // with the step-budget message at the first candidate where the
        // global counter crosses `max_steps`; a partition whose own error
        // lies past that crossing therefore reports the budget error instead
        // — its candidate would never have been reached sequentially.
        // Physical resource trips (whose messages carry no counters) are
        // surfaced as-is: the sequential run, being slower, would have
        // observed the same condition.
        let step_budget = || CalcError::Budget {
            what: "formula evaluation steps".to_string(),
            limit: config.max_steps,
        };
        let mut cum_steps: u64 = 0;
        for outcome in &outcomes {
            let crossed = cum_steps.saturating_add(outcome.stats.steps) > config.max_steps;
            match &outcome.error {
                Some(CalcError::Resource(e)) => return Err(CalcError::Resource(e.clone())),
                Some(e) => {
                    return Err(if crossed { step_budget() } else { e.clone() });
                }
                None if crossed => return Err(step_budget()),
                None => cum_steps = cum_steps.saturating_add(outcome.stats.steps),
            }
        }
        // The exit poll of the sequential evaluator, over the shared base and
        // every overlay together.
        interrupt.check(base_bytes + outcomes.iter().map(|o| o.bytes).sum::<u64>())?;

        let mut stats = base_stats;
        for outcome in &outcomes {
            stats.merge(&outcome.stats);
        }
        let partitions = outcomes.len() as u64;
        let span = ctx.traced.then(|| {
            let mut span = eval_span(&stats);
            span.push_field("partitions", partitions);
            for (i, outcome) in outcomes.iter().enumerate() {
                let mut child = Span::new(format!("partition {i}"));
                child.push_field("rank_start", outcome.ranks.0);
                child.push_field("rank_end", outcome.ranks.1);
                child.push_field("candidates_checked", outcome.stats.candidates_checked);
                child.push_field("steps", outcome.stats.steps);
                child.push_field("quantifier_values", outcome.stats.quantifier_values);
                child.wall_micros = outcome.wall_micros;
                span.push_child(child);
            }
            span.wall_micros = start.elapsed().as_micros() as u64;
            span
        });
        let values = outcomes.into_iter().flat_map(|outcome| outcome.satisfied);
        let evaluation = Evaluation {
            result: Instance::from_values(values),
            stats,
            partitions,
        };
        Ok((evaluation, span))
    }
}

/// The root span of a compiled evaluation: the whole-evaluation counters.
fn eval_span(stats: &EvalStats) -> Span {
    let mut span = Span::new("compiled-eval");
    span.push_field("candidates_checked", stats.candidates_checked);
    span.push_field("quantifier_values", stats.quantifier_values);
    span.push_field("steps", stats.steps);
    span.push_field("max_domain_seen", stats.max_domain_seen);
    span.push_field("domain_cache_hits", stats.domain_cache_hits);
    span.push_field("domain_cache_misses", stats.domain_cache_misses);
    span.push_field("interned_values", stats.interned_values);
    span
}

/// What one worker hands back to the coordinator.
struct PartitionOutcome {
    /// Half-open candidate-rank range `[start, end)` this partition evaluated.
    ranks: (u64, u64),
    /// Satisfied candidates resolved to structural [`Value`]s by the worker —
    /// worker-local [`ValueId`]s are meaningless outside their overlay.
    satisfied: Vec<Value>,
    /// The partition's local counters (steps and draws counted from zero).
    stats: EvalStats,
    /// The governor's byte estimate of what this partition's overlays added
    /// to the shared base.
    bytes: u64,
    error: Option<CalcError>,
    /// Wall-clock this partition's worker spent.  Partitions overlap in
    /// time, so these are never summed into an execution wall-clock.
    wall_micros: u64,
}

/// The compiled backend: `ctx.workers > 1` partitions the candidate loop
/// (see [`CompiledQuery`]'s partitioned evaluator); sequentially, a traced
/// run counts the values each quantifier slot drew.
impl Evaluable for CompiledQuery {
    fn eval_ctx(
        &self,
        db: &Database,
        extra: &[Atom],
        config: &EvalConfig,
        ctx: &ExecCtx,
    ) -> Result<(Evaluation, Option<Span>), CalcError> {
        if ctx.workers > 1 {
            return self.eval_partitioned(db, extra, config, ctx);
        }
        if !ctx.traced {
            let (evaluation, NoTrace) =
                self.eval_sequential(db, extra, config, ctx.interrupt, NoTrace)?;
            return Ok((evaluation, None));
        }
        let start = Instant::now();
        let draws = SlotDraws {
            draws: vec![0; self.slot_count],
        };
        let (evaluation, tracer) = self.eval_sequential(db, extra, config, ctx.interrupt, draws)?;
        // One child per environment slot: sibling quantifiers share a slot,
        // so the per-slot counts are per nesting depth.
        let mut span = eval_span(&evaluation.stats);
        for (slot, &draws) in tracer.draws.iter().enumerate().skip(1) {
            let mut child = Span::new(format!("quantifier slot {slot}"));
            child.push_field("draws", draws);
            span.push_child(child);
        }
        span.wall_micros = start.elapsed().as_micros() as u64;
        Ok((evaluation, Some(span)))
    }

    fn evaluation_domain(&self, db: &Database) -> BTreeSet<Atom> {
        let mut atoms = db.active_domain();
        atoms.extend(self.constants.iter().copied());
        atoms
    }
}

/// Compile a validated [`Query`] into its slot-based executable form.
///
/// This is static work in the sense of the prepare/execute split: it walks
/// the body once, assigns every binder a depth-indexed slot, resolves every
/// variable occurrence to its binder's slot, and collects the constant and
/// predicate tables.  An unbound variable — impossible for a query that
/// passed [`Query::new`] validation — is reported as
/// [`CalcError::UnboundVariable`] at compile time rather than at runtime.
pub fn compile(query: &Query) -> Result<CompiledQuery, CalcError> {
    let mut lowering = Lowering {
        scope: vec![(query.target().to_string(), 0)],
        consts: Vec::new(),
        preds: Vec::new(),
        // Entry 0 is reserved for the target type (the candidate domain).
        domain_types: vec![query.target_type().clone()],
        slot_count: 1,
    };
    let body = lowering.formula(query.body())?;
    Ok(CompiledQuery {
        target_type: query.target_type().clone(),
        slot_count: lowering.slot_count,
        consts: lowering.consts,
        preds: lowering.preds,
        constants: query.constants(),
        domain_types: lowering.domain_types,
        body,
    })
}

/// Compile-time state: the binder stack and the constant/predicate tables.
struct Lowering {
    /// Innermost binder last; lookup walks backwards so shadowing resolves to
    /// the nearest enclosing binder, exactly like the tree walker's map.
    scope: Vec<(Var, u32)>,
    consts: Vec<Atom>,
    preds: Vec<PredName>,
    domain_types: Vec<Type>,
    slot_count: usize,
}

impl Lowering {
    fn slot_of(&self, var: &str) -> Result<u32, CalcError> {
        self.scope
            .iter()
            .rev()
            .find(|(name, _)| name == var)
            .map(|&(_, slot)| slot)
            .ok_or_else(|| CalcError::UnboundVariable {
                var: var.to_string(),
            })
    }

    fn const_handle(&mut self, atom: Atom) -> u32 {
        match self.consts.iter().position(|&a| a == atom) {
            Some(i) => i as u32,
            None => {
                self.consts.push(atom);
                (self.consts.len() - 1) as u32
            }
        }
    }

    fn pred_handle(&mut self, name: &str) -> u32 {
        match self.preds.iter().position(|p| p == name) {
            Some(i) => i as u32,
            None => {
                self.preds.push(name.to_string());
                (self.preds.len() - 1) as u32
            }
        }
    }

    fn domain_index(&mut self, ty: &Type) -> u32 {
        match self.domain_types.iter().position(|t| t == ty) {
            Some(i) => i as u32,
            None => {
                self.domain_types.push(ty.clone());
                (self.domain_types.len() - 1) as u32
            }
        }
    }

    fn term(&mut self, term: &Term) -> Result<CTerm, CalcError> {
        match term {
            Term::Const(a) => Ok(CTerm::Const(self.const_handle(*a))),
            Term::Var(v) => Ok(CTerm::Slot {
                slot: self.slot_of(v)?,
                var: v.clone(),
            }),
            Term::Proj(v, i) => Ok(CTerm::Proj {
                slot: self.slot_of(v)?,
                coordinate: *i,
                var: v.clone(),
            }),
        }
    }

    fn quantifier(&mut self, var: &Var, body: &Formula) -> Result<(u32, Box<CFormula>), CalcError> {
        // Depth-indexed slot reuse: sibling quantifiers occupy the same slot,
        // so the environment stays as small as the deepest nesting.
        let slot = self.scope.len() as u32;
        self.slot_count = self.slot_count.max(slot as usize + 1);
        self.scope.push((var.clone(), slot));
        let lowered = self.formula(body);
        self.scope.pop();
        Ok((slot, Box::new(lowered?)))
    }

    fn formula(&mut self, formula: &Formula) -> Result<CFormula, CalcError> {
        Ok(match formula {
            Formula::Eq(t1, t2) => CFormula::Eq(self.term(t1)?, self.term(t2)?),
            Formula::Member(t1, t2) => CFormula::Member(self.term(t1)?, self.term(t2)?),
            Formula::Pred(name, t) => CFormula::Pred(self.pred_handle(name), self.term(t)?),
            Formula::Not(f) => CFormula::Not(Box::new(self.formula(f)?)),
            Formula::And(fs) => CFormula::And(
                fs.iter()
                    .map(|f| self.formula(f))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Or(fs) => CFormula::Or(
                fs.iter()
                    .map(|f| self.formula(f))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Implies(f1, f2) => {
                CFormula::Implies(Box::new(self.formula(f1)?), Box::new(self.formula(f2)?))
            }
            Formula::Iff(f1, f2) => {
                CFormula::Iff(Box::new(self.formula(f1)?), Box::new(self.formula(f2)?))
            }
            Formula::Exists(v, ty, f) => {
                let dom = self.domain_index(ty);
                let (slot, body) = self.quantifier(v, f)?;
                CFormula::Exists(slot, dom, body)
            }
            Formula::Forall(v, ty, f) => {
                let dom = self.domain_index(ty);
                let (slot, body) = self.quantifier(v, f)?;
                CFormula::Forall(slot, dom, body)
            }
        })
    }
}

/// A hook called once per quantifier draw, resolved statically so the
/// untraced instantiation ([`NoTrace`]) monomorphizes to nothing — the
/// compiled evaluator's hot loops stay byte-for-byte on their untraced path.
trait QuantTracer {
    fn draw(&mut self, slot: u32);
}

/// The untraced instantiation: every hook is an inlined no-op.
struct NoTrace;

impl QuantTracer for NoTrace {
    #[inline(always)]
    fn draw(&mut self, _slot: u32) {}
}

/// The traced instantiation: per-slot draw counters (slot 0, the candidate
/// loop, is never drawn by a quantifier and stays at zero).
struct SlotDraws {
    draws: Vec<u64>,
}

impl QuantTracer for SlotDraws {
    #[inline]
    fn draw(&mut self, slot: u32) {
        self.draws[slot as usize] += 1;
    }
}

/// Execution-time state of one compiled evaluation: the interner, the domain
/// memo, the flat environment, and the resolved handle tables.
struct Exec<'a, T: QuantTracer> {
    db: &'a Database,
    config: &'a EvalConfig,
    compiled: &'a CompiledQuery,
    store: ValueStore,
    domains: DomainCache,
    /// The query's domain-type table resolved to dense cache handles, so the
    /// quantifier loops never hash a `Type`.
    domain_handles: Vec<DomainHandle>,
    /// Per-domain budget verdict (size or budget error), resolved on first
    /// entry: the atom set is fixed for the whole execution, so the
    /// `cons_cardinality` walk and the budget comparison are execution
    /// invariants that must not be repeated once per enclosing quantifier
    /// draw.
    domain_sizes: Vec<Option<Result<u64, CalcError>>>,
    /// Flat environment indexed by slot; `None` only before first binding
    /// (a compiled query never reads an unwritten slot — enforced here with
    /// the same error the tree walker would raise).
    env: Vec<Option<ValueId>>,
    const_ids: Vec<ValueId>,
    /// Per-predicate interned relation, resolved lazily on first use so a
    /// missing relation errors at the same evaluation point as the tree
    /// walker (which looks relations up per `P(t)` node).
    relations: Vec<Option<HashSet<ValueId>>>,
    stats: EvalStats,
    /// The execution's resource governor.  Polled every [`POLL_MASK`]+1 steps
    /// — the tree walker's cadence, whose step counter this evaluator
    /// replicates bit for bit — and, like the walker, once on entry.  Unlike
    /// the walker, which interns nothing, the evaluator also polls once on
    /// exit, so an execution shorter than one stride still meets the memory
    /// ceiling.  Memory polls report the interner's and domain memo's
    /// deterministic byte estimates.
    interrupt: &'a Interrupt,
    tracer: T,
}

impl<T: QuantTracer> Exec<'_, T> {
    fn bump(&mut self) -> Result<(), CalcError> {
        self.stats.steps += 1;
        if self.stats.steps & POLL_MASK == 0 {
            self.interrupt
                .check(self.store.approx_bytes() + self.domains.approx_bytes())?;
        }
        if self.stats.steps > self.config.max_steps {
            return Err(CalcError::Budget {
                what: "formula evaluation steps".to_string(),
                limit: self.config.max_steps,
            });
        }
        Ok(())
    }

    fn term(&self, term: &CTerm) -> Result<ValueId, CalcError> {
        match term {
            CTerm::Const(i) => Ok(self.const_ids[*i as usize]),
            CTerm::Slot { slot, var } => self.env[*slot as usize]
                .ok_or_else(|| CalcError::UnboundVariable { var: var.clone() }),
            CTerm::Proj {
                slot,
                coordinate,
                var,
            } => {
                let id = self.env[*slot as usize]
                    .ok_or_else(|| CalcError::UnboundVariable { var: var.clone() })?;
                self.store
                    .project(id, *coordinate)
                    .ok_or_else(|| CalcError::BadProjection {
                        var: var.clone(),
                        coordinate: *coordinate,
                        ty: format!("value {}", self.store.resolve(id)),
                    })
            }
        }
    }

    /// Budget-check a quantifier domain and return its size; the check and
    /// the counters replicate the tree walker's `quantifier_domain` exactly,
    /// but the verdict (an execution invariant for the fixed atom set) is
    /// computed once per domain and replayed on every further entry.  The
    /// values themselves are drawn rank by rank from the [`DomainCache`]
    /// memo, so a short-circuited search never materialises the ranks it
    /// skips and a repeated entry replays the cached prefix.
    fn quantifier_domain(&mut self, dom: u32) -> Result<u64, CalcError> {
        let i = dom as usize;
        if self.domain_sizes[i].is_none() {
            let ty = &self.compiled.domain_types[i];
            let n_atoms = self.domains.atoms().len();
            let card = cons_cardinality(ty, n_atoms);
            let verdict = if card.fits_within(self.config.max_quantifier_domain) {
                Ok(card.saturating_u64())
            } else {
                Err(CalcError::Budget {
                    what: format!(
                        "quantifier domain cons_X({ty}) of size {card} over {n_atoms} atoms"
                    ),
                    limit: self.config.max_quantifier_domain,
                })
            };
            self.domain_sizes[i] = Some(verdict);
        }
        match self.domain_sizes[i].as_ref().expect("resolved above") {
            Ok(size) => {
                let size = *size;
                if size > self.stats.max_domain_seen {
                    self.stats.max_domain_seen = size;
                }
                Ok(size)
            }
            Err(e) => Err(e.clone()),
        }
    }

    fn relation_contains(&mut self, pred: u32, value: ValueId) -> Result<bool, CalcError> {
        let i = pred as usize;
        if self.relations[i].is_none() {
            let name = &self.compiled.preds[i];
            let relation = self
                .db
                .relation(name)
                .ok_or_else(|| CalcError::UnknownPredicate { name: name.clone() })?;
            let ids: HashSet<ValueId> = relation.iter().map(|v| self.store.intern(v)).collect();
            self.relations[i] = Some(ids);
        }
        Ok(self.relations[i]
            .as_ref()
            .expect("resolved above")
            .contains(&value))
    }

    fn satisfies(&mut self, formula: &CFormula) -> Result<bool, CalcError> {
        self.bump()?;
        match formula {
            CFormula::Eq(t1, t2) => Ok(self.term(t1)? == self.term(t2)?),
            CFormula::Member(t1, t2) => {
                let elem = self.term(t1)?;
                let container = self.term(t2)?;
                Ok(self.store.set_contains(container, elem))
            }
            CFormula::Pred(pred, t) => {
                let value = self.term(t)?;
                self.relation_contains(*pred, value)
            }
            CFormula::Not(f) => Ok(!self.satisfies(f)?),
            CFormula::And(fs) => {
                for f in fs {
                    if !self.satisfies(f)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            CFormula::Or(fs) => {
                for f in fs {
                    if self.satisfies(f)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            CFormula::Implies(f1, f2) => {
                if !self.satisfies(f1)? {
                    return Ok(true);
                }
                self.satisfies(f2)
            }
            CFormula::Iff(f1, f2) => {
                let a = self.satisfies(f1)?;
                let b = self.satisfies(f2)?;
                Ok(a == b)
            }
            CFormula::Exists(slot, dom, f) => {
                let size = self.quantifier_domain(*dom)?;
                let handle = self.domain_handles[*dom as usize];
                let mut found = false;
                for rank in 0..size {
                    self.stats.quantifier_values += 1;
                    self.tracer.draw(*slot);
                    let value = self.domains.nth(handle, rank as u128, &mut self.store)?;
                    self.env[*slot as usize] = Some(value);
                    if self.satisfies(f)? {
                        found = true;
                        break;
                    }
                }
                Ok(found)
            }
            CFormula::Forall(slot, dom, f) => {
                let size = self.quantifier_domain(*dom)?;
                let handle = self.domain_handles[*dom as usize];
                let mut all = true;
                for rank in 0..size {
                    self.stats.quantifier_values += 1;
                    self.tracer.draw(*slot);
                    let value = self.domains.nth(handle, rank as u128, &mut self.store)?;
                    self.env[*slot as usize] = Some(value);
                    if !self.satisfies(f)? {
                        all = false;
                        break;
                    }
                }
                Ok(all)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_object::{Instance, Schema, Universe};

    fn par_schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2))
    }

    fn par_db(universe: &mut Universe, edges: &[(&str, &str)]) -> Database {
        let pairs: Vec<(Atom, Atom)> = edges
            .iter()
            .map(|(a, b)| (universe.atom(a), universe.atom(b)))
            .collect();
        Database::single("PAR", Instance::from_pairs(pairs))
    }

    fn grandparent_query() -> Query {
        let t_pair = Type::flat_tuple(2);
        let body = Formula::exists(
            "x",
            t_pair.clone(),
            Formula::exists(
                "y",
                t_pair.clone(),
                Formula::and(vec![
                    Formula::pred("PAR", Term::var("x")),
                    Formula::pred("PAR", Term::var("y")),
                    Formula::eq(Term::proj("x", 2), Term::proj("y", 1)),
                    Formula::eq(Term::proj("t", 1), Term::proj("x", 1)),
                    Formula::eq(Term::proj("t", 2), Term::proj("y", 2)),
                ]),
            ),
        );
        Query::new("t", t_pair, body, par_schema()).unwrap()
    }

    /// Both backends, same inputs — answers *and* the shared statistics
    /// counters must be identical (the compiled backend additionally reports
    /// its cache counters, which the tree walker leaves at zero).
    fn assert_backends_agree(query: &Query, db: &Database, config: &EvalConfig) {
        let compiled = compile(query).unwrap();
        let slow = query.eval_full(db, config);
        let fast = compiled.eval_full(db, config);
        match (slow, fast) {
            (Ok(slow), Ok(fast)) => {
                assert_eq!(slow.result, fast.result);
                assert_eq!(slow.stats.steps, fast.stats.steps);
                assert_eq!(slow.stats.quantifier_values, fast.stats.quantifier_values);
                assert_eq!(slow.stats.candidates_checked, fast.stats.candidates_checked);
                assert_eq!(slow.stats.max_domain_seen, fast.stats.max_domain_seen);
            }
            (Err(slow), Err(fast)) => assert_eq!(slow, fast),
            (slow, fast) => panic!("backends disagree: tree {slow:?} vs compiled {fast:?}"),
        }
    }

    #[test]
    fn grandparent_compiles_and_matches_the_tree_walker() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("Tom", "Mary"), ("Mary", "Sue"), ("Sue", "Ann")]);
        let q = grandparent_query();
        let compiled = compile(&q).unwrap();
        assert_eq!(compiled.slot_count(), 3); // t, x, y
        assert_eq!(compiled.predicates(), ["PAR".to_string()]);
        assert_backends_agree(&q, &db, &EvalConfig::default());
    }

    #[test]
    fn sibling_quantifiers_share_a_slot() {
        // ∃x (…) ∧ ∃y (…) at the same depth reuse slot 1.
        let body = Formula::and(vec![
            Formula::exists("x", Type::Atomic, Formula::pred("R", Term::var("x"))),
            Formula::exists("y", Type::Atomic, Formula::pred("R", Term::var("y"))),
        ]);
        let q = Query::new("t", Type::Atomic, body, Schema::single("R", Type::Atomic)).unwrap();
        let compiled = compile(&q).unwrap();
        assert_eq!(compiled.slot_count(), 2);
        let db = Database::single("R", Instance::from_atoms(vec![Atom(0), Atom(1)]));
        assert_backends_agree(&q, &db, &EvalConfig::default());
    }

    #[test]
    fn shadowing_resolves_to_the_nearest_binder() {
        // The inner ∃x shadows the outer one; after it closes, the outer
        // binding must be visible again.  The tree walker handles this with
        // its shadow-save/restore dance; the compiled form resolves each
        // occurrence statically — both must agree.
        let body = Formula::exists(
            "x",
            Type::Atomic,
            Formula::and(vec![
                Formula::pred("R", Term::var("x")),
                Formula::exists(
                    "x",
                    Type::Atomic,
                    Formula::not(Formula::pred("R", Term::var("x"))),
                ),
                Formula::eq(Term::var("t"), Term::var("x")),
            ]),
        );
        let q = Query::new(
            "t",
            Type::Atomic,
            body,
            Schema::single("R", Type::Atomic).with("S", Type::Atomic),
        )
        .unwrap();
        let db = Database::single("R", Instance::from_atoms(vec![Atom(0)]))
            .with("S", Instance::from_atoms(vec![Atom(1)]));
        assert_backends_agree(&q, &db, &EvalConfig::default());
        // Sanity: with a non-R atom around, the witness exists and the answer
        // is exactly R.
        let out = compile(&q)
            .unwrap()
            .eval_full(&db, &EvalConfig::default())
            .unwrap();
        assert_eq!(out.result, Instance::from_atoms(vec![Atom(0)]));
    }

    #[test]
    fn constants_are_pooled_and_enter_the_domain() {
        let c = Atom(77);
        let body = Formula::or(vec![
            Formula::eq(Term::var("t"), Term::constant(c)),
            Formula::eq(Term::constant(c), Term::var("t")),
        ]);
        let q = Query::new("t", Type::Atomic, body, Schema::single("R", Type::Atomic)).unwrap();
        let compiled = compile(&q).unwrap();
        assert_eq!(compiled.constants().len(), 1);
        let db = Database::single("R", Instance::empty());
        assert_backends_agree(&q, &db, &EvalConfig::default());
        let out = compiled.eval_full(&db, &EvalConfig::default()).unwrap();
        assert_eq!(out.result, Instance::from_atoms(vec![c]));
    }

    #[test]
    fn budget_errors_classify_identically() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b"), ("b", "c"), ("c", "d")]);
        // Candidate budget.
        let big_target = Query::new(
            "t",
            Type::set(Type::flat_tuple(2)),
            Formula::truth(),
            par_schema(),
        )
        .unwrap();
        assert_backends_agree(&big_target, &db, &EvalConfig::tiny());
        // Quantifier-domain budget.
        let big_quantifier = Query::new(
            "t",
            Type::flat_tuple(2),
            Formula::exists(
                "x",
                Type::set(Type::flat_tuple(2)),
                Formula::member(Term::var("t"), Term::var("x")),
            ),
            par_schema(),
        )
        .unwrap();
        assert_backends_agree(&big_quantifier, &db, &EvalConfig::tiny());
        // Step budget.
        let config = EvalConfig {
            max_steps: 5,
            ..EvalConfig::default()
        };
        assert_backends_agree(&grandparent_query(), &db, &config);
    }

    #[test]
    fn missing_relations_error_lazily_like_the_tree_walker() {
        // `R` is declared by the schema but absent from the database; the
        // short-circuiting ∨ never evaluates it, so neither form errors.
        let body = Formula::or(vec![
            Formula::eq(Term::var("t"), Term::var("t")),
            Formula::pred("R", Term::var("t")),
        ]);
        let q = Query::new(
            "t",
            Type::Atomic,
            body,
            Schema::single("R", Type::Atomic).with("S", Type::Atomic),
        )
        .unwrap();
        let db = Database::single("S", Instance::from_atoms(vec![Atom(0)]));
        assert_backends_agree(&q, &db, &EvalConfig::default());
        assert!(compile(&q)
            .unwrap()
            .eval_full(&db, &EvalConfig::default())
            .is_ok());
        // With the ∨ reordered, `R` is read first and both forms surface
        // the same UnknownPredicate error.
        let reordered = q
            .with_body(Formula::or(vec![
                Formula::pred("R", Term::var("t")),
                Formula::eq(Term::var("t"), Term::var("t")),
            ]))
            .unwrap();
        assert_backends_agree(&reordered, &db, &EvalConfig::default());
        assert!(matches!(
            compile(&reordered)
                .unwrap()
                .eval_full(&db, &EvalConfig::default()),
            Err(CalcError::UnknownPredicate { .. })
        ));
    }

    #[test]
    fn compiled_stats_report_the_cache_counters() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b"), ("b", "c")]);
        let q = grandparent_query();
        let ev = compile(&q)
            .unwrap()
            .eval_full(&db, &EvalConfig::default())
            .unwrap();
        assert!(ev.stats.interned_values > 0);
        assert!(ev.stats.domain_cache_misses > 0);
        // 9 candidates × 2 quantifier entries hit the memoized [U,U] domain
        // far more often than it is materialised.
        assert!(ev.stats.domain_cache_hits > ev.stats.domain_cache_misses);
        // The tree walker reports zeros for all three.
        let slow = q.eval_full(&db, &EvalConfig::default()).unwrap();
        assert_eq!(slow.stats.domain_cache_hits, 0);
        assert_eq!(slow.stats.domain_cache_misses, 0);
        assert_eq!(slow.stats.interned_values, 0);
    }

    /// A disarmed context with `workers` workers, traced or not.
    fn ctx(workers: usize, traced: bool) -> ExecCtx<'static> {
        ExecCtx {
            workers,
            traced,
            ..ExecCtx::default()
        }
    }

    #[test]
    fn traced_evaluation_is_identical_and_counts_per_slot_draws() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("Tom", "Mary"), ("Mary", "Sue"), ("Sue", "Ann")]);
        let q = grandparent_query();
        let compiled = compile(&q).unwrap();
        let plain = compiled.eval_full(&db, &EvalConfig::default()).unwrap();
        let (traced, span) = compiled
            .eval_ctx(&db, &[], &EvalConfig::default(), &ctx(1, true))
            .unwrap();
        let span = span.expect("traced runs return a span");
        assert_eq!(plain, traced);
        assert_eq!(span.name, "compiled-eval");
        assert_eq!(
            span.field("candidates_checked"),
            Some(traced.stats.candidates_checked)
        );
        // One child per quantifier slot (t is slot 0, x and y are 1 and 2),
        // and their draws sum to the shared quantifier_values counter.
        assert_eq!(span.children.len(), 2);
        assert_eq!(span.subtree_total("draws"), traced.stats.quantifier_values);
        assert!(span.children.iter().all(|c| c.field("draws").unwrap() > 0));
        // Budget errors classify identically on the traced path.
        let starved = EvalConfig {
            max_steps: 5,
            ..EvalConfig::default()
        };
        assert_eq!(
            compiled
                .eval_ctx(&db, &[], &starved, &ctx(1, true))
                .unwrap_err(),
            compiled.eval_full(&db, &starved).unwrap_err()
        );
    }

    #[test]
    fn parallel_evaluation_matches_sequential_exactly() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("Tom", "Mary"), ("Mary", "Sue"), ("Sue", "Ann")]);
        let q = grandparent_query();
        let compiled = compile(&q).unwrap();
        let config = EvalConfig::default();
        let sequential = compiled.eval_full(&db, &config).unwrap();
        assert_eq!(sequential.partitions, 0);
        for workers in [2, 3, 8, 64] {
            let (parallel, span) = compiled
                .eval_ctx(&db, &[], &config, &ctx(workers, true))
                .unwrap();
            assert_eq!(sequential.result, parallel.result);
            let (s, p) = (&sequential.stats, &parallel.stats);
            assert_eq!(s.steps, p.steps, "workers {workers}");
            assert_eq!(s.quantifier_values, p.quantifier_values);
            assert_eq!(s.candidates_checked, p.candidates_checked);
            assert_eq!(s.max_domain_seen, p.max_domain_seen);
            // Partition ranges tile the candidate space exactly once.
            let span = span.expect("traced runs return a span");
            assert_eq!(span.children.len() as u64, parallel.partitions);
            let mut covered = 0;
            for part in &span.children {
                assert_eq!(part.field("rank_start"), Some(covered));
                covered = part.field("rank_end").unwrap();
            }
            assert_eq!(covered, s.candidates_checked);
        }
    }

    #[test]
    fn parallel_budget_errors_reconstruct_the_sequential_classification() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b"), ("b", "c"), ("c", "d")]);
        let q = grandparent_query();
        let compiled = compile(&q).unwrap();
        // Step budget: every worker count must surface the sequential error.
        let starved = EvalConfig {
            max_steps: 50,
            ..EvalConfig::default()
        };
        let sequential = compiled.eval_full(&db, &starved).unwrap_err();
        for workers in [2, 3, 8] {
            let parallel = compiled
                .eval_ctx(&db, &[], &starved, &ctx(workers, false))
                .unwrap_err();
            assert_eq!(sequential, parallel, "workers {workers}");
            assert_eq!(sequential.to_string(), parallel.to_string());
        }
        // Candidate and quantifier-domain budgets classify identically too.
        let big_quantifier = Query::new(
            "t",
            Type::flat_tuple(2),
            Formula::exists(
                "x",
                Type::set(Type::flat_tuple(2)),
                Formula::member(Term::var("t"), Term::var("x")),
            ),
            par_schema(),
        )
        .unwrap();
        let compiled_big = compile(&big_quantifier).unwrap();
        let tiny = EvalConfig::tiny();
        let sequential = compiled_big.eval_full(&db, &tiny).unwrap_err();
        for workers in [2, 8] {
            let parallel = compiled_big
                .eval_ctx(&db, &[], &tiny, &ctx(workers, false))
                .unwrap_err();
            assert_eq!(sequential, parallel);
        }
    }

    #[test]
    fn parallel_resource_trips_surface_the_canonical_messages() {
        use itq_object::CancelFlag;
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b"), ("b", "c")]);
        let compiled = compile(&grandparent_query()).unwrap();
        let flag = CancelFlag::new();
        flag.cancel();
        let cancelled = Interrupt::new().with_cancel(flag);
        let expired = Interrupt::new().with_deadline_millis(0);
        for (interrupt, message) in [
            (&cancelled, "execution cancelled"),
            (&expired, "execution deadline of 0 ms exceeded"),
        ] {
            let governed = ExecCtx {
                interrupt,
                ..ctx(4, false)
            };
            let err = compiled
                .eval_ctx(&db, &[], &EvalConfig::default(), &governed)
                .unwrap_err();
            assert_eq!(err.to_string(), message);
        }
    }

    #[test]
    fn parallel_trace_breaks_the_evaluation_down_by_partition() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("Tom", "Mary"), ("Mary", "Sue")]);
        let compiled = compile(&grandparent_query()).unwrap();
        let config = EvalConfig::default();
        let (evaluation, span) = compiled.eval_ctx(&db, &[], &config, &ctx(3, true)).unwrap();
        let span = span.expect("traced runs return a span");
        assert_eq!(span.name, "compiled-eval");
        assert_eq!(span.field("partitions"), Some(3));
        assert_eq!(evaluation.partitions, 3);
        assert_eq!(span.children.len(), 3);
        assert_eq!(
            span.subtree_total("candidates_checked"),
            2 * evaluation.stats.candidates_checked,
            "root field plus the partition children summing to the same total"
        );
        let plain = compiled.eval_full(&db, &config).unwrap();
        assert_eq!(plain.result, evaluation.result);
        // Untraced, the same partitioned run reports the same evaluation.
        let (untraced, none) = compiled
            .eval_ctx(&db, &[], &config, &ctx(3, false))
            .unwrap();
        assert!(none.is_none());
        assert_eq!(untraced.result, evaluation.result);
        assert_eq!(untraced.partitions, 3);
    }

    #[test]
    fn parallel_compiled_is_a_drop_in_evaluable_backend() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("Tom", "Mary"), ("Mary", "Sue")]);
        let compiled = compile(&grandparent_query()).unwrap();
        // The invention drivers see backends only through `&dyn Evaluable`;
        // the worker count reaches the partitioned loop through the context.
        let backend: &dyn Evaluable = &compiled;
        let ctx = ExecCtx {
            workers: 4,
            ..ExecCtx::default()
        };
        let (partitioned, _) = backend
            .eval_ctx(&db, &[], &EvalConfig::default(), &ctx)
            .unwrap();
        let sequential = compiled.eval_full(&db, &EvalConfig::default()).unwrap();
        assert_eq!(partitioned.result, sequential.result);
        assert_eq!(partitioned.stats.steps, sequential.stats.steps);
        assert_eq!(partitioned.partitions, 4);
    }

    #[test]
    fn eval_with_extra_extends_the_range() {
        let q = Query::new(
            "t",
            Type::Atomic,
            Formula::truth(),
            Schema::single("R", Type::Atomic),
        )
        .unwrap();
        let db = Database::single("R", Instance::from_atoms(vec![Atom(0)]));
        let compiled = compile(&q).unwrap();
        let plain = compiled.eval_full(&db, &EvalConfig::default()).unwrap();
        assert_eq!(plain.result.len(), 1);
        let (extended, _) = compiled
            .eval_ctx(
                &db,
                &[Atom(100), Atom(101)],
                &EvalConfig::default(),
                &ExecCtx::default(),
            )
            .unwrap();
        assert_eq!(extended.result.len(), 3);
        // The evaluation domain itself matches the source query's.
        assert_eq!(
            Evaluable::evaluation_domain(&compiled, &db),
            q.evaluation_domain(&db)
        );
    }
}
