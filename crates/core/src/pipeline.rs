//! The prepare-once / execute-many pipeline.
//!
//! The paper separates a query's *static* life — type-checking (is the body a
//! t-wff?), `CALC_{k,i}` classification (Section 3), normal forms (Section 4),
//! and the algebra → calculus compilation of Theorem 3.8 — from its *dynamic*
//! life: evaluation under the limited interpretation or the invented-value
//! semantics of Section 6.  This module gives that split an API:
//!
//! * [`EngineBuilder`] configures an [`Engine`] once: its plan settings
//!   (budgets, the invention bound, the algebra planner), its universe,
//!   resource governance, the worker count;
//! * [`Engine::prepare`] / [`Engine::prepare_algebra`] do *all* static work
//!   exactly once and cache the derived artifacts in a [`Prepared`] handle;
//! * [`Prepared::execute`] runs the handle on a database under any
//!   [`Semantics`] through `&self` — cheap, repeatable, and shareable — and
//!   returns one unified [`QueryOutcome`] carrying the answer, the semantics
//!   used, the boundedness flag, and an [`ExecStats`] block.
//!
//! A handle's static half is one immutable value behind an `Arc`: copies of
//! a handle — a session's, a plan cache's, a re-budgeted one — share it, and
//! differ only in their governor and worker count.  Nothing in it depends on
//! a universe: invention semantics take their fresh atoms directly above the
//! largest atom of the evaluation domain (Proposition 6.1 makes the choice of
//! fresh atoms irrelevant), so executing never mutates shared state.
//!
//! A calculus query in the conjunctive fragment of `CALC_{0,0}` needs no
//! quantifier enumeration at all: prepare lowers it straight to a σ/π/×
//! expression over its relations, plans that once, and the limited
//! interpretation then runs as hash joins (root span
//! `planned-calculus`).  A least-fixpoint query of `CALC_{0,1}` — such as the
//! Example 3.1 closure, `{t | ∀X/{T} (φ(X) → t ∈ X)}` with `φ` Horn
//! conditions and element-wise guards — needs no enumeration of its `2^n`
//! candidate sets either: prepare lowers `φ` to a Datalog program, and the
//! limited interpretation computes its least model semi-naively, then checks
//! the guards on each element (root span `least-fixpoint`).  Both fragments
//! are level-invariant — invented atoms change neither answer (the argument
//! is in `lowering.rs`) — so one run of the route states the invention
//! outcomes too: `Q^fi` is its answer, stable from level 1, and `Q^ti` is
//! undefined within the bound; the traced ladder nests the route's span
//! under `Q|_0[d]`.  Every other calculus execution runs the compiled slot
//! evaluator, at every invention level under the invention semantics.  Only
//! calculus handles under default budgets take the routes, so budget errors
//! keep their enumeration text.  An algebra handle never
//! enumerates: invented atoms never change an expression's answer (the
//! argument is in [`mod@itq_algebra::to_calculus`]), so one run of its plan
//! (`planned-algebra`), or of the tuple-at-a-time evaluator (`tuple-algebra`),
//! answers all three semantics, under the algebra budget.
//!
//! A handle is defined on the instances of its schema.  An execution on a
//! database where a relation the handle reads holds a value of another type
//! fails with [`EngineError::Nonconforming`] before it computes anything from
//! that relation, on every backend and under every semantics.
//!
//! ```
//! use itq_core::prelude::*;
//! use itq_core::queries;
//!
//! let engine = Engine::builder().max_invented(2).build();
//! let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
//! assert_eq!(prepared.classification().minimal_class, CalcClass::relational());
//!
//! // One handle, many executions — no static work is repeated.
//! let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
//! for semantics in Semantics::ALL {
//!     let outcome = prepared.execute(&db, semantics).unwrap();
//!     assert_eq!(outcome.semantics, semantics);
//! }
//! ```

use crate::engine::{Engine, EngineError, GovernorConfig, PlanSettings, Semantics};
use crate::lowering::{self, LeastFixpoint};
use itq_algebra::{to_calculus_typing, AlgExpr, EvalConfig as AlgConfig, PhysicalPlan, Typing};
use itq_calculus::eval::{EvalConfig, Evaluable};
use itq_calculus::{CompiledQuery, Query, QueryClassification};
use itq_invention::{finite_invention_ctx, level_span, terminal_invention_ctx, TerminalOutcome};
use itq_object::{
    conform, CancelFlag, Database, ExecCtx, Instance, Interrupt, PredName, Schema, Type, Universe,
};
use itq_relational::Program;
use itq_trace::{Span, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The default in-query worker count: `1` (sequential) unless the
/// `ITQ_PARALLELISM` environment variable names a larger count.  Read once
/// per engine construction, so the test pyramid and the benchmark harness can
/// re-run every suite under `parallelism(n)` without touching call sites.
pub(crate) fn default_parallelism() -> usize {
    std::env::var("ITQ_PARALLELISM")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&workers| workers >= 1)
        .unwrap_or(1)
}

/// Configures and builds an [`Engine`]: its [`PlanSettings`] (evaluation
/// budgets, the invention bound, the algebra planner), resource governance,
/// the worker count, and the universe.  The builder is the engine under
/// construction: each method sets one of its values.  No option selects the
/// calculus evaluator: every handle runs the compiled slots, or the route its
/// query lowers to.
///
/// ```
/// use itq_core::prelude::*;
///
/// let engine = Engine::builder()
///     .calc_config(EvalConfig::default())
///     .max_invented(3)
///     .build();
/// assert_eq!(engine.max_invented(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    engine: Engine,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            engine: Engine {
                settings: PlanSettings::default(),
                governor: GovernorConfig::default(),
                parallelism: default_parallelism(),
                universe: Universe::default(),
            },
        }
    }
}

impl EngineBuilder {
    /// A builder with default budgets and an empty universe.
    ///
    /// ```
    /// use itq_core::pipeline::EngineBuilder;
    /// let engine = EngineBuilder::new().build();
    /// assert!(engine.universe().is_empty());
    /// ```
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Set the calculus-evaluation budgets, under which the limited
    /// interpretation and every invention level run.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().calc_config(EvalConfig::tiny()).build();
    /// assert_eq!(engine.calc_config().max_steps, EvalConfig::tiny().max_steps);
    /// ```
    pub fn calc_config(mut self, config: EvalConfig) -> EngineBuilder {
        self.engine.settings.calc = config;
        self
    }

    /// Set the algebra-evaluation budgets.
    ///
    /// ```
    /// use itq_algebra::EvalConfig as AlgConfig;
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().alg_config(AlgConfig::default()).build();
    /// assert_eq!(engine.alg_config(), &AlgConfig::default());
    /// ```
    pub fn alg_config(mut self, config: AlgConfig) -> EngineBuilder {
        self.engine.settings.alg = config;
        self
    }

    /// Bound the number of invented values the Section 6 semantics may try:
    /// they search the levels `0..=levels` (default
    /// [`DEFAULT_MAX_INVENTED`](itq_invention::DEFAULT_MAX_INVENTED)), each
    /// under the calculus budgets.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().max_invented(7).build();
    /// assert_eq!(engine.max_invented(), 7);
    /// ```
    pub fn max_invented(mut self, levels: usize) -> EngineBuilder {
        self.engine.settings.max_invented = levels;
        self
    }

    /// Select the execution path for prepared *algebra* handles, whose one
    /// run answers every semantics: `true` (the default) runs the set-at-a-time
    /// physical plan built at prepare time (joins extracted, selections
    /// pushed down, projections fused — see [`mod@itq_algebra::plan`]); `false`
    /// runs the legacy tuple-at-a-time evaluator — kept so the planner's
    /// speedup can be measured as an ablation (E14) and differential-tested
    /// (`tests/backend_differential.rs`).
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// assert!(Engine::builder().build().use_algebra_planner());
    /// let tuple_at_a_time = Engine::builder().use_algebra_planner(false).build();
    /// assert!(!tuple_at_a_time.use_algebra_planner());
    /// ```
    pub fn use_algebra_planner(mut self, enabled: bool) -> EngineBuilder {
        self.engine.settings.use_algebra_planner = enabled;
        self
    }

    /// Adopt a full resource-governance configuration in one call (the
    /// per-knob builders below cover the common cases).
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder()
    ///     .governor(GovernorConfig { memory_ceiling: Some(1 << 20), ..Default::default() })
    ///     .build();
    /// assert_eq!(engine.governor().memory_ceiling, Some(1 << 20));
    /// ```
    pub fn governor(mut self, governor: GovernorConfig) -> EngineBuilder {
        self.engine.governor = governor;
        self
    }

    /// Arm a wall-clock deadline (in milliseconds) for every execution made
    /// through handles prepared by this engine.  Each execution starts its
    /// own clock; `0` trips at the first interrupt poll, which makes the
    /// deadline path deterministically testable.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().deadline_millis(250).build();
    /// assert_eq!(engine.governor().deadline_millis, Some(250));
    /// ```
    pub fn deadline_millis(mut self, millis: u64) -> EngineBuilder {
        self.engine.governor.deadline_millis = Some(millis);
        self
    }

    /// Arm a ceiling (in bytes) over the values interned by one execution's
    /// value store and domain cache.  Every calculus execution (the compiled
    /// slots and both routes) and the planned algebra meter it; the
    /// tuple-at-a-time algebra evaluator (`use_algebra_planner(false)`) never
    /// interns, so it never trips, under any semantics.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().memory_ceiling(64 * 1024).build();
    /// assert_eq!(engine.governor().memory_ceiling, Some(64 * 1024));
    /// ```
    pub fn memory_ceiling(mut self, bytes: u64) -> EngineBuilder {
        self.engine.governor.memory_ceiling = Some(bytes);
        self
    }

    /// Link a cross-thread cancellation flag: raising it stops any execution
    /// made through this engine's handles at its next interrupt poll.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let flag = CancelFlag::new();
    /// let engine = Engine::builder().cancel_flag(flag.clone()).build();
    /// assert!(engine.governor().cancel.is_some());
    /// ```
    pub fn cancel_flag(mut self, flag: CancelFlag) -> EngineBuilder {
        self.engine.governor.cancel = Some(flag);
        self
    }

    /// Set the in-query worker count: the compiled evaluator partitions its
    /// candidate loop (at every invention level, too) across this many scoped
    /// threads; the other backends run sequentially at any setting.  `1` (the
    /// default) is the sequential ablation — answers, governor error
    /// messages, and the deterministic counters of the partitioned path are
    /// byte-identical at every setting, so this knob trades wall-clock only.
    /// The default honours the
    /// `ITQ_PARALLELISM` environment variable, letting whole test/benchmark
    /// sweeps re-run parallel without code changes.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().parallelism(4).build();
    /// assert_eq!(engine.parallelism(), 4);
    /// assert_eq!(Engine::builder().parallelism(0).build().parallelism(), 1);
    /// ```
    pub fn parallelism(mut self, workers: usize) -> EngineBuilder {
        self.engine.parallelism = workers.max(1);
        self
    }

    /// Adopt an already-populated universe (e.g. one a workload generator
    /// interned its atoms into).
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let mut universe = Universe::new();
    /// universe.atom("Tom");
    /// let engine = Engine::builder().universe(universe).build();
    /// assert!(engine.universe().lookup("Tom").is_some());
    /// ```
    pub fn universe(mut self, universe: Universe) -> EngineBuilder {
        self.engine.universe = universe;
        self
    }

    /// Finish: produce the configured [`Engine`].
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().build();
    /// assert_eq!(engine.calc_config(), &EvalConfig::default());
    /// ```
    pub fn build(self) -> Engine {
        self.engine
    }
}

/// Wall-clock timings of the *static* (prepare-time) phases, recorded once
/// per [`Engine::prepare`] / [`Engine::prepare_algebra`] call and cached on
/// the [`Prepared`] handle — the observability counterpart to [`ExecStats`]
/// for the other half of the prepare-once / execute-many split.
///
/// ```
/// use itq_core::prelude::*;
/// use itq_core::queries;
///
/// let query = queries::excluding_parent_pairs(&queries::grandparent_query());
/// let prepared = Engine::new().prepare(&query).unwrap();
/// let stats = prepared.prepare_stats();
/// // Calculus handles outside the conjunctive fragment are never planned,
/// // and a calculus query was type-checked when it was built.
/// assert_eq!(stats.typecheck_micros, 0);
/// assert_eq!(stats.plan_micros, 0);
/// let span = stats.to_span();
/// assert_eq!(span.name, "prepare");
/// assert_eq!(span.children.len(), 6);
/// assert_eq!(span.wall_micros, stats.total_micros());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// For algebra handles: type inference plus the Theorem 3.8 translation
    /// into the calculus.  0 for calculus handles, whose queries were
    /// type-checked when they were built.
    pub typecheck_micros: u64,
    /// Building the set-at-a-time physical plan (join extraction, selection
    /// pushdown, projection fusion): for every algebra handle, and for a
    /// calculus handle whose query lowered to a conjunctive expression.  0
    /// for every other calculus handle.
    pub plan_micros: u64,
    /// The `CALC_{k,i}` classification (Section 3).
    pub classify_micros: u64,
    /// For a calculus handle under default budgets, the attempts to lower it
    /// to a least-fixpoint program or to a conjunctive σ/π/× expression
    /// (normal forms of the route); 0 for every other handle.
    pub normalize_micros: u64,
    /// Lowering into the slot-based compiled evaluator: 0 for algebra
    /// handles, which never compile.
    pub compile_micros: u64,
    /// The static-analysis pass pipeline ([`itq_analyze`]) over the query or
    /// algebra expression, whose report is cached on the handle (see
    /// [`Prepared::diagnostics`]).
    pub analyze_micros: u64,
}

impl PrepareStats {
    /// Total prepare-time wall clock: the sum of every phase.
    pub fn total_micros(&self) -> u64 {
        self.typecheck_micros
            + self.plan_micros
            + self.classify_micros
            + self.normalize_micros
            + self.compile_micros
            + self.analyze_micros
    }

    /// Render as a trace [`Span`]: a `prepare` root with one child per phase,
    /// in execution order.
    pub fn to_span(&self) -> Span {
        let mut root = Span::new("prepare");
        root.wall_micros = self.total_micros();
        for (name, micros) in [
            ("typecheck", self.typecheck_micros),
            ("plan", self.plan_micros),
            ("classify", self.classify_micros),
            ("normalize", self.normalize_micros),
            ("compile", self.compile_micros),
            ("analyze", self.analyze_micros),
        ] {
            let mut child = Span::new(name);
            child.wall_micros = micros;
            root.push_child(child);
        }
        root
    }
}

/// The counter block of an execution, defined in itq-object next to
/// [`ExecCtx`] so that every backend fills it: a [`QueryOutcome`] carries the
/// one its execution filled, stamped with the governor's polls and the wall
/// clock.
///
/// ```
/// use itq_core::prelude::*;
/// use itq_core::queries;
///
/// let engine = Engine::new();
/// let query = queries::excluding_parent_pairs(&queries::grandparent_query());
/// let prepared = engine.prepare(&query).unwrap();
/// let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
/// let outcome = prepared.execute(&db, Semantics::Limited).unwrap();
/// assert!(outcome.stats.steps > 0);
/// assert!(outcome.stats.candidates_checked >= 9); // 3 atoms → 9 candidate pairs
/// assert_eq!(outcome.stats.invention_levels, 0); // no invention under `limited`
/// ```
pub use itq_object::ExecStats;

/// The unified result of executing a prepared query: one shape for all three
/// semantics.  An enumerated handle folds its backend's result into it (an
/// `Evaluation`, a `FiniteInventionReport` or a `TerminalOutcome`); a routed
/// handle, every algebra handle among them, builds it from its one run.
///
/// ```
/// use itq_core::prelude::*;
/// use itq_core::queries;
///
/// let engine = Engine::new();
/// let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
/// let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
///
/// let limited = prepared.execute(&db, Semantics::Limited).unwrap();
/// assert_eq!(limited.result.len(), 1);
/// assert!(!limited.bounded_approximation);
///
/// // Terminal invention on a guarded query is the paper's `?` (undefined):
/// // empty answer, bounded flag set, and no defining level.
/// let terminal = prepared.execute(&db, Semantics::TerminalInvention).unwrap();
/// assert!(terminal.bounded_approximation && terminal.defined_at.is_none());
/// ```
#[must_use]
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The answer instance.
    pub result: Instance,
    /// The semantics this outcome was computed under.
    pub semantics: Semantics,
    /// True if the semantics was only decided up to its bound: the finite-
    /// invention union had not stabilised within `max_invented` levels, or
    /// terminal invention came back undefined within the bound.
    pub bounded_approximation: bool,
    /// Terminal invention only: the least `n` at which the unrestricted answer
    /// surfaced an invented value (Theorem 6.19).
    pub defined_at: Option<usize>,
    /// Finite invention only: the smallest `n` after which no new answer
    /// appeared within the bound.
    pub stabilised_at: Option<usize>,
    /// Execution statistics for this call.
    pub stats: ExecStats,
    /// True when the least-fixpoint route answered, so that `result` is the
    /// least model of the handle's rules: what a watched view extends.
    pub(crate) least_model: bool,
}

impl QueryOutcome {
    /// An outcome with no invention flag set and no least model.
    fn new(result: Instance, semantics: Semantics, stats: ExecStats) -> QueryOutcome {
        QueryOutcome {
            result,
            semantics,
            bounded_approximation: false,
            defined_at: None,
            stabilised_at: None,
            stats,
            least_model: false,
        }
    }
}

/// Which language the handle was prepared from, and what its executions run.
#[derive(Debug)]
enum PreparedSource {
    /// A calculus query, evaluated by one run of `route` under every
    /// semantics when the query lowered to one (default budgets only, so
    /// budget errors keep their enumeration text), and otherwise by
    /// `compiled`, at every invention level under the invention semantics.
    Calculus {
        route: Option<CalculusRoute>,
        /// The slot-based lowering of the query, produced once at prepare
        /// time.
        compiled: CompiledQuery,
    },
    /// An algebra expression and its set-at-a-time physical plan (planned
    /// once, at prepare time).  One run of the plan, or of the expression's
    /// tuple-at-a-time evaluator, answers every semantics.  The schema both
    /// read is the handle's query's: the Theorem 3.8 translation embeds the
    /// schema the expression was typed against.
    Algebra {
        expr: AlgExpr,
        plan: Box<PhysicalPlan>,
    },
}

/// How a calculus handle answers without enumerating its quantifier
/// domains: one run of the limited interpretation, which every invention
/// level shares.
#[derive(Debug)]
enum CalculusRoute {
    /// A conjunctive query's σ/π/× expression, planned into hash joins.
    Planned(Box<PhysicalPlan>),
    /// A least-fixpoint query's program and guards.
    LeastFixpoint(Box<LeastFixpoint>),
}

/// A query with all its static work done: type-checked, classified,
/// normalized, planned or compiled, and bundled with a snapshot of the
/// engine's configuration — ready to execute any number of times.
///
/// Handles are created by [`Engine::prepare`] and [`Engine::prepare_algebra`];
/// [`Prepared::execute`] takes `&self`, so one handle can serve concurrent
/// readers (e.g. a REPL session caching a handle per named query).  Cloning
/// a handle copies an `Arc` of its static half plus its governor and worker
/// count, never the compiled forms.
///
/// ```
/// use itq_core::prelude::*;
/// use itq_core::queries;
///
/// let engine = Engine::new();
/// let prepared = engine.prepare(&queries::transitive_closure_query()).unwrap();
/// // Static artifacts are cached in the handle:
/// assert_eq!(prepared.classification().minimal_class, CalcClass::second_order());
/// assert!(prepared.least_fixpoint().is_some());
/// ```
#[must_use]
#[derive(Debug, Clone)]
pub struct Prepared {
    shared: Arc<StaticHalf>,
    /// Resource-governance snapshot: each execution arms a fresh
    /// [`Interrupt`] from it (or threads the shared disarmed one).
    governor: GovernorConfig,
    /// In-query worker count snapshot (see [`EngineBuilder::parallelism`]).
    parallelism: usize,
}

/// Everything prepare computed for one statement under one engine
/// configuration: immutable once built and, its timings aside, a function of
/// that statement and configuration alone.
#[derive(Debug)]
struct StaticHalf {
    source: PreparedSource,
    /// The calculus query: for an algebra handle, its Theorem 3.8
    /// translation, which classification reads.
    query: Query,
    /// Wall-clock timings of the prepare phases that built this handle.
    prepare_stats: PrepareStats,
    classification: QueryClassification,
    /// The static-analysis report computed at prepare time (unused variables,
    /// foldable subformulas, budget forecasts, stratum report — see
    /// [`itq_analyze`]).
    diagnostics: itq_analyze::Report,
    /// The engine's plan settings when it prepared this handle.
    settings: PlanSettings,
    /// The relations each execution checks before its first step, with
    /// their declared types: every relation the handle reads, or none on a
    /// planned algebra handle, whose plan checks each one at its scan as it
    /// copies it.  A planned calculus handle checks them all: its plan stops
    /// at a relation missing from the database, and the enumeration then
    /// reads the others.
    reads: Vec<(PredName, Type)>,
}

impl Engine {
    /// Prepare a calculus query: classify it into its minimal `CALC_{k,i}`
    /// family, lower it to its route where it has one, compile it, and
    /// snapshot the engine configuration into a reusable [`Prepared`] handle.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    ///
    /// let engine = Engine::new();
    /// let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
    /// let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
    /// let outcome = prepared.execute(&db, Semantics::Limited).unwrap();
    /// assert_eq!(outcome.result.len(), 1);
    /// ```
    pub fn prepare(&self, query: &Query) -> Result<Prepared, EngineError> {
        // Every `Query` was type-checked when it was built (`Query::new` and
        // `Query::with_body` check, and its fields are private), so prepare
        // does not check it again.
        Ok(self.prepared_from(None, query.clone(), 0, 0))
    }

    /// Prepare an algebra expression: type it once, plan it, translate it
    /// into an equivalent calculus query (Theorem 3.8, done exactly once),
    /// and bundle both into a [`Prepared`] handle.  The planner, the
    /// translation and the analyzer read the one typing.  One run of the plan
    /// answers every semantics; the classification artifacts read the
    /// translation.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    ///
    /// let engine = Engine::new();
    /// let expr = AlgExpr::pred("PAR")
    ///     .product(AlgExpr::pred("PAR"))
    ///     .select(SelFormula::coords_eq(2, 3))
    ///     .project(vec![1, 4]);
    /// let prepared = engine.prepare_algebra(&expr, &queries::parent_schema()).unwrap();
    /// let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
    /// assert_eq!(prepared.execute(&db, Semantics::Limited).unwrap().result.len(), 1);
    /// ```
    pub fn prepare_algebra(
        &self,
        expr: &AlgExpr,
        schema: &Schema,
    ) -> Result<Prepared, EngineError> {
        // Type the expression once; planning lowers it into the
        // set-at-a-time physical plan, flat or not, and the translation
        // reads the same record.
        let phase = Instant::now();
        let typing = Typing::new(expr, schema);
        let mut typecheck_micros = phase.elapsed().as_micros() as u64;
        let phase = Instant::now();
        let plan = Box::new(itq_algebra::plan_typing(expr, &typing)?);
        let plan_micros = phase.elapsed().as_micros() as u64;
        let phase = Instant::now();
        let query = to_calculus_typing(expr, &typing, schema)?;
        typecheck_micros += phase.elapsed().as_micros() as u64;
        Ok(self.prepared_from(
            Some((expr.clone(), plan, &typing)),
            query,
            typecheck_micros,
            plan_micros,
        ))
    }

    /// Cache the static artifacts and configuration snapshot into a handle:
    /// an algebra handle's when `algebra` holds its expression, plan and
    /// typing, a calculus handle's otherwise.  A calculus query is compiled
    /// to slots; under default budgets, one in the conjunctive fragment is
    /// also lowered to its σ/π/× expression (a normal form), which is planned
    /// set-at-a-time, and a least-fixpoint query is lowered to its Datalog
    /// program and guards.
    fn prepared_from(
        &self,
        algebra: Option<(AlgExpr, Box<PhysicalPlan>, &Typing)>,
        query: Query,
        typecheck_micros: u64,
        mut plan_micros: u64,
    ) -> Prepared {
        let phase = Instant::now();
        let classification = query.classification();
        let classify_micros = phase.elapsed().as_micros() as u64;
        let phase = Instant::now();
        let (mut route, mut conjunctive) = (None, None);
        if algebra.is_none() && self.settings.default_budgets() {
            match lowering::lower_least_fixpoint(&query) {
                Some(fixpoint) => route = Some(CalculusRoute::LeastFixpoint(Box::new(fixpoint))),
                None => conjunctive = lowering::lower_to_algebra(&query),
            }
        }
        let normalize_micros = phase.elapsed().as_micros() as u64;
        if let Some(expr) = conjunctive {
            let phase = Instant::now();
            route = itq_algebra::plan(&expr, query.schema())
                .ok()
                .map(|plan| CalculusRoute::Planned(Box::new(plan)));
            plan_micros = phase.elapsed().as_micros() as u64;
        }
        let typing = algebra.as_ref().map(|&(_, _, typing)| typing);
        let (source, compile_micros) = match algebra {
            Some((expr, plan, _)) => (PreparedSource::Algebra { expr, plan }, 0),
            None => {
                let phase = Instant::now();
                let compiled = itq_calculus::compile::compile(&query)
                    .expect("a validated query always lowers to its compiled form");
                let compile_micros = phase.elapsed().as_micros() as u64;
                (PreparedSource::Calculus { route, compiled }, compile_micros)
            }
        };
        // An algebra handle's query is its Theorem 3.8 translation, which
        // reads the relations its expression reads.
        let reads = match &source {
            PreparedSource::Algebra { .. } if self.settings.use_algebra_planner => Vec::new(),
            _ => (query.body().predicates().into_iter())
                .filter_map(|name| {
                    let ty = query.schema().type_of(&name)?.clone();
                    Some((name, ty))
                })
                .collect(),
        };
        let phase = Instant::now();
        let budgets = self.settings.budgets();
        let diagnostics = match (&source, typing) {
            (PreparedSource::Algebra { expr, .. }, Some(typing)) => {
                itq_analyze::analyze_algebra_typing(expr, typing, query.schema(), &budgets)
            }
            _ => itq_analyze::analyze_query(&query, &budgets),
        };
        let analyze_micros = phase.elapsed().as_micros() as u64;
        let prepare_stats = PrepareStats {
            typecheck_micros,
            plan_micros,
            classify_micros,
            normalize_micros,
            compile_micros,
            analyze_micros,
        };
        let shared = StaticHalf {
            source,
            query,
            prepare_stats,
            classification,
            diagnostics,
            settings: self.settings,
            reads,
        };
        Prepared {
            shared: Arc::new(shared),
            governor: self.governor.clone(),
            parallelism: self.parallelism,
        }
    }
}

impl Prepared {
    /// The calculus query of this handle: the one it was prepared from, or
    /// for algebra inputs the Theorem 3.8 translation, which classification
    /// reads and no execution runs.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let q = queries::grandparent_query();
    /// let prepared = Engine::new().prepare(&q).unwrap();
    /// assert_eq!(prepared.query(), &q);
    /// ```
    pub fn query(&self) -> &Query {
        &self.shared.query
    }

    /// Wall-clock timings of the static phases that built this handle
    /// (type-checking, planning, classification, normal forms, compilation).
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let engine = Engine::new();
    /// let expr = AlgExpr::pred("PAR").powerset();
    /// let algebra = engine.prepare_algebra(&expr, &queries::parent_schema()).unwrap();
    /// let query = queries::excluding_parent_pairs(&queries::grandparent_query());
    /// let calculus = engine.prepare(&query).unwrap();
    /// // Calculus queries outside the conjunctive fragment skip the planner.
    /// assert_eq!(calculus.prepare_stats().plan_micros, 0);
    /// assert_eq!(algebra.prepare_stats().to_span().children.len(), 6);
    /// ```
    pub fn prepare_stats(&self) -> &PrepareStats {
        &self.shared.prepare_stats
    }

    /// The static-analysis report computed once at prepare time: unused or
    /// shadowed quantified variables, always-true/always-false subformulas,
    /// budget forecasts, and the `CALC_{k,i}` stratum report.  Analysis is
    /// purely observational — it never changes what [`Prepared::execute`]
    /// computes.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let prepared = Engine::new().prepare(&queries::grandparent_query()).unwrap();
    /// // A clean query still carries its Info-level stratum report.
    /// let report = prepared.diagnostics();
    /// assert_eq!(report.max_severity(), Some(itq_analyze::Severity::Info));
    /// ```
    pub fn diagnostics(&self) -> &itq_analyze::Report {
        &self.shared.diagnostics
    }

    /// The resource-governance snapshot this handle executes under (taken
    /// from the engine at prepare time, exactly like the budgets).
    pub fn governor(&self) -> &GovernorConfig {
        &self.governor
    }

    /// A copy of this handle executing under a different resource-governance
    /// configuration — all static artifacts (type-checking, classification,
    /// the compiled form, the physical plan) are shared through the same
    /// `Arc`, neither redone nor copied.  This is how a multi-session server
    /// re-budgets one cached plan per request: the plan is prepared once, and
    /// each session's deadline / memory ceiling / cancellation flag is applied
    /// to its own copy, so one session tripping its budget can never affect
    /// another session running the same plan.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let shared = Engine::new().prepare(&queries::grandparent_query()).unwrap();
    /// let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
    /// let strict = shared.with_governor(GovernorConfig {
    ///     deadline_millis: Some(0),
    ///     ..Default::default()
    /// });
    /// assert!(strict.execute(&db, Semantics::Limited).is_err());
    /// // The original handle is untouched by the sibling's trip.
    /// assert_eq!(shared.execute(&db, Semantics::Limited).unwrap().result.len(), 1);
    /// ```
    pub fn with_governor(&self, governor: GovernorConfig) -> Prepared {
        Prepared {
            governor,
            ..self.clone()
        }
    }

    /// A copy of this handle executing with a different in-query worker
    /// count, sharing its static half — how an ablation sweep (or
    /// `report --parallel-json`) varies the thread count without paying
    /// prepare time per point.
    pub fn with_parallelism(&self, workers: usize) -> Prepared {
        Prepared {
            parallelism: workers.max(1),
            ..self.clone()
        }
    }

    /// The in-query worker count snapshotted into this handle.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The worker count an execution actually partitions across.  Fault
    /// injection (`trip_after`) counts governor polls on one shared counter;
    /// under partitioning the poll interleaving is scheduler-dependent, so a
    /// deterministic trip point requires the sequential path — injection
    /// forces 1 worker.
    fn effective_workers(&self) -> usize {
        if self.governor.trip_after.is_some() {
            1
        } else {
            self.parallelism.max(1)
        }
    }

    /// The cached `CALC_{k,i}` classification, identical to
    /// [`Query::classification`] on [`Prepared::query`].
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let q = queries::even_cardinality_query();
    /// let prepared = Engine::new().prepare(&q).unwrap();
    /// assert_eq!(prepared.classification(), &q.classification());
    /// ```
    pub fn classification(&self) -> &QueryClassification {
        &self.shared.classification
    }

    /// True if this handle was prepared from an algebra expression.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let engine = Engine::new();
    /// assert!(!engine.prepare(&queries::grandparent_query()).unwrap().is_algebra());
    /// let pw = AlgExpr::pred("PAR").powerset();
    /// assert!(engine.prepare_algebra(&pw, &queries::parent_schema()).unwrap().is_algebra());
    /// ```
    pub fn is_algebra(&self) -> bool {
        matches!(self.shared.source, PreparedSource::Algebra { .. })
    }

    /// The original algebra expression, if this handle was prepared from one.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let expr = AlgExpr::pred("PAR").powerset();
    /// let prepared = Engine::new()
    ///     .prepare_algebra(&expr, &queries::parent_schema())
    ///     .unwrap();
    /// assert_eq!(prepared.algebra_expr(), Some(&expr));
    /// ```
    pub fn algebra_expr(&self) -> Option<&AlgExpr> {
        match &self.shared.source {
            PreparedSource::Calculus { .. } => None,
            PreparedSource::Algebra { expr, .. } => Some(expr),
        }
    }

    /// The set-at-a-time physical plan this handle runs, planned once at
    /// prepare time: always for an algebra expression, and under default
    /// budgets for a calculus query in the conjunctive fragment (an ∃-prefix
    /// of flat variables over predicate, `≈` and `¬≈` atoms), from the σ/π/×
    /// expression it lowers to.  One run of the plan answers every
    /// semantics.  The surface language's `plan <name>;` statement
    /// pretty-prints it.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let expr = AlgExpr::pred("PAR")
    ///     .product(AlgExpr::pred("PAR"))
    ///     .select(SelFormula::coords_eq(2, 3))
    ///     .project(vec![1, 4]);
    /// let prepared = Engine::new()
    ///     .prepare_algebra(&expr, &queries::parent_schema())
    ///     .unwrap();
    /// let plan = prepared.physical_plan().unwrap();
    /// assert!(plan.render().contains("hash-join"));
    /// // The calculus grandparent is conjunctive: it plans to the same join.
    /// let calculus = Engine::new().prepare(&queries::grandparent_query()).unwrap();
    /// assert_eq!(calculus.physical_plan().unwrap().render(), plan.render());
    /// // A negated atom leaves the fragment: the compiled slots run it.
    /// let query = queries::excluding_parent_pairs(&queries::grandparent_query());
    /// assert!(Engine::new().prepare(&query).unwrap().physical_plan().is_none());
    /// ```
    pub fn physical_plan(&self) -> Option<&PhysicalPlan> {
        match &self.shared.source {
            PreparedSource::Calculus {
                route: Some(CalculusRoute::Planned(plan)),
                ..
            }
            | PreparedSource::Algebra { plan, .. } => Some(plan),
            PreparedSource::Calculus { .. } => None,
        }
    }

    /// The Datalog program and the number of element-wise guards of a
    /// least-fixpoint query, lowered once at prepare time under default
    /// budgets: the limited interpretation then computes the program's least
    /// model semi-naively and answers it when every guard holds on each
    /// element, and that one run answers every invention level too.  The
    /// surface language's `plan <name>;` statement prints it.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    /// let prepared = Engine::new().prepare(&queries::transitive_closure_query()).unwrap();
    /// // Example 3.1: `PAR ⊆ X`, `X` transitive, and `X` over PAR's atoms.
    /// let (program, guards) = prepared.least_fixpoint().unwrap();
    /// assert_eq!((program.rules.len(), guards), (2, 1));
    /// assert!(prepared.physical_plan().is_none());
    /// ```
    pub fn least_fixpoint(&self) -> Option<(&Program, usize)> {
        self.fixpoint_route()
            .map(|fixpoint| (&fixpoint.program, fixpoint.guards.len()))
    }

    /// The least-fixpoint route, if this handle has one.
    pub(crate) fn fixpoint_route(&self) -> Option<&LeastFixpoint> {
        match &self.shared.source {
            PreparedSource::Calculus {
                route: Some(CalculusRoute::LeastFixpoint(fixpoint)),
                ..
            } => Some(fixpoint),
            _ => None,
        }
    }

    /// Execute the prepared query on `db` under the chosen semantics.
    ///
    /// Takes `&self`: the limited interpretation is read-only by nature, and
    /// the invention semantics take their fresh atoms directly above the
    /// largest atom of the evaluation domain, so no exclusive access is ever
    /// needed — prepare once, execute many, share freely.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    ///
    /// let engine = Engine::new();
    /// let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
    /// // Execute-many over *different* databases with one handle.
    /// for edges in [vec![(Atom(0), Atom(1))], vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]] {
    ///     let db = queries::parent_database(&edges);
    ///     let outcome = prepared.execute(&db, Semantics::Limited).unwrap();
    ///     assert_eq!(outcome.result.len(), edges.len() - 1);
    /// }
    /// ```
    pub fn execute(
        &self,
        db: &Database,
        semantics: Semantics,
    ) -> Result<QueryOutcome, EngineError> {
        self.run(db, semantics, false).0.map(|(outcome, _)| outcome)
    }

    /// [`Prepared::execute`], but the execution statistics are returned even
    /// when the execution fails: on an error the [`ExecStats`] block carries
    /// the wall clock and governor poll count of the failed attempt (its
    /// work counters stay zero — a stopped execution has no meaningful
    /// answer-shaped counters to report).
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    ///
    /// let engine = Engine::builder().deadline_millis(0).build();
    /// let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
    /// let db = queries::parent_database(&[(Atom(0), Atom(1))]);
    /// let (result, stats) = prepared.try_execute(&db, Semantics::Limited);
    /// assert!(result.is_err());
    /// assert!(stats.interrupt_polls >= 1, "the entry poll always runs");
    /// ```
    pub fn try_execute(
        &self,
        db: &Database,
        semantics: Semantics,
    ) -> (Result<QueryOutcome, EngineError>, ExecStats) {
        let (result, stats) = self.run(db, semantics, false);
        (result.map(|(outcome, _)| outcome), stats)
    }

    /// [`Prepared::execute`] plus a trace: the identical [`QueryOutcome`]
    /// together with a [`Span`] tree describing where the execution spent its
    /// work — one operator span per physical-plan node on the planned paths
    /// (under a `planned-algebra` or `planned-calculus` root),
    /// per-quantifier-slot draw counts on the compiled-calculus path, and one
    /// `Q|_n[d]` span per level under the invention semantics (a routed
    /// handle's level 0 nests the route's span).  The root span's
    /// `wall_micros` equals the outcome's [`ExecStats::wall_micros`].
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    ///
    /// // parallelism(1) pins the sequential per-slot span tree; partitioned
    /// // runs replace the slot children with one span per partition.
    /// let engine = Engine::builder().parallelism(1).build();
    /// let query = queries::excluding_parent_pairs(&queries::grandparent_query());
    /// let prepared = engine.prepare(&query).unwrap();
    /// let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);
    /// let (outcome, span) = prepared.execute_traced(&db, Semantics::Limited).unwrap();
    /// assert_eq!(span.name, "compiled-eval");
    /// assert_eq!(span.wall_micros, outcome.stats.wall_micros);
    /// assert_eq!(span.subtree_total("draws"), outcome.stats.quantifier_values);
    /// ```
    pub fn execute_traced(
        &self,
        db: &Database,
        semantics: Semantics,
    ) -> Result<(QueryOutcome, Span), EngineError> {
        self.run(db, semantics, true).0.map(|(outcome, span)| {
            let span = span.expect("traced runs always produce a span");
            (outcome, span)
        })
    }

    /// Execute, recording the trace into `sink` when it is enabled.  With a
    /// disabled sink (e.g. [`itq_trace::NoopSink`]) this short-circuits to
    /// the plain untraced [`Prepared::execute`] path — tracing costs nothing
    /// when it is off.
    pub fn execute_with_sink(
        &self,
        db: &Database,
        semantics: Semantics,
        sink: &dyn TraceSink,
    ) -> Result<QueryOutcome, EngineError> {
        if !sink.is_enabled() {
            return self.execute(db, semantics);
        }
        let (outcome, span) = self.execute_traced(db, semantics)?;
        sink.record(span);
        Ok(outcome)
    }

    /// The shared execute body: the execution context — this run's governor,
    /// worker count, and `traced` — is built once here and handed to every
    /// backend, which turns it into its own hooks.  Answers, flags, and every
    /// counter are byte-identical between traced and untraced runs; only the
    /// trace differs.
    ///
    /// This is also the containment seam: the backend dispatch runs inside
    /// `catch_unwind`, so an engine defect (or an injected
    /// [`TripKind::Panic`]) surfaces as [`EngineError::Internal`] instead of
    /// unwinding through the caller — the handle, the engine, and any
    /// incremental state stay usable afterwards.  The returned [`ExecStats`]
    /// is filled on *every* path: on success it equals the outcome's stats,
    /// on failure it carries the wall clock and governor poll count of the
    /// failed attempt.
    fn run(
        &self,
        db: &Database,
        semantics: Semantics,
        traced: bool,
    ) -> (Result<(QueryOutcome, Option<Span>), EngineError>, ExecStats) {
        let start = Instant::now();
        let armed;
        let interrupt: &Interrupt = if self.governor.is_disarmed() {
            Interrupt::disarmed()
        } else {
            armed = self.governor.interrupt();
            &armed
        };
        let ctx = ExecCtx {
            interrupt,
            workers: self.effective_workers(),
            traced,
        };
        let result = catch_unwind(AssertUnwindSafe(|| self.dispatch(db, semantics, &ctx)));
        let wall_micros = start.elapsed().as_micros() as u64;
        let interrupt_polls = interrupt.polls();
        match result {
            Ok(Ok((mut outcome, mut span))) => {
                outcome.stats.interrupt_polls = interrupt_polls;
                outcome.stats.wall_micros = wall_micros;
                if let Some(span) = span.as_mut() {
                    span.wall_micros = wall_micros;
                }
                let stats = outcome.stats;
                (Ok((outcome, span)), stats)
            }
            Ok(Err(e)) => {
                let stats = ExecStats {
                    interrupt_polls,
                    wall_micros,
                    ..ExecStats::default()
                };
                (Err(e), stats)
            }
            Err(payload) => {
                let stats = ExecStats {
                    interrupt_polls,
                    wall_micros,
                    ..ExecStats::default()
                };
                let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                (Err(EngineError::Internal { detail }), stats)
            }
        }
    }

    /// The backend dispatch proper, running under `run`'s containment seam.
    /// A handle whose route answers ([`Prepared::route`]) states every
    /// semantics' outcome from that one run ([`Routed::outcome`]); every
    /// other handle runs its compiled slots, at each invention level under
    /// the invention semantics.
    fn dispatch(
        &self,
        db: &Database,
        semantics: Semantics,
        ctx: &ExecCtx,
    ) -> Result<(QueryOutcome, Option<Span>), EngineError> {
        let settings = &self.shared.settings;
        let max_invented = settings.max_invented;
        let compiled = match self.route(db, ctx)? {
            Run::Routed(routed) => return Ok(routed.outcome(semantics, max_invented)),
            Run::Enumerated(compiled) => compiled,
        };
        match semantics {
            Semantics::Limited => {
                let (evaluation, span) = compiled.eval_ctx(db, &[], &settings.calc, ctx)?;
                let outcome = QueryOutcome::new(evaluation.result, semantics, evaluation.stats);
                Ok((outcome, span))
            }
            Semantics::FiniteInvention => {
                let (report, stats, levels) =
                    finite_invention_ctx(compiled, db, max_invented, &settings.calc, ctx)?;
                let finite = QueryOutcome {
                    bounded_approximation: report.stabilised_at.is_none(),
                    stabilised_at: report.stabilised_at,
                    ..QueryOutcome::new(report.union, semantics, stats)
                };
                let span = levels.map(|levels| invention_span("finite-invention", &finite, levels));
                Ok((finite, span))
            }
            Semantics::TerminalInvention => {
                let (terminal, stats, levels) =
                    terminal_invention_ctx(compiled, db, max_invented, &settings.calc, ctx)?;
                let terminal = match terminal {
                    TerminalOutcome::Defined { n, answer } => QueryOutcome {
                        defined_at: Some(n),
                        ..QueryOutcome::new(answer, semantics, stats)
                    },
                    TerminalOutcome::UndefinedWithinBound { .. } => QueryOutcome {
                        bounded_approximation: true,
                        ..QueryOutcome::new(Instance::empty(), semantics, stats)
                    },
                };
                let span =
                    levels.map(|levels| invention_span("terminal-invention", &terminal, levels));
                Ok((terminal, span))
            }
        }
    }

    /// Run the handle's route once, if it has one, after refusing a
    /// relation of `db` that the handle reads and that holds a value of
    /// another type than its schema declares: a query is defined only on
    /// the instances of its schema.  The refusal
    /// ([`EngineError::Nonconforming`]) is final, under every semantics.  A
    /// planned algebra handle's plan checks each relation at its scan, as it
    /// copies it; every other handle checks the relations it reads here,
    /// once per execution, skipping any that `db` lacks.
    ///
    /// An algebra handle always has a route: its plan, or its
    /// tuple-at-a-time evaluator under `use_algebra_planner(false)`, and
    /// every error of that run is final.  For a calculus route, a governor
    /// trip is final too; any other calculus route error (a product over its
    /// budget, a relation missing from the database, a guard over its
    /// quantifier budget) is the route's own limit, and the enumeration then
    /// reproduces the handle's outcome — as it does when a guard fails on
    /// the least model.  Calculus routes exist only under default budgets,
    /// so budget errors keep their enumeration text.
    fn route(&self, db: &Database, ctx: &ExecCtx) -> Result<Run<'_>, EngineError> {
        let shared = &*self.shared;
        let settings = &shared.settings;
        for (name, ty) in &shared.reads {
            if let Some(relation) = db.relation(name) {
                conform(name, ty, relation.iter())?;
            }
        }
        let start = ctx.traced.then(Instant::now);
        let (answer, stats, mut span) = match &shared.source {
            PreparedSource::Algebra { plan, .. } if settings.use_algebra_planner => {
                run_plan("planned-algebra", plan, db, settings, ctx)?
            }
            PreparedSource::Algebra { expr, .. } => {
                let (answer, span) =
                    expr.eval_ctx(db, shared.query.schema(), &settings.alg, ctx)?;
                (answer, ExecStats::default(), span)
            }
            PreparedSource::Calculus {
                route: Some(route),
                compiled,
            } => {
                let routed = match route {
                    CalculusRoute::Planned(plan) => {
                        run_plan("planned-calculus", plan, db, settings, ctx)
                            .map(Some)
                            .map_err(EngineError::from)
                    }
                    CalculusRoute::LeastFixpoint(fixpoint) => {
                        fixpoint.run(&shared.query, db, ctx.interrupt).map(|run| {
                            run.map(|run| {
                                let span = ctx.traced.then(|| {
                                    let mut span = Span::new("least-fixpoint");
                                    span.push_field("rounds", run.rounds);
                                    span.push_field("rows_out", run.answer.len() as u64);
                                    span
                                });
                                (run.answer, run.stats, span)
                            })
                        })
                    }
                };
                match routed {
                    Ok(Some(routed)) => routed,
                    Err(err @ EngineError::Resource(_)) => return Err(err),
                    Ok(None) | Err(_) => return Ok(Run::Enumerated(compiled)),
                }
            }
            PreparedSource::Calculus { compiled, .. } => return Ok(Run::Enumerated(compiled)),
        };
        if let (Some(span), Some(start)) = (span.as_mut(), start) {
            span.wall_micros = start.elapsed().as_micros() as u64;
        }
        Ok(Run::Routed(Box::new(Routed {
            answer,
            stats,
            least_model: self.fixpoint_route().is_some(),
            span,
        })))
    }
}

/// What answers one execution of a handle.
enum Run<'a> {
    /// One run of its route, which every invention level shares.
    Routed(Box<Routed>),
    /// Its compiled slots, run at every invention level.
    Enumerated(&'a CompiledQuery),
}

/// One run of a handle's route that answered: the limited interpretation's
/// answer, its counters and, when traced, the route's root span
/// (`planned-algebra`, `tuple-algebra`, `planned-calculus` or
/// `least-fixpoint`) with its wall clock.
///
/// Every route is level-invariant (see `lowering.rs` for the calculus
/// routes and [`mod@itq_algebra::to_calculus`] for the algebra): the answer
/// at every invention level `n` holds no invented atom and equals this one.
/// So the run states both invention outcomes in closed form
/// ([`Routed::outcome`]), with no level evaluated again: `Q^fi` is this
/// answer, stable from level 1 (bounded when only level 0 is allowed), and
/// `Q^ti` is undefined within the bound, every level's unrestricted answer
/// being this one.
struct Routed {
    answer: Instance,
    stats: ExecStats,
    /// The least-fixpoint route answered: `answer` is its rules' least model.
    least_model: bool,
    span: Option<Span>,
}

impl Routed {
    /// This run's outcome under `semantics` and, when traced, its span.
    /// Under `limited` both are the run's own.  Under `fi` and `ti`, over the
    /// levels `0..=max_invented`, the stats are the run's, counting
    /// `max_invented + 1` levels, and the span is the ladder the enumeration
    /// would trace: one `Q|_n[d]` child per level, whose answer counts are
    /// this answer's size, with the run's counters, span and wall clock at
    /// level 0 and zero counters above.
    fn outcome(self, semantics: Semantics, max_invented: usize) -> (QueryOutcome, Option<Span>) {
        let Routed {
            answer,
            stats,
            least_model,
            span,
        } = self;
        let rows = answer.len();
        let levels = ExecStats {
            invention_levels: max_invented as u64 + 1,
            ..stats
        };
        let (root, outcome) = match semantics {
            Semantics::Limited => {
                let limited = QueryOutcome {
                    least_model,
                    ..QueryOutcome::new(answer, semantics, stats)
                };
                return (limited, span);
            }
            Semantics::FiniteInvention => {
                let stabilised_at = (max_invented >= 1).then_some(1);
                let finite = QueryOutcome {
                    bounded_approximation: stabilised_at.is_none(),
                    stabilised_at,
                    ..QueryOutcome::new(answer, semantics, levels)
                };
                ("finite-invention", finite)
            }
            Semantics::TerminalInvention => {
                let terminal = QueryOutcome {
                    bounded_approximation: true,
                    ..QueryOutcome::new(Instance::empty(), semantics, levels)
                };
                ("terminal-invention", terminal)
            }
        };
        let span = span.map(|run| {
            let mut first = level_span(0, rows, rows, &stats);
            first.wall_micros = run.wall_micros;
            first.push_child(run);
            let higher =
                (1..=max_invented).map(|n| level_span(n, rows, rows, &ExecStats::default()));
            invention_span(root, &outcome, std::iter::once(first).chain(higher))
        });
        (outcome, span)
    }
}

/// Run a physical plan under the handle's algebra budget, wrapping its
/// operator tree, when traced, in a `root` span carrying `rows_out`.
fn run_plan(
    root: &str,
    plan: &PhysicalPlan,
    db: &Database,
    settings: &PlanSettings,
    ctx: &ExecCtx,
) -> Result<(Instance, ExecStats, Option<Span>), itq_algebra::AlgError> {
    let (result, stats, op) = plan.execute_ctx(db, &settings.alg, ctx)?;
    let span = op.map(|op| {
        let mut span = Span::new(root);
        span.push_field("rows_out", result.len() as u64);
        span.push_child(op);
        span
    });
    Ok((result, stats, span))
}

/// The root span of an invention-semantics execution: one child per
/// `Q|_n[d]` level.
fn invention_span(
    name: &str,
    outcome: &QueryOutcome,
    levels: impl IntoIterator<Item = Span>,
) -> Span {
    let mut root = Span::new(name);
    root.push_field("invention_levels", outcome.stats.invention_levels);
    root.push_field("rows_out", outcome.result.len() as u64);
    for level in levels {
        root.push_child(level);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{
        excluding_parent_pairs, grandparent_query, parent_database, parent_schema,
        transitive_closure_query,
    };
    use itq_algebra::SelFormula;
    use itq_calculus::{Formula, Term};
    use itq_object::{Atom, TripKind, Type, Value};

    fn db() -> Database {
        parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))])
    }

    /// Grandparent outside the conjunctive fragment: the compiled slot
    /// evaluator runs it under every semantics.
    fn enumerated_grandparent() -> Query {
        excluding_parent_pairs(&grandparent_query())
    }

    /// A query whose answer differs between the limited interpretation and
    /// finite invention (it needs an external witness).
    fn witness_query() -> Query {
        Query::new(
            "t",
            Type::flat_tuple(2),
            Formula::and(vec![
                Formula::pred("PAR", Term::var("t")),
                Formula::exists(
                    "y",
                    Type::Atomic,
                    Formula::not(Formula::exists(
                        "z",
                        Type::flat_tuple(2),
                        Formula::and(vec![
                            Formula::pred("PAR", Term::var("z")),
                            Formula::or(vec![
                                Formula::eq(Term::proj("z", 1), Term::var("y")),
                                Formula::eq(Term::proj("z", 2), Term::var("y")),
                            ]),
                        ]),
                    )),
                ),
            ]),
            parent_schema(),
        )
        .unwrap()
    }

    #[test]
    fn builder_configures_every_knob() {
        let engine = Engine::builder()
            .calc_config(EvalConfig::tiny())
            .alg_config(AlgConfig::default())
            .max_invented(2)
            .build();
        assert_eq!(engine.calc_config().max_steps, EvalConfig::tiny().max_steps);
        assert_eq!(engine.max_invented(), 2);

        let mut seeded = Universe::new();
        seeded.atom("Zed");
        let adopted = Engine::builder().universe(seeded).build();
        assert!(adopted.universe().lookup("Zed").is_some());
    }

    #[test]
    fn prepare_caches_the_static_artifacts() {
        let engine = Engine::new();
        let q = transitive_closure_query();
        let prepared = engine.prepare(&q).unwrap();
        assert_eq!(prepared.query(), &q);
        assert_eq!(prepared.classification(), &q.classification());
        assert!(!prepared.is_algebra());
        assert!(prepared.algebra_expr().is_none());
    }

    #[test]
    fn execute_takes_shared_references_only() {
        let engine = Engine::new();
        let prepared = engine.prepare(&witness_query()).unwrap();
        let db = db();
        // Two simultaneous shared borrows execute fine — no `&mut` anywhere.
        let (a, b) = (&prepared, &prepared);
        let limited = a.execute(&db, Semantics::Limited).unwrap();
        let invented = b.execute(&db, Semantics::FiniteInvention).unwrap();
        assert!(limited.result.is_empty());
        assert_eq!(invented.result.len(), 2);
        assert!(invented.stats.invention_levels > 0);
        // The engine's shared universe was never touched by invention.
        assert!(engine.universe().is_empty());
    }

    #[test]
    fn outcome_carries_semantics_flags_and_stats() {
        let engine = Engine::new();
        let db = db();
        let prepared = engine.prepare(&enumerated_grandparent()).unwrap();

        let limited = prepared.execute(&db, Semantics::Limited).unwrap();
        assert_eq!(limited.semantics, Semantics::Limited);
        assert!(!limited.bounded_approximation);
        assert_eq!(limited.stats.invention_levels, 0);
        assert!(limited.stats.steps > 0);
        assert!(limited.stats.candidates_checked >= 9);

        // Grandparent is guarded: terminal invention is undefined within bound.
        let terminal = prepared.execute(&db, Semantics::TerminalInvention).unwrap();
        assert!(terminal.bounded_approximation);
        assert_eq!(terminal.defined_at, None);
        assert!(terminal.result.is_empty());
        assert_eq!(
            terminal.stats.invention_levels,
            engine.max_invented() as u64 + 1
        );

        // The unguarded query {t/U | ⊤} is defined at n = 1.
        let everything = Query::new("t", Type::Atomic, Formula::truth(), parent_schema()).unwrap();
        let outcome = engine
            .prepare(&everything)
            .unwrap()
            .execute(&db, Semantics::TerminalInvention)
            .unwrap();
        assert_eq!(outcome.defined_at, Some(1));
        assert!(!outcome.bounded_approximation);
        assert_eq!(outcome.stats.invention_levels, 2);

        // Finite invention stabilises on invention-invariant queries.
        let finite = prepared.execute(&db, Semantics::FiniteInvention).unwrap();
        assert!(!finite.bounded_approximation);
        assert!(finite.stabilised_at.is_some());
        assert_eq!(finite.result, limited.result);
    }

    #[test]
    fn algebra_handles_answer_every_semantics_from_one_run() {
        let engine = Engine::new();
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let prepared = engine.prepare_algebra(&expr, &parent_schema()).unwrap();
        assert!(prepared.is_algebra());
        assert_eq!(prepared.algebra_expr(), Some(&expr));
        let db = db();
        let limited = prepared.execute(&db, Semantics::Limited).unwrap();
        // The plan and the tree walker on the Theorem 3.8 translation agree.
        let walked = prepared.query().eval(&db, engine.calc_config()).unwrap();
        assert_eq!(limited.result, walked);
        // 𝒫(PAR) gains nothing from invention (Theorem 6.11), though its
        // translation's level 2 would enumerate 2^25 candidate sets: one run
        // of either evaluator answers every semantics at default budgets.
        let powerset = AlgExpr::pred("PAR").powerset();
        let tuple = Engine::builder().use_algebra_planner(false).build();
        for engine in [engine, tuple] {
            let prepared = engine.prepare_algebra(&powerset, &parent_schema()).unwrap();
            assert_eq!(prepared.prepare_stats().compile_micros, 0);
            let limited = prepared.execute(&db, Semantics::Limited).unwrap();
            assert_eq!(limited.result.len(), 4);
            let one_run = ExecStats {
                invention_levels: 5,
                ..limited.stats.deterministic()
            };
            let finite = prepared.execute(&db, Semantics::FiniteInvention).unwrap();
            assert_eq!(finite.result, limited.result);
            assert_eq!(finite.stabilised_at, Some(1));
            assert!(!finite.bounded_approximation);
            assert_eq!(finite.stats.deterministic(), one_run);
            let terminal = prepared.execute(&db, Semantics::TerminalInvention).unwrap();
            assert!(terminal.result.is_empty());
            assert!(terminal.bounded_approximation && terminal.defined_at.is_none());
            assert_eq!(terminal.stats.deterministic(), one_run);
        }
    }

    #[test]
    fn prepare_rejects_ill_typed_algebra() {
        let engine = Engine::new();
        // Projection coordinate 5 does not exist in a binary relation.
        let bad = AlgExpr::pred("PAR").project(vec![5]);
        assert!(engine.prepare_algebra(&bad, &parent_schema()).is_err());
        // Unknown predicate fails type inference too.
        let unknown = AlgExpr::pred("NOPE");
        assert!(engine.prepare_algebra(&unknown, &parent_schema()).is_err());
    }

    #[test]
    fn exec_stats_json_shape() {
        let stats = ExecStats {
            steps: 1,
            quantifier_values: 2,
            candidates_checked: 3,
            max_domain_seen: 4,
            invention_levels: 5,
            domain_cache_hits: 6,
            domain_cache_misses: 7,
            interned_values: 8,
            join_probes: 9,
            tuples_materialised: 10,
            partitions: 13,
            interrupt_polls: 11,
            wall_micros: 12,
        };
        assert_eq!(
            stats.to_json(),
            "{\"steps\":1,\"quantifier_values\":2,\"candidates_checked\":3,\
             \"max_domain_seen\":4,\"invention_levels\":5,\"domain_cache_hits\":6,\
             \"domain_cache_misses\":7,\"interned_values\":8,\"join_probes\":9,\
             \"tuples_materialised\":10,\"partitions\":13,\"interrupt_polls\":11,\
             \"wall_micros\":12}"
        );
    }

    #[test]
    fn parallel_engine_matches_sequential_on_every_semantics() {
        let db = parent_database(&[
            (Atom(0), Atom(1)),
            (Atom(1), Atom(2)),
            (Atom(2), Atom(3)),
            (Atom(3), Atom(4)),
        ]);
        let sequential = Engine::builder().parallelism(1).build();
        let parallel = Engine::builder().parallelism(4).build();
        assert_eq!(parallel.parallelism(), 4);
        for query in [enumerated_grandparent(), witness_query()] {
            let seq = sequential.prepare(&query).unwrap();
            let par = parallel.prepare(&query).unwrap();
            assert_eq!(par.parallelism(), 4);
            for semantics in Semantics::ALL {
                let a = seq.execute(&db, semantics).unwrap();
                let b = par.execute(&db, semantics).unwrap();
                assert_eq!(a.result, b.result, "{semantics}");
                assert_eq!(a.bounded_approximation, b.bounded_approximation);
                assert_eq!(a.defined_at, b.defined_at);
                assert_eq!(a.stabilised_at, b.stabilised_at);
                // The shared deterministic counters agree exactly under the
                // limited interpretation (the partitioned candidate loop).
                if semantics == Semantics::Limited {
                    assert_eq!(a.stats.steps, b.stats.steps);
                    assert_eq!(a.stats.quantifier_values, b.stats.quantifier_values);
                    assert_eq!(a.stats.candidates_checked, b.stats.candidates_checked);
                    assert_eq!(a.stats.max_domain_seen, b.stats.max_domain_seen);
                    assert_eq!(a.stats.partitions, 0, "sequential reports no partitions");
                    assert!(b.stats.partitions > 1, "parallel reports its split");
                }
            }
        }
    }

    #[test]
    fn parallel_traced_execution_reports_partition_children() {
        let db = db();
        let engine = Engine::builder().parallelism(4).build();
        let prepared = engine.prepare(&enumerated_grandparent()).unwrap();
        let (outcome, span) = prepared.execute_traced(&db, Semantics::Limited).unwrap();
        assert_eq!(span.name, "compiled-eval");
        assert_eq!(span.field("partitions"), Some(outcome.stats.partitions));
        let partitions = span
            .children
            .iter()
            .filter(|c| c.name.starts_with("partition "))
            .count() as u64;
        assert_eq!(partitions, outcome.stats.partitions);
        assert_eq!(
            span.subtree_total("candidates_checked") - span.field("candidates_checked").unwrap(),
            outcome.stats.candidates_checked,
            "partition children re-partition the root's counters"
        );
        // The planned-algebra path runs sequentially at any worker count.
        let pairs: Vec<(Atom, Atom)> = (0..24).map(|i| (Atom(i), Atom(i + 1))).collect();
        let wide = parent_database(&pairs);
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let algebra = engine.prepare_algebra(&expr, &parent_schema()).unwrap();
        let outcome = algebra.execute(&wide, Semantics::Limited).unwrap();
        let seq = algebra
            .with_parallelism(1)
            .execute(&wide, Semantics::Limited)
            .unwrap();
        assert_eq!(seq.result, outcome.result);
        assert_eq!(seq.stats.deterministic(), outcome.stats.deterministic());
        assert_eq!(outcome.stats.partitions, 0);
    }

    #[test]
    fn governor_trips_are_byte_identical_under_parallelism() {
        let db = db();
        for workers in [1usize, 4] {
            let engine = Engine::builder()
                .parallelism(workers)
                .deadline_millis(0)
                .build();
            let err = engine
                .prepare(&grandparent_query())
                .unwrap()
                .execute(&db, Semantics::Limited)
                .unwrap_err();
            assert_eq!(err.to_string(), "execution deadline of 0 ms exceeded");
            let flag = CancelFlag::new();
            flag.cancel();
            let engine = Engine::builder()
                .parallelism(workers)
                .cancel_flag(flag)
                .build();
            let err = engine
                .prepare(&grandparent_query())
                .unwrap()
                .execute(&db, Semantics::Limited)
                .unwrap_err();
            assert_eq!(err.to_string(), "execution cancelled");
        }
    }

    #[test]
    fn fault_injection_forces_the_sequential_path() {
        // `trip_after` counts polls on one shared counter; interleaved worker
        // polls would make the trip point racy, so injection pins workers=1 —
        // the trip stays exactly reproducible even at `parallelism(4)`.
        let engine = Engine::builder()
            .parallelism(4)
            .governor(GovernorConfig {
                trip_after: Some((1, TripKind::Panic)),
                ..GovernorConfig::default()
            })
            .build();
        let prepared = engine.prepare(&grandparent_query()).unwrap();
        let err = prepared.execute(&db(), Semantics::Limited).unwrap_err();
        assert_eq!(
            err.to_string(),
            "internal engine error (contained): fault injection: synthetic engine panic"
        );
    }

    #[test]
    fn with_governor_rebudgets_a_shared_plan_per_session() {
        let db = db();
        let shared = Engine::builder()
            .parallelism(2)
            .build()
            .prepare(&grandparent_query())
            .unwrap();
        // Session A executes under a zero deadline and trips...
        let session_a = shared.with_governor(GovernorConfig {
            deadline_millis: Some(0),
            ..Default::default()
        });
        assert!(session_a.execute(&db, Semantics::Limited).is_err());
        // ...while session B (and the shared handle) are unaffected.
        let session_b = shared.with_governor(GovernorConfig::default());
        assert_eq!(
            session_b
                .execute(&db, Semantics::Limited)
                .unwrap()
                .result
                .len(),
            1
        );
        assert_eq!(
            shared
                .execute(&db, Semantics::Limited)
                .unwrap()
                .result
                .len(),
            1
        );
        assert_eq!(session_b.parallelism(), 2, "snapshots carry over");
    }

    #[test]
    fn algebra_planner_is_the_default_and_ablatable() {
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let db = db();
        let planned_engine = Engine::new();
        assert!(planned_engine.use_algebra_planner());
        let tuple_engine = Engine::builder().use_algebra_planner(false).build();
        assert!(!tuple_engine.use_algebra_planner());

        let planned = planned_engine
            .prepare_algebra(&expr, &parent_schema())
            .unwrap()
            .execute(&db, Semantics::Limited)
            .unwrap();
        let tuple = tuple_engine
            .prepare_algebra(&expr, &parent_schema())
            .unwrap()
            .execute(&db, Semantics::Limited)
            .unwrap();
        assert_eq!(planned.result, tuple.result);
        // The planner's counters are observable; the tuple path reports none.
        assert!(planned.stats.join_probes > 0);
        assert!(planned.stats.tuples_materialised > 0);
        // A flat plan runs over atom rows, without the interner.
        assert_eq!(planned.stats.interned_values, 0);
        assert_eq!(tuple.stats.join_probes, 0);
        assert_eq!(tuple.stats.tuples_materialised, 0);
        // Neither algebra path touches the calculus counters.
        assert_eq!(planned.stats.steps, 0);
        assert_eq!(tuple.stats.steps, 0);
    }

    #[test]
    fn traced_execution_matches_plain_on_every_path() {
        let db = db();
        // Sequential pin: the compiled span shape below is the per-slot tree,
        // which an `ITQ_PARALLELISM` override would replace with partition
        // spans (that grammar is pinned in tests/trace_equivalence.rs).
        let engine = Engine::builder().parallelism(1).build();

        // Compiled calculus: root span with per-slot children.
        let prepared = engine.prepare(&enumerated_grandparent()).unwrap();
        for semantics in Semantics::ALL {
            let plain = prepared.execute(&db, semantics).unwrap();
            let (traced, span) = prepared.execute_traced(&db, semantics).unwrap();
            assert_eq!(plain.result, traced.result);
            assert_eq!(plain.bounded_approximation, traced.bounded_approximation);
            assert_eq!(plain.defined_at, traced.defined_at);
            assert_eq!(plain.stabilised_at, traced.stabilised_at);
            assert_eq!(plain.stats.deterministic(), traced.stats.deterministic());
            assert_eq!(span.wall_micros, traced.stats.wall_micros);
            assert!(!span.children.is_empty());
        }
        let (limited, span) = prepared.execute_traced(&db, Semantics::Limited).unwrap();
        assert_eq!(span.name, "compiled-eval");
        assert_eq!(span.subtree_total("draws"), limited.stats.quantifier_values);
        let (finite, span) = prepared
            .execute_traced(&db, Semantics::FiniteInvention)
            .unwrap();
        assert_eq!(span.name, "finite-invention");
        assert_eq!(span.children.len(), finite.stats.invention_levels as usize);
        assert_eq!(span.children[0].name, "Q|_0[d]");

        // Planned calculus: the conjunctive grandparent's join under its own
        // root, with the same operator grammar as planned algebra.
        let routed = engine.prepare(&grandparent_query()).unwrap();
        let plain = routed.execute(&db, Semantics::Limited).unwrap();
        let (traced, span) = routed.execute_traced(&db, Semantics::Limited).unwrap();
        assert_eq!(plain.result, traced.result);
        assert_eq!(plain.stats.deterministic(), traced.stats.deterministic());
        assert_eq!(span.name, "planned-calculus");
        assert!(span.children[0].name.starts_with("hash-join"));
        assert_eq!(span.subtree_total("join_probes"), traced.stats.join_probes);
        assert_eq!(traced.stats.steps, 0);

        // Planned algebra: the operator tree hangs off the root span, and the
        // span subtree totals reproduce the ExecStats counters.
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let algebra = engine.prepare_algebra(&expr, &parent_schema()).unwrap();
        let plain = algebra.execute(&db, Semantics::Limited).unwrap();
        let (traced, span) = algebra.execute_traced(&db, Semantics::Limited).unwrap();
        assert_eq!(plain.result, traced.result);
        assert_eq!(plain.stats.deterministic(), traced.stats.deterministic());
        assert_eq!(span.name, "planned-algebra");
        assert_eq!(span.field("rows_out"), Some(1));
        assert!(span.children[0].name.starts_with("hash-join"));
        assert_eq!(span.subtree_total("join_probes"), traced.stats.join_probes);
        assert_eq!(
            span.subtree_total("tuples_materialised"),
            traced.stats.tuples_materialised
        );

        // Tuple-at-a-time algebra: one whole-evaluation span.
        let (_, span) = Engine::builder()
            .use_algebra_planner(false)
            .build()
            .prepare_algebra(&expr, &parent_schema())
            .unwrap()
            .execute_traced(&db, Semantics::Limited)
            .unwrap();
        assert_eq!(span.name, "tuple-algebra");
        assert_eq!(span.field("rows_out"), Some(1));
    }

    #[test]
    fn execute_with_sink_short_circuits_when_disabled() {
        use itq_trace::{CollectingSink, NoopSink, TraceSink};
        let engine = Engine::new();
        let prepared = engine.prepare(&enumerated_grandparent()).unwrap();
        let db = db();

        let noop = NoopSink;
        assert!(!noop.is_enabled());
        let quiet = prepared
            .execute_with_sink(&db, Semantics::Limited, &noop)
            .unwrap();

        let collecting = CollectingSink::new();
        let loud = prepared
            .execute_with_sink(&db, Semantics::Limited, &collecting)
            .unwrap();
        assert_eq!(quiet.result, loud.result);
        assert_eq!(quiet.stats.deterministic(), loud.stats.deterministic());
        let spans = collecting.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "compiled-eval");
    }

    #[test]
    fn prepare_stats_time_every_phase() {
        let engine = Engine::new();
        let calculus = engine.prepare(&enumerated_grandparent()).unwrap();
        assert_eq!(calculus.prepare_stats().plan_micros, 0);
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let algebra = engine.prepare_algebra(&expr, &parent_schema()).unwrap();
        let span = algebra.prepare_stats().to_span();
        assert_eq!(span.name, "prepare");
        assert_eq!(
            span.children
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            [
                "typecheck",
                "plan",
                "classify",
                "normalize",
                "compile",
                "analyze"
            ]
        );
        assert_eq!(span.wall_micros, algebra.prepare_stats().total_micros());
    }

    #[test]
    fn zero_deadline_trips_identically_on_every_semantics() {
        let engine = Engine::builder().deadline_millis(0).build();
        let prepared = engine.prepare(&grandparent_query()).unwrap();
        let db = db();
        for semantics in Semantics::ALL {
            let err = prepared.execute(&db, semantics).unwrap_err();
            assert_eq!(err.to_string(), "execution deadline of 0 ms exceeded");
        }
    }

    #[test]
    fn cancellation_is_recoverable_through_the_shared_flag() {
        let flag = CancelFlag::new();
        let engine = Engine::builder().cancel_flag(flag.clone()).build();
        let prepared = engine.prepare(&grandparent_query()).unwrap();
        let db = db();
        // Armed but unraised: the execution completes with the exact answer.
        let baseline = Engine::new()
            .prepare(&grandparent_query())
            .unwrap()
            .execute(&db, Semantics::Limited)
            .unwrap();
        let ok = prepared.execute(&db, Semantics::Limited).unwrap();
        assert_eq!(ok.result, baseline.result);
        assert!(
            ok.stats.interrupt_polls >= 1,
            "armed runs count their polls"
        );
        // Raised: the next execution stops with the pinned message.
        flag.cancel();
        let err = prepared.execute(&db, Semantics::Limited).unwrap_err();
        assert_eq!(err.to_string(), "execution cancelled");
        // Reset: the same handle executes again, byte-identical to fresh.
        flag.reset();
        let again = prepared.execute(&db, Semantics::Limited).unwrap();
        assert_eq!(again.result, baseline.result);
        assert_eq!(
            again.stats.deterministic().wall_micros,
            0,
            "deterministic() zeroes the non-reproducible fields"
        );
    }

    #[test]
    fn injected_panic_is_contained_as_an_internal_error() {
        let engine = Engine::builder()
            .governor(GovernorConfig {
                trip_after: Some((1, TripKind::Panic)),
                ..GovernorConfig::default()
            })
            .build();
        let prepared = engine.prepare(&grandparent_query()).unwrap();
        let db = db();
        let err = prepared.execute(&db, Semantics::Limited).unwrap_err();
        assert_eq!(
            err.to_string(),
            "internal engine error (contained): fault injection: synthetic engine panic"
        );
        // Containment is provable reuse: a sibling handle from an untripped
        // engine executes normally in the same process afterwards.
        let healthy = Engine::new().prepare(&grandparent_query()).unwrap();
        assert_eq!(
            healthy
                .execute(&db, Semantics::Limited)
                .unwrap()
                .result
                .len(),
            1
        );
    }

    #[test]
    fn try_execute_reports_stats_on_the_error_path() {
        let engine = Engine::builder().deadline_millis(0).build();
        let prepared = engine.prepare(&grandparent_query()).unwrap();
        let (result, stats) = prepared.try_execute(&db(), Semantics::Limited);
        assert!(result.is_err());
        assert!(stats.interrupt_polls >= 1);
        assert_eq!(stats.steps, 0, "a stopped run reports no work counters");
        // And on the success path the block matches the outcome's.
        let healthy = Engine::new().prepare(&grandparent_query()).unwrap();
        let (result, stats) = healthy.try_execute(&db(), Semantics::Limited);
        assert_eq!(result.unwrap().stats, stats);
    }

    #[test]
    fn a_cancel_mid_finite_invention_sweep_is_the_typed_error() {
        // Level 0 polls once, so the third poll trips a later level: the
        // levels that completed are no answer, and the trip is the error.
        let strict = Engine::builder()
            .governor(GovernorConfig {
                trip_after: Some((3, TripKind::Cancel)),
                ..GovernorConfig::default()
            })
            .build();
        let err = strict
            .prepare(&witness_query())
            .unwrap()
            .execute(&db(), Semantics::FiniteInvention)
            .unwrap_err();
        assert_eq!(err.to_string(), "execution cancelled");
    }

    #[test]
    fn memory_ceiling_trips_only_interning_backends() {
        let db = db();
        // Calculus handles intern (this one through its planned route): a
        // 1-byte ceiling trips immediately.
        let tight = Engine::builder().memory_ceiling(1).build();
        let err = tight
            .prepare(&grandparent_query())
            .unwrap()
            .execute(&db, Semantics::Limited)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "interned values exceeded the configured memory ceiling of 1 bytes"
        );
        // A planned algebra join too small to reach a masked poll still
        // meets the ceiling at its exit poll, with the same message.
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let (result, stats) = tight
            .prepare_algebra(&expr, &parent_schema())
            .unwrap()
            .try_execute(&db, Semantics::Limited);
        assert_eq!(
            result.unwrap_err().to_string(),
            "interned values exceeded the configured memory ceiling of 1 bytes"
        );
        assert_eq!(stats.interrupt_polls, 2, "entry and exit polls only");
        // So does an enumeration too short to reach one (the forest's roots),
        // sequential or partitioned.
        let edge = |coordinate| {
            Formula::exists(
                "x",
                Type::flat_tuple(2),
                Formula::and(vec![
                    Formula::pred("PAR", Term::var("x")),
                    Formula::eq(Term::proj("x", coordinate), Term::var("t")),
                ]),
            )
        };
        let roots = Query::new(
            "t",
            Type::Atomic,
            Formula::and(vec![edge(1), Formula::not(edge(2))]),
            parent_schema(),
        )
        .unwrap();
        let untripped = Engine::new().prepare(&roots).unwrap();
        assert!(untripped.physical_plan().is_none() && untripped.least_fixpoint().is_none());
        let ok = untripped.execute(&db, Semantics::Limited).unwrap();
        assert_eq!(ok.result.len(), 1);
        assert!(ok.stats.steps < 256, "{} steps", ok.stats.steps);
        for workers in [1, 4] {
            let (result, stats) = Engine::builder()
                .memory_ceiling(1)
                .parallelism(workers)
                .build()
                .prepare(&roots)
                .unwrap()
                .try_execute(&db, Semantics::Limited);
            assert_eq!(
                result.unwrap_err().to_string(),
                "interned values exceeded the configured memory ceiling of 1 bytes",
                "{workers} workers"
            );
            assert_eq!(stats.interrupt_polls, 2, "{workers} workers");
        }
        // The tuple-at-a-time algebra evaluator never interns, so the same
        // ceiling never trips it, under any semantics.
        let tuple = Engine::builder()
            .memory_ceiling(1)
            .use_algebra_planner(false)
            .build()
            .prepare_algebra(&expr, &parent_schema())
            .unwrap();
        for semantics in [Semantics::Limited, Semantics::FiniteInvention] {
            let ok = tuple.execute(&db, semantics).unwrap();
            assert_eq!(ok.result.len(), 1, "{semantics}");
        }
    }

    #[test]
    fn the_route_falls_back_to_the_enumeration_on_its_own_limits() {
        let routed = Engine::new().prepare(&grandparent_query()).unwrap();
        assert!(routed.physical_plan().is_some());
        // The tree walker, called directly, is the reference.
        let walker = |query: &Query, db: &Database| {
            query
                .eval_full(db, &EvalConfig::default())
                .map_err(EngineError::from)
        };
        let chain: Vec<(Atom, Atom)> = (0..2049).map(|i| (Atom(i), Atom(i + 1))).collect();
        let ill_typed = Database::single(
            "PAR",
            Instance::from_values(vec![
                Value::atom_tuple([Atom(0), Atom(1), Atom(2)]),
                Value::pair(Atom(1), Atom(5)),
            ]),
        );
        for (label, db) in [
            // |PAR|² exceeds the product budget: the enumeration then meets
            // its own candidate budget, with the tree walker's message.
            ("product budget", parent_database(&chain)),
            // The plan cannot scan a relation the database lacks.
            (
                "missing relation",
                Database::single("OTHER", Instance::empty()),
            ),
        ] {
            let (fast, slow) = (
                routed.execute(&db, Semantics::Limited),
                walker(&grandparent_query(), &db),
            );
            match (fast, slow) {
                (Ok(fast), Ok(slow)) => {
                    assert_eq!(fast.result, slow.result, "{label}");
                    assert_eq!(fast.stats.join_probes, 0, "{label}: enumerated");
                }
                (Err(fast), Err(slow)) => {
                    assert_eq!(fast.to_string(), slow.to_string(), "{label}")
                }
                (fast, slow) => panic!("{label}: {fast:?} vs {slow:?}"),
            }
        }
        // A relation of another type is no limit of the route: the plan
        // would read the triple's coordinates as a pair's, and the walker
        // never matches it, but the query is not defined on this database.
        // The handle refuses it, under every semantics, and enumerates
        // nothing.
        for semantics in Semantics::ALL {
            let (refused, stats) = routed.try_execute(&ill_typed, semantics);
            assert_eq!(
                refused.unwrap_err().to_string(),
                "value [a0, a1, a2] does not conform to PAR : [U, U]"
            );
            assert_eq!(stats.interrupt_polls, 0, "refused before the first poll");
        }
        // Nor can the least-fixpoint route read a missing relation: the
        // enumeration reports it.
        let missing = Database::single("OTHER", Instance::from_atoms(vec![Atom(0)]));
        let closure = transitive_closure_query();
        assert_eq!(
            Engine::new()
                .prepare(&closure)
                .unwrap()
                .execute(&missing, Semantics::Limited)
                .unwrap_err()
                .to_string(),
            walker(&closure, &missing).unwrap_err().to_string()
        );
    }

    #[test]
    fn budget_errors_surface_through_execute() {
        let engine = Engine::builder().calc_config(EvalConfig::tiny()).build();
        let q = Query::new(
            "t",
            Type::set(Type::flat_tuple(2)),
            Formula::truth(),
            parent_schema(),
        )
        .unwrap();
        let prepared = engine.prepare(&q).unwrap();
        assert!(prepared.execute(&db(), Semantics::Limited).is_err());
    }
}
