//! The [`Engine`] facade: one object that evaluates queries under every semantics
//! the paper considers, with uniform configuration and error reporting.

use itq_algebra::{AlgError, EvalConfig as AlgConfig};
use itq_calculus::eval::EvalConfig;
use itq_calculus::CalcError;
use itq_invention::{InventionError, DEFAULT_MAX_INVENTED};
use itq_object::{
    CancelFlag, Interrupt, Nonconforming, ObjectError, ResourceError, TripKind, Universe,
};
use std::fmt;

/// Which semantics to evaluate a calculus query under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// The limited (active-domain) interpretation of Sections 2–5.
    Limited,
    /// Finite invention `Q^fi` (Section 6), approximated up to the configured
    /// bound.
    FiniteInvention,
    /// Terminal invention `Q^ti` (Theorem 6.19), searched up to the configured
    /// bound; an undefined outcome is reported as an empty answer plus a flag.
    TerminalInvention,
}

impl Semantics {
    /// All semantics, in paper order — handy for sweeps and help texts.
    pub const ALL: [Semantics; 3] = [
        Semantics::Limited,
        Semantics::FiniteInvention,
        Semantics::TerminalInvention,
    ];

    /// The surface-language keyword for this semantics.
    pub fn keyword(&self) -> &'static str {
        match self {
            Semantics::Limited => "limited",
            Semantics::FiniteInvention => "finite-invention",
            Semantics::TerminalInvention => "terminal-invention",
        }
    }
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl std::str::FromStr for Semantics {
    type Err = String;

    /// Parse a semantics keyword as used by the `itq` surface language.
    ///
    /// Matching is case-insensitive, underscores are accepted in place of
    /// hyphens, and each invention semantics has short aliases: `fi`/`finite`
    /// for finite invention and `ti`/`terminal` for terminal invention.
    ///
    /// ```
    /// use itq_core::engine::Semantics;
    /// assert_eq!("FI".parse::<Semantics>().unwrap(), Semantics::FiniteInvention);
    /// assert_eq!("ti".parse::<Semantics>().unwrap(), Semantics::TerminalInvention);
    /// assert_eq!("Limited".parse::<Semantics>().unwrap(), Semantics::Limited);
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "limited" => Ok(Semantics::Limited),
            "finite-invention" | "finite" | "fi" => Ok(Semantics::FiniteInvention),
            "terminal-invention" | "terminal" | "ti" => Ok(Semantics::TerminalInvention),
            other => Err(format!(
                "unknown semantics `{other}`; expected one of limited, \
                 finite-invention (fi), terminal-invention (ti)"
            )),
        }
    }
}

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A calculus evaluation failed.
    Calc(CalcError),
    /// An algebra evaluation failed.
    Alg(AlgError),
    /// An invention-semantics evaluation failed.
    Invention(InventionError),
    /// The resource governor stopped the execution (deadline, cancellation,
    /// or memory ceiling).  Resource errors from every layer are lifted to
    /// this variant, so their rendered messages are byte-identical across
    /// backends and semantics.
    Resource(ResourceError),
    /// A relation the handle reads holds a value of another type than the
    /// one its schema declares: a query is defined only on the instances of
    /// its schema, so every backend refuses such a database, under every
    /// semantics, with this one error (lifted here from every layer, as
    /// resource errors are).
    Nonconforming(Nonconforming),
    /// A backend panicked mid-execution and the panic was contained by the
    /// `catch_unwind` seam in `Prepared::execute`.  The engine and its
    /// prepared handles remain fully usable afterwards.
    Internal {
        /// The contained panic message.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Calc(e) => write!(f, "{e}"),
            EngineError::Alg(e) => write!(f, "{e}"),
            EngineError::Invention(e) => write!(f, "{e}"),
            EngineError::Resource(e) => write!(f, "{e}"),
            EngineError::Nonconforming(e) => write!(f, "{e}"),
            EngineError::Internal { detail } => {
                write!(f, "internal engine error (contained): {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CalcError> for EngineError {
    fn from(e: CalcError) -> Self {
        match e {
            CalcError::Resource(r) => EngineError::Resource(r),
            other => EngineError::Calc(other),
        }
    }
}
impl From<AlgError> for EngineError {
    fn from(e: AlgError) -> Self {
        match e {
            AlgError::Resource(r) => EngineError::Resource(r),
            AlgError::Object(ObjectError::Nonconforming(e)) => EngineError::Nonconforming(e),
            other => EngineError::Alg(other),
        }
    }
}
impl From<InventionError> for EngineError {
    fn from(e: InventionError) -> Self {
        match e {
            InventionError::Resource(r) => EngineError::Resource(r),
            other => EngineError::Invention(other),
        }
    }
}
impl From<ResourceError> for EngineError {
    fn from(e: ResourceError) -> Self {
        EngineError::Resource(e)
    }
}
impl From<Nonconforming> for EngineError {
    fn from(e: Nonconforming) -> Self {
        EngineError::Nonconforming(e)
    }
}

/// The engine's resource-governance configuration: the physical half of the
/// resource envelope, complementing the logical step/cardinality budgets of
/// [`PlanSettings`].
///
/// All knobs default to off; a fully disarmed governor costs one branch per
/// poll point.  The configuration is snapshotted onto every `Prepared`
/// handle, and each execution arms a fresh [`Interrupt`] from the snapshot.
/// A deadline, cancellation or memory-ceiling trip is always the typed
/// [`EngineError::Resource`], under every semantics: an execution returns its
/// exact answer or an error, never a partial one.
#[derive(Debug, Clone, Default)]
pub struct GovernorConfig {
    /// Wall-clock deadline per execution, in milliseconds (`0` trips at the
    /// first poll — useful for deterministic smoke tests).
    pub deadline_millis: Option<u64>,
    /// Ceiling over the bytes one execution holds: interned by its value
    /// store and domain cache, or in a flat plan's atom arenas.
    pub memory_ceiling: Option<u64>,
    /// A shared cancellation flag observed by every execution at its poll
    /// points (e.g. raised from another thread while a statement runs).
    pub cancel: Option<CancelFlag>,
    /// Fault injection: trip at the nth interrupt poll with the given
    /// behaviour.  Poll counts are deterministic, so the trip point is
    /// exactly reproducible — this is the harness's injection seam.
    pub trip_after: Option<(u64, TripKind)>,
}

impl GovernorConfig {
    /// True when no governing condition is set — executions then thread the
    /// shared disarmed interrupt and pay one branch per poll.
    pub fn is_disarmed(&self) -> bool {
        self.deadline_millis.is_none()
            && self.memory_ceiling.is_none()
            && self.cancel.is_none()
            && self.trip_after.is_none()
    }

    /// Arm a fresh per-execution [`Interrupt`] from this configuration (the
    /// deadline clock starts now).
    pub fn interrupt(&self) -> Interrupt {
        let mut interrupt = Interrupt::new();
        if let Some(millis) = self.deadline_millis {
            interrupt = interrupt.with_deadline_millis(millis);
        }
        if let Some(limit) = self.memory_ceiling {
            interrupt = interrupt.with_memory_ceiling(limit);
        }
        if let Some(flag) = &self.cancel {
            interrupt = interrupt.with_cancel(flag.clone());
        }
        if let Some((nth, kind)) = self.trip_after {
            interrupt = interrupt.with_trip_after(nth, kind);
        }
        interrupt
    }
}

/// Every setting a prepared plan depends on: the calculus budgets, under
/// which a calculus handle's limited interpretation and every invention
/// level `Q|_n[d]` run, the algebra budget, under which an algebra handle
/// runs under every semantics, the invention level bound, and the
/// algebra-planner flag.  An [`Engine`] holds one, every handle it prepares copies it, and
/// two handles prepared from equal statements under equal settings are
/// interchangeable — which is what lets a plan cache key on the statement
/// plus this value.  The governor and the worker count are not plan
/// settings: a handle is re-governed without being re-prepared.
///
/// ```
/// use itq_core::prelude::*;
/// let one = Engine::builder().max_invented(1).build();
/// let governed = Engine::builder().max_invented(1).deadline_millis(50).parallelism(4).build();
/// assert_eq!(one.plan_settings(), governed.plan_settings());
/// assert_ne!(one.plan_settings(), Engine::new().plan_settings());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSettings {
    /// Budgets for every calculus evaluation: the limited interpretation and
    /// each invention level alike.
    pub(crate) calc: EvalConfig,
    /// Budgets for algebra evaluation, under every semantics.
    pub(crate) alg: AlgConfig,
    /// The invention level bound: the invention semantics search the levels
    /// `0..=max_invented`.
    pub(crate) max_invented: usize,
    /// When true (the default), prepared algebra handles execute through the
    /// set-at-a-time physical plan under every semantics; when false they
    /// run the tuple-at-a-time evaluator (the ablation toggled by
    /// `EngineBuilder::use_algebra_planner`).
    pub(crate) use_algebra_planner: bool,
}

impl Default for PlanSettings {
    fn default() -> Self {
        PlanSettings {
            calc: EvalConfig::default(),
            alg: AlgConfig::default(),
            max_invented: DEFAULT_MAX_INVENTED,
            use_algebra_planner: true,
        }
    }
}

impl PlanSettings {
    /// The budgets static analysis forecasts against, mirroring the ones
    /// execution enforces, so a forecast names the budget error execution
    /// would raise.
    ///
    /// ```
    /// use itq_algebra::EvalConfig as AlgConfig;
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().alg_config(AlgConfig { max_instance: 8 }).build();
    /// let budgets = engine.plan_settings().budgets();
    /// assert_eq!(budgets.max_instance, 8);
    /// assert_eq!(budgets.max_quantifier_domain, EvalConfig::default().max_quantifier_domain);
    /// // The analyzer's defaults are the engine's.
    /// assert_eq!(itq_analyze::Budgets::default(), Engine::new().plan_settings().budgets());
    /// ```
    pub fn budgets(&self) -> itq_analyze::Budgets {
        itq_analyze::Budgets {
            max_quantifier_domain: self.calc.max_quantifier_domain,
            max_instance: self.alg.max_instance,
        }
    }

    /// True when the execution budgets are all at their defaults — the
    /// condition for a calculus handle's routes, and with them for an
    /// incremental view's delta strategy.  A handle with tightened budgets
    /// must keep *failing* exactly as the enumeration would.
    pub(crate) fn default_budgets(&self) -> bool {
        self.calc == EvalConfig::default() && self.alg == AlgConfig::default()
    }
}

/// The evaluation facade.
///
/// An `Engine` is an immutable bundle of evaluation configuration — its
/// [`PlanSettings`], a resource governor, a worker count and a seeded
/// [`Universe`] — built once via [`Engine::builder`].  Every calculus handle it
/// prepares runs the compiled slot evaluator, or the planned join or least
/// fixpoint its query lowers to, whose one run answers every semantics; every
/// algebra handle runs its plan once under every semantics.  The static work
/// on a query — type-checking, `CALC_{k,i}` classification, normal forms, and
/// (for algebra inputs) the Theorem 3.8 translation — happens once in [`Engine::prepare`] /
/// [`Engine::prepare_algebra`], which return a [`crate::pipeline::Prepared`]
/// handle that can be executed any number of times, on any database, under any
/// [`Semantics`], through a shared reference.
#[derive(Debug, Clone)]
pub struct Engine {
    /// Everything a prepared plan depends on; every handle copies it.
    pub(crate) settings: PlanSettings,
    /// Resource-governance knobs (deadline, memory ceiling, cancellation,
    /// fault injection); disarmed by default.
    pub(crate) governor: GovernorConfig,
    /// Worker count for in-query parallelism: the compiled evaluator's
    /// candidate loop partitions across this many scoped threads.  `1` (the
    /// default) is the sequential ablation; the `ITQ_PARALLELISM` environment
    /// variable overrides the default at engine construction.
    pub(crate) parallelism: usize,
    pub(crate) universe: Universe,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with default budgets.
    pub fn new() -> Engine {
        Engine::builder().build()
    }

    /// Start configuring an engine: plan settings, governor, worker count
    /// and universe, finished with
    /// [`build`](crate::pipeline::EngineBuilder::build).
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// let engine = Engine::builder().max_invented(2).build();
    /// assert_eq!(engine.max_invented(), 2);
    /// ```
    pub fn builder() -> crate::pipeline::EngineBuilder {
        crate::pipeline::EngineBuilder::new()
    }

    /// The settings every handle this engine prepares copies.
    pub fn plan_settings(&self) -> &PlanSettings {
        &self.settings
    }

    /// The engine's calculus-evaluation budgets, which the invention
    /// semantics run each level under too.
    pub fn calc_config(&self) -> &EvalConfig {
        &self.settings.calc
    }

    /// The engine's algebra-evaluation budgets.
    pub fn alg_config(&self) -> &AlgConfig {
        &self.settings.alg
    }

    /// The invention level bound: the invention semantics search the levels
    /// `0..=max_invented()`.
    pub fn max_invented(&self) -> usize {
        self.settings.max_invented
    }

    /// True if algebra handles prepared by this engine execute through the
    /// set-at-a-time physical plan (the default);
    /// false selects the tuple-at-a-time evaluator, kept for ablation
    /// benchmarks (E14) and the backend differential suite.
    pub fn use_algebra_planner(&self) -> bool {
        self.settings.use_algebra_planner
    }

    /// The worker count handles prepared by this engine partition in-query
    /// work across (`1` = sequential, the default unless the
    /// `ITQ_PARALLELISM` environment variable says otherwise).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The engine's resource-governance configuration.
    pub fn governor(&self) -> &GovernorConfig {
        &self.governor
    }

    /// Mutable access to the resource-governance configuration — how the
    /// surface session applies `set deadline <ms>;` / `set memory <bytes>;`
    /// statements and installs its cancellation flag.  Handles prepared
    /// before a change keep their snapshotted configuration.
    pub fn governor_mut(&mut self) -> &mut GovernorConfig {
        &mut self.governor
    }

    /// Access the engine's universe (used to intern workload atoms by name).
    pub fn universe_mut(&mut self) -> &mut Universe {
        &mut self.universe
    }

    /// Read-only view of the engine's universe (used to resolve atom names when
    /// rendering answers, e.g. by the `itq` REPL session).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::QueryOutcome;
    use crate::queries::{grandparent_query, parent_database, parent_schema};
    use itq_algebra::{AlgExpr, SelFormula};
    use itq_calculus::{CalcClass, Formula, Query, Term};
    use itq_invention::{terminal_invention, TerminalOutcome};
    use itq_object::{Atom, Database, Type};

    fn db() -> Database {
        parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))])
    }

    /// Prepare and execute once.
    fn run(engine: &Engine, query: &Query, semantics: Semantics) -> QueryOutcome {
        engine
            .prepare(query)
            .unwrap()
            .execute(&db(), semantics)
            .unwrap()
    }

    #[test]
    fn calculus_and_algebra_agree_through_the_engine() {
        let engine = Engine::new();
        let calc = run(&engine, &grandparent_query(), Semantics::Limited);
        let alg_expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let alg = engine
            .prepare_algebra(&alg_expr, &parent_schema())
            .unwrap()
            .execute(&db(), Semantics::Limited)
            .unwrap();
        assert_eq!(calc.result, alg.result);
        assert_eq!(
            grandparent_query().classification().minimal_class,
            CalcClass::relational()
        );
    }

    #[test]
    fn semantics_dispatch_limited_vs_invention() {
        // A query that needs an external witness: empty under the limited
        // interpretation, full under finite invention.
        let q = Query::new(
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
        .unwrap();
        let engine = Engine::new();
        let limited = run(&engine, &q, Semantics::Limited);
        assert!(limited.result.is_empty());
        assert!(!limited.bounded_approximation);
        let invented = run(&engine, &q, Semantics::FiniteInvention);
        assert_eq!(invented.result.len(), 2);
    }

    #[test]
    fn terminal_semantics_reports_undefined_as_bounded() {
        let q = Query::new(
            "t",
            Type::flat_tuple(2),
            Formula::pred("PAR", Term::var("t")),
            parent_schema(),
        )
        .unwrap();
        let engine = Engine::new();
        let outcome = run(&engine, &q, Semantics::TerminalInvention);
        assert!(outcome.bounded_approximation);
        assert!(outcome.result.is_empty());
        // And the invention driver exposes the undefined outcome directly.
        match terminal_invention(&q, &db(), engine.max_invented(), engine.calc_config()).unwrap() {
            TerminalOutcome::UndefinedWithinBound { tried } => assert!(tried > 0),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn semantics_keywords_round_trip() {
        for s in Semantics::ALL {
            assert_eq!(s.to_string().parse::<Semantics>().unwrap(), s);
        }
        assert_eq!(
            "finite_invention".parse::<Semantics>().unwrap(),
            Semantics::FiniteInvention
        );
        assert!("naive".parse::<Semantics>().is_err());
    }

    #[test]
    fn semantics_parsing_is_case_insensitive_with_aliases() {
        for (text, expect) in [
            ("LIMITED", Semantics::Limited),
            ("  limited ", Semantics::Limited),
            ("fi", Semantics::FiniteInvention),
            ("FI", Semantics::FiniteInvention),
            ("Finite", Semantics::FiniteInvention),
            ("Finite-Invention", Semantics::FiniteInvention),
            ("ti", Semantics::TerminalInvention),
            ("TI", Semantics::TerminalInvention),
            ("Terminal", Semantics::TerminalInvention),
            ("TERMINAL_INVENTION", Semantics::TerminalInvention),
        ] {
            assert_eq!(text.parse::<Semantics>().unwrap(), expect, "{text}");
        }
        for bad in ["f", "t", "fin-invention", "naïve"] {
            assert!(bad.parse::<Semantics>().is_err(), "{bad}");
        }
    }

    #[test]
    fn to_calculus_query_answers_like_the_plan() {
        let engine = Engine::new();
        let expr = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let compiled = itq_algebra::to_calculus_query(&expr, &parent_schema()).unwrap();
        let direct = run(&engine, &compiled, Semantics::Limited);
        let alg = engine
            .prepare_algebra(&expr, &parent_schema())
            .unwrap()
            .execute(&db(), Semantics::Limited)
            .unwrap();
        assert_eq!(direct.result, alg.result);
        // The read-only universe accessor observes interned atoms.
        let mut engine = Engine::new();
        engine.universe_mut().atom("Tom");
        assert_eq!(engine.universe().len(), 1);
    }

    #[test]
    fn engine_error_display_and_conversions() {
        let calc_err: EngineError = CalcError::UnboundVariable { var: "x".into() }.into();
        assert!(calc_err.to_string().contains("unbound"));
        let alg_err: EngineError = AlgError::UnknownPredicate { name: "R".into() }.into();
        assert!(alg_err.to_string().contains("unknown predicate"));
        let inv_err: EngineError = InventionError::Codec {
            detail: "bad".into(),
        }
        .into();
        assert!(inv_err.to_string().contains("bad"));
        // The universe accessor works.
        let mut engine = Engine::new();
        let a = engine.universe_mut().atom("probe");
        assert_eq!(engine.universe_mut().atom("probe"), a);
    }
}
