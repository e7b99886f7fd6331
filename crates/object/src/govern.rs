//! Resource governance primitives: cancellation, deadlines, memory ceilings.
//!
//! The paper's `CALC_{k,i}` semantics make runaway cost intrinsic — powerset
//! quantifiers and invention levels explode hyper-exponentially — which is why
//! every evaluator in this workspace carries step/cardinality budgets.  Those
//! budgets are *logical* (deterministic counts of work); this module adds the
//! *physical* half of the resource envelope:
//!
//! * [`CancelFlag`] — a cheap, cloneable, cross-thread cancellation handle
//!   (an `Arc<AtomicBool>`): one side calls [`CancelFlag::cancel`], the
//!   running execution observes it at its next poll point;
//! * [`Interrupt`] — the per-execution governor handle threaded through every
//!   backend: it bundles an optional cancel flag, an optional wall-clock
//!   deadline, an optional memory ceiling over interned bytes, and a
//!   deterministic fault-injection trip used by the test harness;
//! * [`ResourceError`] — the unified error the governor raises.  Its
//!   [`Display`](std::fmt::Display) rendering is the **single source of
//!   truth** for resource-error messages: every layer above (calculus,
//!   algebra, invention, engine) forwards it verbatim, so the same
//!   interruption produces a byte-identical message on every backend;
//! * [`ExecCtx`] — how one execution runs (its governor, worker count and
//!   tracing), handed to every backend, and [`ExecStats`], the one counter
//!   block every backend fills.
//!
//! Polling is explicit and coarse (quantifier iterations, join probes,
//! invention levels — masked to roughly one check per 256 units of work), so
//! a disarmed interrupt costs a single branch on the off path and an
//! armed-but-untripped one stays within the same < 2% envelope the tracing
//! seam is held to.  The one costly check, the deadline's clock read, runs
//! only every [`DEADLINE_STRIDE`] polls.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How often the step-counting evaluators poll the interrupt: whenever
/// `steps & POLL_MASK == 0`.  Shared by the compiled slot evaluator and the
/// tree walker, its reference (whose step counters are pinned identical), so
/// both reach their poll points at the same logical instants.
pub const POLL_MASK: u64 = 0xFF;

/// How often an armed deadline reads the wall clock: at the first poll and
/// at every `DEADLINE_STRIDE`th poll after it.  A clock read costs tens to
/// hundreds of nanoseconds on a virtualised host, against a few for every
/// other check; at every poll it cost an armed governor 1–3% of an
/// enumeration that polls every few microseconds.  The deadline trips at
/// most `DEADLINE_STRIDE - 1` polls late, and a zero deadline still trips at
/// the first poll.
pub const DEADLINE_STRIDE: u64 = 16;

/// A resource-envelope violation: the execution was stopped not because the
/// query is wrong but because its physical cost exceeded what the caller was
/// willing to pay.
///
/// The `Display` impl here is forwarded **verbatim** by every layer of the
/// engine, which is what makes resource errors byte-identical across the
/// compiled, planned, and tuple-at-a-time backends and the tree walker
/// (pinned by `tests/backend_differential.rs`).
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// The wall-clock deadline configured for this execution elapsed.
    Deadline {
        /// The configured deadline, in milliseconds (as configured, so the
        /// message is deterministic even though the trip instant is not).
        millis: u64,
    },
    /// The execution's cancel flag was raised (e.g. by another thread).
    Cancelled,
    /// The bytes interned by this execution's value store and domain cache
    /// exceeded the configured ceiling.
    MemoryCeiling {
        /// The configured ceiling, in bytes.
        limit: u64,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::Deadline { millis } => {
                write!(f, "execution deadline of {millis} ms exceeded")
            }
            ResourceError::Cancelled => write!(f, "execution cancelled"),
            ResourceError::MemoryCeiling { limit } => {
                write!(
                    f,
                    "interned values exceeded the configured memory ceiling of {limit} bytes"
                )
            }
        }
    }
}

impl std::error::Error for ResourceError {}

/// A cloneable cross-thread cancellation handle.
///
/// Cloning shares the underlying flag: hand one clone to the executing
/// session and keep another on the controlling thread; `cancel()` is
/// observed at the execution's next poll point as
/// [`ResourceError::Cancelled`].
///
/// ```
/// use itq_object::govern::CancelFlag;
///
/// let flag = CancelFlag::new();
/// let shared = flag.clone();
/// assert!(!shared.is_cancelled());
/// flag.cancel();
/// assert!(shared.is_cancelled());
/// shared.reset();
/// assert!(!flag.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unraised flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Raise the flag: every execution polling a linked [`Interrupt`] stops
    /// with [`ResourceError::Cancelled`] at its next poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](CancelFlag::cancel) has been called (and not
    /// since [`reset`](CancelFlag::reset)).
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Lower the flag again, so the session can run further statements after
    /// cancelling one.
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Deterministic fault injection: what the interrupt does when its poll
/// counter reaches the configured trip point.  Used by the
/// `crates/harness` fault-injection suite to stop executions at *exactly*
/// reproducible logical instants (poll counts are deterministic, wall
/// clocks are not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripKind {
    /// Behave as if the cancel flag were raised at that poll.
    Cancel,
    /// Panic at that poll, simulating an engine defect — exercises the
    /// `catch_unwind` containment seam in `Prepared::execute`.
    Panic,
}

/// The message of the synthetic panic raised by [`TripKind::Panic`]; pinned
/// here so containment tests can assert the full contained detail.
pub const INJECTED_PANIC: &str = "fault injection: synthetic engine panic";

/// The per-execution governor handle threaded (by shared reference) through
/// every execution backend.
///
/// An `Interrupt` is constructed once per execution and polled at coarse
/// work boundaries via [`check`](Interrupt::check).  A disarmed interrupt
/// (no cancel flag, no deadline, no ceiling, no trip) answers `Ok` with a
/// single branch and never touches an atomic.
///
/// ```
/// use itq_object::govern::{Interrupt, ResourceError};
///
/// let interrupt = Interrupt::new().with_memory_ceiling(1024);
/// assert!(interrupt.check(512).is_ok());
/// assert_eq!(
///     interrupt.check(2048),
///     Err(ResourceError::MemoryCeiling { limit: 1024 })
/// );
/// ```
#[must_use]
#[derive(Debug)]
pub struct Interrupt {
    cancel: Option<CancelFlag>,
    /// Deadline as (start instant, configured millis); the configured value
    /// is kept for the (deterministic) error message.
    deadline: Option<(Instant, u64)>,
    memory_ceiling: Option<u64>,
    trip: Option<(u64, TripKind)>,
    armed: bool,
    polls: AtomicU64,
}

/// The shared disarmed interrupt behind [`Interrupt::disarmed`]; its poll
/// counter is never touched (`check` early-outs on `armed == false`).
static DISARMED: Interrupt = Interrupt {
    cancel: None,
    deadline: None,
    memory_ceiling: None,
    trip: None,
    armed: false,
    polls: AtomicU64::new(0),
};

impl Default for Interrupt {
    fn default() -> Interrupt {
        Interrupt::new()
    }
}

impl Interrupt {
    /// A fresh, disarmed interrupt; arm it with the `with_*` builders.
    pub fn new() -> Interrupt {
        Interrupt {
            cancel: None,
            deadline: None,
            memory_ceiling: None,
            trip: None,
            armed: false,
            polls: AtomicU64::new(0),
        }
    }

    /// A shared reference to a permanently disarmed interrupt — what the
    /// default [`ExecCtx`] threads through the backends.
    pub fn disarmed() -> &'static Interrupt {
        &DISARMED
    }

    /// Link a cancellation flag: once `flag.cancel()` is called, the next
    /// poll returns [`ResourceError::Cancelled`].
    pub fn with_cancel(mut self, flag: CancelFlag) -> Interrupt {
        self.cancel = Some(flag);
        self.armed = true;
        self
    }

    /// Arm a wall-clock deadline of `millis` milliseconds, measured from
    /// now.  `0` trips at the first poll (useful for deterministic smoke
    /// tests of the deadline path).
    pub fn with_deadline_millis(mut self, millis: u64) -> Interrupt {
        self.deadline = Some((Instant::now(), millis));
        self.armed = true;
        self
    }

    /// Arm a ceiling (in bytes) over the interned-value memory reported to
    /// [`check`](Interrupt::check).
    pub fn with_memory_ceiling(mut self, limit: u64) -> Interrupt {
        self.memory_ceiling = Some(limit);
        self.armed = true;
        self
    }

    /// Fault injection: behave per `kind` at the `nth` poll (1-based).
    /// Poll counts are deterministic functions of the execution, so the trip
    /// point is exactly reproducible — the foundation of the harness's
    /// soundness suite.
    pub fn with_trip_after(mut self, nth: u64, kind: TripKind) -> Interrupt {
        self.trip = Some((nth, kind));
        self.armed = true;
        self
    }

    /// True if any governing condition is armed (a disarmed interrupt's
    /// `check` is a single branch).
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Number of polls an armed interrupt has answered so far (0 for a
    /// disarmed one) — surfaced as [`ExecStats::interrupt_polls`].
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Poll the governor.  `bytes_in_use` is the caller's current
    /// interned-memory estimate (0 for backends that do not intern).
    ///
    /// Checks run in deterministic-first order — injected trip, then cancel
    /// flag, then memory ceiling, then wall-clock deadline — so the fault
    /// harness's trip points cannot be masked by a racing deadline.
    #[inline]
    pub fn check(&self, bytes_in_use: u64) -> Result<(), ResourceError> {
        if !self.armed {
            return Ok(());
        }
        self.check_armed(bytes_in_use)
    }

    /// The slow path of [`check`](Interrupt::check), out of line so the
    /// disarmed branch stays trivially inlinable.
    fn check_armed(&self, bytes_in_use: u64) -> Result<(), ResourceError> {
        let poll = self.polls.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((nth, kind)) = self.trip {
            if poll >= nth {
                match kind {
                    TripKind::Cancel => return Err(ResourceError::Cancelled),
                    TripKind::Panic => panic!("{INJECTED_PANIC}"),
                }
            }
        }
        if let Some(flag) = &self.cancel {
            if flag.is_cancelled() {
                return Err(ResourceError::Cancelled);
            }
        }
        if let Some(limit) = self.memory_ceiling {
            if bytes_in_use > limit {
                return Err(ResourceError::MemoryCeiling { limit });
            }
        }
        if let Some((start, millis)) = self.deadline {
            let due = (poll - 1) % DEADLINE_STRIDE == 0;
            if due && start.elapsed().as_millis() >= u128::from(millis) {
                return Err(ResourceError::Deadline { millis });
            }
        }
        Ok(())
    }
}

/// How one execution runs, handed by shared reference to each backend's
/// single entry point: the governor it polls, how many workers may
/// partition its top-level work, and whether it records a trace.
///
/// The default is the plain context — disarmed, sequential, untraced —
/// which is what the backends' plain convenience wrappers pass.
///
/// ```
/// use itq_object::govern::{ExecCtx, Interrupt};
///
/// let plain = ExecCtx::default();
/// assert!(!plain.interrupt.is_armed() && plain.workers == 1 && !plain.traced);
/// let deadline = Interrupt::new().with_deadline_millis(50);
/// let traced = ExecCtx { interrupt: &deadline, traced: true, ..plain };
/// assert!(traced.interrupt.is_armed());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    /// The execution's resource governor.
    pub interrupt: &'a Interrupt,
    /// Worker count for backends that can partition their top-level work;
    /// `1` runs sequentially and spawns nothing.
    pub workers: usize,
    /// Whether the backend builds a trace span alongside its answer.
    pub traced: bool,
}

impl Default for ExecCtx<'_> {
    fn default() -> Self {
        ExecCtx {
            interrupt: Interrupt::disarmed(),
            workers: 1,
            traced: false,
        }
    }
}

/// The counters and timings of one execution, the one block every backend
/// fills: the tree walker and the compiled slots count formula steps,
/// quantifier draws, candidates and the largest constructive domain
/// `cons_X(T)` (the paper's cost measures, Theorem 4.4); the plan executor
/// counts join probes and materialised objects; the invention drivers
/// [`merge`](ExecStats::merge) one block per level `Q|_n[d]`; the engine
/// stamps the governor's polls and the wall clock.  A backend leaves every
/// counter it does not keep at 0.  [`ExecStats::to_json`] serializes it, so
/// benchmark trajectories can be recorded across revisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of formula nodes evaluated.
    pub steps: u64,
    /// Number of values drawn from quantifier domains (quantifier expansions).
    pub quantifier_values: u64,
    /// Number of candidate output objects tested (tuples scanned at the top
    /// level of the evaluation).
    pub candidates_checked: u64,
    /// The largest single quantifier domain encountered.
    pub max_domain_seen: u64,
    /// Number of invention levels `Q|_n[d]` explored (0 under the limited
    /// interpretation, which never invents).
    pub invention_levels: u64,
    /// Compiled slots only: constructive-domain lookups answered from the
    /// per-execution memo.
    pub domain_cache_hits: u64,
    /// Compiled slots only: constructive-domain lookups that had to
    /// materialise a new domain.
    pub domain_cache_misses: u64,
    /// Compiled and planned executions: distinct values interned in the
    /// execution's value store (0 for the tree walker and the
    /// tuple-at-a-time algebra evaluator, which never intern).
    pub interned_values: u64,
    /// Planned executions only (algebra plans, and conjunctive calculus
    /// queries run through their plan): hash/member index probes plus
    /// candidate pairs examined by join operators (0 for every other
    /// backend).  Comparable with the |A|·|B| pairs a tuple-at-a-time
    /// product walks.
    pub join_probes: u64,
    /// Planned executions only: objects constructed by plan operators before
    /// deduplication (0 for every other backend).
    pub tuples_materialised: u64,
    /// Number of candidate-rank partitions the compiled slots split their
    /// top-level loop into under the limited interpretation.  `0` when the
    /// execution ran sequentially (one worker in its [`ExecCtx`]), and on
    /// every other backend or semantics.  Deterministic for a fixed worker
    /// count.
    pub partitions: u64,
    /// Number of times the execution polled its armed resource governor
    /// (deadline / cancellation / memory-ceiling checks).  0 whenever the
    /// governor is disarmed — the off path never counts polls.  Like
    /// `wall_micros` this depends on the governor configuration rather than
    /// on (query, database, semantics, backend) alone, so
    /// [`ExecStats::deterministic`] zeroes it.
    pub interrupt_polls: u64,
    /// Wall-clock time of the execute call, in microseconds.
    pub wall_micros: u64,
}

impl ExecStats {
    /// Fold another block into this one: `max_domain_seen` takes the
    /// maximum and every other counter is summed, saturating, so merging
    /// many partitions or levels can never wrap.
    pub fn merge(&mut self, other: &ExecStats) {
        self.steps = self.steps.saturating_add(other.steps);
        self.quantifier_values = self
            .quantifier_values
            .saturating_add(other.quantifier_values);
        self.candidates_checked = self
            .candidates_checked
            .saturating_add(other.candidates_checked);
        self.max_domain_seen = self.max_domain_seen.max(other.max_domain_seen);
        self.invention_levels = self.invention_levels.saturating_add(other.invention_levels);
        self.domain_cache_hits = self
            .domain_cache_hits
            .saturating_add(other.domain_cache_hits);
        self.domain_cache_misses = self
            .domain_cache_misses
            .saturating_add(other.domain_cache_misses);
        self.interned_values = self.interned_values.saturating_add(other.interned_values);
        self.join_probes = self.join_probes.saturating_add(other.join_probes);
        self.tuples_materialised = self
            .tuples_materialised
            .saturating_add(other.tuples_materialised);
        self.partitions = self.partitions.saturating_add(other.partitions);
        self.interrupt_polls = self.interrupt_polls.saturating_add(other.interrupt_polls);
        self.wall_micros = self.wall_micros.saturating_add(other.wall_micros);
    }

    /// The statistics with the wall-clock field zeroed.  Every remaining
    /// counter is a deterministic function of (query, database, semantics,
    /// backend), so two executions can be compared with `==` without tripping
    /// over timing noise — `ExecStats` derives `Eq` *including*
    /// `wall_micros`, which is almost never what a differential test wants.
    /// (`interrupt_polls` is zeroed too: it depends on the governor
    /// configuration, not on the query/database/semantics/backend tuple.)
    ///
    /// ```
    /// use itq_object::ExecStats;
    /// let a = ExecStats { steps: 7, wall_micros: 12, ..Default::default() };
    /// let b = ExecStats { steps: 7, wall_micros: 99, interrupt_polls: 3, ..Default::default() };
    /// assert_ne!(a, b); // timing noise trips whole-struct equality...
    /// assert_eq!(a.deterministic(), b.deterministic()); // ...but not this.
    /// ```
    pub fn deterministic(&self) -> ExecStats {
        ExecStats {
            interrupt_polls: 0,
            wall_micros: 0,
            ..*self
        }
    }

    /// Serialize as a flat JSON object (no external dependencies), in the
    /// field order of the struct.
    ///
    /// ```
    /// use itq_object::ExecStats;
    /// let json = ExecStats { steps: 2, ..Default::default() }.to_json();
    /// assert!(json.starts_with("{\"steps\":2,"));
    /// assert!(json.ends_with("}"));
    /// ```
    pub fn to_json(&self) -> String {
        format!(
            "{{\"steps\":{},\"quantifier_values\":{},\"candidates_checked\":{},\
             \"max_domain_seen\":{},\"invention_levels\":{},\"domain_cache_hits\":{},\
             \"domain_cache_misses\":{},\"interned_values\":{},\"join_probes\":{},\
             \"tuples_materialised\":{},\"partitions\":{},\"interrupt_polls\":{},\
             \"wall_micros\":{}}}",
            self.steps,
            self.quantifier_values,
            self.candidates_checked,
            self.max_domain_seen,
            self.invention_levels,
            self.domain_cache_hits,
            self.domain_cache_misses,
            self.interned_values,
            self.join_probes,
            self.tuples_materialised,
            self.partitions,
            self.interrupt_polls,
            self.wall_micros,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_interrupt_is_free_and_never_trips() {
        let i = Interrupt::disarmed();
        assert!(!i.is_armed());
        for _ in 0..10_000 {
            assert!(i.check(u64::MAX).is_ok());
        }
        assert_eq!(i.polls(), 0, "disarmed polls are not even counted");
    }

    #[test]
    fn cancel_flag_trips_at_the_next_poll_and_resets() {
        let flag = CancelFlag::new();
        let i = Interrupt::new().with_cancel(flag.clone());
        assert!(i.check(0).is_ok());
        flag.cancel();
        assert_eq!(i.check(0), Err(ResourceError::Cancelled));
        flag.reset();
        assert!(i.check(0).is_ok());
        assert_eq!(i.polls(), 3);
    }

    #[test]
    fn zero_deadline_trips_at_the_first_poll() {
        let i = Interrupt::new().with_deadline_millis(0);
        assert_eq!(i.check(0), Err(ResourceError::Deadline { millis: 0 }));
    }

    #[test]
    fn a_deadline_reads_the_clock_once_every_stride() {
        let i = Interrupt::new().with_deadline_millis(0);
        let tripped: Vec<u64> = (1..=2 * DEADLINE_STRIDE + 1)
            .filter(|_| i.check(0).is_err())
            .collect();
        assert_eq!(tripped, [1, 1 + DEADLINE_STRIDE, 1 + 2 * DEADLINE_STRIDE]);
        assert_eq!(i.polls(), 2 * DEADLINE_STRIDE + 1);
        let i = Interrupt::new().with_deadline_millis(3_600_000);
        assert!((0..4 * DEADLINE_STRIDE).all(|_| i.check(0).is_ok()));
    }

    #[test]
    fn memory_ceiling_compares_against_reported_bytes() {
        let i = Interrupt::new().with_memory_ceiling(100);
        assert!(i.check(100).is_ok(), "at the ceiling is still fine");
        assert_eq!(
            i.check(101),
            Err(ResourceError::MemoryCeiling { limit: 100 })
        );
    }

    #[test]
    fn injected_trip_fires_deterministically_at_the_nth_poll() {
        let i = Interrupt::new().with_trip_after(3, TripKind::Cancel);
        assert!(i.check(0).is_ok());
        assert!(i.check(0).is_ok());
        assert_eq!(i.check(0), Err(ResourceError::Cancelled));
        // Once past the trip point it stays tripped.
        assert_eq!(i.check(0), Err(ResourceError::Cancelled));
    }

    #[test]
    fn injected_panic_fires_at_the_nth_poll() {
        let i = Interrupt::new().with_trip_after(2, TripKind::Panic);
        assert!(i.check(0).is_ok());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| i.check(0)));
        let payload = caught.expect_err("the second poll must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, INJECTED_PANIC);
    }

    #[test]
    fn messages_are_stable() {
        assert_eq!(
            ResourceError::Deadline { millis: 250 }.to_string(),
            "execution deadline of 250 ms exceeded"
        );
        assert_eq!(ResourceError::Cancelled.to_string(), "execution cancelled");
        assert_eq!(
            ResourceError::MemoryCeiling { limit: 4096 }.to_string(),
            "interned values exceeded the configured memory ceiling of 4096 bytes"
        );
    }

    /// A block whose `max_domain_seen` is `largest` and whose every other
    /// counter is `value`.
    fn every_counter(value: u64, largest: u64) -> ExecStats {
        ExecStats {
            steps: value,
            quantifier_values: value,
            candidates_checked: value,
            max_domain_seen: largest,
            invention_levels: value,
            domain_cache_hits: value,
            domain_cache_misses: value,
            interned_values: value,
            join_probes: value,
            tuples_materialised: value,
            partitions: value,
            interrupt_polls: value,
            wall_micros: value,
        }
    }

    #[test]
    fn merge_saturates_sums_and_keeps_the_largest_domain() {
        let mut total = every_counter(10, 4);
        total.merge(&every_counter(5, 9));
        assert_eq!(total, every_counter(15, 9));
        total.merge(&every_counter(u64::MAX - 1, 2));
        assert_eq!(
            total,
            every_counter(u64::MAX, 9),
            "sums saturate instead of wrapping; a smaller domain leaves the largest"
        );
    }
}
