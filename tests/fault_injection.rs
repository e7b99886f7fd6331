//! Resource-governor fault-injection property suite.
//!
//! Driven by the seed-deterministic harness in [`itq::fault`]: faults are
//! sampled from a [`FaultRng`] whose seed appears in every assertion message,
//! so a CI failure replays locally from the seed alone.  The injection seam
//! is `GovernorConfig::trip_after` — interrupt-poll counts are a pure
//! function of the query, database, and backend, so "trip at the nth poll"
//! names an exactly reproducible logical instant.
//!
//! The contract, checked across all five execution backends (compiled slots,
//! planned algebra, tuple-at-a-time algebra, the planned route of a
//! conjunctive calculus query, and the least-fixpoint route of the Example
//! 3.1 closure) and all three semantics (limited, finite-invention,
//! terminal-invention):
//!
//! * an execution interrupted at *any* point returns either a typed
//!   [`EngineError::Resource`] / contained [`EngineError::Internal`] or the
//!   exact uninterrupted answer — never a silently wrong one;
//! * the same fault at the same trip point reproduces a byte-identical error,
//!   run after run, on a fresh engine or a reused prepared handle;
//! * after any fault — cancellation, deadline, ceiling, or an injected
//!   panic — the engine stays usable and a disarmed run matches the
//!   baseline byte-for-byte;
//! * shrinking memory ceilings cross the interning watermark monotonically:
//!   exact answers above it, the canonical ceiling error below it;
//! * cancellations injected at mutation-epoch boundaries of an incremental
//!   database never corrupt it: the mutation still commits, the watched view
//!   keeps its last-good answer marked stale, and the next healthy epoch
//!   catches it up.

use itq::fault::{epoch_faults, observation_governor, shrinking_ceilings, Fault, FaultRng};
use itq_algebra::{AlgExpr, SelFormula};
use itq_core::incremental::IncrementalDb;
use itq_core::prelude::*;
use itq_core::queries;

// Three atoms: large enough for the grandparent join to answer, small enough
// that the invention-semantics runs (whose quantifier domains grow with the
// active domain) stay affordable in debug builds.
fn family_db() -> Database {
    queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))])
}

/// The database a backend's row runs on.  The closure's invention-semantics
/// runs enumerate 2^(n²) candidate relations per level, so its row takes a
/// two-atom cycle, whose closure still needs a second semi-naive round.
fn db_for(backend: &str) -> Database {
    match backend {
        "least-fixpoint" => queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(0))]),
        _ => family_db(),
    }
}

/// The grandparent join as an algebra expression, for the two algebra
/// backends (the calculus backends run [`queries::grandparent_query`], the
/// compiled slots with a negated atom that keeps it off the planned route).
fn grandparent_algebra() -> AlgExpr {
    AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(SelFormula::coords_eq(2, 3))
        .project(vec![1, 4])
}

/// The backends, each with the row its fault seeds derive from.
const BACKENDS: [(&str, u64); 5] = [
    ("compiled", 1),
    ("planned", 3),
    ("tuple", 4),
    ("routed", 5),
    ("least-fixpoint", 6),
];

/// A fresh prepared handle for one backend under one governor.  Prepared
/// handles snapshot the governor, so every run arms its own engine.
fn prepare(backend: &str, governor: GovernorConfig) -> Prepared {
    // Poll-indexed faults (`trip_after`) force the sequential path, so the
    // whole suite pins `parallelism(1)`: otherwise an `ITQ_PARALLELISM`
    // override would run the non-poll-indexed faults partitioned and their
    // worker-dependent stats (cache hits, `partitions`) could never match the
    // sequential baseline.  Worker-count independence of governor trips is
    // pinned separately in tests/parallel_equivalence.rs.
    let builder = Engine::builder()
        .parallelism(1)
        .max_invented(1)
        .governor(governor);
    match backend {
        "compiled" => builder
            .build()
            .prepare(&queries::excluding_parent_pairs(
                &queries::grandparent_query(),
            ))
            .unwrap(),
        "routed" => {
            let prepared = builder
                .build()
                .prepare(&queries::grandparent_query())
                .unwrap();
            assert!(prepared.physical_plan().is_some(), "conjunctive route");
            prepared
        }
        "least-fixpoint" => {
            let prepared = builder
                .build()
                .prepare(&queries::transitive_closure_query())
                .unwrap();
            assert!(prepared.least_fixpoint().is_some(), "least-fixpoint route");
            prepared
        }
        "planned" => builder
            .build()
            .prepare_algebra(&grandparent_algebra(), &queries::parent_schema())
            .unwrap(),
        "tuple" => builder
            .use_algebra_planner(false)
            .build()
            .prepare_algebra(&grandparent_algebra(), &queries::parent_schema())
            .unwrap(),
        other => unreachable!("unknown backend {other}"),
    }
}

/// The core property: interruption at any sampled point is error-or-exact.
#[test]
fn interruption_yields_a_typed_error_or_the_exact_answer() {
    for (backend, row) in BACKENDS {
        let db = db_for(backend);
        for (s, semantics) in Semantics::ALL.into_iter().enumerate() {
            // Baseline: the observation governor is armed (so polls are
            // counted) but can never trip, so the answer is the exact one.
            let (baseline, stats) =
                prepare(backend, observation_governor()).try_execute(&db, semantics);
            let baseline = baseline
                .unwrap_or_else(|e| panic!("{backend}/{semantics}: uninterrupted run failed: {e}"));
            let polls = stats.interrupt_polls;
            assert!(
                polls >= 1,
                "{backend}/{semantics}: the entry poll always counts"
            );

            let seed = 1000 * row + s as u64;
            let mut rng = FaultRng::new(seed);
            // Invention-semantics runs sweep whole level towers per
            // execution; fewer rounds keep the suite affordable.
            let rounds = if semantics == Semantics::Limited {
                12
            } else {
                6
            };
            for round in 0..rounds {
                let fault = Fault::sample(&mut rng, polls, 1 << 20);
                let here = format!("{backend}/{semantics} seed {seed} round {round}: {fault:?}");
                let (outcome, _) = prepare(backend, fault.governor()).try_execute(&db, semantics);
                match outcome {
                    Ok(out) => {
                        assert_eq!(out.result, baseline.result, "{here}: silently wrong answer");
                        assert_eq!(
                            out.stats.deterministic(),
                            baseline.stats.deterministic(),
                            "{here}: a completed run must have done the same work"
                        );
                    }
                    Err(EngineError::Resource(_)) => {}
                    Err(EngineError::Internal { detail }) => {
                        assert!(
                            matches!(fault, Fault::PanicAtPoll(_)),
                            "{here}: internal error without an injected panic: {detail}"
                        );
                        assert!(detail.contains("fault injection"), "{here}: {detail}");
                    }
                    Err(other) => panic!("{here}: untyped failure {other}"),
                }
            }
        }
    }
}

/// Same fault, same trip point → byte-identical error, on fresh engines and
/// on a reused prepared handle, across every backend and semantics.
#[test]
fn identical_faults_reproduce_byte_identical_errors() {
    for (backend, _) in BACKENDS {
        let db = db_for(backend);
        for semantics in Semantics::ALL {
            // Poll 1 is the entry poll, so these two faults always trip.
            for fault in [Fault::CancelAtPoll(1), Fault::ZeroDeadline] {
                let here = format!("{backend}/{semantics}: {fault:?}");
                let first = prepare(backend, fault.governor())
                    .try_execute(&db, semantics)
                    .0
                    .unwrap_err();
                let second = prepare(backend, fault.governor())
                    .try_execute(&db, semantics)
                    .0
                    .unwrap_err();
                assert_eq!(first.to_string(), second.to_string(), "{here}");

                let reused = prepare(backend, fault.governor());
                let a = reused.try_execute(&db, semantics).0.unwrap_err();
                let b = reused.try_execute(&db, semantics).0.unwrap_err();
                assert_eq!(a.to_string(), first.to_string(), "{here} (reused handle)");
                assert_eq!(a.to_string(), b.to_string(), "{here} (reused handle)");
            }
        }
    }
}

/// After any fault kind — including a contained panic — re-executing matches
/// a fresh disarmed engine byte-for-byte: no fault leaves residue.
#[test]
fn engines_recover_after_every_fault_kind() {
    for (backend, _) in BACKENDS {
        let db = db_for(backend);
        let baseline = prepare(backend, GovernorConfig::default())
            .try_execute(&db, Semantics::Limited)
            .0
            .unwrap();
        for fault in [
            Fault::CancelAtPoll(1),
            Fault::PanicAtPoll(1),
            Fault::MemoryCeiling(1),
            Fault::ZeroDeadline,
        ] {
            let here = format!("{backend}: {fault:?}");
            let handle = prepare(backend, fault.governor());
            let first = handle.try_execute(&db, Semantics::Limited).0;
            let second = handle.try_execute(&db, Semantics::Limited).0;
            match (first, second) {
                // The memory ceiling only governs interning backends, so on
                // the others a one-byte ceiling still completes — exactly.
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.result, baseline.result, "{here}");
                    assert_eq!(b.result, baseline.result, "{here}");
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{here}"),
                _ => panic!("{here}: fault runs must be reproducible"),
            }
            // The fault left nothing behind: a disarmed engine of the same
            // backend still produces the baseline.
            let recovered = prepare(backend, GovernorConfig::default())
                .try_execute(&db, Semantics::Limited)
                .0
                .unwrap_or_else(|e| panic!("{here}: engine did not recover: {e}"));
            assert_eq!(recovered.result, baseline.result, "{here}");
            assert_eq!(
                recovered.stats.deterministic(),
                baseline.stats.deterministic(),
                "{here}"
            );
        }
    }
}

/// Shrinking ceilings cross the interning watermark monotonically: exact
/// answers above, the canonical error below, nothing in between — on both
/// interning calculus paths, and on the least-fixpoint route, whose rounds
/// report the facts they hold.
#[test]
fn shrinking_memory_ceilings_are_exact_or_error_at_every_rung() {
    for backend in ["compiled", "routed", "least-fixpoint"] {
        assert_ceilings_are_monotone(backend, &db_for(backend));
    }
}

/// The least-fixpoint route polls on entry, once per semi-naive round and
/// through its guard check: a cancel injected at every one of those polls
/// trips with the typed error, and the handle stays usable.
#[test]
fn every_least_fixpoint_poll_trips_with_a_typed_error() {
    let db = family_db();
    let (baseline, stats) =
        prepare("least-fixpoint", observation_governor()).try_execute(&db, Semantics::Limited);
    let baseline = baseline.unwrap();
    let polls = stats.interrupt_polls;
    assert!(polls >= 3, "an entry poll and one per round: {polls}");
    for nth in 1..=polls {
        let handle = prepare("least-fixpoint", Fault::CancelAtPoll(nth).governor());
        let (outcome, stats) = handle.try_execute(&db, Semantics::Limited);
        assert_eq!(
            outcome.unwrap_err(),
            EngineError::Resource(ResourceError::Cancelled),
            "poll {nth}"
        );
        assert_eq!(
            stats.interrupt_polls, nth,
            "the trip is final at poll {nth}"
        );
        let recovered = handle
            .with_governor(GovernorConfig::default())
            .execute(&db, Semantics::Limited)
            .unwrap();
        assert_eq!(recovered.result, baseline.result, "poll {nth}");
    }
}

fn assert_ceilings_are_monotone(backend: &str, db: &Database) {
    let baseline = prepare(backend, GovernorConfig::default())
        .try_execute(db, Semantics::Limited)
        .0
        .unwrap();
    let mut tripped = false;
    for ceiling in shrinking_ceilings(1 << 20, 24) {
        let outcome = prepare(backend, Fault::MemoryCeiling(ceiling).governor())
            .try_execute(db, Semantics::Limited)
            .0;
        match outcome {
            Ok(out) => {
                assert!(
                    !tripped,
                    "{backend} ceiling {ceiling}: succeeded below a ceiling that already tripped"
                );
                assert_eq!(out.result, baseline.result, "{backend} ceiling {ceiling}");
            }
            Err(e) => {
                tripped = true;
                assert_eq!(
                    e.to_string(),
                    format!(
                        "interned values exceeded the configured memory ceiling of \
                         {ceiling} bytes"
                    )
                );
            }
        }
    }
    assert!(
        tripped,
        "{backend}: the one-byte ceiling must trip the interning backend"
    );
}

/// Cancellations injected at mutation-epoch boundaries never corrupt the
/// incremental database: mutations still commit, tripped refreshes keep the
/// last-good answer marked stale, and healthy epochs catch the view up.
#[test]
fn epoch_boundary_faults_never_corrupt_watched_views() {
    let seed = 11;
    let flag = CancelFlag::new();
    let governed = Engine::builder().cancel_flag(flag.clone()).build();
    let prepared = governed.prepare(&queries::grandparent_query()).unwrap();
    let scratch_engine = Engine::new();
    let scratch = scratch_engine
        .prepare(&queries::grandparent_query())
        .unwrap();

    let mut inc = IncrementalDb::new(queries::parent_schema(), &family_db()).unwrap();
    inc.watch("gp", prepared, Semantics::Limited);
    let mut last_good = inc.view("gp").unwrap().outcome().clone().unwrap();

    let batches: Vec<Value> = (3..9).map(|i| Value::pair(Atom(i), Atom(i + 1))).collect();
    let schedule = epoch_faults(&mut FaultRng::new(seed), batches.len());
    assert!(schedule.iter().any(|&b| b) && !schedule.iter().all(|&b| b));
    for (epoch, (value, &faulty)) in batches.into_iter().zip(&schedule).enumerate() {
        let here = format!("seed {seed} epoch {epoch} (faulty: {faulty})");
        if faulty {
            flag.cancel();
        }
        let version = inc.version();
        inc.insert("PAR", vec![value])
            .unwrap_or_else(|e| panic!("{here}: the mutation itself must commit: {e}"));
        assert_eq!(inc.version(), version + 1, "{here}");
        let view = inc.view("gp").unwrap();
        if faulty {
            // The refresh tripped: last-good answer survives, marked stale.
            assert!(view.is_stale(), "{here}");
            assert_eq!(view.outcome(), &Ok(last_good.clone()), "{here}");
            flag.reset();
        } else {
            assert!(!view.is_stale(), "{here}");
            let exact = scratch
                .execute(&inc.snapshot(), Semantics::Limited)
                .unwrap()
                .result;
            assert_eq!(view.outcome(), &Ok(exact.clone()), "{here}");
            last_good = exact;
        }
    }
}
