//! Incremental-engine equivalence suite.
//!
//! The contract of [`itq_core::incremental`]: after ANY sequence of inserts
//! and deletes, every watched view's stored outcome — answer instance or
//! budget-error string — is **byte-identical** to executing its `Prepared`
//! handle from scratch on a snapshot of the mutated database.  Random
//! mutation sequences drive the check:
//!
//! * across both refresh strategies: semi-naive least-model maintenance for
//!   least-fixpoint queries such as the Example 3.1 transitive closure, and
//!   guarded re-execution for everything else (conjunctive views included);
//! * across the engine's execution backends: the compiled default (which
//!   runs the conjunctive views' limited interpretation through their
//!   planned route) and — via a watched *algebra* handle — the set-at-a-time
//!   planner and the tuple-at-a-time evaluator (`use_algebra_planner(false)`);
//! * across all three semantics of the prepared pipeline (limited, finite
//!   invention, terminal invention — the invention semantics take the
//!   re-execution path by construction);
//! * including failing executions: a starved engine's budget error must stay
//!   byte-identical through refreshes until the database actually changes it.

use itq_algebra::{AlgExpr, SelFormula};
use itq_calculus::EvalConfig;
use itq_core::incremental::IncrementalDb;
use itq_core::prelude::*;
use itq_core::queries;
use proptest::prelude::*;

/// One mutation: insert (true) or delete (false) a `PAR` pair.
type Mutation = (bool, (u32, u32));

fn mutations(atoms: u32, len: usize) -> BoxedStrategy<Vec<Mutation>> {
    proptest::collection::vec((any::<bool>(), (0u32..atoms, 0u32..atoms)), 0..len).boxed()
}

fn seed_db(atoms: u32) -> BoxedStrategy<Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..atoms, 0u32..atoms), 0..5).boxed()
}

/// The grandparent join as an algebra expression: π_{1,4}(σ_{$2=$3}(PAR×PAR)).
fn grandparent_algebra() -> AlgExpr {
    AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(SelFormula::coords_eq(2, 3))
        .project(vec![1, 4])
}

/// Assert a watched view's stored outcome is byte-identical to a from-scratch
/// execution of the same handle on the current snapshot.
fn assert_matches_scratch(inc: &IncrementalDb, name: &str, context: &str) {
    let view = inc.view(name).expect("view is watched");
    let scratch = view
        .prepared()
        .execute(&inc.snapshot(), view.semantics())
        .map(|outcome| outcome.result);
    match (view.outcome(), &scratch) {
        (Ok(stored), Ok(fresh)) => {
            assert_eq!(stored, fresh, "{name} answers diverged {context}")
        }
        (Err(stored), Err(fresh)) => assert_eq!(
            stored.to_string(),
            fresh.to_string(),
            "{name} error strings diverged {context}"
        ),
        (stored, fresh) => {
            panic!("{name} outcome kind diverged {context}: stored {stored:?} vs scratch {fresh:?}")
        }
    }
}

fn apply(inc: &mut IncrementalDb, (insert, (a, b)): Mutation) {
    let tuple = vec![Value::pair(Atom(a), Atom(b))];
    if insert {
        inc.insert("PAR", tuple).expect("PAR pairs are well-typed");
    } else {
        inc.delete("PAR", tuple).expect("PAR pairs are well-typed");
    }
}

fn incremental_db(seed: &[(u32, u32)]) -> IncrementalDb {
    let pairs: Vec<(Atom, Atom)> = seed.iter().map(|&(a, b)| (Atom(a), Atom(b))).collect();
    IncrementalDb::new(queries::parent_schema(), &queries::parent_database(&pairs))
        .expect("seed database conforms to the schema")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Limited interpretation, all three backends: every conjunctive view
    /// re-executes its handle — planned joins for the calculus and the
    /// planner-on algebra handle, tuple-at-a-time for the planner-off algebra
    /// handle.
    #[test]
    fn conjunctive_views_track_mutations(
        seed in seed_db(5),
        muts in mutations(5, 7),
    ) {
        let planner_on = Engine::new();
        let planner_off = Engine::builder().use_algebra_planner(false).build();
        let schema = queries::parent_schema();
        let mut inc = incremental_db(&seed);
        for (name, prepared) in [
            ("gp", planner_on.prepare(&queries::grandparent_query()).unwrap()),
            ("sib", planner_on.prepare(&queries::sibling_query()).unwrap()),
            ("gp-alg", planner_on.prepare_algebra(&grandparent_algebra(), &schema).unwrap()),
            ("gp-tup", planner_off.prepare_algebra(&grandparent_algebra(), &schema).unwrap()),
        ] {
            inc.watch(name, prepared, Semantics::Limited);
            assert_matches_scratch(&inc, name, "at watch time");
        }
        for (step, m) in muts.into_iter().enumerate() {
            apply(&mut inc, m);
            for name in ["gp", "sib", "gp-alg", "gp-tup"] {
                assert_matches_scratch(&inc, name, &format!("after mutation {step}"));
            }
        }
    }

    /// The transitive-closure shape: inserts extend the warm least model
    /// semi-naively, deletes re-execute through the route — both must match
    /// a from-scratch execution exactly, and the closure itself.
    #[test]
    fn transitive_closure_view_tracks_mutations(
        seed in seed_db(3),
        muts in mutations(3, 5),
    ) {
        let engine = Engine::new();
        let mut inc = incremental_db(&seed);
        let prepared = engine.prepare(&queries::transitive_closure_query()).unwrap();
        inc.watch("tc", prepared, Semantics::Limited);
        prop_assert_eq!(inc.view("tc").unwrap().strategy_name(), "least-fixpoint");
        assert_matches_scratch(&inc, "tc", "at watch time");
        for (step, m) in muts.into_iter().enumerate() {
            apply(&mut inc, m);
            assert_matches_scratch(&inc, "tc", &format!("after mutation {step}"));
            let edges = Relation::from_instance(inc.database().relation("PAR").unwrap())
                .filter(|edges| !edges.is_empty())
                .unwrap_or_else(|| Relation::empty(2));
            prop_assert_eq!(
                inc.view("tc").unwrap().outcome(),
                &Ok(itq_relational::transitive_closure_seminaive(&edges).to_instance())
            );
        }
    }

    /// The invention semantics re-execute (guarded), and must still track.
    #[test]
    fn invention_views_track_mutations(
        seed in seed_db(3),
        muts in mutations(3, 4),
    ) {
        let engine = Engine::builder().max_invented(1).build();
        let mut inc = incremental_db(&seed);
        for (name, semantics) in [
            ("gp-fi", Semantics::FiniteInvention),
            ("gp-ti", Semantics::TerminalInvention),
        ] {
            let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
            inc.watch(name, prepared, semantics);
            prop_assert_eq!(inc.view(name).unwrap().strategy_name(), "re-execute");
            assert_matches_scratch(&inc, name, "at watch time");
        }
        for (step, m) in muts.into_iter().enumerate() {
            apply(&mut inc, m);
            for name in ["gp-fi", "gp-ti"] {
                assert_matches_scratch(&inc, name, &format!("after mutation {step}"));
            }
        }
    }

    /// Budget errors: a starved engine fails identically — same error string —
    /// whether the view refreshed incrementally or executed from scratch.
    #[test]
    fn budget_error_strings_track_mutations(
        seed in seed_db(4),
        muts in mutations(4, 5),
    ) {
        let starved = Engine::builder()
            .calc_config(EvalConfig { max_steps: 40, ..EvalConfig::default() })
            .build();
        let mut inc = incremental_db(&seed);
        let prepared = starved.prepare(&queries::grandparent_query()).unwrap();
        inc.watch("gp", prepared, Semantics::Limited);
        assert_matches_scratch(&inc, "gp", "at watch time");
        for (step, m) in muts.into_iter().enumerate() {
            apply(&mut inc, m);
            assert_matches_scratch(&inc, "gp", &format!("after mutation {step}"));
        }
    }
}

/// Versioning and tier bookkeeping survive a long alternating run (a plain
/// test so it always runs regardless of the proptest case budget).
#[test]
fn versions_count_epochs_and_snapshots_stay_consistent() {
    let engine = Engine::new();
    let mut inc = incremental_db(&[(0, 1)]);
    let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
    inc.watch("gp", prepared, Semantics::Limited);
    for round in 0..6u32 {
        apply(&mut inc, (true, (round % 3, (round + 1) % 3)));
        apply(&mut inc, (false, ((round + 1) % 3, round % 3)));
        assert_matches_scratch(&inc, "gp", "during the alternating run");
    }
    // 1 initial + 12 mutations.
    assert_eq!(inc.version(), 13);
}
