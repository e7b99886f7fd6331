//! Analysis purity: the static analyzer never changes what executes.
//!
//! Every `Engine::prepare` / `prepare_algebra` now runs the `itq-analyze`
//! pass pipeline and caches a [`Report`] on the handle.  The contract pinned
//! here, over random well-typed algebra expressions and the calculus
//! exemplars, across the engine pair (planned and tuple-at-a-time algebra)
//! and all three semantics:
//!
//! * analysis is **deterministic** — analyzing the same input twice (and the
//!   report cached by two independently prepared handles) yields the same
//!   diagnostics, and analysis never mutates its input;
//! * analysis is **inert** — reading `Prepared::diagnostics()` before,
//!   between, or after executions changes nothing: answers, whole
//!   [`ExecStats`] (via `deterministic()`), boundedness flags, and levels are
//!   byte-identical to a handle whose report is never touched;
//! * diagnosed defects still execute exactly as before: a query the analyzer
//!   warns about (unused variables, predicted budget blowups) returns the
//!   same answers and the same budget-error *strings* as the raw evaluator
//!   paths — the analyzer predicts errors, it never raises or rewrites them.

use itq_algebra::EvalConfig as AlgConfig;
use itq_algebra::{AlgExpr, SelFormula};
use itq_analyze::{analyze_algebra, analyze_query, Budgets, Severity};
use itq_calculus::{Formula, Query, Term};
use itq_core::prelude::*;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::single("PAR", Type::flat_tuple(2)).with("PERSON", Type::Atomic)
}

fn budgets() -> Budgets {
    let engine = Engine::new();
    Budgets {
        max_quantifier_domain: engine.calc_config().max_quantifier_domain,
        max_instance: engine.alg_config().max_instance,
    }
}

/// Databases over at most three atoms (the `backend_differential` shape).
fn small_db() -> BoxedStrategy<Database> {
    (
        proptest::collection::vec((0u32..3, 0u32..3), 0..5),
        proptest::collection::vec(0u32..3, 0..4),
    )
        .prop_map(|(edges, people)| {
            let pairs: Vec<(Atom, Atom)> =
                edges.into_iter().map(|(a, b)| (Atom(a), Atom(b))).collect();
            Database::single("PAR", Instance::from_pairs(pairs))
                .with("PERSON", Instance::from_atoms(people.into_iter().map(Atom)))
        })
        .boxed()
}

/// Well-typed expressions from an opcode recipe — a compact cousin of the
/// `backend_differential` generator, biased towards shapes the analyzer has
/// opinions about (⊥/⊤ selections, self-differences, products, powersets).
fn expr_from_recipe(recipe: &[(usize, usize)]) -> AlgExpr {
    let schema = schema();
    let mut stack: Vec<AlgExpr> = vec![AlgExpr::pred("PAR")];
    for &(op, arg) in recipe {
        let top = stack.pop().expect("stack never empties");
        let is_tuple = matches!(itq_algebra::infer_type(&top, &schema), Ok(Type::Tuple(_)));
        let candidate = match op {
            0 => {
                stack.push(top.clone());
                AlgExpr::pred(if arg % 2 == 0 { "PAR" } else { "PERSON" })
            }
            // Selections only over tuple operands: a σ over anything else is
            // the ITQ0203 vacuous selection, rejected at plan time.
            1 if is_tuple => top.clone().select(SelFormula::all(vec![])),
            2 if is_tuple => top.clone().select(SelFormula::any(vec![])),
            3 if is_tuple => top.clone().select(SelFormula::coords_eq(1, 1 + arg % 2)),
            4 => top.clone().diff(top.clone()),
            5 => top.clone().product(AlgExpr::pred("PERSON")),
            6 => top.clone().union(top.clone()),
            7 if top.powerset_count() == 0 => top.clone().powerset(),
            8 => top.clone().project(vec![1]),
            _ => top.clone(),
        };
        stack.push(if itq_algebra::infer_type(&candidate, &schema).is_ok() {
            candidate
        } else {
            top
        });
    }
    stack.pop().expect("stack never empties")
}

fn alg_expr() -> BoxedStrategy<AlgExpr> {
    proptest::collection::vec((0usize..10, 0usize..4), 0..6)
        .prop_map(|recipe| expr_from_recipe(&recipe))
        .boxed()
}

fn engine_pair() -> [Engine; 2] {
    let capped = EvalConfig {
        max_steps: 500_000,
        ..EvalConfig::default()
    };
    [
        Engine::builder()
            .calc_config(capped)
            .max_invented(1)
            .build(),
        Engine::builder()
            .calc_config(capped)
            .max_invented(1)
            .use_algebra_planner(false)
            .build(),
    ]
}

/// The comparable face of an execution: answers, flags, levels, and the
/// wall-clock-free statistics on success, the full error string on failure.
fn fingerprint(outcome: Result<QueryOutcome, itq_core::engine::EngineError>) -> String {
    match outcome {
        Ok(o) => format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            o.result,
            o.bounded_approximation,
            o.defined_at,
            o.stabilised_at,
            o.stats.deterministic()
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// Execute twice on one handle (reading the report in between) and once on a
/// fresh handle whose report is never read; all three must agree.
fn assert_analysis_is_inert(engine: &Engine, expr: &AlgExpr, db: &Database) {
    for semantics in Semantics::ALL {
        let touched = engine
            .prepare_algebra(expr, &schema())
            .expect("generated expressions prepare");
        let before = fingerprint(touched.execute(db, semantics));
        let report = touched.diagnostics().clone();
        let after = fingerprint(touched.execute(db, semantics));
        assert_eq!(before, after, "{semantics}: re-execution on {expr}");

        let untouched = engine
            .prepare_algebra(expr, &schema())
            .expect("generated expressions prepare");
        let fresh = fingerprint(untouched.execute(db, semantics));
        assert_eq!(before, fresh, "{semantics}: fresh handle on {expr}");
        assert_eq!(
            &report,
            untouched.diagnostics(),
            "reports diverge across handles on {expr}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Direct analysis is deterministic and leaves its input untouched.
    #[test]
    fn analysis_is_deterministic_and_pure(expr in alg_expr()) {
        let pristine = expr.clone();
        let first = analyze_algebra(&expr, &schema(), &budgets());
        let second = analyze_algebra(&expr, &schema(), &budgets());
        prop_assert_eq!(&first, &second, "{}", &expr);
        prop_assert_eq!(&expr, &pristine, "analysis mutated its input");
        // Every report carries at least the ITQ0401 stratum line.
        prop_assert!(!first.diagnostics.is_empty());
    }

    /// Reading diagnostics never perturbs execution, across the engine pair
    /// and all three semantics.
    #[test]
    fn diagnostics_never_perturb_execution(expr in alg_expr(), db in small_db()) {
        for engine in engine_pair() {
            assert_analysis_is_inert(&engine, &expr, &db);
        }
    }
}

/// A calculus query the analyzer warns about (unused + shadowed variables,
/// an always-true equality) still returns the exact grandparent answers.
#[test]
fn warned_calculus_query_executes_unchanged() {
    let body = Formula::exists(
        "x",
        Type::flat_tuple(2),
        Formula::exists(
            "y",
            Type::flat_tuple(2),
            Formula::exists(
                "u",
                Type::flat_tuple(2),
                Formula::and(vec![
                    Formula::pred("PAR", Term::var("x")),
                    Formula::pred("PAR", Term::var("y")),
                    Formula::eq(Term::proj("x", 2), Term::proj("y", 1)),
                    Formula::eq(Term::proj("t", 1), Term::proj("x", 1)),
                    Formula::eq(Term::proj("t", 2), Term::proj("y", 2)),
                    Formula::eq(Term::var("t"), Term::var("t")),
                ]),
            ),
        ),
    );
    let query = Query::new("t", Type::flat_tuple(2), body, schema()).unwrap();
    let report = analyze_query(&query, &budgets());
    assert!(
        report.at_least(Severity::Warning).count() >= 2,
        "expected the unused-`u` and always-true warnings: {report:?}"
    );

    let db = Database::single(
        "PAR",
        Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
    )
    .with("PERSON", Instance::empty());
    for engine in engine_pair() {
        let prepared = engine.prepare(&query).unwrap();
        assert_eq!(prepared.diagnostics(), &report, "prepare caches the report");
        let outcome = prepared.execute(&db, Semantics::Limited).unwrap();
        assert_eq!(
            outcome.result.len(),
            1,
            "grandparent pair survives warnings"
        );
    }
}

/// A predicted budget blowup (ITQ0302 at prepare time) still dies at run time
/// with the evaluator's own byte-identical message on every backend — the
/// analyzer forecasts the error, the evaluator raises it.
#[test]
fn predicted_budget_error_strings_are_untouched() {
    // Four stacked powersets have a database-independent cardinality lower
    // bound of 0 → 1 → 2 → 4 → 16, which exceeds a budget of 4 on any input.
    let expr = AlgExpr::pred("PAR")
        .powerset()
        .powerset()
        .powerset()
        .powerset();
    let tiny = AlgConfig { max_instance: 4 };
    let report = analyze_algebra(
        &expr,
        &schema(),
        &Budgets {
            max_instance: 4,
            ..budgets()
        },
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == itq_analyze::diag::CARDINALITY_BUDGET),
        "a lower bound of 16 over a budget of 4 should be predicted: {report:?}"
    );

    let db = Database::single("PAR", Instance::empty()).with("PERSON", Instance::empty());
    let expected = expr.eval(&db, &schema(), &tiny).unwrap_err().to_string();
    for (label, engine) in [
        ("planner", Engine::builder().alg_config(tiny).build()),
        (
            "tuple",
            Engine::builder()
                .alg_config(tiny)
                .use_algebra_planner(false)
                .build(),
        ),
    ] {
        let prepared = engine.prepare_algebra(&expr, &schema()).unwrap();
        assert!(
            !prepared.diagnostics().diagnostics.is_empty(),
            "{label}: report cached"
        );
        let err = prepared.execute(&db, Semantics::Limited).unwrap_err();
        assert_eq!(err.to_string(), expected, "{label}");
    }
}

/// Type mismatches are reported in subterm order, each at the operator where
/// it originates, and typing, planning and translation all fail on the first
/// of them.
#[test]
fn type_mismatches_are_reported_in_subterm_order() {
    // (PAR ∪ PERSON) × (PERSON − PAR), in pre-order: 0 ×, 1 ∪, 2 PAR,
    // 3 PERSON, 4 −, 5 PERSON, 6 PAR.  Both operands of the product fail, so
    // the product itself is not flagged.
    let e = AlgExpr::pred("PAR")
        .union(AlgExpr::pred("PERSON"))
        .product(AlgExpr::pred("PERSON").diff(AlgExpr::pred("PAR")));
    let report = analyze_algebra(&e, &schema(), &budgets());
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == itq_analyze::diag::TYPE_MISMATCH)
        .map(|d| (d.node, d.message.as_str()))
        .collect();
    let union = "type error in union: [U, U] vs U";
    assert_eq!(
        hits,
        [
            (Some(1), union),
            (Some(4), "type error in difference: U vs [U, U]")
        ]
    );
    let infer = itq_algebra::infer_type(&e, &schema()).unwrap_err();
    assert_eq!(infer.to_string(), union);
    let plan = itq_algebra::plan(&e, &schema()).unwrap_err();
    assert_eq!(plan.to_string(), union);
    let translate = itq_algebra::to_calculus_query(&e, &schema()).unwrap_err();
    assert_eq!(translate.to_string(), union);
}
