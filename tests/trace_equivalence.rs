//! Tracing is observation, not interference: running a query with a
//! [`CollectingSink`] attached must be byte-identical — same answers, same
//! boundedness flags, same deterministic evaluator counters — to running it
//! plain or through the [`NoopSink`] short-circuit, on every backend and
//! under every semantics.  The collected span tree is then checked against
//! the [`ExecStats`] it claims to annotate: the root's wall clock is the
//! execution's wall clock, and the counter fields tile the stats totals.

use itq_core::prelude::*;
use itq_core::queries;
use itq_trace::{CollectingSink, NoopSink, Span, TraceSink};
use proptest::prelude::*;

/// Parent databases over a handful of atoms: enough to join, small enough
/// for the enumeration and the invention ladder.
fn small_db() -> BoxedStrategy<Database> {
    proptest::collection::vec((0u32..3, 0u32..3), 0..5)
        .prop_map(|edges| {
            let pairs: Vec<(Atom, Atom)> =
                edges.into_iter().map(|(a, b)| (Atom(a), Atom(b))).collect();
            queries::parent_database(&pairs)
        })
        .boxed()
}

/// One of the canonical genealogy queries (all over the PAR schema).
fn query() -> BoxedStrategy<itq_calculus::Query> {
    (0usize..3)
        .prop_map(|i| match i {
            0 => queries::grandparent_query(),
            1 => queries::sibling_query(),
            _ => queries::transitive_closure_query(),
        })
        .boxed()
}

/// The compiled slot evaluator with a tight invention bound and a capped
/// step budget, so pathological draws die on a classified error instead of
/// burning minutes (and the capped budget keeps every query off the routes).
/// The worker count is explicit, so an `ITQ_PARALLELISM` override cannot
/// change which span shape a run is checked against: sequential compiled
/// trees carry per-slot children with `draws`, partitioned ones one child per
/// candidate-rank partition.
fn engine(workers: usize) -> Engine {
    let capped = EvalConfig {
        max_steps: 500_000,
        ..EvalConfig::default()
    };
    Engine::builder()
        .parallelism(workers)
        .calc_config(capped)
        .max_invented(1)
        .build()
}

/// Execute `prepared` three ways — plain, noop-sink, collecting-sink — and
/// assert the outcomes are byte-identical modulo wall clock (errors
/// included: a budget the plain path exhausts must be exhausted identically
/// under tracing).  On success, returns the single span the collecting sink
/// captured, paired with the traced outcome.
fn execute_three_ways(
    prepared: &Prepared,
    db: &Database,
    semantics: Semantics,
    label: &str,
) -> Option<(QueryOutcome, Span)> {
    let plain = prepared.execute(db, semantics);
    let noop = prepared.execute_with_sink(db, semantics, &NoopSink);
    let sink = CollectingSink::new();
    let traced = prepared.execute_with_sink(db, semantics, &sink);
    match (plain, noop, traced) {
        (Ok(plain), Ok(noop), Ok(traced)) => {
            for (arm, other) in [("noop", &noop), ("collecting", &traced)] {
                assert_eq!(plain.result, other.result, "{label}/{semantics}/{arm}");
                assert_eq!(
                    plain.bounded_approximation, other.bounded_approximation,
                    "{label}/{semantics}/{arm}"
                );
                assert_eq!(
                    plain.defined_at, other.defined_at,
                    "{label}/{semantics}/{arm}"
                );
                assert_eq!(
                    plain.stabilised_at, other.stabilised_at,
                    "{label}/{semantics}/{arm}"
                );
                assert_eq!(
                    plain.stats.deterministic(),
                    other.stats.deterministic(),
                    "{label}/{semantics}/{arm}"
                );
            }
            let mut spans = sink.take();
            assert_eq!(
                spans.len(),
                1,
                "{label}/{semantics}: one root span per execution"
            );
            Some((traced, spans.pop().unwrap()))
        }
        (Err(plain), Err(noop), Err(traced)) => {
            assert_eq!(plain, noop, "{label}/{semantics}: noop error");
            assert_eq!(plain, traced, "{label}/{semantics}: collecting error");
            None
        }
        (plain, noop, traced) => panic!(
            "{label}/{semantics}: sinks disagree on success: \
             plain {plain:?} vs noop {noop:?} vs collecting {traced:?}"
        ),
    }
}

/// The route's root span of a routed execution: the root itself under the
/// limited interpretation, the only child of `Q|_0[d]` under invention.
fn route_span(span: &Span) -> &Span {
    match span.name.as_str() {
        "finite-invention" | "terminal-invention" => &span.children[0].children[0],
        _ => span,
    }
}

/// The span tree must agree with the stats block it annotates.
fn assert_span_matches_stats(outcome: &QueryOutcome, span: &Span, workers: usize, label: &str) {
    let stats = &outcome.stats;
    assert_eq!(span.wall_micros, stats.wall_micros, "{label}: root wall");
    match span.name.as_str() {
        "compiled-eval" if workers > 1 => {
            assert_eq!(
                span.field("partitions"),
                Some(stats.partitions),
                "{label}: the root's partitions field is the stats counter"
            );
            assert_eq!(span.children.len() as u64, stats.partitions, "{label}");
            let tiled: u64 = span
                .children
                .iter()
                .map(|c| c.field("candidates_checked").unwrap())
                .sum();
            assert_eq!(
                Some(tiled),
                span.field("candidates_checked"),
                "{label}: partition children tile the root's candidates"
            );
            assert_eq!(span.field("steps"), Some(stats.steps), "{label}");
        }
        "compiled-eval" => {
            assert_eq!(span.field("partitions"), None, "{label}");
            assert_eq!(
                span.subtree_total("draws"),
                stats.quantifier_values,
                "{label}: per-slot draws tile the quantifier total"
            );
            assert_eq!(span.field("steps"), Some(stats.steps), "{label}");
        }
        "planned-calculus" | "planned-algebra" => {
            assert_eq!(
                span.subtree_total("join_probes"),
                stats.join_probes,
                "{label}: per-operator probes tile the planner total"
            );
            assert_eq!(
                span.subtree_total("tuples_materialised"),
                stats.tuples_materialised,
                "{label}"
            );
            assert_eq!(
                span.field("rows_out"),
                Some(outcome.result.len() as u64),
                "{label}"
            );
            assert_eq!(stats.steps, 0, "{label}: no formula is evaluated");
        }
        "tuple-algebra" => {
            assert!(span.children.is_empty(), "{label}");
            assert_eq!(
                span.field("rows_out"),
                Some(outcome.result.len() as u64),
                "{label}"
            );
            assert_eq!(
                stats.deterministic(),
                ExecStats::default(),
                "{label}: the tuple-at-a-time evaluator counts nothing"
            );
        }
        "least-fixpoint" => {
            assert!(span.field("rounds").is_some(), "{label}");
            assert_eq!(
                span.field("rows_out"),
                Some(outcome.result.len() as u64),
                "{label}"
            );
            assert_eq!(stats.join_probes, 0, "{label}: no plan operator runs");
        }
        "finite-invention" | "terminal-invention" => {
            assert_eq!(
                span.children.len(),
                stats.invention_levels as usize,
                "{label}: one child span per invention level"
            );
            assert_eq!(
                span.subtree_total("steps"),
                stats.steps,
                "{label}: per-level steps tile the total"
            );
            // A routed ladder nests the route's root span under `Q|_0[d]`,
            // and its higher levels did no work; an enumerated ladder nests
            // nothing.
            let (first, higher) = span.children.split_first().expect("level 0 always runs");
            if let [route] = first.children.as_slice() {
                assert!(
                    matches!(
                        route.name.as_str(),
                        "planned-calculus" | "least-fixpoint" | "planned-algebra" | "tuple-algebra"
                    ),
                    "{label}: `{}` under Q|_0[d]",
                    route.name
                );
                assert_eq!(
                    first.subtree_total("join_probes"),
                    stats.join_probes,
                    "{label}: the route's probes are the ladder's"
                );
                for level in higher {
                    assert_eq!(level.field("steps"), Some(0), "{label}: {}", level.name);
                    assert_eq!(level.field("answers"), first.field("answers"), "{label}");
                }
            } else {
                assert!(first.children.is_empty(), "{label}: {first:?}");
                assert_eq!(stats.join_probes, 0, "{label}: no plan operator runs");
            }
            assert!(
                higher.iter().all(|level| level.children.is_empty()),
                "{label}"
            );
        }
        other => panic!("{label}: unexpected root span `{other}`"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Collecting vs Noop vs plain on the compiled slots, all semantics,
    /// sequential and partitioned.
    #[test]
    fn tracing_never_changes_calculus_outcomes(q in query(), db in small_db()) {
        for workers in [1, 4] {
            let label = format!("compiled/workers={workers}");
            let prepared = engine(workers).prepare(&q).unwrap();
            for semantics in Semantics::ALL {
                if let Some((outcome, span)) =
                    execute_three_ways(&prepared, &db, semantics, &label)
                {
                    assert_span_matches_stats(&outcome, &span, workers, &label);
                }
            }
        }
    }

    /// The conjunctive genealogy queries on the default engine run their
    /// physical plan under a `planned-calculus` root, and under the
    /// invention semantics one run of it nested under `Q|_0[d]`: the same
    /// three-way harness, with the operator tree's counters tiling the stats.
    #[test]
    fn tracing_never_changes_planned_calculus_outcomes(pick in 0usize..2, db in small_db()) {
        let q = [queries::grandparent_query(), queries::sibling_query()][pick].clone();
        for workers in [1, 4] {
            let prepared = Engine::builder().parallelism(workers).build().prepare(&q).unwrap();
            prop_assert!(prepared.physical_plan().is_some());
            for semantics in Semantics::ALL {
                let label = format!("routed/workers={workers}/{semantics}");
                let (outcome, span) = execute_three_ways(&prepared, &db, semantics, &label)
                    .expect("default budgets");
                prop_assert_eq!(route_span(&span).name.as_str(), "planned-calculus");
                assert_span_matches_stats(&outcome, &span, workers, &label);
            }
        }
    }

    /// The Example 3.1 closure on the default engine runs its least-fixpoint
    /// route under a `least-fixpoint` root, nested under `Q|_0[d]` under the
    /// invention semantics: the same three-way harness.
    #[test]
    fn tracing_never_changes_least_fixpoint_outcomes(db in small_db()) {
        let q = queries::transitive_closure_query();
        for workers in [1, 4] {
            let prepared = Engine::builder().parallelism(workers).build().prepare(&q).unwrap();
            prop_assert!(prepared.least_fixpoint().is_some());
            for semantics in Semantics::ALL {
                let label = format!("least-fixpoint/workers={workers}/{semantics}");
                let (outcome, span) = execute_three_ways(&prepared, &db, semantics, &label)
                    .expect("default budgets");
                prop_assert_eq!(route_span(&span).name.as_str(), "least-fixpoint");
                assert_span_matches_stats(&outcome, &span, workers, &label);
            }
        }
    }
}

/// The algebra backends through the same three-way harness, at one and at
/// four workers (both run sequentially at any count), under every
/// semantics: the planned executor's operator tree and the tuple-at-a-time
/// root span both annotate the identical answer, the planned tree's counter
/// fields tile the planner stats, and under the invention semantics one run
/// of either sits under `Q|_0[d]`.
#[test]
fn tracing_never_changes_algebra_outcomes() {
    let expr = itq_algebra::AlgExpr::pred("PAR")
        .product(itq_algebra::AlgExpr::pred("PAR"))
        .select(itq_algebra::SelFormula::coords_eq(2, 3))
        .project(vec![1, 4]);
    let schema = queries::parent_schema();
    let edges: Vec<(Atom, Atom)> = (0..12).map(|i| (Atom(i), Atom(i + 1))).collect();
    let db = queries::parent_database(&edges);
    for (workers, planner) in [(1, true), (1, false), (4, true), (4, false)] {
        let engine = Engine::builder()
            .parallelism(workers)
            .use_algebra_planner(planner)
            .build();
        let prepared = engine.prepare_algebra(&expr, &schema).unwrap();
        for semantics in Semantics::ALL {
            let label = format!("planner={planner}/workers={workers}/{semantics}");
            let (outcome, span) =
                execute_three_ways(&prepared, &db, semantics, &label).expect("in budget");
            assert_span_matches_stats(&outcome, &span, workers, &label);
            let route = route_span(&span);
            assert_eq!(route.field("rows_out"), Some(11), "{label}");
            match route.name.as_str() {
                "planned-algebra" => assert!(
                    planner && route.children[0].name.starts_with("hash-join"),
                    "{label}: fused σ∘× renders as a join: {}",
                    route.children[0].name
                ),
                "tuple-algebra" => assert!(!planner, "{label}"),
                other => panic!("{label}: unexpected route span `{other}`"),
            }
        }
    }
}

/// A sink that claims to be enabled still sees nothing it should not: the
/// recorded root span renders with the pinned `name (fields, µs)` grammar,
/// so downstream log scrapers can rely on the format.
#[test]
fn recorded_spans_render_with_the_pinned_grammar() {
    let db = queries::parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2))]);

    // Sequential compiled tree: per-slot children.  The negated atom keeps
    // the query off the conjunctive route, so the compiled slots run it.
    let query = queries::excluding_parent_pairs(&queries::grandparent_query());
    let engine = Engine::builder().parallelism(1).build();
    let prepared = engine.prepare(&query).unwrap();
    let sink = CollectingSink::new();
    assert!(sink.is_enabled());
    let _ = prepared
        .execute_with_sink(&db, Semantics::Limited, &sink)
        .unwrap();
    let span = sink.take().pop().unwrap();
    let rendered = span.to_string();
    let first = rendered.lines().next().unwrap();
    assert!(
        first.starts_with("compiled-eval  (") && first.ends_with("µs)"),
        "pinned grammar violated: {first}"
    );
    assert!(rendered.contains("└─ quantifier slot"), "{rendered}");

    // Parallel compiled tree: the slot children give way to one child span
    // per partition, each carrying its rank tile — same root grammar.
    let engine = Engine::builder().parallelism(4).build();
    let prepared = engine.prepare(&query).unwrap();
    let sink = CollectingSink::new();
    let outcome = prepared
        .execute_with_sink(&db, Semantics::Limited, &sink)
        .unwrap();
    assert!(outcome.stats.partitions > 0, "parallel path engaged");
    let span = sink.take().pop().unwrap();
    let rendered = span.to_string();
    let first = rendered.lines().next().unwrap();
    assert!(
        first.starts_with("compiled-eval  (") && first.ends_with("µs)"),
        "pinned grammar violated: {first}"
    );
    assert!(
        rendered.contains("├─ partition 0  (rank_start 0,"),
        "{rendered}"
    );
    assert!(rendered.contains("└─ partition 3"), "{rendered}");
    assert!(
        !rendered.contains("quantifier slot"),
        "partitioned runs replace slot spans: {rendered}"
    );
}
