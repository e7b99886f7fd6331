//! Experiment E2's correctness backbone: the CALC_{0,1} transitive-closure query
//! of Example 3.1 agrees with every polynomial-time baseline (three direct
//! algorithms, the Datalog program, and the while-program) on a spread of graph
//! shapes.  The prepared query runs as a least fixpoint on the default engine,
//! so it joins the baselines on graphs its enumeration could never reach.

use itq_calculus::eval::EvalConfig;
use itq_core::prelude::{Engine, Semantics};
use itq_core::queries::{excluding_parent_pairs, parent_database, transitive_closure_query};
use itq_object::{Atom, Interrupt};
use itq_relational::datalog::{Atom as DatalogAtom, Program, Rule};
use itq_relational::while_loop::transitive_closure_program;
use itq_relational::{
    transitive_closure_naive, transitive_closure_seminaive, transitive_closure_warshall, Relation,
};
use itq_workloads::graphs::{chain_edges, cycle_edges, random_digraph, tree_edges};
use std::collections::BTreeMap;

fn datalog_tc(edges: &Relation) -> Relation {
    let program = Program::new(vec![
        Rule::new(
            DatalogAtom::vars("T", &["x", "y"]),
            vec![DatalogAtom::vars("E", &["x", "y"])],
        ),
        Rule::new(
            DatalogAtom::vars("T", &["x", "z"]),
            vec![
                DatalogAtom::vars("T", &["x", "y"]),
                DatalogAtom::vars("E", &["y", "z"]),
            ],
        ),
    ]);
    let mut edb = BTreeMap::new();
    edb.insert("E".to_string(), edges.clone());
    program.evaluate(&edb, Interrupt::disarmed()).unwrap()["T"].clone()
}

fn while_tc(edges: &Relation) -> Relation {
    let mut env = BTreeMap::new();
    env.insert("E".to_string(), edges.clone());
    transitive_closure_program().run(&mut env).unwrap();
    env["T"].clone()
}

/// Workloads kept to three atoms: the CALC_{0,1} query sweeps a 2^(n²)-element
/// quantifier domain, so n = 3 (512 candidate relations) is the largest size that
/// keeps an exhaustive debug-mode test fast; the benchmark harness pushes to
/// n = 4 in release mode.
fn workloads() -> Vec<(&'static str, Vec<(Atom, Atom)>)> {
    vec![
        ("chain-3", chain_edges(3)),
        ("cycle-3", cycle_edges(3)),
        ("tree-3", tree_edges(3)),
        ("random-3-sparse", random_digraph(3, 0.3, 11)),
        ("random-3-dense", random_digraph(3, 0.8, 12)),
        ("self-loop", vec![(Atom(0), Atom(0)), (Atom(0), Atom(1))]),
    ]
}

#[test]
fn all_baselines_agree_with_each_other_on_larger_graphs() {
    // The polynomial baselines can be cross-checked on much larger graphs than
    // the calculus query's enumeration can reach; its least-fixpoint route
    // answers them.
    let prepared = Engine::new().prepare(&transitive_closure_query()).unwrap();
    for (name, edges) in [
        ("chain-40", chain_edges(40)),
        ("cycle-25", cycle_edges(25)),
        ("tree-31", tree_edges(31)),
        ("random-15", random_digraph(15, 0.2, 3)),
        ("random-20-dense", random_digraph(20, 0.4, 4)),
    ] {
        let db = parent_database(&edges);
        let relation = Relation::from_pairs(edges);
        let naive = transitive_closure_naive(&relation);
        let seminaive = transitive_closure_seminaive(&relation);
        let warshall = transitive_closure_warshall(&relation);
        let datalog = datalog_tc(&relation);
        let while_result = while_tc(&relation);
        assert_eq!(naive, seminaive, "{name}");
        assert_eq!(seminaive, warshall, "{name}");
        assert_eq!(warshall, datalog, "{name}");
        assert_eq!(datalog, while_result, "{name}");
        let routed = prepared.execute(&db, Semantics::Limited).unwrap();
        assert_eq!(routed.result, while_result.to_instance(), "{name}");
    }
}

#[test]
fn calculus_query_matches_the_baselines_on_small_graphs() {
    let query = transitive_closure_query();
    let config = EvalConfig::default();
    for (name, edges) in workloads() {
        let db = parent_database(&edges);
        let answer = query.eval(&db, &config).unwrap();
        let relation = Relation::from_pairs(edges.clone());
        let expected = transitive_closure_seminaive(&relation);
        if expected.is_empty() {
            assert!(answer.is_empty(), "{name}");
        } else {
            assert_eq!(
                Relation::from_instance(&answer).unwrap(),
                expected,
                "{name}"
            );
        }
    }
}

#[test]
fn calculus_query_cost_grows_much_faster_than_the_baseline() {
    let query = transitive_closure_query();
    let config = EvalConfig::default();
    let mut previous_steps = 0u64;
    for n in 2..=3u32 {
        let edges = chain_edges(n);
        let db = parent_database(&edges);
        let evaluation = query.eval_full(&db, &config).unwrap();
        assert!(
            evaluation.stats.steps > previous_steps,
            "work should grow with the input"
        );
        previous_steps = evaluation.stats.steps;
        // The quantifier domain is exactly 2^(n^2) — the hyper-exponential driver.
        assert_eq!(evaluation.stats.max_domain_seen, 1u64 << (n * n));
    }
}

#[test]
fn prepared_pipeline_reports_the_same_cost_model() {
    // The ExecStats carried by a QueryOutcome are the same counters the raw
    // evaluator reports, plus wall time — one prepared handle across sizes.
    // A negated atom keeps the closure on the compiled enumeration.
    let engine = Engine::new();
    let enumerated_query = excluding_parent_pairs(&transitive_closure_query());
    let enumerated = engine.prepare(&enumerated_query).unwrap();
    let routed = engine.prepare(&transitive_closure_query()).unwrap();
    for n in 2..=3u32 {
        let db = parent_database(&chain_edges(n));
        let outcome = enumerated.execute(&db, Semantics::Limited).unwrap();
        let evaluation = enumerated_query
            .eval_full(&db, &EvalConfig::default())
            .unwrap();
        assert_eq!(outcome.result, evaluation.result, "n = {n}");
        assert_eq!(outcome.stats.steps, evaluation.stats.steps, "n = {n}");
        assert_eq!(outcome.stats.max_domain_seen, 1u64 << (n * n));
        assert_eq!(outcome.stats.invention_levels, 0);
        // The least-fixpoint route answers the same closure without drawing
        // a single candidate relation: its largest domain is the guard's
        // pair quantifier.
        let outcome = routed.execute(&db, Semantics::Limited).unwrap();
        let evaluation = transitive_closure_query()
            .eval_full(&db, &EvalConfig::default())
            .unwrap();
        assert_eq!(outcome.result, evaluation.result, "n = {n}");
        assert_eq!(outcome.stats.max_domain_seen, u64::from(n * n), "n = {n}");
        assert_eq!(outcome.stats.invention_levels, 0);
    }
}

#[test]
fn the_route_answers_where_the_enumeration_exceeds_its_budget() {
    // Under default budgets a 5-atom chain's closure used to fail on its
    // 2^25-element set quantifier; the route answers it.  Engines that
    // enumerate keep their error text byte-identical.
    let db = parent_database(&chain_edges(5));
    let query = transitive_closure_query();
    let routed = Engine::new().prepare(&query).unwrap();
    let answer = routed.execute(&db, Semantics::Limited).unwrap().result;
    let expected = transitive_closure_seminaive(&Relation::from_pairs(chain_edges(5)));
    assert_eq!(Relation::from_instance(&answer).unwrap(), expected);

    // The tree walker, called directly, enumerates.
    let walker = |config: &EvalConfig| query.eval(&db, config).unwrap_err().to_string();
    assert_eq!(
        walker(&EvalConfig::default()),
        "evaluation budget exceeded: quantifier domain cons_X({[U, U]}) of size 33554432 \
         over 5 atoms (limit 4194304)"
    );
    let tiny = Engine::builder()
        .calc_config(EvalConfig::tiny())
        .build()
        .prepare(&query)
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap_err()
        .to_string();
    assert_eq!(tiny, walker(&EvalConfig::tiny()));
    assert!(
        tiny.contains("of size 33554432 over 5 atoms (limit 64)"),
        "{tiny}"
    );
}
