//! `report` — regenerate the paper-style experiment tables (README,
//! "Benchmarks") and print them to stdout, or record one of the
//! `BENCH_*.json` perf trajectories.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p itq-bench --bin report            # all experiments
//! cargo run --release -p itq-bench --bin report -- E2 E3   # a subset
//! cargo run --release -p itq-bench --bin report -- --script exp.itq
//! cargo run --release -p itq-bench --bin report -- --stats-json BENCH_execstats.json
//! cargo run --release -p itq-bench --bin report -- --incremental-json BENCH_incremental_delta.json
//! cargo run --release -p itq-bench --bin report -- --trace-json -
//! cargo run --release -p itq-bench --bin report -- --trace-overhead-json BENCH_trace_overhead.json
//! cargo run --release -p itq-bench --bin report -- --governor-overhead-json BENCH_governor_overhead.json
//! cargo run --release -p itq-bench --bin report -- --parallel-json BENCH_parallel_scaling.json
//! ```
//!
//! With `--script`, the named `.itq` surface-language script is executed
//! through an [`itq_surface::Session`] instead, so ad-hoc experiments can be
//! written as text without recompiling (the same scripts the `itq` REPL runs).
//!
//! Each `--*-json` mode (see [`JSON_MODES`]) writes its records as a JSON
//! array to the given file, or to stdout with `-`, so successive revisions
//! accumulate a perf trajectory in `BENCH_*.json` files.  `--stats-json` and
//! `--trace-json` record one execution per row.  The six timed modes go
//! through [`itq_bench::measure`]: interleaved rounds whose arms alternate
//! which runs first, each time and ratio recorded as a median with a
//! distribution-free 95% interval (`NAME_lo`, `NAME_hi`), plus the core
//! count (`cores`) and the number of kept rounds (`samples`).  A gate passes
//! only when the whole interval clears its bound and fails when the whole
//! interval misses it; otherwise the rounds double up to a cap, where a
//! straddling interval fails too.  A failed gate prints its interval and
//! exits 1 before any JSON is written.

use itq_bench::{measure, Bound, Estimate, Gate, Measurement, Schedule};
use itq_calculus::eval::EvalConfig;
use itq_calculus::normal::sf_classification;
use itq_calculus::Query;
use itq_core::complexity::{growth_table, theorem_4_4_bounds, variable_space_bound};
use itq_core::engine::{Engine, GovernorConfig, Semantics};
use itq_core::hierarchy::{hierarchy_table, level_zero_one_witnesses};
use itq_core::incremental::IncrementalDb;
use itq_core::pipeline::Prepared;
use itq_core::queries;
use itq_core::report::Table;
use itq_invention::{eval_with_invented, UniversalCodec};
use itq_object::cons::cons_cardinality;
use itq_object::{Atom, Database, Instance, Type, Universe, Value};
use itq_relational::{transitive_closure_seminaive, Relation};
use itq_turing::machines::{palindrome_machine, parity_machine, ONE};
use itq_turing::{encode_run, run, verify_encoding};
use itq_workloads::graphs::{chain_edges, tree_edges};
use itq_workloads::people::person_database;
use std::fmt::Display;
use std::time::Instant;

/// Format a base-2 logarithm compactly: plain decimals for small values,
/// scientific notation once the exponent itself becomes astronomical.
fn fmt_log2(x: f64) -> String {
    if !x.is_finite() {
        "≫ 2^1024".to_string()
    } else if x < 1e4 {
        format!("{x:.1}")
    } else {
        format!("{x:.2e}")
    }
}

/// An experiment selector paired with the function that renders its table.
type Experiment = (&'static str, fn() -> String);

/// Single source of truth for both selector validation and dispatch.
const EXPERIMENTS: [Experiment; 10] = [
    ("E1", experiment_e1),
    ("E2", experiment_e2),
    ("E3", experiment_e3),
    ("E4", experiment_e4),
    ("E5", experiment_e5),
    ("E6", experiment_e6),
    ("E7", experiment_e7),
    ("E8", experiment_e8),
    ("E9", experiment_e9),
    ("E10", experiment_e10),
];

/// A JSON mode: its flag, what one of its records describes, and the
/// function that builds the records.
type JsonMode = (&'static str, &'static str, fn() -> Vec<String>);

/// Single source of truth for the JSON modes' flags and dispatch.
const JSON_MODES: [JsonMode; 8] = [
    ("--stats-json", "execution-stats", stats_json),
    ("--compiled-json", "compiled-vs-legacy", compiled_json),
    ("--algebra-json", "planned-vs-tuple", algebra_json),
    ("--incremental-json", "delta-vs-scratch", incremental_json),
    ("--trace-json", "trace-span", trace_json),
    (
        "--trace-overhead-json",
        "trace-overhead",
        trace_overhead_json,
    ),
    (
        "--governor-overhead-json",
        "governor-overhead",
        governor_json,
    ),
    ("--parallel-json", "parallel-scaling", parallel_json),
];

/// E13 and E14 gate nothing: one fixed trial, long enough for an interval
/// narrower than the sample range (k = 10 of 32).
const COMPARISON: Schedule = Schedule {
    warmup: 2,
    rounds: 32,
    cap: 32,
};

/// E15 and E16 rounds take a second or more each; their ratios sit far from
/// their bounds, so the first trial resolves them.
const SLOW_GRID: Schedule = Schedule {
    warmup: 1,
    rounds: 8,
    cap: 32,
};

/// The overhead grids take about 15 ms a round.  On a 2-core host both
/// overheads read medians under 1%, with 95% upper ends under 1.7%, after
/// the first trial; a noisier host may need the larger trials to clear 2%.
const OVERHEAD: Schedule = Schedule {
    warmup: 16,
    rounds: 240,
    cap: 960,
};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--script") {
        match raw.get(1) {
            Some(path) => run_script(path),
            None => {
                eprintln!("error: --script needs a file argument");
                std::process::exit(2);
            }
        }
        return;
    }
    let mode = raw
        .first()
        .and_then(|flag| JSON_MODES.iter().find(|(name, ..)| name == flag));
    if let Some((_, what, records)) = mode {
        write_json(raw.get(1).map_or("-", String::as_str), what, &records());
        return;
    }
    let requested: Vec<String> = raw.iter().map(|s| s.to_uppercase()).collect();
    let unknown: Vec<&String> = requested
        .iter()
        .filter(|r| EXPERIMENTS.iter().all(|(id, _)| id != r))
        .collect();
    if !unknown.is_empty() {
        let available: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "error: unknown experiment selector(s) {unknown:?}; available: {}",
            available.join(", ")
        );
        std::process::exit(2);
    }
    for (id, experiment) in EXPERIMENTS {
        if requested.is_empty() || requested.iter().any(|r| r == id) {
            print!("{}", experiment());
        }
    }
}

/// `--script FILE.itq`: run a surface-language experiment script through a
/// fresh engine session, timing the whole run.
fn run_script(path: &str) {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        }
    };
    let mut session = itq_surface::Session::new();
    let start = Instant::now();
    match session.run_source(&source) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            println!(
                "script {path}: ok ({:.1} ms)",
                start.elapsed().as_secs_f64() * 1e3
            );
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Write `records` as a JSON array to `target`, or print it with `-`.
fn write_json(target: &str, what: &str, records: &[String]) {
    let json = format!("[\n  {}\n]\n", records.join(",\n  "));
    if target == "-" {
        print!("{json}");
    } else if let Err(e) = std::fs::write(target, &json) {
        eprintln!("error: cannot write `{target}`: {e}");
        std::process::exit(1);
    } else {
        println!("wrote {} {what} records to {target}", records.len());
    }
}

/// One JSON record: the experiment's name, then `fields`, each `"key":value`.
fn record(name: &str, fields: &[String]) -> String {
    format!("{{\"experiment\":\"{name}\",{}}}", fields.join(","))
}

/// The value of workload `name`'s prepare, or of another set-up step;
/// on an error, print it and exit 1.
fn or_exit<T, E: Display>(name: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: `{name}`: {e}");
        std::process::exit(1);
    })
}

/// Wall time of one call, in microseconds.  The result is dropped after the
/// clock stops.
fn micros<T>(call: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let result = std::hint::black_box(call());
    let elapsed = start.elapsed();
    drop(result);
    elapsed.as_secs_f64() * 1e6
}

/// Wall time of the second of two back-to-back calls, in microseconds.  The
/// untimed first call warms the caches for this arm, so an arm that takes
/// microseconds is not charged for the cache traffic of the arm that ran
/// before it, which may take a thousand times longer.
fn warm_micros<T>(call: impl Fn() -> T) -> f64 {
    drop(std::hint::black_box(call()));
    micros(call)
}

/// [`measure`], printing each passed gate; a gate that fails, or is still
/// unresolved at the cap, prints its interval and exits 1.
fn measured(
    schedule: Schedule,
    shape: (usize, usize),
    run: impl FnMut(usize, usize) -> f64,
    gates: impl Fn(&Measurement) -> Vec<Gate>,
) -> Measurement {
    match measure(schedule, shape, run, gates) {
        Ok(m) => {
            for gate in &m.gates {
                eprintln!("gate passed after {} rounds: {gate}", m.rounds());
            }
            m
        }
        Err(report) => {
            eprintln!("error: {report}");
            std::process::exit(1);
        }
    }
}

/// One record per workload of a measured pair: `stable[g]` (workload `g`'s
/// stable fields), the times of arm 0 as `fast` and of arm 1 as `slow`, and
/// the speedup, the median of the per-round ratios of arm 1 to arm 0.
fn speedup_records(
    m: &Measurement,
    rows: &[(&str, String)],
    fast: &str,
    slow: &str,
) -> Vec<String> {
    let fields = |g, stable: &String| {
        let g = Some(g);
        let times = [m.time(g, 0).json(fast), m.time(g, 1).json(slow)];
        [
            stable.clone(),
            times.join(","),
            m.ratio(g, 1, 0).json("speedup"),
            m.json(),
        ]
    };
    let records = rows.iter().enumerate();
    records
        .map(|(g, (name, stable))| record(name, &fields(g, stable)))
        .collect()
}

/// The canonical workloads plus the transitive-closure chain: the grid of
/// `--compiled-json` and `--trace-json`.
fn exemplar_grid() -> Vec<(&'static str, Query, Database)> {
    let mut grid = queries::exemplar_workloads();
    grid.push((
        "genealogy/transitive-closure",
        queries::transitive_closure_query(),
        queries::parent_database(&chain_edges(3)),
    ));
    grid
}

/// `--stats-json`: run the canonical workloads through the prepared pipeline
/// under every semantics and record each execution's `ExecStats` (plus the
/// answer size and boundedness flag).
fn stats_json() -> Vec<String> {
    // One invention level keeps the set-height-1 workloads affordable while
    // still exercising the n > 0 machinery.  The workload grid is shared with
    // the prepared-pipeline equivalence suite (`queries::exemplar_workloads`),
    // so the numbers CI records describe exactly the answers the tests pin.
    let engine = Engine::builder().max_invented(1).build();
    let mut records = Vec::new();
    for (name, query, db) in queries::exemplar_workloads() {
        let prepared = or_exit(name, engine.prepare(&query));
        for semantics in Semantics::ALL {
            let outcome = or_exit(name, prepared.execute(&db, semantics));
            let fields = format!(
                "\"semantics\":\"{semantics}\",\"result_size\":{},\
                 \"bounded_approximation\":{},\"stats\":{}",
                outcome.result.len(),
                outcome.bounded_approximation,
                outcome.stats.to_json()
            );
            records.push(record(name, &[fields]));
        }
    }
    records
}

/// `--compiled-json`: E13 — [`exemplar_grid`] under the limited
/// interpretation through a prepared handle (the slot evaluator, or the
/// route a query lowers to) against the tree walker called directly (the
/// legacy column).  The answers are asserted identical first.  Each arm is
/// timed on its second call of the round ([`warm_micros`]).
fn compiled_json() -> Vec<String> {
    let engine = Engine::new();
    let grid = exemplar_grid();
    let (mut handles, mut rows) = (Vec::new(), Vec::new());
    for (name, query, db) in &grid {
        let handle = or_exit(name, engine.prepare(query));
        let outcome = or_exit(name, handle.execute(db, Semantics::Limited));
        let legacy = or_exit(name, query.eval_full(db, &EvalConfig::default()));
        assert_eq!(
            outcome.result, legacy.result,
            "compiled and legacy answers differ on `{name}`"
        );
        let stats = outcome.stats;
        let stable = format!(
            "\"semantics\":\"limited\",\"result_size\":{},\"domain_cache_hits\":{},\
             \"domain_cache_misses\":{},\"interned_values\":{}",
            outcome.result.len(),
            stats.domain_cache_hits,
            stats.domain_cache_misses,
            stats.interned_values
        );
        handles.push(handle);
        rows.push((*name, stable));
    }
    let run = |g: usize, arm| {
        let (_, query, db) = &grid[g];
        match arm {
            0 => warm_micros(|| handles[g].execute(db, Semantics::Limited)),
            _ => warm_micros(|| query.eval_full(db, &EvalConfig::default())),
        }
    };
    let m = measured(COMPARISON, (grid.len(), 2), run, |_| Vec::new());
    speedup_records(&m, &rows, "compiled_micros", "legacy_micros")
}

/// `--algebra-json`: E14 — the product-heavy algebra grid
/// (`itq_bench::algebra_exec_workloads`) through the set-at-a-time planned
/// executor against the tuple-at-a-time evaluator.  The answers are
/// asserted identical first.
/// Each arm is timed on its second call of the round ([`warm_micros`]).
fn algebra_json() -> Vec<String> {
    let engines = [
        Engine::new(),
        Engine::builder().use_algebra_planner(false).build(),
    ];
    let (mut arms, mut rows) = (Vec::new(), Vec::new());
    for (name, expr, schema, db) in itq_bench::algebra_exec_workloads() {
        let prepare = |e: &Engine| or_exit(name, e.prepare_algebra(&expr, &schema));
        let handles: Vec<_> = engines.iter().map(prepare).collect();
        let run = |h: &Prepared| or_exit(name, h.execute(&db, Semantics::Limited));
        let (planned, tuple) = (run(&handles[0]), run(&handles[1]));
        assert_eq!(
            planned.result, tuple.result,
            "planned and tuple-at-a-time answers differ on `{name}`"
        );
        let stats = planned.stats;
        let stable = format!(
            "\"semantics\":\"limited\",\"result_size\":{},\"join_probes\":{},\
             \"tuples_materialised\":{},\"interned_values\":{}",
            planned.result.len(),
            stats.join_probes,
            stats.tuples_materialised,
            stats.interned_values
        );
        arms.push((handles, db));
        rows.push((name, stable));
    }
    let run = |g: usize, arm: usize| {
        let (handles, db) = &arms[g];
        warm_micros(|| handles[arm].execute(db, Semantics::Limited))
    };
    let m = measured(COMPARISON, (arms.len(), 2), run, |_| Vec::new());
    speedup_records(&m, &rows, "planned_micros", "tuple_micros")
}

/// The chain length (in atoms) of E15's transitive-closure row.  Both arms
/// run the closure's least-fixpoint route, so the chain is long enough for
/// their ratio to follow from the work: appending one edge to an n-atom
/// chain derives n new pairs, a scratch run all n(n+1)/2.
const E15_TC_CHAIN: u32 = 48;

/// `--incremental-json`: E15 — watch each workload's query on an
/// [`IncrementalDb`], then compare refreshing the view after a one-tuple
/// insert against executing the same `Prepared` handle from scratch on the
/// mutated database.  The refreshed answer is asserted identical to the
/// from-scratch answer first, and the transitive-closure row must clear a
/// 10× speedup (the E15 acceptance bar).
///
/// Each delta round inserts into a fresh clone of the watched database, so
/// every insert refreshes against the identical base.  Both arms of the
/// closure row run its least-fixpoint route, on a chain of
/// [`E15_TC_CHAIN`] atoms.
fn incremental_json() -> Vec<String> {
    let engine = Engine::new();
    let grid = [
        (
            "genealogy/transitive-closure",
            queries::transitive_closure_query(),
            chain_edges(E15_TC_CHAIN),
        ),
        (
            "genealogy/grandparent",
            queries::grandparent_query(),
            chain_edges(16),
        ),
        // A binary tree, so the sibling view is non-empty and the probe edge
        // (a second child for the last leaf's parent) changes it.
        (
            "genealogy/sibling",
            queries::sibling_query(),
            tree_edges(17),
        ),
    ];
    let (mut arms, mut rows) = (Vec::new(), Vec::new());
    for (name, query, edges) in grid {
        let db = queries::parent_database(&edges);
        let mut watched = or_exit(name, IncrementalDb::new(queries::parent_schema(), &db));
        let prepared = or_exit(name, engine.prepare(&query));
        watched.watch("view", prepared.clone(), Semantics::Limited);
        // The delta: one edge out of the last node to a fresh atom.
        let last = edges.iter().map(|&(_, Atom(b))| b).max().unwrap_or(0);
        let edge = Value::pair(Atom(last), Atom(last + 1));
        let mut probe = watched.clone();
        or_exit(name, probe.insert("PAR", vec![edge.clone()]));
        let mutated = probe.snapshot();
        let scratch = or_exit(name, prepared.execute(&mutated, Semantics::Limited));
        let view = probe.view("view").expect("watched");
        let refreshed = view.outcome().as_ref().ok();
        assert_eq!(
            refreshed,
            Some(&scratch.result),
            "refreshed and scratch answers differ on `{name}`"
        );
        let strategy = view.strategy_name();
        let size = scratch.result.len();
        rows.push((
            name,
            format!("\"strategy\":\"{strategy}\",\"result_size\":{size}"),
        ));
        arms.push((watched, edge, prepared, mutated));
    }
    let run = |g: usize, arm| {
        let (watched, edge, prepared, mutated) = &arms[g];
        if arm == 1 {
            return micros(|| prepared.execute(mutated, Semantics::Limited));
        }
        let (mut fresh, delta) = (watched.clone(), vec![edge.clone()]);
        micros(|| fresh.insert("PAR", delta))
    };
    let gate = |m: &Measurement| {
        let (what, estimate) = (format!("E15 {} speedup", rows[0].0), m.ratio(Some(0), 1, 0));
        vec![Gate {
            what,
            estimate,
            bound: Bound::AtLeast(10.0),
        }]
    };
    let m = measured(SLOW_GRID, (arms.len(), 2), run, gate);
    speedup_records(&m, &rows, "delta_micros", "scratch_micros")
}

/// `--trace-json`: execute [`exemplar_grid`] under every semantics with
/// tracing on and record each execution's annotated [`itq_trace::Span`]
/// tree — one record per (experiment, semantics) pair.  This is the
/// machine-readable twin of the session's `explain analyze` statement.
fn trace_json() -> Vec<String> {
    let engine = Engine::builder().max_invented(1).build();
    let mut records = Vec::new();
    for (name, query, db) in exemplar_grid() {
        let prepared = or_exit(name, engine.prepare(&query));
        for semantics in Semantics::ALL {
            let (outcome, span) = or_exit(name, prepared.execute_traced(&db, semantics));
            let fields = format!(
                "\"semantics\":\"{semantics}\",\"result_size\":{},\"span\":{}",
                outcome.result.len(),
                span.to_json()
            );
            records.push(record(name, &[fields]));
        }
    }
    records
}

/// The grid of both overhead gates, prepared by one engine that allows one
/// invention level: [`exemplar_grid`], the same closure with its parent
/// pairs excluded, whose negated atom keeps it on the compiled enumeration
/// (so the aggregates keep weighing the enumeration's poll and sink seams),
/// and the E14 algebra grid.
fn overhead_grid() -> Vec<(&'static str, Prepared, Database)> {
    let engine = Engine::builder().max_invented(1).build();
    let mut calculus = exemplar_grid();
    calculus.push((
        "genealogy/transitive-closure-not-par",
        queries::excluding_parent_pairs(&queries::transitive_closure_query()),
        queries::parent_database(&chain_edges(3)),
    ));
    let calculus = calculus
        .into_iter()
        .map(|(name, query, db)| (name, or_exit(name, engine.prepare(&query)), db));
    let algebra =
        itq_bench::algebra_exec_workloads()
            .into_iter()
            .map(|(name, expr, schema, db)| {
                (
                    name,
                    or_exit(name, engine.prepare_algebra(&expr, &schema)),
                    db,
                )
            });
    calculus.chain(algebra).collect()
}

/// Time an overhead grid's plain arm (0) against its instrumented arm (1),
/// gating the aggregate overhead under 2%, and return one record per
/// workload plus the aggregate's.  `stable[g]` holds workload `g`'s name
/// and its further stable fields, each preceded by a comma; the
/// instrumented arm's times are recorded as `ARM_micros`.
fn overhead_records(
    stable: &[(&str, String)],
    arm: &str,
    run: impl FnMut(usize, usize) -> f64,
) -> Vec<String> {
    let overhead = |ratio: Estimate| ratio.map(|r| (r - 1.0) * 100.0);
    let m = measured(OVERHEAD, (stable.len(), 2), run, |m| {
        let what = format!("aggregate {arm} overhead_pct");
        vec![Gate {
            what,
            estimate: overhead(m.ratio(None, 1, 0)),
            bound: Bound::Below(2.0),
        }]
    });
    let fields = |group, stable: &str| {
        let times = [
            m.time(group, 0).json("plain_micros"),
            m.time(group, 1).json(&format!("{arm}_micros")),
        ];
        let ratio = overhead(m.ratio(group, 1, 0)).json("overhead_pct");
        [
            format!("\"semantics\":\"limited\"{stable}"),
            times.join(","),
            ratio,
            m.json(),
        ]
    };
    let rows = stable.iter().enumerate();
    let mut records: Vec<String> = rows
        .map(|(g, (name, s))| record(name, &fields(Some(g), s)))
        .collect();
    records.push(record("aggregate", &fields(None, "")));
    records
}

/// `--trace-overhead-json`: the cost of the zero-cost-when-off tracing seam.
/// Every workload of [`overhead_grid`] runs through the plain
/// `Prepared::execute` path and through `execute_with_sink(&NoopSink)`, the
/// path every session eval takes when no `--trace` sink is installed.  The
/// aggregate overhead across the grid must stay under 2%.
fn trace_overhead_json() -> Vec<String> {
    let grid = overhead_grid();
    let sink = itq_trace::NoopSink;
    for (name, prepared, db) in &grid {
        let plain = or_exit(name, prepared.execute(db, Semantics::Limited));
        let noop = or_exit(
            name,
            prepared.execute_with_sink(db, Semantics::Limited, &sink),
        );
        assert_eq!(
            plain.result, noop.result,
            "noop-sink and plain answers differ on `{name}`"
        );
    }
    let stable: Vec<_> = grid
        .iter()
        .map(|(name, ..)| (*name, String::new()))
        .collect();
    overhead_records(&stable, "noop_sink", |g, arm| {
        let (_, prepared, db) = &grid[g];
        match arm {
            0 => micros(|| prepared.execute(db, Semantics::Limited)),
            _ => micros(|| prepared.execute_with_sink(db, Semantics::Limited, &sink)),
        }
    })
}

/// `--governor-overhead-json`: the cost of an armed but untripped resource
/// governor.  Every workload of [`overhead_grid`] runs through its disarmed
/// handle and through a copy re-budgeted with a one-hour deadline and a
/// terabyte memory ceiling — limits no workload approaches.  The copy
/// shares the handle's static half, so both arms run the same plan and
/// differ only in what each interrupt poll costs.  The aggregate overhead
/// across the grid must stay under 2%.  The governed arm's
/// `interrupt_polls` counter is recorded per workload: it is a
/// deterministic function of the execution, so it is a stable key the diff
/// script checks.
fn governor_json() -> Vec<String> {
    let armed = GovernorConfig {
        deadline_millis: Some(3_600_000),
        memory_ceiling: Some(1 << 40),
        ..GovernorConfig::default()
    };
    let (mut arms, mut stable) = (Vec::new(), Vec::new());
    for (name, plain, db) in overhead_grid() {
        let handles = [plain.clone(), plain.with_governor(armed.clone())];
        let run = |h: &Prepared| or_exit(name, h.execute(&db, Semantics::Limited));
        let (plain, governed) = (run(&handles[0]), run(&handles[1]));
        assert_eq!(
            plain.result, governed.result,
            "governed and plain answers differ on `{name}`"
        );
        stable.push((
            name,
            format!(",\"interrupt_polls\":{}", governed.stats.interrupt_polls),
        ));
        arms.push((handles, db));
    }
    overhead_records(&stable, "governed", |g, arm| {
        let (handles, db) = &arms[g];
        micros(|| handles[arm].execute(db, Semantics::Limited))
    })
}

/// The E16 workload grid: the report-grid queries scaled until a sequential
/// execution takes long enough (hundreds of milliseconds) for the
/// `parallelism(n)` partitioning to amortise its merge cost.
///
/// Both workloads run the compiled calculus backend, the only one that
/// partitions: their cost is pure quantifier enumeration (2·|adom|⁶
/// evaluation steps on an n-atom chain) with answer-sized merges.  The
/// queries are grandparent and sibling with a negated `PAR(t)` conjunct
/// ([`queries::excluding_parent_pairs`], which removes no answer on a
/// chain): conjunctive queries would run as hash joins instead.
fn parallel_scaling_workloads() -> Vec<(&'static str, Query, Database)> {
    // 16 atoms → a 256-tuple [U, U] domain → ≈ 3.4e7 steps sequentially.
    let chain_db = queries::parent_database(&chain_edges(15));
    vec![
        (
            "parallel/grandparent-not-par-chain16",
            queries::excluding_parent_pairs(&queries::grandparent_query()),
            chain_db.clone(),
        ),
        (
            "parallel/sibling-not-par-chain16",
            queries::excluding_parent_pairs(&queries::sibling_query()),
            chain_db,
        ),
    ]
}

/// `--parallel-json`: E16 — every workload of
/// [`parallel_scaling_workloads`] executes through the same
/// `Prepared` handle at 1, 2, and 4 workers, with the answers asserted
/// identical at every worker count first.  With ≥ 4 available cores the E16
/// acceptance bar is gated too: both workloads must reach 2× at 4 workers.
fn parallel_json() -> Vec<String> {
    let engine = Engine::builder().parallelism(1).build();
    let (mut arms, mut rows) = (Vec::new(), Vec::new());
    for (name, query, db) in parallel_scaling_workloads() {
        let prepared = or_exit(name, engine.prepare(&query));
        let handles = [1, 2, 4].map(|workers| prepared.with_parallelism(workers));
        let outcomes: Vec<_> = handles
            .iter()
            .map(|h| or_exit(name, h.execute(&db, Semantics::Limited)))
            .collect();
        for outcome in &outcomes[1..] {
            assert_eq!(
                outcome.result, outcomes[0].result,
                "parallel answers differ on `{name}`"
            );
        }
        let stable = format!(
            "\"semantics\":\"limited\",\"result_size\":{},\"partitions_2\":{},\"partitions_4\":{}",
            outcomes[0].result.len(),
            outcomes[1].stats.partitions,
            outcomes[2].stats.partitions
        );
        arms.push((handles, db));
        rows.push((name, stable));
    }
    let run = |g: usize, arm: usize| {
        let (handles, db) = &arms[g];
        micros(|| handles[arm].execute(db, Semantics::Limited))
    };
    // The bar only means something when 4 workers can run at once.
    let gates = |m: &Measurement| {
        let gated = rows.iter().enumerate().filter(|_| m.cores >= 4);
        let gate = |(g, (name, _)): (usize, &(&str, String))| Gate {
            what: format!("E16 {name} speedup_4"),
            estimate: m.ratio(Some(g), 0, 2),
            bound: Bound::AtLeast(2.0),
        };
        gated.map(gate).collect()
    };
    let m = measured(SLOW_GRID, (arms.len(), 3), run, gates);
    if m.cores < 4 {
        eprintln!(
            "note: {} core(s) available; skipping the ≥2×-at-4-workers gate",
            m.cores
        );
    }
    let fields = |g, stable: &String| {
        let g = Some(g);
        let times = ["workers_1_micros", "workers_2_micros", "workers_4_micros"];
        let times = times
            .iter()
            .enumerate()
            .map(|(arm, key)| m.time(g, arm).json(key));
        let speedups = [
            m.ratio(g, 0, 1).json("speedup_2"),
            m.ratio(g, 0, 2).json("speedup_4"),
        ];
        [
            stable.clone(),
            times.collect::<Vec<_>>().join(","),
            speedups.join(","),
            m.json(),
        ]
    };
    let records = rows.iter().enumerate();
    records
        .map(|(g, (name, stable))| record(name, &fields(g, stable)))
        .collect()
}

/// E1 — Figure 1: the example types, their set-heights, and their constructive
/// domain sizes.
fn experiment_e1() -> String {
    let types = vec![
        ("T1 = [U,U]", Type::flat_tuple(2)),
        ("T2 = {[U,U]}", Type::set(Type::flat_tuple(2))),
        ("T3 = {{[U,U]}}", Type::set(Type::set(Type::flat_tuple(2)))),
    ];
    let mut table = Table::new(
        "E1 (Figure 1): set-heights and |cons_A(T)| for |A| = 1..4",
        &["type", "sh(T)", "|A|=1", "|A|=2", "|A|=3", "|A|=4"],
    );
    for (name, ty) in types {
        let mut row = vec![name.to_string(), ty.set_height().to_string()];
        for a in 1..=4usize {
            row.push(cons_cardinality(&ty, a).to_string());
        }
        table.push_row(row);
    }
    table.render()
}

/// E2 — transitive closure: CALC_{0,1} powerset query vs the semi-naive baseline.
fn experiment_e2() -> String {
    let mut table = Table::new(
        "E2 (Ex. 3.1): transitive closure — CALC_{0,1} query vs semi-naive baseline (chains)",
        &[
            "n",
            "closure pairs",
            "calc steps",
            "calc domain",
            "calc ms",
            "baseline µs",
        ],
    );
    let query = queries::transitive_closure_query();
    for n in 2..=4u32 {
        let edges = chain_edges(n);
        let db = queries::parent_database(&edges);
        let start = Instant::now();
        let evaluation = query.eval_full(&db, &EvalConfig::default()).unwrap();
        let calc_ms = start.elapsed().as_secs_f64() * 1e3;
        let relation = Relation::from_pairs(edges);
        let base_start = Instant::now();
        let baseline = transitive_closure_seminaive(&relation);
        let base_us = base_start.elapsed().as_secs_f64() * 1e6;
        assert_eq!(
            Relation::from_instance(&evaluation.result).unwrap_or_else(|| Relation::empty(2)),
            baseline
        );
        table.push_row(vec![
            n.to_string(),
            baseline.len().to_string(),
            evaluation.stats.steps.to_string(),
            evaluation.stats.max_domain_seen.to_string(),
            format!("{calc_ms:.2}"),
            format!("{base_us:.1}"),
        ]);
    }
    table.render()
}

/// E3 — even cardinality: answer size and cost per committee size.
fn experiment_e3() -> String {
    let mut table = Table::new(
        "E3 (Ex. 3.2): even cardinality — CALC_{0,1} matching query",
        &[
            "members",
            "parity",
            "answer size",
            "steps",
            "matching domain",
            "ms",
        ],
    );
    let query = queries::even_cardinality_query();
    for n in 0..=4u32 {
        let db = person_database(n);
        let start = Instant::now();
        let evaluation = query.eval_full(&db, &EvalConfig::default()).unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        table.push_row(vec![
            n.to_string(),
            if n % 2 == 0 { "even" } else { "odd" }.to_string(),
            evaluation.result.len().to_string(),
            evaluation.stats.steps.to_string(),
            evaluation.stats.max_domain_seen.to_string(),
            format!("{ms:.2}"),
        ]);
    }
    table.render()
}

/// E4 — Figure 2: Turing computation encodings and their index budgets.
fn experiment_e4() -> String {
    let mut table = Table::new(
        "E4 (Ex. 3.5 / Fig. 2): encoded computations (parity and palindrome machines)",
        &[
            "machine",
            "input",
            "steps",
            "cells",
            "rows",
            "index atoms",
            "verified",
        ],
    );
    let mut universe = Universe::new();
    let cases: Vec<(itq_turing::TuringMachine, Vec<u8>, String)> = vec![
        (parity_machine(), vec![ONE; 4], "1^4".to_string()),
        (parity_machine(), vec![ONE; 8], "1^8".to_string()),
        (palindrome_machine(), vec![ONE; 6], "1^6".to_string()),
        (palindrome_machine(), vec![ONE; 10], "1^10".to_string()),
    ];
    for (machine, input, label) in cases {
        let execution = run(&machine, &input, 1_000_000);
        let encoding = encode_run(&execution, &machine, &mut universe);
        let verified = verify_encoding(&encoding, &machine, execution.accepted()).is_ok();
        table.push_row(vec![
            machine.name.clone(),
            label,
            execution.steps().to_string(),
            execution.tape_cells().to_string(),
            encoding.len().to_string(),
            encoding.atom_budget().to_string(),
            verified.to_string(),
        ]);
    }
    table.render()
}

/// E5 — exponent equation / perfect square.
fn experiment_e5() -> String {
    let mut table = Table::new(
        "E5 (Ex. 3.7): arithmetic reachable with level-j index space (search capped at 128)",
        &["|I|", "level j", "effective bound", "witness p^q+1=q^l"],
    );
    for (n, level) in [(4u64, 0u32), (4, 1), (3, 2)] {
        let (bound, witness) = queries::exponent_equation_witness(n, level, 128);
        table.push_row(vec![
            n.to_string(),
            level.to_string(),
            bound.to_string(),
            witness
                .map(|(p, q, l)| format!("{p}^{q}+1={q}^{l}"))
                .unwrap_or_else(|| "none ≤ bound".to_string()),
        ]);
    }
    let mut square = Table::new(
        "E5b: perfect-square CALC_{0,1} query (scaled-down Ex. 3.7 analogue)",
        &["|R|", "is square", "answer size", "status"],
    );
    let query = queries::perfect_square_query();
    for n in 1..=4u32 {
        let db = Database::single("R", Instance::from_atoms((0..n).map(Atom)));
        let row = match query.eval(&db, &EvalConfig::default()) {
            Ok(out) => vec![
                n.to_string(),
                queries::perfect_square_reference(n as usize).to_string(),
                out.len().to_string(),
                "evaluated".to_string(),
            ],
            Err(_) => vec![
                n.to_string(),
                queries::perfect_square_reference(n as usize).to_string(),
                "-".to_string(),
                "budget exceeded (2^(n^3) candidates)".to_string(),
            ],
        };
        square.push_row(row);
    }
    format!("{}{}", table.render(), square.render())
}

/// E6 — the existential fragment.
fn experiment_e6() -> String {
    let mut table = Table::new(
        "E6 (Thm 4.3): membership of the query library in CALC_{0,1,∃} (= SF = QNPTIME)",
        &[
            "query",
            "class",
            "higher-order vars",
            "all existential",
            "in SF",
        ],
    );
    let library = vec![
        ("grandparent", queries::grandparent_query()),
        ("sibling", queries::sibling_query()),
        ("transitive closure", queries::transitive_closure_query()),
        ("even cardinality", queries::even_cardinality_query()),
        ("perfect square", queries::perfect_square_query()),
    ];
    for (name, query) in library {
        let sf = sf_classification(&query);
        table.push_row(vec![
            name.to_string(),
            query.classification().minimal_class.to_string(),
            sf.higher_order_vars.to_string(),
            sf.all_higher_order_existential.to_string(),
            sf.is_in_sf().to_string(),
        ]);
    }
    table.render()
}

/// E7 — hyper-exponential growth table and Theorem 4.4 bounds.
fn experiment_e7() -> String {
    let mut table = Table::new(
        "E7 (Thm 4.4): log2 |cons_A(T_big(2,i))| vs log2 hyp(2,|A|,i)",
        &["level i", "|A|=2", "|A|=4", "|A|=6", "hyp bound (|A|=6)"],
    );
    for level in 0..=3usize {
        let mut row = vec![level.to_string()];
        for atoms in [2u64, 4, 6] {
            let entry = growth_table(level, atoms, 2)
                .pop()
                .map(|r| fmt_log2(r.cons_log2))
                .unwrap_or_default();
            row.push(entry);
        }
        let bound = growth_table(level, 6, 2)
            .pop()
            .map(|r| fmt_log2(r.hyp_log2))
            .unwrap_or_default();
        row.push(bound);
        table.push_row(row);
    }
    let mut bounds = Table::new(
        "E7b: Theorem 4.4 bounds and variable-space estimates (m = 8)",
        &[
            "query",
            "level i",
            "time lower",
            "space upper",
            "log2 var-space",
        ],
    );
    for (name, query) in [
        ("grandparent", queries::grandparent_query()),
        ("transitive closure", queries::transitive_closure_query()),
        ("even cardinality", queries::even_cardinality_query()),
    ] {
        let level = query.classification().minimal_class.i;
        let b = theorem_4_4_bounds(level);
        bounds.push_row(vec![
            name.to_string(),
            level.to_string(),
            b.time_lower,
            b.space_upper,
            format!("{:.1}", variable_space_bound(&query, 8).log2().max(0.0)),
        ]);
    }
    format!("{}{}", table.render(), bounds.render())
}

/// E8 — hierarchy counting power and the bottom-level separation witnesses.
fn experiment_e8() -> String {
    let mut table = Table::new(
        "E8 (Thm 5.1): counting power per intermediate-type level (width 2)",
        &[
            "level",
            "|A|=3 (log2)",
            "|A|=5 (log2)",
            "gains over previous",
        ],
    );
    for level in 0..=3u32 {
        let three = hierarchy_table(2, 3, level).pop().unwrap();
        let five = hierarchy_table(2, 5, level).pop().unwrap();
        table.push_row(vec![
            level.to_string(),
            fmt_log2(three.power_log2),
            fmt_log2(five.power_log2),
            three.strictly_gains().to_string(),
        ]);
    }
    let mut witnesses = Table::new(
        "E8b: executable separation witnesses for CALC_{0,0} ⊊ CALC_{0,1}",
        &["witness", "minimal class", "outside", "justification"],
    );
    for w in level_zero_one_witnesses() {
        witnesses.push_row(vec![
            w.name.to_string(),
            w.in_class.to_string(),
            w.outside_class.to_string(),
            w.justification.chars().take(60).collect::<String>() + "…",
        ]);
    }
    format!("{}{}", table.render(), witnesses.render())
}

/// E9 — universal type and invention collapse.
fn experiment_e9() -> String {
    let mut table = Table::new(
        "E9 (Ex. 6.6 / Fig. 3): universal-type encodings of nested objects",
        &[
            "object shape",
            "set-height",
            "object size",
            "encoded rows",
            "round-trip",
        ],
    );
    let mut universe = Universe::new();
    let shapes: Vec<(&str, Type, Value)> = vec![
        (
            "{[U,U]} with 3 pairs",
            Type::set(Type::flat_tuple(2)),
            Value::set(
                (0..3u32)
                    .map(|i| Value::pair(Atom(i), Atom(i + 1)))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "{[{U},U]} with 2 groups",
            Type::set(Type::tuple(vec![Type::set(Type::Atomic), Type::Atomic])),
            Value::set(vec![
                Value::tuple(vec![
                    Value::set(vec![Value::Atom(Atom(10)), Value::Atom(Atom(11))]),
                    Value::Atom(Atom(1)),
                ]),
                Value::tuple(vec![
                    Value::set(vec![Value::Atom(Atom(12))]),
                    Value::Atom(Atom(2)),
                ]),
            ]),
        ),
        (
            "{{{U}}} nested three deep",
            Type::nested_set(3),
            Value::set(vec![Value::set(vec![Value::set(vec![Value::Atom(Atom(
                30,
            ))])])]),
        ),
    ];
    for (name, ty, object) in shapes {
        let codec = UniversalCodec::new(&ty, &mut universe);
        let encoded = codec.encode(&object, &mut universe).unwrap();
        let round_trip = codec.decode(&encoded).unwrap() == object;
        table.push_row(vec![
            name.to_string(),
            ty.set_height().to_string(),
            object.size().to_string(),
            encoded.rows().to_string(),
            round_trip.to_string(),
        ]);
    }
    table.render()
}

/// E10 — terminal invention / invention levels.
fn experiment_e10() -> String {
    let mut table = Table::new(
        "E10 (Thm 6.19): answers per invention level (guarded vs unguarded query)",
        &[
            "query",
            "invented values n",
            "|Q|_n[d]|",
            "invented value surfaced",
        ],
    );
    let unguarded = itq_calculus::Query::new(
        "t",
        Type::Atomic,
        itq_calculus::Formula::truth(),
        itq_object::Schema::single("R", Type::Atomic),
    )
    .unwrap();
    let query = itq_calculus::Query::new(
        "t",
        Type::Atomic,
        itq_calculus::Formula::and(vec![
            itq_calculus::Formula::pred("R", itq_calculus::Term::var("t")),
            itq_calculus::Formula::exists(
                "outside",
                Type::Atomic,
                itq_calculus::Formula::not(itq_calculus::Formula::pred(
                    "R",
                    itq_calculus::Term::var("outside"),
                )),
            ),
        ]),
        itq_object::Schema::single("R", Type::Atomic),
    )
    .unwrap();
    let db = Database::single("R", Instance::from_atoms((0..3u32).map(Atom)));
    for (name, q) in [("guarded (R only)", &query), ("unguarded (⊤)", &unguarded)] {
        for n in 0..=3usize {
            let (restricted, unrestricted) =
                eval_with_invented(q, &db, n, &EvalConfig::default()).unwrap();
            let original = q.evaluation_domain(&db);
            let surfaced = unrestricted
                .result
                .iter()
                .any(|v| v.active_domain().iter().any(|a| !original.contains(a)));
            table.push_row(vec![
                name.to_string(),
                n.to_string(),
                restricted.len().to_string(),
                surfaced.to_string(),
            ]);
        }
    }
    table.render()
}
