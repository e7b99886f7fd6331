//! The per-layer replay: the statement stream a run sent, executed again
//! in-process through the public entry point of each layer, with spans that
//! this file records around every call.  Nothing inside the program is
//! instrumented.
//!
//! Each replayed connection gets an engine built the way `itq serve` builds
//! it (`parallelism(1)` and a linked `CancelFlag`, which arms the governor),
//! and declarations share prepared handles across connections the way the
//! server's plan cache does, so refresh paths, governor polls and prepare
//! counts describe the program the clients hit.

use crate::client::matches;
use crate::workload::{instantiate, Class, Stmt, Workload};
use itq_algebra::{infer_type, AlgExpr};
use itq_analyze::{analyze_algebra, analyze_query, Budgets};
use itq_calculus::Query;
use itq_core::engine::{Engine, Semantics};
use itq_core::incremental::{IncrementalDb, RefreshPath};
use itq_core::pipeline::{ExecStats, PrepareStats, Prepared};
use itq_object::{CancelFlag, Database, Schema, Value};
use itq_surface::script::{parse_stmt, split_statements, Stmt as Parsed};
use itq_surface::session::{PlanCache, Session};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// An engine configured the way `itq serve --threads 1` configures every
/// session's engine.
pub fn served_engine() -> Engine {
    Engine::builder()
        .parallelism(1)
        .cancel_flag(CancelFlag::new())
        .build()
}

/// One recorded span.  Spans of one statement share `stmt`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub stmt: u32,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.  When off, entering a span
/// reads no clock and records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stmt: u32,
    pub spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stmt: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(SpanRec {
            stmt: self.stmt,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        Some(index)
    }

    fn exit(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.now_ns();
            self.open.pop();
        }
    }

    /// Span durations minus the part their children cover, in µs, by span
    /// index.
    pub fn self_micros(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent] -= s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3;
            }
        }
        own
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"stmt\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.stmt, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Counts taken at the same call sites as the spans.
#[derive(Debug, Default)]
pub struct Counters {
    pub prepares: Vec<PrepareStats>,
    /// Calculus executions (including views re-executed by a write) and
    /// their answer sizes.
    pub calculus: Vec<(ExecStats, usize)>,
    /// Wall time of each view re-execution inside a write, in µs.
    pub reexec_micros: Vec<f64>,
    pub algebra: Vec<(ExecStats, usize)>,
    pub invention: Vec<ExecStats>,
    pub response_bytes: Vec<usize>,
    /// Per write: views refreshed, and how many of them re-executed.
    pub writes: Vec<(usize, usize)>,
}

type Plans = BTreeMap<String, Prepared>;

/// The replayed state of one connection: what its server session holds.
struct Replayer {
    engine: Engine,
    schemas: BTreeMap<String, Schema>,
    databases: BTreeMap<String, (String, Database)>,
    queries: BTreeMap<String, (Query, String)>,
    algebras: BTreeMap<String, (String, AlgExpr, String)>,
    prepared: BTreeMap<String, Prepared>,
    incremental: BTreeMap<String, IncrementalDb>,
}

impl Replayer {
    fn new() -> Replayer {
        Replayer {
            engine: served_engine(),
            schemas: BTreeMap::new(),
            databases: BTreeMap::new(),
            queries: BTreeMap::new(),
            algebras: BTreeMap::new(),
            prepared: BTreeMap::new(),
            incremental: BTreeMap::new(),
        }
    }

    /// Run one statement line; returns its response lines.
    fn run(
        &mut self,
        text: &str,
        plans: &mut Plans,
        tr: &mut Tracer,
        ct: &mut Counters,
    ) -> Result<Vec<String>, String> {
        let span = tr.enter("surface.parse");
        let mut parsed = Vec::new();
        for (chunk, _) in split_statements(text) {
            let stmt = parse_stmt(&chunk, &self.schemas, self.engine.universe_mut())
                .map_err(|e| e.to_string())?;
            parsed.push(stmt);
        }
        tr.exit(span);
        let mut lines = Vec::new();
        for stmt in parsed {
            self.execute(stmt, plans, tr, ct, &mut lines)?;
        }
        Ok(lines)
    }

    fn execute(
        &mut self,
        stmt: Parsed,
        plans: &mut Plans,
        tr: &mut Tracer,
        ct: &mut Counters,
        lines: &mut Vec<String>,
    ) -> Result<(), String> {
        match stmt {
            Parsed::DefSchema { name, schema } => {
                lines.push(format!("schema {name} = "));
                self.schemas.insert(name, schema);
            }
            Parsed::DefDatabase {
                name,
                schema,
                database,
            } => {
                lines.push(format!(
                    "database {name} : {schema} ({} relation{}, {} atoms in adom)",
                    database.len(),
                    plural(database.len()),
                    database.active_domain().len()
                ));
                self.databases.insert(name, (schema, database));
            }
            Parsed::DefQuery {
                name,
                schema,
                query,
                src,
                ..
            } => {
                lines.push(format!("query {name} : {schema} → {}", query.target_type()));
                self.prepared.remove(&name);
                self.queries.insert(name, (query, src));
            }
            Parsed::DefAlgebra {
                name,
                schema,
                expr,
                src,
                ..
            } => {
                let decl = self.schemas.get(&schema).ok_or("unknown schema")?;
                let ty = infer_type(&expr, decl).map_err(|e| e.to_string())?;
                lines.push(format!("algebra {name} : {schema} → {ty}"));
                self.prepared.remove(&name);
                self.algebras.insert(name, (schema, expr, src));
            }
            Parsed::Eval {
                name,
                database,
                semantics,
            } => self.eval(&name, &database, semantics, plans, tr, ct, lines)?,
            Parsed::Check { name } => {
                let span = tr.enter("analyze.check");
                let budgets = Budgets {
                    max_quantifier_domain: self.engine.calc_config().max_quantifier_domain,
                    max_instance: self.engine.alg_config().max_instance,
                };
                let report = if let Some((query, _)) = self.queries.get(&name) {
                    analyze_query(query, &budgets)
                } else {
                    let (schema, expr, _) = self.algebras.get(&name).ok_or("unknown name")?;
                    analyze_algebra(expr, &self.schemas[schema], &budgets)
                };
                lines.push(format!("check {name}: {}", report.summary()));
                lines.extend(report.diagnostics.iter().map(|d| format!("  {d}")));
                tr.exit(span);
            }
            Parsed::Plan { name } => {
                self.ensure_prepared(&name, plans, tr, ct)?;
                let span = tr.enter("surface.render");
                let prepared = &self.prepared[&name];
                let plan = prepared
                    .physical_plan()
                    .ok_or("not an algebra expression")?;
                lines.push(format!("plan {name}: {}", prepared.algebra_expr().unwrap()));
                lines.extend(plan.render_lines().into_iter().map(|l| format!("  {l}")));
                tr.exit(span);
            }
            Parsed::Insert {
                database,
                pred,
                values,
            } => self.mutate(&database, &pred, values, true, tr, ct, lines)?,
            Parsed::Delete {
                database,
                pred,
                values,
            } => self.mutate(&database, &pred, values, false, tr, ct, lines)?,
            Parsed::Watch {
                name,
                database,
                semantics,
            } => {
                self.ensure_prepared(&name, plans, tr, ct)?;
                let prepared = self.prepared[&name].clone();
                self.incremental_for(&database)?;
                let span = tr.enter("incremental.watch");
                let inc = self.incremental.get_mut(&database).expect("just created");
                inc.watch(&name, prepared, semantics);
                tr.exit(span);
                let view = inc.view(&name).expect("just watched");
                let n = view.outcome().as_ref().map_err(|e| e.to_string())?.len();
                lines.push(format!(
                    "watch {name} on {database} with {semantics}: {n} answer{}, strategy {}",
                    plural(n),
                    view.strategy_name()
                ));
            }
            other => return Err(format!("the replay does not model {other:?}")),
        }
        Ok(())
    }

    /// Get-or-create a prepared handle, consulting the cross-connection
    /// `plans` first as the server's plan cache does.
    fn ensure_prepared(
        &mut self,
        name: &str,
        plans: &mut Plans,
        tr: &mut Tracer,
        ct: &mut Counters,
    ) -> Result<(), String> {
        if self.prepared.contains_key(name) {
            return Ok(());
        }
        let key = if let Some((_, src)) = self.queries.get(name) {
            format!("query\u{1f}{src}")
        } else if let Some((schema, _, src)) = self.algebras.get(name) {
            format!("algebra\u{1f}{:?}\u{1f}{src}", self.schemas[schema])
        } else {
            return Err(format!("nothing named `{name}`"));
        };
        if let Some(shared) = plans.get(&key) {
            let handle = shared
                .with_governor(self.engine.governor().clone())
                .with_parallelism(self.engine.parallelism());
            self.prepared.insert(name.to_string(), handle);
            return Ok(());
        }
        let span = tr.enter("prepare");
        let handle = if let Some((query, _)) = self.queries.get(name) {
            self.engine.prepare(query)
        } else {
            let (schema, expr, _) = &self.algebras[name];
            self.engine.prepare_algebra(expr, &self.schemas[schema])
        }
        .map_err(|e| e.to_string())?;
        tr.exit(span);
        if tr.on {
            ct.prepares.push(*handle.prepare_stats());
        }
        plans.insert(key, handle.clone());
        self.prepared.insert(name.to_string(), handle);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn eval(
        &mut self,
        name: &str,
        database: &str,
        semantics: Semantics,
        plans: &mut Plans,
        tr: &mut Tracer,
        ct: &mut Counters,
        lines: &mut Vec<String>,
    ) -> Result<(), String> {
        let (_, db) = self
            .databases
            .get(database)
            .ok_or_else(|| format!("unknown database `{database}`"))?
            .clone();
        self.ensure_prepared(name, plans, tr, ct)?;
        let prepared = &self.prepared[name];
        let layer = match (semantics, prepared.is_algebra()) {
            (Semantics::Limited, true) => "algebra.exec",
            (Semantics::Limited, false) => "calculus.exec",
            _ => "invention.exec",
        };
        let span = tr.enter(layer);
        let outcome = prepared
            .execute(&db, semantics)
            .map_err(|e| e.to_string())?;
        tr.exit(span);
        let header = if prepared.is_algebra() && semantics == Semantics::Limited {
            format!("eval {name} on {database}")
        } else {
            format!("eval {name} on {database} with {semantics}")
        };
        let span = tr.enter("surface.render");
        let n = outcome.result.len();
        let qualifier = if outcome.bounded_approximation {
            " (bounded approximation)"
        } else {
            ""
        };
        lines.push(format!("{header}: {n} object{}{qualifier}", plural(n)));
        let universe = self.engine.universe();
        lines.extend(
            outcome
                .result
                .iter()
                .map(|v| format!("  {}", v.display_with(universe))),
        );
        tr.exit(span);
        if tr.on {
            ct.response_bytes
                .push(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 2);
            match layer {
                "algebra.exec" => ct.algebra.push((outcome.stats, n)),
                "calculus.exec" => ct.calculus.push((outcome.stats, n)),
                _ => ct.invention.push(outcome.stats),
            }
        }
        Ok(())
    }

    fn incremental_for(&mut self, database: &str) -> Result<(), String> {
        if !self.incremental.contains_key(database) {
            let (schema, db) = self
                .databases
                .get(database)
                .ok_or_else(|| format!("unknown database `{database}`"))?;
            let inc =
                IncrementalDb::new(self.schemas[schema].clone(), db).map_err(|e| e.to_string())?;
            self.incremental.insert(database.to_string(), inc);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn mutate(
        &mut self,
        database: &str,
        pred: &str,
        values: Vec<Value>,
        inserting: bool,
        tr: &mut Tracer,
        ct: &mut Counters,
        lines: &mut Vec<String>,
    ) -> Result<(), String> {
        self.incremental_for(database)?;
        let inc = self.incremental.get_mut(database).expect("just created");
        let span = tr.enter("incremental.write");
        let outcome = if inserting {
            inc.insert(pred, values)
        } else {
            inc.delete(pred, values)
        }
        .map_err(|e| e.to_string())?;
        tr.exit(span);
        if inserting {
            lines.push(format!(
                "insert into {database}.{pred}: {} added (version {})",
                outcome.added, outcome.version
            ));
        } else {
            lines.push(format!(
                "delete from {database}.{pred}: {} removed (version {})",
                outcome.removed, outcome.version
            ));
        }
        let mut reexecuted = 0;
        for refresh in &outcome.refreshed {
            let answers = refresh.answers.unwrap_or(0);
            lines.push(format!(
                "  watch {}: {answers} answer{} via {}",
                refresh.name,
                plural(answers),
                refresh.path
            ));
            if refresh.path == RefreshPath::Reexecuted {
                reexecuted += 1;
                let view = inc
                    .view(&refresh.name)
                    .expect("refreshed views are watched");
                if tr.on && view.semantics() == Semantics::Limited {
                    ct.calculus.push((*view.stats(), answers));
                    ct.reexec_micros.push(view.stats().wall_micros as f64);
                }
            }
        }
        if tr.on {
            ct.writes.push((outcome.refreshed.len(), reexecuted));
        }
        let snapshot = inc.snapshot();
        if let Some((_, db)) = self.databases.get_mut(database) {
            *db = snapshot;
        }
        Ok(())
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// What one replay measured.
pub struct ReplayRun {
    pub tracer: Tracer,
    pub counters: Counters,
    /// Wall time of the replayed cycles after the warm-up cycle.
    pub measured_secs: f64,
    /// Per connection, per replayed measured statement (send order): the
    /// summed time of its layer spans, in µs.
    pub layer_micros: Vec<Vec<f64>>,
}

/// Replay the setup batch, the warm-up cycle and `cycles` measured cycles of
/// every connection, one statement of each connection in turn.  Every
/// response is checked against the oracle as the client checks the server's.
pub fn replay(workload: &Workload, cycles: usize, traced: bool) -> Result<ReplayRun, String> {
    let mut tracer = Tracer::new(traced);
    let mut counters = Counters::default();
    let mut plans = Plans::new();
    let mut sessions: Vec<Replayer> = workload.conns.iter().map(|_| Replayer::new()).collect();
    let mut layer_micros = vec![Vec::new(); workload.conns.len()];
    let mut run_one = |c: usize, stmt: &Stmt, cycle: usize, tracer: &mut Tracer| {
        tracer.stmt += 1;
        let first_span = tracer.spans.len();
        let root = tracer.enter("stmt");
        let text = instantiate(&stmt.text, cycle);
        let lines = sessions[c].run(&text, &mut plans, tracer, &mut counters)?;
        tracer.exit(root);
        if !matches(&stmt.expect, cycle, &lines) {
            return Err(format!(
                "replay disagrees with the oracle on `{text}`: {lines:?}"
            ));
        }
        if traced && cycle > 0 && stmt.class != Class::Setup {
            let own: f64 = tracer.spans[first_span..]
                .iter()
                .filter(|s| s.parent == root)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .sum();
            layer_micros[c].push(own);
        }
        Ok::<(), String>(())
    };
    for (c, conn) in workload.conns.iter().enumerate() {
        for stmt in &conn.setup {
            run_one(c, stmt, 0, &mut tracer)?;
        }
    }
    let longest = workload
        .conns
        .iter()
        .map(|c| c.cycle.len())
        .max()
        .unwrap_or(0);
    let mut measured_start = Instant::now();
    for cycle in 0..=cycles {
        if cycle == 1 {
            measured_start = Instant::now();
        }
        for pos in 0..longest {
            for (c, conn) in workload.conns.iter().enumerate() {
                if let Some(stmt) = conn.cycle.get(pos) {
                    run_one(c, stmt, cycle, &mut tracer)?;
                }
            }
        }
    }
    let measured_secs = measured_start.elapsed().as_secs_f64();
    Ok(ReplayRun {
        tracer,
        counters,
        measured_secs,
        layer_micros,
    })
}

/// Plan-cache lookups and hits from real `Session`s, one per connection,
/// sharing one `PlanCache` and replaying the setup batch and the
/// declaration-class statements of `cycles` cycles.
pub fn plan_cache_hits(workload: &Workload, cycles: usize) -> Result<(u64, u64), String> {
    let cache = PlanCache::new();
    let mut sessions: Vec<Session> = workload
        .conns
        .iter()
        .map(|_| {
            let mut s = Session::with_engine(served_engine());
            s.set_quiet(true);
            s.set_shared_plans(cache.clone());
            s
        })
        .collect();
    let run = |s: &mut Session, text: &str| {
        s.run_source(text)
            .map(|_| ())
            .map_err(|e| format!("plan-cache replay failed on `{text}`: {e}"))
    };
    for (s, conn) in sessions.iter_mut().zip(&workload.conns) {
        for stmt in &conn.setup {
            run(s, &stmt.text)?;
        }
    }
    for cycle in 0..=cycles {
        for (s, conn) in sessions.iter_mut().zip(&workload.conns) {
            for stmt in conn.cycle.iter().filter(|s| s.class == Class::Decl) {
                run(s, &instantiate(&stmt.text, cycle))?;
            }
        }
    }
    Ok((cache.hits(), cache.hits() + cache.misses()))
}
