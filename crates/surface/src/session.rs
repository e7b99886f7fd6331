//! The interactive session: named schemas, databases, queries, and algebra
//! expressions, executed against an [`itq_core::engine::Engine`].
//!
//! A [`Session`] is the semantic half of the `itq` REPL: feed it statement
//! text ([`Session::run_source`] or [`Session::run_statement`]) and it parses
//! against its own universe and schema table, executes, and returns the
//! output lines.  Atom names interned while loading databases are used when
//! rendering answers, so `eval gp on d` prints `[Tom, Sue]`, not `[a0, a2]`.
//!
//! Evaluation goes through [`itq_core::pipeline::Prepared`] handles, cached
//! per named query: `eval`-ing the same name twice type-checks, classifies,
//! and (for algebra) compiles only once.

use crate::error::{ParseError, Pos};
use crate::script::{offset_error, parse_stmt, split_statements, SetKnob, Stmt};
use crate::spans::SpanTable;
use itq_algebra::{classify_expr, infer_type, AlgExpr};
use itq_analyze::{analyze_algebra, analyze_query, render_snippet, Severity};
use itq_calculus::Query;
use itq_core::engine::{Engine, PlanSettings, Semantics};
use itq_core::incremental::{IncrementalDb, IncrementalError, ViewRefresh};
use itq_core::pipeline::Prepared;
use itq_object::{Instance, Schema, Value};
use itq_trace::{NoopSink, TraceSink};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An error from running a statement: a parse error (with script-absolute
/// position) or an execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The statement did not parse.
    Parse(ParseError),
    /// The statement parsed but could not be executed.
    Exec(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Exec(msg) => write!(f, "error: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e)
    }
}

/// What the REPL should do after a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading statements.
    Continue,
    /// A `quit`/`exit` statement was executed.
    Quit,
}

/// The outcome of one statement: printable output lines plus a control flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmtOutput {
    /// Human-readable output lines.
    pub lines: Vec<String>,
    /// Whether the session should keep going.
    pub control: Control,
}

/// How many plans a [`PlanCache`] keeps.  Publishing past it evicts the
/// least recently used plan.
const PLAN_CACHE_CAPACITY: usize = 256;

/// A thread-safe prepared-plan cache shared between sessions.
///
/// The static half of a [`Prepared`] handle — type-checking, classification,
/// normal forms, the Theorem 3.8 compilation, the physical plan — is a
/// function of the parsed statement and of the engine configuration the
/// handle records, never of which session asked.  A multi-session server
/// therefore prepares each distinct statement once: sessions that declare the
/// same one get the cached handle back, *re-budgeted* through
/// [`Prepared::with_governor`] with their own deadline, memory ceiling, and
/// cancellation flag, so one session tripping its budget can never affect
/// another session running the same plan.  A hit copies an `Arc`, not the
/// plan.
///
/// Keys are compared structurally: the statement kind, the parsed value —
/// a query with the schema it embeds, or an algebra expression with the
/// schema it is typed against — and the engine's [`PlanSettings`], whole.
/// A parsed constant is an atom id of the declaring session's
/// universe, so sessions that intern atoms in different orders get different
/// keys and never share a plan whose constants mean something else to them.
/// The declaration text is not part of the key: the same statement under a
/// fresh name hits.
///
/// The cache holds at most a fixed number of plans and evicts the least
/// recently used; a hit refreshes its entry.  Cloning is shallow: every clone
/// shares the same entries and counters, which is how `itq serve` hands one
/// cache to every connection thread.
#[derive(Clone, Default)]
pub struct PlanCache {
    /// Least recently used first.
    plans: Arc<Mutex<Vec<(PlanKey, Prepared)>>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// The entries, recovered from a poisoned lock: every update is one
    /// `push`, `remove` or rotation, so a panicking holder cannot leave them
    /// torn.
    fn plans(&self) -> MutexGuard<'_, Vec<(PlanKey, Prepared)>> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached handle for a key, counting the hit or miss.  A hit
    /// becomes the most recently used entry.
    fn lookup(&self, key: &PlanKey) -> Option<Prepared> {
        let mut plans = self.plans();
        let Some(index) = plans.iter().position(|(cached, _)| cached == key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        plans[index..].rotate_left(1);
        plans.last().map(|(_, handle)| handle.clone())
    }

    /// Publish a freshly prepared handle under its key, evicting the least
    /// recently used plan when the cache is full.  First writer wins: if two
    /// sessions race to prepare the same statement, the loser's (equal)
    /// handle is dropped so later lookups stay stable.
    fn publish(&self, key: PlanKey, handle: &Prepared) {
        let mut plans = self.plans();
        if plans.iter().any(|(cached, _)| *cached == key) {
            return;
        }
        if plans.len() == PLAN_CACHE_CAPACITY {
            drop(plans.remove(0));
        }
        plans.push((key, handle.clone()));
    }

    /// Number of distinct plans cached.
    pub fn len(&self) -> usize {
        self.plans().len()
    }

    /// True when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a fresh prepare.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Everything a shared plan depends on (see [`PlanCache`]).
#[derive(PartialEq)]
struct PlanKey {
    statement: PlanStatement,
    settings: PlanSettings,
}

/// The parsed value a plan is prepared from, constants as atom ids.
#[derive(PartialEq)]
enum PlanStatement {
    /// A calculus query, which embeds its schema.
    Query(Query),
    /// An algebra expression and the schema it is typed against.
    Algebra(AlgExpr, Schema),
}

/// A named query or algebra expression: one record per name, holding
/// everything the session keeps for it.  A server session keeps one for
/// every name its clients ever declared, so the record stays small: a
/// prepared name keeps its statement only inside the handle, and the span
/// table is packed.
struct Definition {
    /// Name of the input schema.
    schema: String,
    body: Body,
    /// The declaring statement's text and node spans, kept so `check NAME;`
    /// can render caret snippets; `None` for a query `compile` derived.
    source: Option<(Box<str>, SpanTable)>,
}

/// What a name is bound to: the parsed statement until a statement needs a
/// handle, then the handle, which holds that statement (and, from the plan
/// cache, shares it with every name bound to an equal one).  The handle is
/// dropped, and the statement taken back out of it, when the engine
/// configuration or an algebra's schema changes.
enum Body {
    Query(Box<Query>),
    Algebra(AlgExpr),
    Prepared(Prepared),
}

/// The statement a [`Definition`] is bound to, wherever its body keeps it.
enum Statement<'a> {
    Query(&'a Query),
    Algebra(&'a AlgExpr),
}

impl Definition {
    fn statement(&self) -> Statement<'_> {
        match &self.body {
            Body::Query(query) => Statement::Query(query),
            Body::Algebra(expr) => Statement::Algebra(expr),
            Body::Prepared(handle) => match handle.algebra_expr() {
                Some(expr) => Statement::Algebra(expr),
                None => Statement::Query(handle.query()),
            },
        }
    }

    fn is_algebra(&self) -> bool {
        matches!(self.statement(), Statement::Algebra(_))
    }

    /// Drop the prepared handle, keeping the statement it holds.
    fn unprepare(&mut self) {
        if let Body::Prepared(handle) = &self.body {
            self.body = match handle.algebra_expr() {
                Some(expr) => Body::Algebra(expr.clone()),
                None => Body::Query(Box::new(handle.query().clone())),
            };
        }
    }
}

/// A named-object session over an [`Engine`].
///
/// Evaluation runs entirely through the prepare-once / execute-many pipeline:
/// the first `eval` of a named query (or algebra expression) prepares it —
/// typing, classification, normal forms, Theorem 3.8 compilation — and caches
/// the [`Prepared`] handle; every later `eval` of the same name reuses the
/// handle and only pays for execution.  Redefining a name, or touching the
/// engine through [`Session::engine_mut`], drops the affected handles.
pub struct Session {
    engine: Engine,
    schemas: BTreeMap<String, Schema>,
    /// Each database's schema name and its one copy of the contents, with
    /// its watched views: built when the `database` statement runs, against
    /// the schema as declared then, and mutated in place by `insert` and
    /// `delete`.
    databases: BTreeMap<String, (String, IncrementalDb)>,
    /// Every named query and algebra expression; declaring a name replaces
    /// whatever it was bound to.  Boxed, so the slots a B-tree node keeps
    /// spare cost a pointer each rather than a record.
    definitions: BTreeMap<String, Box<Definition>>,
    /// Where execution and epoch spans go; [`NoopSink`] (tracing off) by
    /// default, so plain sessions never build a span.
    sink: Box<dyn TraceSink>,
    /// Suppress per-answer output lines (`--quiet`).
    quiet: bool,
    /// Cross-session prepared-plan cache (`itq serve`): `None` for a
    /// standalone session, in which case only each definition's `prepared`
    /// handle is cached.
    shared_plans: Option<PlanCache>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session with default engine budgets.
    pub fn new() -> Session {
        Session {
            engine: Engine::new(),
            schemas: BTreeMap::new(),
            databases: BTreeMap::new(),
            definitions: BTreeMap::new(),
            sink: Box::new(NoopSink),
            quiet: false,
            shared_plans: None,
        }
    }

    /// A session over a pre-configured engine (custom budgets).
    pub fn with_engine(engine: Engine) -> Session {
        Session {
            engine,
            ..Session::new()
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the underlying engine (budget tuning).
    ///
    /// Prepared handles snapshot the engine configuration, so taking this
    /// borrow drops every cached handle; the next `eval` of each name
    /// re-prepares against the new configuration.
    pub fn engine_mut(&mut self) -> &mut Engine {
        for def in self.definitions.values_mut() {
            def.unprepare();
        }
        &mut self.engine
    }

    /// Install a trace sink: while it reports
    /// [`enabled`](TraceSink::is_enabled), every `eval` records its execution
    /// span tree and every mutation records its epoch span.  The default is
    /// [`NoopSink`] — tracing off, executions run the plain untraced path.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Suppress per-answer output lines; headers, reports, and errors still
    /// print (`itq --quiet`).
    pub fn set_quiet(&mut self, quiet: bool) {
        self.quiet = quiet;
    }

    /// Join a cross-session [`PlanCache`]: prepares consult (and feed) the
    /// shared cache before doing static work themselves, keyed on the parsed
    /// statement — its constants resolved against *this* session's atoms —
    /// and this session's plan settings.  Handles
    /// retrieved from the cache are re-budgeted with this session's governor
    /// and worker count — see [`PlanCache`] for the key and the isolation
    /// contract.
    pub fn set_shared_plans(&mut self, cache: PlanCache) {
        self.shared_plans = Some(cache);
    }

    /// Look up a declared schema.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.schemas.get(name)
    }

    /// Look up a declared query.
    pub fn query(&self, name: &str) -> Option<&Query> {
        match self.definitions.get(name)?.statement() {
            Statement::Query(query) => Some(query),
            Statement::Algebra(_) => None,
        }
    }

    /// The cached [`Prepared`] handle for a named query or algebra expression,
    /// if it has been evaluated (and therefore prepared) in this session.
    pub fn prepared(&self, name: &str) -> Option<&Prepared> {
        match &self.definitions.get(name)?.body {
            Body::Prepared(handle) => Some(handle),
            Body::Query(_) | Body::Algebra(_) => None,
        }
    }

    /// Run a whole script, stopping at the first error (batch mode).  Returns
    /// all output lines produced up to (and including) a `quit`.
    pub fn run_source(&mut self, src: &str) -> Result<Vec<String>, SessionError> {
        let mut out = Vec::new();
        for (chunk, base) in split_statements(src) {
            let result = self.run_statement(&chunk, base)?;
            out.extend(result.lines);
            if result.control == Control::Quit {
                break;
            }
        }
        Ok(out)
    }

    /// Parse and execute a single statement chunk whose first character sits
    /// at `base` in the enclosing script (use [`Pos::start`] for standalone
    /// text).  Error positions are reported script-absolute.
    pub fn run_statement(&mut self, src: &str, base: Pos) -> Result<StmtOutput, SessionError> {
        let stmt = parse_stmt(src, &self.schemas, self.engine.universe_mut())
            .map_err(|e| offset_error(e, base))?;
        self.execute(stmt)
    }

    /// Execute an already-parsed statement.
    pub fn execute(&mut self, stmt: Stmt) -> Result<StmtOutput, SessionError> {
        let mut lines = Vec::new();
        let mut control = Control::Continue;
        match stmt {
            Stmt::DefSchema { name, schema } => {
                lines.push(format!("schema {name} = {}", render_schema(&schema)));
                // Algebra handles resolve their schema by name at prepare time,
                // so a redefinition invalidates every handle prepared over the
                // old schema (queries embed their schema at parse time and are
                // unaffected, matching the pre-pipeline behaviour).
                for def in self.definitions.values_mut() {
                    if def.is_algebra() && def.schema == name {
                        def.unprepare();
                    }
                }
                self.schemas.insert(name, schema);
            }
            Stmt::DefDatabase {
                name,
                schema,
                database,
            } => {
                lines.push(format!(
                    "database {name} : {schema} ({} relation{}, {} atoms in adom)",
                    database.len(),
                    plural(database.len()),
                    database.active_domain().len(),
                ));
                let inc = IncrementalDb::new(self.schema_or_err(&schema)?.clone(), &database)
                    .map_err(|e| SessionError::Exec(format!("database `{name}`: {e}")))?;
                // A redefined database starts over from its new contents;
                // views watched on the old contents re-register against them.
                if let Some((_, old)) = self.databases.insert(name.clone(), (schema, inc)) {
                    let watched: Vec<(String, Semantics)> = old
                        .views()
                        .map(|(view_name, view)| (view_name.to_string(), view.semantics()))
                        .collect();
                    self.rewatch(&name, watched, &mut lines);
                }
            }
            Stmt::DefQuery {
                name,
                schema,
                query,
                src,
                spans,
            } => {
                lines.push(format!(
                    "query {name} : {schema} → {} ({} quantifiers)",
                    query.target_type(),
                    query.body().quantifier_count(),
                ));
                let body = Body::Query(Box::new(query));
                self.define(name.clone(), schema, body, Some((src, spans)));
                self.rewatch_by_name(&name, &mut lines);
            }
            Stmt::DefAlgebra {
                name,
                schema,
                expr,
                src,
                spans,
            } => {
                let schema_decl = self.schema_or_err(&schema)?;
                let ty = infer_type(&expr, schema_decl)
                    .map_err(|e| SessionError::Exec(format!("algebra `{name}`: {e}")))?;
                lines.push(format!("algebra {name} : {schema} → {ty}"));
                let body = Body::Algebra(expr);
                self.define(name.clone(), schema, body, Some((src, spans)));
                self.rewatch_by_name(&name, &mut lines);
            }
            Stmt::Show { name } => lines.extend(self.show(&name)?),
            Stmt::List => lines.extend(self.list()),
            Stmt::Classify { name } => lines.extend(self.classify(&name)?),
            Stmt::Typecheck { name } => lines.extend(self.typecheck(&name)?),
            Stmt::Check { name } => lines.extend(self.check(&name)?),
            Stmt::Plan { name } => lines.extend(self.plan(&name)?),
            Stmt::Eval {
                name,
                database,
                semantics,
            } => lines.extend(self.eval(&name, &database, semantics)?),
            Stmt::ExplainAnalyze {
                name,
                database,
                semantics,
            } => lines.extend(self.explain_analyze(&name, &database, semantics)?),
            Stmt::Insert {
                database,
                pred,
                values,
            } => lines.extend(self.mutate(&database, &pred, values, true)?),
            Stmt::Delete {
                database,
                pred,
                values,
            } => lines.extend(self.mutate(&database, &pred, values, false)?),
            Stmt::Watch {
                name,
                database,
                semantics,
            } => lines.extend(self.watch(&name, &database, semantics)?),
            Stmt::Unwatch { name, database } => {
                lines.extend(self.unwatch(&name, database.as_deref())?)
            }
            Stmt::Compile { name, target } => lines.extend(self.compile(&name, target)?),
            Stmt::Set { knob, value } => lines.push(self.set_limit(knob, value)),
            Stmt::Help => lines.extend(help_text()),
            Stmt::Quit => {
                lines.push("bye".to_string());
                control = Control::Quit;
            }
        }
        Ok(StmtOutput { lines, control })
    }

    // ----- statement implementations -------------------------------------------

    fn schema_or_err(&self, name: &str) -> Result<&Schema, SessionError> {
        self.schemas
            .get(name)
            .ok_or_else(|| SessionError::Exec(format!("unknown schema `{name}`")))
    }

    /// A declared query or algebra expression.
    fn definition(&self, name: &str) -> Result<&Definition, SessionError> {
        self.definitions.get(name).map(Box::as_ref).ok_or_else(|| {
            SessionError::Exec(format!("no query or algebra expression named `{name}`"))
        })
    }

    /// Bind `name` to a fresh definition, dropping whatever it was bound to
    /// and that binding's prepared handle.
    fn define(
        &mut self,
        name: String,
        schema: String,
        body: Body,
        source: Option<(String, SpanTable)>,
    ) {
        let def = Definition {
            schema,
            body,
            source: source.map(|(src, spans)| (src.into_boxed_str(), spans)),
        };
        self.definitions.insert(name, Box::new(def));
    }

    fn show(&self, name: &str) -> Result<Vec<String>, SessionError> {
        if let Some(schema) = self.schemas.get(name) {
            return Ok(vec![format!("schema {name} = {}", render_schema(schema))]);
        }
        if let Some((schema, inc)) = self.databases.get(name) {
            let mut lines = vec![format!("database {name} : {schema}")];
            for (pred, instance) in inc.database().iter() {
                lines.push(format!("  {pred} = {}", self.render_instance(instance),));
            }
            return Ok(lines);
        }
        if let Some(def) = self.definitions.get(name) {
            let (kind, text) = match def.statement() {
                Statement::Query(query) => ("query", query.to_string()),
                Statement::Algebra(expr) => ("algebra", expr.to_string()),
            };
            return Ok(vec![
                format!("{kind} {name} : {}", def.schema),
                format!("  {text}"),
            ]);
        }
        Err(SessionError::Exec(format!("nothing named `{name}`")))
    }

    fn list(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let named = |algebra: bool| {
            self.definitions
                .iter()
                .filter(|(_, def)| def.is_algebra() == algebra)
                .map(|(name, _)| name)
                .collect()
        };
        let sections: [(&str, Vec<&String>); 4] = [
            ("schemas", self.schemas.keys().collect()),
            ("databases", self.databases.keys().collect()),
            ("queries", named(false)),
            ("algebras", named(true)),
        ];
        for (what, names) in sections {
            if !names.is_empty() {
                let names: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                lines.push(format!("{what}: {}", names.join(", ")));
            }
        }
        let watches: Vec<String> = self
            .databases
            .iter()
            .flat_map(|(db, (_, inc))| {
                inc.views()
                    .map(move |(view_name, _)| format!("{view_name} on {db}"))
            })
            .collect();
        if !watches.is_empty() {
            lines.push(format!("watches: {}", watches.join(", ")));
        }
        if lines.is_empty() {
            lines.push("nothing declared yet".to_string());
        }
        lines
    }

    fn classify(&mut self, name: &str) -> Result<Vec<String>, SessionError> {
        let def = self.definition(name)?;
        if let Statement::Algebra(expr) = def.statement() {
            let schema = self.schema_or_err(&def.schema)?;
            let c = classify_expr(expr, schema)
                .map_err(|e| SessionError::Exec(format!("classify `{name}`: {e}")))?;
            let mut lines = vec![format!(
                "{name} ∈ ALG_{{{},{}}} (minimal), output type {}",
                c.minimal_class.k, c.minimal_class.i, c.output_type
            )];
            if !c.intermediate_types.is_empty() {
                let tys: Vec<String> = c.intermediate_types.iter().map(|t| t.to_string()).collect();
                lines.push(format!("  intermediate types: {}", tys.join(", ")));
            }
            return Ok(lines);
        }
        // The classification was computed at prepare time; reuse the handle.
        let (mut lines, handle) = self.ensure_prepared(name)?;
        let c = handle.classification();
        lines.push(format!("{name} ∈ {} (minimal)", c.minimal_class));
        if c.intermediate_types.is_empty() {
            lines.push("  no intermediate types".to_string());
        } else {
            let tys: Vec<String> = c.intermediate_types.iter().map(|t| t.to_string()).collect();
            lines.push(format!("  intermediate types: {}", tys.join(", ")));
        }
        Ok(lines)
    }

    fn typecheck(&mut self, name: &str) -> Result<Vec<String>, SessionError> {
        let def = self.definition(name)?;
        if let Statement::Algebra(expr) = def.statement() {
            let ty = infer_type(expr, self.schema_or_err(&def.schema)?)
                .map_err(|e| SessionError::Exec(format!("typecheck `{name}`: {e}")))?;
            return Ok(vec![format!("{name} : {} → {ty} ✓", def.schema)]);
        }
        // Preparing re-derives the full typing (the prepare-time semantic
        // type-check); a cached handle is itself the proof of typing.
        let (mut lines, handle) = self.ensure_prepared(name)?;
        let query = handle.query();
        lines.push(format!(
            "{name} : {} → {} ✓ (t-wff over {})",
            self.definition(name)?.schema,
            query.target_type(),
            render_schema(query.schema()),
        ));
        Ok(lines)
    }

    /// `plan NAME;` — pretty-print the set-at-a-time physical plan the
    /// prepare step built (the plan `eval` executes, once for every
    /// invention level too): every algebra expression has one, and so does a
    /// calculus query in the conjunctive fragment.  A least-fixpoint query prints its
    /// Datalog rules instead.  Any other calculus query is reported as
    /// running on the evaluator that enumerates it.
    fn plan(&mut self, name: &str) -> Result<Vec<String>, SessionError> {
        let (mut lines, prepared) = self.ensure_prepared(name)?;
        match (prepared.physical_plan(), prepared.least_fixpoint()) {
            (Some(plan), _) => {
                let source = match prepared.algebra_expr() {
                    Some(expr) => expr.to_string(),
                    None => prepared.query().to_string(),
                };
                lines.push(format!("plan {name}: {source}"));
                lines.extend(plan.render_lines().into_iter().map(|l| format!("  {l}")));
            }
            (None, Some((program, guards))) => {
                let rules = program.rules.len();
                lines.push(format!(
                    "plan {name}: least fixpoint of {rules} rule{}, {guards} guard{}",
                    plural(rules),
                    plural(guards)
                ));
                lines.extend(program.rules.iter().map(|rule| format!("  {rule}")));
            }
            (None, None) => lines.push(format!(
                "plan {name}: none — this calculus query runs the compiled slot evaluator"
            )),
        }
        Ok(lines)
    }

    /// `check NAME;` — run the full static-analysis pipeline on a named query
    /// or algebra expression and print every diagnostic with its notes and a
    /// caret snippet into the defining statement.  Analysis runs directly on
    /// the stored definition (not through `prepare`), so it never executes
    /// anything and works even when preparation would fail.
    fn check(&self, name: &str) -> Result<Vec<String>, SessionError> {
        let budgets = self.engine.plan_settings().budgets();
        let def = self.definition(name)?;
        let report = match def.statement() {
            Statement::Query(query) => analyze_query(query, &budgets),
            Statement::Algebra(expr) => {
                analyze_algebra(expr, self.schema_or_err(&def.schema)?, &budgets)
            }
        };
        let mut lines = vec![format!("check {name}: {}", report.summary())];
        for d in &report.diagnostics {
            lines.push(format!("  {d}"));
            for note in &d.notes {
                lines.push(format!("    note: {note}"));
            }
            if let Some((src, spans)) = &def.source {
                if let Some(span) = d.node.and_then(|n| spans.get(n)) {
                    lines.extend(
                        render_snippet(src, span)
                            .into_iter()
                            .map(|l| format!("    {l}")),
                    );
                }
            }
        }
        Ok(lines)
    }

    /// Get-or-create the [`Prepared`] handle for a named query or algebra
    /// expression — the prepare-once half of the pipeline.  A *fresh* prepare
    /// also returns the handle's warning-level diagnostics as printable lines
    /// (suppressed by `--quiet`); a cached handle returns none, so a warning
    /// prints once per prepare, not once per execution.
    fn ensure_prepared(&mut self, name: &str) -> Result<(Vec<String>, Prepared), SessionError> {
        if let Body::Prepared(handle) = &self.definition(name)?.body {
            return Ok((Vec::new(), handle.clone()));
        }
        let key = self.plan_key(name)?;
        // `itq serve`: another session may already have done the static work
        // for this statement.  A cache hit is re-budgeted with this session's
        // own governor and worker count, so budget trips and cancellations
        // stay per-session even though the plan is shared.
        let cache = self.shared_plans.as_ref();
        let handle = match cache.and_then(|cache| cache.lookup(&key)) {
            Some(shared) => shared
                .with_governor(self.engine.governor().clone())
                .with_parallelism(self.engine.parallelism()),
            None => {
                let handle = match &key.statement {
                    PlanStatement::Query(query) => self.engine.prepare(query),
                    PlanStatement::Algebra(expr, schema) => {
                        self.engine.prepare_algebra(expr, schema)
                    }
                }
                .map_err(|e| SessionError::Exec(format!("prepare `{name}`: {e}")))?;
                if let Some(cache) = cache {
                    cache.publish(key, &handle);
                }
                handle
            }
        };
        let warnings = self.prepare_warnings(name, &handle);
        if let Some(def) = self.definitions.get_mut(name) {
            def.body = Body::Prepared(handle.clone());
        }
        Ok((warnings, handle))
    }

    /// The warning-level diagnostic lines a fresh prepare of `name` prints
    /// (suppressed by `--quiet`).
    fn prepare_warnings(&self, name: &str, handle: &Prepared) -> Vec<String> {
        let mut warnings = Vec::new();
        if !self.quiet {
            for d in handle.diagnostics().at_least(Severity::Warning) {
                warnings.push(format!(
                    "{}[{}] in {name}: {}",
                    d.severity, d.code, d.message
                ));
            }
        }
        warnings
    }

    /// What preparing a named query or algebra expression reads: its parsed
    /// value and this engine's plan settings — the key of the cross-session
    /// [`PlanCache`].
    fn plan_key(&self, name: &str) -> Result<PlanKey, SessionError> {
        let def = self.definition(name)?;
        let statement = match def.statement() {
            Statement::Query(query) => PlanStatement::Query(query.clone()),
            Statement::Algebra(expr) => {
                PlanStatement::Algebra(expr.clone(), self.schema_or_err(&def.schema)?.clone())
            }
        };
        Ok(PlanKey {
            statement,
            settings: *self.engine.plan_settings(),
        })
    }

    fn eval(
        &mut self,
        name: &str,
        database: &str,
        semantics: Semantics,
    ) -> Result<Vec<String>, SessionError> {
        // An unknown database is reported before anything is prepared.
        self.database_or_err(database)?;
        let (mut lines, prepared) = self.ensure_prepared(name)?;
        let db = self.database_or_err(database)?.database();
        // Algebra expressions keep their historical header under the limited
        // interpretation (no semantics qualifier); everything else names the
        // semantics it ran under.
        let header = if prepared.is_algebra() && semantics == Semantics::Limited {
            format!("eval {name} on {database}")
        } else {
            format!("eval {name} on {database} with {semantics}")
        };
        let outcome = prepared
            .execute_with_sink(db, semantics, self.sink.as_ref())
            .map_err(|e| SessionError::Exec(format!("{header}: {e}")))?;
        // Terminal invention deserves its level report, not just the answer.
        if semantics == Semantics::TerminalInvention {
            match outcome.defined_at {
                Some(n) => {
                    lines.push(format!(
                        "{header}: defined at n = {n}, {} object{}",
                        outcome.result.len(),
                        plural(outcome.result.len())
                    ));
                    lines.extend(self.render_values(&outcome.result));
                }
                None => {
                    let tried = outcome.stats.invention_levels as usize;
                    lines.push(format!(
                        "{header}: undefined within bound (tried {tried} invention level{})",
                        plural(tried)
                    ));
                }
            }
            return Ok(lines);
        }
        let qualifier = if outcome.bounded_approximation {
            " (bounded approximation)"
        } else {
            ""
        };
        lines.push(format!(
            "{header}: {} object{}{qualifier}",
            outcome.result.len(),
            plural(outcome.result.len()),
        ));
        lines.extend(self.render_values(&outcome.result));
        Ok(lines)
    }

    /// A declared database: its contents and watched views.
    fn database_or_err(&self, name: &str) -> Result<&IncrementalDb, SessionError> {
        self.databases
            .get(name)
            .map(|(_, inc)| inc)
            .ok_or_else(|| SessionError::Exec(format!("unknown database `{name}`")))
    }

    /// `insert into DB.P {…};` / `delete from DB.P {…};` — mutate the
    /// database in place and refresh its watched views; `eval` and `show`
    /// on the database name read the same contents.
    fn mutate(
        &mut self,
        database: &str,
        pred: &str,
        values: Vec<Value>,
        inserting: bool,
    ) -> Result<Vec<String>, SessionError> {
        let verb = if inserting {
            "insert into"
        } else {
            "delete from"
        };
        let (_, inc) = self
            .databases
            .get_mut(database)
            .ok_or_else(|| SessionError::Exec(format!("unknown database `{database}`")))?;
        let outcome = if inserting {
            inc.insert(pred, values)
        } else {
            inc.delete(pred, values)
        }
        .map_err(|e| {
            let detail = match e {
                IncrementalError::TypeMismatch {
                    pred,
                    expected,
                    value,
                } => format!(
                    "value {} does not conform to {pred} : {expected}",
                    value.named(self.engine.universe())
                ),
                other => other.to_string(),
            };
            SessionError::Exec(format!("{verb} {database}.{pred}: {detail}"))
        })?;
        let changed = if inserting {
            format!("{} added", outcome.added)
        } else {
            format!("{} removed", outcome.removed)
        };
        let mut lines = vec![format!(
            "{verb} {database}.{pred}: {changed} (version {})",
            outcome.version
        )];
        lines.extend(outcome.refreshed.iter().map(render_refresh));
        if self.sink.is_enabled() {
            self.sink.record(outcome.to_span());
        }
        Ok(lines)
    }

    /// `explain analyze NAME on DB [with SEMANTICS];` — execute through the
    /// traced pipeline and print the span tree: the physical plan annotated
    /// with actual per-operator row counts and timings for planned algebra,
    /// per-quantifier-slot draw counts for compiled calculus, and one
    /// `Q|_n[d]` line per level under the invention semantics.
    fn explain_analyze(
        &mut self,
        name: &str,
        database: &str,
        semantics: Semantics,
    ) -> Result<Vec<String>, SessionError> {
        // An unknown database is reported before anything is prepared.
        self.database_or_err(database)?;
        let (mut lines, prepared) = self.ensure_prepared(name)?;
        let db = self.database_or_err(database)?.database();
        let header = format!("explain analyze {name} on {database} with {semantics}");
        let (outcome, span) = prepared
            .execute_traced(db, semantics)
            .map_err(|e| SessionError::Exec(format!("{header}: {e}")))?;
        let qualifier = if outcome.bounded_approximation {
            " (bounded approximation)"
        } else {
            ""
        };
        lines.push(format!(
            "{header}: {} object{}{qualifier}, {} µs",
            outcome.result.len(),
            plural(outcome.result.len()),
            outcome.stats.wall_micros,
        ));
        lines.extend(span.to_string().lines().map(|l| format!("  {l}")));
        if self.sink.is_enabled() {
            self.sink.record(span);
        }
        Ok(lines)
    }

    /// `watch NAME on DB [with SEMANTICS];` — register the query's prepared
    /// handle as a watched view of the database's incremental state.
    fn watch(
        &mut self,
        name: &str,
        database: &str,
        semantics: Semantics,
    ) -> Result<Vec<String>, SessionError> {
        let (mut lines, prepared) = self.ensure_prepared(name)?;
        let (_, inc) = self
            .databases
            .get_mut(database)
            .ok_or_else(|| SessionError::Exec(format!("unknown database `{database}`")))?;
        inc.watch(name, prepared, semantics);
        let view = inc.view(name).expect("watch registers the view");
        let header = format!("watch {name} on {database} with {semantics}");
        lines.push(match view.outcome() {
            Ok(answer) => format!(
                "{header}: {} answer{}, strategy {}",
                answer.len(),
                plural(answer.len()),
                view.strategy_name()
            ),
            Err(e) => format!("{header}: error stored ({e}), strategy re-execute"),
        });
        Ok(lines)
    }

    /// `unwatch NAME [on DB];` — drop a watched view from one database, or
    /// from every database when no `on` clause is given.
    fn unwatch(&mut self, name: &str, database: Option<&str>) -> Result<Vec<String>, SessionError> {
        let mut dropped = Vec::new();
        match database {
            Some(db) => {
                if let Some((_, inc)) = self.databases.get_mut(db) {
                    if inc.unwatch(name) {
                        dropped.push(db.to_string());
                    }
                }
            }
            None => {
                for (db, (_, inc)) in self.databases.iter_mut() {
                    if inc.unwatch(name) {
                        dropped.push(db.clone());
                    }
                }
            }
        }
        if dropped.is_empty() {
            return Err(SessionError::Exec(match database {
                Some(db) => format!("no watch named `{name}` on `{db}`"),
                None => format!("no watch named `{name}`"),
            }));
        }
        Ok(dropped
            .into_iter()
            .map(|db| format!("unwatch {name} on {db}"))
            .collect())
    }

    /// Re-register the given views on a database that was redeclared; a view
    /// whose query no longer prepares is dropped with a note.
    fn rewatch(
        &mut self,
        database: &str,
        watched: Vec<(String, Semantics)>,
        lines: &mut Vec<String>,
    ) {
        for (view_name, semantics) in watched {
            match self.watch(&view_name, database, semantics) {
                Ok(out) => lines.extend(out),
                Err(e) => lines.push(format!("watch {view_name} on {database} dropped: {e}")),
            }
        }
    }

    /// Re-register every watched view named `name` (after a query or algebra
    /// redefinition), so no view keeps serving answers of the old definition.
    fn rewatch_by_name(&mut self, name: &str, lines: &mut Vec<String>) {
        let affected: Vec<(String, Semantics)> = self
            .databases
            .iter()
            .filter_map(|(db, (_, inc))| inc.view(name).map(|v| (db.clone(), v.semantics())))
            .collect();
        for (db, semantics) in affected {
            self.rewatch(&db, vec![(name.to_string(), semantics)], lines);
        }
    }

    fn compile(&mut self, name: &str, target: Option<String>) -> Result<Vec<String>, SessionError> {
        let def = self.definition(name)?;
        let Statement::Algebra(expr) = def.statement() else {
            return Err(SessionError::Exec(format!(
                "`{name}` is a calculus query; the calculus → algebra direction of \
                 Theorem 3.8 is not implemented yet (only algebra → calculus is)"
            )));
        };
        let query = self
            .engine
            .compile_algebra(expr, self.schema_or_err(&def.schema)?)
            .map_err(|e| SessionError::Exec(format!("compile `{name}`: {e}")))?;
        let schema = def.schema.clone();
        let target = target.unwrap_or_else(|| format!("{name}_calc"));
        let lines = vec![
            format!("compiled {name} (algebra) → {target} (calculus), Theorem 3.8:"),
            format!("  {query}"),
        ];
        self.define(target, schema, Body::Query(Box::new(query)), None);
        Ok(lines)
    }

    /// `set deadline <millis>|off;` / `set memory <bytes>|off;` — adjust the
    /// engine's resource governor.  A handle's static half does not depend
    /// on the governor, so each cached handle is kept and re-budgeted with
    /// [`Prepared::with_governor`], which copies an `Arc`.  Watched views
    /// keep the configuration they were registered with — re-`watch` a view
    /// to govern its refreshes.
    fn set_limit(&mut self, knob: SetKnob, value: Option<u64>) -> String {
        let governor = self.engine.governor_mut();
        match knob {
            SetKnob::Deadline => governor.deadline_millis = value,
            SetKnob::Memory => governor.memory_ceiling = value,
        }
        for def in self.definitions.values_mut() {
            if let Body::Prepared(handle) = &mut def.body {
                *handle = handle.with_governor(self.engine.governor().clone());
            }
        }
        let what = match knob {
            SetKnob::Deadline => "deadline",
            SetKnob::Memory => "memory",
        };
        match (knob, value) {
            (SetKnob::Deadline, Some(millis)) => {
                format!("set {what}: {millis} ms per execution")
            }
            (SetKnob::Memory, Some(bytes)) => {
                format!("set {what}: {bytes} bytes interned per execution")
            }
            (_, None) => format!("set {what}: off"),
        }
    }

    // ----- rendering -----------------------------------------------------------

    /// One indented line per answer.  Each line is rendered into one reused
    /// buffer and copied out at its exact length: one allocation per line.
    fn render_values(&self, instance: &Instance) -> Vec<String> {
        if self.quiet {
            return Vec::new();
        }
        let universe = self.engine.universe();
        let mut line = String::new();
        instance
            .iter()
            .map(|v| {
                line.clear();
                let _ = write!(line, "  {}", v.named(universe));
                line.clone()
            })
            .collect()
    }

    fn render_instance(&self, instance: &Instance) -> String {
        let universe = self.engine.universe();
        let mut out = String::from("{");
        for (i, v) in instance.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}{}", v.named(universe));
        }
        out.push('}');
        out
    }
}

fn render_refresh(refresh: &ViewRefresh) -> String {
    let answers = match refresh.answers {
        Some(n) => format!("{n} answer{}", plural(n)),
        None => "error".to_string(),
    };
    format!("  watch {}: {answers} via {}", refresh.name, refresh.path)
}

fn render_schema(schema: &Schema) -> String {
    let entries: Vec<String> = schema.iter().map(|(n, t)| format!("{n} : {t}")).collect();
    format!("{{{}}}", entries.join(", "))
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn help_text() -> Vec<String> {
    [
        "statements (each ends with `;`):",
        "  schema NAME {P : TYPE, ...}          declare a database schema",
        "  database NAME : SCHEMA {P = {...}}   load a database instance",
        "  query NAME : SCHEMA {t/T | FORMULA}  define a calculus query",
        "  algebra NAME : SCHEMA EXPR           define an algebra expression",
        "  typecheck NAME                       re-check and print the typing",
        "  classify NAME                        minimal CALC_{k,i} / ALG_{k,i} class",
        "  check NAME                           static analysis: diagnostics with caret snippets",
        "  plan NAME                            print the plan or Datalog rules eval runs",
        "  eval NAME on DB [with SEMANTICS]     semantics: limited (default),",
        "    (`under` ≡ `with`)                 finite-invention (fi), terminal-invention (ti)",
        "  explain analyze NAME on DB [...]     execute + print the trace tree (actual rows, µs)",
        "  compile NAME [as NEW]                algebra → calculus (Theorem 3.8)",
        "  insert into DB.P {v, ...}            add tuples; watched views refresh",
        "  delete from DB.P {v, ...}            remove tuples; watched views refresh",
        "  watch NAME on DB [with SEMANTICS]    keep a query's answer warm under mutation",
        "  unwatch NAME [on DB]                 stop watching (everywhere without `on`)",
        "  set deadline MILLIS|off              wall-clock limit per execution",
        "  set memory BYTES|off                 interned-bytes ceiling per execution",
        "  show NAME | list | help | quit",
        "syntax: Unicode (∃x/[U, U] (PAR(x) ∧ x.1 ≈ t.1)) or ASCII",
        "        (exists x/[U, U] (PAR(x) and x.1 == t.1)); atoms: a7, 'Tom'",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(session: &mut Session, src: &str) -> Vec<String> {
        session.run_source(src).expect(src)
    }

    fn genealogy(session: &mut Session) {
        run(
            session,
            "schema Gen {PAR : [U, U]};\n\
             database d : Gen {PAR = {[Tom, Mary], [Mary, Sue]}};\n\
             query gp : Gen {t/[U, U] | ∃x/[U, U] ∃y/[U, U] \
             (PAR(x) ∧ PAR(y) ∧ x.2 ≈ y.1 ∧ t.1 ≈ x.1 ∧ t.2 ≈ y.2)};",
        );
    }

    #[test]
    fn names_never_take_the_id_of_a_raw_atom() {
        // A name interned after `a0` was read raw gets a fresh id.
        let mut s = Session::new();
        let out = run(
            &mut s,
            "schema G {R : U};\n\
             database d : G {R = {a0}};\n\
             insert into d.R {Tom};",
        );
        assert_eq!(out.last().unwrap(), "insert into d.R: 1 added (version 2)");
        let out = run(&mut s, "show d;");
        assert!(
            out.iter().any(|l| l.contains("a0") && l.contains("Tom")),
            "{out:?}"
        );
        // A constant `a0` never denotes a name declared after it.
        let mut s = Session::new();
        let out = run(
            &mut s,
            "schema G {R : U};\n\
             database d : G {R = {a0, a1}};\n\
             database e : G {R = {Tom}};\n\
             query q : G {t/U | R(t) and t == a0};\n\
             eval q on e;",
        );
        assert_eq!(out.last().unwrap(), "eval q on e with limited: 0 objects");
        // A raw atom read after a name holds its id still denotes that atom.
        let out = run(
            &mut s,
            "query first : G {t/U | R(t) and t == a2}; eval first on e;",
        );
        assert_eq!(
            out[out.len() - 2..],
            ["eval first on e with limited: 1 object", "  Tom"]
        );
    }

    #[test]
    fn terminal_invention_is_defined_at_one_whichever_ids_the_database_holds() {
        for top in ["a7", "a4294967295"] {
            let mut s = Session::new();
            let out = run(
                &mut s,
                &format!(
                    "schema G {{R : U}};\n\
                     database d : G {{R = {{a0, {top}}}}};\n\
                     query q : G {{t/U | not R(t)}};\n\
                     eval q on d with ti;"
                ),
            );
            assert_eq!(
                out.last().unwrap(),
                "eval q on d with terminal-invention: defined at n = 1, 0 objects",
                "R = {{a0, {top}}}"
            );
        }
    }

    #[test]
    fn eval_renders_named_atoms() {
        let mut s = Session::new();
        genealogy(&mut s);
        let out = run(&mut s, "eval gp on d;");
        assert_eq!(out[0], "eval gp on d with limited: 1 object");
        assert_eq!(out[1], "  [Tom, Sue]");
    }

    #[test]
    fn all_three_semantics_execute() {
        let mut s = Session::new();
        genealogy(&mut s);
        let out = run(
            &mut s,
            "eval gp on d with finite-invention;\neval gp on d with terminal-invention;",
        );
        assert!(out[0].starts_with("eval gp on d with finite-invention:"));
        assert!(out.iter().any(|l| l.contains("terminal-invention")));
    }

    #[test]
    fn algebra_compiles_to_equivalent_query() {
        let mut s = Session::new();
        genealogy(&mut s);
        let out = run(
            &mut s,
            "algebra ga : Gen π_{1,4}(σ_{$2 = $3}(PAR × PAR));\n\
             eval ga on d;\ncompile ga as gc;\neval gc on d;",
        );
        // Algebra answer and compiled-calculus answer agree.
        assert!(out.iter().any(|l| l == "eval ga on d: 1 object"));
        assert!(out
            .iter()
            .any(|l| l == "eval gc on d with limited: 1 object"));
        assert_eq!(out.iter().filter(|l| l.ends_with("[Tom, Sue]")).count(), 2);
    }

    #[test]
    fn classify_and_typecheck_report() {
        let mut s = Session::new();
        genealogy(&mut s);
        let out = run(&mut s, "classify gp; typecheck gp;");
        assert!(out[0].contains("CALC_{0,0}"));
        assert!(out.iter().any(|l| l.contains("✓")));
        let out = run(&mut s, "algebra pw : Gen 𝒫(PAR);\nclassify pw;");
        assert!(out
            .iter()
            .any(|l| l.contains("ALG_{1,0}") || l.contains("ALG_")));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut s = Session::new();
        genealogy(&mut s);
        for bad in [
            "eval nope on d;",
            "eval gp on nope;",
            "show nothing;",
            "classify d;",
            "compile gp;",
            "eval gp on d with naive;",
            "database b : Missing {X = {}};",
            "plan nope;",
        ] {
            assert!(s.run_source(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn plan_statement_prints_the_physical_plan() {
        let mut s = Session::new();
        genealogy(&mut s);
        let out = run(
            &mut s,
            "algebra ga : Gen π_{1,4}(σ_{$2 = $3}(PAR × PAR));\nplan ga;",
        );
        assert!(out.iter().any(|l| l.starts_with("plan ga:")), "{out:?}");
        assert!(
            out.iter()
                .any(|l| l.contains("hash-join [$2 = $1'] project π_{1,4}")),
            "{out:?}"
        );
        assert_eq!(
            out.iter().filter(|l| l.contains("scan PAR")).count(),
            2,
            "{out:?}"
        );
        // `plan` reuses (or creates) the cached prepared handle.
        assert!(s.prepared("ga").is_some());
        // The planned answer is what `eval` then executes.
        let out = run(&mut s, "eval ga on d;");
        assert!(out.iter().any(|l| l == "eval ga on d: 1 object"), "{out:?}");
        assert!(out.iter().any(|l| l.ends_with("[Tom, Sue]")), "{out:?}");
    }

    /// A calculus query outside the conjunctive fragment: the negated atom
    /// keeps it on the compiled slot evaluator.
    fn strict_grandparent(session: &mut Session) {
        run(
            session,
            "query strict : Gen {t/[U, U] | ∃x/[U, U] ∃y/[U, U] \
             (PAR(x) ∧ PAR(y) ∧ x.2 ≈ y.1 ∧ t.1 ≈ x.1 ∧ t.2 ≈ y.2) ∧ ¬PAR(t)};",
        );
    }

    #[test]
    fn plan_statement_covers_calculus_queries() {
        let mut s = Session::new();
        genealogy(&mut s);
        strict_grandparent(&mut s);
        // Grandparent is conjunctive: prepare planned it into the same join
        // as the algebra exemplar, and `eval` runs that plan.
        let out = run(&mut s, "plan gp;");
        assert!(
            out.iter().any(|l| l.starts_with("plan gp: {t/[U, U] |")),
            "{out:?}"
        );
        assert!(
            out.iter()
                .any(|l| l.contains("hash-join [$2 = $1'] project π_{1,4}")),
            "{out:?}"
        );
        assert_eq!(out.iter().filter(|l| l.contains("scan PAR")).count(), 2);
        let out = run(&mut s, "plan strict;");
        assert_eq!(
            out,
            ["plan strict: none — this calculus query runs the compiled slot evaluator"]
        );
        // The Example 3.1 closure lowers to its Datalog rules and a guard
        // (after the fresh prepare's two shadowing warnings).
        let tc = itq_core::queries::transitive_closure_query();
        run(&mut s, &format!("query tc : Gen {tc};"));
        let out = run(&mut s, "plan tc;");
        assert_eq!(
            out[2..],
            [
                "plan tc: least fixpoint of 2 rules, 1 guard",
                "  __view__(v0, v1) :- PAR(v0, v1)",
                "  __view__(v0, v3) :- __view__(v0, v1), __view__(v1, v3)",
            ]
        );
    }

    #[test]
    fn eval_caches_prepared_handles_per_name() {
        let mut s = Session::new();
        genealogy(&mut s);
        assert!(s.prepared("gp").is_none(), "nothing prepared before eval");
        run(&mut s, "eval gp on d;");
        assert!(s.prepared("gp").is_some(), "eval prepares and caches");
        // The handle survives further evals and carries the classification.
        run(&mut s, "eval gp on d with finite-invention;");
        let handle = s.prepared("gp").unwrap();
        assert_eq!(
            handle.classification().minimal_class,
            s.query("gp").unwrap().classification().minimal_class
        );
        // Redefining the query drops the stale handle.
        run(&mut s, "query gp : Gen {t/[U, U] | PAR(t)};");
        assert!(s.prepared("gp").is_none(), "redefinition invalidates");
        let out = run(&mut s, "eval gp on d;");
        assert_eq!(out[0], "eval gp on d with limited: 2 objects");
        // Touching the engine configuration drops every handle.
        s.engine_mut();
        assert!(s.prepared("gp").is_none());
    }

    #[test]
    fn mutation_refreshes_watched_views_and_eval_sees_new_data() {
        let mut s = Session::new();
        genealogy(&mut s);
        let out = run(&mut s, "watch gp on d;");
        assert_eq!(
            out[0],
            "watch gp on d with limited: 1 answer, strategy re-execute"
        );
        // An insert refreshes the view and updates what `eval` sees.
        let out = run(&mut s, "insert into d.PAR {[Sue, Ann]};");
        assert_eq!(out[0], "insert into d.PAR: 1 added (version 2)");
        assert_eq!(out[1], "  watch gp: 2 answers via re-executed");
        let out = run(&mut s, "eval gp on d;");
        assert_eq!(out[0], "eval gp on d with limited: 2 objects");
        // The watched answer matches a from-scratch eval after a delete too.
        let out = run(&mut s, "delete from d.PAR [Tom, Mary];");
        assert_eq!(out[0], "delete from d.PAR: 1 removed (version 3)");
        assert!(out[1].contains("1 answer"), "{out:?}");
        let out = run(&mut s, "eval gp on d; show d; list;");
        assert_eq!(out[0], "eval gp on d with limited: 1 object");
        assert!(out.iter().any(|l| l.contains("[Sue, Ann]")), "{out:?}");
        assert!(out.iter().any(|l| l == "watches: gp on d"), "{out:?}");
        // Unwatch drops the view; a second unwatch reports the absence.
        let out = run(&mut s, "unwatch gp;");
        assert_eq!(out[0], "unwatch gp on d");
        assert!(s.run_source("unwatch gp;").is_err());
    }

    #[test]
    fn mutation_errors_are_reported_not_panicked() {
        let mut s = Session::new();
        genealogy(&mut s);
        for bad in [
            "insert into nope.PAR {[Tom, Mary]};",
            "insert into d.NOPE {[Tom, Mary]};",
            "insert into d.PAR {Tom};",
            "delete from d.PAR {{Tom}};",
            "watch gp on nope;",
            "watch nope on d;",
            "unwatch gp on d;",
        ] {
            assert!(s.run_source(bad).is_err(), "`{bad}` should fail");
        }
        // Failed mutations leave the database untouched.
        let out = run(&mut s, "eval gp on d;");
        assert_eq!(out[0], "eval gp on d with limited: 1 object");
    }

    #[test]
    fn redefinitions_rewatch_affected_views() {
        let mut s = Session::new();
        genealogy(&mut s);
        run(&mut s, "watch gp on d;");
        // Redefining the watched query re-registers the view over the new
        // definition (PAR(t) has 2 answers, the grandparent join had 1).
        let out = run(&mut s, "query gp : Gen {t/[U, U] | PAR(t)};");
        assert!(
            out.iter()
                .any(|l| l == "watch gp on d with limited: 2 answers, strategy re-execute"),
            "{out:?}"
        );
        // Redefining the database restarts its incremental state and
        // re-watches the view against the new contents.
        let out = run(&mut s, "database d : Gen {PAR = {[Tom, Mary]}};");
        assert!(
            out.iter()
                .any(|l| l == "watch gp on d with limited: 1 answer, strategy re-execute"),
            "{out:?}"
        );
        let out = run(&mut s, "insert into d.PAR {[Mary, Sue]};");
        assert!(out.iter().any(|l| l.contains("2 answers")), "{out:?}");
    }

    #[test]
    fn mutation_type_errors_name_atoms_as_written() {
        let mut s = Session::new();
        genealogy(&mut s);
        let err = s.run_source("insert into d.PAR {Tom};").unwrap_err();
        assert_eq!(
            err.to_string(),
            "error: insert into d.PAR: value Tom does not conform to PAR : [U, U]"
        );
    }

    #[test]
    fn a_database_keeps_the_schema_it_was_declared_against() {
        // Redefining the schema after the declaration, with or without a
        // mutation in between: inserts still validate against the binary
        // `PAR` the database was declared with.
        for mutate_first in [false, true] {
            let mut s = Session::new();
            run(
                &mut s,
                "schema Gen {PAR : [U, U]};\n\
                 database d2 : Gen {PAR = {[Tom, Mary]}};",
            );
            if mutate_first {
                run(&mut s, "insert into d2.PAR {[Mary, Ann]};");
            }
            run(&mut s, "schema Gen {PAR : [U, U, U]};");
            let out = run(&mut s, "insert into d2.PAR {[Mary, Sue]};");
            assert!(out[0].starts_with("insert into d2.PAR: 1 added"), "{out:?}");
            let err = s.run_source("insert into d2.PAR {[Mary, Sue, Tom]};");
            assert!(err.is_err(), "mutate_first = {mutate_first}");
        }
    }

    #[test]
    fn a_least_fixpoint_view_reexecutes_inserts_ill_typed_for_its_query() {
        // `d` keeps `Q : U` while the closure reads `Q` as pairs.  Watched
        // while `Q` is empty, the view holds the route's least model; an atom
        // inserted into `d.Q` is ill-typed for the query, so the refresh
        // re-executes (the enumeration never matches it) instead of reading
        // it positionally into the model.
        let mut s = Session::new();
        run(
            &mut s,
            "schema S {Q : U};\ndatabase d : S {Q = {}};\nschema S {Q : [U, U]};\n\
             query c : S {t/[U, U] | forall x/{[U, U]} \
             ((forall y/[U, U] (Q(y) -> y in x)) -> t in x)};",
        );
        let out = run(&mut s, "watch c on d;");
        assert_eq!(
            out[0],
            "watch c on d with limited: 0 answers, strategy least-fixpoint"
        );
        let out = run(&mut s, "insert into d.Q {c};");
        assert_eq!(out[1], "  watch c: 0 answers via re-executed");
        let out = run(&mut s, "eval c on d;");
        assert_eq!(out[0], "eval c on d with limited: 0 objects");
    }

    #[test]
    fn redefining_a_schema_invalidates_prepared_algebra_handles() {
        // An algebra handle planned against the old schema must not survive a
        // schema redefinition: the stale plan would silently type the
        // predicate at its old arity.
        let mut s = Session::with_engine(Engine::builder().max_invented(1).build());
        run(
            &mut s,
            "schema Gen {PAR : [U, U]};\nalgebra ga : Gen PAR ∪ PAR;\n\
             database d2 : Gen {PAR = {[Tom, Mary]}};\neval ga on d2;",
        );
        assert!(s.prepared("ga").is_some());
        run(
            &mut s,
            "schema Gen {PAR : [U, U, U]};\n\
             database d3 : Gen {PAR = {[Tom, Mary, Sue]}};",
        );
        assert!(
            s.prepared("ga").is_none(),
            "schema redefinition must drop the handle"
        );
        // Re-preparing against the new schema keeps limited and invention
        // semantics in agreement (Theorem 6.11) on the ternary database.
        let out = run(&mut s, "eval ga on d3;\neval ga on d3 under fi;");
        assert!(out.iter().any(|l| l == "eval ga on d3: 1 object"));
        assert!(out
            .iter()
            .any(|l| l == "eval ga on d3 with finite-invention: 1 object"));
        // Database mutation must flow through the same cache correctly: the
        // still-cached handle serves the mutated contents, not a stale copy.
        assert!(s.prepared("ga").is_some());
        run(&mut s, "insert into d3.PAR {[Sue, Tom, Mary]};");
        let out = run(&mut s, "eval ga on d3;");
        assert!(
            out.iter().any(|l| l == "eval ga on d3: 2 objects"),
            "{out:?}"
        );
        run(
            &mut s,
            "delete from d3.PAR {[Tom, Mary, Sue], [Sue, Tom, Mary]};",
        );
        let out = run(&mut s, "eval ga on d3;");
        assert!(
            out.iter().any(|l| l == "eval ga on d3: 0 objects"),
            "{out:?}"
        );
    }

    #[test]
    fn under_clause_and_short_aliases_reach_the_engine() {
        let mut s = Session::new();
        genealogy(&mut s);
        let out = run(&mut s, "eval gp on d under fi;\neval gp on d under TI;");
        assert!(out[0].starts_with("eval gp on d with finite-invention:"));
        assert!(out.iter().any(|l| l.contains("terminal-invention")));
    }

    #[test]
    fn algebra_expressions_answer_invention_from_one_run() {
        // The Section 6 semantics apply to algebra names directly: one run of
        // the prepared plan answers every invention level.
        let mut s = Session::with_engine(Engine::builder().max_invented(1).build());
        genealogy(&mut s);
        let out = run(
            &mut s,
            "algebra gu : Gen PAR ∪ PAR;\neval gu on d;\neval gu on d under fi;",
        );
        assert!(out.iter().any(|l| l == "eval gu on d: 2 objects"));
        assert!(out
            .iter()
            .any(|l| l == "eval gu on d with finite-invention: 2 objects"));
        assert_eq!(out.iter().filter(|l| l.ends_with("[Tom, Mary]")).count(), 2);
    }

    #[test]
    fn explain_analyze_renders_annotated_trees_for_every_backend() {
        // Sequential pin: the `quantifier slot` lines below belong to the
        // sequential compiled span tree, which an `ITQ_PARALLELISM` override
        // would replace with partition spans.
        let mut s = Session::with_engine(Engine::builder().parallelism(1).max_invented(1).build());
        genealogy(&mut s);
        // Planned algebra: the physical plan with actual per-operator rows.
        let out = run(
            &mut s,
            "algebra ga : Gen π_{1,4}(σ_{$2 = $3}(PAR × PAR));\nexplain analyze ga on d;",
        );
        assert!(
            out.iter()
                .any(|l| l.starts_with("explain analyze ga on d with limited: 1 object")),
            "{out:?}"
        );
        assert!(out.iter().any(|l| l.contains("planned-algebra")), "{out:?}");
        let join = out
            .iter()
            .find(|l| l.contains("hash-join"))
            .expect("an annotated join operator line");
        for needle in ["rows_in", "rows_out", "join_probes", "µs"] {
            assert!(join.contains(needle), "missing {needle} in {join}");
        }
        assert_eq!(out.iter().filter(|l| l.contains("scan PAR")).count(), 2);

        // Planned calculus: the conjunctive query's join, annotated alike.
        let out = run(&mut s, "explain analyze gp on d;");
        assert!(
            out.iter().any(|l| l.contains("planned-calculus")),
            "{out:?}"
        );
        assert!(out.iter().any(|l| l.contains("hash-join")), "{out:?}");

        // Compiled calculus: per-quantifier-slot draw counts.
        strict_grandparent(&mut s);
        let out = run(&mut s, "explain analyze strict on d;");
        assert!(out.iter().any(|l| l.contains("compiled-eval")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("quantifier slot")), "{out:?}");

        // Invention semantics: one line per Q|_n[d] level.
        let out = run(&mut s, "explain analyze gp on d under fi;");
        assert!(
            out.iter().any(|l| l.contains("finite-invention")),
            "{out:?}"
        );
        assert!(out.iter().any(|l| l.contains("Q|_0[d]")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("Q|_1[d]")), "{out:?}");

        assert!(s.run_source("explain analyze nope on d;").is_err());
        assert!(s.run_source("explain analyze gp on nope;").is_err());
    }

    #[test]
    fn trace_sink_collects_eval_and_epoch_spans() {
        use std::sync::Arc;
        let mut s = Session::new();
        genealogy(&mut s);
        strict_grandparent(&mut s);
        // With the default NoopSink nothing is recorded and eval output is
        // unchanged.
        let plain = run(&mut s, "eval strict on d;");
        let sink = Arc::new(itq_trace::CollectingSink::new());
        s.set_trace_sink(Box::new(Arc::clone(&sink)));
        let traced = run(&mut s, "eval strict on d;");
        assert_eq!(plain, traced, "tracing must not change output");
        let spans = sink.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "compiled-eval");
        // Mutations record their epoch span.
        run(&mut s, "watch gp on d;\ninsert into d.PAR {[Sue, Ann]};");
        let spans = sink.take();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].name.starts_with("epoch v"), "{}", spans[0].name);
        assert!(spans[0].children[0].name.starts_with("view gp:"));
    }

    #[test]
    fn quiet_mode_suppresses_answer_lines_only() {
        let mut s = Session::new();
        genealogy(&mut s);
        s.set_quiet(true);
        let out = run(&mut s, "eval gp on d;");
        assert_eq!(out, vec!["eval gp on d with limited: 1 object"]);
        s.set_quiet(false);
        let out = run(&mut s, "eval gp on d;");
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], "  [Tom, Sue]");
    }

    #[test]
    fn set_statements_govern_later_evals() {
        let mut s = Session::new();
        genealogy(&mut s);
        run(&mut s, "eval gp on d;");
        // Arming a zero deadline trips the very next execution with the
        // engine's canonical message; the cached handle is kept, re-budgeted.
        let out = run(&mut s, "set deadline 0;");
        assert_eq!(out, vec!["set deadline: 0 ms per execution"]);
        let handle = s.prepared("gp").expect("set keeps cached handles");
        assert_eq!(handle.governor().deadline_millis, Some(0));
        let err = s.run_source("eval gp on d;").unwrap_err();
        assert!(
            err.to_string()
                .contains("execution deadline of 0 ms exceeded"),
            "{err}"
        );
        // Disarming restores normal execution, byte-identically.
        let out = run(&mut s, "set deadline off;\neval gp on d;");
        assert_eq!(out[0], "set deadline: off");
        assert_eq!(out[1], "eval gp on d with limited: 1 object");
        // The memory knob reaches the interning backends the same way.
        let out = run(&mut s, "set memory 1;");
        assert_eq!(out, vec!["set memory: 1 bytes interned per execution"]);
        let err = s.run_source("eval gp on d;").unwrap_err();
        assert!(
            err.to_string().contains("memory ceiling of 1 bytes"),
            "{err}"
        );
        run(&mut s, "set memory off;");
        let out = run(&mut s, "eval gp on d;");
        assert_eq!(out[0], "eval gp on d with limited: 1 object");
    }

    #[test]
    fn plan_cache_evicts_the_least_recently_used_plan() {
        let cache = PlanCache::new();
        let mut s = Session::new();
        s.set_shared_plans(cache.clone());
        genealogy(&mut s);
        // Each constant is a distinct statement.  Every declaration takes a
        // fresh name, so each `eval` consults the shared cache; it returns
        // the answer lines.
        let mut declared = 0;
        let mut children_of = |s: &mut Session, parent: &str| {
            declared += 1;
            let name = format!("e{declared}");
            let out = run(
                s,
                &format!(
                    "algebra {name} : Gen π_{{2}}(σ_{{$1 = \"{parent}\"}}(PAR));\neval {name} on d;"
                ),
            );
            out[2..].to_vec()
        };
        let of_tom = children_of(&mut s, "Tom");
        assert_eq!(of_tom, ["  [Mary]"]);
        let of_mary = children_of(&mut s, "Mary");
        assert_eq!(of_mary, ["  [Sue]"]);
        for i in 2..PLAN_CACHE_CAPACITY {
            children_of(&mut s, &format!("c{i}"));
        }
        let capacity = PLAN_CACHE_CAPACITY as u64;
        assert_eq!(cache.len(), PLAN_CACHE_CAPACITY);
        assert_eq!((cache.hits(), cache.misses()), (0, capacity));
        // A hit refreshes Tom's plan, so one more plan evicts Mary's, now the
        // least recently used.
        assert_eq!(children_of(&mut s, "Tom"), of_tom);
        children_of(&mut s, "Ann");
        assert_eq!(cache.len(), PLAN_CACHE_CAPACITY);
        assert_eq!(children_of(&mut s, "Tom"), of_tom);
        assert_eq!((cache.hits(), cache.misses()), (2, capacity + 1));
        // The evicted statement misses and re-prepares to the same answers.
        assert_eq!(children_of(&mut s, "Mary"), of_mary);
        assert_eq!((cache.hits(), cache.misses()), (2, capacity + 2));
        assert_eq!(cache.len(), PLAN_CACHE_CAPACITY);
    }

    #[test]
    fn quit_stops_a_script() {
        let mut s = Session::new();
        let out = run(&mut s, "help; quit; list;");
        assert!(out.iter().any(|l| l == "bye"));
        // `list` after `quit` is not executed.
        assert!(!out.iter().any(|l| l.contains("nothing declared")));
    }

    #[test]
    fn show_and_list_cover_all_kinds() {
        let mut s = Session::new();
        genealogy(&mut s);
        let out = run(&mut s, "show Gen; show d; show gp; list;");
        assert!(out[0].starts_with("schema Gen"));
        assert!(out.iter().any(|l| l.contains("[Tom, Mary]")));
        assert!(out.iter().any(|l| l.starts_with("query gp")));
        assert!(out.iter().any(|l| l.starts_with("schemas: Gen")));
    }

    #[test]
    fn check_renders_carets_from_the_declaring_statement() {
        let mut s = Session::new();
        run(
            &mut s,
            "schema Demo {R : [U, U]};\n\
             query hygiene : Demo\n  {t/[U, U] | ∃z/[U, U] (R(t) ∧ t.1 ≈ 'Tom')}; \
             algebra void : Demo\n  R diff R;\n\
             compile void as void_calc;\n\
             schema Demo {R : U};",
        );
        // The query keeps the schema it was declared with, the algebra is
        // analysed against the redeclared one, and a compiled query has no
        // statement text to point into.
        let out = run(&mut s, "check hygiene; check void; check void_calc;");
        let expected = [
            "check hygiene: 1 warning, 1 info",
            "  warning[ITQ0101]: quantified variable `z` is never used",
            "     --> 2:15",
            "      |",
            "    2 |   {t/[U, U] | ∃z/[U, U] (R(t) ∧ t.1 ≈ 'Tom')}",
            "      |               ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^",
            "  info[ITQ0401]: query is in CALC_{0,0} (k from input/output types, i from intermediates)",
            "     --> 2:15",
            "      |",
            "    2 |   {t/[U, U] | ∃z/[U, U] (R(t) ∧ t.1 ≈ 'Tom')}",
            "      |               ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^",
            "check void: 1 warning, 1 info",
            "  warning[ITQ0206]: difference of an expression with itself is always empty",
            "     --> 2:3",
            "      |",
            "    2 |   R diff R",
            "      |   ^^^^^^^^",
            "  info[ITQ0401]: expression is in ALG_{0,0} with output type U",
            "     --> 2:3",
            "      |",
            "    2 |   R diff R",
            "      |   ^^^^^^^^",
            "check void_calc: 1 info",
            "  info[ITQ0401]: query is in CALC_{0,0} (k from input/output types, i from intermediates)",
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn a_prepared_name_reads_back_the_statement_it_was_declared_with() {
        let mut s = Session::new();
        genealogy(&mut s);
        run(
            &mut s,
            "algebra ga : Gen pi_{1,4}(sigma_{$2 = $3}(PAR * PAR));",
        );
        let reads = "show gp; show ga; classify gp; classify ga; typecheck gp; \
                     typecheck ga; check gp; check ga; list;";
        let declared = run(&mut s, reads);
        run(&mut s, "eval gp on d; eval ga on d;");
        assert!(s.prepared("gp").is_some() && s.prepared("ga").is_some());
        assert_eq!(run(&mut s, reads), declared, "read from the handles");
        s.engine_mut();
        assert!(s.prepared("gp").is_none() && s.prepared("ga").is_none());
        assert_eq!(
            run(&mut s, reads),
            declared,
            "taken back out of the handles"
        );
        assert_eq!(
            run(&mut s, "compile ga as gc; eval gc on d;")[3],
            "  [Tom, Sue]"
        );
    }

    #[test]
    fn a_name_is_bound_to_its_latest_declaration() {
        let mut s = Session::new();
        genealogy(&mut s);
        run(&mut s, "eval gp on d;");
        let out = run(
            &mut s,
            "algebra gp : Gen pi_{2}(PAR); show gp; list; eval gp on d;",
        );
        assert_eq!(out[1..3], ["algebra gp : Gen", "  π_{2}(PAR)"]);
        assert!(out.contains(&"algebras: gp".to_string()), "{out:?}");
        assert!(!out.iter().any(|l| l.starts_with("queries:")), "{out:?}");
        assert!(
            out.contains(&"eval gp on d: 2 objects".to_string()),
            "{out:?}"
        );
        assert!(s.query("gp").is_none());
    }
}
