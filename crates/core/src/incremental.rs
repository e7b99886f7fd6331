//! A mutable, versioned database with watched queries — the
//! serving-oriented incremental engine of the ROADMAP.
//!
//! [`IncrementalDb`] holds one plain [`Database`], every schema predicate
//! present, and mutates it in place: each [`IncrementalDb::insert`] /
//! [`IncrementalDb::delete`] call validates its whole batch, applies it,
//! commits one epoch and bumps the version.  Watched views execute against
//! that same database ([`IncrementalDb::database`]), so refreshing one never
//! copies it.
//!
//! Watched queries ([`IncrementalDb::watch`]) keep their [`Prepared`] handle
//! warm and refresh after every commit.  The refresh strategy is chosen once,
//! at watch time:
//!
//! * a least-fixpoint query whose handle took the route prepare lowered it to
//!   (the Example 3.1 closure among them; see
//!   [`Prepared::least_fixpoint`]) keeps the route's least model warm.  An
//!   insertion into a relation it reads extends the model semi-naively
//!   ([`itq_relational::Program::evaluate_delta`]) and checks the guards on
//!   the new elements only, which is sound because both the rules and the
//!   positive-existential guards are monotone under insertion.  A deletion
//!   that touches the view's support or changes the active domain, a guard
//!   that fails and a delta refresh that trips all re-execute the handle,
//!   through the route.  So does an inserted value of another type than the
//!   query's schema declares (a database keeps the schema it was declared
//!   against): the delta never reads it, and the re-execution stores the
//!   refusal a from-scratch execution gives;
//! * everything else re-executes its `Prepared` handle, guarded so that views
//!   whose input relations (and active domain) did not change are skipped.
//!   A conjunctive view's limited interpretation re-executes through the
//!   physical plan prepare built for it (`planned-calculus` or
//!   `planned-algebra`), so its refresh is a few hash joins.
//!
//! ## Resource governance and transactionality
//!
//! Mutations are transactional: a rejected [`IncrementalDb::insert`] /
//! [`IncrementalDb::delete`] (unknown relation, ill-typed value anywhere in
//! the batch) touches nothing, so the version and every relation's contents
//! are exactly as before the call.  Every refresh runs under the view's own
//! resource governor (see [`crate::engine::GovernorConfig`]): a delta refresh
//! polls it once per semi-naive round and through the guard check, exactly as
//! the route does from scratch.  A refresh stopped by the governor (or a
//! contained panic) keeps the view's last-good answer, marked
//! [`WatchedView::is_stale`], instead of discarding it; a query error, a
//! refusal of a relation of another type among them, is stored, as a
//! from-scratch execution reports it.

use crate::engine::{EngineError, Semantics};
use crate::pipeline::{ExecStats, Prepared};
use itq_object::{conform, Database, Instance, Nonconforming, Schema, Value};
use itq_trace::Span;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Errors raised by mutations on an [`IncrementalDb`].
#[derive(Debug, Clone, PartialEq)]
pub enum IncrementalError {
    /// The mutated relation is not declared by the schema.
    UnknownRelation {
        /// The missing predicate name.
        pred: String,
    },
    /// A mutated value, or a seed relation's, does not conform to the
    /// relation's declared type.
    Nonconforming(Nonconforming),
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::UnknownRelation { pred } => write!(f, "unknown relation {pred}"),
            IncrementalError::Nonconforming(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IncrementalError {}

/// How a watched view was brought up to date after one mutation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshPath {
    /// The mutation could not affect the view (unchanged support relations
    /// and, for re-executing views, unchanged active domain).
    SkippedUnchangedSupport,
    /// The warm least model was extended semi-naively from the delta.
    DeltaSeminaive,
    /// The `Prepared` handle re-executed from scratch.
    Reexecuted,
}

impl fmt::Display for RefreshPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RefreshPath::SkippedUnchangedSupport => "skipped (support unchanged)",
            RefreshPath::DeltaSeminaive => "delta (semi-naive fixpoint)",
            RefreshPath::Reexecuted => "re-executed",
        };
        f.write_str(s)
    }
}

/// One view's refresh report for one mutation epoch.
#[derive(Debug, Clone)]
pub struct ViewRefresh {
    /// The view's name.
    pub name: String,
    /// The refresh path taken.
    pub path: RefreshPath,
    /// Semi-naive rounds run by a delta path (0 elsewhere).
    pub rounds: u64,
    /// The refreshed answer size, when the view holds an answer.
    pub answers: Option<usize>,
    /// Wall-clock cost of bringing this view up to date, in microseconds
    /// (a skipped view costs only its guard check).
    pub wall_micros: u64,
}

/// The result of one committed mutation epoch.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// The mutated predicate.
    pub pred: String,
    /// Tuples actually added (not already present).
    pub added: usize,
    /// Tuples actually removed (present before).
    pub removed: usize,
    /// The database version after the commit.
    pub version: u64,
    /// Per-view refresh reports, in view-name order.
    pub refreshed: Vec<ViewRefresh>,
}

impl MutationOutcome {
    /// Render the committed epoch as a trace [`Span`]: an `epoch v<version>`
    /// root carrying the delta sizes, with one child per watched view naming
    /// the refresh path taken and its cost.
    ///
    /// ```
    /// use itq_core::prelude::*;
    /// use itq_core::queries;
    ///
    /// let schema = queries::parent_schema();
    /// let db = queries::parent_database(&[(Atom(0), Atom(1))]);
    /// let mut inc = IncrementalDb::new(schema, &db).unwrap();
    /// let prepared = Engine::new().prepare(&queries::transitive_closure_query()).unwrap();
    /// inc.watch("tc", prepared, Semantics::Limited);
    /// let outcome = inc.insert("PAR", vec![Value::pair(Atom(1), Atom(2))]).unwrap();
    /// let span = outcome.to_span();
    /// assert_eq!(span.name, "epoch v2");
    /// assert_eq!(span.field("added"), Some(1));
    /// assert_eq!(span.children[0].name, "view tc: delta (semi-naive fixpoint)");
    /// ```
    pub fn to_span(&self) -> Span {
        let mut root = Span::new(format!("epoch v{}", self.version));
        root.push_field("added", self.added as u64);
        root.push_field("removed", self.removed as u64);
        for refresh in &self.refreshed {
            let mut child = Span::new(format!("view {}: {}", refresh.name, refresh.path));
            child.push_field("rounds", refresh.rounds);
            if let Some(answers) = refresh.answers {
                child.push_field("answers", answers as u64);
            }
            child.wall_micros = refresh.wall_micros;
            root.wall_micros += refresh.wall_micros;
            root.push_child(child);
        }
        root
    }
}

/// The maintenance strategy chosen for a watched view at watch time.
#[derive(Debug, Clone)]
enum RefreshStrategy {
    /// The handle's least-fixpoint route.  `warm` is true while the view's
    /// answer is the route's least model, which insertions extend; a failed
    /// guard or a failed refresh clears it, and the next refresh re-executes.
    LeastFixpoint { warm: bool },
    /// Re-execute the `Prepared` handle (with the changed-support guard).
    Reexecute,
}

/// A registered query: a warm [`Prepared`] handle, its chosen refresh
/// strategy, and the current answer (or error) under that strategy.
#[derive(Debug, Clone)]
pub struct WatchedView {
    prepared: Prepared,
    semantics: Semantics,
    strategy: RefreshStrategy,
    outcome: Result<Instance, EngineError>,
    support: BTreeSet<String>,
    /// True when the most recent refresh failed (deadline, cancellation,
    /// memory ceiling, budget, or a contained panic) while an earlier answer
    /// was still held: [`WatchedView::outcome`] then serves that last-good
    /// answer, and the flag says it may be behind the current version.  A
    /// successful refresh clears it.
    stale: bool,
    /// Cost of the most recent execution or refresh of this view.  Delta and
    /// skipped refreshes stamp only `wall_micros`; a re-executed view carries
    /// the full counters.
    stats: ExecStats,
}

impl WatchedView {
    /// The warm prepared handle.
    pub fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    /// The semantics the view is watched under.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// The current answer (or execution error) of the view.  When
    /// [`WatchedView::is_stale`] is true this is the last-good answer from
    /// before the failed refresh, not the answer at the current version.
    pub fn outcome(&self) -> &Result<Instance, EngineError> {
        &self.outcome
    }

    /// True when the most recent refresh failed and the view is serving its
    /// last-good answer (which may be behind the current database version).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The relations the view reads.
    pub fn support(&self) -> &BTreeSet<String> {
        &self.support
    }

    /// Execution statistics of the most recent refresh: full counters after a
    /// re-execution, just the measured `wall_micros` after a delta or skipped
    /// refresh.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// A short label for the chosen maintenance strategy.
    pub fn strategy_name(&self) -> &'static str {
        match self.strategy {
            RefreshStrategy::LeastFixpoint { .. } => "least-fixpoint",
            RefreshStrategy::Reexecute => "re-execute",
        }
    }
}

/// A mutable, versioned database with watched queries.
#[derive(Debug, Clone)]
pub struct IncrementalDb {
    schema: Schema,
    /// The current contents; every schema predicate has a relation.
    db: Database,
    version: u64,
    views: BTreeMap<String, WatchedView>,
}

impl IncrementalDb {
    /// Build an incremental database over `schema`, seeded from `db` (a
    /// predicate the seed omits starts empty; version starts at 1).
    pub fn new(schema: Schema, db: &Database) -> Result<IncrementalDb, IncrementalError> {
        for (name, instance) in db.iter() {
            check_batch(&schema, name, instance.iter())?;
        }
        let mut db = db.clone();
        for (name, _) in schema.iter() {
            db.relation_mut(name);
        }
        Ok(IncrementalDb {
            schema,
            db,
            version: 1,
            views: BTreeMap::new(),
        })
    }

    /// The schema the database conforms to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The current version (bumped by every committed mutation epoch).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The number of tuples currently in `pred`, if declared.
    pub fn relation_len(&self, pred: &str) -> Option<usize> {
        self.db.relation(pred).map(Instance::len)
    }

    /// The current state, with every schema predicate present.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// A copy of the current state as a plain [`Database`].
    pub fn snapshot(&self) -> Database {
        self.db.clone()
    }

    /// Insert `values` into `pred`, commit the epoch, and refresh every
    /// watched view.
    pub fn insert(
        &mut self,
        pred: &str,
        values: Vec<Value>,
    ) -> Result<MutationOutcome, IncrementalError> {
        check_batch(&self.schema, pred, &values)?;
        Ok(self.commit_epoch(pred, |relation| {
            let added = values
                .into_iter()
                .filter(|v| relation.insert(v.clone()))
                .collect();
            (added, 0)
        }))
    }

    /// Delete `values` from `pred`, commit the epoch, and refresh every
    /// watched view.  Deleting an absent tuple is a no-op counted as 0.
    pub fn delete(
        &mut self,
        pred: &str,
        values: Vec<Value>,
    ) -> Result<MutationOutcome, IncrementalError> {
        check_batch(&self.schema, pred, &values)?;
        Ok(self.commit_epoch(pred, |relation| {
            (
                Vec::new(),
                values.iter().filter(|v| relation.remove(v)).count(),
            )
        }))
    }

    /// Apply a validated mutation to `pred` (`apply` returns the values
    /// actually added and the number actually removed), bump the version,
    /// and refresh every watched view.  Only a view that does not read
    /// `pred` asks whether the active domain changed, so the domain is
    /// scanned, before and after, only when such a view is watched.
    fn commit_epoch(
        &mut self,
        pred: &str,
        apply: impl FnOnce(&mut Instance) -> (Vec<Value>, usize),
    ) -> MutationOutcome {
        let adom_before = self
            .views
            .values()
            .any(|view| !view.support.contains(pred))
            .then(|| self.db.active_domain());
        let (added, removed) = apply(self.db.relation_mut(pred));
        self.version += 1;
        let adom_changed = adom_before.is_some_and(|before| before != self.db.active_domain());
        let refreshed = self.refresh_views(pred, &added, removed, adom_changed);
        MutationOutcome {
            pred: pred.to_string(),
            added: added.len(),
            removed,
            version: self.version,
            refreshed,
        }
    }

    /// Register (or replace) a watched view: execute it once in full, choose
    /// a maintenance strategy, and keep it warm.  Returns the initial
    /// refresh report.
    pub fn watch(&mut self, name: &str, prepared: Prepared, semantics: Semantics) -> ViewRefresh {
        let (result, stats) = prepared.try_execute(&self.db, semantics);
        let warm = matches!(&result, Ok(outcome) if outcome.least_model);
        let outcome = result.map(|outcome| outcome.result);
        let support = prepared.query().body().predicates();
        // Only a limited view keeps the route's least model warm; an
        // invention view re-executes its handle.
        let strategy = match (semantics, prepared.fixpoint_route()) {
            (Semantics::Limited, Some(_)) => RefreshStrategy::LeastFixpoint { warm },
            _ => RefreshStrategy::Reexecute,
        };
        let report = ViewRefresh {
            name: name.to_string(),
            path: RefreshPath::Reexecuted,
            rounds: 0,
            answers: outcome.as_ref().ok().map(Instance::len),
            wall_micros: stats.wall_micros,
        };
        self.views.insert(
            name.to_string(),
            WatchedView {
                prepared,
                semantics,
                strategy,
                outcome,
                support,
                stale: false,
                stats,
            },
        );
        report
    }

    /// Stop watching `name`; returns whether it was watched.
    pub fn unwatch(&mut self, name: &str) -> bool {
        self.views.remove(name).is_some()
    }

    /// The view registered under `name`, if any.
    pub fn view(&self, name: &str) -> Option<&WatchedView> {
        self.views.get(name)
    }

    /// All registered views, in name order.
    pub fn views(&self) -> impl Iterator<Item = (&str, &WatchedView)> {
        self.views.iter().map(|(name, view)| (name.as_str(), view))
    }

    /// Refresh every watched view after a committed epoch on `pred`.
    fn refresh_views(
        &mut self,
        pred: &str,
        added: &[Value],
        removed: usize,
        adom_changed: bool,
    ) -> Vec<ViewRefresh> {
        let mut views = std::mem::take(&mut self.views);
        let mut reports = Vec::with_capacity(views.len());
        for (name, view) in views.iter_mut() {
            let touched = view.support.contains(pred);
            let refresh_start = Instant::now();
            // Full counters when the refresh actually re-executes; the delta
            // and skip paths stamp only the measured wall time below.
            let mut exec_stats: Option<ExecStats> = None;
            let (path, rounds) = match view.strategy {
                // The least model and the positive guards only grow under
                // insertion, so an untouched support set means an unchanged
                // answer even if the active domain moved.
                RefreshStrategy::LeastFixpoint { warm: true } if removed == 0 && !touched => {
                    (RefreshPath::SkippedUnchangedSupport, 0)
                }
                RefreshStrategy::LeastFixpoint { warm: true } if removed == 0 => {
                    match view.extend(&self.db, pred, added) {
                        Some(rounds) => (RefreshPath::DeltaSeminaive, rounds),
                        None => {
                            exec_stats = Some(view.reexecute(&self.db));
                            (RefreshPath::Reexecuted, 0)
                        }
                    }
                }
                _ if touched || adom_changed => {
                    exec_stats = Some(view.reexecute(&self.db));
                    (RefreshPath::Reexecuted, 0)
                }
                _ => (RefreshPath::SkippedUnchangedSupport, 0),
            };
            view.stats = exec_stats.unwrap_or(ExecStats {
                wall_micros: refresh_start.elapsed().as_micros() as u64,
                ..ExecStats::default()
            });
            reports.push(ViewRefresh {
                name: name.clone(),
                path,
                rounds,
                answers: view.outcome.as_ref().ok().map(Instance::len),
                wall_micros: view.stats.wall_micros,
            });
        }
        self.views = views;
        reports
    }
}

impl WatchedView {
    /// Re-execute the handle on `db` (a least-fixpoint view through its
    /// route, warm again when the route answers) and return the execution's
    /// counters.
    fn reexecute(&mut self, db: &Database) -> ExecStats {
        let (result, stats) = self.prepared.try_execute(db, self.semantics);
        if let RefreshStrategy::LeastFixpoint { warm } = &mut self.strategy {
            *warm = matches!(&result, Ok(outcome) if outcome.least_model);
        }
        match result {
            Ok(outcome) => {
                self.outcome = Ok(outcome.result);
                self.stale = false;
            }
            // A refresh stopped by the governor (or a contained panic) is
            // transactional for the view: if an earlier answer is held, keep
            // serving it, marked stale, rather than replacing it with the
            // error.  Query errors (budgets, typing) are deterministic facts
            // about the new state, so they are stored — the view must match a
            // from-scratch execution exactly.
            Err(err) => {
                let transient =
                    matches!(err, EngineError::Resource(_) | EngineError::Internal { .. });
                if transient && self.outcome.is_ok() {
                    self.stale = true;
                } else {
                    self.outcome = Err(err);
                    self.stale = false;
                }
            }
        }
        stats
    }

    /// Extend a warm least-fixpoint view's answer by the values just
    /// inserted into `pred`, under the view's own governor.  Returns the
    /// rounds run, or `None` when the view must re-execute: a guard fails on
    /// a new element, the delta holds a value of another type than the
    /// query's schema declares (which the re-execution refuses), or the
    /// refresh trips.  A panic (an injected [`itq_object::TripKind::Panic`]) is
    /// contained here as [`Prepared::execute`] contains it.
    fn extend(&mut self, db: &Database, pred: &str, added: &[Value]) -> Option<u64> {
        let fixpoint = self.prepared.fixpoint_route()?;
        let Ok(model) = self.outcome.as_mut() else {
            return None;
        };
        let interrupt = self.prepared.governor().interrupt();
        let (fresh, rounds) = catch_unwind(AssertUnwindSafe(|| {
            fixpoint.extend(self.prepared.query(), model, db, pred, added, &interrupt)
        }))
        .ok()?
        .ok()??;
        for value in fresh.iter() {
            model.insert(value.clone());
        }
        Some(rounds)
    }
}

/// Validate a mutation batch (or a seed relation) before anything is
/// touched: `pred` must be declared, and every value must conform to its
/// type ([`conform`], which reports the first value of another type).
fn check_batch<'a>(
    schema: &Schema,
    pred: &str,
    values: impl IntoIterator<Item = &'a Value>,
) -> Result<(), IncrementalError> {
    let ty = schema
        .type_of(pred)
        .ok_or_else(|| IncrementalError::UnknownRelation {
            pred: pred.to_string(),
        })?;
    conform(pred, ty, values).map_err(IncrementalError::Nonconforming)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, GovernorConfig};
    use crate::queries;
    use itq_calculus::{Formula, Query, Term};
    use itq_object::{Atom, CancelFlag, Type};

    fn a(n: u32) -> Atom {
        Atom(n)
    }

    fn db(pairs: &[(Atom, Atom)]) -> IncrementalDb {
        IncrementalDb::new(queries::parent_schema(), &queries::parent_database(pairs)).unwrap()
    }

    #[test]
    fn mutations_commit_epochs_and_bump_the_version() {
        let mut inc = db(&[(a(0), a(1))]);
        assert_eq!(inc.version(), 1);
        assert_eq!(inc.relation_len("PAR"), Some(1));
        let out = inc
            .insert(
                "PAR",
                vec![Value::pair(a(1), a(2)), Value::pair(a(0), a(1))],
            )
            .unwrap();
        assert_eq!((out.added, out.removed), (1, 0)); // the duplicate is not re-added
        assert_eq!(out.version, 2);
        assert_eq!(inc.relation_len("PAR"), Some(2));
        let out = inc.delete("PAR", vec![Value::pair(a(0), a(1))]).unwrap();
        assert_eq!((out.added, out.removed), (0, 1));
        assert_eq!(inc.version(), 3);
        let snapshot = inc.snapshot();
        assert_eq!(
            snapshot.relation("PAR").unwrap(),
            &Instance::from_pairs(vec![(a(1), a(2))])
        );
        // Deleting an absent tuple is a counted no-op.
        let out = inc.delete("PAR", vec![Value::pair(a(7), a(8))]).unwrap();
        assert_eq!(out.removed, 0);
    }

    #[test]
    fn mutations_are_validated() {
        let mut inc = db(&[]);
        let err = inc
            .insert("NOPE", vec![Value::pair(a(0), a(1))])
            .unwrap_err();
        assert_eq!(
            err,
            IncrementalError::UnknownRelation {
                pred: "NOPE".to_string()
            }
        );
        assert!(err.to_string().contains("NOPE"));
        let err = inc.insert("PAR", vec![Value::atom(a(0))]).unwrap_err();
        assert!(matches!(err, IncrementalError::Nonconforming(_)));
        assert!(err.to_string().contains("PAR"));
        // Failed mutations do not bump the version.
        assert_eq!(inc.version(), 1);
    }

    #[test]
    fn seeds_that_omit_a_predicate_snapshot_it_empty() {
        let schema = Schema::single("PAR", Type::flat_tuple(2)).with("OTHER", Type::Atomic);
        let seed = queries::parent_database(&[(a(0), a(1))]);
        let inc = IncrementalDb::new(schema, &seed).unwrap();
        let expected = seed.with("OTHER", Instance::empty());
        assert_eq!(inc.snapshot(), expected);
        assert_eq!(inc.database(), &expected);
        assert_eq!(inc.relation_len("OTHER"), Some(0));
    }

    #[test]
    fn seed_relations_outside_the_schema_are_unknown() {
        let seed = queries::parent_database(&[(a(0), a(1))])
            .with("NOPE", Instance::from_atoms(vec![a(0)]));
        let err = IncrementalDb::new(queries::parent_schema(), &seed).unwrap_err();
        assert_eq!(
            err,
            IncrementalError::UnknownRelation {
                pred: "NOPE".to_string()
            }
        );
    }

    #[test]
    fn a_batch_holding_a_value_twice_adds_it_once() {
        let mut inc = db(&[]);
        let twice = vec![Value::pair(a(0), a(1)), Value::pair(a(0), a(1))];
        let out = inc.insert("PAR", twice).unwrap();
        assert_eq!((out.added, out.removed), (1, 0));
        assert_eq!(inc.relation_len("PAR"), Some(1));
    }

    #[test]
    fn deleting_an_absent_value_still_commits_an_epoch() {
        let mut inc = db(&[(a(0), a(1))]);
        let before = inc.snapshot();
        let out = inc.delete("PAR", vec![Value::pair(a(7), a(8))]).unwrap();
        assert_eq!(out.removed, 0);
        assert_eq!(out.version, 2);
        assert_eq!(inc.version(), 2);
        assert_eq!(inc.snapshot(), before);
    }

    #[test]
    fn transitive_closure_is_recognised_and_delta_maintained() {
        let mut inc = db(&[(a(0), a(1)), (a(1), a(2))]);
        let engine = Engine::new();
        let prepared = engine
            .prepare(&queries::transitive_closure_query())
            .unwrap();
        inc.watch("tc", prepared.clone(), Semantics::Limited);
        assert_eq!(inc.view("tc").unwrap().strategy_name(), "least-fixpoint");

        let out = inc.insert("PAR", vec![Value::pair(a(2), a(0))]).unwrap();
        let refresh = &out.refreshed[0];
        assert_eq!(refresh.path, RefreshPath::DeltaSeminaive);
        let scratch = prepared
            .execute(&inc.snapshot(), Semantics::Limited)
            .unwrap();
        assert_eq!(inc.view("tc").unwrap().outcome(), &Ok(scratch.result));

        // Deletions re-execute through the route, which keeps the model
        // warm for the next insertion.
        let out = inc.delete("PAR", vec![Value::pair(a(1), a(2))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::Reexecuted);
        // Only the guard's pair quantifier is drawn, never the 2^9 sets.
        assert_eq!(inc.view("tc").unwrap().stats().max_domain_seen, 9);
        let scratch = prepared
            .execute(&inc.snapshot(), Semantics::Limited)
            .unwrap();
        assert_eq!(inc.view("tc").unwrap().outcome(), &Ok(scratch.result));
        let out = inc.insert("PAR", vec![Value::pair(a(1), a(3))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::DeltaSeminaive);
        let scratch = prepared
            .execute(&inc.snapshot(), Semantics::Limited)
            .unwrap();
        assert_eq!(inc.view("tc").unwrap().outcome(), &Ok(scratch.result));
    }

    #[test]
    fn a_failing_guard_reexecutes_through_the_enumeration() {
        // {t/U | ∀x/{U} (∀y/U (PERSON(y) → y ∈ x) ∧
        //                  ∀y/U (y ∈ x → LIKED(y)) → t ∈ x)}:
        // PERSON ⊆ x, guarded by LIKED(y).  While every person is liked the
        // answer is PERSON; once one is not, no X satisfies φ and every atom
        // of the range answers.
        let schema = Schema::single("PERSON", Type::Atomic).with("LIKED", Type::Atomic);
        let body = Formula::forall(
            "x",
            Type::set(Type::Atomic),
            Formula::implies(
                Formula::and(vec![
                    Formula::forall(
                        "y",
                        Type::Atomic,
                        Formula::implies(
                            Formula::pred("PERSON", Term::var("y")),
                            Formula::member(Term::var("y"), Term::var("x")),
                        ),
                    ),
                    Formula::forall(
                        "y",
                        Type::Atomic,
                        Formula::implies(
                            Formula::member(Term::var("y"), Term::var("x")),
                            Formula::pred("LIKED", Term::var("y")),
                        ),
                    ),
                ]),
                Formula::member(Term::var("t"), Term::var("x")),
            ),
        );
        let query = Query::new("t", Type::Atomic, body, schema.clone()).unwrap();
        let prepared = Engine::new().prepare(&query).unwrap();
        assert_eq!(
            prepared.least_fixpoint().map(|(p, g)| (p.rules.len(), g)),
            Some((1, 1))
        );
        let seed = Database::single("PERSON", Instance::from_atoms(vec![a(0)]))
            .with("LIKED", Instance::from_atoms(vec![a(0), a(1)]));
        let mut inc = IncrementalDb::new(schema, &seed).unwrap();
        inc.watch("q", prepared.clone(), Semantics::Limited);
        let exact = |inc: &IncrementalDb| {
            Ok(prepared
                .execute(inc.database(), Semantics::Limited)
                .unwrap()
                .result)
        };
        assert_eq!(inc.view("q").unwrap().outcome(), &exact(&inc));
        assert_eq!(inc.view("q").unwrap().outcome().as_ref().unwrap().len(), 1);
        // A liked person: the guard holds on the new element, by delta.
        let out = inc.insert("PERSON", vec![Value::atom(a(1))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::DeltaSeminaive);
        assert_eq!(inc.view("q").unwrap().outcome(), &exact(&inc));
        // Only the guard reads LIKED: the model gains nothing, in no round.
        let out = inc.insert("LIKED", vec![Value::atom(a(3))]).unwrap();
        assert_eq!(
            (out.refreshed[0].path, out.refreshed[0].rounds),
            (RefreshPath::DeltaSeminaive, 0)
        );
        assert_eq!(inc.view("q").unwrap().outcome(), &exact(&inc));
        // An unliked one fails the guard: the refresh re-executes, and the
        // route leaves the answer to the enumeration — the whole range
        // a0…a3.
        let out = inc.insert("PERSON", vec![Value::atom(a(2))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::Reexecuted);
        assert_eq!(inc.view("q").unwrap().outcome(), &exact(&inc));
        assert_eq!(inc.view("q").unwrap().outcome().as_ref().unwrap().len(), 4);
        // Liking them later restores the least model, through the route.
        let out = inc.insert("LIKED", vec![Value::atom(a(2))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::Reexecuted);
        assert_eq!(inc.view("q").unwrap().outcome(), &exact(&inc));
        assert!(inc.view("q").unwrap().stats().steps > 0);
        assert_eq!(inc.view("q").unwrap().outcome().as_ref().unwrap().len(), 3);
    }

    #[test]
    fn conjunctive_views_reexecute_through_their_plans_under_any_governor() {
        use itq_algebra::{AlgExpr, SelFormula};
        let grandparent_algebra = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        // A plain engine, and one with a linked Ctrl-C flag (an armed
        // governor) as `itq serve` builds it: both refresh the same way.
        for engine in [
            Engine::new(),
            Engine::builder().cancel_flag(CancelFlag::new()).build(),
        ] {
            let mut inc = db(&[(a(0), a(1)), (a(0), a(2)), (a(1), a(3))]);
            let views = [
                ("gp", engine.prepare(&queries::grandparent_query()).unwrap()),
                ("sib", engine.prepare(&queries::sibling_query()).unwrap()),
                (
                    "ga",
                    engine
                        .prepare_algebra(&grandparent_algebra, &queries::parent_schema())
                        .unwrap(),
                ),
            ];
            for (name, prepared) in &views {
                inc.watch(name, prepared.clone(), Semantics::Limited);
                assert_eq!(
                    inc.view(name).unwrap().strategy_name(),
                    "re-execute",
                    "{name}"
                );
            }
            let out = inc.insert("PAR", vec![Value::pair(a(2), a(4))]).unwrap();
            for refresh in &out.refreshed {
                assert_eq!(refresh.path, RefreshPath::Reexecuted, "{}", refresh.name);
            }
            for (name, prepared) in &views {
                let view = inc.view(name).unwrap();
                // Planned joins, not quantifier enumeration.
                assert_eq!(view.stats().steps, 0, "{name}");
                assert!(view.stats().join_probes > 0, "{name}");
                let scratch = prepared
                    .execute(&inc.snapshot(), Semantics::Limited)
                    .unwrap();
                assert_eq!(view.outcome(), &Ok(scratch.result), "{name}");
            }
        }
    }

    #[test]
    fn unwatched_and_unchanged_views_behave() {
        let mut inc = IncrementalDb::new(
            Schema::single("PAR", Type::flat_tuple(2)).with("OTHER", Type::flat_tuple(2)),
            &Database::single("PAR", Instance::from_pairs(vec![(a(0), a(1))]))
                .with("OTHER", Instance::from_pairs(vec![(a(0), a(1))])),
        )
        .unwrap();
        let engine = Engine::new();
        let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
        inc.watch("gp", prepared, Semantics::Limited);
        // A mutation on a relation outside the view's support, over existing
        // atoms, is skipped entirely.
        let out = inc.insert("OTHER", vec![Value::pair(a(1), a(0))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::SkippedUnchangedSupport);
        // One that brings a fresh atom changes the active domain, which the
        // view's answer may depend on, so it re-executes.
        let out = inc.insert("OTHER", vec![Value::pair(a(1), a(7))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::Reexecuted);
        assert!(inc.unwatch("gp"));
        assert!(!inc.unwatch("gp"));
        let out = inc.insert("PAR", vec![Value::pair(a(1), a(2))]).unwrap();
        assert!(out.refreshed.is_empty());
    }

    #[test]
    fn invention_semantics_fall_back_to_reexecution() {
        let mut inc = db(&[(a(0), a(1))]);
        let engine = Engine::builder().max_invented(1).build();
        let prepared = engine.prepare(&queries::grandparent_query()).unwrap();
        inc.watch("gp-fi", prepared.clone(), Semantics::FiniteInvention);
        assert_eq!(inc.view("gp-fi").unwrap().strategy_name(), "re-execute");
        let out = inc.insert("PAR", vec![Value::pair(a(1), a(2))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::Reexecuted);
        let scratch = prepared
            .execute(&inc.snapshot(), Semantics::FiniteInvention)
            .unwrap();
        assert_eq!(inc.view("gp-fi").unwrap().outcome(), &Ok(scratch.result));
    }

    #[test]
    fn failed_executions_are_stored_and_refreshed() {
        use itq_calculus::EvalConfig;
        let mut inc = db(&[(a(0), a(1)), (a(1), a(2))]);
        let tiny = Engine::builder()
            .calc_config(EvalConfig {
                max_steps: 1,
                ..EvalConfig::default()
            })
            .build();
        let prepared = tiny.prepare(&queries::grandparent_query()).unwrap();
        inc.watch("starved", prepared.clone(), Semantics::Limited);
        let view = inc.view("starved").unwrap();
        assert_eq!(view.strategy_name(), "re-execute");
        let stored = view.outcome().clone().unwrap_err();
        let scratch = prepared
            .execute(&inc.snapshot(), Semantics::Limited)
            .unwrap_err();
        assert_eq!(stored.to_string(), scratch.to_string());
        // The error stays byte-identical through a refresh.
        inc.insert("PAR", vec![Value::pair(a(2), a(3))]).unwrap();
        let stored = inc.view("starved").unwrap().outcome().clone().unwrap_err();
        let scratch = prepared
            .execute(&inc.snapshot(), Semantics::Limited)
            .unwrap_err();
        assert_eq!(stored.to_string(), scratch.to_string());
    }

    #[test]
    fn failed_mutations_leave_version_and_contents_unchanged() {
        let mut inc = db(&[(a(0), a(1))]);
        let before_version = inc.version();
        let before_snapshot = inc.snapshot();
        // The second value in the batch is ill-typed: validation happens for
        // the whole batch before anything is staged, so the valid first value
        // must not land either.
        let err = inc
            .insert("PAR", vec![Value::pair(a(1), a(2)), Value::atom(a(3))])
            .unwrap_err();
        assert!(matches!(err, IncrementalError::Nonconforming(_)));
        assert_eq!(inc.version(), before_version);
        assert_eq!(inc.snapshot(), before_snapshot);
        // Same transactional guarantee for deletions.
        let err = inc
            .delete("PAR", vec![Value::pair(a(0), a(1)), Value::atom(a(0))])
            .unwrap_err();
        assert!(matches!(err, IncrementalError::Nonconforming(_)));
        assert_eq!(inc.version(), before_version);
        assert_eq!(inc.snapshot(), before_snapshot);
    }

    #[test]
    fn armed_governors_keep_the_delta_path_and_recover_from_a_cancel() {
        // A linked Ctrl-C flag, as `itq` and `itq serve` arm every session:
        // the delta refresh polls it, so the view keeps the delta path.
        let mut inc = db(&[(a(0), a(1)), (a(1), a(2))]);
        let flag = CancelFlag::new();
        let governed = Engine::builder().cancel_flag(flag.clone()).build();
        let prepared = governed
            .prepare(&queries::transitive_closure_query())
            .unwrap();
        inc.watch("tc", prepared.clone(), Semantics::Limited);
        let view = inc.view("tc").unwrap();
        assert!(view.outcome().is_ok());
        assert_eq!(view.strategy_name(), "least-fixpoint");
        let out = inc.insert("PAR", vec![Value::pair(a(2), a(3))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::DeltaSeminaive);
        let exact = |inc: &IncrementalDb| {
            Ok(prepared
                .with_governor(GovernorConfig::default())
                .execute(inc.database(), Semantics::Limited)
                .unwrap()
                .result)
        };
        assert_eq!(inc.view("tc").unwrap().outcome(), &exact(&inc));
        let good = inc.view("tc").unwrap().outcome().clone();

        // A cancel raised during the delta refresh trips it, and the
        // re-execution through the route trips too: the view keeps its
        // last-good answer, marked stale.
        flag.cancel();
        let out = inc.insert("PAR", vec![Value::pair(a(3), a(4))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::Reexecuted);
        let view = inc.view("tc").unwrap();
        assert!(view.is_stale());
        assert_eq!(view.outcome(), &good);

        // Once the flag is lowered, the next epoch recovers through the
        // route, and the one after that takes the delta path again.
        flag.reset();
        let out = inc.insert("PAR", vec![Value::pair(a(4), a(5))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::Reexecuted);
        assert!(!inc.view("tc").unwrap().is_stale());
        assert_eq!(inc.view("tc").unwrap().outcome(), &exact(&inc));
        let out = inc.insert("PAR", vec![Value::pair(a(5), a(6))]).unwrap();
        assert_eq!(out.refreshed[0].path, RefreshPath::DeltaSeminaive);
        assert_eq!(inc.view("tc").unwrap().outcome(), &exact(&inc));
    }

    #[test]
    fn interrupted_refreshes_keep_the_last_good_answer_marked_stale() {
        let mut inc = db(&[(a(0), a(1)), (a(1), a(2))]);
        let flag = CancelFlag::new();
        let governed = Engine::builder().cancel_flag(flag.clone()).build();
        let prepared = governed.prepare(&queries::grandparent_query()).unwrap();
        inc.watch("gp", prepared.clone(), Semantics::Limited);
        let good = inc.view("gp").unwrap().outcome().clone().unwrap();
        assert!(!inc.view("gp").unwrap().is_stale());

        // Cancel mid-session: the refresh trips, but the view keeps serving
        // the last-good answer, flagged stale, instead of an error.
        flag.cancel();
        inc.insert("PAR", vec![Value::pair(a(2), a(3))]).unwrap();
        let view = inc.view("gp").unwrap();
        assert!(view.is_stale());
        assert_eq!(view.outcome(), &Ok(good));

        // A later successful refresh catches the view up and clears the flag.
        flag.reset();
        inc.insert("PAR", vec![Value::pair(a(3), a(4))]).unwrap();
        let view = inc.view("gp").unwrap();
        assert!(!view.is_stale());
        let scratch = prepared
            .execute(&inc.snapshot(), Semantics::Limited)
            .unwrap();
        assert_eq!(view.outcome(), &Ok(scratch.result));
    }

    #[test]
    fn non_default_budgets_stay_on_the_reexecution_path() {
        use itq_calculus::EvalConfig;
        // Generous enough to succeed on the seed database, but tightened: a
        // delta strategy would stop exercising the budget, so the view must
        // keep re-executing to reproduce a later starvation exactly.
        let mut inc = db(&[(a(0), a(1)), (a(1), a(2))]);
        let capped = Engine::builder()
            .calc_config(EvalConfig {
                max_steps: 100_000,
                ..EvalConfig::default()
            })
            .build();
        let prepared = capped.prepare(&queries::grandparent_query()).unwrap();
        inc.watch("capped", prepared, Semantics::Limited);
        let view = inc.view("capped").unwrap();
        assert!(view.outcome().is_ok());
        assert_eq!(view.strategy_name(), "re-execute");
    }

    #[test]
    fn refreshes_record_their_cost_and_epochs_render_as_spans() {
        let mut inc = db(&[(a(0), a(1))]);
        let engine = Engine::new();
        let tc = engine
            .prepare(&queries::transitive_closure_query())
            .unwrap();
        let watched = inc.watch("tc", tc, Semantics::Limited);
        // The initial watch is a full execution: calculus counters are live.
        assert!(watched.wall_micros == inc.view("tc").unwrap().stats().wall_micros);
        assert!(inc.view("tc").unwrap().stats().steps > 0);

        let gp = engine.prepare(&queries::grandparent_query()).unwrap();
        inc.watch("gp", gp, Semantics::Limited);

        let out = inc.insert("PAR", vec![Value::pair(a(1), a(2))]).unwrap();
        for refresh in &out.refreshed {
            // Every refresh path stamps its wall-clock cost on the report and
            // on the warm view (this used to be silently dropped).
            assert_eq!(
                refresh.wall_micros,
                inc.view(&refresh.name).unwrap().stats().wall_micros
            );
        }
        let tc_view = inc.view("tc").unwrap();
        // The delta path never runs the calculus: counters stay zero, only
        // the measured refresh wall time is stamped.
        assert_eq!(tc_view.stats().steps, 0);
        assert_eq!(tc_view.stats().deterministic(), ExecStats::default());
        // The grandparent view re-executed through its planned join, so its
        // stats are that execution's counters.
        let span = out.to_span();
        assert_eq!(span.name, "epoch v2");
        assert_eq!(span.field("added"), Some(1));
        assert_eq!(span.children.len(), 2);
        assert!(span.children.iter().any(|c| c.name.starts_with("view tc:")));
        assert_eq!(
            span.wall_micros,
            out.refreshed.iter().map(|r| r.wall_micros).sum::<u64>()
        );
    }
}
