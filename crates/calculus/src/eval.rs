//! Evaluation of calculus queries: the limited interpretation and the
//! `Q|^Y` semantics (Sections 2 and 6).
//!
//! Under the limited interpretation all variables range over objects constructed
//! from the active domain of the input database and the query
//! (`X = adom(d) ∪ adom(Q)`); under `Q|^Y` the range extends by the extra atom set
//! `Y`.  Quantifier domains are constructive domains `cons_X(T)` and therefore grow
//! hyper-exponentially with the set-height of `T` — exactly the phenomenon the
//! paper analyses — so the evaluator carries an explicit [`EvalConfig`] budget and
//! reports [`EvalStats`] so the blow-up can be measured rather than merely
//! endured.

use crate::error::CalcError;
use crate::formula::Formula;
use crate::query::Query;
use crate::term::{Term, Var};
use itq_object::cons::{cons_cardinality, ConsIter};
use itq_object::govern::POLL_MASK;
use itq_object::{Atom, Database, ExecCtx, Instance, Interrupt, Value};
use itq_trace::Span;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Budgets for query evaluation.  Every evaluator short-circuits: `∃` stops
/// at its first witness, `∀` at its first counterexample, `∧`/`∨`/`→` at the
/// first operand that decides them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Maximum admissible size of a single quantifier's constructive domain.
    pub max_quantifier_domain: u64,
    /// Maximum admissible size of the candidate domain for the target variable.
    pub max_candidates: u64,
    /// Maximum total number of formula-node evaluations.
    pub max_steps: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_quantifier_domain: 1 << 22,
            max_candidates: 1 << 22,
            max_steps: 200_000_000,
        }
    }
}

impl EvalConfig {
    /// A small budget suitable for unit tests of budget handling.
    pub fn tiny() -> Self {
        EvalConfig {
            max_quantifier_domain: 64,
            max_candidates: 64,
            max_steps: 10_000,
        }
    }
}

/// Counters accumulated during one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of formula nodes evaluated.
    pub steps: u64,
    /// Number of values drawn from quantifier domains.
    pub quantifier_values: u64,
    /// Number of candidate output objects tested.
    pub candidates_checked: u64,
    /// The largest single quantifier domain encountered.
    pub max_domain_seen: u64,
    /// Compiled form only: constructive-domain lookups answered from the
    /// per-execution [`DomainCache`](itq_object::DomainCache) memo (always 0
    /// for the tree walker, which re-enumerates domains lazily).
    pub domain_cache_hits: u64,
    /// Compiled form only: constructive-domain lookups that had to
    /// materialise a new domain (always 0 for the tree walker).
    pub domain_cache_misses: u64,
    /// Compiled form only: number of distinct values interned in the
    /// execution's [`ValueStore`](itq_object::ValueStore) (always 0 for the
    /// tree walker, which never interns).
    pub interned_values: u64,
}

impl EvalStats {
    /// Fold another evaluation's counters into this one: additive counters are
    /// summed (saturating, so merging many partitions or levels can never
    /// wrap), `max_domain_seen` takes the maximum.  Used by the invention
    /// semantics, which run one evaluation per invention level, and by the
    /// partitioned evaluator, which merges one block per partition.
    ///
    /// ```
    /// use itq_calculus::eval::EvalStats;
    /// let mut total = EvalStats { steps: 10, max_domain_seen: 4, ..Default::default() };
    /// total.merge(&EvalStats { steps: 5, max_domain_seen: 9, ..Default::default() });
    /// assert_eq!(total.steps, 15);
    /// assert_eq!(total.max_domain_seen, 9);
    /// let mut near_max = EvalStats { steps: u64::MAX - 1, ..Default::default() };
    /// near_max.merge(&EvalStats { steps: 5, ..Default::default() });
    /// assert_eq!(near_max.steps, u64::MAX); // saturates instead of wrapping
    /// ```
    pub fn merge(&mut self, other: &EvalStats) {
        self.steps = self.steps.saturating_add(other.steps);
        self.quantifier_values = self
            .quantifier_values
            .saturating_add(other.quantifier_values);
        self.candidates_checked = self
            .candidates_checked
            .saturating_add(other.candidates_checked);
        self.max_domain_seen = self.max_domain_seen.max(other.max_domain_seen);
        self.domain_cache_hits = self
            .domain_cache_hits
            .saturating_add(other.domain_cache_hits);
        self.domain_cache_misses = self
            .domain_cache_misses
            .saturating_add(other.domain_cache_misses);
        self.interned_values = self.interned_values.saturating_add(other.interned_values);
    }
}

/// The result of evaluating a query: the answer instance plus statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluation {
    /// The answer, an instance of the query's target type.
    pub result: Instance,
    /// Evaluation statistics.
    pub stats: EvalStats,
    /// Number of candidate-rank partitions the evaluation split its top-level
    /// loop into (0 when it ran sequentially).
    pub partitions: u64,
}

/// A value assignment ρ from variables to objects.
type Assignment = BTreeMap<Var, Value>;

struct Evaluator<'a> {
    db: &'a Database,
    atoms: Vec<Atom>,
    config: &'a EvalConfig,
    stats: EvalStats,
    /// The execution's resource governor.  Polled every [`POLL_MASK`]+1 steps
    /// so the masked poll points coincide with the compiled backend's (both
    /// count one step per formula node).  The tree walker never interns, so
    /// its memory footprint reported to the governor is always 0 and it
    /// needs no exit poll.
    interrupt: &'a Interrupt,
}

impl<'a> Evaluator<'a> {
    fn bump(&mut self) -> Result<(), CalcError> {
        self.stats.steps += 1;
        if self.stats.steps & POLL_MASK == 0 {
            self.interrupt.check(0)?;
        }
        if self.stats.steps > self.config.max_steps {
            return Err(CalcError::Budget {
                what: "formula evaluation steps".to_string(),
                limit: self.config.max_steps,
            });
        }
        Ok(())
    }

    /// Evaluate a term to a value, borrowing from the assignment whenever
    /// possible: `Eq`/`Member`/`Pred` checks only *compare* the value, so
    /// set-valued bindings must not be deep-cloned just to be looked at.
    fn eval_term<'r>(&self, term: &Term, rho: &'r Assignment) -> Result<Cow<'r, Value>, CalcError> {
        match term {
            Term::Const(a) => Ok(Cow::Owned(Value::Atom(*a))),
            Term::Var(v) => rho
                .get(v)
                .map(Cow::Borrowed)
                .ok_or_else(|| CalcError::UnboundVariable { var: v.clone() }),
            Term::Proj(v, i) => {
                let val = rho
                    .get(v)
                    .ok_or_else(|| CalcError::UnboundVariable { var: v.clone() })?;
                val.project(*i)
                    .map(Cow::Borrowed)
                    .ok_or_else(|| CalcError::BadProjection {
                        var: v.clone(),
                        coordinate: *i,
                        ty: format!("value {val}"),
                    })
            }
        }
    }

    fn quantifier_domain(&mut self, ty: &itq_object::Type) -> Result<ConsIter, CalcError> {
        let card = cons_cardinality(ty, self.atoms.len());
        if !card.fits_within(self.config.max_quantifier_domain) {
            return Err(CalcError::Budget {
                what: format!(
                    "quantifier domain cons_X({ty}) of size {card} over {} atoms",
                    self.atoms.len()
                ),
                limit: self.config.max_quantifier_domain,
            });
        }
        let size = card.saturating_u64();
        if size > self.stats.max_domain_seen {
            self.stats.max_domain_seen = size;
        }
        Ok(ConsIter::new(ty, &self.atoms))
    }

    fn satisfies(&mut self, formula: &Formula, rho: &mut Assignment) -> Result<bool, CalcError> {
        self.bump()?;
        match formula {
            Formula::Eq(t1, t2) => Ok(self.eval_term(t1, rho)? == self.eval_term(t2, rho)?),
            Formula::Member(t1, t2) => {
                let elem = self.eval_term(t1, rho)?;
                let container = self.eval_term(t2, rho)?;
                Ok(elem.is_member_of(&container))
            }
            Formula::Pred(name, t) => {
                let val = self.eval_term(t, rho)?;
                let relation = self
                    .db
                    .relation(name)
                    .ok_or_else(|| CalcError::UnknownPredicate { name: name.clone() })?;
                Ok(relation.contains(&val))
            }
            Formula::Not(f) => Ok(!self.satisfies(f, rho)?),
            Formula::And(fs) => {
                for f in fs {
                    if !self.satisfies(f, rho)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(fs) => {
                for f in fs {
                    if self.satisfies(f, rho)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Implies(f1, f2) => {
                if !self.satisfies(f1, rho)? {
                    return Ok(true);
                }
                self.satisfies(f2, rho)
            }
            Formula::Iff(f1, f2) => {
                let a = self.satisfies(f1, rho)?;
                let b = self.satisfies(f2, rho)?;
                Ok(a == b)
            }
            Formula::Exists(v, ty, f) => {
                let domain = self.quantifier_domain(ty)?;
                // The shadow-save happens once, before the loop; the binding
                // slot is then overwritten in place, so the `String` key is
                // cloned at most once (on the first iteration of an
                // unshadowed variable) instead of once per drawn value.
                let shadowed = rho.get(v).cloned();
                let mut found = false;
                for value in domain {
                    self.stats.quantifier_values += 1;
                    bind(rho, v, value);
                    if self.satisfies(f, rho)? {
                        found = true;
                        break;
                    }
                }
                restore(rho, v, shadowed);
                Ok(found)
            }
            Formula::Forall(v, ty, f) => {
                let domain = self.quantifier_domain(ty)?;
                let shadowed = rho.get(v).cloned();
                let mut all = true;
                for value in domain {
                    self.stats.quantifier_values += 1;
                    bind(rho, v, value);
                    if !self.satisfies(f, rho)? {
                        all = false;
                        break;
                    }
                }
                restore(rho, v, shadowed);
                Ok(all)
            }
        }
    }
}

/// Set `var ↦ value`, reusing the existing map entry (and its key allocation)
/// when the variable is already bound.
fn bind(rho: &mut Assignment, var: &str, value: Value) {
    match rho.get_mut(var) {
        Some(slot) => *slot = value,
        None => {
            rho.insert(var.to_string(), value);
        }
    }
}

fn restore(rho: &mut Assignment, var: &str, shadowed: Option<Value>) {
    match shadowed {
        Some(old) => {
            rho.insert(var.to_string(), old);
        }
        None => {
            rho.remove(var);
        }
    }
}

/// Evaluate a query under the limited interpretation (`Y = ∅`).
pub fn evaluate(
    query: &Query,
    db: &Database,
    config: &EvalConfig,
) -> Result<Evaluation, CalcError> {
    evaluate_with_extra(query, db, &[], config)
}

/// Evaluate `Q|^Y` where `Y` is given by `extra`: every variable (including the
/// target) ranges over objects constructed from `Y ∪ adom(d) ∪ adom(Q)`.
pub fn evaluate_with_extra(
    query: &Query,
    db: &Database,
    extra: &[Atom],
    config: &EvalConfig,
) -> Result<Evaluation, CalcError> {
    Ok(query.eval_ctx(db, extra, config, &ExecCtx::default())?.0)
}

/// A query form that can be evaluated under the generalised `Q|^Y` semantics.
///
/// Both the source-level [`Query`] (the tree walker, the reference the
/// equivalence suites check against) and the lowered
/// [`CompiledQuery`](crate::compile::CompiledQuery) (the slot-based
/// interpreter every prepared handle runs) implement this, which lets the
/// invention semantics of Section 6 drive either through one per-level loop
/// — the compiled form in particular is lowered **once** and re-executed at
/// every invention level instead of being re-derived.
pub trait Evaluable {
    /// Evaluate `Q|^Y` where `Y` is given by `extra`: every variable
    /// (including the target) ranges over objects constructed from
    /// `Y ∪ adom(d) ∪ adom(Q)`.
    ///
    /// The backend polls `ctx.interrupt` once on entry and then every
    /// [`POLL_MASK`]+1 formula-node evaluations, surfacing deadline expiry,
    /// cancellation, and injected faults as [`CalcError::Resource`]; it
    /// partitions its candidate loop across `ctx.workers` when it can; and
    /// when `ctx.traced` it may return a [`Span`] describing the evaluation
    /// (the compiled form does, the tree walker never).  Answers,
    /// statistics, and errors never depend on `ctx.traced`.
    fn eval_ctx(
        &self,
        db: &Database,
        extra: &[Atom],
        config: &EvalConfig,
        ctx: &ExecCtx,
    ) -> Result<(Evaluation, Option<Span>), CalcError>;

    /// The atoms over which evaluation of this query on `db` ranges:
    /// `adom(d) ∪ adom(Q)`.
    fn evaluation_domain(&self, db: &Database) -> BTreeSet<Atom>;
}

/// The tree walker: a literal transcription of the limited interpretation,
/// sequential at any `ctx.workers` and never traced.
impl Evaluable for Query {
    fn eval_ctx(
        &self,
        db: &Database,
        extra: &[Atom],
        config: &EvalConfig,
        ctx: &ExecCtx,
    ) -> Result<(Evaluation, Option<Span>), CalcError> {
        // Poll once before any work so a deadline of 0 ms (or a pre-set
        // cancel flag) trips even on queries whose evaluation would finish
        // instantly.
        ctx.interrupt.check(0)?;
        let mut atom_set = self.evaluation_domain(db);
        atom_set.extend(extra.iter().copied());
        let atoms: Vec<Atom> = atom_set.into_iter().collect();

        let target_card = cons_cardinality(self.target_type(), atoms.len());
        if !target_card.fits_within(config.max_candidates) {
            return Err(CalcError::Budget {
                what: format!(
                    "candidate domain cons_X({}) of size {target_card}",
                    self.target_type()
                ),
                limit: config.max_candidates,
            });
        }

        let mut evaluator = Evaluator {
            db,
            atoms: atoms.clone(),
            config,
            stats: EvalStats::default(),
            interrupt: ctx.interrupt,
        };

        let mut result = Instance::empty();
        for candidate in ConsIter::new(self.target_type(), &atoms) {
            evaluator.stats.candidates_checked += 1;
            let mut rho: Assignment = BTreeMap::new();
            rho.insert(self.target().to_string(), candidate.clone());
            if evaluator.satisfies(self.body(), &mut rho)? {
                result.insert(candidate);
            }
        }

        let evaluation = Evaluation {
            result,
            stats: evaluator.stats,
            partitions: 0,
        };
        Ok((evaluation, None))
    }

    fn evaluation_domain(&self, db: &Database) -> BTreeSet<Atom> {
        Query::evaluation_domain(self, db)
    }
}

/// Decide whether a *sentence* (a formula with no free variables) holds on `db`
/// over the atom set `X = adom(d) ∪ constants(φ) ∪ extra`.
///
/// This is the building block used by experiment code that wants to check a
/// closed condition (e.g. "there exists a successful TM computation") without
/// wrapping it in a query.
pub fn satisfies_sentence(
    sentence: &Formula,
    db: &Database,
    extra: &[Atom],
    config: &EvalConfig,
) -> Result<bool, CalcError> {
    let mut atom_set = db.active_domain();
    atom_set.extend(sentence.constants());
    atom_set.extend(extra.iter().copied());
    let atoms: Vec<Atom> = atom_set.into_iter().collect();
    let mut evaluator = Evaluator {
        db,
        atoms,
        config,
        stats: EvalStats::default(),
        interrupt: Interrupt::disarmed(),
    };
    let mut rho = BTreeMap::new();
    evaluator.satisfies(sentence, &mut rho)
}

/// Decide `formula`, whose only free variable is `var`, with `var` bound to
/// each of `values` in turn, over the atom set `atoms` (for a query's guard,
/// `adom(d) ∪ adom(Q)`).  Stops at the first value on which the formula is
/// false.  Polls `interrupt` like the tree walker (every [`POLL_MASK`]+1
/// formula nodes); `candidates_checked` counts the values checked.
///
/// ```
/// use itq_calculus::eval::{holds_for_each, EvalConfig};
/// use itq_calculus::{Formula, Term};
/// use itq_object::{Atom, Database, Instance, Interrupt, Value};
///
/// let db = Database::single("P", Instance::from_atoms(vec![Atom(0), Atom(1)]));
/// let in_p = Formula::pred("P", Term::var("y"));
/// let check = |values: &[Value]| {
///     holds_for_each(&in_p, "y", values, &db, &[Atom(0), Atom(1)],
///                    &EvalConfig::default(), Interrupt::disarmed()).unwrap()
/// };
/// let (holds, stats) = check(&[Value::atom(Atom(0)), Value::atom(Atom(1))]);
/// assert!(holds && stats.candidates_checked == 2);
/// assert!(!check(&[Value::atom(Atom(2))]).0);
/// ```
pub fn holds_for_each<'v>(
    formula: &Formula,
    var: &str,
    values: impl IntoIterator<Item = &'v Value>,
    db: &Database,
    atoms: &[Atom],
    config: &EvalConfig,
    interrupt: &Interrupt,
) -> Result<(bool, EvalStats), CalcError> {
    let mut evaluator = Evaluator {
        db,
        atoms: atoms.to_vec(),
        config,
        stats: EvalStats::default(),
        interrupt,
    };
    let mut rho = BTreeMap::new();
    for value in values {
        evaluator.stats.candidates_checked += 1;
        bind(&mut rho, var, value.clone());
        if !evaluator.satisfies(formula, &mut rho)? {
            return Ok((false, evaluator.stats));
        }
    }
    Ok((true, evaluator.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_object::{Schema, Type, Universe};

    fn par_db(universe: &mut Universe, edges: &[(&str, &str)]) -> Database {
        let pairs: Vec<(Atom, Atom)> = edges
            .iter()
            .map(|(a, b)| (universe.atom(a), universe.atom(b)))
            .collect();
        Database::single("PAR", Instance::from_pairs(pairs))
    }

    fn grandparent_query() -> Query {
        let t_pair = Type::flat_tuple(2);
        let body = Formula::exists(
            "x",
            t_pair.clone(),
            Formula::exists(
                "y",
                t_pair.clone(),
                Formula::and(vec![
                    Formula::pred("PAR", Term::var("x")),
                    Formula::pred("PAR", Term::var("y")),
                    Formula::eq(Term::proj("x", 2), Term::proj("y", 1)),
                    Formula::eq(Term::proj("t", 1), Term::proj("x", 1)),
                    Formula::eq(Term::proj("t", 2), Term::proj("y", 2)),
                ]),
            ),
        );
        Query::new(
            "t",
            t_pair,
            body,
            Schema::single("PAR", Type::flat_tuple(2)),
        )
        .unwrap()
    }

    #[test]
    fn example_2_4_grandparent() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("Tom", "Mary"), ("Mary", "Sue"), ("Sue", "Ann")]);
        let q = grandparent_query();
        let out = q.eval(&db, &EvalConfig::default()).unwrap();
        let expect = Instance::from_pairs(vec![
            (u.atom("Tom"), u.atom("Sue")),
            (u.atom("Mary"), u.atom("Ann")),
        ]);
        assert_eq!(out, expect);
    }

    #[test]
    fn stats_are_populated() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b"), ("b", "c")]);
        let q = grandparent_query();
        let ev = q.eval_full(&db, &EvalConfig::default()).unwrap();
        assert!(ev.stats.steps > 0);
        assert!(ev.stats.candidates_checked >= 9); // 3 atoms → 9 candidate pairs
        assert!(ev.stats.quantifier_values > 0);
        assert!(ev.stats.max_domain_seen >= 9);
    }

    #[test]
    fn budget_on_quantifier_domains_is_enforced() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b"), ("b", "c"), ("c", "d")]);
        // ∃x/{[U,U]} (t ∈ x): quantifier domain is 2^16 over 4 atoms.
        let t_pair = Type::flat_tuple(2);
        let body = Formula::exists(
            "x",
            Type::set(t_pair.clone()),
            Formula::member(Term::var("t"), Term::var("x")),
        );
        let q = Query::new(
            "t",
            t_pair,
            body,
            Schema::single("PAR", Type::flat_tuple(2)),
        )
        .unwrap();
        let err = q.eval(&db, &EvalConfig::tiny()).unwrap_err();
        assert!(matches!(err, CalcError::Budget { .. }));
        // With a generous budget it succeeds and returns every pair over adom.
        let out = q.eval(&db, &EvalConfig::default()).unwrap();
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn budget_on_candidates_is_enforced() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b"), ("b", "c"), ("c", "d")]);
        let q = Query::new(
            "t",
            Type::set(Type::flat_tuple(2)),
            Formula::truth(),
            Schema::single("PAR", Type::flat_tuple(2)),
        )
        .unwrap();
        assert!(matches!(
            q.eval(&db, &EvalConfig::tiny()),
            Err(CalcError::Budget { .. })
        ));
    }

    #[test]
    fn step_budget_is_enforced() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b"), ("b", "c"), ("c", "d")]);
        let q = grandparent_query();
        let config = EvalConfig {
            max_steps: 5,
            ..EvalConfig::default()
        };
        assert!(matches!(
            q.eval(&db, &config),
            Err(CalcError::Budget { .. })
        ));
    }

    #[test]
    fn constants_enter_the_evaluation_domain() {
        // {t/U | t ≈ c} over an empty database returns {c} because adom(Q) = {c}.
        let c = Atom(77);
        let q = Query::new(
            "t",
            Type::Atomic,
            Formula::eq(Term::var("t"), Term::constant(c)),
            Schema::single("R", Type::Atomic),
        )
        .unwrap();
        let db = Database::single("R", Instance::empty());
        let out = q.eval(&db, &EvalConfig::default()).unwrap();
        assert_eq!(out, Instance::from_atoms(vec![c]));
    }

    #[test]
    fn eval_with_extra_extends_the_range_of_variables() {
        // {t/U | R(t)} ignores extra atoms, but {t/U | ⊤} ranges over them.
        let q_all = Query::new(
            "t",
            Type::Atomic,
            Formula::truth(),
            Schema::single("R", Type::Atomic),
        )
        .unwrap();
        let a = Atom(0);
        let db = Database::single("R", Instance::from_atoms(vec![a]));
        let extra = [Atom(100), Atom(101)];
        let plain = q_all.eval(&db, &EvalConfig::default()).unwrap();
        assert_eq!(plain.len(), 1);
        let extended = q_all
            .eval_with_extra(&db, &extra, &EvalConfig::default())
            .unwrap();
        assert_eq!(extended.result.len(), 3);
    }

    #[test]
    fn even_cardinality_query_of_example_3_2() {
        // Q = {t/U | PERSON(t) ∧ ∃x/{[U,U]}(φ1 ∧ φ2 ∧ φ3)} returns PERSON when
        // |PERSON| is even and ∅ when odd.
        let t_pair = Type::flat_tuple(2);
        let phi1 = Formula::forall(
            "y",
            Type::Atomic,
            Formula::implies(
                Formula::pred("PERSON", Term::var("y")),
                Formula::exists(
                    "z",
                    t_pair.clone(),
                    Formula::and(vec![
                        Formula::member(Term::var("z"), Term::var("x")),
                        Formula::or(vec![
                            Formula::eq(Term::proj("z", 1), Term::var("y")),
                            Formula::eq(Term::proj("z", 2), Term::var("y")),
                        ]),
                    ]),
                ),
            ),
        );
        // φ2: the pairs in x are pairwise disjoint and each pair has distinct ends,
        // and both ends are persons (so x is a perfect matching of PERSON).
        let pairwise = Formula::forall(
            "z1",
            t_pair.clone(),
            Formula::forall(
                "z2",
                t_pair.clone(),
                Formula::implies(
                    Formula::and(vec![
                        Formula::member(Term::var("z1"), Term::var("x")),
                        Formula::member(Term::var("z2"), Term::var("x")),
                    ]),
                    Formula::and(vec![
                        // Each pair joins two distinct persons.
                        Formula::not(Formula::eq(Term::proj("z1", 1), Term::proj("z1", 2))),
                        Formula::pred("PERSON", Term::proj("z1", 1)),
                        Formula::pred("PERSON", Term::proj("z1", 2)),
                        // Distinct pairs share no endpoint.
                        Formula::or(vec![
                            Formula::and(vec![
                                Formula::eq(Term::proj("z1", 1), Term::proj("z2", 1)),
                                Formula::eq(Term::proj("z1", 2), Term::proj("z2", 2)),
                            ]),
                            Formula::and(vec![
                                Formula::not(Formula::eq(Term::proj("z1", 1), Term::proj("z2", 1))),
                                Formula::not(Formula::eq(Term::proj("z1", 1), Term::proj("z2", 2))),
                                Formula::not(Formula::eq(Term::proj("z1", 2), Term::proj("z2", 1))),
                                Formula::not(Formula::eq(Term::proj("z1", 2), Term::proj("z2", 2))),
                            ]),
                        ]),
                    ]),
                ),
            ),
        );
        let body = Formula::and(vec![
            Formula::pred("PERSON", Term::var("t")),
            Formula::exists(
                "x",
                Type::set(t_pair.clone()),
                Formula::and(vec![phi1, pairwise]),
            ),
        ]);
        let q = Query::new(
            "t",
            Type::Atomic,
            body,
            Schema::single("PERSON", Type::Atomic),
        )
        .unwrap();

        let mut u = Universe::new();
        let names = ["p1", "p2", "p3", "p4"];
        for n in 1..=4usize {
            let people: Vec<Atom> = names[..n].iter().map(|s| u.atom(s)).collect();
            let db = Database::single("PERSON", Instance::from_atoms(people.clone()));
            let out = q.eval(&db, &EvalConfig::default()).unwrap();
            if n % 2 == 0 {
                assert_eq!(out.len(), n, "even n={n} should return everyone");
            } else {
                assert!(out.is_empty(), "odd n={n} should return nothing");
            }
        }
    }

    #[test]
    fn satisfies_sentence_checks_closed_formulas() {
        let mut u = Universe::new();
        let db = par_db(&mut u, &[("a", "b")]);
        // ∃x/[U,U] PAR(x) is true; ∀x/[U,U] PAR(x) is false (there are 4 pairs).
        let some = Formula::exists(
            "x",
            Type::flat_tuple(2),
            Formula::pred("PAR", Term::var("x")),
        );
        let all = Formula::forall(
            "x",
            Type::flat_tuple(2),
            Formula::pred("PAR", Term::var("x")),
        );
        let cfg = EvalConfig::default();
        assert!(satisfies_sentence(&some, &db, &[], &cfg).unwrap());
        assert!(!satisfies_sentence(&all, &db, &[], &cfg).unwrap());
    }
}
