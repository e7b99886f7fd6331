//! Prepare-time lowering of recognised calculus shapes: the one recogniser
//! the prepare pipeline and the incremental engine share.
//!
//! Two shapes are recognised:
//!
//! * [`lower_to_algebra`] — the conjunctive fragment of `CALC_{0,0}`: a flat
//!   target and an ∃-prefix of flat variables over a conjunction of
//!   predicate, `≈` and `¬≈` atoms, lowered straight to a σ/π/× expression
//!   over the schema's relations.  These are the conjunctive queries with
//!   disequalities, the target class of the semijoin-query analysis of
//!   Leinders, Tyszkiewicz and Van den Bussche.
//! * [`lower_least_fixpoint`] — the least-fixpoint fragment of `CALC_{0,1}`:
//!   `{t/T | ∀X/{T} (φ → t ∈ X)}` for a flat `T`, where each conjunct of `φ`
//!   is a Horn closure condition on `X` (lowered to one Datalog rule deriving
//!   `X`, through the same class machinery) or an element-wise guard
//!   `∀y/T (y ∈ X → ψ(y))` with `ψ` positive existential.  Example 3.1's
//!   closure is two rules and one guard.
//!
//! [`Engine::prepare`](crate::engine::Engine::prepare) plans a conjunctive
//! query's expression once, so its limited interpretation runs as
//! set-at-a-time hash joins instead of enumerating its quantifier domains; a
//! least-fixpoint query runs its rules semi-naively and checks its guards on
//! the least model ([`LeastFixpoint::run`]).
//! [`IncrementalDb`](crate::incremental::IncrementalDb) re-executes a
//! watched conjunctive view through that plan, and keeps a least-fixpoint
//! view's least model warm, extending it on insertions
//! ([`LeastFixpoint::extend`]).
//!
//! Why the expression's answer is the limited interpretation's: the `≈`
//! atoms merge coordinates and constants into classes, and the product has
//! one column per literal coordinate.  Its selections keep a row exactly
//! when the columns of each class agree with each other and with the
//! class's constant, and the classes of each `¬≈` differ.  Every answer
//! coordinate lies in a class with a column or a constant, and every `¬≈`
//! side in one with a column, so their values are read from the database or
//! from `Q`; any other class is witnessed by its constant (in `adom(Q)`) or,
//! having none, by any atom of the range `adom(d) ∪ adom(Q)`, which a
//! matched literal makes non-empty.
//!
//! Why a least-fixpoint query's answer is the least model `LM` of its rules
//! `H` when its guards `G` hold on `LM`: `X` ranges over subsets of
//! `cons_X(T)` for the range `adom(d) ∪ adom(Q)`, and `LM` is built from the
//! same atoms.  Horn models are closed under intersection, so every model of
//! `H` contains `LM`; if `G(LM)` holds, `LM` is itself a model of `φ`, and the
//! intersection of all of them is `LM`.  A Horn condition's conclusion may
//! only equate its fresh `w` with premise terms or constants, never two of
//! those with each other, so a rule fires exactly when the condition demands
//! a member of `X`.  Guards are closed under subsets, so when one fails on
//! `LM` no model exists; the pipeline then leaves the answer to the
//! enumeration.
//!
//! Why one run of either route answers every invention level: at level `n`
//! the range gains `n` invented atoms, and neither answer changes.  A
//! conjunctive expression reads every answer coordinate from the database or
//! `Q`, and the witnesses above need only a non-empty range.  A least-fixpoint
//! query's rules are range-restricted, so `LM` is built from the same atoms
//! at every level, and the intersection argument holds over the wider
//! `cons_X(T)`.  Its guards are positive existential with `y` as their only
//! free variable, and such a guard holds on an element `e` of `LM` at level
//! `n` iff it holds at level 0.  A level-0 witness is a level-`n` one,
//! because extending the range keeps every witness.  Conversely, map every
//! invented atom to one atom of `e` and every other atom to itself: a
//! relation or a constant holds no invented atom and equalities survive any
//! map, so the map pulls a level-`n` witness back to a level-0 one.  Hence
//! `Q|_n[d] = Q|_0[d]`, with no invented atom in the unrestricted answer:
//! finite invention is the limited answer, stable from level 1, and
//! terminal invention is undefined within any bound.  A guard that fails on
//! `LM` fails at every level, and the enumeration answers all of them.

use crate::engine::EngineError;
use itq_algebra::{AlgExpr, SelFormula};
use itq_calculus::eval::{holds_for_each, EvalConfig};
use itq_calculus::{CalcError, Formula, Query, Term};
use itq_object::{conform, Atom, Database, ExecStats, Instance, Interrupt, Schema, Type, Value};
use itq_relational::{DatalogAtom, Program, Relation, RelationStore, Rule, TermPattern};
use std::collections::BTreeMap;

/// The reserved predicate that names a least-fixpoint query's set variable
/// `X` in its rules.
pub(crate) const VIEW_PRED: &str = "__view__";

/// The width of a flat type: 1 for `U`, `n` for `[U,…,U]`, `None` otherwise.
fn flat_width(ty: &Type) -> Option<usize> {
    match ty {
        Type::Atomic => Some(1),
        Type::Tuple(components) if components.iter().all(|c| matches!(c, Type::Atomic)) => {
            Some(components.len())
        }
        _ => None,
    }
}

/// The width of a flat answer type: width-1 tuples are excluded.  The
/// least-fixpoint route builds its answer with [`Relation::to_instance`],
/// through which they cannot round-trip; the conjunctive route declines them
/// too, keeping its fragment.
fn answer_width(ty: &Type) -> Option<usize> {
    match ty {
        Type::Tuple(c) if c.len() == 1 => None,
        _ => flat_width(ty),
    }
}

/// A flat value as an atom tuple: `a ↦ [a]`, `[a1,…,an] ↦ [a1,…,an]`.
fn flat_tuple_of(value: &Value) -> Option<Vec<Atom>> {
    match value {
        Value::Atom(a) => Some(vec![*a]),
        Value::Tuple(components) => components.iter().map(Value::as_atom).collect(),
        Value::Set(_) => None,
    }
}

/// The conjuncts of a formula: the members of a top-level `∧`, or itself.
fn conjuncts(formula: &Formula) -> &[Formula] {
    match formula {
        Formula::And(fs) => fs,
        other => std::slice::from_ref(other),
    }
}

/// A coordinate of a flat variable, or a constant — the nodes the equality
/// conjuncts of a conjunctive body merge into classes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ClassKey {
    Coord(String, usize),
    Const(Atom),
}

#[derive(Default)]
struct Classes {
    index: BTreeMap<ClassKey, usize>,
    parent: Vec<usize>,
}

impl Classes {
    fn node(&mut self, key: ClassKey) -> usize {
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.index.insert(key, i);
        i
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// One conjunction being lowered: the flat variables in scope, their
/// coordinates and the constants merged into classes by `≈` atoms, the body
/// literals over class nodes, and the `¬≈` pairs.
struct Lowering<'q> {
    schema: &'q Schema,
    /// The set variable of a least-fixpoint body and its element width: a
    /// `s ∈ X` atom is a literal of [`VIEW_PRED`].
    set: Option<(&'q str, usize)>,
    widths: BTreeMap<String, usize>,
    classes: Classes,
    literals: Vec<(String, Vec<usize>)>,
    neqs: Vec<(usize, usize)>,
}

impl<'q> Lowering<'q> {
    fn new(schema: &'q Schema, set: Option<(&'q str, usize)>) -> Lowering<'q> {
        Lowering {
            schema,
            set,
            widths: BTreeMap::new(),
            classes: Classes::default(),
            literals: Vec::new(),
            neqs: Vec::new(),
        }
    }

    /// Bring a flat variable into scope; shadowing stays out of the fragment.
    fn bind(&mut self, var: &str, ty: &Type) -> Option<()> {
        if self.widths.contains_key(var) || self.set.is_some_and(|(set, _)| set == var) {
            return None;
        }
        self.widths.insert(var.to_string(), flat_width(ty)?);
        Some(())
    }

    /// The class key of an atomic term: a constant, a `U` variable, or a
    /// projection of a wide variable.
    fn key(&self, t: &Term) -> Option<ClassKey> {
        match t {
            Term::Const(a) => Some(ClassKey::Const(*a)),
            Term::Var(v) => (*self.widths.get(v)? == 1).then(|| ClassKey::Coord(v.clone(), 1)),
            Term::Proj(v, i) => {
                (*i >= 1 && *i <= *self.widths.get(v)?).then(|| ClassKey::Coord(v.clone(), *i))
            }
        }
    }

    /// The class keys of a term read at `width`: every coordinate of an
    /// equally wide variable, or the one key of an atomic term.
    fn coords(&self, t: &Term, width: usize) -> Option<Vec<ClassKey>> {
        match t {
            Term::Var(v) if width > 1 => (self.widths.get(v) == Some(&width))
                .then(|| (1..=width).map(|i| ClassKey::Coord(v.clone(), i)).collect()),
            _ if width == 1 => Some(vec![self.key(t)?]),
            _ => None,
        }
    }

    /// The node pairs an equality `a ≈ b` merges: whole equally wide
    /// variables coordinate-wise, atomic terms directly.
    fn equated(&mut self, a: &Term, b: &Term) -> Option<Vec<(usize, usize)>> {
        let wide = |t: &Term| match t {
            Term::Var(v) => self.widths.get(v).copied().filter(|&w| w > 1),
            _ => None,
        };
        let width = match (wide(a), wide(b)) {
            (Some(wa), Some(wb)) if wa == wb => wa,
            (None, None) => 1,
            _ => return None,
        };
        let (ka, kb) = (self.coords(a, width)?, self.coords(b, width)?);
        Some(
            ka.into_iter()
                .zip(kb)
                .map(|(ka, kb)| (self.classes.node(ka), self.classes.node(kb)))
                .collect(),
        )
    }

    /// Lower one conjunct: a predicate or `X`-membership literal, `≈`, or
    /// `¬≈`.
    fn conjunct(&mut self, conjunct: &Formula) -> Option<()> {
        let (name, width, t) = match conjunct {
            Formula::Pred(name, t) => (name.as_str(), flat_width(self.schema.type_of(name)?)?, t),
            Formula::Member(t, Term::Var(x)) => match self.set {
                Some((set, width)) if set == x => (VIEW_PRED, width, t),
                _ => return None,
            },
            Formula::Eq(a, b) => {
                for (na, nb) in self.equated(a, b)? {
                    self.classes.union(na, nb);
                }
                return Some(());
            }
            Formula::Not(inner) => {
                let Formula::Eq(a, b) = inner.as_ref() else {
                    return None;
                };
                let (na, nb) = (self.key(a)?, self.key(b)?);
                let pair = (self.classes.node(na), self.classes.node(nb));
                self.neqs.push(pair);
                return Some(());
            }
            _ => return None,
        };
        let keys = self.coords(t, width)?;
        let nodes = keys.into_iter().map(|k| self.classes.node(k)).collect();
        self.literals.push((name.to_string(), nodes));
        Some(())
    }

    /// Lower a conclusion's `≈` atom, which may only tie the fresh variable
    /// `w` to premise terms or constants: merging two classes that each hold
    /// a constant or a coordinate of another variable would turn a demand of
    /// the conclusion into a condition of the premise.
    fn conclusion_eq(&mut self, a: &Term, b: &Term, w: &str) -> Option<()> {
        for (na, nb) in self.equated(a, b)? {
            let (ra, rb) = (self.classes.find(na), self.classes.find(nb));
            if ra != rb && self.anchored(ra, w) && self.anchored(rb, w) {
                return None;
            }
            self.classes.union(ra, rb);
        }
        Some(())
    }

    /// True when the class rooted at `root` holds a constant or a coordinate
    /// of a variable other than `w`.
    fn anchored(&self, root: usize, w: &str) -> bool {
        self.classes.index.iter().any(|(key, &node)| {
            self.classes.find(node) == root && !matches!(key, ClassKey::Coord(v, _) if v == w)
        })
    }

    /// The head's nodes and the constant of each class that holds one, by
    /// root, or `None` when the body has no literal or a class equates two
    /// distinct constants.
    fn resolve(&mut self, head: Vec<ClassKey>) -> Option<(Vec<usize>, BTreeMap<usize, Atom>)> {
        if self.literals.is_empty() {
            return None;
        }
        let head = head.into_iter().map(|k| self.classes.node(k)).collect();
        let mut constants = BTreeMap::new();
        for (key, &node) in &self.classes.index {
            if let ClassKey::Const(a) = key {
                if *constants.entry(self.classes.find(node)).or_insert(*a) != *a {
                    return None;
                }
            }
        }
        Some((head, constants))
    }

    /// The rule `VIEW_PRED(head) :- literals` of a Horn condition, or `None`
    /// when it has no body literal, equates two distinct constants, or is not
    /// range restricted.  Each class becomes its constant or a variable
    /// `v<root>`.  [`horn_rule`] refuses `¬`, so the body has no `¬≈` pair.
    fn rule(mut self, head: Vec<ClassKey>) -> Option<Rule> {
        let (head, constants) = self.resolve(head)?;
        let term_for = |node: usize| -> TermPattern {
            let root = self.classes.find(node);
            match constants.get(&root) {
                Some(a) => TermPattern::Const(*a),
                None => TermPattern::Var(format!("v{root}")),
            }
        };
        let head_terms = head.into_iter().map(term_for).collect();
        let body_atoms = self
            .literals
            .iter()
            .map(|(name, nodes)| {
                DatalogAtom::new(name, nodes.iter().map(|&n| term_for(n)).collect())
            })
            .collect();
        let rule = Rule::new(DatalogAtom::new(VIEW_PRED, head_terms), body_atoms);
        rule.is_range_restricted().then_some(rule)
    }

    /// The σ/π/× expression of a conjunctive body whose answer is `head`, of
    /// type `target`: the literals' left-deep product (then one singleton
    /// per head constant), each `≈` and `¬≈` selected at the first product
    /// that binds both of its sides, a `$i = a` for every coordinate whose
    /// class holds the constant `a`, and the head projected out (untupled
    /// for a `U` target).  The planner turns each selected product into a
    /// hash join.  `None` when the body has no literal, equates two distinct
    /// constants, or leaves a head class unbound by every literal, or when a
    /// `¬≈` has both sides in one class, a side that holds a constant, or a
    /// side no literal binds.
    fn algebra(mut self, head: Vec<ClassKey>, target: &Type) -> Option<AlgExpr> {
        let (head, constants) = self.resolve(head)?;
        let classes = &self.classes;
        let mut factors = Vec::new();
        // The conjuncts each factor makes testable, in factor order.
        let mut stages: Vec<Vec<SelFormula>> = Vec::new();
        // The first coordinate of each class without a constant, by root,
        // and the factor of each coordinate.
        let mut first: BTreeMap<usize, usize> = BTreeMap::new();
        let mut factor_of = Vec::new();
        for (k, (name, nodes)) in self.literals.iter().enumerate() {
            factors.push(AlgExpr::pred(name));
            let mut conjuncts = Vec::new();
            for &node in nodes {
                factor_of.push(k);
                let coord = factor_of.len();
                let root = classes.find(node);
                if let Some(&a) = constants.get(&root) {
                    conjuncts.push(SelFormula::coord_is(coord, a));
                } else if let Some(&seen) = first.get(&root) {
                    conjuncts.push(SelFormula::coords_eq(seen, coord));
                } else {
                    first.insert(root, coord);
                }
            }
            stages.push(conjuncts);
        }
        for &(a, b) in &self.neqs {
            let (ra, rb) = (classes.find(a), classes.find(b));
            // ¬(x ≈ x) is never satisfiable, and a disequality against a
            // constant stays outside the fragment.
            if ra == rb || constants.contains_key(&ra) || constants.contains_key(&rb) {
                return None;
            }
            let (ca, cb) = (*first.get(&ra)?, *first.get(&rb)?);
            stages[factor_of[ca.max(cb) - 1]]
                .push(SelFormula::negate(SelFormula::coords_eq(ca, cb)));
        }
        let mut columns = Vec::with_capacity(head.len());
        for node in head {
            let root = classes.find(node);
            columns.push(match constants.get(&root) {
                Some(&a) => {
                    factors.push(AlgExpr::singleton(a));
                    stages.push(Vec::new());
                    factor_of.push(factors.len() - 1);
                    factor_of.len()
                }
                None => *first.get(&root)?,
            });
        }
        // A head that lists the product's coordinates in order needs no
        // projection when the product has the target type: two or more
        // factors multiply to `[U, …, U]` as wide as the head, and a lone
        // relation has its declared type.
        let project = !columns.iter().copied().eq(1..=factor_of.len())
            || factors.len() == 1 && self.schema.type_of(&self.literals[0].0) != Some(target);
        // The first factor's own conjuncts wait for the first product: a
        // selection needs tuples, and a lone `U` relation has none.
        let mut factors = factors.into_iter();
        let mut stages = stages.into_iter();
        let mut expr = factors.next()?;
        let mut pending = stages.next()?;
        for (factor, conjuncts) in factors.zip(stages) {
            pending.extend(conjuncts);
            expr = expr.product(factor);
            if !pending.is_empty() {
                expr = expr.select(SelFormula::all(std::mem::take(&mut pending)));
            }
        }
        if !pending.is_empty() {
            expr = expr.select(SelFormula::all(pending));
        }
        if project {
            expr = expr.project(columns);
            if *target == Type::Atomic {
                expr = expr.untuple();
            }
        }
        Some(expr)
    }
}

/// Lower a conjunctive calculus query to its σ/π/× expression over the
/// schema's relations, or `None` when the query falls outside the fragment:
///
/// * the target type is `U` or `[U,…,U]` with width ≥ 2;
/// * the body is an ∃-prefix of flat-typed variables over a conjunction of
///   `P(x)`, `s ≈ t`, and `¬(s ≈ t)` conjuncts;
/// * some conjunct is a predicate, every answer coordinate and every side of
///   a `¬≈` is bound by one, no two distinct constants are equated, and no
///   `¬≈` side holds a constant or shares its class with the other side.
pub(crate) fn lower_to_algebra(query: &Query) -> Option<AlgExpr> {
    let target = query.target();
    let width = answer_width(query.target_type())?;
    let mut lowering = Lowering::new(query.schema(), None);
    lowering.bind(target, query.target_type())?;
    let mut body = query.body();
    while let Formula::Exists(v, ty, inner) = body {
        lowering.bind(v, ty)?;
        body = inner;
    }
    for conjunct in conjuncts(body) {
        lowering.conjunct(conjunct)?;
    }
    let head = lowering.coords(&Term::var(target), width)?;
    lowering.algebra(head, query.target_type())
}

/// A least-fixpoint query lowered to Datalog: its Horn conditions as rules
/// deriving [`VIEW_PRED`] (the set variable `X`), and its element-wise
/// guards.  The answer is the least model of the rules when every guard holds
/// on each of its elements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LeastFixpoint {
    /// One rule per Horn condition, in conjunct order.
    pub(crate) program: Program,
    /// Each guard `∀y/T (y ∈ X → ψ(y))` as `(y, ψ)`.
    pub(crate) guards: Vec<(String, Formula)>,
    width: usize,
}

/// Recognise a least-fixpoint query and lower it, or `None` when the query
/// falls outside the fragment:
///
/// * the body is `∀X/{T} (φ → t ∈ X)` with `T` the target type, `U` or
///   `[U,…,U]` with width ≠ 1;
/// * no conjunct of `φ` has `t` free;
/// * every conjunct is an element-wise guard `∀y/T (y ∈ X → ψ(y))`, where `ψ`
///   is built from `∃`, `∧`, `∨`, predicate and `≈` atoms and has no free
///   variable but `y`, or a Horn condition `∀ȳ (B → w ∈ X)` or
///   `∀ȳ (B → ∃w/T (w ∈ X ∧ E))` over flat `ȳ`, where `B` is a conjunction of
///   predicate, `s ∈ X` and `≈` atoms and `E` one of `≈` atoms, which lowers
///   to a range-restricted rule;
/// * at least one conjunct is a Horn condition;
/// * the schema has no relation named [`VIEW_PRED`], the name the rules give
///   `X`.
///
/// Prepare runs this on every calculus query, so it returns at the body's
/// first node unless that node is `∀X/{T}`.
pub(crate) fn lower_least_fixpoint(query: &Query) -> Option<LeastFixpoint> {
    let Formula::Forall(set, Type::Set(elem), inner) = query.body() else {
        return None;
    };
    if query.schema().type_of(VIEW_PRED).is_some() {
        return None;
    }
    let target = query.target();
    let width = answer_width(elem)?;
    let Formula::Implies(phi, goal) = inner.as_ref() else {
        return None;
    };
    if **elem != *query.target_type()
        || set == target
        || **goal != Formula::member(Term::var(target), Term::var(set))
    {
        return None;
    }
    let (mut rules, mut guards) = (Vec::new(), Vec::new());
    for conjunct in conjuncts(phi) {
        // Free variables, not names: a guard may rebind the target's name.
        if conjunct.free_vars().contains(target) {
            return None;
        }
        match guard(conjunct, set, elem) {
            Some(guard) => guards.push(guard),
            None => rules.push(horn_rule(conjunct, set, width, query.schema())?),
        }
    }
    (!rules.is_empty()).then(|| LeastFixpoint {
        program: Program::new(rules),
        guards,
        width,
    })
}

/// An element-wise guard `∀y/T (y ∈ X → ψ(y))` as `(y, ψ)`.
fn guard(conjunct: &Formula, set: &str, elem: &Type) -> Option<(String, Formula)> {
    fn positive_existential(f: &Formula) -> bool {
        match f {
            Formula::Pred(..) | Formula::Eq(..) => true,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(positive_existential),
            Formula::Exists(_, _, body) => positive_existential(body),
            _ => false,
        }
    }
    let Formula::Forall(y, ty, inner) = conjunct else {
        return None;
    };
    let Formula::Implies(premise, psi) = inner.as_ref() else {
        return None;
    };
    let is_guard = ty == elem
        && **premise == Formula::member(Term::var(y), Term::var(set))
        && positive_existential(psi)
        && psi.free_vars().iter().all(|v| v == y);
    is_guard.then(|| (y.clone(), (**psi).clone()))
}

/// A Horn condition on `X` lowered to the rule deriving its conclusion.
fn horn_rule(conjunct: &Formula, set: &str, width: usize, schema: &Schema) -> Option<Rule> {
    let mut lowering = Lowering::new(schema, Some((set, width)));
    let mut body = conjunct;
    while let Formula::Forall(v, ty, inner) = body {
        lowering.bind(v, ty)?;
        body = inner;
    }
    let Formula::Implies(premise, conclusion) = body else {
        return None;
    };
    for atom in conjuncts(premise) {
        if matches!(atom, Formula::Not(_)) {
            return None;
        }
        lowering.conjunct(atom)?;
    }
    let head = match conclusion.as_ref() {
        Formula::Member(w, Term::Var(x)) if x == set => lowering.coords(w, width)?,
        Formula::Exists(w, ty, demand) => {
            lowering.bind(w, ty)?;
            let member = Formula::member(Term::var(w), Term::var(set));
            let mut members = 0;
            for atom in conjuncts(demand) {
                match atom {
                    Formula::Eq(a, b) => lowering.conclusion_eq(a, b, w)?,
                    _ if *atom == member => members += 1,
                    _ => return None,
                }
            }
            if members != 1 {
                return None;
            }
            lowering.coords(&Term::var(w), width)?
        }
        _ => return None,
    };
    lowering.rule(head)
}

/// One from-scratch run of the least-fixpoint route that answered.
pub(crate) struct FixpointRun {
    /// The least model, as the query's answer.
    pub(crate) answer: Instance,
    /// Semi-naive rounds run.
    pub(crate) rounds: u64,
    /// The guard check's evaluator counters.
    pub(crate) stats: ExecStats,
}

impl LeastFixpoint {
    /// Run the route for `query` on `db`: poll `interrupt` on entry, compute
    /// the least model, and check every guard on each of its elements over
    /// `adom(d) ∪ adom(Q)`, all under `interrupt`.  `Ok(None)` when a guard
    /// fails, so that no model exists, or when `db` lacks a relation the
    /// rules read; the enumeration must answer either way.
    pub(crate) fn run(
        &self,
        query: &Query,
        db: &Database,
        interrupt: &Interrupt,
    ) -> Result<Option<FixpointRun>, EngineError> {
        interrupt.check(0)?;
        let Some(edb) = self.edb(db) else {
            return Ok(None);
        };
        let mut store = RelationStore::new();
        store.insert(VIEW_PRED.to_string(), Relation::empty(self.width));
        let rounds = self.program.evaluate_delta(&mut store, edb, interrupt)?;
        let answer = store[VIEW_PRED].to_instance();
        let (holds, stats) = self.check_guards(query, &answer, db, interrupt)?;
        Ok(holds.then_some(FixpointRun {
            answer,
            rounds,
            stats,
        }))
    }

    /// Extend `model`, the route's answer on `db` before `added` was
    /// inserted into `pred`, to the answer on `db`: seed the rules with the
    /// inserted facts over the relations they read (rebuilt from `db`) and
    /// the warm model, then check the guards on the new elements only, all
    /// under `interrupt`.  Sound because the rules and the guards are
    /// monotone under insertion.  Returns the new elements and the rounds
    /// run, or `Ok(None)` when a re-execution must answer: a guard fails,
    /// `db` lacks a relation the rules read, or [`conform`] refuses the
    /// delta.  The model was computed on relations of the query's schema, so
    /// only `added` can hold a value of another type (a database keeps the
    /// schema it was declared against, which may differ from the query's);
    /// the rules never read such a value, and the re-execution refuses it.
    pub(crate) fn extend(
        &self,
        query: &Query,
        model: &Instance,
        db: &Database,
        pred: &str,
        added: &[Value],
        interrupt: &Interrupt,
    ) -> Result<Option<(Instance, u64)>, EngineError> {
        let ty = query.schema().type_of(pred);
        if !ty.is_some_and(|ty| conform(pred, ty, added).is_ok()) {
            return Ok(None);
        }
        let Some(mut store) = self.edb(db) else {
            return Ok(None);
        };
        let mut delta = RelationStore::new();
        if let Some(read) = store.get(pred) {
            delta.insert(pred.to_string(), flat_relation(added, read.arity()));
        }
        let before = flat_relation(model.iter(), self.width);
        store.insert(VIEW_PRED.to_string(), before.clone());
        let rounds = self.program.evaluate_delta(&mut store, delta, interrupt)?;
        let fresh = store[VIEW_PRED].difference(&before).to_instance();
        let (holds, _) = self.check_guards(query, &fresh, db, interrupt)?;
        Ok(holds.then_some((fresh, rounds)))
    }

    /// The relations the rules read, as the Datalog EDB at each literal's
    /// width, or `None` when `db` lacks one of them.
    fn edb(&self, db: &Database) -> Option<RelationStore> {
        let mut edb = RelationStore::new();
        for literal in self.program.rules.iter().flat_map(|rule| &rule.body) {
            if literal.pred == VIEW_PRED || edb.contains_key(&literal.pred) {
                continue;
            }
            let instance = db.relation(&literal.pred)?;
            let relation = flat_relation(instance.iter(), literal.terms.len());
            edb.insert(literal.pred.clone(), relation);
        }
        Some(edb)
    }

    /// Check every guard on each of `elements` over `adom(d) ∪ adom(Q)`,
    /// polling `interrupt`.  Returns whether all held, with the evaluator's
    /// counters.
    fn check_guards(
        &self,
        query: &Query,
        elements: &Instance,
        db: &Database,
        interrupt: &Interrupt,
    ) -> Result<(bool, ExecStats), CalcError> {
        let mut total = ExecStats::default();
        if elements.is_empty() {
            return Ok((true, total));
        }
        let atoms: Vec<Atom> = query.evaluation_domain(db).into_iter().collect();
        for (var, psi) in &self.guards {
            let (holds, stats) = holds_for_each(
                psi,
                var,
                elements.iter(),
                db,
                &atoms,
                &EvalConfig::default(),
                interrupt,
            )?;
            total.merge(&stats);
            if !holds {
                return Ok((false, total));
            }
        }
        Ok((true, total))
    }
}

/// Flat values as a relation of the given width.
fn flat_relation<'v>(values: impl IntoIterator<Item = &'v Value>, width: usize) -> Relation {
    Relation::from_tuples(width, values.into_iter().filter_map(flat_tuple_of))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use itq_algebra::{JoinStrategy, PhysNode, PhysicalPlan};

    /// The plan of a query's conjunctive route, or `None` off the fragment.
    fn route(query: &Query) -> Option<PhysicalPlan> {
        itq_algebra::plan(&lower_to_algebra(query)?, query.schema()).ok()
    }

    #[test]
    fn lowering_covers_the_genealogy_shapes_and_rejects_the_rest() {
        let schema = queries::parent_schema().with("PERSON", Type::Atomic);
        let query = |target: Type, body: Formula| Query::new("t", target, body, schema.clone());
        let pair = Type::flat_tuple(2);
        let on_x =
            |conjuncts: Vec<Formula>| Formula::exists("x", pair.clone(), Formula::and(conjuncts));
        let par_x = || Formula::pred("PAR", Term::var("x"));
        let t_is_x = || Formula::eq(Term::var("t"), Term::var("x"));
        let a0 = || Term::Const(Atom(0));
        let shapes = [
            (
                "grandparent",
                queries::grandparent_query(),
                Some("hash-join [$2 = $1'] project π_{1,4}\n├─ scan PAR\n└─ scan PAR"),
            ),
            // The disequality is a residual of the join on the shared parent.
            (
                "sibling",
                queries::sibling_query(),
                Some("hash-join [$1 = $1'] residual{¬($2 = $4)} project π_{2,4}\n├─ scan PAR\n└─ scan PAR"),
            ),
            // Two whole variables are equated coordinate by coordinate.
            (
                "x ≈ y",
                query(
                    pair.clone(),
                    Formula::exists(
                        "y",
                        pair.clone(),
                        on_x(vec![
                            par_x(),
                            Formula::pred("PAR", Term::var("y")),
                            Formula::eq(Term::var("x"), Term::var("y")),
                            t_is_x(),
                        ]),
                    ),
                )
                .unwrap(),
                Some("hash-join [$1 = $1', $2 = $2'] project π_{1,2}\n├─ scan PAR\n└─ scan PAR"),
            ),
            (
                "a disequality against a constant",
                query(
                    pair.clone(),
                    on_x(vec![
                        par_x(),
                        Formula::not(Formula::eq(Term::proj("x", 1), a0())),
                        t_is_x(),
                    ]),
                )
                .unwrap(),
                None,
            ),
            (
                "a disequality within one class",
                query(
                    pair.clone(),
                    on_x(vec![
                        par_x(),
                        Formula::not(Formula::eq(Term::proj("x", 1), Term::proj("x", 1))),
                        t_is_x(),
                    ]),
                )
                .unwrap(),
                None,
            ),
            (
                "a [U] target",
                query(Type::flat_tuple(1), Formula::pred("PERSON", Term::proj("t", 1))).unwrap(),
                None,
            ),
            (
                "a body with no literal",
                query(Type::Atomic, Formula::eq(Term::var("t"), a0())).unwrap(),
                None,
            ),
            (
                "two distinct constants equated",
                query(
                    Type::Atomic,
                    Formula::and(vec![
                        Formula::pred("PERSON", Term::var("t")),
                        Formula::eq(a0(), Term::Const(Atom(1))),
                    ]),
                )
                .unwrap(),
                None,
            ),
            (
                "an unbound answer coordinate",
                query(pair.clone(), Formula::pred("PERSON", Term::proj("t", 1))).unwrap(),
                None,
            ),
            // The TC query quantifies over a set type.
            ("Example 3.1", queries::transitive_closure_query(), None),
        ];
        for (shape, query, render) in shapes {
            let plan = route(&query);
            assert_eq!(
                plan.as_ref().map(PhysicalPlan::render).as_deref(),
                render,
                "{shape}"
            );
            if let Some(plan) = plan {
                assert_eq!(plan.output_type(), query.target_type(), "{shape}");
            }
        }
    }

    #[test]
    fn constants_and_unary_targets_plan_to_their_target_type() {
        let schema = queries::parent_schema().with("PERSON", Type::Atomic);
        let query = |target: Type, body: Formula| Query::new("t", target, body, schema.clone());
        let shapes = [
            // {t/U | PERSON(t)} is the relation itself.
            (
                query(Type::Atomic, Formula::pred("PERSON", Term::var("t"))).unwrap(),
                "scan PERSON",
            ),
            // A head constant joins as a singleton: {t/[U,U] | PERSON(t.1) ∧ t.2 ≈ a0}.
            (
                query(
                    Type::flat_tuple(2),
                    Formula::and(vec![
                        Formula::pred("PERSON", Term::proj("t", 1)),
                        Formula::eq(Term::proj("t", 2), Term::Const(Atom(0))),
                    ]),
                )
                .unwrap(),
                "product ×\n├─ scan PERSON\n└─ const {a0}",
            ),
            // A `U` target over a pair relation is projected, then untupled.
            (
                query(
                    Type::Atomic,
                    Formula::exists(
                        "x",
                        Type::flat_tuple(2),
                        Formula::and(vec![
                            Formula::pred("PAR", Term::var("x")),
                            Formula::eq(Term::var("t"), Term::proj("x", 1)),
                        ]),
                    ),
                )
                .unwrap(),
                "untuple μ\n└─ project π_{1}\n   └─ scan PAR",
            ),
        ];
        for (query, render) in shapes {
            let plan = route(&query).unwrap();
            assert_eq!(plan.render(), render);
            assert_eq!(plan.output_type(), query.target_type());
        }
    }

    #[test]
    fn example_3_1_lowers_to_two_rules_and_one_guard() {
        let lfp = lower_least_fixpoint(&queries::transitive_closure_query()).unwrap();
        assert!(lfp.program.is_safe());
        let rules: Vec<String> = lfp.program.rules.iter().map(Rule::to_string).collect();
        assert_eq!(
            rules,
            [
                "__view__(v0, v1) :- PAR(v0, v1)",
                "__view__(v0, v3) :- __view__(v0, v1), __view__(v1, v3)",
            ]
        );
        // The guard rebinds the target's name `z` inside ψ.
        assert_eq!(lfp.guards.len(), 1);
        assert_eq!(lfp.guards[0].0, "y");
        // Neither the conjunctive lowering nor the least-fixpoint one takes
        // the other's shape.
        assert!(lower_least_fixpoint(&queries::grandparent_query()).is_none());
        assert!(lower_to_algebra(&queries::transitive_closure_query()).is_none());
    }

    #[test]
    fn least_fixpoint_near_misses_stay_on_the_enumeration() {
        let tc = queries::transitive_closure_query();
        let (set, target) = ("x", "z");
        let pair = Type::flat_tuple(2);
        let with_phi = |conjuncts: Vec<Formula>| {
            let body = Formula::forall(
                set,
                Type::set(pair.clone()),
                Formula::implies(
                    Formula::and(conjuncts),
                    Formula::member(Term::var(target), Term::var(set)),
                ),
            );
            tc.with_body(body).unwrap()
        };
        let par_in_x = |premise: Formula, head: Term| {
            Formula::forall(
                "y",
                pair.clone(),
                Formula::implies(premise, Formula::member(head, Term::var(set))),
            )
        };
        let base = par_in_x(Formula::pred("PAR", Term::var("y")), Term::var("y"));
        assert!(lower_least_fixpoint(&with_phi(vec![base.clone()])).is_some());
        // A negated premise.
        let negated = par_in_x(
            Formula::not(Formula::pred("PAR", Term::var("y"))),
            Term::var("y"),
        );
        assert!(lower_least_fixpoint(&with_phi(vec![base.clone(), negated])).is_none());
        // An unbound head coordinate: ∃w (w ∈ X ∧ w.1 ≈ y.1).
        let unbound = Formula::forall(
            "y",
            pair.clone(),
            Formula::implies(
                Formula::pred("PAR", Term::var("y")),
                Formula::exists(
                    "w",
                    pair.clone(),
                    Formula::and(vec![
                        Formula::member(Term::var("w"), Term::var(set)),
                        Formula::eq(Term::proj("w", 1), Term::proj("y", 1)),
                    ]),
                ),
            ),
        );
        assert!(lower_least_fixpoint(&with_phi(vec![base.clone(), unbound])).is_none());
        // A conclusion that would equate two premise terms.
        let conditional = Formula::forall(
            "y",
            pair.clone(),
            Formula::implies(
                Formula::pred("PAR", Term::var("y")),
                Formula::exists(
                    "w",
                    pair.clone(),
                    Formula::and(vec![
                        Formula::member(Term::var("w"), Term::var(set)),
                        Formula::eq(Term::var("w"), Term::var("y")),
                        Formula::eq(Term::proj("w", 1), Term::proj("y", 2)),
                    ]),
                ),
            ),
        );
        assert!(lower_least_fixpoint(&with_phi(vec![base.clone(), conditional])).is_none());
        // A conjunct that mentions the target.
        let mentions_t = par_in_x(
            Formula::and(vec![
                Formula::pred("PAR", Term::var("y")),
                Formula::pred("PAR", Term::var(target)),
            ]),
            Term::var("y"),
        );
        assert!(lower_least_fixpoint(&with_phi(vec![base.clone(), mentions_t])).is_none());
        // A guard alone derives nothing: no rule, no route.
        let guard_only = Formula::forall(
            "y",
            pair.clone(),
            Formula::implies(
                Formula::member(Term::var("y"), Term::var(set)),
                Formula::pred("PAR", Term::var("y")),
            ),
        );
        assert!(lower_least_fixpoint(&with_phi(vec![guard_only.clone()])).is_none());
        let guarded = lower_least_fixpoint(&with_phi(vec![base, guard_only])).unwrap();
        assert_eq!((guarded.program.rules.len(), guarded.guards.len()), (1, 1));
    }

    #[test]
    fn a_schema_relation_named_like_x_keeps_the_query_off_the_route() {
        // `__view__` would read as `X` in the rules, so the query stays on
        // the enumeration.
        let tc = queries::transitive_closure_query();
        let schema = tc.schema().clone().with(VIEW_PRED, Type::flat_tuple(2));
        let query = Query::new(
            tc.target(),
            tc.target_type().clone(),
            tc.body().clone(),
            schema,
        )
        .unwrap();
        assert!(lower_least_fixpoint(&query).is_none());
    }

    #[test]
    fn extend_adds_the_new_elements_unless_a_value_is_ill_typed_for_the_query() {
        let tc = queries::transitive_closure_query();
        let lfp = lower_least_fixpoint(&tc).unwrap();
        let edges = |pairs: &[(u32, u32)]| {
            Instance::from_pairs(pairs.iter().map(|&(a, b)| (Atom(a), Atom(b))))
        };
        let db = Database::single("PAR", edges(&[(0, 1), (1, 2)]));
        let added = [Value::pair(Atom(1), Atom(2))];
        let (fresh, rounds) = lfp
            .extend(
                &tc,
                &edges(&[(0, 1)]),
                &db,
                "PAR",
                &added,
                Interrupt::disarmed(),
            )
            .unwrap()
            .unwrap();
        assert_eq!(fresh, edges(&[(0, 2), (1, 2)]));
        assert!(rounds >= 1);
        // A database may keep `PAR : U` while the query reads pairs: the
        // atom is never read positionally, and a re-execution refuses it.
        let db = Database::single("PAR", Instance::from_atoms(vec![Atom(2)]));
        let added = [Value::atom(Atom(2))];
        let extended = lfp.extend(
            &tc,
            &Instance::empty(),
            &db,
            "PAR",
            &added,
            Interrupt::disarmed(),
        );
        assert!(extended.unwrap().is_none());
    }

    #[test]
    fn genealogy_rules_plan_to_the_algebra_exemplar_joins() {
        // Grandparent plans as π_{1,4}(σ_{$2=$3}(PAR × PAR)), the algebra `ga`.
        let ga = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let ga = itq_algebra::plan(&ga, &queries::parent_schema()).unwrap();
        let gp = route(&queries::grandparent_query()).unwrap();
        assert_eq!(gp.render(), ga.render());
        // Sibling keys on the shared parent; the disequality is a residual.
        let sib = route(&queries::sibling_query()).unwrap();
        assert!(matches!(
            sib.root(),
            PhysNode::Join { strategy: JoinStrategy::Hash { keys }, residual, .. }
                if keys == &[(1, 1)] && residual.len() == 1
        ));
    }
}
