//! Positive Datalog with semi-naive evaluation.
//!
//! The paper situates `CALC_{0,1}` relative to DATALOG¬ (stratified Datalog) and
//! the fixpoint queries; this module provides the positive-Datalog fixpoint
//! engine used as the polynomial-time baseline in the experiments.  Evaluation is
//! bottom-up and *semi-naive*: each round only fires rules against the facts
//! newly derived in the previous round.

use crate::relation::Relation;
use itq_object::{Atom as Constant, Interrupt, ResourceError};
use std::collections::BTreeMap;
use std::fmt;

/// A term of a Datalog literal: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermPattern {
    /// A named variable.
    Var(String),
    /// A constant atom.
    Const(Constant),
}

impl TermPattern {
    /// A variable term.
    pub fn var(name: &str) -> TermPattern {
        TermPattern::Var(name.to_string())
    }

    /// A constant term.
    pub fn constant(c: Constant) -> TermPattern {
        TermPattern::Const(c)
    }
}

/// A Datalog literal `P(t1, …, tn)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The predicate name.
    pub pred: String,
    /// The argument terms.
    pub terms: Vec<TermPattern>,
}

impl Atom {
    /// Build a literal.
    pub fn new(pred: &str, terms: Vec<TermPattern>) -> Atom {
        Atom {
            pred: pred.to_string(),
            terms,
        }
    }

    /// Build a literal whose arguments are all variables.
    pub fn vars(pred: &str, names: &[&str]) -> Atom {
        Atom::new(pred, names.iter().map(|n| TermPattern::var(n)).collect())
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match t {
                TermPattern::Var(v) => write!(f, "{v}")?,
                TermPattern::Const(c) => write!(f, "{c}")?,
            }
        }
        write!(f, ")")
    }
}

/// A Datalog rule `head :- body1, …, bodyn[, x != y, …]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head literal (an IDB predicate).
    pub head: Atom,
    /// The body literals.
    pub body: Vec<Atom>,
    /// Disequality constraints `x != y` between body-bound variables — the
    /// fragment needed to lower calculus conjuncts like `¬(x ≈ y)` into a rule.
    pub neq: Vec<(String, String)>,
}

impl Rule {
    /// Build a rule without disequality constraints.
    pub fn new(head: Atom, body: Vec<Atom>) -> Rule {
        Rule {
            head,
            body,
            neq: Vec::new(),
        }
    }

    /// Add a disequality constraint `left != right` to the rule.
    pub fn with_neq(mut self, left: &str, right: &str) -> Rule {
        self.neq.push((left.to_string(), right.to_string()));
        self
    }

    /// True if every head and disequality variable occurs in the body (range
    /// restriction — needed for the bottom-up evaluation to be safe).
    pub fn is_range_restricted(&self) -> bool {
        let body_binds = |v: &str| {
            self.body.iter().any(|b| {
                b.terms
                    .iter()
                    .any(|bt| matches!(bt, TermPattern::Var(w) if w == v))
            })
        };
        self.head.terms.iter().all(|t| match t {
            TermPattern::Const(_) => true,
            TermPattern::Var(v) => body_binds(v),
        }) && self
            .neq
            .iter()
            .all(|(left, right)| body_binds(left) && body_binds(right))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, b) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        for (left, right) in &self.neq {
            write!(f, ", {left} != {right}")?;
        }
        Ok(())
    }
}

/// A positive Datalog program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules of the program.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Build a program from rules.
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// True if every rule is range restricted.
    pub fn is_safe(&self) -> bool {
        self.rules.iter().all(Rule::is_range_restricted)
    }

    /// Evaluate the program bottom-up (semi-naive) over the given EDB relations,
    /// returning all IDB (and EDB) relations at the least fixpoint.  The
    /// driver polls `interrupt` once per round (see [`crate::fixpoint`]).
    pub fn evaluate(
        &self,
        edb: &BTreeMap<String, Relation>,
        interrupt: &Interrupt,
    ) -> Result<BTreeMap<String, Relation>, ResourceError> {
        let mut total: BTreeMap<String, Relation> = BTreeMap::new();
        // Make sure every head predicate exists in the store, with its declared
        // arity, even if no facts are ever derived for it.
        for rule in &self.rules {
            total
                .entry(rule.head.pred.clone())
                .or_insert_with(|| Relation::empty(rule.head.terms.len()));
        }
        self.evaluate_delta(&mut total, edb.clone(), interrupt)?;
        Ok(total)
    }

    /// Maintain an existing fixpoint under insertion: `total` holds the current
    /// fixpoint (EDB and IDB) and `delta` the freshly inserted facts.  Runs the
    /// shared semi-naive driver until quiescence, absorbing everything newly
    /// derivable into `total`, and returns the number of productive rounds.
    ///
    /// With an empty `total` this *is* from-scratch evaluation; the delta seed
    /// then plays the role of the EDB.  Sound for insertions only — positive
    /// Datalog is monotone, so deletions require re-evaluation.  A tripped
    /// poll leaves `total` holding a subset of the new fixpoint.
    pub fn evaluate_delta(
        &self,
        total: &mut BTreeMap<String, Relation>,
        delta: BTreeMap<String, Relation>,
        interrupt: &Interrupt,
    ) -> Result<u64, ResourceError> {
        crate::fixpoint::seminaive_store(total, delta, interrupt, |total, delta| {
            self.fire_all(total, delta)
        })
    }

    /// Fire every rule at every delta position once, collecting the derived
    /// facts per head predicate.  Candidates may repeat facts already in
    /// `total`; the fixpoint driver filters them.
    fn fire_all(
        &self,
        total: &BTreeMap<String, Relation>,
        delta: &BTreeMap<String, Relation>,
    ) -> BTreeMap<String, Relation> {
        let mut derived: BTreeMap<String, Relation> = BTreeMap::new();
        for rule in &self.rules {
            // Semi-naive: require at least one body literal to match against
            // the delta from the previous round (on the first round delta is
            // the seed itself, so every rule fires).
            for delta_position in 0..rule.body.len() {
                let out = fire_rule(rule, total, delta, delta_position);
                derived
                    .entry(rule.head.pred.clone())
                    .or_insert_with(|| Relation::empty(rule.head.terms.len()))
                    .absorb(&out);
            }
        }
        derived
    }
}

type Substitution = BTreeMap<String, Constant>;

/// Evaluate one rule with the body literal at `delta_position` matched against
/// the delta store and the remaining literals against the total store.
fn fire_rule(
    rule: &Rule,
    total: &BTreeMap<String, Relation>,
    delta: &BTreeMap<String, Relation>,
    delta_position: usize,
) -> Relation {
    // Nullary heads are legitimate boolean predicates: the 0-ary relation is
    // either empty (false) or contains the single empty tuple (true).
    let arity = rule.head.terms.len();
    let mut out = Relation::empty(arity);
    let mut sub = Substitution::new();
    fire_rec(rule, total, delta, delta_position, 0, &mut sub, &mut out);
    out
}

fn fire_rec(
    rule: &Rule,
    total: &BTreeMap<String, Relation>,
    delta: &BTreeMap<String, Relation>,
    delta_position: usize,
    body_index: usize,
    sub: &mut Substitution,
    out: &mut Relation,
) {
    if body_index == rule.body.len() {
        // Disequality constraints apply once all body variables are bound; a
        // side no body literal binds (a rule that is not range-restricted)
        // simply never derives.
        for (left, right) in &rule.neq {
            match (sub.get(left), sub.get(right)) {
                (Some(l), Some(r)) if l != r => {}
                _ => return,
            }
        }
        if let Some(tuple) = instantiate(&rule.head, sub) {
            out.insert(tuple);
        }
        return;
    }
    let literal = &rule.body[body_index];
    let store = if body_index == delta_position {
        delta
    } else {
        total
    };
    let Some(relation) = store.get(&literal.pred) else {
        return;
    };
    for tuple in relation.iter() {
        if tuple.len() != literal.terms.len() {
            continue;
        }
        let mut bound: Vec<String> = Vec::new();
        let mut ok = true;
        for (term, value) in literal.terms.iter().zip(tuple) {
            match term {
                TermPattern::Const(c) => {
                    if c != value {
                        ok = false;
                        break;
                    }
                }
                TermPattern::Var(v) => match sub.get(v) {
                    Some(existing) if existing != value => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        sub.insert(v.clone(), *value);
                        bound.push(v.clone());
                    }
                },
            }
        }
        if ok {
            fire_rec(rule, total, delta, delta_position, body_index + 1, sub, out);
        }
        for v in bound {
            sub.remove(&v);
        }
    }
}

fn instantiate(head: &Atom, sub: &Substitution) -> Option<Vec<Constant>> {
    head.terms
        .iter()
        .map(|t| match t {
            TermPattern::Const(c) => Some(*c),
            TermPattern::Var(v) => sub.get(v).copied(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::transitive_closure_seminaive;

    fn a(n: u32) -> Constant {
        Constant(n)
    }

    fn tc_program() -> Program {
        // T(x,y) :- E(x,y).   T(x,z) :- T(x,y), E(y,z).
        Program::new(vec![
            Rule::new(
                Atom::vars("T", &["x", "y"]),
                vec![Atom::vars("E", &["x", "y"])],
            ),
            Rule::new(
                Atom::vars("T", &["x", "z"]),
                vec![Atom::vars("T", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            ),
        ])
    }

    #[test]
    fn transitive_closure_program_matches_direct_algorithm() {
        let edges =
            Relation::from_pairs(vec![(a(0), a(1)), (a(1), a(2)), (a(2), a(3)), (a(3), a(1))]);
        let mut edb = BTreeMap::new();
        edb.insert("E".to_string(), edges.clone());
        let result = tc_program().evaluate(&edb, Interrupt::disarmed()).unwrap();
        assert_eq!(result["T"], transitive_closure_seminaive(&edges));
        // The EDB is untouched.
        assert_eq!(result["E"], edges);
    }

    #[test]
    fn constants_in_rules_filter_derivations() {
        // Reaches0(x) :- T(x, a0): everything that can reach atom 0.
        let mut program = tc_program();
        program.rules.push(Rule::new(
            Atom::new("Reaches0", vec![TermPattern::var("x")]),
            vec![Atom::new(
                "T",
                vec![TermPattern::var("x"), TermPattern::constant(a(0))],
            )],
        ));
        let edges = Relation::from_pairs(vec![(a(1), a(0)), (a(2), a(1)), (a(3), a(4))]);
        let mut edb = BTreeMap::new();
        edb.insert("E".to_string(), edges);
        let result = program.evaluate(&edb, Interrupt::disarmed()).unwrap();
        let reaches = &result["Reaches0"];
        assert_eq!(reaches.len(), 2);
        assert!(reaches.contains(&[a(1)]));
        assert!(reaches.contains(&[a(2)]));
    }

    #[test]
    fn same_generation_program() {
        // sg(x,y) :- flat(x,y).  sg(x,y) :- up(x,u), sg(u,v), down(v,y).
        let program = Program::new(vec![
            Rule::new(
                Atom::vars("sg", &["x", "y"]),
                vec![Atom::vars("flat", &["x", "y"])],
            ),
            Rule::new(
                Atom::vars("sg", &["x", "y"]),
                vec![
                    Atom::vars("up", &["x", "u"]),
                    Atom::vars("sg", &["u", "v"]),
                    Atom::vars("down", &["v", "y"]),
                ],
            ),
        ]);
        assert!(program.is_safe());
        let mut edb = BTreeMap::new();
        edb.insert(
            "up".to_string(),
            Relation::from_pairs(vec![(a(1), a(3)), (a(2), a(4))]),
        );
        edb.insert("flat".to_string(), Relation::from_pairs(vec![(a(3), a(4))]));
        edb.insert(
            "down".to_string(),
            Relation::from_pairs(vec![(a(4), a(2)), (a(3), a(1))]),
        );
        let result = program.evaluate(&edb, Interrupt::disarmed()).unwrap();
        let sg = &result["sg"];
        assert!(sg.contains(&[a(3), a(4)]));
        assert!(sg.contains(&[a(1), a(2)]));
        assert_eq!(sg.len(), 2);
    }

    #[test]
    fn unsafe_rules_are_detected() {
        let unsafe_rule = Rule::new(
            Atom::vars("P", &["x", "y"]),
            vec![Atom::vars("E", &["x", "x"])],
        );
        assert!(!unsafe_rule.is_range_restricted());
        assert!(!Program::new(vec![unsafe_rule]).is_safe());
        let safe_with_const = Rule::new(
            Atom::new("P", vec![TermPattern::constant(a(7))]),
            vec![Atom::vars("E", &["x", "y"])],
        );
        assert!(safe_with_const.is_range_restricted());
    }

    #[test]
    fn empty_edb_produces_empty_idb() {
        let mut edb = BTreeMap::new();
        edb.insert("E".to_string(), Relation::empty(2));
        let result = tc_program().evaluate(&edb, Interrupt::disarmed()).unwrap();
        assert!(result["T"].is_empty());
    }

    #[test]
    fn nullary_heads_act_as_boolean_predicates() {
        // NonEmpty() :- E(x, y): true exactly when E holds at least one tuple.
        // Regression: this used to panic on an arity mismatch because the rule
        // output was forced to arity >= 1.
        let program = Program::new(vec![Rule::new(
            Atom::new("NonEmpty", vec![]),
            vec![Atom::vars("E", &["x", "y"])],
        )]);
        assert!(program.is_safe());
        let mut edb = BTreeMap::new();
        edb.insert("E".to_string(), Relation::from_pairs(vec![(a(0), a(1))]));
        let result = program.evaluate(&edb, Interrupt::disarmed()).unwrap();
        assert_eq!(result["NonEmpty"].arity(), 0);
        assert_eq!(result["NonEmpty"].len(), 1);
        assert!(result["NonEmpty"].contains(&[]));

        let mut empty = BTreeMap::new();
        empty.insert("E".to_string(), Relation::empty(2));
        let result = program.evaluate(&empty, Interrupt::disarmed()).unwrap();
        assert!(result["NonEmpty"].is_empty());
    }

    #[test]
    fn disequality_constraints_filter_derivations() {
        // P(x, y) :- E(x, y), x != y.
        let rule = Rule::new(
            Atom::vars("P", &["x", "y"]),
            vec![Atom::vars("E", &["x", "y"])],
        )
        .with_neq("x", "y");
        assert!(rule.is_range_restricted());
        assert_eq!(rule.to_string(), "P(x, y) :- E(x, y), x != y");
        let program = Program::new(vec![rule]);
        let mut edb = BTreeMap::new();
        edb.insert(
            "E".to_string(),
            Relation::from_pairs(vec![(a(0), a(0)), (a(0), a(1))]),
        );
        let result = program.evaluate(&edb, Interrupt::disarmed()).unwrap();
        assert_eq!(result["P"].len(), 1);
        assert!(result["P"].contains(&[a(0), a(1)]));

        // A disequality over a variable the body never binds is unsafe.
        let dangling = Rule::new(
            Atom::vars("P", &["x", "y"]),
            vec![Atom::vars("E", &["x", "y"])],
        )
        .with_neq("x", "z");
        assert!(!dangling.is_range_restricted());
    }

    #[test]
    fn evaluate_delta_maintains_the_fixpoint_under_insertion() {
        let program = tc_program();
        let edges = Relation::from_pairs(vec![(a(0), a(1)), (a(1), a(2))]);
        let mut total = BTreeMap::new();
        total.insert("T".to_string(), Relation::empty(2));
        let mut seed = BTreeMap::new();
        seed.insert("E".to_string(), edges.clone());
        program
            .evaluate_delta(&mut total, seed, Interrupt::disarmed())
            .unwrap();
        assert_eq!(total["T"], transitive_closure_seminaive(&edges));

        // Insert one edge and maintain the warm fixpoint instead of rerunning.
        let mut delta = BTreeMap::new();
        delta.insert("E".to_string(), Relation::from_pairs(vec![(a(2), a(3))]));
        let rounds = program
            .evaluate_delta(&mut total, delta, Interrupt::disarmed())
            .unwrap();
        assert!(rounds >= 1);
        let mut new_edges = edges.clone();
        new_edges.insert(vec![a(2), a(3)]);
        assert_eq!(total["T"], transitive_closure_seminaive(&new_edges));
    }

    #[test]
    fn evaluation_polls_the_interrupt_once_per_round() {
        use itq_object::TripKind;
        let mut edb = BTreeMap::new();
        edb.insert(
            "E".to_string(),
            Relation::from_pairs(vec![(a(0), a(1)), (a(1), a(2))]),
        );
        let counting = Interrupt::new().with_memory_ceiling(u64::MAX);
        tc_program().evaluate(&edb, &counting).unwrap();
        let polls = counting.polls();
        assert!(polls >= 2, "seed round plus derivation rounds");
        for nth in 1..=polls {
            let tripping = Interrupt::new().with_trip_after(nth, TripKind::Cancel);
            assert_eq!(
                tc_program().evaluate(&edb, &tripping),
                Err(ResourceError::Cancelled)
            );
        }
    }

    #[test]
    fn display_of_rules() {
        let rule = Rule::new(
            Atom::vars("T", &["x", "z"]),
            vec![Atom::vars("T", &["x", "y"]), Atom::vars("E", &["y", "z"])],
        );
        assert_eq!(rule.to_string(), "T(x, z) :- T(x, y), E(y, z)");
    }
}
