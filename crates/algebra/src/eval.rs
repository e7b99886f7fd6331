//! Evaluation of algebraic expressions over database instances.
//!
//! Each operator follows the semantics sketched in Section 2 of the paper; the
//! only subtlety is the powerset operator, whose output is exponential in the size
//! of its operand, so evaluation carries an explicit budget ([`EvalConfig`]).

use crate::error::AlgError;
use crate::expr::{AlgExpr, SelFormula, SelTerm};
use crate::typing::infer_type;
use itq_object::govern::POLL_MASK;
use itq_object::{Database, ExecCtx, Instance, Interrupt, Schema, Value};
use itq_trace::Span;

/// Budgets for algebra evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Maximum number of objects any intermediate instance may hold (powerset and
    /// product results are checked against this before being materialised).
    pub max_instance: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_instance: 1 << 22,
        }
    }
}

impl EvalConfig {
    /// A small budget suitable for tests of budget handling.
    pub fn tiny() -> Self {
        EvalConfig { max_instance: 32 }
    }
}

impl AlgExpr {
    /// Evaluate this expression on a database instance.
    ///
    /// The expression is type-checked against the schema first, so evaluation
    /// never observes ill-typed intermediate results.
    pub fn eval(
        &self,
        db: &Database,
        schema: &Schema,
        config: &EvalConfig,
    ) -> Result<Instance, AlgError> {
        Ok(self.eval_ctx(db, schema, config, &ExecCtx::default())?.0)
    }

    /// [`AlgExpr::eval`] under an execution context: the evaluator polls
    /// `ctx.interrupt` once on entry and then at per-row granularity,
    /// surfacing deadline expiry, cancellation, and injected faults as
    /// [`AlgError::Resource`].  This backend never interns, so its memory
    /// footprint reported to the governor is always 0, and it runs
    /// sequentially at any `ctx.workers`.  When `ctx.traced` it returns one
    /// whole-evaluation span (it has no per-operator hooks).
    pub fn eval_ctx(
        &self,
        db: &Database,
        schema: &Schema,
        config: &EvalConfig,
        ctx: &ExecCtx,
    ) -> Result<(Instance, Option<Span>), AlgError> {
        infer_type(self, schema)?;
        // Poll once before any work so a deadline of 0 ms (or a pre-set
        // cancel flag) trips even on expressions that would finish instantly.
        ctx.interrupt.check(0)?;
        let mut gov = Gov {
            interrupt: ctx.interrupt,
            ticks: 0,
        };
        let result = eval_unchecked(self, db, config, &mut gov)?;
        let span = ctx.traced.then(|| {
            let mut root = Span::new("tuple-algebra");
            root.push_field("rows_out", result.len() as u64);
            root
        });
        Ok((result, span))
    }
}

/// Per-evaluation governor state for the tuple-at-a-time path: a tick counter
/// polled at the masked cadence shared by every backend.
struct Gov<'a> {
    interrupt: &'a Interrupt,
    ticks: u64,
}

impl Gov<'_> {
    fn tick(&mut self) -> Result<(), AlgError> {
        self.ticks += 1;
        if self.ticks & POLL_MASK == 0 {
            self.interrupt.check(0)?;
        }
        Ok(())
    }
}

/// Flatten a value into the component list used by the Cartesian product
/// (`f` in the paper's definition (6)): tuples contribute their components,
/// atoms and sets contribute themselves.
fn flatten_components(v: &Value) -> Vec<Value> {
    match v {
        Value::Tuple(vs) => vs.clone(),
        other => vec![other.clone()],
    }
}

fn eval_unchecked(
    expr: &AlgExpr,
    db: &Database,
    config: &EvalConfig,
    gov: &mut Gov<'_>,
) -> Result<Instance, AlgError> {
    gov.tick()?;
    match expr {
        AlgExpr::Pred(p) => db
            .relation(p)
            .cloned()
            .ok_or_else(|| AlgError::UnknownPredicate { name: p.clone() }),
        AlgExpr::Singleton(a) => Ok(Instance::from_atoms(vec![*a])),
        AlgExpr::Union(a, b) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let ib = eval_unchecked(b, db, config, gov)?;
            Ok(Instance::from_values(ia.into_iter().chain(ib)))
        }
        AlgExpr::Intersect(a, b) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let ib = eval_unchecked(b, db, config, gov)?;
            Ok(Instance::from_values(
                ia.into_iter().filter(|v| ib.contains(v)),
            ))
        }
        AlgExpr::Diff(a, b) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let ib = eval_unchecked(b, db, config, gov)?;
            Ok(Instance::from_values(
                ia.into_iter().filter(|v| !ib.contains(v)),
            ))
        }
        AlgExpr::Project(coords, a) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let mut out = Instance::empty();
            for v in ia.iter() {
                gov.tick()?;
                let components = v.as_tuple().ok_or_else(|| AlgError::TypeMismatch {
                    operator: "projection".to_string(),
                    detail: format!("non-tuple value {v}"),
                })?;
                let mut selected = Vec::with_capacity(coords.len());
                for &c in coords {
                    let item = components.get(c - 1).ok_or(AlgError::BadCoordinate {
                        coordinate: c,
                        width: components.len(),
                    })?;
                    selected.push(item.clone());
                }
                out.insert(Value::Tuple(selected));
            }
            Ok(out)
        }
        AlgExpr::Select(sel, a) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let mut out = Instance::empty();
            for v in ia.iter() {
                gov.tick()?;
                let components = v.as_tuple().ok_or_else(|| AlgError::TypeMismatch {
                    operator: "selection".to_string(),
                    detail: format!("non-tuple value {v}"),
                })?;
                if eval_selection(sel, components)? {
                    out.insert(v.clone());
                }
            }
            Ok(out)
        }
        AlgExpr::Product(a, b) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let ib = eval_unchecked(b, db, config, gov)?;
            let expected = (ia.len() as u64).saturating_mul(ib.len() as u64);
            if expected > config.max_instance {
                return Err(AlgError::Budget {
                    what: format!("product of {} × {} objects", ia.len(), ib.len()),
                    limit: config.max_instance,
                });
            }
            let mut out = Instance::empty();
            for va in ia.iter() {
                for vb in ib.iter() {
                    gov.tick()?;
                    let mut components = flatten_components(va);
                    components.extend(flatten_components(vb));
                    out.insert(Value::Tuple(components));
                }
            }
            Ok(out)
        }
        AlgExpr::Untuple(a) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let mut out = Instance::empty();
            for v in ia.iter() {
                match v.as_tuple() {
                    Some([inner]) => {
                        out.insert(inner.clone());
                    }
                    _ => {
                        return Err(AlgError::TypeMismatch {
                            operator: "untuple".to_string(),
                            detail: format!("value {v} is not a width-1 tuple"),
                        })
                    }
                }
            }
            Ok(out)
        }
        AlgExpr::Collapse(a) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let mut out = Instance::empty();
            for v in ia.iter() {
                let set = v.as_set().ok_or_else(|| AlgError::TypeMismatch {
                    operator: "collapse".to_string(),
                    detail: format!("value {v} is not a set"),
                })?;
                for item in set {
                    out.insert(item.clone());
                }
            }
            Ok(out)
        }
        AlgExpr::Powerset(a) => {
            let ia = eval_unchecked(a, db, config, gov)?;
            let n = ia.len();
            if n >= 63 || (1u64 << n) > config.max_instance {
                return Err(AlgError::Budget {
                    what: format!("powerset of an instance with {n} objects"),
                    limit: config.max_instance,
                });
            }
            let elements: Vec<&Value> = ia.iter().collect();
            let mut out = Instance::empty();
            for mask in 0u64..(1u64 << n) {
                gov.tick()?;
                let subset = elements
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, v)| (*v).clone());
                out.insert(Value::set(subset));
            }
            Ok(out)
        }
    }
}

fn sel_term_value<'a>(term: &'a SelTerm, components: &'a [Value]) -> Result<Value, AlgError> {
    match term {
        SelTerm::Const(a) => Ok(Value::Atom(*a)),
        SelTerm::Coord(i) => components
            .get(*i - 1)
            .cloned()
            .ok_or(AlgError::BadCoordinate {
                coordinate: *i,
                width: components.len(),
            }),
    }
}

/// Evaluate a selection formula on the components of one tuple.
pub fn eval_selection(sel: &SelFormula, components: &[Value]) -> Result<bool, AlgError> {
    match sel {
        SelFormula::Eq(t1, t2) => {
            Ok(sel_term_value(t1, components)? == sel_term_value(t2, components)?)
        }
        SelFormula::In(t1, t2) => {
            let elem = sel_term_value(t1, components)?;
            let container = sel_term_value(t2, components)?;
            Ok(elem.is_member_of(&container))
        }
        SelFormula::Not(f) => Ok(!eval_selection(f, components)?),
        SelFormula::And(fs) => {
            for f in fs {
                if !eval_selection(f, components)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        SelFormula::Or(fs) => {
            for f in fs {
                if eval_selection(f, components)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        SelFormula::Implies(f1, f2) => {
            Ok(!eval_selection(f1, components)? || eval_selection(f2, components)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_object::{Atom, Type};

    fn schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2)).with("PERSON", Type::Atomic)
    }

    fn db() -> Database {
        Database::single(
            "PAR",
            Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
        )
        .with(
            "PERSON",
            Instance::from_atoms(vec![Atom(0), Atom(1), Atom(2)]),
        )
    }

    #[test]
    fn base_and_set_operators() {
        let cfg = EvalConfig::default();
        let par = AlgExpr::pred("PAR").eval(&db(), &schema(), &cfg).unwrap();
        assert_eq!(par.len(), 2);
        let single = AlgExpr::singleton(Atom(7))
            .eval(&db(), &schema(), &cfg)
            .unwrap();
        assert_eq!(single, Instance::from_atoms(vec![Atom(7)]));
        let both = AlgExpr::pred("PAR")
            .union(AlgExpr::pred("PAR"))
            .eval(&db(), &schema(), &cfg)
            .unwrap();
        assert_eq!(both.len(), 2);
        let none = AlgExpr::pred("PAR")
            .diff(AlgExpr::pred("PAR"))
            .eval(&db(), &schema(), &cfg)
            .unwrap();
        assert!(none.is_empty());
        let same = AlgExpr::pred("PAR")
            .intersect(AlgExpr::pred("PAR"))
            .eval(&db(), &schema(), &cfg)
            .unwrap();
        assert_eq!(same.len(), 2);
        assert!(AlgExpr::pred("NOPE").eval(&db(), &schema(), &cfg).is_err());
    }

    #[test]
    fn grandparent_via_product_select_project() {
        // π_{1,4}(σ_{$2=$3}(PAR × PAR)) — the algebraic counterpart of Example 2.4.
        let cfg = EvalConfig::default();
        let e = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4]);
        let out = e.eval(&db(), &schema(), &cfg).unwrap();
        assert_eq!(out, Instance::from_pairs(vec![(Atom(0), Atom(2))]));
    }

    #[test]
    fn selection_with_constants_and_connectives() {
        let cfg = EvalConfig::default();
        let e = AlgExpr::pred("PAR").select(SelFormula::all(vec![
            SelFormula::coord_is(1, Atom(0)),
            SelFormula::negate(SelFormula::coords_eq(1, 2)),
        ]));
        let out = e.eval(&db(), &schema(), &cfg).unwrap();
        assert_eq!(out, Instance::from_pairs(vec![(Atom(0), Atom(1))]));
        let e2 = AlgExpr::pred("PAR").select(SelFormula::implies(
            SelFormula::coord_is(1, Atom(0)),
            SelFormula::coord_is(2, Atom(1)),
        ));
        assert_eq!(e2.eval(&db(), &schema(), &cfg).unwrap().len(), 2);
        let e3 = AlgExpr::pred("PAR").select(SelFormula::any(vec![]));
        assert!(e3.eval(&db(), &schema(), &cfg).unwrap().is_empty());
    }

    #[test]
    fn untuple_and_projection_width_one() {
        let cfg = EvalConfig::default();
        let firsts = AlgExpr::pred("PAR").project(vec![1]).untuple();
        let out = firsts.eval(&db(), &schema(), &cfg).unwrap();
        assert_eq!(out, Instance::from_atoms(vec![Atom(0), Atom(1)]));
    }

    #[test]
    fn powerset_and_collapse_are_inverses_on_union() {
        let cfg = EvalConfig::default();
        let pow = AlgExpr::pred("PAR").powerset();
        let out = pow.clone().eval(&db(), &schema(), &cfg).unwrap();
        assert_eq!(out.len(), 4); // 2^2 subsets of a 2-element relation
        let back = pow.collapse().eval(&db(), &schema(), &cfg).unwrap();
        assert_eq!(
            back,
            AlgExpr::pred("PAR").eval(&db(), &schema(), &cfg).unwrap()
        );
    }

    #[test]
    fn powerset_budget_is_enforced() {
        let cfg = EvalConfig::tiny();
        // PERSON × PERSON has 9 tuples; its powerset has 512 > 32 subsets.
        let e = AlgExpr::pred("PERSON")
            .product(AlgExpr::pred("PERSON"))
            .powerset();
        assert!(matches!(
            e.eval(&db(), &schema(), &cfg),
            Err(AlgError::Budget { .. })
        ));
    }

    #[test]
    fn product_budget_is_enforced() {
        let cfg = EvalConfig { max_instance: 4 };
        let e = AlgExpr::pred("PERSON").product(AlgExpr::pred("PERSON"));
        assert!(matches!(
            e.eval(&db(), &schema(), &cfg),
            Err(AlgError::Budget { .. })
        ));
    }

    #[test]
    fn product_flattens_mixed_operands() {
        let cfg = EvalConfig::default();
        let e = AlgExpr::pred("PERSON").product(AlgExpr::pred("PAR"));
        let out = e.eval(&db(), &schema(), &cfg).unwrap();
        assert_eq!(out.len(), 6);
        for v in out.iter() {
            assert_eq!(v.as_tuple().unwrap().len(), 3);
        }
    }

    #[test]
    fn nested_membership_selection() {
        // Build a schema with a nested attribute and select by membership.
        let nested_schema = Schema::single(
            "N",
            Type::tuple(vec![Type::Atomic, Type::set(Type::Atomic)]),
        );
        let contents = Instance::from_values(vec![
            Value::tuple(vec![
                Value::Atom(Atom(0)),
                Value::set(vec![Value::Atom(Atom(0)), Value::Atom(Atom(1))]),
            ]),
            Value::tuple(vec![
                Value::Atom(Atom(2)),
                Value::set(vec![Value::Atom(Atom(1))]),
            ]),
        ]);
        let ndb = Database::single("N", contents);
        let e = AlgExpr::pred("N").select(SelFormula::coord_in(1, 2));
        let out = e
            .eval(&ndb, &nested_schema, &EvalConfig::default())
            .unwrap();
        assert_eq!(out.len(), 1);
    }
}
