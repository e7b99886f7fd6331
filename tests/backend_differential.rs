//! Three-way cross-backend differential suite.
//!
//! Random small databases and random *well-typed* algebra expressions are run
//! through every execution path the engine now has:
//!
//! 1. **planned algebra** — the set-at-a-time physical plan (hash/member
//!    joins, pushed-down selections, fused projections) over row arenas;
//! 2. **tuple-at-a-time algebra** — the direct `AlgExpr::eval` evaluator;
//! 3. **the Theorem 3.8 calculus route** — the expression's `CALC_{k,i}`
//!    translation, itself executed through *both* calculus evaluators (the
//!    compiled slot evaluator and the tree walker, its reference).
//!
//! The contract, checked under default and tiny budgets and under all three
//! semantics of the prepared pipeline:
//!
//! * the two algebra paths are **byte-identical**: same answers, same
//!   [`AlgError`] classification (budget messages included);
//! * the two calculus paths are byte-identical to each other (extending
//!   `tests/compiled_equivalence.rs` to translated queries);
//! * whenever an algebra path and a calculus path both succeed, their answers
//!   coincide (Theorem 3.8 + planner correctness) — the budgets themselves
//!   are language-specific, so a powerset the algebra materialises directly
//!   may exhaust the calculus quantifier budget, and only the *answers* are
//!   comparable across the language boundary;
//! * `Prepared::execute` outcomes (answers, boundedness flags, defining /
//!   stabilisation levels, error classification) agree between planner-on
//!   and planner-off engines for every semantics, and with the tree walker
//!   run directly on the Theorem 3.8 translation under the invention
//!   semantics, which one run of either algebra evaluator answers (where the
//!   walker fails on its budget, with the limited answer); each backend's
//!   statistics keep their shape (planner counters zero off the planned
//!   path, calculus counters zero on the algebra paths).
//!
//! A fourth path is checked on recipe-generated *conjunctive calculus*
//! queries: the default engine runs each one in the conjunctive fragment
//! through a physical plan, and its answers and error strings must equal the
//! tree walker's.  A fifth is checked on recipe-generated *least-fixpoint*
//! queries of `CALC_{0,1}`, which the default engine answers semi-naively
//! when their guards hold on the least model.
//!
//! On recipe-generated databases of *another schema*, every path refuses a
//! relation its handle reads that holds a value of another type, under
//! every semantics, with one error and one text.

use itq::fault::FaultRng;
use itq::walker::{assert_matches_walker, walker_outcome};
use itq_algebra::EvalConfig as AlgConfig;
use itq_algebra::{plan, to_calculus_query, AlgExpr, PhysNode, SelFormula, SelTerm};
use itq_calculus::compile::compile;
use itq_calculus::CalcError;
use itq_core::prelude::*;
use itq_invention::InventionError;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn schema() -> Schema {
    Schema::single("PAR", Type::flat_tuple(2)).with("PERSON", Type::Atomic)
}

/// Databases over at most three atoms: large enough to exercise joins and
/// powersets, small enough that the translated calculus queries (whose
/// quantifier domains reach 2^(n²)) stay affordable for the tree walker.
fn small_db() -> BoxedStrategy<Database> {
    (
        proptest::collection::vec((0u32..3, 0u32..3), 0..5),
        proptest::collection::vec(0u32..3, 0..4),
    )
        .prop_map(|(edges, people)| {
            let pairs: Vec<(Atom, Atom)> =
                edges.into_iter().map(|(a, b)| (Atom(a), Atom(b))).collect();
            Database::single("PAR", Instance::from_pairs(pairs))
                .with("PERSON", Instance::from_atoms(people.into_iter().map(Atom)))
        })
        .boxed()
}

/// A deterministic well-typed selection formula for a tuple type, chosen by
/// `arg`: coordinate equalities between equally-typed coordinates, membership
/// when a set coordinate matches an element coordinate, constant tests on
/// atomic coordinates, and negation/implication wrappers — falling back to ⊤.
fn selection_for(components: &[Type], arg: usize) -> SelFormula {
    let mut eq_pairs = Vec::new();
    let mut in_pairs = Vec::new();
    let mut atomics = Vec::new();
    for (i, ti) in components.iter().enumerate() {
        if *ti == Type::Atomic {
            atomics.push(i + 1);
        }
        for (j, tj) in components.iter().enumerate() {
            if i != j && ti == tj {
                eq_pairs.push((i + 1, j + 1));
            }
            if i != j && tj.element() == Some(ti) {
                in_pairs.push((i + 1, j + 1));
            }
        }
    }
    let pick = |v: &Vec<(usize, usize)>| v[arg / 7 % v.len()];
    match arg % 7 {
        0 | 1 if !eq_pairs.is_empty() => {
            let (i, j) = pick(&eq_pairs);
            SelFormula::coords_eq(i, j)
        }
        2 if !in_pairs.is_empty() => {
            let (i, j) = pick(&in_pairs);
            SelFormula::In(SelTerm::Coord(i), SelTerm::Coord(j))
        }
        3 if !atomics.is_empty() => {
            SelFormula::coord_is(atomics[arg / 7 % atomics.len()], Atom((arg % 3) as u32))
        }
        4 if !eq_pairs.is_empty() => {
            let (i, j) = pick(&eq_pairs);
            SelFormula::negate(SelFormula::coords_eq(i, j))
        }
        5 if eq_pairs.len() >= 2 => {
            let (i, j) = eq_pairs[0];
            let (k, l) = eq_pairs[eq_pairs.len() - 1];
            SelFormula::any(vec![
                SelFormula::coords_eq(i, j),
                SelFormula::negate(SelFormula::coords_eq(k, l)),
            ])
        }
        6 if !eq_pairs.is_empty() && !atomics.is_empty() => {
            let (i, j) = pick(&eq_pairs);
            SelFormula::implies(
                SelFormula::coords_eq(i, j),
                SelFormula::coord_is(atomics[0], Atom((arg % 3) as u32)),
            )
        }
        _ => SelFormula::all(vec![]),
    }
}

/// Build a well-typed expression from an opcode recipe via a typed stack:
/// every opcode either pushes a leaf or transforms the top of the stack, and
/// a transformation is kept only if it type-checks (so generation never
/// rejects and never produces an ill-typed expression).
fn expr_from_recipe(recipe: &[(usize, usize)]) -> AlgExpr {
    let schema = schema();
    let mut stack: Vec<AlgExpr> = vec![AlgExpr::pred("PAR")];
    for &(op, arg) in recipe {
        match op {
            0 => stack.push(AlgExpr::pred("PAR")),
            1 => stack.push(AlgExpr::pred("PERSON")),
            2 => stack.push(AlgExpr::singleton(Atom((arg % 3) as u32))),
            3..=5 => {
                // σ over the top (well-typed by construction; op 5 keeps ⊤
                // selections over tuples too, covering the vacuous-selection
                // edge case).  Selections over non-tuple operands are rejected
                // at plan time now, so the generator never produces them.
                let top = stack.pop().expect("stack never empties");
                match itq_algebra::infer_type(&top, &schema) {
                    Ok(Type::Tuple(components)) => {
                        let formula = selection_for(&components, arg + op);
                        stack.push(top.select(formula));
                    }
                    _ => stack.push(top),
                }
            }
            6 => {
                // π over the top: a deterministic coordinate multiset.
                let top = stack.pop().expect("stack never empties");
                let candidate = match itq_algebra::infer_type(&top, &schema) {
                    Ok(Type::Tuple(components)) => {
                        let w = components.len();
                        let coords: Vec<usize> = match arg % 4 {
                            0 => vec![1],
                            1 => vec![w, 1],
                            2 => (1..=w).rev().collect(),
                            _ => vec![1 + arg % w, 1],
                        };
                        top.clone().project(coords)
                    }
                    _ => top.clone(),
                };
                stack.push(keep_if_typed(candidate, top, &schema));
            }
            7 => {
                // Product of the two topmost (or the top with PAR).
                let b = stack.pop().expect("stack never empties");
                let a = stack.pop().unwrap_or(AlgExpr::pred("PAR"));
                stack.push(a.product(b));
            }
            8 => {
                // A set operator between the top and a same-typed variant.
                let top = stack.pop().expect("stack never empties");
                let twin = match itq_algebra::infer_type(&top, &schema) {
                    Ok(Type::Tuple(components)) => {
                        let coords: Vec<usize> = (1..=components.len()).rev().collect();
                        top.clone().project(coords)
                    }
                    _ => top.clone(),
                };
                let combined = match arg % 3 {
                    0 => top.clone().union(twin),
                    1 => top.clone().intersect(twin),
                    _ => top.clone().diff(twin),
                };
                stack.push(keep_if_typed(combined, top, &schema));
            }
            9 => {
                // Powerset, at most one per expression and only over flat
                // operands: the translated calculus query quantifies over
                // cons_X({T}), which must stay enumerable.
                let top = stack.pop().expect("stack never empties");
                let candidate = top.clone().powerset();
                let small = top.powerset_count() == 0
                    && matches!(
                        itq_algebra::infer_type(&top, &schema),
                        Ok(ty) if ty.set_height() == 0
                    );
                stack.push(if small { candidate } else { top });
            }
            10 => {
                // Collapse (inverse of powerset) where typed.
                let top = stack.pop().expect("stack never empties");
                stack.push(keep_if_typed(top.clone().collapse(), top, &schema));
            }
            _ => {
                // Untuple where typed (width-1 tuples only).
                let top = stack.pop().expect("stack never empties");
                stack.push(keep_if_typed(top.clone().untuple(), top, &schema));
            }
        }
    }
    stack.pop().expect("stack never empties")
}

fn keep_if_typed(candidate: AlgExpr, fallback: AlgExpr, schema: &Schema) -> AlgExpr {
    if itq_algebra::infer_type(&candidate, schema).is_ok() {
        candidate
    } else {
        fallback
    }
}

fn alg_expr() -> BoxedStrategy<AlgExpr> {
    proptest::collection::vec((0usize..12, 0usize..24), 0..8)
        .prop_map(|recipe| expr_from_recipe(&recipe))
        .boxed()
}

/// The two algebra paths must be byte-identical: same answers or the same
/// [`AlgError`] (budget messages included).
fn assert_algebra_paths_agree(expr: &AlgExpr, db: &Database, config: &AlgConfig) {
    let physical = plan(expr, &schema()).expect("generated expressions are well-typed");
    let planned = physical.execute(db, config).map(|(result, _)| result);
    let tuple = expr.eval(db, &schema(), config);
    assert_eq!(planned, tuple, "planned vs tuple-at-a-time on {expr}");
}

/// The Theorem 3.8 route: translate to the calculus and pin the compiled slot
/// evaluator against the tree walker on the translated query; when the
/// calculus and the (already cross-checked) algebra paths both succeed, the
/// answers must coincide across the language boundary.
fn assert_calculus_route_agrees(expr: &AlgExpr, db: &Database) {
    let query = to_calculus_query(expr, &schema()).expect("well-typed expressions translate");
    let capped = EvalConfig {
        max_steps: 500_000,
        ..EvalConfig::default()
    };
    let tree = query.eval_full(db, &capped);
    let fast = compile(&query)
        .expect("translated queries compile")
        .eval_full(db, &capped);
    match (tree, fast) {
        (Ok(tree), Ok(fast)) => {
            assert_eq!(tree.result, fast.result, "calculus backends on {expr}");
            assert_eq!(tree.stats.steps, fast.stats.steps, "{expr}");
            if let Ok(algebra) = expr.eval(db, &schema(), &AlgConfig::default()) {
                assert_eq!(
                    algebra, tree.result,
                    "Theorem 3.8: algebra vs calculus on {expr}"
                );
            }
        }
        (Err(tree), Err(fast)) => assert_eq!(tree, fast, "{expr}"),
        (tree, fast) => panic!("calculus backends disagree on {expr}: {tree:?} vs {fast:?}"),
    }
}

/// The two engines of the differential: the planner (the default) and the
/// tuple-at-a-time ablation.  All step budgets are capped so pathological
/// draws die on a classified budget error instead of burning minutes.
fn engine_pair() -> [Engine; 2] {
    let capped = EvalConfig {
        max_steps: 500_000,
        ..EvalConfig::default()
    };
    let planner = Engine::builder()
        .calc_config(capped)
        .max_invented(1)
        .build();
    let tuple = Engine::builder()
        .calc_config(capped)
        .max_invented(1)
        .use_algebra_planner(false)
        .build();
    [planner, tuple]
}

/// Prepared-pipeline outcomes of both engines under every semantics.  Under
/// the limited interpretation their answers, flags and error classification
/// agree, and each backend's statistics keep their shape.  One run of either
/// evaluator answers the invention semantics too: where it fails, both
/// invention semantics fail with its error; where it answers, the tree walker
/// on the Theorem 3.8 translation is the reference
/// ([`assert_routed_invention_agrees`]).
fn assert_prepared_outcomes_agree(expr: &AlgExpr, db: &Database) {
    let engines = engine_pair();
    let handles: Vec<Prepared> = engines
        .iter()
        .map(|engine| engine.prepare_algebra(expr, &schema()))
        .collect::<Result<_, _>>()
        .expect("generated expressions prepare");
    let limited: Vec<_> = handles
        .iter()
        .map(|p| p.execute(db, Semantics::Limited))
        .collect();
    let context = format!("{expr}");
    match (&limited[0], &limited[1]) {
        (Ok(planned), Ok(tupled)) => {
            assert_eq!(planned.result, tupled.result, "{context}: planner vs tuple");
            assert!(!planned.bounded_approximation && !tupled.bounded_approximation);
            // Stats shape: the algebra paths never touch the calculus
            // counters, and only the planner reports planner counters.
            assert_eq!(planned.stats.steps, 0, "{context}");
            assert_eq!(
                tupled.stats.deterministic(),
                ExecStats::default(),
                "{context}"
            );
        }
        (Err(planned), Err(tupled)) => {
            assert_eq!(planned, tupled, "{context}: error classification");
        }
        (planned, tupled) => {
            panic!("{context}: backends disagree: planner {planned:?} vs tuple {tupled:?}")
        }
    }
    let query = to_calculus_query(expr, &schema()).expect("well-typed expressions translate");
    for ((engine, prepared), limited) in engines.iter().zip(&handles).zip(&limited) {
        match limited {
            Ok(limited) => {
                assert_routed_invention_agrees(prepared, engine, &query, db, limited, &context);
            }
            Err(err) => {
                for semantics in [Semantics::FiniteInvention, Semantics::TerminalInvention] {
                    let invented = prepared.execute(db, semantics);
                    assert_eq!(invented.as_ref().unwrap_err(), err, "{context}/{semantics}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Limited interpretation, raw evaluators: planned == tuple-at-a-time,
    /// byte for byte, under the default and a starved budget.
    #[test]
    fn planned_and_tuple_algebra_are_byte_identical(expr in alg_expr(), db in small_db()) {
        assert_algebra_paths_agree(&expr, &db, &AlgConfig::default());
        assert_algebra_paths_agree(&expr, &db, &AlgConfig { max_instance: 16 });
        assert_algebra_paths_agree(&expr, &db, &AlgConfig { max_instance: 2 });
    }

    /// The CALC_{k,i} route of Theorem 3.8: both calculus backends agree on
    /// the translated query, and cross-language answers coincide on success.
    #[test]
    fn theorem_3_8_route_agrees_with_both_calculus_backends(expr in alg_expr(), db in small_db()) {
        assert_calculus_route_agrees(&expr, &db);
    }

    /// The full prepared pipeline across both engines and the tree walker,
    /// all semantics.
    #[test]
    fn prepared_outcomes_agree_across_the_trio(expr in alg_expr(), db in small_db()) {
        assert_prepared_outcomes_agree(&expr, &db);
    }

    /// Tiny algebra budgets: products and powersets die on the same
    /// byte-identical budget error through the whole pipeline.
    #[test]
    fn tiny_budget_errors_classify_identically(expr in alg_expr(), db in small_db()) {
        let tiny = AlgConfig { max_instance: 8 };
        assert_algebra_paths_agree(&expr, &db, &tiny);
        let capped = EvalConfig { max_steps: 500_000, ..EvalConfig::default() };
        let planner = Engine::builder().calc_config(capped).alg_config(tiny).build();
        let tuple = Engine::builder()
            .calc_config(capped)
            .alg_config(tiny)
            .use_algebra_planner(false)
            .build();
        let a = planner
            .prepare_algebra(&expr, &schema())
            .unwrap()
            .execute(&db, Semantics::Limited);
        let b = tuple
            .prepare_algebra(&expr, &schema())
            .unwrap()
            .execute(&db, Semantics::Limited);
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.result, b.result),
            (Err(a), Err(b)) => {
                prop_assert_eq!(&a, &b, "{}", &expr);
                prop_assert_eq!(a.to_string(), b.to_string(), "{}", &expr);
            }
            (a, b) => prop_assert!(false, "budget divergence on {}: {:?} vs {:?}", &expr, a, b),
        }
    }
}

/// Satellite regression: the `Product` budget fires *before* materialisation
/// on every backend, with a byte-identical message — the planned path checks
/// the unfiltered |A|·|B| even though its join would never materialise the
/// product.
#[test]
fn product_budget_error_string_is_byte_identical_across_backends() {
    let expr = AlgExpr::pred("PERSON")
        .product(AlgExpr::pred("PERSON"))
        .select(SelFormula::coords_eq(1, 2));
    let db = Database::single("PAR", Instance::empty()).with(
        "PERSON",
        Instance::from_atoms(vec![Atom(0), Atom(1), Atom(2)]),
    );
    let tiny = AlgConfig { max_instance: 4 };
    let expected = "evaluation budget exceeded: product of 3 × 3 objects (limit 4)";

    // Raw evaluators.
    let tuple_err = expr.eval(&db, &schema(), &tiny).unwrap_err();
    assert_eq!(tuple_err.to_string(), expected);
    let planned_err = plan(&expr, &schema())
        .unwrap()
        .execute(&db, &tiny)
        .unwrap_err();
    assert_eq!(planned_err.to_string(), expected);
    assert_eq!(planned_err, tuple_err);

    // Through `Prepared::execute` on both engines, under every semantics:
    // one run of the algebra answers them all, under the algebra budget.
    for (label, engine) in [
        ("planner", Engine::builder().alg_config(tiny).build()),
        (
            "tuple",
            Engine::builder()
                .alg_config(tiny)
                .use_algebra_planner(false)
                .build(),
        ),
    ] {
        let prepared = engine.prepare_algebra(&expr, &schema()).unwrap();
        for semantics in Semantics::ALL {
            let err = prepared.execute(&db, semantics).unwrap_err();
            assert_eq!(err.to_string(), expected, "{label}/{semantics}");
        }
    }
}

/// The planner visibly beats the product on the grandparent exemplar while
/// returning the identical answer — the micro version of the E14 acceptance.
#[test]
fn grandparent_exemplar_joins_instead_of_scanning_pairs() {
    let expr = AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(SelFormula::coords_eq(2, 3))
        .project(vec![1, 4]);
    let edges: Vec<(Atom, Atom)> = (0..20).map(|i| (Atom(i), Atom(i + 1))).collect();
    let db = Database::single("PAR", Instance::from_pairs(edges)).with("PERSON", Instance::empty());
    let engine = Engine::new();
    let outcome = engine
        .prepare_algebra(&expr, &schema())
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap();
    assert_eq!(outcome.result.len(), 19);
    let pairs = 20u64 * 20;
    assert!(
        outcome.stats.join_probes < pairs / 2,
        "{} probes should beat the {} product pairs",
        outcome.stats.join_probes,
        pairs
    );
    let tuple = Engine::builder()
        .use_algebra_planner(false)
        .build()
        .prepare_algebra(&expr, &schema())
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap();
    assert_eq!(outcome.result, tuple.result);
}

/// Resource errors are byte-identical across the planner, tuple-at-a-time
/// and tree-walker trio, for all three semantics and every deterministic
/// governing condition — the differential contract extended to the resource
/// governor.
#[test]
fn resource_errors_are_byte_identical_across_the_trio() {
    let expr = AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(SelFormula::coords_eq(2, 3))
        .project(vec![1, 4]);
    let db = Database::single(
        "PAR",
        Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
    )
    .with("PERSON", Instance::empty());
    let pair = |governor: &GovernorConfig| {
        [true, false].map(|planned| {
            Engine::builder()
                .use_algebra_planner(planned)
                .max_invented(1)
                .governor(governor.clone())
                .build()
        })
    };
    let query = to_calculus_query(&expr, &schema()).unwrap();

    // A zero deadline and an entry-poll cancellation trip every backend with
    // one canonical message each, under every semantics.
    for (governor, expected) in [
        (
            GovernorConfig {
                deadline_millis: Some(0),
                ..GovernorConfig::default()
            },
            "execution deadline of 0 ms exceeded",
        ),
        (
            GovernorConfig {
                trip_after: Some((1, TripKind::Cancel)),
                ..GovernorConfig::default()
            },
            "execution cancelled",
        ),
    ] {
        for semantics in Semantics::ALL {
            let [planner, tuple] = pair(&governor);
            let run = |engine: &Engine| {
                engine
                    .prepare_algebra(&expr, &schema())
                    .unwrap()
                    .execute(&db, semantics)
                    .map(|_| ())
            };
            // The tree walker runs the Theorem 3.8 translation under the
            // same governor.
            for (label, outcome) in [
                ("planner", run(&planner)),
                ("tuple", run(&tuple)),
                (
                    "tree-walk",
                    walker_outcome(&planner, &query, &db, semantics).map(|_| ()),
                ),
            ] {
                let err = outcome.unwrap_err();
                assert!(
                    matches!(err, EngineError::Resource(_)),
                    "{label}/{semantics}: {err}"
                );
                assert_eq!(err.to_string(), expected, "{label}/{semantics}");
            }
        }
    }

    // The memory ceiling governs interned values, so it only trips the
    // interning backends — but trips them with the identical message.
    let ceiling = GovernorConfig {
        memory_ceiling: Some(1),
        ..GovernorConfig::default()
    };
    let expected = "interned values exceeded the configured memory ceiling of 1 bytes";
    let [planner, tuple] = pair(&ceiling);
    let planner_err = planner
        .prepare_algebra(&expr, &schema())
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap_err();
    assert_eq!(planner_err.to_string(), expected);
    // The compiled calculus route interns through its value store too.
    let compiled_err = Engine::builder()
        .governor(ceiling.clone())
        .build()
        .prepare(&query)
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap_err();
    assert_eq!(compiled_err.to_string(), expected);
    // Tuple-at-a-time never interns: the exact answer.
    let baseline = Engine::builder()
        .use_algebra_planner(false)
        .build()
        .prepare_algebra(&expr, &schema())
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap();
    let outcome = tuple
        .prepare_algebra(&expr, &schema())
        .unwrap()
        .execute(&db, Semantics::Limited)
        .unwrap();
    assert_eq!(outcome.result, baseline.result);
}

/// A recipe-generated conjunctive calculus query over [`schema`]: a `U` or
/// `[U,U]` target `t` under an ∃-prefix of one to three `U` / `[U,U]`
/// variables, over a conjunction of `PAR` / `PERSON` literals, `≈` between
/// coordinates or against a constant, and `¬≈`.  Each variable is bound by
/// a literal of its own type with probability ¾, then one to four random
/// conjuncts follow.  Most draws land in the conjunctive fragment; the rest
/// (a disequality against a constant, an answer coordinate no literal binds,
/// …) probe its edges.
fn conjunctive_query(rng: &mut FaultRng) -> Query {
    let pick = |rng: &mut FaultRng, n: usize| (rng.next_u64() % n as u64) as usize;
    let ty = |pair: bool| {
        if pair {
            Type::flat_tuple(2)
        } else {
            Type::Atomic
        }
    };
    let vars: Vec<(String, bool)> = (0..=rng.one_to(3))
        .map(|i| match i {
            0 => "t".to_string(),
            _ => format!("x{i}"),
        })
        .map(|name| (name, pick(rng, 2) == 0))
        .collect();
    let pairs: Vec<&str> = vars
        .iter()
        .filter(|(_, pair)| *pair)
        .map(|(name, _)| name.as_str())
        .collect();
    let coord = |rng: &mut FaultRng| {
        let (name, pair) = &vars[pick(rng, vars.len())];
        if *pair {
            Term::proj(name, 1 + pick(rng, 2))
        } else {
            Term::var(name)
        }
    };
    let constant = |rng: &mut FaultRng| Term::Const(Atom(pick(rng, 3) as u32));
    let mut conjuncts: Vec<Formula> = vars
        .iter()
        .filter(|_| pick(rng, 4) != 0)
        .map(|(name, pair)| match pair {
            true => Formula::pred("PAR", Term::var(name)),
            false => Formula::pred("PERSON", Term::var(name)),
        })
        .collect();
    conjuncts.extend((0..rng.one_to(4)).map(|_| match pick(rng, 6) {
        0 | 1 if !pairs.is_empty() => {
            Formula::pred("PAR", Term::var(pairs[pick(rng, pairs.len())]))
        }
        0..=2 => Formula::pred("PERSON", coord(rng)),
        3 => Formula::eq(coord(rng), coord(rng)),
        4 => Formula::eq(coord(rng), constant(rng)),
        _ if pick(rng, 4) == 0 => Formula::not(Formula::eq(coord(rng), constant(rng))),
        _ => Formula::not(Formula::eq(coord(rng), coord(rng))),
    }));
    let body = vars[1..]
        .iter()
        .rev()
        .fold(Formula::and(conjuncts), |body, (name, pair)| {
            Formula::exists(name, ty(*pair), body)
        });
    Query::new("t", ty(vars[0].1), body, schema()).expect("recipes are well-typed")
}

/// A database over at most three atoms, like [`small_db`].
fn conjunctive_db(rng: &mut FaultRng) -> Database {
    let mut atom = || Atom((rng.next_u64() % 3) as u32);
    let edges: Vec<(Atom, Atom)> = (0..5).map(|_| (atom(), atom())).collect();
    let people: Vec<Atom> = (0..3).map(|_| atom()).collect();
    let edges = &edges[..(rng.next_u64() % 6) as usize];
    let people = &people[..(rng.next_u64() % 4) as usize];
    Database::single("PAR", Instance::from_pairs(edges.iter().copied()))
        .with("PERSON", Instance::from_atoms(people.iter().copied()))
}

/// A routed handle (a calculus route or an algebra evaluator) under both
/// invention semantics against the tree walker on `query` (the handle's
/// query, or an algebra handle's Theorem 3.8 translation), run with
/// `oracle`'s budgets and invention bound, which must be the handle's.  One
/// run of the route answers every level, so the handle's statistics are
/// those of `limited`, its limited outcome, with `max_invented + 1` levels.
/// Where the walker answers, the answers, flags, levels and error text are
/// its.  Where it fails on a budget, the handle answers its limited answer:
/// stable from level 1 under finite invention, undefined within the bound
/// under terminal invention.  Returns how many of the two semantics the
/// walker answered.
fn assert_routed_invention_agrees(
    prepared: &Prepared,
    oracle: &Engine,
    query: &Query,
    db: &Database,
    limited: &QueryOutcome,
    here: &str,
) -> usize {
    let max_invented = oracle.max_invented();
    let mut answered = 0;
    for semantics in [Semantics::FiniteInvention, Semantics::TerminalInvention] {
        let context = format!("{here}/{semantics}");
        let outcome = prepared.execute(db, semantics);
        let routed = outcome
            .as_ref()
            .unwrap_or_else(|err| panic!("{context}: a routed handle answers, not {err}"));
        let one_run = ExecStats {
            invention_levels: max_invented as u64 + 1,
            ..limited.stats.deterministic()
        };
        assert_eq!(routed.stats.deterministic(), one_run, "{context}");
        let walker = walker_outcome(oracle, query, db, semantics);
        if let Err(EngineError::Invention(InventionError::Calc(CalcError::Budget { .. }))) = walker
        {
            let finite = semantics == Semantics::FiniteInvention;
            let stable = (finite && max_invented > 0).then_some(1);
            let answer = if finite {
                limited.result.clone()
            } else {
                Instance::empty()
            };
            assert_eq!(routed.result, answer, "{context}: the limited answer");
            assert_eq!(routed.stabilised_at, stable, "{context}");
            assert_eq!(routed.bounded_approximation, stable.is_none(), "{context}");
            assert_eq!(routed.defined_at, None, "{context}");
            continue;
        }
        let (_, walker) = assert_matches_walker(&outcome, &walker, &context)
            .unwrap_or_else(|| panic!("{context}: the walker failed off its budget"));
        assert_eq!(
            routed.stats.invention_levels, walker.stats.invention_levels,
            "{context}"
        );
        answered += 1;
    }
    answered
}

/// The conjunctive route against its oracle: the default engine (which plans
/// every query in the fragment) against the tree walker, on recipe-generated
/// queries over random small databases.  Answers and error strings are
/// identical; a routed run evaluates no formula and, when it answers
/// through a join, probes it; one run of it answers both invention
/// semantics ([`assert_routed_invention_agrees`]); under tightened budgets
/// both engines enumerate and fail identically, under every semantics.  The
/// share of queries that took the route is asserted, so the generator cannot
/// drift out of the fragment unnoticed.
#[test]
fn conjunctive_calculus_route_agrees_with_the_tree_walker() {
    const CASES: usize = 300;
    let mut rng = FaultRng::new(14);
    let default = Engine::new();
    let invention = Engine::builder().max_invented(1).build();
    let tiny = Engine::builder()
        .calc_config(EvalConfig::tiny())
        .max_invented(1)
        .build();
    // The handle's outcome and the tree walker's, under one engine's budgets.
    let run = |engine: &Engine, query: &Query, db: &Database, semantics| {
        (
            engine.prepare(query).unwrap().execute(db, semantics),
            walker_outcome(engine, query, db, semantics),
        )
    };
    let (mut routed, mut joined, mut invented, mut starved) = (0, 0, 0, 0);
    for case in 0..CASES {
        let query = conjunctive_query(&mut rng);
        let db = conjunctive_db(&mut rng);
        let here = format!("case {case}: {query} on {db:?}");
        let prepared = default.prepare(&query).unwrap();
        let (outcome, walker) = run(&default, &query, &db, Semantics::Limited);
        let outcome = assert_matches_walker(&outcome, &walker, &here).map(|(outcome, _)| outcome);
        if let (Some(plan), Some(outcome)) = (prepared.physical_plan(), outcome) {
            routed += 1;
            let stats = outcome.stats;
            assert_eq!(
                (
                    stats.steps,
                    stats.quantifier_values,
                    stats.candidates_checked
                ),
                (0, 0, 0),
                "{here}: a routed run evaluates no formula"
            );
            let mut joins = false;
            plan.root()
                .visit(&mut |node| joins |= matches!(node, PhysNode::Join { .. }));
            if joins && !outcome.result.is_empty() {
                assert!(stats.join_probes > 0, "{here}: answers come from probes");
                joined += 1;
            }
            let prepared = invention.prepare(&query).unwrap();
            invented +=
                assert_routed_invention_agrees(&prepared, &invention, &query, &db, outcome, &here);
        }
        assert!(
            tiny.prepare(&query).unwrap().physical_plan().is_none(),
            "{here}: tight budgets enumerate"
        );
        for semantics in Semantics::ALL {
            let (tight, walker) = run(&tiny, &query, &db, semantics);
            let here = format!("{here}/tiny/{semantics}");
            starved += usize::from(assert_matches_walker(&tight, &walker, &here).is_none());
        }
    }
    println!(
        "conjunctive route: {routed} of {CASES} generated queries planned, \
         {joined} answered through a join, {invented} invention outcomes checked \
         against the walker; {starved} runs starved under tiny budgets"
    );
    assert!(
        routed * 2 >= CASES && joined * 4 >= routed && invented >= routed && starved > 0,
        "only {routed} of {CASES} generated queries took the conjunctive route \
         ({joined} answered through a join, {invented} invention outcomes checked, \
         {starved} starved)"
    );
}

/// How a recipe-generated least-fixpoint query leaves the fragment, if it
/// does: a negated premise, a head coordinate no premise binds, or a Horn
/// condition that mentions the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NearMiss {
    NegatedPremise,
    UnboundHead,
    MentionsTarget,
}

/// A recipe-generated least-fixpoint query over [`schema`]:
/// `{t/[U,U] | ∀x/{[U,U]} (φ → t ∈ x)}` where `φ` holds one to three random
/// Horn conditions over `PAR` and `x` and zero to two element-wise guards,
/// in random order.  A Horn condition quantifies one or two pairs, each
/// bound by `PAR` or by `x`, possibly joined (`y1.2 ≈ y2.1`) or pinned to a
/// constant, and concludes either one of them in `x` or a pair `∃w` built
/// from their coordinates and constants.  Guards range from ones that hold on
/// every least model (endpoints occur in `PAR`) to ones that fail on most
/// (every member is a `PAR` pair).  A quarter of the draws carry a near miss
/// in one Horn condition.
fn least_fixpoint_query(rng: &mut FaultRng) -> (Query, Option<NearMiss>) {
    let pick = |rng: &mut FaultRng, n: usize| (rng.next_u64() % n as u64) as usize;
    let pair = Type::flat_tuple(2);
    let constant = |rng: &mut FaultRng| Term::Const(Atom(pick(rng, 3) as u32));
    let near_miss = match pick(rng, 12) {
        0 => Some(NearMiss::NegatedPremise),
        1 => Some(NearMiss::UnboundHead),
        2 => Some(NearMiss::MentionsTarget),
        _ => None,
    };
    let horns = rng.one_to(3) as usize;
    let missing = pick(rng, horns);
    let mut conjuncts: Vec<Formula> = (0..horns)
        .map(|h| {
            let miss = near_miss.filter(|_| h == missing);
            let vars: Vec<&str> = ["y1", "y2"][..rng.one_to(2) as usize].to_vec();
            let coord =
                |rng: &mut FaultRng| Term::proj(vars[pick(rng, vars.len())], 1 + pick(rng, 2));
            let mut premise: Vec<Formula> = vars
                .iter()
                .map(|v| match pick(rng, 2) {
                    0 => Formula::pred("PAR", Term::var(v)),
                    _ => Formula::member(Term::var(v), Term::var("x")),
                })
                .collect();
            if vars.len() == 2 && pick(rng, 2) == 0 {
                premise.push(Formula::eq(Term::proj("y1", 2), Term::proj("y2", 1)));
            }
            if pick(rng, 4) == 0 {
                premise.push(Formula::eq(coord(rng), constant(rng)));
            }
            match miss {
                Some(NearMiss::NegatedPremise) => {
                    premise.push(Formula::not(Formula::pred("PAR", Term::var(vars[0]))))
                }
                Some(NearMiss::MentionsTarget) => {
                    premise.push(Formula::eq(Term::proj("t", 1), coord(rng)))
                }
                _ => {}
            }
            let conclusion = if miss.is_none() && pick(rng, 2) == 0 {
                Formula::member(Term::var(vars[pick(rng, vars.len())]), Term::var("x"))
            } else {
                let term = |rng: &mut FaultRng| match pick(rng, 5) {
                    0 => constant(rng),
                    _ => coord(rng),
                };
                let mut demand = vec![
                    Formula::member(Term::var("w"), Term::var("x")),
                    Formula::eq(Term::proj("w", 1), term(rng)),
                ];
                if miss != Some(NearMiss::UnboundHead) {
                    demand.push(Formula::eq(Term::proj("w", 2), term(rng)));
                }
                Formula::exists("w", pair.clone(), Formula::and(demand))
            };
            let body = Formula::implies(Formula::and(premise), conclusion);
            vars.iter()
                .rev()
                .fold(body, |body, v| Formula::forall(v, pair.clone(), body))
        })
        .collect();
    for _ in 0..pick(rng, 3) {
        let endpoint = |i: usize| {
            Formula::exists(
                "z",
                Type::flat_tuple(2),
                Formula::and(vec![
                    Formula::pred("PAR", Term::var("z")),
                    Formula::or(vec![
                        Formula::eq(Term::proj("g", i), Term::proj("z", 1)),
                        Formula::eq(Term::proj("g", i), Term::proj("z", 2)),
                    ]),
                ]),
            )
        };
        let psi = match pick(rng, 4) {
            0 => Formula::and(vec![endpoint(1), endpoint(2)]),
            1 => Formula::pred("PAR", Term::var("g")),
            2 => Formula::exists(
                "p",
                Type::Atomic,
                Formula::and(vec![
                    Formula::pred("PERSON", Term::var("p")),
                    Formula::or(vec![
                        Formula::eq(Term::var("p"), Term::proj("g", 1)),
                        Formula::eq(Term::var("p"), Term::proj("g", 2)),
                    ]),
                ]),
            ),
            _ => Formula::or(vec![
                Formula::eq(Term::proj("g", 1), constant(rng)),
                endpoint(2),
            ]),
        };
        let guard = Formula::forall(
            "g",
            pair.clone(),
            Formula::implies(Formula::member(Term::var("g"), Term::var("x")), psi),
        );
        let at = pick(rng, conjuncts.len() + 1);
        conjuncts.insert(at, guard);
    }
    let body = Formula::forall(
        "x",
        Type::set(pair.clone()),
        Formula::implies(
            Formula::and(conjuncts),
            Formula::member(Term::var("t"), Term::var("x")),
        ),
    );
    let query = Query::new("t", pair, body, schema()).expect("recipes are well-typed");
    (query, near_miss)
}

/// The least-fixpoint route against its oracle: the default engine (which
/// lowers every query in the fragment to a Datalog program and guards)
/// against the tree walker, on recipe-generated queries over random small
/// databases.  Answers, flags and error strings are identical.  A routed run
/// (traced under a `least-fixpoint` root) never draws a candidate relation:
/// its largest quantifier domain stays below the set quantifier's
/// 2^|cons(T)|.  A run whose guard fails on the least model falls back to
/// the enumeration; near misses never lower.  The routed and fallback shares
/// are asserted, so the generator cannot drift out of the fragment unnoticed.
#[test]
fn least_fixpoint_route_agrees_with_the_tree_walker() {
    const CASES: usize = 120;
    let mut rng = FaultRng::new(17);
    let default = Engine::builder().parallelism(1).build();
    let invention = Engine::builder().parallelism(1).max_invented(1).build();
    // Past three atoms a level's candidate sets number 2^16 or more, which
    // the walker would enumerate for minutes in a debug build; capped, it
    // fails on its budget there at once.
    let oracle = Engine::builder()
        .parallelism(1)
        .max_invented(1)
        .calc_config(EvalConfig {
            max_quantifier_domain: 1 << 10,
            ..EvalConfig::default()
        })
        .build();
    let (mut routed, mut fell_back, mut near_misses, mut invented) = (0, 0, 0, 0);
    for case in 0..CASES {
        let (query, near_miss) = least_fixpoint_query(&mut rng);
        let db = conjunctive_db(&mut rng);
        let here = format!("case {case}: {query} on {db:?}");
        let prepared = default.prepare(&query).unwrap();
        if near_miss.is_some() {
            near_misses += 1;
            assert!(
                prepared.least_fixpoint().is_none(),
                "{here}: {near_miss:?} lowered"
            );
        }
        let (outcome, span) = match prepared.execute_traced(&db, Semantics::Limited) {
            Ok((outcome, span)) => (Ok(outcome), Some(span)),
            Err(err) => (Err(err), None),
        };
        let expected = walker_outcome(&default, &query, &db, Semantics::Limited);
        let Some((outcome, _)) = assert_matches_walker(&outcome, &expected, &here) else {
            continue;
        };
        let span = span.expect("a successful traced run has a span");
        let atoms = query.evaluation_domain(&db).len() as u32;
        let candidate_sets = 1u64.checked_shl(atoms * atoms).unwrap_or(u64::MAX);
        if span.name == "least-fixpoint" {
            routed += 1;
            assert!(
                outcome.stats.max_domain_seen < candidate_sets,
                "{here}: a routed run drew the set quantifier"
            );
            let prepared = invention.prepare(&query).unwrap();
            invented +=
                assert_routed_invention_agrees(&prepared, &oracle, &query, &db, outcome, &here);
        } else if prepared.least_fixpoint().is_some() {
            fell_back += 1;
        }
    }
    println!(
        "least-fixpoint route: {routed} of {CASES} generated queries answered by the route, \
         {fell_back} fell back on a failed guard, {near_misses} near misses stayed enumerated; \
         the walker answered {invented} of their invention outcomes"
    );
    assert!(
        routed * 3 >= CASES && fell_back > 0 && near_misses > 0 && invented > 0,
        "only {routed} of {CASES} generated queries took the least-fixpoint route \
         ({fell_back} fell back, {near_misses} near misses, {invented} invention outcomes \
         checked)"
    );
}

/// Level invariance past the genealogy shapes, on a one-edge database with
/// two invented atoms: a least-fixpoint guard that is positive existential
/// but not range-restricted (`∃p/U ∃q/U (p ≈ q)` holds at every level,
/// witnessed by any atom), and a conjunctive class that no literal binds
/// (`z ≈ z`, witnessed by any atom of the range).  Both handles take their
/// route, and the tree walker agrees with one run of it under both invention
/// semantics.  At bound 0, where only level 0 runs, so does the algebra
/// grandparent join on a two-edge chain (at bound 2 the walker would
/// enumerate its translation over five atoms for a minute in a debug
/// build), and every handle's finite invention stays bounded with no
/// stabilisation level while terminal invention tries one level.
#[test]
fn routed_invention_agrees_with_the_walker_off_the_genealogy_shapes() {
    let pair = Type::flat_tuple(2);
    let schema = Schema::single("PAR", pair.clone());
    let unrestricted_guard = Formula::forall(
        "g",
        pair.clone(),
        Formula::implies(
            Formula::member(Term::var("g"), Term::var("x")),
            Formula::exists(
                "p",
                Type::Atomic,
                Formula::exists(
                    "q",
                    Type::Atomic,
                    Formula::eq(Term::var("p"), Term::var("q")),
                ),
            ),
        ),
    );
    let contains_par = Formula::forall(
        "y",
        pair.clone(),
        Formula::implies(
            Formula::pred("PAR", Term::var("y")),
            Formula::member(Term::var("y"), Term::var("x")),
        ),
    );
    let least_fixpoint = Formula::forall(
        "x",
        Type::set(pair.clone()),
        Formula::implies(
            Formula::and(vec![contains_par, unrestricted_guard]),
            Formula::member(Term::var("t"), Term::var("x")),
        ),
    );
    let unbound_class = Formula::exists(
        "z",
        Type::Atomic,
        Formula::and(vec![
            Formula::pred("PAR", Term::var("t")),
            Formula::eq(Term::var("z"), Term::var("z")),
        ]),
    );
    let edge = Database::single("PAR", Instance::from_pairs(vec![(Atom(0), Atom(1))]));
    let chain = Database::single(
        "PAR",
        Instance::from_pairs(vec![(Atom(0), Atom(1)), (Atom(1), Atom(2))]),
    );
    let grandparent = AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(SelFormula::coords_eq(2, 3))
        .project(vec![1, 4]);
    for max_invented in [2, 0] {
        let engine = Engine::builder()
            .parallelism(1)
            .max_invented(max_invented)
            .build();
        let mut handles = Vec::new();
        for body in [least_fixpoint.clone(), unbound_class.clone()] {
            let query = Query::new("t", pair.clone(), body, schema.clone()).unwrap();
            handles.push((engine.prepare(&query).unwrap(), &edge));
        }
        if max_invented == 0 {
            let algebra = engine.prepare_algebra(&grandparent, &schema).unwrap();
            handles.push((algebra, &chain));
        }
        for (prepared, db) in handles {
            let query = prepared.query();
            let here = format!("{query} (bound {max_invented})");
            assert!(
                prepared.least_fixpoint().is_some() || prepared.physical_plan().is_some(),
                "{here}: routed"
            );
            let (limited, span) = prepared.execute_traced(db, Semantics::Limited).unwrap();
            assert!(
                matches!(
                    span.name.as_str(),
                    "least-fixpoint" | "planned-calculus" | "planned-algebra"
                ),
                "{here}: the route answered under `{}`",
                span.name
            );
            assert_eq!(limited.result.len(), 1, "{here}");
            let walker = walker_outcome(&engine, query, db, Semantics::Limited);
            assert_matches_walker(&Ok(limited.clone()), &walker, &here);
            let answered =
                assert_routed_invention_agrees(&prepared, &engine, query, db, &limited, &here);
            assert_eq!(answered, 2, "{here}: the walker answers both semantics");
            if max_invented == 0 {
                let finite = prepared.execute(db, Semantics::FiniteInvention).unwrap();
                assert!(finite.bounded_approximation, "{here}: only level 0 ran");
                assert_eq!(finite.stabilised_at, None, "{here}");
                let terminal = prepared.execute(db, Semantics::TerminalInvention).unwrap();
                assert_eq!(
                    terminal.stats.invention_levels, 1,
                    "{here}: one level tried"
                );
            }
        }
    }
}

/// A schema relation may carry the name the lowered rules give the set
/// variable `X`.  Such a query stays on the enumeration, so the relation is
/// read as a relation (never as `X`), both from scratch and in a watched
/// view refreshed by an insertion into it.
#[test]
fn a_relation_named_like_the_set_variables_predicate_is_read_as_a_relation() {
    let pair = Type::flat_tuple(2);
    let schema = Schema::single("PAR", pair.clone()).with("__view__", pair.clone());
    let contains = |pred: &str| {
        Formula::forall(
            "y",
            pair.clone(),
            Formula::implies(
                Formula::pred(pred, Term::var("y")),
                Formula::member(Term::var("y"), Term::var("x")),
            ),
        )
    };
    let body = Formula::forall(
        "x",
        Type::set(pair.clone()),
        Formula::implies(
            Formula::and(vec![contains("PAR"), contains("__view__")]),
            Formula::member(Term::var("t"), Term::var("x")),
        ),
    );
    let query = Query::new("t", pair, body, schema.clone()).unwrap();
    let db = Database::single("PAR", Instance::from_pairs(vec![(Atom(0), Atom(1))]))
        .with("__view__", Instance::from_pairs(vec![(Atom(1), Atom(0))]));
    let default = Engine::new().prepare(&query).unwrap();
    assert!(default.least_fixpoint().is_none());
    let walker = |db: &Database| query.eval(db, &EvalConfig::default()).unwrap();
    let answer = default.execute(&db, Semantics::Limited).unwrap().result;
    assert_eq!(answer.len(), 2, "PAR ∪ __view__");
    assert_eq!(answer, walker(&db));

    let mut inc = IncrementalDb::new(schema, &db).unwrap();
    inc.watch("q", default.clone(), Semantics::Limited);
    inc.insert("__view__", vec![Value::pair(Atom(0), Atom(0))])
        .unwrap();
    assert_eq!(
        inc.view("q").unwrap().outcome(),
        &Ok(walker(inc.database()))
    );
    assert_eq!(inc.view("q").unwrap().outcome().as_ref().unwrap().len(), 3);
}

/// Fixed flat (set-height-0) recipes, one per operator a flat plan runs:
/// `∪`, `∩`, `−`, `σ` with constants, `¬`, `∨` and `→`, `π`, `μ`, a
/// singleton, hash joins with per-side filters, a residual and a fused
/// projection, joins over joins, and nested-loop products.
fn flat_recipes() -> Vec<(&'static str, AlgExpr)> {
    let par = || AlgExpr::pred("PAR");
    let person = || AlgExpr::pred("PERSON");
    let flipped = || par().project(vec![2, 1]);
    let grandparent = || {
        par()
            .product(par())
            .select(SelFormula::coords_eq(2, 3))
            .project(vec![1, 4])
    };
    vec![
        ("union", par().union(flipped())),
        ("intersect", par().intersect(flipped())),
        ("diff", par().diff(flipped())),
        (
            "select-const",
            par().select(SelFormula::coord_is(1, Atom(0))),
        ),
        (
            "select-not-or",
            par().select(SelFormula::any(vec![
                SelFormula::negate(SelFormula::coords_eq(1, 2)),
                SelFormula::coord_is(2, Atom(1)),
            ])),
        ),
        (
            "select-implies",
            par().select(SelFormula::implies(
                SelFormula::coord_is(1, Atom(1)),
                SelFormula::coord_is(2, Atom(2)),
            )),
        ),
        ("project-untuple", par().project(vec![2]).untuple()),
        (
            "singleton-union",
            AlgExpr::singleton(Atom(0)).union(person()),
        ),
        ("hash-join", grandparent()),
        (
            "hash-join-residual",
            par()
                .product(par())
                .select(SelFormula::all(vec![
                    SelFormula::coords_eq(2, 3),
                    SelFormula::negate(SelFormula::coords_eq(1, 4)),
                ]))
                .project(vec![1, 4]),
        ),
        (
            "hash-join-side-filters",
            par().product(par()).select(SelFormula::all(vec![
                SelFormula::coord_is(1, Atom(0)),
                SelFormula::coords_eq(2, 3),
                SelFormula::negate(SelFormula::coord_is(4, Atom(1))),
            ])),
        ),
        (
            "join-of-joins",
            grandparent()
                .product(par())
                .select(SelFormula::coords_eq(2, 3))
                .project(vec![1, 4]),
        ),
        (
            "select-over-join-projection",
            grandparent().select(SelFormula::negate(SelFormula::coords_eq(1, 2))),
        ),
        (
            "untuple-join",
            par()
                .product(par())
                .select(SelFormula::coords_eq(2, 3))
                .project(vec![4])
                .untuple(),
        ),
        (
            "loop-product-residual",
            par().product(person()).select(SelFormula::any(vec![
                SelFormula::coords_eq(1, 3),
                SelFormula::coords_eq(2, 3),
            ])),
        ),
        ("loop-product", person().product(person())),
    ]
}

/// A three-atom database: the Theorem 3.8 translation of every flat recipe
/// stays affordable for the tree walker.
fn flat_small_db() -> Database {
    Database::single(
        "PAR",
        Instance::from_pairs(vec![
            (Atom(0), Atom(1)),
            (Atom(1), Atom(2)),
            (Atom(2), Atom(2)),
            (Atom(2), Atom(0)),
        ]),
    )
    .with("PERSON", Instance::from_atoms(vec![Atom(0), Atom(2)]))
}

/// A 64-atom database whose joins and products run past the masked polls.
fn flat_wide_db() -> Database {
    let edges = (0..64u32).flat_map(|i| [(i, (i + 1) % 64), (i, (i * 5 + 3) % 64)]);
    Database::single(
        "PAR",
        Instance::from_pairs(edges.map(|(a, b)| (Atom(a), Atom(b)))),
    )
    .with("PERSON", Instance::from_atoms((0..16).map(Atom)))
}

/// `join_probes`, `tuples_materialised` and `interrupt_polls` of each flat
/// recipe on [`flat_small_db`] and [`flat_wide_db`], recorded when every plan
/// still ran on the interner.  The polls are read under a governor that is
/// armed and never trips.
const FLAT_COUNTERS: [(&str, [u64; 3], [u64; 3]); 16] = [
    ("union", [0, 4, 2], [0, 128, 2]),
    ("intersect", [0, 4, 2], [0, 128, 2]),
    ("diff", [0, 4, 2], [0, 128, 2]),
    ("select-const", [0, 0, 2], [0, 0, 2]),
    ("select-not-or", [0, 0, 2], [0, 0, 2]),
    ("select-implies", [0, 0, 2], [0, 0, 2]),
    ("project-untuple", [0, 4, 2], [0, 128, 2]),
    ("singleton-union", [0, 0, 2], [0, 0, 2]),
    ("hash-join", [10, 6, 2], [384, 256, 4]),
    ("hash-join-residual", [10, 5, 2], [384, 248, 4]),
    ("hash-join-side-filters", [2, 1, 2], [6, 4, 2]),
    ("join-of-joins", [25, 15, 2], [1128, 752, 9]),
    ("select-over-join-projection", [10, 5, 2], [384, 248, 4]),
    ("untuple-join", [10, 6, 2], [384, 256, 4]),
    ("loop-product-residual", [8, 5, 2], [2048, 64, 10]),
    ("loop-product", [4, 4, 2], [256, 256, 4]),
];

/// The flat recipes agree with the tuple-at-a-time evaluator and the
/// Theorem 3.8 translation, and keep the planner's counters.
#[test]
fn flat_recipes_agree_and_keep_their_counters() {
    let (small, wide) = (flat_small_db(), flat_wide_db());
    let mut measured = Vec::new();
    for (name, expr) in flat_recipes() {
        for config in [
            AlgConfig::default(),
            AlgConfig { max_instance: 16 },
            AlgConfig { max_instance: 2 },
        ] {
            assert_algebra_paths_agree(&expr, &small, &config);
            assert_algebra_paths_agree(&expr, &wide, &config);
        }
        assert_calculus_route_agrees(&expr, &small);
        assert_prepared_outcomes_agree(&expr, &small);
        let observed = Engine::builder()
            .parallelism(1)
            .governor(itq::fault::observation_governor())
            .build()
            .prepare_algebra(&expr, &schema())
            .unwrap();
        let counters = |db: &Database| {
            let stats = observed.execute(db, Semantics::Limited).unwrap().stats;
            assert_eq!(stats.interned_values, 0, "{name} runs over atom rows");
            [
                stats.join_probes,
                stats.tuples_materialised,
                stats.interrupt_polls,
            ]
        };
        measured.push((name, counters(&small), counters(&wide)));
    }
    assert_eq!(measured, FLAT_COUNTERS);
}

/// Fixed set-typed recipes over `PAR` and `PERSON`, built with `𝒫` and `×`:
/// `𝒫`, `𝒞 ∘ 𝒫`, `𝒫 ∘ μ`, the member join, an `∈` selection that stays a
/// filter, an equality between two set columns, a hash join on an atom key
/// with set-typed payloads, `∪`, `∩`, `−` and `π` over set-typed rows, a
/// nested-loop product with a set-typed side, and a constant selection.
fn set_recipes() -> Vec<(&'static str, AlgExpr)> {
    let par = || AlgExpr::pred("PAR");
    let person = || AlgExpr::pred("PERSON");
    let children = || par().project(vec![2]).untuple();
    let parents = || par().project(vec![1]).untuple();
    // [U, {U}]: a person next to each set of people.
    let person_sets = || person().product(person().powerset());
    vec![
        ("powerset", par().powerset()),
        ("collapse-powerset", par().powerset().collapse()),
        ("powerset-untuple", children().powerset()),
        (
            "member-join",
            par()
                .product(children().powerset())
                .select(SelFormula::In(SelTerm::Coord(2), SelTerm::Coord(3)))
                .project(vec![1, 3]),
        ),
        (
            "member-filter",
            person_sets()
                .union(parents().product(children().powerset()))
                .select(SelFormula::In(SelTerm::Coord(1), SelTerm::Coord(2))),
        ),
        (
            "set-equality",
            person()
                .powerset()
                .product(children().powerset())
                .select(SelFormula::coords_eq(1, 2))
                .project(vec![1]),
        ),
        (
            "hash-join-set-payload",
            person_sets()
                .product(par())
                .select(SelFormula::coords_eq(1, 3))
                .project(vec![2, 4]),
        ),
        (
            "union",
            par().powerset().union(par().project(vec![2, 1]).powerset()),
        ),
        (
            "intersect",
            par()
                .powerset()
                .intersect(par().project(vec![2, 1]).powerset()),
        ),
        (
            "diff",
            person_sets().diff(parents().product(person().powerset())),
        ),
        ("project", person_sets().project(vec![2, 1])),
        ("loop-product", children().product(person().powerset())),
        (
            "select-const",
            par()
                .product(children().powerset())
                .select(SelFormula::coord_is(1, Atom(0))),
        ),
    ]
}

/// A database whose powersets run past the masked polls: `𝒫(PAR)` builds
/// 256 subsets.
fn set_medium_db() -> Database {
    let edges = [
        (0, 1),
        (0, 2),
        (1, 3),
        (1, 4),
        (2, 5),
        (3, 0),
        (4, 4),
        (5, 1),
    ];
    Database::single(
        "PAR",
        Instance::from_pairs(edges.map(|(a, b)| (Atom(a), Atom(b)))),
    )
    .with("PERSON", Instance::from_atoms((0..5).map(Atom)))
}

/// `join_probes`, `tuples_materialised` and `interrupt_polls` of each
/// set-typed recipe on [`flat_small_db`] and [`set_medium_db`], recorded when
/// set-typed plans still ran on their own interned executor.  The polls are
/// read under a governor that is armed and never trips.
const SET_COUNTERS: [(&str, [u64; 3], [u64; 3]); 13] = [
    ("powerset", [0, 16, 2], [0, 256, 3]),
    ("collapse-powerset", [0, 16, 2], [0, 256, 3]),
    ("powerset-untuple", [0, 12, 2], [0, 72, 2]),
    ("member-join", [20, 28, 2], [264, 328, 4]),
    ("member-filter", [32, 52, 2], [544, 656, 8]),
    ("set-equality", [8, 20, 2], [64, 136, 2]),
    ("hash-join-set-payload", [28, 24, 2], [544, 416, 5]),
    ("union", [0, 36, 2], [0, 520, 4]),
    ("intersect", [0, 36, 2], [0, 520, 4]),
    ("diff", [20, 32, 2], [352, 424, 5]),
    ("project", [8, 12, 2], [160, 192, 3]),
    ("loop-product", [12, 20, 2], [192, 232, 3]),
    ("select-const", [8, 20, 2], [128, 200, 3]),
];

/// The set-typed recipes agree with the tuple-at-a-time evaluator and the
/// Theorem 3.8 translation, keep the planner's counters, and intern.
#[test]
fn set_recipes_agree_and_keep_their_counters() {
    let (small, medium) = (flat_small_db(), set_medium_db());
    let mut measured = Vec::new();
    for (name, expr) in set_recipes() {
        for config in [
            AlgConfig::default(),
            AlgConfig { max_instance: 16 },
            AlgConfig { max_instance: 2 },
        ] {
            assert_algebra_paths_agree(&expr, &small, &config);
            assert_algebra_paths_agree(&expr, &medium, &config);
        }
        assert_calculus_route_agrees(&expr, &small);
        assert_prepared_outcomes_agree(&expr, &small);
        let root = plan(&expr, &schema()).unwrap().root().label();
        let shape = match name {
            "member-join" => "member-join",
            "member-filter" => "filter",
            "set-equality" | "hash-join-set-payload" => "hash-join",
            "loop-product" | "select-const" => "product",
            _ => "",
        };
        assert!(root.starts_with(shape), "{name} plans as {root}");
        let observed = Engine::builder()
            .parallelism(1)
            .governor(itq::fault::observation_governor())
            .build()
            .prepare_algebra(&expr, &schema())
            .unwrap();
        let counters = |db: &Database| {
            let stats = observed.execute(db, Semantics::Limited).unwrap().stats;
            assert!(stats.interned_values > 0, "{name} interns its cells");
            [
                stats.join_probes,
                stats.tuples_materialised,
                stats.interrupt_polls,
            ]
        };
        measured.push((name, counters(&small), counters(&medium)));
    }
    assert_eq!(measured, SET_COUNTERS);
}

/// A database of another schema than [`schema`], drawn like
/// [`conjunctive_db`] except that one relation, `PAR` or `PERSON`, holds up
/// to four values drawn from atoms, pairs, triples and sets of atoms over
/// the same three atoms.  Most draws put a value of another type than the
/// relation's declared one there; some hold only values of that type, and
/// one in five leaves the relation empty, which is an instance of every
/// type.  Returns the database and that relation's name.
fn other_schema_db(rng: &mut FaultRng) -> (Database, &'static str) {
    let pick = |rng: &mut FaultRng, n: u64| rng.next_u64() % n;
    let atom = |rng: &mut FaultRng| Atom(pick(rng, 3) as u32);
    let pred = ["PAR", "PERSON"][pick(rng, 2) as usize];
    let values: Vec<Value> = (0..pick(rng, 5))
        .map(|_| match pick(rng, 4) {
            0 => Value::atom(atom(rng)),
            1 => Value::pair(atom(rng), atom(rng)),
            2 => Value::atom_tuple([atom(rng), atom(rng), atom(rng)]),
            _ => Value::set([atom(rng), atom(rng)].map(Value::atom)),
        })
        .collect();
    let db = conjunctive_db(rng).with(pred, Instance::from_values(values));
    (db, pred)
}

/// A handle is defined on the instances of its schema.  On recipe-generated
/// databases of another schema ([`other_schema_db`]), every backend refuses
/// a relation it reads that holds a value of another type, with one error
/// kind and one text, naming the first such value in the relation's
/// canonical order, under `limited`, `fi` and `ti` with default governors:
/// planned algebra and tuple-at-a-time on recipe-generated expressions, the
/// planned-calculus and least-fixpoint routes on recipe-generated calculus
/// queries, and the compiled enumeration on the queries no route takes and
/// under tiny budgets.  The near misses answer as their reference does under
/// `limited` (the tuple-at-a-time evaluator called directly for algebra, the
/// tree walker for calculus): an ill-typed relation the handle does not
/// read, an empty relation, and a relation that holds only values of its
/// declared type.  Every share is asserted, so the generators cannot drift
/// away from any of them.
#[test]
fn every_backend_refuses_a_relation_of_another_type() {
    const CASES: usize = 80;
    let mut rng = FaultRng::new(31);
    let [planner, tuple] = engine_pair();
    let default = Engine::new();
    let tiny = Engine::builder().calc_config(EvalConfig::tiny()).build();
    let mut refused: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut unread, mut empty, mut conforming) = (0, 0, 0);
    for case in 0..CASES {
        let (db, pred) = other_schema_db(&mut rng);
        let declared = schema().type_of(pred).unwrap().clone();
        let relation = db.relation(pred).unwrap();
        let refusal = (relation.iter().find(|v| !v.has_type(&declared)))
            .map(|v| format!("value {v} does not conform to {pred} : {declared}"));
        let recipe: Vec<(usize, usize)> = (0..rng.next_u64() % 8)
            .map(|_| {
                (
                    (rng.next_u64() % 12) as usize,
                    (rng.next_u64() % 24) as usize,
                )
            })
            .collect();
        let expr = expr_from_recipe(&recipe);
        let conjunctive = conjunctive_query(&mut rng);
        let (fixpoint, _) = least_fixpoint_query(&mut rng);
        for (algebra, engine, query) in [
            (Some("planned-algebra"), &planner, None),
            (Some("tuple-algebra"), &tuple, None),
            (None, &default, Some(&conjunctive)),
            (None, &default, Some(&fixpoint)),
            (None, &tiny, Some(&conjunctive)),
        ] {
            let (prepared, reads) = match query {
                Some(query) => (
                    engine.prepare(query).unwrap(),
                    query.body().predicates().contains(pred),
                ),
                None => (
                    engine.prepare_algebra(&expr, &schema()).unwrap(),
                    expr.predicates().contains(pred),
                ),
            };
            let backend = match algebra {
                Some(backend) => backend,
                None if prepared.physical_plan().is_some() => "planned-calculus",
                None if prepared.least_fixpoint().is_some() => "least-fixpoint",
                None => "enumeration",
            };
            let handle = query.map_or_else(|| expr.to_string(), Query::to_string);
            let here = format!("case {case}: {backend} {handle} on {db:?}");
            match refusal.as_ref().filter(|_| reads) {
                Some(refusal) => {
                    for semantics in Semantics::ALL {
                        match prepared.execute(&db, semantics) {
                            Err(err @ EngineError::Nonconforming(_)) => {
                                assert_eq!(&err.to_string(), refusal, "{here}/{semantics}")
                            }
                            other => panic!("{here}/{semantics}: {other:?}, not {refusal}"),
                        }
                    }
                    *refused.entry(backend).or_default() += 1;
                    continue;
                }
                None if refusal.is_some() => unread += 1,
                None if relation.is_empty() => empty += 1,
                None => conforming += 1,
            }
            let outcome = prepared.execute(&db, Semantics::Limited);
            match query {
                Some(query) => {
                    let walker = walker_outcome(engine, query, &db, Semantics::Limited);
                    assert_matches_walker(&outcome, &walker, &here);
                }
                None => {
                    let reference = expr.eval(&db, &schema(), &AlgConfig::default());
                    let answer = outcome.map(|outcome| outcome.result);
                    assert_eq!(answer, reference.map_err(EngineError::from), "{here}");
                }
            }
        }
    }
    println!(
        "refusals by backend: {refused:?}; near misses answered: {unread} unread, \
         {empty} empty, {conforming} conforming"
    );
    let backends = [
        "planned-algebra",
        "tuple-algebra",
        "planned-calculus",
        "least-fixpoint",
        "enumeration",
    ];
    assert!(
        backends
            .iter()
            .all(|backend| refused.get(backend) >= Some(&5))
            && unread >= 20
            && empty >= 5
            && conforming >= 5,
        "refusals by backend: {refused:?}; near misses: {unread} unread, {empty} empty, \
         {conforming} conforming"
    );
}
