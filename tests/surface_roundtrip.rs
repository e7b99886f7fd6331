//! Property suite for the surface language: for generated `Term`, `Formula`,
//! `Query`, and `AlgExpr` values, `parse(display(x)) == x` — the parser is the
//! exact inverse of the engine's printers, answer values rendered with atom
//! names included — and parse errors carry the
//! position of the offending token.  The statement layer is fuzzed too:
//! arbitrary bytes and mutilated example scripts run through a session
//! without a panic, and every parse error points inside its input; and every
//! recursive production, nested as deep as the parser accepts, runs through a
//! session on the stack `itq serve` gives one.

use itq_algebra::{AlgExpr, EvalConfig as AlgConfig, SelFormula, SelTerm};
use itq_calculus::{Formula, Query, Term};
use itq_core::prelude::{Engine, EvalConfig};
use itq_core::queries;
use itq_object::{Atom, Type, Universe, Value};
use itq_surface::script::split_statements;
use itq_surface::session::SessionError;
use itq_surface::{
    parse_alg_expr, parse_formula, parse_query, parse_term, parse_value_with, Pos, Session,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Variable names that are not reserved (no `a<digits>`, no keywords); the
/// primed and hashed spellings cover the printer's fresh-name output.
const VARS: [&str; 6] = ["x", "y", "z", "t", "s'", "v#0"];

/// Predicate names as the workloads spell them.
const PREDS: [&str; 4] = ["P", "PAR", "PERSON", "R2"];

fn var_name() -> impl Strategy<Value = String> {
    (0usize..VARS.len()).prop_map(|i| VARS[i].to_string())
}

fn pred_name() -> impl Strategy<Value = String> {
    (0usize..PREDS.len()).prop_map(|i| PREDS[i].to_string())
}

fn atom() -> impl Strategy<Value = Atom> {
    (0u32..50).prop_map(Atom)
}

/// Names for the first atoms of a universe.  None is spelled `a<digits>`,
/// which the parser reads as a raw atom, and none is a keyword.
const ATOM_NAMES: [&str; 6] = ["Tom", "Mary", "n12", "w0", "Zoë", "s'"];

/// Values over the named atoms (ids below `ATOM_NAMES.len()`) and nameless
/// ones above them, which render as `a<id>`; tuples are non-empty, as the
/// parser requires, and sets of any size.
fn named_value() -> BoxedStrategy<Value> {
    let first_nameless = ATOM_NAMES.len() as u32;
    let leaf = prop_oneof![
        (0..first_nameless).prop_map(Atom),
        any::<u32>().prop_map(move |id| Atom(id.max(first_nameless))),
        Just(Atom(u32::MAX)),
    ];
    leaf.prop_map(Value::Atom)
        .prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Value::Tuple),
                proptest::collection::vec(inner, 0..4).prop_map(Value::set),
            ]
        })
        .boxed()
}

/// Types of set-height ≤ 2 and width ≤ 3, honouring the tuple invariant.
fn ty() -> BoxedStrategy<Type> {
    Just(Type::Atomic)
        .prop_recursive(3, 8, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Type::set),
                proptest::collection::vec(inner, 1..4).prop_map(Type::tuple),
            ]
        })
        .boxed()
}

fn term() -> BoxedStrategy<Term> {
    prop_oneof![
        atom().prop_map(Term::Const),
        var_name().prop_map(Term::Var),
        (var_name(), 1usize..5).prop_map(|(v, i)| Term::Proj(v, i)),
    ]
    .boxed()
}

/// Arbitrary formulas over every constructor — including the one-element
/// conjunctions/disjunctions whose old rendering could not round-trip.
fn formula() -> BoxedStrategy<Formula> {
    let leaf = prop_oneof![
        (term(), term()).prop_map(|(a, b)| Formula::Eq(a, b)),
        (term(), term()).prop_map(|(a, b)| Formula::Member(a, b)),
        (pred_name(), term()).prop_map(|(p, t)| Formula::Pred(p, t)),
        Just(Formula::truth()),
        Just(Formula::falsity()),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::And),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::Or),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            (var_name(), ty(), inner.clone()).prop_map(|(v, t, f)| Formula::Exists(
                v,
                t,
                Box::new(f)
            )),
            (var_name(), ty(), inner).prop_map(|(v, t, f)| Formula::Forall(v, t, Box::new(f))),
        ]
    })
}

fn sel_term() -> BoxedStrategy<SelTerm> {
    prop_oneof![
        (1usize..5).prop_map(SelTerm::Coord),
        atom().prop_map(SelTerm::Const),
    ]
    .boxed()
}

fn sel_formula() -> BoxedStrategy<SelFormula> {
    let leaf = prop_oneof![
        (sel_term(), sel_term()).prop_map(|(a, b)| SelFormula::Eq(a, b)),
        (sel_term(), sel_term()).prop_map(|(a, b)| SelFormula::In(a, b)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(SelFormula::negate),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(SelFormula::And),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(SelFormula::Or),
            (inner.clone(), inner).prop_map(|(a, b)| SelFormula::implies(a, b)),
        ]
    })
}

fn alg_expr() -> BoxedStrategy<AlgExpr> {
    let leaf = prop_oneof![
        pred_name().prop_map(AlgExpr::Pred),
        atom().prop_map(AlgExpr::Singleton),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.product(b)),
            (proptest::collection::vec(1usize..6, 1..4), inner.clone())
                .prop_map(|(coords, e)| e.project(coords)),
            (sel_formula(), inner.clone()).prop_map(|(f, e)| e.select(f)),
            inner.clone().prop_map(AlgExpr::untuple),
            inner.clone().prop_map(AlgExpr::collapse),
            inner.prop_map(AlgExpr::powerset),
        ]
    })
}

/// Well-typed queries: one of the repo's canonical queries with a random stack
/// of validity-preserving decorations applied to its body.  (Arbitrary random
/// formulas are almost never t-wffs, so `Query` generation works by
/// construction instead.)
fn query() -> BoxedStrategy<Query> {
    let base = (0usize..4).prop_map(|i| match i {
        0 => queries::grandparent_query(),
        1 => queries::sibling_query(),
        2 => queries::transitive_closure_query(),
        _ => queries::even_cardinality_query(),
    });
    (base, proptest::collection::vec(0usize..4, 0..4))
        .prop_map(|(q, decorations)| {
            let mut body = q.body().clone();
            for d in decorations {
                body = match d {
                    // Singleton n-ary wrappers — the printer fix under test.
                    0 => Formula::And(vec![body]),
                    1 => Formula::Or(vec![body]),
                    2 => Formula::not(Formula::not(body)),
                    // A closed quantified conjunct with a type of height 2.
                    _ => Formula::And(vec![
                        body,
                        Formula::exists("w", Type::nested_set(2), Formula::truth()),
                    ]),
                };
            }
            q.with_body(body).expect("decorations preserve validity")
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse ∘ display` is the identity on terms.
    #[test]
    fn term_round_trips(t in term()) {
        prop_assert_eq!(parse_term(&t.to_string()), Ok(t));
    }

    /// `parse ∘ display` is the identity on formulas — every connective,
    /// quantifier, and n-ary arity (including singletons).
    #[test]
    fn formula_round_trips(f in formula()) {
        prop_assert_eq!(parse_formula(&f.to_string()), Ok(f));
    }

    /// `parse ∘ display` is the identity on algebra expressions, selection
    /// formulas included.
    #[test]
    fn alg_expr_round_trips(e in alg_expr()) {
        prop_assert_eq!(parse_alg_expr(&e.to_string()), Ok(e));
    }

    /// A value rendered through `Value::named` parses back to itself in the
    /// same universe: named atoms by name, nameless ones by their `a<id>`.
    #[test]
    fn named_values_round_trip(v in named_value()) {
        let mut universe = Universe::new();
        for name in ATOM_NAMES {
            universe.atom(name);
        }
        let text = v.named(&universe).to_string();
        prop_assert_eq!(parse_value_with(&text, &mut universe), Ok(v));
    }

    /// `parse ∘ display` is the identity on whole (validated) queries.
    #[test]
    fn query_round_trips(q in query()) {
        let reparsed = parse_query(&q.to_string(), q.schema());
        prop_assert_eq!(reparsed, Ok(q));
    }

    /// Parse errors point at the offending token: appending a stray `)` to a
    /// printed formula fails exactly at the `)` — one past the text, on the
    /// right line — even when the text is shifted to another line and column.
    #[test]
    fn parse_errors_carry_line_and_column(f in formula()) {
        let text = f.to_string();
        let width = text.chars().count();

        let err = parse_formula(&format!("{text} )")).unwrap_err();
        prop_assert_eq!(err.line(), 1);
        prop_assert_eq!(err.column(), width + 2);

        let err = parse_formula(&format!("\n  {text} )")).unwrap_err();
        prop_assert_eq!(err.line(), 2);
        prop_assert_eq!(err.column(), width + 4);
    }

    /// Truncating a printed formula anywhere still reports a position inside
    /// (or just past) the remaining text — errors never point off into space.
    #[test]
    fn parse_errors_stay_in_bounds(f in formula(), cut in 0usize..40) {
        let text = f.to_string();
        let chars: Vec<char> = text.chars().collect();
        let cut = cut.min(chars.len());
        let prefix: String = chars[..cut].iter().collect();
        match parse_formula(&prefix) {
            Ok(_) => {}
            Err(e) => {
                prop_assert_eq!(e.line(), 1);
                prop_assert!(e.column() <= cut + 1, "column {} past cut {}", e.column(), cut);
            }
        }
    }
}

/// The example scripts, the seeds of the statement fuzzer.
const EXAMPLE_SCRIPTS: [&str; 3] = [
    include_str!("../examples/check_demo.itq"),
    include_str!("../examples/explain_analyze.itq"),
    include_str!("../examples/genealogy_parity.itq"),
];

/// True when `pos` names a character of `src` or the position just past the
/// end of one of its lines.
fn inside(src: &str, pos: Pos) -> bool {
    let lines: Vec<&str> = src.split('\n').collect();
    (1..=lines.len()).contains(&pos.line)
        && (1..=lines[pos.line - 1].chars().count() + 1).contains(&pos.column)
}

/// A session for hostile input: tiny budgets, one invented value and a
/// deadline, so no statement runs for long.
fn hostile_session() -> Session {
    Session::with_engine(
        Engine::builder()
            .calc_config(EvalConfig::tiny())
            .alg_config(AlgConfig { max_instance: 64 })
            .max_invented(1)
            .deadline_millis(200)
            .build(),
    )
}

/// Run every statement of `bytes`, lossily decoded, through a fresh session
/// with tiny budgets and a deadline, one statement at a time.  Fails when a
/// statement panics or a parse error points outside the input.
fn run_hostile(bytes: &[u8]) -> Result<(), TestCaseError> {
    let src = String::from_utf8_lossy(bytes);
    let mut session = hostile_session();
    for (chunk, base) in split_statements(&src) {
        let run = catch_unwind(AssertUnwindSafe(|| session.run_statement(&chunk, base)));
        match run {
            Err(_) => prop_assert!(false, "statement {chunk:?} of {src:?} panicked"),
            Ok(Err(SessionError::Parse(e))) => {
                prop_assert!(inside(&src, e.pos), "{e} points outside {src:?}")
            }
            Ok(_) => {}
        }
    }
    Ok(())
}

/// One byte edit: overwrite, insert before, or delete the byte at a position
/// (taken modulo the length).
fn edit() -> impl Strategy<Value = (u8, usize, u8)> {
    (0u8..3, 0usize..4096, any::<u8>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic the statement layer.
    #[test]
    fn arbitrary_bytes_never_panic_a_session(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        run_hostile(&bytes)?;
    }

    /// An example script with random byte edits, cut at a random length,
    /// never panics the statement layer.
    #[test]
    fn mutilated_example_scripts_never_panic_a_session(
        script in 0usize..EXAMPLE_SCRIPTS.len(),
        edits in proptest::collection::vec(edit(), 1..8),
        cut in 0usize..4096,
    ) {
        let mut bytes = EXAMPLE_SCRIPTS[script].as_bytes().to_vec();
        for (op, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        bytes.truncate(cut);
        run_hostile(&bytes)?;
    }
}

/// One recursive production of the grammar, nested `n` levels deep inside the
/// declaration of `deep`, with the statements it needs first and the
/// statements that use it after.  `deepest` is the largest `n` the parser
/// accepts.
struct Nesting {
    production: &'static str,
    deepest: usize,
    setup: fn(usize) -> String,
    declaration: fn(usize) -> String,
    uses: &'static str,
}

const FAMILY: &str = "schema S {R : U, P : [U, U]}; \
    database d : S {R = {Tom, Mary}, P = {[Tom, Mary]}};";

const USE_QUERY: &str = "eval deep on d; eval deep on d with fi; \
    check deep; plan deep; show deep;";

/// `n` copies of `open`, `core`, then `n` copies of `close`.
fn nest(open: &str, core: &str, close: &str, n: usize) -> String {
    format!("{}{core}{}", open.repeat(n), close.repeat(n))
}

fn family(_: usize) -> String {
    FAMILY.to_string()
}

fn deep_query(body: String) -> String {
    format!("query deep : S {{t/U | {body}}};")
}

fn deep_algebra(expr: String) -> String {
    format!("algebra deep : S {expr};")
}

fn nestings() -> [Nesting; 9] {
    [
        Nesting {
            production: "not chain",
            deepest: 199,
            setup: family,
            declaration: |n| deep_query(nest("not ", "R(t)", "", n)),
            uses: USE_QUERY,
        },
        Nesting {
            production: "parentheses",
            deepest: 199,
            setup: family,
            declaration: |n| deep_query(nest("(", "R(t)", ")", n)),
            uses: USE_QUERY,
        },
        Nesting {
            production: "conjunction",
            deepest: 199,
            setup: family,
            declaration: |n| deep_query(nest("R(t) and (", "R(t)", ")", n)),
            uses: USE_QUERY,
        },
        Nesting {
            production: "quantifier chain",
            deepest: 199,
            setup: family,
            declaration: |n| {
                let prefix: String = (0..n).map(|i| format!("exists x{i}/U ")).collect();
                deep_query(format!("{prefix}R(t)"))
            },
            uses: USE_QUERY,
        },
        Nesting {
            production: "set type",
            deepest: 198,
            setup: family,
            declaration: |n| deep_query(format!("exists x/{} (R(t))", nest("{", "U", "}", n))),
            uses: USE_QUERY,
        },
        Nesting {
            production: "set value",
            deepest: 198,
            setup: |n| format!("schema V {{R : {}}};", nest("{", "U", "}", n)),
            declaration: |n| {
                format!(
                    "database deep : V {{R = {{{}}}}};",
                    nest("{", "Tom", "}", n)
                )
            },
            uses: "algebra rel : V R; eval rel on deep; eval rel on deep with fi; \
                check rel; plan rel; show deep; show V;",
        },
        Nesting {
            production: "projection chain",
            deepest: 99,
            setup: family,
            declaration: |n| deep_algebra(nest("pi_{1,2}(", "P", ")", n)),
            uses: USE_QUERY,
        },
        Nesting {
            production: "powerset chain",
            deepest: 99,
            setup: family,
            declaration: |n| deep_algebra(nest("powerset(", "R", ")", n)),
            uses: USE_QUERY,
        },
        Nesting {
            production: "selection conjunction",
            deepest: 197,
            setup: family,
            declaration: |n| {
                let condition = nest("$1 = $2 and (", "$1 = $2", ")", n);
                deep_algebra(format!("sigma_{{{condition}}}(P)"))
            },
            uses: USE_QUERY,
        },
    ]
}

/// Run each statement of `src` on `session`; the parse error of the first
/// statement that does not parse, if any.  A statement that panics fails the
/// test.
fn first_parse_error(session: &mut Session, src: &str, production: &str) -> Option<String> {
    for (chunk, base) in split_statements(src) {
        let run = catch_unwind(AssertUnwindSafe(|| session.run_statement(&chunk, base)));
        match run {
            Err(_) => panic!("{production}: statement `{:.60}…` panicked", chunk.trim()),
            Ok(Err(SessionError::Parse(e))) => return Some(e.message),
            Ok(_) => {}
        }
    }
    None
}

/// Declare `deep` at nesting depth `n` in a fresh session: the session, and
/// the declaration's parse error if it has one.
fn declare(nesting: &Nesting, n: usize) -> (Session, Option<String>) {
    let mut session = hostile_session();
    let setup = first_parse_error(&mut session, &(nesting.setup)(n), nesting.production);
    assert_eq!(setup, None, "{}: setup at depth {n}", nesting.production);
    let error = first_parse_error(&mut session, &(nesting.declaration)(n), nesting.production);
    (session, error)
}

/// Every recursive production, nested as deep as the parser accepts, runs
/// through the layers behind the parser — the declaration, `eval` under
/// limited and fi, `check`, `plan` and `show` — on a thread with the 2 MiB
/// stack `itq serve` gives a session, without a panic or a stack overflow;
/// one level deeper is the typed parse error.
#[test]
fn the_deepest_statements_run_on_a_served_sessions_stack() {
    for nesting in nestings() {
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let (production, deepest) = (nesting.production, nesting.deepest);
                let (mut session, error) = declare(&nesting, deepest);
                assert_eq!(error, None, "{production} at depth {deepest}");
                let error = first_parse_error(&mut session, nesting.uses, production);
                assert_eq!(error, None, "{production}: uses at depth {deepest}");
                let error = declare(&nesting, deepest + 1).1;
                assert!(
                    error
                        .as_ref()
                        .is_some_and(|e| e.contains("nests deeper than 200 levels")),
                    "{production} at depth {}: {error:?}",
                    deepest + 1
                );
            })
            .expect("spawn a 2 MiB thread");
        worker.join().expect("no panic escapes");
    }
}
