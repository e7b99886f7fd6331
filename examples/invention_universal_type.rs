//! Section 6 in action: encode deeply nested objects into the universal type
//! `T_univ = {[U,U,U,U]}` (Example 6.6 / Figure 3) and evaluate a query under the
//! invented-value semantics, observing that invention can decide properties the
//! limited interpretation cannot.
//!
//! Run with `cargo run --release --example invention_universal_type`.

use itq_core::prelude::*;
use itq_invention::eval_with_invented;

fn main() {
    let mut universe = Universe::new();

    // ------------------------------------------ universal-type encoding ----
    // A set-height-2 object: a set of (committee, chair) pairs where the
    // committee itself is a set of member pairs.
    let alice = universe.atom("Alice");
    let bob = universe.atom("Bob");
    let carol = universe.atom("Carol");
    let committee_type = Type::set(Type::tuple(vec![
        Type::set(Type::tuple(vec![Type::Atomic, Type::Atomic])),
        Type::Atomic,
    ]));
    let committees = Value::set(vec![Value::tuple(vec![
        Value::set(vec![Value::pair(alice, bob), Value::pair(bob, carol)]),
        Value::Atom(carol),
    ])]);

    let codec = UniversalCodec::new(&committee_type, &mut universe);
    let encoded = codec.encode(&committees, &mut universe).unwrap();
    println!(
        "object of type {} (set-height {}) encoded into {} rows of T_univ = {}",
        committee_type,
        committee_type.set_height(),
        encoded.rows(),
        UniversalCodec::target_type()
    );
    println!("\nencoded rows (node, object-id, coordinate, value):");
    for row in encoded.value.as_set().unwrap().iter().take(8) {
        println!("  {}", row.display_with(&universe));
    }
    let decoded = codec.decode(&encoded).unwrap();
    assert_eq!(decoded, committees);
    println!("\nround-trip decode recovers the original object — the encoding that collapses");
    println!("the CALC_{{0,i}} hierarchy to CALC_{{0,1}} under invention (Theorem 6.4).\n");

    // -------------------------------------------- invented-value semantics ----
    // "Is there room for one more guest?"  The query asks for an atom outside the
    // GUEST relation; under the limited interpretation no such atom exists, with a
    // single invented value it does.
    let guest_schema = Schema::single("GUEST", Type::Atomic);
    let query = Query::new(
        "t",
        Type::Atomic,
        Formula::and(vec![
            Formula::pred("GUEST", Term::var("t")),
            Formula::exists(
                "spare",
                Type::Atomic,
                Formula::not(Formula::pred("GUEST", Term::var("spare"))),
            ),
        ]),
        guest_schema,
    )
    .unwrap();
    let db = Database::single("GUEST", Instance::from_atoms(vec![alice, bob, carol]));

    let config = EvalConfig::default();
    let (limited, _) = eval_with_invented(&query, &db, 0, &config).unwrap();
    let (with_one, _) = eval_with_invented(&query, &db, 1, &config).unwrap();
    println!(
        "limited interpretation: {} answers; with one invented value: {} answers",
        limited.len(),
        with_one.len()
    );

    // The engine's invention semantics bundle the bounded search: one prepared
    // handle executes under both Section 6 semantics through `&self`.
    let engine = Engine::new();
    let prepared = engine.prepare(&query).unwrap();
    let finite = prepared.execute(&db, Semantics::FiniteInvention).unwrap();
    println!(
        "finite invention answer has {} tuples (bounded approximation: {}, \
         {} levels explored)",
        finite.result.len(),
        finite.bounded_approximation,
        finite.stats.invention_levels
    );
    let terminal = prepared.execute(&db, Semantics::TerminalInvention).unwrap();
    println!(
        "terminal invention answer has {} tuples (undefined-within-bound: {})",
        terminal.result.len(),
        terminal.bounded_approximation
    );
}
