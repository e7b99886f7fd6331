//! Quickstart: build a complex-object database, run calculus and algebra queries,
//! classify them by intermediate type, and peek at the invented-value semantics.
//!
//! Run with `cargo run --example quickstart`.

use itq_core::prelude::*;
use itq_core::queries;

fn main() {
    // ---------------------------------------------------------------- data ----
    // The parent relation of Example 2.4: PAR(parent, child).
    let mut universe = Universe::new();
    let tom = universe.atom("Tom");
    let mary = universe.atom("Mary");
    let sue = universe.atom("Sue");
    let db = Database::single("PAR", Instance::from_pairs(vec![(tom, mary), (mary, sue)]));
    println!(
        "database PAR has {} tuples over {} atoms",
        db.relation("PAR").unwrap().len(),
        db.active_domain().len()
    );

    // --------------------------------------------------- calculus evaluation ----
    // Build the engine once (its plan settings and the interner), then
    // prepare each query once and execute the handle as often as needed.
    let engine = Engine::builder().universe(universe.clone()).build();

    let grandparent = engine.prepare(&queries::grandparent_query()).unwrap();
    let answer = grandparent.execute(&db, Semantics::Limited).unwrap();
    println!(
        "\ngrandparent query ({}):",
        grandparent.classification().minimal_class
    );
    for value in answer.result.iter() {
        println!("  {}", value.display_with(&universe));
    }

    // The transitive-closure query of Example 3.1 needs an intermediate type of
    // set-height 1 — it is *not* a relational-calculus query.  The handle
    // caches the classification computed at prepare time.
    let tc = engine
        .prepare(&queries::transitive_closure_query())
        .unwrap();
    println!(
        "\ntransitive closure is in {} with intermediate types {:?}",
        tc.classification().minimal_class,
        tc.classification().intermediate_types
    );
    let ancestors = tc.execute(&db, Semantics::Limited).unwrap();
    println!("ancestor pairs ({} total):", ancestors.result.len());
    for value in ancestors.result.iter() {
        println!("  {}", value.display_with(&universe));
    }
    println!(
        "execution statistics: {} formula steps, {} quantifier values, largest domain {}, \
         {} µs wall",
        ancestors.stats.steps,
        ancestors.stats.quantifier_values,
        ancestors.stats.max_domain_seen,
        ancestors.stats.wall_micros
    );

    // ----------------------------------------------------- algebra evaluation ----
    // Algebra expressions are planned once, at prepare time, and translated
    // to the calculus (Theorem 3.8) for classification; one run of the plan
    // answers every semantics, since invented values add nothing to them.
    let schema = queries::parent_schema();
    let grandparent_algebra = AlgExpr::pred("PAR")
        .product(AlgExpr::pred("PAR"))
        .select(SelFormula::coords_eq(2, 3))
        .project(vec![1, 4]);
    let prepared_algebra = engine
        .prepare_algebra(&grandparent_algebra, &schema)
        .unwrap();
    let algebra_answer = prepared_algebra.execute(&db, Semantics::Limited).unwrap();
    assert_eq!(algebra_answer.result, answer.result);
    println!("\nthe algebra expression {grandparent_algebra} agrees with the calculus query");

    // ------------------------------------------------------ invented values ----
    // Under finite invention a query may use scratch atoms that never appear in
    // the output (Section 6).  For relational-calculus queries like grandparent
    // this changes nothing (Theorem 6.11).  The same prepared handle executes
    // under every semantics — through a shared reference.
    let outcome = grandparent
        .execute(&db, Semantics::FiniteInvention)
        .unwrap();
    assert_eq!(outcome.result, answer.result);
    println!(
        "\nunder finite invention the grandparent answer is unchanged ({} pairs, \
         {} invention levels explored) — relational queries gain nothing from \
         invention (Theorem 6.11)",
        outcome.result.len(),
        outcome.stats.invention_levels
    );
}
