//! Surface-language walkthrough: the genealogy and parity experiments
//! reproduced purely from text.
//!
//! This example feeds `examples/genealogy_parity.itq` — the same script the
//! `itq` binary runs in CI — through an in-process [`itq_surface::Session`],
//! prints the output, and asserts the expected answers, demonstrating that
//! every experiment the repo builds as a Rust AST is also expressible as a
//! script.  Run with `cargo run -p itq --example surface_repl`.

use itq_surface::{parse_query, Session};

const SCRIPT: &str = include_str!("genealogy_parity.itq");

fn main() {
    let mut session = Session::new();
    let output = session
        .run_source(SCRIPT)
        .expect("the bundled script is valid");
    for line in &output {
        println!("{line}");
    }

    // The script's answers, as printed with interned atom names.
    let expect = |needle: &str| {
        assert!(
            output.iter().any(|l| l.contains(needle)),
            "expected `{needle}` in the script output"
        );
    };
    // Genealogy: grandparent pairs under all three semantics, the algebra
    // join under both invention semantics, and the algebra/compiled-calculus
    // agreement.
    expect("eval grandparent on family with limited: 2 objects");
    expect("eval grandparent on family with finite-invention: 2 objects");
    expect("eval grandparent on family with terminal-invention: undefined within bound");
    expect("[Tom, Sue]");
    expect("[Mary, Ann]");
    expect("eval ga on family with finite-invention: 2 objects");
    expect("eval ga on family with terminal-invention: undefined within bound");
    expect("compiled ga (algebra) → gc (calculus)");
    expect("eval gc on family with limited: 2 objects");
    // Parity: even committee returns everyone, odd committee returns nobody.
    expect("even ∈ CALC_{0,1} (minimal)");
    expect("eval even on committee4 with limited: 4 objects");
    expect("eval even on committee3 with limited: 0 objects");

    // The compiled query round-trips through its own printed form — the
    // parse∘display property on a query produced by the Theorem 3.8 translator.
    let gc = session.query("gc").expect("gc was bound by the script");
    let reparsed = parse_query(&gc.to_string(), gc.schema()).expect("display output reparses");
    assert_eq!(&reparsed, gc);

    println!();
    println!("surface_repl: all scripted answers match the hand-built experiments ✓");
}
