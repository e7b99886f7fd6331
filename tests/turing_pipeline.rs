//! Integration tests for the Turing-machine pipeline behind Example 3.5,
//! Theorem 4.4 and Example 6.14: run a machine, encode the computation as a
//! complex object, verify the `COMP` constraints, and relate the index budget to
//! the hyper-exponential bounds and to the invention semantics.

use itq_core::complexity::{growth_table, quantifier_domain_bounds};
use itq_object::cons::cons_cardinality;
use itq_object::{conform, hyp, Type, Universe};
use itq_turing::machines::{palindrome_machine, parity_machine, stepper_machine, ONE, TWO};
use itq_turing::{comp_tuple_type, encode_run, run, verify_encoding, RunOutcome};

#[test]
fn parity_machine_agrees_with_the_parity_query_semantics() {
    // The machine accepts 1^n exactly when the even-cardinality query of
    // Example 3.2 returns a non-empty answer on an n-person database.
    let machine = parity_machine();
    for n in 0..6usize {
        let machine_accepts = run(&machine, &vec![ONE; n], 1_000).accepted();
        assert_eq!(machine_accepts, n % 2 == 0, "n = {n}");
    }
}

#[test]
fn encodings_of_varied_machines_all_verify() {
    let mut universe = Universe::new();
    let cases: Vec<(itq_turing::TuringMachine, Vec<u8>, bool)> = vec![
        (parity_machine(), vec![ONE; 4], true),
        (parity_machine(), vec![ONE; 5], false),
        (palindrome_machine(), vec![ONE, TWO, ONE], true),
        (palindrome_machine(), vec![ONE, TWO, TWO], false),
        (stepper_machine(7), vec![], true),
    ];
    for (machine, input, accepts) in cases {
        let execution = run(&machine, &input, 100_000);
        assert_eq!(execution.accepted(), accepts, "{machine}");
        let encoding = encode_run(&execution, &machine, &mut universe);
        verify_encoding(&encoding, &machine, accepts)
            .unwrap_or_else(|e| panic!("encoding of {machine} on {input:?} failed to verify: {e}"));
        // The encoding is rectangular: steps × cells rows of the 4-column type.
        assert_eq!(
            encoding.len(),
            encoding.step_atoms.len() * encoding.cell_atoms.len()
        );
        assert!(conform("COMP", &comp_tuple_type(), encoding.relation.iter()).is_ok());
    }
}

#[test]
fn index_budget_fits_within_the_papers_bounds() {
    // Example 3.5: a variable of type {[T, T, U, U]} can index a computation of
    // length |cons_A(T)|.  Check that for the stepper machine of k steps, an
    // intermediate type T with hyp(w, a, i) ≥ k+1 provides enough step indices.
    let mut universe = Universe::new();
    for k in [3u16, 10, 25] {
        let machine = stepper_machine(k);
        let execution = run(&machine, &[], 10_000);
        assert_eq!(execution.outcome, RunOutcome::Accepted);
        let encoding = encode_run(&execution, &machine, &mut universe);
        let steps_needed = encoding.step_atoms.len() as u64;

        // Find the smallest set-height i such that T_big(2, i) over 3 atoms
        // provides at least `steps_needed` index values.
        let atoms = 3usize;
        let mut level = 0usize;
        loop {
            let capacity = cons_cardinality(&Type::big(2, level), atoms);
            if capacity.saturating_u64() >= steps_needed {
                break;
            }
            level += 1;
            assert!(level < 4, "index space should suffice by level 3");
        }
        // The paper's bound: capacity ≤ hyp(2, atoms, level).
        let capacity = cons_cardinality(&Type::big(2, level), atoms);
        assert!(capacity.log2() <= hyp(2, atoms as u64, level as u32).log2() + 1e-9);
    }
}

#[test]
fn growth_table_matches_direct_cons_computation() {
    for atoms in 2..5u64 {
        for row in growth_table(2, atoms, 2) {
            let ty = Type::big(row.width, row.level);
            let (actual, bound) = quantifier_domain_bounds(&ty, atoms);
            assert!((actual.log2().max(0.0) - row.cons_log2).abs() < 1e-9);
            assert!((bound.log2().max(0.0) - row.hyp_log2).abs() < 1e-9);
        }
    }
}

#[test]
fn longer_inputs_need_more_index_atoms() {
    // The palindrome machine runs in Θ(n²) steps, so the encoding's index budget
    // grows superlinearly with the input — the "space" an intermediate type (or a
    // supply of invented values, Example 6.14) must provide.
    let machine = palindrome_machine();
    let mut universe = Universe::new();
    let mut previous_budget = 0usize;
    for n in [2usize, 4, 8] {
        let input = vec![ONE; n];
        let execution = run(&machine, &input, 1_000_000);
        assert!(execution.accepted());
        let encoding = encode_run(&execution, &machine, &mut universe);
        assert!(encoding.atom_budget() > previous_budget);
        previous_budget = encoding.atom_budget();
    }
    // Quadratic growth: the budget for n = 8 exceeds twice the budget for n = 4.
    assert!(previous_budget > 2 * 20);
}
