//! Encoding Turing-machine computations as complex objects (Example 3.5,
//! Figure 2).
//!
//! A run of a machine is flattened into a relation of four-column tuples
//! `(t, p, r, s)`: at step `t`, tape cell `p` holds symbol `r`, and `s` is the
//! machine's state if the head is on `p` at step `t` and the distinguished
//! "no-head" marker otherwise.  Steps, cells, symbols, states, and the marker are
//! all represented by atoms drawn from a [`Universe`], so the encoded computation
//! is an ordinary instance of the flat type `[U, U, U, U]` — exactly the object a
//! variable of type `{[T, T, U, U]}` holds in the paper's constructions.
//!
//! [`verify_encoding`] checks the constraints the calculus formula `COMP_{M,T}`
//! would impose: the step/cell pair is a key, consecutive steps are related by a
//! legal move of the machine, and the final step is a halting configuration.

use crate::machine::{Move, TuringMachine, BLANK};
use crate::run::Run;
use itq_object::{Atom, Instance, Type, Universe, Value};
use std::collections::BTreeMap;

/// The flat tuple type `[U, U, U, U]` of one encoded cell observation.
pub fn comp_tuple_type() -> Type {
    Type::flat_tuple(4)
}

/// A run encoded as a complex-object relation plus the atom dictionaries needed
/// to interpret (and verify) it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedComputation {
    /// The four-column relation of `(step, cell, symbol, state-or-marker)` tuples.
    pub relation: Instance,
    /// Atoms representing steps `0, 1, …` in order — the total order the paper's
    /// `ORD` formula would provide.
    pub step_atoms: Vec<Atom>,
    /// Atoms representing tape cells `0, 1, …` in order.
    pub cell_atoms: Vec<Atom>,
    /// Atom for each tape symbol, indexed by symbol.
    pub symbol_atoms: Vec<Atom>,
    /// Atom for each machine state, indexed by state.
    pub state_atoms: Vec<Atom>,
    /// The marker atom used in the state column when the head is elsewhere.
    pub no_head_atom: Atom,
}

impl EncodedComputation {
    /// Number of tuples in the encoded relation.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// True if the encoding is empty (never the case for a real run).
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Total number of atoms invented for the encoding — the "index budget" that,
    /// in the paper, comes from the constructive domain of the intermediate type
    /// (or from invented values in Section 6).
    pub fn atom_budget(&self) -> usize {
        self.step_atoms.len()
            + self.cell_atoms.len()
            + self.symbol_atoms.len()
            + self.state_atoms.len()
            + 1
    }
}

/// Encode a run of `machine` into a flat relation, inventing the necessary index
/// atoms from `universe`.
pub fn encode_run(
    run: &Run,
    machine: &TuringMachine,
    universe: &mut Universe,
) -> EncodedComputation {
    let steps = run.trace.len();
    let cells = run.tape_cells();
    let step_atoms = universe.invent_many(steps);
    let cell_atoms = universe.invent_many(cells);
    let symbol_atoms: Vec<Atom> = (0..machine.alphabet_size)
        .map(|s| universe.atom(&format!("sym{s}")))
        .collect();
    let state_atoms: Vec<Atom> = (0..machine.num_states)
        .map(|q| universe.atom(&format!("q{q}")))
        .collect();
    let no_head_atom = universe.atom("-");

    let mut relation = Instance::empty();
    for (t, configuration) in run.trace.iter().enumerate() {
        for (p, &cell_atom) in cell_atoms.iter().enumerate() {
            let symbol = configuration.tape.get(p).copied().unwrap_or(BLANK);
            let state_column = if configuration.head == p {
                state_atoms[configuration.state as usize]
            } else {
                no_head_atom
            };
            relation.insert(Value::atom_tuple(vec![
                step_atoms[t],
                cell_atom,
                symbol_atoms[symbol as usize],
                state_column,
            ]));
        }
    }

    EncodedComputation {
        relation,
        step_atoms,
        cell_atoms,
        symbol_atoms,
        state_atoms,
        no_head_atom,
    }
}

/// A decoded view of one step: tape contents, head position, and state.
struct DecodedStep {
    tape: Vec<u8>,
    head: Option<usize>,
    state: Option<u16>,
}

/// Verify that an encoded computation satisfies the `COMP_{M,T}` constraints of
/// Example 3.5 with respect to `machine`:
///
/// 1. every `(step, cell)` pair appears exactly once (the first two columns are a
///    key and the table is rectangular);
/// 2. exactly one cell per step carries a state (the head position);
/// 3. step 0 is an initial configuration (start state, head on cell 0);
/// 4. each consecutive pair of steps is related by the machine's transition
///    function;
/// 5. the final step is a halting configuration, and acceptance matches
///    `require_accept`.
///
/// Returns a human-readable reason on failure.
pub fn verify_encoding(
    enc: &EncodedComputation,
    machine: &TuringMachine,
    require_accept: bool,
) -> Result<(), String> {
    let step_index: BTreeMap<Atom, usize> = enc
        .step_atoms
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i))
        .collect();
    let cell_index: BTreeMap<Atom, usize> = enc
        .cell_atoms
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i))
        .collect();
    let symbol_index: BTreeMap<Atom, u8> = enc
        .symbol_atoms
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as u8))
        .collect();
    let state_index: BTreeMap<Atom, u16> = enc
        .state_atoms
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as u16))
        .collect();

    let steps = enc.step_atoms.len();
    let cells = enc.cell_atoms.len();
    if steps == 0 || cells == 0 {
        return Err("encoding has no steps or no cells".to_string());
    }

    // Decode the table, checking the key constraint.
    let mut decoded: Vec<DecodedStep> = (0..steps)
        .map(|_| DecodedStep {
            tape: vec![u8::MAX; cells],
            head: None,
            state: None,
        })
        .collect();
    let mut seen = 0usize;
    for row in enc.relation.iter() {
        let columns = row.as_tuple().ok_or("non-tuple row")?;
        if columns.len() != 4 {
            return Err(format!("row {row} does not have four columns"));
        }
        let t = *step_index
            .get(&columns[0].as_atom().ok_or("non-atomic step column")?)
            .ok_or("unknown step atom")?;
        let p = *cell_index
            .get(&columns[1].as_atom().ok_or("non-atomic cell column")?)
            .ok_or("unknown cell atom")?;
        let r = *symbol_index
            .get(&columns[2].as_atom().ok_or("non-atomic symbol column")?)
            .ok_or("unknown symbol atom")?;
        let state_col = columns[3].as_atom().ok_or("non-atomic state column")?;
        if decoded[t].tape[p] != u8::MAX {
            return Err(format!("duplicate entry for step {t}, cell {p}"));
        }
        decoded[t].tape[p] = r;
        if state_col != enc.no_head_atom {
            let q = *state_index.get(&state_col).ok_or("unknown state atom")?;
            if decoded[t].head.is_some() {
                return Err(format!("two head positions at step {t}"));
            }
            decoded[t].head = Some(p);
            decoded[t].state = Some(q);
        }
        seen += 1;
    }
    if seen != steps * cells {
        return Err(format!(
            "table is not rectangular: {seen} rows for {steps} steps × {cells} cells"
        ));
    }
    for (t, step) in decoded.iter().enumerate() {
        if step.head.is_none() {
            return Err(format!("no head position at step {t}"));
        }
    }

    // Initial configuration.
    if decoded[0].state != Some(machine.start_state) {
        return Err("step 0 is not in the start state".to_string());
    }
    if decoded[0].head != Some(0) {
        return Err("step 0 does not have the head on cell 0".to_string());
    }

    // Transition validity between consecutive steps.
    for t in 0..steps - 1 {
        let current = &decoded[t];
        let next = &decoded[t + 1];
        let head = current.head.expect("checked above");
        let state = current.state.expect("checked above");
        let scanned = current.tape[head];
        let transition = machine
            .transition(state, scanned)
            .ok_or_else(|| format!("step {t} is a halting configuration but has a successor"))?;
        // The scanned cell is rewritten; every other cell is unchanged.
        for p in 0..cells {
            let expected = if p == head {
                transition.write
            } else {
                current.tape[p]
            };
            if next.tape[p] != expected {
                return Err(format!(
                    "cell {p} changed illegally between steps {t} and {}",
                    t + 1
                ));
            }
        }
        let expected_head = match transition.movement {
            Move::Left => head.saturating_sub(1),
            Move::Right => head + 1,
            Move::Stay => head,
        };
        if next.head != Some(expected_head) {
            return Err(format!(
                "head moved illegally between steps {t} and {}",
                t + 1
            ));
        }
        if next.state != Some(transition.next_state) {
            return Err(format!(
                "state changed illegally between steps {t} and {}",
                t + 1
            ));
        }
    }

    // Final configuration must be halting.
    let last = &decoded[steps - 1];
    let state = last.state.expect("checked above");
    let scanned = last.tape[last.head.expect("checked above")];
    if !machine.halts_on(state, scanned) {
        return Err("final step is not a halting configuration".to_string());
    }
    if require_accept && state != machine.accept_state {
        return Err("final state is not the accept state".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::parity_machine;
    use crate::run::run;
    use itq_object::conform;

    fn accepted_encoding(ones: usize) -> (EncodedComputation, TuringMachine) {
        let machine = parity_machine();
        let input = vec![1u8; ones];
        let r = run(&machine, &input, 1000);
        assert!(r.accepted());
        let mut universe = Universe::new();
        (encode_run(&r, &machine, &mut universe), machine)
    }

    #[test]
    fn encoding_has_rectangular_shape() {
        let (enc, _machine) = accepted_encoding(4);
        assert_eq!(enc.len(), enc.step_atoms.len() * enc.cell_atoms.len());
        assert!(conform("COMP", &comp_tuple_type(), enc.relation.iter()).is_ok());
        assert!(!enc.is_empty());
        assert!(enc.atom_budget() > enc.step_atoms.len());
    }

    #[test]
    fn faithful_encodings_verify() {
        for n in [0usize, 2, 4] {
            let (enc, machine) = accepted_encoding(n);
            verify_encoding(&enc, &machine, true).expect("encoding should verify");
        }
    }

    #[test]
    fn rejecting_runs_verify_without_the_accept_requirement() {
        let machine = parity_machine();
        let r = run(&machine, &[1u8; 3], 1000);
        assert!(!r.accepted());
        let mut universe = Universe::new();
        let enc = encode_run(&r, &machine, &mut universe);
        assert!(verify_encoding(&enc, &machine, false).is_ok());
        assert!(verify_encoding(&enc, &machine, true).is_err());
    }

    #[test]
    fn tampered_encodings_are_rejected() {
        let (enc, machine) = accepted_encoding(2);

        // Remove one row: the table is no longer rectangular.
        let mut missing = enc.clone();
        let some_row = missing.relation.iter().next().unwrap().clone();
        missing.relation = Instance::from_values(
            missing
                .relation
                .iter()
                .filter(|v| **v != some_row)
                .cloned()
                .collect::<Vec<_>>(),
        );
        assert!(verify_encoding(&missing, &machine, true).is_err());

        // Swap the symbol of a non-head cell at some middle step: illegal change.
        let mut tampered = enc.clone();
        let target_step = tampered.step_atoms[1];
        let mut rows: Vec<Value> = tampered.relation.iter().cloned().collect();
        for row in rows.iter_mut() {
            let columns = row.as_tuple().unwrap().to_vec();
            if columns[0].as_atom() == Some(target_step)
                && columns[3].as_atom() == Some(tampered.no_head_atom)
            {
                let flipped = if columns[2].as_atom() == Some(tampered.symbol_atoms[0]) {
                    tampered.symbol_atoms[1]
                } else {
                    tampered.symbol_atoms[0]
                };
                *row = Value::atom_tuple(vec![
                    columns[0].as_atom().unwrap(),
                    columns[1].as_atom().unwrap(),
                    flipped,
                    columns[3].as_atom().unwrap(),
                ]);
                break;
            }
        }
        tampered.relation = Instance::from_values(rows);
        assert!(verify_encoding(&tampered, &machine, true).is_err());
    }

    #[test]
    fn truncated_run_fails_final_halting_check() {
        let machine = parity_machine();
        let r = run(&machine, &[1u8; 6], 3); // cut off mid-computation
        let mut universe = Universe::new();
        let enc = encode_run(&r, &machine, &mut universe);
        let err = verify_encoding(&enc, &machine, false).unwrap_err();
        assert!(err.contains("halting"), "unexpected error: {err}");
    }
}
