//! Shared semi-naive (differential) fixpoint drivers.
//!
//! Three corners of this crate used to carry their own copy of the same loop:
//! [`crate::tc`]'s semi-naive transitive closure, [`crate::datalog`]'s
//! delta-position rule firing, and [`crate::while_loop`]'s budgeted
//! `while … changes` driver.  This module lifts the loop out once, in three
//! shapes:
//!
//! * [`seminaive`] / [`seminaive_from`]: the single-relation differential
//!   iteration (`delta := new facts; total ∪= delta; repeat`) — `_from`
//!   additionally accepts a warm `total`, which is what makes *incremental*
//!   maintenance possible: after an insertion, re-seed the loop with the old
//!   fixpoint as `total` and only the inserted tuples as `delta`;
//! * [`seminaive_store`]: the same iteration over a named family of relations
//!   (the Datalog IDB/EDB store), used by [`crate::datalog::Program::evaluate`];
//! * [`bounded_loop`]: the budget-guarded generic loop driver behind the
//!   `while` statements.
//!
//! The two semi-naive drivers poll an [`Interrupt`] once per round, before
//! the round's step runs, so deadlines, cancellation and injected faults stop
//! a fixpoint between rounds.  Each poll reports the facts held so far as
//! `tuples × arity × size_of::<Atom>()` bytes, which is what a memory ceiling
//! meters on this backend.

use crate::relation::Relation;
use itq_object::{Atom, Interrupt, ResourceError};
use std::collections::BTreeMap;

/// Run a semi-naive fixpoint from scratch: `total` and `delta` both start at
/// `seed`, and each round `step(&total, &delta)` proposes candidate facts, of
/// which only the genuinely new ones feed the next round.
///
/// `step` receives the *current* total and the previous round's delta; it may
/// over-derive (return already-known facts) — the driver filters against
/// `total` before iterating.
pub fn seminaive(seed: &Relation, step: impl FnMut(&Relation, &Relation) -> Relation) -> Relation {
    seminaive_from(seed.clone(), seed, Interrupt::disarmed(), step)
        .expect("a disarmed interrupt never trips")
        .0
}

/// Run a semi-naive fixpoint from a warm start: `total` already holds known
/// facts (e.g. yesterday's fixpoint plus today's insertions) and only
/// `delta_seed` is treated as new.  Returns the fixpoint and the number of
/// rounds the loop ran, or the governor's error if a round's poll trips.
///
/// The warm start is sound whenever `total` is contained in the final
/// fixpoint — for an inflationary operator the iteration can only ever add
/// facts that the from-scratch run would also derive.
pub fn seminaive_from(
    mut total: Relation,
    delta_seed: &Relation,
    interrupt: &Interrupt,
    mut step: impl FnMut(&Relation, &Relation) -> Relation,
) -> Result<(Relation, u64), ResourceError> {
    total.absorb(delta_seed);
    let mut delta = delta_seed.clone();
    let mut rounds = 0;
    while !delta.is_empty() {
        interrupt.check(fact_bytes(&total))?;
        rounds += 1;
        let candidate = step(&total, &delta);
        let new = candidate.difference(&total);
        total.absorb(&new);
        delta = new;
    }
    Ok((total, rounds))
}

/// The bytes a relation's facts occupy as atoms — what the drivers report to
/// the governor.
fn fact_bytes(relation: &Relation) -> u64 {
    (relation.len() * relation.arity() * std::mem::size_of::<Atom>()) as u64
}

/// A named family of relations — the store a Datalog program evaluates over.
pub type RelationStore = BTreeMap<String, Relation>;

/// Run a semi-naive fixpoint over a named family of relations, in place.
///
/// `seed` is absorbed into `total` and becomes the first delta; each round
/// `step(&total, &delta)` proposes per-relation candidate facts (it may
/// over-derive), the driver keeps only the tuples not already in `total`,
/// absorbs them, and feeds them to the next round as the new delta.  Returns
/// the number of rounds in which anything new was derived, or the governor's
/// error if a round's poll trips (`total` then holds the facts derived so
/// far, all of which belong to the fixpoint).
///
/// With `total` empty this is exactly bottom-up Datalog evaluation; with
/// `total` holding a previous fixpoint and `seed` holding freshly inserted
/// EDB facts it is incremental (insertion-only) maintenance of that fixpoint.
pub fn seminaive_store(
    total: &mut RelationStore,
    seed: RelationStore,
    interrupt: &Interrupt,
    mut step: impl FnMut(&RelationStore, &RelationStore) -> RelationStore,
) -> Result<u64, ResourceError> {
    let mut delta = seed;
    for (pred, rel) in &delta {
        total
            .entry(pred.clone())
            .or_insert_with(|| Relation::empty(rel.arity()))
            .absorb(rel);
    }
    delta.retain(|_, rel| !rel.is_empty());
    let mut rounds = 0;
    while !delta.is_empty() {
        interrupt.check(total.values().map(fact_bytes).sum())?;
        let derived = step(total, &delta);
        let mut fresh = RelationStore::new();
        for (pred, rel) in derived {
            let existing = total
                .entry(pred.clone())
                .or_insert_with(|| Relation::empty(rel.arity()));
            let new = rel.difference(existing);
            if !new.is_empty() {
                existing.absorb(&new);
                fresh.insert(pred, new);
            }
        }
        if fresh.is_empty() {
            return Ok(rounds);
        }
        rounds += 1;
        delta = fresh;
    }
    Ok(rounds)
}

/// Drive a loop under an iteration budget: `round` runs once per iteration
/// and returns `Ok(true)` to continue or `Ok(false)` to stop; after
/// `max_iterations` continuing rounds the driver stops with
/// `budget(max_iterations)` instead.  Returns the number of completed rounds.
///
/// This is the shared engine behind the `while … changes` / `while …
/// nonempty` statements: both express their stopping condition inside
/// `round`, and the budget guard lives here, once.
pub fn bounded_loop<E>(
    max_iterations: u64,
    mut round: impl FnMut() -> Result<bool, E>,
    budget: impl FnOnce(u64) -> E,
) -> Result<u64, E> {
    let mut iterations = 0u64;
    loop {
        if !round()? {
            return Ok(iterations);
        }
        iterations += 1;
        if iterations >= max_iterations {
            return Err(budget(max_iterations));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::compose;

    fn a(n: u32) -> Atom {
        Atom(n)
    }

    fn chain(n: u32) -> Relation {
        Relation::from_pairs((0..n - 1).map(|i| (a(i), a(i + 1))))
    }

    #[test]
    fn seminaive_computes_transitive_closure() {
        let edges = chain(5);
        let closure = seminaive(&edges, |_, delta| compose(delta, &edges));
        assert_eq!(closure.len(), 10); // 4+3+2+1 pairs
        assert!(closure.contains(&[a(0), a(4)]));
    }

    #[test]
    fn warm_start_matches_from_scratch_after_an_insert() {
        // Close chain 0→1→2, then insert 2→3 and re-close from the warm total
        // using the doubly-recursive step (delta on either side).
        let old_edges = chain(3);
        let old_closure = seminaive(&old_edges, |_, delta| compose(delta, &old_edges));
        let inserted = Relation::from_pairs(vec![(a(2), a(3))]);
        let (warm, rounds) = seminaive_from(
            old_closure,
            &inserted,
            Interrupt::disarmed(),
            |total, delta| {
                let mut out = compose(delta, total);
                out.absorb(&compose(total, delta));
                out
            },
        )
        .unwrap();
        let mut new_edges = chain(3);
        new_edges.absorb(&inserted);
        let scratch = seminaive(&new_edges, |_, delta| compose(delta, &new_edges));
        assert_eq!(warm, scratch);
        assert!(rounds >= 1);
    }

    #[test]
    fn seminaive_store_reaches_the_same_fixpoint_incrementally() {
        // T(x,z) :- T(x,y), T(y,z) over a store, from scratch vs. warm.
        let step = |total: &RelationStore, delta: &RelationStore| {
            let t = &total["T"];
            let d = &delta["T"];
            let mut out = compose(d, t);
            out.absorb(&compose(t, d));
            let mut derived = RelationStore::new();
            derived.insert("T".to_string(), out);
            derived
        };
        let mut scratch = RelationStore::new();
        let mut seed = RelationStore::new();
        seed.insert("T".to_string(), chain(4));
        seminaive_store(&mut scratch, seed, Interrupt::disarmed(), step).unwrap();

        let mut warm = RelationStore::new();
        let mut first = RelationStore::new();
        first.insert("T".to_string(), chain(3));
        seminaive_store(&mut warm, first, Interrupt::disarmed(), step).unwrap();
        let mut second = RelationStore::new();
        second.insert("T".to_string(), Relation::from_pairs(vec![(a(2), a(3))]));
        let rounds = seminaive_store(&mut warm, second, Interrupt::disarmed(), step).unwrap();
        assert_eq!(warm["T"], scratch["T"]);
        assert!(rounds >= 1);
    }

    #[test]
    fn seminaive_store_ignores_empty_seeds() {
        let mut total = RelationStore::new();
        total.insert("T".to_string(), chain(3));
        let mut seed = RelationStore::new();
        seed.insert("T".to_string(), Relation::empty(2));
        let rounds = seminaive_store(&mut total, seed, Interrupt::disarmed(), |_, _| {
            panic!("step must not run on an empty seed")
        });
        assert_eq!(rounds, Ok(0));
    }

    #[test]
    fn the_drivers_poll_once_per_round_and_report_fact_bytes() {
        use itq_object::TripKind;
        let edges = chain(5);
        let step = |_: &Relation, delta: &Relation| compose(delta, &edges);
        // The 5-chain closes in four rounds, the last deriving nothing new.
        let counting = Interrupt::new().with_memory_ceiling(u64::MAX);
        let (closure, rounds) = seminaive_from(edges.clone(), &edges, &counting, step).unwrap();
        assert_eq!((closure.len(), rounds), (10, 4));
        assert_eq!(counting.polls(), rounds);
        // A trip at any round surfaces as the governor's error.
        for nth in 1..=rounds {
            let tripping = Interrupt::new().with_trip_after(nth, TripKind::Cancel);
            let err = seminaive_from(edges.clone(), &edges, &tripping, step).unwrap_err();
            assert_eq!(err, ResourceError::Cancelled);
        }
        // The first poll sees the four seed pairs: 4 × 2 × 4 bytes.
        let bytes = 4 * 2 * std::mem::size_of::<Atom>() as u64;
        let ceiling = Interrupt::new().with_memory_ceiling(bytes - 1);
        let err = seminaive_from(edges.clone(), &edges, &ceiling, step).unwrap_err();
        assert_eq!(err, ResourceError::MemoryCeiling { limit: bytes - 1 });
        let mut store = RelationStore::new();
        let mut seed = RelationStore::new();
        seed.insert("T".to_string(), edges.clone());
        let ceiling = Interrupt::new().with_memory_ceiling(bytes);
        let err = seminaive_store(&mut store, seed, &ceiling, |total, delta| {
            let mut derived = RelationStore::new();
            derived.insert("T".to_string(), compose(&delta["T"], &total["T"]));
            derived
        })
        .unwrap_err();
        assert_eq!(err, ResourceError::MemoryCeiling { limit: bytes });
    }

    #[test]
    fn bounded_loop_counts_rounds_and_enforces_the_budget() {
        let mut n = 0;
        let rounds = bounded_loop::<()>(
            10,
            || {
                n += 1;
                Ok(n < 4)
            },
            |_| (),
        )
        .unwrap();
        assert_eq!(rounds, 3);
        let err = bounded_loop(3, || Ok::<bool, u64>(true), |limit| limit).unwrap_err();
        assert_eq!(err, 3);
    }
}
