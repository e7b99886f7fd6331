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

use crate::relation::Relation;
use std::collections::BTreeMap;

/// Run a semi-naive fixpoint from scratch: `total` and `delta` both start at
/// `seed`, and each round `step(&total, &delta)` proposes candidate facts, of
/// which only the genuinely new ones feed the next round.
///
/// `step` receives the *current* total and the previous round's delta; it may
/// over-derive (return already-known facts) — the driver filters against
/// `total` before iterating.
pub fn seminaive(seed: &Relation, step: impl FnMut(&Relation, &Relation) -> Relation) -> Relation {
    seminaive_from(seed.clone(), seed, step).0
}

/// Run a semi-naive fixpoint from a warm start: `total` already holds known
/// facts (e.g. yesterday's fixpoint plus today's insertions) and only
/// `delta_seed` is treated as new.  Returns the fixpoint and the number of
/// rounds the loop ran.
///
/// The warm start is sound whenever `total` is contained in the final
/// fixpoint — for an inflationary operator the iteration can only ever add
/// facts that the from-scratch run would also derive.
pub fn seminaive_from(
    mut total: Relation,
    delta_seed: &Relation,
    mut step: impl FnMut(&Relation, &Relation) -> Relation,
) -> (Relation, u64) {
    total.absorb(delta_seed);
    let mut delta = delta_seed.clone();
    let mut rounds = 0;
    while !delta.is_empty() {
        rounds += 1;
        let candidate = step(&total, &delta);
        let new = candidate.difference(&total);
        total.absorb(&new);
        delta = new;
    }
    (total, rounds)
}

/// A named family of relations — the store a Datalog program evaluates over.
pub type RelationStore = BTreeMap<String, Relation>;

/// Run a semi-naive fixpoint over a named family of relations, in place.
///
/// `seed` is absorbed into `total` and becomes the first delta; each round
/// `step(&total, &delta)` proposes per-relation candidate facts (it may
/// over-derive), the driver keeps only the tuples not already in `total`,
/// absorbs them, and feeds them to the next round as the new delta.  Returns
/// the number of rounds in which anything new was derived.
///
/// With `total` empty this is exactly bottom-up Datalog evaluation; with
/// `total` holding a previous fixpoint and `seed` holding freshly inserted
/// EDB facts it is incremental (insertion-only) maintenance of that fixpoint.
pub fn seminaive_store(
    total: &mut RelationStore,
    seed: RelationStore,
    mut step: impl FnMut(&RelationStore, &RelationStore) -> RelationStore,
) -> u64 {
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
            return rounds;
        }
        rounds += 1;
        delta = fresh;
    }
    rounds
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
    use itq_object::Atom;

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
        let (warm, rounds) = seminaive_from(old_closure, &inserted, |total, delta| {
            let mut out = compose(delta, total);
            out.absorb(&compose(total, delta));
            out
        });
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
        seminaive_store(&mut scratch, seed, step);

        let mut warm = RelationStore::new();
        let mut first = RelationStore::new();
        first.insert("T".to_string(), chain(3));
        seminaive_store(&mut warm, first, step);
        let mut second = RelationStore::new();
        second.insert("T".to_string(), Relation::from_pairs(vec![(a(2), a(3))]));
        let rounds = seminaive_store(&mut warm, second, step);
        assert_eq!(warm["T"], scratch["T"]);
        assert!(rounds >= 1);
    }

    #[test]
    fn seminaive_store_ignores_empty_seeds() {
        let mut total = RelationStore::new();
        total.insert("T".to_string(), chain(3));
        let mut seed = RelationStore::new();
        seed.insert("T".to_string(), Relation::empty(2));
        let rounds = seminaive_store(&mut total, seed, |_, _| {
            panic!("step must not run on an empty seed")
        });
        assert_eq!(rounds, 0);
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
