//! Transitive-closure baselines (experiment E2).
//!
//! The paper's motivating example (Example 3.1, after Vardi 1982 and
//! Abiteboul–Beeri) is that transitive closure is expressible in `CALC_{0,1}` via
//! an intermediate type of set-height 1 but not in the relational calculus
//! `CALC_{0,0}`.  To give that claim an executable baseline, this module provides
//! three classical polynomial-time algorithms for transitive closure; the
//! benchmark harness compares them against the powerset-based calculus and
//! algebra formulations.

use crate::ops::compose;
use crate::relation::Relation;
use itq_object::Atom;
use std::collections::BTreeMap;

/// Naive iteration: repeatedly add `R ∘ T` to `T` until nothing changes,
/// recomputing the full composition each round.
pub fn transitive_closure_naive(edges: &Relation) -> Relation {
    assert_eq!(edges.arity(), 2);
    let mut closure = edges.clone();
    loop {
        let step = compose(&closure, edges);
        if closure.absorb(&step) == 0 {
            return closure;
        }
    }
}

/// Semi-naive (differential) iteration: only join the *new* pairs discovered in
/// the previous round against the base relation.  The delta loop itself lives
/// in [`crate::fixpoint::seminaive`], shared with the Datalog engine and the
/// incremental view-refresh path.
pub fn transitive_closure_seminaive(edges: &Relation) -> Relation {
    assert_eq!(edges.arity(), 2);
    crate::fixpoint::seminaive(edges, |_, delta| compose(delta, edges))
}

/// Floyd–Warshall-style closure over the active domain.
pub fn transitive_closure_warshall(edges: &Relation) -> Relation {
    assert_eq!(edges.arity(), 2);
    let nodes: Vec<Atom> = edges.active_domain().into_iter().collect();
    let index: BTreeMap<Atom, usize> = nodes.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    let n = nodes.len();
    let mut reach = vec![false; n * n];
    for t in edges.iter() {
        reach[index[&t[0]] * n + index[&t[1]]] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i * n + k] {
                for j in 0..n {
                    if reach[k * n + j] {
                        reach[i * n + j] = true;
                    }
                }
            }
        }
    }
    let mut out = Relation::empty(2);
    for i in 0..n {
        for j in 0..n {
            if reach[i * n + j] {
                out.insert(vec![nodes[i], nodes[j]]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn a(n: u32) -> Atom {
        Atom(n)
    }

    /// The atoms reachable from `source` by a breadth-first search, the
    /// reference the closure algorithms are checked against.
    fn reachable_from(edges: &Relation, source: Atom) -> BTreeSet<Atom> {
        let mut adjacency: BTreeMap<Atom, Vec<Atom>> = BTreeMap::new();
        for t in edges.iter() {
            adjacency.entry(t[0]).or_default().push(t[1]);
        }
        let mut seen = BTreeSet::new();
        let mut frontier = vec![source];
        while let Some(node) = frontier.pop() {
            if let Some(next) = adjacency.get(&node) {
                for &m in next {
                    if seen.insert(m) {
                        frontier.push(m);
                    }
                }
            }
        }
        seen
    }

    fn chain(n: u32) -> Relation {
        Relation::from_pairs((0..n - 1).map(|i| (a(i), a(i + 1))))
    }

    fn cycle(n: u32) -> Relation {
        Relation::from_pairs((0..n).map(|i| (a(i), a((i + 1) % n))))
    }

    #[test]
    fn closure_of_a_chain() {
        let edges = chain(5);
        let expected: Relation =
            Relation::from_pairs((0..5u32).flat_map(|i| ((i + 1)..5).map(move |j| (a(i), a(j)))));
        assert_eq!(transitive_closure_naive(&edges), expected);
        assert_eq!(transitive_closure_seminaive(&edges), expected);
        assert_eq!(transitive_closure_warshall(&edges), expected);
    }

    #[test]
    fn closure_of_a_cycle_is_complete() {
        let edges = cycle(4);
        let closure = transitive_closure_seminaive(&edges);
        assert_eq!(closure.len(), 16);
        assert_eq!(transitive_closure_naive(&edges), closure);
        assert_eq!(transitive_closure_warshall(&edges), closure);
    }

    #[test]
    fn all_three_algorithms_agree_on_a_dag_with_branches() {
        let edges = Relation::from_pairs(vec![
            (a(0), a(1)),
            (a(0), a(2)),
            (a(1), a(3)),
            (a(2), a(3)),
            (a(3), a(4)),
            (a(5), a(5)),
        ]);
        let c1 = transitive_closure_naive(&edges);
        let c2 = transitive_closure_seminaive(&edges);
        let c3 = transitive_closure_warshall(&edges);
        assert_eq!(c1, c2);
        assert_eq!(c2, c3);
        assert!(c1.contains(&[a(0), a(4)]));
        assert!(c1.contains(&[a(5), a(5)]));
        assert!(!c1.contains(&[a(4), a(0)]));
    }

    #[test]
    fn closure_agrees_with_bfs_reachability() {
        let edges =
            Relation::from_pairs(vec![(a(0), a(1)), (a(1), a(2)), (a(2), a(1)), (a(3), a(0))]);
        let closure = transitive_closure_seminaive(&edges);
        for &source in &[a(0), a(1), a(2), a(3)] {
            let reach = reachable_from(&edges, source);
            for &target in &[a(0), a(1), a(2), a(3)] {
                assert_eq!(
                    closure.contains(&[source, target]),
                    reach.contains(&target),
                    "source {source} target {target}"
                );
            }
        }
    }

    #[test]
    fn empty_relation_has_empty_closure() {
        let edges = Relation::empty(2);
        assert!(transitive_closure_naive(&edges).is_empty());
        assert!(transitive_closure_seminaive(&edges).is_empty());
        assert!(transitive_closure_warshall(&edges).is_empty());
    }
}
