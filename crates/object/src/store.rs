//! Hash-consed value storage and memoized constructive domains.
//!
//! The tree-walking evaluator pays for the paper's hyper-exponential domains
//! twice: every quantifier iteration re-enumerates `cons_X(T)` from scratch
//! (deep [`Value`] construction per drawn element), and every comparison walks
//! whole value trees.  This module removes both costs for the compiled
//! evaluation backend:
//!
//! * a [`ValueStore`] interns values structurally — equal values share one
//!   dense [`ValueId`], so equality is an integer comparison, set membership is
//!   an id lookup, and projection is an array index;
//! * a [`DomainCache`] materialises each constructive domain `cons_X(T)` at
//!   most **once per execution**, keyed by type, as a lazily-extended prefix
//!   of [`ValueId`]s in the same deterministic rank order as
//!   [`ConsIter`](crate::cons::ConsIter) — nested quantifiers replay the
//!   cached prefix instead of re-enumerating, and short-circuited searches
//!   never pay for the ranks they skip.
//!
//! Both structures expose counters (`interned_values`, cache hits/misses) so
//! the optimisation stays observable in execution statistics rather than being
//! merely asserted.

use crate::atom::Atom;
use crate::cons::cons_cardinality;
use crate::error::ObjectError;
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A dense identifier for an interned [`Value`] inside one [`ValueStore`].
///
/// Ids are only meaningful relative to the store that issued them.  Because
/// interning is structural (hash-consing), two values are equal **iff** their
/// ids are equal, which is what makes the compiled evaluator's hot path
/// allocation- and comparison-free.
///
/// ```
/// use itq_object::store::ValueStore;
/// use itq_object::{Atom, Value};
///
/// let mut store = ValueStore::new();
/// let a = store.intern(&Value::pair(Atom(0), Atom(1)));
/// let b = store.intern(&Value::pair(Atom(0), Atom(1)));
/// let c = store.intern(&Value::pair(Atom(1), Atom(0)));
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(u32);

/// The interned shape of one value: children are ids, so a node is small and
/// hashing/equality never recurse into subtrees.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    /// An atomic object.
    Atom(Atom),
    /// A tuple of interned components, in coordinate order.
    Tuple(Box<[ValueId]>),
    /// A set of interned elements, sorted by id and deduplicated (canonical
    /// because interning is structural: same element ⇒ same id).
    Set(Box<[ValueId]>),
}

/// A structural value interner (hash-consing arena).
///
/// Stores each distinct [`Value`] exactly once, as a shallow node whose
/// children are [`ValueId`]s, and maps structurally equal values to the same
/// id.  All compiled-evaluator operations on values (equality, membership,
/// projection) reduce to O(1)/O(log n) id arithmetic.
///
/// ## Sharing across threads
///
/// A store is split into a **read-mostly frozen prefix** and a private write
/// side.  [`ValueStore::freeze`] seals a store into an `Arc`;
/// [`ValueStore::overlay`] starts a new store whose ids `0..base.len()` are
/// served from the shared frozen prefix while every *new* interning goes to
/// the overlay's own arena.  Partitioned executions hand each worker an
/// overlay over one frozen base, so the workers never serialize on a shared
/// `&mut` arena, yet all agree on the ids of the pre-interned prefix
/// (relations, constants, pre-enumerated candidate domains).
///
/// ```
/// use itq_object::store::ValueStore;
/// use itq_object::{Atom, Value};
///
/// let mut store = ValueStore::new();
/// let elem = store.intern(&Value::Atom(Atom(3)));
/// let set = store.intern(&Value::set(vec![Value::Atom(Atom(3)), Value::Atom(Atom(4))]));
/// assert!(store.set_contains(set, elem));
/// assert_eq!(store.resolve(set), Value::set(vec![Value::Atom(Atom(3)), Value::Atom(Atom(4))]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ValueStore {
    /// The shared immutable prefix (ids `0..base_len`), if this store is an
    /// overlay; `None` for a plain root store.
    base: Option<Arc<ValueStore>>,
    /// Cached `base.len()` — the first id owned by this overlay.
    base_len: u32,
    /// Cached `base.approx_bytes()`, counted into [`ValueStore::approx_bytes`].
    base_bytes: u64,
    /// Locally interned nodes, ids `base_len..`.
    nodes: Vec<Node>,
    /// Index over the *local* nodes only; lookups consult the base first.
    index: HashMap<Node, ValueId>,
    approx_bytes: u64,
}

impl ValueStore {
    /// An empty store.
    pub fn new() -> ValueStore {
        ValueStore::default()
    }

    /// Seal this store into a shared immutable prefix that overlays (and
    /// their overlays) can be layered on.
    pub fn freeze(self) -> Arc<ValueStore> {
        Arc::new(self)
    }

    /// A new store whose ids `0..base.len()` are the frozen prefix `base`;
    /// everything interned through the overlay lands in its private arena and
    /// gets ids `base.len()..`.  Cheap (no copying), so a partitioned
    /// execution creates one overlay per worker.
    pub fn overlay(base: Arc<ValueStore>) -> ValueStore {
        ValueStore {
            base_len: u32::try_from(base.len()).expect("value store overflow"),
            base_bytes: base.approx_bytes(),
            base: Some(base),
            nodes: Vec::new(),
            index: HashMap::new(),
            approx_bytes: 0,
        }
    }

    /// Number of distinct values interned so far (frozen prefix included).
    pub fn len(&self) -> usize {
        self.base_len as usize + self.nodes.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A deterministic estimate of the bytes this store holds: 48 bytes of
    /// arena-node plus index-entry overhead per distinct value, plus 8 bytes
    /// per child id (one copy in the arena, one in the index key).  The
    /// estimate is platform-independent on purpose — the memory governor
    /// compares it against a configured ceiling, and a deterministic figure
    /// keeps ceiling trips reproducible across runs and machines.
    ///
    /// An overlay counts its frozen prefix once, plus its own arena: the
    /// estimate is this store's *view*, not the process-wide footprint.
    ///
    /// The store only ever grows within an execution, so this is also the
    /// peak: `len()` is the peak live-id count.
    pub fn approx_bytes(&self) -> u64 {
        self.base_bytes + self.approx_bytes
    }

    /// The node behind an id, routing prefix ids to the frozen base.
    #[inline]
    fn node(&self, id: ValueId) -> &Node {
        if id.0 < self.base_len {
            self.base
                .as_ref()
                .expect("ids below base_len exist only in overlays")
                .node(id)
        } else {
            &self.nodes[(id.0 - self.base_len) as usize]
        }
    }

    /// Look a node up without interning it (recursing into frozen bases).
    fn lookup(&self, node: &Node) -> Option<ValueId> {
        self.index
            .get(node)
            .copied()
            .or_else(|| self.base.as_ref().and_then(|b| b.lookup(node)))
    }

    fn intern_node(&mut self, node: Node) -> ValueId {
        if let Some(id) = self.lookup(&node) {
            return id;
        }
        let children = match &node {
            Node::Atom(_) => 0,
            Node::Tuple(ids) | Node::Set(ids) => ids.len() as u64,
        };
        self.approx_bytes += 48 + 8 * children;
        let id = ValueId(u32::try_from(self.len()).expect("value store overflow"));
        self.index.insert(node.clone(), id);
        self.nodes.push(node);
        id
    }

    /// Intern an atom.
    pub fn intern_atom(&mut self, atom: Atom) -> ValueId {
        self.intern_node(Node::Atom(atom))
    }

    /// Intern a tuple of already-interned components (coordinate order).
    pub fn intern_tuple(&mut self, components: Vec<ValueId>) -> ValueId {
        self.intern_node(Node::Tuple(components.into_boxed_slice()))
    }

    /// Intern a set of already-interned elements; duplicates collapse and the
    /// element order is canonicalised (sorted by id).
    pub fn intern_set(&mut self, mut elements: Vec<ValueId>) -> ValueId {
        elements.sort_unstable();
        elements.dedup();
        self.intern_node(Node::Set(elements.into_boxed_slice()))
    }

    /// Intern a [`Value`] recursively, returning its canonical id.
    pub fn intern(&mut self, value: &Value) -> ValueId {
        match value {
            Value::Atom(a) => self.intern_atom(*a),
            Value::Tuple(vs) => {
                let components: Vec<ValueId> = vs.iter().map(|v| self.intern(v)).collect();
                self.intern_tuple(components)
            }
            Value::Set(items) => {
                let elements: Vec<ValueId> = items.iter().map(|v| self.intern(v)).collect();
                self.intern_set(elements)
            }
        }
    }

    /// Reconstruct the [`Value`] behind an id (used when materialising answer
    /// instances; the hot path never leaves id space).
    pub fn resolve(&self, id: ValueId) -> Value {
        match self.node(id) {
            Node::Atom(a) => Value::Atom(*a),
            Node::Tuple(components) => {
                Value::Tuple(components.iter().map(|&c| self.resolve(c)).collect())
            }
            Node::Set(elements) => Value::Set(elements.iter().map(|&e| self.resolve(e)).collect()),
        }
    }

    /// Project the `i`-th coordinate (1-based, as in the paper's `x.i` terms)
    /// of an interned tuple; `None` for non-tuples or out-of-range coordinates.
    pub fn project(&self, id: ValueId, i: usize) -> Option<ValueId> {
        match self.node(id) {
            Node::Tuple(components) if i >= 1 => components.get(i - 1).copied(),
            _ => None,
        }
    }

    /// Membership test `elem ∈ container` in id space (false when `container`
    /// is not a set, mirroring [`Value::is_member_of`]).
    pub fn set_contains(&self, container: ValueId, elem: ValueId) -> bool {
        match self.node(container) {
            Node::Set(elements) => elements.binary_search(&elem).is_ok(),
            _ => false,
        }
    }

    /// The components of an interned tuple, in coordinate order; `None` for
    /// non-tuples.  This is the id-space view of [`Value::as_tuple`], used by
    /// the set-at-a-time algebra executor to flatten product operands without
    /// resolving values.
    pub fn tuple_components(&self, id: ValueId) -> Option<&[ValueId]> {
        match self.node(id) {
            Node::Tuple(components) => Some(components),
            _ => None,
        }
    }

    /// The elements of an interned set, sorted by id; `None` for non-sets.
    /// The id-space view of [`Value::as_set`], used to expand membership
    /// (semijoin) indexes and the collapse operator without resolving values.
    pub fn set_elements(&self, id: ValueId) -> Option<&[ValueId]> {
        match self.node(id) {
            Node::Set(elements) => Some(elements),
            _ => None,
        }
    }
}

/// A dense handle to one constructive domain inside a [`DomainCache`].
///
/// Handles are resolved once (by type) via [`DomainCache::handle`] and then
/// indexed directly on the hot path — a quantifier draw is a bounds check and
/// a `Vec` index, with no type hashing anywhere near the inner loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainHandle(u32);

/// How to materialise the value at a given rank of a domain: the type's shape
/// with component domains pre-resolved to handles.
#[derive(Debug, Clone)]
enum Generator {
    /// `cons_X(U)` — the atoms themselves, in atom-set order.
    Atomic,
    /// A tuple type: one handle per coordinate, mixed-radix enumeration with
    /// the last coordinate varying fastest.
    Tuple(Box<[DomainHandle]>),
    /// A set type: subsets of the inner domain by element-rank bitmask.
    Set(DomainHandle),
}

/// One lazily-materialised constructive domain: the prefix enumerated so far,
/// in rank order, plus the exact total cardinality (`None` when the domain is
/// too large to rank at all).
#[derive(Debug, Clone)]
struct LazyDomain {
    ty: Type,
    total: Option<u128>,
    /// Ranks `base_prefix..` materialised by this cache; ranks `0..base_prefix`
    /// live in the shared base cache (zero for a root cache).
    ids: Vec<ValueId>,
    /// How many leading ranks the shared immutable base had materialised when
    /// this cache was created as an overlay.
    base_prefix: usize,
    generator: Generator,
}

/// A per-execution memo of constructive domains over one fixed atom set.
///
/// `cons_X(T)` depends only on the type `T` and the atom set `X`, so within a
/// single execution (where `X` is fixed) each domain element is materialised
/// **at most once** and every further quantifier entry over the same type
/// replays the cached prefix.  Materialisation is *lazy*: [`DomainCache::nth`]
/// extends the prefix only as far as enumeration actually reaches, so a
/// short-circuiting `∃` over a 2¹⁶-element domain that finds its witness at
/// rank 300 pays for 300 values — while a nested re-enumeration (`∀x ∃y`)
/// pays for each value exactly once instead of once per enclosing iteration.
///
/// A changed atom set — e.g. the invention semantics adding scratch atoms for
/// level `n + 1` — **must** use a fresh cache, which is why construction takes
/// the atom set by value and never exposes a way to swap it.
///
/// ```
/// use itq_object::store::{DomainCache, ValueStore};
/// use itq_object::{Atom, Type, Value};
///
/// let mut store = ValueStore::new();
/// let mut cache = DomainCache::new(vec![Atom(0), Atom(1)]);
/// let h = cache.handle(&Type::set(Type::Atomic));
/// assert_eq!(cache.size(h).unwrap(), 4); // 2^2 subsets
/// let empty = cache.nth(h, 0, &mut store).unwrap();
/// assert_eq!(store.resolve(empty), Value::empty_set()); // rank 0 is ∅
/// // A second pass over the same rank is a cache hit, not a rebuild.
/// assert_eq!(cache.nth(h, 0, &mut store).unwrap(), empty);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DomainCache {
    atoms: Vec<Atom>,
    domains: Vec<LazyDomain>,
    by_type: HashMap<Type, DomainHandle>,
    /// The shared immutable prefix this cache overlays, if any: handles copied
    /// from it stay valid here, and ranks it had already materialised are
    /// served from it without re-materialising.
    base: Option<Arc<DomainCache>>,
    base_bytes: u64,
    hits: u64,
    misses: u64,
    approx_bytes: u64,
}

impl DomainCache {
    /// A cache for constructive domains over the given atom set.  The slice
    /// order of `atoms` fixes the enumeration order (rank order), so callers
    /// must pass the same sorted atom vector the tree walker would use.
    pub fn new(atoms: Vec<Atom>) -> DomainCache {
        DomainCache {
            atoms,
            domains: Vec::new(),
            by_type: HashMap::new(),
            base: None,
            base_bytes: 0,
            hits: 0,
            misses: 0,
            approx_bytes: 0,
        }
    }

    /// Seal this cache into a shared immutable prefix for per-execution
    /// overlays (the ids it holds must belong to the matching frozen
    /// [`ValueStore`] prefix).
    pub fn freeze(self) -> Arc<DomainCache> {
        Arc::new(self)
    }

    /// A per-execution cache layered over a shared immutable prefix: every
    /// handle the base registered keeps its index, every rank the base had
    /// materialised is served from the base, and everything *new* — deeper
    /// ranks, new types — is materialised privately.  Workers of a
    /// partitioned execution each get one overlay, so a pre-enumerated
    /// candidate domain is shared while the workers' inner-quantifier
    /// materialisation stays unsynchronised.
    pub fn overlay(base: Arc<DomainCache>) -> DomainCache {
        DomainCache {
            atoms: base.atoms.clone(),
            domains: base
                .domains
                .iter()
                .map(|d| LazyDomain {
                    ty: d.ty.clone(),
                    total: d.total,
                    ids: Vec::new(),
                    base_prefix: d.base_prefix + d.ids.len(),
                    generator: d.generator.clone(),
                })
                .collect(),
            by_type: base.by_type.clone(),
            base_bytes: base.approx_bytes(),
            base: Some(base),
            hits: 0,
            misses: 0,
            approx_bytes: 0,
        }
    }

    /// The id a (possibly chained) base cache materialised for `rank` of the
    /// domain at table index `h`; callers guarantee `rank < base_prefix`.
    fn base_rank(&self, h: usize, rank: usize) -> ValueId {
        let domain = &self.domains[h];
        if rank >= domain.base_prefix {
            return domain.ids[rank - domain.base_prefix];
        }
        self.base
            .as_ref()
            .expect("base_prefix > 0 implies a base cache")
            .base_rank(h, rank)
    }

    /// The atom set `X` this cache enumerates over.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of domain values served from the memoized prefix (including the
    /// recursive accesses a composite value makes for its components).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of domain values that had to be materialised.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// A deterministic estimate of the bytes held by the memoized prefixes:
    /// 64 bytes of `LazyDomain` bookkeeping per registered type plus 4 bytes
    /// per materialised rank.  Deliberately platform-independent, for the
    /// same reason as [`ValueStore::approx_bytes`]: the memory governor needs
    /// reproducible ceiling trips.  An overlay counts its shared base once,
    /// plus its own materialisations.
    pub fn approx_bytes(&self) -> u64 {
        self.base_bytes + self.approx_bytes
    }

    /// Resolve (or create) the handle for `cons_X(ty)`.  Creation registers
    /// the type's component domains recursively and computes the exact
    /// cardinality; this is the only type-keyed lookup — everything after it
    /// indexes by handle.
    pub fn handle(&mut self, ty: &Type) -> DomainHandle {
        if let Some(&h) = self.by_type.get(ty) {
            return h;
        }
        let generator = match ty {
            Type::Atomic => Generator::Atomic,
            Type::Tuple(components) => {
                Generator::Tuple(components.iter().map(|c| self.handle(c)).collect())
            }
            Type::Set(inner) => Generator::Set(self.handle(inner)),
        };
        let total = cons_cardinality(ty, self.atoms.len()).as_exact();
        self.approx_bytes += 64;
        let h = DomainHandle(u32::try_from(self.domains.len()).expect("domain table overflow"));
        self.domains.push(LazyDomain {
            ty: ty.clone(),
            total,
            ids: Vec::new(),
            base_prefix: 0,
            generator,
        });
        self.by_type.insert(ty.clone(), h);
        h
    }

    /// The cardinality `|cons_X(ty)|` behind a handle, or an error when it is
    /// too large to enumerate at all (beyond exact `u128` representation —
    /// the crate's stand-in for "hyper-exponentially large").
    pub fn size(&self, handle: DomainHandle) -> Result<u128, ObjectError> {
        let domain = &self.domains[handle.0 as usize];
        domain.total.ok_or_else(|| ObjectError::BudgetExceeded {
            what: format!("cons domain of {}", domain.ty),
            limit: u64::MAX,
        })
    }

    /// The `rank`-th element of the domain behind `handle`, as an interned
    /// id, in exactly the rank order of [`ConsIter`](crate::cons::ConsIter) /
    /// [`value_at_rank`](crate::cons::value_at_rank): atoms in atom-set order,
    /// tuples in mixed-radix order (last coordinate fastest), sets by the
    /// bitmask of their elements' ranks.
    ///
    /// Ranks already visited — by an earlier pass of the same quantifier, an
    /// enclosing iteration, or another quantifier over the same type — are
    /// answered from the cached prefix; only genuinely new ranks materialise
    /// values.  Callers are expected to budget-check the domain size *before*
    /// enumerating; out-of-range ranks are rejected.
    pub fn nth(
        &mut self,
        handle: DomainHandle,
        rank: u128,
        store: &mut ValueStore,
    ) -> Result<ValueId, ObjectError> {
        let domain = &self.domains[handle.0 as usize];
        // Compare in u128: a narrowing cast here would alias huge
        // out-of-range ranks onto the cached prefix.
        if rank < domain.base_prefix as u128 {
            self.hits += 1;
            return Ok(self.base_rank(handle.0 as usize, rank as usize));
        }
        if rank < (domain.base_prefix + domain.ids.len()) as u128 {
            self.hits += 1;
            return Ok(domain.ids[rank as usize - domain.base_prefix]);
        }
        let total = self.size(handle)?;
        if rank >= total {
            return Err(ObjectError::BudgetExceeded {
                what: format!(
                    "rank {rank} beyond cons domain of {} (size {total})",
                    self.domains[handle.0 as usize].ty
                ),
                limit: u64::MAX,
            });
        }
        let mut next = {
            let domain = &self.domains[handle.0 as usize];
            (domain.base_prefix + domain.ids.len()) as u128
        };
        while next <= rank {
            let id = self.generate(handle, next, store)?;
            self.misses += 1;
            self.approx_bytes += 4;
            self.domains[handle.0 as usize].ids.push(id);
            next += 1;
        }
        let domain = &self.domains[handle.0 as usize];
        Ok(domain.ids[rank as usize - domain.base_prefix])
    }

    /// Materialise the value at `rank` of the domain behind `handle` (callers
    /// guarantee `rank` is in range).
    fn generate(
        &mut self,
        handle: DomainHandle,
        rank: u128,
        store: &mut ValueStore,
    ) -> Result<ValueId, ObjectError> {
        // The generator is tiny (a handful of handles); clone it out so the
        // recursive component accesses can borrow `self` mutably.
        let generator = self.domains[handle.0 as usize].generator.clone();
        Ok(match generator {
            Generator::Atomic => store.intern_atom(self.atoms[rank as usize]),
            Generator::Tuple(components) => {
                // Mixed-radix decomposition, last coordinate varies fastest —
                // the same order as `value_at_rank`.
                let mut digits = vec![0u128; components.len()];
                let mut r = rank;
                for i in (0..components.len()).rev() {
                    let radix = self.size(components[i])?;
                    digits[i] = r % radix;
                    r /= radix;
                }
                let ids = components
                    .iter()
                    .zip(digits)
                    .map(|(&c, d)| self.nth(c, d, store))
                    .collect::<Result<Vec<ValueId>, _>>()?;
                store.intern_tuple(ids)
            }
            Generator::Set(inner) => {
                // The element ranks are the set bits of the rank's bitmask, so
                // only the inner prefix up to the highest bit is ever needed.
                let mut elements = Vec::new();
                let mut mask = rank;
                let mut bit = 0u128;
                while mask != 0 {
                    if mask & 1 != 0 {
                        elements.push(self.nth(inner, bit, store)?);
                    }
                    mask >>= 1;
                    bit += 1;
                }
                store.intern_set(elements)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cons::ConsIter;

    fn atoms(n: u32) -> Vec<Atom> {
        (0..n).map(Atom).collect()
    }

    #[test]
    fn interning_is_structural_and_idempotent() {
        let mut store = ValueStore::new();
        let a = atoms(3);
        let v1 = Value::set(vec![Value::pair(a[0], a[1]), Value::pair(a[1], a[2])]);
        let v2 = Value::set(vec![Value::pair(a[1], a[2]), Value::pair(a[0], a[1])]);
        let id1 = store.intern(&v1);
        let id2 = store.intern(&v2);
        assert_eq!(id1, id2, "set order does not affect identity");
        let before = store.len();
        store.intern(&v1);
        assert_eq!(store.len(), before, "re-interning allocates nothing");
        assert_eq!(store.resolve(id1), v1);
        assert!(!store.is_empty());
    }

    #[test]
    fn id_operations_mirror_value_operations() {
        let mut store = ValueStore::new();
        let a = atoms(3);
        let pair = Value::pair(a[0], a[1]);
        let other = Value::pair(a[1], a[2]);
        let set = Value::set(vec![pair.clone()]);
        let pair_id = store.intern(&pair);
        let other_id = store.intern(&other);
        let set_id = store.intern(&set);
        // Projection.
        assert_eq!(
            store.project(pair_id, 1),
            Some(store.intern(&Value::Atom(a[0])))
        );
        assert_eq!(
            store.project(pair_id, 2),
            Some(store.intern(&Value::Atom(a[1])))
        );
        assert_eq!(store.project(pair_id, 0), None);
        assert_eq!(store.project(pair_id, 3), None);
        assert_eq!(store.project(set_id, 1), None);
        // Membership.
        assert!(store.set_contains(set_id, pair_id));
        assert!(!store.set_contains(set_id, other_id));
        assert!(
            !store.set_contains(pair_id, pair_id),
            "non-sets contain nothing"
        );
        // Component / element views.
        let a0 = store.intern(&Value::Atom(a[0]));
        let a1 = store.intern(&Value::Atom(a[1]));
        assert_eq!(store.tuple_components(pair_id), Some(&[a0, a1][..]));
        assert_eq!(store.tuple_components(set_id), None);
        assert_eq!(store.tuple_components(a0), None);
        assert_eq!(store.set_elements(set_id), Some(&[pair_id][..]));
        assert_eq!(store.set_elements(pair_id), None);
    }

    /// Walk a whole domain through the cache, in rank order.
    fn enumerate(cache: &mut DomainCache, ty: &Type, store: &mut ValueStore) -> Vec<ValueId> {
        let h = cache.handle(ty);
        let total = cache.size(h).unwrap();
        (0..total)
            .map(|r| cache.nth(h, r, store).unwrap())
            .collect()
    }

    #[test]
    fn domain_cache_matches_cons_iter_rank_order() {
        let a = atoms(2);
        let types = [
            Type::Atomic,
            Type::flat_tuple(2),
            Type::set(Type::Atomic),
            Type::set(Type::flat_tuple(2)),
            Type::tuple(vec![Type::Atomic, Type::set(Type::Atomic)]),
            Type::set(Type::set(Type::Atomic)),
        ];
        for ty in &types {
            let mut store = ValueStore::new();
            let mut cache = DomainCache::new(a.clone());
            let ids = enumerate(&mut cache, ty, &mut store);
            let reference: Vec<Value> = ConsIter::new(ty, &a).collect();
            assert_eq!(ids.len(), reference.len(), "{ty}");
            for (id, expected) in ids.iter().zip(&reference) {
                assert_eq!(&store.resolve(*id), expected, "{ty}");
            }
        }
    }

    #[test]
    fn domain_cache_memoizes_and_replays_for_free() {
        let mut store = ValueStore::new();
        let mut cache = DomainCache::new(atoms(3));
        let ty = Type::set(Type::flat_tuple(2));
        let first = enumerate(&mut cache, &ty, &mut store);
        assert_eq!(first.len(), 512); // 2^9
        let (hits, misses) = (cache.hits(), cache.misses());
        assert!(misses > 0);
        let interned_after_first = store.len();
        // A second full pass — an enclosing quantifier iteration, say — is
        // pure cache replay: hits grow, misses and the store do not.
        let again = enumerate(&mut cache, &ty, &mut store);
        assert_eq!(first, again);
        assert_eq!(cache.misses(), misses, "no re-materialisation");
        assert_eq!(cache.hits(), hits + 512);
        assert_eq!(store.len(), interned_after_first, "no new values interned");
        // A component type was materialised along the way and is shared too.
        let pairs_before = cache.misses();
        enumerate(&mut cache, &Type::flat_tuple(2), &mut store);
        assert_eq!(cache.misses(), pairs_before);
    }

    #[test]
    fn domain_cache_is_lazy_up_to_the_requested_rank() {
        let mut store = ValueStore::new();
        let mut cache = DomainCache::new(atoms(3));
        let ty = Type::set(Type::flat_tuple(2)); // 512 values
        let h = cache.handle(&ty);
        // Ask for rank 5 only: the prefix 0..=5 is materialised, nothing more.
        cache.nth(h, 5, &mut store).unwrap();
        let prefix_cost = store.len();
        cache.nth(h, 500, &mut store).unwrap();
        assert!(
            store.len() > prefix_cost,
            "deeper ranks materialise more values"
        );
        // Rank 5 as a set value: bits 0 and 2 → {pair rank 0, pair rank 2}.
        let id = cache.nth(h, 5, &mut store).unwrap();
        assert_eq!(store.resolve(id), itq_value_at_rank(&ty, &atoms(3), 5));
        // Handles are stable: resolving the type again reuses the entry.
        assert_eq!(cache.handle(&ty), h);
    }

    /// Reference enumeration through the cons module.
    fn itq_value_at_rank(ty: &Type, atoms: &[Atom], rank: u128) -> Value {
        crate::cons::value_at_rank(ty, atoms, rank).unwrap()
    }

    #[test]
    fn different_atom_sets_need_different_caches() {
        // The invention semantics extend the atom set per level; a domain
        // cached over X must never leak into an execution over X ∪ {fresh}.
        let ty = Type::set(Type::Atomic);
        let mut store = ValueStore::new();
        let mut small = DomainCache::new(atoms(2));
        let mut large = DomainCache::new(vec![Atom(0), Atom(1), Atom(99)]);
        let d_small = enumerate(&mut small, &ty, &mut store);
        let d_large = enumerate(&mut large, &ty, &mut store);
        assert_eq!(d_small.len(), 4);
        assert_eq!(d_large.len(), 8);
        // The larger domain mentions the fresh atom; the smaller one cannot.
        let fresh = store.intern(&Value::Atom(Atom(99)));
        assert!(d_large.iter().any(|&id| store.set_contains(id, fresh)));
        assert!(!d_small.iter().any(|&id| store.set_contains(id, fresh)));
    }

    #[test]
    fn oversized_domains_are_rejected_not_looped() {
        let mut store = ValueStore::new();
        let mut cache = DomainCache::new(atoms(4));
        // 2^(2^(2^4)) — far beyond exact representation.
        let h = cache.handle(&Type::nested_set(3));
        assert!(matches!(
            cache.size(h),
            Err(ObjectError::BudgetExceeded { .. })
        ));
        assert!(cache.nth(h, 0, &mut store).is_err());
        // In-range domains reject out-of-range ranks.
        let small = cache.handle(&Type::set(Type::Atomic)); // 16 values over 4 atoms
        assert!(cache.nth(small, 15, &mut store).is_ok());
        assert!(cache.nth(small, 16, &mut store).is_err());
        // A rank whose low 64 bits alias a cached prefix index must still be
        // rejected, not silently served from the prefix.
        assert!(cache.nth(small, (1u128 << 64) + 5, &mut store).is_err());
    }

    #[test]
    fn overlays_share_the_frozen_prefix_and_write_privately() {
        let mut root = ValueStore::new();
        let a = atoms(3);
        let shared = root.intern(&Value::pair(a[0], a[1]));
        let base = root.freeze();
        let mut left = ValueStore::overlay(Arc::clone(&base));
        let mut right = ValueStore::overlay(Arc::clone(&base));
        // Prefix ids are identical across overlays, without re-interning.
        assert_eq!(left.intern(&Value::pair(a[0], a[1])), shared);
        assert_eq!(right.intern(&Value::pair(a[0], a[1])), shared);
        assert_eq!(left.len(), base.len());
        // Private writes never collide: both overlays may intern new values
        // concurrently, and reads (resolve/project/membership) route prefix
        // ids to the base.
        let l = left.intern(&Value::pair(a[1], a[2]));
        let r = right.intern(&Value::pair(a[2], a[0]));
        assert_eq!(left.resolve(shared), Value::pair(a[0], a[1]));
        assert_eq!(left.resolve(l), Value::pair(a[1], a[2]));
        assert_eq!(right.resolve(r), Value::pair(a[2], a[0]));
        assert_eq!(
            left.project(shared, 1),
            Some(left.intern(&Value::Atom(a[0])))
        );
        // The byte estimate counts the shared prefix once plus private growth.
        assert!(left.approx_bytes() > base.approx_bytes());
    }

    #[test]
    fn domain_cache_overlays_replay_the_shared_prefix() {
        let mut store = ValueStore::new();
        let mut root = DomainCache::new(atoms(3));
        let ty = Type::set(Type::flat_tuple(2));
        let h = root.handle(&ty);
        // The coordinator pre-materialises a prefix, then freezes both sides.
        for rank in 0..100u128 {
            root.nth(h, rank, &mut store).unwrap();
        }
        let misses_before = root.misses();
        let frozen_cache = root.freeze();
        let frozen_store = store.freeze();
        let mut worker_store = ValueStore::overlay(Arc::clone(&frozen_store));
        let mut worker = DomainCache::overlay(Arc::clone(&frozen_cache));
        // Handles copied from the base resolve to the same indices.
        assert_eq!(worker.handle(&ty), h);
        assert_eq!(worker.size(h).unwrap(), 512);
        // Prefix ranks are hits against the shared base; deeper ranks extend
        // privately without touching it.
        let shared = worker.nth(h, 42, &mut worker_store).unwrap();
        assert_eq!(
            worker_store.resolve(shared),
            itq_value_at_rank(&ty, &atoms(3), 42)
        );
        assert_eq!(worker.misses(), 0, "prefix ranks are free for workers");
        let deep = worker.nth(h, 300, &mut worker_store).unwrap();
        assert_eq!(
            worker_store.resolve(deep),
            itq_value_at_rank(&ty, &atoms(3), 300)
        );
        assert!(worker.misses() > 0);
        assert_eq!(frozen_cache.misses(), misses_before, "base never mutates");
        // A second worker over the same prefix agrees on every shared id.
        let mut other_store = ValueStore::overlay(Arc::clone(&frozen_store));
        let mut other = DomainCache::overlay(Arc::clone(&frozen_cache));
        assert_eq!(other.nth(h, 42, &mut other_store).unwrap(), shared);
        // Types the base never saw register privately in the overlay.
        let fresh = worker.handle(&Type::set(Type::set(Type::Atomic)));
        assert!(worker.nth(fresh, 3, &mut worker_store).is_ok());
    }

    #[test]
    fn empty_atom_set_domains() {
        let mut store = ValueStore::new();
        let mut cache = DomainCache::new(Vec::new());
        let atomic = cache.handle(&Type::Atomic);
        assert_eq!(cache.size(atomic).unwrap(), 0);
        let set_h = cache.handle(&Type::set(Type::Atomic));
        assert_eq!(cache.size(set_h).unwrap(), 1);
        let only = cache.nth(set_h, 0, &mut store).unwrap();
        assert_eq!(store.resolve(only), Value::empty_set());
    }

    /// Regression pin for the parallel-answers determinism contract: the
    /// order answers come out in must be *structural* (the `Value` ordering
    /// that ranks the constructive domain), never the [`ValueId`] allocation
    /// order — sharded/parallel interning assigns ids in whatever order the
    /// workers happen to run.  Interning the same answer set through two
    /// opposite id orders must render byte-identically.
    #[test]
    fn answer_order_is_structural_not_interning_order() {
        use crate::instance::Instance;
        let answers = [
            Value::set([Value::atom(2), Value::atom(0)]),
            Value::atom(1),
            Value::tuple(vec![Value::atom(3), Value::set([Value::atom(1)])]),
            Value::atom(0),
            Value::empty_set(),
        ];

        // Two stores intern the answers in opposite orders, so every value
        // gets different ids in each.
        let mut forward = ValueStore::new();
        let forward_ids: Vec<ValueId> = answers.iter().map(|v| forward.intern(v)).collect();
        let mut backward = ValueStore::new();
        let backward_ids: Vec<ValueId> = answers.iter().rev().map(|v| backward.intern(v)).collect();
        assert_ne!(
            forward_ids
                .iter()
                .map(|id| forward.resolve(*id))
                .collect::<Vec<_>>(),
            backward_ids
                .iter()
                .map(|id| backward.resolve(*id))
                .collect::<Vec<_>>(),
            "the resolve order genuinely differs — ids are allocation-ordered"
        );
        let from_forward = Instance::from_values(forward_ids.iter().map(|id| forward.resolve(*id)));
        let from_backward =
            Instance::from_values(backward_ids.iter().map(|id| backward.resolve(*id)));
        assert_eq!(from_forward, from_backward);
        assert_eq!(
            from_forward.iter().collect::<Vec<_>>(),
            from_backward.iter().collect::<Vec<_>>(),
            "iteration (rendering) order is structural, id-order independent"
        );
    }
}
