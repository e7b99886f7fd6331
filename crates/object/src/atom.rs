//! Atomic objects and the universal domain `U`.
//!
//! The paper assumes a countably infinite universal domain `U` of atomic objects.
//! We model individual atoms as interned 32-bit identifiers ([`Atom`]) and the
//! (lazily materialised) universe as a [`Universe`] interner that maps human-readable
//! names to atoms and can *invent* fresh atoms that have never appeared before —
//! the operation underlying the invented-value semantics of Section 6.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// An atomic object of the universal domain `U`.
///
/// Atoms are plain identifiers: queries in the calculus and algebra are *generic*
/// (Section 2), so the only observable property of an atom is whether it equals
/// another atom.  Display names live in the [`Universe`] interner and are purely
/// cosmetic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom(pub u32);

impl Atom {
    /// Raw identifier of this atom.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl From<u32> for Atom {
    fn from(id: u32) -> Self {
        Atom(id)
    }
}

impl std::str::FromStr for Atom {
    type Err = String;

    /// Parse the `Display` form `a<id>` of an atom, e.g. `a7`.
    ///
    /// Named atoms have no universal spelling — names live in a [`Universe`] —
    /// so only the raw-id form is accepted here; `itq-surface` resolves names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix('a')
            .ok_or_else(|| format!("expected an atom of the form `a<id>`, found `{s}`"))?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("expected an atom of the form `a<id>`, found `{s}`"));
        }
        let id: u32 = digits
            .parse()
            .map_err(|_| format!("atom id out of range in `{s}`"))?;
        Ok(Atom(id))
    }
}

/// A lazily materialised view of the countably infinite universe `U`.
///
/// The universe interns named atoms (so workloads and examples can talk about
/// `"Tom"` and `"Mary"`), and hands out *fresh* atoms on demand via
/// [`Universe::invent`].  Fresh atoms are guaranteed to be distinct from every atom
/// previously returned by this universe, the contract the universal-type codec and
/// the Turing-machine encodings rely on — and from every atom
/// [reserved](Universe::reserve) by a raw `a<id>` spelling.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    /// Indexed by atom id: the name of every materialised atom, `None` for
    /// invented and reserved ones.
    names: Vec<Option<String>>,
    by_name: HashMap<String, Atom>,
    /// Reserved ids not yet reached by `names`: [`Universe::atom`] and
    /// [`Universe::invent`] skip them.  One entry per reserved atom, however
    /// large its id.
    reserved: BTreeSet<u32>,
}

impl Universe {
    /// Create an empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a named atom, returning the same [`Atom`] for the same name.
    pub fn atom(&mut self, name: &str) -> Atom {
        if let Some(&a) = self.by_name.get(name) {
            return a;
        }
        let a = self.next_free();
        self.names.push(Some(name.to_string()));
        self.by_name.insert(name.to_string(), a);
        a
    }

    /// Reserve `atom`, which a raw `a<id>` spelling denotes: no atom interned
    /// or invented later takes its id.  An id already materialised — a named
    /// atom's included — stays what it is.
    ///
    /// ```
    /// use itq_object::{Atom, Universe};
    /// let mut u = Universe::new();
    /// u.reserve(Atom(0));
    /// u.reserve(Atom(u32::MAX));
    /// assert_eq!(u.atom("Tom"), Atom(1));
    /// assert_eq!(u.invent(), Atom(2));
    /// u.reserve(Atom(1));
    /// assert_eq!(u.lookup("Tom"), Some(Atom(1)));
    /// ```
    pub fn reserve(&mut self, atom: Atom) {
        if atom.0 as usize >= self.names.len() {
            self.reserved.insert(atom.0);
        }
    }

    /// The next id no atom holds and no raw spelling reserved, materialising
    /// the reserved ids it passes as nameless atoms.
    fn next_free(&mut self) -> Atom {
        while self.reserved.remove(&(self.names.len() as u32)) {
            self.names.push(None);
        }
        Atom(self.names.len() as u32)
    }

    /// Intern a batch of named atoms.
    pub fn atoms<'a, I: IntoIterator<Item = &'a str>>(&mut self, names: I) -> Vec<Atom> {
        names.into_iter().map(|n| self.atom(n)).collect()
    }

    /// Invent a fresh, anonymous atom distinct from every atom handed out
    /// before and every reserved one.
    pub fn invent(&mut self) -> Atom {
        let a = self.next_free();
        self.names.push(None);
        a
    }

    /// Invent `n` fresh atoms.
    pub fn invent_many(&mut self, n: usize) -> Vec<Atom> {
        (0..n).map(|_| self.invent()).collect()
    }

    /// Number of atoms materialised so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no atom has been materialised yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Look up the display name of an atom, if it was interned with one.
    pub fn name(&self, atom: Atom) -> Option<&str> {
        self.names.get(atom.0 as usize).and_then(|n| n.as_deref())
    }

    /// Look up an atom by name without interning it.
    pub fn lookup(&self, name: &str) -> Option<Atom> {
        self.by_name.get(name).copied()
    }

    /// Iterate over all materialised atoms in id order.
    pub fn iter(&self) -> impl Iterator<Item = Atom> + '_ {
        (0..self.names.len() as u32).map(Atom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn interning_is_idempotent() {
        let mut u = Universe::new();
        let a = u.atom("Tom");
        let b = u.atom("Tom");
        let c = u.atom("Mary");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn invented_atoms_are_fresh() {
        let mut u = Universe::new();
        let named: Vec<Atom> = u.atoms(["x", "y", "z"]);
        let invented = u.invent_many(5);
        for inv in &invented {
            assert!(!named.contains(inv));
            assert!(u.name(*inv).is_none());
        }
        // All invented atoms are pairwise distinct.
        for i in 0..invented.len() {
            for j in (i + 1)..invented.len() {
                assert_ne!(invented[i], invented[j]);
            }
        }
    }

    #[test]
    fn display_uses_names_when_available() {
        let mut u = Universe::new();
        let tom = u.atom("Tom");
        let anon = u.invent();
        assert_eq!(Value::Atom(tom).named(&u).to_string(), "Tom");
        assert_eq!(
            Value::Atom(anon).named(&u).to_string(),
            format!("a{}", anon.id())
        );
        assert_eq!(u.lookup("Tom"), Some(tom));
        assert_eq!(u.lookup("Nobody"), None);
    }

    #[test]
    fn from_str_round_trips_display() {
        for id in [0u32, 7, u32::MAX] {
            let a = Atom(id);
            assert_eq!(a.to_string().parse::<Atom>().unwrap(), a);
        }
        for bad in ["", "a", "7", "a7x", "b7", "a-1", "a99999999999"] {
            assert!(bad.parse::<Atom>().is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn iteration_covers_all_atoms() {
        let mut u = Universe::new();
        u.atoms(["p", "q"]);
        u.invent();
        let all: Vec<Atom> = u.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], Atom(0));
        assert_eq!(all[2], Atom(2));
    }
}
