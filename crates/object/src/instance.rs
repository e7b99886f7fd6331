//! Instances, database schemas, and database instances (Section 2).
//!
//! An *instance* of a type `T` is a finite set of objects of type `T`; a *database
//! schema* is a finite sequence of distinct predicate names with associated types;
//! a *database instance* assigns an instance of the right type to each predicate.

use crate::atom::Atom;
use crate::error::ObjectError;
use crate::types::Type;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A predicate name (`P` in the paper's countably infinite set **P**).
pub type PredName = String;

/// An instance of a type: a finite set of objects, kept canonical.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Instance {
    values: BTreeSet<Value>,
}

impl Instance {
    /// The empty instance.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build an instance from an iterator of values (duplicates collapse).
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Instance {
            values: values.into_iter().collect(),
        }
    }

    /// Build a flat binary-relation instance from atom pairs, e.g. the `PAR`
    /// relation of Example 2.4.
    pub fn from_pairs<I: IntoIterator<Item = (Atom, Atom)>>(pairs: I) -> Self {
        Instance::from_values(pairs.into_iter().map(|(a, b)| Value::pair(a, b)))
    }

    /// Build a unary instance (a set of atoms viewed as 0-set-height values),
    /// e.g. the `PERSON` relation of Example 3.2.
    pub fn from_atoms<I: IntoIterator<Item = Atom>>(atoms: I) -> Self {
        Instance::from_values(atoms.into_iter().map(Value::Atom))
    }

    /// Insert a value, returning whether it was new.
    pub fn insert(&mut self, value: Value) -> bool {
        self.values.insert(value)
    }

    /// Remove a value, returning whether it was present.
    pub fn remove(&mut self, value: &Value) -> bool {
        self.values.remove(value)
    }

    /// Membership test.
    pub fn contains(&self, value: &Value) -> bool {
        self.values.contains(value)
    }

    /// Number of objects in the instance.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate the objects in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }

    /// The underlying set of values.
    pub fn values(&self) -> &BTreeSet<Value> {
        &self.values
    }

    /// True if every object of the instance has the given type.
    pub fn conforms_to(&self, ty: &Type) -> bool {
        self.values.iter().all(|v| v.has_type(ty))
    }

    /// The active domain of the instance: the union of the active domains of its
    /// objects.
    pub fn active_domain(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        for v in &self.values {
            v.collect_atoms(&mut out);
        }
        out
    }

    /// The instance viewed as a single set object (every instance of `T` is an
    /// object of `{T}`, as the paper notes after the domain definition).
    pub fn as_set_value(&self) -> Value {
        Value::Set(self.values.clone())
    }

    /// Build an instance from a set value.
    pub fn from_set_value(v: &Value) -> Option<Instance> {
        v.as_set().map(|s| Instance { values: s.clone() })
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.values.iter()).finish()
    }
}

impl FromIterator<Value> for Instance {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Instance::from_values(iter)
    }
}

impl IntoIterator for Instance {
    type Item = Value;
    type IntoIter = std::collections::btree_set::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

/// A database schema `D = (P1 : T1, …, Pn : Tn)` with distinct predicate names.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    entries: Vec<(PredName, Type)>,
}

impl Schema {
    /// The empty schema.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a schema from `(name, type)` pairs.
    ///
    /// Returns an error if a predicate name repeats.
    pub fn new<I: IntoIterator<Item = (PredName, Type)>>(entries: I) -> Result<Self, ObjectError> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for (name, ty) in entries {
            if !seen.insert(name.clone()) {
                return Err(ObjectError::SchemaMismatch {
                    detail: format!("duplicate predicate name {name}"),
                });
            }
            ty.validate()?;
            out.push((name, ty));
        }
        Ok(Schema { entries: out })
    }

    /// Convenience constructor for a single-predicate schema.
    pub fn single(name: &str, ty: Type) -> Self {
        Schema {
            entries: vec![(name.to_string(), ty)],
        }
    }

    /// Add a predicate to the schema (builder style).
    pub fn with(mut self, name: &str, ty: Type) -> Self {
        self.entries.push((name.to_string(), ty));
        self
    }

    /// Look up the type of a predicate.
    pub fn type_of(&self, name: &str) -> Option<&Type> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// True if the schema contains the predicate.
    pub fn contains(&self, name: &str) -> bool {
        self.type_of(name).is_some()
    }

    /// Iterate `(name, type)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Type)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Predicate names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the schema has no predicates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if every type in the schema has set-height 0 (the paper's *flat*
    /// database schemas, i.e. the relational model).
    pub fn is_flat(&self) -> bool {
        self.entries.iter().all(|(_, t)| t.is_flat())
    }
}

/// A database instance `d = (P1 : I1, …, Pn : In)` for a [`Schema`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Database {
    relations: BTreeMap<PredName, Instance>,
}

impl Database {
    /// The empty database instance.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a database from `(name, instance)` pairs.
    pub fn new<I: IntoIterator<Item = (PredName, Instance)>>(relations: I) -> Self {
        Database {
            relations: relations.into_iter().collect(),
        }
    }

    /// Convenience constructor for a single-relation database.
    pub fn single(name: &str, instance: Instance) -> Self {
        let mut relations = BTreeMap::new();
        relations.insert(name.to_string(), instance);
        Database { relations }
    }

    /// Add or replace a relation (builder style).
    pub fn with(mut self, name: &str, instance: Instance) -> Self {
        self.relations.insert(name.to_string(), instance);
        self
    }

    /// Look up a relation by predicate name.
    pub fn relation(&self, name: &str) -> Option<&Instance> {
        self.relations.get(name)
    }

    /// Look up a relation, treating missing predicates as an error.
    pub fn relation_or_err(&self, name: &str) -> Result<&Instance, ObjectError> {
        self.relation(name)
            .ok_or_else(|| ObjectError::UnknownPredicate {
                name: name.to_string(),
            })
    }

    /// Mutable access to a relation, creating it if absent.
    pub fn relation_mut(&mut self, name: &str) -> &mut Instance {
        self.relations.entry(name.to_string()).or_default()
    }

    /// Iterate `(name, instance)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Instance)> {
        self.relations.iter().map(|(n, i)| (n.as_str(), i))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the database holds no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The active domain `adom(d)`: the union of the active domains of every
    /// relation.
    pub fn active_domain(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        for inst in self.relations.values() {
            for v in inst.iter() {
                v.collect_atoms(&mut out);
            }
        }
        out
    }

    /// Check that this instance conforms to a schema: same predicate set, and each
    /// relation's objects have the declared type.
    pub fn validate_against(&self, schema: &Schema) -> Result<(), ObjectError> {
        for (name, ty) in schema.iter() {
            let inst = self.relation_or_err(name)?;
            if !inst.conforms_to(ty) {
                return Err(ObjectError::SchemaMismatch {
                    detail: format!("relation {name} has objects not of type {ty}"),
                });
            }
        }
        for (name, _) in self.iter() {
            if !schema.contains(name) {
                return Err(ObjectError::SchemaMismatch {
                    detail: format!("relation {name} is not declared by the schema"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(n: u32) -> Vec<Atom> {
        (0..n).map(Atom).collect()
    }

    #[test]
    fn instance_basics() {
        let a = atoms(3);
        let mut inst = Instance::empty();
        assert!(inst.is_empty());
        assert!(inst.insert(Value::pair(a[0], a[1])));
        assert!(!inst.insert(Value::pair(a[0], a[1])));
        assert!(inst.insert(Value::pair(a[1], a[2])));
        assert_eq!(inst.len(), 2);
        assert!(inst.contains(&Value::pair(a[0], a[1])));
        assert!(!inst.contains(&Value::pair(a[2], a[0])));
        assert!(inst.remove(&Value::pair(a[1], a[2])));
        assert!(!inst.remove(&Value::pair(a[1], a[2])));
        assert!(inst.insert(Value::pair(a[1], a[2])));
        assert_eq!(inst.active_domain().len(), 3);
        assert!(inst.conforms_to(&Type::flat_tuple(2)));
        assert!(!inst.conforms_to(&Type::Atomic));
    }

    #[test]
    fn instance_as_set_value_round_trip() {
        let a = atoms(2);
        let inst = Instance::from_pairs(vec![(a[0], a[1])]);
        let v = inst.as_set_value();
        assert!(v.has_type(&Type::set(Type::flat_tuple(2))));
        let back = Instance::from_set_value(&v).unwrap();
        assert_eq!(back, inst);
        assert!(Instance::from_set_value(&Value::Atom(a[0])).is_none());
    }

    #[test]
    fn schema_rejects_duplicate_predicates() {
        let ok = Schema::new(vec![
            ("PAR".to_string(), Type::flat_tuple(2)),
            ("PERSON".to_string(), Type::Atomic),
        ]);
        assert!(ok.is_ok());
        let dup = Schema::new(vec![
            ("PAR".to_string(), Type::flat_tuple(2)),
            ("PAR".to_string(), Type::Atomic),
        ]);
        assert!(dup.is_err());
    }

    #[test]
    fn schema_lookup_and_flatness() {
        let schema = Schema::single("PAR", Type::flat_tuple(2)).with("NESTED", Type::universal());
        assert_eq!(schema.len(), 2);
        assert!(schema.contains("PAR"));
        assert!(!schema.contains("MISSING"));
        assert_eq!(schema.type_of("PAR"), Some(&Type::flat_tuple(2)));
        assert!(!schema.is_flat());
        let flat = Schema::single("PAR", Type::flat_tuple(2));
        assert!(flat.is_flat());
        assert_eq!(flat.names(), vec!["PAR"]);
    }

    #[test]
    fn database_validation() {
        let a = atoms(3);
        let schema = Schema::single("PAR", Type::flat_tuple(2));
        let good = Database::single("PAR", Instance::from_pairs(vec![(a[0], a[1])]));
        assert!(good.validate_against(&schema).is_ok());

        let wrong_type = Database::single("PAR", Instance::from_atoms(vec![a[0]]));
        assert!(wrong_type.validate_against(&schema).is_err());

        let missing = Database::empty();
        assert!(missing.validate_against(&schema).is_err());

        let extra = good.clone().with("EXTRA", Instance::empty());
        assert!(extra.validate_against(&schema).is_err());
    }

    #[test]
    fn database_active_domain_and_size() {
        let a = atoms(4);
        let d = Database::single(
            "PAR",
            Instance::from_pairs(vec![(a[0], a[1]), (a[2], a[3])]),
        )
        .with("PERSON", Instance::from_atoms(vec![a[0]]));
        assert_eq!(d.active_domain().len(), 4);
        assert_eq!(d.len(), 2);
        assert!(d.relation("PAR").is_some());
        assert!(d.relation("NOPE").is_none());
        assert!(d.relation_or_err("NOPE").is_err());
    }

    #[test]
    fn relation_mut_creates_missing_relations() {
        let a = atoms(2);
        let mut d = Database::empty();
        d.relation_mut("R").insert(Value::Atom(a[0]));
        d.relation_mut("R").insert(Value::Atom(a[1]));
        assert_eq!(d.relation("R").unwrap().len(), 2);
    }
}
