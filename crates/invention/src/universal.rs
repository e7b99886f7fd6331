//! The universal type `T_univ = {[U, U, U, U]}` and the LDM-style encoding of
//! objects of arbitrary type into it (Example 6.6, Figure 3).
//!
//! The encoding assigns to every node of the type tree a constant *node
//! identifier*, to every tuple coordinate a constant *coordinate marker*, and to
//! every occurrence of a sub-object an invented *object identifier*; one
//! four-column row `[node, object-id, coordinate, value]` is emitted per
//! parent–child edge of the object.  Atoms appear directly in the value column,
//! tuple components point at their child object identifiers, set members point at
//! their member identifiers, and the empty set is encoded with a distinguished
//! marker — exactly the scheme of Figure 3.
//!
//! Because object identifiers are invented, the encoding of an object is unique
//! only up to isomorphism of identifiers; [`UniversalCodec::decode`] recovers the
//! original object regardless of which identifiers were chosen, which is the
//! property the collapse theorems (6.4 / 6.7) rely on.

use crate::error::InventionError;
use itq_object::{Atom, Type, Universe, Value};
use std::collections::BTreeMap;

/// A codec for encoding objects of one fixed type into the universal type.
#[derive(Debug, Clone)]
pub struct UniversalCodec {
    ty: Type,
    subtypes: Vec<Type>,
    children: Vec<Vec<usize>>,
    node_atoms: Vec<Atom>,
    coord_atoms: Vec<Atom>,
    empty_marker: Atom,
}

/// An object encoded into the universal type: the set of four-column rows plus
/// the identifier of the root object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedObject {
    /// The encoding itself — an object of type `T_univ = {[U, U, U, U]}`.
    pub value: Value,
    /// The invented identifier of the root object.
    pub root_id: Atom,
}

impl EncodedObject {
    /// Number of rows in the encoding.
    pub fn rows(&self) -> usize {
        self.value.as_set().map(|s| s.len()).unwrap_or(0)
    }
}

impl UniversalCodec {
    /// Build a codec for objects of type `ty`, interning the node and coordinate
    /// constants in `universe`.
    pub fn new(ty: &Type, universe: &mut Universe) -> UniversalCodec {
        let mut subtypes = Vec::new();
        let mut children = Vec::new();
        build_tree(ty, &mut subtypes, &mut children);
        let node_atoms: Vec<Atom> = (0..subtypes.len())
            .map(|i| universe.atom(&format!("node{i}")))
            .collect();
        let max_width = subtypes
            .iter()
            .map(|t| t.arity().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let coord_atoms: Vec<Atom> = (0..=max_width)
            .map(|c| universe.atom(&format!("coord{c}")))
            .collect();
        let empty_marker = universe.atom("empty-set");
        UniversalCodec {
            ty: ty.clone(),
            subtypes,
            children,
            node_atoms,
            coord_atoms,
            empty_marker,
        }
    }

    /// The universal target type `{[U, U, U, U]}`.
    pub fn target_type() -> Type {
        Type::universal()
    }

    /// Number of type-tree nodes (and hence node-identifier constants).
    pub fn node_count(&self) -> usize {
        self.subtypes.len()
    }

    /// The constants used by the codec (node identifiers, coordinate markers and
    /// the empty-set marker); everything else in an encoding is an invented
    /// object identifier or an atom of the encoded object.
    pub fn constants(&self) -> Vec<Atom> {
        let mut out = self.node_atoms.clone();
        out.extend(self.coord_atoms.iter().copied());
        out.push(self.empty_marker);
        out
    }

    /// Encode an object of the codec's type, inventing object identifiers from
    /// `universe`.
    pub fn encode(
        &self,
        value: &Value,
        universe: &mut Universe,
    ) -> Result<EncodedObject, InventionError> {
        if !value.has_type(&self.ty) {
            return Err(InventionError::Codec {
                detail: format!("value {value} does not have type {}", self.ty),
            });
        }
        let mut rows = Vec::new();
        let root_id = self.encode_node(0, value, universe, &mut rows)?;
        Ok(EncodedObject {
            value: Value::set(rows),
            root_id,
        })
    }

    fn encode_node(
        &self,
        node: usize,
        value: &Value,
        universe: &mut Universe,
        rows: &mut Vec<Value>,
    ) -> Result<Atom, InventionError> {
        let id = universe.invent();
        match (&self.subtypes[node], value) {
            (Type::Atomic, Value::Atom(a)) => {
                rows.push(self.row(node, id, 0, Value::Atom(*a)));
            }
            (Type::Tuple(_), Value::Tuple(components)) => {
                for (j, component) in components.iter().enumerate() {
                    let child_node = self.children[node][j];
                    let child_id = self.encode_node(child_node, component, universe, rows)?;
                    rows.push(self.row(node, id, j + 1, Value::Atom(child_id)));
                }
            }
            (Type::Set(_), Value::Set(items)) => {
                if items.is_empty() {
                    rows.push(self.row(node, id, 0, Value::Atom(self.empty_marker)));
                } else {
                    let child_node = self.children[node][0];
                    for item in items {
                        let member_id = self.encode_node(child_node, item, universe, rows)?;
                        rows.push(self.row(node, id, 0, Value::Atom(member_id)));
                    }
                }
            }
            (ty, v) => {
                return Err(InventionError::Codec {
                    detail: format!("value {v} does not match node type {ty}"),
                })
            }
        }
        Ok(id)
    }

    fn row(&self, node: usize, id: Atom, coordinate: usize, value: Value) -> Value {
        Value::Tuple(vec![
            Value::Atom(self.node_atoms[node]),
            Value::Atom(id),
            Value::Atom(self.coord_atoms[coordinate]),
            value,
        ])
    }

    /// Decode an encoded object back into an object of the codec's type.
    pub fn decode(&self, encoded: &EncodedObject) -> Result<Value, InventionError> {
        let rows = encoded
            .value
            .as_set()
            .ok_or_else(|| InventionError::Codec {
                detail: "encoding is not a set of rows".to_string(),
            })?;
        // Group rows by object identifier.
        let mut by_id: BTreeMap<Atom, Vec<(Atom, Atom, Atom)>> = BTreeMap::new();
        for row in rows {
            let columns = row.as_tuple().ok_or_else(|| InventionError::Codec {
                detail: format!("row {row} is not a tuple"),
            })?;
            if columns.len() != 4 {
                return Err(InventionError::Codec {
                    detail: format!("row {row} does not have four columns"),
                });
            }
            let node = columns[0].as_atom().ok_or_else(|| bad_row(row))?;
            let id = columns[1].as_atom().ok_or_else(|| bad_row(row))?;
            let coord = columns[2].as_atom().ok_or_else(|| bad_row(row))?;
            let value = columns[3].as_atom().ok_or_else(|| bad_row(row))?;
            by_id.entry(id).or_default().push((node, coord, value));
        }
        self.decode_node(0, encoded.root_id, &by_id, 0)
    }

    fn decode_node(
        &self,
        node: usize,
        id: Atom,
        by_id: &BTreeMap<Atom, Vec<(Atom, Atom, Atom)>>,
        depth: usize,
    ) -> Result<Value, InventionError> {
        if depth > self.subtypes.len() + 64 {
            return Err(InventionError::Codec {
                detail: "encoding contains a cycle of object identifiers".to_string(),
            });
        }
        let rows = by_id.get(&id).ok_or_else(|| InventionError::Codec {
            detail: format!("no rows for object identifier {id}"),
        })?;
        let node_atom = self.node_atoms[node];
        let rows: Vec<&(Atom, Atom, Atom)> =
            rows.iter().filter(|(n, _, _)| *n == node_atom).collect();
        if rows.is_empty() {
            return Err(InventionError::Codec {
                detail: format!("object {id} has no rows at node {node}"),
            });
        }
        match &self.subtypes[node] {
            Type::Atomic => {
                if rows.len() != 1 {
                    return Err(InventionError::Codec {
                        detail: format!("atomic object {id} has {} rows", rows.len()),
                    });
                }
                Ok(Value::Atom(rows[0].2))
            }
            Type::Tuple(components) => {
                let mut parts = Vec::with_capacity(components.len());
                for j in 0..components.len() {
                    let coord_atom = self.coord_atoms[j + 1];
                    let child_row =
                        rows.iter()
                            .find(|(_, c, _)| *c == coord_atom)
                            .ok_or_else(|| InventionError::Codec {
                                detail: format!("object {id} is missing coordinate {}", j + 1),
                            })?;
                    let child =
                        self.decode_node(self.children[node][j], child_row.2, by_id, depth + 1)?;
                    parts.push(child);
                }
                Ok(Value::Tuple(parts))
            }
            Type::Set(_) => {
                if rows.len() == 1 && rows[0].2 == self.empty_marker {
                    return Ok(Value::empty_set());
                }
                let child_node = self.children[node][0];
                let mut members = Vec::new();
                for (_, _, member_id) in rows {
                    members.push(self.decode_node(child_node, *member_id, by_id, depth + 1)?);
                }
                Ok(Value::set(members))
            }
        }
    }
}

fn bad_row(row: &Value) -> InventionError {
    InventionError::Codec {
        detail: format!("row {row} has a non-atomic column"),
    }
}

/// Build the pre-order subtype list and the child-index table of a type tree.
fn build_tree(ty: &Type, subtypes: &mut Vec<Type>, children: &mut Vec<Vec<usize>>) -> usize {
    let index = subtypes.len();
    subtypes.push(ty.clone());
    children.push(Vec::new());
    let mut size = 1;
    match ty {
        Type::Atomic => {}
        Type::Set(inner) => {
            let child_index = index + size;
            children[index].push(child_index);
            size += build_tree(inner, subtypes, children);
        }
        Type::Tuple(components) => {
            for component in components {
                let child_index = index + size;
                children[index].push(child_index);
                size += build_tree(component, subtypes, children);
            }
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn figure3_type() -> Type {
        // A type in the spirit of Figure 3: a set of pairs whose first component
        // is itself a set of pairs of atoms.
        Type::set(Type::tuple(vec![
            Type::set(Type::tuple(vec![Type::Atomic, Type::Atomic])),
            Type::Atomic,
        ]))
    }

    fn figure3_object() -> Value {
        let a = Value::Atom(Atom(1000));
        let b = Value::Atom(Atom(1001));
        let c = Value::Atom(Atom(1002));
        Value::set(vec![Value::tuple(vec![
            Value::set(vec![
                Value::tuple(vec![a.clone(), b.clone()]),
                Value::tuple(vec![c.clone(), b.clone()]),
            ]),
            b.clone(),
        ])])
    }

    #[test]
    fn figure3_round_trip() {
        let mut universe = Universe::new();
        let codec = UniversalCodec::new(&figure3_type(), &mut universe);
        let object = figure3_object();
        let encoded = codec.encode(&object, &mut universe).unwrap();
        assert!(encoded.value.has_type(&UniversalCodec::target_type()));
        assert!(encoded.rows() > 0);
        let decoded = codec.decode(&encoded).unwrap();
        assert_eq!(decoded, object);
    }

    #[test]
    fn encodings_with_different_identifiers_decode_identically() {
        let mut universe = Universe::new();
        let codec = UniversalCodec::new(&figure3_type(), &mut universe);
        let object = figure3_object();
        let first = codec.encode(&object, &mut universe).unwrap();
        let second = codec.encode(&object, &mut universe).unwrap();
        // Different invented identifiers → different encodings …
        assert_ne!(first, second);
        // … but the same decoded object.
        assert_eq!(
            codec.decode(&first).unwrap(),
            codec.decode(&second).unwrap()
        );
    }

    #[test]
    fn empty_sets_and_flat_values_round_trip() {
        let mut universe = Universe::new();
        let ty = Type::set(Type::set(Type::Atomic));
        let codec = UniversalCodec::new(&ty, &mut universe);
        let cases = vec![
            Value::empty_set(),
            Value::set(vec![Value::empty_set()]),
            Value::set(vec![
                Value::empty_set(),
                Value::set(vec![Value::Atom(Atom(500)), Value::Atom(Atom(501))]),
            ]),
        ];
        for object in cases {
            let encoded = codec.encode(&object, &mut universe).unwrap();
            assert_eq!(codec.decode(&encoded).unwrap(), object, "{object}");
        }
        // A flat tuple type works too.
        let flat_codec = UniversalCodec::new(&Type::flat_tuple(3), &mut universe);
        let tuple = Value::atom_tuple(vec![Atom(1), Atom(2), Atom(3)]);
        let encoded = flat_codec.encode(&tuple, &mut universe).unwrap();
        assert_eq!(flat_codec.decode(&encoded).unwrap(), tuple);
    }

    #[test]
    fn codec_metadata_is_sensible() {
        let mut universe = Universe::new();
        let ty = figure3_type();
        let codec = UniversalCodec::new(&ty, &mut universe);
        assert_eq!(codec.node_count(), ty.subtypes().len());
        assert_eq!(UniversalCodec::target_type().to_string(), "{[U, U, U, U]}");
        // Constants cover node ids, coordinates 0..=2 and the empty marker.
        assert!(codec.constants().len() >= codec.node_count() + 3);
    }

    #[test]
    fn encode_rejects_ill_typed_values() {
        let mut universe = Universe::new();
        let codec = UniversalCodec::new(&Type::set(Type::Atomic), &mut universe);
        assert!(codec.encode(&Value::Atom(Atom(0)), &mut universe).is_err());
        assert!(codec
            .encode(
                &Value::set(vec![Value::pair(Atom(0), Atom(1))]),
                &mut universe
            )
            .is_err());
    }

    #[test]
    fn decode_rejects_corrupted_encodings() {
        let mut universe = Universe::new();
        let codec = UniversalCodec::new(&Type::set(Type::Atomic), &mut universe);
        let object = Value::set(vec![Value::Atom(Atom(100))]);
        let encoded = codec.encode(&object, &mut universe).unwrap();

        // Wrong root identifier.
        let wrong_root = EncodedObject {
            value: encoded.value.clone(),
            root_id: universe.invent(),
        };
        assert!(codec.decode(&wrong_root).is_err());

        // Not a set at all.
        let not_a_set = EncodedObject {
            value: Value::Atom(Atom(0)),
            root_id: encoded.root_id,
        };
        assert!(codec.decode(&not_a_set).is_err());

        // Rows with the wrong shape.
        let malformed = EncodedObject {
            value: Value::set(vec![Value::pair(Atom(0), Atom(1))]),
            root_id: encoded.root_id,
        };
        assert!(codec.decode(&malformed).is_err());
    }

    /// Generate random values of a fixed set-height-2 type for the round-trip
    /// property test.
    fn arbitrary_value() -> impl Strategy<Value = Value> {
        // Type: {[U, {U}]}
        let atom = (0u32..5).prop_map(|i| Value::Atom(Atom(1000 + i)));
        let inner_set = proptest::collection::btree_set(
            (0u32..5).prop_map(|i| Value::Atom(Atom(2000 + i))),
            0..4,
        )
        .prop_map(|s| Value::Set(s.into_iter().collect()));
        let pair = (atom, inner_set).prop_map(|(a, s)| Value::Tuple(vec![a, s]));
        proptest::collection::btree_set(pair, 0..4)
            .prop_map(|s| Value::Set(s.into_iter().collect()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn universal_encoding_round_trips(object in arbitrary_value()) {
            let ty = Type::set(Type::tuple(vec![Type::Atomic, Type::set(Type::Atomic)]));
            let mut universe = Universe::new();
            let codec = UniversalCodec::new(&ty, &mut universe);
            let encoded = codec.encode(&object, &mut universe).unwrap();
            prop_assert!(encoded.value.has_type(&UniversalCodec::target_type()));
            prop_assert_eq!(codec.decode(&encoded).unwrap(), object);
        }
    }
}
