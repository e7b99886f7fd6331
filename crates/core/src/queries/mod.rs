//! The paper's canonical queries, ready to evaluate.
//!
//! Each submodule corresponds to one of the worked examples:
//!
//! * [`genealogy`] — the grandparent query (Example 2.4) and the transitive
//!   closure query via a set-height-1 intermediate type (Example 3.1);
//! * [`parity`] — the even-cardinality query (Example 3.2);
//! * [`orders`] — total-order queries built from the `ORD` formula (Example 3.4);
//! * [`exponent`] — a scaled-down executable analogue of the exponent-equation
//!   family of Example 3.7, plus the reference arithmetic for every level of the
//!   hyper-exponential hierarchy.
//!
//! The most commonly used constructors are re-exported at this level.

pub mod exponent;
pub mod genealogy;
pub mod orders;
pub mod parity;

pub use exponent::{exponent_equation_witness, perfect_square_query, perfect_square_reference};
pub use genealogy::{
    excluding_parent_pairs, grandparent_query, parent_database, parent_schema, powerset_of_parents,
    sibling_query, transitive_closure_query,
};
pub use orders::{total_orders_query, unary_schema};
pub use parity::{even_cardinality_query, parity_reference, person_schema};

use itq_calculus::Query;
use itq_object::{Atom, Database, Instance};

/// The canonical `(name, query, database)` triples of the genealogy, parity,
/// and exponent workloads, sized so that every semantics (including one or two
/// invention levels) is affordable.
///
/// This single grid feeds both the `report --stats-json` ExecStats trajectory
/// and the prepared-pipeline equivalence suite, so the numbers CI records and
/// the answers the tests pin can never drift apart.
///
/// ```
/// use itq_core::prelude::*;
/// let workloads = itq_core::queries::exemplar_workloads();
/// assert_eq!(workloads.len(), 4);
/// let engine = Engine::builder().max_invented(1).build();
/// for (name, query, db) in &workloads {
///     let outcome = engine.prepare(query).unwrap().execute(db, Semantics::Limited).unwrap();
///     assert!(!outcome.bounded_approximation, "{name}");
/// }
/// ```
pub fn exemplar_workloads() -> Vec<(&'static str, Query, Database)> {
    let genealogy = parent_database(&[(Atom(0), Atom(1)), (Atom(1), Atom(2)), (Atom(2), Atom(3))]);
    let parity = itq_workloads::people::person_database(2);
    let exponent = Database::single("R", Instance::from_atoms(vec![Atom(0)]));
    vec![
        (
            "genealogy/grandparent",
            grandparent_query(),
            genealogy.clone(),
        ),
        ("genealogy/sibling", sibling_query(), genealogy),
        ("parity/even-cardinality", even_cardinality_query(), parity),
        ("exponent/perfect-square", perfect_square_query(), exponent),
    ]
}
