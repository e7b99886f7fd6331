#![forbid(unsafe_code)]

//! # itq-object — the complex object data model
//!
//! This crate implements the data model of Hull & Su, *"On the Expressive Power of
//! Database Queries with Intermediate Types"* (PODS 1988 / JCSS 1991), Section 2:
//!
//! * a countably infinite universe `U` of atomic objects ([`Atom`], [`Universe`]),
//! * complex [`Type`]s built from `U` with the tuple and finite set constructors,
//! * [`Value`]s (the paper's *objects*), typed membership `dom(T)`,
//! * [`Instance`]s (finite sets of objects of a type), database [`Schema`]s and
//!   [`Database`] instances,
//! * the *active domain* `adom(·)` and the *constructive domain* `cons_Y(T)`
//!   (module [`cons`]),
//! * cardinality arithmetic for constructive domains and the hyper-exponential
//!   function `hyp(c, n, i)` used throughout the paper's complexity analysis
//!   (module [`card`]),
//! * what every execution shares ([`govern`]): the resource governor
//!   ([`Interrupt`]), the execution context every backend takes
//!   ([`ExecCtx`]), and the one counter block every backend fills
//!   ([`ExecStats`]) — formula steps, quantifier draws and the largest
//!   `cons_X(T)` domain met, the paper's cost measures, next to the
//!   invention levels, cache, interning, join and partition counters.
//!
//! Everything downstream (the calculus, the algebra, invention semantics, the
//! benchmark harness) is built on top of this crate.
//!
//! ## Quick tour
//!
//! ```
//! use itq_object::{Type, Value, Universe, Instance};
//!
//! // The three types of the paper's Figure 1.
//! let t1 = Type::tuple(vec![Type::Atomic, Type::Atomic]);      // [U, U]
//! let t2 = Type::set(t1.clone());                              // {[U, U]}
//! let t3 = Type::set(Type::set(Type::tuple(vec![Type::Atomic, Type::Atomic])));
//!
//! assert_eq!(t1.set_height(), 0);
//! assert_eq!(t2.set_height(), 1);
//! assert_eq!(t3.set_height(), 2);
//!
//! let mut universe = Universe::new();
//! let tom = universe.atom("Tom");
//! let mary = universe.atom("Mary");
//!
//! let pair = Value::tuple(vec![Value::Atom(tom), Value::Atom(mary)]);
//! assert!(pair.has_type(&t1));
//!
//! let relation = Instance::from_values(vec![pair.clone()]);
//! assert!(relation.conforms_to(&t1));
//! // Every instance of T is also an object of {T}.
//! assert!(relation.as_set_value().has_type(&t2));
//! ```

pub mod atom;
pub mod card;
pub mod cons;
pub mod error;
pub mod govern;
pub mod instance;
pub mod pool;
pub mod store;
pub mod types;
pub mod value;

pub use atom::{Atom, Universe};
pub use card::{hyp, Cardinality};
pub use cons::{cons_cardinality, enumerate_cons, ConsIter};
pub use error::ObjectError;
pub use govern::{CancelFlag, ExecCtx, ExecStats, Interrupt, ResourceError, TripKind};
pub use instance::{Database, Instance, PredName, Schema};
pub use store::{DomainCache, DomainHandle, ValueId, ValueStore};
pub use types::Type;
pub use value::Value;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ObjectError>;
