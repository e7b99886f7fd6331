#![forbid(unsafe_code)]

//! # itq-invention — invented-value semantics and the universal type
//!
//! Section 6 of the paper re-interprets the very same calculus queries under
//! semantics that let variables range over objects built from *invented* atomic
//! values — values occurring neither in the database nor in the query.  This crate
//! makes those semantics executable:
//!
//! * [`semantics`] implements `Q|_n` (exactly `n` invented values), **finite
//!   invention** `Q^fi` (union over all `n`, approximated up to a level bound
//!   because the exact semantics is non-recursive — Lemma 6.18), **bounded
//!   invention** `Q|_f`, and **terminal invention** `Q^ti` (Theorem 6.19's
//!   computationally complete semantics);
//! * [`universal`] implements the encoding of objects of *arbitrary* type into the
//!   universal type `T_univ = {[U, U, U, U]}` (Example 6.6 / Figure 3), the
//!   mechanism behind the collapse of the `CALC_{0,i}` hierarchy at level 1 under
//!   invention (Theorems 6.4 and 6.7).
//!
//! The experiments in `itq-core` use these primitives to reproduce the paper's
//! qualitative claims: invention adds nothing to the relational calculus
//! (Theorem 6.11), strictly extends the elementary queries (Theorem 6.12), and
//! the universal-type encoding round-trips objects of every set-height.

pub mod error;
pub mod semantics;
pub mod universal;

pub use error::InventionError;
pub use semantics::{
    bounded_invention, eval_with_invented, finite_invention, finite_invention_ctx, level_span,
    terminal_invention, terminal_invention_ctx, FiniteInventionReport, TerminalOutcome,
    DEFAULT_MAX_INVENTED,
};
pub use universal::{EncodedObject, UniversalCodec};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, InventionError>;
