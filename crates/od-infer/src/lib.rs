//! # od-infer — axioms, proofs, implication and witness construction for ODs
//!
//! This crate implements the primary contribution of *Fundamentals of Order
//! Dependencies* (VLDB 2012): the axiom system for lexicographic order
//! dependencies, together with the machinery around it.
//!
//! | Module | Paper material |
//! |---|---|
//! | [`odset`] | the prescribed set `ℳ` of ODs / equivalences / compatibilities |
//! | [`proof`] | Definition 6 (proofs), Definition 7 (axioms OD1–OD6), proof verification |
//! | [`theorems`] | Theorems 2–10 and 14 as axiom-level proof constructors |
//! | [`decide`] | exact implication decision `ℳ ⊨ X ↦ Y` via two-tuple patterns, over a premise set that grows by appending |
//! | [`closure`] | FD closure, constants (Definition 18), compatibility queries |
//! | [`witness`] | the completeness construction `split(ℳ)` append `swap(ℳ)` (Section 4), plus [`witness::violation_table`] materializing sampled violating pairs from the discovery validators' evidence |
//! | [`fd_bridge`] | ODs subsume FDs (Lemma 1, Theorems 13, 15, 16) |
//! | [`prover`] | the "theorem prover" sketched in the paper's future work |
//!
//! ```
//! use od_core::{OrderDependency, AttrId};
//! use od_infer::{OdSet, Prover};
//!
//! // month ↦ quarter (as in Example 1)
//! let month = AttrId(0);
//! let quarter = AttrId(1);
//! let year = AttrId(2);
//! let m = OdSet::from_ods([OrderDependency::new(vec![month], vec![quarter])]);
//!
//! // ORDER BY year, quarter, month collapses to ORDER BY year, month.
//! let goal = OrderDependency::new(vec![year, quarter, month], vec![year, month]);
//! assert!(Prover::new(&m).implies(&goal));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closure;
pub mod decide;
pub mod fd_bridge;
pub mod odset;
pub mod proof;
pub mod prover;
pub mod theorems;
pub mod witness;

pub use decide::{Decider, DeciderStats, Orientation, TwoTuplePattern};
pub use odset::{Constraint, OdSet};
pub use proof::{Proof, ProofBuilder, ProofError, ProofStep, Rule};
pub use prover::{Outcome, Prover};
pub use witness::witness_table;
