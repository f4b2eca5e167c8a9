//! # od-discovery — finding order dependencies in data and in expressions
//!
//! Two ways ODs become known to a system besides being declared by hand
//! (Sections 2.2 and 6 of the paper):
//!
//! * [`discover`] — profile a relation instance for ODs/FDs that hold on it
//!   exactly, or — with [`DiscoveryConfig::epsilon`] — for approximate ODs
//!   whose TANE-style `g3` error stays under a threshold, with axiom-based
//!   pruning of implied candidates.  Validation defaults to the
//!   partition-backed set-based engine of the `od-setbased` crate
//!   ([`DiscoveryEngine::SetBased`]); the original sort-per-candidate path
//!   remains available as [`DiscoveryEngine::Naive`] and serves as the oracle
//!   in differential tests.  Discovered exact ODs can be fed straight into the
//!   optimizer's registry with [`Discovery::install_into`];
//! * [`monotone`] — derive ODs from generated-column expressions by
//!   monotonicity analysis (the DB2 generated-columns technique of
//!   reference \[12\]).
//!
//! Discovery is snapshot-bound, but its output need not be: [`monitor`] keeps
//! discovered ODs live on a *changing* table.  A [`Monitor`] watches a set of
//! ODs (typically the zero-error install set of a discovery run), maintains
//! their exact `g3` removal counts under tuple insert/delete
//! [`DeltaBatch`](od_setbased::stream::DeltaBatch)es at `O(log k)` per
//! changed row in each touched class of `k` rows — via `od-setbased`'s
//! delta-maintained partitions and verdict ledgers — and can
//! [`sync`](Monitor::sync_registry) the optimizer's
//! [`OdRegistry`](od_optimizer::OdRegistry) so rewrite licenses track the
//! data: an OD that stops holding is retracted, one that heals is
//! reinstalled.
//!
//! ## The `Verdict` / `g3` vocabulary, briefly
//!
//! Every validation in this stack answers with evidence, not a boolean: a
//! [`Verdict`](od_setbased::Verdict) carries the minimal number of tuples
//! whose removal makes the checked statement hold (the TANE-style `g3`
//! numerator) plus sampled violating row pairs.  Exact discovery is the
//! special case `removal_count == 0`; [`DiscoveryConfig::epsilon`] relaxes
//! acceptance to `removal_count ≤ ⌊ε·n⌋` and [`Discovery::errors`] reports
//! each OD's score.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discover;
pub mod monitor;
pub mod monotone;

pub use discover::{
    discover_fds, discover_ods, discover_ods_naive, try_discover_ods, Discovery, DiscoveryConfig,
    DiscoveryEngine,
};
pub use monitor::{Monitor, MonitorReport, OdStatus, SubscriptionId};
pub use monotone::{derived_column_ods, monotonicity, DerivedColumn, Monotonicity};
