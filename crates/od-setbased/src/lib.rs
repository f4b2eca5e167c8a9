//! # od-setbased — partition-powered set-based OD discovery
//!
//! The paper closes by naming OD discovery as the key open problem; the
//! follow-up FASTOD line (*Effective and Complete Discovery of Order
//! Dependencies via Set-based Axiomatization*; see PAPERS.md) showed how to
//! make it tractable.  This crate implements that design over the workspace's
//! core types:
//!
//! | Module | Contents |
//! |---|---|
//! | [`partition`] | CSR stripped partitions `Π_X` over tuple ids, memoized radix products over packed class-id keys |
//! | [`canonical`] | the set-based canonical statements and the exact list ↔ set translation |
//! | [`validate`]  | evidence-returning ([`Verdict`]) statement validation over rank codes: exact per-class `g3` removal counts, a first-violation exit at ε = 0, and the one-walk τ_A swap check for contexts with a large class |
//! | [`lattice`]   | node-based level-wise traversal on bitset candidate sets: mask propagation, key-based node deletion, batched per-level validation and decider rounds, partition eviction, `g3` thresholds |
//! | [`stream`]    | incremental monitoring: delta-maintained live partitions and per-statement [`VerdictLedger`]s |
//! | [`wire`]      | canonical byte codecs for [`SetOd`]s and [`Verdict`]s, shared by od-server and the dist workers |
//! | [`dist`]      | multi-process traversal: a coordinator shards contexts over `--workers N` pipe-connected worker processes, bit-identical to the in-process engine |
//!
//! ## The stripped-partition model, in one paragraph
//!
//! For an attribute set `X`, the partition `Π_X` groups tuple ids into classes
//! agreeing on every attribute of `X`; **stripping** drops singleton classes,
//! which can never witness a split or a swap.  Every validator works on
//! order-preserving integer **codes** per column, so equality is integer
//! equality and order is integer order.  A statement's `g3` removal count —
//! the minimal number of tuples to delete so it holds — decomposes as a sum of
//! independent per-class minima (`|class| − max value-group` for constancy,
//! `|class| − longest non-decreasing B-subsequence` for compatibility).  That
//! additivity powers two layers: budget short-circuiting scans
//! ([`validate`]) and delta maintenance that re-derives only the classes a
//! tuple insert/delete touched ([`stream`]).  Every scan, partition product
//! and lattice level runs on one serial code path, so a rejected verdict is
//! as deterministic as an accepted one.
//!
//! The load-bearing fact (spelled out in [`canonical`]'s docs and exercised by
//! the differential proptests in `od-discovery`): a list OD `X ↦ Y` holds iff
//! all of its canonical **constancy** statements (`set(X) : [] ↦ B_j` — no
//! splits) and **compatibility** statements (`prefix context : A_i ~ B_j` — no
//! swaps) hold.  Canonical statements are shared across candidate ODs and
//! validated with partition scans, so a discovery run touches the data once
//! per distinct statement instead of once per candidate re-sort.
//!
//! ## Quick example
//!
//! ```
//! use od_core::fixtures;
//! use od_core::OrderDependency;
//! use od_setbased::{discover_statements, translate_od, LatticeConfig};
//!
//! let rel = fixtures::example_5_taxes();
//! let s = rel.schema();
//! let income = s.attr_by_name("income").unwrap();
//! let bracket = s.attr_by_name("bracket").unwrap();
//!
//! // Profile every canonical statement up to the default context bound
//! // (width 4 on bitset attribute sets).
//! let profile = discover_statements(&rel, &LatticeConfig::default());
//! assert!(!profile.minimal_statements().is_empty());
//!
//! // A list OD holds iff all of its canonical statements do, so the profile
//! // answers it without touching the data again.
//! let od = OrderDependency::new(vec![income], vec![bracket]);
//! assert!(translate_od(&od).iter().all(|stmt| profile.holds(stmt)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod dist;
pub mod lattice;
pub mod partition;
pub mod stream;
pub mod validate;
pub mod wire;

pub use canonical::{compatibility_as_ods, constancy_as_od, translate_od, SetOd};
pub use dist::{discover_statements_dist, maybe_run_worker, DistError, DistStats, WorkerLauncher};
pub use lattice::{
    discover_statements, try_discover_statements, LatticeConfig, LatticeStats, LevelStats,
    SetBasedDiscovery,
};
pub use partition::{
    ClassCodes, ColCodes, PartitionCache, RefineScratch, StrippedPartition, CLASS_SENTINEL,
};
pub use stream::{
    CompactStats, DeltaBatch, DeltaSummary, StreamError, StreamMonitor, StreamStats, TupleId,
    VerdictLedger,
};
pub use validate::{error_budget, Verdict, WITNESS_SAMPLE_CAP};
