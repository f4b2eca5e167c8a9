//! # od-obs — zero-dependency observability for the OD reproduction
//!
//! A small tracing + metrics layer (std only; the build environment has no
//! crates.io access, so `tracing`/`metrics` are out of reach) with three
//! pieces:
//!
//! 1. **Metrics** ([`metrics`]): a [`Registry`] of named atomic counters,
//!    gauges, and log-bucketed [`Histogram`]s with *fixed* power-of-two
//!    bucket bounds, so bucket counts are bit-identical across runs and
//!    thread counts.  A process-wide default [`Registry`] serves the
//!    free functions [`add`]/[`gauge_set`]/[`gauge_max`]/[`record`]; tests and
//!    experiment harnesses isolate themselves with [`scoped`] registries.
//! 2. **Spans** ([`span`](mod@span)): RAII guards forming a hierarchical phase
//!    profile (`discovery/level2/refine`, `stream/batch/patch`, …).  Span
//!    durations are wall clock and therefore *never* enter the deterministic
//!    report section.
//! 3. **Canonical JSON reports** ([`json`], [`report`]): [`MetricsReport`]
//!    serializes with sorted keys and fixed nine-decimal float rounding to
//!    `BENCH_<experiment>.json` artifacts whose deterministic section diffs
//!    clean in CI.
//!
//! ```
//! use od_obs::{scoped, Registry, MetricsReport};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! scoped(Arc::clone(&registry), || {
//!     let _phase = od_obs::span("discovery");
//!     od_obs::add("discovery.nodes_created", 42);
//!     od_obs::record("lattice.partition_classes", 17);
//! });
//! let report = MetricsReport::from_snapshot("demo", &registry.snapshot());
//! assert!(report.deterministic_json().contains("nodes_created"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use json::Json;
pub use metrics::{
    add, bucket_bounds, bucket_index, gauge_max, gauge_set, global, record, recorder, scoped,
    DurationStat, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use report::{histogram_json, peak_rss_kib, MetricsReport};
pub use span::{span, timed, SpanGuard};
