//! Counters, gauges, log-bucketed histograms, and the recorder registry.
//!
//! The hot path is lock-cheap: metric handles are `Arc<AtomicU64>` (or an
//! `Arc<Histogram>` of atomics) resolved once through a short read-locked map
//! lookup and then updated with plain `fetch_add`/`fetch_max`.  The free
//! functions ([`add`], [`gauge_set`], [`gauge_max`], [`record`]) route through
//! the ambient recorder: a thread-local scoped override when one is installed
//! via [`scoped`], otherwise the process-wide default registry.
//!
//! Determinism contract: counters, gauges, and histograms must only ever be
//! fed *deterministic counts* (rows, nodes, classes, cache events) — never
//! wall-clock readings.  Durations flow through the separate
//! [`Recorder::record_duration`] channel and are kept out of the canonical
//! (diffable) report section by construction.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Number of histogram buckets: one for the value `0` plus one per power of
/// two (`[2^(i-1), 2^i - 1]` for `i` in `1..=64`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Map a value to its histogram bucket index.
///
/// Bucket `0` holds exactly the value `0`; bucket `i` (for `i >= 1`) holds the
/// half-open power-of-two range `[2^(i-1), 2^i - 1]`, so `1 -> 1`, `2..=3 ->
/// 2`, and `u64::MAX -> 64`.  The bounds are fixed, which makes bucket counts
/// bit-identical across runs and thread counts.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(lower, upper)` value bounds of a bucket index.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    if index == 0 {
        (0, 0)
    } else if index == 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (index - 1), (1u64 << index) - 1)
    }
}

/// A log-bucketed histogram with fixed power-of-two bucket bounds.
///
/// All updates are relaxed atomic adds; `count` and `sum` track the exact
/// number and total of recorded values (both deterministic when the recorded
/// values are).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot the non-empty buckets as `(bucket_lower_bound, count)` pairs,
    /// in ascending bound order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_bounds(i).0, n))
            })
            .collect()
    }

    /// Snapshot into an owned, lock-free view.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self.nonzero_buckets(),
        }
    }
}

/// Owned point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded observations.
    pub sum: u64,
    /// `(bucket_lower_bound, count)` pairs for the non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

/// Aggregate wall-clock time attributed to one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurationStat {
    /// Number of completed spans with this path.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_nanos: u64,
    /// Longest single span in nanoseconds.
    pub max_nanos: u64,
}

/// Sink for metric updates.
///
/// [`Registry`] is the real implementation; [`NoopRecorder`] discards
/// everything.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the named counter.
    fn add(&self, name: &str, delta: u64);
    /// Set the named gauge to `value`.
    fn gauge_set(&self, name: &str, value: u64);
    /// Raise the named gauge to at least `value`.
    fn gauge_max(&self, name: &str, value: u64);
    /// Record one observation into the named histogram.
    fn record(&self, name: &str, value: u64);
    /// Record a completed span's wall-clock duration under its path.  Kept in
    /// a separate channel so durations can never leak into the deterministic
    /// report section.
    fn record_duration(&self, path: &str, nanos: u64);
}

/// A recorder that discards every update.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn add(&self, _name: &str, _delta: u64) {}
    fn gauge_set(&self, _name: &str, _value: u64) {}
    fn gauge_max(&self, _name: &str, _value: u64) {}
    fn record(&self, _name: &str, _value: u64) {}
    fn record_duration(&self, _path: &str, _nanos: u64) {}
}

/// Named-metric registry backing the [`Recorder`] trait with atomics.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    durations: Mutex<HashMap<String, DurationStat>>,
}

fn intern<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().expect("metrics map poisoned").get(name) {
        return Arc::clone(found);
    }
    let mut write = map.write().expect("metrics map poisoned");
    Arc::clone(write.entry(name.to_string()).or_default())
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Handle to the named counter, creating it at zero if absent.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        intern(&self.counters, name)
    }

    /// Handle to the named gauge, creating it at zero if absent.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        intern(&self.gauges, name)
    }

    /// Handle to the named histogram, creating it empty if absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Current value of a counter (zero if it was never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .read()
            .expect("metrics map poisoned")
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Current value of a gauge (zero if it was never touched).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauges
            .read()
            .expect("metrics map poisoned")
            .get(name)
            .map_or(0, |g| g.load(Ordering::Relaxed))
    }

    /// Owned point-in-time view of every metric in the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("metrics map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("metrics map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("metrics map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let durations = self
            .durations
            .lock()
            .expect("duration map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            durations,
        }
    }
}

impl Recorder for Registry {
    fn add(&self, name: &str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    fn gauge_set(&self, name: &str, value: u64) {
        self.gauge(name).store(value, Ordering::Relaxed);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.gauge(name).fetch_max(value, Ordering::Relaxed);
    }

    fn record(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    fn record_duration(&self, path: &str, nanos: u64) {
        let mut map = self.durations.lock().expect("duration map poisoned");
        let stat = map.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.total_nanos += nanos;
        stat.max_nanos = stat.max_nanos.max(nanos);
    }
}

/// Owned point-in-time view of a whole [`Registry`], with sorted keys so it
/// feeds straight into canonical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span duration aggregates by path (non-deterministic by nature).
    pub durations: BTreeMap<String, DurationStat>,
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide default registry.
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

/// The ambient recorder for this thread: the innermost [`scoped`] override if
/// one is active, otherwise the [`global`] registry.
pub fn recorder() -> Arc<Registry> {
    SCOPED.with(|stack| stack.borrow().last().map(Arc::clone).unwrap_or_else(global))
}

/// Run `f` with `registry` installed as this thread's ambient recorder.
///
/// Scopes nest (innermost wins) and are restored even on unwind.  Recording
/// happens on the calling thread only, so orchestrator-threaded code (the
/// lattice and stream layers aggregate worker results before recording) is
/// fully captured; worker threads spawned inside `f` fall back to the global
/// registry.
pub fn scoped<T>(registry: Arc<Registry>, f: impl FnOnce() -> T) -> T {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            SCOPED.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    SCOPED.with(|stack| stack.borrow_mut().push(registry));
    let _pop = Pop;
    f()
}

/// Add `delta` to the named counter on the ambient recorder.
#[inline]
pub fn add(name: &str, delta: u64) {
    recorder().add(name, delta);
}

/// Set the named gauge on the ambient recorder.
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    recorder().gauge_set(name, value);
}

/// Raise the named gauge on the ambient recorder to at least `value`.
#[inline]
pub fn gauge_max(name: &str, value: u64) {
    recorder().gauge_max(name, value);
}

/// Record one histogram observation on the ambient recorder.
#[inline]
pub fn record(name: &str, value: u64) {
    recorder().record(name, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(255), 8);
        assert_eq!(bucket_index(256), 9);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        // Every bucket's bounds map back to that bucket, and adjacent buckets
        // tile the u64 domain with no gaps.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(hi + 1, bucket_bounds(i + 1).0);
            }
        }
    }

    #[test]
    fn histogram_records_edges() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0); // 0 + 1 + MAX wraps around to 0
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (1u64 << 63, 1)]);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let reg = Registry::new();
        reg.add("c", 2);
        reg.add("c", 3);
        reg.gauge_set("g", 7);
        reg.gauge_max("g", 5);
        reg.gauge_max("g", 11);
        reg.record("h", 4);
        reg.record_duration("root/leaf", 1_000);
        reg.record_duration("root/leaf", 3_000);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 11);
        assert_eq!(snap.histograms["h"].count, 1);
        let d = snap.durations["root/leaf"];
        assert_eq!((d.count, d.total_nanos, d.max_nanos), (2, 4_000, 3_000));
    }

    #[test]
    fn scoped_overrides_global_and_nests() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        scoped(Arc::clone(&outer), || {
            add("x", 1);
            scoped(Arc::clone(&inner), || add("x", 10));
            add("x", 2);
        });
        assert_eq!(outer.counter_value("x"), 3);
        assert_eq!(inner.counter_value("x"), 10);
    }
}
