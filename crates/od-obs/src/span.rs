//! RAII span guards forming a hierarchical phase profile.
//!
//! [`span`] pushes a name onto a thread-local stack and returns a guard; when
//! the guard drops, the elapsed wall-clock time is recorded on the ambient
//! recorder under the `/`-joined path of every open span on this thread, e.g.
//! `discovery/level2/refine` or `stream/batch/patch`.  Durations travel
//! through [`Registry::record_duration`] only, so they land in the
//! *non-deterministic* report section and never perturb the canonical
//! (diffable) output.

use crate::metrics::{recorder, Registry};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Guard for an open span; records its duration on drop.
#[derive(Debug)]
pub struct SpanGuard {
    registry: Arc<Registry>,
    path: String,
    start: Instant,
}

/// Open a span named `name` nested under this thread's currently open spans.
pub fn span(name: impl AsRef<str>) -> SpanGuard {
    let name = name.as_ref();
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        path
    });
    SpanGuard {
        registry: recorder(),
        path,
        start: Instant::now(),
    }
}

impl SpanGuard {
    /// Full `/`-joined path of this span.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans are expected to drop in LIFO order (they are scope
            // guards); tolerate out-of-order drops by removing this exact
            // path rather than blindly popping.
            if let Some(pos) = stack.iter().rposition(|p| p == &self.path) {
                stack.remove(pos);
            }
        });
        self.registry.record_duration(&self.path, nanos);
    }
}

/// Time `f` under a span named `label`; returns `f`'s output and the elapsed
/// wall-clock time.  The duration is also recorded on the ambient recorder
/// under the span's hierarchical path.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let guard = span(label);
    let out = f();
    let elapsed = guard.elapsed();
    drop(guard);
    (out, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::scoped;

    #[test]
    fn spans_nest_into_paths() {
        let reg = Arc::new(Registry::new());
        scoped(Arc::clone(&reg), || {
            let outer = span("discovery");
            assert_eq!(outer.path(), "discovery");
            {
                let level = span("level1");
                assert_eq!(level.path(), "discovery/level1");
                let leaf = span("refine");
                assert_eq!(leaf.path(), "discovery/level1/refine");
            }
            let sibling = span("level2");
            assert_eq!(sibling.path(), "discovery/level2");
        });
        let snap = reg.snapshot();
        assert_eq!(snap.durations["discovery/level1/refine"].count, 1);
        assert_eq!(snap.durations["discovery/level1"].count, 1);
        assert_eq!(snap.durations["discovery/level2"].count, 1);
        assert_eq!(snap.durations["discovery"].count, 1);
    }

    #[test]
    fn timed_returns_output_and_records() {
        let reg = Arc::new(Registry::new());
        let (value, elapsed) = scoped(Arc::clone(&reg), || timed("work", || 41 + 1));
        assert_eq!(value, 42);
        let stat = reg.snapshot().durations["work"];
        assert_eq!(stat.count, 1);
        // The guard records at drop, a hair after `elapsed` was sampled.
        assert!(stat.total_nanos >= u64::try_from(elapsed.as_nanos()).unwrap());
    }
}
