//! Per-layer attribution from od-obs span durations.
//!
//! The benchmark opens one root span per timed operation and, inside it, one
//! span per layer call (named after the layer's crate); the spans the library
//! already records nest beneath those.  A span's self time is its total minus
//! its children's totals; whatever the root's direct children do not cover is
//! reported as unattributed.

use od_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Unattributed shares above this are flagged in the printed tree.
pub const UNATTRIBUTED_FLAG_PCT: f64 = 5.0;

/// Span totals by `/`-joined path, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    totals: BTreeMap<String, u64>,
}

impl Spans {
    /// The span totals of a metrics snapshot.
    pub fn of(snapshot: &MetricsSnapshot) -> Spans {
        Spans {
            totals: snapshot
                .durations
                .iter()
                .map(|(path, stat)| (path.clone(), stat.total_nanos))
                .collect(),
        }
    }

    /// Total milliseconds of every span whose path satisfies `keep`.
    pub fn ms_where(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.totals
            .iter()
            .filter(|(path, _)| keep(path))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Total milliseconds of the spans whose last path segment is `name`,
    /// outside any `dist/worker*` subtree.
    pub fn ms_named(&self, name: &str) -> f64 {
        self.ms_where(|p| last_segment(p) == name && !p.contains("dist/worker"))
    }

    /// Total milliseconds of the span at exactly `path`.
    pub fn ms_at(&self, path: &str) -> f64 {
        self.totals.get(path).map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// Percentage of the root span `root` its direct children leave
    /// uncovered (0 when the root never ran).
    pub fn unattributed_pct(&self, root: &str) -> f64 {
        let total = self.ms_at(root);
        if total == 0.0 {
            return 0.0;
        }
        let covered = self.ms_where(|p| parent(p) == Some(root));
        (100.0 * (total - covered) / total).max(0.0)
    }

    /// The tree under `root`, one line per span: total milliseconds per
    /// operation, share of its parent, and self time.
    pub fn render(&self, root: &str, ops: usize) -> String {
        let per_op = |ms: f64| ms / ops.max(1) as f64;
        let mut out = String::new();
        for (path, &ns) in self.totals.range(root.to_string()..) {
            if path != root && !path.starts_with(&format!("{root}/")) {
                continue;
            }
            let total = ns as f64 / 1e6;
            let children = self.ms_where(|p| parent(p) == Some(path.as_str()));
            let share = match parent(path) {
                Some(up) if self.ms_at(up) > 0.0 => 100.0 * total / self.ms_at(up),
                _ => 100.0,
            };
            let depth = path.matches('/').count() - root.matches('/').count();
            let _ = writeln!(
                out,
                "  {:indent$}{:<28} {:>10.3} ms/op {:>6.1}% of parent  self {:>9.3} ms/op",
                "",
                last_segment(path),
                per_op(total),
                share,
                per_op((total - children).max(0.0)),
                indent = 2 * depth
            );
        }
        out
    }
}

/// The printed `unattributed_pct` line, flagged above
/// [`UNATTRIBUTED_FLAG_PCT`].
pub fn unattributed_line(pct: f64) -> String {
    format!(
        "  unattributed_pct {pct:.2} %{}",
        if pct > UNATTRIBUTED_FLAG_PCT {
            "  <-- above 5%: time outside the named layers"
        } else {
            ""
        }
    )
}

/// What a registry recorded between two snapshots of it: counter and span
/// increments (gauges and histograms are left out).
pub fn since(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut delta = MetricsSnapshot::default();
    for (name, &v) in &after.counters {
        let was = before.counters.get(name).copied().unwrap_or(0);
        delta.counters.insert(name.clone(), v.saturating_sub(was));
    }
    for (path, stat) in &after.durations {
        let mut d = *stat;
        if let Some(was) = before.durations.get(path) {
            d.count = d.count.saturating_sub(was.count);
            d.total_nanos = d.total_nanos.saturating_sub(was.total_nanos);
        }
        delta.durations.insert(path.clone(), d);
    }
    delta
}

fn last_segment(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn parent(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(up, _)| up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_obs::DurationStat;

    fn spans(entries: &[(&str, u64)]) -> Spans {
        let mut snapshot = MetricsSnapshot::default();
        for &(path, ms) in entries {
            snapshot.durations.insert(
                path.to_string(),
                DurationStat {
                    count: 1,
                    total_nanos: ms * 1_000_000,
                    max_nanos: ms * 1_000_000,
                },
            );
        }
        Spans::of(&snapshot)
    }

    #[test]
    fn self_time_and_unattributed_share() {
        let s = spans(&[
            ("op", 100),
            ("op/a", 60),
            ("op/a/refine", 50),
            ("op/b", 30),
            ("op/b/x/dist/worker0/refine", 7),
        ]);
        assert_eq!(s.unattributed_pct("op"), 10.0);
        assert_eq!(s.ms_named("refine"), 50.0);
        assert_eq!(s.ms_where(|p| p.contains("dist/worker")), 7.0);
        let tree = s.render("op", 2);
        assert!(
            tree.contains("refine") && tree.contains("25.000 ms/op"),
            "{tree}"
        );
        assert!(unattributed_line(10.0).ends_with("<-- above 5%: time outside the named layers"));
        assert!(!unattributed_line(4.9).contains("<--"));
    }
}
