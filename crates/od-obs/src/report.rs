//! `MetricsReport`: a two-section experiment artifact with canonical-JSON
//! serialization.
//!
//! The **deterministic** section carries counts, bucket histograms, and
//! lattice/stream statistics — values that are bit-identical across runs and
//! thread counts.  The **nondeterministic** section carries wall-clock span
//! durations and peak RSS.  [`MetricsReport::write_to`] emits two files per
//! experiment: the full `BENCH_<experiment>.json` and a
//! `BENCH_<experiment>.deterministic.json` twin holding only the diffable
//! section, so CI can assert byte-identity with plain `diff`.

use crate::json::Json;
use crate::metrics::{DurationStat, HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// A named experiment's metrics, split into deterministic and
/// non-deterministic sections.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Experiment identifier (e.g. `e13`); names the artifact file.
    pub experiment: String,
    /// Values that must be byte-identical across runs and thread counts.
    pub deterministic: BTreeMap<String, Json>,
    /// Wall-clock durations, peak RSS, and other run-local values.
    pub nondeterministic: BTreeMap<String, Json>,
}

impl MetricsReport {
    /// Create an empty report for `experiment`.
    pub fn new(experiment: impl Into<String>) -> Self {
        MetricsReport {
            experiment: experiment.into(),
            ..MetricsReport::default()
        }
    }

    /// Build a report from a registry snapshot: counters, gauges, and
    /// histograms land in the deterministic section; span durations land in
    /// the non-deterministic section.
    pub fn from_snapshot(experiment: impl Into<String>, snapshot: &MetricsSnapshot) -> Self {
        let mut report = MetricsReport::new(experiment);
        if !snapshot.counters.is_empty() {
            report.deterministic.insert(
                "counters".to_string(),
                Json::Object(
                    snapshot
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            );
        }
        if !snapshot.gauges.is_empty() {
            report.deterministic.insert(
                "gauges".to_string(),
                Json::Object(
                    snapshot
                        .gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            );
        }
        if !snapshot.histograms.is_empty() {
            report.deterministic.insert(
                "histograms".to_string(),
                Json::Object(
                    snapshot
                        .histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), histogram_json(v)))
                        .collect(),
                ),
            );
        }
        if !snapshot.durations.is_empty() {
            report.nondeterministic.insert(
                "durations".to_string(),
                Json::Object(
                    snapshot
                        .durations
                        .iter()
                        .map(|(k, v)| (k.clone(), duration_json(v)))
                        .collect(),
                ),
            );
        }
        report
    }

    /// Insert a value into the deterministic section.
    pub fn set_deterministic(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.deterministic.insert(key.into(), value.into());
    }

    /// Insert a value into the non-deterministic section.
    pub fn set_nondeterministic(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.nondeterministic.insert(key.into(), value.into());
    }

    /// Attach this process's peak resident set size (Linux `VmHWM`) to the
    /// non-deterministic section, when available.
    pub fn with_peak_rss(mut self) -> Self {
        if let Some(kib) = peak_rss_kib() {
            self.nondeterministic
                .insert("peak_rss_kib".to_string(), Json::UInt(kib));
        }
        self
    }

    /// The full two-section report as a canonical JSON value.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "experiment".to_string(),
                Json::from(self.experiment.as_str()),
            ),
            (
                "deterministic".to_string(),
                Json::Object(self.deterministic.clone()),
            ),
            (
                "nondeterministic".to_string(),
                Json::Object(self.nondeterministic.clone()),
            ),
        ])
    }

    /// Canonical JSON of the full report (both sections), newline-terminated.
    pub fn canonical_json(&self) -> String {
        let mut s = self.to_json().canonical();
        s.push('\n');
        s
    }

    /// Canonical JSON of the deterministic section only (plus the experiment
    /// id), newline-terminated.  Byte-identical across runs and thread counts
    /// by contract.
    pub fn deterministic_json(&self) -> String {
        let json = Json::object([
            (
                "experiment".to_string(),
                Json::from(self.experiment.as_str()),
            ),
            (
                "deterministic".to_string(),
                Json::Object(self.deterministic.clone()),
            ),
        ]);
        let mut s = json.canonical();
        s.push('\n');
        s
    }

    /// Write `BENCH_<experiment>.json` (full report) and
    /// `BENCH_<experiment>.deterministic.json` (diffable twin) under `dir`,
    /// creating the directory if needed.  Returns the two paths.
    pub fn write_to(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let full = dir.join(format!("BENCH_{}.json", self.experiment));
        let det = dir.join(format!("BENCH_{}.deterministic.json", self.experiment));
        std::fs::write(&full, self.canonical_json())?;
        std::fs::write(&det, self.deterministic_json())?;
        Ok((full, det))
    }
}

/// Histogram snapshot as canonical JSON: exact `count`/`sum` plus sparse
/// `[bucket_lower_bound, count]` pairs.
pub fn histogram_json(snap: &HistogramSnapshot) -> Json {
    Json::object([
        ("count".to_string(), Json::UInt(snap.count)),
        ("sum".to_string(), Json::UInt(snap.sum)),
        (
            "buckets".to_string(),
            Json::Array(
                snap.buckets
                    .iter()
                    .map(|(lo, n)| Json::Array(vec![Json::UInt(*lo), Json::UInt(*n)]))
                    .collect(),
            ),
        ),
    ])
}

fn duration_json(stat: &DurationStat) -> Json {
    Json::object([
        ("count".to_string(), Json::UInt(stat.count)),
        ("total_nanos".to_string(), Json::UInt(stat.total_nanos)),
        ("max_nanos".to_string(), Json::UInt(stat.max_nanos)),
    ])
}

/// Peak resident set size of this process in KiB, read from
/// `/proc/self/status` (`VmHWM`).  `None` off Linux or if unreadable.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn report_sections_split_durations_from_counts() {
        let reg = Registry::new();
        reg.add("nodes", 5);
        reg.gauge_max("peak", 3);
        reg.record("class_size", 4);
        reg.record_duration("discovery/level1", 12_345);
        let report = MetricsReport::from_snapshot("e0", &reg.snapshot());
        let det = report.deterministic_json();
        assert!(det.contains(r#""nodes":5"#));
        assert!(det.contains(r#""peak":3"#));
        assert!(det.contains(r#""class_size""#));
        assert!(!det.contains("nanos"), "durations leaked: {det}");
        let full = report.canonical_json();
        assert!(full.contains(r#""total_nanos":12345"#));
    }

    #[test]
    fn artifacts_are_byte_identical_across_writes() {
        let reg = Registry::new();
        reg.add("c", 1);
        let report = MetricsReport::from_snapshot("e99", &reg.snapshot());
        let dir = std::env::temp_dir().join("od-obs-report-test");
        let (full_a, det_a) = report.write_to(&dir).unwrap();
        let a = std::fs::read(&det_a).unwrap();
        let (_, det_b) = report.write_to(&dir).unwrap();
        let b = std::fs::read(&det_b).unwrap();
        assert_eq!(a, b);
        assert!(full_a.file_name().unwrap().to_str().unwrap() == "BENCH_e99.json");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kib().unwrap() > 0);
        }
    }
}
