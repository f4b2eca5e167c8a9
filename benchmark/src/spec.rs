//! The benchmark's declaration, read from the `BENCHMARK.json` at the root of
//! the repository and compiled into the binary, so the metric names, units,
//! directions and regression bounds printed, checked and compared here are
//! the declared ones.

use crate::json;

/// The declaration as checked in.
pub const SOURCE: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, ratios).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, unique within the declaration.
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before a change
    /// counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: f64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The declaration compiled into this binary.
    pub fn embedded() -> Spec {
        Spec::parse(SOURCE).expect("BENCHMARK.json is well-formed")
    }

    /// Parse a declaration.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let workloads = json::items(json::get(&doc, "workloads").ok_or("no workloads")?)
            .iter()
            .map(|w| {
                json::get(w, "name")
                    .and_then(json::str_of)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            json::items(json::get(&doc, key).ok_or(format!("no {key}"))?)
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        json::get(m, f)
                            .and_then(json::str_of)
                            .ok_or(format!("{key} metric without {f}"))
                    };
                    Ok(Metric {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: match field("better")? {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("unknown direction {other}")),
                        },
                        bound: json::get(m, "bound").and_then(json::num_of),
                    })
                })
                .collect()
        };
        let spec = Spec {
            run_seconds: json::get(&doc, "run_seconds")
                .and_then(json::num_of)
                .ok_or("no run_seconds")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        let mut names = spec.workloads.iter().chain(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| &m.name),
        );
        match names.find(|n| !valid_name(n)) {
            Some(bad) => Err(format!("invalid name {bad:?}")),
            None => Ok(spec),
        }
    }

    /// The metrics a run reports: per-layer ones when traced, else end-to-end.
    pub fn reported(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Look a metric up by name in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Does `name` follow the declaration's naming rule: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit?
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let spec = Spec::embedded();
        let names: Vec<&str> = spec
            .workloads
            .iter()
            .map(String::as_str)
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name} breaks the naming rule");
        }
        assert_eq!(names.len(), names.iter().collect::<HashSet<_>>().len());
        assert!(!valid_name("-x") && !valid_name("a b") && !valid_name(""));
        let bad = SOURCE.replacen("\"setup_s\"", "\"setup s\"", 1);
        assert!(
            Spec::parse(&bad).is_err(),
            "a name outside the rule is refused"
        );
    }

    #[test]
    fn end_to_end_metrics_carry_bounds_and_setup_time() {
        let spec = Spec::embedded();
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = spec.metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
