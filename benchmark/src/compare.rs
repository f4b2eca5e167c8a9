//! `benchmark compare <parent-dir> <change-dir>`: judge a change against its
//! parent from result records written by `benchmark all --out`.
//!
//! Per workload and metric it prints both sides' medians and quartiles, the
//! share of seed-paired runs the change won, and a verdict by the
//! choosing-metrics rules: a gain needs at least 9 of 10 pair wins and a
//! median gap wider than the parent's interquartile range; a regression is a
//! median worse by more than the declared bound; a metric whose parent
//! spread exceeds its bound is unresolved unless every change run beats
//! every parent run.

use crate::json;
use crate::spec::{Better, Spec};
use crate::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Share of pairs a change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;
/// Seed-paired runs a gain needs before it can be claimed at all.
const MIN_PAIRS: usize = 10;

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

/// Is `b` better than `a`?
fn beats(b: f64, a: f64, better: Better) -> bool {
    match better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    }
}

/// Judge `change` against `parent` (each run's value of one metric);
/// `pairs` are `(parent, change)` values of runs made with the same seed.
/// A gain needs at least [`MIN_PAIRS`] of them.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    better: Better,
    bound: Option<f64>,
) -> Verdict {
    let (pm, cm) = (median(parent), median(change));
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| beats(c, p, better)));
    if let Some(bound) = bound {
        if relative_spread(parent) > bound {
            return if all_better {
                Verdict::Improved
            } else {
                Verdict::Unresolved
            };
        }
    }
    let wins = pairs.iter().filter(|&&(p, c)| beats(c, p, better)).count();
    let (q1, q3) = quartiles(parent);
    if pairs.len() >= MIN_PAIRS
        && wins as f64 >= WIN_SHARE * pairs.len() as f64
        && beats(cm, pm, better)
        && (cm - pm).abs() > q3 - q1
    {
        return Verdict::Improved;
    }
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (pm - cm) / pm.abs().max(f64::MIN_POSITIVE),
    };
    match bound {
        Some(bound) if worse_by > bound => Verdict::Regressed,
        _ => Verdict::Unchanged,
    }
}

/// One run's result as saved by `benchmark all --out`.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn load(dir: &Path) -> Result<Vec<Record>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    let mut records = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |key: &str| json::get(&doc, key).ok_or(format!("{}: no {key}", path.display()));
        let result = field("result")?;
        let count = |key: &str| json::get(result, key).and_then(json::num_of).unwrap_or(0.0);
        records.push(Record {
            workload: json::str_of(field("workload")?)
                .unwrap_or_default()
                .to_string(),
            seed: json::num_of(field("seed")?).unwrap_or(0.0) as u64,
            trace: json::num_of(field("trace")?) == Some(1.0),
            attempted: count("attempted"),
            failed: count("failed"),
            metrics: json::get(result, "metrics")
                .map(|m| {
                    json::members(m)
                        .filter_map(|(name, v)| {
                            Some((name.clone(), json::get(v, "value").and_then(json::num_of)?))
                        })
                        .collect()
                })
                .unwrap_or_default(),
        });
    }
    if records.is_empty() {
        return Err(format!("{} holds no result records", dir.display()));
    }
    Ok(records)
}

/// The records of one workload and run kind.
fn runs_of<'a>(records: &'a [Record], workload: &str, trace: bool) -> Vec<&'a Record> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .collect()
}

/// Pair runs of equal seed, in file order within a seed.
fn seed_pairs(parent: &[&Record], change: &[&Record], metric: &str) -> Vec<(f64, f64)> {
    let mut by_seed: BTreeMap<u64, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for r in parent {
        if let Some(&v) = r.metrics.get(metric) {
            by_seed.entry(r.seed).or_default().0.push(v);
        }
    }
    for r in change {
        if let Some(&v) = r.metrics.get(metric) {
            by_seed.entry(r.seed).or_default().1.push(v);
        }
    }
    by_seed
        .values()
        .flat_map(|(p, c)| p.iter().copied().zip(c.iter().copied()))
        .collect()
}

/// The comparison report for two result directories.
pub fn run(parent_dir: &Path, change_dir: &Path, spec: &Spec) -> Result<String, String> {
    let (parent, change) = (load(parent_dir)?, load(change_dir)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<44} {:>34} {:>34} {:>8} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "gap"
    );
    for workload in &spec.workloads {
        for trace in [false, true] {
            let (p, c) = (
                runs_of(&parent, workload, trace),
                runs_of(&change, workload, trace),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            for metric in spec.reported(trace) {
                let values = |rs: &[&Record]| -> Vec<f64> {
                    rs.iter()
                        .filter_map(|r| r.metrics.get(&metric.name).copied())
                        .collect()
                };
                let (pv, cv) = (values(&p), values(&c));
                // Per-layer metrics of layers this workload never runs read 0.
                if pv.is_empty() || cv.is_empty() || pv.iter().chain(&cv).all(|&v| v == 0.0) {
                    continue;
                }
                let pairs = seed_pairs(&p, &c, &metric.name);
                let wins = pairs
                    .iter()
                    .filter(|&&(a, b)| beats(b, a, metric.better))
                    .count();
                let v = verdict(&pv, &cv, &pairs, metric.better, metric.bound);
                let summary = |v: &[f64]| {
                    let (q1, q3) = quartiles(v);
                    format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
                };
                let gap =
                    100.0 * (median(&cv) - median(&pv)) / median(&pv).abs().max(f64::MIN_POSITIVE);
                let _ = writeln!(
                    out,
                    "{workload:<14} {:<44} {:>34} {:>34} {:>8} {:>7.1}%  {}",
                    format!("{} ({})", metric.name, metric.unit),
                    summary(&pv),
                    summary(&cv),
                    format!("{wins}/{}", pairs.len()),
                    gap,
                    match v {
                        Verdict::Improved => "improved",
                        Verdict::Unchanged => "unchanged",
                        Verdict::Regressed => "REGRESSED",
                        Verdict::Unresolved => "unresolved",
                    }
                );
            }
            // No increase in failures is allowed.
            let ratio = |rs: &[&Record]| {
                rs.iter().map(|r| r.failed).sum::<f64>()
                    / rs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
            };
            let (pf, cf) = (ratio(&p), ratio(&c));
            let _ = writeln!(
                out,
                "{workload:<14} {:<44} {:>34} {:>34} {:>8} {:>8}  {}",
                "fail_ratio",
                format!("{pf:.6}"),
                format!("{cf:.6}"),
                "",
                "",
                if cf > pf { "REGRESSED" } else { "unchanged" }
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent = runs(100.0, 0.5); // IQR ≈ 2.75
        let change = runs(90.0, 0.5);
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            Some(0.1),
        );
        assert_eq!(v, Verdict::Improved);
        // The same numbers read as a rate that should rise: a 10% drop.
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Higher,
            Some(0.05),
        );
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn gain_within_the_parent_spread_is_unchanged() {
        let parent = runs(100.0, 1.0); // IQR 5.5
        let change: Vec<f64> = parent.iter().map(|p| p - 3.0).collect();
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            Some(0.1),
        );
        assert_eq!(v, Verdict::Unchanged, "a 3-point gap is inside the 5.5 IQR");
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let parent = runs(100.0, 0.5);
        let change = runs(90.0, 0.5);
        let pairs = paired(&parent[..9], &change[..9]);
        let v = verdict(&parent[..9], &change[..9], &pairs, Better::Lower, Some(0.1));
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn too_few_pair_wins_is_not_a_gain() {
        let parent = runs(100.0, 0.1);
        let mut change: Vec<f64> = parent.iter().map(|p| p - 5.0).collect();
        change[0] = 200.0;
        change[1] = 200.0; // 8 of 10 wins
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            Some(0.1),
        );
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn worse_beyond_the_bound_is_regressed() {
        let parent = runs(100.0, 0.1);
        let change = runs(115.0, 0.1);
        let pairs = paired(&parent, &change);
        assert_eq!(
            verdict(&parent, &change, &pairs, Better::Lower, Some(0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &change, &pairs, Better::Lower, Some(0.2)),
            Verdict::Unchanged
        );
        // Per-layer metrics carry no bound: never a regression.
        assert_eq!(
            verdict(&parent, &change, &pairs, Better::Lower, None),
            Verdict::Unchanged
        );
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_every_run_beats_it() {
        let parent = runs(100.0, 5.0); // IQR/median ≈ 0.22
        let slower = runs(105.0, 5.0);
        let pairs = paired(&parent, &slower);
        assert_eq!(
            verdict(&parent, &slower, &pairs, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        let faster = runs(10.0, 1.0);
        let pairs = paired(&parent, &faster);
        assert_eq!(
            verdict(&parent, &faster, &pairs, Better::Lower, Some(0.1)),
            Verdict::Improved
        );
    }
}
