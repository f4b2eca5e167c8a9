//! The performance half of the od-setbased acceptance criteria: on a
//! ≥10k-row workload, width-2 discovery must beat the sort-per-candidate
//! oracle in `naive/` in wall-clock time (the margin is ~15× in release
//! builds, so asserting a plain win is safe even under CI noise).

mod naive;

use naive::discover_ods_naive;
use od_discovery::{discover_ods, DiscoveryConfig};
use od_workload::tax;
use std::time::Duration;

/// The best of three timed runs of `f`: a single scheduler stall on a noisy
/// CI runner must not invert a ~15× margin.
fn best_of_three(label: &str, mut f: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| od_obs::timed(label, &mut f).1)
        .min()
        .expect("three runs")
}

#[test]
fn set_based_discovery_beats_naive_on_ten_thousand_rows() {
    let rel = tax::generate_taxes(10_000, 7);
    let config = DiscoveryConfig::default();

    // Warm both paths once so allocator effects do not skew the comparison.
    let set_based = discover_ods(&rel, config);
    let naive = discover_ods_naive(&rel, config);
    assert_eq!(set_based.ods, naive.ods);

    let set_based_time = best_of_three("bench.setbased.discover", || {
        discover_ods(&rel, config);
    });
    let naive_time = best_of_three("bench.setbased.naive", || {
        discover_ods_naive(&rel, config);
    });
    assert!(
        set_based_time < naive_time,
        "set-based ({set_based_time:?}) must beat naive ({naive_time:?}) on {} rows",
        rel.len(),
    );
    let scans = set_based
        .lattice_stats
        .expect("discovery runs a profile")
        .validated;
    assert!(
        scans < naive.validated,
        "statement scans ({scans}) must undercut full-candidate validations ({})",
        naive.validated,
    );
}
