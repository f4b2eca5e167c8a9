//! CI guard for the E14 columnar core: at bench-smoke scale (250k rows in
//! release) the experiment must clear its own acceptance bars — the three
//! refinement paths (row-at-a-time Values, comparison-sorted rank codes,
//! columnar radix codes) produce identical partitions, and the columnar path
//! beats the Value-comparison baseline by at least 3x.  `run_e14` stamps any
//! violation with an `UNEXPECTED` line, so the semantic assertion here is a
//! single marker check on the report text.
//!
//! Wall-clock bounds follow the `width4_speed` idiom: asserted only in
//! release builds (debug timings measure the compiler, not the algorithm),
//! while the semantic checks run in every profile at a debug-affordable row
//! count.

use od_bench::{exp_e14_columnar, exp_e14_columnar_with_metrics};
use std::time::Instant;

/// Rows for the release-profile guard — the smallest scale at which
/// `run_e14` turns the 3x speedup claim into a hard `UNEXPECTED` marker.
const RELEASE_ROWS: usize = 250_000;

/// Rows for the always-on semantic pass: large enough that every partition
/// class clears the radix thresholds (`RADIX_MIN_PAIRS`, `CLASS_RADIX_MIN`),
/// small enough for a debug binary.
const SEMANTIC_ROWS: usize = 20_000;

#[test]
fn e14_report_is_clean_at_semantic_scale() {
    let report = exp_e14_columnar(SEMANTIC_ROWS);
    assert!(
        !report.contains("UNEXPECTED"),
        "E14 failed its internal checks at {SEMANTIC_ROWS} rows:\n{report}"
    );
    assert!(report.contains("identical partitions on all three paths"));
    assert!(report.contains("width-2 discovery"));
}

#[cfg(not(debug_assertions))]
#[test]
fn e14_clears_speed_bar_at_bench_smoke_scale() {
    let start = Instant::now();
    let report = exp_e14_columnar(RELEASE_ROWS);
    let elapsed = start.elapsed();
    // At >= 250k rows run_e14 enforces the 3x columnar-vs-Value bar itself;
    // a miss (or a partition mismatch) shows up as an UNEXPECTED line.
    assert!(
        !report.contains("UNEXPECTED"),
        "E14 failed an acceptance bar at {RELEASE_ROWS} rows:\n{report}"
    );
    // Generous end-to-end budget: the steady-state run is ~3s in release
    // (three timed paths, each best-of-2, plus width-2 discovery); 30s leaves
    // an order of magnitude for loaded CI machines while still catching an
    // accidental return to quadratic bucketing.
    assert!(
        elapsed.as_secs_f64() < 30.0,
        "E14 at {RELEASE_ROWS} rows took {elapsed:?} (budget 30s):\n{report}"
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn scale_10m_generator_sustains_throughput_sampled() {
    use od_setbased::{RefineScratch, StrippedPartition};
    use od_workload::{scale_ods, scale_relation_sampled, SCALE_10M};

    // Walk the full 10M-row RNG stream but materialize every 16th tuple
    // (625k rows): the generation path is exercised at its headline scale
    // without CI holding ten million tuples, and the kept rows are
    // bit-identical to their counterparts in the full table.
    let start = Instant::now();
    let rel = scale_relation_sampled(&SCALE_10M, 16);
    let elapsed = start.elapsed();
    assert_eq!(rel.len(), SCALE_10M.rows / 16);
    // The constructed ODs hold row-wise, so they survive sampling.
    for od in scale_ods(rel.schema()) {
        assert!(od_core::check::od_holds(&rel, &od), "{od} must hold");
    }
    // The sampled table still refines like the full one: the ts column is a
    // key (strips to nothing) and zipf_key × zipf_band is a real product.
    let enc = rel.encoding();
    let mut scratch = RefineScratch::default();
    let ts = StrippedPartition::by_codes_with(enc.codes(0), &mut scratch);
    assert!(ts.is_key(), "sampled ts must stay strictly increasing");
    let zipf = StrippedPartition::by_codes_with(enc.codes(2), &mut scratch);
    let refined = zipf.product_with(&zipf.class_codes(), &mut scratch);
    assert_eq!(refined, zipf, "self-product must be idempotent");
    // Generation + encode of the full stream is ~8s in release; 60s leaves
    // room for loaded CI machines while catching a super-linear regression
    // in the generator or encoder.
    assert!(
        elapsed.as_secs_f64() < 60.0,
        "sampled 10M generation took {elapsed:?} (budget 60s)"
    );
}

#[cfg(debug_assertions)]
#[test]
fn e14_speed_bar_skipped_in_debug_profile() {
    // Placeholder so `cargo test` output shows the guard exists in debug
    // builds; the wall-clock and 3x assertions only make sense in release.
    let _ = (RELEASE_ROWS, Instant::now());
}

#[test]
fn e14_deterministic_section_is_stable_across_consecutive_runs() {
    // The bench-smoke diff step reruns the release binary and compares
    // `BENCH_e14.deterministic.json` byte-for-byte; this is the in-process
    // version of that check (thread-count invariance is covered separately
    // in metrics_determinism.rs).
    let rows = if cfg!(debug_assertions) {
        5_000
    } else {
        60_000
    };
    let (_, first) = exp_e14_columnar_with_metrics(rows, 1);
    let (_, second) = exp_e14_columnar_with_metrics(rows, 1);
    assert_eq!(
        first.deterministic_json(),
        second.deterministic_json(),
        "E14 deterministic metrics drifted between consecutive runs"
    );
    assert!(first.deterministic_json().contains("e14.rows"));
}
