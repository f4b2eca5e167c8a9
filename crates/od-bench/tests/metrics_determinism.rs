//! Determinism guard for the canonical metrics artifacts: the deterministic
//! section of a `BENCH_<experiment>.json` must be **byte-identical** across
//! repeated runs — that is the property that makes the artifacts diffable in
//! CI.  Wall-clock durations and RSS live in
//! the non-deterministic section and are deliberately not compared.

use od_bench::metrics::capture;
use od_bench::{exp_e12_width3, exp_e13_width4, ExperimentScale};
use od_core::{Relation, Schema, Value};
use od_setbased::{discover_statements, LatticeConfig};
use od_workload::generate_date_dim;
use proptest::prelude::*;

/// One discovery run on `rel` under a scoped registry; returns the
/// deterministic section's canonical bytes.
fn deterministic_bytes(experiment: &str, rel: &Relation, max_context: usize) -> String {
    let (_, report) = capture(experiment, || {
        discover_statements(
            rel,
            &LatticeConfig {
                max_context,
                ..Default::default()
            },
        )
    });
    report.deterministic_json()
}

#[test]
fn e12_deterministic_section_is_byte_identical_across_runs() {
    let rel = generate_date_dim(1998, 1_000, 2_450_000);
    let reference = deterministic_bytes("e12", &rel, 3);
    assert!(reference.contains("discovery.candidates"));
    assert!(reference.contains("discovery.partition_classes"));
    for run in 0..2 {
        assert_eq!(
            deterministic_bytes("e12", &rel, 3),
            reference,
            "e12 deterministic section drifted (run={run})"
        );
    }
}

#[test]
fn e13_deterministic_section_is_byte_identical_across_runs() {
    let rel = generate_date_dim(1998, 1_000, 2_450_000);
    let reference = deterministic_bytes("e13", &rel, 4);
    assert!(reference.contains("discovery.decider_rounds"));
    for run in 0..2 {
        assert_eq!(
            deterministic_bytes("e13", &rel, 4),
            reference,
            "e13 deterministic section drifted (run={run})"
        );
    }
}

#[test]
fn e17_deterministic_section_is_byte_identical_across_runs_and_worker_counts() {
    // The whole E17 pipeline — scale-table generation, the in-process
    // oracle run, the distributed traversal over in-process workers — under
    // the capture.  The deterministic section carries only merged discovery
    // counters (worker-invariant: the control loop derives cache
    // accounting from the level schedule on every plane); frame/byte traffic
    // varies with the worker count and lives in the non-deterministic
    // section, so {1,2,4} workers must all produce identical bytes.
    let run = |workers| {
        let (_, report) = od_bench::exp_e17_dist_with_metrics(
            20_000,
            workers,
            &od_setbased::WorkerLauncher::in_process(),
        );
        report.deterministic_json()
    };
    let reference = run(1);
    assert!(reference.contains("e17.rows"));
    assert!(reference.contains("discovery.candidates"));
    assert!(!reference.contains("dist.frames"));
    for workers in [1, 2, 4] {
        for iteration in 0..2 {
            assert_eq!(
                run(workers),
                reference,
                "e17 deterministic section drifted (workers={workers}, run={iteration})"
            );
        }
    }
}

/// The reproduce binary's own capture path: the full tiny E12/E13
/// experiments (two workloads each), deterministic sections compared
/// byte-for-byte across two consecutive runs — exactly what the CI
/// bench-smoke diff step asserts on the release binary — and with the
/// checked-in sections under `tests/golden/`, which pin every counter, gauge
/// and histogram across commits.
///
/// A golden file holds the canonical bytes with a line break after each
/// comma that ends an entry, so its diff names the entries that moved.  A
/// change that moves one on purpose rewrites the file and records the move,
/// and why, in CHANGES.md.
#[test]
fn experiment_level_captures_are_byte_identical_across_runs() {
    let scale = ExperimentScale::tiny();
    let golden =
        |report: &od_obs::MetricsReport| report.deterministic_json().replace(",\"", ",\n\"");
    let (_, first) = capture("e12", || exp_e12_width3(scale));
    let (_, second) = capture("e12", || exp_e12_width3(scale));
    assert_eq!(first.deterministic_json(), second.deterministic_json());
    assert_eq!(
        golden(&first),
        include_str!("golden/e12_tiny.deterministic.json")
    );
    let (_, first) = capture("e13", || exp_e13_width4(scale, 4));
    let (_, second) = capture("e13", || exp_e13_width4(scale, 4));
    assert_eq!(first.deterministic_json(), second.deterministic_json());
    assert_eq!(
        golden(&first),
        include_str!("golden/e13_tiny.deterministic.json")
    );
}

fn relation_strategy(cols: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0i64..3, cols), 0..max_rows).prop_map(move |rows| {
        let mut schema = Schema::new("prop");
        for i in 0..cols {
            schema.add_attr(format!("c{i}"));
        }
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect()),
        )
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random relations the deterministic section stays byte-identical
    /// across two more runs — randomized cover for the fixed-workload guards
    /// above.
    #[test]
    fn deterministic_section_is_run_invariant(rel in relation_strategy(4, 12)) {
        let reference = deterministic_bytes("prop", &rel, 3);
        for run in 0..2 {
            prop_assert_eq!(
                &deterministic_bytes("prop", &rel, 3),
                &reference,
                "run={}",
                run
            );
        }
    }
}
