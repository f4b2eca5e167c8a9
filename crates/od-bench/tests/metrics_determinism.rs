//! Determinism guard for the canonical metrics artifacts: the deterministic
//! section of a `BENCH_<experiment>.json` must be **byte-identical** across
//! repeated runs and across worker thread counts — that is the property that
//! makes the artifacts diffable in CI.  Wall-clock durations and RSS live in
//! the non-deterministic section and are deliberately not compared.

use od_bench::{exp_e12_width3_with_metrics, exp_e13_width4_with_metrics, ExperimentScale};
use od_core::{Relation, Schema, Value};
use od_setbased::{discover_statements, LatticeConfig};
use od_workload::generate_date_dim;
use proptest::prelude::*;

/// One discovery run on `rel` under a scoped registry; returns the
/// deterministic section's canonical bytes.
fn deterministic_bytes(
    experiment: &str,
    rel: &Relation,
    max_context: usize,
    threads: usize,
) -> String {
    let (_, report) = od_bench::metrics::capture(experiment, || {
        discover_statements(
            rel,
            &LatticeConfig {
                max_context,
                threads,
                ..Default::default()
            },
        )
    });
    report.deterministic_json()
}

#[test]
fn e12_deterministic_section_is_byte_identical_across_runs_and_threads() {
    let rel = generate_date_dim(1998, 1_000, 2_450_000);
    let reference = deterministic_bytes("e12", &rel, 3, 1);
    assert!(reference.contains("discovery.candidates"));
    assert!(reference.contains("discovery.partition_classes"));
    for threads in [1, 4, 8] {
        for run in 0..2 {
            assert_eq!(
                deterministic_bytes("e12", &rel, 3, threads),
                reference,
                "e12 deterministic section drifted (threads={threads}, run={run})"
            );
        }
    }
}

#[test]
fn e13_deterministic_section_is_byte_identical_across_runs_and_threads() {
    let rel = generate_date_dim(1998, 1_000, 2_450_000);
    let reference = deterministic_bytes("e13", &rel, 4, 1);
    assert!(reference.contains("discovery.decider_rounds"));
    for threads in [1, 4, 8] {
        for run in 0..2 {
            assert_eq!(
                deterministic_bytes("e13", &rel, 4, threads),
                reference,
                "e13 deterministic section drifted (threads={threads}, run={run})"
            );
        }
    }
}

#[test]
fn e14_deterministic_section_is_byte_identical_across_runs_and_threads() {
    // The whole E14 pipeline — scale-table generation, columnar encode,
    // three-way refinement, width-2 discovery — under the capture, at a CI
    // scale that still clears the radix thresholds.
    let (_, reference) = od_bench::exp_e14_columnar_with_metrics(30_000, 1);
    let reference = reference.deterministic_json();
    assert!(reference.contains("relation.encode.radix_passes"));
    assert!(reference.contains("relation.encode.dict_entries"));
    assert!(reference.contains("discovery.radix_passes"));
    assert!(reference.contains("e14.refine.radix_passes"));
    for threads in [1, 4, 8] {
        for run in 0..2 {
            let (_, report) = od_bench::exp_e14_columnar_with_metrics(30_000, threads);
            assert_eq!(
                report.deterministic_json(),
                reference,
                "e14 deterministic section drifted (threads={threads}, run={run})"
            );
        }
    }
}

#[test]
fn e16_deterministic_section_is_byte_identical_across_runs_and_threads() {
    // The whole E16 pipeline — scale-table generation, three-way partition
    // products, width-2/3/4 discovery on memoized radix products — under the
    // capture.  `discovery.product_radix_passes` is pinned across thread
    // counts: products are sharded but the pass counts are absorbed on the
    // orchestrating thread in lattice order.
    let (_, reference) = od_bench::exp_e16_lattice_with_metrics(30_000, 1);
    let reference = reference.deterministic_json();
    assert!(reference.contains("e16.rows"));
    assert!(reference.contains("e16.product.radix_passes"));
    assert!(reference.contains("discovery.product_radix_passes"));
    for threads in [1, 4, 8] {
        for run in 0..2 {
            let (_, report) = od_bench::exp_e16_lattice_with_metrics(30_000, threads);
            assert_eq!(
                report.deterministic_json(),
                reference,
                "e16 deterministic section drifted (threads={threads}, run={run})"
            );
        }
    }
}

#[test]
fn e17_deterministic_section_is_byte_identical_across_runs_and_worker_counts() {
    // The whole E17 pipeline — scale-table generation, the threaded oracle
    // run, the distributed traversal over in-process workers — under the
    // capture.  The deterministic section carries only merged discovery
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

#[test]
fn e15_deterministic_section_is_byte_identical_across_runs_and_threads() {
    // The whole E15 service-layer load harness — server boot, pub/sub flip
    // phase, multi-threaded spot load over loopback TCP — with the wall-clock
    // knee search disabled: the deterministic section records only request
    // counts and verdict-flip accounting, both of which are functions of the
    // workload alone, never of scheduling.
    let config = |threads| od_bench::LoadConfig {
        rows: 800,
        requests: 400,
        threads,
        knee_search: false,
    };
    let (_, reference) = od_bench::exp_e15_server_load_with_metrics(config(1));
    let reference = reference.deterministic_json();
    assert!(reference.contains("e15.flip.broadcasts"));
    assert!(reference.contains("e15.load.requests"));
    assert!(reference.contains("e15.load.final_rows"));
    for threads in [1, 2, 5] {
        for run in 0..2 {
            let (_, report) = od_bench::exp_e15_server_load_with_metrics(config(threads));
            assert_eq!(
                report.deterministic_json(),
                reference,
                "e15 deterministic section drifted (threads={threads}, run={run})"
            );
        }
    }
}

#[test]
fn experiment_level_captures_are_byte_identical_across_runs() {
    // The reproduce binary's own capture path: the full tiny E12/E13
    // experiments (two workloads each), deterministic sections compared
    // byte-for-byte across two consecutive runs — exactly what the CI
    // bench-smoke diff step asserts on the release binary.
    let scale = ExperimentScale::tiny();
    let (_, first) = exp_e12_width3_with_metrics(scale);
    let (_, second) = exp_e12_width3_with_metrics(scale);
    assert_eq!(first.deterministic_json(), second.deterministic_json());
    let (_, first) = exp_e13_width4_with_metrics(scale, 4);
    let (_, second) = exp_e13_width4_with_metrics(scale, 4);
    assert_eq!(first.deterministic_json(), second.deterministic_json());
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
    /// across two runs at each of 1/4/8 worker threads — randomized cover for
    /// the fixed-workload guards above.
    #[test]
    fn deterministic_section_is_thread_and_run_invariant(rel in relation_strategy(4, 12)) {
        let reference = deterministic_bytes("prop", &rel, 3, 1);
        for threads in [1usize, 4, 8] {
            prop_assert_eq!(
                &deterministic_bytes("prop", &rel, 3, threads),
                &reference,
                "threads={}",
                threads
            );
            prop_assert_eq!(
                &deterministic_bytes("prop", &rel, 3, threads),
                &reference,
                "threads={} (second run)",
                threads
            );
        }
    }
}
