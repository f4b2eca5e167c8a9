//! Worker-count invariance of the distributed lattice traversal.
//!
//! The distributed engine reruns the exact control-plane loop of the
//! threaded engine, so everything it returns — minimal statements, verdicts
//! (witness pairs included), `LatticeStats`, per-level stats — must be
//! bit-identical to `discover_statements` at every worker count, exact and
//! under a `g3` budget.  Workers here are in-process protocol threads
//! ([`WorkerLauncher::in_process`]): every frame codec and shard merge
//! runs, without per-case process startup.  (Real self-exec'd
//! processes are exercised by `od-bench/tests/dist_speed.rs` and the E17 CI
//! run; process *crash* coverage lives at the bottom of this file.)

use od_core::{Relation, Schema, Value};
use od_obs::MetricsReport;
use od_setbased::{
    discover_statements, discover_statements_dist, LatticeConfig, SetBasedDiscovery, WorkerLauncher,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Duplicate-heavy mixed-type values so partitions have real classes at a
/// few dozen rows and some statements hold while others fail.
fn value_strategy() -> impl Strategy<Value = Value> {
    (0u8..8).prop_map(|k| match k {
        0..=3 => Value::Int(i64::from(k) % 3),
        4 | 5 => Value::Null,
        6 => Value::Str("x".into()),
        _ => Value::Int(9),
    })
}

fn relation_strategy(cols: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(value_strategy(), cols), 0..max_rows).prop_map(
        move |rows| {
            let mut schema = Schema::new("distdiff");
            for i in 0..cols {
                schema.add_attr(format!("c{i}"));
            }
            Relation::from_rows(schema, rows).expect("arity fixed by construction")
        },
    )
}

/// Assert the full result surface matches between the threaded engine and
/// the distributed one at `workers`, for one `(relation, epsilon)` pair.
fn assert_worker_invariant(rel: &Relation, epsilon: f64, workers: usize) {
    let base_config = LatticeConfig {
        epsilon,
        ..Default::default()
    };
    let local = discover_statements(rel, &base_config);
    let config = LatticeConfig {
        workers,
        ..base_config
    };
    let (dist, stats) = discover_statements_dist(rel, &config, &WorkerLauncher::in_process())
        .expect("in-process distributed discovery");
    assert_eq!(
        local.minimal_statements(),
        dist.minimal_statements(),
        "minimal statements drifted (workers={workers}, ε={epsilon})"
    );
    assert_eq!(
        local.verdicts(),
        dist.verdicts(),
        "verdicts drifted (workers={workers}, ε={epsilon})"
    );
    assert_eq!(
        local.stats, dist.stats,
        "lattice stats drifted (workers={workers}, ε={epsilon})"
    );
    assert_eq!(
        local.level_stats(),
        dist.level_stats(),
        "per-level stats drifted (workers={workers}, ε={epsilon})"
    );
    assert_eq!(stats.workers, workers);
}

#[test]
fn taxes_fixture_is_worker_invariant_exact_and_budgeted() {
    let rel = od_core::fixtures::example_5_taxes();
    for workers in [1, 2, 4] {
        assert_worker_invariant(&rel, 0.0, workers);
        assert_worker_invariant(&rel, 0.02, workers);
    }
}

#[test]
fn empty_relation_is_worker_invariant() {
    let mut schema = Schema::new("empty");
    schema.add_attr("a");
    schema.add_attr("b");
    let rel = Relation::from_rows(schema, Vec::<Vec<Value>>::new()).unwrap();
    for workers in [1, 2, 4] {
        assert_worker_invariant(&rel, 0.0, workers);
    }
}

#[test]
fn single_attribute_relation_is_worker_invariant() {
    let mut schema = Schema::new("one");
    schema.add_attr("a");
    let rows: Vec<Vec<Value>> = vec![
        vec![Value::Int(1)],
        vec![Value::Int(1)],
        vec![Value::Int(2)],
    ];
    let rel = Relation::from_rows(schema, rows).unwrap();
    // More workers than attributes: the extra shards stay idle but the
    // protocol (snapshot, empty refine groups) must still converge.
    for workers in [1, 4] {
        assert_worker_invariant(&rel, 0.0, workers);
    }
}

/// Run `f` against a fresh scoped metrics registry; returns its result and
/// the registry snapshot.
fn captured<T>(f: impl FnOnce() -> T) -> (T, od_obs::MetricsSnapshot) {
    let registry = Arc::new(od_obs::Registry::new());
    let out = od_obs::scoped(Arc::clone(&registry), f);
    (out, registry.snapshot())
}

/// The partition-cache accounting of one run, in the order
/// `[misses, hits, evictions, peak cached, discovery.partition_products,
/// partition.csr_bytes]`.
fn accounting(d: &SetBasedDiscovery, snap: &od_obs::MetricsSnapshot) -> [u64; 6] {
    [
        d.stats.cache_misses as u64,
        d.stats.cache_hits as u64,
        d.stats.cache_evictions as u64,
        d.stats.peak_cached_partitions as u64,
        snap.counters["discovery.partition_products"],
        snap.gauges["partition.csr_bytes"],
    ]
}

/// The taxes local run's whole deterministic metrics section.  The
/// benchmark's per-layer lattice metrics read these counter names.
const TAXES_METRICS: &str = "{\"deterministic\":{\"counters\":{\
    \"discovery.candidates\":12,\"discovery.decider_pruned\":1,\
    \"discovery.decider_rounds\":2,\"discovery.decider_witness_hits\":7,\
    \"discovery.inherited\":0,\"discovery.nodes_created\":4,\
    \"discovery.nodes_deleted\":2,\"discovery.partition_cache.evictions\":1,\
    \"discovery.partition_cache.hits\":0,\"discovery.partition_cache.misses\":4,\
    \"discovery.partition_products\":3,\"discovery.propagated_away\":6,\
    \"discovery.validated\":11},\
    \"gauges\":{\"discovery.partition_cache.peak\":4,\"partition.csr_bytes\":68},\
    \"histograms\":{\"discovery.partition_classes\":\
    {\"buckets\":[[0,2],[1,1],[2,1]],\"count\":4,\"sum\":3}}},\
    \"experiment\":\"taxes\"}\n";

/// The taxes local run's span paths.  The benchmark's per-layer lattice
/// timings read the phase names under each level.
const TAXES_SPANS: [&str; 13] = [
    "discovery",
    "discovery/level0",
    "discovery/level0/decider",
    "discovery/level0/expand",
    "discovery/level0/refine",
    "discovery/level0/validate",
    "discovery/level1",
    "discovery/level1/decider",
    "discovery/level1/expand",
    "discovery/level1/refine",
    "discovery/level1/validate",
    "discovery/level2",
    "discovery/level2/expand",
];

/// Both planes derive cache accounting from the level schedule in the one
/// control loop, so comparing them with each other cannot catch a drift in
/// that derivation.  These values were counted on the partition cache
/// itself, independently of the derivation; every plane must reproduce
/// them, and each distributed run's deterministic metrics section must
/// equal the local run's byte for byte.
#[test]
fn cache_accounting_is_pinned_on_every_plane() {
    let cases = [
        (
            "taxes",
            od_core::fixtures::example_5_taxes(),
            [4, 0, 1, 4, 3, 68],
        ),
        (
            "figure_1",
            od_core::fixtures::figure_1_relation(),
            [11, 0, 10, 9, 10, 132],
        ),
        (
            "date_dim",
            od_workload::generate_date_dim(1998, 1_000, 2_450_000),
            [80, 0, 61, 51, 79, 253_216],
        ),
    ];
    let config = LatticeConfig {
        max_context: 4,
        ..Default::default()
    };
    for (name, rel, expected) in cases {
        let (local, snap) = captured(|| discover_statements(&rel, &config));
        assert_eq!(accounting(&local, &snap), expected, "{name}: local plane");
        if name == "date_dim" {
            // Products are built by a counting kernel, which sorts nothing.
            assert_eq!(local.stats.product_radix_passes, 0);
            let cached: Vec<usize> = local
                .level_stats()
                .iter()
                .map(|l| l.cached_partitions)
                .collect();
            assert_eq!(cached, [1, 10, 30, 51, 49]);
        }
        let local_metrics = MetricsReport::from_snapshot(name, &snap).deterministic_json();
        if name == "taxes" {
            assert_eq!(local_metrics, TAXES_METRICS);
            let spans: Vec<&str> = snap.durations.keys().map(String::as_str).collect();
            assert_eq!(spans, TAXES_SPANS);
        }
        for workers in [1, 2, 4] {
            let dist_config = LatticeConfig { workers, ..config };
            let ((dist, _), snap) = captured(|| {
                discover_statements_dist(&rel, &dist_config, &WorkerLauncher::in_process())
                    .expect("in-process distributed discovery")
            });
            assert_eq!(
                accounting(&dist, &snap),
                expected,
                "{name}: workers={workers}"
            );
            assert_eq!(dist.stats, local.stats, "{name}: workers={workers}");
            assert_eq!(dist.level_stats(), local.level_stats());
            assert_eq!(
                MetricsReport::from_snapshot(name, &snap).deterministic_json(),
                local_metrics,
                "{name}: deterministic metrics drifted at workers={workers}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random duplicate-heavy relations: the threaded engine and the
    /// distributed engine agree bit-for-bit at 1, 2, and 4 workers, at ε=0
    /// (decider active) and ε=0.02 (budgeted scans, decider gated off).
    #[test]
    fn random_relations_are_worker_invariant(rel in relation_strategy(4, 28)) {
        for workers in [1, 2, 4] {
            assert_worker_invariant(&rel, 0.0, workers);
            assert_worker_invariant(&rel, 0.02, workers);
        }
    }
}

// ---------------------------------------------------------------------------
// Process crash coverage: killed children must surface as clean `DistError`s
// — never a hang — and the coordinator must reap every child it spawned.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod crash {
    use od_setbased::{discover_statements_dist, DistError, LatticeConfig, WorkerLauncher};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Zombie children of this process (reaped children disappear entirely;
    /// an unreaped dead child shows as state `Z`).
    fn zombie_children() -> usize {
        let me = std::process::id().to_string();
        let mut zombies = 0;
        for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
            if !entry
                .file_name()
                .to_string_lossy()
                .bytes()
                .all(|b| b.is_ascii_digit())
            {
                continue;
            }
            let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
                continue;
            };
            // /proc/<pid>/stat: pid (comm) state ppid ...  comm may hold
            // spaces, so parse from after the last ')'.
            let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
                continue;
            };
            let mut fields = rest.split_whitespace();
            let state = fields.next().unwrap_or("");
            let ppid = fields.next().unwrap_or("");
            if state == "Z" && ppid == me {
                zombies += 1;
            }
        }
        zombies
    }

    #[test]
    fn killed_children_error_cleanly_and_are_reaped() {
        let rel = od_core::fixtures::example_5_taxes();
        // Each "worker" SIGKILLs itself on startup — the hard-crash shape: no
        // clean exit code, pipes torn down by the kernel.
        let launcher = WorkerLauncher::command("sh", ["-c".to_string(), "kill -9 $$".to_string()]);
        let config = LatticeConfig {
            workers: 3,
            ..Default::default()
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(discover_statements_dist(&rel, &config, &launcher));
        });
        // The watchdog is the "no hang" assertion.
        let result = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("coordinator hung on killed workers");
        let err = result.expect_err("killed workers cannot produce a discovery");
        assert!(
            matches!(err, DistError::Worker { .. } | DistError::Protocol { .. }),
            "unexpected error: {err}"
        );
        let rendered = err.to_string();
        assert!(!rendered.is_empty());
        // Every child was force-reaped when the pool dropped.  Other tests in
        // this binary may be mid-spawn, so poll briefly instead of asserting
        // a single instantaneous snapshot.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let z = zombie_children();
            if z == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{z} zombie children remain after DistError"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    #[test]
    fn worker_that_closes_stdout_immediately_errors_cleanly() {
        let rel = od_core::fixtures::example_5_taxes();
        // Exits 0 after reading nothing: the coordinator sees EOF where Ready
        // was expected.
        let launcher = WorkerLauncher::command("true", Vec::<String>::new());
        let config = LatticeConfig {
            workers: 2,
            ..Default::default()
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(discover_statements_dist(&rel, &config, &launcher));
        });
        let result = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("coordinator hung on an exiting worker");
        assert!(result.is_err());
    }
}
