//! E11 bench — incremental OD monitoring vs full re-validation on a changing
//! `date_dim` table.
//!
//! Base table: 10k rows.  Each delta is 1% of the table (100 deletes + 100
//! inserts).  The monitored set is the zero-error install set of a width-2
//! discovery run.  Three entries:
//!
//! * `monitor_delta_1pct` — [`Monitor::apply`]: delta-maintained partitions
//!   patch only the touched classes and re-read the verdict ledgers;
//! * `full_revalidation_10k` — the pre-streaming alternative: snapshot the
//!   live rows and re-validate every monitored statement with a fresh
//!   partition scan (what every delta used to cost);
//! * `full_rediscovery_10k` — the even blunter alternative: re-run width-2
//!   discovery on the snapshot.
//!
//! The churn batches, statement set, and re-validation baseline are shared
//! with the ≥4× acceptance-criterion guard (`tests/stream_speed.rs`, run in
//! CI under the release profile) via [`od_bench::streaming`], so the bench
//! measures exactly what the guard asserts.

use criterion::{criterion_group, criterion_main, Criterion};
use od_bench::streaming::{churn_batch, full_revalidation, monitored_statements};
use od_discovery::{discover_ods, DiscoveryConfig, Monitor};
use od_workload::generate_date_dim;
use std::time::Duration;

const BASE_ROWS: usize = 10_000;
const DELTA_ROWS: usize = 100; // 1% of the base table

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_monitor");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);

    let rel = generate_date_dim(1998, BASE_ROWS, 2_450_000);
    let fresh = generate_date_dim(2030, BASE_ROWS, 9_450_000).tuples();
    let discovery = discover_ods(&rel, DiscoveryConfig::default());
    let stmts = monitored_statements(&discovery);

    let mut monitor = Monitor::watch_install_set(&rel, &discovery, 0.0);
    let mut round = 0usize;
    group.bench_function("monitor_delta_1pct", |b| {
        b.iter(|| {
            let batch = churn_batch(round, DELTA_ROWS, &fresh);
            round += 1;
            monitor.apply(&batch).expect("valid churn batch").statuses
        })
    });

    // Baselines work on the live snapshot the monitor has evolved to, so all
    // three entries validate the same data.
    let snapshot = monitor.stream().to_relation();
    group.bench_function("full_revalidation_10k", |b| {
        b.iter(|| full_revalidation(&snapshot, &stmts))
    });
    group.bench_function("full_rediscovery_10k", |b| {
        b.iter(|| {
            discover_ods(&snapshot, DiscoveryConfig::default())
                .ods
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
