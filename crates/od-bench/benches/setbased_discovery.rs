//! E10 bench — naive (sort-per-candidate) vs set-based (partition-backed)
//! OD discovery on the tax and date-warehouse workloads, width-2 candidates,
//! plus the approximate (`g3`-thresholded) variant on dirtied data.
//!
//! The set-based engine validates canonical statements once each and shares
//! them across candidates, so its advantage grows with both row count and the
//! number of enumerated candidates.  The approximate entries measure the cost
//! of evidence collection: instead of bailing at the first violation, rejected
//! statements are scanned until the error budget is exhausted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_core::{Relation, Value};
use od_discovery::{discover_ods, DiscoveryConfig, DiscoveryEngine};
use od_workload::{generate_date_dim, tax};
use std::time::Duration;

fn config(engine: DiscoveryEngine) -> DiscoveryConfig {
    DiscoveryConfig {
        engine,
        ..Default::default()
    }
}

/// Corrupt roughly one row in a hundred (deterministically) so exact ODs break
/// and approximate discovery has real work to do.
fn corrupt(rel: Relation, column: usize) -> Relation {
    let rows = rel.iter().enumerate().map(|(i, mut row)| {
        if i % 101 == 7 {
            row[column] = Value::Int(-1 - (i as i64 % 13));
        }
        row
    });
    Relation::from_rows(rel.schema().clone(), rows).unwrap()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("setbased_discovery");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);

    for rows in [2_000usize, 10_000] {
        let taxes = tax::generate_taxes(rows, 7);
        group.bench_with_input(BenchmarkId::new("taxes_naive", rows), &rows, |b, _| {
            b.iter(|| {
                discover_ods(&taxes, config(DiscoveryEngine::Naive))
                    .ods
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("taxes_setbased", rows), &rows, |b, _| {
            b.iter(|| {
                discover_ods(&taxes, config(DiscoveryEngine::SetBased))
                    .ods
                    .len()
            })
        });
    }

    // Approximate discovery on dirtied taxes: ε = 2% against ~1% corrupted
    // rows, compared with the exact run on the same dirty data (which rejects
    // the corrupted ODs early) — the price of evidence over early exit.
    let dirty = corrupt(tax::generate_taxes(10_000, 7), 1);
    group.bench_with_input(
        BenchmarkId::new("taxes_dirty_exact", 10_000),
        &10_000,
        |b, _| {
            b.iter(|| {
                discover_ods(&dirty, config(DiscoveryEngine::SetBased))
                    .ods
                    .len()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("taxes_dirty_eps2pct", 10_000),
        &10_000,
        |b, _| {
            b.iter(|| {
                discover_ods(
                    &dirty,
                    DiscoveryConfig {
                        epsilon: 0.02,
                        ..config(DiscoveryEngine::SetBased)
                    },
                )
                .ods
                .len()
            })
        },
    );

    // The date warehouse has 9 attributes, so width-2 enumeration produces
    // thousands of candidates — the regime the statement memoization targets.
    // The naive engine is benched on fewer days to keep its runtime sane.
    let dates_small = generate_date_dim(1998, 400, 2_450_000);
    group.bench_with_input(BenchmarkId::new("date_dim_naive", 400), &400, |b, _| {
        b.iter(|| {
            discover_ods(&dates_small, config(DiscoveryEngine::Naive))
                .ods
                .len()
        })
    });
    group.bench_with_input(BenchmarkId::new("date_dim_setbased", 400), &400, |b, _| {
        b.iter(|| {
            discover_ods(&dates_small, config(DiscoveryEngine::SetBased))
                .ods
                .len()
        })
    });
    let dates_large = generate_date_dim(1998, 10_000, 2_450_000);
    group.bench_with_input(
        BenchmarkId::new("date_dim_setbased", 10_000),
        &10_000,
        |b, _| {
            b.iter(|| {
                discover_ods(&dates_large, config(DiscoveryEngine::SetBased))
                    .ods
                    .len()
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
