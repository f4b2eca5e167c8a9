//! E17 bench — the distributed traversal's moving parts at bench-friendly
//! row counts: the in-process engine as the baseline, the full coordinator +
//! worker-pool discovery at 1/2/4 in-process workers (every frame codec
//! and shard merge runs; process spawn is excluded so the
//! numbers isolate protocol + merge overhead), and the columnar snapshot
//! codec that dominates worker startup.  The million-row end-to-end numbers
//! (real processes, spawn included) come from `reproduce -- e17`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_core::Relation;
use od_setbased::{discover_statements, discover_statements_dist, LatticeConfig, WorkerLauncher};
use od_workload::{scale_relation, SCALE_1M};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist_lattice");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);

    for rows in [20_000usize, 100_000] {
        let cfg = SCALE_1M.with_rows(rows);
        let rel = scale_relation(&cfg);
        let config = LatticeConfig {
            max_context: 4,
            ..Default::default()
        };

        group.bench_with_input(BenchmarkId::new("in_process", rows), &rows, |b, _| {
            b.iter(|| {
                discover_statements(&rel, &config)
                    .minimal_statements()
                    .len()
            })
        });

        for workers in [1usize, 2, 4] {
            let dist_config = LatticeConfig { workers, ..config };
            group.bench_with_input(
                BenchmarkId::new(format!("dist_workers{workers}"), rows),
                &rows,
                |b, _| {
                    b.iter(|| {
                        let (result, _) = discover_statements_dist(
                            &rel,
                            &dist_config,
                            &WorkerLauncher::in_process(),
                        )
                        .expect("in-process distributed discovery");
                        result.minimal_statements().len()
                    })
                },
            );
        }

        group.bench_with_input(BenchmarkId::new("snapshot_encode", rows), &rows, |b, _| {
            b.iter(|| rel.to_bytes().len())
        });

        let snapshot = rel.to_bytes();
        group.bench_with_input(BenchmarkId::new("snapshot_decode", rows), &rows, |b, _| {
            b.iter(|| {
                Relation::from_bytes(&snapshot)
                    .expect("snapshot round-trip")
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
