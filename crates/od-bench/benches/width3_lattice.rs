//! E12 bench — width-3 node-based lattice traversal on the taxes and
//! date-dimension workloads, against the width-2 profile as the baseline.
//!
//! What makes width 3 affordable is that almost nothing is validated there:
//! candidate-set propagation removes every slot whose statement was confirmed
//! below, and key-based node deletion prunes whole cones of the lattice (any
//! context containing `d_date_sk` is never even generated).  The bench
//! measures the residual cost — partition products for the surviving level-3
//! nodes plus their batched scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_setbased::{discover_statements, LatticeConfig};
use od_workload::{generate_date_dim, tax};
use std::time::Duration;

fn config(max_context: usize) -> LatticeConfig {
    LatticeConfig {
        max_context,
        ..Default::default()
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("width3_lattice");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);

    let taxes = tax::generate_taxes(10_000, 7);
    let dates = generate_date_dim(1998, 10_000, 2_450_000);
    for (name, rel) in [("taxes", &taxes), ("date_dim", &dates)] {
        for width in [2usize, 3] {
            group.bench_with_input(BenchmarkId::new(name, width), &width, |b, &w| {
                b.iter(|| {
                    discover_statements(rel, &config(w))
                        .minimal_statements()
                        .len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
