//! E13 bench — width-4 lattice traversal on bitset attribute sets, against
//! the width-3 node-store profile as the baseline.
//!
//! What makes width 4 affordable is representation plus batching: contexts,
//! candidate sets and partition keys are `u64` masks (propagation is a `&`,
//! subsumption a compare-and-mask, cache keys hash one word), each level's
//! partitions are built from the cheapest cached base, and one implication
//! decider grows with the confirmed statements and reuses its
//! counterexamples.  The bench
//! measures the residual cost — partition products for the surviving level-4
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
    let mut group = c.benchmark_group("width4_lattice");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);

    let taxes = tax::generate_taxes(10_000, 7);
    let dates = generate_date_dim(1998, 10_000, 2_450_000);
    for (name, rel) in [("taxes", &taxes), ("date_dim", &dates)] {
        for width in [3usize, 4] {
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
