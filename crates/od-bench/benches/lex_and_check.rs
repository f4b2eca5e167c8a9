//! E1 bench — lexicographic comparison and OD checking (split/swap detection)
//! as a function of relation size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_core::check::{check_od, check_od_naive};
use od_core::{lex_cmp, OrderDependency};
use od_workload::generate_date_dim;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("lex_and_check");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
        .sample_size(10);
    for days in [365usize, 5 * 365] {
        let rel = generate_date_dim(1998, days, 2_450_000);
        let s = rel.schema();
        let od = OrderDependency::new(
            vec![s.attr_by_name("d_date").unwrap()],
            vec![
                s.attr_by_name("d_year").unwrap(),
                s.attr_by_name("d_month").unwrap(),
            ],
        );
        let list = od.rhs.clone();
        let tuples: Vec<_> = rel.iter().take(500).collect();
        group.bench_with_input(BenchmarkId::new("lex_cmp_pairs", days), &days, |b, _| {
            b.iter(|| {
                let mut acc = 0usize;
                for s in &tuples {
                    for t in &tuples {
                        if lex_cmp(s, t, &list) == std::cmp::Ordering::Less {
                            acc += 1;
                        }
                    }
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("check_od_sorting", days), &days, |b, _| {
            b.iter(|| check_od(&rel, &od).is_ok())
        });
        if days <= 365 {
            group.bench_with_input(BenchmarkId::new("check_od_naive", days), &days, |b, _| {
                b.iter(|| check_od_naive(&rel, &od).is_ok())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
