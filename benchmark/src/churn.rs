//! `monitor-churn`: keep discovered ODs current on a sliding table.
//!
//! A `Monitor` watches the zero-error install set of a 100k-day date
//! dimension; each batch deletes the 100 oldest rows and inserts 100 fresh
//! days from a later, disjoint calendar, and a compaction runs every 250
//! batches.  Writes go through the stream layer's own codes and
//! `Value`-keyed live partitions, the table representation apart from the
//! columnar core.

use crate::trace::Spans;
use crate::{ms_since, report_trace, run_for, stats, timed_setups, Outcome, RunArgs, SETUPS_AFTER};
use od_core::{Relation, Tuple};
use od_discovery::{discover_ods, DiscoveryConfig, Monitor};
use od_obs::Registry;
use od_setbased::{translate_od, validate, DeltaBatch, PartitionCache, StreamStats};
use od_workload::generate_date_dim;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 100_000;
const BATCH: usize = 100;
const COMPACT_EVERY: usize = 250;
const SMOKE_ROWS: usize = 3_000;
const SMOKE_BATCH: usize = 20;
const SMOKE_COMPACT_EVERY: usize = 10;
/// Days per generated chunk of the fresh calendar (about a century).
const FRESH_CHUNK_DAYS: usize = 36_524;
/// Surrogate keys of fresh days start here, above every initial key.
const FRESH_SK_BASE: i64 = 100_000_000;

/// Fresh days in calendar order, generated a century at a time.
struct FreshDays {
    first_year: i32,
    chunk: usize,
    rows: Vec<Tuple>,
    next: usize,
}

impl FreshDays {
    fn take(&mut self, n: usize) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.next == self.rows.len() {
                let chunk = generate_date_dim(
                    self.first_year + 100 * self.chunk as i32,
                    FRESH_CHUNK_DAYS,
                    FRESH_SK_BASE + (self.chunk * FRESH_CHUNK_DAYS) as i64,
                );
                self.rows = chunk.tuples().to_vec();
                self.next = 0;
                self.chunk += 1;
            }
            out.push(self.rows[self.next].clone());
            self.next += 1;
        }
        out
    }
}

/// The live statuses must equal a from-scratch validation of the live rows.
fn check_final_verdicts(monitor: &Monitor, out: &mut Outcome) {
    let live: Relation = monitor.stream().to_relation();
    let mut cache = PartitionCache::new(&live);
    let mismatched: Vec<String> = monitor
        .statuses()
        .iter()
        .filter(|status| {
            let fresh = translate_od(&status.od)
                .iter()
                .map(|s| validate::statement_verdict(&mut cache, s, 1, usize::MAX).removal_count)
                .max()
                .unwrap_or(0);
            fresh != status.removal_count
        })
        .map(|status| status.od.to_string())
        .collect();
    if mismatched.is_empty() {
        out.note(format!(
            "check: all {} live verdicts equal a full revalidation of the {} live rows",
            monitor.statuses().len(),
            live.len()
        ));
    } else {
        out.fail(
            out.attempted,
            format!("live verdicts differ from a full revalidation: {mismatched:?}"),
        );
    }
}

/// The stream layer's per-delta span times, over `deltas` traced deltas.
pub fn report_stream_spans(out: &mut Outcome, spans: &Spans, deltas: usize) {
    let n = deltas.max(1) as f64;
    let splice = spans.ms_named("splice");
    let patch = spans.ms_named("patch");
    let batch = spans.ms_named("batch");
    out.report("od-setbased.stream.splice_us", 1e3 * splice / n);
    out.report("od-setbased.stream.patch_us", 1e3 * patch / n);
    out.report(
        "od-setbased.stream.batch_self_us",
        1e3 * (batch - splice - patch) / n,
    );
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let (rows, batch_rows, compact_every) = if args.smoke {
        (SMOKE_ROWS, SMOKE_BATCH, SMOKE_COMPACT_EVERY)
    } else {
        (ROWS, BATCH, COMPACT_EVERY)
    };
    // Whole 400-year Gregorian cycles apart, every seed's calendar has the
    // same leap days and the same cost.
    let start_year = 1601 + 400 * (args.derive(3) % 16) as i32;
    let fresh_year = start_year + (rows / 365) as i32 + 2;
    out.note(format!(
        "input: date_dim, {rows} days from {start_year}-01-01; batches delete the {batch_rows} oldest \
         rows and insert {batch_rows} days from {fresh_year} on; compaction every {compact_every} batches"
    ));

    // Set-up: generate, discover the install set, watch it.
    let setup = || {
        let rel = generate_date_dim(start_year, rows, 0);
        let discovery = discover_ods(&rel, DiscoveryConfig::default());
        Monitor::watch_install_set(&rel, &discovery, 0.0)
    };
    let (mut monitor, mut setup_s) = timed_setups(1, setup);
    out.note(format!("watching {} ODs", monitor.statuses().len()));

    let mut fresh = FreshDays {
        first_year: fresh_year,
        chunk: 0,
        rows: Vec::new(),
        next: 0,
    };
    let registry = Arc::new(Registry::new());
    let (mut delta_ms, mut untraced_ms, mut compact_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Ids of the oldest alive rows start here; compaction renumbers the
    // alive rows densely in id order, so it resets to 0.
    let mut oldest = 0u32;
    let mut errors = 0u64;
    let mut flips = 0usize;
    let mut first_cycle: Option<(StreamStats, usize, usize)> = None;
    let mut first_compaction_freed = 0usize;
    let wall = Instant::now();
    let batches = run_for(args.duration(), compact_every, |i| {
        let traced = args.trace && i % 2 == 1;
        let mut batch = DeltaBatch::new();
        batch.deletes = (oldest..oldest + batch_rows as u32).collect();
        batch.inserts = fresh.take(batch_rows);
        oldest += batch_rows as u32;
        let next_id = monitor.stream().total_rows() as u32;
        let t = Instant::now();
        let result = if traced {
            od_obs::scoped(Arc::clone(&registry), || {
                let _op = od_obs::span("delta");
                let _s = od_obs::span("od-discovery");
                monitor.apply(&batch)
            })
        } else {
            monitor.apply(&batch)
        };
        let ms = ms_since(t);
        if traced || !args.trace {
            delta_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        match result {
            Ok(report) => {
                flips += report.flips().count();
                let expected: Vec<u32> = (next_id..next_id + batch_rows as u32).collect();
                if report.inserted != expected || report.deleted != batch_rows {
                    errors += 1;
                }
            }
            Err(_) => errors += 1,
        }
        if (i + 1) % compact_every == 0 {
            if first_cycle.is_none() {
                first_cycle = Some((
                    monitor.stream().stats,
                    monitor.stream().approx_heap_bytes(),
                    monitor.rows(),
                ));
            }
            let t = Instant::now();
            let freed = monitor.compact();
            compact_ms.push(ms_since(t));
            if first_compaction_freed == 0 {
                first_compaction_freed = freed.bytes_freed;
            }
            oldest = 0;
        }
    });
    let wall_s = wall.elapsed().as_secs_f64();
    out.attempted = batches as u64;
    if errors > 0 {
        out.fail(
            errors,
            format!("{errors} batches errored or got unexpected tuple ids"),
        );
    } else {
        out.note(format!(
            "check: all {batches} batches applied with the predicted tuple ids ({flips} verdict flips)"
        ));
    }
    check_final_verdicts(&monitor, out);

    let (cycle_stats, cycle_heap, cycle_rows) = first_cycle.expect("one compaction cycle ran");
    let per_batch = |v: usize| v as f64 / compact_every as f64;
    if args.trace {
        let spans = Spans::of(&registry.snapshot());
        let n = delta_ms.len().max(1) as f64;
        report_stream_spans(out, &spans, delta_ms.len());
        out.report(
            "od-setbased.stream.rows_patched",
            per_batch(cycle_stats.rows_patched),
        );
        out.report(
            "od-setbased.stream.classes_touched",
            per_batch(cycle_stats.classes_touched),
        );
        out.report(
            "od-setbased.stream.lis_invocations",
            per_batch(cycle_stats.lis_invocations),
        );
        out.report(
            "od-setbased.stream.compact_bytes_freed",
            first_compaction_freed as f64,
        );
        out.report("od-setbased.stream.heap_bytes", cycle_heap as f64);
        out.report("od-setbased.stream.compact_ms", stats::median(&compact_ms));
        out.report(
            "od-discovery.monitor_self_us",
            1e3 * (spans.ms_at("delta/od-discovery") - spans.ms_at("delta/od-discovery/stream"))
                / n,
        );
        report_trace(out, &spans, "delta", &untraced_ms, &delta_ms);
    } else {
        let peak = od_obs::peak_rss_kib();
        drop(monitor);
        setup_s.extend(timed_setups(SETUPS_AFTER, setup).1);
        out.report_common(&setup_s, peak, &delta_ms);
        out.extra("compact_ms_p50", stats::median(&compact_ms), "ms");
        out.extra(
            "heap_bytes_per_row",
            cycle_heap as f64 / cycle_rows.max(1) as f64,
            "B",
        );
        out.extra("batches_per_s", batches as f64 / wall_s, "1/s");
    }
}
