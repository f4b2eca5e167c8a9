//! Live OD monitoring on a mutating date warehouse: discover once, then keep
//! the verdicts current under tuple churn instead of re-profiling.
//!
//! The pipeline: width-2 set-based discovery profiles `date_dim`, the
//! zero-error ODs are watched by an `od_discovery::Monitor` (delta-maintained
//! partitions + verdict ledgers from `od-setbased::stream`), and the
//! optimizer's registry is kept in sync — a corrupted batch flips ODs to
//! rejected and *retracts* their rewrite licenses, deleting the offending
//! tuples flips them back and reinstalls.
//!
//! Run with `cargo run --release --example streaming_monitor`.

use od_core::Value;
use od_discovery::{discover_ods, DiscoveryConfig, Monitor};
use od_optimizer::{names_to_list, OdRegistry};
use od_setbased::stream::DeltaBatch;
use od_workload::generate_date_dim;
use std::time::Instant;

fn main() {
    // --- Profile a snapshot -------------------------------------------------
    let rel = generate_date_dim(1998, 2_000, 2_450_000);
    let schema = rel.schema().clone();
    let discovery = discover_ods(&rel, DiscoveryConfig::default());
    println!(
        "date_dim: {} rows × {} attributes — {} exact ODs discovered\n",
        rel.len(),
        schema.arity(),
        discovery.ods.len()
    );

    // --- Watch the install set live ----------------------------------------
    let mut monitor = Monitor::watch_install_set(&rel, &discovery, 0.0);
    let mut registry = OdRegistry::new();
    let (installed, _) = monitor.sync_registry(&mut registry, schema.name());
    println!("monitoring {installed} ODs; all installed into the registry");
    let provided = names_to_list(&schema, &["d_date_sk"]);
    let required = names_to_list(&schema, &["d_year"]);
    assert!(registry.order_satisfies(schema.name(), &provided, &required));
    println!("ORDER BY d_year is satisfied by a d_date_sk scan: licensed\n");

    // --- Benign churn: fresh future days stream in --------------------------
    let fresh = generate_date_dim(2030, 400, 9_450_000);
    let mut batch = DeltaBatch::new();
    for i in 0..200 {
        batch = batch.delete(i as u32).insert(fresh.tuple(i));
    }
    let start = Instant::now();
    let report = monitor.apply(&batch).expect("clean churn");
    println!(
        "applied 200 deletes + 200 inserts in {:?} ({} classes touched); {} flips",
        start.elapsed(),
        report.touched_classes,
        report.flips().count()
    );

    // --- Dirty batch: out-of-order years arrive ------------------------------
    let year_idx = schema.attr_by_name("d_year").unwrap().index();
    let mut dirty = DeltaBatch::new();
    for i in 200..208 {
        let mut row = fresh.tuple(i);
        row[year_idx] = Value::Int(1900 - i as i64); // sk increases, year crashes
        dirty = dirty.insert(row);
    }
    let start = Instant::now();
    let report = monitor.apply(&dirty).expect("dirty batch");
    println!(
        "\ndirty batch applied in {:?}; live error scores of flipped ODs:",
        start.elapsed()
    );
    for status in report.flips() {
        println!(
            "  REJECT  g3 = {:.4}  remove {:>3}  {}",
            status.g3,
            status.removal_count,
            status.od.display(&schema)
        );
    }
    let (_, retracted) = monitor.sync_registry(&mut registry, schema.name());
    println!(
        "{retracted} rewrite licenses retracted; d_date_sk → d_year now licensed: {}",
        registry.order_satisfies(schema.name(), &provided, &required)
    );

    // --- Repair: delete the offenders, verdicts flip back --------------------
    let mut repair = DeltaBatch::new();
    for &id in &report.inserted {
        repair = repair.delete(id);
    }
    let report = monitor.apply(&repair).expect("repair batch");
    let healed = report.flips().count();
    let (reinstalled, _) = monitor.sync_registry(&mut registry, schema.name());
    println!(
        "\nafter deleting the {} offenders: {healed} ODs flipped back, \
         {reinstalled} licenses reinstalled",
        repair.deletes.len()
    );
    assert!(registry.order_satisfies(schema.name(), &provided, &required));

    // --- Compact: reclaim the dead ids the churn left behind -----------------
    // Tuple ids are never reused, so deleted rows keep their dictionary ids
    // until a compaction re-densifies the columns over the alive rows
    // (verdicts survive untouched).
    let before = monitor.stream().total_rows();
    let compacted = monitor.compact();
    println!(
        "\ncompacted: {} dead ids reclaimed of {before} ({} KiB freed, rebuilt in {:?})",
        compacted.dead_ids_reclaimed,
        compacted.bytes_freed / 1024,
        compacted.rebuild
    );
    assert!(registry.order_satisfies(schema.name(), &provided, &required));

    let stats = monitor.stream().stats;
    println!(
        "\nmonitor stats: {} deltas, {} rows in, {} rows out, {} classes touched, \
         {} ledger patches, {} rows patched, {} splice events, {} LIS passes, \
         {} compactions",
        stats.deltas_applied,
        stats.rows_inserted,
        stats.rows_deleted,
        stats.classes_touched,
        stats.classes_recomputed,
        stats.rows_patched,
        stats.splice_events,
        stats.lis_invocations,
        stats.compactions
    );
}
