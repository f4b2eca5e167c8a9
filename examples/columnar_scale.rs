//! The columnar core in one sitting: build the scale table (zipfian +
//! sorted-with-noise, seeded), inspect the dictionary encoding the relation
//! carries from construction, refine partitions on the shared code columns,
//! and run width-2 discovery — the path the `benchmark` package's
//! `profile-scale` workload times at 200k rows, here at an example-friendly
//! size.
//!
//! Run with `cargo run --release --example columnar_scale`.

use od_setbased::{discover_statements, LatticeConfig, RefineScratch, StrippedPartition};
use od_workload::{scale_relation, SCALE_1M};
use std::time::Instant;

fn main() {
    let cfg = SCALE_1M.with_rows(100_000);
    let start = Instant::now();
    let rel = scale_relation(&cfg);
    let built = start.elapsed();
    let schema = rel.schema().clone();
    println!(
        "scale table: {} rows × {} attributes (seed {:#x}) built in {built:?}",
        rel.len(),
        schema.arity(),
        cfg.seed
    );

    // The struct-of-arrays encoding is a by-product of construction: one
    // sorted dictionary + one dense u32 code column per attribute.
    let enc = rel.encoding();
    println!("\nper-attribute dictionaries (codes preserve value order):");
    for (i, attr) in schema.attr_ids().enumerate() {
        println!(
            "  {:<12} {:>7} distinct values",
            schema.attr_name(attr),
            enc.dict(i).len()
        );
    }
    println!(
        "encoding footprint: ~{} KiB (dictionaries + code columns)",
        rel.approx_heap_bytes() / 1024
    );

    // Partition refinement counts rows per code on the code columns through
    // a reused scratch buffer — no sort and no Value comparison.
    let mut scratch = RefineScratch::default();
    let start = Instant::now();
    let by_day = StrippedPartition::by_codes_with(enc.codes(1), &mut scratch);
    let refined = by_day.refine_by_with(enc.codes(3), &mut scratch);
    println!(
        "\nΠ_{{ts_day}} has {} classes; refined by zipf_band: {} classes ({:?})",
        by_day.num_classes(),
        refined.num_classes(),
        start.elapsed()
    );

    // Width-2 discovery over the same shared encoding.
    let start = Instant::now();
    let profile = discover_statements(
        &rel,
        &LatticeConfig {
            max_context: 2,
            ..Default::default()
        },
    );
    println!(
        "\nwidth-2 discovery in {:?}: {} minimal statements, e.g.:",
        start.elapsed(),
        profile.minimal_statements().len()
    );
    for stmt in profile.minimal_statements().iter().take(6) {
        println!("  {stmt}");
    }
}
