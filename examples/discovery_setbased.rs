//! Set-based OD discovery on the date warehouse: every list candidate is
//! answered from one FASTOD-style lattice profile of `od-setbased`.
//!
//! Each candidate decomposes into canonical constancy / compatibility
//! statements; the profile validates each distinct statement once with
//! stripped partitions, and candidates share the verdicts.  Every discovered
//! OD is then re-checked with `od-core`'s sort-based split/swap checker.
//!
//! The second half corrupts a slice of the data and reruns discovery with a
//! `g3` error threshold (approximate ODs), then installs the exactly-holding
//! results into the optimizer's registry so sort elimination benefits from
//! profiling without any manual constraint declarations.
//!
//! Run with `cargo run --release --example discovery_setbased`.

use od_core::check::od_holds;
use od_core::{Relation, Value};
use od_discovery::{discover_ods, DiscoveryConfig};
use od_optimizer::{names_to_list, OdRegistry};
use od_setbased::{discover_statements, LatticeConfig};
use od_workload::generate_date_dim;
use std::time::Instant;

fn main() {
    let rel = generate_date_dim(1998, 1_000, 2_450_000);
    let schema = rel.schema().clone();
    println!(
        "date_dim: {} rows × {} attributes\n",
        rel.len(),
        schema.arity()
    );

    // Width-2 discovery.
    let config = DiscoveryConfig::default();
    let start = Instant::now();
    let set_based = discover_ods(&rel, config);
    let set_based_time = start.elapsed();
    let scans = set_based
        .lattice_stats
        .expect("discovery runs a profile")
        .validated;
    println!(
        "discovery: {} candidates answered from {} statement scans, {:?}",
        set_based.candidates, scans, set_based_time
    );
    for od in &set_based.ods {
        assert!(od_holds(&rel, od), "{od} must hold on the data");
    }

    println!(
        "\n{} minimal ODs discovered, each re-checked by sorting, e.g.:",
        set_based.ods.len()
    );
    for od in set_based.ods.iter().take(8) {
        println!("  {}", od.display(&schema));
    }

    // A lattice profile on its own: every minimal set-based statement up to
    // context size 4 (the default since bitset candidate sets made width 4
    // interactive), with the stats' own `Display`/`summary()` rendering the
    // per-level breakdown.
    let profile = discover_statements(&rel, &LatticeConfig::default());
    println!(
        "\nbitset lattice profile (width {}):",
        profile.max_context()
    );
    print!("{}", profile.summary());
    println!(
        "{} minimal statements, e.g.:",
        profile.minimal_statements().len()
    );
    for stmt in profile.minimal_statements().iter().take(8) {
        println!("  {}", stmt.display(&schema));
    }

    // --- Approximate discovery on dirty data -------------------------------
    // Corrupt ~1% of the d_year column: exact discovery drops every OD that
    // leans on it, a 2% g3 threshold keeps them, each tagged with its error.
    let year_idx = schema.attr_by_name("d_year").unwrap().index();
    let dirty_rows = rel.iter().enumerate().map(|(i, mut row)| {
        if i % 101 == 7 {
            row[year_idx] = Value::Int(-1);
        }
        row
    });
    let dirty = Relation::from_rows(schema.clone(), dirty_rows).unwrap();
    let exact_on_dirty = discover_ods(&dirty, config);
    let approx = discover_ods(
        &dirty,
        DiscoveryConfig {
            epsilon: 0.02,
            ..config
        },
    );
    println!(
        "\nafter corrupting ~1% of d_year: {} exact ODs, {} ODs at ε = 2%",
        exact_on_dirty.ods.len(),
        approx.ods.len()
    );
    for (od, err) in approx
        .ods
        .iter()
        .zip(&approx.errors)
        .filter(|(_, e)| **e > 0.0)
        .take(5)
    {
        println!("  g3 = {:.4}  {}", err, od.display(&schema));
    }

    // --- Feeding the optimizer --------------------------------------------
    // Discovered exact ODs become registry constraints: the date hierarchy
    // licenses ORDER BY elimination with zero manual declarations.
    let mut registry = OdRegistry::new();
    let installed = set_based.install_into(&mut registry, schema.name());
    let provided = names_to_list(&schema, &["d_date_sk"]);
    let required = names_to_list(&schema, &["d_year"]);
    println!(
        "\ninstalled {installed} discovered ODs into the registry; \
         stream ordered by d_date_sk satisfies ORDER BY d_year: {}",
        registry.order_satisfies(schema.name(), &provided, &required)
    );
    assert!(registry.order_satisfies(schema.name(), &provided, &required));
}
