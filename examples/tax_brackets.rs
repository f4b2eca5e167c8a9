//! Example 5 of the paper: tax brackets and payable amounts are monotone in
//! income, the resulting ODs compose by Union, and OD discovery plus monotone
//! derived-column analysis find them automatically.
//!
//! Run with `cargo run --example tax_brackets`.

use od_core::check::od_holds;
use od_core::OrderDependency;
use od_discovery::{discover_ods, monotonicity, DerivedColumn, DiscoveryConfig, Monotonicity};
use od_engine::Expr;
use od_infer::Decider;
use od_workload::tax;

fn main() {
    let rel = tax::generate_taxes(2_000, 11);
    let schema = rel.schema().clone();
    let income = schema.attr_by_name("income").unwrap();
    let bracket = schema.attr_by_name("bracket").unwrap();
    let payable = schema.attr_by_name("payable").unwrap();

    // The declared ODs and the composite consequence.
    let m = tax::tax_odset(&schema);
    let goal = OrderDependency::new(vec![income], vec![bracket, payable]);
    println!(
        "income ↦ [bracket, payable]: implied = {}, holds on {} rows = {}",
        Decider::new(&m).implies(&goal),
        rel.len(),
        od_holds(&rel, &goal)
    );

    // Discover ODs from the data alone.
    let found = discover_ods(&rel, DiscoveryConfig::default());
    println!(
        "\ndiscovered {} minimal ODs ({} candidates):",
        found.ods.len(),
        found.candidates
    );
    for od in &found.ods {
        println!("  {}", od.display(&schema));
    }

    // Monotone derived columns (the generated-column technique of Section 2.2).
    let g = DerivedColumn {
        name: "effective_rate_scaled".into(),
        id: od_core::AttrId(schema.arity() as u32),
        expr: Expr::Add(
            Box::new(Expr::Div(
                Box::new(Expr::col(income)),
                Box::new(Expr::lit(100i64)),
            )),
            Box::new(Expr::Sub(
                Box::new(Expr::col(income)),
                Box::new(Expr::lit(3i64)),
            )),
        ),
    };
    assert_eq!(monotonicity(&g.expr, income), Monotonicity::Increasing);
    println!(
        "\ngenerated column '{}' is monotone in income → the OD [income] ↦ [{}] is declared automatically",
        g.name, g.name
    );
}
