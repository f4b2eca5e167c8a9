//! Differential tests between list discovery and the sort-per-candidate
//! oracle in `naive/`: identical minimal OD sets on random relations, on the
//! fixtures and on the date-warehouse workload.  The oracle shares no pruning
//! code with `discover_ods`; implication pruning is also checked against its
//! own oracle, a greedy decider minimization of the unpruned result.

mod naive;

use naive::discover_ods_naive;
use od_core::check::od_holds;
use od_core::{fixtures, OrderDependency, Relation, Schema, Value};
use od_discovery::{discover_ods, DiscoveryConfig};
use od_infer::{Decider, OdSet};
use od_workload::generate_date_dim;
use proptest::prelude::*;

fn relation_strategy(cols: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0i64..3, cols), 0..max_rows).prop_map(move |rows| {
        let mut schema = Schema::new("prop");
        for i in 0..cols {
            schema.add_attr(format!("c{i}"));
        }
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect()),
        )
        .unwrap()
    })
}

/// Keep each OD, in order, unless a fresh decider over the ODs kept so far
/// implies it.
fn greedy_minimization(ods: &[OrderDependency]) -> Vec<OrderDependency> {
    let mut kept: Vec<OrderDependency> = Vec::new();
    for od in ods {
        if !Decider::new(&OdSet::from_ods(kept.iter().cloned())).implies(od) {
            kept.push(od.clone());
        }
    }
    kept
}

/// Pruned discovery and the greedy minimization of unpruned discovery, as
/// `(unpruned count, pruned ODs, minimized ODs)`.
fn pruned_and_minimized(
    rel: &Relation,
    config: DiscoveryConfig,
) -> (usize, Vec<OrderDependency>, Vec<OrderDependency>) {
    let all = discover_ods(
        rel,
        DiscoveryConfig {
            prune_implied: false,
            ..config
        },
    )
    .ods;
    let pruned = discover_ods(
        rel,
        DiscoveryConfig {
            prune_implied: true,
            ..config
        },
    )
    .ods;
    (all.len(), pruned, greedy_minimization(&all))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Implication pruning keeps exactly the ODs a greedy decider
    /// minimization keeps, and exactly the ODs the oracle keeps.
    #[test]
    fn pruning_equals_greedy_decider_minimization(rel in relation_strategy(4, 10)) {
        for (max_lhs, max_rhs) in [(2, 2), (3, 2)] {
            let config = DiscoveryConfig { max_lhs, max_rhs, ..Default::default() };
            let (_, pruned, minimized) = pruned_and_minimized(&rel, config);
            prop_assert_eq!(&pruned, &minimized, "at widths {}/{}", max_lhs, max_rhs);
            let naive = discover_ods_naive(&rel, config);
            prop_assert_eq!(&pruned, &naive.ods, "at widths {}/{}", max_lhs, max_rhs);
        }
    }

    /// Discovery and the oracle return the same minimal OD set on random
    /// small relations, with and without implication pruning.
    #[test]
    fn engines_return_the_same_minimal_od_set(rel in relation_strategy(4, 10)) {
        for prune in [true, false] {
            let config = DiscoveryConfig { prune_implied: prune, ..Default::default() };
            let set_based = discover_ods(&rel, config);
            let naive = discover_ods_naive(&rel, config);
            prop_assert_eq!(&set_based.ods, &naive.ods, "prune={}", prune);
            prop_assert_eq!(set_based.candidates, naive.candidates);
            // Every reported OD genuinely holds.
            for od in &set_based.ods {
                prop_assert!(od_holds(&rel, od));
            }
        }
    }

    /// Width-1 discovery (the old default) agrees too.
    #[test]
    fn engines_agree_at_width_one(rel in relation_strategy(5, 8)) {
        let config = DiscoveryConfig { max_lhs: 1, max_rhs: 1, ..Default::default() };
        let set_based = discover_ods(&rel, config);
        let naive = discover_ods_naive(&rel, config);
        prop_assert_eq!(set_based.ods, naive.ods);
    }

    /// Width-3 candidates exercise the node-based lattice's third level
    /// (compatibility contexts of size 3): the traversal must still pin the
    /// seed's naive oracle exactly, at ε = 0 and ε > 0.
    #[test]
    fn node_lattice_agrees_with_naive_at_width_three(rel in relation_strategy(4, 10)) {
        for epsilon in [0.0, 0.2] {
            let config = DiscoveryConfig {
                max_lhs: 3,
                max_rhs: 2,
                epsilon,
                ..Default::default()
            };
            let set_based = discover_ods(&rel, config);
            let naive = discover_ods_naive(&rel, config);
            prop_assert_eq!(&set_based.ods, &naive.ods, "ε = {}", epsilon);
        }
    }

    /// Width-4 candidates exercise the bitset lattice's fourth level: the
    /// traversal must still pin the seed's naive oracle exactly, at ε = 0 and
    /// ε > 0.
    #[test]
    fn node_lattice_agrees_with_naive_at_width_four(rel in relation_strategy(4, 9)) {
        for epsilon in [0.0, 0.2] {
            let config = DiscoveryConfig {
                max_lhs: 4,
                max_rhs: 1,
                epsilon,
                ..Default::default()
            };
            let set_based = discover_ods(&rel, config);
            let naive = discover_ods_naive(&rel, config);
            prop_assert_eq!(&set_based.ods, &naive.ods, "ε = {}", epsilon);
            // Decider rounds stay per level (levels 0..=4).
            let stats = set_based.lattice_stats.expect("discovery runs a profile");
            prop_assert!(stats.decider_rounds <= 5, "{:?}", stats);
        }
    }

    /// `max_context` is not read: discovery profiles to the depth the
    /// candidate widths need, whatever the field says.
    #[test]
    fn max_context_does_not_change_the_result(rel in relation_strategy(4, 9)) {
        let shallow = DiscoveryConfig { max_lhs: 3, max_rhs: 2, max_context: 1, ..Default::default() };
        let deep = DiscoveryConfig { max_context: 4, ..shallow };
        let clipped = discover_ods(&rel, shallow);
        let full = discover_ods(&rel, deep);
        prop_assert_eq!(&clipped.ods, &full.ods);
        prop_assert_eq!(&clipped.errors, &full.errors);
        prop_assert_eq!(clipped.lattice_stats, full.lattice_stats);
        let naive = discover_ods_naive(&rel, deep);
        prop_assert_eq!(&full.ods, &naive.ods);
        prop_assert_eq!(&full.errors, &naive.errors);
    }

    /// `epsilon: 0.0` is bit-identical to exact discovery, and for any ε
    /// discovery and the oracle agree on the approximate OD set and its error
    /// scores (the oracle measures each statement with the sort-based
    /// evidence checker, discovery with per-class partition arithmetic).
    #[test]
    fn engines_agree_under_error_thresholds(rel in relation_strategy(4, 10)) {
        let exact = discover_ods(&rel, DiscoveryConfig::default());
        let explicit_zero = discover_ods(
            &rel, DiscoveryConfig { epsilon: 0.0, ..Default::default() });
        prop_assert_eq!(&exact.ods, &explicit_zero.ods);
        prop_assert_eq!(&exact.errors, &explicit_zero.errors);
        prop_assert!(exact.errors.iter().all(|&e| e == 0.0));

        for epsilon in [0.1, 0.3, 1.0] {
            let config = DiscoveryConfig { epsilon, ..Default::default() };
            let set_based = discover_ods(&rel, config);
            let naive = discover_ods_naive(&rel, config);
            prop_assert_eq!(&set_based.ods, &naive.ods, "ε = {}", epsilon);
            // The oracle scores every statement exactly; the profile may
            // report an inherited upper bound — never more than ε, and never
            // below the oracle's exact score.
            prop_assert_eq!(set_based.errors.len(), naive.errors.len());
            for (fast, oracle) in set_based.errors.iter().zip(naive.errors.iter()) {
                prop_assert!((0.0..=epsilon).contains(fast), "score {} at ε = {}", fast, epsilon);
                prop_assert!(fast >= oracle, "set-based {} under oracle {}", fast, oracle);
            }
            // Larger thresholds only grow the result (the exact ODs survive).
            for od in &exact.ods {
                prop_assert!(set_based.ods.contains(od), "{} lost at ε = {}", od, epsilon);
            }
        }
    }
}

/// On a three-year `date_dim`, 824 candidates hold and implication pruning
/// keeps the 32 that a greedy decider minimization keeps.
#[test]
fn warehouse_pruning_equals_greedy_decider_minimization() {
    let rel = generate_date_dim(2017, 1095, 0);
    let (holding, pruned, minimized) = pruned_and_minimized(&rel, DiscoveryConfig::default());
    assert_eq!(holding, 824);
    assert_eq!(pruned.len(), 32);
    assert_eq!(pruned, minimized);
}

/// On the date-warehouse fixture discovery finds the same minimal ODs as the
/// oracle while scanning fewer statements than the oracle checks candidates.
#[test]
fn warehouse_same_ods_with_strictly_fewer_data_validations() {
    let rel = generate_date_dim(1998, 200, 2_450_000);
    let config = DiscoveryConfig::default();
    let set_based = discover_ods(&rel, config);
    let naive = discover_ods_naive(&rel, config);

    assert_eq!(
        set_based.ods, naive.ods,
        "discovery and the oracle must find the same minimal ODs"
    );
    assert!(
        !set_based.ods.is_empty(),
        "the calendar hierarchy must be discovered"
    );
    let scans = set_based
        .lattice_stats
        .expect("discovery runs a profile")
        .validated;
    assert!(
        scans < naive.validated,
        "the profile's statement scans ({scans}) must undercut the oracle's \
         full-candidate validations ({})",
        naive.validated,
    );
    // The calendar's signature OD is implied by the minimal result (it may not
    // be listed itself: [d_date_sk] ↦ … ODs found earlier subsume it).
    let s = rel.schema();
    let date = s.attr_by_name("d_date").unwrap();
    let year = s.attr_by_name("d_year").unwrap();
    let m = OdSet::from_ods(set_based.ods.clone());
    assert!(Decider::new(&m).implies(&OrderDependency::new(vec![date], vec![year])));
}

#[test]
fn engines_agree_on_the_fixtures() {
    for rel in [fixtures::example_5_taxes(), fixtures::figure_1_relation()] {
        for prune in [true, false] {
            let config = DiscoveryConfig {
                prune_implied: prune,
                ..Default::default()
            };
            let set_based = discover_ods(&rel, config);
            let naive = discover_ods_naive(&rel, config);
            assert_eq!(
                set_based.ods, naive.ods,
                "discovery and the oracle must find the same minimal ODs"
            );
            assert_eq!(set_based.candidates, naive.candidates);
        }
    }
}

#[test]
fn engines_agree_on_approximate_discovery() {
    let mut schema = Schema::new("dirty");
    schema.add_attr("a");
    schema.add_attr("b");
    schema.add_attr("c");
    let mut rows: Vec<Vec<Value>> = (0..30i64)
        .map(|i| vec![Value::Int(i), Value::Int(i * 2), Value::Int(i % 5)])
        .collect();
    rows[4][1] = Value::Int(999);
    rows[19][2] = Value::Int(-3);
    let rel = Relation::from_rows(schema, rows).unwrap();
    for epsilon in [0.0, 0.1, 0.35] {
        let config = DiscoveryConfig {
            epsilon,
            ..Default::default()
        };
        let set_based = discover_ods(&rel, config);
        let naive = discover_ods_naive(&rel, config);
        assert_eq!(set_based.ods, naive.ods, "ε = {epsilon}");
        assert_eq!(set_based.ods.len(), set_based.errors.len());
    }
}

/// The 13 weak orders of three rows, as dense ranks (`[0, 1, 1]`: row 0
/// first, rows 1 and 2 tied after it).
fn weak_orders_of_three_rows() -> Vec<[i64; 3]> {
    let mut orders = Vec::new();
    for code in 0..27 {
        let ranks = [code / 9, code / 3 % 3, code % 3];
        let used = ranks.iter().max().unwrap() + 1;
        if (0..used).all(|r| ranks.contains(&r)) {
            orders.push(ranks);
        }
    }
    orders
}

/// Every 3-row × 3-column table up to row order (one representative per
/// orbit of the row permutations), each column a weak order of the rows.
fn three_by_three_tables() -> Vec<[[i64; 3]; 3]> {
    const ROW_ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let orders = weak_orders_of_three_rows();
    let mut tables = Vec::new();
    for &c0 in &orders {
        for &c1 in &orders {
            for &c2 in &orders {
                let rows: [[i64; 3]; 3] = std::array::from_fn(|r| [c0[r], c1[r], c2[r]]);
                let smallest = ROW_ORDERS
                    .iter()
                    .map(|perm| perm.map(|r| rows[r]))
                    .min()
                    .unwrap();
                if smallest == rows {
                    tables.push(rows);
                }
            }
        }
    }
    tables
}

/// Exhaustive sweep over the 380 three-row, three-column tables: at widths
/// 2/2, with and without implication pruning, exactly and with a one-row
/// budget, discovery returns the oracle's ODs, and each score lies between
/// the oracle's and ε.  Small tables hit every shape of prefix refutation:
/// right-hand sides whose prefix fails on constancy, on compatibility, or
/// only past the budget.
#[test]
fn every_three_by_three_table_matches_the_oracle() {
    let orders = weak_orders_of_three_rows();
    assert_eq!(orders.len(), 13);
    let tables = three_by_three_tables();
    assert_eq!(tables.len(), 380);
    for rows in tables {
        let mut schema = Schema::new("sweep");
        for c in ["a", "b", "c"] {
            schema.add_attr(c);
        }
        let rel = Relation::from_rows(
            schema,
            rows.iter()
                .map(|row| row.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap();
        for epsilon in [0.0, 0.34] {
            for prune_implied in [true, false] {
                let config = DiscoveryConfig {
                    prune_implied,
                    epsilon,
                    ..Default::default()
                };
                let found = discover_ods(&rel, config);
                let naive = discover_ods_naive(&rel, config);
                let at = format!("{rows:?} at ε = {epsilon}, prune = {prune_implied}");
                assert_eq!(found.ods, naive.ods, "{at}");
                assert_eq!(found.candidates, naive.candidates, "{at}");
                for (fast, oracle) in found.errors.iter().zip(naive.errors.iter()) {
                    assert!(
                        (*oracle..=epsilon).contains(fast),
                        "score {fast} outside [{oracle}, {epsilon}] for {at}"
                    );
                }
            }
        }
    }
}
