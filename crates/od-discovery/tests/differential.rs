//! Differential tests between the naive (sort-per-candidate) discovery engine
//! and the set-based partition engine: identical minimal OD sets on random
//! relations, and the acceptance criteria on the date-warehouse workload.
//! Both engines share one pruning loop, so implication pruning is checked
//! against its own oracle: a greedy decider minimization of the unpruned
//! result.

use od_core::check::od_holds;
use od_core::{OrderDependency, Relation, Schema, Value};
use od_discovery::{discover_ods, discover_ods_naive, DiscoveryConfig, DiscoveryEngine};
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
    /// minimization keeps, for both engines, with the profile deep enough
    /// for every candidate and with a depth-1 profile that sends wide
    /// candidates to the fallback engine.
    #[test]
    fn pruning_equals_greedy_decider_minimization(rel in relation_strategy(4, 10)) {
        for engine in [DiscoveryEngine::SetBased, DiscoveryEngine::Naive] {
            for (max_lhs, max_rhs, max_context) in [(2, 2, 4), (3, 2, 4), (3, 2, 1)] {
                let config = DiscoveryConfig {
                    max_lhs,
                    max_rhs,
                    max_context,
                    engine,
                    ..Default::default()
                };
                let (_, pruned, minimized) = pruned_and_minimized(&rel, config);
                prop_assert_eq!(
                    &pruned, &minimized,
                    "{:?} at widths {}/{}, depth {}", engine, max_lhs, max_rhs, max_context
                );
            }
        }
    }

    /// Both engines return the same minimal OD set on random small relations,
    /// with and without implication pruning, and the set-based engine never
    /// touches the data for more candidates than the naive one.
    #[test]
    fn engines_return_the_same_minimal_od_set(rel in relation_strategy(4, 10)) {
        for prune in [true, false] {
            let config = DiscoveryConfig { prune_implied: prune, ..Default::default() };
            let set_based = discover_ods(&rel, config);
            let naive = discover_ods_naive(&rel, config);
            prop_assert_eq!(&set_based.ods, &naive.ods, "prune={}", prune);
            prop_assert_eq!(set_based.candidates, naive.candidates);
            prop_assert!(set_based.validated <= naive.validated);
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
            // Every candidate was answerable from the lattice profile: no
            // fallback scans beyond it.
            let stats = set_based.lattice_stats.expect("set-based runs profile");
            prop_assert_eq!(set_based.statement_validations, stats.validated);
            prop_assert_eq!(set_based.validated, 0);
        }
    }

    /// Width-4 candidates exercise the bitset lattice's fourth level (the new
    /// default `max_context`): the traversal must still pin the seed's naive
    /// oracle exactly, at ε = 0 and ε > 0, with every candidate answered from
    /// the profile scan-free.
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
            // Every candidate was answerable from the width-4 profile: no
            // fallback scans beyond it.
            let stats = set_based.lattice_stats.expect("set-based runs profile");
            prop_assert_eq!(set_based.statement_validations, stats.validated);
            prop_assert_eq!(set_based.validated, 0);
            // Decider rounds stay per level even under discovery's clamped
            // depth (levels 0..=min(4, needed)).
            prop_assert!(stats.decider_rounds <= 5, "{:?}", stats);
        }
    }

    /// When the configured lattice depth undercuts the candidate widths, the
    /// per-candidate engine fallback keeps the result identical.
    #[test]
    fn shallow_profiles_fall_back_without_changing_the_result(rel in relation_strategy(4, 9)) {
        let wide = DiscoveryConfig { max_lhs: 3, max_rhs: 2, ..Default::default() };
        let shallow = DiscoveryConfig { max_context: 1, ..wide };
        let full = discover_ods(&rel, wide);
        let clipped = discover_ods(&rel, shallow);
        prop_assert_eq!(&full.ods, &clipped.ods);
        let naive = discover_ods_naive(&rel, wide);
        prop_assert_eq!(&clipped.ods, &naive.ods);
    }

    /// `epsilon: 0.0` is bit-identical to exact discovery, and for any ε both
    /// engines agree on the approximate OD set and its error scores (the naive
    /// path measures each statement with the sort-based evidence oracle, the
    /// set-based path with per-class partition arithmetic).
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
            // The naive oracle scores every statement exactly; the set-based
            // engine may report an inherited upper bound — never more than ε,
            // and never below the oracle's exact score.
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

/// The tentpole acceptance criterion: on the date-warehouse fixture the
/// set-based engine discovers the same minimal ODs as the naive engine while
/// validating strictly fewer candidates against the data.
#[test]
fn warehouse_same_ods_with_strictly_fewer_data_validations() {
    let rel = generate_date_dim(1998, 200, 2_450_000);
    let config = DiscoveryConfig::default();
    let set_based = discover_ods(&rel, config);
    let naive = discover_ods_naive(&rel, config);

    assert_eq!(
        set_based.ods, naive.ods,
        "engines must find the same minimal ODs"
    );
    assert!(
        !set_based.ods.is_empty(),
        "the calendar hierarchy must be discovered"
    );
    assert!(
        set_based.validated < naive.validated,
        "set-based candidates touching data ({}) must be strictly fewer than naive ({})",
        set_based.validated,
        naive.validated,
    );
    assert!(
        set_based.statement_validations < naive.validated,
        "even counting per-statement scans ({}) the set-based engine must undercut \
         the naive engine's full-candidate validations ({})",
        set_based.statement_validations,
        naive.validated,
    );
    // The calendar's signature OD is implied by the minimal result (it may not
    // be listed itself: [d_date_sk] ↦ … ODs found earlier subsume it).
    let s = rel.schema();
    let date = s.attr_by_name("d_date").unwrap();
    let year = s.attr_by_name("d_year").unwrap();
    let m = od_infer::OdSet::from_ods(set_based.ods.clone());
    assert!(
        od_infer::Decider::new(&m).implies(&od_core::OrderDependency::new(vec![date], vec![year]))
    );
}
