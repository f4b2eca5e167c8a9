//! Property-based differential tests: the partition-backed validators must
//! agree with `od-core`'s sort-based split/swap checker on arbitrary inputs,
//! and the canonical translation must be exact.

use od_core::check::{od_holds, od_removal_count};
use od_core::{AttrId, AttrList, AttrSet, OrderDependency, Relation, Schema, Value};
use od_setbased::{discover_statements, translate_od, LatticeConfig, PartitionCache, SetOd};
use proptest::prelude::*;

/// Strategy: a relation with `cols` integer columns and up to `max_rows` rows
/// of small values (small domains make splits and swaps likely).
fn relation_strategy(cols: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0i64..4, cols), 0..max_rows).prop_map(move |rows| {
        let mut schema = Schema::new("prop");
        for i in 0..cols {
            schema.add_attr(format!("c{i}"));
        }
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect()),
        )
        .expect("arity is fixed by construction")
    })
}

/// Strategy: an attribute list over `cols` columns with length up to `max_len`
/// (duplicates allowed — normalization is part of what is under test).
fn list_strategy(cols: usize, max_len: usize) -> impl Strategy<Value = AttrList> {
    prop::collection::vec(0u32..cols as u32, 0..=max_len)
        .prop_map(|ids| ids.into_iter().map(AttrId).collect())
}

/// Brute-force `g3` numerator of a canonical statement: the smallest number of
/// rows whose removal makes every list-OD form of the statement hold, found by
/// trying all keep-subsets (exponential — callers keep relations at ≤ 8 rows).
fn brute_force_statement_removal(rel: &Relation, stmt: &SetOd) -> usize {
    let n = rel.len();
    assert!(n <= 8, "oracle is exponential");
    let ods = stmt.as_list_ods();
    let mut best = 0usize;
    for mask in 0..(1u32 << n) {
        let keep: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        if keep.len() <= best {
            continue;
        }
        let sub = Relation::from_rows(rel.schema().clone(), keep.iter().map(|&i| rel.tuple(i)))
            .expect("same schema");
        if ods.iter().all(|od| od_holds(&sub, od)) {
            best = keep.len();
        }
    }
    n - best
}

/// Every non-trivial canonical statement over `cols` attributes with a context
/// of at most `max_context` attributes.
fn all_statements(cols: u32, max_context: usize) -> Vec<SetOd> {
    let universe: Vec<AttrId> = (0..cols).map(AttrId).collect();
    let mut contexts: Vec<AttrSet> = vec![AttrSet::new()];
    for _ in 0..max_context {
        let mut next = Vec::new();
        for ctx in &contexts {
            for &a in &universe {
                if !ctx.contains(a) {
                    let mut bigger = *ctx;
                    bigger.insert(a);
                    next.push(bigger);
                }
            }
        }
        contexts.extend(next.clone());
        contexts.sort();
        contexts.dedup();
    }
    let mut out = Vec::new();
    for ctx in &contexts {
        for &a in &universe {
            let c = SetOd::constancy(*ctx, a);
            if !c.is_trivial() {
                out.push(c);
            }
            for &b in &universe {
                if b > a {
                    let k = SetOd::compatibility(*ctx, a, b);
                    if !k.is_trivial() {
                        out.push(k);
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The canonical translation is exact: an OD holds iff every translated
    /// statement holds (checked through the statements' own list-OD forms).
    #[test]
    fn translation_round_trips_through_instances(
        rel in relation_strategy(4, 9),
        lhs in list_strategy(4, 3),
        rhs in list_strategy(4, 3),
    ) {
        let od = OrderDependency::new(lhs, rhs);
        let all_statements_hold = translate_od(&od)
            .iter()
            .all(|stmt| stmt.as_list_ods().iter().all(|od| od_holds(&rel, od)));
        prop_assert_eq!(od_holds(&rel, &od), all_statements_hold);
    }

    /// The `g3` removal count of every canonical statement matches the
    /// brute-force tuple-removal oracle, and accept/reject under any budget
    /// follows from it.
    #[test]
    fn statement_removal_matches_brute_force_oracle(
        rel in relation_strategy(3, 8),
    ) {
        let mut cache = PartitionCache::new(&rel);
        for stmt in all_statements(3, 2) {
            let verdict = od_setbased::validate::statement_verdict(
                &mut cache, &stmt, 1, usize::MAX);
            let oracle = brute_force_statement_removal(&rel, &stmt);
            prop_assert_eq!(
                verdict.removal_count, oracle,
                "removal of {} on {} rows", stmt, rel.len()
            );
            prop_assert!(!verdict.exceeded);
            // Every sampled witness names two distinct rows of the relation.
            for &(s, t) in &verdict.violating_pairs {
                prop_assert!(s != t);
                prop_assert!((s as usize) < rel.len() && (t as usize) < rel.len());
            }
        }
    }

    /// The statement-level removal count equals the whole-OD removal count of
    /// the statement's defining list OD (the sort-based evidence oracle of
    /// `od-core::check`), on relations of any shape.
    #[test]
    fn statement_removal_matches_sort_based_evidence(
        rel in relation_strategy(4, 12),
    ) {
        let mut cache = PartitionCache::new(&rel);
        for stmt in all_statements(4, 1) {
            let verdict = od_setbased::validate::statement_verdict(
                &mut cache, &stmt, 1, usize::MAX);
            // Both list-OD directions of a compatibility have the same
            // violation structure; one representative suffices.
            let od = &stmt.as_list_ods()[0];
            prop_assert_eq!(
                verdict.removal_count,
                od_removal_count(&rel, od),
                "statement {} vs list OD {}", stmt, od
            );
        }
    }

    /// Budgeted scans of an OD's canonical statements accept it exactly when
    /// the oracle removal count fits the budget, and budget 0 reproduces the
    /// exact checker bit for bit.
    #[test]
    fn budgeted_engine_matches_oracle_thresholds(
        rel in relation_strategy(3, 8),
        lhs in list_strategy(3, 2),
        rhs in list_strategy(3, 2),
    ) {
        let od = OrderDependency::new(lhs, rhs);
        let stmts = translate_od(&od);
        let worst = stmts
            .iter()
            .map(|stmt| brute_force_statement_removal(&rel, stmt))
            .max()
            .unwrap_or(0);
        let mut cache = PartitionCache::new(&rel);
        for budget in [0usize, 1, 2, rel.len()] {
            let accepted = stmts.iter().all(|stmt| {
                od_setbased::validate::statement_verdict(&mut cache, stmt, 1, budget)
                    .within(budget)
            });
            prop_assert_eq!(accepted, worst <= budget, "budget {} on {}", budget, od);
            if budget == 0 {
                prop_assert_eq!(accepted, od_holds(&rel, &od));
            }
        }
    }

    /// The node-based width-3 traversal answers every in-bound statement
    /// exactly like the seed's sort-based oracle, at ε = 0 and ε > 0: a
    /// statement holds iff its list-OD removal count fits the budget.
    /// Propagated-away candidates must answer as reliably as validated ones.
    #[test]
    fn width3_node_traversal_matches_naive_oracle(
        rel in relation_strategy(4, 10),
    ) {
        for epsilon in [0.0, 0.25] {
            let profile = discover_statements(
                &rel,
                &LatticeConfig { max_context: 3, epsilon, ..Default::default() },
            );
            for stmt in all_statements(4, 3) {
                // Both list-OD directions of a compatibility share one removal
                // count; the representative is the oracle.
                let removal = od_removal_count(&rel, &stmt.as_list_ods()[0]);
                prop_assert_eq!(
                    profile.holds(&stmt),
                    removal <= profile.budget(),
                    "ε = {}: {} (oracle removal {}, budget {})",
                    epsilon, stmt, removal, profile.budget()
                );
                // Reported bounds are sound: at least the oracle's exact
                // count, never past the budget.
                if let Some(bound) = profile.removal_upper_bound(&stmt) {
                    prop_assert!(bound >= removal, "{}: bound {} under oracle {}", stmt, bound, removal);
                    prop_assert!(bound <= profile.budget(), "{}", stmt);
                }
            }
        }
    }

    /// Everything the lattice reports holds on the instance, and its `holds`
    /// query is complete for statements within the context bound.
    #[test]
    fn lattice_is_sound_and_complete_within_bound(
        rel in relation_strategy(3, 8),
        lhs in list_strategy(3, 2),
        rhs in list_strategy(3, 2),
    ) {
        let profile = discover_statements(&rel, &LatticeConfig::default());
        for stmt in profile.minimal_statements() {
            for od in stmt.as_list_ods() {
                prop_assert!(od_holds(&rel, &od), "{} does not hold", stmt);
            }
        }
        // Completeness via the translation: for any OD whose statements all sit
        // within the bound, lattice verdicts must reproduce the checker.
        let od = OrderDependency::new(lhs, rhs);
        let stmts = translate_od(&od);
        if stmts.iter().all(|s| s.context().len() <= profile.max_context()) {
            let lattice_verdict = stmts.iter().all(|s| profile.holds(s));
            prop_assert_eq!(lattice_verdict, od_holds(&rel, &od), "on {}", od);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The width-4 bitset traversal (the new default) answers every in-bound
    /// statement exactly like the seed's sort-based oracle, at ε = 0 and
    /// ε > 0: a statement holds iff its list-OD removal count fits the
    /// budget.  Level-4 contexts over a 5-attribute universe exercise the
    /// deepest mask-propagation paths.
    #[test]
    fn width4_bitset_traversal_matches_naive_oracle(
        rel in relation_strategy(5, 9),
    ) {
        for epsilon in [0.0, 0.25] {
            let profile = discover_statements(
                &rel,
                &LatticeConfig { max_context: 4, epsilon, ..Default::default() },
            );
            for stmt in all_statements(5, 4) {
                let removal = od_removal_count(&rel, &stmt.as_list_ods()[0]);
                prop_assert_eq!(
                    profile.holds(&stmt),
                    removal <= profile.budget(),
                    "ε = {}: {} (oracle removal {}, budget {})",
                    epsilon, stmt, removal, profile.budget()
                );
                if let Some(bound) = profile.removal_upper_bound(&stmt) {
                    prop_assert!(bound >= removal, "{}: bound {} under oracle {}", stmt, bound, removal);
                    prop_assert!(bound <= profile.budget(), "{}", stmt);
                }
            }
        }
    }
}

/// The bitset attribute-set domain cap: schemas past 64 attributes are
/// reported gracefully, never silently mis-profiled.
mod attr_set_domain_edge_cases {
    use super::*;
    use od_core::CoreError;
    use od_setbased::try_discover_statements;

    #[test]
    fn oversized_schemas_are_rejected_not_mangled() {
        let mut schema = Schema::new("wide");
        for i in 0..70 {
            schema.add_attr(format!("c{i}"));
        }
        let rel = Relation::from_rows(
            schema,
            (0..3i64).map(|i| (0..70).map(|c| Value::Int(i * c)).collect::<Vec<_>>()),
        )
        .unwrap();
        let err = try_discover_statements(&rel, &Default::default()).unwrap_err();
        assert!(matches!(err, CoreError::AttrSetOverflow(_)), "{err}");
        // The set type itself reports the first offending id.
        assert_eq!(
            AttrSet::try_from_iter((0..70).map(AttrId)),
            Err(CoreError::AttrSetOverflow(64))
        );
        let mut s = AttrSet::new();
        assert!(s.try_insert(AttrId(63)).is_ok());
        assert_eq!(
            s.try_insert(AttrId(64)),
            Err(CoreError::AttrSetOverflow(64))
        );
        assert_eq!(s.len(), 1, "failed inserts must not corrupt the set");
    }
}

/// Edge cases the approximate path must get right without the proptest RNG
/// having to stumble on them.
mod approximate_edge_cases {
    use super::*;
    use od_setbased::validate::statement_verdict;

    fn verdict_for(rel: &Relation, stmt: &SetOd) -> od_setbased::Verdict {
        let mut cache = PartitionCache::new(rel);
        statement_verdict(&mut cache, stmt, 1, usize::MAX)
    }

    #[test]
    fn all_null_column_is_constant_at_zero_cost() {
        let mut schema = Schema::new("nulls");
        let a = schema.add_attr("a");
        let n = schema.add_attr("n");
        let rel = Relation::from_rows(
            schema,
            (0..6i64).map(|i| vec![Value::Int(i % 3), Value::Null]),
        )
        .unwrap();
        // NULLs compare equal to each other: the all-NULL column is constant
        // in every context, so both statements are violation-free.
        let v = verdict_for(&rel, &SetOd::constancy(AttrSet::new(), n));
        assert_eq!(v.removal_count, 0);
        assert!(v.violating_pairs.is_empty());
        let ctx: AttrSet = [a].into_iter().collect();
        assert_eq!(
            verdict_for(&rel, &SetOd::constancy(ctx, n)).removal_count,
            0
        );
        // And it matches the brute-force oracle like any other column.
        for stmt in all_statements(2, 1) {
            assert_eq!(
                verdict_for(&rel, &stmt).removal_count,
                brute_force_statement_removal(&rel, &stmt),
                "on {stmt}"
            );
        }
    }

    #[test]
    fn duplicate_rows_violate_and_repair_in_blocks() {
        // Four copies of a violating row: the removal count scales with the
        // multiplicity (all four copies agree on everything, so they stand or
        // fall together against the rest of the class).
        let mut schema = Schema::new("dups");
        let a = schema.add_attr("a");
        let b = schema.add_attr("b");
        let mut rows: Vec<Vec<Value>> = (0..4i64)
            .map(|i| vec![Value::Int(i), Value::Int(i)])
            .collect();
        for _ in 0..4 {
            rows.push(vec![Value::Int(5), Value::Int(-1)]); // swaps against all of 0..4
        }
        let rel = Relation::from_rows(schema, rows).unwrap();
        let stmt = SetOd::compatibility(AttrSet::new(), a, b);
        let v = verdict_for(&rel, &stmt);
        assert_eq!(
            v.removal_count, 4,
            "all duplicates must go (keeping them costs the other four rows)"
        );
        assert_eq!(v.removal_count, brute_force_statement_removal(&rel, &stmt));
    }

    #[test]
    fn epsilon_one_accepts_every_statement() {
        // Adversarial data: two columns in exact opposition.  ε = 1 allows
        // removing every tuple, so no statement can be rejected and every
        // candidate the lattice enumerates is confirmed.
        let mut schema = Schema::new("worst");
        schema.add_attr("a");
        schema.add_attr("b");
        let rel = Relation::from_rows(
            schema,
            (0..8i64).map(|i| vec![Value::Int(i), Value::Int(-i)]),
        )
        .unwrap();
        let profile = discover_statements(
            &rel,
            &LatticeConfig {
                epsilon: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(profile.budget(), rel.len());
        for stmt in all_statements(2, 2) {
            assert!(profile.holds(&stmt), "{stmt} must pass at ε = 1");
        }
        // Verdicts stay honest: removal counts are real, not clamped.
        assert_eq!(profile.minimal_statements().len(), profile.verdicts().len());
        for (stmt, v) in profile
            .minimal_statements()
            .iter()
            .zip(profile.verdicts().iter())
        {
            assert!(v.removal_count <= rel.len());
            assert_eq!(
                v.removal_count,
                brute_force_statement_removal(&rel, stmt),
                "on {stmt}"
            );
        }
    }

    #[test]
    fn empty_and_single_row_relations_have_no_error() {
        for rows in [0i64, 1] {
            let mut schema = Schema::new("tiny");
            schema.add_attr("a");
            schema.add_attr("b");
            let rel = Relation::from_rows(
                schema,
                (0..rows).map(|i| vec![Value::Int(i), Value::Int(-i)]),
            )
            .unwrap();
            for stmt in all_statements(2, 1) {
                assert_eq!(verdict_for(&rel, &stmt).removal_count, 0);
            }
        }
    }
}
