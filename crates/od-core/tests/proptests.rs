//! Property-based tests for the core lexicographic machinery.

use od_core::check::{check_od, check_od_naive, od_holds};
use od_core::lex::{lex_cmp, lex_le, lex_le_recursive};
use od_core::{AttrId, AttrList, OrderDependency, Relation, Schema, Value};
use proptest::prelude::*;

/// Strategy: a relation with `cols` integer columns and up to `max_rows` rows of
/// small values (small domains make splits and swaps likely).
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

/// Strategy: an attribute list over `cols` columns with length up to `max_len`.
fn list_strategy(cols: usize, max_len: usize) -> impl Strategy<Value = AttrList> {
    prop::collection::vec(0u32..cols as u32, 0..=max_len)
        .prop_map(|ids| ids.into_iter().map(AttrId).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The iterative lexicographic comparison matches the recursive Definition 1.
    #[test]
    fn lex_iterative_equals_recursive(rel in relation_strategy(4, 6), list in list_strategy(4, 5)) {
        let tuples = rel.tuples();
        for s in &tuples {
            for t in &tuples {
                prop_assert_eq!(lex_le(s, t, &list), lex_le_recursive(s, t, &list));
            }
        }
    }

    /// `≼_X` is a total preorder: total and transitive.
    #[test]
    fn lex_is_total_and_transitive(rel in relation_strategy(3, 6), list in list_strategy(3, 4)) {
        let tuples = rel.tuples();
        for a in &tuples {
            for b in &tuples {
                prop_assert!(lex_le(a, b, &list) || lex_le(b, a, &list));
                for c in &tuples {
                    if lex_le(a, b, &list) && lex_le(b, c, &list) {
                        prop_assert!(lex_le(a, c, &list));
                    }
                }
            }
        }
    }

    /// The fast OD checker agrees with the naive pairwise checker on the verdict,
    /// and the violation witness it returns is genuine (the claimed pair really is
    /// a split / swap for the checked OD).  The *kind* of the first violation found
    /// may legitimately differ between the two algorithms when an instance contains
    /// both splits and swaps.
    #[test]
    fn fast_checker_agrees_with_naive(
        rel in relation_strategy(4, 8),
        lhs in list_strategy(4, 3),
        rhs in list_strategy(4, 3),
    ) {
        let od = OrderDependency::new(lhs, rhs);
        match (check_od(&rel, &od), check_od_naive(&rel, &od)) {
            (Ok(()), Ok(())) => {}
            (Err(v), Err(_)) => {
                let (s, t) = v.pair();
                let (s, t) = (&rel.tuple(s), &rel.tuple(t));
                match v {
                    od_core::Violation::Split { .. } => {
                        prop_assert!(lex_cmp(s, t, &od.lhs) == std::cmp::Ordering::Equal);
                        prop_assert!(lex_cmp(s, t, &od.rhs) != std::cmp::Ordering::Equal);
                    }
                    od_core::Violation::Swap { .. } => {
                        prop_assert!(lex_cmp(s, t, &od.lhs) == std::cmp::Ordering::Less);
                        prop_assert!(lex_cmp(s, t, &od.rhs) == std::cmp::Ordering::Greater);
                    }
                }
            }
            (a, b) => prop_assert!(false, "verdict mismatch: fast={a:?} naive={b:?}"),
        }
    }

    /// Normalizing either side of an OD never changes whether it holds (OD3).
    #[test]
    fn normalization_preserves_satisfaction(
        rel in relation_strategy(4, 8),
        lhs in list_strategy(4, 4),
        rhs in list_strategy(4, 4),
    ) {
        let od = OrderDependency::new(lhs, rhs);
        prop_assert_eq!(od_holds(&rel, &od), od_holds(&rel, &od.normalize()));
    }

    /// Reflexivity (OD1): `XY ↦ X` holds on every instance.
    #[test]
    fn reflexivity_is_sound(rel in relation_strategy(4, 8), x in list_strategy(4, 3), y in list_strategy(4, 3)) {
        let od = OrderDependency::new(x.concat(&y), x);
        prop_assert!(od_holds(&rel, &od));
    }

    /// Lemma 1: if `X ↦ Y` holds then the FD `set(X) → set(Y)` holds.
    #[test]
    fn od_implies_fd(rel in relation_strategy(4, 8), lhs in list_strategy(4, 3), rhs in list_strategy(4, 3)) {
        let od = OrderDependency::new(lhs, rhs);
        if od_holds(&rel, &od) {
            prop_assert!(od_core::check::fd_holds(&rel, &od.implied_fd()));
        }
    }

    /// Prefix (OD2) soundness on instances: if `X ↦ Y` then `ZX ↦ ZY`.
    #[test]
    fn prefix_rule_is_sound(
        rel in relation_strategy(4, 8),
        x in list_strategy(4, 3),
        y in list_strategy(4, 3),
        z in list_strategy(4, 3),
    ) {
        let od = OrderDependency::new(x.clone(), y.clone());
        if od_holds(&rel, &od) {
            let prefixed = OrderDependency::new(z.concat(&x), z.concat(&y));
            prop_assert!(od_holds(&rel, &prefixed));
        }
    }

    /// Transitivity (OD4) soundness on instances.
    #[test]
    fn transitivity_is_sound(
        rel in relation_strategy(3, 8),
        x in list_strategy(3, 2),
        y in list_strategy(3, 2),
        z in list_strategy(3, 2),
    ) {
        let xy = OrderDependency::new(x.clone(), y.clone());
        let yz = OrderDependency::new(y, z.clone());
        if od_holds(&rel, &xy) && od_holds(&rel, &yz) {
            prop_assert!(od_holds(&rel, &OrderDependency::new(x, z)));
        }
    }

    /// Suffix (OD5) soundness on instances: if `X ↦ Y` then `X ↔ YX`.
    #[test]
    fn suffix_rule_is_sound(
        rel in relation_strategy(4, 8),
        x in list_strategy(4, 3),
        y in list_strategy(4, 3),
    ) {
        let od = OrderDependency::new(x.clone(), y.clone());
        if od_holds(&rel, &od) {
            let yx = y.concat(&x);
            prop_assert!(od_holds(&rel, &OrderDependency::new(x.clone(), yx.clone())));
            prop_assert!(od_holds(&rel, &OrderDependency::new(yx, x)));
        }
    }

    /// Sorting a relation by X yields a stream whose Y projection is sorted too,
    /// whenever X ↦ Y holds — this is precisely why ODs justify ORDER BY rewrites.
    #[test]
    fn ordering_by_lhs_orders_rhs(
        rel in relation_strategy(4, 10),
        lhs in list_strategy(4, 3),
        rhs in list_strategy(4, 3),
    ) {
        let od = OrderDependency::new(lhs.clone(), rhs.clone());
        if od_holds(&rel, &od) {
            let mut rows = rel.tuples();
            rows.sort_by(|a, b| lex_cmp(a, b, &lhs));
            for w in rows.windows(2) {
                prop_assert!(lex_le(&w[0], &w[1], &rhs));
            }
        }
    }
}

/// Strategy: a relation mixing every [`Value`] variant — NULLs, NaN and
/// negative-zero floats, strings, dates, booleans — so the columnar snapshot
/// round-trip is exercised over heterogeneous comparison-path columns, not
/// just radix-path integers.
fn mixed_relation_strategy(cols: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0u64..4096, cols), 0..max_rows).prop_map(
        move |rows| {
            let mut schema = Schema::new("snapshot");
            for i in 0..cols {
                schema.add_attr(format!("c{i}"));
            }
            let value = |seed: u64| match seed % 7 {
                0 => Value::Null,
                1 => Value::Int((seed >> 3) as i64 - 200),
                2 => Value::Float((seed >> 3) as f64 / 4.0 - 32.0),
                3 => Value::Float(if seed & 8 == 0 { f64::NAN } else { -0.0 }),
                4 => Value::Str(format!("s{}", (seed >> 3) % 9)),
                5 => Value::Date((seed >> 3) as i32 - 100),
                _ => Value::Bool(seed & 8 == 0),
            };
            Relation::from_rows(
                schema,
                rows.into_iter().map(|r| r.into_iter().map(value).collect()),
            )
            .expect("arity is fixed by construction")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The columnar snapshot round trip is lossless — `from_bytes(to_bytes(r))
    /// == r` — and byte-stable: re-encoding the decoded relation reproduces
    /// the exact snapshot bytes (so NaN payloads and NULL codes survive
    /// bit-for-bit), and the transported encoding matches what a fresh
    /// re-encode of the reconstructed rows would build.
    #[test]
    fn columnar_snapshot_roundtrips(rel in mixed_relation_strategy(3, 16)) {
        let bytes = rel.to_bytes();
        let back = Relation::from_bytes(&bytes).expect("snapshot decodes");
        prop_assert_eq!(&back, &rel);
        prop_assert_eq!(back.to_bytes(), bytes);
        // The attached encoding must agree with an honest re-encode of the
        // reconstructed tuples: order-preserving codes are what discovery
        // trusts, so a snapshot may never smuggle in a different ranking.
        let reencoded = Relation::from_rows(back.schema().clone(), back.tuples())
            .expect("reconstructed tuples satisfy the schema");
        prop_assert_eq!(&*back.encoding(), &*reencoded.encoding());
    }
}
