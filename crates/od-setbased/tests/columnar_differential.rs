//! Differential proptests for the columnar code path.  The dictionary codes
//! built at relation construction, the counting-kernel partition refinement
//! and products, and the code-based statement verdicts must be bit-for-bit
//! interchangeable with their Value-comparison oracles — on relations with
//! NULLs, heavy duplicates, mixed value types, and single-value columns, both
//! below and above the validators' radix threshold (`CLASS_RADIX_MIN` is 256,
//! so the "large" cases genuinely take the validators' counting-sort paths).
//! Every three-attribute partition is built from each of its three pair
//! bases, which must agree.  The two compatibility kernels — the τ pass and
//! the per-class scan — are also pinned against each other, called directly
//! whatever the class sizes.  One fixed test runs the partition and product
//! oracles on the scale table, whose classes outnumber anything the random
//! relations produce.

use od_core::check::od_removal_count;
use od_core::{AttrId, AttrSet, Relation, Schema, Value};
use od_setbased::validate::{compatibility_verdict, statement_verdict, tau_compatibility_verdict};
use od_setbased::{
    error_budget, ClassCodes, PartitionCache, RefineScratch, SetOd, StrippedPartition,
    CLASS_SENTINEL,
};
use od_workload::{scale_relation, SCALE_1M};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

/// Small value pool: NULLs, duplicate-heavy small integers, and a couple of
/// strings so the per-attribute dictionaries span value types (`Value`'s
/// total order puts Null first, then Int, then Str).
fn value_strategy() -> impl Strategy<Value = Value> {
    (0u8..8).prop_map(|k| match k {
        0..=3 => Value::Int(i64::from(k) % 3),
        4 | 5 => Value::Null,
        6 => Value::Str("x".into()),
        _ => Value::Str("y".into()),
    })
}

/// A relation with `cols` generated columns plus two appended degenerate
/// columns: a single-value column (every row `Int(42)` — one full class) and
/// a unique column (`Int(row)` — every class a singleton, so its stripped
/// partition is empty and its class codes are all sentinel).  Together they pin both extremes of the product kernel.
fn relation_strategy(cols: usize, rows: std::ops::Range<usize>) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(value_strategy(), cols), rows).prop_map(
        move |rows| {
            let mut schema = Schema::new("coldiff");
            for i in 0..=cols + 1 {
                schema.add_attr(format!("c{i}"));
            }
            Relation::from_rows(
                schema,
                rows.into_iter().enumerate().map(|(i, mut r)| {
                    r.push(Value::Int(42));
                    r.push(Value::Int(i as i64));
                    r
                }),
            )
            .expect("arity fixed by construction")
        },
    )
}

/// A relation of [`relation_strategy`]'s shape whose first column plants one
/// class holding at least half the rows: every even row, and any odd row a
/// coin picks, takes `Int(1)` there.  The other columns keep the NULLs and
/// mixed value types of [`value_strategy`].
fn dominant_class_strategy(
    cols: usize,
    rows: std::ops::Range<usize>,
) -> impl Strategy<Value = Relation> {
    prop::collection::vec(
        (prop::collection::vec(value_strategy(), cols), 0u8..2),
        rows,
    )
    .prop_map(move |rows| {
        let mut schema = Schema::new("dominant");
        for i in 0..=cols + 1 {
            schema.add_attr(format!("c{i}"));
        }
        Relation::from_rows(
            schema,
            rows.into_iter().enumerate().map(|(i, (mut r, coin))| {
                if i % 2 == 0 || coin == 1 {
                    r[0] = Value::Int(1);
                }
                r.push(Value::Int(42));
                r.push(Value::Int(i as i64));
                r
            }),
        )
        .expect("arity fixed by construction")
    })
}

/// Value-path oracle for stripped bucketing: sort `(&Value, row)` pairs with
/// `Value::cmp`, emit runs of ≥ 2 equal values, classes in first-member
/// order, members ascending — the output contract of [`StrippedPartition`].
fn bucket_by_value(rel: &Relation, attr: AttrId, rows: &[u32]) -> Vec<Vec<u32>> {
    let mut pairs: Vec<(&Value, u32)> = rows
        .iter()
        .map(|&r| (rel.value(r as usize, attr), r))
        .collect();
    pairs.sort_by(|x, y| x.0.cmp(y.0).then(x.1.cmp(&y.1)));
    let mut classes = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i + 1;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        if j - i >= 2 {
            classes.push(pairs[i..j].iter().map(|p| p.1).collect::<Vec<u32>>());
        }
        i = j;
    }
    classes.sort_by_key(|c| c[0]);
    classes
}

/// Comparison-sort oracle for a dictionary code column: the dense rank of
/// each row's value among the column's distinct values, from one sort over
/// [`Value`]s that bypasses the columnar encoding.
fn rank_by_sort(rel: &Relation, attr: AttrId) -> Vec<u32> {
    let mut order: Vec<usize> = (0..rel.len()).collect();
    order.sort_by(|&x, &y| rel.value(x, attr).cmp(rel.value(y, attr)));
    let mut codes = vec![0u32; rel.len()];
    let mut rank = 0u32;
    for w in 0..order.len() {
        if w > 0 && rel.value(order[w], attr) != rel.value(order[w - 1], attr) {
            rank += 1;
        }
        codes[order[w]] = rank;
    }
    codes
}

/// Hash-grouping oracle for the partition product `p · other`: rows keyed by
/// the pair (class index in `p`, class id in `other`), rows singleton in
/// either operand dropped, groups of ≥ 2 kept — no packed keys, no sorting.
fn product_by_hash(p: &StrippedPartition, other: &ClassCodes) -> StrippedPartition {
    let mut groups: HashMap<(usize, u32), Vec<u32>> = HashMap::new();
    for (ci, class) in p.classes().enumerate() {
        for &row in class {
            let oc = other.codes()[row as usize];
            if oc != CLASS_SENTINEL {
                groups.entry((ci, oc)).or_default().push(row);
            }
        }
    }
    let classes = groups.into_values().filter(|c| c.len() >= 2).collect();
    StrippedPartition::from_classes(classes, p.n_rows())
}

/// Every non-trivial canonical statement over the relation's attributes with
/// a context of at most `max_context` attributes.
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
        contexts.extend(next);
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

/// Shared body: dictionary codes, stripped partitions and all width-2
/// refinements against the Value-comparison oracles, bit for bit.
fn assert_partitions_match_value_oracle(rel: &Relation) -> Result<(), TestCaseError> {
    let all_rows: Vec<u32> = (0..rel.len() as u32).collect();
    let attrs: Vec<AttrId> = rel.schema().attr_ids().collect();
    let enc = rel.encoding();
    let mut scratch = RefineScratch::default();
    for (i, &a) in attrs.iter().enumerate() {
        // The encoding's code column is the same dense ranking the
        // comparison-sort reference produces.
        prop_assert_eq!(rel.rank_column(a), rank_by_sort(rel, a), "codes of {:?}", a);
        let p = StrippedPartition::by_codes_with(enc.codes(i), &mut scratch);
        let single = bucket_by_value(rel, a, &all_rows);
        prop_assert_eq!(p.class_vecs(), single.clone(), "Π_{{{:?}}}", a);
        for (j, &b) in attrs.iter().enumerate() {
            if i == j {
                continue;
            }
            let refined = p.refine_by_with(enc.codes(j), &mut scratch);
            let mut oracle = Vec::new();
            for class in &single {
                oracle.extend(bucket_by_value(rel, b, class));
            }
            oracle.sort_by_key(|c| c[0]);
            prop_assert_eq!(refined.class_vecs(), oracle, "Π_{{{:?},{:?}}}", a, b);
        }
    }
    Ok(())
}

/// Shared body: exact (`ε = 0`, unbounded budget) removal counts and budgeted
/// (`ε > 0`) accept/reject decisions against the sort-based list-OD oracle.
fn assert_verdicts_match_value_oracle(rel: &Relation) -> Result<(), TestCaseError> {
    let cols = rel.schema().arity() as u32;
    let mut cache = PartitionCache::new(rel);
    for stmt in all_statements(cols, 2) {
        let exact = statement_verdict(&mut cache, &stmt, 1, usize::MAX);
        // Both list-OD directions of a compatibility share one removal count;
        // one representative suffices as the Value-path oracle.
        let oracle = od_removal_count(rel, &stmt.as_list_ods()[0]);
        prop_assert_eq!(
            exact.removal_count,
            oracle,
            "exact removal of {} on {} rows",
            &stmt,
            rel.len()
        );
        prop_assert_eq!(exact.holds(), oracle == 0);
        for epsilon in [0.1, 0.25] {
            let budget = error_budget(rel.len(), epsilon);
            let approx = statement_verdict(&mut cache, &stmt, 1, budget);
            // A budgeted scan may short-circuit, so only the decision is
            // pinned — the overshoot of a rejected verdict is not exact.
            prop_assert_eq!(
                approx.within(budget),
                oracle <= budget,
                "ε = {}: {} (oracle {}, budget {})",
                epsilon,
                &stmt,
                oracle,
                budget
            );
        }
    }
    Ok(())
}

/// Shared body: the τ pass against the per-class scan on every compatibility
/// statement with a context of width ≤ 2, at budgets 0, 1, ⌊0.25·n⌋ and
/// unbounded.  Both kernels must agree on acceptance, accepted verdicts must
/// be equal field for field, and the unbounded count must equal the list-OD
/// oracle's.  Also pins τ_A to a stable sort of the rows by code.
fn assert_tau_pass_matches_per_class_scan(rel: &Relation) -> Result<(), TestCaseError> {
    let n = rel.len();
    let cols = rel.schema().arity() as u32;
    let mut cache = PartitionCache::new(rel);
    for a in rel.schema().attr_ids() {
        let codes = cache.codes(a);
        let mut stable: Vec<u32> = (0..n as u32).collect();
        stable.sort_by_key(|&row| codes[row as usize]);
        prop_assert_eq!(&cache.attr_order(a)[..], &stable[..], "τ of {:?}", a);
    }
    for stmt in all_statements(cols, 2) {
        let SetOd::Compatibility { context, a, b } = stmt else {
            continue;
        };
        let part = cache.partition(&context);
        let class_ids = (!part.is_single_class()).then(|| part.class_codes());
        let order = cache.attr_order(a);
        let (codes_a, codes_b) = (cache.codes(a), cache.codes(b));
        let oracle = od_removal_count(rel, &stmt.as_list_ods()[0]);
        for budget in [0, 1, error_budget(n, 0.25), usize::MAX] {
            let per_class = compatibility_verdict(&part, &codes_a, &codes_b, budget);
            let tau = tau_compatibility_verdict(
                &part,
                class_ids.as_ref(),
                &order,
                &codes_a,
                &codes_b,
                budget,
            );
            prop_assert_eq!(
                tau.within(budget),
                per_class.within(budget),
                "{} at budget {}",
                &stmt,
                budget
            );
            if per_class.within(budget) {
                prop_assert_eq!(&tau, &per_class, "{} at budget {}", &stmt, budget);
            }
            if budget == usize::MAX {
                prop_assert_eq!(tau.removal_count, oracle, "{}", &stmt);
            }
        }
    }
    Ok(())
}

/// Shared body: every ordered-pair product Π_A · Π_B, bit for bit against
/// two oracles: the raw-code refinement (`Π_A` refined by B's dictionary
/// codes — the level-1 path, which never reads class ids) and
/// [`product_by_hash`].  The product paths drop rows singleton in either
/// operand; refinement strips them afterwards, so all three land on the
/// identical CSR partition.  Also pins self-product idempotence
/// (Π · Π = Π), and builds every three-attribute partition `Π_{i,j,k}` from
/// each of its three pair bases — `Π_{i,j}·Π_k`, `Π_{i,k}·Π_j` and
/// `Π_{j,k}·Π_i`, the choice the cache makes by covered rows — which must
/// all equal the raw-code refinement chain and [`product_by_hash`].
fn assert_products_match_oracles(rel: &Relation) -> Result<(), TestCaseError> {
    let n = rel.schema().arity();
    let enc = rel.encoding();
    let mut scratch = RefineScratch::default();
    let parts: Vec<StrippedPartition> = (0..n)
        .map(|i| StrippedPartition::by_codes_with(enc.codes(i), &mut scratch))
        .collect();
    let codes: Vec<ClassCodes> = parts.iter().map(StrippedPartition::class_codes).collect();
    let mut pairs: HashMap<(usize, usize), StrippedPartition> = HashMap::new();
    for (i, p) in parts.iter().enumerate() {
        for (j, c) in codes.iter().enumerate() {
            if i == j {
                continue;
            }
            let product = p.product_with(c, &mut scratch);
            let oracle = p.refine_by_with(enc.codes(j), &mut scratch);
            prop_assert_eq!(&product, &oracle, "product vs refinement {:?}x{:?}", i, j);
            let hash = product_by_hash(p, c);
            prop_assert_eq!(&product, &hash, "product vs hash oracle {:?}x{:?}", i, j);
            if i < j {
                pairs.insert((i, j), product);
            }
        }
        let self_product = p.product_with(&codes[i], &mut scratch);
        prop_assert_eq!(
            &self_product,
            p,
            "self-product of {:?} must be idempotent",
            i
        );
    }
    for i in 0..n {
        for j in i + 1..n {
            for k in j + 1..n {
                let chain = [i, j, k]
                    .iter()
                    .fold(StrippedPartition::full(rel.len()), |p, &a| {
                        p.refine_by_with(enc.codes(a), &mut scratch)
                    });
                for (base, other) in [((i, j), k), ((i, k), j), ((j, k), i)] {
                    let base = &pairs[&base];
                    let product = base.product_with(&codes[other], &mut scratch);
                    prop_assert_eq!(&product, &chain, "Π{{{},{},{}}} by {}", i, j, k, other);
                    let hash = product_by_hash(base, &codes[other]);
                    prop_assert_eq!(&product, &hash, "Π{{{},{},{}}} by {}", i, j, k, other);
                }
            }
        }
    }
    Ok(())
}

/// The scale table at 20k rows: its `zipf_key` and `noisy_rank` partitions
/// hold 848 and 5,330 classes, so class ids span thousands of slots, and
/// its pair partitions cover anything from a few thousand rows to all of
/// them, so the three bases of one triple differ widely in size.
#[test]
fn scale_table_partitions_and_products_match_oracles() {
    let rel = scale_relation(&SCALE_1M.with_rows(20_000));
    assert_partitions_match_value_oracle(&rel).unwrap_or_else(|e| panic!("{e}"));
    assert_products_match_oracles(&rel).unwrap_or_else(|e| panic!("{e}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small relations: exhaustive shape coverage (empty, all-NULL columns,
    /// every class below the validators' radix threshold → comparison
    /// fallback paths).
    #[test]
    fn small_relations_partition_and_verdict_parity(
        rel in relation_strategy(2, 0usize..14),
    ) {
        assert_partitions_match_value_oracle(&rel)?;
        assert_products_match_oracles(&rel)?;
        assert_verdicts_match_value_oracle(&rel)?;
        assert_tau_pass_matches_per_class_scan(&rel)?;
    }

    /// One class of the first column holds at least half the rows, next to
    /// NULL and mixed-type columns: the shape that takes the τ pass.
    #[test]
    fn tau_pass_matches_per_class_scan_on_dominant_classes(
        rel in dominant_class_strategy(3, 0usize..40),
    ) {
        assert_tau_pass_matches_per_class_scan(&rel)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Large relations: few distinct values over hundreds of rows, so
    /// partition classes clear `CLASS_RADIX_MIN` — this is the differential
    /// pin on the validators' counting-sort paths and on the partition
    /// kernel over classes of hundreds of rows (plus the single-value
    /// column, one full class).
    #[test]
    fn large_relations_take_radix_paths_and_agree(
        rel in relation_strategy(2, 400usize..520),
    ) {
        assert_partitions_match_value_oracle(&rel)?;
        assert_products_match_oracles(&rel)?;
        assert_verdicts_match_value_oracle(&rel)?;
        assert_tau_pass_matches_per_class_scan(&rel)?;
    }
}
