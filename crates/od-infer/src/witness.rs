//! The completeness construction of Section 4: Armstrong-style **witness
//! tables**.
//!
//! Given a set `ℳ` of ODs over an attribute universe, [`witness_table`] builds a
//! relation that
//!
//! 1. **satisfies** `ℳ` (and hence everything in `ℳ⁺`, by soundness), and
//! 2. **falsifies** every OD over the universe that is *not* in `ℳ⁺`
//!    (completeness — checked empirically by [`completeness_gaps`] up to a
//!    bounded statement size).
//!
//! The construction follows the paper's proof of Theorem 17:
//!
//! * `split(ℳ)` (Definition 15, Figure 7): for every subset `W` of the universe,
//!   two rows agreeing exactly on the FD-closure `W⁺` — this falsifies every
//!   FD-shaped OD (`X ↦ XY`) not in `ℳ⁺`, exactly as in Ullman's completeness
//!   proof for Armstrong's axioms (Theorem 16).
//! * `swap(ℳ)` (Definition 16, Figures 8–9): for every ordered pair of
//!   non-constant attributes `A`, `B` and every **context** `C` (Definition 19) —
//!   a set of attributes frozen to a single value — if `[A] ~ [B]` is not implied
//!   once the context is frozen, a two-row block realizing the swap is added.
//!   The block is obtained from the exact implication decider's counterexample,
//!   so it is guaranteed to satisfy `ℳ` while exhibiting the swap.  (The paper
//!   iterates only over *maximal* contexts and recurses; iterating over all
//!   contexts is a superset of that construction and preserves both properties.)
//! * Blocks are combined with **append** (Definition 17, Figures 4–6), which
//!   shifts value ranges so that no new splits or swaps arise across blocks
//!   (Lemma 9).
//! * Constant attributes (Definition 18) are projected out first and re-added as
//!   single-valued columns at the end (Lemma 8).

use crate::closure::{constants, fd_closure};
use crate::decide::Decider;
use crate::odset::OdSet;
use od_core::{
    AttrId, AttrList, AttrSet, OrderCompatibility, OrderDependency, Relation, Schema, Tuple, Value,
};

/// Append two tables over the same schema per Definition 17: normalize both to a
/// zero minimum, then shift the second so all of its values exceed the first's.
///
/// Panics if the schemas differ or any cell is not an integer (witness tables are
/// integer-valued by construction).
pub fn append(t1: &Relation, t2: &Relation) -> Relation {
    assert_eq!(
        t1.schema(),
        t2.schema(),
        "append requires identical schemas"
    );
    let rows = append_rows(t1.tuples(), t2.tuples());
    Relation::from_rows(t1.schema().clone(), rows).expect("same arity")
}

/// [`append`] over rows, so the constructions below fold their blocks and
/// encode the result once.
fn append_rows(mut t1: Vec<Tuple>, mut t2: Vec<Tuple>) -> Vec<Tuple> {
    let int = |v: &Value| v.as_int().expect("witness tables hold integer cells");
    let min1 = t1.iter().flatten().map(int).min().unwrap_or(0);
    let max1 = t1.iter().flatten().map(int).max().unwrap_or(0) - min1;
    let shift2 = max1 + 1 - t2.iter().flatten().map(int).min().unwrap_or(0);
    for (rows, by) in [(&mut t1, -min1), (&mut t2, shift2)] {
        for v in rows.iter_mut().flatten() {
            *v = Value::Int(int(v) + by);
        }
    }
    t1.append(&mut t2);
    t1
}

/// Fold blocks with [`append_rows`], the first one taken as it is.
fn append_blocks(blocks: impl IntoIterator<Item = Vec<Tuple>>) -> Vec<Tuple> {
    blocks.into_iter().fold(Vec::new(), |acc, block| {
        if acc.is_empty() {
            block
        } else {
            append_rows(acc, block)
        }
    })
}

/// The `split(ℳ)` sub-table (Definition 15): for every subset `W` of the
/// universe, a two-row block with `0` on `W⁺` and `(0, 1)` elsewhere (Figure 7),
/// blocks combined with [`append`].
pub fn split_table(m: &OdSet, schema: &Schema, universe: &[AttrId]) -> Relation {
    Relation::from_rows(schema.clone(), split_rows(m, schema, universe)).expect("arity")
}

fn split_rows(m: &OdSet, schema: &Schema, universe: &[AttrId]) -> Vec<Tuple> {
    let n = universe.len();
    append_blocks((0..(1u64 << n.min(20))).map(|mask| {
        let subset: AttrSet = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, a)| *a)
            .collect();
        let closure = fd_closure(m, &subset);
        let row0 = vec![Value::Int(0); schema.arity()];
        let mut row1 = vec![Value::Int(0); schema.arity()];
        for a in universe {
            if !closure.contains(a) {
                row1[a.index()] = Value::Int(1);
            }
        }
        // Attributes outside the universe (constants) stay 0 in both rows.
        vec![row0, row1]
    }))
}

/// The `swap(ℳ)` sub-table (Definition 16): two-row swap blocks for every pair
/// of non-constant attributes and every context in which a swap is admissible.
pub fn swap_table(m: &OdSet, schema: &Schema, universe: &[AttrId]) -> Relation {
    Relation::from_rows(schema.clone(), swap_rows(m, schema, universe)).expect("arity")
}

fn swap_rows(m: &OdSet, schema: &Schema, universe: &[AttrId]) -> Vec<Tuple> {
    let mut blocks = Vec::new();
    let base = Decider::new(m);
    let non_const: Vec<AttrId> = {
        let k = constants(m);
        universe
            .iter()
            .copied()
            .filter(|a| !k.contains(a))
            .collect()
    };
    for (ai, &a) in non_const.iter().enumerate() {
        for (bi, &b) in non_const.iter().enumerate() {
            if bi <= ai {
                continue;
            }
            // Iterate over every context: a subset of the remaining non-constant attributes.
            let others: Vec<AttrId> = non_const
                .iter()
                .copied()
                .filter(|&x| x != a && x != b)
                .collect();
            let k = others.len().min(16);
            for mask in 0..(1u64 << k) {
                let context: Vec<AttrId> = others
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, x)| *x)
                    .collect();
                let mut d = base.clone();
                for &c in &context {
                    d.add_premise(OrderDependency::new(AttrList::empty(), vec![c]));
                }
                // A direction that fails materializes its counterexample;
                // when neither does, `a ~ b` is implied and needs no block.
                if let Some(pattern) = OrderCompatibility::new(vec![a], vec![b])
                    .as_ods()
                    .iter()
                    .find_map(|od| d.counterexample(od))
                {
                    blocks.push(pattern.rows(schema));
                }
            }
        }
    }
    append_blocks(blocks)
}

/// Build the full witness table `split(ℳ)` append `swap(ℳ)` over the attributes
/// of `schema` (constants of `ℳ` are frozen to a single value per Lemma 8).
pub fn witness_table(m: &OdSet, schema: &Schema) -> Relation {
    let consts = constants(m);
    let universe: Vec<AttrId> = schema.attr_ids().filter(|a| !consts.contains(a)).collect();

    // Project the constants out of ℳ (Lemma 8).
    let projected =
        OdSet::from_ods(m.ods().iter().map(|od| {
            OrderDependency::new(od.lhs.project_out(&consts), od.rhs.project_out(&consts))
        }));

    let split = split_rows(&projected, schema, &universe);
    let swap = swap_rows(&projected, schema, &universe);
    let mut rows = if swap.is_empty() {
        split
    } else {
        append_rows(split, swap)
    };
    // Freeze the constant columns to a single value.
    for row in &mut rows {
        for c in &consts {
            row[c.index()] = Value::Int(0);
        }
    }
    Relation::from_rows(schema.clone(), rows).expect("arity")
}

/// Materialize sampled violating row pairs as a standalone witness relation:
/// the counterexample-table counterpart of the Armstrong construction above,
/// fed by the violation evidence the discovery validators now return.
///
/// Each pair becomes a two-row block holding the rows' per-column **rank
/// codes** (order-preserving integers, so blocks compose with [`append`] even
/// when the source relation holds NULLs or strings, and every within-pair
/// equality and order relation — hence every split or swap the pair witnesses
/// — survives verbatim).  The resulting table falsifies every dependency the
/// sampled pairs falsify, in as many rows as there are sampled pairs times
/// two.
pub fn violation_table(rel: &Relation, pairs: &[(usize, usize)]) -> Relation {
    let codes: Vec<Vec<u32>> = rel
        .schema()
        .attr_ids()
        .map(|a| rel.rank_column(a))
        .collect();
    let row_of =
        |t: usize| -> Vec<Value> { codes.iter().map(|col| Value::Int(col[t] as i64)).collect() };
    let rows = append_blocks(pairs.iter().map(|&(s, t)| vec![row_of(s), row_of(t)]));
    Relation::from_rows(rel.schema().clone(), rows).expect("arity")
}

/// Enumerate every normalized OD over `universe` with each side of length at most
/// `max_len`.
pub fn enumerate_ods(universe: &[AttrId], max_len: usize) -> Vec<OrderDependency> {
    let lists = enumerate_lists(universe, max_len);
    let mut out = Vec::new();
    for lhs in &lists {
        for rhs in &lists {
            out.push(OrderDependency::new(lhs.clone(), rhs.clone()));
        }
    }
    out
}

/// All normalized lists (no repeated attribute) over `universe` of length ≤ `max_len`.
///
/// Lists come shortest first, so each list comes after its one-shorter
/// prefix; list discovery relies on that to refute a right-hand side by its
/// failed prefix.
pub fn enumerate_lists(universe: &[AttrId], max_len: usize) -> Vec<AttrList> {
    let mut out = vec![AttrList::empty()];
    let mut frontier = vec![AttrList::empty()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for list in &frontier {
            for &a in universe {
                if !list.contains(a) {
                    let extended = list.with_suffix(a);
                    next.push(extended.clone());
                    out.push(extended);
                }
            }
        }
        frontier = next;
    }
    out
}

/// Empirically audit the two defining properties of the witness table against
/// the exact decider, over all ODs with sides of length ≤ `max_len`:
///
/// * returns in `.0` the implied ODs that the table *falsifies* (soundness gaps —
///   must be empty),
/// * returns in `.1` the non-implied ODs that the table *satisfies*
///   (completeness gaps — must be empty).
pub fn completeness_gaps(
    m: &OdSet,
    table: &Relation,
    universe: &[AttrId],
    max_len: usize,
) -> (Vec<OrderDependency>, Vec<OrderDependency>) {
    let d = Decider::new(m);
    let mut soundness = Vec::new();
    let mut completeness = Vec::new();
    for od in enumerate_ods(universe, max_len) {
        let implied = d.implies(&od);
        let holds = od_core::check::od_holds(table, &od);
        if implied && !holds {
            soundness.push(od);
        } else if !implied && holds {
            completeness.push(od);
        }
    }
    (soundness, completeness)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn od(lhs: &[u32], rhs: &[u32]) -> OrderDependency {
        OrderDependency::new(
            lhs.iter().map(|&i| AttrId(i)).collect::<AttrList>(),
            rhs.iter().map(|&i| AttrId(i)).collect::<AttrList>(),
        )
    }

    fn schema(n: usize) -> Schema {
        let mut s = Schema::new("witness");
        for i in 0..n {
            s.add_attr(format!("a{i}"));
        }
        s
    }

    #[test]
    fn append_matches_figures_4_to_6() {
        // Figure 4 and Figure 5 appended give Figure 6.
        let s = schema(4);
        let t1 = Relation::from_rows(
            s.clone(),
            vec![
                vec![0, 0, 0, 0].into_iter().map(Value::Int).collect(),
                vec![0, 0, 1, 1].into_iter().map(Value::Int).collect(),
            ],
        )
        .unwrap();
        let t2 = Relation::from_rows(
            s.clone(),
            vec![
                vec![0, 1, 0, 0].into_iter().map(Value::Int).collect(),
                vec![1, 0, 0, 0].into_iter().map(Value::Int).collect(),
            ],
        )
        .unwrap();
        let combined = append(&t1, &t2);
        let expect: Vec<Vec<i64>> = vec![
            vec![0, 0, 0, 0],
            vec![0, 0, 1, 1],
            vec![2, 3, 2, 2],
            vec![3, 2, 2, 2],
        ];
        let got: Vec<Vec<i64>> = combined
            .iter()
            .map(|r| r.iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn append_introduces_no_cross_block_splits_or_swaps() {
        // Lemma 9: all values of the first block are below all values of the second.
        let s = schema(2);
        let t1 = Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::Int(5), Value::Int(7)],
                vec![Value::Int(6), Value::Int(5)],
            ],
        )
        .unwrap();
        let t2 = Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::Int(-3), Value::Int(0)],
                vec![Value::Int(2), Value::Int(-1)],
            ],
        )
        .unwrap();
        let c = append(&t1, &t2);
        let max1: i64 = c.tuples()[..2]
            .iter()
            .flat_map(|r| r.iter())
            .map(|v| v.as_int().unwrap())
            .max()
            .unwrap();
        let min2: i64 = c.tuples()[2..]
            .iter()
            .flat_map(|r| r.iter())
            .map(|v| v.as_int().unwrap())
            .min()
            .unwrap();
        assert!(max1 < min2);
    }

    #[test]
    fn witness_table_satisfies_and_completes_small_sets() {
        let s = schema(3);
        let m = OdSet::from_ods([od(&[0], &[1])]);
        let table = witness_table(&m, &s);
        assert!(m.satisfied_by(&table), "witness table must satisfy ℳ");
        let universe: Vec<AttrId> = s.attr_ids().collect();
        let (soundness, completeness) = completeness_gaps(&m, &table, &universe, 2);
        assert!(soundness.is_empty(), "implied ODs falsified: {soundness:?}");
        assert!(
            completeness.is_empty(),
            "non-implied ODs not falsified: {completeness:?}"
        );
    }

    #[test]
    fn witness_table_with_constants() {
        let s = schema(3);
        let mut m = OdSet::new();
        m.add_constant(AttrId(2));
        m.add_od(od(&[0], &[1]));
        let table = witness_table(&m, &s);
        assert!(m.satisfied_by(&table));
        let universe: Vec<AttrId> = s.attr_ids().collect();
        let (soundness, completeness) = completeness_gaps(&m, &table, &universe, 2);
        assert!(soundness.is_empty(), "{soundness:?}");
        assert!(completeness.is_empty(), "{completeness:?}");
    }

    #[test]
    fn witness_table_for_empty_m_falsifies_all_nontrivial_ods() {
        let s = schema(2);
        let m = OdSet::new();
        let table = witness_table(&m, &s);
        assert!(!od_core::check::od_holds(&table, &od(&[0], &[1])));
        assert!(!od_core::check::od_holds(&table, &od(&[1], &[0])));
        assert!(od_core::check::od_holds(&table, &od(&[0, 1], &[0])));
        let universe: Vec<AttrId> = s.attr_ids().collect();
        let (soundness, completeness) = completeness_gaps(&m, &table, &universe, 2);
        assert!(soundness.is_empty());
        assert!(completeness.is_empty());
    }

    #[test]
    fn violation_table_preserves_the_witnessed_violations() {
        // income ↦ bracket fails by swap (rows 1, 2) and bracket ↦ income by
        // split (rows 0, 2): the materialized pair tables must refute them too.
        let mut s = Schema::new("t");
        let income = s.add_attr("income");
        let bracket = s.add_attr("bracket");
        let rel = Relation::from_rows(
            s,
            vec![
                vec![Value::Int(10), Value::Int(1)],
                vec![Value::Int(20), Value::Int(2)],
                vec![Value::Int(30), Value::Int(1)],
            ],
        )
        .unwrap();
        let od = OrderDependency::new(vec![income], vec![bracket]);
        let violations = od_core::check::collect_violations(&rel, &od, 4);
        assert!(!violations.is_empty());
        let pairs: Vec<(usize, usize)> = violations.iter().map(|v| v.pair()).collect();
        let table = violation_table(&rel, &pairs);
        assert_eq!(table.len(), 2 * pairs.len());
        assert!(
            !od_core::check::od_holds(&table, &od),
            "witness table must refute the violated OD"
        );
        // A dependency the pairs do not witness against stays satisfied: the
        // blocks are append-composed, so no cross-block violations arise.
        let compatible = OrderDependency::new(vec![income], vec![income, bracket]);
        assert_eq!(
            od_core::check::od_holds(&table, &compatible),
            od_core::check::od_holds(&rel, &compatible)
        );
        // An empty sample produces an empty table.
        assert!(violation_table(&rel, &[]).is_empty());
    }

    #[test]
    fn enumerate_lists_counts() {
        let universe: Vec<AttrId> = (0..3).map(AttrId).collect();
        // 1 empty + 3 singletons + 6 pairs = 10 normalized lists of length ≤ 2.
        assert_eq!(enumerate_lists(&universe, 2).len(), 10);
        // Full permutations: 10 + 6 triples... length ≤ 3 adds 6 more.
        assert_eq!(enumerate_lists(&universe, 3).len(), 16);
        assert_eq!(enumerate_ods(&universe, 1).len(), 16);
    }
}
