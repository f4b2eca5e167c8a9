//! Property-based integration tests tying the axiom system to instance-level
//! semantics: every derived-theorem conclusion and every prover answer must be
//! consistent with satisfaction on arbitrary relations.

use od_core::check::od_holds;
use od_core::{AttrId, AttrList, OrderDependency, Relation, Schema, Value};
use od_infer::{theorems, Decider, OdSet, ProofBuilder};
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

fn list_strategy(cols: usize, max_len: usize) -> impl Strategy<Value = AttrList> {
    prop::collection::vec(0u32..cols as u32, 0..=max_len)
        .prop_map(|ids| ids.into_iter().map(AttrId).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Semantic soundness of the decider: if ℳ ⊨ goal (per the decider) and a
    /// relation satisfies ℳ, then the relation satisfies the goal.
    #[test]
    fn decider_answers_are_sound_on_instances(
        rel in relation_strategy(4, 7),
        lhs1 in list_strategy(4, 2), rhs1 in list_strategy(4, 2),
        lhs2 in list_strategy(4, 2), rhs2 in list_strategy(4, 2),
        glhs in list_strategy(4, 2), grhs in list_strategy(4, 2),
    ) {
        let m = OdSet::from_ods([
            OrderDependency::new(lhs1, rhs1),
            OrderDependency::new(lhs2, rhs2),
        ]);
        let goal = OrderDependency::new(glhs, grhs);
        if Decider::new(&m).implies(&goal) && m.satisfied_by(&rel) {
            prop_assert!(od_holds(&rel, &goal), "decider-implied OD violated on a model of ℳ");
        }
    }

    /// The derived theorems (Union / Eliminate / Left-Eliminate) produce
    /// conclusions that hold on every instance satisfying their premises, and
    /// their generated proofs verify.
    #[test]
    fn derived_theorems_are_sound_on_instances(
        rel in relation_strategy(4, 7),
        x in list_strategy(4, 2),
        y in list_strategy(4, 2),
        z in list_strategy(4, 1),
    ) {
        let premise = OrderDependency::new(x.clone(), y.clone());
        if od_holds(&rel, &premise) {
            // Union with itself: X ↦ YY.
            let mut b = ProofBuilder::new();
            let p = b.given(premise.clone());
            let u = theorems::union(&mut b, p, p);
            let union_concl = b.step(u).clone();
            // Eliminate: ZXYW ↔ ZXW with W = [].
            let (elim_fwd, elim_bwd) = theorems::eliminate(&mut b, p, &z, &AttrList::empty());
            let elim_f = b.step(elim_fwd).clone();
            let elim_b = b.step(elim_bwd).clone();
            // Left Eliminate: ZYXW ↔ ZXW with W = [].
            let (le_fwd, le_bwd) = theorems::left_eliminate(&mut b, p, &z, &AttrList::empty());
            let le_f = b.step(le_fwd).clone();
            let le_b = b.step(le_bwd).clone();
            let proof = b.finish();
            proof.verify(std::slice::from_ref(&premise)).unwrap();
            for concl in [union_concl, elim_f, elim_b, le_f, le_b] {
                prop_assert!(od_holds(&rel, &concl), "{concl} violated although {premise} holds");
            }
        }
    }

    /// Order-by reduction via the registry never changes query answers: the
    /// reduced list orders the original on every instance satisfying the
    /// declared OD set.
    #[test]
    fn reduce2_is_sound_on_instances(
        rel in relation_strategy(4, 7),
        declared_lhs in list_strategy(4, 1),
        declared_rhs in list_strategy(4, 1),
        order in list_strategy(4, 3),
    ) {
        let declared = OrderDependency::new(declared_lhs, declared_rhs);
        if !od_holds(&rel, &declared) {
            return Ok(());
        }
        let mut registry = od_optimizer::OdRegistry::new();
        registry.add_od("t", declared);
        let reduced = od_optimizer::reduce_order_by_od(&order, "t", &mut registry);
        // Sorting by the reduced list must yield a stream ordered by the original.
        let mut rows = rel.tuples();
        rows.sort_by(|a, b| od_core::lex_cmp(a, b, &reduced));
        for w in rows.windows(2) {
            prop_assert!(od_core::lex_le(&w[0], &w[1], &order));
        }
    }
}
