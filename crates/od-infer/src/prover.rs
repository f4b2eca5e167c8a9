//! A goal-directed prover that combines the exact implication decider with
//! axiom-level proof construction.
//!
//! The paper's future-work section asks for a *theorem prover* that decides
//! `ℳ ⊨ X ↦ Y` efficiently.  [`Prover::prove`] answers every query exactly
//! (via [`crate::decide::Decider`], which is sound and complete) and additionally
//! tries to return an explicit axiom-level [`Proof`] for positive answers:
//!
//! 1. trivial goals (`∅ ⊨ X ↦ Y`) get a Reflexivity/Normalization proof,
//! 2. goals whose FD part *and* whose order-compatibility part both follow from
//!    the FD fragment get a constructive proof via [`crate::fd_bridge::prove_fd`]
//!    and the Eliminate/Left-Eliminate theorems,
//! 3. otherwise a bounded forward-chaining search over normalized ODs using
//!    Transitivity, Union, Suffix and goal-directed Prefix applications is run.
//!
//! When a goal is implied but no syntactic proof is found within the search
//! budget, [`Outcome::ImpliedSemantically`] is returned: the answer is still
//! definitive (the decider is complete), only the human-readable derivation is
//! missing.  Negative answers carry a two-tuple counterexample.

use crate::decide::{Decider, TwoTuplePattern};
use crate::odset::OdSet;
use crate::proof::{Proof, ProofBuilder};
use crate::theorems;
use od_core::OrderDependency;
use std::collections::BTreeMap;

/// Result of a [`Prover::prove`] call.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The goal is implied and an axiom-level proof was constructed.
    Proved(Proof),
    /// The goal is implied (the decider is complete) but the bounded proof
    /// search did not produce a derivation.
    ImpliedSemantically,
    /// The goal is not implied; the pattern is a two-tuple counterexample.
    NotImplied(TwoTuplePattern),
}

impl Outcome {
    /// True if the goal is a logical consequence of `ℳ`.
    pub fn is_implied(&self) -> bool {
        !matches!(self, Outcome::NotImplied(_))
    }

    /// The constructed proof, if any.
    pub fn proof(&self) -> Option<&Proof> {
        match self {
            Outcome::Proved(p) => Some(p),
            _ => None,
        }
    }
}

/// Forward chaining stops growing once it holds more derived ODs than this.
const MAX_DERIVED: usize = 4_000;

/// Forward chaining runs at most this many rounds.
const MAX_ROUNDS: usize = 4;

/// Prover for a fixed `ℳ`.
#[derive(Debug, Clone)]
pub struct Prover {
    decider: Decider,
}

impl Prover {
    /// Build a prover for `ℳ`.
    pub fn new(m: &OdSet) -> Self {
        Prover {
            decider: Decider::new(m),
        }
    }

    /// Access the underlying exact decider.
    pub fn decider(&self) -> &Decider {
        &self.decider
    }

    /// Decide (exactly) and, when implied, attempt to construct a proof.
    pub fn prove(&self, goal: &OrderDependency) -> Outcome {
        if let Some(cx) = self.decider.counterexample(goal) {
            return Outcome::NotImplied(cx);
        }
        if let Some(p) = trivial_proof(goal) {
            return Outcome::Proved(p);
        }
        if let Some(p) = self.forward_chain(goal) {
            return Outcome::Proved(p);
        }
        Outcome::ImpliedSemantically
    }

    /// Convenience: does `ℳ ⊨ goal`?
    pub fn implies(&self, goal: &OrderDependency) -> bool {
        self.decider.implies(goal)
    }

    /// Bounded forward chaining producing one growing proof; returns the proof
    /// truncated at the goal step when the goal (up to normalization of both
    /// sides) is reached.
    fn forward_chain(&self, goal: &OrderDependency) -> Option<Proof> {
        let mut b = ProofBuilder::new();
        // Known ODs, keyed by their normalized form, mapped to the proving
        // step.  Ordered, so the capped search derives the same ODs — and
        // returns the same proof — on every call.
        let mut known: BTreeMap<OrderDependency, usize> = BTreeMap::new();

        let add =
            |b: &mut ProofBuilder, known: &mut BTreeMap<OrderDependency, usize>, idx: usize| {
                let od = b.step(idx).normalize();
                known.entry(od).or_insert(idx);
            };

        for od in self.decider.premises() {
            let g = b.given(od.clone());
            add(&mut b, &mut known, g);
            // Suffix both ways is cheap and frequently needed.
            let sf = b.suffix_forward(g);
            add(&mut b, &mut known, sf);
            let sb = b.suffix_backward(g);
            add(&mut b, &mut known, sb);
        }
        let goal_norm = goal.normalize();

        for _ in 0..MAX_ROUNDS {
            if known.len() > MAX_DERIVED {
                break;
            }
            let snapshot: Vec<(OrderDependency, usize)> =
                known.iter().map(|(k, v)| (k.clone(), *v)).collect();
            // Goal-directed Prefix: prepend prefixes of the goal's left side.
            for (od, idx) in &snapshot {
                for plen in 1..=goal_norm.lhs.len() {
                    let z = goal_norm.lhs.prefix(plen);
                    if z.concat(&od.lhs).normalize().len() <= goal_norm.lhs.len() + 2 {
                        let p = b.prefix(z, *idx);
                        add(&mut b, &mut known, p);
                    }
                }
            }
            // Transitivity and Union over all pairs (on the normalized forms).
            let snapshot: Vec<(OrderDependency, usize)> =
                known.iter().map(|(k, v)| (k.clone(), *v)).collect();
            for (od1, i1) in &snapshot {
                for (od2, i2) in &snapshot {
                    if known.len() > MAX_DERIVED {
                        break;
                    }
                    if od1.rhs == od2.lhs {
                        // Chain the two steps; if their concrete lists differ only up
                        // to normalization, bridge with an OD3 step first.
                        let t = if b.step(*i1).rhs == b.step(*i2).lhs {
                            b.transitivity(*i1, *i2)
                        } else {
                            let n =
                                b.normalization(b.step(*i1).rhs.clone(), b.step(*i2).lhs.clone());
                            let t1 = b.transitivity(*i1, n);
                            b.transitivity(t1, *i2)
                        };
                        add(&mut b, &mut known, t);
                    }
                    if od1.lhs == od2.lhs && b.step(*i1).lhs == b.step(*i2).lhs {
                        let u = theorems::union(&mut b, *i1, *i2);
                        add(&mut b, &mut known, u);
                    }
                }
            }
            // Bridge normalization differences towards the goal.
            if let Some(&idx) = known.get(&goal_norm) {
                // known step concludes an OD normalizing to the goal's normalization;
                // glue Normalization steps on both sides to reach the goal verbatim.
                let found = b.step(idx).clone();
                let n1 = b.normalization(goal.lhs.clone(), found.lhs.clone());
                let t1 = b.transitivity(n1, idx);
                let n2 = b.normalization(found.rhs.clone(), goal.rhs.clone());
                let last = b.transitivity(t1, n2);
                debug_assert_eq!(b.step(last), goal);
                let proof = b.finish();
                return Some(proof);
            }
        }
        None
    }
}

/// A proof for a trivial OD (`∅ ⊨ X ↦ Y`), i.e. one whose normalized right-hand
/// side is a prefix of its normalized left-hand side: `X ↦ norm(X) ↦ norm(Y) ↦ Y`
/// by Normalization, Reflexivity, Normalization.
pub fn trivial_proof(goal: &OrderDependency) -> Option<Proof> {
    let ln = goal.lhs.normalize();
    let rn = goal.rhs.normalize();
    if !rn.is_prefix_of(&ln) {
        return None;
    }
    let mut b = ProofBuilder::new();
    let s1 = b.normalization(goal.lhs.clone(), ln.clone());
    let s2 = b.reflexivity(ln, rn.clone());
    let t1 = b.transitivity(s1, s2);
    let s3 = b.normalization(rn, goal.rhs.clone());
    b.transitivity(t1, s3);
    Some(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide;
    use od_core::{AttrId, AttrList};

    fn od(lhs: &[u32], rhs: &[u32]) -> OrderDependency {
        OrderDependency::new(
            lhs.iter().map(|&i| AttrId(i)).collect::<AttrList>(),
            rhs.iter().map(|&i| AttrId(i)).collect::<AttrList>(),
        )
    }

    #[test]
    fn trivial_goals_get_proofs() {
        let p = Prover::new(&OdSet::new());
        for goal in [
            od(&[0, 1], &[0]),
            od(&[0], &[]),
            od(&[0, 1, 0], &[0, 1]),
            od(&[2], &[2, 2]),
        ] {
            match p.prove(&goal) {
                Outcome::Proved(proof) => {
                    proof.verify(&[]).unwrap();
                    assert_eq!(proof.conclusion().unwrap(), &goal);
                }
                other => panic!("expected a proof for trivial {goal}, got {other:?}"),
            }
        }
    }

    #[test]
    fn syntactic_triviality_matches_semantic_triviality() {
        // Exhaustive over small lists on 3 attributes.
        let universe: Vec<AttrId> = (0..3).map(AttrId).collect();
        for goal in crate::witness::enumerate_ods(&universe, 2) {
            assert_eq!(
                goal.is_syntactically_trivial(),
                decide::is_trivial(&goal),
                "mismatch for {goal}"
            );
        }
    }

    #[test]
    fn repeated_proofs_of_a_chain_are_identical() {
        // The derived-OD cap cuts the search mid-round, so what it derives
        // must not depend on iteration order: every call gives one proof.
        for n in [4u32, 6] {
            let m = OdSet::from_ods((0..n - 1).map(|i| od(&[i], &[i + 1])));
            let goal = od(&[0], &[n - 1]);
            let first = Prover::new(&m).prove(&goal);
            let first = first.proof().expect("the chain goal is proved").steps();
            for _ in 0..3 {
                let again = Prover::new(&m).prove(&goal);
                assert_eq!(
                    again.proof().map(|p| p.steps()),
                    Some(first),
                    "chain of {n}"
                );
            }
        }
    }

    #[test]
    fn transitive_goals_are_proved() {
        let m = OdSet::from_ods([od(&[0], &[1]), od(&[1], &[2])]);
        let p = Prover::new(&m);
        match p.prove(&od(&[0], &[2])) {
            Outcome::Proved(proof) => {
                proof.verify(&m.ods()).unwrap();
                assert_eq!(proof.conclusion().unwrap(), &od(&[0], &[2]));
            }
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn union_style_goals_are_proved() {
        let m = OdSet::from_ods([od(&[0], &[1]), od(&[0], &[2])]);
        let p = Prover::new(&m);
        let outcome = p.prove(&od(&[0], &[1, 2]));
        assert!(outcome.is_implied());
        if let Some(proof) = outcome.proof() {
            proof.verify(&m.ods()).unwrap();
        }
    }

    #[test]
    fn non_consequences_return_counterexamples() {
        let m = OdSet::from_ods([od(&[0], &[1])]);
        let p = Prover::new(&m);
        match p.prove(&od(&[1], &[0])) {
            Outcome::NotImplied(pattern) => {
                let mut schema = od_core::Schema::new("cx");
                schema.add_attr("a");
                schema.add_attr("b");
                let rel = pattern.to_relation(&schema);
                assert!(m.satisfied_by(&rel));
                assert!(!od_core::check::od_holds(&rel, &od(&[1], &[0])));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
        assert!(!p.implies(&od(&[1], &[0])));
        assert!(p.implies(&od(&[0], &[1, 0])));
    }

    #[test]
    fn every_constructed_proof_is_sound() {
        // Whatever the prover returns must verify and must be decider-implied.
        let m = OdSet::from_ods([od(&[0], &[1]), od(&[1], &[2]), od(&[3], &[0])]);
        let p = Prover::new(&m);
        let universe: Vec<AttrId> = (0..4).map(AttrId).collect();
        for goal in crate::witness::enumerate_ods(&universe, 2) {
            match p.prove(&goal) {
                Outcome::Proved(proof) => {
                    proof
                        .verify(&m.ods())
                        .unwrap_or_else(|e| panic!("proof for {goal} failed verification: {e}"));
                    assert!(p.implies(&goal));
                }
                Outcome::ImpliedSemantically => assert!(p.implies(&goal)),
                Outcome::NotImplied(_) => assert!(!p.implies(&goal)),
            }
        }
    }
}
