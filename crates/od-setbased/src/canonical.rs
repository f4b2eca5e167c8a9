//! The set-based canonical form of order dependencies and the exact
//! translation between it and the paper's list-based statements.
//!
//! Following the FASTOD line of work (*Effective and Complete Discovery of
//! Order Dependencies via Set-based Axiomatization*), every list-based OD is
//! equivalent to a conjunction of two kinds of **context statements** over
//! attribute *sets*:
//!
//! * [`SetOd::Constancy`] — `𝒞 : [] ↦ A`: within every equivalence class of the
//!   context `𝒞`, attribute `A` is constant.  (`𝒞 : [] ↦ A` ⟺ the FD `𝒞 → A`.)
//! * [`SetOd::Compatibility`] — `𝒞 : A ~ B`: within every class of `𝒞`, the
//!   attributes `A` and `B` are order compatible (no swap).
//!
//! The translation implemented by [`translate_od`] (and, into a reused buffer,
//! [`translate_into`]) is:
//!
//! ```text
//! [A1..An] ↦ [B1..Bm]   ⟺   { set(X) : [] ↦ Bj                        | j ≤ m }
//!                          ∪ { {A1..Ai-1} ∪ {B1..Bj-1} : Ai ~ Bj      | i ≤ n, j ≤ m }
//! ```
//!
//! The first family forbids **splits** (Definition 13 — it is exactly the FD
//! `set(X) → set(Y)` of the paper's Lemma 1), the second forbids **swaps**
//! (Definition 14): a swap pair agrees on some prefix of `X` and some prefix of
//! `Y` and inverts the next attribute of each, which is precisely a violation
//! of the context statement at that position pair.  [`constancy_as_od`] and
//! [`compatibility_as_ods`] translate back; the round trip is exercised against
//! the split/swap checker in this module's tests and the crate's proptests.

use od_core::{AttrId, AttrList, AttrSet, OrderDependency, Schema};
use std::fmt;

/// A canonical set-based OD statement (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SetOd {
    /// `𝒞 : [] ↦ A` — `A` is constant within every class of context `𝒞`.
    Constancy {
        /// The context set `𝒞`.
        context: AttrSet,
        /// The constant attribute.
        attr: AttrId,
    },
    /// `𝒞 : A ~ B` — `A` and `B` are order compatible within every class of
    /// `𝒞`.  Stored with `a < b` (the statement is symmetric).
    Compatibility {
        /// The context set `𝒞`.
        context: AttrSet,
        /// Smaller attribute of the (unordered) pair.
        a: AttrId,
        /// Larger attribute of the pair.
        b: AttrId,
    },
}

impl SetOd {
    /// Build a constancy statement.
    pub fn constancy(context: AttrSet, attr: AttrId) -> Self {
        SetOd::Constancy { context, attr }
    }

    /// Build a compatibility statement (normalizing the pair order).
    pub fn compatibility(context: AttrSet, a: AttrId, b: AttrId) -> Self {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        SetOd::Compatibility { context, a, b }
    }

    /// The context set of the statement.
    pub fn context(&self) -> &AttrSet {
        match self {
            SetOd::Constancy { context, .. } | SetOd::Compatibility { context, .. } => context,
        }
    }

    /// A misordered compatibility pair (the enum fields are public, so callers
    /// can construct `a > b` directly) normalized to the canonical `a ≤ b`
    /// form; `None` when the statement is already canonical.  Lookup paths
    /// call this so hand-built statements match discovered ones.
    pub fn normalized(&self) -> Option<SetOd> {
        match self {
            SetOd::Compatibility { context, a, b } if a > b => {
                Some(SetOd::compatibility(*context, *a, *b))
            }
            _ => None,
        }
    }

    /// True if the statement holds on **every** instance: the mentioned
    /// attribute(s) already appear in the context (values inside a context
    /// class are constant on context attributes), or the pair is reflexive.
    pub fn is_trivial(&self) -> bool {
        match self {
            SetOd::Constancy { context, attr } => context.contains(attr),
            SetOd::Compatibility { context, a, b } => {
                a == b || context.contains(a) || context.contains(b)
            }
        }
    }

    /// Does this statement subsume `query` by **context monotonicity** (the
    /// same constancy or compatibility over a subset context) or because a
    /// **constancy implies a compatibility** (if `𝒞 : [] ↦ A` holds, `A` never
    /// swaps against anything inside `𝒞`'s classes)?  Sound on every
    /// instance; pure mask arithmetic.  Both statements are expected in
    /// canonical `a ≤ b` form.
    pub fn subsumes(&self, query: &SetOd) -> bool {
        let ctx = query.context();
        match (self, query) {
            (SetOd::Constancy { context, attr }, SetOd::Constancy { attr: qattr, .. }) => {
                attr == qattr && context.is_subset(ctx)
            }
            (SetOd::Compatibility { context, a, b }, SetOd::Compatibility { a: qa, b: qb, .. }) => {
                a == qa && b == qb && context.is_subset(ctx)
            }
            (SetOd::Constancy { context, attr }, SetOd::Compatibility { a: qa, b: qb, .. }) => {
                (attr == qa || attr == qb) && context.is_subset(ctx)
            }
            (SetOd::Compatibility { .. }, SetOd::Constancy { .. }) => false,
        }
    }

    /// The equivalent list-based OD(s): one OD for a constancy, the two
    /// direction ODs of the defining equivalence for a compatibility.
    pub fn as_list_ods(&self) -> Vec<OrderDependency> {
        match self {
            SetOd::Constancy { context, attr } => vec![constancy_as_od(context, *attr)],
            SetOd::Compatibility { context, a, b } => {
                compatibility_as_ods(context, *a, *b).to_vec()
            }
        }
    }

    /// Render with attribute names resolved against a schema.
    pub fn display(&self, schema: &Schema) -> String {
        let ctx = |c: &AttrSet| {
            let names: Vec<&str> = c.iter().map(|a| schema.attr_name(a)).collect();
            format!("{{{}}}", names.join(", "))
        };
        match self {
            SetOd::Constancy { context, attr } => {
                format!("{} : [] ↦ {}", ctx(context), schema.attr_name(*attr))
            }
            SetOd::Compatibility { context, a, b } => format!(
                "{} : {} ~ {}",
                ctx(context),
                schema.attr_name(*a),
                schema.attr_name(*b)
            ),
        }
    }
}

impl fmt::Display for SetOd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ctx = |c: &AttrSet| {
            let parts: Vec<String> = c.iter().map(|a| a.to_string()).collect();
            format!("{{{}}}", parts.join(", "))
        };
        match self {
            SetOd::Constancy { context, attr } => write!(f, "{} : [] ↦ {attr}", ctx(context)),
            SetOd::Compatibility { context, a, b } => {
                write!(f, "{} : {a} ~ {b}", ctx(context))
            }
        }
    }
}

/// The list OD `C' ↦ C'A` stating `𝒞 : [] ↦ A` (any linearization `C'` of the
/// context is equivalent by the Permutation theorem; ascending id order is the
/// canonical representative).
pub fn constancy_as_od(context: &AttrSet, attr: AttrId) -> OrderDependency {
    let ctx: AttrList = context.iter().collect();
    OrderDependency::new(ctx.clone(), ctx.with_suffix(attr))
}

/// The two list ODs whose conjunction states `𝒞 : A ~ B`
/// (`C'AB ↔ C'BA`, Definition 5 applied under the context).
pub fn compatibility_as_ods(context: &AttrSet, a: AttrId, b: AttrId) -> [OrderDependency; 2] {
    let ctx: AttrList = context.iter().collect();
    let cab = ctx.with_suffix(a).with_suffix(b);
    let cba = ctx.with_suffix(b).with_suffix(a);
    [
        OrderDependency::new(cab.clone(), cba.clone()),
        OrderDependency::new(cba, cab),
    ]
}

/// Translate a list-based OD into the equivalent conjunction of canonical
/// set-based statements (trivial statements are omitted).
///
/// The OD is normalized first (axiom OD3 — duplicate attribute occurrences are
/// semantically redundant).  The result is empty exactly when the OD holds on
/// every instance *for syntactic reasons* covered by the mapping (e.g. `X ↦ []`).
pub fn translate_od(od: &OrderDependency) -> Vec<SetOd> {
    let od = od.normalize();
    let mut out = Vec::new();
    translate_into(od.lhs.as_slice(), od.rhs.as_slice(), &mut out);
    out
}

/// [`translate_od`] for duplicate-free sides, into a reused buffer: clears
/// `out`, then fills it with the canonical statements of `lhs ↦ rhs`, sorted
/// and without duplicates.  Contexts are built as [`AttrSet`] masks, so a
/// call allocates only when `out` must grow.
pub fn translate_into(lhs: &[AttrId], rhs: &[AttrId], out: &mut Vec<SetOd>) {
    out.clear();
    // Split freedom: every RHS attribute is constant within Π_set(X).
    let lhs_set: AttrSet = lhs.iter().copied().collect();
    for &b in rhs {
        let stmt = SetOd::constancy(lhs_set, b);
        if !stmt.is_trivial() {
            out.push(stmt);
        }
    }
    // Swap freedom: each (Ai, Bj) pair is compatible within the context of the
    // preceding prefixes.
    let mut lhs_prefix = AttrSet::new();
    for &a in lhs {
        let mut context = lhs_prefix;
        for &b in rhs {
            let stmt = SetOd::compatibility(context, a, b);
            if !stmt.is_trivial() {
                out.push(stmt);
            }
            context.insert(b);
        }
        lhs_prefix.insert(a);
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::check::od_holds;
    use od_core::{Relation, Value};

    fn l(ids: &[u32]) -> AttrList {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    fn set(ids: &[u32]) -> AttrSet {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn trivial_statements_are_recognized() {
        assert!(SetOd::constancy(set(&[1, 2]), AttrId(1)).is_trivial());
        assert!(!SetOd::constancy(set(&[1, 2]), AttrId(3)).is_trivial());
        assert!(SetOd::compatibility(set(&[]), AttrId(4), AttrId(4)).is_trivial());
        assert!(SetOd::compatibility(set(&[4]), AttrId(4), AttrId(5)).is_trivial());
        assert!(!SetOd::compatibility(set(&[0]), AttrId(4), AttrId(5)).is_trivial());
    }

    #[test]
    fn subsumption_is_context_monotone_and_constancy_covers_compatibility() {
        let (a, b, c) = (AttrId(0), AttrId(1), AttrId(2));
        let constancy = SetOd::constancy(set(&[2]), a);
        let compatibility = SetOd::compatibility(set(&[2]), a, b);
        // Context monotonicity, including the statement itself.
        assert!(constancy.subsumes(&constancy));
        assert!(constancy.subsumes(&SetOd::constancy(set(&[2, 3]), a)));
        assert!(!constancy.subsumes(&SetOd::constancy(set(&[]), a)));
        assert!(!constancy.subsumes(&SetOd::constancy(set(&[2]), b)));
        assert!(compatibility.subsumes(&SetOd::compatibility(set(&[2, 3]), b, a)));
        assert!(!compatibility.subsumes(&SetOd::compatibility(set(&[3]), a, b)));
        assert!(!compatibility.subsumes(&SetOd::compatibility(set(&[2]), a, c)));
        // A constancy of either pair attribute covers the compatibility, never
        // the other way round.
        assert!(constancy.subsumes(&compatibility));
        assert!(constancy.subsumes(&SetOd::compatibility(set(&[2, 3]), a, AttrId(4))));
        assert!(!constancy.subsumes(&SetOd::compatibility(set(&[]), a, b)));
        assert!(!compatibility.subsumes(&SetOd::constancy(set(&[2]), a)));
    }

    #[test]
    fn compatibility_normalizes_pair_order() {
        assert_eq!(
            SetOd::compatibility(set(&[]), AttrId(5), AttrId(2)),
            SetOd::compatibility(set(&[]), AttrId(2), AttrId(5)),
        );
    }

    #[test]
    fn translation_of_a_simple_od() {
        // [A] ↦ [B]: split part {A}: [] ↦ B, swap part {}: A ~ B.
        let stmts = translate_od(&OrderDependency::new(l(&[0]), l(&[1])));
        assert_eq!(
            stmts,
            vec![
                SetOd::constancy(set(&[0]), AttrId(1)),
                SetOd::compatibility(set(&[]), AttrId(0), AttrId(1)),
            ]
        );
    }

    #[test]
    fn translation_of_width_two_od() {
        // [A,B] ↦ [C,D] has 2 constancies and 4 contextual compatibilities.
        let stmts = translate_od(&OrderDependency::new(l(&[0, 1]), l(&[2, 3])));
        assert_eq!(stmts.len(), 6);
        assert!(stmts.contains(&SetOd::constancy(set(&[0, 1]), AttrId(2))));
        assert!(stmts.contains(&SetOd::constancy(set(&[0, 1]), AttrId(3))));
        assert!(stmts.contains(&SetOd::compatibility(set(&[]), AttrId(0), AttrId(2))));
        assert!(stmts.contains(&SetOd::compatibility(set(&[2]), AttrId(0), AttrId(3))));
        assert!(stmts.contains(&SetOd::compatibility(set(&[0]), AttrId(1), AttrId(2))));
        assert!(stmts.contains(&SetOd::compatibility(set(&[0, 2]), AttrId(1), AttrId(3))));
    }

    #[test]
    fn trivial_ods_translate_to_nothing() {
        assert!(translate_od(&OrderDependency::new(l(&[0, 1]), l(&[0]))).is_empty());
        assert!(translate_od(&OrderDependency::new(l(&[0]), l(&[]))).is_empty());
        assert!(translate_od(&OrderDependency::new(l(&[0, 1, 0]), l(&[0, 1]))).is_empty());
    }

    #[test]
    fn translate_into_clears_and_refills_a_reused_buffer() {
        let mut out = vec![SetOd::constancy(set(&[7]), AttrId(8))];
        translate_into(&[AttrId(0), AttrId(1)], &[AttrId(2), AttrId(3)], &mut out);
        assert_eq!(
            out,
            translate_od(&OrderDependency::new(l(&[0, 1]), l(&[2, 3])))
        );
        translate_into(&[AttrId(0), AttrId(1)], &[AttrId(0)], &mut out);
        assert!(out.is_empty(), "a trivial OD leaves nothing behind");
    }

    #[test]
    fn overlapping_sides_translate_without_trivial_noise() {
        // [A] ↦ [B, A]: {A}: [] ↦ B and {}: A ~ B survive; A-related trivia do not.
        let stmts = translate_od(&OrderDependency::new(l(&[0]), l(&[1, 0])));
        assert_eq!(
            stmts,
            vec![
                SetOd::constancy(set(&[0]), AttrId(1)),
                SetOd::compatibility(set(&[]), AttrId(0), AttrId(1)),
            ]
        );
    }

    #[test]
    fn back_translation_round_trips_on_instances() {
        // Build a relation where {}: A ~ B fails but {C}: A ~ B holds.
        let mut schema = od_core::Schema::new("t");
        let a = schema.add_attr("A");
        let b = schema.add_attr("B");
        let c = schema.add_attr("C");
        let rel = Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(0), Value::Int(1), Value::Int(0)],
                vec![Value::Int(1), Value::Int(0), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2), Value::Int(1)],
            ],
        )
        .unwrap();
        // {}: A ~ B is violated by rows 0 and 1.
        let [fwd, _] = compatibility_as_ods(&set(&[]), a, b);
        assert!(!od_holds(&rel, &fwd), "swap between rows 0 and 1");
        // {C}: A ~ B holds (each C-class is internally compatible).
        for od in compatibility_as_ods(&set(&[c.0]), a, b) {
            assert!(od_holds(&rel, &od));
        }
        // Constancy: {A}: [] ↦ B holds (A is a key here).
        assert!(od_holds(&rel, &constancy_as_od(&set(&[a.0]), b)));
    }
}
