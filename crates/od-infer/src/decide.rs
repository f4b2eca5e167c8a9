//! Exact logical-implication decision for order dependencies.
//!
//! **Why two tuples are enough.**  Satisfaction of an OD is a condition on every
//! *pair* of tuples (Definition 4).  Consequently, if `ℳ ⊭ X ↦ Y` then some
//! relation `r` satisfies `ℳ` and contains a pair `s, t` violating `X ↦ Y`; the
//! two-tuple sub-relation `{s, t}` still satisfies `ℳ` (OD satisfaction is closed
//! under taking sub-relations) and still violates `X ↦ Y`.  A two-tuple relation,
//! in turn, is fully characterized — as far as any lexicographic comparison is
//! concerned — by one [`Orientation`] per attribute: whether the first tuple's
//! value is less than, equal to, or greater than the second tuple's value.
//!
//! The decider therefore searches the space of per-attribute orientations over
//! the mentioned attribute universe (3^|U| patterns, with backtracking and
//! early pruning) for a pattern that satisfies every OD in `ℳ` and falsifies the
//! goal.  If none exists the implication holds.  This gives a sound **and
//! complete** decision procedure, which the rest of the crate uses as the ground
//! truth: the axiomatic prover is checked against it, and the witness-table
//! construction queries it for membership in `ℳ⁺`.
//!
//! This mirrors the paper's own two-row split/swap analysis (Theorem 15 and the
//! constructions of Section 4); the exponential worst case is expected — OD
//! implication is co-NP-complete — but the mentioned universe is small in
//! practice (only attributes appearing in `ℳ` and the goal matter).

use crate::odset::OdSet;
use od_core::{
    AttrId, AttrList, AttrSet, OrderCompatibility, OrderDependency, OrderEquivalence, Relation,
    Schema, Tuple, Value,
};

/// Relationship between the two tuples' values on one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// `s[A] < t[A]`.
    Lt,
    /// `s[A] = t[A]`.
    Eq,
    /// `s[A] > t[A]`.
    Gt,
}

impl Orientation {
    /// The three orientations, in the order the search explores them.
    pub const ALL: [Orientation; 3] = [Orientation::Eq, Orientation::Lt, Orientation::Gt];

    fn flip(self) -> Orientation {
        match self {
            Orientation::Lt => Orientation::Gt,
            Orientation::Gt => Orientation::Lt,
            Orientation::Eq => Orientation::Eq,
        }
    }
}

/// A fully or partially specified two-tuple pattern: one orientation per
/// attribute of the universe (attributes are addressed by their dense ids).
#[derive(Debug, Clone)]
pub struct TwoTuplePattern {
    /// `None` = not yet assigned (only occurs during search).
    assignment: Vec<Option<Orientation>>,
}

impl TwoTuplePattern {
    /// A pattern with no attribute assigned yet, sized for `n_attrs` attributes.
    pub fn unassigned(n_attrs: usize) -> Self {
        TwoTuplePattern {
            assignment: vec![None; n_attrs],
        }
    }

    /// Build a fully specified pattern from explicit orientations.
    pub fn from_orientations(orients: &[(AttrId, Orientation)], n_attrs: usize) -> Self {
        let mut p = TwoTuplePattern::unassigned(n_attrs);
        for &(a, o) in orients {
            p.assignment[a.index()] = Some(o);
        }
        p
    }

    /// Orientation of an attribute, if assigned.
    pub fn orientation(&self, attr: AttrId) -> Option<Orientation> {
        self.assignment.get(attr.index()).copied().flatten()
    }

    /// Evaluate the lexicographic comparison of the two implicit tuples on an
    /// attribute list.  `None` means the comparison is not yet determined by the
    /// partial assignment.
    pub fn eval(&self, list: &AttrList) -> Option<Orientation> {
        for attr in list.iter() {
            match self.assignment.get(attr.index()).copied().flatten() {
                Some(Orientation::Eq) => continue,
                Some(o) => return Some(o),
                None => return None,
            }
        }
        Some(Orientation::Eq)
    }

    /// Whether the pattern (if fully determined on the relevant attributes)
    /// satisfies `X ↦ Y` for **both** ordered pairs `(s, t)` and `(t, s)`.
    ///
    /// Returns `None` when the partial assignment does not yet determine the
    /// answer, `Some(true/false)` otherwise.
    pub fn satisfies(&self, od: &OrderDependency) -> Option<bool> {
        let cx = self.eval(&od.lhs);
        let cy = self.eval(&od.rhs);
        match (cx, cy) {
            (Some(x), Some(y)) => Some(pair_ok(x, y) && pair_ok(x.flip(), y.flip())),
            // If the left side is already strictly oriented and the right side is
            // already strictly oriented the other way, the OD is definitely violated
            // regardless of unassigned attributes deeper in the lists.
            _ => None,
        }
    }

    /// True if the partial assignment already *guarantees* a violation of the OD.
    fn definitely_violates(&self, od: &OrderDependency) -> bool {
        matches!(self.satisfies(od), Some(false))
    }

    /// Materialize the pattern as a two-row relation over the given schema
    /// (attributes outside the pattern get equal values).  `s` is row 0, `t` row 1.
    pub fn to_relation(&self, schema: &Schema) -> Relation {
        Relation::from_rows(schema.clone(), self.rows(schema))
            .expect("pattern rows match schema arity")
    }

    /// The two rows of [`Self::to_relation`].
    pub(crate) fn rows(&self, schema: &Schema) -> Vec<Tuple> {
        let mut s_row = Vec::with_capacity(schema.arity());
        let mut t_row = Vec::with_capacity(schema.arity());
        for attr in schema.attr_ids() {
            let o = self.orientation(attr).unwrap_or(Orientation::Eq);
            let (a, b) = match o {
                Orientation::Lt => (0, 1),
                Orientation::Eq => (0, 0),
                Orientation::Gt => (1, 0),
            };
            s_row.push(Value::Int(a));
            t_row.push(Value::Int(b));
        }
        vec![s_row, t_row]
    }
}

/// `s ≼_X t ⇒ s ≼_Y t` for one ordered pair, given the two comparisons.
#[inline]
fn pair_ok(cx: Orientation, cy: Orientation) -> bool {
    // s ≼_X t  iff  cx != Gt.
    if cx == Orientation::Gt {
        true
    } else {
        cy != Orientation::Gt
    }
}

/// The exact implication decider for a fixed constraint set `ℳ`.
///
/// Construction pre-expands `ℳ` into plain ODs; each [`Decider::implies`] query
/// performs a backtracking search over two-tuple patterns.
#[derive(Debug, Clone)]
pub struct Decider {
    ods: Vec<OrderDependency>,
    universe: Vec<AttrId>,
    max_attr: usize,
}

impl Decider {
    /// Build a decider for the constraint set.
    pub fn new(m: &OdSet) -> Self {
        let ods = m.ods();
        let mut universe: Vec<AttrId> = m.attributes().into_iter().collect();
        universe.sort();
        let max_attr = universe.iter().map(|a| a.index() + 1).max().unwrap_or(0);
        Decider {
            ods,
            universe,
            max_attr,
        }
    }

    /// Number of attributes mentioned by `ℳ`.
    pub fn universe_size(&self) -> usize {
        self.universe.len()
    }

    /// Decide `ℳ ⊨ X ↦ Y`.
    pub fn implies(&self, goal: &OrderDependency) -> bool {
        self.counterexample(goal).is_none()
    }

    /// Decide `ℳ ⊨ X ↔ Y`.
    pub fn implies_equivalence(&self, eq: &OrderEquivalence) -> bool {
        eq.as_ods().iter().all(|od| self.implies(od))
    }

    /// Decide `ℳ ⊨ X ~ Y` (Definition 5).
    pub fn implies_compatibility(&self, c: &OrderCompatibility) -> bool {
        self.implies_equivalence(&c.as_equivalence())
    }

    /// Is the attribute a constant with respect to `ℳ` (Definition 18:
    /// `[] ↦ [A]` is in `ℳ⁺`)?
    pub fn is_constant(&self, attr: AttrId) -> bool {
        self.implies(&OrderDependency::new(AttrList::empty(), vec![attr]))
    }

    /// Decide `ℳ ⊨ 𝒞 : [] ↦ A` — is `A` constant within every equivalence class
    /// of the context set `𝒞`?  This is the set-based *constancy* statement of
    /// the FASTOD canonical form, equivalent to the list OD `C' ↦ C'A` for any
    /// linearization `C'` of the context (all linearizations are equivalent by
    /// the Permutation theorem).  Used by `od-setbased` as an implication-pruning
    /// hook: candidates implied by already-confirmed statements are never
    /// validated against data.
    pub fn implies_context_constancy(&self, context: &AttrSet, attr: AttrId) -> bool {
        if context.contains(attr) {
            return true;
        }
        let ctx: AttrList = context.iter().collect();
        self.implies(&OrderDependency::new(ctx.clone(), ctx.with_suffix(attr)))
    }

    /// Decide `ℳ ⊨ 𝒞 : A ~ B` — are `A` and `B` order compatible within every
    /// equivalence class of the context set `𝒞`?  This is the set-based
    /// *compatibility* statement of the FASTOD canonical form, equivalent to
    /// `C'A ~ C'B` for any linearization `C'` of the context.
    pub fn implies_context_compatibility(&self, context: &AttrSet, a: AttrId, b: AttrId) -> bool {
        if a == b || context.contains(a) || context.contains(b) {
            return true;
        }
        let ctx: AttrList = context.iter().collect();
        self.implies_compatibility(&OrderCompatibility::new(
            ctx.with_suffix(a),
            ctx.with_suffix(b),
        ))
    }

    /// Find a two-tuple counterexample to `ℳ ⊨ X ↦ Y`, if one exists.
    pub fn counterexample(&self, goal: &OrderDependency) -> Option<TwoTuplePattern> {
        search_counterexample(&self.ods, &self.universe, self.max_attr, goal)
    }
}

/// Find a two-tuple pattern satisfying every OD of `ods` and violating `goal`,
/// if one exists (the shared search behind [`Decider`] and [`DeciderBatch`]).
fn search_counterexample(
    ods: &[OrderDependency],
    universe: &[AttrId],
    max_attr: usize,
    goal: &OrderDependency,
) -> Option<TwoTuplePattern> {
    // The attributes that matter: those of ℳ plus those of the goal.
    let mut attrs: Vec<AttrId> = universe.to_vec();
    for a in goal.attributes() {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    }
    let width = attrs
        .iter()
        .map(|a| a.index() + 1)
        .max()
        .unwrap_or(0)
        .max(max_attr);
    // Explore goal attributes first so the goal check can fail fast.
    let mut order: Vec<AttrId> = Vec::with_capacity(attrs.len());
    for a in goal.lhs.iter().chain(goal.rhs.iter()) {
        if !order.contains(&a) {
            order.push(a);
        }
    }
    for a in attrs {
        if !order.contains(&a) {
            order.push(a);
        }
    }
    let mut pattern = TwoTuplePattern::unassigned(width);
    search(ods, &mut pattern, &order, 0, goal).then_some(pattern)
}

/// Depth-first search for a pattern satisfying every OD of `ods` and violating
/// `goal`.  Returns true (leaving the assignment in place) when one is found.
fn search(
    ods: &[OrderDependency],
    pattern: &mut TwoTuplePattern,
    order: &[AttrId],
    depth: usize,
    goal: &OrderDependency,
) -> bool {
    // Prune: if any constraint is already definitely violated, this branch is dead.
    if ods.iter().any(|od| pattern.definitely_violates(od)) {
        return false;
    }
    if depth == order.len() {
        // Fully assigned: every constraint is decided; require goal violated.
        return ods.iter().all(|od| pattern.satisfies(od) == Some(true))
            && pattern.satisfies(goal) == Some(false);
    }
    // If the goal is already decided as satisfied, no extension can violate it
    // only if all its attributes are assigned; `satisfies` is None otherwise,
    // so a Some(true) here is safe to prune on only when fully determined.
    if pattern.satisfies(goal) == Some(true)
        && goal
            .attributes()
            .iter()
            .all(|a| pattern.orientation(a).is_some())
    {
        return false;
    }
    let attr = order[depth];
    for o in Orientation::ALL {
        pattern.assignment[attr.index()] = Some(o);
        if search(ods, pattern, order, depth + 1, goal) {
            return true;
        }
    }
    pattern.assignment[attr.index()] = None;
    false
}

/// Cap on counterexample patterns a [`DeciderBatch`] keeps for reuse.
const WITNESS_CACHE_CAP: usize = 64;

/// Resolution counters of one [`DeciderBatch`] round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeciderBatchStats {
    /// Context-statement queries answered.
    pub queries: usize,
    /// Queries refuted by a cached counterexample pattern, search-free.
    pub witness_hits: usize,
    /// Backtracking searches actually run.
    pub searches: usize,
    /// Premises appended after construction.
    pub premises_added: usize,
}

/// One **batched decider round-trip**: a premise snapshot taken once (per
/// lattice level), grown incrementally with [`DeciderBatch::add_premise`], and
/// queried many times with **counterexample reuse**.
///
/// The per-candidate pattern the lattice used to follow — rebuild a
/// [`Decider`] after every confirmation, run a fresh exponential search per
/// query — priced each candidate at a full decider round-trip.  A batch
/// replaces that with one round-trip per level:
///
/// * premises are *appended* (an `OdSet` re-snapshot per confirmation is
///   gone); implication is monotone in the premise set, so every earlier
///   positive answer stays valid;
/// * every counterexample pattern found by a search is cached; a later query
///   refuted by a cached pattern costs an `O(|pattern|)` evaluation instead
///   of a `3^|U|` search.  Cached patterns satisfy every current premise by
///   construction (on `add_premise` the cache drops patterns the new premise
///   does not definitely satisfy), so a cached pattern violating a goal is a
///   genuine counterexample — answers are bit-identical to fresh
///   [`Decider`] queries, only the work changes.
///
/// Queries take `&mut self` (they may grow the witness cache); answers depend
/// only on the premises added so far, exactly like a fresh `Decider` over the
/// same set.
#[derive(Debug, Clone)]
pub struct DeciderBatch {
    ods: Vec<OrderDependency>,
    universe: Vec<AttrId>,
    max_attr: usize,
    witnesses: Vec<TwoTuplePattern>,
    /// How the round resolved its queries.
    pub stats: DeciderBatchStats,
}

impl DeciderBatch {
    /// Open a batch round over the premise snapshot `ℳ`.
    pub fn new(m: &OdSet) -> Self {
        let ods = m.ods();
        let mut universe: Vec<AttrId> = m.attributes().into_iter().collect();
        universe.sort();
        let max_attr = universe.iter().map(|a| a.index() + 1).max().unwrap_or(0);
        DeciderBatch {
            ods,
            universe,
            max_attr,
            witnesses: Vec::new(),
            stats: DeciderBatchStats::default(),
        }
    }

    /// Number of premises currently in force.
    pub fn premise_count(&self) -> usize {
        self.ods.len()
    }

    /// Append one confirmed OD to the premise set.
    ///
    /// Cached counterexamples that do not *definitely* satisfy the new premise
    /// are dropped (sound: a kept pattern still models every premise, so it
    /// still refutes whatever it violates).
    pub fn add_premise(&mut self, od: OrderDependency) {
        self.witnesses.retain(|w| w.satisfies(&od) == Some(true));
        for a in od.attributes() {
            if let Err(pos) = self.universe.binary_search(&a) {
                self.universe.insert(pos, a);
                self.max_attr = self.max_attr.max(a.index() + 1);
            }
        }
        self.ods.push(od);
        self.stats.premises_added += 1;
    }

    /// Decide `ℳ ⊨ goal` against the current premises, reusing and growing
    /// the counterexample cache.
    fn implies_od(&mut self, goal: &OrderDependency) -> bool {
        if self
            .witnesses
            .iter()
            .any(|w| w.satisfies(goal) == Some(false))
        {
            self.stats.witness_hits += 1;
            return false;
        }
        self.stats.searches += 1;
        match search_counterexample(&self.ods, &self.universe, self.max_attr, goal) {
            Some(pattern) => {
                if self.witnesses.len() < WITNESS_CACHE_CAP {
                    self.witnesses.push(pattern);
                }
                false
            }
            None => true,
        }
    }

    /// Batched form of [`Decider::implies_context_constancy`].
    pub fn implies_context_constancy(&mut self, context: &AttrSet, attr: AttrId) -> bool {
        self.stats.queries += 1;
        if context.contains(attr) {
            return true;
        }
        let ctx: AttrList = context.iter().collect();
        let goal = OrderDependency::new(ctx.clone(), ctx.with_suffix(attr));
        self.implies_od(&goal)
    }

    /// Batched form of [`Decider::implies_context_compatibility`].
    pub fn implies_context_compatibility(
        &mut self,
        context: &AttrSet,
        a: AttrId,
        b: AttrId,
    ) -> bool {
        self.stats.queries += 1;
        if a == b || context.contains(a) || context.contains(b) {
            return true;
        }
        let ctx: AttrList = context.iter().collect();
        OrderCompatibility::new(ctx.with_suffix(a), ctx.with_suffix(b))
            .as_equivalence()
            .as_ods()
            .iter()
            .all(|od| self.implies_od(od))
    }
}

/// Decide `ℳ ⊨ X ↦ Y` (convenience wrapper constructing a [`Decider`]).
pub fn implies(m: &OdSet, goal: &OrderDependency) -> bool {
    Decider::new(m).implies(goal)
}

/// Decide whether an OD is *trivial*: satisfied by every relation instance
/// (`∅ ⊨ X ↦ Y`).
pub fn is_trivial(od: &OrderDependency) -> bool {
    implies(&OdSet::new(), od)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(ids: &[u32]) -> AttrList {
        ids.iter().map(|&i| AttrId(i)).collect()
    }
    fn od(lhs: &[u32], rhs: &[u32]) -> OrderDependency {
        OrderDependency::new(l(lhs), l(rhs))
    }

    #[test]
    fn trivial_ods_are_implied_by_nothing() {
        assert!(is_trivial(&od(&[0, 1], &[0])));
        assert!(is_trivial(&od(&[0], &[])));
        assert!(is_trivial(&od(&[0, 1, 0], &[0, 1])));
        assert!(!is_trivial(&od(&[0], &[1])));
        assert!(!is_trivial(&od(&[0, 1], &[1])));
        assert!(!is_trivial(&od(&[], &[0])));
    }

    #[test]
    fn transitivity_is_recognized() {
        let m = OdSet::from_ods([od(&[0], &[1]), od(&[1], &[2])]);
        assert!(implies(&m, &od(&[0], &[2])));
        assert!(!implies(&m, &od(&[2], &[0])));
    }

    #[test]
    fn prefix_and_suffix_consequences() {
        let m = OdSet::from_ods([od(&[0], &[1])]);
        // Prefix: ZX ↦ ZY.
        assert!(implies(&m, &od(&[5, 0], &[5, 1])));
        // Suffix: X ↔ YX.
        assert!(implies(&m, &od(&[0], &[1, 0])));
        assert!(implies(&m, &od(&[1, 0], &[0])));
        // But not X ↦ XY's converse shapes that do not follow.
        assert!(!implies(&m, &od(&[1], &[0])));
    }

    #[test]
    fn union_and_eliminate_consequences() {
        // Example 5: income ↦ bracket, income ↦ payable  ⊨  income ↦ [bracket, payable].
        let m = OdSet::from_ods([od(&[0], &[1]), od(&[0], &[2])]);
        assert!(implies(&m, &od(&[0], &[1, 2])));
        assert!(implies(&m, &od(&[0], &[2, 1])));
        // Eliminate: month ↦ quarter ⊨ [year, month, quarter] ↔ [year, month].
        let m2 = OdSet::from_ods([od(&[1], &[2])]);
        assert!(implies(&m2, &od(&[0, 1, 2], &[0, 1])));
        assert!(implies(&m2, &od(&[0, 1], &[0, 1, 2])));
        // Left Eliminate (Theorem 8): [year, quarter, month] ↔ [year, month].
        assert!(implies(&m2, &od(&[0, 2, 1], &[0, 1])));
        assert!(implies(&m2, &od(&[0, 1], &[0, 2, 1])));
        // The intervening-attribute caveat from Section 2.3: D ↦ B justifies
        // ABD → AD but NOT ABCD → AD.
        let m3 = OdSet::from_ods([od(&[3], &[1])]);
        assert!(implies(&m3, &od(&[0, 1, 3], &[0, 3])));
        assert!(!implies(&m3, &od(&[0, 1, 2, 3], &[0, 3])));
    }

    #[test]
    fn fd_only_information_does_not_justify_order_rewrites() {
        // The Example 1 pitfall: month → quarter as an FD (month ↦ [month, quarter])
        // does NOT imply [year, quarter, month] ↔ [year, month].
        let fd_like = OdSet::from_ods([od(&[1], &[1, 2])]);
        assert!(!implies(&fd_like, &od(&[0, 1], &[0, 2, 1])));
        // Whereas the true OD month ↦ quarter does (previous test).
    }

    #[test]
    fn constants_are_detected() {
        let mut m = OdSet::new();
        m.add_constant(AttrId(3));
        let d = Decider::new(&m);
        assert!(d.is_constant(AttrId(3)));
        assert!(!d.is_constant(AttrId(0)));
        // A constant can be inserted anywhere in an ORDER BY.
        assert!(d.implies(&od(&[0], &[3, 0])));
        assert!(d.implies(&od(&[0], &[0, 3])));
    }

    #[test]
    fn compatibility_queries() {
        let m = OdSet::from_ods([od(&[0], &[1])]);
        let d = Decider::new(&m);
        assert!(d.implies_compatibility(&OrderCompatibility::new(l(&[0]), l(&[1]))));
        assert!(d.implies_equivalence(&OrderEquivalence::new(l(&[0]), l(&[1, 0]))));
        // Two unrelated attributes are not order compatible in general.
        let empty = Decider::new(&OdSet::new());
        assert!(!empty.implies_compatibility(&OrderCompatibility::new(l(&[0]), l(&[1]))));
    }

    #[test]
    fn context_statement_hooks_agree_with_list_level_queries() {
        // income ↦ bracket  ⊨  {} : income ~ bracket  and  {income} : [] ↦ bracket.
        let m = OdSet::from_ods([od(&[0], &[1])]);
        let d = Decider::new(&m);
        let ctx = |ids: &[u32]| ids.iter().map(|&i| AttrId(i)).collect::<AttrSet>();
        assert!(d.implies_context_compatibility(&ctx(&[]), AttrId(0), AttrId(1)));
        assert!(d.implies_context_constancy(&ctx(&[0]), AttrId(1)));
        // Neither follows for unrelated attributes.
        assert!(!d.implies_context_constancy(&ctx(&[0]), AttrId(2)));
        assert!(!d.implies_context_compatibility(&ctx(&[]), AttrId(0), AttrId(2)));
        // Context monotonicity: what holds in the empty context holds in larger ones.
        assert!(d.implies_context_compatibility(&ctx(&[2]), AttrId(0), AttrId(1)));
        // Trivial shapes never need a search.
        assert!(d.implies_context_constancy(&ctx(&[5]), AttrId(5)));
        assert!(d.implies_context_compatibility(&ctx(&[]), AttrId(7), AttrId(7)));
        assert!(d.implies_context_compatibility(&ctx(&[7]), AttrId(7), AttrId(2)));
    }

    #[test]
    fn counterexample_patterns_really_are_counterexamples() {
        let m = OdSet::from_ods([od(&[0], &[1])]);
        let d = Decider::new(&m);
        let goal = od(&[1], &[0]);
        let pattern = d.counterexample(&goal).expect("goal is not implied");
        // Materialize and check with the instance-level checker.
        let mut schema = Schema::new("cx");
        schema.add_attr("a0");
        schema.add_attr("a1");
        let rel = pattern.to_relation(&schema);
        assert!(m.satisfied_by(&rel));
        assert!(!od_core::check::od_holds(&rel, &goal));
    }

    #[test]
    fn chain_style_consequence() {
        // A ~ B together with the FDs A → B and B → A in OD form ([A] ↔ [B])
        // implies [A] ↦ [B].
        let m = OdSet::from_ods([od(&[0], &[1]), od(&[1], &[0])]);
        assert!(implies(&m, &od(&[0], &[1])));
        let d = Decider::new(&m);
        assert!(d.implies_equivalence(&OrderEquivalence::new(l(&[0]), l(&[1]))));
    }

    #[test]
    fn empty_goal_sides() {
        let m = OdSet::new();
        assert!(implies(&m, &od(&[0], &[])));
        assert!(implies(&m, &od(&[], &[])));
        assert!(!implies(&m, &od(&[], &[0])));
    }

    #[test]
    fn batch_answers_match_fresh_deciders_under_premise_growth() {
        // Replay a premise-growing sequence through one batch and compare
        // every answer against a fresh Decider over the same premise set.
        let premises = [od(&[0], &[1]), od(&[1], &[2]), od(&[3], &[0])];
        let ctx = |ids: &[u32]| ids.iter().map(|&i| AttrId(i)).collect::<AttrSet>();
        let queries: Vec<(AttrSet, u32, Option<u32>)> = vec![
            (ctx(&[0]), 1, None),
            (ctx(&[0]), 2, None),
            (ctx(&[]), 0, Some(1)),
            (ctx(&[]), 0, Some(2)),
            (ctx(&[2]), 1, Some(0)),
            (ctx(&[3]), 2, None),
            (ctx(&[1]), 3, None),
        ];
        let mut m = OdSet::new();
        let mut batch = DeciderBatch::new(&m);
        for premise in premises {
            for &(ref c, a, b) in &queries {
                let fresh = Decider::new(&m);
                match b {
                    None => assert_eq!(
                        batch.implies_context_constancy(c, AttrId(a)),
                        fresh.implies_context_constancy(c, AttrId(a)),
                        "constancy {c:?} ↦ {a} with {} premises",
                        batch.premise_count()
                    ),
                    Some(b) => assert_eq!(
                        batch.implies_context_compatibility(c, AttrId(a), AttrId(b)),
                        fresh.implies_context_compatibility(c, AttrId(a), AttrId(b)),
                        "compatibility {c:?}: {a} ~ {b} with {} premises",
                        batch.premise_count()
                    ),
                }
            }
            m.add_od(premise.clone());
            batch.add_premise(premise);
        }
        assert_eq!(batch.premise_count(), 3);
        assert_eq!(batch.stats.premises_added, 3);
        assert!(batch.stats.queries >= queries.len());
    }

    #[test]
    fn batch_reuses_counterexamples_across_queries() {
        // An empty premise set refutes every non-trivial constancy with the
        // same two-tuple shape: after the first search, later refutations
        // must come from the witness cache.
        let mut batch = DeciderBatch::new(&OdSet::new());
        let empty = AttrSet::new();
        assert!(!batch.implies_context_constancy(&empty, AttrId(0)));
        let searches_after_first = batch.stats.searches;
        assert!(!batch.implies_context_constancy(&empty, AttrId(0)));
        assert_eq!(batch.stats.searches, searches_after_first);
        assert!(batch.stats.witness_hits >= 1);
        // Trivial queries never search at all.
        let before = batch.stats.searches;
        assert!(batch.implies_context_constancy(&AttrSet::singleton(AttrId(5)), AttrId(5)));
        assert!(batch.implies_context_compatibility(&empty, AttrId(7), AttrId(7)));
        assert_eq!(batch.stats.searches, before);
    }

    #[test]
    fn batch_drops_witnesses_invalidated_by_new_premises() {
        // The counterexample to {}: [] ↦ #1 (two rows differing on #1) stops
        // modelling ℳ once [] ↦ #1 itself becomes a premise; the query must
        // flip to implied rather than reuse the stale pattern.
        let mut batch = DeciderBatch::new(&OdSet::new());
        let empty = AttrSet::new();
        assert!(!batch.implies_context_constancy(&empty, AttrId(1)));
        batch.add_premise(OrderDependency::new(AttrList::empty(), vec![AttrId(1)]));
        assert!(batch.implies_context_constancy(&empty, AttrId(1)));
        // And a constant slots into any compatibility.
        assert!(batch.implies_context_compatibility(&empty, AttrId(0), AttrId(1)));
    }
}
