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
//! **The indexed search.**  The search assigns the goal's attributes first,
//! then the rest of the universe, trying `Eq`, `Lt`, `Gt` at each.  A
//! comparison on a list is fixed as soon as the pattern decides it (the first
//! strict orientation, or every attribute `Eq`), and deeper assignments never
//! touch an assigned attribute, so a decided premise or goal stays decided
//! below.  Two cuts follow, and both are exact: they remove only subtrees
//! without a counterexample, so the search returns the same first pattern as
//! the plain depth-first walk.
//!
//! * After assigning attribute `A`, only the premises that mention `A` are
//!   checked for a definite violation: every other premise has the status it
//!   had at the parent node, which passed.  The decider keeps, per attribute,
//!   the premises that mention it.
//! * A branch ends as soon as the goal is decided as satisfied: no extension
//!   can violate it.  At a leaf every premise is decided and none is
//!   violated, so only the goal's violation is left to check.
//!
//! This mirrors the paper's own two-row split/swap analysis (Theorem 15 and the
//! constructions of Section 4); the exponential worst case is expected — OD
//! implication is co-NP-complete — but the mentioned universe is small in
//! practice (only attributes appearing in `ℳ` and the goal matter).
//!
//! One [`Decider`] serves a premise set that only grows.  Callers that
//! confirm ODs one at a time — the lattice, list discovery, the optimizer
//! registry — append each with [`Decider::add_premise`] rather than keep a
//! copy of `ℳ` and rebuild.  The context-statement queries the lattice asks
//! keep the counterexample patterns their searches find and try them before
//! searching again.

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
            // One side's comparison still waits on an unassigned attribute.
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

/// Cap on counterexample patterns a [`Decider`] keeps for reuse.
const WITNESS_CACHE_CAP: usize = 64;

/// How a [`Decider`]'s context-statement queries were resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeciderStats {
    /// Queries refuted by a cached counterexample pattern, search-free.
    pub witness_hits: usize,
    /// Backtracking searches those queries ran.
    pub searches: usize,
}

/// The exact implication decider for a growing constraint set `ℳ`.
///
/// Construction expands `ℳ` into plain ODs; [`Decider::add_premise`] appends
/// more.  Implication is monotone in the premise set, so an answer given
/// earlier can only turn from "not implied" to "implied" as premises grow.
/// Each [`Decider::implies`] query is one backtracking search over two-tuple
/// patterns.
///
/// Attribute ids in premises and goals must lie below
/// [`AttrSet::MAX_ATTRS`]: the premises' attributes are kept as an
/// [`AttrSet`], and a search sizes its pattern by the largest id it meets.
///
/// The context-statement queries ([`Decider::implies_context_constancy`],
/// [`Decider::implies_context_compatibility`]) also keep the counterexample
/// patterns their searches find and try them before searching again: a
/// cached pattern that violates a goal refutes it in `O(|pattern|)` instead
/// of a `3^|U|` search.  Every cached pattern models every premise —
/// `add_premise` drops the patterns the new premise does not definitely
/// satisfy — so the answers are those of a fresh `Decider` over the same
/// premises; only the work changes.
#[derive(Debug, Clone)]
pub struct Decider {
    ods: Vec<OrderDependency>,
    /// Per attribute id, the indices into `ods` of the premises mentioning it.
    by_attr: Vec<Vec<usize>>,
    universe: Vec<AttrId>,
    witnesses: Vec<TwoTuplePattern>,
    /// How the context-statement queries were resolved.
    pub stats: DeciderStats,
}

impl Decider {
    /// Build a decider for the constraint set.
    pub fn new(m: &OdSet) -> Self {
        let mut decider = Decider {
            ods: Vec::new(),
            by_attr: Vec::new(),
            universe: Vec::new(),
            witnesses: Vec::new(),
            stats: DeciderStats::default(),
        };
        for od in m.ods() {
            decider.add_premise(od);
        }
        decider
    }

    /// The premises in force, as plain ODs in the order they were given.
    pub fn premises(&self) -> &[OrderDependency] {
        &self.ods
    }

    /// Number of attributes mentioned by `ℳ`.
    pub fn universe_size(&self) -> usize {
        self.universe.len()
    }

    /// Append one OD to the premise set.
    ///
    /// Cached counterexamples that do not *definitely* satisfy the new premise
    /// are dropped (sound: a kept pattern still models every premise, so it
    /// still refutes whatever it violates).
    pub fn add_premise(&mut self, od: OrderDependency) {
        self.witnesses.retain(|w| w.satisfies(&od) == Some(true));
        for a in od.attributes() {
            if let Err(pos) = self.universe.binary_search(&a) {
                self.universe.insert(pos, a);
            }
            if self.by_attr.len() <= a.index() {
                self.by_attr.resize_with(a.index() + 1, Vec::new);
            }
            self.by_attr[a.index()].push(self.ods.len());
        }
        self.ods.push(od);
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
    /// validated against data.  Reuses and grows the counterexample cache.
    pub fn implies_context_constancy(&mut self, context: &AttrSet, attr: AttrId) -> bool {
        if context.contains(attr) {
            return true;
        }
        let ctx: AttrList = context.iter().collect();
        self.implies_cached(&OrderDependency::new(ctx.clone(), ctx.with_suffix(attr)))
    }

    /// Decide `ℳ ⊨ 𝒞 : A ~ B` — are `A` and `B` order compatible within every
    /// equivalence class of the context set `𝒞`?  This is the set-based
    /// *compatibility* statement of the FASTOD canonical form, equivalent to
    /// `C'A ~ C'B` for any linearization `C'` of the context.  Reuses and
    /// grows the counterexample cache.
    pub fn implies_context_compatibility(
        &mut self,
        context: &AttrSet,
        a: AttrId,
        b: AttrId,
    ) -> bool {
        if a == b || context.contains(a) || context.contains(b) {
            return true;
        }
        let ctx: AttrList = context.iter().collect();
        OrderCompatibility::new(ctx.with_suffix(a), ctx.with_suffix(b))
            .as_ods()
            .iter()
            .all(|od| self.implies_cached(od))
    }

    /// Decide `ℳ ⊨ goal`, trying the cached counterexamples before a search
    /// and caching the pattern a search finds.
    fn implies_cached(&mut self, goal: &OrderDependency) -> bool {
        if self
            .witnesses
            .iter()
            .any(|w| w.satisfies(goal) == Some(false))
        {
            self.stats.witness_hits += 1;
            return false;
        }
        self.stats.searches += 1;
        match self.counterexample(goal) {
            Some(pattern) => {
                if self.witnesses.len() < WITNESS_CACHE_CAP {
                    self.witnesses.push(pattern);
                }
                false
            }
            None => true,
        }
    }

    /// Find a two-tuple counterexample to `ℳ ⊨ X ↦ Y`, if one exists: a
    /// pattern satisfying every premise and violating the goal.
    pub fn counterexample(&self, goal: &OrderDependency) -> Option<TwoTuplePattern> {
        // The attributes that matter: those of ℳ plus those of the goal,
        // explored goal attributes first so the goal check can fail fast.
        let mut order: Vec<AttrId> = Vec::new();
        for a in goal.lhs.iter().chain(goal.rhs.iter()) {
            if !order.contains(&a) {
                order.push(a);
            }
        }
        for &a in &self.universe {
            if !order.contains(&a) {
                order.push(a);
            }
        }
        let width = order.iter().map(|a| a.index() + 1).max().unwrap_or(0);
        let mut pattern = TwoTuplePattern::unassigned(width);
        self.search(&mut pattern, &order, goal).then_some(pattern)
    }

    /// Depth-first search below a node whose assigned attributes violate no
    /// premise, for a pattern that also violates `goal` once `order` is
    /// assigned.  Returns true (leaving the assignment in place) when one is
    /// found.
    fn search(
        &self,
        pattern: &mut TwoTuplePattern,
        order: &[AttrId],
        goal: &OrderDependency,
    ) -> bool {
        let Some((&attr, rest)) = order.split_first() else {
            // Every premise is decided and none is violated.
            return pattern.satisfies(goal) == Some(false);
        };
        let premises = self
            .by_attr
            .get(attr.index())
            .map_or(&[][..], Vec::as_slice);
        for o in Orientation::ALL {
            pattern.assignment[attr.index()] = Some(o);
            // Only the premises mentioning `attr` can have changed status,
            // and a goal decided as satisfied stays so in every extension.
            if premises
                .iter()
                .any(|&i| pattern.definitely_violates(&self.ods[i]))
                || pattern.satisfies(goal) == Some(true)
            {
                continue;
            }
            if self.search(pattern, rest, goal) {
                return true;
            }
        }
        pattern.assignment[attr.index()] = None;
        false
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
        let mut d = Decider::new(&m);
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

    /// splitmix64: a seeded, dependency-free stream for the oracle below.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The first full assignment over `order`, in lexicographic order with
    /// `Eq < Lt < Gt` and `order[0]` varying slowest, that satisfies every
    /// premise and violates the goal.
    fn first_counterexample_by_brute_force(
        premises: &[OrderDependency],
        goal: &OrderDependency,
        order: &[AttrId],
    ) -> Option<Vec<Orientation>> {
        let width = order.iter().map(|a| a.index() + 1).max().unwrap_or(0);
        let total = 3usize.pow(order.len() as u32);
        (0..total).find_map(|mut code| {
            let mut orients = vec![Orientation::Eq; order.len()];
            for slot in orients.iter_mut().rev() {
                *slot = Orientation::ALL[code % 3];
                code /= 3;
            }
            let assigned: Vec<(AttrId, Orientation)> =
                order.iter().copied().zip(orients.iter().copied()).collect();
            let pattern = TwoTuplePattern::from_orientations(&assigned, width);
            let models = premises.iter().all(|p| pattern.satisfies(p) == Some(true));
            (models && pattern.satisfies(goal) == Some(false)).then_some(orients)
        })
    }

    #[test]
    fn counterexample_is_the_first_in_search_order() {
        // Random ℳ over at most 5 attributes with lists of length ≤ 3, and
        // every goal with sides of length ≤ 2: the search must return the
        // first counterexample of the goal-first order, attribute for
        // attribute, not merely some valid one.
        let sets = if cfg!(debug_assertions) { 60 } else { 600 };
        let mut state = 0x0D_u64;
        let mut next = |bound: usize| (splitmix64(&mut state) % bound as u64) as usize;
        for _ in 0..sets {
            let n_attrs = 1 + next(5);
            let premises: Vec<OrderDependency> = (0..next(5))
                .map(|_| {
                    let mut side = || -> AttrList {
                        (0..next(4)).map(|_| AttrId(next(n_attrs) as u32)).collect()
                    };
                    OrderDependency::new(side(), side())
                })
                .collect();
            let d = Decider::new(&OdSet::from_ods(premises.iter().cloned()));
            let mut universe: Vec<AttrId> = premises
                .iter()
                .flat_map(|p| p.attributes().iter().collect::<Vec<_>>())
                .collect();
            universe.sort();
            universe.dedup();
            let lists = crate::witness::enumerate_lists(
                &(0..n_attrs as u32).map(AttrId).collect::<Vec<_>>(),
                2,
            );
            for lhs in &lists {
                for rhs in &lists {
                    let goal = OrderDependency::new(lhs.clone(), rhs.clone());
                    let mut order: Vec<AttrId> = Vec::new();
                    for a in goal
                        .lhs
                        .iter()
                        .chain(goal.rhs.iter())
                        .chain(universe.iter().copied())
                    {
                        if !order.contains(&a) {
                            order.push(a);
                        }
                    }
                    let expected = first_counterexample_by_brute_force(&premises, &goal, &order);
                    let got = d.counterexample(&goal).map(|p| {
                        order
                            .iter()
                            .map(|&a| p.orientation(a).expect("every attribute assigned"))
                            .collect::<Vec<_>>()
                    });
                    assert_eq!(got, expected, "ℳ = {premises:?}, goal {goal}");
                }
            }
        }
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
    fn appended_premises_answer_like_a_fresh_decider() {
        // Grow one decider premise by premise and compare every answer
        // against a fresh Decider over the same premise set.
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
        let goals = [od(&[3], &[2]), od(&[0], &[2, 1]), od(&[2], &[3])];
        let mut m = OdSet::new();
        let mut grown = Decider::new(&m);
        for premise in premises {
            let mut fresh = Decider::new(&m);
            let n = grown.premises().len();
            for &(ref c, a, b) in &queries {
                match b {
                    None => assert_eq!(
                        grown.implies_context_constancy(c, AttrId(a)),
                        fresh.implies_context_constancy(c, AttrId(a)),
                        "constancy {c:?} ↦ {a} with {n} premises"
                    ),
                    Some(b) => assert_eq!(
                        grown.implies_context_compatibility(c, AttrId(a), AttrId(b)),
                        fresh.implies_context_compatibility(c, AttrId(a), AttrId(b)),
                        "compatibility {c:?}: {a} ~ {b} with {n} premises"
                    ),
                }
            }
            for goal in &goals {
                assert_eq!(grown.implies(goal), fresh.implies(goal), "{goal}");
            }
            assert_eq!(grown.universe_size(), fresh.universe_size());
            m.add_od(premise.clone());
            grown.add_premise(premise);
        }
        assert_eq!(grown.premises(), m.ods().as_slice());
        assert!(grown.implies(&od(&[3], &[2])));
    }

    #[test]
    fn repeated_refutations_come_from_the_cache() {
        // An empty premise set refutes every non-trivial constancy with the
        // same two-tuple shape: after the first search, later refutations
        // must come from the witness cache.
        let mut d = Decider::new(&OdSet::new());
        let empty = AttrSet::new();
        assert!(!d.implies_context_constancy(&empty, AttrId(0)));
        assert_eq!(d.stats.searches, 1);
        assert!(!d.implies_context_constancy(&empty, AttrId(0)));
        assert_eq!(d.stats.searches, 1);
        assert_eq!(d.stats.witness_hits, 1);
        // Trivial queries never search at all.
        assert!(d.implies_context_constancy(&AttrSet::singleton(AttrId(5)), AttrId(5)));
        assert!(d.implies_context_compatibility(&empty, AttrId(7), AttrId(7)));
        assert_eq!(d.stats.searches, 1);
    }

    #[test]
    fn add_premise_drops_patterns_the_new_premise_invalidates() {
        // The counterexample to {}: [] ↦ #1 (two rows differing on #1) stops
        // modelling ℳ once [] ↦ #1 itself becomes a premise; the query must
        // flip to implied rather than reuse the stale pattern.
        let mut d = Decider::new(&OdSet::new());
        let empty = AttrSet::new();
        assert!(!d.implies_context_constancy(&empty, AttrId(1)));
        d.add_premise(OrderDependency::new(AttrList::empty(), vec![AttrId(1)]));
        assert!(d.implies_context_constancy(&empty, AttrId(1)));
        assert_eq!(d.stats.witness_hits, 0);
        // And a constant slots into any compatibility.
        assert!(d.implies_context_compatibility(&empty, AttrId(0), AttrId(1)));
    }
}
