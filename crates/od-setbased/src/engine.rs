//! The demand-driven validation engine behind `od-discovery`'s set-based path.
//!
//! Where the [`crate::lattice`] traversal profiles the whole canonical space up
//! front, [`SetBasedEngine`] answers individual `X ↦ Y` questions: the OD is
//! translated to its canonical statements ([`crate::canonical::translate_od`]),
//! each statement is resolved through a memo table, the set-based axioms
//! (context monotonicity, constancy-subsumes-compatibility), and finally — only
//! when nothing cheaper answers — a partition scan.  Statements are shared
//! across candidate ODs, so a discovery run validates each distinct statement
//! against the data at most once, instead of re-sorting the relation per
//! candidate as the naive engine does.
//!
//! Every resolution produces a [`Verdict`] — the statement's minimal
//! tuple-removal count plus sampled violating pairs — so the same engine
//! serves exact validation (`budget == 0`) and approximate `g3`-thresholded
//! validation (`budget == ⌊ε·n⌋`).  The axiom shortcuts stay sound under a
//! budget because statement satisfaction is **monotone under both context
//! growth and tuple removal**: a removal set that repairs a statement at a
//! context repairs it at every superset context, so an inherited verdict
//! carries its premise's removal count as an upper bound.

use crate::canonical::{translate_od, SetOd};
use crate::lattice::SetBasedDiscovery;
use crate::partition::PartitionCache;
use crate::stream::StreamMonitor;
use crate::validate::{self, Verdict};
use od_core::{OrderDependency, Relation};
use std::collections::HashMap;

/// Counters describing how an engine resolved its statement checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// ODs translated and checked.
    pub ods_checked: usize,
    /// Canonical statements examined (before dedup/memo).
    pub statement_checks: usize,
    /// Statements answered from the memo table.
    pub memo_hits: usize,
    /// Statements answered by the set-based axioms.
    pub axiom_hits: usize,
    /// Statements true on every instance (no data, no memo needed).
    pub trivial_hits: usize,
    /// Statements validated against the data (partition scans).
    pub data_validations: usize,
}

/// Memoizing, partition-backed OD validator over one relation instance.
pub struct SetBasedEngine<'r> {
    cache: PartitionCache<'r>,
    verdicts: HashMap<SetOd, Verdict>,
    budget: usize,
    /// Resolution counters.
    pub stats: EngineStats,
}

impl<'r> SetBasedEngine<'r> {
    /// An exact engine over the relation.
    pub fn new(rel: &'r Relation) -> Self {
        Self::with_budget(rel, 0)
    }

    /// An engine accepting statements whose `g3` removal count stays within
    /// `budget` tuples (`⌊ε·n⌋`; see [`validate::error_budget`]).  Budget 0 is
    /// exact validation.
    pub fn with_budget(rel: &'r Relation, budget: usize) -> Self {
        SetBasedEngine {
            cache: PartitionCache::new(rel),
            verdicts: HashMap::new(),
            budget,
            stats: EngineStats::default(),
        }
    }

    /// The relation being profiled.
    pub fn relation(&self) -> &'r Relation {
        self.cache.relation()
    }

    /// The tuple-removal budget statements are accepted under.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Statements validated against the data so far.
    pub fn data_validations(&self) -> usize {
        self.stats.data_validations
    }

    /// Does `X ↦ Y` hold on the instance within the error budget?  With budget
    /// 0 this is semantically identical to [`od_core::check::od_holds`];
    /// resolved through canonical statements.
    pub fn od_holds(&mut self, od: &OrderDependency) -> bool {
        self.od_verdict(od).within(self.budget)
    }

    /// The evidence-carrying form of [`Self::od_holds`]: statement verdicts
    /// joined with [`Verdict::join_max`], so `removal_count` is the worst
    /// statement's `g3` numerator (the approximate-discovery acceptance
    /// measure and a lower bound on the OD-level `g3`).  Short-circuits on the
    /// first statement exceeding the budget.
    pub fn od_verdict(&mut self, od: &OrderDependency) -> Verdict {
        self.stats.ods_checked += 1;
        let mut combined = Verdict::clean();
        for stmt in translate_od(od) {
            let verdict = self.statement_verdict(&stmt);
            let rejected = !verdict.within(self.budget);
            combined.join_max(&verdict);
            if rejected {
                break;
            }
        }
        combined
    }

    /// Does a single canonical statement hold within the error budget?
    pub fn statement_holds(&mut self, stmt: &SetOd) -> bool {
        let budget = self.budget;
        self.statement_verdict(stmt).within(budget)
    }

    /// Resolve one canonical statement to its violation evidence.
    ///
    /// The returned removal count is exact for scanned statements that pass
    /// the budget, a lower bound for rejected ones (`exceeded`), and an upper
    /// bound for statements answered by the axioms (monotonicity can only
    /// shrink the removal set).
    pub fn statement_verdict(&mut self, stmt: &SetOd) -> Verdict {
        if let Some(normalized) = stmt.normalized() {
            return self.statement_verdict(&normalized);
        }
        self.stats.statement_checks += 1;
        if stmt.is_trivial() {
            self.stats.trivial_hits += 1;
            return Verdict::clean();
        }
        if let Some(v) = self.verdicts.get(stmt) {
            self.stats.memo_hits += 1;
            return v.clone();
        }
        if let Some(premise) = self.inherited(stmt) {
            self.stats.axiom_hits += 1;
            self.verdicts.insert(*stmt, premise.clone());
            return premise;
        }
        self.stats.data_validations += 1;
        let v = validate::statement_verdict(&mut self.cache, stmt, 1, self.budget);
        self.verdicts.insert(*stmt, v.clone());
        v
    }

    /// Set-based axioms over the memo table: a statement holds (within budget)
    /// if it is known to hold at an immediate sub-context (context
    /// monotonicity), or — for a compatibility — if either attribute is known
    /// constant in this context.  Returns a verdict carrying the premise's
    /// removal count (an upper bound on the statement's own) and **no**
    /// witnesses or class counts — the premise's violating pairs witness the
    /// premise, not necessarily this statement, so they must not be attached
    /// to it.
    fn inherited(&self, stmt: &SetOd) -> Option<Verdict> {
        let upper_bound = |v: &Verdict| Verdict {
            removal_count: v.removal_count,
            exceeded: false,
            violating_pairs: Vec::new(),
            classes_scanned: 0,
        };
        let context = stmt.context();
        for drop in context.iter() {
            let sub = context.without(drop);
            let sub_stmt = match stmt {
                SetOd::Constancy { attr, .. } => SetOd::constancy(sub, *attr),
                SetOd::Compatibility { a, b, .. } => SetOd::compatibility(sub, *a, *b),
            };
            if let Some(v) = self.verdicts.get(&sub_stmt) {
                if v.within(self.budget) {
                    return Some(upper_bound(v));
                }
            }
        }
        if let SetOd::Compatibility { context, a, b } = stmt {
            for attr in [*a, *b] {
                if let Some(v) = self.verdicts.get(&SetOd::constancy(*context, attr)) {
                    if v.within(self.budget) {
                        return Some(upper_bound(v));
                    }
                }
            }
        }
        None
    }

    /// Seed the memo table from a lattice profile over the **same relation**:
    /// every minimal statement's exact verdict becomes a memo entry, so
    /// demand-driven queries outside the profile's context bound inherit from
    /// the profiled statements instead of re-scanning them.  Returns the
    /// number of entries adopted.
    ///
    /// Profiles are only adopted when their tuple-removal budget matches the
    /// engine's — a verdict accepted under a different ε would poison the memo
    /// (its `within` decision is budget-relative).  Already-memoized
    /// statements keep their existing verdicts.
    pub fn adopt_profile(&mut self, profile: &SetBasedDiscovery) -> usize {
        if profile.budget() != self.budget {
            return 0;
        }
        let mut adopted = 0;
        for (stmt, verdict) in profile
            .minimal_statements()
            .iter()
            .zip(profile.verdicts().iter())
        {
            self.verdicts.entry(*stmt).or_insert_with(|| {
                adopted += 1;
                verdict.clone()
            });
        }
        adopted
    }

    /// Promote this snapshot engine into a streaming [`StreamMonitor`] over
    /// the same data: every canonical statement the engine has memoized
    /// becomes a monitored ledger, after which tuple-level
    /// [`DeltaBatch`](crate::stream::DeltaBatch)es keep the verdicts current
    /// at `O(log k)` per changed row in each touched class of `k` rows.
    ///
    /// The engine itself cannot apply deltas in place — it borrows an
    /// immutable relation *snapshot*, and its memoized verdicts may be
    /// budget-clipped lower bounds or axiom-inherited upper bounds, neither of
    /// which can seed an exact ledger.  The monitor therefore copies the rows
    /// and performs one exact scan per monitored statement's context; that
    /// one-time cost buys re-scan-free maintenance from then on.
    pub fn into_monitor(self) -> StreamMonitor {
        let mut monitor = StreamMonitor::new(self.cache.relation());
        let mut stmts: Vec<SetOd> = self.verdicts.into_keys().collect();
        stmts.sort();
        for stmt in &stmts {
            monitor.monitor_statement(stmt);
        }
        monitor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::check::od_holds;
    use od_core::{fixtures, AttrId, AttrList};

    #[test]
    fn engine_agrees_with_the_sort_based_checker_on_the_fixtures() {
        for rel in [fixtures::example_5_taxes(), fixtures::figure_1_relation()] {
            let universe: Vec<AttrId> = rel.schema().attr_ids().collect();
            let mut engine = SetBasedEngine::new(&rel);
            let lists = od_infer::witness::enumerate_lists(&universe, 2);
            for lhs in &lists {
                for rhs in &lists {
                    let od = OrderDependency::new(lhs.clone(), rhs.clone());
                    assert_eq!(
                        engine.od_holds(&od),
                        od_holds(&rel, &od),
                        "engine disagreement on {od}"
                    );
                }
            }
        }
    }

    #[test]
    fn statements_are_validated_against_data_at_most_once() {
        let rel = fixtures::example_5_taxes();
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let payable = s.attr_by_name("payable").unwrap();
        let mut engine = SetBasedEngine::new(&rel);
        assert!(engine.od_holds(&OrderDependency::new(vec![income], vec![bracket])));
        let after_first = engine.data_validations();
        assert!(after_first > 0);
        // Re-checking the same OD touches no data.
        assert!(engine.od_holds(&OrderDependency::new(vec![income], vec![bracket])));
        assert_eq!(engine.data_validations(), after_first);
        // A wider OD sharing a side reuses the shared statements.
        let before = engine.data_validations();
        assert!(engine.od_holds(&OrderDependency::new(vec![income], vec![bracket, payable])));
        let fresh = engine.data_validations() - before;
        assert!(
            fresh <= 2,
            "only the new statements may touch data, got {fresh}"
        );
        assert!(engine.stats.memo_hits > 0);
    }

    #[test]
    fn axiom_inheritance_answers_without_scanning() {
        let rel = fixtures::example_5_taxes();
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let payable = s.attr_by_name("payable").unwrap();
        let mut engine = SetBasedEngine::new(&rel);
        // Establish {}: income ~ bracket.
        let empty: od_core::AttrSet = Default::default();
        assert!(engine.statement_holds(&SetOd::compatibility(empty, income, bracket)));
        let before = engine.data_validations();
        // The same pair in a larger context follows by monotonicity.
        let wider: od_core::AttrSet = [payable].into_iter().collect();
        assert!(engine.statement_holds(&SetOd::compatibility(wider, income, bracket)));
        assert_eq!(engine.data_validations(), before);
        assert!(engine.stats.axiom_hits >= 1);
    }

    #[test]
    fn misordered_pairs_share_one_memo_entry() {
        let rel = fixtures::example_5_taxes();
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let mut engine = SetBasedEngine::new(&rel);
        let empty: od_core::AttrSet = Default::default();
        let canonical = SetOd::compatibility(empty, income, bracket);
        let misordered = SetOd::Compatibility {
            context: empty,
            a: income.max(bracket),
            b: income.min(bracket),
        };
        assert!(engine.statement_holds(&canonical));
        let scans = engine.data_validations();
        assert!(engine.statement_holds(&misordered));
        assert_eq!(
            engine.data_validations(),
            scans,
            "misordered form must hit the memo"
        );
    }

    #[test]
    fn trivial_ods_cost_nothing() {
        let rel = fixtures::example_5_taxes();
        let mut engine = SetBasedEngine::new(&rel);
        let a = AttrId(0);
        let b = AttrId(1);
        assert!(engine.od_holds(&OrderDependency::new(vec![a, b], vec![a])));
        assert!(engine.od_holds(&OrderDependency::new(vec![a], AttrList::empty())));
        assert_eq!(engine.data_validations(), 0);
    }

    #[test]
    fn inherited_verdicts_carry_no_witnesses() {
        // Two rows disagreeing on A: {}: [] ↦ A fails with removal 1 and a
        // witness pair.  Under a budget of 1 it is accepted, so {B}: [] ↦ A is
        // answered by monotonicity — its verdict must carry the premise's
        // removal bound but NOT the premise's violating pairs (rows 0 and 1
        // land in different B-classes, so the pair does not violate the
        // inherited statement).
        let mut schema = od_core::Schema::new("t");
        let a = schema.add_attr("A");
        let b = schema.add_attr("B");
        let rel = od_core::Relation::from_rows(
            schema,
            vec![
                vec![od_core::Value::Int(0), od_core::Value::Int(0)],
                vec![od_core::Value::Int(1), od_core::Value::Int(1)],
            ],
        )
        .unwrap();
        let mut engine = SetBasedEngine::with_budget(&rel, 1);
        let empty: od_core::AttrSet = Default::default();
        let premise = engine.statement_verdict(&SetOd::constancy(empty, a));
        assert_eq!(premise.removal_count, 1);
        assert!(!premise.violating_pairs.is_empty());
        let wider: od_core::AttrSet = [b].into_iter().collect();
        let inherited = engine.statement_verdict(&SetOd::constancy(wider, a));
        assert!(engine.stats.axiom_hits >= 1, "must resolve by inheritance");
        assert_eq!(inherited.removal_count, 1, "premise bound is kept");
        assert!(
            inherited.violating_pairs.is_empty(),
            "premise witnesses must not be attached to the inherited statement"
        );
        assert_eq!(inherited.classes_scanned, 0);
    }

    #[test]
    fn adopted_profiles_answer_without_scanning() {
        let rel = fixtures::example_5_taxes();
        let profile = crate::lattice::discover_statements(&rel, &Default::default());
        let mut engine = SetBasedEngine::new(&rel);
        let adopted = engine.adopt_profile(&profile);
        assert!(adopted > 0);
        // Every profiled minimal statement is now a memo hit.
        for stmt in profile.minimal_statements() {
            assert!(engine.statement_holds(stmt));
        }
        assert_eq!(
            engine.data_validations(),
            0,
            "memo entries answer scan-free"
        );
        assert!(engine.stats.memo_hits >= adopted);
        // A budget-mismatched profile is refused — its `within` decisions are
        // relative to a different ε.
        let mut budgeted = SetBasedEngine::with_budget(&rel, 3);
        assert_eq!(budgeted.adopt_profile(&profile), 0);
    }

    #[test]
    fn engine_promotes_into_a_live_monitor() {
        let rel = fixtures::example_5_taxes();
        let s = rel.schema().clone();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let od = OrderDependency::new(vec![income], vec![bracket]);
        let mut engine = SetBasedEngine::new(&rel);
        assert!(engine.od_holds(&od));
        let mut monitor = engine.into_monitor();
        // Everything the engine memoized is now a live ledger.
        assert_eq!(monitor.od_removal(&od), Some(0));
        // A swap insert flips the live verdict without any engine rebuild.
        let mut bad = rel.tuple(0);
        bad[income.index()] = od_core::Value::Int(9_999_999);
        bad[bracket.index()] = od_core::Value::Int(-1);
        monitor
            .apply_delta(&crate::stream::DeltaBatch::new().insert(bad))
            .unwrap();
        assert!(monitor.od_removal(&od).unwrap() > 0);
    }

    #[test]
    fn budgeted_engine_accepts_near_misses() {
        // bracket ↦ income fails on the taxes fixture, but only a few tuples
        // stand in the way; a full budget accepts everything.
        let rel = fixtures::example_5_taxes();
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let od = OrderDependency::new(vec![bracket], vec![income]);
        let mut exact = SetBasedEngine::new(&rel);
        assert!(!exact.od_holds(&od));
        let exact_removal = {
            let mut unbounded = SetBasedEngine::with_budget(&rel, rel.len());
            unbounded.od_verdict(&od).removal_count
        };
        assert!(exact_removal > 0 && exact_removal < rel.len());
        // Budget exactly at the removal count accepts; one less rejects.
        let mut at = SetBasedEngine::with_budget(&rel, exact_removal);
        assert!(at.od_holds(&od));
        let mut under = SetBasedEngine::with_budget(&rel, exact_removal - 1);
        assert!(!under.od_holds(&od));
        // Evidence carries witnesses for the rejected OD.
        let mut again = SetBasedEngine::new(&rel);
        let v = again.od_verdict(&od);
        assert!(!v.violating_pairs.is_empty());
    }
}
