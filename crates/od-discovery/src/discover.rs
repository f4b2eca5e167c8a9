//! Discovery of order dependencies (and functional dependencies) that hold on a
//! given relation instance.
//!
//! The paper closes by pointing at OD discovery as follow-on work; this module
//! provides a bounded-width discovery pass that later became its own research
//! line.  Candidates are enumerated over normalized attribute lists up to a
//! configurable length and answered from one FASTOD-style lattice profile of
//! the `od-setbased` crate ([`od_setbased::discover_statements`]): the profile
//! runs to the widest statement context the candidate widths can produce, so
//! every candidate resolves from the canonical statements it translates to,
//! without another pass over the data.
//!
//! Each candidate goes through one pruning order.  The profile rejects it if
//! a statement fails; otherwise it is pruned when the ODs confirmed before it
//! subsume every statement ([`od_setbased::SetOd::subsumes`]), and only then
//! asked of the exact implication decider.  A candidate is kept iff it holds
//! and the ODs kept before it do not imply it.  `tests/differential.rs` pins
//! the result against a sort-per-candidate oracle that shares no pruning code
//! with this module, and against a greedy decider minimization of the
//! unpruned result.

use od_core::check::check_fd;
use od_core::{AttrId, FunctionalDependency, OrderDependency, Relation};
use od_infer::witness::enumerate_lists;
use od_infer::{Decider, OdSet};
use od_optimizer::OdRegistry;
use od_setbased::{
    discover_statements, translate_od, LatticeConfig, LatticeStats, SetBasedDiscovery, SetOd,
};
use std::collections::HashMap;

/// Configuration of a discovery run.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Maximum length of the left-hand side list.
    pub max_lhs: usize,
    /// Maximum length of the right-hand side list.
    pub max_rhs: usize,
    /// Skip candidates implied by the ODs confirmed before them, so no
    /// returned OD is implied by those listed before it (axiom-based pruning:
    /// statement subsumption first, then the exact decider).  Only sound —
    /// and only applied — when `epsilon == 0`, since implication combines
    /// premises whose removal sets may differ.
    pub prune_implied: bool,
    /// `g3` error threshold: accept a candidate when each of its canonical
    /// statements holds after removing at most `⌊ε·n⌋` tuples.  `0.0` (the
    /// default) is exact discovery — bit-identical to the pre-approximation
    /// behavior; `1.0` accepts everything.
    pub epsilon: f64,
    /// Not read by discovery, which always profiles to the depth its
    /// candidate widths need: `max(max_lhs, max_lhs + max_rhs − 2)`.  Kept
    /// for callers that still copy it into wire requests, such as the
    /// benchmark package's serve workload.
    pub max_context: usize,
}

impl Default for DiscoveryConfig {
    /// Width 2/2 so the lattice is actually exercised (the original default of
    /// `max_lhs = 1` never produced a composite left-hand side), with
    /// implication pruning on.
    fn default() -> Self {
        DiscoveryConfig {
            max_lhs: 2,
            max_rhs: 2,
            prune_implied: true,
            epsilon: 0.0,
            max_context: 4,
        }
    }
}

/// Result of a discovery run.
#[derive(Debug, Clone, Default)]
pub struct Discovery {
    /// Minimal (non-implied) ODs confirmed on the instance.
    pub ods: Vec<OrderDependency>,
    /// Per-OD `g3` error scores, aligned with [`Self::ods`]: the worst
    /// canonical statement's removal fraction (all zeros in exact mode).
    /// Always ≤ the configured ε; statements resolved by axiom inheritance
    /// report their premise's removal, so a score can overstate — but never
    /// understate — the statement-level error, which itself lower-bounds the
    /// OD-level `g3` (the true value lies between the max and the sum of the
    /// statement removals).
    pub errors: Vec<f64>,
    /// Number of candidates enumerated.
    pub candidates: usize,
    /// Resolution counters of the lattice profile the candidates were
    /// answered from; its `validated` counts every statement scanned against
    /// the data.  [`discover_ods`] always sets it.
    pub lattice_stats: Option<LatticeStats>,
}

impl Discovery {
    /// Install the discovered ODs into an [`OdRegistry`] for `table`, making
    /// the optimizer's sort-elimination and rewrite machinery benefit from
    /// profiling without manual constraint declarations.
    ///
    /// Only ODs discovered with a zero error score are installed — an OD that
    /// merely *approximately* holds is not a sound rewrite license.  Returns
    /// the number installed.
    pub fn install_into(&self, registry: &mut OdRegistry, table: &str) -> usize {
        let mut installed = 0;
        for (od, &err) in self.ods.iter().zip(self.errors.iter()) {
            if err == 0.0 {
                registry.add_od(table, od.clone());
                installed += 1;
            }
        }
        installed
    }
}

/// Discover ODs holding on the relation, reporting schemas beyond the
/// 64-attribute [`od_core::AttrSet`] domain as a
/// [`CoreError::AttrSetOverflow`](od_core::CoreError::AttrSetOverflow)
/// instead of panicking.
pub fn try_discover_ods(
    rel: &Relation,
    config: DiscoveryConfig,
) -> Result<Discovery, od_core::CoreError> {
    if rel.schema().arity() > od_core::AttrSet::MAX_ATTRS {
        return Err(od_core::CoreError::AttrSetOverflow(
            rel.schema().arity() as u32 - 1,
        ));
    }
    Ok(discover_ods(rel, config))
}

/// Discover ODs holding on the relation, bounded by the configuration.
///
/// Panics when the schema exceeds the 64-attribute bitset
/// [`od_core::AttrSet`] domain (candidate translation packs every attribute
/// set into a `u64` mask); use [`try_discover_ods`] where such schemas are
/// reachable.
pub fn discover_ods(rel: &Relation, config: DiscoveryConfig) -> Discovery {
    // The widest statement context any enumerated candidate can produce:
    // |set(X)| for a constancy, |prefix(X) ∪ prefix(Y)| for a compatibility.
    let depth = config
        .max_lhs
        .max((config.max_lhs + config.max_rhs).saturating_sub(2));
    let profile = discover_statements(
        rel,
        &LatticeConfig {
            max_context: depth,
            use_decider: true,
            epsilon: config.epsilon,
            workers: 0,
        },
    );
    let answers = ProfileAnswers {
        profile: &profile,
        rows: rel.len(),
        memo: HashMap::new(),
    };
    let mut result = run_discovery(rel, config, answers);
    result.lattice_stats = Some(profile.stats);
    result
}

/// The lattice profile, read per canonical statement.
struct ProfileAnswers<'a> {
    profile: &'a SetBasedDiscovery,
    rows: usize,
    /// [`SetBasedDiscovery::removal_upper_bound`] per statement: candidates
    /// share statements, and a miss there costs two linear subsumption scans.
    memo: HashMap<SetOd, Option<usize>>,
}

impl ProfileAnswers<'_> {
    /// The candidate's `g3` error score if every canonical statement holds,
    /// stopping at the first one that does not.
    fn answer(&mut self, stmts: &[SetOd]) -> Option<f64> {
        let profile = self.profile;
        debug_assert!(
            stmts
                .iter()
                .all(|s| s.context().len() <= profile.max_context()),
            "a statement reaches beyond the profile"
        );
        let mut worst = 0usize;
        for stmt in stmts {
            let removal = *self
                .memo
                .entry(*stmt)
                .or_insert_with(|| profile.removal_upper_bound(stmt));
            worst = worst.max(removal?);
        }
        Some(worst as f64 / self.rows.max(1) as f64)
    }
}

/// The ODs confirmed so far, as the premises of implication pruning.
#[derive(Default)]
struct Confirmed {
    ods: OdSet,
    /// The canonical statements of `ods`.  An OD is equivalent to the
    /// conjunction of its statements, so `ods` imply every statement these
    /// subsume.
    statements: Vec<SetOd>,
    /// The decider over `ods`, rebuilt lazily after `ods` grows.
    decider: Option<Decider>,
}

impl Confirmed {
    /// Is every statement subsumed by a confirmed one?  A search-free
    /// sufficient condition for implication.
    fn subsume(&self, stmts: &[SetOd]) -> bool {
        stmts
            .iter()
            .all(|s| self.statements.iter().any(|c| c.subsumes(s)))
    }

    /// Do the confirmed ODs imply `od`?  One decider search.
    fn imply(&mut self, od: &OrderDependency, tally: &mut Tally) -> bool {
        let ods = &self.ods;
        let implied = self
            .decider
            .get_or_insert_with(|| Decider::new(ods))
            .implies(od);
        tally.implies_calls += 1;
        tally.implied += u64::from(implied);
        implied
    }

    fn add(&mut self, od: OrderDependency, stmts: Vec<SetOd>) {
        self.ods.add_od(od);
        self.statements.extend(stmts);
        self.decider = None;
    }
}

/// Where the enumeration's non-trivial candidates went, flushed once per run
/// as the `enumerate.*` counters.
#[derive(Default)]
struct Tally {
    profile_rejected: u64,
    subsumed: u64,
    implies_calls: u64,
    implied: u64,
}

impl Tally {
    fn flush(&self) {
        od_obs::add("enumerate.profile_rejected", self.profile_rejected);
        od_obs::add("enumerate.subsumed", self.subsumed);
        od_obs::add("enumerate.implies_calls", self.implies_calls);
        od_obs::add("enumerate.implied", self.implied);
    }
}

/// The enumeration / pruning loop.
///
/// Each non-trivial candidate is answered from the `profile` first, before
/// any implication pruning: the profile is fixed for the run and both filters
/// are pure, so their order cannot change which candidates are kept.  A
/// candidate that holds is then pruned when its statements are subsumed by
/// the confirmed ones, and only otherwise asked of the decider.
fn run_discovery(
    rel: &Relation,
    config: DiscoveryConfig,
    mut profile: ProfileAnswers,
) -> Discovery {
    let universe: Vec<AttrId> = rel.schema().attr_ids().collect();
    let lhs_lists = enumerate_lists(&universe, config.max_lhs);
    let rhs_lists = enumerate_lists(&universe, config.max_rhs);
    // Implication pruning combines many confirmed premises, so it is only
    // sound (and only used) in exact mode.
    let prune_implied = config.prune_implied && config.epsilon <= 0.0;
    let mut confirmed = Confirmed::default();
    let mut tally = Tally::default();
    let mut result = Discovery::default();

    for lhs in &lhs_lists {
        for rhs in &rhs_lists {
            if rhs.is_empty() {
                continue;
            }
            let candidate = OrderDependency::new(lhs.clone(), rhs.clone());
            result.candidates += 1;
            if candidate.is_syntactically_trivial() {
                continue;
            }
            let stmts = translate_od(&candidate);
            let Some(error) = profile.answer(&stmts) else {
                tally.profile_rejected += 1;
                continue;
            };
            if prune_implied {
                if confirmed.subsume(&stmts) {
                    tally.subsumed += 1;
                    continue;
                }
                if confirmed.imply(&candidate, &mut tally) {
                    continue;
                }
            }
            confirmed.add(candidate.clone(), stmts);
            result.ods.push(candidate);
            result.errors.push(error);
        }
    }
    tally.flush();
    result
}

/// Discover functional dependencies with a single right-hand-side attribute and
/// left-hand sides up to `max_lhs` attributes.
pub fn discover_fds(rel: &Relation, max_lhs: usize) -> Vec<FunctionalDependency> {
    let universe: Vec<AttrId> = rel.schema().attr_ids().collect();
    let mut out = Vec::new();
    for lhs in enumerate_lists(&universe, max_lhs) {
        if lhs.is_empty() {
            continue;
        }
        // Set semantics: only consider ascending enumerations to avoid duplicates.
        let sorted: Vec<AttrId> = lhs.to_set().into_iter().collect();
        if sorted != lhs.iter().collect::<Vec<_>>() {
            continue;
        }
        for &rhs in &universe {
            if lhs.contains(rhs) {
                continue;
            }
            let fd = FunctionalDependency::new(lhs.to_set(), [rhs]);
            if check_fd(rel, &fd).is_ok() {
                out.push(fd);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::check::od_holds;
    use od_core::fixtures;
    use std::sync::Arc;

    #[test]
    fn discovers_the_example_5_ods() {
        let rel = fixtures::example_5_taxes();
        let d = discover_ods(&rel, DiscoveryConfig::default());
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let payable = s.attr_by_name("payable").unwrap();
        let expect = OrderDependency::new(vec![income], vec![bracket]);
        assert!(
            d.ods.contains(&expect),
            "income ↦ bracket should be discovered: {:?}",
            d.ods
        );
        assert!(d
            .ods
            .contains(&OrderDependency::new(vec![income], vec![payable])));
        // The converse is not discovered (brackets repeat across incomes).
        assert!(!d
            .ods
            .contains(&OrderDependency::new(vec![bracket], vec![income])));
    }

    #[test]
    fn pruning_reduces_validation_work_without_losing_coverage() {
        let rel = fixtures::example_5_taxes();
        let with = discover_ods(&rel, DiscoveryConfig::default());
        let without = discover_ods(
            &rel,
            DiscoveryConfig {
                prune_implied: false,
                ..Default::default()
            },
        );
        assert!(with.ods.len() < without.ods.len());
        // Everything found without pruning is implied by the pruned discovery result.
        let m = OdSet::from_ods(with.ods.clone());
        let d = Decider::new(&m);
        for od in &without.ods {
            assert!(
                d.implies(od),
                "{od} must be implied by the pruned discovery result"
            );
        }
    }

    #[test]
    fn enumeration_counters_are_pinned_on_a_three_year_date_dim() {
        let rel = od_workload::generate_date_dim(2017, 1095, 0);
        let registry = Arc::new(od_obs::Registry::new());
        let d = od_obs::scoped(Arc::clone(&registry), || {
            discover_ods(&rel, DiscoveryConfig::default())
        });
        let counter = |name: &str| registry.counter_value(&format!("enumerate.{name}"));
        let (rejected, subsumed, calls, implied) = (
            counter("profile_rejected"),
            counter("subsumed"),
            counter("implies_calls"),
            counter("implied"),
        );
        assert_eq!((rejected, subsumed, calls, implied), (5_665, 556, 268, 236));
        // Every non-trivial candidate is rejected by the profile, proven by
        // subsumption, or asked of the decider, and each candidate the
        // decider does not prune is a confirmed OD.
        assert_eq!(d.candidates, 6_642);
        assert_eq!(rejected + subsumed + calls, 6_489);
        assert_eq!(calls - implied, d.ods.len() as u64);
        assert_eq!(d.ods.len(), 32);
    }

    #[test]
    fn discovered_ods_hold_and_non_discovered_do_not_appear() {
        let rel = fixtures::figure_1_relation();
        let d = discover_ods(
            &rel,
            DiscoveryConfig {
                max_lhs: 1,
                max_rhs: 1,
                prune_implied: false,
                ..Default::default()
            },
        );
        for od in &d.ods {
            assert!(od_holds(&rel, od));
        }
    }

    #[test]
    fn exact_discovery_reports_zero_errors() {
        let rel = fixtures::example_5_taxes();
        let d = discover_ods(&rel, DiscoveryConfig::default());
        assert_eq!(d.ods.len(), d.errors.len());
        assert!(d.errors.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn approximate_discovery_recovers_dirtied_ods() {
        // A perfect income ↦ bracket relation with one corrupted row in fifty:
        // exact discovery loses the OD, a 5% threshold recovers it with a
        // non-zero error score, and ε = 1.0 accepts every candidate.
        let mut schema = od_core::Schema::new("dirty");
        let income = schema.add_attr("income");
        let bracket = schema.add_attr("bracket");
        let mut rows: Vec<Vec<od_core::Value>> = (0..50i64)
            .map(|i| vec![od_core::Value::Int(i), od_core::Value::Int(i / 10)])
            .collect();
        rows[25][1] = od_core::Value::Int(-7);
        let rel = od_core::Relation::from_rows(schema, rows).unwrap();
        let od = OrderDependency::new(vec![income], vec![bracket]);

        let exact = discover_ods(&rel, DiscoveryConfig::default());
        assert!(!exact.ods.contains(&od));

        let approx = discover_ods(
            &rel,
            DiscoveryConfig {
                epsilon: 0.05,
                ..Default::default()
            },
        );
        let pos = approx
            .ods
            .iter()
            .position(|o| o == &od)
            .expect("ε = 5% recovers income ↦ bracket");
        assert!(approx.errors[pos] > 0.0 && approx.errors[pos] <= 0.05);

        let everything = discover_ods(
            &rel,
            DiscoveryConfig {
                epsilon: 1.0,
                ..Default::default()
            },
        );
        // ε = 1 accepts candidates exact discovery rejects outright.
        assert!(everything
            .ods
            .contains(&OrderDependency::new(vec![bracket], vec![income])));
        assert!(everything.ods.len() > approx.ods.len());
    }

    #[test]
    fn install_into_feeds_the_optimizer_registry() {
        let rel = fixtures::example_5_taxes();
        let d = discover_ods(&rel, DiscoveryConfig::default());
        let mut registry = OdRegistry::new();
        let installed = d.install_into(&mut registry, rel.schema().name());
        assert_eq!(installed, d.ods.len(), "exact discovery installs all ODs");
        assert_eq!(registry.ods(rel.schema().name()).len(), installed);
        // The registry now answers the sort-elimination question the paper
        // opens with: a stream ordered by income satisfies ORDER BY bracket.
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        assert!(registry.order_satisfies(
            s.name(),
            &od_core::AttrList::new([income]),
            &od_core::AttrList::new([bracket]),
        ));
        // Approximate ODs are NOT installed: only zero-error entries license
        // rewrites.
        let mut dirty_registry = OdRegistry::new();
        let approx = Discovery {
            ods: vec![OrderDependency::new(vec![bracket], vec![income])],
            errors: vec![0.02],
            ..Default::default()
        };
        assert_eq!(approx.install_into(&mut dirty_registry, s.name()), 0);
        assert_eq!(dirty_registry.ods(s.name()).len(), 0);
    }

    #[test]
    fn oversized_schemas_are_reported_not_panicked() {
        let mut schema = od_core::Schema::new("wide");
        for i in 0..70 {
            schema.add_attr(format!("c{i}"));
        }
        let rel = od_core::Relation::from_rows(schema, Vec::<Vec<od_core::Value>>::new()).unwrap();
        assert!(matches!(
            try_discover_ods(&rel, DiscoveryConfig::default()),
            Err(od_core::CoreError::AttrSetOverflow(_))
        ));
        // Within the bitset domain the fallible entry answers normally.
        let rel = fixtures::example_5_taxes();
        let d = try_discover_ods(&rel, DiscoveryConfig::default()).unwrap();
        assert!(!d.ods.is_empty());
    }

    #[test]
    fn fd_discovery_finds_the_tax_schedule() {
        let rel = fixtures::example_5_taxes();
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let fds = discover_fds(&rel, 1);
        assert!(fds.contains(&FunctionalDependency::new([income], [bracket])));
        assert!(!fds.contains(&FunctionalDependency::new([bracket], [income])));
    }
}
