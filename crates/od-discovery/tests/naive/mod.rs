//! The original sort-per-candidate list-OD discovery, kept as the oracle of
//! `discover_ods`.
//!
//! It shares no pruning code with the production path.  Candidates are
//! enumerated in the same order; a trivial candidate is skipped, a candidate
//! that a decider over the ODs kept so far implies is skipped, and every
//! other candidate is checked against the relation with `od_core::check`:
//! one `od_holds` re-sort, or — under a non-zero error budget — one
//! `od_removal_count` per canonical statement.

// Each test target compiles its own copy and reads a different subset of it.
#![allow(dead_code)]

use od_core::check::{od_holds, od_removal_count};
use od_core::{AttrId, OrderDependency, Relation};
use od_discovery::DiscoveryConfig;
use od_infer::witness::enumerate_lists;
use od_infer::{Decider, OdSet};
use od_setbased::{error_budget, translate_od};

/// What the oracle found, in the shape of `od_discovery::Discovery`.
pub struct NaiveDiscovery {
    /// Minimal (non-implied) ODs, in enumeration order.
    pub ods: Vec<OrderDependency>,
    /// Per-OD `g3` error scores, aligned with `ods`: the worst canonical
    /// statement's exact removal fraction.
    pub errors: Vec<f64>,
    /// Candidates enumerated.
    pub candidates: usize,
    /// Candidates checked against the data.
    pub validated: usize,
}

/// Discover ODs by checking every candidate the kept ODs do not imply.
pub fn discover_ods_naive(rel: &Relation, config: DiscoveryConfig) -> NaiveDiscovery {
    let universe: Vec<AttrId> = rel.schema().attr_ids().collect();
    let lhs_lists = enumerate_lists(&universe, config.max_lhs);
    let rhs_lists = enumerate_lists(&universe, config.max_rhs);
    let budget = error_budget(rel.len(), config.epsilon);
    // Implication combines premises whose removal sets may differ, so it
    // prunes only in exact mode.
    let prune_implied = config.prune_implied && config.epsilon <= 0.0;
    let mut kept = OdSet::new();
    let mut decider: Option<Decider> = None;
    let mut out = NaiveDiscovery {
        ods: Vec::new(),
        errors: Vec::new(),
        candidates: 0,
        validated: 0,
    };
    for lhs in &lhs_lists {
        for rhs in &rhs_lists {
            if rhs.is_empty() {
                continue;
            }
            let candidate = OrderDependency::new(lhs.clone(), rhs.clone());
            out.candidates += 1;
            if candidate.is_syntactically_trivial() {
                continue;
            }
            if prune_implied
                && decider
                    .get_or_insert_with(|| Decider::new(&kept))
                    .implies(&candidate)
            {
                continue;
            }
            out.validated += 1;
            let worst = if budget == 0 {
                usize::from(!od_holds(rel, &candidate))
            } else {
                // Both list ODs of a compatibility have the same removal
                // count by symmetry, so one representative suffices.
                translate_od(&candidate)
                    .iter()
                    .map(|stmt| od_removal_count(rel, &stmt.as_list_ods()[0]))
                    .max()
                    .unwrap_or(0)
            };
            if worst > budget {
                continue;
            }
            kept.add_od(candidate.clone());
            decider = None;
            out.ods.push(candidate);
            out.errors.push(worst as f64 / rel.len().max(1) as f64);
        }
    }
    out
}
