//! E12 acceptance guard for the node-based lattice engine.
//!
//! Three criteria from the width-3 tentpole:
//!
//! 1. **Interactive width 3** — a release-profile width-3 traversal of the
//!    10k-row taxes and date-dimension workloads finishes well inside
//!    interactive time, with node deletion and candidate propagation doing the
//!    pruning (the wall-clock assertion is release-only; the semantic
//!    assertions run in every profile and ride tier-1 too).
//! 2. **Width-2 equivalence** — the node-based traversal's verdict for every
//!    statement within the old width-2 bound is bit-for-bit the demand-driven
//!    engine's verdict, at ε = 0 and ε = 0.02 (the engine validates each
//!    statement with the same serial scan the old traversal used, so this
//!    pins the refactor against the pre-node-store semantics).
//! 3. **Propagation beats generate-then-check** — at width 3 the number of
//!    validated candidates stays a small fraction of the candidate slots the
//!    propagation resolved without enumeration.

use od_bench::timing::best_of_with;
use od_core::{AttrId, AttrSet, Relation};
use od_setbased::{discover_statements, LatticeConfig, SetBasedEngine, SetOd};
use od_workload::{generate_date_dim, tax};

/// Every non-trivial canonical statement over the relation's attributes with a
/// context of at most `max_context` attributes.
fn statements_within(rel: &Relation, max_context: usize) -> Vec<SetOd> {
    let universe: Vec<AttrId> = rel.schema().attr_ids().collect();
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

#[test]
fn width3_traversal_is_interactive_with_node_deletion_and_propagation() {
    for rel in [
        tax::generate_taxes(10_000, 7),
        generate_date_dim(1998, 10_000, 2_450_000),
    ] {
        let (d, elapsed) = best_of_with(1, "bench.width3.traversal", || {
            discover_statements(
                &rel,
                &LatticeConfig {
                    max_context: 3,
                    ..Default::default()
                },
            )
        });
        // Release-only wall-clock bound: measured ~6 ms (taxes) and ~55 ms
        // (date_dim) on this container, so 2 s absorbs heavy CI noise while
        // still falsifying any return to generate-then-check scaling.
        #[cfg(not(debug_assertions))]
        assert!(
            elapsed.as_secs_f64() < 2.0,
            "width-3 traversal took {elapsed:?} on {} rows",
            rel.len()
        );
        let _ = elapsed;
        assert_eq!(d.max_context(), 3);
        assert!(
            d.stats.nodes_deleted > 0,
            "superkey contexts must delete their nodes: {:?}",
            d.stats
        );
        assert!(d.stats.propagated_away > 0, "{:?}", d.stats);
        assert_eq!(d.level_stats().len(), 4, "levels 0..=3 must all report");
        // At the new deepest level, propagation must resolve more candidate
        // slots than the scans do — that is what makes width 3 affordable.
        let deepest = d.level_stats().last().unwrap();
        assert!(
            deepest.propagated_away > deepest.validated,
            "level 3 must be propagation-dominated: {deepest:?}"
        );
        assert!(d.stats.peak_cached_partitions >= 1);
    }
}

#[test]
fn width2_verdicts_match_the_demand_driven_engine_bit_for_bit() {
    let rel = tax::generate_taxes(10_000, 7);
    for epsilon in [0.0, 0.02] {
        let d = discover_statements(
            &rel,
            &LatticeConfig {
                max_context: 2,
                epsilon,
                ..Default::default()
            },
        );
        let mut engine = SetBasedEngine::with_budget(&rel, d.budget());
        for stmt in statements_within(&rel, 2) {
            assert_eq!(
                d.holds(&stmt),
                engine.statement_holds(&stmt),
                "ε = {epsilon}: node-based and demand-driven engines disagree on {stmt}"
            );
        }
        // Minimal verdicts are the scan verdicts themselves: identical
        // removal counts, witnesses and class counts.
        let mut fresh = SetBasedEngine::with_budget(&rel, d.budget());
        for (stmt, verdict) in d.minimal_statements().iter().zip(d.verdicts()) {
            assert_eq!(
                &fresh.statement_verdict(stmt),
                verdict,
                "ε = {epsilon}: verdict drift on {stmt}"
            );
        }
    }
}
