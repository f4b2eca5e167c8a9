//! E13 acceptance guard for the bitset attribute-set core.
//!
//! Three criteria from the width-4 tentpole:
//!
//! 1. **Interactive width 4** — a release-profile width-4 traversal of the
//!    10k-row taxes and date-dimension workloads finishes well inside
//!    interactive time on `u64`-mask contexts, candidate sets and partition
//!    keys (the wall-clock assertion is release-only; the semantic assertions
//!    run in every profile and ride tier-1 too).
//! 2. **Width-3 equivalence** — the bitset traversal's verdict for every
//!    statement within the PR 4 node-store engine's width-3 bound is
//!    bit-for-bit the verdict of a fresh `validate::statement_verdict` scan,
//!    at ε = 0 and ε = 0.02 (the same serial scan the node-store traversal
//!    used, so this pins the representation change against the pre-bitset
//!    semantics).
//! 3. **One decider per traversal** — `LatticeStats::decider_rounds` counts
//!    the levels it ran on: never more than the levels visited, and far
//!    fewer than the candidates.

use od_bench::timing::best_of_with;
use od_core::{AttrId, AttrSet, Relation};
use od_setbased::{discover_statements, validate, LatticeConfig, PartitionCache, SetOd};
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
                    next.push(ctx.with(a));
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
fn width4_traversal_is_interactive_on_bitset_contexts() {
    for rel in [
        tax::generate_taxes(10_000, 7),
        generate_date_dim(1998, 10_000, 2_450_000),
    ] {
        // Timed through the shared helper with od-obs instrumentation live,
        // so the interactivity bound below also guards the metrics overhead.
        let (d, elapsed) = best_of_with(1, "bench.width4.traversal", || {
            discover_statements(&rel, &LatticeConfig::default())
        });
        // Release-only wall-clock bound: width 4 measured well under the E12
        // width-3 numbers' order of magnitude on this container, so 3 s
        // absorbs heavy CI noise while still falsifying any return to
        // generate-then-check scaling at the fourth level.
        #[cfg(not(debug_assertions))]
        assert!(
            elapsed.as_secs_f64() < 3.0,
            "width-4 traversal took {elapsed:?} on {} rows",
            rel.len()
        );
        let _ = elapsed;
        assert_eq!(d.max_context(), 4, "width 4 is the default");
        assert!(
            d.stats.nodes_deleted > 0,
            "superkey contexts must delete their nodes: {:?}",
            d.stats
        );
        assert!(d.stats.propagated_away > 0, "{:?}", d.stats);
        // Deep levels only exist where the data sustains them (taxes' whole
        // universe is 4 attributes, so its level 4 offers no slots at all);
        // at the deepest level that actually created nodes, propagation must
        // resolve more candidate slots than the scans do.
        let deepest = d
            .level_stats()
            .iter()
            .rev()
            .find(|l| l.nodes_created > 0 && l.level >= 3)
            .expect("a level ≥ 3 with live nodes");
        assert!(
            deepest.propagated_away > deepest.validated,
            "deep levels must be propagation-dominated: {deepest:?}"
        );
        // The decider runs on at most every level, never once per candidate.
        assert!(d.stats.decider_rounds >= 1);
        assert!(
            d.stats.decider_rounds <= d.level_stats().len(),
            "decider rounds must be per level: {:?}",
            d.stats
        );
        assert!(d.stats.candidates > d.stats.decider_rounds);
        assert!(d.stats.peak_cached_partitions >= 1);
    }
}

#[test]
fn width3_verdicts_match_the_demand_driven_engine_bit_for_bit() {
    let rel = tax::generate_taxes(10_000, 7);
    for epsilon in [0.0, 0.02] {
        let d = discover_statements(
            &rel,
            &LatticeConfig {
                max_context: 3,
                epsilon,
                ..Default::default()
            },
        );
        let budget = d.budget();
        let mut cache = PartitionCache::new(&rel);
        for stmt in statements_within(&rel, 3) {
            assert_eq!(
                d.holds(&stmt),
                validate::statement_verdict(&mut cache, &stmt, 1, budget).within(budget),
                "ε = {epsilon}: bitset traversal and a fresh scan disagree on {stmt}"
            );
        }
        // Minimal verdicts are the scan verdicts themselves: identical
        // removal counts, witnesses and class counts.
        for (stmt, verdict) in d.minimal_statements().iter().zip(d.verdicts()) {
            assert_eq!(
                &validate::statement_verdict(&mut cache, stmt, 1, budget),
                verdict,
                "ε = {epsilon}: verdict drift on {stmt}"
            );
        }
    }
}
