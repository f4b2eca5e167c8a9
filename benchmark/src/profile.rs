//! The profiling workloads: a relation goes in, its minimal order
//! dependencies come out.
//!
//! * `profile-scale` — encode a 200k-row scale table and run the width-4
//!   lattice over it.  Encoding, partition products and scans do nearly all
//!   the work, on tens of megabytes of rows, codes and partitions: far more
//!   than the CPU caches hold.
//! * `profile-dist` — the same inputs through two self-exec'd worker
//!   processes (spawn, snapshot, frames, merge); `profile-scale` is its
//!   no-change control for dist-only changes.
//! * `profile-wide` — list-OD discovery on a three-year date dimension: small
//!   enough to stay in cache, so list enumeration, decider pruning and
//!   lattice control dominate instead of partitions.

use crate::trace::Spans;
use crate::{ms_since, report_trace, run_for, timed_setups, Outcome, RunArgs, SETUPS_AFTER};
use od_core::{OrderDependency, Relation, Value};
use od_discovery::{discover_ods, Discovery, DiscoveryConfig};
use od_infer::{Decider, OdSet};
use od_obs::{MetricsSnapshot, Registry};
use od_setbased::{
    discover_statements, discover_statements_dist, translate_od, validate, DistStats,
    LatticeConfig, LatticeStats, PartitionCache, SetBasedDiscovery, SetOd, WorkerLauncher,
};
use od_workload::{generate_scale_rows, scale_ods, scale_schema, SCALE_1M};
use std::sync::Arc;
use std::time::Instant;

const SCALE_ROWS: usize = 200_000;
const SMOKE_SCALE_ROWS: usize = 20_000;
/// Worker processes of `profile-dist`: one per CPU of the reference host.
const DIST_WORKERS: usize = 2;
const WIDE_DAYS: usize = 1095;
/// The lattice depth `discover_ods` needs for its default 2/2 widths.
const WIDE_LATTICE_DEPTH: usize = 2;

/// One profile's output and transport telemetry.
type Profile = (SetBasedDiscovery, Option<DistStats>);

fn lattice(dist: bool) -> LatticeConfig {
    LatticeConfig {
        workers: if dist { DIST_WORKERS } else { 0 },
        ..LatticeConfig::default()
    }
}

/// The `SCALE_1M` table at `rows` rows, every value passed through an
/// order-preserving map keyed by `key`: `v ↦ v·2¹⁶ + h(v)` with `h` a keyed
/// 16-bit hash.  Each seed gets its own values but the same partitions,
/// lattice and scan lengths, so its cost is the same: with the generator's
/// own seed varied instead, the width-4 profile's cost moves by ±25%
/// between seeds, because validation stops at a statement's first
/// violation and where that falls depends on the data.
fn scale_rows(rows: usize, key: u64) -> Vec<Vec<Value>> {
    let relabel = |v: i64| {
        let mut h = (v as u64) ^ key;
        h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (v << 16) | (h & 0xFFFF) as i64
    };
    let mut table = generate_scale_rows(&SCALE_1M.with_rows(rows));
    for row in &mut table {
        for value in row.iter_mut() {
            if let Value::Int(v) = value {
                *v = relabel(*v);
            }
        }
    }
    table
}

/// Encode `rows` and profile them: the timed operation of `profile-scale`
/// and `profile-dist`.  Under `traced`, each layer call gets its own span.
fn encode_and_profile(
    rows: Vec<Vec<Value>>,
    dist: bool,
    traced: bool,
) -> (Relation, Result<Profile, String>) {
    let span = |name: &str| traced.then(|| od_obs::span(name));
    let _op = span("profile");
    let rel = {
        let _s = span("od-core");
        Relation::from_rows(scale_schema(), rows).expect("generated rows fit the schema")
    };
    let found = {
        let _s = span("od-setbased");
        if dist {
            discover_statements_dist(&rel, &lattice(true), &WorkerLauncher::self_exec())
                .map(|(d, s)| (d, Some(s)))
                .map_err(|e| e.to_string())
        } else {
            Ok((discover_statements(&rel, &lattice(false)), None))
        }
    };
    (rel, found)
}

/// Every minimal statement must hold on a fresh scan.
fn recheck_statements(rel: &Relation, stmts: &[SetOd], out: &mut Outcome, ops: u64) {
    let mut cache = PartitionCache::new(rel);
    let bad: Vec<&SetOd> = stmts
        .iter()
        .filter(|s| validate::statement_verdict(&mut cache, s, 1, 0).removal_count > 0)
        .collect();
    if bad.is_empty() {
        out.note(format!(
            "check: all {} minimal statements hold on a fresh validate scan",
            stmts.len()
        ));
    } else {
        out.fail(
            ops,
            format!(
                "{} minimal statements fail a fresh scan: {bad:?}",
                bad.len()
            ),
        );
    }
}

/// `profile-scale` (`dist = false`) and `profile-dist` (`dist = true`).
pub fn scale(args: &RunArgs, dist: bool, out: &mut Outcome) {
    let rows = if args.smoke {
        SMOKE_SCALE_ROWS
    } else {
        SCALE_ROWS
    };
    let key = args.derive(1);
    out.note(format!(
        "input: scale table, {rows} rows x 6 attributes, values relabelled with key {key:#x}; \
         width-4 lattice{}",
        if dist {
            format!(", {DIST_WORKERS} worker processes")
        } else {
            String::new()
        }
    ));

    // Set-up: generate the rows, then the first profile.
    let setup = || {
        let input = scale_rows(rows, key);
        let (_, warm) = encode_and_profile(input.clone(), dist, false);
        warm.expect("the warm-up profile succeeds");
        input
    };
    let (input, mut setup_s) = timed_setups(1, setup);

    let registry = Arc::new(Registry::new());
    let (mut op_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut first: Option<(Relation, SetBasedDiscovery)> = None;
    let mut frames_bytes = (0u64, 0u64);
    let mut errors = 0u64;
    let ops = run_for(args.duration(), 1, |i| {
        let traced = args.trace && i % 2 == 1;
        let rows = input.clone();
        let t = Instant::now();
        let (rel, found) = if traced {
            od_obs::scoped(Arc::clone(&registry), || {
                encode_and_profile(rows, dist, true)
            })
        } else {
            encode_and_profile(rows, dist, false)
        };
        let ms = ms_since(t);
        if traced || !args.trace {
            op_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        match found {
            Ok((found, telemetry)) => {
                if let (true, Some(s)) = (traced, telemetry) {
                    frames_bytes = (frames_bytes.0 + s.frames, frames_bytes.1 + s.bytes);
                }
                match &first {
                    None => first = Some((rel, found)),
                    Some((_, reference)) => {
                        if reference.minimal_statements() != found.minimal_statements()
                            || reference.verdicts() != found.verdicts()
                        {
                            errors += 1;
                        }
                    }
                }
            }
            Err(_) => errors += 1,
        }
    });
    out.attempted = ops as u64;
    if errors > 0 {
        out.fail(
            errors,
            format!("{errors} profiles errored or differed from the first"),
        );
    }
    let Some((rel, found)) = first else {
        out.fail(ops as u64, "no profile succeeded");
        return;
    };

    // Output checks, once per input, outside the timed region.
    recheck_statements(&rel, found.minimal_statements(), out, ops as u64);
    let missing: Vec<OrderDependency> = scale_ods(rel.schema())
        .into_iter()
        .filter(|od| !translate_od(od).iter().all(|s| found.holds(s)))
        .collect();
    if missing.is_empty() {
        out.note("check: the constructed ODs [ts]->[ts_day], [zipf_key]->[zipf_band] are found or implied");
    } else {
        out.fail(
            ops as u64,
            format!("constructed ODs not found: {missing:?}"),
        );
    }
    if dist {
        let local = discover_statements(&rel, &lattice(false));
        if local.minimal_statements() == found.minimal_statements()
            && local.verdicts() == found.verdicts()
            && local.stats == found.stats
        {
            out.note("check: the dist result equals the in-process engine's (profile-scale's) bit for bit");
        } else {
            out.fail(
                ops as u64,
                "the dist result differs from the in-process engine's",
            );
        }
    }

    if args.trace {
        let snapshot = registry.snapshot();
        let spans = Spans::of(&snapshot);
        let n = op_ms.len().max(1) as f64;
        report_lattice_layers(
            out,
            &snapshot,
            &found.stats,
            found.minimal_statements().len(),
            n,
        );
        out.report("od-core.encode_ms", spans.ms_at("profile/od-core") / n);
        out.report(
            "od-core.encode_radix_passes",
            snapshot
                .counters
                .get("relation.encode.radix_passes")
                .copied()
                .unwrap_or(0) as f64
                / n,
        );
        if dist {
            out.report(
                "od-core.snapshot_bytes_per_row",
                rel.to_bytes().len() as f64 / rel.len().max(1) as f64,
            );
            let load = spans.ms_where(|p| p.contains("dist/worker") && p.ends_with("/load"));
            let wait = spans.ms_where(|p| {
                p.contains("dist/worker") && (p.ends_with("/refine") || p.ends_with("/scan"))
            });
            out.report("od-setbased.dist.load_ms", load / n);
            out.report("od-setbased.dist.wait_ms", wait / n);
            out.report(
                "od-setbased.dist.coordinator_ms",
                (spans.ms_at("profile/od-setbased") - load - wait) / n,
            );
            out.report("od-setbased.dist.frames", frames_bytes.0 as f64 / n);
            out.report("od-setbased.dist.bytes", frames_bytes.1 as f64 / n);
        }
        report_trace(out, &spans, "profile", &untraced_ms, &op_ms);
    } else {
        let peak = od_obs::peak_rss_kib();
        drop((input, rel, found));
        setup_s.extend(timed_setups(SETUPS_AFTER, setup).1);
        out.report_common(&setup_s, peak, &op_ms);
    }
}

/// The lattice's per-layer metrics — partition, validate, lattice control
/// and decider — from the spans of `n` traced profiles plus the counters of
/// one traversal (identical for every profile of one input).
fn report_lattice_layers(
    out: &mut Outcome,
    snapshot: &MetricsSnapshot,
    s: &LatticeStats,
    minimal: usize,
    n: f64,
) {
    let spans = Spans::of(snapshot);
    let refine = spans.ms_named("refine");
    let product = spans.ms_named("product");
    let validate = spans.ms_named("validate");
    let decider = spans.ms_named("decider");
    let expand = spans.ms_named("expand");
    out.report("od-setbased.partition.refine_ms", (refine - product) / n);
    out.report("od-setbased.partition.product_ms", product / n);
    out.report(
        "od-setbased.partition.product_radix_passes",
        s.product_radix_passes as f64,
    );
    out.report("od-setbased.partition.cache_misses", s.cache_misses as f64);
    out.report(
        "od-setbased.partition.cache_hit_ratio",
        s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64,
    );
    out.report(
        "od-setbased.partition.peak_csr_mib",
        snapshot
            .gauges
            .get("partition.csr_bytes")
            .copied()
            .unwrap_or(0) as f64
            / (1u64 << 20) as f64,
    );
    out.report("od-setbased.validate.ms", validate / n);
    out.report("od-setbased.validate.statements", s.validated as f64);
    out.report(
        "od-setbased.validate.useful_ratio",
        minimal as f64 / s.validated.max(1) as f64,
    );
    out.report(
        "od-setbased.lattice.self_ms",
        (spans.ms_named("discovery") - refine - validate - decider - expand) / n,
    );
    out.report("od-setbased.lattice.expand_ms", expand / n);
    out.report("od-setbased.lattice.nodes", s.nodes_created as f64);
    out.report("od-setbased.lattice.candidates", s.candidates as f64);
    out.report(
        "od-setbased.lattice.propagated_away",
        s.propagated_away as f64,
    );
    out.report("od-infer.decider_ms", decider / n);
    out.report("od-infer.decider_pruned", s.decider_pruned as f64);
    out.report("od-infer.witness_hits", s.decider_witness_hits as f64);
}

/// A start year whose next three years hold no leap day (1901 + 4k, k < 50),
/// so every seed's three-year calendar has the same shape and cost.
pub fn three_common_years(seed: u64) -> i32 {
    1901 + 4 * (seed % 50) as i32
}

/// The timed operation of `profile-wide`.
fn discover_wide(rel: &Relation, traced: bool) -> Discovery {
    let span = |name: &str| traced.then(|| od_obs::span(name));
    let _op = span("profile");
    let _s = span("od-discovery");
    discover_ods(rel, DiscoveryConfig::default())
}

/// `profile-wide`.
pub fn wide(args: &RunArgs, out: &mut Outcome) {
    let start_year = three_common_years(args.derive(2));
    let days = if args.smoke { 365 } else { WIDE_DAYS };
    out.note(format!(
        "input: date_dim, {days} days from {start_year}-01-01 x 9 attributes; list-OD discovery, default config"
    ));
    let setup = || {
        let rel = od_workload::generate_date_dim(start_year, days, 0);
        std::hint::black_box(discover_wide(&rel, false));
        rel
    };
    let (rel, mut setup_s) = timed_setups(1, setup);

    let registry = Arc::new(Registry::new());
    let (mut op_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut first: Option<Discovery> = None;
    let mut differing = 0u64;
    let ops = run_for(args.duration(), 1, |i| {
        let traced = args.trace && i % 2 == 1;
        let t = Instant::now();
        let found = if traced {
            od_obs::scoped(Arc::clone(&registry), || discover_wide(&rel, true))
        } else {
            discover_wide(&rel, false)
        };
        let ms = ms_since(t);
        if traced || !args.trace {
            op_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        match &first {
            None => first = Some(found),
            Some(reference) => {
                if reference.ods != found.ods || reference.errors != found.errors {
                    differing += 1;
                }
            }
        }
    });
    out.attempted = ops as u64;
    if differing > 0 {
        out.fail(
            differing,
            format!("{differing} discoveries differed from the first"),
        );
    }
    let found = first.expect("ran at least once");

    // Every returned OD holds on a fresh scan; Figure 2 follows from them.
    let mut cache = PartitionCache::new(&rel);
    let broken: Vec<&OrderDependency> = found
        .ods
        .iter()
        .filter(|od| {
            translate_od(od)
                .iter()
                .any(|s| validate::statement_verdict(&mut cache, s, 1, 0).removal_count > 0)
        })
        .collect();
    if broken.is_empty() {
        out.note(format!(
            "check: all {} discovered ODs hold on a fresh validate scan",
            found.ods.len()
        ));
    } else {
        out.fail(
            ops as u64,
            format!("discovered ODs fail a fresh scan: {broken:?}"),
        );
    }
    let decider = Decider::new(&OdSet::from_ods(found.ods.iter().cloned()));
    let config = DiscoveryConfig::default();
    let unimplied: Vec<String> = od_workload::figure_2_ods(rel.schema())
        .into_iter()
        .filter(|(_, od)| od.lhs.len() <= config.max_lhs && od.rhs.len() <= config.max_rhs)
        .filter(|(_, od)| !decider.implies(od))
        .map(|(name, _)| name)
        .collect();
    if unimplied.is_empty() {
        out.note("check: every Figure 2 OD within the 2/2 search widths is found or implied");
    } else {
        out.fail(
            ops as u64,
            format!("Figure 2 ODs not implied: {unimplied:?}"),
        );
    }

    if args.trace {
        let snapshot = registry.snapshot();
        let spans = Spans::of(&snapshot);
        let n = op_ms.len().max(1) as f64;
        // discover_ods profiles only as deep as its candidate widths need;
        // rerun that traversal for its minimal-statement count.
        let stats = found
            .lattice_stats
            .expect("the set-based engine reports lattice stats");
        let profile = discover_statements(
            &rel,
            &LatticeConfig {
                max_context: WIDE_LATTICE_DEPTH,
                ..LatticeConfig::default()
            },
        );
        if profile.stats != stats {
            out.fail(
                ops as u64,
                "discover_ods' lattice differs from a depth-2 traversal",
            );
        }
        report_lattice_layers(
            out,
            &snapshot,
            &stats,
            profile.minimal_statements().len(),
            n,
        );
        out.report(
            "od-discovery.enumerate_self_ms",
            (spans.ms_at("profile/od-discovery") - spans.ms_named("discovery")) / n,
        );
        out.report("od-discovery.candidates", found.candidates as f64);
        out.report(
            "od-discovery.useful_ratio",
            found.ods.len() as f64 / found.candidates.max(1) as f64,
        );
        report_trace(out, &spans, "profile", &untraced_ms, &op_ms);
    } else {
        let peak = od_obs::peak_rss_kib();
        setup_s.extend(timed_setups(SETUPS_AFTER, setup).1);
        out.report_common(&setup_s, peak, &op_ms);
    }
}
