//! Parallel validation: shard partition-class work across threads.
//!
//! Canonical-statement validation is embarrassingly parallel — each equivalence
//! class contributes an independent removal count and the statement verdict is
//! their sum — so classes are split into contiguous chunks, one scoped thread
//! per chunk, with a shared **atomic error-budget counter**: every thread adds
//! its per-class removals to the counter and stops at the next class boundary
//! once the running total exceeds the budget (budget 0 reproduces the classic
//! first-violation early exit).  Everything uses `std::thread::scope`; no
//! external thread-pool dependency is needed.
//!
//! The accept/reject decision (`verdict.within(budget)`) is deterministic
//! across thread counts: threads only stop early after the shared counter has
//! strictly exceeded the budget, so an accepted verdict always carries the
//! complete, exact removal count.  For rejected verdicts the overshoot and the
//! witness sample depend on scheduling.

use crate::partition::{ClassCodes, ColCodes, PartitionCache, RefineScratch, StrippedPartition};
use crate::validate::{
    class_compatibility_removal, class_constancy_removal, class_first_split, class_first_swap,
    takes_tau_pass, tau_compatibility_verdict, ClassCode, Verdict, WITNESS_SAMPLE_CAP,
};
use od_core::AttrId;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A sensible thread count for validation work on this machine.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Scan every class of `part` with `per_class` (which returns the class's
/// removal count and may append witnesses), sharded over up to `threads`
/// threads, stopping once the summed removal count exceeds `budget`.  Classes
/// are read directly as CSR slices; workers claim contiguous index ranges.
pub fn scan_classes<F>(
    part: &StrippedPartition,
    threads: usize,
    budget: usize,
    per_class: F,
) -> Verdict
where
    F: Fn(&[u32], &mut Vec<(u32, u32)>) -> usize + Sync,
{
    let n_classes = part.num_classes();
    let threads = threads.clamp(1, n_classes.max(1));
    if threads <= 1 || n_classes < 2 {
        let mut verdict = Verdict::clean();
        for class in part.classes() {
            verdict.classes_scanned += 1;
            verdict.removal_count += per_class(class, &mut verdict.violating_pairs);
            if verdict.removal_count > budget {
                verdict.exceeded = true;
                break;
            }
        }
        return verdict;
    }
    let removal = AtomicUsize::new(0);
    let scanned = AtomicUsize::new(0);
    let exceeded = AtomicBool::new(false);
    let chunk_size = n_classes.div_ceil(threads);
    let mut witnesses: Vec<(u32, u32)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut start = 0usize;
        while start < n_classes {
            let end = (start + chunk_size).min(n_classes);
            let removal = &removal;
            let scanned = &scanned;
            let exceeded = &exceeded;
            let per_class = &per_class;
            handles.push(scope.spawn(move || {
                let mut local_witnesses = Vec::new();
                let mut local_scanned = 0usize;
                for i in start..end {
                    if exceeded.load(Ordering::Relaxed) {
                        break;
                    }
                    local_scanned += 1;
                    let r = per_class(part.class(i), &mut local_witnesses);
                    if r > 0 {
                        let total = removal.fetch_add(r, Ordering::Relaxed) + r;
                        if total > budget {
                            exceeded.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                scanned.fetch_add(local_scanned, Ordering::Relaxed);
                local_witnesses
            }));
            start = end;
        }
        for handle in handles {
            let local = handle.join().expect("validation worker panicked");
            for pair in local {
                if witnesses.len() >= WITNESS_SAMPLE_CAP {
                    break;
                }
                witnesses.push(pair);
            }
        }
    });
    Verdict {
        removal_count: removal.load(Ordering::Relaxed),
        exceeded: exceeded.load(Ordering::Relaxed),
        violating_pairs: witnesses,
        classes_scanned: scanned.load(Ordering::Relaxed),
    }
}

/// Parallel variant of [`crate::validate::constancy_verdict`].  At budget 0
/// a violating class counts 1 and contributes its first split alone.
pub fn constancy_verdict_parallel<C: ClassCode>(
    part: &StrippedPartition,
    codes: &[C],
    threads: usize,
    budget: usize,
) -> Verdict {
    scan_classes(part, threads, budget, |class, witnesses| {
        let Some(split) = class_first_split(class, codes) else {
            return 0;
        };
        if budget == 0 {
            witnesses.push(split);
            1
        } else {
            class_constancy_removal(class, codes, witnesses)
        }
    })
}

/// Parallel variant of [`crate::validate::compatibility_verdict`].  At budget
/// 0 a violating class counts 1 and contributes its first swap alone.
pub fn compatibility_verdict_parallel<C: ClassCode>(
    part: &StrippedPartition,
    codes_a: &[C],
    codes_b: &[C],
    threads: usize,
    budget: usize,
) -> Verdict {
    scan_classes(part, threads, budget, |class, witnesses| {
        let Some(swap) = class_first_swap(class, codes_a, codes_b) else {
            return 0;
        };
        if budget == 0 {
            witnesses.push(swap);
            1
        } else {
            class_compatibility_removal(class, codes_a, codes_b, witnesses)
        }
    })
}

/// One statement's pre-resolved inputs for a batched validation pass: the
/// context's stripped partition plus the rank codes of the mentioned
/// attribute(s).  Building the jobs (partition products, code lookups) stays
/// serial — the caches hand out `Rc`s — while the scans themselves are
/// shared-nothing reads.  Compatibility jobs come from
/// `with_compatibility_jobs`, which picks each statement's kernel.
pub enum StatementJob<'a> {
    /// `𝒞 : [] ↦ A` over `part` with `A`'s codes.
    Constancy {
        /// Stripped partition of the context `𝒞`.
        part: &'a StrippedPartition,
        /// Rank codes of the constant attribute.
        codes: &'a [u32],
    },
    /// `𝒞 : A ~ B` over `part` with both attributes' codes.
    Compatibility {
        /// Stripped partition of the context `𝒞`.
        part: &'a StrippedPartition,
        /// Rank codes of the pair's smaller attribute.
        codes_a: &'a [u32],
        /// Rank codes of the pair's larger attribute.
        codes_b: &'a [u32],
    },
    /// `𝒞 : A ~ B` as one walk over τ_A (see
    /// [`crate::validate::tau_compatibility_verdict`]).
    CompatibilityTau {
        /// Stripped partition of the context `𝒞`.
        part: &'a StrippedPartition,
        /// Row → class id in `part`; `None` when one class covers every row.
        class_ids: Option<&'a ClassCodes>,
        /// τ_A: every row in order of `A`'s code.
        order_a: &'a [u32],
        /// Rank codes of the pair's smaller attribute.
        codes_a: &'a [u32],
        /// Rank codes of the pair's larger attribute.
        codes_b: &'a [u32],
    },
}

impl StatementJob<'_> {
    /// Scan this job.  `threads` shard the classes of a per-class scan; the
    /// τ pass is one serial walk.
    pub(crate) fn run(&self, threads: usize, budget: usize) -> Verdict {
        match *self {
            StatementJob::Constancy { part, codes } => {
                constancy_verdict_parallel(part, codes, threads, budget)
            }
            StatementJob::Compatibility {
                part,
                codes_a,
                codes_b,
            } => compatibility_verdict_parallel(part, codes_a, codes_b, threads, budget),
            StatementJob::CompatibilityTau {
                part,
                class_ids,
                order_a,
                codes_a,
                codes_b,
            } => tau_compatibility_verdict(part, class_ids, order_a, codes_a, codes_b, budget),
        }
    }
}

/// Build the scan jobs of a batch of compatibility statements — each given as
/// its context's partition and its pair `(A, B)` — and hand them to `scan`.
///
/// The one place a compatibility statement's kernel is chosen: a context
/// whose largest class is large ([`takes_tau_pass`]) walks τ_A, memoized in
/// `cache`; every other context sorts per class.  A τ-pass context needs the
/// class id of every row unless one class covers them all; those ids are
/// built once per run of consecutive items on the same partition (callers
/// list a context's statements together) and dropped with the batch.
pub(crate) fn with_compatibility_jobs<R>(
    cache: &mut PartitionCache<'_>,
    items: &[(&StrippedPartition, AttrId, AttrId)],
    scan: impl FnOnce(&[StatementJob<'_>]) -> R,
) -> R {
    let codes: Vec<(ColCodes, ColCodes)> = items
        .iter()
        .map(|&(_, a, b)| (cache.codes(a), cache.codes(b)))
        .collect();
    // Per item on the τ pass: τ_A, and which of `class_ids` is its context's.
    let mut orders: Vec<Option<Rc<Vec<u32>>>> = Vec::with_capacity(items.len());
    let mut id_of: Vec<Option<usize>> = Vec::with_capacity(items.len());
    let mut class_ids: Vec<ClassCodes> = Vec::new();
    let mut last: Option<(&StrippedPartition, bool)> = None;
    for &(part, a, _) in items {
        let tau = match last {
            Some((prev, tau)) if std::ptr::eq(prev, part) => tau,
            _ => {
                let tau = takes_tau_pass(part);
                if tau && !part.is_single_class() {
                    class_ids.push(part.class_codes());
                }
                last = Some((part, tau));
                tau
            }
        };
        orders.push(tau.then(|| cache.attr_order(a)));
        id_of.push((tau && !part.is_single_class()).then(|| class_ids.len() - 1));
    }
    let jobs: Vec<StatementJob<'_>> = items
        .iter()
        .enumerate()
        .map(|(i, &(part, ..))| {
            let (codes_a, codes_b) = (&codes[i].0[..], &codes[i].1[..]);
            match &orders[i] {
                Some(order_a) => StatementJob::CompatibilityTau {
                    part,
                    class_ids: id_of[i].map(|k| &class_ids[k]),
                    order_a,
                    codes_a,
                    codes_b,
                },
                None => StatementJob::Compatibility {
                    part,
                    codes_a,
                    codes_b,
                },
            }
        })
        .collect();
    scan(&jobs)
}

/// Validate a whole level's surviving statements in one sharded pass.
///
/// Where [`scan_classes`] parallelizes *within* one statement (sharding one
/// partition's classes), this shards *across* statements: each job is scanned
/// serially by exactly one thread, jobs are claimed from a shared atomic
/// cursor (statement costs vary wildly — a level's empty-context statement
/// covers every row while its key-adjacent ones cover almost none, so static
/// chunking would straggle), and the verdicts come back in job order.  Because
/// every scan is the serial scan, the returned verdicts — witnesses, exact
/// overshoot and all — are bit-identical on every thread count.
pub fn validate_statement_batch(
    jobs: &[StatementJob<'_>],
    threads: usize,
    budget: usize,
) -> Vec<Verdict> {
    let run = |job: &StatementJob<'_>| job.run(1, budget);
    let threads = threads.clamp(1, jobs.len().max(1));
    if threads <= 1 || jobs.len() < 2 {
        return jobs.iter().map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<Verdict>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let cursor = &cursor;
            let run = &run;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    local.push((i, run(&jobs[i])));
                }
                local
            }));
        }
        for handle in handles {
            for (i, verdict) in handle.join().expect("batch validation worker panicked") {
                out[i] = Some(verdict);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every job index is claimed exactly once"))
        .collect()
}

/// One context's partition composition for a sharded level expansion: either a
/// level-1 bucketing of the full relation on an attribute's raw code column,
/// or a level ≥ 2 packed-u64 product against the last attribute's class-code
/// column.  Both are pure functions of their inputs.
#[derive(Clone, Copy)]
pub enum RefineJob<'a> {
    /// Bucket `base` (the full-relation partition) on a raw code column.
    Codes {
        /// Partition of the context minus its last attribute.
        base: &'a StrippedPartition,
        /// The last attribute's order-preserving rank codes.
        codes: &'a [u32],
    },
    /// Product of `base` with the last attribute's class-code column.
    Product {
        /// Partition of the context minus its last attribute.
        base: &'a StrippedPartition,
        /// The last attribute's dense class ids ([`ClassCodes`]).
        other: &'a ClassCodes,
    },
}

impl RefineJob<'_> {
    fn run(&self, scratch: &mut RefineScratch) -> StrippedPartition {
        match self {
            RefineJob::Codes { base, codes } => base.refine_by_with(codes, scratch),
            RefineJob::Product { base, other } => base.product_with(other, scratch),
        }
    }
}

/// Shard a level's partition products **by context** across threads.
///
/// Each job is one context's incremental composition (see [`RefineJob`]);
/// `None` jobs (contexts already cached) pass through untouched.  Jobs are
/// claimed from contiguous chunks with one reused [`RefineScratch`] per
/// worker; every job is a pure function of its inputs, so the output vector is
/// bit-identical on every thread count.  This is the third sharding axis of
/// the crate — classes within a scan ([`scan_classes`]), statements within a
/// level ([`validate_statement_batch`]), and now contexts within a level
/// expansion.
///
/// The second and third return values are the total radix counting passes the
/// workers spent on u32 refinement keys and packed u64 product keys — each a
/// deterministic function of the jobs (a per-class property, independent of
/// how jobs were sharded), summed here so the orchestrating thread can fold
/// them into its own metrics; the workers themselves never touch od-obs.
pub fn refine_batch(
    jobs: &[Option<RefineJob<'_>>],
    threads: usize,
) -> (Vec<Option<StrippedPartition>>, u64, u64) {
    let live = jobs.iter().filter(|j| j.is_some()).count();
    let threads = threads.clamp(1, live.max(1));
    if threads <= 1 || live < 2 {
        let mut scratch = RefineScratch::default();
        let out = jobs
            .iter()
            .map(|job| job.map(|j| j.run(&mut scratch)))
            .collect();
        return (out, scratch.radix_passes(), scratch.product_radix_passes());
    }
    let chunk_size = jobs.len().div_ceil(threads);
    let mut out: Vec<Option<StrippedPartition>> = Vec::with_capacity(jobs.len());
    let mut passes = 0u64;
    let mut product_passes = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in jobs.chunks(chunk_size) {
            handles.push(scope.spawn(move || {
                let mut scratch = RefineScratch::default();
                let fresh = chunk
                    .iter()
                    .map(|job| job.map(|j| j.run(&mut scratch)))
                    .collect::<Vec<_>>();
                (
                    fresh,
                    scratch.radix_passes(),
                    scratch.product_radix_passes(),
                )
            }));
        }
        for handle in handles {
            let (fresh, worker_passes, worker_product) =
                handle.join().expect("refinement worker panicked");
            out.extend(fresh);
            passes += worker_passes;
            product_passes += worker_product;
        }
    });
    (out, passes, product_passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{compatibility_verdict, constancy_verdict};
    use od_core::{AttrId, Relation, Schema, Value};

    fn rel_with_groups(groups: usize, per_group: usize) -> Relation {
        let mut schema = Schema::new("t");
        schema.add_attr("g");
        schema.add_attr("a");
        schema.add_attr("b");
        let mut rows = Vec::new();
        for g in 0..groups as i64 {
            for i in 0..per_group as i64 {
                rows.push(vec![Value::Int(g), Value::Int(i), Value::Int(i * 2)]);
            }
        }
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn parallel_agrees_with_serial() {
        let rel = rel_with_groups(23, 7);
        let g = rel.rank_column(AttrId(0));
        let a = rel.rank_column(AttrId(1));
        let b = rel.rank_column(AttrId(2));
        let part = StrippedPartition::by_codes_with(&g, &mut RefineScratch::default());
        for threads in [1, 2, 4, 16] {
            // Unlimited budget: removal counts are exact on any thread count.
            let c = constancy_verdict_parallel(&part, &a, threads, usize::MAX);
            assert_eq!(
                c.removal_count,
                constancy_verdict(&part, &a, usize::MAX).removal_count
            );
            assert_eq!(c.classes_scanned, part.num_classes());
            let k = compatibility_verdict_parallel(&part, &a, &b, threads, usize::MAX);
            assert_eq!(
                k.removal_count,
                compatibility_verdict(&part, &a, &b, usize::MAX).removal_count
            );
        }
        // Constancy of g itself within g-classes holds on any thread count.
        assert!(constancy_verdict_parallel(&part, &g, 4, 0).holds());
    }

    #[test]
    fn budget_exceeded_reports_failure() {
        // b decreases while a increases inside every class: all-swap classes.
        let mut schema = Schema::new("t");
        schema.add_attr("g");
        schema.add_attr("a");
        schema.add_attr("b");
        let mut rows = Vec::new();
        for g in 0..40i64 {
            rows.push(vec![Value::Int(g), Value::Int(0), Value::Int(1)]);
            rows.push(vec![Value::Int(g), Value::Int(1), Value::Int(0)]);
        }
        let rel = Relation::from_rows(schema, rows).unwrap();
        let g = rel.rank_column(AttrId(0));
        let a = rel.rank_column(AttrId(1));
        let b = rel.rank_column(AttrId(2));
        let part = StrippedPartition::by_codes_with(&g, &mut RefineScratch::default());
        let k = compatibility_verdict_parallel(&part, &a, &b, 8, 0);
        assert!(!k.holds() && k.exceeded && !k.within(0));
        assert!(!k.violating_pairs.is_empty());
        let c = constancy_verdict_parallel(&part, &a, 8, 0);
        assert!(!c.holds());
        // With one removal per class and 40 classes, a budget of 39 is a near
        // miss and 40 accepts: the decision matches on every thread count.
        for threads in [1, 3, 8] {
            assert!(!compatibility_verdict_parallel(&part, &a, &b, threads, 39).within(39));
            assert!(compatibility_verdict_parallel(&part, &a, &b, threads, 40).within(40));
        }
    }

    #[test]
    fn degenerate_inputs() {
        let part = crate::partition::StrippedPartition::full(0);
        assert!(constancy_verdict_parallel::<u32>(&part, &[], 4, 0).holds());
        assert!(
            scan_classes(&part, 4, 0, |_, _| 1).holds(),
            "vacuous truth over no classes"
        );
        assert!(available_threads() >= 1);
    }

    #[test]
    fn statement_batch_matches_serial_scans_on_any_thread_count() {
        let rel = rel_with_groups(17, 5);
        let g = rel.rank_column(AttrId(0));
        let a = rel.rank_column(AttrId(1));
        let b = rel.rank_column(AttrId(2));
        let part = StrippedPartition::by_codes_with(&g, &mut RefineScratch::default());
        let jobs = vec![
            StatementJob::Constancy {
                part: &part,
                codes: &a,
            },
            StatementJob::Compatibility {
                part: &part,
                codes_a: &a,
                codes_b: &b,
            },
            StatementJob::Constancy {
                part: &part,
                codes: &g,
            },
        ];
        let serial = validate_statement_batch(&jobs, 1, usize::MAX);
        for threads in [2, 4, 16] {
            let batched = validate_statement_batch(&jobs, threads, usize::MAX);
            assert_eq!(serial, batched, "threads = {threads}");
        }
        assert_eq!(serial[0].removal_count, 17 * 4);
        assert!(serial[1].holds() && serial[2].holds());
        assert!(validate_statement_batch(&[], 8, 0).is_empty());
    }
}
