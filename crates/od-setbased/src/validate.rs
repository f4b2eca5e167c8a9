//! Data-level validation of canonical statements against stripped
//! partitions, returning **violation evidence** rather than bare booleans.
//!
//! Every statement check produces a [`Verdict`]: the minimal number of tuples
//! that must be removed for the statement to hold (the numerator of the
//! TANE-style `g3` error), a bounded sample of violating row pairs, and the
//! number of partition classes scanned.  Exact validation is the special case
//! `removal_count == 0`; approximate validation accepts any verdict whose
//! removal count stays within an error budget `⌊ε·n⌋`.
//!
//! The per-class removal counts are exact:
//!
//! * **constancy** `𝒞 : [] ↦ A` — a class becomes constant on `A` by keeping
//!   its largest `A`-value group, so the minimal removal is
//!   `|class| − max value-group size`;
//! * **compatibility** `𝒞 : A ~ B` — a class becomes swap-free by keeping a
//!   largest subset in which `A`-order never inverts `B`-order.  Sorting the
//!   class by `(code_A, code_B)`, such subsets are exactly the subsequences
//!   with non-decreasing `code_B` (ties on `A` are unconstrained and sort
//!   adjacent), so the minimal removal is `|class| −` the longest
//!   non-decreasing `B`-subsequence (an `O(k log k)` LIS pass).
//!
//! Classes are independent — removing tuples of one class cannot create
//! violations in another — so the statement-level removal count is the sum
//! over classes, and scans short-circuit once the running sum exceeds the
//! budget.
//!
//! All validators work on order-preserving rank codes (see
//! [`od_core::Relation::rank_column`]): equality is integer equality, order is
//! integer order, and every check is a linear pass over the rows a partition
//! still tracks — never an `O(n log n)` re-sort of the relation.

use crate::canonical::SetOd;
use crate::parallel;
use crate::partition::{PartitionCache, StrippedPartition};
use od_core::radix;

/// Row-coverage threshold below which threaded validation is not worth the
/// spawning overhead.
pub const PARALLEL_ROW_THRESHOLD: usize = 8_192;

/// Maximum number of violating row pairs a verdict samples as witnesses.
pub const WITNESS_SAMPLE_CAP: usize = 8;

/// Class size from which the `u32` validators switch their per-class sorts
/// from `sort_unstable` to counting-sort radix passes.
const CLASS_RADIX_MIN: usize = 256;

/// An order-preserving code type the class validators can sort on.
///
/// Implemented for `u32` (the snapshot path's dense rank codes, see
/// [`od_core::ColumnarEncoding`]) and `u64` (the streaming path's gapped live
/// codes, see [`crate::stream`]).  The provided methods are plain
/// `sort_unstable` calls; the `u32` impl overrides them with stable LSB
/// [`od_core::radix`] counting passes once a class is large enough to
/// amortize the histogram pre-pass, packing `(a, b)` code pairs into a single
/// `u64` key.  Both routes produce the same sorted order — validators are
/// bit-identical either way.
///
/// **Precondition** shared by all three sorts: callers push class rows in
/// ascending row order, which lets the stable radix path stand in for a full
/// lexicographic `sort_unstable` (equal keys keep ascending rows either way).
/// These per-class sorts run inside worker threads, so unlike partition
/// refinement they record no `radix_passes` metrics — the scoped od-obs
/// registry is thread-local to the orchestrator.
pub trait ClassCode: Copy + Ord + Send + Sync {
    /// Sort `(code, row)` pairs by code, rows ascending within equal codes.
    fn sort_group_pairs(pairs: &mut Vec<(Self, u32)>) {
        pairs.sort_unstable();
    }

    /// Sort `(code_a, code_b)` pairs lexicographically.
    fn sort_key_pairs(pairs: &mut Vec<(Self, Self)>) {
        pairs.sort_unstable();
    }

    /// Sort `(code_a, code_b, row)` triples lexicographically.
    fn sort_triples(triples: &mut Vec<(Self, Self, u32)>) {
        triples.sort_unstable();
    }
}

/// Streaming live codes: class sizes in the ledger path stay small, so the
/// comparison-sort defaults are the right tool.
impl ClassCode for u64 {}

impl ClassCode for u32 {
    fn sort_group_pairs(pairs: &mut Vec<(u32, u32)>) {
        if pairs.len() < CLASS_RADIX_MIN {
            pairs.sort_unstable();
        } else {
            radix::sort_pairs(pairs, &mut Vec::new());
        }
    }

    fn sort_key_pairs(pairs: &mut Vec<(u32, u32)>) {
        if pairs.len() < CLASS_RADIX_MIN {
            pairs.sort_unstable();
            return;
        }
        // Pack both codes into one u64 key (payload unused — equal packed
        // keys are identical pairs, so any stable order is the sorted order).
        let mut keyed: Vec<(u64, u32)> = pairs
            .iter()
            .map(|&(a, b)| ((u64::from(a) << 32) | u64::from(b), 0))
            .collect();
        radix::sort_pairs(&mut keyed, &mut Vec::new());
        for (dst, &(key, _)) in pairs.iter_mut().zip(keyed.iter()) {
            *dst = ((key >> 32) as u32, key as u32);
        }
    }

    fn sort_triples(triples: &mut Vec<(u32, u32, u32)>) {
        if triples.len() < CLASS_RADIX_MIN {
            triples.sort_unstable();
            return;
        }
        let mut keyed: Vec<(u64, u32)> = triples
            .iter()
            .map(|&(a, b, row)| ((u64::from(a) << 32) | u64::from(b), row))
            .collect();
        radix::sort_pairs(&mut keyed, &mut Vec::new());
        for (dst, &(key, row)) in triples.iter_mut().zip(keyed.iter()) {
            *dst = ((key >> 32) as u32, key as u32, row);
        }
    }
}

/// The tuple-removal budget `⌊ε·n⌋` corresponding to an error threshold ε on
/// an `n`-row relation (non-finite or negative ε clamps to 0, ε ≥ 1 to `n`).
pub fn error_budget(n_rows: usize, epsilon: f64) -> usize {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        0
    } else if epsilon >= 1.0 {
        n_rows
    } else {
        (epsilon * n_rows as f64).floor() as usize
    }
}

/// Violation evidence from one statement (or whole-OD) check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Minimal number of tuples to remove so the checked statement holds (the
    /// `g3` numerator).  Exact when the scan ran to completion; a lower bound
    /// when [`Self::exceeded`] is set; an upper bound when the verdict was
    /// inherited from a sub-context statement instead of scanned.
    pub removal_count: usize,
    /// True when the scan stopped early because `removal_count` went past the
    /// error budget — the count is then a lower bound, which is all an
    /// accept/reject decision needs.
    pub exceeded: bool,
    /// Sampled violating row pairs (at most [`WITNESS_SAMPLE_CAP`]): rows that
    /// disagree on the constant attribute, or a swap pair for compatibility.
    pub violating_pairs: Vec<(u32, u32)>,
    /// Partition classes examined before the scan finished or short-circuited.
    pub classes_scanned: usize,
}

impl Verdict {
    /// The verdict of a statement with no violations.
    pub fn clean() -> Self {
        Verdict::default()
    }

    /// Does the statement hold exactly (no tuple needs to be removed)?
    pub fn holds(&self) -> bool {
        self.removal_count == 0
    }

    /// Does the statement hold after removing at most `budget` tuples?
    ///
    /// Sound under early exit: a scan only stops once its running removal
    /// count strictly exceeds the budget, so `removal_count <= budget` implies
    /// the count is complete.
    pub fn within(&self, budget: usize) -> bool {
        self.removal_count <= budget
    }

    /// The `g3` error: the fraction of tuples to remove (0 on empty relations).
    pub fn g3(&self, n_rows: usize) -> f64 {
        if n_rows == 0 {
            0.0
        } else {
            self.removal_count as f64 / n_rows as f64
        }
    }

    /// Combine per-statement verdicts of one OD: the removal count becomes the
    /// **maximum** over statements — the `g3` score of the OD's worst canonical
    /// statement, which is the acceptance measure for approximate discovery and
    /// a lower bound on the OD-level `g3` (the true OD removal lies between the
    /// max and the sum of its statement removals, since statement satisfaction
    /// is monotone under tuple removal).
    pub fn join_max(&mut self, other: &Verdict) {
        self.removal_count = self.removal_count.max(other.removal_count);
        self.exceeded |= other.exceeded;
        self.classes_scanned += other.classes_scanned;
        for &pair in &other.violating_pairs {
            if self.violating_pairs.len() >= WITNESS_SAMPLE_CAP {
                break;
            }
            self.violating_pairs.push(pair);
        }
    }
}

/// Is `attr` (given by its codes) constant within one equivalence class?
///
/// Generic over the code type so both the snapshot path (dense `u32` rank
/// codes) and the streaming path (gapped `u64` live codes, see
/// [`crate::stream`]) share one implementation — any order-preserving code
/// assignment yields the same answer.
pub fn class_is_constant<C: Copy + Ord>(class: &[u32], codes: &[C]) -> bool {
    let first = codes[class[0] as usize];
    class.iter().all(|&row| codes[row as usize] == first)
}

/// Minimal tuples to remove so the class becomes constant on `attr`:
/// `|class| − max value-group size`.  Appends up to the remaining witness
/// capacity pairs of rows holding different values.
pub fn class_constancy_removal<C: ClassCode>(
    class: &[u32],
    codes: &[C],
    witnesses: &mut Vec<(u32, u32)>,
) -> usize {
    // Count value groups via a sorted scratch of the class's codes.  Classes
    // reaching this path are known non-constant, so the work is proportional
    // to actual violations.
    let mut sorted: Vec<(C, u32)> = class.iter().map(|&r| (codes[r as usize], r)).collect();
    C::sort_group_pairs(&mut sorted);
    let mut max_group = 0usize;
    let mut start = 0usize;
    for i in 1..=sorted.len() {
        if i == sorted.len() || sorted[i].0 != sorted[start].0 {
            max_group = max_group.max(i - start);
            start = i;
        }
    }
    // Witnesses: the class head against rows carrying a different value.
    let head = class[0];
    let head_code = codes[head as usize];
    for &row in class.iter().skip(1) {
        if witnesses.len() >= WITNESS_SAMPLE_CAP {
            break;
        }
        if codes[row as usize] != head_code {
            witnesses.push((head, row));
        }
    }
    class.len() - max_group
}

/// Are two attributes (given by their codes) order compatible within one
/// equivalence class — i.e. is there no pair `s, t` in the class with
/// `s.A < t.A` but `s.B > t.B`?
///
/// Runs by sorting the class's `(code_a, code_b)` pairs and requiring that the
/// minimum `B` of each successive `A`-group is no smaller than the maximum `B`
/// seen in earlier groups.  Ties on `A` never produce swaps.
pub fn class_is_compatible<C: ClassCode>(class: &[u32], codes_a: &[C], codes_b: &[C]) -> bool {
    if class.len() < 2 {
        return true;
    }
    let mut pairs: Vec<(C, C)> = class
        .iter()
        .map(|&row| (codes_a[row as usize], codes_b[row as usize]))
        .collect();
    C::sort_key_pairs(&mut pairs);
    let mut prev_groups_max_b: Option<C> = None;
    let mut group_a = pairs[0].0;
    let mut group_max_b = pairs[0].1;
    for &(a, b) in &pairs[1..] {
        if a != group_a {
            // New A-group: its smallest B (this element, since pairs are sorted)
            // must not undercut any earlier group's B.
            prev_groups_max_b = Some(prev_groups_max_b.map_or(group_max_b, |m| m.max(group_max_b)));
            if b < prev_groups_max_b.expect("just set") {
                return false;
            }
            group_a = a;
            group_max_b = b;
        } else {
            group_max_b = group_max_b.max(b);
        }
    }
    true
}

/// Minimal tuples to remove so the class becomes swap-free on `(A, B)`.
///
/// A kept subset is swap-free iff, ordered by `(code_a, code_b)`, its `code_b`
/// sequence is non-decreasing (elements tied on `A` are mutually unconstrained
/// and sort adjacent, so any non-decreasing-`B` subsequence of the sorted class
/// is swap-free and vice versa).  The largest such subset is the longest
/// non-decreasing subsequence of `B`, found with the `O(k log k)` patience
/// pass.  Appends up to the remaining witness capacity swap pairs.
pub fn class_compatibility_removal<C: ClassCode>(
    class: &[u32],
    codes_a: &[C],
    codes_b: &[C],
    witnesses: &mut Vec<(u32, u32)>,
) -> usize {
    if class.len() < 2 {
        return 0;
    }
    let mut triples: Vec<(C, C, u32)> = class
        .iter()
        .map(|&row| (codes_a[row as usize], codes_b[row as usize], row))
        .collect();
    C::sort_triples(&mut triples);
    // Longest non-decreasing subsequence of B: `tails[k]` is the smallest tail
    // of any non-decreasing subsequence of length `k + 1`.
    let mut tails: Vec<C> = Vec::new();
    // Swap witnesses: the running maximum B (with its row) of *previous*
    // A-groups; any row of a later group with a smaller B is a swap partner.
    let mut prev_max: Option<(C, u32)> = None; // (code_b, row) over closed A-groups
    let mut group_a = triples[0].0;
    let mut group_max: (C, u32) = (triples[0].1, triples[0].2);
    for &(a, b, row) in &triples {
        if a != group_a {
            prev_max = Some(match prev_max {
                Some(m) if m.0 >= group_max.0 => m,
                _ => group_max,
            });
            group_a = a;
            group_max = (b, row);
        } else if b > group_max.0 {
            group_max = (b, row);
        }
        if let Some((mb, mrow)) = prev_max {
            if b < mb && witnesses.len() < WITNESS_SAMPLE_CAP {
                witnesses.push((mrow, row));
            }
        }
        let pos = tails.partition_point(|&t| t <= b);
        if pos == tails.len() {
            tails.push(b);
        } else {
            tails[pos] = b;
        }
    }
    class.len() - tails.len()
}

/// Validate `𝒞 : [] ↦ A` over a stripped partition of `𝒞`, stopping once the
/// removal count exceeds `budget` (the serial case of
/// [`parallel::constancy_verdict_parallel`] — one scan loop serves both).
pub fn constancy_verdict(part: &StrippedPartition, codes: &[u32], budget: usize) -> Verdict {
    parallel::constancy_verdict_parallel(part, codes, 1, budget)
}

/// Validate `𝒞 : A ~ B` over a stripped partition of `𝒞`, stopping once the
/// removal count exceeds `budget` (the serial case of
/// [`parallel::compatibility_verdict_parallel`]).
pub fn compatibility_verdict(
    part: &StrippedPartition,
    codes_a: &[u32],
    codes_b: &[u32],
    budget: usize,
) -> Verdict {
    parallel::compatibility_verdict_parallel(part, codes_a, codes_b, 1, budget)
}

/// Validate one canonical statement against the data: fetch (or build) the
/// context's stripped partition and scan it, sharding classes across
/// `threads` threads when the partition covers at least
/// [`PARALLEL_ROW_THRESHOLD`] rows.  The single dispatch point shared by the
/// lattice traversal and the demand-driven engine.
///
/// `budget` is the tuple-removal allowance `⌊ε·n⌋`: the scan short-circuits
/// once the statement's removal count exceeds it (0 = exact validation with
/// the classic first-violation early exit).  The accept/reject decision
/// (`verdict.within(budget)`) is deterministic across thread counts; the
/// sampled witnesses and the exact overshoot of a rejected verdict are not.
pub fn statement_verdict(
    cache: &mut PartitionCache<'_>,
    stmt: &SetOd,
    threads: usize,
    budget: usize,
) -> Verdict {
    let part = cache.partition(stmt.context());
    if part.is_key() {
        // No two tuples agree on the context: classes are all singletons, so
        // neither a split nor an in-class swap can exist.
        return Verdict::clean();
    }
    let threads = if threads > 1 && part.covered_rows() >= PARALLEL_ROW_THRESHOLD {
        threads
    } else {
        1
    };
    match stmt {
        SetOd::Constancy { attr, .. } => {
            let codes = cache.codes(*attr);
            parallel::constancy_verdict_parallel(&part, &codes, threads, budget)
        }
        SetOd::Compatibility { a, b, .. } => {
            let ca = cache.codes(*a);
            let cb = cache.codes(*b);
            parallel::compatibility_verdict_parallel(&part, &ca, &cb, threads, budget)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::{AttrId, Relation, Schema, Value};

    fn rel_from(rows: &[&[i64]]) -> Relation {
        let mut schema = Schema::new("t");
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        for i in 0..arity {
            schema.add_attr(format!("c{i}"));
        }
        Relation::from_rows(
            schema,
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    }

    #[test]
    fn class_constancy_detects_variation() {
        let codes = [0u32, 1, 1, 0];
        assert!(class_is_constant(&[1, 2], &codes));
        assert!(!class_is_constant(&[0, 1], &codes));
        assert!(class_is_constant(&[3], &codes));
    }

    #[test]
    fn class_compatibility_handles_ties_and_swaps() {
        // a: 0 0 1 1, b: 5 7 7 9 — compatible (ties on a, b rises).
        let a = [0u32, 0, 1, 1];
        let b = [5u32, 7, 7, 9];
        assert!(class_is_compatible(&[0, 1, 2, 3], &a, &b));
        // b2: 5 7 6 9 — swap: row1 (a=0,b=7) vs row2 (a=1,b=6).
        let b2 = [5u32, 7, 6, 9];
        assert!(!class_is_compatible(&[0, 1, 2, 3], &a, &b2));
        // Equal a values never swap even with wild b.
        let a3 = [4u32, 4, 4, 4];
        assert!(class_is_compatible(&[0, 1, 2, 3], &a3, &b2));
        // Singleton and pair classes.
        assert!(class_is_compatible(&[2], &a, &b2));
        assert!(class_is_compatible(&[0, 1], &a, &b2));
    }

    #[test]
    fn swap_detection_needs_strictly_smaller_b_in_later_group() {
        // a: 0 1, b: 3 3 — equal b across groups is fine (non-decreasing).
        assert!(class_is_compatible(&[0, 1], &[0u32, 1], &[3, 3]));
        // a: 0 1, b: 3 2 — genuine swap.
        assert!(!class_is_compatible(&[0, 1], &[0u32, 1], &[3, 2]));
    }

    #[test]
    fn constancy_removal_is_size_minus_largest_group() {
        let codes = [0u32, 1, 1, 2, 1];
        let mut w = Vec::new();
        // Class {0,1,2,3,4}: groups {0}, {1,2,4}, {3} → keep 3, remove 2.
        assert_eq!(class_constancy_removal(&[0, 1, 2, 3, 4], &codes, &mut w), 2);
        assert!(!w.is_empty() && w.len() <= WITNESS_SAMPLE_CAP);
        for &(s, t) in &w {
            assert_ne!(codes[s as usize], codes[t as usize]);
        }
        // A constant class removes nothing.
        let mut w2 = Vec::new();
        assert_eq!(class_constancy_removal(&[1, 2, 4], &codes, &mut w2), 0);
        assert!(w2.is_empty());
    }

    #[test]
    fn compatibility_removal_is_size_minus_longest_chain() {
        // a: 0 1 2 3, b: 0 9 1 2 — drop row 1 (b=9) and the rest chains.
        let a = [0u32, 1, 2, 3];
        let b = [0u32, 9, 1, 2];
        let mut w = Vec::new();
        assert_eq!(
            class_compatibility_removal(&[0, 1, 2, 3], &a, &b, &mut w),
            1
        );
        // Each witness is a genuine swap pair.
        assert!(!w.is_empty());
        for &(s, t) in &w {
            let (si, ti) = (s as usize, t as usize);
            assert!(
                (a[si] < a[ti] && b[si] > b[ti]) || (a[ti] < a[si] && b[ti] > b[si]),
                "({s},{t}) is not a swap"
            );
        }
        // Fully reversed: keep one tuple per strictly-decreasing chain.
        let a2 = [0u32, 1, 2];
        let b2 = [2u32, 1, 0];
        let mut w2 = Vec::new();
        assert_eq!(
            class_compatibility_removal(&[0, 1, 2], &a2, &b2, &mut w2),
            2
        );
        // Ties on A are unconstrained: no removal however wild B is.
        let a3 = [5u32, 5, 5];
        let mut w3 = Vec::new();
        assert_eq!(
            class_compatibility_removal(&[0, 1, 2], &a3, &b2, &mut w3),
            0
        );
        assert!(w3.is_empty());
    }

    #[test]
    fn class_code_radix_overrides_match_comparison_defaults() {
        // A class big enough to push every u32 sort onto the radix path; the
        // u64 impl runs the provided sort_unstable defaults on the same data,
        // so removal counts AND witness pairs must agree bit-for-bit.
        let n = 2 * CLASS_RADIX_MIN as u32;
        let class: Vec<u32> = (0..n).collect();
        let codes_a: Vec<u32> = (0..n).map(|i| (i.wrapping_mul(7919)) % 13).collect();
        let codes_b: Vec<u32> = (0..n).map(|i| (i.wrapping_mul(104_729)) % 11).collect();
        let a64: Vec<u64> = codes_a.iter().map(|&c| u64::from(c)).collect();
        let b64: Vec<u64> = codes_b.iter().map(|&c| u64::from(c)).collect();
        let (mut w32, mut w64) = (Vec::new(), Vec::new());
        assert_eq!(
            class_constancy_removal(&class, &codes_a, &mut w32),
            class_constancy_removal(&class, &a64, &mut w64)
        );
        assert_eq!(w32, w64);
        let (mut w32, mut w64) = (Vec::new(), Vec::new());
        assert_eq!(
            class_compatibility_removal(&class, &codes_a, &codes_b, &mut w32),
            class_compatibility_removal(&class, &a64, &b64, &mut w64)
        );
        assert_eq!(w32, w64);
        assert_eq!(
            class_is_compatible(&class, &codes_a, &codes_b),
            class_is_compatible(&class, &a64, &b64)
        );
    }

    #[test]
    fn verdict_budget_short_circuits() {
        // Ten all-different pairs under one constant context column.
        let rows: Vec<Vec<i64>> = (0..10).map(|i| vec![0, i]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let ctx = rel.rank_column(AttrId(0));
        let a = rel.rank_column(AttrId(1));
        let part = StrippedPartition::by_codes(&ctx);
        // Exact: removal 9 (keep one of ten values).
        let exact = constancy_verdict(&part, &a, usize::MAX);
        assert_eq!(exact.removal_count, 9);
        assert!(!exact.exceeded && !exact.holds() && exact.within(9));
        // Budget 3: the scan stops as soon as the count passes 3.
        let clipped = constancy_verdict(&part, &a, 3);
        assert!(clipped.exceeded && !clipped.within(3));
        assert!(clipped.removal_count > 3);
    }

    #[test]
    fn error_budget_clamps() {
        assert_eq!(error_budget(100, 0.0), 0);
        assert_eq!(error_budget(100, -0.5), 0);
        assert_eq!(error_budget(100, f64::NAN), 0);
        assert_eq!(error_budget(100, 0.05), 5);
        assert_eq!(error_budget(100, 1.0), 100);
        assert_eq!(error_budget(100, 7.0), 100);
        assert_eq!(error_budget(0, 0.5), 0);
    }

    #[test]
    fn verdict_join_caps_witnesses_and_takes_the_max() {
        let part = Verdict {
            removal_count: 2,
            exceeded: false,
            violating_pairs: vec![(0, 1); WITNESS_SAMPLE_CAP],
            classes_scanned: 1,
        };
        let mut m = Verdict::clean();
        m.join_max(&part);
        m.join_max(&part);
        assert_eq!(m.violating_pairs.len(), WITNESS_SAMPLE_CAP);
        m.join_max(&Verdict {
            removal_count: 7,
            ..Verdict::clean()
        });
        assert_eq!(m.removal_count, 7);
        assert_eq!(m.classes_scanned, 2);
        assert_eq!(m.g3(14), 0.5);
    }
}
