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
//! budget.  At ε = 0 (budget 0) the first violating class decides: the scan
//! stops there and reports a removal count of 1 with that class's first
//! split or swap, without computing the class's full removal.
//!
//! All validators work on the dense order-preserving codes of the relation's
//! shared [`od_core::ColumnarEncoding`]: equality is integer equality and
//! order is integer order.  A constancy check is a linear pass over each
//! class.  A compatibility check runs one of two kernels, chosen per context
//! by the size of its largest class:
//!
//! * **per class** ([`compatibility_verdict`]) —
//!   sort each class's `(code_A, code_B, row)` triples and walk them for the
//!   first swap;
//! * **τ pass** ([`tau_compatibility_verdict`]) — when the context has a large
//!   class, walk τ_A (every row in `A` order, memoized per attribute by
//!   [`PartitionCache::attr_order`]) once, keeping a few codes of state per
//!   class, and stop at the first swap.
//!
//! Either way only classes that hold a swap pay for the `O(k log k)` LIS
//! removal, so accepted verdicts are identical on both kernels.

use crate::canonical::SetOd;
use crate::partition::{ClassCodes, PartitionCache, StrippedPartition, CLASS_SENTINEL};
use od_core::{radix, AttrId};

/// Maximum number of violating row pairs a verdict samples as witnesses.
pub const WITNESS_SAMPLE_CAP: usize = 8;

/// Class size from which the `u32` validators switch their per-class sorts
/// from `sort_unstable` to counting-sort radix passes.
const CLASS_RADIX_MIN: usize = 256;

/// A compatibility scan walks τ_A ([`tau_compatibility_verdict`]) when the
/// context's largest class holds at least `n / TAU_PASS_DIVISOR` of the
/// relation's `n` rows, and sorts per class otherwise.  The τ pass visits
/// every row, singletons included, so it pays off only when per-class sorts
/// are large; 8 was measured on the 200k-row profile-scale table (DESIGN.md,
/// "The τ pass").
pub(crate) const TAU_PASS_DIVISOR: usize = 8;

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
/// **Precondition** shared by both sorts: callers push class rows in
/// ascending row order, which lets the stable radix path stand in for a full
/// lexicographic `sort_unstable` (equal keys keep ascending rows either way).
/// The sorts record no metrics: the lattice counts scans per statement and
/// times them under its `validate` span.
pub trait ClassCode: Copy + Ord {
    /// Sort `(code, row)` pairs by code, rows ascending within equal codes.
    fn sort_group_pairs(pairs: &mut Vec<(Self, u32)>) {
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
    /// inherited from a sub-context statement instead of scanned.  An ε = 0
    /// rejection reports 1: the scan stops at the first violating class.
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

/// The first split of one equivalence class on `attr` (given by its codes),
/// if any: the class head and the first row holding a different value.
fn class_first_split<C: Copy + Eq>(class: &[u32], codes: &[C]) -> Option<(u32, u32)> {
    let head = class[0];
    let first = codes[head as usize];
    class
        .iter()
        .find(|&&row| codes[row as usize] != first)
        .map(|&row| (head, row))
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

/// The first swap of one equivalence class, if any: rows `(s, t)` with
/// `s.A < t.A` but `s.B > t.B`.
///
/// Sorts the class's `(code_a, code_b, row)` triples once and walks the
/// `A`-groups in order.  Each group starts at its smallest `B` and ends at
/// its largest, and until the first swap each group's largest `B` is at most
/// the next group's smallest — so the first swap, if any, is a group's first
/// triple undercutting the previous group's last.  Ties on `A` never produce
/// swaps.
fn class_first_swap<C: ClassCode>(
    class: &[u32],
    codes_a: &[C],
    codes_b: &[C],
) -> Option<(u32, u32)> {
    if class.len() < 2 {
        return None;
    }
    let mut triples: Vec<(C, C, u32)> = class
        .iter()
        .map(|&row| (codes_a[row as usize], codes_b[row as usize], row))
        .collect();
    C::sort_triples(&mut triples);
    for pair in triples.windows(2) {
        let ((a_s, b_s, s), (a_t, b_t, t)) = (pair[0], pair[1]);
        if a_s != a_t && b_t < b_s {
            return Some((s, t));
        }
    }
    None
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

/// One class's state in the τ walk.  The walk reads rows in `A` order, so it
/// meets each class's `A`-groups in ascending order.
#[derive(Clone, Copy)]
struct SwapState {
    /// `A` code of the group being read; `u32::MAX` before the class's first
    /// row (dense codes stay below the row count, so it is never a code).
    a: u32,
    /// Maximum `B` of the group being read, and its row.
    group_max: u32,
    group_row: u32,
    /// Maximum `B` of the class's previous group, and its row.  Until the
    /// class is flagged this is the maximum over all its earlier groups,
    /// since each group's maximum is at most the next group's minimum.  `0`
    /// before a group has passed: no code is below it, so it flags nothing.
    prev_max: u32,
    prev_row: u32,
    /// A swap has been found in this class.
    flagged: bool,
}

impl SwapState {
    const START: SwapState = SwapState {
        a: u32::MAX,
        group_max: 0,
        group_row: 0,
        prev_max: 0,
        prev_row: 0,
        flagged: false,
    };
}

/// Should a compatibility scan over `part` walk τ_A
/// ([`tau_compatibility_verdict`]) instead of sorting each class?  Yes when
/// its largest class holds at least `n / TAU_PASS_DIVISOR` rows.
fn takes_tau_pass(part: &StrippedPartition) -> bool {
    !part.is_key() && part.max_class_len() * TAU_PASS_DIVISOR >= part.n_rows()
}

/// Validate `𝒞 : A ~ B` over a stripped partition of `𝒞` by one walk over
/// τ_A, every row of the relation in `A` order (`order_a`, see
/// [`PartitionCache::attr_order`]).
///
/// `class_ids` maps each row to its class in `part` ([`ClassCodes`],
/// singletons [`CLASS_SENTINEL`]); pass `None` exactly when one class covers
/// every row.  The walk meets each class's rows in ascending `A`, so a row is
/// a swap partner iff its `B` is below the largest `B` of the class's earlier
/// `A`-groups.  Until its first swap that is the previous group's largest `B`,
/// which the walk keeps per class.  At budget 0 the first swap ends the scan.
/// Otherwise the walk flags each class holding a swap, stops once more
/// classes are flagged than the budget allows (each needs at least one
/// removal), and runs [`class_compatibility_removal`] on the flagged classes
/// alone, in class order.  An accepted verdict is therefore identical, field
/// for field, to the per-class scan's.
pub fn tau_compatibility_verdict(
    part: &StrippedPartition,
    class_ids: Option<&ClassCodes>,
    order_a: &[u32],
    codes_a: &[u32],
    codes_b: &[u32],
    budget: usize,
) -> Verdict {
    match class_ids {
        Some(ids) => {
            let ids = ids.codes();
            let class_of = |row: u32| ids[row as usize];
            tau_walk(part, order_a, class_of, codes_a, codes_b, budget)
        }
        None => tau_walk(part, order_a, |_| 0, codes_a, codes_b, budget),
    }
}

/// [`tau_compatibility_verdict`] over a `row → class` lookup.
fn tau_walk(
    part: &StrippedPartition,
    order_a: &[u32],
    class_of: impl Fn(u32) -> u32,
    codes_a: &[u32],
    codes_b: &[u32],
    budget: usize,
) -> Verdict {
    let mut state = vec![SwapState::START; part.num_classes()];
    let mut flagged: Vec<u32> = Vec::new();
    let mut witnesses = Vec::new();
    let mut touched = 0usize;
    for &row in order_a {
        let class = class_of(row);
        if class == CLASS_SENTINEL {
            continue;
        }
        let s = &mut state[class as usize];
        let (a, b) = (codes_a[row as usize], codes_b[row as usize]);
        if a != s.a {
            touched += usize::from(s.a == u32::MAX);
            s.prev_max = s.group_max;
            s.prev_row = s.group_row;
            s.a = a;
            s.group_max = b;
            s.group_row = row;
        } else if b > s.group_max {
            s.group_max = b;
            s.group_row = row;
        }
        if b < s.prev_max && !s.flagged {
            s.flagged = true;
            flagged.push(class);
            if witnesses.len() < WITNESS_SAMPLE_CAP {
                witnesses.push((s.prev_row, row));
            }
            if flagged.len() > budget {
                return Verdict {
                    removal_count: flagged.len(),
                    exceeded: true,
                    violating_pairs: witnesses,
                    classes_scanned: touched,
                };
            }
        }
    }
    // Swap-free classes remove nothing: the exact count is the flagged
    // classes' LIS removals, summed in class order like the per-class scan.
    flagged.sort_unstable();
    let mut verdict = Verdict {
        classes_scanned: part.num_classes(),
        ..Verdict::clean()
    };
    for class in flagged {
        verdict.removal_count += class_compatibility_removal(
            part.class(class as usize),
            codes_a,
            codes_b,
            &mut verdict.violating_pairs,
        );
        if verdict.removal_count > budget {
            verdict.exceeded = true;
            break;
        }
    }
    verdict
}

/// Scan `part`'s classes in order with `per_class`, which returns a class's
/// removal count and may append witnesses, stopping once the summed removal
/// count exceeds `budget`.
fn scan_classes(
    part: &StrippedPartition,
    budget: usize,
    mut per_class: impl FnMut(&[u32], &mut Vec<(u32, u32)>) -> usize,
) -> Verdict {
    let mut verdict = Verdict::clean();
    for class in part.classes() {
        verdict.classes_scanned += 1;
        verdict.removal_count += per_class(class, &mut verdict.violating_pairs);
        if verdict.removal_count > budget {
            verdict.exceeded = true;
            break;
        }
    }
    verdict
}

/// Validate `𝒞 : [] ↦ A` over a stripped partition of `𝒞`, stopping once the
/// removal count exceeds `budget`.  At budget 0 a violating class counts 1
/// and contributes its first split alone.
pub fn constancy_verdict(part: &StrippedPartition, codes: &[u32], budget: usize) -> Verdict {
    scan_classes(part, budget, |class, witnesses| {
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

/// Validate `𝒞 : A ~ B` over a stripped partition of `𝒞` class by class,
/// stopping once the removal count exceeds `budget`.  At budget 0 a
/// violating class counts 1 and contributes its first swap alone.
pub fn compatibility_verdict(
    part: &StrippedPartition,
    codes_a: &[u32],
    codes_b: &[u32],
    budget: usize,
) -> Verdict {
    scan_classes(part, budget, |class, witnesses| {
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

/// Validate a batch of compatibility statements, each given as its context's
/// partition and its pair `(A, B)`; the verdicts come back in item order.
///
/// The one place a compatibility statement's kernel is chosen: a context
/// whose largest class is large ([`takes_tau_pass`]) walks τ_A, memoized in
/// `cache`; every other context sorts per class.  A τ-pass context needs the
/// class id of every row unless one class covers them all; those ids are
/// built once per run of consecutive items on the same partition (callers
/// list a context's statements together).
pub(crate) fn compatibility_verdicts(
    cache: &mut PartitionCache<'_>,
    items: &[(&StrippedPartition, AttrId, AttrId)],
    budget: usize,
) -> Vec<Verdict> {
    // The current run's partition, whether it takes the τ pass, and its
    // class ids when it does and has more than one class.
    let mut run: Option<(&StrippedPartition, bool, Option<ClassCodes>)> = None;
    items
        .iter()
        .map(|&(part, a, b)| {
            if !run.as_ref().is_some_and(|r| std::ptr::eq(r.0, part)) {
                let tau = takes_tau_pass(part);
                let ids = (tau && !part.is_single_class()).then(|| part.class_codes());
                run = Some((part, tau, ids));
            }
            let (_, tau, ids) = run.as_ref().expect("set above");
            let (codes_a, codes_b) = (cache.codes(a), cache.codes(b));
            if *tau {
                let order_a = cache.attr_order(a);
                tau_compatibility_verdict(part, ids.as_ref(), &order_a, &codes_a, &codes_b, budget)
            } else {
                compatibility_verdict(part, &codes_a, &codes_b, budget)
            }
        })
        .collect()
}

/// Validate one canonical statement against the data: fetch (or build) the
/// context's stripped partition and scan it.  A compatibility statement gets
/// its kernel from `compatibility_verdicts`, like the lattice's batches.
/// The lattice's replay fallback, and on a fresh [`PartitionCache`] the
/// verdict reference that tests pin the lattice's verdicts against.
///
/// `budget` is the tuple-removal allowance `⌊ε·n⌋`: the scan short-circuits
/// once the statement's removal count exceeds it (0 = exact validation with
/// the classic first-violation early exit).
///
/// `_threads` is ignored, since every scan is serial.  The argument stays
/// because the benchmark's profile and churn workloads still pass it.
pub fn statement_verdict(
    cache: &mut PartitionCache<'_>,
    stmt: &SetOd,
    _threads: usize,
    budget: usize,
) -> Verdict {
    let part = cache.partition(stmt.context());
    if part.is_key() {
        // No two tuples agree on the context: classes are all singletons, so
        // neither a split nor an in-class swap can exist.
        return Verdict::clean();
    }
    match stmt {
        SetOd::Constancy { attr, .. } => constancy_verdict(&part, &cache.codes(*attr), budget),
        SetOd::Compatibility { a, b, .. } => {
            compatibility_verdicts(cache, &[(&*part, *a, *b)], budget)
                .pop()
                .expect("one verdict per item")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RefineScratch;
    use od_core::{AttrId, AttrSet, Relation, Schema, Value};

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
        assert_eq!(class_first_split(&[1, 2], &codes), None);
        assert_eq!(class_first_split(&[0, 1, 2], &codes), Some((0, 1)));
        assert_eq!(class_first_split(&[3], &codes), None);
    }

    #[test]
    fn class_compatibility_handles_ties_and_swaps() {
        // a: 0 0 1 1, b: 5 7 7 9 — compatible (ties on a, b rises).
        let a = [0u32, 0, 1, 1];
        let b = [5u32, 7, 7, 9];
        assert_eq!(class_first_swap(&[0, 1, 2, 3], &a, &b), None);
        // b2: 5 7 6 9 — swap: row1 (a=0,b=7) vs row2 (a=1,b=6).
        let b2 = [5u32, 7, 6, 9];
        assert_eq!(class_first_swap(&[0, 1, 2, 3], &a, &b2), Some((1, 2)));
        // Equal a values never swap even with wild b.
        let a3 = [4u32, 4, 4, 4];
        assert_eq!(class_first_swap(&[0, 1, 2, 3], &a3, &b2), None);
        // Singleton and pair classes.
        assert_eq!(class_first_swap(&[2], &a, &b2), None);
        assert_eq!(class_first_swap(&[0, 1], &a, &b2), None);
    }

    #[test]
    fn swap_detection_needs_strictly_smaller_b_in_later_group() {
        // a: 0 1, b: 3 3 — equal b across groups is fine (non-decreasing).
        assert_eq!(class_first_swap(&[0, 1], &[0u32, 1], &[3, 3]), None);
        // a: 0 1, b: 3 2 — genuine swap.
        assert_eq!(class_first_swap(&[0, 1], &[0u32, 1], &[3, 2]), Some((0, 1)));
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
            class_first_swap(&class, &codes_a, &codes_b),
            class_first_swap(&class, &a64, &b64)
        );
    }

    /// Rows `(g, a, b)` with `g` the context column.  `dominant` puts 3/4 of
    /// the rows in one class of `g` (the τ pass); otherwise every class of
    /// `g` holds two rows (the per-class path).  `a` cycles through five
    /// values and `b` rises with the row but drops to 0 on every fourth row,
    /// so classes hold splits and swaps.
    fn contract_relation(dominant: bool) -> Relation {
        let n = 64i64;
        let rows: Vec<Vec<i64>> = (0..n)
            .map(|i| {
                let g = match dominant {
                    true if i < 48 => 0,
                    true => i,
                    false => i / 2,
                };
                vec![g, i % 5, if i % 4 == 3 { 0 } else { i }]
            })
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        rel_from(&rows)
    }

    /// The ε = 0 rejection contract of `stmt` on `rel`: budget 0 reports
    /// `exceeded`, a removal count of 1 and one witness that `is_violation`
    /// accepts; an unbounded budget reports the exact count.  `dominant`
    /// says whether the context has a class large enough for the τ pass.
    fn assert_rejection_contract(
        rel: &Relation,
        stmt: SetOd,
        dominant: bool,
        is_violation: impl Fn(usize, usize) -> bool,
    ) {
        let mut cache = PartitionCache::new(rel);
        let part = cache.partition(stmt.context());
        assert_eq!(takes_tau_pass(&part), dominant, "{stmt}");
        let g = rel.rank_column(AttrId(0));
        let exact = statement_verdict(&mut cache, &stmt, 1, usize::MAX);
        let oracle = od_core::check::od_removal_count(rel, &stmt.as_list_ods()[0]);
        assert_eq!(exact.removal_count, oracle, "{stmt}");
        assert!(oracle > 1 && !exact.exceeded);
        let v = statement_verdict(&mut cache, &stmt, 1, 0);
        assert!(v.exceeded && !v.within(0), "{stmt}");
        assert_eq!(v.removal_count, 1, "{stmt}");
        assert_eq!(v.violating_pairs.len(), 1, "{stmt}");
        let (s, t) = v.violating_pairs[0];
        let (s, t) = (s as usize, t as usize);
        if !stmt.context().is_empty() {
            assert_eq!(g[s], g[t], "{stmt}: witness rows share a class");
        }
        assert!(is_violation(s, t), "{stmt}: ({s}, {t}) is no violation");
    }

    #[test]
    fn epsilon_zero_constancy_rejection_reports_one_split() {
        let g = AttrSet::singleton(AttrId(0));
        for (dominant, ctx) in [(true, g), (true, AttrSet::new()), (false, g)] {
            let rel = contract_relation(dominant);
            let a = rel.rank_column(AttrId(1));
            let stmt = SetOd::constancy(ctx, AttrId(1));
            assert_rejection_contract(&rel, stmt, dominant, |s, t| a[s] != a[t]);
        }
    }

    #[test]
    fn epsilon_zero_compatibility_rejection_reports_one_swap() {
        let g = AttrSet::singleton(AttrId(0));
        for (dominant, ctx) in [(true, g), (true, AttrSet::new()), (false, g)] {
            let rel = contract_relation(dominant);
            let a = rel.rank_column(AttrId(1));
            let b = rel.rank_column(AttrId(2));
            let stmt = SetOd::compatibility(ctx, AttrId(1), AttrId(2));
            assert_rejection_contract(&rel, stmt, dominant, |s, t| a[s] < a[t] && b[s] > b[t]);
        }
    }

    #[test]
    fn verdict_budget_short_circuits() {
        // Ten all-different pairs under one constant context column.
        let rows: Vec<Vec<i64>> = (0..10).map(|i| vec![0, i]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let ctx = rel.rank_column(AttrId(0));
        let a = rel.rank_column(AttrId(1));
        let part = StrippedPartition::by_codes_with(&ctx, &mut RefineScratch::default());
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

    #[test]
    fn budget_exceeded_reports_failure() {
        // `b` falls while `a` rises inside each of 40 classes: every class
        // holds one swap and one split.
        let rows: Vec<Vec<i64>> = (0..40)
            .flat_map(|g| [vec![g, 0, 1], vec![g, 1, 0]])
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let g = rel.rank_column(AttrId(0));
        let a = rel.rank_column(AttrId(1));
        let b = rel.rank_column(AttrId(2));
        let part = StrippedPartition::by_codes_with(&g, &mut RefineScratch::default());
        let k = compatibility_verdict(&part, &a, &b, 0);
        assert!(!k.holds() && k.exceeded && !k.within(0));
        assert!(!k.violating_pairs.is_empty());
        assert!(!constancy_verdict(&part, &a, 0).holds());
        // With one removal per class and 40 classes, a budget of 39 is a near
        // miss and 40 accepts.
        assert!(!compatibility_verdict(&part, &a, &b, 39).within(39));
        assert!(compatibility_verdict(&part, &a, &b, 40).within(40));
        // An unlimited budget scans every class.
        for verdict in [
            constancy_verdict(&part, &a, usize::MAX),
            compatibility_verdict(&part, &a, &b, usize::MAX),
        ] {
            assert_eq!(verdict.removal_count, 40);
            assert_eq!(verdict.classes_scanned, part.num_classes());
        }
    }

    #[test]
    fn degenerate_inputs() {
        let part = StrippedPartition::full(0);
        assert!(constancy_verdict(&part, &[], 0).holds());
        assert!(compatibility_verdict(&part, &[], &[], 0).holds());
        assert!(
            scan_classes(&part, 0, |_, _| 1).holds(),
            "vacuous truth over no classes"
        );
    }
}
