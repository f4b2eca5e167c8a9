//! Least-significant-byte radix sort over `(key, payload)` pairs.
//!
//! The columnar encoder ([`crate::columnar`]) and the partition refinement in
//! `od-setbased` sort millions of small integer pairs; a stable LSB counting
//! sort turns those `O(n log n)` comparison sorts into a handful of
//! branch-predictable linear passes.  Two properties matter to callers:
//!
//! * **Stability.**  Each digit pass is a counting sort, so pairs with equal
//!   keys keep their input order.  Every caller feeds pairs in ascending
//!   payload (row) order, which makes the stable radix result bit-identical
//!   to `sort_unstable()` on the `(key, payload)` tuples — payloads are
//!   distinct row ids, so `(key, payload)` lexicographic order and
//!   stable-by-key order coincide.
//! * **Pass skipping.**  Key-ordered input costs 0 passes: a stable sort of
//!   it is the identity, and one scan that stops at the first descent finds
//!   it.  Otherwise histograms for all digit positions are computed in one
//!   pre-pass, and any digit on which every key agrees is skipped.  Dense
//!   rank codes over `n` rows fit in `⌈log₂ n / 8⌉` bytes, so a 10k-row
//!   relation pays at most two passes and a 1M-row relation three,
//!   regardless of the key type's width.
//!
//! The functions return the number of counting passes actually performed so
//! the discovery layer can surface a `radix_passes` counter.

/// An unsigned integer key a radix pass can decompose into bytes.
pub trait RadixKey: Copy + Ord {
    /// Number of 8-bit digits in the key type.
    const DIGITS: usize;
    /// The `i`-th byte of the key, counting from the least significant.
    fn digit(self, i: usize) -> usize;
    /// Bitwise OR, used to fold all keys into a mask of live digits.
    fn fold_or(self, other: Self) -> Self;
}

impl RadixKey for u32 {
    const DIGITS: usize = 4;
    #[inline(always)]
    fn digit(self, i: usize) -> usize {
        ((self >> (8 * i)) & 0xFF) as usize
    }
    #[inline(always)]
    fn fold_or(self, other: Self) -> Self {
        self | other
    }
}

impl RadixKey for u64 {
    const DIGITS: usize = 8;
    #[inline(always)]
    fn digit(self, i: usize) -> usize {
        ((self >> (8 * i)) & 0xFF) as usize
    }
    #[inline(always)]
    fn fold_or(self, other: Self) -> Self {
        self | other
    }
}

/// Stable sort of `pairs` by key via LSB radix passes, using `scratch` as the
/// ping-pong buffer.  Returns the number of counting passes performed, 0 when
/// the keys are already non-decreasing (then `pairs` is left untouched); the
/// sorted data always ends up back in `pairs` (the buffers are swapped, never
/// copied).  Both vectors may be reused across calls to amortize allocation.
pub fn sort_pairs<K: RadixKey>(pairs: &mut Vec<(K, u32)>, scratch: &mut Vec<(K, u32)>) -> u32 {
    // A stable sort of key-ordered input is the identity: one scan, which
    // stops at the first descent, spares it every histogram and pass.
    if pairs.is_sorted_by_key(|&(key, _)| key) {
        return 0;
    }
    let n = pairs.len();
    // A cheap OR-fold finds the digits where any key has a bit set.  Keys are
    // unsigned, so an all-zero digit (the high bytes of dense codes, or the
    // padding between two packed codes) is constant and never needs a
    // histogram, let alone a counting pass.
    let mut folded = pairs[0].0;
    for &(key, _) in &pairs[1..] {
        folded = folded.fold_or(key);
    }
    let live: Vec<usize> = (0..K::DIGITS).filter(|&d| folded.digit(d) != 0).collect();
    // One pre-pass builds the histogram of every live digit, so digits that
    // turn out constant-but-nonzero still cost nothing beyond this scan.
    // Counts fit u32: row payloads cap the pair count well below 2^32.
    let mut counts = vec![[0u32; 256]; live.len()];
    for &(key, _) in pairs.iter() {
        for (slot, &d) in live.iter().enumerate() {
            counts[slot][key.digit(d)] += 1;
        }
    }
    scratch.clear();
    scratch.resize(n, pairs[0]);
    let mut passes = 0u32;
    for (slot, &d) in live.iter().enumerate() {
        // A digit where one bucket holds every pair cannot reorder anything.
        let hist = &counts[slot];
        if hist.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut running = 0usize;
        for (b, &c) in hist.iter().enumerate() {
            offsets[b] = running;
            running += c as usize;
        }
        for &pair in pairs.iter() {
            let bucket = pair.0.digit(d);
            scratch[offsets[bucket]] = pair;
            offsets[bucket] += 1;
        }
        std::mem::swap(pairs, scratch);
        passes += 1;
    }
    passes
}

/// Number of bits needed to represent every value in `0..=max` (`0` when `max`
/// is `0`).  Callers packing two dense code spaces into one radix key use this
/// to pick the shift that keeps the packing injective while leaving the high
/// bytes zero for the OR-fold to skip.
pub fn bits_for(max: u32) -> u32 {
    32 - max.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_covers_the_value_range() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u32::MAX), 32);
        for max in [0u32, 1, 5, 100, 4096] {
            let bits = bits_for(max);
            if bits < 32 {
                assert!(u64::from(max) < 1u64 << bits || max == 0);
            }
        }
    }

    fn check_against_sort_unstable(mut input: Vec<(u32, u32)>) -> u32 {
        let mut expected = input.clone();
        expected.sort_unstable();
        let mut scratch = Vec::new();
        let passes = sort_pairs(&mut input, &mut scratch);
        assert_eq!(input, expected);
        passes
    }

    #[test]
    fn sorts_like_sort_unstable_on_distinct_payloads() {
        // Ascending payloads (row ids), arbitrary keys with duplicates.
        let input: Vec<(u32, u32)> = [7u32, 3, 7, 0, 3, 9, 1_000_000, 7, 0]
            .iter()
            .enumerate()
            .map(|(row, &k)| (k, row as u32))
            .collect();
        check_against_sort_unstable(input);
    }

    #[test]
    fn skips_constant_digits() {
        // Keys all below 256: only the low byte can differ.
        let input: Vec<(u32, u32)> = (0..500u32).map(|row| (row % 250, row)).collect();
        let passes = check_against_sort_unstable(input);
        assert_eq!(passes, 1, "keys < 256 need exactly one pass");
        // Constant keys: nothing to do at all.
        let constant: Vec<(u32, u32)> = (0..100u32).map(|row| (42, row)).collect();
        assert_eq!(check_against_sort_unstable(constant), 0);
        // Ascending keys over two live digits: ordered input costs no pass.
        let ascending: Vec<(u32, u32)> = (0..500u32).map(|row| (row * 3, row)).collect();
        assert_eq!(check_against_sort_unstable(ascending), 0);
        // The same keys with one descent in the last pair are sorted.
        let mut late: Vec<(u32, u32)> = (0..500u32).map(|row| (row * 3, row)).collect();
        late[499].0 = 1;
        assert!(check_against_sort_unstable(late) >= 1);
    }

    #[test]
    fn u64_keys_and_edge_sizes() {
        let mut scratch = Vec::new();
        let mut empty: Vec<(u64, u32)> = Vec::new();
        assert_eq!(sort_pairs(&mut empty, &mut scratch), 0);
        let mut one = vec![(u64::MAX, 0u32)];
        assert_eq!(sort_pairs(&mut one, &mut scratch), 0);
        let mut wide: Vec<(u64, u32)> = [u64::MAX, 0, 1 << 40, 1 << 40, 3]
            .iter()
            .enumerate()
            .map(|(row, &k)| (k, row as u32))
            .collect();
        let mut expected = wide.clone();
        expected.sort_unstable();
        assert!(sort_pairs(&mut wide, &mut scratch) >= 1);
        assert_eq!(wide, expected);
        // Sorted again, the same pairs cost no pass and stay as they are.
        assert_eq!(sort_pairs(&mut wide, &mut scratch), 0);
        assert_eq!(wide, expected);
        // A descent between the last two of many ordered keys is still found.
        let mut late: Vec<(u64, u32)> = (0..300u64).map(|row| (row << 40, row as u32)).collect();
        late.swap(298, 299);
        let mut expected = late.clone();
        expected.sort_unstable();
        assert!(sort_pairs(&mut late, &mut scratch) >= 1);
        assert_eq!(late, expected);
    }

    #[test]
    fn stability_preserves_input_order_within_equal_keys() {
        // Payloads deliberately descending: stable radix must keep that order
        // inside each key group (this is what distinguishes it from a plain
        // lexicographic sort of the tuples).
        let mut input: Vec<(u32, u32)> = vec![(5, 9), (5, 4), (1, 7), (5, 1), (1, 2)];
        let mut scratch = Vec::new();
        sort_pairs(&mut input, &mut scratch);
        assert_eq!(input, vec![(1, 7), (1, 2), (5, 9), (5, 4), (5, 1)]);
        // Key-ordered input is returned bit-identical at 0 passes, descending
        // payloads inside its equal-key groups included.
        let ordered: Vec<(u32, u32)> = vec![(1, 7), (1, 2), (300, 9), (300, 4), (300, 1)];
        let mut input = ordered.clone();
        assert_eq!(sort_pairs(&mut input, &mut scratch), 0);
        assert_eq!(input, ordered);
    }
}
