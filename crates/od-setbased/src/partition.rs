//! Stripped partitions over tuple ids.
//!
//! The workhorse data structure of set-based OD discovery (following TANE and
//! FASTOD): for an attribute set `X`, the partition `Π_X` groups tuple ids into
//! equivalence classes of tuples agreeing on every attribute of `X`.  A
//! **stripped** partition drops singleton classes — they can never contribute a
//! split or a swap, and on real data most classes become singletons quickly, so
//! stripping is what makes level-wise traversal near-linear per candidate.
//!
//! Partitions are stored in a flat **CSR layout**: one `Vec<u32>` of row ids
//! plus one `Vec<u32>` of class offsets, classes in first-row order and
//! members ascending — two cache-friendly arrays instead of a `Vec` of `Vec`s,
//! with class `i` a plain slice `rows[offsets[i]..offsets[i + 1]]`.
//!
//! Every partition is built by one **counting kernel**, which splits each
//! class of a base partition by a dense code per row: an attribute's
//! order-preserving rank code (see [`od_core::ColumnarEncoding`]) for
//! `Π_{{A}}`, or another partition's class id ([`ClassCodes`], singletons =
//! [`CLASS_SENTINEL`], whose rows are dropped) for a product.  Per class, one
//! pass counts each code's rows and records the codes in first-appearance
//! order, every code with at least two rows gets consecutive slots, and a
//! second pass places the rows.  No branch in these passes depends on the
//! codes, which matters on high-cardinality codes, where such a branch is a
//! coin toss: a record is always written and its cursor advanced by a
//! comparison's 0 or 1, and every row no new class keeps is written to one
//! dump slot (see [`RefineScratch`]).  A class of two rows needs no pass at
//! all: it stays a class exactly when both rows share a code other than the
//! sentinel.  Rows enter ascending, so each new class comes out ascending,
//! and the classes split from one base class come out in first-row order;
//! the run descriptors are sorted by first row only when classes of
//! different base classes interleave.  Nothing is sorted by key, no key is
//! packed and no [`od_core::Value`] is compared.
//!
//! [`PartitionCache`] memoizes partitions per attribute set so the lattice
//! visits each set once, builds each one from the **cheapest cached base** (the
//! cached subset one attribute smaller that covers the fewest rows), hands
//! out code columns as cheap [`ColCodes`] views into the relation's shared
//! columnar encoding, and keeps per-attribute [`ClassCodes`] alive across
//! level evictions so deep-lattice products never rebuild them.  It also
//! memoizes each attribute's **sorted order** τ_A (the rows in order of
//! `A`'s code, [`PartitionCache::attr_order`]), which the compatibility scan
//! walks when a context has a large class (see
//! [`crate::validate::tau_compatibility_verdict`]).  What an attribute's
//! dictionary already decides costs no kernel pass: `Π_{{A}}` of a key (one
//! entry per row) strips to nothing, and τ_A of codes that never descend is
//! the identity.

use od_core::{AttrId, AttrSet, ColumnarEncoding, Relation};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// The rows of a dense code column in code order, rows ascending within
/// equal codes — a stable sort of `0..codes.len()` by code, done as one
/// counting pass (`distinct` bounds the codes: every code is below it).
fn rows_by_code(codes: &[u32], distinct: usize) -> Vec<u32> {
    let mut next = vec![0u32; distinct + 1];
    for &c in codes {
        next[c as usize + 1] += 1;
    }
    for i in 1..next.len() {
        next[i] += next[i - 1];
    }
    let mut order = vec![0u32; codes.len()];
    for (row, &c) in codes.iter().enumerate() {
        let slot = &mut next[c as usize];
        order[*slot as usize] = row as u32;
        *slot += 1;
    }
    order
}

/// Class id marking a row not covered by any (non-singleton) class in a
/// [`ClassCodes`] column.  Products drop sentinel rows up front: a row that is
/// a singleton in either operand is a singleton in the product.
pub const CLASS_SENTINEL: u32 = u32::MAX;

/// One attribute's code column, borrowed from the relation's shared
/// [`ColumnarEncoding`] — a cheap `Arc` + column-index handle that derefs to
/// the `&[u32]` slice every validator and refinement works on.
#[derive(Clone)]
pub struct ColCodes {
    enc: Arc<ColumnarEncoding>,
    col: usize,
}

impl ColCodes {
    /// A view of column `col` of `enc`.
    pub fn new(enc: Arc<ColumnarEncoding>, col: usize) -> Self {
        ColCodes { enc, col }
    }
}

impl std::ops::Deref for ColCodes {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.enc.codes(self.col)
    }
}

impl std::fmt::Debug for ColCodes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColCodes")
            .field("col", &self.col)
            .field("len", &self.enc.n_rows())
            .finish()
    }
}

/// A dense class-id code column of one partition: `codes[row]` is the index
/// (in first-row class order) of the class containing `row`, or
/// [`CLASS_SENTINEL`] for stripped-out singletons.
///
/// This is the right-hand operand of a partition product: splitting each
/// class of a base partition by `codes[row]` is the product, and the codes
/// stay below [`Self::num_classes`], so the kernel's slot array stays small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCodes {
    codes: Vec<u32>,
    classes: u32,
}

impl ClassCodes {
    /// The `row → class id` column (length = relation rows).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of (non-singleton) classes the column indexes.
    pub fn num_classes(&self) -> u32 {
        self.classes
    }

    /// Heap bytes held by the code column.
    pub fn approx_heap_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<u32>()
    }
}

/// Reusable working memory of the counting kernel, held per
/// [`PartitionCache`] so the thousands of refinements and products of a
/// lattice traversal stop re-allocating their working set: the only
/// allocations left are the surviving CSR arrays themselves.
#[derive(Debug)]
pub struct RefineScratch {
    /// One entry per code, at `code + 1`, so that [`CLASS_SENTINEL`] wraps
    /// to entry 0: during a class, the code's row count, then its next
    /// position in `rows` ([`Self::DUMP`] for a code of one row, and always
    /// for the sentinel).  Grown by doubling, and all zero between classes.
    slots: Vec<u32>,
    /// The current class's entries in first-appearance order, at its front;
    /// as long as the longest class split so far.
    seen: Vec<u32>,
    /// Emitted runs: (start in `rows`, length).
    runs: Vec<(u32, u32)>,
    /// The dump at position 0, then the row ids of the emitted runs, back
    /// to back in emission order.
    rows: Vec<u32>,
}

impl Default for RefineScratch {
    fn default() -> Self {
        RefineScratch {
            slots: vec![0],
            seen: Vec::new(),
            runs: Vec::new(),
            rows: vec![0],
        }
    }
}

impl RefineScratch {
    /// The position in `rows` that takes every row no run keeps: written,
    /// never read.
    const DUMP: u32 = 0;

    /// Split one class (rows ascending) by `codes`: every code held by at
    /// least two of its rows becomes a run of those rows, ascending, and the
    /// runs come out in first-row order; rows whose code is
    /// [`CLASS_SENTINEL`] are dropped.  No branch depends on the codes: a
    /// row's code is noted at `seen[distinct]` and `distinct` advances when
    /// the code is new, a run is noted at `runs[r]` and `r` advances when
    /// it has two rows, and a row no run keeps is placed at the dump.
    fn split(&mut self, class: impl ExactSizeIterator<Item = u32> + Clone, codes: &[u32]) {
        let RefineScratch {
            slots,
            seen,
            runs,
            rows,
        } = self;
        if seen.len() < class.len() {
            seen.resize(class.len(), 0);
        }
        let mut distinct = 0;
        for row in class.clone() {
            let slot = codes[row as usize].wrapping_add(1) as usize;
            if slot >= slots.len() {
                slots.resize((slot + 1).next_power_of_two(), 0);
            }
            let count = slots[slot];
            seen[distinct] = slot as u32;
            distinct += usize::from(count == 0);
            slots[slot] = count + 1;
        }
        // The sentinel's entry counted its rows, but they join no run.
        slots[0] = Self::DUMP;
        let start = rows.len() as u32;
        let mut end = start;
        let mut r = runs.len();
        runs.resize(r + distinct, (0, 0));
        for &slot in &seen[..distinct] {
            let count = slots[slot as usize];
            let kept = count >= 2;
            runs[r] = (end, count);
            r += usize::from(kept);
            slots[slot as usize] = if kept { end } else { Self::DUMP };
            end += if kept { count } else { 0 };
        }
        runs.truncate(r);
        if end > start {
            rows.resize(end as usize, 0);
            for row in class {
                let slot = codes[row as usize].wrapping_add(1) as usize;
                let at = slots[slot];
                rows[at as usize] = row;
                // A run's next position moves on; the dump stays put.
                slots[slot] = at + u32::from(at != Self::DUMP);
            }
        }
        for &slot in &seen[..distinct] {
            slots[slot as usize] = 0;
        }
    }

    /// Split a two-row class, `a < b`, without the slot arrays: it stays a
    /// class exactly when both rows share a code other than
    /// [`CLASS_SENTINEL`].
    fn split_pair(&mut self, a: u32, b: u32, codes: &[u32]) {
        let code = codes[a as usize];
        if code == codes[b as usize] && code != CLASS_SENTINEL {
            self.runs.push((self.rows.len() as u32, 2));
            self.rows.extend([a, b]);
        }
    }

    /// Materialize the emitted runs into a CSR partition: runs in first-row
    /// order (first rows are distinct across runs, so the order is total and
    /// deterministic), rows copied out in that order.
    fn finish(&mut self, n_rows: usize) -> StrippedPartition {
        let RefineScratch {
            runs, rows: acc, ..
        } = self;
        let first_row = |&(at, _): &(u32, u32)| acc[at as usize];
        if !runs.is_sorted_by_key(first_row) {
            runs.sort_unstable_by_key(first_row);
        }
        // Every row but the dump's belongs to a run.
        let mut rows = Vec::with_capacity(acc.len() - 1);
        let mut offsets = Vec::with_capacity(runs.len() + 1);
        offsets.push(0u32);
        for &(at, len) in runs.iter() {
            rows.extend_from_slice(&acc[at as usize..(at + len) as usize]);
            offsets.push(rows.len() as u32);
        }
        runs.clear();
        acc.truncate(1);
        StrippedPartition {
            rows,
            offsets,
            n_rows,
        }
    }
}

/// A stripped partition: equivalence classes (of size ≥ 2) of tuple ids, in a
/// flat CSR layout — class `i` is `rows[offsets[i]..offsets[i + 1]]`, classes
/// ordered by first member, members ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    rows: Vec<u32>,
    offsets: Vec<u32>,
    n_rows: usize,
}

impl StrippedPartition {
    /// The partition of the empty attribute set: one class holding every tuple
    /// (stripped away entirely when the relation has fewer than two rows).
    pub fn full(n_rows: usize) -> Self {
        if n_rows >= 2 {
            StrippedPartition {
                rows: (0..n_rows as u32).collect(),
                offsets: vec![0, n_rows as u32],
                n_rows,
            }
        } else {
            Self::key(n_rows)
        }
    }

    /// The partition of a key: every class a singleton, so none is kept.
    fn key(n_rows: usize) -> Self {
        StrippedPartition {
            rows: Vec::new(),
            offsets: vec![0],
            n_rows,
        }
    }

    /// Build a partition from explicit class lists (classes need not arrive
    /// sorted; they are put into canonical first-row order).  Test and oracle
    /// constructor — the discovery paths build CSR directly.
    pub fn from_classes(mut classes: Vec<Vec<u32>>, n_rows: usize) -> Self {
        classes.sort_by_key(|c| c[0]);
        let total: usize = classes.iter().map(|c| c.len()).sum();
        let mut rows = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(classes.len() + 1);
        offsets.push(0u32);
        for class in &classes {
            rows.extend_from_slice(class);
            offsets.push(rows.len() as u32);
        }
        StrippedPartition {
            rows,
            offsets,
            n_rows,
        }
    }

    /// Build `Π_{{A}}` from an attribute's code column: the whole relation
    /// split by the counting kernel, through caller-provided scratch.
    pub fn by_codes_with(codes: &[u32], scratch: &mut RefineScratch) -> Self {
        scratch.split(0..codes.len() as u32, codes);
        scratch.finish(codes.len())
    }

    /// Refine by a dense code column: every class split by `codes`, which
    /// may be an attribute's rank codes (`Π_X · Π_{{A}}` restricted to the
    /// tuples `Π_X` still tracks) or another partition's class ids (see
    /// [`Self::product_with`]).  Linear in [`Self::covered_rows`]: two
    /// counting passes per class of three or more rows, one comparison per
    /// class of two, no sort.
    pub fn refine_by_with(&self, codes: &[u32], scratch: &mut RefineScratch) -> Self {
        for class in self.classes() {
            match *class {
                [a, b] => scratch.split_pair(a, b, codes),
                _ => scratch.split(class.iter().copied(), codes),
            }
        }
        scratch.finish(self.n_rows)
    }

    /// The dense class-id column of this partition: `row → class index` in
    /// first-row class order, [`CLASS_SENTINEL`] for stripped singletons.
    pub fn class_codes(&self) -> ClassCodes {
        let mut codes = vec![CLASS_SENTINEL; self.n_rows];
        for (ci, class) in self.classes().enumerate() {
            for &row in class {
                codes[row as usize] = ci as u32;
            }
        }
        ClassCodes {
            codes,
            classes: self.num_classes() as u32,
        }
    }

    /// The partition product `self · other`: every class of `self` split by
    /// `other`'s class ids, rows that are singletons in `other` dropped up
    /// front (they are singletons in the product too).
    pub fn product_with(&self, other: &ClassCodes, scratch: &mut RefineScratch) -> Self {
        self.refine_by_with(other.codes(), scratch)
    }

    /// The equivalence classes (each of size ≥ 2), as CSR slices in first-row
    /// order.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone {
        self.offsets
            .windows(2)
            .map(|w| &self.rows[w[0] as usize..w[1] as usize])
    }

    /// Class `i` as a CSR slice.
    pub fn class(&self, i: usize) -> &[u32] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The classes copied out as owned row lists (test/oracle convenience —
    /// hot paths stay on the CSR slices).
    pub fn class_vecs(&self) -> Vec<Vec<u32>> {
        self.classes().map(|c| c.to_vec()).collect()
    }

    /// Number of (non-singleton) classes.
    pub fn num_classes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of tuple ids still tracked (`‖Π‖` in TANE's notation).
    pub fn covered_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of rows of the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True if every class is a singleton — the attribute set is a (super)key,
    /// so no two tuples agree on it and neither splits nor in-class swaps exist.
    pub fn is_key(&self) -> bool {
        self.offsets.len() == 1
    }

    /// True if a single class covers the whole relation (the attribute set is
    /// constant on the instance, or empty).
    pub fn is_single_class(&self) -> bool {
        self.offsets.len() == 2 && self.rows.len() == self.n_rows
    }

    /// Row count of the largest class (`0` for a key).
    pub(crate) fn max_class_len(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Heap bytes held by the CSR arrays.
    pub fn approx_heap_bytes(&self) -> usize {
        (self.rows.capacity() + self.offsets.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Memoizing builder of stripped partitions per attribute set, plus the
/// per-attribute code columns all validators work on (served as [`ColCodes`]
/// views into the relation's [`ColumnarEncoding`]).
///
/// `Π_X` is computed once per distinct `X`, as the *incremental partition
/// product* of FASTOD: the cached subset `X ∖ {A}` that covers the fewest
/// rows, split by `A` (on a tie, `A` is the highest id).  Under level-wise
/// traversal every such subset is cached, and the product is the same
/// partition whichever base it starts from; the smallest one is the least
/// work.  Level-1 partitions split the full relation by the attribute's raw
/// code column; deeper levels split by the dropped attribute's
/// [`ClassCodes`].  From level 2 on, every attribute of a context the cache
/// builds keeps its class codes, memoized per attribute, so which columns
/// the cache holds depends on the contexts alone, not on which base the data
/// made cheapest.  They survive [`Self::evict_sets_of_size`] — eviction drops
/// whole-partition CSR arrays, not the dense columns products keep
/// re-reading.
pub struct PartitionCache<'r> {
    rel: &'r Relation,
    /// Memoized partitions, keyed directly by the attribute-set bit mask —
    /// hashing a context costs one `u64` hash, not a `Vec<AttrId>` walk.
    partitions: HashMap<AttrSet, Rc<StrippedPartition>>,
    /// Per-attribute class-id columns for the product path.  Never evicted:
    /// one dense `u32` column per attribute is cheap and every level ≥ 2
    /// product reuses them.
    attr_codes: HashMap<AttrId, Rc<ClassCodes>>,
    /// Per-attribute sorted orders τ_A for the compatibility scan, never
    /// evicted either (one `u32` per row each).
    attr_orders: HashMap<AttrId, Rc<Vec<u32>>>,
    scratch: RefineScratch,
}

impl<'r> PartitionCache<'r> {
    /// A cache over one relation instance and its columnar encoding.
    pub fn new(rel: &'r Relation) -> Self {
        PartitionCache {
            rel,
            partitions: HashMap::new(),
            attr_codes: HashMap::new(),
            attr_orders: HashMap::new(),
            scratch: RefineScratch::default(),
        }
    }

    /// The relation the cache serves.
    pub fn relation(&self) -> &'r Relation {
        self.rel
    }

    /// Order-preserving dense codes of one column — an O(1) view into the
    /// shared encoding (historically this memoized per-attribute sorts).
    pub fn codes(&self, attr: AttrId) -> ColCodes {
        ColCodes::new(self.rel.encoding(), attr.index())
    }

    /// The class-id column of `Π_{{attr}}`, memoized per attribute and immune
    /// to [`Self::evict_sets_of_size`].  Served from the cached singleton
    /// partition when present; otherwise built from the attribute's raw code
    /// column without polluting the partition memo (temporary partitions are
    /// not inserted, keeping [`Self::cached_sets`] exact).
    pub fn attr_class_codes(&mut self, attr: AttrId) -> Rc<ClassCodes> {
        if let Some(cc) = self.attr_codes.get(&attr) {
            return cc.clone();
        }
        let single: AttrSet = std::iter::once(attr).collect();
        let cc = match self.partitions.get(&single) {
            Some(p) => p.class_codes(),
            None => self.attr_partition(attr).class_codes(),
        };
        let rc = Rc::new(cc);
        self.attr_codes.insert(attr, rc.clone());
        rc
    }

    /// τ_A: every row in order of `attr`'s code, rows ascending within equal
    /// codes (one counting pass over the code column, or none when the codes
    /// never descend and τ_A is the identity), memoized per attribute and
    /// immune to [`Self::evict_sets_of_size`].
    pub fn attr_order(&mut self, attr: AttrId) -> Rc<Vec<u32>> {
        if let Some(order) = self.attr_orders.get(&attr) {
            return order.clone();
        }
        let enc = self.rel.encoding();
        let col = enc.column(attr.index());
        let order = Rc::new(if col.codes().is_sorted() {
            (0..col.codes().len() as u32).collect()
        } else {
            rows_by_code(col.codes(), col.distinct_count())
        });
        self.attr_orders.insert(attr, order.clone());
        order
    }

    /// `Π_{{attr}}`: the whole relation split by `attr`'s codes.  A
    /// dictionary with one entry per row decides it with no split: codes are
    /// dense ranks, every entry some row's, so each row has its own code and
    /// `attr` is a key.
    fn attr_partition(&mut self, attr: AttrId) -> StrippedPartition {
        let n_rows = self.rel.len();
        let enc = self.rel.encoding();
        let col = enc.column(attr.index());
        if col.distinct_count() == n_rows {
            StrippedPartition::key(n_rows)
        } else {
            StrippedPartition::by_codes_with(col.codes(), &mut self.scratch)
        }
    }

    /// The cached subset of `set` one attribute smaller that covers the
    /// fewest rows, with the attribute it drops; on a tie, the one dropping
    /// the highest id.  `None` when `set` is empty or no such subset is
    /// cached.
    fn cheapest_base(&self, set: &AttrSet) -> Option<(AttrId, Rc<StrippedPartition>)> {
        let mut best: Option<(AttrId, &Rc<StrippedPartition>)> = None;
        for attr in set.iter() {
            if let Some(base) = self.partitions.get(&set.without(attr)) {
                if best.is_none_or(|(_, b)| base.covered_rows() <= b.covered_rows()) {
                    best = Some((attr, base));
                }
            }
        }
        best.map(|(attr, base)| (attr, base.clone()))
    }

    /// The class codes that build `set`, of two or more attributes, from
    /// the base without `dropped`.  Every attribute of `set` gets its class
    /// codes memoized, not only `dropped`.
    fn operand(&mut self, set: &AttrSet, dropped: AttrId) -> Rc<ClassCodes> {
        for attr in set.iter() {
            self.attr_class_codes(attr);
        }
        self.attr_class_codes(dropped)
    }

    /// The stripped partition `Π_X` (memoized).
    pub fn partition(&mut self, set: &AttrSet) -> Rc<StrippedPartition> {
        if let Some(p) = self.partitions.get(set) {
            return p.clone();
        }
        let part = match set.last() {
            None => StrippedPartition::full(self.rel.len()),
            Some(last) => {
                let (dropped, base) = match self.cheapest_base(set) {
                    Some(found) => found,
                    // No base cached: build `X` minus its last attribute.
                    None => (last, self.partition(&set.without(last))),
                };
                // Level 1 splits the whole relation; its base, `Π_∅`, is
                // still built and cached above when missing.
                if set.len() == 1 {
                    self.attr_partition(dropped)
                } else {
                    let operand = self.operand(set, dropped);
                    base.refine_by_with(operand.codes(), &mut self.scratch)
                }
            }
        };
        let rc = Rc::new(part);
        self.partitions.insert(*set, rc.clone());
        rc
    }

    /// The partitions of a whole level, in order (each one as
    /// [`Self::partition`] builds it).
    pub fn partitions_batch(&mut self, sets: &[AttrSet]) -> Vec<Rc<StrippedPartition>> {
        sets.iter().map(|set| self.partition(set)).collect()
    }

    /// Number of distinct attribute sets whose partition has been materialized.
    pub fn cached_sets(&self) -> usize {
        self.partitions.len()
    }

    /// Evict every cached partition whose attribute set has exactly `len`
    /// attributes, returning how many were dropped.
    ///
    /// The level-wise lattice calls this to cap resident memory: partitions of
    /// level `k` are only ever refined into level `k + 1` partitions, so once
    /// level `k + 1` is fully materialized the level-`k` products are dead
    /// weight.  Eviction is safe, not merely sound: a later request for an
    /// evicted set transparently rebuilds it (recursively, from whatever
    /// subsets remain cached).  The per-attribute [`ClassCodes`] memo is
    /// deliberately untouched — products at every later level keep reading it.
    pub fn evict_sets_of_size(&mut self, len: usize) -> usize {
        let before = self.partitions.len();
        self.partitions.retain(|key, _| key.len() != len);
        before - self.partitions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::{Schema, Value};

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

    fn set(ids: &[u32]) -> AttrSet {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn full_partition_is_one_class_unless_tiny() {
        assert_eq!(StrippedPartition::full(5).num_classes(), 1);
        assert!(StrippedPartition::full(5).is_single_class());
        assert!(StrippedPartition::full(1).is_key());
        assert!(StrippedPartition::full(0).is_key());
    }

    #[test]
    fn by_codes_groups_equal_values_and_strips_singletons() {
        // Column: [5, 3, 5, 9, 3] → classes {0,2} and {1,4}; row 3 is stripped.
        let rel = rel_from(&[&[5], &[3], &[5], &[9], &[3]]);
        let codes = rel.rank_column(AttrId(0));
        let p = StrippedPartition::by_codes_with(&codes, &mut RefineScratch::default());
        assert_eq!(p.class_vecs(), vec![vec![0, 2], vec![1, 4]]);
        assert_eq!(p.class(0), &[0, 2]);
        assert_eq!(p.class(1), &[1, 4]);
        assert_eq!(p.covered_rows(), 4);
        assert!(!p.is_key());
    }

    #[test]
    fn refinement_matches_direct_construction() {
        let rel = rel_from(&[&[1, 1], &[1, 2], &[1, 1], &[2, 1], &[2, 1], &[1, 2]]);
        let mut cache = PartitionCache::new(&rel);
        let pa = cache.partition(&set(&[0]));
        let pab = cache.partition(&set(&[0, 1]));
        // Direct: group rows by both columns.
        assert_eq!(pa.num_classes(), 2);
        assert_eq!(pab.class_vecs(), vec![vec![0, 2], vec![1, 5], vec![3, 4]]);
        // Refinement never increases covered rows.
        assert!(pab.covered_rows() <= pa.covered_rows());
    }

    #[test]
    fn radix_and_comparison_bucketing_agree() {
        // Few distinct values over 600 rows, so classes stay large: the
        // counting kernel must produce the partition a comparison sort of
        // the `(code, row)` pairs does.
        let rows: Vec<Vec<i64>> = (0..600i64).map(|i| vec![i % 7, i % 3]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let codes = rel.rank_column(AttrId(0));
        let mut scratch = RefineScratch::default();
        let via_radix = StrippedPartition::by_codes_with(&codes, &mut scratch);
        // Reference: comparison-sorted bucketing of the same pairs.
        let mut pairs: Vec<(u32, u32)> = codes
            .iter()
            .enumerate()
            .map(|(row, &c)| (c, row as u32))
            .collect();
        pairs.sort_unstable();
        let mut expected: Vec<Vec<u32>> = Vec::new();
        let mut start = 0;
        for i in 1..=pairs.len() {
            if i == pairs.len() || pairs[i].0 != pairs[start].0 {
                if i - start >= 2 {
                    expected.push(pairs[start..i].iter().map(|&(_, r)| r).collect());
                }
                start = i;
            }
        }
        expected.sort_by_key(|c| c[0]);
        assert_eq!(via_radix.class_vecs(), expected);
        // And refining by the second column matches the cache-built product.
        let mut cache = PartitionCache::new(&rel);
        let pab = cache.partition(&set(&[0, 1]));
        let manual = via_radix.refine_by_with(&rel.rank_column(AttrId(1)), &mut scratch);
        assert_eq!(*pab, manual);
    }

    #[test]
    fn key_sets_strip_to_nothing() {
        let rel = rel_from(&[&[1, 7], &[2, 7], &[3, 7]]);
        let mut cache = PartitionCache::new(&rel);
        assert!(cache.partition(&set(&[0])).is_key());
        // And refining a key by anything stays a key.
        assert!(cache.partition(&set(&[0, 1])).is_key());
        // A constant column is a single class.
        assert!(cache.partition(&set(&[1])).is_single_class());
    }

    #[test]
    fn class_codes_mark_members_and_sentinel_singletons() {
        // Column: [5, 3, 5, 9, 3] → class 0 = {0,2}, class 1 = {1,4}, row 3
        // is a singleton.
        let rel = rel_from(&[&[5], &[3], &[5], &[9], &[3]]);
        let p = StrippedPartition::by_codes_with(
            &rel.rank_column(AttrId(0)),
            &mut RefineScratch::default(),
        );
        let cc = p.class_codes();
        assert_eq!(cc.num_classes(), 2);
        assert_eq!(cc.codes(), &[0, 1, 0, CLASS_SENTINEL, 1]);
        // Degenerate columns: one class, and a key with no class at all.
        let full = StrippedPartition::full(4).class_codes();
        assert_eq!((full.num_classes(), full.codes()), (1, &[0; 4][..]));
        let key = StrippedPartition::full(1).class_codes();
        assert_eq!((key.num_classes(), key.codes()), (0, &[CLASS_SENTINEL][..]));
    }

    #[test]
    fn product_paths_agree_with_refinement_and_each_other() {
        let rows: Vec<Vec<i64>> = (0..700i64).map(|i| vec![i % 6, i % 4, i % 35]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let mut scratch = RefineScratch::default();
        let pa = StrippedPartition::by_codes_with(&rel.rank_column(AttrId(0)), &mut scratch);
        let pb = StrippedPartition::by_codes_with(&rel.rank_column(AttrId(1)), &mut scratch);
        let pc = StrippedPartition::by_codes_with(&rel.rank_column(AttrId(2)), &mut scratch);
        for (base, other) in [(&pa, &pb), (&pb, &pa), (&pa, &pc), (&pc, &pb)] {
            let cc = other.class_codes();
            let product = base.product_with(&cc, &mut scratch);
            // All columns here are duplicate-heavy (no singletons), so the
            // class-code column is total and refinement by the other
            // partition's class ids equals the product.
            let refined = base.refine_by_with(cc.codes(), &mut scratch);
            assert!(cc.codes().iter().all(|&c| c != CLASS_SENTINEL));
            assert_eq!(product, refined);
        }
    }

    #[test]
    fn product_drops_rows_singleton_in_either_operand() {
        // a: [1,1,2,2,3] → classes {0,1},{2,3}; b: [7,8,8,9,9] → {1,2},{3,4}.
        // Product: rows 0 (singleton in b via class id) and 4 (singleton in a)
        // drop; {1},{2},{3} all become singletons → empty (key) product.
        let rel = rel_from(&[&[1, 7], &[1, 8], &[2, 8], &[2, 9], &[3, 9]]);
        let mut scratch = RefineScratch::default();
        let pa = StrippedPartition::by_codes_with(&rel.rank_column(AttrId(0)), &mut scratch);
        let pb = StrippedPartition::by_codes_with(&rel.rank_column(AttrId(1)), &mut scratch);
        let prod = pa.product_with(&pb.class_codes(), &mut scratch);
        assert!(prod.is_key());
        // A product with itself is idempotent.
        let same = pa.product_with(&pa.class_codes(), &mut scratch);
        assert_eq!(same, pa);
    }

    #[test]
    fn cache_deep_products_match_serial_refinement_chain() {
        let rows: Vec<Vec<i64>> = (0..300i64)
            .map(|i| vec![i % 4, i % 3, i % 5, i % 2])
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let mut cache = PartitionCache::new(&rel);
        let deep = cache.partition(&set(&[0, 1, 2, 3]));
        // Oracle: chain of raw-code refinements, no products involved.
        let mut oracle = StrippedPartition::full(rel.len());
        let mut scratch = RefineScratch::default();
        for a in 0..4 {
            oracle = oracle.refine_by_with(&rel.rank_column(AttrId(a)), &mut scratch);
        }
        assert_eq!(*deep, oracle);
    }

    #[test]
    fn split_classes_interleave_and_come_out_in_first_row_order() {
        const S: u32 = CLASS_SENTINEL;
        // Base classes {0,3,5,7,9} and {1,2,4,6}, split by codes that pair
        // {0,5},{3,7} and {1,4},{2,6}: the runs are emitted out of first-row
        // order and must be sorted back into it.  Row 8 is a singleton in
        // the base, so it never enters; row 9's sentinel code drops it.  Of
        // the two-row classes, {10,11} shares a code and stays, {12,13}
        // does not, {14,15} has one sentinel row and {16,17} two.
        let base = StrippedPartition::from_classes(
            vec![
                vec![0, 3, 5, 7, 9],
                vec![1, 2, 4, 6],
                vec![10, 11],
                vec![12, 13],
                vec![14, 15],
                vec![16, 17],
            ],
            18,
        );
        let codes = [0, 1, 2, 1, 1, 0, 2, 1, 0, S, 3, 3, 3, 4, S, 4, S, S];
        let mut scratch = RefineScratch::default();
        let split = base.refine_by_with(&codes, &mut scratch);
        assert_eq!(split.rows, [0, 5, 1, 4, 2, 6, 3, 7, 10, 11]);
        assert_eq!(split.offsets, [0, 2, 4, 6, 8, 10]);
        // The scratch is left clean: the same call again gives the same
        // partition.
        assert_eq!(base.refine_by_with(&codes, &mut scratch), split);
        assert!(scratch.slots.iter().all(|&s| s == 0));
        assert_eq!(
            (scratch.rows.len(), scratch.runs.len()),
            (1, 0),
            "only the dump"
        );
        // Classes that do not interleave emit their runs in first-row
        // order, which needs no sort: {0,2} and {1,3} from the first class,
        // the pair {4,5}, and {6,8} past row 7's sentinel.
        let base =
            StrippedPartition::from_classes(vec![vec![0, 1, 2, 3], vec![4, 5], vec![6, 7, 8]], 9);
        let codes = [0, 1, 0, 1, 2, 2, 3, S, 3];
        let split = base.refine_by_with(&codes, &mut scratch);
        assert_eq!(split.rows, [0, 2, 1, 3, 4, 5, 6, 8]);
        assert_eq!(split.offsets, [0, 2, 4, 6, 8]);
        // A large code grows the slot array on demand, to a power of two.
        let wide = [70_000, 5, 70_000];
        let p = StrippedPartition::by_codes_with(&wide, &mut scratch);
        assert_eq!(p.class_vecs(), vec![vec![0, 2]]);
        assert_eq!(scratch.slots.len(), 1 << 17);
    }

    /// A key, a constant, and a column whose only duplicate is two NULLs:
    /// the cache's `Π_{{A}}`, decided from the dictionary for the key, is
    /// the counting kernel's.  τ of a column whose codes never
    /// descend, served without a counting pass, is `rows_by_code`'s too.
    #[test]
    fn single_attribute_partitions_and_orders_match_the_counting_kernel() {
        let mut schema = Schema::new("t");
        for name in ["key", "constant", "nulls", "ascending"] {
            schema.add_attr(name);
        }
        let int = Value::Int;
        let rows = [
            [int(5), int(4), Value::Null, int(1)],
            [int(3), int(4), int(1), int(1)],
            [int(9), int(4), Value::Null, int(2)],
            [int(1), int(4), int(2), int(3)],
            [int(7), int(4), int(3), int(3)],
        ];
        let rel = Relation::from_rows(schema, rows.iter().map(|r| r.to_vec())).unwrap();
        let mut cache = PartitionCache::new(&rel);
        let mut scratch = RefineScratch::default();
        for attr in 0..4 {
            let codes = rel.rank_column(AttrId(attr));
            let expected = StrippedPartition::by_codes_with(&codes, &mut scratch);
            assert_eq!(*cache.partition(&set(&[attr])), expected, "column {attr}");
            let distinct = rel.encoding().column(attr as usize).distinct_count();
            assert_eq!(
                *cache.attr_order(AttrId(attr)),
                rows_by_code(&codes, distinct),
                "column {attr}"
            );
        }
        assert!(cache.partition(&set(&[0])).is_key());
        assert!(cache.partition(&set(&[1])).is_single_class());
        assert_eq!(cache.partition(&set(&[2])).class_vecs(), vec![vec![0, 2]]);
        assert_eq!(*cache.attr_order(AttrId(3)), [0, 1, 2, 3, 4]);
        // Decided or split, every partition enters the memo.
        assert_eq!(cache.cached_sets(), 5);
    }

    #[test]
    fn cheapest_base_covers_fewest_rows_and_drops_the_highest_id_on_ties() {
        // c0 has one 4-row class, c1 two 2-row classes and c2 is a key, so
        // Π{0,1} covers 4 rows, Π{0,2} and Π{1,2} none.
        let rel = rel_from(&[&[1, 1, 1], &[1, 1, 2], &[1, 2, 3], &[1, 2, 4]]);
        let mut cache = PartitionCache::new(&rel);
        cache.partitions_batch(&[set(&[])]);
        cache.partitions_batch(&[set(&[0]), set(&[1]), set(&[2])]);
        cache.partitions_batch(&[set(&[0, 1]), set(&[0, 2]), set(&[1, 2])]);
        let covered: Vec<usize> = [[0, 1], [0, 2], [1, 2]]
            .iter()
            .map(|ids| cache.partitions[&set(ids)].covered_rows())
            .collect();
        assert_eq!(covered, [4, 0, 0]);
        // Level 1: the only base is Π∅, dropping the attribute itself.
        let (dropped, base) = cache.cheapest_base(&set(&[1])).unwrap();
        assert_eq!((dropped, base.covered_rows()), (AttrId(1), 4));
        // Π{0} covers 4 rows and Π{1} 4 too: a tie drops the highest id.
        let (dropped, _) = cache.cheapest_base(&set(&[0, 1])).unwrap();
        assert_eq!(dropped, AttrId(1));
        // Π{0,2} and Π{1,2} tie at 0 rows below Π{0,1}'s 4: drop 0 or 1,
        // the highest of them being 1.
        let (dropped, base) = cache.cheapest_base(&set(&[0, 1, 2])).unwrap();
        assert_eq!((dropped, base.covered_rows()), (AttrId(1), 0));
        // Only cached subsets count: with Π{0,2} and Π{1,2} gone, Π{0,1}
        // is the one base left.
        cache.partitions.remove(&set(&[0, 2]));
        cache.partitions.remove(&set(&[1, 2]));
        let (dropped, base) = cache.cheapest_base(&set(&[0, 1, 2])).unwrap();
        assert_eq!((dropped, base.covered_rows()), (AttrId(2), 4));
        cache.partitions.remove(&set(&[0, 1]));
        assert!(cache.cheapest_base(&set(&[0, 1, 2])).is_none());
        assert!(cache.cheapest_base(&set(&[])).is_none());
    }

    #[test]
    fn level_two_contexts_memoize_every_attribute_they_hold() {
        // Π{0} covers 4 rows and Π{2} none, so Π{0,2} starts from Π{2} and
        // reads c0's class codes; c2's are memoized all the same.
        let rel = rel_from(&[&[1, 1, 1], &[1, 1, 2], &[1, 2, 3], &[1, 2, 4]]);
        let mut cache = PartitionCache::new(&rel);
        cache.partitions_batch(&[set(&[])]);
        cache.partitions_batch(&[set(&[0]), set(&[1]), set(&[2])]);
        assert!(cache.attr_codes.is_empty(), "level 1 reads rank codes");
        cache.partitions_batch(&[set(&[0, 2])]);
        let mut memo: Vec<u32> = cache.attr_codes.keys().map(|a| a.0).collect();
        memo.sort_unstable();
        assert_eq!(memo, [0, 2]);
        // The serial path follows the same rule.
        cache.partition(&set(&[1, 2]));
        assert_eq!(cache.attr_codes.len(), 3);
    }

    #[test]
    fn attr_class_codes_survive_eviction_and_skip_the_partition_memo() {
        let rel = rel_from(&[&[1, 1], &[1, 2], &[2, 1], &[2, 2], &[1, 1]]);
        let mut cache = PartitionCache::new(&rel);
        // No partitions cached yet: codes build from the raw column without
        // inserting a partition.
        let cc = cache.attr_class_codes(AttrId(1));
        assert_eq!(cache.cached_sets(), 0);
        cache.partition(&set(&[0, 1]));
        // Cached: Π_∅, Π_{0}, Π_{0,1} — evicting level 1 drops exactly Π_{0}.
        assert_eq!(cache.cached_sets(), 3);
        assert_eq!(cache.evict_sets_of_size(1), 1);
        // The memoized codes are still served (same allocation).
        let cc2 = cache.attr_class_codes(AttrId(1));
        assert!(Rc::ptr_eq(&cc, &cc2));
        // One dense u32 per row: the `n_rows × 4` bytes the lattice's
        // `partition.csr_bytes` gauge charges per memoized column.
        assert_eq!(cc2.approx_heap_bytes(), rel.len() * 4);
    }

    #[test]
    fn cache_memoizes_and_counts_products() {
        let rel = rel_from(&[&[1, 1, 1], &[1, 2, 1], &[2, 1, 1], &[2, 2, 2]]);
        let mut cache = PartitionCache::new(&rel);
        let first = cache.partition(&set(&[0, 1]));
        // Π_∅, Π_{0} and Π_{0,1}: the subset bases are cached on the way.
        assert_eq!(cache.cached_sets(), 3);
        let second = cache.partition(&set(&[0, 1]));
        assert!(
            Rc::ptr_eq(&first, &second),
            "second lookup must hit the cache, not build a new product"
        );
        assert_eq!(cache.cached_sets(), 3);
        // The cached base is served too, and a batch over cached sets
        // materializes nothing new.
        let base = cache.partition(&set(&[0]));
        let batch = cache.partitions_batch(&[set(&[0]), set(&[0, 1])]);
        assert!(Rc::ptr_eq(&batch[0], &base) && Rc::ptr_eq(&batch[1], &first));
        assert_eq!(cache.cached_sets(), 3);
    }

    #[test]
    fn cache_codes_view_matches_rank_column() {
        let rel = rel_from(&[&[5, 1], &[3, 1], &[5, 2]]);
        let cache = PartitionCache::new(&rel);
        for attr in [AttrId(0), AttrId(1)] {
            let view = cache.codes(attr);
            assert_eq!(&view[..], rel.rank_column(attr).as_slice());
        }
    }

    #[test]
    fn nulls_and_ties_partition_together() {
        let mut schema = Schema::new("t");
        schema.add_attr("a");
        let rel = Relation::from_rows(
            schema,
            vec![
                vec![Value::Null],
                vec![Value::Int(1)],
                vec![Value::Null],
                vec![Value::Int(1)],
            ],
        )
        .unwrap();
        let mut cache = PartitionCache::new(&rel);
        let p = cache.partition(&set(&[0]));
        assert_eq!(
            p.class_vecs(),
            vec![vec![0, 2], vec![1, 3]],
            "NULLs form their own class"
        );
    }

    #[test]
    fn from_classes_builds_canonical_csr() {
        let p = StrippedPartition::from_classes(vec![vec![4, 7], vec![0, 2, 9]], 10);
        assert_eq!(p.class_vecs(), vec![vec![0, 2, 9], vec![4, 7]]);
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.covered_rows(), 5);
        assert!(p.approx_heap_bytes() >= (5 + 3) * 4);
        let empty = StrippedPartition::from_classes(Vec::new(), 3);
        assert!(empty.is_key());
        assert_eq!(empty.n_rows(), 3);
        assert_eq!(empty.num_classes(), 0);
    }
}
