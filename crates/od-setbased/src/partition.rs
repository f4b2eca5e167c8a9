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
//! Partitions compose two ways, both through the same run-emission machinery:
//!
//! * **Refinement** builds `Π_{{A}}` (or `Π_X · Π_{{A}}` restricted to `Π_X`'s
//!   tuples) by bucketing rows on `A`'s order-preserving code column (see
//!   [`od_core::ColumnarEncoding`]) — a linear pass, *not* an `O(n log n)`
//!   re-sort.
//! * **Products** (`Π_X · Π_Y` for non-trivial `Y`) go through dense
//!   [`ClassCodes`] columns (`row → class id`, singletons =
//!   [`CLASS_SENTINEL`]): each surviving row contributes one packed
//!   `(class_of_X, class_of_Y)` `u64` key and one global sort of the
//!   `(key, row)` pairs emits the product's classes.  No hashing, no
//!   [`od_core::Value`] comparisons.
//!
//! Both paths sort pairs with the stable LSB [radix sort](od_core::radix) when
//! large (dense codes over `n` rows need at most `⌈log₂ n / 8⌉` counting
//! passes) and `sort_unstable` when small — row payloads are distinct and
//! enter in ascending order, so both produce the identical lexicographic
//! order and the resulting classes are bit-identical either way.
//! [`PartitionCache`] memoizes partitions per attribute set so the lattice
//! visits each set once, hands out code columns as cheap [`ColCodes`] views
//! into the relation's shared columnar encoding, and keeps per-attribute
//! [`ClassCodes`] alive across level evictions so deep-lattice products never
//! rebuild them.  It also memoizes each attribute's **sorted order** τ_A (the
//! rows in order of `A`'s code, [`PartitionCache::attr_order`]), which the
//! compatibility scan walks when a context has a large class (see
//! [`crate::validate::tau_compatibility_verdict`]).

use od_core::{radix, AttrId, AttrSet, ColumnarEncoding, Relation};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Pair count from which class bucketing switches from `sort_unstable` to the
/// radix sort (below it, the radix histogram pre-pass dominates).
const RADIX_MIN_PAIRS: usize = 256;

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
/// This is the right-hand operand of a partition product: packing a base
/// partition's class index with `codes[row]` into one `u64` key turns the
/// product into a single radix sort over the base's surviving rows.
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

    /// Bits needed to hold any valid class id of this column (`0` when at
    /// most one class exists) — the shift a product packs the other operand's
    /// class index above.
    pub fn id_bits(&self) -> u32 {
        if self.classes <= 1 {
            0
        } else {
            radix::bits_for(self.classes - 1)
        }
    }

    /// Heap bytes held by the code column.
    pub fn approx_heap_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<u32>()
    }
}

/// Reusable scratch buffers for partition construction, held per
/// [`PartitionCache`] so the thousands of refinement and product calls of a
/// lattice traversal stop re-allocating their working set (the only
/// allocations left are the surviving CSR arrays themselves).  Also
/// accumulates radix counting passes, surfaced as the
/// `discovery.radix_passes` (refinement) and `discovery.product_radix_passes`
/// (u64 product keys) counters.
#[derive(Debug, Default)]
pub struct RefineScratch {
    /// `(code, row)` pairs of the class currently being bucketed.
    pairs: Vec<(u32, u32)>,
    /// Radix ping-pong buffer for `pairs`.
    radix: Vec<(u32, u32)>,
    /// Packed `(class_a, class_b)` product keys with their rows.
    pairs64: Vec<(u64, u32)>,
    /// Radix ping-pong buffer for `pairs64`.
    radix64: Vec<(u64, u32)>,
    /// Emitted run descriptors: (first row, start in `rows_acc`, length).
    runs: Vec<(u32, u32, u32)>,
    /// Row ids of emitted runs, in run order.
    rows_acc: Vec<u32>,
    /// Radix counting passes performed on u32 refinement keys.
    passes: u64,
    /// Radix counting passes performed on u64 product keys.
    product_passes: u64,
}

impl RefineScratch {
    /// Total radix counting passes performed on refinement (u32 code) keys
    /// through this scratch so far.
    pub fn radix_passes(&self) -> u64 {
        self.passes
    }

    /// Total radix counting passes performed on packed u64 product keys
    /// through this scratch so far.
    pub fn product_radix_passes(&self) -> u64 {
        self.product_passes
    }

    /// Fold another scratch's refinement pass count into this one (used when
    /// sharded workers refine with their own scratches).
    pub fn absorb_passes(&mut self, passes: u64) {
        self.passes += passes;
    }

    /// Fold another scratch's product pass count into this one.
    pub fn absorb_product_passes(&mut self, passes: u64) {
        self.product_passes += passes;
    }

    /// Sort `pairs` by `(code, row)` and append every run of ≥ 2 equal codes
    /// as a run descriptor (rows come out ascending because the pairs enter
    /// in ascending row order: the radix path is stable and the comparison
    /// path tie-breaks on `row`, so both yield the same lexicographic order).
    fn emit_u32_runs(&mut self) {
        if self.pairs.len() >= RADIX_MIN_PAIRS {
            self.passes += u64::from(radix::sort_pairs(&mut self.pairs, &mut self.radix));
        } else {
            self.pairs.sort_unstable();
        }
        let pairs = &self.pairs;
        let mut start = 0usize;
        for i in 1..=pairs.len() {
            if i == pairs.len() || pairs[i].0 != pairs[start].0 {
                if i - start >= 2 {
                    let at = self.rows_acc.len() as u32;
                    self.rows_acc
                        .extend(pairs[start..i].iter().map(|&(_, row)| row));
                    self.runs.push((pairs[start].1, at, (i - start) as u32));
                }
                start = i;
            }
        }
    }

    /// [`Self::emit_u32_runs`] over the packed u64 product keys.
    fn emit_u64_runs(&mut self) {
        if self.pairs64.len() >= RADIX_MIN_PAIRS {
            self.product_passes +=
                u64::from(radix::sort_pairs(&mut self.pairs64, &mut self.radix64));
        } else {
            self.pairs64.sort_unstable();
        }
        let pairs = &self.pairs64;
        let mut start = 0usize;
        for i in 1..=pairs.len() {
            if i == pairs.len() || pairs[i].0 != pairs[start].0 {
                if i - start >= 2 {
                    let at = self.rows_acc.len() as u32;
                    self.rows_acc
                        .extend(pairs[start..i].iter().map(|&(_, row)| row));
                    self.runs.push((pairs[start].1, at, (i - start) as u32));
                }
                start = i;
            }
        }
    }

    /// Materialize the accumulated run descriptors into a CSR partition:
    /// runs sorted by first row (first rows are distinct across runs, so the
    /// order is total and deterministic), rows copied out in that order.
    fn finish(&mut self, n_rows: usize) -> StrippedPartition {
        self.runs.sort_unstable_by_key(|&(first, _, _)| first);
        let mut rows = Vec::with_capacity(self.rows_acc.len());
        let mut offsets = Vec::with_capacity(self.runs.len() + 1);
        offsets.push(0u32);
        for &(_, at, len) in &self.runs {
            rows.extend_from_slice(&self.rows_acc[at as usize..(at + len) as usize]);
            offsets.push(rows.len() as u32);
        }
        self.runs.clear();
        self.rows_acc.clear();
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
            StrippedPartition {
                rows: Vec::new(),
                offsets: vec![0],
                n_rows,
            }
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

    /// Build `Π_{{A}}` from an attribute's code column, bucketing through
    /// caller-provided scratch buffers.
    pub fn by_codes_with(codes: &[u32], scratch: &mut RefineScratch) -> Self {
        scratch.pairs.clear();
        scratch
            .pairs
            .extend(codes.iter().enumerate().map(|(row, &c)| (c, row as u32)));
        scratch.emit_u32_runs();
        scratch.finish(codes.len())
    }

    /// Refine by one more attribute's code column: `Π_X · Π_{{A}}` restricted
    /// to the tuples `Π_X` still tracks.  Linear in [`Self::covered_rows`] up
    /// to the per-class sort on `(code, row)` pairs: each class is
    /// bucketed by sorting its `(code, row)` pairs in a reused buffer —
    /// radix passes for large classes, `sort_unstable` for small ones — and
    /// emitting the runs of equal codes, instead of hashing into freshly
    /// allocated per-bucket vectors.  Output is identical on either sort path
    /// (classes in first-member order, members in ascending row order).
    pub fn refine_by_with(&self, codes: &[u32], scratch: &mut RefineScratch) -> Self {
        for class in self.classes() {
            scratch.pairs.clear();
            scratch
                .pairs
                .extend(class.iter().map(|&row| (codes[row as usize], row)));
            scratch.emit_u32_runs();
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

    /// The partition product `self · other` over packed `(class_a, class_b)`
    /// u64 keys: one pass over `self`'s surviving rows collects
    /// `(key, row)` pairs (rows that are singletons in `other` are dropped up
    /// front — they are singletons in the product too), one global stable
    /// radix sort groups them, and runs of ≥ 2 become the product's classes.
    /// No hashing, no `Value` comparisons; radix passes land in
    /// `scratch.product_radix_passes()`.
    pub fn product_with(&self, other: &ClassCodes, scratch: &mut RefineScratch) -> Self {
        self.product_keys(other, scratch);
        scratch.emit_u64_runs();
        scratch.finish(self.n_rows)
    }

    /// Collect the packed product keys of `self · other` into
    /// `scratch.pairs64`.
    fn product_keys(&self, other: &ClassCodes, scratch: &mut RefineScratch) {
        let shift = other.id_bits();
        let ocodes = other.codes();
        scratch.pairs64.clear();
        for (ci, class) in self.classes().enumerate() {
            let hi = (ci as u64) << shift;
            for &row in class {
                let oc = ocodes[row as usize];
                if oc == CLASS_SENTINEL {
                    continue;
                }
                scratch.pairs64.push((hi | u64::from(oc), row));
            }
        }
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
/// `Π_X` is computed once per distinct `X`, by composing the partition of a
/// maximal cached subset (in practice `X` minus its last attribute, which the
/// level-wise lattice has always already visited) — the *incremental partition
/// product* of FASTOD.  Level-1 partitions bucket directly on the attribute's
/// raw code column; deeper levels run the packed-u64 product against the last
/// attribute's [`ClassCodes`], which are memoized per attribute and survive
/// [`Self::evict_sets_of_size`] — eviction drops whole-partition CSR arrays,
/// not the dense columns products keep re-reading.
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

    /// Radix counting passes spent bucketing u32 refinement keys so far
    /// (serial and sharded refinements both accumulate here).
    pub fn radix_passes(&self) -> u64 {
        self.scratch.radix_passes()
    }

    /// Radix counting passes spent sorting packed u64 product keys so far.
    pub fn product_radix_passes(&self) -> u64 {
        self.scratch.product_radix_passes()
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
            None => {
                let codes = self.codes(attr);
                StrippedPartition::by_codes_with(&codes, &mut self.scratch).class_codes()
            }
        };
        let rc = Rc::new(cc);
        self.attr_codes.insert(attr, rc.clone());
        rc
    }

    /// τ_A: every row in order of `attr`'s code, rows ascending within equal
    /// codes (one counting pass over the code column), memoized per attribute
    /// and immune to [`Self::evict_sets_of_size`].
    pub fn attr_order(&mut self, attr: AttrId) -> Rc<Vec<u32>> {
        if let Some(order) = self.attr_orders.get(&attr) {
            return order.clone();
        }
        let enc = self.rel.encoding();
        let col = enc.column(attr.index());
        let order = Rc::new(rows_by_code(col.codes(), col.distinct_count()));
        self.attr_orders.insert(attr, order.clone());
        order
    }

    /// The stripped partition `Π_X` (memoized).
    pub fn partition(&mut self, set: &AttrSet) -> Rc<StrippedPartition> {
        if let Some(p) = self.partitions.get(set) {
            return p.clone();
        }
        let part = match set.last() {
            None => StrippedPartition::full(self.rel.len()),
            Some(last) => {
                // Compose from the partition of X minus its last attribute —
                // under level-wise traversal that subset is already cached,
                // making every product incremental.
                let base = set.without(last);
                let base_part = self.partition(&base);
                if base.is_empty() {
                    // Level 1: bucket the full relation on the raw codes.
                    let codes = self.codes(last);
                    base_part.refine_by_with(&codes, &mut self.scratch)
                } else {
                    // Level ≥ 2: packed-u64 product against the attribute's
                    // class-code column.
                    let other = self.attr_class_codes(last);
                    base_part.product_with(&other, &mut self.scratch)
                }
            }
        };
        let rc = Rc::new(part);
        self.partitions.insert(*set, rc.clone());
        rc
    }

    /// Materialize a whole level's partitions in one pass, sharding the
    /// product work **by context** across up to `threads` threads.
    ///
    /// Each set's base (the set minus its last attribute) is resolved serially
    /// — under level-wise traversal it is already cached, and the `Rc`-handing
    /// cache cannot be touched from workers — then the per-context products
    /// run sharded ([`crate::parallel::refine_batch`]): a product is a pure
    /// function of the base partition and the last attribute's code (or
    /// class-code) column, so the results are bit-identical on every thread
    /// count (and so are the total radix pass counts the workers hand back).
    /// Sets whose base is not cached (possible only outside the lattice's
    /// level discipline) fall back to the serial recursive path.
    pub fn partitions_batch(
        &mut self,
        sets: &[AttrSet],
        threads: usize,
    ) -> Vec<Rc<StrippedPartition>> {
        use crate::parallel::RefineJob;
        // Keep the base `Rc`s alive on this thread; workers see plain `&`s.
        enum Aux {
            Codes(ColCodes),
            Product(Rc<ClassCodes>),
        }
        let mut bases: Vec<Option<(Rc<StrippedPartition>, Aux)>> = Vec::with_capacity(sets.len());
        for set in sets {
            if self.partitions.contains_key(set) {
                bases.push(None);
                continue;
            }
            let base = match set.last() {
                Some(last) if self.partitions.contains_key(&set.without(last)) => {
                    let base_set = set.without(last);
                    let base_part = self.partitions[&base_set].clone();
                    let aux = if base_set.is_empty() {
                        Aux::Codes(self.codes(last))
                    } else {
                        Aux::Product(self.attr_class_codes(last))
                    };
                    Some((base_part, aux))
                }
                _ => None, // cached already handled; uncached base → serial fallback
            };
            if base.is_none() {
                // Serial fallback (also materializes the base for siblings).
                self.partition(set);
            }
            bases.push(base);
        }
        let jobs: Vec<Option<RefineJob<'_>>> = bases
            .iter()
            .map(|o| {
                o.as_ref().map(|(b, aux)| match aux {
                    Aux::Codes(c) => RefineJob::Codes {
                        base: b,
                        codes: &c[..],
                    },
                    Aux::Product(cc) => RefineJob::Product { base: b, other: cc },
                })
            })
            .collect();
        let (fresh, refine_passes, product_passes) = crate::parallel::refine_batch(&jobs, threads);
        self.scratch.absorb_passes(refine_passes);
        self.scratch.absorb_product_passes(product_passes);
        for (set, part) in sets.iter().zip(fresh) {
            if let Some(part) = part {
                self.partitions.insert(*set, Rc::new(part));
            }
        }
        sets.iter()
            .map(|set| self.partitions[set].clone())
            .collect()
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
        // Enough rows to clear RADIX_MIN_PAIRS, few enough distinct values
        // that classes stay large: the full-relation bucketing takes the
        // radix path while tiny per-class refinements take sort_unstable,
        // and both must produce identical partitions.
        let rows: Vec<Vec<i64>> = (0..600i64).map(|i| vec![i % 7, i % 3]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let codes = rel.rank_column(AttrId(0));
        let mut scratch = RefineScratch::default();
        let via_radix = StrippedPartition::by_codes_with(&codes, &mut scratch);
        assert!(
            scratch.radix_passes() > 0,
            "600 pairs must take the radix path"
        );
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
        assert_eq!(cc.id_bits(), 1);
        // Degenerate columns: one class → zero bits, key → zero classes.
        let full = StrippedPartition::full(4).class_codes();
        assert_eq!((full.num_classes(), full.id_bits()), (1, 0));
        let key = StrippedPartition::full(1).class_codes();
        assert_eq!((key.num_classes(), key.id_bits()), (0, 0));
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
            let radix = base.product_with(&cc, &mut scratch);
            // All columns here are duplicate-heavy (no singletons), so the
            // class-code column is total and refinement by the other
            // partition's class ids equals the product.
            let refined = base.refine_by_with(cc.codes(), &mut scratch);
            assert!(cc.codes().iter().all(|&c| c != CLASS_SENTINEL));
            assert_eq!(radix, refined);
        }
        assert!(
            scratch.product_radix_passes() > 0,
            "700-row products must take the radix path"
        );
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
        assert!(
            cache.product_radix_passes() > 0 || cache.radix_passes() > 0,
            "large partitions must exercise a radix path"
        );
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
        let batch = cache.partitions_batch(&[set(&[0]), set(&[0, 1])], 1);
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
