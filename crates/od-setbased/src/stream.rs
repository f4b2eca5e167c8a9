//! Incremental OD monitoring over a changing table: **delta-maintained
//! partitions** and per-statement **verdict ledgers**.
//!
//! The snapshot stack ([`crate::partition`] / [`crate::validate`] /
//! [`crate::lattice`]) rebuilds stripped partitions per relation instance; the
//! paper, however, frames ODs as integrity constraints a DBMS should enforce
//! *continuously*.  This module closes that gap.  The key observation (already
//! load-bearing in [`crate::validate`]'s budget short-circuit) is that
//! per-class `g3` removal counts are **additive and independent across
//! classes**: a tuple insert or delete perturbs exactly one equivalence class
//! per context, so a monitored statement's removal count can be patched by
//! re-deriving only the touched classes instead of rebuilding partitions and
//! re-scanning them.
//!
//! Three pieces cooperate:
//!
//! * **Id-coded columns** — the live table itself, one append-only
//!   dictionary per attribute, seeded from the relation's
//!   [`ColumnarEncoding`](od_core::ColumnarEncoding): the distinct values
//!   ever seen (plus a value-ordered index for lookups), every tuple's
//!   dictionary id, and one gapped `u64` **order code** per distinct value
//!   (spaced [`CODE_GAP`] apart).  A new distinct value takes the midpoint of
//!   its neighbours' codes, or one gap above the greatest code: a value
//!   above the column's maximum, as monotone keys and dates are, is
//!   compared with the maximum directly and searches no index.  When a gap
//!   is exhausted the column renumbers its distinct values — never its
//!   tuples — (counted in [`StreamStats::renumbers`]).  Equality tests
//!   compare ids; only compatibility, which needs an order, reads codes.
//!   There is no row store: [`StreamMonitor::to_relation`] and witnesses
//!   decode through the dictionaries.
//! * [`StreamMonitor`] — owns the columns, an alive bitmap (tuple ids are
//!   stable and never reused), and one live partition per monitored context,
//!   which names each class by a class id found from the context's width,
//!   with no hash below three attributes: the empty context is class 0, a
//!   one-attribute context's class id is the tuple's dictionary id, a
//!   two-attribute context maps both ids packed into a `u64`, and only wider
//!   contexts map the id tuple.  A class of one member holds it inline, so a
//!   singleton costs no allocation, and a longer class boxes its member
//!   list, so empty and one-member slots stay small.  A batch groups each
//!   partition's row events by one sort of `(class, tuple id)` pairs into
//!   runs, in buffers the partition reuses, and ledgers walk those runs in
//!   class order.  Class member lists stay sorted by id for free: fresh ids
//!   only ever grow, and each deleted member is found by binary search.
//!   The gaps close toward whichever end moves fewer ids, so deleting a
//!   class's oldest members only advances the head of its list, and a dead
//!   prefix past a fixed share of the list is drained at once.
//! * [`VerdictLedger`] — per monitored statement, a per-class incremental
//!   state plus the statement's running removal total.  A constancy class
//!   whose members all carry one dictionary id keeps that id and its size,
//!   with no map; the first other id promotes it to a dictionary-id
//!   multiset with an `O(1)`-amortized max-group tracker.  Either way a
//!   touched row costs `O(1)`.  Compatibility classes keep a **multiset of
//!   distinct `(code_A, code_B)` pairs** in `(A, B)` order plus the number
//!   of adjacent pairs whose `B` descends — each such descent is a swap,
//!   and a class without one is swap-free — so a touched row costs
//!   `O(log k)`: one tree walk for a repeated pair, three for a pair's
//!   first arrival or last departure.  A class that still descends gets
//!   its removal count from the `[r − d, r + i]` bound when that pins it,
//!   and from an LIS tails pass over the pairs otherwise.
//!
//! The ledger invariant — checked bit-for-bit against from-scratch
//! recomputation by `tests/stream_differential.rs` — is:
//!
//! ```text
//! ledger.removal_count()  ==  Σ_classes per-class g3 removal of the statement
//!                         ==  validate::statement_verdict(fresh cache, stmt, ∞).removal_count
//! ```
//!
//! Accept/reject against an ε budget needs no re-scan at all: the budget
//! `⌊ε·n⌋` is recomputed from the current alive-row count and compared with
//! the ledger total.

use crate::canonical::{translate_od, SetOd};
use crate::validate::{
    class_compatibility_removal, class_constancy_removal, error_budget, Verdict, WITNESS_SAMPLE_CAP,
};
use od_core::{AttrId, AttrSet, OrderDependency, Relation, Schema, Tuple, Value};
use od_obs::Histogram;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stable identifier of a tuple in a [`StreamMonitor`]'s live table.
///
/// Ids are assigned densely in insertion order and **never reused**: a deleted
/// tuple's id stays dead forever, and re-inserting an identical row yields a
/// fresh id.  This is what lets ledgers and partitions refer to tuples without
/// any re-indexing on delete.  The flip side: dead tuples keep their
/// dictionary ids, so a monitor's memory tracks **lifetime inserts**, not
/// alive rows — long-lived monitors under churn should call
/// [`StreamMonitor::compact`] periodically, and a batch that would overflow
/// the id space is rejected with [`StreamError::IdSpaceExhausted`].
pub type TupleId = u32;

/// Spacing between consecutive order codes after a (re)numbering: a fresh
/// gap admits 32 midpoint insertions between any two neighbours before the
/// column has to renumber.
pub const CODE_GAP: u64 = 1 << 32;

/// A batch of tuple-level changes to apply atomically to a live table.
///
/// Deletes are applied before inserts, so a batch may delete a tuple and
/// insert its replacement in one step.  All-or-nothing: the batch is validated
/// up front and a [`StreamError`] leaves the monitor untouched.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    /// Rows to append (each is assigned a fresh [`TupleId`]).
    pub inserts: Vec<Tuple>,
    /// Ids of live tuples to delete.
    pub deletes: Vec<TupleId>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Add a row to insert (builder style).
    pub fn insert(mut self, row: Tuple) -> Self {
        self.inserts.push(row);
        self
    }

    /// Add a tuple id to delete (builder style).
    pub fn delete(mut self, id: TupleId) -> Self {
        self.deletes.push(id);
        self
    }

    /// Total number of changes in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True if the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Why a [`DeltaBatch`] was rejected (the monitor is left unchanged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An inserted row's arity does not match the schema.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Offending row's arity.
        actual: usize,
    },
    /// A delete names an id that was never assigned.
    UnknownTuple(TupleId),
    /// A delete names an id that is already dead (including a duplicate delete
    /// within the same batch).
    DeadTuple(TupleId),
    /// The batch would push lifetime inserts past the [`TupleId`] space
    /// (ids are never reused); [`StreamMonitor::compact`] reclaims it.
    IdSpaceExhausted,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "insert arity {actual} does not match schema arity {expected}"
                )
            }
            StreamError::UnknownTuple(id) => write!(f, "tuple id {id} was never assigned"),
            StreamError::DeadTuple(id) => write!(f, "tuple id {id} is already deleted"),
            StreamError::IdSpaceExhausted => {
                write!(
                    f,
                    "tuple id space exhausted; compact() the monitor to reclaim dead ids"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// What one [`StreamMonitor::apply_delta`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Ids assigned to the batch's inserted rows, in batch order.
    pub inserted: Vec<TupleId>,
    /// Number of tuples deleted.
    pub deleted: usize,
    /// Distinct (context, class) pairs the delta perturbed across all live
    /// partitions — the unit the maintenance cost is measured in.
    pub touched_classes: usize,
    /// Per-class ledger patches performed (a class touched under one context
    /// is patched once per statement monitored at that context).
    pub recomputed_classes: usize,
}

/// Counters describing a monitor's lifetime maintenance work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Delta batches applied.
    pub deltas_applied: usize,
    /// Rows inserted across all batches.
    pub rows_inserted: usize,
    /// Rows deleted across all batches.
    pub rows_deleted: usize,
    /// Cumulative [`DeltaSummary::touched_classes`].
    pub classes_touched: usize,
    /// Cumulative [`DeltaSummary::recomputed_classes`].
    pub classes_recomputed: usize,
    /// Column renumberings triggered by order-code gap exhaustion.
    pub renumbers: usize,
    /// Rows moved through ledger class patches (delta rows advanced in place,
    /// plus full memberships on rebuild paths).
    pub rows_patched: usize,
    /// Row events applied to compatibility classes' pair multisets (one per
    /// changed row per touched compatibility class advanced in place).
    pub splice_events: usize,
    /// LIS tails passes actually run — only classes that still descend and
    /// whose count the `[r − d, r + i]` bound leaves open pay for one.
    pub lis_invocations: usize,
    /// [`StreamMonitor::compact`] calls performed.
    pub compactions: usize,
}

/// What one [`StreamMonitor::compact`] call reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Dead tuple ids dropped from the id space.
    pub dead_ids_reclaimed: usize,
    /// Approximate bytes released (per [`StreamMonitor::approx_heap_bytes`];
    /// deterministic — lengths, never capacities).
    pub bytes_freed: usize,
    /// Wall-clock time of the rebuild (non-deterministic; kept out of
    /// canonical metrics output).
    pub rebuild: Duration,
}

/// Per-delta ledger patch work, summed across classes and ledgers.
#[derive(Debug, Clone, Copy, Default)]
struct PatchEffort {
    /// Rows moved through class patches.
    rows: usize,
    /// Row events applied to compatibility pair multisets.
    splices: usize,
    /// LIS tails passes run.
    lis: usize,
}

impl PatchEffort {
    fn absorb(&mut self, other: PatchEffort) {
        self.rows += other.rows;
        self.splices += other.splices;
        self.lis += other.lis;
    }
}

/// The hasher of every map and set keyed by a number the monitor assigns
/// itself: class ids, dictionary ids (alone or packed in pairs), tuple ids
/// and multiplicities.  None of them is a value a client sent: ids are dense
/// and numbered in arrival order, so one multiply-fold per word spreads them
/// over the table without the cost of a keyed hash.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    /// An odd multiplier with well-mixed bits (2⁶⁴ / φ).
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(Self::MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// One attribute of the live table: an append-only dictionary with
/// order-preserving, insert-friendly codes (see the module docs).
#[derive(Debug)]
struct Column {
    /// Dictionary id → value.  Ids are assigned in arrival order and never
    /// reused before compaction.
    dict: Vec<Value>,
    /// Value → dictionary id, in value order.
    index: BTreeMap<Value, u32>,
    /// Per-tuple dictionary id (dead tuples keep theirs until compaction).
    ids: Vec<u32>,
    /// Dictionary id → gapped order code:
    /// `order[x] < order[y] ⟺ dict[x] < dict[y]`.
    order: Vec<u64>,
    /// Dictionary id of the greatest value (`None` while the dictionary is
    /// empty).
    top: Option<u32>,
    /// Renumberings performed on this column.
    renumbers: usize,
}

impl Column {
    /// A column from a sorted dictionary and the per-tuple ids into it (the
    /// shape of one [`ColumnarEncoding`](od_core::ColumnarEncoding) column):
    /// order codes spaced [`CODE_GAP`] apart.
    fn from_sorted(dict: Vec<Value>, ids: Vec<u32>) -> Self {
        Column {
            index: dict.iter().cloned().zip(0..).collect(),
            order: (1..=dict.len() as u64).map(|i| i * CODE_GAP).collect(),
            top: dict.len().checked_sub(1).map(|last| last as u32),
            dict,
            ids,
            renumbers: 0,
        }
    }

    /// The dictionary id of `value`, interning it if unseen: its order code
    /// is minted in the gap between its neighbours' codes, and the column
    /// renumbers when that gap is exhausted.
    ///
    /// A value compared equal to or above the greatest one needs no index
    /// search: monotone keys, timestamps and dates grow a table this way,
    /// and each new one costs only its insert, with the code
    /// `top code + CODE_GAP`.  Any other value is found, or else its
    /// successor is, by one walk, and its predecessor by one more.
    fn intern(&mut self, value: &Value) -> u32 {
        let code_of = |(_, &id): (&Value, &u32)| self.order[id as usize];
        let (minted, greatest) = match self.top {
            None => (Some(CODE_GAP), true),
            Some(top) => match value.cmp(&self.dict[top as usize]) {
                Ordering::Equal => return top,
                Ordering::Greater => (self.order[top as usize].checked_add(CODE_GAP), true),
                Ordering::Less => {
                    let hi = match self.index.range(value..).next() {
                        Some((known, &id)) if known == value => return id,
                        above => above.map(code_of).expect("the greatest value lies above"),
                    };
                    // No predecessor: every code is at least 1, so 0 bounds
                    // the gap from below.
                    let lo = self.index.range(..value).next_back().map_or(0, code_of);
                    let mid = lo + (hi - lo) / 2;
                    ((mid > lo).then_some(mid), false)
                }
            },
        };
        let id = self.dict.len() as u32;
        if greatest {
            self.top = Some(id);
        }
        self.dict.push(value.clone());
        self.index.insert(value.clone(), id);
        self.order.push(minted.unwrap_or(0));
        if minted.is_none() {
            self.renumber();
        }
        id
    }

    /// Re-space every order code [`CODE_GAP`] apart, walking distinct values
    /// only.  Order-isomorphic, so per-class removal *counts* computed from
    /// the old codes remain exact — but code magnitudes cached inside
    /// compatibility class states go stale, which their version stamps
    /// detect: a stale state is rebuilt, not advanced, the next time its
    /// class is touched.
    fn renumber(&mut self) {
        self.renumbers += 1;
        for (i, &id) in self.index.values().enumerate() {
            self.order[id as usize] = (i as u64 + 1) * CODE_GAP;
        }
    }

    /// The order code of tuple `t`'s value.
    fn code(&self, t: TupleId) -> u64 {
        self.order[self.ids[t as usize] as usize]
    }

    /// The column restricted to the `survivors` tuples, as a sorted
    /// dictionary of the values they still carry plus their dense ids (the
    /// [`Self::from_sorted`] input).
    fn densified(&self, survivors: &[usize]) -> (Vec<Value>, Vec<u32>) {
        let mut rank = vec![u32::MAX; self.dict.len()];
        for &t in survivors {
            rank[self.ids[t] as usize] = 0;
        }
        let mut dict = Vec::new();
        for (value, &id) in &self.index {
            if rank[id as usize] != u32::MAX {
                rank[id as usize] = dict.len() as u32;
                dict.push(value.clone());
            }
        }
        let ids = survivors
            .iter()
            .map(|&t| rank[self.ids[t] as usize])
            .collect();
        (dict, ids)
    }
}

/// The alive members of one live class, ascending.  A class of one member
/// holds it inline, so a singleton costs no heap allocation.
#[derive(Debug, Default)]
enum Members {
    /// No members: a released class id, or a dictionary id no alive tuple
    /// carries.
    #[default]
    Empty,
    One(TupleId),
    /// Two or more members.  Boxed, so that the empty and one-member slots
    /// that make up most of a one-attribute context's class table stay
    /// small.
    Many(Box<MemberList>),
}

// A one-attribute context keeps one slot per dictionary id ever seen, so a
// slot must stay smaller than a bare member list.
const _: () = assert!(std::mem::size_of::<Members>() < std::mem::size_of::<Vec<TupleId>>());

/// The members of a class of two or more, `list[head..]`.  The slots before
/// `head` are the dead prefix that deletes near the front leave behind
/// instead of shifting every later member (see [`remove_members`]).
#[derive(Debug)]
struct MemberList {
    list: Vec<TupleId>,
    head: usize,
}

impl Members {
    fn as_slice(&self) -> &[TupleId] {
        match self {
            Members::Empty => &[],
            Members::One(t) => std::slice::from_ref(t),
            Members::Many(many) => &many.list[many.head..],
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Drop `removed` (ascending, each a member) and append `added`
    /// (ascending, each above every member: fresh ids only grow).
    fn splice(&mut self, removed: &[TupleId], added: &[TupleId]) {
        if let Members::Many(many) = self {
            let MemberList { list, head } = &mut **many;
            remove_members(list, head, removed);
            list.extend_from_slice(added);
            match list[*head..] {
                [] => *self = Members::Empty,
                [t] => *self = Members::One(t),
                _ => {}
            }
            return;
        }
        debug_assert!(removed.is_empty() || removed == self.as_slice());
        let kept = match *self {
            Members::One(t) if removed.is_empty() => Some(t),
            _ => None,
        };
        *self = match (kept, added) {
            (None, []) => Members::Empty,
            (None, &[t]) | (Some(t), []) => Members::One(t),
            _ => Members::Many(Box::new(MemberList {
                list: kept.into_iter().chain(added.iter().copied()).collect(),
                head: 0,
            })),
        };
    }
}

/// How a live partition names the class of a tuple, by the width of its
/// context.
#[derive(Debug)]
enum ClassKeys {
    /// The empty context: every alive tuple is in class 0.
    Whole,
    /// One attribute: the class id is the tuple's dictionary id.  Dictionary
    /// ids never change meaning (renumbering moves only order codes), so no
    /// map and no free list are needed.
    Dict(AttrId),
    /// Two attributes: the two dictionary ids packed into a `u64` → class id.
    Pair(AttrId, AttrId, IdMap<u64, u32>),
    /// Three or more attributes: the dictionary-id tuple → class id.
    Wide {
        attrs: Vec<AttrId>,
        map: IdMap<Box<[u32]>, u32>,
        /// Reused key buffer, so lookups hash a borrowed `&[u32]`.
        key: Vec<u32>,
    },
}

fn pair_key(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

fn fill_key(key: &mut Vec<u32>, attrs: &[AttrId], t: TupleId, columns: &[Column]) {
    key.clear();
    key.extend(attrs.iter().map(|a| columns[a.index()].ids[t as usize]));
}

/// One class a batch touched: its row events are `rows[start..end]` of its
/// partition, the deleted ids (`start..split`) before the inserted ones.
#[derive(Debug, Clone, Copy)]
struct Run {
    class: u32,
    start: usize,
    split: usize,
    end: usize,
    /// The class's size before and after the batch: ledgers skip classes
    /// that were and stay below two members (nothing to track) without a
    /// hash lookup.
    was_len: usize,
    now_len: usize,
}

/// The live partition of one monitored context: equivalence classes of alive
/// tuple ids (ascending), each named by a class id (see [`ClassKeys`]).
///
/// Unlike [`crate::partition::StrippedPartition`], singleton classes are kept
/// — an insert may grow them — and classes mutate in place instead of being
/// rebuilt by refinement.
#[derive(Debug)]
struct LivePartition {
    keys: ClassKeys,
    /// Class id → alive members.
    classes: Vec<Members>,
    /// Class ids released by emptied classes, reused by later batches (two
    /// or more attributes only).
    free: Vec<u32>,
    /// This batch's row events as `class << 32 | tuple id`, sorted.
    events: Vec<u64>,
    /// The events' tuple ids, in the same order.
    rows: Vec<TupleId>,
    /// This batch's touched classes, in class order.
    runs: Vec<Run>,
}

impl LivePartition {
    /// Group the alive tuples by their context ids (in id order, so member
    /// lists come out ascending).
    fn build(context: &AttrSet, columns: &[Column], alive: &[bool]) -> Self {
        let attrs: Vec<AttrId> = context.iter().collect();
        let keys = match *attrs.as_slice() {
            [] => ClassKeys::Whole,
            [a] => ClassKeys::Dict(a),
            [a, b] => ClassKeys::Pair(a, b, IdMap::default()),
            _ => ClassKeys::Wide {
                attrs,
                map: IdMap::default(),
                key: Vec::new(),
            },
        };
        let mut part = LivePartition {
            keys,
            classes: Vec::new(),
            free: Vec::new(),
            events: Vec::new(),
            rows: Vec::new(),
            runs: Vec::new(),
        };
        part.grow(columns);
        for t in (0..alive.len() as TupleId).filter(|&t| alive[t as usize]) {
            let class = part.class_of(t, columns);
            part.classes[class as usize].splice(&[], &[t]);
        }
        part
    }

    /// Give every class id that needs no key map its slot: the empty
    /// context's one class, or each dictionary id of a one-attribute context.
    fn grow(&mut self, columns: &[Column]) {
        let len = match self.keys {
            ClassKeys::Whole => 1,
            ClassKeys::Dict(a) => columns[a.index()].dict.len(),
            ClassKeys::Pair(..) | ClassKeys::Wide { .. } => return,
        };
        if self.classes.len() < len {
            self.classes.resize_with(len, Members::default);
        }
    }

    /// The class id of tuple `t`'s context key, allocating one (a released
    /// id first) if a map-keyed context meets a new key.
    fn class_of(&mut self, t: TupleId, columns: &[Column]) -> u32 {
        let (classes, free) = (&mut self.classes, &mut self.free);
        let mut fresh = || {
            free.pop().unwrap_or_else(|| {
                classes.push(Members::Empty);
                (classes.len() - 1) as u32
            })
        };
        let id = |a: &AttrId| columns[a.index()].ids[t as usize];
        match &mut self.keys {
            ClassKeys::Whole => 0,
            ClassKeys::Dict(a) => id(a),
            ClassKeys::Pair(a, b, map) => *map.entry(pair_key(id(a), id(b))).or_insert_with(fresh),
            ClassKeys::Wide { attrs, map, key } => {
                fill_key(key, attrs, t, columns);
                if let Some(&class) = map.get(key.as_slice()) {
                    return class;
                }
                let class = fresh();
                map.insert(key.as_slice().into(), class);
                class
            }
        }
    }

    /// Release an emptied class of a map-keyed context; `member` is any
    /// tuple that belonged to it (dead tuples keep their ids, so its key is
    /// still recoverable).
    fn release(&mut self, class: u32, member: TupleId, columns: &[Column]) {
        let id = |a: &AttrId| columns[a.index()].ids[member as usize];
        match &mut self.keys {
            ClassKeys::Whole | ClassKeys::Dict(_) => return,
            ClassKeys::Pair(a, b, map) => {
                map.remove(&pair_key(id(a), id(b)));
            }
            ClassKeys::Wide { attrs, map, key } => {
                fill_key(key, attrs, member, columns);
                map.remove(key.as_slice());
            }
        }
        self.free.push(class);
    }

    /// Apply one batch: group its row events into one run per touched class
    /// with one sort of `(class, tuple id)` pairs, and splice each class's
    /// members.  Every key of the batch is resolved before any emptied class
    /// is released, so a released id is reused by later batches only.
    fn splice(
        &mut self,
        deletes: &[TupleId],
        inserted: Range<TupleId>,
        columns: &[Column],
        sizes: &mut Option<Arc<Histogram>>,
    ) {
        self.grow(columns);
        let events = deletes.len() + inserted.len();
        self.events.clear();
        self.events.reserve(events);
        for t in deletes.iter().copied().chain(inserted.clone()) {
            let class = self.class_of(t, columns);
            self.events.push(u64::from(class) << 32 | u64::from(t));
        }
        self.events.sort_unstable();
        self.rows.clear();
        self.rows.extend(self.events.iter().map(|&e| e as TupleId));
        self.runs.clear();
        self.runs.reserve(events);
        let mut start = 0;
        while start < self.events.len() {
            let class = (self.events[start] >> 32) as u32;
            let end = start
                + self.events[start..]
                    .iter()
                    .take_while(|&&e| (e >> 32) as u32 == class)
                    .count();
            // Deleted ids predate every inserted one.
            let split = start + self.rows[start..end].partition_point(|&t| t < inserted.start);
            let members = &mut self.classes[class as usize];
            let was_len = members.len();
            members.splice(&self.rows[start..split], &self.rows[split..end]);
            let now_len = members.len();
            sizes
                .get_or_insert_with(|| od_obs::recorder().histogram("stream.touched_class_size"))
                .record(now_len as u64);
            if now_len == 0 {
                self.release(class, self.rows[start], columns);
            }
            self.runs.push(Run {
                class,
                start,
                split,
                end,
                was_len,
                now_len,
            });
            start = end;
        }
    }
}

/// A member list drops its dead prefix once that prefix is more than
/// `1 / DEAD_PREFIX_SHARE` of the list.
const DEAD_PREFIX_SHARE: usize = 8;

/// Remove `doomed` (ascending, each a member) from the ascending members
/// `list[*head..]`, closing the gaps toward whichever end moves fewer ids:
/// either the survivors before the last doomed id shift right and `head`
/// advances, or the survivors after the first one shift left.  Each doomed
/// id costs one binary search and each surviving run moves once, so
/// deleting the `k` oldest members moves nothing.  Once the dead prefix
/// passes its share of the list, one `drain` drops it.
fn remove_members(list: &mut Vec<TupleId>, head: &mut usize, doomed: &[TupleId]) {
    let (Some(&first), Some(&last)) = (doomed.first(), doomed.last()) else {
        return;
    };
    let find = |list: &[TupleId], from: usize, to: usize, id: TupleId| {
        let pos = from + list[from..to].partition_point(|&t| t < id);
        debug_assert_eq!(list.get(pos), Some(&id), "deleting a member");
        pos
    };
    let lo = find(list, *head, list.len(), first);
    let hi = find(list, lo, list.len(), last);
    let survivors_before = hi + 1 - *head - doomed.len();
    let survivors_after = list.len() - lo - doomed.len();
    if survivors_before < survivors_after {
        // The runs between `head` and `hi` shift right, the last run first.
        let mut write = hi + 1; // survivors moved so far start here
        let mut end = hi; // the doomed slot that ends the next run
        for &id in doomed[..doomed.len() - 1].iter().rev() {
            let pos = find(list, lo, end, id);
            let run = end - pos - 1;
            list.copy_within(pos + 1..end, write - run);
            write -= run;
            end = pos;
        }
        let run = end - *head;
        list.copy_within(*head..end, write - run);
        *head = write - run;
    } else {
        // The runs after `lo` shift left, as a plain in-place filter.
        let mut write = lo; // where the next survivor goes
        let mut read = lo + 1; // first member not yet kept or dropped
        for &id in &doomed[1..] {
            let pos = find(list, read, hi + 1, id);
            list.copy_within(read..pos, write);
            write += pos - read;
            read = pos + 1;
        }
        let kept = list.len() - read;
        list.copy_within(read.., write);
        list.truncate(write + kept);
    }
    if *head * DEAD_PREFIX_SHARE > list.len() {
        list.drain(..*head);
        *head = 0;
    }
}

/// The ids a batch removed from and added to one class.
#[derive(Debug, Clone, Copy)]
struct ClassDelta<'a> {
    removed: &'a [TupleId],
    added: &'a [TupleId],
}

/// A `(code_A, code_B)` pair of a compatibility class.
type CodePair = (u64, u64);

/// Incrementally maintained per-class evidence for one ledger.
#[derive(Debug)]
enum ClassState {
    /// Constancy `𝒞 : [] ↦ A` on a class whose members all carry the one
    /// `A` dictionary id `id`: the statement holds on it, so `removal = 0`,
    /// and a row event costs one id comparison with no map.  The first
    /// added row that carries another id promotes the class to
    /// [`ClassState::Constancy`], carrying `size`.
    /// [`VerdictLedger::build_state`] picks this form whenever it applies,
    /// so compaction's rebuild returns a class that holds again to it.  Ids
    /// never change meaning, so the state never goes stale.
    SingleId { id: u32, size: usize },
    /// Constancy `𝒞 : [] ↦ A` on a class that has carried two ids since its
    /// state was built: a multiset of the class's `A` dictionary ids with an
    /// `O(1)`-amortized max-group tracker.  `removal = size − max_count`.
    /// Ids never change meaning, so the state never goes stale.
    Constancy {
        /// dictionary id → multiplicity.
        counts: IdMap<u32, usize>,
        /// multiplicity → number of ids at that multiplicity.
        freq: IdMap<usize, usize>,
        max_count: usize,
        size: usize,
    },
    /// Compatibility `𝒞 : A ~ B`: the class as a multiset of distinct
    /// `(code_A, code_B)` pairs (pair → multiplicity) in `(A, B)` order, plus
    /// `descents`, the number of adjacent pairs `(a₁, b₁) < (a₂, b₂)` with
    /// `b₁ > b₂`.  Equal `A` codes sort by `B`, so a descent has `a₁ < a₂`
    /// and is itself a swap; with no descent the `B` sequence is
    /// non-decreasing and the class is swap-free.  A row event changes only
    /// the descents between its pair and that pair's two neighbours, so it
    /// costs `O(log k)`.
    ///
    /// `removal` is `k − LNDS` of the `B` sequence.  One insert raises the
    /// LNDS by at most one and one delete lowers it by at most one, so after
    /// `i` inserts and `d` deletes the count lies in `[r − d, r + i]`, and a
    /// class that still descends needs at least one removal: the LIS pass
    /// runs only when `max(1, r − d) < r + i`.
    ///
    /// `version` is the two columns' renumber counters at build time: cached
    /// code **magnitudes** go stale when a column renumbers (the cached
    /// *count* stays exact, renumbering being order-isomorphic), so a stale
    /// state is rebuilt instead of advanced the next time its class is
    /// touched.
    Compatibility {
        pairs: BTreeMap<CodePair, u32>,
        descents: usize,
        removal: usize,
        version: usize,
    },
}

/// 1 if `lo → hi` (adjacent pairs, `lo` first) descends in `B`, else 0.
fn descent(lo: Option<CodePair>, hi: Option<CodePair>) -> usize {
    matches!((lo, hi), (Some((_, b1)), Some((_, b2))) if b1 > b2) as usize
}

/// The distinct pair just below `key`.
fn predecessor(pairs: &BTreeMap<CodePair, u32>, key: CodePair) -> Option<CodePair> {
    pairs.range(..key).next_back().map(|(&k, _)| k)
}

/// Add one row's pair; a new distinct pair splits the boundary between its
/// neighbours into two.  One walk finds the pair, or else its successor; a
/// new pair costs one more for its predecessor, and its insert.
fn pair_add(pairs: &mut BTreeMap<CodePair, u32>, descents: &mut usize, key: CodePair) {
    let above = match pairs.range_mut(key..).next() {
        Some((&k, count)) if k == key => {
            *count += 1;
            return;
        }
        above => above.map(|(&k, _)| k),
    };
    let below = predecessor(pairs, key);
    *descents =
        *descents + descent(below, Some(key)) + descent(Some(key), above) - descent(below, above);
    pairs.insert(key, 1);
}

/// Remove one row's pair; dropping its last copy joins its neighbours.  One
/// walk finds the pair and its successor; a last copy costs one more for
/// its predecessor, and its removal.
fn pair_remove(pairs: &mut BTreeMap<CodePair, u32>, descents: &mut usize, key: CodePair) {
    let mut from = pairs.range_mut(key..);
    let (&found, count) = from.next().expect("removing a tracked pair");
    assert_eq!(found, key, "removing a tracked pair");
    if *count > 1 {
        *count -= 1;
        return;
    }
    let above = from.next().map(|(&k, _)| k);
    let below = predecessor(pairs, key);
    pairs.remove(&key);
    *descents =
        *descents + descent(below, above) - descent(below, Some(key)) - descent(Some(key), above);
}

/// `k − LNDS` of a class's `B` sequence, by the LIS tails pass over its
/// pairs in `(A, B)` order.  A pair of multiplicity `c` fills `c`
/// consecutive tails slots, which is what `c` equal `B` values in a row do
/// in a pass over single rows.
fn lis_removal(pairs: &BTreeMap<CodePair, u32>) -> usize {
    let mut tails: Vec<u64> = Vec::new();
    let mut size = 0usize;
    for (&(_, b), &count) in pairs {
        let count = count as usize;
        size += count;
        let pos = tails.partition_point(|&t| t <= b);
        let end = pos + count;
        if end > tails.len() {
            tails.resize(end, b);
        }
        tails[pos..end].fill(b);
    }
    size - tails.len()
}

impl ClassState {
    fn removal(&self) -> usize {
        match self {
            ClassState::SingleId { .. } => 0,
            ClassState::Constancy {
                max_count, size, ..
            } => size - max_count,
            ClassState::Compatibility { removal, .. } => *removal,
        }
    }

    fn is_fresh(&self, current: usize) -> bool {
        match self {
            ClassState::SingleId { .. } | ClassState::Constancy { .. } => true,
            ClassState::Compatibility { version, .. } => *version == current,
        }
    }

    fn constancy_add(
        counts: &mut IdMap<u32, usize>,
        freq: &mut IdMap<usize, usize>,
        max_count: &mut usize,
        id: u32,
    ) {
        let entry = counts.entry(id).or_insert(0);
        if *entry > 0 {
            dec_freq(freq, *entry);
        }
        *entry += 1;
        *freq.entry(*entry).or_insert(0) += 1;
        *max_count = (*max_count).max(*entry);
    }

    fn constancy_remove(
        counts: &mut IdMap<u32, usize>,
        freq: &mut IdMap<usize, usize>,
        max_count: &mut usize,
        id: u32,
    ) {
        let entry = counts.get_mut(&id).expect("removing a tracked id");
        let old = *entry;
        dec_freq(freq, old);
        if old > 1 {
            *entry = old - 1;
            *freq.entry(old - 1).or_insert(0) += 1;
        } else {
            counts.remove(&id);
        }
        // One multiplicity dropped by exactly one: the max can fall by at most
        // one, and does so iff no other id still sits at the old max.
        if old == *max_count && freq.get(&old).copied().unwrap_or(0) == 0 {
            *max_count = old - 1;
        }
    }

    /// Advance a constancy state by one delta of `A` dictionary ids
    /// (`ids` is the `A` column), in place.
    fn advance_constancy(&mut self, ids: &[u32], mut delta: ClassDelta) {
        if let ClassState::SingleId { id, size } = *self {
            // Every member carries `id`, the removed ones too; a class the
            // removals emptied takes the first added row's id.
            let size = size - delta.removed.len();
            let id = match delta.added.first() {
                Some(&row) if size == 0 => ids[row as usize],
                _ => id,
            };
            let same = delta
                .added
                .iter()
                .take_while(|&&row| ids[row as usize] == id)
                .count();
            let size = size + same;
            if same == delta.added.len() {
                *self = ClassState::SingleId { id, size };
                return;
            }
            // The first other id: promote to the multiset, whose one group
            // is the whole class so far.
            *self = ClassState::Constancy {
                counts: [(id, size)].into_iter().collect(),
                freq: [(size, 1)].into_iter().collect(),
                max_count: size,
                size,
            };
            delta = ClassDelta {
                removed: &[],
                added: &delta.added[same..],
            };
        }
        let ClassState::Constancy {
            counts,
            freq,
            max_count,
            size,
        } = self
        else {
            unreachable!("a constancy ledger holds constancy states");
        };
        for &row in delta.removed {
            ClassState::constancy_remove(counts, freq, max_count, ids[row as usize]);
            *size -= 1;
        }
        for &row in delta.added {
            ClassState::constancy_add(counts, freq, max_count, ids[row as usize]);
            *size += 1;
        }
    }

    /// Advance this state by one delta, in place, reporting the work done.
    fn advance(&mut self, stmt: &SetOd, delta: ClassDelta, columns: &[Column]) -> PatchEffort {
        match (self, stmt) {
            (state, SetOd::Constancy { attr, .. }) => {
                state.advance_constancy(&columns[attr.index()].ids, delta);
                PatchEffort {
                    rows: delta.removed.len() + delta.added.len(),
                    splices: 0,
                    lis: 0,
                }
            }
            (
                ClassState::Compatibility {
                    pairs,
                    descents,
                    removal,
                    ..
                },
                SetOd::Compatibility { a, b, .. },
            ) => {
                let (ca, cb) = (&columns[a.index()], &columns[b.index()]);
                // A dead row keeps its ids, so its pair is still exact.
                for &row in delta.removed {
                    pair_remove(pairs, descents, (ca.code(row), cb.code(row)));
                }
                for &row in delta.added {
                    pair_add(pairs, descents, (ca.code(row), cb.code(row)));
                }
                let lis_ran = if *descents == 0 {
                    *removal = 0;
                    false
                } else {
                    let low = removal.saturating_sub(delta.removed.len()).max(1);
                    let high = *removal + delta.added.len();
                    debug_assert!(low <= high, "the bounds always admit the count");
                    *removal = if low == high { low } else { lis_removal(pairs) };
                    low != high
                };
                let splices = delta.added.len() + delta.removed.len();
                PatchEffort {
                    rows: splices,
                    splices,
                    lis: lis_ran as usize,
                }
            }
            _ => unreachable!("a ledger's states always match its statement kind"),
        }
    }
}

fn dec_freq(freq: &mut IdMap<usize, usize>, multiplicity: usize) {
    if let Some(f) = freq.get_mut(&multiplicity) {
        *f -= 1;
        if *f == 0 {
            freq.remove(&multiplicity);
        }
    }
}

/// The delta-maintained verdict of one monitored canonical statement:
/// incremental per-class states plus the statement's exact running removal
/// total.
#[derive(Debug)]
pub struct VerdictLedger {
    stmt: SetOd,
    /// Index of the statement's context partition in the monitor
    /// (`None` for trivially-true statements, which track nothing).
    partition: Option<usize>,
    /// Per-class incremental evidence, by class id (only classes of size ≥ 2
    /// are tracked — smaller ones cannot violate anything).
    classes: IdMap<u32, ClassState>,
    total: usize,
}

impl VerdictLedger {
    /// The monitored statement.
    pub fn statement(&self) -> &SetOd {
        &self.stmt
    }

    /// The statement's exact `g3` removal count on the current live table.
    pub fn removal_count(&self) -> usize {
        self.total
    }

    /// Number of classes currently violating the statement.
    pub fn violating_classes(&self) -> usize {
        self.classes.values().filter(|s| s.removal() > 0).count()
    }

    /// The `g3` error against a row count (0 on empty tables).
    pub fn g3(&self, n_rows: usize) -> f64 {
        if n_rows == 0 {
            0.0
        } else {
            self.total as f64 / n_rows as f64
        }
    }

    /// Does the statement hold after removing at most `budget` tuples?
    /// Ledger totals are always exact, so the decision needs no re-scan.
    pub fn within(&self, budget: usize) -> bool {
        self.total <= budget
    }

    /// The freshness stamp compatibility states are compared against: the
    /// two columns' combined renumber counter (constancy states never go
    /// stale).
    fn code_version(&self, columns: &[Column]) -> usize {
        match &self.stmt {
            SetOd::Constancy { .. } => 0,
            SetOd::Compatibility { a, b, .. } => {
                columns[a.index()].renumbers + columns[b.index()].renumbers
            }
        }
    }

    /// Patch one touched class.  `class` is the class's current membership
    /// (short or empty when it shrank away), read only to build a state;
    /// `delta` lists the ids the batch moved in or out.  Returns the patch
    /// work performed.
    fn patch_class(
        &mut self,
        run: &Run,
        class: &Members,
        delta: ClassDelta,
        columns: &[Column],
    ) -> PatchEffort {
        let class_id = run.class;
        if run.now_len < 2 {
            // Singletons and emptied classes cannot violate; drop any state.
            if let Some(old) = self.classes.remove(&class_id) {
                self.total -= old.removal();
            }
            return PatchEffort::default();
        }
        let current = self.code_version(columns);
        // Common case: the state exists and is fresh — advance it in place.
        let stmt = &self.stmt;
        if let Some(state) = self.classes.get_mut(&class_id) {
            if state.is_fresh(current) {
                let old_removal = state.removal();
                let effort = state.advance(stmt, delta, columns);
                let new_removal = state.removal();
                self.total = self.total - old_removal + new_removal;
                return effort;
            }
        }
        // First touch of this class, or cached magnitudes went stale after a
        // renumbering: build from the full membership.
        let (fresh, effort) = self.build_state(class.as_slice(), columns);
        let new_removal = fresh.removal();
        let old_removal = self
            .classes
            .insert(class_id, fresh)
            .map_or(0, |s| s.removal());
        self.total = self.total - old_removal + new_removal;
        effort
    }

    /// Build a class's state from scratch (the one place a compatibility
    /// class's pairs are sorted), reporting the full-membership work it cost.
    fn build_state(&self, class: &[TupleId], columns: &[Column]) -> (ClassState, PatchEffort) {
        let mut effort = PatchEffort {
            rows: class.len(),
            splices: 0,
            lis: 0,
        };
        let state = match &self.stmt {
            SetOd::Constancy { attr, .. } => {
                // An empty single-id state takes the first member's id, and
                // stays single-id unless another id follows.
                let mut state = ClassState::SingleId { id: 0, size: 0 };
                let members = ClassDelta {
                    removed: &[],
                    added: class,
                };
                state.advance_constancy(&columns[attr.index()].ids, members);
                state
            }
            SetOd::Compatibility { a, b, .. } => {
                let (ca, cb) = (&columns[a.index()], &columns[b.index()]);
                let mut codes: Vec<CodePair> = class
                    .iter()
                    .map(|&row| (ca.code(row), cb.code(row)))
                    .collect();
                codes.sort_unstable();
                let mut counted: Vec<(CodePair, u32)> = Vec::new();
                let mut descents = 0;
                for key in codes {
                    match counted.last_mut() {
                        Some((last, count)) if *last == key => *count += 1,
                        last => {
                            descents += descent(last.map(|&mut (k, _)| k), Some(key));
                            counted.push((key, 1));
                        }
                    }
                }
                let pairs: BTreeMap<CodePair, u32> = counted.into_iter().collect();
                let removal = if descents == 0 {
                    0
                } else {
                    effort.lis = 1;
                    lis_removal(&pairs)
                };
                ClassState::Compatibility {
                    pairs,
                    descents,
                    removal,
                    version: self.code_version(columns),
                }
            }
        };
        (state, effort)
    }

    /// Apply every class this batch touched in the ledger's partition, in
    /// class order.  Returns the number of class patches performed and the
    /// work they cost.
    fn patch(&mut self, partition: &LivePartition, columns: &[Column]) -> (usize, PatchEffort) {
        let mut patches = 0;
        let mut effort = PatchEffort::default();
        for run in &partition.runs {
            if run.was_len < 2 && run.now_len < 2 {
                continue; // never tracked, still nothing to track
            }
            patches += 1;
            let delta = ClassDelta {
                removed: &partition.rows[run.start..run.split],
                added: &partition.rows[run.split..run.end],
            };
            effort.absorb(self.patch_class(
                run,
                &partition.classes[run.class as usize],
                delta,
                columns,
            ));
        }
        (patches, effort)
    }
}

/// Owns a live table and keeps monitored statements' verdicts current under
/// [`DeltaBatch`]es — the streaming counterpart of a fresh
/// [`statement_verdict`](crate::validate::statement_verdict) scan.
///
/// See the module docs for the data-structure walkthrough.  Typical use:
///
/// ```
/// use od_core::{fixtures, OrderDependency, Value};
/// use od_setbased::stream::{DeltaBatch, StreamMonitor};
///
/// let rel = fixtures::example_5_taxes();
/// let s = rel.schema();
/// let income = s.attr_by_name("income").unwrap();
/// let bracket = s.attr_by_name("bracket").unwrap();
///
/// let mut monitor = StreamMonitor::new(&rel);
/// let od = OrderDependency::new(vec![income], vec![bracket]);
/// monitor.monitor_od(&od);
/// assert_eq!(monitor.od_removal(&od), Some(0));
///
/// // A row with a wildly wrong bracket: the OD now needs one removal.
/// let mut bad = rel.tuple(0);
/// bad[bracket.index()] = Value::Int(99);
/// let summary = monitor
///     .apply_delta(&DeltaBatch::new().insert(bad))
///     .unwrap();
/// assert_eq!(monitor.od_removal(&od), Some(1));
///
/// // Deleting the offender restores the OD — O(log k) per changed row each time.
/// let fix = DeltaBatch::new().delete(summary.inserted[0]);
/// monitor.apply_delta(&fix).unwrap();
/// assert_eq!(monitor.od_removal(&od), Some(0));
/// ```
pub struct StreamMonitor {
    schema: Schema,
    /// The live table: one id-coded column per attribute.
    columns: Vec<Column>,
    alive: Vec<bool>,
    alive_count: usize,
    partitions: Vec<LivePartition>,
    partition_index: HashMap<AttrSet, usize>,
    ledgers: Vec<VerdictLedger>,
    ledger_index: HashMap<SetOd, usize>,
    /// Lifetime maintenance counters.
    pub stats: StreamStats,
}

impl StreamMonitor {
    /// A monitor seeded with a snapshot of `rel`: its columns start as copies
    /// of the relation's dictionary encoding, and the monitor evolves
    /// independently of the source relation.
    pub fn new(rel: &Relation) -> Self {
        let enc = rel.encoding();
        let columns = (0..enc.arity())
            .map(|c| Column::from_sorted(enc.dict(c).to_vec(), enc.codes(c).to_vec()))
            .collect();
        Self::from_columns(rel.schema().clone(), columns, rel.len())
    }

    /// A monitor over `n_rows` alive tuples stored in `columns`, with nothing
    /// monitored yet.
    fn from_columns(schema: Schema, columns: Vec<Column>, n_rows: usize) -> Self {
        StreamMonitor {
            schema,
            columns,
            alive: vec![true; n_rows],
            alive_count: n_rows,
            partitions: Vec::new(),
            partition_index: HashMap::new(),
            ledgers: Vec::new(),
            ledger_index: HashMap::new(),
            stats: StreamStats::default(),
        }
    }

    /// The live table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of alive rows.
    pub fn alive_rows(&self) -> usize {
        self.alive_count
    }

    /// Total ids ever assigned (alive + dead).
    pub fn total_rows(&self) -> usize {
        self.alive.len()
    }

    /// Is the id assigned and alive?
    pub fn is_alive(&self, id: TupleId) -> bool {
        self.alive.get(id as usize).copied().unwrap_or(false)
    }

    /// The tuple-removal budget `⌊ε·n⌋` for the **current** alive-row count —
    /// unlike a snapshot profile's fixed budget, this moves as the table
    /// grows and shrinks.
    pub fn error_budget(&self, epsilon: f64) -> usize {
        error_budget(self.alive_count, epsilon)
    }

    /// Decode the alive rows into a fresh [`Relation`] (id order).  Used by
    /// the differential tests as the from-scratch oracle input, and by
    /// callers that want to hand the live state back to the snapshot stack.
    pub fn to_relation(&self) -> Relation {
        let rows = (0..self.alive.len()).filter(|&t| self.alive[t]).map(|t| {
            self.columns
                .iter()
                .map(|c| c.dict[c.ids[t] as usize].clone())
                .collect()
        });
        Relation::from_rows(self.schema.clone(), rows)
            .expect("live rows match the schema by construction")
    }

    /// The monitored statements' ledgers, in monitoring order.
    pub fn ledgers(&self) -> &[VerdictLedger] {
        &self.ledgers
    }

    /// Start monitoring one canonical statement (idempotent).  Builds the
    /// context's live partition and the statement's initial ledger with one
    /// full scan; every later [`Self::apply_delta`] keeps it current
    /// incrementally.  Returns the ledger index.
    pub fn monitor_statement(&mut self, stmt: &SetOd) -> usize {
        let stmt = stmt.normalized().unwrap_or(*stmt);
        if let Some(&idx) = self.ledger_index.get(&stmt) {
            return idx;
        }
        let mut ledger = VerdictLedger {
            stmt,
            partition: None,
            classes: IdMap::default(),
            total: 0,
        };
        if !stmt.is_trivial() {
            let pidx = self.ensure_partition(stmt.context());
            ledger.partition = Some(pidx);
            // Initial scan: build incremental state per class of size ≥ 2.
            for (class_id, members) in self.partitions[pidx].classes.iter().enumerate() {
                let class = members.as_slice();
                if class.len() >= 2 {
                    let (state, _) = ledger.build_state(class, &self.columns);
                    ledger.total += state.removal();
                    ledger.classes.insert(class_id as u32, state);
                }
            }
        }
        let idx = self.ledgers.len();
        self.ledgers.push(ledger);
        self.ledger_index.insert(stmt, idx);
        idx
    }

    /// Monitor every canonical statement of a list OD (see
    /// [`translate_od`]); returns the statements, which together determine the
    /// OD's verdict via [`Self::od_removal`].
    pub fn monitor_od(&mut self, od: &OrderDependency) -> Vec<SetOd> {
        let stmts = translate_od(od);
        for stmt in &stmts {
            self.monitor_statement(stmt);
        }
        stmts
    }

    /// The exact removal count of a monitored statement (`None` if the
    /// statement is not monitored).
    pub fn statement_removal(&self, stmt: &SetOd) -> Option<usize> {
        let normalized = stmt.normalized();
        let key = normalized.as_ref().unwrap_or(stmt);
        self.ledger_index
            .get(key)
            .map(|&idx| self.ledgers[idx].total)
    }

    /// A [`Verdict`] view of a monitored statement's ledger, with violating
    /// row pairs re-sampled on demand from the currently violating classes
    /// (the sample is bounded by [`WITNESS_SAMPLE_CAP`] and its order is not
    /// deterministic).  `exceeded` is always false — ledger totals are exact.
    /// Nothing is scanned to produce this view, so `classes_scanned` reports
    /// the number of currently **violating** classes backing the count
    /// (`0` for a clean statement), not a scan cost as in the snapshot path.
    pub fn statement_verdict(&self, stmt: &SetOd) -> Option<Verdict> {
        let normalized = stmt.normalized();
        let key = normalized.as_ref().unwrap_or(stmt);
        let &idx = self.ledger_index.get(key)?;
        let ledger = &self.ledgers[idx];
        let mut verdict = Verdict {
            removal_count: ledger.total,
            exceeded: false,
            violating_pairs: Vec::new(),
            classes_scanned: ledger.violating_classes(),
        };
        if let Some(pidx) = ledger.partition {
            for (&class_id, state) in &ledger.classes {
                if state.removal() == 0 || verdict.violating_pairs.len() >= WITNESS_SAMPLE_CAP {
                    continue;
                }
                let class = self.partitions[pidx].classes[class_id as usize].as_slice();
                self.witnesses_for(&ledger.stmt, class, &mut verdict.violating_pairs);
            }
        }
        Some(verdict)
    }

    /// The OD-level removal count: the worst canonical statement's ledger
    /// total (the same acceptance measure list discovery applies to a
    /// candidate's statements).
    /// `None` if any of the OD's statements is not monitored.
    pub fn od_removal(&self, od: &OrderDependency) -> Option<usize> {
        translate_od(od)
            .iter()
            .map(|stmt| self.statement_removal(stmt))
            .try_fold(0usize, |worst, removal| Some(worst.max(removal?)))
    }

    /// Does a monitored OD hold within the ε budget on the current table?
    pub fn od_within(&self, od: &OrderDependency, epsilon: f64) -> Option<bool> {
        let budget = self.error_budget(epsilon);
        self.od_removal(od).map(|removal| removal <= budget)
    }

    /// Apply one batch: deletes, then inserts, then a ledger patch per
    /// (statement, touched class).  All-or-nothing — a [`StreamError`] leaves
    /// every structure unchanged.  See the module docs for the cost model.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaSummary, StreamError> {
        // Validate up front so failures cannot leave partial state behind.
        if self.alive.len() + batch.inserts.len() > TupleId::MAX as usize {
            return Err(StreamError::IdSpaceExhausted);
        }
        for row in &batch.inserts {
            if row.len() != self.schema.arity() {
                return Err(StreamError::ArityMismatch {
                    expected: self.schema.arity(),
                    actual: row.len(),
                });
            }
        }
        let mut doomed: IdSet<TupleId> =
            IdSet::with_capacity_and_hasher(batch.deletes.len(), Default::default());
        for &id in &batch.deletes {
            if (id as usize) >= self.alive.len() {
                return Err(StreamError::UnknownTuple(id));
            }
            if !self.alive[id as usize] || !doomed.insert(id) {
                return Err(StreamError::DeadTuple(id));
            }
        }

        // All mutation happens under stream/batch spans; the batch is valid by
        // now, so the spans never cover a rejected (no-op) delta.
        let _span_stream = od_obs::span("stream");
        let _span_batch = od_obs::span("batch");

        // Phase 1: the table.  (If a column renumbers here, cached
        // compatibility magnitudes go stale; their version stamps make every
        // later patch rebuild instead of advance.)
        for &id in &batch.deletes {
            self.alive[id as usize] = false;
            self.alive_count -= 1;
        }
        let renumbers_before: usize = self.columns.iter().map(|c| c.renumbers).sum();
        let first = self.alive.len() as TupleId;
        // At most one reallocation per vector, whatever the batch size.
        for column in &mut self.columns {
            column.ids.reserve(batch.inserts.len());
        }
        self.alive.reserve(batch.inserts.len());
        for row in &batch.inserts {
            for (column, value) in self.columns.iter_mut().zip(row) {
                let id = column.intern(value);
                column.ids.push(id);
            }
            self.alive.push(true);
        }
        self.alive_count += batch.inserts.len();
        let inserted = first..self.alive.len() as TupleId;

        // Phase 2: per partition, group the delta into runs by class and
        // splice the class member lists: binary-searched deletes, appended
        // inserts.
        let splice_span = od_obs::span("splice");
        let columns = &self.columns;
        let mut sizes = None;
        for partition in &mut self.partitions {
            partition.splice(&batch.deletes, inserted.clone(), columns, &mut sizes);
        }
        drop(splice_span);

        // Phase 3: patch every ledger's touched classes.
        let patch_span = od_obs::span("patch");
        let mut recomputed = 0usize;
        let mut effort = PatchEffort::default();
        for ledger in &mut self.ledgers {
            let Some(pidx) = ledger.partition else {
                continue; // trivial statement: nothing can perturb it
            };
            let (patches, spent) = ledger.patch(&self.partitions[pidx], columns);
            recomputed += patches;
            effort.absorb(spent);
        }
        drop(patch_span);

        let summary = DeltaSummary {
            inserted: inserted.collect(),
            deleted: batch.deletes.len(),
            touched_classes: self.partitions.iter().map(|p| p.runs.len()).sum(),
            recomputed_classes: recomputed,
        };
        self.stats.deltas_applied += 1;
        self.stats.rows_inserted += summary.inserted.len();
        self.stats.rows_deleted += summary.deleted;
        self.stats.classes_touched += summary.touched_classes;
        self.stats.classes_recomputed += summary.recomputed_classes;
        self.stats.renumbers +=
            self.columns.iter().map(|c| c.renumbers).sum::<usize>() - renumbers_before;
        self.stats.rows_patched += effort.rows;
        self.stats.splice_events += effort.splices;
        self.stats.lis_invocations += effort.lis;
        od_obs::add("stream.deltas_applied", 1);
        od_obs::add("stream.rows_inserted", summary.inserted.len() as u64);
        od_obs::add("stream.rows_deleted", summary.deleted as u64);
        od_obs::add("stream.classes_touched", summary.touched_classes as u64);
        od_obs::add(
            "stream.classes_recomputed",
            summary.recomputed_classes as u64,
        );
        od_obs::add("stream.rows_patched", effort.rows as u64);
        od_obs::add("stream.splice_events", effort.splices as u64);
        od_obs::add("stream.lis_invocations", effort.lis as u64);
        Ok(summary)
    }

    /// Rebuild the monitor from its alive rows, dropping every dead tuple,
    /// its dictionary ids, and distinct values only dead rows carried.
    ///
    /// Ids are never reused, so a long-lived monitor under steady churn
    /// retains memory proportional to **lifetime inserts**, not alive rows;
    /// compaction trades one re-scan per monitored statement (the same cost
    /// as initial monitoring) for a reset id space and working set.  Each
    /// column is re-densified in value order into the constructor
    /// [`Self::new`] uses.  All previously returned [`TupleId`]s are
    /// invalidated — alive tuples are renumbered densely in id order.
    /// Lifetime [`StreamStats`] are kept.
    ///
    /// Returns what the call reclaimed; only its `rebuild` duration is
    /// wall-clock (and hence non-deterministic) — the id and byte counts diff
    /// clean across runs.
    pub fn compact(&mut self) -> CompactStats {
        let _span = od_obs::span("stream/compact");
        let start = Instant::now();
        let bytes_before = self.approx_heap_bytes();
        let dead_ids_reclaimed = self.alive.len() - self.alive_count;
        let survivors: Vec<usize> = (0..self.alive.len()).filter(|&t| self.alive[t]).collect();
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let (dict, ids) = c.densified(&survivors);
                Column::from_sorted(dict, ids)
            })
            .collect();
        let stmts: Vec<SetOd> = self.ledgers.iter().map(|l| l.stmt).collect();
        let stats = self.stats;
        *self = StreamMonitor::from_columns(self.schema.clone(), columns, survivors.len());
        self.stats = stats;
        for stmt in &stmts {
            self.monitor_statement(stmt);
        }
        self.stats.compactions += 1;
        let compact = CompactStats {
            dead_ids_reclaimed,
            bytes_freed: bytes_before.saturating_sub(self.approx_heap_bytes()),
            rebuild: start.elapsed(),
        };
        od_obs::add("stream.compact.runs", 1);
        od_obs::add(
            "stream.compact.dead_ids_reclaimed",
            compact.dead_ids_reclaimed as u64,
        );
        od_obs::add("stream.compact.bytes_freed", compact.bytes_freed as u64);
        compact
    }

    /// Approximate bytes held by the live table and its partitions: per
    /// column, each distinct value (held by the dictionary and its index)
    /// with its id and order code, plus one id per tuple (dead tuples
    /// included — they are what compaction reclaims); the alive bitmap; and
    /// per live class its members and its key: none for the empty and
    /// one-attribute contexts, which need no key map, a `u64` and a class
    /// id for a two-attribute context, and the id tuple and a class id for a
    /// wider one.  Deterministic for logically equal monitors — lengths,
    /// never capacities — so compaction metrics built on it diff clean
    /// across runs.  Ledger class states are excluded: their size depends on
    /// touch history, not on logical content.
    pub fn approx_heap_bytes(&self) -> usize {
        const ID: usize = std::mem::size_of::<u32>();
        const CODE: usize = std::mem::size_of::<u64>();
        let columns: usize = self
            .columns
            .iter()
            .map(|c| {
                c.dict
                    .iter()
                    .map(|v| 2 * v.approx_bytes() + 2 * ID + CODE)
                    .sum::<usize>()
                    + c.ids.len() * ID
            })
            .sum();
        let partitions: usize = self
            .partitions
            .iter()
            .map(|p| {
                let keys = match &p.keys {
                    ClassKeys::Whole | ClassKeys::Dict(_) => 0,
                    ClassKeys::Pair(_, _, map) => map.len() * (CODE + ID),
                    ClassKeys::Wide { attrs, map, .. } => map.len() * (attrs.len() + 1) * ID,
                };
                keys + p.classes.iter().map(|c| c.len() * ID).sum::<usize>()
            })
            .sum();
        columns + self.alive.len() + partitions
    }

    /// Append witness pairs for one violating class (up to the shared cap).
    fn witnesses_for(&self, stmt: &SetOd, class: &[u32], witnesses: &mut Vec<(u32, u32)>) {
        match stmt {
            SetOd::Constancy { attr, .. } => {
                // Constancy only tests equality, which dictionary ids decide.
                class_constancy_removal(class, &self.columns[attr.index()].ids, witnesses);
            }
            SetOd::Compatibility { a, b, .. } => {
                // The validator indexes codes by row: hand it the class's own
                // order codes under local row numbers, then map back.
                let (ca, cb) = (&self.columns[a.index()], &self.columns[b.index()]);
                let codes_a: Vec<u64> = class.iter().map(|&t| ca.code(t)).collect();
                let codes_b: Vec<u64> = class.iter().map(|&t| cb.code(t)).collect();
                let local: Vec<u32> = (0..class.len() as u32).collect();
                let start = witnesses.len();
                class_compatibility_removal(&local, &codes_a, &codes_b, witnesses);
                for pair in &mut witnesses[start..] {
                    *pair = (class[pair.0 as usize], class[pair.1 as usize]);
                }
            }
        }
    }

    fn ensure_partition(&mut self, context: &AttrSet) -> usize {
        if let Some(&idx) = self.partition_index.get(context) {
            return idx;
        }
        let idx = self.partitions.len();
        self.partitions
            .push(LivePartition::build(context, &self.columns, &self.alive));
        self.partition_index.insert(*context, idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionCache;
    use crate::validate;
    use od_core::fixtures;

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

    /// Oracle: the statement's exact removal count recomputed from scratch on
    /// the monitor's alive rows.
    fn oracle_removal(monitor: &StreamMonitor, stmt: &SetOd) -> usize {
        let rel = monitor.to_relation();
        let mut cache = PartitionCache::new(&rel);
        validate::statement_verdict(&mut cache, stmt, 1, usize::MAX).removal_count
    }

    fn assert_ledgers_match_oracle(monitor: &StreamMonitor, stmts: &[SetOd]) {
        for stmt in stmts {
            assert_eq!(
                monitor.statement_removal(stmt),
                Some(oracle_removal(monitor, stmt)),
                "ledger drifted from from-scratch recomputation on {stmt}"
            );
        }
    }

    #[test]
    fn ledger_tracks_inserts_and_deletes() {
        let rel = fixtures::example_5_taxes();
        let s = rel.schema().clone();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let od = OrderDependency::new(vec![income], vec![bracket]);
        let mut monitor = StreamMonitor::new(&rel);
        let stmts = monitor.monitor_od(&od);
        assert_eq!(monitor.od_removal(&od), Some(0));

        // Insert a swap: high income, absurdly low bracket.
        let mut bad = rel.tuple(0);
        bad[income.index()] = Value::Int(9_999_999);
        bad[bracket.index()] = Value::Int(-5);
        let summary = monitor.apply_delta(&DeltaBatch::new().insert(bad)).unwrap();
        assert!(monitor.od_removal(&od).unwrap() > 0);
        assert_ledgers_match_oracle(&monitor, &stmts);

        // Deleting the offender heals the OD.
        monitor
            .apply_delta(&DeltaBatch::new().delete(summary.inserted[0]))
            .unwrap();
        assert_eq!(monitor.od_removal(&od), Some(0));
        assert_ledgers_match_oracle(&monitor, &stmts);
        assert_eq!(monitor.alive_rows(), rel.len());
        assert_eq!(monitor.stats.deltas_applied, 2);
    }

    #[test]
    fn delete_then_reinsert_same_tuple_round_trips() {
        let rel = rel_from(&[&[1, 10], &[1, 10], &[2, 20], &[3, 30]]);
        let mut monitor = StreamMonitor::new(&rel);
        let od = OrderDependency::new(vec![AttrId(0)], vec![AttrId(1)]);
        let stmts = monitor.monitor_od(&od);

        // Delete row 0 and re-insert an identical row in ONE batch: the class
        // {0, 1} shrinks to a singleton and regrows with the fresh id.
        let summary = monitor
            .apply_delta(&DeltaBatch::new().delete(0).insert(rel.tuple(0)))
            .unwrap();
        assert!(!monitor.is_alive(0), "old id stays dead");
        assert!(monitor.is_alive(summary.inserted[0]));
        assert_eq!(monitor.alive_rows(), rel.len());
        assert_ledgers_match_oracle(&monitor, &stmts);

        // The same round trip across two batches.
        monitor
            .apply_delta(&DeltaBatch::new().delete(summary.inserted[0]))
            .unwrap();
        assert_ledgers_match_oracle(&monitor, &stmts);
        monitor
            .apply_delta(&DeltaBatch::new().insert(rel.tuple(0)))
            .unwrap();
        assert_eq!(monitor.od_removal(&od), Some(0));
        assert_ledgers_match_oracle(&monitor, &stmts);
    }

    #[test]
    fn delta_that_empties_a_class_retires_its_contribution() {
        // One context class {0, 1} violating constancy; deleting both members
        // must drop the class and its ledger entry entirely.
        let rel = rel_from(&[&[7, 1], &[7, 2], &[8, 3]]);
        let mut monitor = StreamMonitor::new(&rel);
        let context: AttrSet = [AttrId(0)].into_iter().collect();
        let stmt = SetOd::constancy(context, AttrId(1));
        monitor.monitor_statement(&stmt);
        assert_eq!(monitor.statement_removal(&stmt), Some(1));
        assert_eq!(monitor.ledgers()[0].violating_classes(), 1);

        monitor
            .apply_delta(&DeltaBatch::new().delete(0).delete(1))
            .unwrap();
        assert_eq!(monitor.statement_removal(&stmt), Some(0));
        assert_eq!(monitor.ledgers()[0].violating_classes(), 0);
        assert_eq!(monitor.alive_rows(), 1);
        assert_eq!(oracle_removal(&monitor, &stmt), 0);
    }

    #[test]
    fn all_null_insert_batch_is_handled() {
        let rel = rel_from(&[&[1, 1], &[2, 2]]);
        let mut monitor = StreamMonitor::new(&rel);
        let od = OrderDependency::new(vec![AttrId(0)], vec![AttrId(1)]);
        let stmts = monitor.monitor_od(&od);

        // NULLs sort first and form their own value group; three all-NULL rows
        // agree on everything, so the OD keeps holding...
        let nulls = vec![Value::Null, Value::Null];
        let batch = DeltaBatch {
            inserts: vec![nulls.clone(), nulls.clone(), nulls.clone()],
            deletes: vec![],
        };
        monitor.apply_delta(&batch).unwrap();
        assert_eq!(monitor.od_removal(&od), Some(0));
        assert_ledgers_match_oracle(&monitor, &stmts);

        // ...until a row agrees with them on the LHS but not the RHS.
        monitor
            .apply_delta(&DeltaBatch::new().insert(vec![Value::Null, Value::Int(5)]))
            .unwrap();
        assert!(monitor.od_removal(&od).unwrap() > 0);
        assert_ledgers_match_oracle(&monitor, &stmts);
    }

    #[test]
    fn bad_batches_are_rejected_atomically() {
        let rel = rel_from(&[&[1, 1], &[2, 2]]);
        let mut monitor = StreamMonitor::new(&rel);
        monitor.monitor_od(&OrderDependency::new(vec![AttrId(0)], vec![AttrId(1)]));

        let wrong_arity = DeltaBatch::new().insert(vec![Value::Int(1)]);
        assert_eq!(
            monitor.apply_delta(&wrong_arity),
            Err(StreamError::ArityMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(
            monitor.apply_delta(&DeltaBatch::new().delete(99)),
            Err(StreamError::UnknownTuple(99))
        );
        assert_eq!(
            monitor.apply_delta(&DeltaBatch::new().delete(0).delete(0)),
            Err(StreamError::DeadTuple(0))
        );
        // A rejected batch leaves no trace.
        assert_eq!(monitor.alive_rows(), 2);
        assert_eq!(monitor.stats.deltas_applied, 0);
        assert!(monitor.is_alive(0));
    }

    #[test]
    fn stream_codes_mint_midpoints_and_renumber_on_exhaustion() {
        let mut column =
            Column::from_sorted(vec![Value::Float(0.0), Value::Float(1.0)], vec![0, 1]);
        assert_eq!(column.dict.len(), 2);
        let (id0, id1) = (
            column.intern(&Value::Float(0.0)),
            column.intern(&Value::Float(1.0)),
        );
        assert_eq!((id0, id1), (0, 1), "known values keep their ids");
        assert!(column.order[0] < column.order[1]);

        // Repeated bisection between two neighbours exhausts the gap after
        // ~log2(CODE_GAP) inserts, forcing at least one renumbering; order
        // must be preserved throughout, and ids never change meaning.
        let mut lo = 0.0f64;
        let hi = 1.0f64;
        for _ in 0..80 {
            lo = lo + (hi - lo) / 2.0;
            let id = column.intern(&Value::Float(lo));
            column.ids.push(id);
        }
        assert!(column.renumbers >= 1, "bisection must trigger renumbering");
        assert_eq!(column.dict.len(), column.index.len());
        for (value, &id) in &column.index {
            assert_eq!(&column.dict[id as usize], value, "ids decode");
        }
        let codes: Vec<u64> = column
            .index
            .values()
            .map(|&id| column.order[id as usize])
            .collect();
        for pair in codes.windows(2) {
            assert!(pair[0] < pair[1], "codes must stay order-preserving");
        }
    }

    #[test]
    fn intern_finds_known_values_and_mints_codes_beside_their_neighbours() {
        let mut column = Column::from_sorted(vec![Value::Int(10), Value::Int(20)], vec![0, 1]);
        assert_eq!(column.top, Some(1));
        // Repeated values keep their ids, the greatest one and an equal
        // value of another type included.
        assert_eq!(column.intern(&Value::Int(10)), 0);
        assert_eq!(column.intern(&Value::Int(20)), 1);
        assert_eq!(column.intern(&Value::Float(20.0)), 1);

        // Above the maximum: one gap above the greatest code, and the new top.
        assert_eq!(column.intern(&Value::Int(30)), 2);
        assert_eq!(column.order[2], column.order[1] + CODE_GAP);
        assert_eq!(column.top, Some(2));
        assert_eq!(column.intern(&Value::Int(30)), 2);

        // Below the minimum: half the least code.  Between two neighbours:
        // their midpoint.  Neither moves the top.
        assert_eq!(column.intern(&Value::Int(5)), 3);
        assert_eq!(column.order[3], column.order[0] / 2);
        assert_eq!(column.intern(&Value::Int(15)), 4);
        assert_eq!(column.order[4], (column.order[0] + column.order[1]) / 2);
        assert_eq!(column.top, Some(2));
        assert_eq!(
            (
                column.intern(&Value::Int(5)),
                column.intern(&Value::Int(15))
            ),
            (3, 4)
        );

        // A greatest code with no gap above it renumbers the column.
        column.order[2] = u64::MAX - 1;
        assert_eq!(column.intern(&Value::Int(40)), 5);
        assert_eq!(column.renumbers, 1);
        assert_eq!(column.top, Some(5));
        let codes: Vec<u64> = column
            .index
            .values()
            .map(|&id| column.order[id as usize])
            .collect();
        assert_eq!(codes, (1..=6).map(|i| i * CODE_GAP).collect::<Vec<_>>());
        for (value, &id) in &column.index {
            assert_eq!(&column.dict[id as usize], value, "ids decode");
        }

        // An empty column mints its first code at one gap.
        let mut empty = Column::from_sorted(Vec::new(), Vec::new());
        assert_eq!(empty.top, None);
        assert_eq!(empty.intern(&Value::Null), 0);
        assert_eq!((empty.order[0], empty.top), (CODE_GAP, Some(0)));
    }

    #[test]
    fn remove_members_matches_a_filter_and_bounds_the_dead_prefix() {
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        let (mut rightward, mut leftward, mut drains) = (0, 0, 0);
        for case in 0..2_000 {
            let mut list: Vec<TupleId> = (0..2 + below(60) as TupleId).map(|t| 3 * t).collect();
            let mut head = 0;
            // Rounds on one list, so that dead prefixes build up.
            for round in 0..5 {
                let live = list[head..].to_vec();
                if live.is_empty() {
                    break;
                }
                let k = 1 + below(live.len());
                let doomed: Vec<TupleId> = match below(4) {
                    0 => live[..k].to_vec(),
                    1 => live[live.len() - k..].to_vec(),
                    2 => {
                        let start = below(live.len() - k + 1);
                        live[start..start + k].to_vec()
                    }
                    _ => live.iter().copied().filter(|_| below(3) == 0).collect(),
                };
                let mut expected = live.clone();
                expected.retain(|t| !doomed.contains(t));
                let (was_head, was_len) = (head, list.len());
                remove_members(&mut list, &mut head, &doomed);
                assert_eq!(list[head..], expected, "case {case}, round {round}");
                assert!(
                    head * DEAD_PREFIX_SHARE <= list.len(),
                    "dead prefix {head} of {} outgrew its share",
                    list.len()
                );
                if head > was_head {
                    rightward += 1;
                } else if head == was_head && list.len() == was_len - doomed.len() {
                    leftward += (!doomed.is_empty()) as usize;
                } else {
                    assert_eq!((head, list.len()), (0, expected.len()), "a drain");
                    drains += 1;
                }
            }
        }
        assert!(
            rightward > 0 && leftward > 0 && drains > 0,
            "shifts right {rightward}, left {leftward}, drains {drains}"
        );
    }

    #[test]
    fn deleting_the_oldest_members_only_advances_the_head() {
        let mut members = Members::default();
        let ids: Vec<TupleId> = (0..100).collect();
        members.splice(&[], &ids);
        members.splice(&ids[..5], &[100, 101]);
        let Members::Many(many) = &members else {
            panic!("a class of many members keeps a list");
        };
        assert_eq!((many.head, many.list.len()), (5, 102), "no member moved");
        assert_eq!(members.as_slice(), (5..102).collect::<Vec<_>>());
        // Past its share of the list, the dead prefix is drained.
        members.splice(&ids[5..20], &[]);
        let Members::Many(many) = &members else {
            panic!("a class of many members keeps a list");
        };
        assert_eq!((many.head, many.list.len()), (0, 82));
        assert_eq!(members.as_slice(), (20..102).collect::<Vec<_>>());
    }

    /// The constancy states of `monitor`'s first ledger, by class id.
    fn constancy_states(monitor: &StreamMonitor) -> Vec<(u32, &ClassState)> {
        let mut states: Vec<(u32, &ClassState)> = monitor.ledgers[0]
            .classes
            .iter()
            .map(|(&class, state)| (class, state))
            .collect();
        states.sort_by_key(|&(class, _)| class);
        states
    }

    #[test]
    fn single_id_classes_promote_on_a_second_id_and_return_after_compaction() {
        let rel = rel_from(&[&[0, 7], &[0, 7], &[1, 8], &[1, 8]]);
        let stmt = SetOd::constancy([AttrId(0)].into_iter().collect(), AttrId(1));
        let mut monitor = StreamMonitor::new(&rel);
        monitor.monitor_statement(&stmt);
        let single = |id: u32, size: usize| move |state: &ClassState| matches!(*state, ClassState::SingleId { id: i, size: s } if (i, s) == (id, size));
        let states = constancy_states(&monitor);
        assert_eq!(states.len(), 2);
        assert!(single(0, 2)(states[0].1) && single(1, 2)(states[1].1));

        // A second id in class 0 promotes it, carrying its size.
        let offender = monitor
            .apply_delta(&DeltaBatch::new().insert(vec![Value::Int(0), Value::Int(9)]))
            .unwrap()
            .inserted[0];
        assert_eq!(monitor.statement_removal(&stmt), Some(1));
        let states = constancy_states(&monitor);
        assert!(matches!(
            states[0].1,
            ClassState::Constancy {
                size: 3,
                max_count: 2,
                ..
            }
        ));
        assert!(single(1, 2)(states[1].1));

        // Healed, the class keeps its multiset; class 1, emptied and refilled
        // in one batch, takes the new rows' id and stays single-id.
        monitor
            .apply_delta(
                &DeltaBatch::new()
                    .delete(offender)
                    .delete(2)
                    .delete(3)
                    .insert(vec![Value::Int(1), Value::Int(9)])
                    .insert(vec![Value::Int(1), Value::Int(9)]),
            )
            .unwrap();
        assert_ledgers_match_oracle(&monitor, &[stmt]);
        let states = constancy_states(&monitor);
        assert!(matches!(
            states[0].1,
            ClassState::Constancy {
                size: 2,
                max_count: 2,
                ..
            }
        ));
        let nine = monitor.columns[1].index[&Value::Int(9)];
        assert!(single(nine, 2)(states[1].1));

        // Compaction rebuilds every class, and a holding one is single-id.
        monitor.compact();
        assert_ledgers_match_oracle(&monitor, &[stmt]);
        let nine = monitor.columns[1].index[&Value::Int(9)];
        let seven = monitor.columns[1].index[&Value::Int(7)];
        let states = constancy_states(&monitor);
        assert!(single(seven, 2)(states[0].1) && single(nine, 2)(states[1].1));
    }

    #[test]
    fn renumbering_mid_stream_keeps_ledgers_exact() {
        // Float bisection on a monitored column forces renumbering while a
        // compatibility ledger holds cached magnitudes; the rebuild path must
        // keep the counts exact.
        let mut schema = Schema::new("t");
        schema.add_attr("a");
        schema.add_attr("b");
        let rel = Relation::from_rows(
            schema,
            vec![
                vec![Value::Float(0.0), Value::Float(0.0)],
                vec![Value::Float(1.0), Value::Float(1.0)],
            ],
        )
        .unwrap();
        let mut monitor = StreamMonitor::new(&rel);
        let od = OrderDependency::new(vec![AttrId(0)], vec![AttrId(1)]);
        let stmts = monitor.monitor_od(&od);

        let mut lo = 0.0f64;
        for _ in 0..80 {
            lo = lo + (1.0 - lo) / 2.0;
            monitor
                .apply_delta(
                    &DeltaBatch::new().insert(vec![Value::Float(lo), Value::Float(1.0 - lo)]),
                )
                .unwrap();
            assert_ledgers_match_oracle(&monitor, &stmts);
        }
        assert!(
            monitor.stats.renumbers >= 1,
            "the workload must exercise renumbering"
        );
    }

    #[test]
    fn statement_verdict_resamples_witnesses() {
        let rel = rel_from(&[&[0, 0], &[0, 1], &[0, 2]]);
        let mut monitor = StreamMonitor::new(&rel);
        let stmt = SetOd::constancy(AttrSet::new(), AttrId(1));
        monitor.monitor_statement(&stmt);
        let verdict = monitor.statement_verdict(&stmt).unwrap();
        assert_eq!(verdict.removal_count, 2);
        assert!(!verdict.exceeded);
        assert!(!verdict.violating_pairs.is_empty());
        // Unmonitored statements have no ledger.
        assert_eq!(
            monitor.statement_verdict(&SetOd::constancy(AttrSet::new(), AttrId(0))),
            None
        );
        // Trivial statements are monitored at zero cost and never violated.
        let ctx: AttrSet = [AttrId(1)].into_iter().collect();
        let trivial = SetOd::constancy(ctx, AttrId(1));
        monitor.monitor_statement(&trivial);
        assert_eq!(monitor.statement_removal(&trivial), Some(0));
    }

    #[test]
    fn compatibility_witnesses_name_live_tuples() {
        // After deleting tuple 0 the class is [1, 2]: the swap witness must
        // come back as tuple ids, not positions within the class.
        let rel = rel_from(&[&[0, 0], &[1, 1], &[2, 0]]);
        let mut monitor = StreamMonitor::new(&rel);
        let stmt = SetOd::compatibility(AttrSet::new(), AttrId(0), AttrId(1));
        monitor.monitor_statement(&stmt);
        monitor.apply_delta(&DeltaBatch::new().delete(0)).unwrap();
        let verdict = monitor.statement_verdict(&stmt).unwrap();
        assert_eq!(verdict.removal_count, 1);
        assert_eq!(verdict.violating_pairs, vec![(1, 2)]);
    }

    #[test]
    fn one_attribute_classes_are_dictionary_ids_and_keyed_classes_recycle() {
        // Replacing a row with a fresh key each batch empties one class and
        // opens another in every context.
        let rel = rel_from(&[&[0, 0, 0, 0], &[1, 1, 1, 1]]);
        let mut monitor = StreamMonitor::new(&rel);
        let stmts: Vec<SetOd> = (1..=3)
            .map(|width| SetOd::constancy((0..width).map(AttrId).collect(), AttrId(3)))
            .collect();
        for stmt in &stmts {
            monitor.monitor_statement(stmt);
        }
        let mut victim = 0;
        for i in 2..50 {
            let summary = monitor
                .apply_delta(
                    &DeltaBatch::new()
                        .delete(victim)
                        .insert(vec![Value::Int(i); 4]),
                )
                .unwrap();
            victim = summary.inserted[0];
        }
        assert_ledgers_match_oracle(&monitor, &stmts);

        // One attribute: the class id is the dictionary id, with one slot per
        // distinct value ever seen and no key map.
        let column = &monitor.columns[0];
        let partition = &monitor.partitions[0];
        assert!(matches!(partition.keys, ClassKeys::Dict(AttrId(0))));
        assert_eq!(partition.classes.len(), column.dict.len());
        for t in (0..monitor.total_rows() as TupleId).filter(|&t| monitor.is_alive(t)) {
            let class = &partition.classes[column.ids[t as usize] as usize];
            assert_eq!(class.as_slice(), [t]);
        }

        // Two and three attributes: released class ids are reused, so each
        // partition stays as large as its live classes.
        let ClassKeys::Pair(_, _, pairs) = &monitor.partitions[1].keys else {
            panic!("a two-attribute context keys its classes by id pairs");
        };
        let ClassKeys::Wide { attrs, map, .. } = &monitor.partitions[2].keys else {
            panic!("a three-attribute context keys its classes by id tuples");
        };
        assert_eq!((pairs.len(), attrs.len(), map.len()), (2, 3, 2));
        for partition in &monitor.partitions[1..] {
            assert!(partition.classes.len() <= 3, "class ids are recycled");
        }
    }

    #[test]
    fn monitoring_is_idempotent_and_normalizing() {
        let rel = rel_from(&[&[0, 1], &[1, 0]]);
        let mut monitor = StreamMonitor::new(&rel);
        let canonical = SetOd::compatibility(AttrSet::new(), AttrId(0), AttrId(1));
        let misordered = SetOd::Compatibility {
            context: AttrSet::new(),
            a: AttrId(1),
            b: AttrId(0),
        };
        let first = monitor.monitor_statement(&canonical);
        let second = monitor.monitor_statement(&misordered);
        assert_eq!(first, second, "misordered pair shares the ledger");
        assert_eq!(monitor.ledgers().len(), 1);
        assert_eq!(monitor.statement_removal(&misordered), Some(1));
    }

    #[test]
    fn compaction_drops_dead_state_and_keeps_verdicts() {
        let rel = rel_from(&[&[1, 10], &[1, 11], &[2, 20], &[3, 30]]);
        let mut monitor = StreamMonitor::new(&rel);
        let od = OrderDependency::new(vec![AttrId(0)], vec![AttrId(1)]);
        let stmts = monitor.monitor_od(&od);
        let before = monitor.od_removal(&od).unwrap();
        assert_eq!(before, 1, "rows 0 and 1 split on c1");

        // Churn: delete two rows, insert replacements, then compact.
        monitor
            .apply_delta(&DeltaBatch::new().delete(2).delete(3).insert(rel.tuple(2)))
            .unwrap();
        assert_eq!(
            monitor.total_rows(),
            5,
            "dead ids retained before compaction"
        );
        let deltas_before = monitor.stats.deltas_applied;
        let watched: Vec<SetOd> = monitor.ledgers().iter().map(|l| *l.statement()).collect();
        let compacted = monitor.compact();
        let rewatched: Vec<SetOd> = monitor.ledgers().iter().map(|l| *l.statement()).collect();
        assert_eq!(rewatched, watched, "ledger indices survive compaction");
        assert_eq!(compacted.dead_ids_reclaimed, 2);
        assert!(compacted.bytes_freed > 0, "dead rows must free bytes");
        assert_eq!(monitor.total_rows(), monitor.alive_rows());
        // Value 30 was carried only by a dead row: its dictionary entry is
        // gone, and the survivors' ids are dense in value order again.
        let c1 = &monitor.columns[1];
        assert_eq!(c1.dict, [10, 11, 20].map(Value::Int));
        assert_eq!(c1.ids, [0, 1, 2]);
        assert_eq!(monitor.alive_rows(), 3);
        assert_eq!(monitor.stats.deltas_applied, deltas_before, "stats survive");
        assert_eq!(monitor.stats.compactions, 1);
        // Verdicts are unchanged and maintenance keeps working on fresh ids.
        assert_eq!(monitor.od_removal(&od), Some(before));
        assert_ledgers_match_oracle(&monitor, &stmts);
        monitor
            .apply_delta(&DeltaBatch::new().delete(0).insert(rel.tuple(3)))
            .unwrap();
        assert_ledgers_match_oracle(&monitor, &stmts);
    }

    #[test]
    fn descents_match_a_recount_after_every_pair_event() {
        // At most six rows over a 4×4 grid of pairs: keys appear and vanish
        // all the time, often between two neighbours that descend.
        let mut pairs = BTreeMap::new();
        let mut descents = 0;
        let mut rows: Vec<CodePair> = Vec::new();
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for step in 0..2_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if rows.len() < 6 && (rows.is_empty() || rng.is_multiple_of(2)) {
                let key = ((rng >> 8) % 4, (rng >> 16) % 4);
                pair_add(&mut pairs, &mut descents, key);
                rows.push(key);
            } else {
                let key = rows.swap_remove((rng >> 24) as usize % rows.len());
                pair_remove(&mut pairs, &mut descents, key);
            }
            let keys: Vec<&CodePair> = pairs.keys().collect();
            let recount = keys.windows(2).filter(|w| w[0].1 > w[1].1).count();
            assert_eq!(descents, recount, "descent count drifted at step {step}");
        }
    }

    #[test]
    fn single_offender_is_counted_without_an_lis_pass() {
        // One clean 10k-row class whose pairs repeat four times each.
        let rows: Vec<Vec<i64>> = (0..10_000i64).map(|i| vec![i / 4, i / 4]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let stmt = SetOd::compatibility(AttrSet::new(), AttrId(0), AttrId(1));
        let mut monitor = StreamMonitor::new(&rel_from(&refs));
        monitor.monitor_statement(&stmt);
        assert_eq!(monitor.statement_removal(&stmt), Some(0));

        // One row that swaps with every other: the bounds pin the count at 1.
        let lis_before = monitor.stats.lis_invocations;
        let summary = monitor
            .apply_delta(&DeltaBatch::new().insert(vec![Value::Int(5_000), Value::Int(-1)]))
            .unwrap();
        assert_eq!(monitor.statement_removal(&stmt), Some(1));
        assert_eq!(monitor.stats.lis_invocations, lis_before);

        monitor
            .apply_delta(&DeltaBatch::new().delete(summary.inserted[0]))
            .unwrap();
        assert_eq!(monitor.statement_removal(&stmt), Some(0));

        // Two rows that swap only with each other: the bounds leave [1, 2]
        // open, so the LIS pass (weighted by pair multiplicity) decides.
        let pair = DeltaBatch::new()
            .insert(vec![Value::Int(5_000), Value::Int(5_001)])
            .insert(vec![Value::Int(5_001), Value::Int(5_000)]);
        monitor.apply_delta(&pair).unwrap();
        assert_eq!(monitor.stats.lis_invocations, lis_before + 1);
        assert_eq!(monitor.statement_removal(&stmt), Some(1));
        assert_ledgers_match_oracle(&monitor, &[stmt]);
    }

    /// The benchmark's per-layer stream metrics read these counter and span
    /// names; a renamed hook would silently zero them.
    #[test]
    fn batch_and_compact_metrics_are_pinned() {
        let rel = od_workload::generate_taxes(500, 7);
        let mut monitor = StreamMonitor::new(&rel);
        for od in od_workload::tax::tax_ods(rel.schema()) {
            monitor.monitor_od(&od);
        }
        let mut outlier = rel.tuple(3);
        outlier[1] = Value::Int(999_999);
        let batch = DeltaBatch {
            inserts: (100..120).map(|i| rel.tuple(i)).chain([outlier]).collect(),
            deletes: (0..20).collect(),
        };
        let registry = std::sync::Arc::new(od_obs::Registry::new());
        od_obs::scoped(std::sync::Arc::clone(&registry), || {
            monitor.apply_delta(&batch).unwrap();
            monitor.compact();
        });
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters[name];
        assert_eq!(
            [
                counter("stream.rows_patched"),
                counter("stream.classes_touched"),
                counter("stream.splice_events"),
                counter("stream.lis_invocations"),
                counter("stream.compact.bytes_freed"),
            ],
            [162, 42, 82, 1, 4052]
        );
        let spans: Vec<&str> = snap.durations.keys().map(String::as_str).collect();
        assert_eq!(
            spans,
            [
                "stream",
                "stream/batch",
                "stream/batch/patch",
                "stream/batch/splice",
                "stream/compact"
            ]
        );
    }
}
