//! Node-based lattice engine: level-wise discovery of all valid canonical
//! statements with **bitset candidate-set propagation**.
//!
//! Earlier revisions walked the context lattice generate-then-check: every
//! `(|U| choose k)` context was materialized and every candidate statement was
//! resolved by set-membership probes against the full set of confirmed
//! statements — which is why the traversal used to be pinned at context width
//! 2.  This engine follows the TANE/FASTOD design instead: the lattice is an
//! explicit store of **nodes**, one per surviving context, and each node
//! carries the *candidate sets* that are still worth asking about:
//!
//! * the **constancy candidates** — an [`AttrSet`] bit mask of attributes `A`
//!   for which `𝒞 : [] ↦ A` did not hold at any parent context, and
//! * the **compatibility candidates** — a `PairSet` (one partner mask per
//!   attribute) of pairs `{A, B}` for which `𝒞 : A ~ B` did not hold at (and
//!   was not subsumed away at) any parent.
//!
//! A node's candidate sets are the **intersection of its parents'** surviving
//! sets: a statement confirmed at some context holds at every superset context
//! (context monotonicity), so the moment a candidate is confirmed it is
//! removed from its node and — by intersection — from every descendant.  With
//! candidate sets on bit masks, that intersection is a single `&` per word and
//! subsumption a compare-and-mask; subsumed candidates are never enumerated
//! and never allocate a [`SetOd`] at all.  Contexts themselves, the node-store
//! index and the partition-cache keys are the same `u64` masks, so moving a
//! context through the lattice never touches the heap.  Four further
//! mechanisms keep deep levels tractable:
//!
//! 1. **Key-based node deletion** — a context whose stripped partition is
//!    empty is a superkey: no two tuples agree on it, so every candidate above
//!    it holds trivially.  The node's surviving constancies are confirmed with
//!    clean verdicts, its pairs are subsumed by them (rule 2 below), and the
//!    node is deleted *before expansion*: none of its `2^(|U|−k)` ancestors is
//!    ever generated.
//! 2. **Context-sharded level expansion** — a level's partitions are
//!    materialized in one pass sharded *by context*
//!    ([`PartitionCache::partitions_batch`]): every context's partition is
//!    its cheapest cached parent partition split by the dropped attribute's
//!    codes, the parent chosen serially, so the products are computed on
//!    worker threads and are bit-identical on every thread count.
//! 3. **Batched per-level validation** — all of a level's surviving candidates
//!    are scanned in one sharded pass
//!    ([`parallel::validate_statement_batch`]), statements claimed from an
//!    atomic cursor, each scanned serially so verdicts are bit-identical on
//!    every thread count.
//! 4. **Per-level partition eviction** — level `k` partitions are refinement
//!    bases only for level `k + 1`, so they are evicted as soon as level
//!    `k + 1` is materialized ([`PartitionCache::evict_sets_of_size`]); a
//!    width-4 run never holds every level-3 product alive.
//!    [`LatticeStats::peak_cached_partitions`] records the high-water mark.
//!
//! Two same-context rules complete the pruning: **constancy subsumes
//! compatibility** (rule 2: if `𝒞 : [] ↦ A` holds, `A` never swaps against
//! anything in `𝒞`'s classes), and the optional **implication decider**
//! (rule 3: the exact [`od_infer::DeciderBatch`] over everything confirmed so
//! far, which catches non-subset consequences such as FD transitivity).
//! Decider queries are issued in **one batched round-trip per level**, not per
//! candidate: a [`DeciderBatch`] snapshots the premises once at level start
//! (counted in [`LatticeStats::decider_rounds`]), its premise set is appended
//! to — never re-snapshotted — as the replay confirms statements, and every
//! counterexample found by a search is reused to refute later queries
//! search-free.  With a non-zero error threshold `ε`, candidates are accepted
//! when their `g3` removal count stays within `⌊ε·n⌋`; propagation and rule 2
//! remain sound (they rest on a single premise and statement satisfaction is
//! monotone under context growth and tuple removal), but rule 3 combines
//! *many* premises — whose removal sets may differ — so the decider is only
//! consulted in exact mode.
//!
//! The decider is consulted in the traversal's canonical sequential order
//! (contexts in enumeration order, constancies before pairs), so its pruning
//! decisions are identical to a statement-at-a-time traversal; the batched
//! scans merely *pre-compute* verdicts (a level-start decider pre-filter skips
//! scans for candidates already implied — sound because implication is
//! monotone in the premise set).

use crate::canonical::SetOd;
use crate::dist::{DistError, DistPlane, WorkerLauncher};
use crate::parallel::{self, StatementJob};
use crate::partition::{ColCodes, PartitionCache, StrippedPartition};
use crate::validate::{self, Verdict};
use od_core::{AttrId, AttrSet, CoreError, OrderDependency, Relation};
use od_infer::{DeciderBatch, OdSet};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Configuration for a lattice traversal.
#[derive(Debug, Clone, Copy)]
pub struct LatticeConfig {
    /// Largest context size to visit (level bound).
    pub max_context: usize,
    /// Consult the exact implication decider before validating a candidate
    /// (only sound — and only consulted — when `epsilon == 0`).
    pub use_decider: bool,
    /// Threads for the sharded level expansion and the batched per-level
    /// validation pass (1 = serial).
    pub threads: usize,
    /// `g3` error threshold: accept statements that hold after removing at
    /// most `⌊ε·n⌋` tuples (0.0 = exact discovery).
    pub epsilon: f64,
    /// Worker *processes* for the context-sharded data plane (0 = in-process).
    /// With `workers > 0` the traversal runs through [`crate::dist`]: the
    /// current binary is re-executed `workers` times in worker mode (it must
    /// call [`crate::dist::maybe_run_worker`] first thing in `main`), and
    /// results are bit-identical to the in-process engine.
    pub workers: usize,
}

impl Default for LatticeConfig {
    /// Width 4 by default: bitset candidate sets, key-based node deletion and
    /// context-sharded expansion keep the fourth level interactive (the
    /// pre-node-store traversal was pinned at 2, the `Vec`-set node store at
    /// 3).
    fn default() -> Self {
        LatticeConfig {
            max_context: 4,
            use_decider: true,
            threads: 1,
            epsilon: 0.0,
            workers: 0,
        }
    }
}

/// Counters describing how a traversal resolved its candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatticeStats {
    /// Candidate statements enumerated at lattice nodes (after propagation).
    pub candidates: usize,
    /// Candidates resolved by consuming a data verdict (key-context candidates
    /// count here too: their partitions answer without touching a row).
    pub validated: usize,
    /// Candidates resolved by same-context constancy subsumption (rule 2).
    pub inherited: usize,
    /// Candidates resolved by the implication decider.
    pub decider_pruned: usize,
    /// Batched decider round-trips issued: **one per level** (level-start
    /// premise snapshot, grown in place), never one per candidate.
    pub decider_rounds: usize,
    /// Decider queries answered by a cached counterexample pattern instead of
    /// a fresh backtracking search.
    pub decider_witness_hits: usize,
    /// Lattice nodes created across all levels.
    pub nodes_created: usize,
    /// Nodes deleted by the superkey rule before expansion.
    pub nodes_deleted: usize,
    /// Candidates that never became statements: removed by parent-set
    /// intersection (confirmed or subsumed below) or sitting above a deleted
    /// node.
    pub propagated_away: usize,
    /// High-water mark of simultaneously cached partitions (the eviction
    /// policy's effectiveness measure).
    pub peak_cached_partitions: usize,
    /// Partition-cache memo hits across the traversal.
    pub cache_hits: usize,
    /// Partition-cache memo misses (materializations) across the traversal.
    pub cache_misses: usize,
    /// Always 0: partition products are built by a counting kernel that
    /// sorts nothing, so they spend no radix pass.  The field stays because
    /// the benchmark's per-layer report still reads it.
    pub product_radix_passes: u64,
    /// Partitions evicted by the per-level eviction policy.
    pub cache_evictions: usize,
}

/// Per-level breakdown of a traversal (see [`SetBasedDiscovery::level_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Context size of this level.
    pub level: usize,
    /// Nodes created at this level.
    pub nodes_created: usize,
    /// Nodes deleted by the superkey rule at this level.
    pub nodes_deleted: usize,
    /// Candidates enumerated at this level's nodes.
    pub candidates: usize,
    /// Candidates resolved by consuming a data verdict.
    pub validated: usize,
    /// Candidates resolved by same-context constancy subsumption.
    pub inherited: usize,
    /// Candidates resolved by the implication decider.
    pub decider_pruned: usize,
    /// Candidate slots this level never enumerated thanks to propagation and
    /// node deletion.
    pub propagated_away: usize,
    /// Partitions resident in the cache once this level was materialized
    /// (before the previous level's eviction takes effect for the next).
    pub cached_partitions: usize,
}

impl std::fmt::Display for LevelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>6} {:>6} {:>8} {:>10} {:>10} {:>10} {:>8} {:>7} {:>6}",
            self.level,
            self.nodes_created,
            self.nodes_deleted,
            self.candidates,
            self.validated,
            self.propagated_away,
            self.inherited,
            self.decider_pruned,
            self.cached_partitions,
        )
    }
}

impl LevelStats {
    /// The column header matching [`LevelStats`]'s `Display` row.
    pub fn header() -> String {
        format!(
            "{:>6} {:>6} {:>8} {:>10} {:>10} {:>10} {:>8} {:>7} {:>6}",
            "level",
            "nodes",
            "deleted",
            "candidates",
            "validated",
            "propagated",
            "inherit",
            "decider",
            "cached"
        )
    }
}

impl std::fmt::Display for LatticeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} candidates — {} validated, {} rule-2 inherited, {} decider-pruned \
             ({} rounds, {} witness hits), {} propagated away; {} nodes created / \
             {} key-deleted; peak {} cached partitions \
             ({} hits / {} misses / {} evicted)",
            self.candidates,
            self.validated,
            self.inherited,
            self.decider_pruned,
            self.decider_rounds,
            self.decider_witness_hits,
            self.propagated_away,
            self.nodes_created,
            self.nodes_deleted,
            self.peak_cached_partitions,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
        )
    }
}

/// The result of a traversal: all valid canonical statements up to the context
/// bound, in minimal form.
#[derive(Debug, Clone)]
pub struct SetBasedDiscovery {
    minimal: Vec<SetOd>,
    verdicts: Vec<Verdict>,
    /// Exact-match index into `minimal`, so per-statement verdict lookups
    /// (`od-discovery` makes one per candidate statement) stay `O(1)` instead
    /// of scanning the minimal list.
    minimal_index: HashMap<SetOd, usize>,
    /// Statements the decider proved implied (they hold, but are not minimal);
    /// kept so [`Self::holds`] stays complete within the bound.
    pruned: Vec<SetOd>,
    holding: HashSet<SetOd>,
    max_context: usize,
    budget: usize,
    level_stats: Vec<LevelStats>,
    /// How candidates were resolved.
    pub stats: LatticeStats,
}

impl SetBasedDiscovery {
    /// The minimal valid statements: those not subsumed from a smaller context
    /// and not implied by previously confirmed statements.
    pub fn minimal_statements(&self) -> &[SetOd] {
        &self.minimal
    }

    /// The violation evidence of each minimal statement, aligned with
    /// [`Self::minimal_statements`] (all-zero removals in exact mode).
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The tuple-removal budget the traversal accepted statements under.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Per-level resolution counters, one entry per visited level.
    pub fn level_stats(&self) -> &[LevelStats] {
        &self.level_stats
    }

    /// A multi-line human-readable summary: the aggregate counters plus the
    /// per-level breakdown table (used by `examples/discovery_setbased.rs`
    /// and the `reproduce` binary).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.stats);
        let _ = writeln!(out, "{}", LevelStats::header());
        for l in &self.level_stats {
            let _ = writeln!(out, "{l}");
        }
        out
    }

    /// Does a statement hold on the profiled instance (within the traversal's
    /// error budget)?
    ///
    /// Sound always; complete for contexts up to the traversal's
    /// `max_context` (larger contexts are answered via monotonicity from
    /// confirmed statements, which can only under-approximate).
    pub fn holds(&self, stmt: &SetOd) -> bool {
        if let Some(normalized) = stmt.normalized() {
            return self.holds(&normalized);
        }
        if stmt.is_trivial() || self.holding.contains(stmt) {
            return true;
        }
        self.minimal.iter().any(|m| m.subsumes(stmt))
            || self.pruned.iter().any(|p| p.subsumes(stmt))
    }

    /// An upper bound on the statement's `g3` removal count, or `None` when
    /// the statement does not hold within the budget.
    ///
    /// Exact for minimal statements (their scan verdict); the subsuming
    /// premise's count for statements answered by monotonicity (removal can
    /// only shrink as the context grows); `0` for trivial statements and for
    /// decider-implied ones (the decider only runs in exact mode, where every
    /// accepted statement has removal 0).  Like [`Self::holds`], complete only
    /// for contexts within the traversal bound.
    pub fn removal_upper_bound(&self, stmt: &SetOd) -> Option<usize> {
        if let Some(normalized) = stmt.normalized() {
            return self.removal_upper_bound(&normalized);
        }
        if stmt.is_trivial() {
            return Some(0);
        }
        // O(1) exact hit first — the dominant case for profile-answered
        // discovery; the linear subsumption scans only run on misses.
        if let Some(&i) = self.minimal_index.get(stmt) {
            return Some(self.verdicts[i].removal_count);
        }
        if let Some(i) = self.minimal.iter().position(|m| m.subsumes(stmt)) {
            return Some(self.verdicts[i].removal_count);
        }
        if self.pruned.iter().any(|p| p.subsumes(stmt)) {
            return Some(0);
        }
        None
    }

    /// The context bound the traversal ran with.
    pub fn max_context(&self) -> usize {
        self.max_context
    }

    /// The minimal statements as list-based ODs (constancies contribute one OD,
    /// compatibilities both directions of their defining equivalence).
    pub fn to_list_ods(&self) -> Vec<OrderDependency> {
        self.minimal.iter().flat_map(|s| s.as_list_ods()).collect()
    }
}

/// Enumerate all `k`-subsets of the first `universe_len` attribute ids, in
/// lexicographic order of their ascending id sequences (the canonical
/// traversal order; identical to the recursive enumeration the `Vec`-based
/// store used).
fn subsets_of_size(universe: &[AttrId], k: usize) -> Vec<AttrSet> {
    fn rec(universe: &[AttrId], k: usize, start: usize, cur: AttrSet, out: &mut Vec<AttrSet>) {
        if cur.len() == k {
            out.push(cur);
            return;
        }
        for i in start..universe.len() {
            rec(universe, k, i + 1, cur.with(universe[i]), out);
        }
    }
    let mut out = Vec::new();
    rec(universe, k, 0, AttrSet::new(), &mut out);
    out
}

/// The compatibility candidate set of one node: `partners[i]` is the
/// [`AttrSet`] of partners `b > AttrId(i)` such that the pair
/// `{AttrId(i), b}` is still a candidate.  Intersection is a per-slot `&`,
/// cardinality a popcount sum, and no pair ever allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PairSet {
    partners: Vec<AttrSet>,
}

impl PairSet {
    /// All pairs `a < b` over the universe.
    fn full(universe: &[AttrId]) -> PairSet {
        let above: AttrSet = universe.iter().collect();
        let partners = universe
            .iter()
            .map(|&a| {
                // Partners strictly above `a`.
                AttrSet::from_mask(
                    above.mask() & !((1u64 << a.index()) | ((1u64 << a.index()) - 1)),
                )
            })
            .collect();
        PairSet { partners }
    }

    /// The empty pair set shaped for a universe of `n` attributes.
    fn empty(n: usize) -> PairSet {
        PairSet {
            partners: vec![AttrSet::new(); n],
        }
    }

    fn len(&self) -> usize {
        self.partners.iter().map(|p| p.len()).sum()
    }

    fn is_empty(&self) -> bool {
        self.partners.iter().all(|p| p.is_empty())
    }

    fn contains(&self, a: AttrId, b: AttrId) -> bool {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.partners.get(a.index()).is_some_and(|p| p.contains(b))
    }

    fn insert(&mut self, a: AttrId, b: AttrId) {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.partners[a.index()].insert(b);
    }

    /// Per-slot intersection: the single-`&` propagation step.
    fn intersect_with(&mut self, other: &PairSet) {
        for (mine, theirs) in self.partners.iter_mut().zip(&other.partners) {
            *mine = *mine & *theirs;
        }
    }

    /// Drop every pair touching an attribute of `context` (context attributes
    /// are trivial, not candidates).
    fn remove_touching(&mut self, context: AttrSet) {
        for (i, p) in self.partners.iter_mut().enumerate() {
            if context.contains(AttrId(i as u32)) {
                *p = AttrSet::new();
            } else {
                *p = *p - context;
            }
        }
    }

    /// Pairs in canonical `(a, b)` ascending order.
    fn iter(&self) -> impl Iterator<Item = (AttrId, AttrId)> + '_ {
        self.partners
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.iter().map(move |b| (AttrId(i as u32), b)))
    }
}

/// A lattice node: one surviving context with its propagated candidate sets,
/// all on bit masks (enumeration order is the canonical ascending-id order).
struct Node {
    context: AttrSet,
    consts: AttrSet,
    pairs: PairSet,
}

/// One level's node store: nodes in context-enumeration order plus a
/// mask-keyed index for parent lookups during expansion.
#[derive(Default)]
struct LevelStore {
    nodes: Vec<Node>,
    index: HashMap<AttrSet, usize>,
}

impl LevelStore {
    fn new(nodes: Vec<Node>) -> Self {
        let index = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.context, i))
            .collect();
        LevelStore { nodes, index }
    }
}

/// Candidate slots a context of size `level` offers over a `u`-attribute
/// universe: one constancy per outside attribute, one pair per outside pair.
fn full_slots(u: usize, level: usize) -> usize {
    let outside = u - level;
    outside + outside * outside.saturating_sub(1) / 2
}

/// Generate level `level`'s nodes by intersecting the surviving candidate sets
/// of their parents in `prev`.  Returns the nodes (in canonical context order)
/// and the number of candidate slots resolved without enumeration — removed by
/// propagation or sitting above a deleted/exhausted parent.
fn generate_level(universe: &[AttrId], level: usize, prev: &LevelStore) -> (Vec<Node>, usize) {
    if level == 0 {
        if universe.is_empty() {
            return (Vec::new(), 0);
        }
        return (
            vec![Node {
                context: AttrSet::new(),
                consts: universe.iter().collect(),
                pairs: PairSet::full(universe),
            }],
            0,
        );
    }
    let slots = full_slots(universe.len(), level);
    let mut nodes = Vec::new();
    let mut propagated = 0usize;
    for context in subsets_of_size(universe, level) {
        // Every (level−1)-subset must be a live parent: a deleted (superkey)
        // or candidate-exhausted ancestor prunes the whole cone above it.
        let mut parents: Vec<&Node> = Vec::with_capacity(level);
        let mut orphan = false;
        for drop in context.iter() {
            match prev.index.get(&context.without(drop)) {
                Some(&p) => parents.push(&prev.nodes[p]),
                None => {
                    orphan = true;
                    break;
                }
            }
        }
        if orphan {
            propagated += slots;
            continue;
        }
        // Intersection propagation: a candidate survives only where it
        // survived at every parent — one `&` per parent for the constancy
        // mask, one `&` per partner slot for the pairs (context attributes
        // are trivial, not candidates).
        let mut consts = parents[0].consts - context;
        for p in &parents[1..] {
            consts = consts & p.consts;
        }
        let mut pairs = parents[0].pairs.clone();
        for p in &parents[1..] {
            pairs.intersect_with(&p.pairs);
        }
        pairs.remove_touching(context);
        propagated += slots - consts.len() - pairs.len();
        if consts.is_empty() && pairs.is_empty() {
            continue;
        }
        nodes.push(Node {
            context,
            consts,
            pairs,
        });
    }
    (nodes, propagated)
}

/// The traversal's confirmed-statement state (premises for rule 3).
#[derive(Default)]
struct TraversalState {
    confirmed: OdSet,
}

impl TraversalState {
    fn record(&mut self, stmt: &SetOd) {
        for od in stmt.as_list_ods() {
            self.confirmed.add_od(od);
        }
    }
}

/// The traversal's swappable **data plane**: partition refinement, statement
/// scans, and eviction.  The control plane ([`discover_with_plane`]) is
/// identical over both variants — cache accounting included, which it derives
/// from the level schedule — and that is what makes the distributed engine
/// bit-identical to the in-process one.
pub(crate) enum Plane<'r> {
    /// The in-process [`PartitionCache`] (threads shard *within* the process).
    Local(Box<LocalPlane<'r>>),
    /// Context-sharded worker processes over pipes (see [`crate::dist`]).
    Dist(Box<DistPlane>),
}

/// What one level's refinement reports to the control loop.
pub(crate) struct LevelRefinement {
    /// Each context's `(class count, CSR heap bytes)`, in context order
    /// (`0` classes ⇔ the context is a superkey).
    pub(crate) parts: Vec<(u64, u64)>,
}

/// The in-process data plane: the partition cache plus the current level's
/// materialized partitions and the per-attribute code columns scans read.
pub(crate) struct LocalPlane<'r> {
    cache: PartitionCache<'r>,
    all_codes: Vec<ColCodes>,
    parts: Vec<Rc<StrippedPartition>>,
    threads: usize,
    budget: usize,
}

impl<'r> LocalPlane<'r> {
    pub(crate) fn new(rel: &'r Relation, threads: usize, budget: usize) -> Self {
        let cache = PartitionCache::new(rel);
        // Per-attribute code-column views into the relation's shared columnar
        // encoding — cheap handles that deref to `&[u32]` for the batch
        // phase's worker threads.
        let all_codes = rel.schema().attr_ids().map(|a| cache.codes(a)).collect();
        LocalPlane {
            cache,
            all_codes,
            parts: Vec::new(),
            threads: threads.max(1),
            budget,
        }
    }
}

impl Plane<'_> {
    /// Materialize one level's partitions.
    fn refine_level(&mut self, contexts: &[AttrSet]) -> Result<LevelRefinement, DistError> {
        match self {
            Plane::Local(p) => {
                p.parts = p.cache.partitions_batch(contexts, p.threads);
                Ok(LevelRefinement {
                    parts: p
                        .parts
                        .iter()
                        .map(|pt| (pt.num_classes() as u64, pt.approx_heap_bytes() as u64))
                        .collect(),
                })
            }
            Plane::Dist(p) => p.refine_level(contexts),
        }
    }

    /// Scan all of a level's surviving constancy candidates in one batch;
    /// verdicts come back in slot order.
    fn scan_consts(&mut self, slots: &[(usize, AttrId)]) -> Result<Vec<Verdict>, DistError> {
        match self {
            Plane::Local(p) => {
                let jobs: Vec<StatementJob<'_>> = slots
                    .iter()
                    .map(|&(i, attr)| StatementJob::Constancy {
                        part: &p.parts[i],
                        codes: &p.all_codes[attr.index()],
                    })
                    .collect();
                Ok(parallel::validate_statement_batch(
                    &jobs, p.threads, p.budget,
                ))
            }
            Plane::Dist(p) => p.scan_consts(slots),
        }
    }

    /// Scan all of a level's surviving compatibility candidates in one batch.
    fn scan_pairs(
        &mut self,
        slots: &[(usize, (AttrId, AttrId))],
    ) -> Result<Vec<Verdict>, DistError> {
        match self {
            Plane::Local(p) => {
                let LocalPlane {
                    cache,
                    parts,
                    threads,
                    budget,
                    ..
                } = &mut **p;
                let items: Vec<(&StrippedPartition, AttrId, AttrId)> = slots
                    .iter()
                    .map(|&(i, (a, b))| (&*parts[i], a, b))
                    .collect();
                Ok(parallel::with_compatibility_jobs(cache, &items, |jobs| {
                    parallel::validate_statement_batch(jobs, *threads, *budget)
                }))
            }
            Plane::Dist(p) => p.scan_pairs(slots),
        }
    }

    /// Replay-fallback scan of one statement (a partition-cache hit).
    fn scan_one(&mut self, stmt: &SetOd) -> Result<Verdict, DistError> {
        match self {
            Plane::Local(p) => Ok(validate::statement_verdict(&mut p.cache, stmt, 1, p.budget)),
            Plane::Dist(p) => p.scan_one(stmt),
        }
    }

    /// Evict all cached partitions of one context size.
    fn evict(&mut self, size: usize) -> Result<(), DistError> {
        match self {
            Plane::Local(p) => {
                p.cache.evict_sets_of_size(size);
                Ok(())
            }
            Plane::Dist(p) => p.evict(size),
        }
    }
}

/// Run the node-based level-wise traversal over the relation's attribute
/// lattice, reporting schemas beyond the 64-attribute [`AttrSet`] domain as a
/// [`CoreError::AttrSetOverflow`] instead of panicking.
pub fn try_discover_statements(
    rel: &Relation,
    config: &LatticeConfig,
) -> Result<SetBasedDiscovery, CoreError> {
    if rel.schema().arity() > AttrSet::MAX_ATTRS {
        return Err(CoreError::AttrSetOverflow(rel.schema().arity() as u32 - 1));
    }
    Ok(discover_statements(rel, config))
}

/// Run the node-based level-wise traversal over the relation's attribute
/// lattice.
///
/// With `config.workers > 0` the data plane is sharded over that many worker
/// *processes* (see [`crate::dist`]); results are bit-identical either way.
///
/// Panics when the schema exceeds the 64-attribute [`AttrSet`] domain (use
/// [`try_discover_statements`] where such schemas are reachable) or when a
/// worker process fails (use [`crate::dist::discover_statements_dist`] to
/// handle [`DistError`]s).
pub fn discover_statements(rel: &Relation, config: &LatticeConfig) -> SetBasedDiscovery {
    if config.workers > 0 {
        return crate::dist::discover_statements_dist(rel, config, &WorkerLauncher::self_exec())
            .unwrap_or_else(|e| panic!("distributed traversal failed: {e}"))
            .0;
    }
    let budget = validate::error_budget(rel.len(), config.epsilon);
    let mut plane = Plane::Local(Box::new(LocalPlane::new(rel, config.threads, budget)));
    match discover_with_plane(rel, config, &mut plane) {
        Ok(d) => d,
        Err(e) => unreachable!("the local plane is infallible: {e}"),
    }
}

/// The traversal's **control plane**, generic over the data plane: candidate
/// propagation, superkey deletion, the per-level decider round, the
/// canonical sequential replay, and partition-cache accounting.  Every data
/// access — refinement, scans, eviction — goes through `plane`, so the
/// distributed engine runs *this exact loop* and inherits its determinism.
///
/// Cache accounting follows from the level schedule alone: each level-`k`
/// partition is built once from a level-`k−1` partition (one miss, and one
/// product for `k ≥ 1`); once level `k` is materialized the cache holds
/// exactly levels `k−1` and `k`, plus one memoized class-code column
/// (`n_rows × 4` bytes) per attribute of any level-≥2 context (the cache
/// memoizes every attribute of a context it builds from level 2 on, so the
/// set does not depend on which base each product started from); level
/// `k−1` is evicted after level `k`'s replay; and every replay-fallback scan
/// is one hit on the current level.
pub(crate) fn discover_with_plane(
    rel: &Relation,
    config: &LatticeConfig,
    plane: &mut Plane<'_>,
) -> Result<SetBasedDiscovery, DistError> {
    let universe: Vec<AttrId> = rel.schema().attr_ids().collect();
    let mut result = SetBasedDiscovery {
        minimal: Vec::new(),
        verdicts: Vec::new(),
        minimal_index: HashMap::new(),
        pruned: Vec::new(),
        holding: HashSet::new(),
        max_context: config.max_context,
        budget: validate::error_budget(rel.len(), config.epsilon),
        level_stats: Vec::new(),
        stats: LatticeStats::default(),
    };
    let budget = result.budget;
    // Rule 3 is exact-only: the decider combines many confirmed premises, and
    // with a non-zero budget those premises may each lean on a *different*
    // removal set whose union busts the budget.
    let decider_active = config.use_decider && budget == 0;
    let mut state = TraversalState::default();
    let _discovery_span = od_obs::span("discovery");

    // Partition-cache accounting (see above): the previous level's
    // resident partition count and heap bytes, the attributes whose
    // class-code column is memoized, and the running totals.
    let class_code_bytes = rel.len() as u64 * 4;
    let mut code_memo_attrs = AttrSet::new();
    let (mut prev_parts, mut prev_bytes) = (0usize, 0u64);
    let mut products = 0usize;

    let mut prev = LevelStore::default();
    for level in 0..=config.max_context.min(universe.len()) {
        let _level_span = od_obs::span(format!("level{level}"));
        let mut lstats = LevelStats {
            level,
            ..Default::default()
        };
        let (nodes, propagated) = {
            let _s = od_obs::span("expand");
            generate_level(&universe, level, &prev)
        };
        lstats.propagated_away = propagated;
        lstats.nodes_created = nodes.len();
        if nodes.is_empty() {
            roll_up(&mut result, lstats);
            break; // no live parents: every deeper level is empty too
        }
        // Materialize this level's partitions in one pass sharded by context
        // (each is one incremental refinement of a level−1 partition still in
        // the cache; see `PartitionCache::partitions_batch`).
        let contexts: Vec<AttrSet> = nodes.iter().map(|n| n.context).collect();
        let refined = {
            let _s = od_obs::span("refine");
            // Level ≥ 2 batches are entirely class-id products; the nested
            // span separates product cost from level-1 rank-code splits.
            let _p = (level >= 2).then(|| od_obs::span("product"));
            plane.refine_level(&contexts)?
        };
        for &(c, _) in &refined.parts {
            od_obs::record("discovery.partition_classes", c);
        }
        result.stats.cache_misses += contexts.len();
        if level >= 1 {
            products += contexts.len();
        }
        if level >= 2 {
            for &c in &contexts {
                code_memo_attrs = code_memo_attrs.union(c);
            }
        }
        let level_bytes: u64 = refined.parts.iter().map(|&(_, b)| b).sum();
        od_obs::gauge_max(
            "partition.csr_bytes",
            prev_bytes + level_bytes + code_memo_attrs.len() as u64 * class_code_bytes,
        );
        lstats.cached_partitions = prev_parts + contexts.len();
        result.stats.peak_cached_partitions = result
            .stats
            .peak_cached_partitions
            .max(lstats.cached_partitions);
        // A stripped partition with no classes is a superkey (every class is
        // a singleton) — the empty relation included.
        let keyed: Vec<bool> = refined.parts.iter().map(|&(c, _)| c == 0).collect();

        // One batched decider round-trip for the whole level: the premise
        // snapshot is taken here, queried during scheduling (the pre-filter)
        // and replay, and grown in place as statements are confirmed.
        // Implication is monotone in the premise set, so a pre-filter answer
        // stays valid at its replay position — its scan can be skipped
        // outright and the answer reused without a second query.
        let mut batch = if decider_active {
            result.stats.decider_rounds += 1;
            Some(DeciderBatch::new(&state.confirmed))
        } else {
            None
        };

        // ---- Batch A: all surviving constancy scans, one sharded pass -----
        let mut const_slots: Vec<(usize, AttrId)> = Vec::new();
        // Pre-filter hits per node, as bit masks (no per-candidate hashing in
        // the level loop).
        let mut pre_pruned_consts: Vec<AttrSet> = vec![AttrSet::new(); nodes.len()];
        let mut pre_pruned_pairs: Vec<PairSet> = Vec::new();
        {
            let _s = decider_active.then(|| od_obs::span("decider"));
            for (i, node) in nodes.iter().enumerate() {
                if keyed[i] {
                    continue; // clean by the superkey rule, no scan needed
                }
                if let Some(batch) = batch.as_mut() {
                    for attr in node.consts.iter() {
                        if batch.implies_context_constancy(&node.context, attr) {
                            pre_pruned_consts[i].insert(attr);
                        }
                    }
                }
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            if keyed[i] {
                continue;
            }
            for attr in node.consts.iter() {
                if pre_pruned_consts[i].contains(attr) {
                    continue;
                }
                const_slots.push((i, attr));
            }
        }
        let verdicts = {
            let _s = od_obs::span("validate");
            plane.scan_consts(&const_slots)?
        };
        let mut const_verdicts: HashMap<(usize, AttrId), Verdict> =
            const_slots.into_iter().zip(verdicts).collect();

        // Which constancies hold on the data (key contexts: all of them;
        // pre-filtered ones hold because the decider is sound and exact-mode
        // accepted statements are violation-free).
        let data_clean = |pruned: &[AttrSet],
                          verdicts: &HashMap<(usize, AttrId), Verdict>,
                          i: usize,
                          attr: AttrId|
         -> bool {
            keyed[i]
                || pruned[i].contains(attr)
                || verdicts.get(&(i, attr)).is_some_and(|v| v.within(budget))
        };

        // ---- Batch B: pair scans for pairs rule 2 cannot resolve ----------
        let mut pair_slots: Vec<(usize, (AttrId, AttrId))> = Vec::new();
        // Only the decider writes or reads the pre-pruned pair masks; with it
        // inactive, skip the per-node allocations outright.
        if decider_active {
            pre_pruned_pairs.resize_with(nodes.len(), || PairSet::empty(universe.len()));
        }
        for (i, node) in nodes.iter().enumerate() {
            if keyed[i] {
                continue;
            }
            for (a, b) in node.pairs.iter() {
                if data_clean(&pre_pruned_consts, &const_verdicts, i, a)
                    || data_clean(&pre_pruned_consts, &const_verdicts, i, b)
                {
                    continue; // rule 2 (or the decider) resolves it scan-free
                }
                if let Some(batch) = batch.as_mut() {
                    if batch.implies_context_compatibility(&node.context, a, b) {
                        pre_pruned_pairs[i].insert(a, b);
                        continue;
                    }
                }
                pair_slots.push((i, (a, b)));
            }
        }
        let verdicts = {
            let _s = od_obs::span("validate");
            plane.scan_pairs(&pair_slots)?
        };
        let mut pair_verdicts: HashMap<(usize, (AttrId, AttrId)), Verdict> =
            pair_slots.into_iter().zip(verdicts).collect();

        // ---- Sequential replay in canonical order -------------------------
        // Confirmation order (contexts as enumerated, constancies before
        // pairs) is what the batch's premise set grows along, so pruning
        // decisions match a statement-at-a-time traversal exactly.
        let replay_span = od_obs::span("validate");
        let mut next_alive: Vec<Node> = Vec::new();
        for (i, node) in nodes.into_iter().enumerate() {
            let Node {
                context: ctx,
                consts,
                pairs,
            } = node;
            let mut confirmed_here = AttrSet::new();
            let mut surviving_consts = AttrSet::new();
            for attr in consts.iter() {
                lstats.candidates += 1;
                let stmt = SetOd::constancy(ctx, attr);
                if decider_active {
                    // Pre-filter hits were answered in this level's batch
                    // round; candidates it missed may have become implied by
                    // mid-level confirmations, which only the grown premise
                    // set can see.
                    let implied = pre_pruned_consts[i].contains(attr)
                        || batch
                            .as_mut()
                            .is_some_and(|b| b.implies_context_constancy(&ctx, attr));
                    if implied {
                        lstats.decider_pruned += 1;
                        result.holding.insert(stmt);
                        result.pruned.push(stmt);
                        continue;
                    }
                }
                let verdict = if keyed[i] {
                    Verdict::clean()
                } else {
                    match const_verdicts.remove(&(i, attr)) {
                        Some(v) => v,
                        None => {
                            result.stats.cache_hits += 1;
                            plane.scan_one(&stmt)?
                        }
                    }
                };
                lstats.validated += 1;
                if verdict.within(budget) {
                    confirm(&mut result, &mut state, &mut batch, stmt, verdict);
                    confirmed_here.insert(attr);
                } else {
                    surviving_consts.insert(attr);
                }
            }
            let mut surviving_pairs = PairSet::empty(universe.len());
            for (a, b) in pairs.iter() {
                lstats.candidates += 1;
                // Rule 2 at this very context: a constancy confirmed above
                // makes the pair swap-free for free.
                if confirmed_here.contains(a) || confirmed_here.contains(b) {
                    lstats.inherited += 1;
                    continue;
                }
                let stmt = SetOd::compatibility(ctx, a, b);
                if decider_active {
                    let implied = pre_pruned_pairs[i].contains(a, b)
                        || batch
                            .as_mut()
                            .is_some_and(|b2| b2.implies_context_compatibility(&ctx, a, b));
                    if implied {
                        lstats.decider_pruned += 1;
                        result.holding.insert(stmt);
                        result.pruned.push(stmt);
                        continue;
                    }
                }
                let verdict = if keyed[i] {
                    Verdict::clean()
                } else {
                    match pair_verdicts.remove(&(i, (a, b))) {
                        Some(v) => v,
                        None => {
                            result.stats.cache_hits += 1;
                            plane.scan_one(&stmt)?
                        }
                    }
                };
                lstats.validated += 1;
                if verdict.within(budget) {
                    confirm(&mut result, &mut state, &mut batch, stmt, verdict);
                } else {
                    surviving_pairs.insert(a, b);
                }
            }
            if keyed[i] {
                // Superkey: everything above holds trivially — delete the
                // node so no superset context is ever generated.
                lstats.nodes_deleted += 1;
                continue;
            }
            if surviving_consts.is_empty() && surviving_pairs.is_empty() {
                continue; // exhausted: children would carry empty sets
            }
            next_alive.push(Node {
                context: ctx,
                consts: surviving_consts,
                pairs: surviving_pairs,
            });
        }
        drop(replay_span);
        if let Some(batch) = batch.take() {
            result.stats.decider_witness_hits += batch.stats.witness_hits;
        }
        roll_up(&mut result, lstats);
        // Partitions of level − 1 were refinement bases for this level only.
        if level >= 1 {
            plane.evict(level - 1)?;
            result.stats.cache_evictions += prev_parts;
        }
        (prev_parts, prev_bytes) = (contexts.len(), level_bytes);
        prev = LevelStore::new(next_alive);
    }
    od_obs::add(
        "discovery.partition_cache.hits",
        result.stats.cache_hits as u64,
    );
    od_obs::add(
        "discovery.partition_cache.misses",
        result.stats.cache_misses as u64,
    );
    od_obs::add(
        "discovery.partition_cache.evictions",
        result.stats.cache_evictions as u64,
    );
    od_obs::add("discovery.partition_products", products as u64);
    od_obs::gauge_max(
        "discovery.partition_cache.peak",
        result.stats.peak_cached_partitions as u64,
    );
    od_obs::add(
        "discovery.decider_rounds",
        result.stats.decider_rounds as u64,
    );
    od_obs::add(
        "discovery.decider_witness_hits",
        result.stats.decider_witness_hits as u64,
    );
    Ok(result)
}

/// Record a confirmed minimal statement: it joins the level batch's premise
/// set, the `holds` index, and the minimal output.
fn confirm(
    result: &mut SetBasedDiscovery,
    state: &mut TraversalState,
    batch: &mut Option<DeciderBatch>,
    stmt: SetOd,
    verdict: Verdict,
) {
    state.record(&stmt);
    if let Some(batch) = batch.as_mut() {
        for od in stmt.as_list_ods() {
            batch.add_premise(od);
        }
    }
    result.holding.insert(stmt);
    result.minimal_index.insert(stmt, result.minimal.len());
    result.minimal.push(stmt);
    result.verdicts.push(verdict);
}

/// Fold one level's counters into the traversal totals (and flush them to the
/// ambient recorder — deterministic counts only, recorded on the
/// orchestrating thread).
fn roll_up(result: &mut SetBasedDiscovery, lstats: LevelStats) {
    od_obs::add("discovery.candidates", lstats.candidates as u64);
    od_obs::add("discovery.validated", lstats.validated as u64);
    od_obs::add("discovery.inherited", lstats.inherited as u64);
    od_obs::add("discovery.decider_pruned", lstats.decider_pruned as u64);
    od_obs::add("discovery.nodes_created", lstats.nodes_created as u64);
    od_obs::add("discovery.nodes_deleted", lstats.nodes_deleted as u64);
    od_obs::add("discovery.propagated_away", lstats.propagated_away as u64);
    result.stats.candidates += lstats.candidates;
    result.stats.validated += lstats.validated;
    result.stats.inherited += lstats.inherited;
    result.stats.decider_pruned += lstats.decider_pruned;
    result.stats.nodes_created += lstats.nodes_created;
    result.stats.nodes_deleted += lstats.nodes_deleted;
    result.stats.propagated_away += lstats.propagated_away;
    result.level_stats.push(lstats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::check::od_holds;
    use od_core::{fixtures, Schema, Value};

    #[test]
    fn taxes_fixture_yields_the_expected_statements() {
        let rel = fixtures::example_5_taxes();
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let payable = s.attr_by_name("payable").unwrap();
        let d = discover_statements(&rel, &LatticeConfig::default());
        // income ↦ bracket decomposes into these two statements.
        assert!(d.holds(&SetOd::constancy([income].into_iter().collect(), bracket)));
        assert!(d.holds(&SetOd::compatibility(AttrSet::new(), income, bracket)));
        assert!(d.holds(&SetOd::compatibility(AttrSet::new(), income, payable)));
        // bracket does not order income: {bracket}: [] ↦ income must fail.
        assert!(!d.holds(&SetOd::constancy([bracket].into_iter().collect(), income)));
        assert!(d.stats.validated <= d.stats.candidates);
        assert!(
            d.stats.propagated_away > 0,
            "statements confirmed at small contexts must be propagated away \
             above them: {:?}",
            d.stats
        );
    }

    #[test]
    fn every_minimal_statement_holds_on_the_instance() {
        let rel = fixtures::example_5_taxes();
        let d = discover_statements(&rel, &LatticeConfig::default());
        for stmt in d.minimal_statements() {
            for od in stmt.as_list_ods() {
                assert!(od_holds(&rel, &od), "{stmt} does not hold on the instance");
            }
        }
    }

    #[test]
    fn decider_pruning_only_removes_work_not_answers() {
        let rel = fixtures::example_5_taxes();
        let with = discover_statements(&rel, &LatticeConfig::default());
        let without = discover_statements(
            &rel,
            &LatticeConfig {
                use_decider: false,
                ..Default::default()
            },
        );
        assert!(with.stats.validated <= without.stats.validated);
        // Identical truth assignment over the candidate universe.
        for stmt in without.minimal_statements() {
            assert!(with.holds(stmt), "{stmt} lost under decider pruning");
        }
        for stmt in with.minimal_statements() {
            assert!(
                without.holds(stmt),
                "{stmt} fabricated under decider pruning"
            );
        }
    }

    #[test]
    fn decider_rounds_are_per_level_not_per_candidate() {
        let rel = fixtures::example_5_taxes();
        let d = discover_statements(&rel, &LatticeConfig::default());
        assert!(d.stats.decider_rounds >= 1);
        assert!(
            d.stats.decider_rounds <= d.level_stats().len(),
            "at most one batched round per level: {:?}",
            d.stats
        );
        assert!(d.stats.candidates > d.stats.decider_rounds);
        // Disabled decider issues no rounds at all.
        let off = discover_statements(
            &rel,
            &LatticeConfig {
                use_decider: false,
                ..Default::default()
            },
        );
        assert_eq!(off.stats.decider_rounds, 0);
        // And ε > 0 keeps rule 3 (and its rounds) off too.
        let approx = discover_statements(
            &rel,
            &LatticeConfig {
                epsilon: 0.5,
                ..Default::default()
            },
        );
        assert_eq!(approx.stats.decider_rounds, 0);
    }

    #[test]
    fn parallel_traversal_matches_serial_bit_for_bit() {
        let rel = fixtures::example_5_taxes();
        let serial = discover_statements(&rel, &LatticeConfig::default());
        for threads in [2, 4, 8] {
            let par = discover_statements(
                &rel,
                &LatticeConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(serial.minimal_statements(), par.minimal_statements());
            // Statements are sharded whole, so even the verdict evidence is
            // identical on every thread count.
            assert_eq!(serial.verdicts(), par.verdicts());
            assert_eq!(serial.stats, par.stats);
        }
    }

    #[test]
    fn constant_column_is_found_at_the_empty_context() {
        let mut schema = Schema::new("t");
        let a = schema.add_attr("a");
        let c = schema.add_attr("c");
        let rel = Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(7)],
                vec![Value::Int(2), Value::Int(7)],
                vec![Value::Int(3), Value::Int(7)],
            ],
        )
        .unwrap();
        let d = discover_statements(&rel, &LatticeConfig::default());
        assert!(d.holds(&SetOd::constancy(AttrSet::new(), c)));
        assert!(!d.holds(&SetOd::constancy(AttrSet::new(), a)));
        // Rule 2: the constant is compatible with everything, without validation.
        assert!(d.holds(&SetOd::compatibility(AttrSet::new(), a, c)));
    }

    #[test]
    fn key_contexts_delete_their_nodes_before_expansion() {
        // Column k is a key: {k} strips to nothing, so its constancies are
        // confirmed with clean verdicts, the node is deleted, and no context
        // containing k is ever created.
        let mut schema = Schema::new("keyed");
        let k = schema.add_attr("k");
        let a = schema.add_attr("a");
        let b = schema.add_attr("b");
        let rel = Relation::from_rows(
            schema,
            (0..12i64).map(|i| vec![Value::Int(i), Value::Int(i % 3), Value::Int(5 - i % 2)]),
        )
        .unwrap();
        let d = discover_statements(&rel, &LatticeConfig::default());
        assert!(d.stats.nodes_deleted >= 1, "{:?}", d.stats);
        // Everything above the key holds, answered by subsumption.
        let ka: AttrSet = [k, a].into_iter().collect();
        assert!(d.holds(&SetOd::constancy(ka, b)));
        assert!(d.holds(&SetOd::compatibility([k].into_iter().collect(), a, b)));
        // The key constancies themselves are minimal, with clean verdicts.
        let key_ctx: AttrSet = [k].into_iter().collect();
        let idx = d
            .minimal_statements()
            .iter()
            .position(|s| s == &SetOd::constancy(key_ctx, a))
            .expect("{k}: [] ↦ a is minimal");
        assert!(d.verdicts()[idx].holds());
        // No node above the key contributed: contexts {k,a}, {k,b}, {k,a,b}
        // were never created (2 nodes at most per level beyond the key).
        let created: usize = d.level_stats().iter().map(|l| l.nodes_created).sum();
        assert_eq!(created, d.stats.nodes_created);
        assert!(
            d.stats.nodes_created < 1 + 3 + 3 + 1,
            "key cone must be skipped: {:?}",
            d.stats
        );
    }

    #[test]
    fn holds_normalizes_hand_built_misordered_pairs() {
        let rel = fixtures::example_5_taxes();
        let s = rel.schema();
        let income = s.attr_by_name("income").unwrap();
        let bracket = s.attr_by_name("bracket").unwrap();
        let d = discover_statements(&rel, &LatticeConfig::default());
        // The enum fields are public: a caller can build `a > b` directly.
        let misordered = SetOd::Compatibility {
            context: AttrSet::new(),
            a: bracket.max(income),
            b: bracket.min(income),
        };
        assert!(d.holds(&misordered));
        assert_eq!(
            d.holds(&misordered),
            d.holds(&SetOd::compatibility(AttrSet::new(), income, bracket))
        );
    }

    #[test]
    fn decider_pruning_fires_on_fd_chains() {
        // B determines C and A determines B (ids ordered so context {B} is
        // visited before {A}); then {A}: [] ↦ C is a pure FD-transitivity
        // consequence — not propagatable from any subset context — and must be
        // resolved by the decider, not the data.
        let mut schema = Schema::new("chain");
        schema.add_attr("B");
        schema.add_attr("C");
        schema.add_attr("A");
        let rows: Vec<Vec<Value>> = [(10, 20, 30), (10, 20, 30), (11, 21, 31), (11, 21, 31)]
            .iter()
            .map(|&(b, c, a)| vec![Value::Int(b), Value::Int(c), Value::Int(a)])
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let d = discover_statements(&rel, &LatticeConfig::default());
        assert!(
            d.stats.decider_pruned > 0,
            "FD transitivity must be caught: {:?}",
            d.stats
        );
        // And without the decider the same truths are simply validated instead.
        let no_decider = discover_statements(
            &rel,
            &LatticeConfig {
                use_decider: false,
                ..Default::default()
            },
        );
        assert!(no_decider.stats.validated > d.stats.validated);
        // The pruned statements still answer `holds` at superset contexts.
        for stmt in no_decider.minimal_statements() {
            assert!(d.holds(stmt));
        }
    }

    #[test]
    fn approximate_traversal_recovers_dirtied_statements() {
        // A clean ordered pair plus one corrupted row out of twenty: exact
        // discovery loses {}: a ~ b, a 5% threshold recovers it with evidence.
        let mut schema = Schema::new("dirty");
        let a = schema.add_attr("a");
        let b = schema.add_attr("b");
        let mut rows: Vec<Vec<Value>> = (0..20i64)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
            .collect();
        rows[7][1] = Value::Int(-1); // one swapped cell
        let rel = Relation::from_rows(schema, rows).unwrap();
        let stmt = SetOd::compatibility(AttrSet::new(), a, b);

        let exact = discover_statements(&rel, &LatticeConfig::default());
        assert!(!exact.holds(&stmt));
        assert_eq!(exact.budget(), 0);

        let approx = discover_statements(
            &rel,
            &LatticeConfig {
                epsilon: 0.05,
                ..Default::default()
            },
        );
        assert_eq!(approx.budget(), 1);
        assert!(approx.holds(&stmt), "one bad row of twenty is within ε=5%");
        let idx = approx
            .minimal_statements()
            .iter()
            .position(|s| s == &stmt)
            .expect("recovered statement is minimal");
        let verdict = &approx.verdicts()[idx];
        assert_eq!(verdict.removal_count, 1);
        assert!(!verdict.violating_pairs.is_empty());
        assert_eq!(approx.minimal_statements().len(), approx.verdicts().len());
        assert_eq!(approx.removal_upper_bound(&stmt), Some(1));
    }

    #[test]
    fn epsilon_zero_is_exact_discovery() {
        let rel = fixtures::example_5_taxes();
        let exact = discover_statements(&rel, &LatticeConfig::default());
        let explicit = discover_statements(
            &rel,
            &LatticeConfig {
                epsilon: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(exact.minimal_statements(), explicit.minimal_statements());
        assert!(exact.verdicts().iter().all(|v| v.holds()));
    }

    #[test]
    fn level_stats_sum_to_the_totals_and_eviction_caps_the_cache() {
        let rel = fixtures::figure_1_relation();
        let d = discover_statements(&rel, &LatticeConfig::default());
        let sum = |f: fn(&LevelStats) -> usize| d.level_stats().iter().map(f).sum::<usize>();
        assert_eq!(sum(|l| l.candidates), d.stats.candidates);
        assert_eq!(sum(|l| l.validated), d.stats.validated);
        assert_eq!(sum(|l| l.decider_pruned), d.stats.decider_pruned);
        assert_eq!(sum(|l| l.propagated_away), d.stats.propagated_away);
        assert_eq!(sum(|l| l.nodes_created), d.stats.nodes_created);
        // Eviction invariant: when level L is materialized the cache holds
        // exactly this level's partitions plus the previous level's (its
        // refinement bases); everything older has been evicted.
        let levels = d.level_stats();
        for (pos, l) in levels.iter().enumerate() {
            if l.nodes_created == 0 {
                continue;
            }
            let prev_created = if pos == 0 {
                0
            } else {
                levels[pos - 1].nodes_created
            };
            assert_eq!(
                l.cached_partitions,
                l.nodes_created + prev_created,
                "level {} of {:?}",
                l.level,
                levels
            );
        }
        assert!(d.stats.peak_cached_partitions >= 1);
    }

    #[test]
    fn stats_render_for_humans() {
        let rel = fixtures::example_5_taxes();
        let d = discover_statements(&rel, &LatticeConfig::default());
        let summary = d.summary();
        assert!(summary.contains("candidates"));
        assert!(summary.contains("level"));
        // One table row per visited level, plus the aggregate and header lines.
        assert_eq!(summary.lines().count(), 2 + d.level_stats().len());
        for l in d.level_stats() {
            assert!(summary.contains(&l.to_string()));
        }
    }

    #[test]
    fn tiny_universes_and_empty_relations_terminate_cleanly() {
        // Universe smaller than the context bound: the loop stops at the
        // universe size and a single-attribute relation yields at most the
        // one constancy.
        let mut schema = Schema::new("one");
        let a = schema.add_attr("a");
        let rel = Relation::from_rows(schema, (0..4i64).map(|i| vec![Value::Int(i)])).unwrap();
        let d = discover_statements(
            &rel,
            &LatticeConfig {
                max_context: 5,
                ..Default::default()
            },
        );
        assert!(!d.holds(&SetOd::constancy(AttrSet::new(), a)));
        assert!(d.level_stats().len() <= 2);

        // Empty relation: the empty context is already a superkey, so every
        // constancy is confirmed clean at level 0 and nothing deeper exists.
        let mut schema = Schema::new("empty");
        let a = schema.add_attr("a");
        let b = schema.add_attr("b");
        let empty = Relation::from_rows(schema, Vec::<Vec<Value>>::new()).unwrap();
        let d = discover_statements(&empty, &LatticeConfig::default());
        assert!(d.holds(&SetOd::constancy(AttrSet::new(), a)));
        assert!(d.holds(&SetOd::compatibility(AttrSet::new(), a, b)));
        assert_eq!(d.stats.nodes_created, 1);
        assert_eq!(d.stats.nodes_deleted, 1);
        assert!(d
            .minimal_statements()
            .iter()
            .all(|s| matches!(s, SetOd::Constancy { .. })));
    }

    #[test]
    fn oversized_schemas_error_gracefully() {
        let mut schema = Schema::new("wide");
        for i in 0..(AttrSet::MAX_ATTRS + 1) {
            schema.add_attr(format!("c{i}"));
        }
        let rel = Relation::from_rows(schema, Vec::<Vec<Value>>::new()).unwrap();
        assert_eq!(
            try_discover_statements(&rel, &LatticeConfig::default()).unwrap_err(),
            CoreError::AttrSetOverflow(AttrSet::MAX_ATTRS as u32)
        );
        // At exactly 64 attributes the bitset domain still fits.
        let mut schema = Schema::new("exact");
        for i in 0..AttrSet::MAX_ATTRS {
            schema.add_attr(format!("c{i}"));
        }
        let rel = Relation::from_rows(schema, Vec::<Vec<Value>>::new()).unwrap();
        assert!(try_discover_statements(
            &rel,
            &LatticeConfig {
                max_context: 1,
                ..Default::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn subsets_enumerate_binomially_in_canonical_order() {
        let u: Vec<AttrId> = (0..5).map(AttrId).collect();
        assert_eq!(subsets_of_size(&u, 0).len(), 1);
        let twos = subsets_of_size(&u, 2);
        assert_eq!(twos.len(), 10);
        // Lexicographic on ascending id sequences — the canonical order.
        let mut sorted = twos.clone();
        sorted.sort();
        assert_eq!(twos, sorted);
        assert_eq!(subsets_of_size(&u, 5).len(), 1);
    }

    #[test]
    fn pair_sets_intersect_and_enumerate_canonically() {
        let u: Vec<AttrId> = (0..4).map(AttrId).collect();
        let full = PairSet::full(&u);
        assert_eq!(full.len(), 6);
        let pairs: Vec<(u32, u32)> = full.iter().map(|(a, b)| (a.0, b.0)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut pruned = full.clone();
        pruned.remove_touching([AttrId(1)].into_iter().collect());
        assert_eq!(pruned.len(), 3);
        assert!(!pruned.contains(AttrId(0), AttrId(1)));
        assert!(pruned.contains(AttrId(2), AttrId(3)));
        let mut both = full.clone();
        both.intersect_with(&pruned);
        assert_eq!(both, pruned);
        assert!(PairSet::empty(4).is_empty());
    }
}
