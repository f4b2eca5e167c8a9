//! Live monitoring of discovered ODs on a changing table.
//!
//! [`discover_ods`](crate::discover::discover_ods) profiles one snapshot;
//! [`Monitor`] keeps the result honest afterwards.  It wraps an
//! `od-setbased` [`StreamMonitor`] (delta-maintained partitions plus
//! per-statement verdict ledgers) and tracks a watch list of ODs: each
//! [`DeltaBatch`] re-derives only the partition classes it touched, re-reads
//! every watched OD's worst-statement `g3` removal count from the ledgers, and
//! reports which ODs **flipped** across the ε acceptance boundary.
//!
//! The optimizer stays in the loop through [`Monitor::sync_registry`]: ODs
//! that hold *exactly* on the live table are (re)installed into the
//! [`OdRegistry`], ODs that no longer do are retracted — a rewrite license is
//! only ever backed by currently-clean data, mirroring the install policy of
//! [`Discovery::install_into`](crate::discover::Discovery::install_into).
//!
//! Downstream consumers need not poll: [`Monitor::subscribe`] registers a
//! synchronous callback that [`Monitor::apply`] invokes once per batch with
//! the fresh [`MonitorReport`], so ε-boundary flips are *pushed* (a warehouse
//! loader can pause a feed the moment its ordering assumption breaks, and
//! resume when it heals) instead of being discovered on the next poll.

use crate::discover::Discovery;
use od_core::{OrderDependency, Relation};
use od_optimizer::OdRegistry;
use od_setbased::stream::{
    CompactStats, DeltaBatch, DeltaSummary, StreamError, StreamMonitor, TupleId,
};
use od_setbased::translate_od;
use std::collections::HashSet;
use std::sync::Arc;

/// The live status of one watched OD after a delta.
#[derive(Debug, Clone, PartialEq)]
pub struct OdStatus {
    /// The watched OD, shared with the monitor's watch list.
    pub od: Arc<OrderDependency>,
    /// Worst canonical statement's exact `g3` removal count on the live table.
    pub removal_count: usize,
    /// The corresponding `g3` error (removal / alive rows).
    pub g3: f64,
    /// Does the OD hold within the monitor's ε budget right now?
    pub accepted: bool,
    /// Did `accepted` change relative to before the last delta?
    pub flipped: bool,
}

/// What one [`Monitor::apply`] call observed.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Per-OD statuses, in watch order, with flips marked.
    pub statuses: Vec<OdStatus>,
    /// Ids assigned to the batch's inserted rows.
    pub inserted: Vec<TupleId>,
    /// Number of tuples the batch deleted.
    pub deleted: usize,
    /// Partition classes the batch touched (the maintenance cost unit).
    pub touched_classes: usize,
}

impl MonitorReport {
    /// The statuses that flipped across the acceptance boundary.
    pub fn flips(&self) -> impl Iterator<Item = &OdStatus> {
        self.statuses.iter().filter(|s| s.flipped)
    }
}

struct WatchedOd {
    od: Arc<OrderDependency>,
    /// Indices into the stream monitor's ledgers of the OD's canonical
    /// statements.  Compaction re-monitors the ledgers in order, so they
    /// stay valid across it.
    ledgers: Vec<usize>,
    accepted: bool,
}

/// Identifies a registered [`Monitor::subscribe`] callback so it can be
/// detached again with [`Monitor::unsubscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(u64);

/// A [`Monitor::subscribe`]d consumer: invoked synchronously with each
/// batch's report.  `Send` so registering subscribers does not cost the
/// monitor its ability to move to a worker thread.
type Subscriber = Box<dyn FnMut(&MonitorReport) + Send>;

/// Watches a set of ODs on a live table, keeping each one's `g3` verdict
/// current under tuple inserts and deletes.
///
/// ```
/// use od_core::{fixtures, Value};
/// use od_discovery::{discover_ods, DiscoveryConfig, Monitor};
/// use od_setbased::stream::DeltaBatch;
///
/// let rel = fixtures::example_5_taxes();
/// let discovery = discover_ods(&rel, DiscoveryConfig::default());
/// let mut monitor = Monitor::watch_install_set(&rel, &discovery, 0.0);
/// assert!(monitor.statuses().iter().all(|s| s.accepted));
///
/// // Corrupt the stream: a tuple violating the tax-bracket ODs arrives.
/// let mut bad = rel.tuple(0);
/// bad[1] = Value::Int(999);
/// let report = monitor.apply(&DeltaBatch::new().insert(bad)).unwrap();
/// assert!(report.flips().count() > 0);
/// ```
pub struct Monitor {
    stream: StreamMonitor,
    watched: Vec<WatchedOd>,
    epsilon: f64,
    subscribers: Vec<(SubscriptionId, Subscriber)>,
    next_subscription: u64,
}

impl Monitor {
    /// Watch `ods` on a snapshot of `rel` with error threshold `epsilon`
    /// (ε = 0 monitors exact satisfaction).
    pub fn watch(
        rel: &Relation,
        ods: impl IntoIterator<Item = OrderDependency>,
        epsilon: f64,
    ) -> Self {
        let mut stream = StreamMonitor::new(rel);
        let mut watched = Vec::new();
        for od in ods {
            let ledgers = translate_od(&od)
                .iter()
                .map(|stmt| stream.monitor_statement(stmt))
                .collect();
            watched.push(WatchedOd {
                od: Arc::new(od),
                ledgers,
                accepted: false,
            });
        }
        let mut monitor = Monitor {
            stream,
            watched,
            epsilon,
            subscribers: Vec::new(),
            next_subscription: 0,
        };
        // Baseline acceptance, so the first delta's flips are meaningful.
        let budget = monitor.stream.error_budget(epsilon);
        for i in 0..monitor.watched.len() {
            monitor.watched[i].accepted = monitor.removal_of(i) <= budget;
        }
        monitor
    }

    /// Watch the **install set** of a discovery run — the zero-error ODs that
    /// [`Discovery::install_into`] would feed to the optimizer — so registry
    /// installs can be kept in sync with the data they were profiled from.
    pub fn watch_install_set(rel: &Relation, discovery: &Discovery, epsilon: f64) -> Self {
        let ods = discovery
            .ods
            .iter()
            .zip(&discovery.errors)
            .filter(|(_, &err)| err == 0.0)
            .map(|(od, _)| od.clone());
        Self::watch(rel, ods, epsilon)
    }

    /// The error threshold the monitor accepts against.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The current tuple-removal budget `⌊ε·n⌋` (moves with the table size).
    pub fn budget(&self) -> usize {
        self.stream.error_budget(self.epsilon)
    }

    /// Alive rows in the live table.
    pub fn rows(&self) -> usize {
        self.stream.alive_rows()
    }

    /// The underlying statement-level stream monitor.
    pub fn stream(&self) -> &StreamMonitor {
        &self.stream
    }

    /// Compact the underlying stream monitor
    /// ([`StreamMonitor::compact`]): dead tuple ids, their dictionary ids,
    /// and distinct values only dead rows carried are dropped, and **every
    /// previously returned [`TupleId`] is invalidated**.  Watched ODs, their
    /// verdicts, and lifetime stats are preserved.  Returns what the rebuild
    /// reclaimed.
    pub fn compact(&mut self) -> CompactStats {
        self.stream.compact()
    }

    /// Register a synchronous consumer: `callback` is invoked by every
    /// successful [`Self::apply`], after the ledgers are patched, with the
    /// batch's [`MonitorReport`] — ε-boundary flips arrive as
    /// [`MonitorReport::flips`] without any polling.  Callbacks run in
    /// registration order, on the caller's thread, before `apply` returns.
    pub fn subscribe(
        &mut self,
        callback: impl FnMut(&MonitorReport) + Send + 'static,
    ) -> SubscriptionId {
        let id = SubscriptionId(self.next_subscription);
        self.next_subscription += 1;
        self.subscribers.push((id, Box::new(callback)));
        id
    }

    /// Detach a [`Self::subscribe`]d callback.  Returns whether it was still
    /// registered.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let before = self.subscribers.len();
        self.subscribers.retain(|(sid, _)| *sid != id);
        self.subscribers.len() < before
    }

    /// Apply a batch and report every watched OD's live status, marking the
    /// ODs whose accept/reject verdict flipped.  Subscribed callbacks are
    /// pushed the same report before it is returned.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<MonitorReport, StreamError> {
        let summary: DeltaSummary = self.stream.apply_delta(batch)?;
        let (budget, rows) = (self.budget(), self.rows());
        let statuses = (0..self.watched.len())
            .map(|i| {
                let mut status = self.status_of(i, budget, rows);
                status.flipped = status.accepted != self.watched[i].accepted;
                status
            })
            .collect::<Vec<_>>();
        for (entry, status) in self.watched.iter_mut().zip(&statuses) {
            entry.accepted = status.accepted;
        }
        let report = MonitorReport {
            statuses,
            inserted: summary.inserted,
            deleted: summary.deleted,
            touched_classes: summary.touched_classes,
        };
        od_obs::add("monitor.deltas", 1);
        od_obs::add("monitor.flips", report.flips().count() as u64);
        for (_, callback) in &mut self.subscribers {
            callback(&report);
        }
        Ok(report)
    }

    /// The current statuses of every watched OD (no flips marked).
    pub fn statuses(&self) -> Vec<OdStatus> {
        let (budget, rows) = (self.budget(), self.rows());
        (0..self.watched.len())
            .map(|i| self.status_of(i, budget, rows))
            .collect()
    }

    /// The live status of watched OD `i` (with `flipped` unset), against
    /// the current budget and alive-row count.
    fn status_of(&self, i: usize, budget: usize, rows: usize) -> OdStatus {
        let removal = self.removal_of(i);
        OdStatus {
            od: Arc::clone(&self.watched[i].od),
            removal_count: removal,
            g3: if rows == 0 {
                0.0
            } else {
                removal as f64 / rows as f64
            },
            accepted: removal <= budget,
            flipped: false,
        }
    }

    /// Reconcile an [`OdRegistry`] with the live verdicts: watched ODs holding
    /// **exactly** (removal 0) are installed for `table` if absent, all others
    /// are retracted if present.  Returns `(installed, retracted)`.
    ///
    /// Exactness — not the ε budget — gates installation, for the same reason
    /// [`Discovery::install_into`] only installs zero-error ODs: an OD that
    /// merely approximately holds is not a sound rewrite license.
    pub fn sync_registry(&self, registry: &mut OdRegistry, table: &str) -> (usize, usize) {
        // Expand the table's constraints once; installs/retracts below keep
        // the local view current, so the loop stays O(W) in watched ODs.
        let mut present: HashSet<OrderDependency> = registry.ods(table).ods().into_iter().collect();
        let mut installed = 0;
        let mut retracted = 0;
        for i in 0..self.watched.len() {
            let od = &*self.watched[i].od;
            let exact = self.removal_of(i) == 0;
            if exact && !present.contains(od) {
                registry.add_od(table, od.clone());
                present.insert(od.clone());
                installed += 1;
            } else if !exact && present.contains(od) {
                registry.remove_od(table, od);
                present.remove(od);
                retracted += 1;
            }
        }
        od_obs::add("monitor.installs", installed as u64);
        od_obs::add("monitor.retracts", retracted as u64);
        (installed, retracted)
    }

    /// Worst-statement removal count of watched OD `i` from the ledgers.
    fn removal_of(&self, i: usize) -> usize {
        let ledgers = self.stream.ledgers();
        self.watched[i]
            .ledgers
            .iter()
            .map(|&l| ledgers[l].removal_count())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::{discover_ods, DiscoveryConfig};
    use od_core::{fixtures, Value};

    #[test]
    fn monitor_tracks_flips_both_ways() {
        let rel = fixtures::example_5_taxes();
        let discovery = discover_ods(&rel, DiscoveryConfig::default());
        assert!(!discovery.ods.is_empty());
        let mut monitor = Monitor::watch_install_set(&rel, &discovery, 0.0);
        assert!(monitor.statuses().iter().all(|s| s.accepted));

        // A tuple agreeing with row 0 on income but with an absurd bracket
        // breaks income ↦ bracket.
        let mut bad = rel.tuple(0);
        bad[1] = Value::Int(999);
        let report = monitor.apply(&DeltaBatch::new().insert(bad)).unwrap();
        let flipped: Vec<_> = report.flips().collect();
        assert!(!flipped.is_empty(), "corruption must flip some OD");
        assert!(flipped.iter().all(|s| !s.accepted && s.removal_count > 0));

        // Deleting the offender flips them back.
        let heal = DeltaBatch::new().delete(report.inserted[0]);
        let healed = monitor.apply(&heal).unwrap();
        assert!(healed.flips().count() >= flipped.len());
        assert!(healed.statuses.iter().all(|s| s.accepted));
        assert_eq!(monitor.rows(), rel.len());
    }

    #[test]
    fn epsilon_budget_absorbs_small_corruption() {
        // 50 clean rows: with ε = 10% one bad tuple stays within budget, so
        // nothing flips; with ε = 0 the same delta flips the OD.
        let mut schema = od_core::Schema::new("t");
        let income = schema.add_attr("income");
        let bracket = schema.add_attr("bracket");
        let rel = od_core::Relation::from_rows(
            schema,
            (0..50i64).map(|i| vec![Value::Int(i), Value::Int(i / 10)]),
        )
        .unwrap();
        let od = OrderDependency::new(vec![income], vec![bracket]);
        let bad = vec![Value::Int(0), Value::Int(4)];

        let mut tolerant = Monitor::watch(&rel, [od.clone()], 0.1);
        let report = tolerant
            .apply(&DeltaBatch::new().insert(bad.clone()))
            .unwrap();
        assert_eq!(report.flips().count(), 0);
        assert!(report.statuses[0].accepted && report.statuses[0].g3 > 0.0);

        let mut strict = Monitor::watch(&rel, [od], 0.0);
        let report = strict.apply(&DeltaBatch::new().insert(bad)).unwrap();
        assert_eq!(report.flips().count(), 1);
        assert!(!report.statuses[0].accepted);
    }

    #[test]
    fn subscribers_are_pushed_flips_per_batch() {
        use std::sync::{Arc, Mutex};

        let rel = fixtures::example_5_taxes();
        let discovery = discover_ods(&rel, DiscoveryConfig::default());
        let mut monitor = Monitor::watch_install_set(&rel, &discovery, 0.0);

        // Two independent consumers: one counts flipped ODs, one counts
        // batches.
        let flips: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&flips);
        let flip_sub = monitor.subscribe(move |report| {
            sink.lock().unwrap().push(report.flips().count());
        });
        let batches = Arc::new(Mutex::new(0usize));
        let counter = Arc::clone(&batches);
        monitor.subscribe(move |_| *counter.lock().unwrap() += 1);

        // A clean insert: callbacks fire, nothing flips.
        let clean = rel.tuple(0);
        monitor.apply(&DeltaBatch::new().insert(clean)).unwrap();
        assert_eq!(flips.lock().unwrap().as_slice(), &[0]);

        // A corrupting insert is pushed as a flip, no polling involved.
        let mut bad = rel.tuple(0);
        bad[1] = Value::Int(999);
        let report = monitor.apply(&DeltaBatch::new().insert(bad)).unwrap();
        let broken = report.flips().count();
        assert!(broken > 0);
        assert_eq!(flips.lock().unwrap().as_slice(), &[0, broken]);
        assert_eq!(*batches.lock().unwrap(), 2);

        // Unsubscribing stops delivery for that consumer only.
        assert!(monitor.unsubscribe(flip_sub));
        assert!(!monitor.unsubscribe(flip_sub), "already detached");
        monitor
            .apply(&DeltaBatch::new().delete(report.inserted[0]))
            .unwrap();
        assert_eq!(
            flips.lock().unwrap().len(),
            2,
            "detached consumer sees nothing"
        );
        assert_eq!(*batches.lock().unwrap(), 3);
    }

    #[test]
    fn monitors_stay_send_with_subscribers_attached() {
        let rel = fixtures::example_5_taxes();
        let discovery = discover_ods(&rel, DiscoveryConfig::default());
        let mut monitor = Monitor::watch_install_set(&rel, &discovery, 0.0);
        monitor.subscribe(|_| {});
        // A subscribed monitor can still move to a worker thread.
        std::thread::spawn(move || {
            monitor
                .apply(&DeltaBatch::new().insert(rel.tuple(0)))
                .unwrap();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn sync_registry_installs_and_retracts() {
        let rel = fixtures::example_5_taxes();
        let table = rel.schema().name().to_string();
        let discovery = discover_ods(&rel, DiscoveryConfig::default());
        let mut monitor = Monitor::watch_install_set(&rel, &discovery, 0.0);
        let mut registry = OdRegistry::new();

        let (installed, retracted) = monitor.sync_registry(&mut registry, &table);
        assert_eq!(installed, discovery.ods.len());
        assert_eq!(retracted, 0);
        // Idempotent while nothing changes.
        assert_eq!(monitor.sync_registry(&mut registry, &table), (0, 0));

        // Corrupt, re-sync: broken ODs are withdrawn from the registry.
        let mut bad = rel.tuple(0);
        bad[1] = Value::Int(999);
        let report = monitor.apply(&DeltaBatch::new().insert(bad)).unwrap();
        let broken = report.statuses.iter().filter(|s| !s.accepted).count();
        assert!(broken > 0);
        let (installed, retracted) = monitor.sync_registry(&mut registry, &table);
        assert_eq!((installed, retracted), (0, broken));
        assert_eq!(
            registry.ods(&table).ods().len(),
            discovery.ods.len() - broken
        );

        // Heal, re-sync: they come back.
        monitor
            .apply(&DeltaBatch::new().delete(report.inserted[0]))
            .unwrap();
        let (installed, retracted) = monitor.sync_registry(&mut registry, &table);
        assert_eq!((installed, retracted), (broken, 0));
        assert_eq!(registry.ods(&table).ods().len(), discovery.ods.len());
    }
}
