//! A batch may not allocate per row, on a one-attribute key context or on
//! the large classes of holding constancy statements.  A key context's class
//! id is the key's dictionary id, a class of one member holds it inline, and
//! a batch groups its row events in buffers the monitor reuses.  A class
//! whose oldest members are deleted advances its head past them, and drops
//! that dead prefix with one in-place drain.  A holding constancy class
//! keeps one id and a size, with no map.  So deleting the k oldest rows, or
//! re-inserting them while their values are still in the dictionary, makes
//! no more allocations at k = 1,000 than at k = 10.
//!
//! This is its own test binary because it installs a counting global
//! allocator.

use od_core::{AttrSet, Relation, Schema, Tuple, Value};
use od_setbased::stream::{DeltaBatch, StreamMonitor, TupleId};
use od_setbased::SetOd;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to [`System`], counting every allocation (the default `realloc`
/// and `alloc_zeroed` go through `alloc`, so they count too).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call goes unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: i64 = 4_000;

/// Allocations made while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Delete the `k` oldest alive rows in one batch, then re-insert the same
/// rows in a second one; returns each batch's allocations.
fn delete_and_reinsert(
    monitor: &mut StreamMonitor,
    alive: &mut Vec<(TupleId, Tuple)>,
    k: usize,
) -> (usize, usize) {
    let oldest: Vec<(TupleId, Tuple)> = alive.drain(..k).collect();
    let delete = DeltaBatch {
        inserts: Vec::new(),
        deletes: oldest.iter().map(|(id, _)| *id).collect(),
    };
    let reinsert = DeltaBatch {
        inserts: oldest.into_iter().map(|(_, row)| row).collect(),
        deletes: Vec::new(),
    };
    let deleted = allocations(|| {
        monitor
            .apply_delta(&delete)
            .expect("the oldest rows are alive");
    });
    let mut summary = None;
    let inserted = allocations(|| {
        summary = Some(monitor.apply_delta(&reinsert).expect("rows fit the schema"));
    });
    let ids = summary.expect("the batch ran").inserted;
    alive.extend(ids.into_iter().zip(reinsert.inserts));
    (deleted, inserted)
}

#[test]
fn key_context_batches_make_as_many_allocations_at_any_size() {
    let mut schema = Schema::new("t");
    let key = schema.add_attr("key");
    let group = schema.add_attr("group");
    let tier = schema.add_attr("tier");
    let region = schema.add_attr("region");
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|i| {
            let g = i % 7;
            vec![
                Value::Int(i),
                Value::Int(g),
                Value::Int(g / 3),
                Value::Int(0),
            ]
        })
        .collect();
    let rel = Relation::from_rows(schema, rows.clone()).expect("rows fit the schema");
    let mut monitor = StreamMonitor::new(&rel);
    let by = |attr| -> AttrSet { [attr].into_iter().collect() };
    let statements = [
        // Every class a singleton.
        SetOd::constancy(by(key), group),
        // Seven classes of about 570 rows, each holding.
        SetOd::constancy(by(group), tier),
        // The empty context: one class of every alive row, holding.
        SetOd::constancy(AttrSet::new(), region),
    ];
    for statement in &statements {
        monitor.monitor_statement(statement);
    }
    let mut alive: Vec<(TupleId, Tuple)> = (0..).zip(rows).collect();

    // One cycle at the largest size first: the table's vectors, the reused
    // event buffers and the metric names reach their working size.
    delete_and_reinsert(&mut monitor, &mut alive, 1_000);
    let (small_delete, small_insert) = delete_and_reinsert(&mut monitor, &mut alive, 10);
    let (big_delete, big_insert) = delete_and_reinsert(&mut monitor, &mut alive, 1_000);
    eprintln!(
        "allocations: delete {small_delete} → {big_delete}, \
         re-insert {small_insert} → {big_insert} (k = 10 → 1,000)"
    );
    assert!(
        big_delete <= small_delete,
        "deleting 1,000 rows made {big_delete} allocations, 10 rows {small_delete}"
    );
    assert!(
        big_insert <= small_insert,
        "re-inserting 1,000 rows made {big_insert} allocations, 10 rows {small_insert}"
    );
    assert_eq!(monitor.alive_rows(), ROWS as usize);
    for ledger in monitor.ledgers() {
        assert_eq!(ledger.removal_count(), 0, "{}", ledger.statement());
    }
}
