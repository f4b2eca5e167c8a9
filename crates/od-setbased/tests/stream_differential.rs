//! Differential property tests for the streaming subsystem: under random
//! insert/delete interleavings, every monitored statement's
//! [`VerdictLedger`](od_setbased::VerdictLedger) removal count must equal the
//! from-scratch verdict of a fresh partition scan over the surviving rows —
//! bit for bit, after every batch — and the ε-thresholded accept/reject
//! decision derived from the ledger must match the budgeted snapshot scan at
//! ε = 0 and ε > 0.

use od_core::{AttrId, AttrSet, Relation, Schema, Value};
use od_setbased::stream::{DeltaBatch, StreamMonitor};
use od_setbased::{error_budget, validate, PartitionCache, SetOd};
use proptest::prelude::*;

const COLS: usize = 3;

/// Every non-trivial canonical statement over `COLS` attributes with a context
/// of at most `max_context` attributes — the full monitoring surface the
/// width-2 lattice would profile.
fn all_statements(max_context: usize) -> Vec<SetOd> {
    let universe: Vec<AttrId> = (0..COLS as u32).map(AttrId).collect();
    let mut contexts: Vec<AttrSet> = vec![AttrSet::new()];
    for _ in 0..max_context {
        let mut next = Vec::new();
        for ctx in &contexts {
            for &a in &universe {
                if !ctx.contains(a) {
                    let mut bigger = *ctx;
                    bigger.insert(a);
                    next.push(bigger);
                }
            }
        }
        contexts.extend(next);
        contexts.sort();
        contexts.dedup();
    }
    let mut out = Vec::new();
    for ctx in &contexts {
        for &a in &universe {
            let c = SetOd::constancy(*ctx, a);
            if !c.is_trivial() {
                out.push(c);
            }
            for &b in &universe {
                if b > a {
                    let k = SetOd::compatibility(*ctx, a, b);
                    if !k.is_trivial() {
                        out.push(k);
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn schema() -> Schema {
    let mut s = Schema::new("stream");
    for i in 0..COLS {
        s.add_attr(format!("c{i}"));
    }
    s
}

fn to_row(vals: Vec<i64>) -> Vec<Value> {
    vals.into_iter()
        .map(|v| if v < 0 { Value::Null } else { Value::Int(v) })
        .collect()
}

/// Strategy: initial rows plus a sequence of batches.  Each batch carries rows
/// to insert and "delete picks" — indices resolved against the alive-id list
/// at apply time, so every delete hits a live tuple regardless of history.
/// Values in `-1..4` (small domains force splits/swaps; `-1` becomes NULL).
#[allow(clippy::type_complexity)]
fn workload_strategy() -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<(Vec<Vec<i64>>, Vec<u64>)>)> {
    let row = || prop::collection::vec(-1i64..4, COLS);
    let batch = (
        prop::collection::vec(row(), 0..4),
        prop::collection::vec(0u64..1_000, 0..4),
    );
    (
        prop::collection::vec(row(), 0..10),
        prop::collection::vec(batch, 1..6),
    )
}

/// A cell of a mixed-type column: NULL, strings, floats (NaN and both zeros
/// included), dates, and ints share every column.
fn mixed_cell((kind, v): (u8, i64)) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Str(format!("s{v}")),
        2 => Value::Float([-1.5, 0.0, -0.0, f64::NAN, 2.5, 7.0][v as usize % 6]),
        3 => Value::Date(v as i32),
        _ => Value::Int(v),
    }
}

fn mixed_row(cells: Vec<(u8, i64)>) -> Vec<Value> {
    cells.into_iter().map(mixed_cell).collect()
}

/// Strategy: mixed-type initial rows over a small value domain, batches over
/// a larger one (so most new distinct values first arrive in a batch), and
/// the index of the batch after which the monitor compacts.
#[allow(clippy::type_complexity)]
fn mixed_workload_strategy() -> impl Strategy<
    Value = (
        Vec<Vec<(u8, i64)>>,
        Vec<(Vec<Vec<(u8, i64)>>, Vec<u64>)>,
        usize,
    ),
> {
    let row = |domain: i64| prop::collection::vec((0u8..5, 0..domain), COLS);
    let batch = (
        prop::collection::vec(row(6), 0..5),
        prop::collection::vec(0u64..1_000, 0..4),
    );
    (
        prop::collection::vec(row(2), 0..10),
        prop::collection::vec(batch, 1..7),
        0usize..6,
    )
}

/// Strategy: 100–300 initial rows over the values `0..3`, so classes are
/// large and `(A, B)` pairs repeat, then 30–60 single-row steps, each a
/// delete pick (kind 0) or an insert of its row (kind 1).
#[allow(clippy::type_complexity)]
fn churn_strategy() -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<(u8, Vec<i64>, u64)>)> {
    let row = || prop::collection::vec(0i64..3, COLS);
    (
        prop::collection::vec(row(), 100..300),
        prop::collection::vec((0u8..2, row(), 0u64..1_000), 30..60),
    )
}

/// From-scratch oracle: exact removal count of one statement over a snapshot.
fn oracle_removal(rel: &Relation, stmt: &SetOd) -> usize {
    let mut cache = PartitionCache::new(rel);
    validate::statement_verdict(&mut cache, stmt, 1, usize::MAX).removal_count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ledger invariant: delta-maintained removal counts equal full
    /// recomputation for every monitored statement after every batch, and the
    /// accept/reject decision agrees with the budgeted snapshot scan at ε = 0
    /// and ε > 0.
    #[test]
    fn ledgers_match_full_recompute_under_interleavings(
        workload in workload_strategy()
    ) {
        let (initial, batches) = workload;
        let rel = Relation::from_rows(schema(), initial.into_iter().map(to_row))
            .expect("fixed arity");
        let stmts = all_statements(2);
        let mut monitor = StreamMonitor::new(&rel);
        for stmt in &stmts {
            monitor.monitor_statement(stmt);
        }
        // Mirror of the alive ids, used to resolve delete picks.
        let mut alive: Vec<u32> = (0..rel.len() as u32).collect();

        for (inserts, delete_picks) in batches {
            let mut batch = DeltaBatch::new();
            for pick in delete_picks {
                if alive.is_empty() {
                    break;
                }
                let idx = (pick % alive.len() as u64) as usize;
                batch = batch.delete(alive.swap_remove(idx));
            }
            for row in inserts {
                batch = batch.insert(to_row(row));
            }
            let summary = monitor.apply_delta(&batch).expect("batch is valid");
            alive.extend(summary.inserted);

            let snapshot = monitor.to_relation();
            prop_assert_eq!(snapshot.len(), alive.len());
            let n = snapshot.len();
            for stmt in &stmts {
                let ledger = monitor.statement_removal(stmt).expect("monitored");
                // Exact counts agree with the unbudgeted snapshot scan.
                prop_assert_eq!(
                    ledger,
                    oracle_removal(&snapshot, stmt),
                    "ledger drift on {} with {} rows", stmt, n
                );
                // ε decisions agree with the budgeted snapshot scan (which may
                // short-circuit — its `within` answer is still exact).
                for epsilon in [0.0, 0.1, 0.5] {
                    let budget = error_budget(n, epsilon);
                    let mut cache = PartitionCache::new(&snapshot);
                    let scanned =
                        validate::statement_verdict(&mut cache, stmt, 1, budget);
                    prop_assert_eq!(
                        ledger <= budget,
                        scanned.within(budget),
                        "ε = {} decision drift on {}", epsilon, stmt
                    );
                }
            }
        }
    }

    /// Mixed-type columns through a mid-stream compaction: after every batch
    /// the decoded table equals an independently kept mirror of the alive
    /// rows, row for row in id order, and every ledger equals a fresh scan
    /// of the mirror.  Delete picks resolve against the mirror, whose ids are
    /// renumbered densely (in id order) when the monitor compacts.
    #[test]
    fn mixed_types_compaction_and_decoding_match_a_mirror(
        workload in mixed_workload_strategy()
    ) {
        let (initial, batches, compact_after) = workload;
        let initial: Vec<Vec<Value>> = initial.into_iter().map(mixed_row).collect();
        let rel = Relation::from_rows(schema(), initial.clone()).expect("fixed arity");
        let stmts = all_statements(2);
        let mut monitor = StreamMonitor::new(&rel);
        for stmt in &stmts {
            monitor.monitor_statement(stmt);
        }
        // The alive rows with their tuple ids, ascending by id.
        let mut mirror: Vec<(u32, Vec<Value>)> = (0..).zip(initial).collect();

        for (i, (inserts, delete_picks)) in batches.into_iter().enumerate() {
            let mut batch = DeltaBatch::new();
            for pick in delete_picks {
                if mirror.is_empty() {
                    break;
                }
                let (id, _) = mirror.remove((pick % mirror.len() as u64) as usize);
                batch = batch.delete(id);
            }
            batch.inserts = inserts.into_iter().map(mixed_row).collect();
            let summary = monitor.apply_delta(&batch).expect("batch is valid");
            mirror.extend(summary.inserted.into_iter().zip(batch.inserts));

            if i == compact_after {
                let total = monitor.total_rows();
                let compacted = monitor.compact();
                prop_assert_eq!(compacted.dead_ids_reclaimed, total - mirror.len());
                for (new_id, entry) in (0..).zip(mirror.iter_mut()) {
                    entry.0 = new_id;
                }
            }

            let decoded = monitor.to_relation();
            prop_assert_eq!(decoded.len(), mirror.len());
            for (row, (id, expected)) in decoded.iter().zip(&mirror) {
                prop_assert!(monitor.is_alive(*id), "mirror id {} is dead", id);
                prop_assert_eq!(&row, expected);
            }
            let oracle_input =
                Relation::from_rows(schema(), mirror.iter().map(|(_, row)| row.clone()))
                    .expect("fixed arity");
            for stmt in &stmts {
                prop_assert_eq!(
                    monitor.statement_removal(stmt),
                    Some(oracle_removal(&oracle_input, stmt)),
                    "ledger drift on {} after batch {}", stmt, i
                );
            }
        }
    }

    /// Ledger maintenance is insertion-order independent: applying the same
    /// rows as one batch or as singleton batches lands on identical counts.
    #[test]
    fn batch_granularity_does_not_change_counts(
        rows in prop::collection::vec(prop::collection::vec(-1i64..4, COLS), 1..12)
    ) {
        let empty = Relation::from_rows(schema(), std::iter::empty()).expect("empty");
        let stmts = all_statements(2);

        let mut bulk = StreamMonitor::new(&empty);
        let mut one_by_one = StreamMonitor::new(&empty);
        for stmt in &stmts {
            bulk.monitor_statement(stmt);
            one_by_one.monitor_statement(stmt);
        }

        let mut batch = DeltaBatch::new();
        for row in &rows {
            batch = batch.insert(to_row(row.clone()));
            one_by_one
                .apply_delta(&DeltaBatch::new().insert(to_row(row.clone())))
                .expect("singleton insert");
        }
        bulk.apply_delta(&batch).expect("bulk insert");

        for stmt in &stmts {
            prop_assert_eq!(
                bulk.statement_removal(stmt),
                one_by_one.statement_removal(stmt),
                "granularity drift on {}", stmt
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-row deltas are where a ledger advances by its local descent
    /// updates and settles most counts by the `[r − d, r + i]` bound instead
    /// of an LIS pass: after every step, every ledger equals a fresh scan.
    #[test]
    fn single_row_churn_matches_full_recompute_at_every_step(
        workload in churn_strategy()
    ) {
        let (initial, steps) = workload;
        let rel = Relation::from_rows(schema(), initial.into_iter().map(to_row))
            .expect("fixed arity");
        let stmts = all_statements(2);
        let mut monitor = StreamMonitor::new(&rel);
        for stmt in &stmts {
            monitor.monitor_statement(stmt);
        }
        let mut alive: Vec<u32> = (0..rel.len() as u32).collect();

        for (step, (kind, row, pick)) in steps.into_iter().enumerate() {
            let batch = if kind == 0 && !alive.is_empty() {
                let idx = (pick % alive.len() as u64) as usize;
                DeltaBatch::new().delete(alive.swap_remove(idx))
            } else {
                DeltaBatch::new().insert(to_row(row))
            };
            let summary = monitor.apply_delta(&batch).expect("batch is valid");
            alive.extend(summary.inserted);

            // One cache per step: the oracle scans share its partitions.
            let snapshot = monitor.to_relation();
            let mut cache = PartitionCache::new(&snapshot);
            for stmt in &stmts {
                let oracle = validate::statement_verdict(&mut cache, stmt, 1, usize::MAX);
                prop_assert_eq!(
                    monitor.statement_removal(stmt),
                    Some(oracle.removal_count),
                    "ledger drift on {} after step {}", stmt, step
                );
            }
        }
    }
}

/// Contexts of three or more attributes key their classes by id tuples, a
/// path no statement over `COLS` columns reaches.  On four columns, every
/// statement over a three-attribute context is monitored through
/// interleaved inserts and deletes: a class that empties and whose id a new
/// key takes, a renumbering of a context column, and a compaction.  After
/// every batch each ledger equals a fresh scan.
#[test]
fn three_attribute_contexts_match_full_recompute_at_every_batch() {
    let mut schema = Schema::new("wide");
    for i in 0..4 {
        schema.add_attr(format!("w{i}"));
    }
    let row = |a: i64, b: i64, x: f64, y: i64| {
        vec![Value::Int(a), Value::Int(b), Value::Float(x), Value::Int(y)]
    };
    let initial = vec![
        row(0, 0, 0.0, 0),
        row(0, 0, 0.0, 1),
        row(0, 1, 0.0, 0),
        row(1, 1, 1.0, 1),
        row(1, 1, 1.0, 1),
        row(1, 1, 1.0, 0),
    ];
    let rel = Relation::from_rows(schema, initial).expect("fixed arity");
    let stmts: Vec<SetOd> = (0..4)
        .map(|a| {
            let context: AttrSet = (0..4).filter(|&c| c != a).map(AttrId).collect();
            SetOd::constancy(context, AttrId(a))
        })
        .collect();
    let mut monitor = StreamMonitor::new(&rel);
    for stmt in &stmts {
        assert!(!stmt.is_trivial());
        monitor.monitor_statement(stmt);
    }
    let check = |monitor: &StreamMonitor, step: &str| {
        let snapshot = monitor.to_relation();
        let mut cache = PartitionCache::new(&snapshot);
        for stmt in &stmts {
            let oracle = validate::statement_verdict(&mut cache, stmt, 1, usize::MAX);
            assert_eq!(
                monitor.statement_removal(stmt),
                Some(oracle.removal_count),
                "ledger drift on {stmt} after {step}"
            );
        }
    };
    check(&monitor, "monitoring");

    // Empty the class (0, 0, 0.0), then let a new key take its released id
    // beside a new member of a violating class.
    let batch = DeltaBatch::new()
        .delete(0)
        .delete(1)
        .insert(row(2, 2, 2.0, 0));
    monitor.apply_delta(&batch).expect("valid batch");
    check(&monitor, "emptying a class");
    let batch = DeltaBatch::new()
        .delete(2)
        .insert(row(3, 3, 0.5, 0))
        .insert(row(3, 3, 0.5, 1))
        .insert(row(1, 1, 1.0, 0));
    monitor.apply_delta(&batch).expect("valid batch");
    check(&monitor, "reusing a released class id");
    let batch = DeltaBatch::new()
        .insert(row(0, 0, 0.0, 0))
        .insert(row(0, 0, 0.0, 1));
    monitor.apply_delta(&batch).expect("valid batch");
    check(&monitor, "re-opening the emptied key");

    // Bisect w2 towards 0.5 from below until its code gap is exhausted: each
    // new value opens a class, and every other batch deletes an older one.
    let mut x = 0.0;
    let mut older = Vec::new();
    for i in 0..40 {
        x += (0.5 - x) / 2.0;
        let mut batch = DeltaBatch::new()
            .insert(row(3, 3, x, i % 2))
            .insert(row(3, 3, x, 0));
        if i % 2 == 1 {
            batch = batch.delete(older.remove(0));
        }
        older.extend(monitor.apply_delta(&batch).expect("valid batch").inserted);
        check(&monitor, &format!("bisection step {i}"));
    }
    assert!(monitor.stats.renumbers >= 1, "w2 must renumber");

    monitor.compact();
    check(&monitor, "compaction");
    let last = monitor.alive_rows() as u32 - 1;
    let batch = DeltaBatch::new()
        .delete(0)
        .delete(last)
        .insert(row(3, 3, 0.5, 1))
        .insert(row(9, 9, 9.0, 9));
    monitor.apply_delta(&batch).expect("valid batch");
    check(&monitor, "a batch after compaction");
}

/// A sliding window over time-ordered rows, the way a fact table or a date
/// dimension grows: every batch deletes the oldest rows and inserts fresh
/// ones whose key and date lie above every value seen so far.  Statements
/// over contexts of width 0 to 3 hold throughout, except one constancy
/// statement that a fresh row breaks and its delete heals, before the
/// monitor compacts mid-run.  After every batch each ledger equals a fresh
/// scan, and the witnesses it samples from its classes' members name alive
/// tuples only.
#[test]
fn sliding_window_of_time_ordered_rows_matches_full_recompute() {
    const WINDOW: i64 = 120;
    const BATCH: i64 = 10;
    let mut schema = Schema::new("window");
    let [key, day, month, year, quarter, region, flag] =
        ["key", "day", "month", "year", "quarter", "region", "flag"].map(|n| schema.add_attr(n));
    let row = |d: i64, flagged: bool| {
        let m = (d / 30) % 12;
        vec![
            Value::Int(1_000 + 2 * d + flagged as i64),
            Value::Date(d as i32),
            Value::Int(m),
            Value::Int(d / 360),
            Value::Int(m / 3),
            Value::Int(0),
            Value::Int(flagged as i64),
        ]
    };
    let ctx = |attrs: &[AttrId]| -> AttrSet { attrs.iter().copied().collect() };
    let broken = SetOd::constancy(ctx(&[quarter]), flag);
    let stmts = [
        SetOd::constancy(AttrSet::new(), region),
        SetOd::compatibility(AttrSet::new(), key, day),
        SetOd::compatibility(AttrSet::new(), month, day),
        SetOd::constancy(ctx(&[month]), quarter),
        SetOd::compatibility(ctx(&[year]), key, day),
        broken,
        SetOd::constancy(ctx(&[year, month]), quarter),
        SetOd::compatibility(ctx(&[year, month]), day, key),
        SetOd::constancy(ctx(&[year, month, quarter]), region),
    ];
    let rel = Relation::from_rows(schema, (0..WINDOW).map(|d| row(d, false))).expect("fixed arity");
    let mut monitor = StreamMonitor::new(&rel);
    for stmt in &stmts {
        assert!(!stmt.is_trivial());
        monitor.monitor_statement(stmt);
    }
    // The alive ids, oldest first.
    let mut alive: std::collections::VecDeque<u32> = (0..WINDOW as u32).collect();
    let mut offender = None;
    for (step, next) in (WINDOW..).step_by(BATCH as usize).take(40).enumerate() {
        let mut batch = DeltaBatch::new();
        batch.deletes = alive.drain(..BATCH as usize).collect();
        batch.inserts = (next..next + BATCH).map(|d| row(d, false)).collect();
        match step {
            // A flagged copy of the newest day breaks `quarter ↦ flag`...
            5 => batch.inserts.push(row(next + BATCH - 1, true)),
            // ...and deleting it heals the statement.
            12 => batch.deletes.extend(offender.take()),
            _ => {}
        }
        let summary = monitor.apply_delta(&batch).expect("valid batch");
        if step == 5 {
            offender = summary.inserted.last().copied();
            alive.extend(&summary.inserted[..BATCH as usize]);
        } else {
            alive.extend(summary.inserted);
        }
        if step == 20 {
            monitor.compact();
            // Compaction renumbers the alive rows densely in id order; the
            // offender is gone by now, so the window is every alive row.
            alive = (0..alive.len() as u32).collect();
        }

        let snapshot = monitor.to_relation();
        let mut cache = PartitionCache::new(&snapshot);
        for stmt in &stmts {
            let oracle = validate::statement_verdict(&mut cache, stmt, 1, usize::MAX);
            assert_eq!(
                monitor.statement_removal(stmt),
                Some(oracle.removal_count),
                "ledger drift on {stmt} after batch {step}"
            );
            let verdict = monitor.statement_verdict(stmt).expect("monitored");
            assert_eq!(
                verdict.violating_pairs.is_empty(),
                oracle.removal_count == 0
            );
            for (x, y) in verdict.violating_pairs {
                assert!(
                    monitor.is_alive(x) && monitor.is_alive(y),
                    "{stmt}: ({x}, {y})"
                );
            }
        }
        let expected = usize::from((5..12).contains(&step));
        assert_eq!(monitor.statement_removal(&broken), Some(expected));
    }
}
