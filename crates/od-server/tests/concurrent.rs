//! Concurrent-client determinism: N threads interleaving delta batches and
//! queries against one hosted monitor must land on final ledger verdicts
//! **bit-identical** to a single-threaded replay of the same batches.
//!
//! The argument being pinned: ledger verdicts depend only on the final alive
//! multiset, each thread deletes a disjoint slice of the snapshot's tuple ids
//! and inserts its own rows, so every interleaving ends on the same multiset —
//! and therefore the same `removal_count`s, byte for byte.

use od_core::wire;
use od_core::{AttrId, OrderDependency, Tuple, Value};
use od_server::proto::{Request, Response, ServerMessage};
use od_server::{Client, OdServer};
use std::net::SocketAddr;

const INITIAL_ROWS: usize = 240;
const THREADS: usize = 4;
const BATCHES_PER_THREAD: usize = 8;
const EPSILON: f64 = 0.02;

// Tax schema columns (od_workload::tax): id, income, bracket, payable.
const INCOME: u32 = 1;
const BRACKET: u32 = 2;
const PAYABLE: u32 = 3;

fn watched_ods() -> Vec<OrderDependency> {
    vec![
        OrderDependency::new(vec![AttrId(INCOME)], vec![AttrId(BRACKET)]),
        OrderDependency::new(vec![AttrId(INCOME)], vec![AttrId(PAYABLE)]),
        OrderDependency::new(vec![AttrId(BRACKET)], vec![AttrId(PAYABLE)]),
    ]
}

/// The delta batch thread `t` submits as its `b`-th batch — a pure function
/// of `(t, b)`, so the serial replay reuses the exact same data.  Violating
/// rows (high income, bracket 1) push `income ↦ bracket` over the ε budget;
/// deletes consume a per-thread disjoint slice of the initial snapshot's ids.
fn batch_for(t: usize, b: usize) -> (Vec<Tuple>, Vec<u32>) {
    let mut inserts = Vec::new();
    for i in 0..3 {
        let k = (t * BATCHES_PER_THREAD + b) * 3 + i;
        let income = 300_000 + (k as i64 * 1_237) % 50_000;
        // Deliberately wrong bracket for every third row.
        let bracket = if k.is_multiple_of(3) { 1 } else { 6 };
        inserts.push(vec![
            Value::Int(1_000_000 + k as i64),
            Value::Int(income),
            Value::Int(bracket),
            Value::Int(income / 10 * bracket),
        ]);
    }
    let per_thread = INITIAL_ROWS / THREADS;
    let base = t * per_thread;
    let deletes = if b < 4 {
        vec![(base + b * 2) as u32, (base + b * 2 + 1) as u32]
    } else {
        Vec::new()
    };
    (inserts, deletes)
}

/// Boot a server hosting the tax relation and a monitor watching `watched_ods`.
fn boot() -> (OdServer, SocketAddr) {
    let server = OdServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let rel = od_workload::tax::generate_taxes(INITIAL_ROWS, 42);
    assert!(matches!(
        client
            .request(&Request::CreateRelation {
                name: "taxes".into(),
                relation: rel,
            })
            .unwrap(),
        Response::RelationCreated { .. }
    ));
    match client
        .request(&Request::CreateMonitor {
            name: "ledger".into(),
            relation: "taxes".into(),
            epsilon: EPSILON,
            ods: watched_ods(),
        })
        .unwrap()
    {
        Response::MonitorCreated { watched } => assert_eq!(watched, 3),
        other => panic!("monitor create failed: {other:?}"),
    }
    (server, addr)
}

/// Encoded bytes of the monitor's final `Statuses` response.
fn final_status_bytes(addr: SocketAddr) -> Vec<u8> {
    let mut client = Client::connect(addr).unwrap();
    let response = client
        .request(&Request::MonitorStatus {
            monitor: "ledger".into(),
        })
        .unwrap();
    match &response {
        Response::Statuses { rows, statuses } => {
            assert_eq!(statuses.len(), 3);
            // Sanity on the expected end state: all deletes and inserts landed.
            let expected = INITIAL_ROWS - THREADS * 8 + THREADS * BATCHES_PER_THREAD * 3;
            assert_eq!(*rows, expected as u64);
        }
        other => panic!("expected statuses, got {other:?}"),
    }
    response.encode()
}

fn apply(client: &mut Client, t: usize, b: usize) {
    let (inserts, deletes) = batch_for(t, b);
    match client
        .request(&Request::ApplyDelta {
            monitor: "ledger".into(),
            inserts,
            deletes,
        })
        .unwrap()
    {
        Response::DeltaApplied { .. } => {}
        other => panic!("delta failed: {other:?}"),
    }
}

#[test]
fn concurrent_clients_match_serial_replay_bit_for_bit() {
    // Serial reference: one client applies every batch in a fixed order.
    let (server, addr) = boot();
    let mut client = Client::connect(addr).unwrap();
    for t in 0..THREADS {
        for b in 0..BATCHES_PER_THREAD {
            apply(&mut client, t, b);
        }
    }
    let serial = final_status_bytes(addr);
    server.shutdown();

    // Concurrent run: same batches, one thread per client, racing, with
    // status and implication queries interleaved between deltas.
    let (server, addr) = boot();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for b in 0..BATCHES_PER_THREAD {
                    apply(&mut client, t, b);
                    // Interleave read-only queries to stress the router.
                    let status = client
                        .request(&Request::MonitorStatus {
                            monitor: "ledger".into(),
                        })
                        .unwrap();
                    assert!(matches!(status, Response::Statuses { .. }));
                    let implied = client
                        .request(&Request::Implies {
                            premises: watched_ods(),
                            goal: OrderDependency::new(
                                vec![AttrId(INCOME)],
                                vec![AttrId(BRACKET), AttrId(PAYABLE)],
                            ),
                        })
                        .unwrap();
                    assert_eq!(implied, Response::Implication { implied: true });
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    let concurrent = final_status_bytes(addr);
    server.shutdown();

    assert_eq!(
        serial, concurrent,
        "final ledger verdicts must be bit-identical to single-threaded replay"
    );
}

/// Same monitor driven through two servers in sequence with identical input
/// must also produce identical bytes — pins server-level determinism (no
/// wall-clock, map-iteration, or thread-id leakage into responses).
#[test]
fn repeated_serial_runs_are_bit_identical() {
    let run = || {
        let (server, addr) = boot();
        let mut client = Client::connect(addr).unwrap();
        let mut transcript = Vec::new();
        for t in 0..THREADS {
            for b in 0..BATCHES_PER_THREAD {
                let (inserts, deletes) = batch_for(t, b);
                let response = client
                    .request(&Request::ApplyDelta {
                        monitor: "ledger".into(),
                        inserts,
                        deletes,
                    })
                    .unwrap();
                transcript.extend_from_slice(&response.encode());
            }
        }
        transcript.extend_from_slice(&final_status_bytes(addr));
        server.shutdown();
        transcript
    };
    assert_eq!(run(), run());
}

/// The wire view of a monitor matches the in-process monitor exactly: every
/// removal count the server reports equals what a local `Monitor` fed the
/// same batches computes.
#[test]
fn wire_statuses_match_in_process_monitor() {
    let (server, addr) = boot();
    let mut client = Client::connect(addr).unwrap();
    let rel = od_workload::tax::generate_taxes(INITIAL_ROWS, 42);
    let mut local = od_discovery::Monitor::watch(&rel, watched_ods(), EPSILON);
    for t in 0..THREADS {
        for b in 0..BATCHES_PER_THREAD {
            apply(&mut client, t, b);
            let (inserts, deletes) = batch_for(t, b);
            let mut batch = od_setbased::stream::DeltaBatch::new();
            batch.inserts = inserts;
            batch.deletes = deletes;
            local.apply(&batch).unwrap();
        }
    }
    let wire_bytes = final_status_bytes(addr);
    let reference = Response::Statuses {
        rows: local.rows() as u64,
        statuses: local
            .statuses()
            .iter()
            .map(|s| od_server::proto::WireOdStatus {
                od: (*s.od).clone(),
                removal_count: s.removal_count as u64,
                accepted: s.accepted,
                flipped: s.flipped,
            })
            .collect(),
    };
    assert_eq!(wire_bytes, reference.encode());
    // And the framing machinery agrees end to end.
    let decoded = ServerMessage::decode(&wire_bytes).unwrap();
    assert!(matches!(
        decoded,
        ServerMessage::Response(Response::Statuses { .. })
    ));
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &wire_bytes).unwrap();
    assert_eq!(
        wire::read_frame(&mut &framed[..], wire::MAX_FRAME_LEN).unwrap(),
        wire_bytes
    );
    server.shutdown();
}
