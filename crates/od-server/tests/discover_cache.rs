//! Discovery-profile cache: `Discover`/`DiscoverStatements` responses are
//! memoized per (relation, generation, config), invalidated when an
//! `ApplyDelta` lands on one of the relation's monitors, and keyed by
//! generation so a dropped-and-recreated relation never serves a stale
//! profile.  The wire-visible contract pinned here: a cached response is
//! **byte-identical** to a fresh one — discovery is deterministic and the
//! cache stores the decoded response, so encode ∘ cache ∘ encode is the
//! identity on frames.

use od_core::{AttrId, OrderDependency, Value};
use od_discovery::{discover_ods, DiscoveryConfig};
use od_server::proto::{Request, Response};
use od_server::{Client, OdServer};
use std::net::SocketAddr;

// Tax schema columns (od_workload::tax): id, income, bracket, payable.
const INCOME: u32 = 1;
const BRACKET: u32 = 2;

fn boot(rows: usize) -> (OdServer, SocketAddr) {
    let server = OdServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let rel = od_workload::tax::generate_taxes(rows, 42);
    assert!(matches!(
        client
            .request(&Request::CreateRelation {
                name: "taxes".into(),
                relation: rel,
            })
            .unwrap(),
        Response::RelationCreated { .. }
    ));
    (server, addr)
}

fn discover_request() -> Request {
    Request::Discover {
        relation: "taxes".into(),
        max_lhs: 1,
        max_rhs: 1,
        epsilon: 0.0,
        max_context: 2,
    }
}

/// Concurrent clients hammering the same Discover (and DiscoverStatements)
/// config — first requests miss, later ones hit the cache, interleaved
/// arbitrarily across threads — must all receive frames byte-identical to a
/// fresh single-threaded reference.
#[test]
fn cached_and_fresh_discover_frames_are_byte_identical_under_concurrency() {
    let (server, addr) = boot(160);
    let mut reference_client = Client::connect(addr).unwrap();
    let reference_response = reference_client.request(&discover_request()).unwrap();
    assert!(matches!(reference_response, Response::Discovered { .. }));
    let reference = reference_response.encode();
    let statements_request = Request::DiscoverStatements {
        relation: "taxes".into(),
        max_context: 2,
    };
    let statements_reference = reference_client
        .request(&statements_request)
        .unwrap()
        .encode();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let statements_request = statements_request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut frames = Vec::new();
                for _ in 0..5 {
                    frames.push((
                        client.request(&discover_request()).unwrap().encode(),
                        client.request(&statements_request).unwrap().encode(),
                    ));
                }
                frames
            })
        })
        .collect();
    for handle in handles {
        for (discover_frame, statements_frame) in handle.join().unwrap() {
            assert_eq!(
                discover_frame, reference,
                "a cached Discover frame diverged from the fresh reference"
            );
            assert_eq!(
                statements_frame, statements_reference,
                "a cached DiscoverStatements frame diverged from the fresh reference"
            );
        }
    }
    server.shutdown();
}

/// Deltas against the relation's monitor invalidate the cached profile, and
/// the re-discovered profile (the snapshot is immutable, so it is the same
/// profile) still arrives byte-identical — concurrent invalidation never
/// tears a response.
#[test]
fn apply_delta_invalidation_preserves_byte_identity() {
    let (server, addr) = boot(160);
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client
            .request(&Request::CreateMonitor {
                name: "ledger".into(),
                relation: "taxes".into(),
                epsilon: 0.05,
                ods: vec![OrderDependency::new(
                    vec![AttrId(INCOME)],
                    vec![AttrId(BRACKET)],
                )],
            })
            .unwrap(),
        Response::MonitorCreated { .. }
    ));
    let reference = client.request(&discover_request()).unwrap().encode();

    let discoverer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        (0..20)
            .map(|_| client.request(&discover_request()).unwrap().encode())
            .collect::<Vec<_>>()
    });
    for i in 0..10u32 {
        let inserted = match client
            .request(&Request::ApplyDelta {
                monitor: "ledger".into(),
                inserts: vec![vec![
                    Value::Int(1_000_000 + i as i64),
                    Value::Int(50_000 + i as i64),
                    Value::Int(3),
                    Value::Int(15_000),
                ]],
                deletes: vec![],
            })
            .unwrap()
        {
            Response::DeltaApplied { inserted, .. } => inserted,
            other => panic!("delta failed: {other:?}"),
        };
        assert_eq!(inserted.len(), 1);
    }
    for frame in discoverer.join().unwrap() {
        assert_eq!(
            frame, reference,
            "Discover raced an invalidation and produced a different frame"
        );
    }
    server.shutdown();
}

/// Dropping a relation and recreating the name with different data must
/// re-discover: the generation stamp in the cache key makes the old entries
/// unreachable, so the stale profile is never served.
#[test]
fn recreated_relation_never_serves_the_old_profile() {
    let (server, addr) = boot(160);
    let mut client = Client::connect(addr).unwrap();
    let first = client.request(&discover_request()).unwrap();
    // Prime the cache, then replace the dataset under the same name.
    assert_eq!(client.request(&discover_request()).unwrap(), first);
    assert!(matches!(
        client
            .request(&Request::DropRelation {
                name: "taxes".into()
            })
            .unwrap(),
        Response::Ok
    ));
    // A single row: every OD holds trivially, so the profile must differ
    // from the 160-row tax table's.
    let rel = od_workload::tax::generate_taxes(1, 7);
    assert!(matches!(
        client
            .request(&Request::CreateRelation {
                name: "taxes".into(),
                relation: rel,
            })
            .unwrap(),
        Response::RelationCreated { rows: 1 }
    ));
    let second = client.request(&discover_request()).unwrap();
    let (Response::Discovered { ods: before, .. }, Response::Discovered { ods: after, .. }) =
        (&first, &second)
    else {
        panic!("expected Discovered responses, got {first:?} / {second:?}");
    };
    assert_ne!(
        before, after,
        "the recreated relation must be re-profiled, not served from cache"
    );
    // And the new profile is itself cached consistently.
    assert_eq!(client.request(&discover_request()).unwrap(), second);
    server.shutdown();
}

/// A `Discover` request's `max_context` does not reach discovery: a 3/2-wide
/// request answers with local discovery's ODs and errors at any value of it.
#[test]
fn discover_ignores_max_context() {
    let (server, addr) = boot(160);
    let mut client = Client::connect(addr).unwrap();
    let local = discover_ods(
        &od_workload::tax::generate_taxes(160, 42),
        DiscoveryConfig {
            max_lhs: 3,
            max_rhs: 2,
            ..Default::default()
        },
    );
    for max_context in [1, 4] {
        let response = client
            .request(&Request::Discover {
                relation: "taxes".into(),
                max_lhs: 3,
                max_rhs: 2,
                epsilon: 0.0,
                max_context,
            })
            .unwrap();
        assert_eq!(
            response,
            Response::Discovered {
                ods: local.ods.clone(),
                errors: local.errors.clone(),
            },
            "max_context {max_context}"
        );
    }
    server.shutdown();
}
