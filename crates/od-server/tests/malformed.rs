//! Hostile-input tests: truncated frames, oversized length prefixes, unknown
//! opcodes, garbage payloads, and mid-frame disconnects must produce a
//! protocol error or a clean close — never a panic, and never a hang (every
//! read below runs under a timeout).

use od_core::{wire, AttrId, OrderDependency};
use od_server::proto::{ErrorCode, Request, Response, ServerMessage};
use od_server::{OdServer, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const READ_TIMEOUT: Duration = Duration::from_secs(5);

fn server() -> OdServer {
    OdServer::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            // Small read cap so the oversized-prefix test does not need a
            // 32 MiB declared length to trip it.
            max_frame: 1 << 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Read one server frame (with the connection's read timeout active).
fn read_message(stream: &mut TcpStream) -> std::io::Result<ServerMessage> {
    let payload = wire::read_frame(stream, wire::MAX_FRAME_LEN)?;
    ServerMessage::decode(&payload)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
}

fn expect_error(stream: &mut TcpStream, code: ErrorCode) {
    match read_message(stream).expect("server answers before closing") {
        ServerMessage::Response(Response::Error { code: got, .. }) => assert_eq!(got, code),
        other => panic!("expected {code:?} error, got {other:?}"),
    }
}

/// The server closed our connection: the next read yields EOF (or a reset),
/// not a hang.
fn expect_close(stream: &mut TcpStream) {
    let mut buf = [0u8; 1];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Ok(_) => panic!("server kept talking after a fatal framing error"),
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {}
        Err(e) => panic!("expected clean close, got {e}"),
    }
}

/// Sanity: the connection is still alive and serving.
fn expect_pong(stream: &mut TcpStream) {
    wire::write_frame(stream, &Request::Ping.encode()).unwrap();
    match read_message(stream).expect("pong") {
        ServerMessage::Response(Response::Pong) => {}
        other => panic!("expected pong, got {other:?}"),
    }
}

#[test]
fn unknown_opcode_gets_error_and_connection_survives() {
    let server = server();
    let mut stream = connect(server.local_addr());
    // Opcode 0xEE is not part of the protocol.
    wire::write_frame(&mut stream, &[0xEE, 1, 2, 3]).unwrap();
    expect_error(&mut stream, ErrorCode::UnknownOpcode);
    // The frame boundary was intact, so the connection keeps serving.
    expect_pong(&mut stream);
    server.shutdown();
}

#[test]
fn truncated_payload_gets_protocol_error_and_connection_survives() {
    let server = server();
    let mut stream = connect(server.local_addr());
    // A DropRelation whose declared string length runs past the payload.
    let mut payload = Request::DropRelation {
        name: "abcdef".into(),
    }
    .encode();
    payload.truncate(payload.len() - 3);
    wire::write_frame(&mut stream, &payload).unwrap();
    expect_error(&mut stream, ErrorCode::Protocol);
    expect_pong(&mut stream);
    server.shutdown();
}

#[test]
fn trailing_garbage_gets_protocol_error() {
    let server = server();
    let mut stream = connect(server.local_addr());
    let mut payload = Request::Ping.encode();
    payload.extend_from_slice(b"extra");
    wire::write_frame(&mut stream, &payload).unwrap();
    expect_error(&mut stream, ErrorCode::Protocol);
    expect_pong(&mut stream);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_reports_too_large_then_closes() {
    let server = server();
    let mut stream = connect(server.local_addr());
    // Declare a 1 GiB frame (past the server's 64 KiB cap) without sending it.
    stream.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    stream.flush().unwrap();
    expect_error(&mut stream, ErrorCode::TooLarge);
    // The stream position can't be trusted after a lying prefix: closed.
    expect_close(&mut stream);
    server.shutdown();
}

#[test]
fn absurd_element_count_inside_valid_frame_is_rejected_not_allocated() {
    let server = server();
    let mut stream = connect(server.local_addr());
    // A syntactically valid small frame whose ApplyDelta declares u32::MAX
    // deletes: the decoder must refuse (count > remaining bytes) instead of
    // trying to allocate 16 GiB.
    let mut payload = vec![8u8]; // REQ_APPLY_DELTA
    wire::put_str(&mut payload, "mon");
    wire::put_u32(&mut payload, 0); // no inserts
    wire::put_u32(&mut payload, u32::MAX); // "deletes" count
    wire::write_frame(&mut stream, &payload).unwrap();
    expect_error(&mut stream, ErrorCode::Protocol);
    expect_pong(&mut stream);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_is_a_clean_close_for_the_server() {
    let server = server();
    {
        let mut stream = connect(server.local_addr());
        // Send a length prefix plus half the promised payload, then vanish.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 37]).unwrap();
        stream.flush().unwrap();
    } // drop = disconnect
      // The server must have survived: a fresh connection still works.
    let mut probe = connect(server.local_addr());
    expect_pong(&mut probe);
    server.shutdown();
}

#[test]
fn disconnect_between_frames_is_clean() {
    let server = server();
    for _ in 0..8 {
        let mut stream = connect(server.local_addr());
        expect_pong(&mut stream);
        // Drop with no pending bytes: the reader sees EOF between frames.
    }
    let mut probe = connect(server.local_addr());
    expect_pong(&mut probe);
    server.shutdown();
}

#[test]
fn zero_length_frame_is_a_protocol_error_not_a_crash() {
    let server = server();
    let mut stream = connect(server.local_addr());
    // An empty payload has no opcode byte at all.
    wire::write_frame(&mut stream, &[]).unwrap();
    expect_error(&mut stream, ErrorCode::Protocol);
    expect_pong(&mut stream);
    server.shutdown();
}

#[test]
fn byte_dribble_does_not_wedge_other_clients() {
    let server = server();
    // One client sends a frame one byte at a time with pauses…
    let mut slow = connect(server.local_addr());
    let frame = {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &Request::Ping.encode()).unwrap();
        buf
    };
    slow.write_all(&frame[..2]).unwrap();
    slow.flush().unwrap();
    // …while another client gets served normally in the meantime.
    let mut fast = connect(server.local_addr());
    expect_pong(&mut fast);
    // The slow client finishes its frame and still gets its answer.
    slow.write_all(&frame[2..]).unwrap();
    slow.flush().unwrap();
    match read_message(&mut slow).expect("dribbled ping answered") {
        ServerMessage::Response(Response::Pong) => {}
        other => panic!("expected pong, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn requests_to_missing_resources_are_errors_not_panics() {
    let server = server();
    let mut stream = connect(server.local_addr());
    for request in [
        Request::DropRelation {
            name: "ghost".into(),
        },
        Request::DropMonitor {
            name: "ghost".into(),
        },
        Request::ApplyDelta {
            monitor: "ghost".into(),
            inserts: vec![],
            deletes: vec![],
        },
        Request::MonitorStatus {
            monitor: "ghost".into(),
        },
        Request::Subscribe {
            monitor: "ghost".into(),
        },
        Request::Unsubscribe {
            monitor: "ghost".into(),
        },
    ] {
        wire::write_frame(&mut stream, &request.encode()).unwrap();
        expect_error(&mut stream, ErrorCode::NoSuchResource);
    }
    expect_pong(&mut stream);
    server.shutdown();
}

#[test]
fn implication_over_out_of_range_attributes_is_a_bad_request() {
    let server = server();
    let mut stream = connect(server.local_addr());
    let od = |lhs: u32, rhs: u32| OrderDependency::new(vec![AttrId(lhs)], vec![AttrId(rhs)]);
    // A premise past the 64-attribute set domain would panic the handler; a
    // goal with a huge id would size the decider's search pattern by it.
    for (premises, goal) in [(vec![od(64, 0)], od(0, 1)), (vec![], od(0, 1 << 20))] {
        let request = Request::Implies { premises, goal };
        wire::write_frame(&mut stream, &request.encode()).unwrap();
        expect_error(&mut stream, ErrorCode::BadRequest);
    }
    // In range, the same connection answers normally.
    let request = Request::Implies {
        premises: vec![od(0, 1)],
        goal: od(0, 1),
    };
    wire::write_frame(&mut stream, &request.encode()).unwrap();
    match read_message(&mut stream).expect("implication answered") {
        ServerMessage::Response(Response::Implication { implied }) => assert!(implied),
        other => panic!("expected an implication answer, got {other:?}"),
    }
    expect_pong(&mut stream);
    server.shutdown();
}
