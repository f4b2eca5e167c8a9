//! # od-server — the wire-protocol service layer
//!
//! Everything below this crate operates on in-process values; this crate
//! turns the workspace into a *service*: a long-running TCP server hosting
//! [`Relation`](od_core::Relation)s and live
//! [`Monitor`](od_discovery::Monitor)s as **named resources**, with clients
//! submitting delta batches, discovery runs, and implication queries over a
//! length-prefixed binary protocol — and receiving verdict-flip
//! notifications pushed over subscribed connections.
//!
//! ## Protocol in one paragraph
//!
//! Every frame is `u32` little-endian payload length + payload (see
//! [`od_core::wire`]).  Client→server payloads start with a request opcode
//! byte ([`proto::Request`]); server→client payloads start with a kind byte —
//! `0` response, `1` notification — then their own opcode
//! ([`proto::ServerMessage`]).  All integers are fixed-width little-endian;
//! attribute sets travel as raw `u64` bitmasks, so a canonical statement's
//! context costs eight bytes on the wire exactly as it does in memory.
//! Requests on one connection are answered in order, one response each;
//! notifications may interleave between responses but never split a frame.
//!
//! ## Determinism
//!
//! The service keeps the workspace's reproducibility contract: verdicts are
//! integer-exact (`removal_count`, never floats, cross the wire in
//! [`proto::WireOdStatus`]), per-monitor flip sequences are contiguous, and
//! concurrent clients driving one monitor land on final verdicts
//! bit-identical to a single-threaded replay of the same batches (pinned by
//! this crate's integration tests).  The `benchmark` package's
//! `serve-mixed` workload times the server end to end.
//!
//! ```no_run
//! use od_server::{Client, OdServer, proto::{Request, Response}};
//!
//! let server = OdServer::bind("127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let pong = client.request(&Request::Ping).unwrap();
//! assert!(matches!(pong, Response::Pong));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use server::{OdServer, ServerConfig};
