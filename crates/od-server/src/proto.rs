//! The od-server message protocol: typed requests, responses, and
//! notifications over the [`od_core::wire`] codec.
//!
//! ## Frame format
//!
//! Every message travels in one length-prefixed frame (`u32 LE` payload
//! length + payload, see [`od_core::wire`]).  Payload layouts:
//!
//! | direction       | payload                                             |
//! |-----------------|-----------------------------------------------------|
//! | client → server | `[opcode: u8]` + request body                       |
//! | server → client | `[kind: u8]` + `[opcode: u8]` + body                |
//!
//! where `kind` is [`MSG_RESPONSE`] or [`MSG_NOTIFICATION`].  Requests need
//! no kind byte — a client only ever receives; a server only ever receives
//! requests.  Responses answer requests **in order** on each connection;
//! notification frames may interleave between responses at any point after a
//! [`Request::Subscribe`].
//!
//! Attribute sets (lattice contexts, candidate sets) are serialized as raw
//! `u64` bitmasks; attribute lists as `u32` id sequences; every integer is
//! fixed-width little-endian.  Encoding is canonical: for any message,
//! `encode ∘ decode ∘ encode == encode` bit-for-bit (pinned by the protocol
//! round-trip proptests).

use od_core::wire::{
    get_od, get_relation, get_tuple, put_od, put_relation, put_tuple, Reader, WireError, WireResult,
};
use od_core::{wire, OrderDependency, Relation, Tuple};
use od_setbased::wire::{get_statement, put_statement};
use od_setbased::SetOd;

/// Server→client frame kind: a response to a request.
pub const MSG_RESPONSE: u8 = 0;
/// Server→client frame kind: an unsolicited subscription notification.
pub const MSG_NOTIFICATION: u8 = 1;

/// Machine-readable failure category carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request payload did not decode (framing was still intact).
    Protocol,
    /// The request's opcode byte is not part of this protocol version.
    UnknownOpcode,
    /// A named relation or monitor does not exist.
    NoSuchResource,
    /// A create collided with an existing resource of the same name.
    DuplicateResource,
    /// The request decoded but its content was unusable (bad arity, stream
    /// error, >64-attribute schema, …).
    BadRequest,
    /// A frame or embedded object exceeded a size cap.
    TooLarge,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Protocol => 0,
            ErrorCode::UnknownOpcode => 1,
            ErrorCode::NoSuchResource => 2,
            ErrorCode::DuplicateResource => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::TooLarge => 5,
            ErrorCode::ShuttingDown => 6,
        }
    }

    fn from_tag(tag: u8) -> WireResult<Self> {
        Ok(match tag {
            0 => ErrorCode::Protocol,
            1 => ErrorCode::UnknownOpcode,
            2 => ErrorCode::NoSuchResource,
            3 => ErrorCode::DuplicateResource,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::TooLarge,
            6 => ErrorCode::ShuttingDown,
            tag => {
                return Err(WireError::InvalidTag {
                    what: "ErrorCode",
                    tag,
                })
            }
        })
    }
}

/// One watched OD's live verdict as it crosses the wire: the exact ledger
/// removal count plus the ε-boundary accept/flip bits.  `g3` itself is not
/// transmitted — it is `removal_count / rows`, and shipping only integers
/// keeps the message (and the load harness's deterministic artifacts)
/// float-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOdStatus {
    /// The watched OD.
    pub od: OrderDependency,
    /// Worst canonical statement's exact `g3` removal count.
    pub removal_count: u64,
    /// Within the monitor's ε budget right now?
    pub accepted: bool,
    /// Did `accepted` change in the batch this status reports on?
    pub flipped: bool,
}

fn put_status(buf: &mut Vec<u8>, s: &WireOdStatus) {
    put_od(buf, &s.od);
    wire::put_u64(buf, s.removal_count);
    wire::put_bool(buf, s.accepted);
    wire::put_bool(buf, s.flipped);
}

fn get_status(r: &mut Reader<'_>) -> WireResult<WireOdStatus> {
    Ok(WireOdStatus {
        od: get_od(r)?,
        removal_count: r.u64()?,
        accepted: r.bool()?,
        flipped: r.bool()?,
    })
}

fn put_statuses(buf: &mut Vec<u8>, statuses: &[WireOdStatus]) {
    wire::put_u32(buf, statuses.len() as u32);
    for s in statuses {
        put_status(buf, s);
    }
}

fn get_statuses(r: &mut Reader<'_>) -> WireResult<Vec<WireOdStatus>> {
    let n = r.seq_len(8)?;
    (0..n).map(|_| get_status(r)).collect()
}

fn put_ods(buf: &mut Vec<u8>, ods: &[OrderDependency]) {
    wire::put_u32(buf, ods.len() as u32);
    for od in ods {
        put_od(buf, od);
    }
}

fn get_ods(r: &mut Reader<'_>) -> WireResult<Vec<OrderDependency>> {
    let n = r.seq_len(8)?;
    (0..n).map(|_| get_od(r)).collect()
}

// Request opcodes.
const REQ_PING: u8 = 0;
const REQ_CREATE_RELATION: u8 = 1;
const REQ_DROP_RELATION: u8 = 2;
const REQ_LIST_RESOURCES: u8 = 3;
const REQ_DISCOVER: u8 = 4;
const REQ_DISCOVER_STATEMENTS: u8 = 5;
const REQ_CREATE_MONITOR: u8 = 6;
const REQ_DROP_MONITOR: u8 = 7;
const REQ_APPLY_DELTA: u8 = 8;
const REQ_MONITOR_STATUS: u8 = 9;
const REQ_IMPLIES: u8 = 10;
const REQ_SUBSCRIBE: u8 = 11;
const REQ_UNSUBSCRIBE: u8 = 12;
const REQ_SHUTDOWN: u8 = 13;

/// A client request.  Every variant is answered by exactly one [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Host `relation` under `name`.
    CreateRelation {
        /// Resource name, unique among hosted relations.
        name: String,
        /// The full relation (schema + rows).
        relation: Relation,
    },
    /// Drop a hosted relation.  Monitors created from it keep their own
    /// snapshot and are unaffected.
    DropRelation {
        /// Resource name.
        name: String,
    },
    /// Enumerate hosted relations and monitors.
    ListResources,
    /// Run OD discovery over a hosted relation.
    Discover {
        /// Hosted relation name.
        relation: String,
        /// Maximum left-hand side length.
        max_lhs: u32,
        /// Maximum right-hand side length.
        max_rhs: u32,
        /// `g3` acceptance threshold (0 = exact).
        epsilon: f64,
        /// Lattice context bound.
        max_context: u32,
    },
    /// Run the set-based lattice over a hosted relation and return the
    /// minimal canonical statements (contexts as `u64` bitmasks).
    DiscoverStatements {
        /// Hosted relation name.
        relation: String,
        /// Lattice context bound.
        max_context: u32,
    },
    /// Create a live monitor named `name` from a snapshot of a hosted
    /// relation.  With an empty `ods` list the server first discovers the
    /// relation's zero-error install set and watches that.
    CreateMonitor {
        /// Monitor resource name.
        name: String,
        /// Hosted relation to snapshot.
        relation: String,
        /// ε acceptance threshold the monitor reports flips against.
        epsilon: f64,
        /// ODs to watch (empty = watch the discovered install set).
        ods: Vec<OrderDependency>,
    },
    /// Drop a monitor, detaching all its subscribers.
    DropMonitor {
        /// Monitor resource name.
        name: String,
    },
    /// Apply a delta batch to a monitor's live table.
    ApplyDelta {
        /// Monitor resource name.
        monitor: String,
        /// Rows to insert (validated against the monitor's schema).
        inserts: Vec<Tuple>,
        /// Tuple ids to delete (as returned by earlier `DeltaApplied`s).
        deletes: Vec<u32>,
    },
    /// Read a monitor's current per-OD verdicts without mutating anything.
    MonitorStatus {
        /// Monitor resource name.
        monitor: String,
    },
    /// Axiomatic implication: does `premises` imply `goal`?
    Implies {
        /// The premise set ℳ.
        premises: Vec<OrderDependency>,
        /// The candidate consequence.
        goal: OrderDependency,
    },
    /// Subscribe this connection to a monitor's verdict-flip notifications.
    Subscribe {
        /// Monitor resource name.
        monitor: String,
    },
    /// Stop delivering a monitor's notifications to this connection.
    Unsubscribe {
        /// Monitor resource name.
        monitor: String,
    },
    /// Ask the server to stop accepting connections and wind down.
    Shutdown,
}

impl Request {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Ping => wire::put_u8(&mut buf, REQ_PING),
            Request::CreateRelation { name, relation } => {
                wire::put_u8(&mut buf, REQ_CREATE_RELATION);
                wire::put_str(&mut buf, name);
                put_relation(&mut buf, relation);
            }
            Request::DropRelation { name } => {
                wire::put_u8(&mut buf, REQ_DROP_RELATION);
                wire::put_str(&mut buf, name);
            }
            Request::ListResources => wire::put_u8(&mut buf, REQ_LIST_RESOURCES),
            Request::Discover {
                relation,
                max_lhs,
                max_rhs,
                epsilon,
                max_context,
            } => {
                wire::put_u8(&mut buf, REQ_DISCOVER);
                wire::put_str(&mut buf, relation);
                wire::put_u32(&mut buf, *max_lhs);
                wire::put_u32(&mut buf, *max_rhs);
                wire::put_f64(&mut buf, *epsilon);
                wire::put_u32(&mut buf, *max_context);
            }
            Request::DiscoverStatements {
                relation,
                max_context,
            } => {
                wire::put_u8(&mut buf, REQ_DISCOVER_STATEMENTS);
                wire::put_str(&mut buf, relation);
                wire::put_u32(&mut buf, *max_context);
            }
            Request::CreateMonitor {
                name,
                relation,
                epsilon,
                ods,
            } => {
                wire::put_u8(&mut buf, REQ_CREATE_MONITOR);
                wire::put_str(&mut buf, name);
                wire::put_str(&mut buf, relation);
                wire::put_f64(&mut buf, *epsilon);
                put_ods(&mut buf, ods);
            }
            Request::DropMonitor { name } => {
                wire::put_u8(&mut buf, REQ_DROP_MONITOR);
                wire::put_str(&mut buf, name);
            }
            Request::ApplyDelta {
                monitor,
                inserts,
                deletes,
            } => {
                wire::put_u8(&mut buf, REQ_APPLY_DELTA);
                wire::put_str(&mut buf, monitor);
                wire::put_u32(&mut buf, inserts.len() as u32);
                for t in inserts {
                    put_tuple(&mut buf, t);
                }
                wire::put_u32(&mut buf, deletes.len() as u32);
                for id in deletes {
                    wire::put_u32(&mut buf, *id);
                }
            }
            Request::MonitorStatus { monitor } => {
                wire::put_u8(&mut buf, REQ_MONITOR_STATUS);
                wire::put_str(&mut buf, monitor);
            }
            Request::Implies { premises, goal } => {
                wire::put_u8(&mut buf, REQ_IMPLIES);
                put_ods(&mut buf, premises);
                put_od(&mut buf, goal);
            }
            Request::Subscribe { monitor } => {
                wire::put_u8(&mut buf, REQ_SUBSCRIBE);
                wire::put_str(&mut buf, monitor);
            }
            Request::Unsubscribe { monitor } => {
                wire::put_u8(&mut buf, REQ_UNSUBSCRIBE);
                wire::put_str(&mut buf, monitor);
            }
            Request::Shutdown => wire::put_u8(&mut buf, REQ_SHUTDOWN),
        }
        buf
    }

    /// Parse a frame payload.  An unknown opcode byte is
    /// `WireError::InvalidTag { what: "Request", .. }` so the server can
    /// answer [`ErrorCode::UnknownOpcode`] while keeping the connection.
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_CREATE_RELATION => Request::CreateRelation {
                name: r.str()?,
                relation: get_relation(&mut r)?,
            },
            REQ_DROP_RELATION => Request::DropRelation { name: r.str()? },
            REQ_LIST_RESOURCES => Request::ListResources,
            REQ_DISCOVER => Request::Discover {
                relation: r.str()?,
                max_lhs: r.u32()?,
                max_rhs: r.u32()?,
                epsilon: r.f64()?,
                max_context: r.u32()?,
            },
            REQ_DISCOVER_STATEMENTS => Request::DiscoverStatements {
                relation: r.str()?,
                max_context: r.u32()?,
            },
            REQ_CREATE_MONITOR => Request::CreateMonitor {
                name: r.str()?,
                relation: r.str()?,
                epsilon: r.f64()?,
                ods: get_ods(&mut r)?,
            },
            REQ_DROP_MONITOR => Request::DropMonitor { name: r.str()? },
            REQ_APPLY_DELTA => {
                let monitor = r.str()?;
                let n = r.seq_len(4)?;
                let inserts = (0..n)
                    .map(|_| get_tuple(&mut r))
                    .collect::<WireResult<Vec<_>>>()?;
                let n = r.seq_len(4)?;
                let deletes = (0..n).map(|_| r.u32()).collect::<WireResult<Vec<_>>>()?;
                Request::ApplyDelta {
                    monitor,
                    inserts,
                    deletes,
                }
            }
            REQ_MONITOR_STATUS => Request::MonitorStatus { monitor: r.str()? },
            REQ_IMPLIES => Request::Implies {
                premises: get_ods(&mut r)?,
                goal: get_od(&mut r)?,
            },
            REQ_SUBSCRIBE => Request::Subscribe { monitor: r.str()? },
            REQ_UNSUBSCRIBE => Request::Unsubscribe { monitor: r.str()? },
            REQ_SHUTDOWN => Request::Shutdown,
            tag => {
                return Err(WireError::InvalidTag {
                    what: "Request",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

// Response opcodes.
const RESP_PONG: u8 = 0;
const RESP_OK: u8 = 1;
const RESP_ERROR: u8 = 2;
const RESP_RELATION_CREATED: u8 = 3;
const RESP_RESOURCES: u8 = 4;
const RESP_DISCOVERED: u8 = 5;
const RESP_STATEMENTS: u8 = 6;
const RESP_MONITOR_CREATED: u8 = 7;
const RESP_DELTA_APPLIED: u8 = 8;
const RESP_STATUSES: u8 = 9;
const RESP_IMPLICATION: u8 = 10;
const RESP_SUBSCRIBED: u8 = 11;
const RESP_UNSUBSCRIBED: u8 = 12;
const RESP_SHUTTING_DOWN: u8 = 13;

/// A server reply.  Responses arrive in request order on each connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Generic success (drops).
    Ok,
    /// The request failed; the connection stays usable unless the framing
    /// itself was broken.
    Error {
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A relation is now hosted.
    RelationCreated {
        /// Row count of the hosted relation.
        rows: u64,
    },
    /// Resource listing, names sorted.
    Resources {
        /// `(name, rows)` per hosted relation.
        relations: Vec<(String, u64)>,
        /// `(name, watched ODs)` per hosted monitor.
        monitors: Vec<(String, u64)>,
    },
    /// Discovery result over a hosted relation.
    Discovered {
        /// Minimal ODs confirmed on the instance.
        ods: Vec<OrderDependency>,
        /// Per-OD `g3` scores, aligned with `ods`.
        errors: Vec<f64>,
    },
    /// Minimal canonical statements of a lattice run.
    Statements {
        /// Statements with their contexts as `u64` bitmasks.
        statements: Vec<SetOd>,
    },
    /// A monitor is now live.
    MonitorCreated {
        /// Number of watched ODs.
        watched: u64,
    },
    /// A delta batch was applied.
    DeltaApplied {
        /// Ids assigned to the batch's inserts, in insert order.
        inserted: Vec<u32>,
        /// Rows the batch deleted.
        deleted: u64,
        /// Partition classes touched (the maintenance cost unit).
        touched_classes: u64,
        /// Alive rows after the batch.
        rows: u64,
        /// Statuses that crossed the ε boundary in this batch.
        flipped: Vec<WireOdStatus>,
    },
    /// A monitor's current verdicts.
    Statuses {
        /// Alive rows in the live table.
        rows: u64,
        /// Per-OD statuses in watch order (`flipped` always false here).
        statuses: Vec<WireOdStatus>,
    },
    /// Answer to an implication query.
    Implication {
        /// `premises ⊨ goal`?
        implied: bool,
    },
    /// The connection now receives the monitor's flip notifications.
    Subscribed,
    /// Delivery stopped.
    Unsubscribed {
        /// Whether the connection had been subscribed.
        was_subscribed: bool,
    },
    /// The server acknowledged [`Request::Shutdown`].
    ShuttingDown,
}

impl Response {
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Pong => wire::put_u8(buf, RESP_PONG),
            Response::Ok => wire::put_u8(buf, RESP_OK),
            Response::Error { code, message } => {
                wire::put_u8(buf, RESP_ERROR);
                wire::put_u8(buf, code.tag());
                wire::put_str(buf, message);
            }
            Response::RelationCreated { rows } => {
                wire::put_u8(buf, RESP_RELATION_CREATED);
                wire::put_u64(buf, *rows);
            }
            Response::Resources {
                relations,
                monitors,
            } => {
                wire::put_u8(buf, RESP_RESOURCES);
                wire::put_u32(buf, relations.len() as u32);
                for (name, rows) in relations {
                    wire::put_str(buf, name);
                    wire::put_u64(buf, *rows);
                }
                wire::put_u32(buf, monitors.len() as u32);
                for (name, watched) in monitors {
                    wire::put_str(buf, name);
                    wire::put_u64(buf, *watched);
                }
            }
            Response::Discovered { ods, errors } => {
                wire::put_u8(buf, RESP_DISCOVERED);
                put_ods(buf, ods);
                wire::put_u32(buf, errors.len() as u32);
                for e in errors {
                    wire::put_f64(buf, *e);
                }
            }
            Response::Statements { statements } => {
                wire::put_u8(buf, RESP_STATEMENTS);
                wire::put_u32(buf, statements.len() as u32);
                for s in statements {
                    put_statement(buf, s);
                }
            }
            Response::MonitorCreated { watched } => {
                wire::put_u8(buf, RESP_MONITOR_CREATED);
                wire::put_u64(buf, *watched);
            }
            Response::DeltaApplied {
                inserted,
                deleted,
                touched_classes,
                rows,
                flipped,
            } => {
                wire::put_u8(buf, RESP_DELTA_APPLIED);
                wire::put_u32(buf, inserted.len() as u32);
                for id in inserted {
                    wire::put_u32(buf, *id);
                }
                wire::put_u64(buf, *deleted);
                wire::put_u64(buf, *touched_classes);
                wire::put_u64(buf, *rows);
                put_statuses(buf, flipped);
            }
            Response::Statuses { rows, statuses } => {
                wire::put_u8(buf, RESP_STATUSES);
                wire::put_u64(buf, *rows);
                put_statuses(buf, statuses);
            }
            Response::Implication { implied } => {
                wire::put_u8(buf, RESP_IMPLICATION);
                wire::put_bool(buf, *implied);
            }
            Response::Subscribed => wire::put_u8(buf, RESP_SUBSCRIBED),
            Response::Unsubscribed { was_subscribed } => {
                wire::put_u8(buf, RESP_UNSUBSCRIBED);
                wire::put_bool(buf, *was_subscribed);
            }
            Response::ShuttingDown => wire::put_u8(buf, RESP_SHUTTING_DOWN),
        }
    }

    /// Serialize as a server→client frame payload (`MSG_RESPONSE` + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![MSG_RESPONSE];
        self.encode_body(&mut buf);
        buf
    }

    fn decode_body(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(match r.u8()? {
            RESP_PONG => Response::Pong,
            RESP_OK => Response::Ok,
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_tag(r.u8()?)?,
                message: r.str()?,
            },
            RESP_RELATION_CREATED => Response::RelationCreated { rows: r.u64()? },
            RESP_RESOURCES => {
                let n = r.seq_len(12)?;
                let relations = (0..n)
                    .map(|_| Ok((r.str()?, r.u64()?)))
                    .collect::<WireResult<Vec<_>>>()?;
                let n = r.seq_len(12)?;
                let monitors = (0..n)
                    .map(|_| Ok((r.str()?, r.u64()?)))
                    .collect::<WireResult<Vec<_>>>()?;
                Response::Resources {
                    relations,
                    monitors,
                }
            }
            RESP_DISCOVERED => {
                let ods = get_ods(r)?;
                let n = r.seq_len(8)?;
                let errors = (0..n).map(|_| r.f64()).collect::<WireResult<Vec<_>>>()?;
                Response::Discovered { ods, errors }
            }
            RESP_STATEMENTS => {
                let n = r.seq_len(13)?;
                let statements = (0..n)
                    .map(|_| get_statement(r))
                    .collect::<WireResult<Vec<_>>>()?;
                Response::Statements { statements }
            }
            RESP_MONITOR_CREATED => Response::MonitorCreated { watched: r.u64()? },
            RESP_DELTA_APPLIED => {
                let n = r.seq_len(4)?;
                let inserted = (0..n).map(|_| r.u32()).collect::<WireResult<Vec<_>>>()?;
                Response::DeltaApplied {
                    inserted,
                    deleted: r.u64()?,
                    touched_classes: r.u64()?,
                    rows: r.u64()?,
                    flipped: get_statuses(r)?,
                }
            }
            RESP_STATUSES => Response::Statuses {
                rows: r.u64()?,
                statuses: get_statuses(r)?,
            },
            RESP_IMPLICATION => Response::Implication { implied: r.bool()? },
            RESP_SUBSCRIBED => Response::Subscribed,
            RESP_UNSUBSCRIBED => Response::Unsubscribed {
                was_subscribed: r.bool()?,
            },
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            tag => {
                return Err(WireError::InvalidTag {
                    what: "Response",
                    tag,
                })
            }
        })
    }
}

// Notification opcodes.
const NOTIFY_FLIPS: u8 = 0;
const NOTIFY_LAGGED: u8 = 1;

/// An unsolicited server→client push on a subscribed connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notification {
    /// One or more watched ODs crossed the ε acceptance boundary.
    Flips {
        /// The monitor that flipped.
        monitor: String,
        /// Monotonically increasing per-monitor broadcast number (gap
        /// detection for laggy subscribers).
        seq: u64,
        /// The flipped statuses only.
        statuses: Vec<WireOdStatus>,
    },
    /// This subscriber's queue overflowed and `dropped` flip broadcasts were
    /// discarded; re-query [`Request::MonitorStatus`] to resynchronize.
    Lagged {
        /// The affected monitor.
        monitor: String,
        /// Number of broadcasts dropped since the last delivery.
        dropped: u64,
    },
}

impl Notification {
    /// Serialize as a server→client frame payload (`MSG_NOTIFICATION` + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![MSG_NOTIFICATION];
        match self {
            Notification::Flips {
                monitor,
                seq,
                statuses,
            } => {
                wire::put_u8(&mut buf, NOTIFY_FLIPS);
                wire::put_str(&mut buf, monitor);
                wire::put_u64(&mut buf, *seq);
                put_statuses(&mut buf, statuses);
            }
            Notification::Lagged { monitor, dropped } => {
                wire::put_u8(&mut buf, NOTIFY_LAGGED);
                wire::put_str(&mut buf, monitor);
                wire::put_u64(&mut buf, *dropped);
            }
        }
        buf
    }

    fn decode_body(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(match r.u8()? {
            NOTIFY_FLIPS => Notification::Flips {
                monitor: r.str()?,
                seq: r.u64()?,
                statuses: get_statuses(r)?,
            },
            NOTIFY_LAGGED => Notification::Lagged {
                monitor: r.str()?,
                dropped: r.u64()?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    what: "Notification",
                    tag,
                })
            }
        })
    }
}

/// Any server→client frame payload: the kind byte dispatches between a
/// response and a notification.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// Reply to a request.
    Response(Response),
    /// Subscription push.
    Notification(Notification),
}

impl ServerMessage {
    /// Serialize as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ServerMessage::Response(resp) => resp.encode(),
            ServerMessage::Notification(n) => n.encode(),
        }
    }

    /// Parse a server→client frame payload.
    pub fn decode(payload: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            MSG_RESPONSE => ServerMessage::Response(Response::decode_body(&mut r)?),
            MSG_NOTIFICATION => ServerMessage::Notification(Notification::decode_body(&mut r)?),
            tag => {
                return Err(WireError::InvalidTag {
                    what: "ServerMessage",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::{AttrId, AttrSet, Value};

    #[test]
    fn request_roundtrip_examples() {
        let rel = od_core::fixtures::example_5_taxes();
        let od = OrderDependency::new(vec![AttrId(0)], vec![AttrId(1)]);
        for req in [
            Request::Ping,
            Request::CreateRelation {
                name: "taxes".into(),
                relation: rel,
            },
            Request::ApplyDelta {
                monitor: "m".into(),
                inserts: vec![vec![Value::Int(1), Value::Null]],
                deletes: vec![0, 7],
            },
            Request::Implies {
                premises: vec![od.clone()],
                goal: od,
            },
            Request::Shutdown,
        ] {
            let bytes = req.encode();
            let back = Request::decode(&bytes).unwrap();
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn server_message_kind_dispatch() {
        let resp = Response::Implication { implied: true };
        let note = Notification::Lagged {
            monitor: "m".into(),
            dropped: 3,
        };
        assert_eq!(
            ServerMessage::decode(&resp.encode()).unwrap(),
            ServerMessage::Response(resp)
        );
        assert_eq!(
            ServerMessage::decode(&note.encode()).unwrap(),
            ServerMessage::Notification(note)
        );
        assert!(matches!(
            ServerMessage::decode(&[9]),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn statements_carry_u64_contexts() {
        let resp = Response::Statements {
            statements: vec![
                SetOd::constancy(AttrSet::from_mask(u64::MAX), AttrId(3)),
                SetOd::compatibility(AttrSet::new(), AttrId(1), AttrId(0)),
            ],
        };
        let bytes = resp.encode();
        match ServerMessage::decode(&bytes).unwrap() {
            ServerMessage::Response(Response::Statements { statements }) => {
                assert_eq!(statements[0].context().mask(), u64::MAX);
                // Pair order was normalized at construction and survives.
                assert_eq!(
                    statements[1],
                    SetOd::compatibility(AttrSet::new(), AttrId(0), AttrId(1))
                );
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn unknown_request_opcode_is_invalid_tag() {
        assert_eq!(
            Request::decode(&[0xEE]),
            Err(WireError::InvalidTag {
                what: "Request",
                tag: 0xEE
            })
        );
    }

    #[test]
    fn truncated_request_never_panics() {
        let full = Request::CreateMonitor {
            name: "m".into(),
            relation: "r".into(),
            epsilon: 0.25,
            ods: vec![OrderDependency::new(vec![AttrId(0)], vec![AttrId(1)])],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err());
        }
        // Trailing garbage after a complete request is rejected too.
        let mut padded = full.clone();
        padded.push(0);
        assert!(matches!(
            Request::decode(&padded),
            Err(WireError::TrailingBytes { .. })
        ));
    }
}
