//! The od-server runtime: a thread-per-connection TCP server hosting
//! relations and live monitors as named resources.
//!
//! ## Resource lifecycle
//!
//! * **Relations** are immutable snapshots (`Arc<Relation>`): created by
//!   [`Request::CreateRelation`], read by discovery and implication handlers,
//!   dropped by name.  Creating a monitor *snapshots* the relation — dropping
//!   the relation afterwards never invalidates the monitor.
//! * **Monitors** wrap an [`od_discovery::Monitor`] behind a per-monitor
//!   mutex: concurrent `ApplyDelta`s serialize on that mutex (never on a
//!   global lock), so two clients driving different monitors proceed fully in
//!   parallel, while the per-monitor verdict stream stays identical to *some*
//!   serial order of the submitted batches — and ledger verdicts depend only
//!   on the final alive multiset, so any serial order of the same batches
//!   lands on bit-identical final verdicts (pinned by the concurrent-client
//!   integration test).
//!
//! ## Pub/sub
//!
//! [`od_discovery::Monitor::subscribe`]'s synchronous callback is lifted onto
//! the wire here: each monitor entry registers exactly one callback at
//! creation, and that callback fans a [`Notification::Flips`] frame out to
//! every subscribed connection.  Delivery is **non-blocking**: each
//! connection owns a bounded outbound queue drained by a dedicated writer
//! thread, and flips are enqueued with `try_send` — a subscriber that has
//! stopped reading overflows its own queue and loses notifications (flagged
//! by a [`Notification::Lagged`] frame once it drains) while every other
//! client keeps receiving.  A slow consumer can therefore never stall the
//! monitor, the batch submitter, or other subscribers.  A client that
//! pipelines requests cannot crowd out its own notifications either: its
//! responses may hold at most half the queue (the connection's response
//! window), and the writer keeps up by coalescing — after each blocking
//! receive it writes every frame already queued and flushes them once.

use crate::proto::{ErrorCode, Notification, Request, Response, WireOdStatus};
use od_core::wire::{self, WireError, MAX_FRAME_LEN};
use od_core::{OrderDependency, Relation};
use od_discovery::{DiscoveryConfig, Monitor, MonitorReport};
use od_infer::{Decider, OdSet};
use od_setbased::stream::DeltaBatch;
use od_setbased::LatticeConfig;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Tuning knobs for [`OdServer::bind_with`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Per-frame payload cap for reads (writes share the global
    /// [`MAX_FRAME_LEN`]).
    pub max_frame: usize,
    /// Outbound queue depth per connection.  Responses may hold at most
    /// half of it (the reader waits for the writer beyond that), so the other
    /// half always has room for notifications; notifications beyond this
    /// bound are dropped for that subscriber only.
    pub outbound_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame: MAX_FRAME_LEN,
            outbound_queue: 1024,
        }
    }
}

/// One frame on a connection's outbound queue.
#[derive(Debug, PartialEq, Eq)]
enum Outbound {
    /// A response; it holds a slot of the connection's response window
    /// until the writer takes it.
    Response(Vec<u8>),
    /// A notification, pushed without waiting.
    Notification(Vec<u8>),
}

/// One subscribed connection of a monitor.
struct SubEntry {
    conn_id: u64,
    tx: SyncSender<Outbound>,
    /// Flip broadcasts dropped since this subscriber last kept up.
    dropped: u64,
}

impl SubEntry {
    /// Try to deliver `frame`; returns `false` when the connection is gone
    /// (the caller then unregisters the subscriber).  Never blocks.
    fn push(&mut self, monitor: &str, frame: &[u8]) -> bool {
        if self.dropped > 0 {
            let lag = Notification::Lagged {
                monitor: monitor.to_string(),
                dropped: self.dropped,
            }
            .encode();
            match self.tx.try_send(Outbound::Notification(lag)) {
                Ok(()) => self.dropped = 0,
                Err(TrySendError::Full(_)) => {
                    // Still backed up: this broadcast is dropped too.
                    self.dropped += 1;
                    od_obs::add("server.notifications_dropped", 1);
                    return true;
                }
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
        match self.tx.try_send(Outbound::Notification(frame.to_vec())) {
            Ok(()) => {
                od_obs::add("server.notifications_sent", 1);
                true
            }
            Err(TrySendError::Full(_)) => {
                self.dropped += 1;
                od_obs::add("server.notifications_dropped", 1);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

/// A hosted monitor: the live monitor itself plus its wire subscribers and
/// the name of the relation it snapshotted (deltas against the monitor
/// invalidate that relation's cached discovery profiles).
struct MonitorEntry {
    monitor: Mutex<Monitor>,
    subs: Arc<Mutex<Vec<SubEntry>>>,
    relation: String,
}

/// A hosted relation: the immutable snapshot plus a server-unique generation
/// stamp.  The stamp keys the discovery cache, so re-creating a relation
/// under a dropped name can never resurrect a stale cached profile.
struct RelationEntry {
    relation: Arc<Relation>,
    generation: u64,
}

/// Cache key for a discovery profile: the named relation at a specific
/// generation under a specific config.  `epsilon_bits` carries the f64
/// through `to_bits` — requests with bitwise-equal epsilons (the only kind a
/// client can repeat over the wire) hit the same entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DiscoverKey {
    relation: String,
    generation: u64,
    /// `true` for `DiscoverStatements`, `false` for `Discover`.
    statements: bool,
    max_lhs: u32,
    max_rhs: u32,
    epsilon_bits: u64,
    /// `DiscoverStatements`'s context bound; 0 for `Discover`, which ignores
    /// its own.
    max_context: u32,
}

struct Shared {
    config: ServerConfig,
    relations: Mutex<HashMap<String, RelationEntry>>,
    monitors: Mutex<HashMap<String, Arc<MonitorEntry>>>,
    /// Memoized `Discover`/`DiscoverStatements` responses.  Discovery is
    /// deterministic, so a cached response encodes to the byte-identical
    /// frame a fresh run would produce.  Entries die with their relation
    /// (drop, or generation bump on re-create) and whenever an `ApplyDelta`
    /// lands on one of the relation's monitors — the snapshot itself is
    /// immutable, but a delta signals the named dataset has moved on, so
    /// serving a pre-delta profile for it would be misleading.
    discover_cache: Mutex<HashMap<DiscoverKey, Response>>,
    /// Write-half clones of every live connection, for shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    next_generation: AtomicU64,
    shutting_down: AtomicBool,
}

/// Drop every cached discovery profile of `relation`.
fn invalidate_profiles(shared: &Shared, relation: &str) {
    let mut cache = shared.discover_cache.lock().unwrap();
    let before = cache.len();
    cache.retain(|key, _| key.relation != relation);
    od_obs::add(
        "server.discover.cache_invalidations",
        (before - cache.len()) as u64,
    );
}

/// Answer a `Discover`/`DiscoverStatements` request through the profile
/// cache: resolve `key.relation` and stamp its current generation into `key`,
/// then serve the cached response or run `compute` on the relation and cache
/// its successful response (an `Err` is answered as `BadRequest`).
fn discover_cached(
    shared: &Shared,
    mut key: DiscoverKey,
    compute: impl FnOnce(&Relation) -> Result<Response, String>,
) -> Response {
    let rel = {
        let relations = shared.relations.lock().unwrap();
        let Some(entry) = relations.get(&key.relation) else {
            return no_such("relation", &key.relation);
        };
        key.generation = entry.generation;
        Arc::clone(&entry.relation)
    };
    if let Some(cached) = shared.discover_cache.lock().unwrap().get(&key).cloned() {
        od_obs::add("server.discover.cache_hits", 1);
        return cached;
    }
    od_obs::add("server.discover.cache_misses", 1);
    // Discover outside the cache lock: profiling can be heavy and must not
    // block unrelated requests.  A concurrent miss on the same key computes
    // the same deterministic response — the duplicated work is bounded and
    // the cache stays consistent.
    match compute(&rel) {
        Ok(response) => {
            shared
                .discover_cache
                .lock()
                .unwrap()
                .insert(key, response.clone());
            response
        }
        Err(message) => err(ErrorCode::BadRequest, message),
    }
}

/// A running od-server.  Bind with [`OdServer::bind`], stop with
/// [`OdServer::shutdown`] (which joins every connection thread).
pub struct OdServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl OdServer {
    /// Bind and start serving with default [`ServerConfig`].
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<OdServer> {
        Self::bind_with(addr, ServerConfig::default())
    }

    /// Bind and start serving.  Use port 0 to let the OS pick one
    /// ([`OdServer::local_addr`] reports the choice).
    pub fn bind_with(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<OdServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            relations: Mutex::new(HashMap::new()),
            monitors: Mutex::new(HashMap::new()),
            discover_cache: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            next_generation: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("od-server-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(OdServer {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has a shutdown been requested (via [`OdServer::shutdown`] or a
    /// [`Request::Shutdown`] frame)?
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Stop accepting connections, close every live connection, and join all
    /// server threads.  Idempotent with a wire-initiated shutdown.
    pub fn shutdown(mut self) {
        trigger_shutdown(&self.shared, self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Connection threads exit once their sockets are shut down; writer
        // threads exit once their queue senders drop.  Join everything so a
        // test that calls shutdown() observes a quiescent process.
        let threads = std::mem::take(&mut *self.shared.threads.lock().unwrap());
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl Drop for OdServer {
    fn drop(&mut self) {
        // Best-effort: unblock the accept thread so an OdServer leaked by a
        // failing test does not wedge the process on exit.  No joining here —
        // shutdown() is the orderly path.
        trigger_shutdown(&self.shared, self.addr);
    }
}

fn trigger_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    // Wake the blocking accept() with a throwaway connection.
    let _ = TcpStream::connect(addr);
    // Shut every live connection's socket: readers unblock with EOF/error.
    for stream in shared.conns.lock().unwrap().values() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => break,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // The writer flushes whenever its queue runs dry, often after one
        // small frame; Nagle's algorithm would hold such a frame back until
        // the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        od_obs::add("server.connections", 1);
        let (Ok(write_half), Ok(shutdown_half)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        shared.conns.lock().unwrap().insert(conn_id, shutdown_half);
        // Depth ≥ 2 so a `Lagged` marker and the frame after it can coexist;
        // with a single slot the marker would starve the payloads forever.
        let depth = shared.config.outbound_queue.max(2);
        let (tx, rx) = sync_channel::<Outbound>(depth);
        let (window, window_rx) = sync_channel::<()>(depth / 2);
        let writer = std::thread::Builder::new()
            .name(format!("od-server-write-{conn_id}"))
            .spawn(move || writer_loop(write_half, rx, &window_rx))
            .expect("spawn writer thread");
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name(format!("od-server-conn-{conn_id}"))
            .spawn(move || {
                conn_loop(stream, conn_id, tx, window, &reader_shared);
                disconnect(conn_id, &reader_shared);
            })
            .expect("spawn reader thread");
        let mut threads = shared.threads.lock().unwrap();
        threads.push(writer);
        threads.push(reader);
    }
}

/// Drain a connection's outbound queue onto its socket, reopening a slot of
/// the response window for each response taken.  After each blocking
/// receive, every frame already queued behind it goes into the buffer too,
/// and the batch is flushed once: flushing per frame lets a pipelining
/// client outrun the writer.
fn writer_loop(stream: impl Write, rx: Receiver<Outbound>, window: &Receiver<()>) {
    let mut w = BufWriter::new(stream);
    while let Ok(frame) = rx.recv() {
        let written = std::iter::once(frame)
            .chain(rx.try_iter())
            .try_for_each(|frame| wire::write_frame_unflushed(&mut w, &take_frame(frame, window)))
            .and_then(|()| w.flush());
        if written.is_err() {
            // The peer is gone; drain silently so senders never block on a
            // dead connection (the queue keeps accepting until dropped).
            for frame in rx.iter() {
                take_frame(frame, window);
            }
            return;
        }
    }
}

/// A frame's payload, as the writer takes it off the queue: a response
/// reopens its slot of the response window.
fn take_frame(frame: Outbound, window: &Receiver<()>) -> Vec<u8> {
    match frame {
        Outbound::Response(payload) => {
            let _ = window.try_recv();
            payload
        }
        Outbound::Notification(payload) => payload,
    }
}

/// Remove a finished connection: its write half and any subscriptions it
/// held.  Its queue sender drops with the reader thread, ending the writer.
fn disconnect(conn_id: u64, shared: &Shared) {
    shared.conns.lock().unwrap().remove(&conn_id);
    for entry in shared.monitors.lock().unwrap().values() {
        entry
            .subs
            .lock()
            .unwrap()
            .retain(|sub| sub.conn_id != conn_id);
    }
}

/// Per-connection read → handle → respond loop.  Returns when the client
/// closes, the framing breaks, or shutdown is requested.
fn conn_loop(
    stream: TcpStream,
    conn_id: u64,
    tx: SyncSender<Outbound>,
    window: SyncSender<()>,
    shared: &Arc<Shared>,
) {
    let max_frame = shared.config.max_frame;
    let mut reader = BufReader::new(stream);
    let respond = |resp: Response| {
        od_obs::add("server.responses", 1);
        send_response(&tx, &window, resp.encode())
    };
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let payload = match wire::read_frame_opt(&mut reader, max_frame) {
            Ok(Some(payload)) => payload,
            // Clean close between frames.
            Ok(None) => return,
            Err(err) if err.kind() == io::ErrorKind::InvalidData => {
                // Oversized length prefix: report, then close — the stream
                // position can no longer be trusted.
                respond(Response::Error {
                    code: ErrorCode::TooLarge,
                    message: err.to_string(),
                });
                return;
            }
            // Mid-frame EOF or transport error: nothing to answer.
            Err(_) => return,
        };
        od_obs::add("server.requests", 1);
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(WireError::InvalidTag {
                what: "Request",
                tag,
            }) => {
                // Frame boundaries are intact — answer and keep serving.
                respond(Response::Error {
                    code: ErrorCode::UnknownOpcode,
                    message: format!("unknown request opcode {tag:#04x}"),
                });
                continue;
            }
            Err(err) => {
                respond(Response::Error {
                    code: ErrorCode::Protocol,
                    message: err.to_string(),
                });
                continue;
            }
        };
        let shutdown_requested = matches!(request, Request::Shutdown);
        let response = handle(request, conn_id, &tx, shared);
        if !respond(response) {
            return;
        }
        if shutdown_requested {
            trigger_shutdown(shared, conn_loop_addr(&reader));
            return;
        }
    }
}

/// Queue one response, first taking a slot of the response window.  Both
/// sends block: responses are never dropped.  The window only stays full if
/// this very client stops reading — then its own reader thread parks here,
/// harming nobody else, while the queue's other half still takes its
/// notifications.
fn send_response(tx: &SyncSender<Outbound>, window: &SyncSender<()>, payload: Vec<u8>) -> bool {
    window.send(()).is_ok() && tx.send(Outbound::Response(payload)).is_ok()
}

fn conn_loop_addr(reader: &BufReader<TcpStream>) -> SocketAddr {
    reader
        .get_ref()
        .local_addr()
        .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)))
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn no_such(kind: &str, name: &str) -> Response {
    err(
        ErrorCode::NoSuchResource,
        format!("no {kind} named '{name}'"),
    )
}

/// Validate that an OD only names attributes the schema actually has —
/// watching an out-of-range attribute would panic deep in partition code.
fn od_fits_schema(od: &OrderDependency, arity: usize) -> bool {
    od.lhs
        .iter()
        .chain(od.rhs.iter())
        .all(|attr| attr.index() < arity)
}

fn wire_status(status: &od_discovery::OdStatus) -> WireOdStatus {
    WireOdStatus {
        od: status.od.clone(),
        removal_count: status.removal_count as u64,
        accepted: status.accepted,
        flipped: status.flipped,
    }
}

fn handle(
    request: Request,
    conn_id: u64,
    tx: &SyncSender<Outbound>,
    shared: &Arc<Shared>,
) -> Response {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return err(ErrorCode::ShuttingDown, "server is shutting down");
    }
    match request {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShuttingDown,
        Request::CreateRelation { name, relation } => {
            let mut relations = shared.relations.lock().unwrap();
            if relations.contains_key(&name) {
                return err(
                    ErrorCode::DuplicateResource,
                    format!("relation '{name}' already exists"),
                );
            }
            let rows = relation.len() as u64;
            relations.insert(
                name,
                RelationEntry {
                    relation: Arc::new(relation),
                    generation: shared.next_generation.fetch_add(1, Ordering::Relaxed),
                },
            );
            Response::RelationCreated { rows }
        }
        Request::DropRelation { name } => match shared.relations.lock().unwrap().remove(&name) {
            Some(_) => {
                invalidate_profiles(shared, &name);
                Response::Ok
            }
            None => no_such("relation", &name),
        },
        Request::ListResources => {
            let mut relations: Vec<(String, u64)> = shared
                .relations
                .lock()
                .unwrap()
                .iter()
                .map(|(name, entry)| (name.clone(), entry.relation.len() as u64))
                .collect();
            relations.sort();
            let mut monitors: Vec<(String, u64)> = shared
                .monitors
                .lock()
                .unwrap()
                .iter()
                .map(|(name, entry)| {
                    let watched = entry.monitor.lock().unwrap().statuses().len() as u64;
                    (name.clone(), watched)
                })
                .collect();
            monitors.sort();
            Response::Resources {
                relations,
                monitors,
            }
        }
        Request::Discover {
            relation,
            max_lhs,
            max_rhs,
            epsilon,
            max_context: _,
        } => {
            if !(0.0..=1.0).contains(&epsilon) {
                return err(ErrorCode::BadRequest, "epsilon must be within [0, 1]");
            }
            let key = DiscoverKey {
                relation,
                generation: 0, // stamped by `discover_cached`
                statements: false,
                max_lhs,
                max_rhs,
                epsilon_bits: epsilon.to_bits(),
                max_context: 0,
            };
            let config = DiscoveryConfig {
                max_lhs: max_lhs as usize,
                max_rhs: max_rhs as usize,
                epsilon,
                ..DiscoveryConfig::default()
            };
            discover_cached(shared, key, |rel| {
                let discovery =
                    od_discovery::try_discover_ods(rel, config).map_err(|e| e.to_string())?;
                Ok(Response::Discovered {
                    ods: discovery.ods,
                    errors: discovery.errors,
                })
            })
        }
        Request::DiscoverStatements {
            relation,
            max_context,
        } => {
            let key = DiscoverKey {
                relation,
                generation: 0, // stamped by `discover_cached`
                statements: true,
                max_lhs: 0,
                max_rhs: 0,
                epsilon_bits: 0,
                max_context,
            };
            let config = LatticeConfig {
                max_context: max_context as usize,
                ..LatticeConfig::default()
            };
            discover_cached(shared, key, |rel| {
                let discovery = od_setbased::try_discover_statements(rel, &config)
                    .map_err(|e| e.to_string())?;
                Ok(Response::Statements {
                    statements: discovery.minimal_statements().to_vec(),
                })
            })
        }
        Request::CreateMonitor {
            name,
            relation,
            epsilon,
            ods,
        } => {
            let rel = {
                let relations = shared.relations.lock().unwrap();
                let Some(entry) = relations.get(&relation) else {
                    return no_such("relation", &relation);
                };
                Arc::clone(&entry.relation)
            };
            if !(0.0..=1.0).contains(&epsilon) {
                return err(ErrorCode::BadRequest, "epsilon must be within [0, 1]");
            }
            if rel.schema().arity() > od_core::AttrSet::MAX_ATTRS {
                return err(
                    ErrorCode::BadRequest,
                    "monitors require schemas of at most 64 attributes",
                );
            }
            if let Some(bad) = ods
                .iter()
                .find(|od| !od_fits_schema(od, rel.schema().arity()))
            {
                return err(
                    ErrorCode::BadRequest,
                    format!("OD names an attribute outside the schema: {bad:?}"),
                );
            }
            {
                let monitors = shared.monitors.lock().unwrap();
                if monitors.contains_key(&name) {
                    return err(
                        ErrorCode::DuplicateResource,
                        format!("monitor '{name}' already exists"),
                    );
                }
            }
            // Build outside the monitors lock: initial scans can be heavy and
            // must not block unrelated monitors.
            let mut monitor = if ods.is_empty() {
                let discovery = od_discovery::discover_ods(&rel, DiscoveryConfig::default());
                Monitor::watch_install_set(&rel, &discovery, epsilon)
            } else {
                Monitor::watch(&rel, ods, epsilon)
            };
            let watched = monitor.statuses().len() as u64;
            // Lift the sync callback onto the wire: one broadcast callback
            // per monitor, fanning each report's flips to every subscriber.
            let subs: Arc<Mutex<Vec<SubEntry>>> = Arc::new(Mutex::new(Vec::new()));
            // Broadcast counter; `Flips.seq` values are contiguous per monitor.
            let cb_seq = AtomicU64::new(0);
            let cb_subs = Arc::clone(&subs);
            let cb_name = name.clone();
            monitor.subscribe(move |report: &MonitorReport| {
                let statuses: Vec<WireOdStatus> = report.flips().map(wire_status).collect();
                if statuses.is_empty() {
                    return;
                }
                let seq = cb_seq.fetch_add(1, Ordering::Relaxed) + 1;
                let frame = Notification::Flips {
                    monitor: cb_name.clone(),
                    seq,
                    statuses,
                }
                .encode();
                cb_subs
                    .lock()
                    .unwrap()
                    .retain_mut(|sub| sub.push(&cb_name, &frame));
            });
            let entry = Arc::new(MonitorEntry {
                monitor: Mutex::new(monitor),
                subs,
                relation,
            });
            let mut monitors = shared.monitors.lock().unwrap();
            if monitors.contains_key(&name) {
                // Lost a create race while building; the later insert wins
                // nothing — report the collision.
                return err(
                    ErrorCode::DuplicateResource,
                    format!("monitor '{name}' already exists"),
                );
            }
            monitors.insert(name, entry);
            Response::MonitorCreated { watched }
        }
        Request::DropMonitor { name } => match shared.monitors.lock().unwrap().remove(&name) {
            Some(_) => Response::Ok,
            None => no_such("monitor", &name),
        },
        Request::ApplyDelta {
            monitor,
            inserts,
            deletes,
        } => {
            let Some(entry) = shared.monitors.lock().unwrap().get(&monitor).cloned() else {
                return no_such("monitor", &monitor);
            };
            let mut batch = DeltaBatch::new();
            batch.inserts = inserts;
            batch.deletes = deletes;
            // The per-monitor lock is the serialization point: notification
            // broadcast happens inside apply() while it is held, so seq order
            // equals verdict order.
            let mut live = entry.monitor.lock().unwrap();
            match live.apply(&batch) {
                Ok(report) => {
                    // The delta landed: the named dataset has moved past the
                    // snapshot, so cached discovery profiles for it are stale.
                    invalidate_profiles(shared, &entry.relation);
                    Response::DeltaApplied {
                        inserted: report.inserted.clone(),
                        deleted: report.deleted as u64,
                        touched_classes: report.touched_classes as u64,
                        rows: live.rows() as u64,
                        flipped: report.flips().map(wire_status).collect(),
                    }
                }
                Err(e) => err(ErrorCode::BadRequest, e.to_string()),
            }
        }
        Request::MonitorStatus { monitor } => {
            let Some(entry) = shared.monitors.lock().unwrap().get(&monitor).cloned() else {
                return no_such("monitor", &monitor);
            };
            let live = entry.monitor.lock().unwrap();
            Response::Statuses {
                rows: live.rows() as u64,
                statuses: live.statuses().iter().map(wire_status).collect(),
            }
        }
        Request::Implies { premises, goal } => {
            let m = OdSet::from_ods(premises);
            Response::Implication {
                implied: Decider::new(&m).implies(&goal),
            }
        }
        Request::Subscribe { monitor } => {
            let Some(entry) = shared.monitors.lock().unwrap().get(&monitor).cloned() else {
                return no_such("monitor", &monitor);
            };
            let mut subs = entry.subs.lock().unwrap();
            if !subs.iter().any(|sub| sub.conn_id == conn_id) {
                subs.push(SubEntry {
                    conn_id,
                    tx: tx.clone(),
                    dropped: 0,
                });
            }
            Response::Subscribed
        }
        Request::Unsubscribe { monitor } => {
            let Some(entry) = shared.monitors.lock().unwrap().get(&monitor).cloned() else {
                return no_such("monitor", &monitor);
            };
            let mut subs = entry.subs.lock().unwrap();
            let before = subs.len();
            subs.retain(|sub| sub.conn_id != conn_id);
            Response::Unsubscribed {
                was_subscribed: subs.len() < before,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ServerMessage;

    fn sub(depth: usize) -> (SubEntry, Receiver<Outbound>) {
        let (tx, rx) = sync_channel(depth);
        (
            SubEntry {
                conn_id: 0,
                tx,
                dropped: 0,
            },
            rx,
        )
    }

    fn decode(frame: Outbound) -> Notification {
        let Outbound::Notification(payload) = frame else {
            panic!("unexpected response frame {frame:?}");
        };
        match ServerMessage::decode(&payload).unwrap() {
            ServerMessage::Notification(n) => n,
            ServerMessage::Response(r) => panic!("unexpected response {r:?}"),
        }
    }

    /// A full queue never blocks the broadcaster: the push returns
    /// immediately, counting the drop against this subscriber alone.
    #[test]
    fn full_queue_drops_without_blocking() {
        let (mut entry, rx) = sub(2);
        for i in 0..5u8 {
            assert!(entry.push("m", &[i]));
        }
        assert_eq!(entry.dropped, 3);
        // Only the first two broadcasts made it through.
        assert_eq!(rx.try_recv().unwrap(), Outbound::Notification(vec![0]));
        assert_eq!(rx.try_recv().unwrap(), Outbound::Notification(vec![1]));
        assert!(rx.try_recv().is_err());
    }

    /// Once the subscriber drains its queue, the next broadcast is preceded
    /// by a `Lagged` frame carrying the exact drop count, and the counter
    /// resets.
    #[test]
    fn lagged_notification_reports_exact_drop_count() {
        let (mut entry, rx) = sub(2);
        for i in 0..6u8 {
            assert!(entry.push("m", &[i]));
        }
        assert_eq!(entry.dropped, 4);
        // Subscriber catches up.
        rx.try_recv().unwrap();
        rx.try_recv().unwrap();
        // Next broadcast: Lagged{dropped: 4} first, then the fresh frame.
        let fresh = Notification::Lagged {
            monitor: "other".into(),
            dropped: 0,
        }
        .encode();
        assert!(entry.push("m", &fresh));
        assert_eq!(entry.dropped, 0);
        match decode(rx.try_recv().unwrap()) {
            Notification::Lagged { monitor, dropped } => {
                assert_eq!(monitor, "m");
                assert_eq!(dropped, 4);
            }
            n => panic!("expected Lagged, got {n:?}"),
        }
        assert_eq!(rx.try_recv().unwrap(), Outbound::Notification(fresh));
    }

    /// If there is room for the `Lagged` marker but not the payload, the
    /// marker wins the slot and the payload counts as dropped — frames are
    /// never delivered out of order relative to their gap marker.  (This is
    /// why the server clamps queue depth to ≥ 2: with two slots the next
    /// drain converges to `Lagged` + fresh frame.)
    #[test]
    fn lagged_marker_takes_the_slot_and_payload_counts_dropped() {
        let (mut entry, rx) = sub(1);
        assert!(entry.push("m", &[1]));
        assert!(entry.push("m", &[2])); // dropped (queue full)
        assert_eq!(entry.dropped, 1);
        rx.try_recv().unwrap(); // drain [1]
        assert!(entry.push("m", &[3])); // Lagged fills the single slot; [3] drops
        assert_eq!(entry.dropped, 1);
        match decode(rx.try_recv().unwrap()) {
            Notification::Lagged { dropped, .. } => assert_eq!(dropped, 1),
            n => panic!("expected Lagged, got {n:?}"),
        }
    }

    /// With the server's minimum depth of two, a drained subscriber receives
    /// the gap marker *and* the fresh frame in one push, and the counter
    /// fully resets.
    #[test]
    fn depth_two_converges_to_lagged_plus_frame() {
        let (mut entry, rx) = sub(2);
        assert!(entry.push("m", &[1]));
        assert!(entry.push("m", &[2]));
        assert!(entry.push("m", &[3])); // dropped
        assert_eq!(entry.dropped, 1);
        rx.try_recv().unwrap();
        rx.try_recv().unwrap();
        assert!(entry.push("m", &[4]));
        match decode(rx.try_recv().unwrap()) {
            Notification::Lagged { dropped, .. } => assert_eq!(dropped, 1),
            n => panic!("expected Lagged, got {n:?}"),
        }
        assert_eq!(rx.try_recv().unwrap(), Outbound::Notification(vec![4]));
        assert_eq!(entry.dropped, 0);
    }

    /// A subscriber whose connection is gone reports `false` so the
    /// broadcaster unregisters it.
    #[test]
    fn disconnected_subscriber_is_reported_dead() {
        let (mut entry, rx) = sub(1);
        drop(rx);
        assert!(!entry.push("m", &[1]));
    }

    /// A sink that keeps every byte written to it and counts flushes.
    #[derive(Default)]
    struct FlushCounter {
        bytes: Vec<u8>,
        flushes: usize,
    }

    impl Write for FlushCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// Frames already queued when the writer wakes leave in one flush, with
    /// the bytes and order of one `write_frame` each.
    #[test]
    fn writer_coalesces_queued_frames_into_one_flush() {
        let payloads: Vec<Vec<u8>> = (0..100u32)
            .map(|i| i.to_le_bytes().repeat(i as usize % 7))
            .collect();
        let (tx, rx) = sync_channel(payloads.len());
        let (window, window_rx) = sync_channel(payloads.len() / 2);
        for (i, payload) in payloads.iter().enumerate() {
            if i % 2 == 0 {
                assert!(send_response(&tx, &window, payload.clone()));
            } else {
                tx.send(Outbound::Notification(payload.clone())).unwrap();
            }
        }
        drop(tx);
        let mut sink = FlushCounter::default();
        writer_loop(&mut sink, rx, &window_rx);
        assert_eq!(sink.flushes, 1);
        let mut read = sink.bytes.as_slice();
        for payload in &payloads {
            assert_eq!(
                &wire::read_frame(&mut read, MAX_FRAME_LEN).unwrap(),
                payload
            );
        }
        assert!(read.is_empty(), "no bytes beyond the frames");
    }

    /// A client that pipelines requests and has stopped reading fills only
    /// its response window: the rest of the queue still takes notifications,
    /// and the writer reopens the window as it takes the responses.
    #[test]
    fn responses_leave_half_the_queue_to_notifications() {
        let (tx, rx) = sync_channel(8);
        let (window, window_rx) = sync_channel(4);
        for i in 0..4u8 {
            assert!(send_response(&tx, &window, vec![i]));
        }
        assert!(window.try_send(()).is_err(), "a fifth response waits");
        let mut entry = SubEntry {
            conn_id: 0,
            tx,
            dropped: 0,
        };
        for i in 4..9u8 {
            assert!(entry.push("m", &[i]));
        }
        assert_eq!(entry.dropped, 1, "only the notification past the depth");
        drop(entry);
        let mut sink = FlushCounter::default();
        writer_loop(&mut sink, rx, &window_rx);
        let mut read = sink.bytes.as_slice();
        for i in 0..8u8 {
            assert_eq!(wire::read_frame(&mut read, MAX_FRAME_LEN).unwrap(), [i]);
        }
        assert!(read.is_empty());
        for _ in 0..4 {
            assert!(window.try_send(()).is_ok(), "every response slot reopened");
        }
    }

    /// Accepted sockets disable Nagle's algorithm, so a small response frame
    /// leaves at once instead of waiting for the peer's delayed ACK.
    #[test]
    fn accepted_connections_set_nodelay() {
        let server = OdServer::bind("127.0.0.1:0").unwrap();
        // An answered ping proves the server registered the connection.
        let mut clients: Vec<crate::Client> = (0..2)
            .map(|_| crate::Client::connect(server.local_addr()).unwrap())
            .collect();
        for client in &mut clients {
            let pong = client.request(&Request::Ping).unwrap();
            assert!(matches!(pong, Response::Pong));
        }
        let conns = server.shared.conns.lock().unwrap();
        let nodelay: Vec<Option<bool>> = conns.values().map(|s| s.nodelay().ok()).collect();
        drop(conns);
        assert_eq!(nodelay, vec![Some(true); clients.len()]);
        drop(clients);
        server.shutdown();
    }
}
