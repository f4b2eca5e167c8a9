//! Multi-process lattice traversal: context-sharded discovery over pipes.
//!
//! A coordinator spawns `N` worker processes (by default the current binary
//! re-executed with a hidden `--od-worker` flag; see [`WorkerLauncher`]) and
//! drives the same level-wise traversal as [`crate::lattice`], but with the
//! *data plane* — partition refinement and statement scans — sharded across
//! the workers.  Everything crossing a process boundary is a `u64` mask, a
//! `Copy` statement, or a fixed-width counter, serialized with the canonical
//! [`od_core::wire`] codecs ([`crate::wire`] for statements and verdicts) in
//! length-prefixed frames.
//!
//! ## Shard assignment
//!
//! Contexts are sharded **statically by their minimum attribute**: removing
//! a context's *last* attribute never changes its minimum, so a context's
//! refinement base always lives on the same worker — every level-`k`
//! partition is one incremental product of a level-`k−1` partition that
//! worker already holds, exactly like the single-process cache.  Which
//! *worker* owns each minimum is a deterministic longest-processing-time
//! assignment: attribute `j` (as a minimum) carries weight
//! `Σ_{k=1..max_context} C(arity−1−j, k−1)` — the number of lattice
//! contexts whose minimum is `j` — and the heaviest minima go to the least
//! loaded workers first.  (A plain `min mod N` would hand worker 0 nearly
//! half the lattice: contexts with minimum 0 are the largest group by far.)
//! The empty context is special: its partition is the full class, which
//! every worker builds for itself without a pass over any column, so level-0
//! scans round-robin across workers instead of serializing on one.  Each worker loads the serialized
//! columnar snapshot ([`Relation::to_bytes`]) once at startup with
//! [`Relation::from_bytes`], which keeps the transported encoding as it is:
//! no column is re-sorted.
//!
//! ## Frame taxonomy
//!
//! | frame (op) | direction | payload |
//! |---|---|---|
//! | `SnapshotChunk` | C→W | one slice of the columnar relation snapshot |
//! | `SnapshotDone`  | C→W | `g3` error budget; worker decodes, replies `Ready` |
//! | `Refine`        | C→W | owned context masks → `RefineDone` (per-context class count + heap bytes) |
//! | `ScanConsts`    | C→W | `(context, attr)` constancy scans → `Verdicts` |
//! | `ScanPairs`     | C→W | `(context, a, b)` compatibility scans → `Verdicts` |
//! | `ScanOne`       | C→W | one replay-fallback statement → `Verdicts` (length 1) |
//! | `Evict`         | C→W | drop cached partitions of one size (no reply) |
//! | `Shutdown`      | C→W | clean exit (no reply) |
//!
//! Requests for a phase are written to **all** workers before any reply is
//! read, so the shards compute concurrently; replies are then merged in
//! worker order and scattered back into canonical slot order.
//!
//! ## Merge determinism
//!
//! The coordinator runs the *control plane* — candidate propagation, rule-2
//! subsumption, the implication decider, and the sequential replay —
//! unchanged, so verdicts, minimal statements, and every deterministic
//! counter are **bit-identical to the in-process engine on any worker count**:
//!
//! * Scans are sharded whole (each verdict is produced by one serial scan,
//!   exactly as on the local plane) and scattered back to their canonical
//!   slots before the replay consumes them.
//! * Refinements are pure functions of (base partition, attribute codes),
//!   each performed exactly once by exactly one worker.  A worker builds a
//!   context from the cheapest base *it* holds, which may differ from the
//!   single-process choice when a base lives on another shard; the product
//!   is the same partition from every base.
//! * Cache accounting (hits/misses/products/evictions, cached-set counts,
//!   `csr_bytes`) is not kept by either plane: the control loop derives it
//!   from the level schedule, for the in-process and the distributed plane
//!   alike.  The only inputs it takes from the plane are each context's
//!   class count and heap bytes, which the owning worker reports
//!   (bit-identical because refinement buffers are sized exactly).
//!
//! Frame and byte counts *do* vary with the worker count, so they are
//! returned in [`DistStats`] rather than recorded as deterministic metrics.

use crate::canonical::SetOd;
use crate::lattice::{self, LatticeConfig, LevelRefinement, SetBasedDiscovery};
use crate::partition::{PartitionCache, StrippedPartition};
use crate::validate::{self, Verdict};
use od_core::wire::{self, read_frame, read_frame_opt, write_frame, Reader, MAX_FRAME_LEN};
use od_core::{AttrId, AttrSet, Relation};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::sync::mpsc;

// Coordinator→worker request opcodes.
const REQ_SNAPSHOT_CHUNK: u8 = 0;
const REQ_SNAPSHOT_DONE: u8 = 1;
const REQ_REFINE: u8 = 2;
const REQ_SCAN_CONSTS: u8 = 3;
const REQ_SCAN_PAIRS: u8 = 4;
const REQ_SCAN_ONE: u8 = 5;
const REQ_EVICT: u8 = 6;
const REQ_SHUTDOWN: u8 = 7;

// Worker→coordinator response opcodes.
const RESP_READY: u8 = 128;
const RESP_REFINE_DONE: u8 = 129;
const RESP_VERDICTS: u8 = 130;

/// Snapshot frames stay well under [`MAX_FRAME_LEN`] so a 1M-row relation
/// streams in a handful of bounded chunks.
const SNAPSHOT_CHUNK_LEN: usize = 8 << 20;

/// The hidden CLI flag that switches a binary into worker mode (see
/// [`maybe_run_worker`]).
pub const WORKER_FLAG: &str = "--od-worker";

/// A failure of the distributed traversal.  Any path that returns one drops
/// the worker pool, which closes every pipe and force-kills and reaps every
/// child — no zombies, no hangs.
#[derive(Debug)]
pub enum DistError {
    /// A worker process could not be spawned.
    Spawn(io::Error),
    /// A worker pipe failed mid-conversation — the child crashed, was
    /// killed, or closed its pipes early.  `status` carries the exit status
    /// when the child had already terminated.
    Worker {
        /// Index of the failing worker (0-based).
        worker: usize,
        /// The pipe-level failure.
        source: io::Error,
        /// The child's exit status, when it had already exited.
        status: Option<std::process::ExitStatus>,
    },
    /// A worker replied with a frame the protocol does not allow here.
    Protocol {
        /// Index of the offending worker (0-based).
        worker: usize,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Spawn(e) => write!(f, "failed to spawn worker process: {e}"),
            DistError::Worker {
                worker,
                source,
                status,
            } => {
                write!(f, "worker {worker} pipe failed: {source}")?;
                if let Some(status) = status {
                    write!(f, " (child {status})")?;
                }
                Ok(())
            }
            DistError::Protocol { worker, detail } => {
                write!(f, "worker {worker} protocol violation: {detail}")
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Spawn(e) | DistError::Worker { source: e, .. } => Some(e),
            DistError::Protocol { .. } => None,
        }
    }
}

/// Transport-level telemetry of one distributed run.  Frame and byte counts
/// vary with the worker count, so they are surfaced here (and, by the bench
/// harness, as *non-deterministic* metrics) instead of the deterministic
/// counter section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Worker processes the traversal ran with.
    pub workers: usize,
    /// Frames sent and received across all workers.
    pub frames: u64,
    /// Payload + length-prefix bytes sent and received across all workers.
    pub bytes: u64,
}

/// How the coordinator obtains its worker transports.
enum LaunchMode {
    SelfExec,
    Command {
        program: String,
        args: Vec<String>,
    },
    InProcess,
    /// Test-only: hand-built transports, for workers that misbehave at
    /// chosen protocol points (see the crash-coverage tests).
    #[cfg(test)]
    Custom(Box<dyn Fn() -> WorkerHandle + Send + Sync>),
}

/// Factory for worker transports: self-exec processes, explicit commands, or
/// in-process threads over channel pipes.
pub struct WorkerLauncher {
    mode: LaunchMode,
}

impl WorkerLauncher {
    /// Workers are the current executable re-run with [`WORKER_FLAG`].
    ///
    /// The hosting binary **must** call [`maybe_run_worker`] first thing in
    /// `main` — a binary without the hook would run its normal `main` against
    /// a pipe full of frames.
    pub fn self_exec() -> Self {
        WorkerLauncher {
            mode: LaunchMode::SelfExec,
        }
    }

    /// Workers are `program args...`, spawned verbatim — append
    /// [`WORKER_FLAG`] yourself when the target expects it.  This is how the
    /// test suite drives `reproduce`-binary workers, and misbehaving
    /// stand-ins for crash coverage.
    pub fn command(program: impl Into<String>, args: impl IntoIterator<Item = String>) -> Self {
        WorkerLauncher {
            mode: LaunchMode::Command {
                program: program.into(),
                args: args.into_iter().collect(),
            },
        }
    }

    /// Workers are in-process threads speaking the full frame protocol over
    /// in-memory pipes — every codec and merge path exercised, no process
    /// startup cost.  The backbone of the differential test suite.
    pub fn in_process() -> Self {
        WorkerLauncher {
            mode: LaunchMode::InProcess,
        }
    }

    fn launch(&self) -> Result<WorkerHandle, DistError> {
        match &self.mode {
            LaunchMode::SelfExec => {
                let exe = std::env::current_exe().map_err(DistError::Spawn)?;
                spawn_child(Command::new(exe).arg(WORKER_FLAG))
            }
            LaunchMode::Command { program, args } => spawn_child(Command::new(program).args(args)),
            LaunchMode::InProcess => {
                let (to_worker, from_coord) = channel_pipe();
                let (to_coord, from_worker) = channel_pipe();
                let thread = std::thread::spawn(move || {
                    let mut r = from_coord;
                    let mut w = to_coord;
                    if let Err(e) = run_worker(&mut r, &mut w) {
                        // The coordinator sees the dropped pipe; the message
                        // is only for debugging hung tests.
                        eprintln!("in-process od-worker failed: {e}");
                    }
                });
                Ok(WorkerHandle {
                    writer: Some(Box::new(to_worker)),
                    reader: Box::new(from_worker),
                    child: None,
                    thread: Some(thread),
                })
            }
            #[cfg(test)]
            LaunchMode::Custom(f) => Ok(f()),
        }
    }
}

fn spawn_child(cmd: &mut Command) -> Result<WorkerHandle, DistError> {
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(DistError::Spawn)?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    Ok(WorkerHandle {
        writer: Some(Box::new(BufWriter::new(stdin))),
        reader: Box::new(BufReader::new(stdout)),
        child: Some(child),
        thread: None,
    })
}

/// One connected worker: its framed transport plus whatever must be reaped.
///
/// Dropping the handle closes the write side (workers exit cleanly on EOF),
/// then force-kills and reaps a child process or joins a worker thread — so
/// an early coordinator error (including a panic) leaves no zombies behind.
struct WorkerHandle {
    writer: Option<Box<dyn Write + Send>>,
    reader: Box<dyn Read + Send>,
    child: Option<Child>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        drop(self.writer.take());
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory pipes: `Read`/`Write` over an unbounded mpsc channel, so worker
// threads and crash tests can speak the exact frame protocol.
// ---------------------------------------------------------------------------

struct PipeWriter {
    tx: mpsc::Sender<Vec<u8>>,
}

struct PipeReader {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

fn channel_pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = mpsc::channel();
    (
        PipeWriter { tx },
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe receiver dropped"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // sender dropped: EOF
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Coordinator data plane.
// ---------------------------------------------------------------------------

/// The distributed data plane the lattice loop drives instead of a local
/// [`PartitionCache`]: context-sharded requests out, merged partition
/// metadata and verdicts back.
pub struct DistPlane {
    workers: Vec<WorkerHandle>,
    owner_of_attr: Vec<usize>,
    /// The current level's contexts, aligned with the lattice's node order
    /// (scan slots index into this).
    contexts: Vec<AttrSet>,
    stats: DistStats,
}

/// Deterministic LPT assignment of minimum-attributes to workers.
///
/// Attribute `j`'s weight is the number of lattice contexts whose minimum is
/// `j` — `Σ_{k=1..max_context} C(arity−1−j, k−1)` (saturating; every weight
/// at least 1) — and minima are handed out heaviest-first to the currently
/// least-loaded worker (ties broken toward the lower worker index), so the
/// shard loads balance far better than `min mod N` on the left-heavy
/// lattice.  Pure function of `(arity, workers, max_context)`: every run of
/// every coordinator computes the same map.
fn owners_by_min_attr(arity: usize, workers: usize, max_context: usize) -> Vec<usize> {
    let mut weighted: Vec<(u64, usize)> = (0..arity)
        .map(|j| {
            let m = (arity - 1 - j) as u64;
            let mut weight: u64 = 0;
            let mut binom: u64 = 1; // C(m, k), starting at k = 0
            for k in 0..max_context.min(m as usize + 1) as u64 {
                weight = weight.saturating_add(binom);
                binom = binom.saturating_mul(m - k) / (k + 1);
            }
            (weight.max(1), j)
        })
        .collect();
    weighted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut load = vec![0u64; workers];
    let mut owner = vec![0usize; arity];
    for (weight, j) in weighted {
        let target = (0..workers)
            .min_by_key(|&w| (load[w], w))
            .expect("at least one worker");
        owner[j] = target;
        load[target] += weight;
    }
    owner
}

impl DistPlane {
    /// Launch `workers` workers, stream them the relation snapshot, and wait
    /// until every one has loaded it.
    pub(crate) fn spawn(
        rel: &Relation,
        workers: usize,
        budget: usize,
        max_context: usize,
        launcher: &WorkerLauncher,
    ) -> Result<Self, DistError> {
        let workers = workers.max(1);
        let mut plane = DistPlane {
            workers: Vec::with_capacity(workers),
            owner_of_attr: owners_by_min_attr(rel.schema().arity(), workers, max_context),
            contexts: Vec::new(),
            stats: DistStats {
                workers,
                ..Default::default()
            },
        };
        for _ in 0..workers {
            let handle = launcher.launch()?;
            plane.workers.push(handle);
        }
        let snapshot = rel.to_bytes();
        for w in 0..workers {
            for chunk in snapshot.chunks(SNAPSHOT_CHUNK_LEN) {
                let mut payload = Vec::with_capacity(chunk.len() + 8);
                wire::put_u8(&mut payload, REQ_SNAPSHOT_CHUNK);
                wire::put_bytes(&mut payload, chunk);
                plane.send(w, &payload)?;
            }
            let mut payload = Vec::new();
            wire::put_u8(&mut payload, REQ_SNAPSHOT_DONE);
            wire::put_u64(&mut payload, budget as u64);
            plane.send(w, &payload)?;
            plane.flush(w)?;
        }
        for w in 0..workers {
            let _s = od_obs::span(format!("dist/worker{w}/load"));
            let payload = plane.recv(w)?;
            let mut r = Reader::new(&payload);
            if r.u8().ok() != Some(RESP_READY) {
                return Err(DistError::Protocol {
                    worker: w,
                    detail: "expected Ready after snapshot".into(),
                });
            }
        }
        Ok(plane)
    }

    fn owner_of(&self, ctx: AttrSet) -> usize {
        ctx.first()
            .and_then(|a| self.owner_of_attr.get(a.index()).copied())
            .unwrap_or(0)
    }

    fn send(&mut self, w: usize, payload: &[u8]) -> Result<(), DistError> {
        self.stats.frames += 1;
        self.stats.bytes += payload.len() as u64 + 4;
        let res = {
            let writer = self.workers[w].writer.as_mut().expect("writer open");
            write_frame(writer, payload)
        };
        res.map_err(|e| self.worker_err(w, e))
    }

    fn flush(&mut self, w: usize) -> Result<(), DistError> {
        let res = {
            let writer = self.workers[w].writer.as_mut().expect("writer open");
            writer.flush()
        };
        res.map_err(|e| self.worker_err(w, e))
    }

    fn recv(&mut self, w: usize) -> Result<Vec<u8>, DistError> {
        let res = read_frame(&mut self.workers[w].reader, MAX_FRAME_LEN);
        match res {
            Ok(payload) => {
                self.stats.frames += 1;
                self.stats.bytes += payload.len() as u64 + 4;
                Ok(payload)
            }
            Err(e) => Err(self.worker_err(w, e)),
        }
    }

    /// Attach the child's exit status (when it has already died) to a pipe
    /// error — the difference between "worker crashed" and "pipe hiccup".
    fn worker_err(&mut self, w: usize, source: io::Error) -> DistError {
        let status = self.workers[w]
            .child
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten());
        DistError::Worker {
            worker: w,
            source,
            status,
        }
    }

    /// Refine one level's partitions across the shards, merging the owners'
    /// per-context metadata back into context order.
    pub(crate) fn refine_level(
        &mut self,
        contexts: &[AttrSet],
    ) -> Result<LevelRefinement, DistError> {
        self.contexts = contexts.to_vec();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for (i, ctx) in contexts.iter().enumerate() {
            groups[self.owner_of(*ctx)].push(i);
        }
        for (w, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut payload = Vec::with_capacity(5 + group.len() * 8);
            wire::put_u8(&mut payload, REQ_REFINE);
            wire::put_u32(&mut payload, group.len() as u32);
            for &i in group {
                wire::put_u64(&mut payload, contexts[i].mask());
            }
            self.send(w, &payload)?;
            self.flush(w)?;
        }
        let mut refined = LevelRefinement {
            parts: vec![(0, 0); contexts.len()],
        };
        for (w, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let payload = {
                let _s = od_obs::span(format!("dist/worker{w}/refine"));
                self.recv(w)?
            };
            let mut r = Reader::new(&payload);
            let mut parse = || -> Result<(), String> {
                if r.u8().map_err(|e| e.to_string())? != RESP_REFINE_DONE {
                    return Err("expected RefineDone".into());
                }
                let n = r.seq_len(16).map_err(|e| e.to_string())?;
                if n != group.len() {
                    return Err(format!(
                        "RefineDone carries {n} metas, expected {}",
                        group.len()
                    ));
                }
                for &i in group {
                    let classes = r.u64().map_err(|e| e.to_string())?;
                    let bytes = r.u64().map_err(|e| e.to_string())?;
                    refined.parts[i] = (classes, bytes);
                }
                Ok(())
            };
            parse().map_err(|detail| DistError::Protocol { worker: w, detail })?;
        }
        Ok(refined)
    }

    /// Run one phase of scans sharded by item owner; `encode_item` writes
    /// item `i`'s request body.  Verdicts come back in canonical slot order.
    fn scan_batch(
        &mut self,
        op: u8,
        owners: &[usize],
        encode_item: impl Fn(&mut Vec<u8>, usize),
    ) -> Result<Vec<Verdict>, DistError> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for (i, &w) in owners.iter().enumerate() {
            groups[w].push(i);
        }
        for (w, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut payload = Vec::new();
            wire::put_u8(&mut payload, op);
            wire::put_u32(&mut payload, group.len() as u32);
            for &i in group {
                encode_item(&mut payload, i);
            }
            self.send(w, &payload)?;
            self.flush(w)?;
        }
        let mut verdicts: Vec<Option<Verdict>> = owners.iter().map(|_| None).collect();
        for (w, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let payload = {
                let _s = od_obs::span(format!("dist/worker{w}/scan"));
                self.recv(w)?
            };
            let mut r = Reader::new(&payload);
            let mut parse = || -> Result<(), String> {
                if r.u8().map_err(|e| e.to_string())? != RESP_VERDICTS {
                    return Err("expected Verdicts".into());
                }
                let n = r.seq_len(21).map_err(|e| e.to_string())?;
                if n != group.len() {
                    return Err(format!("{n} verdicts for {} requests", group.len()));
                }
                for &i in group {
                    verdicts[i] =
                        Some(crate::wire::get_verdict(&mut r).map_err(|e| e.to_string())?);
                }
                Ok(())
            };
            parse().map_err(|detail| DistError::Protocol { worker: w, detail })?;
        }
        Ok(verdicts
            .into_iter()
            .map(|v| v.expect("every slot has an owner"))
            .collect())
    }

    /// Scan owner for slot `slot` of a phase: the context's partition owner,
    /// except that the empty context — whose partition is the pass-free full
    /// class every worker can materialize for free — round-robins its scans
    /// so level 0 doesn't serialize on a single worker.  Verdicts are
    /// produced by one serial scan wherever they run, so the choice never
    /// shows in the results.
    fn scan_owner(&self, slot: usize, ctx: AttrSet) -> usize {
        if ctx.is_empty() {
            slot % self.workers.len()
        } else {
            self.owner_of(ctx)
        }
    }

    /// Constancy scans for `(node index, attr)` slots of the current level.
    pub(crate) fn scan_consts(
        &mut self,
        slots: &[(usize, AttrId)],
    ) -> Result<Vec<Verdict>, DistError> {
        let items: Vec<(AttrSet, AttrId)> = slots
            .iter()
            .map(|&(i, attr)| (self.contexts[i], attr))
            .collect();
        let owners: Vec<usize> = items
            .iter()
            .enumerate()
            .map(|(slot, &(ctx, _))| self.scan_owner(slot, ctx))
            .collect();
        self.scan_batch(REQ_SCAN_CONSTS, &owners, |buf, i| {
            let (ctx, attr) = items[i];
            wire::put_u64(buf, ctx.mask());
            wire::put_u32(buf, attr.0);
        })
    }

    /// Compatibility scans for `(node index, (a, b))` slots of the current
    /// level.
    pub(crate) fn scan_pairs(
        &mut self,
        slots: &[(usize, (AttrId, AttrId))],
    ) -> Result<Vec<Verdict>, DistError> {
        let items: Vec<(AttrSet, AttrId, AttrId)> = slots
            .iter()
            .map(|&(i, (a, b))| (self.contexts[i], a, b))
            .collect();
        let owners: Vec<usize> = items
            .iter()
            .enumerate()
            .map(|(slot, &(ctx, ..))| self.scan_owner(slot, ctx))
            .collect();
        self.scan_batch(REQ_SCAN_PAIRS, &owners, |buf, i| {
            let (ctx, a, b) = items[i];
            wire::put_u64(buf, ctx.mask());
            wire::put_u32(buf, a.0);
            wire::put_u32(buf, b.0);
        })
    }

    /// Replay-fallback scan of a single statement on its owning worker.
    pub(crate) fn scan_one(&mut self, stmt: &SetOd) -> Result<Verdict, DistError> {
        let w = self.owner_of(*stmt.context());
        let mut payload = Vec::new();
        wire::put_u8(&mut payload, REQ_SCAN_ONE);
        crate::wire::put_statement(&mut payload, stmt);
        self.send(w, &payload)?;
        self.flush(w)?;
        let payload = self.recv(w)?;
        let parse = || -> Result<Verdict, String> {
            let mut r = Reader::new(&payload);
            if r.u8().map_err(|e| e.to_string())? != RESP_VERDICTS {
                return Err("expected Verdicts".into());
            }
            if r.seq_len(21).map_err(|e| e.to_string())? != 1 {
                return Err("ScanOne expects exactly one verdict".into());
            }
            crate::wire::get_verdict(&mut r).map_err(|e| e.to_string())
        };
        parse().map_err(|detail| DistError::Protocol { worker: w, detail })
    }

    /// Broadcast the per-level eviction.
    pub(crate) fn evict(&mut self, size: usize) -> Result<(), DistError> {
        let mut payload = Vec::new();
        wire::put_u8(&mut payload, REQ_EVICT);
        wire::put_u64(&mut payload, size as u64);
        for w in 0..self.workers.len() {
            self.send(w, &payload)?;
            self.flush(w)?;
        }
        Ok(())
    }

    /// Clean shutdown: ask every worker to exit, close the pipes, reap the
    /// children, and hand back the transport stats.
    pub(crate) fn shutdown(mut self) -> Result<DistStats, DistError> {
        let mut payload = Vec::new();
        wire::put_u8(&mut payload, REQ_SHUTDOWN);
        for w in 0..self.workers.len() {
            self.send(w, &payload)?;
            self.flush(w)?;
        }
        let stats = self.stats;
        // Dropping the handles closes stdin (EOF backstop), kills whatever
        // ignored Shutdown, and reaps every child.
        self.workers.clear();
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Run the level-wise traversal with the data plane sharded across
/// `config.workers` worker processes (at least 1), returning the discovery
/// (bit-identical to [`lattice::discover_statements`] with `workers = 0`)
/// plus the transport stats.
pub fn discover_statements_dist(
    rel: &Relation,
    config: &LatticeConfig,
    launcher: &WorkerLauncher,
) -> Result<(SetBasedDiscovery, DistStats), DistError> {
    let budget = validate::error_budget(rel.len(), config.epsilon);
    let plane = DistPlane::spawn(
        rel,
        config.workers.max(1),
        budget,
        config.max_context,
        launcher,
    )?;
    let mut plane = lattice::Plane::Dist(Box::new(plane));
    let discovery = lattice::discover_with_plane(rel, config, &mut plane)?;
    let lattice::Plane::Dist(plane) = plane else {
        unreachable!("plane variant is stable across the traversal")
    };
    let stats = plane.shutdown()?;
    Ok((discovery, stats))
}

/// Enter worker mode when [`WORKER_FLAG`] is among the process arguments:
/// serve frames on stdin/stdout until shutdown or EOF, then exit the
/// process.  Binaries that spawn workers via [`WorkerLauncher::self_exec`]
/// must call this first thing in `main`; for all other processes it is a
/// no-op.
pub fn maybe_run_worker() {
    if !std::env::args().any(|a| a == WORKER_FLAG) {
        return;
    }
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = stdin.lock();
    let mut writer = BufWriter::new(stdout.lock());
    let code = match run_worker(&mut reader, &mut writer) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("od-worker: {e}");
            1
        }
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Serve one worker conversation over any framed transport: receive the
/// relation snapshot, then answer refine/scan/evict requests until
/// `Shutdown` or EOF.
pub fn run_worker(r: &mut impl Read, w: &mut impl Write) -> io::Result<()> {
    // -- Phase 1: snapshot assembly --------------------------------------
    let mut snapshot: Vec<u8> = Vec::new();
    let budget: usize;
    loop {
        let payload = read_frame(r, MAX_FRAME_LEN)?;
        let mut rd = Reader::new(&payload);
        match rd.u8().map_err(invalid)? {
            REQ_SNAPSHOT_CHUNK => {
                snapshot.extend_from_slice(rd.bytes().map_err(invalid)?);
                rd.finish().map_err(invalid)?;
            }
            REQ_SNAPSHOT_DONE => {
                budget = rd.u64().map_err(invalid)? as usize;
                rd.finish().map_err(invalid)?;
                break;
            }
            op => return Err(invalid(format!("unexpected opcode {op} before snapshot"))),
        }
    }
    let rel = Relation::from_bytes(&snapshot).map_err(invalid)?;
    drop(snapshot);
    let mut cache = PartitionCache::new(&rel);
    let mut ready = Vec::new();
    wire::put_u8(&mut ready, RESP_READY);
    write_frame(w, &ready)?;
    w.flush()?;
    // -- Phase 2: serve ---------------------------------------------------
    while let Some(payload) = read_frame_opt(r, MAX_FRAME_LEN)? {
        let mut rd = Reader::new(&payload);
        match rd.u8().map_err(invalid)? {
            REQ_REFINE => {
                let n = rd.seq_len(8).map_err(invalid)?;
                let mut sets = Vec::with_capacity(n);
                for _ in 0..n {
                    sets.push(AttrSet::from_mask(rd.u64().map_err(invalid)?));
                }
                rd.finish().map_err(invalid)?;
                let parts = cache.partitions_batch(&sets);
                let mut reply = Vec::with_capacity(5 + parts.len() * 16);
                wire::put_u8(&mut reply, RESP_REFINE_DONE);
                wire::put_u32(&mut reply, parts.len() as u32);
                for part in &parts {
                    wire::put_u64(&mut reply, part.num_classes() as u64);
                    wire::put_u64(&mut reply, part.approx_heap_bytes() as u64);
                }
                write_frame(w, &reply)?;
                w.flush()?;
            }
            REQ_SCAN_CONSTS => {
                let n = rd.seq_len(12).map_err(invalid)?;
                let mut items: Vec<(AttrSet, AttrId)> = Vec::with_capacity(n);
                for _ in 0..n {
                    let ctx = AttrSet::from_mask(rd.u64().map_err(invalid)?);
                    let attr = AttrId(rd.u32().map_err(invalid)?);
                    items.push((ctx, attr));
                }
                rd.finish().map_err(invalid)?;
                let parts: Vec<Rc<StrippedPartition>> =
                    items.iter().map(|(ctx, _)| cache.partition(ctx)).collect();
                let verdicts: Vec<Verdict> = parts
                    .iter()
                    .zip(&items)
                    .map(|(part, &(_, a))| {
                        validate::constancy_verdict(part, &cache.codes(a), budget)
                    })
                    .collect();
                write_verdicts(w, &verdicts)?;
            }
            REQ_SCAN_PAIRS => {
                let n = rd.seq_len(16).map_err(invalid)?;
                let mut items: Vec<(AttrSet, AttrId, AttrId)> = Vec::with_capacity(n);
                for _ in 0..n {
                    let ctx = AttrSet::from_mask(rd.u64().map_err(invalid)?);
                    let a = AttrId(rd.u32().map_err(invalid)?);
                    let b = AttrId(rd.u32().map_err(invalid)?);
                    items.push((ctx, a, b));
                }
                rd.finish().map_err(invalid)?;
                let parts: Vec<Rc<StrippedPartition>> =
                    items.iter().map(|(ctx, ..)| cache.partition(ctx)).collect();
                let scans: Vec<(&StrippedPartition, AttrId, AttrId)> = parts
                    .iter()
                    .zip(&items)
                    .map(|(part, &(_, a, b))| (&**part, a, b))
                    .collect();
                let verdicts = validate::compatibility_verdicts(&mut cache, &scans, budget);
                write_verdicts(w, &verdicts)?;
            }
            REQ_SCAN_ONE => {
                let stmt = crate::wire::get_statement(&mut rd).map_err(invalid)?;
                rd.finish().map_err(invalid)?;
                let verdict = validate::statement_verdict(&mut cache, &stmt, 1, budget);
                write_verdicts(w, std::slice::from_ref(&verdict))?;
            }
            REQ_EVICT => {
                let size = rd.u64().map_err(invalid)? as usize;
                rd.finish().map_err(invalid)?;
                cache.evict_sets_of_size(size);
            }
            REQ_SHUTDOWN => return Ok(()),
            op => return Err(invalid(format!("unknown request opcode {op}"))),
        }
    }
    Ok(())
}

fn write_verdicts(w: &mut impl Write, verdicts: &[Verdict]) -> io::Result<()> {
    let mut reply = Vec::with_capacity(5 + verdicts.len() * 24);
    wire::put_u8(&mut reply, RESP_VERDICTS);
    wire::put_u32(&mut reply, verdicts.len() as u32);
    for v in verdicts {
        crate::wire::put_verdict(&mut reply, v);
    }
    write_frame(w, &reply)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::fixtures;

    #[test]
    fn sharding_is_static_and_min_attr_stable() {
        let rel = fixtures::example_5_taxes();
        let plane = DistPlane::spawn(&rel, 3, 0, 4, &WorkerLauncher::in_process()).expect("spawn");
        for mask in 0u64..16 {
            let ctx = AttrSet::from_mask(mask);
            let owner = plane.owner_of(ctx);
            match ctx.first() {
                None => assert_eq!(owner, 0),
                Some(min) => {
                    // The owner is a function of the minimum attribute alone.
                    assert_eq!(owner, plane.owner_of(AttrSet::singleton(min)));
                    // Dropping the last attribute keeps the owner: the
                    // refinement base always lives on the same shard.
                    if let Some(last) = ctx.last() {
                        if last != min {
                            assert_eq!(plane.owner_of(ctx.without(last)), owner);
                        }
                    }
                }
            }
        }
        plane.shutdown().expect("shutdown");
    }

    #[test]
    fn lpt_owner_assignment_balances_the_left_heavy_lattice() {
        // Arity 6, width 4 (the E17 shape): weights per minimum attribute
        // are 26, 15, 8, 4, 2, 1.  LPT over two workers splits them 28/28 —
        // `min mod 2` would split 36/20.
        let owners = owners_by_min_attr(6, 2, 4);
        let weights = [26u64, 15, 8, 4, 2, 1];
        let mut load = [0u64; 2];
        for (j, &w) in owners.iter().enumerate() {
            load[w] += weights[j];
        }
        assert_eq!(load, [28, 28], "owners: {owners:?}");
        // Deterministic: same inputs, same map.
        assert_eq!(owners, owners_by_min_attr(6, 2, 4));
        // Degenerate shapes stay in range.
        for (arity, workers, width) in [(1, 1, 1), (1, 8, 4), (64, 3, 6), (6, 16, 4)] {
            for &o in &owners_by_min_attr(arity, workers, width) {
                assert!(o < workers);
            }
        }
    }

    #[test]
    fn in_process_workers_match_the_threaded_engine() {
        let rel = fixtures::example_5_taxes();
        let local = lattice::discover_statements(&rel, &LatticeConfig::default());
        for workers in [1, 2, 4] {
            let config = LatticeConfig {
                workers,
                ..Default::default()
            };
            let (dist, stats) =
                discover_statements_dist(&rel, &config, &WorkerLauncher::in_process())
                    .expect("dist discovery");
            assert_eq!(local.minimal_statements(), dist.minimal_statements());
            assert_eq!(local.verdicts(), dist.verdicts());
            assert_eq!(local.stats, dist.stats, "workers={workers}");
            assert_eq!(local.level_stats(), dist.level_stats());
            assert_eq!(stats.workers, workers);
            assert!(stats.frames > 0 && stats.bytes > 0);
        }
    }

    #[test]
    fn channel_pipes_frame_roundtrip() {
        let (mut w, mut r) = channel_pipe();
        write_frame(&mut w, b"hello").unwrap();
        write_frame(&mut w, b"").unwrap();
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), b"");
        drop(w);
        assert!(read_frame_opt(&mut r, MAX_FRAME_LEN).unwrap().is_none());
    }

    #[test]
    fn dropped_pipe_reader_reports_broken_pipe() {
        let (mut w, r) = channel_pipe();
        drop(r);
        assert!(write_frame(&mut w, b"x").is_err());
    }

    /// Run a distributed discovery that is expected to fail, under a
    /// watchdog: a hang (the bug class these tests exist for) fails the test
    /// in `secs` seconds instead of wedging the suite.
    fn expect_dist_error_within(launcher: WorkerLauncher, secs: u64) -> DistError {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let rel = fixtures::example_5_taxes();
            let config = LatticeConfig {
                workers: 2,
                ..Default::default()
            };
            let _ = tx.send(discover_statements_dist(&rel, &config, &launcher));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(Err(e)) => e,
            Ok(Ok(_)) => panic!("a crashing worker pool unexpectedly succeeded"),
            Err(_) => panic!("distributed traversal hung on a crashed worker"),
        }
    }

    #[test]
    fn mid_traversal_crash_is_a_clean_error_without_hangs() {
        // A worker that speaks the handshake honestly — consumes the
        // snapshot, reports Ready — and then dies before answering its first
        // real request, like a child killed mid-traversal.  The coordinator
        // must surface a DistError (the EOF on the reply pipe), not hang.
        let launcher = WorkerLauncher {
            mode: LaunchMode::Custom(Box::new(|| {
                let (to_worker, from_coord) = channel_pipe();
                let (to_coord, from_worker) = channel_pipe();
                let thread = std::thread::spawn(move || {
                    let mut r = from_coord;
                    let mut w = to_coord;
                    loop {
                        let payload = match read_frame(&mut r, MAX_FRAME_LEN) {
                            Ok(p) => p,
                            Err(_) => return,
                        };
                        if payload.first() == Some(&REQ_SNAPSHOT_DONE) {
                            break;
                        }
                    }
                    let mut ready = Vec::new();
                    wire::put_u8(&mut ready, RESP_READY);
                    let _ = write_frame(&mut w, &ready);
                    // Die on the first post-Ready frame: both pipes drop.
                    let _ = read_frame(&mut r, MAX_FRAME_LEN);
                });
                WorkerHandle {
                    writer: Some(Box::new(to_worker)),
                    reader: Box::new(from_worker),
                    child: None,
                    thread: Some(thread),
                }
            })),
        };
        let err = expect_dist_error_within(launcher, 30);
        assert!(
            matches!(err, DistError::Worker { .. }),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn garbage_speaking_worker_is_a_protocol_error() {
        // A worker that answers the snapshot with a frame the protocol does
        // not allow: the coordinator must reject it as Protocol, not
        // misinterpret it.
        let launcher = WorkerLauncher {
            mode: LaunchMode::Custom(Box::new(|| {
                let (to_worker, from_coord) = channel_pipe();
                let (to_coord, from_worker) = channel_pipe();
                let thread = std::thread::spawn(move || {
                    let mut r = from_coord;
                    let mut w = to_coord;
                    let _ = write_frame(&mut w, &[0xEE, 1, 2, 3]);
                    while read_frame(&mut r, MAX_FRAME_LEN).is_ok() {}
                });
                WorkerHandle {
                    writer: Some(Box::new(to_worker)),
                    reader: Box::new(from_worker),
                    child: None,
                    thread: Some(thread),
                }
            })),
        };
        let err = expect_dist_error_within(launcher, 30);
        assert!(
            matches!(err, DistError::Protocol { .. }),
            "unexpected error: {err}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn instantly_exiting_worker_is_a_clean_error() {
        let rel = fixtures::example_5_taxes();
        let launcher = WorkerLauncher::command("sh", ["-c".to_string(), "exit 1".to_string()]);
        let config = LatticeConfig {
            workers: 2,
            ..Default::default()
        };
        let err =
            discover_statements_dist(&rel, &config, &launcher).expect_err("dead workers must fail");
        assert!(
            matches!(err, DistError::Worker { .. } | DistError::Protocol { .. }),
            "unexpected error: {err}"
        );
        // Display renders without panicking and is non-empty.
        assert!(!err.to_string().is_empty());
    }
}
