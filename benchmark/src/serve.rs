//! `serve-mixed`: an in-process `OdServer` under an open-loop mixed load.
//!
//! The server hosts `taxes` (with the monitor `ledger` on the two exact tax
//! ODs) and `dates` (no monitor).  One pipelined connection, subscribed to
//! `ledger`, carries the load as raw frames: a sender thread writes each
//! request at its due time whether or not earlier ones were answered, and a
//! receiver thread matches responses in order and checks each one.  Latency
//! is timed from the due time, so time a request waits behind a stall counts.
//!
//! The mix is a pure function of the request index and the seed: 40%
//! `MonitorStatus`, 20% `ApplyDelta`, 20% `Implies`, 10% `Discover` (a cache
//! hit after set-up), 10% `Ping`.  Deltas alternate between inserting a row
//! and deleting it again by its predicted id (ids are never reused); every
//! fourth such toggle inserts a row violating both ODs, which must flip both
//! verdicts and push exactly two `Flips` notifications.

use crate::profile::three_common_years;
use crate::trace::{self, Spans};
use crate::{stats, trace_overhead_pct, Outcome, RunArgs, SETUPS_AFTER};
use od_core::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use od_core::{AttrId, AttrList, OrderDependency, Relation, Value};
use od_discovery::{discover_ods, DiscoveryConfig};
use od_infer::{Decider, OdSet};
use od_server::proto::{Notification, Request, Response, ServerMessage};
use od_server::OdServer;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const TAX_ROWS: usize = 20_000;
const SMOKE_TAX_ROWS: usize = 2_000;
const DATE_DAYS: usize = 1095;
const MONITOR: &str = "ledger";
/// The reference step's rate: latencies and layer shares are read here.
const REFERENCE_RPS: f64 = 4_000.0;
/// Open-loop steps as (requests per second, share of the measured time).
const STEPS: [(f64, f64); 4] = [
    (2_000.0, 0.15),
    (REFERENCE_RPS, 0.45),
    (8_000.0, 0.15),
    (16_000.0, 0.15),
];
/// Share of the measured time given to the flood, which sends without a
/// schedule to find the connection's throughput.
const FLOOD_SHARE: f64 = 0.10;
/// Flood requests per second of its share: about what one connection
/// answers per second on the reference host.
const FLOOD_RPS: f64 = 16_000.0;
/// A step meets its limit when status p99 and generator lateness p99 stay
/// under this and nothing fails.
const LIMIT_US: f64 = 1_000.0;
/// Longest wait for any one frame before the rest count as missing.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Status,
    Apply,
    Implies,
    Discover,
    Ping,
}

/// Ten slots in the 4:2:2:1:1 proportions of the mix.
const PATTERN: [Kind; 10] = [
    Kind::Status,
    Kind::Apply,
    Kind::Status,
    Kind::Implies,
    Kind::Discover,
    Kind::Status,
    Kind::Apply,
    Kind::Implies,
    Kind::Status,
    Kind::Ping,
];

/// One request of the mix and the answer it must get.
#[derive(Debug, Clone, Copy)]
enum Planned {
    Status { rows: u64, accepted: bool },
    Insert { id: u32, rows: u64, violating: bool },
    Delete { id: u32, rows: u64, violating: bool },
    Implies { goal: usize, implied: bool },
    Discover,
    Ping,
}

impl Planned {
    fn kind(&self) -> Kind {
        match self {
            Planned::Status { .. } => Kind::Status,
            Planned::Insert { .. } | Planned::Delete { .. } => Kind::Apply,
            Planned::Implies { .. } => Kind::Implies,
            Planned::Discover => Kind::Discover,
            Planned::Ping => Kind::Ping,
        }
    }

    /// Does this delta cross the ε boundary (and so push a `Flips`)?
    fn flips(&self) -> bool {
        matches!(
            self,
            Planned::Insert {
                violating: true,
                ..
            } | Planned::Delete {
                violating: true,
                ..
            }
        )
    }
}

/// The generated inputs of one run.
struct Inputs {
    taxes: Relation,
    dates: Relation,
    tax_ods: Vec<OrderDependency>,
    premises: Vec<OrderDependency>,
    goals: Vec<(OrderDependency, bool)>,
    discover: Request,
    discovered: Response,
}

fn od(rel: &Relation, lhs: &[&str], rhs: &[&str]) -> OrderDependency {
    let list = |names: &[&str]| -> AttrList {
        names
            .iter()
            .map(|n| rel.schema().attr_by_name(n).expect("schema attribute"))
            .collect::<Vec<AttrId>>()
            .into()
    };
    OrderDependency::new(list(lhs), list(rhs))
}

fn inputs(args: &RunArgs) -> Inputs {
    let rows = if args.smoke { SMOKE_TAX_ROWS } else { TAX_ROWS };
    let taxes = od_workload::generate_taxes(rows, args.derive(4));
    let dates = od_workload::generate_date_dim(three_common_years(args.derive(5)), DATE_DAYS, 0);
    let tax_ods = od_workload::tax::tax_ods(taxes.schema());
    let premises: Vec<OrderDependency> = od_workload::figure_2_ods(dates.schema())
        .into_iter()
        .map(|(_, od)| od)
        .collect();
    // Goals alternate between implied and not implied by Figure 2.
    let decider = Decider::new(&OdSet::from_ods(premises.iter().cloned()));
    let goals = [
        od(&dates, &["d_date_sk"], &["d_year", "d_quarter"]),
        od(&dates, &["d_month"], &["d_month_name"]),
        od(&dates, &["d_date_sk"], &["d_year", "d_month"]),
        od(&dates, &["d_year"], &["d_date"]),
    ]
    .into_iter()
    .map(|goal| {
        let implied = decider.implies(&goal);
        (goal, implied)
    })
    .collect();
    let config = DiscoveryConfig::default();
    let discover = Request::Discover {
        relation: "dates".into(),
        max_lhs: config.max_lhs as u32,
        max_rhs: config.max_rhs as u32,
        epsilon: config.epsilon,
        max_context: config.max_context as u32,
    };
    let local = discover_ods(&dates, config);
    Inputs {
        discovered: Response::Discovered {
            ods: local.ods,
            errors: local.errors,
        },
        taxes,
        dates,
        tax_ods,
        premises,
        goals,
        discover,
    }
}

/// The request sequence: a deterministic state machine, so the sender and
/// the receiver each advance their own copy in lock step instead of sharing
/// a materialised plan.
#[derive(Clone)]
struct Planner<'a> {
    inputs: &'a Inputs,
    offset: usize,
    index: usize,
    deltas: usize,
    implies: usize,
    rows: u64,
    violating: bool,
}

impl<'a> Planner<'a> {
    fn new(inputs: &'a Inputs, seed: u64) -> Self {
        Planner {
            inputs,
            offset: (seed % PATTERN.len() as u64) as usize,
            index: 0,
            deltas: 0,
            implies: 0,
            rows: inputs.taxes.len() as u64,
            violating: false,
        }
    }

    fn next(&mut self) -> Planned {
        let kind = PATTERN[(self.index + self.offset) % PATTERN.len()];
        self.index += 1;
        match kind {
            Kind::Status => Planned::Status {
                rows: self.rows,
                accepted: !self.violating,
            },
            Kind::Apply => {
                let toggle = self.deltas / 2;
                let inserting = self.deltas.is_multiple_of(2);
                self.deltas += 1;
                let violating = toggle % 4 == 3;
                // Insert ids follow the initial rows, one per toggle.
                let id = (self.inputs.taxes.len() + toggle) as u32;
                if inserting {
                    self.rows += 1;
                    self.violating = violating;
                    Planned::Insert {
                        id,
                        rows: self.rows,
                        violating,
                    }
                } else {
                    self.rows -= 1;
                    self.violating = false;
                    Planned::Delete {
                        id,
                        rows: self.rows,
                        violating,
                    }
                }
            }
            Kind::Implies => {
                let goal = self.implies % self.inputs.goals.len();
                self.implies += 1;
                Planned::Implies {
                    goal,
                    implied: self.inputs.goals[goal].1,
                }
            }
            Kind::Discover => Planned::Discover,
            Kind::Ping => Planned::Ping,
        }
    }

    fn request(&self, planned: &Planned) -> Request {
        let inputs = self.inputs;
        let delta = |inserts, deletes| Request::ApplyDelta {
            monitor: MONITOR.into(),
            inserts,
            deletes,
        };
        match *planned {
            Planned::Status { .. } => Request::MonitorStatus {
                monitor: MONITOR.into(),
            },
            Planned::Insert { id, violating, .. } => {
                let toggle = id as usize - inputs.taxes.len();
                let row = if violating {
                    // Top income in the lowest bracket, paying nothing:
                    // breaks both income ↦ bracket and income ↦ payable.
                    vec![
                        Value::Int(9_000_000 + toggle as i64),
                        Value::Int(399_999),
                        Value::Int(1),
                        Value::Int(0),
                    ]
                } else {
                    inputs
                        .taxes
                        .tuple((toggle * 31) % inputs.taxes.len())
                        .clone()
                };
                delta(vec![row], vec![])
            }
            Planned::Delete { id, .. } => delta(vec![], vec![id]),
            Planned::Implies { goal, .. } => Request::Implies {
                premises: inputs.premises.clone(),
                goal: inputs.goals[goal].0.clone(),
            },
            Planned::Discover => inputs.discover.clone(),
            Planned::Ping => Request::Ping,
        }
    }
}

fn check(planned: &Planned, response: &Response, inputs: &Inputs) -> bool {
    let delta_ok = |want_inserted: &[u32], want_deleted, want_rows, violating: bool| match response
    {
        Response::DeltaApplied {
            inserted,
            deleted,
            rows,
            flipped,
            ..
        } => {
            inserted == want_inserted
                && *deleted == want_deleted
                && *rows == want_rows
                && flipped.len() == if violating { 2 } else { 0 }
        }
        _ => false,
    };
    match (planned, response) {
        (Planned::Status { rows, accepted }, Response::Statuses { rows: n, statuses }) => {
            n == rows && statuses.len() == 2 && statuses.iter().all(|s| s.accepted == *accepted)
        }
        (
            &Planned::Insert {
                id,
                rows,
                violating,
            },
            _,
        ) => delta_ok(&[id], 0, rows, violating),
        (
            &Planned::Delete {
                rows, violating, ..
            },
            _,
        ) => delta_ok(&[], 1, rows, violating),
        (Planned::Implies { implied, .. }, Response::Implication { implied: got }) => {
            implied == got
        }
        (Planned::Discover, response) => *response == inputs.discovered,
        (Planned::Ping, Response::Pong) => true,
        _ => false,
    }
}

/// What one step of the load observed.
#[derive(Default)]
struct StepResult {
    /// `(kind, µs from due time to response)` per answered request.
    latency_us: Vec<(Kind, f64)>,
    /// µs from a violating delta's due time to its `Flips` notification.
    flip_us: Vec<f64>,
    /// µs the sender wrote each request after its due time.
    late_us: Vec<f64>,
    /// ns per `Request::encode` and `ServerMessage::decode` (traced steps).
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    /// Response arrival times (flood throughput).
    arrivals: Vec<Instant>,
    /// `ApplyDelta` requests answered.
    applies: usize,
    failed: u64,
    /// The connection broke or a response never came: stop the run.
    broken: bool,
}

/// The load connection: raw frames over one TCP stream.
struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    flip_seq: u64,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("set a read timeout");
        Conn {
            writer: BufWriter::new(stream.try_clone().expect("clone the stream")),
            reader: BufReader::new(stream),
            flip_seq: 0,
        }
    }

    /// Blocking request/response, for set-up (no notifications expected).
    fn call(&mut self, request: &Request) -> Response {
        write_frame(&mut self.writer, &request.encode()).expect("write a frame");
        let payload = read_frame(&mut self.reader, MAX_FRAME_LEN).expect("read a frame");
        match ServerMessage::decode(&payload).expect("decode a server frame") {
            ServerMessage::Response(r) => r,
            other => panic!("unexpected frame during set-up: {other:?}"),
        }
    }

    /// Send the planner's next `n` requests — request `k` at
    /// `start + k·period`, or as fast as the connection takes them without a
    /// schedule — while this thread receives and checks every answer.
    fn run(
        &mut self,
        planner: &mut Planner<'_>,
        n: usize,
        schedule: Option<(Instant, Duration)>,
        traced: bool,
    ) -> StepResult {
        let sent_at: Vec<OnceLock<Instant>> = (0..n).map(|_| OnceLock::new()).collect();
        let due = |k: usize| schedule.map(|(start, period)| start + period.mul_f64(k as f64));
        let Conn {
            writer,
            reader,
            flip_seq,
        } = self;
        let mut sending = planner.clone();
        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut late_us = Vec::with_capacity(n);
                let mut encode_ns = Vec::new();
                for (k, sent) in sent_at.iter().enumerate() {
                    let planned = sending.next();
                    if let Some(due) = due(k) {
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        late_us.push(
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6,
                        );
                    }
                    let request = sending.request(&planned);
                    let _ = sent.set(Instant::now());
                    let t = Instant::now();
                    let bytes = request.encode();
                    if traced {
                        encode_ns.push(t.elapsed().as_secs_f64() * 1e9);
                    }
                    if write_frame(writer, &bytes).is_err() {
                        break;
                    }
                }
                (late_us, encode_ns)
            });
            let mut result = StepResult::default();
            let mut next = 0usize;
            let mut pending = (n > 0).then(|| planner.next());
            let mut flipped_for: Option<usize> = None;
            while let Some(planned) = pending {
                let Ok(payload) = read_frame(reader, MAX_FRAME_LEN) else {
                    result.failed += (n - next) as u64;
                    result.broken = true;
                    break;
                };
                let now = Instant::now();
                let message = ServerMessage::decode(&payload);
                if traced {
                    result.decode_ns.push(now.elapsed().as_secs_f64() * 1e9);
                }
                let since_due = |k: usize| {
                    let origin = due(k).or_else(|| sent_at[k].get().copied()).unwrap_or(now);
                    now.saturating_duration_since(origin).as_secs_f64() * 1e6
                };
                match message {
                    Ok(ServerMessage::Response(response)) => {
                        let ok = check(&planned, &response, planner.inputs)
                            && (!planned.flips() || flipped_for == Some(next));
                        result.failed += u64::from(!ok);
                        result.latency_us.push((planned.kind(), since_due(next)));
                        result.arrivals.push(now);
                        result.applies += usize::from(planned.kind() == Kind::Apply);
                        next += 1;
                        pending = (next < n).then(|| planner.next());
                    }
                    Ok(ServerMessage::Notification(Notification::Flips {
                        monitor,
                        seq,
                        statuses,
                    })) => {
                        // A delta's flip is pushed just before its response.
                        *flip_seq += 1;
                        let inserting = matches!(planned, Planned::Insert { .. });
                        let ok = monitor == MONITOR
                            && seq == *flip_seq
                            && planned.flips()
                            && flipped_for != Some(next)
                            && statuses.len() == 2
                            && statuses.iter().all(|s| s.accepted != inserting);
                        result.failed += u64::from(!ok);
                        flipped_for = Some(next);
                        result.flip_us.push(since_due(next));
                    }
                    Ok(ServerMessage::Notification(Notification::Lagged { dropped, .. })) => {
                        result.failed += dropped;
                        *flip_seq += dropped;
                    }
                    Err(_) => result.failed += 1,
                }
            }
            let (late_us, encode_ns) = sender.join().expect("the sender thread finishes");
            result.late_us = late_us;
            result.encode_ns = encode_ns;
            result
        })
    }
}

/// Boot a server, host both relations and the monitor, subscribe the load
/// connection and warm the `Discover` cache.  Returns the server, the load
/// connection and whether every set-up answer was as expected.
fn boot(inputs: &Inputs) -> (OdServer, Conn, bool) {
    let server = OdServer::bind("127.0.0.1:0").expect("bind loopback");
    let mut conn = Conn::open(server.local_addr());
    let mut ok = true;
    for (name, relation) in [("taxes", &inputs.taxes), ("dates", &inputs.dates)] {
        ok &= matches!(
            conn.call(&Request::CreateRelation {
                name: name.into(),
                relation: relation.clone(),
            }),
            Response::RelationCreated { rows } if rows == relation.len() as u64
        );
    }
    ok &= matches!(
        conn.call(&Request::CreateMonitor {
            name: MONITOR.into(),
            relation: "taxes".into(),
            epsilon: 0.0,
            ods: inputs.tax_ods.clone(),
        }),
        Response::MonitorCreated { watched: 2 }
    );
    ok &= conn.call(&Request::Subscribe {
        monitor: MONITOR.into(),
    }) == Response::Subscribed;
    ok &= conn.call(&inputs.discover) == inputs.discovered;
    (server, conn, ok)
}

fn latencies(result: &StepResult, kind: Option<Kind>) -> Vec<f64> {
    result
        .latency_us
        .iter()
        .filter(|(k, _)| kind.is_none_or(|want| *k == want))
        .map(|&(_, us)| us)
        .collect()
}

fn p(samples: &[f64], q: f64) -> f64 {
    stats::percentile(&stats::sorted(samples), q)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Responses per second over the middle 80% of a flood's arrivals, which
/// leaves out the pipeline filling and draining.
fn flood_rps(arrivals: &[Instant]) -> f64 {
    let (lo, hi) = (arrivals.len() / 10, arrivals.len() * 9 / 10);
    if hi <= lo + 1 {
        return 0.0;
    }
    (hi - 1 - lo) as f64 / (arrivals[hi - 1] - arrivals[lo]).as_secs_f64().max(1e-9)
}

/// `seconds` of requests at `rate`; without a rate, a flood of
/// `seconds · FLOOD_RPS` requests.
fn step(
    conn: &mut Conn,
    planner: &mut Planner<'_>,
    rate: Option<f64>,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> StepResult {
    let n = ((rate.unwrap_or(FLOOD_RPS) * seconds) as usize).max(PATTERN.len());
    out.attempted += n as u64;
    let schedule = rate.map(|r| {
        (
            Instant::now() + Duration::from_millis(5),
            Duration::from_secs_f64(1.0 / r),
        )
    });
    conn.run(planner, n, schedule, traced)
}

/// Set up `times` times — generate the inputs, boot, host, subscribe,
/// first `Discover` — shutting each earlier server down before the next
/// starts; returns the last, appending each set-up's seconds to `setup_s`
/// and counting set-ups that got an unexpected answer.
fn timed_boots(
    args: &RunArgs,
    times: usize,
    setup_s: &mut Vec<f64>,
    failures: &mut u64,
) -> (Inputs, OdServer, Conn) {
    let mut live: Option<(Inputs, OdServer, Conn)> = None;
    for _ in 0..times.max(1) {
        if let Some((_, server, conn)) = live.take() {
            drop(conn);
            server.shutdown();
        }
        let t = Instant::now();
        let inputs = inputs(args);
        let (server, conn, ok) = boot(&inputs);
        setup_s.push(t.elapsed().as_secs_f64());
        *failures += u64::from(!ok);
        live = Some((inputs, server, conn));
    }
    live.expect("set up at least once")
}

/// Time `Decider::new(premises).implies(goal)` the way the server answers
/// `Implies`, over the workload's goals; the median in µs.
fn implies_us_p50(inputs: &Inputs) -> f64 {
    let mut us = Vec::new();
    for _ in 0..50 {
        for (goal, _) in &inputs.goals {
            let t = Instant::now();
            let decider = Decider::new(&OdSet::from_ods(inputs.premises.iter().cloned()));
            std::hint::black_box(decider.implies(goal));
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    stats::median(&us)
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let mut setup_s = Vec::with_capacity(1 + SETUPS_AFTER);
    let mut setup_failures = 0;
    let (inputs, server, mut conn) = timed_boots(args, 1, &mut setup_s, &mut setup_failures);
    out.note(format!(
        "input: taxes {} rows (monitor '{MONITOR}' on 2 ODs, eps 0), dates {} days; one pipelined \
         connection, open loop at {:?} req/s, then a flood",
        inputs.taxes.len(),
        inputs.dates.len(),
        STEPS.map(|(rate, _)| rate as u64)
    ));

    let global = od_obs::global();
    let mut planner = Planner::new(&inputs, args.derive(6));
    let mut steps: Vec<(f64, StepResult)> = Vec::new();
    // Traced runs split the reference step: an untraced half for the
    // overhead baseline, then a traced half whose server-side registry
    // delta gives the stream layer's share.
    let mut untraced: Option<StepResult> = None;
    let mut server_side = od_obs::MetricsSnapshot::default();
    for &(rate, share) in &STEPS {
        let seconds = args.seconds * share;
        let result = if args.trace && rate == REFERENCE_RPS {
            untraced = Some(step(
                &mut conn,
                &mut planner,
                Some(rate),
                seconds / 2.0,
                false,
                out,
            ));
            let before = global.snapshot();
            let result = step(
                &mut conn,
                &mut planner,
                Some(rate),
                seconds / 2.0,
                true,
                out,
            );
            server_side = trace::since(&before, &global.snapshot());
            result
        } else {
            step(&mut conn, &mut planner, Some(rate), seconds, false, out)
        };
        let broken = result.broken;
        steps.push((rate, result));
        if broken {
            break;
        }
    }
    let flood = steps.iter().all(|(_, r)| !r.broken).then(|| {
        step(
            &mut conn,
            &mut planner,
            None,
            args.seconds * FLOOD_SHARE,
            false,
            out,
        )
    });
    drop(conn);
    server.shutdown();
    let peak = od_obs::peak_rss_kib();
    if !args.trace {
        let (_, server, conn) = timed_boots(args, SETUPS_AFTER, &mut setup_s, &mut setup_failures);
        drop(conn);
        server.shutdown();
    }

    if setup_failures > 0 {
        out.fail(setup_failures, "a set-up answer was not as expected");
    }
    let all = || steps.iter().map(|(_, r)| r).chain(&flood).chain(&untraced);
    let failed: u64 = all().map(|r| r.failed).sum();
    let flips: usize = all().map(|r| r.flip_us.len()).sum();
    if failed > 0 {
        out.fail(
            failed,
            format!("{failed} requests or flips failed their checks or went missing"),
        );
    } else {
        out.note(format!(
            "check: all {} responses and {flips} flip notifications matched their predicted answers",
            out.attempted
        ));
    }
    for (rate, r) in &steps {
        out.note(format!(
            "  step {rate:>6} req/s: {} requests, status p99 {:.0} us, lateness p99 {:.0} us, {} failed",
            r.latency_us.len(),
            p(&latencies(r, Some(Kind::Status)), 99.0),
            p(&r.late_us, 99.0),
            r.failed
        ));
    }
    let Some((_, reference)) = steps.iter().find(|(rate, _)| *rate == REFERENCE_RPS) else {
        out.fail(
            out.attempted,
            "the connection broke before the reference step",
        );
        return;
    };

    if args.trace {
        out.report(
            "od-server.proto.encode_ns",
            stats::median(&reference.encode_ns),
        );
        out.report(
            "od-server.proto.decode_ns",
            stats::median(&reference.decode_ns),
        );
        out.report(
            "od-server.ping_us_p50",
            p(&latencies(reference, Some(Kind::Ping)), 50.0),
        );
        out.report(
            "od-server.discover_hit_us_p50",
            p(&latencies(reference, Some(Kind::Discover)), 50.0),
        );
        let counters = global.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        let (hits, misses) = (
            count("server.discover.cache_hits"),
            count("server.discover.cache_misses"),
        );
        out.report("od-server.cache_hit_ratio", hits / (hits + misses).max(1.0));
        out.report(
            "od-server.notifications_dropped",
            count("server.notifications_dropped"),
        );
        out.report("od-server.gen_late_us_p99", p(&reference.late_us, 99.0));
        out.report("od-infer.implies_us_p50", implies_us_p50(&inputs));
        let spans = Spans::of(&server_side);
        let applies = reference.applies;
        crate::churn::report_stream_spans(out, &spans, applies);
        let per_delta = |name: &str| {
            server_side.counters.get(name).copied().unwrap_or(0) as f64 / applies.max(1) as f64
        };
        out.report(
            "od-setbased.stream.rows_patched",
            per_delta("stream.rows_patched"),
        );
        out.report(
            "od-setbased.stream.classes_touched",
            per_delta("stream.classes_touched"),
        );
        out.report(
            "od-setbased.stream.lis_invocations",
            per_delta("stream.lis_invocations"),
        );
        let traced_all = latencies(reference, None);
        let untraced_all = untraced
            .as_ref()
            .map(|r| latencies(r, None))
            .unwrap_or_default();
        out.report(
            "od-obs.trace_overhead_pct",
            trace_overhead_pct(&untraced_all, &traced_all),
        );
        // A request's mean latency against what the named layers account
        // for: the client's codecs and the server's stream work.
        let latency = mean(&traced_all);
        let (encode_us, decode_us) = (
            mean(&reference.encode_ns) / 1e3,
            mean(&reference.decode_ns) / 1e3,
        );
        let stream_us = 1e3 * spans.ms_at("stream") / traced_all.len().max(1) as f64;
        let unattributed = (100.0 * (latency - encode_us - decode_us - stream_us)
            / latency.max(f64::MIN_POSITIVE))
        .max(0.0);
        out.report("od-obs.unattributed_pct", unattributed);
        out.note(format!(
            "request latency (mean, traced reference half) {latency:.1} us: client encode \
             {encode_us:.2} us, client decode {decode_us:.2} us, server stream {stream_us:.1} us; \
             the rest (wire, server decode/dispatch/encode, queueing) is unattributed"
        ));
        out.note(trace::unattributed_line(unattributed));
        out.note("server-side span tree (per delta):");
        out.note(spans.render("stream", applies).trim_end());
    } else {
        let op_ms: Vec<f64> = latencies(reference, None)
            .iter()
            .map(|us| us / 1e3)
            .collect();
        out.report_common(&setup_s, peak, &op_ms);
        let max_rps = steps
            .iter()
            .filter(|(_, s)| {
                s.failed == 0
                    && p(&latencies(s, Some(Kind::Status)), 99.0) <= LIMIT_US
                    && p(&s.late_us, 99.0) <= LIMIT_US
            })
            .map(|&(rate, _)| rate)
            .fold(0.0, f64::max);
        out.extra("serve_max_rps", max_rps, "req/s");
        out.extra(
            "flood_rps",
            flood.as_ref().map_or(0.0, |f| flood_rps(&f.arrivals)),
            "req/s",
        );
        for (name, kind, q) in [
            ("status_us_p99", Kind::Status, 99.0),
            ("apply_us_p99", Kind::Apply, 99.0),
            ("implies_us_p50", Kind::Implies, 50.0),
        ] {
            out.extra(name, p(&latencies(reference, Some(kind)), q), "us");
        }
        out.extra("flip_us_p50", p(&reference.flip_us, 50.0), "us");
        out.extra("flip_us_p99", p(&reference.flip_us, 99.0), "us");
    }
}
