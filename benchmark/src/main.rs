//! `benchmark` — the end-to-end and per-layer benchmark of the order-dependency
//! workspace (see README.md beside this package).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark all --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]
//! benchmark compare <parent-dir> <change-dir>
//! ```
//!
//! A run prints every metric by name and unit, the checks it made, and, as
//! its last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}` holding the end-to-end metrics `BENCHMARK.json` declares (with
//! `--trace 1`: the per-layer ones).

mod churn;
mod compare;
mod json;
mod profile;
mod serve;
mod spec;
mod stats;
mod trace;

use spec::Spec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// One run's settings, as given on the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input generator derives from.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Shrink inputs and time so the run ends in about a second.
    pub smoke: bool,
}

impl RunArgs {
    /// A seed for one generator, derived from the run seed and a per-input
    /// salt (splitmix64), so distinct inputs of one run are independent.
    pub fn derive(&self, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The measured duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run measured and checked.
pub struct Outcome {
    spec: Spec,
    /// Operations attempted (profiles, delta batches, requests).
    pub attempted: u64,
    /// Operations that failed a check, errored, or went unanswered.
    pub failed: u64,
    reported: BTreeMap<String, f64>,
    extra: Vec<(String, f64, String)>,
    /// Free text printed after the metrics (checks, the span tree).
    pub notes: String,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            spec: Spec::embedded(),
            attempted: 0,
            failed: 0,
            reported: BTreeMap::new(),
            extra: Vec::new(),
            notes: String::new(),
        }
    }

    /// Set a declared metric.  Panics on a name `BENCHMARK.json` does not
    /// declare, so a misspelt metric fails the first smoke run.
    pub fn report(&mut self, name: &str, value: f64) {
        assert!(
            self.spec.metric(name).is_some(),
            "metric {name} is not declared in BENCHMARK.json"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.reported.insert(name.to_string(), value);
    }

    /// Record a metric that is printed for the reader but not declared.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.push((name.to_string(), value, unit.to_string()));
    }

    /// Append a line to the notes.
    pub fn note(&mut self, line: impl AsRef<str>) {
        self.notes.push_str(line.as_ref());
        self.notes.push('\n');
    }

    /// Count a failed check against `ops` operations.
    pub fn fail(&mut self, ops: u64, why: impl AsRef<str>) {
        self.failed = (self.failed + ops).min(self.attempted.max(ops));
        self.note(format!("FAILED: {}", why.as_ref()));
    }

    /// The end-to-end metrics every workload shares — the median set-up
    /// time, the peak memory read when measuring ended, and the
    /// 10th-percentile operation time — plus the median and tail printed
    /// beside them.
    pub fn report_common(&mut self, setup_s: &[f64], peak_rss_kib: Option<u64>, op_ms: &[f64]) {
        self.report("setup_s", stats::median(setup_s));
        self.report("peak_rss_mib", peak_rss_kib.unwrap_or(0) as f64 / 1024.0);
        let sorted = stats::sorted(op_ms);
        self.report("op_ms_p10", stats::percentile(&sorted, 10.0));
        self.extra("op_ms_min", sorted.first().copied().unwrap_or(0.0), "ms");
        self.extra("op_ms_p50", stats::median(op_ms), "ms");
        let tail = stats::tail_percentile(op_ms.len());
        if tail > 50.0 {
            self.extra(
                &format!("op_ms_p{tail}"),
                stats::percentile(&sorted, tail),
                "ms",
            );
        }
        self.extra("ops", op_ms.len() as f64, "count");
    }

    /// The result line: the declared metrics of this run's kind, with units.
    fn result_json(&self, trace: bool) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, m) in self.spec.reported(trace).iter().enumerate() {
            // Per-layer metrics a workload never exercises read 0; an
            // end-to-end metric must always be measured.
            let value = match self.reported.get(&m.name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", m.name)),
            };
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        ))
    }

    fn print(&self, trace: bool) {
        for m in self.spec.reported(trace) {
            if let Some(v) = self.reported.get(&m.name) {
                println!("  {:<44} {v:>16.4} {}", m.name, m.unit);
            }
        }
        for (name, v, unit) in &self.extra {
            println!("  {name:<44} {v:>16.4} {unit}");
        }
        println!(
            "  {:<44} {:>16.4} failed/attempted ({} of {})",
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        print!("{}", self.notes);
    }
}

/// Run `op(i)` until `duration` has passed and at least `min_ops` ran,
/// returning how many ran.
pub fn run_for(duration: Duration, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed() < duration {
        op(i);
        i += 1;
    }
    i
}

/// Set-ups a run times after measuring, besides the one before: `setup_s` is
/// the median of all of them, so it does not rest on the process's first
/// moments alone, and the extra set-ups leave the measured state and its
/// peak memory alone.
pub const SETUPS_AFTER: usize = 5;

/// Run `setup` `times` times, timing each, and return the last result with
/// the durations in seconds.  The previous result is dropped before the next
/// set-up starts, outside the timing, so only one lives at a time.
pub fn timed_setups<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), secs)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A traced run's health checks and span tree, for workloads whose traced
/// operations each open the span `root`.
pub fn report_trace(
    out: &mut Outcome,
    spans: &trace::Spans,
    root: &str,
    untraced_ms: &[f64],
    traced_ms: &[f64],
) {
    out.report(
        "od-obs.trace_overhead_pct",
        trace_overhead_pct(untraced_ms, traced_ms),
    );
    let unattributed = spans.unattributed_pct(root);
    out.report("od-obs.unattributed_pct", unattributed);
    out.note(format!(
        "span tree (per traced operation, {} of them):",
        traced_ms.len()
    ));
    out.note(spans.render(root, traced_ms.len()).trim_end());
    out.note(trace::unattributed_line(unattributed));
}

/// In a traced run, the percentage by which traced operations are slower
/// than untraced ones, by median.
pub fn trace_overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = stats::median(untraced_ms);
    if base == 0.0 {
        0.0
    } else {
        100.0 * (stats::median(traced_ms) - base) / base
    }
}

fn run_workload(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new();
    match args.workload.as_str() {
        "profile-scale" => profile::scale(args, false, &mut out),
        "profile-dist" => profile::scale(args, true, &mut out),
        "profile-wide" => profile::wide(args, &mut out),
        "monitor-churn" => churn::run(args, &mut out),
        "serve-mixed" => serve::run(args, &mut out),
        other => unreachable!("unknown workload {other} passed validation"),
    }
    out
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n  \
         benchmark all --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]\n  \
         benchmark compare <parent-dir> <change-dir>"
    );
    ExitCode::from(2)
}

/// `--flag value` lookup.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String], workload: String) -> Result<RunArgs, String> {
    let spec = Spec::embedded();
    if !spec.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; declared: {}",
            spec.workloads.join(", ")
        ));
    }
    let seed = flag(args, "--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let seconds = match flag(args, "--seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None if smoke => 0.3,
        None => spec.run_seconds,
    };
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    // Worker-mode hook for profile-dist's self-exec'd lattice workers.
    od_setbased::maybe_run_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(parent), Some(change)) => {
                match compare::run(Path::new(parent), Path::new(change), &Spec::embedded()) {
                    Ok(report) => {
                        print!("{report}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("compare: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            _ => usage(),
        },
        Some("all") => run_all(&args[1..]),
        _ => {
            let Some(workload) = flag(&args, "--workload") else {
                return usage();
            };
            let run = match parse_run(&args, workload.to_string()) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return usage();
                }
            };
            println!(
                "== {} (seed {}, {} s measured{}{})",
                run.workload,
                run.seed,
                run.seconds,
                if run.trace { ", traced" } else { "" },
                if run.smoke { ", smoke sizes" } else { "" }
            );
            let outcome = run_workload(&run);
            outcome.print(run.trace);
            match outcome.result_json(run.trace) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// Run every declared workload, each in its own child process (so peak RSS
/// and the global metrics registry are per workload), optionally saving each
/// result line under `--out` for `compare`.
fn run_all(args: &[String]) -> ExitCode {
    let spec = Spec::embedded();
    let Some(seed) = flag(args, "--seed") else {
        return usage();
    };
    let exe = std::env::current_exe().expect("the running executable has a path");
    let out_dir = flag(args, "--out").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("benchmark: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let trace = flag(args, "--trace").unwrap_or("0");
    let mut ok = true;
    for workload in &spec.workloads {
        let mut child_args = vec![
            "--workload".to_string(),
            workload.clone(),
            "--seed".into(),
            seed.into(),
            "--trace".into(),
            trace.into(),
        ];
        if let Some(seconds) = flag(args, "--seconds") {
            child_args.extend(["--seconds".to_string(), seconds.to_string()]);
        }
        if args.iter().any(|a| a == "--smoke") {
            child_args.push("--smoke".into());
        }
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn a workload run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let Ok(result) = json::parse(last) else {
            eprintln!(
                "benchmark: workload {workload} printed no result ({})",
                output.status
            );
            ok = false;
            continue;
        };
        if !output.status.success()
            || json::get(&result, "correct") != Some(&od_obs::Json::Bool(true))
        {
            eprintln!("benchmark: workload {workload} failed its checks");
            ok = false;
        }
        // Failed runs are recorded too: `compare` counts their failures.
        if let Some(dir) = &out_dir {
            let file = dir.join(format!("{workload}.seed{seed}.trace{trace}.json"));
            let record = format!(
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"result\":{last}}}\n"
            );
            if let Err(e) = std::fs::write(&file, record) {
                eprintln!("benchmark: cannot write {}: {e}", file.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
