//! `reproduce` — regenerate every figure and quantitative claim of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p od-bench --bin reproduce                    # all experiments
//! cargo run --release -p od-bench --bin reproduce -- e4              # a single experiment (e1..e9, e12, e13)
//! cargo run --release -p od-bench --bin reproduce -- --tiny          # small data sizes (quick smoke run)
//! cargo run --release -p od-bench --bin reproduce -- e13 --max-context 5
//! #                       deepest lattice level for E13 (default 4)
//! cargo run --release -p od-bench --bin reproduce -- e12 e13 --metrics-out out/
//! #                       also write BENCH_<exp>.json canonical-metrics artifacts
//! cargo run --release -p od-bench --bin reproduce -- e14 --rows 250000
//! #                       rows for the E14 columnar-scale table (default 1M; --tiny 20k)
//! cargo run --release -p od-bench --bin reproduce -- e15 --metrics-out out/
//! #                       service-layer load over loopback TCP (throughput, latency
//! #                       percentiles, pub/sub flips, max-capacity saturation knee)
//! cargo run --release -p od-bench --bin reproduce -- e16 --rows 1000000
//! #                       partition products (hash vs comparison vs radix CSR) and
//! #                       width-2/3/4 discovery on the scale table (--rows as in e14)
//! cargo run --release -p od-bench --bin reproduce -- e17 --workers 2
//! #                       multi-process width-4 discovery: N worker processes
//! #                       (this binary re-exec'd with --od-worker) shard the data
//! #                       plane over pipes, bit-identical to the threaded engine
//! ```

use od_bench::*;

fn main() {
    // Worker-mode hook for E17's self-exec'd workers: with `--od-worker`
    // among the arguments this process serves lattice frames on
    // stdin/stdout and exits — it never reaches the harness below.
    od_setbased::maybe_run_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let scale = if tiny {
        ExperimentScale::tiny()
    } else {
        ExperimentScale::default()
    };
    // `--max-context N` passes the lattice depth through to E13.  A missing
    // or non-numeric value is a hard error rather than a silently swallowed
    // experiment id.
    let flag_pos = args.iter().position(|a| a == "--max-context");
    let max_context = match flag_pos {
        Some(i) => match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(depth)) => depth,
            _ => {
                eprintln!("--max-context requires a numeric value, e.g. --max-context 4");
                std::process::exit(2);
            }
        },
        None => 4,
    };
    // `--metrics-out DIR` captures E12/E13 under a scoped registry and writes
    // `BENCH_<experiment>.json` (full) plus `.deterministic.json` (the
    // run-comparable section) into DIR, creating it if needed.
    let metrics_pos = args.iter().position(|a| a == "--metrics-out");
    let metrics_out: Option<std::path::PathBuf> = match metrics_pos {
        Some(i) => match args.get(i + 1) {
            Some(dir) if !dir.starts_with("--") => Some(dir.into()),
            _ => {
                eprintln!("--metrics-out requires a directory, e.g. --metrics-out out/");
                std::process::exit(2);
            }
        },
        None => None,
    };
    // `--rows N` sizes the E14/E16 scale table (default 1M full, 20k tiny).
    let rows_pos = args.iter().position(|a| a == "--rows");
    let scale_rows = match rows_pos {
        Some(i) => match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(rows)) => rows,
            _ => {
                eprintln!("--rows requires a numeric value, e.g. --rows 250000");
                std::process::exit(2);
            }
        },
        None if tiny => 20_000,
        None => 1_000_000,
    };
    // `--workers N` sizes the E17 worker pool (default 2 — the smallest
    // count that demonstrates cross-process sharding).
    let workers_pos = args.iter().position(|a| a == "--workers");
    let workers = match workers_pos {
        Some(i) => match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n >= 1 => n,
            _ => {
                eprintln!("--workers requires a count of at least 1, e.g. --workers 2");
                std::process::exit(2);
            }
        },
        None => 2,
    };
    let value_positions: Vec<usize> = [flag_pos, metrics_pos, rows_pos, workers_pos]
        .iter()
        .flatten()
        .map(|i| i + 1)
        .collect();
    let selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            Some(i) != flag_pos
                && Some(i) != metrics_pos
                && !value_positions.contains(&i)
                && !a.starts_with("--")
        })
        .map(|(_, a)| a.to_lowercase())
        .collect();
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    println!("Reproduction harness — 'Fundamentals of Order Dependencies' (VLDB 2012)");
    println!("scale: {scale:?}\n");

    if want("e1") {
        println!("{}", exp_e1_figure1());
    }
    if want("e2") {
        println!("{}", exp_e2_dates(scale));
    }
    if want("e3") {
        println!("{}", exp_e3_example1(scale));
    }
    if want("e4") {
        let (report, _) = exp_e4_tpcds(scale);
        println!("{report}");
    }
    if want("e5") {
        println!("{}", exp_e5_tax(scale));
    }
    if want("e6") {
        println!("{}", exp_e6_soundness());
    }
    if want("e7") {
        println!("{}", exp_e7_witness());
    }
    if want("e8") {
        println!("{}", exp_e8_fd_subsumption());
    }
    if want("e9") {
        println!("{}", exp_e9_implication());
    }
    if want("e12") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e12_width3_with_metrics(scale);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e12_width3(scale)),
        }
    }
    if want("e13") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e13_width4_with_metrics(scale, max_context);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e13_width4(scale, max_context)),
        }
    }
    if want("e14") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e14_columnar_with_metrics(scale_rows, 1);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e14_columnar(scale_rows)),
        }
    }
    if want("e15") {
        let config = if tiny {
            LoadConfig::tiny()
        } else {
            LoadConfig::default()
        };
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e15_server_load_with_metrics(config);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e15_server_load(config)),
        }
    }
    if want("e16") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e16_lattice_with_metrics(scale_rows, 1);
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e16_lattice(scale_rows)),
        }
    }
    if want("e17") {
        match &metrics_out {
            Some(dir) => {
                let (report, metrics) = exp_e17_dist_with_metrics(
                    scale_rows,
                    workers,
                    &od_setbased::WorkerLauncher::self_exec(),
                );
                println!("{report}");
                emit(&metrics, dir);
            }
            None => println!("{}", exp_e17_dist(scale_rows, workers)),
        }
    }
}

/// Write one experiment's metrics artifacts, failing loudly: a bench-smoke CI
/// run that silently skips its artifacts would defeat the diff step.
fn emit(metrics: &od_obs::MetricsReport, dir: &std::path::Path) {
    match metrics.write_to(dir) {
        Ok((full, deterministic)) => {
            println!(
                "metrics: {} + {}\n",
                full.display(),
                deterministic.display()
            );
        }
        Err(err) => {
            eprintln!("failed to write metrics into {}: {err}", dir.display());
            std::process::exit(1);
        }
    }
}
