//! Every workload at smoke sizes, through the built `benchmark` binary: it
//! must pass its own output checks and report exactly the metric names
//! `BENCHMARK.json` declares for its kind of run; `compare` must read the
//! records `all --out` writes.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
#[path = "../src/spec.rs"]
#[allow(dead_code)]
mod spec;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn benchmark(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "benchmark {args:?} failed: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn check_records(dir: &Path, trace: bool) {
    let spec = spec::Spec::embedded();
    let declared: BTreeSet<&str> = spec
        .reported(trace)
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    for workload in &spec.workloads {
        let file = dir.join(format!("{workload}.seed3.trace{}.json", u8::from(trace)));
        let text = std::fs::read_to_string(&file).expect("all --out wrote a record per workload");
        let record = json::parse(text.trim()).expect("records are JSON");
        let result = json::get(&record, "result").expect("record holds the result line");
        assert_eq!(
            json::get(result, "correct"),
            Some(&od_obs::Json::Bool(true)),
            "{workload}"
        );
        assert_eq!(
            json::get(result, "failed").and_then(json::num_of),
            Some(0.0),
            "{workload}"
        );
        assert!(json::get(result, "attempted").and_then(json::num_of) >= Some(1.0));
        let metrics = json::get(result, "metrics").expect("metrics object");
        let reported: BTreeSet<&str> = json::members(metrics).map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            reported, declared,
            "{workload} (trace {trace}) reports the declared set"
        );
        for (name, value) in json::members(metrics) {
            let unit = json::get(value, "unit").and_then(json::str_of);
            assert_eq!(unit, spec.metric(name).map(|m| m.unit.as_str()), "{name}");
            let v = json::get(value, "value")
                .and_then(json::num_of)
                .expect("numeric value");
            if !trace {
                assert!(
                    v > 0.0,
                    "{workload}: end-to-end metric {name} must never be 0"
                );
            }
        }
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_declared_metrics() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&root);
    for trace in ["0", "1"] {
        let dir = root.join(format!("trace{trace}"));
        let dir_arg = dir.to_str().expect("UTF-8 path");
        benchmark(&[
            "all", "--seed", "3", "--smoke", "--trace", trace, "--out", dir_arg,
        ]);
        check_records(&dir, trace == "1");
        let report = benchmark(&["compare", dir_arg, dir_arg]);
        assert!(
            !report.contains("REGRESSED"),
            "a run never regresses on itself:\n{report}"
        );
    }
}

#[test]
fn a_run_is_deterministic_in_its_inputs_and_rejects_bad_arguments() {
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("run the benchmark binary")
        .status;
    assert!(!status.success(), "an unknown workload is an error");
    let notes = |seed: &str| -> String {
        benchmark(&["--workload", "profile-wide", "--seed", seed, "--smoke"])
            .lines()
            .filter(|l| l.starts_with("input:") || l.starts_with("check:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(notes("5"), notes("5"), "one seed, one input");
}
