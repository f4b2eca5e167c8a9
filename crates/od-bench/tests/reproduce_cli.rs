//! `reproduce` refuses an experiment id it does not serve: a stale id in a
//! script must fail loudly instead of printing the banner and exiting 0.

use std::process::Command;

#[test]
fn unknown_experiment_id_exits_2_and_lists_the_valid_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("e14")
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("e14"), "names the rejected id: {stderr}");
    assert!(stderr.contains("e17"), "lists the valid ids: {stderr}");
    assert!(out.stdout.is_empty(), "runs no experiment");
}
