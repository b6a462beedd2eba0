//! The `figures` and `ledger` binaries reject scales they cannot sweep with
//! a usage message and exit status 2, before building any workload.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .env("ROBUSTMAP_WORKLOAD_CACHE", "target/workload-cache-cli-edges")
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
    assert!(stderr.contains(needle), "{args:?}: expected {needle:?} in:\n{stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: no usage message in:\n{stderr}");
}

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const LEDGER: &str = env!("CARGO_BIN_EXE_ledger");

#[test]
fn figures_rejects_zero_rows() {
    assert_usage_error(FIGURES, &["--rows", "0", "fig1"], "--rows must be at least");
}

#[test]
fn figures_rejects_one_row() {
    assert_usage_error(FIGURES, &["--rows", "1", "fig1"], "--rows must be at least");
}

#[test]
fn figures_rejects_a_grid_finer_than_one_row() {
    assert_usage_error(
        FIGURES,
        &["--rows", "1024", "--grid", "40", "fig1"],
        "selects under one row",
    );
    assert_usage_error(
        FIGURES,
        &["--rows", "1024", "--grid", "11", "fig1"],
        "selects under one row",
    );
}

#[test]
fn ledger_rejects_the_same_edges() {
    assert_usage_error(LEDGER, &["--rows", "1"], "--rows must be at least");
    assert_usage_error(LEDGER, &["--rows", "64", "--grid", "7"], "selects under one row");
}
