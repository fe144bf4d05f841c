//! `table4` argument errors exit with status 2 and the usage line on
//! stderr instead of panicking.

use std::process::Command;

/// Runs `table4` with `args` and asserts the usage-error contract.
fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_table4"))
        .args(args)
        .output()
        .expect("table4 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: table4"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn help_prints_usage() {
    assert_usage_error(&["--help"]);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--bogus"]);
}

#[test]
fn flag_without_value_is_a_usage_error() {
    assert_usage_error(&["--sizes"]);
    assert_usage_error(&["--json"]);
}

#[test]
fn malformed_number_is_a_usage_error() {
    assert_usage_error(&["--sizes", "10,x"]);
    assert_usage_error(&["--seed", "many"]);
    assert_usage_error(&["--threads", "0"]);
}
