//! The `figures` binary refuses a command line it cannot read instead of
//! running a figure at a scale nobody asked for.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

fn assert_usage_error(args: &[&str]) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn a_misspelt_flag_prints_the_usage_and_exits_2() {
    assert_usage_error(&["fig12", "--duraton-ms", "40"]);
}

#[test]
fn a_flag_without_its_value_prints_the_usage_and_exits_2() {
    assert_usage_error(&["fig12", "--duration-ms"]);
    assert_usage_error(&["fig12", "--workers", "two"]);
}
