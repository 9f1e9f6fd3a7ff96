//! Bad numeric CLI input is rejected while the arguments are parsed: an
//! `error: <flag>: must be ...` line on stderr and exit code 1, never a
//! panic (exit 101) or a run that silently computes nonsense.

use std::process::Command;

/// Runs `caribou <args>` and asserts it fails with a typed error for
/// `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_caribou"))
        .args(args)
        .output()
        .expect("caribou binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {flag}: must be")),
        "{args:?}: stderr {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn chaos_rejects_non_positive_or_nan_duration() {
    for bad in ["nan", "-5", "0", "inf"] {
        assert_rejected(&["chaos", "--duration-s", bad], "--duration-s");
    }
}

#[test]
fn simulate_rejects_an_empty_window() {
    for bad in ["0", "nan", "-1"] {
        assert_rejected(&["simulate", "dna", "--days", bad], "--days");
    }
    for bad in ["0", "nan", "inf"] {
        assert_rejected(&["simulate", "dna", "--per-day", bad], "--per-day");
    }
}

#[test]
fn plan_rejects_a_non_finite_hour() {
    for bad in ["nan", "inf"] {
        assert_rejected(&["plan", "dna", "--hour", bad], "--hour");
    }
}

#[test]
fn loadgen_rejects_nan_or_negative_keep_alive() {
    for bad in ["nan", "-1"] {
        assert_rejected(&["loadgen", "dna", "--keep-alive-s", bad], "--keep-alive-s");
    }
}
