//! Determinism of the traced run: two runs with one seed give the same
//! counters and the same checked outputs, and so do one and two worker
//! threads (`GGPU_THREADS=1` against `2`).
//!
//! ```text
//! cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

const SEED: &str = "7";

/// Runs one untraced and one traced pass of `workload` and returns the
/// trace file's `counters` and `outputs` lines.
fn traced_run(workload: &str, threads: &str) -> (String, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    let out = Command::new(env!("CARGO_BIN_EXE_ggpu-e2ebench"))
        .args(["--workload", workload, "--seed", SEED])
        .args(["--seconds", "0", "--trace", "1"])
        .env("GGPU_THREADS", threads)
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let result = stdout.lines().last().unwrap_or_default();
    assert!(
        result.starts_with("{\"correct\": true,") && result.contains("\"failed\": 0,"),
        "{workload}: {result}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace_path = dir
        .join("e2ebench")
        .join(format!("trace-{workload}-seed{SEED}.json"));
    let trace = std::fs::read_to_string(trace_path).expect("trace file written");
    let line = |key: &str| {
        trace
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("{workload}: no {key} in trace"))
            .to_string()
    };
    (line("\"counters\""), line("\"outputs\""))
}

fn assert_deterministic(workload: &str) {
    let first = traced_run(workload, "2");
    let again = traced_run(workload, "2");
    let serial = traced_run(workload, "1");
    assert_eq!(first, again, "{workload}: same seed, different run");
    assert_eq!(first, serial, "{workload}: GGPU_THREADS=1 differs from 2");
}

#[test]
fn table1_flow_is_deterministic() {
    assert_deterministic("table1_flow");
}

#[test]
fn resilient_campaign_is_deterministic() {
    assert_deterministic("resilient_campaign");
}

#[test]
fn checkpointed_sweep_is_deterministic() {
    assert_deterministic("checkpointed_sweep");
}
