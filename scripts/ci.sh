#!/usr/bin/env bash
# Tier-1 CI entry point. Fully offline: the workspace has no external
# dependencies, so every step below runs without network access.
#
#   scripts/ci.sh          # the full gate
#   GGPU_THREADS=1 scripts/ci.sh   # force single-threaded sweeps
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt (check) =="
cargo fmt --all -- --check

echo "== clippy (-D warnings, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint (static kernel verifier, warnings are denials) =="
# Gates on the shipped kernels AND the generated 1/8-CU netlists; the
# command fails (non-zero exit) on any deny-level finding and prints a
# one-line summary ("N programs, M denials") as its last line.
cargo run -q -p ggpu-lint -- --all-kernels --design 1 --design 8 --deny warn

echo "== build (release) =="
cargo build --workspace --release

echo "== test (workspace) =="
# NOTE: the root manifest is both the workspace and the `g-gpu` facade
# package, so a bare `cargo test` would only run the facade's tests.
cargo test --workspace -q

echo "== smoke (event-driven simulator, ~2 s) =="
cargo run --release --example accelerator_vs_cpu 512

echo "== property suite (transactional transform engine, release) =="
# The journal/CoW bit-identity claims, re-run under the optimizer: the
# randomized journal-vs-clone-oracle equivalence and revert-fidelity
# properties, the beam-vs-greedy acceptance across all 12 Table-I
# versions, and the exact clone budget (one design clone per DSE run,
# zero per candidate). (The debug-mode run is part of the workspace
# tests above.)
cargo test --release -q -p gpuplanner --test prop_journal_equiv --test beam_vs_greedy --test clone_budget

echo "== smoke (seeded fault campaign, 64 injections/policy) =="
# Offline SEU campaign on the 1-CU design (copy kernel, unprotected /
# parity / SEC-DED policies). The binary asserts determinism as it
# measures: a single-threaded replay of the first scenario must be
# byte-identical to the parallel run. Tracked baseline is the
# checked-in BENCH_fault.json from the full (non-smoke) run.
cargo run --release -p ggpu-bench --bin fault_bench -- --smoke --out target/BENCH_fault_smoke.json

echo "== full fault campaigns (byte-identical to BENCH_fault.json, ~0.4 s) =="
# The 12 full campaigns must reproduce the checked-in reports byte for
# byte once the host-dependent "wall_ms" values are stripped.
cargo run --release -p ggpu-bench --bin fault_bench -- --out target/BENCH_fault_check.json
strip_wall() { sed -E 's/"wall_ms": [0-9.]+//' "$1"; }
if ! diff <(strip_wall BENCH_fault.json) <(strip_wall target/BENCH_fault_check.json); then
    echo "fault_bench reports differ from BENCH_fault.json" >&2
    exit 1
fi

echo "== smoke (SIMT backend agreement + throughput) =="
# Runs every shipped kernel on both execution backends (scalar
# reference and SoA fast path) and *asserts* their RunStats are
# bit-identical before reporting host throughput — this is the CI
# gate for the data-oriented engine. Tracked baseline is the
# checked-in BENCH_simt.json from the full (non-smoke) run.
cargo run --release -p ggpu-bench --bin simt_bench -- --smoke --out target/BENCH_simt_smoke.json

echo "== smoke (memory geometry: conflict profile + banking co-opt) =="
# Profiles every shipped kernel under ideal vs banked LRAM models
# (asserting banking never changes results and only mat_mul_local
# pays conflicts) and runs the planner's banking co-optimization,
# asserting the DSE chooses a banked plan that meets timing and beats
# the unbanked plan on kernel runtime. Tracked baseline is the
# checked-in BENCH_mem.json from the full (non-smoke) run.
cargo run --release -p ggpu-bench --bin mem_bench -- --smoke --out target/BENCH_mem_smoke.json

echo "== smoke (flow supervision overhead + chaos zero-loss) =="
# Runs the supervised pipeline (verify -> plan -> implement) against
# the identical unsupervised stage sequence, asserting datasheets stay
# byte-identical, supervision overhead stays under 2 %, and a seeded
# chaos sweep loses or corrupts nothing. Tracked baseline is the
# checked-in BENCH_flow.json from the full (12-spec, 200-campaign) run.
cargo run --release -p ggpu-bench --bin flow_bench -- --smoke --out target/BENCH_flow_smoke.json

echo "== end-to-end benchmark (build + tests, as BENCHMARK.json runs it) =="
# The benchmark is its own package with its own lock file and calls the
# layers' public entry points, so a change to public API shows up here
# first.
cargo build --release --offline --locked --manifest-path e2ebench/Cargo.toml
cargo test --release --offline --locked --manifest-path e2ebench/Cargo.toml

echo "== ci green =="
