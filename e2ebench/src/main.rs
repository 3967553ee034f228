//! Command-line entry of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload table1_flow --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A traced run (`--trace 1`) also writes its spans and counters to
//! `<CARGO_TARGET_DIR or target>/e2ebench/trace-<workload>-seed<n>.json`.
//! `--setup-only` sets the workload up once, prints how long that took
//! in seconds and exits; an untraced run starts itself this way to time
//! cold set-ups.

use ggpu_e2ebench::{report, run, setup_once, Env, Options, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: ggpu-e2ebench --workload <{}> --seed <n> (--seconds <s> --trace <0|1> \
         | --setup-only)",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let workload = value("--workload").ok_or("--workload is required")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = value("--seed")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--seed: not a number: {v}"))
        })
        .transpose()?
        .unwrap_or(1);
    let seconds = value("--seconds")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("--seconds: not a number: {v}"))
        })
        .transpose()?
        .unwrap_or(10.0);
    let trace = match value("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: expected 0 or 1, got {v}")),
    };
    // Everything the benchmark writes stays under the cargo target
    // directory (relative to the working directory, like cargo's).
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("e2ebench");
    let trace_out = target.join(format!("trace-{workload}-seed{seed}.json"));
    let scratch = target.join(format!("tmp-{}", std::process::id()));
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
        scratch,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let env = Env::pin();
    if args.iter().any(|a| a == "--setup-only") {
        let result = setup_once(&opts);
        let _ = std::fs::remove_dir_all(&opts.scratch);
        return match result {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = run(&opts, &env);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    match result {
        Ok(r) => {
            for e in &r.errors {
                eprintln!("check failed: {e}");
            }
            println!("{{\"env\": {}}}", env.to_json());
            if !r.raw.is_empty() {
                println!("{{\"raw\": {}}}", report::counters_json(&r.raw));
            }
            println!(
                "{}",
                report::result_json(r.correct, r.attempted, r.failed, &r.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
