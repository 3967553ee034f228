//! End-to-end, per-layer benchmark of the G-GPU flow.
//!
//! A closed-loop benchmark with one client, in one process: it calls only
//! the public entry points of the workspace crates, runs whole passes
//! over a workload's fixed inputs for a set time, and checks every
//! op's output. An untraced run reports the end-to-end metrics; a
//! traced run alternates untraced and traced passes and reports
//! per-layer self times, the layers' counters and the tracing overhead.
//!
//! Workloads (see `e2ebench/README.md` for why each was chosen):
//! `table1_flow`, `resilient_campaign`, `checkpointed_sweep`.

pub mod flow;
pub mod report;
pub mod trace;
pub mod workloads;

use report::{peak_rss_mb, quantile, ratio, Counters, Fnv, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;
use trace::Tracer;

/// Workload names.
pub const WORKLOADS: [&str; 3] = ["table1_flow", "resilient_campaign", "checkpointed_sweep"];

/// Cold set-ups an untraced run times; `setup_s` is their median. The
/// first is the measured instance, set up in this process. Each of the
/// others runs in a fresh process of this program (`--setup-only`),
/// so that every sample starts from empty process-wide caches. They
/// are spread evenly over the measured time, so that the median
/// reflects the whole run rather than its first second.
const SETUP_REPS: u32 = 9;

/// Seconds between two host-speed probes in an untraced run.
const PROBE_EVERY_S: f64 = 0.25;

/// Median time of [`host_probe_ms`] on the host the benchmark was built
/// on (a 2-vCPU shared VM), ms. Untraced timings are scaled to a host on
/// which the probe takes this long.
const PROBE_REF_MS: f64 = 4.0;

/// One benchmark workload: whole passes over fixed inputs.
pub trait Workload {
    /// One untraced pass; records every op's time and verdict.
    fn pass(&mut self, rec: &mut Recorder);
    /// One traced pass; records every op's verdict and returns the
    /// pass's counters (deltas, so they repeat from pass to pass).
    fn traced_pass(&mut self, t: &mut Tracer, rec: &mut Recorder) -> Counters;
    /// Adds counters that accumulate over the whole run.
    fn finish(&mut self, _c: &mut Counters) {}
    /// Folds the workload's checked outputs into `h`.
    fn digest(&self, h: &mut Fnv);
}

/// Op times and verdicts of a run.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Wall time of each untraced op, ms.
    pub op_ms: Vec<f64>,
    /// Ops attempted, traced or not.
    pub attempted: u64,
    /// Ops that failed or produced a wrong output.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Recorder {
    /// Records an untraced op that took `ms` milliseconds.
    pub fn op(&mut self, ms: f64, verdict: Result<(), String>) {
        self.op_ms.push(ms);
        self.traced_op(verdict);
    }

    /// Records a traced op (its time comes from its span).
    pub fn traced_op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Draws the campaign seed and the sweep ceilings.
    pub seed: u64,
    /// How long the passes run, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its spans and counters.
    pub trace_out: PathBuf,
    /// Directory for temporary files (sweep journals); removed after.
    pub scratch: PathBuf,
}

/// The host environment the run measured under.
#[derive(Debug, Clone)]
pub struct Env {
    /// Host parallelism.
    pub nproc: usize,
    /// Worker threads of the flow's pool (`GGPU_THREADS`, capped at
    /// `nproc`).
    pub threads: usize,
    /// `GGPU_ACCEL`, or `unset`.
    pub accel: String,
}

impl Env {
    /// Caps `GGPU_THREADS` at the host parallelism and records the
    /// environment. Call before any pool exists.
    pub fn pin() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let requested = std::env::var("GGPU_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        if let Some(n) = requested {
            if n == 0 || n > nproc {
                std::env::set_var("GGPU_THREADS", nproc.to_string());
            }
        }
        Self {
            nproc,
            threads: ggpu_pnr::configured_threads(),
            accel: std::env::var("GGPU_ACCEL").unwrap_or_else(|_| "unset".into()),
        }
    }

    /// The environment as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"ggpu_threads\": {}, \"ggpu_accel\": \"{}\", \
             \"stage_timeout\": \"none\", \"chaos\": \"none\", \"backoff_ms\": 0}}",
            self.nproc,
            self.threads,
            self.accel.escape_default()
        )
    }
}

/// Outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Every op ran and every output checked out.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Metrics in print order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// An untraced run's timings before host-speed scaling, and the
    /// median probe time they were scaled by.
    pub raw: Counters,
    /// The first failure messages.
    pub errors: Vec<String>,
}

/// Sets up the workload of this run.
fn build(opts: &Options) -> Result<Box<dyn Workload>, String> {
    Ok(match opts.workload.as_str() {
        "table1_flow" => Box::new(workloads::SpecFlow::table1(opts.seed)),
        "resilient_campaign" => Box::new(workloads::SpecFlow::resilient(opts.seed)),
        "checkpointed_sweep" => Box::new(workloads::Sweep::new(
            opts.seed,
            opts.scratch.join("sweep"),
        )?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Sets up the workload once and returns how long it took, seconds.
/// This is what `--setup-only` runs, in a fresh process.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up.
pub fn setup_once(opts: &Options) -> Result<f64, String> {
    timed_build(opts).map(|(_, s)| s)
}

/// Sets up the workload and returns it with the seconds that took.
fn timed_build(opts: &Options) -> Result<(Box<dyn Workload>, f64), String> {
    let t0 = Instant::now();
    let w = build(opts)?;
    Ok((w, t0.elapsed().as_secs_f64()))
}

/// Times one cold set-up: runs this program with `--setup-only` in a
/// fresh process, waits for it and reads the time it printed.
fn cold_setup_s(opts: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &opts.workload, "--seed"])
        .arg(opts.seed.to_string())
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(|l| l.trim().parse::<f64>()) {
        Some(Ok(s)) if out.status.success() => Ok(s),
        _ => Err(format!(
            "set-up process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up or the trace
/// file cannot be written.
pub fn run(opts: &Options, env: &Env) -> Result<RunResult, String> {
    let (mut w, first_setup_s) = timed_build(opts)?;
    let mut setup_s = vec![first_setup_s];
    // Only untraced runs report `setup_s`.
    let setup_reps = if opts.trace { 1 } else { SETUP_REPS };

    let mut rec = Recorder::default();
    let mut tracer = Tracer::new();
    let mut counters: Option<Counters> = None;
    let kinds = if opts.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut pass = 0u32;
    let mut probe_ms = Vec::new();
    let mut next_probe_s = 0.0;
    loop {
        if opts.trace && pass % 2 == 1 {
            let c = w.traced_pass(&mut tracer, &mut rec);
            match &counters {
                None => counters = Some(c),
                Some(first) if *first == c => {}
                Some(_) => {
                    rec.failed += 1;
                    rec.errors.push(format!(
                        "counters of traced pass {pass} differ from the first"
                    ));
                }
            }
        } else {
            w.pass(&mut rec);
        }
        pass += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if !opts.trace && elapsed >= next_probe_s {
            probe_ms.push(host_probe_ms(env.threads));
            next_probe_s = elapsed + PROBE_EVERY_S;
        }
        let reps = setup_s.len() as u32;
        if reps < setup_reps && elapsed >= opts.seconds * f64::from(reps) / f64::from(setup_reps) {
            setup_s.push(cold_setup_s(opts)?);
        }
        if pass >= kinds && elapsed >= opts.seconds {
            break;
        }
    }
    while (setup_s.len() as u32) < setup_reps {
        setup_s.push(cold_setup_s(opts)?);
    }
    let mut counters = counters.unwrap_or_default();
    w.finish(&mut counters);
    let mut digest = Fnv::default();
    w.digest(&mut digest);
    drop(w);

    let correct = rec.failed == 0 && rec.attempted > 0;
    let mut raw = Counters::new();
    let metrics = if opts.trace {
        let m = layer_metrics(&tracer, &rec, &counters, env, pass / 2);
        write_trace(opts, env, &tracer, &counters, digest.finish(), &m)?;
        m
    } else {
        let total_ms: f64 = rec.op_ms.iter().sum();
        raw.insert("probe_ms", quantile(&probe_ms, 0.5));
        raw.insert("setup_s", quantile(&setup_s, 0.5));
        raw.insert("op_ms_p90", quantile(&rec.op_ms, 0.9));
        raw.insert("ops_per_s", ratio(rec.op_ms.len() as f64 * 1e3, total_ms));
        // Times scale with the host's speed, which drifts by tens of
        // percent over minutes on a shared host; the probe drifts with
        // it, so times are reported as if the probe took PROBE_REF_MS.
        let scale = ratio(PROBE_REF_MS, raw["probe_ms"]);
        let values = [
            raw["setup_s"] * scale,
            raw["op_ms_p90"] * scale,
            ratio(raw["ops_per_s"], scale),
            peak_rss_mb(),
            1.0 - ratio(rec.failed as f64, rec.attempted as f64),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Ok(RunResult {
        correct,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        raw,
        errors: rec.errors,
    })
}

/// A fixed piece of work whose time stands for the host's current
/// speed, ms: on each of `threads` threads at once (the flow's worker
/// count), fill 64 KiB with a xorshift sequence 64 times and hash it.
pub fn host_probe_ms(threads: usize) -> f64 {
    fn work() -> u64 {
        let mut words = vec![0u32; 1 << 14];
        let mut x = 0x9e37_79b9u32;
        let mut h = Fnv::default();
        for _ in 0..64 {
            for w in words.iter_mut() {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                *w = x;
            }
            for w in words.iter().step_by(7) {
                h.write(&w.to_le_bytes());
            }
        }
        h.finish()
    }
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads.max(1)).map(|_| scope.spawn(work)).collect();
        std::hint::black_box(work());
        for t in others {
            std::hint::black_box(t.join().ok());
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// Per-layer metrics of a traced run: each layer's self time per op,
/// the counters, and how the traced ops compare with the untraced ones.
fn layer_metrics(
    tracer: &Tracer,
    rec: &Recorder,
    counters: &Counters,
    env: &Env,
    traced_passes: u32,
) -> Vec<(&'static str, f64, &'static str)> {
    let self_ns = tracer.self_ns_by_name();
    let op_name = self_ns
        .keys()
        .find(|k| k.starts_with("op."))
        .copied()
        .unwrap_or("op.none");
    let (op_ns, ops) = tracer.root_ns(op_name);
    let ops_f = ops.max(1) as f64;
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops_f;
    let layer_ms = |name: &str| per_op_ms(self_ns.get(name).copied().unwrap_or(0));

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    let layers_ns: u64 = self_ns
        .iter()
        .filter(|(name, _)| !name.starts_with("op.") && !name.starts_with("probe."))
        .map(|(_, &ns)| ns)
        .sum();
    for (name, _) in PER_LAYER {
        if let Some(stem) = name.strip_suffix("_ms") {
            v.insert(name, layer_ms(stem));
        }
    }
    v.insert("fault.golden_ms", layer_ms("probe.fault_golden"));
    v.insert("bench.glue_ms", layer_ms(op_name));
    v.insert("bench.op_ms_p50", quantile(&rec.op_ms, 0.5));
    let (journaled, plain) = (layer_ms("dse.sweep"), layer_ms("probe.sweep_plain"));
    if plain > 0.0 {
        v.insert("wal.journal_ms", journaled - plain);
        v.insert("wal.fsync_ms", layer_ms("probe.sweep_synced") - journaled);
        v.insert("pool.sweep_speedup", layer_ms("probe.sweep_serial") / plain);
    }
    for (&k, &c) in counters {
        v.insert(k, c);
    }
    // Throughputs: a pass's counted work over its share of layer time.
    let pass_s = |ns: u64| ns as f64 / 1e9 / f64::from(traced_passes.max(1));
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let campaign_ns = self_ns.get("fault.campaign").copied().unwrap_or(0);
    v.insert(
        "fault.trials_per_s",
        ratio(counter("fault.trials"), pass_s(campaign_ns)),
    );
    // The RISC-V Table-III baselines are a probe of `resilient_campaign`,
    // timed per traced pass.
    let riscv_ns = self_ns.get("probe.riscv_run").copied().unwrap_or(0);
    v.insert("riscv.run_ms", pass_s(riscv_ns) * 1e3);
    v.insert("pool.threads", env.threads as f64);

    let untraced_ms = ratio(rec.op_ms.iter().sum(), rec.op_ms.len() as f64);
    let traced_ms = per_op_ms(op_ns);
    v.insert(
        "trace.overhead_pct",
        ratio(traced_ms - untraced_ms, untraced_ms) * 100.0,
    );
    v.insert(
        "trace.layers_pct",
        ratio(per_op_ms(layers_ns), untraced_ms) * 100.0,
    );
    let op_spans = tracer
        .spans()
        .iter()
        .filter(|s| !s.name.starts_with("probe."))
        .count();
    v.insert("trace.spans_per_op", op_spans as f64 / ops_f);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn write_trace(
    opts: &Options,
    env: &Env,
    tracer: &Tracer,
    counters: &Counters,
    digest: u64,
    metrics: &[(&'static str, f64, &str)],
) -> Result<(), String> {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "\"workload\": \"{}\",", opts.workload);
    let _ = writeln!(out, "\"seed\": {},", opts.seed);
    let _ = writeln!(out, "\"env\": {},", env.to_json());
    let _ = writeln!(out, "\"counters\": {},", report::counters_json(counters));
    let _ = writeln!(out, "\"outputs\": \"{digest:016x}\",");
    let m: Counters = metrics.iter().map(|&(n, v, _)| (n, v)).collect();
    let _ = writeln!(out, "\"metrics\": {},", report::counters_json(&m));
    let _ = writeln!(out, "\"spans\": {}", tracer.to_json());
    out.push_str("}\n");
    if let Some(dir) = opts.trace_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.trace_out, out)
        .map_err(|e| format!("write {}: {e}", opts.trace_out.display()))
}
