//! Monte-Carlo SEU campaigns: many independent single-fault trials,
//! classified into the standard resilience taxonomy.
//!
//! # Determinism contract
//!
//! Trial `i`'s injection is a pure function of `(seed, i)` and the
//! macro map ([`crate::rng::Rng::for_trial`]), and the simulator is
//! deterministic, so a campaign's report is **byte-identical** across
//! thread counts, checkpoint/resume splits and runs — the property
//! suite asserts this on the serialized JSON.
//!
//! # Checkpointing
//!
//! With [`CampaignConfig::checkpoint`] set, every finished trial
//! appends one text line to the checkpoint journal (a
//! [`ggpu_wal::Journal`], the shared write-ahead primitive). A rerun
//! parses the file (validating seed/kernel/trial-count in the
//! header), skips the recorded trials and completes the rest; the
//! final report is identical to an uninterrupted run. A process
//! killed mid-append leaves a torn final line, which the journal
//! truncates away on open — that trial simply re-runs — so resume
//! after `kill -9` at *any* byte is byte-identical to an
//! uninterrupted campaign (`tests/resume_prop.rs`).

use crate::map::{Geometry, MacroMap, MapError};
use crate::report::{CampaignReport, MacroAvf, OutcomeCounts};
use crate::rng::Rng;
use crate::workload::{Workload, WorkloadError};
use ggpu_simt::{FaultPlan, Gpu, HardenedOptions, InjectionOutcome, SimError, SimtConfig};
use ggpu_wal::{Journal, WalError, WalOp};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How one fault trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The run completed with correct output and no correction event:
    /// the upset was architecturally or logically masked (includes
    /// vacant sites and lucky mis-corrections).
    Masked,
    /// The run completed but the output differs from the golden
    /// reference: silent data corruption.
    Sdc,
    /// ECC corrected the upset and the output is correct.
    DetectedCorrected,
    /// Parity/SEC-DED flagged an uncorrectable word; the run aborted
    /// with a typed `SimError::UncorrectableFault`.
    DetectedUncorrectable,
    /// The watchdog (or the hard cycle ceiling) flagged a hung run.
    Hang,
    /// The simulator aborted with any other typed fault (bad PC,
    /// memory fault, scheduler stall...).
    Crash,
}

impl Outcome {
    /// Stable machine-readable name (checkpoint / JSON vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::DetectedCorrected => "detected-corrected",
            Outcome::DetectedUncorrectable => "detected-uncorrectable",
            Outcome::Hang => "hang",
            Outcome::Crash => "crash",
        }
    }

    /// Parses [`Outcome::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "masked" => Outcome::Masked,
            "sdc" => Outcome::Sdc,
            "detected-corrected" => Outcome::DetectedCorrected,
            "detected-uncorrectable" => Outcome::DetectedUncorrectable,
            "hang" => Outcome::Hang,
            "crash" => Outcome::Crash,
            _ => return None,
        })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finished trial, sufficient to rebuild its report contribution
/// without re-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// Trial index in `0..trials`.
    pub trial: u32,
    /// Index into the macro map of the macro hit.
    pub macro_idx: u32,
    /// Injection cycle.
    pub cycle: u64,
    /// Classification.
    pub outcome: Outcome,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; together with the trial index it fully determines
    /// every injection.
    pub seed: u64,
    /// Number of independent single-fault trials.
    pub trials: u32,
    /// The simulated machine. The default configuration runs the
    /// production SoA backend on the event-driven scheduler; fault
    /// semantics are bit-identical to the oracle (the simt equivalence
    /// suite pins this, injection plans, logged cycles and watchdog
    /// included), so set the backend to
    /// [`ggpu_simt::AccelBackend::Scalar`] to run the scalar
    /// cycle-stepping oracle when bisecting.
    pub sim: SimtConfig,
    /// Livelock watchdog for every trial (and hang classification).
    pub watchdog: ggpu_simt::WatchdogConfig,
    /// Worker threads; `0` picks `GGPU_THREADS` if set, else the host
    /// parallelism (the workspace's one rule,
    /// [`ggpu_tech::configured_threads`]).
    pub threads: usize,
    /// Optional checkpoint file for resumable campaigns.
    pub checkpoint: Option<PathBuf>,
}

impl CampaignConfig {
    /// A campaign with default machine, watchdog and threading.
    pub fn new(seed: u64, trials: u32) -> Self {
        Self {
            seed,
            trials,
            sim: SimtConfig::default(),
            watchdog: ggpu_simt::WatchdogConfig::default(),
            threads: 0,
            checkpoint: None,
        }
    }

    /// Workers for `jobs` pending trials, never more than `jobs`.
    fn worker_threads(&self, jobs: usize) -> usize {
        let threads = match self.threads {
            0 => ggpu_tech::configured_threads(),
            n => n,
        };
        threads.min(jobs.max(1))
    }
}

/// Campaign-level failures (per-trial simulator faults are *outcomes*,
/// not errors).
#[derive(Debug)]
pub enum CampaignError {
    /// The design yields no injection sites.
    Map(MapError),
    /// Preparing or golden-running the workload failed.
    Workload(WorkloadError),
    /// A trial could not even be set up (memory staging failed).
    Setup(SimError),
    /// Checkpoint I/O failed; the error carries the offending path
    /// and the operation that failed ([`WalError`]).
    Io(WalError),
    /// The checkpoint file does not match this campaign.
    Checkpoint(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Map(e) => write!(f, "macro map: {e}"),
            CampaignError::Workload(e) => write!(f, "workload: {e}"),
            CampaignError::Setup(e) => write!(f, "trial setup: {e}"),
            CampaignError::Io(e) => write!(f, "checkpoint io: {e}"),
            CampaignError::Checkpoint(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            CampaignError::Map(e) => Some(e),
            CampaignError::Workload(e) => Some(e),
            CampaignError::Setup(e) => Some(e),
            CampaignError::Checkpoint(_) => None,
        }
    }
}

impl From<WorkloadError> for CampaignError {
    fn from(e: WorkloadError) -> Self {
        CampaignError::Workload(e)
    }
}

impl From<WalError> for CampaignError {
    /// A journal-open failure whose header was complete but foreign is
    /// a campaign mismatch (caller error), not an I/O failure.
    fn from(e: WalError) -> Self {
        if e.op == WalOp::Open && e.source.kind() == std::io::ErrorKind::InvalidData {
            return CampaignError::Checkpoint(e.source.to_string());
        }
        CampaignError::Io(e)
    }
}

/// Shared worker output: finished-trial results plus the checkpoint
/// journal (behind one lock so checkpoint lines are whole).
type TrialSink = (Vec<Result<TrialRecord, CampaignError>>, Option<Journal>);

/// Runs (or resumes) a fault-injection campaign.
///
/// # Errors
///
/// Returns [`CampaignError`] on workload preparation failure,
/// checkpoint corruption or I/O failure. Simulator faults *inside*
/// trials are classified, never propagated.
pub fn run_campaign(
    workload: &Workload,
    map: &MacroMap,
    cfg: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    let (golden_cycles, records) = campaign_records(workload, map, cfg)?;
    Ok(build_report(workload, map, cfg, golden_cycles, &records))
}

/// The work of [`run_campaign`]: the golden cycle count and every
/// trial's record, in trial order.
///
/// Each worker reuses one machine: a trial resets it (zeroing only the
/// pages the previous run wrote), stages the inputs and runs. The
/// machines are allocated here, before the workers start — allocating
/// them inside the worker threads spreads the images over per-thread
/// allocator arenas and raises peak RSS.
fn campaign_records(
    workload: &Workload,
    map: &MacroMap,
    cfg: &CampaignConfig,
) -> Result<(u64, Vec<TrialRecord>), CampaignError> {
    let new_gpu = || Gpu::new(cfg.sim, workload.memory_words());
    let mut machines = vec![new_gpu()];
    // The first trial's reset clears the golden run's image.
    let golden = workload.run_golden_on(&mut machines[0])?;
    // Injections target [1, cycles): cycle 0 precedes dispatch (every
    // CU-resident site is vacant) and the final cycle post-dates the
    // last read.
    let cycle_hi = golden.cycles.max(2);
    let geom = Geometry::new(cfg.sim, workload.memory_words());

    let mut done: BTreeMap<u32, TrialRecord> = BTreeMap::new();
    let journal = match &cfg.checkpoint {
        Some(path) => {
            let (journal, lines, _) = Journal::open(path, &checkpoint_header(cfg, workload))?;
            for (no, line) in lines.iter().enumerate() {
                let rec = parse_record(line, no, cfg)?;
                done.insert(rec.trial, rec);
            }
            // Campaign trials are re-runnable at no cost beyond the
            // re-simulation, so the journal trades the per-append
            // fsync for campaign throughput: `kill -9` still loses
            // nothing (the OS keeps buffered writes), only a whole-
            // machine power failure can drop the buffered tail — and
            // the dropped trials simply re-run.
            Some(journal.with_sync(false))
        }
        None => None,
    };

    let pending: Vec<u32> = (0..cfg.trials).filter(|t| !done.contains_key(t)).collect();
    let sink: Mutex<TrialSink> = Mutex::new((Vec::with_capacity(pending.len()), journal));
    let next = AtomicUsize::new(0);
    machines.extend((1..cfg.worker_threads(pending.len())).map(|_| new_gpu()));

    std::thread::scope(|scope| {
        let (pending, sink, next, geom) = (&pending, &sink, &next, &geom);
        for gpu in &mut machines {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&trial) = pending.get(i) else { break };
                gpu.reset();
                let res = workload
                    .stage(gpu)
                    .map_err(CampaignError::Setup)
                    .and_then(|()| run_trial(gpu, workload, map, cfg, geom, cycle_hi, trial));
                let mut guard = sink.lock().unwrap_or_else(|e| e.into_inner());
                if let (Ok(rec), Some(journal)) = (&res, guard.1.as_mut()) {
                    // Checkpoint write failures degrade to an
                    // un-checkpointed campaign rather than losing the
                    // computed trial.
                    let _ = journal.append(&format!(
                        "t {} {} {} {}",
                        rec.trial, rec.macro_idx, rec.cycle, rec.outcome
                    ));
                }
                guard.0.push(res);
            });
        }
    });

    let (results, _) = sink.into_inner().unwrap_or_else(|e| e.into_inner());
    for res in results {
        let rec = res?;
        done.insert(rec.trial, rec);
    }
    Ok((golden.cycles, done.into_values().collect()))
}

/// Runs one seeded trial on `gpu`, which must hold the staged inputs
/// of a clean machine. Pure in `(seed, trial)` given the map and
/// geometry.
fn run_trial(
    gpu: &mut Gpu,
    workload: &Workload,
    map: &MacroMap,
    cfg: &CampaignConfig,
    geom: &Geometry,
    cycle_hi: u64,
    trial: u32,
) -> Result<TrialRecord, CampaignError> {
    let mut rng = Rng::for_trial(cfg.seed, u64::from(trial));
    let (macro_idx, injection) = map.sample_injection(&mut rng, geom, 1, cycle_hi);
    let cycle = injection.cycle;
    let opts = HardenedOptions {
        plan: FaultPlan::new(vec![injection]),
        watchdog: Some(cfg.watchdog),
    };
    let outcome = match gpu.launch_hardened(workload.kernel(), workload.launch(), &opts) {
        Err(SimError::UncorrectableFault(_)) => Outcome::DetectedUncorrectable,
        Err(SimError::Watchdog { .. }) | Err(SimError::CycleLimit { .. }) => Outcome::Hang,
        Err(_) => Outcome::Crash,
        Ok(run) => match workload.read_output(gpu) {
            Err(_) => Outcome::Crash,
            Ok(out) if out != workload.golden() => Outcome::Sdc,
            Ok(_) if run.log.count(InjectionOutcome::Corrected) > 0 => Outcome::DetectedCorrected,
            Ok(_) => Outcome::Masked,
        },
    };
    Ok(TrialRecord {
        trial,
        macro_idx: macro_idx as u32,
        cycle,
        outcome,
    })
}

fn checkpoint_header(cfg: &CampaignConfig, workload: &Workload) -> String {
    format!(
        "ggpu-fault-checkpoint v1 seed={} kernel={} n={} trials={}",
        cfg.seed, workload.name, workload.n, cfg.trials
    )
}

/// Parses one complete journal record line. Torn tails never reach
/// this point (the journal repairs them on open), so a line that does
/// not parse is genuine corruption and errors.
fn parse_record(line: &str, no: usize, cfg: &CampaignConfig) -> Result<TrialRecord, CampaignError> {
    let mut f = line.split_ascii_whitespace();
    let rec = (|| {
        if f.next()? != "t" {
            return None;
        }
        let trial: u32 = f.next()?.parse().ok()?;
        let macro_idx: u32 = f.next()?.parse().ok()?;
        let cycle: u64 = f.next()?.parse().ok()?;
        let outcome = Outcome::parse(f.next()?)?;
        Some(TrialRecord {
            trial,
            macro_idx,
            cycle,
            outcome,
        })
    })();
    match rec {
        Some(r) if r.trial < cfg.trials => Ok(r),
        Some(r) => Err(CampaignError::Checkpoint(format!(
            "trial {} out of range (campaign has {})",
            r.trial, cfg.trials
        ))),
        None => Err(CampaignError::Checkpoint(format!(
            "unparseable line {}: {line:?}",
            no + 2
        ))),
    }
}

fn build_report(
    workload: &Workload,
    map: &MacroMap,
    cfg: &CampaignConfig,
    golden_cycles: u64,
    records: &[TrialRecord],
) -> CampaignReport {
    let mut totals = OutcomeCounts::default();
    let mut per_macro: Vec<OutcomeCounts> = vec![OutcomeCounts::default(); map.sites().len()];
    for rec in records {
        totals.add(rec.outcome);
        if let Some(c) = per_macro.get_mut(rec.macro_idx as usize) {
            c.add(rec.outcome);
        }
    }
    let macros = map
        .sites()
        .iter()
        .zip(per_macro)
        .enumerate()
        .map(|(i, (site, counts))| MacroAvf {
            path: site.path.clone(),
            role: site.role.to_string(),
            scheme: site.scheme,
            exposure: map.exposure(i),
            counts,
        })
        .collect();
    CampaignReport {
        kernel: workload.name.to_string(),
        n: workload.n,
        seed: cfg.seed,
        trials: cfg.trials,
        compute_units: cfg.sim.compute_units,
        golden_cycles,
        counts: totals,
        macros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_names_round_trip() {
        for o in [
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::DetectedCorrected,
            Outcome::DetectedUncorrectable,
            Outcome::Hang,
            Outcome::Crash,
        ] {
            assert_eq!(Outcome::parse(o.as_str()), Some(o));
        }
        assert_eq!(Outcome::parse("nope"), None);
    }

    /// Every trial on its own freshly allocated machine — the oracle
    /// for the per-worker machine reuse of [`campaign_records`].
    fn fresh_machine_records(
        workload: &Workload,
        map: &MacroMap,
        cfg: &CampaignConfig,
    ) -> (u64, Vec<TrialRecord>) {
        let golden = workload.run_golden(cfg.sim).unwrap().cycles;
        let geom = Geometry::new(cfg.sim, workload.memory_words());
        let records = (0..cfg.trials)
            .map(|t| {
                let mut gpu = workload.fresh_gpu(cfg.sim).unwrap();
                run_trial(&mut gpu, workload, map, cfg, &geom, golden.max(2), t).unwrap()
            })
            .collect();
        (golden, records)
    }

    #[test]
    fn machine_reuse_matches_fresh_machine_per_trial() {
        use ggpu_kernels::bench;
        use ggpu_netlist::EccPolicy;
        use ggpu_tech::sram::EccScheme;

        let design = ggpu_rtl::generate(&ggpu_rtl::GgpuConfig::with_cus(1).unwrap()).unwrap();
        let kernels = [bench::all()[1], bench::all()[0], bench::all()[6]];
        assert_eq!(kernels.map(|b| b.name), ["copy", "mat_mul", "parallel_sel"]);
        let policies = [
            EccPolicy::unprotected(),
            EccPolicy::uniform(EccScheme::Parity),
            EccPolicy::uniform(EccScheme::SecDed),
        ];
        for kernel in &kernels {
            let workload = Workload::from_bench(kernel, 64).unwrap();
            for policy in &policies {
                let map = MacroMap::from_design(&design, policy).unwrap();
                for seed in [1, 0xC0FFEE, 0x5eed_f417] {
                    // 64 trials include upsets that leave output words
                    // unwritten: a machine still holding an earlier
                    // run's image would classify those differently.
                    let mut cfg = CampaignConfig::new(seed, 64);
                    let oracle = fresh_machine_records(&workload, &map, &cfg);
                    for threads in [1, 2, 4] {
                        cfg.threads = threads;
                        let reused = campaign_records(&workload, &map, &cfg).unwrap();
                        let what = format!(
                            "{} / {policy} / seed {seed} / {threads} threads",
                            kernel.name
                        );
                        assert_eq!(reused.0, oracle.0, "{what}: golden cycles");
                        assert_eq!(reused.1.len(), oracle.1.len(), "{what}: trials");
                        for (r, o) in reused.1.iter().zip(&oracle.1) {
                            assert_eq!(r, o, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn io_error_carries_path_and_operation() {
        // Pointing the checkpoint at a directory fails at journal
        // open; the error must name the offending path and the file
        // operation, not a bare message.
        let dir = std::env::temp_dir().join(format!("ggpu_fault_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = Journal::open(&dir, "hdr").unwrap_err();
        let err = CampaignError::from(wal);
        match &err {
            CampaignError::Io(e) => {
                assert_eq!(e.path, dir);
                assert!(matches!(e.op, WalOp::Read | WalOp::Create));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("checkpoint io"), "{text}");
        assert!(text.contains(&dir.display().to_string()), "{text}");
        // `source()` exposes the WalError for callers that downcast.
        assert!(std::error::Error::source(&err).is_some());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn foreign_header_maps_to_checkpoint_mismatch() {
        let path = std::env::temp_dir().join(format!("ggpu_fault_foreign_{}", std::process::id()));
        std::fs::write(&path, "some other campaign\n").unwrap();
        let wal = Journal::open(&path, "ggpu-fault-checkpoint v1 seed=1").unwrap_err();
        assert!(matches!(
            CampaignError::from(wal),
            CampaignError::Checkpoint(_)
        ));
        let _ = std::fs::remove_file(&path);
    }
}
