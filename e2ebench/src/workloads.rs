//! The three workloads. Each runs whole passes over its fixed input set,
//! times every op, checks every op's output and, on a traced pass,
//! wraps each layer call in a span and returns the pass's counters.

use crate::flow::{pinned_config, table1_timing_ok, traced_spec};
use crate::report::{ratio, Counters, Fnv};
use crate::trace::Tracer;
use crate::{Recorder, Workload};
use ggpu_fault::Rng;
use ggpu_simt::{RunStats, SimtConfig};
use ggpu_tech::sram::EccScheme;
use ggpu_tech::units::Mhz;
use ggpu_tech::Tech;
use gpuplanner::{
    datasheet, paper_versions, GpuPlanner, PlannedVersion, Specification, Supervisor,
    SupervisorConfig, SweepConfig, SweepReport,
};
use std::path::PathBuf;
use std::time::Instant;

/// Trials of every campaign in `resilient_campaign`.
pub const CAMPAIGN_TRIALS: u32 = 256;
/// Ceiling pairs one `checkpointed_sweep` run cycles through.
const SWEEP_CEILINGS: usize = 4;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Process-wide counters of `ggpu-tech::sram`, `ggpu-netlist` and the
/// lint verification cache, read before and after a traced pass.
#[derive(Debug, Clone, Copy)]
struct Globals {
    sram_raw_compiles: u64,
    design_clones: u64,
    module_copies: u64,
    lint_hits: u64,
    lint_misses: u64,
}

impl Globals {
    fn read() -> Self {
        let (lint_hits, lint_misses) = ggpu_lint::verify_cache_stats();
        Self {
            sram_raw_compiles: ggpu_tech::sram::raw_compile_count(),
            design_clones: ggpu_netlist::design_clone_count(),
            module_copies: ggpu_netlist::module_copy_count(),
            lint_hits,
            lint_misses,
        }
    }

    /// Records the deltas since `self` into `c`.
    fn deltas_into(self, c: &mut Counters) {
        let now = Self::read();
        let d = |a: u64, b: u64| (a - b) as f64;
        c.insert(
            "sram.raw_compiles",
            d(now.sram_raw_compiles, self.sram_raw_compiles),
        );
        c.insert(
            "netlist.design_clones",
            d(now.design_clones, self.design_clones),
        );
        c.insert(
            "netlist.module_copies",
            d(now.module_copies, self.module_copies),
        );
        let hits = d(now.lint_hits, self.lint_hits);
        let misses = d(now.lint_misses, self.lint_misses);
        c.insert("lint.verify_cache_hit_ratio", ratio(hits, hits + misses));
    }
}

/// Simulator statistics summed over a pass's launches.
#[derive(Debug, Default)]
struct SimTotals {
    cycles: u64,
    vector_instructions: u64,
    sched_iterations: u64,
    accesses: u64,
    hits: u64,
}

impl SimTotals {
    fn add(&mut self, s: &RunStats) {
        self.cycles += s.cycles;
        self.vector_instructions += s.vector_instructions;
        self.sched_iterations += s.sched_iterations;
        self.accesses += s.mem.accesses;
        self.hits += s.mem.hits;
    }

    fn into_counters(self, c: &mut Counters) {
        c.insert("simt.cycles", self.cycles as f64);
        c.insert("simt.vector_instructions", self.vector_instructions as f64);
        c.insert("simt.sched_iterations", self.sched_iterations as f64);
        c.insert(
            "simt.cache_miss_ratio",
            ratio((self.accesses - self.hits) as f64, self.accesses as f64),
        );
    }
}

/// STA memo-table effectiveness of a planner, over its lifetime.
fn sta_counters(planner: &GpuPlanner, c: &mut Counters) {
    let cache = planner.sta_cache();
    let (hits, misses) = (cache.hits() as f64, cache.misses() as f64);
    c.insert("sta.query_hit_ratio", ratio(hits, hits + misses));
    let engine = cache.engine_stats();
    c.insert("sta.module_hit_ratio", engine.hit_rate());
}

/// `table1_flow` and `resilient_campaign`: passes over a fixed spec
/// list, each spec through the supervised pipeline, with a fresh
/// planner per pass.
pub struct SpecFlow {
    tech: Tech,
    specs: Vec<Specification>,
    config: SupervisorConfig,
    /// Datasheet and campaign report of each spec's first run; every
    /// later run must repeat them byte for byte.
    reference: Vec<Option<(String, Option<String>)>>,
    retries: u64,
    degradation_steps: u64,
}

impl SpecFlow {
    /// The 12 Table-I specs ({1,2,4,8} CUs x {500,590,667} MHz), no
    /// campaign.
    pub fn table1(seed: u64) -> Self {
        Self::new(paper_versions(), pinned_config(seed, 0))
    }

    /// Resilient specs at 500 MHz over the Table-I CU counts, each
    /// under parity and under SEC-DED, with a seeded campaign each.
    pub fn resilient(seed: u64) -> Self {
        let mut specs = Vec::new();
        for cus in [1, 2, 4, 8] {
            for scheme in [EccScheme::Parity, EccScheme::SecDed] {
                specs.push(Specification::new(cus, Mhz::new(500.0)).with_resilience(scheme));
            }
        }
        let mut rng = Rng::for_trial(seed, 0);
        Self::new(specs, pinned_config(rng.next_u64(), CAMPAIGN_TRIALS))
    }

    fn new(specs: Vec<Specification>, config: SupervisorConfig) -> Self {
        let reference = vec![None; specs.len()];
        let mut flow = Self {
            tech: Tech::l65(),
            specs,
            config,
            reference,
            retries: 0,
            degradation_steps: 0,
        };
        // Warm-up pass: fills the process-wide caches (kernel
        // verification, SRAM compiler front-end) and records each
        // spec's reference output. A spec that fails here fails again,
        // and is counted, in the measured passes.
        flow.pass(&mut Recorder::default());
        flow
    }

    /// Checks one spec's output against the Table-I timing facts, the
    /// campaign contract and the spec's first run.
    fn check(
        &mut self,
        i: usize,
        version: &gpuplanner::ImplementedVersion,
        campaign: Option<&ggpu_fault::CampaignReport>,
    ) -> Result<(), String> {
        let name = self.specs[i].version_name();
        if !table1_timing_ok(version) {
            return Err(format!("{name}: Table-I timing facts not reproduced"));
        }
        let campaign_json = match (self.config.campaign_trials, campaign) {
            (0, None) => None,
            (trials, Some(r)) if trials > 0 => {
                if r.counts.total() != trials || r.trials != trials {
                    return Err(format!("{name}: campaign outcomes do not sum to trials"));
                }
                Some(r.to_json())
            }
            _ => {
                return Err(format!(
                    "{name}: campaign ran when it should not, or not at all"
                ))
            }
        };
        let sheet = datasheet(version);
        match &self.reference[i] {
            None => {
                self.reference[i] = Some((sheet, campaign_json));
                Ok(())
            }
            Some((s, c)) if *s == sheet && *c == campaign_json => Ok(()),
            Some(_) => Err(format!("{name}: output differs from the first run")),
        }
    }
}

impl Workload for SpecFlow {
    fn pass(&mut self, rec: &mut Recorder) {
        let supervisor =
            Supervisor::new(GpuPlanner::new(self.tech.clone())).with_config(self.config.clone());
        for i in 0..self.specs.len() {
            let t0 = Instant::now();
            let result = supervisor.run_spec(&self.specs[i]);
            let ms = ms_since(t0);
            let verdict = match result {
                Ok(out) => {
                    self.retries += u64::from(out.degradations.retries);
                    self.degradation_steps += out.degradations.steps.len() as u64;
                    if out.degradations.is_clean() {
                        self.check(i, &out.version, out.campaign.as_ref())
                    } else {
                        Err(format!("{}: run degraded", self.specs[i]))
                    }
                }
                Err(e) => Err(format!("{}: {e}", self.specs[i])),
            };
            rec.op(ms, verdict);
        }
    }

    fn traced_pass(&mut self, t: &mut Tracer, rec: &mut Recorder) -> Counters {
        let mut c = Counters::new();
        let planner = GpuPlanner::new(self.tech.clone());
        let globals = Globals::read();
        let mut sim = SimTotals::default();
        let (mut actions, mut trials, mut masked) = (0usize, 0u32, 0u32);
        let golden_probe = ggpu_fault::Workload::from_bench(
            &ggpu_kernels::bench::all()[1],
            crate::flow::CAMPAIGN_N,
        );
        for i in 0..self.specs.len() {
            let spec = self.specs[i];
            let result = t.span("op.spec", |t| traced_spec(t, &planner, &spec, &self.config));
            let verdict = result.and_then(|out| {
                sim.add(&out.smoke);
                actions += out.version.planned.plan.actions().len();
                if let Some(r) = &out.campaign {
                    trials += r.counts.total();
                    masked += r.counts.masked;
                    // Probe, outside the op: the fault-free reference
                    // launch every campaign starts with.
                    if let Ok(w) = &golden_probe {
                        let _ = t.span("probe.fault_golden", |_| {
                            w.run_golden(SimtConfig::default())
                        });
                    }
                }
                self.check(i, &out.version, out.campaign.as_ref())
            });
            rec.traced_op(verdict);
        }
        // Probe, outside the ops: the RISC-V baseline of the paper's
        // kernels at their Table-III sizes, so that the RISC-V layer is
        // measured next to the campaign's simulator launches.
        if self.config.campaign_trials > 0 {
            let mut rv_cycles = 0u64;
            for b in ggpu_kernels::bench::all() {
                match t.span("probe.riscv_run", |_| b.run_riscv(b.riscv_n)) {
                    Ok(s) => rv_cycles += s.cycles,
                    Err(e) => rec.traced_op(Err(format!("{}: riscv: {e}", b.name))),
                }
            }
            c.insert("riscv.cycles", rv_cycles as f64);
        }
        globals.deltas_into(&mut c);
        sta_counters(&planner, &mut c);
        sim.into_counters(&mut c);
        c.insert("dse.plan_actions", actions as f64);
        c.insert("fault.trials", f64::from(trials));
        c.insert(
            "fault.masked_ratio",
            ratio(f64::from(masked), f64::from(trials)),
        );
        c
    }

    fn finish(&mut self, c: &mut Counters) {
        c.insert("supervise.retries", self.retries as f64);
        c.insert("supervise.degradation_steps", self.degradation_steps as f64);
    }

    fn digest(&self, h: &mut Fnv) {
        for (sheet, campaign) in self.reference.iter().flatten() {
            h.write_str(sheet);
            h.write_str(campaign.as_deref().unwrap_or(""));
        }
    }
}

/// Removes a directory tree when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One sweep's outcome as compared against the reference.
type SweepOutcome = (Option<PlannedVersion>, String);

fn outcome_of(report: SweepReport) -> SweepOutcome {
    let render = report.render();
    (report.winner, render)
}

/// `checkpointed_sweep`: repeated 24-point DSE sweeps under seeded
/// area/power ceilings, journaled through `ggpu-wal`, each with a fresh
/// planner and a fresh journal in a temporary directory.
pub struct Sweep {
    tech: Tech,
    ceilings: Vec<(f64, f64)>,
    /// Unjournaled sweep of each ceiling pair, made on first use.
    reference: Vec<Option<SweepOutcome>>,
    /// Compacted journal of each ceiling pair's first journaled sweep,
    /// once a resume from it has reproduced the reference; every later
    /// journal must repeat it byte for byte.
    snapshot: Vec<Option<String>>,
    tmp: TempDir,
    next: usize,
}

impl Sweep {
    /// Draws the ceiling pairs from `seed` and creates the journal
    /// directory under `scratch`.
    pub fn new(seed: u64, scratch: PathBuf) -> Result<Self, String> {
        let mut rng = Rng::for_trial(seed, 1);
        let ceilings = (0..SWEEP_CEILINGS)
            .map(|_| {
                let area = 4.0 + (rng.next_u64() % 2_000) as f64 / 100.0;
                let power = 0.5 + (rng.next_u64() % 300) as f64 / 100.0;
                (area, power)
            })
            .collect();
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("create {}: {e}", scratch.display()))?;
        let mut sweep = Self {
            tech: Tech::l65(),
            ceilings,
            reference: vec![None; SWEEP_CEILINGS],
            snapshot: vec![None; SWEEP_CEILINGS],
            tmp: TempDir(scratch),
            next: 0,
        };
        // Warm-up, and the reference for the first ceiling pair.
        sweep.reference_for(0)?;
        Ok(sweep)
    }

    fn plain_config(&self, k: usize) -> SweepConfig {
        let (area, power) = self.ceilings[k];
        SweepConfig::budgets(area, power)
    }

    fn reference_for(&mut self, k: usize) -> Result<&SweepOutcome, String> {
        if self.reference[k].is_none() {
            let planner = GpuPlanner::new(self.tech.clone());
            let report = planner
                .sweep(&self.plain_config(k))
                .map_err(|e| e.to_string())?;
            self.reference[k] = Some(outcome_of(report));
        }
        Ok(self.reference[k].as_ref().expect("just filled"))
    }

    /// The next ceiling pair and a fresh journal path for it.
    fn next_op(&mut self) -> (usize, SweepConfig) {
        let k = self.next % SWEEP_CEILINGS;
        let path = self.tmp.0.join(format!("sweep-{}.wal", self.next));
        self.next += 1;
        // Records are not fsynced one by one (the header and the
        // compacted snapshot still are): on shared storage the fsync
        // latency swings far more from run to run than the sweep
        // itself. A traced pass times the fsynced journal as a probe.
        let config = self.plain_config(k).with_checkpoint(&path).with_sync(false);
        (k, config)
    }

    /// Checks a journaled sweep under ceiling pair `k` and its journal
    /// `journal`, then removes the journal file.
    ///
    /// The sweep's winner and `render()` must equal the unjournaled
    /// sweep's. The first journal of each pair must resume: a second
    /// sweep over it answers every point from the journal, gives the
    /// same winner and `render()`, and leaves the journal unchanged.
    /// Every later journal of the pair must equal the first byte for
    /// byte.
    fn check(
        &mut self,
        k: usize,
        config: &SweepConfig,
        got: Result<SweepReport, String>,
        journal: &str,
    ) -> Result<(), String> {
        let verdict = self.check_journaled(k, config, got, journal);
        if let Some(path) = &config.checkpoint {
            let _ = std::fs::remove_file(path);
        }
        verdict
    }

    fn check_journaled(
        &mut self,
        k: usize,
        config: &SweepConfig,
        got: Result<SweepReport, String>,
        journal: &str,
    ) -> Result<(), String> {
        let ceilings = self.ceilings[k];
        let got = got?;
        let points = got.evaluated + got.resumed;
        if outcome_of(got) != *self.reference_for(k)? {
            return Err(format!(
                "journaled sweep under ceilings {ceilings:?} differs from the unjournaled one"
            ));
        }
        match &self.snapshot[k] {
            Some(first) if first == journal => Ok(()),
            Some(_) => Err(format!(
                "sweep journal under ceilings {ceilings:?} differs from the first one"
            )),
            None => {
                let resumed = GpuPlanner::new(self.tech.clone())
                    .sweep(config)
                    .map_err(|e| format!("resume under ceilings {ceilings:?}: {e}"))?;
                let after = read_journal(config);
                if resumed.resumed != points || resumed.evaluated != 0 {
                    return Err(format!(
                        "resume under ceilings {ceilings:?} answered {} of {points} points \
                         from the journal",
                        resumed.resumed
                    ));
                }
                if outcome_of(resumed) != *self.reference_for(k)? || after != journal {
                    return Err(format!(
                        "resume under ceilings {ceilings:?} differs from the journaled sweep"
                    ));
                }
                self.snapshot[k] = Some(journal.to_string());
                Ok(())
            }
        }
    }
}

/// The journal a finished sweep left, or an empty string.
fn read_journal(config: &SweepConfig) -> String {
    config
        .checkpoint
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default()
}

impl Workload for Sweep {
    fn pass(&mut self, rec: &mut Recorder) {
        let (k, config) = self.next_op();
        let planner = GpuPlanner::new(self.tech.clone());
        let t0 = Instant::now();
        let result = planner.sweep(&config);
        let ms = ms_since(t0);
        let journal = read_journal(&config);
        let verdict = self.check(k, &config, result.map_err(|e| e.to_string()), &journal);
        rec.op(ms, verdict);
    }

    fn traced_pass(&mut self, t: &mut Tracer, rec: &mut Recorder) -> Counters {
        let mut c = Counters::new();
        let (k, config) = self.next_op();
        let planner = GpuPlanner::new(self.tech.clone());
        let globals = Globals::read();
        let result = t.span("op.sweep", |t| {
            t.span("dse.sweep", |_| planner.sweep(&config))
        });
        globals.deltas_into(&mut c);
        let journal = read_journal(&config);
        c.insert(
            "wal.records",
            journal.lines().count().saturating_sub(1) as f64,
        );
        c.insert("wal.bytes", journal.len() as f64);
        if let Ok(r) = &result {
            c.insert("sweep.points", (r.evaluated + r.resumed) as f64);
            c.insert("sweep.unreachable", r.unreachable as f64);
        }
        let verdict = self.check(k, &config, result.map_err(|e| e.to_string()), &journal);
        rec.traced_op(verdict);
        // Probes, outside the op: the same sweep without a journal, in
        // parallel and then on one thread, and with every record
        // fsynced. Racing workers may both miss the STA memo table on
        // one key, so the STA counters come from the one-thread sweep,
        // where they repeat exactly.
        let plain_config = self.plain_config(k);
        let plain = GpuPlanner::new(self.tech.clone());
        let _ = t.span("probe.sweep_plain", |_| plain.sweep(&plain_config));
        let serial = GpuPlanner::new(self.tech.clone());
        let serial_config = plain_config.with_threads(1);
        let _ = t.span("probe.sweep_serial", |_| serial.sweep(&serial_config));
        sta_counters(&serial, &mut c);
        let synced = GpuPlanner::new(self.tech.clone());
        let synced_config = config.with_sync(true);
        let _ = t.span("probe.sweep_synced", |_| synced.sweep(&synced_config));
        if let Some(path) = &synced_config.checkpoint {
            let _ = std::fs::remove_file(path);
        }
        c
    }

    fn digest(&self, h: &mut Fnv) {
        for (k, r) in self.reference.iter().enumerate() {
            if let Some((winner, render)) = r {
                h.write_str(&format!("{:?}", self.ceilings[k]));
                h.write_str(render);
                h.write_str(&format!("{:?}", winner.as_ref().map(|w| &w.plan)));
                h.write_str(self.snapshot[k].as_deref().unwrap_or(""));
            }
        }
    }
}
