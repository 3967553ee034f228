//! The supervised spec flow, as measured and as traced.
//!
//! The untraced path calls [`Supervisor::run_spec`] under a pinned
//! policy. The traced path rebuilds the same stage sequence
//! (verify → plan → implement → campaign) from the layers' public
//! entry points and wraps each call in a span, the way `flow_bench`'s
//! plain flow rebuilds it. The benchmark checks that both paths give
//! the same datasheet and campaign report.

use crate::trace::Tracer;
use ggpu_fault::{run_campaign, CampaignConfig, CampaignReport, MacroMap, ResilienceReport};
use ggpu_lint::LintConfig;
use ggpu_netlist::Design;
use ggpu_simt::{AccelBackend, RunStats, SimtConfig};
use ggpu_tech::units::Mhz;
use gpuplanner::{
    optimize_with_config, spec_fingerprint, DseConfig, FailurePlan, GpuPlanner, ImplementedVersion,
    PlannedVersion, Specification, SupervisorConfig,
};

/// Grid size of the verify stage's smoke launch of the copy kernel.
const SMOKE_N: u32 = 64;
/// Grid size of the campaign stage's copy workload.
pub const CAMPAIGN_N: u32 = 256;

/// The supervision policy the benchmark measures, whatever the host
/// environment says: no stage deadline (stages run inline, even when
/// `GGPU_STAGE_TIMEOUT_MS` is set), no chaos, no retry backoff.
pub fn pinned_config(seed: u64, campaign_trials: u32) -> SupervisorConfig {
    SupervisorConfig {
        stage_timeout: None,
        backoff_base_ms: 0,
        seed,
        dse: DseConfig::default(),
        backend: AccelBackend::Soa,
        campaign_trials,
        chaos: FailurePlan::none(),
        ..SupervisorConfig::default()
    }
}

/// What the traced stage sequence produced for one spec.
pub struct TracedSpec {
    /// The implemented version (compared against `run_spec`'s).
    pub version: ImplementedVersion,
    /// The campaign report, when the spec ran one.
    pub campaign: Option<CampaignReport>,
    /// Simulator statistics of the verify stage's smoke launch.
    pub smoke: RunStats,
}

/// The copy kernel the supervisor's verify and campaign stages run.
fn copy_bench() -> ggpu_kernels::bench::Bench {
    ggpu_kernels::bench::all()[1]
}

/// Runs `spec` through the supervisor's stage sequence, one span per
/// layer call. Mirrors the first rung of every ladder of
/// [`gpuplanner::Supervisor::run_spec`] under `config`.
///
/// # Errors
///
/// Returns a description of the first stage that failed.
pub fn traced_spec(
    t: &mut Tracer,
    planner: &GpuPlanner,
    spec: &Specification,
    config: &SupervisorConfig,
) -> Result<TracedSpec, String> {
    // Stage 1: verify.
    let denied = t.span("lint.verify", |_| {
        ggpu_lint::verify_shipped(&LintConfig::new())
            .iter()
            .any(|r| r.denial_count() > 0)
    });
    if denied {
        return Err("verify: a shipped kernel was denied".into());
    }
    let smoke = t.span("simt.smoke", |_| smoke_launch(config.backend))?;

    // Stage 2: plan.
    let planned = plan(t, planner, spec, &config.dse)?;

    // Stage 3: implement.
    let layout = t
        .span("pnr.place_route", |_| {
            ggpu_pnr::place_and_route(
                &planned.design,
                planner.tech(),
                spec.frequency,
                *planner.pnr_options(),
            )
        })
        .map_err(|e| format!("implement: {e}"))?;
    let area = planned.synthesis.stats.total_area().to_mm2();
    let power = planned.synthesis.total_power().to_watts();
    let within_spec = layout.meets_timing
        && spec.max_area_mm2.is_none_or(|max| area <= max)
        && spec.max_power_w.is_none_or(|max| power <= max);

    // Stage 4: campaign (resilient specs only).
    let campaign = match (config.campaign_trials, planner.resilience_policy(spec)) {
        (0, _) | (_, None) => None,
        (trials, Some(policy)) => Some(t.span("fault.campaign", |_| {
            let map = MacroMap::from_design(&planned.design, &policy)
                .map_err(|e| format!("campaign: macro map: {e}"))?;
            let workload = ggpu_fault::Workload::from_bench(&copy_bench(), CAMPAIGN_N)
                .map_err(|e| format!("campaign: workload: {e}"))?;
            let cfg = CampaignConfig::new(config.seed ^ spec_fingerprint(spec), trials);
            run_campaign(&workload, &map, &cfg).map_err(|e| format!("campaign: {e}"))
        })?),
    };

    Ok(TracedSpec {
        version: ImplementedVersion {
            planned,
            layout,
            within_spec,
        },
        campaign,
        smoke,
    })
}

/// The verify stage's smoke run: the copy kernel on `backend`, output
/// checked against its golden.
fn smoke_launch(backend: AccelBackend) -> Result<RunStats, String> {
    let workload = ggpu_fault::Workload::from_bench(&copy_bench(), SMOKE_N)
        .map_err(|e| format!("verify: smoke workload: {e}"))?;
    let mut gpu = workload
        .fresh_gpu(SimtConfig::default().with_backend(backend))
        .map_err(|e| format!("verify: smoke gpu: {e}"))?;
    let stats = gpu
        .launch(workload.kernel(), workload.launch())
        .map_err(|e| format!("verify: smoke launch: {e}"))?;
    let out = workload
        .read_output(&gpu)
        .map_err(|e| format!("verify: smoke readback: {e}"))?;
    if out != workload.golden() {
        return Err("verify: smoke output diverges from golden".into());
    }
    Ok(stats)
}

/// Design lint gate of the plan stage.
fn lint_gate(t: &mut Tracer, design: &Design) -> Result<(), String> {
    let report = t.span("lint.design", |_| {
        ggpu_lint::lint_design(design, &LintConfig::new())
    });
    if report.denial_count() > 0 {
        return Err(format!("plan: lint: {report}"));
    }
    Ok(())
}

/// The plan stage, as [`GpuPlanner::plan_with_config`] runs it.
fn plan(
    t: &mut Tracer,
    planner: &GpuPlanner,
    spec: &Specification,
    dse: &DseConfig,
) -> Result<PlannedVersion, String> {
    let config = ggpu_rtl::GgpuConfig {
        compute_units: spec.compute_units,
        memory_controllers: spec.memory_controllers,
        ..ggpu_rtl::GgpuConfig::default()
    };
    config.validate().map_err(|e| format!("plan: {e}"))?;
    let base = t
        .span("rtl.generate", |_| ggpu_rtl::generate(&config))
        .map_err(|e| format!("plan: {e}"))?;
    lint_gate(t, &base)?;
    let optimized = t
        .span("dse.optimize", |_| {
            optimize_with_config(
                &base,
                planner.tech(),
                spec.frequency,
                planner.sta_cache(),
                dse,
            )
        })
        .map_err(|e| format!("plan: {e}"))?;
    let mut design = optimized.design;
    design.set_name(format!(
        "ggpu_{}cu_{:.0}mhz",
        spec.compute_units,
        spec.frequency.value()
    ));
    lint_gate(t, &design)?;
    let mut trace = optimized.trace;
    let resilience = match planner.resilience_policy(spec) {
        Some(policy) => {
            let coverage = t.span("lint.design", |_| {
                ggpu_lint::lint_resilience(&design, &policy, &LintConfig::new())
            });
            if coverage.denial_count() > 0 {
                return Err(format!("plan: lint: {coverage}"));
            }
            if !coverage.is_clean() {
                trace.push(format!(
                    "resilience: {} macro site(s) unprotected under `{policy}`",
                    coverage.diagnostics.len()
                ));
            }
            t.span("fault.map", |_| {
                MacroMap::from_design(&design, &policy)
                    .ok()
                    .map(|map| ResilienceReport::from_map(&map, policy.to_string()))
            })
        }
        None => None,
    };
    let synthesis = t
        .span("synth.synthesize", |_| {
            ggpu_synth::synthesize(&design, planner.tech(), spec.frequency)
        })
        .map_err(|e| format!("plan: {e}"))?;
    Ok(PlannedVersion {
        spec: *spec,
        config,
        design,
        plan: optimized.plan,
        synthesis,
        trace,
        resilience,
    })
}

/// The Table-I timing facts every implemented spec must reproduce:
/// logic synthesis meets timing on all 12 versions, physical synthesis
/// closes everywhere except 8 CUs at 667 MHz, which lands near 600 MHz.
pub fn table1_timing_ok(version: &ImplementedVersion) -> bool {
    let spec = version.planned.spec;
    if !version.planned.synthesis.meets_timing {
        return false;
    }
    if spec.compute_units == 8 && spec.frequency == Mhz::new(667.0) {
        let f = version.achieved_clock().value();
        !version.layout.meets_timing && (570.0..=630.0).contains(&f)
    } else {
        version.layout.meets_timing
    }
}
