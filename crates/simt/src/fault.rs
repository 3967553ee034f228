//! Seeded single-event-upset (SEU) fault injection for the SIMT
//! simulator: the mechanism half of the resilience subsystem.
//!
//! This module defines *what* can be perturbed ([`FaultSite`]), *how*
//! a perturbation is guarded ([`Protection`], modelling per-word
//! parity / SEC-DED of the underlying SRAM macro) and *what came of
//! it ([`InjectionOutcome`] / [`FaultReport`]). The policy half —
//! deriving injection sites from a design's actual SRAM macro map,
//! Monte-Carlo campaigns, outcome classification and AVF — lives in
//! the `ggpu-fault` crate, which builds [`FaultPlan`]s and feeds them
//! to [`crate::Gpu::launch_hardened`].
//!
//! # Semantics
//!
//! * An [`Injection`] takes effect at its `cycle`. The event-driven
//!   scheduler applies it at the first pass at or after that cycle;
//!   between passes no architectural state is read, so this is
//!   bit-equivalent to flipping the bit at exactly `cycle` on the
//!   cycle-stepping driver, and both log the injection's own cycle.
//! * Protection is evaluated *at injection time*: the model assumes
//!   the corrupted word is read before it is next overwritten, which
//!   makes detection conservative (an over-approximation of a real
//!   scrubbing-free memory).
//! * A hardened run with an empty plan (and any watchdog setting) is
//!   bit-identical to [`crate::Gpu::launch`]: the harness acts only at
//!   pass times that already exist and mutates nothing.

use std::fmt;

/// A word-granular architectural location a fault can land in. Lane,
/// slot, word and register indices outside the running machine resolve
/// to [`InjectionOutcome::Vacant`] — out-of-range coordinates are
/// never an error, which is what makes random fuzzing over the full
/// index space panic-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A register of one lane of one resident wavefront slot
    /// (register-file SRAM banks).
    Register {
        /// Compute-unit index.
        cu: u32,
        /// Resident wavefront slot.
        slot: u32,
        /// Lane within the wavefront.
        lane: u32,
        /// Architectural register (taken modulo 32).
        reg: u8,
    },
    /// A word of one CU's local scratchpad (LRAM macro).
    LocalWord {
        /// Compute-unit index.
        cu: u32,
        /// Word index within the scratchpad.
        word: u32,
    },
    /// A word of global memory (data-cache / runtime-memory domain).
    GlobalWord {
        /// Word index within global memory.
        word: u32,
    },
    /// The program counter of one lane (instruction-fetch corruption
    /// approximating CRAM upsets).
    Pc {
        /// Compute-unit index.
        cu: u32,
        /// Resident wavefront slot.
        slot: u32,
        /// Lane within the wavefront.
        lane: u32,
    },
    /// The execution-mask bit of one lane (scheduler-state domain);
    /// the injection toggles the lane's active flag.
    ExecMask {
        /// Compute-unit index.
        cu: u32,
        /// Resident wavefront slot.
        slot: u32,
        /// Lane within the wavefront.
        lane: u32,
    },
}

impl FaultSite {
    /// Short architectural-domain name for reports.
    pub fn domain(&self) -> &'static str {
        match self {
            FaultSite::Register { .. } => "register",
            FaultSite::LocalWord { .. } => "lram",
            FaultSite::GlobalWord { .. } => "global",
            FaultSite::Pc { .. } => "pc",
            FaultSite::ExecMask { .. } => "exec-mask",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Register {
                cu,
                slot,
                lane,
                reg,
            } => {
                write!(f, "register cu{cu} slot{slot} lane{lane} r{reg}")
            }
            FaultSite::LocalWord { cu, word } => write!(f, "lram cu{cu} word{word}"),
            FaultSite::GlobalWord { word } => write!(f, "global word{word}"),
            FaultSite::Pc { cu, slot, lane } => write!(f, "pc cu{cu} slot{slot} lane{lane}"),
            FaultSite::ExecMask { cu, slot, lane } => {
                write!(f, "exec-mask cu{cu} slot{slot} lane{lane}")
            }
        }
    }
}

/// Per-word protection of the SRAM macro a fault lands in — the
/// behavioural model of the ECC columns `ggpu-tech`'s
/// `SramConfig::with_ecc` pays area for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// Unprotected: every flip lands silently.
    #[default]
    None,
    /// Even parity: an odd number of flipped codeword bits is detected
    /// (uncorrectable); an even number lands silently.
    Parity,
    /// Extended-Hamming SEC-DED: one flipped codeword bit is corrected,
    /// an even number (&ge; 2) is detected uncorrectable, an odd number
    /// &ge; 3 mis-corrects and lands.
    SecDed,
}

/// One planned bit-flip event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Simulated cycle at (or after) which the flip lands.
    pub cycle: u64,
    /// The architectural word hit.
    pub site: FaultSite,
    /// Bit positions flipped within the 32-bit architectural word
    /// (taken modulo 32; ignored for [`FaultSite::ExecMask`], which
    /// toggles the lane's active flag).
    pub flips: Vec<u8>,
    /// Total flipped bits in the *stored codeword* (data + check
    /// bits). Drives the [`Protection`] decision; flips landing in
    /// check bits contribute here without appearing in `flips`.
    /// Clamped up to `flips.len()` if set lower.
    pub codeword_flips: u32,
    /// Protection of the macro backing the site.
    pub protection: Protection,
    /// Reporting label — the hierarchical path of the SRAM macro this
    /// site was derived from (or a synthetic name for flop domains).
    pub label: String,
}

impl Injection {
    /// A single-bit upset with protection derived later by the caller.
    pub fn single(cycle: u64, site: FaultSite, bit: u8, protection: Protection) -> Self {
        Self {
            cycle,
            site,
            flips: vec![bit],
            codeword_flips: 1,
            protection,
            label: String::new(),
        }
    }

    /// Sets the reporting label (builder-style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// A deterministic, cycle-ordered set of injections for one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    injections: Vec<Injection>,
}

impl FaultPlan {
    /// An empty plan — a hardened run with this plan is bit-identical
    /// to a plain launch.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a plan, stably ordering injections by cycle (ties keep
    /// caller order, so identical inputs give identical runs).
    pub fn new(mut injections: Vec<Injection>) -> Self {
        injections.sort_by_key(|i| i.cycle);
        Self { injections }
    }

    /// Number of planned injections.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// `true` when no injections are planned.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// The planned injections in application order.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }
}

/// Retirement-progress watchdog configuration.
///
/// At every multiple of `interval` cycles (evaluated at the first
/// scheduler pass at or past the deadline) the watchdog fingerprints
/// the architectural state — PCs, registers, masks, LRAM, dispatch
/// position; global memory is excluded for cost. The check only *arms* when vector
/// instructions were issued since the previous check, so long memory
/// stalls (which always resolve: modelled latencies are finite) can
/// never trip it. After `patience` consecutive armed checks with an
/// unchanged fingerprint the run aborts with `SimError::Watchdog` —
/// a spinning kernel is flagged in `(patience + 1) * interval` cycles
/// instead of running to `max_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles between heartbeat checks.
    pub interval: u64,
    /// Consecutive no-progress checks tolerated before flagging.
    pub patience: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            interval: 2048,
            patience: 2,
        }
    }
}

impl WatchdogConfig {
    /// A watchdog sized for a per-stage cycle budget: a livelocked
    /// kernel is flagged within roughly `budget` simulated cycles
    /// (`(patience + 1) * interval <= budget` with the default
    /// patience), instead of the default fixed cadence. Used by the
    /// flow supervisor's campaign stage so its cycle budgets reuse the
    /// retirement-progress watchdog rather than growing a second hang
    /// detector.
    ///
    /// Budgets below the default interval clamp to a 64-cycle
    /// heartbeat so the watchdog can still arm.
    pub fn for_budget(budget: u64) -> Self {
        let patience = Self::default().patience;
        let interval = (budget / (u64::from(patience) + 1)).max(64);
        Self { interval, patience }
    }
}

/// Options for [`crate::Gpu::launch_hardened`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HardenedOptions {
    /// Bit-flips to inject.
    pub plan: FaultPlan,
    /// Livelock watchdog; `None` disables it.
    pub watchdog: Option<WatchdogConfig>,
}

/// What happened when one injection was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionOutcome {
    /// The site did not resolve to live state (index out of range or
    /// retired wavefront slot): architecturally masked by vacancy.
    Vacant,
    /// The flip landed in architectural state undetected.
    Applied,
    /// SEC-DED corrected the flip; no state changed.
    Corrected,
    /// Three or more codeword flips under SEC-DED: the decoder
    /// "corrected" the wrong bit and the corruption landed.
    MisCorrected,
}

impl fmt::Display for InjectionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InjectionOutcome::Vacant => "vacant",
            InjectionOutcome::Applied => "applied",
            InjectionOutcome::Corrected => "corrected",
            InjectionOutcome::MisCorrected => "mis-corrected",
        })
    }
}

/// One applied injection, as recorded in the [`FaultLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The injection's planned cycle ([`Injection::cycle`]), at which
    /// it took effect.
    pub cycle: u64,
    /// The injection's reporting label.
    pub label: String,
    /// What happened.
    pub outcome: InjectionOutcome,
}

/// Journal of every injection applied during a hardened run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultLog {
    /// Applied injections in application order.
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Events with the given outcome.
    pub fn count(&self, outcome: InjectionOutcome) -> usize {
        self.events.iter().filter(|e| e.outcome == outcome).count()
    }
}

/// Structured description of a detected-uncorrectable fault — the
/// payload of `SimError::UncorrectableFault`. A typed error, not a
/// panic and not silent data corruption: campaigns classify it as
/// `DetectedUncorrectable`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The injection's planned cycle, at which the fault was
    /// detected.
    pub cycle: u64,
    /// Reporting label of the injection (macro path).
    pub label: String,
    /// Architectural domain hit.
    pub domain: &'static str,
    /// Number of flipped codeword bits.
    pub flips: u32,
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "uncorrectable fault at cycle {} in {} ({}, {} flipped bits)",
            self.cycle,
            if self.label.is_empty() {
                "<unlabelled>"
            } else {
                &self.label
            },
            self.domain,
            self.flips
        )
    }
}

/// Result of a hardened run that ran to completion.
#[derive(Debug, Clone)]
pub struct HardenedRun {
    /// Architectural counters, bit-comparable to a plain launch.
    pub stats: crate::gpu::RunStats,
    /// Every injection applied, with its outcome.
    pub log: FaultLog,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_orders_by_cycle_stably() {
        let i = |cycle: u64, bit: u8| {
            Injection::single(
                cycle,
                FaultSite::GlobalWord { word: 0 },
                bit,
                Protection::None,
            )
        };
        let plan = FaultPlan::new(vec![i(30, 0), i(10, 1), i(30, 2), i(10, 3)]);
        let got: Vec<(u64, u8)> = plan
            .injections()
            .iter()
            .map(|j| (j.cycle, j.flips[0]))
            .collect();
        assert_eq!(got, vec![(10, 1), (10, 3), (30, 0), (30, 2)]);
    }

    #[test]
    fn display_formats() {
        let s = FaultSite::Register {
            cu: 1,
            slot: 2,
            lane: 3,
            reg: 4,
        };
        assert_eq!(s.to_string(), "register cu1 slot2 lane3 r4");
        assert_eq!(s.domain(), "register");
        assert_eq!(FaultSite::GlobalWord { word: 9 }.domain(), "global");
        let r = FaultReport {
            cycle: 7,
            label: "cu/rf_bank".into(),
            domain: "register",
            flips: 2,
        };
        assert!(r.to_string().contains("cycle 7"));
        assert!(r.to_string().contains("cu/rf_bank"));
        assert_eq!(InjectionOutcome::MisCorrected.to_string(), "mis-corrected");
    }

    #[test]
    fn log_counts() {
        let mut log = FaultLog::default();
        log.events.push(FaultEvent {
            cycle: 1,
            label: "a".into(),
            outcome: InjectionOutcome::Applied,
        });
        log.events.push(FaultEvent {
            cycle: 2,
            label: "b".into(),
            outcome: InjectionOutcome::Vacant,
        });
        assert_eq!(log.count(InjectionOutcome::Applied), 1);
        assert_eq!(log.count(InjectionOutcome::Corrected), 0);
    }

    #[test]
    fn watchdog_for_budget_bounds_detection_latency() {
        // Detection within (patience + 1) * interval <= budget.
        for budget in [1_000u64, 10_000, 1_000_000] {
            let w = WatchdogConfig::for_budget(budget);
            assert!(
                (u64::from(w.patience) + 1) * w.interval <= budget,
                "budget {budget}: interval {} patience {}",
                w.interval,
                w.patience
            );
        }
        // Tiny budgets clamp to a heartbeat the watchdog can arm at.
        assert_eq!(WatchdogConfig::for_budget(1).interval, 64);
    }
}
