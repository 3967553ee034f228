//! Cycle-side objective for the DSE: per-kernel wall-clock runtime.
//!
//! The frequency map optimizes *fmax*, but the paper's end metric is
//! kernel runtime — simulated cycles divided by the achieved clock.
//! This module supplies the cycle half from the SIMT simulator: each
//! shipped kernel is run once at the candidate's CU geometry (on the
//! default [`AccelBackend::Soa`](ggpu_simt::AccelBackend::Soa)
//! production simulator) and the cycle counts are combined with a
//! frequency into a runtime table a planner objective can rank
//! candidates by.
//!
//! Cycle counts are architectural (backend-independent by the
//! equivalence suite's bit-identity guarantee) and depend only on the
//! geometry, so the expensive simulation half can be computed once per
//! CU count and re-priced for every frequency the DSE visits.

use ggpu_kernels::bench::{self, Bench, BenchError};
use ggpu_simt::SimtConfig;
use ggpu_tech::units::Mhz;

/// Simulated cycle count of one shipped kernel at a fixed geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCycles {
    /// Kernel name (Table III row label).
    pub kernel: &'static str,
    /// Grid size the kernel was simulated at.
    pub n: u32,
    /// Simulated cycles to completion.
    pub cycles: u64,
}

/// Per-kernel runtime at a concrete clock frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRuntime {
    /// Kernel name (Table III row label).
    pub kernel: &'static str,
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Wall-clock runtime at the priced frequency, in microseconds.
    pub runtime_us: f64,
}

/// Simulates every shipped kernel (the paper's Table III seven) at
/// grid size `n` on a `compute_units`-CU machine and returns the
/// cycle counts.
///
/// `n` must be a multiple of the wavefront size times one workgroup's
/// wavefront count for every kernel to launch; the smoke sizes used by
/// the planner tests satisfy this.
///
/// # Errors
///
/// Returns the first [`BenchError`] a kernel run produces.
pub fn kernel_cycles(compute_units: u32, n: u32) -> Result<Vec<KernelCycles>, BenchError> {
    let config = SimtConfig {
        compute_units,
        ..SimtConfig::default()
    };
    bench::all()
        .iter()
        .map(|b: &Bench| {
            let stats = b.run_gpu_with(n, config)?;
            Ok(KernelCycles {
                kernel: b.name,
                n,
                cycles: stats.cycles,
            })
        })
        .collect()
}

/// Prices a cycle table at `frequency`: runtime = cycles / f.
///
/// # Panics
///
/// Panics if `frequency` is zero or negative (as [`Mhz::period`]).
pub fn price_at(cycles: &[KernelCycles], frequency: Mhz) -> Vec<KernelRuntime> {
    let period_us = frequency.period().value() * 1e-3;
    cycles
        .iter()
        .map(|k| KernelRuntime {
            kernel: k.kernel,
            cycles: k.cycles,
            runtime_us: k.cycles as f64 * period_us,
        })
        .collect()
}

/// Total runtime of a priced table in microseconds — the scalar the
/// DSE can rank candidate frequencies by.
pub fn total_runtime_us(rows: &[KernelRuntime]) -> f64 {
    rows.iter().map(|r| r.runtime_us).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_price_into_runtime() {
        let cycles = kernel_cycles(1, 256).expect("smoke grids run");
        assert_eq!(cycles.len(), 7);
        assert!(cycles.iter().all(|k| k.cycles > 0));

        let slow = price_at(&cycles, Mhz::new(295.0));
        let fast = price_at(&cycles, Mhz::new(590.0));
        // Doubling the clock halves every runtime.
        for (s, f) in slow.iter().zip(&fast) {
            assert_eq!(s.cycles, f.cycles);
            assert!((s.runtime_us / f.runtime_us - 2.0).abs() < 1e-9);
        }
        assert!(total_runtime_us(&fast) > 0.0);
        assert!((total_runtime_us(&slow) - 2.0 * total_runtime_us(&fast)).abs() < 1e-6);
    }

    #[test]
    fn more_cus_do_not_slow_kernels() {
        // The cycle side of the objective must reflect the geometry:
        // an 8-CU machine retires the same grid in no more cycles
        // than a 1-CU machine on every kernel.
        let one = kernel_cycles(1, 512).expect("1 CU");
        let eight = kernel_cycles(8, 512).expect("8 CUs");
        for (a, b) in one.iter().zip(&eight) {
            assert_eq!(a.kernel, b.kernel);
            assert!(
                b.cycles <= a.cycles,
                "{}: 8 CUs took {} cycles vs {} on 1",
                a.kernel,
                b.cycles,
                a.cycles
            );
        }
    }
}
