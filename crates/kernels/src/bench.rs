//! Benchmark harness: runs each kernel on both targets and checks
//! outputs against the golden reference.

use crate::kernels::{copy, div_int, fir, mat_mul, mat_mul_local, parallel_sel, vec_mul, xcorr};
use crate::layout::{
    GPU_A, GPU_B, GPU_MEMORY_WORDS, GPU_OUT, RISCV_A, RISCV_B, RISCV_MEMORY_BYTES, RISCV_OUT,
};
use ggpu_riscv::{assemble as rv_assemble, AssembleRvError, Cpu, CpuError, CpuStats};
use ggpu_simt::{Gpu, Kernel, Launch, RunStats, SimError, SimtConfig};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Which benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Kind {
    MatMul,
    /// Extension beyond the paper: LRAM-tiled mat_mul.
    MatMulLocal,
    Copy,
    VecMul,
    Fir,
    DivInt,
    Xcorr,
    ParallelSel,
}

/// One benchmark with the paper's Table III input-size protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bench {
    /// Which kernel.
    pub kind: Kind,
    /// Kernel name (Table III row label).
    pub name: &'static str,
    /// Input size the paper ran on the RISC-V.
    pub riscv_n: u32,
    /// Input size the paper ran on the G-GPU.
    pub gpu_n: u32,
}

/// The LRAM-tiled mat_mul extension kernel (not part of the paper's
/// Table III; see `ablation_local`). Grid sizes must be multiples of
/// the wavefront size, because partial wavefronts would stage only
/// part of the shared vector.
pub fn mat_mul_local() -> Bench {
    Bench {
        kind: Kind::MatMulLocal,
        name: mat_mul_local::NAME,
        riscv_n: 128,
        gpu_n: 2048,
    }
}

/// All seven benchmarks in the paper's Table III order, with the
/// paper's input sizes.
pub fn all() -> [Bench; 7] {
    [
        Bench {
            kind: Kind::MatMul,
            name: mat_mul::NAME,
            riscv_n: 128,
            gpu_n: 2048,
        },
        Bench {
            kind: Kind::Copy,
            name: copy::NAME,
            riscv_n: 512,
            gpu_n: 32768,
        },
        Bench {
            kind: Kind::VecMul,
            name: vec_mul::NAME,
            riscv_n: 1024,
            gpu_n: 65536,
        },
        Bench {
            kind: Kind::Fir,
            name: fir::NAME,
            riscv_n: 128,
            gpu_n: 4096,
        },
        Bench {
            kind: Kind::DivInt,
            name: div_int::NAME,
            riscv_n: 512,
            gpu_n: 4096,
        },
        Bench {
            kind: Kind::Xcorr,
            name: xcorr::NAME,
            riscv_n: 256,
            gpu_n: 4096,
        },
        Bench {
            kind: Kind::ParallelSel,
            name: parallel_sel::NAME,
            riscv_n: 128,
            gpu_n: 2048,
        },
    ]
}

/// Harness errors.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The SIMT kernel failed to assemble (a bug in the kernel text).
    GpuAsm(ggpu_isa::AssembleError),
    /// The SIMT kernel failed the static pre-flight verifier.
    GpuVerify(ggpu_simt::KernelVerifyError),
    /// The RISC-V program failed to assemble.
    RiscvAsm(AssembleRvError),
    /// The SIMT simulation faulted.
    Gpu(SimError),
    /// The RISC-V simulation faulted.
    Riscv(CpuError),
    /// The produced output does not match the golden reference.
    WrongOutput {
        /// Kernel name.
        kernel: &'static str,
        /// First mismatching index.
        index: usize,
        /// Expected word.
        expected: u32,
        /// Produced word.
        actual: u32,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::GpuAsm(e) => write!(f, "gpu kernel assembly: {e}"),
            BenchError::GpuVerify(e) => write!(f, "gpu kernel verification: {e}"),
            BenchError::RiscvAsm(e) => write!(f, "riscv assembly: {e}"),
            BenchError::Gpu(e) => write!(f, "gpu simulation: {e}"),
            BenchError::Riscv(e) => write!(f, "riscv simulation: {e}"),
            BenchError::WrongOutput {
                kernel,
                index,
                expected,
                actual,
            } => write!(
                f,
                "{kernel}: output[{index}] = {actual}, expected {expected}"
            ),
        }
    }
}

impl Error for BenchError {}

impl Bench {
    /// The per-kernel `extra` launch parameter (dot length, tap count
    /// or sequence length).
    pub fn extra(&self, n: u32) -> u32 {
        match self.kind {
            Kind::MatMul | Kind::MatMulLocal => mat_mul::K,
            Kind::Fir => fir::TAPS,
            Kind::Xcorr => n,
            _ => 0,
        }
    }

    /// Input buffers for a run of size `n`.
    pub fn inputs(&self, n: u32) -> (Vec<u32>, Vec<u32>) {
        match self.kind {
            Kind::MatMul => mat_mul::inputs(n),
            Kind::MatMulLocal => mat_mul_local::inputs(n),
            Kind::Copy => copy::inputs(n),
            Kind::VecMul => vec_mul::inputs(n),
            Kind::Fir => fir::inputs(n),
            Kind::DivInt => div_int::inputs(n),
            Kind::Xcorr => xcorr::inputs(n),
            Kind::ParallelSel => parallel_sel::inputs(n),
        }
    }

    /// Golden output for a run of size `n`.
    pub fn golden(&self, n: u32) -> Vec<u32> {
        let (a, b) = self.inputs(n);
        match self.kind {
            Kind::MatMul => mat_mul::golden(n, &a, &b),
            Kind::MatMulLocal => mat_mul_local::golden(n, &a, &b),
            Kind::Copy => copy::golden(n, &a, &b),
            Kind::VecMul => vec_mul::golden(n, &a, &b),
            Kind::Fir => fir::golden(n, &a, &b),
            Kind::DivInt => div_int::golden(n, &a, &b),
            Kind::Xcorr => xcorr::golden(n, &a, &b),
            Kind::ParallelSel => parallel_sel::golden(n, &a, &b),
        }
    }

    /// The G-GPU kernel source.
    pub fn gpu_asm(&self) -> &'static str {
        match self.kind {
            Kind::MatMul => mat_mul::GPU_ASM,
            Kind::MatMulLocal => mat_mul_local::GPU_ASM,
            Kind::Copy => copy::GPU_ASM,
            Kind::VecMul => vec_mul::GPU_ASM,
            Kind::Fir => fir::GPU_ASM,
            Kind::DivInt => div_int::GPU_ASM,
            Kind::Xcorr => xcorr::GPU_ASM,
            Kind::ParallelSel => parallel_sel::GPU_ASM,
        }
    }

    /// The RISC-V program source.
    pub fn riscv_asm(&self) -> &'static str {
        match self.kind {
            Kind::MatMul => mat_mul::RISCV_ASM,
            Kind::MatMulLocal => mat_mul_local::RISCV_ASM,
            Kind::Copy => copy::RISCV_ASM,
            Kind::VecMul => vec_mul::RISCV_ASM,
            Kind::Fir => fir::RISCV_ASM,
            Kind::DivInt => div_int::RISCV_ASM,
            Kind::Xcorr => xcorr::RISCV_ASM,
            Kind::ParallelSel => parallel_sel::RISCV_ASM,
        }
    }

    fn check_output(&self, golden: &[u32], out: &[u32]) -> Result<(), BenchError> {
        for (i, (&e, &a)) in golden.iter().zip(out).enumerate() {
            if e != a {
                return Err(BenchError::WrongOutput {
                    kernel: self.name,
                    index: i,
                    expected: e,
                    actual: a,
                });
            }
        }
        Ok(())
    }

    /// Runs the kernel on the SIMT simulator with `cus` compute units
    /// and verifies the output against the golden reference.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] on simulation faults or output
    /// mismatches.
    pub fn run_gpu(&self, n: u32, cus: u32) -> Result<RunStats, BenchError> {
        self.run_gpu_with(n, SimtConfig::with_cus(cus))
    }

    /// Runs the kernel on a machine with an explicit [`SimtConfig`] —
    /// for architecture-sensitivity studies (cache size, AXI width,
    /// divider behaviour) beyond the paper's fixed configuration, or on
    /// the scalar oracle backend ([`ggpu_simt::AccelBackend::Scalar`]).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] on simulation faults or output
    /// mismatches.
    pub fn run_gpu_with(&self, n: u32, config: SimtConfig) -> Result<RunStats, BenchError> {
        if self.kind == Kind::MatMulLocal && !n.is_multiple_of(64) {
            return Err(BenchError::Gpu(SimError::BadLaunch(
                "mat_mul_local requires full wavefronts (n % 64 == 0)".into(),
            )));
        }
        let (a, b) = self.inputs(n);
        let mut gpu = Gpu::new(config, GPU_MEMORY_WORDS);
        gpu.write_words(GPU_A, &a).map_err(BenchError::Gpu)?;
        if !b.is_empty() {
            gpu.write_words(GPU_B, &b).map_err(BenchError::Gpu)?;
        }
        let kernel =
            Kernel::from_asm_verified(self.name, self.gpu_asm()).map_err(BenchError::GpuVerify)?;
        let wg = n.min(256);
        let launch = Launch::new(n, wg, vec![n, GPU_A, GPU_B, GPU_OUT, self.extra(n)]);
        let stats = gpu.launch(&kernel, &launch).map_err(BenchError::Gpu)?;
        let golden = self.golden(n);
        let out = gpu
            .read_words(GPU_OUT, golden.len())
            .map_err(BenchError::Gpu)?;
        self.check_output(&golden, &out)?;
        Ok(stats)
    }

    /// Runs the kernel on the RISC-V simulator and verifies the output
    /// against the golden reference.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] on simulation faults or output
    /// mismatches.
    pub fn run_riscv(&self, n: u32) -> Result<CpuStats, BenchError> {
        let (a, b) = self.inputs(n);
        let program = rv_assemble(self.riscv_asm()).map_err(BenchError::RiscvAsm)?;
        let mut cpu = Cpu::new(&program, RISCV_MEMORY_BYTES);
        cpu.write_words(RISCV_A, &a).map_err(BenchError::Riscv)?;
        if !b.is_empty() {
            cpu.write_words(RISCV_B, &b).map_err(BenchError::Riscv)?;
        }
        cpu.set_reg(10, n); // a0
        cpu.set_reg(11, RISCV_A); // a1
        cpu.set_reg(12, RISCV_B); // a2
        cpu.set_reg(13, RISCV_OUT); // a3
        cpu.set_reg(14, self.extra(n)); // a4
        let stats = cpu.run().map_err(BenchError::Riscv)?;
        let golden = self.golden(n);
        let out = cpu
            .read_words(RISCV_OUT, golden.len())
            .map_err(BenchError::Riscv)?;
        self.check_output(&golden, &out)?;
        Ok(stats)
    }
}

/// Number of worker threads for a suite of `jobs` kernels: the
/// workspace's one `GGPU_THREADS` rule ([`ggpu_simt::configured_threads`])
/// clamped to the job count. The same knob governs the planner's
/// parallel sweep and the fault campaigns.
pub fn suite_threads(jobs: usize) -> usize {
    ggpu_simt::configured_threads().min(jobs.max(1))
}

/// Runs every benchmark at size `n` on `cus` compute units, verifying
/// each against its golden reference, and returns `(name, stats)` in
/// input order.
///
/// Each simulation owns its GPU instance, so the kernels run
/// concurrently on [`suite_threads`] scoped worker threads (override
/// with the `GGPU_THREADS` environment variable; `GGPU_THREADS=1`
/// forces a sequential sweep with identical results).
///
/// # Errors
///
/// Returns the first [`BenchError`] in input order if any kernel
/// faults or miscomputes.
pub fn run_gpu_suite(
    benches: &[Bench],
    n: u32,
    cus: u32,
) -> Result<Vec<(&'static str, RunStats)>, BenchError> {
    run_gpu_suite_with_threads(benches, n, cus, suite_threads(benches.len()))
}

/// [`run_gpu_suite`] on an explicit number of worker threads (`1`
/// forces the sequential reference behavior).
///
/// # Errors
///
/// Returns the first [`BenchError`] in input order if any kernel
/// faults or miscomputes.
pub fn run_gpu_suite_with_threads(
    benches: &[Bench],
    n: u32,
    cus: u32,
    threads: usize,
) -> Result<Vec<(&'static str, RunStats)>, BenchError> {
    let jobs = benches.len();
    let mut outcomes: Vec<(usize, Result<RunStats, BenchError>)> = if threads <= 1 || jobs <= 1 {
        benches
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.run_gpu(n, cus)))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(jobs));
        thread::scope(|scope| {
            for _ in 0..threads.min(jobs) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let out = benches[i].run_gpu(n, cus);
                    results
                        .lock()
                        .expect("suite worker poisoned")
                        .push((i, out));
                });
            }
        });
        results.into_inner().expect("suite worker poisoned")
    };
    outcomes.sort_by_key(|(i, _)| *i);
    outcomes
        .into_iter()
        .map(|(i, out)| out.map(|stats| (benches[i].name, stats)))
        .collect()
}

/// Computes the paper's pessimistic speed-up: RISC-V cycles scaled by
/// the input-size ratio, divided by the G-GPU cycles.
pub fn scaled_speedup(riscv_cycles: u64, riscv_n: u32, gpu_cycles: u64, gpu_n: u32) -> f64 {
    let scale = f64::from(gpu_n) / f64::from(riscv_n);
    (riscv_cycles as f64) * scale / (gpu_cycles as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Functional verification runs at reduced sizes so `cargo test`
    // stays fast; the paper-size runs live in the bench harness.
    const TEST_N: u32 = 96;

    #[test]
    fn every_kernel_is_correct_on_both_targets() {
        for bench in all() {
            bench
                .run_gpu(TEST_N, 2)
                .unwrap_or_else(|e| panic!("{} on gpu: {e}", bench.name));
            bench
                .run_riscv(TEST_N)
                .unwrap_or_else(|e| panic!("{} on riscv: {e}", bench.name));
        }
    }

    #[test]
    fn table_sizes_match_the_paper() {
        let benches = all();
        let sizes: Vec<(u32, u32)> = benches.iter().map(|b| (b.riscv_n, b.gpu_n)).collect();
        assert_eq!(
            sizes,
            vec![
                (128, 2048),
                (512, 32768),
                (1024, 65536),
                (128, 4096),
                (512, 4096),
                (256, 4096),
                (128, 2048),
            ]
        );
    }

    #[test]
    fn parallel_kernels_scale_with_cus() {
        let bench = all()[1]; // copy
        let c1 = bench.run_gpu(2048, 1).unwrap().cycles;
        let c4 = bench.run_gpu(2048, 4).unwrap().cycles;
        assert!(c4 < c1, "copy: 1CU {c1} vs 4CU {c4}");
    }

    #[test]
    fn div_int_speedup_is_small() {
        let bench = all()[4];
        let gpu = bench.run_gpu(512, 1).unwrap();
        let rv = bench.run_riscv(512).unwrap();
        let speedup = scaled_speedup(rv.cycles, 512, gpu.cycles, 512);
        assert!(
            speedup < 6.0,
            "div_int must be a weak spot for the G-GPU, got {speedup:.1}x"
        );
    }

    #[test]
    fn copy_speedup_is_large() {
        let bench = all()[1];
        let gpu = bench.run_gpu(4096, 8).unwrap();
        let rv = bench.run_riscv(512).unwrap();
        let speedup = scaled_speedup(rv.cycles, 512, gpu.cycles, 4096);
        assert!(
            speedup > 8.0,
            "copy on 8 CUs must be far faster, got {speedup:.1}x"
        );
    }

    #[test]
    fn scaled_speedup_math() {
        assert!((scaled_speedup(100, 10, 50, 100) - 20.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod local_variant_tests {
    use super::*;

    #[test]
    fn lram_tiled_mat_mul_is_correct_and_relieves_the_cache() {
        let global = all()[0];
        let local = mat_mul_local();
        // Correctness is checked inside run_gpu against the shared
        // golden reference.
        let g = global.run_gpu(1024, 2).unwrap();
        let l = local.run_gpu(1024, 2).unwrap();
        // The tiled variant removes all b-vector traffic from the
        // shared cache...
        assert!(
            l.mem.accesses < g.mem.accesses * 9 / 10,
            "cache traffic must drop: {} vs {}",
            l.mem.accesses,
            g.mem.accesses
        );
        // ...but the kernel is issue-bound, so cycles stay within a
        // few percent (an honest negative result: the b vector was
        // cache-resident anyway; see `ablation_local`).
        let ratio = l.cycles as f64 / g.cycles as f64;
        assert!(
            (0.9..=1.06).contains(&ratio),
            "cycles ratio {ratio:.3} ({} vs {})",
            l.cycles,
            g.cycles
        );
    }

    #[test]
    fn partial_wavefront_grids_are_rejected_for_the_local_variant() {
        let err = mat_mul_local().run_gpu(100, 1).unwrap_err();
        assert!(matches!(err, BenchError::Gpu(SimError::BadLaunch(_))));
    }
}

#[cfg(test)]
mod sensitivity_tests {
    use super::*;
    use ggpu_simt::CacheConfig;

    #[test]
    fn bigger_cache_helps_when_the_working_set_outgrows_it() {
        // xcorr re-reads both full sequences for every lag (n-fold
        // reuse). At n = 1024 the 8 KiB working set fits the stock
        // 32 KiB cache but thrashes a 4 KiB one.
        let bench = all()[5];
        let n = 1024;
        let mut small_cfg = SimtConfig::with_cus(2);
        small_cfg.cache = CacheConfig {
            size_kib: 4,
            ..small_cfg.cache
        };
        let small = bench.run_gpu_with(n, small_cfg).unwrap();
        let big = bench.run_gpu_with(n, SimtConfig::with_cus(2)).unwrap();
        assert!(
            big.mem.miss_ratio() < small.mem.miss_ratio() * 0.8,
            "misses: {:.3} -> {:.3}",
            small.mem.miss_ratio(),
            big.mem.miss_ratio()
        );
        assert!(big.cycles <= small.cycles);
    }

    #[test]
    fn narrower_axi_slows_the_streaming_kernel() {
        let bench = all()[1]; // copy
        let n = 8192;
        let wide = bench.run_gpu(n, 4).unwrap();
        let mut narrow_cfg = SimtConfig::with_cus(4);
        narrow_cfg.dram.bytes_per_cycle = 1;
        let narrow = bench.run_gpu_with(n, narrow_cfg).unwrap();
        assert!(
            narrow.cycles > wide.cycles * 3 / 2,
            "1 B/cycle AXI must hurt copy: {} vs {}",
            narrow.cycles,
            wide.cycles
        );
    }

    #[test]
    fn streaming_cycles_scale_linearly_with_n() {
        let bench = all()[2]; // vec_mul
        let c1 = bench.run_gpu(2048, 2).unwrap().cycles;
        let c4 = bench.run_gpu(8192, 2).unwrap().cycles;
        let ratio = c4 as f64 / c1 as f64;
        assert!(
            (3.0..5.5).contains(&ratio),
            "4x the data should take ~4x the cycles, got {ratio:.2}"
        );
    }
}
