// Panic audit (robustness subsystem): non-test library code must not
// use `unwrap`/`expect` — every fallible path surfaces a typed
// `SimError`. Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Cycle-level performance simulator of the G-GPU's SIMT execution.
//!
//! [`Gpu::launch`] runs an assembled [`Kernel`] over a work-item grid
//! and returns cycle-accurate-class [`RunStats`]: CU issue beats,
//! wavefront scheduling, multi-PC divergence, a shared banked
//! direct-mapped write-back cache and AXI bandwidth contention. This
//! is the substrate for the paper's Table III / Fig. 5 / Fig. 6
//! benchmark comparison.
//!
//! # Example
//!
//! ```
//! use ggpu_simt::{Gpu, Kernel, Launch, SimtConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut gpu = Gpu::new(SimtConfig::with_cus(2), 1 << 16);
//! gpu.write_words(0x100, &[41])?;
//! let kernel = Kernel::from_asm(
//!     "incr",
//!     "param r1, 0\nlw r2, r1, 0\naddi r2, r2, 1\nsw r1, r2, 4\nret",
//! )?;
//! let stats = gpu.launch(&kernel, &Launch::new(1, 1, vec![0x100]))?;
//! assert_eq!(gpu.read_words(0x104, 1)?[0], 42);
//! assert!(stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod config;
mod engine;
pub mod fault;
mod global;
pub mod gpu;
pub mod memsys;
mod soa;
pub mod trace;

pub use config::{AccelBackend, CacheConfig, DramConfig, LramModel, SimtConfig};
pub use fault::{
    FaultEvent, FaultLog, FaultPlan, FaultReport, FaultSite, HardenedOptions, HardenedRun,
    Injection, InjectionOutcome, Protection, WatchdogConfig,
};
pub use gpu::{Gpu, Kernel, KernelVerifyError, Launch, RunStats, SimError, LOCAL_WORDS};
// The workspace's `GGPU_THREADS` rule, passed through for
// `ggpu-kernels`, which reaches `ggpu-tech` only via this crate.
pub use ggpu_lint::configured_threads;
pub use memsys::MemStats;
pub use trace::{ExecTrace, InstTrace};
