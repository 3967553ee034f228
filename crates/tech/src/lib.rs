//! Synthetic 65 nm-class technology substrate for the G-GPU
//! reproduction.
//!
//! The paper's GPUPlanner flow targets a commercial 65 nm CMOS process:
//! a standard-cell library, an SRAM memory compiler (16–65536 words,
//! 2–144 bits, single/dual port) and a nine-layer metal stack with
//! M1/M8/M9 reserved for power. None of those artifacts can be
//! redistributed, so this crate provides calibrated parametric models
//! that preserve the *relationships* the design-space exploration
//! depends on — memory access time vs. size, division cost, buffered
//! wire delay — as argued in `DESIGN.md`.
//!
//! # Example
//!
//! ```
//! use ggpu_tech::Tech;
//! use ggpu_tech::sram::SramConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Tech::l65();
//! let macro_ = tech.memory_compiler.compile(SramConfig::dual(2048, 32))?;
//! println!("access time: {:.3}", macro_.access_time);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod corner;
pub mod metal;
pub mod sram;
pub mod stdcell;
pub mod units;
pub mod wireload;

pub use corner::Corner;

/// Worker-thread count for the workspace's parallel fan-outs (kernel
/// suites, fault campaigns, DSE sweeps): `GGPU_THREADS` if set to a
/// positive integer, otherwise the host parallelism. Callers clamp it
/// to their job count.
pub fn configured_threads() -> usize {
    std::env::var("GGPU_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

use metal::MetalStack;
use sram::MemoryCompiler;
use stdcell::StdCellLibrary;
use wireload::WireLoadModel;

/// Bundle of all technology views needed by the flow.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Tech {
    /// The standard-cell library.
    pub library: StdCellLibrary,
    /// The SRAM memory compiler.
    pub memory_compiler: MemoryCompiler,
    /// The metal stack.
    pub metal_stack: MetalStack,
    /// Pre-layout wire-load model.
    pub wire_load: WireLoadModel,
}

impl Tech {
    /// The synthetic 65 nm low-power technology used throughout the
    /// reproduction.
    pub fn l65() -> Self {
        Self {
            library: StdCellLibrary::l65lp(),
            memory_compiler: MemoryCompiler::l65lp(),
            metal_stack: MetalStack::l65(),
            wire_load: WireLoadModel::l65(),
        }
    }

    /// A 64-bit structural fingerprint of the full technology bundle.
    ///
    /// Two technologies fingerprint equal iff every model constant's
    /// bit pattern agrees. Deterministic across processes (the hasher
    /// is keyed with fixed constants), so fingerprints are safe to use
    /// as content-addressed cache keys and to persist in benchmark
    /// artifacts.
    pub fn structural_fingerprint(&self) -> u64 {
        use std::hash::{Hash as _, Hasher as _};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl Default for Tech {
    fn default() -> Self {
        Self::l65()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_is_consistent() {
        let tech = Tech::l65();
        assert_eq!(tech.library.name(), "l65lp");
        assert_eq!(tech.metal_stack.len(), 9);
    }
}
