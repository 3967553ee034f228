//! Logic-synthesis model and the GPUPlanner netlist transforms.
//!
//! [`synthesize`] produces a [`SynthesisReport`] — one row of the
//! paper's Table I (area, cell/macro counts, leakage, dynamic power,
//! timing closure). [`divide_macro`] and [`insert_pipeline`] are the
//! two optimizations GPUPlanner applies while exploring the design
//! space: memory division when the critical path starts at a memory
//! block, pipeline insertion otherwise. [`bank_macro`] is the third
//! transform: word-interleaved banking that trades a little crossbar
//! area for conflict-free concurrent lane access. All are unified
//! behind the [`Transform`] trait ([`DivideMemory`], [`BankMemory`],
//! [`PipelineInsert`]), whose [`Undo`] records let the planner's
//! transaction journal apply, measure and revert candidates in
//! O(touched modules).
//!
//! # Example
//!
//! ```
//! use ggpu_rtl::{generate, GgpuConfig};
//! use ggpu_synth::synthesize;
//! use ggpu_tech::units::Mhz;
//! use ggpu_tech::Tech;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GgpuConfig::with_cus(1)?)?;
//! let report = synthesize(&design, &Tech::l65(), Mhz::new(500.0))?;
//! assert!(report.meets_timing); // the baseline closes at 500 MHz
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod report;
pub mod synthesis;
pub mod transform;

pub use report::SynthesisReport;
pub use synthesis::{synthesize, SynthesisError};
pub use transform::{
    bank_macro, divide_macro, insert_pipeline, revert, BankMemory, BankOutcome, DivideAxis,
    DivideMemory, DivideOutcome, PipelineInsert, Transform, TransformError, Undo,
    PIPELINE_WIDTH_BITS,
};
