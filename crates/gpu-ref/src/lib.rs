#![forbid(unsafe_code)]
//! # mffv-gpu-ref
//!
//! The reference implementation the paper compares against (§IV): a matrix-free FV
//! kernel written in the CUDA style — a 3-D grid of 16×8×8 thread blocks, one thread
//! per cell, each thread fetching its own cell data and its six neighbours and
//! accumulating the interfacial contributions — driven by a host-side CG loop.
//!
//! CUDA and the NVIDIA GPUs themselves are not available from Rust in this
//! environment, so (per `DESIGN.md` §2) the *execution* substrate is the host CPU:
//! the block/thread decomposition is preserved exactly and blocks are executed in
//! parallel with `std::thread`, which keeps the kernel structure, memory-access
//! pattern and numerics of the CUDA reference while remaining runnable anywhere.
//! The *device time* of the real GPUs is modelled separately in [`device_model`]
//! from the rooflines the paper publishes for the A100/H100 (memory-bound kernel,
//! ≈78 % of the bandwidth ceiling).
//!
//! * [`backend`] — [`GpuRefBackend`], the one solve entry point: the host-side
//!   CG loop over the device kernel, with host ↔ device transfer counts;
//! * [`kernel`] — the per-thread device function and its block-parallel launch;
//! * [`launch`] — the 16×8×8 block/grid configuration;
//! * [`device_model`] — modelled A100/H100 device time.

pub mod backend;
pub mod device_model;
pub mod kernel;
pub mod launch;

pub use backend::GpuRefBackend;
pub use device_model::{GpuSpec, GpuTimeModel};
pub use kernel::GpuMatrixFreeOperator;
pub use launch::{BlockDims, LaunchConfig};

/// Convenient glob import.
pub mod prelude {
    pub use crate::backend::GpuRefBackend;
    pub use crate::device_model::{GpuSpec, GpuTimeModel};
    pub use crate::kernel::GpuMatrixFreeOperator;
    pub use crate::launch::{BlockDims, LaunchConfig};
}
