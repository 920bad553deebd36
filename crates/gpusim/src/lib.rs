//! # ii-gpusim — software SIMT simulator (the GPU substitute)
//!
//! The paper runs its GPU indexer on two NVIDIA Tesla C1060s. This
//! environment has no GPU, so `ii-gpusim` provides the substrate the CUDA
//! kernel is written against: device memory with a bump allocator and
//! PCIe-transfer accounting, 32-lane warps executing warp-wide primitives
//! in lockstep, 16-bank shared memory with bank-conflict serialization,
//! a global-memory coalescing model (64-byte segments), parallel reduction,
//! and a grid scheduler reproducing the paper's dynamic round-robin
//! assignment of trie collections to thread blocks.
//!
//! Cost is counted in *device cycles* from the C1060's published
//! parameters, so the simulated GPU's speed is independent of the host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod device;
pub mod grid;
pub mod metrics;

pub use block::{BlockCtx, WARP};
pub use device::{DevPtr, DeviceMemory, GpuConfig};
pub use grid::{launch_dynamic, LaunchReport, ITEM_OVERHEAD_CYCLES};
pub use metrics::Metrics;
