//! Hardware platform model: device specifications, memory pools, PCIe
//! transfers, a roofline kernel-cost model, and a multi-stream execution
//! timeline simulator.
//!
//! The paper evaluates GS-Scale on a laptop (RTX 4070 Mobile), a desktop
//! (RTX 4080 Super) and a server (H100 PCIe). None of that hardware is
//! available to this reproduction, so the trainers in `gs-train` run the
//! *functional* pipeline on the host CPU and charge every kernel, transfer
//! and optimizer update to an analytical model of the target platform:
//!
//! * [`specs`] — Table 1 of the paper as data, plus the extra desktop GPUs
//!   used in the sensitivity study (RTX 4070 Super, RTX 4090).
//! * [`memory`] — capacity-checked memory pools with per-category accounting
//!   and peak tracking (parameters / gradients / optimizer state /
//!   activations), which reproduces the memory breakdowns and the OOM
//!   behaviour of the GPU-only baseline.
//! * [`transfer`] — PCIe transfer timing with the 32 MB chunking GS-Scale
//!   uses to overlap optimizer updates with host-to-device copies.
//! * [`roofline`] — converts a kernel's FLOP count and memory traffic into a
//!   duration on a given device (`time = max(compute, memory) + launch`).
//! * [`timeline`] — an event-graph simulator with one queue per hardware
//!   stream (GPU compute, CPU compute, H2D, D2H) that respects dependencies
//!   and exposes per-stream busy time and per-label breakdowns; this is
//!   what produces the execution timelines of Figure 9 and the throughput
//!   numbers of Figures 11/14/15/16.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod memory;
pub mod roofline;
pub mod specs;
pub mod timeline;
pub mod transfer;

pub use memory::{MemoryCategory, MemoryPool};
pub use roofline::{kernel_time, Work};
pub use specs::{DeviceSpec, PlatformSpec};
pub use timeline::{EventId, Stream, TimelineSim};
pub use transfer::TransferModel;
