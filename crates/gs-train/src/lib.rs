//! Training systems for 3D Gaussian Splatting: the GPU-only baseline, the
//! naive host-offloading baseline, and GS-Scale with its three system-level
//! optimizations (selective offloading, parameter forwarding, deferred
//! optimizer updates) plus balance-aware image splitting.
//!
//! A system is a [`SystemKind`]. All four run *one training step*
//! ([`OffloadTrainer`], built for a system by [`OffloadTrainer::new`]) over
//! the same functional pipeline (the `gs-render` renderer and `gs-optim`
//! optimizers), so trained parameters are identical across systems — the
//! property behind Table 3 of the paper. Only the deferred update changes
//! what the host executes. Otherwise systems differ in *where* data lives
//! and *when* work runs. So the step records what it did (a
//! [`StepRecord`]), and one model per system, in [`memory_model`], charges
//! the record and schedules it:
//!
//! * per-device [`gs_platform::MemoryPool`]s (peak GPU memory, OOM behaviour),
//! * a per-iteration [`gs_platform::TimelineSim`] built from roofline kernel
//!   costs and PCIe transfer times (training throughput, time breakdowns,
//!   execution timelines).
//!
//! The trainer runs its system's model on every step; [`replay`] runs any
//! system's model over a recorded GS-Scale run, so one training run gives
//! every system's statistics.
//!
//! Modules:
//!
//! * [`config`] — training hyper-parameters (3DGS recipe).
//! * [`densify`] — adaptive density control (clone / split / prune).
//! * [`splitting`] — balance-aware image splitting (Section 4.4).
//! * [`memory_model`] — the step record, what each system charges to GPU
//!   and host memory and schedules on the timeline for it, and the
//!   paper-scale estimate that evaluates the same charges.
//! * [`stats`] — per-iteration and per-run statistics.
//! * [`offload`] — the training step of every system: the host-offloading
//!   systems (the baseline, and GS-Scale with and without the deferred
//!   update) and GPU-only, and which of their mechanisms are bit-exact.
//! * [`gpu_only`] — the GPU-only reference system, and its constructor
//!   under the name the benchmark still calls.
//! * [`driver`] — the training loop, evaluation, epoch timing, and the
//!   replay of a recorded run under every system.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod densify;
pub mod driver;
pub mod gpu_only;
pub mod memory_model;
pub mod offload;
pub mod splitting;
pub mod stats;

pub use config::TrainConfig;
pub use driver::{evaluate, replay, train, TrainOutcome};
pub use gpu_only::GpuOnlyTrainer;
pub use memory_model::{estimate_gpu_memory, MemoryEstimate, StepRecord, SystemKind};
pub use offload::{OffloadOptions, OffloadTrainer};
pub use stats::{IterationStats, RunStats};

use gs_core::camera::Camera;
use gs_core::error::Result;
use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;

/// Common interface implemented by every training system.
pub trait Trainer {
    /// Human-readable system name (e.g. `"GPU-Only"`, `"GS-Scale"`).
    fn name(&self) -> &str;

    /// The current parameters.
    ///
    /// For systems with deferred optimizer state, call [`Trainer::flush`]
    /// first to make every stored value current.
    fn params(&self) -> &GaussianParams;

    /// Number of Gaussians currently being trained.
    fn num_gaussians(&self) -> usize {
        self.params().len()
    }

    /// Runs one training iteration on a single view.
    ///
    /// # Errors
    ///
    /// Returns an out-of-memory error if the system's GPU memory pool cannot
    /// hold the working set (this is how the GPU-only baseline fails on large
    /// scenes).
    fn step(&mut self, cam: &Camera, target: &Image) -> Result<IterationStats>;

    /// Makes all stored parameters current (restores deferred optimizer
    /// state). A no-op for systems without deferred updates.
    fn flush(&mut self);

    /// Runs adaptive density control if the trainer's schedule calls for it
    /// at the current iteration. Returns the number of Gaussians added
    /// (clones + splits) and removed (pruned).
    ///
    /// # Errors
    ///
    /// Returns an out-of-memory error if the grown model no longer fits.
    fn densify_if_due(&mut self) -> Result<(usize, usize)>;

    /// Peak GPU memory observed so far, in bytes.
    fn peak_gpu_memory(&self) -> u64;

    /// Peak GPU memory breakdown by category.
    fn peak_gpu_breakdown(&self) -> Vec<(gs_platform::MemoryCategory, u64)>;
}
