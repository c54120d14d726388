//! Optimizers for 3D Gaussian Splatting training, including the paper's
//! *deferred optimizer update*.
//!
//! * [`config`] — per-parameter-group learning rates (the 3DGS recipe uses a
//!   different learning rate for means, scales, rotations, opacities and SH
//!   coefficients) and the exponential decay schedule applied to the mean
//!   learning rate.
//! * [`adam`] — the exact dense Adam reference (updates every Gaussian every
//!   step, as PyTorch does), plus a *sparse* Adam variant that only touches
//!   Gaussians with non-zero gradients (not mathematically equivalent; kept
//!   as an ablation baseline).
//! * [`sgd`] — SGD with momentum, demonstrating that the deferred-update
//!   idea applies to any momentum-based optimizer.
//! * [`deferred`] — the paper's deferred Adam (Section 4.3): zero-gradient
//!   Gaussians are skipped, and a 4-bit counter says how many steps to
//!   replay when they next receive a gradient or when the counter
//!   saturates. The replay runs dense Adam's own element update, so the
//!   restored weights, momentum and variance are bit-identical to it.
//! * [`stats`] — per-step memory-traffic accounting consumed by the platform
//!   timing model (the deferred update's benefit is precisely this traffic
//!   reduction).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adam;
pub mod config;
pub mod deferred;
pub mod sgd;
mod slots;
pub mod stats;

pub use adam::{DenseAdam, SparseAdam};
pub use config::{AdamConfig, ExponentialLr, GroupLrs};
pub use deferred::DeferredAdam;
pub use sgd::SgdMomentum;
pub use stats::StepStats;
