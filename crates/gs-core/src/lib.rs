//! Core data structures and math for the GS-Scale 3D Gaussian Splatting
//! reproduction.
//!
//! This crate contains everything that the rest of the workspace builds on:
//!
//! * [`math`] — small fixed-size linear algebra (vectors, quaternions,
//!   matrices) tailored to the 3DGS pipeline.
//! * [`sh`] — real spherical harmonics up to degree 3 with analytic
//!   gradients, used for view-dependent color.
//! * [`gaussian`] — the structure-of-arrays parameter store holding the 59
//!   per-Gaussian parameters (mean, scale, quaternion, opacity, SH), the
//!   geometric/non-geometric split that GS-Scale's *selective offloading*
//!   relies on, and sparse gradient containers.
//! * [`camera`] — pinhole cameras with world-to-camera transforms and the
//!   projection quantities needed for frustum culling.
//! * [`image`] — a minimal RGB float image container.
//! * [`scene`] — point clouds and scene initialization from SfM-like inputs.
//! * [`rng`] — the deterministic workspace RNG ([`Rng64`]) plus a seeded
//!   [`Zipf`] sampler for power-law scene popularity.
//! * [`error`] — the crate-wide error type.
//!
//! # Example
//!
//! ```
//! use gs_core::gaussian::GaussianParams;
//! use gs_core::math::Vec3;
//!
//! let mut params = GaussianParams::with_capacity(2);
//! params.push_isotropic(Vec3::new(0.0, 0.0, 1.0), 0.1, [0.5, 0.2, 0.2], 0.8);
//! params.push_isotropic(Vec3::new(1.0, 0.0, 2.0), 0.2, [0.1, 0.6, 0.1], 0.5);
//! assert_eq!(params.len(), 2);
//! assert_eq!(GaussianParams::PARAMS_PER_GAUSSIAN, 59);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod camera;
pub mod error;
pub mod gaussian;
pub mod image;
pub mod math;
pub mod rng;
pub mod scene;
pub mod sh;

pub use camera::Camera;
pub use error::{Error, Result};
pub use gaussian::{GaussianGrads, GaussianParams};
pub use image::Image;
pub use math::{Mat3, Quat, Vec2, Vec3, Vec4};
pub use rng::{Rng64, Zipf};
pub use scene::PointCloud;
