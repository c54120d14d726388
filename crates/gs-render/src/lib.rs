//! Software 3D Gaussian Splatting renderer with analytic gradients.
//!
//! This crate is the substrate the GS-Scale training system runs on. It
//! reimplements, in portable Rust, the parts of gsplat's CUDA pipeline that
//! the paper's host-offloading design depends on:
//!
//! * [`culling`] — frustum culling over geometric parameters only, the
//!   operation GS-Scale moves back onto the GPU via *selective offloading*.
//! * [`projection`] — EWA projection of 3D Gaussians to 2D splats
//!   (mean, conic, radius, color from spherical harmonics, opacity) and its
//!   analytic backward pass.
//! * [`tiles`] — tile binning and per-tile depth sorting.
//! * [`rasterize`] — front-to-back alpha blending and its backward pass.
//! * [`pipeline`] — the end-to-end differentiable render used by training,
//!   producing *sparse* gradients (only the Gaussians that actually
//!   contributed), which is the workload property GS-Scale exploits.
//! * [`loss`] — L1 / MSE photometric losses with gradients.
//! * [`cost`] — arithmetic and memory-traffic estimates per kernel, consumed
//!   by the platform timing model.
//!
//! The renderer is deterministic by design so that gradient checks and
//! cross-trainer equivalence tests are exact, and it has one path per job:
//! one projector ([`projection::project_splats`]), one blend kernel behind
//! one band worker ([`rasterize::rasterize_layer`], which can fan tile rows
//! out across threads), and a forward pass that *is* a fresh layer plus the
//! background ([`rasterize::rasterize_forward`]) — so the training render
//! and the serving render produce the same bytes by construction. The
//! seed's scalar blend loops are kept as in-tree oracles
//! ([`rasterize::rasterize_forward_reference`],
//! [`rasterize::rasterize_layer_reference`]).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod culling;
pub mod loss;
pub mod pipeline;
pub mod projection;
pub mod rasterize;
pub mod tiles;

pub use culling::{frustum_cull, CullResult};
pub use pipeline::{
    render, render_backward, render_layer, RenderOutput, RenderStats, RenderTimings,
};
pub use projection::{project_splats, projection_backward, Splat, SplatGrad};
pub use rasterize::{
    rasterize_backward, rasterize_forward, rasterize_forward_reference, rasterize_layer,
    rasterize_layer_reference, FrameLayer, RasterAux,
};
