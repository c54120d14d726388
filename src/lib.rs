//! GS-Scale: a Rust reproduction of *"GS-Scale: Unlocking Large-Scale 3D
//! Gaussian Splatting Training via Host Offloading"* (ASPLOS 2026).
//!
//! This facade crate re-exports the workspace crates so applications can use
//! a single dependency:
//!
//! * [`core`] (`gs-core`) — Gaussian parameters, cameras, images, math.
//! * [`render`] (`gs-render`) — the differentiable software 3DGS renderer.
//! * [`optim`] (`gs-optim`) — Adam and deferred Adam optimizers.
//! * [`platform`] (`gs-platform`) — hardware specs, memory pools, PCIe
//!   transfer and execution-timeline models.
//! * [`scene`] (`gs-scene`) — synthetic large-scene datasets.
//! * [`metrics`] (`gs-metrics`) — PSNR / SSIM / perceptual proxy.
//! * [`train`] (`gs-train`) — the GPU-only, baseline-offloading and GS-Scale
//!   trainers.
//! * [`serve`] (`gs-serve`) — the concurrent multi-scene rendering service
//!   (a bounded FIFO queue with same-scene batching, an LRU frame cache,
//!   memory-aware admission control, scene sharding with
//!   depth-ordered layer compositing, per-request deadlines and
//!   cancellation) plus its std-only HTTP/1.1 front-end for external load
//!   generators.
//! * [`trace`] (`gs-trace`) — workload capture (the `GSTR` binary trace
//!   format and the recorder the serving front-ends feed), seeded synthetic
//!   workload generators (Zipf popularity, diurnal curves, flash crowds,
//!   camera tours).
//! * [`obs`] (`gs-obs`) — observability primitives: request span trees
//!   with cross-node stitching, a bounded span ring sink, Chrome
//!   trace-event export, and a metrics registry with
//!   Prometheus text exposition (plus the linter CI runs against it).
//! * [`cluster`] (`gs-cluster`) — the multi-replica serving tier: a
//!   coordinator that places scenes (and cross-node shards) against each
//!   replica's memory budget, routes renders with health-checked failover
//!   and a background health prober, short-circuits repeats through a
//!   coordinator-side frame cache, composites wire-shipped frame layers
//!   bit-identically to a single node, and aggregates cluster-wide stats.
//!
//! # Quickstart
//!
//! ```
//! use gs_scale::core::gaussian::GaussianParams;
//! use gs_scale::core::math::Vec3;
//!
//! let mut params = GaussianParams::new();
//! params.push_isotropic(Vec3::new(0.0, 0.0, 1.0), 0.2, [0.8, 0.3, 0.2], 0.9);
//! assert_eq!(params.len(), 1);
//! ```
//!
//! See the `examples/` directory for end-to-end training runs and the
//! `crates/gs-bench` binaries for the scripts that regenerate every table
//! and figure of the paper.

#![deny(missing_docs)]

pub use gs_cluster as cluster;
pub use gs_core as core;
pub use gs_metrics as metrics;
pub use gs_obs as obs;
pub use gs_optim as optim;
pub use gs_platform as platform;
pub use gs_render as render;
pub use gs_scene as scene;
pub use gs_serve as serve;
pub use gs_trace as trace;
pub use gs_train as train;
