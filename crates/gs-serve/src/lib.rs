//! `gs-serve`: a concurrent multi-scene rendering service for trained 3DGS
//! scenes.
//!
//! The training side of this workspace reproduces GS-Scale's host-offloading
//! pipeline; this crate is the serving side: a long-running, thread-pool
//! based service that holds many trained scenes resident under a memory
//! budget and answers [`RenderRequest`]s with rendered [`gs_core::Image`]s.
//!
//! Architecture (all `std`, no async runtime):
//!
//! * [`queue`] — a bounded blocking MPMC FIFO job queue; producers get
//!   backpressure, workers pop the head job and drain its scene's other
//!   queued jobs into the same batch.
//! * [`registry`] — the scene registry with **memory-aware admission
//!   control**: scenes are charged against a [`gs_platform::MemoryPool`]
//!   sized from a [`gs_platform::PlatformSpec`], least-recently-used scenes
//!   are evicted to admit new loads, oversized loads are rejected.
//! * [`shard`] — **scene sharding**: spatial partitioning by recursive
//!   axis-median splits so a scene larger than the whole memory budget
//!   serves shard-at-a-time, each shard admitted and LRU-evicted
//!   independently, with per-request front-to-back layer compositing
//!   (bit-identical to the unsharded render for depth-disjoint shards).
//! * [`batch`] — **same-scene request batching**: one frustum cull per view,
//!   one shared gather for the batch's union, bit-identical output to
//!   unbatched rendering.
//! * [`cache`] — a byte-budgeted LRU **frame cache** keyed by (scene,
//!   quantized camera pose, viewport, SH degree) with hit/miss statistics.
//! * [`server`] — the worker pool tying it together.
//! * [`stats`] — the [`ServeStats`] report: p50/p90/p99 latency, throughput,
//!   cache hit rate, batch-size histogram, per-worker counters — all views
//!   over the same `gs_obs` metrics registry `GET /metrics` exposes.
//! * [`obs`] — the serving side of the observability layer (`gs-obs`):
//!   sampled request traces with queue / cache / render / kernel-phase
//!   spans, the finished-span ring behind `GET /trace`, and live
//!   per-phase roofline gauges.
//! * [`http`] — a std-only HTTP/1.1 front-end (`POST /render`, `GET /stats`,
//!   `GET /scenes`) so external load generators can drive the service over
//!   real loopback/network TCP, one handler thread per connection.
//! * [`wire`] — the HTTP wire format: the text render-request body and the
//!   binary frame encodings (lossless raw `f32`, viewable PPM).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use gs_core::camera::Camera;
//! use gs_core::gaussian::GaussianParams;
//! use gs_core::math::Vec3;
//! use gs_serve::{RenderRequest, RenderServer, SceneRegistry, ServeConfig};
//!
//! let mut params = GaussianParams::new();
//! params.push_isotropic(Vec3::new(0.0, 0.0, 1.0), 0.3, [0.9, 0.4, 0.2], 0.9);
//!
//! let server = RenderServer::new(
//!     ServeConfig { workers: 2, ..ServeConfig::default() },
//!     SceneRegistry::with_budget(1 << 20),
//! );
//! server.load_scene("demo", Arc::new(params), [0.0; 3]).unwrap();
//!
//! let camera = Camera::look_at(
//!     64, 48, 1.2,
//!     Vec3::new(0.0, 0.0, -4.0), Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0),
//! );
//! let frame = server.render_blocking(RenderRequest::full("demo", camera)).unwrap();
//! assert_eq!(frame.image.width(), 64);
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod cache;
pub mod http;
pub mod obs;
pub mod queue;
pub mod registry;
pub mod request;
pub mod server;
pub mod shard;
pub mod stats;
pub mod wire;

pub use cache::{CacheStats, FrameCache, FrameKey, QuantizedPose};
pub use http::{
    outcome_for_error, Conn, HttpConfig, HttpHandler, HttpRequest, HttpResponse, HttpServer,
};
pub use obs::{
    ObsTuning, Phase, ServeObs, TRACE_ID_HEADER, TRACE_PARENT_HEADER, TRACE_SPANS_HEADER,
};
pub use queue::BoundedQueue;
pub use registry::{
    LoadedScene, RegistryStats, SceneLayout, SceneRegistry, SceneView, ShardResidency, ShardView,
    ShardedSceneView,
};
pub use request::{CancelToken, RenderRequest, RenderedFrame, SceneId, ServeError};
pub use server::{RenderServer, ServeConfig, Ticket};
pub use shard::{
    depth_order, partition_ids, shard_scene, shard_visible, visible_shards, Aabb, ShardSource,
};
pub use stats::{percentile, ConnectionStats, LatencySummary, ServeStats, StatsCollector};
pub use wire::{Priority, SceneSpec, StatsReport, WireError, WireFormat, WireRequest};
