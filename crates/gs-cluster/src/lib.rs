//! `gs-cluster`: a multi-replica serving tier over `gs-serve`.
//!
//! One [`RenderServer`](gs_serve::RenderServer) scales to the scenes its
//! memory budget holds and the cores its worker pool owns; heavy traffic
//! needs many of them. This crate adds the tier that makes N replicas —
//! in-process instances and remote nodes behind the `gs-serve` HTTP
//! front-end alike — look like **one service**:
//!
//! * [`replica`] — the transport abstraction: [`Replica`] drives a replica
//!   either by direct calls ([`ReplicaTransport::InProcess`]) or over the
//!   existing HTTP front-end ([`ReplicaTransport::Http`]), with `/healthz`
//!   probes and pooled keep-alive connections.
//! * [`placement`] — the placement table: which replica set holds each
//!   placement *site* (a whole scene, or one **shard** of one), chosen
//!   against each replica's reported memory budget; most-free-budget
//!   placement with spill.
//! * [`coordinator`] — the [`Coordinator`]: routes `POST /render` traffic
//!   by scene id, fails requests over to healthy replicas (re-placing the
//!   site from its host-side hold) when a replica dies mid-flight, reloads
//!   copies a live replica lost, supports drain/rejoin, and implements
//!   **cross-node sharded rendering**: shards of one scene live on
//!   different replicas, each renders a partial-frame
//!   [`FrameLayer`](gs_render::rasterize::FrameLayer) shipped over the
//!   lossless layer wire encoding, and the coordinator relays the running
//!   layer through them front-to-back — bit-identically to the single-node
//!   sharded render. Whole scenes and shards share one routing, failover
//!   and replication path.
//! * [`prober`] — a background [`HealthProber`] thread (a
//!   [`gs_obs::Watcher`]) running [`Coordinator::probe_all`] on an
//!   interval, so downed replicas rejoin (and silently-dead ones leave)
//!   the rotation without an operator call.
//! * [`replication`] — heat-driven hot-scene replication: a
//!   [`ReplicationManager`] thread (also a [`gs_obs::Watcher`]) runs
//!   [`Coordinator::replication_tick`] on an interval, replicating hot
//!   scenes onto extra replicas from the host-side holds, balancing reads
//!   across the copies (power-of-two-choices over in-flight counts),
//!   de-replicating as scenes cool, and rebalancing onto
//!   drained-then-rejoined replicas. Paired with SLO-burn load shedding
//!   of speculative requests and reduced-SH brown-out at the coordinator
//!   so the extra throughput stays usable under overload.
//! * [`stats`] — cluster-wide aggregation: per-replica
//!   [`StatsReport`](gs_serve::StatsReport)s fanned in, latency histograms
//!   **merged exactly by adding buckets** (not quantile averaging), plus the
//!   coordinator's own routing/failover counters and the coordinator-side
//!   frame cache's hit rate (`ClusterConfig::cache_bytes`).
//! * [`http`] — the cluster's own HTTP front-end, built on the listener
//!   machinery shared with `gs-serve`. It serves the routes both tiers
//!   share (listed in [`gs_serve::http`]) through the same functions, plus
//!   its own `GET /stats`, `GET /scenes` and `GET /replicas`; the module
//!   docs name where it differs from a single node.
//!
//! The tier participates in the `gs-obs` observability layer end to end:
//! sampled (or `X-Trace-Id`-carried) requests get a span tree covering the
//! routing decision and every replica hop — in-process replicas record
//! straight into the shared trace, HTTP replicas return their spans in
//! `X-Trace-Spans` (or the `GSTC` layer-envelope block) and the
//! coordinator grafts them under the hop span, yielding one stitched tree
//! per cross-node sharded render.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use gs_core::gaussian::GaussianParams;
//! use gs_core::math::Vec3;
//! use gs_cluster::{ClusterConfig, Coordinator, ReplicaTransport};
//! use gs_serve::{RenderServer, SceneRegistry, ServeConfig, WireRequest};
//!
//! let replica = |_| {
//!     Arc::new(RenderServer::new(
//!         ServeConfig { workers: 1, ..ServeConfig::default() },
//!         SceneRegistry::with_budget(1 << 20),
//!     ))
//! };
//! let cluster = Coordinator::new(ClusterConfig::default());
//! cluster.add_replica("a", ReplicaTransport::InProcess(replica(0))).unwrap();
//! cluster.add_replica("b", ReplicaTransport::InProcess(replica(1))).unwrap();
//!
//! let mut params = GaussianParams::new();
//! params.push_isotropic(Vec3::new(0.0, 0.0, 1.0), 0.3, [0.9, 0.4, 0.2], 0.9);
//! cluster.load_scene("demo", Arc::new(params), [0.0; 3]).unwrap();
//!
//! let frame = cluster
//!     .render(&WireRequest::new("demo", [0.0, 0.0, -4.0], [0.0; 3], 64, 48))
//!     .unwrap();
//! assert_eq!(frame.image.width(), 64);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coordinator;
pub mod http;
pub mod placement;
pub mod prober;
pub mod replica;
pub mod replication;
pub mod stats;

pub use coordinator::{
    outcome_for_cluster_error, ClusterConfig, ClusterError, ClusterFrame, Coordinator, LoadClaim,
    ReplicaStatus, ReplicationReport,
};
pub use http::bind as bind_http;
pub use placement::{
    pick_read_copy, pick_replica, PlacementCandidate, ReadCandidate, ScenePlacement,
};
pub use prober::HealthProber;
pub use replica::{Health, Replica, ReplicaError, ReplicaId, ReplicaTransport};
pub use replication::{ReplicationConfig, ReplicationManager};
pub use stats::{merge_latency, ClusterStats, ReplicaReport};
