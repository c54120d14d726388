//! The cluster coordinator: one façade over N replicas.
//!
//! The [`Coordinator`] owns scene placement (see [`crate::placement`]),
//! routes renders by scene id, and turns replica failures into failovers
//! instead of errors: every scene's parameters are held host-side, so when
//! a replica stops answering the coordinator marks it down, re-loads the
//! affected scene (or shard) onto a healthy replica and retries — the
//! client never sees the death as long as capacity remains.
//!
//! Placement also reacts to **popularity**, not just death: every
//! placement is a replica *set* (primary plus replication copies), and
//! [`Coordinator::replication_tick`] — driven periodically by
//! [`crate::replication::ReplicationManager`] — replicates hot
//! scenes/shards onto extra replicas from the host-side holds, routes
//! reads across the copies with power-of-two-choices over per-replica
//! in-flight counts, de-replicates as scenes cool, and rebalances
//! single-copy scenes onto drained-then-rejoined replicas. Under overload
//! (a deep in-flight backlog or sustained SLO burn) the coordinator sheds
//! [`gs_serve::wire::Priority::Speculative`] requests first and serves
//! interactive requests as reduced-SH brown-out frames instead of failing
//! them (see [`ClusterConfig::shed_inflight`] and
//! [`ClusterConfig::brownout_sh_degree`]).
//!
//! Cross-node sharded rendering is a **relay**: the coordinator walks the
//! visible shards front-to-back, shipping the running layer state to each
//! shard's replica in turn ([`gs_serve::wire::encode_layer_request`]). Each
//! replica continues the per-pixel blend exactly where the previous shard
//! left it, so the final frame is **bit-identical** to the single-node
//! sharded render (and, for depth-disjoint shards, to the unsharded render)
//! — at the cost of one sequential wire hop per shard.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;
use gs_obs::{Counter, Event, EventLevel, HeatRow, Registry, TraceContext, Watcher};
use gs_render::rasterize::FrameLayer;
use gs_serve::{
    outcome_for_error, shard_scene, visible_shards, Aabb, FrameCache, FrameKey, ObsTuning,
    Priority, SceneId, ServeError, ServeObs, StatsCollector, WireRequest,
};
use gs_trace::{Outcome, TraceRecorder};

use crate::placement::{
    pick_read_copy, pick_replica, Hold, PlacementCandidate, ReadCandidate, SceneHold,
    ScenePlacement, ShardHold,
};
use crate::replica::{Health, Replica, ReplicaError, ReplicaId, ReplicaTransport};
use crate::replication::ReplicationConfig;
use crate::stats::{merge_latency, ClusterStats, ReplicaReport};

/// Configuration of a [`Coordinator`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Skip shards whose AABB misses the view frustum before fan-out.
    pub cull_shards: bool,
    /// How many times one request may fail over to another replica before
    /// the coordinator gives up.
    pub max_failovers: usize,
    /// Auto-sharding threshold in bytes for scenes arriving through the
    /// cluster HTTP front-end (0 disables; explicit shard counts override).
    pub shard_bytes: u64,
    /// Coordinator-side frame-cache budget in bytes (0 disables it). The
    /// cache is keyed exactly like a replica's frame cache (scene,
    /// quantized pose, viewport, SH degree), so repeated cluster traffic
    /// short-circuits *before* routing — no replica hop, no relay chain.
    pub cache_bytes: u64,
    /// Camera-translation grid for the coordinator cache's key
    /// quantization, in world units.
    pub pose_quant: f32,
    /// Node label the coordinator's spans carry.
    pub node: String,
    /// Trace every Nth ingress render (0 disables coordinator-minted
    /// traces; requests arriving with an `X-Trace-Id` are always traced).
    pub trace_sample_every: u32,
    /// Log a text waterfall to stderr for locally-owned traces slower than
    /// this many milliseconds (0 disables the log).
    pub slow_trace_ms: u64,
    /// Capacity of the finished-trace ring behind `GET /trace`.
    pub span_ring: usize,
    /// Interpretation-layer tuning (SLO windows, heat tables, flight
    /// recorder, watcher cadence), shared with the replica tier.
    pub obs: ObsTuning,
    /// Heat-driven replication policy (copy counts, replicate /
    /// de-replicate rate thresholds, cool-down hysteresis, rebalancing) —
    /// consumed by [`Coordinator::replication_tick`].
    pub replication: ReplicationConfig,
    /// Priority-aware load shedding: once more than this many renders are
    /// in flight at the coordinator, speculative requests are shed with
    /// [`ClusterError::Overloaded`]; past twice the threshold interactive
    /// requests shed too (`0` disables in-flight shedding — SLO-burn
    /// shedding still applies).
    pub shed_inflight: usize,
    /// Graceful brown-out: under overload, interactive requests render at
    /// this SH degree instead of the requested one — a cheaper,
    /// lower-fidelity frame instead of a 503 (`None` disables; frames at
    /// the requested degree are unaffected when it is already ≤ the
    /// floor). Browned-out frames are never inserted into the coordinator
    /// frame cache.
    pub brownout_sh_degree: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            cull_shards: true,
            max_failovers: 2,
            shard_bytes: 32 << 20,
            cache_bytes: 0,
            pose_quant: 0.05,
            node: "gs-cluster".to_string(),
            trace_sample_every: 0,
            slow_trace_ms: 0,
            span_ring: 256,
            obs: ObsTuning::default(),
            replication: ReplicationConfig::default(),
            shed_inflight: 0,
            brownout_sh_degree: None,
        }
    }
}

/// A cluster-level failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No healthy replica has enough free budget for the placement.
    NoCapacity {
        /// Bytes the placement needed.
        bytes: u64,
    },
    /// The scene is not loaded in the cluster.
    UnknownScene(SceneId),
    /// The id is already loaded (placement refuses implicit replacement
    /// through the HTTP front-end).
    SceneExists(SceneId),
    /// A replica answered with a service error the coordinator cannot fix
    /// by retrying elsewhere.
    Serve(ServeError),
    /// Every failover attempt was exhausted.
    Exhausted {
        /// The scene whose request kept failing.
        scene: SceneId,
        /// Attempts performed (1 + failovers).
        attempts: usize,
    },
    /// The request was shed by priority-aware overload protection (deep
    /// in-flight backlog or sustained SLO burn); speculative work sheds
    /// first.
    Overloaded {
        /// The scene the shed request named.
        scene: SceneId,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoCapacity { bytes } => {
                write!(f, "no healthy replica has {bytes} bytes of free budget")
            }
            ClusterError::UnknownScene(id) => write!(f, "scene {id:?} is not loaded"),
            ClusterError::SceneExists(id) => write!(f, "scene {id:?} is already loaded"),
            ClusterError::Serve(e) => write!(f, "{e}"),
            ClusterError::Exhausted { scene, attempts } => write!(
                f,
                "request for scene {scene:?} failed on every replica ({attempts} attempts)"
            ),
            ClusterError::Overloaded { scene } => write!(
                f,
                "request for scene {scene:?} shed: coordinator overloaded"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A completed cluster render.
#[derive(Debug, Clone)]
pub struct ClusterFrame {
    /// The rendered image (shared with the coordinator cache, so cache
    /// hits hand out the resident frame without copying pixels).
    pub image: Arc<Image>,
    /// Scene the frame belongs to.
    pub scene: SceneId,
    /// Shard layers composited into the frame (1 for a single scene, 0 for
    /// a coordinator-cache hit).
    pub shards_rendered: usize,
    /// Shards skipped by the coordinator's view culling.
    pub shards_culled: usize,
    /// Name of the serving replica (single scenes; `None` for cross-node
    /// sharded frames, which touch several, and for coordinator-cache
    /// hits, which touch none).
    pub replica: Option<String>,
    /// Whether the frame was answered from the coordinator-side cache
    /// without touching any replica.
    pub cache_hit: bool,
    /// End-to-end latency as the coordinator saw it.
    pub latency: Duration,
}

/// One row of [`Coordinator::replica_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Replica index.
    pub id: ReplicaId,
    /// Display name.
    pub name: String,
    /// Routing state.
    pub health: Health,
    /// Reported device budget in bytes.
    pub budget: u64,
    /// Bytes the coordinator has placed here.
    pub placed: u64,
}

struct ReplicaSlot {
    replica: Arc<Replica>,
    health: Health,
    budget: u64,
    placed: u64,
    /// Renders currently in flight on this replica — the load signal the
    /// power-of-two-choices read balancer compares. `Arc` so the RAII
    /// guard outlives the state lock.
    inflight: Arc<AtomicU64>,
}

struct State {
    replicas: Vec<ReplicaSlot>,
    scenes: BTreeMap<SceneId, SceneHold>,
    /// Ids claimed by in-flight exclusive loads (see
    /// [`Coordinator::claim_scene`]).
    loading: std::collections::HashSet<SceneId>,
}

#[derive(Default)]
struct Counters {
    failovers: AtomicU64,
    replacements: AtomicU64,
    shard_relays: AtomicU64,
    shards_culled: AtomicU64,
    replications: AtomicU64,
    dereplications: AtomicU64,
    rebalances: AtomicU64,
    shed: AtomicU64,
    brownouts: AtomicU64,
}

/// Decrements a shared in-flight count on drop; created when a render is
/// routed to a replica (and, via [`Coordinator::render_traced`], once per
/// coordinator-level request).
struct InflightGuard(Arc<AtomicU64>);

impl InflightGuard {
    fn enter(count: &Arc<AtomicU64>) -> Self {
        count.fetch_add(1, Ordering::Relaxed);
        Self(Arc::clone(count))
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What overload protection decided for one cache-missing request.
enum Admission {
    /// Serve normally.
    Serve,
    /// Serve, but render at this (reduced) SH degree — a brown-out frame.
    Brownout(usize),
    /// Reject with [`ClusterError::Overloaded`].
    Shed,
}

/// A planned replication copy (phase output of
/// [`Coordinator::replication_tick`], executed outside the state lock).
struct AddCopy {
    scene: SceneId,
    shard: Option<usize>,
    site: SceneId,
    params: Arc<GaussianParams>,
    background: [f32; 3],
    bytes: u64,
    /// The replica set at planning time; the add commits only if the set
    /// is unchanged, and the new copy must land elsewhere.
    exclude: Vec<ReplicaId>,
}

/// A planned copy retirement (cooled scene, or a dead copy to prune).
struct RetireCopy {
    scene: SceneId,
    shard: Option<usize>,
    site: SceneId,
    rid: ReplicaId,
    bytes: u64,
}

/// One placement site of a scene while planning replication:
/// (shard index, on-replica scene id, replica set, params, bytes).
type PlacementSite<'a> = (
    Option<usize>,
    SceneId,
    &'a Vec<ReplicaId>,
    &'a Arc<GaussianParams>,
    u64,
);

/// A rebalance candidate: (scene id, params, background, bytes, heat rate).
type RebalanceCandidate = (SceneId, Arc<GaussianParams>, [f32; 3], u64, f64);

/// What one [`Coordinator::replication_tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Extra copies of hot scenes/shards installed.
    pub replicated: usize,
    /// Copies retired from cooled scenes (budget returned to the pool).
    pub dereplicated: usize,
    /// Dead copies dropped from replica sets (their replica is down; at
    /// least one live copy remained).
    pub pruned: usize,
    /// Single-copy scenes moved onto cold (drained-then-rejoined)
    /// replicas.
    pub rebalanced: usize,
    /// Whether the SLO-burn overload signal was set after this tick.
    pub overloaded: bool,
}

/// A held exclusive-load claim (see [`Coordinator::claim_scene`]); dropping
/// it releases the claim.
pub struct LoadClaim<'a> {
    coordinator: &'a Coordinator,
    id: SceneId,
}

impl Drop for LoadClaim<'_> {
    fn drop(&mut self) {
        self.coordinator
            .state
            .lock()
            .unwrap()
            .loading
            .remove(&self.id);
    }
}

/// The multi-replica serving coordinator (see the module docs).
pub struct Coordinator {
    config: ClusterConfig,
    state: Mutex<State>,
    collector: StatsCollector,
    counters: Counters,
    /// Coordinator-side frame cache (`None` when disabled); reuses the
    /// replica-tier LRU [`FrameCache`] with the same key scheme, one tier
    /// up.
    cache: Option<Mutex<CoordCache>>,
    /// Optional workload-capture hook (see [`Coordinator::set_recorder`]):
    /// every render answered by the coordinator — cache hit, completion or
    /// error — is appended as a [`gs_trace::TraceEvent`].
    recorder: Mutex<Option<Arc<TraceRecorder>>>,
    /// The coordinator tier's observability state: trace sampling, the
    /// finished-span ring, and the metrics registry the stats collector
    /// shares (kernel-phase sampling stays off — the coordinator never
    /// runs render kernels itself). `Arc` so the watcher thread holds it.
    obs: Arc<ServeObs>,
    /// Background watcher driving SLO evaluation and incident capture;
    /// `None` when [`ObsTuning::watcher_interval_ms`] is zero. Joined on
    /// drop.
    watcher: Option<Watcher>,
    /// Renders currently in flight at the coordinator (cache hits
    /// included for their brief residency) — the backlog signal
    /// [`ClusterConfig::shed_inflight`] compares against.
    inflight_total: Arc<AtomicU64>,
    /// Latched by [`Coordinator::overload_tick`]: whether any SLO is
    /// burning, which switches shedding/brown-out on independent of the
    /// in-flight backlog.
    slo_burning: AtomicBool,
    /// Advances once per routed read; feeds the deterministic probe-pair
    /// selection of [`pick_read_copy`].
    route_salt: AtomicU64,
    /// Consecutive replication ticks each scene has spent below the
    /// de-replication rate (the cool-down hysteresis).
    cool: Mutex<HashMap<SceneId, u32>>,
    /// `gs_shed_total{priority="speculative"|"interactive"}` handles.
    shed_metrics: [Counter; 2],
    /// `gs_brownout_frames_total` handle.
    brownout_metric: Counter,
}

/// The coordinator cache plus per-scene load epochs under one lock: a frame
/// rendered from a scene that was replaced or unloaded mid-flight must not
/// be inserted as that scene's *current* frame (the same guard the replica
/// tier implements with registry epochs). Epochs are drawn from one
/// monotonic clock, so an unloaded scene's entry can be *removed* (the map
/// stays bounded by the loaded scenes): a reload mints a fresh clock value
/// that can never collide with an epoch captured before the unload, and a
/// missing entry reads as epoch 0, which no in-flight render of a loaded
/// scene can hold (every load bumps the clock at least to 1).
struct CoordCache {
    cache: FrameCache,
    epochs: std::collections::HashMap<SceneId, u64>,
    clock: u64,
}

/// The on-replica scene id of shard `k` of cluster scene `id`.
fn shard_scene_id(id: &SceneId, k: usize) -> SceneId {
    format!("{id}@{k}")
}

/// Whether a replica failure warrants marking it down and retrying
/// elsewhere: transport failures (replica unreachable) and `ShuttingDown`
/// answers (the replica is dying or shedding load mid-request). A replica
/// that answers `UnknownScene` is *alive* but lost its copy (restart, LRU
/// eviction by traffic outside the coordinator); that is handled by
/// reloading the placement in place, not by declaring the replica dead.
/// Every other service error is the request's own outcome and is returned
/// to the client.
fn failover_worthy(e: &ReplicaError) -> bool {
    matches!(
        e,
        ReplicaError::Transport(_) | ReplicaError::Serve(ServeError::ShuttingDown)
    )
}

/// The trace [`Outcome`] a [`ClusterError`] records as. Replica-side
/// service errors map exactly like the single-node front-end
/// ([`gs_serve::outcome_for_error`]); cluster-only failures fold into the
/// closest trace category (`NoCapacity` is an admission rejection, an
/// `Exhausted` failover chain is an infrastructure error).
pub fn outcome_for_cluster_error(err: &ClusterError) -> Outcome {
    match err {
        ClusterError::NoCapacity { .. } | ClusterError::Overloaded { .. } => Outcome::Rejected,
        ClusterError::Serve(e) => outcome_for_error(e),
        ClusterError::UnknownScene(_) | ClusterError::SceneExists(_) => Outcome::Error,
        ClusterError::Exhausted { .. } => Outcome::Error,
    }
}

/// Outcome of reloading a lost placement onto its current replica.
enum Repair {
    /// The copy is back; retry the request there.
    Repaired,
    /// The coordinator no longer holds the scene (concurrent unload or
    /// replacement); the request's `UnknownScene` stands.
    Gone,
    /// The reload itself failed; fall back to marking the replica down.
    Failed,
}

impl Coordinator {
    /// Creates an empty coordinator.
    pub fn new(config: ClusterConfig) -> Self {
        let cache = (config.cache_bytes > 0).then(|| {
            Mutex::new(CoordCache {
                cache: FrameCache::new(config.cache_bytes),
                epochs: std::collections::HashMap::new(),
                clock: 0,
            })
        });
        let metrics = Arc::new(Registry::new());
        let obs = Arc::new(ServeObs::with_tuning(
            Arc::clone(&metrics),
            config.node.clone(),
            config.trace_sample_every,
            0,
            config.slow_trace_ms.saturating_mul(1000),
            config.span_ring,
            &config.obs,
        ));
        let watcher = (config.obs.watcher_interval_ms > 0).then(|| {
            let obs = Arc::clone(&obs);
            Watcher::spawn(
                Duration::from_millis(config.obs.watcher_interval_ms),
                move || {
                    obs.watch_tick();
                },
            )
        });
        // Register the overload series up front so `/metrics` exposes them
        // at zero before the first shed/brown-out.
        let shed_help = "Requests shed by priority-aware overload protection.";
        let shed_metrics = [
            metrics.counter("gs_shed_total", &[("priority", "speculative")], shed_help),
            metrics.counter("gs_shed_total", &[("priority", "interactive")], shed_help),
        ];
        let brownout_metric = metrics.counter(
            "gs_brownout_frames_total",
            &[],
            "Frames served at a reduced SH degree under overload instead of failing.",
        );
        Self {
            config,
            state: Mutex::new(State {
                replicas: Vec::new(),
                scenes: BTreeMap::new(),
                loading: std::collections::HashSet::new(),
            }),
            collector: StatsCollector::with_registry(metrics, 1),
            counters: Counters::default(),
            cache,
            recorder: Mutex::new(None),
            obs,
            watcher,
            inflight_total: Arc::new(AtomicU64::new(0)),
            slo_burning: AtomicBool::new(false),
            route_salt: AtomicU64::new(0),
            cool: Mutex::new(HashMap::new()),
            shed_metrics,
            brownout_metric,
        }
    }

    /// The coordinator tier's observability state (trace sampling, span
    /// ring, metrics registry, SLO engine, heat tables, flight recorder).
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Whether the background SLO/incident watcher thread is running.
    pub fn watcher_running(&self) -> bool {
        self.watcher.is_some()
    }

    /// Prometheus text exposition of the coordinator's metrics registry.
    pub fn metrics_text(&self) -> String {
        self.obs.metrics_text()
    }

    /// Installs a workload recorder: from now on every render answered by
    /// [`Coordinator::render`] is captured as a trace event (scene, client,
    /// pose, deadline, outcome, latency), timestamped on the recorder's
    /// clock at arrival.
    pub fn set_recorder(&self, recorder: Arc<TraceRecorder>) {
        *self.recorder.lock().unwrap() = Some(recorder);
    }

    /// Drops every coordinator-cached frame of `scene` and mints it a fresh
    /// load epoch so in-flight renders of the old parameters cannot
    /// re-insert (no-op when the cache is disabled). Called whenever a
    /// scene's parameters change.
    fn invalidate_cached_scene(&self, scene: &SceneId) {
        if let Some(cache) = &self.cache {
            let mut guard = cache.lock().unwrap();
            guard.cache.invalidate_scene(scene);
            guard.clock += 1;
            let epoch = guard.clock;
            guard.epochs.insert(scene.clone(), epoch);
        }
    }

    /// Like [`Coordinator::invalidate_cached_scene`], but *retires* the
    /// scene's epoch entry — used on unload so the epoch map stays bounded
    /// by the loaded scenes. Safe because epochs are clock-drawn: a missing
    /// entry reads as 0, which no in-flight capture of a loaded scene can
    /// equal, and a later reload mints a strictly newer value.
    fn retire_cached_scene(&self, scene: &SceneId) {
        if let Some(cache) = &self.cache {
            let mut guard = cache.lock().unwrap();
            guard.cache.invalidate_scene(scene);
            guard.epochs.remove(scene);
        }
    }

    /// The coordinator's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Attaches a replica, fetching its reported memory budget. The replica
    /// starts [`Health::Up`].
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Transport`] when the replica cannot be reached for
    /// the budget probe.
    pub fn add_replica(
        &self,
        name: impl Into<String>,
        transport: ReplicaTransport,
    ) -> Result<ReplicaId, ReplicaError> {
        let replica = Replica::new(name, transport);
        let budget = replica.budget_bytes()?;
        let mut state = self.state.lock().unwrap();
        state.replicas.push(ReplicaSlot {
            replica: Arc::new(replica),
            health: Health::Up,
            budget,
            placed: 0,
            inflight: Arc::new(AtomicU64::new(0)),
        });
        Ok(state.replicas.len() - 1)
    }

    /// Marks a replica as draining: it receives no new work, and its
    /// placements migrate to healthy replicas as traffic touches them.
    /// Returns whether the id exists.
    pub fn drain(&self, id: ReplicaId) -> bool {
        let mut state = self.state.lock().unwrap();
        match state.replicas.get_mut(id) {
            Some(slot) => {
                slot.health = Health::Draining;
                true
            }
            None => false,
        }
    }

    /// Probes a drained or down replica and, on success, marks it
    /// [`Health::Up`] again. Returns whether it rejoined.
    pub fn rejoin(&self, id: ReplicaId) -> bool {
        let replica = {
            let state = self.state.lock().unwrap();
            match state.replicas.get(id) {
                Some(slot) => Arc::clone(&slot.replica),
                None => return false,
            }
        };
        if !replica.probe() {
            return false;
        }
        let mut state = self.state.lock().unwrap();
        state.replicas[id].health = Health::Up;
        true
    }

    /// Probes every replica: up replicas that fail go down, down replicas
    /// that answer come back up (draining replicas are left alone).
    /// Returns `(id, alive)` per replica.
    pub fn probe_all(&self) -> Vec<(ReplicaId, bool)> {
        let replicas: Vec<(ReplicaId, Arc<Replica>)> = {
            let state = self.state.lock().unwrap();
            state
                .replicas
                .iter()
                .enumerate()
                .map(|(i, s)| (i, Arc::clone(&s.replica)))
                .collect()
        };
        // Probes fan out concurrently: one blackholed replica must not make
        // the sweep take the sum of every replica's timeout.
        let results: Vec<(ReplicaId, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = replicas
                .iter()
                .map(|(i, r)| scope.spawn(move || (*i, r.probe())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut state = self.state.lock().unwrap();
        for &(i, alive) in &results {
            let slot = &mut state.replicas[i];
            if slot.health != Health::Draining {
                slot.health = if alive { Health::Up } else { Health::Down };
            }
        }
        results
    }

    /// Health, budget and placement load of every replica.
    pub fn replica_status(&self) -> Vec<ReplicaStatus> {
        let state = self.state.lock().unwrap();
        state
            .replicas
            .iter()
            .enumerate()
            .map(|(id, slot)| ReplicaStatus {
                id,
                name: slot.replica.name().to_string(),
                health: slot.health,
                budget: slot.budget,
                placed: slot.placed,
            })
            .collect()
    }

    fn mark_down(&self, id: ReplicaId) {
        // The flight-recorder event is recorded outside the state lock; only
        // an actual Up -> Down transition records one (repeat failures on an
        // already-down replica are not separate anomalies).
        let downed = {
            let mut state = self.state.lock().unwrap();
            match state.replicas.get_mut(id) {
                Some(slot) if slot.health == Health::Up => {
                    slot.health = Health::Down;
                    Some(slot.replica.name().to_string())
                }
                _ => None,
            }
        };
        if let Some(name) = downed {
            self.obs.recorder().record(
                Event::new(
                    EventLevel::Error,
                    "coordinator",
                    "replica marked down; traffic fails over",
                )
                .replica(name),
            );
        }
    }

    fn candidates(state: &State) -> Vec<PlacementCandidate> {
        state
            .replicas
            .iter()
            .enumerate()
            .map(|(id, slot)| PlacementCandidate {
                id,
                health: slot.health,
                budget: slot.budget,
                placed: slot.placed,
            })
            .collect()
    }

    /// Reserves budget on the best-fitting healthy replica. Returns the
    /// chosen id and its transport.
    fn reserve(
        &self,
        bytes: u64,
        exclude: &[ReplicaId],
    ) -> Result<(ReplicaId, Arc<Replica>), ClusterError> {
        let mut state = self.state.lock().unwrap();
        let candidates = Self::candidates(&state);
        let Some(id) = pick_replica(&candidates, bytes, exclude) else {
            return Err(ClusterError::NoCapacity { bytes });
        };
        state.replicas[id].placed += bytes;
        Ok((id, Arc::clone(&state.replicas[id].replica)))
    }

    /// Reserves budget on one *specific* up replica (rebalancing targets a
    /// cold replica by id, not best-fit). Returns its transport, or `None`
    /// when the replica is missing, not up, or full.
    fn reserve_on(&self, id: ReplicaId, bytes: u64) -> Option<Arc<Replica>> {
        let mut state = self.state.lock().unwrap();
        let slot = state.replicas.get_mut(id)?;
        if slot.health != Health::Up || slot.budget.saturating_sub(slot.placed) < bytes {
            return None;
        }
        slot.placed += bytes;
        Some(Arc::clone(&slot.replica))
    }

    fn release(&self, id: ReplicaId, bytes: u64) {
        let mut state = self.state.lock().unwrap();
        if let Some(slot) = state.replicas.get_mut(id) {
            slot.placed = slot.placed.saturating_sub(bytes);
        }
    }

    /// Places `bytes` of parameters under `on_replica_id` on some healthy
    /// replica, retrying over failovers. Returns the replica that took it.
    fn place(
        &self,
        on_replica_id: &SceneId,
        params: &Arc<GaussianParams>,
        background: [f32; 3],
        bytes: u64,
        exclude: &[ReplicaId],
    ) -> Result<ReplicaId, ClusterError> {
        for _ in 0..=self.config.max_failovers {
            let (rid, replica) = self.reserve(bytes, exclude)?;
            match replica.load_scene(on_replica_id, params, background) {
                Ok(()) => return Ok(rid),
                // The same failover policy renders use: an unreachable or
                // load-shedding replica goes down and the placement tries
                // the next-best one instead of failing a load other
                // replicas could hold.
                Err(e) if failover_worthy(&e) => {
                    self.release(rid, bytes);
                    self.mark_down(rid);
                }
                Err(ReplicaError::Serve(e)) => {
                    self.release(rid, bytes);
                    return Err(ClusterError::Serve(e));
                }
                Err(ReplicaError::Transport(_)) => unreachable!("covered by failover_worthy"),
            }
        }
        Err(ClusterError::NoCapacity { bytes })
    }

    /// Loads (or replaces) a whole scene on one replica, chosen against the
    /// replicas' free budgets. The parameters are also held host-side so
    /// the scene can be re-placed when its replica dies.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoCapacity`] when no healthy replica fits the scene,
    /// [`ClusterError::Serve`] when a replica rejects the load.
    pub fn load_scene(
        &self,
        id: impl Into<SceneId>,
        params: Arc<GaussianParams>,
        background: [f32; 3],
    ) -> Result<(), ClusterError> {
        let id = id.into();
        let bytes = params.total_bytes() as u64;
        let rid = self.place(&id, &params, background, bytes, &[])?;
        let hold = SceneHold {
            background,
            hold: Hold::Single {
                replicas: vec![rid],
                params,
                bytes,
            },
        };
        let stale = self.commit_scene(id.clone(), hold);
        // After the commit: in-flight renders of the replaced parameters
        // captured the pre-bump epoch and cannot re-insert stale frames.
        self.invalidate_cached_scene(&id);
        self.unload_holds(stale);
        Ok(())
    }

    /// Loads (or replaces) a scene partitioned into `shards` spatial shards
    /// spread across the fleet — each shard placed independently against
    /// the replicas' free budgets, so a scene no single replica could hold
    /// still serves (cross-node sharded rendering).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoCapacity`] when some shard fits no healthy
    /// replica (already-placed shards are rolled back),
    /// [`ClusterError::Serve`] when a replica rejects a shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn load_scene_sharded(
        &self,
        id: impl Into<SceneId>,
        params: Arc<GaussianParams>,
        background: [f32; 3],
        shards: usize,
    ) -> Result<usize, ClusterError> {
        let id = id.into();
        let sources = shard_scene(&params, shards);
        let mut placed: Vec<ShardHold> = Vec::with_capacity(sources.len());
        for (k, source) in sources.into_iter().enumerate() {
            let result = self.place(
                &shard_scene_id(&id, k),
                &source.params,
                background,
                source.bytes,
                &[],
            );
            match result {
                Ok(rid) => placed.push(ShardHold {
                    replicas: vec![rid],
                    params: source.params,
                    aabb: source.aabb,
                    max_scale: source.max_scale,
                    bytes: source.bytes,
                }),
                Err(e) => {
                    // Roll back what was already placed. A site the *still
                    // committed* old hold also occupies was replaced in
                    // place by this failed attempt — restore the old
                    // shard's data there instead of unloading it, so a
                    // failed replacement leaves the existing scene
                    // serving.
                    for (j, hold) in placed.into_iter().enumerate() {
                        let rid = hold.replicas[0];
                        self.release(rid, hold.bytes);
                        let site = shard_scene_id(&id, j);
                        let (replica, restore) = {
                            let state = self.state.lock().unwrap();
                            let restore = state.scenes.get(&id).and_then(|old| match &old.hold {
                                Hold::Sharded { shards } => shards
                                    .get(j)
                                    .filter(|s| s.replicas.contains(&rid))
                                    .map(|s| (Arc::clone(&s.params), old.background)),
                                Hold::Single { .. } => None,
                            });
                            (Arc::clone(&state.replicas[rid].replica), restore)
                        };
                        match restore {
                            Some((old_params, old_background)) => {
                                let _ = replica.load_scene(&site, &old_params, old_background);
                            }
                            None => {
                                let _ = replica.unload_scene(&site);
                            }
                        }
                    }
                    return Err(e);
                }
            }
        }
        let count = placed.len();
        let hold = SceneHold {
            background,
            hold: Hold::Sharded { shards: placed },
        };
        let stale = self.commit_scene(id.clone(), hold);
        self.invalidate_cached_scene(&id);
        self.unload_holds(stale);
        Ok(count)
    }

    /// The `(replica, on-replica id)` pairs a hold occupies — one per
    /// copy, so a replicated placement lists every replica in its set.
    fn hold_sites(id: &SceneId, hold: &SceneHold) -> Vec<(ReplicaId, SceneId)> {
        match &hold.hold {
            Hold::Single { replicas, .. } => replicas.iter().map(|&r| (r, id.clone())).collect(),
            Hold::Sharded { shards } => shards
                .iter()
                .enumerate()
                .flat_map(|(k, s)| {
                    s.replicas
                        .iter()
                        .map(move |&r| (r, shard_scene_id(id, k)))
                        .collect::<Vec<_>>()
                })
                .collect(),
        }
    }

    /// Installs a scene hold, returning the unload work for whatever it
    /// replaced (performed outside the lock). Old placements that the new
    /// hold re-occupies (same replica, same on-replica id) are *not*
    /// unloaded — the on-replica load already replaced the data in place,
    /// and unloading would delete the copy that was just installed.
    fn commit_scene(&self, id: SceneId, hold: SceneHold) -> Vec<(Arc<Replica>, SceneId)> {
        let kept = Self::hold_sites(&id, &hold);
        let mut state = self.state.lock().unwrap();
        let old = state.scenes.insert(id.clone(), hold);
        match old {
            Some(old) => Self::unplace_locked(&mut state, &id, &old, &kept),
            None => Vec::new(),
        }
    }

    /// Releases an old hold's budget reservations and lists the on-replica
    /// unloads to perform. Sites named in `kept` release their budget but
    /// are not unloaded (the new hold lives there).
    fn unplace_locked(
        state: &mut State,
        id: &SceneId,
        hold: &SceneHold,
        kept: &[(ReplicaId, SceneId)],
    ) -> Vec<(Arc<Replica>, SceneId)> {
        let mut work = Vec::new();
        let mut release = |state: &mut State, rid: ReplicaId, bytes: u64, scene: SceneId| {
            if let Some(slot) = state.replicas.get_mut(rid) {
                slot.placed = slot.placed.saturating_sub(bytes);
                if !kept.iter().any(|(kr, ks)| *kr == rid && *ks == scene) {
                    work.push((Arc::clone(&slot.replica), scene));
                }
            }
        };
        match &hold.hold {
            Hold::Single {
                replicas, bytes, ..
            } => {
                for &rid in replicas {
                    release(state, rid, *bytes, id.clone());
                }
            }
            Hold::Sharded { shards } => {
                for (k, shard) in shards.iter().enumerate() {
                    for &rid in &shard.replicas {
                        release(state, rid, shard.bytes, shard_scene_id(id, k));
                    }
                }
            }
        }
        work
    }

    fn unload_holds(&self, work: Vec<(Arc<Replica>, SceneId)>) {
        for (replica, scene) in work {
            // Best-effort: a dead replica keeps its stale copy until its
            // own LRU reclaims it.
            let _ = replica.unload_scene(&scene);
        }
    }

    /// Unloads a scene from the cluster. Returns whether it was loaded.
    pub fn unload_scene(&self, id: &SceneId) -> bool {
        let work = {
            let mut state = self.state.lock().unwrap();
            match state.scenes.remove(id) {
                Some(hold) => Self::unplace_locked(&mut state, id, &hold, &[]),
                None => return false,
            }
        };
        // After the removal (like load_scene invalidates after its commit):
        // an in-flight render that passed the scene lookup captured the
        // scene's minted epoch, which a retired (absent) entry can never
        // match, so it cannot insert a frame for the now-unloaded scene; a
        // render starting later fails the lookup before inserting.
        self.retire_cached_scene(id);
        self.unload_holds(work);
        true
    }

    /// Whether `id` is loaded in the cluster.
    pub fn contains_scene(&self, id: &SceneId) -> bool {
        self.state.lock().unwrap().scenes.contains_key(id)
    }

    /// Atomically claims `id` for an exclusive (no-replacement) load:
    /// returns `None` when the scene is already loaded *or* another claim
    /// is in flight, else a guard that holds the claim until dropped. The
    /// cluster HTTP front-end uses this so concurrent `POST /scenes/<id>`
    /// produce exactly one `201` — a racy `contains_scene` pre-check
    /// cannot.
    pub fn claim_scene(&self, id: &SceneId) -> Option<LoadClaim<'_>> {
        let mut state = self.state.lock().unwrap();
        if state.scenes.contains_key(id) || !state.loading.insert(id.clone()) {
            return None;
        }
        Some(LoadClaim {
            coordinator: self,
            id: id.clone(),
        })
    }

    /// Placement of every loaded scene, sorted by id.
    pub fn scenes(&self) -> Vec<ScenePlacement> {
        let state = self.state.lock().unwrap();
        state
            .scenes
            .iter()
            .map(|(id, hold)| match &hold.hold {
                Hold::Single {
                    replicas,
                    params,
                    bytes,
                } => ScenePlacement {
                    id: id.clone(),
                    shards: 1,
                    replicas: replicas.clone(),
                    gaussians: params.len(),
                    bytes: *bytes,
                },
                Hold::Sharded { shards } => ScenePlacement {
                    id: id.clone(),
                    shards: shards.len(),
                    replicas: shards
                        .iter()
                        .flat_map(|s| s.replicas.iter().copied())
                        .collect(),
                    gaussians: shards.iter().map(|s| s.params.len()).sum(),
                    bytes: shards.iter().map(|s| s.bytes).sum(),
                },
            })
            .collect()
    }

    /// Bytes the placement table accounts to each replica (every copy of
    /// every scene and shard), indexed by replica id. Property tests
    /// compare this against [`Coordinator::replica_status`]'s `placed` to
    /// prove the budget accounting stays exact across
    /// replicate → de-replicate → rejoin cycles.
    pub fn placement_bytes_by_replica(&self) -> Vec<u64> {
        let state = self.state.lock().unwrap();
        let mut totals = vec![0u64; state.replicas.len()];
        for hold in state.scenes.values() {
            match &hold.hold {
                Hold::Single {
                    replicas, bytes, ..
                } => {
                    for &rid in replicas {
                        if let Some(t) = totals.get_mut(rid) {
                            *t += *bytes;
                        }
                    }
                }
                Hold::Sharded { shards } => {
                    for shard in shards {
                        for &rid in &shard.replicas {
                            if let Some(t) = totals.get_mut(rid) {
                                *t += shard.bytes;
                            }
                        }
                    }
                }
            }
        }
        totals
    }

    /// Renders one frame, routing by scene id with health-checked failover.
    /// With the coordinator-side cache enabled, a repeated view (same
    /// quantized cache key) is answered here — no replica is touched.
    ///
    /// Ingress trace sampling applies: every Nth request (per
    /// [`ClusterConfig::trace_sample_every`]) gets a span tree minted,
    /// covering the routing decision and every replica hop, and lands in
    /// the coordinator's span ring when the render settles.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownScene`] for unplaced scenes,
    /// [`ClusterError::Exhausted`] when every failover attempt failed,
    /// [`ClusterError::Serve`] for replica-side service errors.
    pub fn render(&self, request: &WireRequest) -> Result<ClusterFrame, ClusterError> {
        let mut root = None;
        let ctx = if self.obs.should_trace() {
            let trace = self.obs.mint();
            let span = trace.start(0, "request");
            let parent = span.id();
            root = Some(span);
            Some(TraceContext { trace, parent })
        } else {
            None
        };
        let result = self.render_traced(request, ctx.as_ref());
        if let Some(span) = root {
            span.finish();
            if let Some(ctx) = &ctx {
                self.obs.finish(&ctx.trace);
            }
        }
        result
    }

    /// [`Coordinator::render`] inside an existing trace context: the
    /// caller (the cluster HTTP front-end, or a test) owns minting and
    /// settling the trace; the coordinator only records its spans into it.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::render`].
    pub fn render_traced(
        &self,
        request: &WireRequest,
        trace: Option<&TraceContext>,
    ) -> Result<ClusterFrame, ClusterError> {
        let started = Instant::now();
        let _inflight = InflightGuard::enter(&self.inflight_total);
        let recorder = self.recorder.lock().unwrap().clone();
        let arrival_us = recorder.as_deref().map_or(0, TraceRecorder::now_us);
        let record = |outcome: Outcome| {
            if let Some(rec) = &recorder {
                let client = request.client.as_deref().unwrap_or("unknown");
                let latency = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                rec.record(request.to_trace_event(client, arrival_us, outcome, latency));
            }
        };
        // One counted lookup per request: a hit short-circuits before
        // routing; a miss remembers the scene's load epoch so the rendered
        // frame is only inserted if the scene was not replaced mid-flight.
        let mut miss_epoch: Option<(FrameKey, u64)> = None;
        if let Some(cache) = &self.cache {
            let key = FrameKey::for_request(&request.to_render_request(), self.config.pose_quant);
            let mut guard = cache.lock().unwrap();
            match guard.cache.get(&key) {
                Some(image) => {
                    drop(guard);
                    let latency = started.elapsed();
                    if let Some(ctx) = trace {
                        let clock = ctx.trace.clock();
                        let start = clock.us_of(started);
                        ctx.trace.record(
                            ctx.parent,
                            "coord_cache_hit",
                            start,
                            clock.now_us().saturating_sub(start),
                        );
                    }
                    self.collector.record_fast_hit(latency);
                    record(Outcome::CacheHit);
                    self.obs.record_outcome(
                        Some(request.scene.as_str()),
                        request.client.as_deref(),
                        true,
                        true,
                        latency.as_secs_f64(),
                    );
                    return Ok(ClusterFrame {
                        image,
                        scene: request.scene.clone(),
                        shards_rendered: 0,
                        shards_culled: 0,
                        replica: None,
                        cache_hit: true,
                        latency,
                    });
                }
                None => {
                    let epoch = guard.epochs.get(&request.scene).copied().unwrap_or(0);
                    miss_epoch = Some((key, epoch));
                }
            }
        }
        // Overload protection sits after the cache (hits are nearly free
        // and always served) and before any replica work.
        let result = match self.admit(request) {
            Admission::Serve => self.render_inner(request, started, trace),
            Admission::Brownout(floor) => {
                // A brown-out frame is rendered at a reduced SH degree; it
                // must never be cached under the full-fidelity key, so the
                // captured miss epoch is dropped.
                miss_epoch = None;
                self.counters.brownouts.fetch_add(1, Ordering::Relaxed);
                self.brownout_metric.inc();
                let mut degraded = request.clone();
                degraded.sh_degree = floor;
                self.render_inner(&degraded, started, trace)
            }
            Admission::Shed => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                let which = match request.priority {
                    Priority::Speculative => 0,
                    Priority::Interactive => 1,
                };
                self.shed_metrics[which].inc();
                Err(ClusterError::Overloaded {
                    scene: request.scene.clone(),
                })
            }
        };
        let latency_s = started.elapsed().as_secs_f64();
        match &result {
            Ok(frame) => {
                // The trace id rides onto the latency histogram as an
                // exemplar, so a slow bucket names a concrete trace to pull
                // via `/trace?id=`.
                self.collector.record_completed_traced(
                    0,
                    started.elapsed(),
                    trace.map(|ctx| ctx.trace.id()),
                );
                if let (Some(cache), Some((key, epoch))) = (&self.cache, miss_epoch) {
                    let mut guard = cache.lock().unwrap();
                    if guard.epochs.get(&request.scene).copied().unwrap_or(0) == epoch {
                        guard.cache.insert(key, Arc::clone(&frame.image));
                    }
                }
                record(Outcome::Completed);
                self.obs.record_outcome(
                    Some(request.scene.as_str()),
                    request.client.as_deref(),
                    true,
                    frame.cache_hit,
                    latency_s,
                );
            }
            Err(e) => {
                self.collector.record_error();
                record(outcome_for_cluster_error(e));
                self.obs.record_outcome(
                    Some(request.scene.as_str()),
                    request.client.as_deref(),
                    false,
                    false,
                    latency_s,
                );
            }
        }
        result
    }

    /// The overload decision for one cache-missing request: speculative
    /// work sheds as soon as the coordinator is overloaded (in-flight
    /// backlog past [`ClusterConfig::shed_inflight`], or sustained SLO
    /// burn); interactive work browns out to a reduced-SH frame when
    /// configured, and only sheds past twice the backlog threshold.
    fn admit(&self, request: &WireRequest) -> Admission {
        let threshold = self.config.shed_inflight as u64;
        let inflight = self.inflight_total.load(Ordering::Relaxed);
        let backlogged = threshold > 0 && inflight > threshold;
        let hard_backlogged = threshold > 0 && inflight > threshold.saturating_mul(2);
        let overloaded = backlogged || self.slo_burning.load(Ordering::Relaxed);
        match request.priority {
            Priority::Speculative if overloaded => Admission::Shed,
            Priority::Interactive if hard_backlogged => Admission::Shed,
            Priority::Interactive if overloaded => match self.config.brownout_sh_degree {
                Some(floor) if floor < request.sh_degree => Admission::Brownout(floor),
                _ => Admission::Serve,
            },
            _ => Admission::Serve,
        }
    }

    /// Re-evaluates the SLO-burn overload signal feeding
    /// [`Coordinator::admit`]: any SLO whose fast-window burn rate is at
    /// or past the configured threshold (or that is fully breached)
    /// switches shedding/brown-out on. Returns the new signal. Called by
    /// every [`Coordinator::replication_tick`]; tests may drive it
    /// directly.
    pub fn overload_tick(&self) -> bool {
        let threshold = self.config.obs.slo_burn_threshold;
        let burning = self
            .obs
            .slo()
            .report()
            .iter()
            .any(|s| s.breached || (s.fast_total > 0 && s.fast_burn >= threshold));
        let was = self.slo_burning.swap(burning, Ordering::Relaxed);
        if burning != was {
            let message = if burning {
                "sustained SLO burn: shedding speculative work, browning out frames"
            } else {
                "SLO burn cleared: full-fidelity serving restored"
            };
            self.obs
                .recorder()
                .record(Event::new(EventLevel::Warn, "coordinator", message));
        }
        burning
    }

    fn render_inner(
        &self,
        request: &WireRequest,
        started: Instant,
        trace: Option<&TraceContext>,
    ) -> Result<ClusterFrame, ClusterError> {
        let is_sharded = {
            let state = self.state.lock().unwrap();
            let hold = state
                .scenes
                .get(&request.scene)
                .ok_or_else(|| ClusterError::UnknownScene(request.scene.clone()))?;
            matches!(hold.hold, Hold::Sharded { .. })
        };
        if is_sharded {
            self.render_sharded(request, started, trace)
        } else {
            self.render_single(request, started, trace)
        }
    }

    /// Routes a single-scene render to its replica, re-placing the scene
    /// from the host-side hold when the replica is dead or draining.
    fn render_single(
        &self,
        request: &WireRequest,
        started: Instant,
        trace: Option<&TraceContext>,
    ) -> Result<ClusterFrame, ClusterError> {
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let (rid, replica, _inflight) = self.route_single(&request.scene)?;
            // One hop span per attempt: a failover leaves the failed
            // attempt's span in the tree next to the retry's.
            let hop = trace.map(|ctx| ctx.child(format!("call:{}", replica.name())));
            let hop_ctx = match (&hop, trace) {
                (Some(span), Some(ctx)) => Some(ctx.at(span.id())),
                _ => None,
            };
            match replica.render(request, hop_ctx.as_ref()) {
                Ok((image, shards)) => {
                    return Ok(ClusterFrame {
                        image: Arc::new(image),
                        scene: request.scene.clone(),
                        shards_rendered: shards,
                        shards_culled: 0,
                        replica: Some(replica.name().to_string()),
                        cache_hit: false,
                        latency: started.elapsed(),
                    });
                }
                Err(e) if failover_worthy(&e) => {
                    self.mark_down(rid);
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    self.obs.recorder().record(
                        Event::new(
                            EventLevel::Warn,
                            "coordinator",
                            "render failover: replica unreachable or shedding",
                        )
                        .scene(request.scene.clone())
                        .replica(replica.name().to_string())
                        .field("attempt", attempts.to_string()),
                    );
                    if attempts > self.config.max_failovers {
                        return Err(ClusterError::Exhausted {
                            scene: request.scene.clone(),
                            attempts,
                        });
                    }
                }
                Err(ReplicaError::Serve(ServeError::UnknownScene(_))) => {
                    // The replica is alive but lost its copy: reload it in
                    // place (the bytes are still accounted there) and retry,
                    // instead of declaring a healthy replica dead.
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    if attempts > self.config.max_failovers {
                        return Err(ClusterError::Exhausted {
                            scene: request.scene.clone(),
                            attempts,
                        });
                    }
                    match self.repair_placement(&request.scene, None, rid) {
                        Repair::Repaired => {}
                        Repair::Gone => {
                            return Err(ClusterError::UnknownScene(request.scene.clone()))
                        }
                        Repair::Failed => self.mark_down(rid),
                    }
                }
                Err(ReplicaError::Serve(e)) => return Err(ClusterError::Serve(e)),
                Err(ReplicaError::Transport(_)) => unreachable!("covered by failover_worthy"),
            }
        }
    }

    /// Reloads a placement copy the replica `rid` reported lost (see
    /// [`Repair`]). The copy's bytes stay accounted to its replica, so no
    /// budget moves. When `rid` is no longer in the placement's replica
    /// set (the copy moved or was de-replicated concurrently) there is
    /// nothing to repair — the retry re-routes to the current set.
    fn repair_placement(&self, id: &SceneId, shard: Option<usize>, rid: ReplicaId) -> Repair {
        let (replica, on_replica_id, params, background) = {
            let state = self.state.lock().unwrap();
            let Some(hold) = state.scenes.get(id) else {
                return Repair::Gone;
            };
            match (&hold.hold, shard) {
                (
                    Hold::Single {
                        replicas, params, ..
                    },
                    None,
                ) => {
                    if !replicas.contains(&rid) {
                        return Repair::Repaired;
                    }
                    (
                        Arc::clone(&state.replicas[rid].replica),
                        id.clone(),
                        Arc::clone(params),
                        hold.background,
                    )
                }
                (Hold::Sharded { shards }, Some(k)) => {
                    let Some(shard) = shards.get(k) else {
                        return Repair::Gone;
                    };
                    if !shard.replicas.contains(&rid) {
                        return Repair::Repaired;
                    }
                    (
                        Arc::clone(&state.replicas[rid].replica),
                        shard_scene_id(id, k),
                        Arc::clone(&shard.params),
                        hold.background,
                    )
                }
                // The hold changed shape concurrently; the routed request
                // is stale.
                _ => return Repair::Gone,
            }
        };
        match replica.load_scene(&on_replica_id, &params, background) {
            Ok(()) => {
                self.counters.replacements.fetch_add(1, Ordering::Relaxed);
                self.obs.recorder().record(
                    Event::new(
                        EventLevel::Info,
                        "coordinator",
                        "placement repaired: lost copy reloaded in place",
                    )
                    .scene(id.clone())
                    .replica(replica.name().to_string()),
                );
                Repair::Repaired
            }
            Err(_) => Repair::Failed,
        }
    }

    /// Picks the copy of a replica set a read should hit: power-of-two-
    /// choices over per-replica in-flight counts ([`pick_read_copy`]),
    /// restricted to [`Health::Up`] members. `None` when no copy is up.
    fn pick_up_copy(&self, state: &State, replicas: &[ReplicaId]) -> Option<ReplicaId> {
        let copies: Vec<ReadCandidate> = replicas
            .iter()
            .filter_map(|&rid| {
                let slot = state.replicas.get(rid)?;
                (slot.health == Health::Up).then(|| ReadCandidate {
                    id: rid,
                    inflight: slot.inflight.load(Ordering::Relaxed),
                    placed: slot.placed,
                })
            })
            .collect();
        let salt = self.route_salt.fetch_add(1, Ordering::Relaxed);
        pick_read_copy(&copies, salt)
    }

    /// The serving replica for a single scene: a load-balanced pick over
    /// the up copies of its replica set, or — when no copy is up — a
    /// re-placement that collapses the set onto one healthy replica. The
    /// returned guard holds the chosen replica's in-flight count for the
    /// duration of the hop.
    fn route_single(
        &self,
        id: &SceneId,
    ) -> Result<(ReplicaId, Arc<Replica>, InflightGuard), ClusterError> {
        let (copies, params, background, bytes) = {
            let state = self.state.lock().unwrap();
            let hold = state
                .scenes
                .get(id)
                .ok_or_else(|| ClusterError::UnknownScene(id.clone()))?;
            // A concurrent replacement can change the hold's shape under a
            // routed request; the stale request is answered as unknown.
            let Hold::Single {
                replicas,
                params,
                bytes,
            } = &hold.hold
            else {
                return Err(ClusterError::UnknownScene(id.clone()));
            };
            if let Some(rid) = self.pick_up_copy(&state, replicas) {
                let slot = &state.replicas[rid];
                let guard = InflightGuard::enter(&slot.inflight);
                return Ok((rid, Arc::clone(&slot.replica), guard));
            }
            (
                replicas.clone(),
                Arc::clone(params),
                hold.background,
                *bytes,
            )
        };
        // No copy is up (down or draining): move the placement.
        let new_rid = self.place(id, &params, background, bytes, &copies)?;
        self.commit_move(
            id,
            None,
            &copies,
            new_rid,
            bytes,
            "placement moved off unhealthy replica",
        )
    }

    /// The serving replica for shard `k` (see [`Coordinator::route_single`]
    /// — same copy-set balancing and collapse-on-failure semantics).
    fn route_shard(
        &self,
        id: &SceneId,
        k: usize,
    ) -> Result<(ReplicaId, Arc<Replica>, InflightGuard), ClusterError> {
        let (copies, params, background, bytes) = {
            let state = self.state.lock().unwrap();
            let hold = state
                .scenes
                .get(id)
                .ok_or_else(|| ClusterError::UnknownScene(id.clone()))?;
            let Hold::Sharded { shards } = &hold.hold else {
                return Err(ClusterError::UnknownScene(id.clone()));
            };
            // `k` may be stale if the scene was concurrently re-sharded.
            let Some(shard) = shards.get(k) else {
                return Err(ClusterError::UnknownScene(id.clone()));
            };
            if let Some(rid) = self.pick_up_copy(&state, &shard.replicas) {
                let slot = &state.replicas[rid];
                let guard = InflightGuard::enter(&slot.inflight);
                return Ok((rid, Arc::clone(&slot.replica), guard));
            }
            (
                shard.replicas.clone(),
                Arc::clone(&shard.params),
                hold.background,
                shard.bytes,
            )
        };
        let new_rid = self.place(&shard_scene_id(id, k), &params, background, bytes, &copies)?;
        self.commit_move(
            id,
            Some(k),
            &copies,
            new_rid,
            bytes,
            "placement moved off unhealthy replica",
        )
    }

    /// Commits a placement move after the new replica already holds the
    /// data: if the table's replica set still equals `old`, the move wins —
    /// the set collapses to the new replica, every old copy's bytes are
    /// released and live old copies are unloaded. If a concurrent mover won
    /// or the scene vanished/changed shape, this move's reservation is
    /// released and its redundant on-replica copy unloaded.
    fn commit_move(
        &self,
        id: &SceneId,
        shard: Option<usize>,
        old: &[ReplicaId],
        new_rid: ReplicaId,
        bytes: u64,
        reason: &'static str,
    ) -> Result<(ReplicaId, Arc<Replica>, InflightGuard), ClusterError> {
        let on_replica_id = match shard {
            Some(k) => shard_scene_id(id, k),
            None => id.clone(),
        };
        // `cleanup` unloads redundant copies outside the lock.
        let mut cleanup: Vec<Arc<Replica>> = Vec::new();
        let result = {
            let mut state = self.state.lock().unwrap();
            let replica = Arc::clone(&state.replicas[new_rid].replica);
            let assigned =
                state
                    .scenes
                    .get_mut(id)
                    .and_then(|hold| match (&mut hold.hold, shard) {
                        (Hold::Single { replicas, .. }, None) => Some(replicas),
                        (Hold::Sharded { shards }, Some(k)) => {
                            shards.get_mut(k).map(|s| &mut s.replicas)
                        }
                        _ => None,
                    });
            match assigned {
                Some(set) if *set == old => {
                    *set = vec![new_rid];
                    // Each old copy's bytes are released; if the move
                    // re-placed in place (`rid == new_rid`) the release
                    // balances the fresh reservation.
                    for &rid in old {
                        if let Some(slot) = state.replicas.get_mut(rid) {
                            slot.placed = slot.placed.saturating_sub(bytes);
                            // A live (up or draining) replica actually
                            // frees its stale copy, so drains converge and
                            // rebalances return memory. (A down replica is
                            // unreachable; its stale copy waits for its
                            // own LRU or a restart.)
                            if slot.health != Health::Down && rid != new_rid {
                                cleanup.push(Arc::clone(&slot.replica));
                            }
                        }
                    }
                    self.counters.replacements.fetch_add(1, Ordering::Relaxed);
                    self.obs.recorder().record(
                        Event::new(EventLevel::Info, "coordinator", reason)
                            .scene(id.clone())
                            .replica(replica.name().to_string()),
                    );
                    let guard = InflightGuard::enter(&state.replicas[new_rid].inflight);
                    Ok((new_rid, replica, guard))
                }
                Some(set) => {
                    // A concurrent mover won. Release our reservation; our
                    // copy is redundant *unless* the winner's set also
                    // names our replica, in which case "our" copy is a
                    // live copy. Route to an up member of the winning set
                    // (or its head — the render retry handles a dead one).
                    let set_snapshot = set.clone();
                    if let Some(mine) = state.replicas.get_mut(new_rid) {
                        mine.placed = mine.placed.saturating_sub(bytes);
                    }
                    if !set_snapshot.contains(&new_rid) {
                        cleanup.push(replica);
                    }
                    match set_snapshot.first() {
                        Some(&head) => {
                            let winner = set_snapshot
                                .iter()
                                .copied()
                                .find(|&r| {
                                    state
                                        .replicas
                                        .get(r)
                                        .is_some_and(|s| s.health == Health::Up)
                                })
                                .unwrap_or(head);
                            let winner_replica = Arc::clone(&state.replicas[winner].replica);
                            let guard = InflightGuard::enter(&state.replicas[winner].inflight);
                            Ok((winner, winner_replica, guard))
                        }
                        None => Err(ClusterError::UnknownScene(id.clone())),
                    }
                }
                None => {
                    // Unloaded or re-shaped while we were loading.
                    if let Some(mine) = state.replicas.get_mut(new_rid) {
                        mine.placed = mine.placed.saturating_sub(bytes);
                    }
                    cleanup.push(replica);
                    Err(ClusterError::UnknownScene(id.clone()))
                }
            }
        };
        for replica in cleanup {
            let _ = replica.unload_scene(&on_replica_id);
        }
        // A committed move changed where the scene's frames come from;
        // drop anything cached under the old placement (frames are
        // byte-identical by construction, but the epoch bump also fences
        // in-flight renders of the pre-move copy).
        if result.is_ok() {
            self.invalidate_cached_scene(id);
        }
        result
    }

    /// Renders shard `k`'s layer with failover, optionally continuing
    /// `into` (the previous shard's relayed layer).
    fn render_shard_layer(
        &self,
        request: &WireRequest,
        id: &SceneId,
        k: usize,
        into: Option<&FrameLayer>,
        trace: Option<&TraceContext>,
    ) -> Result<FrameLayer, ClusterError> {
        // On its replica, shard `k` lives as the single scene `id@k`.
        let mut shard_request = request.clone();
        shard_request.scene = shard_scene_id(id, k);
        shard_request.shard = None;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let (rid, replica, _inflight) = self.route_shard(id, k)?;
            // One hop span per attempt (see render_single), named after
            // the shard's on-replica scene id.
            let hop = trace.map(|ctx| ctx.child(format!("relay:{id}@{k}")));
            let hop_ctx = match (&hop, trace) {
                (Some(span), Some(ctx)) => Some(ctx.at(span.id())),
                _ => None,
            };
            match replica.render_layer(&shard_request, into, hop_ctx.as_ref()) {
                Ok(layer) => return Ok(layer),
                Err(e) if failover_worthy(&e) => {
                    self.mark_down(rid);
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    if attempts > self.config.max_failovers {
                        return Err(ClusterError::Exhausted {
                            scene: id.clone(),
                            attempts,
                        });
                    }
                }
                Err(ReplicaError::Serve(ServeError::UnknownScene(_))) => {
                    // The replica lost the shard while staying alive:
                    // reload it in place and retry (see render_single).
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    if attempts > self.config.max_failovers {
                        return Err(ClusterError::Exhausted {
                            scene: id.clone(),
                            attempts,
                        });
                    }
                    match self.repair_placement(id, Some(k), rid) {
                        Repair::Repaired => {}
                        Repair::Gone => return Err(ClusterError::UnknownScene(id.clone())),
                        Repair::Failed => self.mark_down(rid),
                    }
                }
                Err(ReplicaError::Serve(e)) => return Err(ClusterError::Serve(e)),
                Err(ReplicaError::Transport(_)) => unreachable!("covered by failover_worthy"),
            }
        }
    }

    /// The cross-node sharded render: cull, depth-order, then relay the
    /// running layer through each visible shard's replica.
    fn render_sharded(
        &self,
        request: &WireRequest,
        started: Instant,
        trace: Option<&TraceContext>,
    ) -> Result<ClusterFrame, ClusterError> {
        let (background, shard_meta) = {
            let state = self.state.lock().unwrap();
            let hold = state
                .scenes
                .get(&request.scene)
                .ok_or_else(|| ClusterError::UnknownScene(request.scene.clone()))?;
            let Hold::Sharded { shards } = &hold.hold else {
                // Concurrently replaced by a single-scene hold.
                return Err(ClusterError::UnknownScene(request.scene.clone()));
            };
            let meta: Vec<(Aabb, f32)> = shards.iter().map(|s| (s.aabb, s.max_scale)).collect();
            (hold.background, meta)
        };
        // The exact shard selection and ordering the single-node composite
        // uses (shared helper), so the relay renders the same shard
        // sequence.
        let render_request = request.to_render_request();
        let aabbs: Vec<Aabb> = shard_meta.iter().map(|(aabb, _)| *aabb).collect();
        let visible: Vec<usize> = if self.config.cull_shards {
            let max_scales: Vec<f32> = shard_meta.iter().map(|(_, s)| *s).collect();
            visible_shards(
                &aabbs,
                &max_scales,
                &render_request.camera,
                &render_request.viewport,
            )
        } else {
            gs_serve::depth_order(&aabbs, &render_request.camera)
        };
        let culled = shard_meta.len() - visible.len();
        self.counters
            .shards_culled
            .fetch_add(culled as u64, Ordering::Relaxed);

        let (width, height) = request.frame_size();
        let mut layer: Option<FrameLayer> = None;
        for &k in &visible {
            layer =
                Some(self.render_shard_layer(request, &request.scene, k, layer.as_ref(), trace)?);
            self.counters.shard_relays.fetch_add(1, Ordering::Relaxed);
        }
        let layer = layer.unwrap_or_else(|| FrameLayer::new(width, height));
        Ok(ClusterFrame {
            image: Arc::new(layer.finish(background)),
            scene: request.scene.clone(),
            shards_rendered: visible.len(),
            shards_culled: culled,
            replica: None,
            cache_hit: false,
            latency: started.elapsed(),
        })
    }

    /// A cluster-wide statistics snapshot: coordinator counters plus every
    /// replica's report fanned in, with latency reservoirs merged.
    pub fn stats(&self) -> ClusterStats {
        let slots: Vec<(String, Health, u64, Arc<Replica>)> = {
            let state = self.state.lock().unwrap();
            state
                .replicas
                .iter()
                .map(|slot| {
                    (
                        slot.replica.name().to_string(),
                        slot.health,
                        slot.placed,
                        Arc::clone(&slot.replica),
                    )
                })
                .collect()
        };
        // Reports fan out concurrently, like probe_all: a dead replica's
        // timeout must not serialize into the whole snapshot's latency.
        let replicas: Vec<ReplicaReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = slots
                .into_iter()
                .map(|(name, health, placed_bytes, replica)| {
                    scope.spawn(move || ReplicaReport {
                        name,
                        health,
                        placed_bytes,
                        report: replica.stats_report().ok(),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let reports: Vec<&gs_serve::StatsReport> =
            replicas.iter().filter_map(|r| r.report.as_ref()).collect();
        let merged = merge_latency(&reports);
        let cache = self
            .cache
            .as_ref()
            .map(|c| c.lock().unwrap().cache.stats())
            .unwrap_or_default();
        let own = self.collector.snapshot(cache);
        ClusterStats {
            completed: own.completed,
            errors: own.errors,
            cache_hits: own.fast_hits,
            cache: own.cache,
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            replacements: self.counters.replacements.load(Ordering::Relaxed),
            shard_relays: self.counters.shard_relays.load(Ordering::Relaxed),
            shards_culled: self.counters.shards_culled.load(Ordering::Relaxed),
            replications: self.counters.replications.load(Ordering::Relaxed),
            dereplications: self.counters.dereplications.load(Ordering::Relaxed),
            rebalances: self.counters.rebalances.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            brownouts: self.counters.brownouts.load(Ordering::Relaxed),
            latency: own.latency,
            merged_replica_latency: merged,
            replicas,
            hot_scenes: self.obs.heat_scenes().snapshot().0,
        }
    }

    /// One pass of the heat-driven replication engine (the
    /// [`crate::replication::ReplicationManager`] calls this periodically;
    /// tests drive it directly):
    ///
    /// 1. re-evaluates the SLO-burn overload signal,
    /// 2. prunes dead copies (replica down, a live copy remains),
    /// 3. replicates placements of scenes at or above
    ///    [`ReplicationConfig::replicate_rate_per_s`] onto one more
    ///    replica each (up to [`ReplicationConfig::max_copies`]), loading
    ///    the copy from the host-side hold,
    /// 4. de-replicates scenes that stayed below
    ///    [`ReplicationConfig::dereplicate_rate_per_s`] for
    ///    [`ReplicationConfig::cool_ticks`] consecutive ticks (newest copy
    ///    retired first; budget returns to the pool),
    /// 5. rebalances at most one single-copy scene onto a cold
    ///    (drained-then-rejoined) replica, coolest scene first,
    /// 6. refreshes the `gs_replication_copies{scene}` gauges.
    ///
    /// Every placement mutation invalidates the coordinator frame cache
    /// for the touched scene, so load-balanced reads never serve a frame
    /// cached under a stale placement.
    pub fn replication_tick(&self) -> ReplicationReport {
        let mut report = ReplicationReport {
            overloaded: self.overload_tick(),
            ..ReplicationReport::default()
        };
        let (rows, _) = self.obs.heat_scenes().snapshot();
        report.pruned = self.prune_dead_copies();
        let (adds, retires) = self.plan_replication(&rows);
        for add in adds {
            if self.execute_add(add) {
                report.replicated += 1;
            }
        }
        for retire in retires {
            if self.execute_retire(retire) {
                report.dereplicated += 1;
            }
        }
        if self.config.replication.rebalance {
            report.rebalanced = self.rebalance_once(&rows);
        }
        self.refresh_copy_gauges();
        report
    }

    /// Drops copies held on down replicas (their data is unreachable and
    /// may be gone on restart) as long as at least one live copy remains,
    /// releasing the dead replica's budget accounting. Returns how many
    /// copies were dropped.
    fn prune_dead_copies(&self) -> usize {
        let mut pruned = 0usize;
        let mut touched: Vec<SceneId> = Vec::new();
        {
            let mut state = self.state.lock().unwrap();
            let State {
                replicas, scenes, ..
            } = &mut *state;
            for (id, hold) in scenes.iter_mut() {
                let placements: Vec<(&mut Vec<ReplicaId>, u64)> = match &mut hold.hold {
                    Hold::Single {
                        replicas: set,
                        bytes,
                        ..
                    } => vec![(set, *bytes)],
                    Hold::Sharded { shards } => shards
                        .iter_mut()
                        .map(|s| (&mut s.replicas, s.bytes))
                        .collect(),
                };
                let mut scene_pruned = false;
                for (set, bytes) in placements {
                    if set.len() <= 1 {
                        continue;
                    }
                    let any_live = set
                        .iter()
                        .any(|&r| replicas.get(r).is_some_and(|s| s.health != Health::Down));
                    if !any_live {
                        // Every copy is dead; leave the set for the
                        // on-demand re-placement in routing.
                        continue;
                    }
                    let before = set.len();
                    set.retain(|&r| {
                        let dead = replicas.get(r).is_none_or(|s| s.health == Health::Down);
                        if dead {
                            if let Some(slot) = replicas.get_mut(r) {
                                slot.placed = slot.placed.saturating_sub(bytes);
                            }
                        }
                        !dead
                    });
                    if set.len() < before {
                        pruned += before - set.len();
                        scene_pruned = true;
                    }
                }
                if scene_pruned {
                    touched.push(id.clone());
                }
            }
        }
        for id in touched {
            self.counters.dereplications.fetch_add(1, Ordering::Relaxed);
            self.invalidate_cached_scene(&id);
            self.obs.recorder().record(
                Event::new(
                    EventLevel::Info,
                    "coordinator",
                    "dead replication copy pruned; surviving copies serve",
                )
                .scene(id),
            );
        }
        pruned
    }

    /// Plans this tick's copy additions and retirements from the heat
    /// snapshot (one lock pass, no replica I/O).
    fn plan_replication(&self, rows: &[HeatRow]) -> (Vec<AddCopy>, Vec<RetireCopy>) {
        let cfg = &self.config.replication;
        let rate_of = |key: &str| {
            rows.iter()
                .find(|r| r.key == key)
                .map_or(0.0, |r| r.rate_per_s)
        };
        let mut adds = Vec::new();
        let mut retires = Vec::new();
        let mut cool = self.cool.lock().unwrap();
        let state = self.state.lock().unwrap();
        for (id, hold) in &state.scenes {
            let rate = rate_of(id);
            let placements: Vec<PlacementSite<'_>> = match &hold.hold {
                Hold::Single {
                    replicas,
                    params,
                    bytes,
                } => vec![(None, id.clone(), replicas, params, *bytes)],
                Hold::Sharded { shards } => shards
                    .iter()
                    .enumerate()
                    .map(|(k, s)| {
                        (
                            Some(k),
                            shard_scene_id(id, k),
                            &s.replicas,
                            &s.params,
                            s.bytes,
                        )
                    })
                    .collect(),
            };
            let has_extra = placements.iter().any(|(_, _, set, _, _)| set.len() > 1);
            if cfg.max_copies > 1 && rate >= cfg.replicate_rate_per_s {
                cool.remove(id);
                for (shard, site, set, params, bytes) in placements {
                    if set.len() < cfg.max_copies {
                        adds.push(AddCopy {
                            scene: id.clone(),
                            shard,
                            site,
                            params: Arc::clone(params),
                            background: hold.background,
                            bytes,
                            exclude: set.clone(),
                        });
                    }
                }
            } else if has_extra && rate < cfg.dereplicate_rate_per_s {
                let ticks = cool.entry(id.clone()).or_insert(0);
                *ticks += 1;
                if *ticks >= cfg.cool_ticks.max(1) {
                    cool.remove(id);
                    for (shard, site, set, _, bytes) in placements {
                        if set.len() > 1 {
                            retires.push(RetireCopy {
                                scene: id.clone(),
                                shard,
                                site,
                                // The newest copy retires; the primary
                                // (set head) stays.
                                rid: *set.last().expect("non-empty set"),
                                bytes,
                            });
                        }
                    }
                }
            } else {
                cool.remove(id);
            }
        }
        cool.retain(|k, _| state.scenes.contains_key(k));
        (adds, retires)
    }

    /// Loads one planned replication copy onto a fresh replica and commits
    /// it into the placement's replica set (unless the set changed since
    /// planning, in which case the copy is rolled back).
    fn execute_add(&self, add: AddCopy) -> bool {
        let Ok(new_rid) = self.place(
            &add.site,
            &add.params,
            add.background,
            add.bytes,
            &add.exclude,
        ) else {
            return false;
        };
        let mut rollback: Option<Arc<Replica>> = None;
        let committed = {
            let mut state = self.state.lock().unwrap();
            let replica = Arc::clone(&state.replicas[new_rid].replica);
            let set = state.scenes.get_mut(&add.scene).and_then(|hold| {
                match (&mut hold.hold, add.shard) {
                    (Hold::Single { replicas, .. }, None) => Some(replicas),
                    (Hold::Sharded { shards }, Some(k)) => {
                        shards.get_mut(k).map(|s| &mut s.replicas)
                    }
                    _ => None,
                }
            });
            match set {
                Some(set) if *set == add.exclude && !set.contains(&new_rid) => {
                    set.push(new_rid);
                    true
                }
                _ => {
                    if let Some(slot) = state.replicas.get_mut(new_rid) {
                        slot.placed = slot.placed.saturating_sub(add.bytes);
                    }
                    rollback = Some(replica);
                    false
                }
            }
        };
        if let Some(replica) = rollback {
            let _ = replica.unload_scene(&add.site);
            return false;
        }
        if committed {
            self.counters.replications.fetch_add(1, Ordering::Relaxed);
            self.invalidate_cached_scene(&add.scene);
            self.obs.recorder().record(
                Event::new(
                    EventLevel::Info,
                    "coordinator",
                    "hot scene replicated onto an extra replica",
                )
                .scene(add.scene)
                .field("copies", (add.exclude.len() + 1).to_string()),
            );
        }
        committed
    }

    /// Retires one planned copy: removes it from the set, releases its
    /// budget and unloads it from its (live) replica.
    fn execute_retire(&self, retire: RetireCopy) -> bool {
        let mut unload: Option<Arc<Replica>> = None;
        let committed = {
            let mut state = self.state.lock().unwrap();
            let State {
                replicas, scenes, ..
            } = &mut *state;
            let set = scenes.get_mut(&retire.scene).and_then(|hold| {
                match (&mut hold.hold, retire.shard) {
                    (Hold::Single { replicas, .. }, None) => Some(replicas),
                    (Hold::Sharded { shards }, Some(k)) => {
                        shards.get_mut(k).map(|s| &mut s.replicas)
                    }
                    _ => None,
                }
            });
            match set {
                Some(set) if set.len() > 1 => match set.iter().position(|&r| r == retire.rid) {
                    Some(pos) => {
                        set.remove(pos);
                        if let Some(slot) = replicas.get_mut(retire.rid) {
                            slot.placed = slot.placed.saturating_sub(retire.bytes);
                            if slot.health != Health::Down {
                                unload = Some(Arc::clone(&slot.replica));
                            }
                        }
                        true
                    }
                    None => false,
                },
                _ => false,
            }
        };
        if let Some(replica) = unload {
            let _ = replica.unload_scene(&retire.site);
        }
        if committed {
            self.counters.dereplications.fetch_add(1, Ordering::Relaxed);
            self.invalidate_cached_scene(&retire.scene);
            self.obs.recorder().record(
                Event::new(
                    EventLevel::Info,
                    "coordinator",
                    "cooled scene de-replicated; budget returned to the pool",
                )
                .scene(retire.scene),
            );
        }
        committed
    }

    /// Moves at most one single-copy scene from the most-loaded up replica
    /// onto the least-loaded one (a drained-then-rejoined replica sits at
    /// zero placed bytes) when the move strictly narrows the imbalance.
    /// The coolest eligible scene moves first, so hot placements stay put.
    fn rebalance_once(&self, rows: &[HeatRow]) -> usize {
        let rate_of = |key: &str| {
            rows.iter()
                .find(|r| r.key == key)
                .map_or(0.0, |r| r.rate_per_s)
        };
        let plan = {
            let state = self.state.lock().unwrap();
            let up: Vec<(ReplicaId, u64)> = state
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, s)| s.health == Health::Up)
                .map(|(i, s)| (i, s.placed))
                .collect();
            if up.len() < 2 {
                return 0;
            }
            let &(cold, cold_placed) = up.iter().min_by_key(|&&(id, placed)| (placed, id)).unwrap();
            let &(busy, busy_placed) = up.iter().max_by_key(|&&(id, placed)| (placed, id)).unwrap();
            if cold == busy || busy_placed == cold_placed {
                return 0;
            }
            let free_on_cold = state.replicas[cold].budget.saturating_sub(cold_placed);
            let mut candidates: Vec<RebalanceCandidate> = state
                .scenes
                .iter()
                .filter_map(|(id, hold)| match &hold.hold {
                    Hold::Single {
                        replicas,
                        params,
                        bytes,
                    } if *replicas == [busy] => Some((
                        id.clone(),
                        Arc::clone(params),
                        hold.background,
                        *bytes,
                        rate_of(id),
                    )),
                    _ => None,
                })
                .collect();
            candidates.sort_by(|a, b| a.4.total_cmp(&b.4).then_with(|| a.0.cmp(&b.0)));
            candidates
                .into_iter()
                .find(|(_, _, _, bytes, _)| {
                    *bytes <= free_on_cold && cold_placed + *bytes < busy_placed
                })
                .map(|(id, params, background, bytes, _)| {
                    (id, params, background, bytes, cold, busy)
                })
        };
        let Some((id, params, background, bytes, cold, busy)) = plan else {
            return 0;
        };
        let Some(replica) = self.reserve_on(cold, bytes) else {
            return 0;
        };
        if replica.load_scene(&id, &params, background).is_err() {
            self.release(cold, bytes);
            let _ = replica.unload_scene(&id);
            return 0;
        }
        match self.commit_move(
            &id,
            None,
            &[busy],
            cold,
            bytes,
            "placement rebalanced onto a cold replica",
        ) {
            Ok(_) => {
                self.counters.rebalances.fetch_add(1, Ordering::Relaxed);
                1
            }
            Err(_) => 0,
        }
    }

    /// Updates the `gs_replication_copies{scene}` gauge for every loaded
    /// scene (max copies across its shards).
    fn refresh_copy_gauges(&self) {
        let copies: Vec<(SceneId, usize)> = {
            let state = self.state.lock().unwrap();
            state
                .scenes
                .iter()
                .map(|(id, hold)| {
                    let copies = match &hold.hold {
                        Hold::Single { replicas, .. } => replicas.len(),
                        Hold::Sharded { shards } => {
                            shards.iter().map(|s| s.replicas.len()).max().unwrap_or(0)
                        }
                    };
                    (id.clone(), copies)
                })
                .collect()
        };
        let registry = self.obs.registry();
        for (id, count) in copies {
            registry
                .gauge(
                    "gs_replication_copies",
                    &[("scene", id.as_str())],
                    "Replicas currently holding a copy of the scene (max over its shards).",
                )
                .set(count as f64);
        }
    }
}
