//! The cluster coordinator: one façade over N replicas.
//!
//! The [`Coordinator`] owns scene placement (see [`crate::placement`]),
//! routes renders by scene id, and turns replica failures into failovers
//! instead of errors: every scene's parameters are held host-side, so when
//! a replica stops answering the coordinator marks it down, re-loads the
//! affected placement onto a healthy replica and retries — the client
//! never sees the death as long as capacity remains.
//!
//! The unit of placement is a **site**: a whole scene, or one shard of a
//! sharded scene, together with the replica *set* serving it (primary plus
//! replication copies). Routing, failover, lost-copy repair, moves and
//! replication each have one body that works on a site; the scene's shape
//! only matters where behaviour differs — a whole scene renders its image
//! on one replica, a sharded one relays a layer through its visible
//! shards, and only whole scenes are rebalanced.
//!
//! Placement also reacts to **popularity**, not just death:
//! [`Coordinator::replication_tick`] — driven periodically by
//! [`crate::replication::ReplicationManager`] — replicates hot sites onto
//! extra replicas from the host-side holds, routes reads across the copies
//! with power-of-two-choices over per-replica in-flight counts,
//! de-replicates as scenes cool, and rebalances single-copy scenes onto
//! drained-then-rejoined replicas. Under sustained SLO burn the
//! coordinator sheds [`gs_serve::wire::Priority::Speculative`] requests and
//! serves interactive requests as reduced-SH brown-out frames instead of
//! failing them (see [`ClusterConfig::brownout_sh_degree`]).
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
use std::sync::{Arc, Mutex, OnceLock};
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
    pick_read_copy, pick_replica, site_id, Hold, PlacementCandidate, ReadCandidate, SceneHold,
    ScenePlacement, ShardHold, Site,
};
use crate::replica::{Health, Replica, ReplicaError, ReplicaId, ReplicaTransport};
use crate::replication::ReplicationConfig;
use crate::stats::{merge_latency, ClusterStats, ReplicaReport};

/// How many times one request (or one placement) may fail over to another
/// replica before the coordinator gives up.
const MAX_FAILOVERS: usize = 2;

/// Configuration of a [`Coordinator`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
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
    /// Interpretation-layer tuning (SLO windows, heat table, flight
    /// recorder, watcher cadence), shared with the replica tier.
    pub obs: ObsTuning,
    /// Heat-driven replication policy (copy counts, replicate /
    /// de-replicate rate thresholds, cool-down hysteresis, rebalancing) —
    /// consumed by [`Coordinator::replication_tick`].
    pub replication: ReplicationConfig,
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
            shard_bytes: 32 << 20,
            cache_bytes: 0,
            pose_quant: 0.05,
            node: "gs-cluster".to_string(),
            trace_sample_every: 0,
            obs: ObsTuning::default(),
            replication: ReplicationConfig::default(),
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
    /// The request was shed by priority-aware overload protection: under
    /// sustained SLO burn, speculative work sheds.
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

impl State {
    /// Site `shard` of scene `id` with the scene's background; `None` when
    /// the scene is not loaded or has no such site (a concurrent
    /// replacement changed its shape under a routed request).
    fn site(&self, id: &SceneId, shard: Option<usize>) -> Option<(&Site, [f32; 3])> {
        let hold = self.scenes.get(id)?;
        Some((hold.site(shard)?, hold.background))
    }

    fn site_mut(&mut self, id: &SceneId, shard: Option<usize>) -> Option<&mut Site> {
        self.scenes.get_mut(id)?.site_mut(shard)
    }

    /// Routes one hop to replica `rid`, entering its in-flight count.
    fn routed(&self, rid: ReplicaId) -> Routed {
        let slot = &self.replicas[rid];
        let guard = InflightGuard::enter(&slot.inflight);
        (rid, Arc::clone(&slot.replica), guard)
    }
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

/// Decrements a replica's in-flight count on drop; created when a render
/// is routed to that replica.
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

/// A planned change to one site's replica set (phase output of
/// [`Coordinator::replication_tick`], executed outside the state lock).
struct SitePlan {
    scene: SceneId,
    shard: Option<usize>,
    /// The replica set at planning time.
    set: Vec<ReplicaId>,
    params: Arc<GaussianParams>,
    background: [f32; 3],
    bytes: u64,
}

/// A rebalance candidate: (scene id, params, background, bytes, heat rate).
type RebalanceCandidate = (SceneId, Arc<GaussianParams>, [f32; 3], u64, f64);

/// A site's replica set resolved for one hop: the chosen replica, its
/// transport and the guard holding its in-flight count.
type Routed = (ReplicaId, Arc<Replica>, InflightGuard);

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
    /// Optional workload-capture hook, set once ([`Coordinator::set_recorder`]):
    /// every render answered by the coordinator — cache hit, completion or
    /// error — is appended as a [`gs_trace::TraceEvent`].
    recorder: OnceLock<Arc<TraceRecorder>>,
    /// The coordinator tier's observability state: trace sampling, the
    /// finished-span ring, and the metrics registry the stats collector
    /// shares (kernel-phase sampling stays off — the coordinator never
    /// runs render kernels itself). `Arc` so the watcher thread holds it.
    obs: Arc<ServeObs>,
    /// Background watcher driving SLO evaluation and incident capture;
    /// `None` when [`ObsTuning::watcher_interval_ms`] is zero. Joined on
    /// drop.
    _watcher: Option<Watcher>,
    /// Latched by [`Coordinator::overload_tick`]: whether any SLO is
    /// burning, which switches shedding/brown-out on.
    slo_burning: AtomicBool,
    /// Advances once per routed read; feeds the deterministic probe-pair
    /// selection of [`pick_read_copy`].
    route_salt: AtomicU64,
    /// Consecutive replication ticks each scene has spent below the
    /// de-replication rate (the cool-down hysteresis).
    cool: Mutex<HashMap<SceneId, u32>>,
    /// `gs_shed_total{priority="speculative"}` handle (interactive
    /// requests brown out or serve, never shed).
    shed_metric: Counter,
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
            &config.obs,
        ));
        let watcher = (config.obs.watcher_interval_ms > 0).then(|| {
            let obs = Arc::clone(&obs);
            Watcher::spawn(
                "gs-obs-watcher",
                Duration::from_millis(config.obs.watcher_interval_ms),
                move || {
                    obs.watch_tick();
                },
            )
        });
        // Register the overload series up front so `/metrics` exposes them
        // at zero before the first shed/brown-out.
        let shed_help = "Requests shed by priority-aware overload protection.";
        let shed_metric =
            metrics.counter("gs_shed_total", &[("priority", "speculative")], shed_help);
        metrics.counter("gs_shed_total", &[("priority", "interactive")], shed_help);
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
            recorder: OnceLock::new(),
            obs,
            _watcher: watcher,
            slo_burning: AtomicBool::new(false),
            route_salt: AtomicU64::new(0),
            cool: Mutex::new(HashMap::new()),
            shed_metric,
            brownout_metric,
        }
    }

    /// The coordinator tier's observability state (trace sampling, span
    /// ring, metrics registry, SLO engine, heat tables, flight recorder).
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Installs the workload recorder, once (a second call panics): from
    /// now on every render answered by [`Coordinator::render`] is captured
    /// as a trace event (scene, client, pose, deadline, outcome, latency),
    /// timestamped on the recorder's clock at arrival.
    pub fn set_recorder(&self, recorder: Arc<TraceRecorder>) {
        assert!(self.recorder.set(recorder).is_ok(), "recorder already set");
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
        for _ in 0..=MAX_FAILOVERS {
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
        let bytes = params.total_bytes() as u64;
        let hold = Hold::Single(Site::unplaced(params, bytes));
        self.install(id.into(), background, hold).map(|_| ())
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
        let shards = shard_scene(&params, shards)
            .into_iter()
            .map(|source| ShardHold {
                site: Site::unplaced(source.params, source.bytes),
                aabb: source.aabb,
                max_scale: source.max_scale,
            })
            .collect();
        self.install(id.into(), background, Hold::Sharded(shards))
    }

    /// Places every site of a new hold, then commits the hold in place of
    /// whatever `id` held before. Returns how many sites were placed.
    fn install(
        &self,
        id: SceneId,
        background: [f32; 3],
        hold: Hold,
    ) -> Result<usize, ClusterError> {
        let mut hold = SceneHold { background, hold };
        let mut failure = None;
        for (shard, site) in hold.sites_mut() {
            let on_replica = site_id(&id, shard);
            match self.place(&on_replica, &site.params, background, site.bytes, &[]) {
                Ok(rid) => site.replicas.push(rid),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            self.roll_back(&id, &hold);
            return Err(e);
        }
        let count = hold.sites().len();
        let stale = self.commit_scene(id.clone(), hold);
        // After the commit: in-flight renders of the replaced parameters
        // captured the pre-bump epoch and cannot re-insert stale frames.
        self.invalidate_cached_scene(&id);
        self.unload_holds(stale);
        Ok(count)
    }

    /// Undoes the sites a failed [`Coordinator::install`] already placed.
    /// A site the *still committed* old hold also occupies was replaced in
    /// place by the failed attempt — the old site's data is restored there
    /// instead of unloaded, so a failed replacement leaves the existing
    /// scene serving.
    fn roll_back(&self, id: &SceneId, attempt: &SceneHold) {
        for (shard, site) in attempt.sites() {
            let Some(&rid) = site.replicas.first() else {
                continue;
            };
            self.release(rid, site.bytes);
            let on_replica = site_id(id, shard);
            let (replica, restore) = {
                let state = self.state.lock().unwrap();
                let restore = state.scenes.get(id).and_then(|old| {
                    old.site(shard)
                        .filter(|s| s.replicas.contains(&rid))
                        .map(|s| (Arc::clone(&s.params), old.background))
                });
                (Arc::clone(&state.replicas[rid].replica), restore)
            };
            match restore {
                Some((params, background)) => {
                    let _ = replica.load_scene(&on_replica, &params, background);
                }
                None => {
                    let _ = replica.unload_scene(&on_replica);
                }
            }
        }
    }

    /// Every copy of every site of a hold: `(replica, on-replica id,
    /// bytes)`, so a replicated site lists every replica in its set.
    fn copies(id: &SceneId, hold: &SceneHold) -> Vec<(ReplicaId, SceneId, u64)> {
        let mut copies = Vec::new();
        for (shard, site) in hold.sites() {
            let on_replica = site_id(id, shard);
            copies.extend(
                site.replicas
                    .iter()
                    .map(|&r| (r, on_replica.clone(), site.bytes)),
            );
        }
        copies
    }

    /// Installs a scene hold, returning the unload work for whatever it
    /// replaced (performed outside the lock). Old placements that the new
    /// hold re-occupies (same replica, same on-replica id) are *not*
    /// unloaded — the on-replica load already replaced the data in place,
    /// and unloading would delete the copy that was just installed.
    fn commit_scene(&self, id: SceneId, hold: SceneHold) -> Vec<(Arc<Replica>, SceneId)> {
        let kept = Self::copies(&id, &hold);
        let mut state = self.state.lock().unwrap();
        let old = state.scenes.insert(id.clone(), hold);
        match old {
            Some(old) => Self::unplace_locked(&mut state, &id, &old, &kept),
            None => Vec::new(),
        }
    }

    /// Releases an old hold's budget reservations and lists the on-replica
    /// unloads to perform. Copies named in `kept` release their budget but
    /// are not unloaded (the new hold lives there).
    fn unplace_locked(
        state: &mut State,
        id: &SceneId,
        hold: &SceneHold,
        kept: &[(ReplicaId, SceneId, u64)],
    ) -> Vec<(Arc<Replica>, SceneId)> {
        let mut work = Vec::new();
        for (rid, on_replica, bytes) in Self::copies(id, hold) {
            if let Some(slot) = state.replicas.get_mut(rid) {
                slot.placed = slot.placed.saturating_sub(bytes);
                if !kept.iter().any(|(r, s, _)| *r == rid && *s == on_replica) {
                    work.push((Arc::clone(&slot.replica), on_replica));
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
            .map(|(id, hold)| {
                let sites = hold.sites();
                ScenePlacement {
                    id: id.clone(),
                    shards: sites.len(),
                    replicas: sites
                        .iter()
                        .flat_map(|(_, s)| s.replicas.iter().copied())
                        .collect(),
                    gaussians: sites.iter().map(|(_, s)| s.params.len()).sum(),
                    bytes: sites.iter().map(|(_, s)| s.bytes).sum(),
                }
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
        for (id, hold) in &state.scenes {
            for (rid, _, bytes) in Self::copies(id, hold) {
                if let Some(t) = totals.get_mut(rid) {
                    *t += bytes;
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
        let arrival_us = self.recorder.get().map_or(0, |rec| rec.now_us());
        let record = |outcome: Outcome| {
            if let Some(rec) = self.recorder.get() {
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
                self.shed_metric.inc();
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
                    true,
                    frame.cache_hit,
                    latency_s,
                );
            }
            Err(e) => {
                self.collector.record_error();
                record(outcome_for_cluster_error(e));
                let served = !matches!(e, ClusterError::UnknownScene(_));
                let scene = served.then_some(request.scene.as_str());
                self.obs.record_outcome(scene, false, false, latency_s);
            }
        }
        result
    }

    /// The overload decision for one cache-missing request: while an SLO
    /// is burning, speculative work sheds and interactive work browns out
    /// to a reduced-SH frame when configured.
    fn admit(&self, request: &WireRequest) -> Admission {
        if !self.slo_burning.load(Ordering::Relaxed) {
            return Admission::Serve;
        }
        match request.priority {
            Priority::Speculative => Admission::Shed,
            Priority::Interactive => match self.config.brownout_sh_degree {
                Some(floor) if floor < request.sh_degree => Admission::Brownout(floor),
                _ => Admission::Serve,
            },
        }
    }

    /// Re-evaluates the SLO-burn overload signal feeding
    /// `Coordinator::admit`: any SLO whose fast-window burn rate is at
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

    /// Render dispatch, the one place the render path reads the scene's
    /// shape: a whole scene renders its image on one replica, a sharded
    /// scene relays a layer through its visible shards.
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
            matches!(hold.hold, Hold::Sharded(_))
        };
        if is_sharded {
            return self.render_sharded(request, started, trace);
        }
        let ((image, shards), replica) = self.call_site(
            &request.scene,
            None,
            trace,
            |replica| format!("call:{}", replica.name()),
            |replica, ctx| replica.render(request, ctx),
        )?;
        Ok(ClusterFrame {
            image: Arc::new(image),
            scene: request.scene.clone(),
            shards_rendered: shards,
            shards_culled: 0,
            replica: Some(replica.name().to_string()),
            cache_hit: false,
            latency: started.elapsed(),
        })
    }

    /// Runs `call` against a replica serving site `shard` of scene `id`,
    /// with failover. A replica that is unreachable or shedding is marked
    /// down and the site routed again (re-placed from the host-side hold
    /// when no copy is up); a replica that answers `UnknownScene` is alive
    /// but lost its copy, which is reloaded in place. Each attempt records
    /// one hop span named by `hop`, so a failover leaves the failed
    /// attempt's span in the tree next to the retry's. Returns the call's
    /// value and the replica that answered.
    fn call_site<T>(
        &self,
        id: &SceneId,
        shard: Option<usize>,
        trace: Option<&TraceContext>,
        hop: impl Fn(&Replica) -> String,
        call: impl Fn(&Replica, Option<&TraceContext>) -> Result<T, ReplicaError>,
    ) -> Result<(T, Arc<Replica>), ClusterError> {
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let (rid, replica, _inflight) = self.route(id, shard)?;
            let span = trace.map(|ctx| ctx.child(hop(&replica)));
            let hop_ctx = match (&span, trace) {
                (Some(span), Some(ctx)) => Some(ctx.at(span.id())),
                _ => None,
            };
            let lost_copy = match call(&replica, hop_ctx.as_ref()) {
                Ok(value) => return Ok((value, replica)),
                Err(e) if failover_worthy(&e) => {
                    self.mark_down(rid);
                    self.obs.recorder().record(
                        Event::new(
                            EventLevel::Warn,
                            "coordinator",
                            "render failover: replica unreachable or shedding",
                        )
                        .scene(id.clone())
                        .replica(replica.name().to_string())
                        .field("attempt", attempts.to_string()),
                    );
                    false
                }
                Err(ReplicaError::Serve(ServeError::UnknownScene(_))) => true,
                Err(ReplicaError::Serve(e)) => return Err(ClusterError::Serve(e)),
                Err(ReplicaError::Transport(_)) => unreachable!("covered by failover_worthy"),
            };
            self.counters.failovers.fetch_add(1, Ordering::Relaxed);
            if attempts > MAX_FAILOVERS {
                return Err(ClusterError::Exhausted {
                    scene: id.clone(),
                    attempts,
                });
            }
            // A lost copy is reloaded in place (its bytes are still
            // accounted there) instead of declaring a healthy replica dead.
            if lost_copy {
                match self.repair_placement(id, shard, rid) {
                    Repair::Repaired => {}
                    Repair::Gone => return Err(ClusterError::UnknownScene(id.clone())),
                    Repair::Failed => self.mark_down(rid),
                }
            }
        }
    }

    /// Reloads the copy of site `shard` the replica `rid` reported lost
    /// (see [`Repair`]). The copy's bytes stay accounted to its replica, so
    /// no budget moves. When `rid` is no longer in the site's replica set
    /// (the copy moved or was de-replicated concurrently) there is nothing
    /// to repair — the retry re-routes to the current set.
    fn repair_placement(&self, id: &SceneId, shard: Option<usize>, rid: ReplicaId) -> Repair {
        let (replica, params, background) = {
            let state = self.state.lock().unwrap();
            let Some((site, background)) = state.site(id, shard) else {
                return Repair::Gone;
            };
            if !site.replicas.contains(&rid) {
                return Repair::Repaired;
            }
            let replica = Arc::clone(&state.replicas[rid].replica);
            (replica, Arc::clone(&site.params), background)
        };
        match replica.load_scene(&site_id(id, shard), &params, background) {
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

    /// The serving replica for site `shard` of scene `id`: a load-balanced
    /// pick over the up copies of its replica set, or — when no copy is up
    /// — a re-placement that collapses the set onto one healthy replica.
    fn route(&self, id: &SceneId, shard: Option<usize>) -> Result<Routed, ClusterError> {
        let (copies, params, background, bytes) = {
            let state = self.state.lock().unwrap();
            let (site, background) = state
                .site(id, shard)
                .ok_or_else(|| ClusterError::UnknownScene(id.clone()))?;
            if let Some(rid) = self.pick_up_copy(&state, &site.replicas) {
                return Ok(state.routed(rid));
            }
            let params = Arc::clone(&site.params);
            (site.replicas.clone(), params, background, site.bytes)
        };
        // No copy is up (down or draining): move the site.
        let new_rid = self.place(&site_id(id, shard), &params, background, bytes, &copies)?;
        self.commit_move(
            id,
            shard,
            &copies,
            new_rid,
            bytes,
            "placement moved off unhealthy replica",
        )
    }

    /// Commits a move of site `shard` after the new replica already holds
    /// the data: if the site's replica set still equals `old`, the move
    /// wins — the set collapses to the new replica, every old copy's bytes
    /// are released and live old copies are unloaded. If a concurrent
    /// mover won or the site vanished, this move's reservation is released
    /// and its redundant on-replica copy unloaded.
    fn commit_move(
        &self,
        id: &SceneId,
        shard: Option<usize>,
        old: &[ReplicaId],
        new_rid: ReplicaId,
        bytes: u64,
        reason: &'static str,
    ) -> Result<Routed, ClusterError> {
        // `cleanup` unloads redundant copies outside the lock.
        let mut cleanup: Vec<Arc<Replica>> = Vec::new();
        let result = {
            let mut state = self.state.lock().unwrap();
            let replica = Arc::clone(&state.replicas[new_rid].replica);
            match state.site_mut(id, shard).map(|s| &mut s.replicas) {
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
                    Ok(state.routed(new_rid))
                }
                Some(set) => {
                    // A concurrent mover won. Release our reservation; our
                    // copy is redundant *unless* the winner's set also
                    // names our replica, in which case "our" copy is a
                    // live copy. Route to an up member of the winning set
                    // (or its head — the render retry handles a dead one).
                    let winners = set.clone();
                    if let Some(mine) = state.replicas.get_mut(new_rid) {
                        mine.placed = mine.placed.saturating_sub(bytes);
                    }
                    if !winners.contains(&new_rid) {
                        cleanup.push(replica);
                    }
                    let up = |r: ReplicaId| {
                        state
                            .replicas
                            .get(r)
                            .is_some_and(|s| s.health == Health::Up)
                    };
                    let head = winners.first().copied();
                    match winners.into_iter().find(|&r| up(r)).or(head) {
                        Some(winner) => Ok(state.routed(winner)),
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
        let on_replica = site_id(id, shard);
        for replica in cleanup {
            let _ = replica.unload_scene(&on_replica);
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

    /// The cross-node sharded render: cull, depth-order, then relay the
    /// running layer through each visible shard's replica.
    fn render_sharded(
        &self,
        request: &WireRequest,
        started: Instant,
        trace: Option<&TraceContext>,
    ) -> Result<ClusterFrame, ClusterError> {
        let (background, aabbs, max_scales) = {
            let state = self.state.lock().unwrap();
            let hold = state
                .scenes
                .get(&request.scene)
                .ok_or_else(|| ClusterError::UnknownScene(request.scene.clone()))?;
            let Hold::Sharded(shards) = &hold.hold else {
                // Concurrently replaced by a single-scene hold.
                return Err(ClusterError::UnknownScene(request.scene.clone()));
            };
            let aabbs: Vec<Aabb> = shards.iter().map(|s| s.aabb).collect();
            let max_scales: Vec<f32> = shards.iter().map(|s| s.max_scale).collect();
            (hold.background, aabbs, max_scales)
        };
        // The exact shard selection and ordering the single-node composite
        // uses (shared helper), so the relay renders the same shard
        // sequence.
        let render_request = request.to_render_request();
        let visible = visible_shards(
            &aabbs,
            &max_scales,
            &render_request.camera,
            &render_request.viewport,
        );
        let culled = aabbs.len() - visible.len();
        self.counters
            .shards_culled
            .fetch_add(culled as u64, Ordering::Relaxed);

        let (width, height) = request.frame_size();
        let mut layer: Option<FrameLayer> = None;
        for &k in &visible {
            // On its replica, shard `k` lives as the single scene `id@k`;
            // its hop spans are named after that id.
            let mut shard_request = request.clone();
            shard_request.scene = site_id(&request.scene, Some(k));
            shard_request.shard = None;
            let hop = format!("relay:{}", shard_request.scene);
            let (next, _) = self.call_site(
                &request.scene,
                Some(k),
                trace,
                |_| hop.clone(),
                |replica, ctx| replica.render_layer(&shard_request, layer.as_ref(), ctx),
            )?;
            layer = Some(next);
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
    /// replica's report fanned in, with latency histograms merged.
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
        let mut touched: Vec<SceneId> = Vec::new();
        let pruned = {
            let mut state = self.state.lock().unwrap();
            let State {
                replicas, scenes, ..
            } = &mut *state;
            let down = |r: ReplicaId| replicas.get(r).is_none_or(|s| s.health == Health::Down);
            let mut released: Vec<(ReplicaId, u64)> = Vec::new();
            for (id, hold) in scenes.iter_mut() {
                let before = released.len();
                for (_, site) in hold.sites_mut() {
                    let (dead, live): (Vec<ReplicaId>, Vec<ReplicaId>) =
                        site.replicas.iter().copied().partition(|&r| down(r));
                    // A set whose every copy is dead is left for the
                    // on-demand re-placement in routing.
                    if dead.is_empty() || live.is_empty() {
                        continue;
                    }
                    site.replicas = live;
                    released.extend(dead.into_iter().map(|r| (r, site.bytes)));
                }
                if released.len() > before {
                    touched.push(id.clone());
                }
            }
            let pruned = released.len();
            for (r, bytes) in released {
                if let Some(slot) = replicas.get_mut(r) {
                    slot.placed = slot.placed.saturating_sub(bytes);
                }
            }
            pruned
        };
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
    /// snapshot (one lock pass, no replica I/O): every site of a hot scene
    /// below [`ReplicationConfig::max_copies`] gains a copy, and every
    /// replicated site of a scene that stayed cool long enough loses one.
    fn plan_replication(&self, rows: &[HeatRow]) -> (Vec<SitePlan>, Vec<SitePlan>) {
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
            let sites = hold.sites();
            let plan = |&(shard, site): &(Option<usize>, &Site)| SitePlan {
                scene: id.clone(),
                shard,
                set: site.replicas.clone(),
                params: Arc::clone(&site.params),
                background: hold.background,
                bytes: site.bytes,
            };
            let replicated = |(_, site): &&(Option<usize>, &Site)| site.replicas.len() > 1;
            if cfg.max_copies > 1 && rate >= cfg.replicate_rate_per_s {
                cool.remove(id);
                let below_max = sites
                    .iter()
                    .filter(|(_, s)| s.replicas.len() < cfg.max_copies);
                adds.extend(below_max.map(plan));
            } else if sites.iter().any(|s| replicated(&s)) && rate < cfg.dereplicate_rate_per_s {
                let ticks = cool.entry(id.clone()).or_insert(0);
                *ticks += 1;
                if *ticks >= cfg.cool_ticks.max(1) {
                    cool.remove(id);
                    retires.extend(sites.iter().filter(replicated).map(plan));
                }
            } else {
                cool.remove(id);
            }
        }
        cool.retain(|k, _| state.scenes.contains_key(k));
        (adds, retires)
    }

    /// Loads one planned replication copy onto a fresh replica and commits
    /// it into the site's replica set (unless the set changed since
    /// planning, in which case the copy is rolled back).
    fn execute_add(&self, add: SitePlan) -> bool {
        let on_replica = site_id(&add.scene, add.shard);
        let Ok(new_rid) = self.place(
            &on_replica,
            &add.params,
            add.background,
            add.bytes,
            &add.set,
        ) else {
            return false;
        };
        let rollback = {
            let mut state = self.state.lock().unwrap();
            let added = match state.site_mut(&add.scene, add.shard) {
                Some(site) if site.replicas == add.set && !add.set.contains(&new_rid) => {
                    site.replicas.push(new_rid);
                    true
                }
                _ => false,
            };
            let slot = &mut state.replicas[new_rid];
            if !added {
                slot.placed = slot.placed.saturating_sub(add.bytes);
            }
            (!added).then(|| Arc::clone(&slot.replica))
        };
        if let Some(replica) = rollback {
            let _ = replica.unload_scene(&on_replica);
            return false;
        }
        self.counters.replications.fetch_add(1, Ordering::Relaxed);
        self.invalidate_cached_scene(&add.scene);
        self.obs.recorder().record(
            Event::new(
                EventLevel::Info,
                "coordinator",
                "hot scene replicated onto an extra replica",
            )
            .scene(add.scene)
            .field("copies", (add.set.len() + 1).to_string()),
        );
        true
    }

    /// Retires one planned copy — the site's newest; the primary (set
    /// head) stays: removes it from the set, releases its budget and
    /// unloads it from its (live) replica.
    fn execute_retire(&self, retire: SitePlan) -> bool {
        let Some(&rid) = retire.set.last() else {
            return false;
        };
        let unload = {
            let mut state = self.state.lock().unwrap();
            let removed = match state.site_mut(&retire.scene, retire.shard) {
                Some(site) if site.replicas.len() > 1 => {
                    let before = site.replicas.len();
                    site.replicas.retain(|&r| r != rid);
                    site.replicas.len() < before
                }
                _ => false,
            };
            if !removed {
                return false;
            }
            let slot = &mut state.replicas[rid];
            slot.placed = slot.placed.saturating_sub(retire.bytes);
            (slot.health != Health::Down).then(|| Arc::clone(&slot.replica))
        };
        if let Some(replica) = unload {
            let _ = replica.unload_scene(&site_id(&retire.scene, retire.shard));
        }
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
        true
    }

    /// Moves at most one single-copy whole scene from the most-loaded up
    /// replica onto the least-loaded one (a drained-then-rejoined replica
    /// sits at zero placed bytes) when the move strictly narrows the
    /// imbalance. The coolest eligible scene moves first, so hot
    /// placements stay put.
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
                    // Only whole scenes rebalance; shards stay put.
                    Hold::Single(site) if site.replicas == [busy] => Some((
                        id.clone(),
                        Arc::clone(&site.params),
                        hold.background,
                        site.bytes,
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
    /// scene (max copies across its sites).
    fn refresh_copy_gauges(&self) {
        let copies: Vec<(SceneId, usize)> = {
            let state = self.state.lock().unwrap();
            state
                .scenes
                .iter()
                .map(|(id, hold)| {
                    let sites = hold.sites();
                    let copies = sites.iter().map(|(_, s)| s.replicas.len()).max();
                    (id.clone(), copies.unwrap_or(0))
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
