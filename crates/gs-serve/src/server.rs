//! The rendering service: a worker pool draining a bounded FIFO job queue.
//!
//! Request lifecycle: [`RenderServer::submit`] first probes the frame cache
//! — a hit is answered immediately, before the request ever enqueues — then
//! pushes the job onto the [`BoundedQueue`] (blocking when the queue is
//! full, which gives closed-loop clients natural backpressure). A worker
//! pops the head job, drains that scene's other queued jobs into the same
//! batch (queue-wide, order preserved), answers what it can from the LRU
//! frame cache, and renders the remaining views through the shared
//! cull-and-gather path of [`crate::batch`]. Identical cache keys inside
//! one batch are rendered once and fanned out to every waiter. A job only
//! ever waits for the jobs queued ahead of it, so no scene can be starved.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use gs_core::gaussian::GaussianParams;
use gs_obs::{Registry, TraceContext};
use gs_platform::PlatformSpec;

use gs_render::pipeline::RenderTimings;
use gs_render::rasterize::FrameLayer;

use crate::batch::render_shared;
use crate::cache::{FrameCache, FrameKey};
use crate::obs::{ObsTuning, ServeObs};
use crate::queue::BoundedQueue;
use crate::registry::{RegistryStats, SceneLayout, SceneRegistry, SceneView, ShardedSceneView};
use crate::request::{RenderRequest, RenderedFrame, SceneId, ServeError};
use crate::shard::{self, Aabb};
use crate::stats::{ServeStats, StatsCollector};

/// Configuration of a [`RenderServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Bounded queue depth; producers block when it is full.
    pub queue_depth: usize,
    /// Maximum same-scene requests grouped into one batch (1 disables
    /// batching).
    pub max_batch: usize,
    /// Frame-cache budget in bytes (0 disables the cache).
    pub cache_bytes: u64,
    /// Camera-translation grid for cache-key quantization, in world units.
    pub pose_quant: f32,
    /// Auto-sharding threshold and target shard size in bytes for
    /// [`RenderServer::load_scene_auto`]: scenes larger than this are
    /// partitioned into `ceil(bytes / shard_bytes)` shards (0 disables
    /// auto-sharding).
    pub shard_bytes: u64,
    /// Node label the server's spans carry (shows up in stitched
    /// cross-node trees and Chrome trace exports).
    pub node: String,
    /// Trace every Nth ingress request (`0` disables request tracing,
    /// `1` traces every request). Requests arriving with a remote trace
    /// context are always traced regardless of this setting.
    pub trace_sample_every: u32,
    /// Sample kernel-phase timings (project / bin / raster) of every Nth
    /// production render into the `/metrics` roofline gauges (`0`
    /// disables phase profiling).
    pub phase_sample_every: u32,
    /// Interpretation-layer tuning: SLO windows and targets, heat-table
    /// window and top-K, watcher interval (see [`ObsTuning`]).
    pub obs: ObsTuning,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            max_batch: 8,
            cache_bytes: 64 << 20,
            pose_quant: 0.05,
            shard_bytes: 32 << 20,
            node: "gs-serve".to_string(),
            trace_sample_every: 0,
            phase_sample_every: 32,
            obs: ObsTuning::default(),
        }
    }
}

/// Consecutive watcher ticks with queued jobs and no completion progress
/// before a queue-stall event is recorded.
const QUEUE_STALL_TICKS: u32 = 4;

type Response = Result<RenderedFrame, ServeError>;

struct Job {
    request: RenderRequest,
    /// Cache key computed once at submit time (for the fast-path probe)
    /// and reused by the worker-side lookup; `None` with caching disabled.
    key: Option<FrameKey>,
    tx: mpsc::Sender<Response>,
    enqueued: Instant,
    /// Root `request` span of a trace *minted by this server* at submit
    /// time; finished (and the whole trace pushed to the span ring) when
    /// the job is answered. `None` for untraced jobs and for remote trace
    /// contexts, whose root lives with whoever minted them.
    trace_root: Option<gs_obs::Span>,
}

struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<Job>,
    registry: Mutex<SceneRegistry>,
    cache: Mutex<FrameCache>,
    stats: StatsCollector,
    /// Observability layer: trace sampling, the finished-span ring and the
    /// kernel-phase roofline gauges, all feeding the same metrics registry
    /// the stats collector publishes through.
    obs: ServeObs,
    /// Queued jobs that carry a deadline. Incremented before the push makes
    /// a job visible and decremented when the job leaves the queue, so the
    /// workers' dead-job sweep (an O(queue) walk under the queue mutex) can
    /// be skipped entirely while no deadline could be expiring.
    deadline_jobs: AtomicU64,
    /// Cancellations signalled since a worker last swept: every accepted
    /// request's [`CancelToken`] is wired to bump this exactly once on
    /// `cancel()`, and workers `swap(0)` it — so each cancellation triggers
    /// at least one sweep, while merely *carrying* a token (every HTTP
    /// request does) costs the queue nothing.
    pending_cancels: Arc<AtomicU64>,
}

impl Shared {
    /// Threads the next render may fan its tile rows out over: `workers`
    /// while the queue is empty (idle pool workers mean those cores are
    /// otherwise free), `1` — no helper threads — whenever jobs are
    /// waiting, so a loaded pool keeps its parallelism at the request
    /// level. Output bytes are identical either way.
    fn tile_threads(&self) -> usize {
        if self.queue.is_empty() {
            self.config.workers
        } else {
            1
        }
    }
}

/// Handle to a pending render; resolves through [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the frame is rendered (or the request failed).
    ///
    /// # Errors
    ///
    /// Propagates the service's error, or [`ServeError::ShuttingDown`] if the
    /// service dropped the request during shutdown.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Waits up to `timeout` for the response. Returns `Err(self)` on
    /// timeout so the caller can keep polling — the pattern the HTTP
    /// front-end uses to watch the client socket for disconnects while its
    /// request is queued.
    ///
    /// # Errors
    ///
    /// `Err(self)` when the response has not arrived yet.
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<Response, Ticket> {
        match self.rx.recv_timeout(timeout) {
            Ok(response) => Ok(response),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Err(ServeError::ShuttingDown)),
        }
    }
}

/// A concurrent multi-scene rendering service.
pub struct RenderServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The anomaly watcher: ticks SLO evaluation + incident capture and
    /// probes for queue stalls. `None` when `obs.watcher_interval_ms`
    /// is 0; joined on drop.
    watcher: Option<gs_obs::Watcher>,
}

impl RenderServer {
    /// Starts the worker pool over an (optionally pre-populated) registry.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.max_batch` is zero.
    pub fn new(config: ServeConfig, registry: SceneRegistry) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        // One registry backs both the request counters (stats collector) and
        // the observability gauges, so `GET /metrics` exposes them together.
        let metrics = Arc::new(Registry::new());
        let obs = ServeObs::with_tuning(
            Arc::clone(&metrics),
            config.node.clone(),
            config.trace_sample_every,
            config.phase_sample_every,
            &config.obs,
        );
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_depth),
            registry: Mutex::new(registry),
            cache: Mutex::new(FrameCache::new(config.cache_bytes)),
            stats: StatsCollector::with_registry(metrics, config.workers),
            obs,
            config,
            deadline_jobs: AtomicU64::new(0),
            pending_cancels: Arc::new(AtomicU64::new(0)),
        });
        let workers = (0..shared.config.workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gs-serve-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn worker")
            })
            .collect();
        let watcher = (shared.config.obs.watcher_interval_ms > 0).then(|| {
            let shared = Arc::clone(&shared);
            // Queue-stall detection: jobs are queued but the completion
            // counter has not moved for several consecutive ticks.
            let mut last_completed = 0u64;
            let mut stalled_ticks = 0u32;
            gs_obs::Watcher::spawn(
                "gs-obs-watcher",
                std::time::Duration::from_millis(shared.config.obs.watcher_interval_ms),
                move || {
                    let completed = shared.stats.completed_count();
                    if !shared.queue.is_empty() && completed == last_completed {
                        stalled_ticks += 1;
                        if stalled_ticks == QUEUE_STALL_TICKS {
                            shared.obs.recorder().record(
                                gs_obs::Event::new(
                                    gs_obs::EventLevel::Error,
                                    "scheduler",
                                    "queue stall: jobs queued but nothing completing",
                                )
                                .field("stalled_ticks", stalled_ticks.to_string()),
                            );
                        }
                    } else {
                        stalled_ticks = 0;
                    }
                    last_completed = completed;
                    shared.obs.watch_tick();
                },
            )
        });
        Self {
            shared,
            workers,
            watcher,
        }
    }

    /// Starts a server with a registry budgeted to `platform`'s GPU memory.
    pub fn for_platform(config: ServeConfig, platform: &PlatformSpec) -> Self {
        Self::new(config, SceneRegistry::for_platform(platform))
    }

    /// Loads (or replaces) a scene through admission control, invalidating
    /// cached frames of any scene that was evicted or replaced.
    ///
    /// # Errors
    ///
    /// [`ServeError::Admission`] if the scene exceeds the memory budget.
    pub fn load_scene(
        &self,
        id: impl Into<SceneId>,
        params: Arc<GaussianParams>,
        background: [f32; 3],
    ) -> Result<(), ServeError> {
        let id = id.into();
        let mut registry = self.shared.registry.lock().unwrap();
        let result = registry.load(id.clone(), params, background);
        drop(registry);
        // A rejected load changes nothing (rejection happens before any
        // eviction), so the resident scene's still-valid frames survive it.
        if let Ok(evicted) = &result {
            let mut cache = self.shared.cache.lock().unwrap();
            cache.invalidate_scene(&id);
            for victim in evicted {
                cache.invalidate_scene(victim);
            }
        }
        result.map(|_| ())
    }

    /// Loads (or replaces) a scene partitioned into `shards` spatial shards
    /// (see [`crate::shard`]). Each shard is admitted against the memory
    /// pool independently when a render needs it, so the scene's *total*
    /// size may exceed the whole registry budget as long as every single
    /// shard fits.
    ///
    /// # Errors
    ///
    /// [`ServeError::Admission`] if any single shard exceeds the budget.
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
    ) -> Result<(), ServeError> {
        let id = id.into();
        // Partition and gather outside the registry lock: this is the
        // expensive part of a sharded load.
        let sources = shard::shard_scene(&params, shards);
        let result =
            self.shared
                .registry
                .lock()
                .unwrap()
                .load_sharded(id.clone(), sources, background);
        if result.is_ok() {
            self.shared.cache.lock().unwrap().invalidate_scene(&id);
        }
        result
    }

    /// Loads a *new* scene, sharding it into `shards` shards — or, when
    /// `shards` is `None`, automatically when it exceeds
    /// [`ServeConfig::shard_bytes`]. Returns the number of shards actually
    /// used (1 = loaded unsharded; the partitioner clamps the requested
    /// count to the Gaussian count). Unlike [`RenderServer::load_scene`]
    /// this refuses to replace an existing id — the semantics
    /// `POST /scenes/<id>` needs.
    ///
    /// # Errors
    ///
    /// [`ServeError::SceneExists`] if the id is already loaded,
    /// [`ServeError::Admission`] if the scene (or one of its shards)
    /// exceeds the memory budget.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is `Some(0)`.
    pub fn load_scene_auto(
        &self,
        id: impl Into<SceneId>,
        params: Arc<GaussianParams>,
        background: [f32; 3],
        shards: Option<usize>,
    ) -> Result<usize, ServeError> {
        let id = id.into();
        let bytes = params.total_bytes() as u64;
        let shard_bytes = self.shared.config.shard_bytes;
        let k = match shards {
            Some(k) => {
                assert!(k > 0, "shard count must be at least 1");
                k
            }
            None if shard_bytes > 0 && bytes > shard_bytes => {
                usize::try_from(bytes.div_ceil(shard_bytes)).unwrap_or(usize::MAX)
            }
            None => 1,
        };
        let sources = (k > 1).then(|| shard::shard_scene(&params, k));
        // Report the count the partitioner actually produced (it clamps to
        // the Gaussian count), so the answer agrees with the layout.
        let k = sources.as_ref().map_or(1, Vec::len);
        let mut registry = self.shared.registry.lock().unwrap();
        if registry.contains(&id) {
            return Err(ServeError::SceneExists(id));
        }
        let result = match sources {
            Some(sources) => registry
                .load_sharded(id.clone(), sources, background)
                .map(|()| Vec::new()),
            None => registry.load(id.clone(), params, background),
        };
        drop(registry);
        let evicted = result?;
        let mut cache = self.shared.cache.lock().unwrap();
        cache.invalidate_scene(&id);
        for victim in &evicted {
            cache.invalidate_scene(victim);
        }
        Ok(k)
    }

    /// Shard layout and residency of every loaded scene (sorted by id).
    pub fn scene_layouts(&self) -> Vec<SceneLayout> {
        self.shared.registry.lock().unwrap().layouts()
    }

    /// Unloads a scene and drops its cached frames.
    pub fn unload_scene(&self, id: &SceneId) -> bool {
        let unloaded = self.shared.registry.lock().unwrap().unload(id);
        if unloaded {
            self.shared.cache.lock().unwrap().invalidate_scene(id);
        }
        unloaded
    }

    /// Whether `id` is currently loaded.
    pub fn contains_scene(&self, id: &SceneId) -> bool {
        self.shared.registry.lock().unwrap().contains(id)
    }

    /// Ids of the currently loaded scenes (sorted).
    pub fn loaded_scenes(&self) -> Vec<SceneId> {
        self.shared.registry.lock().unwrap().loaded()
    }

    /// Admission-control counters of the underlying registry.
    pub fn registry_stats(&self) -> RegistryStats {
        self.shared.registry.lock().unwrap().stats().clone()
    }

    /// Submits a request: answers it straight from the frame cache when the
    /// key is resident (the *fast path* — the request never enqueues), else
    /// enqueues it, blocking while the queue is full.
    ///
    /// Fast-path hits are counted separately in the service stats
    /// ([`ServeStats::fast_hits`] / [`ServeStats::hit_latency`]) so the
    /// request-latency histogram keeps measuring the queue-wait + render
    /// path instead of being diluted by sub-microsecond cache answers.
    ///
    /// The in-process API trusts its caller: request fields outside their
    /// documented ranges (e.g. an `sh_degree` above
    /// [`gs_core::sh::MAX_DEGREE`]) are contract violations that panic the
    /// worker's batch — the panic is contained, every affected ticket
    /// resolves to an error, and the counts stay consistent, but co-batched
    /// requests are dropped with it. Untrusted input belongs behind the
    /// HTTP front-end, whose [`crate::wire`] parser validates before
    /// submitting.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownScene`] if the scene is not loaded at submit
    /// time, [`ServeError::ShuttingDown`] if the queue is closed.
    pub fn submit(&self, request: RenderRequest) -> Result<Ticket, ServeError> {
        let submitted = Instant::now();
        if !self
            .shared
            .registry
            .lock()
            .unwrap()
            .contains(&request.scene)
        {
            self.shared
                .obs
                .record_outcome(Some(request.scene.as_str()), false, false, 0.0);
            return Err(ServeError::UnknownScene(request.scene));
        }
        // A request that is already dead gets the same answer the workers'
        // sweep would give it, whether or not its key is cache-resident —
        // cache state must not change a dead request's outcome or counters
        // (expired wins over cancelled, like respond_dead).
        if request.is_expired(submitted) {
            self.shared.stats.record_expired(1);
            self.shared
                .obs
                .record_outcome(Some(request.scene.as_str()), false, false, 0.0);
            let (tx, rx) = mpsc::channel();
            let _ = tx.send(Err(ServeError::DeadlineExceeded));
            return Ok(Ticket { rx });
        }
        if request.is_cancelled() {
            self.shared.stats.record_cancelled(1);
            self.shared
                .obs
                .record_outcome(Some(request.scene.as_str()), false, false, 0.0);
            let (tx, rx) = mpsc::channel();
            let _ = tx.send(Err(ServeError::Cancelled));
            return Ok(Ticket { rx });
        }
        // Ingress trace sampling: mint a trace for every Nth request that
        // does not already carry one. Requests arriving with a context
        // attached (the HTTP front-end's `X-Trace-Id`, or a cluster relay)
        // are recorded into *that* tree instead — their root span lives
        // with whoever minted the trace, so no root is opened here.
        let mut request = request;
        let mut trace_root = None;
        if request.trace.is_none() && self.shared.obs.should_trace() {
            let trace = self.shared.obs.mint();
            let root = trace.start(0, "request");
            request.trace = Some(TraceContext {
                trace,
                parent: root.id(),
            });
            trace_root = Some(root);
        }
        // The pre-enqueue cache probe: a resident key is answered here,
        // skipping the queue and the worker pool entirely. A miss is not
        // counted — the worker-side lookup does that — so every request
        // still contributes exactly one counted lookup. The key travels with
        // the job so the worker never recomputes it.
        let key = (self.shared.config.cache_bytes > 0)
            .then(|| FrameKey::for_request(&request, self.shared.config.pose_quant));
        if let Some(key) = &key {
            let hit = self.shared.cache.lock().unwrap().get_fast(key);
            if let Some(image) = hit {
                let latency = submitted.elapsed();
                self.shared.stats.record_fast_hit(latency);
                self.shared.obs.record_outcome(
                    Some(request.scene.as_str()),
                    true,
                    true,
                    latency.as_secs_f64(),
                );
                if let Some(ctx) = &request.trace {
                    let clock = ctx.trace.clock();
                    let start = clock.us_of(submitted);
                    let end = clock.now_us();
                    ctx.trace.record(
                        ctx.parent,
                        "cache_fast_hit",
                        start,
                        end.saturating_sub(start),
                    );
                }
                if let Some(root) = trace_root {
                    root.finish();
                    if let Some(ctx) = &request.trace {
                        self.shared.obs.finish(&ctx.trace);
                    }
                }
                let (tx, rx) = mpsc::channel();
                let _ = tx.send(Ok(RenderedFrame {
                    image,
                    scene: request.scene,
                    latency,
                    batch_size: 1,
                    cache_hit: true,
                    // One past the pool: no worker thread touched this.
                    worker: self.shared.config.workers,
                    shards: 1,
                }));
                return Ok(Ticket { rx });
            }
        }
        let (tx, rx) = mpsc::channel();
        // Counted before the push makes the job visible, so a worker that
        // pops it always observes a nonzero count (see `Shared`).
        let has_deadline = request.deadline.is_some();
        if has_deadline {
            self.shared.deadline_jobs.fetch_add(1, Ordering::Relaxed);
        }
        // Wire the cancel token to the sweep trigger (fires on `cancel()`,
        // or immediately if the client is already gone).
        if let Some(token) = &request.cancel {
            token.watch(&self.shared.pending_cancels);
        }
        let pushed = self.shared.queue.push(Job {
            request,
            key,
            tx,
            enqueued: Instant::now(),
            trace_root,
        });
        if pushed.is_err() {
            if has_deadline {
                self.shared.deadline_jobs.fetch_sub(1, Ordering::Relaxed);
            }
            return Err(ServeError::ShuttingDown);
        }
        Ok(Ticket { rx })
    }

    /// Submits a request and waits for the frame.
    ///
    /// # Errors
    ///
    /// See [`RenderServer::submit`] and [`Ticket::wait`].
    pub fn render_blocking(&self, request: RenderRequest) -> Response {
        self.submit(request)?.wait()
    }

    /// Renders one shard of a scene (or a whole unsharded scene) as a
    /// partial-frame [`FrameLayer`], optionally continuing an incoming
    /// layer's per-pixel blend state — the serving primitive of cross-node
    /// sharded rendering.
    ///
    /// `shard` selects a shard of a sharded scene (`Some(0)` is also
    /// accepted for an unsharded scene); `None` composites every
    /// frustum-visible shard of the scene, front-to-back. When `into` is
    /// given, rasterization continues that layer's per-pixel `(color,
    /// transmittance)` state exactly where a nearer shard left it, which is
    /// what keeps a relayed cross-node composite bit-identical to the
    /// single-node fan-out render.
    ///
    /// Runs on the caller's thread rather than the worker pool: layer
    /// traffic arrives from a cluster coordinator that already provides
    /// admission and backpressure, and a relayed layer render is bounded by
    /// its wire hops, not by queue position. Deadlines and cancel tokens on
    /// `request` are ignored for the same reason.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownScene`] / [`ServeError::UnknownShard`] when the
    /// scene or shard is not loaded.
    ///
    /// # Panics
    ///
    /// Panics if `request.sh_degree` exceeds [`gs_core::sh::MAX_DEGREE`] or
    /// if `into`'s size does not match the request's viewport (in-process
    /// contract violations; the HTTP front-end validates both before
    /// calling).
    pub fn render_layer_blocking(
        &self,
        request: &RenderRequest,
        shard: Option<usize>,
        into: Option<FrameLayer>,
    ) -> Result<FrameLayer, ServeError> {
        assert!(
            request.sh_degree <= gs_core::sh::MAX_DEGREE,
            "sh_degree {} exceeds the supported maximum {}",
            request.sh_degree,
            gs_core::sh::MAX_DEGREE
        );
        // A traced layer render wraps itself in a `layer_render` span and
        // re-parents the request's context under it, so the shard / phase
        // spans recorded below nest where the (possibly remote) caller
        // expects them.
        let span = request.trace.as_ref().map(|ctx| ctx.child("layer_render"));
        let reparented;
        let request = match (&span, &request.trace) {
            (Some(span), Some(ctx)) => {
                reparented = RenderRequest {
                    trace: Some(ctx.at(span.id())),
                    ..request.clone()
                };
                &reparented
            }
            _ => request,
        };
        // Layer traffic is a replica's main workload under a cluster, so it
        // feeds the heat tables and SLO windows like any front-door render.
        let started_total = Instant::now();
        let outcome = |ok: bool| {
            self.shared.obs.record_outcome(
                Some(request.scene.as_str()),
                ok,
                false,
                started_total.elapsed().as_secs_f64(),
            );
        };
        let view = match self.shared.registry.lock().unwrap().get(&request.scene) {
            Ok(view) => view,
            Err(e) => {
                outcome(false);
                return Err(e);
            }
        };
        let (width, height) = (request.viewport.width(), request.viewport.height());
        let mut layer = match into {
            Some(layer) => {
                assert_eq!(
                    (layer.width(), layer.height()),
                    (width, height),
                    "incoming layer size must match the request viewport"
                );
                layer
            }
            None => FrameLayer::new(width, height),
        };
        match &view {
            SceneView::Single(scene) => {
                if let Some(k) = shard.filter(|&k| k != 0) {
                    outcome(false);
                    return Err(ServeError::UnknownShard(request.scene.clone(), k));
                }
                let started = Instant::now();
                let tile_threads = self.shared.tile_threads();
                let (stats, timings) = gs_render::pipeline::render_layer(
                    &scene.params,
                    &request.camera,
                    request.sh_degree,
                    &request.viewport,
                    &mut layer,
                    tile_threads,
                );
                if tile_threads > 1 {
                    self.shared.stats.record_tile_renders(1);
                }
                self.shared.obs.sample_render(&stats, &timings);
                if let Some(ctx) = &request.trace {
                    let start = ctx.trace.clock().us_of(started);
                    record_phase_spans(ctx, ctx.parent, start, &timings);
                }
                self.shared.stats.record_shard_layer(started.elapsed());
            }
            SceneView::Sharded(sharded) => match shard {
                Some(k) => {
                    let Some(shard_view) = sharded.shards.get(k) else {
                        outcome(false);
                        return Err(ServeError::UnknownShard(request.scene.clone(), k));
                    };
                    render_one_shard(
                        &self.shared,
                        &request.scene,
                        sharded.epoch,
                        shard_view,
                        k,
                        request,
                        &mut layer,
                    );
                }
                None => {
                    composite_shards(&self.shared, &request.scene, sharded, request, &mut layer);
                }
            },
        }
        self.shared.stats.record_layer_served();
        outcome(true);
        Ok(layer)
    }

    /// The registry's device admission budget in bytes — what a cluster
    /// coordinator places scenes against.
    pub fn budget_bytes(&self) -> u64 {
        self.shared.registry.lock().unwrap().budget_bytes()
    }

    /// Bytes currently charged to resident scenes and shards.
    pub fn used_bytes(&self) -> u64 {
        self.shared.registry.lock().unwrap().used_bytes()
    }

    /// The observability layer: trace sampling, the finished-span ring and
    /// the kernel-phase roofline gauges.
    pub fn obs(&self) -> &ServeObs {
        &self.shared.obs
    }

    /// Prometheus text exposition of the metrics registry (request
    /// counters, latency histograms, phase rooflines, trace gauges).
    pub fn metrics_text(&self) -> String {
        self.shared.obs.metrics_text()
    }

    /// Snapshot of the service statistics.
    pub fn stats(&self) -> ServeStats {
        let cache = self.shared.cache.lock().unwrap().stats();
        self.shared.stats.snapshot(cache)
    }

    /// Drains the queue, stops the workers and returns the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_workers();
        self.stats()
    }

    fn stop_workers(&mut self) {
        // Joined first so no tick observes a closing queue as a stall.
        self.watcher.take();
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for RenderServer {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Blocks for the head job and drains its scene's other queued jobs
/// (queue-wide, FIFO among themselves) into one batch of at most
/// `max_batch`. `None` once the queue is closed and drained.
fn next_batch(queue: &BoundedQueue<Job>, max_batch: usize) -> Option<Vec<Job>> {
    let first = queue.pop()?;
    let scene = first.request.scene.clone();
    let mut batch = vec![first];
    if max_batch > 1 {
        batch.extend(queue.drain_where(max_batch - 1, |j| j.request.scene == scene));
    }
    Some(batch)
}

fn worker_loop(shared: &Shared, worker_idx: usize) {
    while let Some(batch) = next_batch(&shared.queue, shared.config.max_batch) {
        // Skip queued jobs whose deadline has already passed or whose client
        // cancelled (disconnected) — rendering a frame nobody is waiting for
        // anymore only deepens an overload. They are answered
        // (`DeadlineExceeded` / `Cancelled`) and counted, not dropped. The
        // sweep walks the whole queue under its mutex, so it only runs while
        // a deadline could actually be expiring (`deadline_jobs` counts the
        // queued deadline-bearing jobs) or a cancellation was signalled
        // since the last sweep (`pending_cancels`, swapped to zero here so
        // each cancel buys at least — and roughly at most — one walk).
        // Plain traffic, token-carrying or not, never pays. (Dead jobs the
        // worker already drained into this batch are partitioned out
        // below instead.)
        let now = Instant::now();
        let cancels = shared.pending_cancels.swap(0, Ordering::SeqCst) > 0;
        if cancels || shared.deadline_jobs.load(Ordering::Relaxed) > 0 {
            for job in shared.queue.drain_where(usize::MAX, |j| {
                j.request.is_expired(now) || j.request.is_cancelled()
            }) {
                if job.request.deadline.is_some() {
                    shared.deadline_jobs.fetch_sub(1, Ordering::Relaxed);
                }
                respond_dead(shared, job, now);
            }
        }
        let scene_id = batch[0].request.scene.clone();
        let left_queue = batch
            .iter()
            .filter(|j| j.request.deadline.is_some())
            .count();
        if left_queue > 0 {
            shared
                .deadline_jobs
                .fetch_sub(left_queue as u64, Ordering::Relaxed);
        }
        // The popped job (and, pathologically, a just-drained one) can
        // itself be expired or cancelled.
        let now = Instant::now();
        let (dead, live): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|j| j.request.is_expired(now) || j.request.is_cancelled());
        for job in dead {
            respond_dead(shared, job, now);
        }
        if live.is_empty() {
            continue;
        }
        let batch = live;
        let batch_size = batch.len();
        // A panic in the batch path (a rendering bug, a poisoned lock) must
        // not kill the worker: the panicking call drops its jobs, which
        // disconnects their tickets (clients see an error instead of hanging
        // forever), and the worker lives on to drain the rest of the queue.
        // Every job that was dropped unanswered is recorded as an error —
        // one per job, not one per batch — and the batch itself still lands
        // in the histogram, so `completed + errors` always accounts for
        // every submitted request and the histogram for every formed batch.
        let acct = BatchAccounting::default();
        let scene_for_event = scene_id.clone();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_batch(shared, worker_idx, scene_id, batch, batch_size, &acct);
        }));
        if outcome.is_err() {
            let dropped = (batch_size as u64).saturating_sub(acct.answered.load(Ordering::Relaxed));
            shared.stats.record_errors(dropped);
            shared.obs.recorder().record(
                gs_obs::Event::new(
                    gs_obs::EventLevel::Error,
                    "worker",
                    "render batch panicked; jobs dropped to errors",
                )
                .scene(scene_for_event)
                .field("worker", worker_idx.to_string())
                .field("dropped", dropped.to_string()),
            );
            for _ in 0..dropped {
                shared.obs.record_outcome(None, false, false, 0.0);
            }
            if !acct.batch_recorded.load(Ordering::Relaxed) {
                shared.stats.record_batch(batch_size, 0, 0);
            }
        }
    }
}

/// Per-batch accounting shared across the worker's panic boundary: how many
/// jobs were answered (completed or errored) and whether the batch reached a
/// `record_batch` call, so the panic handler can settle exactly the rest.
#[derive(Default)]
struct BatchAccounting {
    answered: AtomicU64,
    batch_recorded: AtomicBool,
}

fn process_batch(
    shared: &Shared,
    worker_idx: usize,
    scene_id: SceneId,
    batch: Vec<Job>,
    batch_size: usize,
    acct: &BatchAccounting,
) {
    let answered = &acct.answered;
    let caching = shared.config.cache_bytes > 0;

    // Queue-wait spans: enqueue -> this batch pop, recorded on each traced
    // job's own clock (a remote context's clock anchors at its minter).
    let popped = Instant::now();
    for job in &batch {
        if let Some(ctx) = &job.request.trace {
            let clock = ctx.trace.clock();
            let start = clock.us_of(job.enqueued);
            let end = clock.us_of(popped);
            ctx.trace
                .record(ctx.parent, "queue", start, end.saturating_sub(start));
        }
    }

    // Answer what the cache already holds; collect the misses. Hits are
    // responded to after the cache lock is released so one worker's fan-out
    // never serializes the other workers' lookups. With the cache disabled,
    // no keys are computed and the cache lock is never touched.
    let mut misses: Vec<(Job, Option<FrameKey>)> = Vec::new();
    if caching {
        let mut hits: Vec<(Job, Arc<gs_core::image::Image>)> = Vec::new();
        let lookup_started = Instant::now();
        {
            let mut cache = shared.cache.lock().unwrap();
            for mut job in batch {
                // Computed at submit time; recompute only as a safety net.
                let key = job.key.take().unwrap_or_else(|| {
                    FrameKey::for_request(&job.request, shared.config.pose_quant)
                });
                match cache.get(&key) {
                    Some(image) => hits.push((job, image)),
                    None => misses.push((job, Some(key))),
                }
            }
        }
        for (job, image) in hits {
            if let Some(ctx) = &job.request.trace {
                let clock = ctx.trace.clock();
                let start = clock.us_of(lookup_started);
                let end = clock.now_us();
                ctx.trace
                    .record(ctx.parent, "cache_lookup", start, end.saturating_sub(start));
            }
            respond(
                shared, worker_idx, job, batch_size, true, 1, image, answered,
            );
        }
    } else {
        misses.extend(batch.into_iter().map(|job| (job, None)));
    }
    if misses.is_empty() {
        acct.batch_recorded.store(true, Ordering::Relaxed);
        shared.stats.record_batch(batch_size, 0, 0);
        return;
    }

    let view = shared.registry.lock().unwrap().get(&scene_id);
    let view = match view {
        Ok(v) => v,
        Err(e) => {
            shared.obs.recorder().record(
                gs_obs::Event::new(
                    gs_obs::EventLevel::Error,
                    "worker",
                    format!("batch failed: {e}"),
                )
                .scene(scene_id.clone())
                .field("jobs", misses.len().to_string()),
            );
            for (job, _) in misses {
                shared.stats.record_error();
                shared.obs.record_outcome(
                    Some(job.request.scene.as_str()),
                    false,
                    false,
                    job.enqueued.elapsed().as_secs_f64(),
                );
                answered.fetch_add(1, Ordering::Relaxed);
                let _ = job.tx.send(Err(e.clone()));
            }
            acct.batch_recorded.store(true, Ordering::Relaxed);
            shared.stats.record_batch(batch_size, 0, 0);
            return;
        }
    };

    // With caching on, render each distinct cache key once and fan the frame
    // out to every job sharing it — the same collapse a cache hit at that
    // key would perform. With caching off there is no quantization contract,
    // so every request renders its own exact camera.
    let mut groups: Vec<(Option<FrameKey>, Vec<Job>)> = Vec::new();
    for (job, key) in misses {
        match key
            .is_some()
            .then(|| groups.iter_mut().find(|(k, _)| *k == key))
            .flatten()
        {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((key, vec![job])),
        }
    }
    let unique_requests: Vec<&RenderRequest> =
        groups.iter().map(|(_, jobs)| &jobs[0].request).collect();
    let epoch = view.epoch();
    let images: Vec<(Arc<gs_core::image::Image>, usize)> = match &view {
        SceneView::Single(scene) => {
            let tile_threads = shared.tile_threads();
            let render_started = Instant::now();
            let outcome = render_shared(
                &scene.params,
                scene.background,
                &unique_requests,
                tile_threads,
            );
            if tile_threads > 1 {
                shared
                    .stats
                    .record_tile_renders(unique_requests.len() as u64);
            }
            // Render + kernel-phase spans and roofline samples, from the
            // measurements the batch already took — nothing is re-timed.
            // The per-request renders ran sequentially from
            // `render_started`, so their spans are laid out end to end.
            let mut at = render_started;
            for ((_, jobs), (stats, timings)) in groups.iter().zip(&outcome.renders) {
                shared.obs.sample_render(stats, timings);
                let dur_us = (timings.total_s() * 1e6).round() as u64;
                for job in jobs {
                    if let Some(ctx) = &job.request.trace {
                        let start = ctx.trace.clock().us_of(at);
                        let render_id = ctx.trace.record(ctx.parent, "render", start, dur_us);
                        record_phase_spans(ctx, render_id, start, timings);
                    }
                }
                at += std::time::Duration::from_secs_f64(timings.total_s());
            }
            acct.batch_recorded.store(true, Ordering::Relaxed);
            shared
                .stats
                .record_batch(batch_size, outcome.union_active, outcome.summed_active);
            outcome.images.into_iter().map(|img| (img, 1)).collect()
        }
        SceneView::Sharded(sharded) => {
            let images = unique_requests
                .iter()
                .map(|request| render_sharded(shared, &scene_id, sharded, request))
                .collect();
            acct.batch_recorded.store(true, Ordering::Relaxed);
            // Sharded renders share no cull/gather across the batch (each
            // request composites its own shard order), so the sharing
            // counters stay untouched.
            shared.stats.record_batch(batch_size, 0, 0);
            images
        }
    };

    // Cache before responding: a client that sees its response and
    // immediately re-requests the same view must hit. The registry epoch is
    // re-checked under the cache lock (cache -> registry nesting; no other
    // path nests the two) so frames rendered from a scene that was replaced
    // or evicted mid-render are never inserted as that scene's current
    // frames. (Shard evictions are accounting only and do not bump the
    // epoch — the parameters are unchanged, so the frames stay valid.)
    if caching {
        let mut cache = shared.cache.lock().unwrap();
        let registry = shared.registry.lock().unwrap();
        let still_current = registry.epoch(&scene_id) == Some(epoch);
        if still_current {
            for ((key, _), (image, _)) in groups.iter().zip(&images) {
                if let Some(key) = key {
                    cache.insert(key.clone(), Arc::clone(image));
                }
            }
        }
    }
    for ((_, jobs), (image, shards)) in groups.into_iter().zip(images) {
        for job in jobs {
            respond(
                shared,
                worker_idx,
                job,
                batch_size,
                false,
                shards,
                Arc::clone(&image),
                answered,
            );
        }
    }
}

/// The sharded fan-out render: composites the *visible* shards of `view`
/// front-to-back by depth along the request's view ray into one
/// [`FrameLayer`], admitting each shard against the registry pool just
/// before rendering it. Only one shard needs to be resident at a time, so a
/// scene larger than the whole budget still serves. Returns the frame and
/// the number of shard layers actually rendered into it.
///
/// # Panics
///
/// Panics if the request's `sh_degree` exceeds [`gs_core::sh::MAX_DEGREE`]
/// (same contract as [`render_shared`]; the worker pool contains the
/// panic).
fn render_sharded(
    shared: &Shared,
    scene_id: &SceneId,
    view: &ShardedSceneView,
    request: &RenderRequest,
) -> (Arc<gs_core::image::Image>, usize) {
    assert!(
        request.sh_degree <= gs_core::sh::MAX_DEGREE,
        "sh_degree {} exceeds the supported maximum {}",
        request.sh_degree,
        gs_core::sh::MAX_DEGREE
    );
    let mut layer = FrameLayer::new(request.viewport.width(), request.viewport.height());
    // A traced fan-out render wraps its shard composite in a `render` span
    // and re-parents the context under it, so the per-shard spans nest.
    let span = request.trace.as_ref().map(|ctx| ctx.child("render"));
    let reparented;
    let request = match (&span, &request.trace) {
        (Some(span), Some(ctx)) => {
            reparented = RenderRequest {
                trace: Some(ctx.at(span.id())),
                ..request.clone()
            };
            &reparented
        }
        _ => request,
    };
    let rendered = composite_shards(shared, scene_id, view, request, &mut layer);
    (Arc::new(layer.finish(view.background)), rendered)
}

/// Renders every frustum-visible shard of `view` front-to-back into `layer`
/// (view-adaptive culling: shards whose AABB misses the frustum are skipped
/// and counted — they could not have contributed, so the composite stays
/// bit-identical). Returns the number of shards rendered.
fn composite_shards(
    shared: &Shared,
    scene_id: &SceneId,
    view: &ShardedSceneView,
    request: &RenderRequest,
    layer: &mut FrameLayer,
) -> usize {
    let aabbs: Vec<Aabb> = view.shards.iter().map(|s| s.aabb).collect();
    let max_scales: Vec<f32> = view.shards.iter().map(|s| s.max_scale).collect();
    let visible = shard::visible_shards(&aabbs, &max_scales, &request.camera, &request.viewport);
    let culled = view.shards.len() - visible.len();
    if culled > 0 {
        shared.stats.record_shards_culled(culled as u64);
    }
    let rendered = visible.len();
    for k in visible {
        render_one_shard(
            shared,
            scene_id,
            view.epoch,
            &view.shards[k],
            k,
            request,
            layer,
        );
    }
    rendered
}

/// Renders shard `k` into `layer`, charging it to the registry pool first.
fn render_one_shard(
    shared: &Shared,
    scene_id: &SceneId,
    epoch: u64,
    shard: &crate::registry::ShardView,
    k: usize,
    request: &RenderRequest,
    layer: &mut FrameLayer,
) {
    // Admission accounting: charge the shard to the pool (evicting LRU
    // residents) before rendering it. A stale epoch (scene replaced
    // mid-request) or a full pool never blocks the render itself — the
    // `Arc` snapshot in hand stays valid either way.
    let residency = shared
        .registry
        .lock()
        .unwrap()
        .ensure_shard_resident(scene_id, k, epoch);
    // Whole scenes unloaded to make room lose their cached frames, like
    // the victims of every other eviction path. (The registry lock is
    // released first; only the cache -> registry nesting is allowed.)
    if !residency.evicted_scenes.is_empty() {
        let mut cache = shared.cache.lock().unwrap();
        for victim in &residency.evicted_scenes {
            cache.invalidate_scene(victim);
        }
    }
    let started = Instant::now();
    let tile_threads = shared.tile_threads();
    let (stats, timings) = gs_render::pipeline::render_layer(
        &shard.params,
        &request.camera,
        request.sh_degree,
        &request.viewport,
        layer,
        tile_threads,
    );
    if tile_threads > 1 {
        shared.stats.record_tile_renders(1);
    }
    shared.obs.sample_render(&stats, &timings);
    if let Some(ctx) = &request.trace {
        let clock = ctx.trace.clock();
        let start = clock.us_of(started);
        let end = clock.now_us();
        let shard_span = ctx.trace.record(
            ctx.parent,
            format!("shard:{k}"),
            start,
            end.saturating_sub(start),
        );
        record_phase_spans(ctx, shard_span, start, &timings);
    }
    shared.stats.record_shard_layer(started.elapsed());
}

/// Lays sequential `project` / `bin` / `raster` child spans under `parent`,
/// starting at `start_us` on the trace's clock — the per-phase breakdown of
/// a render whose phase durations the kernel measured itself.
fn record_phase_spans(ctx: &TraceContext, parent: u32, start_us: u64, timings: &RenderTimings) {
    let mut at = start_us;
    for (name, seconds) in [
        ("project", timings.project_s),
        ("bin", timings.bin_s),
        ("raster", timings.raster_s),
    ] {
        let dur = (seconds * 1e6).round() as u64;
        ctx.trace.record(parent, name, at, dur);
        at = at.saturating_add(dur);
    }
}

/// Answers a swept job: expired deadlines win over cancellation (an expired
/// request is dead regardless of whether its client is still there).
fn respond_dead(shared: &Shared, job: Job, now: Instant) {
    let expired = job.request.is_expired(now);
    if let Some(ctx) = &job.request.trace {
        let clock = ctx.trace.clock();
        let start = clock.us_of(job.enqueued);
        let name = if expired {
            "expired_in_queue"
        } else {
            "cancelled_in_queue"
        };
        ctx.trace.record(
            ctx.parent,
            name,
            start,
            clock.now_us().saturating_sub(start),
        );
    }
    if expired {
        shared.stats.record_expired(1);
    } else {
        shared.stats.record_cancelled(1);
    }
    shared.obs.record_outcome(
        Some(job.request.scene.as_str()),
        false,
        false,
        job.enqueued.elapsed().as_secs_f64(),
    );
    if let Some(root) = job.trace_root {
        root.finish();
        if let Some(ctx) = &job.request.trace {
            shared.obs.finish(&ctx.trace);
        }
    }
    // A dropped ticket just means the client stopped waiting.
    let _ = job.tx.send(Err(if expired {
        ServeError::DeadlineExceeded
    } else {
        ServeError::Cancelled
    }));
}

#[allow(clippy::too_many_arguments)]
fn respond(
    shared: &Shared,
    worker_idx: usize,
    job: Job,
    batch_size: usize,
    cache_hit: bool,
    shards: usize,
    image: Arc<gs_core::image::Image>,
    answered: &AtomicU64,
) {
    let latency = job.enqueued.elapsed();
    let trace = job.request.trace.clone();
    shared.obs.record_outcome(
        Some(job.request.scene.as_str()),
        true,
        cache_hit,
        latency.as_secs_f64(),
    );
    let frame = RenderedFrame {
        image,
        scene: job.request.scene,
        latency,
        batch_size,
        cache_hit,
        worker: worker_idx,
        shards,
    };
    // Record before sending so a client that receives its response always
    // finds itself counted in a subsequent `stats()` snapshot. The trace is
    // likewise finished first, so a caller holding the other end of the
    // ticket observes the complete span tree.
    shared
        .stats
        .record_completed_traced(worker_idx, latency, trace.as_ref().map(|c| c.trace.id()));
    answered.fetch_add(1, Ordering::Relaxed);
    if let Some(root) = job.trace_root {
        root.finish();
        if let Some(ctx) = &trace {
            shared.obs.finish(&ctx.trace);
        }
    }
    // A dropped ticket just means the client stopped waiting.
    let _ = job.tx.send(Ok(frame));
}
