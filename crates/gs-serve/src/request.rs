//! Request/response types for the rendering service.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_core::camera::{Camera, Viewport};
use gs_core::image::Image;

/// Identifies a loaded scene in the registry.
pub type SceneId = String;

/// A shared cancellation flag attached to a [`RenderRequest`].
///
/// The submitter keeps a clone; setting it tells the service the client is
/// gone (e.g. its HTTP connection closed while the request was queued).
/// Workers sweep cancelled jobs out of the queue via `drain_where` and
/// answer them with [`ServeError::Cancelled`] instead of rendering frames
/// nobody will read — the same treatment expired deadlines get.
///
/// When the service accepts the request it installs a *watcher* counter on
/// the token (`CancelToken::watch`): the first `cancel()` bumps it, which
/// is how workers know a sweep is worth its O(queue) walk at all — merely
/// *carrying* a token (every HTTP request does) costs the queue nothing.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<CancelInner>);

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    /// `(counted, watcher)` under one mutex so the watcher is notified
    /// exactly once no matter how `cancel()` and `watch()` interleave.
    watch: std::sync::Mutex<(bool, Option<Arc<std::sync::atomic::AtomicU64>>)>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the request as cancelled, notifying the watcher (if installed)
    /// exactly once.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::SeqCst);
        let mut watch = self.0.watch.lock().unwrap();
        if !watch.0 {
            if let Some(counter) = &watch.1 {
                counter.fetch_add(1, Ordering::SeqCst);
                watch.0 = true;
            }
        }
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.flag.load(Ordering::SeqCst)
    }

    /// Installs the counter `cancel()` bumps; if the token was cancelled
    /// before the watcher arrived, the counter is bumped immediately.
    pub(crate) fn watch(&self, counter: &Arc<std::sync::atomic::AtomicU64>) {
        let mut watch = self.0.watch.lock().unwrap();
        watch.1 = Some(Arc::clone(counter));
        if self.0.flag.load(Ordering::SeqCst) && !watch.0 {
            counter.fetch_add(1, Ordering::SeqCst);
            watch.0 = true;
        }
    }
}

/// A request to render one view of one scene.
#[derive(Debug, Clone)]
pub struct RenderRequest {
    /// Which scene to render.
    pub scene: SceneId,
    /// Camera pose and intrinsics for the view.
    pub camera: Camera,
    /// Pixel region of the camera image to render.
    pub viewport: Viewport,
    /// Number of spherical-harmonic bands used for color (0..=3).
    pub sh_degree: usize,
    /// Optional completion deadline. A queued request whose deadline passes
    /// before a worker picks it up is answered with
    /// [`ServeError::DeadlineExceeded`] instead of being rendered (and
    /// counted as `expired` in the service stats) — under overload there is
    /// no point rendering frames nobody is waiting for anymore.
    pub deadline: Option<Instant>,
    /// Optional cancellation flag (see [`CancelToken`]). A queued request
    /// whose token is cancelled is answered with [`ServeError::Cancelled`]
    /// and counted as `cancelled` in the service stats, never rendered.
    pub cancel: Option<CancelToken>,
    /// Optional client/session id, used by workload capture to attribute
    /// requests to sessions. The HTTP front-end fills it from the body's
    /// `client` key, the `X-Client-Id` header, or the peer address.
    pub client: Option<String>,
    /// Optional trace context. When set, the serving layers record queue /
    /// render / kernel-phase spans into the shared tree as the request
    /// moves through them; when `None`, the request is untraced (the
    /// common case — ingress samples every Nth request).
    pub trace: Option<gs_obs::TraceContext>,
}

impl RenderRequest {
    /// A full-image render request with degree-3 SH color, no deadline and
    /// no cancel token.
    pub fn full(scene: impl Into<SceneId>, camera: Camera) -> Self {
        let viewport = Viewport::full(&camera);
        Self {
            scene: scene.into(),
            camera,
            viewport,
            sh_degree: 3,
            deadline: None,
            cancel: None,
            client: None,
            trace: None,
        }
    }

    /// Sets the deadline to `timeout` from now.
    pub fn deadline_in(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Attaches a cancel token (the caller keeps a clone to trigger it).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a trace context (spans the serving layers record will
    /// parent under its `parent` span).
    pub fn with_trace(mut self, trace: gs_obs::TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Whether the request's deadline (if any) has passed at `now`.
    pub fn is_expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Whether the request's cancel token (if any) has been triggered.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// A completed render, including the measurements the service collected for
/// the request.
#[derive(Debug, Clone)]
pub struct RenderedFrame {
    /// The rendered image (shared with the frame cache).
    pub image: Arc<Image>,
    /// Scene the frame belongs to.
    pub scene: SceneId,
    /// Time from enqueue to completion.
    pub latency: Duration,
    /// Number of same-scene requests the worker grouped with this one
    /// (1 = unbatched).
    pub batch_size: usize,
    /// Whether the frame was served from the frame cache.
    pub cache_hit: bool,
    /// Index of the worker thread that produced the frame. Frames answered
    /// by the pre-enqueue cache fast path never touch the pool and report
    /// the index one past it (`== workers`).
    pub worker: usize,
    /// Number of shard layers composited into this frame (1 for an
    /// unsharded scene, and for cache hits of either kind).
    pub shards: usize,
}

/// Errors surfaced to service clients.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The requested scene is not loaded in the registry.
    UnknownScene(SceneId),
    /// Loading a scene was rejected by admission control.
    Admission(gs_core::Error),
    /// A load required the scene to be new, but the id is already taken
    /// (e.g. `POST /scenes/<id>` for a loaded scene).
    SceneExists(SceneId),
    /// The request's deadline passed while it was still queued.
    DeadlineExceeded,
    /// The request's cancel token was triggered while it was still queued
    /// (e.g. the submitting client disconnected).
    Cancelled,
    /// A layer render named a shard the scene does not have.
    UnknownShard(SceneId, usize),
    /// The service dropped the request without answering it — it is
    /// shutting down, or the worker processing the request failed.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownScene(id) => write!(f, "scene {id:?} is not loaded"),
            ServeError::Admission(e) => write!(f, "admission control rejected the load: {e}"),
            ServeError::SceneExists(id) => write!(f, "scene {id:?} is already loaded"),
            ServeError::DeadlineExceeded => {
                write!(f, "the request's deadline passed before it was rendered")
            }
            ServeError::Cancelled => {
                write!(f, "the request was cancelled before it was rendered")
            }
            ServeError::UnknownShard(id, k) => {
                write!(f, "scene {id:?} has no shard {k}")
            }
            ServeError::ShuttingDown => write!(f, "the service dropped the request"),
        }
    }
}

impl std::error::Error for ServeError {}
