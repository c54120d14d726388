//! One replica of the serving tier, driven in-process or over HTTP.
//!
//! A [`Replica`] wraps a transport to one `gs-serve` instance and exposes
//! exactly the operations the coordinator needs: health probes, scene
//! loads/unloads, frame renders and partial-frame layer renders. The two
//! transports are interchangeable — the HTTP one speaks the lossless
//! [`gs_serve::wire`] encodings, so a frame or layer rendered remotely is
//! bit-identical to the same render performed in-process.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;
use gs_obs::TraceContext;
use gs_render::rasterize::FrameLayer;
use gs_serve::http::client;
use gs_serve::{
    wire, RenderServer, SceneId, ServeError, StatsReport, WireFormat, WireRequest, TRACE_ID_HEADER,
    TRACE_PARENT_HEADER, TRACE_SPANS_HEADER,
};

/// Index of a replica within its coordinator (assignment order).
pub type ReplicaId = usize;

/// Routing state of a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Healthy; receives new work.
    Up,
    /// Administratively draining: receives no new work, but keeps what it
    /// has until placements migrate away. Rejoin with
    /// [`crate::Coordinator::rejoin`].
    Draining,
    /// Failed a probe or a transport call; receives no work until a
    /// successful re-probe.
    Down,
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Health::Up => "up",
            Health::Draining => "draining",
            Health::Down => "down",
        })
    }
}

/// How the coordinator reaches a replica.
pub enum ReplicaTransport {
    /// A `RenderServer` in the coordinator's own process (direct calls).
    InProcess(Arc<RenderServer>),
    /// A remote `gs-serve` HTTP front-end at `addr` (e.g.
    /// `"127.0.0.1:8080"`), driven over pooled keep-alive connections.
    Http(String),
}

/// A replica-level failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaError {
    /// The replica answered with a service error (scene missing, admission
    /// rejection, ...). The replica itself is alive.
    Serve(ServeError),
    /// The transport failed (connection refused/reset, malformed response).
    /// Grounds for marking the replica down and failing over.
    Transport(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Serve(e) => write!(f, "replica error: {e}"),
            ReplicaError::Transport(msg) => write!(f, "replica transport failed: {msg}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// Per-call socket timeout of the HTTP transport; bounds how long a dead
/// replica can stall a coordinator render before failover kicks in.
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// One replica of the cluster: a named transport plus (for HTTP) a small
/// keep-alive connection pool.
pub struct Replica {
    name: String,
    transport: ReplicaTransport,
    pool: Mutex<Vec<TcpStream>>,
}

impl Replica {
    /// Wraps a transport.
    pub fn new(name: impl Into<String>, transport: ReplicaTransport) -> Self {
        Self {
            name: name.into(),
            transport,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The replica's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Liveness probe (`GET /healthz` for HTTP replicas; in-process
    /// replicas are alive by construction).
    pub fn probe(&self) -> bool {
        match &self.transport {
            ReplicaTransport::InProcess(_) => true,
            ReplicaTransport::Http(_) => self
                .call("GET", "/healthz", &[])
                .map(|r| r.status == 200)
                .unwrap_or(false),
        }
    }

    /// The replica's reported device memory budget in bytes — what the
    /// coordinator places scenes against.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Transport`] when the replica cannot be reached.
    pub fn budget_bytes(&self) -> Result<u64, ReplicaError> {
        match &self.transport {
            ReplicaTransport::InProcess(server) => Ok(server.budget_bytes()),
            ReplicaTransport::Http(_) => Ok(self.stats_report()?.budget_bytes),
        }
    }

    /// Loads (or replaces) a scene on the replica.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Serve`] on admission rejection,
    /// [`ReplicaError::Transport`] when the replica cannot be reached.
    pub fn load_scene(
        &self,
        id: &SceneId,
        params: &Arc<GaussianParams>,
        background: [f32; 3],
    ) -> Result<(), ReplicaError> {
        match &self.transport {
            ReplicaTransport::InProcess(server) => server
                .load_scene(id.clone(), Arc::clone(params), background)
                .map_err(ReplicaError::Serve),
            ReplicaTransport::Http(_) => {
                let body = wire::encode_scene(params, background);
                let response = self.call("POST", &format!("/scenes/{id}"), &body)?;
                match response.status {
                    201 => Ok(()),
                    status => Err(serve_error_for(status, id, &response.body)),
                }
            }
        }
    }

    /// Unloads a scene; `Ok(true)` if it was loaded.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Transport`] when the replica cannot be reached.
    pub fn unload_scene(&self, id: &SceneId) -> Result<bool, ReplicaError> {
        match &self.transport {
            ReplicaTransport::InProcess(server) => Ok(server.unload_scene(id)),
            ReplicaTransport::Http(_) => {
                let response = self.call("DELETE", &format!("/scenes/{id}"), &[])?;
                Ok(response.status == 200)
            }
        }
    }

    /// Renders a full frame. The raw-`f32` wire encoding is lossless, so
    /// the transports produce bit-identical images for the same request.
    /// Returns the image and the number of shard layers composited into it.
    ///
    /// With a `trace` context, the replica's spans join the caller's tree:
    /// an in-process replica records straight into the shared trace (node
    /// relabeled to the replica's name), an HTTP replica receives the trace
    /// id and parent span as headers and its `X-Trace-Spans` answer is
    /// grafted back under `trace.parent`.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Serve`] for service errors (unknown scene, ...),
    /// [`ReplicaError::Transport`] when the replica cannot be reached.
    pub fn render(
        &self,
        request: &WireRequest,
        trace: Option<&TraceContext>,
    ) -> Result<(Image, usize), ReplicaError> {
        match &self.transport {
            ReplicaTransport::InProcess(server) => {
                let mut render_req = request.to_render_request();
                if let Some(ctx) = trace {
                    render_req = render_req.with_trace(self.local_context(ctx));
                }
                let frame = server
                    .render_blocking(render_req)
                    .map_err(ReplicaError::Serve)?;
                Ok((frame.image.as_ref().clone(), frame.shards))
            }
            ReplicaTransport::Http(_) => {
                // Always fetch raw f32 over the wire regardless of what the
                // cluster's own client asked for: the coordinator re-encodes
                // at its edge, and only raw is lossless.
                let mut wire_req = request.clone();
                wire_req.format = WireFormat::RawF32;
                let hop = trace.map(|ctx| (ctx.trace.id().to_string(), ctx.parent.to_string()));
                let headers: Vec<(&str, &str)> = hop.as_ref().map_or_else(Vec::new, |(id, p)| {
                    vec![
                        (TRACE_ID_HEADER, id.as_str()),
                        (TRACE_PARENT_HEADER, p.as_str()),
                    ]
                });
                let response = self.call_with_headers(
                    "POST",
                    "/render",
                    &headers,
                    wire_req.to_body().as_bytes(),
                )?;
                graft_remote_spans(trace, &response);
                if response.status != 200 {
                    return Err(serve_error_for(
                        response.status,
                        &request.scene,
                        &response.body,
                    ));
                }
                let (w, h) = request.frame_size();
                let image = wire::decode_raw_f32(w, h, &response.body)
                    .map_err(|e| ReplicaError::Transport(e.to_string()))?;
                let shards = response
                    .header("x-shards")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1);
                Ok((image, shards))
            }
        }
    }

    /// Renders one shard (selected by `request.shard`) — or a whole scene —
    /// as a partial-frame layer, optionally continuing `into`'s blend state
    /// exactly where a nearer shard left it. The layer wire encoding is
    /// lossless, so relaying a layer through HTTP replicas reproduces the
    /// single-node composite bit for bit.
    ///
    /// With a `trace` context the hop is stitched like [`Replica::render`],
    /// except the trace travels inside the `GSLQ` envelope's `GSTC` block
    /// instead of headers (the layer request is one binary body).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Serve`] for service errors,
    /// [`ReplicaError::Transport`] when the replica cannot be reached.
    pub fn render_layer(
        &self,
        request: &WireRequest,
        into: Option<&FrameLayer>,
        trace: Option<&TraceContext>,
    ) -> Result<FrameLayer, ReplicaError> {
        match &self.transport {
            ReplicaTransport::InProcess(server) => {
                let mut render_req = request.to_render_request();
                if let Some(ctx) = trace {
                    render_req = render_req.with_trace(self.local_context(ctx));
                }
                server
                    .render_layer_blocking(&render_req, request.shard, into.cloned())
                    .map_err(ReplicaError::Serve)
            }
            ReplicaTransport::Http(_) => {
                let body = wire::encode_layer_request_traced(
                    request,
                    trace.map(|ctx| (ctx.trace.id(), ctx.parent)),
                    into,
                );
                let response = self.call("POST", "/render_layer", &body)?;
                graft_remote_spans(trace, &response);
                if response.status != 200 {
                    return Err(serve_error_for(
                        response.status,
                        &request.scene,
                        &response.body,
                    ));
                }
                wire::decode_layer(&response.body)
                    .map_err(|e| ReplicaError::Transport(e.to_string()))
            }
        }
    }

    /// The caller's trace context re-labeled with this replica's name, so
    /// spans an in-process replica records inside the shared tree carry the
    /// replica's identity instead of the coordinator's.
    fn local_context(&self, ctx: &TraceContext) -> TraceContext {
        TraceContext {
            trace: ctx.trace.with_node(&self.name),
            parent: ctx.parent,
        }
    }

    /// The replica's statistics report (`GET /stats/wire` for HTTP).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Transport`] when the replica cannot be reached.
    pub fn stats_report(&self) -> Result<StatsReport, ReplicaError> {
        match &self.transport {
            ReplicaTransport::InProcess(server) => Ok(StatsReport::new(
                &server.stats(),
                server.budget_bytes(),
                server.used_bytes(),
            )),
            ReplicaTransport::Http(_) => {
                let response = self.call("GET", "/stats/wire", &[])?;
                if response.status != 200 {
                    return Err(ReplicaError::Transport(format!(
                        "GET /stats/wire answered {}",
                        response.status
                    )));
                }
                let text = String::from_utf8_lossy(&response.body);
                StatsReport::parse(&text).map_err(|e| ReplicaError::Transport(e.to_string()))
            }
        }
    }

    /// One HTTP call over a pooled keep-alive connection. A failure on a
    /// pooled (possibly stale) connection is retried once on a fresh one
    /// before it is reported — only a fresh-connection failure is evidence
    /// the replica is actually gone.
    fn call(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<client::ClientResponse, ReplicaError> {
        self.call_with_headers(method, path, &[], body)
    }

    /// [`Replica::call`] with extra request headers (trace propagation).
    fn call_with_headers(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<client::ClientResponse, ReplicaError> {
        let ReplicaTransport::Http(addr) = &self.transport else {
            unreachable!("call() is only used by the HTTP transport");
        };
        let pooled = self.pool.lock().unwrap().pop();
        if let Some(mut stream) = pooled {
            if let Ok(response) =
                client::request_with_headers(&mut stream, method, path, headers, body)
            {
                self.pool.lock().unwrap().push(stream);
                return Ok(response);
            }
        }
        let fresh = || -> std::io::Result<(TcpStream, client::ClientResponse)> {
            // connect_timeout, not connect: a blackholed host (dropped SYNs)
            // must stall at most HTTP_TIMEOUT before failover, not the OS
            // default connect timeout of minutes.
            let sock = addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved empty"))?;
            let mut stream = TcpStream::connect_timeout(&sock, HTTP_TIMEOUT)?;
            stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
            stream.set_write_timeout(Some(HTTP_TIMEOUT))?;
            stream.set_nodelay(true)?;
            let response = client::request_with_headers(&mut stream, method, path, headers, body)?;
            Ok((stream, response))
        };
        match fresh() {
            Ok((stream, response)) => {
                self.pool.lock().unwrap().push(stream);
                Ok(response)
            }
            Err(e) => Err(ReplicaError::Transport(format!("{method} {path}: {e}"))),
        }
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let transport = match &self.transport {
            ReplicaTransport::InProcess(_) => "in-process".to_string(),
            ReplicaTransport::Http(addr) => format!("http://{addr}"),
        };
        f.debug_struct("Replica")
            .field("name", &self.name)
            .field("transport", &transport)
            .finish()
    }
}

/// Grafts the spans a remote replica returned in `X-Trace-Spans` under the
/// caller's parent span (no-op when untraced or the header is absent; a
/// malformed header is ignored rather than corrupting the tree).
fn graft_remote_spans(trace: Option<&TraceContext>, response: &client::ClientResponse) {
    if let (Some(ctx), Some(text)) = (trace, response.header(TRACE_SPANS_HEADER)) {
        if let Some(spans) = gs_obs::decode_spans(text, ctx.trace.id()) {
            ctx.trace.graft(ctx.parent, spans);
        }
    }
}

/// Reconstructs the closest [`ServeError`] from an HTTP error status.
fn serve_error_for(status: u16, scene: &str, body: &[u8]) -> ReplicaError {
    match status {
        404 => ReplicaError::Serve(ServeError::UnknownScene(scene.to_string())),
        409 => ReplicaError::Serve(ServeError::SceneExists(scene.to_string())),
        413 => ReplicaError::Serve(ServeError::Admission(gs_core::Error::invalid_argument(
            format!(
                "replica admission rejected the payload: {}",
                String::from_utf8_lossy(body).trim()
            ),
        ))),
        // gs-serve folds several conditions into 503; the body text tells
        // them apart. Only the shutting-down/overloaded case should make the
        // coordinator fail over — an expired deadline or cancelled request
        // is the request's outcome, not the replica's fault.
        503 => {
            let text = String::from_utf8_lossy(body);
            if text.contains("deadline") {
                ReplicaError::Serve(ServeError::DeadlineExceeded)
            } else if text.contains("cancelled") {
                ReplicaError::Serve(ServeError::Cancelled)
            } else {
                ReplicaError::Serve(ServeError::ShuttingDown)
            }
        }
        other => ReplicaError::Transport(format!(
            "unexpected status {other}: {}",
            String::from_utf8_lossy(body).trim()
        )),
    }
}
