//! A std-only HTTP/1.1 front-end for [`RenderServer`] — and the reusable
//! listener machinery other services (the cluster coordinator) build their
//! own front-ends on.
//!
//! [`HttpServer::bind`] starts a TCP listener and serves a minimal HTTP/1.1
//! subset — `GET`/`POST` with `Content-Length` bodies and keep-alive — so
//! external load generators (curl, wrk-style closed loops) can drive the
//! rendering service over a real wire protocol:
//!
//! * `POST /render` — body in the [`crate::wire`] format; answers with the
//!   rendered frame encoded per the request's `format` (raw little-endian
//!   `f32` or binary PPM) plus `X-Image-Width`/`X-Image-Height`/
//!   `X-Cache-Hit`/`X-Batch-Size`/`X-Shards`/`X-Worker`/`X-Latency-Us`
//!   headers. While the request is queued the handler watches the client
//!   socket: a disconnect triggers the request's [`crate::CancelToken`], so
//!   workers sweep the dead job out of the queue (counted as `cancelled`)
//!   instead of rendering a frame nobody will read.
//! * `POST /render_layer` — a [`crate::wire::encode_layer_request`] body;
//!   renders one shard (or a whole scene) as a partial-frame
//!   [`gs_render::rasterize::FrameLayer`], optionally continuing an attached
//!   incoming layer's blend state, and answers with the
//!   [`crate::wire::encode_layer`] bytes. The remote half of cross-node
//!   sharded rendering.
//! * `POST /scenes/<id>` — a text [`SceneSpec`] (synthetic build) or a
//!   binary [`crate::wire::encode_scene`] upload (exact parameters; how a
//!   cluster coordinator places scenes and shards on a replica).
//! * `GET /stats` — the [`crate::stats::ServeStats`] text report.
//! * `GET /stats/wire` — the machine-readable [`crate::wire::StatsReport`]
//!   a cluster coordinator aggregates (counters, latency samples, budget).
//! * `GET /metrics` — Prometheus text exposition of the metrics registry
//!   (request counters, latency histograms, kernel-phase rooflines, trace
//!   gauges).
//! * `GET /trace` — the finished-span ring as Chrome trace-event JSON
//!   (load it in `chrome://tracing` / Perfetto). `GET /trace?id=<hex>`
//!   exports just that trace, `404` when it has aged out of the ring.
//! * `GET /slo` — SLO burn-rate status as JSON (see [`gs_obs::SloEngine`]).
//! * `GET /heat` — windowed per-scene top-K telemetry as JSON.
//! * `GET /events` — the flight recorder's recent wide events as JSON.
//! * `GET /incidents` — captured anomaly incidents (trigger, event tail,
//!   metrics snapshot) as JSON.
//! * `GET /scenes` — the loaded scene ids, one per line.
//! * `GET /healthz` — liveness probe.
//!
//! Request tracing: `POST /render` joins the trace named by an
//! `X-Trace-Id` header (generating none otherwise unless ingress sampling
//! is on), parents its spans under `X-Trace-Parent` when given, and echoes
//! the id back. A request carrying a *parent* is treated as one hop of a
//! remote trace: its spans are returned in the response's `X-Trace-Spans`
//! header for the caller to graft, instead of landing in the local ring.
//! `POST /render_layer` does the same via the envelope's trace block (see
//! [`crate::wire::encode_layer_request_traced`]) or the same headers.
//!
//! Errors map onto status codes: malformed requests and bodies get `400`,
//! unknown paths and unknown scenes `404`, wrong methods `405`, oversized
//! heads/bodies `413`, unsupported transfer encodings `501`, and a
//! connection-limit or shutting-down service `503`.
//!
//! Concurrency model: one handler thread per connection (bounded by
//! [`HttpConfig::max_connections`]). Each handler blocks on the bounded
//! worker queue while it is full — the queue's backpressure therefore
//! propagates all the way to the TCP client, exactly like the in-process
//! closed-loop clients. Custom services plug their routing into the same
//! listener via [`HttpHandler`] and [`HttpServer::bind_with`].

use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gs_obs::{RequestTrace, Span, TraceContext, TraceId};
use gs_trace::{Outcome, TraceRecorder};

use crate::obs::ServeObs;
use crate::request::{CancelToken, ServeError};
use crate::server::RenderServer;
use crate::stats::ConnectionStats;
use crate::wire::{self, SceneSpec, StatsReport, WireFormat, WireRequest};

/// Configuration of an [`HttpServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Maximum concurrent connections; excess connections get `503`.
    pub max_connections: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// How long a keep-alive connection may sit idle (or a request may
    /// dribble in) before it is closed. Keeps slow or abandoned sockets from
    /// pinning handler threads and `max_connections` slots forever.
    pub idle_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_body_bytes: 64 << 10,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Maximum size of a request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 << 10;
/// How often blocked reads and the accept loop re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Per-write-call timeout; bounds how long a stalled (never-reading) client
/// can pin a handler thread mid-response.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Accepted / rejected / active connection counters, shared between the
/// accept loop, the handlers (so `GET /stats` can report them) and
/// [`HttpServer::connection_stats`].
#[derive(Default)]
struct ConnCounters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    active: AtomicUsize,
}

impl ConnCounters {
    fn snapshot(&self) -> ConnectionStats {
        ConnectionStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            active: self.active.load(Ordering::SeqCst) as u64,
        }
    }
}

/// The HTTP front-end: an accept loop plus one handler thread per
/// connection, all serving one shared [`RenderServer`].
pub struct HttpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: Arc<ConnCounters>,
}

impl HttpServer {
    /// Binds the listener and starts accepting connections, serving the
    /// standard [`RenderServer`] routes.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: HttpConfig, server: Arc<RenderServer>) -> io::Result<Self> {
        Self::bind_with(
            config,
            Arc::new(ServeHandler {
                server,
                recorder: None,
            }),
        )
    }

    /// Like [`HttpServer::bind`], but with workload capture: every
    /// `POST /render` the front-end answers is recorded into `recorder`
    /// (scene, pose, deadline, arrival time, client id, outcome, latency).
    /// The caller keeps its own [`TraceRecorder`] handle and snapshots the
    /// [`gs_trace::Trace`] whenever it wants.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_recorded(
        config: HttpConfig,
        server: Arc<RenderServer>,
        recorder: Arc<TraceRecorder>,
    ) -> io::Result<Self> {
        Self::bind_with(
            config,
            Arc::new(ServeHandler {
                server,
                recorder: Some(recorder),
            }),
        )
    }

    /// Binds the listener with a custom routing layer — how services other
    /// than a plain `RenderServer` (e.g. a cluster coordinator) reuse the
    /// whole connection machinery: accept loop, per-connection handler
    /// threads, keep-alive framing, connection limits and idle timeouts.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(config: HttpConfig, handler: Arc<dyn HttpHandler>) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept polled against the stop flag: shutdown never
        // hangs waiting for one more connection to arrive.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(ConnCounters::default());

        let accept = {
            let stop = Arc::clone(&stop);
            let handlers = Arc::clone(&handlers);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("gs-serve-http-accept".to_string())
                .spawn(move || {
                    accept_loop(&listener, &config, &handler, &stop, &handlers, &counters);
                })
                .expect("spawn http accept thread")
        };

        Ok(Self {
            local_addr,
            stop,
            accept: Some(accept),
            handlers,
            counters,
        })
    }

    /// The bound address (with the actual port when `addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connection-level counters (also reported inside `GET /stats`).
    pub fn connection_stats(&self) -> ConnectionStats {
        self.counters.snapshot()
    }

    /// Stops accepting, waits for every in-flight connection handler to
    /// finish, and returns.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().unwrap());
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(
    listener: &TcpListener,
    config: &HttpConfig,
    handler: &Arc<dyn HttpHandler>,
    stop: &Arc<AtomicBool>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: &Arc<ConnCounters>,
) {
    while !stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
            Err(_) => {
                // Persistent failures (e.g. EMFILE at the fd limit) would
                // otherwise spin; back off so in-flight handlers can finish
                // and free descriptors.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        // Reap finished handler threads so the handle list stays bounded by
        // the number of *live* connections.
        handlers.lock().unwrap().retain(|h| !h.is_finished());
        if counters.active.load(Ordering::SeqCst) >= config.max_connections {
            counters.rejected.fetch_add(1, Ordering::SeqCst);
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let mut stream = stream;
            let _ = write_response(
                &mut stream,
                &HttpResponse::text(503, "service at its connection limit\n"),
                false,
            );
            drain_before_close(&mut stream);
            continue;
        }
        counters.active.fetch_add(1, Ordering::SeqCst);
        counters.accepted.fetch_add(1, Ordering::SeqCst);
        let handler = Arc::clone(handler);
        let stop = Arc::clone(stop);
        let guard = ActiveGuard(Arc::clone(counters));
        let conn_counters = Arc::clone(counters);
        let max_body = config.max_body_bytes;
        let idle_timeout = config.idle_timeout;
        let spawned = std::thread::Builder::new()
            .name("gs-serve-http-conn".to_string())
            .spawn(move || {
                // Moved into the thread so the slot is released even if the
                // handler panics.
                let _guard = guard;
                handle_connection(
                    handler.as_ref(),
                    &conn_counters,
                    stream,
                    max_body,
                    idle_timeout,
                    &stop,
                );
            });
        match spawned {
            Ok(handle) => handlers.lock().unwrap().push(handle),
            Err(_) => {
                // Out of threads: shed the connection like the limit path
                // does instead of panicking the accept loop. The stream and
                // the active-count guard were moved into the failed spawn
                // closure, which drops them: the socket closes and the slot
                // is released. It counts as shed, not served.
                counters.accepted.fetch_sub(1, Ordering::SeqCst);
                counters.rejected.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// Decrements the active-connection count when dropped, so the slot is
/// released on every handler exit path — including a panic.
struct ActiveGuard(Arc<ConnCounters>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One parsed HTTP request, as handed to an [`HttpHandler`].
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (`/render`, ...).
    pub path: String,
    /// Protocol version string (`HTTP/1.1`).
    pub version: String,
    /// Header map, names lowercased.
    pub headers: HashMap<String, String>,
    /// Request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    /// `Connection` header overrides either.
    fn keep_alive(&self) -> bool {
        match self
            .headers
            .get("connection")
            .map(|v| v.to_ascii_lowercase())
        {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.version != "HTTP/1.0",
        }
    }
}

/// The routing layer plugged into the shared listener machinery (see
/// [`HttpServer::bind_with`]). Called on the connection's handler thread;
/// blocking in `handle` blocks only this connection.
pub trait HttpHandler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, request: &HttpRequest, conn: &mut Conn<'_>) -> HttpResponse;
}

/// The handler's view of the connection it is serving: the shared
/// connection counters plus a live probe of the client socket, so
/// long-waiting routes (a queued render) can notice the client leaving.
pub struct Conn<'a> {
    stream: &'a mut TcpStream,
    /// Bytes already read off the socket but not yet consumed (pipelined
    /// next requests); disconnect probes must preserve them.
    buf: &'a mut Vec<u8>,
    /// Cap on `buf` growth during disconnect probes (one head plus one
    /// body); a client streaming more than a pipelined request's worth of
    /// bytes mid-response is abusive and treated as disconnected.
    max_buffered: usize,
    counters: &'a ConnCounters,
    stop: &'a AtomicBool,
}

impl Conn<'_> {
    /// Connection-level counters (what `GET /stats` reports).
    pub fn connections(&self) -> ConnectionStats {
        self.counters.snapshot()
    }

    /// Whether the front-end is shutting down.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The client's socket address, if the OS can still name it — the
    /// fallback client/session id for workload capture when a request
    /// carries neither a `client` body key nor an `X-Client-Id` header.
    pub fn peer_addr(&self) -> Option<String> {
        self.stream.peer_addr().ok().map(|a| a.to_string())
    }

    /// Probes the client socket without consuming request data: returns
    /// `true` once the peer has closed (EOF) or errored. Bytes of a
    /// pipelined next request that arrive during the probe are buffered for
    /// the connection loop. A half-closed client (write side shut down) is
    /// reported as disconnected — it could still read a response, but a
    /// client that has hung up its request stream is treated as gone.
    ///
    /// Blocks at most one short poll interval (the stream's read timeout).
    pub fn client_disconnected(&mut self) -> bool {
        match read_into(self.stream, self.buf) {
            Ok(0) => true,
            Ok(_) => {
                // A client flooding bytes while its render is queued would
                // otherwise grow the buffer without bound (head/body limits
                // are only enforced when the next request is parsed).
                self.buf.len() > self.max_buffered
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                false
            }
            Err(_) => true,
        }
    }
}

enum ReadOutcome {
    Request(HttpRequest),
    /// Clean EOF between requests.
    Closed,
    /// Framing or syntax error; respond with the status then close.
    Bad(HttpResponse),
}

fn handle_connection(
    handler: &dyn HttpHandler,
    counters: &ConnCounters,
    mut stream: TcpStream,
    max_body: usize,
    idle_timeout: Duration,
    stop: &AtomicBool,
) {
    // On some platforms an accepted socket inherits the listener's
    // non-blocking flag; reads must block (with a timeout) or the poll loop
    // below would spin.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    // Reads time out so an idle keep-alive connection re-checks the stop
    // flag instead of pinning its handler thread forever.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    // Writes time out too: a client that requests a large frame and never
    // drains its socket would otherwise block `write_all` forever and make
    // `HttpServer::shutdown` (which joins this thread) hang with it. A
    // draining-but-slow client is safe — the timeout applies per write call,
    // not to the whole response.
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Bytes already read off the socket but not yet consumed (a pipelined
    // next request, or the partial head of one still arriving).
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match read_request(&mut stream, &mut buf, max_body, idle_timeout, stop) {
            ReadOutcome::Request(req) => {
                let keep_alive = req.keep_alive();
                let response = {
                    let mut conn = Conn {
                        stream: &mut stream,
                        buf: &mut buf,
                        max_buffered: MAX_HEAD_BYTES + max_body,
                        counters,
                        stop,
                    };
                    handler.handle(&req, &mut conn)
                };
                if write_response(&mut stream, &response, keep_alive).is_err() || !keep_alive {
                    break;
                }
            }
            ReadOutcome::Closed => break,
            ReadOutcome::Bad(response) => {
                // Framing is lost after a malformed head; answer and close.
                let _ = write_response(&mut stream, &response, false);
                drain_before_close(&mut stream);
                break;
            }
        }
    }
}

/// Briefly drains unread request bytes (after a write shutdown) before the
/// socket closes. Closing with unread data in the receive queue sends a TCP
/// RST, which can destroy an error response the client has not read yet —
/// the client would see `ECONNRESET` instead of the 4xx/5xx we just wrote.
fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
}

/// Reads one full request (head + `Content-Length` body) from the stream,
/// polling `stop` on read timeouts. A connection that stays idle (or
/// dribbles a request in) past `idle_timeout` is closed so abandoned or
/// slow-loris sockets cannot pin handler threads and connection slots.
fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max_body: usize,
    idle_timeout: Duration,
    stop: &AtomicBool,
) -> ReadOutcome {
    let deadline = Instant::now() + idle_timeout;
    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(buf, &mut scanned) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return ReadOutcome::Bad(HttpResponse::text(413, "request head too large\n"));
        }
        match read_more(stream, deadline, stop, |stream| read_into(stream, buf)) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Bad(HttpResponse::text(400, "truncated request\n"))
                };
            }
            Ok(_) => {}
            Err(_) => return ReadOutcome::Closed,
        }
    };

    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h.to_string(),
        Err(_) => return ReadOutcome::Bad(HttpResponse::text(400, "request head is not UTF-8\n")),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if v.starts_with("HTTP/") => {
            (m.to_string(), p.to_string(), v.to_string())
        }
        _ => {
            return ReadOutcome::Bad(HttpResponse::text(
                400,
                "malformed request line (expected: METHOD PATH HTTP/1.x)\n",
            ))
        }
    };
    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return ReadOutcome::Bad(HttpResponse::text(400, "malformed header line\n"));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    if headers.contains_key("transfer-encoding") {
        // Only Content-Length framing is implemented; silently treating a
        // chunked body as empty would desync the connection (the chunk data
        // would parse as the next request's head).
        return ReadOutcome::Bad(HttpResponse::text(
            501,
            "transfer encodings are not supported; use Content-Length\n",
        ));
    }
    let body_len = match headers.get("content-length") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return ReadOutcome::Bad(HttpResponse::text(400, "bad Content-Length\n")),
        },
        None => 0,
    };
    if body_len > max_body {
        return ReadOutcome::Bad(HttpResponse::text(413, "request body too large\n"));
    }
    // curl sends `Expect: 100-continue` for larger bodies and stalls ~1s
    // waiting for the interim response before transmitting the body. Sent
    // only once the request is going to be read (rejections above answer
    // with their final status instead, per RFC 9110).
    if body_len > 0
        && headers
            .get("expect")
            .is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"))
        && stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
    {
        return ReadOutcome::Closed;
    }
    // The body is read in place: the bytes after the head become its
    // buffer, and the rest of it is read straight onto their end. The
    // buffer grows only as bytes arrive. Bytes past the body (a pipelined
    // next request) go back to the connection buffer.
    let mut body = buf.split_off(head_end + 4);
    buf.clear();
    while body.len() < body_len {
        let read = read_more(stream, deadline, stop, |stream| {
            let want = (body_len - body.len()) as u64;
            stream.take(want).read_to_end(&mut body)
        });
        match read {
            Ok(0) => return ReadOutcome::Bad(HttpResponse::text(400, "truncated request body\n")),
            Ok(_) => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
    buf.extend_from_slice(&body[body_len..]);
    body.truncate(body_len);
    ReadOutcome::Request(HttpRequest {
        method,
        path,
        version,
        headers,
        body,
    })
}

/// Position of the `\r\n\r\n` head terminator in `buf`, if present. The
/// scan starts at `*from`; on a miss it leaves `*from` three bytes short of
/// the end (the terminator may straddle two reads), where the next scan
/// resumes. A head dribbled in byte by byte is thus scanned once, not
/// once per read.
fn find_head_end(buf: &[u8], from: &mut usize) -> Option<usize> {
    let found = buf[*from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| *from + p);
    if found.is_none() {
        *from = buf.len().saturating_sub(3);
    }
    found
}

/// Largest single read onto the end of a buffer: while looking for a head,
/// and in a disconnect probe. Bodies are read by their remaining length.
const READ_CHUNK: usize = 4096;

/// One read from `stream` straight onto the end of `buf` (at most
/// [`READ_CHUNK`] bytes); returns the byte count like [`Read::read`].
fn read_into(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
    let len = buf.len();
    buf.resize(len + READ_CHUNK, 0);
    let read = stream.read(&mut buf[len..]);
    buf.truncate(len + read.as_ref().map_or(0, |&n| n));
    read
}

/// Runs `read` (one read, or one `read_to_end` of a bounded `take`) until
/// it returns, retrying through the socket's read timeouts until `stop` is
/// set or `deadline` passes (then reports the connection as closed via
/// `Err`). Bytes a timed-out `read_to_end` already appended stay appended.
fn read_more(
    stream: &mut TcpStream,
    deadline: Instant,
    stop: &AtomicBool,
    mut read: impl FnMut(&mut TcpStream) -> io::Result<usize>,
) -> Result<usize, ()> {
    loop {
        match read(stream) {
            Ok(n) => return Ok(n),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    return Err(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// A response ready to serialize.
pub struct HttpResponse {
    /// Status code (200, 400, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (`X-Image-Width`, ...).
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_response(
    stream: &mut TcpStream,
    response: &HttpResponse,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    write_message(stream, head.as_bytes(), &response.body)
}

/// Writes one HTTP message: `head` then `body`, as one vectored write.
/// Neither is copied next to the other, and a small message still leaves
/// in one syscall — two small writes would trip the Nagle/delayed-ACK
/// interaction and stall it by ~40ms. A partial write resumes where the
/// socket stopped.
fn write_message(stream: &mut impl Write, head: &[u8], body: &[u8]) -> io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut pending = &mut slices[..];
    // Drops leading empty slices: an empty message writes nothing instead
    // of reading a zero-byte write as a failure.
    IoSlice::advance_slices(&mut pending, 0);
    while !pending.is_empty() {
        match stream.write_vectored(pending) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// The status code a [`ServeError`] maps onto.
pub fn status_for_error(err: &ServeError) -> u16 {
    match err {
        ServeError::UnknownScene(_) | ServeError::UnknownShard(_, _) => 404,
        ServeError::SceneExists(_) => 409,
        ServeError::ShuttingDown
        | ServeError::Admission(_)
        | ServeError::DeadlineExceeded
        | ServeError::Cancelled => 503,
    }
}

/// Splits a request target into its path and optional query string.
pub fn split_path_query(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    }
}

/// Extracts the (undecoded) value of `key` from a query string.
pub fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// A `200` JSON response.
fn json_response(body: String) -> HttpResponse {
    HttpResponse {
        status: 200,
        content_type: "application/json",
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

/// The standard [`RenderServer`] routing layer (what [`HttpServer::bind`]
/// installs).
struct ServeHandler {
    server: Arc<RenderServer>,
    /// Workload capture (see [`HttpServer::bind_recorded`]); `None` = off.
    recorder: Option<Arc<TraceRecorder>>,
}

impl HttpHandler for ServeHandler {
    fn handle(&self, req: &HttpRequest, conn: &mut Conn<'_>) -> HttpResponse {
        let server = self.server.as_ref();
        let (path, query) = split_path_query(req.path.as_str());
        match (req.method.as_str(), path) {
            ("GET", "/stats") => {
                let mut stats = server.stats();
                stats.connections = conn.connections();
                HttpResponse::text(200, format!("{stats}\n"))
            }
            ("GET", "/stats/wire") => {
                let stats = server.stats();
                let report = StatsReport::new(&stats, server.budget_bytes(), server.used_bytes());
                HttpResponse::text(200, report.to_body())
            }
            ("GET", "/scenes") => {
                // One line per scene with its shard layout and residency,
                // e.g. `city shards=4 resident=2/4 gaussians=80000
                // bytes=18880000`.
                let mut body = String::new();
                for layout in server.scene_layouts() {
                    body.push_str(&format!(
                        "{} shards={} resident={}/{} gaussians={} bytes={}\n",
                        layout.id,
                        layout.shards,
                        layout.resident_shards,
                        layout.shards,
                        layout.gaussians,
                        layout.bytes,
                    ));
                }
                HttpResponse::text(200, body)
            }
            ("GET", "/healthz") => HttpResponse::text(200, "ok\n"),
            ("GET", "/metrics") => HttpResponse::text(200, server.metrics_text()),
            ("GET", "/trace") => match query_param(query, "id") {
                Some(id) => match server.obs().chrome_json_for(id) {
                    Some(json) => json_response(json),
                    None => HttpResponse::text(
                        404,
                        format!("no trace {id:?} in the ring (bad id, or it aged out)\n"),
                    ),
                },
                None => json_response(server.obs().chrome_json()),
            },
            ("GET", "/slo") => json_response(server.obs().slo_json()),
            ("GET", "/heat") => json_response(server.obs().heat_json()),
            ("GET", "/events") => json_response(server.obs().events_json()),
            ("GET", "/incidents") => json_response(server.obs().incidents_json()),
            ("POST", "/render") => render_route(server, self.recorder.as_deref(), req, conn),
            ("POST", "/render_layer") => render_layer_route(server, req),
            ("POST", path) if path.strip_prefix("/scenes/").is_some() => {
                let id = path.strip_prefix("/scenes/").unwrap_or_default();
                load_scene_route(server, id, &req.body)
            }
            ("DELETE", path) if path.strip_prefix("/scenes/").is_some() => {
                let id = path
                    .strip_prefix("/scenes/")
                    .unwrap_or_default()
                    .to_string();
                if server.unload_scene(&id) {
                    HttpResponse::text(200, format!("unloaded scene {id}\n"))
                } else {
                    HttpResponse::text(404, format!("scene {id:?} is not loaded\n"))
                }
            }
            (
                _,
                "/stats" | "/stats/wire" | "/scenes" | "/healthz" | "/metrics" | "/trace" | "/slo"
                | "/heat" | "/events" | "/incidents" | "/render" | "/render_layer",
            ) => HttpResponse::text(405, "method not allowed on this path\n"),
            (_, path) if path.starts_with("/scenes/") => {
                HttpResponse::text(405, "method not allowed on this path\n")
            }
            _ => HttpResponse::text(404, "unknown path\n"),
        }
    }
}

/// `POST /scenes/<id>`: register a scene. Two body forms are accepted:
///
/// * A binary [`wire::encode_scene`] upload — exact trained parameters, the
///   form a cluster coordinator uses to place scenes and shards. Loads (or
///   **replaces**) the id unsharded; the uploader owns the shard layout.
/// * A text [`SceneSpec`] — a synthetic scene built server-side, sharded
///   when it exceeds the size threshold (or as the spec's explicit `shards`
///   count). Refuses to replace an existing id.
///
/// `201` on success, `400` for a malformed body, `409` when a spec's id is
/// taken, `413` when the scene is too large to build or to admit.
fn load_scene_route(server: &RenderServer, id: &str, body: &[u8]) -> HttpResponse {
    if !wire::valid_scene_id(id) {
        return HttpResponse::text(400, "bad request: invalid scene id\n");
    }
    if wire::is_scene_upload(body) {
        let (params, background) = match wire::decode_scene(body) {
            Ok(decoded) => decoded,
            Err(e) => return HttpResponse::text(400, format!("{e}\n")),
        };
        let gaussians = params.len();
        return match server.load_scene(id, Arc::new(params), background) {
            Ok(()) => {
                HttpResponse::text(201, format!("loaded scene {id}: {gaussians} gaussians\n"))
            }
            Err(e @ ServeError::Admission(_)) => HttpResponse::text(413, format!("{e}\n")),
            Err(e) => HttpResponse::text(status_for_error(&e), format!("{e}\n")),
        };
    }
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return HttpResponse::text(400, "bad request: body is not UTF-8\n"),
    };
    let spec = match SceneSpec::parse(text) {
        Ok(s) => s,
        Err(e) => return HttpResponse::text(400, format!("{e}\n")),
    };
    if spec.gaussians > wire::MAX_SPEC_GAUSSIANS {
        return HttpResponse::text(
            413,
            format!(
                "scene spec asks for {} gaussians, limit is {}\n",
                spec.gaussians,
                wire::MAX_SPEC_GAUSSIANS
            ),
        );
    }
    // Advisory duplicate check before the expensive scene build; the
    // authoritative check runs under the registry lock in load_scene_auto,
    // so a racing POST for the same id still gets exactly one 201.
    if server.contains_scene(&id.to_string()) {
        let e = ServeError::SceneExists(id.to_string());
        return HttpResponse::text(409, format!("{e}\n"));
    }
    let params = Arc::new(spec.build());
    let result = server.load_scene_auto(id, Arc::clone(&params), spec.background, spec.shards);
    match result {
        Ok(shards) => HttpResponse::text(
            201,
            format!(
                "loaded scene {id}: {} gaussians in {shards} shard(s)\n",
                params.len()
            ),
        ),
        Err(e @ ServeError::SceneExists(_)) => HttpResponse::text(409, format!("{e}\n")),
        // An admission rejection means the scene (or a shard of it) exceeds
        // the memory budget: the payload, not the service, is the problem.
        Err(e @ ServeError::Admission(_)) => HttpResponse::text(413, format!("{e}\n")),
        Err(e) => HttpResponse::text(status_for_error(&e), format!("{e}\n")),
    }
}

/// The [`Outcome`] a [`ServeError`] records as.
pub fn outcome_for_error(err: &ServeError) -> Outcome {
    match err {
        ServeError::DeadlineExceeded => Outcome::Expired,
        ServeError::Cancelled => Outcome::Cancelled,
        ServeError::ShuttingDown | ServeError::Admission(_) => Outcome::Rejected,
        ServeError::UnknownScene(_)
        | ServeError::UnknownShard(_, _)
        | ServeError::SceneExists(_) => Outcome::Error,
    }
}

/// Resolves the client/session id workload capture attributes a request
/// to: the body's `client` key wins, then the `X-Client-Id` header, then
/// the peer address.
fn resolve_client(wire_req: &WireRequest, req: &HttpRequest, conn: &mut Conn<'_>) -> String {
    wire_req
        .client
        .clone()
        .or_else(|| req.headers.get("x-client-id").cloned())
        .or_else(|| conn.peer_addr())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The route's view of a request's trace: the trace handle, the span id
/// server-side spans parent under, the route-owned root span (for traces
/// this node is responsible for finishing), and whether the trace belongs
/// to a remote caller (spans go back in `X-Trace-Spans`, not the ring).
///
/// Public so front-ends layered on the same listener machinery (the
/// cluster coordinator's) share the exact ingress semantics.
pub struct RouteTrace {
    /// The shared span collector for this request.
    pub trace: RequestTrace,
    /// Span id route-side work parents under (the root span, or the remote
    /// caller's hop span).
    pub parent: u32,
    /// The route-owned root span; `None` for remote hops.
    pub root: Option<Span>,
    /// Whether a remote caller owns the trace (spans are returned via
    /// `X-Trace-Spans` instead of landing in the local ring).
    pub remote: bool,
}

/// Resolves the trace a `POST /render` participates in: the `X-Trace-Id` /
/// `X-Trace-Parent` headers name an existing trace (a parent marks it as a
/// remote hop), and with no header ingress sampling may mint a fresh one.
pub fn route_trace(obs: &ServeObs, req: &HttpRequest) -> Option<RouteTrace> {
    let header_id = req
        .headers
        .get("x-trace-id")
        .and_then(|v| TraceId::parse(v));
    let header_parent = req
        .headers
        .get("x-trace-parent")
        .and_then(|v| v.parse::<u32>().ok());
    let trace = match header_id {
        // A hop on someone else's trace allocates from the remote id range
        // so the caller's graft can tell our internal parent links from
        // links back to its own span.
        Some(id) if header_parent.is_some() => RequestTrace::remote(id, obs.node()),
        Some(id) => RequestTrace::new(id, obs.node()),
        None if obs.should_trace() => obs.mint(),
        None => return None,
    };
    if let Some(parent) = header_parent {
        return Some(RouteTrace {
            trace,
            parent,
            root: None,
            remote: true,
        });
    }
    let root = trace.start(0, "request");
    let parent = root.id();
    Some(RouteTrace {
        trace,
        parent,
        root: Some(root),
        remote: false,
    })
}

impl RouteTrace {
    /// Ends the trace's route-owned root span and settles ownership: a
    /// remote hop returns its spans to the caller via `X-Trace-Spans`, a
    /// locally owned trace lands in the span ring. Either way the response
    /// echoes `X-Trace-Id`.
    pub fn finish(self, obs: &ServeObs) -> Vec<(&'static str, String)> {
        let mut headers = vec![("X-Trace-Id", self.trace.id().to_string())];
        if let Some(root) = self.root {
            root.finish();
        }
        if self.remote {
            headers.push(("X-Trace-Spans", gs_obs::encode_spans(&self.trace.spans())));
        } else {
            obs.finish(&self.trace);
        }
        headers
    }
}

fn render_route(
    server: &RenderServer,
    recorder: Option<&TraceRecorder>,
    req: &HttpRequest,
    conn: &mut Conn<'_>,
) -> HttpResponse {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return HttpResponse::text(400, "bad request: body is not UTF-8\n"),
    };
    let wire_req = match WireRequest::parse(text) {
        Ok(r) => r,
        Err(e) => return HttpResponse::text(400, format!("{e}\n")),
    };
    let route_trace = route_trace(server.obs(), req);
    // Capture support: the arrival timestamp is stamped before the request
    // queues, the event is recorded (with its outcome and latency) on every
    // answer path below.
    let arrival_us = recorder.map_or(0, TraceRecorder::now_us);
    let started = Instant::now();
    // Resolved unconditionally (not just under capture): the per-client
    // heat table keys on it for every request that enters the server.
    let client = resolve_client(&wire_req, req, conn);
    let record = |outcome: Outcome| {
        if let Some(recorder) = recorder {
            recorder.record(wire_req.to_trace_event(
                &client,
                arrival_us,
                outcome,
                started.elapsed().as_micros() as u64,
            ));
        }
    };
    // Submit with a cancel token, then wait while watching the client
    // socket: if the client disconnects while the job is queued, the token
    // tells the workers to sweep it (counted as `cancelled`) instead of
    // rendering a frame nobody will read. The handler returns immediately —
    // the doomed write then closes the connection and frees its slot.
    let cancel = CancelToken::new();
    let mut render_req = wire_req.to_render_request().with_cancel(cancel.clone());
    if render_req.client.is_none() {
        render_req.client = Some(client.clone());
    }
    if let Some(rt) = &route_trace {
        render_req = render_req.with_trace(TraceContext {
            trace: rt.trace.clone(),
            parent: rt.parent,
        });
    }
    // Every return below settles the trace (closing the root span, pushing
    // the tree to the ring or into `X-Trace-Spans`) so no path leaks an
    // unfinished trace.
    let finish_trace =
        |rt: Option<RouteTrace>| rt.map_or_else(Vec::new, |rt| rt.finish(server.obs()));
    let mut ticket = match server.submit(render_req) {
        Ok(ticket) => ticket,
        Err(e) => {
            record(outcome_for_error(&e));
            let mut response = HttpResponse::text(status_for_error(&e), format!("{e}\n"));
            response.headers = finish_trace(route_trace);
            return response;
        }
    };
    let result = loop {
        match ticket.wait_timeout(POLL_INTERVAL) {
            Ok(result) => break result,
            Err(pending) => {
                ticket = pending;
                if conn.client_disconnected() || conn.stopping() {
                    cancel.cancel();
                    record(Outcome::Cancelled);
                    let mut response = HttpResponse::text(503, "client disconnected\n");
                    response.headers = finish_trace(route_trace);
                    return response;
                }
            }
        }
    };
    let frame = match result {
        Ok(frame) => frame,
        Err(e) => {
            record(outcome_for_error(&e));
            let mut response = HttpResponse::text(status_for_error(&e), format!("{e}\n"));
            response.headers = finish_trace(route_trace);
            return response;
        }
    };
    record(if frame.cache_hit {
        Outcome::CacheHit
    } else {
        Outcome::Completed
    });
    let body = match wire_req.format {
        WireFormat::RawF32 => wire::encode_raw_f32(&frame.image),
        WireFormat::Ppm => wire::encode_ppm(&frame.image),
    };
    let mut headers = vec![
        ("X-Image-Width", frame.image.width().to_string()),
        ("X-Image-Height", frame.image.height().to_string()),
        ("X-Cache-Hit", u8::from(frame.cache_hit).to_string()),
        ("X-Batch-Size", frame.batch_size.to_string()),
        ("X-Shards", frame.shards.to_string()),
        ("X-Worker", frame.worker.to_string()),
        ("X-Latency-Us", frame.latency.as_micros().to_string()),
    ];
    headers.extend(finish_trace(route_trace));
    HttpResponse {
        status: 200,
        content_type: wire_req.format.content_type(),
        headers,
        body,
    }
}

/// `POST /render_layer`: render one shard (or a whole scene) as a
/// partial-frame layer, continuing an attached incoming layer if present.
/// Body and response use the binary layer encodings of [`crate::wire`].
///
/// A layer render is always sub-work of some caller's request, so its trace
/// context — the envelope's trace block, or the `X-Trace-Id` /
/// `X-Trace-Parent` headers — is treated as a remote hop: the spans this
/// node records come back in the response's `X-Trace-Spans` header for the
/// caller to graft, and never land in the local ring.
fn render_layer_route(server: &RenderServer, req: &HttpRequest) -> HttpResponse {
    let (wire_req, block_trace, into) = match wire::decode_layer_request_traced(&req.body) {
        Ok(decoded) => decoded,
        Err(e) => return HttpResponse::text(400, format!("{e}\n")),
    };
    let trace = block_trace
        .or_else(|| {
            let id = req
                .headers
                .get("x-trace-id")
                .and_then(|v| TraceId::parse(v))?;
            let parent = req
                .headers
                .get("x-trace-parent")
                .and_then(|v| v.parse::<u32>().ok())
                .unwrap_or(0);
            Some((id, parent))
        })
        .map(|(id, parent)| (RequestTrace::remote(id, server.obs().node()), parent));
    let shard = wire_req.shard;
    let mut request = wire_req.to_render_request();
    if let Some((trace, parent)) = &trace {
        request = request.with_trace(TraceContext {
            trace: trace.clone(),
            parent: *parent,
        });
    }
    match server.render_layer_blocking(&request, shard, into) {
        Ok(layer) => {
            let mut headers = vec![
                ("X-Image-Width", layer.width().to_string()),
                ("X-Image-Height", layer.height().to_string()),
            ];
            if let Some((trace, _)) = &trace {
                headers.push(("X-Trace-Id", trace.id().to_string()));
                headers.push(("X-Trace-Spans", gs_obs::encode_spans(&trace.spans())));
            }
            HttpResponse {
                status: 200,
                content_type: "application/octet-stream",
                headers,
                body: wire::encode_layer(&layer),
            }
        }
        Err(e) => HttpResponse::text(status_for_error(&e), format!("{e}\n")),
    }
}

/// A minimal blocking HTTP/1.1 client, just enough to drive [`HttpServer`]
/// from load generators, benches and tests over a keep-alive connection.
pub mod client {
    use std::io::{self, Read};
    use std::net::TcpStream;

    /// A response read off the wire.
    #[derive(Debug, Clone)]
    pub struct ClientResponse {
        /// Status code from the status line.
        pub status: u16,
        /// Header `(name, value)` pairs, names lowercased.
        pub headers: Vec<(String, String)>,
        /// Response body (exactly `Content-Length` bytes).
        pub body: Vec<u8>,
    }

    impl ClientResponse {
        /// The value of `name` (case-insensitive), if present.
        pub fn header(&self, name: &str) -> Option<&str> {
            let name = name.to_ascii_lowercase();
            self.headers
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.as_str())
        }
    }

    /// Sends one request and reads its response; the connection stays usable
    /// for the next request (keep-alive).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a malformed response surfaces as
    /// [`io::ErrorKind::InvalidData`].
    pub fn request(
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        send_request(stream, method, path, body)?;
        read_response(stream)
    }

    /// Like [`request`], with extra request headers (e.g. `X-Trace-Id`).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a malformed response surfaces as
    /// [`io::ErrorKind::InvalidData`].
    pub fn request_with_headers(
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        send(stream, method, path, headers, body)?;
        read_response(stream)
    }

    /// Writes one request with a `Content-Length` body.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_request(
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<()> {
        send(stream, method, path, &[], body)
    }

    /// Writes one request: its head, then `body` in the same vectored write
    /// (see [`super::write_message`]).
    fn send(
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<()> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: gs-serve\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        super::write_message(stream, head.as_bytes(), body)
    }

    fn bad(msg: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
    }

    /// Reads one `Content-Length`-framed response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a malformed response surfaces as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_response(stream: &mut TcpStream) -> io::Result<ClientResponse> {
        let mut buf = Vec::new();
        let mut scanned = 0;
        let head_end = loop {
            if let Some(pos) = super::find_head_end(&buf, &mut scanned) {
                break pos;
            }
            if super::read_into(stream, &mut buf)? == 0 {
                return Err(bad("connection closed mid-response"));
            }
        };
        // The bytes after the head start the body, which is read in place
        // onto their end and grows only as bytes arrive: an untrusted
        // `Content-Length` never sizes an allocation.
        let mut body = buf.split_off(head_end + 4);
        let head =
            std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let content_length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| bad("missing Content-Length"))?;
        while body.len() < content_length {
            let want = (content_length - body.len()) as u64;
            if (&mut *stream).take(want).read_to_end(&mut body)? == 0 {
                return Err(bad("connection closed mid-body"));
            }
        }
        body.truncate(content_length);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_is_found_when_dribbled_byte_by_byte() {
        let message = b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\nbody";
        let end = message.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let mut scanned = 0;
        for (k, &byte) in message.iter().enumerate() {
            buf.push(byte);
            let found = find_head_end(&buf, &mut scanned);
            if k + 1 < end + 4 {
                assert_eq!(found, None, "after {} bytes", k + 1);
                assert!(scanned + 3 >= buf.len(), "the scan resumes near the end");
            } else {
                assert_eq!(found, Some(end), "after {} bytes", k + 1);
                break;
            }
        }
    }

    #[test]
    fn write_message_resumes_partial_writes() {
        /// Accepts at most 3 bytes per call, from the first slice only.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                let n = data.len().min(3);
                self.0.extend_from_slice(&data[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for (head, body) in [
            (&b"HTTP/1.1 200 OK\r\n\r\n"[..], &b"0123456789"[..]),
            (b"", b"body only"),
            (b"head only", b""),
        ] {
            let mut sink = Trickle(Vec::new());
            write_message(&mut sink, head, body).unwrap();
            assert_eq!(sink.0, [head, body].concat());
        }
    }
}
