//! The cluster's own HTTP front-end.
//!
//! Built on the listener machinery shared with `gs-serve`
//! ([`HttpServer::bind_with`]), so the cluster fronts clients with exactly
//! the protocol a single replica speaks — load generators cannot tell one
//! `RenderServer` from a fleet:
//!
//! * `POST /render` — routed by scene id through the [`Coordinator`]
//!   (failover, cross-node shard compositing); answers with the frame plus
//!   `X-Shards`/`X-Culled`/`X-Replica`/`X-Latency-Us` headers.
//! * `POST /scenes/<id>` — a text [`SceneSpec`] built coordinator-side or a
//!   binary scene upload; placed across replicas, sharded by the spec's
//!   explicit count or automatically above
//!   [`crate::ClusterConfig::shard_bytes`].
//! * `GET /stats` — the aggregated [`crate::ClusterStats`] report.
//! * `GET /metrics` — Prometheus text exposition of the coordinator's own
//!   registry (routing counters, latency histograms, trace-ring gauges).
//! * `GET /trace` — Chrome trace-event JSON of the coordinator's span
//!   ring, relay hops stitched under their request roots;
//!   `GET /trace?id=<hex>` exports just one trace (`404` once it ages out).
//! * `GET /slo` — cluster-tier SLO burn-rate status as JSON.
//! * `GET /heat` — windowed per-scene / per-client top-K telemetry as JSON.
//! * `GET /events` — the coordinator flight recorder's wide events (replica
//!   downs, failovers, placement moves) as JSON.
//! * `GET /incidents` — captured anomaly incidents as JSON.
//! * `GET /dashboard` — the self-refreshing cluster health dashboard
//!   (SLOs, per-replica health, heat top-K, incidents).
//! * `GET /scenes` — placement rows (`id replicas=[..] gaussians bytes`).
//! * `GET /replicas` — per-replica health/budget rows.
//! * `GET /healthz` — coordinator liveness.
//!
//! `POST /render` honors the same `X-Trace-Id` / `X-Trace-Parent` request
//! headers as the single-node front-end (shared [`route_trace`] ingress
//! machinery), so a trace entering the cluster tier covers the routing
//! decision and every replica hop in one tree.

use std::io;
use std::sync::Arc;

use gs_obs::{render_dashboard, DashboardData, ReplicaRow, ReplicationRow, TraceContext};
use gs_serve::http::{
    query_param, route_trace, split_path_query, status_for_error, Conn, HttpHandler, HttpRequest,
    HttpResponse, HttpServer, RouteTrace,
};
use gs_serve::{wire, HttpConfig, SceneSpec, ServeError, WireFormat, WireRequest};

use crate::coordinator::{ClusterError, Coordinator};

/// Binds the cluster front-end over the shared listener machinery.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn bind(config: HttpConfig, coordinator: Arc<Coordinator>) -> io::Result<HttpServer> {
    HttpServer::bind_with(config, Arc::new(ClusterHandler { coordinator }))
}

struct ClusterHandler {
    coordinator: Arc<Coordinator>,
}

/// The status code a [`ClusterError`] maps onto. Replica-side failures the
/// coordinator could not route around surface as `502 Bad Gateway` — the
/// client's request was fine; the tier behind the coordinator was not.
/// Shed requests get `503 Service Unavailable`: retry once the overload
/// passes.
fn status_for_cluster_error(err: &ClusterError) -> u16 {
    match err {
        ClusterError::UnknownScene(_) => 404,
        ClusterError::SceneExists(_) => 409,
        ClusterError::NoCapacity { .. } => 413,
        ClusterError::Overloaded { .. } => 503,
        ClusterError::Serve(e) => status_for_error(e),
        ClusterError::Exhausted { .. } => 502,
    }
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

impl HttpHandler for ClusterHandler {
    fn handle(&self, req: &HttpRequest, conn: &mut Conn<'_>) -> HttpResponse {
        let (path, query) = split_path_query(req.path.as_str());
        match (req.method.as_str(), path) {
            ("GET", "/stats") => HttpResponse::text(200, self.coordinator.stats().to_string()),
            ("GET", "/metrics") => HttpResponse::text(200, self.coordinator.metrics_text()),
            ("GET", "/trace") => match query_param(query, "id") {
                Some(id) => match self.coordinator.obs().chrome_json_for(id) {
                    Some(json) => json_response(json),
                    None => HttpResponse::text(
                        404,
                        format!("no trace {id:?} in the ring (bad id, or it aged out)\n"),
                    ),
                },
                None => json_response(self.coordinator.obs().chrome_json()),
            },
            ("GET", "/slo") => json_response(self.coordinator.obs().slo_json()),
            ("GET", "/heat") => json_response(self.coordinator.obs().heat_json()),
            ("GET", "/events") => json_response(self.coordinator.obs().events_json()),
            ("GET", "/incidents") => json_response(self.coordinator.obs().incidents_json()),
            ("GET", "/dashboard") => self.dashboard_route(),
            ("GET", "/healthz") => HttpResponse::text(200, "ok\n"),
            ("GET", "/scenes") => {
                let mut body = String::new();
                for placement in self.coordinator.scenes() {
                    let replicas: Vec<String> =
                        placement.replicas.iter().map(|r| r.to_string()).collect();
                    body.push_str(&format!(
                        "{} shards={} replicas=[{}] gaussians={} bytes={}\n",
                        placement.id,
                        placement.shards,
                        replicas.join(" "),
                        placement.gaussians,
                        placement.bytes,
                    ));
                }
                HttpResponse::text(200, body)
            }
            ("GET", "/replicas") => {
                let mut body = String::new();
                for status in self.coordinator.replica_status() {
                    body.push_str(&format!(
                        "{} {} {} budget={} placed={}\n",
                        status.id, status.name, status.health, status.budget, status.placed,
                    ));
                }
                HttpResponse::text(200, body)
            }
            ("POST", "/render") => self.render_route(req, conn),
            ("POST", path) if path.strip_prefix("/scenes/").is_some() => {
                let id = path.strip_prefix("/scenes/").unwrap_or_default();
                self.load_scene_route(id, &req.body)
            }
            (
                _,
                "/stats" | "/metrics" | "/trace" | "/slo" | "/heat" | "/events" | "/incidents"
                | "/dashboard" | "/scenes" | "/replicas" | "/healthz" | "/render",
            ) => HttpResponse::text(405, "method not allowed on this path\n"),
            (_, path) if path.starts_with("/scenes/") => {
                HttpResponse::text(405, "method not allowed on this path\n")
            }
            _ => HttpResponse::text(404, "unknown path\n"),
        }
    }
}

impl ClusterHandler {
    /// `GET /dashboard`: the cluster tier's page carries one health row per
    /// replica on top of the shared SLO/heat/incident sections.
    fn dashboard_route(&self) -> HttpResponse {
        let obs = self.coordinator.obs();
        let stats = self.coordinator.stats();
        let replicas = self
            .coordinator
            .replica_status()
            .into_iter()
            .map(|status| ReplicaRow {
                name: status.name,
                health: status.health.to_string(),
                detail: format!(
                    "id={} placed={} MiB budget={} MiB",
                    status.id,
                    status.placed >> 20,
                    status.budget >> 20
                ),
            })
            .collect();
        // The replication panel: scenes currently served from more than
        // one replica (shards= stays the partition count, so copies are
        // replicas-per-shard).
        let replication = self
            .coordinator
            .scenes()
            .into_iter()
            .filter(|p| p.replicas.len() > p.shards)
            .map(|p| {
                let replicas: Vec<String> = p.replicas.iter().map(|r| r.to_string()).collect();
                ReplicationRow {
                    copies: p.replicas.len() / p.shards.max(1),
                    detail: format!(
                        "replicas [{}], {} MiB per copy",
                        replicas.join(" "),
                        p.bytes >> 20
                    ),
                    scene: p.id,
                }
            })
            .collect();
        let data = DashboardData {
            title: "gs-cluster".to_string(),
            node: obs.node().to_string(),
            uptime_s: obs.uptime_s(),
            refresh_s: 2,
            slos: obs.slo().report(),
            heat: obs.heat_scenes().snapshot().0,
            clients: obs.heat_clients().snapshot().0,
            replicas,
            replication,
            incidents: obs.recorder().incidents(),
            stats_text: stats.to_string(),
        };
        HttpResponse {
            status: 200,
            content_type: "text/html; charset=utf-8",
            headers: Vec::new(),
            body: render_dashboard(&data).into_bytes(),
        }
    }

    fn render_route(&self, req: &HttpRequest, conn: &mut Conn<'_>) -> HttpResponse {
        let text = match std::str::from_utf8(&req.body) {
            Ok(t) => t,
            Err(_) => return HttpResponse::text(400, "bad request: body is not UTF-8\n"),
        };
        let mut wire_req = match WireRequest::parse(text) {
            Ok(r) => r,
            Err(e) => return HttpResponse::text(400, format!("{e}\n")),
        };
        // Same client-id resolution as the single-node front-end: the body's
        // `client` key wins, then the `X-Client-Id` header, then the peer
        // address (workload capture attributes the request to a session).
        if wire_req.client.is_none() {
            wire_req.client = req
                .headers
                .get("x-client-id")
                .cloned()
                .or_else(|| conn.peer_addr());
        }
        // Shared ingress trace semantics with the single-node front-end:
        // the route owns minting/settling; the coordinator records into it.
        let rt = route_trace(self.coordinator.obs(), req);
        let ctx = rt.as_ref().map(|rt| TraceContext {
            trace: rt.trace.clone(),
            parent: rt.parent,
        });
        let finish_trace = |rt: Option<RouteTrace>| {
            rt.map_or_else(Vec::new, |rt| rt.finish(self.coordinator.obs()))
        };
        let frame = match self.coordinator.render_traced(&wire_req, ctx.as_ref()) {
            Ok(frame) => frame,
            Err(e) => {
                let mut response =
                    HttpResponse::text(status_for_cluster_error(&e), format!("{e}\n"));
                response.headers = finish_trace(rt);
                return response;
            }
        };
        let body = match wire_req.format {
            WireFormat::RawF32 => wire::encode_raw_f32(&frame.image),
            WireFormat::Ppm => wire::encode_ppm(&frame.image),
        };
        let mut headers = vec![
            ("X-Image-Width", frame.image.width().to_string()),
            ("X-Image-Height", frame.image.height().to_string()),
            ("X-Shards", frame.shards_rendered.to_string()),
            ("X-Culled", frame.shards_culled.to_string()),
            ("X-Replica", frame.replica.unwrap_or_default()),
            ("X-Cache-Hit", u8::from(frame.cache_hit).to_string()),
            ("X-Latency-Us", frame.latency.as_micros().to_string()),
        ];
        headers.extend(finish_trace(rt));
        HttpResponse {
            status: 200,
            content_type: wire_req.format.content_type(),
            headers,
            body,
        }
    }

    fn load_scene_route(&self, id: &str, body: &[u8]) -> HttpResponse {
        if !wire::valid_scene_id(id) {
            return HttpResponse::text(400, "bad request: invalid scene id\n");
        }
        // The front-end refuses implicit replacement: exactly one 201 per
        // id, like the single-node front-end's spec path. The claim is
        // atomic, so concurrent POSTs for the same id race to one winner.
        let Some(_claim) = self.coordinator.claim_scene(&id.to_string()) else {
            let e = ClusterError::SceneExists(id.to_string());
            return HttpResponse::text(409, format!("{e}\n"));
        };
        let (params, background, explicit_shards) = if wire::is_scene_upload(body) {
            match wire::decode_scene(body) {
                Ok((params, background)) => (params, background, None),
                Err(e) => return HttpResponse::text(400, format!("{e}\n")),
            }
        } else {
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
            (spec.build(), spec.background, spec.shards)
        };
        let bytes = params.total_bytes() as u64;
        let shard_bytes = self.coordinator.config().shard_bytes;
        let shards = match explicit_shards {
            Some(k) => k,
            None if shard_bytes > 0 && bytes > shard_bytes => {
                usize::try_from(bytes.div_ceil(shard_bytes)).unwrap_or(usize::MAX)
            }
            None => 1,
        };
        let params = Arc::new(params);
        let gaussians = params.len();
        let result = if shards > 1 {
            self.coordinator
                .load_scene_sharded(id, params, background, shards)
        } else {
            self.coordinator
                .load_scene(id, params, background)
                .map(|()| 1)
        };
        match result {
            Ok(placed) => HttpResponse::text(
                201,
                format!("loaded scene {id}: {gaussians} gaussians in {placed} shard(s)\n"),
            ),
            Err(e @ ClusterError::Serve(ServeError::Admission(_)))
            | Err(e @ ClusterError::NoCapacity { .. }) => HttpResponse::text(413, format!("{e}\n")),
            Err(e) => HttpResponse::text(status_for_cluster_error(&e), format!("{e}\n")),
        }
    }
}
