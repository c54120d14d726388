//! The cluster's own HTTP front-end.
//!
//! Built on the listener machinery shared with `gs-serve`
//! ([`HttpServer::bind_with`]), so the cluster fronts clients with the
//! protocol a single replica speaks — load generators cannot tell one
//! `RenderServer` from a fleet. The routes both tiers share, and the
//! functions that answer them, are listed once in [`gs_serve::http`]'s
//! module docs. The coordinator differs from a single node in these:
//!
//! * `POST /render` is routed by scene id through the [`Coordinator`]
//!   (failover, cross-node shard compositing, frame cache) and answers with
//!   `X-Culled`/`X-Replica` headers instead of `X-Batch-Size`/`X-Worker`.
//!   With no peer address, the request's client stays unnamed.
//! * `POST /scenes/<id>` claims the id before it decodes the body (`409`
//!   for a taken id, whatever the body), then places the scene across
//!   replicas. A binary upload is sharded above
//!   [`crate::ClusterConfig::shard_bytes`] like a spec, and never replaces.
//! * `DELETE /scenes/<id>` answers `405`.
//! * Its own routes: `GET /stats` (the aggregated [`crate::ClusterStats`]
//!   report), `GET /scenes` (placement rows, `id shards=.. replicas=[..]
//!   gaussians=.. bytes=..`) and `GET /replicas` (per-replica health and
//!   budget rows). It serves no `/stats/wire`, `/healthz` or
//!   `/render_layer`.

use std::io;
use std::sync::Arc;

use gs_serve::http::{
    obs_route, parse_render, parse_scene_body, split_path_query, status_for_error, traced, Conn,
    HttpHandler, HttpRequest, HttpResponse, HttpServer,
};
use gs_serve::shard::shard_count;
use gs_serve::{wire, HttpConfig, ServeError};

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

impl HttpHandler for ClusterHandler {
    fn handle(&self, req: &HttpRequest, conn: &mut Conn<'_>) -> HttpResponse {
        let (path, _) = split_path_query(req.path.as_str());
        match (req.method.as_str(), path) {
            ("GET", "/stats") => HttpResponse::text(200, self.coordinator.stats().to_string()),
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
            ("POST", path) if path.starts_with("/scenes/") => {
                self.load_scene_route(&path["/scenes/".len()..], &req.body)
            }
            (_, "/stats" | "/scenes" | "/replicas" | "/render") => {
                HttpResponse::method_not_allowed()
            }
            (_, path) if path.starts_with("/scenes/") => HttpResponse::method_not_allowed(),
            _ => obs_route(self.coordinator.obs(), req),
        }
    }
}

impl ClusterHandler {
    fn render_route(&self, req: &HttpRequest, conn: &mut Conn<'_>) -> HttpResponse {
        let wire_req = match parse_render(req, conn) {
            Ok(wire_req) => wire_req,
            Err(response) => return response,
        };
        // The route owns minting and settling the trace; the coordinator
        // records into it.
        traced(self.coordinator.obs(), req, |trace| {
            match self.coordinator.render_traced(&wire_req, trace.as_ref()) {
                Ok(frame) => HttpResponse {
                    status: 200,
                    content_type: wire_req.format.content_type(),
                    headers: vec![
                        ("X-Image-Width", frame.image.width().to_string()),
                        ("X-Image-Height", frame.image.height().to_string()),
                        ("X-Shards", frame.shards_rendered.to_string()),
                        ("X-Culled", frame.shards_culled.to_string()),
                        ("X-Replica", frame.replica.unwrap_or_default()),
                        ("X-Cache-Hit", u8::from(frame.cache_hit).to_string()),
                        ("X-Latency-Us", frame.latency.as_micros().to_string()),
                    ],
                    body: wire_req.format.encode(&frame.image),
                },
                Err(e) => HttpResponse::text(status_for_cluster_error(&e), format!("{e}\n")),
            }
        })
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
        let (params, background, explicit_shards) = match parse_scene_body(body) {
            Ok(body) => body.build(),
            Err(response) => return response,
        };
        let shards = shard_count(
            &params,
            self.coordinator.config().shard_bytes,
            explicit_shards,
        );
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
            // Like `NoCapacity`, a replica's admission rejection means the
            // scene is too large: the payload, not the service, is the problem.
            Err(e @ ClusterError::Serve(ServeError::Admission(_))) => {
                HttpResponse::text(413, format!("{e}\n"))
            }
            Err(e) => HttpResponse::text(status_for_cluster_error(&e), format!("{e}\n")),
        }
    }
}
