//! CI observability smoke: exercises the whole `gs-obs` surface over real
//! loopback HTTP and fails loudly if any piece regresses.
//!
//! Builds a 2-replica cluster (both replicas behind the real `gs-serve`
//! HTTP front-end), loads a cross-node sharded scene, renders with a
//! pinned `X-Trace-Id`, then:
//!
//! * fetches `GET /metrics` on **both tiers** and runs the in-repo
//!   Prometheus linter ([`gs_obs::lint_prometheus`]) over each, asserting
//!   the per-phase roofline gauges (replica tier) and the interpretation
//!   layer's families (`gs_slo_*`, `gs_build_info`, histogram exemplars)
//!   are present;
//! * fetches `GET /slo`, `GET /heat` and `GET /events` on both tiers and
//!   checks each answers with its expected document, and that the deleted
//!   `GET /dashboard` answers `404`;
//! * fetches `GET /trace` and checks the Chrome trace-event JSON contains
//!   the stitched cross-node tree (relay hops + grafted replica spans),
//!   and that `GET /trace?id=<hex>` filters to exactly the pinned trace;
//! * **kills one replica mid-run** and keeps rendering: the coordinator
//!   fails over, the flight recorder captures the anomaly, and
//!   `GET /incidents` must show an incident whose frozen event tail names
//!   the replica death — with `--incidents <path>` that JSON is written to
//!   disk so CI uploads it as an artifact;
//! * with `--out <path>`, writes the Chrome trace JSON to disk as well.
//!
//! Usage: `cargo run --release -p gs-bench --bin obs_smoke
//! [--out obs-trace.json] [--incidents obs-incidents.json]`

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gs_cluster::{bind_http, ClusterConfig, Coordinator, ReplicaTransport};
use gs_obs::lint_prometheus;
use gs_scene::tour::{TourConfig, TourScene};
use gs_serve::http::client;
use gs_serve::{
    HttpConfig, HttpServer, ObsTuning, RenderServer, SceneRegistry, ServeConfig, WireRequest,
    TRACE_ID_HEADER,
};

/// Short windows and a fast watcher so the interpretation layer converges
/// within a smoke run instead of a production burn-rate horizon.
fn smoke_tuning() -> ObsTuning {
    ObsTuning {
        slo_fast_window_s: 2,
        slo_slow_window_s: 8,
        watcher_interval_ms: 20,
        heat_window_s: 30,
        ..ObsTuning::default()
    }
}

fn replica_server(name: &str) -> Arc<RenderServer> {
    Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            max_batch: 1,
            cache_bytes: 0,
            shard_bytes: 0,
            phase_sample_every: 1,
            node: name.to_string(),
            obs: smoke_tuning(),
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ))
}

/// The path after `flag` (`--out` or `--incidents`) on the command line.
fn path_arg(flag: &str) -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next().map(Into::into);
        }
    }
    None
}

fn write_artifact(path: &std::path::Path, body: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("artifact dir is creatable");
        }
    }
    std::fs::write(path, body).expect("artifact path is writable");
    println!("wrote {}", path.display());
}

fn main() {
    let scene = TourScene::generate(TourConfig {
        name: "smoke".to_string(),
        num_gaussians: 600,
        length: 50.0,
        half_section: 4.0,
        width: 64,
        height: 48,
        num_views: 2,
        seed: 61,
    });

    let cluster = Arc::new(Coordinator::new(ClusterConfig {
        node: "coordinator".to_string(),
        obs: smoke_tuning(),
        ..ClusterConfig::default()
    }));
    let mut backends = Vec::new();
    for i in 0..2 {
        let server = replica_server(&format!("replica-{i}"));
        let http = HttpServer::bind(
            HttpConfig {
                max_body_bytes: 4 << 20,
                ..HttpConfig::default()
            },
            Arc::clone(&server),
        )
        .expect("replica front-end binds");
        cluster
            .add_replica(
                format!("http-{i}"),
                ReplicaTransport::Http(http.local_addr().to_string()),
            )
            .unwrap();
        backends.push((http, server));
    }
    cluster
        .load_scene_sharded(
            "smoke",
            Arc::new(scene.gt_params.clone()),
            scene.background,
            4,
        )
        .unwrap();
    let front =
        bind_http(HttpConfig::default(), Arc::clone(&cluster)).expect("cluster front binds");
    let mut stream = TcpStream::connect(front.local_addr()).unwrap();

    // One traced cross-node render: the whole span pipeline lights up.
    let cam = &scene.cameras[0];
    let mut req = WireRequest::new(
        "smoke",
        [cam.position.x, cam.position.y, cam.position.z],
        [cam.position.x + 1.0, cam.position.y, cam.position.z],
        cam.width,
        cam.height,
    );
    req.fov_x = 1.2;
    req.client = Some("smoke-client".to_string());
    let trace_hex = "00000000c0ffee00";
    let response = client::request_with_headers(
        &mut stream,
        "POST",
        "/render",
        &[(TRACE_ID_HEADER, trace_hex)],
        req.to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert_eq!(response.header("x-trace-id"), Some(trace_hex));

    // A few untraced renders so the heat tables and SLO windows see a
    // request rate, not a single sample.
    for _ in 0..4 {
        let r = client::request(&mut stream, "POST", "/render", req.to_body().as_bytes()).unwrap();
        assert_eq!(r.status, 200);
    }

    // /metrics on the cluster tier: lint-clean, and the interpretation
    // layer's families are exported — SLO gauges, build info, and the
    // pinned trace id riding the latency histogram as an exemplar.
    let metrics = client::request(&mut stream, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    let samples = lint_prometheus(&text).expect("cluster /metrics lints clean");
    for family in [
        "gs_traces_finished",
        "gs_slo_burn_rate",
        "gs_slo_breached",
        "gs_build_info",
        "gs_uptime_seconds",
    ] {
        assert!(text.contains(family), "{family} missing:\n{text}");
    }
    assert!(
        text.contains(&format!("trace_id=\"{trace_hex}\"")),
        "latency histogram lost its exemplar:\n{text}"
    );
    println!("cluster  /metrics: {samples} samples, lint clean, slo/build/exemplar present");

    // /metrics on the replica (gs-serve) tier, roofline gauges included.
    let (replica_http, _) = &backends[0];
    let mut replica_stream = TcpStream::connect(replica_http.local_addr()).unwrap();
    let metrics = client::request(&mut replica_stream, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    let samples = lint_prometheus(&text).expect("replica /metrics lints clean");
    for gauge in [
        "gs_phase_seconds",
        "gs_phase_flops_per_second",
        "gs_slo_burn_rate",
        "gs_build_info",
    ] {
        assert!(text.contains(gauge), "{gauge} missing:\n{text}");
    }
    println!("replica  /metrics: {samples} samples, lint clean, roofline + slo gauges present");

    // The interpretation endpoints answer on both tiers.
    for (label, stream) in [("cluster", &mut stream), ("replica", &mut replica_stream)] {
        let slo = client::request(stream, "GET", "/slo", b"").unwrap();
        assert_eq!(slo.status, 200);
        let body = String::from_utf8(slo.body).unwrap();
        for needle in [
            "\"slos\"",
            "\"latency\"",
            "\"availability\"",
            "\"burn_rate\"",
        ] {
            assert!(
                body.contains(needle),
                "{label} /slo missing {needle}: {body}"
            );
        }

        let heat = client::request(stream, "GET", "/heat", b"").unwrap();
        assert_eq!(heat.status, 200);
        let body = String::from_utf8(heat.body).unwrap();
        assert!(body.contains("\"scenes\""), "{label} /heat: {body}");
        assert!(
            body.contains("smoke"),
            "{label} /heat lost the hot scene: {body}"
        );

        let events = client::request(stream, "GET", "/events", b"").unwrap();
        assert_eq!(events.status, 200);
        assert!(String::from_utf8(events.body)
            .unwrap()
            .contains("\"events\""));

        let dash = client::request(stream, "GET", "/dashboard", b"").unwrap();
        assert_eq!(dash.status, 404, "{label} /dashboard is not a route");
        println!("{label}  /slo /heat /events: all answering; /dashboard: 404");
    }

    // /trace: the stitched tree exports as Chrome trace-event JSON.
    let chrome = client::request(&mut stream, "GET", "/trace", b"").unwrap();
    assert_eq!(chrome.status, 200);
    let json = String::from_utf8(chrome.body).unwrap();
    for needle in ["\"traceEvents\"", "relay:smoke@", "layer_render", trace_hex] {
        assert!(
            json.contains(needle),
            "trace export missing {needle}:\n{json}"
        );
    }
    println!("cluster  /trace: {} bytes of Chrome trace JSON", json.len());

    // /trace?id= filters to one trace; a bogus id is a clean 404.
    let one = client::request(&mut stream, "GET", &format!("/trace?id={trace_hex}"), b"").unwrap();
    assert_eq!(one.status, 200);
    let one_json = String::from_utf8(one.body).unwrap();
    assert!(one_json.contains(trace_hex));
    assert!(
        one_json.len() <= json.len(),
        "id-filtered export is larger than the full ring export"
    );
    let missing = client::request(&mut stream, "GET", "/trace?id=ffffffffffffffff", b"").unwrap();
    assert_eq!(missing.status, 404);
    println!("cluster  /trace?id={trace_hex}: filtered export + 404 on unknown ids");

    if let Some(path) = path_arg("--out") {
        write_artifact(&path, &json);
    }

    // Kill replica 1 mid-run and keep rendering: the coordinator marks it
    // down and fails over, the flight recorder turns the error events into
    // an incident (metrics snapshot frozen at anomaly time).
    let (dead_http, dead_server) = backends.pop().unwrap();
    dead_http.shutdown();
    drop(dead_server);
    for _ in 0..3 {
        let r = client::request(&mut stream, "POST", "/render", req.to_body().as_bytes()).unwrap();
        assert_eq!(
            r.status,
            200,
            "failover render failed: {}",
            String::from_utf8_lossy(&r.body)
        );
    }
    // Two watcher intervals: one tick to open the incident, one to settle.
    std::thread::sleep(Duration::from_millis(100));

    let events = client::request(&mut stream, "GET", "/events", b"").unwrap();
    let events_body = String::from_utf8(events.body).unwrap();
    assert!(
        events_body.contains("marked down"),
        "replica death left no event:\n{events_body}"
    );
    let incidents = client::request(&mut stream, "GET", "/incidents", b"").unwrap();
    assert_eq!(incidents.status, 200);
    let incidents_body = String::from_utf8(incidents.body).unwrap();
    assert!(
        incidents_body.contains("\"trigger\""),
        "no incident captured after replica kill:\n{incidents_body}"
    );
    assert!(
        incidents_body.contains("marked down"),
        "incident event tail lost the replica death:\n{incidents_body}"
    );
    assert!(
        incidents_body.contains("gs_slo_burn_rate"),
        "incident metrics snapshot missing:\n{incidents_body}"
    );
    println!(
        "cluster  /incidents: replica kill captured ({} bytes)",
        incidents_body.len()
    );
    if let Some(path) = path_arg("--incidents") {
        write_artifact(&path, &incidents_body);
    }

    front.shutdown();
    for (http, _server) in backends {
        http.shutdown();
    }
    println!("observability smoke passed");
}
