//! Integration tests for the `gs-obs` observability layer end to end: a
//! cross-node sharded render over real HTTP yields **one stitched span
//! tree** (relay hops under the coordinator root, replica-side spans
//! grafted under their hops), both tiers expose lint-clean Prometheus
//! `/metrics` with per-phase roofline gauges, and the span ring exports
//! valid Chrome trace JSON.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use gs_scale::cluster::{bind_http, ClusterConfig, Coordinator, ReplicaTransport};
use gs_scale::obs::{lint_prometheus, SpanRecord, TraceId};
use gs_scale::scene::tour::{TourConfig, TourScene};
use gs_scale::serve::http::client;
use gs_scale::serve::{
    HttpConfig, HttpServer, ObsTuning, RenderServer, SceneRegistry, ServeConfig,
};
use gs_scale::serve::{WireRequest, TRACE_ID_HEADER};
use gs_scale::trace::SynthConfig;

fn tour(n: usize, length: f32, seed: u64) -> TourScene {
    TourScene::generate(TourConfig {
        name: format!("tour-{n}"),
        num_gaussians: n,
        length,
        half_section: 4.0,
        width: 64,
        height: 48,
        num_views: 4,
        seed,
    })
}

fn replica_server(name: &str) -> Arc<RenderServer> {
    Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            max_batch: 1,
            cache_bytes: 0,
            shard_bytes: 0,
            // Phase-profile every render so the roofline gauges are
            // guaranteed to exist by the time the test scrapes /metrics.
            phase_sample_every: 1,
            node: name.to_string(),
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ))
}

fn wire_request(scene: &TourScene, id: &str, view: usize) -> WireRequest {
    let cam = &scene.cameras[view % scene.cameras.len()];
    let mut req = WireRequest::new(
        id,
        [cam.position.x, cam.position.y, cam.position.z],
        [cam.position.x + 1.0, cam.position.y, cam.position.z],
        cam.width,
        cam.height,
    );
    req.fov_x = 1.2;
    req
}

/// The acceptance bar for the observability tentpole: a sharded render
/// routed through a 2-replica relay over real HTTP produces a single
/// stitched span tree — relay-hop spans nested under the coordinator's
/// root, replica-side layer/shard/kernel-phase spans grafted under their
/// hops — whose root covers the whole request without exceeding the
/// latency measured at the client.
#[test]
fn http_sharded_render_stitches_one_span_tree() {
    let scene = tour(700, 50.0, 51);
    let shards = 4usize;

    let mut backends = Vec::new();
    let cluster = Arc::new(Coordinator::new(ClusterConfig {
        node: "coordinator".to_string(),
        ..ClusterConfig::default()
    }));
    for i in 0..2 {
        let server = replica_server(&format!("replica-{i}"));
        let http = HttpServer::bind(
            HttpConfig {
                max_body_bytes: 4 << 20,
                ..HttpConfig::default()
            },
            Arc::clone(&server),
        )
        .unwrap();
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
            "tour",
            Arc::new(scene.gt_params.clone()),
            scene.background,
            shards,
        )
        .unwrap();
    // Shards actually spread across both replicas (a cross-node render).
    let distinct: std::collections::HashSet<_> =
        cluster.scenes()[0].replicas.iter().copied().collect();
    assert!(distinct.len() >= 2, "{:?}", cluster.scenes()[0]);

    let front = bind_http(HttpConfig::default(), Arc::clone(&cluster)).unwrap();
    let mut stream = TcpStream::connect(front.local_addr()).unwrap();

    // The client pins the trace id at ingress, like a real edge would.
    let trace_hex = "00000000deadbeef";
    let req = wire_request(&scene, "tour", 1);
    let started = Instant::now();
    let response = client::request_with_headers(
        &mut stream,
        "POST",
        "/render",
        &[(TRACE_ID_HEADER, trace_hex)],
        req.to_body().as_bytes(),
    )
    .unwrap();
    let elapsed_us = started.elapsed().as_micros() as u64;
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert_eq!(
        response.header("x-trace-id"),
        Some(trace_hex),
        "the response must echo the trace id"
    );
    let rendered: usize = response.header("x-shards").unwrap().parse().unwrap();
    assert!(rendered >= 2, "the corridor view must hit several shards");

    // Exactly one stitched tree for that id in the coordinator's ring.
    let id = TraceId::parse(trace_hex).unwrap();
    let traces: Vec<_> = cluster
        .obs()
        .sink()
        .snapshot()
        .into_iter()
        .filter(|t| t.trace == id)
        .collect();
    assert_eq!(traces.len(), 1, "one finished trace per request");
    let spans: &[SpanRecord] = &traces[0].spans;

    // One root: the coordinator front-end's "request" span.
    let roots: Vec<_> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {spans:#?}");
    let root = roots[0];
    assert_eq!(root.name, "request");
    assert_eq!(root.node, "coordinator");

    // Relay hops nest under the root, one per rendered shard.
    let hops: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("relay:tour@"))
        .collect();
    assert_eq!(hops.len(), rendered, "one relay hop per rendered shard");
    for hop in &hops {
        assert_eq!(hop.parent, root.id, "hops parent under the root: {hop:?}");
        assert_eq!(hop.node, "coordinator");
        // Each hop contains the replica's grafted layer_render span...
        let grafted: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == hop.id && s.name == "layer_render")
            .collect();
        assert_eq!(
            grafted.len(),
            1,
            "hop {} must hold its replica span",
            hop.name
        );
        // ...carrying the *replica's* node label, not the coordinator's.
        assert!(
            grafted[0].node.starts_with("replica-"),
            "grafted spans keep their origin node: {:?}",
            grafted[0]
        );
    }

    // The kernel-phase breakdown made it across the wire: every grafted
    // layer_render holds its project/bin/raster children.
    let layer_ids: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "layer_render")
        .map(|s| s.id)
        .collect();
    for phase in ["project", "bin", "raster"] {
        let nested = spans
            .iter()
            .filter(|s| s.name == phase && layer_ids.contains(&s.parent))
            .count();
        assert_eq!(
            nested, rendered,
            "each remote layer render must carry its {phase} phase span: {spans:#?}"
        );
    }

    // Wall-anchored clocks line the tree up: every span sits inside the
    // root's interval (small tolerance for the replicas' separately
    // captured wall anchors), and the root's total is covered by — never
    // exceeds — the latency the client measured around the whole request.
    let tol_us = 10_000u64;
    let root_end = root.start_us + root.dur_us;
    for span in spans {
        assert!(
            span.start_us + tol_us >= root.start_us
                && span.start_us + span.dur_us <= root_end + tol_us,
            "span outside the root interval: {span:?} root={root:?}"
        );
    }
    assert!(root.dur_us > 0);
    assert!(
        root.dur_us <= elapsed_us,
        "root span ({} us) cannot exceed the measured request latency ({} us)",
        root.dur_us,
        elapsed_us
    );

    // Both tiers expose lint-clean Prometheus text.
    let metrics = client::request(&mut stream, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    lint_prometheus(&text).expect("coordinator /metrics must lint clean");
    assert!(text.contains("gs_traces_finished"), "{text}");

    let (replica_http, _) = &backends[0];
    let mut replica_stream = TcpStream::connect(replica_http.local_addr()).unwrap();
    let metrics = client::request(&mut replica_stream, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    lint_prometheus(&text).expect("replica /metrics must lint clean");
    for gauge in ["gs_phase_seconds", "gs_phase_flops_per_second"] {
        assert!(
            text.contains(gauge),
            "per-phase roofline gauge {gauge} missing"
        );
    }

    // The ring exports the stitched tree as Chrome trace JSON.
    let chrome = client::request(&mut stream, "GET", "/trace", b"").unwrap();
    assert_eq!(chrome.status, 200);
    assert_eq!(chrome.header("content-type"), Some("application/json"));
    let json = String::from_utf8(chrome.body).unwrap();
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("relay:tour@"), "{json}");
    assert!(json.contains("layer_render"), "{json}");

    front.shutdown();
    for (http, _server) in backends {
        http.shutdown();
    }
}

/// A plain (unsharded) render through the cluster follows the
/// single-replica path: the `call:<replica>` hop holds the replica's
/// grafted queue/render spans from its worker pool.
#[test]
fn http_single_render_grafts_queue_and_render_spans() {
    let scene = tour(400, 40.0, 52);
    let server = replica_server("replica-solo");
    let http = HttpServer::bind(
        HttpConfig {
            max_body_bytes: 4 << 20,
            ..HttpConfig::default()
        },
        Arc::clone(&server),
    )
    .unwrap();
    let cluster = Arc::new(Coordinator::new(ClusterConfig {
        node: "coordinator".to_string(),
        // Sample at ingress instead of carrying a header: the minted-path
        // equivalent of the pinned-id test above.
        trace_sample_every: 1,
        ..ClusterConfig::default()
    }));
    cluster
        .add_replica(
            "solo",
            ReplicaTransport::Http(http.local_addr().to_string()),
        )
        .unwrap();
    cluster
        .load_scene("tour", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    let front = bind_http(HttpConfig::default(), Arc::clone(&cluster)).unwrap();
    let mut stream = TcpStream::connect(front.local_addr()).unwrap();
    let req = wire_request(&scene, "tour", 0);
    let response =
        client::request(&mut stream, "POST", "/render", req.to_body().as_bytes()).unwrap();
    assert_eq!(response.status, 200);
    let minted = response
        .header("x-trace-id")
        .expect("sampled ingress must mint and echo a trace id");
    let id = TraceId::parse(minted).unwrap();

    let traces: Vec<_> = cluster
        .obs()
        .sink()
        .snapshot()
        .into_iter()
        .filter(|t| t.trace == id)
        .collect();
    assert_eq!(traces.len(), 1);
    let spans = &traces[0].spans;
    let root = spans.iter().find(|s| s.parent == 0).unwrap();
    let hop = spans
        .iter()
        .find(|s| s.name == "call:solo")
        .expect("single render routes through a call hop");
    assert_eq!(hop.parent, root.id);
    // The replica's worker-pool spans came back over X-Trace-Spans.
    for name in ["queue", "render"] {
        let span = spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("replica span {name} missing: {spans:#?}"));
        assert_eq!(span.node, "replica-solo");
    }

    front.shutdown();
    http.shutdown();
}

/// The acceptance bar for the interpretation layer: a 2-replica cluster
/// replaying a flash-crowd workload with one replica killed mid-run must
/// yield (a) an incident whose frozen event tail names the failover and
/// carries a metrics snapshot, (b) a `/heat` row naming the hot scene
/// with a windowed count within 2x of what was actually sent,
/// (c) an `/slo` availability burn-rate breach during the kill that
/// recovers once the fast window drains, and (d) an exemplar trace id on
/// the latency histogram resolving via `/trace?id=` to the stitched
/// cross-node span tree — with `/metrics` lint-clean on both tiers.
#[test]
fn flash_crowd_replica_kill_yields_incident_heat_slo_and_exemplar() {
    // Short SLO windows and a fast watcher so breach -> recovery fits in
    // a test run instead of a production alerting horizon.
    let tuning = ObsTuning {
        slo_fast_window_s: 2,
        slo_slow_window_s: 8,
        slo_availability_target: 0.9,
        slo_burn_threshold: 1.0,
        heat_window_s: 60,
        watcher_interval_ms: 20,
        ..ObsTuning::default()
    };

    // A seeded flash-crowd workload over two scenes. Ground truth for the
    // heat check comes from the trace itself: the hot scene is whichever
    // the crowd actually concentrated on.
    let workload = gs_scale::trace::generate(&SynthConfig {
        scenes: 2,
        clients: 6,
        requests: 160,
        duration_s: 4.0,
        ..SynthConfig::flash_crowd(160)
    });
    let mut per_scene: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for event in &workload.events {
        *per_scene.entry(event.scene.as_str()).or_default() += 1;
    }
    let hot = per_scene
        .iter()
        .max_by_key(|(_, n)| **n)
        .map(|(s, _)| s.to_string())
        .unwrap();
    let doomed = per_scene
        .keys()
        .find(|s| **s != hot)
        .map(|s| s.to_string())
        .unwrap();

    // The hot scene is small and sharded across both replicas; the doomed
    // scene is big and lives whole on the victim. Budgets are sized so
    // that after the kill the survivor can absorb the hot scene's lost
    // shard but can never fit the doomed scene: its requests must fail,
    // burning the availability error budget.
    let hot_scene = tour(600, 50.0, 71);
    let doomed_scene = tour(3000, 60.0, 72);
    let hot_bytes = hot_scene.gt_params.total_bytes() as u64;
    let doomed_bytes = doomed_scene.gt_params.total_bytes() as u64;
    assert!(doomed_bytes >= 2 * hot_bytes);
    let victim_budget = doomed_bytes + hot_bytes;
    let survivor_budget = hot_bytes + hot_bytes / 8;

    let cluster = Arc::new(Coordinator::new(ClusterConfig {
        node: "coordinator".to_string(),
        obs: tuning.clone(),
        ..ClusterConfig::default()
    }));
    let mut backends = Vec::new();
    for (i, budget) in [victim_budget, survivor_budget].iter().enumerate() {
        let server = Arc::new(RenderServer::new(
            ServeConfig {
                workers: 1,
                queue_depth: 16,
                max_batch: 1,
                cache_bytes: 0,
                shard_bytes: 0,
                phase_sample_every: 1,
                node: format!("replica-{i}"),
                obs: tuning.clone(),
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(*budget),
        ));
        let http = HttpServer::bind(
            HttpConfig {
                max_body_bytes: 4 << 20,
                ..HttpConfig::default()
            },
            Arc::clone(&server),
        )
        .unwrap();
        cluster
            .add_replica(
                format!("http-{i}"),
                ReplicaTransport::Http(http.local_addr().to_string()),
            )
            .unwrap();
        backends.push((http, server));
    }
    cluster
        .load_scene(
            &doomed,
            Arc::new(doomed_scene.gt_params.clone()),
            doomed_scene.background,
        )
        .unwrap();
    cluster
        .load_scene_sharded(
            &hot,
            Arc::new(hot_scene.gt_params.clone()),
            hot_scene.background,
            2,
        )
        .unwrap();
    let front = bind_http(HttpConfig::default(), Arc::clone(&cluster)).unwrap();
    let mut stream = TcpStream::connect(front.local_addr()).unwrap();

    let request_for = |event: &gs_scale::trace::TraceEvent| {
        let mut req = WireRequest::new(
            event.scene.as_str(),
            event.position,
            event.target,
            event.width as usize,
            event.height as usize,
        );
        req.fov_x = event.fov_x;
        req.sh_degree = event.sh_degree as usize;
        req.client = Some(event.client.clone());
        req
    };

    // Pin a trace id on one hot-scene render before the kill, while the
    // scene still spans both replicas: the stitched tree and the
    // histogram exemplar both come from this request.
    let trace_hex = "00000000c0ffee11";
    let pinned = wire_request(&hot_scene, &hot, 2);
    let response = client::request_with_headers(
        &mut stream,
        "POST",
        "/render",
        &[(TRACE_ID_HEADER, trace_hex)],
        pinned.to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-trace-id"), Some(trace_hex));

    // Replay the flash crowd in arrival order (compressed in time); kill
    // the victim as the burst begins. After the kill the hot scene fails
    // over (its lost shard re-placed on the survivor) while every doomed
    // request burns error budget.
    let kill_at_us = (workload.duration_us() as f64 * 0.45) as u64;
    let mut killed = false;
    let mut hot_sent = 1usize; // the pinned render above
    let mut doomed_failed = 0usize;
    for event in &workload.events {
        if !killed && event.at_us >= kill_at_us {
            let (victim_http, victim_server) = backends.remove(0);
            victim_http.shutdown();
            drop(victim_server);
            killed = true;
        }
        let req = request_for(event);
        let resp =
            client::request(&mut stream, "POST", "/render", req.to_body().as_bytes()).unwrap();
        if event.scene == hot {
            hot_sent += 1;
            assert_eq!(
                resp.status,
                200,
                "hot renders must survive the kill: {}",
                String::from_utf8_lossy(&resp.body)
            );
        } else if killed {
            assert_ne!(resp.status, 200, "doomed renders must fail after the kill");
            doomed_failed += 1;
        } else {
            assert_eq!(resp.status, 200);
        }
    }
    assert!(killed, "the kill point must fall inside the replay");
    assert!(doomed_failed >= 5, "only {doomed_failed} doomed failures");

    // (c) during the kill window: both availability burn windows are hot.
    let slo = client::request(&mut stream, "GET", "/slo", b"").unwrap();
    let body = String::from_utf8(slo.body).unwrap();
    let avail = body
        .find("\"name\":\"availability\"")
        .map(|i| &body[i..])
        .expect("availability SLO in /slo");
    assert!(
        avail.contains("\"breached\":true"),
        "availability must breach during the kill: {body}"
    );

    // (a) the watcher turned the anomaly into an incident that froze the
    // failover events and a metrics snapshot.
    std::thread::sleep(std::time::Duration::from_millis(120));
    let incidents = client::request(&mut stream, "GET", "/incidents", b"").unwrap();
    let incidents_body = String::from_utf8(incidents.body).unwrap();
    assert!(
        incidents_body.contains("fails over") || incidents_body.contains("failover"),
        "incident must hold the failover event: {incidents_body}"
    );
    assert!(
        incidents_body.contains("gs_slo_burn_rate"),
        "incident must freeze a metrics snapshot: {incidents_body}"
    );

    // (b) the heat table names the hot scene within 2x of ground truth.
    let heat = client::request(&mut stream, "GET", "/heat", b"").unwrap();
    let heat_body = String::from_utf8(heat.body).unwrap();
    assert!(
        heat_body.contains(&hot),
        "hot scene absent from /heat: {heat_body}"
    );
    let (rows, _) = cluster.obs().heat_scenes().snapshot();
    let row = rows.iter().find(|r| r.key == hot).expect("hot scene row");
    assert!(
        row.requests as f64 >= hot_sent as f64 / 2.0
            && row.requests as f64 <= hot_sent as f64 * 2.0,
        "windowed count {} vs ground truth {hot_sent}",
        row.requests
    );

    // (d) the pinned trace id rides a latency bucket as an exemplar and
    // resolves to the stitched cross-node tree.
    let metrics = client::request(&mut stream, "GET", "/metrics", b"").unwrap();
    let metrics_body = String::from_utf8(metrics.body).unwrap();
    lint_prometheus(&metrics_body).expect("cluster /metrics lints clean");
    assert!(
        metrics_body.contains(&format!("trace_id=\"{trace_hex}\"")),
        "exemplar missing: {metrics_body}"
    );
    let trace =
        client::request(&mut stream, "GET", &format!("/trace?id={trace_hex}"), b"").unwrap();
    assert_eq!(trace.status, 200);
    let trace_body = String::from_utf8(trace.body).unwrap();
    for needle in ["\"traceEvents\"", "layer_render", trace_hex] {
        assert!(
            trace_body.contains(needle),
            "{needle} missing: {trace_body}"
        );
    }

    // Recovery: once the fast window drains and fresh traffic is clean,
    // the availability breach clears (the slow window still remembers).
    std::thread::sleep(std::time::Duration::from_millis(2_200));
    for view in 0..20 {
        let req = wire_request(&hot_scene, &hot, view);
        let resp =
            client::request(&mut stream, "POST", "/render", req.to_body().as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
    }
    let slo = client::request(&mut stream, "GET", "/slo", b"").unwrap();
    let body = String::from_utf8(slo.body).unwrap();
    let avail = body
        .find("\"name\":\"availability\"")
        .map(|i| &body[i..])
        .expect("availability SLO in /slo");
    assert!(
        avail.contains("\"breached\":false"),
        "availability must recover after the kill window: {body}"
    );

    // The surviving replica tier is lint-clean too.
    let (survivor_http, _survivor) = &backends[0];
    let mut replica_stream = TcpStream::connect(survivor_http.local_addr()).unwrap();
    let metrics = client::request(&mut replica_stream, "GET", "/metrics", b"").unwrap();
    lint_prometheus(&String::from_utf8(metrics.body).unwrap())
        .expect("replica /metrics lints clean");

    front.shutdown();
    for (http, _server) in backends {
        http.shutdown();
    }
}
