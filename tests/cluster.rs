//! Integration tests for the multi-replica serving tier: cross-node sharded
//! rendering equivalence (bit-identical relay composites), budget-aware
//! placement, health-checked failover under replica death, drain/rejoin,
//! and cluster-wide stats fan-in — all through the public facade.

use std::sync::Arc;

use gs_scale::cluster::{ClusterConfig, Coordinator, Health, ReplicaTransport};
use gs_scale::render::pipeline::render_image;
use gs_scale::scene::tour::{TourConfig, TourScene};
use gs_scale::serve::{
    HttpConfig, HttpServer, RenderServer, SceneRegistry, ServeConfig, WireRequest,
};

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

fn replica_server(budget: u64) -> Arc<RenderServer> {
    Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            max_batch: 1,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(budget),
    ))
}

fn in_process_cluster(replicas: usize, budget: u64) -> Coordinator {
    let cluster = Coordinator::new(ClusterConfig::default());
    for i in 0..replicas {
        cluster
            .add_replica(
                format!("replica-{i}"),
                ReplicaTransport::InProcess(replica_server(budget)),
            )
            .unwrap();
    }
    cluster
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

#[test]
fn relayed_cross_node_shards_are_bit_identical_to_single_node() {
    // The acceptance bar: a 2+-replica cluster serving a depth-disjoint
    // sharded scene must produce frames bit-identical to the single-node
    // sharded render (which PR 3 proved bit-identical to the unsharded
    // render on these corridor presets).
    let scene = tour(900, 60.0, 31);
    for (replicas, shards) in [(2usize, 2usize), (2, 4), (3, 5)] {
        let cluster = in_process_cluster(replicas, 1 << 30);
        let placed = cluster
            .load_scene_sharded(
                "tour",
                Arc::new(scene.gt_params.clone()),
                scene.background,
                shards,
            )
            .unwrap();
        assert_eq!(placed, shards);

        let single = replica_server(1 << 30);
        single
            .load_scene_sharded(
                "tour",
                Arc::new(scene.gt_params.clone()),
                scene.background,
                shards,
            )
            .unwrap();

        for view in 0..scene.cameras.len() {
            let req = wire_request(&scene, "tour", view);
            let frame = cluster.render(&req).unwrap();
            let single_frame = single.render_blocking(req.to_render_request()).unwrap();
            assert_eq!(
                frame.image.data(),
                single_frame.image.data(),
                "{replicas} replicas x {shards} shards view {view}: relayed cluster \
                 composite must be bit-identical to the single-node sharded render"
            );
            let reference = render_image(
                &scene.gt_params,
                &req.to_render_request().camera,
                3,
                scene.background,
            );
            assert_eq!(
                frame.image.data(),
                reference.data(),
                "depth-disjoint shards must also match the unsharded render exactly"
            );
            assert_eq!(frame.shards_rendered + frame.shards_culled, shards);
        }
        // The shards actually spread across replicas (cross-node, not
        // colocated by accident).
        let placement = &cluster.scenes()[0];
        let distinct: std::collections::HashSet<_> = placement.replicas.iter().collect();
        assert!(
            distinct.len() >= 2,
            "shards must land on more than one replica: {placement:?}"
        );
    }
}

#[test]
fn http_replicas_compose_bit_identically_over_the_wire() {
    // Same acceptance bar, but with every replica behind the real HTTP
    // front-end: shard layers travel as wire-encoded `FrameLayer`s, and the
    // lossless encoding keeps the relayed composite exact.
    let scene = tour(700, 50.0, 35);
    let shards = 3usize;

    let mut backends = Vec::new();
    let cluster = Coordinator::new(ClusterConfig::default());
    for i in 0..2 {
        let server = replica_server(1 << 30);
        let http = HttpServer::bind(
            HttpConfig {
                // Relayed layers carry a full frame of f32 state.
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

    let single = replica_server(1 << 30);
    single
        .load_scene_sharded(
            "tour",
            Arc::new(scene.gt_params.clone()),
            scene.background,
            shards,
        )
        .unwrap();

    for view in 0..scene.cameras.len() {
        let req = wire_request(&scene, "tour", view);
        let frame = cluster.render(&req).unwrap();
        let single_frame = single.render_blocking(req.to_render_request()).unwrap();
        assert_eq!(
            frame.image.data(),
            single_frame.image.data(),
            "view {view}: HTTP-relayed layers must reproduce the single-node render bit for bit"
        );
    }
    // Layer renders were actually served remotely.
    let stats = cluster.stats();
    assert!(stats.shard_relays > 0);
    assert!(
        stats
            .replicas
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|r| r.layers_served)
            .sum::<u64>()
            > 0,
        "replicas must report served layers: {stats}"
    );
    for (http, _server) in backends {
        http.shutdown();
    }
}

#[test]
fn relay_replays_the_single_node_shard_sequence_for_overlapping_shards() {
    let shards = 4usize;
    // Depth-overlapping: a compact cube viewed down its diagonal, where
    // axis-median slabs interleave in depth. The relay must still match the
    // single-node *sharded* render bit-for-bit (same operation sequence).
    let cube = TourScene::generate(TourConfig {
        name: "cube".to_string(),
        num_gaussians: 600,
        length: 12.0,
        half_section: 6.0,
        width: 64,
        height: 48,
        num_views: 2,
        seed: 37,
    });
    let mut req = WireRequest::new("cube", [-14.0, 9.0, 11.0], [6.0, 0.0, 0.0], 64, 48);
    req.fov_x = 1.1;

    let single = replica_server(1 << 30);
    single
        .load_scene_sharded(
            "cube",
            Arc::new(cube.gt_params.clone()),
            cube.background,
            shards,
        )
        .unwrap();
    let single_sharded = single.render_blocking(req.to_render_request()).unwrap();

    let relay = in_process_cluster(2, 1 << 30);
    relay
        .load_scene_sharded(
            "cube",
            Arc::new(cube.gt_params.clone()),
            cube.background,
            shards,
        )
        .unwrap();
    let relayed = relay.render(&req).unwrap();
    assert_eq!(
        relayed.image.data(),
        single_sharded.image.data(),
        "relay mode replays the single-node shard sequence even for overlapping shards"
    );
}

#[test]
fn placement_spreads_a_scene_no_single_replica_could_hold() {
    let scene = tour(1200, 80.0, 33);
    let total = scene.gt_params.total_bytes() as u64;
    // Each replica holds half the scene: unsharded placement is
    // impossible, while 4 shards of a quarter each bin-pack two per
    // replica across the fleet.
    let cluster = in_process_cluster(3, total / 2);
    let err = cluster
        .load_scene("giant", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap_err();
    assert!(
        matches!(err, gs_scale::cluster::ClusterError::NoCapacity { .. }),
        "whole-scene placement must fail: {err:?}"
    );

    cluster
        .load_scene_sharded(
            "giant",
            Arc::new(scene.gt_params.clone()),
            scene.background,
            4,
        )
        .unwrap();
    let placement = &cluster.scenes()[0];
    let distinct: std::collections::HashSet<_> = placement.replicas.iter().collect();
    assert!(distinct.len() >= 2, "{placement:?}");
    assert_eq!(placement.bytes, total);

    for view in 0..scene.cameras.len() {
        let req = wire_request(&scene, "giant", view);
        let frame = cluster.render(&req).unwrap();
        let reference = render_image(
            &scene.gt_params,
            &req.to_render_request().camera,
            3,
            scene.background,
        );
        assert_eq!(frame.image.data(), reference.data());
    }
    // Replica budgets are respected by the placement accounting.
    for status in cluster.replica_status() {
        assert!(
            status.placed <= status.budget,
            "placement must respect the budget: {status:?}"
        );
    }
}

#[test]
fn killing_a_replica_mid_traffic_loses_zero_submissions() {
    // The acceptance bar: kill one replica mid-traffic and show every
    // submission is still answered (rerouted), none lost.
    let scene = Arc::new(tour(600, 50.0, 34));

    // Replica 0 is remote (killable); replica 1 is in-process (survivor).
    let victim_server = replica_server(1 << 30);
    let victim_http = HttpServer::bind(
        HttpConfig {
            // Binary scene uploads (the coordinator placing scenes here)
            // are ~240 bytes per Gaussian.
            max_body_bytes: 4 << 20,
            ..HttpConfig::default()
        },
        Arc::clone(&victim_server),
    )
    .unwrap();
    let cluster = Arc::new(Coordinator::new(ClusterConfig::default()));
    cluster
        .add_replica(
            "victim",
            ReplicaTransport::Http(victim_http.local_addr().to_string()),
        )
        .unwrap();
    cluster
        .add_replica(
            "survivor",
            ReplicaTransport::InProcess(replica_server(1 << 30)),
        )
        .unwrap();

    // Both scenes start on the victim (it has the most free budget at
    // placement time thanks to deterministic tie-breaking).
    cluster
        .load_scene("a", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    cluster
        .load_scene("b", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    assert_eq!(cluster.scenes()[0].replicas, vec![0]);

    let clients = 4usize;
    let per_client = 12usize;
    let kill_after = 8usize; // renders completed across clients before the kill
    let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let killed = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let answered: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let cluster = Arc::clone(&cluster);
                let scene = Arc::clone(&scene);
                let done = Arc::clone(&done);
                let killed = Arc::clone(&killed);
                scope.spawn(move || {
                    let mut ok = 0usize;
                    for r in 0..per_client {
                        // Hold each client's tail traffic until the kill has
                        // landed, so some submissions are guaranteed to hit
                        // the dead replica no matter how threads schedule.
                        if r == 3 {
                            while !killed.load(std::sync::atomic::Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        let id = if (c + r) % 2 == 0 { "a" } else { "b" };
                        let req = wire_request(&scene, id, c + r);
                        let frame = cluster
                            .render(&req)
                            .expect("every submission must be answered");
                        assert_eq!(frame.image.width(), 64);
                        ok += 1;
                        done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                    ok
                })
            })
            .collect();

        // Kill the victim once traffic is flowing.
        while done.load(std::sync::atomic::Ordering::SeqCst) < kill_after {
            std::thread::yield_now();
        }
        victim_http.shutdown();
        drop(victim_server);
        killed.store(true, std::sync::atomic::Ordering::SeqCst);

        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(
        answered,
        clients * per_client,
        "zero lost submissions across the replica kill"
    );

    let stats = cluster.stats();
    assert!(
        stats.failovers > 0,
        "the kill must have caused failovers: {stats}"
    );
    assert!(
        stats.replacements > 0,
        "scenes must have been re-placed onto the survivor: {stats}"
    );
    assert_eq!(stats.errors, 0);
    let status = cluster.replica_status();
    assert_eq!(status[0].health, Health::Down);
    // All placements ended up on the survivor.
    for placement in cluster.scenes() {
        assert!(placement.replicas.iter().all(|&r| r == 1), "{placement:?}");
    }
}

#[test]
fn drain_moves_traffic_and_rejoin_restores_it() {
    let scene = tour(400, 40.0, 38);
    let cluster = in_process_cluster(2, 1 << 30);
    cluster
        .load_scene("tour", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let home = cluster.scenes()[0].replicas[0];

    assert!(cluster.drain(home));
    assert_eq!(cluster.replica_status()[home].health, Health::Draining);
    // The next render migrates the scene off the draining replica and
    // still answers correctly.
    let req = wire_request(&scene, "tour", 0);
    let frame = cluster.render(&req).unwrap();
    let reference = render_image(
        &scene.gt_params,
        &req.to_render_request().camera,
        3,
        scene.background,
    );
    assert_eq!(frame.image.data(), reference.data());
    let moved = cluster.scenes()[0].replicas[0];
    assert_ne!(moved, home, "the placement must leave the draining replica");
    assert!(cluster.stats().replacements >= 1);

    // Rejoin brings it back for new placements.
    assert!(cluster.rejoin(home));
    assert_eq!(cluster.replica_status()[home].health, Health::Up);
    assert!(!cluster.drain(99), "unknown replica ids are rejected");
}

#[test]
fn cluster_http_front_end_serves_and_aggregates() {
    use gs_scale::serve::http::client;
    use std::net::TcpStream;

    let scene = tour(500, 45.0, 39);
    let cluster = Arc::new(in_process_cluster(2, 1 << 30));
    let front = gs_scale::cluster::bind_http(HttpConfig::default(), Arc::clone(&cluster)).unwrap();
    let mut stream = TcpStream::connect(front.local_addr()).unwrap();

    // Upload a sharded synthetic scene through the front-end.
    let spec = "gaussians 400\nseed 6\nextent 50 6 6\nshards 3\n";
    let response = client::request(&mut stream, "POST", "/scenes/city", spec.as_bytes()).unwrap();
    assert_eq!(
        response.status,
        201,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert!(String::from_utf8_lossy(&response.body).contains("3 shard(s)"));
    // Duplicate ids conflict.
    let response = client::request(&mut stream, "POST", "/scenes/city", spec.as_bytes()).unwrap();
    assert_eq!(response.status, 409);

    // A direct coordinator load is also visible.
    cluster
        .load_scene("tour", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    // Render through the cluster front-end: byte-identical to the direct
    // coordinator render.
    let req = wire_request(&scene, "tour", 1);
    let response =
        client::request(&mut stream, "POST", "/render", req.to_body().as_bytes()).unwrap();
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    let direct = cluster.render(&req).unwrap();
    assert_eq!(
        response.body,
        gs_scale::serve::wire::encode_raw_f32(&direct.image),
        "the cluster front-end must serve the coordinator's exact bytes"
    );
    assert_eq!(response.header("x-shards"), Some("1"));

    // A sharded render through the front reports its fan-out.
    let mut city_req = WireRequest::new("city", [-30.0, 0.0, 0.0], [0.0, 0.0, 0.0], 64, 48);
    city_req.fov_x = 1.2;
    let response = client::request(
        &mut stream,
        "POST",
        "/render",
        city_req.to_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let shards: usize = response.header("x-shards").unwrap().parse().unwrap();
    let culled: usize = response.header("x-culled").unwrap().parse().unwrap();
    assert_eq!(shards + culled, 3);

    // Unknown scenes 404 through the front.
    let mut missing = req.clone();
    missing.scene = "nowhere".to_string();
    let response =
        client::request(&mut stream, "POST", "/render", missing.to_body().as_bytes()).unwrap();
    assert_eq!(response.status, 404);

    // The stats fan-in: cluster report plus per-replica lines with merged
    // latency from real traffic.
    let response = client::request(&mut stream, "GET", "/stats", b"").unwrap();
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains("cluster stats (2 replicas)"), "{text}");
    assert!(text.contains("replica-0 up"), "{text}");
    assert!(text.contains("merged reservoirs"), "{text}");
    let stats = cluster.stats();
    assert!(stats.completed >= 2);
    assert!(stats.replica_completed() >= 2);
    assert!(
        stats.merged_replica_latency.p50 > 0.0,
        "merged latency must reflect replica reservoirs: {stats}"
    );

    // Placement and replica listings.
    let scenes = client::request(&mut stream, "GET", "/scenes", b"").unwrap();
    let listing = String::from_utf8(scenes.body).unwrap();
    assert!(listing.contains("city shards=3"), "{listing}");
    assert!(listing.contains("tour shards=1"), "{listing}");
    let replicas = client::request(&mut stream, "GET", "/replicas", b"").unwrap();
    let listing = String::from_utf8(replicas.body).unwrap();
    assert!(listing.contains("0 replica-0 up"), "{listing}");

    front.shutdown();
}

#[test]
fn coordinator_cache_short_circuits_repeat_traffic_before_routing() {
    use gs_scale::serve::http::client;
    use std::net::TcpStream;

    let scene = tour(500, 45.0, 41);
    let cluster = Arc::new(Coordinator::new(ClusterConfig {
        cache_bytes: 32 << 20,
        pose_quant: 0.05,
        ..ClusterConfig::default()
    }));
    for i in 0..2 {
        cluster
            .add_replica(
                format!("replica-{i}"),
                ReplicaTransport::InProcess(replica_server(1 << 30)),
            )
            .unwrap();
    }
    cluster
        .load_scene_sharded(
            "tour",
            Arc::new(scene.gt_params.clone()),
            scene.background,
            3,
        )
        .unwrap();

    // First render misses and fans out to replicas; the repeat is answered
    // from the coordinator cache byte-identically, without touching any
    // replica (no new relays).
    let req = wire_request(&scene, "tour", 0);
    let cold = cluster.render(&req).unwrap();
    assert!(!cold.cache_hit);
    let relays_after_cold = cluster.stats().shard_relays;
    let warm = cluster.render(&req).unwrap();
    assert!(warm.cache_hit, "the repeat must be a coordinator-cache hit");
    assert_eq!(warm.image.data(), cold.image.data());
    assert_eq!(warm.shards_rendered, 0, "no replica work on a hit");
    assert_eq!(cluster.stats().shard_relays, relays_after_cold);

    // The hit shows up as a nonzero cluster-level hit rate in GET /stats.
    let front = gs_scale::cluster::bind_http(HttpConfig::default(), Arc::clone(&cluster)).unwrap();
    let mut stream = TcpStream::connect(front.local_addr()).unwrap();
    let response =
        client::request(&mut stream, "POST", "/render", req.to_body().as_bytes()).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-cache-hit"), Some("1"));
    let stats_response = client::request(&mut stream, "GET", "/stats", b"").unwrap();
    let text = String::from_utf8(stats_response.body).unwrap();
    assert!(text.contains("cache:"), "{text}");
    let stats = cluster.stats();
    assert!(stats.cache.hit_rate() > 0.0, "{stats}");
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.misses, 1);
    front.shutdown();

    // Replacing the scene invalidates its cached frames: the next render
    // is a miss rendered from the *new* parameters.
    let other = tour(500, 45.0, 42);
    cluster
        .load_scene("tour", Arc::new(other.gt_params.clone()), other.background)
        .unwrap();
    let fresh = cluster.render(&req).unwrap();
    assert!(
        !fresh.cache_hit,
        "replacement must invalidate cached frames"
    );
    let reference = render_image(
        &other.gt_params,
        &req.to_render_request().camera,
        3,
        other.background,
    );
    assert_eq!(fresh.image.data(), reference.data());
}

#[test]
fn background_prober_recovers_a_killed_then_revived_replica() {
    use gs_scale::cluster::HealthProber;
    use std::time::{Duration, Instant};

    fn await_health(cluster: &Coordinator, id: usize, want: Health, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while cluster.replica_status()[id].health != want {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let scene = tour(400, 40.0, 43);

    // The victim lives behind a real HTTP front-end; the survivor is
    // in-process so traffic always has somewhere to go.
    let victim_server = replica_server(1 << 30);
    let victim_http = HttpServer::bind(
        HttpConfig {
            max_body_bytes: 4 << 20,
            ..HttpConfig::default()
        },
        Arc::clone(&victim_server),
    )
    .unwrap();
    let victim_addr = victim_http.local_addr();
    let cluster = Arc::new(Coordinator::new(ClusterConfig::default()));
    cluster
        .add_replica("victim", ReplicaTransport::Http(victim_addr.to_string()))
        .unwrap();
    cluster
        .add_replica(
            "survivor",
            ReplicaTransport::InProcess(replica_server(1 << 30)),
        )
        .unwrap();
    cluster
        .load_scene("tour", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    let prober = HealthProber::start(Arc::clone(&cluster), Duration::from_millis(25));

    // Kill the replica. The prober must take it out of the rotation with
    // no traffic and no operator involved.
    victim_http.shutdown();
    drop(victim_server);
    await_health(
        &cluster,
        0,
        Health::Down,
        "the prober to mark the victim down",
    );

    // Traffic keeps flowing: the scene is re-placed onto the survivor.
    let req = wire_request(&scene, "tour", 0);
    let frame = cluster.render(&req).unwrap();
    assert_eq!(frame.image.width(), 64);

    // Revive the replica on the same address (std listeners set
    // SO_REUSEADDR, so rebinding right after the shutdown works). The
    // prober must bring it back Up without an operator calling rejoin().
    let revived_server = replica_server(1 << 30);
    let revived_http = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match HttpServer::bind(
                HttpConfig {
                    addr: victim_addr.to_string(),
                    max_body_bytes: 4 << 20,
                    ..HttpConfig::default()
                },
                Arc::clone(&revived_server),
            ) {
                Ok(http) => break http,
                Err(e) => {
                    assert!(Instant::now() < deadline, "rebind kept failing: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    await_health(
        &cluster,
        0,
        Health::Up,
        "the prober to rejoin the revived replica",
    );

    // The rejoined replica takes new placements and serves them.
    let other = tour(300, 30.0, 44);
    cluster
        .load_scene("fresh", Arc::new(other.gt_params.clone()), other.background)
        .unwrap();
    let req = wire_request(&other, "fresh", 1);
    let frame = cluster.render(&req).unwrap();
    let reference = render_image(
        &other.gt_params,
        &req.to_render_request().camera,
        3,
        other.background,
    );
    assert_eq!(frame.image.data(), reference.data());

    prober.stop();
    revived_http.shutdown();
}
