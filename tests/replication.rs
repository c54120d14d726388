//! Integration tests for heat-driven hot-scene replication and
//! overload-aware serving: the replicate → load-balance → de-replicate
//! lifecycle, byte-identical replicated reads, zero lost submissions when a
//! replicated copy's replica dies mid-crowd, rebalancing onto
//! drained-then-rejoined replicas, priority-aware shedding with graceful
//! brown-out, and seeded placement-invariant cycles — all through the
//! public facade.

use std::sync::Arc;

use gs_scale::cluster::{
    ClusterConfig, ClusterError, Coordinator, ReplicaTransport, ReplicationConfig,
};
use gs_scale::render::pipeline::render_image;
use gs_scale::scene::tour::{TourConfig, TourScene};
use gs_scale::serve::{
    HttpConfig, HttpServer, ObsTuning, Priority, RenderServer, SceneRegistry, ServeConfig,
    WireRequest,
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

/// A replication policy with test-friendly thresholds: a short heat window
/// and low rate thresholds, so a burst of renders makes a scene "hot" and
/// one idle window cools it again.
fn replication_config() -> ClusterConfig {
    ClusterConfig {
        replication: ReplicationConfig {
            max_copies: 2,
            replicate_rate_per_s: 2.0,
            dereplicate_rate_per_s: 1.0,
            cool_ticks: 1,
            rebalance: true,
        },
        obs: ObsTuning {
            heat_window_s: 1,
            ..ObsTuning::default()
        },
        ..ClusterConfig::default()
    }
}

#[test]
fn hot_scene_replicates_balances_reads_and_dereplicates() {
    let scene = tour(400, 40.0, 51);
    let cold = tour(300, 30.0, 52);
    let servers: Vec<Arc<RenderServer>> = (0..3).map(|_| replica_server(1 << 30)).collect();
    let cluster = Arc::new(Coordinator::new(replication_config()));
    for (i, server) in servers.iter().enumerate() {
        cluster
            .add_replica(
                format!("replica-{i}"),
                ReplicaTransport::InProcess(Arc::clone(server)),
            )
            .unwrap();
    }
    cluster
        .load_scene("hot", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    cluster
        .load_scene("cold", Arc::new(cold.gt_params.clone()), cold.background)
        .unwrap();

    // A burst of traffic pushes the hot scene over the replicate threshold
    // (30 renders inside a 1 s heat window >> 2 req/s).
    for view in 0..30 {
        cluster.render(&wire_request(&scene, "hot", view)).unwrap();
    }
    let report = cluster.replication_tick();
    assert!(
        report.replicated >= 1,
        "the hot scene must gain a copy: {report:?}"
    );
    let placement = cluster
        .scenes()
        .into_iter()
        .find(|p| p.id == "hot")
        .unwrap();
    assert_eq!(
        placement.replicas.len(),
        2,
        "hot scene must be on 2 replicas: {placement:?}"
    );
    let distinct: std::collections::HashSet<_> = placement.replicas.iter().copied().collect();
    assert_eq!(distinct.len(), 2, "{placement:?}");

    // The cold scene stays single-copy.
    let cold_placement = cluster
        .scenes()
        .into_iter()
        .find(|p| p.id == "cold")
        .unwrap();
    assert_eq!(cold_placement.replicas.len(), 1, "{cold_placement:?}");

    // Every copy serves byte-identical frames: directly on each holding
    // replica, and through the load-balanced cluster path.
    for view in 0..scene.cameras.len() {
        let req = wire_request(&scene, "hot", view);
        let reference = render_image(
            &scene.gt_params,
            &req.to_render_request().camera,
            3,
            scene.background,
        );
        for &rid in &placement.replicas {
            let direct = servers[rid]
                .render_blocking(req.to_render_request())
                .unwrap();
            assert_eq!(
                direct.image.data(),
                reference.data(),
                "copy on replica {rid} must render byte-identically"
            );
        }
        let routed = cluster.render(&req).unwrap();
        assert_eq!(routed.image.data(), reference.data());
    }

    // Under concurrent traffic the power-of-two-choices balancer spreads
    // reads over both copies (single-threaded machines may serialize the
    // renders so hard the probe never sees an in-flight tiebreak — skip the
    // spread assertion there).
    let names = std::sync::Mutex::new(std::collections::HashSet::new());
    std::thread::scope(|scope| {
        for t in 0..8 {
            let cluster = Arc::clone(&cluster);
            let scene = &scene;
            let names = &names;
            scope.spawn(move || {
                for r in 0..24 {
                    let frame = cluster.render(&wire_request(scene, "hot", t + r)).unwrap();
                    if let Some(name) = frame.replica {
                        names.lock().unwrap().insert(name);
                    }
                }
            });
        }
    });
    let parallel = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if parallel >= 2 {
        assert!(
            names.lock().unwrap().len() >= 2,
            "p2c must route reads to both copies: {:?}",
            names.lock().unwrap()
        );
    }

    // The copies gauge is exported on /metrics.
    let metrics = cluster.obs().metrics_text();
    assert!(
        metrics.contains("gs_replication_copies{scene=\"hot\"} 2"),
        "{metrics}"
    );

    // One idle heat window later the scene cools and the extra copy is
    // retired (cool_ticks = 1, so the first cool tick de-replicates).
    std::thread::sleep(std::time::Duration::from_millis(1300));
    let report = cluster.replication_tick();
    assert!(
        report.dereplicated >= 1,
        "the cooled scene must lose its extra copy: {report:?}"
    );
    let placement = cluster
        .scenes()
        .into_iter()
        .find(|p| p.id == "hot")
        .unwrap();
    assert_eq!(placement.replicas.len(), 1, "{placement:?}");
    // Budget accounting stayed exact across the cycle.
    let placed = cluster.placement_bytes_by_replica();
    for (status, expect) in cluster.replica_status().iter().zip(&placed) {
        assert_eq!(status.placed, *expect, "placed-bytes accounting drifted");
    }
    // And the scene still serves correctly after de-replication.
    let req = wire_request(&scene, "hot", 1);
    let frame = cluster.render(&req).unwrap();
    let reference = render_image(
        &scene.gt_params,
        &req.to_render_request().camera,
        3,
        scene.background,
    );
    assert_eq!(frame.image.data(), reference.data());
}

#[test]
fn killing_a_replicated_copys_replica_loses_zero_submissions() {
    // The acceptance bar: a *replicated* scene keeps answering every
    // submission when one of its copies' replicas is killed mid-crowd.
    let scene = Arc::new(tour(400, 40.0, 53));

    let victim_server = replica_server(1 << 30);
    let victim_http = HttpServer::bind(
        HttpConfig {
            max_body_bytes: 4 << 20,
            ..HttpConfig::default()
        },
        Arc::clone(&victim_server),
    )
    .unwrap();
    let cluster = Arc::new(Coordinator::new(replication_config()));
    cluster
        .add_replica(
            "victim",
            ReplicaTransport::Http(victim_http.local_addr().to_string()),
        )
        .unwrap();
    for i in 0..2 {
        cluster
            .add_replica(
                format!("survivor-{i}"),
                ReplicaTransport::InProcess(replica_server(1 << 30)),
            )
            .unwrap();
    }
    // The scene lands on the victim (deterministic tie-break toward the
    // lower id), then the crowd makes it hot and a copy lands elsewhere.
    cluster
        .load_scene("crowd", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    assert_eq!(cluster.scenes()[0].replicas, vec![0]);
    for view in 0..20 {
        cluster
            .render(&wire_request(&scene, "crowd", view))
            .unwrap();
    }
    let report = cluster.replication_tick();
    assert!(report.replicated >= 1, "{report:?}");
    let copies = cluster.scenes()[0].replicas.clone();
    assert_eq!(copies.len(), 2);
    assert!(copies.contains(&0), "the victim still holds a copy");

    let clients = 4usize;
    let per_client = 12usize;
    let kill_after = 8usize;
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
                        // Hold tail traffic until the kill lands so some
                        // submissions are guaranteed to race the dead copy.
                        if r == 3 {
                            while !killed.load(std::sync::atomic::Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        let req = wire_request(&scene, "crowd", c + r);
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
        "zero lost submissions across the copy kill"
    );
    assert_eq!(cluster.stats().errors, 0);

    // The next tick prunes the dead copy; a live copy keeps serving.
    let report = cluster.replication_tick();
    assert!(report.pruned >= 1, "{report:?}");
    let placement = cluster.scenes()[0].clone();
    assert!(
        !placement.replicas.contains(&0) && !placement.replicas.is_empty(),
        "{placement:?}"
    );
    let req = wire_request(&scene, "crowd", 0);
    let reference = render_image(
        &scene.gt_params,
        &req.to_render_request().camera,
        3,
        scene.background,
    );
    assert_eq!(cluster.render(&req).unwrap().image.data(), reference.data());
}

#[test]
fn rebalance_moves_a_scene_onto_a_rejoined_replica() {
    let a = tour(400, 40.0, 54);
    let b = tour(400, 40.0, 55);
    let servers: Vec<Arc<RenderServer>> = (0..2).map(|_| replica_server(1 << 30)).collect();
    let cluster = Coordinator::new(replication_config());
    for (i, server) in servers.iter().enumerate() {
        cluster
            .add_replica(
                format!("replica-{i}"),
                ReplicaTransport::InProcess(Arc::clone(server)),
            )
            .unwrap();
    }
    cluster
        .load_scene("a", Arc::new(a.gt_params.clone()), a.background)
        .unwrap();
    cluster
        .load_scene("b", Arc::new(b.gt_params.clone()), b.background)
        .unwrap();
    // Most-free placement spreads the two scenes over the two replicas.
    let home_of = |cluster: &Coordinator, id: &str| {
        cluster
            .scenes()
            .into_iter()
            .find(|p| p.id == id)
            .unwrap()
            .replicas
            .clone()
    };
    assert_ne!(home_of(&cluster, "a"), home_of(&cluster, "b"));

    // Drain replica 1: its scene migrates off on the next render, leaving
    // replica 1 empty.
    assert!(cluster.drain(1));
    let moved = if home_of(&cluster, "a") == vec![1] {
        "a"
    } else {
        "b"
    };
    let moved_scene = if moved == "a" { &a } else { &b };
    cluster
        .render(&wire_request(moved_scene, moved, 0))
        .unwrap();
    assert_eq!(home_of(&cluster, moved), vec![0]);
    assert_eq!(cluster.replica_status()[1].placed, 0);

    // Rejoin and tick: the rebalancer moves one scene onto the cold
    // replica instead of leaving it idle.
    assert!(cluster.rejoin(1));
    let report = cluster.replication_tick();
    assert_eq!(report.rebalanced, 1, "{report:?}");
    let on_one: Vec<_> = cluster
        .scenes()
        .into_iter()
        .filter(|p| p.replicas == vec![1])
        .collect();
    assert_eq!(on_one.len(), 1, "exactly one scene rebalances per tick");
    // Accounting is exact and both scenes still render byte-identically.
    let placed = cluster.placement_bytes_by_replica();
    for (status, expect) in cluster.replica_status().iter().zip(&placed) {
        assert_eq!(status.placed, *expect);
    }
    for (id, scene) in [("a", &a), ("b", &b)] {
        let req = wire_request(scene, id, 1);
        let reference = render_image(
            &scene.gt_params,
            &req.to_render_request().camera,
            3,
            scene.background,
        );
        assert_eq!(cluster.render(&req).unwrap().image.data(), reference.data());
    }
    // The server-side residency matches the placement table exactly: no
    // orphaned holds left behind by the move chain.
    for (rid, server) in servers.iter().enumerate() {
        assert_eq!(
            server.used_bytes(),
            placed[rid],
            "replica {rid} holds bytes the placement table does not know about"
        );
    }
}

#[test]
fn overload_sheds_speculative_work_and_browns_out_interactive() {
    let scene = tour(400, 40.0, 56);
    // An impossible latency SLO: every render is a "bad" event, so the
    // fast burn rate saturates and the overload signal trips.
    let cluster = Coordinator::new(ClusterConfig {
        obs: ObsTuning {
            slo_p99_ms: 0.0001,
            ..ObsTuning::default()
        },
        brownout_sh_degree: Some(0),
        ..ClusterConfig::default()
    });
    cluster
        .add_replica("only", ReplicaTransport::InProcess(replica_server(1 << 30)))
        .unwrap();
    cluster
        .load_scene("hot", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    for view in 0..5 {
        cluster.render(&wire_request(&scene, "hot", view)).unwrap();
    }
    assert!(
        cluster.overload_tick(),
        "sustained SLO burn must trip the overload signal"
    );

    // Speculative work is shed with a retryable error.
    let mut speculative = wire_request(&scene, "hot", 0);
    speculative.priority = Priority::Speculative;
    let err = cluster.render(&speculative).unwrap_err();
    assert!(
        matches!(err, ClusterError::Overloaded { .. }),
        "speculative work must shed under overload: {err:?}"
    );

    // Interactive work browns out: served, but at the reduced SH degree —
    // byte-identical to a degree-0 render of the same pose.
    let req = wire_request(&scene, "hot", 1);
    assert_eq!(req.sh_degree, 3);
    let frame = cluster.render(&req).unwrap();
    let reference = render_image(
        &scene.gt_params,
        &req.to_render_request().camera,
        0,
        scene.background,
    );
    assert_eq!(
        frame.image.data(),
        reference.data(),
        "browned-out frames render at the floor SH degree"
    );

    let stats = cluster.stats();
    assert!(stats.shed >= 1, "{stats}");
    assert!(stats.brownouts >= 1, "{stats}");
    let text = stats.to_string();
    assert!(text.contains("replication:"), "{text}");

    // The overload counters are exported lint-clean on /metrics.
    let metrics = cluster.obs().metrics_text();
    assert!(
        metrics.contains("gs_shed_total{priority=\"speculative\"} 1"),
        "{metrics}"
    );
    assert!(metrics.contains("gs_brownout_frames_total 1"), "{metrics}");
    gs_scale::obs::lint_prometheus(&metrics).expect("metrics must stay lint-clean");
}

#[test]
fn seeded_replication_cycles_keep_placement_invariants() {
    // Property test: random interleavings of traffic, replication ticks,
    // drain/rejoin cycles and scene reloads must preserve the placement
    // invariants — placed-bytes accounting exact, every replica id valid,
    // server-side residency matching the placement table (no orphaned
    // holds), and every scene still rendering byte-identically at the end.
    let scenes: Vec<TourScene> = (0..3)
        .map(|i| tour(300 + 40 * i, 30.0, 60 + i as u64))
        .collect();
    let ids = ["s0", "s1", "s2"];
    for seed in 0..4u64 {
        let mut rng = gs_scale::core::rng::Rng64::seed_from_u64(7700 + seed);
        let servers: Vec<Arc<RenderServer>> = (0..3).map(|_| replica_server(1 << 30)).collect();
        let cluster = Coordinator::new(replication_config());
        for (i, server) in servers.iter().enumerate() {
            cluster
                .add_replica(
                    format!("replica-{i}"),
                    ReplicaTransport::InProcess(Arc::clone(server)),
                )
                .unwrap();
        }
        for (id, scene) in ids.iter().zip(&scenes) {
            cluster
                .load_scene(*id, Arc::new(scene.gt_params.clone()), scene.background)
                .unwrap();
        }
        for _step in 0..30 {
            match rng.gen_range(0u32..6) {
                // Traffic: a burst on one scene (enough to cross the
                // replicate threshold if a tick follows soon).
                0..=2 => {
                    let k = rng.gen_range(0usize..ids.len());
                    for view in 0..4 {
                        cluster
                            .render(&wire_request(&scenes[k], ids[k], view))
                            .unwrap();
                    }
                }
                3 => {
                    cluster.replication_tick();
                }
                // Drain a replica, force the migrations with one render per
                // scene, then rejoin it.
                4 => {
                    let rid = rng.gen_range(0usize..servers.len());
                    assert!(cluster.drain(rid));
                    for (id, scene) in ids.iter().zip(&scenes) {
                        cluster.render(&wire_request(scene, id, 0)).unwrap();
                    }
                    assert!(cluster.rejoin(rid));
                }
                // Reload one scene in place (bumps its load epoch; the
                // placement must swap cleanly).
                _ => {
                    let k = rng.gen_range(0usize..ids.len());
                    cluster
                        .load_scene(
                            ids[k],
                            Arc::new(scenes[k].gt_params.clone()),
                            scenes[k].background,
                        )
                        .unwrap();
                }
            }
            // Invariants after every op.
            let placed = cluster.placement_bytes_by_replica();
            let status = cluster.replica_status();
            for (i, s) in status.iter().enumerate() {
                assert_eq!(
                    s.placed, placed[i],
                    "seed {seed}: placed-bytes accounting drifted on replica {i}"
                );
                assert!(s.placed <= s.budget, "seed {seed}: budget exceeded");
            }
            for p in cluster.scenes() {
                assert!(!p.replicas.is_empty(), "seed {seed}: empty replica set");
                for &rid in &p.replicas {
                    assert!(rid < status.len(), "seed {seed}: dangling replica id");
                }
            }
        }
        // End state: no orphaned server-side holds, and every scene still
        // renders byte-identically to its reference.
        let placed = cluster.placement_bytes_by_replica();
        for (rid, server) in servers.iter().enumerate() {
            assert_eq!(
                server.used_bytes(),
                placed[rid],
                "seed {seed}: replica {rid} holds orphaned bytes"
            );
        }
        for (id, scene) in ids.iter().zip(&scenes) {
            let req = wire_request(scene, id, 2);
            let reference = render_image(
                &scene.gt_params,
                &req.to_render_request().camera,
                3,
                scene.background,
            );
            assert_eq!(
                cluster.render(&req).unwrap().image.data(),
                reference.data(),
                "seed {seed}: scene {id} must survive the cycle byte-identically"
            );
        }
    }
}
