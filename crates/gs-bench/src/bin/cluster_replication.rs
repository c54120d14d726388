//! Flash-crowd replication bench: a crowd of closed-loop clients hammers
//! one hot scene on a 3-replica cluster, with replication off (the scene
//! stays pinned to one replica) and on (the heat table drives a second
//! copy onto an idle replica before the measured crowd). The headline is
//! the throughput ratio: with a second copy the crowd's reads spread over
//! two replicas' workers via power-of-two-choices, so aggregate
//! throughput should approach 2x and must clear 1.5x on multi-core
//! machines, while p99 holds rather than collapsing behind one replica's
//! queue.
//!
//! The run also smoke-checks the lifecycle the integration tests cover:
//! the hot scene gains a copy when hot, serves byte-identical frames from
//! every copy, and retires the extra copy one idle heat window after the
//! crowd passes.
//!
//! Usage: `cargo run --release -p gs-bench --bin cluster_replication
//! [--full]`

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gs_bench::{print_table, BenchArgs};
use gs_cluster::{ClusterConfig, Coordinator, ReplicaTransport, ReplicationConfig};
use gs_render::pipeline::render_image;
use gs_scene::tour::{TourConfig, TourScene};
use gs_serve::{percentile, ObsTuning, RenderServer, SceneRegistry, ServeConfig, WireRequest};

struct Workload {
    scene: Arc<TourScene>,
    clients: usize,
    requests_per_client: usize,
}

fn build_workload(full: bool) -> Workload {
    let (gaussians, requests_per_client) = if full { (8_000, 40) } else { (1_500, 12) };
    Workload {
        scene: Arc::new(TourScene::generate(TourConfig {
            name: "crowd-tour".to_string(),
            num_gaussians: gaussians,
            length: 60.0,
            half_section: 4.0,
            width: 80,
            height: 60,
            num_views: 8,
            seed: 1700,
        })),
        clients: 8,
        requests_per_client,
    }
}

fn request_for(scene: &TourScene, view: usize) -> WireRequest {
    let cam = &scene.cameras[view % scene.cameras.len()];
    let mut req = WireRequest::new(
        "hot",
        [cam.position.x, cam.position.y, cam.position.z],
        [cam.position.x + 1.0, cam.position.y, cam.position.z],
        cam.width,
        cam.height,
    );
    req.fov_x = 1.2;
    req
}

/// Builds a 3-replica in-process cluster (one worker per replica, so each
/// extra copy genuinely adds serving capacity) with the hot scene loaded,
/// returns it plus the per-replica server handles.
fn build_cluster(
    workload: &Workload,
    max_copies: usize,
) -> (Arc<Coordinator>, Vec<Arc<RenderServer>>) {
    let cluster = Arc::new(Coordinator::new(ClusterConfig {
        replication: ReplicationConfig {
            max_copies,
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
    }));
    let mut servers = Vec::new();
    for i in 0..3 {
        let server = Arc::new(RenderServer::new(
            ServeConfig {
                workers: 1,
                queue_depth: 64,
                max_batch: 4,
                cache_bytes: 0,
                pose_quant: 0.05,
                shard_bytes: 0,
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(1 << 32),
        ));
        servers.push(Arc::clone(&server));
        cluster
            .add_replica(format!("replica-{i}"), ReplicaTransport::InProcess(server))
            .unwrap();
    }
    cluster
        .load_scene(
            "hot",
            Arc::new(workload.scene.gt_params.clone()),
            workload.scene.background,
        )
        .unwrap();
    (cluster, servers)
}

struct CrowdResult {
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    copies: usize,
}

/// Drives the flash crowd against one cluster configuration and measures
/// the crowd phase alone (the warmup burst that heats the scene and the
/// replication tick happen before the clock starts).
fn run_crowd(workload: &Workload, max_copies: usize) -> CrowdResult {
    let (cluster, servers) = build_cluster(workload, max_copies);

    // Warmup: the flash crowd's leading edge pushes the scene over the
    // replicate threshold; the tick then acts on the heat table.
    for view in 0..30 {
        cluster.render(&request_for(&workload.scene, view)).unwrap();
    }
    cluster.replication_tick();
    let placement = cluster
        .scenes()
        .into_iter()
        .find(|p| p.id == "hot")
        .expect("hot scene is placed");
    let copies = placement.replicas.len();
    assert!(
        copies <= max_copies,
        "replication must honor max_copies: {placement:?}"
    );
    if max_copies >= 2 {
        assert_eq!(copies, 2, "hot scene must gain a copy: {placement:?}");
    }

    // Every copy serves byte-identical frames before the measured crowd.
    let req = request_for(&workload.scene, 0);
    let reference = render_image(
        &workload.scene.gt_params,
        &req.to_render_request().camera,
        3,
        workload.scene.background,
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

    // The measured crowd: closed-loop clients, per-request latencies.
    let latencies = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..workload.clients {
            let cluster = Arc::clone(&cluster);
            let scene = Arc::clone(&workload.scene);
            let latencies = &latencies;
            let n = workload.requests_per_client;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(n);
                for r in 0..n {
                    let t = Instant::now();
                    cluster.render(&request_for(&scene, c + r)).unwrap();
                    mine.push(t.elapsed().as_secs_f64() * 1e3);
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let total = workload.clients * workload.requests_per_client;

    // After the crowd passes, one idle heat window cools the scene and the
    // extra copy retires.
    if max_copies >= 2 {
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
    }

    let mut ms = latencies.into_inner().unwrap();
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    CrowdResult {
        throughput_rps: total as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&ms, 0.50),
        p99_ms: percentile(&ms, 0.99),
        copies,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let workload = build_workload(args.full);
    let total = workload.clients * workload.requests_per_client;
    println!(
        "workload: {} gaussians, {} clients x {} closed-loop crowd requests = {} per config",
        workload.scene.gt_params.len(),
        workload.clients,
        workload.requests_per_client,
        total
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (label, max_copies) in [("crowd_baseline", 1usize), ("crowd_replicated", 2)] {
        let result = run_crowd(&workload, max_copies);
        rows.push(vec![
            label.to_string(),
            result.copies.to_string(),
            format!("{:.1}", result.throughput_rps),
            format!("{:.2}", result.p50_ms),
            format!("{:.2}", result.p99_ms),
        ]);
        results.push(result);
    }
    print_table(
        "Flash crowd on one hot scene: 3 replicas, 1 worker each",
        &["Scenario", "Copies", "req/s", "p50 (ms)", "p99 (ms)"],
        &rows,
    );

    let ratio = results[1].throughput_rps / results[0].throughput_rps.max(1e-9);
    println!(
        "\nreplicated/baseline throughput ratio: {ratio:.2}x (p99 {:.2} ms -> {:.2} ms)",
        results[0].p99_ms, results[1].p99_ms
    );
    let parallel = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if parallel >= 4 {
        assert!(
            ratio >= 1.5,
            "a second copy must buy >= 1.5x hot-scene throughput, got {ratio:.2}x"
        );
    } else {
        println!("(ratio assertion skipped: only {parallel} hardware threads)");
    }
}
