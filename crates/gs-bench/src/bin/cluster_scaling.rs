//! Cluster-scaling sweep: throughput and tail latency across replica
//! count, shard count and per-replica worker count, in the spirit of SPEC's
//! multi-configuration workload characterization — the serving tier is
//! measured across representative (replicas × shards × workers) points, not
//! one happy-path demo.
//!
//! Each configuration builds an in-process cluster (the transports are
//! interchangeable; in-process keeps the sweep about the coordinator, not
//! the loopback stack), loads a corridor scene — unsharded on one replica,
//! or sharded **across** the fleet — and drives it with closed-loop
//! clients. Sharded scenes are relayed shard by shard, so every
//! configuration serves bit-identical frames; the sweep charts what the
//! fleet buys (aggregate workers) and what cross-node sharding costs
//! (sequential layer hops per request).
//!
//! Usage: `cargo run --release -p gs-bench --bin cluster_scaling
//! [--full] [--seed <n>] [--out BENCH_cluster.json]`
//!
//! `--out` writes the machine-readable perf report (one scenario per
//! (replicas × shards × workers) cell, see [`gs_bench::perf`]).

use std::sync::Arc;

use gs_bench::{print_table, BenchArgs, BenchReport, BenchScenario};
use gs_cluster::{ClusterConfig, ClusterStats, Coordinator, ReplicaTransport};
use gs_scene::tour::{TourConfig, TourScene};
use gs_serve::{RenderServer, SceneRegistry, ServeConfig, WireRequest};

struct Workload {
    scene: Arc<TourScene>,
    clients: usize,
    requests_per_client: usize,
}

fn build_workload(full: bool) -> Workload {
    let (gaussians, requests_per_client) = if full { (12_000, 25) } else { (2_000, 6) };
    Workload {
        scene: Arc::new(TourScene::generate(TourConfig {
            name: "cluster-tour".to_string(),
            num_gaussians: gaussians,
            length: 90.0,
            half_section: 4.0,
            width: 80,
            height: 60,
            num_views: 8,
            seed: 1100,
        })),
        clients: 8,
        requests_per_client,
    }
}

fn request_for(scene: &TourScene, view: usize) -> WireRequest {
    let cam = &scene.cameras[view % scene.cameras.len()];
    let mut req = WireRequest::new(
        "tour",
        [cam.position.x, cam.position.y, cam.position.z],
        [cam.position.x + 1.0, cam.position.y, cam.position.z],
        cam.width,
        cam.height,
    );
    req.fov_x = 1.2;
    req
}

fn run(workload: &Workload, replicas: usize, shards: usize, workers: usize) -> ClusterStats {
    let cluster = Arc::new(Coordinator::new(ClusterConfig::default()));
    for i in 0..replicas {
        let server = Arc::new(RenderServer::new(
            ServeConfig {
                workers,
                queue_depth: 64,
                max_batch: 4,
                cache_bytes: 0,
                pose_quant: 0.05,
                shard_bytes: 0,
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(1 << 32),
        ));
        cluster
            .add_replica(format!("replica-{i}"), ReplicaTransport::InProcess(server))
            .unwrap();
    }
    let params = Arc::new(workload.scene.gt_params.clone());
    if shards <= 1 {
        cluster
            .load_scene("tour", params, workload.scene.background)
            .unwrap();
    } else {
        cluster
            .load_scene_sharded("tour", params, workload.scene.background, shards)
            .unwrap();
    }
    std::thread::scope(|scope| {
        for c in 0..workload.clients {
            let cluster = Arc::clone(&cluster);
            let scene = Arc::clone(&workload.scene);
            let n = workload.requests_per_client;
            scope.spawn(move || {
                for r in 0..n {
                    cluster.render(&request_for(&scene, c + r)).unwrap();
                }
            });
        }
    });
    cluster.stats()
}

fn main() {
    let args = BenchArgs::parse();
    let workload = build_workload(args.full);
    let total = workload.clients * workload.requests_per_client;
    println!(
        "workload: {} gaussians, {} clients x {} closed-loop requests = {} per config",
        workload.scene.gt_params.len(),
        workload.clients,
        workload.requests_per_client,
        total
    );

    let mut rows = Vec::new();
    let mut report = BenchReport::new("cluster_scaling");
    let started = std::time::Instant::now();
    for &replicas in &[1usize, 2, 4] {
        for &shards in &[1usize, 2, 4] {
            for &workers in &[1usize, 2] {
                let run_started = std::time::Instant::now();
                let stats = run(&workload, replicas, shards, workers);
                let elapsed = run_started.elapsed().as_secs_f64();
                report.push(BenchScenario {
                    scenario: format!("replicas={replicas}/shards={shards}/workers={workers}"),
                    throughput_rps: total as f64 / elapsed.max(1e-9),
                    p50_ms: stats.latency.p50 * 1e3,
                    p90_ms: stats.latency.p90 * 1e3,
                    p99_ms: stats.latency.p99 * 1e3,
                    hit_rate: stats.cache.hit_rate(),
                    // The coordinator routes whole requests; batching lives
                    // on the replicas and is not aggregated cluster-wide.
                    mean_batch: 0.0,
                    slo_p99_ms: gs_serve::ObsTuning::default().slo_p99_ms,
                });
                rows.push(vec![
                    replicas.to_string(),
                    shards.to_string(),
                    workers.to_string(),
                    format!("{:.1}", total as f64 / elapsed),
                    format!("{:.2}", stats.latency.p50 * 1e3),
                    format!("{:.2}", stats.latency.p99 * 1e3),
                    stats.shard_relays.to_string(),
                    stats.shards_culled.to_string(),
                    format!("{:.2}", stats.merged_replica_latency.p50 * 1e3),
                ]);
            }
        }
    }
    print_table(
        "Cluster serving: replicas x shards x per-replica workers",
        &[
            "Replicas",
            "Shards",
            "Workers",
            "req/s",
            "p50 (ms)",
            "p99 (ms)",
            "Relays",
            "Culled",
            "Replica p50 (ms)",
        ],
        &rows,
    );
    println!(
        "\ntotal sweep time {:.1}s. Expected shape: replicas multiply aggregate workers, so\n\
         unsharded throughput scales with the fleet until the clients saturate; cross-node\n\
         shards add K sequential relay hops per request (latency), which buys serving\n\
         scenes no single replica could admit. View culling trims the relayed layers on\n\
         corridor views looking away from part of the scene.",
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = &args.out {
        report.write(path).expect("perf report path is writable");
    }
}
