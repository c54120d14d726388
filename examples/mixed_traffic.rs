//! Mixed-traffic cluster demo: same-scene batching on the replicas plus
//! the coordinator-side frame cache, working together on one workload.
//!
//! Topology: two in-process replicas whose worker pools drain a FIFO queue
//! into same-scene batches, fronted by a coordinator with an LRU frame
//! cache and a background health prober. Client threads push
//! popularity-skewed repeat-heavy traffic over three scenes: repeats of
//! popular views short-circuit at the coordinator without touching any
//! replica, and the mixed remainder is batched by the replicas.
//!
//! Run with `cargo run --release --example mixed_traffic`.

use std::sync::Arc;
use std::time::Duration;

use gs_scale::cluster::{ClusterConfig, Coordinator, HealthProber, ReplicaTransport};
use gs_scale::core::rng::Rng64;
use gs_scale::scene::{SceneConfig, SceneDataset};
use gs_scale::serve::{RenderServer, SceneRegistry, ServeConfig};
use gs_scale::serve::{ServeStats, WireRequest};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 30;

fn scene(i: u64) -> SceneDataset {
    SceneDataset::generate(SceneConfig {
        name: format!("city-{i}"),
        num_gaussians: 900,
        init_points: 64,
        width: 64,
        height: 48,
        num_train_views: 8,
        num_test_views: 2,
        target_active_ratio: 0.25,
        extent: 80.0,
        far_view_fraction: 0.0,
        seed: 9900 + i,
    })
}

fn replica() -> Arc<RenderServer> {
    Arc::new(RenderServer::new(
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            max_batch: 8,
            // The replica-side cache stays off so the division of labor is
            // visible: repeats are the coordinator cache's job here, and
            // every request that reaches a replica really renders.
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ))
}

fn main() {
    let scenes: Vec<SceneDataset> = (0..3).map(scene).collect();

    let replicas: Vec<Arc<RenderServer>> = (0..2).map(|_| replica()).collect();
    let cluster = Arc::new(Coordinator::new(ClusterConfig {
        cache_bytes: 32 << 20,
        pose_quant: 0.05,
        ..ClusterConfig::default()
    }));
    for (i, server) in replicas.iter().enumerate() {
        cluster
            .add_replica(
                format!("replica-{i}"),
                ReplicaTransport::InProcess(Arc::clone(server)),
            )
            .unwrap();
    }
    let prober = HealthProber::start(Arc::clone(&cluster), Duration::from_millis(250));

    for (i, scene) in scenes.iter().enumerate() {
        cluster
            .load_scene(
                format!("city-{i}"),
                Arc::new(scene.gt_params.clone()),
                scene.background,
            )
            .unwrap();
    }

    let scenes = Arc::new(scenes);
    let answered: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cluster = Arc::clone(&cluster);
                let scenes = Arc::clone(&scenes);
                scope.spawn(move || {
                    let mut rng = Rng64::seed_from_u64(5000 + c as u64);
                    let mut ok = 0usize;
                    for _ in 0..REQUESTS_PER_CLIENT {
                        // Mixed across scenes, popularity-skewed across
                        // views: most clients orbit the same few
                        // viewpoints (cache food), the rest explore.
                        let s = rng.gen_range(0usize..scenes.len());
                        let views = scenes[s].train_cameras.len();
                        let u = rng.gen_range(0u64..1_000_000) as f64 / 1e6;
                        let v = ((u * u) * views as f64) as usize;
                        let cam = &scenes[s].train_cameras[v.min(views - 1)];
                        let mut req = WireRequest::new(
                            format!("city-{s}"),
                            [cam.position.x, cam.position.y, cam.position.z],
                            [cam.position.x, cam.position.y, cam.position.z + 1.0],
                            cam.width,
                            cam.height,
                        );
                        req.fov_x = 1.2;
                        let frame = cluster.render(&req).expect("every request is answered");
                        assert_eq!(frame.image.width(), 64);
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(answered, CLIENTS * REQUESTS_PER_CLIENT);

    let stats = cluster.stats();
    println!("{stats}");
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.completed, answered as u64);
    assert!(
        stats.cache.hit_rate() > 0.0,
        "repeat-heavy traffic must produce coordinator-cache hits: {stats}"
    );

    prober.stop();
    drop(cluster);
    let replica_stats: Vec<ServeStats> = replicas
        .into_iter()
        .map(|r| {
            let server = Arc::into_inner(r).expect("coordinator dropped its replica handles");
            server.shutdown()
        })
        .collect();
    let rendered: u64 = replica_stats.iter().map(|s| s.completed).sum();
    println!(
        "\nreplica renders: {rendered} (of {answered} client requests; the rest were \
              coordinator-cache hits)"
    );
    for (i, s) in replica_stats.iter().enumerate() {
        println!(
            "replica-{i}: {} completed, mean batch {:.2}",
            s.completed,
            s.mean_batch_size(),
        );
    }
    assert!(
        rendered < answered as u64,
        "the coordinator cache must absorb some repeats"
    );
    let mean_batch = replica_stats
        .iter()
        .filter(|s| s.completed > 0)
        .map(|s| s.mean_batch_size())
        .fold(0.0f64, f64::max);
    assert!(
        mean_batch >= 1.0,
        "replicas must report batch formation: {mean_batch}"
    );
    println!("\nmixed-traffic demo passed: coordinator cache hit rate {:.1}%, max replica mean batch {:.2}",
        stats.cache.hit_rate() * 100.0, mean_batch);
}
