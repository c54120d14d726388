//! Closed-loop load generator driving a multi-replica cluster — including a
//! mid-run replica kill that the traffic must survive.
//!
//! Topology: two in-process replicas plus one replica behind the real HTTP
//! front-end on loopback TCP. The coordinator places two whole scenes and
//! one corridor scene sharded **across nodes**; client threads then push
//! mixed traffic through `Coordinator::render` while the HTTP replica is
//! shot mid-run. Every request must still be answered (failover re-places
//! the dead replica's scenes from the coordinator's host-side holds), and
//! the run ends with the cluster-wide stats fan-in, including latency
//! merged exactly from the replicas' histograms.
//!
//! Run with `cargo run --release --example cluster_traffic`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gs_scale::cluster::{ClusterConfig, Coordinator, ReplicaTransport};
use gs_scale::core::rng::Rng64;
use gs_scale::scene::tour::{TourConfig, TourScene};
use gs_scale::serve::{
    HttpConfig, HttpServer, RenderServer, SceneRegistry, ServeConfig, WireRequest,
};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 25;
/// Requests completed fleet-wide before the HTTP replica is killed.
const KILL_AFTER: usize = 40;

fn tour(name: &str, n: usize, length: f32, seed: u64) -> TourScene {
    TourScene::generate(TourConfig {
        name: name.to_string(),
        num_gaussians: n,
        length,
        half_section: 4.0,
        width: 80,
        height: 60,
        num_views: 8,
        seed,
    })
}

fn replica_server() -> Arc<RenderServer> {
    Arc::new(RenderServer::new(
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            max_batch: 4,
            cache_bytes: 16 << 20,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ))
}

fn request_for(scene: &TourScene, id: &str, rng: &mut Rng64) -> WireRequest {
    let cam = &scene.cameras[rng.gen_range(0usize..scene.cameras.len())];
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

fn main() {
    println!("generating scenes...");
    let scenes = Arc::new(vec![
        tour("plaza", 1500, 50.0, 41),
        tour("canyon", 1500, 60.0, 42),
        tour("corridor", 4000, 100.0, 43),
    ]);

    // Two in-process replicas plus one behind the HTTP front-end.
    let victim_server = replica_server();
    let victim_http = HttpServer::bind(
        HttpConfig {
            max_body_bytes: 8 << 20,
            ..HttpConfig::default()
        },
        Arc::clone(&victim_server),
    )
    .expect("bind victim front-end");
    let victim_addr = victim_http.local_addr();

    let cluster = Arc::new(Coordinator::new(ClusterConfig::default()));
    cluster
        .add_replica(
            "http-victim",
            ReplicaTransport::Http(victim_addr.to_string()),
        )
        .expect("attach http replica");
    for i in 0..2 {
        cluster
            .add_replica(
                format!("local-{i}"),
                ReplicaTransport::InProcess(replica_server()),
            )
            .expect("attach in-process replica");
    }

    // Two whole scenes, one scene sharded across the fleet.
    cluster
        .load_scene(
            "plaza",
            Arc::new(scenes[0].gt_params.clone()),
            scenes[0].background,
        )
        .expect("place plaza");
    cluster
        .load_scene(
            "canyon",
            Arc::new(scenes[1].gt_params.clone()),
            scenes[1].background,
        )
        .expect("place canyon");
    let shards = cluster
        .load_scene_sharded(
            "corridor",
            Arc::new(scenes[2].gt_params.clone()),
            scenes[2].background,
            4,
        )
        .expect("place corridor shards");
    println!("placed corridor in {shards} cross-node shards:");
    for placement in cluster.scenes() {
        println!(
            "  {} -> replicas {:?} ({} gaussians, {:.1} MiB)",
            placement.id,
            placement.replicas,
            placement.gaussians,
            placement.bytes as f64 / (1 << 20) as f64,
        );
    }

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    println!(
        "\n{CLIENTS} clients x {REQUESTS_PER_CLIENT} requests = {total} renders; killing the \
         HTTP replica after {KILL_AFTER}...\n"
    );
    let started = std::time::Instant::now();
    let done = Arc::new(AtomicUsize::new(0));
    let answered: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cluster = Arc::clone(&cluster);
                let scenes = Arc::clone(&scenes);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let mut rng = Rng64::seed_from_u64(4200 + c as u64);
                    let mut ok = 0usize;
                    for _ in 0..REQUESTS_PER_CLIENT {
                        let idx = rng.gen_range(0usize..scenes.len());
                        let id = ["plaza", "canyon", "corridor"][idx];
                        let req = request_for(&scenes[idx], id, &mut rng);
                        let frame = cluster
                            .render(&req)
                            .expect("failover must answer every request");
                        assert_eq!(frame.image.width(), 80);
                        ok += 1;
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    ok
                })
            })
            .collect();

        while done.load(Ordering::SeqCst) < KILL_AFTER {
            std::thread::yield_now();
        }
        println!(
            "killing replica http-victim at {} completed renders",
            KILL_AFTER
        );
        victim_http.shutdown();
        drop(victim_server);

        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = started.elapsed();

    let stats = cluster.stats();
    println!("\n{stats}");
    println!("replica health after the kill:");
    for status in cluster.replica_status() {
        println!(
            "  [{}] {} {} ({:.1} MiB placed)",
            status.id,
            status.name,
            status.health,
            status.placed as f64 / (1 << 20) as f64,
        );
    }

    assert_eq!(answered, total, "every submission must be answered");
    assert_eq!(stats.errors, 0, "failover must hide the kill from clients");
    assert!(
        stats.failovers > 0 && stats.replacements > 0,
        "the kill must exercise failover: {stats}"
    );
    assert!(
        stats.shard_relays > 0,
        "corridor traffic must relay cross-node layers: {stats}"
    );
    println!(
        "served {answered} renders in {:.2}s ({:.1} req/s) across the replica kill: \
         {} failovers, {} re-placements, 0 lost",
        elapsed.as_secs_f64(),
        answered as f64 / elapsed.as_secs_f64(),
        stats.failovers,
        stats.replacements,
    );
}
