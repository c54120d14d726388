//! Pose-quantization sweep: frame-cache hit rate vs pixel staleness.
//!
//! The frame cache answers a request from a cached frame whenever the
//! camera lands in the same quantization cell as an earlier render. A
//! coarser grid (`ServeConfig::pose_quant`) collapses more nearby poses
//! onto one key — higher hit rate — but the served frame was rendered from
//! a pose up to half a cell away, so pixels go stale. This sweep charts
//! that trade-off: for each quantization step it drives popularity-skewed
//! jittered traffic through the LRU frame cache and reports the hit rate
//! alongside PSNR between every sampled cache hit and the exact render of
//! the *requested* camera.
//!
//! Usage: `cargo run --release -p gs-bench --bin cache_pose_sweep [--full]`

use std::sync::Arc;

use gs_bench::print_table;
use gs_core::rng::Rng64;
use gs_metrics::psnr;
use gs_render::pipeline::render_image;
use gs_scene::{SceneConfig, SceneDataset};
use gs_serve::{RenderRequest, RenderServer, SceneRegistry, ServeConfig, ServeStats};

/// One run's measurements.
struct Sample {
    stats: ServeStats,
    hits_scored: usize,
    psnr_mean: f64,
    psnr_min: f64,
}

fn scene(full: bool) -> SceneDataset {
    SceneDataset::generate(SceneConfig {
        name: "pose-sweep".to_string(),
        num_gaussians: if full { 2400 } else { 1000 },
        init_points: 64,
        width: 64,
        height: 48,
        num_train_views: 12,
        num_test_views: 2,
        target_active_ratio: 0.25,
        extent: 80.0,
        far_view_fraction: 0.0,
        seed: 8800,
    })
}

const FRAME_BYTES: u64 = 64 * 48 * 3 * 4;

fn run(scene: &SceneDataset, step: f32, requests: usize) -> Sample {
    let server = RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            max_batch: 1,
            // Small enough that the working set does not fit at fine
            // quantization: eviction actually happens.
            cache_bytes: 24 * FRAME_BYTES,
            pose_quant: step,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    );
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    let mut rng = Rng64::seed_from_u64(42);
    let bases = &scene.train_cameras;
    let mut hits_scored = 0usize;
    let mut psnr_sum = 0.0f64;
    let mut psnr_min = f64::INFINITY;
    for r in 0..requests {
        // Popularity-skewed base viewpoint (square of a uniform skews
        // toward index 0) with a +-0.15 world-unit jitter per axis — the
        // orbiting-clients model: nearly identical poses, never exactly
        // equal.
        let u = rng.gen_range(0u64..1_000_000) as f64 / 1e6;
        let base = ((u * u) * bases.len() as f64) as usize;
        let mut cam = bases[base.min(bases.len() - 1)].clone();
        let mut jitter = || (rng.gen_range(0u64..1_000_000) as f32 / 1e6 - 0.5) * 0.3;
        cam.position.x += jitter();
        cam.position.y += jitter();
        cam.position.z += jitter();
        let frame = server
            .render_blocking(RenderRequest::full("city", cam.clone()))
            .unwrap();
        // Staleness of cache-served pixels: PSNR of the hit against the
        // exact render of the camera the client actually asked for
        // (subsampled — the exact render doubles the work of a request).
        if frame.cache_hit && r % 3 == 0 {
            let exact = render_image(&scene.gt_params, &cam, 3, scene.background);
            let p = psnr(&frame.image, &exact);
            hits_scored += 1;
            psnr_sum += p;
            psnr_min = psnr_min.min(p);
        }
    }
    Sample {
        stats: server.shutdown(),
        hits_scored,
        psnr_mean: if hits_scored > 0 {
            psnr_sum / hits_scored as f64
        } else {
            f64::NAN
        },
        psnr_min: if hits_scored > 0 { psnr_min } else { f64::NAN },
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scene = scene(full);
    let requests = if full { 900 } else { 300 };
    println!(
        "workload: {} popularity-skewed jittered requests over {} base viewpoints, \
         cache capacity {} frames",
        requests,
        scene.train_cameras.len(),
        24,
    );

    let mut rows = Vec::new();
    for &step in &[0.02f32, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let sample = run(&scene, step, requests);
        let s = &sample.stats;
        rows.push(vec![
            format!("{step}"),
            format!("{:.1}%", s.cache.hit_rate() * 100.0),
            s.cache.evictions.to_string(),
            sample.hits_scored.to_string(),
            if sample.psnr_mean.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}", sample.psnr_mean)
            },
            if sample.psnr_min.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}", sample.psnr_min)
            },
        ]);
    }
    print_table(
        "Pose quantization: hit rate vs staleness (PSNR of hits vs exact render)",
        &[
            "Step",
            "Hit rate",
            "Evict",
            "Hits scored",
            "PSNR mean",
            "PSNR min",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: a coarser grid collapses more jittered poses onto one key, so\n\
         the hit rate climbs while the PSNR of served-from-cache frames falls (the cached\n\
         pose drifts up to half a cell from the requested one); a PSNR of 100 means the\n\
         hit was pixel-exact."
    );
}
