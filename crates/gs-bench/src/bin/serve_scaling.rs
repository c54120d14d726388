//! Serving scalability sweep: throughput and tail latency of the `gs-serve`
//! rendering service as the worker count grows, with batching and the frame
//! cache on or off.
//!
//! This is the serving-side companion to the training figures: it measures
//! how the same multi-scene workload behaves under contention, which is the
//! regime a production deployment of trained GS-Scale scenes lives in.
//!
//! Before the sweep, a kernel microbench times the projector and the scalar
//! reference rasterizer against the lane-batched blend path (sequential and
//! tile-parallel) on one of the workload's scenes (asserting
//! byte-identity), pairs each phase with
//! its analytic `gs_render::cost` work estimate, and reports achieved
//! GFLOP/s / GB/s / roofline efficiency per phase into the JSON report's
//! `"roofline"` section.
//!
//! Usage: `cargo run --release -p gs-bench --bin serve_scaling
//! [--full] [--seed <n>] [--out BENCH_serve.json]`
//!
//! `--out` writes the machine-readable perf report (one scenario per
//! sweep cell, see [`gs_bench::perf`]) for CI's perf trajectory.

use std::sync::Arc;

use gs_bench::{print_table, BenchArgs, BenchReport, BenchScenario, RooflineEntry};
use gs_core::camera::Viewport;
use gs_core::rng::Rng64;
use gs_platform::roofline::{RooflinePoint, Work};
use gs_platform::specs::PlatformSpec;
use gs_render::cost::{projection_cost, raster_forward_cost};
use gs_render::tiles::TileGrid;
use gs_render::{
    project_splats, rasterize_forward, rasterize_forward_reference, rasterize_layer, FrameLayer,
};
use gs_scene::{SceneConfig, SceneDataset};
use gs_serve::{RenderRequest, RenderServer, SceneRegistry, ServeConfig, ServeStats};

struct Workload {
    scenes: Arc<Vec<SceneDataset>>,
    clients: usize,
    requests_per_client: usize,
}

fn build_workload(full: bool) -> Workload {
    let (num_scenes, gaussians, requests_per_client) =
        if full { (6, 2400, 60) } else { (4, 900, 25) };
    let scenes: Vec<SceneDataset> = (0..num_scenes)
        .map(|i| {
            SceneDataset::generate(SceneConfig {
                name: format!("shard-{i}"),
                num_gaussians: gaussians,
                init_points: 64,
                width: 80,
                height: 60,
                num_train_views: 8,
                num_test_views: 2,
                target_active_ratio: 0.25,
                extent: 80.0,
                far_view_fraction: 0.0,
                seed: 4200 + i as u64,
            })
        })
        .collect();
    Workload {
        scenes: Arc::new(scenes),
        clients: 8,
        requests_per_client,
    }
}

fn run(workload: &Workload, workers: usize, cache: bool, max_batch: usize) -> ServeStats {
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers,
            queue_depth: 64,
            max_batch,
            cache_bytes: if cache { 64 << 20 } else { 0 },
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 32),
    ));
    for (i, scene) in workload.scenes.iter().enumerate() {
        server
            .load_scene(
                format!("shard-{i}"),
                Arc::new(scene.gt_params.clone()),
                scene.background,
            )
            .unwrap();
    }
    let handles: Vec<_> = (0..workload.clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let scenes = Arc::clone(&workload.scenes);
            let n = workload.requests_per_client;
            std::thread::spawn(move || {
                let mut rng = Rng64::seed_from_u64(10_000 + c as u64);
                for _ in 0..n {
                    let idx = rng.gen_range(0usize..scenes.len());
                    let scene = &scenes[idx];
                    // Every request re-uses one of the scene's 8 flight-path
                    // cameras verbatim: a deliberately cache-friendly
                    // workload so the cache row isolates the hit-path cost
                    // (the mixed popular/exploratory workload lives in
                    // examples/serve_traffic.rs).
                    let cam = scene.train_cameras[rng.gen_range(0usize..scene.train_cameras.len())]
                        .clone();
                    server
                        .render_blocking(RenderRequest::full(format!("shard-{idx}"), cam))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    Arc::into_inner(server).unwrap().shutdown()
}

/// Best-of-`reps` wall-clock seconds for one invocation of `f`.
fn best_seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Reduces one measured phase to a [`RooflineEntry`] row.
fn roofline_entry(
    phase: &str,
    work: &Work,
    seconds: f64,
    reference_seconds: f64,
    cpu: &gs_platform::specs::DeviceSpec,
) -> RooflineEntry {
    let point = RooflinePoint::new(work, seconds);
    RooflineEntry {
        phase: phase.to_string(),
        seconds,
        gflops: point.achieved_flops() / 1e9,
        gbytes_s: point.achieved_bandwidth() / 1e9,
        intensity: point.operational_intensity(),
        efficiency: point.efficiency(cpu, false),
        speedup: if seconds > 0.0 {
            reference_seconds / seconds
        } else {
            0.0
        },
    }
}

/// Measures the render kernels on one of the workload's scenes: the
/// projector, and the scalar reference rasterizer (the seed's pixel-outer
/// loops) head-to-head against the lane-batched blend path, sequential and
/// tile-parallel, asserting byte-identity between every pair along the way.
///
/// Each phase's time is paired with its `gs_render::cost` work estimate and
/// situated against the modelled desktop CPU roofline (the same
/// [`PlatformSpec`] the platform crate uses for its figures), so the report
/// records not just "faster" but *where each kernel sits relative to the
/// machine's ceiling*.
fn kernel_microbench(workload: &Workload, report: &mut BenchReport) {
    let scene = &workload.scenes[0];
    let params = &scene.gt_params;
    let cam = &scene.train_cameras[0];
    let vp = Viewport::full(cam);
    let sh_degree = gs_core::sh::MAX_DEGREE;
    let background = scene.background;
    let cpu = PlatformSpec::desktop_rtx4080s().cpu;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = 20;

    // The serving render: a fresh layer blended over `threads` tile-row
    // bands, then the background.
    let tiled_frame = |splats: &[gs_render::Splat], grid: &TileGrid| {
        let mut layer = FrameLayer::new(vp.width(), vp.height());
        rasterize_layer(splats, grid, &mut layer, threads);
        layer.finish(background)
    };

    // --- byte-identity gates: the kernels' invariant, re-checked here so
    // a perf report can never quote a kernel that drifted.
    let splats = project_splats(params, cam, sh_degree, &vp);
    let grid = TileGrid::build(&splats, vp);
    let (img_ref, aux) = rasterize_forward_reference(&splats, &grid, background);
    let (img_lane, _) = rasterize_forward(&splats, &grid, background);
    let img_tiled = tiled_frame(&splats, &grid);
    assert_eq!(img_ref.data(), img_lane.data(), "lane kernel drifted");
    assert_eq!(img_ref.data(), img_tiled.data(), "tiled kernel drifted");

    // --- work estimates from the analytic cost model.
    let pairs: usize = aux.n_processed.iter().map(|&n| n as usize).sum();
    let pixels = vp.width() * vp.height();
    let proj_est = projection_cost(params.len());
    let raster_est = raster_forward_cost(pairs, pixels);
    let proj_work = Work::new(proj_est.flops, proj_est.total_bytes());
    let raster_work = Work::new(raster_est.flops, raster_est.total_bytes());
    let frame_work = proj_work.combine(&raster_work);

    // --- measured phases (best-of-reps to shed scheduler noise).
    let t_proj = best_seconds(reps, || project_splats(params, cam, sh_degree, &vp));
    let t_rast_ref = best_seconds(reps, || {
        rasterize_forward_reference(&splats, &grid, background)
    });
    let t_rast_lane = best_seconds(reps, || rasterize_forward(&splats, &grid, background));
    let t_rast_tiled = best_seconds(reps, || tiled_frame(&splats, &grid));
    let t_frame_ref = t_proj + t_rast_ref;
    let t_frame_tuned = t_proj + t_rast_tiled.min(t_rast_lane);

    for entry in [
        roofline_entry("project", &proj_work, t_proj, t_proj, &cpu),
        roofline_entry(
            "raster/reference",
            &raster_work,
            t_rast_ref,
            t_rast_ref,
            &cpu,
        ),
        roofline_entry("raster/lane", &raster_work, t_rast_lane, t_rast_ref, &cpu),
        roofline_entry(
            &format!("raster/tiled-x{threads}"),
            &raster_work,
            t_rast_tiled,
            t_rast_ref,
            &cpu,
        ),
        roofline_entry(
            "frame/reference",
            &frame_work,
            t_frame_ref,
            t_frame_ref,
            &cpu,
        ),
        roofline_entry("frame/tuned", &frame_work, t_frame_tuned, t_frame_ref, &cpu),
    ] {
        report.push_roofline(entry);
    }

    let rows: Vec<Vec<String>> = report
        .roofline
        .iter()
        .map(|r| {
            vec![
                r.phase.clone(),
                format!("{:.1}", r.seconds * 1e6),
                format!("{:.2}", r.gflops),
                format!("{:.2}", r.gbytes_s),
                format!("{:.2}", r.intensity),
                format!("{:.0}%", r.efficiency * 100.0),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Kernel roofline: {} Gaussians, {}x{} px, {} splat/pixel pairs (modelled vs desktop CPU)",
            params.len(),
            vp.width(),
            vp.height(),
            pairs
        ),
        &[
            "Phase", "us", "GFLOP/s", "GB/s", "FLOP/B", "Roofline", "Speedup",
        ],
        &rows,
    );
}

fn main() {
    let args = BenchArgs::parse();
    let workload = build_workload(args.full);
    let total = workload.clients * workload.requests_per_client;
    println!(
        "workload: {} scenes, {} clients x {} closed-loop requests = {} total",
        workload.scenes.len(),
        workload.clients,
        workload.requests_per_client,
        total
    );

    let mut report = BenchReport::new("serve_scaling");
    kernel_microbench(&workload, &mut report);

    let mut rows = Vec::new();
    for &(cache, max_batch, label) in &[
        (false, 1usize, "no cache, no batching"),
        (false, 8, "no cache, batch<=8"),
        (true, 8, "cache + batch<=8"),
    ] {
        let mut base_rps = 0.0;
        for workers in [1usize, 2, 4] {
            let stats = run(&workload, workers, cache, max_batch);
            if workers == 1 {
                base_rps = stats.throughput_rps();
            }
            // Every serving configuration is held to the default serving
            // SLO (ObsTuning's 250 ms p99): bench_diff raises an
            // `::error::` annotation when a run breaches it.
            report.push(
                BenchScenario::from_serve_stats(format!("{label}/workers={workers}"), &stats)
                    .with_slo_p99_ms(gs_serve::ObsTuning::default().slo_p99_ms),
            );
            rows.push(vec![
                label.to_string(),
                workers.to_string(),
                format!("{:.1}", stats.throughput_rps()),
                format!("{:.2}x", stats.throughput_rps() / base_rps),
                format!("{:.2}", stats.latency.p50 * 1e3),
                format!("{:.2}", stats.latency.p99 * 1e3),
                format!("{:.0}%", stats.cache.hit_rate() * 100.0),
                format!("{:.2}", stats.mean_batch_size()),
            ]);
        }
    }
    print_table(
        "Serving scalability: workers vs throughput / tail latency",
        &[
            "Config", "Workers", "req/s", "Scaling", "p50 (ms)", "p99 (ms)", "Hit rate", "Batch",
        ],
        &rows,
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n({cores} core(s) available; wall-clock worker scaling saturates at the core count.)"
    );
    println!(
        "\nExpected shape: throughput grows with workers until render work is saturated;\n\
         batching lifts the no-cache configurations by sharing per-scene gathers under\n\
         contention; the frame cache collapses popular-viewpoint traffic into hits, which\n\
         raises req/s and cuts p50 sharply while p99 tracks the residual cold renders."
    );
    if let Some(path) = &args.out {
        report.write(path).expect("perf report path is writable");
    }
}
