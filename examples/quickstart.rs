//! Quickstart: train a small synthetic scene with GS-Scale and print the
//! training progress, rendering quality and GPU memory footprint.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gs_scale::core::scene::init_gaussians_from_point_cloud;
use gs_scale::platform::PlatformSpec;
use gs_scale::scene::{SceneConfig, SceneDataset};
use gs_scale::train::{evaluate, train, OffloadTrainer, SystemKind, TrainConfig, Trainer};

fn main() {
    // 1. Generate a small city-like scene: ground-truth Gaussians, an
    //    SfM-like initial point cloud, and a fly-over camera trajectory.
    let scene = SceneDataset::generate(SceneConfig {
        name: "quickstart".to_string(),
        num_gaussians: 3000,
        init_points: 900,
        width: 128,
        height: 96,
        num_train_views: 16,
        num_test_views: 4,
        target_active_ratio: 0.15,
        extent: 80.0,
        far_view_fraction: 0.05,
        seed: 7,
    });
    println!(
        "scene: {} ground-truth Gaussians, {} train views, {} test views",
        scene.num_gaussians(),
        scene.train_cameras.len(),
        scene.test_cameras.len()
    );

    // 2. Initialize trainable Gaussians from the point cloud and measure the
    //    starting quality.
    let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
    let initial_quality = evaluate(&init, &scene);
    println!(
        "initialization: {} Gaussians, PSNR {:.2} dB",
        init.len(),
        initial_quality.psnr
    );

    // 3. Train with GS-Scale (host offloading + all three optimizations) on a
    //    modelled laptop platform (RTX 4070 Mobile).
    let platform = PlatformSpec::laptop_rtx4070m();
    let config = TrainConfig::reference(300, scene.scene_extent());
    let mut trainer = OffloadTrainer::new(
        config,
        SystemKind::GsScale,
        platform,
        init,
        scene.scene_extent(),
    )
    .expect("the quickstart scene fits comfortably");

    let outcome = train(&mut trainer, &scene, 300, true).expect("training succeeds");
    let quality = outcome.quality.expect("evaluation requested");

    // 4. Report what happened.
    println!("\n== training summary ({}) ==", trainer.name());
    println!("iterations:            {}", outcome.run.iterations.len());
    println!("final Gaussians:       {}", outcome.run.final_gaussians);
    println!(
        "mean active ratio:     {:.1}%",
        outcome.run.mean_active_ratio() * 100.0
    );
    println!(
        "simulated throughput:  {:.2} images/s on {}",
        outcome.run.throughput_images_per_s(),
        trainer.platform().name
    );
    println!(
        "peak GPU memory:       {:.2} MB (vs {:.2} MB of host memory)",
        outcome.run.peak_gpu_bytes as f64 / 1e6,
        trainer.peak_host_memory() as f64 / 1e6
    );
    println!(
        "quality:               PSNR {:.2} dB (from {:.2}), SSIM {:.3}, LPIPS proxy {:.3}",
        quality.psnr, initial_quality.psnr, quality.ssim, quality.lpips
    );
}
