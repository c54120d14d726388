//! Large-scene reconstruction on a memory-constrained laptop GPU — the
//! scenario that motivates GS-Scale (drone/aerial captures such as the
//! paper's Rubble scene, trained by a hobbyist on consumer hardware).
//!
//! The example trains the same scene twice:
//!
//! 1. with the **GPU-only** system on a GPU whose capacity has been scaled
//!    down proportionally to the runnable scene size — it runs out of memory
//!    exactly like an RTX 4070 Mobile does on the full 40M-Gaussian scene;
//! 2. with **GS-Scale** under the same budget — it trains fine and reports
//!    its memory savings and throughput.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example laptop_large_scene
//! ```

use gs_scale::core::scene::init_gaussians_from_point_cloud;
use gs_scale::platform::PlatformSpec;
use gs_scale::scene::{SceneDataset, ScenePreset};
use gs_scale::train::{estimate_gpu_memory, train, OffloadTrainer, SystemKind, TrainConfig};

fn main() {
    let preset = ScenePreset::RUBBLE;
    let scene = SceneDataset::from_preset(&preset, 1.2e-4, 42);
    let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
    println!(
        "Rubble-like scene at runnable scale: {} Gaussians, {}x{} images",
        scene.num_gaussians(),
        scene.config.width,
        scene.config.height
    );

    // What the paper-scale scene would need on a real RTX 4070 Mobile.
    let laptop = PlatformSpec::laptop_rtx4070m();
    let paper_estimate = estimate_gpu_memory(
        SystemKind::GpuOnly,
        preset.paper_gaussians,
        preset.active_ratio,
        preset.width * preset.height,
        0.3,
    );
    println!(
        "At paper scale ({:.0}M Gaussians) GPU-only training needs ~{:.0} GB; the laptop has {:.0} GB.",
        preset.paper_gaussians as f64 / 1e6,
        paper_estimate.total() as f64 / 1e9,
        laptop.gpu.mem_capacity as f64 / 1.073_741_824e9,
    );

    // Scale the GPU capacity down by the same factor as the scene so the
    // functional run exhibits the same out-of-memory behaviour.
    let scale_factor = scene.num_gaussians() as f64 / preset.paper_gaussians as f64;
    let scaled_capacity = (laptop.gpu.mem_capacity as f64 * scale_factor * 8.0) as u64;
    let constrained = laptop.clone().with_gpu_memory(scaled_capacity);
    println!(
        "Scaled-down experiment: GPU capacity limited to {:.2} MB.\n",
        scaled_capacity as f64 / 1e6
    );

    // 1. GPU-only: expected to fail with OOM.
    match OffloadTrainer::new(
        TrainConfig::fast_test(100),
        SystemKind::GpuOnly,
        constrained.clone(),
        init.clone(),
        scene.scene_extent(),
    ) {
        Ok(_) => println!("GPU-only: unexpectedly fit in the constrained GPU"),
        Err(e) => println!("GPU-only: {e}"),
    }

    // 2. GS-Scale: trains under the same constraint.
    let mut trainer = OffloadTrainer::new(
        TrainConfig::reference(200, scene.scene_extent()),
        SystemKind::GsScale,
        constrained,
        init,
        scene.scene_extent(),
    )
    .expect("GS-Scale fits: parameters and optimizer state live in host memory");
    let outcome = train(&mut trainer, &scene, 200, true).expect("training succeeds");
    let quality = outcome.quality.expect("evaluated");

    println!("\nGS-Scale trained successfully under the same GPU budget:");
    println!(
        "  peak GPU memory   {:.2} MB  (host memory {:.2} MB)",
        outcome.run.peak_gpu_bytes as f64 / 1e6,
        trainer.peak_host_memory() as f64 / 1e6
    );
    println!(
        "  throughput        {:.2} images/s (simulated on the laptop platform)",
        outcome.run.throughput_images_per_s()
    );
    println!(
        "  quality           PSNR {:.2} dB, SSIM {:.3}, LPIPS proxy {:.3}",
        quality.psnr, quality.ssim, quality.lpips
    );
    println!(
        "  views split       {:.0}% (balance-aware image splitting, mem_limit = 0.3)",
        outcome.run.split_fraction() * 100.0
    );
}
