//! Compares the four training systems of the paper's evaluation on the same
//! scene and platform: GPU-only, baseline host offloading, GS-Scale without
//! the deferred optimizer, and GS-Scale with all optimizations.
//!
//! For each system the example reports the simulated iteration time (on the
//! modelled laptop), its per-phase breakdown, the peak GPU memory, and the
//! final rendering quality — a miniature version of Figures 7, 9, 11 and 12.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example system_comparison
//! ```

use gs_scale::core::scene::init_gaussians_from_point_cloud;
use gs_scale::platform::PlatformSpec;
use gs_scale::scene::{SceneConfig, SceneDataset};
use gs_scale::train::{train, OffloadTrainer, SystemKind, TrainConfig};

fn main() {
    let scene = SceneDataset::generate(SceneConfig {
        name: "system-comparison".to_string(),
        num_gaussians: 2400,
        init_points: 800,
        width: 112,
        height: 84,
        num_train_views: 12,
        num_test_views: 3,
        target_active_ratio: 0.12,
        extent: 90.0,
        far_view_fraction: 0.08,
        seed: 13,
    });
    let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
    let platform = PlatformSpec::laptop_rtx4070m();
    let iterations = 120;

    println!(
        "scene: {} Gaussians | platform: {} (R_bw = {:.1})\n",
        scene.num_gaussians(),
        platform.name,
        platform.r_bw()
    );

    let mut baseline_throughput = None;
    for kind in SystemKind::ALL {
        let config = TrainConfig::reference(iterations, scene.scene_extent());
        let mut trainer = OffloadTrainer::new(
            config,
            kind,
            platform.clone(),
            init.clone(),
            scene.scene_extent(),
        )
        .expect("fits at this scale");
        let outcome = train(&mut trainer, &scene, iterations, true).expect("training succeeds");

        let throughput = outcome.run.throughput_images_per_s();
        if kind == SystemKind::BaselineOffload {
            baseline_throughput = Some(throughput);
        }
        let normalized = baseline_throughput.map(|b| throughput / b).unwrap_or(1.0);
        let quality = outcome.quality.expect("evaluated");

        println!("== {} ==", kind.name());
        println!(
            "  throughput   {throughput:.2} images/s  ({normalized:.2}x of baseline GS-Scale)"
        );
        println!(
            "  peak GPU mem {:.2} MB | final Gaussians {}",
            outcome.run.peak_gpu_bytes as f64 / 1e6,
            outcome.run.final_gaussians
        );
        println!(
            "  quality      PSNR {:.2} dB, SSIM {:.3}, LPIPS proxy {:.3}",
            quality.psnr, quality.ssim, quality.lpips
        );
        let breakdown = outcome.run.phase_breakdown();
        let total: f64 = breakdown.iter().map(|(_, t)| t).sum();
        let mut parts: Vec<String> = breakdown
            .iter()
            .filter(|(_, t)| *t > 0.0)
            .map(|(l, t)| format!("{l} {:.0}%", t / total * 100.0))
            .collect();
        parts.sort();
        println!("  time split   {}\n", parts.join(", "));
    }

    println!(
        "Takeaway: every system converges to the same quality (Table 3), but only GS-Scale\n\
         combines the baseline's GPU memory footprint with GPU-only-class training speed."
    );
}
