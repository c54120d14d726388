//! Training loop, evaluation, and epoch-level statistics.

use gs_core::error::Result;
use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;
use gs_metrics::QualityReport;
use gs_render::pipeline::render_image;
use gs_scene::SceneDataset;

use crate::stats::RunStats;
use crate::Trainer;

/// Result of a training run: per-iteration statistics plus (optionally) the
/// rendering quality on the held-out test views.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Run statistics (timing, memory, losses).
    pub run: RunStats,
    /// Average rendering quality over the test views, if evaluation was
    /// requested.
    pub quality: Option<QualityReport>,
}

/// Caches ground-truth renderings per camera so the training loop does not
/// re-render the reference scene every iteration.
struct GroundTruthCache {
    images: Vec<Option<Image>>,
}

impl GroundTruthCache {
    fn new(n: usize) -> Self {
        Self {
            images: vec![None; n],
        }
    }

    fn get(&mut self, scene: &SceneDataset, view: usize) -> &Image {
        if self.images[view].is_none() {
            self.images[view] = Some(scene.ground_truth(&scene.train_cameras[view]));
        }
        self.images[view].as_ref().expect("just filled")
    }
}

/// Trains `trainer` on `scene` for `iterations` iterations, cycling through
/// the training views in order (batch size 1, as in the paper).
///
/// When `evaluate_quality` is set, the trained model is evaluated on the
/// scene's test views at the end.
///
/// # Errors
///
/// Propagates out-of-memory errors from the trainer (for example the
/// GPU-only system running out of GPU memory).
pub fn train(
    trainer: &mut dyn Trainer,
    scene: &SceneDataset,
    iterations: usize,
    evaluate_quality: bool,
) -> Result<TrainOutcome> {
    let mut run = RunStats {
        system: trainer.name().to_string(),
        ..RunStats::default()
    };
    let mut cache = GroundTruthCache::new(scene.train_cameras.len());
    for i in 0..iterations {
        let view = i % scene.train_cameras.len();
        let cam = scene.train_cameras[view].clone();
        let target = cache.get(scene, view).clone();
        let stats = trainer.step(&cam, &target)?;
        run.iterations.push(stats);
        trainer.densify_if_due()?;
    }
    trainer.flush();
    run.peak_gpu_bytes = trainer.peak_gpu_memory();
    run.peak_gpu_breakdown = trainer.peak_gpu_breakdown();
    run.final_gaussians = trainer.num_gaussians();

    let quality = if evaluate_quality {
        Some(evaluate(trainer.params(), scene))
    } else {
        None
    };
    Ok(TrainOutcome { run, quality })
}

/// Evaluates rendering quality of `params` on the scene's test views
/// (average PSNR / SSIM / LPIPS-proxy against the ground truth).
pub fn evaluate(params: &GaussianParams, scene: &SceneDataset) -> QualityReport {
    let mut reports = Vec::new();
    for cam in &scene.test_cameras {
        let gt = scene.ground_truth(cam);
        let rendered = render_image(params, cam, 3, scene.background);
        reports.push(QualityReport::evaluate(&rendered, &gt));
    }
    QualityReport::average(&reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::gpu_only::GpuOnlyTrainer;
    use crate::offload::{OffloadOptions, OffloadTrainer};
    use gs_core::scene::init_gaussians_from_point_cloud;
    use gs_platform::PlatformSpec;
    use gs_scene::SceneConfig;

    fn small_scene() -> SceneDataset {
        SceneDataset::generate(SceneConfig {
            name: "driver-test".to_string(),
            num_gaussians: 400,
            init_points: 200,
            width: 64,
            height: 48,
            num_train_views: 6,
            num_test_views: 2,
            target_active_ratio: 0.9,
            extent: 40.0,
            far_view_fraction: 0.0,
            seed: 3,
        })
    }

    #[test]
    fn training_improves_over_initialization() {
        let scene = small_scene();
        let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
        let initial_quality = evaluate(&init, &scene);

        let cfg = TrainConfig::fast_test(60);
        let mut trainer = OffloadTrainer::new(
            cfg,
            OffloadOptions::full(),
            PlatformSpec::laptop_rtx4070m(),
            init,
            scene.scene_extent(),
        )
        .unwrap();
        let outcome = train(&mut trainer, &scene, 60, true).unwrap();
        let quality = outcome.quality.unwrap();
        assert!(
            quality.psnr > initial_quality.psnr,
            "PSNR should improve: {} -> {}",
            initial_quality.psnr,
            quality.psnr
        );
        assert_eq!(outcome.run.iterations.len(), 60);
        assert!(outcome.run.total_sim_time() > 0.0);
        assert!(outcome.run.peak_gpu_bytes > 0);
    }

    #[test]
    fn gpu_only_and_gs_scale_reach_similar_quality() {
        let scene = small_scene();
        let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
        let cfg = TrainConfig::fast_test(40);
        let platform = PlatformSpec::desktop_rtx4080s();

        let mut gpu_only = GpuOnlyTrainer::new(
            cfg.clone(),
            platform.clone(),
            init.clone(),
            scene.scene_extent(),
        )
        .unwrap();
        let q_gpu = train(&mut gpu_only, &scene, 40, true)
            .unwrap()
            .quality
            .unwrap();

        let mut gss = OffloadTrainer::new(
            cfg,
            OffloadOptions::full(),
            platform,
            init,
            scene.scene_extent(),
        )
        .unwrap();
        let q_gss = train(&mut gss, &scene, 40, true).unwrap().quality.unwrap();

        // Table 3: GS-Scale trains to GPU-only's quality. The deferred
        // update and image splitting are both exact.
        assert!(
            (q_gpu.psnr - q_gss.psnr).abs() < 0.2,
            "PSNR mismatch: {} vs {}",
            q_gpu.psnr,
            q_gss.psnr
        );
        assert!((q_gpu.ssim - q_gss.ssim).abs() < 0.01);
    }

    #[test]
    fn run_stats_capture_active_ratio() {
        let scene = small_scene();
        let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
        let cfg = TrainConfig::fast_test(12);
        let mut trainer = OffloadTrainer::new(
            cfg,
            OffloadOptions::baseline(),
            PlatformSpec::laptop_rtx4070m(),
            init,
            scene.scene_extent(),
        )
        .unwrap();
        let outcome = train(&mut trainer, &scene, 12, false).unwrap();
        assert!(outcome.quality.is_none());
        let ratio = outcome.run.mean_active_ratio();
        assert!(ratio > 0.0 && ratio <= 1.0);
        assert!(outcome.run.throughput_images_per_s() > 0.0);
    }
}
