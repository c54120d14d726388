//! The GPU-only reference system: every tensor (parameters, gradients,
//! optimizer state, activations) lives in GPU memory and every stage runs on
//! the GPU, serially. This is the system GS-Scale is compared against
//! throughout the paper's evaluation, and the one that hits out-of-memory
//! failures on large scenes (Figure 11).
//!
//! GPU-only is a placement, not a trainer of its own:
//! [`OffloadTrainer::new`] with [`SystemKind::GpuOnly`] runs the shared step
//! with every buffer resident on the GPU, so nothing transfers and one GPU
//! optimizer updates all 59 columns.

use gs_core::error::Result;
use gs_core::gaussian::GaussianParams;
use gs_platform::PlatformSpec;

use crate::config::TrainConfig;
use crate::memory_model::SystemKind;
use crate::offload::OffloadTrainer;

/// The GPU-only system's constructor, under the name `bench/` calls.
///
/// The type has no values: [`GpuOnlyTrainer::new`] returns the shared
/// [`OffloadTrainer`]. `bench/` is its only caller; ROADMAP item 3, which
/// folds the figure binaries into `bench/`, deletes it.
#[derive(Debug)]
pub enum GpuOnlyTrainer {}

impl GpuOnlyTrainer {
    /// Creates a GPU-only trainer:
    /// `OffloadTrainer::new(config, SystemKind::GpuOnly, ..)`.
    ///
    /// # Errors
    ///
    /// Returns an out-of-memory error if the initial parameters, gradients
    /// and optimizer state do not fit in the platform's GPU memory.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        config: TrainConfig,
        platform: PlatformSpec,
        init_params: GaussianParams,
        scene_extent: f32,
    ) -> Result<OffloadTrainer> {
        OffloadTrainer::new(
            config,
            SystemKind::GpuOnly,
            platform,
            init_params,
            scene_extent,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trainer;
    use gs_core::camera::Camera;
    use gs_core::image::Image;
    use gs_core::math::Vec3;
    use gs_render::pipeline::render_image;

    fn tiny_scene() -> (GaussianParams, Camera, Image) {
        let mut gt = GaussianParams::new();
        gt.push_isotropic(Vec3::new(0.0, 0.0, 0.0), 0.5, [0.9, 0.3, 0.2], 0.9);
        gt.push_isotropic(Vec3::new(0.8, 0.4, 0.5), 0.4, [0.2, 0.8, 0.3], 0.85);
        gt.push_isotropic(Vec3::new(-0.6, -0.3, 0.3), 0.4, [0.3, 0.3, 0.9], 0.85);
        let cam = Camera::look_at(
            48,
            36,
            std::f32::consts::FRAC_PI_2,
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let target = render_image(&gt, &cam, 3, [0.05, 0.05, 0.08]);
        // Initialize training from perturbed parameters.
        let mut init = gt.clone();
        for i in 0..init.len() {
            init.set_mean(i, init.mean(i) + Vec3::new(0.15, -0.1, 0.05));
            init.set_opacity_logit(i, init.opacity_logit(i) - 0.5);
        }
        (init, cam, target)
    }

    #[test]
    fn the_shim_builds_the_gpu_only_system() {
        let (init, _, _) = tiny_scene();
        let platform = PlatformSpec::laptop_rtx4070m();
        let trainer = GpuOnlyTrainer::new(TrainConfig::fast_test(1), platform, init, 10.0).unwrap();
        assert_eq!(trainer.name(), SystemKind::GpuOnly.name());
    }

    #[test]
    fn training_reduces_loss() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(30);
        let mut trainer = OffloadTrainer::new(
            cfg,
            SystemKind::GpuOnly,
            PlatformSpec::laptop_rtx4070m(),
            init,
            10.0,
        )
        .unwrap();
        let first = trainer.step(&cam, &target).unwrap();
        let mut last = first.clone();
        for _ in 0..30 {
            last = trainer.step(&cam, &target).unwrap();
        }
        assert!(
            last.loss < first.loss * 0.9,
            "loss {} -> {}",
            first.loss,
            last.loss
        );
        assert!(last.sim_time_s > 0.0);
        assert!(trainer.peak_gpu_memory() > 0);
    }

    #[test]
    fn oom_when_gpu_too_small() {
        let (init, _cam, _target) = tiny_scene();
        // 3 Gaussians need 3 * 59 * 4 * 4 = 2832 bytes persistent; a 1 KB GPU
        // cannot hold them.
        let platform = PlatformSpec::laptop_rtx4070m().with_gpu_memory(1024);
        let cfg = TrainConfig::fast_test(10);
        let err = OffloadTrainer::new(cfg, SystemKind::GpuOnly, platform, init, 10.0).unwrap_err();
        assert!(err.is_oom());
    }

    #[test]
    fn iteration_stats_are_consistent() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(10);
        let mut trainer = OffloadTrainer::new(
            cfg,
            SystemKind::GpuOnly,
            PlatformSpec::desktop_rtx4080s(),
            init,
            10.0,
        )
        .unwrap();
        let stats = trainer.step(&cam, &target).unwrap();
        assert_eq!(stats.total_gaussians, 3);
        assert_eq!(stats.active_gaussians, 3);
        assert_eq!(stats.optimizer_updates, 3);
        assert!(!stats.image_split);
        let sum: f64 = stats.phase_breakdown.values().sum();
        // Serial system: breakdown sums to the makespan.
        assert!((sum - stats.sim_time_s).abs() < 1e-12);
    }

    #[test]
    fn densification_grows_the_model_and_memory() {
        let (init, cam, target) = tiny_scene();
        let mut cfg = TrainConfig::fast_test(200);
        cfg.densify = crate::densify::DensifyConfig {
            start_iteration: 1,
            stop_iteration: 100,
            interval: 5,
            grad_threshold: 0.0,
            split_scale_fraction: 0.5,
            prune_opacity: 0.0,
            max_gaussians: 0,
        };
        let mut trainer = OffloadTrainer::new(
            cfg,
            SystemKind::GpuOnly,
            PlatformSpec::desktop_rtx4080s(),
            init,
            1.0,
        )
        .unwrap();
        let before_mem = trainer.peak_gpu_memory();
        for _ in 0..5 {
            trainer.step(&cam, &target).unwrap();
            trainer.densify_if_due().unwrap();
        }
        assert!(trainer.num_gaussians() > 3);
        assert!(trainer.peak_gpu_memory() > before_mem);
    }
}
