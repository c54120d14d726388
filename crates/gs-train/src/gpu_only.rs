//! The GPU-only reference system: every tensor (parameters, gradients,
//! optimizer state, activations) lives in GPU memory and every stage runs on
//! the GPU, serially. This is the system GS-Scale is compared against
//! throughout the paper's evaluation, and the one that hits out-of-memory
//! failures on large scenes (Figure 11).

use std::collections::BTreeMap;

use gs_core::camera::{Camera, Viewport};
use gs_core::error::Result;
use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;
use gs_optim::DenseAdam;
use gs_platform::{kernel_time, MemoryCategory, MemoryPool, PlatformSpec, Stream, TimelineSim};
use gs_render::cost as render_cost;
use gs_render::culling::frustum_cull;
use gs_render::loss::loss_and_grad;
use gs_render::pipeline::{render, render_backward};

use crate::config::TrainConfig;
use crate::densify::{densify, DensifyAccumulator};
use crate::memory_model;
use crate::stats::IterationStats;
use crate::timing::{work_from_estimate, work_from_step};
use crate::Trainer;

/// Trainer that keeps everything resident on the GPU.
#[derive(Debug)]
pub struct GpuOnlyTrainer {
    config: TrainConfig,
    platform: PlatformSpec,
    params: GaussianParams,
    optimizer: DenseAdam,
    gpu_pool: MemoryPool,
    accum: DensifyAccumulator,
    iteration: usize,
    scene_extent: f32,
}

impl GpuOnlyTrainer {
    /// Creates a GPU-only trainer.
    ///
    /// # Errors
    ///
    /// Returns an out-of-memory error if the initial parameters, gradients
    /// and optimizer state do not fit in the platform's GPU memory.
    pub fn new(
        config: TrainConfig,
        platform: PlatformSpec,
        init_params: GaussianParams,
        scene_extent: f32,
    ) -> Result<Self> {
        let n = init_params.len();
        let gpu_pool = MemoryPool::new("gpu", platform.gpu.mem_capacity);
        let optimizer = DenseAdam::new(config.adam, n);
        let mut trainer = Self {
            config,
            platform,
            params: init_params,
            optimizer,
            gpu_pool,
            accum: DensifyAccumulator::new(n),
            iteration: 0,
            scene_extent,
        };
        trainer.update_persistent_memory()?;
        Ok(trainer)
    }

    /// The platform this trainer is modelled on.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// Number of training iterations performed so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    fn update_persistent_memory(&mut self) -> Result<()> {
        let n = self.params.len() as u64;
        let param_bytes = n * GaussianParams::PARAMS_PER_GAUSSIAN as u64 * 4;
        self.gpu_pool.set(MemoryCategory::Parameters, param_bytes)?;
        self.gpu_pool.set(MemoryCategory::Gradients, param_bytes)?;
        self.gpu_pool
            .set(MemoryCategory::OptimizerState, 2 * param_bytes)?;
        Ok(())
    }
}

impl Trainer for GpuOnlyTrainer {
    fn name(&self) -> &str {
        "GPU-Only"
    }

    fn params(&self) -> &GaussianParams {
        &self.params
    }

    fn step(&mut self, cam: &Camera, target: &Image) -> Result<IterationStats> {
        self.iteration += 1;
        let vp = Viewport::full(cam);
        let total = self.params.len();

        // Frustum culling on the GPU.
        let cull = frustum_cull(&self.params, cam, &vp);
        let active = cull.num_active();

        // Transient activation memory for the forward/backward pass.
        let activation_bytes = memory_model::ACTIVATION_BYTES_PER_PIXEL * cam.num_pixels() as u64
            + memory_model::ACTIVATION_BYTES_PER_ACTIVE_GAUSSIAN * active as u64;
        self.gpu_pool
            .alloc(MemoryCategory::Activations, activation_bytes)?;

        // Forward + loss + backward over the full parameter set (the renderer
        // internally touches only the visible Gaussians).
        let output = render(
            &self.params,
            cam,
            self.config.sh_degree,
            &vp,
            self.config.background,
        );
        let (loss, d_image) = loss_and_grad(self.config.loss, &output.image, target);
        let grads = render_backward(&self.params, cam, self.config.sh_degree, &output, &d_image);
        self.gpu_pool
            .free(MemoryCategory::Activations, activation_bytes);

        // Densification statistics (dense gradients: every Gaussian).
        self.accum.record_dense(&grads);

        // Dense Adam over every parameter group, on the GPU.
        let opt_stats = self.optimizer.step(&mut self.params, &grads);

        // Execution timeline: everything serial on the GPU queue.
        let mut sim = TimelineSim::new();
        let gpu = &self.platform.gpu;
        let cull_t = kernel_time(
            &work_from_estimate(&render_cost::cull_cost(total, active)),
            gpu,
            true,
        );
        let fwd_t = kernel_time(&work_from_estimate(&output.stats.forward_work()), gpu, true);
        let bwd_t = kernel_time(
            &work_from_estimate(&output.stats.backward_work()),
            gpu,
            true,
        );
        let opt_t = kernel_time(&work_from_step(&opt_stats, false), gpu, true);
        let c = sim.schedule(Stream::GpuCompute, "frustum_cull", cull_t, &[]);
        let f = sim.schedule(Stream::GpuCompute, "gpu_fwd_bwd", fwd_t + bwd_t, &[c]);
        sim.schedule(Stream::GpuCompute, "optimizer", opt_t, &[f]);

        let mut breakdown = BTreeMap::new();
        sim.accumulate_breakdown(&mut breakdown);

        Ok(IterationStats {
            loss,
            active_gaussians: active,
            total_gaussians: total,
            sim_time_s: sim.makespan(),
            phase_breakdown: breakdown,
            image_split: false,
            optimizer_updates: opt_stats.updated_gaussians,
        })
    }

    fn flush(&mut self) {}

    fn densify_if_due(&mut self) -> Result<(usize, usize)> {
        if !self.config.densify.is_due(self.iteration) {
            return Ok((0, 0));
        }
        let report = densify(
            &mut self.params,
            &self.accum,
            &self.config.densify,
            self.scene_extent,
        );
        self.optimizer.retain_mask(&report.keep_mask);
        self.optimizer.append_zeros(report.appended);
        self.accum.reset(self.params.len());
        self.update_persistent_memory()?;
        debug_assert_eq!(self.optimizer.state().len(), self.params.len());
        Ok((report.appended, report.pruned + report.split))
    }

    fn peak_gpu_memory(&self) -> u64 {
        self.gpu_pool.peak_total()
    }

    fn peak_gpu_breakdown(&self) -> Vec<(MemoryCategory, u64)> {
        self.gpu_pool.peak_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn training_reduces_loss() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(30);
        let mut trainer =
            GpuOnlyTrainer::new(cfg, PlatformSpec::laptop_rtx4070m(), init, 10.0).unwrap();
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
        let err = GpuOnlyTrainer::new(cfg, platform, init, 10.0).unwrap_err();
        assert!(err.is_oom());
    }

    #[test]
    fn iteration_stats_are_consistent() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(10);
        let mut trainer =
            GpuOnlyTrainer::new(cfg, PlatformSpec::desktop_rtx4080s(), init, 10.0).unwrap();
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
        let mut trainer =
            GpuOnlyTrainer::new(cfg, PlatformSpec::desktop_rtx4080s(), init, 1.0).unwrap();
        let before_mem = trainer.peak_gpu_memory();
        for _ in 0..5 {
            trainer.step(&cam, &target).unwrap();
            trainer.densify_if_due().unwrap();
        }
        assert!(trainer.num_gaussians() > 3);
        assert!(trainer.peak_gpu_memory() > before_mem);
    }
}
