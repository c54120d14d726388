//! Host-offloading trainers: the baseline offloading system and GS-Scale
//! with any subset of the paper's optimizations.
//!
//! All Gaussian parameters and optimizer states live in host memory; only
//! the subset needed by the current view is staged on the GPU. The
//! [`OffloadOptions`] flags select the paper's optimizations:
//!
//! * **selective offloading** — geometric attributes (and their optimizer
//!   state) stay resident on the GPU, so frustum culling and the
//!   mean/scale/quaternion update run there;
//! * **parameter forwarding** — the CPU optimizer update of one iteration
//!   overlaps the GPU forward/backward of the next, modelled by removing the
//!   GPU-on-CPU dependency in the iteration timeline;
//! * **deferred optimizer update** — the host optimizer skips Gaussians with
//!   zero gradients and restores them from a defer counter when needed;
//! * **image splitting** — views whose active ratio exceeds `mem_limit` are
//!   rendered as two balanced sub-viewports whose gradients are aggregated
//!   before the optimizer step.
//!
//! Functionally every configuration follows the exact same parameter
//! trajectory as the GPU-only system (up to the deferred update's ε
//! approximation), which the integration tests verify.
//!
//! # Host-side cost of one step
//!
//! With `N` Gaussians of which `A` are in the view, the real (not modelled)
//! work of [`OffloadTrainer::step`] around the forward/backward pass is:
//!
//! * **O(A)** — staging (`gather` / `peek_restored`), merging the
//!   per-viewport gradients ([`SparseGrads::merge`], linear in the merged
//!   sizes), adding gradient norms to the densification accumulator, the
//!   deferred Adam update of the touched Gaussians, and setting and
//!   resetting the optimizers' id → row tables. The gradients stay packed
//!   over the active set from the backward pass to the optimizers; no
//!   `N`-sized gradient container or id list is built.
//! * **one pass over `N`** — frustum culling over the geometric
//!   attributes, the densification observation counts (a `u32` each), the
//!   deferred optimizer's defer counters (a `u8` each, read to find
//!   saturated entries and incremented), and the dense Adam update of the
//!   10 geometric columns (which the modelled system runs on the GPU). With
//!   the deferred update off, dense Adam also walks the 49 host-resident
//!   columns, which is the cost the deferred update exists to remove.

use std::collections::BTreeMap;

use gs_core::camera::{Camera, Viewport};
use gs_core::error::Result;
use gs_core::gaussian::{GaussianParams, ParamGroup, SparseGrads};
use gs_core::image::Image;
use gs_optim::{DeferredAdam, DenseAdam};
use gs_platform::{
    kernel_time, MemoryCategory, MemoryPool, PlatformSpec, Stream, TimelineSim, TransferModel,
};
use gs_render::cost as render_cost;
use gs_render::culling::frustum_cull;
use gs_render::loss::loss_and_grad;
use gs_render::pipeline::{render, render_backward, to_sparse_grads};

use crate::config::TrainConfig;
use crate::densify::{densify, DensifyAccumulator};
use crate::memory_model::{self, SystemKind};
use crate::splitting::find_balanced_split;
use crate::stats::IterationStats;
use crate::timing::{work_from_estimate, work_from_step};
use crate::Trainer;

/// Which of the paper's optimizations an [`OffloadTrainer`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadOptions {
    /// Keep geometric attributes (and their optimizer state) on the GPU and
    /// run frustum culling there (Section 4.2.1).
    pub selective_offloading: bool,
    /// Pipeline the CPU optimizer update with GPU forward/backward via
    /// parameter forwarding (Section 4.2.2).
    pub parameter_forwarding: bool,
    /// Use the deferred optimizer update on the host (Section 4.3).
    pub deferred_update: bool,
    /// Split demanding views into two balanced sub-views (Section 4.4).
    pub image_splitting: bool,
}

impl OffloadOptions {
    /// The baseline host-offloading system (no optimizations).
    pub fn baseline() -> Self {
        Self {
            selective_offloading: false,
            parameter_forwarding: false,
            deferred_update: false,
            image_splitting: false,
        }
    }

    /// GS-Scale with every optimization except the deferred optimizer update
    /// (the "all w/o Deferred Adam" configuration of Figure 11).
    pub fn without_deferred() -> Self {
        Self {
            selective_offloading: true,
            parameter_forwarding: true,
            deferred_update: false,
            image_splitting: true,
        }
    }

    /// GS-Scale with all optimizations.
    pub fn full() -> Self {
        Self {
            selective_offloading: true,
            parameter_forwarding: true,
            deferred_update: true,
            image_splitting: true,
        }
    }

    /// The options corresponding to a [`SystemKind`].
    ///
    /// # Panics
    ///
    /// Panics if called with [`SystemKind::GpuOnly`], which is not an
    /// offloading system.
    pub fn for_system(kind: SystemKind) -> Self {
        match kind {
            SystemKind::BaselineOffload => Self::baseline(),
            SystemKind::GsScaleNoDeferred => Self::without_deferred(),
            SystemKind::GsScale => Self::full(),
            SystemKind::GpuOnly => panic!("GPU-only is not an offloading system"),
        }
    }

    /// Display name matching the paper's legend.
    pub fn system_name(&self) -> &'static str {
        if self.deferred_update {
            "GS-Scale (all optimizations)"
        } else if self.selective_offloading || self.parameter_forwarding {
            "GS-Scale (w/o Deferred Adam)"
        } else {
            "Baseline GS-Scale"
        }
    }
}

/// Host-offloading trainer (see module docs).
#[derive(Debug)]
pub struct OffloadTrainer {
    config: TrainConfig,
    options: OffloadOptions,
    platform: PlatformSpec,
    /// Host-authoritative parameters. Non-geometric values of deferred
    /// Gaussians are intentionally stale between commits.
    params: GaussianParams,
    /// Dense Adam for the geometric groups (runs on the GPU under selective
    /// offloading, on the CPU otherwise).
    geom_optimizer: DenseAdam,
    /// Dense Adam for the non-geometric groups (used when the deferred
    /// update is disabled).
    cpu_dense: Option<DenseAdam>,
    /// Deferred Adam for the non-geometric groups.
    cpu_deferred: Option<DeferredAdam>,
    gpu_pool: MemoryPool,
    host_pool: MemoryPool,
    transfer: TransferModel,
    accum: DensifyAccumulator,
    iteration: usize,
    scene_extent: f32,
}

impl OffloadTrainer {
    /// Creates an offloading trainer.
    ///
    /// # Errors
    ///
    /// Returns an out-of-memory error if the resident state (host copy, plus
    /// the GPU-resident geometric attributes under selective offloading)
    /// does not fit the platform's memories.
    pub fn new(
        config: TrainConfig,
        options: OffloadOptions,
        platform: PlatformSpec,
        init_params: GaussianParams,
        scene_extent: f32,
    ) -> Result<Self> {
        let n = init_params.len();
        let gpu_pool = MemoryPool::new("gpu", platform.gpu.mem_capacity);
        let host_pool = MemoryPool::new("host", platform.cpu.mem_capacity);
        let transfer = TransferModel::new(platform.pcie_bandwidth);
        let geom_optimizer = DenseAdam::new(config.adam, n);
        let (cpu_dense, cpu_deferred) = if options.deferred_update {
            (None, Some(DeferredAdam::new(config.adam, n)))
        } else {
            (Some(DenseAdam::new(config.adam, n)), None)
        };
        let mut trainer = Self {
            config,
            options,
            platform,
            params: init_params,
            geom_optimizer,
            cpu_dense,
            cpu_deferred,
            gpu_pool,
            host_pool,
            transfer,
            accum: DensifyAccumulator::new(n),
            iteration: 0,
            scene_extent,
        };
        trainer.update_persistent_memory()?;
        Ok(trainer)
    }

    /// The configured options.
    pub fn options(&self) -> &OffloadOptions {
        &self.options
    }

    /// The platform this trainer is modelled on.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// Number of training iterations performed so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Peak host (CPU) memory observed so far, in bytes.
    pub fn peak_host_memory(&self) -> u64 {
        self.host_pool.peak_total()
    }

    fn update_persistent_memory(&mut self) -> Result<()> {
        let n = self.params.len() as u64;
        let param_bytes = n * GaussianParams::PARAMS_PER_GAUSSIAN as u64 * 4;
        let geom_bytes = n * GaussianParams::GEOMETRIC_PARAMS as u64 * 4;

        // Host always holds the full parameters and optimizer state (plus one
        // defer counter byte per Gaussian when the deferred update is on).
        self.host_pool
            .set(MemoryCategory::Parameters, param_bytes)?;
        let counter_bytes = if self.options.deferred_update { n } else { 0 };
        self.host_pool.set(
            MemoryCategory::OptimizerState,
            2 * param_bytes + counter_bytes,
        )?;

        if self.options.selective_offloading {
            // Geometric attributes and their optimizer state stay on the GPU.
            self.gpu_pool
                .set(MemoryCategory::GeometricParameters, geom_bytes)?;
            self.gpu_pool
                .set(MemoryCategory::OptimizerState, 2 * geom_bytes)?;
        } else {
            self.gpu_pool.set(MemoryCategory::GeometricParameters, 0)?;
            self.gpu_pool.set(MemoryCategory::OptimizerState, 0)?;
        }
        Ok(())
    }

    /// Stages the parameters of the listed Gaussians for the GPU forward
    /// pass, restoring deferred values where necessary.
    fn stage_params(&self, ids: &[u32]) -> GaussianParams {
        match &self.cpu_deferred {
            Some(deferred) => deferred.peek_restored(&self.params, ids, &ParamGroup::NON_GEOMETRIC),
            None => self.params.gather(ids),
        }
    }

    /// Bytes shipped host-to-device per staged Gaussian.
    fn staged_bytes_per_gaussian(&self) -> u64 {
        if self.options.selective_offloading {
            (GaussianParams::NON_GEOMETRIC_PARAMS * 4) as u64
        } else {
            (GaussianParams::PARAMS_PER_GAUSSIAN * 4) as u64
        }
    }
}

impl Trainer for OffloadTrainer {
    fn name(&self) -> &str {
        self.options.system_name()
    }

    fn params(&self) -> &GaussianParams {
        &self.params
    }

    fn step(&mut self, cam: &Camera, target: &Image) -> Result<IterationStats> {
        self.iteration += 1;
        let total = self.params.len();
        let full_vp = Viewport::full(cam);
        let full_pixels = cam.num_pixels() as f32;

        let gpu = self.platform.gpu;
        let cpu = self.platform.cpu;
        let mut sim = TimelineSim::new();

        // ---- 1. Frustum culling over all Gaussians --------------------------
        let cull = frustum_cull(&self.params, cam, &full_vp);
        let active = cull.num_active();
        let cull_event = if self.options.selective_offloading {
            // Fused culling kernel over the GPU-resident geometric attributes.
            let cull_work = work_from_estimate(&render_cost::cull_cost(total, active));
            sim.schedule(
                Stream::GpuCompute,
                "frustum_cull",
                kernel_time(&cull_work, &gpu, true),
                &[],
            )
        } else {
            // Eager-mode tensor ops on the CPU: each projection intermediate
            // materializes, so the traffic is many passes over the tensors.
            let cull_work = work_from_estimate(&render_cost::cull_cost_cpu_eager(total, active));
            sim.schedule(
                Stream::CpuCompute,
                "cpu_frustum_cull",
                kernel_time(&cull_work, &cpu, false),
                &[],
            )
        };

        // ---- 2. Image-splitting decision ------------------------------------
        let active_ratio = if total == 0 {
            0.0
        } else {
            active as f64 / total as f64
        };
        let split = self.options.image_splitting && active_ratio > self.config.mem_limit;
        let viewports: Vec<Viewport> = if split {
            let plan = find_balanced_split(&self.params, cam);
            let (l, r) = plan.viewports(cam);
            vec![l, r]
        } else {
            vec![full_vp]
        };

        // ---- 3. Per-viewport forward/backward -------------------------------
        let mut merged: SparseGrads = SparseGrads::new();
        let mut total_loss = 0.0f32;
        let mut last_gpu_event = cull_event;
        let mut last_d2h_event = cull_event;
        for vp in &viewports {
            let sub_cull;
            let ids: &[u32] = if split {
                sub_cull = frustum_cull(&self.params, cam, vp);
                &sub_cull.ids
            } else {
                &cull.ids
            };
            let staged = self.stage_params(ids);

            // Transient GPU memory for this pass.
            let staged_param_bytes = ids.len() as u64 * self.staged_bytes_per_gaussian();
            let grad_bytes = ids.len() as u64 * GaussianParams::PARAMS_PER_GAUSSIAN as u64 * 4;
            let activation_bytes = memory_model::ACTIVATION_BYTES_PER_PIXEL
                * vp.num_pixels() as u64
                + memory_model::ACTIVATION_BYTES_PER_ACTIVE_GAUSSIAN * ids.len() as u64;
            let transient = [
                (MemoryCategory::Parameters, staged_param_bytes),
                (MemoryCategory::Gradients, grad_bytes),
                (MemoryCategory::Activations, activation_bytes),
            ];
            // All or nothing: a view that does not fit must leave no charge
            // behind for the steps after it.
            self.gpu_pool.alloc_all(&transient)?;

            // Functional forward + loss + backward on the staged subset. The
            // loss gradient is scaled so that split sub-views aggregate to the
            // same gradients as a single full-image pass.
            let output = render(
                &staged,
                cam,
                self.config.sh_degree,
                vp,
                self.config.background,
            );
            let cropped;
            let target_crop: &Image = if split {
                cropped = target.crop(vp.x0, vp.y0, vp.x1, vp.y1);
                &cropped
            } else {
                target
            };
            let (loss, mut d_image) = loss_and_grad(self.config.loss, &output.image, target_crop);
            let scale = vp.num_pixels() as f32 / full_pixels;
            if (scale - 1.0).abs() > f32::EPSILON {
                for v in d_image.data_mut() {
                    *v *= scale;
                }
            }
            total_loss += loss * scale;
            let grads = render_backward(&staged, cam, self.config.sh_degree, &output, &d_image);
            merged.merge(&to_sparse_grads(ids, grads));

            // Timeline: H2D staging (chunked), forward/backward, D2H grads.
            let h2d_time: f64 = self
                .transfer
                .chunks(staged_param_bytes)
                .iter()
                .map(|&c| self.transfer.transfer_time(c))
                .sum();
            let fwd_work = work_from_estimate(&output.stats.forward_work());
            let bwd_work = work_from_estimate(&output.stats.backward_work());
            let d2h_time = self.transfer.transfer_time(grad_bytes);

            // Under parameter forwarding the H2D copy does not wait for the
            // (lazy) CPU optimizer; in the baseline it must wait for the full
            // CPU update, which is modelled by the optimizer event being
            // scheduled before the next iteration starts (serial CPU stream).
            let h2d = sim.schedule(Stream::HostToDevice, "h2d_params", h2d_time, &[cull_event]);
            let fwd = sim.schedule(
                Stream::GpuCompute,
                "gpu_fwd_bwd",
                kernel_time(&fwd_work, &gpu, true) + kernel_time(&bwd_work, &gpu, true),
                &[h2d, last_gpu_event],
            );
            let d2h = sim.schedule(Stream::DeviceToHost, "d2h_grads", d2h_time, &[fwd]);
            last_gpu_event = fwd;
            last_d2h_event = d2h;

            for (category, bytes) in transient {
                self.gpu_pool.free(category, bytes);
            }
        }

        // ---- 4. Densification statistics ------------------------------------
        // Statistics are recorded over the full index space (identically to
        // the GPU-only trainer) so every system makes the same densification
        // decisions and the trained models stay comparable. The gradients
        // stay sparse: Gaussians outside the view add a zero norm.
        self.accum.record_sparse(&merged);

        // ---- 5. Optimizer updates -------------------------------------------
        // Geometric groups: dense Adam over every Gaussian, reading the
        // sparse gradients in place.
        let t = self.geom_optimizer.advance();
        let geom_stats = self.geom_optimizer.apply_groups_sparse(
            &mut self.params,
            &merged,
            &ParamGroup::GEOMETRIC,
            t,
        );
        let geom_event = if self.options.selective_offloading {
            // Geometric state lives on the GPU: its update follows the
            // backward pass directly.
            sim.schedule(
                Stream::GpuCompute,
                "msq_optimizer",
                kernel_time(&work_from_step(&geom_stats, false), &gpu, true),
                &[last_gpu_event],
            )
        } else {
            // Geometric state lives on the host: the CPU can only update it
            // after the gradients have been copied back.
            sim.schedule(
                Stream::CpuCompute,
                "cpu_optimizer",
                kernel_time(&work_from_step(&geom_stats, false), &cpu, false),
                &[last_d2h_event],
            )
        };
        let _ = geom_event;

        // Non-geometric groups on the CPU: dense or deferred.
        let (cpu_stats, random_access) = if let Some(deferred) = self.cpu_deferred.as_mut() {
            (
                deferred.step_groups(&mut self.params, &merged, &ParamGroup::NON_GEOMETRIC),
                true,
            )
        } else {
            let dense = self.cpu_dense.as_mut().expect("dense optimizer present");
            let t = dense.advance();
            (
                dense.apply_groups_sparse(&mut self.params, &merged, &ParamGroup::NON_GEOMETRIC, t),
                false,
            )
        };
        let cpu_opt_time = kernel_time(&work_from_step(&cpu_stats, random_access), &cpu, false);
        if self.options.parameter_forwarding {
            // Pipelined: the CPU update runs concurrently with the GPU work of
            // this iteration (steady-state model of Figure 9c/9d). Only a
            // small "forwarding" slice — updating the staged subset — must
            // precede the H2D copy, which is already charged inside the H2D
            // latency, so the lazy update has no GPU-side dependents.
            sim.schedule(Stream::CpuCompute, "cpu_optimizer", cpu_opt_time, &[]);
        } else {
            // Serial: the CPU update follows the backward pass and the
            // gradient transfer back to host memory.
            sim.schedule(
                Stream::CpuCompute,
                "cpu_optimizer",
                cpu_opt_time,
                &[last_d2h_event],
            );
        }

        let mut breakdown = BTreeMap::new();
        sim.accumulate_breakdown(&mut breakdown);

        Ok(IterationStats {
            loss: total_loss,
            active_gaussians: active,
            total_gaussians: total,
            sim_time_s: sim.makespan(),
            phase_breakdown: breakdown,
            image_split: split,
            optimizer_updates: cpu_stats.updated_gaussians,
        })
    }

    fn flush(&mut self) {
        if let Some(deferred) = self.cpu_deferred.as_mut() {
            deferred.flush_groups(&mut self.params, &ParamGroup::NON_GEOMETRIC);
        }
    }

    fn densify_if_due(&mut self) -> Result<(usize, usize)> {
        if !self.config.densify.is_due(self.iteration) {
            return Ok((0, 0));
        }
        // Densification reads and rewrites the full parameter set, so any
        // deferred state must be committed first.
        self.flush();
        let report = densify(
            &mut self.params,
            &self.accum,
            &self.config.densify,
            self.scene_extent,
        );
        self.geom_optimizer.retain_mask(&report.keep_mask);
        self.geom_optimizer.append_zeros(report.appended);
        if let Some(dense) = self.cpu_dense.as_mut() {
            dense.retain_mask(&report.keep_mask);
            dense.append_zeros(report.appended);
        }
        if let Some(deferred) = self.cpu_deferred.as_mut() {
            deferred.retain_mask(&report.keep_mask);
            deferred.append_zeros(report.appended);
        }
        self.accum.reset(self.params.len());
        self.update_persistent_memory()?;
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
    use crate::gpu_only::GpuOnlyTrainer;
    use gs_core::math::Vec3;
    use gs_render::pipeline::render_image;

    fn tiny_scene() -> (GaussianParams, Camera, Image) {
        let mut gt = GaussianParams::new();
        gt.push_isotropic(Vec3::new(0.0, 0.0, 0.0), 0.5, [0.9, 0.3, 0.2], 0.9);
        gt.push_isotropic(Vec3::new(0.8, 0.4, 0.5), 0.4, [0.2, 0.8, 0.3], 0.85);
        gt.push_isotropic(Vec3::new(-0.6, -0.3, 0.3), 0.4, [0.3, 0.3, 0.9], 0.85);
        gt.push_isotropic(Vec3::new(300.0, 0.0, 40.0), 0.4, [0.5, 0.5, 0.5], 0.8); // far off-screen
        let cam = Camera::look_at(
            48,
            36,
            std::f32::consts::FRAC_PI_2,
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let target = render_image(&gt, &cam, 3, [0.05, 0.05, 0.08]);
        let mut init = gt.clone();
        for i in 0..init.len() {
            init.set_mean(i, init.mean(i) + Vec3::new(0.15, -0.1, 0.05));
            init.set_opacity_logit(i, init.opacity_logit(i) - 0.5);
        }
        (init, cam, target)
    }

    fn max_param_diff(a: &GaussianParams, b: &GaussianParams) -> f32 {
        let mut worst = 0.0f32;
        for g in ParamGroup::ALL {
            for (x, y) in a.group(g).iter().zip(b.group(g)) {
                worst = worst.max((x - y).abs());
            }
        }
        worst
    }

    /// FNV-1a over every parameter's bit pattern.
    fn param_fingerprint(p: &GaussianParams) -> u64 {
        ParamGroup::ALL
            .iter()
            .flat_map(|&g| p.group(g))
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Golden fingerprints of every trainer's parameters after 20 steps:
    /// any change to the renderer, the optimizers or the step composition
    /// that moves a single bit of the trained model shows up here (the
    /// baseline matches GPU-only bit for bit; deferral, flushed, matches
    /// its eager counterpart).
    #[test]
    fn trained_parameters_match_golden_fingerprints() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(20);
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut reference =
            GpuOnlyTrainer::new(cfg.clone(), platform.clone(), init.clone(), 10.0).unwrap();
        for _ in 0..20 {
            reference.step(&cam, &target).unwrap();
        }
        assert_eq!(param_fingerprint(reference.params()), 0x3d43_32be_4816_da2d);

        for (options, expected) in [
            (OffloadOptions::baseline(), 0x3d43_32be_4816_da2d_u64),
            (OffloadOptions::without_deferred(), 0xb377_e57e_e2f5_7daa),
            (OffloadOptions::full(), 0xb377_e57e_e2f5_7daa),
        ] {
            let mut trainer =
                OffloadTrainer::new(cfg.clone(), options, platform.clone(), init.clone(), 10.0)
                    .unwrap();
            for _ in 0..20 {
                trainer.step(&cam, &target).unwrap();
            }
            trainer.flush();
            assert_eq!(
                param_fingerprint(trainer.params()),
                expected,
                "{}",
                trainer.name()
            );
        }
    }

    #[test]
    fn all_offload_variants_match_gpu_only_training() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(20);
        let platform = PlatformSpec::laptop_rtx4070m();

        let mut reference =
            GpuOnlyTrainer::new(cfg.clone(), platform.clone(), init.clone(), 10.0).unwrap();
        for _ in 0..20 {
            reference.step(&cam, &target).unwrap();
        }

        for options in [
            OffloadOptions::baseline(),
            OffloadOptions::without_deferred(),
            OffloadOptions::full(),
        ] {
            let mut trainer =
                OffloadTrainer::new(cfg.clone(), options, platform.clone(), init.clone(), 10.0)
                    .unwrap();
            for _ in 0..20 {
                trainer.step(&cam, &target).unwrap();
            }
            trainer.flush();
            let diff = max_param_diff(reference.params(), trainer.params());
            assert!(
                diff < 2e-3,
                "{} diverged from GPU-only by {diff}",
                trainer.name()
            );
        }
    }

    #[test]
    fn offload_uses_less_gpu_memory_than_gpu_only() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(5);
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut gpu_only =
            GpuOnlyTrainer::new(cfg.clone(), platform.clone(), init.clone(), 10.0).unwrap();
        let mut offload =
            OffloadTrainer::new(cfg, OffloadOptions::full(), platform, init, 10.0).unwrap();
        for _ in 0..5 {
            gpu_only.step(&cam, &target).unwrap();
            offload.step(&cam, &target).unwrap();
        }
        // The scene is tiny so activations dominate both, but the offloading
        // trainer must never exceed the GPU-only peak.
        assert!(offload.peak_gpu_memory() <= gpu_only.peak_gpu_memory());
        assert!(offload.peak_host_memory() > 0);
    }

    #[test]
    fn deferred_update_touches_fewer_gaussians() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(5);
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut full = OffloadTrainer::new(
            cfg.clone(),
            OffloadOptions::full(),
            platform.clone(),
            init.clone(),
            10.0,
        )
        .unwrap();
        let mut baseline =
            OffloadTrainer::new(cfg, OffloadOptions::baseline(), platform, init, 10.0).unwrap();
        // The far-away Gaussian (index 3) never receives gradients, so the
        // deferred optimizer should touch fewer Gaussians than the dense one.
        let full_stats = full.step(&cam, &target).unwrap();
        let base_stats = baseline.step(&cam, &target).unwrap();
        assert!(full_stats.optimizer_updates < base_stats.optimizer_updates);
        assert_eq!(base_stats.optimizer_updates, 4);
    }

    #[test]
    fn parameter_forwarding_hides_the_cpu_optimizer() {
        // Identical configuration except the forwarding flag: with
        // forwarding, the CPU optimizer update no longer sits on the critical
        // path, so the simulated iteration time must be strictly shorter.
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(5);
        let platform = PlatformSpec::laptop_rtx4070m();
        let no_forwarding = OffloadOptions {
            selective_offloading: true,
            parameter_forwarding: false,
            deferred_update: true,
            image_splitting: true,
        };
        let mut serial = OffloadTrainer::new(
            cfg.clone(),
            no_forwarding,
            platform.clone(),
            init.clone(),
            10.0,
        )
        .unwrap();
        let mut pipelined =
            OffloadTrainer::new(cfg, OffloadOptions::full(), platform, init, 10.0).unwrap();
        let t_serial = serial.step(&cam, &target).unwrap().sim_time_s;
        let t_pipelined = pipelined.step(&cam, &target).unwrap().sim_time_s;
        assert!(
            t_pipelined < t_serial,
            "pipelined iteration ({t_pipelined}s) should be faster than serial ({t_serial}s)"
        );
    }

    #[test]
    fn image_splitting_triggers_on_demanding_views() {
        let (init, cam, target) = tiny_scene();
        // With mem_limit 0 every non-empty view exceeds the threshold.
        let cfg = TrainConfig::fast_test(5).with_mem_limit(0.0);
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut trainer =
            OffloadTrainer::new(cfg, OffloadOptions::full(), platform, init, 10.0).unwrap();
        let stats = trainer.step(&cam, &target).unwrap();
        assert!(stats.image_split);
    }

    #[test]
    fn image_splitting_preserves_training_results() {
        let (init, cam, target) = tiny_scene();
        let platform = PlatformSpec::laptop_rtx4070m();
        // Same options, but one trainer splits every view (mem_limit 0).
        let mut whole = OffloadTrainer::new(
            TrainConfig::fast_test(10),
            OffloadOptions::without_deferred(),
            platform.clone(),
            init.clone(),
            10.0,
        )
        .unwrap();
        let mut split = OffloadTrainer::new(
            TrainConfig::fast_test(10).with_mem_limit(0.0),
            OffloadOptions::without_deferred(),
            platform,
            init,
            10.0,
        )
        .unwrap();
        for _ in 0..10 {
            whole.step(&cam, &target).unwrap();
            split.step(&cam, &target).unwrap();
        }
        let diff = max_param_diff(whole.params(), split.params());
        assert!(diff < 1e-4, "splitting changed training results by {diff}");
    }

    #[test]
    fn a_step_that_runs_out_of_gpu_memory_leaves_no_charge_behind() {
        let (init, cam, target) = tiny_scene();
        let staged_bytes = 3 * GaussianParams::NON_GEOMETRIC_PARAMS as u64 * 4;
        let resident_bytes = init.len() as u64 * GaussianParams::GEOMETRIC_PARAMS as u64 * 4 * 3;
        // Room for the resident geometric state and the staged parameters of
        // the three visible Gaussians, but not for their gradients.
        let platform =
            PlatformSpec::laptop_rtx4070m().with_gpu_memory(resident_bytes + staged_bytes + 100);
        let mut trainer = OffloadTrainer::new(
            TrainConfig::fast_test(5),
            OffloadOptions::full(),
            platform,
            init,
            10.0,
        )
        .unwrap();
        assert_eq!(trainer.gpu_pool.used_total(), resident_bytes);
        for _ in 0..2 {
            assert!(trainer.step(&cam, &target).unwrap_err().is_oom());
            assert_eq!(trainer.gpu_pool.used_total(), resident_bytes);
        }
    }

    #[test]
    fn selective_offloading_keeps_geometric_state_on_gpu() {
        let (init, _cam, _target) = tiny_scene();
        let cfg = TrainConfig::fast_test(5);
        let platform = PlatformSpec::laptop_rtx4070m();
        let with_sel = OffloadTrainer::new(
            cfg.clone(),
            OffloadOptions::full(),
            platform.clone(),
            init.clone(),
            10.0,
        )
        .unwrap();
        let without_sel =
            OffloadTrainer::new(cfg, OffloadOptions::baseline(), platform, init, 10.0).unwrap();
        let geom = with_sel
            .peak_gpu_breakdown()
            .iter()
            .find(|(c, _)| *c == MemoryCategory::GeometricParameters)
            .map(|(_, b)| *b)
            .unwrap_or(0);
        assert!(geom > 0);
        let geom_baseline = without_sel
            .peak_gpu_breakdown()
            .iter()
            .find(|(c, _)| *c == MemoryCategory::GeometricParameters)
            .map(|(_, b)| *b)
            .unwrap_or(0);
        assert_eq!(geom_baseline, 0);
    }

    #[test]
    fn system_names_match_figure_11_legend() {
        assert_eq!(
            OffloadOptions::baseline().system_name(),
            "Baseline GS-Scale"
        );
        assert_eq!(
            OffloadOptions::without_deferred().system_name(),
            "GS-Scale (w/o Deferred Adam)"
        );
        assert_eq!(
            OffloadOptions::full().system_name(),
            "GS-Scale (all optimizations)"
        );
        assert_eq!(
            OffloadOptions::for_system(SystemKind::GsScale),
            OffloadOptions::full()
        );
    }
}
