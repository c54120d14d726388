//! The one training step behind all four systems of the paper's evaluation:
//! the baseline offloading system, GS-Scale with any subset of the paper's
//! optimizations, and GPU-only.
//!
//! Under offloading, all Gaussian parameters and optimizer states live in
//! host memory; only the subset needed by the current view is staged on the
//! GPU. GPU-only is the same step with the baseline options and every buffer
//! resident on the GPU ([`OffloadTrainer::for_system`]). Where the buffers
//! live is a private placement derived from the system; it decides what the
//! step charges to GPU memory and which timeline events it schedules, never
//! the arithmetic. The placement and its byte charges live in
//! [`crate::memory_model`], whose [`crate::estimate_gpu_memory`] evaluates
//! the same charges at paper scale. The [`OffloadOptions`] flags select the
//! paper's optimizations:
//!
//! * **selective offloading** — geometric attributes (and their optimizer
//!   state) stay resident on the GPU, so frustum culling and the
//!   mean/scale/quaternion update run there;
//! * **parameter forwarding** — the CPU optimizer update of one iteration
//!   overlaps the GPU forward/backward of the next, modelled by removing the
//!   GPU-on-CPU dependency in the iteration timeline;
//! * **deferred optimizer update** — the host optimizer skips Gaussians with
//!   zero gradients and restores them from a defer counter when needed;
//! * **image splitting** — a view whose active ratio exceeds `mem_limit` is
//!   modelled as two passes over balanced sub-viewports; like the placement,
//!   it decides what the step charges and schedules, never the arithmetic.
//!
//! # What is exact
//!
//! Bit-exact, with the test that pins each:
//!
//! * the GPU-only and baseline placements, selective offloading and
//!   parameter forwarding: the same loss and parameter bits after every
//!   step, with and without densification
//!   (`placements_and_schedules_train_bit_identically_in_lockstep`, and the
//!   fingerprints in `trained_parameters_match_golden_fingerprints`);
//! * the deferred update: the same loss bits after every step and the same
//!   parameter bits after every densification and flush, against GPU-only
//!   and against GS-Scale without it, on runs that defer most Gaussians
//!   (the same lockstep test); deferred Adam equals dense Adam in
//!   parameters and both moments (`gs-optim`'s
//!   `deferred_is_bit_identical_to_dense_adam_under_random_activity`, and
//!   `deferred_adam_tracks_dense_adam` in `tests/property_invariants.rs`);
//! * sparse vs dense Adam: reading the packed gradients in place equals
//!   expanding them first (`gs-optim`'s
//!   `sparse_entry_is_bit_identical_to_the_densified_call`, and
//!   `offload_step_is_bit_identical_to_the_densified_reference_step` in
//!   `tests/end_to_end.rs`);
//! * image splitting: the same loss and parameter bits as GPU-only (the
//!   same lockstep test, and `image_splitting_preserves_training_results`);
//!   each pass's work is that of rendering its half's cull (`gs-render`'s
//!   `stats_within_a_sub_viewport_match_rendering_its_cull`, and the
//!   reference step in `tests/end_to_end.rs`).
//!
//! # Host-side cost of one step
//!
//! With `N` Gaussians of which `A` are in the view, the real (not modelled)
//! work of [`OffloadTrainer::step`] around the forward/backward pass is:
//!
//! * **O(A)** — staging (`gather` / `peek_restored`), a split step's
//!   search over the cull's ids and its halves' work counters, adding
//!   gradient norms to the densification accumulator, the deferred Adam
//!   update of the touched Gaussians, and setting and resetting the
//!   optimizers' id → row tables. The gradients stay packed over the active
//!   set from the backward pass to the optimizers; no `N`-sized gradient
//!   container or id list is built.
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
use gs_core::gaussian::{GaussianParams, ParamGroup};
use gs_core::image::Image;
use gs_optim::{DeferredAdam, DenseAdam};
use gs_platform::{
    kernel_time, MemoryCategory, MemoryPool, PlatformSpec, Stream, TimelineSim, TransferModel,
};
use gs_render::cost as render_cost;
use gs_render::culling::{frustum_cull, gaussian_in_frustum};
use gs_render::loss::loss_and_grad;
use gs_render::pipeline::{render, render_backward, to_sparse_grads};

use crate::config::TrainConfig;
use crate::densify::{densify, DensifyAccumulator};
use crate::memory_model::{Placement, SystemKind};
use crate::splitting::balanced_split;
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
    /// Model demanding views as two balanced sub-view passes (Section 4.4).
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

    /// The options corresponding to a [`SystemKind`]. GPU-only runs none of
    /// the optimizations: it differs from the baseline only in placement.
    pub fn for_system(kind: SystemKind) -> Self {
        match kind {
            SystemKind::GpuOnly | SystemKind::BaselineOffload => Self::baseline(),
            SystemKind::GsScaleNoDeferred => Self::without_deferred(),
            SystemKind::GsScale => Self::full(),
        }
    }

    /// Display name matching the paper's legend.
    pub fn system_name(&self) -> &'static str {
        let system = if self.deferred_update {
            SystemKind::GsScale
        } else if self.selective_offloading || self.parameter_forwarding {
            SystemKind::GsScaleNoDeferred
        } else {
            SystemKind::BaselineOffload
        };
        system.name()
    }
}

/// The trainer behind every system (see module docs).
#[derive(Debug)]
pub struct OffloadTrainer {
    config: TrainConfig,
    options: OffloadOptions,
    placement: Placement,
    platform: PlatformSpec,
    /// Host-authoritative parameters. Non-geometric values of deferred
    /// Gaussians are intentionally stale between commits.
    params: GaussianParams,
    /// Dense Adam: the geometric groups always (on the GPU unless the
    /// placement is `Host`), the non-geometric groups unless the deferred
    /// update is on.
    dense: DenseAdam,
    /// Deferred Adam for the non-geometric groups.
    deferred: Option<DeferredAdam>,
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
        init: GaussianParams,
        extent: f32,
    ) -> Result<Self> {
        let placement = Placement::offloaded(&options);
        Self::placed(config, options, placement, platform, init, extent)
    }

    /// Creates the trainer for one of the four systems of the paper's
    /// evaluation: [`OffloadOptions::for_system`], placed as the system
    /// places its buffers. GPU-only is the baseline options with every
    /// buffer, gradients included, resident on the GPU.
    ///
    /// # Errors
    ///
    /// Returns an out-of-memory error if the system's resident state does
    /// not fit the platform's memories.
    pub fn for_system(
        kind: SystemKind,
        config: TrainConfig,
        platform: PlatformSpec,
        init: GaussianParams,
        extent: f32,
    ) -> Result<Self> {
        let options = OffloadOptions::for_system(kind);
        let placement = Placement::for_system(kind);
        Self::placed(config, options, placement, platform, init, extent)
    }

    fn placed(
        config: TrainConfig,
        options: OffloadOptions,
        placement: Placement,
        platform: PlatformSpec,
        init: GaussianParams,
        scene_extent: f32,
    ) -> Result<Self> {
        let n = init.len();
        let gpu_pool = MemoryPool::new("gpu", platform.gpu.mem_capacity);
        let host_pool = MemoryPool::new("host", platform.cpu.mem_capacity);
        let transfer = TransferModel::new(platform.pcie_bandwidth);
        let dense = DenseAdam::new(config.adam, n);
        let deferred = options
            .deferred_update
            .then(|| DeferredAdam::new(config.adam, n));
        let mut trainer = Self {
            config,
            options,
            placement,
            platform,
            params: init,
            dense,
            deferred,
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
        let n = self.params.len();
        for (category, bytes) in self.placement.persistent_host(n, self.deferred.is_some()) {
            self.host_pool.set(category, bytes)?;
        }
        for (category, bytes) in self.placement.persistent_gpu(n) {
            self.gpu_pool.set(category, bytes)?;
        }
        Ok(())
    }

    /// Stages the parameters of the listed Gaussians for the GPU forward
    /// pass, restoring deferred values where necessary.
    fn stage_params(&self, ids: &[u32]) -> GaussianParams {
        match &self.deferred {
            Some(deferred) => deferred.peek_restored(&self.params, ids, &ParamGroup::NON_GEOMETRIC),
            None => self.params.gather(ids),
        }
    }

    /// One training step; [`Trainer::step`] checks the GPU pool after it.
    fn train_step(&mut self, cam: &Camera, target: &Image) -> Result<IterationStats> {
        self.iteration += 1;
        let total = self.params.len();
        let full_vp = Viewport::full(cam);

        let (gpu, cpu) = (self.platform.gpu, self.platform.cpu);
        let mut sim = TimelineSim::new();

        // ---- 1. Frustum culling over all Gaussians --------------------------
        let cull = frustum_cull(&self.params, cam, &full_vp);
        let active = cull.num_active();
        let (cull_stream, cull_label, cull_time) = if self.placement == Placement::Host {
            // Eager-mode tensor ops on the CPU: each projection intermediate
            // materializes, so the traffic is many passes over the tensors.
            let work = work_from_estimate(&render_cost::cull_cost_cpu_eager(total, active));
            let time = kernel_time(&work, &cpu, false);
            (Stream::CpuCompute, "cpu_frustum_cull", time)
        } else {
            // Fused culling kernel over the GPU-resident geometric attributes.
            let work = work_from_estimate(&render_cost::cull_cost(total, active));
            let time = kernel_time(&work, &gpu, true);
            (Stream::GpuCompute, "frustum_cull", time)
        };
        let cull_event = sim.schedule(cull_stream, cull_label, cull_time, &[]);

        // ---- 2. Forward/backward over the whole view -------------------------
        let staged = self.stage_params(&cull.ids);
        let sh_degree = self.config.sh_degree;
        let output = render(&staged, cam, sh_degree, &full_vp, self.config.background);
        let (loss, d_image) = loss_and_grad(self.config.loss, &output.image, target);
        let grads = render_backward(&staged, cam, sh_degree, &output, &d_image);
        let grads = to_sparse_grads(&cull.ids, grads);

        // ---- 3. Modelled passes ---------------------------------------------
        // A view whose active ratio exceeds `mem_limit` (and that has a
        // column to split at) is modelled as two balanced passes, each
        // staging its half's cull and doing the work of rendering it.
        let split = self.options.image_splitting
            && cull.active_ratio() > self.config.mem_limit
            && cam.width >= 2;
        let passes = if split {
            let (left, right) = balanced_split(&self.params, cam, &cull.ids).viewports(cam);
            let within = |half: Viewport| {
                output.stats_within(&half, |k| {
                    gaussian_in_frustum(&self.params, cull.ids[k] as usize, cam, &half)
                })
            };
            vec![within(left), within(right)]
        } else {
            vec![output.stats]
        };
        let (mut last_gpu_event, mut last_d2h_event) = (cull_event, cull_event);
        let transfers = self.placement.transfers();
        for stats in passes {
            // Transient GPU memory for this pass. All or nothing: a view that
            // does not fit must leave no charge behind for the steps after it.
            let transient = self
                .placement
                .transient_gpu(stats.num_input, stats.num_pixels);
            let [(_, staged_param_bytes), (_, grad_bytes), _] = transient;
            self.gpu_pool.alloc_all(&transient)?;

            // Timeline: H2D staging (chunked), forward/backward, D2H grads.
            // Under parameter forwarding the H2D copy does not wait for the
            // (lazy) CPU optimizer; in the baseline it must wait for the full
            // CPU update, which is modelled by the optimizer event being
            // scheduled before the next iteration starts (serial CPU stream).
            // With everything resident nothing transfers, and the pass waits
            // only for the cull.
            let staged_event = if transfers {
                let h2d_time = self.transfer.chunked_transfer_time(staged_param_bytes);
                sim.schedule(Stream::HostToDevice, "h2d_params", h2d_time, &[cull_event])
            } else {
                cull_event
            };
            let fwd_work = work_from_estimate(&stats.forward_work());
            let bwd_work = work_from_estimate(&stats.backward_work());
            let fwd = sim.schedule(
                Stream::GpuCompute,
                "gpu_fwd_bwd",
                kernel_time(&fwd_work, &gpu, true) + kernel_time(&bwd_work, &gpu, true),
                &[staged_event, last_gpu_event],
            );
            if transfers {
                let d2h_time = self.transfer.transfer_time(grad_bytes);
                last_d2h_event = sim.schedule(Stream::DeviceToHost, "d2h_grads", d2h_time, &[fwd]);
            }
            last_gpu_event = fwd;

            for (category, bytes) in transient {
                self.gpu_pool.free(category, bytes);
            }
        }

        // ---- 4. Densification statistics ------------------------------------
        // Statistics are recorded over the full index space so every system
        // makes the same densification decisions and the trained models stay
        // comparable. The gradients stay sparse: Gaussians outside the view
        // add a zero norm.
        self.accum.record_sparse(&grads);

        // ---- 5. Optimizer updates -------------------------------------------
        // Geometric groups: dense Adam over every Gaussian, reading the
        // sparse gradients in place.
        let t = self.dense.advance();
        let params = &mut self.params;
        let geom_stats = self
            .dense
            .apply_groups_sparse(params, &grads, &ParamGroup::GEOMETRIC, t);

        // Non-geometric groups: deferred, or the same dense Adam at the same
        // step.
        let (cpu_stats, random_access) = match self.deferred.as_mut() {
            Some(deferred) => (
                deferred.step_groups(params, &grads, &ParamGroup::NON_GEOMETRIC),
                true,
            ),
            None => (
                self.dense
                    .apply_groups_sparse(params, &grads, &ParamGroup::NON_GEOMETRIC, t),
                false,
            ),
        };
        // Geometric state on the host can only be updated after the gradients
        // have been copied back; on the GPU its update follows the backward
        // pass directly. With everything resident, one GPU optimizer updates
        // all 59 columns.
        let (label, after, geom_stats) = match self.placement {
            Placement::Host => ("cpu_optimizer", last_d2h_event, geom_stats),
            Placement::GeometricResident => ("msq_optimizer", last_gpu_event, geom_stats),
            Placement::AllResident => ("optimizer", last_gpu_event, geom_stats.combine(&cpu_stats)),
        };
        let geom_work = work_from_step(&geom_stats, false);
        if self.placement == Placement::Host {
            let time = kernel_time(&geom_work, &cpu, false);
            sim.schedule(Stream::CpuCompute, label, time, &[after]);
        } else {
            let time = kernel_time(&geom_work, &gpu, true);
            sim.schedule(Stream::GpuCompute, label, time, &[after]);
        }
        if transfers {
            let cpu_opt_time = kernel_time(&work_from_step(&cpu_stats, random_access), &cpu, false);
            // Pipelined under parameter forwarding: the CPU update runs
            // concurrently with the GPU work of this iteration (steady-state
            // model of Figure 9c/9d). Only a small "forwarding" slice —
            // updating the staged subset — must precede the H2D copy, which
            // is already charged inside the H2D latency, so the lazy update
            // has no GPU-side dependents. Serial otherwise: the CPU update
            // follows the backward pass and the gradient transfer back to
            // host memory.
            let deps = (!self.options.parameter_forwarding).then_some(last_d2h_event);
            sim.schedule(
                Stream::CpuCompute,
                "cpu_optimizer",
                cpu_opt_time,
                deps.as_slice(),
            );
        }

        let mut breakdown = BTreeMap::new();
        sim.accumulate_breakdown(&mut breakdown);

        Ok(IterationStats {
            loss,
            active_gaussians: active,
            total_gaussians: total,
            sim_time_s: sim.makespan(),
            phase_breakdown: breakdown,
            image_split: split,
            optimizer_updates: cpu_stats.updated_gaussians,
        })
    }
}

impl Trainer for OffloadTrainer {
    fn name(&self) -> &str {
        if self.placement == Placement::AllResident {
            SystemKind::GpuOnly.name()
        } else {
            self.options.system_name()
        }
    }

    fn params(&self) -> &GaussianParams {
        &self.params
    }

    fn step(&mut self, cam: &Camera, target: &Image) -> Result<IterationStats> {
        let stats = self.train_step(cam, target);
        // Whether the step succeeded or ran out of memory, it released every
        // transient charge: the GPU holds exactly what the placement keeps.
        let persistent = self.placement.persistent_gpu(self.params.len());
        debug_assert_eq!(
            self.gpu_pool.used_total(),
            persistent.iter().map(|&(_, bytes)| bytes).sum::<u64>(),
            "GPU memory left charged after step {}",
            self.iteration
        );
        stats
    }

    fn flush(&mut self) {
        if let Some(deferred) = self.deferred.as_mut() {
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
        self.dense.retain_mask(&report.keep_mask);
        self.dense.append_zeros(report.appended);
        if let Some(deferred) = self.deferred.as_mut() {
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
    use crate::densify::DensifyConfig;
    use crate::gpu_only::GpuOnlyTrainer;
    use gs_core::math::Vec3;
    use gs_core::scene::init_gaussians_from_point_cloud;
    use gs_render::pipeline::render_image;
    use gs_scene::{SceneConfig, SceneDataset};

    /// Steps `a` and `b` together over `views`, densifying each when due,
    /// and returns `b`'s per-step statistics if both agree bit for bit, or
    /// else where they first differ: the iteration, then the loss, the
    /// Gaussian count, or the first Gaussian and parameter group/column whose
    /// bits differ. The loss is compared after every step, the parameters
    /// after each step where `compare_params(iteration)` holds and after a
    /// final flush. A deferring trainer's stored values are stale between
    /// flushes, so its parameters can only be compared after one.
    fn lockstep(
        a: &mut dyn Trainer,
        b: &mut dyn Trainer,
        views: &[(Camera, Image)],
        steps: usize,
        compare_params: impl Fn(usize) -> bool,
    ) -> std::result::Result<Vec<IterationStats>, String> {
        let mut stats = Vec::with_capacity(steps);
        for iteration in 1..=steps {
            let (cam, target) = &views[(iteration - 1) % views.len()];
            let loss_a = a.step(cam, target).unwrap().loss;
            let step_b = b.step(cam, target).unwrap();
            if loss_a.to_bits() != step_b.loss.to_bits() {
                let loss_b = step_b.loss;
                return Err(format!("iteration {iteration}: loss {loss_a} vs {loss_b}"));
            }
            stats.push(step_b);
            a.densify_if_due().unwrap();
            b.densify_if_due().unwrap();
            if compare_params(iteration) {
                same_params(a.params(), b.params())
                    .map_err(|at| format!("iteration {iteration}: {at}"))?;
            }
        }
        a.flush();
        b.flush();
        same_params(a.params(), b.params()).map_err(|at| format!("after the final flush: {at}"))?;
        Ok(stats)
    }

    /// Where two parameter sets first differ: the Gaussian count, or the
    /// first Gaussian and parameter group/column whose bits differ.
    fn same_params(a: &GaussianParams, b: &GaussianParams) -> std::result::Result<(), String> {
        if a.len() != b.len() {
            return Err(format!("{} vs {} Gaussians", a.len(), b.len()));
        }
        for i in 0..a.len() {
            for g in ParamGroup::ALL {
                let dim = g.dim();
                for column in 0..dim {
                    let (x, y) = (a.group(g)[i * dim + column], b.group(g)[i * dim + column]);
                    if x.to_bits() != y.to_bits() {
                        return Err(format!("Gaussian {i}, {g:?} column {column}: {x} vs {y}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// GPU-only against the baseline, against selective offloading with
    /// parameter forwarding, against that plus the deferred update (no
    /// splitting in any of them), and against GS-Scale with and without the
    /// deferred update (both splitting). The same loss bits after every
    /// step, and the same parameter bits after every step — or, when one
    /// side defers, after every densification and after a final flush —
    /// over seeds × active ratio × densification on/off. Four seeds in debug
    /// builds, sixteen in release. The deferring runs must really defer: on
    /// some step the host optimizer updates at most half the Gaussians. The
    /// splitting runs must really split at active ratios 0.55 and 0.9, which
    /// exceed the default `mem_limit` of 0.3.
    #[test]
    fn placements_and_schedules_train_bit_identically_in_lockstep() {
        const STEPS: usize = 12;
        let seeds = if cfg!(debug_assertions) { 4 } else { 16 };
        let platform = PlatformSpec::laptop_rtx4070m();
        let resident_pipelined = OffloadOptions {
            selective_offloading: true,
            parameter_forwarding: true,
            ..OffloadOptions::baseline()
        };
        let deferring = OffloadOptions {
            deferred_update: true,
            ..resident_pipelined
        };
        for seed in 0..seeds {
            for active_ratio in [0.15, 0.55, 0.9] {
                let scene = SceneDataset::generate(SceneConfig {
                    name: "lockstep".to_string(),
                    num_gaussians: 450,
                    init_points: 150,
                    width: 48,
                    height: 36,
                    num_train_views: 8,
                    num_test_views: 1,
                    target_active_ratio: active_ratio,
                    extent: 60.0,
                    far_view_fraction: 0.1,
                    seed: 40 + seed,
                });
                let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
                let extent = scene.scene_extent();
                let views: Vec<(Camera, Image)> = scene
                    .train_cameras
                    .iter()
                    .map(|cam| (cam.clone(), scene.ground_truth(cam)))
                    .collect();
                for densifying in [false, true] {
                    let mut config = TrainConfig::fast_test(STEPS);
                    if densifying {
                        config.densify = DensifyConfig {
                            start_iteration: 5,
                            stop_iteration: 11,
                            interval: 5,
                            grad_threshold: 1.0e-7,
                            split_scale_fraction: 0.02,
                            prune_opacity: 0.005,
                            max_gaussians: 0,
                        };
                    }
                    for options in [
                        OffloadOptions::baseline(),
                        resident_pipelined,
                        deferring,
                        OffloadOptions::without_deferred(),
                        OffloadOptions::full(),
                    ] {
                        let (c, i) = (config.clone(), init.clone());
                        let mut reference =
                            GpuOnlyTrainer::new(c, platform.clone(), i, extent).unwrap();
                        let (c, i) = (config.clone(), init.clone());
                        let mut other =
                            OffloadTrainer::new(c, options, platform.clone(), i, extent).unwrap();
                        let case = format!(
                            "{} vs {options:?}, seed {seed}, active ratio {active_ratio}, \
                             densify {densifying}",
                            reference.name()
                        );
                        let compare_params = |iteration| {
                            !options.deferred_update || config.densify.is_due(iteration)
                        };
                        let stats =
                            lockstep(&mut reference, &mut other, &views, STEPS, compare_params)
                                .unwrap_or_else(|at| panic!("{case}: diverged at {at}"));
                        assert_eq!(
                            reference.num_gaussians() != init.len(),
                            densifying,
                            "{case}"
                        );
                        if options.deferred_update {
                            let defers =
                                |s: &IterationStats| s.optimizer_updates <= s.total_gaussians / 2;
                            assert!(
                                stats.iter().any(defers),
                                "{case}: never deferred half the rows"
                            );
                        }
                        if options.image_splitting && active_ratio > config.mem_limit {
                            assert!(stats.iter().any(|s| s.image_split), "{case}: never split");
                        }
                    }
                }
            }
        }
    }

    /// A `width` × 36 camera at (0, 0, -4) looking at the origin.
    fn camera_at_origin(width: usize) -> Camera {
        let up = Vec3::new(0.0, 1.0, 0.0);
        let eye = Vec3::new(0.0, 0.0, -4.0);
        Camera::look_at(width, 36, std::f32::consts::FRAC_PI_2, eye, Vec3::ZERO, up)
    }

    fn tiny_scene() -> (GaussianParams, Camera, Image) {
        let mut gt = GaussianParams::new();
        gt.push_isotropic(Vec3::new(0.0, 0.0, 0.0), 0.5, [0.9, 0.3, 0.2], 0.9);
        gt.push_isotropic(Vec3::new(0.8, 0.4, 0.5), 0.4, [0.2, 0.8, 0.3], 0.85);
        gt.push_isotropic(Vec3::new(-0.6, -0.3, 0.3), 0.4, [0.3, 0.3, 0.9], 0.85);
        gt.push_isotropic(Vec3::new(300.0, 0.0, 40.0), 0.4, [0.5, 0.5, 0.5], 0.8); // far off-screen
        let cam = camera_at_origin(48);
        let target = render_image(&gt, &cam, 3, [0.05, 0.05, 0.08]);
        let mut init = gt.clone();
        for i in 0..init.len() {
            init.set_mean(i, init.mean(i) + Vec3::new(0.15, -0.1, 0.05));
            init.set_opacity_logit(i, init.opacity_logit(i) - 0.5);
        }
        (init, cam, target)
    }

    fn max_param_diff(a: &GaussianParams, b: &GaussianParams) -> f32 {
        ParamGroup::ALL
            .iter()
            .flat_map(|&g| a.group(g).iter().zip(b.group(g)))
            .fold(0.0, |worst, (x, y)| worst.max((x - y).abs()))
    }

    /// A trainer with `options` from `init` on the laptop platform.
    fn laptop_trainer(
        config: TrainConfig,
        options: OffloadOptions,
        init: &GaussianParams,
    ) -> OffloadTrainer {
        let platform = PlatformSpec::laptop_rtx4070m();
        OffloadTrainer::new(config, options, platform, init.clone(), 10.0).unwrap()
    }

    /// FNV-1a over a byte stream.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a over every parameter's bit pattern.
    fn param_fingerprint(p: &GaussianParams) -> u64 {
        fnv1a(
            ParamGroup::ALL
                .iter()
                .flat_map(|&g| p.group(g))
                .flat_map(|v| v.to_bits().to_le_bytes()),
        )
    }

    /// FNV-1a over every field of a run's per-step statistics: loss and
    /// modelled time bits, each phase label and its time bits, and the
    /// counters.
    fn stats_fingerprint(steps: &[IterationStats]) -> u64 {
        let mut bytes = Vec::new();
        for s in steps {
            bytes.extend(s.loss.to_bits().to_le_bytes());
            bytes.extend(s.sim_time_s.to_bits().to_le_bytes());
            for (label, secs) in &s.phase_breakdown {
                bytes.extend(label.bytes());
                bytes.extend(secs.to_bits().to_le_bytes());
            }
            for count in [s.active_gaussians, s.total_gaussians, s.optimizer_updates] {
                bytes.extend((count as u64).to_le_bytes());
            }
            bytes.push(u8::from(s.image_split));
        }
        fnv1a(bytes)
    }

    /// GPU-only's modelled outputs, pinned: 20 steps on `tiny_scene` with
    /// one densification pass (at iteration 10). Every step's statistics,
    /// the phase labels (no transfer or host-optimizer phases) and the peak
    /// GPU memory and its breakdown must not move.
    #[test]
    fn gpu_only_iteration_stats_and_peak_memory_match_golden() {
        let (init, cam, target) = tiny_scene();
        let mut cfg = TrainConfig::fast_test(20);
        cfg.densify = crate::densify::DensifyConfig {
            start_iteration: 10,
            stop_iteration: 11,
            interval: 10,
            grad_threshold: 0.0,
            split_scale_fraction: 0.5,
            prune_opacity: 0.0,
            max_gaussians: 0,
        };
        let mut trainer =
            GpuOnlyTrainer::new(cfg, PlatformSpec::laptop_rtx4070m(), init, 10.0).unwrap();
        let mut steps = Vec::new();
        let mut densified = Vec::new();
        for _ in 0..20 {
            steps.push(trainer.step(&cam, &target).unwrap());
            densified.push(trainer.densify_if_due().unwrap());
        }
        assert_eq!(densified.iter().filter(|&&d| d != (0, 0)).count(), 1);
        assert!(trainer.num_gaussians() > 4);
        for s in &steps {
            let labels: Vec<&str> = s.phase_breakdown.keys().map(String::as_str).collect();
            assert_eq!(labels, ["frustum_cull", "gpu_fwd_bwd", "optimizer"]);
        }
        assert_eq!(stats_fingerprint(&steps), 0x61c4_3000_b782_ff6c);
        // Seven Gaussians after densifying: 7 × 59 × 4 bytes of parameters
        // and of gradients, twice that of Adam state, plus the activations
        // of a 48 × 36 view over six active Gaussians.
        assert_eq!(trainer.peak_gpu_memory(), 1_907_696);
        assert_eq!(
            trainer.peak_gpu_breakdown(),
            [
                (MemoryCategory::Parameters, 1652),
                (MemoryCategory::GeometricParameters, 0),
                (MemoryCategory::Gradients, 1652),
                (MemoryCategory::OptimizerState, 3304),
                (MemoryCategory::Activations, 1_901_088),
                (MemoryCategory::Other, 0),
            ]
        );
    }

    /// Each system's parameters after 20 steps on `tiny_scene`, flushed,
    /// in the order of `SystemKind::ALL` (GPU-only last).
    fn trained_for_20_steps() -> [(SystemKind, GaussianParams); 4] {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(20);
        let platform = PlatformSpec::laptop_rtx4070m();
        SystemKind::ALL.map(|kind| {
            let (cfg, platform, init) = (cfg.clone(), platform.clone(), init.clone());
            let mut trainer = OffloadTrainer::for_system(kind, cfg, platform, init, 10.0).unwrap();
            for _ in 0..20 {
                trainer.step(&cam, &target).unwrap();
            }
            trainer.flush();
            (kind, trainer.params().clone())
        })
    }

    #[test]
    fn all_offload_variants_match_gpu_only_training() {
        let trained = trained_for_20_steps();
        let ((last, reference), offload) = trained.split_last().unwrap();
        assert_eq!(*last, SystemKind::GpuOnly);
        for (kind, params) in offload {
            let diff = max_param_diff(reference, params);
            assert!(diff < 2e-3, "{kind:?} diverged from GPU-only by {diff}");
        }
    }

    /// Golden fingerprint of every trainer's parameters after 20 steps: any
    /// change to the renderer, the optimizers or the step composition that
    /// moves a single bit of the trained model shows up here (the baseline
    /// matches GPU-only bit for bit; deferral, flushed, matches its eager
    /// counterpart).
    #[test]
    fn trained_parameters_match_golden_fingerprints() {
        for (kind, params) in trained_for_20_steps() {
            let fingerprint = param_fingerprint(&params);
            assert_eq!(fingerprint, 0x3d43_32be_4816_da2d, "{kind:?}");
        }
    }

    /// The paper-scale estimate evaluates the trainer's own charges: one
    /// unsplit step of each system peaks at exactly the estimate for its
    /// Gaussian count, active ratio and pixel count. Three of the four
    /// Gaussians are in view, so the ratio 0.75 round-trips exactly.
    #[test]
    fn one_step_peaks_at_the_paper_scale_estimate() {
        let (init, cam, target) = tiny_scene();
        for kind in SystemKind::ALL {
            let cfg = TrainConfig::fast_test(1).with_mem_limit(1.0);
            let platform = PlatformSpec::laptop_rtx4070m();
            let mut trainer =
                OffloadTrainer::for_system(kind, cfg, platform, init.clone(), 10.0).unwrap();
            let stats = trainer.step(&cam, &target).unwrap();
            assert!(!stats.image_split, "{kind:?}");
            let (active, n) = (stats.active_gaussians, stats.total_gaussians);
            assert_eq!((active, n), (3, 4));
            let ratio = active as f64 / n as f64;
            let pixels = cam.width * cam.height;
            let estimate = crate::estimate_gpu_memory(kind, n, ratio, pixels, 1.0);
            assert_eq!(trainer.peak_gpu_memory(), estimate.total(), "{kind:?}");
        }
    }

    #[test]
    fn offload_uses_less_gpu_memory_than_gpu_only() {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(5);
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut gpu_only = GpuOnlyTrainer::new(cfg.clone(), platform, init.clone(), 10.0).unwrap();
        let mut offload = laptop_trainer(cfg, OffloadOptions::full(), &init);
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
        let mut full = laptop_trainer(cfg.clone(), OffloadOptions::full(), &init);
        let mut baseline = laptop_trainer(cfg, OffloadOptions::baseline(), &init);
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
        let no_forwarding = OffloadOptions {
            parameter_forwarding: false,
            ..OffloadOptions::full()
        };
        let mut serial = laptop_trainer(cfg.clone(), no_forwarding, &init);
        let mut pipelined = laptop_trainer(cfg, OffloadOptions::full(), &init);
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
        let mut trainer = laptop_trainer(cfg, OffloadOptions::full(), &init);
        let stats = trainer.step(&cam, &target).unwrap();
        assert!(stats.image_split);
    }

    #[test]
    fn image_splitting_preserves_training_results() {
        let (init, cam, target) = tiny_scene();
        // Same options, but one trainer never splits (mem_limit 1) and the
        // other splits every view (mem_limit 0).
        let trainer = |mem_limit| {
            let cfg = TrainConfig::fast_test(10).with_mem_limit(mem_limit);
            laptop_trainer(cfg, OffloadOptions::without_deferred(), &init)
        };
        let (mut whole, mut split) = (trainer(1.0), trainer(0.0));
        for _ in 0..10 {
            assert!(!whole.step(&cam, &target).unwrap().image_split);
            assert!(split.step(&cam, &target).unwrap().image_split);
        }
        same_params(whole.params(), split.params()).unwrap();
    }

    #[test]
    fn a_view_too_narrow_to_split_trains_unsplit() {
        let (init, _, _) = tiny_scene();
        let cam = camera_at_origin(1);
        let target = Image::filled(1, 36, [0.5; 3]);
        let cfg = TrainConfig::fast_test(1).with_mem_limit(0.0);
        let mut trainer = laptop_trainer(cfg, OffloadOptions::full(), &init);
        let stats = trainer.step(&cam, &target).unwrap();
        assert!(stats.active_gaussians > 0);
        assert!(!stats.image_split);
    }

    #[test]
    fn a_step_that_runs_out_of_gpu_memory_leaves_no_charge_behind() {
        let (init, cam, target) = tiny_scene();
        // Room for the four Gaussians' resident geometric state (10 columns
        // and their two Adam moments: 120 bytes each) and the 49 staged
        // columns of the three visible ones (196 bytes each), but not for
        // their gradients.
        let (resident_bytes, staged_bytes) = (4 * 120, 3 * 196);
        let platform =
            PlatformSpec::laptop_rtx4070m().with_gpu_memory(resident_bytes + staged_bytes + 100);
        let mut trainer = OffloadTrainer::new(
            TrainConfig::fast_test(5),
            OffloadOptions::full(),
            platform,
            init.clone(),
            10.0,
        )
        .unwrap();
        assert_eq!(trainer.gpu_pool.used_total(), resident_bytes);
        for _ in 0..2 {
            assert!(trainer.step(&cam, &target).unwrap_err().is_oom());
            assert_eq!(trainer.gpu_pool.used_total(), resident_bytes);
        }

        // All resident (GPU-only): room for every Gaussian's parameters (236
        // bytes), gradients (as many) and Adam state (twice that), but not
        // for the view's activations.
        let all_resident = 4 * 4 * 236;
        let platform = PlatformSpec::laptop_rtx4070m().with_gpu_memory(all_resident + 100);
        let mut gpu_only =
            GpuOnlyTrainer::new(TrainConfig::fast_test(5), platform, init, 10.0).unwrap();
        assert_eq!(gpu_only.gpu_pool.used_total(), all_resident);
        for _ in 0..2 {
            assert!(gpu_only.step(&cam, &target).unwrap_err().is_oom());
            assert_eq!(gpu_only.gpu_pool.used_total(), all_resident);
        }
    }

    #[test]
    fn selective_offloading_keeps_geometric_state_on_gpu() {
        let (init, _cam, _target) = tiny_scene();
        let geometric = |options| {
            let trainer = laptop_trainer(TrainConfig::fast_test(5), options, &init);
            trainer.gpu_pool.peak(MemoryCategory::GeometricParameters)
        };
        assert!(geometric(OffloadOptions::full()) > 0);
        assert_eq!(geometric(OffloadOptions::baseline()), 0);
    }

    #[test]
    fn system_names_match_figure_11_legend() {
        for (options, name) in [
            (OffloadOptions::baseline(), "Baseline GS-Scale"),
            (
                OffloadOptions::without_deferred(),
                "GS-Scale (w/o Deferred Adam)",
            ),
            (OffloadOptions::full(), "GS-Scale (all optimizations)"),
        ] {
            assert_eq!(options.system_name(), name);
        }
        let gs_scale = OffloadOptions::for_system(SystemKind::GsScale);
        assert_eq!(gs_scale, OffloadOptions::full());
    }
}
