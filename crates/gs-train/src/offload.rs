//! The one training step behind all four systems of the paper's evaluation:
//! the baseline offloading system, GS-Scale with and without the deferred
//! optimizer update, and GPU-only.
//!
//! A system is a [`SystemKind`], the one thing [`OffloadTrainer::new`] takes
//! to choose it. Under offloading, all Gaussian parameters and optimizer
//! states live in host memory; only the subset needed by the current view is
//! staged on the GPU. GPU-only is the same step with every buffer resident
//! on the GPU. GS-Scale applies all four of the paper's optimizations below,
//! GS-Scale without the deferred update the other three, and the baseline
//! and GPU-only none:
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
//!   modelled as two passes over balanced sub-viewports.
//!
//! Only the deferred update changes what the host executes. Where the
//! buffers live, parameter forwarding and image splitting change only what
//! is charged to memory and scheduled on the timeline, never the
//! arithmetic. So the step runs the arithmetic and records what it did (a
//! [`StepRecord`]), and the system's model in [`crate::memory_model`]
//! charges and schedules the record.
//!
//! # What is exact
//!
//! Bit-exact, with the test that pins each:
//!
//! * where the buffers live, and parameter forwarding: the same loss and
//!   parameter bits after every step, with and without densification
//!   (`placements_and_schedules_train_bit_identically_in_lockstep`, and the
//!   fingerprints in `trained_parameters_match_golden_fingerprints`);
//! * the deferred update: the same loss bits after every step and the same
//!   parameter bits after every densification and flush, against GPU-only
//!   (and so against every system without it), on runs that defer most
//!   Gaussians (the same lockstep test); deferred Adam equals dense Adam in
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
//!   reference step in `tests/end_to_end.rs`);
//! * one recorded GS-Scale run, replayed under each system, equals that
//!   system's own run (`a_recorded_run_replays_as_every_system`).
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

use gs_core::camera::{Camera, Viewport};
use gs_core::error::Result;
use gs_core::gaussian::{GaussianParams, ParamGroup};
use gs_core::image::Image;
use gs_optim::{DeferredAdam, DenseAdam};
use gs_platform::{MemoryCategory, PlatformSpec};
use gs_render::culling::{frustum_cull, gaussian_in_frustum};
use gs_render::loss::loss_and_grad;
use gs_render::pipeline::{render, render_backward, to_sparse_grads};

use crate::config::TrainConfig;
use crate::densify::{densify, DensifyAccumulator};
use crate::memory_model::{StepRecord, SystemKind, SystemModel};
use crate::splitting::balanced_split;
use crate::stats::IterationStats;
use crate::Trainer;

/// The trainer behind every system (see module docs).
#[derive(Debug)]
pub struct OffloadTrainer {
    config: TrainConfig,
    kind: SystemKind,
    /// Host-authoritative parameters. Non-geometric values of deferred
    /// Gaussians are intentionally stale between commits.
    params: GaussianParams,
    /// Dense Adam: the geometric groups always, the non-geometric groups
    /// unless the deferred update is on.
    dense: DenseAdam,
    /// Deferred Adam for the non-geometric groups.
    deferred: Option<DeferredAdam>,
    /// What the system charges and schedules for each step.
    model: SystemModel,
    accum: DensifyAccumulator,
    iteration: usize,
    scene_extent: f32,
}

impl OffloadTrainer {
    /// Creates the trainer for `kind`, one of the four systems of the
    /// paper's evaluation.
    ///
    /// # Errors
    ///
    /// Returns an out-of-memory error if the system's resident state does
    /// not fit the platform's memories.
    pub fn new(
        config: TrainConfig,
        kind: SystemKind,
        platform: PlatformSpec,
        init: GaussianParams,
        scene_extent: f32,
    ) -> Result<Self> {
        let n = init.len();
        let mut model = SystemModel::new(kind, platform);
        model.resize(n)?;
        Ok(Self {
            dense: DenseAdam::new(config.adam, n),
            deferred: (kind == SystemKind::GsScale).then(|| DeferredAdam::new(config.adam, n)),
            model,
            config,
            kind,
            params: init,
            accum: DensifyAccumulator::new(n),
            iteration: 0,
            scene_extent,
        })
    }

    /// The platform this trainer is modelled on.
    pub fn platform(&self) -> &PlatformSpec {
        &self.model.platform
    }

    /// Peak host (CPU) memory observed so far, in bytes.
    pub fn peak_host_memory(&self) -> u64 {
        self.model.host_pool().peak_total()
    }

    /// Stages the parameters of the listed Gaussians for the GPU forward
    /// pass, restoring deferred values where necessary.
    fn stage_params(&self, ids: &[u32]) -> GaussianParams {
        match &self.deferred {
            Some(deferred) => deferred.peek_restored(&self.params, ids, &ParamGroup::NON_GEOMETRIC),
            None => self.params.gather(ids),
        }
    }

    /// One training step: runs the arithmetic and returns what it did and
    /// the statistics the system's model gives it. The model charges the
    /// step's passes before the optimizers run, so a step that runs out of
    /// GPU memory leaves the parameters as they were.
    pub(crate) fn record_step(
        &mut self,
        cam: &Camera,
        target: &Image,
    ) -> Result<(StepRecord, IterationStats)> {
        self.iteration += 1;
        let full_vp = Viewport::full(cam);

        // ---- 1. Frustum culling over all Gaussians --------------------------
        let cull = frustum_cull(&self.params, cam, &full_vp);

        // ---- 2. Forward/backward over the whole view -------------------------
        let staged = self.stage_params(&cull.ids);
        let sh_degree = self.config.sh_degree;
        let output = render(&staged, cam, sh_degree, &full_vp, self.config.background);
        let (loss, d_image) = loss_and_grad(self.config.loss, &output.image, target);
        let grads = render_backward(&staged, cam, sh_degree, &output, &d_image);
        let grads = to_sparse_grads(&cull.ids, grads);

        // ---- 3. The record and its charges ----------------------------------
        // A view whose active ratio exceeds `mem_limit` (and that has a
        // column to split at) is modelled as two balanced passes, each
        // staging its half's cull and doing the work of rendering it.
        let split =
            self.model.splits() && cull.active_ratio() > self.config.mem_limit && cam.width >= 2;
        let halves = split.then(|| {
            let (left, right) = balanced_split(&self.params, cam, &cull.ids).viewports(cam);
            let within = |half: Viewport| {
                output.stats_within(&half, |k| {
                    gaussian_in_frustum(&self.params, cull.ids[k] as usize, cam, &half)
                })
            };
            [within(left), within(right)]
        });
        let mut record = StepRecord {
            loss,
            gaussians: self.params.len(),
            active: cull.num_active(),
            whole: output.stats,
            halves,
            deferred_updates: None,
        };
        self.model.charge(&record)?;

        // ---- 4. Densification statistics ------------------------------------
        // Statistics are recorded over the full index space so every system
        // makes the same densification decisions and the trained models stay
        // comparable. The gradients stay sparse: Gaussians outside the view
        // add a zero norm.
        self.accum.record_sparse(&grads);

        // ---- 5. Optimizer updates -------------------------------------------
        // Geometric groups: dense Adam over every Gaussian, reading the
        // sparse gradients in place. Non-geometric groups: deferred, or the
        // same dense Adam at the same step.
        let t = self.dense.advance();
        let params = &mut self.params;
        self.dense
            .apply_groups_sparse(params, &grads, &ParamGroup::GEOMETRIC, t);
        match self.deferred.as_mut() {
            Some(deferred) => {
                let stats = deferred.step_groups(params, &grads, &ParamGroup::NON_GEOMETRIC);
                record.deferred_updates = Some(stats.updated_gaussians);
            }
            None => {
                self.dense
                    .apply_groups_sparse(params, &grads, &ParamGroup::NON_GEOMETRIC, t);
            }
        }
        Ok((record, self.model.schedule(&record)))
    }
}

impl Trainer for OffloadTrainer {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn params(&self) -> &GaussianParams {
        &self.params
    }

    fn step(&mut self, cam: &Camera, target: &Image) -> Result<IterationStats> {
        self.record_step(cam, target).map(|(_, stats)| stats)
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
        self.model.resize(self.params.len())?;
        Ok((report.appended, report.pruned + report.split))
    }

    fn peak_gpu_memory(&self) -> u64 {
        self.model.gpu_pool().peak_total()
    }

    fn peak_gpu_breakdown(&self) -> Vec<(MemoryCategory, u64)> {
        self.model.gpu_pool().peak_breakdown()
    }
}

/// The two GS-Scale systems under the names `bench/` builds them by.
///
/// The type has no values: each function returns the [`SystemKind`] that
/// [`OffloadTrainer::new`] takes. `bench/` is its only caller; ROADMAP item
/// 3, which folds the figure binaries into `bench/`, deletes it.
#[derive(Debug)]
pub enum OffloadOptions {}

impl OffloadOptions {
    /// GS-Scale without the deferred optimizer update.
    pub fn without_deferred() -> SystemKind {
        SystemKind::GsScaleNoDeferred
    }

    /// GS-Scale with all optimizations.
    pub fn full() -> SystemKind {
        SystemKind::GsScale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::densify::DensifyConfig;
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

    /// GPU-only against each offloaded system — the baseline, and GS-Scale
    /// with and without the deferred update — at the default `mem_limit`
    /// of 0.3 and at 1.0, where no view splits. The same loss bits after
    /// every step, and the same parameter bits after every step — or, when
    /// one side defers, after every densification and after a final flush —
    /// over seeds × active ratio × densification on/off. Four seeds in debug
    /// builds, sixteen in release. The deferring runs must really defer: on
    /// some step the host optimizer updates at most half the Gaussians. The
    /// GS-Scale runs at the default `mem_limit` must really split at active
    /// ratios 0.55 and 0.9, which exceed it.
    #[test]
    fn placements_and_schedules_train_bit_identically_in_lockstep() {
        const STEPS: usize = 12;
        let seeds = if cfg!(debug_assertions) { 4 } else { 16 };
        let platform = PlatformSpec::laptop_rtx4070m();
        let offloaded = [
            SystemKind::BaselineOffload,
            SystemKind::GsScaleNoDeferred,
            SystemKind::GsScale,
        ];
        let default_limit = TrainConfig::fast_test(STEPS).mem_limit;
        let cases: Vec<(SystemKind, f64)> = [default_limit, 1.0]
            .into_iter()
            .flat_map(|mem_limit| offloaded.map(|kind| (kind, mem_limit)))
            .collect();
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
                    for &(kind, mem_limit) in &cases {
                        let config = config.clone().with_mem_limit(mem_limit);
                        let trainer = |kind| {
                            let (c, p, i) = (config.clone(), platform.clone(), init.clone());
                            OffloadTrainer::new(c, kind, p, i, extent).unwrap()
                        };
                        let (mut reference, mut other) =
                            (trainer(SystemKind::GpuOnly), trainer(kind));
                        let case = format!(
                            "{} vs {}, seed {seed}, active ratio {active_ratio}, \
                             densify {densifying}, mem_limit {mem_limit}",
                            reference.name(),
                            other.name()
                        );
                        let defers = kind == SystemKind::GsScale;
                        let compare_params =
                            |iteration| !defers || config.densify.is_due(iteration);
                        let stats =
                            lockstep(&mut reference, &mut other, &views, STEPS, compare_params)
                                .unwrap_or_else(|at| panic!("{case}: diverged at {at}"));
                        assert_eq!(
                            reference.num_gaussians() != init.len(),
                            densifying,
                            "{case}"
                        );
                        if defers {
                            let deferred =
                                |s: &IterationStats| s.optimizer_updates <= s.total_gaussians / 2;
                            assert!(
                                stats.iter().any(deferred),
                                "{case}: never deferred half the rows"
                            );
                        }
                        let splits = stats.iter().any(|s| s.image_split);
                        if mem_limit == 1.0 || kind == SystemKind::BaselineOffload {
                            assert!(!splits, "{case}: split");
                        } else if active_ratio > mem_limit {
                            assert!(splits, "{case}: never split");
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

    /// A `kind` trainer from `init` on the laptop platform.
    fn laptop_trainer(
        config: TrainConfig,
        kind: SystemKind,
        init: &GaussianParams,
    ) -> OffloadTrainer {
        let platform = PlatformSpec::laptop_rtx4070m();
        OffloadTrainer::new(config, kind, platform, init.clone(), 10.0).unwrap()
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

    /// `kind`'s per-step statistics over 20 steps on `tiny_scene` with one
    /// densification pass (at iteration 10), and the trainer after them.
    fn golden_run(kind: SystemKind) -> (Vec<IterationStats>, OffloadTrainer) {
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
        let mut trainer = laptop_trainer(cfg, kind, &init);
        let mut steps = Vec::new();
        let mut densified = Vec::new();
        for _ in 0..20 {
            steps.push(trainer.step(&cam, &target).unwrap());
            densified.push(trainer.densify_if_due().unwrap());
        }
        assert_eq!(densified.iter().filter(|&&d| d != (0, 0)).count(), 1);
        assert!(trainer.num_gaussians() > 4);
        (steps, trainer)
    }

    /// GPU-only's modelled outputs, pinned: every step's statistics from
    /// `golden_run`, the phase labels (no transfer or host-optimizer
    /// phases) and the peak GPU memory and its breakdown must not move.
    #[test]
    fn gpu_only_iteration_stats_and_peak_memory_match_golden() {
        let (steps, trainer) = golden_run(SystemKind::GpuOnly);
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

    /// The offloaded systems' modelled outputs, pinned like GPU-only's:
    /// every step's statistics from `golden_run` (the default `mem_limit`
    /// splits the GS-Scale steps), the phase labels, and the peak GPU
    /// memory and its breakdown.
    #[test]
    fn offloaded_iteration_stats_and_peak_memory_match_golden() {
        let host = [
            "cpu_frustum_cull",
            "cpu_optimizer",
            "d2h_grads",
            "gpu_fwd_bwd",
            "h2d_params",
        ];
        let gs_scale = [
            "cpu_optimizer",
            "d2h_grads",
            "frustum_cull",
            "gpu_fwd_bwd",
            "h2d_params",
            "msq_optimizer",
        ];
        let cases = [
            (
                SystemKind::BaselineOffload,
                host.as_slice(),
                0x3030_0ef5_284e_d5ae,
                1_903_920,
                [1416, 0, 1416, 0, 1_901_088],
            ),
            (
                SystemKind::GsScaleNoDeferred,
                gs_scale.as_slice(),
                0xc5d9_8483_59d2_a554,
                954_120,
                [1176, 280, 1416, 560, 950_688],
            ),
            (
                SystemKind::GsScale,
                gs_scale.as_slice(),
                0x24ab_2286_4257_72dc,
                954_120,
                [1176, 280, 1416, 560, 950_688],
            ),
        ];
        for (kind, labels, fingerprint, peak, [params, geometric, grads, state, activations]) in
            cases
        {
            let (steps, trainer) = golden_run(kind);
            for s in &steps {
                let step_labels: Vec<&str> = s.phase_breakdown.keys().map(String::as_str).collect();
                assert_eq!(step_labels, labels, "{kind:?}");
            }
            assert_eq!(stats_fingerprint(&steps), fingerprint, "{kind:?}");
            assert_eq!(trainer.peak_gpu_memory(), peak, "{kind:?}");
            assert_eq!(
                trainer.peak_gpu_breakdown(),
                [
                    (MemoryCategory::Parameters, params),
                    (MemoryCategory::GeometricParameters, geometric),
                    (MemoryCategory::Gradients, grads),
                    (MemoryCategory::OptimizerState, state),
                    (MemoryCategory::Activations, activations),
                    (MemoryCategory::Other, 0),
                ],
                "{kind:?}"
            );
        }
    }

    /// Each system's parameters after 20 steps on `tiny_scene`, flushed,
    /// in the order of `SystemKind::ALL` (GPU-only last).
    fn trained_for_20_steps() -> [(SystemKind, GaussianParams); 4] {
        let (init, cam, target) = tiny_scene();
        let cfg = TrainConfig::fast_test(20);
        let platform = PlatformSpec::laptop_rtx4070m();
        SystemKind::ALL.map(|kind| {
            let (cfg, platform, init) = (cfg.clone(), platform.clone(), init.clone());
            let mut trainer = OffloadTrainer::new(cfg, kind, platform, init, 10.0).unwrap();
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
            let mut trainer = laptop_trainer(cfg, kind, &init);
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
        let mut gpu_only = laptop_trainer(cfg.clone(), SystemKind::GpuOnly, &init);
        let mut offload = laptop_trainer(cfg, SystemKind::GsScale, &init);
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
        let mut full = laptop_trainer(cfg.clone(), SystemKind::GsScale, &init);
        let mut baseline = laptop_trainer(cfg, SystemKind::BaselineOffload, &init);
        // The far-away Gaussian (index 3) never receives gradients, so the
        // deferred optimizer should touch fewer Gaussians than the dense one.
        let full_stats = full.step(&cam, &target).unwrap();
        let base_stats = baseline.step(&cam, &target).unwrap();
        assert!(full_stats.optimizer_updates < base_stats.optimizer_updates);
        assert_eq!(base_stats.optimizer_updates, 4);
    }

    /// The baseline runs every phase serially, so its modelled step takes
    /// the sum of its phase times. Under parameter forwarding the CPU
    /// optimizer overlaps the GPU work, so an unsplit step takes strictly less
    /// than its phases bar the GPU optimizer, which runs beside the copy.
    #[test]
    fn parameter_forwarding_hides_the_cpu_optimizer() {
        let (init, cam, target) = tiny_scene();
        let step = |kind| {
            let cfg = TrainConfig::fast_test(5).with_mem_limit(1.0);
            let mut trainer = laptop_trainer(cfg, kind, &init);
            let stats = trainer.step(&cam, &target).unwrap();
            let mut phases = stats.phase_breakdown;
            phases.remove("msq_optimizer");
            (stats.sim_time_s, phases.values().sum::<f64>())
        };
        let (baseline, serial) = step(SystemKind::BaselineOffload);
        assert!(
            (baseline - serial).abs() < 1e-12,
            "{baseline}s vs {serial}s"
        );
        let (pipelined, serial) = step(SystemKind::GsScaleNoDeferred);
        assert!(
            pipelined < serial - 1e-12,
            "pipelined iteration ({pipelined}s) should be faster than serial ({serial}s)"
        );
    }

    #[test]
    fn image_splitting_triggers_on_demanding_views() {
        let (init, cam, target) = tiny_scene();
        // With mem_limit 0 every non-empty view exceeds the threshold.
        let cfg = TrainConfig::fast_test(5).with_mem_limit(0.0);
        let mut trainer = laptop_trainer(cfg, SystemKind::GsScale, &init);
        let stats = trainer.step(&cam, &target).unwrap();
        assert!(stats.image_split);
    }

    #[test]
    fn image_splitting_preserves_training_results() {
        let (init, cam, target) = tiny_scene();
        // Same system, but one trainer never splits (mem_limit 1) and the
        // other splits every view (mem_limit 0).
        let trainer = |mem_limit| {
            let cfg = TrainConfig::fast_test(10).with_mem_limit(mem_limit);
            laptop_trainer(cfg, SystemKind::GsScaleNoDeferred, &init)
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
        let mut trainer = laptop_trainer(cfg, SystemKind::GsScale, &init);
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
            SystemKind::GsScale,
            platform,
            init.clone(),
            10.0,
        )
        .unwrap();
        assert_eq!(trainer.model.gpu_pool().used_total(), resident_bytes);
        for _ in 0..2 {
            assert!(trainer.step(&cam, &target).unwrap_err().is_oom());
            assert_eq!(trainer.model.gpu_pool().used_total(), resident_bytes);
        }

        // All resident (GPU-only): room for every Gaussian's parameters (236
        // bytes), gradients (as many) and Adam state (twice that), but not
        // for the view's activations.
        let all_resident = 4 * 4 * 236;
        let platform = PlatformSpec::laptop_rtx4070m().with_gpu_memory(all_resident + 100);
        let mut gpu_only = OffloadTrainer::new(
            TrainConfig::fast_test(5),
            SystemKind::GpuOnly,
            platform,
            init,
            10.0,
        )
        .unwrap();
        assert_eq!(gpu_only.model.gpu_pool().used_total(), all_resident);
        for _ in 0..2 {
            assert!(gpu_only.step(&cam, &target).unwrap_err().is_oom());
            assert_eq!(gpu_only.model.gpu_pool().used_total(), all_resident);
        }
    }

    #[test]
    fn selective_offloading_keeps_geometric_state_on_gpu() {
        let (init, _cam, _target) = tiny_scene();
        let geometric = |kind| {
            let trainer = laptop_trainer(TrainConfig::fast_test(5), kind, &init);
            trainer
                .model
                .gpu_pool()
                .peak(MemoryCategory::GeometricParameters)
        };
        assert!(geometric(SystemKind::GsScale) > 0);
        assert_eq!(geometric(SystemKind::BaselineOffload), 0);
    }

    #[test]
    fn system_names_match_figure_11_legend() {
        let (init, _, _) = tiny_scene();
        let legend = [
            "Baseline GS-Scale",
            "GS-Scale (w/o Deferred Adam)",
            "GS-Scale (all optimizations)",
            "GPU-Only",
        ];
        for (kind, name) in SystemKind::ALL.into_iter().zip(legend) {
            let trainer = laptop_trainer(TrainConfig::fast_test(1), kind, &init);
            assert_eq!(trainer.name(), kind.name());
            assert_eq!(trainer.name(), name);
        }
    }
}
