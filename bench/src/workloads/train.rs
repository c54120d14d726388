//! `train_sparse` and `train_dense`: one GS-Scale trainer (all
//! optimizations) stepped in a closed loop over eight views, at the two ends
//! of the active-ratio range.

use std::time::Instant;

use gs_scale::core::camera::{Camera, Viewport};
use gs_scale::core::gaussian::{GaussianParams, ParamGroup, SparseGrads};
use gs_scale::core::image::Image;
use gs_scale::core::rng::Rng64;
use gs_scale::core::scene::init_gaussians_from_point_cloud;
use gs_scale::metrics::QualityReport;
use gs_scale::optim::{DeferredAdam, DenseAdam};
use gs_scale::platform::PlatformSpec;
use gs_scale::render::culling::frustum_cull;
use gs_scale::render::loss::loss_and_grad;
use gs_scale::render::pipeline::{render_backward, render_image, to_sparse_grads};
use gs_scale::train::densify::{densify, DensifyAccumulator, DensifyConfig};
use gs_scale::train::splitting::find_balanced_split;
use gs_scale::train::{
    GpuOnlyTrainer, IterationStats, OffloadOptions, OffloadTrainer, TrainConfig, Trainer,
};

use super::render_probes::replay_forward;
use super::{altitude_for_ratio, flyover_scene, overhead_camera, EXTENT, MB};
use crate::harness::{
    closed_loop, deadline, layer_shares, Layers, Model, OpSample, Tally, Workload, PROBE_OP,
};
use crate::trace::Recorder;

/// What distinguishes the two training workloads.
pub struct Shape {
    name: &'static str,
    gaussians: usize,
    width: usize,
    height: usize,
    /// Share of the model each view's frustum holds.
    active_ratio: f64,
}

/// The paper's regime (Fig. 4: 2.3–12.6 % active).
pub const SPARSE: Shape = Shape {
    name: "train_sparse",
    gaussians: 60_000,
    width: 64,
    height: 48,
    active_ratio: 0.05,
};

/// Above `mem_limit` (0.3) on every view, so every step is image-split.
pub const DENSE: Shape = Shape {
    name: "train_dense",
    gaussians: 2_500,
    width: 192,
    height: 144,
    active_ratio: 0.6,
};

/// Training views; one more view over the scene's centre is held out for
/// the quality figure.
const VIEWS: usize = 8;
/// Two passes over the views; the model metrics are taken over these.
const WARM_STEPS: usize = 2 * VIEWS;
/// Steps after which offloaded and GPU-only parameters are compared.
const EQUIVALENCE_STEPS: usize = 20;
/// Largest difference in held-out PSNR tolerated between the two systems
/// (the bound `tests/end_to_end.rs` puts on "all systems agree").
const EQUIVALENCE_TOLERANCE_DB: f64 = 0.25;
/// A stand-in for "many more steps to come" in the learning-rate schedule.
const SCHEDULE_STEPS: usize = 10_000;

pub struct Train {
    shape: &'static Shape,
    views: Vec<(Camera, Image)>,
    init: GaussianParams,
    config: TrainConfig,
    trainer: OffloadTrainer,
    steps: usize,
    tally: Tally,
    warm_stats: Vec<IterationStats>,
    generate_ms: f64,
}

fn train_config() -> TrainConfig {
    TrainConfig {
        sh_degree: 3,
        ..TrainConfig::reference(SCHEDULE_STEPS, EXTENT).without_densification()
    }
}

impl Train {
    pub fn new(shape: &'static Shape, seed: u64) -> Self {
        let started = Instant::now();
        let scene = flyover_scene(shape.name, shape.gaussians, shape.width, shape.height, seed);
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;

        // Eight views over the scene's interior, each at the altitude where
        // its frustum holds the shape's share of the trained model.
        let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
        let mut rng = Rng64::seed_from_u64(seed ^ 0x7261_696e);
        let views = (0..=VIEWS)
            .map(|v| {
                let (gx, gy) = if v < VIEWS {
                    ((v % 4) as f32 - 1.5, (v / 4) as f32 - 0.5)
                } else {
                    (0.0, 0.0)
                };
                let x = (0.18 * gx + rng.gen_range(-0.03f32..0.03)) * EXTENT;
                let y = (0.24 * gy + rng.gen_range(-0.03f32..0.03)) * EXTENT;
                let altitude =
                    altitude_for_ratio(&init, shape.width, shape.height, x, y, shape.active_ratio);
                let cam = overhead_camera(shape.width, shape.height, x, y, altitude);
                let target = scene.ground_truth(&cam);
                (cam, target)
            })
            .collect();

        let config = train_config();
        let trainer = OffloadTrainer::new(
            config.clone(),
            OffloadOptions::full(),
            PlatformSpec::laptop_rtx4070m(),
            init.clone(),
            EXTENT,
        )
        .expect("the offloaded model fits the laptop platform");
        Self {
            shape,
            views,
            init,
            config,
            trainer,
            steps: 0,
            tally: Tally::default(),
            warm_stats: Vec::new(),
            generate_ms,
        }
    }

    /// One training step on the next view; `None` when the step failed
    /// (out of memory) or its loss is not finite.
    fn step(&mut self) -> Option<IterationStats> {
        let (cam, target) = &self.views[self.steps % VIEWS];
        self.steps += 1;
        self.trainer
            .step(cam, target)
            .ok()
            .filter(|stats| stats.loss.is_finite())
    }

    /// PSNR of `params` on the held-out view.
    fn held_out_psnr(&self, params: &GaussianParams) -> f64 {
        let (cam, target) = &self.views[VIEWS];
        let rendered = render_image(params, cam, 3, self.config.background);
        QualityReport::evaluate(&rendered, target).psnr
    }

    /// Trains a GPU-only and an offloaded (no deferral) system on the same
    /// inputs and compares them; returns the GPU-only steps per second and
    /// whether the two agree.
    fn equivalence(&self) -> (f64, bool) {
        let platform = PlatformSpec::laptop_rtx4070m();
        let mut gpu_only = GpuOnlyTrainer::new(
            self.config.clone(),
            platform.clone(),
            self.init.clone(),
            EXTENT,
        )
        .expect("the model fits the GPU-only platform");
        let mut offload = OffloadTrainer::new(
            self.config.clone(),
            OffloadOptions::without_deferred(),
            platform,
            self.init.clone(),
            EXTENT,
        )
        .expect("the offloaded model fits the laptop platform");
        let mut ok = true;
        let started = Instant::now();
        for s in 0..EQUIVALENCE_STEPS {
            let (cam, target) = &self.views[s % VIEWS];
            ok &= gpu_only.step(cam, target).is_ok();
        }
        let gpu_only_rate = EQUIVALENCE_STEPS as f64 / started.elapsed().as_secs_f64();
        for s in 0..EQUIVALENCE_STEPS {
            let (cam, target) = &self.views[s % VIEWS];
            ok &= offload.step(cam, target).is_ok();
        }
        offload.flush();
        let worst = ParamGroup::ALL
            .iter()
            .flat_map(|&g| {
                gpu_only
                    .params()
                    .group(g)
                    .iter()
                    .zip(offload.params().group(g))
            })
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let gap_db =
            (self.held_out_psnr(gpu_only.params()) - self.held_out_psnr(offload.params())).abs();
        eprintln!(
            "  equivalence after {EQUIVALENCE_STEPS} steps: held-out PSNR differs by {gap_db:.6} dB, parameters by at most {worst:e}"
        );
        (gpu_only_rate, ok && gap_db < EQUIVALENCE_TOLERANCE_DB)
    }
}

/// Mean modelled milliseconds per step of the timeline phase `label`.
fn model_phase_ms(stats: &[IterationStats], label: &str) -> f64 {
    let total: f64 = stats
        .iter()
        .flat_map(|s| s.phase_breakdown.iter())
        .filter(|(name, _)| name.as_str() == label)
        .map(|(_, seconds)| seconds)
        .sum();
    total * 1e3 / stats.len().max(1) as f64
}

impl Workload for Train {
    fn warm_up(&mut self) {
        for _ in 0..WARM_STEPS {
            self.tally.attempted += 1;
            match self.step() {
                Some(stats) => self.warm_stats.push(stats),
                None => self.tally.failed += 1,
            }
        }
    }

    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Vec<OpSample> {
        let start = Instant::now();
        closed_loop(u64::MAX, start, Some(deadline(start, seconds)), rec, || {
            let id = self.steps as u32;
            let t0 = Instant::now();
            let ok = self.step().is_some();
            self.tally.attempted += 1;
            self.tally.failed += u64::from(!ok);
            (id, t0, Instant::now())
        })
    }

    fn verify(&mut self) -> Tally {
        self.trainer.flush();
        let psnr = self.held_out_psnr(self.trainer.params());
        eprintln!(
            "  quality_psnr_db {:.3} after {} steps (mean active ratio {:.4})",
            psnr,
            self.steps,
            self.warm_stats
                .iter()
                .map(IterationStats::active_ratio)
                .sum::<f64>()
                / self.warm_stats.len().max(1) as f64,
        );
        self.tally.attempted += 1;
        self.tally.failed += u64::from(!psnr.is_finite());
        self.tally
    }

    fn model(&self) -> Model {
        let sim: f64 = self.warm_stats.iter().map(|s| s.sim_time_s).sum();
        Model {
            images_per_s: self.warm_stats.len() as f64 / sim,
            peak_gpu_mb: self.trainer.peak_gpu_memory() as f64 / MB,
        }
    }

    fn probe(&mut self, rec: &Recorder, layers: &mut Layers) {
        let background = self.config.background;
        let total = self.shape.gaussians;
        // The probes drive optimizers of their own over a copy of the
        // model: the trainer's are private, and the copy keeps the replay
        // from disturbing the run.
        let mut params = self.trainer.params().clone();
        let mut deferred = DeferredAdam::new(self.config.adam, total);
        let mut geometric = DenseAdam::new(self.config.adam, total);
        let mut accum = DensifyAccumulator::new(total);
        let all_ids: Vec<u32> = (0..total as u32).collect();

        for _ in 0..VIEWS {
            let op = self.steps as u32;
            let (cam, target) = self.views[self.steps % VIEWS].clone();
            let full = Viewport::full(&cam);

            let started = Instant::now();
            let stats = self.step();
            let ended = Instant::now();
            let parent = rec.record(("gs-train", PROBE_OP), 0, op, started, ended);
            layers.add("gs-train.step_us", (ended - started).as_secs_f64() * 1e6);
            self.tally.attempted += 1;
            let Some(stats) = stats else {
                self.tally.failed += 1;
                continue;
            };
            layers.add("gs-render.cull_active_share", stats.active_ratio());

            let viewports = if stats.image_split {
                // The step culls the whole view before it decides to split.
                layers.timed(rec, "gs-render.cull_us", parent, op, || {
                    frustum_cull(&params, &cam, &full)
                });
                let (plan, _) = layers.timed(rec, "gs-train.split_us", parent, op, || {
                    find_balanced_split(&params, &cam)
                });
                let (left, right) = plan.viewports(&cam);
                vec![left, right]
            } else {
                vec![full]
            };

            let mut merged = SparseGrads::new();
            for vp in &viewports {
                let replay = replay_forward(
                    layers,
                    rec,
                    parent,
                    op,
                    &params,
                    &cam,
                    vp,
                    background,
                    "gs-optim.peek_restored_us",
                    |ids| deferred.peek_restored(&params, ids, &ParamGroup::NON_GEOMETRIC),
                );
                // `peek_restored` starts with this gather.
                layers.timed(rec, "gs-core.gather_us", replay.stage_span, op, || {
                    params.gather(&replay.ids)
                });

                let crop = target.crop(vp.x0, vp.y0, vp.x1, vp.y1);
                let ((_, d_image), _) = layers.timed(rec, "gs-render.loss_us", parent, op, || {
                    loss_and_grad(self.config.loss, &replay.output.image, &crop)
                });
                let (grads, _) = layers.timed(rec, "gs-render.backward_us", parent, op, || {
                    render_backward(&replay.staged, &cam, 3, &replay.output, &d_image)
                });
                let work = replay
                    .output
                    .stats
                    .forward_work()
                    .combine(&replay.output.stats.backward_work());
                layers.add("gs-render.model_flops_per_op", work.flops);
                layers.add("gs-render.model_bytes_per_op", work.total_bytes());
                layers.timed(rec, "gs-core.grads_merge_us", parent, op, || {
                    merged.merge(&to_sparse_grads(&replay.ids, grads))
                });
            }
            let (dense, _) = layers.timed(rec, "gs-core.grads_to_dense_us", parent, op, || {
                merged.to_dense(total)
            });
            accum.record(&all_ids, &dense);
            let t = geometric.advance();
            layers.timed(rec, "gs-optim.dense_step_us", parent, op, || {
                geometric.apply_groups(&mut params, &dense, &ParamGroup::GEOMETRIC, t)
            });
            layers.timed(rec, "gs-optim.deferred_step_us", parent, op, || {
                deferred.step_groups(&mut params, &merged, &ParamGroup::NON_GEOMETRIC)
            });
            layers.ops += 1;
        }

        // The step's own share: what none of the replayed parts covers.
        let own = layer_shares(rec)
            .get("unattributed")
            .copied()
            .unwrap_or(0.0);
        layers.set("gs-train.step_self_share", own);
        // Shares over the fixed warm-up steps, so they repeat exactly.
        let warm = self.warm_stats.len().max(1) as f64;
        let splits = self.warm_stats.iter().filter(|s| s.image_split).count();
        let updates: usize = self.warm_stats.iter().map(|s| s.optimizer_updates).sum();
        layers.set("gs-train.split_share", splits as f64 / warm);
        layers.set(
            "gs-optim.updated_share",
            updates as f64 / (warm * total as f64),
        );

        // One-off probes: flush, densify on the accumulator filled above,
        // quality evaluation, and the GPU-only baseline.
        let started = Instant::now();
        deferred.flush_groups(&mut params, &ParamGroup::NON_GEOMETRIC);
        layers.set("gs-optim.flush_ms", started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        densify(
            &mut params,
            &accum,
            &DensifyConfig::reference(SCHEDULE_STEPS),
            EXTENT,
        );
        layers.set("gs-train.densify_ms", started.elapsed().as_secs_f64() * 1e3);
        let (cam, target) = &self.views[VIEWS];
        let rendered = render_image(&params, cam, 3, background);
        let started = Instant::now();
        std::hint::black_box(QualityReport::evaluate(&rendered, target));
        layers.set("gs-metrics.eval_ms", started.elapsed().as_secs_f64() * 1e3);
        layers.set("gs-scene.generate_ms", self.generate_ms);

        let (gpu_only_rate, equivalent) = self.equivalence();
        layers.set("gs-train.gpu_only_ops_per_s", gpu_only_rate);
        self.tally.attempted += 1;
        self.tally.failed += u64::from(!equivalent);

        for (metric, label) in [
            ("gs-platform.model_cull_ms", "frustum_cull"),
            ("gs-platform.model_h2d_ms", "h2d_params"),
            ("gs-platform.model_fwd_bwd_ms", "gpu_fwd_bwd"),
            ("gs-platform.model_d2h_ms", "d2h_grads"),
            ("gs-platform.model_cpu_opt_ms", "cpu_optimizer"),
        ] {
            layers.set(metric, model_phase_ms(&self.warm_stats, label));
        }
    }
}
