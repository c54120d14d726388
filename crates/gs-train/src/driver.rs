//! Training loop, evaluation, epoch-level statistics, and the replay of a
//! recorded run under every system.

use gs_core::error::Result;
use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;
use gs_metrics::QualityReport;
use gs_platform::PlatformSpec;
use gs_render::pipeline::render_image;
use gs_scene::SceneDataset;

use crate::memory_model::{StepRecord, SystemKind, SystemModel};
use crate::offload::OffloadTrainer;
use crate::stats::RunStats;
use crate::Trainer;

/// Result of a training run: per-iteration statistics, what each step did,
/// and (optionally) the rendering quality on the held-out test views.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Run statistics (timing, memory, losses).
    pub run: RunStats,
    /// Average rendering quality over the test views, if evaluation was
    /// requested.
    pub quality: Option<QualityReport>,
    /// What each step did, in order; a GS-Scale run's records [`replay`]
    /// under every system.
    pub records: Vec<StepRecord>,
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
    trainer: &mut OffloadTrainer,
    scene: &SceneDataset,
    iterations: usize,
    evaluate_quality: bool,
) -> Result<TrainOutcome> {
    let mut run = RunStats {
        system: trainer.name().to_string(),
        ..RunStats::default()
    };
    let mut cache = GroundTruthCache::new(scene.train_cameras.len());
    let mut records = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let view = i % scene.train_cameras.len();
        let cam = scene.train_cameras[view].clone();
        let target = cache.get(scene, view).clone();
        let (record, stats) = trainer.record_step(&cam, &target)?;
        records.push(record);
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
    Ok(TrainOutcome {
        run,
        quality,
        records,
    })
}

/// The run statistics of training `kind` on `platform` with the inputs of
/// `recorded`, a GS-Scale run. Every system trains to the same parameters,
/// so replaying the recorded steps through a fresh model of `kind` gives
/// the statistics of the system's own run.
///
/// # Errors
///
/// Returns an out-of-memory error where the system's own run would.
///
/// # Panics
///
/// Panics unless `recorded` is a GS-Scale run, the one system whose records
/// hold both a split view's halves and the deferred update's count.
pub fn replay(
    kind: SystemKind,
    platform: &PlatformSpec,
    recorded: &TrainOutcome,
) -> Result<RunStats> {
    let records = &recorded.records;
    assert!(
        records.iter().all(|r| r.deferred_updates.is_some()),
        "replay needs a GS-Scale run"
    );
    let final_gaussians = recorded.run.final_gaussians;
    let mut model = SystemModel::new(kind, platform.clone());
    let mut iterations = Vec::with_capacity(records.len());
    for record in records {
        // The system's own run charges its persistent state when it is
        // built and re-charges it after each densification.
        model.resize(record.gaussians)?;
        model.charge(record)?;
        iterations.push(model.schedule(record));
    }
    model.resize(final_gaussians)?;
    Ok(RunStats {
        system: kind.name().to_string(),
        iterations,
        peak_gpu_bytes: model.gpu_pool().peak_total(),
        peak_gpu_breakdown: model.gpu_pool().peak_breakdown(),
        final_gaussians,
    })
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
    use crate::densify::DensifyConfig;
    use gs_core::scene::init_gaussians_from_point_cloud;
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
            SystemKind::GsScale,
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

        let mut gpu_only = OffloadTrainer::new(
            cfg.clone(),
            SystemKind::GpuOnly,
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
            SystemKind::GsScale,
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
            SystemKind::BaselineOffload,
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

    /// A scene of `init_points` initial Gaussians, `width` × `height` views
    /// and a target active ratio of 0.55.
    fn replay_scene(init_points: usize, width: usize, height: usize) -> SceneDataset {
        SceneDataset::generate(SceneConfig {
            name: "replay".to_string(),
            num_gaussians: 3 * init_points,
            init_points,
            width,
            height,
            num_train_views: 6,
            num_test_views: 1,
            target_active_ratio: 0.55,
            extent: 60.0,
            far_view_fraction: 0.1,
            seed: 8,
        })
    }

    /// `config` for 12 steps, densifying at iterations 5 and 10 when
    /// `densifying`.
    fn replay_config(mem_limit: f64, densifying: bool) -> TrainConfig {
        let mut config = TrainConfig::fast_test(12).with_mem_limit(mem_limit);
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
        config
    }

    /// Trains `kind` on `scene` from its point cloud for `config.iterations`
    /// steps.
    fn train_system(
        kind: SystemKind,
        platform: &PlatformSpec,
        scene: &SceneDataset,
        config: &TrainConfig,
    ) -> Result<TrainOutcome> {
        let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
        let (platform, extent) = (platform.clone(), scene.scene_extent());
        let mut trainer = OffloadTrainer::new(config.clone(), kind, platform, init, extent)?;
        train(&mut trainer, scene, config.iterations, false)
    }

    /// One GS-Scale recording per (`mem_limit`, densification), replayed
    /// as every system on the laptop, the desktop and the NUMA server,
    /// equals that system's own run: every step's statistics, the peak GPU
    /// memory and its breakdown, and the final Gaussian count.
    #[test]
    fn a_recorded_run_replays_as_every_system() {
        let scene = replay_scene(150, 48, 36);
        let platforms = [
            PlatformSpec::laptop_rtx4070m(),
            PlatformSpec::desktop_rtx4080s(),
            PlatformSpec::server_h100(),
        ];
        for mem_limit in [0.0, 0.3, 1.0] {
            for densifying in [false, true] {
                let config = replay_config(mem_limit, densifying);
                let recorded =
                    train_system(SystemKind::GsScale, &platforms[0], &scene, &config).unwrap();
                let splits = recorded.records.iter().any(|r| r.halves.is_some());
                assert_eq!(splits, mem_limit < 1.0, "mem_limit {mem_limit}");
                for platform in &platforms {
                    for kind in SystemKind::ALL {
                        let case = format!(
                            "{kind:?} on {}, mem_limit {mem_limit}, densify {densifying}",
                            platform.name
                        );
                        let own = train_system(kind, platform, &scene, &config).unwrap().run;
                        let replayed = replay(kind, platform, &recorded).unwrap();
                        assert_eq!(replayed.system, own.system, "{case}");
                        assert!(replayed.iterations == own.iterations, "{case}");
                        assert_eq!(replayed.peak_gpu_bytes, own.peak_gpu_bytes, "{case}");
                        assert_eq!(
                            replayed.peak_gpu_breakdown, own.peak_gpu_breakdown,
                            "{case}"
                        );
                        assert_eq!(replayed.final_gaussians, own.final_gaussians, "{case}");
                    }
                }
            }
        }
    }

    /// On a GPU too small for GPU-only's resident state and for GS-Scale's
    /// largest step, both systems' own runs and their replays run out of
    /// memory at the same step: GPU-only at construction, GS-Scale once
    /// densification has grown the model.
    #[test]
    fn a_replay_runs_out_of_memory_where_the_system_does() {
        // Many Gaussians and small views: GPU-only's resident state (944
        // bytes a Gaussian) outweighs one step's activations.
        let scene = replay_scene(1000, 16, 12);
        let config = replay_config(0.3, true);
        let laptop = PlatformSpec::laptop_rtx4070m();
        let recorded = train_system(SystemKind::GsScale, &laptop, &scene, &config).unwrap();
        // One byte short of GPU-only's resident state: 59 columns of
        // parameters, gradients and two Adam moments.
        let resident = 4 * 59 * 4 * recorded.records[0].gaussians as u64;
        let platform = laptop.with_gpu_memory(resident - 1);

        // The step at which a run fails, 0 for construction: the system's
        // own run, stepped and densified as `train` does, ...
        let own_oom = |kind| {
            let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
            let (platform, extent) = (platform.clone(), scene.scene_extent());
            let trainer = OffloadTrainer::new(config.clone(), kind, platform, init, extent);
            let mut trainer = match trainer {
                Ok(trainer) => trainer,
                Err(e) => return e.is_oom().then_some(0),
            };
            for step in 1..=config.iterations {
                let cam = &scene.train_cameras[(step - 1) % scene.train_cameras.len()];
                let result = trainer.step(cam, &scene.ground_truth(cam));
                if let Err(e) = result.and_then(|_| trainer.densify_if_due()) {
                    return e.is_oom().then_some(step);
                }
            }
            None
        };
        // ... and the replay of the recording's first steps.
        let replay_oom = |kind| {
            (0..=config.iterations).find_map(|steps| {
                let mut cut = recorded.clone();
                cut.records.truncate(steps);
                if let Some(next) = recorded.records.get(steps) {
                    cut.run.final_gaussians = next.gaussians;
                }
                let result = replay(kind, &platform, &cut);
                result.err().map(|e| e.is_oom().then_some(steps))
            })?
        };
        let gpu_only = own_oom(SystemKind::GpuOnly);
        assert_eq!(gpu_only, Some(0));
        assert_eq!(replay_oom(SystemKind::GpuOnly), gpu_only);
        let gs_scale = own_oom(SystemKind::GsScale);
        assert!(gs_scale.is_some_and(|step| step > 5), "{gs_scale:?}");
        assert_eq!(replay_oom(SystemKind::GsScale), gs_scale);
    }
}
