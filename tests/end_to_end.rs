//! End-to-end integration tests spanning every crate: scene synthesis,
//! rendering, training under all four systems, memory accounting, timing
//! model and quality metrics.

use std::collections::BTreeMap;

use gs_scale::core::camera::{Camera, Viewport};
use gs_scale::core::gaussian::{GaussianParams, ParamGroup, SparseGrads};
use gs_scale::core::image::Image;
use gs_scale::core::scene::init_gaussians_from_point_cloud;
use gs_scale::metrics::QualityReport;
use gs_scale::optim::{DeferredAdam, DenseAdam, StepStats};
use gs_scale::platform::{kernel_time, PlatformSpec, Stream, TimelineSim, TransferModel, Work};
use gs_scale::render::cost::{cull_cost, WorkEstimate};
use gs_scale::render::culling::frustum_cull;
use gs_scale::render::loss::loss_and_grad;
use gs_scale::render::pipeline::{render, render_backward, to_sparse_grads};
use gs_scale::scene::{SceneConfig, SceneDataset};
use gs_scale::train::splitting::find_balanced_split;
use gs_scale::train::{
    evaluate, train, GpuOnlyTrainer, IterationStats, OffloadOptions, OffloadTrainer, SystemKind,
    TrainConfig, Trainer,
};

fn test_scene(seed: u64) -> SceneDataset {
    SceneDataset::generate(SceneConfig {
        name: "integration".to_string(),
        num_gaussians: 900,
        init_points: 350,
        width: 80,
        height: 60,
        num_train_views: 8,
        num_test_views: 2,
        target_active_ratio: 0.55,
        extent: 60.0,
        far_view_fraction: 0.1,
        seed,
    })
}

/// A scene sized so that per-Gaussian work (not per-kernel launch overhead)
/// dominates the timing model: this is the regime where the paper's
/// throughput ordering between systems emerges.
fn throughput_scene(seed: u64) -> SceneDataset {
    SceneDataset::generate(SceneConfig {
        name: "throughput".to_string(),
        num_gaussians: 6000,
        init_points: 6000,
        width: 96,
        height: 72,
        num_train_views: 8,
        num_test_views: 2,
        target_active_ratio: 0.12,
        extent: 120.0,
        far_view_fraction: 0.0,
        seed,
    })
}

fn run_system(
    kind: SystemKind,
    scene: &SceneDataset,
    platform: &PlatformSpec,
    iterations: usize,
) -> (gs_scale::train::RunStats, QualityReport) {
    let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
    let cfg = TrainConfig::fast_test(iterations);
    match kind {
        SystemKind::GpuOnly => {
            let mut t =
                GpuOnlyTrainer::new(cfg, platform.clone(), init, scene.scene_extent()).unwrap();
            let o = train(&mut t, scene, iterations, true).unwrap();
            (o.run, o.quality.unwrap())
        }
        other => {
            let mut t = OffloadTrainer::new(
                cfg,
                OffloadOptions::for_system(other),
                platform.clone(),
                init,
                scene.scene_extent(),
            )
            .unwrap();
            let o = train(&mut t, scene, iterations, true).unwrap();
            (o.run, o.quality.unwrap())
        }
    }
}

#[test]
fn all_four_systems_train_and_agree_on_quality() {
    let scene = test_scene(31);
    let platform = PlatformSpec::laptop_rtx4070m();
    let iterations = 32;

    let results: Vec<(SystemKind, _, QualityReport)> = SystemKind::ALL
        .iter()
        .map(|&k| {
            let (run, q) = run_system(k, &scene, &platform, iterations);
            (k, run, q)
        })
        .collect();

    // Training improved over the initialization for every system.
    let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
    let baseline_quality = evaluate(&init, &scene);
    for (kind, run, quality) in &results {
        assert!(
            quality.psnr > baseline_quality.psnr,
            "{kind:?} did not improve PSNR ({} vs {})",
            quality.psnr,
            baseline_quality.psnr
        );
        assert_eq!(run.iterations.len(), iterations);
        assert!(run.total_sim_time() > 0.0, "{kind:?} produced no timing");
    }

    // All systems converge to (numerically) the same quality: the paper's
    // Table 3 equivalence claim.
    let psnrs: Vec<f64> = results.iter().map(|(_, _, q)| q.psnr).collect();
    let max = psnrs.iter().cloned().fold(f64::MIN, f64::max);
    let min = psnrs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max - min < 0.25,
        "systems disagree on final quality: {psnrs:?}"
    );
}

#[test]
fn gs_scale_saves_gpu_memory_and_beats_baseline_throughput() {
    let scene = throughput_scene(32);
    let platform = PlatformSpec::laptop_rtx4070m();
    let iterations = 8;

    let (gpu_only, _) = run_system(SystemKind::GpuOnly, &scene, &platform, iterations);
    let (baseline, _) = run_system(SystemKind::BaselineOffload, &scene, &platform, iterations);
    let (gs_scale, _) = run_system(SystemKind::GsScale, &scene, &platform, iterations);

    // Memory: offloading never exceeds GPU-only peak memory.
    assert!(gs_scale.peak_gpu_bytes <= gpu_only.peak_gpu_bytes);

    // Throughput: GS-Scale improves over the unoptimized offloading baseline.
    assert!(
        gs_scale.throughput_images_per_s() > baseline.throughput_images_per_s(),
        "GS-Scale ({}) should beat baseline ({})",
        gs_scale.throughput_images_per_s(),
        baseline.throughput_images_per_s()
    );

    // The deferred optimizer touches fewer Gaussians per step on average.
    let gs_updates: f64 = gs_scale
        .iterations
        .iter()
        .map(|i| i.optimizer_updates as f64)
        .sum::<f64>()
        / gs_scale.iterations.len() as f64;
    let base_updates: f64 = baseline
        .iterations
        .iter()
        .map(|i| i.optimizer_updates as f64)
        .sum::<f64>()
        / baseline.iterations.len() as f64;
    assert!(gs_updates < base_updates);
}

#[test]
fn densification_grows_models_identically_across_systems() {
    let scene = test_scene(33);
    let platform = PlatformSpec::desktop_rtx4080s();
    let iterations = 30;
    let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);

    let mut cfg = TrainConfig::fast_test(iterations);
    cfg.densify = gs_scale::train::densify::DensifyConfig {
        start_iteration: 5,
        stop_iteration: 25,
        interval: 10,
        grad_threshold: 1.0e-7,
        split_scale_fraction: 0.02,
        prune_opacity: 0.005,
        max_gaussians: 0,
    };

    let mut gpu_only = GpuOnlyTrainer::new(
        cfg.clone(),
        platform.clone(),
        init.clone(),
        scene.scene_extent(),
    )
    .unwrap();
    let gpu_run = train(&mut gpu_only, &scene, iterations, false).unwrap().run;

    let mut gs = OffloadTrainer::new(
        cfg,
        OffloadOptions::full(),
        platform,
        init,
        scene.scene_extent(),
    )
    .unwrap();
    let gs_run = train(&mut gs, &scene, iterations, false).unwrap().run;

    assert!(
        gpu_run.final_gaussians > 350,
        "densification should add Gaussians"
    );
    assert_eq!(
        gpu_run.final_gaussians, gs_run.final_gaussians,
        "both systems must densify identically"
    );
}

#[test]
fn gpu_only_ooms_on_constrained_gpu_but_gs_scale_survives() {
    // Small images (activations are modest) but many Gaussians, so the
    // GPU-only system's resident parameters/gradients/optimizer state exceed
    // the budget while GS-Scale's staged working set stays well within it.
    let scene = SceneDataset::generate(SceneConfig {
        name: "oom".to_string(),
        num_gaussians: 6000,
        init_points: 6000,
        width: 40,
        height: 30,
        num_train_views: 6,
        num_test_views: 2,
        target_active_ratio: 0.15,
        extent: 120.0,
        far_view_fraction: 0.0,
        seed: 34,
    });
    let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
    // GPU-only needs ~944 bytes per Gaussian of persistent state (~5.7 MB
    // here); GS-Scale's peak is dominated by activations (~1.4 MB).
    let capacity = 3_500_000u64;
    let platform = PlatformSpec::laptop_rtx4070m().with_gpu_memory(capacity);
    let cfg = TrainConfig::fast_test(4);

    let gpu_only = GpuOnlyTrainer::new(cfg.clone(), platform.clone(), init.clone(), 60.0);
    assert!(gpu_only.is_err());
    assert!(gpu_only.err().unwrap().is_oom());

    let mut gs = OffloadTrainer::new(
        cfg,
        OffloadOptions::full(),
        platform,
        init,
        scene.scene_extent(),
    )
    .expect("GS-Scale keeps parameters in host memory");
    let outcome = train(&mut gs, &scene, 4, false).unwrap();
    assert_eq!(outcome.run.iterations.len(), 4);
}

#[test]
fn throughput_ordering_matches_figure_11_on_the_laptop() {
    // Baseline < GS-Scale w/o deferred <= GS-Scale with all optimizations.
    let scene = throughput_scene(35);
    let platform = PlatformSpec::laptop_rtx4070m();
    let iterations = 8;
    let (baseline, _) = run_system(SystemKind::BaselineOffload, &scene, &platform, iterations);
    let (no_deferred, _) = run_system(SystemKind::GsScaleNoDeferred, &scene, &platform, iterations);
    let (full, _) = run_system(SystemKind::GsScale, &scene, &platform, iterations);
    let t_base = baseline.throughput_images_per_s();
    let t_nodef = no_deferred.throughput_images_per_s();
    let t_full = full.throughput_images_per_s();
    assert!(
        t_nodef > t_base,
        "selective offloading + forwarding should help: {t_nodef} vs {t_base}"
    );
    assert!(
        t_full >= t_nodef * 0.95,
        "deferred Adam should not hurt: {t_full} vs {t_nodef}"
    );
}

/// One GS-Scale training step (selective offloading, parameter forwarding and
/// image splitting on; deferred Adam or a dense host optimizer) assembled
/// from the public pieces the way `bench/src/workloads/train.rs::probe`
/// assembles it: merged sparse gradients are expanded with `to_dense` and
/// fed to `apply_groups`. `OffloadTrainer::step` reads the sparse gradients
/// in place; this is what it must stay bit-identical to.
struct ReferenceTrainer {
    config: TrainConfig,
    platform: PlatformSpec,
    params: GaussianParams,
    geometric: DenseAdam,
    deferred: Option<DeferredAdam>,
    host_dense: Option<DenseAdam>,
}

impl ReferenceTrainer {
    fn new(
        config: TrainConfig,
        options: OffloadOptions,
        platform: PlatformSpec,
        init: GaussianParams,
    ) -> Self {
        assert!(options.selective_offloading && options.parameter_forwarding);
        let n = init.len();
        let deferred = options.deferred_update;
        Self {
            geometric: DenseAdam::new(config.adam, n),
            deferred: deferred.then(|| DeferredAdam::new(config.adam, n)),
            host_dense: (!deferred).then(|| DenseAdam::new(config.adam, n)),
            platform,
            params: init,
            config,
        }
    }

    fn step(&mut self, cam: &Camera, target: &Image) -> IterationStats {
        let total = self.params.len();
        let (gpu, cpu) = (self.platform.gpu, self.platform.cpu);
        let transfer = TransferModel::new(self.platform.pcie_bandwidth);
        let render_work = |e: &WorkEstimate| Work::new(e.flops, e.total_bytes());
        let mut sim = TimelineSim::new();

        let full = Viewport::full(cam);
        let active = frustum_cull(&self.params, cam, &full).num_active();
        let cull_event = sim.schedule(
            Stream::GpuCompute,
            "frustum_cull",
            kernel_time(&render_work(&cull_cost(total, active)), &gpu, true),
            &[],
        );
        let split = active as f64 / total as f64 > self.config.mem_limit;
        let viewports = if split {
            let (left, right) = find_balanced_split(&self.params, cam).viewports(cam);
            vec![left, right]
        } else {
            vec![full]
        };

        let mut merged = SparseGrads::new();
        let mut loss = 0.0f32;
        let mut last_gpu_event = cull_event;
        for vp in &viewports {
            let ids = frustum_cull(&self.params, cam, vp).ids;
            let staged = match &self.deferred {
                Some(deferred) => {
                    deferred.peek_restored(&self.params, &ids, &ParamGroup::NON_GEOMETRIC)
                }
                None => self.params.gather(&ids),
            };
            let sh_degree = self.config.sh_degree;
            let output = render(&staged, cam, sh_degree, vp, self.config.background);
            let crop = target.crop(vp.x0, vp.y0, vp.x1, vp.y1);
            let (view_loss, mut d_image) = loss_and_grad(self.config.loss, &output.image, &crop);
            let scale = vp.num_pixels() as f32 / cam.num_pixels() as f32;
            if (scale - 1.0).abs() > f32::EPSILON {
                for v in d_image.data_mut() {
                    *v *= scale;
                }
            }
            loss += view_loss * scale;
            let grads = render_backward(&staged, cam, sh_degree, &output, &d_image);
            merged.merge(&to_sparse_grads(&ids, grads));

            let staged_bytes = (ids.len() * GaussianParams::NON_GEOMETRIC_PARAMS * 4) as u64;
            let grad_bytes = (ids.len() * GaussianParams::PARAMS_PER_GAUSSIAN * 4) as u64;
            let h2d_time: f64 = transfer
                .chunks(staged_bytes)
                .iter()
                .map(|&chunk| transfer.transfer_time(chunk))
                .sum();
            let h2d = sim.schedule(Stream::HostToDevice, "h2d_params", h2d_time, &[cull_event]);
            let fwd_bwd = sim.schedule(
                Stream::GpuCompute,
                "gpu_fwd_bwd",
                kernel_time(&render_work(&output.stats.forward_work()), &gpu, true)
                    + kernel_time(&render_work(&output.stats.backward_work()), &gpu, true),
                &[h2d, last_gpu_event],
            );
            sim.schedule(
                Stream::DeviceToHost,
                "d2h_grads",
                transfer.transfer_time(grad_bytes),
                &[fwd_bwd],
            );
            last_gpu_event = fwd_bwd;
        }

        let dense = merged.to_dense(total);
        let step_work = |s: &StepStats| Work::new(s.flops, s.total_bytes());
        let t = self.geometric.advance();
        let geom_stats =
            self.geometric
                .apply_groups(&mut self.params, &dense, &ParamGroup::GEOMETRIC, t);
        sim.schedule(
            Stream::GpuCompute,
            "msq_optimizer",
            kernel_time(&step_work(&geom_stats), &gpu, true),
            &[last_gpu_event],
        );
        let (host_stats, host_work) = if let Some(deferred) = self.deferred.as_mut() {
            let stats = deferred.step_groups(&mut self.params, &merged, &ParamGroup::NON_GEOMETRIC);
            (stats, step_work(&stats).with_random_access())
        } else {
            let host = self.host_dense.as_mut().unwrap();
            let t = host.advance();
            let stats = host.apply_groups(&mut self.params, &dense, &ParamGroup::NON_GEOMETRIC, t);
            (stats, step_work(&stats))
        };
        sim.schedule(
            Stream::CpuCompute,
            "cpu_optimizer",
            kernel_time(&host_work, &cpu, false),
            &[],
        );

        let mut phase_breakdown = BTreeMap::new();
        sim.accumulate_breakdown(&mut phase_breakdown);
        IterationStats {
            loss,
            active_gaussians: active,
            total_gaussians: total,
            sim_time_s: sim.makespan(),
            phase_breakdown,
            image_split: split,
            optimizer_updates: host_stats.updated_gaussians,
        }
    }
}

#[test]
fn offload_step_is_bit_identical_to_the_densified_reference_step() {
    let scene = test_scene(36);
    let init = init_gaussians_from_point_cloud(&scene.init_cloud, 0.3);
    let views: Vec<(Camera, Image)> = scene
        .train_cameras
        .iter()
        .map(|cam| (cam.clone(), scene.ground_truth(cam)))
        .collect();
    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    for options in [OffloadOptions::full(), OffloadOptions::without_deferred()] {
        // mem_limit 0 splits every view, 1 splits none.
        for mem_limit in [0.0, 1.0] {
            let config = TrainConfig::fast_test(10).with_mem_limit(mem_limit);
            let platform = PlatformSpec::laptop_rtx4070m();
            let mut trainer = OffloadTrainer::new(
                config.clone(),
                options,
                platform.clone(),
                init.clone(),
                scene.scene_extent(),
            )
            .unwrap();
            let mut reference = ReferenceTrainer::new(config, options, platform, init.clone());
            for step in 0..10 {
                let (cam, target) = &views[step % views.len()];
                let stats = trainer.step(cam, target).unwrap();
                let expected = reference.step(cam, target);
                let case = format!("{} mem_limit {mem_limit} step {step}", trainer.name());
                assert_eq!(stats.image_split, mem_limit == 0.0, "{case}");
                assert_eq!(stats, expected, "{case}");
                // Before any flush: the stale deferred values must agree too.
                for g in ParamGroup::ALL {
                    assert_eq!(
                        bits(trainer.params().group(g)),
                        bits(reference.params.group(g)),
                        "{case} {g:?}"
                    );
                }
            }
        }
    }
}
