//! Reproduces Figure 16: impact of the training image resolution on GS-Scale's
//! GPU memory usage and throughput relative to GPU-only (Rubble, desktop).

use gs_bench::{build_scene, measure_run, print_table, ExperimentScale};
use gs_platform::PlatformSpec;
use gs_scene::ScenePreset;
use gs_train::{estimate_gpu_memory, SystemKind, TrainConfig};

fn main() {
    let scale = ExperimentScale::from_args();
    let platform = PlatformSpec::desktop_rtx4080s();
    let preset = ScenePreset::RUBBLE;
    let base_scene = build_scene(&preset, &scale);
    let cfg = TrainConfig::fast_test(scale.iterations);

    let mut rows = Vec::new();
    for (label, res_factor, paper_pixels) in [
        ("1K", 0.5f32, 1024usize * 682),
        ("2K", 1.0, 2048 * 1365),
        ("4K", 2.0, 4096 * 2730),
    ] {
        // Functional run at a scaled-down resolution that preserves the ratio
        // between the three settings.
        let mut scene = base_scene.clone();
        scene.train_cameras = scene
            .train_cameras
            .iter()
            .map(|c| c.scaled(res_factor))
            .collect();
        scene.test_cameras = scene
            .test_cameras
            .iter()
            .map(|c| c.scaled(res_factor))
            .collect();

        let throughput = |kind| {
            measure_run(kind, &platform, &scene, &cfg, &scale)
                .expect("fits at runnable scale")
                .throughput_images_per_s()
        };

        // Paper-scale analytic memory at this resolution.
        let memory = |kind| {
            let (n, ratio) = (preset.paper_gaussians, preset.active_ratio);
            estimate_gpu_memory(kind, n, ratio, paper_pixels, 0.3).total() as f64
        };

        rows.push(vec![
            label.to_string(),
            format!(
                "{:.2}",
                memory(SystemKind::GsScale) / memory(SystemKind::GpuOnly)
            ),
            format!(
                "{:.2}",
                throughput(SystemKind::GsScale) / throughput(SystemKind::GpuOnly)
            ),
        ]);
    }
    print_table(
        "Figure 16: impact of image resolution (Rubble, desktop), values relative to GPU-only",
        &[
            "Resolution",
            "GS-Scale memory / GPU-only",
            "GS-Scale throughput / GPU-only",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the relative memory saving shrinks slightly as resolution\n\
         grows (activations become a larger share), while the relative throughput improves\n\
         because a slower GPU forward/backward leaves more slack for pipelining the CPU\n\
         optimizer."
    );
}
