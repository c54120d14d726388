//! Reproduces Figure 7: training-time breakdown of the baseline GS-Scale
//! (naive host offloading) on the laptop platform, showing that CPU frustum
//! culling and CPU optimizer updates dominate.

use gs_bench::{build_scene, print_table, record_run, ExperimentScale};
use gs_platform::PlatformSpec;
use gs_scene::ScenePreset;
use gs_train::{replay, SystemKind, TrainConfig};

fn main() {
    let scale = ExperimentScale::from_args();
    let platform = PlatformSpec::laptop_rtx4070m();
    let mut rows = Vec::new();
    for preset in [ScenePreset::RUBBLE, ScenePreset::BUILDING] {
        let scene = build_scene(&preset, &scale);
        let cfg = TrainConfig::fast_test(scale.iterations);
        let recorded = record_run(&scene, &cfg, &scale);
        let run = replay(SystemKind::BaselineOffload, &platform, &recorded)
            .expect("baseline offloading never OOMs");
        let breakdown = run.phase_breakdown();
        let total: f64 = breakdown.iter().map(|(_, t)| t).sum();
        let pct = |label: &str| {
            let t: f64 = breakdown
                .iter()
                .filter(|(l, _)| l == label)
                .map(|(_, t)| *t)
                .sum();
            format!("{:.1}%", t / total * 100.0)
        };
        rows.push(vec![
            preset.name.to_string(),
            pct("cpu_frustum_cull"),
            pct("d2h_grads"),
            pct("h2d_params"),
            pct("cpu_optimizer"),
            pct("gpu_fwd_bwd"),
        ]);
    }
    print_table(
        "Figure 7: training time breakdown of baseline GS-Scale (laptop, RTX 4070 Mobile)",
        &[
            "Scene",
            "CPU cull",
            "D2H",
            "H2D",
            "CPU optimizer",
            "GPU fwd/bwd",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the CPU frustum culling and the CPU optimizer update\n\
         dominate the iteration time of the unoptimized offloading baseline, leaving the GPU\n\
         idle most of the time."
    );
}
