//! Reproduces Figure 15a/b: sensitivity of GS-Scale's GPU memory usage and
//! training throughput to the `mem_limit` threshold that triggers
//! balance-aware image splitting (Rubble scene, desktop platform).

use gs_bench::{build_scene, print_table, record_run, ExperimentScale};
use gs_platform::PlatformSpec;
use gs_scene::ScenePreset;
use gs_train::{estimate_gpu_memory, replay, SystemKind, TrainConfig};

fn main() {
    let scale = ExperimentScale::from_args();
    let platform = PlatformSpec::desktop_rtx4080s();
    let preset = ScenePreset::RUBBLE;
    let scene = build_scene(&preset, &scale);

    let mut rows = Vec::new();
    for mem_limit in [0.3f64, 0.2, 0.1] {
        let cfg = TrainConfig::fast_test(scale.iterations).with_mem_limit(mem_limit);
        let recorded = record_run(&scene, &cfg, &scale);
        let run = replay(SystemKind::GsScale, &platform, &recorded).expect("GS-Scale fits");
        // Paper-scale analytic estimate of the peak memory under this limit.
        let est = estimate_gpu_memory(
            SystemKind::GsScale,
            preset.paper_gaussians,
            preset.active_ratio.max(mem_limit + 0.05),
            preset.width * preset.height,
            mem_limit,
        );
        rows.push(vec![
            format!("{mem_limit:.1}"),
            format!("{:.2}", est.total() as f64 / 1e9),
            format!("{:.3}", run.peak_gpu_bytes as f64 / 1e6),
            format!("{:.2}", run.throughput_images_per_s()),
            format!("{:.0}%", run.split_fraction() * 100.0),
        ]);
    }
    print_table(
        "Figure 15a/b: sensitivity to mem_limit (Rubble, desktop)",
        &[
            "mem_limit",
            "GPU memory, paper scale (GB)",
            "GPU memory, measured (MB)",
            "Throughput (img/s, simulated)",
            "Views split",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): lowering mem_limit saves additional GPU memory at the cost\n\
         of throughput, because more views are split and incur extra culling and gradient\n\
         aggregation."
    );
}
