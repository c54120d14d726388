//! Reproduces Figure 15c: sensitivity of GS-Scale's normalized throughput to
//! the desktop GPU (RTX 4070 Super, RTX 4080 Super, RTX 4090) on the LFLS
//! scene. Higher-bandwidth GPUs raise R_bw and lower GS-Scale's throughput
//! relative to GPU-only.

use gs_bench::{build_scene, print_table, record_run, ExperimentScale};
use gs_platform::PlatformSpec;
use gs_scene::ScenePreset;
use gs_train::{replay, SystemKind, TrainConfig};

fn main() {
    let scale = ExperimentScale::from_args();
    let preset = ScenePreset::LFLS;
    let scene = build_scene(&preset, &scale);
    let cfg = TrainConfig::fast_test(scale.iterations);
    let recorded = record_run(&scene, &cfg, &scale);

    let mut rows = Vec::new();
    for platform in [
        PlatformSpec::desktop_rtx4070s(),
        PlatformSpec::desktop_rtx4080s(),
        PlatformSpec::desktop_rtx4090(),
    ] {
        let throughput = |kind| {
            let run = replay(kind, &platform, &recorded).expect("runnable scale fits");
            run.throughput_images_per_s()
        };
        let (gpu_only, gs) = (
            throughput(SystemKind::GpuOnly),
            throughput(SystemKind::GsScale),
        );
        rows.push(vec![
            platform.name.clone(),
            format!("{:.1}", platform.r_bw()),
            "1.00".to_string(),
            format!("{:.2}", gs / gpu_only),
        ]);
    }
    print_table(
        "Figure 15c: sensitivity to GPU (LFLS, desktop), throughput normalized to GPU-only",
        &["GPU", "R_bw", "GPU-Only", "GS-Scale"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the RTX 4090's higher memory bandwidth (R_bw = 11.3) lowers\n\
         GS-Scale's normalized throughput compared to the RTX 4070 Super (R_bw = 5.6), because\n\
         a faster GPU leaves less slack to hide the CPU-side optimizer."
    );
}
