//! Reproduces Figure 14: GS-Scale vs GPU-only training throughput on the
//! server platform (H100 PCIe, dual-socket NUMA host).

use gs_bench::{build_scene, print_table, record_run, ExperimentScale};
use gs_platform::PlatformSpec;
use gs_scene::ScenePreset;
use gs_train::{replay, SystemKind, TrainConfig};

fn main() {
    let scale = ExperimentScale::from_args();
    let platform = PlatformSpec::server_h100();
    let mut rows = Vec::new();
    for preset in ScenePreset::ALL {
        let scene = build_scene(&preset, &scale);
        let cfg = TrainConfig::fast_test(scale.iterations);
        let recorded = record_run(&scene, &cfg, &scale);
        let throughput = |kind| {
            let run = replay(kind, &platform, &recorded).expect("H100 fits the runnable scale");
            run.throughput_images_per_s()
        };
        let (gpu_only, gs) = (
            throughput(SystemKind::GpuOnly),
            throughput(SystemKind::GsScale),
        );
        rows.push(vec![
            preset.name.to_string(),
            "1.00".to_string(),
            format!("{:.2}", gs / gpu_only),
        ]);
    }
    print_table(
        "Figure 14: training throughput on the server platform (normalized to GPU-only)",
        &["Scene", "GPU-Only", "GS-Scale"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the server follows the laptop/desktop trend; the Aerial scene\n\
         benefits most (lowest active ratio => largest deferred-update gain), while the NUMA\n\
         host's reduced random-access bandwidth keeps the normalized throughput somewhat lower\n\
         than the laptop despite a similar R_bw."
    );
}
