//! Reproduces Figure 12: peak GPU memory of GS-Scale vs the GPU-only system
//! for every scene, at the paper's full Gaussian counts (analytic model),
//! together with the measured ratio from the functional trainers at the
//! runnable scale.

use gs_bench::{build_scene, fmt_gb, print_table, record_run, ExperimentScale};
use gs_platform::PlatformSpec;
use gs_scene::ScenePreset;
use gs_train::{estimate_gpu_memory, replay, SystemKind, TrainConfig};

fn main() {
    let scale = ExperimentScale::from_args();
    let platform = PlatformSpec::desktop_rtx4080s();
    let mut rows = Vec::new();
    let mut geo_product = 1.0f64;
    for preset in ScenePreset::ALL {
        let (n, pixels) = (preset.paper_gaussians, preset.width * preset.height);
        let estimate = |kind| estimate_gpu_memory(kind, n, preset.active_ratio, pixels, 0.3);
        let (gpu_only, gs_scale) = (estimate(SystemKind::GpuOnly), estimate(SystemKind::GsScale));
        let analytic_ratio = gs_scale.total() as f64 / gpu_only.total() as f64;
        geo_product *= gpu_only.total() as f64 / gs_scale.total() as f64;

        // Functional measurement at the runnable scale.
        let scene = build_scene(&preset, &scale);
        let cfg = TrainConfig::fast_test(scale.iterations);
        let recorded = record_run(&scene, &cfg, &scale);
        let measured = |kind| replay(kind, &platform, &recorded).map(|r| r.peak_gpu_bytes);
        let measured_ratio = match (measured(SystemKind::GpuOnly), measured(SystemKind::GsScale)) {
            (Ok(a), Ok(b)) if a > 0 => format!("{:.2}", b as f64 / a as f64),
            _ => "n/a".to_string(),
        };

        rows.push(vec![
            preset.name.to_string(),
            fmt_gb(gpu_only.total()),
            fmt_gb(gs_scale.total()),
            format!("{analytic_ratio:.2}"),
            measured_ratio,
        ]);
    }
    let geomean_saving = geo_product.powf(1.0 / ScenePreset::ALL.len() as f64);
    print_table(
        "Figure 12: peak GPU memory usage (GB at paper scale) and GS-Scale/GPU-only ratio",
        &[
            "Scene",
            "GPU-only (GB)",
            "GS-Scale (GB)",
            "Ratio (paper scale)",
            "Ratio (measured)",
        ],
        &rows,
    );
    println!(
        "\nGeomean peak-memory reduction (paper scale): {geomean_saving:.2}x\n\
         Expected shape (paper): 3.3x - 5.6x savings, geomean ~3.98x, with the largest\n\
         relative saving on Aerial (lowest active ratio) limited by the resident geometric\n\
         attributes of selective offloading."
    );
}
