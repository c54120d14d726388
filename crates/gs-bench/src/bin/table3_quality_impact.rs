//! Reproduces Table 3: the impact of GS-Scale on training quality, compared
//! to the original training pipeline. The paper's deferred update factors ε
//! out of the skipped steps and checks the error here; this repository's
//! replays them exactly, and its image splitting only shapes the modelled
//! passes, so GS-Scale trains the same parameter bits as the original and
//! the gap is 0 by construction.

use gs_bench::{build_scene, print_table, quality_after_training, ExperimentScale};
use gs_platform::PlatformSpec;
use gs_scene::ScenePreset;
use gs_train::{SystemKind, TrainConfig};

fn main() {
    let scale = ExperimentScale::from_args();
    let platform = PlatformSpec::desktop_rtx4080s();
    // The quick mode covers three scenes; --full covers all six.
    let presets: Vec<ScenePreset> = if std::env::args().any(|a| a == "--full") {
        ScenePreset::ALL.to_vec()
    } else {
        vec![ScenePreset::RUBBLE, ScenePreset::LFLS, ScenePreset::AERIAL]
    };

    let mut rows = Vec::new();
    for preset in presets {
        let scene = build_scene(&preset, &scale);
        let iterations = scale.iterations * 3;
        let cfg = TrainConfig::fast_test(iterations);
        let (original, _) =
            quality_after_training(SystemKind::GpuOnly, &platform, &scene, &cfg, iterations)
                .expect("runnable scale fits");
        let (gs_scale, _) =
            quality_after_training(SystemKind::GsScale, &platform, &scene, &cfg, iterations)
                .expect("GS-Scale fits");
        rows.push(vec![
            preset.name.to_string(),
            "Original".to_string(),
            format!("{:.2}", original.psnr),
            format!("{:.3}", original.ssim),
            format!("{:.3}", original.lpips),
        ]);
        rows.push(vec![
            String::new(),
            "GS-Scale".to_string(),
            format!("{:.2}", gs_scale.psnr),
            format!("{:.3}", gs_scale.ssim),
            format!("{:.3}", gs_scale.lpips),
        ]);
    }
    print_table(
        "Table 3: impact of GS-Scale on training quality",
        &["Scene", "Method", "PSNR", "SSIM", "LPIPS (proxy)"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the original pipeline and GS-Scale agree to within ~0.05 dB\n\
         PSNR and ~0.001 SSIM/LPIPS. Here the deferred update and image splitting are\n\
         bit-exact, so both rows of each scene are identical: the gap is 0 by construction."
    );
}
