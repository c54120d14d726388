//! Reproduces Figure 9: per-stream execution timelines of one training
//! iteration under the four systems (GPU-only, baseline GS-Scale, GS-Scale
//! without deferred Adam, GS-Scale with all optimizations).

use gs_bench::{build_scene, record_run, ExperimentScale};
use gs_platform::PlatformSpec;
use gs_scene::ScenePreset;
use gs_train::{replay, SystemKind, TrainConfig};

fn print_iteration(kind: SystemKind, stats: &gs_train::IterationStats) {
    println!("\n--- {} ---", kind.name());
    println!(
        "iteration time: {:.3} ms  (active {}/{} Gaussians)",
        stats.sim_time_s * 1e3,
        stats.active_gaussians,
        stats.total_gaussians
    );
    for (label, secs) in &stats.phase_breakdown {
        let bar_len = (secs / stats.sim_time_s * 50.0).round() as usize;
        println!(
            "  {label:<18} {:>9.3} ms  {}",
            secs * 1e3,
            "#".repeat(bar_len.max(1))
        );
    }
}

fn main() {
    let scale = ExperimentScale::from_args();
    let platform = PlatformSpec::laptop_rtx4070m();
    let preset = ScenePreset::RUBBLE;
    // One step on training view 1, recorded once and modelled per system.
    let mut scene = build_scene(&preset, &scale);
    scene.train_cameras = vec![scene.train_cameras[1].clone()];
    let cfg = TrainConfig::fast_test(4);
    let one_step = ExperimentScale {
        iterations: 1,
        ..scale
    };
    let recorded = record_run(&scene, &cfg, &one_step);

    println!("Figure 9: execution timeline of one training iteration (Rubble, laptop platform)");

    for kind in SystemKind::ALL {
        let run = replay(kind, &platform, &recorded).expect("fits at runnable scale");
        print_iteration(kind, &run.iterations[0]);
    }

    println!(
        "\nExpected shape (paper): the baseline serializes CPU culling, transfers, GPU work and\n\
         the CPU optimizer; selective offloading moves culling to the GPU; parameter forwarding\n\
         lets the CPU optimizer overlap the GPU forward/backward; the deferred update shrinks\n\
         the CPU optimizer slice so the pipeline is no longer CPU-bound."
    );
}
