//! Ablation for Section 4.4: balance-aware image splitting vs a naive
//! midpoint split. Reports the active-Gaussian balance of each strategy over
//! the most demanding training views. The split search's wall time goes to
//! stderr, so the table on stdout is the same on every run.

use std::time::Instant;

use gs_bench::{build_scene, print_table, ExperimentScale};
use gs_core::camera::Viewport;
use gs_render::culling::frustum_cull;
use gs_scene::ScenePreset;
use gs_train::splitting::{evaluate_split, find_balanced_split};

fn main() {
    let scale = ExperimentScale::from_args();
    let mut rows = Vec::new();
    for preset in [ScenePreset::RUBBLE, ScenePreset::AERIAL] {
        let scene = build_scene(&preset, &scale);
        // Pick the most demanding views (highest active count).
        let mut views: Vec<(usize, usize)> = scene
            .train_cameras
            .iter()
            .enumerate()
            .map(|(i, cam)| {
                (
                    i,
                    frustum_cull(&scene.gt_params, cam, &Viewport::full(cam)).num_active(),
                )
            })
            .collect();
        views.sort_by_key(|(_, active)| std::cmp::Reverse(*active));

        let search_start = Instant::now();
        let mut naive_imbalance = 0.0;
        let mut balanced_imbalance = 0.0;
        let top = views.iter().take(4).collect::<Vec<_>>();
        for (view, _) in &top {
            let cam = &scene.train_cameras[*view];
            let naive = evaluate_split(&scene.gt_params, cam, cam.width / 2);
            let balanced = find_balanced_split(&scene.gt_params, cam);
            naive_imbalance += (naive.balance() - 0.5).abs();
            balanced_imbalance += (balanced.balance() - 0.5).abs();
        }
        let search_time = search_start.elapsed().as_secs_f64();
        eprintln!(
            "{}: search time over {} views {:.1} ms",
            preset.name,
            top.len(),
            search_time * 1e3
        );
        let n = top.len() as f64;
        rows.push(vec![
            preset.name.to_string(),
            format!("{:.3}", 0.5 + naive_imbalance / n),
            format!("{:.3}", 0.5 + balanced_imbalance / n),
        ]);
    }
    print_table(
        "Ablation (Section 4.4): naive midpoint split vs balance-aware split",
        &["Scene", "Midpoint split ratio", "Balance-aware split ratio"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the balance-aware search brings the split ratio close to\n\
         0.55:0.45 or better while adding only ~0.08% to total training time (the trainer\n\
         searches on every split step, over the view's cull)."
    );
}
