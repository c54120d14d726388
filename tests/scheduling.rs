//! Property tests for the serving queue: same-scene batching must (1) leave
//! every per-request frame byte-identical to a solo render and (2) never
//! starve a request past its deadline. Driven through the public facade
//! with seeded-loop "properties".

use std::sync::Arc;
use std::time::Duration;

use gs_scale::core::rng::Rng64;
use gs_scale::render::pipeline::render_image;
use gs_scale::scene::{SceneConfig, SceneDataset};
use gs_scale::serve::{RenderRequest, RenderServer, SceneRegistry, ServeConfig};

fn tiny_scene(seed: u64, num_gaussians: usize) -> SceneDataset {
    SceneDataset::generate(SceneConfig {
        name: format!("sched-{seed}"),
        num_gaussians,
        init_points: 64,
        width: 64,
        height: 48,
        num_train_views: 6,
        num_test_views: 2,
        target_active_ratio: 0.3,
        extent: 60.0,
        far_view_fraction: 0.0,
        seed,
    })
}

fn server_with(scenes: &[SceneDataset]) -> Arc<RenderServer> {
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 64,
            max_batch: 8,
            cache_bytes: 0, // no quantization contract: every frame is exact
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    for (i, scene) in scenes.iter().enumerate() {
        server
            .load_scene(
                format!("scene-{i}"),
                Arc::new(scene.gt_params.clone()),
                scene.background,
            )
            .unwrap();
    }
    server
}

/// Submits the exact same deterministic request sequence to a server and
/// returns each response's frame bytes (in submission order).
fn run_sequence(
    server: &Arc<RenderServer>,
    scenes: &[SceneDataset],
    sequence: &[(usize, usize)], // (scene index, view index)
) -> Vec<Vec<f32>> {
    let tickets: Vec<_> = sequence
        .iter()
        .map(|&(s, v)| {
            let cam = scenes[s].train_cameras[v % scenes[s].train_cameras.len()].clone();
            server
                .submit(
                    RenderRequest::full(format!("scene-{s}"), cam)
                        .deadline_in(Duration::from_secs(30)),
                )
                .unwrap()
        })
        .collect();
    tickets
        .into_iter()
        .map(|t| t.wait().unwrap().image.data().to_vec())
        .collect()
}

#[test]
fn batched_frames_are_byte_identical_to_solo_renders() {
    // Property (seeded loops): for random mixed-scene request sequences,
    // every frame the server returns matches the direct solo render.
    // Batching changes *when* a request renders, never *what* it renders.
    let scenes: Vec<SceneDataset> = (0..3).map(|i| tiny_scene(200 + i, 500)).collect();
    for seed in [1u64, 2, 3] {
        let mut rng = Rng64::seed_from_u64(seed);
        let sequence: Vec<(usize, usize)> = (0..24)
            .map(|_| {
                (
                    rng.gen_range(0usize..scenes.len()),
                    rng.gen_range(0usize..6),
                )
            })
            .collect();

        let server = server_with(&scenes);
        let frames = run_sequence(&server, &scenes, &sequence);
        let stats = Arc::into_inner(server).unwrap().shutdown();

        for (i, &(s, v)) in sequence.iter().enumerate() {
            let cam = &scenes[s].train_cameras[v % scenes[s].train_cameras.len()];
            let solo = render_image(&scenes[s].gt_params, cam, 3, scenes[s].background);
            assert_eq!(
                frames[i],
                solo.data(),
                "seed {seed}: request {i} (scene {s} view {v}) vs solo"
            );
        }
        // Nothing starved: every submission completed inside its deadline.
        assert_eq!(stats.completed, sequence.len() as u64);
        assert_eq!(stats.expired, 0, "zero deadline violations");
        assert_eq!(stats.errors, 0);
    }
}

#[test]
fn a_rare_scene_is_not_starved_by_popular_traffic() {
    // One request for a rare scene buried in a flood of popular-scene
    // requests: under FIFO a job only waits for the jobs queued ahead of
    // it, so the rare request completes well inside a generous deadline
    // instead of being starved behind ever-denser popular batches.
    let scenes: Vec<SceneDataset> = (0..2).map(|i| tiny_scene(220 + i, 500)).collect();
    let server = server_with(&scenes);
    let mut tickets = Vec::new();
    for burst in 0..4 {
        // Popular burst...
        for v in 0..10 {
            let cam = scenes[0].train_cameras[v % 6].clone();
            tickets.push(
                server
                    .submit(
                        RenderRequest::full("scene-0", cam).deadline_in(Duration::from_secs(30)),
                    )
                    .unwrap(),
            );
        }
        // ...with a lone rare request in the middle of the stream.
        if burst == 1 {
            let cam = scenes[1].train_cameras[0].clone();
            tickets.push(
                server
                    .submit(
                        RenderRequest::full("scene-1", cam).deadline_in(Duration::from_secs(30)),
                    )
                    .unwrap(),
            );
        }
    }
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = Arc::into_inner(server).unwrap().shutdown();
    assert_eq!(stats.completed, 41);
    assert_eq!(
        stats.expired, 0,
        "the rare request must not starve past its deadline"
    );
    assert_eq!(stats.errors, 0);
}
