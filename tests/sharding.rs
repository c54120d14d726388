//! Integration tests for scene sharding: composite equivalence against the
//! unsharded render, serving scenes larger than the memory budget, the
//! partitioner's invariants through the facade, and request deadlines.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_scale::render::pipeline::render_image;
use gs_scale::scene::tour::{TourConfig, TourScene};
use gs_scale::serve::{
    shard_scene, RenderRequest, RenderServer, SceneRegistry, ServeConfig, ServeError,
};

/// Test-sized corridor scenes whose axis-median shards are depth-disjoint
/// slabs for every tour camera.
fn bench_presets() -> Vec<TourScene> {
    [(900, 60.0, 31u64), (1600, 90.0, 32u64)]
        .into_iter()
        .map(|(n, length, seed)| {
            TourScene::generate(TourConfig {
                name: format!("tour-{n}"),
                num_gaussians: n,
                length,
                half_section: 4.0,
                width: 64,
                height: 48,
                num_views: 4,
                seed,
            })
        })
        .collect()
}

fn no_cache_server(budget: u64) -> RenderServer {
    RenderServer::new(
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            max_batch: 4,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(budget),
    )
}

#[test]
fn sharded_composite_matches_the_unsharded_render_on_bench_presets() {
    // The acceptance bar is a per-pixel epsilon of 1e-4; on these presets
    // the shards' depth ranges are disjoint along every view ray, so the
    // front-to-back composite must in fact be *bit-identical*.
    for scene in bench_presets() {
        for shards in [2usize, 3, 5] {
            let server = no_cache_server(1 << 30);
            server
                .load_scene_sharded(
                    "tour",
                    Arc::new(scene.gt_params.clone()),
                    scene.background,
                    shards,
                )
                .unwrap();
            for cam in &scene.cameras {
                let frame = server
                    .render_blocking(RenderRequest::full("tour", cam.clone()))
                    .unwrap();
                // View-adaptive culling may skip slabs behind the camera;
                // what renders never exceeds the layout.
                assert!(
                    frame.shards >= 1 && frame.shards <= shards,
                    "rendered {} of {shards} shards",
                    frame.shards
                );
                let reference = render_image(&scene.gt_params, cam, 3, scene.background);
                let worst = frame
                    .image
                    .data()
                    .iter()
                    .zip(reference.data())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    worst <= 1e-4,
                    "{} k={shards}: per-pixel error {worst} exceeds 1e-4",
                    scene.config.name
                );
                assert_eq!(
                    frame.image.data(),
                    reference.data(),
                    "{} k={shards}: depth-disjoint shards must composite bit-identically",
                    scene.config.name
                );
            }
        }
    }
}

#[test]
fn sharded_viewport_renders_match_the_unsharded_viewport() {
    let scene = &bench_presets()[0];
    let server = no_cache_server(1 << 30);
    server
        .load_scene_sharded(
            "tour",
            Arc::new(scene.gt_params.clone()),
            scene.background,
            4,
        )
        .unwrap();
    let cam = scene.cameras[1].clone();
    let mut request = RenderRequest::full("tour", cam.clone());
    request.viewport = gs_scale::core::camera::Viewport {
        x0: 8,
        y0: 4,
        x1: 40,
        y1: 28,
    };
    let frame = server.render_blocking(request.clone()).unwrap();
    let reference = gs_scale::render::pipeline::render(
        &scene.gt_params,
        &cam,
        3,
        &request.viewport,
        scene.background,
    );
    assert_eq!(frame.image.data(), reference.image.data());
    assert_eq!((frame.image.width(), frame.image.height()), (32, 24));
}

#[test]
fn scene_exceeding_the_budget_serves_sharded_where_unsharded_is_rejected() {
    let scene = TourScene::generate(TourConfig {
        name: "giant".to_string(),
        num_gaussians: 1200,
        length: 80.0,
        num_views: 3,
        width: 48,
        height: 36,
        seed: 33,
        ..TourConfig::default()
    });
    let total = scene.gt_params.total_bytes() as u64;
    // A third of the scene fits at once: the unsharded load is hopeless,
    // but 4 shards of a quarter each swap through fine.
    let server = no_cache_server(total / 3);

    let err = server
        .load_scene("giant", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Admission(ref e) if e.is_oom()),
        "unsharded admission must reject: {err:?}"
    );

    server
        .load_scene_sharded(
            "giant",
            Arc::new(scene.gt_params.clone()),
            scene.background,
            4,
        )
        .unwrap();
    let layout = &server.scene_layouts()[0];
    assert_eq!((layout.shards, layout.resident_shards), (4, 0));
    assert_eq!(layout.bytes, total, "shard footprints sum to the scene");

    for cam in &scene.cameras {
        let frame = server
            .render_blocking(RenderRequest::full("giant", cam.clone()))
            .unwrap();
        let reference = render_image(&scene.gt_params, cam, 3, scene.background);
        assert_eq!(
            frame.image.data(),
            reference.data(),
            "over-budget sharded serving must still render exactly"
        );
    }

    // Rendering 4 shards against a 1/3-scene budget forces residency churn.
    let registry = server.registry_stats();
    assert!(
        registry.shard_evictions > 0,
        "a scene bigger than the budget must swap shards: {registry:?}"
    );
    let stats = server.shutdown();
    // Every shard of every request is either rendered or view-culled...
    assert_eq!(
        stats.shards_rendered + stats.shards_culled,
        4 * scene.cameras.len() as u64
    );
    // ...and the tour's later cameras stand inside the corridor, so the
    // slabs behind them must actually have been culled.
    assert!(
        stats.shards_culled > 0,
        "cameras inside the corridor must cull the slabs behind them: {stats}"
    );
    assert!(stats.shard_layer.max > 0.0);
}

#[test]
fn partition_invariants_hold_through_the_facade() {
    // Satellite coverage: seeded loops asserting exact partition, AABB
    // containment and footprint conservation on the bench presets.
    for scene in bench_presets() {
        for k in [2usize, 4, 7] {
            let shards = shard_scene(&scene.gt_params, k);
            assert_eq!(shards.len(), k);
            let mut seen = vec![false; scene.gt_params.len()];
            let mut bytes = 0u64;
            for shard in &shards {
                bytes += shard.bytes;
                for &id in &shard.ids {
                    assert!(
                        !std::mem::replace(&mut seen[id as usize], true),
                        "gaussian {id} assigned twice"
                    );
                    assert!(shard.aabb.contains(scene.gt_params.mean(id as usize)));
                }
            }
            assert!(seen.iter().all(|&s| s), "every gaussian must be assigned");
            assert_eq!(bytes, scene.gt_params.total_bytes() as u64);
        }
    }
}

#[test]
fn expired_requests_are_answered_without_rendering() {
    let scene = &bench_presets()[0];
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 32,
            max_batch: 4,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("tour", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    // A burst where every other request is already expired on submit: the
    // worker must answer the dead ones via `drain_where` without rendering
    // them, and render the rest normally.
    let past = Instant::now() - Duration::from_millis(5);
    let mut expired_tickets = Vec::new();
    let mut live_tickets = Vec::new();
    for i in 0..8 {
        let cam = scene.cameras[i % scene.cameras.len()].clone();
        let mut request = RenderRequest::full("tour", cam);
        if i % 2 == 0 {
            request.deadline = Some(past);
            expired_tickets.push(server.submit(request).unwrap());
        } else {
            live_tickets.push(server.submit(request).unwrap());
        }
    }
    for ticket in expired_tickets {
        assert!(
            matches!(ticket.wait(), Err(ServeError::DeadlineExceeded)),
            "an expired request must fail with DeadlineExceeded"
        );
    }
    for ticket in live_tickets {
        ticket.wait().unwrap();
    }

    // A generous deadline renders normally.
    let frame = server
        .render_blocking(
            RenderRequest::full("tour", scene.cameras[0].clone())
                .deadline_in(Duration::from_secs(60)),
        )
        .unwrap();
    assert!(frame.image.mean() > 0.0);

    let stats = Arc::into_inner(server).unwrap().shutdown();
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.expired, 4, "every expired request must be counted");
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.errors, 0);
    // The batch histogram only accounts for rendered batches: requests in
    // it reconcile with completed work, not with expired skips.
    let histogram_requests: u64 = stats
        .batch_histogram
        .iter()
        .map(|&(s, c)| s as u64 * c)
        .sum();
    assert_eq!(histogram_requests, stats.completed);
}
