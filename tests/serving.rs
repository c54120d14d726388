//! Integration tests for the `gs-serve` rendering service: deterministic
//! results under concurrency, frame-cache behavior, and admission-control
//! eviction order, all driven through the public facade.

use std::sync::Arc;

use gs_scale::render::pipeline::render_image;
use gs_scale::scene::{SceneConfig, SceneDataset};
use gs_scale::serve::{RenderRequest, RenderServer, SceneRegistry, ServeConfig, ServeError};

fn tiny_scene(seed: u64, num_gaussians: usize) -> SceneDataset {
    SceneDataset::generate(SceneConfig {
        name: format!("serve-{seed}"),
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

fn no_cache_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth: 32,
        max_batch: 8,
        cache_bytes: 0,
        pose_quant: 0.05,
        shard_bytes: 0,
        ..ServeConfig::default()
    }
}

#[test]
fn cache_disabled_renders_each_exact_camera_despite_quantization() {
    // Two cameras inside the same pose-quantization cell: with the cache
    // disabled there is no quantization contract, so each client must get a
    // frame rendered from its own exact camera, even if both land in one
    // batch.
    let scene = tiny_scene(60, 600);
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            max_batch: 8,
            cache_bytes: 0,
            pose_quant: 10.0, // huge cell: both cameras share a FrameKey
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let cam_a = scene.train_cameras[0].clone();
    let mut cam_b = cam_a.clone();
    cam_b.position.x += 2.0; // same quant cell at step 10, different view

    let solo_a = render_image(&scene.gt_params, &cam_a, 3, scene.background);
    let solo_b = render_image(&scene.gt_params, &cam_b, 3, scene.background);
    assert_ne!(solo_a.data(), solo_b.data(), "views must actually differ");

    // Submit as a burst so the single worker batches them together.
    let t_a = server
        .submit(RenderRequest::full("city", cam_a.clone()))
        .unwrap();
    let t_b = server
        .submit(RenderRequest::full("city", cam_b.clone()))
        .unwrap();
    let frame_a = t_a.wait().unwrap();
    let frame_b = t_b.wait().unwrap();
    assert_eq!(frame_a.image.data(), solo_a.data());
    assert_eq!(frame_b.image.data(), solo_b.data());
}

#[test]
fn concurrent_identical_requests_are_byte_identical() {
    let scene = tiny_scene(70, 800);
    let server = Arc::new(RenderServer::new(
        no_cache_config(4),
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    let cam = scene.train_cameras[2].clone();
    let reference = render_image(&scene.gt_params, &cam, 3, scene.background);

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let server = Arc::clone(&server);
            let cam = cam.clone();
            std::thread::spawn(move || {
                server
                    .render_blocking(RenderRequest::full("city", cam))
                    .unwrap()
            })
        })
        .collect();
    for t in threads {
        let frame = t.join().unwrap();
        assert!(!frame.cache_hit, "cache is disabled");
        assert_eq!(
            frame.image.data(),
            reference.data(),
            "served frame must be byte-identical to a direct render"
        );
    }
    let stats = Arc::into_inner(server).unwrap().shutdown();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.errors, 0);
}

#[test]
fn tile_parallel_render_is_byte_identical_and_counted() {
    // A lone request against an idle pool opens the tile-parallel gate: the
    // frame's tile rows fan out across threads, the output stays
    // byte-identical to a direct render, and the stats record the fan-out.
    let scene = tiny_scene(75, 800);
    let server = RenderServer::new(no_cache_config(4), SceneRegistry::with_budget(1 << 30));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let cam = scene.train_cameras[1].clone();
    let reference = render_image(&scene.gt_params, &cam, 3, scene.background);
    let frame = server
        .render_blocking(RenderRequest::full("city", cam))
        .unwrap();
    assert_eq!(
        frame.image.data(),
        reference.data(),
        "tile-parallel frame must be byte-identical to a direct render"
    );
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert!(
        stats.tile_renders >= 1,
        "an idle pool must fan the lone render across tiles"
    );
}

#[test]
fn mixed_scene_traffic_renders_every_view_exactly() {
    // Four scenes, many threads, batching enabled: every response must still
    // match its solo render bit-for-bit regardless of how requests were
    // grouped into batches.
    let scenes: Vec<SceneDataset> = (0..4).map(|i| tiny_scene(80 + i, 500)).collect();
    let server = Arc::new(RenderServer::new(
        no_cache_config(3),
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

    let scenes = Arc::new(scenes);
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let server = Arc::clone(&server);
            let scenes = Arc::clone(&scenes);
            std::thread::spawn(move || {
                for k in 0..8 {
                    let idx = (t + k) % scenes.len();
                    let scene = &scenes[idx];
                    let cam = scene.train_cameras[k % scene.train_cameras.len()].clone();
                    let frame = server
                        .render_blocking(RenderRequest::full(format!("scene-{idx}"), cam.clone()))
                        .unwrap();
                    let solo = render_image(&scene.gt_params, &cam, 3, scene.background);
                    assert_eq!(frame.image.data(), solo.data(), "scene {idx} view {k}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = Arc::into_inner(server).unwrap().shutdown();
    assert_eq!(stats.completed, 48);
    // Batches never mix scenes, and the histogram accounts for every request.
    let histogram_requests: u64 = stats
        .batch_histogram
        .iter()
        .map(|&(s, c)| s as u64 * c)
        .sum();
    assert_eq!(histogram_requests, 48);
}

#[test]
fn repeated_viewpoints_hit_the_frame_cache() {
    let scene = tiny_scene(90, 600);
    let server = RenderServer::new(
        ServeConfig {
            workers: 2,
            cache_bytes: 32 << 20,
            pose_quant: 0.05,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    );
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    let cam = scene.train_cameras[0].clone();
    let first = server
        .render_blocking(RenderRequest::full("city", cam.clone()))
        .unwrap();
    assert!(!first.cache_hit);
    let mut hits = 0;
    for _ in 0..10 {
        let frame = server
            .render_blocking(RenderRequest::full("city", cam.clone()))
            .unwrap();
        assert_eq!(frame.image.data(), first.image.data());
        if frame.cache_hit {
            hits += 1;
        }
    }
    assert_eq!(hits, 10, "identical requests must be served from the cache");
    let stats = server.shutdown();
    assert!(stats.cache.hit_rate() > 0.85, "{:?}", stats.cache);
    assert_eq!(stats.cache.misses, 1);
}

#[test]
fn admission_control_evicts_in_lru_order_and_rejects_oversized() {
    let a = tiny_scene(100, 400);
    let b = tiny_scene(101, 400);
    let c = tiny_scene(102, 400);
    let per_scene = a.gt_params.total_bytes() as u64;
    // Budget fits two scenes but not three.
    let server = RenderServer::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(per_scene * 5 / 2),
    );
    server
        .load_scene("a", Arc::new(a.gt_params.clone()), a.background)
        .unwrap();
    server
        .load_scene("b", Arc::new(b.gt_params.clone()), b.background)
        .unwrap();

    // Touch "a" so "b" is least recently used.
    server
        .render_blocking(RenderRequest::full("a", a.train_cameras[0].clone()))
        .unwrap();

    server
        .load_scene("c", Arc::new(c.gt_params.clone()), c.background)
        .unwrap();
    assert_eq!(
        server.loaded_scenes(),
        vec!["a".to_string(), "c".to_string()]
    );
    assert_eq!(server.registry_stats().evictions, vec!["b".to_string()]);

    // Requests for the evicted scene now fail fast.
    let err = server
        .render_blocking(RenderRequest::full("b", b.train_cameras[0].clone()))
        .unwrap_err();
    assert!(matches!(err, ServeError::UnknownScene(_)));

    // A scene larger than the whole budget is rejected outright.
    let huge = tiny_scene(103, 2000);
    let err = server
        .load_scene("huge", Arc::new(huge.gt_params.clone()), huge.background)
        .unwrap_err();
    assert!(matches!(err, ServeError::Admission(e) if e.is_oom()));
    assert_eq!(server.registry_stats().rejections, 1);
    assert_eq!(
        server.loaded_scenes(),
        vec!["a".to_string(), "c".to_string()]
    );
}

#[test]
fn eviction_drops_cached_frames_of_the_victim() {
    let a = tiny_scene(110, 400);
    let b = tiny_scene(111, 400);
    let c = tiny_scene(112, 400);
    let per_scene = a.gt_params.total_bytes() as u64;
    let server = RenderServer::new(
        ServeConfig {
            workers: 1,
            cache_bytes: 32 << 20,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(per_scene * 5 / 2),
    );
    server
        .load_scene("a", Arc::new(a.gt_params.clone()), a.background)
        .unwrap();
    server
        .load_scene("b", Arc::new(b.gt_params.clone()), b.background)
        .unwrap();
    // Populate the cache from scene "a", then evict it by loading "c"
    // ("a" is LRU because loading is not a render and "b" was loaded later...
    // so touch "b" to make the order unambiguous).
    server
        .render_blocking(RenderRequest::full("a", a.train_cameras[0].clone()))
        .unwrap();
    server
        .render_blocking(RenderRequest::full("b", b.train_cameras[0].clone()))
        .unwrap();
    server
        .load_scene("c", Arc::new(c.gt_params.clone()), c.background)
        .unwrap();
    assert_eq!(server.registry_stats().evictions, vec!["a".to_string()]);

    // Reload "a" (evicting "b") and re-request the same view: it must be a
    // cache miss, not a stale frame from the first residency.
    server
        .load_scene("a", Arc::new(a.gt_params.clone()), a.background)
        .unwrap();
    let frame = server
        .render_blocking(RenderRequest::full("a", a.train_cameras[0].clone()))
        .unwrap();
    assert!(!frame.cache_hit, "stale frames must not survive eviction");
}

#[test]
fn rejected_reload_keeps_the_resident_scene_and_its_cache() {
    let a = tiny_scene(130, 400);
    let huge = tiny_scene(131, 2000);
    let per_scene = a.gt_params.total_bytes() as u64;
    let server = RenderServer::new(
        ServeConfig {
            workers: 1,
            cache_bytes: 32 << 20,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(per_scene * 3 / 2),
    );
    server
        .load_scene("a", Arc::new(a.gt_params.clone()), a.background)
        .unwrap();
    server
        .render_blocking(RenderRequest::full("a", a.train_cameras[0].clone()))
        .unwrap();

    // Reloading "a" with oversized params must fail without touching the
    // resident scene or flushing its still-valid cached frames.
    let err = server
        .load_scene("a", Arc::new(huge.gt_params.clone()), huge.background)
        .unwrap_err();
    assert!(matches!(err, ServeError::Admission(_)));
    assert_eq!(server.loaded_scenes(), vec!["a".to_string()]);
    let frame = server
        .render_blocking(RenderRequest::full("a", a.train_cameras[0].clone()))
        .unwrap();
    assert!(frame.cache_hit, "a rejected load must not flush the cache");
}

#[test]
fn panicked_batch_records_one_error_per_dropped_job() {
    // Regression: a panic while rendering a batch of N jobs used to bump
    // `errors` by 1, so `completed + errors` stopped matching the submitted
    // request count. An out-of-range SH degree makes the batch path panic
    // deterministically.
    let scene = tiny_scene(140, 400);
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            max_batch: 8,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    // A burst against one worker so all the poisoned requests form one batch.
    let poisoned = 4;
    let tickets: Vec<_> = (0..poisoned)
        .map(|i| {
            let cam = scene.train_cameras[i % scene.train_cameras.len()].clone();
            let mut request = RenderRequest::full("city", cam);
            request.sh_degree = 99; // panics inside the batch render path
            server.submit(request).unwrap()
        })
        .collect();
    for t in tickets {
        assert!(
            matches!(t.wait(), Err(ServeError::ShuttingDown)),
            "a dropped job's ticket must resolve to an error, not hang"
        );
    }

    // The worker survives the panic and still serves good requests.
    let frame = server
        .render_blocking(RenderRequest::full("city", scene.train_cameras[0].clone()))
        .unwrap();
    assert_eq!(frame.image.width(), 64);

    // The dropped jobs are heat of the scene they asked for, not untracked.
    let (rows, untracked) = server.obs().heat_scenes().snapshot();
    assert_eq!(untracked, 0);
    assert_eq!((rows[0].key.as_str(), rows[0].requests), ("city", 5));
    assert_eq!(rows[0].error_ratio, 0.8);

    let stats = Arc::into_inner(server).unwrap().shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.errors, poisoned as u64,
        "every dropped job of the panicked batch must be counted"
    );
    assert_eq!(
        stats.completed + stats.errors,
        poisoned as u64 + 1,
        "completed + errors must account for every submitted request"
    );
    // Panicked batches still land in the histogram: requests summed over
    // the histogram reconcile with completed + errors.
    let histogram_requests: u64 = stats
        .batch_histogram
        .iter()
        .map(|&(s, c)| s as u64 * c)
        .sum();
    assert_eq!(
        histogram_requests,
        stats.completed + stats.errors,
        "the batch histogram must account for panicked batches too"
    );
}

#[test]
fn fast_path_hits_bypass_the_queue_and_its_latency_reservoir() {
    // Regression (hit-rate accounting): cache hits served before enqueue
    // must not land in the request-latency histogram — under repeat-heavy
    // traffic they used to drag p50 toward zero. They are counted as
    // completed + fast_hits, with their own hit-latency summary, and the
    // cache counters still reconcile (one counted lookup per request).
    let scene = tiny_scene(150, 600);
    let server = RenderServer::new(
        ServeConfig {
            workers: 1,
            cache_bytes: 32 << 20,
            pose_quant: 0.05,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    );
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    let cam = scene.train_cameras[0].clone();
    let first = server
        .render_blocking(RenderRequest::full("city", cam.clone()))
        .unwrap();
    assert!(!first.cache_hit);
    let repeats = 20u64;
    for _ in 0..repeats {
        let frame = server
            .render_blocking(RenderRequest::full("city", cam.clone()))
            .unwrap();
        assert!(frame.cache_hit);
        assert_eq!(
            frame.worker, 1,
            "a fast-path hit reports the pseudo worker index one past the pool"
        );
        assert_eq!(frame.image.data(), first.image.data());
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, repeats + 1);
    assert_eq!(
        stats.fast_hits, repeats,
        "every repeat was served pre-enqueue"
    );
    assert_eq!(stats.cache.hits, repeats);
    assert_eq!(
        stats.cache.misses, 1,
        "exactly one counted lookup per request"
    );
    // The queue-wait histogram holds only the single rendered request, so
    // its p50 is the render latency — not the near-zero hit latency.
    assert!(
        stats.latency.p50 >= stats.hit_latency.p50,
        "render-path p50 ({}) must not be diluted below the hit path ({})",
        stats.latency.p50,
        stats.hit_latency.p50
    );
    assert!(
        stats.hit_latency.max < stats.latency.max,
        "hits must be far cheaper than renders: {:?} vs {:?}",
        stats.hit_latency,
        stats.latency
    );
}

#[test]
fn batching_groups_same_scene_requests() {
    let scene = tiny_scene(120, 800);
    // One worker and a deep queue: submitting a burst asynchronously lets the
    // single worker batch same-scene neighbors.
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 1,
            queue_depth: 32,
            max_batch: 8,
            cache_bytes: 0,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    ));
    server
        .load_scene("city", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();

    let tickets: Vec<_> = (0..16)
        .map(|i| {
            let cam = scene.train_cameras[i % scene.train_cameras.len()].clone();
            server.submit(RenderRequest::full("city", cam)).unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 16);
    assert!(
        stats.mean_batch_size() > 1.0,
        "a burst against one worker should form multi-request batches: {:?}",
        stats.batch_histogram
    );
    assert!(
        stats.cull_sharing_factor() >= 1.0,
        "sharing factor is a ratio of summed to union active counts"
    );
}

#[test]
fn a_flood_of_unknown_scene_ids_adds_no_heat_row() {
    let scene = tiny_scene(120, 300);
    let server = RenderServer::new(no_cache_config(1), SceneRegistry::with_budget(1 << 30));
    server
        .load_scene("a", Arc::new(scene.gt_params.clone()), scene.background)
        .unwrap();
    let camera = &scene.train_cameras[0];
    for i in 0..10_000 {
        let request = RenderRequest::full(format!("ghost-{i}"), camera.clone());
        assert!(matches!(
            server.submit(request),
            Err(ServeError::UnknownScene(_))
        ));
    }
    server
        .render_blocking(RenderRequest::full("a", camera.clone()))
        .unwrap();
    let (rows, untracked) = server.obs().heat_scenes().snapshot();
    let keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
    assert_eq!(keys, ["a"], "only the served scene has a heat row");
    assert_eq!(untracked, 10_000);
    assert!(server.obs().heat_json().contains("\"untracked\":10000"));
}
