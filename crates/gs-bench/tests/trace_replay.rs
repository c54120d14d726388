//! Integration tests for the trace replayer: deterministic replay against
//! the single-node server and the cluster coordinator, capture through the
//! coordinator hook, and the wire round trip of captured requests.

use std::sync::Arc;

use gs_bench::{fnv1a, replay, ReplayConfig};
use gs_cluster::{ClusterConfig, Coordinator, ReplicaTransport};
use gs_serve::{RenderServer, SceneRegistry, SceneSpec, ServeConfig, WireRequest};
use gs_trace::{generate, Outcome, SynthConfig, Trace, TraceRecorder};

/// A fresh single-node server holding every scene `trace` names, built
/// deterministically from the scene ids.
fn build_server(trace: &Trace) -> RenderServer {
    let server = RenderServer::new(
        ServeConfig {
            workers: 2,
            queue_depth: 32,
            max_batch: 4,
            cache_bytes: 16 << 20,
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 32),
    );
    for id in trace.scene_ids() {
        let mut spec = SceneSpec::new(300);
        spec.seed = fnv1a(id.as_bytes());
        server
            .load_scene(id, Arc::new(spec.build()), spec.background)
            .unwrap();
    }
    server
}

/// A fresh two-replica in-process cluster holding the trace's scenes, with
/// the coordinator-side cache enabled.
fn build_cluster(trace: &Trace) -> Coordinator {
    let coordinator = Coordinator::new(ClusterConfig {
        cache_bytes: 16 << 20,
        ..ClusterConfig::default()
    });
    for i in 0..2 {
        let replica = Arc::new(RenderServer::new(
            ServeConfig {
                workers: 1,
                queue_depth: 32,
                max_batch: 4,
                cache_bytes: 0,
                pose_quant: 0.05,
                shard_bytes: 0,
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(1 << 32),
        ));
        coordinator
            .add_replica(format!("replica-{i}"), ReplicaTransport::InProcess(replica))
            .unwrap();
    }
    for id in trace.scene_ids() {
        let mut spec = SceneSpec::new(300);
        spec.seed = fnv1a(id.as_bytes());
        coordinator
            .load_scene(id, Arc::new(spec.build()), spec.background)
            .unwrap();
    }
    coordinator
}

fn zipf_trace(requests: usize, seed: u64) -> Trace {
    let mut config = SynthConfig::zipf(requests);
    config.seed = seed;
    generate(&config)
}

#[test]
fn sequential_replay_is_deterministic_on_the_server() {
    let trace = zipf_trace(150, 3);
    let sequential = ReplayConfig::sequential();

    let first_server = build_server(&trace);
    let first = replay(&first_server, &trace, &sequential);
    let first_stats = first_server.shutdown();

    let second_server = build_server(&trace);
    let second = replay(&second_server, &trace, &sequential);
    let second_stats = second_server.shutdown();

    // The replay contract: identical per-request frame hashes AND outcome
    // sequences, which the fingerprint folds into one value...
    assert_eq!(first.fingerprint(), second.fingerprint());
    assert_eq!(first.len(), trace.len());
    for outcome in Outcome::ALL {
        assert_eq!(first.count(outcome), second.count(outcome), "{outcome}");
    }
    // ... and the servers' own counters agree too (sequential replay makes
    // even cache hit/miss interleaving deterministic).
    assert_eq!(first_stats.completed, second_stats.completed);
    assert_eq!(first_stats.errors, second_stats.errors);
    assert_eq!(first_stats.cache.hits, second_stats.cache.hits);
    assert_eq!(first_stats.cache.misses, second_stats.cache.misses);
    // The Zipf workload's dwell behavior must produce real cache traffic,
    // otherwise this test proves nothing about hit determinism.
    assert!(first.count(Outcome::CacheHit) > 0);
    assert!(first.served() == trace.len());
}

#[test]
fn replay_drives_the_cluster_and_the_coordinator_recorder_captures_it() {
    let trace = zipf_trace(90, 5);
    let sequential = ReplayConfig::sequential();

    let first_cluster = build_cluster(&trace);
    let recorder = Arc::new(TraceRecorder::new());
    first_cluster.set_recorder(Arc::clone(&recorder));
    let first = replay(&first_cluster, &trace, &sequential);

    let second_cluster = build_cluster(&trace);
    let second = replay(&second_cluster, &trace, &sequential);

    assert_eq!(first.fingerprint(), second.fingerprint());
    assert!(first.served() == trace.len());
    assert!(first.count(Outcome::CacheHit) > 0, "coordinator cache idle");

    // The capture hook saw every replayed request, with the client ids the
    // synthetic trace carried and outcomes matching the replay's own view.
    let captured = recorder.snapshot();
    assert_eq!(captured.len(), trace.len());
    assert_eq!(captured.client_ids(), trace.client_ids());
    assert_eq!(captured.scene_ids(), trace.scene_ids());
    let replayed_hits = first.count(Outcome::CacheHit);
    let captured_hits = captured
        .events
        .iter()
        .filter(|e| e.outcome == Outcome::CacheHit)
        .count();
    assert_eq!(replayed_hits, captured_hits);

    // A captured cluster trace is itself replayable: close the loop once.
    let reencoded = Trace::decode(&captured.encode()).unwrap();
    let third_cluster = build_cluster(&trace);
    let third = replay(&third_cluster, &reencoded, &sequential);
    assert_eq!(third.len(), trace.len());
    assert!(third.served() == trace.len());
}

#[test]
fn unknown_scenes_replay_as_error_outcomes_not_panics() {
    let trace = zipf_trace(40, 9);
    // A server that lost half the catalog (e.g. replayed against a smaller
    // deployment) answers UnknownScene; the replayer records the outcome.
    let server = RenderServer::new(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 30),
    );
    let keep: Vec<String> = trace.scene_ids().into_iter().take(2).collect();
    for id in &keep {
        let mut spec = SceneSpec::new(200);
        spec.seed = fnv1a(id.as_bytes());
        server
            .load_scene(id.clone(), Arc::new(spec.build()), spec.background)
            .unwrap();
    }
    let report = replay(&server, &trace, &ReplayConfig::sequential());
    server.shutdown();
    assert_eq!(report.len(), trace.len());
    assert!(report.count(Outcome::Error) > 0);
    assert!(report.served() > 0);
    assert_eq!(
        report.served() + report.count(Outcome::Error),
        trace.len(),
        "every event resolves to served-or-error under this setup"
    );
    // Error outcomes carry the zero hash, never a stale frame hash.
    assert!(report
        .requests
        .iter()
        .filter(|r| r.outcome == Outcome::Error)
        .all(|r| r.frame_hash == 0));
}

#[test]
fn closed_loop_concurrency_keeps_frame_hashes_deterministic() {
    let trace = zipf_trace(80, 13);
    // Cache off: concurrent replays interleave cache fills
    // nondeterministically, but rendering itself is bit-identical, so with
    // the cache out of the picture the full fingerprint must match the
    // sequential one.
    let build = || {
        let server = RenderServer::new(
            ServeConfig {
                workers: 2,
                queue_depth: 32,
                max_batch: 4,
                cache_bytes: 0,
                pose_quant: 0.05,
                shard_bytes: 0,
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(1 << 32),
        );
        for id in trace.scene_ids() {
            let mut spec = SceneSpec::new(300);
            spec.seed = fnv1a(id.as_bytes());
            server
                .load_scene(id, Arc::new(spec.build()), spec.background)
                .unwrap();
        }
        server
    };
    let sequential_server = build();
    let sequential = replay(&sequential_server, &trace, &ReplayConfig::sequential());
    sequential_server.shutdown();
    let concurrent_server = build();
    let concurrent = replay(&concurrent_server, &trace, &ReplayConfig::closed_loop(4));
    concurrent_server.shutdown();
    assert_eq!(sequential.fingerprint(), concurrent.fingerprint());
}

#[test]
fn replayed_wire_requests_match_the_capture() {
    // from_trace_event -> to_render_request must reconstruct the captured
    // camera bit for bit; spot-check through the replayer's request path.
    let trace = zipf_trace(10, 1);
    let event = &trace.events[0];
    let request = WireRequest::from_trace_event(event);
    assert_eq!(request.scene, event.scene);
    assert_eq!(request.position, event.position);
    assert_eq!(request.target, event.target);
    assert_eq!(request.up, event.up);
    assert_eq!(request.fov_x.to_bits(), event.fov_x.to_bits());
    assert_eq!(
        (request.width, request.height),
        (event.width as usize, event.height as usize)
    );
    assert_eq!(request.sh_degree, event.sh_degree as usize);
}
