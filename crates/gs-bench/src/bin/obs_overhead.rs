//! Observability overhead bench: the cost of the `gs-obs` layer on the
//! serving hot path.
//!
//! Runs the same closed-loop multi-scene workload four times against a
//! fresh [`RenderServer`] per mode:
//!
//! * **off** — tracing and kernel-phase sampling disabled, the seed's
//!   zero-observability baseline;
//! * **sampled** — the production default shape (every 64th request
//!   traced, every 32nd render phase-profiled);
//! * **full** — every request traced, every render phase-profiled, the
//!   worst case a debugging session can dial in;
//! * **off (A/A)** — off again: its apparent overhead against the first off
//!   mode is pure noise, so it shows what the bench can resolve.
//!
//! The sweep interleaves repetitions of all four modes and keeps each
//! mode's best-throughput run, so scheduler noise hits every mode alike.
//! The bench **asserts** that the sampled mode costs < 2% throughput
//! against off — the invariant that makes leaving sampling on in
//! production defensible — and prints all four modes.
//!
//! Usage: `cargo run --release -p gs-bench --bin obs_overhead [--full]`

use std::sync::Arc;

use gs_bench::{print_table, BenchArgs};
use gs_core::rng::Rng64;
use gs_scene::{SceneConfig, SceneDataset};
use gs_serve::{RenderRequest, RenderServer, SceneRegistry, ServeConfig, ServeStats};

struct Workload {
    scenes: Arc<Vec<SceneDataset>>,
    clients: usize,
    requests_per_client: usize,
    reps: usize,
}

fn build_workload(full: bool) -> Workload {
    let (num_scenes, gaussians, requests_per_client, reps) = if full {
        (5, 2000, 50, 3)
    } else {
        (4, 900, 25, 2)
    };
    let scenes: Vec<SceneDataset> = (0..num_scenes)
        .map(|i| {
            SceneDataset::generate(SceneConfig {
                name: format!("obs-{i}"),
                num_gaussians: gaussians,
                init_points: 64,
                width: 80,
                height: 60,
                num_train_views: 8,
                num_test_views: 2,
                target_active_ratio: 0.25,
                extent: 80.0,
                far_view_fraction: 0.0,
                seed: 5300 + i as u64,
            })
        })
        .collect();
    Workload {
        scenes: Arc::new(scenes),
        clients: 8,
        requests_per_client,
        reps,
    }
}

/// One observability dial setting under test.
struct Mode {
    label: &'static str,
    trace_sample_every: u32,
    phase_sample_every: u32,
}

const MODES: [Mode; 4] = [
    Mode {
        label: "obs=off",
        trace_sample_every: 0,
        phase_sample_every: 0,
    },
    Mode {
        label: "obs=sampled",
        trace_sample_every: 64,
        phase_sample_every: 32,
    },
    Mode {
        label: "obs=full",
        trace_sample_every: 1,
        phase_sample_every: 1,
    },
    Mode {
        label: "obs=off (A/A)",
        trace_sample_every: 0,
        phase_sample_every: 0,
    },
];

/// One closed-loop run against a fresh server with the mode's dials.
fn run(workload: &Workload, mode: &Mode) -> ServeStats {
    let server = Arc::new(RenderServer::new(
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            max_batch: 8,
            cache_bytes: 0,
            trace_sample_every: mode.trace_sample_every,
            phase_sample_every: mode.phase_sample_every,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 32),
    ));
    for (i, scene) in workload.scenes.iter().enumerate() {
        server
            .load_scene(
                format!("obs-{i}"),
                Arc::new(scene.gt_params.clone()),
                scene.background,
            )
            .unwrap();
    }
    let handles: Vec<_> = (0..workload.clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let scenes = Arc::clone(&workload.scenes);
            let n = workload.requests_per_client;
            std::thread::spawn(move || {
                let mut rng = Rng64::seed_from_u64(11_000 + c as u64);
                for _ in 0..n {
                    let idx = rng.gen_range(0usize..scenes.len());
                    let scene = &scenes[idx];
                    let cam = scene.train_cameras[rng.gen_range(0usize..scene.train_cameras.len())]
                        .clone();
                    server
                        .render_blocking(RenderRequest::full(format!("obs-{idx}"), cam))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    Arc::into_inner(server).unwrap().shutdown()
}

fn main() {
    let args = BenchArgs::parse();
    let workload = build_workload(args.full);
    let total = workload.clients * workload.requests_per_client;
    println!(
        "workload: {} scenes, {} clients x {} closed-loop requests = {} total, best of {} rep(s) per mode",
        workload.scenes.len(),
        workload.clients,
        workload.requests_per_client,
        total,
        workload.reps
    );

    // Interleaved repetitions: rep 0 runs every mode back to back,
    // then rep 1, ... — so a load spike on the runner degrades all modes,
    // not just whichever one it landed on. Keep each mode's best run.
    // Best-of converges upward with more samples, so when the measured
    // overhead breaches the budget we add rounds before concluding it is
    // real: a shared 1-core CI runner can swing a single rep by ±5%, and
    // only a breach that survives every round should fail the job.
    const MAX_ROUNDS: usize = 3;
    let mut best: [Option<ServeStats>; 4] = [None, None, None, None];
    for round in 1..=MAX_ROUNDS {
        for _ in 0..workload.reps {
            for (slot, mode) in best.iter_mut().zip(MODES.iter()) {
                let stats = run(&workload, mode);
                let better = slot
                    .as_ref()
                    .is_none_or(|prev| stats.throughput_rps() > prev.throughput_rps());
                if better {
                    *slot = Some(stats);
                }
            }
        }
        let [Some(off), Some(sampled), ..] = &best else {
            unreachable!("every mode ran at least once");
        };
        let overhead = 1.0 - sampled.throughput_rps() / off.throughput_rps();
        if overhead < 0.02 {
            break;
        }
        if round < MAX_ROUNDS {
            println!(
                "sampled overhead {:+.2}% after round {round}; re-measuring to rule out runner noise",
                overhead * 100.0
            );
        }
    }
    let best: Vec<ServeStats> = best.into_iter().map(Option::unwrap).collect();

    let off_rps = best[0].throughput_rps();
    let mut rows = Vec::new();
    for (mode, stats) in MODES.iter().zip(&best) {
        let overhead = 1.0 - stats.throughput_rps() / off_rps;
        rows.push(vec![
            mode.label.to_string(),
            format!("{}/{}", mode.trace_sample_every, mode.phase_sample_every),
            format!("{:.1}", stats.throughput_rps()),
            format!("{:+.2}%", overhead * 100.0),
            format!("{:.2}", stats.latency.p50 * 1e3),
            format!("{:.2}", stats.latency.p99 * 1e3),
        ]);
    }
    print_table(
        "Observability overhead: trace/phase sampling vs throughput and tail latency",
        &[
            "Mode",
            "trace/phase",
            "req/s",
            "overhead",
            "p50 (ms)",
            "p99 (ms)",
        ],
        &rows,
    );

    let sampled_overhead = 1.0 - best[1].throughput_rps() / off_rps;
    let full_overhead = 1.0 - best[2].throughput_rps() / off_rps;
    let off_aa = 1.0 - best[3].throughput_rps() / off_rps;
    println!(
        "\nsampled overhead: {:+.2}% throughput vs off (full-on: {:+.2}%; \
         off A/A: {:+.2}%, the noise the 2% budget is read against)",
        sampled_overhead * 100.0,
        full_overhead * 100.0,
        off_aa * 100.0
    );

    // The contract this bench exists to hold: sampled observability is
    // cheap enough to leave on in production.
    assert!(
        sampled_overhead < 0.02,
        "sampled observability overhead {:.2}% breaches the 2% budget",
        sampled_overhead * 100.0
    );
    println!("sampled overhead within the 2% budget");
}
