//! Workload capture & deterministic replay driver for `gs-trace`.
//!
//! With no arguments the binary runs the CI smoke: synthesize a Zipf
//! workload, drive it through the recorded HTTP front-end over real
//! loopback TCP, round-trip the captured trace through the `GSTR` wire
//! format and the filesystem, replay it twice sequentially (asserting
//! bit-identical frame fingerprints and equal outcome counters), and
//! finally replay a mixed-tier workload (Zipf steady state merged with a
//! flash crowd via [`Trace::merge`]) through a 2-replica sharded cluster
//! `Coordinator`, asserting the cluster tier replays deterministically too.
//!
//! Subcommands:
//!
//! ```text
//! trace_replay                                  # CI smoke (see above)
//! trace_replay generate <scenario> <out.gstr> [--requests N] [--seed S]
//! trace_replay replay <trace.gstr> [--open <speed>] [--concurrency N]
//! ```
//!
//! Scenarios: `zipf`, `diurnal`, `flash`, `tour`.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gs_bench::{replay, ReplayConfig};
use gs_cluster::{ClusterConfig, Coordinator, ReplicaTransport};
use gs_serve::http::client;
use gs_serve::{
    HttpConfig, HttpServer, RenderServer, SceneRegistry, SceneSpec, ServeConfig, WireRequest,
};
use gs_trace::{generate, SynthConfig, Trace, TraceRecorder};

/// A fresh replay server holding every scene the trace names, built
/// deterministically from the scene id (so two builds are identical).
fn build_server(trace: &Trace, cache: bool) -> RenderServer {
    let server = RenderServer::new(
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            max_batch: 4,
            cache_bytes: if cache { 32 << 20 } else { 0 },
            pose_quant: 0.05,
            shard_bytes: 0,
            ..ServeConfig::default()
        },
        SceneRegistry::with_budget(1 << 32),
    );
    for id in trace.scene_ids() {
        let mut spec = SceneSpec::new(400);
        spec.seed = gs_bench::fnv1a(id.as_bytes());
        server
            .load_scene(id, Arc::new(spec.build()), spec.background)
            .expect("replay scene admits under the budget");
    }
    server
}

/// A fresh 2-replica cluster with every scene the trace names sharded
/// across the fleet, built deterministically (same shape as
/// [`build_server`], one tier up).
fn build_cluster(trace: &Trace) -> Arc<Coordinator> {
    let cluster = Arc::new(Coordinator::new(ClusterConfig::default()));
    for i in 0..2 {
        let server = Arc::new(RenderServer::new(
            ServeConfig {
                workers: 2,
                queue_depth: 64,
                max_batch: 4,
                cache_bytes: 0,
                pose_quant: 0.05,
                shard_bytes: 0,
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(1 << 32),
        ));
        cluster
            .add_replica(format!("replica-{i}"), ReplicaTransport::InProcess(server))
            .expect("in-process replica joins");
    }
    for id in trace.scene_ids() {
        let mut spec = SceneSpec::new(400);
        spec.seed = gs_bench::fnv1a(id.as_bytes());
        cluster
            .load_scene_sharded(id, Arc::new(spec.build()), spec.background, 2)
            .expect("sharded scene loads across the fleet");
    }
    cluster
}

fn synth_config(scenario: &str, requests: usize, seed: u64) -> SynthConfig {
    let mut config = match scenario {
        "zipf" => SynthConfig::zipf(requests),
        "diurnal" => SynthConfig::diurnal(requests),
        "flash" => SynthConfig::flash_crowd(requests),
        "tour" => SynthConfig::camera_tour(requests),
        other => {
            eprintln!("unknown scenario {other:?} (use zipf|diurnal|flash|tour)");
            std::process::exit(2);
        }
    };
    config.seed = seed;
    config
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn load_trace(path: &str) -> Trace {
    match Trace::load(std::path::Path::new(path)) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("cannot load trace {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn print_report(label: &str, report: &gs_bench::ReplayReport) {
    println!(
        "{label}: {} events in {:.2}s ({:.1} req/s) | served {} (hit rate {:.1}%) | \
         p50 {:.2} ms p99 {:.2} ms | fingerprint {:016x}",
        report.len(),
        report.wall.as_secs_f64(),
        report.throughput_rps(),
        report.served(),
        report.hit_rate() * 100.0,
        report.latency_ms(0.50),
        report.latency_ms(0.99),
        report.fingerprint(),
    );
}

fn cmd_generate(args: &[String]) {
    let (scenario, out) = match (args.first(), args.get(1)) {
        (Some(s), Some(o)) if !s.starts_with("--") && !o.starts_with("--") => {
            (s.clone(), o.clone())
        }
        _ => {
            eprintln!(
                "usage: trace_replay generate <scenario> <out.gstr> [--requests N] [--seed S]"
            );
            std::process::exit(2);
        }
    };
    let requests = flag_value(args, "--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(600);
    let config = synth_config(
        &scenario,
        requests,
        flag_value(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1),
    );
    let trace = generate(&config);
    trace
        .save(std::path::Path::new(&out))
        .expect("trace file is writable");
    println!(
        "generated {scenario} trace: {} events, {} scene(s), {} client(s), {:.2}s span -> {out}",
        trace.len(),
        trace.scene_ids().len(),
        trace.client_ids().len(),
        trace.duration_us() as f64 / 1e6,
    );
}

fn cmd_replay(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: trace_replay replay <trace.gstr> [--open <speed>] [--concurrency N]");
        std::process::exit(2);
    };
    let trace = load_trace(path);
    let concurrency = flag_value(args, "--concurrency")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let config = match flag_value(args, "--open").and_then(|v| v.parse::<f64>().ok()) {
        Some(speed) => ReplayConfig::open_loop(speed, concurrency.max(2)),
        None => ReplayConfig::closed_loop(concurrency),
    };
    let server = build_server(&trace, true);
    let report = replay(&server, &trace, &config);
    print_report("replay", &report);
    server.shutdown();
}

/// The CI smoke: capture over real TCP, round-trip, replay twice.
fn smoke() {
    // 1. Synthesize a cache-friendly Zipf workload.
    let config = synth_config("zipf", 240, 7);
    let synthetic = generate(&config);
    println!(
        "synthesized {} events over {} scene(s) / {} client(s)",
        synthetic.len(),
        synthetic.scene_ids().len(),
        synthetic.client_ids().len(),
    );

    // 2. Capture: drive every event through the recorded HTTP front-end.
    let server = Arc::new(build_server(&synthetic, true));
    let recorder = Arc::new(TraceRecorder::new());
    let http = HttpServer::bind_recorded(
        HttpConfig::default(),
        Arc::clone(&server),
        Arc::clone(&recorder),
    )
    .expect("loopback bind");
    let addr = http.local_addr();
    let mut stream = TcpStream::connect(addr).expect("loopback connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("socket timeout");
    for event in &synthetic.events {
        let body = WireRequest::from_trace_event(event).to_body();
        let response = client::request(&mut stream, "POST", "/render", body.as_bytes())
            .expect("render request");
        assert_eq!(response.status, 200, "render failed: {body}");
    }
    drop(stream);
    http.shutdown();
    let captured = recorder.snapshot();
    assert_eq!(
        captured.len(),
        synthetic.len(),
        "every driven request must be captured"
    );
    assert_eq!(recorder.dropped(), 0);
    println!(
        "capture: PASS ({} events recorded over HTTP, {} served from cache)",
        captured.len(),
        captured
            .events
            .iter()
            .filter(|e| e.outcome == gs_trace::Outcome::CacheHit)
            .count(),
    );

    // 3. Wire + filesystem round trip.
    let decoded = Trace::decode(&captured.encode()).expect("self-encoded trace decodes");
    assert_eq!(decoded, captured);
    let path = std::env::temp_dir().join(format!("trace_replay_smoke_{}.gstr", std::process::id()));
    captured.save(&path).expect("trace file is writable");
    let loaded = Trace::load(&path).expect("trace file loads");
    assert_eq!(loaded, captured);
    std::fs::remove_file(&path).ok();
    println!("roundtrip: PASS (encode/decode and save/load are lossless)");

    // 4. Deterministic replay: two sequential replays on identically-built
    //    fresh servers agree on every frame hash and every outcome.
    let sequential = ReplayConfig::sequential();
    let first_server = build_server(&captured, true);
    let first = replay(&first_server, &captured, &sequential);
    first_server.shutdown();
    let second_server = build_server(&captured, true);
    let second = replay(&second_server, &captured, &sequential);
    second_server.shutdown();
    print_report("replay #1", &first);
    print_report("replay #2", &second);
    assert_eq!(
        first.fingerprint(),
        second.fingerprint(),
        "sequential replays must agree bit for bit"
    );
    for outcome in gs_trace::Outcome::ALL {
        assert_eq!(first.count(outcome), second.count(outcome), "{outcome}");
    }
    assert!(first.served() > 0);
    println!("determinism: PASS (identical fingerprints and outcome counters)");

    // 5. Mixed-tier cluster replay: steady Zipf traffic merged with a flash
    //    crowd on a shared timeline, driven through a 2-replica cluster
    //    Coordinator with the scene sharded across the fleet. Two replays on
    //    identically-built clusters must agree bit for bit, which pins down
    //    determinism across the whole serving stack — coordinator routing,
    //    cross-node layer composition, and the tile-parallel kernels under
    //    a bursty arrival pattern.
    let mixed = Trace::merge([
        generate(&synth_config("zipf", 120, 21)),
        generate(&synth_config("flash", 120, 22)),
    ]);
    println!(
        "mixed-tier trace: {} events, {} scene(s), {:.2}s span",
        mixed.len(),
        mixed.scene_ids().len(),
        mixed.duration_us() as f64 / 1e6,
    );
    let first = {
        let cluster = build_cluster(&mixed);
        replay(&*cluster, &mixed, &ReplayConfig::sequential())
    };
    let second = {
        let cluster = build_cluster(&mixed);
        replay(&*cluster, &mixed, &ReplayConfig::sequential())
    };
    print_report("cluster replay #1", &first);
    print_report("cluster replay #2", &second);
    assert_eq!(
        first.fingerprint(),
        second.fingerprint(),
        "mixed-tier cluster replays must agree bit for bit"
    );
    for outcome in gs_trace::Outcome::ALL {
        assert_eq!(first.count(outcome), second.count(outcome), "{outcome}");
    }
    assert!(first.served() == mixed.len(), "every event must be served");
    println!("cluster: PASS (mixed zipf+flash trace replays deterministically over shards)");

    println!("\ntrace_replay smoke: all checks passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => smoke(),
        Some("generate") => cmd_generate(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some(other) => {
            eprintln!("unknown subcommand {other:?} (use generate|replay or no arguments)");
            std::process::exit(2);
        }
    }
}
