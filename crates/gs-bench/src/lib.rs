//! Benchmark harness regenerating every table and figure of the GS-Scale
//! paper's evaluation.
//!
//! Each binary under `src/bin/` reproduces one experiment and prints the
//! corresponding rows/series (see DESIGN.md for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results). The [`harness`] module
//! holds the shared machinery: scene construction at a runnable scale,
//! trainer construction per system, throughput measurement, the shared
//! CLI flags ([`BenchArgs`]) and table formatting. [`perf`] adds the
//! machine-readable `BENCH_<name>.json` perf-trajectory reports ([`json`]
//! reads them back for the CI regression diff, see the `bench_diff`
//! binary), and
//! [`replay`] the deterministic workload replayer driving captured
//! [`gs_trace::Trace`]s back through a `RenderServer` or a cluster
//! `Coordinator` (see the `trace_replay` binary). Per-kernel and
//! per-optimizer timings are the per-layer probes of the repository's
//! benchmark (`bench/`).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod json;
pub mod perf;
pub mod replay;

pub use harness::{
    build_offload_options, build_scene, fmt_gb, fmt_ratio, initial_params, measure_run,
    print_table, quality_after_training, BenchArgs, ExperimentScale,
};
pub use perf::{BenchReport, BenchScenario, RooflineEntry};
pub use replay::{
    fnv1a, hash_image, replay, replay_events, ReplayConfig, ReplayMode, ReplayReport, ReplayTarget,
    ReplayedRequest,
};
