//! Benchmark harness regenerating every table and figure of the GS-Scale
//! paper's evaluation.
//!
//! Each binary under `src/bin/` reproduces one experiment and prints the
//! corresponding rows/series. The [`harness`] module holds the shared
//! machinery: scene construction at a runnable scale, the one recorded
//! training run per scene that every system is modelled from, the shared
//! CLI flags ([`BenchArgs`]) and table formatting. [`mod@replay`] is the
//! deterministic workload replayer driving captured [`gs_trace::Trace`]s
//! back through a `RenderServer` or a cluster `Coordinator` (see the
//! `trace_replay` binary). The remaining binaries are checks: `obs_smoke`,
//! `obs_overhead` and `cluster_replication` exit non-zero when their
//! contract breaks. Performance is tracked by the repository's benchmark
//! (`bench/`), which does not link this crate.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod replay;

pub use harness::{
    build_scene, fmt_gb, initial_params, print_table, quality_after_training, record_run,
    BenchArgs, ExperimentScale,
};
pub use replay::{
    fnv1a, hash_image, replay, replay_events, ReplayConfig, ReplayMode, ReplayReport, ReplayTarget,
    ReplayedRequest,
};
