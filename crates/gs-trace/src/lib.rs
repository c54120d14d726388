//! `gs-trace`: workload capture and synthetic trace generation for the
//! 3DGS serving tier.
//!
//! The serving stack (scheduler, frame cache, sharding, cluster tier) makes
//! performance claims that must be tested against *production-shaped*
//! traffic, and compared across changes. This crate supplies the workload
//! layer those claims stand on:
//!
//! * [`mod@format`] — the `GSTR` binary trace format: a versioned,
//!   length-prefixed, lossless encoding of a request stream
//!   ([`TraceEvent`]: scene id, pose, deadline, arrival timestamp,
//!   client/session id, outcome, latency).
//! * [`recorder`] — the capture side: a [`TraceRecorder`] the `gs-serve`
//!   HTTP front-end and the `gs-cluster` coordinator push one event into
//!   per answered request.
//! * [`synth`] — seeded synthetic generators (Zipf scene popularity,
//!   diurnal curves, flash crowds, per-client camera tours): the standard
//!   scenario suite, deterministic in the seed.
//!
//! The deterministic *replayer* that drives a `RenderServer` or cluster
//! `Coordinator` from a trace lives in `gs-bench` (it needs the serving
//! crates; this crate deliberately depends only on `gs-core` so every
//! serving layer can depend on it).
//!
//! # Example
//!
//! ```
//! use gs_trace::{generate, SynthConfig, Trace};
//!
//! let trace = generate(&SynthConfig::zipf(200));
//! let blob = trace.encode();
//! assert_eq!(Trace::decode(&blob).unwrap(), trace);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod format;
pub mod recorder;
pub mod synth;

pub use format::{Outcome, Trace, TraceError, TraceEvent, TRACE_MAGIC, TRACE_VERSION};
pub use recorder::TraceRecorder;
pub use synth::{generate, scene_name, LoadShape, SynthConfig};
