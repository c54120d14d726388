//! `gs-obs`: observability primitives shared by both serving tiers.
//!
//! The serving stack spans queue → scheduler → workers → kernels → shard
//! relay → cluster coordinator; this crate provides the per-request and
//! aggregate visibility layers that the tiers thread through that path:
//!
//! * [`clock`] — [`SpanClock`]: a wall-clock anchor captured once at
//!   creation plus monotonic offsets, so span timestamps are absolute
//!   microseconds that agree across nodes (no per-sample `SystemTime`
//!   reads, no monotonic/wall skew inside one process).
//! * [`span`] — [`TraceId`]s minted at ingress, the [`RequestTrace`] span
//!   tree shared across the threads that serve one request, and the
//!   compact wire encoding that ships a replica's spans back to the
//!   coordinator so a cross-node sharded render yields **one stitched
//!   tree**.
//! * [`sink`] — [`SpanSink`]: a bounded ring of finished traces with a
//!   drop counter, cheap enough to leave on in production.
//! * [`export`] — Chrome trace-event JSON (loadable in `chrome://tracing`
//!   / Perfetto).
//! * [`metrics`] — [`Registry`]: counters, gauges and mergeable
//!   fixed-edge latency histograms ([`HistogramSnapshot`], the one latency
//!   record of each tier, with per-bucket trace-id **exemplars**), Prometheus text
//!   exposition ([`Registry::render`]) and a tiny exposition-format
//!   linter ([`lint_prometheus`]) used by CI.
//!
//! On top of those primitives sits the interpretation layer:
//!
//! * [`slo`] — [`SloEngine`]: declarative SLOs evaluated with
//!   multi-window burn-rate math, exported as `gs_slo_*` gauges and the
//!   `/slo` endpoint.
//! * [`heat`] — [`HeatTable`]: a windowed per-scene top-K request-rate,
//!   hit-rate and latency table behind a count-min admission filter (the
//!   `/heat` endpoint and the replication decision input).
//! * [`events`] — [`FlightRecorder`]: a bounded ring of structured wide
//!   events plus incident capture (a metrics snapshot at anomaly time)
//!   driven by a [`Watcher`] thread (`/events`, `/incidents`).
//!
//! The crate depends only on `gs-core` and the standard library.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod events;
pub mod export;
pub mod heat;
pub mod metrics;
pub mod sink;
pub mod slo;
pub mod span;

pub use clock::SpanClock;
pub use events::{
    events_json, incidents_json, Event, EventLevel, FlightRecorder, Incident, Watcher,
};
pub use export::chrome_trace_json;
pub use heat::{heat_json, HeatRow, HeatTable};
pub use metrics::{
    lint_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, Registry, HISTOGRAM_BUCKETS,
    LATENCY_BUCKETS,
};
pub use sink::{FinishedTrace, SpanSink};
pub use slo::{default_slos, slo_json, SloEngine, SloKind, SloSpec, SloStatus};
pub use span::{
    decode_spans, encode_spans, RequestTrace, Span, SpanRecord, TraceContext, TraceId,
    REMOTE_SPAN_ID_BASE,
};
