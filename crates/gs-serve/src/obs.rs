//! Live observability of the render server: trace sampling, the span
//! sink, and kernel-phase roofline aggregates.
//!
//! [`ServeObs`] is the one handle the serving hot path consults. It owns
//! three things:
//!
//! * the **trace sampler** — every Nth ingress request gets a
//!   [`gs_obs::RequestTrace`] minted ([`ServeObs::should_trace`]); the
//!   finished tree lands in a bounded [`SpanSink`] ring;
//! * the **phase profiler** — every Nth production render contributes its
//!   measured `project` / `bin` / `raster` timings plus analytic work
//!   estimates to per-phase accumulators, which `GET /metrics` exposes as
//!   roofline gauges (achieved FLOP/s, bandwidth, operational intensity)
//!   without ever re-measuring a kernel;
//! * the shared [`Registry`] the request counters already live in.
//!
//! All hot-path operations are a handful of relaxed atomics; the mutexes
//! (sink ring, span storage) are touched once per *request*, not per span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gs_obs::{
    chrome_trace_json, default_slos, events_json, heat_json, incidents_json, slo_json,
    FinishedTrace, FlightRecorder, Gauge, HeatTable, Registry, RequestTrace, SloEngine, SloStatus,
    SpanClock, SpanSink, TraceId,
};
use gs_platform::roofline::{RooflinePoint, Work};
use gs_render::cost::{self, WorkEstimate};
use gs_render::pipeline::{RenderStats, RenderTimings};

/// Request header carrying the trace id across nodes.
pub const TRACE_ID_HEADER: &str = "X-Trace-Id";
/// Request header carrying the parent span id of a relayed render.
pub const TRACE_PARENT_HEADER: &str = "X-Trace-Parent";
/// Response header returning a remote node's finished spans
/// ([`gs_obs::encode_spans`] form) to the caller that owns the trace.
pub const TRACE_SPANS_HEADER: &str = "X-Trace-Spans";

/// A kernel phase of the forward render pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// EWA projection of Gaussians to screen-space splats.
    Project,
    /// Tile binning and per-tile depth sort.
    Bin,
    /// Front-to-back alpha blending.
    Raster,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 3] = [Phase::Project, Phase::Bin, Phase::Raster];

    /// The phase's metric label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Project => "project",
            Phase::Bin => "bin",
            Phase::Raster => "raster",
        }
    }
}

/// Lock-free per-phase accumulator: seconds (as nanos), work estimate and
/// sample count.
#[derive(Debug, Default)]
struct PhaseAccum {
    nanos: AtomicU64,
    flops: AtomicU64,
    bytes: AtomicU64,
    samples: AtomicU64,
}

/// Scrape-time gauges of one phase's roofline aggregate.
#[derive(Debug, Clone)]
struct PhaseGauges {
    seconds: Gauge,
    samples: Gauge,
    flops_per_second: Gauge,
    bytes_per_second: Gauge,
    intensity: Gauge,
}

/// Finished traces the span sink holds.
const SPAN_RING: usize = 256;
/// Events the flight recorder's ring holds.
const EVENT_RING: usize = 256;
/// Good fraction the latency SLO targets.
const SLO_LATENCY_TARGET: f64 = 0.99;

/// Knobs of the interpretation layer (SLO engine, heat table, flight
/// recorder, watcher) that [`ServeObs::with_tuning`] builds from. The
/// defaults suit production; tests shrink the windows to drive breach /
/// recovery cycles in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsTuning {
    /// SLO fast (detection) window, seconds.
    pub slo_fast_window_s: u64,
    /// SLO slow (confirmation) window, seconds.
    pub slo_slow_window_s: u64,
    /// Latency-SLO bound in milliseconds.
    pub slo_p99_ms: f64,
    /// Availability-SLO target good fraction.
    pub slo_availability_target: f64,
    /// Burn-rate threshold both windows must reach to breach.
    pub slo_burn_threshold: f64,
    /// Heat-table sliding window, seconds.
    pub heat_window_s: u64,
    /// Hottest scenes the heat table tracks exactly.
    pub heat_top_k: usize,
    /// Watcher tick interval in milliseconds (`0` = no watcher thread;
    /// `watch_tick` can still be driven manually).
    pub watcher_interval_ms: u64,
}

impl Default for ObsTuning {
    fn default() -> Self {
        Self {
            slo_fast_window_s: 10,
            slo_slow_window_s: 120,
            slo_p99_ms: 250.0,
            slo_availability_target: 0.999,
            slo_burn_threshold: 2.0,
            heat_window_s: 60,
            heat_top_k: 16,
            watcher_interval_ms: 250,
        }
    }
}

/// The server's observability state (see module docs).
#[derive(Debug)]
pub struct ServeObs {
    registry: Arc<Registry>,
    sink: SpanSink,
    clock: SpanClock,
    node: String,
    trace_sample_every: u32,
    phase_sample_every: u32,
    trace_tick: AtomicU64,
    phase_tick: AtomicU64,
    phases: [PhaseAccum; 3],
    phase_gauges: Vec<PhaseGauges>,
    traces_finished: Gauge,
    traces_dropped: Gauge,
    trace_ring_held: Gauge,
    slo: SloEngine,
    heat_scenes: HeatTable,
    recorder: FlightRecorder,
    uptime_gauge: Gauge,
    events_recorded: Gauge,
    events_dropped: Gauge,
    event_ring_held: Gauge,
    incidents_total: Gauge,
}

impl ServeObs {
    /// Builds the observability state, including the interpretation
    /// layer (SLO engine, heat table, flight recorder) sized by `tuning`.
    ///
    /// `trace_sample_every` = 0 disables tracing entirely, 1 traces every
    /// request, N traces every Nth; `phase_sample_every` works the same
    /// way for kernel-phase profiling. The watcher thread is **not**
    /// spawned here — the owner wires [`ServeObs::watch_tick`] into a
    /// [`gs_obs::Watcher`] so the tick closure can fold in owner-side
    /// probes (queue stalls).
    pub fn with_tuning(
        registry: Arc<Registry>,
        node: impl Into<String>,
        trace_sample_every: u32,
        phase_sample_every: u32,
        tuning: &ObsTuning,
    ) -> Self {
        let phase_gauges = Phase::ALL
            .iter()
            .map(|p| {
                let labels = [("phase", p.name())];
                PhaseGauges {
                    seconds: registry.gauge(
                        "gs_phase_seconds",
                        &labels,
                        "Seconds spent in this kernel phase across sampled renders",
                    ),
                    samples: registry.gauge(
                        "gs_phase_samples",
                        &labels,
                        "Sampled renders contributing to this phase aggregate",
                    ),
                    flops_per_second: registry.gauge(
                        "gs_phase_flops_per_second",
                        &labels,
                        "Achieved FLOP/s of this phase (roofline)",
                    ),
                    bytes_per_second: registry.gauge(
                        "gs_phase_bytes_per_second",
                        &labels,
                        "Achieved memory bandwidth of this phase (roofline)",
                    ),
                    intensity: registry.gauge(
                        "gs_phase_intensity",
                        &labels,
                        "Operational intensity of this phase in FLOP/byte",
                    ),
                }
            })
            .collect();
        let traces_finished = registry.gauge(
            "gs_traces_finished",
            &[],
            "Request traces finished (kept + dropped)",
        );
        let traces_dropped = registry.gauge(
            "gs_traces_dropped",
            &[],
            "Request traces evicted or refused by the bounded span ring",
        );
        let trace_ring_held =
            registry.gauge("gs_trace_ring_held", &[], "Traces currently in the ring");
        let node = node.into();
        registry
            .gauge(
                "gs_build_info",
                &[("version", env!("CARGO_PKG_VERSION")), ("node", &node)],
                "Constant 1; the labels carry the build version and node",
            )
            .set(1.0);
        let uptime_gauge =
            registry.gauge("gs_uptime_seconds", &[], "Seconds since this tier started");
        let events_recorded = registry.gauge(
            "gs_events_recorded",
            &[],
            "Flight-recorder events recorded (kept + dropped)",
        );
        let events_dropped = registry.gauge(
            "gs_events_dropped",
            &[],
            "Flight-recorder events evicted by the bounded event ring",
        );
        let event_ring_held =
            registry.gauge("gs_event_ring_held", &[], "Events currently in the ring");
        let incidents_total = registry.gauge("gs_incidents_total", &[], "Incidents ever opened");
        let slo = SloEngine::new(
            &registry,
            default_slos(
                tuning.slo_p99_ms,
                SLO_LATENCY_TARGET,
                tuning.slo_availability_target,
            )
            .into_iter()
            .map(|mut spec| {
                spec.fast_window_s = tuning.slo_fast_window_s;
                spec.slow_window_s = tuning.slo_slow_window_s;
                spec.burn_threshold = tuning.slo_burn_threshold;
                spec
            })
            .collect(),
        );
        Self {
            slo,
            heat_scenes: HeatTable::new(tuning.heat_window_s, tuning.heat_top_k),
            recorder: FlightRecorder::new(EVENT_RING),
            registry,
            sink: SpanSink::new(SPAN_RING),
            clock: SpanClock::new(),
            node,
            trace_sample_every,
            phase_sample_every,
            trace_tick: AtomicU64::new(0),
            phase_tick: AtomicU64::new(0),
            phases: Default::default(),
            phase_gauges,
            traces_finished,
            traces_dropped,
            trace_ring_held,
            uptime_gauge,
            events_recorded,
            events_dropped,
            event_ring_held,
            incidents_total,
        }
    }

    /// The registry shared with the stats collector.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The bounded ring finished traces land in.
    pub fn sink(&self) -> &SpanSink {
        &self.sink
    }

    /// The clock locally-minted traces are stamped with.
    pub fn clock(&self) -> &SpanClock {
        &self.clock
    }

    /// The node label spans recorded here carry.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Whether the next ingress request should get a trace minted
    /// (advances the sampling tick).
    pub fn should_trace(&self) -> bool {
        match self.trace_sample_every {
            0 => false,
            n => self
                .trace_tick
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(n as u64),
        }
    }

    /// Mints a fresh trace rooted at this node.
    pub fn mint(&self) -> RequestTrace {
        RequestTrace::new(TraceId::generate(), &self.node)
    }

    /// Whether the next render should contribute kernel-phase samples
    /// (advances the sampling tick).
    pub fn should_sample_phases(&self) -> bool {
        match self.phase_sample_every {
            0 => false,
            n => self
                .phase_tick
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(n as u64),
        }
    }

    /// Adds one measured interval of `phase` plus its analytic work
    /// estimate to the aggregate.
    pub fn record_phase(&self, phase: Phase, seconds: f64, work: &WorkEstimate) {
        let accum = &self.phases[phase as usize];
        accum
            .nanos
            .fetch_add((seconds.max(0.0) * 1e9).round() as u64, Ordering::Relaxed);
        accum
            .flops
            .fetch_add(work.flops.max(0.0).round() as u64, Ordering::Relaxed);
        accum.bytes.fetch_add(
            work.total_bytes().max(0.0).round() as u64,
            Ordering::Relaxed,
        );
        accum.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Feeds one render's measured phase timings (and the work estimates
    /// its stats imply) into the aggregates — the production counterpart
    /// of the offline roofline benches. Returns whether the render was
    /// sampled.
    pub fn sample_render(&self, stats: &RenderStats, timings: &RenderTimings) -> bool {
        if !self.should_sample_phases() {
            return false;
        }
        self.record_phase(
            Phase::Project,
            timings.project_s,
            &cost::projection_cost(stats.num_input),
        );
        self.record_phase(Phase::Bin, timings.bin_s, &bin_cost(stats));
        self.record_phase(
            Phase::Raster,
            timings.raster_s,
            &cost::raster_forward_cost(stats.num_pairs, stats.num_pixels),
        );
        true
    }

    /// The aggregated [`RooflinePoint`] of a phase, if it has samples.
    pub fn phase_roofline(&self, phase: Phase) -> Option<RooflinePoint> {
        let accum = &self.phases[phase as usize];
        if accum.samples.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let seconds = accum.nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let work = Work::new(
            accum.flops.load(Ordering::Relaxed) as f64,
            accum.bytes.load(Ordering::Relaxed) as f64,
        );
        Some(RooflinePoint::new(&work, seconds.max(1e-12)))
    }

    /// Refreshes the scrape-time gauges (phase rooflines, sink counters);
    /// called right before rendering `GET /metrics`.
    pub fn refresh_gauges(&self) {
        for (phase, gauges) in Phase::ALL.iter().zip(&self.phase_gauges) {
            let accum = &self.phases[*phase as usize];
            let samples = accum.samples.load(Ordering::Relaxed);
            gauges.samples.set(samples as f64);
            gauges
                .seconds
                .set(accum.nanos.load(Ordering::Relaxed) as f64 / 1e9);
            if let Some(point) = self.phase_roofline(*phase) {
                gauges.flops_per_second.set(point.achieved_flops());
                gauges.bytes_per_second.set(point.achieved_bandwidth());
                gauges.intensity.set(point.operational_intensity());
            }
        }
        self.traces_finished.set(self.sink.finished() as f64);
        self.traces_dropped.set(self.sink.dropped() as f64);
        self.trace_ring_held.set(self.sink.len() as f64);
        self.uptime_gauge.set(self.uptime_s());
        self.events_recorded.set(self.recorder.recorded() as f64);
        self.events_dropped.set(self.recorder.dropped() as f64);
        self.event_ring_held.set(self.recorder.held() as f64);
        self.incidents_total
            .set(self.recorder.incidents_opened() as f64);
        self.slo.report();
    }

    /// Files a finished trace into the ring.
    pub fn finish(&self, trace: &RequestTrace) {
        self.sink.push_finished(FinishedTrace {
            trace: trace.id(),
            spans: trace.spans(),
        });
    }

    /// Prometheus text exposition of the registry, gauges refreshed.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.registry.render()
    }

    /// Chrome trace-event JSON of every trace currently in the ring.
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.sink.snapshot())
    }

    /// Chrome trace-event JSON of just the ring's trace with this id
    /// (16-hex-digit form), or `None` when the ring no longer holds it.
    pub fn chrome_json_for(&self, id: &str) -> Option<String> {
        let id = TraceId::parse(id)?;
        let matched: Vec<FinishedTrace> = self
            .sink
            .snapshot()
            .into_iter()
            .filter(|t| t.trace == id)
            .collect();
        if matched.is_empty() {
            None
        } else {
            Some(chrome_trace_json(&matched))
        }
    }

    /// The SLO engine.
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The scene-keyed heat table.
    pub fn heat_scenes(&self) -> &HeatTable {
        &self.heat_scenes
    }

    /// The anomaly flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Seconds since this observability state (≈ the tier) started.
    pub fn uptime_s(&self) -> f64 {
        (self.clock.now_us().saturating_sub(self.clock.anchor_us())) as f64 / 1e6
    }

    /// Feeds one finished request into the SLO engine and heat table.
    /// `scene` may be absent (rejected before routing); the request then
    /// falls out of the heat table but still counts against SLOs.
    pub fn record_outcome(&self, scene: Option<&str>, ok: bool, cache_hit: bool, latency_s: f64) {
        self.slo.record(ok, latency_s);
        if let Some(scene) = scene {
            self.heat_scenes.record(scene, ok, cache_hit, latency_s);
        }
    }

    /// One watcher tick: evaluates the SLOs and lets the flight recorder
    /// open/extend/resolve an incident (freezing `/metrics` when one
    /// opens). Returns the statuses so owner-side ticks can act on them.
    pub fn watch_tick(&self) -> Vec<SloStatus> {
        let statuses = self.slo.report();
        let breaches: Vec<String> = statuses
            .iter()
            .filter(|s| s.breached)
            .map(|s| s.name.clone())
            .collect();
        self.recorder.tick(&breaches, || self.metrics_text());
        statuses
    }

    /// The `/slo` endpoint's JSON document.
    pub fn slo_json(&self) -> String {
        slo_json(&self.slo.report())
    }

    /// The `/heat` endpoint's JSON document.
    pub fn heat_json(&self) -> String {
        heat_json(self.heat_scenes.window_s(), &self.heat_scenes.snapshot())
    }

    /// The `/events` endpoint's JSON document.
    pub fn events_json(&self) -> String {
        events_json(
            &self.recorder.events(),
            self.recorder.recorded(),
            self.recorder.dropped(),
        )
    }

    /// The `/incidents` endpoint's JSON document.
    pub fn incidents_json(&self) -> String {
        incidents_json(&self.recorder.incidents())
    }
}

/// Analytic work estimate of the tile-binning phase. The cost model in
/// `gs_render::cost` has no binning entry (binning is memory-bound
/// bookkeeping, not arithmetic), so this synthesizes one from the same
/// counters: each splat computes its tile range, each (splat, tile) pair
/// is appended and then moved once by the per-tile depth sort.
fn bin_cost(stats: &RenderStats) -> WorkEstimate {
    let splats = stats.num_splats as f64;
    let pairs = stats.num_pairs as f64;
    WorkEstimate::new(
        10.0 * splats + 4.0 * pairs,
        32.0 * splats + 8.0 * pairs,
        8.0 * pairs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(trace_every: u32, phase_every: u32) -> ServeObs {
        ServeObs::with_tuning(
            Arc::new(Registry::new()),
            "test-node",
            trace_every,
            phase_every,
            &ObsTuning::default(),
        )
    }

    #[test]
    fn sampling_gates_follow_their_period() {
        let o = obs(0, 0);
        assert!(!o.should_trace() && !o.should_sample_phases());

        let o = obs(1, 1);
        assert!((0..10).all(|_| o.should_trace()));

        let o = obs(4, 4);
        let hits = (0..16).filter(|_| o.should_trace()).count();
        assert_eq!(hits, 4, "every 4th request is traced");
    }

    #[test]
    fn phase_aggregates_feed_rooflines_and_gauges() {
        let o = obs(0, 1);
        let stats = RenderStats {
            num_input: 1000,
            num_splats: 800,
            num_pairs: 3200,
            num_pixels: 64 * 64,
        };
        let timings = RenderTimings {
            project_s: 1e-3,
            bin_s: 5e-4,
            raster_s: 2e-3,
        };
        assert!(o.sample_render(&stats, &timings));
        for phase in Phase::ALL {
            let point = o.phase_roofline(phase).expect("sampled phase has a point");
            assert!(point.achieved_flops() > 0.0);
            assert!(point.operational_intensity() > 0.0);
        }
        let text = o.metrics_text();
        assert!(text.contains("gs_phase_flops_per_second{phase=\"raster\"}"));
        assert!(text.contains("gs_phase_samples{phase=\"project\"} 1"));
        gs_obs::lint_prometheus(&text).expect("exposition must lint clean");
    }

    #[test]
    fn unsampled_phases_have_no_roofline() {
        let o = obs(0, 0);
        assert!(o.phase_roofline(Phase::Raster).is_none());
        let stats = RenderStats {
            num_input: 10,
            num_splats: 10,
            num_pairs: 10,
            num_pixels: 10,
        };
        let timings = RenderTimings {
            project_s: 1e-6,
            bin_s: 1e-6,
            raster_s: 1e-6,
        };
        assert!(!o.sample_render(&stats, &timings), "sampling disabled");
        assert!(o.phase_roofline(Phase::Project).is_none());
    }

    #[test]
    fn finished_traces_land_in_the_ring() {
        let o = obs(1, 0);
        let trace = o.mint();
        trace.record(0, "request", o.clock().now_us(), 42);
        o.finish(&trace);
        assert_eq!(o.sink().len(), 1);
        let json = o.chrome_json();
        assert!(json.contains("\"request\""));
        let text = o.metrics_text();
        assert!(text.contains("gs_traces_finished 1"));
    }
}
