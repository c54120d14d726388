//! Service-level statistics: latency percentiles, throughput, cache hit
//! rate, batch-size histogram and per-worker counters.
//!
//! Since the observability PR the collector is a *view* over a
//! [`gs_obs::Registry`]: every monotone counter lives in the registry (so
//! `GET /metrics` exposes it in Prometheus text form), while the
//! percentile reservoirs and the batch-size histogram — aggregates the
//! text exposition cannot represent losslessly — stay in a mutex. The
//! [`ServeStats`] snapshot and its wire form are unchanged.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gs_obs::{Counter, Histogram, Registry, TraceId, LATENCY_BUCKETS};

use crate::cache::CacheStats;

/// Latency distribution summary in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Worst observed latency.
    pub max: f64,
}

/// The `p`-quantile (`p` in `[0, 1]`) of an ascending sample, 0 when the
/// sample is empty.
///
/// Linear interpolation between adjacent ranks. Nearest-rank rounding
/// collapses p99 onto the max for small samples and biases p50/p90 toward
/// whichever neighbor the rounding lands on.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 - 1.0) * p;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

impl LatencySummary {
    fn from_sorted(sorted: &[f64]) -> Self {
        if sorted.is_empty() {
            return Self::default();
        }
        Self {
            p50: percentile(sorted, 0.50),
            p90: percentile(sorted, 0.90),
            p99: percentile(sorted, 0.99),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max: *sorted.last().unwrap(),
        }
    }
}

/// Connection-level counters of the HTTP front-end (all zero when the
/// service is driven in-process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Connections accepted and handed to a handler thread.
    pub accepted: u64,
    /// Connections shed with `503` at the connection limit (or because no
    /// handler thread could be spawned).
    pub rejected: u64,
    /// Connections currently being handled.
    pub active: u64,
}

/// A point-in-time report of everything the service measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Successfully completed requests.
    pub completed: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests answered with `DeadlineExceeded` because their deadline
    /// passed while queued (never rendered).
    pub expired: u64,
    /// Requests answered with `Cancelled` because their cancel token fired
    /// while queued (e.g. the submitting client disconnected).
    pub cancelled: u64,
    /// Requests answered by the pre-enqueue cache fast path (never queued,
    /// never rendered; included in `completed`).
    pub fast_hits: u64,
    /// Wall-clock time since the collector was created.
    pub elapsed: Duration,
    /// Latency distribution of requests that went through the queue and
    /// render path (enqueue to response). Fast-path cache hits are
    /// *excluded* — they never wait in the queue, and folding their
    /// near-zero latencies in here used to drag p50 down under repeat-heavy
    /// traffic; they are summarized in `hit_latency` instead.
    pub latency: LatencySummary,
    /// Latency distribution of fast-path cache hits (submit to response).
    pub hit_latency: LatencySummary,
    /// Frame-cache counters.
    pub cache: CacheStats,
    /// `(batch size, number of batches)` in ascending batch-size order.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Completed requests per worker thread.
    pub per_worker: Vec<u64>,
    /// Gaussians gathered across all batches (shared unions).
    pub union_active: u64,
    /// Gaussians that would have been gathered without batching.
    pub summed_active: u64,
    /// Shard layers rendered by the sharded fan-out path (0 when only
    /// unsharded scenes are served).
    pub shards_rendered: u64,
    /// Shards skipped by view-adaptive culling (their AABB misses the view
    /// frustum, so they could not contribute to the frame).
    pub shards_culled: u64,
    /// Layer renders served through [`crate::server::RenderServer::render_layer_blocking`]
    /// (the cross-node sharded-rendering entry point).
    pub layers_served: u64,
    /// Frames whose rasterization fanned out across tile-row bands because
    /// the queue was empty at render time (0 when the pool was always busy
    /// or tile parallelism is disabled).
    pub tile_renders: u64,
    /// Latency distribution of individual shard-layer renders.
    pub shard_layer: LatencySummary,
    /// HTTP connection counters (filled in by the HTTP front-end).
    pub connections: ConnectionStats,
}

impl ServeStats {
    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Average number of requests grouped per batch.
    pub fn mean_batch_size(&self) -> f64 {
        let batches: u64 = self.batch_histogram.iter().map(|&(_, c)| c).sum();
        let requests: u64 = self
            .batch_histogram
            .iter()
            .map(|&(s, c)| s as u64 * c)
            .sum();
        if batches == 0 {
            0.0
        } else {
            requests as f64 / batches as f64
        }
    }

    /// How many times fewer Gaussians were gathered thanks to batch sharing
    /// (1.0 = no sharing).
    pub fn cull_sharing_factor(&self) -> f64 {
        if self.union_active == 0 {
            1.0
        } else {
            self.summed_active as f64 / self.union_active as f64
        }
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "serve stats ({:.2}s window)", self.elapsed.as_secs_f64())?;
        writeln!(
            f,
            "  requests:   {} completed, {} errors, {} expired, {} cancelled, {:.1} req/s",
            self.completed,
            self.errors,
            self.expired,
            self.cancelled,
            self.throughput_rps()
        )?;
        writeln!(
            f,
            "  latency:    p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms  mean {:.2}ms  max {:.2}ms",
            self.latency.p50 * 1e3,
            self.latency.p90 * 1e3,
            self.latency.p99 * 1e3,
            self.latency.mean * 1e3,
            self.latency.max * 1e3,
        )?;
        writeln!(
            f,
            "  cache:      {:.1}% hit rate ({} hits / {} misses, {} evictions)",
            self.cache.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
        )?;
        writeln!(
            f,
            "  fast path:  {} hits served pre-enqueue, hit p50 {:.3}ms  max {:.3}ms",
            self.fast_hits,
            self.hit_latency.p50 * 1e3,
            self.hit_latency.max * 1e3,
        )?;
        let histogram: Vec<String> = self
            .batch_histogram
            .iter()
            .map(|&(s, c)| format!("{s}:{c}"))
            .collect();
        writeln!(
            f,
            "  batching:   mean size {:.2}, {:.2}x gather sharing, histogram [{}]",
            self.mean_batch_size(),
            self.cull_sharing_factor(),
            histogram.join(" "),
        )?;
        writeln!(
            f,
            "  sharding:   {} shard layers ({} culled, {} served as layers), layer p50 {:.2}ms  p99 {:.2}ms  mean {:.2}ms",
            self.shards_rendered,
            self.shards_culled,
            self.layers_served,
            self.shard_layer.p50 * 1e3,
            self.shard_layer.p99 * 1e3,
            self.shard_layer.mean * 1e3,
        )?;
        writeln!(
            f,
            "  tiling:     {} tile-parallel renders",
            self.tile_renders,
        )?;
        writeln!(
            f,
            "  connections: {} accepted, {} rejected, {} active",
            self.connections.accepted, self.connections.rejected, self.connections.active,
        )?;
        let per_worker: Vec<String> = self
            .per_worker
            .iter()
            .enumerate()
            .map(|(i, c)| format!("w{i}:{c}"))
            .collect();
        write!(f, "  workers:    [{}]", per_worker.join(" "))
    }
}

/// Number of latency samples kept for percentile estimation. Mean and max
/// are exact (tracked as running aggregates); percentiles come from a
/// uniform reservoir sample so a long-running service's memory stays
/// bounded no matter how many requests it serves.
const LATENCY_RESERVOIR: usize = 65_536;

/// A bounded-memory latency accumulator: exact running mean and max plus a
/// uniform reservoir sample (Algorithm R) for percentile estimation.
struct LatencyAccum {
    reservoir: Vec<f64>,
    count: u64,
    sum: f64,
    max: f64,
    rng: gs_core::rng::Rng64,
}

impl LatencyAccum {
    fn new(seed: u64) -> Self {
        Self {
            reservoir: Vec::new(),
            count: 0,
            sum: 0.0,
            max: 0.0,
            rng: gs_core::rng::Rng64::seed_from_u64(seed),
        }
    }

    fn record(&mut self, secs: f64) {
        self.count += 1;
        self.sum += secs;
        self.max = self.max.max(secs);
        // Algorithm R: every observed latency ends up in the reservoir with
        // equal probability.
        if self.reservoir.len() < LATENCY_RESERVOIR {
            self.reservoir.push(secs);
        } else {
            let j = self.rng.gen_range(0u64..self.count) as usize;
            if j < LATENCY_RESERVOIR {
                self.reservoir[j] = secs;
            }
        }
    }

    fn summary(&self) -> LatencySummary {
        let mut sorted = self.reservoir.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut summary = LatencySummary::from_sorted(&sorted);
        // Percentiles are sampled; mean and max are exact.
        if self.count > 0 {
            summary.mean = self.sum / self.count as f64;
            summary.max = self.max;
        }
        summary
    }
}

struct CollectorInner {
    latency: LatencyAccum,
    hit_latency: LatencyAccum,
    shard_layer: LatencyAccum,
    batches: BTreeMap<usize, u64>,
}

/// Thread-safe accumulator the workers report into.
///
/// Monotone counters live in a shared [`gs_obs::Registry`] (exposed at
/// `GET /metrics`); the reservoirs and batch-size histogram stay local.
pub struct StatsCollector {
    started: Instant,
    registry: Arc<Registry>,
    completed: Counter,
    errors: Counter,
    expired: Counter,
    cancelled: Counter,
    fast_hits: Counter,
    shards_rendered: Counter,
    shards_culled: Counter,
    layers_served: Counter,
    tile_renders: Counter,
    batches_total: Counter,
    union_active: Counter,
    summed_active: Counter,
    per_worker: Vec<Counter>,
    request_seconds: Histogram,
    fast_hit_seconds: Histogram,
    shard_layer_seconds: Histogram,
    inner: Mutex<CollectorInner>,
}

impl StatsCollector {
    /// Creates a collector for `workers` worker threads with its own
    /// private registry.
    pub fn new(workers: usize) -> Self {
        Self::with_registry(Arc::new(Registry::new()), workers)
    }

    /// Creates a collector that registers its counters in `registry` — the
    /// form the server uses so request counters, span-sink counters and
    /// kernel-phase aggregates share one `GET /metrics` exposition.
    pub fn with_registry(registry: Arc<Registry>, workers: usize) -> Self {
        let outcome = |o: &str| {
            registry.counter(
                "gs_requests_total",
                &[("outcome", o)],
                "Requests answered, by outcome",
            )
        };
        let latency_hist =
            |name: &str, help: &str| registry.histogram(name, &[], help, &LATENCY_BUCKETS);
        Self {
            started: Instant::now(),
            completed: outcome("completed"),
            errors: outcome("error"),
            expired: outcome("expired"),
            cancelled: outcome("cancelled"),
            fast_hits: registry.counter(
                "gs_fast_hits_total",
                &[],
                "Requests answered by the pre-enqueue cache fast path",
            ),
            shards_rendered: registry.counter(
                "gs_shards_rendered_total",
                &[],
                "Shard layers rendered by the sharded fan-out path",
            ),
            shards_culled: registry.counter(
                "gs_shards_culled_total",
                &[],
                "Shards skipped by view-adaptive culling",
            ),
            layers_served: registry.counter(
                "gs_layers_served_total",
                &[],
                "Layer renders served to cross-node shard requests",
            ),
            tile_renders: registry.counter(
                "gs_tile_renders_total",
                &[],
                "Frames rasterized with tile-row parallelism",
            ),
            batches_total: registry.counter("gs_batches_total", &[], "Batches formed"),
            union_active: registry.counter(
                "gs_union_active_total",
                &[],
                "Gaussians gathered across batches (shared unions)",
            ),
            summed_active: registry.counter(
                "gs_summed_active_total",
                &[],
                "Gaussians that would have been gathered without batching",
            ),
            per_worker: (0..workers)
                .map(|w| {
                    registry.counter(
                        "gs_worker_completed_total",
                        &[("worker", &w.to_string())],
                        "Completed requests per worker thread",
                    )
                })
                .collect(),
            request_seconds: latency_hist(
                "gs_request_seconds",
                "Queue-wait + render latency of completed requests",
            ),
            fast_hit_seconds: latency_hist(
                "gs_fast_hit_seconds",
                "Latency of pre-enqueue cache fast hits",
            ),
            shard_layer_seconds: latency_hist(
                "gs_shard_layer_seconds",
                "Latency of individual shard-layer renders",
            ),
            registry: Arc::clone(&registry),
            inner: Mutex::new(CollectorInner {
                latency: LatencyAccum::new(0x5eed),
                hit_latency: LatencyAccum::new(0xfa57),
                shard_layer: LatencyAccum::new(0x51a6d),
                batches: BTreeMap::new(),
            }),
        }
    }

    /// The registry the collector's counters live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one completed request.
    pub fn record_completed(&self, worker: usize, latency: Duration) {
        let secs = latency.as_secs_f64();
        self.completed.inc();
        self.request_seconds.observe(secs);
        if let Some(counter) = self.per_worker.get(worker) {
            counter.inc();
        }
        self.inner.lock().unwrap().latency.record(secs);
    }

    /// [`StatsCollector::record_completed`], additionally pinning the
    /// request's trace id as the latency histogram's exemplar on the
    /// bucket the observation landed in — the link that lets a bad p99
    /// bucket on `/metrics` resolve to a stitched trace via
    /// `/trace?id=`.
    pub fn record_completed_traced(
        &self,
        worker: usize,
        latency: Duration,
        trace: Option<TraceId>,
    ) {
        let Some(id) = trace else {
            return self.record_completed(worker, latency);
        };
        let secs = latency.as_secs_f64();
        self.completed.inc();
        self.request_seconds.observe_exemplar(secs, &id.to_string());
        if let Some(counter) = self.per_worker.get(worker) {
            counter.inc();
        }
        self.inner.lock().unwrap().latency.record(secs);
    }

    /// Completed requests so far (fast hits included) — the watcher's
    /// cheap progress probe for queue-stall detection.
    pub fn completed_count(&self) -> u64 {
        self.completed.get()
    }

    /// Records one request answered from the cache *before* it enqueued
    /// (the submit fast path). Counted as completed, but its latency lands
    /// in the hit reservoir so the request-latency percentiles keep
    /// measuring the queue-wait + render path.
    pub fn record_fast_hit(&self, latency: Duration) {
        let secs = latency.as_secs_f64();
        self.completed.inc();
        self.fast_hits.inc();
        self.fast_hit_seconds.observe(secs);
        self.inner.lock().unwrap().hit_latency.record(secs);
    }

    /// Records one request answered with an error.
    pub fn record_error(&self) {
        self.record_errors(1);
    }

    /// Records `n` requests answered with (or dropped into) an error, e.g.
    /// every job of a panicked batch.
    pub fn record_errors(&self, n: u64) {
        self.errors.add(n);
    }

    /// Records `n` requests skipped because their deadline passed in queue.
    pub fn record_expired(&self, n: u64) {
        self.expired.add(n);
    }

    /// Records `n` requests skipped because their cancel token fired while
    /// they were queued.
    pub fn record_cancelled(&self, n: u64) {
        self.cancelled.add(n);
    }

    /// Records `n` shards skipped by view-adaptive culling.
    pub fn record_shards_culled(&self, n: u64) {
        self.shards_culled.add(n);
    }

    /// Records one served layer render (the cross-node shard entry point).
    pub fn record_layer_served(&self) {
        self.layers_served.inc();
    }

    /// Records `n` frames rasterized tile-parallel (fanned across tile-row
    /// bands while the queue was empty).
    pub fn record_tile_renders(&self, n: u64) {
        self.tile_renders.add(n);
    }

    /// A uniform sample of observed request latencies in seconds (at most
    /// `max` values, deterministically strided out of the reservoir). The
    /// raw material a cluster coordinator merges across replicas so
    /// cluster-wide percentiles reflect every replica's distribution instead
    /// of averaging pre-computed quantiles.
    pub fn latency_samples(&self, max: usize) -> Vec<f64> {
        let inner = self.inner.lock().unwrap();
        let reservoir = &inner.latency.reservoir;
        if max == 0 || reservoir.is_empty() {
            return Vec::new();
        }
        let stride = reservoir.len().div_ceil(max);
        reservoir.iter().step_by(stride).copied().collect()
    }

    /// Records one rendered shard layer and how long it took.
    pub fn record_shard_layer(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        self.shards_rendered.inc();
        self.shard_layer_seconds.observe(secs);
        self.inner.lock().unwrap().shard_layer.record(secs);
    }

    /// Records one formed batch and its gather-sharing counts.
    pub fn record_batch(&self, size: usize, union_active: usize, summed_active: usize) {
        self.batches_total.inc();
        self.union_active.add(union_active as u64);
        self.summed_active.add(summed_active as u64);
        *self.inner.lock().unwrap().batches.entry(size).or_insert(0) += 1;
    }

    /// Snapshots everything into a [`ServeStats`] report.
    pub fn snapshot(&self, cache: CacheStats) -> ServeStats {
        let inner = self.inner.lock().unwrap();
        ServeStats {
            completed: self.completed.get(),
            errors: self.errors.get(),
            expired: self.expired.get(),
            cancelled: self.cancelled.get(),
            fast_hits: self.fast_hits.get(),
            elapsed: self.started.elapsed(),
            latency: inner.latency.summary(),
            hit_latency: inner.hit_latency.summary(),
            cache,
            batch_histogram: inner.batches.iter().map(|(&s, &c)| (s, c)).collect(),
            per_worker: self.per_worker.iter().map(Counter::get).collect(),
            union_active: self.union_active.get(),
            summed_active: self.summed_active.get(),
            shards_rendered: self.shards_rendered.get(),
            shards_culled: self.shards_culled.get(),
            layers_served: self.layers_served.get(),
            tile_renders: self.tile_renders.get(),
            shard_layer: inner.shard_layer.summary(),
            connections: ConnectionStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_come_from_the_sorted_distribution() {
        let collector = StatsCollector::new(2);
        for ms in 1..=100u64 {
            collector.record_completed((ms % 2) as usize, Duration::from_millis(ms));
        }
        let stats = collector.snapshot(CacheStats::default());
        assert_eq!(stats.completed, 100);
        // Interpolated ranks over samples 0.001..=0.100: p50 sits exactly
        // between 0.050 and 0.051, p90 at rank 89.1, p99 at rank 98.01.
        assert!(
            (stats.latency.p50 - 0.0505).abs() < 1e-9,
            "{}",
            stats.latency.p50
        );
        assert!(
            (stats.latency.p90 - 0.0901).abs() < 1e-9,
            "{}",
            stats.latency.p90
        );
        assert!(
            (stats.latency.p99 - 0.09901).abs() < 1e-9,
            "{}",
            stats.latency.p99
        );
        assert!((stats.latency.max - 0.100).abs() < 1e-9);
        assert_eq!(stats.per_worker, vec![50, 50]);
    }

    #[test]
    fn small_sample_percentiles_interpolate_instead_of_collapsing_onto_max() {
        // Regression: nearest-rank rounding turned p99 of a 4-sample
        // distribution into the max (rank 2.97 rounded to 3) and pushed p50
        // onto sorted[2] (rank 1.5 rounded up).
        let collector = StatsCollector::new(1);
        for ms in [5u64, 10, 15, 20] {
            collector.record_completed(0, Duration::from_millis(ms));
        }
        let stats = collector.snapshot(CacheStats::default());
        assert!(
            (stats.latency.p50 - 0.0125).abs() < 1e-9,
            "{}",
            stats.latency.p50
        );
        assert!(
            (stats.latency.p90 - 0.0185).abs() < 1e-9,
            "{}",
            stats.latency.p90
        );
        assert!(
            (stats.latency.p99 - 0.01985).abs() < 1e-9,
            "{}",
            stats.latency.p99
        );
        assert!(
            stats.latency.p99 < stats.latency.max,
            "p99 of a small sample must not collapse onto the max"
        );
    }

    #[test]
    fn fast_hits_stay_out_of_the_queue_wait_reservoir() {
        // Regression: folding near-zero cache-hit latencies into the
        // request reservoir dragged p50 toward zero under repeat-heavy
        // traffic. Fast hits are counted as completed but summarized in
        // their own reservoir.
        let collector = StatsCollector::new(1);
        for _ in 0..90 {
            collector.record_fast_hit(Duration::from_micros(3));
        }
        for _ in 0..10 {
            collector.record_completed(0, Duration::from_millis(20));
        }
        let stats = collector.snapshot(CacheStats::default());
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.fast_hits, 90);
        assert!(
            (stats.latency.p50 - 0.020).abs() < 1e-9,
            "render-path p50 must not be diluted by hits: {}",
            stats.latency.p50
        );
        assert!(
            stats.hit_latency.max <= 0.001,
            "hit latencies land in their own summary: {:?}",
            stats.hit_latency
        );
        let text = stats.to_string();
        assert!(text.contains("90 hits served pre-enqueue"), "{text}");
    }

    #[test]
    fn batch_histogram_and_sharing_factor() {
        let collector = StatsCollector::new(1);
        collector.record_batch(1, 10, 10);
        collector.record_batch(4, 20, 60);
        collector.record_batch(4, 30, 90);
        let stats = collector.snapshot(CacheStats::default());
        assert_eq!(stats.batch_histogram, vec![(1, 1), (4, 2)]);
        assert!((stats.mean_batch_size() - 3.0).abs() < 1e-12);
        assert!((stats.cull_sharing_factor() - 160.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn latency_memory_stays_bounded_past_the_reservoir() {
        let collector = StatsCollector::new(1);
        // Far more samples than the reservoir holds: aggregates stay exact
        // and the percentile estimate stays inside the observed range.
        let n = LATENCY_RESERVOIR as u64 + 10_000;
        for i in 0..n {
            collector.record_completed(0, Duration::from_micros(1 + i % 1000));
        }
        let stats = collector.snapshot(CacheStats::default());
        assert_eq!(stats.completed, n);
        assert!((stats.latency.max - 0.001).abs() < 1e-9, "max is exact");
        assert!(
            stats.latency.p50 > 0.0 && stats.latency.p50 <= 0.001,
            "sampled p50 {} must lie in the observed range",
            stats.latency.p50
        );
    }

    #[test]
    fn expired_and_shard_layer_counters_accumulate() {
        let collector = StatsCollector::new(1);
        collector.record_expired(3);
        collector.record_shard_layer(Duration::from_millis(2));
        collector.record_shard_layer(Duration::from_millis(4));
        let stats = collector.snapshot(CacheStats::default());
        assert_eq!(stats.expired, 3);
        assert_eq!(stats.shards_rendered, 2);
        assert!((stats.shard_layer.mean - 0.003).abs() < 1e-9);
        assert!((stats.shard_layer.max - 0.004).abs() < 1e-9);
        let text = stats.to_string();
        assert!(text.contains("3 expired"), "{text}");
        assert!(text.contains("2 shard layers"), "{text}");
        assert!(text.contains("connections:"), "{text}");
    }

    #[test]
    fn cancelled_culled_and_layer_counters_accumulate() {
        let collector = StatsCollector::new(1);
        collector.record_cancelled(2);
        collector.record_shards_culled(5);
        collector.record_layer_served();
        let stats = collector.snapshot(CacheStats::default());
        assert_eq!(stats.cancelled, 2);
        assert_eq!(stats.shards_culled, 5);
        assert_eq!(stats.layers_served, 1);
        let text = stats.to_string();
        assert!(text.contains("2 cancelled"), "{text}");
        assert!(text.contains("5 culled"), "{text}");
        assert!(text.contains("1 served as layers"), "{text}");
    }

    #[test]
    fn latency_samples_are_bounded_and_within_range() {
        let collector = StatsCollector::new(1);
        for ms in 1..=1000u64 {
            collector.record_completed(0, Duration::from_millis(ms));
        }
        let samples = collector.latency_samples(64);
        assert!(
            !samples.is_empty() && samples.len() <= 64,
            "{}",
            samples.len()
        );
        assert!(samples.iter().all(|&s| (0.001..=1.0).contains(&s)));
        assert!(collector.latency_samples(0).is_empty());
        assert!(StatsCollector::new(1).latency_samples(16).is_empty());
    }

    #[test]
    fn traced_completions_pin_exemplars_on_the_latency_histogram() {
        let collector = StatsCollector::new(1);
        let id = TraceId(0xabc);
        collector.record_completed_traced(0, Duration::from_millis(5), Some(id));
        collector.record_completed_traced(0, Duration::from_millis(7), None);
        assert_eq!(collector.completed_count(), 2);
        let text = collector.registry().render();
        assert!(
            text.contains(&format!("# {{trace_id=\"{id}\"}} 0.005")),
            "{text}"
        );
        gs_obs::lint_prometheus(&text).unwrap();
        let stats = collector.snapshot(CacheStats::default());
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.per_worker, vec![2]);
    }

    #[test]
    fn empty_collector_reports_zeros() {
        let stats = StatsCollector::new(3).snapshot(CacheStats::default());
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.mean_batch_size(), 0.0);
        assert_eq!(stats.cull_sharing_factor(), 1.0);
        assert_eq!(stats.latency, LatencySummary::default());
    }

    #[test]
    fn display_contains_the_headline_numbers() {
        let collector = StatsCollector::new(1);
        collector.record_completed(0, Duration::from_millis(5));
        collector.record_batch(2, 5, 10);
        let text = collector.snapshot(CacheStats::default()).to_string();
        assert!(text.contains("p50"));
        assert!(text.contains("hit rate"));
        assert!(text.contains("histogram"));
        assert!(text.contains("w0:1"));
    }
}
