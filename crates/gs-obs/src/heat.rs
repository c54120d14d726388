//! Per-key heat telemetry: a windowed request-rate / hit-rate / latency
//! table keyed by scene.
//!
//! A [`HeatTable`] keeps an **exact** top-K table of the hottest keys —
//! each with a ring of time-bucketed counters so rates are *windowed*,
//! not lifetime — guarded by a [`CountMinSketch`] frequency filter for
//! cardinality safety: an adversarial or long-tailed key population
//! (thousands of one-request keys) can never grow the table past K.
//! Admission is TinyLFU-shaped: a new key only evicts the coldest
//! tracked entry when the sketch says it has been seen at least as often
//! recently; everything else lands in an `untracked` overflow counter so
//! the table's blind spot is itself observable.
//!
//! Each tier keeps one table, keyed by scene: the decision input that
//! hot-scene replication consumes.

use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use gs_core::sketch::CountMinSketch;

use crate::clock::SpanClock;

/// Ring slots per tracked key; the window spans the ring.
const SLOTS: usize = 32;

#[derive(Debug, Clone, Copy, Default)]
struct HeatSlot {
    epoch: u64,
    requests: u64,
    hits: u64,
    errors: u64,
    latency_us: u64,
}

#[derive(Debug)]
struct HeatEntry {
    key: String,
    hash: u64,
    slots: [HeatSlot; SLOTS],
}

impl HeatEntry {
    /// Windowed (requests, hits, errors, latency_us) ending at `epoch`.
    fn windowed(&self, epoch: u64, window_buckets: u64) -> (u64, u64, u64, u64) {
        let mut acc = (0, 0, 0, 0);
        for slot in &self.slots {
            if slot.epoch > epoch || epoch.saturating_sub(slot.epoch) >= window_buckets {
                continue;
            }
            acc.0 += slot.requests;
            acc.1 += slot.hits;
            acc.2 += slot.errors;
            acc.3 += slot.latency_us;
        }
        acc
    }
}

#[derive(Debug)]
struct HeatInner {
    sketch: CountMinSketch,
    entries: Vec<HeatEntry>,
    last_halve_epoch: u64,
    /// Requests for keys the table refused to track (admission lost).
    untracked: u64,
    total: u64,
}

/// One row of a heat snapshot, hottest first.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatRow {
    /// The scene or client id.
    pub key: String,
    /// Requests inside the window.
    pub requests: u64,
    /// Windowed request rate, per second.
    pub rate_per_s: f64,
    /// Cache-hit fraction of the windowed requests.
    pub hit_ratio: f64,
    /// Error fraction of the windowed requests.
    pub error_ratio: f64,
    /// Mean latency over the windowed requests, seconds.
    pub mean_latency_s: f64,
}

/// A windowed top-K heat table over one key dimension.
#[derive(Debug)]
pub struct HeatTable {
    clock: SpanClock,
    window_s: u64,
    bucket_us: u64,
    window_buckets: u64,
    top_k: usize,
    inner: Mutex<HeatInner>,
}

impl HeatTable {
    /// A table tracking the `top_k` hottest keys over a sliding
    /// `window_s`-second window.
    pub fn new(window_s: u64, top_k: usize) -> Self {
        let window_s = window_s.max(1);
        let window_us = window_s * 1_000_000;
        let bucket_us = (window_us / SLOTS as u64).max(1_000);
        Self {
            clock: SpanClock::new(),
            window_s,
            bucket_us,
            window_buckets: window_us.div_ceil(bucket_us).max(1).min(SLOTS as u64),
            top_k: top_k.max(1),
            inner: Mutex::new(HeatInner {
                sketch: CountMinSketch::new(top_k.max(1) * 8),
                entries: Vec::new(),
                last_halve_epoch: 0,
                untracked: 0,
                total: 0,
            }),
        }
    }

    /// The window length in seconds.
    pub fn window_s(&self) -> u64 {
        self.window_s
    }

    fn hash_key(key: &str) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// Records one request outcome for `key`.
    pub fn record(&self, key: &str, ok: bool, cache_hit: bool, latency_s: f64) {
        self.record_at(self.clock.now_us(), key, ok, cache_hit, latency_s);
    }

    /// [`HeatTable::record`] at an explicit timestamp (for tests).
    pub fn record_at(&self, now_us: u64, key: &str, ok: bool, cache_hit: bool, latency_s: f64) {
        let hash = Self::hash_key(key);
        let epoch = now_us / self.bucket_us;
        let mut inner = self.inner.lock().unwrap();
        inner.total += 1;
        // Age the sketch once per window so "recently hot" tracks the
        // same horizon the table reports over.
        if epoch.saturating_sub(inner.last_halve_epoch) >= self.window_buckets {
            inner.sketch.halve();
            inner.last_halve_epoch = epoch;
        }
        let freshness = inner.sketch.increment(hash);
        let idx = match inner
            .entries
            .iter()
            .position(|e| e.hash == hash && e.key == key)
        {
            Some(idx) => idx,
            None if inner.entries.len() < self.top_k => {
                inner.entries.push(HeatEntry {
                    key: key.to_string(),
                    hash,
                    slots: [HeatSlot::default(); SLOTS],
                });
                inner.entries.len() - 1
            }
            None => {
                // Table full: TinyLFU admission against the coldest
                // tracked entry. The challenger must look at least as
                // recently frequent as the victim to displace it.
                let victim = inner
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.windowed(epoch, self.window_buckets).0)
                    .map(|(i, _)| i);
                match victim {
                    Some(v) if freshness >= inner.sketch.estimate(inner.entries[v].hash) => {
                        inner.entries[v] = HeatEntry {
                            key: key.to_string(),
                            hash,
                            slots: [HeatSlot::default(); SLOTS],
                        };
                        v
                    }
                    _ => {
                        inner.untracked += 1;
                        return;
                    }
                }
            }
        };
        let slot = &mut inner.entries[idx].slots[(epoch % SLOTS as u64) as usize];
        if slot.epoch != epoch {
            *slot = HeatSlot {
                epoch,
                ..HeatSlot::default()
            };
        }
        slot.requests += 1;
        if cache_hit {
            slot.hits += 1;
        }
        if !ok {
            slot.errors += 1;
        }
        slot.latency_us += (latency_s.max(0.0) * 1e6) as u64;
    }

    /// The windowed rows, hottest first, plus the untracked-request
    /// counter (admission losses since creation).
    pub fn snapshot(&self) -> (Vec<HeatRow>, u64) {
        self.snapshot_at(self.clock.now_us())
    }

    /// [`HeatTable::snapshot`] at an explicit timestamp.
    pub fn snapshot_at(&self, now_us: u64) -> (Vec<HeatRow>, u64) {
        let epoch = now_us / self.bucket_us;
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<HeatRow> = inner
            .entries
            .iter()
            .filter_map(|e| {
                let (requests, hits, errors, latency_us) = e.windowed(epoch, self.window_buckets);
                if requests == 0 {
                    return None;
                }
                Some(HeatRow {
                    key: e.key.clone(),
                    requests,
                    rate_per_s: requests as f64 / self.window_s as f64,
                    hit_ratio: hits as f64 / requests as f64,
                    error_ratio: errors as f64 / requests as f64,
                    mean_latency_s: latency_us as f64 / 1e6 / requests as f64,
                })
            })
            .collect();
        rows.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.key.cmp(&b.key)));
        (rows, inner.untracked)
    }

    /// Total requests ever recorded (tracked + untracked).
    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap().total
    }
}

/// Renders the `/heat` endpoint's JSON document from the scene table's
/// snapshot.
pub fn heat_json(window_s: u64, (rows, untracked): &(Vec<HeatRow>, u64)) -> String {
    let mut out =
        format!("{{\"window_seconds\":{window_s},\"scenes\":{{\"untracked\":{untracked},\"top\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":\"");
        crate::export::json_escape(&row.key, &mut out);
        out.push_str(&format!(
            "\",\"requests\":{},\"rate_per_s\":{:.3},\"hit_ratio\":{:.4},\
             \"error_ratio\":{:.4},\"mean_latency_ms\":{:.3}}}",
            row.requests,
            row.rate_per_s,
            row.hit_ratio,
            row.error_ratio,
            row.mean_latency_s * 1e3
        ));
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_key_rises_to_the_top_with_windowed_rate() {
        let table = HeatTable::new(32, 4);
        let base = 2_000_000_000_000;
        // 320 requests over 32 s to "hot", 10 to "cold".
        for i in 0..320u64 {
            table.record_at(base + i * 100_000, "hot", true, i % 2 == 0, 0.010);
        }
        for i in 0..10u64 {
            table.record_at(base + i * 100_000, "cold", true, false, 0.002);
        }
        let (rows, untracked) = table.snapshot_at(base + 32_000_000);
        assert_eq!(untracked, 0);
        assert_eq!(rows[0].key, "hot");
        // ~10 req/s ground truth; windowed rate must be within 2x.
        assert!(rows[0].rate_per_s > 5.0 && rows[0].rate_per_s < 20.0);
        assert!((rows[0].hit_ratio - 0.5).abs() < 0.05);
        assert!((rows[0].mean_latency_s - 0.010).abs() < 1e-6);
    }

    #[test]
    fn old_traffic_falls_out_of_the_window() {
        let table = HeatTable::new(8, 4);
        let base = 2_000_000_000_000;
        for i in 0..50u64 {
            table.record_at(base + i * 1_000, "burst", true, false, 0.001);
        }
        let (rows, _) = table.snapshot_at(base + 1_000_000);
        assert_eq!(rows[0].requests, 50);
        // 20 s later the window is empty.
        let (rows, _) = table.snapshot_at(base + 20_000_000);
        assert!(rows.is_empty());
    }

    #[test]
    fn cardinality_is_bounded_and_admission_is_frequency_gated() {
        let table = HeatTable::new(16, 2);
        let base = 2_000_000_000_000;
        // Two genuinely hot keys, then a storm of one-shot keys.
        for i in 0..40u64 {
            table.record_at(base + i * 1_000, "hot-a", true, false, 0.001);
            table.record_at(base + i * 1_000, "hot-b", true, false, 0.001);
        }
        for i in 0..200u64 {
            let key = format!("one-shot-{i}");
            table.record_at(base + 50_000 + i * 1_000, &key, true, false, 0.001);
        }
        let (rows, untracked) = table.snapshot_at(base + 300_000);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.key == "hot-a"));
        assert!(rows.iter().any(|r| r.key == "hot-b"));
        assert!(untracked >= 190, "untracked {untracked}");
        assert_eq!(table.total(), 280);
    }

    #[test]
    fn errors_and_json_render() {
        let table = HeatTable::new(8, 4);
        let base = 2_000_000_000_000;
        table.record_at(base, "s1", false, false, 0.2);
        table.record_at(base, "s1", true, true, 0.1);
        let snap = table.snapshot_at(base + 1_000);
        assert!((snap.0[0].error_ratio - 0.5).abs() < 1e-9);
        let json = heat_json(8, &snap);
        assert!(json.contains("\"window_seconds\":8"));
        assert!(json.contains("\"key\":\"s1\""));
        assert!(json.ends_with("]}}"));
    }
}
