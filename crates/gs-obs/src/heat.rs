//! Per-scene heat telemetry: a windowed request-rate / hit-rate / latency
//! table keyed by the scenes a tier serves.
//!
//! Recording is a read lock on the key map plus atomic adds; the write
//! lock is taken only when a scene first appears. Callers pass no key for
//! a scene the tier does not serve, so the keys are the tier's own scenes;
//! such requests, and those past a constant row cap, count as `untracked`.
//! Each snapshot folds the growth since the previous one into the rows'
//! epoch rings and drops the rows whose window is empty. Each tier keeps
//! one table: the decision input that hot-scene replication consumes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::clock::SpanClock;
use crate::window::Windowed;

/// Ring buckets per row; the window spans the ring.
const SLOTS: usize = 32;
/// Rows the table holds at most; requests for further scenes count as
/// untracked until a row empties.
const MAX_ROWS: usize = 1024;

/// One row of a heat snapshot, hottest first.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatRow {
    /// The scene id.
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

/// A windowed heat table over the scenes one tier serves.
#[derive(Debug)]
pub struct HeatTable {
    clock: SpanClock,
    window_s: u64,
    /// Cumulative (requests, hits, errors, latency µs) per scene.
    rows: RwLock<HashMap<String, Windowed<4>>>,
    untracked: AtomicU64,
}

impl HeatTable {
    /// A table over a sliding `window_s`-second window.
    pub fn new(window_s: u64) -> Self {
        Self {
            clock: SpanClock::new(),
            window_s: window_s.max(1),
            rows: RwLock::new(HashMap::new()),
            untracked: AtomicU64::new(0),
        }
    }

    /// The window length in seconds.
    pub fn window_s(&self) -> u64 {
        self.window_s
    }

    /// Records one request outcome for the served scene `key`, or as
    /// untracked when `key` is `None` (a scene the tier does not serve).
    pub fn record(&self, key: Option<&str>, ok: bool, cache_hit: bool, latency_s: f64) {
        let Some(key) = key else {
            self.untracked.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let counts = [
            1,
            cache_hit as u64,
            !ok as u64,
            (latency_s.max(0.0) * 1e6) as u64,
        ];
        if let Some(row) = self.rows.read().unwrap().get(key) {
            row.add(counts);
            return;
        }
        let mut rows = self.rows.write().unwrap();
        if rows.len() >= MAX_ROWS && !rows.contains_key(key) {
            self.untracked.fetch_add(1, Ordering::Relaxed);
            return;
        }
        rows.entry(key.to_string())
            .or_insert_with(|| Windowed::new(self.window_s * 1_000_000 / SLOTS as u64, SLOTS))
            .add(counts);
    }

    /// The windowed rows, hottest first, plus the untracked-request
    /// counter (requests for unserved scenes or past the row cap, since
    /// creation).
    pub fn snapshot(&self) -> (Vec<HeatRow>, u64) {
        self.snapshot_at(self.clock.now_us())
    }

    /// [`HeatTable::snapshot`] at an explicit timestamp: folds the
    /// requests recorded since the previous snapshot into the bucket of
    /// `now_us` first, and drops the rows left with an empty window.
    pub fn snapshot_at(&self, now_us: u64) -> (Vec<HeatRow>, u64) {
        let windowed = |row: &Windowed<4>| row.fold(now_us, [SLOTS as u64])[0];
        let mut rows: Vec<HeatRow> = self
            .rows
            .read()
            .unwrap()
            .iter()
            .map(|(key, row)| {
                let [requests, hits, errors, latency_us] = windowed(row);
                let per_request = |n: u64| n as f64 / requests.max(1) as f64;
                HeatRow {
                    key: key.clone(),
                    requests,
                    rate_per_s: requests as f64 / self.window_s as f64,
                    hit_ratio: per_request(hits),
                    error_ratio: per_request(errors),
                    mean_latency_s: per_request(latency_us) / 1e6,
                }
            })
            .collect();
        if rows.iter().any(|r| r.requests == 0) {
            // Re-folded under the write lock, which no recording holds, so
            // a row is dropped only with all of its requests expired.
            self.rows
                .write()
                .unwrap()
                .retain(|_, row| windowed(row)[0] > 0);
            rows.retain(|r| r.requests > 0);
        }
        rows.sort_by(|a, b| b.requests.cmp(&a.requests).then(a.key.cmp(&b.key)));
        (rows, self.untracked.load(Ordering::Relaxed))
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
        let table = HeatTable::new(32);
        let base = 2_000_000_000_000;
        // 320 requests over 32 s to "hot", 10 to "cold", folded each second.
        for i in 0..320u64 {
            table.record(Some("hot"), true, i % 2 == 0, 0.010);
            if i < 10 {
                table.record(Some("cold"), true, false, 0.002);
            }
            if i % 10 == 9 {
                table.snapshot_at(base + (i + 1) * 100_000);
            }
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
        let table = HeatTable::new(8);
        let base = 2_000_000_000_000;
        for _ in 0..50 {
            table.record(Some("burst"), true, false, 0.001);
        }
        let (rows, _) = table.snapshot_at(base + 1_000_000);
        assert_eq!(rows[0].requests, 50);
        // 20 s later the window is empty and the row is gone.
        let (rows, _) = table.snapshot_at(base + 20_000_000);
        assert!(rows.is_empty());
        assert!(table.rows.read().unwrap().is_empty());
        // A scene that comes back starts a fresh row.
        table.record(Some("burst"), true, false, 0.001);
        let (rows, _) = table.snapshot_at(base + 21_000_000);
        assert_eq!(rows[0].requests, 1);
    }

    #[test]
    fn unserved_scenes_and_rows_past_the_cap_count_as_untracked() {
        let table = HeatTable::new(16);
        for i in 0..MAX_ROWS + 10 {
            table.record(Some(&format!("scene-{i}")), true, false, 0.001);
        }
        table.record(None, false, false, 0.0);
        let (rows, untracked) = table.snapshot_at(2_000_000_000_000);
        assert_eq!(rows.len(), MAX_ROWS);
        assert_eq!(untracked, 11);
        // A tracked scene keeps counting at the cap.
        table.record(Some("scene-0"), true, false, 0.001);
        let (rows, _) = table.snapshot_at(2_000_000_000_000);
        assert_eq!(rows[0].key, "scene-0");
        assert_eq!(rows[0].requests, 2);
    }

    #[test]
    fn errors_and_json_render() {
        let table = HeatTable::new(8);
        table.record(Some("s1"), false, false, 0.2);
        table.record(Some("s1"), true, true, 0.1);
        let snap = table.snapshot_at(2_000_000_000_000);
        assert!((snap.0[0].error_ratio - 0.5).abs() < 1e-9);
        let json = heat_json(8, &snap);
        assert!(json.contains("\"window_seconds\":8"));
        assert!(json.contains("\"key\":\"s1\""));
        assert!(json.ends_with("]}}"));
    }
}
