//! Cluster-wide statistics: per-replica reports fanned in, latency
//! histograms merged, plus the coordinator's own routing counters.
//!
//! Percentiles of the *cluster* cannot be computed by averaging per-replica
//! percentiles (a slow replica's tail would be diluted by a fast one's
//! median). Each replica therefore ships its render-path latency histogram
//! (`GET /stats/wire`), and [`merge_latency`] adds them up: the buckets have
//! the same fixed edges on every node, so the merge is exact and
//! order-free — the cluster summary is bit-for-bit the one a single node
//! would report had it served every replica's traffic.

use gs_obs::{HeatRow, HistogramSnapshot};
use gs_serve::{CacheStats, LatencySummary, StatsReport};

use crate::replica::Health;

/// One replica's contribution to a cluster stats snapshot.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// Replica display name.
    pub name: String,
    /// Routing state at snapshot time.
    pub health: Health,
    /// Bytes the coordinator has placed on the replica.
    pub placed_bytes: u64,
    /// The replica's own report; `None` when it could not be reached.
    pub report: Option<StatsReport>,
}

/// A point-in-time report of the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Renders completed through the coordinator.
    pub completed: u64,
    /// Renders answered with an error.
    pub errors: u64,
    /// Renders answered from the coordinator-side frame cache without
    /// touching any replica (included in `completed`).
    pub cache_hits: u64,
    /// Coordinator-side frame-cache counters (all zero when disabled).
    pub cache: CacheStats,
    /// Requests re-routed to another replica after a transport failure.
    pub failovers: u64,
    /// Scene/shard placements moved off a dead or draining replica.
    pub replacements: u64,
    /// Hot scenes replicated onto an extra replica by the heat-driven
    /// replication planner.
    pub replications: u64,
    /// Replication copies retired (cooled scenes and pruned dead copies).
    pub dereplications: u64,
    /// Single-copy placements moved onto a cold (drained-then-rejoined)
    /// replica by the rebalancer.
    pub rebalances: u64,
    /// Requests shed by priority-aware overload protection.
    pub shed: u64,
    /// Frames served at a reduced SH degree under sustained SLO burn
    /// (graceful brown-out).
    pub brownouts: u64,
    /// Shard layers relayed through their replicas.
    pub shard_relays: u64,
    /// Shards skipped by the coordinator's view-adaptive culling.
    pub shards_culled: u64,
    /// Coordinator-side end-to-end latency (submit to frame, including
    /// wire hops).
    pub latency: LatencySummary,
    /// Cluster-wide request latency merged from the replicas' histograms.
    pub merged_replica_latency: LatencySummary,
    /// Per-replica reports, in replica-id order.
    pub replicas: Vec<ReplicaReport>,
    /// Windowed per-scene heat at the coordinator tier, hottest first
    /// (request rate, hit/error ratios, mean latency) — the traffic-skew
    /// input the replication planner consumes.
    pub hot_scenes: Vec<HeatRow>,
}

impl ClusterStats {
    /// Completed requests summed over every reachable replica (includes
    /// traffic that bypassed the coordinator).
    pub fn replica_completed(&self) -> u64 {
        self.replicas
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|r| r.completed)
            .sum()
    }
}

impl std::fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cluster stats ({} replicas)", self.replicas.len())?;
        writeln!(
            f,
            "  routing:    {} completed, {} errors, {} failovers, {} replacements",
            self.completed, self.errors, self.failovers, self.replacements
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
            "  sharding:   {} relayed layers, {} culled",
            self.shard_relays, self.shards_culled
        )?;
        writeln!(
            f,
            "  replication: {} replicated, {} de-replicated, {} rebalanced; overload: {} shed, \
             {} browned-out",
            self.replications, self.dereplications, self.rebalances, self.shed, self.brownouts
        )?;
        writeln!(f, "  latency:    {}", self.latency)?;
        writeln!(
            f,
            "  replicas:   p50 {:.2}ms  p99 {:.2}ms (merged histograms, {} completed)",
            self.merged_replica_latency.p50 * 1e3,
            self.merged_replica_latency.p99 * 1e3,
            self.replica_completed(),
        )?;
        if !self.hot_scenes.is_empty() {
            let top: Vec<String> = self
                .hot_scenes
                .iter()
                .take(4)
                .map(|row| format!("{} ({:.1}/s)", row.key, row.rate_per_s))
                .collect();
            writeln!(f, "  heat:       {}", top.join(", "))?;
        }
        for (i, r) in self.replicas.iter().enumerate() {
            match &r.report {
                Some(report) => writeln!(
                    f,
                    "    [{i}] {} {}: {} completed, {} layers served, {}/{} MiB placed",
                    r.name,
                    r.health,
                    report.completed,
                    report.layers_served,
                    r.placed_bytes >> 20,
                    report.budget_bytes >> 20,
                )?,
                None => writeln!(f, "    [{i}] {} {}: unreachable", r.name, r.health)?,
            }
        }
        Ok(())
    }
}

/// Merges per-replica latency histograms into one cluster-wide summary of
/// **render-path** latency (queue wait + render; replicas keep their
/// pre-enqueue cache fast hits out of this record and report them as
/// `fast_hits`). Each replica counts in proportion to the requests it
/// rendered because its histogram holds one count per request.
pub fn merge_latency(reports: &[&StatsReport]) -> LatencySummary {
    let mut merged = HistogramSnapshot::default();
    for report in reports {
        merged.merge(&report.latency);
    }
    LatencySummary::from(&merged)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use gs_serve::StatsCollector;

    use super::*;

    /// A replica's stats after it rendered `latencies` (in milliseconds).
    fn served(latencies: &[f64]) -> gs_serve::ServeStats {
        let collector = StatsCollector::new(1);
        for &ms in latencies {
            collector.record_completed(0, Duration::from_secs_f64(ms / 1e3));
        }
        collector.snapshot(CacheStats::default())
    }

    fn report(latencies: &[f64]) -> StatsReport {
        StatsReport::new(&served(latencies), 0, 0)
    }

    fn bits(s: LatencySummary) -> [u64; 5] {
        [s.p50, s.p90, s.p99, s.mean, s.max].map(f64::to_bits)
    }

    #[test]
    fn merged_percentiles_weight_replicas_by_traffic() {
        // A fast replica that served 900 requests at 1ms and a slow one
        // that served 100 around 100ms: the merged p50 must stay at the
        // fast replica's latency while the p99 surfaces the slow tail —
        // exactly what averaging per-replica percentiles would destroy.
        let fast = report(&[1.0; 900]);
        let mut slow_ms = vec![100.0; 99];
        slow_ms.push(120.0);
        let slow = report(&slow_ms);
        let merged = merge_latency(&[&fast, &slow]);
        assert!((merged.p50 - 0.001).abs() < 1e-9, "{}", merged.p50);
        assert!((merged.p99 - 0.1).abs() < 1e-9, "{}", merged.p99);
        let expected_mean = (900.0 * 0.001 + 99.0 * 0.1 + 0.12) / 1000.0;
        assert!((merged.mean - expected_mean).abs() < 1e-12);
        assert!((merged.max - 0.12).abs() < 1e-12);
    }

    #[test]
    fn sample_count_does_not_skew_the_merge() {
        // Nearly the same traffic split on both replicas: only the request
        // counts weigh, so just over half fast keeps p50 fast.
        let fast = report(&[1.0; 501]);
        let slow = report(&[100.0; 499]);
        let merged = merge_latency(&[&fast, &slow]);
        assert!(
            (merged.p50 - 0.001).abs() < 1e-9,
            "half the traffic is fast, so p50 must be fast: {}",
            merged.p50
        );
        assert!((merged.p90 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn degenerate_merges_are_zero() {
        assert_eq!(merge_latency(&[]), LatencySummary::default());
        let idle = report(&[]);
        assert_eq!(merge_latency(&[&idle]), LatencySummary::default());
        assert_eq!(
            merge_latency(&[&StatsReport::default()]),
            LatencySummary::default()
        );
    }

    #[test]
    fn merging_replicas_equals_one_node_that_served_both_streams() {
        // Two replicas with different traffic shapes; one collector that
        // recorded both streams is the ground truth, in bits.
        let a_ms: Vec<f64> = (0..7000).map(|i| 0.05 + f64::from(i % 97) * 0.37).collect();
        let b_ms: Vec<f64> = (0..3000).map(|i| 2.0 + f64::from(i % 13) * 41.3).collect();
        let one_node = served(&[a_ms.clone(), b_ms.clone()].concat());
        let (a, b) = (report(&a_ms), report(&b_ms));
        assert_eq!(bits(merge_latency(&[&a, &b])), bits(one_node.latency));
        assert_eq!(bits(merge_latency(&[&b, &a])), bits(one_node.latency));
        // And the merged record itself is the single node's record.
        let mut merged = b.latency.clone();
        merged.merge(&a.latency);
        assert_eq!(merged, one_node.latency_record);
    }
}
