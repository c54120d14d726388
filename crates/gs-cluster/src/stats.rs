//! Cluster-wide statistics: per-replica reports fanned in, latency
//! reservoirs merged, plus the coordinator's own routing counters.
//!
//! Percentiles of the *cluster* cannot be computed by averaging per-replica
//! percentiles (a slow replica's tail would be diluted by a fast one's
//! median). Each replica therefore ships a uniform sample of its latency
//! reservoir (`GET /stats/wire`), and [`merge_latency`] combines them as a
//! **weighted sample union**: every sample carries the weight
//! `completed / samples` of its replica, so a replica that served twice the
//! traffic contributes twice the probability mass at every quantile.

use gs_obs::HeatRow;
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
    /// Cluster-wide request latency merged from the replicas' reservoirs.
    pub merged_replica_latency: LatencySummary,
    /// Per-replica reports, in replica-id order.
    pub replicas: Vec<ReplicaReport>,
    /// Windowed per-scene heat top-K at the coordinator tier (request
    /// rate, hit/error ratios, mean latency) — the traffic-skew input the
    /// replication planner consumes.
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
            "  replicas:   p50 {:.2}ms  p99 {:.2}ms (merged reservoirs, {} completed)",
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

/// Merges per-replica latency reservoirs into one cluster-wide summary of
/// **render-path** latency (queue wait + render; replicas exclude their
/// pre-enqueue cache fast hits from the reservoir and report them as
/// `fast_hits`).
///
/// Every sample of replica `i` carries weight `rendered_i / samples_i`
/// (where `rendered = completed - fast_hits`), so the merged distribution
/// weights each replica by the render traffic it actually served.
/// Percentiles are weighted quantiles over the sample union; the mean is
/// the exact rendered-weighted mean of replica means; the max is the max of
/// replica maxima (both exact because replicas track them exactly).
pub fn merge_latency(reports: &[&StatsReport]) -> LatencySummary {
    let mut weighted: Vec<(f64, f64)> = Vec::new();
    let mut total_rendered = 0u64;
    let mut mean_acc = 0.0f64;
    let mut max = 0.0f64;
    for report in reports {
        let rendered = report.completed.saturating_sub(report.fast_hits);
        total_rendered += rendered;
        mean_acc += report.latency[3] * rendered as f64;
        max = max.max(report.latency[4]);
        if !report.latency_samples.is_empty() && rendered > 0 {
            let w = rendered as f64 / report.latency_samples.len() as f64;
            weighted.extend(report.latency_samples.iter().map(|&s| (s, w)));
        }
    }
    if total_rendered == 0 || weighted.is_empty() {
        return LatencySummary::default();
    }
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total_weight: f64 = weighted.iter().map(|&(_, w)| w).sum();
    let quantile = |p: f64| -> f64 {
        let target = p * total_weight;
        let mut cumulative = 0.0;
        for &(value, weight) in &weighted {
            cumulative += weight;
            if cumulative >= target {
                return value;
            }
        }
        weighted.last().unwrap().0
    };
    LatencySummary {
        p50: quantile(0.50),
        p90: quantile(0.90),
        p99: quantile(0.99),
        mean: mean_acc / total_rendered as f64,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(completed: u64, samples: Vec<f64>, mean: f64, max: f64) -> StatsReport {
        StatsReport {
            completed,
            latency: [0.0, 0.0, 0.0, mean, max],
            latency_samples: samples,
            ..StatsReport::default()
        }
    }

    #[test]
    fn merged_percentiles_weight_replicas_by_traffic() {
        // A fast replica that served 900 requests around 1ms and a slow one
        // that served 100 around 100ms: the merged p50 must stay at the
        // fast replica's latency while the p99 surfaces the slow tail —
        // exactly what averaging per-replica percentiles would destroy.
        let fast = report(900, vec![0.001; 90], 0.001, 0.002);
        let slow = report(100, vec![0.1; 10], 0.1, 0.12);
        let merged = merge_latency(&[&fast, &slow]);
        assert!((merged.p50 - 0.001).abs() < 1e-9, "{}", merged.p50);
        assert!((merged.p99 - 0.1).abs() < 1e-9, "{}", merged.p99);
        let expected_mean = (900.0 * 0.001 + 100.0 * 0.1) / 1000.0;
        assert!((merged.mean - expected_mean).abs() < 1e-12);
        assert!((merged.max - 0.12).abs() < 1e-12);
    }

    #[test]
    fn sample_count_does_not_skew_the_merge() {
        // Same traffic split, but the slow replica shipped far more samples:
        // per-sample weights must normalize it away.
        let fast = report(500, vec![0.001; 10], 0.001, 0.001);
        let slow = report(500, vec![0.1; 200], 0.1, 0.1);
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
        let idle = report(0, Vec::new(), 0.0, 0.0);
        assert_eq!(merge_latency(&[&idle]), LatencySummary::default());
    }
}
