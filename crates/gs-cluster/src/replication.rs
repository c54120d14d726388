//! Heat-driven hot-scene replication for the cluster coordinator.
//!
//! The coordinator's heat tables (PR 9) already know which scenes are hot;
//! this module wires that signal into placement. [`ReplicationManager`] is
//! a background thread that runs [`Coordinator::replication_tick`] on a
//! fixed interval, and [`ReplicationConfig`] is the policy it applies:
//!
//! * a scene whose windowed request rate reaches
//!   [`ReplicationConfig::replicate_rate_per_s`] gets an extra copy per
//!   tick (up to [`ReplicationConfig::max_copies`]), loaded from the
//!   coordinator's host-side parameter hold — no peer transfer, and the
//!   copy is byte-identical by construction;
//! * reads over a multi-copy set are balanced with power-of-two-choices
//!   over per-replica in-flight counts (see
//!   [`crate::placement::pick_read_copy`]);
//! * a scene that stays below
//!   [`ReplicationConfig::dereplicate_rate_per_s`] for
//!   [`ReplicationConfig::cool_ticks`] consecutive ticks gives its extra
//!   copies back to the budget pool;
//! * drained-then-rejoined replicas are rebalanced onto instead of left
//!   cold.
//!
//! The thresholds are deliberately plain knobs: record a workload with
//! `gs-trace`, replay it offline (`gs-bench`'s `cluster_replication`
//! bench), and sweep these values against the recorded trace rather than
//! hand-tuning them in production.
//!
//! Stopping is prompt: the manager is a [`gs_obs::Watcher`], whose thread
//! waits on a condvar, so dropping (or explicitly stopping) the handle
//! interrupts the current sleep instead of waiting out the interval.

use std::sync::Arc;
use std::time::Duration;

use gs_obs::Watcher;

use crate::coordinator::Coordinator;

/// Policy knobs of the heat-driven replication engine (see the module
/// docs; consumed by [`Coordinator::replication_tick`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationConfig {
    /// Most replicas that may hold a copy of one scene/shard (`1` disables
    /// replication entirely).
    pub max_copies: usize,
    /// Windowed request rate (requests/s, from the coordinator's heat
    /// table) at which a scene earns an extra copy.
    pub replicate_rate_per_s: f64,
    /// Rate below which a replicated scene starts cooling toward
    /// de-replication. Keep this under `replicate_rate_per_s` so the two
    /// thresholds hysterese instead of flapping.
    pub dereplicate_rate_per_s: f64,
    /// Consecutive ticks a scene must stay cool before a copy is retired.
    pub cool_ticks: u32,
    /// Whether the tick may move single-copy scenes onto cold
    /// (drained-then-rejoined) replicas.
    pub rebalance: bool,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            max_copies: 2,
            replicate_rate_per_s: 50.0,
            dereplicate_rate_per_s: 10.0,
            cool_ticks: 2,
            rebalance: true,
        }
    }
}

/// Handle to the background replication thread; the thread stops
/// (promptly) when the handle is dropped or [`ReplicationManager::stop`]
/// is called.
pub struct ReplicationManager(Watcher);

impl ReplicationManager {
    /// Spawns a thread that calls [`Coordinator::replication_tick`] every
    /// `interval` (first tick after one interval).
    pub fn start(coordinator: Arc<Coordinator>, interval: Duration) -> Self {
        Self(Watcher::spawn(
            "gs-cluster-replication",
            interval,
            move || {
                coordinator.replication_tick();
            },
        ))
    }

    /// Stops the replication thread and waits for it to exit.
    pub fn stop(self) {
        drop(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::ClusterConfig;

    #[test]
    fn manager_stops_promptly_even_with_a_long_interval() {
        let coordinator = Arc::new(Coordinator::new(ClusterConfig::default()));
        let manager = ReplicationManager::start(coordinator, Duration::from_secs(3600));
        let started = std::time::Instant::now();
        manager.stop();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop must interrupt the sleep, not wait out the interval"
        );
    }

    #[test]
    fn manager_ticks_on_its_interval() {
        // An empty coordinator's tick is a no-op, but it still refreshes
        // the overload signal; the manager just has to keep calling it
        // without wedging or panicking.
        let coordinator = Arc::new(Coordinator::new(ClusterConfig::default()));
        let manager =
            ReplicationManager::start(Arc::clone(&coordinator), Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(100));
        manager.stop();
        let report = coordinator.replication_tick();
        assert_eq!(report.replicated, 0);
        assert_eq!(report.dereplicated, 0);
    }
}
