//! A background health prober for the cluster coordinator.
//!
//! The coordinator marks replicas down when traffic hits them and fails,
//! and [`Coordinator::probe_all`] can bring a recovered replica back — but
//! until this module existed, *someone* had to call it. [`HealthProber`]
//! is that someone: a thread that runs `probe_all` on a fixed interval, so
//! a replica that restarts rejoins the rotation without an operator in the
//! loop, and a silently-dead replica is taken out of it before the next
//! unlucky request discovers the corpse.
//!
//! Stopping is prompt: the prober is a [`gs_obs::Watcher`], whose thread
//! waits on a condvar, so dropping (or explicitly stopping) the handle
//! interrupts the current sleep instead of waiting out the interval.

use std::sync::Arc;
use std::time::Duration;

use gs_obs::Watcher;

use crate::coordinator::Coordinator;

/// Handle to the background probe thread; the thread stops (promptly) when
/// the handle is dropped or [`HealthProber::stop`] is called.
pub struct HealthProber(Watcher);

impl HealthProber {
    /// Spawns a thread that calls [`Coordinator::probe_all`] every
    /// `interval` (first probe after one interval). Down replicas that
    /// answer again come back up; up replicas that stop answering go down;
    /// draining replicas are left alone — exactly `probe_all`'s semantics,
    /// on a clock.
    pub fn start(coordinator: Arc<Coordinator>, interval: Duration) -> Self {
        Self(Watcher::spawn("gs-cluster-prober", interval, move || {
            coordinator.probe_all();
        }))
    }

    /// Stops the probe thread and waits for it to exit.
    pub fn stop(self) {
        drop(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::ClusterConfig;

    #[test]
    fn prober_stops_promptly_even_with_a_long_interval() {
        let coordinator = Arc::new(Coordinator::new(ClusterConfig::default()));
        let prober = HealthProber::start(coordinator, Duration::from_secs(3600));
        let started = std::time::Instant::now();
        prober.stop();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop must interrupt the sleep, not wait out the interval"
        );
    }

    #[test]
    fn prober_leaves_draining_replicas_alone() {
        // probe_all flips replicas between Up and Down but must never touch
        // an administratively Draining one — the prober runs it on a clock,
        // so a drained replica has to survive many probe rounds untouched.
        // (The Down -> Up rejoin of a killed-then-revived replica needs a
        // killable transport and is covered by the HTTP integration test in
        // tests/cluster.rs.)
        use crate::replica::ReplicaTransport;
        use gs_serve::{RenderServer, SceneRegistry, ServeConfig};

        let coordinator = Arc::new(Coordinator::new(ClusterConfig::default()));
        let server = Arc::new(RenderServer::new(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            SceneRegistry::with_budget(1 << 20),
        ));
        coordinator
            .add_replica("a", ReplicaTransport::InProcess(server))
            .unwrap();
        coordinator.drain(0);
        let prober = HealthProber::start(Arc::clone(&coordinator), Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(120));
        prober.stop();
        assert_eq!(
            coordinator.replica_status()[0].health,
            crate::replica::Health::Draining,
            "the prober must leave draining replicas alone"
        );
    }
}
