//! The SLO engine: declarative objectives evaluated with multi-window
//! burn-rate math.
//!
//! An [`SloSpec`] names an objective (`p99 latency under X`, `success
//! ratio`) and a target good-event fraction. The engine classifies every
//! request outcome into good/bad per spec and accumulates them into a
//! ring of fixed-width time buckets, so it can answer "what fraction of
//! requests were bad over the last N seconds" for two windows at once: a
//! **fast** window that reacts within seconds and a **slow** window that
//! filters blips. The *burn rate* of a window is
//! `bad_ratio / (1 - target)` — the rate at which the error budget is
//! being spent, where `1.0` means "exactly on budget". An SLO is
//! **breached** only when *both* windows burn at or above the spec's
//! threshold (the Google-SRE multi-window multi-burn-rate alerting
//! shape: the fast window gives low detection latency, the slow window
//! keeps one bad second from paging).
//!
//! [`SloEngine::report`] refreshes `gs_slo_*` gauges in the registry and
//! returns the per-spec [`SloStatus`] rows the `/slo` endpoint renders.

use std::sync::Mutex;

use crate::clock::SpanClock;
use crate::metrics::{Gauge, Registry};

/// What a spec classifies as a *good* event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// Good iff the request succeeded **and** finished under the bound.
    LatencyUnder {
        /// The latency bound in seconds.
        seconds: f64,
    },
    /// Good iff the request succeeded (availability).
    Success,
}

/// One declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable identifier, used as the `slo` label value (e.g.
    /// `latency_p99`).
    pub name: String,
    /// What counts as good.
    pub kind: SloKind,
    /// Target good-event fraction in `(0, 1)`, e.g. `0.99`.
    pub target: f64,
    /// The fast (detection) window, seconds.
    pub fast_window_s: u64,
    /// The slow (confirmation) window, seconds.
    pub slow_window_s: u64,
    /// Burn-rate threshold both windows must reach to breach.
    pub burn_threshold: f64,
}

impl SloSpec {
    /// A human-readable one-liner for `/slo`.
    pub fn describe(&self) -> String {
        match self.kind {
            SloKind::LatencyUnder { seconds } => format!(
                "{:.0}% of requests under {:.0} ms",
                self.target * 100.0,
                seconds * 1e3
            ),
            SloKind::Success => format!("{:.1}% of requests succeed", self.target * 100.0),
        }
    }
}

/// The number of ring slots each window ring carries. More slots means
/// finer window-edge resolution at slightly more memory per spec.
const SLOTS: usize = 64;

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The bucket index this slot currently stores (slots are reused
    /// modulo [`SLOTS`]; a stale epoch means the slot's counts expired).
    epoch: u64,
    good: u64,
    bad: u64,
}

#[derive(Debug)]
struct SpecState {
    spec: SloSpec,
    /// Bucket width in microseconds; the slow window spans the ring.
    bucket_us: u64,
    fast_buckets: u64,
    slow_buckets: u64,
    slots: Mutex<[Slot; SLOTS]>,
    target_gauge: Gauge,
    fast_burn_gauge: Gauge,
    slow_burn_gauge: Gauge,
    breached_gauge: Gauge,
}

/// Evaluated state of one SLO at report time.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The spec's name.
    pub name: String,
    /// Human-readable objective (see [`SloSpec::describe`]).
    pub description: String,
    /// Target good fraction.
    pub target: f64,
    /// Events in the fast window.
    pub fast_total: u64,
    /// Bad events in the fast window.
    pub fast_bad: u64,
    /// Events in the slow window.
    pub slow_total: u64,
    /// Bad events in the slow window.
    pub slow_bad: u64,
    /// Fast-window burn rate (`1.0` = on budget).
    pub fast_burn: f64,
    /// Slow-window burn rate.
    pub slow_burn: f64,
    /// Whether both windows burn at or above the threshold.
    pub breached: bool,
}

/// The SLO evaluation engine of one serving tier.
#[derive(Debug)]
pub struct SloEngine {
    clock: SpanClock,
    specs: Vec<SpecState>,
}

impl SloEngine {
    /// Builds an engine for `specs`, registering their `gs_slo_*` gauges
    /// in `registry`.
    pub fn new(registry: &Registry, specs: Vec<SloSpec>) -> Self {
        let states = specs
            .into_iter()
            .map(|spec| {
                let slow_us = spec.slow_window_s.max(1) * 1_000_000;
                let bucket_us = (slow_us / SLOTS as u64).max(1_000);
                let fast_us = spec.fast_window_s.max(1) * 1_000_000;
                let target_gauge = registry.gauge(
                    "gs_slo_target",
                    &[("slo", &spec.name)],
                    "SLO target good-event fraction",
                );
                target_gauge.set(spec.target);
                let fast_burn_gauge = registry.gauge(
                    "gs_slo_burn_rate",
                    &[("slo", &spec.name), ("window", "fast")],
                    "error-budget burn rate per window (1 = on budget)",
                );
                let slow_burn_gauge = registry.gauge(
                    "gs_slo_burn_rate",
                    &[("slo", &spec.name), ("window", "slow")],
                    "error-budget burn rate per window (1 = on budget)",
                );
                let breached_gauge = registry.gauge(
                    "gs_slo_breached",
                    &[("slo", &spec.name)],
                    "1 when both burn-rate windows exceed the threshold",
                );
                SpecState {
                    fast_buckets: fast_us.div_ceil(bucket_us).max(1),
                    slow_buckets: slow_us.div_ceil(bucket_us).max(1).min(SLOTS as u64),
                    bucket_us,
                    slots: Mutex::new([Slot::default(); SLOTS]),
                    spec,
                    target_gauge,
                    fast_burn_gauge,
                    slow_burn_gauge,
                    breached_gauge,
                }
            })
            .collect();
        Self {
            clock: SpanClock::new(),
            specs: states,
        }
    }

    /// The specs the engine evaluates.
    pub fn specs(&self) -> Vec<SloSpec> {
        self.specs.iter().map(|s| s.spec.clone()).collect()
    }

    /// Records one request outcome against every spec.
    pub fn record(&self, ok: bool, latency_s: f64) {
        self.record_at(self.clock.now_us(), ok, latency_s);
    }

    /// [`SloEngine::record`] at an explicit timestamp (tests drive the
    /// window math deterministically through this).
    pub fn record_at(&self, now_us: u64, ok: bool, latency_s: f64) {
        for state in &self.specs {
            let good = match state.spec.kind {
                SloKind::LatencyUnder { seconds } => ok && latency_s <= seconds,
                SloKind::Success => ok,
            };
            let epoch = now_us / state.bucket_us;
            let mut slots = state.slots.lock().unwrap();
            let slot = &mut slots[(epoch % SLOTS as u64) as usize];
            if slot.epoch != epoch {
                *slot = Slot {
                    epoch,
                    good: 0,
                    bad: 0,
                };
            }
            if good {
                slot.good += 1;
            } else {
                slot.bad += 1;
            }
        }
    }

    /// Evaluates every spec now, refreshing the `gs_slo_*` gauges.
    pub fn report(&self) -> Vec<SloStatus> {
        self.report_at(self.clock.now_us())
    }

    /// [`SloEngine::report`] at an explicit timestamp.
    pub fn report_at(&self, now_us: u64) -> Vec<SloStatus> {
        self.specs
            .iter()
            .map(|state| {
                let epoch = now_us / state.bucket_us;
                let slots = state.slots.lock().unwrap();
                let mut fast = (0u64, 0u64); // (total, bad)
                let mut slow = (0u64, 0u64);
                for slot in slots.iter() {
                    // A slot is live when its epoch falls inside the
                    // window ending at the current bucket (inclusive).
                    let age = epoch.saturating_sub(slot.epoch);
                    if slot.epoch > epoch || slot.epoch == 0 && slot.good == 0 && slot.bad == 0 {
                        continue;
                    }
                    let events = slot.good + slot.bad;
                    if age < state.slow_buckets {
                        slow.0 += events;
                        slow.1 += slot.bad;
                    }
                    if age < state.fast_buckets {
                        fast.0 += events;
                        fast.1 += slot.bad;
                    }
                }
                drop(slots);
                let budget = (1.0 - state.spec.target).max(1e-9);
                let burn = |(total, bad): (u64, u64)| {
                    if total == 0 {
                        0.0
                    } else {
                        (bad as f64 / total as f64) / budget
                    }
                };
                let fast_burn = burn(fast);
                let slow_burn = burn(slow);
                let breached = fast.0 > 0
                    && fast_burn >= state.spec.burn_threshold
                    && slow_burn >= state.spec.burn_threshold;
                state.target_gauge.set(state.spec.target);
                state.fast_burn_gauge.set(fast_burn);
                state.slow_burn_gauge.set(slow_burn);
                state.breached_gauge.set(if breached { 1.0 } else { 0.0 });
                SloStatus {
                    name: state.spec.name.clone(),
                    description: state.spec.describe(),
                    target: state.spec.target,
                    fast_total: fast.0,
                    fast_bad: fast.1,
                    slow_total: slow.0,
                    slow_bad: slow.1,
                    fast_burn,
                    slow_burn,
                    breached,
                }
            })
            .collect()
    }
}

/// Renders SLO statuses as the `/slo` endpoint's JSON document.
pub fn slo_json(statuses: &[SloStatus]) -> String {
    let mut out = String::from("{\"slos\":[");
    for (i, s) in statuses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        crate::export::json_escape(&s.name, &mut out);
        out.push_str("\",\"objective\":\"");
        crate::export::json_escape(&s.description, &mut out);
        out.push_str(&format!(
            "\",\"target\":{},\"fast\":{{\"total\":{},\"bad\":{},\"burn_rate\":{:.4}}},\
             \"slow\":{{\"total\":{},\"bad\":{},\"burn_rate\":{:.4}}},\"breached\":{}}}",
            s.target,
            s.fast_total,
            s.fast_bad,
            s.fast_burn,
            s.slow_total,
            s.slow_bad,
            s.slow_burn,
            s.breached
        ));
    }
    out.push_str("]}");
    out
}

/// The default SLO suite both serving tiers install: a latency objective
/// and an availability objective with Google-SRE-ish windows.
pub fn default_slos(p99_ms: f64, latency_target: f64, availability_target: f64) -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "latency".to_string(),
            kind: SloKind::LatencyUnder {
                seconds: p99_ms / 1e3,
            },
            target: latency_target,
            fast_window_s: 10,
            slow_window_s: 120,
            burn_threshold: 2.0,
        },
        SloSpec {
            name: "availability".to_string(),
            kind: SloKind::Success,
            target: availability_target,
            fast_window_s: 10,
            slow_window_s: 120,
            burn_threshold: 2.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(target: f64, threshold: f64) -> SloEngine {
        SloEngine::new(
            &Registry::new(),
            vec![SloSpec {
                name: "avail".into(),
                kind: SloKind::Success,
                target,
                fast_window_s: 4,
                slow_window_s: 64,
                burn_threshold: threshold,
            }],
        )
    }

    #[test]
    fn all_good_traffic_never_breaches() {
        let eng = engine(0.99, 2.0);
        let base = 1_000_000_000_000;
        for i in 0..100 {
            eng.record_at(base + i * 10_000, true, 0.001);
        }
        let s = &eng.report_at(base + 1_000_000)[0];
        assert_eq!(s.fast_bad, 0);
        assert_eq!(s.fast_burn, 0.0);
        assert!(!s.breached);
    }

    #[test]
    fn sustained_failures_breach_both_windows() {
        let eng = engine(0.9, 1.0);
        let base = 1_000_000_000_000;
        // 50% failures: bad_ratio 0.5 / budget 0.1 = burn 5.
        for i in 0..200u64 {
            eng.record_at(base + i * 10_000, i % 2 == 0, 0.001);
        }
        let s = &eng.report_at(base + 2_000_000)[0];
        assert!(s.fast_burn > 4.0, "fast burn {}", s.fast_burn);
        assert!(s.slow_burn > 4.0);
        assert!(s.breached);
    }

    #[test]
    fn breach_recovers_once_the_fast_window_drains() {
        let eng = engine(0.9, 1.0);
        let base = 1_000_000_000_000;
        for i in 0..100u64 {
            eng.record_at(base + i * 10_000, false, 0.001);
        }
        assert!(eng.report_at(base + 1_000_000)[0].breached);
        // 10 s later the 4 s fast window holds only fresh good traffic.
        let later = base + 10_000_000;
        for i in 0..100u64 {
            eng.record_at(later + i * 10_000, true, 0.001);
        }
        let s = &eng.report_at(later + 1_000_000)[0];
        assert!(
            !s.breached,
            "fast burn {} slow burn {}",
            s.fast_burn, s.slow_burn
        );
        // The slow window still remembers the bad minute.
        assert!(s.slow_bad > 0);
    }

    #[test]
    fn latency_kind_counts_slow_successes_as_bad() {
        let eng = SloEngine::new(
            &Registry::new(),
            vec![SloSpec {
                name: "lat".into(),
                kind: SloKind::LatencyUnder { seconds: 0.1 },
                target: 0.5,
                fast_window_s: 4,
                slow_window_s: 8,
                burn_threshold: 1.0,
            }],
        );
        let base = 1_000_000_000_000;
        eng.record_at(base, true, 0.05); // good
        eng.record_at(base + 1, true, 0.5); // bad: slow
        eng.record_at(base + 2, false, 0.01); // bad: failed
        let s = &eng.report_at(base + 10)[0];
        assert_eq!(s.fast_total, 3);
        assert_eq!(s.fast_bad, 2);
    }

    #[test]
    fn gauges_land_in_the_registry() {
        let reg = Registry::new();
        let eng = SloEngine::new(&reg, default_slos(250.0, 0.99, 0.999));
        eng.record(true, 0.001);
        eng.report();
        let text = reg.render();
        assert!(text.contains("gs_slo_target{slo=\"latency\"} 0.99"));
        assert!(text.contains("gs_slo_burn_rate{slo=\"availability\",window=\"fast\"}"));
        assert!(text.contains("gs_slo_breached{slo=\"latency\"} 0"));
        crate::metrics::lint_prometheus(&text).unwrap();
    }

    #[test]
    fn json_is_well_formed() {
        let eng = engine(0.99, 2.0);
        eng.record(true, 0.001);
        let json = slo_json(&eng.report());
        assert!(json.starts_with("{\"slos\":["));
        assert!(json.contains("\"name\":\"avail\""));
        assert!(json.contains("\"breached\":false"));
    }
}
