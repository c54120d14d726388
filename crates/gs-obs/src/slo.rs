//! The SLO engine: declarative objectives evaluated with multi-window
//! burn-rate math.
//!
//! An [`SloSpec`] names an objective (`p99 latency under X`, `success
//! ratio`) and a target good-event fraction. The engine classifies every
//! request outcome into good/bad per spec and counts it with an atomic
//! add; each report folds the counts into a ring of fixed-width time
//! buckets (a window lags by at most one fold), so it can answer "what
//! fraction of requests were bad over the last N seconds" for two windows
//! at once: a **fast** window that reacts within seconds and a **slow**
//! window that filters blips. The *burn rate* of a window is
//! `bad_ratio / (1 - target)` — the rate at which the error budget is
//! being spent, where `1.0` means "exactly on budget". An SLO is
//! **breached** only when *both* windows burn at or above the spec's
//! threshold (the Google-SRE multi-window multi-burn-rate alerting
//! shape: the fast window gives low detection latency, the slow window
//! keeps one bad second from paging).
//!
//! [`SloEngine::report`] refreshes `gs_slo_*` gauges in the registry and
//! returns the per-spec [`SloStatus`] rows the `/slo` endpoint renders.

use crate::clock::SpanClock;
use crate::metrics::{Gauge, Registry};
use crate::window::Windowed;

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

/// The number of ring buckets each spec carries; the slow window spans
/// the ring.
const SLOTS: usize = 64;

#[derive(Debug)]
struct SpecState {
    spec: SloSpec,
    /// Buckets of the fast and of the slow window.
    windows: [u64; 2],
    /// Cumulative (good, bad) events.
    counts: Windowed<2>,
    target_gauge: Gauge,
    /// Fast- and slow-window burn rates.
    burn_gauges: [Gauge; 2],
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
                let bucket_us = slow_us / SLOTS as u64;
                let fast_us = spec.fast_window_s.max(1) * 1_000_000;
                let slo = ("slo", spec.name.as_str());
                let target_gauge =
                    registry.gauge("gs_slo_target", &[slo], "SLO target good-event fraction");
                target_gauge.set(spec.target);
                let burn_gauges = ["fast", "slow"].map(|window| {
                    registry.gauge(
                        "gs_slo_burn_rate",
                        &[slo, ("window", window)],
                        "error-budget burn rate per window (1 = on budget)",
                    )
                });
                let breached_gauge = registry.gauge(
                    "gs_slo_breached",
                    &[slo],
                    "1 when both burn-rate windows exceed the threshold",
                );
                SpecState {
                    windows: [fast_us.div_ceil(bucket_us), SLOTS as u64],
                    counts: Windowed::new(bucket_us, SLOTS),
                    spec,
                    target_gauge,
                    burn_gauges,
                    breached_gauge,
                }
            })
            .collect();
        Self {
            clock: SpanClock::new(),
            specs: states,
        }
    }

    /// Records one request outcome against every spec: one atomic add
    /// per spec, no lock and no clock read.
    pub fn record(&self, ok: bool, latency_s: f64) {
        for state in &self.specs {
            let good = match state.spec.kind {
                SloKind::LatencyUnder { seconds } => ok && latency_s <= seconds,
                SloKind::Success => ok,
            };
            state.counts.add([good as u64, !good as u64]);
        }
    }

    /// Evaluates every spec now, refreshing the `gs_slo_*` gauges.
    pub fn report(&self) -> Vec<SloStatus> {
        self.report_at(self.clock.now_us())
    }

    /// [`SloEngine::report`] at an explicit timestamp: folds the outcomes
    /// recorded since the previous report into the bucket of `now_us`
    /// first (tests drive the window math deterministically through this).
    pub fn report_at(&self, now_us: u64) -> Vec<SloStatus> {
        self.specs
            .iter()
            .map(|state| {
                let budget = (1.0 - state.spec.target).max(1e-9);
                // (total, bad, burn rate) of the fast and the slow window.
                let [fast, slow] = state.counts.fold(now_us, state.windows).map(|[good, bad]| {
                    let total = good + bad;
                    (total, bad, (bad as f64 / total.max(1) as f64) / budget)
                });
                let threshold = state.spec.burn_threshold;
                let breached = fast.0 > 0 && fast.2 >= threshold && slow.2 >= threshold;
                state.target_gauge.set(state.spec.target);
                state.burn_gauges[0].set(fast.2);
                state.burn_gauges[1].set(slow.2);
                state.breached_gauge.set(if breached { 1.0 } else { 0.0 });
                SloStatus {
                    name: state.spec.name.clone(),
                    description: state.spec.describe(),
                    target: state.spec.target,
                    fast_total: fast.0,
                    fast_bad: fast.1,
                    slow_total: slow.0,
                    slow_bad: slow.1,
                    fast_burn: fast.2,
                    slow_burn: slow.2,
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
        for _ in 0..100 {
            eng.record(true, 0.001);
        }
        let s = &eng.report_at(base + 1_000_000)[0];
        assert_eq!(s.fast_total, 100);
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
            eng.record(i % 2 == 0, 0.001);
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
        for _ in 0..100 {
            eng.record(false, 0.001);
        }
        assert!(eng.report_at(base + 1_000_000)[0].breached);
        // 10 s later the 4 s fast window holds only fresh good traffic.
        let later = base + 10_000_000;
        for _ in 0..100 {
            eng.record(true, 0.001);
        }
        let s = &eng.report_at(later + 1_000_000)[0];
        assert!(
            !s.breached,
            "fast burn {} slow burn {}",
            s.fast_burn, s.slow_burn
        );
        assert_eq!((s.fast_total, s.fast_bad), (100, 0));
        // The slow window still remembers the bad minute ...
        assert_eq!((s.slow_total, s.slow_bad), (200, 100));
        // ... until it too has passed.
        let s = &eng.report_at(base + 80_000_000)[0];
        assert_eq!((s.slow_total, s.slow_bad), (0, 0));
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
        eng.record(true, 0.05); // good
        eng.record(true, 0.5); // bad: slow
        eng.record(false, 0.01); // bad: failed
        let s = &eng.report_at(1_000_000_000_000)[0];
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
