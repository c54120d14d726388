//! Deterministic trace replay: drive a captured (or synthesized)
//! [`gs_trace::Trace`] back through a live serving target.
//!
//! The replayer turns each [`TraceEvent`] back into the wire request it was
//! captured from ([`gs_serve::WireRequest::from_trace_event`]) and submits
//! it to a [`ReplayTarget`] — the single-node [`RenderServer`] or the
//! cluster [`Coordinator`] — in one of two modes:
//!
//! * **Closed loop** — `concurrency` workers race through the events in
//!   trace order as fast as the target answers. With `concurrency == 1`
//!   the replay is fully sequential, which makes *every* observable —
//!   per-request frame hashes *and* cache-hit counters — deterministic:
//!   two replays of one trace against identically-built targets agree
//!   bit for bit.
//! * **Open loop** — a dispatcher paces submissions to the trace's own
//!   arrival timestamps (scaled by `speed`), reproducing the captured
//!   workload's temporal shape (diurnal ramps, flash crowds) against the
//!   live target. Frame hashes stay deterministic (rendering is
//!   bit-identical regardless of batching/scheduling); latency and
//!   cache-counter observables become genuine measurements.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gs_cluster::{outcome_for_cluster_error, Coordinator};
use gs_serve::{outcome_for_error, percentile, RenderServer, WireRequest};
use gs_trace::{Outcome, Trace, TraceEvent};

/// FNV-1a over a byte slice: the workspace's standard cheap stable hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A stable fingerprint of a rendered frame: dimensions plus the exact bit
/// pattern of every `f32` sample, so two frames hash equal iff they are
/// bit-identical.
pub fn hash_image(image: &gs_core::image::Image) -> u64 {
    let mut hash = fnv1a(&(image.width() as u64).to_le_bytes());
    hash ^= fnv1a(&(image.height() as u64).to_le_bytes()).rotate_left(17);
    for &v in image.data() {
        hash ^= u64::from(v.to_bits());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What one replayed request observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayedRequest {
    /// How the target answered, in trace-outcome terms.
    pub outcome: Outcome,
    /// [`hash_image`] of the served frame (0 for error outcomes).
    pub frame_hash: u64,
    /// Submit-to-answer wall time.
    pub latency: Duration,
}

/// Anything a trace can be replayed against.
pub trait ReplayTarget: Sync {
    /// Serves one replayed event and reports what happened.
    fn replay(&self, request: &WireRequest) -> ReplayedRequest;
}

impl ReplayTarget for RenderServer {
    fn replay(&self, request: &WireRequest) -> ReplayedRequest {
        let started = Instant::now();
        match self.render_blocking(request.to_render_request()) {
            Ok(frame) => ReplayedRequest {
                outcome: if frame.cache_hit {
                    Outcome::CacheHit
                } else {
                    Outcome::Completed
                },
                frame_hash: hash_image(&frame.image),
                latency: started.elapsed(),
            },
            Err(e) => ReplayedRequest {
                outcome: outcome_for_error(&e),
                frame_hash: 0,
                latency: started.elapsed(),
            },
        }
    }
}

impl ReplayTarget for Coordinator {
    fn replay(&self, request: &WireRequest) -> ReplayedRequest {
        let started = Instant::now();
        match self.render(request) {
            Ok(frame) => ReplayedRequest {
                outcome: if frame.cache_hit {
                    Outcome::CacheHit
                } else {
                    Outcome::Completed
                },
                frame_hash: hash_image(&frame.image),
                latency: started.elapsed(),
            },
            Err(e) => ReplayedRequest {
                outcome: outcome_for_cluster_error(&e),
                frame_hash: 0,
                latency: started.elapsed(),
            },
        }
    }
}

/// How the replayer submits the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayMode {
    /// `concurrency` workers race through the events in trace order.
    ClosedLoop {
        /// Concurrent in-flight requests (1 = sequential, deterministic).
        concurrency: usize,
    },
    /// Submissions are paced to the trace's arrival timestamps.
    OpenLoop {
        /// Time scale: 2.0 replays twice as fast as captured.
        speed: f64,
        /// Worker threads serving the paced arrivals.
        concurrency: usize,
    },
}

/// Replay configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Submission mode.
    pub mode: ReplayMode,
    /// Whether captured `deadline_ms` values are re-armed on replay.
    /// Off by default: replay wall-clock differs from capture wall-clock,
    /// so re-armed deadlines would expire nondeterministically.
    pub honor_deadlines: bool,
}

impl ReplayConfig {
    /// Sequential closed-loop replay — the fully deterministic mode.
    pub fn sequential() -> Self {
        Self {
            mode: ReplayMode::ClosedLoop { concurrency: 1 },
            honor_deadlines: false,
        }
    }

    /// Closed-loop replay with `concurrency` in-flight requests.
    pub fn closed_loop(concurrency: usize) -> Self {
        Self {
            mode: ReplayMode::ClosedLoop {
                concurrency: concurrency.max(1),
            },
            honor_deadlines: false,
        }
    }

    /// Timestamp-faithful open-loop replay at `speed`× capture speed.
    pub fn open_loop(speed: f64, concurrency: usize) -> Self {
        Self {
            mode: ReplayMode::OpenLoop {
                speed: if speed.is_finite() && speed > 0.0 {
                    speed
                } else {
                    1.0
                },
                concurrency: concurrency.max(1),
            },
            honor_deadlines: false,
        }
    }
}

/// What a whole replay observed, indexed in trace order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayReport {
    /// Per-event results, one per replayed [`TraceEvent`], in trace order.
    pub requests: Vec<ReplayedRequest>,
    /// Wall-clock time of the whole replay.
    pub wall: Duration,
}

impl ReplayReport {
    /// Number of replayed events.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether nothing was replayed.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// How many requests ended with `outcome`.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.requests
            .iter()
            .filter(|r| r.outcome == outcome)
            .count()
    }

    /// Requests answered with a frame (completed or cache hit).
    pub fn served(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.outcome.is_served())
            .count()
    }

    /// Cache hits over served requests (0 when nothing was served).
    pub fn hit_rate(&self) -> f64 {
        let served = self.served();
        if served == 0 {
            0.0
        } else {
            self.count(Outcome::CacheHit) as f64 / served as f64
        }
    }

    /// One stable fingerprint over every per-request observable the replay
    /// contract promises: outcome tags and frame hashes, in trace order.
    /// Two deterministic replays of one trace must agree on this value.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.requests.len() * 9);
        for r in &self.requests {
            bytes.push(r.outcome.as_u8());
            bytes.extend_from_slice(&r.frame_hash.to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// The `q`-quantile of the observed latencies, in milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut sorted: Vec<f64> = self
            .requests
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, q.clamp(0.0, 1.0))
    }

    /// Replayed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.requests.len() as f64 / secs
        }
    }
}

/// The wire request an event is replayed as (deadline stripped unless the
/// config re-arms it).
fn request_for(event: &TraceEvent, config: &ReplayConfig) -> WireRequest {
    let mut request = WireRequest::from_trace_event(event);
    if !config.honor_deadlines {
        request.deadline_ms = None;
    }
    request
}

/// Replays `events` (in the given order) against `target`.
pub fn replay_events<T: ReplayTarget + ?Sized>(
    target: &T,
    events: &[TraceEvent],
    config: &ReplayConfig,
) -> ReplayReport {
    let started = Instant::now();
    let requests = match config.mode {
        ReplayMode::ClosedLoop { concurrency } if concurrency <= 1 => events
            .iter()
            .map(|e| target.replay(&request_for(e, config)))
            .collect(),
        ReplayMode::ClosedLoop { concurrency } => {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<ReplayedRequest>>> =
                (0..events.len()).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..concurrency.min(events.len().max(1)) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(event) = events.get(i) else { break };
                        *slots[i].lock().unwrap() =
                            Some(target.replay(&request_for(event, config)));
                    });
                }
            });
            collect_slots(slots)
        }
        ReplayMode::OpenLoop { speed, concurrency } => {
            let origin_us = events.first().map_or(0, |e| e.at_us);
            let (tx, rx) = std::sync::mpsc::channel::<usize>();
            let rx = Mutex::new(rx);
            let slots: Vec<Mutex<Option<ReplayedRequest>>> =
                (0..events.len()).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..concurrency.max(1) {
                    scope.spawn(|| loop {
                        // Lock only around recv: holding it through the
                        // render would serialize the pool.
                        let received = rx.lock().unwrap().recv();
                        let Ok(i) = received else { break };
                        *slots[i].lock().unwrap() =
                            Some(target.replay(&request_for(&events[i], config)));
                    });
                }
                let clock = Instant::now();
                for (i, event) in events.iter().enumerate() {
                    let offset_us = (event.at_us - origin_us) as f64 / speed;
                    let due = Duration::from_secs_f64(offset_us / 1e6);
                    if let Some(wait) = due.checked_sub(clock.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    if tx.send(i).is_err() {
                        break;
                    }
                }
                drop(tx);
            });
            collect_slots(slots)
        }
    };
    ReplayReport {
        requests,
        wall: started.elapsed(),
    }
}

/// Replays a whole trace in its arrival order.
pub fn replay<T: ReplayTarget + ?Sized>(
    target: &T,
    trace: &Trace,
    config: &ReplayConfig,
) -> ReplayReport {
    replay_events(target, &trace.events, config)
}

fn collect_slots(slots: Vec<Mutex<Option<ReplayedRequest>>>) -> Vec<ReplayedRequest> {
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every event is assigned to exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_and_image_hash_are_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        let mut a = gs_core::image::Image::zeros(4, 3);
        let b = gs_core::image::Image::zeros(4, 3);
        assert_eq!(hash_image(&a), hash_image(&b));
        a.data_mut()[5] = f32::MIN_POSITIVE; // one-ulp-class change flips the hash
        assert_ne!(hash_image(&a), hash_image(&b));
        // Same sample count, different shape.
        assert_ne!(
            hash_image(&gs_core::image::Image::zeros(6, 2)),
            hash_image(&gs_core::image::Image::zeros(2, 6))
        );
    }

    #[test]
    fn report_metrics_aggregate_outcomes() {
        let req = |outcome, hash, ms| ReplayedRequest {
            outcome,
            frame_hash: hash,
            latency: Duration::from_millis(ms),
        };
        let report = ReplayReport {
            requests: vec![
                req(Outcome::Completed, 1, 10),
                req(Outcome::CacheHit, 1, 1),
                req(Outcome::CacheHit, 1, 1),
                req(Outcome::Error, 0, 2),
            ],
            wall: Duration::from_secs(2),
        };
        assert_eq!(report.served(), 3);
        assert!((report.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.count(Outcome::Error), 1);
        assert!((report.throughput_rps() - 2.0).abs() < 1e-12);
        assert!(report.latency_ms(0.0) <= report.latency_ms(1.0));
        let mut reordered = report.clone();
        reordered.requests.swap(0, 3);
        assert_ne!(report.fingerprint(), reordered.fingerprint());
    }

    #[test]
    fn latency_quantiles_interpolate_between_ranks() {
        let report = ReplayReport {
            requests: [4, 1, 3, 2]
                .map(|ms| ReplayedRequest {
                    outcome: Outcome::Completed,
                    frame_hash: 1,
                    latency: Duration::from_millis(ms),
                })
                .to_vec(),
            wall: Duration::from_secs(1),
        };
        // Rank 1.5 sits halfway between 2 and 3 ms; nearest-rank said 3.
        assert!((report.latency_ms(0.5) - 2.5).abs() < 1e-9);
        assert!((report.latency_ms(-1.0) - 1.0).abs() < 1e-9);
        assert!((report.latency_ms(2.0) - 4.0).abs() < 1e-9);
        assert_eq!(ReplayReport::default().latency_ms(0.5), 0.0);
    }
}
