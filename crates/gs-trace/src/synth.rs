//! Seeded synthetic workload generators: the standard scenario suite the
//! serving benches replay.
//!
//! Real serving traffic has structure that ad-hoc closed loops do not
//! reproduce: scene popularity is Zipfian (a few hot scenes, a long cold
//! tail), load follows diurnal curves and occasionally spikes into flash
//! crowds, and each client walks a *camera tour* — consecutive requests
//! from one session have nearby poses, which is exactly what pose-quantized
//! frame caches exploit. Every generator here is deterministic in
//! `(config, seed)`: the same config always produces the same [`Trace`],
//! byte for byte.

use gs_core::rng::{Rng64, Zipf};

use crate::format::{Trace, TraceEvent};

/// The arrival-intensity curve of a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShape {
    /// Flat arrival rate.
    Constant,
    /// Sinusoidal day/night load: `cycles` full periods over the trace.
    Diurnal {
        /// Number of full day/night periods across the trace duration.
        cycles: f64,
    },
    /// A burst on top of flat background load.
    FlashCrowd {
        /// Burst start as a fraction of the trace duration (`0..1`).
        at: f64,
        /// Burst width as a fraction of the trace duration.
        width: f64,
        /// Burst intensity as a multiple of the background rate.
        magnitude: f64,
        /// During the burst, requests concentrate on this many scenes.
        hot_scenes: usize,
    },
}

/// Configuration of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of distinct scenes (`scene-00`, `scene-01`, ...).
    pub scenes: usize,
    /// Zipf exponent of scene popularity (`0` = uniform, `~1` = classic).
    pub zipf_exponent: f64,
    /// Number of client sessions, each walking its own camera tour.
    pub clients: usize,
    /// Total requests to generate.
    pub requests: usize,
    /// Trace duration in seconds (arrival timestamps span this).
    pub duration_s: f64,
    /// Probability a client *dwells* — repeats its previous pose exactly —
    /// instead of advancing its tour. Dwells on a popular scene are what
    /// give a pose-quantized frame cache its hits.
    pub dwell: f64,
    /// Image width of every request.
    pub width: u32,
    /// Image height of every request.
    pub height: u32,
    /// SH degree of every request.
    pub sh_degree: u8,
    /// Deadline in milliseconds stamped on every request (`0` = none).
    pub deadline_ms: u32,
    /// Generation seed.
    pub seed: u64,
    /// Arrival-intensity curve.
    pub shape: LoadShape,
}

impl SynthConfig {
    /// Zipf-popularity steady load: the baseline cache/scheduler scenario.
    pub fn zipf(requests: usize) -> Self {
        Self {
            scenes: 12,
            zipf_exponent: 1.0,
            clients: 16,
            requests,
            duration_s: 10.0,
            dwell: 0.35,
            width: 64,
            height: 48,
            sh_degree: 2,
            deadline_ms: 0,
            seed: 1,
            shape: LoadShape::Constant,
        }
    }

    /// Day/night sinusoidal load over Zipf popularity.
    pub fn diurnal(requests: usize) -> Self {
        Self {
            shape: LoadShape::Diurnal { cycles: 2.0 },
            seed: 2,
            ..Self::zipf(requests)
        }
    }

    /// A flash crowd: flat background load with a 4x burst over 15% of the
    /// trace, concentrated on two suddenly-hot scenes.
    pub fn flash_crowd(requests: usize) -> Self {
        Self {
            shape: LoadShape::FlashCrowd {
                at: 0.45,
                width: 0.15,
                magnitude: 4.0,
                hot_scenes: 2,
            },
            seed: 3,
            ..Self::zipf(requests)
        }
    }

    /// Smooth per-client camera tours over a few scenes, no dwells: the
    /// pose-locality scenario (every request a new nearby pose).
    pub fn camera_tour(requests: usize) -> Self {
        Self {
            scenes: 4,
            clients: 8,
            dwell: 0.0,
            seed: 4,
            ..Self::zipf(requests)
        }
    }
}

/// Canonical name of the scene at popularity rank `rank`.
pub fn scene_name(rank: usize) -> String {
    format!("scene-{rank:02}")
}

impl LoadShape {
    /// Relative arrival intensity at trace fraction `u` in `[0, 1)`.
    fn rate(&self, u: f64) -> f64 {
        match *self {
            LoadShape::Constant => 1.0,
            LoadShape::Diurnal { cycles } => {
                (1.0 + 0.75 * (std::f64::consts::TAU * cycles * u).sin()).max(0.05)
            }
            LoadShape::FlashCrowd {
                at,
                width,
                magnitude,
                ..
            } => {
                if u >= at && u < at + width {
                    1.0 + magnitude
                } else {
                    1.0
                }
            }
        }
    }
}

/// Inverse-CDF arrival sampler over a [`LoadShape`]: precomputes the
/// cumulative intensity on a fine grid, then maps a uniform quantile to a
/// trace-fraction arrival time.
struct ArrivalCurve {
    cum: Vec<f64>,
}

impl ArrivalCurve {
    const GRID: usize = 2048;

    fn new(shape: &LoadShape) -> Self {
        let mut cum = Vec::with_capacity(Self::GRID);
        let mut acc = 0.0;
        for g in 0..Self::GRID {
            acc += shape.rate((g as f64 + 0.5) / Self::GRID as f64);
            cum.push(acc);
        }
        for c in &mut cum {
            *c /= acc;
        }
        Self { cum }
    }

    /// Trace fraction in `[0, 1)` at which quantile `u` of all arrivals has
    /// occurred.
    fn at(&self, u: f64) -> f64 {
        let cell = self.cum.partition_point(|&c| c < u);
        let cell = cell.min(Self::GRID - 1);
        let lo = if cell == 0 { 0.0 } else { self.cum[cell - 1] };
        let hi = self.cum[cell];
        let frac = if hi > lo { (u - lo) / (hi - lo) } else { 0.0 };
        ((cell as f64 + frac) / Self::GRID as f64).min(1.0 - 1e-9)
    }
}

/// One client session's camera-tour state.
struct ClientTour {
    angle: f32,
    step: f32,
    radius: f32,
    height: f32,
    last: Option<(String, [f32; 3])>,
}

impl ClientTour {
    fn new(c: usize) -> Self {
        Self {
            angle: (c as f32) * 0.7,
            step: 0.04 + 0.012 * ((c % 7) as f32),
            radius: 8.0 + ((c % 5) as f32),
            height: 1.0 + 0.4 * ((c % 3) as f32),
            last: None,
        }
    }

    /// The previous (scene, pose) pair, if the client has made a request.
    fn repeat(&self) -> Option<(String, [f32; 3])> {
        self.last.clone()
    }

    /// Advances the tour one step on `scene` and returns the new pose.
    fn advance(&mut self, scene: &str) -> [f32; 3] {
        self.angle += self.step;
        let pose = [
            self.radius * self.angle.sin(),
            self.height,
            -self.radius * self.angle.cos(),
        ];
        self.last = Some((scene.to_string(), pose));
        pose
    }
}

/// Generates the trace `config` describes. Deterministic: the same config
/// always yields the same events.
pub fn generate(config: &SynthConfig) -> Trace {
    assert!(config.scenes > 0 && config.clients > 0, "degenerate config");
    let mut rng = Rng64::seed_from_u64(config.seed);
    let zipf = Zipf::new(config.scenes, config.zipf_exponent);
    let curve = ArrivalCurve::new(&config.shape);
    let mut tours: Vec<ClientTour> = (0..config.clients).map(ClientTour::new).collect();
    let duration_us = config.duration_s * 1e6;

    let mut events = Vec::with_capacity(config.requests);
    for i in 0..config.requests {
        // Strictly non-decreasing quantiles keep arrivals ordered while the
        // jitter keeps them off a perfect lattice.
        let u = (i as f64 + rng.gen_f64()) / config.requests as f64;
        let t = curve.at(u);
        let at_us = (t * duration_us) as u64;

        let in_flash = matches!(
            config.shape,
            LoadShape::FlashCrowd { at, width, .. } if t >= at && t < at + width
        );
        let client_idx = rng.gen_range(0..config.clients);
        let dwell = config.dwell > 0.0 && rng.gen_bool(config.dwell);
        // A dwell re-requests the client's previous view exactly — the raw
        // material of frame-cache hits. Inside a flash burst clients chase
        // the hot scenes instead of their own history.
        let (scene, position) = match tours[client_idx].repeat() {
            Some(last) if dwell && !in_flash => last,
            _ => {
                let rank = if in_flash {
                    let LoadShape::FlashCrowd { hot_scenes, .. } = config.shape else {
                        unreachable!()
                    };
                    rng.gen_range(0..hot_scenes.clamp(1, config.scenes))
                } else {
                    zipf.sample(&mut rng)
                };
                let scene = scene_name(rank);
                let position = tours[client_idx].advance(&scene);
                (scene, position)
            }
        };

        let mut event = TraceEvent::new(at_us, scene, format!("client-{client_idx:02}"));
        event.position = position;
        event.target = [0.0, 0.0, 0.0];
        event.up = [0.0, 1.0, 0.0];
        event.fov_x = 1.1;
        event.width = config.width;
        event.height = config.height;
        event.sh_degree = config.sh_degree;
        event.deadline_ms = config.deadline_ms;
        events.push(event);
    }
    Trace::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = SynthConfig::flash_crowd(500);
        assert_eq!(generate(&config), generate(&config));
        let mut other = config.clone();
        other.seed += 1;
        assert_ne!(generate(&other), generate(&config));
    }

    #[test]
    fn zipf_popularity_shapes_the_scene_mix() {
        let trace = generate(&SynthConfig::zipf(4000));
        let count = |s: &str| trace.events.iter().filter(|e| e.scene == s).count();
        let hot = count(&scene_name(0));
        let cold = count(&scene_name(11));
        assert!(
            hot > 4 * cold.max(1),
            "rank 0 ({hot}) must dominate rank 11 ({cold})"
        );
    }

    #[test]
    fn flash_crowd_concentrates_load_and_scenes() {
        let config = SynthConfig::flash_crowd(4000);
        let trace = generate(&config);
        let span = trace.duration_us() as f64;
        let in_window = |e: &TraceEvent| {
            let t = e.at_us as f64 / span;
            (0.45..0.60).contains(&t)
        };
        let burst: Vec<&TraceEvent> = trace.events.iter().filter(|e| in_window(e)).collect();
        // 15% of the time at 5x intensity vs 85% at 1x: the window holds
        // 0.75/1.6 ≈ 47% of all requests.
        assert!(
            burst.len() > trace.len() / 3,
            "burst holds {} of {}",
            burst.len(),
            trace.len()
        );
        // Strictly inside the burst (margin for the trace-span vs
        // configured-duration normalization difference) only the two hot
        // scenes appear.
        assert!(trace
            .events
            .iter()
            .filter(|e| {
                let t = e.at_us as f64 / span;
                (0.47..0.57).contains(&t)
            })
            .all(|e| e.scene == scene_name(0) || e.scene == scene_name(1)));
    }

    #[test]
    fn diurnal_load_varies_across_the_trace() {
        let trace = generate(&SynthConfig::diurnal(4000));
        let span = trace.duration_us() + 1;
        let mut quarters = [0usize; 4];
        for e in &trace.events {
            quarters[(e.at_us * 4 / span) as usize] += 1;
        }
        let max = *quarters.iter().max().unwrap();
        let min = *quarters.iter().min().unwrap();
        assert!(
            max > min + min / 2,
            "diurnal quarters should differ: {quarters:?}"
        );
    }

    #[test]
    fn events_are_ordered_and_cameras_are_valid() {
        let trace = generate(&SynthConfig::camera_tour(300));
        for pair in trace.events.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us);
        }
        for e in &trace.events {
            assert_ne!(e.position, e.target, "pos must differ from target");
            // The tour stays on a horizontal orbit, never parallel to up.
            assert!(e.position[0].abs() > 1e-3 || e.position[2].abs() > 1e-3);
            assert!(e.width > 0 && e.height > 0);
        }
    }

    #[test]
    fn dwells_repeat_poses_for_cache_hits() {
        let trace = generate(&SynthConfig::zipf(2000));
        // Count (scene, client, exact pose) repeats — the raw material of
        // frame-cache hits.
        let mut seen = std::collections::HashMap::new();
        let mut repeats = 0usize;
        for e in &trace.events {
            let key = (
                e.scene.clone(),
                e.client.clone(),
                e.position.map(f32::to_bits),
            );
            if *seen.entry(key).and_modify(|c| *c += 1).or_insert(1usize) > 1 {
                repeats += 1;
            }
        }
        assert!(
            repeats > trace.len() / 10,
            "dwell=0.35 should repeat poses often, got {repeats}/{}",
            trace.len()
        );
    }
}
