//! Property-based tests on the core invariants the GS-Scale design relies
//! on, using randomly generated scenes, cameras and gradient schedules.
//!
//! These were originally written against `proptest`; they now drive the same
//! properties from the workspace's own deterministic [`Rng64`] so the test
//! suite stays dependency-free. Every case is reproducible from the fixed
//! seeds below.

use gs_scale::core::camera::{Camera, Viewport};
use gs_scale::core::gaussian::{GaussianGrads, GaussianParams, ParamGroup, SparseGrads};
use gs_scale::core::math::Vec3;
use gs_scale::core::rng::Rng64;
use gs_scale::optim::{AdamConfig, DeferredAdam, DenseAdam};
use gs_scale::platform::{MemoryCategory, MemoryPool, Stream, TimelineSim};
use gs_scale::render::culling::frustum_cull;
use gs_scale::render::pipeline::{render, render_image};
use gs_scale::render::projection::project_splats;

const CASES: u64 = 16;

fn random_gaussians(rng: &mut Rng64, max_n: usize) -> GaussianParams {
    let n = rng.gen_range(1..max_n);
    let mut p = GaussianParams::new();
    for _ in 0..n {
        let opacity = rng.gen_range(0.05f32..0.95);
        p.push_isotropic(
            Vec3::new(
                rng.gen_range(-8.0f32..8.0),
                rng.gen_range(-6.0f32..6.0),
                rng.gen_range(-4.0f32..8.0),
            ),
            rng.gen_range(0.05f32..0.6),
            [0.2 + 0.6 * opacity, 0.5, 0.9 - 0.5 * opacity],
            opacity,
        );
    }
    p
}

fn random_camera(rng: &mut Rng64) -> Camera {
    Camera::look_at(
        64,
        48,
        rng.gen_range(0.6f32..1.6),
        Vec3::new(
            rng.gen_range(-3.0f32..3.0),
            rng.gen_range(-3.0f32..3.0),
            rng.gen_range(-14.0f32..-6.0),
        ),
        Vec3::ZERO,
        Vec3::new(0.0, 1.0, 0.0),
    )
}

/// Frustum culling (which only reads geometric attributes) must never drop a
/// Gaussian that fine-grained projection keeps — otherwise the offloading
/// systems would silently lose gradient contributions.
#[test]
fn culling_is_a_superset_of_projection() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(100 + seed);
        let params = random_gaussians(&mut rng, 60);
        let cam = random_camera(&mut rng);
        let vp = Viewport::full(&cam);
        let culled: std::collections::HashSet<u32> =
            frustum_cull(&params, &cam, &vp).ids.into_iter().collect();
        for splat in project_splats(&params, &cam, 3, &vp) {
            assert!(
                culled.contains(&splat.idx),
                "seed {seed}: lost {}",
                splat.idx
            );
        }
    }
}

/// Rendering only the culled subset produces exactly the same image as
/// rendering the full parameter set.
#[test]
fn gathered_rendering_matches_full_rendering() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(200 + seed);
        let params = random_gaussians(&mut rng, 50);
        let cam = random_camera(&mut rng);
        let vp = Viewport::full(&cam);
        let full = render_image(&params, &cam, 2, [0.1, 0.1, 0.1]);
        let cull = frustum_cull(&params, &cam, &vp);
        let gathered = params.gather(&cull.ids);
        let subset = render_image(&gathered, &cam, 2, [0.1, 0.1, 0.1]);
        for (a, b) in full.data().iter().zip(subset.data()) {
            assert!((a - b).abs() < 1e-5, "seed {seed}: {a} vs {b}");
        }
    }
}

/// Splitting an image into two vertical halves and stitching the halves
/// reproduces the full render exactly (the invariant behind balance-aware
/// image splitting).
#[test]
fn split_viewports_compose_to_full_image() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(300 + seed);
        let params = random_gaussians(&mut rng, 40);
        let cam = random_camera(&mut rng);
        let split_frac = rng.gen_range(0.2f64..0.8);
        let vp = Viewport::full(&cam);
        let column = ((cam.width as f64 * split_frac) as usize).clamp(1, cam.width - 1);
        let (left, right) = vp.split_at_column(column);
        let full = render(&params, &cam, 2, &vp, [0.0; 3]).image;
        let l = render(&params, &cam, 2, &left, [0.0; 3]).image;
        let r = render(&params, &cam, 2, &right, [0.0; 3]).image;
        for y in 0..cam.height {
            for x in 0..cam.width {
                let expect = full.pixel(x, y);
                let got = if x < column {
                    l.pixel(x, y)
                } else {
                    r.pixel(x - column, y)
                };
                for ch in 0..3 {
                    assert!(
                        (expect[ch] - got[ch]).abs() < 1e-5,
                        "seed {seed}: pixel ({x},{y}) ch {ch}"
                    );
                }
            }
        }
    }
}

/// The deferred optimizer follows dense Adam bit for bit — parameters and
/// both moments, after a flush — for arbitrary sparse gradient schedules,
/// which is the paper's core correctness claim.
#[test]
fn deferred_adam_tracks_dense_adam() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(400 + seed);
        let n = rng.gen_range(4usize..24);
        let num_steps = rng.gen_range(3usize..20);
        let mut params = GaussianParams::new();
        for i in 0..n {
            let f = i as f32 + seed as f32 * 0.01;
            params.push_isotropic(
                Vec3::new(f.sin(), f.cos(), 1.0 + 0.1 * f),
                0.1 + 0.01 * (i % 7) as f32,
                [0.4, 0.5, 0.6],
                0.3 + 0.05 * (i % 9) as f32,
            );
        }
        let cfg = AdamConfig::reference();
        let mut p_dense = params.clone();
        let mut p_def = params;
        let mut dense = DenseAdam::new(cfg, n);
        let mut deferred = DeferredAdam::new(cfg, n);

        for step in 0..num_steps {
            let ids: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
            let mut grads = GaussianGrads::zeros(ids.len());
            for k in 0..ids.len() {
                let x = (step as f32 * 0.37 + k as f32 * 0.73 + seed as f32).sin();
                grads.means[3 * k] = x * 0.2;
                grads.opacities[k] = x * 0.1;
                grads.sh[48 * k + 2] = x * 0.05;
            }
            let sparse = SparseGrads { ids, grads };
            dense.step(&mut p_dense, &sparse.to_dense(n));
            deferred.step(&mut p_def, &sparse);
        }
        deferred.flush(&mut p_def);
        let (a, b) = (dense.state(), deferred.state());
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for g in ParamGroup::ALL {
            let pairs = [
                ("params", p_dense.group(g), p_def.group(g)),
                ("m", a.m.group(g), b.m.group(g)),
                ("v", a.v.group(g), b.v.group(g)),
            ];
            for (what, x, y) in pairs {
                assert_eq!(bits(x), bits(y), "seed {seed}, {what} of {g:?}");
            }
        }
    }
}

/// Memory-pool accounting never goes negative, never exceeds capacity, and
/// the peak is monotone.
#[test]
fn memory_pool_accounting_is_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(500 + seed);
        let mut pool = MemoryPool::new("gpu", 100_000);
        let mut last_peak = 0;
        for _ in 0..rng.gen_range(1usize..60) {
            let bytes = rng.gen_range(0u64..5000);
            match rng.gen_range(0u32..3) {
                0 => {
                    let _ = pool.alloc(MemoryCategory::Parameters, bytes);
                }
                1 => pool.free(MemoryCategory::Parameters, bytes),
                _ => {
                    let _ = pool.set(MemoryCategory::Activations, bytes);
                }
            }
            assert!(pool.used_total() <= pool.capacity());
            assert!(pool.peak_total() >= last_peak);
            assert!(pool.peak_total() >= pool.used_total());
            last_peak = pool.peak_total();
        }
    }
}

/// The timeline simulator never overlaps events within a stream and the
/// makespan is at least as long as the busiest stream.
#[test]
fn timeline_respects_stream_serialization() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(600 + seed);
        let mut sim = TimelineSim::new();
        let mut last = None;
        for _ in 0..rng.gen_range(1usize..80) {
            let stream = Stream::ALL[rng.gen_range(0usize..4)];
            let duration = rng.gen_range(0.0f64..0.01);
            let deps: Vec<_> = if rng.gen_bool(0.5) {
                last.into_iter().collect()
            } else {
                Vec::new()
            };
            last = Some(sim.schedule(stream, "ev", duration, &deps));
        }
        assert!(sim.is_consistent(), "seed {seed}");
        for s in Stream::ALL {
            assert!(sim.busy_time(s) <= sim.makespan() + 1e-12, "seed {seed}");
        }
    }
}
