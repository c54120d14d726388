//! Seeded property tests pinning the render crate's one invariant: every
//! way of producing a frame yields **bit-identical** output.
//!
//! The render crate has one blend path (a band worker behind
//! `rasterize_layer`, which the forward pass runs on a fresh layer before
//! compositing the background) and keeps the seed's scalar blend loops
//! (with the lane kernels' `exp`) as `*_reference` oracles. These tests drive the forward pass,
//! the layer pass at several thread counts, the `render` ==
//! `render_layer` + `finish` seam (full frames and offset sub-viewports)
//! and the sharded [`FrameLayer`] relay composite against those oracles
//! across randomly generated scenes, cameras, viewport shapes (including
//! non-tile-aligned ones) and SH degrees, and pin the projector's output
//! to golden fingerprints.
//! Like `property_invariants.rs`, the cases are driven by the workspace's
//! own deterministic [`Rng64`], so every failure is reproducible from its
//! seed.

use gs_scale::core::camera::{Camera, Viewport};
use gs_scale::core::gaussian::GaussianParams;
use gs_scale::core::math::Vec3;
use gs_scale::core::rng::Rng64;
use gs_scale::core::sh;
use gs_scale::render::pipeline::{render, render_layer};
use gs_scale::render::tiles::TileGrid;
use gs_scale::render::{
    project_splats, rasterize_forward, rasterize_forward_reference, rasterize_layer,
    rasterize_layer_reference, FrameLayer, Splat,
};

const CASES: u64 = 12;

/// A random scene with anisotropic-ish placement and non-trivial SH bands,
/// so every SH degree produces distinct colors.
fn random_scene(rng: &mut Rng64) -> GaussianParams {
    let n = rng.gen_range(40usize..160);
    let mut p = GaussianParams::with_capacity(n);
    for _ in 0..n {
        let opacity = rng.gen_range(0.1f32..0.95);
        p.push_isotropic(
            Vec3::new(
                rng.gen_range(-6.0f32..6.0),
                rng.gen_range(-5.0f32..5.0),
                rng.gen_range(-3.0f32..7.0),
            ),
            rng.gen_range(0.05f32..0.5),
            [rng.gen_f32(), rng.gen_f32(), rng.gen_f32()],
            opacity,
        );
    }
    for i in 0..p.len() {
        for (k, v) in p.sh_coeffs_mut(i).iter_mut().enumerate() {
            *v += (i as f32 + 1.0) * 0.01 * (k as f32 * 0.7).sin();
        }
    }
    p
}

/// A random camera with a viewport whose sides are deliberately not always
/// multiples of the tile size, so partial edge tiles stay covered.
fn random_camera(rng: &mut Rng64) -> Camera {
    Camera::look_at(
        rng.gen_range(33usize..97),
        rng.gen_range(17usize..73),
        rng.gen_range(0.7f32..1.5),
        Vec3::new(
            rng.gen_range(-2.0f32..2.0),
            rng.gen_range(-2.0f32..2.0),
            rng.gen_range(-13.0f32..-7.0),
        ),
        Vec3::ZERO,
        Vec3::new(0.0, 1.0, 0.0),
    )
}

fn random_background(rng: &mut Rng64) -> [f32; 3] {
    [rng.gen_f32(), rng.gen_f32(), rng.gen_f32()]
}

/// FNV-1a over the bit pattern of every field of every splat, in order.
fn splat_fingerprint(splats: &[Splat]) -> u64 {
    splats
        .iter()
        .flat_map(|s| {
            let floats = [
                s.mean2d.x, s.mean2d.y, s.depth, s.conic.xx, s.conic.xy, s.conic.yy, s.radius,
                s.color[0], s.color[1], s.color[2], s.opacity,
            ];
            std::iter::once(s.idx).chain(floats.map(f32::to_bits))
        })
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Golden fingerprints of `project_splats` on a fixed seeded scene, per SH
/// degree, captured while the SoA projection kernels still existed (and
/// equalled the scalar loop that is now the only projector), so the
/// projector stays pinned to those bytes. The scene's higher SH bands come
/// from the RNG rather than `random_scene`'s `sin`, which the optimizer
/// constant-folds to different last bits in release builds.
#[test]
fn project_splats_matches_golden_fingerprints() {
    let mut rng = Rng64::seed_from_u64(0x50a0);
    let mut params = random_scene(&mut rng);
    for i in 0..params.len() {
        for v in params.sh_coeffs_mut(i).iter_mut().skip(3) {
            *v = rng.gen_range(-0.2f32..0.2);
        }
    }
    let cam = random_camera(&mut rng);
    let vp = Viewport::full(&cam);
    let golden: [u64; sh::MAX_DEGREE + 1] = [
        0x08c5_ab0e_79d6_92bf,
        0xbe13_aa78_e2fd_ee7c,
        0x61cc_5a16_f45d_4a1d,
        0xca11_a351_ec7f_0618,
    ];
    for (degree, expected) in golden.into_iter().enumerate() {
        let splats = project_splats(&params, &cam, degree, &vp);
        assert_eq!(splats.len(), 67, "degree {degree}");
        assert_eq!(
            splat_fingerprint(&splats),
            expected,
            "projection drifted from the golden bytes: degree {degree}"
        );
    }
}

/// The forward pass must reproduce the scalar reference image,
/// transmittance and per-pixel processed counts, and the layer pass (at
/// several thread counts, including more threads than tile rows) the scalar
/// reference layer — continuing a partially blended layer, so entry-dead
/// lanes and mid-blend continuation are both exercised.
#[test]
fn raster_kernels_match_reference_across_scenes_and_threads() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xa57e + seed);
        let params = random_scene(&mut rng);
        let cam = random_camera(&mut rng);
        let vp = Viewport::full(&cam);
        let bg = random_background(&mut rng);
        let mut splats = project_splats(&params, &cam, sh::MAX_DEGREE, &vp);
        let grid = TileGrid::build(&splats, vp);
        let (img_ref, aux_ref) = rasterize_forward_reference(&splats, &grid, bg);
        let (img, aux) = rasterize_forward(&splats, &grid, bg);
        assert_eq!(img.data(), img_ref.data(), "image: seed {seed}");
        assert_eq!(
            aux.final_transmittance, aux_ref.final_transmittance,
            "transmittance: seed {seed}"
        );
        assert_eq!(
            aux.n_processed, aux_ref.n_processed,
            "processed counts: seed {seed}"
        );

        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        let (near, far) = splats.split_at(splats.len() / 2);
        let (near_grid, far_grid) = (TileGrid::build(near, vp), TileGrid::build(far, vp));
        let mut layer_ref = FrameLayer::new(vp.width(), vp.height());
        rasterize_layer_reference(near, &near_grid, &mut layer_ref);
        rasterize_layer_reference(far, &far_grid, &mut layer_ref);
        for threads in [1usize, 2, 3, 7, 64] {
            let mut layer = FrameLayer::new(vp.width(), vp.height());
            rasterize_layer(near, &near_grid, &mut layer, threads);
            rasterize_layer(far, &far_grid, &mut layer, threads);
            assert_eq!(layer, layer_ref, "layer: seed {seed} threads {threads}");
        }
    }
}

/// The seam the whole crate rests on: `render` (the training render) equals
/// a fresh layer through `render_layer` (the serving render, at any thread
/// count) finished with the background — image, transmittance and stats —
/// over full frames and over sub-viewports that start away from the origin.
#[test]
fn tiled_pipeline_matches_sequential_across_scenes() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x71e0 + seed);
        let params = random_scene(&mut rng);
        let cam = random_camera(&mut rng);
        let bg = random_background(&mut rng);
        let degree = rng.gen_range(0usize..sh::MAX_DEGREE + 1);
        let x0 = rng.gen_range(1usize..cam.width / 2);
        let y0 = rng.gen_range(1usize..cam.height / 2);
        let sub = Viewport {
            x0,
            y0,
            x1: rng.gen_range(x0 + 1..cam.width + 1),
            y1: rng.gen_range(y0 + 1..cam.height + 1),
        };
        for vp in [Viewport::full(&cam), sub] {
            let sequential = render(&params, &cam, degree, &vp, bg);
            for threads in [1usize, 2, 3, 7, 64] {
                let mut layer = FrameLayer::new(vp.width(), vp.height());
                let (stats, _) = render_layer(&params, &cam, degree, &vp, &mut layer, threads);
                let case = format!("seed {seed} viewport {vp:?} threads {threads}");
                assert_eq!(
                    layer.finish(bg).data(),
                    sequential.image.data(),
                    "seam image: {case}"
                );
                assert_eq!(
                    layer.transmittance(),
                    &sequential.aux.final_transmittance[..],
                    "seam transmittance: {case}"
                );
                assert_eq!(stats, sequential.stats, "seam stats: {case}");
            }
        }
    }
}

/// Depth-disjoint shards relayed through one running [`FrameLayer`] — with
/// each shard rasterized on one thread or tile-parallel —
/// must reproduce the single-pass frame byte for byte, which is the
/// invariant the cluster's cross-node sharded rendering rests on.
#[test]
fn sharded_layer_relay_matches_single_pass_across_scenes() {
    for seed in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x5a4d + seed);
        let params = random_scene(&mut rng);
        let cam = random_camera(&mut rng);
        let vp = Viewport::full(&cam);
        let bg = random_background(&mut rng);
        let mut splats = project_splats(&params, &cam, sh::MAX_DEGREE, &vp);
        // Depth-disjoint shards: globally sort by depth, cut at random
        // points. Sorting first keeps the single-pass composition order
        // identical (the tile sort is stable and by depth already).
        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        let full_grid = TileGrid::build(&splats, vp);
        let (single, _) = rasterize_forward(&splats, &full_grid, bg);

        let shards = rng.gen_range(2usize..5);
        let mut cuts: Vec<usize> = (0..shards - 1)
            .map(|_| rng.gen_range(0usize..splats.len() + 1))
            .collect();
        cuts.push(splats.len());
        cuts.sort_unstable();

        let mut relay = FrameLayer::new(vp.width(), vp.height());
        let mut relay_tiled = FrameLayer::new(vp.width(), vp.height());
        let mut reference = FrameLayer::new(vp.width(), vp.height());
        let mut start = 0;
        for &end in &cuts {
            let shard = &splats[start..end];
            let grid = TileGrid::build(shard, vp);
            rasterize_layer(shard, &grid, &mut relay, 1);
            rasterize_layer(shard, &grid, &mut relay_tiled, 3);
            rasterize_layer_reference(shard, &grid, &mut reference);
            start = end;
        }
        assert_eq!(
            relay.finish(bg).data(),
            single.data(),
            "lane relay drifted from the single pass: seed {seed}"
        );
        assert_eq!(
            relay_tiled, relay,
            "tiled relay drifted from the lane relay: seed {seed}"
        );
        assert_eq!(
            reference, relay,
            "lane layer kernel drifted from the scalar layer kernel: seed {seed}"
        );
    }
}
