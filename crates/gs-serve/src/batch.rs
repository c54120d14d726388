//! Same-scene batch rendering with shared frustum-culling and gathering.
//!
//! When several requests target the same scene, the worker culls each view
//! (a cheap geometric pass), takes the *union* of the surviving ids, gathers
//! the union's parameters out of the full container once, and renders every
//! view from that shared subset. The gather — the pass that touches all 59
//! parameters per Gaussian — is paid once per batch instead of once per
//! request.
//!
//! Correctness rests on two invariants the render crate establishes:
//!
//! 1. Culling is a superset of projection, so a view never loses a
//!    contributing Gaussian by rendering from its (or a union's) culled set.
//! 2. Gathering preserves ascending id order and the tile depth sort is
//!    stable, so the splat composition order — and therefore every output
//!    pixel — is bit-identical to an unbatched render. Batch composition can
//!    change *how fast* a frame is produced, never its bytes.

use std::sync::Arc;

use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;
use gs_render::culling::frustum_cull;
use gs_render::pipeline::{render_layer, RenderStats, RenderTimings};
use gs_render::rasterize::FrameLayer;

use crate::request::RenderRequest;

/// Result of rendering one batch of same-scene requests.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One image per input request, in input order.
    pub images: Vec<Arc<Image>>,
    /// Gaussians in the shared (union) gathered set.
    pub union_active: usize,
    /// Sum of each request's own active count — the Gaussians that would
    /// have been gathered without sharing. `summed_active / union_active`
    /// is the batch's gather-sharing factor.
    pub summed_active: usize,
    /// Per-request render statistics and kernel-phase timings, in input
    /// order — what the observability layer turns into spans and roofline
    /// samples without re-measuring anything.
    pub renders: Vec<(RenderStats, RenderTimings)>,
}

/// Renders `requests` (which must all target the scene held in `params`)
/// through a shared cull-and-gather.
///
/// `tile_threads` is the tile-parallel width each render may fan its
/// rasterization out over (`<= 1` renders sequentially); the output bytes
/// are identical either way.
///
/// # Panics
///
/// Panics if a request's `sh_degree` exceeds [`gs_core::sh::MAX_DEGREE`].
/// (Without this check a release build would silently render the clamped
/// degree; the serving worker pool catches the panic and answers the batch
/// with errors instead.)
pub fn render_shared(
    params: &GaussianParams,
    background: [f32; 3],
    requests: &[&RenderRequest],
    tile_threads: usize,
) -> BatchOutcome {
    for r in requests {
        assert!(
            r.sh_degree <= gs_core::sh::MAX_DEGREE,
            "sh_degree {} exceeds the supported maximum {}",
            r.sh_degree,
            gs_core::sh::MAX_DEGREE
        );
    }
    if requests.is_empty() {
        return BatchOutcome {
            images: Vec::new(),
            union_active: 0,
            summed_active: 0,
            renders: Vec::new(),
        };
    }

    let culls: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| frustum_cull(params, &r.camera, &r.viewport).ids)
        .collect();
    let summed_active: usize = culls.iter().map(Vec::len).sum();

    // Ascending union so the gathered subset preserves global splat order.
    let mut union_ids: Vec<u32> = culls.into_iter().flatten().collect();
    union_ids.sort_unstable();
    union_ids.dedup();
    let shared = params.gather(&union_ids);

    let mut images = Vec::with_capacity(requests.len());
    let mut renders = Vec::with_capacity(requests.len());
    for r in requests {
        let mut layer = FrameLayer::new(r.viewport.width(), r.viewport.height());
        renders.push(render_layer(
            &shared,
            &r.camera,
            r.sh_degree,
            &r.viewport,
            &mut layer,
            tile_threads,
        ));
        images.push(Arc::new(layer.finish(background)));
    }

    BatchOutcome {
        images,
        union_active: union_ids.len(),
        summed_active,
        renders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::camera::Camera;
    use gs_core::math::Vec3;
    use gs_core::rng::Rng64;
    use gs_render::pipeline::render_image;

    fn random_scene(seed: u64, n: usize) -> GaussianParams {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut p = GaussianParams::with_capacity(n);
        for _ in 0..n {
            p.push_isotropic(
                Vec3::new(
                    rng.gen_range(-6.0f32..6.0),
                    rng.gen_range(-4.0f32..4.0),
                    rng.gen_range(-2.0f32..6.0),
                ),
                rng.gen_range(0.1f32..0.4),
                [rng.gen_f32(), rng.gen_f32(), rng.gen_f32()],
                rng.gen_range(0.3f32..0.9),
            );
        }
        p
    }

    fn cam_at(x: f32) -> Camera {
        Camera::look_at(
            48,
            36,
            1.2,
            Vec3::new(x, 0.0, -8.0),
            Vec3::new(x, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    #[test]
    fn batched_render_is_byte_identical_to_unbatched() {
        let params = random_scene(9, 300);
        let bg = [0.02, 0.02, 0.05];
        let reqs: Vec<RenderRequest> = [-4.0f32, 0.0, 4.0]
            .iter()
            .map(|&x| RenderRequest::full("s", cam_at(x)))
            .collect();
        let refs: Vec<&RenderRequest> = reqs.iter().collect();
        let batched = render_shared(&params, bg, &refs, 1);
        for (req, img) in reqs.iter().zip(&batched.images) {
            let solo = render_image(&params, &req.camera, req.sh_degree, bg);
            assert_eq!(
                solo.data(),
                img.data(),
                "batched output must be bit-identical to a solo render"
            );
        }
    }

    #[test]
    fn tile_parallel_batch_is_byte_identical_to_sequential() {
        let params = random_scene(13, 300);
        let bg = [0.02, 0.02, 0.05];
        let reqs: Vec<RenderRequest> = [-2.0f32, 2.0]
            .iter()
            .map(|&x| RenderRequest::full("s", cam_at(x)))
            .collect();
        let refs: Vec<&RenderRequest> = reqs.iter().collect();
        let sequential = render_shared(&params, bg, &refs, 1);
        let parallel = render_shared(&params, bg, &refs, 4);
        for (a, b) in sequential.images.iter().zip(&parallel.images) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn batch_of_one_matches_too() {
        let params = random_scene(10, 120);
        let req = RenderRequest::full("s", cam_at(1.0));
        let out = render_shared(&params, [0.0; 3], &[&req], 1);
        let solo = render_image(&params, &req.camera, 3, [0.0; 3]);
        assert_eq!(solo.data(), out.images[0].data());
        assert_eq!(out.union_active, out.summed_active);
    }

    #[test]
    fn overlapping_views_share_culling_work() {
        let params = random_scene(11, 400);
        // Nearly identical cameras: the union is barely larger than one view.
        let reqs: Vec<RenderRequest> = [0.0f32, 0.05, 0.1, 0.15]
            .iter()
            .map(|&x| RenderRequest::full("s", cam_at(x)))
            .collect();
        let refs: Vec<&RenderRequest> = reqs.iter().collect();
        let out = render_shared(&params, [0.0; 3], &refs, 1);
        assert!(out.union_active > 0);
        assert!(
            (out.summed_active as f64) > 3.0 * out.union_active as f64,
            "4 near-identical views should share ~4x culling: union {} summed {}",
            out.union_active,
            out.summed_active
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let params = random_scene(12, 10);
        let out = render_shared(&params, [0.0; 3], &[], 1);
        assert!(out.images.is_empty());
        assert_eq!(out.union_active, 0);
    }
}
