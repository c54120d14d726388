//! Balance-aware image splitting (Section 4.4 of the paper).
//!
//! Peak GPU memory is bound by the most demanding training view. When a
//! view's active-to-total Gaussian ratio exceeds `mem_limit`, the paper
//! renders and back-propagates it as two vertical halves, one after the
//! other. Here a split shapes the modelled passes, never the arithmetic: the
//! trainer renders the whole view once, and the [`SplitPlan`] decides what
//! each modelled pass stages, charges to GPU memory and schedules.
//!
//! The split column comes from a short binary search that balances the
//! active Gaussians on each side, run on every split step over the view's
//! frustum cull: a half's cull is exactly the full cull's Gaussians that
//! pass the culling test against the half, which lies inside the view.

use gs_core::camera::{Camera, Viewport};
use gs_core::gaussian::GaussianParams;
use gs_render::culling::{frustum_cull, gaussian_in_frustum};

/// Number of binary-search refinement steps used to find the split column
/// (the paper uses a 5-step search).
pub const SPLIT_SEARCH_STEPS: usize = 5;

/// Result of the balance-aware split search for one camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitPlan {
    /// Column at which the image is split (left viewport is `[0, column)`).
    pub column: usize,
    /// Number of active Gaussians in the left sub-view.
    pub left_active: usize,
    /// Number of active Gaussians in the right sub-view.
    pub right_active: usize,
}

impl SplitPlan {
    /// Balance of the split as `left / (left + right)` (0.5 is perfect).
    pub fn balance(&self) -> f64 {
        let total = self.left_active + self.right_active;
        if total == 0 {
            0.5
        } else {
            self.left_active as f64 / total as f64
        }
    }

    /// The two viewports of the split.
    pub fn viewports(&self, cam: &Camera) -> (Viewport, Viewport) {
        Viewport::full(cam).split_at_column(self.column)
    }
}

/// Finds a split column that balances the number of active Gaussians between
/// the two halves, starting from the image midpoint and refining with
/// [`SPLIT_SEARCH_STEPS`] rounds of binary search toward the less populated
/// side (the paper reports a 0.08 % overhead and an average split ratio of
/// 0.551 : 0.449). Culls the view once and searches over its ids.
///
/// # Panics
///
/// Panics unless `cam.width >= 2`: a narrower view has no column to split at.
pub fn find_balanced_split(params: &GaussianParams, cam: &Camera) -> SplitPlan {
    let cull = frustum_cull(params, cam, &Viewport::full(cam));
    balanced_split(params, cam, &cull.ids)
}

/// Evaluates the active counts of the two halves for a given split column,
/// clamped to `1..cam.width`.
///
/// # Panics
///
/// Panics unless `cam.width >= 2`: a narrower view has no column to split at.
pub fn evaluate_split(params: &GaussianParams, cam: &Camera, column: usize) -> SplitPlan {
    let cull = frustum_cull(params, cam, &Viewport::full(cam));
    split_at(params, cam, &cull.ids, column)
}

/// [`find_balanced_split`] over `ids`, the view's frustum cull.
pub(crate) fn balanced_split(params: &GaussianParams, cam: &Camera, ids: &[u32]) -> SplitPlan {
    let mut lo = 1usize;
    let mut hi = cam.width.saturating_sub(1);
    let mut column = cam.width / 2;
    let mut best = split_at(params, cam, ids, column);

    for _ in 0..SPLIT_SEARCH_STEPS {
        if best.left_active == best.right_active {
            break;
        }
        if best.left_active > best.right_active {
            // Left side too heavy: move the split left.
            hi = column;
        } else {
            lo = column;
        }
        let next = (lo + hi) / 2;
        if next == column {
            break;
        }
        column = next;
        best = split_at(params, cam, ids, column);
    }
    best
}

/// [`evaluate_split`] over `ids`, the view's frustum cull.
fn split_at(params: &GaussianParams, cam: &Camera, ids: &[u32], column: usize) -> SplitPlan {
    assert!(cam.width >= 2, "image splitting needs cam.width >= 2");
    let column = column.clamp(1, cam.width - 1);
    let (left, right) = Viewport::full(cam).split_at_column(column);
    let count = |half| {
        let in_half = |&&i: &&u32| gaussian_in_frustum(params, i as usize, cam, half);
        ids.iter().filter(in_half).count()
    };
    SplitPlan {
        column,
        left_active: count(&left),
        right_active: count(&right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Vec3;
    use gs_core::rng::Rng64;

    fn camera() -> Camera {
        Camera::look_at(
            128,
            96,
            std::f32::consts::FRAC_PI_2,
            Vec3::new(0.0, 0.0, -10.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    /// A scene with most Gaussians concentrated on one side of the view.
    fn skewed_scene() -> GaussianParams {
        let mut p = GaussianParams::new();
        // 40 Gaussians on the right side of the image (+x), 10 on the left.
        for i in 0..40 {
            p.push_isotropic(
                Vec3::new(
                    2.0 + (i % 8) as f32 * 0.4,
                    ((i / 8) as f32 - 2.0) * 0.8,
                    0.0,
                ),
                0.2,
                [0.5; 3],
                0.8,
            );
        }
        for i in 0..10 {
            p.push_isotropic(
                Vec3::new(
                    -4.0 + (i % 4) as f32 * 0.4,
                    ((i / 4) as f32 - 1.0) * 0.8,
                    0.0,
                ),
                0.2,
                [0.5; 3],
                0.8,
            );
        }
        p
    }

    #[test]
    fn balanced_split_beats_midpoint_on_skewed_scene() {
        let params = skewed_scene();
        let cam = camera();
        let midpoint = evaluate_split(&params, &cam, cam.width / 2);
        let balanced = find_balanced_split(&params, &cam);
        let mid_imbalance = (midpoint.balance() - 0.5).abs();
        let bal_imbalance = (balanced.balance() - 0.5).abs();
        assert!(
            bal_imbalance <= mid_imbalance,
            "balanced {bal_imbalance} vs midpoint {mid_imbalance}"
        );
        assert!(
            bal_imbalance < 0.25,
            "split should be reasonably balanced, got balance {}",
            balanced.balance()
        );
    }

    #[test]
    fn split_covers_all_active_gaussians() {
        let params = skewed_scene();
        let cam = camera();
        let plan = find_balanced_split(&params, &cam);
        let full_active = frustum_cull(&params, &cam, &Viewport::full(&cam)).num_active();
        // The halves may overlap near the boundary, so their sum is at least
        // the full count.
        assert!(plan.left_active + plan.right_active >= full_active);
    }

    #[test]
    fn uniform_scene_splits_near_midpoint() {
        let mut params = GaussianParams::new();
        for i in 0..100 {
            let x = (i % 10) as f32 - 4.5;
            let y = (i / 10) as f32 - 4.5;
            params.push_isotropic(Vec3::new(x, y, 0.0), 0.2, [0.5; 3], 0.8);
        }
        let cam = camera();
        let plan = find_balanced_split(&params, &cam);
        assert!(
            (plan.balance() - 0.5).abs() < 0.15,
            "balance {}",
            plan.balance()
        );
        let (l, r) = plan.viewports(&cam);
        assert_eq!(l.num_pixels() + r.num_pixels(), cam.num_pixels());
    }

    #[test]
    fn empty_scene_is_handled() {
        let params = GaussianParams::new();
        let cam = camera();
        let plan = find_balanced_split(&params, &cam);
        assert_eq!(plan.left_active, 0);
        assert_eq!(plan.right_active, 0);
        assert_eq!(plan.balance(), 0.5);
    }

    #[test]
    fn counting_the_cull_per_half_equals_culling_each_half() {
        let mut rng = Rng64::seed_from_u64(11);
        let mut params = GaussianParams::new();
        for _ in 0..300 {
            let mean = Vec3::new(
                rng.gen_range(-16.0..16.0),
                rng.gen_range(-12.0..12.0),
                rng.gen_range(-8.0..8.0),
            );
            params.push_isotropic(mean, rng.gen_range(0.05..1.5), [0.5; 3], 0.8);
        }
        let cam = camera();
        let ids = frustum_cull(&params, &cam, &Viewport::full(&cam)).ids;
        assert!(ids.len() < params.len());
        for column in 1..cam.width {
            let plan = split_at(&params, &cam, &ids, column);
            let (left, right) = plan.viewports(&cam);
            assert_eq!(plan.column, column);
            let culled = |half| frustum_cull(&params, &cam, half).num_active();
            assert_eq!(plan.left_active, culled(&left), "column {column}");
            assert_eq!(plan.right_active, culled(&right), "column {column}");
        }
    }

    #[test]
    #[should_panic(expected = "image splitting needs cam.width >= 2")]
    fn a_view_one_pixel_wide_cannot_be_split() {
        let mut cam = camera();
        cam.width = 1;
        let _ = evaluate_split(&skewed_scene(), &cam, 0);
    }

    #[test]
    fn evaluate_split_clamps_degenerate_columns() {
        let params = skewed_scene();
        let cam = camera();
        let a = evaluate_split(&params, &cam, 0);
        assert_eq!(a.column, 1);
        let b = evaluate_split(&params, &cam, 10_000);
        assert_eq!(b.column, cam.width - 1);
    }
}
