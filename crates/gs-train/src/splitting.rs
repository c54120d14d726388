//! Balance-aware image splitting (Section 4.4 of the paper).
//!
//! Even with host offloading, peak GPU memory is bound by the single most
//! demanding training view. When the active-to-total Gaussian ratio of a
//! view exceeds `mem_limit`, the image is split into two vertical sub-regions
//! that are rendered (and back-propagated) independently; their gradients
//! are aggregated on the CPU before the optimizer step.
//!
//! The result is close to rendering the whole image at once, not bit-exact:
//! each half's loss gradient is rounded twice (normalised per sub-image,
//! then rescaled to the full image), each half builds its own tile grid, and
//! the halves' gradients are summed half by half rather than in full-image
//! tile order. `image_splitting_preserves_training_results` bounds the
//! difference at 1e-4 after ten steps.
//!
//! Splitting at the image midpoint is usually unbalanced because Gaussian
//! density varies across the view, so the split column is found once per
//! camera with a short binary search that balances the number of active
//! Gaussians on each side.

use gs_core::camera::{Camera, Viewport};
use gs_core::gaussian::GaussianParams;
use gs_render::culling::frustum_cull;

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
/// side.
///
/// This is run once per camera before training starts (the paper reports a
/// 0.08 % overhead and an average split ratio of 0.551 : 0.449).
pub fn find_balanced_split(params: &GaussianParams, cam: &Camera) -> SplitPlan {
    let full = Viewport::full(cam);
    let mut lo = 1usize;
    let mut hi = cam.width.saturating_sub(1).max(1);
    let mut column = cam.width / 2;
    let mut best = evaluate_split(params, cam, column);

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
        if next == column || next == 0 || next >= full.x1 {
            break;
        }
        column = next;
        best = evaluate_split(params, cam, column);
    }
    best
}

/// Evaluates the active counts of the two halves for a given split column.
pub fn evaluate_split(params: &GaussianParams, cam: &Camera, column: usize) -> SplitPlan {
    let full = Viewport::full(cam);
    let column = column.clamp(1, full.x1 - 1);
    let (left, right) = full.split_at_column(column);
    let left_active = frustum_cull(params, cam, &left).num_active();
    let right_active = frustum_cull(params, cam, &right).num_active();
    SplitPlan {
        column,
        left_active,
        right_active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Vec3;

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
    fn evaluate_split_clamps_degenerate_columns() {
        let params = skewed_scene();
        let cam = camera();
        let a = evaluate_split(&params, &cam, 0);
        assert_eq!(a.column, 1);
        let b = evaluate_split(&params, &cam, 10_000);
        assert_eq!(b.column, cam.width - 1);
    }
}
