//! Adaptive density control: periodically clone small Gaussians with large
//! view-space gradients, split large ones, and prune nearly transparent
//! ones (step 7 of the training pipeline in the paper's Figure 2).
//!
//! Densification is deterministic (splits offset along the largest scale
//! axis) so that different training systems grow identical models and stay
//! comparable.

use gs_core::gaussian::{GaussianGrads, GaussianParams, SparseGrads};
use gs_core::math::Vec3;

/// Densification schedule and thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensifyConfig {
    /// First iteration at which densification may run.
    pub start_iteration: usize,
    /// Iteration after which densification stops (the paper adjusts this to
    /// scale the Gaussian count up or down).
    pub stop_iteration: usize,
    /// Run densification every this many iterations.
    pub interval: usize,
    /// Mean positional-gradient-norm threshold above which a Gaussian is
    /// cloned or split.
    pub grad_threshold: f32,
    /// Fraction of the scene extent: Gaussians larger than this are split,
    /// smaller ones are cloned.
    pub split_scale_fraction: f32,
    /// Gaussians with opacity below this are pruned.
    pub prune_opacity: f32,
    /// Hard cap on the total number of Gaussians (0 = unlimited).
    pub max_gaussians: usize,
}

impl DensifyConfig {
    /// The reference schedule used by the benchmarks: densify every 100
    /// iterations during the first half of training.
    pub fn reference(total_iterations: usize) -> Self {
        Self {
            start_iteration: 50,
            stop_iteration: total_iterations / 2,
            interval: 100,
            grad_threshold: 2.0e-4,
            split_scale_fraction: 0.01,
            prune_opacity: 0.005,
            max_gaussians: 0,
        }
    }

    /// A configuration that never densifies.
    pub fn disabled() -> Self {
        Self {
            start_iteration: usize::MAX,
            stop_iteration: 0,
            interval: usize::MAX,
            grad_threshold: f32::INFINITY,
            split_scale_fraction: 0.01,
            prune_opacity: 0.0,
            max_gaussians: 0,
        }
    }

    /// Whether this configuration can ever densify.
    pub fn enabled(&self) -> bool {
        self.start_iteration < self.stop_iteration
    }

    /// Whether densification should run at `iteration`.
    pub fn is_due(&self, iteration: usize) -> bool {
        self.enabled()
            && iteration >= self.start_iteration
            && iteration < self.stop_iteration
            && iteration.is_multiple_of(self.interval)
    }

    /// Returns a copy with the stop iteration scaled by `factor` — the
    /// paper's mechanism (following Grendel) for producing smaller or larger
    /// models of the same scene.
    pub fn with_stop_scaled(mut self, factor: f64) -> Self {
        self.stop_iteration = (self.stop_iteration as f64 * factor) as usize;
        self
    }
}

/// Accumulates positional gradient magnitudes between densification rounds.
#[derive(Debug, Clone, Default)]
pub struct DensifyAccumulator {
    grad_norm_sum: Vec<f32>,
    observations: Vec<u32>,
}

impl DensifyAccumulator {
    /// Creates an accumulator for `n` Gaussians.
    pub fn new(n: usize) -> Self {
        Self {
            grad_norm_sum: vec![0.0; n],
            observations: vec![0; n],
        }
    }

    /// Number of Gaussians tracked.
    pub fn len(&self) -> usize {
        self.grad_norm_sum.len()
    }

    /// Whether the accumulator is empty.
    pub fn is_empty(&self) -> bool {
        self.grad_norm_sum.is_empty()
    }

    /// Records the gradients of one iteration for the Gaussians listed in
    /// `ids` only: `grads` is packed and `ids[k]` is the global index of its
    /// entry `k`. Only the listed Gaussians count an observation.
    pub fn record(&mut self, ids: &[u32], grads: &GaussianGrads) {
        for (k, &id) in ids.iter().enumerate() {
            let i = id as usize;
            if i < self.grad_norm_sum.len() {
                self.grad_norm_sum[i] += grads.mean_grad_norm(k);
                self.observations[i] += 1;
            }
        }
    }

    /// Records one iteration whose gradients cover every Gaussian (`grads`
    /// is indexed by global index): what [`DensifyAccumulator::record`] does
    /// when given every index, without the index list.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not cover exactly the tracked Gaussians.
    pub fn record_dense(&mut self, grads: &GaussianGrads) {
        assert_eq!(grads.len(), self.len(), "accumulator length mismatch");
        for (i, sum) in self.grad_norm_sum.iter_mut().enumerate() {
            *sum += grads.mean_grad_norm(i);
        }
        self.count_observation_for_all();
    }

    /// Records one iteration from its sparse gradients as if they had been
    /// expanded over the whole model first: norms are added for the listed
    /// Gaussians (the others would add zero) and every Gaussian counts an
    /// observation. Bit-identical to `record_dense(&sparse.to_dense(len))`
    /// for a gradient set that lists no id twice.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn record_sparse(&mut self, sparse: &SparseGrads) {
        for (k, &id) in sparse.ids.iter().enumerate() {
            self.grad_norm_sum[id as usize] += sparse.grads.mean_grad_norm(k);
        }
        self.count_observation_for_all();
    }

    fn count_observation_for_all(&mut self) {
        for count in &mut self.observations {
            *count += 1;
        }
    }

    /// Mean positional gradient norm for Gaussian `i` since the last reset.
    pub fn mean_grad_norm(&self, i: usize) -> f32 {
        if self.observations[i] == 0 {
            0.0
        } else {
            self.grad_norm_sum[i] / self.observations[i] as f32
        }
    }

    /// Resizes to `n` Gaussians, clearing all statistics.
    pub fn reset(&mut self, n: usize) {
        self.grad_norm_sum = vec![0.0; n];
        self.observations = vec![0; n];
    }
}

/// Result of one densification round, with enough information for the caller
/// to keep optimizer state aligned with the parameter container.
#[derive(Debug, Clone, PartialEq)]
pub struct DensifyReport {
    /// Number of Gaussians cloned.
    pub cloned: usize,
    /// Number of Gaussians split (each split removes one and adds two).
    pub split: usize,
    /// Number of Gaussians pruned for low opacity.
    pub pruned: usize,
    /// Keep-mask over the *pre-densification* Gaussians (false = pruned or
    /// replaced by a split).
    pub keep_mask: Vec<bool>,
    /// Number of new Gaussians appended after the kept ones.
    pub appended: usize,
}

impl DensifyReport {
    /// Net change in the number of Gaussians.
    pub fn net_change(&self) -> isize {
        self.appended as isize - self.keep_mask.iter().filter(|&&k| !k).count() as isize
    }
}

/// Runs one densification round on `params`.
///
/// The caller must afterwards update its optimizer state with
/// `retain_mask(&report.keep_mask)` followed by
/// `append_zeros(report.appended)` so states stay aligned.
///
/// # Panics
///
/// Panics if the accumulator does not cover `params`.
pub fn densify(
    params: &mut GaussianParams,
    accum: &DensifyAccumulator,
    config: &DensifyConfig,
    scene_extent: f32,
) -> DensifyReport {
    assert_eq!(
        accum.len(),
        params.len(),
        "accumulator/params length mismatch"
    );
    let n = params.len();
    let split_threshold = config.split_scale_fraction * scene_extent;
    let at_cap = config.max_gaussians > 0 && n >= config.max_gaussians;

    let mut keep_mask = vec![true; n];
    let mut appended = GaussianParams::new();
    let mut cloned = 0usize;
    let mut split = 0usize;
    let mut pruned = 0usize;

    for (i, keep) in keep_mask.iter_mut().enumerate() {
        // Prune nearly transparent Gaussians first.
        if params.opacity(i) < config.prune_opacity {
            *keep = false;
            pruned += 1;
            continue;
        }
        if at_cap {
            continue;
        }
        let grad = accum.mean_grad_norm(i);
        if grad <= config.grad_threshold {
            continue;
        }
        let scale = params.scale(i);
        if scale.max_elem() <= split_threshold {
            // Clone: duplicate in place (the clone starts with zero optimizer
            // state, exactly like the reference implementation).
            appended.push_raw(
                params.mean(i),
                params.log_scale(i),
                params.quat(i),
                params.opacity_logit(i),
                params.sh_coeffs(i),
            );
            cloned += 1;
        } else {
            // Split: replace with two smaller Gaussians offset along the
            // dominant axis of the covariance (deterministic).
            *keep = false;
            split += 1;
            let (rot, _, _) = gs_core::math::quat_to_rotmat_with_norm(params.quat(i));
            let s = scale;
            // Dominant axis in world space.
            let (axis_idx, axis_len) = if s.x >= s.y && s.x >= s.z {
                (0, s.x)
            } else if s.y >= s.z {
                (1, s.y)
            } else {
                (2, s.z)
            };
            let axis_world = Vec3::new(rot.m[0][axis_idx], rot.m[1][axis_idx], rot.m[2][axis_idx]);
            let offset = axis_world * (0.5 * axis_len);
            let new_log_scale = params.log_scale(i) - Vec3::splat(1.6f32.ln());
            for sign in [-1.0f32, 1.0] {
                appended.push_raw(
                    params.mean(i) + offset * sign,
                    new_log_scale,
                    params.quat(i),
                    params.opacity_logit(i),
                    params.sh_coeffs(i),
                );
            }
        }
    }

    params.retain_mask(&keep_mask);
    params.append(&appended);

    DensifyReport {
        cloned,
        split,
        pruned,
        keep_mask,
        appended: appended.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::rng::Rng64;

    fn params_with(n: usize, scale: f32, opacity: f32) -> GaussianParams {
        let mut p = GaussianParams::new();
        for i in 0..n {
            p.push_isotropic(Vec3::new(i as f32, 0.0, 1.0), scale, [0.5; 3], opacity);
        }
        p
    }

    fn accum_with_grads(n: usize, hot: &[usize], norm: f32) -> DensifyAccumulator {
        let mut acc = DensifyAccumulator::new(n);
        let mut grads = GaussianGrads::zeros(n);
        for &i in hot {
            grads.means[3 * i] = norm;
        }
        acc.record_dense(&grads);
        acc
    }

    fn test_config() -> DensifyConfig {
        DensifyConfig {
            start_iteration: 0,
            stop_iteration: 1000,
            interval: 100,
            grad_threshold: 1.0e-4,
            split_scale_fraction: 0.01,
            prune_opacity: 0.01,
            max_gaussians: 0,
        }
    }

    #[test]
    fn schedule_is_due_only_on_interval() {
        let cfg = DensifyConfig {
            start_iteration: 100,
            stop_iteration: 500,
            interval: 100,
            ..test_config()
        };
        assert!(!cfg.is_due(0));
        assert!(cfg.is_due(100));
        assert!(!cfg.is_due(150));
        assert!(cfg.is_due(400));
        assert!(!cfg.is_due(500));
        assert!(!DensifyConfig::disabled().is_due(100));
    }

    #[test]
    fn small_high_gradient_gaussians_are_cloned() {
        // Scene extent 100, split threshold = 1.0; scale 0.2 => clone.
        let mut p = params_with(4, 0.2, 0.8);
        let acc = accum_with_grads(4, &[1, 2], 1.0);
        let report = densify(&mut p, &acc, &test_config(), 100.0);
        assert_eq!(report.cloned, 2);
        assert_eq!(report.split, 0);
        assert_eq!(report.pruned, 0);
        assert_eq!(p.len(), 6);
        assert_eq!(report.net_change(), 2);
    }

    #[test]
    fn large_high_gradient_gaussians_are_split() {
        // Scale 5.0 > threshold 1.0 => split into two smaller ones.
        let mut p = params_with(3, 5.0, 0.8);
        let acc = accum_with_grads(3, &[0], 1.0);
        let report = densify(&mut p, &acc, &test_config(), 100.0);
        assert_eq!(report.split, 1);
        assert_eq!(report.appended, 2);
        assert_eq!(p.len(), 4);
        // The two children are smaller than the parent was.
        let child_scale = p.scale(p.len() - 1).max_elem();
        assert!(child_scale < 5.0);
        // And they are offset from each other.
        let a = p.mean(p.len() - 1);
        let b = p.mean(p.len() - 2);
        assert!((a - b).norm() > 0.5);
    }

    #[test]
    fn transparent_gaussians_are_pruned() {
        let mut p = params_with(5, 0.2, 0.8);
        p.set_opacity_logit(2, gs_core::math::logit(0.001));
        let acc = DensifyAccumulator::new(5);
        let report = densify(&mut p, &acc, &test_config(), 100.0);
        assert_eq!(report.pruned, 1);
        assert_eq!(p.len(), 4);
        assert!(!report.keep_mask[2]);
    }

    #[test]
    fn low_gradient_gaussians_are_untouched() {
        let mut p = params_with(4, 0.2, 0.8);
        let acc = accum_with_grads(4, &[0], 1.0e-6);
        let before = p.clone();
        let report = densify(&mut p, &acc, &test_config(), 100.0);
        assert_eq!(report.cloned + report.split + report.pruned, 0);
        assert_eq!(p, before);
    }

    #[test]
    fn max_gaussians_caps_growth_but_not_pruning() {
        let mut p = params_with(4, 0.2, 0.8);
        p.set_opacity_logit(3, gs_core::math::logit(0.001));
        let acc = accum_with_grads(4, &[0, 1, 2], 1.0);
        let cfg = DensifyConfig {
            max_gaussians: 4,
            ..test_config()
        };
        let report = densify(&mut p, &acc, &cfg, 100.0);
        assert_eq!(report.cloned, 0);
        assert_eq!(report.pruned, 1);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn accumulator_averages_over_observations() {
        let mut acc = DensifyAccumulator::new(2);
        let mut g = GaussianGrads::zeros(1);
        g.means[0] = 3.0;
        acc.record(&[1], &g);
        g.means[0] = 1.0;
        acc.record(&[1], &g);
        assert_eq!(acc.mean_grad_norm(0), 0.0);
        assert!((acc.mean_grad_norm(1) - 2.0).abs() < 1e-6);
        acc.reset(3);
        assert_eq!(acc.len(), 3);
        assert_eq!(acc.mean_grad_norm(1), 0.0);
    }

    #[test]
    fn sparse_and_dense_records_match_the_id_list_record() {
        let n = 30;
        let all_ids: Vec<u32> = (0..n as u32).collect();
        let mut by_ids = DensifyAccumulator::new(n);
        let mut dense = DensifyAccumulator::new(n);
        let mut sparse = DensifyAccumulator::new(n);
        let mut rng = Rng64::seed_from_u64(0x6163_6375);
        for step in 0..24 {
            let share = [0.0, 0.1, 0.5, 1.0][step % 4];
            let mut ids: Vec<u32> = all_ids
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(share))
                .collect();
            ids.reverse();
            let mut grads = GaussianGrads::zeros(ids.len());
            for v in &mut grads.means {
                *v = rng.gen_range(-2.0f32..2.0);
            }
            let step_grads = SparseGrads { ids, grads };
            let expanded = step_grads.to_dense(n);

            by_ids.record(&all_ids, &expanded);
            dense.record_dense(&expanded);
            sparse.record_sparse(&step_grads);
            for other in [&dense, &sparse] {
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&other.grad_norm_sum), bits(&by_ids.grad_norm_sum));
                assert_eq!(other.observations, by_ids.observations);
            }
        }
        assert_eq!(by_ids.observations, vec![24; n]);
    }

    #[test]
    fn densification_is_deterministic() {
        let make = || {
            let mut p = params_with(6, 5.0, 0.8);
            let acc = accum_with_grads(6, &[0, 3], 1.0);
            densify(&mut p, &acc, &test_config(), 100.0);
            p
        };
        assert_eq!(make(), make());
    }
}
