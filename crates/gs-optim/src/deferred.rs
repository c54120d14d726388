//! The paper's *deferred optimizer update* (Section 4.3, Figure 10).
//!
//! Adam keeps updating parameters whose gradients are zero because the
//! momentum terms decay geometrically rather than vanishing. The deferred
//! update exploits that this decay is *deterministic*: for a Gaussian whose
//! gradient has been zero for `d` consecutive steps,
//!
//! ```text
//! m_t = β₁^(d+1) · m_(t-d-1) + (1-β₁) · g_t
//! v_t = β₂^(d+1) · v_(t-d-1) + (1-β₂) · g_t²
//! w_t ≈ w_(t-d) − m_(t-d-1)/(√v_(t-d-1) + ε) · w_scale(d)
//! ```
//!
//! where `w_scale(d)` is a precomputable per-delay constant (the ε term is
//! factored out of the skipped steps — the only approximation in GS-Scale,
//! validated in Table 3 of the paper and in this module's equivalence tests).
//!
//! Each Gaussian carries a 4-bit defer counter (stored in a `u8`): updates
//! are skipped while the gradient stays zero, and the state is restored
//! either when the gradient becomes non-zero or when the counter saturates
//! at [`DeferredAdam::MAX_DEFER`] (so at most 1/15 ≈ 6.7 % of updates are
//! "wasted" on saturation).

use gs_core::gaussian::{GaussianParams, ParamGroup, SparseGrads};

use crate::adam::MomentState;
use crate::config::AdamConfig;
use crate::slots::SlotTable;
use crate::stats::StepStats;

/// Deferred Adam optimizer (see module docs).
#[derive(Debug, Clone)]
pub struct DeferredAdam {
    config: AdamConfig,
    state: MomentState,
    /// Per-Gaussian defer counter: number of consecutive steps skipped.
    counters: Vec<u8>,
    step: u64,
    /// Scratch: the packed gradient row of each Gaussian during a step.
    slots: SlotTable,
}

impl DeferredAdam {
    /// Maximum number of consecutive deferred steps before a forced update
    /// (the counter is conceptually 4 bits wide).
    pub const MAX_DEFER: u8 = 15;

    /// Creates an optimizer for `n` Gaussians.
    pub fn new(config: AdamConfig, n: usize) -> Self {
        Self {
            config,
            state: MomentState::zeros(n),
            counters: vec![0; n],
            step: 0,
            slots: SlotTable::default(),
        }
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Number of optimizer steps taken so far.
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// The defer counters (for inspection in tests and reports).
    pub fn counters(&self) -> &[u8] {
        &self.counters
    }

    /// The moment state (for memory accounting).
    pub fn state(&self) -> &MomentState {
        &self.state
    }

    /// Grows the state for newly added Gaussians (densification).
    pub fn append_zeros(&mut self, additional: usize) {
        self.state.append_zeros(additional);
        self.counters.extend(std::iter::repeat_n(0, additional));
    }

    /// Drops state for pruned Gaussians.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len()` does not match the number of Gaussians.
    pub fn retain_mask(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.counters.len());
        self.state.retain_mask(mask);
        let mut kept = Vec::with_capacity(self.counters.len());
        for (i, &keep) in mask.iter().enumerate() {
            if keep {
                kept.push(self.counters[i]);
            }
        }
        self.counters = kept;
    }

    /// Per-delay weight-restoration scale factors for one group at step `t`.
    ///
    /// `w_scale[d]` is the factor such that a parameter whose gradient was
    /// zero for the `d` steps `t-d .. t-1` satisfies
    /// `w_t ≈ w_(t-d) − w_scale[d] · m_(t-d-1) / (√v_(t-d-1) + ε)`.
    fn weight_scale_lut(&self, group: ParamGroup, t: u64) -> [f32; Self::MAX_DEFER as usize + 1] {
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let mut lut = [0.0f32; Self::MAX_DEFER as usize + 1];
        for (d, slot) in lut.iter_mut().enumerate().skip(1) {
            let mut acc = 0.0f64;
            for l in 0..d {
                // The skipped step index: s = t - d + l  (1-based like `t`).
                let s = t as i64 - d as i64 + l as i64;
                if s < 1 {
                    continue;
                }
                let lr = self.config.lr_at(group, s as u64) as f64;
                let bc1 = 1.0 - (b1 as f64).powi(s as i32);
                let bc2 = 1.0 - (b2 as f64).powi(s as i32);
                let m_factor = (b1 as f64).powi(l as i32 + 1) / bc1;
                let v_factor = ((b2 as f64).powi(l as i32 + 1) / bc2).sqrt();
                acc += lr * m_factor / v_factor;
            }
            *slot = acc as f32;
        }
        lut
    }

    /// Performs a deferred Adam step for the listed groups using sparse
    /// gradients.
    ///
    /// Gaussians in `sparse.ids` and Gaussians whose counter has saturated
    /// are restored and updated; everything else only has its counter
    /// incremented.
    ///
    /// # Panics
    ///
    /// Panics if sizes mismatch or ids are out of range.
    pub fn step_groups(
        &mut self,
        params: &mut GaussianParams,
        sparse: &SparseGrads,
        groups: &[ParamGroup],
    ) -> StepStats {
        self.step += 1;
        let t = self.step;
        let n = params.len();
        assert_eq!(n, self.state.len(), "optimizer state length mismatch");
        assert_eq!(n, self.counters.len(), "counter length mismatch");

        // Which Gaussians need an actual update this step.
        self.slots.fill(n, &sparse.ids);
        let update_ids: Vec<usize> = (0..n)
            .filter(|&i| self.slots.get(i).is_some() || self.counters[i] >= Self::MAX_DEFER)
            .collect();

        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let eps = self.config.eps;
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);

        let mut dims = 0usize;
        for &g in groups {
            dims += g.dim();
            let lut = self.weight_scale_lut(g, t);
            let dim = g.dim();
            let lr = self.config.lr_at(g, t);
            let p = params.group_mut(g);
            let gr = sparse.grads.group(g);
            let m = self.state.m.group_mut(g);
            let v = self.state.v.group_mut(g);
            for &i in &update_ids {
                let delay = self.counters[i] as usize;
                let w_scale = lut[delay.min(Self::MAX_DEFER as usize)];
                let m_scale = b1.powi(delay as i32 + 1);
                let v_scale = b2.powi(delay as i32 + 1);
                let packed = self.slots.get(i);
                for k in 0..dim {
                    let idx = i * dim + k;
                    let grad = packed.map_or(0.0, |pk| gr[pk * dim + k]);
                    let m_old = m[idx];
                    let v_old = v[idx];
                    // 1. Restore the weight across the skipped steps.
                    let mut w = p[idx];
                    if delay > 0 {
                        w -= w_scale * m_old / (v_old.sqrt() + eps);
                    }
                    // 2. Restore moments and fold in the current gradient.
                    let m_new = m_scale * m_old + (1.0 - b1) * grad;
                    let v_new = v_scale * v_old + (1.0 - b2) * grad * grad;
                    // 3. Standard Adam update at step t.
                    let m_hat = m_new / bc1;
                    let v_hat = v_new / bc2;
                    w -= lr * m_hat / (v_hat.sqrt() + eps);
                    p[idx] = w;
                    m[idx] = m_new;
                    v[idx] = v_new;
                }
            }
        }

        // Counter maintenance: increment everyone, reset the updated ones.
        for c in &mut self.counters {
            *c = c.saturating_add(1).min(Self::MAX_DEFER);
        }
        for &i in &update_ids {
            self.counters[i] = 0;
        }
        self.slots.clear(&sparse.ids);

        let updated = update_ids.len();
        StepStats {
            updated_gaussians: updated,
            total_gaussians: n,
            bytes_read: updated as f64 * 4.0 * dims as f64 * 4.0 + n as f64,
            bytes_written: updated as f64 * 3.0 * dims as f64 * 4.0 + n as f64,
            flops: updated as f64 * dims as f64 * 16.0,
        }
    }

    /// Performs a deferred Adam step over all parameter groups.
    pub fn step(&mut self, params: &mut GaussianParams, sparse: &SparseGrads) -> StepStats {
        self.step_groups(params, sparse, &ParamGroup::ALL)
    }

    /// Restores every still-deferred Gaussian to its exact value as of the
    /// last completed optimizer step and resets all defer counters.
    ///
    /// Training must flush before any consumer reads the full parameter set
    /// directly from host memory — densification, quality evaluation, and
    /// checkpointing — because the stored values of deferred Gaussians are
    /// intentionally stale in between. Flushing touches only Gaussians with a
    /// non-zero counter, so its cost is bounded by one deferred update.
    pub fn flush(&mut self, params: &mut GaussianParams) -> StepStats {
        self.flush_groups(params, &ParamGroup::ALL)
    }

    /// Like [`DeferredAdam::flush`] but restricted to the listed groups.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the optimizer state size.
    pub fn flush_groups(
        &mut self,
        params: &mut GaussianParams,
        groups: &[ParamGroup],
    ) -> StepStats {
        let n = params.len();
        assert_eq!(n, self.state.len(), "optimizer state length mismatch");
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let eps = self.config.eps;
        // Skipped steps for a counter of `d` at current step `T` are
        // T-d+1 ..= T, which is exactly the window the step-(T+1) LUT covers.
        let t_lut = self.step + 1;

        let pending: Vec<usize> = (0..n).filter(|&i| self.counters[i] > 0).collect();
        let mut dims = 0usize;
        for &g in groups {
            dims += g.dim();
            let lut = self.weight_scale_lut(g, t_lut);
            let dim = g.dim();
            let p = params.group_mut(g);
            let m = self.state.m.group_mut(g);
            let v = self.state.v.group_mut(g);
            for &i in &pending {
                let delay = self.counters[i] as usize;
                let w_scale = lut[delay.min(Self::MAX_DEFER as usize)];
                let m_scale = b1.powi(delay as i32);
                let v_scale = b2.powi(delay as i32);
                for k in 0..dim {
                    let idx = i * dim + k;
                    p[idx] -= w_scale * m[idx] / (v[idx].sqrt() + eps);
                    m[idx] *= m_scale;
                    v[idx] *= v_scale;
                }
            }
        }
        for &i in &pending {
            self.counters[i] = 0;
        }
        let updated = pending.len();
        StepStats {
            updated_gaussians: updated,
            total_gaussians: n,
            bytes_read: updated as f64 * 3.0 * dims as f64 * 4.0 + n as f64,
            bytes_written: updated as f64 * 3.0 * dims as f64 * 4.0 + n as f64,
            flops: updated as f64 * dims as f64 * 8.0,
        }
    }

    /// Computes, without mutating anything, the *current* (fully restored)
    /// values of the Gaussians listed in `ids`, packed in `ids` order.
    ///
    /// Groups not listed in `groups` are copied from the stored parameters
    /// unchanged. This is what the GS-Scale trainer uses to stage accurate
    /// parameter values for the GPU forward pass while the host copies of
    /// deferred Gaussians remain stale.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn peek_restored(
        &self,
        params: &GaussianParams,
        ids: &[u32],
        groups: &[ParamGroup],
    ) -> GaussianParams {
        let n = params.len();
        let eps = self.config.eps;
        // The skipped window of a counter value `d` at current step `T` is
        // T-d+1 ..= T, exactly what the step-(T+1) LUT covers.
        let t_lut = self.step + 1;
        let mut out = params.gather(ids);
        for &g in groups {
            let lut = self.weight_scale_lut(g, t_lut);
            let dim = g.dim();
            let m_all = self.state.m.group(g);
            let v_all = self.state.v.group(g);
            let p_out = out.group_mut(g);
            for (slot, &id) in ids.iter().enumerate() {
                let i = id as usize;
                assert!(i < n, "gaussian id out of range");
                let delay = self.counters[i] as usize;
                if delay == 0 {
                    continue;
                }
                let w_scale = lut[delay.min(Self::MAX_DEFER as usize)];
                for k in 0..dim {
                    let idx = i * dim + k;
                    p_out[slot * dim + k] -= w_scale * m_all[idx] / (v_all[idx].sqrt() + eps);
                }
            }
        }
        out
    }

    /// Computes the values the Gaussians listed in `ids` would have *after*
    /// the next optimizer step (step `current_step + 1`) is applied with the
    /// pending sparse gradients. Neither optimizer state nor stored
    /// parameters change; `&mut self` is for the id → row scratch, which is
    /// left as found.
    ///
    /// This implements *parameter forwarding*: GS-Scale pre-computes the
    /// post-update values of exactly the Gaussians the next iteration's
    /// forward pass needs (restoring any deferred state on the fly), ships
    /// them to the GPU, and lets the actual CPU update happen lazily. For
    /// Gaussians the lazy step commits, the forwarded and committed values
    /// are identical; for Gaussians that stay deferred, the forwarded value
    /// is the exact dense-Adam value they will eventually be restored to.
    ///
    /// The returned container is packed in `ids` order.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn peek_forwarded(
        &mut self,
        params: &GaussianParams,
        sparse: &SparseGrads,
        ids: &[u32],
        groups: &[ParamGroup],
    ) -> GaussianParams {
        let n = params.len();
        let t = self.step + 1;
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let eps = self.config.eps;
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);

        self.slots.fill(n, &sparse.ids);
        let mut out = params.gather(ids);
        for &g in groups {
            let lut = self.weight_scale_lut(g, t);
            let dim = g.dim();
            let lr = self.config.lr_at(g, t);
            let gr = sparse.grads.group(g);
            let m_all = self.state.m.group(g);
            let v_all = self.state.v.group(g);
            let p_out = out.group_mut(g);
            for (slot, &id) in ids.iter().enumerate() {
                let i = id as usize;
                assert!(i < n, "gaussian id out of range");
                let delay = self.counters[i] as usize;
                let w_scale = lut[delay.min(Self::MAX_DEFER as usize)];
                let m_scale = b1.powi(delay as i32 + 1);
                let v_scale = b2.powi(delay as i32 + 1);
                let packed = self.slots.get(i);
                for k in 0..dim {
                    let idx = i * dim + k;
                    let grad = packed.map_or(0.0, |pk| gr[pk * dim + k]);
                    let m_old = m_all[idx];
                    let v_old = v_all[idx];
                    let mut w = p_out[slot * dim + k];
                    if delay > 0 {
                        w -= w_scale * m_old / (v_old.sqrt() + eps);
                    }
                    let m_new = m_scale * m_old + (1.0 - b1) * grad;
                    let v_new = v_scale * v_old + (1.0 - b2) * grad * grad;
                    w -= lr * (m_new / bc1) / ((v_new / bc2).sqrt() + eps);
                    p_out[slot * dim + k] = w;
                }
            }
        }
        self.slots.clear(&sparse.ids);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::DenseAdam;
    use gs_core::gaussian::GaussianGrads;
    use gs_core::math::Vec3;
    use gs_core::rng::Rng64;

    fn params(n: usize) -> GaussianParams {
        let mut p = GaussianParams::new();
        for i in 0..n {
            p.push_isotropic(
                Vec3::new(i as f32 * 0.5, -(i as f32), 1.0 + i as f32 * 0.1),
                0.1 + 0.02 * i as f32,
                [0.3, 0.6, 0.8],
                0.5 + 0.04 * (i % 5) as f32,
            );
        }
        p
    }

    /// Builds sparse gradients for the listed ids with deterministic values.
    fn sparse_for(ids: &[u32], n_total: usize, seed: f32) -> SparseGrads {
        let _ = n_total;
        let mut packed = GaussianGrads::zeros(ids.len());
        for (k, &id) in ids.iter().enumerate() {
            let base = seed + id as f32 * 0.13;
            packed.means[3 * k] = base.sin() * 0.4;
            packed.means[3 * k + 1] = base.cos() * 0.2;
            packed.log_scales[3 * k + 2] = (base * 1.7).sin() * 0.1;
            packed.quats[4 * k + 1] = (base * 0.9).cos() * 0.05;
            packed.opacities[k] = (base * 2.3).sin() * 0.3;
            packed.sh[48 * k] = (base * 0.7).cos() * 0.2;
            packed.sh[48 * k + 17] = (base * 1.1).sin() * 0.1;
        }
        SparseGrads {
            ids: ids.to_vec(),
            grads: packed,
        }
    }

    fn max_abs_diff(a: &GaussianParams, b: &GaussianParams) -> f32 {
        let mut worst = 0.0f32;
        for g in ParamGroup::ALL {
            for (x, y) in a.group(g).iter().zip(b.group(g)) {
                worst = worst.max((x - y).abs());
            }
        }
        worst
    }

    /// The core correctness property from the paper: training with the
    /// deferred optimizer produces the same parameters as exact dense Adam.
    #[test]
    fn deferred_matches_dense_adam_over_sparse_schedule() {
        let cfg = AdamConfig::reference();
        let n = 12;
        let mut p_dense = params(n);
        let mut p_deferred = p_dense.clone();
        let mut dense = DenseAdam::new(cfg, n);
        let mut deferred = DeferredAdam::new(cfg, n);

        // A schedule where different subsets are "visible" each step and some
        // Gaussians stay invisible for long stretches.
        let schedule: Vec<Vec<u32>> = vec![
            vec![0, 1, 2],
            vec![1, 2, 3, 4],
            vec![0, 5],
            vec![5, 6, 7],
            vec![2, 3],
            vec![8],
            vec![0, 1, 2, 3, 4, 5],
            vec![9, 10],
            vec![1],
            vec![0, 11],
            vec![4, 7, 9],
            vec![2],
        ];

        for (step, ids) in schedule.iter().enumerate() {
            let sparse = sparse_for(ids, n, step as f32 * 0.31);
            let dense_grads = sparse.to_dense(n);
            dense.step(&mut p_dense, &dense_grads);
            deferred.step(&mut p_deferred, &sparse);
        }
        // While Gaussians are deferred their stored values are intentionally
        // stale; flushing restores them to the exact dense-Adam values.
        deferred.flush(&mut p_deferred);
        let diff = max_abs_diff(&p_dense, &p_deferred);
        assert!(diff < 1e-4, "max parameter divergence {diff}");
    }

    #[test]
    fn stale_values_exist_before_flush_and_vanish_after() {
        // Documents the deferred-state contract: between commits the host
        // copy of an untouched Gaussian lags dense Adam, and flush closes the
        // gap exactly.
        let cfg = AdamConfig::reference();
        let n = 2;
        let mut p_dense = params(n);
        let mut p_deferred = p_dense.clone();
        let mut dense = DenseAdam::new(cfg, n);
        let mut deferred = DeferredAdam::new(cfg, n);
        // Step 1 touches both; steps 2-3 touch only Gaussian 0.
        for (step, ids) in [vec![0u32, 1], vec![0], vec![0]].iter().enumerate() {
            let sparse = sparse_for(ids, n, step as f32);
            dense.step(&mut p_dense, &sparse.to_dense(n));
            deferred.step(&mut p_deferred, &sparse);
        }
        let stale = (p_dense.opacities[1] - p_deferred.opacities[1]).abs();
        assert!(
            stale > 1e-6,
            "expected a stale deferred value, diff {stale}"
        );
        deferred.flush(&mut p_deferred);
        let diff = max_abs_diff(&p_dense, &p_deferred);
        assert!(diff < 1e-5, "flush should close the gap, diff {diff}");
    }

    #[test]
    fn counter_saturation_forces_update() {
        let cfg = AdamConfig::uniform(0.01);
        let n = 2;
        let mut p = params(n);
        let mut opt = DeferredAdam::new(cfg, n);
        // Give Gaussian 0 one gradient so it has momentum, then starve it.
        let s = sparse_for(&[0], n, 0.0);
        opt.step(&mut p, &s);
        assert_eq!(opt.counters()[0], 0);
        let empty = SparseGrads::default();
        for _ in 0..DeferredAdam::MAX_DEFER as usize {
            opt.step(&mut p, &empty);
        }
        // After MAX_DEFER skipped steps the counter has saturated...
        assert_eq!(opt.counters()[0], DeferredAdam::MAX_DEFER);
        // ...and the very next step forces a restoration + reset. Gaussian 0
        // has non-zero momentum on the mean's y component (the seed-0
        // gradient there is cos(0) * 0.2), so the committed restoration must
        // move it.
        let before = p.means[1];
        let stats = opt.step(&mut p, &empty);
        assert_eq!(stats.updated_gaussians, 1);
        assert_eq!(opt.counters()[0], 0);
        assert_ne!(
            p.means[1], before,
            "forced update should commit the deferred motion"
        );
    }

    #[test]
    fn deferred_matches_dense_through_long_starvation() {
        // Long enough that the 4-bit counter saturates at least once.
        let cfg = AdamConfig::reference();
        let n = 3;
        let mut p_dense = params(n);
        let mut p_deferred = p_dense.clone();
        let mut dense = DenseAdam::new(cfg, n);
        let mut deferred = DeferredAdam::new(cfg, n);

        // One initial step touches everything, then only Gaussian 0 gets
        // gradients for 40 steps, then Gaussian 2 reappears.
        let mut schedule: Vec<Vec<u32>> = vec![vec![0, 1, 2]];
        for _ in 0..40 {
            schedule.push(vec![0]);
        }
        schedule.push(vec![2]);

        for (step, ids) in schedule.iter().enumerate() {
            let sparse = sparse_for(ids, n, 0.7 + step as f32 * 0.11);
            dense.step(&mut p_dense, &sparse.to_dense(n));
            deferred.step(&mut p_deferred, &sparse);
        }
        deferred.flush(&mut p_deferred);
        let diff = max_abs_diff(&p_dense, &p_deferred);
        assert!(diff < 5e-4, "max parameter divergence {diff}");
    }

    #[test]
    fn deferred_touches_far_fewer_gaussians() {
        let cfg = AdamConfig::reference();
        let n = 1000;
        let mut p = params(n);
        let mut opt = DeferredAdam::new(cfg, n);
        // Warm up so counters are spread out.
        let warm = sparse_for(&(0..n as u32).collect::<Vec<_>>(), n, 0.1);
        opt.step(&mut p, &warm);
        // Now only 5% receive gradients.
        let ids: Vec<u32> = (0..50).collect();
        let sparse = sparse_for(&ids, n, 0.9);
        let stats = opt.step(&mut p, &sparse);
        assert_eq!(stats.updated_gaussians, 50);
        let dense_traffic = StepStats::dense(n).total_bytes();
        assert!(stats.total_bytes() < dense_traffic * 0.1);
    }

    #[test]
    fn peek_forwarded_matches_dense_adam_next_step() {
        // Parameter forwarding must hand the GPU exactly the values dense
        // Adam would produce after the pending optimizer step — for every
        // forwarded Gaussian, whether or not the lazy CPU step will commit it
        // this iteration.
        let cfg = AdamConfig::reference();
        let n = 8;
        let mut p_deferred = params(n);
        let mut p_dense = p_deferred.clone();
        let mut deferred = DeferredAdam::new(cfg, n);
        let mut dense = DenseAdam::new(cfg, n);

        // A few steps of history so momenta and counters are non-trivial.
        for (step, ids) in [vec![0u32, 1, 2, 3], vec![2, 3, 4], vec![0, 5]]
            .iter()
            .enumerate()
        {
            let sparse = sparse_for(ids, n, step as f32);
            deferred.step(&mut p_deferred, &sparse);
            dense.step(&mut p_dense, &sparse.to_dense(n));
        }

        // Pending gradients from the "previous" iteration.
        let pending = sparse_for(&[1, 2, 6], n, 3.3);
        // The next iteration needs Gaussians {1, 2, 5, 7}.
        let needed: Vec<u32> = vec![1, 2, 5, 7];
        let forwarded = deferred.peek_forwarded(&p_deferred, &pending, &needed, &ParamGroup::ALL);

        // Reference: dense Adam applies the same pending step, then gather.
        dense.step(&mut p_dense, &pending.to_dense(n));
        let reference = p_dense.gather(&needed);

        let mut worst = 0.0f32;
        for g in ParamGroup::ALL {
            for (a, b) in forwarded.group(g).iter().zip(reference.group(g)) {
                worst = worst.max((a - b).abs());
            }
        }
        assert!(worst < 1e-4, "forwarded/dense divergence {worst}");

        // The committed lazy update must agree with the forwarded values for
        // the Gaussians it actually updates.
        deferred.step(&mut p_deferred, &pending);
        let committed = p_deferred.gather(&needed);
        for g in ParamGroup::ALL {
            let dim = g.dim();
            for (slot, id) in needed.iter().enumerate() {
                if *id == 1 || *id == 2 {
                    for k in 0..dim {
                        let a = forwarded.group(g)[slot * dim + k];
                        let b = committed.group(g)[slot * dim + k];
                        assert!((a - b).abs() < 1e-6, "id {id} group {g:?} slot {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn reused_scratch_matches_a_fresh_one_every_step() {
        // Each step is taken twice from the same state: by the long-lived
        // optimizer, whose id -> row table has been through every earlier
        // step, forward peek and resize, and by a copy given a new table.
        let cfg = AdamConfig::reference();
        let mut n = 64usize;
        let mut p = params(n);
        let mut reused = DeferredAdam::new(cfg, n);
        let mut rng = Rng64::seed_from_u64(0x736c_6f74);
        for step in 0..40 {
            let share = [0.0, 0.05, 0.3, 0.9][step % 4];
            let mut ids: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(share)).collect();
            if step % 5 == 0 && !ids.is_empty() {
                // A repeated id: the later row wins, in both.
                ids.push(ids[0]);
            }
            let sparse = sparse_for(&ids, n, step as f32 * 0.37);

            let mut fresh = DeferredAdam {
                slots: SlotTable::default(),
                ..reused.clone()
            };
            let mut p_fresh = p.clone();
            let peek_ids: Vec<u32> = (0..n as u32).step_by(3).collect();
            let forwarded = reused.peek_forwarded(&p, &sparse, &peek_ids, &ParamGroup::ALL);
            assert_eq!(
                forwarded,
                fresh.peek_forwarded(&p, &sparse, &peek_ids, &ParamGroup::ALL)
            );
            let stats = reused.step(&mut p, &sparse);
            assert_eq!(stats, fresh.step(&mut p_fresh, &sparse), "step {step}");
            assert_eq!(p, p_fresh, "step {step}");
            assert_eq!(reused.state.m, fresh.state.m, "step {step}");
            assert_eq!(reused.state.v, fresh.state.v, "step {step}");
            assert_eq!(reused.counters, fresh.counters, "step {step}");

            if step == 15 || step == 30 {
                // Densification: prune every fourth Gaussian, add five.
                reused.flush(&mut p);
                let mask: Vec<bool> = (0..n).map(|i| i % 4 != 0).collect();
                p.retain_mask(&mask);
                reused.retain_mask(&mask);
                for _ in 0..5 {
                    p.duplicate(0);
                }
                reused.append_zeros(5);
                n = p.len();
            }
        }
    }

    #[test]
    fn append_and_retain_keep_counters_aligned() {
        let cfg = AdamConfig::uniform(0.01);
        let n = 4;
        let mut p = params(n);
        let mut opt = DeferredAdam::new(cfg, n);
        opt.step(&mut p, &sparse_for(&[0, 2], n, 0.5));
        assert_eq!(opt.counters()[1], 1);
        assert_eq!(opt.counters()[0], 0);
        opt.append_zeros(2);
        assert_eq!(opt.counters().len(), 6);
        assert_eq!(opt.counters()[4], 0);
        opt.retain_mask(&[false, true, true, false, true, true]);
        assert_eq!(opt.counters().len(), 4);
        assert_eq!(opt.counters()[0], 1);
    }

    #[test]
    #[should_panic(expected = "gaussian id out of range")]
    fn out_of_range_id_panics() {
        let cfg = AdamConfig::uniform(0.01);
        let mut p = params(2);
        let mut opt = DeferredAdam::new(cfg, 2);
        let bad = sparse_for(&[5], 2, 0.0);
        opt.step(&mut p, &bad);
    }
}
