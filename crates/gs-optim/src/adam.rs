//! Dense (exact) and sparse Adam optimizers.
//!
//! [`DenseAdam`] is the mathematical reference: every Gaussian's momentum,
//! variance and parameters are updated every step, exactly as PyTorch's Adam
//! does. This is what the GPU-only baseline and the CPU optimizer of the
//! naive offloading baseline run, and it is the ground truth the deferred
//! optimizer is validated against.
//!
//! [`SparseAdam`] only updates Gaussians with non-zero gradients and lets the
//! momentum of the others silently stall. It is *not* equivalent to Adam; it
//! exists as an ablation point showing why the paper needed the deferred
//! formulation instead of simply skipping untouched Gaussians.

use gs_core::gaussian::{GaussianGrads, GaussianParams, ParamGroup, SparseGrads};

use crate::config::AdamConfig;
use crate::slots::SlotTable;
use crate::stats::StepStats;

/// First and second moment state with the same layout as the parameters.
#[derive(Debug, Clone, Default)]
pub struct MomentState {
    /// First moments (momentum).
    pub m: GaussianGrads,
    /// Second moments (variance).
    pub v: GaussianGrads,
}

impl MomentState {
    /// Zero-initialized state for `n` Gaussians.
    pub fn zeros(n: usize) -> Self {
        Self {
            m: GaussianGrads::zeros(n),
            v: GaussianGrads::zeros(n),
        }
    }

    /// Number of Gaussians covered.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.m.len() == 0
    }

    /// Bytes occupied by the state (two f32 copies of every parameter).
    pub fn total_bytes(&self) -> usize {
        self.m.total_bytes() + self.v.total_bytes()
    }

    /// Appends zero state for `additional` new Gaussians (used after
    /// densification clones/splits).
    pub fn append_zeros(&mut self, additional: usize) {
        let grown = MomentState::zeros(self.len() + additional);
        let mut new_m = grown.m;
        let mut new_v = grown.v;
        for g in ParamGroup::ALL {
            let dim = g.dim();
            let old_len = self.len() * dim;
            new_m.group_mut(g)[..old_len].copy_from_slice(self.m.group(g));
            new_v.group_mut(g)[..old_len].copy_from_slice(self.v.group(g));
        }
        self.m = new_m;
        self.v = new_v;
    }

    /// Keeps state only for Gaussians where `mask` is `true` (used after
    /// pruning).
    ///
    /// # Panics
    ///
    /// Panics if `mask.len()` does not match the state length.
    pub fn retain_mask(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.len());
        let keep: Vec<usize> = (0..self.len()).filter(|&i| mask[i]).collect();
        let mut out = MomentState::zeros(keep.len());
        for g in ParamGroup::ALL {
            let dim = g.dim();
            for (new_i, &old_i) in keep.iter().enumerate() {
                for k in 0..dim {
                    out.m.group_mut(g)[new_i * dim + k] = self.m.group(g)[old_i * dim + k];
                    out.v.group_mut(g)[new_i * dim + k] = self.v.group(g)[old_i * dim + k];
                }
            }
        }
        *self = out;
    }
}

/// The constants of one Adam step over one parameter group, and the update
/// of a single element that every dense entry point shares.
#[derive(Debug, Clone, Copy)]
struct ElementUpdate {
    b1: f32,
    b2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
    lr: f32,
}

impl ElementUpdate {
    fn new(config: &AdamConfig, group: ParamGroup, t: u64) -> Self {
        Self {
            b1: config.beta1,
            b2: config.beta2,
            eps: config.eps,
            bc1: 1.0 - config.beta1.powi(t as i32),
            bc2: 1.0 - config.beta2.powi(t as i32),
            lr: config.lr_at(group, t),
        }
    }

    #[inline(always)]
    fn apply(&self, p: &mut f32, m: &mut f32, v: &mut f32, grad: f32) {
        let m_new = self.b1 * *m + (1.0 - self.b1) * grad;
        let v_new = self.b2 * *v + (1.0 - self.b2) * grad * grad;
        *m = m_new;
        *v = v_new;
        let m_hat = m_new / self.bc1;
        let v_hat = v_new / self.bc2;
        *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
    }
}

/// Traffic of a dense update of `dims` values per Gaussian over `n`
/// Gaussians.
fn dense_stats(n: usize, dims: usize) -> StepStats {
    StepStats {
        updated_gaussians: n,
        total_gaussians: n,
        bytes_read: n as f64 * 4.0 * dims as f64 * 4.0,
        bytes_written: n as f64 * 3.0 * dims as f64 * 4.0,
        flops: n as f64 * dims as f64 * 12.0,
    }
}

/// Exact Adam: updates every parameter and optimizer state each step.
#[derive(Debug, Clone)]
pub struct DenseAdam {
    config: AdamConfig,
    state: MomentState,
    step: u64,
    /// Scratch for [`DenseAdam::apply_groups_sparse`].
    slots: SlotTable,
}

impl DenseAdam {
    /// Creates an optimizer for `n` Gaussians.
    pub fn new(config: AdamConfig, n: usize) -> Self {
        Self {
            config,
            state: MomentState::zeros(n),
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

    /// The moment state (for inspection and memory accounting).
    pub fn state(&self) -> &MomentState {
        &self.state
    }

    /// Grows the state for newly added Gaussians.
    pub fn append_zeros(&mut self, additional: usize) {
        self.state.append_zeros(additional);
    }

    /// Drops state for pruned Gaussians.
    pub fn retain_mask(&mut self, mask: &[bool]) {
        self.state.retain_mask(mask);
    }

    /// Advances the step counter and returns the new (1-based) step number.
    pub fn advance(&mut self) -> u64 {
        self.step += 1;
        self.step
    }

    /// Performs a full Adam step over all groups with dense gradients.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` cover different numbers of Gaussians or
    /// do not match the optimizer state size.
    pub fn step(&mut self, params: &mut GaussianParams, grads: &GaussianGrads) -> StepStats {
        let t = self.advance();
        self.apply_groups(params, grads, &ParamGroup::ALL, t)
    }

    /// Performs an Adam update at explicit step `t` restricted to the listed
    /// parameter groups (all Gaussians).
    ///
    /// GS-Scale uses this to update the GPU-resident geometric groups and the
    /// host-resident non-geometric groups as two separate phases of the same
    /// training step.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches between `params`, `grads` and the state.
    pub fn apply_groups(
        &mut self,
        params: &mut GaussianParams,
        grads: &GaussianGrads,
        groups: &[ParamGroup],
        t: u64,
    ) -> StepStats {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(
            params.len(),
            self.state.len(),
            "optimizer state length mismatch"
        );
        let mut dims = 0usize;
        for &g in groups {
            dims += g.dim();
            let update = ElementUpdate::new(&self.config, g, t);
            let p = params.group_mut(g);
            let gr = grads.group(g);
            let m = self.state.m.group_mut(g);
            let v = self.state.v.group_mut(g);
            for (((p, m), v), &grad) in p.iter_mut().zip(m).zip(v).zip(gr) {
                update.apply(p, m, v, grad);
            }
        }
        dense_stats(params.len(), dims)
    }

    /// [`DenseAdam::apply_groups`] on `sparse.to_dense(params.len())`
    /// without building it: one walk over all Gaussians that reads each
    /// gradient row through the packed index and takes zero where `sparse`
    /// has none. Parameters, moments and the returned stats are bit-identical
    /// to the densified call.
    ///
    /// # Panics
    ///
    /// Panics on a size mismatch between `params` and the state, if an id is
    /// out of range, or if `sparse` lists an id twice (a merged gradient set
    /// never does).
    pub fn apply_groups_sparse(
        &mut self,
        params: &mut GaussianParams,
        sparse: &SparseGrads,
        groups: &[ParamGroup],
        t: u64,
    ) -> StepStats {
        let n = params.len();
        assert_eq!(n, self.state.len(), "optimizer state length mismatch");
        assert_eq!(sparse.grads.len(), sparse.len(), "grad/id length mismatch");
        let distinct = self.slots.fill(n, &sparse.ids);
        assert_eq!(distinct, sparse.len(), "duplicate gaussian id");

        let mut dims = 0usize;
        for &g in groups {
            let dim = g.dim();
            dims += dim;
            let update = ElementUpdate::new(&self.config, g, t);
            let gr = sparse.grads.group(g);
            let rows = params
                .group_mut(g)
                .chunks_exact_mut(dim)
                .zip(self.state.m.group_mut(g).chunks_exact_mut(dim))
                .zip(self.state.v.group_mut(g).chunks_exact_mut(dim));
            for (i, ((p, m), v)) in rows.enumerate() {
                match self.slots.get(i) {
                    Some(k) => {
                        let row = &gr[k * dim..(k + 1) * dim];
                        for (((p, m), v), &grad) in p.iter_mut().zip(m).zip(v).zip(row) {
                            // `to_dense` adds the row to zeros, which turns
                            // a -0.0 into +0.0.
                            update.apply(p, m, v, 0.0 + grad);
                        }
                    }
                    None => {
                        for ((p, m), v) in p.iter_mut().zip(m).zip(v) {
                            update.apply(p, m, v, 0.0);
                        }
                    }
                }
            }
        }
        self.slots.clear(&sparse.ids);
        dense_stats(n, dims)
    }
}

/// Adam restricted to Gaussians with non-zero gradients (ablation baseline;
/// *not* equivalent to Adam because skipped momentum does not decay).
#[derive(Debug, Clone)]
pub struct SparseAdam {
    inner: DenseAdam,
}

impl SparseAdam {
    /// Creates an optimizer for `n` Gaussians.
    pub fn new(config: AdamConfig, n: usize) -> Self {
        Self {
            inner: DenseAdam::new(config, n),
        }
    }

    /// Number of optimizer steps taken so far.
    pub fn current_step(&self) -> u64 {
        self.inner.step
    }

    /// Grows the state for newly added Gaussians.
    pub fn append_zeros(&mut self, additional: usize) {
        self.inner.append_zeros(additional);
    }

    /// Drops state for pruned Gaussians.
    pub fn retain_mask(&mut self, mask: &[bool]) {
        self.inner.retain_mask(mask);
    }

    /// Updates only the Gaussians listed in `sparse.ids`.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range or sizes mismatch.
    pub fn step(&mut self, params: &mut GaussianParams, sparse: &SparseGrads) -> StepStats {
        self.inner.step += 1;
        let t = self.inner.step;
        let n_total = params.len();
        assert_eq!(n_total, self.inner.state.len(), "state length mismatch");
        let b1 = self.inner.config.beta1;
        let b2 = self.inner.config.beta2;
        let eps = self.inner.config.eps;
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);

        for (k, &id) in sparse.ids.iter().enumerate() {
            let i = id as usize;
            assert!(i < n_total, "gaussian id out of range");
            for g in ParamGroup::ALL {
                let dim = g.dim();
                let lr = self.inner.config.lr_at(g, t);
                let p = params.group_mut(g);
                let gr = sparse.grads.group(g);
                let m = self.inner.state.m.group_mut(g);
                let v = self.inner.state.v.group_mut(g);
                for d in 0..dim {
                    let grad = gr[k * dim + d];
                    let idx = i * dim + d;
                    let m_new = b1 * m[idx] + (1.0 - b1) * grad;
                    let v_new = b2 * v[idx] + (1.0 - b2) * grad * grad;
                    m[idx] = m_new;
                    v[idx] = v_new;
                    p[idx] -= lr * (m_new / bc1) / ((v_new / bc2).sqrt() + eps);
                }
            }
        }
        StepStats::sparse(sparse.len(), n_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::math::Vec3;
    use gs_core::rng::Rng64;

    fn params(n: usize) -> GaussianParams {
        let mut p = GaussianParams::new();
        for i in 0..n {
            p.push_isotropic(Vec3::new(i as f32, 0.0, 1.0), 0.1, [0.4, 0.5, 0.6], 0.6);
        }
        p
    }

    fn grads_with(n: usize, ids: &[usize], value: f32) -> GaussianGrads {
        let mut g = GaussianGrads::zeros(n);
        for &i in ids {
            g.means[3 * i] = value;
            g.opacities[i] = value * 0.5;
            g.sh[48 * i] = value * 0.25;
        }
        g
    }

    #[test]
    fn single_adam_step_matches_manual_computation() {
        let cfg = AdamConfig::uniform(0.1);
        let mut p = params(1);
        let before = p.means[0];
        let mut opt = DenseAdam::new(cfg, 1);
        let mut g = GaussianGrads::zeros(1);
        g.means[0] = 2.0;
        opt.step(&mut p, &g);
        // t=1: m=0.2, v=0.004, mhat=2.0, vhat=4.0; step = 0.1*2/(2+eps)=0.1.
        assert!((before - p.means[0] - 0.1).abs() < 1e-5);
    }

    #[test]
    fn adam_moves_parameters_against_gradient_sign() {
        let cfg = AdamConfig::uniform(0.01);
        let mut p = params(2);
        let before0 = p.means[0];
        let mut opt = DenseAdam::new(cfg, 2);
        let g = grads_with(2, &[0], 1.0);
        opt.step(&mut p, &g);
        assert!(p.means[0] < before0);
    }

    #[test]
    fn zero_gradient_first_step_leaves_parameters_unchanged() {
        let cfg = AdamConfig::uniform(0.01);
        let mut p = params(3);
        let snapshot = p.clone();
        let mut opt = DenseAdam::new(cfg, 3);
        opt.step(&mut p, &GaussianGrads::zeros(3));
        assert_eq!(p, snapshot);
    }

    #[test]
    fn momentum_keeps_moving_parameters_after_gradient_stops() {
        // This is the property that forces the baseline to update everything:
        // after one non-zero gradient, subsequent zero-gradient steps still
        // change the parameter because the momentum is non-zero.
        let cfg = AdamConfig::uniform(0.01);
        let mut p = params(1);
        let mut opt = DenseAdam::new(cfg, 1);
        let mut g = GaussianGrads::zeros(1);
        g.means[0] = 1.0;
        opt.step(&mut p, &g);
        let after_first = p.means[0];
        opt.step(&mut p, &GaussianGrads::zeros(1));
        assert!(
            p.means[0] < after_first,
            "momentum should keep decreasing the mean"
        );
    }

    #[test]
    fn group_restriction_updates_only_those_groups() {
        let cfg = AdamConfig::uniform(0.05);
        let mut p = params(2);
        let snapshot = p.clone();
        let mut opt = DenseAdam::new(cfg, 2);
        let g = grads_with(2, &[0, 1], 1.0);
        let t = opt.advance();
        opt.apply_groups(&mut p, &g, &ParamGroup::GEOMETRIC, t);
        assert_ne!(p.means, snapshot.means);
        assert_eq!(p.opacities, snapshot.opacities);
        assert_eq!(p.sh, snapshot.sh);
    }

    #[test]
    fn step_stats_reflect_group_dims() {
        let cfg = AdamConfig::uniform(0.05);
        let mut p = params(4);
        let g = grads_with(4, &[0], 1.0);
        let mut opt = DenseAdam::new(cfg, 4);
        let t = opt.advance();
        let stats = opt.apply_groups(&mut p, &g, &ParamGroup::GEOMETRIC, t);
        // 10 of 59 parameters touched.
        assert!((stats.total_bytes() - 4.0 * 7.0 * 10.0 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_entry_is_bit_identical_to_the_densified_call() {
        let cfg = AdamConfig::reference();
        let n = 50;
        let mut p_sparse = params(n);
        let mut p_dense = p_sparse.clone();
        let mut via_sparse = DenseAdam::new(cfg, n);
        let mut via_dense = DenseAdam::new(cfg, n);
        let mut rng = Rng64::seed_from_u64(0x6164_616d);
        for step in 0..24 {
            // From no gradients at all to nearly every Gaussian, in an
            // order that is not the index order.
            let share = [0.0, 0.05, 0.4, 0.95][step % 4];
            let mut ids: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(share)).collect();
            ids.reverse();
            let mut grads = GaussianGrads::zeros(ids.len());
            for g in ParamGroup::ALL {
                for v in grads.group_mut(g) {
                    *v = rng.gen_range(-0.5f32..0.5);
                }
            }
            if let Some(v) = grads.sh.first_mut() {
                *v = -0.0;
            }
            let sparse = SparseGrads { ids, grads };

            // The trainer's two phases: geometric groups, then the rest.
            for groups in [&ParamGroup::GEOMETRIC[..], &ParamGroup::NON_GEOMETRIC[..]] {
                let t = step as u64 + 1;
                let a = via_sparse.apply_groups_sparse(&mut p_sparse, &sparse, groups, t);
                let b = via_dense.apply_groups(&mut p_dense, &sparse.to_dense(n), groups, t);
                assert_eq!(a, b, "step {step}");
            }
            for g in ParamGroup::ALL {
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(p_sparse.group(g)), bits(p_dense.group(g)), "{g:?}");
                assert_eq!(
                    bits(via_sparse.state().m.group(g)),
                    bits(via_dense.state().m.group(g)),
                    "m {g:?} step {step}"
                );
                assert_eq!(
                    bits(via_sparse.state().v.group(g)),
                    bits(via_dense.state().v.group(g)),
                    "v {g:?} step {step}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate gaussian id")]
    fn sparse_entry_rejects_a_repeated_id() {
        let mut p = params(3);
        let mut opt = DenseAdam::new(AdamConfig::uniform(0.01), 3);
        let sparse = SparseGrads {
            ids: vec![1, 1],
            grads: GaussianGrads::zeros(2),
        };
        opt.apply_groups_sparse(&mut p, &sparse, &ParamGroup::ALL, 1);
    }

    #[test]
    fn append_and_retain_state() {
        let cfg = AdamConfig::uniform(0.05);
        let mut p = params(2);
        let mut opt = DenseAdam::new(cfg, 2);
        let g = grads_with(2, &[0, 1], 1.0);
        opt.step(&mut p, &g);
        let m_before = opt.state().m.means[0];
        assert!(m_before != 0.0);
        opt.append_zeros(2);
        assert_eq!(opt.state().len(), 4);
        assert_eq!(opt.state().m.means[0], m_before);
        assert_eq!(opt.state().m.means[3 * 3], 0.0);
        opt.retain_mask(&[false, true, true, false]);
        assert_eq!(opt.state().len(), 2);
        assert_eq!(opt.state().m.means[0], opt.state().m.means[0]);
    }

    #[test]
    fn sparse_adam_only_touches_listed_ids() {
        let cfg = AdamConfig::uniform(0.05);
        let mut p = params(3);
        let untouched_mean = p.means[3 * 2];
        let mut opt = SparseAdam::new(cfg, 3);
        let mut packed = GaussianGrads::zeros(1);
        packed.means[0] = 1.0;
        let sparse = SparseGrads {
            ids: vec![1],
            grads: packed,
        };
        let stats = opt.step(&mut p, &sparse);
        assert_eq!(stats.updated_gaussians, 1);
        assert_eq!(p.means[3 * 2], untouched_mean);
        assert_ne!(p.means[3], 1.0);
    }

    #[test]
    fn sparse_adam_differs_from_dense_adam_over_time() {
        // After a gradient stops, dense Adam keeps applying momentum while
        // sparse Adam freezes the Gaussian: the two diverge. This is why the
        // paper needed the deferred formulation.
        let cfg = AdamConfig::uniform(0.01);
        let mut p_dense = params(1);
        let mut p_sparse = p_dense.clone();
        let mut dense = DenseAdam::new(cfg, 1);
        let mut sparse_opt = SparseAdam::new(cfg, 1);

        let mut dense_g = GaussianGrads::zeros(1);
        dense_g.means[0] = 1.0;
        let mut packed = GaussianGrads::zeros(1);
        packed.means[0] = 1.0;
        let sparse_g = SparseGrads {
            ids: vec![0],
            grads: packed,
        };
        dense.step(&mut p_dense, &dense_g);
        sparse_opt.step(&mut p_sparse, &sparse_g);
        assert!((p_dense.means[0] - p_sparse.means[0]).abs() < 1e-7);

        // Now three steps with no gradient.
        for _ in 0..3 {
            dense.step(&mut p_dense, &GaussianGrads::zeros(1));
            sparse_opt.step(
                &mut p_sparse,
                &SparseGrads {
                    ids: vec![],
                    grads: GaussianGrads::zeros(0),
                },
            );
        }
        assert!((p_dense.means[0] - p_sparse.means[0]).abs() > 1e-5);
    }
}
