//! The paper's *deferred optimizer update* (Section 4.3, Figure 10).
//!
//! Adam keeps updating parameters whose gradients are zero because the
//! momentum terms decay geometrically rather than vanishing. The deferred
//! update exploits that this decay is *deterministic*: a zero-gradient step
//! at step `s` depends only on the row's own `(w, m, v)` and on that step's
//! constants `lr_s`, `1 − β₁^s` and `1 − β₂^s`. So a Gaussian whose gradient
//! has been zero for the `d` steps `t-d .. t-1` can be left untouched and
//! brought up to date when it is next needed by replaying them:
//!
//! ```text
//! (w, m, v) ← adam_s(w, m, v, 0)   for s = t-d .. t-1
//! (w, m, v) ← adam_t(w, m, v, g_t)
//! ```
//!
//! where `adam_s` is the element update [`DenseAdam`](crate::DenseAdam)
//! applies at step `s`. The replay makes the same calls in the same order as
//! dense Adam, so the restored row equals dense Adam's bit for bit. A flush
//! and [`DeferredAdam::peek_restored`] replay the skipped steps up to the
//! last completed one; [`DeferredAdam::peek_forwarded`] also takes the next.
//! What the deferral saves is memory traffic: a deferred row is read and
//! written once per restore instead of once per step, and its skipped steps
//! are redone in registers.
//!
//! A row whose `m` and `v` are all `+0.0` (such as one that has never had a
//! gradient) is at rest: a zero-gradient step keeps both at `+0.0` and
//! subtracts `lr · 0 / (0 + ε) = +0.0` from the weight (ε > 0), which leaves
//! every weight's bits as they are. Its zero-gradient steps are skipped, so
//! restoring a Gaussian that has never had a gradient costs no arithmetic.
//!
//! Each Gaussian carries a 4-bit defer counter (stored in a `u8`): updates
//! are skipped while the gradient stays zero, and the state is restored
//! either when the gradient becomes non-zero or when the counter saturates
//! at [`DeferredAdam::MAX_DEFER`], which bounds the replay to that many
//! steps.

use gs_core::gaussian::{GaussianParams, ParamGroup, SparseGrads};

use crate::adam::{ElementUpdate, MomentState};
use crate::config::AdamConfig;
use crate::slots::SlotTable;
use crate::stats::StepStats;

/// The constants of the `MAX_DEFER + 1` consecutive steps ending at the one
/// a restore takes, oldest first.
type Window = [ElementUpdate; DeferredAdam::MAX_DEFER as usize + 1];

/// Brings one row of one group up to date: replays the `skipped`
/// zero-gradient steps that precede the last step of `window`, then takes
/// that step with `grad` (zero when `None`). These are the calls dense Adam
/// makes on the row, so `p`, `m` and `v` end bit-identical to it. A row at
/// rest skips every zero-gradient step.
fn restore_row(
    window: &Window,
    skipped: usize,
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: Option<&[f32]>,
) {
    let (last, earlier) = window.split_last().expect("a window is never empty");
    // At rest: a fixed point of every zero-gradient step (see module docs).
    let at_rest = m.iter().chain(v.iter()).all(|x| x.to_bits() == 0);
    if !at_rest {
        for update in &earlier[earlier.len() - skipped..] {
            for ((p, m), v) in p.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()) {
                update.apply(p, m, v, 0.0);
            }
        }
    }
    let elements = p.iter_mut().zip(m).zip(v);
    match grad {
        // As in `DenseAdam::apply_groups_sparse`: `0.0 + g` turns a -0.0
        // gradient into the +0.0 a densified gradient holds.
        Some(grad) => elements
            .zip(grad)
            .for_each(|(((p, m), v), &g)| last.apply(p, m, v, 0.0 + g)),
        None if !at_rest => elements.for_each(|((p, m), v)| last.apply(p, m, v, 0.0)),
        None => {}
    }
}

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

    /// The step constants of `group` for steps `end - MAX_DEFER ..= end`.
    /// Entries for steps before 1 are never replayed (a counter never
    /// exceeds the number of steps taken); they hold step 0's.
    fn window(&self, group: ParamGroup, end: u64) -> Window {
        std::array::from_fn(|j| {
            let step = (end + j as u64).saturating_sub(Self::MAX_DEFER as u64);
            ElementUpdate::new(&self.config, group, step)
        })
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

        let mut dims = 0usize;
        for &g in groups {
            let dim = g.dim();
            dims += dim;
            let window = self.window(g, t);
            let p = params.group_mut(g);
            let gr = sparse.grads.group(g);
            let m = self.state.m.group_mut(g);
            let v = self.state.v.group_mut(g);
            for &i in &update_ids {
                let row = i * dim..(i + 1) * dim;
                restore_row(
                    &window,
                    self.counters[i] as usize,
                    &mut p[row.clone()],
                    &mut m[row.clone()],
                    &mut v[row],
                    self.slots.get(i).map(|k| &gr[k * dim..(k + 1) * dim]),
                );
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

        StepStats::deferred(update_ids.len(), n, dims)
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
        // A counter of `d` at the last completed step `T` stands for the
        // zero-gradient steps T-d+1 ..= T.
        let pending: Vec<usize> = (0..n).filter(|&i| self.counters[i] > 0).collect();
        let mut dims = 0usize;
        for &g in groups {
            let dim = g.dim();
            dims += dim;
            let window = self.window(g, self.step);
            let p = params.group_mut(g);
            let m = self.state.m.group_mut(g);
            let v = self.state.v.group_mut(g);
            for &i in &pending {
                let row = i * dim..(i + 1) * dim;
                let skipped = self.counters[i] as usize - 1;
                let (p, m, v) = (&mut p[row.clone()], &mut m[row.clone()], &mut v[row]);
                restore_row(&window, skipped, p, m, v, None);
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
        let mut out = params.gather(ids);
        for &g in groups {
            let dim = g.dim();
            // The flush of one row, on a copy of its moments.
            let window = self.window(g, self.step);
            let (mut m, mut v) = (vec![0.0; dim], vec![0.0; dim]);
            for (slot, &id) in ids.iter().enumerate() {
                let i = id as usize;
                let delay = self.counters[i] as usize;
                if delay == 0 {
                    continue;
                }
                let row = i * dim..(i + 1) * dim;
                m.copy_from_slice(&self.state.m.group(g)[row.clone()]);
                v.copy_from_slice(&self.state.v.group(g)[row]);
                let p = &mut out.group_mut(g)[slot * dim..(slot + 1) * dim];
                restore_row(&window, delay - 1, p, &mut m, &mut v, None);
            }
        }
        out
    }

    /// Computes the values the Gaussians listed in `ids` would have *after*
    /// the next optimizer step is applied with the
    /// pending sparse gradients. Neither optimizer state nor stored
    /// parameters change; `&mut self` is for the id → row scratch, which is
    /// left as found.
    ///
    /// This implements *parameter forwarding*: GS-Scale pre-computes the
    /// post-update values of exactly the Gaussians the next iteration's
    /// forward pass needs (restoring any deferred state on the fly), ships
    /// them to the GPU, and lets the actual CPU update happen lazily. The
    /// forwarded values are the exact dense-Adam values after that step:
    /// the lazy step commits them unchanged, and a Gaussian it leaves
    /// deferred is later restored to them.
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
        let mut out = params.gather(ids);
        self.slots.fill(params.len(), &sparse.ids);
        for &g in groups {
            let dim = g.dim();
            // The next step of one row, on a copy of its moments.
            let window = self.window(g, self.step + 1);
            let gr = sparse.grads.group(g);
            let (mut m, mut v) = (vec![0.0; dim], vec![0.0; dim]);
            for (slot, &id) in ids.iter().enumerate() {
                let i = id as usize;
                let row = i * dim..(i + 1) * dim;
                m.copy_from_slice(&self.state.m.group(g)[row.clone()]);
                v.copy_from_slice(&self.state.v.group(g)[row]);
                let p = &mut out.group_mut(g)[slot * dim..(slot + 1) * dim];
                let grad = self.slots.get(i).map(|k| &gr[k * dim..(k + 1) * dim]);
                restore_row(&window, self.counters[i] as usize, p, &mut m, &mut v, grad);
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
    use crate::config::ExponentialLr;
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

    /// Asserts that two containers hold the same bits in every group, and
    /// names the first value that differs.
    #[track_caller]
    fn assert_bits_eq<'a, 'b>(
        a: impl Fn(ParamGroup) -> &'a [f32],
        b: impl Fn(ParamGroup) -> &'b [f32],
        what: &str,
    ) {
        for g in ParamGroup::ALL {
            let (a, b) = (a(g), b(g));
            assert_eq!(a.len(), b.len(), "{what}: {g:?} lengths");
            if let Some(k) = (0..a.len()).find(|&k| a[k].to_bits() != b[k].to_bits()) {
                panic!("{what}: {g:?}[{k}] is {} vs {}", a[k], b[k]);
            }
        }
    }

    /// Parameters, first and second moments compared bit for bit.
    #[track_caller]
    fn assert_same_state(
        p_dense: &GaussianParams,
        dense: &DenseAdam,
        p_deferred: &GaussianParams,
        deferred: &DeferredAdam,
        case: &str,
    ) {
        let (a, b) = (dense.state(), deferred.state());
        assert_bits_eq(
            |g| p_dense.group(g),
            |g| p_deferred.group(g),
            &format!("params, {case}"),
        );
        assert_bits_eq(|g| a.m.group(g), |g| b.m.group(g), &format!("m, {case}"));
        assert_bits_eq(|g| a.v.group(g), |g| b.v.group(g), &format!("v, {case}"));
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
        assert_same_state(&p_dense, &dense, &p_deferred, &deferred, "after flush");
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
        assert_same_state(&p_dense, &dense, &p_deferred, &deferred, "after flush");
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
        assert_same_state(&p_dense, &dense, &p_deferred, &deferred, "after flush");
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
        let dense_traffic = StepStats::dense(n, GaussianParams::PARAMS_PER_GAUSSIAN).total_bytes();
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

        assert_bits_eq(|g| forwarded.group(g), |g| reference.group(g), "forwarded");

        // The committed lazy update must agree with the forwarded values for
        // the Gaussians it actually updates (1 and 2, the first two needed).
        deferred.step(&mut p_deferred, &pending);
        let committed = p_deferred.gather(&needed[..2]);
        let forwarded = forwarded.gather(&[0, 1]);
        assert_bits_eq(|g| forwarded.group(g), |g| committed.group(g), "committed");
    }

    /// Deferred Adam against `DenseAdam::apply_groups_sparse`, bit for bit,
    /// over 16 seeds × 200 steps with a decaying mean learning rate: after
    /// every step the staged (`peek_restored`) and the forwarded
    /// (`peek_forwarded`) values of a random quarter of the Gaussians are
    /// dense Adam's, and after every flush the
    /// parameters and both moments are. Activity is random — 0–40 % of
    /// Gaussians per step, with empty stretches long enough to saturate the
    /// counters — and each flush is followed by a prune and a growth.
    #[test]
    fn deferred_is_bit_identical_to_dense_adam_under_random_activity() {
        const STEPS: u64 = 200;
        let mut cfg = AdamConfig::reference();
        cfg.mean_lr_decay = Some(ExponentialLr::reference(STEPS));
        for seed in 0..16 {
            let mut rng = Rng64::seed_from_u64(0x6465_6665 + seed);
            let mut n = rng.gen_range(30usize..80);
            let mut p_dense = params(n);
            let mut p_deferred = p_dense.clone();
            let mut dense = DenseAdam::new(cfg, n);
            let mut deferred = DeferredAdam::new(cfg, n);
            let mut flushes = 0;
            for step in 0..STEPS {
                let case = format!("seed {seed}, step {step}");
                // Every third stretch of 20 steps is empty.
                let share = if step / 20 % 3 == 2 {
                    0.0
                } else {
                    rng.gen_range(0.0..0.4)
                };
                let mut ids: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(share)).collect();
                ids.reverse();
                let mut grads = GaussianGrads::zeros(ids.len());
                for g in ParamGroup::ALL {
                    for x in grads.group_mut(g) {
                        *x = rng.gen_range(-0.5f32..0.5);
                    }
                }
                if let Some(x) = grads.opacities.first_mut() {
                    *x = -0.0;
                }
                let sparse = SparseGrads { ids, grads };

                let peeked: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.25)).collect();
                let all = &ParamGroup::ALL;
                let forwarded = deferred.peek_forwarded(&p_deferred, &sparse, &peeked, all);
                let t = dense.advance();
                dense.apply_groups_sparse(&mut p_dense, &sparse, all, t);
                deferred.step(&mut p_deferred, &sparse);
                let staged = deferred.peek_restored(&p_deferred, &peeked, all);
                let reference = p_dense.gather(&peeked);
                let expected = |g| reference.group(g);
                assert_bits_eq(
                    |g| forwarded.group(g),
                    expected,
                    &format!("forwarded, {case}"),
                );
                assert_bits_eq(|g| staged.group(g), expected, &format!("staged, {case}"));

                if rng.gen_bool(0.04) || step + 1 == STEPS {
                    deferred.flush(&mut p_deferred);
                    assert_same_state(&p_dense, &dense, &p_deferred, &deferred, &case);
                    flushes += 1;
                    let keep: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.9)).collect();
                    let grown = params(rng.gen_range(0usize..8));
                    p_dense.retain_mask(&keep);
                    p_deferred.retain_mask(&keep);
                    dense.retain_mask(&keep);
                    deferred.retain_mask(&keep);
                    p_dense.append(&grown);
                    p_deferred.append(&grown);
                    dense.append_zeros(grown.len());
                    deferred.append_zeros(grown.len());
                    n = p_dense.len();
                }
            }
            assert!(flushes > 2, "seed {seed}: {flushes} flushes");
        }
    }

    /// Only `+0.0` moments are at rest: a zero-gradient step turns a `-0.0`
    /// momentum into `+0.0`, so a row holding one must still be replayed.
    /// With β₁ = 0.5 two subnormal gradients leave the momentum at `-0.0`.
    #[test]
    fn a_negative_zero_momentum_is_not_at_rest() {
        let mut cfg = AdamConfig::uniform(0.01);
        cfg.beta1 = 0.5;
        let n = 1;
        let mut p_dense = params(n);
        let mut p_deferred = p_dense.clone();
        let mut dense = DenseAdam::new(cfg, n);
        let mut deferred = DeferredAdam::new(cfg, n);
        let smallest = f32::from_bits(1);
        for g in [-2.0 * smallest, -smallest] {
            let mut grads = GaussianGrads::zeros(1);
            grads.opacities[0] = g;
            let sparse = SparseGrads {
                ids: vec![0],
                grads,
            };
            dense.step(&mut p_dense, &sparse.to_dense(n));
            deferred.step(&mut p_deferred, &sparse);
        }
        assert_eq!(
            deferred.state().m.opacities[0].to_bits(),
            (-0.0f32).to_bits()
        );
        for _ in 0..3 {
            dense.step(&mut p_dense, &GaussianGrads::zeros(n));
            deferred.step(&mut p_deferred, &SparseGrads::default());
        }
        deferred.flush(&mut p_deferred);
        assert_same_state(&p_dense, &dense, &p_deferred, &deferred, "after flush");
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
