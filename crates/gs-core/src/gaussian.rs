//! Structure-of-arrays storage for 3D Gaussian parameters and gradients.
//!
//! Each Gaussian carries 59 trainable parameters, matching the paper:
//!
//! | group        | dim | space                       |
//! |--------------|-----|-----------------------------|
//! | `means`      | 3   | world position              |
//! | `log_scales` | 3   | log of per-axis extent      |
//! | `quats`      | 4   | unnormalized rotation       |
//! | `opacities`  | 1   | logit of opacity            |
//! | `sh`         | 48  | degree-3 SH RGB coefficients|
//!
//! The *geometric* attributes (mean, scale, quaternion — 10 of 59 parameters)
//! are the ones GS-Scale keeps resident on the GPU for fast frustum culling
//! (selective offloading); the remaining 49 are offloaded to host memory.
//!
//! All storage is flat `Vec<f32>` per group so that optimizers, transfer
//! engines and the memory-accounting model can treat parameters uniformly as
//! `(group, N x D)` tensors.

use crate::math::{logit, sigmoid, Quat, Vec3};
use crate::sh::MAX_COEFFS;

/// Identifies one of the five trainable parameter groups of a Gaussian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParamGroup {
    /// World-space center positions (dim 3).
    Means,
    /// Log-scale extents (dim 3).
    LogScales,
    /// Unnormalized rotation quaternions (dim 4).
    Quats,
    /// Opacity logits (dim 1).
    Opacities,
    /// Spherical-harmonic color coefficients (dim 48).
    Sh,
}

impl ParamGroup {
    /// All parameter groups in canonical order.
    pub const ALL: [ParamGroup; 5] = [
        ParamGroup::Means,
        ParamGroup::LogScales,
        ParamGroup::Quats,
        ParamGroup::Opacities,
        ParamGroup::Sh,
    ];

    /// The geometric groups kept on the GPU under selective offloading.
    pub const GEOMETRIC: [ParamGroup; 3] =
        [ParamGroup::Means, ParamGroup::LogScales, ParamGroup::Quats];

    /// The non-geometric groups offloaded to host memory.
    pub const NON_GEOMETRIC: [ParamGroup; 2] = [ParamGroup::Opacities, ParamGroup::Sh];

    /// Per-Gaussian dimensionality of this group.
    #[inline]
    pub const fn dim(self) -> usize {
        match self {
            ParamGroup::Means | ParamGroup::LogScales => 3,
            ParamGroup::Quats => 4,
            ParamGroup::Opacities => 1,
            ParamGroup::Sh => 3 * MAX_COEFFS,
        }
    }

    /// Whether this group is geometric (mean/scale/quaternion).
    #[inline]
    pub const fn is_geometric(self) -> bool {
        matches!(
            self,
            ParamGroup::Means | ParamGroup::LogScales | ParamGroup::Quats
        )
    }

    /// Short lowercase name, useful for reports.
    pub const fn name(self) -> &'static str {
        match self {
            ParamGroup::Means => "means",
            ParamGroup::LogScales => "log_scales",
            ParamGroup::Quats => "quats",
            ParamGroup::Opacities => "opacities",
            ParamGroup::Sh => "sh",
        }
    }
}

/// The DC spherical-harmonic constant, used to convert between RGB albedo and
/// the degree-0 SH coefficient.
pub const SH_DC: f32 = 0.282_094_79;

/// Structure-of-arrays container for the trainable parameters of `N`
/// Gaussians.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianParams {
    len: usize,
    /// Flat world-space means, length `3 * len`.
    pub means: Vec<f32>,
    /// Flat log-scales, length `3 * len`.
    pub log_scales: Vec<f32>,
    /// Flat unnormalized quaternions `[w, x, y, z]`, length `4 * len`.
    pub quats: Vec<f32>,
    /// Opacity logits, length `len`.
    pub opacities: Vec<f32>,
    /// Flat SH coefficients, length `48 * len`, laid out as 16 RGB triples
    /// per Gaussian (coefficient-major: `[c0.r, c0.g, c0.b, c1.r, ...]`).
    pub sh: Vec<f32>,
}

impl GaussianParams {
    /// Total number of trainable parameters per Gaussian (59).
    pub const PARAMS_PER_GAUSSIAN: usize = 3 + 3 + 4 + 1 + 3 * MAX_COEFFS;
    /// Number of geometric parameters per Gaussian (10).
    pub const GEOMETRIC_PARAMS: usize = 10;
    /// Number of non-geometric parameters per Gaussian (49).
    pub const NON_GEOMETRIC_PARAMS: usize = Self::PARAMS_PER_GAUSSIAN - Self::GEOMETRIC_PARAMS;

    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty container with room reserved for `n` Gaussians.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            len: 0,
            means: Vec::with_capacity(3 * n),
            log_scales: Vec::with_capacity(3 * n),
            quats: Vec::with_capacity(4 * n),
            opacities: Vec::with_capacity(n),
            sh: Vec::with_capacity(3 * MAX_COEFFS * n),
        }
    }

    /// Creates `n` Gaussians with all parameters zeroed (identity quaternion).
    pub fn zeros(n: usize) -> Self {
        let mut quats = vec![0.0; 4 * n];
        for i in 0..n {
            quats[4 * i] = 1.0;
        }
        Self {
            len: n,
            means: vec![0.0; 3 * n],
            log_scales: vec![0.0; 3 * n],
            quats,
            opacities: vec![0.0; n],
            sh: vec![0.0; 3 * MAX_COEFFS * n],
        }
    }

    /// Number of Gaussians.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the container is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of trainable scalars (`len * 59`).
    #[inline]
    pub fn num_parameters(&self) -> usize {
        self.len * Self::PARAMS_PER_GAUSSIAN
    }

    /// Bytes occupied by all parameters (f32).
    #[inline]
    pub fn total_bytes(&self) -> usize {
        self.num_parameters() * 4
    }

    /// Bytes occupied by the geometric groups only.
    #[inline]
    pub fn geometric_bytes(&self) -> usize {
        self.len * Self::GEOMETRIC_PARAMS * 4
    }

    /// Bytes occupied by the non-geometric groups only.
    #[inline]
    pub fn non_geometric_bytes(&self) -> usize {
        self.len * Self::NON_GEOMETRIC_PARAMS * 4
    }

    /// Appends a Gaussian with explicit raw parameters.
    ///
    /// `sh` must contain 48 coefficients (16 RGB triples, coefficient-major).
    ///
    /// # Panics
    ///
    /// Panics if `sh.len() != 48`.
    pub fn push_raw(
        &mut self,
        mean: Vec3,
        log_scale: Vec3,
        quat: Quat,
        opacity_logit: f32,
        sh: &[f32],
    ) {
        assert_eq!(sh.len(), 3 * MAX_COEFFS, "expected 48 SH coefficients");
        self.means.extend_from_slice(&mean.to_array());
        self.log_scales.extend_from_slice(&log_scale.to_array());
        self.quats.extend_from_slice(&quat.to_array());
        self.opacities.push(opacity_logit);
        self.sh.extend_from_slice(sh);
        self.len += 1;
    }

    /// Appends an isotropic Gaussian described in intuitive units: a world
    /// position, a linear scale, an RGB albedo in `[0, 1]` and an opacity in
    /// `(0, 1)`.
    pub fn push_isotropic(&mut self, mean: Vec3, scale: f32, rgb: [f32; 3], opacity: f32) {
        let mut sh = [0.0f32; 3 * MAX_COEFFS];
        for ch in 0..3 {
            sh[ch] = (rgb[ch] - 0.5) / SH_DC;
        }
        self.push_raw(
            mean,
            Vec3::splat(scale.max(1e-8).ln()),
            Quat::IDENTITY,
            logit(opacity),
            &sh,
        );
    }

    /// World-space mean of Gaussian `i`.
    #[inline]
    pub fn mean(&self, i: usize) -> Vec3 {
        Vec3::new(
            self.means[3 * i],
            self.means[3 * i + 1],
            self.means[3 * i + 2],
        )
    }

    /// Sets the world-space mean of Gaussian `i`.
    #[inline]
    pub fn set_mean(&mut self, i: usize, m: Vec3) {
        self.means[3 * i] = m.x;
        self.means[3 * i + 1] = m.y;
        self.means[3 * i + 2] = m.z;
    }

    /// Log-scale of Gaussian `i`.
    #[inline]
    pub fn log_scale(&self, i: usize) -> Vec3 {
        Vec3::new(
            self.log_scales[3 * i],
            self.log_scales[3 * i + 1],
            self.log_scales[3 * i + 2],
        )
    }

    /// Sets the log-scale of Gaussian `i`.
    #[inline]
    pub fn set_log_scale(&mut self, i: usize, s: Vec3) {
        self.log_scales[3 * i] = s.x;
        self.log_scales[3 * i + 1] = s.y;
        self.log_scales[3 * i + 2] = s.z;
    }

    /// Linear (exponentiated) scale of Gaussian `i`.
    #[inline]
    pub fn scale(&self, i: usize) -> Vec3 {
        self.log_scale(i).exp()
    }

    /// Raw (unnormalized) quaternion of Gaussian `i`.
    #[inline]
    pub fn quat(&self, i: usize) -> Quat {
        Quat::new(
            self.quats[4 * i],
            self.quats[4 * i + 1],
            self.quats[4 * i + 2],
            self.quats[4 * i + 3],
        )
    }

    /// Sets the raw quaternion of Gaussian `i`.
    #[inline]
    pub fn set_quat(&mut self, i: usize, q: Quat) {
        self.quats[4 * i] = q.w;
        self.quats[4 * i + 1] = q.x;
        self.quats[4 * i + 2] = q.y;
        self.quats[4 * i + 3] = q.z;
    }

    /// Opacity logit of Gaussian `i`.
    #[inline]
    pub fn opacity_logit(&self, i: usize) -> f32 {
        self.opacities[i]
    }

    /// Opacity (after sigmoid) of Gaussian `i`.
    #[inline]
    pub fn opacity(&self, i: usize) -> f32 {
        sigmoid(self.opacities[i])
    }

    /// Sets the opacity logit of Gaussian `i`.
    #[inline]
    pub fn set_opacity_logit(&mut self, i: usize, v: f32) {
        self.opacities[i] = v;
    }

    /// The 48 SH coefficients of Gaussian `i` (16 RGB triples).
    #[inline]
    pub fn sh_coeffs(&self, i: usize) -> &[f32] {
        let d = 3 * MAX_COEFFS;
        &self.sh[d * i..d * (i + 1)]
    }

    /// Mutable access to the 48 SH coefficients of Gaussian `i`.
    #[inline]
    pub fn sh_coeffs_mut(&mut self, i: usize) -> &mut [f32] {
        let d = 3 * MAX_COEFFS;
        &mut self.sh[d * i..d * (i + 1)]
    }

    /// The SH coefficients of Gaussian `i` viewed as RGB triples, copying
    /// only the `num_coeffs(degree)` coefficients the active SH degree uses
    /// (the remaining entries stay zero and are never read by the degree's
    /// evaluator).
    ///
    /// # Panics
    ///
    /// Panics if `degree` exceeds [`crate::sh::MAX_DEGREE`].
    pub fn sh_triples(&self, i: usize, degree: usize) -> [[f32; 3]; MAX_COEFFS] {
        let n = crate::sh::num_coeffs(degree);
        assert!(n <= MAX_COEFFS, "SH degree {degree} out of range");
        let s = self.sh_coeffs(i);
        let mut out = [[0.0f32; 3]; MAX_COEFFS];
        for (k, t) in out.iter_mut().enumerate().take(n) {
            t[0] = s[3 * k];
            t[1] = s[3 * k + 1];
            t[2] = s[3 * k + 2];
        }
        out
    }

    /// Immutable flat view of one parameter group.
    pub fn group(&self, g: ParamGroup) -> &[f32] {
        match g {
            ParamGroup::Means => &self.means,
            ParamGroup::LogScales => &self.log_scales,
            ParamGroup::Quats => &self.quats,
            ParamGroup::Opacities => &self.opacities,
            ParamGroup::Sh => &self.sh,
        }
    }

    /// Mutable flat view of one parameter group.
    pub fn group_mut(&mut self, g: ParamGroup) -> &mut [f32] {
        match g {
            ParamGroup::Means => &mut self.means,
            ParamGroup::LogScales => &mut self.log_scales,
            ParamGroup::Quats => &mut self.quats,
            ParamGroup::Opacities => &mut self.opacities,
            ParamGroup::Sh => &mut self.sh,
        }
    }

    /// Gathers the parameters of the Gaussians listed in `ids` into a new,
    /// densely packed container (in `ids` order).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn gather(&self, ids: &[u32]) -> GaussianParams {
        let mut out = GaussianParams::with_capacity(ids.len());
        for &id in ids {
            let i = id as usize;
            assert!(
                i < self.len,
                "gaussian id {i} out of range (len {})",
                self.len
            );
            out.means.extend_from_slice(&self.means[3 * i..3 * i + 3]);
            out.log_scales
                .extend_from_slice(&self.log_scales[3 * i..3 * i + 3]);
            out.quats.extend_from_slice(&self.quats[4 * i..4 * i + 4]);
            out.opacities.push(self.opacities[i]);
            let d = 3 * MAX_COEFFS;
            out.sh.extend_from_slice(&self.sh[d * i..d * (i + 1)]);
            out.len += 1;
        }
        out
    }

    /// Scatters parameters from a packed `src` container back to the
    /// Gaussians listed in `ids` (inverse of [`GaussianParams::gather`]).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != ids.len()` or any id is out of range.
    pub fn scatter_from(&mut self, ids: &[u32], src: &GaussianParams) {
        assert_eq!(src.len(), ids.len());
        let d = 3 * MAX_COEFFS;
        for (k, &id) in ids.iter().enumerate() {
            let i = id as usize;
            assert!(i < self.len);
            self.means[3 * i..3 * i + 3].copy_from_slice(&src.means[3 * k..3 * k + 3]);
            self.log_scales[3 * i..3 * i + 3].copy_from_slice(&src.log_scales[3 * k..3 * k + 3]);
            self.quats[4 * i..4 * i + 4].copy_from_slice(&src.quats[4 * k..4 * k + 4]);
            self.opacities[i] = src.opacities[k];
            self.sh[d * i..d * (i + 1)].copy_from_slice(&src.sh[d * k..d * (k + 1)]);
        }
    }

    /// Appends all Gaussians from `other`.
    pub fn append(&mut self, other: &GaussianParams) {
        self.means.extend_from_slice(&other.means);
        self.log_scales.extend_from_slice(&other.log_scales);
        self.quats.extend_from_slice(&other.quats);
        self.opacities.extend_from_slice(&other.opacities);
        self.sh.extend_from_slice(&other.sh);
        self.len += other.len;
    }

    /// Keeps only the Gaussians for which `mask` is `true`.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != self.len()`.
    pub fn retain_mask(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.len);
        let keep: Vec<u32> = (0..self.len as u32).filter(|&i| mask[i as usize]).collect();
        *self = self.gather(&keep);
    }

    /// Duplicates the Gaussian at index `i` and returns the new index.
    pub fn duplicate(&mut self, i: usize) -> usize {
        let d = 3 * MAX_COEFFS;
        let mean: [f32; 3] = self.means[3 * i..3 * i + 3].try_into().unwrap();
        let ls: [f32; 3] = self.log_scales[3 * i..3 * i + 3].try_into().unwrap();
        let q: [f32; 4] = self.quats[4 * i..4 * i + 4].try_into().unwrap();
        let op = self.opacities[i];
        let sh: Vec<f32> = self.sh[d * i..d * (i + 1)].to_vec();
        self.means.extend_from_slice(&mean);
        self.log_scales.extend_from_slice(&ls);
        self.quats.extend_from_slice(&q);
        self.opacities.push(op);
        self.sh.extend_from_slice(&sh);
        self.len += 1;
        self.len - 1
    }
}

/// Dense per-Gaussian gradients with the same layout as [`GaussianParams`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianGrads {
    len: usize,
    /// Gradients for means, length `3 * len`.
    pub means: Vec<f32>,
    /// Gradients for log-scales, length `3 * len`.
    pub log_scales: Vec<f32>,
    /// Gradients for quaternions, length `4 * len`.
    pub quats: Vec<f32>,
    /// Gradients for opacity logits, length `len`.
    pub opacities: Vec<f32>,
    /// Gradients for SH coefficients, length `48 * len`.
    pub sh: Vec<f32>,
}

impl GaussianGrads {
    /// Creates zero gradients for `n` Gaussians.
    pub fn zeros(n: usize) -> Self {
        Self {
            len: n,
            means: vec![0.0; 3 * n],
            log_scales: vec![0.0; 3 * n],
            quats: vec![0.0; 4 * n],
            opacities: vec![0.0; n],
            sh: vec![0.0; 3 * MAX_COEFFS * n],
        }
    }

    /// Number of Gaussians covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the container is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total gradient bytes (f32).
    #[inline]
    pub fn total_bytes(&self) -> usize {
        self.len * GaussianParams::PARAMS_PER_GAUSSIAN * 4
    }

    /// Immutable flat view of one gradient group.
    pub fn group(&self, g: ParamGroup) -> &[f32] {
        match g {
            ParamGroup::Means => &self.means,
            ParamGroup::LogScales => &self.log_scales,
            ParamGroup::Quats => &self.quats,
            ParamGroup::Opacities => &self.opacities,
            ParamGroup::Sh => &self.sh,
        }
    }

    /// Mutable flat view of one gradient group.
    pub fn group_mut(&mut self, g: ParamGroup) -> &mut [f32] {
        self.group_vec_mut(g)
    }

    /// The vector behind one gradient group, for the methods that grow all
    /// five together with `len`.
    fn group_vec_mut(&mut self, g: ParamGroup) -> &mut Vec<f32> {
        match g {
            ParamGroup::Means => &mut self.means,
            ParamGroup::LogScales => &mut self.log_scales,
            ParamGroup::Quats => &mut self.quats,
            ParamGroup::Opacities => &mut self.opacities,
            ParamGroup::Sh => &mut self.sh,
        }
    }

    /// Adds another gradient container element-wise.
    ///
    /// Used when an image is split into sub-regions (balance-aware image
    /// splitting) and the sub-gradients must be aggregated before the
    /// optimizer step.
    ///
    /// # Panics
    ///
    /// Panics if the two containers cover different numbers of Gaussians.
    pub fn accumulate(&mut self, other: &GaussianGrads) {
        assert_eq!(self.len, other.len);
        for g in ParamGroup::ALL {
            let dst = self.group_mut(g);
            let src = other.group(g);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += *s;
            }
        }
    }

    /// Accumulates gradient entries for gaussian `dst_idx` of `self` from
    /// gaussian `src_idx` of `other`.
    pub fn accumulate_one(&mut self, dst_idx: usize, other: &GaussianGrads, src_idx: usize) {
        for g in ParamGroup::ALL {
            let dim = g.dim();
            let dst = self.group_mut(g);
            let src = other.group(g);
            for k in 0..dim {
                dst[dst_idx * dim + k] += src[src_idx * dim + k];
            }
        }
    }

    /// Reserves room for `additional` more entries in every group.
    fn reserve(&mut self, additional: usize) {
        for g in ParamGroup::ALL {
            self.group_vec_mut(g).reserve(additional * g.dim());
        }
    }

    /// Appends one all-zero entry (amortised growth) and returns its index.
    fn push_zero(&mut self) -> usize {
        for g in ParamGroup::ALL {
            let v = self.group_vec_mut(g);
            v.resize(v.len() + g.dim(), 0.0);
        }
        self.len += 1;
        self.len - 1
    }

    /// L2 norm of the mean-position gradient of Gaussian `i` (used by the
    /// densification heuristic).
    pub fn mean_grad_norm(&self, i: usize) -> f32 {
        let gx = self.means[3 * i];
        let gy = self.means[3 * i + 1];
        let gz = self.means[3 * i + 2];
        (gx * gx + gy * gy + gz * gz).sqrt()
    }

    /// Returns `true` if every gradient entry for Gaussian `i` is exactly zero.
    pub fn is_zero_for(&self, i: usize) -> bool {
        ParamGroup::ALL.iter().all(|&g| {
            let dim = g.dim();
            self.group(g)[i * dim..(i + 1) * dim]
                .iter()
                .all(|&v| v == 0.0)
        })
    }
}

/// Gradients for a subset of Gaussians, keyed by their global indices.
///
/// This is what a forward/backward pass over the *visible* Gaussians
/// produces: `grads` is densely packed over `ids.len()` entries and `ids[k]`
/// gives the global index of packed entry `k`. GS-Scale ships exactly this
/// structure from the GPU back to host memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseGrads {
    /// Global Gaussian indices, in the same order as the packed gradients.
    pub ids: Vec<u32>,
    /// Densely packed gradients, `grads.len() == ids.len()`.
    pub grads: GaussianGrads,
}

impl SparseGrads {
    /// Creates an empty sparse gradient set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of Gaussians with (potentially) non-zero gradients.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether there are no gradient entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Bytes occupied by the packed gradients (excluding the id list).
    pub fn grad_bytes(&self) -> usize {
        self.grads.total_bytes()
    }

    /// Expands to a dense gradient container over `total` Gaussians.
    pub fn to_dense(&self, total: usize) -> GaussianGrads {
        let mut dense = GaussianGrads::zeros(total);
        for (k, &id) in self.ids.iter().enumerate() {
            dense.accumulate_one(id as usize, &self.grads, k);
        }
        dense
    }

    /// Merges another sparse gradient set into this one, summing entries for
    /// Gaussians present in both.
    ///
    /// The result lists this set's ids first, then the ids only `other` has
    /// in the order `other` first names them; an id `other` names twice is
    /// summed into one entry. The cost is linear in `self.len() +
    /// other.len()`.
    pub fn merge(&mut self, other: &SparseGrads) {
        use std::collections::HashMap;
        let mut index: HashMap<u32, usize> = HashMap::with_capacity(self.len() + other.len());
        index.extend(self.ids.iter().enumerate().map(|(k, &id)| (id, k)));
        self.ids.reserve(other.len());
        self.grads.reserve(other.len());
        for (k, &id) in other.ids.iter().enumerate() {
            // A new entry is a zero row that `other`'s row is added to, so
            // merging into an empty set is one pass of row copies.
            let dst = *index.entry(id).or_insert_with(|| {
                self.ids.push(id);
                self.grads.push_zero()
            });
            self.grads.accumulate_one(dst, &other.grads, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn sample_params(n: usize) -> GaussianParams {
        let mut p = GaussianParams::with_capacity(n);
        for i in 0..n {
            let f = i as f32;
            p.push_isotropic(
                Vec3::new(f, -f, 2.0 * f + 1.0),
                0.1 + 0.01 * f,
                [0.1 * f % 1.0, 0.5, 0.9],
                0.7,
            );
        }
        p
    }

    #[test]
    fn parameter_counts_match_paper() {
        assert_eq!(GaussianParams::PARAMS_PER_GAUSSIAN, 59);
        assert_eq!(GaussianParams::GEOMETRIC_PARAMS, 10);
        assert_eq!(GaussianParams::NON_GEOMETRIC_PARAMS, 49);
        let dims: usize = ParamGroup::ALL.iter().map(|g| g.dim()).sum();
        assert_eq!(dims, 59);
    }

    #[test]
    fn geometric_split_matches_17_percent() {
        // The paper quotes ~17% GPU memory overhead for keeping geometric
        // attributes resident (10 / 59).
        let frac =
            GaussianParams::GEOMETRIC_PARAMS as f32 / GaussianParams::PARAMS_PER_GAUSSIAN as f32;
        assert!((frac - 0.169).abs() < 0.01);
    }

    #[test]
    fn push_isotropic_roundtrips_color_and_opacity() {
        let mut p = GaussianParams::new();
        p.push_isotropic(Vec3::new(1.0, 2.0, 3.0), 0.5, [0.8, 0.4, 0.1], 0.75);
        assert_eq!(p.len(), 1);
        assert!((p.opacity(0) - 0.75).abs() < 1e-4);
        let sh = p.sh_triples(0, 0);
        let rgb_back = [
            sh[0][0] * SH_DC + 0.5,
            sh[0][1] * SH_DC + 0.5,
            sh[0][2] * SH_DC + 0.5,
        ];
        assert!((rgb_back[0] - 0.8).abs() < 1e-5);
        assert!((rgb_back[1] - 0.4).abs() < 1e-5);
        assert!((rgb_back[2] - 0.1).abs() < 1e-5);
        assert!((p.scale(0).x - 0.5).abs() < 1e-5);
    }

    #[test]
    fn bytes_accounting_is_consistent() {
        let p = sample_params(10);
        assert_eq!(p.total_bytes(), 10 * 59 * 4);
        assert_eq!(
            p.geometric_bytes() + p.non_geometric_bytes(),
            p.total_bytes()
        );
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut p = sample_params(8);
        let ids = vec![1u32, 4, 6];
        let mut sub = p.gather(&ids);
        // Modify the gathered subset then scatter back.
        for i in 0..sub.len() {
            sub.set_mean(i, sub.mean(i) + Vec3::splat(10.0));
        }
        p.scatter_from(&ids, &sub);
        assert!((p.mean(1).x - 11.0).abs() < 1e-6);
        assert!((p.mean(4).x - 14.0).abs() < 1e-6);
        assert!((p.mean(6).x - 16.0).abs() < 1e-6);
        // Untouched Gaussians keep their values.
        assert!((p.mean(0).x - 0.0).abs() < 1e-6);
        assert!((p.mean(5).x - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_out_of_range_panics() {
        let p = sample_params(3);
        let _ = p.gather(&[5]);
    }

    #[test]
    fn retain_mask_keeps_selected() {
        let mut p = sample_params(5);
        p.retain_mask(&[true, false, true, false, true]);
        assert_eq!(p.len(), 3);
        assert!((p.mean(1).x - 2.0).abs() < 1e-6);
        assert!((p.mean(2).x - 4.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_appends_copy() {
        let mut p = sample_params(3);
        let idx = p.duplicate(1);
        assert_eq!(idx, 3);
        assert_eq!(p.len(), 4);
        assert_eq!(p.mean(1), p.mean(3));
        assert_eq!(p.sh_coeffs(1), p.sh_coeffs(3));
    }

    #[test]
    fn append_concatenates() {
        let mut a = sample_params(2);
        let b = sample_params(3);
        a.append(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.mean(2), b.mean(0));
    }

    #[test]
    fn grads_accumulate_and_norm() {
        let mut g = GaussianGrads::zeros(3);
        g.means[3] = 3.0;
        g.means[4] = 4.0;
        assert!((g.mean_grad_norm(1) - 5.0).abs() < 1e-6);
        let mut g2 = GaussianGrads::zeros(3);
        g2.means[3] = 1.0;
        g.accumulate(&g2);
        assert!((g.means[3] - 4.0).abs() < 1e-6);
        assert!(g.is_zero_for(0));
        assert!(!g.is_zero_for(1));
    }

    #[test]
    fn sparse_to_dense_places_entries() {
        let mut packed = GaussianGrads::zeros(2);
        packed.opacities[0] = 1.0;
        packed.opacities[1] = 2.0;
        let sparse = SparseGrads {
            ids: vec![3, 7],
            grads: packed,
        };
        let dense = sparse.to_dense(10);
        assert_eq!(dense.opacities[3], 1.0);
        assert_eq!(dense.opacities[7], 2.0);
        assert_eq!(dense.opacities[0], 0.0);
    }

    #[test]
    fn sparse_merge_sums_overlapping_ids() {
        let mut a = SparseGrads {
            ids: vec![1, 2],
            grads: {
                let mut g = GaussianGrads::zeros(2);
                g.opacities[0] = 1.0;
                g.opacities[1] = 2.0;
                g
            },
        };
        let b = SparseGrads {
            ids: vec![2, 5],
            grads: {
                let mut g = GaussianGrads::zeros(2);
                g.opacities[0] = 10.0;
                g.opacities[1] = 20.0;
                g
            },
        };
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let dense = a.to_dense(6);
        assert_eq!(dense.opacities[1], 1.0);
        assert_eq!(dense.opacities[2], 12.0);
        assert_eq!(dense.opacities[5], 20.0);
    }

    /// Random packed gradients for `ids` (every group filled).
    fn random_sparse(rng: &mut Rng64, ids: Vec<u32>) -> SparseGrads {
        let mut grads = GaussianGrads::zeros(ids.len());
        for g in ParamGroup::ALL {
            for v in grads.group_mut(g) {
                *v = rng.gen_range(-1.0f32..1.0);
            }
        }
        SparseGrads { ids, grads }
    }

    /// The merge contract spelled out one entry at a time: this set's
    /// entries, then a zero entry per id `other` names first, with `other`'s
    /// rows added in order.
    fn naive_merge(a: &SparseGrads, b: &SparseGrads) -> SparseGrads {
        let mut ids = a.ids.clone();
        for &id in &b.ids {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut grads = GaussianGrads::zeros(ids.len());
        for k in 0..a.len() {
            grads.accumulate_one(k, &a.grads, k);
        }
        for (k, id) in b.ids.iter().enumerate() {
            let dst = ids.iter().position(|x| x == id).unwrap();
            grads.accumulate_one(dst, &b.grads, k);
        }
        SparseGrads { ids, grads }
    }

    fn bits(g: &GaussianGrads) -> Vec<u32> {
        ParamGroup::ALL
            .iter()
            .flat_map(|&grp| g.group(grp).iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn sparse_merge_matches_naive_reference() {
        const TOTAL: u32 = 40;
        let mut rng = Rng64::seed_from_u64(0x6d65_7267);
        for round in 0..200 {
            // `a` has distinct ids (it is itself the result of merges);
            // `b` may name an id twice. Either may be empty.
            let mut a_ids: Vec<u32> = (0..TOTAL).filter(|_| rng.gen_bool(0.3)).collect();
            for i in (1..a_ids.len()).rev() {
                a_ids.swap(i, rng.gen_range(0..i + 1));
            }
            let b_len = rng.gen_range(0usize..16);
            let mut b_ids: Vec<u32> = (0..b_len).map(|_| rng.gen_range(0..TOTAL)).collect();
            match round % 10 {
                0 => a_ids.clear(),
                1 => b_ids.clear(),
                _ => {}
            }
            let a = random_sparse(&mut rng, a_ids);
            let b = random_sparse(&mut rng, b_ids);

            let expected = naive_merge(&a, &b);
            let mut merged = a.clone();
            merged.merge(&b);
            assert_eq!(merged.ids, expected.ids, "round {round}");
            assert_eq!(merged.grads.len(), merged.ids.len());
            assert_eq!(
                bits(&merged.to_dense(TOTAL as usize)),
                bits(&expected.to_dense(TOTAL as usize)),
                "round {round}"
            );
        }
    }

    #[test]
    fn sparse_merge_is_linear_at_scale() {
        // Not a timing test: a merge that copied the packed gradients once
        // per appended id would move ~2 TB here and never finish.
        const N: u32 = 100_000;
        let mut low = SparseGrads {
            ids: (0..N).collect(),
            grads: GaussianGrads::zeros(N as usize),
        };
        let mut high = SparseGrads {
            ids: (N..2 * N).collect(),
            grads: GaussianGrads::zeros(N as usize),
        };
        low.grads.opacities[7] = 1.5;
        high.grads.opacities[7] = 2.5;
        low.merge(&high);
        assert_eq!(low.len(), 2 * N as usize);
        assert_eq!(low.grads.len(), 2 * N as usize);
        assert!(low.ids.iter().copied().eq(0..2 * N));
        assert_eq!(low.grads.opacities[7], 1.5);
        assert_eq!(low.grads.opacities[N as usize + 7], 2.5);
        assert_eq!(low.grads.sh.len(), 2 * N as usize * 48);
    }

    #[test]
    fn group_views_have_expected_lengths() {
        let p = sample_params(4);
        for g in ParamGroup::ALL {
            assert_eq!(p.group(g).len(), 4 * g.dim(), "group {:?}", g);
        }
    }
}
