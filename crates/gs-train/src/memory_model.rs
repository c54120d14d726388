//! Closed-form GPU memory estimates at paper scale.
//!
//! The functional trainers in this crate run on deliberately small scenes
//! (tens of thousands of Gaussians), so their *measured* pool usage is small;
//! the ratios between systems are what carry over. To also report absolute
//! numbers at the paper's scale (tens of millions of Gaussians, Figures 3b
//! and 12), this module provides the same accounting as a closed-form
//! function of the Gaussian count, the per-view active ratio and the image
//! resolution.

use gs_core::gaussian::GaussianParams;

/// Which training system the estimate is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Everything resident on the GPU (no offloading).
    GpuOnly,
    /// Naive host offloading: parameters and optimizer state on the host,
    /// visible subset transferred per iteration, CPU frustum culling.
    BaselineOffload,
    /// GS-Scale without the deferred optimizer update.
    GsScaleNoDeferred,
    /// GS-Scale with all optimizations.
    GsScale,
}

impl SystemKind {
    /// All systems in the order used by Figure 11.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::BaselineOffload,
        SystemKind::GsScaleNoDeferred,
        SystemKind::GsScale,
        SystemKind::GpuOnly,
    ];

    /// Display name matching the paper's legend.
    pub const fn name(self) -> &'static str {
        match self {
            SystemKind::GpuOnly => "GPU-Only",
            SystemKind::BaselineOffload => "Baseline GS-Scale",
            SystemKind::GsScaleNoDeferred => "GS-Scale (w/o Deferred Adam)",
            SystemKind::GsScale => "GS-Scale (all optimizations)",
        }
    }

    /// Whether this system keeps all Gaussian state on the GPU.
    pub const fn is_gpu_only(self) -> bool {
        matches!(self, SystemKind::GpuOnly)
    }

    /// Whether this system keeps geometric attributes resident on the GPU
    /// (selective offloading).
    pub const fn selective_offloading(self) -> bool {
        matches!(self, SystemKind::GsScale | SystemKind::GsScaleNoDeferred)
    }
}

/// Estimated GPU memory, broken down the way Figure 3b reports it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryEstimate {
    /// Bytes of Gaussian parameters resident or staged on the GPU.
    pub parameters: u64,
    /// Bytes of gradients on the GPU.
    pub gradients: u64,
    /// Bytes of optimizer state on the GPU.
    pub optimizer_state: u64,
    /// Bytes of activations (scales with rendered pixels and active splats).
    pub activations: u64,
}

impl MemoryEstimate {
    /// Total estimated bytes.
    pub fn total(&self) -> u64 {
        self.parameters + self.gradients + self.optimizer_state + self.activations
    }

    /// Fraction of the total taken by each component, in the order
    /// (parameters, gradients, optimizer state, activations).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total().max(1) as f64;
        [
            self.parameters as f64 / t,
            self.gradients as f64 / t,
            self.optimizer_state as f64 / t,
            self.activations as f64 / t,
        ]
    }
}

/// Bytes of activation memory per rendered pixel (calibrated so that the
/// activation share of GPU memory matches Figure 3b: ~10 % at 1K resolution
/// for a ~20 M Gaussian scene, growing with resolution).
pub const ACTIVATION_BYTES_PER_PIXEL: u64 = 1100;
/// Bytes of transient per-splat state during the forward/backward pass.
pub const ACTIVATION_BYTES_PER_ACTIVE_GAUSSIAN: u64 = 48;

const PARAM_BYTES: u64 = (GaussianParams::PARAMS_PER_GAUSSIAN * 4) as u64; // 236
const GEOM_BYTES: u64 = (GaussianParams::GEOMETRIC_PARAMS * 4) as u64; // 40
const NON_GEOM_BYTES: u64 = (GaussianParams::NON_GEOMETRIC_PARAMS * 4) as u64; // 196

/// Estimates peak GPU memory for `system` training a scene with
/// `num_gaussians` Gaussians, a per-view active ratio of `active_ratio`
/// (worst-case view, i.e. the ratio that bounds peak memory), and images of
/// `pixels` pixels. `mem_limit` caps the active fraction processed at once
/// for the two GS-Scale kinds, the only ones that image-split (pass 1.0 to
/// disable).
pub fn estimate_gpu_memory(
    system: SystemKind,
    num_gaussians: usize,
    active_ratio: f64,
    pixels: usize,
    mem_limit: f64,
) -> MemoryEstimate {
    let n = num_gaussians as u64;
    let effective_ratio = match system {
        SystemKind::GpuOnly => 1.0,
        SystemKind::BaselineOffload => active_ratio,
        SystemKind::GsScale | SystemKind::GsScaleNoDeferred => active_ratio.min(mem_limit),
    };
    let active = (n as f64 * effective_ratio).ceil() as u64;
    let split_factor = if system.selective_offloading() && active_ratio > mem_limit {
        // Image splitting halves the per-pass pixel count too.
        0.5
    } else {
        1.0
    };
    let act_pixels = (pixels as f64 * split_factor) as u64;

    match system {
        SystemKind::GpuOnly => MemoryEstimate {
            parameters: n * PARAM_BYTES,
            gradients: n * PARAM_BYTES,
            optimizer_state: 2 * n * PARAM_BYTES,
            activations: pixels as u64 * ACTIVATION_BYTES_PER_PIXEL
                + (n as f64 * active_ratio) as u64 * ACTIVATION_BYTES_PER_ACTIVE_GAUSSIAN,
        },
        SystemKind::BaselineOffload => MemoryEstimate {
            parameters: active * PARAM_BYTES,
            gradients: active * PARAM_BYTES,
            optimizer_state: 0,
            activations: act_pixels * ACTIVATION_BYTES_PER_PIXEL
                + active * ACTIVATION_BYTES_PER_ACTIVE_GAUSSIAN,
        },
        SystemKind::GsScale | SystemKind::GsScaleNoDeferred => MemoryEstimate {
            // Geometric attributes of every Gaussian stay resident; only the
            // non-geometric attributes of the active subset are staged.
            parameters: n * GEOM_BYTES + active * NON_GEOM_BYTES,
            gradients: active * PARAM_BYTES,
            // Optimizer state for the geometric attributes lives on the GPU.
            optimizer_state: 2 * n * GEOM_BYTES,
            activations: act_pixels * ACTIVATION_BYTES_PER_PIXEL
                + active * ACTIVATION_BYTES_PER_ACTIVE_GAUSSIAN,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: usize = 1_000_000;

    #[test]
    fn gpu_only_rubble_scale_matches_paper_magnitude() {
        // Paper: ~40M Gaussians on Rubble require about 53 GB.
        let est = estimate_gpu_memory(SystemKind::GpuOnly, 40 * M, 0.126, 1152 * 864, 0.3);
        let gb = est.total() as f64 / 1e9;
        assert!(gb > 35.0 && gb < 60.0, "estimated {gb} GB");
    }

    #[test]
    fn parameters_grads_optstate_dominate_at_1k() {
        // Figure 3b: parameters + gradients + optimizer state are ~90 % of GPU
        // memory at 1K resolution.
        let est = estimate_gpu_memory(SystemKind::GpuOnly, 20 * M, 0.1, 1024 * 680, 0.3);
        let f = est.fractions();
        let activation_share = f[3];
        assert!(
            activation_share < 0.15,
            "activation share {activation_share}"
        );
    }

    #[test]
    fn activation_share_grows_with_resolution() {
        let low = estimate_gpu_memory(SystemKind::GpuOnly, 20 * M, 0.1, 1024 * 680, 0.3);
        let high = estimate_gpu_memory(SystemKind::GpuOnly, 20 * M, 0.1, 4096 * 2720, 0.3);
        assert!(high.fractions()[3] > 2.0 * low.fractions()[3]);
    }

    #[test]
    fn gs_scale_saves_3x_to_6x_over_gpu_only() {
        // Figure 12: 3.3x – 5.6x peak-memory reduction across scenes.
        for (ratio, pixels) in [
            (0.126, 1152 * 864),
            (0.064, 1600 * 1064),
            (0.023, 1600 * 900),
        ] {
            let gpu = estimate_gpu_memory(SystemKind::GpuOnly, 30 * M, ratio, pixels, 0.3);
            let gss = estimate_gpu_memory(SystemKind::GsScale, 30 * M, ratio, pixels, 0.3);
            let saving = gpu.total() as f64 / gss.total() as f64;
            assert!(
                saving > 2.5 && saving < 8.0,
                "saving {saving} for ratio {ratio}"
            );
        }
    }

    #[test]
    fn lower_active_ratio_saves_more() {
        let high = estimate_gpu_memory(SystemKind::GsScale, 30 * M, 0.126, 1152 * 864, 0.3);
        let low = estimate_gpu_memory(SystemKind::GsScale, 30 * M, 0.023, 1152 * 864, 0.3);
        assert!(low.total() < high.total());
    }

    #[test]
    fn mem_limit_caps_gs_scale_memory() {
        let capped = estimate_gpu_memory(SystemKind::GsScale, 30 * M, 0.5, 1152 * 864, 0.1);
        let uncapped = estimate_gpu_memory(SystemKind::GsScale, 30 * M, 0.5, 1152 * 864, 1.0);
        assert!(capped.total() < uncapped.total());
    }

    #[test]
    fn baseline_offload_never_splits_the_image() {
        // The baseline options never image-split, so `mem_limit` moves
        // none of its terms.
        let split = estimate_gpu_memory(SystemKind::BaselineOffload, 10 * M, 0.5, 1152 * 864, 0.3);
        let whole = estimate_gpu_memory(SystemKind::BaselineOffload, 10 * M, 0.5, 1152 * 864, 1.0);
        assert_eq!(split, whole);
    }

    #[test]
    fn baseline_offload_has_no_resident_state() {
        let est = estimate_gpu_memory(SystemKind::BaselineOffload, 10 * M, 0.1, 1024 * 768, 1.0);
        assert_eq!(est.optimizer_state, 0);
        assert!(est.parameters < 10 * M as u64 * PARAM_BYTES / 5);
    }

    #[test]
    fn selective_offloading_overhead_is_about_17_percent() {
        // Keeping the geometric attributes resident costs 10/59 ≈ 17 % of the
        // full parameter footprint.
        let n = 10 * M;
        let resident_fraction = (n as u64 * GEOM_BYTES) as f64 / (n as u64 * PARAM_BYTES) as f64;
        assert!((resident_fraction - 0.169).abs() < 0.01);
        assert!(SystemKind::GsScale.selective_offloading());
        assert!(!SystemKind::BaselineOffload.selective_offloading());
    }
}
