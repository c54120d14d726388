//! Where each system's bytes live. The trainer charges its memory pools
//! through the placement here: what a system keeps resident between steps
//! and what each forward/backward pass adds. The functional trainers run on
//! small scenes, so their measured usage is small and the ratios between
//! systems are what carry over; [`estimate_gpu_memory`] evaluates the
//! trainer's charges at paper scale (tens of millions of Gaussians, Figures
//! 1, 3, 11–13, 15 and 16) for one analytic pass.

use gs_core::gaussian::GaussianParams;
use gs_platform::MemoryCategory;

use crate::offload::OffloadOptions;

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
const ACTIVATION_BYTES_PER_PIXEL: u64 = 1100;
/// Bytes of transient per-splat state during the forward/backward pass.
const ACTIVATION_BYTES_PER_ACTIVE_GAUSSIAN: u64 = 48;

/// Where a system keeps its training state: what the step charges to GPU
/// and host memory and which timeline events it schedules. Derived from the
/// system, never set on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Everything on the host: each pass stages its Gaussians' full rows
    /// and copies their gradients back; culling and both optimizers run on
    /// the CPU (baseline offloading).
    Host,
    /// Selective offloading: the geometric columns and their Adam state stay
    /// on the GPU, where culling and their update run; each pass stages the
    /// non-geometric columns.
    GeometricResident,
    /// GPU-only: everything, gradients included, stays on the GPU; nothing
    /// transfers and one GPU optimizer updates all 59 columns.
    AllResident,
}

impl Placement {
    /// Where `kind` keeps its buffers: GPU-only keeps them all on the GPU,
    /// every other system where its options put them.
    pub(crate) fn for_system(kind: SystemKind) -> Self {
        if kind == SystemKind::GpuOnly {
            Placement::AllResident
        } else {
            Self::offloaded(&OffloadOptions::for_system(kind))
        }
    }

    /// The host placement the options ask for.
    pub(crate) fn offloaded(options: &OffloadOptions) -> Self {
        if options.selective_offloading {
            Placement::GeometricResident
        } else {
            Placement::Host
        }
    }

    /// Whether each pass copies its Gaussians to the GPU and their
    /// gradients back.
    pub(crate) fn transfers(self) -> bool {
        self != Placement::AllResident
    }

    /// What the GPU holds between steps for `n` Gaussians.
    pub(crate) fn persistent_gpu(self, n: usize) -> [(MemoryCategory, u64); 4] {
        let all = column_bytes(n, GaussianParams::PARAMS_PER_GAUSSIAN);
        let geometric = column_bytes(n, GaussianParams::GEOMETRIC_PARAMS);
        let (params, geometric, grads, state) = match self {
            Placement::Host => (0, 0, 0, 0),
            Placement::GeometricResident => (0, geometric, 0, 2 * geometric),
            Placement::AllResident => (all, 0, all, 2 * all),
        };
        [
            (MemoryCategory::Parameters, params),
            (MemoryCategory::GeometricParameters, geometric),
            (MemoryCategory::Gradients, grads),
            (MemoryCategory::OptimizerState, state),
        ]
    }

    /// What the host holds for `n` Gaussians: under offloading, the full
    /// parameters and Adam state, plus one defer counter byte per Gaussian
    /// under the deferred update; nothing when everything is on the GPU.
    pub(crate) fn persistent_host(self, n: usize, deferred: bool) -> [(MemoryCategory, u64); 2] {
        let on_host = if self.transfers() { n } else { 0 };
        let params = column_bytes(on_host, GaussianParams::PARAMS_PER_GAUSSIAN);
        let counters = if deferred { on_host as u64 } else { 0 };
        [
            (MemoryCategory::Parameters, params),
            (MemoryCategory::OptimizerState, 2 * params + counters),
        ]
    }

    /// What one forward/backward pass over `active` Gaussians and `pixels`
    /// pixels adds: the staged columns of its input Gaussians (the bytes
    /// copied host-to-device), their gradients (copied back) and the
    /// activations.
    pub(crate) fn transient_gpu(self, active: usize, pixels: usize) -> [(MemoryCategory, u64); 3] {
        let all = GaussianParams::PARAMS_PER_GAUSSIAN;
        let (staged, grads) = match self {
            Placement::Host => (all, all),
            Placement::GeometricResident => (GaussianParams::NON_GEOMETRIC_PARAMS, all),
            Placement::AllResident => (0, 0),
        };
        let activations = ACTIVATION_BYTES_PER_PIXEL * pixels as u64
            + ACTIVATION_BYTES_PER_ACTIVE_GAUSSIAN * active as u64;
        [
            (MemoryCategory::Parameters, column_bytes(active, staged)),
            (MemoryCategory::Gradients, column_bytes(active, grads)),
            (MemoryCategory::Activations, activations),
        ]
    }
}

/// Bytes of `columns` f32 columns over `n` Gaussians.
fn column_bytes(n: usize, columns: usize) -> u64 {
    n as u64 * columns as u64 * 4
}

/// Estimates peak GPU memory for `system` training a scene with
/// `num_gaussians` Gaussians, a per-view active ratio of `active_ratio`
/// (worst-case view, i.e. the ratio that bounds peak memory), and images of
/// `pixels` pixels: the system's persistent charge plus one pass's transient
/// charge, the sum the trainer's GPU pool peaks at.
///
/// The pass is analytic. A system that image-splits models a view whose
/// active ratio exceeds `mem_limit` as two passes, each over `mem_limit` of
/// the Gaussians and half the pixels (pass 1.0 to disable); every other view
/// is one pass over all of it.
pub fn estimate_gpu_memory(
    system: SystemKind,
    num_gaussians: usize,
    active_ratio: f64,
    pixels: usize,
    mem_limit: f64,
) -> MemoryEstimate {
    let placement = Placement::for_system(system);
    let split = OffloadOptions::for_system(system).image_splitting && active_ratio > mem_limit;
    let (ratio, pixels) = if split {
        (mem_limit, pixels / 2)
    } else {
        (active_ratio, pixels)
    };
    // The pass's Gaussian count rounds up for the staging systems and down
    // for GPU-only, whose count sizes only its activations; the figures and
    // `estimates_match_golden_fingerprint` pin both.
    let exact = num_gaussians as f64 * ratio;
    let active = if placement.transfers() {
        exact.ceil()
    } else {
        exact
    } as usize;

    let [(_, params), (_, geometric), (_, grads), (_, state)] =
        placement.persistent_gpu(num_gaussians);
    let [(_, staged), (_, staged_grads), (_, activations)] =
        placement.transient_gpu(active, pixels);
    MemoryEstimate {
        parameters: params + geometric + staged,
        gradients: grads + staged_grads,
        optimizer_state: state,
        activations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_scene::ScenePreset;

    const M: usize = 1_000_000;

    /// FNV-1a over every field of every estimate the figures and
    /// `tests/memory_and_scaling.rs` can ask for: each preset at both paper
    /// sizes × every system × `mem_limit` 0.1, 0.3 and 1.0 × the preset's
    /// resolution and 3840 × 2160, then every count the bisection for the
    /// largest GPU-only and GS-Scale Rubble that fits 8 GB and 16 GB tries.
    #[test]
    fn estimates_match_golden_fingerprint() {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut estimate = |kind, n, ratio, pixels, mem_limit| {
            let e = estimate_gpu_memory(kind, n, ratio, pixels, mem_limit);
            for field in [e.parameters, e.gradients, e.optimizer_state, e.activations] {
                for byte in field.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            e.total()
        };
        for preset in ScenePreset::ALL {
            for n in [preset.paper_gaussians, preset.paper_gaussians_small] {
                for kind in SystemKind::ALL {
                    for mem_limit in [0.1, 0.3, 1.0] {
                        for pixels in [preset.width * preset.height, 3840 * 2160] {
                            estimate(kind, n, preset.active_ratio, pixels, mem_limit);
                        }
                    }
                }
            }
        }
        let rubble = ScenePreset::RUBBLE;
        for capacity in [8 << 30, 16 << 30] {
            for kind in [SystemKind::GpuOnly, SystemKind::GsScale] {
                let (mut lo, mut hi) = (10_000_usize, 300_000_000_usize);
                for _ in 0..48 {
                    let mid = (lo + hi) / 2;
                    let pixels = rubble.width * rubble.height;
                    if estimate(kind, mid, rubble.active_ratio, pixels, 0.3) <= capacity {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
        }
        assert_eq!(hash, 0x2f7d_afd5_766a_05b3);
    }

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
        let all = column_bytes(10 * M, GaussianParams::PARAMS_PER_GAUSSIAN);
        assert!(est.parameters < all / 5);
    }

    #[test]
    fn selective_offloading_overhead_is_about_17_percent() {
        // Keeping the geometric attributes resident costs 10 of the 59
        // columns, ≈ 17 % of the full parameter footprint; only the GS-Scale
        // kinds keep them there.
        let resident_fraction =
            GaussianParams::GEOMETRIC_PARAMS as f64 / GaussianParams::PARAMS_PER_GAUSSIAN as f64;
        assert!((resident_fraction - 0.169).abs() < 0.01);
        for (kind, placement) in [
            (SystemKind::GsScale, Placement::GeometricResident),
            (SystemKind::GsScaleNoDeferred, Placement::GeometricResident),
            (SystemKind::BaselineOffload, Placement::Host),
            (SystemKind::GpuOnly, Placement::AllResident),
        ] {
            assert_eq!(Placement::for_system(kind), placement, "{kind:?}");
        }
    }
}
