//! What distinguishes the systems: where each keeps its bytes and when its
//! work runs. One model (the private `SystemModel`) turns what a step did,
//! a [`StepRecord`], into a system's memory charges and execution timeline
//! on a platform; [`crate::OffloadTrainer`] runs it on every step and
//! [`crate::replay`] on a recorded run. The functional trainers run on
//! small scenes, so the ratios between systems are what carry over;
//! [`estimate_gpu_memory`] evaluates the same charges at paper scale (tens
//! of millions of Gaussians, Figures 1, 3, 11–13, 15 and 16).

use std::collections::BTreeMap;

use gs_core::error::Result;
use gs_core::gaussian::GaussianParams;
use gs_optim::StepStats;
use gs_platform::{
    kernel_time, MemoryCategory, MemoryPool, PlatformSpec, Stream, TimelineSim, TransferModel, Work,
};
use gs_render::cost::{self as render_cost, WorkEstimate};
use gs_render::pipeline::RenderStats;

use crate::stats::IterationStats;

/// A training system of the paper's evaluation, the only description of one
/// that [`crate::OffloadTrainer::new`] takes. Two facts are read from it:
/// where the system keeps its buffers, and whether its host optimizer
/// defers (GS-Scale only).
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

/// Where a system keeps its training state: what [`SystemModel`] charges
/// to GPU and host memory and which timeline events it schedules. Derived
/// from the system, never set on its own.
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
    /// Where `kind` keeps its buffers.
    pub(crate) fn for_system(kind: SystemKind) -> Self {
        match kind {
            SystemKind::GpuOnly => Placement::AllResident,
            SystemKind::BaselineOffload => Placement::Host,
            SystemKind::GsScaleNoDeferred | SystemKind::GsScale => Placement::GeometricResident,
        }
    }

    /// Whether the system forwards parameters (its CPU optimizer overlaps
    /// the GPU passes instead of preceding the next one) and image-splits
    /// demanding views. Both hold exactly under selective offloading, in
    /// every system of the paper's evaluation.
    pub(crate) fn forwards_and_splits(self) -> bool {
        self == Placement::GeometricResident
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

/// What one training step did, as far as the system model reads it. The
/// step's arithmetic is the same under every system, so a record made by
/// one system models the step under any other ([`crate::replay`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Photometric loss of the step.
    pub(crate) loss: f32,
    /// Gaussians in the model during the step.
    pub(crate) gaussians: usize,
    /// Gaussians inside the view's frustum.
    pub(crate) active: usize,
    /// Work counters of the forward/backward pass over the whole view.
    pub(crate) whole: RenderStats,
    /// Work counters of the view's two balanced halves, when its active
    /// ratio exceeded `mem_limit` under a system that image-splits.
    pub(crate) halves: Option<[RenderStats; 2]>,
    /// Gaussians the deferred update updated, under the one system that
    /// defers (every other host optimizer updates all of them).
    pub(crate) deferred_updates: Option<usize>,
}

/// One system on one platform: the memory pools a step charges and the
/// timeline it schedules, both read off a [`StepRecord`].
#[derive(Debug, Clone)]
pub(crate) struct SystemModel {
    placement: Placement,
    defers: bool,
    pub(crate) platform: PlatformSpec,
    gpu_pool: MemoryPool,
    host_pool: MemoryPool,
}

impl SystemModel {
    /// The model of `kind` on `platform`, with nothing charged yet.
    pub(crate) fn new(kind: SystemKind, platform: PlatformSpec) -> Self {
        Self {
            placement: Placement::for_system(kind),
            defers: kind == SystemKind::GsScale,
            gpu_pool: MemoryPool::new("gpu", platform.gpu.mem_capacity),
            host_pool: MemoryPool::new("host", platform.cpu.mem_capacity),
            platform,
        }
    }

    /// GPU memory charged so far.
    pub(crate) fn gpu_pool(&self) -> &MemoryPool {
        &self.gpu_pool
    }

    /// Host memory charged so far.
    pub(crate) fn host_pool(&self) -> &MemoryPool {
        &self.host_pool
    }

    /// Whether the system image-splits a view whose active ratio exceeds
    /// `mem_limit`.
    pub(crate) fn splits(&self) -> bool {
        self.placement.forwards_and_splits()
    }

    /// Re-charges the persistent state for a model of `n` Gaussians, host
    /// memory first; out of memory if it no longer fits.
    pub(crate) fn resize(&mut self, n: usize) -> Result<()> {
        for (category, bytes) in self.placement.persistent_host(n, self.defers) {
            self.host_pool.set(category, bytes)?;
        }
        for (category, bytes) in self.placement.persistent_gpu(n) {
            self.gpu_pool.set(category, bytes)?;
        }
        Ok(())
    }

    /// The forward/backward passes the system runs for `record`: the two
    /// halves of a split view, or the whole view.
    fn passes<'r>(&self, record: &'r StepRecord) -> &'r [RenderStats] {
        match &record.halves {
            Some(halves) if self.splits() => halves,
            _ => std::slice::from_ref(&record.whole),
        }
    }

    /// Charges each pass's transient GPU memory and releases it; out of
    /// memory at the first pass that does not fit. All or nothing: that
    /// pass leaves no charge behind for the steps after it.
    pub(crate) fn charge(&mut self, record: &StepRecord) -> Result<()> {
        let charged = self.passes(record).iter().try_for_each(|stats| {
            let transient = self
                .placement
                .transient_gpu(stats.num_input, stats.num_pixels);
            self.gpu_pool.alloc_all(&transient)?;
            for (category, bytes) in transient {
                self.gpu_pool.free(category, bytes);
            }
            Ok(())
        });
        let persistent = self.placement.persistent_gpu(record.gaussians);
        debug_assert_eq!(
            self.gpu_pool.used_total(),
            persistent.iter().map(|&(_, bytes)| bytes).sum::<u64>(),
            "GPU memory left charged"
        );
        charged
    }

    /// Schedules `record` on the system's execution timeline and returns
    /// the step's statistics.
    pub(crate) fn schedule(&self, record: &StepRecord) -> IterationStats {
        let (gpu, cpu) = (&self.platform.gpu, &self.platform.cpu);
        let (total, active) = (record.gaussians, record.active);
        let transfer = TransferModel::new(self.platform.pcie_bandwidth);
        let mut sim = TimelineSim::new();

        // Frustum culling over all Gaussians.
        let (cull_stream, cull_label, cull_time) = if self.placement == Placement::Host {
            // Eager-mode tensor ops on the CPU: each projection intermediate
            // materializes, so the traffic is many passes over the tensors.
            let work = work_from_estimate(&render_cost::cull_cost_cpu_eager(total, active));
            let time = kernel_time(&work, cpu, false);
            (Stream::CpuCompute, "cpu_frustum_cull", time)
        } else {
            // Fused culling kernel over the GPU-resident geometric attributes.
            let work = work_from_estimate(&render_cost::cull_cost(total, active));
            let time = kernel_time(&work, gpu, true);
            (Stream::GpuCompute, "frustum_cull", time)
        };
        let cull_event = sim.schedule(cull_stream, cull_label, cull_time, &[]);

        // H2D staging (chunked), forward/backward and D2H gradients per
        // pass. Under parameter forwarding the H2D copy does not wait for
        // the (lazy) CPU optimizer; in the baseline it must wait for the
        // full CPU update, which is modelled by the optimizer event being
        // scheduled before the next iteration starts (serial CPU stream).
        // With everything resident nothing transfers, and the pass waits
        // only for the cull.
        let passes = self.passes(record);
        let (mut last_gpu_event, mut last_d2h_event) = (cull_event, cull_event);
        let transfers = self.placement.transfers();
        for stats in passes {
            let [(_, staged_param_bytes), (_, grad_bytes), _] = self
                .placement
                .transient_gpu(stats.num_input, stats.num_pixels);
            let staged_event = if transfers {
                let h2d_time = transfer.chunked_transfer_time(staged_param_bytes);
                sim.schedule(Stream::HostToDevice, "h2d_params", h2d_time, &[cull_event])
            } else {
                cull_event
            };
            let fwd_work = work_from_estimate(&stats.forward_work());
            let bwd_work = work_from_estimate(&stats.backward_work());
            let fwd = sim.schedule(
                Stream::GpuCompute,
                "gpu_fwd_bwd",
                kernel_time(&fwd_work, gpu, true) + kernel_time(&bwd_work, gpu, true),
                &[staged_event, last_gpu_event],
            );
            if transfers {
                let d2h_time = transfer.transfer_time(grad_bytes);
                last_d2h_event = sim.schedule(Stream::DeviceToHost, "d2h_grads", d2h_time, &[fwd]);
            }
            last_gpu_event = fwd;
        }

        // Optimizer updates: dense Adam over the geometric columns, and the
        // deferred update or the same dense Adam over the others.
        let geom_stats = StepStats::dense(total, GaussianParams::GEOMETRIC_PARAMS);
        let host_dims = GaussianParams::NON_GEOMETRIC_PARAMS;
        let cpu_stats = if self.defers {
            let updated = record
                .deferred_updates
                .expect("a deferring system's step records its deferred update");
            StepStats::deferred(updated, total, host_dims)
        } else {
            StepStats::dense(total, host_dims)
        };
        // Geometric state on the host can only be updated after the gradients
        // have been copied back; on the GPU its update follows the backward
        // pass directly. With everything resident, one GPU optimizer updates
        // all 59 columns.
        let (label, after, geom_stats) = match self.placement {
            Placement::Host => ("cpu_optimizer", last_d2h_event, geom_stats),
            Placement::GeometricResident => ("msq_optimizer", last_gpu_event, geom_stats),
            Placement::AllResident => ("optimizer", last_gpu_event, geom_stats.combine(&cpu_stats)),
        };
        let geom_work = work_from_step(&geom_stats, false);
        if self.placement == Placement::Host {
            let time = kernel_time(&geom_work, cpu, false);
            sim.schedule(Stream::CpuCompute, label, time, &[after]);
        } else {
            let time = kernel_time(&geom_work, gpu, true);
            sim.schedule(Stream::GpuCompute, label, time, &[after]);
        }
        if transfers {
            let cpu_work = work_from_step(&cpu_stats, self.defers);
            let cpu_opt_time = kernel_time(&cpu_work, cpu, false);
            // Pipelined under parameter forwarding: the CPU update runs
            // concurrently with the GPU work of this iteration (steady-state
            // model of Figure 9c/9d). Only a small "forwarding" slice —
            // updating the staged subset — must precede the H2D copy, which
            // is already charged inside the H2D latency, so the lazy update
            // has no GPU-side dependents. Serial otherwise: the CPU update
            // follows the backward pass and the gradient transfer back to
            // host memory.
            let deps = (!self.placement.forwards_and_splits()).then_some(last_d2h_event);
            sim.schedule(
                Stream::CpuCompute,
                "cpu_optimizer",
                cpu_opt_time,
                deps.as_slice(),
            );
        }

        let mut breakdown = BTreeMap::new();
        sim.accumulate_breakdown(&mut breakdown);
        IterationStats {
            loss: record.loss,
            active_gaussians: active,
            total_gaussians: total,
            sim_time_s: sim.makespan(),
            phase_breakdown: breakdown,
            image_split: passes.len() == 2,
            optimizer_updates: cpu_stats.updated_gaussians,
        }
    }
}

/// A renderer work estimate as platform work.
fn work_from_estimate(e: &WorkEstimate) -> Work {
    Work::new(e.flops, e.total_bytes())
}

/// An optimizer step's traffic as platform work; `random_access` marks it
/// scattered (the deferred update touches an arbitrary subset of Gaussians,
/// which matters on the NUMA server).
fn work_from_step(s: &StepStats, random_access: bool) -> Work {
    let w = Work::new(s.flops, s.total_bytes());
    if random_access {
        w.with_random_access()
    } else {
        w
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
    let split = placement.forwards_and_splits() && active_ratio > mem_limit;
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
    fn conversions_preserve_totals() {
        let e = WorkEstimate::new(100.0, 30.0, 20.0);
        let w = work_from_estimate(&e);
        assert_eq!(w.flops, 100.0);
        assert_eq!(w.bytes, 50.0);
        assert!(!w.random_access);

        let s = StepStats {
            updated_gaussians: 1,
            total_gaussians: 2,
            bytes_read: 8.0,
            bytes_written: 4.0,
            flops: 16.0,
        };
        let w2 = work_from_step(&s, true);
        assert_eq!(w2.bytes, 12.0);
        assert!(w2.random_access);
    }

    /// The NUMA server prices the deferred update's scattered rows as
    /// random access; every other test's platform is a laptop, where
    /// random access costs nothing extra.
    #[test]
    fn server_timeline_prices_the_deferred_update_as_random_access() {
        let (n, updated) = (100_000, 6_000);
        let record = StepRecord {
            loss: 0.0,
            gaussians: n,
            active: 5_000,
            whole: RenderStats {
                num_input: 5_000,
                num_splats: 4_000,
                num_pairs: 40_000,
                num_pixels: 32 * 24,
            },
            halves: None,
            deferred_updates: Some(updated),
        };
        let server = PlatformSpec::server_h100();
        let stats = SystemModel::new(SystemKind::GsScale, server.clone()).schedule(&record);
        let deferred = StepStats::deferred(updated, n, GaussianParams::NON_GEOMETRIC_PARAMS);
        let priced = |random_access| {
            kernel_time(
                &work_from_step(&deferred, random_access),
                &server.cpu,
                false,
            )
        };
        let cpu_optimizer = stats.phase_breakdown["cpu_optimizer"];
        assert_eq!(cpu_optimizer, priced(true));
        assert!(cpu_optimizer > priced(false));
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
        // The baseline never image-splits, so `mem_limit` moves none of its
        // terms.
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
