//! Roofline kernel-cost model: turns FLOP counts and memory traffic into
//! execution time on a specific device.
//!
//! A kernel's duration on a device is modelled as
//!
//! ```text
//! time = max(flops / peak_flops, bytes / bandwidth) + launch_overhead
//! ```
//!
//! i.e. the kernel is either compute-bound or memory-bound, plus a fixed
//! per-launch overhead. This is deliberately simple: the paper's analysis of
//! GS-Scale is itself a bandwidth/compute-ratio argument (frustum culling is
//! compute-bound and 52x slower on the laptop CPU; optimizer updates are
//! memory-bound and R_bw times slower on the CPU), and the roofline captures
//! exactly those two effects.

use crate::specs::DeviceSpec;

/// Per-kernel-launch overhead on a GPU, seconds (driver + queueing).
pub const GPU_LAUNCH_OVERHEAD: f64 = 8.0e-6;
/// Per-kernel overhead on a CPU, seconds (thread-pool dispatch).
pub const CPU_LAUNCH_OVERHEAD: f64 = 2.0e-6;

/// Work performed by one kernel: arithmetic plus memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Work {
    /// Floating-point operations.
    pub flops: f64,
    /// Total bytes moved to/from memory.
    pub bytes: f64,
    /// Whether the memory traffic is dominated by random (non-streaming)
    /// accesses, which run at the device's reduced random-access bandwidth
    /// (relevant for the deferred optimizer on the NUMA server).
    pub random_access: bool,
}

impl Work {
    /// Creates a streaming-access work descriptor.
    pub fn new(flops: f64, bytes: f64) -> Self {
        Self {
            flops,
            bytes,
            random_access: false,
        }
    }

    /// Marks the work as random-access dominated.
    pub fn with_random_access(mut self) -> Self {
        self.random_access = true;
        self
    }

    /// Sums two work descriptors (random-access if either is).
    pub fn combine(&self, other: &Work) -> Work {
        Work {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
            random_access: self.random_access || other.random_access,
        }
    }
}

/// An *achieved* roofline measurement: the estimated work of one phase
/// paired with its measured wall-clock time, reduced to achieved FLOP/s,
/// achieved bandwidth, and operational intensity. Where [`kernel_time`]
/// predicts a duration from work, a `RooflinePoint` goes the other way —
/// it reduces a real measurement to roofline coordinates, which is how the
/// serving layer's phase gauges report sampled render phases.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RooflinePoint {
    /// Estimated floating-point operations performed by the phase.
    pub flops: f64,
    /// Estimated bytes moved by the phase.
    pub bytes: f64,
    /// Measured wall-clock duration of the phase, seconds.
    pub seconds: f64,
}

impl RooflinePoint {
    /// Pairs a phase's work estimate with its measured duration.
    pub fn new(work: &Work, seconds: f64) -> Self {
        Self {
            flops: work.flops,
            bytes: work.bytes,
            seconds,
        }
    }

    /// Achieved FLOP/s (0 when no time was measured).
    pub fn achieved_flops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops / self.seconds
        } else {
            0.0
        }
    }

    /// Achieved bytes/s (0 when no time was measured).
    pub fn achieved_bandwidth(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes / self.seconds
        } else {
            0.0
        }
    }

    /// Operational intensity in FLOP/byte (∞-free: 0 when no bytes move).
    pub fn operational_intensity(&self) -> f64 {
        if self.bytes > 0.0 {
            self.flops / self.bytes
        } else {
            0.0
        }
    }
}

/// Computes the execution time of `work` on `device`, in seconds.
///
/// `is_gpu` selects the per-launch overhead constant.
pub fn kernel_time(work: &Work, device: &DeviceSpec, is_gpu: bool) -> f64 {
    let bw = if work.random_access {
        device.effective_random_bandwidth()
    } else {
        device.mem_bandwidth
    };
    let compute = work.flops / device.peak_flops;
    let memory = work.bytes / bw;
    let overhead = if is_gpu {
        GPU_LAUNCH_OVERHEAD
    } else {
        CPU_LAUNCH_OVERHEAD
    };
    compute.max(memory) + overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::PlatformSpec;

    #[test]
    fn compute_bound_kernel_scales_with_flops() {
        let p = PlatformSpec::laptop_rtx4070m();
        let small = Work::new(1.0e9, 1.0e3);
        let large = Work::new(2.0e9, 1.0e3);
        let t1 = kernel_time(&small, &p.gpu, true);
        let t2 = kernel_time(&large, &p.gpu, true);
        assert!(t2 > t1);
        assert!((t2 - GPU_LAUNCH_OVERHEAD) / (t1 - GPU_LAUNCH_OVERHEAD) > 1.9);
    }

    #[test]
    fn memory_bound_kernel_uses_bandwidth() {
        let p = PlatformSpec::laptop_rtx4070m();
        // 1 GB of traffic, negligible flops: time ≈ 1 GB / bandwidth.
        let work = Work::new(1.0, 1.0e9);
        let t = kernel_time(&work, &p.cpu, false);
        let expected = 1.0e9 / p.cpu.mem_bandwidth;
        assert!((t - expected - CPU_LAUNCH_OVERHEAD).abs() < 1e-6);
    }

    #[test]
    fn cull_is_much_slower_on_cpu_than_gpu() {
        // The paper's Challenge 1: compute-intensive frustum culling is ~52x
        // slower on the laptop CPU.
        let p = PlatformSpec::laptop_rtx4070m();
        let work = Work::new(1.0e10, 1.0e8);
        let gpu = kernel_time(&work, &p.gpu, true);
        let cpu = kernel_time(&work, &p.cpu, false);
        assert!(cpu / gpu > 20.0, "ratio {}", cpu / gpu);
    }

    #[test]
    fn memory_bound_ratio_follows_r_bw() {
        // The paper's Challenge 2: memory-bound optimizer updates slow down by
        // roughly R_bw when moved to the CPU.
        let p = PlatformSpec::desktop_rtx4080s();
        let work = Work::new(1.0, 8.0e9);
        let gpu = kernel_time(&work, &p.gpu, true);
        let cpu = kernel_time(&work, &p.cpu, false);
        let ratio = cpu / gpu;
        assert!((ratio - p.r_bw()).abs() / p.r_bw() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn random_access_work_is_slower_on_numa_server() {
        let server = PlatformSpec::server_h100();
        let streaming = Work::new(1.0, 8.0e9);
        let random = Work::new(1.0, 8.0e9).with_random_access();
        let t_stream = kernel_time(&streaming, &server.cpu, false);
        let t_random = kernel_time(&random, &server.cpu, false);
        assert!(t_random > t_stream * 1.5);
    }

    #[test]
    fn combine_merges_flags() {
        let a = Work::new(1.0, 2.0);
        let b = Work::new(3.0, 4.0).with_random_access();
        let c = a.combine(&b);
        assert_eq!(c.flops, 4.0);
        assert_eq!(c.bytes, 6.0);
        assert!(c.random_access);
    }
}
