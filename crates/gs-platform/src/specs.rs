//! Device and platform specifications (Table 1 of the paper, plus the extra
//! GPUs from the sensitivity study in Section 5.8).

/// Peak capabilities of one processor (GPU or CPU) and its attached memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Peak single-precision throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Memory capacity in bytes.
    pub mem_capacity: u64,
    /// Fraction of the peak memory bandwidth achievable by the irregular,
    /// random-access patterns of the deferred optimizer (NUMA effects on the
    /// dual-socket server lower this; see Section 5.7 of the paper).
    pub random_access_efficiency: f64,
}

impl DeviceSpec {
    /// Creates a device spec with full random-access efficiency.
    pub fn new(peak_flops: f64, mem_bandwidth: f64, mem_capacity: u64) -> Self {
        Self {
            peak_flops,
            mem_bandwidth,
            mem_capacity,
            random_access_efficiency: 1.0,
        }
    }

    /// Returns a copy with the given random-access efficiency.
    pub fn with_random_access_efficiency(mut self, eff: f64) -> Self {
        self.random_access_efficiency = eff;
        self
    }

    /// Effective bandwidth for random-access-dominated kernels.
    pub fn effective_random_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.random_access_efficiency
    }
}

/// A complete evaluation platform: a GPU, a host CPU with its memory, and the
/// PCIe link between them.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Human-readable platform name (e.g. "Laptop (RTX 4070 Mobile)").
    pub name: String,
    /// GPU device.
    pub gpu: DeviceSpec,
    /// Host CPU device (its `mem_capacity` is the host DRAM size).
    pub cpu: DeviceSpec,
    /// PCIe bandwidth between host and device, bytes/s.
    pub pcie_bandwidth: f64,
    /// Number of NUMA nodes on the host.
    pub numa_nodes: usize,
}

const GB: u64 = 1024 * 1024 * 1024;
const GBPS: f64 = 1.0e9;
const TFLOPS: f64 = 1.0e12;

impl PlatformSpec {
    /// Laptop platform from Table 1: ASUS TUF Gaming F17 with an Intel Core
    /// i7-13620H and an RTX 4070 Mobile (8 GB, 256 GB/s), PCIe 16 GB/s, 32 GB
    /// host memory at 83.2 GB/s. The paper quotes a 52x GPU/CPU peak-FLOPS
    /// ratio on this machine.
    pub fn laptop_rtx4070m() -> Self {
        Self {
            name: "Laptop (RTX 4070 Mobile)".to_string(),
            gpu: DeviceSpec::new(15.6 * TFLOPS, 256.0 * GBPS, 8 * GB),
            cpu: DeviceSpec::new(0.3 * TFLOPS, 83.2 * GBPS, 32 * GB),
            pcie_bandwidth: 16.0 * GBPS,
            numa_nodes: 1,
        }
    }

    /// Desktop platform from Table 1: Intel Core i9-13900K with an RTX 4080
    /// Super (16 GB, 736 GB/s), PCIe 32 GB/s, 64 GB host memory at 89.6 GB/s.
    pub fn desktop_rtx4080s() -> Self {
        Self {
            name: "Desktop (RTX 4080 Super)".to_string(),
            gpu: DeviceSpec::new(52.2 * TFLOPS, 736.0 * GBPS, 16 * GB),
            cpu: DeviceSpec::new(1.0 * TFLOPS, 89.6 * GBPS, 64 * GB),
            pcie_bandwidth: 32.0 * GBPS,
            numa_nodes: 1,
        }
    }

    /// Server platform from Table 1: 2x Intel Xeon Gold 6530 with an H100
    /// PCIe 80 GB (2.04 TB/s), PCIe 64 GB/s, 1 TB host memory at 614.4 GB/s.
    ///
    /// The dual-socket host is modelled with two NUMA nodes and a reduced
    /// random-access efficiency, matching the paper's observation that the
    /// deferred optimizer's random accesses cannot reach the aggregate peak
    /// bandwidth across sockets.
    pub fn server_h100() -> Self {
        Self {
            name: "Server (H100 PCIe)".to_string(),
            gpu: DeviceSpec::new(51.2 * TFLOPS, 2040.0 * GBPS, 80 * GB),
            cpu: DeviceSpec::new(4.0 * TFLOPS, 614.4 * GBPS, 1024 * GB)
                .with_random_access_efficiency(0.45),
            pcie_bandwidth: 64.0 * GBPS,
            numa_nodes: 2,
        }
    }

    /// Desktop with an RTX 4070 Super (12 GB, 504.2 GB/s), used in the GPU
    /// sensitivity study (Figure 15c, R_bw = 5.6).
    pub fn desktop_rtx4070s() -> Self {
        Self {
            name: "Desktop (RTX 4070 Super)".to_string(),
            gpu: DeviceSpec::new(35.5 * TFLOPS, 504.2 * GBPS, 12 * GB),
            cpu: DeviceSpec::new(1.0 * TFLOPS, 89.6 * GBPS, 64 * GB),
            pcie_bandwidth: 32.0 * GBPS,
            numa_nodes: 1,
        }
    }

    /// Desktop with an RTX 4090 (24 GB, 1.01 TB/s), used in the GPU
    /// sensitivity study (Figure 15c, R_bw = 11.3).
    pub fn desktop_rtx4090() -> Self {
        Self {
            name: "Desktop (RTX 4090)".to_string(),
            gpu: DeviceSpec::new(82.6 * TFLOPS, 1010.0 * GBPS, 24 * GB),
            cpu: DeviceSpec::new(1.0 * TFLOPS, 89.6 * GBPS, 64 * GB),
            pcie_bandwidth: 32.0 * GBPS,
            numa_nodes: 1,
        }
    }

    /// All platforms from Table 1 (laptop, desktop, server).
    pub fn table1() -> Vec<PlatformSpec> {
        vec![
            Self::laptop_rtx4070m(),
            Self::desktop_rtx4080s(),
            Self::server_h100(),
        ]
    }

    /// `R_bw`: the ratio of GPU to CPU memory bandwidth, the key platform
    /// parameter the paper uses to explain GS-Scale's relative performance.
    pub fn r_bw(&self) -> f64 {
        self.gpu.mem_bandwidth / self.cpu.mem_bandwidth
    }

    /// Returns a copy with a different GPU memory capacity (used to emulate
    /// memory-limit sweeps).
    pub fn with_gpu_memory(mut self, bytes: u64) -> Self {
        self.gpu.mem_capacity = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ratio of GPU to CPU peak compute throughput.
    fn flops_ratio(platform: &PlatformSpec) -> f64 {
        platform.gpu.peak_flops / platform.cpu.peak_flops
    }

    #[test]
    fn table1_r_bw_matches_paper() {
        // Paper Table 1 quotes R_bw of 3.1 (laptop), 8.2 (desktop), 3.3 (server).
        let laptop = PlatformSpec::laptop_rtx4070m();
        let desktop = PlatformSpec::desktop_rtx4080s();
        let server = PlatformSpec::server_h100();
        assert!(
            (laptop.r_bw() - 3.1).abs() < 0.1,
            "laptop {}",
            laptop.r_bw()
        );
        assert!(
            (desktop.r_bw() - 8.2).abs() < 0.1,
            "desktop {}",
            desktop.r_bw()
        );
        assert!(
            (server.r_bw() - 3.3).abs() < 0.1,
            "server {}",
            server.r_bw()
        );
    }

    #[test]
    fn sensitivity_gpus_match_paper_r_bw() {
        // Section 5.8: R_bw = 5.6 for the RTX 4070 Super and 11.3 for the 4090.
        assert!((PlatformSpec::desktop_rtx4070s().r_bw() - 5.6).abs() < 0.1);
        assert!((PlatformSpec::desktop_rtx4090().r_bw() - 11.3).abs() < 0.1);
    }

    #[test]
    fn laptop_flops_ratio_is_about_52x() {
        let laptop = PlatformSpec::laptop_rtx4070m();
        assert!((flops_ratio(&laptop) - 52.0).abs() < 5.0);
    }

    #[test]
    fn gpu_capacities_match_table1() {
        assert_eq!(PlatformSpec::laptop_rtx4070m().gpu.mem_capacity, 8 * GB);
        assert_eq!(PlatformSpec::desktop_rtx4080s().gpu.mem_capacity, 16 * GB);
        assert_eq!(PlatformSpec::server_h100().gpu.mem_capacity, 80 * GB);
    }

    #[test]
    fn server_has_two_numa_nodes_and_reduced_efficiency() {
        let server = PlatformSpec::server_h100();
        assert_eq!(server.numa_nodes, 2);
        assert!(server.cpu.random_access_efficiency < 1.0);
        assert!(server.cpu.effective_random_bandwidth() < server.cpu.mem_bandwidth);
    }

    #[test]
    fn with_gpu_memory_overrides_capacity() {
        let p = PlatformSpec::laptop_rtx4070m().with_gpu_memory(4 * GB);
        assert_eq!(p.gpu.mem_capacity, 4 * GB);
    }

    #[test]
    fn flops_ratio_orders_platforms_sensibly() {
        // The desktop CPU is stronger relative to its GPU than the laptop's.
        let laptop = PlatformSpec::laptop_rtx4070m();
        let desktop = PlatformSpec::desktop_rtx4080s();
        assert!(flops_ratio(&desktop) > flops_ratio(&laptop));
    }
}
