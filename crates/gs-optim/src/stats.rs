//! Per-step accounting of the memory traffic an optimizer update generates.
//!
//! The paper's deferred optimizer update exists to reduce exactly this
//! traffic: a full Adam step touches `7 * D` 32-bit values per Gaussian
//! (reads of parameter, gradient, momentum and variance; writes of parameter,
//! momentum and variance), while a deferred step touches only the Gaussians
//! being updated plus one byte of counter per Gaussian. Trainers feed these
//! numbers to the platform timing model to turn them into CPU time.

use gs_core::gaussian::GaussianParams;

/// Memory traffic and arithmetic performed by one optimizer step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepStats {
    /// Number of Gaussians whose parameters and states were actually updated.
    pub updated_gaussians: usize,
    /// Total number of Gaussians managed by the optimizer.
    pub total_gaussians: usize,
    /// Bytes read from memory during the step.
    pub bytes_read: f64,
    /// Bytes written to memory during the step.
    pub bytes_written: f64,
    /// Floating-point operations performed.
    pub flops: f64,
}

impl StepStats {
    /// Traffic of a full (dense) momentum-optimizer update over `n`
    /// Gaussians: 4 reads + 3 writes of all 59 parameters each.
    pub fn dense(n: usize) -> Self {
        let d = GaussianParams::PARAMS_PER_GAUSSIAN as f64;
        Self {
            updated_gaussians: n,
            total_gaussians: n,
            bytes_read: n as f64 * 4.0 * d * 4.0,
            bytes_written: n as f64 * 3.0 * d * 4.0,
            flops: n as f64 * d * 12.0,
        }
    }

    /// Traffic of a deferred update that touched `updated` of `total`
    /// Gaussians plus one counter byte per Gaussian (read and write).
    pub fn deferred(updated: usize, total: usize) -> Self {
        let d = GaussianParams::PARAMS_PER_GAUSSIAN as f64;
        Self {
            updated_gaussians: updated,
            total_gaussians: total,
            bytes_read: updated as f64 * 4.0 * d * 4.0 + total as f64,
            bytes_written: updated as f64 * 3.0 * d * 4.0 + total as f64,
            // Restoration adds a handful of extra multiplies per value.
            flops: updated as f64 * d * 16.0,
        }
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Combines the stats of two sequential phases.
    pub fn combine(&self, other: &StepStats) -> StepStats {
        StepStats {
            updated_gaussians: self.updated_gaussians + other.updated_gaussians,
            total_gaussians: self.total_gaussians.max(other.total_gaussians),
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            flops: self.flops + other.flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_traffic_is_7d_words_per_gaussian() {
        let s = StepStats::dense(100);
        let expected = 100.0 * 7.0 * 59.0 * 4.0;
        assert!((s.total_bytes() - expected).abs() < 1e-6);
    }

    #[test]
    fn deferred_traffic_scales_with_active_ratio() {
        let dense = StepStats::dense(10_000);
        let deferred = StepStats::deferred(1_000, 10_000);
        // Roughly 10x less traffic (counters add a small constant).
        let ratio = dense.total_bytes() / deferred.total_bytes();
        assert!(ratio > 8.0 && ratio < 11.0, "ratio {ratio}");
    }

    #[test]
    fn combine_adds_traffic() {
        let a = StepStats::dense(10);
        let b = StepStats::dense(20);
        let c = a.combine(&b);
        assert_eq!(c.updated_gaussians, 30);
        assert!((c.total_bytes() - (a.total_bytes() + b.total_bytes())).abs() < 1e-9);
    }
}
