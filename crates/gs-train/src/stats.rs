//! Per-iteration and per-run statistics collected by the trainers.

use std::collections::BTreeMap;

use gs_platform::MemoryCategory;

/// What one training iteration did and how long the platform model says it
/// took.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Photometric loss of this iteration.
    pub loss: f32,
    /// Number of Gaussians inside the viewing frustum (active).
    pub active_gaussians: usize,
    /// Total number of Gaussians.
    pub total_gaussians: usize,
    /// Simulated wall-clock time of this iteration in seconds (makespan of
    /// the iteration's execution timeline on the modelled platform).
    pub sim_time_s: f64,
    /// Simulated time per phase label (frustum culling, H2D, forward/backward,
    /// optimizer, ...).
    pub phase_breakdown: BTreeMap<String, f64>,
    /// Whether balance-aware image splitting was applied to this view.
    pub image_split: bool,
    /// Number of Gaussians whose optimizer state was actually updated on the
    /// CPU this iteration (equals `total_gaussians` for dense optimizers).
    pub optimizer_updates: usize,
}

impl IterationStats {
    /// Active-to-total Gaussian ratio for this view.
    pub fn active_ratio(&self) -> f64 {
        if self.total_gaussians == 0 {
            0.0
        } else {
            self.active_gaussians as f64 / self.total_gaussians as f64
        }
    }
}

/// Aggregate statistics for a training run (or one epoch).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// System name the run was produced by.
    pub system: String,
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationStats>,
    /// Peak GPU memory in bytes.
    pub peak_gpu_bytes: u64,
    /// Peak GPU memory by category.
    pub peak_gpu_breakdown: Vec<(MemoryCategory, u64)>,
    /// Final number of Gaussians after training.
    pub final_gaussians: usize,
}

impl RunStats {
    /// Total simulated training time in seconds.
    pub fn total_sim_time(&self) -> f64 {
        self.iterations.iter().map(|i| i.sim_time_s).sum()
    }

    /// Simulated throughput in images (iterations) per second.
    pub fn throughput_images_per_s(&self) -> f64 {
        let t = self.total_sim_time();
        if t <= 0.0 {
            0.0
        } else {
            self.iterations.len() as f64 / t
        }
    }

    /// Mean active-to-total Gaussian ratio over the run (Figure 4).
    pub fn mean_active_ratio(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations
            .iter()
            .map(|i| i.active_ratio())
            .sum::<f64>()
            / self.iterations.len() as f64
    }

    /// Aggregated phase breakdown over all iterations, as (label, seconds)
    /// sorted by label.
    pub fn phase_breakdown(&self) -> Vec<(String, f64)> {
        let mut acc: BTreeMap<String, f64> = BTreeMap::new();
        for it in &self.iterations {
            for (label, secs) in &it.phase_breakdown {
                *acc.entry(label.clone()).or_insert(0.0) += secs;
            }
        }
        acc.into_iter().collect()
    }

    /// Fraction of iterations that used image splitting.
    pub fn split_fraction(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations.iter().filter(|i| i.image_split).count() as f64
            / self.iterations.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_stat(loss: f32, time: f64, active: usize, total: usize) -> IterationStats {
        let mut breakdown = BTreeMap::new();
        breakdown.insert("fwd_bwd".to_string(), time * 0.6);
        breakdown.insert("optimizer".to_string(), time * 0.4);
        IterationStats {
            loss,
            active_gaussians: active,
            total_gaussians: total,
            sim_time_s: time,
            phase_breakdown: breakdown,
            image_split: false,
            optimizer_updates: total,
        }
    }

    #[test]
    fn throughput_is_iterations_over_time() {
        let mut run = RunStats::default();
        run.iterations.push(iter_stat(1.0, 0.2, 10, 100));
        run.iterations.push(iter_stat(0.5, 0.3, 20, 100));
        assert!((run.total_sim_time() - 0.5).abs() < 1e-12);
        assert!((run.throughput_images_per_s() - 4.0).abs() < 1e-9);
        assert!((run.mean_active_ratio() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn phase_breakdown_aggregates_labels() {
        let mut run = RunStats::default();
        run.iterations.push(iter_stat(1.0, 1.0, 1, 10));
        run.iterations.push(iter_stat(1.0, 2.0, 1, 10));
        let breakdown = run.phase_breakdown();
        let fwd = breakdown.iter().find(|(l, _)| l == "fwd_bwd").unwrap();
        assert!((fwd.1 - 1.8).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_well_behaved() {
        let run = RunStats::default();
        assert_eq!(run.throughput_images_per_s(), 0.0);
        assert_eq!(run.split_fraction(), 0.0);
    }
}
