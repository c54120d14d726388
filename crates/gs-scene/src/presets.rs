//! The paper's benchmark scenes as data (Table 2 and Figure 4).

use crate::synthetic::SceneConfig;

/// Whether a benchmark scene is captured from the real world or synthetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneKind {
    /// Real-world outdoor capture (Mill-19, GauU-Scene).
    RealWorldOutdoor,
    /// Synthetic city rendering (MatrixCity).
    Synthetic,
}

/// Static description of one benchmark scene from the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenePreset {
    /// Scene name as used in the paper (e.g. "Rubble").
    pub name: &'static str,
    /// Source dataset (e.g. "Mill-19").
    pub dataset: &'static str,
    /// Training image width in pixels (after the paper's downsampling).
    pub width: usize,
    /// Training image height in pixels.
    pub height: usize,
    /// Scene kind.
    pub kind: SceneKind,
    /// Average ratio of active (in-frustum) to total Gaussians, from
    /// Figure 4 of the paper.
    pub active_ratio: f64,
    /// Approximate number of Gaussians at the paper's full-quality scale.
    pub paper_gaussians: usize,
    /// Number of Gaussians for the "small" downsized variant used in the
    /// throughput comparison (Figure 11), chosen to fit GPU-only training.
    pub paper_gaussians_small: usize,
}

impl ScenePreset {
    /// Rubble (Mill-19): 1152x864 after 4x downsampling, 12.6 % active.
    pub const RUBBLE: ScenePreset = ScenePreset {
        name: "Rubble",
        dataset: "Mill-19",
        width: 1152,
        height: 864,
        kind: SceneKind::RealWorldOutdoor,
        active_ratio: 0.126,
        paper_gaussians: 40_000_000,
        paper_gaussians_small: 8_000_000,
    };

    /// Building (Mill-19): 1152x864, 10.6 % active.
    pub const BUILDING: ScenePreset = ScenePreset {
        name: "Building",
        dataset: "Mill-19",
        width: 1152,
        height: 864,
        kind: SceneKind::RealWorldOutdoor,
        active_ratio: 0.106,
        paper_gaussians: 26_000_000,
        paper_gaussians_small: 8_000_000,
    };

    /// LFLS (GauU-Scene): 1600x1064, 6.4 % active.
    pub const LFLS: ScenePreset = ScenePreset {
        name: "LFLS",
        dataset: "GauU-Scene",
        width: 1600,
        height: 1064,
        kind: SceneKind::RealWorldOutdoor,
        active_ratio: 0.064,
        paper_gaussians: 24_000_000,
        paper_gaussians_small: 7_000_000,
    };

    /// SZIIT (GauU-Scene): 1600x1064, 8.9 % active.
    pub const SZIIT: ScenePreset = ScenePreset {
        name: "SZIIT",
        dataset: "GauU-Scene",
        width: 1600,
        height: 1064,
        kind: SceneKind::RealWorldOutdoor,
        active_ratio: 0.089,
        paper_gaussians: 20_000_000,
        paper_gaussians_small: 7_000_000,
    };

    /// SZTU (GauU-Scene): 1600x1064, 8.9 % active.
    pub const SZTU: ScenePreset = ScenePreset {
        name: "SZTU",
        dataset: "GauU-Scene",
        width: 1600,
        height: 1064,
        kind: SceneKind::RealWorldOutdoor,
        active_ratio: 0.089,
        paper_gaussians: 20_000_000,
        paper_gaussians_small: 7_000_000,
    };

    /// Aerial (MatrixCity): 1600x900, 2.3 % active; too large at
    /// initialization to be downsized for GPU-only training.
    pub const AERIAL: ScenePreset = ScenePreset {
        name: "Aerial",
        dataset: "MatrixCity",
        width: 1600,
        height: 900,
        kind: SceneKind::Synthetic,
        active_ratio: 0.023,
        paper_gaussians: 42_000_000,
        paper_gaussians_small: 42_000_000,
    };

    /// All six benchmark scenes, in the paper's order.
    pub const ALL: [ScenePreset; 6] = [
        Self::RUBBLE,
        Self::BUILDING,
        Self::LFLS,
        Self::SZIIT,
        Self::SZTU,
        Self::AERIAL,
    ];

    /// Whether the paper could create a GPU-only-trainable "small" variant
    /// (Aerial could not because it is already too large at initialization).
    pub fn has_small_variant(&self) -> bool {
        self.paper_gaussians_small < self.paper_gaussians
    }

    /// Builds a runnable [`SceneConfig`] downscaled by `scale` (both the
    /// Gaussian count and the resolution shrink; the active ratio and aspect
    /// ratio are preserved).
    ///
    /// `scale` of `1.0` reproduces the paper-scale counts (far too large to
    /// train functionally on a CPU — use small values like `1e-3`).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn to_config(&self, scale: f64, seed: u64) -> SceneConfig {
        assert!(scale > 0.0, "scale must be positive");
        // Resolution shrinks with the square root of the scale so the pixel
        // count tracks the Gaussian count.
        let res_scale = scale.sqrt().min(1.0);
        let num_gaussians = ((self.paper_gaussians as f64 * scale).round() as usize).max(64);
        SceneConfig {
            name: self.name.to_string(),
            num_gaussians,
            init_points: (num_gaussians / 3).max(32),
            width: ((self.width as f64 * res_scale).round() as usize).max(32),
            height: ((self.height as f64 * res_scale).round() as usize).max(24),
            num_train_views: 24,
            num_test_views: 4,
            target_active_ratio: self.active_ratio,
            extent: 100.0,
            far_view_fraction: 0.08,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_scenes_match_figure4_ratios() {
        let ratios: Vec<f64> = ScenePreset::ALL.iter().map(|p| p.active_ratio).collect();
        assert_eq!(ratios, vec![0.126, 0.106, 0.064, 0.089, 0.089, 0.023]);
        // Paper: 8.28% average active ratio across large-scale scenes.
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((mean - 0.0828).abs() < 0.01, "mean active ratio {mean}");
    }

    #[test]
    fn resolutions_match_table2() {
        assert_eq!(
            (ScenePreset::RUBBLE.width, ScenePreset::RUBBLE.height),
            (1152, 864)
        );
        assert_eq!(
            (ScenePreset::LFLS.width, ScenePreset::LFLS.height),
            (1600, 1064)
        );
        assert_eq!(
            (ScenePreset::AERIAL.width, ScenePreset::AERIAL.height),
            (1600, 900)
        );
        assert_eq!(ScenePreset::AERIAL.kind, SceneKind::Synthetic);
    }

    #[test]
    fn aerial_has_no_small_variant() {
        assert!(!ScenePreset::AERIAL.has_small_variant());
        assert!(ScenePreset::RUBBLE.has_small_variant());
    }

    #[test]
    fn to_config_scales_counts_and_resolution() {
        let cfg = ScenePreset::RUBBLE.to_config(1.0e-3, 7);
        assert_eq!(cfg.num_gaussians, 40_000);
        assert!(cfg.width < ScenePreset::RUBBLE.width);
        assert!((cfg.target_active_ratio - 0.126).abs() < 1e-9);
        // Paper-scale config preserves the original resolution.
        let full = ScenePreset::RUBBLE.to_config(1.0, 7);
        assert_eq!(full.width, 1152);
        assert_eq!(full.num_gaussians, 40_000_000);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = ScenePreset::RUBBLE.to_config(0.0, 1);
    }
}
