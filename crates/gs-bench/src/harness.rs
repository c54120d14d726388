//! Shared machinery for the figure/table reproduction binaries. Every
//! system trains to the same parameters, so a figure trains each scene once
//! ([`record_run`]) and models every (system, platform) pair from that.

use gs_core::error::Result;
use gs_core::gaussian::GaussianParams;
use gs_core::scene::init_gaussians_from_point_cloud;
use gs_metrics::QualityReport;
use gs_platform::PlatformSpec;
use gs_scene::{SceneDataset, ScenePreset};
use gs_train::{train, OffloadTrainer, SystemKind, TrainConfig, TrainOutcome};

/// How large the runnable (functional) version of each experiment is.
///
/// The paper's scenes hold tens of millions of Gaussians; the functional
/// pipeline here runs on a CPU, so experiments are executed at a reduced
/// scale. Relative comparisons (who wins, by how much, where crossovers sit)
/// are preserved; absolute magnitudes at paper scale come from the analytic
/// memory/timing models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Fraction of the paper's Gaussian count to instantiate.
    pub gaussian_scale: f64,
    /// Number of training iterations to run.
    pub iterations: usize,
    /// Deterministic seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Quick settings used by default (a few seconds per run).
    pub fn quick() -> Self {
        Self {
            gaussian_scale: 6.0e-5,
            iterations: 24,
            seed: 17,
        }
    }

    /// Larger settings selected with `--full` on the binaries.
    pub fn full() -> Self {
        Self {
            gaussian_scale: 2.5e-4,
            iterations: 120,
            seed: 17,
        }
    }

    /// Reads the scale from the process arguments (`--full` selects
    /// [`ExperimentScale::full`], `--seed <n>` overrides the seed).
    pub fn from_args() -> Self {
        Self::from_bench_args(&BenchArgs::parse())
    }

    /// The scale the shared [`BenchArgs`] select.
    pub fn from_bench_args(args: &BenchArgs) -> Self {
        let mut scale = if args.full {
            Self::full()
        } else {
            Self::quick()
        };
        if let Some(seed) = args.seed {
            scale.seed = seed;
        }
        scale
    }
}

/// The command-line arguments every benchmark binary shares, replacing the
/// ad-hoc per-binary `std::env::args().any(..)` scans:
///
/// * `--full` — run the larger workload instead of the CI-sized one.
/// * `--seed <n>` — override the deterministic seed.
///
/// Unknown arguments are ignored so binaries can keep private flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchArgs {
    /// `--full` was passed.
    pub full: bool,
    /// The `--seed` override, if any.
    pub seed: Option<u64>,
}

impl BenchArgs {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests, wrappers).
    pub fn parse_from<I>(args: I) -> Self
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => parsed.full = true,
                "--seed" => parsed.seed = args.next().and_then(|v| v.parse().ok()),
                _ => {}
            }
        }
        parsed
    }
}

/// Builds the runnable synthetic scene for a paper preset.
pub fn build_scene(preset: &ScenePreset, scale: &ExperimentScale) -> SceneDataset {
    SceneDataset::from_preset(preset, scale.gaussian_scale, scale.seed)
}

/// Initial Gaussians for a scene (from its SfM-like point cloud).
pub fn initial_params(scene: &SceneDataset) -> GaussianParams {
    init_gaussians_from_point_cloud(&scene.init_cloud, 0.3)
}

/// Trains GS-Scale on `scene` for the configured number of iterations and
/// returns the recorded run, which [`gs_train::replay`] models under every
/// system on every platform. A step's record does not depend on the
/// platform, so the recording runs on one whose memories are unbounded: it
/// never runs out of memory where a system's own run would not.
pub fn record_run(
    scene: &SceneDataset,
    config: &TrainConfig,
    scale: &ExperimentScale,
) -> TrainOutcome {
    let mut unbounded = PlatformSpec::laptop_rtx4070m().with_gpu_memory(u64::MAX);
    unbounded.cpu.mem_capacity = u64::MAX;
    let (init, extent) = (initial_params(scene), scene.scene_extent());
    let mut trainer =
        OffloadTrainer::new(config.clone(), SystemKind::GsScale, unbounded, init, extent)
            .expect("unbounded memory");
    train(&mut trainer, scene, scale.iterations, false).expect("unbounded memory")
}

/// Trains `kind` on `scene` and evaluates rendering quality on the test
/// views.
///
/// # Errors
///
/// Propagates out-of-memory errors.
pub fn quality_after_training(
    kind: SystemKind,
    platform: &PlatformSpec,
    scene: &SceneDataset,
    config: &TrainConfig,
    iterations: usize,
) -> Result<(QualityReport, usize)> {
    let (init, extent) = (initial_params(scene), scene.scene_extent());
    let mut trainer = OffloadTrainer::new(config.clone(), kind, platform.clone(), init, extent)?;
    let outcome = train(&mut trainer, scene, iterations, true)?;
    let quality = outcome.quality.expect("evaluation requested");
    Ok((quality, outcome.run.final_gaussians))
}

/// Prints a fixed-width table with a title, header row and data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats bytes as gigabytes with two decimals.
pub fn fmt_gb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1.0e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_builds_small_scenes() {
        let scale = ExperimentScale::quick();
        let scene = build_scene(&ScenePreset::RUBBLE, &scale);
        assert!(scene.num_gaussians() >= 64);
        assert!(scene.num_gaussians() < 10_000);
        let init = initial_params(&scene);
        assert!(!init.is_empty());
    }

    #[test]
    fn a_recorded_run_models_every_system() {
        let scale = ExperimentScale {
            gaussian_scale: 2.0e-5,
            iterations: 3,
            seed: 5,
        };
        let scene = build_scene(&ScenePreset::SZIIT, &scale);
        let platform = PlatformSpec::laptop_rtx4070m();
        let config = TrainConfig::fast_test(scale.iterations);
        let recorded = record_run(&scene, &config, &scale);
        assert_eq!(recorded.records.len(), 3);
        for kind in SystemKind::ALL {
            let run = gs_train::replay(kind, &platform, &recorded).unwrap();
            assert_eq!(run.iterations.len(), 3, "{kind:?}");
            assert!(run.total_sim_time() > 0.0);
        }
    }

    #[test]
    fn formatting_helpers_are_stable() {
        assert_eq!(fmt_gb(2_000_000_000), "2.00");
    }

    #[test]
    fn bench_args_parse_the_shared_flags() {
        let args = |list: &[&str]| BenchArgs::parse_from(list.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), BenchArgs::default());
        // Unknown flags (and their values) are left to the binary.
        let parsed = args(&["--full", "--seed", "42", "--out", "trace.json", "--mystery"]);
        assert_eq!(
            parsed,
            BenchArgs {
                full: true,
                seed: Some(42),
            }
        );
        // A missing or malformed value degrades to None, not a panic.
        assert_eq!(args(&["--seed"]).seed, None);
        assert_eq!(args(&["--seed", "nope"]).seed, None);
        // --seed overrides only the seed; --full picks the larger scale.
        let scale = ExperimentScale::from_bench_args(&args(&["--seed", "9"]));
        assert_eq!(scale.seed, 9);
        assert_eq!(scale.iterations, ExperimentScale::quick().iterations);
    }
}
