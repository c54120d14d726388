//! The names this benchmark defines: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root is `--describe`'s output; a unit test keeps the two in step.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "train_sparse",
        "Paper regime: 60k Gaussians, ~5% active per view, so host cull, staging, sparse grads and deferred Adam do the work and gs-render little.",
    ),
    (
        "train_dense",
        "Same trainer used the other way: 2.5k Gaussians, >=50% active, every view image-split; forward+backward raster dominates, deferral saves nothing.",
    ),
    (
        "serve_miss",
        "In-process server, 8 tickets outstanding, every pose unique: the forward kernel, queue and batching work; the frame cache only inserts and evicts.",
    ),
    (
        "serve_hot",
        "HTTP loopback, 2 keep-alive connections, 90% Zipf over 64 hot poses: cache read path, http and wire do the work; p50 is a hit, p95 a miss.",
    ),
    (
        "cluster_shard",
        "Coordinator relaying one corridor scene over 3 single-shard replicas (one behind HTTP): routing, layer codec and compositing are on the critical path.",
    ),
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: "higher",
        bound: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "model_images_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "model_peak_gpu_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

/// A per-layer metric, named `<crate>.<what>_<unit>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: [PerLayer; 55] = [
    lower("gs-core.gather_us", "us"),
    lower("gs-core.grads_merge_us", "us"),
    lower("gs-core.grads_to_dense_us", "us"),
    lower("gs-render.cull_us", "us"),
    lower("gs-render.cull_active_share", "ratio"),
    lower("gs-render.project_us", "us"),
    lower("gs-render.bin_us", "us"),
    lower("gs-render.raster_fwd_us", "us"),
    lower("gs-render.forward_us", "us"),
    lower("gs-render.loss_us", "us"),
    lower("gs-render.backward_us", "us"),
    lower("gs-render.composite_us", "us"),
    lower("gs-render.pairs_per_op", "count"),
    lower("gs-render.model_flops_per_op", "count"),
    lower("gs-render.model_bytes_per_op", "count"),
    lower("gs-optim.deferred_step_us", "us"),
    lower("gs-optim.dense_step_us", "us"),
    lower("gs-optim.peek_restored_us", "us"),
    lower("gs-optim.flush_ms", "ms"),
    lower("gs-optim.updated_share", "ratio"),
    lower("gs-train.step_us", "us"),
    lower("gs-train.step_self_share", "ratio"),
    lower("gs-train.split_us", "us"),
    lower("gs-train.split_share", "ratio"),
    lower("gs-train.densify_ms", "ms"),
    higher("gs-train.gpu_only_ops_per_s", "1/s"),
    lower("gs-platform.model_cull_ms", "ms"),
    lower("gs-platform.model_h2d_ms", "ms"),
    lower("gs-platform.model_fwd_bwd_ms", "ms"),
    lower("gs-platform.model_d2h_ms", "ms"),
    lower("gs-platform.model_cpu_opt_ms", "ms"),
    lower("gs-serve.wire_parse_us", "us"),
    lower("gs-serve.wire_encode_us", "us"),
    lower("gs-serve.layer_codec_us", "us"),
    lower("gs-serve.cache_get_us", "us"),
    lower("gs-serve.cache_insert_us", "us"),
    higher("gs-serve.cache_hit_share", "ratio"),
    lower("gs-serve.hit_path_us", "us"),
    lower("gs-serve.inproc_overhead_us", "us"),
    lower("gs-serve.http_floor_us", "us"),
    lower("gs-serve.http_overhead_us", "us"),
    higher("gs-serve.mean_batch", "count"),
    lower("gs-serve.scene_load_ms", "ms"),
    lower("gs-serve.shard_partition_ms", "ms"),
    lower("gs-cluster.route_overhead_us", "us"),
    lower("gs-cluster.shard_layer_us", "us"),
    lower("gs-cluster.relay_overhead_us", "us"),
    lower("gs-cluster.http_hop_us", "us"),
    lower("gs-cluster.shards_per_op", "count"),
    lower("gs-obs.metrics_text_us", "us"),
    lower("gs-scene.generate_ms", "ms"),
    lower("gs-metrics.eval_ms", "ms"),
    lower("bench.trace_overhead_share", "ratio"),
    lower("bench.segment_spread_share", "ratio"),
    lower("bench.unattributed_share", "ratio"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "bench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["bench"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([
                            ("name", Json::Str((*name).into())),
                            ("why", Json::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(END_TO_END.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10);
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
    }
}
