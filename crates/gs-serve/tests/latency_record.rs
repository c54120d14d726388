//! The serving tier's one latency record: percentiles within the stated
//! 2.5 % bound of the exact sample, and summaries that depend only on the
//! multiset of recorded latencies — not on arrival order or threads.

use std::time::Duration;

use gs_core::rng::Rng64;
use gs_serve::{percentile, CacheStats, LatencySummary, ServeStats, StatsCollector, StatsReport};

/// A latency log-uniformly distributed over `[lo_ns, hi_ns)`, in whole
/// nanoseconds.
fn log_uniform_ns(rng: &mut Rng64, lo_ns: f64, hi_ns: f64) -> u64 {
    (lo_ns * (hi_ns / lo_ns).powf(rng.gen_f64())).round() as u64
}

#[test]
fn percentiles_stay_within_the_stated_bound_of_the_exact_sample() {
    // exact <= reported <= 1.025 * exact for p50/p90/p99 over random
    // samples spanning the whole 100 ns – 100 s range.
    let mut rng = Rng64::seed_from_u64(0xb0a4d);
    for trial in 0..300 {
        let n = rng.gen_range(1usize..2000);
        let collector = StatsCollector::new(1);
        let mut sorted: Vec<f64> = (0..n)
            .map(|_| {
                let ns = log_uniform_ns(&mut rng, 100.0, 1e11);
                collector.record_completed(0, Duration::from_nanos(ns));
                ns as f64 / 1e9
            })
            .collect();
        sorted.sort_by(f64::total_cmp);
        let reported = collector.snapshot(CacheStats::default()).latency;
        for (p, got) in [
            (0.50, reported.p50),
            (0.90, reported.p90),
            (0.99, reported.p99),
        ] {
            let exact = percentile(&sorted, p);
            assert!(
                exact <= got && got <= 1.025 * exact,
                "trial {trial}, n {n}, p{}: exact {exact} reported {got}",
                p * 100.0
            );
        }
        assert_eq!(reported.max, *sorted.last().unwrap(), "the max is exact");
    }
}

fn summaries(stats: &ServeStats) -> Vec<u64> {
    [stats.latency, stats.hit_latency, stats.shard_layer]
        .iter()
        .flat_map(|s: &LatencySummary| [s.p50, s.p90, s.p99, s.mean, s.max])
        .map(f64::to_bits)
        .collect()
}

fn record(collector: &StatsCollector, ns: u64) {
    let latency = Duration::from_nanos(ns);
    collector.record_completed(0, latency);
    collector.record_fast_hit(latency);
    collector.record_shard_layer(latency);
}

#[test]
fn the_same_latencies_in_any_order_on_any_threads_give_the_same_stats() {
    // Well past 65 536 samples, where a record that keeps a subset
    // chosen by arrival order would diverge between the two runs.
    let mut rng = Rng64::seed_from_u64(0x0dde);
    let mut latencies: Vec<u64> = (0..100_000)
        .map(|_| log_uniform_ns(&mut rng, 1e3, 1e9))
        .collect();
    latencies.sort_unstable();

    let ascending = StatsCollector::new(1);
    for &ns in &latencies {
        record(&ascending, ns);
    }

    for i in (1..latencies.len()).rev() {
        latencies.swap(i, rng.gen_range(0..i + 1));
    }
    let shuffled = StatsCollector::new(1);
    std::thread::scope(|scope| {
        for chunk in latencies.chunks(latencies.len().div_ceil(4)) {
            let shuffled = &shuffled;
            scope.spawn(move || chunk.iter().for_each(|&ns| record(shuffled, ns)));
        }
    });

    let snapshot = |collector: &StatsCollector| ServeStats {
        elapsed: Duration::ZERO,
        ..collector.snapshot(CacheStats::default())
    };
    let (a, b) = (snapshot(&ascending), snapshot(&shuffled));
    assert_eq!(a.completed, 200_000);
    assert_eq!(summaries(&a), summaries(&b));
    assert_eq!(a.latency_record, b.latency_record);
    assert_eq!(
        StatsReport::new(&a, 0, 0).to_body(),
        StatsReport::new(&b, 0, 0).to_body()
    );
}
