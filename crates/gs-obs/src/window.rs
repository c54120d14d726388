//! Cumulative counters that are windowed when read.
//!
//! Recording into a [`Windowed`] is one atomic add per counter; it takes
//! no lock and reads no clock. A reader first *folds*: the growth since
//! the previous fold goes into the ring bucket of the fold's time, and
//! window sums are read off that ring. An event therefore lands in the
//! bucket of the first fold after it, so a window lags the events by at
//! most one fold; the tiers' watcher folds every tick.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// `N` cumulative counters and the epoch ring their growth is folded into.
#[derive(Debug)]
pub(crate) struct Windowed<const N: usize> {
    totals: [AtomicU64; N],
    ring: Mutex<Ring<N>>,
}

/// Fixed-width time buckets reused modulo their count, each stamped with
/// the epoch (bucket index) it holds.
#[derive(Debug)]
struct Ring<const N: usize> {
    bucket_us: u64,
    /// The totals as of the last fold.
    seen: [u64; N],
    /// The newest epoch folded into; folds never move it back.
    head: u64,
    slots: Vec<(u64, [u64; N])>,
}

impl<const N: usize> Windowed<N> {
    /// Counters whose ring holds `slots` buckets of `bucket_us` each.
    pub(crate) fn new(bucket_us: u64, slots: usize) -> Self {
        Self {
            totals: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(Ring {
                bucket_us: bucket_us.max(1),
                seen: [0; N],
                head: 0,
                slots: vec![(0, [0; N]); slots.max(1)],
            }),
        }
    }

    /// Adds `values` to the counters in index order. A fold reads them in
    /// reverse, so no counter it sees runs ahead of counter 0's growth
    /// (the event count, when one event adds to several counters).
    pub(crate) fn add(&self, values: [u64; N]) {
        for (total, v) in self.totals.iter().zip(values) {
            if v != 0 {
                total.fetch_add(v, Ordering::Release);
            }
        }
    }

    /// Folds the growth since the previous fold into the bucket of
    /// `now_us`, then sums the counters over each window's newest buckets
    /// (the folded one included). Folds are serialized by the ring's lock,
    /// so each event is folded exactly once.
    pub(crate) fn fold<const W: usize>(&self, now_us: u64, windows: [u64; W]) -> [[u64; N]; W] {
        let mut ring = self.ring.lock().unwrap();
        let mut totals = [0; N];
        for i in (0..N).rev() {
            totals[i] = self.totals[i].load(Ordering::Acquire);
        }
        let head = (now_us / ring.bucket_us).max(ring.head);
        let (len, seen) = (ring.slots.len() as u64, ring.seen);
        let slot = &mut ring.slots[(head % len) as usize];
        if slot.0 != head {
            *slot = (head, [0; N]);
        }
        for i in 0..N {
            slot.1[i] += totals[i] - seen[i];
        }
        (ring.head, ring.seen) = (head, totals);
        windows.map(|buckets| {
            let mut acc = [0; N];
            for (_, counts) in ring
                .slots
                .iter()
                .filter(|(epoch, _)| head - epoch < buckets)
            {
                for (a, c) in acc.iter_mut().zip(counts) {
                    *a += c;
                }
            }
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_lands_in_the_newest_folded_bucket_and_expires() {
        let w = Windowed::<2>::new(1_000, 8);
        w.add([3, 1]);
        assert_eq!(w.fold(5_000, [1]), [[3, 1]]);
        w.add([2, 0]);
        // A fold earlier than the last one still lands in the newest bucket.
        assert_eq!(w.fold(4_000, [1, 2]), [[5, 1], [5, 1]]);
        w.add([1, 1]);
        assert_eq!(w.fold(7_000, [1, 3]), [[1, 1], [6, 2]]);
        // Eight buckets later the ring has forgotten every fold.
        assert_eq!(w.fold(15_000, [8]), [[0, 0]]);
    }

    #[test]
    fn concurrent_records_fold_exactly_into_slo_and_heat_windows() {
        use crate::{default_slos, HeatTable, Registry, SloEngine};

        let slo = SloEngine::new(&Registry::new(), default_slos(250.0, 0.99, 0.999));
        let heat = HeatTable::new(60);
        let (now, finished) = (1_000_000_000_000, AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (slo, heat, finished) = (&slo, &heat, &finished);
                scope.spawn(move || {
                    for i in 0..10_000 {
                        slo.record(i % 3 != 0, 0.001);
                        heat.record(Some(["a", "b"][t % 2]), i % 3 != 0, i % 2 == 0, 0.001);
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }
            while finished.load(Ordering::Relaxed) < 4 {
                slo.report_at(now);
                heat.snapshot_at(now);
            }
        });
        // 3 334 of every thread's 10 000 outcomes failed.
        for s in slo.report_at(now) {
            assert_eq!(
                [s.fast_total, s.fast_bad, s.slow_total, s.slow_bad],
                [40_000, 13_336, 40_000, 13_336]
            );
        }
        let (rows, untracked) = heat.snapshot_at(now);
        assert_eq!((rows.len(), untracked), (2, 0));
        for row in rows {
            assert_eq!(row.requests, 20_000, "{}", row.key);
            assert_eq!([row.hit_ratio, row.error_ratio], [0.5, 6_668.0 / 20_000.0]);
            assert!((row.mean_latency_s - 0.001).abs() < 1e-9);
        }
    }
}
