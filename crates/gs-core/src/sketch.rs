//! A probabilistic frequency sketch for bounded-cardinality tables.
//!
//! [`CountMinSketch`] estimates how often a key has been seen recently in
//! O(1) space per key-universe rather than per key: a depth-4 count-min
//! sketch with conservative updates and saturating counters (capped at
//! [`CountMinSketch::MAX_COUNT`]), periodically halved so the estimate
//! tracks *recent* frequency instead of all-time frequency. The heat
//! tables in `gs-obs` use it to gate which keys earn an exact slot.
//!
//! Everything is deterministic: row seeds are fixed, and the caller drives
//! aging by calling [`CountMinSketch::halve`], not wall-clock time.

/// Splitmix64 finalizer — decorrelates a key hash into per-row indices.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A count-min sketch with conservative updates and saturating counters.
///
/// Width is rounded up to a power of two so row indexing is a mask. The
/// counters saturate at [`CountMinSketch::MAX_COUNT`] (the 4-bit
/// convention): an admission gate only needs to compare *small* recent
/// frequencies, and small counters make the periodic halving cheap.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: usize,
    mask: u64,
    counters: Vec<u8>,
}

impl CountMinSketch {
    /// Counter saturation point (estimates never exceed this).
    pub const MAX_COUNT: u8 = 15;

    /// Fixed per-row seeds (arbitrary odd constants).
    const SEEDS: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0xd6e8_feb8_6659_fd93,
    ];

    /// Creates a sketch sized for roughly `capacity` distinct hot keys.
    /// Width is `capacity.max(16)` rounded up to a power of two, depth is 4.
    pub fn new(capacity: usize) -> Self {
        let width = capacity.max(16).next_power_of_two();
        Self {
            rows: Self::SEEDS.len(),
            mask: (width - 1) as u64,
            counters: vec![0; width * Self::SEEDS.len()],
        }
    }

    fn slot(&self, row: usize, hash: u64) -> usize {
        let idx = (mix(hash ^ Self::SEEDS[row]) & self.mask) as usize;
        row * (self.mask as usize + 1) + idx
    }

    /// Current estimate of `hash`'s count (minimum over the rows).
    pub fn estimate(&self, hash: u64) -> u8 {
        (0..self.rows)
            .map(|row| self.counters[self.slot(row, hash)])
            .min()
            .unwrap_or(0)
    }

    /// Counts one observation of `hash` using the conservative-update rule:
    /// only the rows currently at the minimum are bumped, which tightens the
    /// estimate under hash collisions. Returns the new estimate.
    pub fn increment(&mut self, hash: u64) -> u8 {
        let current = self.estimate(hash);
        if current >= Self::MAX_COUNT {
            return current;
        }
        for row in 0..self.rows {
            let slot = self.slot(row, hash);
            if self.counters[slot] == current {
                self.counters[slot] = current + 1;
            }
        }
        current + 1
    }

    /// Halves every counter (the aging step): old traffic decays so
    /// the estimate tracks the recent sample window.
    pub fn halve(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_never_undercount_a_single_key() {
        let mut cms = CountMinSketch::new(64);
        for _ in 0..7 {
            cms.increment(42);
        }
        assert!(cms.estimate(42) >= 7, "{}", cms.estimate(42));
    }

    #[test]
    fn counters_saturate_at_the_cap() {
        let mut cms = CountMinSketch::new(64);
        for _ in 0..1000 {
            cms.increment(7);
        }
        assert_eq!(cms.estimate(7), CountMinSketch::MAX_COUNT);
    }

    #[test]
    fn halving_decays_counts() {
        let mut cms = CountMinSketch::new(64);
        for _ in 0..8 {
            cms.increment(9);
        }
        let before = cms.estimate(9);
        cms.halve();
        assert_eq!(cms.estimate(9), before / 2);
    }

    #[test]
    fn conservative_update_bounds_collision_inflation() {
        // Hammer many distinct keys, then check a never-seen key's estimate
        // stays small: conservative updates only bump minimum rows, so a
        // fresh key needs a collision in *every* row to read high.
        let mut cms = CountMinSketch::new(256);
        for k in 0..200u64 {
            for _ in 0..3 {
                cms.increment(k);
            }
        }
        assert!(
            cms.estimate(999_999) <= 3,
            "unseen key estimate {} is implausibly high",
            cms.estimate(999_999)
        );
    }
}
