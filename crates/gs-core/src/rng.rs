//! A small, dependency-free deterministic random number generator.
//!
//! The workspace needs reproducible pseudo-randomness (scene generation,
//! property tests, load generators) but must not pull in external crates.
//! [`Rng64`] is a xoshiro256++ generator seeded through SplitMix64, which is
//! more than adequate statistically for procedural content and test-case
//! generation. It is *not* cryptographically secure.
//!
//! The API mirrors the subset of the `rand` crate the workspace uses
//! (`seed_from_u64`, `gen_range`), so call sites read the same way.

use std::ops::Range;

/// Deterministic xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator whose full 256-bit state is derived from `seed`
    /// via SplitMix64 (so nearby seeds give unrelated streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Creates a generator seeded from ambient entropy (wall-clock nanos,
    /// a stack address, and the process id) for the rare places that need
    /// *non*-reproducible output, such as trace-id minting. Everything
    /// else in the workspace should keep using [`Rng64::seed_from_u64`].
    pub fn from_entropy() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let stack = 0u8;
        let addr = std::ptr::addr_of!(stack) as u64;
        let pid = std::process::id() as u64;
        Self::seed_from_u64(nanos ^ addr.rotate_left(32) ^ pid.rotate_left(17))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 24 bits of precision.
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli sample: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform sample from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }
}

/// Types that can be sampled uniformly from a half-open range by [`Rng64`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws a uniform sample in `[lo, hi)`.
    fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self;
}

impl SampleUniform for f32 {
    fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        let x = lo + (hi - lo) * rng.gen_f32();
        // `lo + span * (1 - 2^-24)` can round up to exactly `hi`; keep the
        // documented half-open contract.
        if x < hi {
            x
        } else {
            hi.next_down().max(lo)
        }
    }
}

impl SampleUniform for f64 {
    fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        let x = lo + (hi - lo) * rng.gen_f64();
        if x < hi {
            x
        } else {
            hi.next_down().max(lo)
        }
    }
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut Rng64, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128;
                // Offsets are added in i128 so spans wider than the target
                // type's positive range (e.g. i32::MIN..i32::MAX) cannot
                // overflow. Modulo bias is < 2^-64 for any span used here.
                let offset = (rng.next_u64() as u128) % span;
                ((lo as i128) + (offset as i128)) as $t
            }
        }
    )*};
}

impl_sample_int!(usize, u64, u32, i64, i32);

/// A seeded Zipf (power-law) sampler over the ranks `0..n`.
///
/// Rank `i` is drawn with probability proportional to `1 / (i + 1)^s`.
/// Web-style scene popularity is classically Zipfian (a handful of hot
/// scenes dominate, with a long cold tail), so the serving load generators
/// use this to shape synthetic traffic. The CDF is precomputed once and
/// each sample is a binary search, so sampling is `O(log n)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; `s ≈ 1` is the
    /// classic Zipf shape. # Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against the last entry rounding below 1.0, which would make
        // a gen_f64() draw of ~0.999..9 fall off the end of the table.
        *cdf.last_mut().unwrap() = 1.0;
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has exactly one rank (it then always returns 0).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one rank in `0..len()`.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.gen_f64();
        // First index whose CDF value exceeds the draw.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_stream() {
        let mut a = Rng64::seed_from_u64(7);
        let mut b = Rng64::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.gen_range(-2.5f32..4.0);
            assert!((-2.5..4.0).contains(&x));
            let y = rng.gen_range(0.0f64..1.0e-3);
            assert!((0.0..1.0e-3).contains(&y));
        }
    }

    #[test]
    fn integer_ranges_hit_all_values() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_width_integer_ranges_do_not_overflow() {
        let mut rng = Rng64::seed_from_u64(8);
        let mut saw_negative = false;
        let mut saw_positive = false;
        for _ in 0..256 {
            let x = rng.gen_range(i32::MIN..i32::MAX);
            saw_negative |= x < 0;
            saw_positive |= x > 0;
            let y = rng.gen_range(0u64..u64::MAX);
            let _ = y;
        }
        assert!(saw_negative && saw_positive);
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let mut rng = Rng64::seed_from_u64(5);
        let n = 4096;
        let sum: f64 = (0..n).map(|_| rng.gen_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng64::seed_from_u64(6);
        let _ = rng.gen_range(1.0f32..1.0);
    }

    /// Rank `i`'s probability under `Zipf::new(n, s)`, from the definition
    /// (`1 / (i + 1)^s`, normalised).
    fn zipf_mass(n: usize, s: f64, i: usize) -> f64 {
        let weight = |k: usize| 1.0 / ((k + 1) as f64).powf(s);
        weight(i) / (0..n).map(weight).sum::<f64>()
    }

    /// Rank `i`'s probability mass in the sampler's table.
    fn table_mass(zipf: &Zipf, i: usize) -> f64 {
        zipf.cdf[i] - if i == 0 { 0.0 } else { zipf.cdf[i - 1] }
    }

    #[test]
    fn zipf_empirical_frequency_matches_pmf() {
        let zipf = Zipf::new(16, 1.0);
        let mut rng = Rng64::seed_from_u64(42);
        let draws = 200_000usize;
        let mut counts = [0usize; 16];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = zipf_mass(16, 1.0, i);
            let observed = c as f64 / draws as f64;
            // 200k draws: absolute error at each rank should be well under
            // one percentage point; the hot head gets a relative check too.
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {i}: observed {observed:.4} vs pmf {expected:.4}"
            );
            if expected > 0.05 {
                assert!(
                    (observed / expected - 1.0).abs() < 0.1,
                    "rank {i}: observed {observed:.4} vs pmf {expected:.4}"
                );
            }
        }
    }

    #[test]
    fn zipf_is_deterministic_and_ordered() {
        let zipf = Zipf::new(64, 1.2);
        let mut a = Rng64::seed_from_u64(9);
        let mut b = Rng64::seed_from_u64(9);
        for _ in 0..256 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
        // The table's mass must follow the definition, so it is monotone
        // decreasing in rank for s > 0 and sums to one.
        for i in 0..zipf.len() {
            assert!((table_mass(&zipf, i) - zipf_mass(64, 1.2, i)).abs() < 1e-12);
        }
        for i in 1..zipf.len() {
            assert!(table_mass(&zipf, i) <= table_mass(&zipf, i - 1));
        }
        let total: f64 = (0..zipf.len()).map(|i| table_mass(&zipf, i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let zipf = Zipf::new(8, 0.0);
        for i in 0..8 {
            assert!((table_mass(&zipf, i) - 0.125).abs() < 1e-12);
        }
    }
}
