//! Internal pseudo-random number generation: SplitMix64 seeding, an
//! xorshift64* generator, and Box–Muller normal sampling.
//!
//! This replaces the external `rand`/`rand_distr` crates so the workspace
//! builds fully offline. The API mirrors the subset the workspace used —
//! `StdRng::seed_from_u64`, `Rng::gen`, `Rng::gen_range`,
//! `Normal::new(..).sample(..)`, `Uniform::new_inclusive` — so call sites
//! are import swaps. Sequences are deterministic per seed (and stable across
//! platforms) but intentionally *not* identical to the `rand` crate's.

/// SplitMix64: used to expand a `u64` seed into generator state. Passes
/// through every 64-bit value exactly once; good avalanche behaviour.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// The workspace's standard generator: xorshift64* with SplitMix64-expanded
/// seeding (so nearby seeds produce uncorrelated streams and seed 0 is
/// valid).
#[derive(Clone, Debug)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // xorshift state must be non-zero; SplitMix64 output is zero for at
        // most one input, so loop at most twice.
        let mut state = sm.next_u64();
        if state == 0 {
            state = sm.next_u64() | 1;
        }
        Self { state }
    }
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }
}

/// Random-value source. Implemented by [`StdRng`]; generic code takes
/// `&mut impl Rng` exactly as it did with the external crate.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Uniform sample of a primitive: `f32`/`f64` in `[0, 1)`, integers over
    /// their full range, `bool` fair coin.
    #[inline]
    fn gen<T: SampleUnit>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Uniform sample from a half-open (`a..b`) or inclusive (`a..=b`)
    /// range. Panics on empty ranges, like `rand`.
    #[inline]
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

/// Types [`Rng::gen`] can produce.
pub trait SampleUnit {
    fn from_rng(rng: &mut impl Rng) -> Self;
}

impl SampleUnit for f64 {
    #[inline]
    fn from_rng(rng: &mut impl Rng) -> f64 {
        // 53 mantissa bits -> [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleUnit for f32 {
    #[inline]
    fn from_rng(rng: &mut impl Rng) -> f32 {
        // 24 mantissa bits -> [0, 1)
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl SampleUnit for u64 {
    #[inline]
    fn from_rng(rng: &mut impl Rng) -> u64 {
        rng.next_u64()
    }
}

impl SampleUnit for u32 {
    #[inline]
    fn from_rng(rng: &mut impl Rng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleUnit for bool {
    #[inline]
    fn from_rng(rng: &mut impl Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Unbiased-enough bounded sample via 128-bit widening multiply.
#[inline]
fn bounded(rng: &mut impl Rng, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange {
    type Output;
    fn sample_from(self, rng: &mut impl Rng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, rng: &mut impl Rng) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded(rng, span) as i128) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, rng: &mut impl Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range called with empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i128 + bounded(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64, i32);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from(self, rng: &mut impl Rng) -> f64 {
        assert!(self.start < self.end, "gen_range called with empty range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

impl SampleRange for std::ops::Range<f32> {
    type Output = f32;
    #[inline]
    fn sample_from(self, rng: &mut impl Rng) -> f32 {
        assert!(self.start < self.end, "gen_range called with empty range");
        self.start + rng.gen::<f32>() * (self.end - self.start)
    }
}

/// Distributions that can be sampled with an [`Rng`] — mirrors
/// `rand_distr::Distribution`.
pub trait Distribution<T> {
    fn sample(&self, rng: &mut impl Rng) -> T;
}

/// Float scalar abstraction so [`Normal`] and [`Uniform`] work for both
/// `f32` and `f64`.
pub trait Float: Copy + PartialOrd {
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    fn is_finite_scalar(self) -> bool;
    fn unit(rng: &mut impl Rng) -> Self;
}

impl Float for f64 {
    fn from_f64(v: f64) -> f64 {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
    fn unit(rng: &mut impl Rng) -> f64 {
        rng.gen::<f64>()
    }
}

impl Float for f32 {
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
    fn unit(rng: &mut impl Rng) -> f32 {
        rng.gen::<f32>()
    }
}

/// Error for invalid [`Normal`] parameters (mirrors `rand_distr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NormalError;

impl std::fmt::Display for NormalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "normal distribution requires finite mean and std >= 0")
    }
}

impl std::error::Error for NormalError {}

/// Gaussian distribution sampled with the Box–Muller transform.
#[derive(Clone, Copy, Debug)]
pub struct Normal<T: Float> {
    mean: T,
    std: T,
}

impl<T: Float> Normal<T> {
    pub fn new(mean: T, std: T) -> Result<Self, NormalError> {
        if !mean.is_finite_scalar() || !std.is_finite_scalar() || std.to_f64() < 0.0 {
            return Err(NormalError);
        }
        Ok(Self { mean, std })
    }
}

impl<T: Float> Distribution<T> for Normal<T> {
    #[inline]
    fn sample(&self, rng: &mut impl Rng) -> T {
        // Box–Muller, cosine branch. u1 is nudged away from 0 so ln() is
        // finite; draws stay deterministic per seed.
        let u1 = f64::from_rng(rng).max(f64::MIN_POSITIVE);
        let u2 = f64::from_rng(rng);
        let mag = (-2.0 * u1.ln()).sqrt();
        let z = mag * (2.0 * std::f64::consts::PI * u2).cos();
        T::from_f64(self.mean.to_f64() + self.std.to_f64() * z)
    }
}

/// Uniform distribution over a closed interval `[low, high]`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform<T: Float> {
    low: T,
    span: f64,
}

impl<T: Float> Uniform<T> {
    pub(crate) fn new_inclusive(low: T, high: T) -> Self {
        assert!(low <= high, "Uniform::new_inclusive requires low <= high");
        Self { low, span: high.to_f64() - low.to_f64() }
    }
}

impl<T: Float> Distribution<T> for Uniform<T> {
    #[inline]
    fn sample(&self, rng: &mut impl Rng) -> T {
        T::from_f64(self.low.to_f64() + f64::from_rng(rng) * self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn seed_zero_is_valid() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = rng.next_u64();
        let y = rng.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let g: f32 = rng.gen();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn gen_range_hits_all_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.gen_range(0..7usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Inclusive upper bound is reachable.
        let mut top = false;
        for _ in 0..200 {
            if rng.gen_range(0..=3usize) == 3 {
                top = true;
            }
        }
        assert!(top);
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Uniform::new_inclusive(-2.0f32, 2.0f32);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        assert!((sum / n as f64).abs() < 0.05);
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Normal::new(1.0f64, 2.0).unwrap();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn negative_int_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
    }
}
