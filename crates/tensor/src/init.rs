//! Deterministic parameter initialization.
//!
//! All functions take a caller-provided RNG; the training stack threads one
//! seeded `StdRng` through every component so runs are reproducible.

use crate::matrix::Matrix;
use crate::rng::{Distribution, Normal, Rng, Uniform};

/// Gaussian init with the given standard deviation (GPT-style, e.g. 0.02).
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    let dist = Normal::new(0.0f32, std).expect("std must be finite and positive");
    Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
}

/// Xavier/Glorot uniform init: `U(±sqrt(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    let dist = Uniform::new_inclusive(-limit, limit);
    Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    #[test]
    fn init_is_deterministic_for_same_seed() {
        let a = normal(8, 8, 0.02, &mut StdRng::seed_from_u64(7));
        let b = normal(8, 8, 0.02, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn xavier_respects_limit() {
        let m = xavier_uniform(20, 30, &mut StdRng::seed_from_u64(1));
        let limit = (6.0 / 50.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit + 1e-6));
    }

    #[test]
    fn normal_std_is_approximately_right() {
        let m = normal(100, 100, 0.5, &mut StdRng::seed_from_u64(3));
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var: f32 =
            m.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }
}
