//! Numerical differentiation harness for gradient tests.
//!
//! Manual backprop is the highest-risk code in this reproduction; every layer
//! in `symi-model` pins its backward pass against central differences through
//! these helpers.

use crate::matrix::Matrix;

/// Central-difference gradient of `sum(f(x) ⊙ dy)` w.r.t. `x`.
///
/// `dy` plays the role of the upstream gradient; contracting against it turns
/// a matrix-valued function into the scalar that analytic backward passes
/// differentiate.
pub fn numerical_grad(x: &Matrix, dy: &Matrix, mut f: impl FnMut(&Matrix) -> Matrix) -> Matrix {
    let eps = 1e-2f32;
    let mut probe = x.clone();
    let mut grad = Matrix::zeros(x.rows(), x.cols());
    for i in 0..probe.len() {
        let orig = probe.as_slice()[i];
        probe.as_mut_slice()[i] = orig + eps;
        let plus = contract(&f(&probe), dy);
        probe.as_mut_slice()[i] = orig - eps;
        let minus = contract(&f(&probe), dy);
        probe.as_mut_slice()[i] = orig;
        grad.as_mut_slice()[i] = ((plus - minus) / (2.0 * eps as f64)) as f32;
    }
    grad
}

/// Central-difference gradient of a scalar-valued function.
pub fn numerical_grad_scalar(x: &Matrix, mut f: impl FnMut(&Matrix) -> f32) -> Matrix {
    let eps = 1e-2f32;
    let mut probe = x.clone();
    let mut grad = Matrix::zeros(x.rows(), x.cols());
    for i in 0..probe.len() {
        let orig = probe.as_slice()[i];
        probe.as_mut_slice()[i] = orig + eps;
        let plus = f(&probe) as f64;
        probe.as_mut_slice()[i] = orig - eps;
        let minus = f(&probe) as f64;
        probe.as_mut_slice()[i] = orig;
        grad.as_mut_slice()[i] = ((plus - minus) / (2.0 * eps as f64)) as f32;
    }
    grad
}

fn contract(y: &Matrix, dy: &Matrix) -> f64 {
    assert_eq!((y.rows(), y.cols()), (dy.rows(), dy.cols()), "contract shape mismatch");
    y.as_slice().iter().zip(dy.as_slice()).map(|(a, b)| *a as f64 * *b as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_grad_of_identity_is_dy() {
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let dy = Matrix::from_fn(2, 3, |r, c| (r as f32 + 1.0) * (c as f32 - 1.0));
        let g = numerical_grad(&x, &dy, |m| m.clone());
        assert!(g.max_abs_diff(&dy) < 1e-3);
    }

    #[test]
    fn numeric_grad_of_square_is_2x_dy() {
        let x = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32 + 0.5);
        let dy = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let g = numerical_grad(&x, &dy, |m| {
            Matrix::from_fn(m.rows(), m.cols(), |r, c| m[(r, c)] * m[(r, c)])
        });
        let mut expect = x.clone();
        expect.scale(2.0);
        assert!(g.max_abs_diff(&expect) < 1e-2);
    }
}
