//! LayerNorm layer object wrapping the kernels in `symi-tensor`.

use symi_tensor::ops::{layernorm, layernorm_backward, LayerNormCache};
use symi_tensor::Matrix;

/// LayerNorm with learned affine parameters.
pub struct LayerNorm {
    pub gamma: Matrix,
    pub beta: Matrix,
    pub gamma_grad: Matrix,
    pub beta_grad: Matrix,
    eps: f32,
    cache: Option<LayerNormCache>,
}

impl LayerNorm {
    pub fn new(d_model: usize) -> Self {
        Self {
            gamma: Matrix::from_vec(1, d_model, vec![1.0; d_model]),
            beta: Matrix::zeros(1, d_model),
            gamma_grad: Matrix::zeros(1, d_model),
            beta_grad: Matrix::zeros(1, d_model),
            eps: 1e-5,
            cache: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let (y, cache) = layernorm(x, &self.gamma, &self.beta, self.eps);
        self.cache = Some(cache);
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("backward before forward");
        let (dx, dgamma, dbeta) = layernorm_backward(dy, &self.gamma, cache);
        self.gamma_grad.axpy(1.0, &dgamma);
        self.beta_grad.axpy(1.0, &dbeta);
        dx
    }

    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &[f32])) {
        f(&mut self.gamma, self.gamma_grad.as_slice());
        f(&mut self.beta, self.beta_grad.as_slice());
    }

    pub fn zero_grad(&mut self) {
        self.gamma_grad.fill_zero();
        self.beta_grad.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_tensor::gradcheck::numerical_grad;

    #[test]
    fn layer_backward_matches_numeric() {
        let mut ln = LayerNorm::new(6);
        // Non-identity affine so gamma/beta grads are exercised.
        ln.gamma = Matrix::from_fn(1, 6, |_, c| 1.0 + 0.2 * c as f32);
        ln.beta = Matrix::from_fn(1, 6, |_, c| 0.1 * c as f32);
        let x = Matrix::from_fn(3, 6, |r, c| ((r * 6 + c) as f32 * 0.31).sin());
        let dy = Matrix::from_fn(3, 6, |r, c| ((r + c) as f32 * 0.23).cos());

        let _ = ln.forward(&x);
        let dx = ln.backward(&dy);

        let gamma = ln.gamma.clone();
        let beta = ln.beta.clone();
        let ndx =
            numerical_grad(&x, &dy, |xp| symi_tensor::ops::layernorm(xp, &gamma, &beta, 1e-5).0);
        assert!(dx.max_abs_diff(&ndx) < 1e-2);
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let mut ln = LayerNorm::new(4);
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.5 + 0.1);
        let dy = Matrix::from_fn(2, 4, |_, _| 1.0);
        let _ = ln.forward(&x);
        let _ = ln.backward(&dy);
        let once = ln.beta_grad.clone();
        let _ = ln.forward(&x);
        let _ = ln.backward(&dy);
        let mut twice = once.clone();
        twice.scale(2.0);
        assert!(ln.beta_grad.max_abs_diff(&twice) < 1e-5);
    }
}
