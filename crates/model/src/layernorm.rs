//! LayerNorm layer object wrapping the kernels in `symi-tensor`.

use symi_tensor::ops::{layernorm_backward_into, layernorm_into, LayerNormCache};
use symi_tensor::Matrix;

/// LayerNorm with learned affine parameters.
pub struct LayerNorm {
    pub gamma: Matrix,
    pub beta: Matrix,
    pub gamma_grad: Matrix,
    pub beta_grad: Matrix,
    eps: f32,
    /// Forward cache, refilled in place; empty before the first forward.
    cache: LayerNormCache,
    /// This backward's own `dgamma` / `dbeta`, added to the gradients whole.
    scratch_dgamma: Matrix,
    scratch_dbeta: Matrix,
}

impl LayerNorm {
    pub fn new(d_model: usize) -> Self {
        Self {
            gamma: Matrix::from_vec(1, d_model, vec![1.0; d_model]),
            beta: Matrix::zeros(1, d_model),
            gamma_grad: Matrix::zeros(1, d_model),
            beta_grad: Matrix::zeros(1, d_model),
            eps: 1e-5,
            cache: LayerNormCache::new(),
            scratch_dgamma: Matrix::zeros(0, 0),
            scratch_dbeta: Matrix::zeros(0, 0),
        }
    }

    /// Normalises every row of `x` into `y`, caching what backward reads.
    pub(crate) fn forward_into(&mut self, x: &Matrix, y: &mut Matrix) {
        layernorm_into(x, &self.gamma, &self.beta, self.eps, y, &mut self.cache);
    }

    /// `dx` from the last forward's cache; accumulates the parameter
    /// gradients.
    pub(crate) fn backward_into(&mut self, dy: &Matrix, dx: &mut Matrix) {
        assert_eq!(self.cache.inv_std.len(), dy.rows(), "backward without matching forward");
        let (dgamma, dbeta) = (&mut self.scratch_dgamma, &mut self.scratch_dbeta);
        layernorm_backward_into(dy, &self.gamma, &self.cache, dx, dgamma, dbeta);
        self.gamma_grad.axpy(1.0, dgamma);
        self.beta_grad.axpy(1.0, dbeta);
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

    fn forward(ln: &mut LayerNorm, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        ln.forward_into(x, &mut y);
        y
    }

    fn backward(ln: &mut LayerNorm, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        ln.backward_into(dy, &mut dx);
        dx
    }

    #[test]
    fn layer_backward_matches_numeric() {
        let mut ln = LayerNorm::new(6);
        // Non-identity affine so gamma/beta grads are exercised.
        ln.gamma = Matrix::from_fn(1, 6, |_, c| 1.0 + 0.2 * c as f32);
        ln.beta = Matrix::from_fn(1, 6, |_, c| 0.1 * c as f32);
        let x = Matrix::from_fn(3, 6, |r, c| ((r * 6 + c) as f32 * 0.31).sin());
        let dy = Matrix::from_fn(3, 6, |r, c| ((r + c) as f32 * 0.23).cos());

        let _ = forward(&mut ln, &x);
        let dx = backward(&mut ln, &dy);

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
        let _ = forward(&mut ln, &x);
        let _ = backward(&mut ln, &dy);
        let once = ln.beta_grad.clone();
        let _ = forward(&mut ln, &x);
        let _ = backward(&mut ln, &dy);
        let mut twice = once.clone();
        twice.scale(2.0);
        assert!(ln.beta_grad.max_abs_diff(&twice) < 1e-5);
    }
}
