//! Token + learned positional embedding, and the tied output projection.

use symi_tensor::rng::StdRng;
use symi_tensor::{init, Matrix};

/// Token/positional embedding table with gradient accumulation.
pub struct Embedding {
    /// `vocab × d_model` token table.
    pub tok: Matrix,
    /// `seq_len × d_model` positional table.
    pub pos: Matrix,
    pub tok_grad: Matrix,
    pub pos_grad: Matrix,
    cached_tokens: Vec<u32>,
    seq_len: usize,
}

impl Embedding {
    pub fn new(vocab: usize, seq_len: usize, d_model: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            tok: init::normal(vocab, d_model, 0.05, &mut rng),
            pos: init::normal(seq_len, d_model, 0.05, &mut rng),
            tok_grad: Matrix::zeros(vocab, d_model),
            pos_grad: Matrix::zeros(seq_len, d_model),
            cached_tokens: Vec::new(),
            seq_len,
        }
    }

    /// Embeds a flat `batch × seq_len` token buffer into a
    /// `(batch·seq_len) × d_model` activation matrix.
    pub fn forward(&mut self, tokens: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(tokens, &mut out);
        out
    }

    /// [`Embedding::forward`] into a reusable output buffer.
    pub(crate) fn forward_into(&mut self, tokens: &[u32], out: &mut Matrix) {
        assert_eq!(tokens.len() % self.seq_len, 0, "tokens must tile whole sequences");
        self.cached_tokens.clear();
        self.cached_tokens.extend_from_slice(tokens);
        out.resize_to(tokens.len(), self.tok.cols());
        for (i, &t) in tokens.iter().enumerate() {
            let pos = i % self.seq_len;
            out.copy_row_from(i, &self.tok, t as usize);
            out.axpy_row_from(i, 1.0, &self.pos, pos);
        }
    }

    /// Accumulates gradients for the last forward pass.
    pub fn backward(&mut self, dy: &Matrix) {
        assert_eq!(dy.rows(), self.cached_tokens.len(), "backward shape mismatch");
        for (i, &t) in self.cached_tokens.iter().enumerate() {
            let pos = i % self.seq_len;
            self.tok_grad.axpy_row_from(t as usize, 1.0, dy, i);
            self.pos_grad.axpy_row_from(pos, 1.0, dy, i);
        }
    }

    /// Visits `(param, grad)` pairs for the optimizer.
    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &[f32])) {
        f(&mut self.tok, self.tok_grad.as_slice());
        f(&mut self.pos, self.pos_grad.as_slice());
    }

    pub fn zero_grad(&mut self) {
        self.tok_grad.fill_zero();
        self.pos_grad.fill_zero();
    }
}

/// Output head: a `d_model × vocab` projection.
pub struct LmHead {
    pub w: Matrix,
    pub w_grad: Matrix,
    cached_input: Matrix,
    /// This backward's own weight gradient, added to `w_grad` whole.
    scratch_dw: Matrix,
}

impl LmHead {
    pub fn new(d_model: usize, vocab: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            w: init::xavier_uniform(d_model, vocab, &mut rng),
            w_grad: Matrix::zeros(d_model, vocab),
            cached_input: Matrix::zeros(0, 0),
            scratch_dw: Matrix::zeros(0, 0),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// [`LmHead::forward`] into a reusable output buffer.
    pub(crate) fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        self.cached_input.copy_from(x);
        x.matmul_into(&self.w, out);
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(dy, &mut dx);
        dx
    }

    /// [`LmHead::backward`] into a reusable `dx` buffer.
    pub(crate) fn backward_into(&mut self, dy: &Matrix, dx: &mut Matrix) {
        self.cached_input.matmul_tn_into(dy, &mut self.scratch_dw);
        self.w_grad.axpy(1.0, &self.scratch_dw);
        dy.matmul_nt_into(&self.w, dx);
    }

    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &[f32])) {
        f(&mut self.w, self.w_grad.as_slice());
    }

    pub fn zero_grad(&mut self) {
        self.w_grad.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_tensor::gradcheck::numerical_grad;

    #[test]
    fn embedding_adds_token_and_position() {
        let mut e = Embedding::new(10, 4, 8, 1);
        let out = e.forward(&[3, 7, 3, 1]);
        // Row 0 and row 2 share token 3 but differ by position vectors.
        let mut expected0 = Matrix::zeros(1, 8);
        expected0.copy_row_from(0, &e.tok, 3);
        expected0.axpy_row_from(0, 1.0, &e.pos, 0);
        assert_eq!(out.row(0), expected0.row(0));
        assert_ne!(out.row(0), out.row(2));
    }

    #[test]
    fn embedding_backward_scatters_gradients() {
        let mut e = Embedding::new(6, 2, 4, 2);
        let _ = e.forward(&[5, 5]); // token 5 at positions 0 and 1
        let dy = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        e.backward(&dy);
        // Token 5's grad is the sum of both rows.
        let expect: Vec<f32> = (0..4).map(|c| (c as f32) + (4 + c) as f32).collect();
        assert_eq!(e.tok_grad.row(5), expect.as_slice());
        // Position grads are the individual rows.
        assert_eq!(e.pos_grad.row(0), dy.row(0));
        assert_eq!(e.pos_grad.row(1), dy.row(1));
        // Untouched tokens stay zero.
        assert!(e.tok_grad.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lm_head_backward_matches_numeric() {
        let mut head = LmHead::new(6, 9, 3);
        let x = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32 * 0.3).sin());
        let dy = Matrix::from_fn(4, 9, |r, c| ((r + c) as f32 * 0.21).cos());

        let _ = head.forward(&x);
        let dx = head.backward(&dy);

        let w_snapshot = head.w.clone();
        let ndx = numerical_grad(&x, &dy, |xp| xp.matmul(&w_snapshot));
        assert!(dx.max_abs_diff(&ndx) < 1e-2);

        let ndw = numerical_grad(&w_snapshot, &dy, |wp| x.matmul(wp));
        assert!(head.w_grad.max_abs_diff(&ndw) < 1e-2);
    }

    #[test]
    fn zero_grad_clears() {
        let mut e = Embedding::new(4, 2, 4, 1);
        let _ = e.forward(&[1, 2]);
        e.backward(&Matrix::from_fn(2, 4, |_, _| 1.0));
        e.zero_grad();
        assert!(e.tok_grad.as_slice().iter().all(|&v| v == 0.0));
    }
}
