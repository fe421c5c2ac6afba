//! Multi-head causal self-attention with manual backprop.
//!
//! Operates on a `(batch·seq_len) × d_model` activation matrix. The four
//! projections (Q, K, V and the output's `Wo`), their weight gradients and
//! their input gradient are one whole-batch GEMM each — twelve per layer per
//! step. Everything per (sequence, head) — the scores, the causal softmax
//! and the value mix, and their backward — is one call of
//! [`AttentionCore`], which reads each head's Q, K and V block where it
//! lies in the whole-batch matrices and writes its output rows straight
//! into the concatenated heads.
//!
//! Every result is bit for bit what running each sequence and head through
//! its own GEMMs gives (`tests/attention_oracle.rs`): a whole-batch `nn` or
//! `nt` product's rows are its per-sequence products' rows (rows never
//! interact), a whole-batch `tn` weight gradient is one ascending fold over
//! all rows — the per-sequence accumulating calls continued where the
//! previous one stopped — and the core folds each element of the six
//! per-head products as the per-head GEMM folds it (`symi_tensor::attention`).

use std::cell::RefCell;
use symi_tensor::rng::StdRng;
use symi_tensor::{init, AttentionCore, Matrix};

thread_local! {
    /// Backward's whole-batch scratch: `dL/d concat` (then each
    /// projection's share of `dX`), `dQ`, `dK`, `dV`. Nothing reads them
    /// after the call, so a thread's attention layers share one set.
    static BACKWARD_SCRATCH: RefCell<[Matrix; 4]> =
        RefCell::new(std::array::from_fn(|_| Matrix::zeros(0, 0)));
}

/// Multi-head causal self-attention layer.
///
/// The forward cache is persistent, so steady-state iterations at a fixed
/// batch shape perform no heap allocation.
pub struct CausalAttention {
    pub wq: Matrix,
    pub wk: Matrix,
    pub wv: Matrix,
    pub wo: Matrix,
    pub wq_grad: Matrix,
    pub wk_grad: Matrix,
    pub wv_grad: Matrix,
    pub wo_grad: Matrix,
    /// Forward cache, whole batch: the input and its three projections.
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Concatenated head outputs (pre-`Wo`).
    concat: Matrix,
    /// The per-(sequence, head) part, with every head's probabilities.
    core: AttentionCore,
}

impl CausalAttention {
    pub fn new(d_model: usize, n_heads: usize, seq_len: usize, seed: u64) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must divide by n_heads");
        let mut rng = StdRng::seed_from_u64(seed);
        let empty = || Matrix::zeros(0, 0);
        Self {
            wq: init::xavier_uniform(d_model, d_model, &mut rng),
            wk: init::xavier_uniform(d_model, d_model, &mut rng),
            wv: init::xavier_uniform(d_model, d_model, &mut rng),
            wo: init::xavier_uniform(d_model, d_model, &mut rng),
            wq_grad: Matrix::zeros(d_model, d_model),
            wk_grad: Matrix::zeros(d_model, d_model),
            wv_grad: Matrix::zeros(d_model, d_model),
            wo_grad: Matrix::zeros(d_model, d_model),
            x: empty(),
            q: empty(),
            k: empty(),
            v: empty(),
            concat: empty(),
            core: AttentionCore::new(seq_len, n_heads),
        }
    }

    /// Forward over a `(batch·L) × d_model` input.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// [`CausalAttention::forward`] into a reusable output buffer.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        self.x.copy_from(x);
        x.matmul_into(&self.wq, &mut self.q);
        x.matmul_into(&self.wk, &mut self.k);
        x.matmul_into(&self.wv, &mut self.v);
        // Position i attends to j ≤ i.
        self.core.forward(&self.q, &self.k, &self.v, &mut self.concat);
        self.concat.matmul_into(&self.wo, out);
    }

    /// Backward; returns `dX` and accumulates weight gradients.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(dy, &mut dx);
        dx
    }

    /// [`CausalAttention::backward`] into a reusable `dx` buffer. It reads
    /// the forward cache and leaves it intact, so it may run again.
    pub fn backward_into(&mut self, dy: &Matrix, dx: &mut Matrix) {
        let batch = dy.rows() / self.core.seq_len();
        assert_eq!(batch, self.core.cached_seqs(), "backward without matching forward");
        BACKWARD_SCRATCH.with_borrow_mut(|[dconcat, dq, dk, dv]| {
            // Y = concat · Wo
            self.concat.matmul_tn_acc(dy, &mut self.wo_grad);
            dy.matmul_nt_into(&self.wo, dconcat);

            self.core.backward(&self.q, &self.k, &self.v, dconcat, dq, dk, dv);

            // Q = X Wq etc.
            self.x.matmul_tn_acc(dq, &mut self.wq_grad);
            self.x.matmul_tn_acc(dk, &mut self.wk_grad);
            self.x.matmul_tn_acc(dv, &mut self.wv_grad);
            dq.matmul_nt_into(&self.wq, dx);
            dk.matmul_nt_into(&self.wk, dconcat);
            dx.axpy(1.0, dconcat);
            dv.matmul_nt_into(&self.wv, dconcat);
            dx.axpy(1.0, dconcat);
        });
    }

    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &[f32])) {
        f(&mut self.wq, self.wq_grad.as_slice());
        f(&mut self.wk, self.wk_grad.as_slice());
        f(&mut self.wv, self.wv_grad.as_slice());
        f(&mut self.wo, self.wo_grad.as_slice());
    }

    pub fn zero_grad(&mut self) {
        self.wq_grad.fill_zero();
        self.wk_grad.fill_zero();
        self.wv_grad.fill_zero();
        self.wo_grad.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_tensor::gradcheck::numerical_grad;

    fn forward_fn(attn_template: &CausalAttention, x: &Matrix) -> Matrix {
        // Rebuild a throwaway layer sharing the same weights for numeric
        // probing (forward mutates the cache, so we clone).
        let mut a = CausalAttention::new(
            attn_template.wq.rows(),
            attn_template.core.heads(),
            attn_template.core.seq_len(),
            0,
        );
        a.wq = attn_template.wq.clone();
        a.wk = attn_template.wk.clone();
        a.wv = attn_template.wv.clone();
        a.wo = attn_template.wo.clone();
        a.forward(x)
    }

    #[test]
    fn causality_holds() {
        // Changing a later token must not affect earlier outputs.
        let mut attn = CausalAttention::new(8, 2, 4, 7);
        let x1 = Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) as f32 * 0.1).sin());
        let mut x2 = x1.clone();
        for c in 0..8 {
            x2[(3, c)] += 1.0; // perturb the last position
        }
        let y1 = attn.forward(&x1);
        let y2 = attn.forward(&x2);
        for i in 0..3 {
            assert_eq!(y1.row(i), y2.row(i), "position {i} must ignore the future");
        }
        assert_ne!(y1.row(3), y2.row(3));
    }

    #[test]
    fn sequences_in_a_batch_are_independent() {
        let mut attn = CausalAttention::new(8, 2, 4, 7);
        let x = Matrix::from_fn(8, 8, |r, c| ((r + c) as f32 * 0.2).cos());
        let y_batch = attn.forward(&x);
        let first: Vec<usize> = (0..4).collect();
        let y_single = attn.forward(&x.gather_rows(&first));
        for i in 0..4 {
            assert_eq!(y_batch.row(i), y_single.row(i));
        }
    }

    #[test]
    fn backward_input_grad_matches_numeric() {
        let mut attn = CausalAttention::new(8, 2, 4, 11);
        let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) as f32 * 0.17).sin());
        let dy = Matrix::from_fn(8, 8, |r, c| ((r + 2 * c) as f32 * 0.13).cos());

        let _ = attn.forward(&x);
        let dx = attn.backward(&dy);

        let probe = CausalAttention::new(8, 2, 4, 11);
        let ndx = numerical_grad(&x, &dy, |xp| forward_fn(&probe, xp));
        assert!(dx.max_abs_diff(&ndx) < 2e-2, "diff {}", dx.max_abs_diff(&ndx));
    }

    #[test]
    fn backward_weight_grads_match_numeric() {
        let mut attn = CausalAttention::new(8, 2, 4, 13);
        let x = Matrix::from_fn(4, 8, |r, c| ((r * 5 + c) as f32 * 0.19).sin());
        let dy = Matrix::from_fn(4, 8, |r, c| ((r * 2 + c) as f32 * 0.11).cos());

        let _ = attn.forward(&x);
        let _ = attn.backward(&dy);

        for (name, grad, probe_w) in [
            ("wq", attn.wq_grad.clone(), 0usize),
            ("wk", attn.wk_grad.clone(), 1),
            ("wv", attn.wv_grad.clone(), 2),
            ("wo", attn.wo_grad.clone(), 3),
        ] {
            let base = [&attn.wq, &attn.wk, &attn.wv, &attn.wo][probe_w].clone();
            let ngrad = numerical_grad(&base, &dy, |wp| {
                let mut a = CausalAttention::new(8, 2, 4, 0);
                a.wq = attn.wq.clone();
                a.wk = attn.wk.clone();
                a.wv = attn.wv.clone();
                a.wo = attn.wo.clone();
                match probe_w {
                    0 => a.wq = wp.clone(),
                    1 => a.wk = wp.clone(),
                    2 => a.wv = wp.clone(),
                    _ => a.wo = wp.clone(),
                }
                a.forward(&x)
            });
            assert!(
                grad.max_abs_diff(&ngrad) < 2e-2,
                "{name} grad diff {}",
                grad.max_abs_diff(&ngrad)
            );
        }
    }

    #[test]
    fn attention_rows_mix_only_the_past() {
        // With V = identity-ish embedding, output at position 0 equals
        // V's row 0 transformed — i.e. softmax over a single element.
        let mut attn = CausalAttention::new(4, 1, 3, 3);
        let x = Matrix::from_fn(3, 4, |r, c| if r == c { 1.0 } else { 0.1 });
        let _ = attn.forward(&x);
        // Probabilities of the only head: row 0 must be [1, 0, 0].
        let p = |j| attn.core.prob(0, 0, 0, j);
        assert!((p(0) - 1.0).abs() < 1e-6);
        assert!(p(1).abs() < 1e-6 && p(2).abs() < 1e-6);
    }
}
