//! Multi-head causal self-attention with manual backprop.
//!
//! Operates on a `(batch·seq_len) × d_model` activation matrix; sequences
//! are independent, so forward/backward loop over them. Head projections
//! use column slices of fused `Wq/Wk/Wv` matrices.

use symi_tensor::ops::{softmax_rows_backward_into, softmax_rows_into};
use symi_tensor::rng::StdRng;
use symi_tensor::{init, Matrix};

/// Per-sequence forward cache. All matrices are persistent buffers reused
/// across iterations (`forward` refills them in place).
struct SeqCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Softmax attention probabilities per head.
    probs: Vec<Matrix>,
    /// Concatenated head outputs (pre-`Wo`).
    concat: Matrix,
}

impl SeqCache {
    fn empty() -> Self {
        Self {
            x: Matrix::zeros(0, 0),
            q: Matrix::zeros(0, 0),
            k: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
            probs: Vec::new(),
            concat: Matrix::zeros(0, 0),
        }
    }
}

/// Multi-head causal self-attention layer.
///
/// Sequence caches and per-head scratch are persistent, so steady-state
/// iterations at a fixed batch shape perform no heap allocation.
pub struct CausalAttention {
    pub wq: Matrix,
    pub wk: Matrix,
    pub wv: Matrix,
    pub wo: Matrix,
    pub wq_grad: Matrix,
    pub wk_grad: Matrix,
    pub wv_grad: Matrix,
    pub wo_grad: Matrix,
    n_heads: usize,
    seq_len: usize,
    cache: Vec<SeqCache>,
    /// Sequences the cache currently holds (≤ `cache.len()`, which only
    /// grows; lets a smaller batch reuse the larger allocation).
    cached_seqs: usize,
    scratch_qh: Matrix,
    scratch_kh: Matrix,
    scratch_vh: Matrix,
    scratch_scores: Matrix,
    scratch_oh: Matrix,
    scratch_y: Matrix,
    scratch_dys: Matrix,
    scratch_dconcat: Matrix,
    scratch_dq: Matrix,
    scratch_dk: Matrix,
    scratch_dv: Matrix,
    scratch_dp: Matrix,
    scratch_ds: Matrix,
    scratch_dh: Matrix,
    scratch_dxs: Matrix,
    scratch_dw: Matrix,
}

impl CausalAttention {
    pub fn new(d_model: usize, n_heads: usize, seq_len: usize, seed: u64) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must divide by n_heads");
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            wq: init::xavier_uniform(d_model, d_model, &mut rng),
            wk: init::xavier_uniform(d_model, d_model, &mut rng),
            wv: init::xavier_uniform(d_model, d_model, &mut rng),
            wo: init::xavier_uniform(d_model, d_model, &mut rng),
            wq_grad: Matrix::zeros(d_model, d_model),
            wk_grad: Matrix::zeros(d_model, d_model),
            wv_grad: Matrix::zeros(d_model, d_model),
            wo_grad: Matrix::zeros(d_model, d_model),
            n_heads,
            seq_len,
            cache: Vec::new(),
            cached_seqs: 0,
            scratch_qh: Matrix::zeros(0, 0),
            scratch_kh: Matrix::zeros(0, 0),
            scratch_vh: Matrix::zeros(0, 0),
            scratch_scores: Matrix::zeros(0, 0),
            scratch_oh: Matrix::zeros(0, 0),
            scratch_y: Matrix::zeros(0, 0),
            scratch_dys: Matrix::zeros(0, 0),
            scratch_dconcat: Matrix::zeros(0, 0),
            scratch_dq: Matrix::zeros(0, 0),
            scratch_dk: Matrix::zeros(0, 0),
            scratch_dv: Matrix::zeros(0, 0),
            scratch_dp: Matrix::zeros(0, 0),
            scratch_ds: Matrix::zeros(0, 0),
            scratch_dh: Matrix::zeros(0, 0),
            scratch_dxs: Matrix::zeros(0, 0),
            scratch_dw: Matrix::zeros(0, 0),
        }
    }

    fn d_model(&self) -> usize {
        self.wq.rows()
    }

    fn d_head(&self) -> usize {
        self.d_model() / self.n_heads
    }

    /// Forward over a `(batch·L) × d_model` input.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let l = self.seq_len;
        assert_eq!(x.rows() % l, 0, "input must tile whole sequences");
        let batch = x.rows() / l;
        let d = self.d_model();
        let dh = self.d_head();
        let heads = self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut out = Matrix::zeros(x.rows(), d);
        if self.cache.len() < batch {
            self.cache.resize_with(batch, SeqCache::empty);
        }
        self.cached_seqs = batch;

        for b in 0..batch {
            let c = &mut self.cache[b];
            // Sequence b's rows are contiguous: copy the block directly.
            c.x.resize_to(l, d);
            c.x.as_mut_slice().copy_from_slice(&x.as_slice()[b * l * d..(b + 1) * l * d]);
            c.x.matmul_into(&self.wq, &mut c.q);
            c.x.matmul_into(&self.wk, &mut c.k);
            c.x.matmul_into(&self.wv, &mut c.v);

            c.concat.resize_to(l, d);
            if c.probs.len() < heads {
                c.probs.resize_with(heads, || Matrix::zeros(0, 0));
            }
            for h in 0..heads {
                copy_head_into(&c.q, h, dh, &mut self.scratch_qh);
                copy_head_into(&c.k, h, dh, &mut self.scratch_kh);
                copy_head_into(&c.v, h, dh, &mut self.scratch_vh);
                self.scratch_qh.matmul_nt_into(&self.scratch_kh, &mut self.scratch_scores);
                self.scratch_scores.scale(scale);
                // Causal mask: position i attends to j ≤ i.
                for i in 0..l {
                    for j in i + 1..l {
                        self.scratch_scores[(i, j)] = -1.0e9;
                    }
                }
                softmax_rows_into(&self.scratch_scores, &mut c.probs[h]);
                c.probs[h].matmul_into(&self.scratch_vh, &mut self.scratch_oh);
                set_head(&mut c.concat, &self.scratch_oh, h, dh);
            }
            c.concat.matmul_into(&self.wo, &mut self.scratch_y);
            out.as_mut_slice()[b * l * d..(b + 1) * l * d]
                .copy_from_slice(self.scratch_y.as_slice());
        }
        out
    }

    /// Backward; returns `dX` and accumulates weight gradients.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let l = self.seq_len;
        let batch = dy.rows() / l;
        assert_eq!(batch, self.cached_seqs, "backward without matching forward");
        let d = self.d_model();
        let dh = self.d_head();
        let heads = self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut dx = Matrix::zeros(dy.rows(), d);

        for b in 0..batch {
            self.scratch_dys.resize_to(l, d);
            self.scratch_dys
                .as_mut_slice()
                .copy_from_slice(&dy.as_slice()[b * l * d..(b + 1) * l * d]);
            let c = &self.cache[b];

            // Y = concat · Wo
            c.concat.matmul_tn_acc(&self.scratch_dys, &mut self.wo_grad);
            self.scratch_dys.matmul_nt_into(&self.wo, &mut self.scratch_dconcat);

            self.scratch_dq.resize_to(l, d);
            self.scratch_dk.resize_to(l, d);
            self.scratch_dv.resize_to(l, d);
            for h in 0..heads {
                // doh: upstream gradient of this head's output block.
                copy_head_into(&self.scratch_dconcat, h, dh, &mut self.scratch_dh);
                copy_head_into(&c.v, h, dh, &mut self.scratch_vh);
                copy_head_into(&c.q, h, dh, &mut self.scratch_qh);
                copy_head_into(&c.k, h, dh, &mut self.scratch_kh);
                let p = &c.probs[h];

                // Oh = P · Vh
                self.scratch_dh.matmul_nt_into(&self.scratch_vh, &mut self.scratch_dp);
                p.matmul_tn_into(&self.scratch_dh, &mut self.scratch_oh); // dVh
                set_head(&mut self.scratch_dv, &self.scratch_oh, h, dh);
                // P = softmax(S); S = scale · Qh Khᵀ (masked entries have
                // zero probability so their score grads vanish).
                softmax_rows_backward_into(p, &self.scratch_dp, &mut self.scratch_ds);
                self.scratch_ds.scale(scale);
                self.scratch_ds.matmul_into(&self.scratch_kh, &mut self.scratch_oh); // dQh
                set_head(&mut self.scratch_dq, &self.scratch_oh, h, dh);
                self.scratch_ds.matmul_tn_into(&self.scratch_qh, &mut self.scratch_oh); // dKh
                set_head(&mut self.scratch_dk, &self.scratch_oh, h, dh);
            }

            // Q = X Wq etc.
            c.x.matmul_tn_acc(&self.scratch_dq, &mut self.wq_grad);
            c.x.matmul_tn_acc(&self.scratch_dk, &mut self.wk_grad);
            c.x.matmul_tn_acc(&self.scratch_dv, &mut self.wv_grad);
            self.scratch_dq.matmul_nt_into(&self.wq, &mut self.scratch_dxs);
            self.scratch_dk.matmul_nt_into(&self.wk, &mut self.scratch_dw);
            self.scratch_dxs.axpy(1.0, &self.scratch_dw);
            self.scratch_dv.matmul_nt_into(&self.wv, &mut self.scratch_dw);
            self.scratch_dxs.axpy(1.0, &self.scratch_dw);

            dx.as_mut_slice()[b * l * d..(b + 1) * l * d]
                .copy_from_slice(self.scratch_dxs.as_slice());
        }
        dx
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

/// Copies head `h`'s column block (`dh` wide) of `m` into `out`, reusing
/// `out`'s allocation.
fn copy_head_into(m: &Matrix, h: usize, dh: usize, out: &mut Matrix) {
    out.resize_to(m.rows(), dh);
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(&m.row(r)[h * dh..(h + 1) * dh]);
    }
}

/// Writes `src` into head `h`'s column block of `dst` (blocks are disjoint
/// across heads, so a copy replaces the old zero-then-add sequence).
fn set_head(dst: &mut Matrix, src: &Matrix, h: usize, dh: usize) {
    for r in 0..src.rows() {
        dst.row_mut(r)[h * dh..(h + 1) * dh].copy_from_slice(src.row(r));
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
            attn_template.d_model(),
            attn_template.n_heads,
            attn_template.seq_len,
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
        // Probability matrix of the only head: row 0 must be [1, 0, 0].
        let p = &attn.cache[0].probs[0];
        assert!((p[(0, 0)] - 1.0).abs() < 1e-6);
        assert!(p[(0, 1)].abs() < 1e-6 && p[(0, 2)].abs() < 1e-6);
    }
}
