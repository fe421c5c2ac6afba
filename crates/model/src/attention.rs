//! Multi-head causal self-attention with manual backprop.
//!
//! Operates on a `(batch·seq_len) × d_model` activation matrix. The four
//! projections (Q, K, V and the output's `Wo`), their weight gradients and
//! their input gradient are one whole-batch GEMM each — twelve per layer per
//! step. Only the per-head score / mix GEMMs run per (sequence, head), on
//! column blocks of the batch's Q, K and V; the causal softmax scales and
//! normalises each score row's `j ≤ i` part only, with no mask written
//! ([`causal_softmax_in_place`]).
//!
//! Every result is bit for bit what running each sequence on its own gives:
//! a whole-batch `nn` or `nt` product's rows are its per-sequence products'
//! rows (rows never interact), and a whole-batch `tn` weight gradient is one
//! ascending fold over all rows — the per-sequence accumulating calls
//! continued where the previous one stopped (`tests/attention_oracle.rs`).
//! The one proviso is the AVX2 `nt`, which picks its kernel by row count:
//! both sides must pick the same one, as they do from `seq_len` 32 on
//! (`small_sim`) or for a whole batch under 32 rows.

use std::cell::RefCell;
use symi_tensor::ops::{causal_softmax_in_place, softmax_rows_backward_into};
use symi_tensor::rng::StdRng;
use symi_tensor::{init, Matrix};

thread_local! {
    /// Backward's whole-batch scratch: `dL/d concat` (then each
    /// projection's share of `dX`), `dQ`, `dK`, `dV`. Nothing reads them
    /// after the call, so a thread's attention layers share one set.
    static BACKWARD_SCRATCH: RefCell<[Matrix; 4]> =
        RefCell::new(std::array::from_fn(|_| Matrix::zeros(0, 0)));
}

/// Multi-head causal self-attention layer.
///
/// The forward cache and the per-head scratch are persistent, so
/// steady-state iterations at a fixed batch shape perform no heap
/// allocation.
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
    /// Forward cache, whole batch: the input and its three projections.
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Softmax probabilities of sequence `b`, head `h` at `b·n_heads + h`
    /// (only grows; the first `cached_seqs·n_heads` are live).
    probs: Vec<Matrix>,
    /// Concatenated head outputs (pre-`Wo`).
    concat: Matrix,
    /// Sequences the cache holds.
    cached_seqs: usize,
    /// Per-(sequence, head) blocks: `seq_len × d_head` (`qh` … `dh`) and
    /// `seq_len × seq_len` (`dp`, `ds`).
    qh: Matrix,
    kh: Matrix,
    vh: Matrix,
    oh: Matrix,
    dh: Matrix,
    dp: Matrix,
    ds: Matrix,
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
            n_heads,
            seq_len,
            x: empty(),
            q: empty(),
            k: empty(),
            v: empty(),
            probs: Vec::new(),
            concat: empty(),
            cached_seqs: 0,
            qh: empty(),
            kh: empty(),
            vh: empty(),
            oh: empty(),
            dh: empty(),
            dp: empty(),
            ds: empty(),
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
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// [`CausalAttention::forward`] into a reusable output buffer.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        let l = self.seq_len;
        assert_eq!(x.rows() % l, 0, "input must tile whole sequences");
        let batch = x.rows() / l;
        let (d, dh, heads) = (self.d_model(), self.d_head(), self.n_heads);
        let scale = 1.0 / (dh as f32).sqrt();
        self.x.copy_from(x);
        x.matmul_into(&self.wq, &mut self.q);
        x.matmul_into(&self.wk, &mut self.k);
        x.matmul_into(&self.wv, &mut self.v);
        if self.probs.len() < batch * heads {
            self.probs.resize_with(batch * heads, || Matrix::zeros(0, 0));
        }
        self.cached_seqs = batch;

        self.concat.resize_to(x.rows(), d);
        for b in 0..batch {
            for h in 0..heads {
                copy_block(&self.q, b * l, l, h * dh, dh, &mut self.qh);
                copy_block(&self.k, b * l, l, h * dh, dh, &mut self.kh);
                copy_block(&self.v, b * l, l, h * dh, dh, &mut self.vh);
                let p = &mut self.probs[b * heads + h];
                self.qh.matmul_nt_into(&self.kh, p);
                // Position i attends to j ≤ i.
                causal_softmax_in_place(p, scale);
                p.matmul_into(&self.vh, &mut self.oh);
                set_block(&mut self.concat, b * l, h * dh, &self.oh);
            }
        }
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
        let l = self.seq_len;
        let batch = dy.rows() / l;
        assert_eq!(batch, self.cached_seqs, "backward without matching forward");
        let (d, dh, heads) = (self.d_model(), self.d_head(), self.n_heads);
        let scale = 1.0 / (dh as f32).sqrt();
        BACKWARD_SCRATCH.with_borrow_mut(|[dconcat, dq, dk, dv]| {
            // Y = concat · Wo
            self.concat.matmul_tn_acc(dy, &mut self.wo_grad);
            dy.matmul_nt_into(&self.wo, dconcat);

            for m in [&mut *dq, &mut *dk, &mut *dv] {
                m.resize_to(dy.rows(), d);
            }
            for b in 0..batch {
                for h in 0..heads {
                    // dh: upstream gradient of this head's output block.
                    copy_block(dconcat, b * l, l, h * dh, dh, &mut self.dh);
                    copy_block(&self.v, b * l, l, h * dh, dh, &mut self.vh);
                    copy_block(&self.q, b * l, l, h * dh, dh, &mut self.qh);
                    copy_block(&self.k, b * l, l, h * dh, dh, &mut self.kh);
                    let p = &self.probs[b * heads + h];

                    // Oh = P · Vh
                    self.dh.matmul_nt_into(&self.vh, &mut self.dp);
                    p.matmul_tn_into(&self.dh, &mut self.oh); // dVh
                    set_block(dv, b * l, h * dh, &self.oh);
                    // P = softmax(S); S = scale · Qh Khᵀ (masked entries have
                    // zero probability so their score grads vanish).
                    softmax_rows_backward_into(p, &self.dp, &mut self.ds);
                    self.ds.scale(scale);
                    self.ds.matmul_into(&self.kh, &mut self.oh); // dQh
                    set_block(dq, b * l, h * dh, &self.oh);
                    self.ds.matmul_tn_into(&self.qh, &mut self.oh); // dKh
                    set_block(dk, b * l, h * dh, &self.oh);
                }
            }

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

/// Copies the `rows × cols` block of `m` at (`row0`, `col0`) into `out`,
/// reusing `out`'s allocation.
fn copy_block(m: &Matrix, row0: usize, rows: usize, col0: usize, cols: usize, out: &mut Matrix) {
    out.resize_to(rows, cols);
    for r in 0..rows {
        out.row_mut(r).copy_from_slice(&m.row(row0 + r)[col0..col0 + cols]);
    }
}

/// Writes `src` into `dst` at (`row0`, `col0`) (head blocks are disjoint, so
/// a copy replaces a zero-then-add sequence).
fn set_block(dst: &mut Matrix, row0: usize, col0: usize, src: &Matrix) {
    for r in 0..src.rows() {
        dst.row_mut(row0 + r)[col0..col0 + src.cols()].copy_from_slice(src.row(r));
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
        let p = &attn.probs[0];
        assert!((p[(0, 0)] - 1.0).abs() < 1e-6);
        assert!(p[(0, 1)].abs() < 1e-6 && p[(0, 2)].abs() < 1e-6);
    }
}
