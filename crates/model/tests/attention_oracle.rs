//! Whole-batch attention against the per-sequence loop it replaced, bit for
//! bit.
//!
//! `CausalAttention` runs the Q/K/V/O projections, their weight gradients
//! and its input gradient as one GEMM over every sequence of the batch, and
//! the causal softmax over `j ≤ i` only. [`PerSequence`] below is the layer
//! as it was before: one 32-row projection GEMM per sequence and matrix,
//! accumulating weight-gradient calls per sequence, and a full-row softmax
//! after writing `−1e9` above the diagonal. It is kept here verbatim (its
//! weights copied from the layer under test) as the reference. Output, `dX`
//! and all four weight gradients must be equal with `==` on their bits:
//!
//! - at `ModelConfig::small_sim`'s shape (d 64, 4 heads, 32 sequences of
//!   32), and at ragged ones — sequences of 5 and 7, one head, a head width
//!   that is no multiple of 8 (every `nt` runs one kernel at any m, so the
//!   per-sequence and the whole-batch products' rows are the same folds);
//! - where the attention core's folds change: a head width of 20 (each
//!   `nn` product's FMA panel and its mul-then-add column edge in one head)
//!   and 33-row sequences (a partial register of query lanes after full
//!   ones);
//! - with a NaN in one input row and `+inf` in another, where NaN
//!   positions are compared and NaN payloads are not;
//! - over two rounds that accumulate into the gradients, and for a backward
//!   repeated after one forward (the benchmark's direct timing runs
//!   backward 16 times per forward);
//! - on every SIMD path this host has, with the pool sequential and split
//!   four ways.
//!
//! Path pinning and the pool budget are process globals, so the tests
//! serialize on one lock.

use std::sync::{Mutex, MutexGuard};
use symi_model::attention::CausalAttention;
use symi_model::ModelConfig;
use symi_tensor::kernels::{self, SimdPath};
use symi_tensor::ops::{softmax_rows_backward_into, softmax_rows_into};
use symi_tensor::rng::StdRng;
use symi_tensor::{init, pool, Matrix};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` on every path this host has, each at a sequential pool and at a
/// four-way split one (cost gate at its floor).
fn on_each_path_and_pool(mut f: impl FnMut(&str)) {
    let _g = lock();
    let (prev_path, prev_threads) = (kernels::active_path(), pool::current_threads());
    for path in SimdPath::ALL.into_iter().filter(|p| p.supported()) {
        kernels::force_simd_path(path);
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            kernels::set_flops_per_share(if threads == 1 {
                kernels::DEFAULT_FLOPS_PER_SHARE
            } else {
                1
            });
            kernels::set_hardware_parallelism(if threads == 1 { 0 } else { 8 });
            f(&format!("{path:?}, {threads} threads"));
        }
    }
    kernels::set_hardware_parallelism(0);
    kernels::set_flops_per_share(kernels::DEFAULT_FLOPS_PER_SHARE);
    pool::set_threads(prev_threads);
    kernels::force_simd_path(prev_path);
}

// ---------------------------------------------------------------------------
// The per-sequence layer, as it was (weights copied in; caches per sequence)
// ---------------------------------------------------------------------------

struct SeqCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    probs: Vec<Matrix>,
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

struct PerSequence {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    wq_grad: Matrix,
    wk_grad: Matrix,
    wv_grad: Matrix,
    wo_grad: Matrix,
    n_heads: usize,
    seq_len: usize,
    cache: Vec<SeqCache>,
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

impl PerSequence {
    fn like(layer: &CausalAttention, n_heads: usize, seq_len: usize) -> Self {
        let d = layer.wq.rows();
        let e = || Matrix::zeros(0, 0);
        Self {
            wq: layer.wq.clone(),
            wk: layer.wk.clone(),
            wv: layer.wv.clone(),
            wo: layer.wo.clone(),
            wq_grad: Matrix::zeros(d, d),
            wk_grad: Matrix::zeros(d, d),
            wv_grad: Matrix::zeros(d, d),
            wo_grad: Matrix::zeros(d, d),
            n_heads,
            seq_len,
            cache: Vec::new(),
            cached_seqs: 0,
            scratch_qh: e(),
            scratch_kh: e(),
            scratch_vh: e(),
            scratch_scores: e(),
            scratch_oh: e(),
            scratch_y: e(),
            scratch_dys: e(),
            scratch_dconcat: e(),
            scratch_dq: e(),
            scratch_dk: e(),
            scratch_dv: e(),
            scratch_dp: e(),
            scratch_ds: e(),
            scratch_dh: e(),
            scratch_dxs: e(),
            scratch_dw: e(),
        }
    }

    fn d_model(&self) -> usize {
        self.wq.rows()
    }

    fn d_head(&self) -> usize {
        self.d_model() / self.n_heads
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
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

    fn backward(&mut self, dy: &Matrix) -> Matrix {
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

            c.concat.matmul_tn_acc(&self.scratch_dys, &mut self.wo_grad);
            self.scratch_dys.matmul_nt_into(&self.wo, &mut self.scratch_dconcat);

            self.scratch_dq.resize_to(l, d);
            self.scratch_dk.resize_to(l, d);
            self.scratch_dv.resize_to(l, d);
            for h in 0..heads {
                copy_head_into(&self.scratch_dconcat, h, dh, &mut self.scratch_dh);
                copy_head_into(&c.v, h, dh, &mut self.scratch_vh);
                copy_head_into(&c.q, h, dh, &mut self.scratch_qh);
                copy_head_into(&c.k, h, dh, &mut self.scratch_kh);
                let p = &c.probs[h];

                self.scratch_dh.matmul_nt_into(&self.scratch_vh, &mut self.scratch_dp);
                p.matmul_tn_into(&self.scratch_dh, &mut self.scratch_oh);
                set_head(&mut self.scratch_dv, &self.scratch_oh, h, dh);
                softmax_rows_backward_into(p, &self.scratch_dp, &mut self.scratch_ds);
                self.scratch_ds.scale(scale);
                self.scratch_ds.matmul_into(&self.scratch_kh, &mut self.scratch_oh);
                set_head(&mut self.scratch_dq, &self.scratch_oh, h, dh);
                self.scratch_ds.matmul_tn_into(&self.scratch_qh, &mut self.scratch_oh);
                set_head(&mut self.scratch_dk, &self.scratch_oh, h, dh);
            }

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
}

fn copy_head_into(m: &Matrix, h: usize, dh: usize, out: &mut Matrix) {
    out.resize_to(m.rows(), dh);
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(&m.row(r)[h * dh..(h + 1) * dh]);
    }
}

fn set_head(dst: &mut Matrix, src: &Matrix, h: usize, dh: usize) {
    for r in 0..src.rows() {
        dst.row_mut(r)[h * dh..(h + 1) * dh].copy_from_slice(src.row(r));
    }
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

/// Equal bits, or — where `nan` allows it — both NaN (a NaN's payload is
/// not compared).
fn assert_bits(got: &Matrix, want: &Matrix, what: &str, nan: bool) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        if nan && g.is_nan() && w.is_nan() {
            continue;
        }
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g:e} vs {w:e}");
    }
}

fn assert_grads(layer: &CausalAttention, oracle: &PerSequence, what: &str, nan: bool) {
    assert_bits(&layer.wq_grad, &oracle.wq_grad, &format!("{what}: dWq"), nan);
    assert_bits(&layer.wk_grad, &oracle.wk_grad, &format!("{what}: dWk"), nan);
    assert_bits(&layer.wv_grad, &oracle.wv_grad, &format!("{what}: dWv"), nan);
    assert_bits(&layer.wo_grad, &oracle.wo_grad, &format!("{what}: dWo"), nan);
}

/// Two rounds of (input, upstream gradient) for `batch` sequences.
fn inputs(d: usize, seq_len: usize, batch: usize, seed: u64) -> Vec<(Matrix, Matrix)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = seq_len * batch;
    (0..2)
        .map(|_| (init::normal(rows, d, 1.0, &mut rng), init::normal(rows, d, 0.05, &mut rng)))
        .collect()
}

/// Two accumulating rounds (fresh input each), then a backward repeated
/// after one forward; outputs, `dX` and the four weight gradients compared
/// after every call.
fn check(d: usize, heads: usize, seq_len: usize, batch: usize, seed: u64, label: &str) {
    check_inputs(d, heads, seq_len, &inputs(d, seq_len, batch, seed), seed, label, false);
}

/// [`check`] on the given rounds; `nan` compares NaN positions, not
/// payloads.
fn check_inputs(
    d: usize,
    heads: usize,
    seq_len: usize,
    inputs: &[(Matrix, Matrix)],
    seed: u64,
    label: &str,
    nan: bool,
) {
    on_each_path_and_pool(|setup| {
        let mut layer = CausalAttention::new(d, heads, seq_len, seed);
        let mut oracle = PerSequence::like(&layer, heads, seq_len);
        let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for (round, (x, dy)) in inputs.iter().enumerate() {
            let what = format!("{label}, {setup}, round {round}");
            layer.forward_into(x, &mut y);
            assert_bits(&y, &oracle.forward(x), &format!("{what}: output"), nan);
            layer.backward_into(dy, &mut dx);
            assert_bits(&dx, &oracle.backward(dy), &format!("{what}: dX"), nan);
            assert_grads(&layer, &oracle, &what, nan);
        }
        let dy = &inputs[1].1;
        layer.backward_into(dy, &mut dx);
        let what = format!("{label}, {setup}, repeated backward");
        assert_bits(&dx, &oracle.backward(dy), &format!("{what}: dX"), nan);
        assert_grads(&layer, &oracle, &what, nan);
    });
}

#[test]
fn whole_batch_attention_equals_the_per_sequence_loop_at_the_trainer_shape() {
    let cfg = ModelConfig::small_sim();
    check(cfg.d_model, cfg.n_heads, cfg.seq_len, cfg.batch_size, 21, "small_sim");
}

#[test]
fn whole_batch_attention_equals_the_per_sequence_loop_at_ragged_shapes() {
    // (d_model, heads, seq_len, batch): one head, head widths 12 and 13,
    // whole batches of 30 and 28 rows; head width 20 — one 16-column panel
    // and a 4-column edge in each `nn` — and 33 rows per sequence, so a
    // partial register of query lanes follows two full 16-lane ones (four
    // full 8-lane ones).
    for &(d, heads, seq_len, batch) in
        &[(12, 1, 5, 6), (13, 1, 7, 4), (20, 2, 5, 3), (40, 2, 9, 3), (32, 2, 33, 2)]
    {
        check(
            d,
            heads,
            seq_len,
            batch,
            22,
            &format!("d {d}, {heads} heads, L {seq_len} x {batch}"),
        );
    }
}

#[test]
fn whole_batch_attention_equals_the_per_sequence_loop_with_non_finite_rows() {
    // small_sim's heads over three sequences: a NaN in one row of the
    // first, `+inf` in one row of the second, the third finite. The
    // poisoned sequences' outputs and every weight gradient they reach are
    // NaN in both; the finite sequence keeps its bits.
    let cfg = ModelConfig::small_sim();
    let (d, heads, seq_len) = (cfg.d_model, cfg.n_heads, cfg.seq_len);
    let mut rounds = inputs(d, seq_len, 3, 23);
    for (x, _) in &mut rounds {
        x[(5, 7)] = f32::NAN;
        x[(seq_len + 11, 30)] = f32::INFINITY;
    }
    check_inputs(d, heads, seq_len, &rounds, 23, "non-finite rows", true);
}
