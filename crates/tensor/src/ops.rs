//! Nonlinearities and normalization kernels with explicit backward passes.
//!
//! Each `*_backward` takes exactly the values its forward pass produced (no
//! hidden caches), so the model crate's layer objects decide what to retain.
//! The layers call the `*_into` and in-place forms, which write into buffers
//! they keep across steps; the allocating forms are wrappers around them.

use crate::kernels::record_act;
use crate::matrix::Matrix;
use crate::pool::par_rows;
use crate::vmath;
use std::time::Instant;

/// Row granularity for parallel elementwise/row-local ops: rows are cheap,
/// so only split when each participant gets a meaningful batch.
const MIN_ROWS_PER_SHARE: usize = 8;

/// Row-wise softmax. Numerically stabilized by subtracting the row max.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    softmax_rows_into(x, &mut out);
    out
}

/// `out = softmax_rows(x)`, reusing `out`'s allocation: `x` copied into
/// `out`, then [`softmax_rows_in_place`].
pub fn softmax_rows_into(x: &Matrix, out: &mut Matrix) {
    out.resize_to(x.rows(), x.cols());
    out.as_mut_slice().copy_from_slice(x.as_slice());
    softmax_rows_in_place(out);
}

/// Row-wise softmax of `x`, in its own buffer. Each row is computed
/// independently (row-local reductions only): the row max and the row sum
/// are scalar folds in ascending column order. Per share, each row becomes
/// `v − max`, then one exponent pass covers the whole share
/// ([`vmath::exp_sub_in_place`] with shift 0: `x − 0` is `x` bit for bit, so
/// this is `exp(v − max)` per element — one vector loop, where a pass per
/// row left short rows all tail), then each row is normalised. The result
/// is bit-identical for any worker count and on every SIMD path. A
/// non-finite logit poisons its whole row (NaN sum), which is what the
/// routers count as `nan_logits`.
pub fn softmax_rows_in_place(x: &mut Matrix) {
    let (rows, cols) = (x.rows(), x.cols());
    let t0 = Instant::now();
    par_rows(rows, cols, MIN_ROWS_PER_SHARE, x.as_mut_slice(), |_, chunk| {
        for row in chunk.chunks_exact_mut(cols.max(1)) {
            let max = row_max(row);
            row.iter_mut().for_each(|v| *v -= max);
        }
        vmath::exp_sub_in_place(chunk, 0.0);
        for row in chunk.chunks_exact_mut(cols.max(1)) {
            normalize(row, cols);
        }
    });
    record_act(t0.elapsed().as_nanos() as u64, rows * cols);
}

/// The row max as softmax folds it: ascending, from `-inf`, NaN ignored.
fn row_max(row: &[f32]) -> f32 {
    row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
}

/// Divides a row of exponents by their sum (ascending fold, one reciprocal).
/// Entries from `terms` on are `+0.0`, which would add nothing to the sum,
/// so the fold stops there; they are still multiplied, which turns them
/// into NaN in a NaN row as the full fold would.
fn normalize(row: &mut [f32], terms: usize) {
    let mut sum = 0.0;
    for v in row[..terms].iter() {
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Causal attention probabilities in place: each row `i` of the square
/// score matrix becomes `softmax(scale · scores[i][..=i])` followed by
/// zeros. Per row, one pass over `j ≤ i` scales and takes the max and one
/// subtracts it, with `−inf` written above the diagonal; one exponent pass
/// covers the whole matrix (`exp(−inf)` is `+0.0`); then each row is
/// normalised as [`softmax_rows_into`] normalises one.
///
/// This is bit for bit what scaling the whole matrix, writing `−1e9` above
/// the diagonal and calling [`softmax_rows_into`] gives, whenever a row's
/// largest causal score exceeds `−1e9 + 88`: the masked entries' exponents
/// are then exact zeros (`vmath::exp` is 0 below `−87.3`), so they change
/// neither the row max nor the row sum. (`exp(x − 0)` is `exp(x)` for every
/// `x`, so subtracting the max before the exponent pass changes no bit.) A
/// NaN score poisons its row in both. Rows are few and short, so they run
/// on the calling thread.
pub fn causal_softmax_in_place(scores: &mut Matrix, scale: f32) {
    let n = scores.rows();
    assert_eq!(n, scores.cols(), "causal softmax needs a square score matrix");
    let t0 = Instant::now();
    for i in 0..n {
        let (past, future) = scores.row_mut(i).split_at_mut(i + 1);
        past.iter_mut().for_each(|v| *v *= scale);
        let max = row_max(past);
        past.iter_mut().for_each(|v| *v -= max);
        future.fill(f32::NEG_INFINITY);
    }
    vmath::exp_sub_in_place(scores.as_mut_slice(), 0.0);
    for i in 0..n {
        normalize(scores.row_mut(i), i + 1);
    }
    record_act(t0.elapsed().as_nanos() as u64, n * n);
}

/// Backward of [`softmax_rows`] given its output `y`: `dx = y ⊙ (dy − Σ dy·y)`
/// per row, reusing `dx`'s allocation.
pub fn softmax_rows_backward_into(y: &Matrix, dy: &Matrix, dx: &mut Matrix) {
    assert_eq!((y.rows(), y.cols()), (dy.rows(), dy.cols()), "softmax backward shape mismatch");
    let (rows, cols) = (y.rows(), y.cols());
    dx.resize_to(rows, cols);
    par_rows(rows, cols, MIN_ROWS_PER_SHARE, dx.as_mut_slice(), |range, chunk| {
        for (local, r) in range.enumerate() {
            let yr = y.row(r);
            let dyr = dy.row(r);
            let dot: f32 = yr.iter().zip(dyr).map(|(a, b)| a * b).sum();
            let dxr = &mut chunk[local * cols..(local + 1) * cols];
            for c in 0..cols {
                dxr[c] = yr[c] * (dyr[c] - dot);
            }
        }
    });
}

/// GELU activation (tanh approximation, as used by GPT-2/GPT-3).
pub fn gelu(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    gelu_into(x, &mut out);
    out
}

/// `out = gelu(x)`, reusing `out`'s allocation.
pub fn gelu_into(x: &Matrix, out: &mut Matrix) {
    let (rows, cols) = (x.rows(), x.cols());
    let t0 = Instant::now();
    out.resize_to(rows, cols);
    par_rows(rows, cols, MIN_ROWS_PER_SHARE, out.as_mut_slice(), |range, chunk| {
        vmath::gelu_slice(&x.as_slice()[range.start * cols..range.end * cols], chunk);
    });
    record_act(t0.elapsed().as_nanos() as u64, rows * cols);
}

/// `act = gelu(x)` from the stored `t = gelu_tanh(x)`: `0.5·x·(1 + t)`,
/// bit for bit [`gelu_into`]'s result, with no transcendental evaluated.
pub fn gelu_from_tanh_into(x: &Matrix, t: &Matrix, act: &mut Matrix) {
    assert_eq!((x.rows(), x.cols()), (t.rows(), t.cols()), "gelu shape mismatch");
    let (rows, cols) = (x.rows(), x.cols());
    let t0 = Instant::now();
    act.resize_to(rows, cols);
    par_rows(rows, cols, MIN_ROWS_PER_SHARE, act.as_mut_slice(), |range, chunk| {
        let span = range.start * cols..range.end * cols;
        vmath::gelu_from_tanh_slice(&x.as_slice()[span.clone()], &t.as_slice()[span], chunk);
    });
    record_act(t0.elapsed().as_nanos() as u64, rows * cols);
}

/// `dx = gelu'(x) ⊙ dy`, given the forward input `x` and its stored
/// `t = gelu_tanh(x)` ([`vmath::gelu_grad_from_tanh`]), reusing `dx`'s
/// allocation.
pub fn gelu_backward_from_tanh_into(x: &Matrix, t: &Matrix, dy: &Matrix, dx: &mut Matrix) {
    assert_eq!((x.rows(), x.cols()), (t.rows(), t.cols()), "gelu backward shape mismatch");
    assert_eq!((x.rows(), x.cols()), (dy.rows(), dy.cols()), "gelu backward shape mismatch");
    let (rows, cols) = (x.rows(), x.cols());
    let t0 = Instant::now();
    dx.resize_to(rows, cols);
    par_rows(rows, cols, MIN_ROWS_PER_SHARE, dx.as_mut_slice(), |range, chunk| {
        let span = range.start * cols..range.end * cols;
        let (x, t, dy) =
            (&x.as_slice()[span.clone()], &t.as_slice()[span.clone()], &dy.as_slice()[span]);
        vmath::gelu_backward_from_tanh_slice(x, t, dy, chunk);
    });
    record_act(t0.elapsed().as_nanos() as u64, rows * cols);
}

/// Fused FFN first half: `pre = x·w + bias` and GELU's inner term
/// `t = gelu_tanh(pre)`, applied per completed row range inside the GEMM's
/// parallel region (bit-identical to the unfused sequence). The activation
/// is [`gelu_from_tanh_into`]`(pre, t)`; backward reads `t`
/// ([`gelu_backward_from_tanh_into`]). `w` may be a binary16
/// [`crate::half::HalfMatrix`].
pub fn linear_gelu_tanh_into<B: crate::kernels::BOperand + ?Sized>(
    x: &Matrix,
    w: &B,
    bias: &Matrix,
    pre: &mut Matrix,
    t: &mut Matrix,
) {
    crate::kernels::gemm_nn_bias_gelu_tanh(x, w, bias, pre, t);
}

/// Cached statistics from a LayerNorm forward pass, needed by its backward.
#[derive(Clone, Debug)]
pub struct LayerNormCache {
    /// Normalized input `(x - mean) / std`, one row per token.
    pub xhat: Matrix,
    /// Per-row inverse standard deviation.
    pub inv_std: Vec<f32>,
}

impl LayerNormCache {
    /// An empty cache for [`layernorm_into`] to fill.
    pub fn new() -> Self {
        Self { xhat: Matrix::zeros(0, 0), inv_std: Vec::new() }
    }
}

impl Default for LayerNormCache {
    fn default() -> Self {
        Self::new()
    }
}

/// LayerNorm over the last dimension with learned `gamma`/`beta`
/// (`1 × cols` row vectors). Returns the output and a cache for backward.
pub fn layernorm(x: &Matrix, gamma: &Matrix, beta: &Matrix, eps: f32) -> (Matrix, LayerNormCache) {
    let (mut out, mut cache) = (Matrix::zeros(0, 0), LayerNormCache::new());
    layernorm_into(x, gamma, beta, eps, &mut out, &mut cache);
    (out, cache)
}

/// [`layernorm`] into a reusable output and cache.
pub fn layernorm_into(
    x: &Matrix,
    gamma: &Matrix,
    beta: &Matrix,
    eps: f32,
    out: &mut Matrix,
    cache: &mut LayerNormCache,
) {
    assert_eq!(gamma.cols(), x.cols(), "gamma width mismatch");
    assert_eq!(beta.cols(), x.cols(), "beta width mismatch");
    let n = x.cols();
    out.resize_to(x.rows(), n);
    cache.xhat.resize_to(x.rows(), n);
    cache.inv_std.clear();
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let istd = 1.0 / (var + eps).sqrt();
        cache.inv_std.push(istd);
        let xh = cache.xhat.row_mut(r);
        let o = out.row_mut(r);
        for c in 0..n {
            let h = (row[c] - mean) * istd;
            xh[c] = h;
            o[c] = h * gamma[(0, c)] + beta[(0, c)];
        }
    }
}

/// Backward of [`layernorm`]. Returns `(dx, dgamma, dbeta)`.
pub fn layernorm_backward(
    dy: &Matrix,
    gamma: &Matrix,
    cache: &LayerNormCache,
) -> (Matrix, Matrix, Matrix) {
    let mut out = (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    layernorm_backward_into(dy, gamma, cache, &mut out.0, &mut out.1, &mut out.2);
    out
}

/// [`layernorm_backward`] into reusable `dx`, `dgamma` and `dbeta`; the two
/// parameter gradients are this call's alone (folded from zero), not
/// accumulated into.
pub fn layernorm_backward_into(
    dy: &Matrix,
    gamma: &Matrix,
    cache: &LayerNormCache,
    dx: &mut Matrix,
    dgamma: &mut Matrix,
    dbeta: &mut Matrix,
) {
    let n = dy.cols();
    let nf = n as f32;
    dx.resize_to(dy.rows(), n);
    dgamma.resize_to(1, n);
    dgamma.fill_zero();
    dbeta.resize_to(1, n);
    dbeta.fill_zero();
    for r in 0..dy.rows() {
        let dyr = dy.row(r);
        let xh = cache.xhat.row(r);
        let istd = cache.inv_std[r];
        // dxhat = dy * gamma
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_xhat = 0.0f32;
        for c in 0..n {
            let dxh = dyr[c] * gamma[(0, c)];
            sum_dxhat += dxh;
            sum_dxhat_xhat += dxh * xh[c];
            dgamma[(0, c)] += dyr[c] * xh[c];
            dbeta[(0, c)] += dyr[c];
        }
        let dxr = dx.row_mut(r);
        for c in 0..n {
            let dxh = dyr[c] * gamma[(0, c)];
            dxr[c] = istd * (dxh - sum_dxhat / nf - xh[c] * sum_dxhat_xhat / nf);
        }
    }
}

/// Mean cross-entropy loss over rows of `logits` against integer `targets`,
/// with the gradient w.r.t. the logits (already divided by the row count).
///
/// Rows whose target is `usize::MAX` are masked out (used for padding).
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    let mut grad = logits.clone();
    (cross_entropy_in_place(&mut grad, targets), grad)
}

/// [`cross_entropy`] computed in the logits' own buffer, which it leaves
/// holding the gradient: row softmax, the loss read from it, `−1` at each
/// target, one scale by the reciprocal of the counted rows — the same
/// operations as the allocating form, in the same order.
pub fn cross_entropy_in_place(logits: &mut Matrix, targets: &[usize]) -> f32 {
    assert_eq!(logits.rows(), targets.len(), "one target per logits row");
    let cols = logits.cols();
    softmax_rows_in_place(logits);
    let mut loss = 0.0f64;
    let mut counted = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row_mut(r);
        if t == usize::MAX {
            row.fill(0.0);
            continue;
        }
        assert!(t < cols, "target {t} out of vocab {cols}");
        loss -= (row[t].max(1e-12) as f64).ln();
        row[t] -= 1.0;
        counted += 1;
    }
    let denom = counted.max(1) as f32;
    logits.scale(1.0 / denom);
    (loss / counted.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::numerical_grad;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_fn(4, 6, |r, c| (r as f32 - c as f32) * 0.7);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Matrix::from_fn(2, 5, |r, c| (r + c) as f32 * 0.3);
        let mut shifted = x.clone();
        for v in shifted.as_mut_slice() {
            *v += 100.0;
        }
        assert!(softmax_rows(&x).max_abs_diff(&softmax_rows(&shifted)) < 1e-5);
    }

    #[test]
    fn softmax_backward_matches_numeric() {
        let x = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32).sin());
        let dy = Matrix::from_fn(3, 4, |r, c| ((r + 2 * c) as f32).cos());
        let mut analytic = Matrix::zeros(0, 0);
        softmax_rows_backward_into(&softmax_rows(&x), &dy, &mut analytic);
        let numeric = numerical_grad(&x, &dy, softmax_rows);
        assert!(analytic.max_abs_diff(&numeric) < 1e-2);
    }

    #[test]
    fn gelu_backward_matches_numeric() {
        let x = Matrix::from_fn(2, 8, |r, c| (r as f32 - 1.0) + c as f32 * 0.3 - 1.0);
        let dy = Matrix::from_fn(2, 8, |_, c| 1.0 + c as f32 * 0.1);
        let t = Matrix::from_fn(2, 8, |r, c| vmath::gelu_tanh(x[(r, c)]));
        let mut analytic = Matrix::zeros(0, 0);
        gelu_backward_from_tanh_into(&x, &t, &dy, &mut analytic);
        let numeric = numerical_grad(&x, &dy, gelu);
        assert!(analytic.max_abs_diff(&numeric) < 1e-2);
    }

    #[test]
    fn layernorm_output_is_normalized_when_identity_affine() {
        let x = Matrix::from_fn(3, 16, |r, c| (r as f32 + 1.0) * ((c as f32 * 0.7).sin() + 0.2));
        let gamma = Matrix::from_vec(1, 16, vec![1.0; 16]);
        let beta = Matrix::zeros(1, 16);
        let (y, _) = layernorm(&x, &gamma, &beta, 1e-5);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 16.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_backward_matches_numeric() {
        let x = Matrix::from_fn(2, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin());
        let gamma = Matrix::from_fn(1, 6, |_, c| 1.0 + 0.1 * c as f32);
        let beta = Matrix::from_fn(1, 6, |_, c| 0.05 * c as f32);
        let dy = Matrix::from_fn(2, 6, |r, c| ((r + c) as f32).cos());

        let (_, cache) = layernorm(&x, &gamma, &beta, 1e-5);
        let (dx, dgamma, dbeta) = layernorm_backward(&dy, &gamma, &cache);

        let ndx = numerical_grad(&x, &dy, |m| layernorm(m, &gamma, &beta, 1e-5).0);
        assert!(dx.max_abs_diff(&ndx) < 1e-2, "dx diff {}", dx.max_abs_diff(&ndx));

        let ndgamma = numerical_grad(&gamma, &dy, |g| layernorm(&x, g, &beta, 1e-5).0);
        assert!(dgamma.max_abs_diff(&ndgamma) < 1e-2);

        let ndbeta = numerical_grad(&beta, &dy, |b| layernorm(&x, &gamma, b, 1e-5).0);
        assert!(dbeta.max_abs_diff(&ndbeta) < 1e-2);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let mut logits = Matrix::zeros(2, 3);
        logits[(0, 1)] = 50.0;
        logits[(1, 2)] = 50.0;
        let (loss, _) = cross_entropy(&logits, &[1, 2]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn cross_entropy_uniform_is_log_vocab() {
        let logits = Matrix::zeros(4, 8);
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (8.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_grad_matches_numeric() {
        let logits = Matrix::from_fn(3, 5, |r, c| ((r * 5 + c) as f32 * 0.21).sin());
        let targets = [2usize, 0, 4];
        let (_, grad) = cross_entropy(&logits, &targets);

        let mut numeric = Matrix::zeros(3, 5);
        let eps = 1e-3;
        let mut probe = logits.clone();
        for i in 0..probe.len() {
            let orig = probe.as_slice()[i];
            probe.as_mut_slice()[i] = orig + eps;
            let (lp, _) = cross_entropy(&probe, &targets);
            probe.as_mut_slice()[i] = orig - eps;
            let (lm, _) = cross_entropy(&probe, &targets);
            probe.as_mut_slice()[i] = orig;
            numeric.as_mut_slice()[i] = (lp - lm) / (2.0 * eps);
        }
        assert!(grad.max_abs_diff(&numeric) < 1e-2);
    }

    #[test]
    fn cross_entropy_masks_padding() {
        let logits = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        let (loss_all, _) = cross_entropy(&logits, &[1, usize::MAX]);
        let first_only = logits.gather_rows(&[0]);
        let (loss_first, _) = cross_entropy(&first_only, &[1]);
        assert!((loss_all - loss_first).abs() < 1e-6);
    }
}
