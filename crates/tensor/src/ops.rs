//! Nonlinearities and normalization kernels with explicit backward passes.
//!
//! Each `*_backward` takes exactly the values its forward pass produced (no
//! hidden caches), so the model crate's layer objects decide what to retain.

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

/// `out = softmax_rows(x)`, reusing `out`'s allocation. Each row is
/// computed independently (row-local reductions only): the row max and the
/// row sum are scalar folds in ascending column order and the exponent pass
/// is [`vmath::exp_sub_slice`], so the result is bit-identical for any
/// worker count and for either SIMD path. A non-finite logit poisons its
/// whole row (NaN sum), which is what the routers count as `nan_logits`.
pub fn softmax_rows_into(x: &Matrix, out: &mut Matrix) {
    let (rows, cols) = (x.rows(), x.cols());
    let t0 = Instant::now();
    out.resize_to(rows, cols);
    par_rows(rows, cols, MIN_ROWS_PER_SHARE, out.as_mut_slice(), |range, chunk| {
        for (local, r) in range.enumerate() {
            let src = x.row(r);
            let row = &mut chunk[local * cols..(local + 1) * cols];
            let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            vmath::exp_sub_slice(src, max, row);
            let mut sum = 0.0;
            for v in row.iter() {
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    });
    record_act(t0.elapsed().as_nanos() as u64, rows * cols);
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

/// Backward of GELU given the forward *input* `x`.
pub fn gelu_backward(x: &Matrix, dy: &Matrix) -> Matrix {
    let mut dx = Matrix::zeros(0, 0);
    gelu_backward_into(x, dy, &mut dx);
    dx
}

/// `dx = gelu'(x) ⊙ dy`, reusing `dx`'s allocation.
pub fn gelu_backward_into(x: &Matrix, dy: &Matrix, dx: &mut Matrix) {
    assert_eq!((x.rows(), x.cols()), (dy.rows(), dy.cols()), "gelu backward shape mismatch");
    let (rows, cols) = (x.rows(), x.cols());
    let t0 = Instant::now();
    dx.resize_to(rows, cols);
    par_rows(rows, cols, MIN_ROWS_PER_SHARE, dx.as_mut_slice(), |range, chunk| {
        let span = range.start * cols..range.end * cols;
        vmath::gelu_backward_slice(&x.as_slice()[span.clone()], &dy.as_slice()[span], chunk);
    });
    record_act(t0.elapsed().as_nanos() as u64, rows * cols);
}

/// Fused FFN first half: `pre = x·w + bias`, `act = gelu(pre)`, with the
/// activation applied per completed row range inside the GEMM's parallel
/// region (bit-identical to the unfused sequence).
pub fn linear_gelu_into(x: &Matrix, w: &Matrix, bias: &Matrix, pre: &mut Matrix, act: &mut Matrix) {
    crate::kernels::gemm_nn_bias_gelu(x, w, bias, pre, act);
}

/// Cached statistics from a LayerNorm forward pass, needed by its backward.
#[derive(Clone, Debug)]
pub struct LayerNormCache {
    /// Normalized input `(x - mean) / std`, one row per token.
    pub xhat: Matrix,
    /// Per-row inverse standard deviation.
    pub inv_std: Vec<f32>,
}

/// LayerNorm over the last dimension with learned `gamma`/`beta`
/// (`1 × cols` row vectors). Returns the output and a cache for backward.
pub fn layernorm(x: &Matrix, gamma: &Matrix, beta: &Matrix, eps: f32) -> (Matrix, LayerNormCache) {
    assert_eq!(gamma.cols(), x.cols(), "gamma width mismatch");
    assert_eq!(beta.cols(), x.cols(), "beta width mismatch");
    let n = x.cols();
    let mut out = Matrix::zeros(x.rows(), n);
    let mut xhat = Matrix::zeros(x.rows(), n);
    let mut inv_std = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let istd = 1.0 / (var + eps).sqrt();
        inv_std.push(istd);
        let xh = xhat.row_mut(r);
        let o = out.row_mut(r);
        for c in 0..n {
            let h = (row[c] - mean) * istd;
            xh[c] = h;
            o[c] = h * gamma[(0, c)] + beta[(0, c)];
        }
    }
    (out, LayerNormCache { xhat, inv_std })
}

/// Backward of [`layernorm`]. Returns `(dx, dgamma, dbeta)`.
pub fn layernorm_backward(
    dy: &Matrix,
    gamma: &Matrix,
    cache: &LayerNormCache,
) -> (Matrix, Matrix, Matrix) {
    let n = dy.cols();
    let nf = n as f32;
    let mut dx = Matrix::zeros(dy.rows(), n);
    let mut dgamma = Matrix::zeros(1, n);
    let mut dbeta = Matrix::zeros(1, n);
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
    (dx, dgamma, dbeta)
}

/// Mean cross-entropy loss over rows of `logits` against integer `targets`,
/// with the gradient w.r.t. the logits (already divided by the row count).
///
/// Rows whose target is `usize::MAX` are masked out (used for padding).
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), targets.len(), "one target per logits row");
    let probs = softmax_rows(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f64;
    let mut counted = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        if t == usize::MAX {
            grad.row_mut(r).iter_mut().for_each(|v| *v = 0.0);
            continue;
        }
        assert!(t < logits.cols(), "target {t} out of vocab {}", logits.cols());
        loss -= (probs[(r, t)].max(1e-12) as f64).ln();
        grad[(r, t)] -= 1.0;
        counted += 1;
    }
    let denom = counted.max(1) as f32;
    grad.scale(1.0 / denom);
    ((loss / counted.max(1) as f64) as f32, grad)
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
        let analytic = gelu_backward(&x, &dy);
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
