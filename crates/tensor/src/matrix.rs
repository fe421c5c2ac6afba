//! Row-major dense `f32` matrix with the matmul layouts needed by manual
//! backpropagation.
//!
//! Forward passes need `A·B`; backward passes need `A·Bᵀ` (input gradients)
//! and `Aᵀ·B` (parameter gradients). Implementing all three directly avoids
//! materializing transposes in the hot loop.

use crate::kernels::BOperand;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// ```
/// use symi_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
/// assert_eq!(a.matmul(&b), a);                       // identity
/// assert_eq!(a.matmul_nt(&b), a);                    // A · Iᵀ
/// assert_eq!(a.transpose()[(0, 1)], a[(1, 0)]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length {} != {rows}x{cols}", data.len());
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `src` of `other` into row `dst` of `self`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn copy_row_from(&mut self, dst: usize, other: &Matrix, src: usize) {
        assert_eq!(self.cols, other.cols, "column mismatch in copy_row_from");
        self.row_mut(dst).copy_from_slice(other.row(src));
    }

    /// Adds row `src` of `other` (scaled by `alpha`) into row `dst` of `self`.
    pub fn axpy_row_from(&mut self, dst: usize, alpha: f32, other: &Matrix, src: usize) {
        assert_eq!(self.cols, other.cols, "column mismatch in axpy_row_from");
        let d = dst * self.cols;
        let s = src * other.cols;
        for c in 0..self.cols {
            self.data[d + c] += alpha * other.data[s + c];
        }
    }

    /// Reshapes the matrix to `rows × cols`, reusing the existing
    /// allocation when capacity suffices. Contents are unspecified until
    /// overwritten (the blocked kernels are pure stores for their `!acc`
    /// paths, so pre-zeroing would be wasted work).
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an exact copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize_to(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// `self · other` — the forward-pass layout
    /// (blocked/register-tiled, see [`crate::kernels`]).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self · other`, reusing `out`'s allocation.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        crate::kernels::gemm_nn(self, other, out, false, None);
    }

    /// `out = self · other + bias` with the bias fused into the kernel
    /// epilogue (bit-identical to `matmul_into` followed by `add_bias`).
    /// `other` may be a binary16 [`crate::half::HalfMatrix`].
    pub fn matmul_bias_into<B: BOperand + ?Sized>(
        &self,
        other: &B,
        bias: &Matrix,
        out: &mut Matrix,
    ) {
        crate::kernels::gemm_nn(self, other, out, false, Some(bias));
    }

    /// `self · otherᵀ` — used for input gradients (`dX = dY · Wᵀ`) and
    /// attention scores (`Q · Kᵀ`).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `out = self · otherᵀ`, reusing `out`'s allocation. `other` may be a
    /// binary16 [`crate::half::HalfMatrix`].
    pub fn matmul_nt_into<B: BOperand + ?Sized>(&self, other: &B, out: &mut Matrix) {
        crate::kernels::gemm_nt(self, other, out, false);
    }

    /// `selfᵀ · other` — used for parameter gradients (`dW = Xᵀ · dY`).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `out = selfᵀ · other`, reusing `out`'s allocation.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        crate::kernels::gemm_tn(self, other, out, false);
    }

    /// `out += selfᵀ · other`.
    pub fn matmul_tn_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!((out.rows, out.cols), (self.cols, other.cols), "matmul_tn_acc shape mismatch");
        crate::kernels::gemm_tn(self, other, out, true);
    }

    /// `out (+)= selfᵀ · other` into a row-major `cols × other.cols` slice —
    /// a parameter gradient stored inside a larger flat buffer. With `acc`
    /// unset `out` is overwritten (its previous contents are never read).
    pub fn matmul_tn_slice(&self, other: &Matrix, out: &mut [f32], acc: bool) {
        crate::kernels::gemm_tn_slice(self, other, out, acc);
    }

    /// `selfᵀ · other` written into binary16 bits under exponent `exp`
    /// ([`crate::kernels::gemm_tn_half`]): a slot gradient's weight block.
    pub fn matmul_tn_half(&self, other: &Matrix, out: &mut [u16], exp: i32) {
        crate::kernels::gemm_tn_half(self, other, out, exp);
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum; shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place multiply by a scalar.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Adds a row-vector bias (`1 × cols`) to every row.
    pub fn add_bias(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Column-wise sum collapsed to a `1 × cols` row vector (bias gradient).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.sum_rows_into(&mut out);
        out
    }

    /// `out = column-wise sum of self` (`1 × cols`), reusing `out`.
    ///
    /// Deliberately sequential: this is a cross-row reduction, and the
    /// determinism contract forbids splitting reductions across pool
    /// participants. It is O(rows·cols) against the GEMMs' O(rows·cols·k).
    pub(crate) fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize_to(1, self.cols);
        self.sum_rows_slice(out.as_mut_slice(), false);
    }

    /// `out += column-wise sum of self` (bias-gradient accumulation).
    pub fn sum_rows_acc(&self, out: &mut Matrix) {
        assert_eq!((out.rows, out.cols), (1, self.cols), "sum_rows_acc shape mismatch");
        self.sum_rows_slice(out.as_mut_slice(), true);
    }

    /// `out (+)= column-wise sum of self` into a `cols`-long slice. With
    /// `acc` unset the fold starts from `+0.0` — bit for bit what
    /// zero-filling `out` and accumulating produces.
    pub fn sum_rows_slice(&self, out: &mut [f32], acc: bool) {
        assert_eq!(out.len(), self.cols, "sum_rows destination width mismatch");
        if !acc {
            out.fill(0.0);
        }
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// The column-wise sum written into binary16 bits under exponent `exp`:
    /// [`Matrix::sum_rows_slice`]'s fold from `+0.0`, narrowed
    /// ([`crate::half::narrow`]) one stack block of columns at a time — a
    /// slot gradient's bias block, with no f32 copy of it.
    pub fn sum_rows_half(&self, out: &mut [u16], exp: i32) {
        const BLOCK: usize = 64;
        assert_eq!(out.len(), self.cols, "sum_rows destination width mismatch");
        let mut sums = [0.0f32; BLOCK];
        for (c0, dst) in (0..self.cols).step_by(BLOCK).zip(out.chunks_mut(BLOCK)) {
            let sums = &mut sums[..dst.len()];
            sums.fill(0.0);
            for r in 0..self.rows {
                for (o, v) in sums.iter_mut().zip(&self.row(r)[c0..]) {
                    *o += v;
                }
            }
            crate::half::narrow(sums, exp, dst);
        }
    }

    /// Fills the matrix with zeros, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference to `other`; shapes must match.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }

    /// Selects the given rows into a new matrix (gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gather into a reusable buffer: `out.row(i) = self.row(indices[i])`.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize_to(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.copy_row_from(dst, self, src);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.3 - 1.0);
        let b = Matrix::from_fn(4, 5, |r, c| (r as f32 - c as f32) * 0.1);
        assert!(a.matmul(&b).max_abs_diff(&naive_matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn matmul_nt_is_matmul_with_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.25);
        let b = Matrix::from_fn(5, 4, |r, c| (r as f32 * 0.5 - c as f32 * 0.2).sin());
        assert!(a.matmul_nt(&b).max_abs_diff(&a.matmul(&b.transpose())) < 1e-5);
    }

    #[test]
    fn matmul_tn_is_transpose_matmul() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * c) as f32 * 0.1 + 0.5);
        let b = Matrix::from_fn(4, 5, |r, c| r as f32 - 0.3 * c as f32);
        assert!(a.matmul_tn(&b).max_abs_diff(&a.transpose().matmul(&b)) < 1e-5);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_fn(3, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_and_sum_rows_round_trip() {
        let mut x = Matrix::zeros(4, 3);
        let bias = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        x.add_bias(&bias);
        let summed = x.sum_rows();
        assert_eq!(summed.as_slice(), &[4.0, -8.0, 2.0]);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let g = a.gather_rows(&[3, 1]);
        assert_eq!(g.as_slice(), &[6.0, 7.0, 2.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 10.0, 10.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }
}
