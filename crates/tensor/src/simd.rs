//! AVX2 + FMA GEMM microkernels (x86_64 only).
//!
//! The drivers in [`crate::kernels`] dispatch here when [`have_avx2_fma`]
//! holds (or `SYMI_SIMD=avx2` forces it). Every public function is a *safe*
//! wrapper that `debug_assert!`s the feature set and then calls a
//! `#[target_feature(enable = "avx2", enable = "fma")]` implementation — the
//! `unsafe` is confined to those implementations plus the intrinsic calls,
//! and is sound exactly because the drivers never pick this path without
//! runtime detection.
//!
//! Tile shapes (chosen for 16 architectural YMM registers):
//!
//! - `nn`: 6×16 — 12 accumulator registers, 2 B-strip loads and one `a`
//!   broadcast per k step. B is read in place (contiguous `NR_NN` = 16
//!   wide strips at B's row stride), cache-blocked k-chunk → strip → row
//!   tile, so there is no packing pass at all.
//! - `nt`: 2×4 register tile of independent dot products; each dot splits
//!   `k` into 8-lane octets folded by FMA, reduced by a *fixed* pairwise
//!   horizontal sum, plus a scalar tail. Because every dot product — full
//!   tile, edge, or remainder — runs the identical octet/hsum/tail
//!   sequence, `nt` results do not depend on how rows are grouped.
//! - `tn`: 4×16 over a k-major packed A strip (stride `TN_MR`).
//!
//! Numerics: accumulation is f32 throughout. FMA keeps the infinitely
//! precise product before each add, so results differ from the scalar
//! mul-then-add kernels by bounded rounding — the oracle property tests
//! gate this at an explicit ULP / forward-error bound
//! (`tests/simd_oracle.rs`) instead of bit equality. Within *this* path,
//! the decomposition-invariance rules from [`crate::kernels`] still hold:
//! share boundaries are tile-aligned, so worker count never changes which
//! elements go through full vs edge kernels.

use crate::adam::{self, AdamCoeffs};
use crate::half::{f16_to_f32, f32_to_f16};
use crate::kernels::{kern_nn_edge, pack_a_strip};
use crate::matrix::Matrix;
use crate::vmath;
use core::arch::x86_64::*;
use std::ops::Range;

/// nn microkernel row tile.
pub(crate) const MR_NN: usize = 6;
/// nn packed-panel width (two YMM vectors).
pub(crate) const NR_NN: usize = 16;
/// k-chunk length for the nn drivers: a KC×[`NR_NN`] f32 panel chunk is
/// 16 KB, sized to stay L1-resident while every row tile sweeps it.
const KC: usize = 256;
/// tn microkernel row tile (packed A strip stride).
pub(crate) const TN_MR: usize = 4;
/// tn column tile.
pub(crate) const TN_NR: usize = 16;

/// Runtime check for the f32 kernels.
pub fn have_avx2_fma() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// Runtime check for the binary16 codec and the Adam kernel that emits
/// binary16 (in addition to [`have_avx2_fma`]).
pub fn have_f16c() -> bool {
    is_x86_feature_detected!("f16c")
}

// ---------------------------------------------------------------------------
// nn: A·B over packed 16-wide B panels
// ---------------------------------------------------------------------------

/// AVX2 worker for a row range of `out (+)= a·B` (+ optional bias). B is
/// read in place (`bs` row-major, row stride `bstride`): the kernels load
/// contiguous [`NR_NN`]-wide strips per k step, so packing would only add
/// a full extra read+write pass over B.
#[allow(clippy::too_many_arguments)]
pub(crate) fn nn_rows(
    a: &Matrix,
    rows: Range<usize>,
    k: usize,
    n: usize,
    bs: &[f32],
    bstride: usize,
    out: &mut [f32],
    acc: bool,
    bias: Option<&[f32]>,
) {
    debug_assert!(have_avx2_fma());
    // SAFETY: drivers dispatch here only after runtime AVX2+FMA detection.
    unsafe { nn_rows_impl(a, rows, k, n, bs, bstride, out, acc, bias) }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn nn_rows_impl(
    a: &Matrix,
    rows: Range<usize>,
    k: usize,
    n: usize,
    bs: &[f32],
    bstride: usize,
    out: &mut [f32],
    acc: bool,
    bias: Option<&[f32]>,
) {
    let asl = a.as_slice();
    let lda = a.cols();
    let m = rows.len();
    let panels = n.div_ceil(NR_NN);
    // Cache-blocked loop nest: k-chunk outer (the m×KC slab of A becomes
    // L2-resident after the first panel sweeps it), panel next (one KC×16
    // panel chunk — 16 KB — stays L1-resident across the row tiles), row
    // tiles inner. Results are unchanged: each C element still folds its
    // k terms in ascending order — later chunks resume from the spilled
    // f32 partial, and an f32 round-trips memory exactly.
    let mut kc = 0;
    while kc < k.max(1) {
        let klen = KC.min(k - kc);
        let tile_acc = acc || kc > 0;
        for p in 0..panels {
            let j0 = p * NR_NN;
            let w = NR_NN.min(n - j0);
            let chunk = &bs[kc * bstride + j0..];
            let mut i = 0;
            while i < m {
                let rows_here = MR_NN.min(m - i);
                let arow = &asl[(rows.start + i) * lda + kc..];
                let oblock = &mut out[i * n + j0..];
                if rows_here == MR_NN && w == NR_NN {
                    kern_nn_6x16(arow, lda, klen, chunk, bstride, oblock, n, tile_acc);
                } else if w == NR_NN {
                    kern_nn_edge_rows(
                        arow, lda, klen, rows_here, chunk, bstride, oblock, n, tile_acc,
                    );
                } else {
                    kern_nn_edge(
                        arow, lda, klen, rows_here, chunk, w, bstride, oblock, n, tile_acc,
                    );
                }
                i += rows_here;
            }
        }
        kc += klen.max(1);
    }
    if let Some(bias) = bias {
        for r in 0..m {
            for (o, b) in out[r * n..(r + 1) * n].iter_mut().zip(bias) {
                *o += b;
            }
        }
    }
}

/// Full 6×16 nn tile: 12 YMM accumulators live across the whole k sweep.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kern_nn_6x16(
    a: &[f32],
    lda: usize,
    k: usize,
    panel: &[f32],
    pstride: usize,
    out: &mut [f32],
    ldc: usize,
    acc: bool,
) {
    debug_assert!(k == 0 || panel.len() >= (k - 1) * pstride + NR_NN);
    debug_assert!(a.len() >= (MR_NN - 1) * lda + k);
    debug_assert!(out.len() >= (MR_NN - 1) * ldc + NR_NN);
    let ap = a.as_ptr();
    let pp = panel.as_ptr();
    let op = out.as_mut_ptr();
    let (
        mut c00,
        mut c01,
        mut c10,
        mut c11,
        mut c20,
        mut c21,
        mut c30,
        mut c31,
        mut c40,
        mut c41,
        mut c50,
        mut c51,
    );
    if acc {
        c00 = _mm256_loadu_ps(op);
        c01 = _mm256_loadu_ps(op.add(8));
        c10 = _mm256_loadu_ps(op.add(ldc));
        c11 = _mm256_loadu_ps(op.add(ldc + 8));
        c20 = _mm256_loadu_ps(op.add(2 * ldc));
        c21 = _mm256_loadu_ps(op.add(2 * ldc + 8));
        c30 = _mm256_loadu_ps(op.add(3 * ldc));
        c31 = _mm256_loadu_ps(op.add(3 * ldc + 8));
        c40 = _mm256_loadu_ps(op.add(4 * ldc));
        c41 = _mm256_loadu_ps(op.add(4 * ldc + 8));
        c50 = _mm256_loadu_ps(op.add(5 * ldc));
        c51 = _mm256_loadu_ps(op.add(5 * ldc + 8));
    } else {
        let z = _mm256_setzero_ps();
        c00 = z;
        c01 = z;
        c10 = z;
        c11 = z;
        c20 = z;
        c21 = z;
        c30 = z;
        c31 = z;
        c40 = z;
        c41 = z;
        c50 = z;
        c51 = z;
    }
    for kk in 0..k {
        // B rows sit a full matrix row apart (`pstride`), a stride the
        // hardware prefetcher won't track — fetch a few k-steps ahead.
        if kk + 4 < k {
            _mm_prefetch::<_MM_HINT_T0>(pp.add((kk + 4) * pstride) as *const i8);
        }
        let b0 = _mm256_loadu_ps(pp.add(kk * pstride));
        let b1 = _mm256_loadu_ps(pp.add(kk * pstride + 8));
        let a0 = _mm256_set1_ps(*ap.add(kk));
        c00 = _mm256_fmadd_ps(a0, b0, c00);
        c01 = _mm256_fmadd_ps(a0, b1, c01);
        let a1 = _mm256_set1_ps(*ap.add(lda + kk));
        c10 = _mm256_fmadd_ps(a1, b0, c10);
        c11 = _mm256_fmadd_ps(a1, b1, c11);
        let a2 = _mm256_set1_ps(*ap.add(2 * lda + kk));
        c20 = _mm256_fmadd_ps(a2, b0, c20);
        c21 = _mm256_fmadd_ps(a2, b1, c21);
        let a3 = _mm256_set1_ps(*ap.add(3 * lda + kk));
        c30 = _mm256_fmadd_ps(a3, b0, c30);
        c31 = _mm256_fmadd_ps(a3, b1, c31);
        let a4 = _mm256_set1_ps(*ap.add(4 * lda + kk));
        c40 = _mm256_fmadd_ps(a4, b0, c40);
        c41 = _mm256_fmadd_ps(a4, b1, c41);
        let a5 = _mm256_set1_ps(*ap.add(5 * lda + kk));
        c50 = _mm256_fmadd_ps(a5, b0, c50);
        c51 = _mm256_fmadd_ps(a5, b1, c51);
    }
    _mm256_storeu_ps(op, c00);
    _mm256_storeu_ps(op.add(8), c01);
    _mm256_storeu_ps(op.add(ldc), c10);
    _mm256_storeu_ps(op.add(ldc + 8), c11);
    _mm256_storeu_ps(op.add(2 * ldc), c20);
    _mm256_storeu_ps(op.add(2 * ldc + 8), c21);
    _mm256_storeu_ps(op.add(3 * ldc), c30);
    _mm256_storeu_ps(op.add(3 * ldc + 8), c31);
    _mm256_storeu_ps(op.add(4 * ldc), c40);
    _mm256_storeu_ps(op.add(4 * ldc + 8), c41);
    _mm256_storeu_ps(op.add(5 * ldc), c50);
    _mm256_storeu_ps(op.add(5 * ldc + 8), c51);
}

/// Row-remainder nn tile: `R` (< 6) rows × full 16 cols, same ascending-k
/// FMA schedule as [`kern_nn_6x16`] with `R` accumulator pairs. Keeps the
/// m-edge on SIMD throughput — a 2-row edge at m = 128 was ~30% of wall
/// time on the GPT-Small ffn shapes when it fell back to the scalar edge.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kern_nn_rx16<const R: usize>(
    a: &[f32],
    lda: usize,
    k: usize,
    panel: &[f32],
    pstride: usize,
    out: &mut [f32],
    ldc: usize,
    acc: bool,
) {
    debug_assert!(k == 0 || panel.len() >= (k - 1) * pstride + NR_NN);
    debug_assert!(a.len() >= (R - 1) * lda + k);
    debug_assert!(out.len() >= (R - 1) * ldc + NR_NN);
    let ap = a.as_ptr();
    let pp = panel.as_ptr();
    let op = out.as_mut_ptr();
    let mut c0 = [_mm256_setzero_ps(); R];
    let mut c1 = [_mm256_setzero_ps(); R];
    if acc {
        for r in 0..R {
            c0[r] = _mm256_loadu_ps(op.add(r * ldc));
            c1[r] = _mm256_loadu_ps(op.add(r * ldc + 8));
        }
    }
    for kk in 0..k {
        let b0 = _mm256_loadu_ps(pp.add(kk * pstride));
        let b1 = _mm256_loadu_ps(pp.add(kk * pstride + 8));
        for r in 0..R {
            let av = _mm256_set1_ps(*ap.add(r * lda + kk));
            c0[r] = _mm256_fmadd_ps(av, b0, c0[r]);
            c1[r] = _mm256_fmadd_ps(av, b1, c1[r]);
        }
    }
    for r in 0..R {
        _mm256_storeu_ps(op.add(r * ldc), c0[r]);
        _mm256_storeu_ps(op.add(r * ldc + 8), c1[r]);
    }
}

/// Dispatches a full-width row-remainder tile to the monomorphized
/// [`kern_nn_rx16`] for 1–5 rows.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kern_nn_edge_rows(
    a: &[f32],
    lda: usize,
    k: usize,
    rows: usize,
    panel: &[f32],
    pstride: usize,
    out: &mut [f32],
    ldc: usize,
    acc: bool,
) {
    match rows {
        1 => kern_nn_rx16::<1>(a, lda, k, panel, pstride, out, ldc, acc),
        2 => kern_nn_rx16::<2>(a, lda, k, panel, pstride, out, ldc, acc),
        3 => kern_nn_rx16::<3>(a, lda, k, panel, pstride, out, ldc, acc),
        4 => kern_nn_rx16::<4>(a, lda, k, panel, pstride, out, ldc, acc),
        5 => kern_nn_rx16::<5>(a, lda, k, panel, pstride, out, ldc, acc),
        _ => unreachable!("row remainder must be 1..6"),
    }
}

// ---------------------------------------------------------------------------
// nt: A·Bᵀ as independent contiguous dot products
// ---------------------------------------------------------------------------

/// Fixed pairwise horizontal sum of a YMM: `(lo+hi)` 128-bit halves, then
/// two pairwise 128-bit steps. Every nt dot product reduces through this
/// exact tree, so grouping of rows/columns never changes a result.
#[target_feature(enable = "avx2")]
unsafe fn hsum(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let q = _mm_add_ps(lo, hi);
    let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    _mm_cvtss_f32(_mm_add_ss(h, _mm_movehdup_ps(h)))
}

/// One dot product: FMA over 8-lane octets in ascending k, [`hsum`], then
/// a scalar mul-add tail — the canonical per-element fold of the AVX2 nt
/// path (full tiles replay this schedule per accumulator).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_f32(a: *const f32, b: *const f32, k: usize) -> f32 {
    let k8 = k & !7usize;
    let mut acc = _mm256_setzero_ps();
    let mut kk = 0;
    while kk < k8 {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(kk)), _mm256_loadu_ps(b.add(kk)), acc);
        kk += 8;
    }
    let mut s = hsum(acc);
    for t in k8..k {
        s += *a.add(t) * *b.add(t);
    }
    s
}

/// AVX2 worker for a row range of `out (+)= a·bᵀ` (`b` row-major `n×k`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn nt_rows(
    a: &Matrix,
    bsl: &[f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
) {
    debug_assert!(have_avx2_fma());
    // SAFETY: drivers dispatch here only after runtime AVX2+FMA detection.
    unsafe { nt_rows_impl(a, bsl, rows, k, n, chunk, acc) }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn nt_rows_impl(
    a: &Matrix,
    bsl: &[f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
) {
    const TI: usize = 2;
    const TJ: usize = 4;
    let asl = a.as_slice();
    let mlocal = rows.len();
    let mut i = 0;
    while i < mlocal {
        let ih = TI.min(mlocal - i);
        let mut j = 0;
        while j < n {
            let jh = TJ.min(n - j);
            if ih == TI && jh == TJ {
                kern_nt_2x4(
                    asl.as_ptr().add((rows.start + i) * k),
                    bsl.as_ptr().add(j * k),
                    k,
                    chunk.as_mut_ptr().add(i * n + j),
                    n,
                    acc,
                );
            } else {
                for ii in 0..ih {
                    let ap = asl.as_ptr().add((rows.start + i + ii) * k);
                    for jj in 0..jh {
                        let d = dot_f32(ap, bsl.as_ptr().add((j + jj) * k), k);
                        let o = &mut chunk[(i + ii) * n + j + jj];
                        *o = if acc { *o + d } else { d };
                    }
                }
            }
            j += jh;
        }
        i += ih;
    }
}

/// 2×4 tile of dot products: 8 YMM accumulators, 6 loads / 8 FMAs per
/// octet. Each accumulator's fold is exactly [`dot_f32`]'s schedule.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kern_nt_2x4(
    ap: *const f32,
    bp: *const f32,
    k: usize,
    op: *mut f32,
    ldc: usize,
    acc: bool,
) {
    let k8 = k & !7usize;
    let z = _mm256_setzero_ps();
    let (mut c00, mut c01, mut c02, mut c03) = (z, z, z, z);
    let (mut c10, mut c11, mut c12, mut c13) = (z, z, z, z);
    let a1 = ap.add(k);
    let (b0, b1, b2, b3) = (bp, bp.add(k), bp.add(2 * k), bp.add(3 * k));
    let mut kk = 0;
    while kk < k8 {
        let va0 = _mm256_loadu_ps(ap.add(kk));
        let va1 = _mm256_loadu_ps(a1.add(kk));
        let vb0 = _mm256_loadu_ps(b0.add(kk));
        let vb1 = _mm256_loadu_ps(b1.add(kk));
        let vb2 = _mm256_loadu_ps(b2.add(kk));
        let vb3 = _mm256_loadu_ps(b3.add(kk));
        c00 = _mm256_fmadd_ps(va0, vb0, c00);
        c01 = _mm256_fmadd_ps(va0, vb1, c01);
        c02 = _mm256_fmadd_ps(va0, vb2, c02);
        c03 = _mm256_fmadd_ps(va0, vb3, c03);
        c10 = _mm256_fmadd_ps(va1, vb0, c10);
        c11 = _mm256_fmadd_ps(va1, vb1, c11);
        c12 = _mm256_fmadd_ps(va1, vb2, c12);
        c13 = _mm256_fmadd_ps(va1, vb3, c13);
        kk += 8;
    }
    let mut s = [
        [hsum(c00), hsum(c01), hsum(c02), hsum(c03)],
        [hsum(c10), hsum(c11), hsum(c12), hsum(c13)],
    ];
    for t in k8..k {
        let (x0, x1) = (*ap.add(t), *a1.add(t));
        let (y0, y1, y2, y3) = (*b0.add(t), *b1.add(t), *b2.add(t), *b3.add(t));
        s[0][0] += x0 * y0;
        s[0][1] += x0 * y1;
        s[0][2] += x0 * y2;
        s[0][3] += x0 * y3;
        s[1][0] += x1 * y0;
        s[1][1] += x1 * y1;
        s[1][2] += x1 * y2;
        s[1][3] += x1 * y3;
    }
    for (ii, si) in s.iter().enumerate() {
        for (jj, &sv) in si.iter().enumerate() {
            let o = op.add(ii * ldc + jj);
            *o = if acc { *o + sv } else { sv };
        }
    }
}

// ---------------------------------------------------------------------------
// tn: Aᵀ·B over a k-major packed A strip
// ---------------------------------------------------------------------------

/// AVX2 worker for a row range of `out (+)= aᵀ·b` (`a` is `r×m`, `b` is
/// `r×n`; `rows` are *output* rows = columns of `a`). `strip` is the
/// caller's per-thread pack scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tn_rows(
    asl: &[f32],
    bsl: &[f32],
    rows: Range<usize>,
    r: usize,
    m: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
    strip: &mut Vec<f32>,
) {
    debug_assert!(have_avx2_fma());
    // SAFETY: drivers dispatch here only after runtime AVX2+FMA detection.
    unsafe { tn_rows_impl(asl, bsl, rows, r, m, n, chunk, acc, strip) }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tn_rows_impl(
    asl: &[f32],
    bsl: &[f32],
    rows: Range<usize>,
    r: usize,
    m: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
    strip: &mut Vec<f32>,
) {
    let mlocal = rows.len();
    let mut i = 0;
    while i < mlocal {
        let ih = TN_MR.min(mlocal - i);
        pack_a_strip(asl, m, r, rows.start + i, ih, strip);
        let mut j = 0;
        while j < n {
            let jh = TN_NR.min(n - j);
            if ih == TN_MR && jh == TN_NR {
                kern_tn_4x16(
                    strip.as_ptr(),
                    bsl.as_ptr().add(j),
                    r,
                    n,
                    chunk.as_mut_ptr().add(i * n + j),
                    n,
                    acc,
                );
            } else {
                for ii in 0..ih {
                    for jj in 0..jh {
                        let mut s = if acc { chunk[(i + ii) * n + j + jj] } else { 0.0 };
                        for kk in 0..r {
                            s = strip[kk * ih + ii].mul_add(bsl[kk * n + j + jj], s);
                        }
                        chunk[(i + ii) * n + j + jj] = s;
                    }
                }
            }
            j += jh;
        }
        i += ih;
    }
}

/// Full 4×16 tn tile: 8 YMM accumulators, B rows loaded unaligned at
/// stride `ldb`, A broadcast from the packed strip (stride [`TN_MR`]).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kern_tn_4x16(
    sp: *const f32,
    bp: *const f32,
    r: usize,
    ldb: usize,
    op: *mut f32,
    ldc: usize,
    acc: bool,
) {
    let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31);
    if acc {
        c00 = _mm256_loadu_ps(op);
        c01 = _mm256_loadu_ps(op.add(8));
        c10 = _mm256_loadu_ps(op.add(ldc));
        c11 = _mm256_loadu_ps(op.add(ldc + 8));
        c20 = _mm256_loadu_ps(op.add(2 * ldc));
        c21 = _mm256_loadu_ps(op.add(2 * ldc + 8));
        c30 = _mm256_loadu_ps(op.add(3 * ldc));
        c31 = _mm256_loadu_ps(op.add(3 * ldc + 8));
    } else {
        let z = _mm256_setzero_ps();
        c00 = z;
        c01 = z;
        c10 = z;
        c11 = z;
        c20 = z;
        c21 = z;
        c30 = z;
        c31 = z;
    }
    for kk in 0..r {
        let b0 = _mm256_loadu_ps(bp.add(kk * ldb));
        let b1 = _mm256_loadu_ps(bp.add(kk * ldb + 8));
        let a0 = _mm256_set1_ps(*sp.add(kk * TN_MR));
        c00 = _mm256_fmadd_ps(a0, b0, c00);
        c01 = _mm256_fmadd_ps(a0, b1, c01);
        let a1 = _mm256_set1_ps(*sp.add(kk * TN_MR + 1));
        c10 = _mm256_fmadd_ps(a1, b0, c10);
        c11 = _mm256_fmadd_ps(a1, b1, c11);
        let a2 = _mm256_set1_ps(*sp.add(kk * TN_MR + 2));
        c20 = _mm256_fmadd_ps(a2, b0, c20);
        c21 = _mm256_fmadd_ps(a2, b1, c21);
        let a3 = _mm256_set1_ps(*sp.add(kk * TN_MR + 3));
        c30 = _mm256_fmadd_ps(a3, b0, c30);
        c31 = _mm256_fmadd_ps(a3, b1, c31);
    }
    _mm256_storeu_ps(op, c00);
    _mm256_storeu_ps(op.add(8), c01);
    _mm256_storeu_ps(op.add(ldc), c10);
    _mm256_storeu_ps(op.add(ldc + 8), c11);
    _mm256_storeu_ps(op.add(2 * ldc), c20);
    _mm256_storeu_ps(op.add(2 * ldc + 8), c21);
    _mm256_storeu_ps(op.add(3 * ldc), c30);
    _mm256_storeu_ps(op.add(3 * ldc + 8), c31);
}

// ---------------------------------------------------------------------------
// Vector math: the 8-lane encoding of `crate::vmath`
// ---------------------------------------------------------------------------
//
// Every function below performs, per lane, exactly the operation sequence of
// its scalar twin in `crate::vmath` — same constants, same order, mul and add
// never fused (the functions enable `avx2` only, so no FMA can be emitted) —
// which is what makes the two encodings bit-identical. Change one, change
// the other; `tests/vmath_oracle.rs` compares them bitwise.

/// 8-lane [`vmath::exp`].
#[target_feature(enable = "avx2")]
unsafe fn exp_ps(x: __m256) -> __m256 {
    let lo = _mm256_set1_ps(vmath::EXP_LO);
    // MAXPS/MINPS return their *second* operand when either is NaN: with x
    // second, a NaN lane survives the clamp (`vmath::max_sse`/`min_sse`).
    let xc = _mm256_min_ps(_mm256_set1_ps(vmath::EXP_HI), _mm256_max_ps(lo, x));
    let magic = _mm256_set1_ps(vmath::ROUND_MAGIC);
    let t = _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(vmath::LOG2E)), magic);
    let nf = _mm256_sub_ps(t, magic);
    let r = _mm256_sub_ps(
        _mm256_sub_ps(xc, _mm256_mul_ps(nf, _mm256_set1_ps(vmath::LN2_HI))),
        _mm256_mul_ps(nf, _mm256_set1_ps(vmath::LN2_LO)),
    );
    let mut p = _mm256_set1_ps(vmath::EXP_POLY[0]);
    for &c in &vmath::EXP_POLY[1..] {
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
    }
    let p =
        _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r), _mm256_set1_ps(1.0));
    let n = _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_set1_epi32(vmath::ROUND_MAGIC_BITS));
    let h = _mm256_srai_epi32::<1>(n);
    let bias = _mm256_set1_epi32(127);
    let s1 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(h, bias)));
    let s2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_sub_epi32(n, h),
        bias,
    )));
    let y = _mm256_mul_ps(_mm256_mul_ps(p, s1), s2);
    _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x, lo), y)
}

/// 8-lane [`vmath::tanh`].
#[target_feature(enable = "avx2")]
unsafe fn tanh_ps(u: __m256) -> __m256 {
    let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
    let a = _mm256_andnot_ps(sign_mask, u);
    let z = _mm256_mul_ps(a, a);
    let mut q = _mm256_set1_ps(vmath::TANH_POLY[0]);
    for &c in &vmath::TANH_POLY[1..] {
        q = _mm256_add_ps(_mm256_mul_ps(q, z), _mm256_set1_ps(c));
    }
    let small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(q, z), a), a);
    let e = exp_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), a));
    let one = _mm256_set1_ps(1.0);
    let big = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
    let is_small = _mm256_cmp_ps::<_CMP_LT_OQ>(a, _mm256_set1_ps(vmath::TANH_SMALL));
    let r = _mm256_blendv_ps(big, small, is_small);
    _mm256_or_ps(r, _mm256_and_ps(sign_mask, u))
}

/// `tanh(C·(x + A·x·x·x))` — the shared inner term of GELU and GELU′.
#[target_feature(enable = "avx2")]
unsafe fn gelu_tanh_ps(x: __m256) -> __m256 {
    let ax = _mm256_mul_ps(_mm256_set1_ps(vmath::GELU_A), x);
    let ax3 = _mm256_mul_ps(_mm256_mul_ps(ax, x), x);
    tanh_ps(_mm256_mul_ps(_mm256_set1_ps(vmath::GELU_C), _mm256_add_ps(x, ax3)))
}

/// 8-lane [`vmath::gelu`].
#[target_feature(enable = "avx2")]
unsafe fn gelu_ps(x: __m256) -> __m256 {
    let t = gelu_tanh_ps(x);
    _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5), x), _mm256_add_ps(_mm256_set1_ps(1.0), t))
}

/// 8-lane [`vmath::gelu_grad`].
#[target_feature(enable = "avx2")]
unsafe fn gelu_grad_ps(x: __m256) -> __m256 {
    let x = _mm256_min_ps(
        _mm256_set1_ps(vmath::GELU_GRAD_CLAMP),
        _mm256_max_ps(_mm256_set1_ps(-vmath::GELU_GRAD_CLAMP), x),
    );
    let t = gelu_tanh_ps(x);
    let one = _mm256_set1_ps(1.0);
    let half = _mm256_set1_ps(0.5);
    let sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
    let poly =
        _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(vmath::GELU_3A), x), x));
    let slope = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(half, x), sech2), _mm256_set1_ps(vmath::GELU_C)),
        poly,
    );
    _mm256_add_ps(_mm256_mul_ps(half, _mm256_add_ps(one, t)), slope)
}

/// Loads `s` (fewer than 8 elements) into a zero-padded vector.
#[target_feature(enable = "avx2")]
unsafe fn load_tail(s: &[f32]) -> __m256 {
    let mut buf = [0.0f32; 8];
    buf[..s.len()].copy_from_slice(s);
    _mm256_loadu_ps(buf.as_ptr())
}

/// Stores the first `d.len()` (fewer than 8) lanes of `v` into `d`.
#[target_feature(enable = "avx2")]
unsafe fn store_tail(v: __m256, d: &mut [f32]) {
    let mut buf = [0.0f32; 8];
    _mm256_storeu_ps(buf.as_mut_ptr(), v);
    d.copy_from_slice(&buf[..d.len()]);
}

/// `dst[i] = f(src[i])`, 8 lanes at a time. The tail (`len % 8` elements)
/// goes through a zero-padded vector, so every element — full chunk or tail
/// — is computed by the same lane code. Loads and stores are unaligned and
/// confined to `chunks_exact` slices and the 8-element stack buffers.
#[target_feature(enable = "avx2")]
unsafe fn map_ps(src: &[f32], dst: &mut [f32], f: impl Fn(__m256) -> __m256) {
    assert_eq!(src.len(), dst.len());
    let mut s8 = src.chunks_exact(8);
    let mut d8 = dst.chunks_exact_mut(8);
    for (s, d) in (&mut s8).zip(&mut d8) {
        _mm256_storeu_ps(d.as_mut_ptr(), f(_mm256_loadu_ps(s.as_ptr())));
    }
    let s = s8.remainder();
    if !s.is_empty() {
        store_tail(f(load_tail(s)), d8.into_remainder());
    }
}

/// Two-input [`map_ps`]: `dst[i] = f(a[i], b[i])`.
#[target_feature(enable = "avx2")]
unsafe fn map2_ps(a: &[f32], b: &[f32], dst: &mut [f32], f: impl Fn(__m256, __m256) -> __m256) {
    assert_eq!(a.len(), dst.len());
    assert_eq!(b.len(), dst.len());
    let mut a8 = a.chunks_exact(8);
    let mut b8 = b.chunks_exact(8);
    let mut d8 = dst.chunks_exact_mut(8);
    for ((a, b), d) in (&mut a8).zip(&mut b8).zip(&mut d8) {
        let v = f(_mm256_loadu_ps(a.as_ptr()), _mm256_loadu_ps(b.as_ptr()));
        _mm256_storeu_ps(d.as_mut_ptr(), v);
    }
    let (a, b) = (a8.remainder(), b8.remainder());
    if !a.is_empty() {
        store_tail(f(load_tail(a), load_tail(b)), d8.into_remainder());
    }
}

/// AVX2 [`vmath::exp_sub_slice`].
pub fn exp_sub_slice(x: &[f32], shift: f32, out: &mut [f32]) {
    debug_assert!(have_avx2_fma());
    // SAFETY: the vmath dispatchers come here only after runtime AVX2
    // detection (`active_path() == Avx2`).
    unsafe {
        let sh = _mm256_set1_ps(shift);
        map_ps(x, out, |v| exp_ps(_mm256_sub_ps(v, sh)))
    }
}

/// AVX2 [`vmath::tanh_slice`].
pub fn tanh_slice(x: &[f32], out: &mut [f32]) {
    debug_assert!(have_avx2_fma());
    // SAFETY: as in `exp_sub_slice`.
    unsafe { map_ps(x, out, |v| tanh_ps(v)) }
}

/// AVX2 [`vmath::gelu_slice`].
pub fn gelu_slice(x: &[f32], out: &mut [f32]) {
    debug_assert!(have_avx2_fma());
    // SAFETY: as in `exp_sub_slice`.
    unsafe { map_ps(x, out, |v| gelu_ps(v)) }
}

/// AVX2 [`vmath::gelu_backward_slice`].
pub fn gelu_backward_slice(x: &[f32], dy: &[f32], dx: &mut [f32]) {
    debug_assert!(have_avx2_fma());
    // SAFETY: as in `exp_sub_slice`.
    unsafe { map2_ps(x, dy, dx, |x, dy| _mm256_mul_ps(dy, gelu_grad_ps(x))) }
}

// ---------------------------------------------------------------------------
// Adam and the binary16 codec: the 8-lane encodings of `crate::adam::update`
// and `crate::half::{f32_to_f16, f16_to_f32}`
// ---------------------------------------------------------------------------
//
// Same contract as the vector math above: a lane performs exactly the scalar
// specification's operations in its order. The functions enable `avx2` and
// `f16c` only, so mul and add cannot be contracted into an FMA; `VDIVPS` and
// `VSQRTPS` are correctly rounded like their scalar forms; `VCVTPS2PH` with
// an explicit round-to-nearest-even control and `VCVTPH2PS` agree with the
// scalar codec on every input (`tests/adam_oracle.rs`, exhaustively). Tails
// (`len % 8` elements) run the scalar specification itself. Loads and stores
// are unaligned and confined to `chunks_exact(8)` slices.

/// `VCVTPS2PH` rounding control: nearest-even from the immediate itself
/// (bit 2 clear), whatever MXCSR says.
const F16_ROUND: i32 = _MM_FROUND_TO_NEAREST_INT;

/// Widens 8 packed binary16 values to a YMM of f32 (`vcvtph2ps`).
#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn load_f16x8(p: *const u16) -> __m256 {
    _mm256_cvtph_ps(_mm_loadu_si128(p as *const __m128i))
}

/// Narrows 8 lanes to binary16 and stores them into `dst` (8 elements).
#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn store_f16x8(v: __m256, dst: &mut [u16]) {
    debug_assert_eq!(dst.len(), 8);
    _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, _mm256_cvtps_ph::<F16_ROUND>(v));
}

/// 8 lanes of [`adam::update`] over 8-element slices: updates `(w, m, v)` in
/// place and returns the new master weights.
#[target_feature(enable = "avx2")]
unsafe fn adam_update8(
    k: &AdamCoeffs,
    g: &[f32],
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
) -> __m256 {
    debug_assert!(g.len() == 8 && w.len() == 8 && m.len() == 8 && v.len() == 8);
    let w0 = _mm256_loadu_ps(w.as_ptr());
    let g = _mm256_add_ps(
        _mm256_loadu_ps(g.as_ptr()),
        _mm256_mul_ps(_mm256_set1_ps(k.weight_decay), w0),
    );
    let m1 = _mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(k.beta1), _mm256_loadu_ps(m.as_ptr())),
        _mm256_mul_ps(_mm256_set1_ps(k.one_minus_beta1), g),
    );
    let v1 = _mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(k.beta2), _mm256_loadu_ps(v.as_ptr())),
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(k.one_minus_beta2), g), g),
    );
    let mhat = _mm256_div_ps(m1, _mm256_set1_ps(k.bias1));
    let vhat = _mm256_div_ps(v1, _mm256_set1_ps(k.bias2));
    let step = _mm256_div_ps(
        _mm256_mul_ps(_mm256_set1_ps(k.lr), mhat),
        _mm256_add_ps(_mm256_sqrt_ps(vhat), _mm256_set1_ps(k.eps)),
    );
    let w1 = _mm256_sub_ps(w0, step);
    _mm256_storeu_ps(m.as_mut_ptr(), m1);
    _mm256_storeu_ps(v.as_mut_ptr(), v1);
    _mm256_storeu_ps(w.as_mut_ptr(), w1);
    w1
}

/// One chunk of the Adam step: the vector body calls `store8` on each
/// octet's new master weights, the tail runs the scalar specification with
/// `publish` as its store.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn adam_chunk<O>(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grads: &[f32],
    out: &mut [O],
    store8: impl Fn(__m256, &mut [O]),
    publish: impl Fn(f32) -> O,
) {
    let n = master.len();
    assert!(m.len() == n && v.len() == n && grads.len() == n && out.len() == n);
    let mut w8 = master.chunks_exact_mut(8);
    let mut m8 = m.chunks_exact_mut(8);
    let mut v8 = v.chunks_exact_mut(8);
    let mut g8 = grads.chunks_exact(8);
    let mut o8 = out.chunks_exact_mut(8);
    for ((((w, m), v), g), o) in (&mut w8).zip(&mut m8).zip(&mut v8).zip(&mut g8).zip(&mut o8) {
        store8(adam_update8(k, g, w, m, v), o);
    }
    adam::chunk_scalar(
        k,
        w8.into_remainder(),
        m8.into_remainder(),
        v8.into_remainder(),
        g8.remainder(),
        o8.into_remainder(),
        publish,
    );
}

/// AVX2+F16C encoding of an Adam chunk published as f32 on the fp16 grid.
pub(crate) fn adam_chunk_f32(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grads: &[f32],
    out: &mut [f32],
) {
    debug_assert!(have_avx2_fma() && have_f16c());
    // SAFETY: `adam` dispatches here only when `f16_fast_path()` holds, i.e.
    // after runtime AVX2+F16C detection; `adam_chunk` checks the lengths and
    // touches memory through `chunks_exact(8)` slices only.
    unsafe {
        let store8 = |w: __m256, o: &mut [f32]| {
            let grid = _mm256_cvtph_ps(_mm256_cvtps_ph::<F16_ROUND>(w));
            _mm256_storeu_ps(o.as_mut_ptr(), grid)
        };
        adam_chunk(k, master, m, v, grads, out, store8, crate::half::quantize_f16)
    }
}

/// AVX2+F16C encoding of an Adam chunk published as binary16 bits.
pub(crate) fn adam_chunk_f16(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grads: &[f32],
    out: &mut [u16],
) {
    debug_assert!(have_avx2_fma() && have_f16c());
    // SAFETY: as in `adam_chunk_f32`.
    unsafe { adam_chunk(k, master, m, v, grads, out, |w, o| store_f16x8(w, o), f32_to_f16) }
}

/// AVX2+F16C [`crate::half::encode`].
pub(crate) fn encode_f16(src: &[f32], dst: &mut [u16]) {
    debug_assert!(have_avx2_fma() && have_f16c());
    // SAFETY: `half::encode` dispatches here only when `f16_fast_path()`
    // holds; the implementation checks the lengths.
    unsafe { encode_f16_impl(src, dst) }
}

#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn encode_f16_impl(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len());
    let mut s8 = src.chunks_exact(8);
    let mut d8 = dst.chunks_exact_mut(8);
    for (s, d) in (&mut s8).zip(&mut d8) {
        store_f16x8(_mm256_loadu_ps(s.as_ptr()), d);
    }
    for (h, &w) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *h = f32_to_f16(w);
    }
}

/// AVX2+F16C [`crate::half::decode`].
pub(crate) fn decode_f16(src: &[u16], dst: &mut [f32]) {
    debug_assert!(have_avx2_fma() && have_f16c());
    // SAFETY: as in `encode_f16`.
    unsafe { decode_f16_impl(src, dst) }
}

#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn decode_f16_impl(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    let mut s8 = src.chunks_exact(8);
    let mut d8 = dst.chunks_exact_mut(8);
    for (s, d) in (&mut s8).zip(&mut d8) {
        _mm256_storeu_ps(d.as_mut_ptr(), load_f16x8(s.as_ptr()));
    }
    for (w, &h) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *w = f16_to_f32(h);
    }
}
