//! AVX2 + FMA GEMM microkernels, their AVX-512F register tiles and column
//! edge, and the vector math on 8 and 16 lanes (x86_64 only).
//!
//! The drivers in [`crate::kernels`] dispatch here when the active family
//! is `Avx2` or `Avx512` ([`crate::kernels::SimdPath`]). They share every
//! kernel of this module but the loop nest's register tiles and column edge
//! (below) and the vector math's width (its own section), and differ in
//! no result bit. Every wrapper the drivers call is *safe*: it
//! `debug_assert!`s the feature set and then calls a `#[target_feature]`
//! implementation —
//! the `unsafe` is confined to those implementations plus the intrinsic
//! calls, and is sound exactly because a family is only ever active on a
//! CPU that has its features: detection picks it, and both `SYMI_SIMD=avx2`
//! and [`crate::kernels::force_simd_path`] refuse a family the CPU lacks.
//!
//! # One loop nest for the three layouts
//!
//! `nn`, `tn` and `nt` run on FMA register tiles inside one cache-blocked
//! loop nest (`tile_gemm`): k-chunk of `KC` = 256 outer (`KC_F16` = 64 for a
//! binary16 `nn` B), then one of two visit orders through one kernel
//! dispatch. `nn` and `nt` go panel-major — B panel next, row tiles inner —
//! so a panel stays L1-resident, and is widened or transposed once, while
//! every row tile sweeps it. `tn` goes row-block-major — blocks of
//! [`MR_WIDE`] output rows next, the block's panels inner — so each row of
//! its destination, a wide parameter gradient that arrives cold, is written
//! front to back instead of one column strip at a time. A 512-bit `tn`
//! tile that overwrites its destination (write mode) prefetches the
//! destination rows before its k loop, so its stores do not wait on cold
//! lines. Each family has one const-generic tile per panel width,
//! instanced at every row height it meets:
//!
//! - `Avx2`: `kern_rx16`, R×16 on two YMM accumulators per row — two 8-wide
//!   B loads and R A broadcasts per k step. R = `MR_TILE` (6, twelve
//!   accumulators) is the full tile, 1–5 its row remainder.
//! - `Avx512`: `kern_rx32`, R×32 on 32-column panels — two ZMM
//!   accumulators per row, two 16-wide B loads and R A broadcasts per k
//!   step, each broadcast feeding both of its row's FMAs. R = [`MR_WIDE`]
//!   is the full tile, 1–11 its row remainder. Every 16-column panel — the
//!   16–31 columns left after the last 32-column one, and the column edge
//!   below — runs `kern_rx16_masked`, R×16 (R ≤ `MR_SQUARE` = 16) on one ZMM
//!   accumulator per row whose lanes past the panel's width are masked off.
//!   No 16-column panel of this family touches a 256-bit tile.
//!
//! A lane of any tile performs the same `vfmadd` sequence on the same
//! operands, so the two families give identical bits. The layouts differ
//! only in where the tile reads its operands:
//!
//! - `nn` (`A·B`): A row-major; B read in place — row-major B already holds
//!   each panel at its row stride, so there is no packing pass. A binary16
//!   B is the one exception: each 64-row panel chunk — a contiguous band of
//!   B's rows — is widened with `VCVTPH2PS` into an L1-sized buffer as it
//!   is copied, once per (panel, k-chunk), and every row tile of the share
//!   sweeps it.
//! - `tn` (`Aᵀ·B`): B as in `nn`; A is broadcast transposed in place,
//!   element (i, kk) read at `a[kk·m + i]`, so the broadcasts of one k
//!   step are adjacent floats. No strip is packed.
//! - `nt` (`A·Bᵀ`): A as in `nn`; B is `n×k`, so each KC-long panel chunk
//!   is transposed into an L1-sized buffer once per (panel, k-chunk) and
//!   every row tile of the share sweeps it. A binary16 B is widened during
//!   the transpose: its rows load through `VCVTPH2PS` instead of `VMOVUPS`.
//!
//! The widened panels hold exactly the f32 values of the decoded B, and the
//! tiles fold them as they fold an f32 panel, so a binary16 B gives the f32
//! GEMM's bits.
//!
//! Column remainders (n mod 16) fold `nn`'s elements mul-then-add, as it
//! always has, and `tn`'s and `nt`'s by FMA — the same fold on either
//! family, at different widths: the 256-bit family runs scalar loops
//! (`f32::mul_add` for the FMA), the 512-bit one the masked kernel at the
//! edge's width (`vmulps` + `vaddps`, or `vfmadd`). So every `tn` element
//! and every `nt` element — any tile, row edge or column edge — is one
//! FMA chain over ascending k, started from `+0.0` or, accumulating, from
//! the destination, and spilled to the f32 output at the same k-chunk
//! boundaries; `nn` is that chain except in its column edge, which is the
//! mul-then-add chain.
//!
//! # One fold at every shape
//!
//! Every GEMM of both families runs this nest, at any m, k and n, over an
//! f32 or a binary16 B: no shape picks another kernel, so none picks
//! another fold. Keep it so: SYMI resizes each class's replicas every
//! iteration, which moves the row count of the `Trainer`'s expert backward
//! GEMMs, and a kernel chosen by m would let the placement change the
//! arithmetic, not only which tokens are kept. A skinny `nt` pays its panel
//! transposes at any m (DESIGN.md *Kernel choice by shape*).
//!
//! `tn` runs the tile at every depth: at a short reduction what decides its
//! time is the walk over the cold destination, which the row-block order
//! gives it (DESIGN.md *Skinny `tn` on cold operands*).
//!
//! Numerics: accumulation is f32 throughout. FMA keeps the infinitely
//! precise product before each add, so results differ from the scalar
//! mul-then-add kernels by bounded rounding — `tests/simd_oracle.rs` gates
//! every layout at an explicit ULP / forward-error bound and holds the
//! single-chain elements to a test-local `mul_add` fold with `==`, under
//! both families. Each element's fold is the same whichever tile, edge or
//! share computes it, and every share of a GEMM runs the same kernel, so
//! neither worker count nor register width changes a result.

use crate::adam::{self, AdamCoeffs};
use crate::attention::Geom;
use crate::half::{self, f16_to_f32, f32_to_f16, HalfTerm};
use crate::kernels::{kern_nn_edge, BElems};
use crate::matrix::Matrix;
use core::arch::x86_64::*;
use std::ops::Range;

/// Row tile of the 256-bit family's R×16 register tile (twelve YMM
/// accumulators at full height).
pub(crate) const MR_TILE: usize = 6;
/// Row tile of the 512-bit family's 32-column register tile: two ZMM
/// accumulators per row, so 2·12 = 24 of the 32 registers, with two B
/// vectors and the broadcasts beside them. The width replaced the 16
/// columns of the `MR_SQUARE`×16 tile (a k step of that one issues 17
/// loads for 16 FMAs, of this one 2 + 12 loads for 24); the height was
/// chosen from 12 and 14 rows timed end to end on a 2-vCPU Sapphire Rapids
/// guest (DESIGN.md *Compute kernels & threading*).
pub const MR_WIDE: usize = 12;
/// Row tile of the 512-bit family's masked R×16 kernel (one ZMM
/// accumulator per row), which runs every 16-column panel of that family:
/// the 16–31 columns a GEMM leaves after its last 32-column panel, and the
/// column edge. Heights 8, 12, 16 and 24 were timed for it when it ran
/// every full panel (DESIGN.md); at 12 rows `tn` 64×1024×16, whose B panel
/// a lower tile sweeps more often, took 1.26× as long.
pub(crate) const MR_SQUARE: usize = 16;
/// Column tile of the R×16 register tiles (two YMM or one ZMM), and the
/// row stride of `nt`'s transposed B panel on them.
pub(crate) const NR_TILE: usize = 16;
/// Column tile of the [`MR_WIDE`]×32 register tile (two ZMM).
const NR_WIDE: usize = 2 * NR_TILE;
/// k-chunk length of the loop nest: a KC×[`NR_TILE`] f32 panel chunk is
/// 16 KB, a KC×[`NR_WIDE`] one 32 KB, sized to stay L1-resident while every
/// row tile sweeps it.
const KC: usize = 256;
/// k-chunk length of a binary16 `nn` B: a widened panel chunk then reads a
/// contiguous band of B's rows, where a [`KC`]-long one reads 64 bytes from
/// each of 256 rows, 2 KB apart in a slot's `W1` (DESIGN.md *Tiling*).
const KC_F16: usize = 64;

/// Runtime check for the two x86 families: AVX2, FMA and F16C (the loop
/// nest widens a binary16 B with `VCVTPH2PS`; every AVX2 CPU has F16C).
pub fn have_avx2_fma() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") && have_f16c()
}

/// Runtime check for the 512-bit register tile (in addition to
/// [`have_avx2_fma`], which every other kernel of the family needs).
pub(crate) fn have_avx512f() -> bool {
    have_avx2_fma() && is_x86_feature_detected!("avx512f")
}

/// Row tile of the loop nest: [`MR_WIDE`] on the 512-bit family, else
/// [`MR_TILE`].
pub(crate) fn tile_rows(wide: bool) -> usize {
    if wide {
        MR_WIDE
    } else {
        MR_TILE
    }
}

/// Runtime check for F16C: the binary16 codec, the Adam kernel that emits
/// binary16, and a binary16 B in the loop nest.
pub fn have_f16c() -> bool {
    is_x86_feature_detected!("f16c")
}

// ---------------------------------------------------------------------------
// The FMA register tile and its loop nest
// ---------------------------------------------------------------------------

/// A's element (i, kk) from the tile's origin `ap`: row-major A (`nn`,
/// `nt`) steps `lda` per row and 1 per k; `tn`'s A, read transposed in
/// place, steps 1 per row and `lda` per k.
///
/// # Safety
///
/// `ap` offset by the element's index must lie inside A's allocation.
#[inline(always)]
unsafe fn a_at<const TA: bool>(ap: *const f32, lda: usize, i: usize, kk: usize) -> f32 {
    *ap.add(if TA { kk * lda + i } else { i * lda + kk })
}

/// Elements of A a `rows × k` tile reads from its origin.
fn a_extent<const TA: bool>(lda: usize, rows: usize, k: usize) -> usize {
    match (k, TA) {
        (0, _) => 0,
        (_, true) => (k - 1) * lda + rows,
        (_, false) => (rows - 1) * lda + k,
    }
}

/// Where the tile reads B.
enum Panels<'a> {
    /// Row-major `k×n` B, read in place at row stride `ldb` (`nn`, `tn`).
    InPlace { b: &'a [f32], ldb: usize },
    /// Row-major `k×n` binary16 B (`nn`): each panel chunk is widened into
    /// `buf` (row stride the panel's width) before the row tiles sweep it.
    Widened { b: &'a [u16], ldb: usize, buf: &'a mut [f32] },
    /// Row-major `n×k` B (`nt`): each panel chunk is transposed into `buf`
    /// (row stride the panel's width) before the row tiles sweep it.
    Transposed { b: &'a [f32], ldb: usize, buf: &'a mut [f32] },
    /// Row-major `n×k` binary16 B (`nt`): transposed as `Transposed`,
    /// widened on the way.
    WidenedTransposed { b: &'a [u16], ldb: usize, buf: &'a mut [f32] },
}

/// `buf`, grown to hold one KC-long chunk of the family's widest panel.
fn panel_scratch(buf: &mut Vec<f32>, k: usize, wide: bool) -> &mut [f32] {
    let need = KC.min(k) * if wide { NR_WIDE } else { NR_TILE };
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    buf
}

/// The 8×8 transpose: vector t of the result is column t of the block
/// whose rows are `r`.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let (t0, t1) = (_mm256_unpacklo_ps(r[0], r[1]), _mm256_unpackhi_ps(r[0], r[1]));
    let (t2, t3) = (_mm256_unpacklo_ps(r[2], r[3]), _mm256_unpackhi_ps(r[2], r[3]));
    let (t4, t5) = (_mm256_unpacklo_ps(r[4], r[5]), _mm256_unpackhi_ps(r[4], r[5]));
    let (t6, t7) = (_mm256_unpacklo_ps(r[6], r[7]), _mm256_unpackhi_ps(r[6], r[7]));
    let lo = [
        _mm256_shuffle_ps::<0x44>(t0, t2),
        _mm256_shuffle_ps::<0xEE>(t0, t2),
        _mm256_shuffle_ps::<0x44>(t1, t3),
        _mm256_shuffle_ps::<0xEE>(t1, t3),
    ];
    let hi = [
        _mm256_shuffle_ps::<0x44>(t4, t6),
        _mm256_shuffle_ps::<0xEE>(t4, t6),
        _mm256_shuffle_ps::<0x44>(t5, t7),
        _mm256_shuffle_ps::<0xEE>(t5, t7),
    ];
    // Column t of the block lives in the low 128-bit lanes, column t + 4 in
    // the high ones.
    let low = |t: usize| _mm256_permute2f128_ps::<0x20>(lo[t], hi[t]);
    let high = |t: usize| _mm256_permute2f128_ps::<0x31>(lo[t], hi[t]);
    [low(0), low(1), low(2), low(3), high(0), high(1), high(2), high(3)]
}

/// Transposes B's rows `j0 .. j0 + w`, columns `kc .. kc + klen` into
/// `buf`, k-major at stride `ps` ≥ `w`, widened to f32:
/// `buf[kk·ps + jj] = b[(j0 + jj)·ldb + kc + kk]`. Whole 8×8 blocks go
/// through registers (eight row loads through `row8` — `VMOVUPS` for f32,
/// `VCVTPH2PS` for binary16 — the unpack / shuffle / lane-permute
/// transpose, eight stores); the ragged rest is converted element by
/// element (`one`). The block loads and stores go through raw pointers: the
/// same code over bounds-checked `[T; 8]` chunks, as the vector math is
/// written, took up to 1.23× as long on the f32 `nt` and 1.14–1.67× on the
/// binary16 one (DESIGN.md *Compute kernels & threading*).
///
/// # Safety
///
/// AVX2, FMA and F16C must be available, and `row8` must read 8 elements
/// from its pointer and nothing else. The extents are `debug_assert!`ed;
/// the caller keeps them (`nt_rows` checks `b` is `n×ldb` and sizes `buf`).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn pack_bt<T: Copy>(
    b: &[T],
    ldb: usize,
    j0: usize,
    w: usize,
    kc: usize,
    klen: usize,
    buf: &mut [f32],
    ps: usize,
    row8: impl Fn(*const T) -> __m256,
    one: impl Fn(T) -> f32,
) {
    debug_assert!(w <= ps && buf.len() >= klen * ps);
    debug_assert!(w == 0 || klen == 0 || b.len() >= (j0 + w - 1) * ldb + kc + klen);
    let (w8, k8) = (w & !7, klen & !7);
    for jb in (0..w8).step_by(8) {
        let src = b.as_ptr().add((j0 + jb) * ldb + kc);
        for kb in (0..k8).step_by(8) {
            let row = |i: usize| row8(src.add(i * ldb + kb));
            let cols = transpose8([row(0), row(1), row(2), row(3), row(4), row(5), row(6), row(7)]);
            let dst = buf.as_mut_ptr().add(kb * ps + jb);
            for (t, col) in cols.into_iter().enumerate() {
                _mm256_storeu_ps(dst.add(t * ps), col);
            }
        }
    }
    for jj in 0..w {
        let row = &b[(j0 + jj) * ldb + kc..][..klen];
        let from = if jj < w8 { k8 } else { 0 };
        for (kk, &v) in row.iter().enumerate().skip(from) {
            buf[kk * ps + jj] = one(v);
        }
    }
}

/// Widens binary16 B's rows `kc .. kc + klen`, columns `j0 .. j0 + w` into
/// `buf` at row stride `ps` ≥ `w`:
/// `buf[kk·ps + jj] = b[(kc + kk)·ldb + j0 + jj]` — a binary16 `nn` panel
/// chunk, `VCVTPH2PS` eight at a time. Raw pointers for the same reason as
/// [`pack_bt`]: over checked slices (`decode_f16_impl` per panel row) the
/// widened `nn` took up to 1.73× as long at 8 A rows.
///
/// # Safety
///
/// AVX2, FMA and F16C must be available. The extents are `debug_assert!`ed;
/// the caller keeps them (`nn_rows` checks `b` covers `k` rows of `n` at
/// stride `ldb` and sizes `buf`).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn widen_panel(
    b: &[u16],
    ldb: usize,
    j0: usize,
    w: usize,
    kc: usize,
    klen: usize,
    buf: &mut [f32],
    ps: usize,
) {
    debug_assert!(w <= ps && buf.len() >= klen * ps);
    debug_assert!(w == 0 || klen == 0 || b.len() >= (kc + klen - 1) * ldb + j0 + w);
    let w8 = w & !7;
    let (src, dst) = (b.as_ptr().add(kc * ldb + j0), buf.as_mut_ptr());
    for kk in 0..klen {
        let (s, d) = (src.add(kk * ldb), dst.add(kk * ps));
        for j in (0..w8).step_by(8) {
            _mm256_storeu_ps(d.add(j), _mm256_cvtph_ps(_mm_loadu_si128(s.add(j).cast())));
        }
        for j in w8..w {
            *d.add(j) = f16_to_f32(*s.add(j));
        }
    }
}

/// The panels of an `n`-column B as (first column, panel width): `NR`
/// columns while that many are left, then [`NR_TILE`] — the last of which
/// may hold fewer columns (the column edge).
fn panel_cols<const NR: usize>(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j0 = 0;
    std::iter::from_fn(move || {
        (j0 < n).then(|| {
            let nr = if NR > NR_TILE && n - j0 >= NR { NR } else { NR_TILE };
            j0 += nr;
            (j0 - nr, nr)
        })
    })
}

/// A register tile's binary16 destination (`tn` in write mode): rows
/// `ldc` elements apart from `bits`, each finished f32 FMA chain ×`scale`
/// and narrowed (`VCVTPS2PH`) as the tile stores it. `len` elements from
/// `bits` are the tile's to write; [`HalfOut::NONE`] for an f32
/// destination.
#[derive(Clone, Copy)]
struct HalfOut {
    bits: *mut u16,
    len: usize,
    scale: f32,
}

impl HalfOut {
    const NONE: HalfOut = HalfOut { bits: std::ptr::null_mut(), len: 0, scale: 1.0 };

    /// The destination elements from the tile's first one on.
    fn rows_of(bits: &mut [u16], scale: f32) -> Self {
        HalfOut { bits: bits.as_mut_ptr(), len: bits.len(), scale }
    }
}

/// `out (+)= A·B` for `m` rows of A whose first row starts at `a[a0]`
/// (layout `TA`, stride `lda`), reduction `k`, `n` columns; `out` is the
/// row-major `m×n` destination. Cache-blocked: k-chunks outer — [`KC`]
/// long, or [`KC_F16`] for a binary16 `nn` B (the `Widened` arm) — and
/// inside a chunk one of two visit orders:
///
/// - panel-major (`nn`, `nt`): panel next, row tiles inner. One KC×`NR`
///   panel chunk (16 or 32 KB) stays L1-resident across the row tiles, and
///   a widened or transposed panel is built once per (panel, k-chunk).
/// - row-block-major (`tn`): blocks of [`MR_WIDE`] rows next (of
///   [`MR_SQUARE`] when B is narrower than one 32-column panel, so the
///   masked tile keeps its height), the block's panels inner: each row of
///   the destination, a wide and cold gradient, is written front to back.
///
/// Chunking and order change no bit: each element still folds its k terms
/// in ascending order, later chunks resuming from the spilled f32 partial,
/// and an f32 round-trips memory exactly.
/// `HALF` (`tn` in write mode only) writes binary16 bits into `half`
/// instead of f32s into `out`: the reduction runs as one k-chunk, and each
/// tile's finished FMA chains leave their registers ×`scale` through
/// `VCVTPS2PH` ([`HalfOut`]) — the narrowing of the f32 GEMM's own bits,
/// with no f32 copy of the destination anywhere.
/// `fused_edge` picks the column-edge fold (`mul_add` for `tn` / `nt`,
/// mul-then-add for `nn`, whose A is row-major); `WIDE` runs every panel
/// on 512-bit registers, and `NR` = [`NR_WIDE`]
/// (512-bit only) runs 32-column panels on the [`MR_WIDE`]×32 tile while 32
/// columns are left, then 16-column ones. The tiles are constants of each
/// instance, so the 256-bit one runs at the speed it had before the wide
/// tiles existed: chosen at run time inside the nest, the extra live state
/// spilled the 6×16 tile's loop counters and cost it 5–15% (DESIGN.md
/// *Compute kernels & threading*).
///
/// # Safety
///
/// AVX2, FMA and F16C must be available, and AVX-512F too if `WIDE`; `a`
/// from `a0`, B and `out` must cover the `m×k`, `k×n` and `m×n` extents
/// above (`half` the `m×n` one if `HALF`; the safe wrappers `assert!`
/// them), and a panel buffer must hold `KC.min(k)·NR` floats.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn tile_gemm<const TA: bool, const WIDE: bool, const NR: usize, const HALF: bool>(
    a: &[f32],
    a0: usize,
    lda: usize,
    m: usize,
    k: usize,
    n: usize,
    mut panels: Panels<'_>,
    out: &mut [f32],
    acc: bool,
    fused_edge: bool,
    half: &mut [u16],
    scale: f32,
) {
    debug_assert!(fused_edge || !TA, "the mul-then-add edge reads A row-major");
    debug_assert!(NR == NR_TILE || WIDE);
    debug_assert!(!HALF || (TA && !acc), "binary16 destinations are tn in write mode");
    if k == 0 {
        // The empty fold: `+0.0`, or the destination itself.
        if HALF {
            half[..m * n].fill(0);
        } else if !acc {
            out[..m * n].fill(0.0);
        }
        return;
    }
    // One row tile: output rows `i .. i + rows` of the panel at column `j0`
    // (`nr` wide) over the k-chunk from `kc`, through the kernel its width
    // names. The 32-column tile on 32-column panels; on 16-column ones —
    // full or the column edge — the masked 16-lane kernel on the 512-bit
    // family, the R×16 tile or the scalar edge on the 256-bit.
    let mr_of = |nr: usize| match (nr > NR_TILE, WIDE) {
        (true, _) => MR_WIDE,
        (false, true) => MR_SQUARE,
        (false, false) => MR_TILE,
    };
    let chunk = if HALF {
        k
    } else if matches!(panels, Panels::Widened { .. }) {
        KC_F16
    } else {
        KC
    };
    let mut tile = |i: usize, rows: usize, kc: usize, j0: usize, nr: usize, panel: &[f32], ps| {
        let (w, klen, tile_acc) = (nr.min(n - j0), chunk.min(k - kc), acc || kc > 0);
        let ablk = &a[a0 + if TA { kc * lda + i } else { i * lda + kc }..];
        let (oblk, hout): (&mut [f32], _) = if HALF {
            (&mut [], HalfOut::rows_of(&mut half[i * n + j0..], scale))
        } else {
            (&mut out[i * n + j0..], HalfOut::NONE)
        };
        if nr > NR_TILE {
            kern_wide_rows::<TA, HALF>(ablk, lda, klen, rows, panel, ps, oblk, hout, n, tile_acc);
        } else if WIDE {
            // A full panel is the FMA chain on every layout.
            let fused = fused_edge || w == NR_TILE;
            let (p, o) = ((panel, w, ps), (oblk, hout, n));
            kern_masked_rows::<TA, HALF>(ablk, lda, klen, rows, p, o, tile_acc, fused);
        } else if w == NR_TILE {
            kern_tile_rows::<TA, HALF>(ablk, lda, klen, rows, panel, ps, oblk, hout, n, tile_acc);
        } else if fused_edge {
            let o = (oblk, hout, n);
            kern_edge_fma::<TA, HALF>(ablk, lda, klen, rows, panel, w, ps, o, tile_acc);
        } else {
            kern_nn_edge(ablk, lda, klen, rows, panel, w, ps, oblk, n, tile_acc);
        }
    };
    for kc in (0..k).step_by(chunk) {
        let klen = chunk.min(k - kc);
        if TA {
            let Panels::InPlace { b, ldb } = &panels else { unreachable!("tn reads B in place") };
            let block = if WIDE && n < NR { MR_SQUARE } else { MR_WIDE };
            for i0 in (0..m).step_by(block) {
                let end = m.min(i0 + block);
                for (j0, nr) in panel_cols::<NR>(n) {
                    let panel = &b[kc * ldb + j0..];
                    for i in (i0..end).step_by(mr_of(nr)) {
                        tile(i, mr_of(nr).min(end - i), kc, j0, nr, panel, *ldb);
                    }
                }
            }
        } else {
            for (j0, nr) in panel_cols::<NR>(n) {
                let w = nr.min(n - j0);
                let (panel, pstride): (&[f32], usize) = match &mut panels {
                    Panels::InPlace { b, ldb } => (&b[kc * *ldb + j0..], *ldb),
                    Panels::Widened { b, ldb, buf } => {
                        widen_panel(b, *ldb, j0, w, kc, klen, buf, nr);
                        (&buf[..], nr)
                    }
                    Panels::Transposed { b, ldb, buf } => {
                        pack_bt(b, *ldb, j0, w, kc, klen, buf, nr, |p| _mm256_loadu_ps(p), |v| v);
                        (&buf[..], nr)
                    }
                    Panels::WidenedTransposed { b, ldb, buf } => {
                        let widen8 = |p: *const u16| _mm256_cvtph_ps(_mm_loadu_si128(p.cast()));
                        pack_bt(b, *ldb, j0, w, kc, klen, buf, nr, widen8, f16_to_f32);
                        (&buf[..], nr)
                    }
                };
                for i in (0..m).step_by(mr_of(nr)) {
                    tile(i, mr_of(nr).min(m - i), kc, j0, nr, panel, pstride);
                }
            }
        }
    }
}

/// [`tile_gemm`]'s signature without its constants.
type TileNest = unsafe fn(
    &[f32],
    usize,
    usize,
    usize,
    usize,
    usize,
    Panels<'_>,
    &mut [f32],
    bool,
    bool,
    &mut [u16],
    f32,
);

/// The loop nest for layout `TA` on the 512-bit tiles if `wide`, else on
/// the 256-bit one; `HALF` as in [`tile_gemm`].
fn tile_nest<const TA: bool, const HALF: bool>(wide: bool) -> TileNest {
    if wide {
        tile_gemm::<TA, true, NR_WIDE, HALF>
    } else {
        tile_gemm::<TA, false, NR_TILE, HALF>
    }
}

/// `R` (≤ [`MR_WIDE`]) rows × 32 columns on 512-bit registers: two ZMM
/// accumulators per row live across the whole k sweep. Each k step
/// loads two 16-wide B vectors and broadcasts each row's A element once
/// into a register that feeds both of the row's FMAs — 2 + `R` loads for
/// 2·`R` FMAs, where [`kern_rx16_masked`]'s embedded broadcasts cost one
/// load per FMA. Lane j of row i's accumulators performs exactly the
/// `vfmadd` sequence [`kern_rx16`] performs for element (i, j). `R` = [`MR_WIDE`]
/// is the full tile; the smaller instances are its row remainder.
///
/// # Safety
///
/// AVX-512F must be available; the three extents it `debug_assert!`s must
/// hold (`hout`'s instead of `out`'s if `H`).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn kern_rx32<const R: usize, const TA: bool, const H: bool>(
    a: &[f32],
    lda: usize,
    k: usize,
    panel: &[f32],
    pstride: usize,
    out: &mut [f32],
    hout: HalfOut,
    ldc: usize,
    acc: bool,
) {
    debug_assert!(k == 0 || panel.len() >= (k - 1) * pstride + NR_WIDE);
    debug_assert!(a.len() >= a_extent::<TA>(lda, R, k));
    debug_assert!(H || out.len() >= (R - 1) * ldc + NR_WIDE);
    debug_assert!(!H || hout.len >= (R - 1) * ldc + NR_WIDE);
    let ap = a.as_ptr();
    let pp = panel.as_ptr();
    let op = out.as_mut_ptr();
    let mut c0 = [_mm512_setzero_ps(); R];
    let mut c1 = [_mm512_setzero_ps(); R];
    if acc {
        for r in 0..R {
            c0[r] = _mm512_loadu_ps(op.add(r * ldc));
            c1[r] = _mm512_loadu_ps(op.add(r * ldc + NR_TILE));
        }
    } else if H {
        // A binary16 row of 32 is 64 bytes: its first and last element.
        for r in 0..R {
            for off in [0, NR_WIDE - 1] {
                _mm_prefetch::<_MM_HINT_T0>(hout.bits.add(r * ldc + off) as *const i8);
            }
        }
    } else if TA {
        // `tn` in write mode: fetch every line of the destination rows
        // (first, middle and last float of 32) before the k loop, so its
        // stores do not wait on the lines of a gradient that arrives cold
        // (DESIGN.md *Skinny `tn` on cold operands*).
        for r in 0..R {
            for off in [0, NR_TILE, NR_WIDE - 1] {
                _mm_prefetch::<_MM_HINT_T0>(op.add(r * ldc + off) as *const i8);
            }
        }
    }
    for kk in 0..k {
        // As in `kern_rx16`: fetch both B vectors (and `tn`'s A row) a few
        // k steps ahead.
        if kk + 4 < k {
            _mm_prefetch::<_MM_HINT_T0>(pp.add((kk + 4) * pstride) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(pp.add((kk + 4) * pstride + NR_TILE) as *const i8);
            if TA {
                _mm_prefetch::<_MM_HINT_T0>(ap.add((kk + 4) * lda) as *const i8);
            }
        }
        let b0 = _mm512_loadu_ps(pp.add(kk * pstride));
        let b1 = _mm512_loadu_ps(pp.add(kk * pstride + NR_TILE));
        for r in 0..R {
            let av = _mm512_set1_ps(a_at::<TA>(ap, lda, r, kk));
            c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
            c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
        }
    }
    if H {
        let scale = _mm512_set1_ps(hout.scale);
        for r in 0..R {
            let hp = hout.bits.add(r * ldc);
            let lo = _mm512_cvtps_ph::<F16_ROUND>(_mm512_mul_ps(c0[r], scale));
            let hi = _mm512_cvtps_ph::<F16_ROUND>(_mm512_mul_ps(c1[r], scale));
            _mm256_storeu_si256(hp.cast(), lo);
            _mm256_storeu_si256(hp.add(NR_TILE).cast(), hi);
        }
        return;
    }
    for r in 0..R {
        _mm512_storeu_ps(op.add(r * ldc), c0[r]);
        _mm512_storeu_ps(op.add(r * ldc + NR_TILE), c1[r]);
    }
}

/// `rows` (1 ..= [`MR_WIDE`]) rows of a 32-column panel: the
/// monomorphized [`kern_rx32`] for that height.
///
/// # Safety
///
/// As [`kern_rx32`], for `rows` rows.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn kern_wide_rows<const TA: bool, const H: bool>(
    a: &[f32],
    lda: usize,
    k: usize,
    rows: usize,
    panel: &[f32],
    pstride: usize,
    out: &mut [f32],
    hout: HalfOut,
    ldc: usize,
    acc: bool,
) {
    macro_rules! by_height {
        ($($r:literal)*) => {
            match rows {
                $($r => kern_rx32::<$r, TA, H>(a, lda, k, panel, pstride, out, hout, ldc, acc),)*
                _ => unreachable!("a 32-column panel's row tile is 1..={MR_WIDE} rows"),
            }
        };
    }
    const _: () = assert!(MR_WIDE == 12, "list every height up to MR_WIDE below");
    by_height!(1 2 3 4 5 6 7 8 9 10 11 12)
}

/// `R` (≤ [`MR_TILE`]) rows × 16 columns on 256-bit registers: two YMM
/// accumulators per row live across the whole k sweep, two 8-wide B loads
/// and `R` A broadcasts per k step. `R` = [`MR_TILE`] is the 256-bit
/// family's full tile (twelve accumulators) and the only instance that
/// prefetches ahead in its k loop: its B rows (and `tn`'s A rows) sit a
/// full matrix row apart, a stride the hardware prefetcher won't track.
/// Unlike the 512-bit tiles it does not prefetch a `tn` destination in
/// write mode: inside this family's nest that code changed LLVM's inlining
/// (DESIGN.md *Skinny `tn` on cold operands*). The smaller instances are
/// its row remainder — a 2-row edge at m = 128 was ~30% of wall time on
/// the GPT-Small ffn shapes when it fell back to the scalar edge.
///
/// # Safety
///
/// AVX2, FMA and F16C must be available; the three extents it
/// `debug_assert!`s must hold (`hout`'s instead of `out`'s if `H`).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn kern_rx16<const R: usize, const TA: bool, const H: bool>(
    a: &[f32],
    lda: usize,
    k: usize,
    panel: &[f32],
    pstride: usize,
    out: &mut [f32],
    hout: HalfOut,
    ldc: usize,
    acc: bool,
) {
    debug_assert!(k == 0 || panel.len() >= (k - 1) * pstride + NR_TILE);
    debug_assert!(a.len() >= a_extent::<TA>(lda, R, k));
    debug_assert!(H || out.len() >= (R - 1) * ldc + NR_TILE);
    debug_assert!(!H || hout.len >= (R - 1) * ldc + NR_TILE);
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
        // Const-folded: the remainders keep a prefetch-free schedule.
        if R == MR_TILE && kk + 4 < k {
            _mm_prefetch::<_MM_HINT_T0>(pp.add((kk + 4) * pstride) as *const i8);
            if TA {
                _mm_prefetch::<_MM_HINT_T0>(ap.add((kk + 4) * lda) as *const i8);
            }
        }
        let b0 = _mm256_loadu_ps(pp.add(kk * pstride));
        let b1 = _mm256_loadu_ps(pp.add(kk * pstride + 8));
        for r in 0..R {
            let av = _mm256_set1_ps(a_at::<TA>(ap, lda, r, kk));
            c0[r] = _mm256_fmadd_ps(av, b0, c0[r]);
            c1[r] = _mm256_fmadd_ps(av, b1, c1[r]);
        }
    }
    if H {
        let scale = _mm256_set1_ps(hout.scale);
        for r in 0..R {
            let hp = hout.bits.add(r * ldc);
            let lo = _mm256_cvtps_ph::<F16_ROUND>(_mm256_mul_ps(c0[r], scale));
            let hi = _mm256_cvtps_ph::<F16_ROUND>(_mm256_mul_ps(c1[r], scale));
            _mm_storeu_si128(hp.cast(), lo);
            _mm_storeu_si128(hp.add(8).cast(), hi);
        }
        return;
    }
    for r in 0..R {
        _mm256_storeu_ps(op.add(r * ldc), c0[r]);
        _mm256_storeu_ps(op.add(r * ldc + 8), c1[r]);
    }
}

/// `rows` (1 ..= [`MR_TILE`]) rows of a 16-column panel on the 256-bit
/// family: the monomorphized [`kern_rx16`] for that height.
///
/// # Safety
///
/// As [`kern_rx16`], for `rows` rows.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn kern_tile_rows<const TA: bool, const H: bool>(
    a: &[f32],
    lda: usize,
    k: usize,
    rows: usize,
    panel: &[f32],
    pstride: usize,
    out: &mut [f32],
    hout: HalfOut,
    ldc: usize,
    acc: bool,
) {
    macro_rules! by_height {
        ($($r:literal)*) => {
            match rows {
                $($r => kern_rx16::<$r, TA, H>(a, lda, k, panel, pstride, out, hout, ldc, acc),)*
                _ => unreachable!("a 16-column panel's row tile is 1..={MR_TILE} rows"),
            }
        };
    }
    const _: () = assert!(MR_TILE == 6, "list every height up to MR_TILE below");
    by_height!(1 2 3 4 5 6)
}

/// Column-edge tile of `tn` and `nt` (`w` < 16 columns) on the 256-bit
/// family: each element one `mul_add` chain over ascending k — the tile's
/// per-lane arithmetic, one element at a time — stored as f32 into `out`,
/// or (`H`) narrowed into `hout` with the scalar conversion.
///
/// # Safety
///
/// FMA must be available; `a` must cover the `rows × k` tile, and `hout`
/// (if `H`) the `rows × w` one at stride `ldc` (the panel and `out` are
/// indexed with bounds checks).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kern_edge_fma<const TA: bool, const H: bool>(
    a: &[f32],
    lda: usize,
    k: usize,
    rows: usize,
    panel: &[f32],
    w: usize,
    pstride: usize,
    (out, hout, ldc): (&mut [f32], HalfOut, usize),
    acc: bool,
) {
    debug_assert!(a.len() >= a_extent::<TA>(lda, rows, k));
    debug_assert!(k == 0 || panel.len() >= (k - 1) * pstride + w);
    debug_assert!(!H || rows == 0 || hout.len >= (rows - 1) * ldc + w);
    for i in 0..rows {
        for j in 0..w {
            let mut s = if acc { out[i * ldc + j] } else { 0.0 };
            for kk in 0..k {
                s = a_at::<TA>(a.as_ptr(), lda, i, kk).mul_add(panel[kk * pstride + j], s);
            }
            if H {
                *hout.bits.add(i * ldc + j) = f32_to_f16(s * hout.scale);
            } else {
                out[i * ldc + j] = s;
            }
        }
    }
}

/// Every 16-column panel of the 512-bit family — the 16–31 columns left
/// after its last 32-column panel, and the `w` < 16 of its column edge:
/// `R` (≤ [`MR_SQUARE`]) rows × `w` (1 ..= 16) columns, one ZMM accumulator
/// per row whose lanes from `w` on are masked off. Each k step loads the
/// panel row's `w` floats (`vmovups` under a zeroing mask) and broadcasts
/// each row's A element into its FMA (an embedded `{1to16}` operand); the
/// destination is read and written under the same mask, so no lane outside
/// the `w` columns is touched. Lane j of row i folds element (i, j) exactly
/// as the 256-bit family does: `FUSED` issues `vfmadd` ([`kern_rx16`]'s
/// lane and [`kern_edge_fma`]'s `mul_add`: a full panel on every layout,
/// and `tn`'s and `nt`'s column edge), else `vmulps` then `vaddps`
/// ([`kern_nn_edge`]'s mul-then-add: `nn`'s column edge).
///
/// # Safety
///
/// AVX-512F must be available; the three extents it `debug_assert!`s must
/// hold (`hout`'s instead of `out`'s if `H`).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn kern_rx16_masked<const R: usize, const TA: bool, const FUSED: bool, const H: bool>(
    a: &[f32],
    lda: usize,
    k: usize,
    panel: &[f32],
    w: usize,
    pstride: usize,
    out: &mut [f32],
    hout: HalfOut,
    ldc: usize,
    acc: bool,
) {
    debug_assert!(0 < w && w <= NR_TILE);
    debug_assert!(k == 0 || panel.len() >= (k - 1) * pstride + w);
    debug_assert!(a.len() >= a_extent::<TA>(lda, R, k));
    debug_assert!(H || out.len() >= (R - 1) * ldc + w);
    debug_assert!(!H || hout.len >= (R - 1) * ldc + w);
    let mask: __mmask16 = u16::MAX >> (NR_TILE - w);
    let ap = a.as_ptr();
    let pp = panel.as_ptr();
    let op = out.as_mut_ptr();
    let mut c = [_mm512_setzero_ps(); R];
    if acc {
        for (r, cr) in c.iter_mut().enumerate() {
            *cr = _mm512_maskz_loadu_ps(mask, op.add(r * ldc));
        }
    } else if H {
        for r in 0..R {
            _mm_prefetch::<_MM_HINT_T0>(hout.bits.add(r * ldc) as *const i8);
        }
    } else if TA {
        // `tn` in write mode: fetch the destination rows, as `kern_rx32`
        // does.
        for r in 0..R {
            for off in [0, w - 1] {
                _mm_prefetch::<_MM_HINT_T0>(op.add(r * ldc + off) as *const i8);
            }
        }
    }
    for kk in 0..k {
        // As in `kern_rx16`: B rows (and `tn`'s A rows) sit `pstride`
        // (`lda`) apart, a stride the prefetcher won't track.
        if kk + 4 < k {
            _mm_prefetch::<_MM_HINT_T0>(pp.add((kk + 4) * pstride) as *const i8);
            if TA {
                _mm_prefetch::<_MM_HINT_T0>(ap.add((kk + 4) * lda) as *const i8);
            }
        }
        // A full panel loads B unmasked: the masked load at w = 16 measured
        // ~5% slower on a 16-row tile.
        let b = if w == NR_TILE {
            _mm512_loadu_ps(pp.add(kk * pstride))
        } else {
            _mm512_maskz_loadu_ps(mask, pp.add(kk * pstride))
        };
        for (r, cr) in c.iter_mut().enumerate() {
            let av = a_at::<TA>(ap, lda, r, kk);
            *cr = if FUSED {
                _mm512_fmadd_ps(_mm512_set1_ps(av), b, *cr)
            } else {
                _mm512_add_ps(*cr, _mm512_mul_ps(_mm512_set1_ps(av), b))
            };
        }
    }
    if H {
        // Narrowed in registers; a column edge goes through the stack, as
        // a masked 16-bit store needs AVX-512BW.
        let scale = _mm512_set1_ps(hout.scale);
        for (r, cr) in c.iter().enumerate() {
            let bits = _mm512_cvtps_ph::<F16_ROUND>(_mm512_mul_ps(*cr, scale));
            let hp = hout.bits.add(r * ldc);
            if w == NR_TILE {
                _mm256_storeu_si256(hp.cast(), bits);
            } else {
                let mut edge = [0u16; NR_TILE];
                _mm256_storeu_si256(edge.as_mut_ptr().cast(), bits);
                std::ptr::copy_nonoverlapping(edge.as_ptr(), hp, w);
            }
        }
        return;
    }
    for (r, cr) in c.iter().enumerate() {
        _mm512_mask_storeu_ps(op.add(r * ldc), mask, *cr);
    }
}

/// `rows` (1 ..= [`MR_SQUARE`]) rows of a 16-column panel on the 512-bit
/// family: the monomorphized [`kern_rx16_masked`] for that height and fold
/// (`fused`: a full panel, or `tn`'s and `nt`'s column edge; else `nn`'s).
///
/// # Safety
///
/// As [`kern_rx16_masked`], for `rows` rows.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn kern_masked_rows<const TA: bool, const H: bool>(
    a: &[f32],
    lda: usize,
    k: usize,
    rows: usize,
    (panel, w, pstride): (&[f32], usize, usize),
    (out, hout, ldc): (&mut [f32], HalfOut, usize),
    acc: bool,
    fused: bool,
) {
    macro_rules! by_height {
        ($($r:literal)*) => {
            match (rows, fused) {
                $(
                    ($r, true) => kern_rx16_masked::<$r, TA, true, H>(
                        a, lda, k, panel, w, pstride, out, hout, ldc, acc,
                    ),
                    ($r, false) => kern_rx16_masked::<$r, TA, false, H>(
                        a, lda, k, panel, w, pstride, out, hout, ldc, acc,
                    ),
                )*
                _ => unreachable!("a 16-column panel's row tile is 1..={MR_SQUARE} rows"),
            }
        };
    }
    const _: () = assert!(MR_SQUARE == 16, "list every height up to MR_SQUARE below");
    by_height!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

// ---------------------------------------------------------------------------
// The three layouts
// ---------------------------------------------------------------------------

/// AVX2 worker for a row range of `out (+)= a·B` (+ optional bias). `b`
/// is row-major with row stride `bstride`: read in place if f32, widened
/// panel by panel into `buf` (the caller's per-thread scratch) if binary16.
/// `wide` runs the 512-bit tiles (the `Avx512` family).
#[allow(clippy::too_many_arguments)]
pub(crate) fn nn_rows(
    a: &Matrix,
    rows: Range<usize>,
    k: usize,
    n: usize,
    b: BElems<'_>,
    bstride: usize,
    out: &mut [f32],
    acc: bool,
    bias: Option<&[f32]>,
    buf: &mut Vec<f32>,
    wide: bool,
) {
    debug_assert!(if wide { have_avx512f() } else { have_avx2_fma() });
    let (m, lda) = (rows.len(), a.cols());
    assert!(rows.end <= a.rows() && k <= lda && n <= bstride && out.len() >= m * n);
    assert!(k == 0 || b.len() >= (k - 1) * bstride + n);
    let panels = match b {
        BElems::F32(b) => Panels::InPlace { b, ldb: bstride },
        BElems::F16(b) => Panels::Widened { b, ldb: bstride, buf: panel_scratch(buf, k, wide) },
    };
    let a0 = rows.start * lda;
    // SAFETY: drivers dispatch here only on a family the CPU was checked
    // for (AVX2+FMA+F16C, and AVX-512F when `wide`), the two asserts above
    // bound every tile's reads and writes, and `panel_scratch` sizes the
    // widened panel's buffer.
    unsafe {
        tile_nest::<false, false>(wide)(
            a.as_slice(),
            a0,
            lda,
            m,
            k,
            n,
            panels,
            out,
            acc,
            false,
            &mut [],
            1.0,
        )
    }
    if let Some(bias) = bias {
        for r in 0..m {
            for (o, b) in out[r * n..(r + 1) * n].iter_mut().zip(bias) {
                *o += b;
            }
        }
    }
}

/// Where a `tn` share's rows go: f32 elements, written or accumulated
/// (`acc`), or binary16 bits in write mode, each element ×`scale` and
/// narrowed as its tile stores it ([`crate::kernels::gemm_tn_half`]).
pub(crate) enum TnDest<'a> {
    F32(&'a mut [f32], bool),
    Half(&'a mut [u16], f32),
}

/// AVX2 worker for a row range of `out (+)= aᵀ·b` (`a` is `r×m`, `b` is
/// `r×n`; `rows` are *output* rows = columns of `a`), on the tile at every
/// depth; `wide` as in [`nn_rows`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn tn_rows(
    asl: &[f32],
    bsl: &[f32],
    rows: Range<usize>,
    r: usize,
    m: usize,
    n: usize,
    dest: TnDest<'_>,
    wide: bool,
) {
    debug_assert!(if wide { have_avx512f() } else { have_avx2_fma() });
    assert!(rows.end <= m && asl.len() >= r * m && bsl.len() >= r * n);
    let panels = Panels::InPlace { b: bsl, ldb: n };
    let (a0, rn) = (rows.start, rows.len());
    // SAFETY: as in `nn_rows`, with the destination's extent asserted here.
    unsafe {
        match dest {
            TnDest::F32(chunk, acc) => {
                assert!(chunk.len() >= rn * n);
                let nest = tile_nest::<true, false>(wide);
                nest(asl, a0, m, rn, r, n, panels, chunk, acc, true, &mut [], 1.0)
            }
            TnDest::Half(bits, scale) => {
                assert!(bits.len() >= rn * n);
                let nest = tile_nest::<true, true>(wide);
                nest(asl, a0, m, rn, r, n, panels, &mut [], false, true, bits, scale)
            }
        }
    }
}

/// AVX2 worker for a row range of `out (+)= a·bᵀ` (`b` row-major `n×k`),
/// on the tile at every m: B's panel chunks are transposed — and, for a
/// binary16 B, widened — into `buf`, the caller's per-thread panel scratch.
/// `wide` as in [`nn_rows`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn nt_rows(
    a: &Matrix,
    b: BElems<'_>,
    rows: Range<usize>,
    k: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
    buf: &mut Vec<f32>,
    wide: bool,
) {
    debug_assert!(if wide { have_avx512f() } else { have_avx2_fma() });
    assert!(rows.end <= a.rows() && k == a.cols() && b.len() >= n * k);
    assert!(chunk.len() >= rows.len() * n);
    let buf = panel_scratch(buf, k, wide);
    let panels = match b {
        BElems::F32(b) => Panels::Transposed { b, ldb: k, buf },
        BElems::F16(b) => Panels::WidenedTransposed { b, ldb: k, buf },
    };
    // SAFETY: as in `nn_rows`.
    unsafe {
        tile_nest::<false, false>(wide)(
            a.as_slice(),
            rows.start * k,
            k,
            rows.len(),
            k,
            n,
            panels,
            chunk,
            acc,
            true,
            &mut [],
            1.0,
        )
    }
}

// ---------------------------------------------------------------------------
// Vector math: the 8- and 16-lane encodings of `crate::vmath`
// ---------------------------------------------------------------------------
//
// The operation sequence is written once, in `vector_math!`, over a register
// of lanes `V` and one-instruction primitives on it; `ymm` expands it on
// 8-lane YMM registers under `avx2` (the 256-bit family) and `zmm` on
// 16-lane ZMM registers under `avx512f` (the 512-bit family). Per lane every
// function performs exactly the operation sequence of its scalar twin in
// `crate::vmath` — same constants, same order, mul and add never fused —
// which is what makes the three encodings bit-identical. `avx512f` implies
// FMA, so the 16-lane code could issue `vfmadd`; it does not because Rust
// never contracts a separate mul and add (it emits no fast-math flags), not
// because the feature is missing. Change one encoding, change the others;
// `tests/vmath_oracle.rs` compares them bitwise at every remainder length of
// either width.
//
// Every function here is a safe `#[target_feature]` function: the only
// `unsafe` is in the loads and stores (a whole register from an `N`-float
// array, or a zero-masked part of one on ZMM) and in the `pub(crate)`
// wrappers, which enter the width the active family names.

/// Defines each listed function as `#[inline]` under the target feature.
macro_rules! lane_fns {
    (
        $feature:literal;
        $(
            $(#[$m:meta])*
            $vis:vis fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block
        )*
    ) => {
        $(
            $(#[$m])*
            #[inline]
            #[target_feature(enable = $feature)]
            $vis fn $name($($arg: $ty),*) $(-> $ret)? $body
        )*
    };
}

/// The vector math over the lane type `V` (`N` lanes) of the module it
/// expands in, which supplies these primitives, each one instruction except
/// where noted: `splat`, `splat_bits` (every lane the given bit pattern);
/// `add`, `sub`, `mul`, `div`; `max_sse` / `min_sse` (`MAXPS` / `MINPS`:
/// the second operand when either is NaN, as [`crate::vmath::max_sse`]);
/// `select_lt(a, b, t, f)` (`t` where `a < b`, ordered, else `f`); the
/// bitwise `and`, `andnot` (`!a & b`) and `or`; `add_i32`, `sub_i32`,
/// `shr1_i32` (arithmetic) and `shl23_i32` on the lanes' bit patterns;
/// `load` / `store` of a whole `[f32; N]`, and `load_part` / `store_part` of
/// the first `len < N` lanes (zero in the others).
macro_rules! vector_math {
    ($feature:literal) => {
        lane_fns! { $feature;
            /// [`vmath::exp`] on every lane.
            fn exp(x: V) -> V {
                let lo = splat(vmath::EXP_LO);
                // With x second, a NaN lane survives the clamp.
                let xc = min_sse(splat(vmath::EXP_HI), max_sse(lo, x));
                let magic = splat(vmath::ROUND_MAGIC);
                let t = add(mul(xc, splat(vmath::LOG2E)), magic);
                let nf = sub(t, magic);
                let r = sub(sub(xc, mul(nf, splat(vmath::LN2_HI))), mul(nf, splat(vmath::LN2_LO)));
                let mut p = splat(vmath::EXP_POLY[0]);
                for &c in &vmath::EXP_POLY[1..] {
                    p = add(mul(p, r), splat(c));
                }
                let p = add(add(mul(p, mul(r, r)), r), splat(1.0));
                let n = sub_i32(t, splat_bits(vmath::ROUND_MAGIC_BITS));
                let h = shr1_i32(n);
                let bias = splat_bits(127);
                let s1 = shl23_i32(add_i32(h, bias));
                let s2 = shl23_i32(add_i32(sub_i32(n, h), bias));
                select_lt(x, lo, splat(0.0), mul(mul(p, s1), s2))
            }

            /// [`vmath::tanh`] on every lane.
            fn tanh(u: V) -> V {
                let sign = splat_bits(i32::MIN);
                let a = andnot(sign, u);
                let z = mul(a, a);
                let mut q = splat(vmath::TANH_POLY[0]);
                for &c in &vmath::TANH_POLY[1..] {
                    q = add(mul(q, z), splat(c));
                }
                let small = add(mul(mul(q, z), a), a);
                let e = exp(mul(splat(-2.0), a));
                let one = splat(1.0);
                let big = div(sub(one, e), add(one, e));
                or(select_lt(a, splat(vmath::TANH_SMALL), small, big), and(sign, u))
            }

            /// [`vmath::gelu_tanh`]: `tanh(C·(x + A·x·x·x))`, the inner term
            /// of GELU and GELU′.
            fn gelu_tanh(x: V) -> V {
                let ax3 = mul(mul(mul(splat(vmath::GELU_A), x), x), x);
                tanh(mul(splat(vmath::GELU_C), add(x, ax3)))
            }

            /// [`vmath::gelu_from_tanh`].
            fn gelu_from_tanh(x: V, t: V) -> V {
                mul(mul(splat(0.5), x), add(splat(1.0), t))
            }

            /// [`vmath::gelu_grad_from_tanh`].
            fn gelu_grad_from_tanh(x: V, t: V) -> V {
                let x = min_sse(
                    splat(vmath::GELU_GRAD_CLAMP),
                    max_sse(splat(-vmath::GELU_GRAD_CLAMP), x),
                );
                let (one, half) = (splat(1.0), splat(0.5));
                let sech2 = sub(one, mul(t, t));
                let poly = add(one, mul(mul(splat(vmath::GELU_3A), x), x));
                let slope = mul(mul(mul(mul(half, x), sech2), splat(vmath::GELU_C)), poly);
                add(mul(half, add(one, t)), slope)
            }

            /// `dst[i] = f(src[i])`, `N` lanes at a time. The tail
            /// (`len % N` elements) is one partial register, so every
            /// element — whole register or tail — is computed by the same
            /// lane code.
            fn map(src: &[f32], dst: &mut [f32], f: impl Fn(V) -> V) {
                assert_eq!(src.len(), dst.len());
                let ((s, s_tail), (d, d_tail)) = (src.as_chunks::<N>(), dst.as_chunks_mut::<N>());
                for (s, d) in s.iter().zip(d) {
                    store(f(load(s)), d);
                }
                if !s_tail.is_empty() {
                    store_part(f(load_part(s_tail)), d_tail);
                }
            }

            /// Two-input [`map`]: `dst[i] = f(a[i], b[i])`.
            fn map2(a: &[f32], b: &[f32], dst: &mut [f32], f: impl Fn(V, V) -> V) {
                assert_eq!(a.len(), dst.len());
                assert_eq!(b.len(), dst.len());
                let ((a, a_tail), (b, b_tail)) = (a.as_chunks::<N>(), b.as_chunks::<N>());
                let (d, d_tail) = dst.as_chunks_mut::<N>();
                for ((a, b), d) in a.iter().zip(b).zip(d) {
                    store(f(load(a), load(b)), d);
                }
                if !a_tail.is_empty() {
                    store_part(f(load_part(a_tail), load_part(b_tail)), d_tail);
                }
            }

            /// Three-input [`map`]: `dst[i] = f(a[i], b[i], c[i])`.
            fn map3(a: &[f32], b: &[f32], c: &[f32], dst: &mut [f32], f: impl Fn(V, V, V) -> V) {
                assert_eq!(a.len(), dst.len());
                assert_eq!(b.len(), dst.len());
                assert_eq!(c.len(), dst.len());
                let ((a, a_tail), (b, b_tail)) = (a.as_chunks::<N>(), b.as_chunks::<N>());
                let ((c, c_tail), (d, d_tail)) = (c.as_chunks::<N>(), dst.as_chunks_mut::<N>());
                for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
                    store(f(load(a), load(b), load(c)), d);
                }
                if !a_tail.is_empty() {
                    let v = f(load_part(a_tail), load_part(b_tail), load_part(c_tail));
                    store_part(v, d_tail);
                }
            }

            /// In-place [`map`]: `x[i] = f(x[i])`.
            fn map_in_place(x: &mut [f32], f: impl Fn(V) -> V) {
                let (x, tail) = x.as_chunks_mut::<N>();
                for v in x {
                    store(f(load(v)), v);
                }
                if !tail.is_empty() {
                    store_part(f(load_part(tail)), tail);
                }
            }

            pub(super) fn exp_sub_slice(x: &[f32], shift: f32, out: &mut [f32]) {
                let sh = splat(shift);
                map(x, out, |v| exp(sub(v, sh)))
            }

            pub(super) fn exp_sub_in_place(x: &mut [f32], shift: f32) {
                let sh = splat(shift);
                map_in_place(x, |v| exp(sub(v, sh)))
            }

            pub(super) fn tanh_slice(x: &[f32], out: &mut [f32]) {
                map(x, out, |v| tanh(v))
            }

            pub(super) fn gelu_slice(x: &[f32], out: &mut [f32]) {
                map(x, out, |v| gelu_from_tanh(v, gelu_tanh(v)))
            }

            pub(super) fn gelu_tanh_slice(x: &[f32], t: &mut [f32]) {
                map(x, t, |v| gelu_tanh(v))
            }

            pub(super) fn gelu_from_tanh_slice(x: &[f32], t: &[f32], out: &mut [f32]) {
                map2(x, t, out, |x, t| gelu_from_tanh(x, t))
            }

            pub(super) fn gelu_backward_from_tanh_slice(
                x: &[f32],
                t: &[f32],
                dy: &[f32],
                dx: &mut [f32]
            ) {
                map3(x, t, dy, dx, |x, t, dy| mul(dy, gelu_grad_from_tanh(x, t)))
            }

            /// Folds the magnitudes of `v` into `acc`: lane-wise the largest
            /// finite one (`MAXPS` with the fold second, so a NaN lane leaves
            /// it alone) and the OR of every non-finite one's bits (an `inf`
            /// sets the exponent, a NaN the mantissa too).
            fn fold_abs(acc: [V; 2], v: V) -> [V; 2] {
                let a = and(v, splat_bits(0x7fff_ffff));
                let non_finite = select_lt(a, splat(f32::INFINITY), splat(0.0), a);
                [max_sse(a, acc[0]), or(acc[1], non_finite)]
            }

            /// [`fold_abs`]'s lanes reduced to [`vmath::max_abs`]'s value.
            fn fold_result(acc: [V; 2]) -> f32 {
                let (mut top, mut flags) = ([0.0f32; N], [0.0f32; N]);
                store(acc[0], &mut top);
                store(acc[1], &mut flags);
                let flag = flags.iter().fold(0, |f, v| f | v.to_bits());
                vmath::max_abs_result(top.into_iter().fold(0.0, f32::max), flag)
            }

            pub(super) fn max_abs(x: &[f32]) -> f32 {
                let (x, tail) = x.as_chunks::<N>();
                let mut acc = [splat(0.0), splat(0.0)];
                for v in x {
                    acc = fold_abs(acc, load(v));
                }
                if !tail.is_empty() {
                    acc = fold_abs(acc, load_part(tail));
                }
                fold_result(acc)
            }

            /// [`gelu_from_tanh_slice`], returning the largest magnitude it
            /// wrote ([`vmath::max_abs`]).
            pub(super) fn gelu_from_tanh_max(x: &[f32], t: &[f32], out: &mut [f32]) -> f32 {
                assert_eq!(x.len(), out.len());
                assert_eq!(t.len(), out.len());
                let ((x, x_tail), (t, t_tail)) = (x.as_chunks::<N>(), t.as_chunks::<N>());
                let (d, d_tail) = out.as_chunks_mut::<N>();
                let mut acc = [splat(0.0), splat(0.0)];
                for ((x, t), d) in x.iter().zip(t).zip(d) {
                    let v = gelu_from_tanh(load(x), load(t));
                    store(v, d);
                    acc = fold_abs(acc, v);
                }
                if !x_tail.is_empty() {
                    let v = gelu_from_tanh(load_part(x_tail), load_part(t_tail));
                    store_part(v, d_tail);
                    acc = fold_abs(acc, v); // zero-filled lanes fold in `+0.0`
                }
                fold_result(acc)
            }

            /// `d[i] = d[i] · gelu_grad_from_tanh(x[i], t[i])` in place,
            /// returning the largest magnitude it wrote.
            pub(super) fn gelu_backward_from_tanh_in_place_max(
                x: &[f32],
                t: &[f32],
                d: &mut [f32]
            ) -> f32 {
                assert_eq!(x.len(), d.len());
                assert_eq!(t.len(), d.len());
                let ((x, x_tail), (t, t_tail)) = (x.as_chunks::<N>(), t.as_chunks::<N>());
                let (d, d_tail) = d.as_chunks_mut::<N>();
                let mut acc = [splat(0.0), splat(0.0)];
                for ((x, t), d) in x.iter().zip(t).zip(d) {
                    let v = mul(load(d), gelu_grad_from_tanh(load(x), load(t)));
                    store(v, d);
                    acc = fold_abs(acc, v);
                }
                if !x_tail.is_empty() {
                    let g = gelu_grad_from_tanh(load_part(x_tail), load_part(t_tail));
                    let v = mul(load_part(d_tail), g);
                    store_part(v, d_tail);
                    acc = fold_abs(acc, v);
                }
                fold_result(acc)
            }
        }
    };
}

/// The attention core's lanes ([`crate::attention`]) over the lane type `V`
/// (`N` lanes) of the module it expands in: [`vector_math!`]'s primitives
/// and `exp`, and `fma` (`vfmadd`: `a·b + c`, rounded once). A key-major
/// block holds a score, a probability or a `dS` of query row `i` and key
/// `j` at `j·w + i` (`w` = `Geom::lanes`), so one register holds a key's
/// values for `N` consecutive query rows, and every per-row fold of the
/// softmax runs in its row's lane in the row's order. The two score
/// products read their operands' head blocks through 8×8 register
/// transposes into scratch; the four mixes put a lane on each head column
/// instead, read their B operand in place and write their rows in place,
/// and take their coefficients key-major for their output rows (`Pᵀ·dO`
/// and `dSᵀ·Q` from query-major copies). Nothing here is `unsafe`.
macro_rules! attention_lanes {
    ($feature:literal) => {
        lane_fns! { $feature;
            /// The `N` floats of `s` from `at`.
            fn load_at(s: &[f32], at: usize) -> V {
                load(s[at..at + N].try_into().expect("N floats"))
            }

            fn store_at(v: V, d: &mut [f32], at: usize) {
                store(v, (&mut d[at..at + N]).try_into().expect("N floats"))
            }

            /// Lane `t` holds `i0 + t + 1`: key `j` is in lane `t`'s row
            /// where `j` is below it.
            fn row_ends(i0: usize) -> V {
                let mut ends = [0.0f32; N];
                for (t, e) in ends.iter_mut().enumerate() {
                    *e = (i0 + t + 1) as f32;
                }
                load(&ends)
            }

            /// `t` in the lanes (rows from `i0`) whose row reaches key `j`
            /// (`j ≤ i`), `f` in the others.
            fn keep(j: usize, i0: usize, ends: V, t: V, f: V) -> V {
                if j < i0 {
                    t
                } else {
                    select_lt(splat(j as f32), ends, t, f)
                }
            }

            /// Every key's scores against every block of query lanes, into
            /// the key-major `st`, from both operands transposed (`at` the
            /// queries', `bt` the keys'): all keys, or (`causal`) each
            /// block's up to its last row.
            fn scores(g: &Geom, at: &[f32], bt: &[f32], causal: bool, st: &mut [f32]) {
                for i0 in (0..g.seq_len).step_by(N) {
                    let keys = if causal { g.seq_len.min(i0 + N) } else { g.seq_len };
                    let mut j = 0;
                    while j + N <= keys {
                        score_keys::<N>(g, at, bt, i0, j, st);
                        j += N;
                    }
                    for j in j..keys {
                        score_keys::<1>(g, at, bt, i0, j, st);
                    }
                }
            }

            /// The causal softmax of one pair's key-major scores `st` into
            /// its probabilities `p`, a lane per query row: scale, the max
            /// from `−inf` (`MAXPS` with the max second: a NaN score leaves
            /// it, as `f32::max` does), `exp(s − max)`, the sum from `+0.0`
            /// over the row's keys in order, one reciprocal, and every key
            /// times it — the masked ones' `+0.0` too.
            fn softmax(g: &Geom, st: &[f32], p: &mut [f32]) {
                let (l, w, sc) = (g.seq_len, g.lanes, splat(g.scale));
                for i0 in (0..l).step_by(N) {
                    let (keys, ends) = (l.min(i0 + N), row_ends(i0));
                    let mut max = splat(f32::NEG_INFINITY);
                    for j in 0..keys {
                        let s = mul(load_at(st, j * w + i0), sc);
                        max = keep(j, i0, ends, max_sse(s, max), max);
                    }
                    let mut sum = splat(0.0);
                    for j in 0..keys {
                        let s = mul(load_at(st, j * w + i0), sc);
                        let e = keep(j, i0, ends, exp(sub(s, max)), splat(0.0));
                        sum = add(sum, e);
                        store_at(e, p, j * w + i0);
                    }
                    let inv = div(splat(1.0), sum);
                    for j in 0..keys {
                        store_at(mul(load_at(p, j * w + i0), inv), p, j * w + i0);
                    }
                    let masked = mul(splat(0.0), inv);
                    for j in keys..l {
                        store_at(masked, p, j * w + i0);
                    }
                }
            }

            /// One pair's key-major `dP` into `dS` in place, given its
            /// probabilities `p`: per query lane `dot = Σ_j P·dP` from
            /// `start` over every key, mul-then-add, then
            /// `P·(dP − dot)·scale`.
            fn softmax_backward(g: &Geom, p: &[f32], ds: &mut [f32], start: f32) {
                let (l, w, sc) = (g.seq_len, g.lanes, splat(g.scale));
                for i0 in (0..l).step_by(N) {
                    let mut dot = splat(start);
                    for j in 0..l {
                        let at = j * w + i0;
                        dot = add(dot, mul(load_at(p, at), load_at(ds, at)));
                    }
                    for j in 0..l {
                        let at = j * w + i0;
                        let dp = sub(load_at(ds, at), dot);
                        store_at(mul(mul(load_at(p, at), dp), sc), ds, at);
                    }
                }
            }

            /// The core's forward over every pair: Qᵀ and Kᵀ into scratch,
            /// the causal scores, the softmax into the pair's probabilities,
            /// and `P·V` into `out`.
            pub(super) fn attention_forward(
                g: Geom,
                q: &[f32],
                k: &[f32],
                v: &[f32],
                probs: &mut [f32],
                scratch: &mut [f32],
                out: &mut [f32]
            ) {
                let (w, d, head) = (g.lanes, g.d_model(), (g.seq_len, g.d_head));
                let (at, rest) = scratch.split_at_mut(g.d_head * w);
                let (bt, st) = rest.split_at_mut(g.d_head * w);
                for (pair, p) in probs.chunks_exact_mut(g.block()).take(g.pairs).enumerate() {
                    let o = g.origin(pair);
                    super::transpose(q, o, d, head, at, w);
                    super::transpose(k, o, d, head, bt, w);
                    scores(&g, at, bt, true, st);
                    softmax(&g, st, p);
                    mix(&g, p, v, o, g.fused_nn(), out);
                }
            }

            /// The core's backward over every pair: `dOᵀ` and Vᵀ into
            /// scratch, `dP`, `dS`, then `dV = Pᵀ·dO`, `dQ = dS·K` and
            /// `dK = dSᵀ·Q`.
            pub(super) fn attention_backward(
                g: Geom,
                ins: [&[f32]; 4],
                probs: &[f32],
                scratch: &mut [f32],
                outs: [&mut [f32]; 3]
            ) {
                let ([q, k, v, dout], [dq, dk, dv]) = (ins, outs);
                let (l, w, d, head) = (g.seq_len, g.lanes, g.d_model(), (g.seq_len, g.d_head));
                let (at, rest) = scratch.split_at_mut(g.d_head * w);
                let (bt, rest) = rest.split_at_mut(g.d_head * w);
                let (ds, rest) = rest.split_at_mut(g.block());
                let (pq, dsq) = rest.split_at_mut(g.block());
                let start = crate::attention::sum_start();
                for (pair, p) in probs.chunks_exact(g.block()).take(g.pairs).enumerate() {
                    let o = g.origin(pair);
                    super::transpose(dout, o, d, head, at, w);
                    super::transpose(v, o, d, head, bt, w);
                    scores(&g, at, bt, false, ds);
                    softmax_backward(&g, p, ds, start);
                    // Query-major copies: the coefficients of `Pᵀ·dO` and
                    // `dSᵀ·Q`, key-major for their output rows.
                    super::transpose(p, 0, w, (l, l), pq, w);
                    super::transpose(ds, 0, w, (l, l), dsq, w);
                    mix(&g, pq, dout, o, g.d_head, dv);
                    mix(&g, ds, k, o, g.fused_nn(), dq);
                    mix(&g, dsq, q, o, g.d_head, dk);
                }
            }
        }

        /// Every row of `out[o + x·d + c] = Σ_y coef(x, y) · b[o + y·d + c]`
        /// for one pair, with `coef(x, y)` at `y·w + x` in `cf`: its head
        /// columns below `fused` by FMA, the others mul-then-add. Tiles
        /// are `MIX_ROWS` rows by `MIX_VECS` registers where the head has
        /// that many whole registers left, else `N` rows by one register;
        /// their row remainders run a row at a time.
        #[inline(never)]
        #[target_feature(enable = $feature)]
        fn mix(g: &Geom, cf: &[f32], b: &[f32], o: usize, fused: usize, out: &mut [f32]) {
            let (l, dh) = (g.seq_len, g.d_head);
            let mut c0 = 0;
            while c0 < dh {
                let wide = c0 + MIX_VECS * N <= dh;
                let (rows, width) = if wide { (MIX_ROWS, N) } else { (N, N.min(dh - c0)) };
                // `fused` and a wide tile's width are multiples of 16: no
                // tile straddles `fused`.
                let mut x = 0;
                while x < l {
                    let (full, at) = (x + rows <= l, (x, c0, width));
                    match (wide, full, c0 < fused) {
                        (true, true, true) => {
                            mix_rows::<MIX_ROWS, MIX_VECS, true>(g, cf, b, o, at, out)
                        }
                        (true, true, false) => {
                            mix_rows::<MIX_ROWS, MIX_VECS, false>(g, cf, b, o, at, out)
                        }
                        (true, false, true) => mix_rows::<1, MIX_VECS, true>(g, cf, b, o, at, out),
                        (true, false, false) => {
                            mix_rows::<1, MIX_VECS, false>(g, cf, b, o, at, out)
                        }
                        (false, true, true) => mix_rows::<N, 1, true>(g, cf, b, o, at, out),
                        (false, true, false) => mix_rows::<N, 1, false>(g, cf, b, o, at, out),
                        (false, false, true) => mix_rows::<1, 1, true>(g, cf, b, o, at, out),
                        (false, false, false) => mix_rows::<1, 1, false>(g, cf, b, o, at, out),
                    }
                    x += if full { rows } else { 1 };
                }
                c0 += if wide { MIX_VECS * N } else { N };
            }
        }

        /// Keys `j0 .. j0 + R` against the query lanes from `i0`:
        /// `st[j·w + i] = Σ_c bt[c·w + j] · at[c·w + i]`, each one FMA
        /// chain over ascending `c` from `+0.0`.
        #[inline]
        #[target_feature(enable = $feature)]
        fn score_keys<const R: usize>(
            g: &Geom,
            at: &[f32],
            bt: &[f32],
            i0: usize,
            j0: usize,
            st: &mut [f32],
        ) {
            let w = g.lanes;
            let mut acc = [splat(0.0); R];
            for c in 0..g.d_head {
                let a = load_at(at, c * w + i0);
                let keys: &[f32; R] = bt[c * w + j0..].first_chunk().expect("R keys");
                for (acc, &key) in acc.iter_mut().zip(keys) {
                    *acc = fma(splat(key), a, *acc);
                }
            }
            for (r, acc) in acc.into_iter().enumerate() {
                store_at(acc, st, (j0 + r) * w + i0);
            }
        }

        /// Rows `x0 .. x0 + R`, head columns `c0 ..` of [`mix`]'s product
        /// in `C` registers — whole ones, or one of `width ≤ N` columns —
        /// each element a chain over ascending `y` from `+0.0`: FMA if
        /// `FUSED`, else mul-then-add.
        #[inline]
        #[target_feature(enable = $feature)]
        fn mix_rows<const R: usize, const C: usize, const FUSED: bool>(
            g: &Geom,
            cf: &[f32],
            b: &[f32],
            o: usize,
            (x0, c0, width): (usize, usize, usize),
            out: &mut [f32],
        ) {
            debug_assert!(width == N || C == 1);
            let d = g.d_model();
            // The width is tested once, out here: inside the fold the
            // partial load's branch kept the coefficients out of the FMAs'
            // memory operands on 8 lanes.
            let acc = if width == N {
                mix_fold::<R, C, FUSED>(g, cf, x0, |y| {
                    let mut row = [splat(0.0); C];
                    for (t, v) in row.iter_mut().enumerate() {
                        *v = load_at(b, o + y * d + c0 + t * N);
                    }
                    row
                })
            } else {
                let at = |y| o + y * d + c0;
                mix_fold::<R, C, FUSED>(g, cf, x0, |y| [load_part(&b[at(y)..at(y) + width]); C])
            };
            for (r, acc) in acc.into_iter().enumerate() {
                let at = o + (x0 + r) * d + c0;
                if width == N {
                    for (t, acc) in acc.into_iter().enumerate() {
                        store_at(acc, out, at + t * N);
                    }
                } else {
                    store_part(acc[0], &mut out[at..at + width]);
                }
            }
        }

        /// The `R × C` accumulators of [`mix_rows`]: row `x0 + r` folds
        /// `coef(x0 + r, y) · b_row(y)` over ascending `y`.
        #[inline]
        #[target_feature(enable = $feature)]
        fn mix_fold<const R: usize, const C: usize, const FUSED: bool>(
            g: &Geom,
            cf: &[f32],
            x0: usize,
            b_row: impl Fn(usize) -> [V; C],
        ) -> [[V; C]; R] {
            let mut acc = [[splat(0.0); C]; R];
            for y in 0..g.seq_len {
                let bv = b_row(y);
                let coefs: &[f32; R] =
                    cf[y * g.lanes + x0..].first_chunk().expect("R coefficients");
                for (acc, &c) in acc.iter_mut().zip(coefs) {
                    let a = splat(c);
                    for (acc, &bv) in acc.iter_mut().zip(&bv) {
                        *acc = if FUSED { fma(a, bv, *acc) } else { add(*acc, mul(a, bv)) };
                    }
                }
            }
            acc
        }
    };
}

/// Transposes the `rows × cols` block of `m` at `o` (row stride `ld`) into
/// `t` at row stride `w`: `t[c·w + r] = m[o + r·ld + c]`. Whole 8×8 blocks
/// go through registers ([`transpose8`]), the ragged rest element by
/// element.
#[target_feature(enable = "avx2")]
fn transpose(
    m: &[f32],
    o: usize,
    ld: usize,
    (rows, cols): (usize, usize),
    t: &mut [f32],
    w: usize,
) {
    let (r8, c8) = (rows / 8 * 8, cols / 8 * 8);
    for r0 in (0..r8).step_by(8) {
        for c0 in (0..c8).step_by(8) {
            let mut block = [_mm256_setzero_ps(); 8];
            for (r, row) in block.iter_mut().enumerate() {
                *row = ymm::load(m[o + (r0 + r) * ld + c0..].first_chunk().expect("8 floats"));
            }
            for (c, col) in transpose8(block).into_iter().enumerate() {
                ymm::store(col, t[(c0 + c) * w + r0..].first_chunk_mut().expect("8 floats"));
            }
        }
    }
    for r in 0..rows {
        for c in if r < r8 { c8 } else { 0 }..cols {
            t[c * w + r] = m[o + r * ld + c];
        }
    }
}

/// The 8-lane encoding: YMM registers, `avx2`.
mod ymm {
    use crate::attention::Geom;
    use crate::vmath;
    use core::arch::x86_64::*;

    type V = __m256;
    const N: usize = 8;

    lane_fns! { "avx2";
        fn splat(v: f32) -> V { _mm256_set1_ps(v) }
        fn splat_bits(v: i32) -> V { _mm256_castsi256_ps(_mm256_set1_epi32(v)) }
        fn add(a: V, b: V) -> V { _mm256_add_ps(a, b) }
        fn sub(a: V, b: V) -> V { _mm256_sub_ps(a, b) }
        fn mul(a: V, b: V) -> V { _mm256_mul_ps(a, b) }
        fn div(a: V, b: V) -> V { _mm256_div_ps(a, b) }
        fn max_sse(a: V, b: V) -> V { _mm256_max_ps(a, b) }
        fn min_sse(a: V, b: V) -> V { _mm256_min_ps(a, b) }
        fn select_lt(a: V, b: V, t: V, f: V) -> V {
            _mm256_blendv_ps(f, t, _mm256_cmp_ps::<_CMP_LT_OQ>(a, b))
        }
        fn and(a: V, b: V) -> V { _mm256_and_ps(a, b) }
        fn andnot(a: V, b: V) -> V { _mm256_andnot_ps(a, b) }
        fn or(a: V, b: V) -> V { _mm256_or_ps(a, b) }
        fn add_i32(a: V, b: V) -> V {
            _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(a), _mm256_castps_si256(b)))
        }
        fn sub_i32(a: V, b: V) -> V {
            _mm256_castsi256_ps(_mm256_sub_epi32(_mm256_castps_si256(a), _mm256_castps_si256(b)))
        }
        fn shr1_i32(a: V) -> V {
            _mm256_castsi256_ps(_mm256_srai_epi32::<1>(_mm256_castps_si256(a)))
        }
        fn shl23_i32(a: V) -> V {
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_castps_si256(a)))
        }
        pub(super) fn load(s: &[f32; N]) -> V {
            // SAFETY: `s` holds the 8 floats read.
            unsafe { _mm256_loadu_ps(s.as_ptr()) }
        }
        pub(super) fn store(v: V, d: &mut [f32; N]) {
            // SAFETY: `d` holds the 8 floats written.
            unsafe { _mm256_storeu_ps(d.as_mut_ptr(), v) }
        }
        /// Through a zero-padded 8-float stack buffer.
        fn load_part(s: &[f32]) -> V {
            let mut buf = [0.0; N];
            buf[..s.len()].copy_from_slice(s);
            load(&buf)
        }
        /// Through an 8-float stack buffer.
        fn store_part(v: V, d: &mut [f32]) {
            let mut buf = [0.0; N];
            store(v, &mut buf);
            let len = d.len();
            d.copy_from_slice(&buf[..len]);
        }
    }

    vector_math!("avx2");

    lane_fns! { "avx2,fma";
        /// `a·b + c`, rounded once (`vfmadd`).
        fn fma(a: V, b: V, c: V) -> V { _mm256_fmadd_ps(a, b, c) }
    }

    /// The attention mixes' tile: 6 rows × 2 YMM (twelve accumulators of
    /// the sixteen registers; each broadcast feeds two FMAs).
    const MIX_ROWS: usize = 6;
    const MIX_VECS: usize = 2;
    attention_lanes!("avx2,fma");
}

/// The 16-lane encoding: ZMM registers, `avx512f`. The bitwise and integer
/// primitives run on the integer forms (`vpandd`, `vpaddd`, …): the float
/// forms of the logic ops are AVX-512DQ, and on a bit pattern the two agree.
mod zmm {
    use crate::attention::Geom;
    use crate::vmath;
    use core::arch::x86_64::*;

    type V = __m512;
    const N: usize = 16;

    lane_fns! { "avx512f";
        fn splat(v: f32) -> V { _mm512_set1_ps(v) }
        fn splat_bits(v: i32) -> V { _mm512_castsi512_ps(_mm512_set1_epi32(v)) }
        fn add(a: V, b: V) -> V { _mm512_add_ps(a, b) }
        fn sub(a: V, b: V) -> V { _mm512_sub_ps(a, b) }
        fn mul(a: V, b: V) -> V { _mm512_mul_ps(a, b) }
        fn div(a: V, b: V) -> V { _mm512_div_ps(a, b) }
        /// `a·b + c`, rounded once (`vfmadd`).
        fn fma(a: V, b: V, c: V) -> V { _mm512_fmadd_ps(a, b, c) }
        fn max_sse(a: V, b: V) -> V { _mm512_max_ps(a, b) }
        fn min_sse(a: V, b: V) -> V { _mm512_min_ps(a, b) }
        fn select_lt(a: V, b: V, t: V, f: V) -> V {
            _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b), f, t)
        }
        fn and(a: V, b: V) -> V {
            _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(a), _mm512_castps_si512(b)))
        }
        fn andnot(a: V, b: V) -> V {
            _mm512_castsi512_ps(_mm512_andnot_si512(_mm512_castps_si512(a), _mm512_castps_si512(b)))
        }
        fn or(a: V, b: V) -> V {
            _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(a), _mm512_castps_si512(b)))
        }
        fn add_i32(a: V, b: V) -> V {
            _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(a), _mm512_castps_si512(b)))
        }
        fn sub_i32(a: V, b: V) -> V {
            _mm512_castsi512_ps(_mm512_sub_epi32(_mm512_castps_si512(a), _mm512_castps_si512(b)))
        }
        fn shr1_i32(a: V) -> V {
            _mm512_castsi512_ps(_mm512_srai_epi32::<1>(_mm512_castps_si512(a)))
        }
        fn shl23_i32(a: V) -> V {
            _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_castps_si512(a)))
        }
        fn load(s: &[f32; N]) -> V {
            // SAFETY: `s` holds the 16 floats read.
            unsafe { _mm512_loadu_ps(s.as_ptr()) }
        }
        fn store(v: V, d: &mut [f32; N]) {
            // SAFETY: `d` holds the 16 floats written.
            unsafe { _mm512_storeu_ps(d.as_mut_ptr(), v) }
        }
        /// The first `len.min(N)` lanes set.
        fn part_mask(len: usize) -> __mmask16 {
            if len >= N { !0 } else { (1 << len) - 1 }
        }
        /// One `vmovups` under a zeroing mask.
        fn load_part(s: &[f32]) -> V {
            // SAFETY: the mask enables only lanes below `s.len()`; masked-off
            // lanes are neither read nor able to fault.
            unsafe { _mm512_maskz_loadu_ps(part_mask(s.len()), s.as_ptr()) }
        }
        /// One masked `vmovups`.
        fn store_part(v: V, d: &mut [f32]) {
            // SAFETY: the mask enables only lanes below `d.len()`.
            unsafe { _mm512_mask_storeu_ps(d.as_mut_ptr(), part_mask(d.len()), v) }
        }
    }

    vector_math!("avx512f");

    /// The attention mixes' tile: 16 rows × 1 ZMM (sixteen accumulators;
    /// a 16-column head is one register wide).
    const MIX_ROWS: usize = 16;
    const MIX_VECS: usize = 1;
    attention_lanes!("avx512f");
}

/// Runs the named function of [`zmm`] when the 512-bit family is active,
/// else of [`ymm`].
macro_rules! at_active_width {
    ($f:ident($($arg:expr),*)) => {{
        debug_assert!(have_avx2_fma());
        if crate::kernels::active_path() == crate::kernels::SimdPath::Avx512 {
            debug_assert!(have_avx512f());
            // SAFETY: the 512-bit family is only ever active on a CPU with
            // AVX-512F (`kernels::force_simd_path` refuses it otherwise).
            unsafe { zmm::$f($($arg),*) }
        } else {
            // SAFETY: the vmath dispatchers come here only when an x86
            // family is active, and `kernels` activates one only on a CPU
            // with AVX2+FMA.
            unsafe { ymm::$f($($arg),*) }
        }
    }};
}

/// Vector [`crate::vmath::exp_sub_slice`].
pub(crate) fn exp_sub_slice(x: &[f32], shift: f32, out: &mut [f32]) {
    at_active_width!(exp_sub_slice(x, shift, out))
}

/// Vector [`crate::vmath::exp_sub_in_place`].
pub(crate) fn exp_sub_in_place(x: &mut [f32], shift: f32) {
    at_active_width!(exp_sub_in_place(x, shift))
}

/// Vector [`crate::vmath::tanh_slice`].
pub(crate) fn tanh_slice(x: &[f32], out: &mut [f32]) {
    at_active_width!(tanh_slice(x, out))
}

/// Vector [`crate::vmath::gelu_slice`].
pub(crate) fn gelu_slice(x: &[f32], out: &mut [f32]) {
    at_active_width!(gelu_slice(x, out))
}

/// Vector [`crate::vmath::gelu_tanh_slice`].
pub(crate) fn gelu_tanh_slice(x: &[f32], t: &mut [f32]) {
    at_active_width!(gelu_tanh_slice(x, t))
}

/// Vector [`crate::vmath::gelu_from_tanh_slice`].
pub(crate) fn gelu_from_tanh_slice(x: &[f32], t: &[f32], out: &mut [f32]) {
    at_active_width!(gelu_from_tanh_slice(x, t, out))
}

/// Vector [`crate::vmath::gelu_backward_from_tanh_slice`].
pub(crate) fn gelu_backward_from_tanh_slice(x: &[f32], t: &[f32], dy: &[f32], dx: &mut [f32]) {
    at_active_width!(gelu_backward_from_tanh_slice(x, t, dy, dx))
}

/// The attention core's forward ([`crate::attention`]) on the active width.
pub(crate) fn attention_forward(
    g: Geom,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    probs: &mut [f32],
    scratch: &mut [f32],
    out: &mut [f32],
) {
    at_active_width!(attention_forward(g, q, k, v, probs, scratch, out))
}

/// The attention core's backward ([`crate::attention`]) on the active
/// width: Q, K, V and `dO` in, `dQ`, `dK` and `dV` out.
pub(crate) fn attention_backward(
    g: Geom,
    ins: [&[f32]; 4],
    probs: &[f32],
    scratch: &mut [f32],
    outs: [&mut [f32]; 3],
) {
    at_active_width!(attention_backward(g, ins, probs, scratch, outs))
}

/// Vector [`crate::vmath::max_abs`].
pub(crate) fn max_abs(x: &[f32]) -> f32 {
    at_active_width!(max_abs(x))
}

/// Vector [`crate::vmath::gelu_from_tanh_max`].
pub(crate) fn gelu_from_tanh_max(x: &[f32], t: &[f32], out: &mut [f32]) -> f32 {
    at_active_width!(gelu_from_tanh_max(x, t, out))
}

/// Vector [`crate::vmath::gelu_backward_from_tanh_in_place_max`].
pub(crate) fn gelu_backward_from_tanh_in_place_max(x: &[f32], t: &[f32], d: &mut [f32]) -> f32 {
    at_active_width!(gelu_backward_from_tanh_in_place_max(x, t, d))
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
// are unaligned and confined to 8-element arrays.

/// `VCVTPS2PH` rounding control: nearest-even from the immediate itself
/// (bit 2 clear), whatever MXCSR says.
const F16_ROUND: i32 = _MM_FROUND_TO_NEAREST_INT;

/// Widens 8 packed binary16 values to a YMM of f32 (`vcvtph2ps`).
#[inline]
#[target_feature(enable = "avx2", enable = "f16c")]
fn load_f16x8(s: &[u16; 8]) -> __m256 {
    // SAFETY: `s` holds the 16 bytes read.
    _mm256_cvtph_ps(unsafe { _mm_loadu_si128(s.as_ptr().cast()) })
}

/// Narrows 8 lanes to binary16 and stores them into `dst`.
#[inline]
#[target_feature(enable = "avx2", enable = "f16c")]
fn store_f16x8(v: __m256, dst: &mut [u16; 8]) {
    // SAFETY: `dst` holds the 16 bytes written.
    unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), _mm256_cvtps_ph::<F16_ROUND>(v)) }
}

/// One step's [`AdamCoeffs`], each broadcast to 8 lanes once per chunk.
struct AdamLanes {
    weight_decay: __m256,
    beta1: __m256,
    one_minus_beta1: __m256,
    beta2: __m256,
    one_minus_beta2: __m256,
    bias1: __m256,
    bias2: __m256,
    lr: __m256,
    eps: __m256,
}

impl AdamLanes {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn new(k: &AdamCoeffs) -> Self {
        Self {
            weight_decay: _mm256_set1_ps(k.weight_decay),
            beta1: _mm256_set1_ps(k.beta1),
            one_minus_beta1: _mm256_set1_ps(k.one_minus_beta1),
            beta2: _mm256_set1_ps(k.beta2),
            one_minus_beta2: _mm256_set1_ps(k.one_minus_beta2),
            bias1: _mm256_set1_ps(k.bias1),
            bias2: _mm256_set1_ps(k.bias2),
            lr: _mm256_set1_ps(k.lr),
            eps: _mm256_set1_ps(k.eps),
        }
    }

    /// 8 lanes of [`adam::update`] from the summed gradient `g`: updates
    /// `(w, m, v)` in place and returns the new master weights.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn update(&self, g: __m256, w: &mut [f32; 8], m: &mut [f32; 8], v: &mut [f32; 8]) -> __m256 {
        let w0 = ymm::load(w);
        let g = _mm256_add_ps(g, _mm256_mul_ps(self.weight_decay, w0));
        let m1 = _mm256_add_ps(
            _mm256_mul_ps(self.beta1, ymm::load(m)),
            _mm256_mul_ps(self.one_minus_beta1, g),
        );
        let v1 = _mm256_add_ps(
            _mm256_mul_ps(self.beta2, ymm::load(v)),
            _mm256_mul_ps(_mm256_mul_ps(self.one_minus_beta2, g), g),
        );
        let mhat = _mm256_div_ps(m1, self.bias1);
        let vhat = _mm256_div_ps(v1, self.bias2);
        let step = _mm256_div_ps(
            _mm256_mul_ps(self.lr, mhat),
            _mm256_add_ps(_mm256_sqrt_ps(vhat), self.eps),
        );
        let w1 = _mm256_sub_ps(w0, step);
        ymm::store(m1, m);
        ymm::store(v1, v);
        ymm::store(w1, w);
        w1
    }
}

/// Most destinations the vector loop stores into; more are copied from the
/// first. The loop is instantiated per count, so every slice pointer it
/// walks sits in a register: a loop that reloaded them from memory every
/// octet measured 1.3–2× the time of this one, varying with where the stack
/// landed. On two ranks — every engine workload of the benchmark — a step
/// publishes to a slot, a send buffer or both; the `Trainer`'s to one
/// buffer.
const ADAM_MAX_OUTS: usize = 2;

/// AVX2+F16C encoding of an Adam chunk ([`adam::chunk_scalar`] over the
/// whole chunk): per octet, the gradient summed as [`adam::sum_block`]
/// sums it, the update, and one store per destination; the scalar
/// specification on the `len % 8` tail. The loop reads one f32 slice, or
/// widens one or two binary16 terms in registers (`VCVTPH2PS`, then one
/// `VMULPS` by each term's `2^-exp`) and sums them — a class with two hosts
/// steps its own chunk from its own partial and the other host's; more are
/// summed block by block onto the stack first, and each block then stepped
/// as one slice.
pub(crate) fn adam_chunk(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &adam::Grad<'_>,
    outs: &mut [adam::Dest<'_>],
) {
    debug_assert!(have_avx2_fma());
    // SAFETY: `adam` dispatches here only when `f16_fast_path()` holds, i.e.
    // after runtime AVX2+F16C detection; the implementation touches memory
    // through bounds-checked 8-element arrays only.
    unsafe { adam_chunk_impl(k, master, m, v, grad, outs) }
}

/// Elements per block of a sum of more than two terms.
const ADAM_SUM_BLOCK: usize = 64;

#[target_feature(enable = "avx2", enable = "f16c")]
fn adam_chunk_impl(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &adam::Grad<'_>,
    outs: &mut [adam::Dest<'_>],
) {
    let n = master.len();
    let (fused, extra) = outs.split_at_mut(outs.len().min(ADAM_MAX_OUTS));
    match *grad {
        adam::Grad::Slice(g) => adam_span::<1>(k, master, m, v, Terms::F32(g), fused),
        adam::Grad::Half(&[a]) => adam_span(k, master, m, v, Terms::Half([a]), fused),
        adam::Grad::Half(&[a, b]) => adam_span(k, master, m, v, Terms::Half([a, b]), fused),
        adam::Grad::Half(_) => {
            let mut scratch = [0.0f32; ADAM_SUM_BLOCK];
            let o = fused.len();
            for start in (0..n).step_by(ADAM_SUM_BLOCK) {
                let r = start..n.min(start + ADAM_SUM_BLOCK);
                let g = &mut scratch[..r.len()];
                adam::sum_block(grad, r.clone(), g);
                let mut sub: [adam::Dest; ADAM_MAX_OUTS] = Default::default();
                for (s, out) in sub.iter_mut().zip(fused.iter_mut()) {
                    *s = out.sub(r.clone());
                }
                let (master, m, v) = (&mut master[r.clone()], &mut m[r.clone()], &mut v[r]);
                adam_span::<1>(k, master, m, v, Terms::F32(g), &mut sub[..o]);
            }
        }
    }
    for out in extra {
        match (&fused[0], out) {
            (adam::Dest::Half(h), adam::Dest::Half(o)) => o.copy_from_slice(h),
            (adam::Dest::Half(h), adam::Dest::Grid(o)) => decode_f16_impl::<false>(h, o, 1.0),
            (adam::Dest::Grid(q), adam::Dest::Half(o)) => encode_f16_impl::<false>(q, o, 1.0),
            (adam::Dest::Grid(q), adam::Dest::Grid(o)) => o.copy_from_slice(q),
        }
    }
}

/// The gradient of an Adam span: one f32 slice, or `T` binary16 terms.
#[derive(Clone, Copy)]
enum Terms<'a, const T: usize> {
    F32(&'a [f32]),
    Half([HalfTerm<'a>; T]),
}

/// A span of an Adam chunk from `terms`: the octet body on the vector loop
/// instantiated for the destination count, the `len % 8` tail on the
/// scalar specification.
#[inline]
#[target_feature(enable = "avx2", enable = "f16c")]
fn adam_span<const T: usize>(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    terms: Terms<'_, T>,
    outs: &mut [adam::Dest<'_>],
) {
    match outs.len() {
        0 => adam_fused::<0, T>(k, master, m, v, terms, outs),
        1 => adam_fused::<1, T>(k, master, m, v, terms, outs),
        _ => adam_fused::<2, T>(k, master, m, v, terms, outs),
    }
    let n = master.len();
    let body = n - n % 8;
    let grad = match &terms {
        Terms::F32(g) => adam::Grad::Slice(g),
        Terms::Half(t) => adam::Grad::Half(t),
    };
    adam::chunk_scalar(k, master, m, v, &grad, outs, body..n);
}

/// One destination's octets.
enum Octets<'a> {
    Half(&'a mut [[u16; 8]]),
    Grid(&'a mut [[f32; 8]]),
}

/// A span's gradient octets: an f32 slice's, or `T` binary16 terms' with
/// each term's `2^-exp` on 8 lanes.
enum GradOctets<'a, const T: usize> {
    F32(&'a [[f32; 8]]),
    Half([(&'a [[u16; 8]], __m256); T]),
}

impl<const T: usize> GradOctets<'_, T> {
    /// Octet `i` of the gradient: the slice's, or the terms widened, each
    /// multiplied by its scale, and summed left to right.
    #[inline]
    #[target_feature(enable = "avx2", enable = "f16c")]
    fn load(&self, i: usize) -> __m256 {
        match self {
            GradOctets::F32(g) => ymm::load(&g[i]),
            GradOctets::Half(terms) => {
                let mut g = _mm256_mul_ps(load_f16x8(&terms[0].0[i]), terms[0].1);
                for (bits, scale) in &terms[1..] {
                    g = _mm256_add_ps(g, _mm256_mul_ps(load_f16x8(&bits[i]), *scale));
                }
                g
            }
        }
    }
}

/// The octet body of an Adam chunk with `O` destinations, from `terms`:
/// for each octet, the gradient ([`GradOctets::load`], as
/// [`adam::Grad`] orders it), the update, and the store into every
/// destination.
#[inline]
#[target_feature(enable = "avx2", enable = "f16c")]
fn adam_fused<const O: usize, const T: usize>(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    terms: Terms<'_, T>,
    outs: &mut [adam::Dest<'_>],
) {
    const { assert!(T == 1 || T == 2, "the loop reads one slice or sums two terms") };
    let n8 = master.len() / 8;
    let grad = match terms {
        Terms::F32(g) => GradOctets::F32(&g.as_chunks::<8>().0[..n8]),
        Terms::Half(t) => GradOctets::Half(
            t.map(|t| (&t.bits.as_chunks::<8>().0[..n8], _mm256_set1_ps(half::pow2(-t.exp)))),
        ),
    };
    let mut dests = outs.iter_mut();
    let mut outs: [Octets; O] =
        std::array::from_fn(|_| match dests.next().expect("O destinations") {
            adam::Dest::Half(h) => Octets::Half(&mut h.as_chunks_mut::<8>().0[..n8]),
            adam::Dest::Grid(q) => Octets::Grid(&mut q.as_chunks_mut::<8>().0[..n8]),
        });
    let w8 = &mut master.as_chunks_mut::<8>().0[..n8];
    let (m8, v8) = (&mut m.as_chunks_mut::<8>().0[..n8], &mut v.as_chunks_mut::<8>().0[..n8]);
    // Stated, so the loop's bounds checks fold into its own.
    assert!(match &grad {
        GradOctets::F32(g) => g.len() == n8,
        GradOctets::Half(t) => t.iter().all(|(b, _)| b.len() == n8),
    });
    assert!(outs.iter().all(|o| match o {
        Octets::Half(h) => h.len() == n8,
        Octets::Grid(q) => q.len() == n8,
    }));
    let lanes = AdamLanes::new(k);
    for i in 0..n8 {
        let g = grad.load(i);
        let w1 = lanes.update(g, &mut w8[i], &mut m8[i], &mut v8[i]);
        for out in &mut outs {
            match out {
                Octets::Half(h) => store_f16x8(w1, &mut h[i]),
                Octets::Grid(q) => {
                    ymm::store(_mm256_cvtph_ps(_mm256_cvtps_ph::<F16_ROUND>(w1)), &mut q[i])
                }
            }
        }
    }
}

/// AVX2+F16C [`crate::half::encode`], or with `scale` [`crate::half::narrow`]:
/// each element multiplied by the scale before it is narrowed.
pub(crate) fn encode_f16(src: &[f32], dst: &mut [u16], scale: Option<f32>) {
    debug_assert!(have_avx2_fma());
    // SAFETY: `half::encode` and `half::narrow` dispatch here only when
    // `f16_fast_path()` holds; the implementation checks the lengths.
    unsafe {
        match scale {
            None => encode_f16_impl::<false>(src, dst, 1.0),
            Some(scale) => encode_f16_impl::<true>(src, dst, scale),
        }
    }
}

#[target_feature(enable = "avx2", enable = "f16c")]
fn encode_f16_impl<const SCALED: bool>(src: &[f32], dst: &mut [u16], scale: f32) {
    assert_eq!(src.len(), dst.len());
    let (s8, s_tail) = src.as_chunks::<8>();
    let (d8, d_tail) = dst.as_chunks_mut::<8>();
    let lanes = _mm256_set1_ps(scale);
    for (s, d) in s8.iter().zip(d8) {
        let v = ymm::load(s);
        store_f16x8(if SCALED { _mm256_mul_ps(v, lanes) } else { v }, d);
    }
    for (h, &w) in d_tail.iter_mut().zip(s_tail) {
        *h = f32_to_f16(if SCALED { w * scale } else { w });
    }
}

/// AVX2+F16C [`crate::half::decode`], or with `scale` [`crate::half::widen`]:
/// each widened element multiplied by the scale.
pub(crate) fn decode_f16(src: &[u16], dst: &mut [f32], scale: Option<f32>) {
    debug_assert!(have_avx2_fma());
    // SAFETY: as in `encode_f16`.
    unsafe {
        match scale {
            None => decode_f16_impl::<false>(src, dst, 1.0),
            Some(scale) => decode_f16_impl::<true>(src, dst, scale),
        }
    }
}

#[target_feature(enable = "avx2", enable = "f16c")]
fn decode_f16_impl<const SCALED: bool>(src: &[u16], dst: &mut [f32], scale: f32) {
    assert_eq!(src.len(), dst.len());
    let (s8, s_tail) = src.as_chunks::<8>();
    let (d8, d_tail) = dst.as_chunks_mut::<8>();
    let lanes = _mm256_set1_ps(scale);
    for (s, d) in s8.iter().zip(d8) {
        let v = load_f16x8(s);
        ymm::store(if SCALED { _mm256_mul_ps(v, lanes) } else { v }, d);
    }
    for (w, &h) in d_tail.iter_mut().zip(s_tail) {
        *w = if SCALED { f16_to_f32(h) * scale } else { f16_to_f32(h) };
    }
}
