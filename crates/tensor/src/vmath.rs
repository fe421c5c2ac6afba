//! Vector math: `exp`, `tanh` and the GELU pair built on them.
//!
//! Each function is **one fixed sequence of IEEE-754 single-precision
//! operations** — add, sub, mul, div (all correctly rounded), integer ops on
//! the bit pattern, compares and selects; no fused multiply-add, no table,
//! no libm. The sequence is written twice: here as plain scalar code (the
//! `SYMI_SIMD=scalar` path, the non-x86 fallback, and the tail handler of
//! the vector loops) and in [`crate::simd`] as AVX2 8-lane code. Because a
//! lane of the vector code performs exactly the operations of the scalar
//! code in exactly the same order, the two encodings agree **bit for bit**
//! on every input, and so do runs with different worker counts (work only
//! ever splits across elements). That is a stronger contract than the GEMM
//! families' ULP bound, and it means this layer adds no scalar-vs-AVX2
//! divergence of its own.
//!
//! # Algorithms
//!
//! `exp(x)`: clamp `x` to `[EXP_LO, EXP_HI]`; `n = round(x·log2 e)` by the
//! add-a-magic-constant trick (the rounding is the add's own
//! round-to-nearest-even); Cody–Waite reduction `r = (x − n·ln2_hi) −
//! n·ln2_lo` with `ln2_hi` short enough that `n·ln2_hi` is exact; degree-5
//! Horner polynomial for `(eʳ − 1 − r)/r²` (Cephes `expf` coefficients);
//! scale by `2ⁿ` built from exponent bits, split as `2^⌊n/2⌋ · 2^(n−⌊n/2⌋)`
//! so every `n` the clamp admits (−126 … 128) yields two normal factors
//! and overflow past `f32::MAX` is the multiply's own IEEE overflow to
//! `+inf`. Inputs below `EXP_LO` (results that would be subnormal) return
//! exactly `0`, so `exp(−inf) = 0` and a masked softmax entry is a true
//! zero without ever paying a subnormal assist.
//!
//! `tanh(u)`: computed on `a = |u|`, sign bit copied onto the result, so
//! odd symmetry is exact and `tanh(±0) = ±0`. For `a < 0.625` an odd
//! polynomial `a + a·z·P(z)`, `z = a²` (Cephes `tanhf`), which keeps full
//! relative accuracy near zero and passes subnormals through unchanged;
//! otherwise `(1 − e)/(1 + e)` with `e = exp(−2a)`, which cannot overflow,
//! is `≤ 1` by construction and is exactly `1` once `e` drops below half an
//! ulp of one (`a ≳ 9`), hence `tanh(±inf) = ±1`.
//!
//! # Special values
//!
//! NaN in → NaN out on every lane: the clamps are written as
//! `max(lo, x)` / `min(hi, x)` in the SSE operand order, where a NaN
//! *second* operand is returned as-is (`max_sse`/`min_sse` are the
//! scalar twins of `MAXPS`/`MINPS`), compares with NaN are false so no
//! select masks a NaN away, and arithmetic propagates it.
//!
//! # Error bounds (held by `tests/vmath_oracle.rs` against f64)
//!
//! `exp`: ≤ 4 ulp over `[−87, 88]`. `tanh`: absolute error ≤ 2.5e-7 over
//! `[−20, 20]`. GELU and GELU′: within `1e-6·max(1, |x|)`.

#[cfg(target_arch = "x86_64")]
use crate::kernels::avx2_encodings;

/// Below this `exp` returns exactly 0 (the true result would be within a
/// few percent of the smallest normal f32 or subnormal).
pub(crate) const EXP_LO: f32 = -87.3;
/// Upper clamp of `exp`: `exp(x)` is `+inf` from `ln(f32::MAX) ≈ 88.7228`
/// on, and at this bound `n` reaches 128 — still inside the two-factor
/// scaling's range.
pub(crate) const EXP_HI: f32 = 89.0;
pub(crate) const LOG2E: f32 = std::f32::consts::LOG2_E;
/// High part of ln 2 with 9 significant bits (355/512): `n·LN2_HI` is exact
/// for every `|n| ≤ 128`.
pub(crate) const LN2_HI: f32 = 355.0 / 512.0;
#[allow(clippy::excessive_precision)]
pub(crate) const LN2_LO: f32 = -2.121_944_40e-4;
/// `1.5·2²³`: adding it to `|v| < 2²²` rounds `v` to the nearest integer
/// (ties to even) in the low mantissa bits.
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;
pub(crate) const ROUND_MAGIC_BITS: i32 = 0x4B40_0000;
/// Cephes `expf` minimax coefficients, highest degree first.
#[allow(clippy::excessive_precision)]
pub(crate) const EXP_POLY: [f32; 6] = [
    1.987_569_150_0e-4,
    1.398_199_950_7e-3,
    8.333_451_907_3e-3,
    4.166_579_589_4e-2,
    1.666_666_545_9e-1,
    5.000_000_120_1e-1,
];

/// `|u|` below this takes `tanh`'s polynomial branch.
pub(crate) const TANH_SMALL: f32 = 0.625;
/// Cephes `tanhf` odd-polynomial coefficients, highest degree first.
#[allow(clippy::excessive_precision)]
pub(crate) const TANH_POLY: [f32; 5] = [
    -5.704_988_727_45e-3,
    2.063_908_879_54e-2,
    -5.373_971_555_31e-2,
    1.333_144_220_36e-1,
    -3.333_328_194_22e-1,
];

/// `sqrt(2/π)` of the tanh-approximated GELU.
pub(crate) const GELU_C: f32 = 0.797_884_6;
pub(crate) const GELU_A: f32 = 0.044_715;
pub(crate) const GELU_3A: f32 = 3.0 * GELU_A;
/// GELU′ clamps `|x|` here before evaluating. From `|x| ≈ 5.2` on `tanh`
/// has rounded to ±1 and GELU′ is exactly 1 / 0, so the clamp changes no
/// value; it keeps `x²` finite, where the unclamped formula multiplied
/// `sech² = 0` by `x·x = inf` into NaN for `|x| ≳ 1.8e19`.
pub(crate) const GELU_GRAD_CLAMP: f32 = 64.0;

/// `MAXPS` semantics: `a` if `a > b`, else `b` — in particular `b` when
/// either operand is NaN.
#[inline(always)]
pub(crate) fn max_sse(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `MINPS` semantics: `a` if `a < b`, else `b`.
#[inline(always)]
pub(crate) fn min_sse(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `eˣ` — the scalar encoding (see the module docs for the algorithm).
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let xc = min_sse(EXP_HI, max_sse(EXP_LO, x));
    let t = xc * LOG2E + ROUND_MAGIC;
    let nf = t - ROUND_MAGIC;
    let r = (xc - nf * LN2_HI) - nf * LN2_LO;
    let mut p = EXP_POLY[0];
    p = p * r + EXP_POLY[1];
    p = p * r + EXP_POLY[2];
    p = p * r + EXP_POLY[3];
    p = p * r + EXP_POLY[4];
    p = p * r + EXP_POLY[5];
    let p = (p * (r * r) + r) + 1.0;
    let n = (t.to_bits() as i32).wrapping_sub(ROUND_MAGIC_BITS);
    let h = n >> 1;
    let s1 = f32::from_bits((h.wrapping_add(127) << 23) as u32);
    let s2 = f32::from_bits((n.wrapping_sub(h).wrapping_add(127) << 23) as u32);
    let y = (p * s1) * s2;
    if x < EXP_LO {
        0.0
    } else {
        y
    }
}

/// `tanh(u)` — the scalar encoding.
#[inline(always)]
pub fn tanh(u: f32) -> f32 {
    let bits = u.to_bits();
    let a = f32::from_bits(bits & 0x7fff_ffff);
    let z = a * a;
    let mut q = TANH_POLY[0];
    q = q * z + TANH_POLY[1];
    q = q * z + TANH_POLY[2];
    q = q * z + TANH_POLY[3];
    q = q * z + TANH_POLY[4];
    let small = (q * z) * a + a;
    let e = exp(-2.0 * a);
    let big = (1.0 - e) / (1.0 + e);
    let r = if a < TANH_SMALL { small } else { big };
    f32::from_bits(r.to_bits() | (bits & 0x8000_0000))
}

/// `t = tanh(C·(x + A·x·x·x))` — the inner term GELU and GELU′ share, and
/// what the fused FFN forward stores per element so backward never
/// evaluates a transcendental.
#[inline(always)]
pub fn gelu_tanh(x: f32) -> f32 {
    tanh(GELU_C * (x + GELU_A * x * x * x))
}

/// GELU from its inner term `t = gelu_tanh(x)`: `0.5·x·(1 + t)`.
#[inline(always)]
pub fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// GELU (tanh approximation, as used by GPT-2/GPT-3).
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    gelu_from_tanh(x, gelu_tanh(x))
}

/// Derivative of [`gelu`] at `x` from the forward's `t = gelu_tanh(x)`.
/// `x` is clamped to ±`GELU_GRAD_CLAMP` first; that changes no `t`
/// (from `|x| ≈ 5.2` on `t` is exactly ±1) and keeps `x²` finite, so the
/// result tends to exactly 1 / 0 for `x → ±∞` (including `±inf` itself) and
/// is NaN only for NaN input.
#[inline(always)]
pub fn gelu_grad_from_tanh(x: f32, t: f32) -> f32 {
    let x = min_sse(GELU_GRAD_CLAMP, max_sse(-GELU_GRAD_CLAMP, x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + GELU_3A * x * x)
}

/// `out[i] = exp(x[i] − shift)` — the softmax exponent pass.
pub fn exp_sub_slice(x: &[f32], shift: f32, out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "exp length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_encodings() {
        return crate::simd::exp_sub_slice(x, shift, out);
    }
    out.iter_mut().zip(x).for_each(|(o, &v)| *o = exp(v - shift));
}

/// `x[i] = exp(x[i] − shift)` in place — the exponent pass of a softmax
/// computed in its own buffer.
pub fn exp_sub_in_place(x: &mut [f32], shift: f32) {
    #[cfg(target_arch = "x86_64")]
    if avx2_encodings() {
        return crate::simd::exp_sub_in_place(x, shift);
    }
    x.iter_mut().for_each(|v| *v = exp(*v - shift));
}

/// `out[i] = tanh(x[i])`.
pub fn tanh_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "tanh length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_encodings() {
        return crate::simd::tanh_slice(x, out);
    }
    out.iter_mut().zip(x).for_each(|(o, &v)| *o = tanh(v));
}

/// `out[i] = gelu(x[i])`.
pub fn gelu_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "gelu length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_encodings() {
        return crate::simd::gelu_slice(x, out);
    }
    out.iter_mut().zip(x).for_each(|(o, &v)| *o = gelu(v));
}

/// `t[i] = gelu_tanh(x[i])` — the fused FFN forward's stored term.
pub fn gelu_tanh_slice(x: &[f32], t: &mut [f32]) {
    assert_eq!(x.len(), t.len(), "gelu tanh length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_encodings() {
        return crate::simd::gelu_tanh_slice(x, t);
    }
    t.iter_mut().zip(x).for_each(|(o, &v)| *o = gelu_tanh(v));
}

/// `out[i] = gelu_from_tanh(x[i], t[i])`: the activation, rebuilt from the
/// stored term with [`gelu`]'s own operations.
pub fn gelu_from_tanh_slice(x: &[f32], t: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), t.len(), "gelu length mismatch");
    assert_eq!(x.len(), out.len(), "gelu length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_encodings() {
        return crate::simd::gelu_from_tanh_slice(x, t, out);
    }
    for ((o, &xv), &tv) in out.iter_mut().zip(x).zip(t) {
        *o = gelu_from_tanh(xv, tv);
    }
}

/// `dx[i] = dy[i] · gelu_grad_from_tanh(x[i], t[i])`, with `t` the stored
/// `gelu_tanh(x)`: no transcendental is evaluated.
pub fn gelu_backward_from_tanh_slice(x: &[f32], t: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(x.len(), t.len(), "gelu backward length mismatch");
    assert_eq!(x.len(), dy.len(), "gelu backward length mismatch");
    assert_eq!(x.len(), dx.len(), "gelu backward length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_encodings() {
        return crate::simd::gelu_backward_from_tanh_slice(x, t, dy, dx);
    }
    for (((o, &xv), &tv), &dyv) in dx.iter_mut().zip(x).zip(t).zip(dy) {
        *o = dyv * gelu_grad_from_tanh(xv, tv);
    }
}
