//! The vector-math layer's oracle and contract.
//!
//! Six things are pinned here:
//!
//! 1. **Accuracy** against an f64 (libm) reference on a dense sweep plus
//!    random inputs: `exp` ≤ 4 ulp over [−87, 88], `tanh` absolute error
//!    ≤ 2.5e-7 over [−20, 20], GELU and GELU′ within `1e-6·max(1, |x|)`.
//! 2. **Special values**: `tanh(±inf) = ±1`, `|tanh| ≤ 1`, exact odd
//!    symmetry, `exp(−inf) = 0`, saturation instead of garbage exponents,
//!    ±0 and subnormals pass through, NaN in → NaN out on every lane,
//!    GELU′ → 1 / 0 at ±∞ with no NaN.
//! 3. **scalar ≡ 8 lanes ≡ 16 lanes, bitwise** (`force_simd_path`: the
//!    `Avx2` family runs the 8-lane encoding, `Avx512` the 16-lane one)
//!    over random data at every remainder length `n % 8` and `n % 16`,
//!    including 0 and 1 elements.
//! 4. **Pool-size invariance** (1 vs 4 workers) of `gelu_into`,
//!    `gelu_backward_from_tanh_into`, `softmax_rows_into`, and fused
//!    epilogue ≡ unfused `gemm_nn` + `add_bias` + `gelu_tanh`, bitwise, on
//!    both paths.
//! 5. **GELU's backward from the forward's `tanh`**: the stored term, the
//!    activation rebuilt from it and the backward that reads it equal
//!    `gelu_tanh` / `gelu` and the backward that recomputed `tanh` (kept
//!    here, verbatim, as [`recomputed_gelu_grad`]) bit for bit — scalar ≡
//!    8 lanes ≡ 16 lanes ≡ 1 / 4 workers, every `n % 8`, the ±64 clamp
//!    edges, ±inf, NaN and subnormals.
//! 6. **Causal softmax** ≡ scale, `−1e9` above the diagonal, then
//!    `softmax_rows_into`, bitwise, on both paths.
//!
//! Path pinning and `set_threads` rewire process globals, so the tests that
//! touch them serialize on one lock.

use std::sync::{Mutex, MutexGuard};
use symi_tensor::kernels::{self, ulp_diff, SimdPath};
use symi_tensor::ops::{
    causal_softmax_in_place, gelu, gelu_backward_from_tanh_into, gelu_from_tanh_into, gelu_into,
    linear_gelu_tanh_into, softmax_rows_into,
};
use symi_tensor::rng::{Rng, StdRng};
use symi_tensor::{pool, vmath, Matrix};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The paths this host can run: scalar always, the x86 families when
/// detected (`Avx2` runs the vector math on 8 lanes, `Avx512` on 16; the
/// fused epilogue's GEMM differs between them only in its register tiles).
fn paths() -> Vec<SimdPath> {
    SimdPath::ALL.into_iter().filter(|p| p.supported()).collect()
}

/// Runs `f` once per available path with the dispatch pinned to it.
fn on_each_path(mut f: impl FnMut(SimdPath)) {
    let _g = lock();
    let prev = kernels::active_path();
    for p in paths() {
        kernels::force_simd_path(p);
        f(p);
    }
    kernels::force_simd_path(prev);
}

/// Both NaN, or the same bits (NaN payloads are not part of the contract).
fn same(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

fn assert_same_slice(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(
            same(x, y),
            "{what}: element {i}: {x:e} ({:#x}) vs {y:e} ({:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Dense sweep over `[lo, hi]` plus uniform random draws in the same range.
fn sweep(lo: f32, hi: f32, dense: usize, random: usize, seed: u64) -> Vec<f32> {
    let mut xs: Vec<f32> =
        (0..=dense).map(|i| lo + (hi - lo) * (i as f32 / dense as f32)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    xs.extend((0..random).map(|_| lo + (hi - lo) * rng.gen::<f32>()));
    xs
}

fn gelu_f64(x: f64) -> f64 {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_grad_f64(x: f64) -> f64 {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    let t = (c * (x + 0.044715 * x * x * x)).tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x)
}

/// GELU′ as the backward computed it before it read the forward's `tanh`:
/// clamp, then `tanh` re-evaluated on the clamped input — the reference the
/// from-`t` backward must equal bit for bit.
fn recomputed_gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    const A: f32 = 0.044_715;
    const A3: f32 = 3.0 * A;
    let x = if -64.0 > x { -64.0 } else { x };
    let x = if 64.0 < x { 64.0 } else { x };
    let t = vmath::tanh(C * (x + A * x * x * x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + A3 * x * x)
}

/// `gelu_tanh` of every element: the term the fused forward stores.
fn tanh_terms(x: &[f32]) -> Vec<f32> {
    let mut t = vec![0.0f32; x.len()];
    vmath::gelu_tanh_slice(x, &mut t);
    t
}

/// GELU′ at `x` by way of the stored term, as backward evaluates it.
fn grad_from_tanh(x: f32) -> f32 {
    vmath::gelu_grad_from_tanh(x, vmath::gelu_tanh(x))
}

// ---------------------------------------------------------------------------
// (a) accuracy against f64
// ---------------------------------------------------------------------------

#[test]
fn exp_is_within_4_ulp_over_the_normal_range() {
    on_each_path(|path| {
        let xs = sweep(-87.0, 88.0, 400_000, 100_000, 11);
        let mut got = vec![0.0f32; xs.len()];
        vmath::exp_sub_slice(&xs, 0.0, &mut got);
        let mut worst = 0;
        for (&x, &g) in xs.iter().zip(&got) {
            let want = (x as f64).exp() as f32;
            let ulps = ulp_diff(g, want);
            assert!(ulps <= 4, "{path:?}: exp({x}) = {g:e}, want {want:e} ({ulps} ulp)");
            worst = worst.max(ulps);
        }
        println!("{path:?}: exp worst {worst} ulp over {} points", xs.len());
    });
}

#[test]
fn tanh_abs_error_is_within_bound() {
    on_each_path(|path| {
        let xs = sweep(-20.0, 20.0, 400_000, 100_000, 12);
        let mut got = vec![0.0f32; xs.len()];
        vmath::tanh_slice(&xs, &mut got);
        let mut worst = 0.0f64;
        for (&x, &g) in xs.iter().zip(&got) {
            let err = (g as f64 - (x as f64).tanh()).abs();
            assert!(err <= 2.5e-7, "{path:?}: tanh({x}) = {g:e}, abs err {err:e}");
            worst = worst.max(err);
        }
        println!("{path:?}: tanh worst abs err {worst:e}");
    });
}

#[test]
fn tanh_keeps_relative_accuracy_near_zero() {
    // The polynomial branch: the (1−e)/(1+e) form alone would lose every
    // significant digit to cancellation as u → 0.
    for &u in &[1e-30f32, 3e-8, 1e-5, 1e-3, 0.05, 0.3, 0.62] {
        let want = (u as f64).tanh() as f32;
        assert!(ulp_diff(vmath::tanh(u), want) <= 2, "tanh({u:e}) = {:e}", vmath::tanh(u));
    }
}

#[test]
fn gelu_and_its_gradient_match_f64() {
    on_each_path(|path| {
        let xs = sweep(-12.0, 12.0, 200_000, 50_000, 13);
        let x = Matrix::from_vec(1, xs.len(), xs.clone());
        let t = Matrix::from_vec(1, xs.len(), tanh_terms(&xs));
        let ones = Matrix::from_vec(1, xs.len(), vec![1.0; xs.len()]);
        let y = gelu(&x);
        let mut g = Matrix::zeros(0, 0);
        gelu_backward_from_tanh_into(&x, &t, &ones, &mut g);
        for (i, &xv) in xs.iter().enumerate() {
            let tol = 1e-6 * (xv.abs() as f64).max(1.0);
            let (yv, gv) = (y.as_slice()[i] as f64, g.as_slice()[i] as f64);
            let (yw, gw) = (gelu_f64(xv as f64), gelu_grad_f64(xv as f64));
            assert!((yv - yw).abs() <= tol, "{path:?}: gelu({xv}) = {yv:e}, want {yw:e}");
            assert!((gv - gw).abs() <= tol, "{path:?}: gelu'({xv}) = {gv:e}, want {gw:e}");
        }
    });
}

// ---------------------------------------------------------------------------
// Special values
// ---------------------------------------------------------------------------

const SPECIALS: &[f32] = &[
    0.0,
    -0.0,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    1e-45, // smallest subnormal
    -1e-45,
    5e-39, // mid subnormal
    1.0,
    -1.0,
    0.624_999_94,
    0.625,
    -0.625,
    9.0,
    20.0,
    44.0,
    -87.29,
    -87.3,
    -87.31,
    -104.0,
    -1.0e9,
    88.0,
    88.72,
    88.73,
    89.0,
    1.0e9,
    1.8e19,
    -1.8e19,
    3.0e38,
    -3.0e38,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
];

#[test]
fn exp_special_values() {
    assert_eq!(vmath::exp(f32::NEG_INFINITY), 0.0);
    assert_eq!(vmath::exp(-1.0e9), 0.0, "a masked softmax entry is a true zero");
    assert_eq!(vmath::exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(vmath::exp(1.0e9), f32::INFINITY, "saturates, no garbage exponent");
    assert_eq!(vmath::exp(0.0), 1.0);
    assert_eq!(vmath::exp(-0.0), 1.0);
    assert_eq!(vmath::exp(1e-45), 1.0);
    assert!(vmath::exp(f32::NAN).is_nan());
    // Just inside the ends: finite, normal, right magnitude.
    let top = vmath::exp(88.72);
    assert!(top.is_finite() && top > 3.0e38, "exp(88.72) = {top:e}");
    let bottom = vmath::exp(-87.29);
    assert!(bottom.is_normal() && bottom < 1.3e-38, "exp(-87.29) = {bottom:e}");
    // Monotone across both clamps.
    let mut prev = 0.0f32;
    for i in 0..=4000 {
        let x = -90.0 + 180.0 * (i as f32 / 4000.0);
        let y = vmath::exp(x);
        assert!(y >= prev, "exp not monotone at {x}: {y:e} < {prev:e}");
        prev = y;
    }
}

#[test]
fn tanh_special_values() {
    assert_eq!(vmath::tanh(f32::INFINITY), 1.0);
    assert_eq!(vmath::tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(vmath::tanh(3.0e38), 1.0);
    assert!(vmath::tanh(f32::NAN).is_nan());
    assert_eq!(vmath::tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(vmath::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    for &s in &[1e-45f32, 5e-39, f32::MIN_POSITIVE, 1e-20] {
        assert_eq!(vmath::tanh(s), s, "tiny inputs pass through");
        assert_eq!(vmath::tanh(-s), -s);
    }
    let mut rng = StdRng::seed_from_u64(14);
    for _ in 0..200_000 {
        let u = (rng.gen::<f32>() - 0.5) * 60.0;
        let t = vmath::tanh(u);
        assert!(t.abs() <= 1.0, "|tanh({u})| = {t}");
        assert_eq!(vmath::tanh(-u).to_bits(), (-t).to_bits(), "odd symmetry at {u}");
    }
}

#[test]
fn gelu_grad_saturates_without_nan() {
    // The old scalar formula returned NaN from |x| ≈ 1.8e19 on
    // (sech² = 0 times x·x = inf).
    for &x in &[6.0f32, 64.0, 65.0, 1.0e9, 1.8e19, 2.0e19, 3.0e38, f32::INFINITY] {
        assert_eq!(grad_from_tanh(x), 1.0, "gelu'({x:e})");
        assert_eq!(grad_from_tanh(-x), 0.0, "gelu'(-{x:e})");
    }
    assert!(grad_from_tanh(f32::NAN).is_nan());
    assert!(vmath::gelu(f32::NAN).is_nan());
    assert_eq!(vmath::gelu(0.0), 0.0);
    assert_eq!(vmath::gelu(3.0e38), 3.0e38);
    assert_eq!(vmath::gelu(-3.0e38), 0.0);
}

#[test]
fn nan_survives_on_every_lane() {
    // AVX max/min drop a NaN in the first operand; the kernels keep x in
    // the second. One NaN per lane position, everything else finite.
    on_each_path(|path| {
        for lane in 0..8 {
            for len in [8usize, 11, 16] {
                let mut xs = vec![0.5f32; len];
                xs[lane] = f32::NAN;
                let mut out = vec![0.0f32; len];
                let dy = vec![1.0f32; len];
                vmath::exp_sub_slice(&xs, 0.25, &mut out);
                assert!(out[lane].is_nan(), "{path:?}: exp lane {lane}");
                assert_eq!(out.iter().filter(|v| v.is_nan()).count(), 1);
                out.copy_from_slice(&xs);
                vmath::exp_sub_in_place(&mut out, 0.25);
                assert!(out[lane].is_nan(), "{path:?}: in-place exp lane {lane}");
                assert_eq!(out.iter().filter(|v| v.is_nan()).count(), 1);
                vmath::tanh_slice(&xs, &mut out);
                assert!(out[lane].is_nan(), "{path:?}: tanh lane {lane}");
                vmath::gelu_slice(&xs, &mut out);
                assert!(out[lane].is_nan(), "{path:?}: gelu lane {lane}");
                let t = tanh_terms(&xs);
                assert!(t[lane].is_nan(), "{path:?}: gelu tanh lane {lane}");
                vmath::gelu_from_tanh_slice(&xs, &t, &mut out);
                assert!(out[lane].is_nan(), "{path:?}: gelu from tanh lane {lane}");
                vmath::gelu_backward_from_tanh_slice(&xs, &t, &dy, &mut out);
                assert!(out[lane].is_nan(), "{path:?}: gelu' lane {lane}");
                assert_eq!(out.iter().filter(|v| v.is_nan()).count(), 1);
            }
        }
    });
}

#[test]
fn non_finite_logit_poisons_the_whole_softmax_row() {
    on_each_path(|path| {
        for bad in [f32::NAN, f32::INFINITY] {
            let mut x = Matrix::from_fn(3, 11, |r, c| (r as f32 - c as f32) * 0.3);
            x[(1, 4)] = bad;
            let mut y = Matrix::zeros(0, 0);
            softmax_rows_into(&x, &mut y);
            assert!(y.row(1).iter().all(|p| p.is_nan()), "{path:?}: row with {bad}");
            assert!(y.row(0).iter().chain(y.row(2)).all(|p| p.is_finite()));
        }
        // −inf (a masked entry) is not poison: exactly zero weight.
        let mut x = Matrix::from_fn(1, 9, |_, c| c as f32 * 0.1);
        x[(0, 3)] = f32::NEG_INFINITY;
        let mut y = Matrix::zeros(0, 0);
        softmax_rows_into(&x, &mut y);
        assert_eq!(y[(0, 3)], 0.0);
        assert!((y.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    });
}

// ---------------------------------------------------------------------------
// (b) scalar ≡ 8 lanes ≡ 16 lanes, bitwise
// ---------------------------------------------------------------------------

/// Runs `f` on every available path and asserts the outputs agree bitwise
/// with the forced-scalar run.
fn assert_paths_agree(what: &str, mut f: impl FnMut() -> Vec<f32>) {
    let mut reference: Option<Vec<f32>> = None;
    on_each_path(|path| {
        let got = f();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_same_slice(&got, want, &format!("{what} [{path:?} vs scalar]")),
        }
    });
}

#[test]
fn scalar_and_avx2_agree_bitwise_at_every_remainder_length() {
    let mut rng = StdRng::seed_from_u64(15);
    // Every remainder of either width, and of a 16-lane register and a
    // masked tail: 0..=33, either side of 48, and longer runs.
    let mut lens: Vec<usize> = (0..=33).collect();
    lens.extend([47, 48, 49, 64, 255, 1000, 1001, 1007]);
    for len in lens {
        // Wide magnitudes plus the specials, cycled through every lane.
        let xs: Vec<f32> = (0..len)
            .map(|i| match i % 5 {
                0 => SPECIALS[(i / 5 + len) % SPECIALS.len()],
                1 => (rng.gen::<f32>() - 0.5) * 200.0,
                2 => (rng.gen::<f32>() - 0.5) * 1e-3,
                _ => (rng.gen::<f32>() - 0.5) * 12.0,
            })
            .collect();
        let dy: Vec<f32> = (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let run = |f: &dyn Fn(&mut [f32])| {
            let mut out = vec![0.0f32; len];
            f(&mut out);
            out
        };
        assert_paths_agree(&format!("exp len {len}"), || {
            run(&|o| vmath::exp_sub_slice(&xs, 0.75, o))
        });
        assert_paths_agree(&format!("tanh len {len}"), || run(&|o| vmath::tanh_slice(&xs, o)));
        assert_paths_agree(&format!("gelu len {len}"), || run(&|o| vmath::gelu_slice(&xs, o)));
        assert_paths_agree(&format!("exp in place len {len}"), || {
            run(&|o| {
                o.copy_from_slice(&xs);
                vmath::exp_sub_in_place(o, 0.75)
            })
        });
        assert_paths_agree(&format!("gelu tanh len {len}"), || {
            run(&|o| vmath::gelu_tanh_slice(&xs, o))
        });
        let t = tanh_terms(&xs);
        assert_paths_agree(&format!("gelu from tanh len {len}"), || {
            run(&|o| vmath::gelu_from_tanh_slice(&xs, &t, o))
        });
        assert_paths_agree(&format!("gelu' len {len}"), || {
            run(&|o| vmath::gelu_backward_from_tanh_slice(&xs, &t, &dy, o))
        });
    }
}

#[test]
fn slice_kernels_equal_the_scalar_functions_bitwise() {
    // The public scalar functions *are* the contract: whatever path is
    // active, a slice kernel returns exactly what they return.
    on_each_path(|path| {
        let xs = sweep(-100.0, 100.0, 50_000, 50_000, 16);
        let mut out = vec![0.0f32; xs.len()];
        vmath::exp_sub_slice(&xs, 0.0, &mut out);
        let want: Vec<f32> = xs.iter().map(|&x| vmath::exp(x - 0.0)).collect();
        assert_same_slice(&out, &want, &format!("{path:?} exp"));
        vmath::tanh_slice(&xs, &mut out);
        let want: Vec<f32> = xs.iter().map(|&x| vmath::tanh(x)).collect();
        assert_same_slice(&out, &want, &format!("{path:?} tanh"));
        vmath::gelu_slice(&xs, &mut out);
        let want: Vec<f32> = xs.iter().map(|&x| vmath::gelu(x)).collect();
        assert_same_slice(&out, &want, &format!("{path:?} gelu"));
        out.copy_from_slice(&xs);
        vmath::exp_sub_in_place(&mut out, 0.5);
        let want: Vec<f32> = xs.iter().map(|&x| vmath::exp(x - 0.5)).collect();
        assert_same_slice(&out, &want, &format!("{path:?} exp in place"));
        let t = tanh_terms(&xs);
        let want: Vec<f32> = xs.iter().map(|&x| vmath::gelu_tanh(x)).collect();
        assert_same_slice(&t, &want, &format!("{path:?} gelu tanh"));
        let dy: Vec<f32> = xs.iter().map(|&x| (x * 0.37).sin()).collect();
        vmath::gelu_backward_from_tanh_slice(&xs, &t, &dy, &mut out);
        let want: Vec<f32> = xs
            .iter()
            .zip(&dy)
            .map(|(&x, &d)| d * vmath::gelu_grad_from_tanh(x, vmath::gelu_tanh(x)))
            .collect();
        assert_same_slice(&out, &want, &format!("{path:?} gelu backward from tanh"));
    });
}

// ---------------------------------------------------------------------------
// (c) pool-size invariance, fused ≡ unfused
// ---------------------------------------------------------------------------

#[test]
fn activations_are_invariant_across_worker_counts_and_paths() {
    let mut rng = StdRng::seed_from_u64(17);
    // Odd widths so share boundaries land mid-vector.
    let x = Matrix::from_fn(67, 37, |_, _| (rng.gen::<f32>() - 0.5) * 10.0);
    let dy = Matrix::from_fn(67, 37, |_, _| rng.gen::<f32>() - 0.5);
    let t = Matrix::from_vec(67, 37, tanh_terms(x.as_slice()));
    let mut reference: Option<[Vec<f32>; 3]> = None;
    on_each_path(|path| {
        let before = pool::current_threads();
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            let (mut g, mut gb, mut sm) =
                (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            gelu_into(&x, &mut g);
            gelu_backward_from_tanh_into(&x, &t, &dy, &mut gb);
            softmax_rows_into(&x, &mut sm);
            let got = [g.into_vec(), gb.into_vec(), sm.into_vec()];
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    for (i, name) in ["gelu", "gelu_backward", "softmax"].iter().enumerate() {
                        assert_same_slice(
                            &got[i],
                            &want[i],
                            &format!("{name} at {threads} threads on {path:?}"),
                        );
                    }
                }
            }
        }
        pool::set_threads(before);
    });
}

#[test]
fn fused_epilogue_equals_unfused_sequence_on_both_paths() {
    let mut rng = StdRng::seed_from_u64(18);
    let x = Matrix::from_fn(45, 19, |_, _| rng.gen::<f32>() * 2.0 - 1.0);
    let w = Matrix::from_fn(19, 53, |_, _| rng.gen::<f32>() * 2.0 - 1.0);
    let bias = Matrix::from_fn(1, 53, |_, _| rng.gen::<f32>() - 0.5);
    on_each_path(|path| {
        let before = pool::current_threads();
        kernels::set_flops_per_share(1);
        kernels::set_hardware_parallelism(8);
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            let (mut pre, mut t, mut act) =
                (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            linear_gelu_tanh_into(&x, &w, &bias, &mut pre, &mut t);
            gelu_from_tanh_into(&pre, &t, &mut act);
            let mut want_pre = Matrix::zeros(0, 0);
            kernels::gemm_nn(&x, &w, &mut want_pre, false, None);
            want_pre.add_bias(&bias);
            let want_act = gelu(&want_pre);
            let label = format!("{path:?} at {threads} threads");
            assert_same_slice(pre.as_slice(), want_pre.as_slice(), &format!("pre {label}"));
            assert_same_slice(
                t.as_slice(),
                &tanh_terms(want_pre.as_slice()),
                &format!("t {label}"),
            );
            assert_same_slice(act.as_slice(), want_act.as_slice(), &format!("act {label}"));
        }
        kernels::set_hardware_parallelism(0);
        kernels::set_flops_per_share(kernels::DEFAULT_FLOPS_PER_SHARE);
        pool::set_threads(before);
    });
}

// ---------------------------------------------------------------------------
// (d) GELU's backward from the forward's tanh; causal softmax
// ---------------------------------------------------------------------------

/// Inputs for the from-`t` oracle: the clamp's edges, the saturation point,
/// ±inf, NaN, signed zeros, subnormals, huge magnitudes and random values.
fn from_tanh_inputs(len: usize, rng: &mut StdRng) -> Vec<f32> {
    const EDGES: &[f32] = &[
        64.0,
        -64.0,
        63.999_996,
        -63.999_996,
        64.000_01,
        -64.000_01,
        5.2,
        -5.2,
        9.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        0.0,
        -0.0,
        1e-45,
        -1e-45,
        5e-39,
        -5e-39,
        f32::MIN_POSITIVE,
        1.8e19,
        -1.8e19,
        3.0e38,
        -3.0e38,
    ];
    (0..len)
        .map(|i| match i % 3 {
            0 => EDGES[(i / 3 + len) % EDGES.len()],
            1 => (rng.gen::<f32>() - 0.5) * 24.0,
            _ => (rng.gen::<f32>() - 0.5) * 200.0,
        })
        .collect()
}

#[test]
fn gelu_backward_from_the_forward_tanh_equals_the_recomputing_backward_bitwise() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut lens: Vec<usize> = (0..=17).collect();
    lens.extend([64, 255, 1001]);
    for len in lens {
        let xs = from_tanh_inputs(len, &mut rng);
        let dy: Vec<f32> = (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let want_t: Vec<f32> = xs.iter().map(|&x| vmath::gelu_tanh(x)).collect();
        let want_act: Vec<f32> = xs.iter().map(|&x| vmath::gelu(x)).collect();
        let want_dx: Vec<f32> =
            xs.iter().zip(&dy).map(|(&x, &d)| d * recomputed_gelu_grad(x)).collect();
        on_each_path(|path| {
            let label = format!("{path:?} len {len}");
            let t = tanh_terms(&xs);
            assert_same_slice(&t, &want_t, &format!("t {label}"));
            let mut out = vec![0.0f32; len];
            vmath::gelu_from_tanh_slice(&xs, &t, &mut out);
            assert_same_slice(&out, &want_act, &format!("act {label}"));
            vmath::gelu_backward_from_tanh_slice(&xs, &t, &dy, &mut out);
            assert_same_slice(&out, &want_dx, &format!("dx {label}"));
        });
    }
    // The matrix forms at 1 and 4 workers, rows long enough to split.
    let (rows, cols) = (67, 37);
    let xs = from_tanh_inputs(rows * cols, &mut rng);
    let dys: Vec<f32> = (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect();
    let want: Vec<f32> = xs.iter().zip(&dys).map(|(&x, &d)| d * recomputed_gelu_grad(x)).collect();
    let (x, dy) = (Matrix::from_vec(rows, cols, xs.clone()), Matrix::from_vec(rows, cols, dys));
    let t = Matrix::from_vec(rows, cols, tanh_terms(&xs));
    on_each_path(|path| {
        let before = pool::current_threads();
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            let (mut act, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            gelu_from_tanh_into(&x, &t, &mut act);
            gelu_backward_from_tanh_into(&x, &t, &dy, &mut dx);
            let label = format!("{path:?} at {threads} threads");
            assert_same_slice(act.as_slice(), gelu(&x).as_slice(), &format!("act {label}"));
            assert_same_slice(dx.as_slice(), &want, &format!("dx {label}"));
        }
        pool::set_threads(before);
    });
}

/// The attention softmax as it was written before: scale the whole score
/// matrix, write `−1e9` above the diagonal, then a plain row softmax.
fn masked_softmax(scores: &Matrix, scale: f32) -> Matrix {
    let mut s = scores.clone();
    s.scale(scale);
    for i in 0..s.rows() {
        for j in i + 1..s.cols() {
            s[(i, j)] = -1.0e9;
        }
    }
    let mut out = Matrix::zeros(0, 0);
    softmax_rows_into(&s, &mut out);
    out
}

#[test]
fn causal_softmax_equals_scale_mask_then_softmax_rows_bitwise() {
    let mut rng = StdRng::seed_from_u64(20);
    for n in [1usize, 2, 5, 7, 8, 9, 16, 31, 32, 33] {
        for &(scale, spread) in &[(0.25f32, 8.0f32), (1.0 / 3.0f32.sqrt(), 40.0), (1.0, 1e-3)] {
            let mut scores = Matrix::from_fn(n, n, |_, _| (rng.gen::<f32>() - 0.5) * spread);
            if n > 3 {
                scores[(n - 1, 1)] = f32::NAN; // poisons the last row in both
                scores[(2, 3)] = f32::NAN; // masked: must not poison row 2
                scores[(1, 0)] = -0.0;
            }
            on_each_path(|path| {
                let want = masked_softmax(&scores, scale);
                let mut got = scores.clone();
                causal_softmax_in_place(&mut got, scale);
                assert_same_slice(
                    got.as_slice(),
                    want.as_slice(),
                    &format!("{path:?} n {n} scale {scale}"),
                );
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Measurement: activation time is booked apart from GEMM time
// ---------------------------------------------------------------------------

#[test]
fn activation_counters_advance_and_stay_out_of_gemm_time() {
    let _g = lock();
    let x = Matrix::from_fn(64, 32, |r, c| ((r * 32 + c) as f32 * 0.01).sin());
    let w = Matrix::from_fn(32, 48, |r, c| ((r + c) as f32 * 0.02).cos());
    let bias = Matrix::zeros(1, 48);
    let (mut pre, mut t, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let a0 = symi_tensor::act_stats();
    linear_gelu_tanh_into(&x, &w, &bias, &mut pre, &mut t);
    let a1 = symi_tensor::act_stats();
    assert!(a1.act_elems >= a0.act_elems + 64 * 48, "fused epilogue counts its elements");
    assert!(a1.act_ns > a0.act_ns, "fused epilogue books its time as activation time");
    gelu_into(&pre, &mut out);
    gelu_from_tanh_into(&pre, &t, &mut out);
    gelu_backward_from_tanh_into(&pre, &t, &pre, &mut out);
    softmax_rows_into(&pre, &mut out);
    let a2 = symi_tensor::act_stats();
    assert!(a2.act_elems >= a1.act_elems + 4 * 64 * 48);
    // FLOPs are untouched by the split: one 64×32×48 GEMM.
    let k0 = symi_tensor::kernel_stats();
    linear_gelu_tanh_into(&x, &w, &bias, &mut pre, &mut t);
    let k1 = symi_tensor::kernel_stats();
    assert!(k1.gemm_flops >= k0.gemm_flops + 2 * 64 * 32 * 48);
}
