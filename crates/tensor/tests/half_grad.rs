//! The slot gradient's binary16 format: a power-of-two exponent chosen from
//! an a-priori bound, the write-mode `tn` that narrows in its store, and the
//! bias sums that narrow a stack block at a time.
//!
//! 1. **The write is the narrowing of the f32 product, bit for bit.** On
//!    every family this host runs, `gemm_tn_half(a, b, s)` equals
//!    `narrow(gemm_tn_slice(a, b), s)` and `sum_rows_half` equals
//!    `narrow(sum_rows_slice)`, over shapes that cut through every tile,
//!    row edge and column edge, at worker counts 1 and 4.
//! 2. **The families narrow alike** (`SYMI_SIMD`'s legs): `narrow` and
//!    `widen` give the same bits on the scalar, AVX2 and AVX-512 dispatch,
//!    specials and every exponent sign included.
//! 3. **No finite input narrows to ±inf** under the exponent
//!    `grad_exponent(r · max|A| · max|B|)` picks: random factors, factors
//!    near `f32::MAX` (wherever the f32 product is itself finite),
//!    subnormal ones, all-zero ones and one huge row. A NaN or an infinity
//!    in a factor comes out NaN or infinite where it lands.
//! 4. **The folded maxima.** `max_abs` (+inf for an infinity, NaN for a
//!    NaN) and the GELU passes that fold it in — forward, and backward in
//!    place — give the scalar specification's bits on every family, and
//!    write what the plain passes write.
//! 5. **Precision.** Every element whose scaled value is a normal binary16
//!    (`≥ 2⁻¹⁴`) widens back within `2⁻¹¹` relative of the f32 product; the
//!    fraction below that — flushed to a subnormal or zero — is printed at
//!    the engines' expert shapes.
//!
//! Path pinning and `set_threads` rewire process globals, so every test
//! serializes on one lock.

use std::sync::{Mutex, MutexGuard};
use symi_tensor::half::{f16_to_f32, grad_exponent, max_abs, narrow, widen};
use symi_tensor::kernels::{self, gemm_tn_half, gemm_tn_slice, SimdPath};
use symi_tensor::rng::{Rng, StdRng};
use symi_tensor::{pool, Matrix};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under every family this host supports, at 1 and 4 workers.
fn everywhere(mut f: impl FnMut(SimdPath)) {
    let (prev_path, prev_threads) = (kernels::active_path(), pool::current_threads());
    for path in SimdPath::ALL.into_iter().filter(|p| p.supported()) {
        for threads in [1, 4] {
            kernels::force_simd_path(path);
            pool::set_threads(threads);
            f(path);
        }
    }
    pool::set_threads(prev_threads);
    kernels::force_simd_path(prev_path);
}

fn random(rows: usize, cols: usize, scale: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.gen::<f32>() - 0.5) * scale)
}

/// The exponent a slot's backward picks for `aᵀ·b`: from `r · max|a| ·
/// max|b|`, `r` the reduction (what `symi_model::expert::grad_bound` computes for each
/// weight block).
fn exponent(a: &Matrix, b: &Matrix) -> i32 {
    let (x, y) = (f64::from(max_abs(a.as_slice())), f64::from(max_abs(b.as_slice())));
    let bound = if x.is_finite() && y.is_finite() { a.rows() as f64 * x * y } else { f64::NAN };
    grad_exponent(bound)
}

/// `gemm_tn_half` under `s`, checked against the narrowed f32 product;
/// returns `(f32 product, binary16 bits)`.
fn tn_checked(a: &Matrix, b: &Matrix, s: i32, at: &str) -> (Vec<f32>, Vec<u16>) {
    let (m, n) = (a.cols(), b.cols());
    let mut f32s = vec![f32::NAN; m * n];
    gemm_tn_slice(a, b, &mut f32s, false);
    let mut half = vec![0xffffu16; m * n];
    gemm_tn_half(a, b, &mut half, s);
    let mut want = vec![0u16; m * n];
    narrow(&f32s, s, &mut want);
    for (i, (h, w)) in half.iter().zip(&want).enumerate() {
        assert_eq!(h, w, "{at}: element {i} ({}): {h:#06x}, narrowed f32 {w:#06x}", f32s[i]);
    }
    (f32s, half)
}

#[test]
fn the_binary16_write_is_the_narrowed_f32_product_on_every_family() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(48);
    // Output rows cut the 12-, 16- and 6-row tiles; columns the 32- and
    // 16-column panels and the edges; reductions 1 to past one k-chunk.
    let shapes = [(1, 1, 1), (3, 13, 7), (8, 256, 64), (17, 31, 33), (16, 64, 48), (300, 29, 50)];
    everywhere(|path| {
        for &(r, m, n) in &shapes {
            let (a, b) = (random(r, m, 4.0, &mut rng), random(r, n, 0.01, &mut rng));
            let s = exponent(&a, &b);
            for shift in [0, 3, -5] {
                tn_checked(&a, &b, s + shift, &format!("{path:?} {r}x{m}x{n} s{}", s + shift));
            }
            let mut f32s = vec![0.0; n];
            b.sum_rows_slice(&mut f32s, false);
            let (mut half, mut want) = (vec![0u16; n], vec![0u16; n]);
            b.sum_rows_half(&mut half, s);
            narrow(&f32s, s, &mut want);
            assert_eq!(half, want, "{path:?} sum_rows {r}x{n}");
        }
    });
}

#[test]
fn the_families_narrow_and_widen_alike() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(7);
    let sub = f32::from_bits(0x0000_0400);
    let mut src: Vec<f32> = [0.0, -0.0, sub, -sub, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
        .into_iter()
        .chain([f32::MAX, f32::MIN_POSITIVE, 65504.0, 65520.0, 6.0e-8, 3.0e-8, 1.0])
        .collect();
    src.extend((0..1000).map(|i| (rng.gen::<f32>() - 0.5) * 2f32.powi(i % 60 - 30)));
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut runs: Vec<(SimdPath, i32, Vec<u16>, Vec<u32>)> = Vec::new();
    everywhere(|path| {
        for exp in [-126, -40, -1, 0, 1, 15, 40, 126] {
            // Offsets 0..8 put every element in every lane of an octet.
            for off in 0..8 {
                let src = &src[off..];
                let mut half = vec![0u16; src.len()];
                narrow(src, exp, &mut half);
                let mut back = vec![0.0f32; src.len()];
                widen(&half, exp, &mut back);
                if path == SimdPath::Scalar || off > 0 {
                    runs.push((path, exp, half, bits(&back)));
                    continue;
                }
                let first = runs.iter().find(|r| r.0 == SimdPath::Scalar && r.1 == exp);
                let (_, _, want_half, want_back) = first.expect("scalar ran first");
                assert_eq!(&half, want_half, "{path:?} exp {exp}: narrow");
                assert_eq!(&bits(&back), want_back, "{path:?} exp {exp}: widen");
            }
        }
    });
}

/// Whether binary16 bits are ±inf.
fn is_inf(h: u16) -> bool {
    h & 0x7fff == 0x7c00
}

/// Whether binary16 bits are NaN or ±inf.
fn non_finite(h: u16) -> bool {
    h & 0x7c00 == 0x7c00
}

#[test]
fn no_finite_factor_narrows_to_inf_and_non_finite_ones_stay_so() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(21);
    let (r, m, n) = (9, 20, 37);
    let big = f32::MAX / 4.0;
    let sub = f32::from_bits(0x0000_1234);
    let mut cases: Vec<(&str, Matrix, Matrix)> = vec![
        ("random", random(r, m, 2.0, &mut rng), random(r, n, 2.0, &mut rng)),
        ("near MAX × small", random(r, m, big, &mut rng), random(r, n, 1e-30, &mut rng)),
        ("large × large", random(r, m, 1e19, &mut rng), random(r, n, 1e18, &mut rng)),
        ("subnormal", random(r, m, sub, &mut rng), random(r, n, 1.0, &mut rng)),
        ("subnormal²", random(r, m, sub, &mut rng), random(r, n, sub, &mut rng)),
        ("all zero", Matrix::zeros(r, m), random(r, n, 1.0, &mut rng)),
    ];
    let mut huge_row = random(r, m, 1.0, &mut rng);
    huge_row.row_mut(4).iter_mut().for_each(|v| *v *= 1e30);
    cases.push(("one huge row", huge_row, random(r, n, 1.0, &mut rng)));
    everywhere(|path| {
        for (name, a, b) in &cases {
            let s = exponent(a, b);
            let (f32s, half) = tn_checked(a, b, s, &format!("{path:?} {name}"));
            if f32s.iter().all(|v| v.is_finite()) {
                let inf = half.iter().filter(|&&h| is_inf(h)).count();
                assert_eq!(
                    inf, 0,
                    "{path:?} {name}: exponent {s} narrowed {inf} finite sums to inf"
                );
            }
        }
        // A NaN or an infinity in: the bound is not finite, the exponent 0,
        // and every output element it reaches is NaN or infinite.
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut a = random(r, m, 1.0, &mut rng);
            a[(3, 5)] = poison;
            let b = random(r, n, 1.0, &mut rng);
            assert_eq!(exponent(&a, &b), 0);
            let (_, half) = tn_checked(&a, &b, 0, &format!("{path:?} {poison} in"));
            let row = &half[5 * n..6 * n];
            assert!(row.iter().all(|&h| non_finite(h)), "{path:?} {poison}: {row:04x?}");
        }
    });
}

#[test]
fn normal_binary16_elements_keep_eleven_bits_and_the_underflow_is_reported() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(5);
    // (token rows, d_model, d_ff): `engine_tokens`' class batch, and
    // `engine_params'` / `deepspeed_params`' at 16 and 32 rows.
    for (rows, d, ff) in [(512, 64, 256), (16, 256, 1024), (32, 256, 1024)] {
        let x = random(rows, d, 3.0, &mut rng);
        let dpre = random(rows, ff, 1e-4, &mut rng);
        let s = exponent(&x, &dpre);
        let (f32s, half) = tn_checked(&x, &dpre, s, &format!("{rows}x{d}x{ff}"));
        let mut under = 0;
        for (&g, &h) in f32s.iter().zip(&half) {
            let scaled = g * 2f32.powi(s);
            if scaled.abs() < 2f32.powi(-14) {
                under += 1;
                continue;
            }
            let back = f16_to_f32(h) * 2f32.powi(-s);
            let rel = (back - g).abs() / g.abs();
            assert!(rel <= 2f32.powi(-11), "{rows}x{d}x{ff}: {g:e} came back {back:e}");
        }
        println!(
            "W1 block at {rows} rows, d {d}, d_ff {ff}: exponent {s}, {under} of {} elements \
             ({:.2e}) below 2^-14 once scaled",
            half.len(),
            under as f64 / half.len() as f64
        );
    }
}

#[test]
fn the_folded_maxima_are_the_scalar_ones_on_every_family() {
    use symi_tensor::vmath::{
        gelu_backward_from_tanh_in_place_max, gelu_backward_from_tanh_slice, gelu_from_tanh_max,
        gelu_from_tanh_slice, gelu_tanh_slice,
    };
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(3);
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, f32::MAX, -f32::MIN_POSITIVE];
    everywhere(|path| {
        for n in [0, 1, 7, 8, 15, 16, 17, 100] {
            let base: Vec<f32> = (0..n).map(|_| (rng.gen::<f32>() - 0.5) * 8.0).collect();
            // Clean, then one special in every position.
            let mut cases = vec![base.clone()];
            for (i, &sp) in specials.iter().enumerate().filter(|_| n > 0) {
                let mut x = base.clone();
                x[i * 5 % n] = sp;
                cases.push(x);
            }
            for x in &cases {
                let want = {
                    let finite =
                        x.iter().filter(|v| v.is_finite()).fold(0.0f32, |m, v| m.max(v.abs()));
                    if x.iter().any(|v| v.is_nan()) {
                        f32::NAN
                    } else if x.iter().any(|v| v.is_infinite()) {
                        f32::INFINITY
                    } else {
                        finite
                    }
                };
                let got = max_abs(x);
                assert_eq!(got.to_bits(), want.to_bits(), "{path:?} n {n}: max_abs of {x:?}");
                // The passes with the maximum folded in write what the plain
                // passes write, and return its max_abs.
                let mut t = vec![0.0; n];
                gelu_tanh_slice(x, &mut t);
                let (mut plain, mut folded) = (vec![0.0; n], vec![0.0; n]);
                gelu_from_tanh_slice(x, &t, &mut plain);
                let m = gelu_from_tanh_max(x, &t, &mut folded);
                assert_eq!(bits(&plain), bits(&folded), "{path:?} n {n}: gelu");
                assert_eq!(m.to_bits(), max_abs(&plain).to_bits(), "{path:?} n {n}: gelu max");
                let dy: Vec<f32> = x.iter().map(|v| v * 0.3 - 1.0).collect();
                gelu_backward_from_tanh_slice(x, &t, &dy, &mut plain);
                let mut in_place = dy.clone();
                let m = gelu_backward_from_tanh_in_place_max(x, &t, &mut in_place);
                assert_eq!(bits(&plain), bits(&in_place), "{path:?} n {n}: backward");
                assert_eq!(m.to_bits(), max_abs(&plain).to_bits(), "{path:?} n {n}: backward max");
            }
        }
    });
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
