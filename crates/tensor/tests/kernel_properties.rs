//! Determinism properties of the blocked/threaded GEMM kernels.
//!
//! Two contracts (see `symi_tensor::kernels`):
//!
//! 1. The **scalar** kernel family equals the naive i-j-k oracle *bitwise* —
//!    every output element is one accumulator folded over `k` ascending, for
//!    every shape, tile-edge case, and worker count. Those tests pin
//!    `SimdPath::Scalar`.
//! 2. Whatever family is **active** (AVX2 or AVX-512F on capable hosts),
//!    results are bit-identical across worker counts and across repeated
//!    runs: the tile decomposition is a global property of the shape
//!    (block-aligned share bounds), never of the split. Those tests run the
//!    detected path and force the cost-model gate low so the pool really
//!    splits; one also pins the 256-bit and the 512-bit tile in turn and
//!    holds them to one result where the wide tile ends.
//!
//! Path pinning and `set_threads`/`set_flops_per_share` rewire process
//! globals, so every test in this binary serializes on one mutex.
//! (SIMD-vs-oracle *accuracy* is gated separately in `simd_oracle.rs`.)

use std::sync::{Mutex, MutexGuard};
use symi_tensor::kernels::{self, naive, SimdPath};
use symi_tensor::ops::{self, gelu, softmax_rows};
use symi_tensor::pool;
use symi_tensor::rng::{Rng, StdRng};
use symi_tensor::Matrix;

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 4.0 - 2.0)
}

/// Shapes chosen to hit every tile-edge path: unit, sub-tile, exact-tile,
/// prime (never tile-aligned), tall/thin, short/wide, and empty extents.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (2, 3, 5),
    (3, 1, 7),
    (4, 8, 8),
    (5, 5, 5),
    (6, 16, 16),
    (7, 11, 13),
    (17, 19, 23),
    (97, 3, 5),
    (2, 3, 89),
    (61, 1, 1),
    (1, 64, 1),
    (0, 4, 4),
    (4, 0, 4),
    (4, 4, 0),
];

fn with_scalar(f: impl FnOnce()) {
    let _g = lock();
    let prev = kernels::active_path();
    kernels::force_simd_path(SimdPath::Scalar);
    f();
    kernels::force_simd_path(prev);
}

#[test]
fn scalar_gemm_nn_is_bitwise_equal_to_naive_oracle() {
    with_scalar(|| {
        let mut rng = StdRng::seed_from_u64(501);
        for &(m, k, n) in SHAPES {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let blocked = a.matmul(&b);
            let oracle = naive::matmul(&a, &b);
            assert_eq!(blocked.as_slice(), oracle.as_slice(), "nn mismatch at {m}x{k}x{n}");
        }
    });
}

#[test]
fn scalar_gemm_nt_is_bitwise_equal_to_naive_oracle() {
    with_scalar(|| {
        let mut rng = StdRng::seed_from_u64(502);
        for &(m, k, n) in SHAPES {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, n, k);
            let blocked = a.matmul_nt(&b);
            let oracle = naive::matmul_nt(&a, &b);
            assert_eq!(blocked.as_slice(), oracle.as_slice(), "nt mismatch at {m}x{k}x{n}");
        }
    });
}

#[test]
fn scalar_gemm_tn_is_bitwise_equal_to_naive_oracle() {
    with_scalar(|| {
        let mut rng = StdRng::seed_from_u64(503);
        for &(m, k, n) in SHAPES {
            let a = random_matrix(&mut rng, k, m);
            let b = random_matrix(&mut rng, k, n);
            let blocked = a.matmul_tn(&b);
            let oracle = naive::matmul_tn(&a, &b);
            assert_eq!(blocked.as_slice(), oracle.as_slice(), "tn mismatch at {m}x{k}x{n}");
        }
    });
}

#[test]
fn scalar_fused_linear_gelu_is_bitwise_equal_to_unfused_pipeline() {
    with_scalar(|| {
        let mut rng = StdRng::seed_from_u64(504);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (7, 11, 13), (33, 17, 9)] {
            let x = random_matrix(&mut rng, m, k);
            let w = random_matrix(&mut rng, k, n);
            let bias = random_matrix(&mut rng, 1, n);
            let (mut pre, mut t, mut act) =
                (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            ops::linear_gelu_tanh_into(&x, &w, &bias, &mut pre, &mut t);
            ops::gelu_from_tanh_into(&pre, &t, &mut act);
            let unfused_pre = naive::linear(&x, &w, &bias);
            let unfused_act = gelu(&unfused_pre);
            assert_eq!(pre.as_slice(), unfused_pre.as_slice(), "pre mismatch at {m}x{k}x{n}");
            assert_eq!(act.as_slice(), unfused_act.as_slice(), "act mismatch at {m}x{k}x{n}");
        }
    });
}

/// Runs `f` with the pool really splitting: multi-thread budget, a
/// floor-level cost gate, and the hardware-parallelism cap lifted (so the
/// multi-share paths are exercised even on single-core CI hosts), all
/// restored afterwards.
fn with_split_pool(f: impl FnOnce()) {
    let _g = lock();
    let before = pool::current_threads();
    kernels::set_flops_per_share(1);
    kernels::set_hardware_parallelism(8);
    f();
    kernels::set_hardware_parallelism(0);
    kernels::set_flops_per_share(kernels::DEFAULT_FLOPS_PER_SHARE);
    pool::set_threads(before);
}

#[test]
fn active_path_gemm_is_invariant_across_worker_counts() {
    // Whatever family is active (AVX2 here if the host has it), the result
    // must not depend on how many workers executed: share bounds are
    // tile-aligned, so the full/edge decomposition is split-invariant. m
    // runs either side of 32 rows, where the x86 `nt` once switched kernels;
    // `tn` (aᵀ·nn_ref, r = m) runs the tile at every depth, and 15–17 rows
    // split its row blocks unevenly. A 4- or 8-worker split of a 33-row
    // GEMM hands out shares of 6 rows.
    let mut shapes = vec![(64usize, 37usize, 53usize), (13, 29, 17), (127, 65, 33)];
    shapes.extend([(15, 31, 40), (16, 33, 40), (17, 20, 17)]);
    shapes.extend([(31, 31, 40), (32, 33, 40), (33, 20, 17)]);
    with_split_pool(|| {
        let mut rng = StdRng::seed_from_u64(505);
        for &(m, k, n) in &shapes {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let bt = b.transpose();
            pool::set_threads(1);
            let nn_ref = a.matmul(&b);
            let nt_ref = a.matmul_nt(&bt);
            let tn_ref = a.matmul_tn(&nn_ref);
            for &t in &[2usize, 3, 4, 8, 16] {
                pool::set_threads(t);
                assert_eq!(
                    a.matmul(&b).as_slice(),
                    nn_ref.as_slice(),
                    "nn {m}x{k}x{n} differs at {t} threads"
                );
                assert_eq!(
                    a.matmul_nt(&bt).as_slice(),
                    nt_ref.as_slice(),
                    "nt {m}x{k}x{n} differs at {t} threads"
                );
                assert_eq!(
                    a.matmul_tn(&nn_ref).as_slice(),
                    tn_ref.as_slice(),
                    "tn {m}x{k}x{n} differs at {t} threads"
                );
            }
        }
    });
}

#[cfg(target_arch = "x86_64")]
#[test]
fn both_tiles_agree_at_any_worker_count_where_the_wide_tile_ends() {
    // m runs through every height of the 512-bit family's 32-column tile
    // and its remainders, so a 4-worker split of these GEMMs hands out
    // R×32 tiles and their remainders, 16×16 and 6×16 tiles and R×16
    // remainders. Both x86 families at 1 and at 4 workers must give one
    // result for all three layouts — k crosses the 256-long chunk, n mod 32
    // is 0, 5, 16 or 21. The shapes are `simd_oracle.rs`'s bitwise ones.
    use symi_tensor::simd::MR_WIDE;
    let h = MR_WIDE;
    let kn = [(300, 64), (520, 37), (300, 48), (520, 53)];
    let mut shapes: Vec<(usize, usize, usize)> = (1..=2 * h + 1)
        .chain([3 * h - 1, 3 * h, 3 * h + 1])
        .enumerate()
        .map(|(i, m)| (m, kn[i % 4].0, kn[i % 4].1))
        .collect();
    for &(k, n) in &kn {
        shapes.extend([(3 * h - 1, k, n), (3 * h + 1, k, n)]);
    }
    with_split_pool(|| {
        let detected = kernels::active_path();
        let mut rng = StdRng::seed_from_u64(512);
        for &(m, k, n) in &shapes {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let (at, bt) = (a.transpose(), b.transpose());
            let bits = |x: Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut reference = None;
            for path in [SimdPath::Avx2, SimdPath::Avx512] {
                if !path.supported() {
                    println!("skipping {path:?} at {m}x{k}x{n}: this CPU lacks its features");
                    continue;
                }
                kernels::force_simd_path(path);
                for threads in [1usize, 4] {
                    pool::set_threads(threads);
                    let got = [bits(a.matmul(&b)), bits(a.matmul_nt(&bt)), bits(at.matmul_tn(&b))];
                    match &reference {
                        None => reference = Some(got),
                        Some(r) => {
                            assert_eq!(&got, r, "{path:?} {m}x{k}x{n} at {threads} workers")
                        }
                    }
                }
            }
        }
        kernels::force_simd_path(detected);
    });
}

#[test]
fn repeated_runs_are_deterministic_at_every_worker_count() {
    with_split_pool(|| {
        let mut rng = StdRng::seed_from_u64(506);
        let x = random_matrix(&mut rng, 48, 40);
        for &t in &[1usize, 2, 4, 8] {
            pool::set_threads(t);
            let first = (x.matmul(&x.transpose()), softmax_rows(&x), gelu(&x));
            for _ in 0..5 {
                let again = (x.matmul(&x.transpose()), softmax_rows(&x), gelu(&x));
                assert_eq!(first.0.as_slice(), again.0.as_slice(), "matmul flaky at {t} threads");
                assert_eq!(first.1.as_slice(), again.1.as_slice(), "softmax flaky at {t} threads");
                assert_eq!(first.2.as_slice(), again.2.as_slice(), "gelu flaky at {t} threads");
            }
        }
    });
}

#[test]
fn adam_step_is_invariant_across_worker_counts() {
    use symi_tensor::{AdamConfig, AdamState};
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(507);
    let len = 600_000; // enough 64 Ki-element shares for every worker count below
    let params: Vec<f32> = (0..len).map(|_| rng.gen::<f32>() - 0.5).collect();
    let grads: Vec<f32> = (0..len).map(|_| rng.gen::<f32>() * 0.1 - 0.05).collect();
    let before = pool::current_threads();

    pool::set_threads(1);
    let mut reference_state = AdamState::new(AdamConfig::default(), &params);
    let mut reference = vec![0.0f32; len];
    reference_state.step(&grads, &mut reference);

    for &t in &[2usize, 4, 8] {
        pool::set_threads(t);
        let mut state = AdamState::new(AdamConfig::default(), &params);
        let mut out = vec![0.0f32; len];
        state.step(&grads, &mut out);
        assert_eq!(out, reference, "adam step differs at {t} threads");
    }
    pool::set_threads(before);
}

#[test]
fn slice_destination_gemm_tn_equals_the_matrix_destination_bitwise() {
    // `gemm_tn_slice` writes a gradient where it lives inside a larger flat
    // buffer. It must be the `Matrix`-destination GEMM to the bit — in write
    // mode and in accumulate mode, on full and edge tiles (m, n straddle the
    // 4x8 scalar and the 6x16 and 12x32 x86 tiles; r is the reduction,
    // skinny from 1 and 33 across the tile's row blocks), on either
    // kernel family, split across workers or not — and write mode must be
    // exactly zero-fill + accumulate, which is what lets a lazily-zeroed
    // gradient skip the fill.
    with_split_pool(|| {
        let detected = kernels::active_path();
        let mut rng = StdRng::seed_from_u64(510);
        for path in [SimdPath::Scalar, detected] {
            kernels::force_simd_path(path);
            for &r in &[1usize, 7, 8, 33] {
                for &(m, n) in &[(4usize, 16usize), (5, 19), (37, 50), (64, 33)] {
                    let a = random_matrix(&mut rng, r, m);
                    let b = random_matrix(&mut rng, r, n);
                    let stale = random_matrix(&mut rng, m, n);
                    for &threads in &[1usize, 4] {
                        pool::set_threads(threads);
                        let at = format!("{path:?} r{r} {m}x{n} {threads} threads");
                        // The slice sits mid-buffer; its neighbours must
                        // come through untouched.
                        let window = |acc: bool| {
                            let mut flat = vec![7.5f32; 3 + m * n + 5];
                            flat[3..3 + m * n].copy_from_slice(stale.as_slice());
                            a.matmul_tn_slice(&b, &mut flat[3..3 + m * n], acc);
                            assert!(flat[..3].iter().chain(&flat[3 + m * n..]).all(|&v| v == 7.5));
                            flat[3..3 + m * n].to_vec()
                        };
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

                        let mut write = stale.clone();
                        a.matmul_tn_into(&b, &mut write);
                        assert_eq!(bits(&window(false)), bits(write.as_slice()), "write {at}");

                        let mut accumulate = stale.clone();
                        a.matmul_tn_acc(&b, &mut accumulate);
                        assert_eq!(bits(&window(true)), bits(accumulate.as_slice()), "acc {at}");

                        let mut zero_then_acc = Matrix::zeros(m, n);
                        a.matmul_tn_acc(&b, &mut zero_then_acc);
                        assert_eq!(
                            bits(write.as_slice()),
                            bits(zero_then_acc.as_slice()),
                            "write mode is not zero-fill + accumulate: {at}"
                        );
                    }
                }
            }
        }
        kernels::force_simd_path(detected);
    });
}

#[test]
fn slice_destination_sum_rows_equals_the_matrix_destination_bitwise() {
    let mut rng = StdRng::seed_from_u64(511);
    for &(rows, cols) in &[(0usize, 5usize), (1, 1), (7, 19), (33, 64)] {
        // Signed zeros in play: a column of `-0.0`s sums to `+0.0` from a
        // `+0.0` start, and write mode must agree.
        let x =
            Matrix::from_fn(rows, cols, |_, c| if c == 0 { -0.0 } else { rng.gen::<f32>() - 0.5 });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let stale: Vec<f32> = (0..cols).map(|c| c as f32 - 3.0).collect();

        let mut write = stale.clone();
        x.sum_rows_slice(&mut write, false);
        assert_eq!(bits(&write), bits(x.sum_rows().as_slice()), "write {rows}x{cols}");
        let mut zero_then_acc = vec![0.0f32; cols];
        x.sum_rows_slice(&mut zero_then_acc, true);
        assert_eq!(bits(&write), bits(&zero_then_acc), "zero + acc {rows}x{cols}");

        let mut accumulate = Matrix::from_vec(1, cols, stale.clone());
        x.sum_rows_acc(&mut accumulate);
        let mut acc_slice = stale.clone();
        x.sum_rows_slice(&mut acc_slice, true);
        assert_eq!(bits(&acc_slice), bits(accumulate.as_slice()), "acc {rows}x{cols}");
    }
}
