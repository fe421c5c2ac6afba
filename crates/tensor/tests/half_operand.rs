//! A binary16 B operand ([`HalfMatrix`]) against the f32 GEMM on its
//! decoded values.
//!
//! The x86 families widen a binary16 B inside the panel they already pack
//! (`VCVTPH2PS` while copying an `nn` panel chunk, or while transposing an
//! `nt` one); the scalar family decodes the whole operand into its
//! per-thread scratch. The decode is exact, so under every family and at 1
//! and 2 pool threads:
//!
//! - `nn` — plain, accumulating, with the fused bias, and with the fused
//!   bias + GELU epilogue — equals the f32 GEMM on the decoded B, bit for
//!   bit;
//! - `nt` on the x86 families is the one FMA chain over ascending k at
//!   every m (a binary16 B always runs the tile; the dot-product kernel,
//!   which an f32 B runs below `NT_TILE_MIN_ROWS` rows, takes no panel), so
//!   it equals the test-local `mul_add` fold `simd_oracle.rs` uses; on the
//!   scalar family it equals the f32 `nt` on the decoded B.
//!
//! Shapes cover m = 1, n below one 16-column panel, n mod 16 ∈ {1, 15}, k =
//! 1, and k either side of the 256-long k-chunk and across two of them
//! (2·256 + 3), where partials spill between chunks.

use std::sync::{Mutex, MutexGuard};
use symi_tensor::kernels::{self, SimdPath};
use symi_tensor::ops::linear_gelu_tanh_into;
use symi_tensor::rng::{Rng, StdRng};
use symi_tensor::{pool, HalfMatrix, Matrix};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 4.0 - 2.0)
}

/// A binary16 matrix with signed zeros, subnormals and values up to ±2.
fn random_half(rng: &mut StdRng, rows: usize, cols: usize) -> HalfMatrix {
    let values = Matrix::from_fn(rows, cols, |_, _| match rng.gen::<u32>() % 16 {
        0 => 0.0,
        1 => -0.0,
        2 => (rng.gen::<f32>() - 0.5) * 1e-6,
        _ => rng.gen::<f32>() * 4.0 - 2.0,
    });
    HalfMatrix::from_f32(&values)
}

fn bits(x: &Matrix) -> Vec<u32> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `a · bᵀ` with every element one `f32::mul_add` fold over ascending k
/// from `+0.0` — either x86 tile's per-element arithmetic.
fn fma_chain_nt(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        (0..a.cols()).fold(0.0f32, |s, kk| a[(i, kk)].mul_add(b[(j, kk)], s))
    })
}

fn shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![(1, 1, 1), (1, 40, 7), (8, 1, 33), (3, 5, 15)];
    // n mod 16 ∈ {1, 15} around one and two 32-column panels, m from 1 to
    // past one 12-row tile, k either side of one chunk and across two.
    for (m, k) in [(1, 255), (5, 256), (8, 257), (13, 515), (33, 64)] {
        for n in [1, 7, 15, 17, 31, 33, 47, 49] {
            shapes.push((m, k, n));
        }
    }
    shapes
}

/// Runs `f` under every family the CPU has, at 1 and at 2 pool threads
/// (the cost gate lowered so a 2-thread budget really splits the rows).
fn for_each_family_and_split(mut f: impl FnMut(SimdPath, &str)) {
    let _g = lock();
    let (path0, threads0) = (kernels::active_path(), pool::current_threads());
    for path in SimdPath::ALL {
        if !path.supported() {
            println!("skipping {path:?}: this CPU lacks its features");
            continue;
        }
        kernels::force_simd_path(path);
        for threads in [1, 2] {
            pool::set_threads(threads);
            kernels::set_hardware_parallelism(threads);
            kernels::set_flops_per_share(1);
            f(path, &format!("{path:?} at {threads} thread(s)"));
        }
    }
    kernels::set_flops_per_share(kernels::DEFAULT_FLOPS_PER_SHARE);
    kernels::set_hardware_parallelism(0);
    pool::set_threads(threads0);
    kernels::force_simd_path(path0);
}

#[test]
fn binary16_nn_and_its_fused_epilogues_equal_the_f32_gemm_on_the_decoded_b() {
    for_each_family_and_split(|_, label| {
        let mut rng = StdRng::seed_from_u64(361);
        for (m, k, n) in shapes() {
            let label = format!("{label} {m}x{k}x{n}");
            let a = random_matrix(&mut rng, m, k);
            let half = random_half(&mut rng, k, n);
            let decoded = half.to_f32();
            let bias = random_matrix(&mut rng, 1, n);
            let stale = random_matrix(&mut rng, m, n);

            let (mut got, mut want) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            kernels::gemm_nn(&a, &half, &mut got, false, None);
            kernels::gemm_nn(&a, &decoded, &mut want, false, None);
            assert_eq!(bits(&got), bits(&want), "nn {label}");

            let (mut got, mut want) = (stale.clone(), stale.clone());
            kernels::gemm_nn(&a, &half, &mut got, true, None);
            kernels::gemm_nn(&a, &decoded, &mut want, true, None);
            assert_eq!(bits(&got), bits(&want), "nn acc {label}");

            a.matmul_bias_into(&half, &bias, &mut got);
            a.matmul_bias_into(&decoded, &bias, &mut want);
            assert_eq!(bits(&got), bits(&want), "nn + bias {label}");

            let (mut pre, mut t) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            let (mut pre_f32, mut t_f32) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            linear_gelu_tanh_into(&a, &half, &bias, &mut pre, &mut t);
            linear_gelu_tanh_into(&a, &decoded, &bias, &mut pre_f32, &mut t_f32);
            assert_eq!(bits(&pre), bits(&pre_f32), "fused pre {label}");
            assert_eq!(bits(&t), bits(&t_f32), "fused tanh term {label}");
        }
    });
}

#[test]
fn binary16_nt_is_the_fma_chain_at_every_m_on_the_x86_families() {
    for_each_family_and_split(|path, label| {
        let mut rng = StdRng::seed_from_u64(362);
        for (m, k, n) in shapes() {
            let label = format!("{label} {m}x{k}x{n}");
            let a = random_matrix(&mut rng, m, k);
            let half = random_half(&mut rng, n, k);
            let decoded = half.to_f32();
            let mut got = Matrix::zeros(0, 0);
            a.matmul_nt_into(&half, &mut got);
            let want = match path {
                SimdPath::Scalar => a.matmul_nt(&decoded),
                SimdPath::Avx2 | SimdPath::Avx512 => fma_chain_nt(&a, &decoded),
            };
            assert_eq!(bits(&got), bits(&want), "nt {label}");
        }
    });
}

#[test]
fn half_matrix_round_trips_grid_values_exactly() {
    let mut rng = StdRng::seed_from_u64(363);
    let half = random_half(&mut rng, 7, 9);
    let decoded = half.to_f32();
    assert_eq!(HalfMatrix::from_f32(&decoded), half);
    assert_eq!((half.rows(), half.cols(), half.len()), (7, 9, 63));
}
