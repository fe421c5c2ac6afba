//! SIMD-vs-naive-oracle accuracy gate.
//!
//! The scalar kernel family is bitwise-equal to the naive oracle (pinned in
//! `kernel_properties.rs`). The AVX2 family uses FMA, so its results
//! legitimately differ from the oracle — but only within classical
//! floating-point error bounds.
//! These tests hold the *active* path (whatever the host resolves to) to an
//! explicit gate:
//!
//! > an element passes if it is within [`MAX_ULPS`] ULPs of the oracle, OR
//! > within the forward error bound `C·k·ε·(|A||B|)ᵢⱼ`.
//!
//! The sweep covers random shapes plus deliberate microkernel remainder
//! edges (row counts around the 6-row MR, widths around the 16-wide NR),
//! `k = 0`, accumulate mode, and operand aliasing (`x·x` and `x·xᵀ` with
//! the bias taken from `x` itself). A forced-scalar test keeps the fallback
//! family exercised in this binary on every host (CI additionally runs the
//! whole suite under `SYMI_SIMD=scalar`).
//!
//! On the two x86 families most elements are pinned tighter than the gate:
//! they are one FMA chain over ascending k, and [`fma_chain`] — a test-local
//! `f32::mul_add` fold from `+0.0` or from the destination — reproduces
//! them with `==`, on the 256-bit tile and on the 512-bit one alike. That
//! covers every `tn` element, every `nt` element at every m, and `nn`'s
//! full-width columns (the first `16·⌊n/16⌋`). `nn`'s column edge folds
//! mul-then-add — in scalar loops on the 256-bit family, in a masked
//! 16-lane kernel on the 512-bit one — and [`mul_add_chain`], the same fold
//! unfused, reproduces it with `==` on both. `force_simd_path` refuses a
//! family the CPU lacks, so these tests skip it instead.

use std::sync::{Mutex, MutexGuard};
use symi_tensor::kernels::{self, naive, ulp_diff, SimdPath};
use symi_tensor::pool;
use symi_tensor::rng::{Rng, StdRng};
use symi_tensor::Matrix;

/// ULP slack before falling back to the analytic error bound. FMA vs
/// mul-then-add perturbs each partial sum by at most half an ULP, so real
/// differences concentrate at 0–2 ULPs; 8 keeps the gate meaningfully tight.
const MAX_ULPS: u64 = 8;

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 4.0 - 2.0)
}

/// Gate: every element within `MAX_ULPS` of the oracle or within the
/// componentwise GEMM forward error bound scaled by `(|A||B|)ᵢⱼ`.
fn assert_within_gate(got: &Matrix, oracle: &Matrix, absbound: &Matrix, k: usize, label: &str) {
    assert_eq!((got.rows(), got.cols()), (oracle.rows(), oracle.cols()), "{label}: shape");
    for (i, ((&g, &w), &ab)) in
        got.as_slice().iter().zip(oracle.as_slice()).zip(absbound.as_slice()).enumerate()
    {
        let ulps = ulp_diff(g, w);
        if ulps <= MAX_ULPS {
            continue;
        }
        let bound = 4.0 * (k.max(1) as f32) * f32::EPSILON * ab + f32::MIN_POSITIVE;
        assert!(
            (g - w).abs() <= bound,
            "{label}: element {i} off by {} (got {g}, oracle {w}, {ulps} ulps, bound {bound})",
            (g - w).abs()
        );
    }
}

/// Shape list: microkernel remainder edges around MR=6 rows / NR=16 panel
/// width (and the scalar 4/8 tiles), k = 0, primes, plus k around the
/// nt octet width 8.
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (1, 1, 1),
        (6, 8, 16),    // exact AVX2 nn tile
        (5, 8, 16),    // row remainder under MR
        (7, 8, 16),    // one row over MR
        (12, 9, 32),   // multiple full tiles
        (13, 9, 31),   // row + column remainder
        (6, 8, 15),    // column remainder under NR
        (6, 8, 17),    // one column over NR
        (4, 7, 8),     // exact scalar tile
        (3, 0, 5),     // k = 0: zero fold
        (9, 1, 9),     // k = 1
        (8, 7, 8),     // k just under the nt octet
        (8, 8, 8),     // k exactly one octet
        (8, 9, 8),     // k one past an octet
        (23, 129, 19), // prime-ish, k crosses many octets
        (3, 0, 40),    // k = 0 across three column panels
        (40, 0, 20),   // k = 0 on the nt tile
        (33, 300, 37), // k crosses the 256-long k-chunk: partials spill
    ];
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..25 {
        shapes.push((
            1 + (rng.gen::<u32>() as usize) % 64,
            (rng.gen::<u32>() as usize) % 96,
            1 + (rng.gen::<u32>() as usize) % 48,
        ));
    }
    shapes
}

#[test]
fn active_path_nn_within_ulp_gate_of_oracle() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(601);
    for (m, k, n) in edge_shapes() {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let got = a.matmul(&b);
        let oracle = naive::matmul(&a, &b);
        let absb = naive::abs_matmul(&a, &b);
        assert_within_gate(&got, &oracle, &absb, k, &format!("nn {m}x{k}x{n}"));
    }
}

#[test]
fn active_path_nt_within_ulp_gate_of_oracle() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(602);
    for (m, k, n) in edge_shapes() {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, n, k);
        let got = a.matmul_nt(&b);
        let oracle = naive::matmul_nt(&a, &b);
        let absb = naive::abs_matmul(&a, &b.transpose());
        assert_within_gate(&got, &oracle, &absb, k, &format!("nt {m}x{k}x{n}"));
    }
}

#[test]
fn active_path_tn_within_ulp_gate_of_oracle() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(603);
    for (m, k, n) in edge_shapes() {
        // Here k plays the reduction role r: a is r×m, b is r×n.
        let a = random_matrix(&mut rng, k, m);
        let b = random_matrix(&mut rng, k, n);
        let got = a.matmul_tn(&b);
        let oracle = naive::matmul_tn(&a, &b);
        let absb = naive::abs_matmul(&a.transpose(), &b);
        assert_within_gate(&got, &oracle, &absb, k, &format!("tn {m}x{k}x{n}"));
    }
}

/// Either x86 tile's per-element arithmetic, written out: `out[i][j]` is
/// `a(i, 0)·b(0, j) + …` folded by `f32::mul_add` in ascending k, starting
/// from `+0.0` or, given `seed`, from `seed[i][j]`.
fn fma_chain(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    seed: Option<&Matrix>,
) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        (0..k).fold(seed.map_or(0.0, |s| s[(i, j)]), |s, kk| a(i, kk).mul_add(b(kk, j), s))
    })
}

/// `nn`'s column-edge arithmetic: [`fma_chain`] with each term rounded
/// before it is added (`s + a·b`, mul then add).
fn mul_add_chain(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    seed: Option<&Matrix>,
) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        (0..k).fold(seed.map_or(0.0, |s| s[(i, j)]), |s, kk| s + a(i, kk) * b(kk, j))
    })
}

fn bits(x: &Matrix) -> Vec<u32> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs under the 256-bit and the 512-bit tile in turn (`force_simd_path`);
/// a family the CPU lacks is skipped, and the test says so.
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_single_chain_elements_equal_the_fma_chain_bitwise() {
    use symi_tensor::simd::MR_WIDE;
    let _g = lock();
    let prev = kernels::active_path();
    let h = MR_WIDE;
    let mut shapes = edge_shapes();
    // nt either side of the 32 rows where it once switched kernels, and k
    // across the 256-long chunk.
    shapes.extend([(31, 20, 33), (32, 20, 33), (33, 300, 17), (64, 520, 48), (97, 33, 5)]);
    // The `Trainer`'s two expert-backward `nt` shapes (k×n 64×128 and
    // 128×64) at m 1–33: replica right-sizing moves a class's kept rows
    // every step.
    for m in 1..=33 {
        shapes.extend([(m, 64, 128), (m, 128, 64)]);
    }
    // Every height of the 512-bit family's 32-column tile and its
    // remainders up to two tiles and a row, then three tiles and a row
    // either side, with k across the chunk and n mod 32 at 0, 5, 16 and
    // 21: whole 32-column panels, a column edge, a 16-column panel, and
    // both.
    let kn = [(300, 64), (520, 37), (300, 48), (520, 53)];
    for (i, m) in (1..=2 * h + 1).chain([3 * h - 1, 3 * h, 3 * h + 1]).enumerate() {
        shapes.push((m, kn[i % 4].0, kn[i % 4].1));
    }
    for &(k, n) in &kn {
        shapes.extend([(3 * h - 1, k, n), (3 * h + 1, k, n)]);
    }
    // The routers' GEMMs (`engine_tokens`, `engine_params`: all column
    // edge), and edge widths either side of a 16-column panel with k across
    // the chunk.
    shapes.extend([(1024, 64, 4), (32, 256, 4)]);
    for n in [1, 4, 15, 17, 31] {
        shapes.extend([(h + 5, 300, n), (2 * h + 7, 520, n)]);
    }
    // Every height of a lone full 16-column panel up to 16 rows and one
    // over — the 512-bit family's masked tile at w = 16, the 256-bit
    // family's R×16 tiles — and short reductions with row and column
    // remainders (`tn` runs the tile at every depth).
    shapes.extend((1..=17).map(|m| (m, 40, 16)));
    shapes.extend([(4, 7, 16), (9, 15, 35), (11, 3, 50)]);
    // `tn` walks its output row block by row block: blocks whose panels mix
    // a 32-column panel, a 16-column one and a column edge, one to three
    // 12-row blocks and a remainder, at reductions either side of 16 and
    // across the 256-long chunk.
    for m in [13, 25, 37] {
        for n in [48, 53] {
            shapes.extend([8, 15, 16, 17, 300].map(|k| (m, k, n)));
        }
    }
    for path in [SimdPath::Avx2, SimdPath::Avx512] {
        if !path.supported() {
            println!("skipping the {path:?} half: this CPU lacks its features");
            continue;
        }
        kernels::force_simd_path(path);
        let mut rng = StdRng::seed_from_u64(610);
        for &(m, k, n) in &shapes {
            let label = format!("{path:?} {m}x{k}x{n}");
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let bt = b.transpose();
            let at = a.transpose();
            let chain = fma_chain((m, k, n), |i, kk| a[(i, kk)], |kk, j| b[(kk, j)], None);
            let stale = random_matrix(&mut rng, m, n);
            let chain_acc =
                fma_chain((m, k, n), |i, kk| a[(i, kk)], |kk, j| b[(kk, j)], Some(&stale));

            // tn: every shape, every element, write and accumulate mode.
            assert_eq!(bits(&at.matmul_tn(&b)), bits(&chain), "tn {label}");
            let mut got = stale.clone();
            at.matmul_tn_acc(&b, &mut got);
            assert_eq!(bits(&got), bits(&chain_acc), "tn acc {label}");

            // nt: every shape, every element.
            assert_eq!(bits(&a.matmul_nt(&bt)), bits(&chain), "nt {label}");

            // nn, write and accumulate mode: the full-width columns fuse,
            // the column edge (the last n mod 16) folds mul-then-add.
            let full = n - n % 16;
            let edge = mul_add_chain((m, k, n), |i, kk| a[(i, kk)], |kk, j| b[(kk, j)], None);
            let edge_acc =
                mul_add_chain((m, k, n), |i, kk| a[(i, kk)], |kk, j| b[(kk, j)], Some(&stale));
            let nn = a.matmul(&b);
            let mut nn_acc = stale.clone();
            kernels::gemm_nn(&a, &b, &mut nn_acc, true, None);
            for i in 0..m {
                for j in 0..n {
                    let (want, want_acc) =
                        if j < full { (&chain, &chain_acc) } else { (&edge, &edge_acc) };
                    let ij = format!("{label} ({i},{j})");
                    assert_eq!(nn[(i, j)].to_bits(), want[(i, j)].to_bits(), "nn {ij}");
                    assert_eq!(nn_acc[(i, j)].to_bits(), want_acc[(i, j)].to_bits(), "nn acc {ij}");
                }
            }
        }
    }
    kernels::force_simd_path(prev);
}

#[test]
fn forcing_a_family_the_cpu_lacks_is_refused() {
    let _g = lock();
    let prev = kernels::active_path();
    for p in SimdPath::ALL {
        let refused = std::panic::catch_unwind(|| kernels::force_simd_path(p)).is_err();
        assert_eq!(refused, !p.supported(), "{p:?}");
        if !refused {
            assert_eq!(kernels::active_path(), p);
        }
    }
    kernels::force_simd_path(prev);
}

#[test]
fn accumulate_mode_within_gate() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(604);
    for &(m, k, n) in &[(6usize, 8usize, 16usize), (13, 21, 17), (5, 8, 33)] {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let seed = random_matrix(&mut rng, m, n);
        let mut got = seed.clone();
        kernels::gemm_nn(&a, &b, &mut got, true, None);
        // Oracle: seed + naive product, with the seed folded first (the
        // kernels start the accumulator at the prior value).
        let oracle = Matrix::from_fn(m, n, |i, j| {
            let mut s = seed[(i, j)];
            for kk in 0..k {
                s += a[(i, kk)] * b[(kk, j)];
            }
            s
        });
        let mut absb = naive::abs_matmul(&a, &b);
        for (abv, sv) in absb.as_mut_slice().iter_mut().zip(seed.as_slice()) {
            *abv += sv.abs();
        }
        assert_within_gate(&got, &oracle, &absb, k + 1, &format!("acc {m}x{k}x{n}"));
    }
}

#[test]
fn aliased_operands_and_bias_within_gate() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(605);
    // x·x with bias taken from x's own first row, and x·xᵀ: both operands
    // are one matrix, read in place by nn and, by the nt tile (d = 40),
    // through panels transposed out of that same matrix.
    for &d in &[6usize, 16, 31, 40] {
        let x = random_matrix(&mut rng, d, d);
        let bias = Matrix::from_fn(1, d, |_, j| x[(0, j)]);
        let mut got = Matrix::zeros(0, 0);
        kernels::gemm_nn(&x, &x, &mut got, false, Some(&bias));
        let mut oracle = naive::matmul(&x, &x);
        oracle.add_bias(&bias);
        let mut absb = naive::abs_matmul(&x, &x);
        for (abv, j) in absb.as_mut_slice().iter_mut().zip((0..d).cycle()) {
            *abv += x[(0, j)].abs();
        }
        assert_within_gate(&got, &oracle, &absb, d + 1, &format!("aliased {d}x{d}"));

        let got = x.matmul_nt(&x);
        let oracle = naive::matmul_nt(&x, &x);
        let absb = naive::abs_matmul(&x, &x.transpose());
        assert_within_gate(&got, &oracle, &absb, d, &format!("aliased nt {d}x{d}"));
    }
}

#[test]
fn gate_holds_when_pool_actually_splits() {
    // Re-run a mid shape with a floor-level cost gate and a multi-thread
    // budget so the parallel dispatch path (not just inline p=1) is gated.
    let _g = lock();
    let before = pool::current_threads();
    kernels::set_flops_per_share(1);
    pool::set_threads(8);
    let mut rng = StdRng::seed_from_u64(608);
    let a = random_matrix(&mut rng, 61, 33);
    let b = random_matrix(&mut rng, 33, 47);
    let got = a.matmul(&b);
    kernels::set_flops_per_share(kernels::DEFAULT_FLOPS_PER_SHARE);
    pool::set_threads(before);
    let oracle = naive::matmul(&a, &b);
    let absb = naive::abs_matmul(&a, &b);
    assert_within_gate(&got, &oracle, &absb, 33, "split nn 61x33x47");
}

#[test]
fn forced_scalar_fallback_is_bitwise_exact() {
    // Guarantees the non-AVX2 family is exercised on every host: force the
    // scalar path and require full bit equality with the oracle.
    let _g = lock();
    let prev = kernels::active_path();
    kernels::force_simd_path(SimdPath::Scalar);
    let mut rng = StdRng::seed_from_u64(609);
    for &(m, k, n) in &[(6usize, 8usize, 16usize), (13, 29, 17), (1, 1, 1), (3, 0, 5)] {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        assert_eq!(
            a.matmul(&b).as_slice(),
            naive::matmul(&a, &b).as_slice(),
            "forced scalar nn {m}x{k}x{n}"
        );
    }
    kernels::force_simd_path(prev);
}
