//! The optimizer kernel's and the binary16 codec's contract.
//!
//! Adam:
//!
//! 1. The scalar path **is** the arithmetic this repository has always run:
//!    it equals, bit for bit, the per-element loop kept below as
//!    [`reference_step`] (the pre-vectorisation `step_chunk`, verbatim).
//! 2. **scalar ≡ AVX2+F16C ≡ 1-vs-4 workers, bitwise**, on `(master, m, v)`
//!    and on both published forms — f32 on the fp16 grid
//!    (`AdamState::step`) and binary16 bits (`AdamShard::step_into`) — at
//!    every length `n % 8 ∈ 0..8` including 0 and 1, with and without weight
//!    decay, over steps 1..=50.
//! 3. Special values in every lane position: `g = ±0`, subnormal, `±inf`,
//!    NaN; `v = 0` (the denominator is `eps`); `|w|` in the band that rounds
//!    to a subnormal half, at `±65504` and past the half overflow threshold.
//! 4. The f32 store is the exact decode of the u16 store.
//! 5. **The fused step** (`ShardStep::run`): a gradient given as k ∈ 1..=5
//!    binary16 terms, each under its own exponent, summed read-only (or, at
//!    k = 1, also one f32 slice read as it is), in every rotation of their
//!    order, is the left-to-right sum of the widened, unscaled terms
//!    stepped by the historical arithmetic
//!    and published identically to every one of 1–3, or 6 (mixed binary16
//!    and f32), destinations; at every length `n % 8`, with the special
//!    values rotated through the lanes, and on shards big enough to split,
//!    the same across paths and worker counts.
//!
//! Codec: scalar `f32_to_f16`/`f16_to_f32` ≡ `VCVTPS2PH`/`VCVTPH2PS` on all
//! 2¹⁶ halves, on every half's rounding midpoints ± 1 ulp, on a strided
//! sweep of a million f32 bit patterns — and on all 2³² of them in the
//! `#[ignore]`d release test.
//!
//! Path pinning and `set_threads` rewire process globals, so every test
//! serializes on one lock.

use std::sync::{Mutex, MutexGuard};
use symi_tensor::half::{self, f16_to_f32, f32_to_f16, quantize_f16};
use symi_tensor::kernels::{self, SimdPath};
use symi_tensor::rng::{Rng, StdRng};
use symi_tensor::{pool, AdamConfig, AdamShard, AdamState, Dest, Grad, HalfTerm};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether this host can run the vector encodings (AVX2 + F16C).
fn have_vector_path() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        symi_tensor::simd::have_avx2_fma() && symi_tensor::simd::have_f16c()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `f` with the dispatch pinned to `path` and `threads` pool workers.
fn pinned<T>(path: SimdPath, threads: usize, f: impl FnOnce() -> T) -> T {
    let (prev_path, prev_threads) = (kernels::active_path(), pool::current_threads());
    kernels::force_simd_path(path);
    pool::set_threads(threads);
    let out = f();
    pool::set_threads(prev_threads);
    kernels::force_simd_path(prev_path);
    out
}

/// The configurations every equivalence is checked under: the scalar
/// specification on one worker first, then whatever else this host runs.
fn configurations() -> Vec<(SimdPath, usize)> {
    let mut c = vec![(SimdPath::Scalar, 1), (SimdPath::Scalar, 4)];
    if have_vector_path() {
        c.extend([(SimdPath::Avx2, 1), (SimdPath::Avx2, 4)]);
    } else {
        println!("no AVX2+F16C here: only the scalar encoding is exercised");
    }
    c
}

/// The per-element loop `adam::step_chunk` was before it was vectorised.
fn reference_step(
    cfg: &AdamConfig,
    t: u64,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grads: &[f32],
    params_out: &mut [f32],
) {
    let bc1 = 1.0 - cfg.beta1.powi(t as i32);
    let bc2 = 1.0 - cfg.beta2.powi(t as i32);
    for i in 0..master.len() {
        let g = grads[i] + cfg.weight_decay * master[i];
        m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g;
        v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g * g;
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        master[i] -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
        params_out[i] = quantize_f16(master[i]);
    }
}

/// Bit patterns, with every NaN mapped to one. Which operand's sign and
/// payload survive when two different NaNs meet depends on the operand order
/// the compiler picks for a commutative instruction, which Rust leaves open:
/// "NaN" is part of the contract, its payload is not.
fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

/// [`bits`] for binary16 patterns.
fn half_bits(h: &[u16]) -> Vec<u16> {
    let is_nan = |h: u16| h & 0x7c00 == 0x7c00 && h & 0x03ff != 0;
    h.iter().map(|&h| if is_nan(h) { 0x7e00 } else { h }).collect()
}

/// Everything a run leaves behind, as ([`bits`]) bit patterns.
#[derive(PartialEq, Debug)]
struct Trace {
    master: Vec<u32>,
    m: Vec<u32>,
    v: Vec<u32>,
    /// `AdamState::step`'s store after every step.
    published_f32: Vec<Vec<u32>>,
    /// `AdamShard::step_into`'s store after every step.
    published_f16: Vec<Vec<u16>>,
}

/// Steps an `AdamState` and an `AdamShard` from the same `(master, m, v)`
/// through `grads` (one gradient vector per step) and checks that the two
/// forms agree with each other on the way.
fn run(
    cfg: AdamConfig,
    master: &[f32],
    m: &[f32],
    v: &[f32],
    t0: u64,
    grads: &[Vec<f32>],
) -> Trace {
    let mut state = AdamState::from_parts(cfg, master.to_vec(), m.to_vec(), v.to_vec(), t0);
    let mut shard = AdamShard::from_parts(cfg, 0, master.to_vec(), m.to_vec(), v.to_vec(), t0);
    let mut out = vec![0.0f32; master.len()];
    let mut half = Vec::new();
    let (mut published_f32, mut published_f16) = (Vec::new(), Vec::new());
    for g in grads {
        state.step(g, &mut out);
        shard.step_into(g, &mut half);
        let decoded: Vec<f32> = half.iter().map(|&h| f16_to_f32(h)).collect();
        assert_eq!(bits(&out), bits(&decoded), "the f32 store is the decode of the u16 store");
        published_f32.push(bits(&out));
        published_f16.push(half_bits(&half));
    }
    assert_eq!(bits(state.master_weights()), bits(shard.master_weights()));
    assert_eq!(bits(state.moments().0), bits(shard.moments().0));
    assert_eq!(bits(state.moments().1), bits(shard.moments().1));
    Trace {
        master: bits(state.master_weights()),
        m: bits(state.moments().0),
        v: bits(state.moments().1),
        published_f32,
        published_f16,
    }
}

/// `run` under every configuration; all must leave the same trace, which is
/// returned.
fn run_everywhere(
    cfg: AdamConfig,
    master: &[f32],
    m: &[f32],
    v: &[f32],
    t0: u64,
    grads: &[Vec<f32>],
) -> Trace {
    let mut traces = configurations()
        .into_iter()
        .map(|(path, threads)| {
            (path, threads, pinned(path, threads, || run(cfg, master, m, v, t0, grads)))
        })
        .collect::<Vec<_>>();
    let (_, _, first) = traces.remove(0);
    for (path, threads, trace) in traces {
        assert!(
            trace == first,
            "{path:?} with {threads} workers differs from the scalar path on one (n = {})",
            master.len()
        );
    }
    first
}

/// Weights of the scale the experts hold (σ ≈ 0.06) and gradients spread
/// over several orders of magnitude, a few of them exactly zero.
fn random_problem(n: usize, steps: usize, seed: u64) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut normalish = move || (0..4).map(|_| rng.gen::<f32>() - 0.5).sum::<f32>();
    let master: Vec<f32> = (0..n).map(|_| 0.1 * normalish()).collect();
    let grads = (0..steps)
        .map(|s| {
            (0..n)
                .map(|i| match (i + s) % 11 {
                    0 => 0.0,
                    k => normalish() * 10f32.powi(-(k as i32 % 6)),
                })
                .collect()
        })
        .collect();
    (master, grads)
}

const DECAY: [f32; 2] = [0.0, 0.01];

#[test]
fn scalar_path_is_the_historical_arithmetic() {
    let _g = lock();
    for weight_decay in DECAY {
        let cfg = AdamConfig { weight_decay, ..AdamConfig::default() };
        let n = 203;
        let (master0, grads) = random_problem(n, 50, 5);
        let got = pinned(SimdPath::Scalar, 1, || {
            run(cfg, &master0, &vec![0.0; n], &vec![0.0; n], 0, &grads)
        });
        let (mut master, mut m, mut v) = (master0, vec![0.0f32; n], vec![0.0f32; n]);
        let mut out = vec![0.0f32; n];
        for (s, g) in grads.iter().enumerate() {
            reference_step(&cfg, s as u64 + 1, &mut master, &mut m, &mut v, g, &mut out);
            assert_eq!(got.published_f32[s], bits(&out), "step {}", s + 1);
        }
        assert_eq!((got.master, got.m, got.v), (bits(&master), bits(&m), bits(&v)));
    }
}

#[test]
fn every_remainder_length_agrees_across_paths_and_workers_over_50_steps() {
    let _g = lock();
    for weight_decay in DECAY {
        let cfg = AdamConfig { weight_decay, ..AdamConfig::default() };
        for n in (0..=17).chain([31, 64, 1003]) {
            let (master, grads) = random_problem(n, 50, 100 + n as u64);
            let trace = run_everywhere(cfg, &master, &vec![0.0; n], &vec![0.0; n], 0, &grads);
            assert_eq!(trace.published_f16.len(), 50);
            assert!(trace.published_f16.iter().all(|p| p.len() == n));
        }
    }
}

#[test]
fn shards_big_enough_to_split_agree_across_paths_and_workers() {
    let _g = lock();
    // Well past four minimum shares, and not a multiple of 8 per share.
    let n = 1_200_011;
    let cfg = AdamConfig { weight_decay: 0.01, ..AdamConfig::default() };
    let (master, grads) = random_problem(n, 3, 9);
    run_everywhere(cfg, &master, &vec![0.0; n], &vec![0.0; n], 0, &grads);
}

#[test]
fn special_values_agree_in_every_lane() {
    let _g = lock();
    let sub = f32::from_bits(0x0000_0400); // an f32 subnormal
    let band = f32::from_bits(0x3340_0000); // in (2^-25, 2^-24): rounds to the smallest half
    let specials_g = [0.0, -0.0, sub, -sub, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-3];
    let specials_w =
        [band, -band, 3.0e-7, 65504.0, -65504.0, 65519.99, 65520.0, -7.0e4, 0.0, -0.0, 0.05];
    // 19 elements: two full octets and a 3-element tail; rotating the
    // specials by `lane` puts each of them in every lane and in the tail.
    let n = 19;
    for weight_decay in DECAY {
        let cfg = AdamConfig { weight_decay, ..AdamConfig::default() };
        for lane in 0..n {
            let at = |i: usize, k: usize| (i + lane + k) % n;
            let master: Vec<f32> =
                (0..n).map(|i| specials_w[at(i, 0) % specials_w.len()]).collect();
            let grads: Vec<Vec<f32>> = (0..4)
                .map(|s| (0..n).map(|i| specials_g[at(i, s) % specials_g.len()]).collect())
                .collect();
            // v = 0 and m = 0 on the first step: the denominator is eps.
            let trace = run_everywhere(cfg, &master, &vec![0.0; n], &vec![0.0; n], 0, &grads);
            // And from a state in which v is zero but m is not.
            let m: Vec<f32> = (0..n).map(|i| 1e-4 * (i as f32 - 9.0)).collect();
            run_everywhere(cfg, &master, &m, &vec![0.0; n], 7, &grads);

            // The specials did what they should in the specification too.
            for (i, &h) in trace.published_f16[0].iter().enumerate() {
                let (g, w) = (grads[0][i], master[i]);
                if g.is_nan() || g.is_infinite() {
                    assert_eq!(h & 0x7c00, 0x7c00, "g = {g}: published {h:#06x} must be NaN");
                    assert_ne!(h & 0x03ff, 0, "g = {g}: published {h:#06x} must be NaN");
                } else if w.abs() >= 65520.0 {
                    assert_eq!(h & 0x7fff, 0x7c00, "w = {w} overflows the half range");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fused step: summed slices, several destinations
// ---------------------------------------------------------------------------

/// One fused step's gradient: `slices` narrowed to binary16 — slice `j`
/// under exponent [`term_exp`]`(j)` — then widened, unscaled and summed in
/// this order ([`Grad::Half`]); or, with `sum` false, the one f32 slice
/// read as it is ([`Grad::Slice`]).
struct Fused<'a> {
    slices: &'a [Vec<f32>],
    sum: bool,
}

/// The exponent the `j`-th term of a fused step is narrowed under: a
/// different power of two per term, so a term unscaled by another's
/// exponent shows.
fn term_exp(j: usize) -> i32 {
    [0, 5, -3, 12, -7][j % 5]
}

/// `slices` narrowed as [`Fused`] narrows them.
fn narrowed(slices: &[Vec<f32>]) -> Vec<(Vec<u16>, i32)> {
    let narrow = |(j, s): (usize, &Vec<f32>)| {
        let mut bits = vec![0u16; s.len()];
        half::narrow(s, term_exp(j), &mut bits);
        (bits, term_exp(j))
    };
    slices.iter().enumerate().map(narrow).collect()
}

/// The destination kinds of a fused step, in order: `true` for binary16.
const DEST_SETS: &[&[bool]] = &[
    &[true],
    &[true, true],
    &[true, true, true],
    &[false],
    // Past the vector loop's two, mixed: the rest are copied or converted
    // from the first.
    &[true, false, true, false, true, true],
    &[false, true, false, true, false, false],
];

/// What one fused run leaves: `(master, m, v)` and, per step, every
/// destination, as bit patterns (a binary16 destination widened to `u32`).
#[derive(PartialEq, Debug)]
struct FusedTrace {
    state: [Vec<u32>; 3],
    outs: Vec<Vec<Vec<u32>>>,
}

/// `steps` fused steps of a shard from `master` over `grad`, published to
/// `kinds`.
fn run_fused(
    cfg: AdamConfig,
    master: &[f32],
    grad: &Fused,
    kinds: &[bool],
    steps: usize,
) -> FusedTrace {
    let n = master.len();
    let zeros = vec![0.0f32; n];
    let mut shard = AdamShard::from_parts(cfg, 0, master.to_vec(), zeros.clone(), zeros, 0);
    let mut trace = FusedTrace { state: Default::default(), outs: Vec::new() };
    let halves = narrowed(grad.slices);
    let terms: Vec<HalfTerm> =
        halves.iter().map(|(bits, exp)| HalfTerm { bits, exp: *exp }).collect();
    for _ in 0..steps {
        let mut halves = vec![vec![0u16; n]; kinds.len()];
        let mut grids = vec![vec![0.0f32; n]; kinds.len()];
        let mut outs: Vec<Dest> = halves
            .iter_mut()
            .zip(&mut grids)
            .zip(kinds)
            .map(|((h, g), &half)| if half { Dest::Half(h) } else { Dest::Grid(g) })
            .collect();
        let g = if grad.sum {
            Grad::Half(&terms)
        } else {
            assert_eq!(terms.len(), 1, "read as it is, one slice");
            Grad::Slice(&grad.slices[0])
        };
        shard.begin_step().run(0..n, g, &mut outs);
        trace.outs.push(
            kinds
                .iter()
                .zip(halves.iter().zip(&grids))
                .map(
                    |(&half, (h, g))| {
                        if half {
                            half_bits(h).into_iter().map(u32::from).collect()
                        } else {
                            bits(g)
                        }
                    },
                )
                .collect(),
        );
    }
    let (m, v) = shard.moments();
    trace.state = [bits(shard.master_weights()), bits(m), bits(v)];
    trace
}

/// [`run_fused`] under every configuration; all must leave the scalar
/// path's trace, which is checked against the specification written out —
/// the slices folded left to right, then the historical step — and
/// returned.
fn run_fused_everywhere(
    cfg: AdamConfig,
    master: &[f32],
    grad: &Fused,
    kinds: &[bool],
    steps: usize,
) -> FusedTrace {
    let at = format!(
        "n {}, {} slices, summed {}, dests {kinds:?}",
        master.len(),
        grad.slices.len(),
        grad.sum
    );
    let mut traces = configurations()
        .into_iter()
        .map(|(path, threads)| {
            (path, threads, pinned(path, threads, || run_fused(cfg, master, grad, kinds, steps)))
        })
        .collect::<Vec<_>>();
    let (_, _, first) = traces.remove(0);
    for (path, threads, trace) in traces {
        assert!(
            trace == first,
            "{at}: {path:?} with {threads} workers differs from the scalar path"
        );
    }

    let n = master.len();
    let widened: Vec<Vec<f32>> = if grad.sum {
        let widen = |(bits, exp): &(Vec<u16>, i32)| -> Vec<f32> {
            bits.iter().map(|&h| f16_to_f32(h) * 2f32.powi(-exp)).collect()
        };
        narrowed(grad.slices).iter().map(widen).collect()
    } else {
        grad.slices.to_vec()
    };
    let sum: Vec<f32> =
        (0..n).map(|i| widened[1..].iter().fold(widened[0][i], |s, x| s + x[i])).collect();
    let (mut w, mut m, mut v, mut out) =
        (master.to_vec(), vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for s in 0..steps {
        reference_step(&cfg, s as u64 + 1, &mut w, &mut m, &mut v, &sum, &mut out);
        for (kind, published) in kinds.iter().zip(&first.outs[s]) {
            let want: Vec<u32> = if *kind {
                half_bits(&out.iter().map(|&x| f32_to_f16(x)).collect::<Vec<_>>())
                    .into_iter()
                    .map(u32::from)
                    .collect()
            } else {
                bits(&out)
            };
            assert_eq!(published, &want, "{at}: step {} published", s + 1);
        }
    }
    assert_eq!(first.state, [bits(&w), bits(&m), bits(&v)], "{at}: (master, m, v)");
    first
}

/// `k` gradient slices of length `n`, distinct in every element.
fn slices(n: usize, k: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..k).map(|j| random_problem(n, 1, seed + j as u64).1.remove(0)).collect()
}

#[test]
fn fused_steps_sum_their_slices_in_order_and_publish_one_value_everywhere() {
    let _g = lock();
    let cfg = AdamConfig { weight_decay: 0.01, ..AdamConfig::default() };
    for n in (0..=17).chain([31, 64, 203]) {
        let (master, _) = random_problem(n, 0, 300 + n as u64);
        for k in 1..=5 {
            let base = slices(n, k, 400 + (n * 8 + k) as u64);
            for rotation in 0..k {
                let order: Vec<Vec<f32>> =
                    (0..k).map(|j| base[(rotation + j) % k].clone()).collect();
                let slice = (k == 1).then_some(false);
                for sum in slice.into_iter().chain([true]) {
                    for kinds in DEST_SETS {
                        run_fused_everywhere(
                            cfg,
                            &master,
                            &Fused { slices: &order, sum },
                            kinds,
                            3,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fused_shards_big_enough_to_split_agree_across_paths_and_workers() {
    let _g = lock();
    let n = 300_007;
    let cfg = AdamConfig { weight_decay: 0.01, ..AdamConfig::default() };
    let (master, _) = random_problem(n, 0, 17);
    let three = slices(n, 3, 18);
    let (one, two) = (&three[..1], &three[..2]);
    for grad in [
        Fused { slices: &three, sum: true },
        Fused { slices: two, sum: true },
        Fused { slices: one, sum: true },
        Fused { slices: one, sum: false },
    ] {
        run_fused_everywhere(cfg, &master, &grad, &[true, false, true], 2);
    }
}

#[test]
fn fused_special_values_agree_in_every_lane() {
    let _g = lock();
    let sub = f32::from_bits(0x0000_0400);
    let specials = [0.0, -0.0, sub, -sub, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-3, -1e30];
    let n = 19;
    let cfg = AdamConfig::default();
    let (master, _) = random_problem(n, 0, 23);
    for lane in 0..n {
        let order: Vec<Vec<f32>> = (0..3)
            .map(|j| (0..n).map(|i| specials[(i + lane + 2 * j) % specials.len()]).collect())
            .collect();
        for rotation in 0..3 {
            let slices: Vec<Vec<f32>> = (0..3).map(|j| order[(rotation + j) % 3].clone()).collect();
            let grad = Fused { slices: &slices, sum: true };
            run_fused_everywhere(cfg, &master, &grad, &[true, false], 2);
        }
        for (slices, sum) in [(&order[..1], false), (&order[..1], true), (&order[..2], true)] {
            run_fused_everywhere(cfg, &master, &Fused { slices, sum }, &[true, false], 2);
        }
    }
}

// ---------------------------------------------------------------------------
// Codec: scalar ≡ hardware
// ---------------------------------------------------------------------------

/// `half::encode` of `xs` under the vector path, checked element by element
/// against the scalar conversion. Returns the encoding.
fn encode_checked(xs: &[f32]) -> Vec<u16> {
    let mut hw = vec![0u16; xs.len()];
    half::encode(xs, &mut hw);
    for (i, (&x, &h)) in xs.iter().zip(&hw).enumerate() {
        let want = f32_to_f16(x);
        assert_eq!(
            h,
            want,
            "element {i}: {x:e} ({:#010x}) encodes to {h:#06x}, scalar says {want:#06x}",
            x.to_bits()
        );
    }
    hw
}

/// Runs `f` with the dispatch pinned to the vector path where there is one
/// (else to scalar, which makes the comparison vacuous but harmless).
fn on_vector_path<T>(f: impl FnOnce() -> T) -> T {
    let path = if have_vector_path() { SimdPath::Avx2 } else { SimdPath::Scalar };
    pinned(path, 1, f)
}

#[test]
fn all_65536_halves_decode_alike_and_round_trip() {
    let _g = lock();
    on_vector_path(|| {
        let halves: Vec<u16> = (0..=u16::MAX).collect();
        let mut hw = vec![0.0f32; halves.len()];
        half::decode(&halves, &mut hw);
        for (&h, &x) in halves.iter().zip(&hw) {
            assert_eq!(x.to_bits(), f16_to_f32(h).to_bits(), "half {h:#06x}");
        }
        let back = encode_checked(&hw);
        for (&h, &b) in halves.iter().zip(&back) {
            let is_nan = h & 0x7c00 == 0x7c00 && h & 0x03ff != 0;
            // A NaN comes back quiet; everything else comes back itself.
            assert_eq!(b, if is_nan { h | 0x0200 } else { h }, "half {h:#06x}");
        }
    });
}

#[test]
fn every_halfs_rounding_midpoints_go_to_even() {
    let _g = lock();
    on_vector_path(|| {
        let mut probes = Vec::new();
        let mut want = Vec::new();
        // Every non-negative finite half and its successor (the last one's
        // successor is infinity: 65520 is the overflow threshold).
        for h in 0..0x7c00u16 {
            let (lo, hi) = (f16_to_f32(h), f16_to_f32(h + 1));
            let mid = if hi.is_infinite() { 65520.0 } else { lo + (hi - lo) / 2.0 };
            let even = if h & 1 == 0 { h } else { h + 1 };
            for (x, expect) in [
                (f32::from_bits(mid.to_bits() - 1), h),
                (mid, even),
                (f32::from_bits(mid.to_bits() + 1), h + 1),
            ] {
                probes.extend([x, -x]);
                want.extend([expect, expect | 0x8000]);
            }
        }
        assert_eq!(encode_checked(&probes), want);
    });
}

/// Scalar ≡ hardware on the f32 bit patterns `start, start + stride, …`.
fn sweep_f32_bit_patterns(stride: usize) -> u64 {
    const BLOCK: usize = 1 << 16;
    let mut xs = Vec::with_capacity(BLOCK);
    let mut checked = 0u64;
    let mut patterns = (0..=u32::MAX).step_by(stride).peekable();
    while patterns.peek().is_some() {
        xs.clear();
        xs.extend(patterns.by_ref().take(BLOCK).map(f32::from_bits));
        encode_checked(&xs);
        checked += xs.len() as u64;
    }
    checked
}

#[test]
fn f16_encode_matches_the_hardware_on_a_strided_million() {
    let _g = lock();
    let checked = on_vector_path(|| sweep_f32_bit_patterns(4093));
    assert!(checked >= 1_000_000, "{checked} points");
}

/// ~45 s in release; CI's release leg runs it.
#[test]
#[ignore = "exhaustive: all 2^32 inputs"]
fn f16_encode_matches_the_hardware_on_all_f32_bit_patterns() {
    let _g = lock();
    let checked = on_vector_path(|| sweep_f32_bit_patterns(1));
    assert_eq!(checked, 1 << 32);
}
