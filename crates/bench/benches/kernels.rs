//! Micro-benchmarks for the GEMM kernels against the naive oracle.
//!
//! Shapes follow the training stack's real GEMMs: the `small_sim`
//! simulation config (d_model 64, d_ff 128) and the paper's GPT-Small
//! geometry (d_model 768, d_ff 3072), plus a d256 midpoint where the
//! acceptance criterion (≥3× single-thread speedup over naive) is
//! checked. Each shape runs the naive i-j-k kernel once, then an
//! **interleaved** sweep (each rep measures every configuration once, mins
//! accumulate per configuration, so a throttled window on a shared runner
//! degrades all configurations equally): the active-path kernel at
//! 1/2/4/8 worker threads and the forced-scalar family at 1 thread (the
//! `simd_uplift` ratio). Results (ns/iter, GFLOP/s, speedups, the active SIMD path)
//! land in `BENCH_kernels.json` at the repo root.
//!
//! Below the GEMM rows sit the **activation rows** — GELU forward, GELU
//! backward and row softmax at the repository benchmark's own expert batch
//! shapes (240×256 from `engine_tokens`, 32×1024 from `engine_params`), in
//! ns per element for the vector-math path at the active family's width (16
//! lanes on `Avx512`), the 8-lane encoding (`Avx2` forced), the
//! forced-scalar encoding of the same math, and a libm reference loop that
//! exists only in this file (the backward is the one the experts run, from
//! the forward's stored `tanh` term; its libm reference recomputes `tanh`,
//! as the backward did before it read the stored term) —
//! and an **in-situ-shaped `ExpertFfn` row** (m 240, d 64, ff 256: forward
//! and backward, whole-call GFLOP/s), so "expert FFN vs the GEMM roof" is
//! answered from the JSON. `engine_params`' expert (d 256, ff 1024 at the
//! m = 8 … 32 rows a slot, a merged class or a whole rank sees) gets its own
//! **skinny rows** and a **`class_major` pair** (three m = 8 slots with
//! their folds and decodes against one m = 24 batch): that
//! shape is bound by the parameter-sized streams — weights in, gradient out
//! — not by FLOPs, so each of forward, write-mode backward (the first after
//! `zero_grad`) and accumulate-mode backward is reported in GFLOP/s *and* in
//! compulsory bytes per ns, and the `gemm_tn` rows under them isolate the
//! one kernel whose store stream the write mode halves — and, in their
//! `half_write` columns, halves again: the binary16 write of a slot
//! gradient, narrowed in the tile's store.
//!
//! Those rows, and the layout rows' `engine_params_expert` shapes, also
//! carry a **cold mode** (`cold_<family>_*` columns) on each x86 family the
//! CPU has: every call meets a destination and a B operand that
//! [`COLD_COPIES`] − 1 other calls have evicted from L1 and L2 since it last
//! touched them, as an engine's freshly scattered slot weights and freshly
//! written gradients are. Warm rows re-read one copy from cache and, on these
//! bandwidth-bound shapes, did not predict the engine (ROADMAP item 14).
//!
//! The **layout rows** put the three GEMM layouts side by side on one
//! product: at each m×k×n, `nn` = (m×k)·(k×n), `nt` = (m×k)·(n×k)ᵀ and
//! `tn` = (k×m)ᵀ·(k×n), interleaved, single-threaded, in GFLOP/s and with the
//! kernel each layout ran. The shapes are `engine_tokens`' expert GEMMs,
//! the per-head attention GEMM `trainer_lm` ran before the attention core
//! and its projection gradient, and
//! `engine_params`' skinny expert (m 8 … 32) and gradient (k 8 … 24) GEMMs,
//! and the two engines' router GEMMs (1024×64×4 and 32×256×4). `nn` runs
//! the FMA tile with no transposes at all: the reference `nt`'s panel
//! transposes and `tn`'s transposed A are read against. Each row names the
//! kernel the three layouts ran — `tile512` or `tile256` for the loop
//! nest's register tile on the `Avx512` or `Avx2` family, `edge512_masked`
//! or `edge_scalar` for its column edge where the whole GEMM is narrower
//! than a panel (the two routers' rows, n = 4).
//!
//! The **tile-width rows** time each layout on the 256-bit family (the 6×16
//! tile) and on the 512-bit one (`force_simd_path`), all six interleaved,
//! and record whether the two families' outputs are equal bit for bit. At
//! `engine_tokens`' expert GEMMs and `trainer_lm`'s LM head and projection
//! the 512-bit family runs its 12×32 tile; at `trainer_lm`'s n = 16 router
//! and at the per-head attention GEMMs' 32×32×16 (the attention core runs
//! them now; the shape stays as a 16-column panel), its masked 16×16 tile.
//! Hosts without AVX-512F leave the section empty.
//!
//! The **attention core rows** time `trainer_lm`'s per-(sequence, head)
//! attention at `small_sim`'s geometry (32 sequences of 32 rows, 4 heads of
//! 16 columns) in ns per (sequence, head) pair, forward and backward: the
//! fused [`AttentionCore`] against the per-head GEMM composition it replaced
//! (head blocks copied out, six GEMMs, the causal softmax, results copied
//! back), interleaved, one thread, on the active family, with the two
//! sides' outputs equal bit for bit.
//!
//! Then the **optimizer rows**: one Adam step over the repository
//! benchmark's own shard sizes (262,784 parameters: `engine_params`' per-rank
//! shard of one class; 16,544: `engine_tokens`') in ns per parameter, both
//! stores (f32 on the fp16 grid, binary16 bits), vector path and forced
//! scalar — the scalar column is the arithmetic and the speed every earlier
//! revision ran at — and the engines' weight path of one owned chunk, fused
//! (two hosts' binary16 partials read where they lie, widened and summed in
//! the step, two binary16 destinations) and as the separate passes it
//! replaced (two widenings, the fold, Adam, two copies); and the **binary16
//! codec rows** (slice encode/decode, ns per element, vector / scalar) at
//! the same sizes.
//!
//! Every row group runs twice and records its second pass: in a fresh
//! process a group's first pass read up to 1.8× slower than its second.
//!
//! With `SYMI_KERNEL_SMOKE=1` the binary instead runs the CI gate. Every
//! check runs whatever the others' verdicts, prints `gate <name>: ok` or
//! `FAILED` with the failed assertion, and the binary exits 1 at the end
//! listing every failed check. It times
//! every shape at 1 thread and at max threads (min-of-reps), asserting
//!   1. the blocked kernel beats naive on the d256 shape,
//!   2. results match the oracle within the ULP/error-bound gate
//!      (the active path may use FMA, so bitwise equality only holds
//!      on the forced-scalar path), and
//!   3. **scaling**: no shape is >10% slower at max threads than at
//!      1 thread (plus a small absolute grace for timer noise) — the
//!      regression this PR fixes must stay fixed,
//!   4. **activations**: vector GELU matches the libm reference within
//!      `1e-6·max(1, |x|)` and, on the AVX2 path, runs ≥ 4× faster,
//!   5. **optimizer**: the vector Adam step leaves bit for bit the state
//!      and the published weights of the scalar one and, where AVX2+F16C
//!      is present, runs ≥ 4× faster; and at `engine_params`' shard the
//!      fused weight path (a received binary16 partial and the own one
//!      widened and summed in the step, published to a send buffer and a
//!      slot) leaves the bits of widen + fold + Adam + two copies at ≤ 0.85×
//!      their time there,
//!   6. **write mode**: a `gemm_tn` that overwrites its destination, and an
//!      `ExpertFfn` backward after a lazy `zero_grad`, equal zero-fill +
//!      accumulate bit for bit at the skinny shapes,
//!   7. **backward layouts**: at `engine_tokens`' expert shapes `nt` and
//!      `tn` reach ≥ 0.85× `nn`'s min-of-reps GFLOP/s on either x86 family,
//!   8. **GELU backward from the stored `tanh`**: it equals the recomputing
//!      backward bit for bit and costs ≤ 0.5× the GELU forward per element,
//!   9. **the 512-bit family**: where AVX-512F is present, at
//!      `engine_tokens`' expert shapes its `nn`, `nt` and `tn` outputs equal
//!      the 256-bit tile's bit for bit and the three together run at ≥ 1.2×
//!      the 256-bit tile's GFLOP/s,
//!  10. **the 16-column panel**: there too, at `trainer_lm`'s n = 16 router
//!      (1024×64×16) and attention (32×32×16) shapes — one 16-column panel,
//!      the 512-bit family's masked tile — its `nn`, `nt` and `tn` outputs
//!      equal the 256-bit tile's bit for bit and the three together run at
//!      ≥ 1.1× the 256-bit tile's GFLOP/s,
//!  11. **16 lanes**: there too, the router `nn` at 1024×64×4 — all masked
//!      column edge — equals the `Avx2` family's scalar edge bit for bit and
//!      runs ≥ 4× faster, and `gelu_tanh_slice` on 16 lanes equals the
//!      8-lane encoding bit for bit and runs ≥ 1.3× faster. A CPU without
//!      AVX-512F prints that it skipped 9 to 11.
//!  12. **binary16 slots**: at the skinny expert shapes a binary16-slot
//!      expert's forward equals the f32 expert on the decoded weights bit
//!      for bit (`nn`), and its two `nt` GEMMs (`dY·W2ᵀ`, `dPre·W1ᵀ`) equal
//!      the one FMA chain per element on an x86 family (the f32 `nt` on the
//!      decoded weights on the scalar one); its whole backward equals the
//!      f32 expert's, its binary16 gradient the f32 expert's narrowed. No
//!      speed floor.
//!  13. **binary16 `tn`**: at `engine_params`' reductions 4 … 16 the
//!      binary16 write of a slot gradient equals the f32 write-mode `tn`
//!      narrowed under the same exponent, bit for bit, and its cold time
//!      summed over those shapes is ≤ 1.0× the f32 write's on the active
//!      family.
//!  14. **attention core**: at `small_sim`'s geometry the fused attention
//!      core's `O`, `dQ`, `dK` and `dV` equal the per-head GEMM
//!      composition's bit for bit, and on an x86 family its forward and its
//!      backward each run ≥ 1.3× faster than the composition's.

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use symi_bench::{bench, group};
use symi_model::expert::ExpertFfn;
use symi_model::ModelConfig;
use symi_telemetry::json::{Obj, Value};
use symi_tensor::kernels::{self, naive, SimdPath};
use symi_tensor::ops::{
    causal_softmax_in_place, gelu_backward_from_tanh_into, gelu_into, softmax_rows_backward_into,
    softmax_rows_into,
};
use symi_tensor::rng::StdRng;
use symi_tensor::{
    half, init, pool, vmath, AdamConfig, AdamShard, AdamState, AttentionCore, Dest, Grad,
    HalfMatrix, Matrix, ScaledHalf,
};

/// (label, m, k, n): `out[m×n] = a[m×k] · b[k×n]`.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("small_sim_ffn_up/64x64x128", 64, 64, 128),
    ("d256/128x256x256", 128, 256, 256),
    ("gpt_small_attn_proj/128x768x768", 128, 768, 768),
    ("gpt_small_ffn_up/128x768x3072", 128, 768, 3072),
    ("gpt_small_ffn_down/128x3072x768", 128, 3072, 768),
];

const THREADS: &[usize] = &[1, 2, 4, 8];

fn inputs(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    let a = Matrix::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.001).sin());
    let b = Matrix::from_fn(k, n, |r, c| ((r + 2 * c) as f32 * 0.002).cos());
    (a, b)
}

fn gflops(m: usize, k: usize, n: usize, ns: f64) -> f64 {
    (2 * m * n * k) as f64 / ns
}

fn bench_shapes() -> Value {
    let mut rows = Vec::new();
    for &(label, m, k, n) in SHAPES {
        group(label);
        let (a, b) = inputs(m, k, n);
        let mut out = Matrix::zeros(m, n);

        let naive_ns = bench(&format!("{label}/naive"), || naive::matmul(&a, &b)[(0, 0)]).min_ns;

        let mut row = Obj::new();
        row.set("shape", Value::str(label));
        row.set("m", Value::u64(m as u64));
        row.set("k", Value::u64(k as u64));
        row.set("n", Value::u64(n as u64));
        row.set("naive_ns", Value::Num(naive_ns));
        row.set("naive_gflops", Value::Num(gflops(m, k, n, naive_ns)));

        // The thread sweep and the forced-scalar run are INTERLEAVED: each
        // rep measures every configuration once before moving on, and mins
        // accumulate per configuration. On a shared
        // (frequency-throttled) runner a slow window then degrades all
        // configurations equally instead of whichever one it landed on,
        // so the speedup/uplift ratios stay meaningful.
        const REPS: usize = 7;
        let active = kernels::active_path();
        let mut thread_ns = vec![f64::INFINITY; THREADS.len()];
        let mut scalar_ns = f64::INFINITY;
        a.matmul_into(&b, &mut out); // warm caches and the pool
        for _ in 0..REPS {
            for (i, &t) in THREADS.iter().enumerate() {
                pool::set_threads(t);
                let t0 = Instant::now();
                a.matmul_into(&b, &mut out);
                thread_ns[i] = thread_ns[i].min(t0.elapsed().as_nanos() as f64);
            }
            pool::set_threads(1);
            kernels::force_simd_path(kernels::SimdPath::Scalar);
            let t0 = Instant::now();
            a.matmul_into(&b, &mut out);
            scalar_ns = scalar_ns.min(t0.elapsed().as_nanos() as f64);
            kernels::force_simd_path(active);
        }

        let single_ns = thread_ns[0];
        let mut by_threads = Vec::new();
        for (i, &t) in THREADS.iter().enumerate() {
            let mut tr = Obj::new();
            tr.set("threads", Value::u64(t as u64));
            tr.set("blocked_ns", Value::Num(thread_ns[i]));
            tr.set("gflops", Value::Num(gflops(m, k, n, thread_ns[i])));
            tr.set("speedup_vs_naive", Value::Num(naive_ns / thread_ns[i]));
            by_threads.push(Value::Obj(tr));
        }
        row.set("blocked", Value::Arr(by_threads));
        row.set("single_thread_speedup", Value::Num(naive_ns / single_ns));

        // Forced-scalar run of the same blocked kernel (1 thread) — the
        // SIMD uplift is measured within one run so a throttled shared
        // runner can't skew the ratio.
        row.set("scalar_ns", Value::Num(scalar_ns));
        row.set("scalar_gflops", Value::Num(gflops(m, k, n, scalar_ns)));
        row.set("simd_uplift", Value::Num(scalar_ns / single_ns));

        println!(
            "{label}: naive {:.2} GFLOP/s, scalar(1t) {:.2} GFLOP/s, blocked(1t) {:.2} GFLOP/s \
             ({:.2}x naive, {:.2}x scalar)",
            gflops(m, k, n, naive_ns),
            gflops(m, k, n, scalar_ns),
            gflops(m, k, n, single_ns),
            naive_ns / single_ns,
            scalar_ns / single_ns,
        );
        rows.push(Value::Obj(row));
    }
    Value::Arr(rows)
}

/// (label, rows, cols): the repository benchmark's expert batches —
/// `engine_tokens` feeds a slot ≈240 rows at d_ff 256, `engine_params`
/// ≈32 rows at d_ff 1024.
const ACT_SHAPES: &[(&str, usize, usize)] =
    &[("engine_tokens/240x256", 240, 256), ("engine_params/32x1024", 32, 1024)];

/// The in-situ expert shape of `engine_tokens`: (rows, d_model, d_ff).
const EXPERT_SHAPE: (usize, usize, usize) = (240, 64, 256);

/// The pre-vector-math activation loops (libm `tanhf`/`expf` per element),
/// kept only here as the speed reference.
mod libm_ref {
    use symi_tensor::Matrix;

    const C: f32 = 0.797_884_6;

    pub fn gelu(x: &Matrix, out: &mut Matrix) {
        out.resize_to(x.rows(), x.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = 0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh());
        }
    }

    pub fn gelu_backward(x: &Matrix, dy: &Matrix, dx: &mut Matrix) {
        dx.resize_to(x.rows(), x.cols());
        for ((o, &v), &g) in dx.as_mut_slice().iter_mut().zip(x.as_slice()).zip(dy.as_slice()) {
            let t = (C * (v + 0.044715 * v * v * v)).tanh();
            let slope = 0.5 * v * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * v * v);
            *o = g * (0.5 * (1.0 + t) + slope);
        }
    }

    pub fn softmax(x: &Matrix, out: &mut Matrix) {
        out.resize_to(x.rows(), x.cols());
        for r in 0..x.rows() {
            let max = x.row(r).iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let row = out.row_mut(r);
            let mut sum = 0.0;
            for (o, &v) in row.iter_mut().zip(x.row(r)) {
                *o = (v - max).exp();
                sum += *o;
            }
            let inv = 1.0 / sum;
            row.iter_mut().for_each(|v| *v *= inv);
        }
    }
}

/// GELU′ as the backward computed it before it read the stored term: `tanh`
/// re-evaluated from the clamped forward input, on `vmath`'s `tanh`.
fn recomputed_gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x = x.clamp(-64.0, 64.0);
    let t = symi_tensor::vmath::tanh(C * (x + 0.044715 * x * x * x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Pre-activations, their stored GELU `tanh` terms, and an upstream gradient.
fn act_inputs(rows: usize, cols: usize) -> (Matrix, Matrix, Matrix) {
    // Pre-activations spread over ±4: both tanh branches, no saturation.
    let x = Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.37).sin() * 4.0);
    let t = Matrix::from_fn(rows, cols, |r, c| symi_tensor::vmath::gelu_tanh(x[(r, c)]));
    let dy = Matrix::from_fn(rows, cols, |r, c| ((r + 3 * c) as f32 * 0.11).cos());
    (x, t, dy)
}

/// Min-of-reps wall time of each closure, **interleaved**: every rep runs
/// every closure once, so a throttled window degrades all of them alike.
fn interleaved_min_ns(reps: usize, fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; fs.len()];
    for _ in 0..reps {
        for (f, b) in fs.iter_mut().zip(&mut best) {
            let t = Instant::now();
            f();
            *b = b.min(t.elapsed().as_nanos() as f64);
        }
    }
    best
}

/// Copies of each destination and B operand a cold row cycles through: at
/// `engine_params`' shapes four 1 MB gradients or weights overflow a 2 MB
/// L2, so each call finds its own in L3 or memory.
const COLD_COPIES: usize = 4;

/// Min-of-reps mean ns per call of each closure on copies
/// `0..COLD_COPIES`, interleaved as [`interleaved_min_ns`]: every rep calls
/// every closure on every copy in turn.
fn interleaved_cold_ns(reps: usize, fs: &mut [&mut dyn FnMut(usize)]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; fs.len()];
    for _ in 0..reps {
        for (f, b) in fs.iter_mut().zip(&mut best) {
            let t = Instant::now();
            (0..COLD_COPIES).for_each(&mut **f);
            *b = b.min(t.elapsed().as_nanos() as f64 / COLD_COPIES as f64);
        }
    }
    best
}

/// The x86 families this CPU has, with their column labels: the cold rows
/// run on each.
fn x86_families() -> Vec<(SimdPath, &'static str)> {
    [(SimdPath::Avx2, "avx2"), (SimdPath::Avx512, "avx512")]
        .into_iter()
        .filter(|(p, _)| p.supported())
        .collect()
}

/// Runs `f` with the dispatch forced to `path`.
fn on_path(path: SimdPath, f: impl FnOnce()) {
    let active = kernels::active_path();
    kernels::force_simd_path(path);
    f();
    kernels::force_simd_path(active);
}

/// Runs `f` with the dispatch forced to the scalar family.
fn forced_scalar(f: impl FnOnce()) {
    on_path(SimdPath::Scalar, f)
}

/// Runs `f` on the 8-lane vector math: the `Avx2` family where the CPU has
/// it, else whatever is active.
fn on_8_lanes(f: impl FnOnce()) {
    if SimdPath::Avx2.supported() {
        on_path(SimdPath::Avx2, f)
    } else {
        f()
    }
}

/// Lanes of the active family's vector math.
fn vector_lanes() -> u64 {
    if kernels::active_path() == SimdPath::Avx512 {
        16
    } else {
        8
    }
}

/// `[vector, forced scalar, libm, 8-lane vector]` ns per element of one
/// activation op; `vector` runs at the active family's width.
fn act_row(elems: usize, ns: &[f64]) -> Value {
    let mut o = Obj::new();
    o.set("vector", Value::Num(ns[0] / elems as f64));
    o.set("vector_lanes", Value::u64(vector_lanes()));
    o.set("vector_8_lanes", Value::Num(ns[3] / elems as f64));
    o.set("scalar", Value::Num(ns[1] / elems as f64));
    o.set("libm", Value::Num(ns[2] / elems as f64));
    o.set("vector_speedup_vs_libm", Value::Num(ns[2] / ns[0]));
    o.set("vector_speedup_vs_8_lanes", Value::Num(ns[3] / ns[0]));
    Value::Obj(o)
}

fn bench_activations() -> Value {
    const REPS: usize = 25;
    pool::set_threads(1);
    let mut rows_out = Vec::new();
    for &(label, rows, cols) in ACT_SHAPES {
        group(label);
        let (x, t, dy) = act_inputs(rows, cols);
        let (mut a, mut b, mut c) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut d = Matrix::zeros(0, 0);
        let fwd = interleaved_min_ns(
            REPS,
            &mut [
                &mut || gelu_into(&x, &mut a),
                &mut || forced_scalar(|| gelu_into(&x, &mut b)),
                &mut || libm_ref::gelu(&x, &mut c),
                &mut || on_8_lanes(|| gelu_into(&x, &mut d)),
            ],
        );
        let bwd = interleaved_min_ns(
            REPS,
            &mut [
                &mut || gelu_backward_from_tanh_into(&x, &t, &dy, &mut a),
                &mut || forced_scalar(|| gelu_backward_from_tanh_into(&x, &t, &dy, &mut b)),
                &mut || libm_ref::gelu_backward(&x, &dy, &mut c),
                &mut || on_8_lanes(|| gelu_backward_from_tanh_into(&x, &t, &dy, &mut d)),
            ],
        );
        let sm = interleaved_min_ns(
            REPS,
            &mut [
                &mut || softmax_rows_into(&x, &mut a),
                &mut || forced_scalar(|| softmax_rows_into(&x, &mut b)),
                &mut || libm_ref::softmax(&x, &mut c),
                &mut || on_8_lanes(|| softmax_rows_into(&x, &mut d)),
            ],
        );
        let elems = rows * cols;
        let mut row = Obj::new();
        row.set("shape", Value::str(label));
        row.set("rows", Value::u64(rows as u64));
        row.set("cols", Value::u64(cols as u64));
        row.set("gelu_fwd_ns_per_elem", act_row(elems, &fwd));
        row.set("gelu_bwd_ns_per_elem", act_row(elems, &bwd));
        row.set("softmax_ns_per_elem", act_row(elems, &sm));
        for (name, ns) in [("gelu_fwd", &fwd), ("gelu_bwd", &bwd), ("softmax", &sm)] {
            println!(
                "{label} {name}: vector ({} lanes) {:.2} ns/elem, 8 lanes {:.2}, scalar {:.2}, \
                 libm {:.2} ({:.1}x)",
                vector_lanes(),
                ns[0] / elems as f64,
                ns[3] / elems as f64,
                ns[1] / elems as f64,
                ns[2] / elems as f64,
                ns[2] / ns[0]
            );
        }
        rows_out.push(Value::Obj(row));
    }
    Value::Arr(rows_out)
}

/// `ExpertFfn` forward and backward at the `engine_tokens` slot shape:
/// whole-call time (GEMMs + bias + GELU + the cached-input copy) against
/// the FLOPs of its 2 forward / 4 backward GEMMs.
fn bench_expert_ffn() -> Value {
    const REPS: usize = 25;
    let (m, d, ff) = EXPERT_SHAPE;
    group(&format!("expert_ffn/{m}x{d}x{ff}"));
    pool::set_threads(1);
    let mut expert = ExpertFfn::new(d, ff, 7);
    let x = Matrix::from_fn(m, d, |r, c| ((r * d + c) as f32 * 0.013).sin());
    let dy = Matrix::from_fn(m, d, |r, c| ((r + 5 * c) as f32 * 0.021).cos() * 0.01);
    let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    expert.forward_into(&x, &mut y);
    let mut fwd_ns = f64::INFINITY;
    let mut bwd_ns = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        expert.forward_into(&x, &mut y);
        fwd_ns = fwd_ns.min(t.elapsed().as_nanos() as f64);
        expert.zero_grad();
        let t = Instant::now();
        expert.backward_into(&dy, Some(&mut dx));
        bwd_ns = bwd_ns.min(t.elapsed().as_nanos() as f64);
    }
    let gemm_flops = (2 * m * d * ff) as f64;
    let mut o = Obj::new();
    o.set("m", Value::u64(m as u64));
    o.set("d_model", Value::u64(d as u64));
    o.set("d_ff", Value::u64(ff as u64));
    o.set("fwd_ns", Value::Num(fwd_ns));
    o.set("bwd_ns", Value::Num(bwd_ns));
    o.set("fwd_gflops", Value::Num(2.0 * gemm_flops / fwd_ns));
    o.set("bwd_gflops", Value::Num(4.0 * gemm_flops / bwd_ns));
    println!(
        "expert_ffn {m}x{d}x{ff}: fwd {:.1} us ({:.1} GFLOP/s), bwd {:.1} us ({:.1} GFLOP/s)",
        fwd_ns / 1e3,
        2.0 * gemm_flops / fwd_ns,
        bwd_ns / 1e3,
        4.0 * gemm_flops / bwd_ns
    );
    Value::Obj(o)
}

/// `engine_params`' expert at the row counts it sees — m = 8 is one slot's
/// share, 16 and 24 a class's two or three co-located slots run as one batch,
/// 32 a rank's whole load: (m, d, ff).
const SKINNY_EXPERT_SHAPES: &[(usize, usize, usize)] =
    &[(8, 256, 1024), (16, 256, 1024), (24, 256, 1024), (32, 256, 1024)];

/// That expert's two parameter-gradient GEMMs, `out[m×n] = a[r×m]ᵀ · b[r×n]`,
/// at the reductions a host's share of a class (4), a slot (8), a class's
/// slots (12 … 24) and a rank (32) see: (r, m, n).
const SKINNY_TN_SHAPES: &[(usize, usize, usize)] = &[
    (4, 256, 1024),
    (8, 256, 1024),
    (12, 256, 1024),
    (16, 256, 1024),
    (24, 256, 1024),
    (32, 256, 1024),
    (4, 1024, 256),
    (8, 1024, 256),
    (12, 1024, 256),
    (16, 1024, 256),
    (24, 1024, 256),
    (32, 1024, 256),
];

fn skinny_tn_inputs(r: usize, m: usize, n: usize) -> (Matrix, Matrix) {
    let a = Matrix::from_fn(r, m, |i, c| ((i * m + c) as f32 * 0.013).sin());
    let b = Matrix::from_fn(r, n, |i, c| ((i + 5 * c) as f32 * 0.021).cos() * 0.01);
    (a, b)
}

/// The exponent a slot's backward narrows `aᵀ·b` under: from the bound
/// `r · max|a| · max|b|`.
fn skinny_tn_exponent(a: &Matrix, b: &Matrix) -> i32 {
    let max = |x: &Matrix| f64::from(half::max_abs(x.as_slice()));
    half::grad_exponent(a.rows() as f64 * max(a) * max(b))
}

/// The reductions at which a binary16 `tn` is held to the f32 one's time:
/// what one host of `engine_params`' classes folds (4 … 16 rows).
fn half_tn_gate_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
    SKINNY_TN_SHAPES.iter().copied().filter(|&(r, _, _)| r <= 16)
}

fn skinny_expert_inputs(m: usize, d: usize) -> (Matrix, Matrix) {
    let x = Matrix::from_fn(m, d, |r, c| ((r * d + c) as f32 * 0.013).sin());
    let dy = Matrix::from_fn(m, d, |r, c| ((r + 5 * c) as f32 * 0.021).cos() * 0.01);
    (x, dy)
}

/// `engine_params`' slot: the f32 expert's weights as binary16, the image
/// the engines' slots hold.
fn binary16_slot(f32_expert: &ExpertFfn) -> ExpertFfn<HalfMatrix> {
    let mut slot = ExpertFfn::zeros(f32_expert.d_model(), f32_expert.d_ff());
    slot.load_flat(&f32_expert.flat_params());
    slot
}

/// Forward, write-mode backward and accumulate-mode backward of one expert
/// call, single-threaded and interleaved, with f32 weights and with the
/// binary16 weights and gradient the engines' slots hold (`f16_*` columns;
/// no accumulate mode: a slot's gradient is written once per step). Three
/// instances of each, so each pass streams its own parameters and gradient
/// the way an engine's four slots evict one another, instead of re-reading a
/// warm one. Bytes are the compulsory parameter-sized streams (activations
/// are cache-resident at these m and left out): forward reads every weight
/// once — 4 B each, or 2 B binary16, biases 4 B either way; backward reads
/// every weight once (the `nt` GEMMs) and writes every gradient element
/// once (4 B, or 2 B binary16) — or, accumulating, reads and writes it.
fn bench_expert_ffn_skinny() -> Value {
    const REPS: usize = 25;
    pool::set_threads(1);
    let mut rows = Vec::new();
    for &(m, d, ff) in SKINNY_EXPERT_SHAPES {
        group(&format!("expert_ffn_skinny/{m}x{d}x{ff}"));
        let (x, dy) = skinny_expert_inputs(m, d);
        let mut experts: Vec<ExpertFfn> = (0..3).map(|_| ExpertFfn::new(d, ff, 7)).collect();
        let mut slots: Vec<ExpertFfn<HalfMatrix>> = experts.iter().map(binary16_slot).collect();
        let [mut y, mut dx_w, mut dx_a, mut hy, mut hdx_w] =
            std::array::from_fn(|_| Matrix::zeros(0, 0));
        for e in &mut experts {
            e.forward_into(&x, &mut y);
        }
        for e in &mut slots {
            e.forward_into(&x, &mut hy);
        }
        let [fwd, write, acc] = &mut experts[..] else { unreachable!("three experts") };
        let [h_fwd, h_write, _] = &mut slots[..] else { unreachable!("three slots") };
        acc.backward_into(&dy, Some(&mut dx_a)); // from here on it accumulates
        let (f32_bytes, f16_bytes) = (fwd.param_bytes() as f64, h_fwd.param_bytes() as f64);
        let (grad_bytes, f16_grad_bytes) = (fwd.grad_bytes() as f64, h_fwd.grad_bytes() as f64);
        let ns = interleaved_min_ns(
            REPS,
            &mut [
                &mut || fwd.forward_into(&x, &mut y),
                &mut || {
                    write.zero_grad();
                    write.backward_into(&dy, Some(&mut dx_w))
                },
                &mut || acc.backward_into(&dy, Some(&mut dx_a)),
                &mut || h_fwd.forward_into(&x, &mut hy),
                &mut || {
                    h_write.zero_grad();
                    h_write.backward_into(&dy, Some(&mut hdx_w))
                },
            ],
        );
        let gemm_flops = (2 * m * d * ff) as f64;
        let mut o = Obj::new();
        o.set("m", Value::u64(m as u64));
        o.set("d_model", Value::u64(d as u64));
        o.set("d_ff", Value::u64(ff as u64));
        // A binary16 slot's gradient is written once per backward, never
        // accumulated: its rows have no `bwd_acc` column.
        let columns =
            [("", &ns[..3], f32_bytes, grad_bytes), ("f16_", &ns[3..], f16_bytes, f16_grad_bytes)];
        for (prefix, ns, weight_bytes, grad_bytes) in columns {
            let passes = [
                ("fwd", 2.0 * gemm_flops, weight_bytes),
                ("bwd_write", 4.0 * gemm_flops, weight_bytes + grad_bytes),
                ("bwd_acc", 4.0 * gemm_flops, weight_bytes + 2.0 * grad_bytes),
            ];
            for ((name, flops, bytes), &ns) in passes.into_iter().zip(ns) {
                let name = format!("{prefix}{name}");
                o.set(&format!("{name}_ns"), Value::Num(ns));
                o.set(&format!("{name}_gflops"), Value::Num(flops / ns));
                o.set(&format!("{name}_bytes_per_ns"), Value::Num(bytes / ns));
                println!(
                    "expert_ffn_skinny {m}x{d}x{ff} {name}: {:.1} us, {:.1} GFLOP/s, {:.1} B/ns",
                    ns / 1e3,
                    flops / ns,
                    bytes / ns
                );
            }
        }
        rows.push(Value::Obj(o));
    }
    Value::Arr(rows)
}

/// What class-major execution removes per class with three co-located slots,
/// at `engine_params`' shape: three (m = 8 forward + write-mode backward),
/// the two sibling folds of §4.1's intra-rank step and three decodes of the
/// received fp16 weights, against one m = 24 forward + write-mode backward
/// and one decode. Same rows, same FLOPs; the difference is the two extra
/// passes over the weights each way, the folds and the decodes.
fn bench_class_major() -> Value {
    const REPS: usize = 25;
    const SLOTS: usize = 3;
    let (m, d, ff) = SKINNY_EXPERT_SHAPES[0];
    pool::set_threads(1);
    group(&format!("class_major/{SLOTS}x{m}_vs_{}x{d}x{ff}", SLOTS * m));
    let (x, dy) = skinny_expert_inputs(SLOTS * m, d);
    let part = |of: &Matrix, slot: usize| Matrix::from_fn(m, d, |r, c| of[(slot * m + r, c)]);
    let parts: Vec<(Matrix, Matrix)> = (0..SLOTS).map(|s| (part(&x, s), part(&dy, s))).collect();
    let mut slots: Vec<ExpertFfn> = (0..SLOTS).map(|_| ExpertFfn::new(d, ff, 7)).collect();
    let mut merged = ExpertFfn::new(d, ff, 7);
    let mut wire = vec![0u16; merged.param_count()];
    half::encode(&merged.flat_params(), &mut wire);
    let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut y_m, mut dx_m) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let ns = interleaved_min_ns(
        REPS,
        &mut [
            &mut || {
                for (slot, (x, dy)) in slots.iter_mut().zip(&parts) {
                    slot.forward_into(x, &mut y);
                    slot.zero_grad();
                    slot.backward_into(dy, Some(&mut dx));
                }
                let (rep, siblings) = slots.split_first_mut().expect("slots");
                for sibling in siblings.iter_mut() {
                    for (r, v) in rep.flat_grads_mut().iter_mut().zip(sibling.flat_grads()) {
                        *r += v;
                    }
                }
                slots.iter_mut().for_each(|slot| slot.load_f16_at(0, &wire));
            },
            &mut || {
                merged.forward_into(&x, &mut y_m);
                merged.zero_grad();
                merged.backward_into(&dy, Some(&mut dx_m));
                merged.load_f16_at(0, &wire);
            },
        ],
    );
    println!(
        "class_major: {SLOTS} x m{m} + {} folds + {SLOTS} decodes {:.1} us, 1 x m{} + 1 decode \
         {:.1} us ({:.2}x)",
        SLOTS - 1,
        ns[0] / 1e3,
        SLOTS * m,
        ns[1] / 1e3,
        ns[0] / ns[1]
    );
    let mut o = Obj::new();
    o.set("slots", Value::u64(SLOTS as u64));
    o.set("m_per_slot", Value::u64(m as u64));
    o.set("d_model", Value::u64(d as u64));
    o.set("d_ff", Value::u64(ff as u64));
    o.set("per_slot_ns", Value::Num(ns[0]));
    o.set("class_major_ns", Value::Num(ns[1]));
    o.set("per_slot_over_class_major", Value::Num(ns[0] / ns[1]));
    Value::Obj(o)
}

/// The parameter-gradient GEMM alone at the same shapes, overwriting its
/// destination against accumulating into it: warm on the active family,
/// then cold on each x86 family, the cold B operand and destination cycled
/// over [`COLD_COPIES`] copies. Bytes: the destination written once — or
/// read and written — plus both operands read once.
fn bench_gemm_tn_skinny() -> Value {
    const REPS: usize = 25;
    pool::set_threads(1);
    let mut rows = Vec::new();
    for &(r, m, n) in SKINNY_TN_SHAPES {
        group(&format!("gemm_tn_skinny/r{r}_{m}x{n}"));
        let (a, b) = skinny_tn_inputs(r, m, n);
        let s = skinny_tn_exponent(&a, &b);
        let (mut out_w, mut out_a) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let mut out_h = vec![0u16; m * n];
        let ns = interleaved_min_ns(
            REPS,
            &mut [
                &mut || a.matmul_tn_slice(&b, &mut out_w, false),
                &mut || a.matmul_tn_slice(&b, &mut out_a, true),
                &mut || a.matmul_tn_half(&b, &mut out_h, s),
            ],
        );
        let flops = (2 * r * m * n) as f64;
        let operand_bytes = (4 * r * (m + n)) as f64;
        let out_bytes = (4 * m * n) as f64;
        let mut o = Obj::new();
        o.set("r", Value::u64(r as u64));
        o.set("m", Value::u64(m as u64));
        o.set("n", Value::u64(n as u64));
        let mut set = |name: &str, ns: f64, bytes: f64| {
            o.set(&format!("{name}_ns"), Value::Num(ns));
            o.set(&format!("{name}_gflops"), Value::Num(flops / ns));
            o.set(&format!("{name}_bytes_per_ns"), Value::Num(bytes / ns));
        };
        let (write_bytes, acc_bytes) = (operand_bytes + out_bytes, operand_bytes + 2.0 * out_bytes);
        let half_bytes = operand_bytes + out_bytes / 2.0;
        set("write", ns[0], write_bytes);
        set("acc", ns[1], acc_bytes);
        set("half_write", ns[2], half_bytes);
        let mut line = format!(
            "gemm_tn_skinny r{r} {m}x{n}: write {:.1} us, accumulate {:.1} us ({:.2}x), \
             binary16 write {:.1} us ({:.2}x)",
            ns[0] / 1e3,
            ns[1] / 1e3,
            ns[1] / ns[0],
            ns[2] / 1e3,
            ns[2] / ns[0]
        );
        let families = x86_families();
        let cold = cold_tn_ns(&a, &b, s, &families, REPS);
        for (&(_, fam), ns) in families.iter().zip(cold.chunks(3)) {
            set(&format!("cold_{fam}_write"), ns[0], write_bytes);
            set(&format!("cold_{fam}_acc"), ns[1], acc_bytes);
            set(&format!("cold_{fam}_half_write"), ns[2], half_bytes);
            line += &format!(
                "; cold {fam} write {:.1} us, accumulate {:.1} us, binary16 write {:.1} us",
                ns[0] / 1e3,
                ns[1] / 1e3,
                ns[2] / 1e3
            );
        }
        println!("{line}");
        rows.push(Value::Obj(o));
    }
    Value::Arr(rows)
}

/// Cold ns per call of `aᵀ·b` on each of `families`, interleaved: f32
/// write, f32 accumulate and binary16 write (under exponent `s`) per
/// family, the B operand and the destination cycled over [`COLD_COPIES`]
/// copies.
fn cold_tn_ns(
    a: &Matrix,
    b: &Matrix,
    s: i32,
    families: &[(SimdPath, &str)],
    reps: usize,
) -> Vec<f64> {
    let (m, n) = (a.cols(), b.cols());
    // One set of destinations per (family, mode); the B copies are shared.
    let bs: Vec<Matrix> = (0..COLD_COPIES).map(|_| b.clone()).collect();
    let mut outs = vec![vec![vec![0.0f32; m * n]; COLD_COPIES]; 2 * families.len()];
    let mut halves = vec![vec![vec![0u16; m * n]; COLD_COPIES]; families.len()];
    let mut runs: Vec<Box<dyn FnMut(usize) + '_>> = Vec::new();
    for ((&(path, _), outs), halves) in families.iter().zip(outs.chunks_mut(2)).zip(&mut halves) {
        let [write, acc] = outs else { unreachable!("two f32 modes") };
        let bs = &bs;
        runs.push(Box::new(move |c| {
            on_path(path, || a.matmul_tn_slice(&bs[c], &mut write[c], false))
        }));
        runs.push(Box::new(move |c| {
            on_path(path, || a.matmul_tn_slice(&bs[c], &mut acc[c], true))
        }));
        runs.push(Box::new(move |c| on_path(path, || a.matmul_tn_half(&bs[c], &mut halves[c], s))));
    }
    let mut fs: Vec<&mut dyn FnMut(usize)> = runs.iter_mut().map(|f| &mut **f as _).collect();
    interleaved_cold_ns(reps, &mut fs)
}

/// (group, m, k, n) of the layout rows.
const LAYOUT_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("engine_tokens_expert", 256, 64, 256),
    ("engine_tokens_expert", 256, 256, 64),
    ("trainer_lm_attention_head", 32, 16, 32),
    ("trainer_lm_projection_grad", 64, 1024, 64),
    ("engine_params_expert", 8, 256, 1024),
    ("engine_params_expert", 16, 256, 1024),
    ("engine_params_expert", 24, 256, 1024),
    ("engine_params_expert", 32, 256, 1024),
    ("engine_params_grad", 256, 8, 1024),
    ("engine_params_grad", 256, 12, 1024),
    ("engine_params_grad", 256, 16, 1024),
    ("engine_params_grad", 256, 24, 1024),
    ("engine_tokens_router", 1024, 64, 4),
    ("engine_params_router", 32, 256, 4),
];

/// The router GEMM of `engine_tokens` (m, k, n): 1024 tokens per rank, d_model
/// 64, four classes — fewer columns than a panel, so all column edge.
const ROUTER_SHAPE: (usize, usize, usize) = (1024, 64, 4);

/// The kernel `nn`, `nt` and `tn` all run at n columns on the active path:
/// the loop nest's 512-bit or 256-bit register tile — or, under 16 columns,
/// its column edge: the masked 16-lane kernel on `Avx512`, scalar loops on
/// `Avx2`.
fn layout_kernel(n: usize) -> &'static str {
    match (kernels::active_path(), n < 16) {
        (SimdPath::Scalar, _) => "scalar",
        (SimdPath::Avx2, false) => "tile256",
        (SimdPath::Avx2, true) => "edge_scalar",
        (SimdPath::Avx512, false) => "tile512",
        (SimdPath::Avx512, true) => "edge512_masked",
    }
}

/// The three layouts' operands for one m×k×n product.
struct LayoutInputs {
    a: Matrix,
    b: Matrix,
    bt: Matrix,
    at: Matrix,
}

fn layout_inputs(m: usize, k: usize, n: usize) -> LayoutInputs {
    let (a, b) = inputs(m, k, n);
    LayoutInputs { bt: b.transpose(), at: a.transpose(), a, b }
}

/// Layout `l` (0 `nn`, 1 `nt`, 2 `tn`) of the product, into `out`.
fn run_layout(x: &LayoutInputs, l: usize, out: &mut Matrix) {
    match l {
        0 => x.a.matmul_into(&x.b, out),
        1 => x.a.matmul_nt_into(&x.bt, out),
        _ => x.at.matmul_tn_into(&x.b, out),
    }
}

/// Min-of-reps `[nn, nt, tn]` ns of one product, interleaved, one thread.
fn layout_ns(x: &LayoutInputs, reps: usize) -> Vec<f64> {
    pool::set_threads(1);
    let (mut o1, mut o2, mut o3) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    interleaved_min_ns(
        reps,
        &mut [&mut || run_layout(x, 0, &mut o1), &mut || run_layout(x, 1, &mut o2), &mut || {
            run_layout(x, 2, &mut o3)
        }],
    )
}

/// The cold columns of one layout row on each x86 family: `nn`, `nt` and
/// `tn` as in the warm columns, plus `nn` over the binary16 B an engine's
/// slot holds (`nn_f16`), each cycling [`COLD_COPIES`] copies of its B
/// operand and of its destination. Returns the row's printed summary.
fn cold_layouts(x: &LayoutInputs, flops: f64, o: &mut Obj) -> String {
    const REPS: usize = 25;
    const LAYOUTS: [&str; 4] = ["nn", "nn_f16", "nt", "tn"];
    pool::set_threads(1);
    let families = x86_families();
    let copies = |b: &Matrix| -> Vec<Matrix> { (0..COLD_COPIES).map(|_| b.clone()).collect() };
    let (b, bt) = (copies(&x.b), copies(&x.bt));
    let half: Vec<HalfMatrix> = (0..COLD_COPIES).map(|_| HalfMatrix::from_f32(&x.b)).collect();
    let mut outs = vec![vec![Matrix::zeros(0, 0); COLD_COPIES]; LAYOUTS.len() * families.len()];
    let mut runs: Vec<_> = (outs.iter_mut().enumerate())
        .map(|(i, outs)| {
            let (path, l, b, bt, half) =
                (families[i / LAYOUTS.len()].0, i % LAYOUTS.len(), &b, &bt, &half);
            move |c: usize| {
                on_path(path, || match l {
                    0 => x.a.matmul_into(&b[c], &mut outs[c]),
                    1 => kernels::gemm_nn(&x.a, &half[c], &mut outs[c], false, None),
                    2 => x.a.matmul_nt_into(&bt[c], &mut outs[c]),
                    _ => x.at.matmul_tn_into(&b[c], &mut outs[c]),
                })
            }
        })
        .collect();
    let mut fs: Vec<&mut dyn FnMut(usize)> =
        runs.iter_mut().map(|f| f as &mut dyn FnMut(usize)).collect();
    let ns = interleaved_cold_ns(REPS, &mut fs);
    let mut line = String::new();
    for (&(_, fam), ns) in families.iter().zip(ns.chunks(LAYOUTS.len())) {
        line += &format!("; cold {fam}");
        for (name, &t) in LAYOUTS.iter().zip(ns) {
            o.set(&format!("cold_{fam}_{name}_ns"), Value::Num(t));
            o.set(&format!("cold_{fam}_{name}_gflops"), Value::Num(flops / t));
            line += &format!(" {name} {:.1}", flops / t);
        }
    }
    line
}

/// Min-of-reps ns of `[nn, nt, tn]` on the 256-bit family, then the same
/// on the 512-bit one — all six interleaved, one thread — and whether each
/// layout's two outputs are equal bit for bit. Needs AVX-512F.
fn tile_width_ns(x: &LayoutInputs, reps: usize) -> ([f64; 6], bool) {
    pool::set_threads(1);
    let mut outs = vec![Matrix::zeros(0, 0); 6];
    let mut best = [f64::INFINITY; 6];
    for _ in 0..reps {
        for (c, (out, b)) in outs.iter_mut().zip(&mut best).enumerate() {
            let path = if c < 3 { SimdPath::Avx2 } else { SimdPath::Avx512 };
            on_path(path, || {
                let t = Instant::now();
                run_layout(x, c % 3, out);
                *b = b.min(t.elapsed().as_nanos() as f64);
            });
        }
    }
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let same = (3..6).all(|c| bits(&outs[c]) == bits(&outs[c % 3]));
    (best, same)
}

/// (group, m, k, n) of the tile-width rows: `engine_tokens`' two expert
/// GEMMs, `trainer_lm`'s LM head and one of its attention projections (the
/// 12×32 tile on the 512-bit family), and `trainer_lm`'s n = 16 router and
/// the per-head attention GEMMs' shape (one 16-column panel: the masked
/// tile).
const TILE_WIDTH_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("engine_tokens_expert", 256, 64, 256),
    ("engine_tokens_expert", 256, 256, 64),
    ("trainer_lm_lm_head", 1024, 64, 256),
    ("trainer_lm_projection", 1024, 64, 64),
    ("trainer_lm_router", 1024, 64, 16),
    ("trainer_lm_attention", 32, 32, 16),
];

/// The 256-bit family against the 512-bit one, per layout, at the shapes
/// where its 12×32 tile or its masked 16-column tile carries the GEMM
/// FLOPs. Empty without AVX-512F.
fn bench_tile_widths() -> Value {
    const REPS: usize = 40;
    let mut rows = Vec::new();
    if !SimdPath::Avx512.supported() {
        println!("tile widths: this CPU lacks AVX-512F, so there is no 512-bit row");
        return Value::Arr(rows);
    }
    for &(label, m, k, n) in TILE_WIDTH_SHAPES {
        group(&format!("tile_widths/{label}/{m}x{k}x{n}"));
        let (ns, same) = tile_width_ns(&layout_inputs(m, k, n), REPS);
        let flops = (2 * m * k * n) as f64;
        let mut o = Obj::new();
        o.set("group", Value::str(label));
        o.set("m", Value::u64(m as u64));
        o.set("k", Value::u64(k as u64));
        o.set("n", Value::u64(n as u64));
        let mut line = String::new();
        for (l, name) in ["nn", "nt", "tn"].iter().enumerate() {
            let [g256, g512] = [ns[l], ns[3 + l]].map(|t| flops / t);
            o.set(&format!("{name}_gflops_256"), Value::Num(g256));
            o.set(&format!("{name}_gflops_512"), Value::Num(g512));
            o.set(&format!("{name}_512_over_256"), Value::Num(g512 / g256));
            line += &format!(", {name} {g256:.1} -> {g512:.1}");
        }
        o.set("bit_identical", Value::Bool(same));
        println!(
            "tile widths {label} {m}x{k}x{n} (GFLOP/s on 256 -> 512 bits){line}{}",
            if same { ", bit-identical" } else { ", BITS DIFFER" }
        );
        rows.push(Value::Obj(o));
    }
    Value::Arr(rows)
}

fn bench_layouts() -> Value {
    const REPS: usize = 40;
    let mut rows = Vec::new();
    for &(label, m, k, n) in LAYOUT_SHAPES {
        group(&format!("layouts/{label}/{m}x{k}x{n}"));
        let inputs = layout_inputs(m, k, n);
        let ns = layout_ns(&inputs, REPS);
        let kernel = layout_kernel(n);
        let flops = (2 * m * k * n) as f64;
        let mut o = Obj::new();
        o.set("group", Value::str(label));
        o.set("m", Value::u64(m as u64));
        o.set("k", Value::u64(k as u64));
        o.set("n", Value::u64(n as u64));
        for (name, &t) in ["nn", "nt", "tn"].iter().zip(&ns) {
            o.set(&format!("{name}_ns"), Value::Num(t));
            o.set(&format!("{name}_gflops"), Value::Num(flops / t));
        }
        for name in ["nn_kernel", "nt_kernel", "tn_kernel"] {
            o.set(name, Value::str(kernel));
        }
        o.set("nt_over_nn", Value::Num(ns[0] / ns[1]));
        o.set("tn_over_nn", Value::Num(ns[0] / ns[2]));
        let cold = if label == "engine_params_expert" {
            cold_layouts(&inputs, flops, &mut o)
        } else {
            String::new()
        };
        println!(
            "layouts {label} {m}x{k}x{n} ({kernel}): nn {:.1} GFLOP/s, nt {:.1}, tn {:.1}{cold}",
            flops / ns[0],
            flops / ns[1],
            flops / ns[2],
        );
        rows.push(Value::Obj(o));
    }
    Value::Arr(rows)
}

/// (label, parameters): one rank's optimizer shard of one expert class in
/// the repository benchmark's two engine geometries.
const ADAM_SIZES: &[(&str, usize)] =
    &[("engine_params/shard", 262_784), ("engine_tokens/shard", 33_088 / 2)];

/// Weights of the experts' scale and gradients a few orders below them.
fn adam_inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let params = (0..n).map(|i| (i as f32 * 0.37).sin() * 0.06).collect();
    let grads = (0..n).map(|i| (i as f32 * 0.11).cos() * 1e-3).collect();
    (params, grads)
}

/// `{"vector": .., "scalar": .., "vector_speedup": ..}` in ns per element.
fn vector_scalar_pair(elems: usize, vector_ns: f64, scalar_ns: f64) -> Value {
    let mut o = Obj::new();
    o.set("vector", Value::Num(vector_ns / elems as f64));
    o.set("scalar", Value::Num(scalar_ns / elems as f64));
    o.set("vector_speedup", Value::Num(scalar_ns / vector_ns));
    Value::Obj(o)
}

/// One owned chunk's parameter path, both ways, from the same state: the
/// fused step reads a received partial and the host's own gradient where
/// they lie, sums them in registers as it steps — the read-only two-term
/// form the engines run — and publishes into a send buffer and a slot in
/// the same pass; the separate sequence folds the two into a gradient
/// buffer, steps from it into a binary16 shard, and copies that into the
/// send buffer and the slot.
struct WeightPaths {
    part: ScaledHalf,
    own: ScaledHalf,
    sum: Vec<f32>,
    own_widened: Vec<f32>,
    shard: [AdamShard; 2],
    half: Vec<u16>,
    send: [Vec<u16>; 2],
    slot: [Vec<u16>; 2],
}

impl WeightPaths {
    fn new(n: usize) -> Self {
        let (params, own) = adam_inputs(n);
        let part: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin() * 1e-3).collect();
        let shard = AdamShard::new(AdamConfig::default(), 0, &params);
        Self {
            part: ScaledHalf::from_f32(&part),
            own: ScaledHalf::from_f32(&own),
            sum: vec![0.0; n],
            own_widened: vec![0.0; n],
            shard: [shard.clone(), shard],
            half: Vec::new(),
            send: [vec![0; n], vec![0; n]],
            slot: [vec![0; n], vec![0; n]],
        }
    }

    /// `(fused, separate)` steps, to be timed side by side: the two hosts'
    /// binary16 partials widened and summed in the step, or widened and
    /// folded into an f32 buffer first.
    fn steps(&mut self) -> (impl FnMut() + '_, impl FnMut() + '_) {
        let Self { part, own, sum, own_widened, shard: [fused, separate], half, send, slot } = self;
        let [send_f, send_s] = send;
        let [slot_f, slot_s] = slot;
        let (part, own) = (&*part, &*own);
        let fused = move || {
            let n = part.len();
            let outs = &mut [Dest::Half(send_f), Dest::Half(slot_f)];
            fused.begin_step().run(0..n, Grad::Half(&[part.term(0..n), own.term(0..n)]), outs);
        };
        let separate = move || {
            part.term(0..part.len()).widen_into(sum);
            own.term(0..own.len()).widen_into(own_widened);
            for (s, g) in sum.iter_mut().zip(&*own_widened) {
                *s += g;
            }
            separate.step_into(sum, half);
            send_s.copy_from_slice(half);
            slot_s.copy_from_slice(half);
        };
        (fused, separate)
    }

    /// Whether the two paths left the same bits everywhere.
    fn agree(&self) -> bool {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let [f, s] = &self.shard;
        bits(f.master_weights()) == bits(s.master_weights())
            && bits(f.moments().0) == bits(s.moments().0)
            && bits(f.moments().1) == bits(s.moments().1)
            && self.send[0] == self.send[1]
            && self.slot[0] == self.slot[1]
    }
}

fn bench_adam() -> Value {
    const REPS: usize = 15;
    pool::set_threads(1);
    let mut rows = Vec::new();
    for &(label, n) in ADAM_SIZES {
        group(&format!("adam/{label}"));
        let (params, grads) = adam_inputs(n);
        let cfg = AdamConfig::default();
        let (mut state_v, mut shard_v) =
            (AdamState::new(cfg, &params), AdamShard::new(cfg, 0, &params));
        let (mut state_s, mut shard_s) = (state_v.clone(), shard_v.clone());
        let (mut out_v, mut out_s) = (vec![0.0f32; n], vec![0.0f32; n]);
        let (mut half_v, mut half_s) = (Vec::new(), Vec::new());
        let mut ns = interleaved_min_ns(
            REPS,
            &mut [
                &mut || state_v.step(&grads, &mut out_v),
                &mut || forced_scalar(|| state_s.step(&grads, &mut out_s)),
                &mut || shard_v.step_into(&grads, &mut half_v),
                &mut || forced_scalar(|| shard_s.step_into(&grads, &mut half_s)),
            ],
        );
        // The weight path on its own, timed as the smoke gate times it.
        let mut paths = WeightPaths::new(n);
        let (mut fused, mut separate) = paths.steps();
        ns.extend(interleaved_min_ns(REPS, &mut [&mut fused, &mut separate]));
        drop((fused, separate));
        assert!(paths.agree(), "{label}: the fused and the separate weight path differ");
        let mut per_param = Obj::new();
        per_param.set("f32_store", vector_scalar_pair(n, ns[0], ns[1]));
        per_param.set("f16_store", vector_scalar_pair(n, ns[2], ns[3]));
        let mut fused_row = Obj::new();
        fused_row.set("fused", Value::Num(ns[4] / n as f64));
        fused_row.set("separate", Value::Num(ns[5] / n as f64));
        fused_row.set("fused_over_separate", Value::Num(ns[4] / ns[5]));
        per_param.set("weight_path", Value::Obj(fused_row));
        let mut row = Obj::new();
        row.set("shape", Value::str(label));
        row.set("params", Value::u64(n as u64));
        row.set("ns_per_param", Value::Obj(per_param));
        println!(
            "adam {label} ({n}): f32 store vector {:.2} ns/param, scalar {:.2}; \
             f16 store vector {:.2}, scalar {:.2}; weight path fused {:.2}, separate {:.2} \
             ({:.2}x)",
            ns[0] / n as f64,
            ns[1] / n as f64,
            ns[2] / n as f64,
            ns[3] / n as f64,
            ns[4] / n as f64,
            ns[5] / n as f64,
            ns[4] / ns[5]
        );
        rows.push(Value::Obj(row));
    }
    Value::Arr(rows)
}

fn bench_f16_codec() -> Value {
    const REPS: usize = 25;
    pool::set_threads(1);
    let mut rows = Vec::new();
    for &(label, n) in ADAM_SIZES {
        group(&format!("f16_codec/{label}"));
        let (params, _) = adam_inputs(n);
        let (mut enc_v, mut enc_s) = (vec![0u16; n], vec![0u16; n]);
        half::encode(&params, &mut enc_v);
        let wire = enc_v.clone();
        let (mut dec_v, mut dec_s) = (vec![0.0f32; n], vec![0.0f32; n]);
        let ns = interleaved_min_ns(
            REPS,
            &mut [
                &mut || half::encode(&params, &mut enc_v),
                &mut || forced_scalar(|| half::encode(&params, &mut enc_s)),
                &mut || half::decode(&wire, &mut dec_v),
                &mut || forced_scalar(|| half::decode(&wire, &mut dec_s)),
            ],
        );
        let mut row = Obj::new();
        row.set("shape", Value::str(label));
        row.set("elems", Value::u64(n as u64));
        row.set("encode_ns_per_elem", vector_scalar_pair(n, ns[0], ns[1]));
        row.set("decode_ns_per_elem", vector_scalar_pair(n, ns[2], ns[3]));
        println!(
            "f16 codec {label} ({n}): encode vector {:.3} ns/elem, scalar {:.2}; \
             decode vector {:.3}, scalar {:.2}",
            ns[0] / n as f64,
            ns[1] / n as f64,
            ns[2] / n as f64,
            ns[3] / n as f64
        );
        rows.push(Value::Obj(row));
    }
    Value::Arr(rows)
}

/// Assert `got` matches the naive oracle within the kernel tolerance gate:
/// per element, ≤ 8 ULPs apart or within `4·k·ε` of the magnitude bound
/// `|A|·|B|`. The active path may reassociate via FMA; bitwise equality is
/// only promised on the forced-scalar path.
/// The per-(sequence, head) part of `trainer_lm`'s attention as the layer
/// ran it before [`AttentionCore`]: each head's Q, K, V (and `dO`) block
/// copied out, the six per-head GEMMs, the causal softmax
/// ([`causal_softmax_in_place`]) and its backward, and each result block
/// copied back into the whole-batch matrix. The core is timed against it
/// and held to its bits.
struct PerHead {
    seq_len: usize,
    heads: usize,
    probs: Vec<Matrix>,
    /// `[qh, kh, vh, oh, dh, dp, ds]`.
    blocks: [Matrix; 7],
}

/// Copies the `rows × cols` block of `m` at (`row0`, `col0`) into `out`.
fn copy_block(m: &Matrix, row0: usize, rows: usize, col0: usize, cols: usize, out: &mut Matrix) {
    out.resize_to(rows, cols);
    for r in 0..rows {
        out.row_mut(r).copy_from_slice(&m.row(row0 + r)[col0..col0 + cols]);
    }
}

/// Writes `src` into `dst` at (`row0`, `col0`).
fn set_block(dst: &mut Matrix, row0: usize, col0: usize, src: &Matrix) {
    for r in 0..src.rows() {
        dst.row_mut(row0 + r)[col0..col0 + src.cols()].copy_from_slice(src.row(r));
    }
}

impl PerHead {
    fn new(seq_len: usize, heads: usize) -> Self {
        Self {
            seq_len,
            heads,
            probs: Vec::new(),
            blocks: std::array::from_fn(|_| Matrix::zeros(0, 0)),
        }
    }

    fn forward(&mut self, q: &Matrix, k: &Matrix, v: &Matrix, concat: &mut Matrix) {
        let (l, heads) = (self.seq_len, self.heads);
        let dh = q.cols() / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let batch = q.rows() / l;
        self.probs.resize_with(batch * heads, || Matrix::zeros(0, 0));
        concat.resize_to(q.rows(), q.cols());
        let [qh, kh, vh, oh, ..] = &mut self.blocks;
        for b in 0..batch {
            for h in 0..heads {
                copy_block(q, b * l, l, h * dh, dh, qh);
                copy_block(k, b * l, l, h * dh, dh, kh);
                copy_block(v, b * l, l, h * dh, dh, vh);
                let p = &mut self.probs[b * heads + h];
                qh.matmul_nt_into(kh, p);
                causal_softmax_in_place(p, scale);
                p.matmul_into(vh, oh);
                set_block(concat, b * l, h * dh, oh);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn backward(
        &mut self,
        [q, k, v, dout]: [&Matrix; 4],
        dq: &mut Matrix,
        dk: &mut Matrix,
        dv: &mut Matrix,
    ) {
        let (l, heads) = (self.seq_len, self.heads);
        let dh = q.cols() / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        for m in [&mut *dq, &mut *dk, &mut *dv] {
            m.resize_to(q.rows(), q.cols());
        }
        let [qh, kh, vh, oh, dhd, dp, ds] = &mut self.blocks;
        for b in 0..q.rows() / l {
            for h in 0..heads {
                copy_block(dout, b * l, l, h * dh, dh, dhd);
                copy_block(v, b * l, l, h * dh, dh, vh);
                copy_block(q, b * l, l, h * dh, dh, qh);
                copy_block(k, b * l, l, h * dh, dh, kh);
                let p = &self.probs[b * heads + h];
                dhd.matmul_nt_into(vh, dp);
                p.matmul_tn_into(dhd, oh);
                set_block(dv, b * l, h * dh, oh);
                softmax_rows_backward_into(p, dp, ds);
                ds.scale(scale);
                ds.matmul_into(kh, oh);
                set_block(dq, b * l, h * dh, oh);
                ds.matmul_tn_into(qh, oh);
                set_block(dk, b * l, h * dh, oh);
            }
        }
    }
}

/// `trainer_lm`'s attention at `small_sim`'s geometry (32 sequences of 32
/// rows, 4 heads of 16 columns): Q, K, V and `dO`, and both sides'
/// outputs — `[O, dQ, dK, dV]` of the core, then of the per-head GEMMs.
struct AttentionCase {
    ins: [Matrix; 4],
    core: AttentionCore,
    per_head: PerHead,
    outs: [[Matrix; 4]; 2],
}

impl AttentionCase {
    fn new() -> Self {
        let cfg = ModelConfig::small_sim();
        let (rows, d) = (cfg.tokens_per_batch(), cfg.d_model);
        let mut rng = StdRng::seed_from_u64(13);
        let ins = [1.0, 1.0, 1.0, 0.05].map(|std| init::normal(rows, d, std, &mut rng));
        Self {
            ins,
            core: AttentionCore::new(cfg.seq_len, cfg.n_heads),
            per_head: PerHead::new(cfg.seq_len, cfg.n_heads),
            outs: std::array::from_fn(|_| std::array::from_fn(|_| Matrix::zeros(0, 0))),
        }
    }

    fn pairs(&self) -> usize {
        self.ins[0].rows() / self.core.seq_len() * self.core.heads()
    }

    /// Min-of-`reps` ns of `[core forward, core backward, per-head forward,
    /// per-head backward]`, interleaved, one thread, on the active family.
    fn time(&mut self, reps: usize) -> Vec<f64> {
        pool::set_threads(1);
        let Self { ins: [q, k, v, dout], core, per_head, outs: [c, p] } = self;
        let ([co, cq, ck, cv], [po, pq, pk, pv]) = (c, p);
        let ins = [&*q, &*k, &*v, &*dout];
        // Each side's backward reads what its forward cached.
        let (core, per_head) = (RefCell::new(core), RefCell::new(per_head));
        interleaved_min_ns(
            reps,
            &mut [
                &mut || core.borrow_mut().forward(q, k, v, co),
                &mut || core.borrow_mut().backward(q, k, v, dout, cq, ck, cv),
                &mut || per_head.borrow_mut().forward(q, k, v, po),
                &mut || per_head.borrow_mut().backward(ins, pq, pk, pv),
            ],
        )
    }

    /// Whether the two sides' last outputs are equal bit for bit.
    fn same_bits(&self) -> bool {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        self.outs[0].iter().zip(&self.outs[1]).all(|(c, p)| bits(c) == bits(p))
    }
}

/// The attention core against the per-head GEMM composition it replaced:
/// ns per (sequence, head) pair, forward and backward, on the active
/// family at `trainer_lm`'s geometry.
fn bench_attention_core() -> Value {
    // ≈ 0.5 s of reps: a min over a window longer than this host's bursts of
    // outside load.
    const REPS: usize = 200;
    let mut case = AttentionCase::new();
    let pairs = case.pairs();
    group(&format!("attention_core/small_sim/{pairs}_pairs"));
    let ns = case.time(REPS);
    assert!(case.same_bits(), "the attention core's outputs differ from the per-head GEMMs'");
    let per_pair = |t: f64| t / pairs as f64;
    let mut o = Obj::new();
    o.set("group", Value::str("small_sim"));
    o.set("pairs", Value::u64(pairs as u64));
    o.set("fwd_core_ns_per_pair", Value::Num(per_pair(ns[0])));
    o.set("bwd_core_ns_per_pair", Value::Num(per_pair(ns[1])));
    o.set("fwd_per_head_ns_per_pair", Value::Num(per_pair(ns[2])));
    o.set("bwd_per_head_ns_per_pair", Value::Num(per_pair(ns[3])));
    o.set("fwd_speedup", Value::Num(ns[2] / ns[0]));
    o.set("bwd_speedup", Value::Num(ns[3] / ns[1]));
    println!(
        "attention_core small_sim: forward {:.0} ns/pair (per-head GEMMs {:.0}, {:.2}x), \
         backward {:.0} ns/pair (per-head GEMMs {:.0}, {:.2}x), bit-identical",
        per_pair(ns[0]),
        per_pair(ns[2]),
        ns[2] / ns[0],
        per_pair(ns[1]),
        per_pair(ns[3]),
        ns[3] / ns[1],
    );
    Value::Arr(vec![Value::Obj(o)])
}

fn assert_oracle(got: &Matrix, oracle: &Matrix, absbound: &Matrix, k: usize, label: &str) {
    let scale = 4.0 * (k.max(1) as f32) * f32::EPSILON;
    for (i, ((&g, &o), &ab)) in
        got.as_slice().iter().zip(oracle.as_slice()).zip(absbound.as_slice()).enumerate()
    {
        let ulps = kernels::ulp_diff(g, o);
        let tol = scale * ab + f32::MIN_POSITIVE;
        assert!(
            ulps <= 8 || (g - o).abs() <= tol,
            "{label}: element {i} off oracle: got {g:e} want {o:e} ({ulps} ulps, tol {tol:e})"
        );
    }
}

/// Min-of-reps wall time of one blocked GEMM at the current thread count.
fn time_gemm(a: &Matrix, b: &Matrix, out: &mut Matrix, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        a.matmul_into(b, out);
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// CI gate. Its checks, all cheap enough for every PR, each run to its
/// verdict ([`Gates`]) so a failure — a noisy host can fail the scaling one —
/// masks none of the others:
///   correctness — tolerance-gated oracle comparison on the d256 shape;
///   throughput — blocked beats naive on d256;
///   scaling — for every benchmark shape, max-threads must not be >10%
///   slower than 1 thread (min over reps, plus 150 µs absolute grace for
///   scheduler noise on shared runners). The cost-model gate makes small
///   shapes run sequentially regardless of the pool size, so this holds
///   even on single-core runners;
///   activations — vector GELU within `1e-6·max(1, |x|)` of the libm
///   reference at the `engine_tokens` shape, and ≥ 4× faster when the
///   AVX2 path is active (the scalar encoding only has to be correct);
///   optimizer — five Adam steps on the vector path and on the forced
///   scalar path from one state leave identical bits in `(master, m, v)` and
///   in the published binary16 shard, and the vector step is ≥ 4× faster
///   where AVX2+F16C is present; the fused weight path leaves the bits of
///   the separate passes at ≤ 0.85× their time;
///   write mode — at the skinny shapes a `gemm_tn` that overwrites stale
///   values equals zero-fill + accumulate bit for bit, and so does an
///   `ExpertFfn` backward after a lazy `zero_grad` against one after an
///   eager fill;
///   backward layouts — at `engine_tokens`' two expert shapes `nt` and `tn`
///   run at ≥ 0.85× `nn`'s GFLOP/s (min-of-reps, interleaved) when an x86
///   family is active;
///   tile widths — where AVX-512F is present, at the same two shapes the
///   512-bit tile's three layouts equal the 256-bit tile's bit for bit and
///   together run at ≥ 1.2× its GFLOP/s, and at `trainer_lm`'s two n = 16
///   shapes the masked 16-column tile's do at ≥ 1.1×;
///   16 lanes — there too, `engine_tokens`' router `nn` (1024×64×4, all
///   column edge) equals the `Avx2` family's bit for bit at ≥ 4× its speed,
///   and `gelu_tanh_slice` on 16 lanes the 8-lane one at ≥ 1.3×;
///   attention core — at `small_sim`'s geometry the fused core equals the
///   per-head GEMM composition bit for bit, and on an x86 family its
///   forward and its backward each run at ≥ 1.3× the composition's speed.
fn smoke() {
    let reps = 5;
    let max_t = *THREADS.last().unwrap();
    println!("simd path: {}", kernels::simd_path_name());
    let mut gates = Gates::default();

    // Correctness + throughput on the midpoint shape.
    gates.run("1-2 blocked GEMM: the oracle's values, faster than naive", || {
        let (label, m, k, n) = ("d256/128x256x256", 128usize, 256usize, 256usize);
        let (a, b) = inputs(m, k, n);
        let mut out = Matrix::zeros(m, n);
        pool::set_threads(1);
        let mut naive_ns = f64::INFINITY;
        let mut naive_out = Matrix::zeros(m, n);
        for _ in 0..reps {
            let t = Instant::now();
            naive_out = naive::matmul(&a, &b);
            naive_ns = naive_ns.min(t.elapsed().as_nanos() as f64);
        }
        let blocked_ns = time_gemm(&a, &b, &mut out, reps);
        let absbound = naive::abs_matmul(&a, &b);
        assert_oracle(&out, &naive_out, &absbound, k, label);
        println!(
            "smoke {label}: naive {:.2} GFLOP/s, blocked {:.2} GFLOP/s ({:.2}x)",
            gflops(m, k, n, naive_ns),
            gflops(m, k, n, blocked_ns),
            naive_ns / blocked_ns
        );
        assert!(
            blocked_ns <= naive_ns,
            "blocked GEMM slower than naive: {blocked_ns:.0} ns vs {naive_ns:.0} ns"
        );
    });

    // Scaling regression gate over every benchmark shape.
    const GRACE_NS: f64 = 150_000.0;
    gates.run("3 scaling: max threads no slower than 1", || {
        let mut failures = Vec::new();
        for &(label, m, k, n) in SHAPES {
            let (a, b) = inputs(m, k, n);
            let mut out = Matrix::zeros(m, n);
            pool::set_threads(1);
            let t1 = time_gemm(&a, &b, &mut out, reps);
            pool::set_threads(max_t);
            let tmax = time_gemm(&a, &b, &mut out, reps);
            pool::set_threads(1);
            let verdict = if tmax <= 1.10 * t1 + GRACE_NS { "ok" } else { "REGRESSION" };
            println!(
                "scaling {label}: 1t {:.0} ns, {max_t}t {:.0} ns ({:+.1}%) {verdict}",
                t1,
                tmax,
                (tmax / t1 - 1.0) * 100.0
            );
            if verdict != "ok" {
                failures.push(format!("{label}: {t1:.0} ns → {tmax:.0} ns at {max_t} threads"));
            }
        }
        assert!(
            failures.is_empty(),
            "shapes >10% slower at {max_t} threads than at 1 thread:\n  {}",
            failures.join("\n  ")
        );
    });

    // Activation correctness + speed against the libm reference.
    gates.run("4 activations: GELU within 1e-6 of libm, 4x faster", || {
        let (label, rows, cols) = ACT_SHAPES[0];
        let (x, _, _) = act_inputs(rows, cols);
        let (mut got, mut want) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let ns = interleaved_min_ns(
            15,
            &mut [&mut || gelu_into(&x, &mut got), &mut || libm_ref::gelu(&x, &mut want)],
        );
        for ((&g, &w), &xv) in got.as_slice().iter().zip(want.as_slice()).zip(x.as_slice()) {
            let tol = 1e-6 * xv.abs().max(1.0);
            assert!((g - w).abs() <= tol, "{label}: gelu({xv}) = {g:e}, libm {w:e}");
        }
        println!(
            "smoke {label} gelu: vector {:.2} ns/elem, libm {:.2} ns/elem ({:.1}x)",
            ns[0] / (rows * cols) as f64,
            ns[1] / (rows * cols) as f64,
            ns[1] / ns[0]
        );
        if kernels::active_path() != SimdPath::Scalar {
            assert!(
                ns[1] >= 4.0 * ns[0],
                "vector GELU under 4x libm: {:.0} ns vs {:.0} ns",
                ns[0],
                ns[1]
            );
        }
    });

    // GELU backward from the stored tanh: the recomputing backward's bits,
    // at a fraction of the forward's cost.
    gates.run("8 GELU backward from tanh: the recomputing bits, <= 0.5x the forward", || {
        let (label, rows, cols) = ACT_SHAPES[0];
        let (x, t, dy) = act_inputs(rows, cols);
        let (mut fwd, mut bwd) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let ns = interleaved_min_ns(
            15,
            &mut [&mut || gelu_into(&x, &mut fwd), &mut || {
                gelu_backward_from_tanh_into(&x, &t, &dy, &mut bwd)
            }],
        );
        for ((&g, &xv), &d) in bwd.as_slice().iter().zip(x.as_slice()).zip(dy.as_slice()) {
            let want = d * recomputed_gelu_grad(xv);
            assert_eq!(g.to_bits(), want.to_bits(), "{label}: gelu'({xv}) = {g:e}, want {want:e}");
        }
        let ratio = ns[1] / ns[0];
        println!(
            "smoke {label} gelu backward from tanh: {:.2} ns/elem, forward {:.2} ns/elem ({ratio:.2}x)",
            ns[1] / (rows * cols) as f64,
            ns[0] / (rows * cols) as f64,
        );
        assert!(ratio <= 0.5, "GELU backward from tanh over 0.5x the forward: {ratio:.2}x");
    });

    // Adam: vector ≡ scalar bitwise, and faster.
    gates.run("5 Adam: vector = scalar bitwise, 4x faster", || {
        let (label, n) = ADAM_SIZES[0];
        let (params, grads) = adam_inputs(n);
        let mut vector = AdamShard::new(AdamConfig::default(), 0, &params);
        let mut scalar = vector.clone();
        let (mut half_v, mut half_s) = (Vec::new(), Vec::new());
        let ns = interleaved_min_ns(
            5,
            &mut [&mut || vector.step_into(&grads, &mut half_v), &mut || {
                forced_scalar(|| scalar.step_into(&grads, &mut half_s))
            }],
        );
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(half_v, half_s, "{label}: published shards differ");
        assert_eq!(bits(vector.master_weights()), bits(scalar.master_weights()), "{label}: master");
        assert_eq!(bits(vector.moments().0), bits(scalar.moments().0), "{label}: m");
        assert_eq!(bits(vector.moments().1), bits(scalar.moments().1), "{label}: v");
        println!(
            "smoke adam {label}: vector {:.2} ns/param, scalar {:.2} ns/param ({:.1}x), bit-identical",
            ns[0] / n as f64,
            ns[1] / n as f64,
            ns[1] / ns[0]
        );
        if kernels::f16_fast_path() {
            assert!(
                ns[1] >= 4.0 * ns[0],
                "vector Adam under 4x scalar: {:.0} ns vs {:.0} ns",
                ns[0],
                ns[1]
            );
        }
    });

    // The fused weight path ≡ fold + Adam + two copies, bitwise, and cheaper.
    gates.run("5 Adam weight path: fused = fold + Adam + two copies, <= 0.85x", || {
        let (label, n) = ADAM_SIZES[0];
        let mut paths = WeightPaths::new(n);
        let (mut fused, mut separate) = paths.steps();
        let ns = interleaved_min_ns(9, &mut [&mut fused, &mut separate]);
        drop((fused, separate));
        assert!(paths.agree(), "{label}: the fused and the separate weight path differ");
        let ratio = ns[0] / ns[1];
        println!(
            "smoke adam {label} weight path: fused {:.2} ns/param, separate {:.2} ns/param \
             ({ratio:.2}x), bit-identical",
            ns[0] / n as f64,
            ns[1] / n as f64,
        );
        if kernels::f16_fast_path() {
            assert!(ratio <= 0.85, "fused Adam over 0.85x the separate passes: {ratio:.2}x");
        }
    });

    // Write mode ≡ zero-fill + accumulate, bitwise.
    gates.run("6 write mode: zero-fill + accumulate bitwise", || {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &(r, m, n) in SKINNY_TN_SHAPES {
            let (a, b) = skinny_tn_inputs(r, m, n);
            let (mut write, mut zero_acc) = (vec![f32::NAN; m * n], vec![0.0f32; m * n]);
            a.matmul_tn_slice(&b, &mut write, false);
            a.matmul_tn_slice(&b, &mut zero_acc, true);
            assert_eq!(bits(&write), bits(&zero_acc), "gemm_tn r{r} {m}x{n}: write != zero + acc");
        }
        for &(m, d, ff) in SKINNY_EXPERT_SHAPES {
            let (x, dy) = skinny_expert_inputs(m, d);
            let (mut lazy, mut eager) = (ExpertFfn::new(d, ff, 7), ExpertFfn::new(d, ff, 7));
            let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            for e in [&mut lazy, &mut eager] {
                e.forward_into(&x, &mut y);
                e.backward_into(&dy, Some(&mut dx)); // leave stale values behind
            }
            lazy.zero_grad();
            eager.flat_grads_mut().fill(0.0);
            lazy.backward_into(&dy, Some(&mut dx));
            eager.backward_into(&dy, Some(&mut dx));
            assert_eq!(
                bits(lazy.flat_grads()),
                bits(eager.flat_grads()),
                "expert {m}x{d}x{ff}: lazy zero + backward != fill + backward"
            );
        }
        println!("smoke write mode: gemm_tn and ExpertFfn backward equal zero-fill + accumulate");
    });

    // The binary16 write of a slot gradient: the f32 tn narrowed, bit for
    // bit, in no more time than the f32 write it replaces, at the
    // reductions a host of `engine_params`' classes folds. Timed cold on the
    // active family, as the engines' gradients arrive, and summed over the
    // shapes.
    gates.run("13 binary16 tn: narrowed f32 tn bitwise, <= 1.0x the f32 write", || {
        let (mut f32_ns, mut half_ns) = (0.0, 0.0);
        for (r, m, n) in half_tn_gate_shapes() {
            let (a, b) = skinny_tn_inputs(r, m, n);
            let s = skinny_tn_exponent(&a, &b);
            let (mut f32s, mut got) = (vec![0.0f32; m * n], vec![0u16; m * n]);
            a.matmul_tn_slice(&b, &mut f32s, false);
            a.matmul_tn_half(&b, &mut got, s);
            let mut want = vec![0u16; m * n];
            half::narrow(&f32s, s, &mut want);
            assert!(got == want, "tn r{r} {m}x{n}: binary16 write != narrowed f32 write");
            let path = kernels::active_path();
            let ns = cold_tn_ns(&a, &b, s, &[(path, "active")], 9);
            (f32_ns, half_ns) = (f32_ns + ns[0], half_ns + ns[2]);
        }
        let ratio = half_ns / f32_ns;
        println!(
            "smoke binary16 tn: {:.1} us against the f32 write's {:.1} us over r 4..16 \
             ({ratio:.2}x), bit-identical to the narrowed f32 product",
            half_ns / 1e3,
            f32_ns / 1e3
        );
        if kernels::active_path() != SimdPath::Scalar {
            assert!(ratio <= 1.0, "binary16 tn over 1.0x the f32 write: {ratio:.2}x");
        }
    });

    // Binary16 slots: the f32 expert's arithmetic on the decoded weights.
    gates.run("12 binary16 slots: the f32 expert's bits", || {
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // `a · bᵀ`, each element one `mul_add` fold over ascending k — or, on
        // the scalar family, its own `nt` (the mul-then-add fold).
        let nt_oracle = |a: &Matrix, b: &Matrix| {
            if kernels::active_path() == SimdPath::Scalar {
                return a.matmul_nt(b);
            }
            Matrix::from_fn(a.rows(), b.rows(), |i, j| {
                (0..a.cols()).fold(0.0f32, |s, kk| a[(i, kk)].mul_add(b[(j, kk)], s))
            })
        };
        pool::set_threads(1);
        for &(m, d, ff) in SKINNY_EXPERT_SHAPES {
            let label = format!("binary16 slot {m}x{d}x{ff}");
            let (x, dy) = skinny_expert_inputs(m, d);
            let mut slot = binary16_slot(&ExpertFfn::new(d, ff, 7));
            let mut decoded = ExpertFfn::new(d, ff, 0);
            decoded.load_flat(&slot.flat_params());
            assert_eq!(bits(&slot.forward(&x)), bits(&decoded.forward(&x)), "{label}: forward");
            let dpre = Matrix::from_fn(m, ff, |r, c| ((r * ff + c) as f32 * 0.011).sin() * 0.01);
            let (w1, w2) = (slot.w1.to_f32(), slot.w2.to_f32());
            let mut got = Matrix::zeros(0, 0);
            dy.matmul_nt_into(&slot.w2, &mut got);
            assert_eq!(bits(&got), bits(&nt_oracle(&dy, &w2)), "{label}: dY·W2ᵀ");
            dpre.matmul_nt_into(&slot.w1, &mut got);
            assert_eq!(bits(&got), bits(&nt_oracle(&dpre, &w1)), "{label}: dPre·W1ᵀ");
            let (dx_slot, dx_f32) = (slot.backward(&dy), decoded.backward(&dy));
            assert_eq!(bits(&dx_slot), bits(&dx_f32), "{label}: dx");
            // The slot's binary16 gradient is the f32 one narrowed.
            let grad = slot.flat_grads();
            let mut want = vec![0u16; grad.len()];
            half::narrow(decoded.flat_grads(), grad.exp(), &mut want);
            assert_eq!(grad.bits(), &want[..], "{label}: gradient");
        }
        println!(
            "smoke binary16 slots: forward and dx = f32 on the decoded weights, nt = the FMA \
             chain, gradient = the f32 one narrowed, bit for bit"
        );
    });

    // The attention core: the per-head GEMM composition's bits, faster, at
    // `trainer_lm`'s geometry.
    gates.run("14 attention core: the per-head GEMMs' bits, >= 1.3x", || {
        let mut case = AttentionCase::new();
        let pairs = case.pairs() as f64;
        let ns = case.time(60);
        let (fwd, bwd) = (ns[2] / ns[0], ns[3] / ns[1]);
        println!(
            "smoke attention core: forward {:.0} ns/pair ({fwd:.2}x the per-head GEMMs), \
             backward {:.0} ns/pair ({bwd:.2}x)",
            ns[0] / pairs,
            ns[1] / pairs,
        );
        assert!(case.same_bits(), "the core's O, dQ, dK or dV differ from the per-head GEMMs'");
        if kernels::active_path() != SimdPath::Scalar {
            assert!(
                fwd >= 1.3 && bwd >= 1.3,
                "attention core under 1.3x the per-head GEMMs: forward {fwd:.2}x, \
                 backward {bwd:.2}x"
            );
        }
    });

    // The backward layouts at the forward's rate.
    gates.run("7 backward layouts: nt, tn >= 0.85x nn", || {
        for &(label, m, k, n) in LAYOUT_SHAPES.iter().filter(|s| s.0 == "engine_tokens_expert") {
            let ns = layout_ns(&layout_inputs(m, k, n), 15);
            let (nt, tn) = (ns[0] / ns[1], ns[0] / ns[2]);
            println!("smoke layouts {label} {m}x{k}x{n}: nt {nt:.2}x nn, tn {tn:.2}x nn");
            if kernels::active_path() != SimdPath::Scalar {
                assert!(
                    nt >= 0.85 && tn >= 0.85,
                    "{m}x{k}x{n}: backward layouts under 0.85x nn (nt {nt:.2}x, tn {tn:.2}x)"
                );
            }
        }
    });

    // The 512-bit family: the 256-bit tile's bits, on its 12x32 tile at
    // >= 1.2x its rate and on its masked 16-column tile at >= 1.1x; and its
    // column edge and vector math: the 256-bit family's bits, at >= 4x and
    // >= 1.3x its rate.
    if !SimdPath::Avx512.supported() {
        println!("smoke 512-bit family: this CPU lacks AVX-512F, so checks 9-11 are skipped");
        gates.finish();
        return;
    }
    gates.run("9-10 tile widths: the 256-bit bits, >= 1.2x / 1.1x", || {
        for &(label, m, k, n) in TILE_WIDTH_SHAPES {
            let floor = match label {
                "engine_tokens_expert" => 1.2,
                "trainer_lm_router" | "trainer_lm_attention" => 1.1,
                _ => continue,
            };
            let (ns, same) = tile_width_ns(&layout_inputs(m, k, n), 15);
            let (t256, t512) = (&ns[..3], &ns[3..]);
            let all = t256.iter().sum::<f64>() / t512.iter().sum::<f64>();
            let per: Vec<String> = ["nn", "nt", "tn"]
                .iter()
                .zip(t256.iter().zip(t512))
                .map(|(l, (s, t))| format!("{l} {:.2}x", s / t))
                .collect();
            println!(
            "smoke tile widths {label} {m}x{k}x{n}: 512-bit at {all:.2}x the 256-bit GFLOP/s ({})",
            per.join(", ")
        );
            assert!(
                same,
                "{m}x{k}x{n}: the 512-bit family's outputs differ from the 256-bit tile's"
            );
            assert!(
                all >= floor,
                "{m}x{k}x{n}: the 512-bit family under {floor}x the 256-bit: {all:.2}x"
            );
        }
    });
    gates.run("11 16 lanes: the 8-lane bits, router >= 4x, gelu >= 1.3x", || {
        let (m, k, n) = ROUTER_SHAPE;
        let (a, b) = inputs(m, k, n);
        let (x, _, _) = act_inputs(ACT_SHAPES[0].1, ACT_SHAPES[0].2);
        let x = x.as_slice();
        let (mut nn16, mut nn8) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (mut t16, mut t8) = (vec![0.0; x.len()], vec![0.0; x.len()]);
        pool::set_threads(1);
        let ns = interleaved_min_ns(
            15,
            &mut [
                &mut || on_path(SimdPath::Avx512, || a.matmul_into(&b, &mut nn16)),
                &mut || on_path(SimdPath::Avx2, || a.matmul_into(&b, &mut nn8)),
                &mut || on_path(SimdPath::Avx512, || vmath::gelu_tanh_slice(x, &mut t16)),
                &mut || on_path(SimdPath::Avx2, || vmath::gelu_tanh_slice(x, &mut t8)),
            ],
        );
        let (router, gelu) = (ns[1] / ns[0], ns[3] / ns[2]);
        println!(
            "smoke 16 lanes: router nn {m}x{k}x{n} {:.1} us on the masked edge, {:.1} us on \
             the scalar one ({router:.2}x); gelu_tanh {:.2} ns/elem on 16 lanes, {:.2} on 8 \
             ({gelu:.2}x)",
            ns[0] / 1e3,
            ns[1] / 1e3,
            ns[2] / x.len() as f64,
            ns[3] / x.len() as f64,
        );
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(nn16.as_slice()),
            bits(nn8.as_slice()),
            "router nn: the masked edge's bits"
        );
        assert_eq!(bits(&t16), bits(&t8), "gelu_tanh_slice: 16 lanes differ from 8");
        assert!(router >= 4.0, "router nn {m}x{k}x{n}: the masked edge under 4x: {router:.2}x");
        assert!(gelu >= 1.3, "gelu_tanh_slice: 16 lanes under 1.3x 8 lanes: {gelu:.2}x");
    });
    gates.finish();
}

/// The smoke gate's checks, each run to its verdict whatever the others'.
#[derive(Default)]
struct Gates {
    failed: Vec<String>,
}

impl Gates {
    /// Runs one check: a failed assertion fails this gate and the run goes
    /// on to the next, on the SIMD path and the one worker it started with.
    fn run(&mut self, name: &str, check: impl FnOnce()) {
        let path = kernels::active_path();
        pool::set_threads(1);
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check));
        kernels::force_simd_path(path);
        pool::set_threads(1);
        match verdict {
            Ok(()) => println!("gate {name}: ok"),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)");
                println!("gate {name}: FAILED: {msg}");
                self.failed.push(format!("{name}: {msg}"));
            }
        }
    }

    /// Prints every failed gate and exits non-zero if there was one.
    fn finish(self) {
        if self.failed.is_empty() {
            println!("smoke: every gate passed");
            return;
        }
        eprintln!("smoke: {} gate(s) failed:\n  {}", self.failed.len(), self.failed.join("\n  "));
        std::process::exit(1);
    }
}

/// A row group's rows from its second pass: the first, untimed, brings
/// the process to the state the timed one measures. Run once per fresh
/// process, a group's rows read up to 1.8× slower than on its second pass
/// (`engine_params_expert` `nn` 67–78 against 122–128 GFLOP/s, the Adam
/// f32 store 1.24–1.48 against 1.00–1.02 ns per parameter), and an untimed
/// call of each row's kernels just before its timing did not close the gap.
fn warmed(group: fn() -> Value) -> Value {
    println!("\n(untimed pass)");
    group();
    println!("\n(timed pass)");
    group()
}

fn main() {
    if std::env::var("SYMI_KERNEL_SMOKE").is_ok() {
        smoke();
        return;
    }

    // The optimizer rows first, before the GEMM sections, as the smoke gate
    // times them.
    let adam = warmed(bench_adam);
    let f16_codec = warmed(bench_f16_codec);
    let shapes = warmed(bench_shapes);
    let activations = warmed(bench_activations);
    let expert_ffn = warmed(bench_expert_ffn);
    let expert_ffn_skinny = warmed(bench_expert_ffn_skinny);
    let class_major = warmed(bench_class_major);
    let gemm_tn_skinny = warmed(bench_gemm_tn_skinny);
    let layouts = warmed(bench_layouts);
    let tile_widths = warmed(bench_tile_widths);
    let attention_core = warmed(bench_attention_core);

    let mut o = Obj::new();
    o.set("bench", Value::str("gemm_kernels"));
    o.set("simd_path", Value::str(kernels::simd_path_name()));
    o.set("threads_swept", Value::arr_u64(&THREADS.iter().map(|&t| t as u64).collect::<Vec<_>>()));
    o.set("shapes", shapes);
    o.set("activations", activations);
    o.set("expert_ffn", expert_ffn);
    o.set("expert_ffn_skinny", expert_ffn_skinny);
    o.set("class_major", class_major);
    o.set("gemm_tn_skinny", gemm_tn_skinny);
    o.set("layouts", layouts);
    o.set("tile_widths", tile_widths);
    o.set("attention_core", attention_core);
    o.set("adam", adam);
    o.set("f16_codec", f16_codec);
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_kernels.json");
    std::fs::write(&out, Value::Obj(o).to_string()).expect("write kernels json");
    println!("wrote {}", out.display());
}
