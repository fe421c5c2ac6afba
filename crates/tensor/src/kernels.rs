//! Cache-blocked, register-tiled GEMM kernels behind [`crate::Matrix`].
//!
//! Three specialized layouts cover everything manual backprop needs without
//! materializing transposes:
//!
//! - `nn` (`A·B`, forward): B is read **in place** — row-major B already
//!   stores the microkernel's column strips contiguously, so the kernels
//!   take B's row stride as a parameter and there is no packing pass at
//!   all. Each microkernel invocation holds an `MR×NR` block of outputs in
//!   registers. A binary16 B ([`BElems::F16`]) is the exception: the x86
//!   families widen each KC-long panel chunk into a per-thread buffer with
//!   `VCVTPH2PS` as they copy it, and the tiles sweep that.
//! - `tn` (`Aᵀ·B`, parameter gradients): B as in `nn`. The scalar family
//!   packs the A column block into a k-major strip per output row block;
//!   the two x86 families broadcast A's elements transposed in place on
//!   `nn`'s tiles, except for reductions shorter than
//!   [`crate::simd::TN_TILE_MIN_DEPTH`], where both run the 256-bit 4×16
//!   tile over a packed strip.
//! - `nt` (`A·Bᵀ`, input gradients / attention scores): the scalar family
//!   walks both operands along contiguous rows in a register tile of
//!   independent dot products; the two x86 families transpose KC-long
//!   panels of B (16 or 32 columns) into a per-thread buffer and run `nn`'s
//!   tiles over them, except below [`crate::simd::NT_TILE_MIN_ROWS`] output
//!   rows, where both keep a 256-bit dot-product tile. A binary16 B is
//!   widened during the transpose and always runs the tile, at every m: the
//!   dot-product kernel takes no panel to widen into.
//!
//! The scalar family reads a binary16 B by decoding the whole operand into
//! its per-thread scratch first.
//!
//! Each x86 family runs all three layouts on one k-chunked loop nest over
//! one const-generic FMA register tile per panel width (module docs of
//! [`crate::simd`]).
//!
//! # SIMD dispatch
//!
//! Three microkernel families are selected once per process by
//! [`active_path`] ([`SimdPath`]): a portable scalar family (the original
//! kernels, kept as the fallback and the forced-`SYMI_SIMD=scalar` CI
//! path), an AVX2+FMA+F16C family ([`crate::simd`], x86_64 only, runtime feature
//! detection) whose loop nest runs a 256-bit 6×16 register tile, and an
//! AVX-512F family — the same kernels, with the loop nest on a 512-bit
//! 12×32 tile, its 16-column panels and column edge on a masked 16-lane
//! tile, and the vector math on 16 lanes — where the CPU has AVX-512F. Detection picks the widest the CPU supports. The scalar family
//! is **bit-exact** against the [`naive`] oracle (single accumulator folded
//! over ascending `k`, mul-then-add). The two x86 families keep f32
//! accumulation but use fused multiply-add (and, in the dot-product `nt`,
//! fixed 8-lane k-splitting), so they are held to the oracle by a
//! ULP/error-bound gate instead of `==` — see `tests/simd_oracle.rs` — and
//! to each other by `==`: every tile folds every element the same way.
//! `SYMI_SIMD=scalar` pins the scalar family and `SYMI_SIMD=avx2` the
//! 256-bit one; [`force_simd_path`] pins any family the CPU supports and
//! refuses the others.
//!
//! # Determinism contract
//!
//! Within one process (one resolved SIMD path), every GEMM is a pure
//! function of its operands — independent of worker count and repeatable
//! across runs; the two x86 families also give each other's bits. Work
//! splits only across *output* elements, never across the `k` reduction;
//! every share of a GEMM runs the kernel the whole GEMM's shape selects; and
//! share boundaries are aligned to that kernel's row tile — the active
//! family's tile height (`pool::par_rows_planned`), so the full-tile/edge-tile
//! decomposition — which decides, in the scalar family and in `nn`'s column
//! edge, where FMA vs scalar rounding applies — is a global property of the
//! shape, not of the split. The scalar path is additionally bit-exact
//! against [`naive`]. Fused epilogues (`+ bias`, then GELU's `tanh` term)
//! apply *after* the fold completes, matching the unfused `matmul` →
//! `add_bias` → `gelu_tanh` sequence bit-for-bit on every path.
//!
//! A binary16 B ([`crate::half::HalfMatrix`]) gives the bits of the same
//! GEMM on its decoded f32 values: the widening is exact and the kernels
//! fold the widened panel as they fold an f32 one. The one shape where the
//! two take different kernels is an x86 `nt` below
//! [`crate::simd::NT_TILE_MIN_ROWS`] rows: there the binary16 B runs the
//! tile, so each element is the one FMA chain over ascending k, where the f32
//! B runs the dot product.
//!
//! # Cost-model gate
//!
//! Dispatching a parallel region costs wake-ups, cache re-warming, and (on
//! oversubscribed hosts) context switches, so small GEMMs lose by
//! splitting: the seed benchmark showed 64×64×128 *dropping* from 19.3 to
//! 13.6 GFLOP/s going 1→8 threads. `plan_shares` therefore caps the share
//! count so each share keeps at least `SYMI_GEMM_FLOPS_PER_SHARE` FLOPs
//! (default 128 M ≈ a couple of milliseconds of SIMD work) **and** never
//! exceeds the machine's `available_parallelism` — extra shares beyond
//! cores cannot run concurrently, they only pay dispatch and cache-handoff
//! cost. Gated calls run sequentially on the submitting thread with zero
//! dispatch and bump the `kernel.seq_fallback` counter.

use crate::half::HalfMatrix;
use crate::matrix::Matrix;
use crate::pool::{par_rows2_planned, par_rows_planned};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Scalar-path microkernel row tile.
pub const MR: usize = 4;
/// Scalar-path microkernel column tile / packed panel width.
pub const NR: usize = 8;

/// Default minimum FLOPs a share must amortize before the cost model grants
/// it a pool dispatch (override: `SYMI_GEMM_FLOPS_PER_SHARE`). ~2 ms of
/// work at the AVX2 kernels' measured single-thread throughput — an order
/// of magnitude above dispatch + cache-rewarm cost even on oversubscribed
/// single-core hosts.
pub const DEFAULT_FLOPS_PER_SHARE: u64 = 128_000_000;

static GEMM_NS: AtomicU64 = AtomicU64::new(0);
static GEMM_FLOPS: AtomicU64 = AtomicU64::new(0);
static SEQ_FALLBACK: AtomicU64 = AtomicU64::new(0);
static ACT_NS: AtomicU64 = AtomicU64::new(0);
static ACT_ELEMS: AtomicU64 = AtomicU64::new(0);

/// Cumulative kernel counters (monotonic; consumers diff between reads).
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Wall nanoseconds spent inside GEMM drivers (submitting thread) —
    /// GEMM work only: the fused activation epilogue of
    /// `gemm_nn_bias_gelu_tanh` is timed into [`ActStats::act_ns`] instead.
    pub gemm_ns: u64,
    /// Multiply-add FLOPs issued (2·m·n·k per GEMM).
    pub gemm_flops: u64,
    /// GEMM calls the cost model ran sequentially although the pool had
    /// threads to offer (parallelism could not amortize dispatch).
    pub seq_fallback: u64,
    /// Whole-B preparation passes: always 0. `nn` and `tn` read an f32 B in
    /// place; the x86 `nt` transposes B one L1-sized panel at a time inside
    /// its loop nest, and a binary16 B is widened the same way — panel by
    /// panel, inside the nest that consumes it — which is not a pass over B
    /// and is not counted. The field stays because the repository
    /// benchmark's `KernelStats` delta (`benchmark/src/workloads.rs`) names
    /// it.
    pub b_packs: u64,
}

/// Snapshot of the process-wide kernel counters.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        gemm_ns: GEMM_NS.load(Ordering::Relaxed),
        gemm_flops: GEMM_FLOPS.load(Ordering::Relaxed),
        seq_fallback: SEQ_FALLBACK.load(Ordering::Relaxed),
        b_packs: 0,
    }
}

/// Cumulative activation counters (monotonic, like [`KernelStats`]): the
/// elementwise transcendental passes — GELU forward/backward, the fused
/// GELU epilogue, row softmax — that run on [`crate::vmath`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ActStats {
    /// Wall nanoseconds spent in activation passes (submitting thread; for
    /// the fused epilogue, the slowest share's epilogue time).
    pub act_ns: u64,
    /// Elements those passes produced.
    pub act_elems: u64,
}

/// Snapshot of the process-wide activation counters.
pub fn act_stats() -> ActStats {
    ActStats {
        act_ns: ACT_NS.load(Ordering::Relaxed),
        act_elems: ACT_ELEMS.load(Ordering::Relaxed),
    }
}

fn record(t0: Instant, m: usize, n: usize, k: usize) {
    record_ns(t0.elapsed().as_nanos() as u64, m, n, k);
}

fn record_ns(ns: u64, m: usize, n: usize, k: usize) {
    GEMM_NS.fetch_add(ns, Ordering::Relaxed);
    GEMM_FLOPS.fetch_add(2 * (m as u64) * (n as u64) * (k as u64), Ordering::Relaxed);
}

/// Adds one activation pass over `elems` elements that took `ns`.
pub(crate) fn record_act(ns: u64, elems: usize) {
    ACT_NS.fetch_add(ns, Ordering::Relaxed);
    ACT_ELEMS.fetch_add(elems as u64, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// SIMD path selection
// ---------------------------------------------------------------------------

/// Which microkernel family the drivers dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdPath {
    /// Portable scalar kernels: bit-exact vs [`naive`], run anywhere.
    Scalar,
    /// AVX2 + FMA + F16C microkernels (x86_64, runtime-detected), the GEMM loop
    /// nest on the 256-bit 6×16 register tile.
    Avx2,
    /// The `Avx2` family with the loop nest's register tiles and column
    /// edge, and the vector math, on 512-bit registers (AVX-512F,
    /// runtime-detected). Every element is the same fold as on `Avx2`, so
    /// the two give identical bits.
    Avx512,
}

impl SimdPath {
    /// Every family, narrowest first.
    pub const ALL: [SimdPath; 3] = [SimdPath::Scalar, SimdPath::Avx2, SimdPath::Avx512];

    /// Whether this CPU has the features the family's kernels execute.
    pub fn supported(self) -> bool {
        match self {
            SimdPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdPath::Avx2 => crate::simd::have_avx2_fma(),
            #[cfg(target_arch = "x86_64")]
            SimdPath::Avx512 => crate::simd::have_avx512f(),
            #[cfg(not(target_arch = "x86_64"))]
            SimdPath::Avx2 | SimdPath::Avx512 => false,
        }
    }

    /// Whether the loop nest runs on the 512-bit register tile.
    #[cfg(target_arch = "x86_64")]
    fn wide(self) -> bool {
        self == SimdPath::Avx512
    }
}

/// 0 = undecided, 1 = scalar, 2 = avx2, 3 = avx512.
static PATH: AtomicU8 = AtomicU8::new(0);

/// The widest family this CPU supports.
fn detect_path() -> SimdPath {
    SimdPath::ALL.into_iter().rev().find(|p| p.supported()).unwrap_or(SimdPath::Scalar)
}

fn decide_path() -> SimdPath {
    match std::env::var("SYMI_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "scalar" | "0" | "off" => SimdPath::Scalar,
            "avx2" => {
                assert!(
                    SimdPath::Avx2.supported(),
                    "SYMI_SIMD=avx2 requested but this CPU lacks AVX2+FMA+F16C"
                );
                SimdPath::Avx2
            }
            other => {
                eprintln!(
                    "symi: ignoring unknown SYMI_SIMD={other:?} \
                     (expected scalar|avx2); auto-detecting"
                );
                detect_path()
            }
        },
        Err(_) => detect_path(),
    }
}

/// The microkernel family in use, resolved once per process from
/// `SYMI_SIMD` (else CPU feature detection) on first GEMM.
pub fn active_path() -> SimdPath {
    match PATH.load(Ordering::Relaxed) {
        1 => SimdPath::Scalar,
        2 => SimdPath::Avx2,
        3 => SimdPath::Avx512,
        _ => {
            let p = decide_path();
            force_simd_path(p);
            p
        }
    }
}

/// Overrides the dispatch path. Intended for tests and benches that must
/// exercise a specific family (mirrors `pool::set_threads`); results differ
/// between the scalar family and the other two at the documented ULP bound,
/// so test binaries that switch paths serialize around it.
///
/// # Panics
///
/// If the CPU lacks the family's features ([`SimdPath::supported`]): the
/// kernels behind it would execute instructions it does not have.
pub fn force_simd_path(p: SimdPath) {
    assert!(p.supported(), "SIMD path {p:?} forced but this CPU lacks its features");
    PATH.store(
        match p {
            SimdPath::Scalar => 1,
            SimdPath::Avx2 => 2,
            SimdPath::Avx512 => 3,
        },
        Ordering::Relaxed,
    );
}

/// Human-readable name of the active path (telemetry / bench metadata).
pub fn simd_path_name() -> &'static str {
    match active_path() {
        SimdPath::Scalar => "scalar",
        SimdPath::Avx2 => "avx2",
        SimdPath::Avx512 => "avx512",
    }
}

/// Whether the vector math, the Adam kernel and the binary16 codec take
/// their vector encodings: on either x86 family (which one changes only the
/// GEMM tiles and the vector math's width, never a bit).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_encodings() -> bool {
    active_path() != SimdPath::Scalar
}

/// Whether the binary16 codec and the Adam kernel that emits binary16 run
/// on `VCVTPS2PH`/`VCVTPH2PS` (either x86 family: both require F16C)
/// instead of the scalar conversions — same bits either way.
pub fn f16_fast_path() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        return avx2_encodings();
    }
    #[allow(unreachable_code)]
    false
}

/// Row tile of the `nn` kernels for `path`.
fn nn_row_tile(path: SimdPath) -> usize {
    match path {
        SimdPath::Scalar => MR,
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 | SimdPath::Avx512 => crate::simd::tile_rows(path.wide()),
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2 | SimdPath::Avx512 => unreachable!("x86 path selected on non-x86_64"),
    }
}

/// Row tile of the `nt` kernel `path` runs for an `m`-row GEMM over `b`.
fn nt_row_tile(path: SimdPath, m: usize, b: BElems<'_>) -> usize {
    match path {
        SimdPath::Scalar => MR,
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 | SimdPath::Avx512 if crate::simd::nt_on_tile(m, b) => {
            crate::simd::tile_rows(path.wide())
        }
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 | SimdPath::Avx512 => crate::simd::MR_DOT,
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2 | SimdPath::Avx512 => unreachable!("x86 path selected on non-x86_64"),
    }
}

/// Row tile of the `tn` kernel `path` runs for a reduction of length `r`.
fn tn_row_tile(path: SimdPath, r: usize) -> usize {
    match path {
        SimdPath::Scalar => MR,
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 | SimdPath::Avx512 if crate::simd::tn_on_tile(r) => {
            crate::simd::tile_rows(path.wide())
        }
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 | SimdPath::Avx512 => crate::simd::MR_STRIP,
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2 | SimdPath::Avx512 => unreachable!("x86 path selected on non-x86_64"),
    }
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// 0 = uninitialized (resolve from env on first use).
static MIN_FLOPS: AtomicU64 = AtomicU64::new(0);

fn min_flops_per_share() -> u64 {
    let v = MIN_FLOPS.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let init = match std::env::var("SYMI_GEMM_FLOPS_PER_SHARE") {
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!(
                    "symi: ignoring invalid SYMI_GEMM_FLOPS_PER_SHARE={raw:?} \
                     (expected a positive integer); using {DEFAULT_FLOPS_PER_SHARE}"
                );
                DEFAULT_FLOPS_PER_SHARE
            }
        },
        Err(_) => DEFAULT_FLOPS_PER_SHARE,
    };
    MIN_FLOPS.store(init, Ordering::Relaxed);
    init
}

/// Overrides the cost-model minimum (mirrors `pool::set_threads`: for tests
/// and benches that must exercise multi-share execution on shapes the gate
/// would otherwise run sequentially). Pass [`DEFAULT_FLOPS_PER_SHARE`] to
/// restore the default.
pub fn set_flops_per_share(v: u64) {
    MIN_FLOPS.store(v.max(1), Ordering::Relaxed);
}

/// Hardware parallelism, cached: the most workers that can make a
/// CPU-bound kernel faster. A thread budget above this (oversubscribed
/// `SYMI_THREADS` on a small container) only adds handoff overhead — the
/// seed regression this gate exists to prevent.
fn hardware_parallelism() -> usize {
    let v = HW_PARALLELISM.load(Ordering::Relaxed);
    if v != 0 {
        return v as usize;
    }
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    HW_PARALLELISM.store(n as u64, Ordering::Relaxed);
    n
}

static HW_PARALLELISM: AtomicU64 = AtomicU64::new(0);

/// Overrides the detected hardware parallelism (mirrors
/// [`set_flops_per_share`]: for tests that must exercise multi-share
/// execution on hosts with fewer cores than the scenario under test).
/// Pass 0 to restore detection.
pub fn set_hardware_parallelism(v: usize) {
    HW_PARALLELISM.store(v as u64, Ordering::Relaxed);
}

/// How many pool shares a GEMM over `rows` output rows (tiled in
/// `block`-high strips) and `flops` total work deserves. Returns 1 — a
/// zero-dispatch sequential run — unless every share can amortize the
/// dispatch cost; such gated calls count as `seq_fallback`. The share
/// count is also capped at the machine's physical parallelism: extra
/// shares beyond cores cannot run concurrently, so they pay dispatch and
/// cache-handoff cost for zero speedup.
fn plan_shares(rows: usize, block: usize, flops: u64) -> usize {
    let budget = crate::pool::current_threads().min(hardware_parallelism());
    if budget <= 1 {
        if crate::pool::current_threads() > 1 {
            SEQ_FALLBACK.fetch_add(1, Ordering::Relaxed);
        }
        return 1;
    }
    let by_blocks = rows.div_ceil(block.max(1));
    let by_cost = (flops / min_flops_per_share().max(1)).max(1) as usize;
    let p = budget.min(by_blocks).min(by_cost);
    if p == 1 {
        SEQ_FALLBACK.fetch_add(1, Ordering::Relaxed);
    }
    p
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-worker pack scratch: a `tn` strip kernel's A strip, the x86
    /// `nt` tile's transposed B panel and the x86 `nn` tile's widened
    /// binary16 B panel (KC×32 floats on the 512-bit family, KC×16 on the
    /// 256-bit one), or the scalar family's decoded binary16 B.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on `bits` decoded into the thread's pack scratch: how the
/// scalar family reads a binary16 B.
fn with_decoded<R>(bits: &[u16], f: impl FnOnce(&[f32]) -> R) -> R {
    PACK.with(|p| {
        let mut buf = p.borrow_mut();
        buf.clear();
        buf.resize(bits.len(), 0.0);
        crate::half::decode(bits, &mut buf);
        f(&buf)
    })
}

/// Packs columns `col0 .. col0+ih` of the `r×m` matrix `a` k-major:
/// `strip[kk·ih + ii] = a[kk][col0 + ii]` (the scalar `tn` and the AVX2
/// strip `tn`).
pub(crate) fn pack_a_strip(
    asl: &[f32],
    m: usize,
    r: usize,
    col0: usize,
    ih: usize,
    strip: &mut Vec<f32>,
) {
    strip.clear();
    strip.resize(r * ih, 0.0);
    for kk in 0..r {
        for ii in 0..ih {
            strip[kk * ih + ii] = asl[kk * m + col0 + ii];
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar microkernels
// ---------------------------------------------------------------------------

/// Full `MR×NR` nn microkernel: `out_block (+)= a_block · panel` with the
/// `MR·NR` accumulators held in registers across the whole ascending-k
/// sweep. `a` holds `MR` rows of length ≥ `k` at stride `lda`; `panel`
/// points at B's `(0, j0)` element with row stride `pstride` (B is read in
/// place — no packing); `out` points at the block's first element with row
/// stride `ldc`.
#[allow(clippy::too_many_arguments)]
fn kern_nn_full(
    a: &[f32],
    lda: usize,
    k: usize,
    panel: &[f32],
    pstride: usize,
    out: &mut [f32],
    ldc: usize,
    acc: bool,
) {
    let mut c = [[0.0f32; NR]; MR];
    if acc {
        for (i, ci) in c.iter_mut().enumerate() {
            ci.copy_from_slice(&out[i * ldc..i * ldc + NR]);
        }
    }
    for kk in 0..k {
        let pb = &panel[kk * pstride..kk * pstride + NR];
        for (i, ci) in c.iter_mut().enumerate() {
            let av = a[i * lda + kk];
            for (cv, &bv) in ci.iter_mut().zip(pb) {
                *cv += av * bv;
            }
        }
    }
    for (i, ci) in c.iter().enumerate() {
        out[i * ldc..i * ldc + NR].copy_from_slice(ci);
    }
}

/// Edge nn microkernel for partial tiles (`rows ≤ mr`, `w ≤ nr`): same
/// single-accumulator ascending-k fold, scalar loops. `panel` is B read in
/// place from the tile's first column at row stride `ldb` — both callers'
/// `nn` reads B where it lies, without a pack.
#[allow(clippy::too_many_arguments)]
pub(crate) fn kern_nn_edge(
    a: &[f32],
    lda: usize,
    k: usize,
    rows: usize,
    panel: &[f32],
    w: usize,
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    acc: bool,
) {
    for i in 0..rows {
        for j in 0..w {
            let mut s = if acc { out[i * ldc + j] } else { 0.0 };
            for kk in 0..k {
                s += a[i * lda + kk] * panel[kk * ldb + j];
            }
            out[i * ldc + j] = s;
        }
    }
}

/// Row-range worker for scalar nn: computes `out_chunk (+)= A[rows]·B`
/// reading B in place (`bs` row-major with stride `bstride` — the kernel
/// loads a contiguous `NR`-wide strip per k-step, so packing would only
/// add traffic), then applies the optional bias epilogue.
#[allow(clippy::too_many_arguments)]
fn nn_rows(
    a: &Matrix,
    rows: std::ops::Range<usize>,
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
    let panels = n.div_ceil(NR);
    // Panel-outer so one column strip of B stays cache-hot across all row
    // tiles (matches the SIMD workers; visit order is result-neutral —
    // every C tile still folds its full k sweep in registers).
    for p in 0..panels {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        // Empty when k = 0, and then nothing reads it.
        let panel = bs.get(j0..).unwrap_or_default();
        let mut i = 0;
        while i < m {
            let rows_here = MR.min(m - i);
            let arow = &asl[(rows.start + i) * lda..];
            let oblock = &mut out[i * n + j0..];
            if rows_here == MR && w == NR {
                kern_nn_full(arow, lda, k, panel, bstride, oblock, n, acc);
            } else {
                kern_nn_edge(arow, lda, k, rows_here, panel, w, bstride, oblock, n, acc);
            }
            i += rows_here;
        }
    }
    if let Some(bias) = bias {
        for r in 0..m {
            for (o, b) in out[r * n..(r + 1) * n].iter_mut().zip(bias) {
                *o += b;
            }
        }
    }
}

/// Row-range worker for scalar nt: 4×4 register tile of independent
/// contiguous dot products, each one accumulator over ascending k.
fn nt_rows(
    a: &Matrix,
    bsl: &[f32],
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
) {
    const TI: usize = 4;
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
                let mut c = [[0.0f32; TJ]; TI];
                if acc {
                    for (ii, ci) in c.iter_mut().enumerate() {
                        ci.copy_from_slice(&chunk[(i + ii) * n + j..(i + ii) * n + j + TJ]);
                    }
                }
                let ar0 = (rows.start + i) * k;
                let br0 = j * k;
                for kk in 0..k {
                    for (ii, ci) in c.iter_mut().enumerate() {
                        let av = asl[ar0 + ii * k + kk];
                        for (jj, cv) in ci.iter_mut().enumerate() {
                            *cv += av * bsl[br0 + jj * k + kk];
                        }
                    }
                }
                for (ii, ci) in c.iter().enumerate() {
                    chunk[(i + ii) * n + j..(i + ii) * n + j + TJ].copy_from_slice(ci);
                }
            } else {
                for ii in 0..ih {
                    let arow = &asl[(rows.start + i + ii) * k..(rows.start + i + ii + 1) * k];
                    for jj in 0..jh {
                        let brow = &bsl[(j + jj) * k..(j + jj + 1) * k];
                        let mut s = if acc { chunk[(i + ii) * n + j + jj] } else { 0.0 };
                        for (av, bv) in arow.iter().zip(brow) {
                            s += av * bv;
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

/// Row-range worker for scalar tn (`rows` are *output* rows = A columns).
#[allow(clippy::too_many_arguments)]
fn tn_rows(
    asl: &[f32],
    bsl: &[f32],
    rows: std::ops::Range<usize>,
    r: usize,
    m: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
) {
    PACK.with(|p| {
        let mut strip = p.borrow_mut();
        let mlocal = rows.len();
        let mut i = 0;
        while i < mlocal {
            let ih = MR.min(mlocal - i);
            pack_a_strip(asl, m, r, rows.start + i, ih, &mut strip);
            let mut j = 0;
            while j < n {
                let jh = NR.min(n - j);
                if ih == MR && jh == NR {
                    let mut c = [[0.0f32; NR]; MR];
                    if acc {
                        for (ii, ci) in c.iter_mut().enumerate() {
                            ci.copy_from_slice(&chunk[(i + ii) * n + j..(i + ii) * n + j + NR]);
                        }
                    }
                    for kk in 0..r {
                        let av = &strip[kk * MR..kk * MR + MR];
                        let bv = &bsl[kk * n + j..kk * n + j + NR];
                        for (ii, ci) in c.iter_mut().enumerate() {
                            let a_ik = av[ii];
                            for (cv, &b_kj) in ci.iter_mut().zip(bv) {
                                *cv += a_ik * b_kj;
                            }
                        }
                    }
                    for (ii, ci) in c.iter().enumerate() {
                        chunk[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(ci);
                    }
                } else {
                    for ii in 0..ih {
                        for jj in 0..jh {
                            let mut s = if acc { chunk[(i + ii) * n + j + jj] } else { 0.0 };
                            for kk in 0..r {
                                s += strip[kk * ih + ii] * bsl[kk * n + j + jj];
                            }
                            chunk[(i + ii) * n + j + jj] = s;
                        }
                    }
                }
                j += jh;
            }
            i += ih;
        }
    });
}

// ---------------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn nn_rows_dispatch(
    path: SimdPath,
    a: &Matrix,
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
    b: BElems<'_>,
    bstride: usize,
    out: &mut [f32],
    acc: bool,
    bias: Option<&[f32]>,
) {
    match (path, b) {
        (SimdPath::Scalar, BElems::F32(bs)) => nn_rows(a, rows, k, n, bs, bstride, out, acc, bias),
        (SimdPath::Scalar, BElems::F16(bits)) => {
            with_decoded(bits, |bs| nn_rows(a, rows, k, n, bs, bstride, out, acc, bias))
        }
        #[cfg(target_arch = "x86_64")]
        (SimdPath::Avx2 | SimdPath::Avx512, _) => PACK.with(|p| {
            let buf = &mut p.borrow_mut();
            crate::simd::nn_rows(a, rows, k, n, b, bstride, out, acc, bias, buf, path.wide())
        }),
        #[cfg(not(target_arch = "x86_64"))]
        (SimdPath::Avx2 | SimdPath::Avx512, _) => unreachable!("x86 path selected on non-x86_64"),
    }
}

#[allow(clippy::too_many_arguments)]
fn nt_rows_dispatch(
    path: SimdPath,
    a: &Matrix,
    b: BElems<'_>,
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
) {
    match (path, b) {
        (SimdPath::Scalar, BElems::F32(bsl)) => nt_rows(a, bsl, rows, k, n, chunk, acc),
        (SimdPath::Scalar, BElems::F16(bits)) => {
            with_decoded(bits, |bsl| nt_rows(a, bsl, rows, k, n, chunk, acc))
        }
        #[cfg(target_arch = "x86_64")]
        (SimdPath::Avx2 | SimdPath::Avx512, _) => PACK.with(|p| {
            crate::simd::nt_rows(a, b, rows, k, n, chunk, acc, &mut p.borrow_mut(), path.wide())
        }),
        #[cfg(not(target_arch = "x86_64"))]
        (SimdPath::Avx2 | SimdPath::Avx512, _) => unreachable!("x86 path selected on non-x86_64"),
    }
}

#[allow(clippy::too_many_arguments)]
fn tn_rows_dispatch(
    path: SimdPath,
    asl: &[f32],
    bsl: &[f32],
    rows: std::ops::Range<usize>,
    r: usize,
    m: usize,
    n: usize,
    chunk: &mut [f32],
    acc: bool,
) {
    match path {
        SimdPath::Scalar => tn_rows(asl, bsl, rows, r, m, n, chunk, acc),
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 | SimdPath::Avx512 => PACK.with(|p| {
            let strip = &mut p.borrow_mut();
            crate::simd::tn_rows(asl, bsl, rows, r, m, n, chunk, acc, strip, path.wide())
        }),
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2 | SimdPath::Avx512 => unreachable!("x86 path selected on non-x86_64"),
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// A GEMM's B operand as it is stored.
#[derive(Clone, Copy, Debug)]
pub enum BElems<'a> {
    /// Row-major f32.
    F32(&'a [f32]),
    /// Row-major binary16 bits, widened to f32 as the kernels read them.
    F16(&'a [u16]),
}

impl BElems<'_> {
    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        match self {
            BElems::F32(b) => b.len(),
            BElems::F16(b) => b.len(),
        }
    }
}

/// A matrix `nn` and `nt` read as their B operand: an f32 [`Matrix`], or a
/// binary16 [`HalfMatrix`] with the bits of its decoded f32 values (module
/// docs, *Determinism contract*).
pub trait BOperand {
    fn rows(&self) -> usize;
    fn cols(&self) -> usize;
    /// The row-major elements.
    fn elems(&self) -> BElems<'_>;
}

impl BOperand for Matrix {
    fn rows(&self) -> usize {
        self.rows()
    }
    fn cols(&self) -> usize {
        self.cols()
    }
    fn elems(&self) -> BElems<'_> {
        BElems::F32(self.as_slice())
    }
}

impl BOperand for HalfMatrix {
    fn rows(&self) -> usize {
        self.rows()
    }
    fn cols(&self) -> usize {
        self.cols()
    }
    fn elems(&self) -> BElems<'_> {
        BElems::F16(self.as_bits())
    }
}

/// `out (+)= a · b`, optional fused `+ bias` epilogue.
pub fn gemm_nn<B: BOperand + ?Sized>(
    a: &Matrix,
    b: &B,
    out: &mut Matrix,
    acc: bool,
    bias: Option<&Matrix>,
) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if let Some(bias) = bias {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), n, "bias width mismatch");
    }
    let t0 = Instant::now();
    out.resize_to(m, n);
    if n == 0 || m == 0 {
        record(t0, m, n, k);
        return;
    }
    let path = active_path();
    let mr = nn_row_tile(path);
    let shares = plan_shares(m, mr, 2 * (m as u64) * (n as u64) * (k as u64));
    let belems = b.elems();
    let bias = bias.map(|bm| bm.as_slice());
    par_rows_planned(m, n, mr, shares, out.as_mut_slice(), |rows, chunk| {
        nn_rows_dispatch(path, a, rows, k, n, belems, n, chunk, acc, bias);
    });
    record(t0, m, n, k);
}

/// `pre = a·b + bias`, `t = gelu_tanh(pre)` — the fused FFN epilogue, which
/// stores GELU's inner `tanh` term (the activation is `0.5·pre·(1 + t)`,
/// and backward reads `t` instead of recomputing it). The epilogue is
/// applied per completed row range inside the same parallel region, so
/// `pre` rows are still cache-hot when `t` is produced. It is timed per
/// share; the slowest share's time is what the submitting thread waited
/// for, so that much of the call's wall time is booked as activation time
/// and the rest as GEMM time.
pub(crate) fn gemm_nn_bias_gelu_tanh<B: BOperand + ?Sized>(
    a: &Matrix,
    b: &B,
    bias: &Matrix,
    pre: &mut Matrix,
    t: &mut Matrix,
) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), b.cols(), "bias width mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let t0 = Instant::now();
    pre.resize_to(m, n);
    t.resize_to(m, n);
    if n == 0 || m == 0 {
        record(t0, m, n, k);
        return;
    }
    let path = active_path();
    let mr = nn_row_tile(path);
    let shares = plan_shares(m, mr, 2 * (m as u64) * (n as u64) * (k as u64));
    let belems = b.elems();
    let bias = bias.as_slice();
    let act_ns = AtomicU64::new(0);
    par_rows2_planned(
        m,
        n,
        mr,
        shares,
        pre.as_mut_slice(),
        t.as_mut_slice(),
        |rows, pre_chunk, t_chunk| {
            nn_rows_dispatch(path, a, rows, k, n, belems, n, pre_chunk, false, Some(bias));
            let t_act = Instant::now();
            crate::vmath::gelu_tanh_slice(pre_chunk, t_chunk);
            act_ns.fetch_max(t_act.elapsed().as_nanos() as u64, Ordering::Relaxed);
        },
    );
    let total_ns = t0.elapsed().as_nanos() as u64;
    let act_ns = act_ns.into_inner().min(total_ns);
    record_act(act_ns, m * n);
    record_ns(total_ns - act_ns, m, n, k);
}

/// `out (+)= a · bᵀ` (`b` is `n×k`). Scalar path: independent contiguous
/// dot products, each one accumulator over ascending k. AVX2 path: one FMA
/// chain over ascending k per element on `nn`'s tile from
/// [`crate::simd::NT_TILE_MIN_ROWS`] output rows on — at every m for a
/// binary16 B — and 8-lane dot products with a fixed reduction order below.
pub(crate) fn gemm_nt<B: BOperand + ?Sized>(a: &Matrix, b: &B, out: &mut Matrix, acc: bool) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let t0 = Instant::now();
    out.resize_to(m, n);
    if m == 0 || n == 0 {
        record(t0, m, n, k);
        return;
    }
    let path = active_path();
    let belems = b.elems();
    let mr = nt_row_tile(path, m, belems);
    let shares = plan_shares(m, mr, 2 * (m as u64) * (n as u64) * (k as u64));
    par_rows_planned(m, n, mr, shares, out.as_mut_slice(), |rows, chunk| {
        nt_rows_dispatch(path, a, belems, rows, k, n, chunk, acc);
    });
    record(t0, m, n, k);
}

/// `out (+)= aᵀ · b` (`a` is `r×m`, `b` is `r×n`, `out` is `m×n`).
/// Parallelized over *output* rows (columns of `a`), so no participant ever
/// touches another's accumulators; `r` is folded in ascending order within
/// each element (the scalar path, and the AVX2 path below
/// [`crate::simd::TN_TILE_MIN_DEPTH`], pack the A column block into a
/// k-major strip; the AVX2 tile reads A transposed in place).
pub fn gemm_tn(a: &Matrix, b: &Matrix, out: &mut Matrix, acc: bool) {
    out.resize_to(a.cols(), b.cols());
    gemm_tn_slice(a, b, out.as_mut_slice(), acc);
}

/// [`gemm_tn`] into a caller-owned row-major `m·n` slice — a parameter
/// gradient that lives inside a larger flat buffer is written (or
/// accumulated) where it is, with no `Matrix` of its own. With `acc` unset
/// every element is the fold from `+0.0`, exactly what zero-filling `out`
/// and accumulating produces.
pub fn gemm_tn_slice(a: &Matrix, b: &Matrix, out: &mut [f32], acc: bool) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (r, m, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(out.len(), m * n, "matmul_tn destination is not {m}x{n}");
    let t0 = Instant::now();
    if m == 0 || n == 0 {
        record(t0, m, n, r);
        return;
    }
    let path = active_path();
    let mr = tn_row_tile(path, r);
    let shares = plan_shares(m, mr, 2 * (m as u64) * (n as u64) * (r as u64));
    let asl = a.as_slice();
    let bsl = b.as_slice();
    par_rows_planned(m, n, mr, shares, out, |rows, chunk| {
        tn_rows_dispatch(path, asl, bsl, rows, r, m, n, chunk, acc);
    });
    record(t0, m, n, r);
}

// ---------------------------------------------------------------------------
// ULP distance (test support for the SIMD tolerance gates)
// ---------------------------------------------------------------------------

/// Distance between two f32s in units of last place: 0 for equal values
/// (including `-0.0 == 0.0`), `u64::MAX` if either is NaN. The SIMD oracle
/// tests gate on this plus the classic `k·ε·(|A||B|)ᵢⱼ` forward error
/// bound.
pub fn ulp_diff(a: f32, b: f32) -> u64 {
    fn ordered(x: f32) -> i64 {
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            -((bits & 0x7fff_ffff) as i64)
        } else {
            bits as i64
        }
    }
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    (ordered(a) - ordered(b)).unsigned_abs()
}

/// Reference kernels: the classic textbook loops, kept as the correctness
/// oracle for property tests and the bench baseline. Each output element is
/// a single accumulator folded over ascending k — the exact contract the
/// scalar blocked kernels reproduce bitwise (the AVX2 kernels are held to a
/// ULP gate instead; see the module docs).
pub mod naive {
    use crate::matrix::Matrix;

    /// i-j-k triple loop `a · b`.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for kk in 0..a.cols() {
                    s += a[(i, kk)] * b[(kk, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    /// `a · bᵀ`.
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_nt shape mismatch");
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut s = 0.0f32;
                for kk in 0..a.cols() {
                    s += a[(i, kk)] * b[(j, kk)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    /// `aᵀ · b`.
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "matmul_tn shape mismatch");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for kk in 0..a.rows() {
                    s += a[(kk, i)] * b[(kk, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    /// `x·w + bias` with the bias added after the fold (the epilogue order
    /// the fused kernels use).
    pub fn linear(x: &Matrix, w: &Matrix, bias: &Matrix) -> Matrix {
        let mut out = matmul(x, w);
        out.add_bias(bias);
        out
    }

    /// Entry-wise `|a|·|b|` — the scale factor of the GEMM forward error
    /// bound `|computed − exact| ≤ k·ε·(|A||B|)ᵢⱼ` the SIMD gates use.
    pub fn abs_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for kk in 0..a.cols() {
                    s += (a[(i, kk)] * b[(kk, j)]).abs();
                }
                out[(i, j)] = s;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, StdRng};
    use std::sync::Mutex;

    fn random(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 2.0 - 1.0)
    }

    /// Serializes tests that pin the dispatch path (results differ between
    /// paths, so concurrent tests must not flip it mid-GEMM).
    fn with_path(p: SimdPath, f: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = active_path();
        force_simd_path(p);
        f();
        force_simd_path(prev);
    }

    #[test]
    fn scalar_nn_is_bit_exact_vs_naive() {
        with_path(SimdPath::Scalar, || {
            let mut rng = StdRng::seed_from_u64(7);
            for &(m, k, n) in
                &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (13, 17, 19), (64, 64, 64), (2, 100, 3)]
            {
                let a = random(m, k, &mut rng);
                let b = random(k, n, &mut rng);
                let mut out = Matrix::zeros(0, 0);
                gemm_nn(&a, &b, &mut out, false, None);
                assert_eq!(out, naive::matmul(&a, &b), "shape {m}x{k}x{n}");
            }
        });
    }

    #[test]
    fn scalar_nt_is_bit_exact_vs_naive() {
        with_path(SimdPath::Scalar, || {
            let mut rng = StdRng::seed_from_u64(8);
            for &(m, k, n) in &[(1, 1, 1), (5, 3, 9), (12, 16, 4), (33, 65, 31)] {
                let a = random(m, k, &mut rng);
                let b = random(n, k, &mut rng);
                let mut out = Matrix::zeros(0, 0);
                gemm_nt(&a, &b, &mut out, false);
                assert_eq!(out, naive::matmul_nt(&a, &b), "shape {m}x{k}x{n}");
            }
        });
    }

    #[test]
    fn scalar_tn_is_bit_exact_vs_naive() {
        with_path(SimdPath::Scalar, || {
            let mut rng = StdRng::seed_from_u64(9);
            for &(r, m, n) in &[(1, 1, 1), (6, 5, 3), (17, 13, 23), (50, 9, 40)] {
                let a = random(r, m, &mut rng);
                let b = random(r, n, &mut rng);
                let mut out = Matrix::zeros(0, 0);
                gemm_tn(&a, &b, &mut out, false);
                assert_eq!(out, naive::matmul_tn(&a, &b), "shape {r}x{m}x{n}");
            }
        });
    }

    #[test]
    fn acc_mode_adds_on_top() {
        with_path(SimdPath::Scalar, || {
            let mut rng = StdRng::seed_from_u64(10);
            let a = random(9, 11, &mut rng);
            let b = random(11, 7, &mut rng);
            let seed = random(9, 7, &mut rng);
            let mut out = seed.clone();
            gemm_nn(&a, &b, &mut out, true, None);
            for i in 0..out.len() {
                // acc seeds the fold with the prior value instead of 0.0; the
                // fold order within k is unchanged, so this stays exact.
                let mut s = seed.as_slice()[i];
                let (r, c) = (i / 7, i % 7);
                for kk in 0..11 {
                    s += a[(r, kk)] * b[(kk, c)];
                }
                assert_eq!(out.as_slice()[i], s);
            }
        });
    }

    #[test]
    fn fused_bias_gelu_matches_unfused() {
        with_path(SimdPath::Scalar, || {
            let mut rng = StdRng::seed_from_u64(11);
            let x = random(10, 6, &mut rng);
            let w = random(6, 14, &mut rng);
            let bias = random(1, 14, &mut rng);
            let mut pre = Matrix::zeros(0, 0);
            let mut t = Matrix::zeros(0, 0);
            gemm_nn_bias_gelu_tanh(&x, &w, &bias, &mut pre, &mut t);
            let expect_pre = naive::linear(&x, &w, &bias);
            assert_eq!(pre, expect_pre);
            let expect_t: Vec<f32> =
                expect_pre.as_slice().iter().map(|&v| crate::vmath::gelu_tanh(v)).collect();
            assert_eq!(t.as_slice(), expect_t.as_slice());
            let mut act = Matrix::zeros(0, 0);
            crate::ops::gelu_from_tanh_into(&pre, &t, &mut act);
            assert_eq!(act, crate::ops::gelu(&expect_pre));
        });
    }

    #[test]
    fn empty_shapes_are_fine() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let mut out = Matrix::zeros(1, 1);
        gemm_nn(&a, &b, &mut out, false, None);
        assert_eq!((out.rows(), out.cols()), (0, 3));
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 3);
        gemm_nn(&a, &b, &mut out, false, None);
        assert_eq!(out, Matrix::zeros(4, 3), "k=0 means a zero fold");
        // k = 0 across more than one column panel, on both families.
        for path in [SimdPath::Scalar, detect_path()] {
            with_path(path, || {
                let b = Matrix::zeros(0, 40);
                gemm_nn(&a, &b, &mut out, false, None);
                assert_eq!(out, Matrix::zeros(4, 40), "{path:?}: k=0, n=40");
            });
        }
    }

    #[test]
    fn counters_advance() {
        let before = kernel_stats();
        let a = Matrix::zeros(8, 8);
        let b = Matrix::zeros(8, 8);
        let mut out = Matrix::zeros(0, 0);
        gemm_nn(&a, &b, &mut out, false, None);
        assert!(kernel_stats().gemm_flops >= before.gemm_flops + 2 * 8 * 8 * 8);
    }

    #[test]
    fn cost_model_gates_small_shapes_sequential() {
        // 64×64×128 = 1 MFLOP — far below any sane per-share minimum; with a
        // multi-thread budget the gate must still choose 1 share and count
        // the fallback.
        let _g = crate::pool::TEST_POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = crate::pool::current_threads();
        crate::pool::set_threads(8);
        set_hardware_parallelism(8);
        let small = plan_shares(64, MR, 2 * 64 * 64 * 128);
        assert_eq!(small, 1, "tiny GEMM must not be split");
        let fell_back = kernel_stats().seq_fallback;
        let _ = plan_shares(64, MR, 2 * 64 * 64 * 128);
        assert!(kernel_stats().seq_fallback > fell_back, "gated call counts as seq_fallback");
        // A big GEMM gets more shares, but never more than the budget or
        // what the per-share minimum allows.
        let big_flops = 2u64 * 128 * 768 * 3072;
        let big = plan_shares(128, MR, big_flops);
        assert!(big > 1, "large GEMM should parallelize");
        assert!(big as u64 <= big_flops / min_flops_per_share() + 1);
        // On a host with a single core the hardware cap wins regardless of
        // the thread budget: oversubscribed shares can't run concurrently.
        set_hardware_parallelism(1);
        assert_eq!(plan_shares(128, MR, big_flops), 1, "1-core host never splits");
        set_hardware_parallelism(0);
        crate::pool::set_threads(before);
    }

    #[test]
    fn ulp_diff_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(-1.0, f32::from_bits((-1.0f32).to_bits() + 1)), 1);
        assert_eq!(ulp_diff(f32::NAN, 1.0), u64::MAX);
        // Straddling zero: distance is the sum of distances to zero.
        let tiny = f32::from_bits(1);
        assert_eq!(ulp_diff(tiny, -tiny), 2);
    }
}
