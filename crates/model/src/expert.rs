//! Expert feed-forward network with flat parameter serialization.
//!
//! Experts are the unit SYMI replicates and re-places: their parameters
//! must round-trip through flat `f32` buffers because that is what the
//! optimizer shards, the gradient-collection phase gathers, and the
//! weight-communication phase scatters.
//!
//! The gradient never round-trips: it *is* one flat `[W1 | b1 | W2 | b2]`
//! buffer per expert, allocated once, stored as the weights' type says
//! ([`WeightStorage::Grad`]): f32 for f32 weights, and for binary16 ones —
//! the engines' slots — binary16 bits under one power-of-two exponent per
//! backward ([`ScaledHalf`]), §3.1's 2 B/param gradient, narrowed as the
//! weight-gradient GEMMs store it. Backward writes it; from then until
//! the next backward it is read-only and shared ([`ExpertFfn::shared_grads`]):
//! the §4.1 replica sync and Algorithm 2's collect send views of it, and
//! Adam sums and steps from it where it lies. Nothing copies it in between.
//! The next backward takes the buffer back once every view is gone, and
//! writes a fresh one only if a view is still alive
//! ([`ExpertFfn::grad_fallbacks`]).
//!
//! W1 and W2 are stored as the type parameter says ([`WeightStorage`]): f32
//! by default, or binary16 — §3.1's 2 B/param, what the engines' slots hold.
//! The GEMMs read a binary16 W where it lies, and the weight scatter's
//! binary16 shards are copied into it.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;
use symi_telemetry::TelemetryHandle;
use symi_tensor::half::{decode, encode, grad_exponent, max_abs};
use symi_tensor::ops::{
    gelu_backward_from_tanh_in_place, gelu_backward_from_tanh_into, gelu_from_tanh_into,
    gelu_from_tanh_max_into, linear_gelu_tanh_into,
};
use symi_tensor::rng::{Distribution, Normal, StdRng};
use symi_tensor::{BOperand, Dest, HalfMatrix, Matrix, ScaledHalf};

thread_local! {
    /// Two `rows × d_ff` scratch matrices: the activation `gelu(pre)`, which
    /// both passes rebuild from the cached `tanh` term, and `dL/d act`;
    /// backward leaves `dL/d pre` in one of them. They are dead outside one
    /// [`ExpertFfn::forward_into`] / [`ExpertFfn::backward_into`] call, so a
    /// thread's experts share one pair sized by its largest batch instead of
    /// each keeping its own high-water mark.
    static SCRATCH: RefCell<(Matrix, Matrix)> =
        RefCell::new((Matrix::zeros(0, 0), Matrix::zeros(0, 0)));
}

/// What an expert's backward writes its flat gradient from, one row per
/// token: the input `x`, the cached pre-activation `pre` and its `tanh` term
/// `t`, and the upstream gradient `dy`. The four blocks are `W1: xᵀ·dpre`,
/// `b1: Σ dpre`, `W2: actᵀ·dy` and `b2: Σ dy`, with `act = gelu(pre)` and
/// `dpre = dL/dpre`.
pub struct BackwardInputs<'a> {
    pub x: &'a Matrix,
    pub pre: &'a Matrix,
    pub t: &'a Matrix,
    pub dy: &'a Matrix,
}

impl BackwardInputs<'_> {
    /// Element counts of the flat layout's blocks `[W1, b1, W2]` (`b2` is
    /// the rest).
    fn blocks(&self) -> [usize; 3] {
        let (d, ff) = (self.x.cols(), self.pre.cols());
        [d * ff, ff, ff * d]
    }
}

/// An a-priori bound on every element of the gradient of `rows` token rows,
/// from its four factors' largest magnitudes `[x, act, dy, dpre]`:
/// `rows · max(|x|·|dpre|, |act|·|dy|, |dpre|, |dy|)` — each element is a
/// sum of `rows` products, or of `rows` values. NaN if a factor holds a
/// non-finite value.
pub fn grad_bound(rows: usize, maxima: [f32; 4]) -> f64 {
    let [x, act, dy, dpre] = maxima.map(f64::from);
    let terms = [x * dpre, act * dy, dpre, dy];
    if !terms.iter().all(|t| t.is_finite()) {
        return f64::NAN;
    }
    rows as f64 * terms.into_iter().fold(0.0, f64::max)
}

/// How an expert's flat gradient rests between backward and its readers.
pub trait GradStorage: Send + Sync + 'static {
    /// `len` elements of `+0.0`.
    fn zeros(len: usize) -> Self;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Bytes the elements occupy.
    fn bytes(&self) -> usize;
    /// Sets every element to `+0.0`.
    fn fill_zero(&mut self);
    /// The values as f32 (a copy; exact).
    fn values(&self) -> Vec<f32>;
    /// Writes the gradient — or, with `acc`, adds it to what the buffer
    /// holds — and returns whichever of the two scratch matrices it left
    /// `dL/dpre` in (for the input gradient). On entry `dact` holds
    /// `dL/d act = dy·W2ᵀ`; `act` is scratch, for `gelu(pre)`.
    fn write<'m>(
        &mut self,
        b: &BackwardInputs<'_>,
        act: &'m mut Matrix,
        dact: &'m mut Matrix,
        acc: bool,
    ) -> &'m Matrix;
}

impl GradStorage for Vec<f32> {
    fn zeros(len: usize) -> Self {
        vec![0.0; len]
    }
    fn len(&self) -> usize {
        self.len()
    }
    fn bytes(&self) -> usize {
        4 * self.len()
    }
    fn fill_zero(&mut self) {
        self.fill(0.0);
    }
    fn values(&self) -> Vec<f32> {
        self.clone()
    }
    fn write<'m>(
        &mut self,
        b: &BackwardInputs<'_>,
        act: &'m mut Matrix,
        dact: &'m mut Matrix,
        acc: bool,
    ) -> &'m Matrix {
        let [w1, b1, _] = b.blocks();
        let (w1_grad, rest) = self.split_at_mut(w1);
        let (b1_grad, rest) = rest.split_at_mut(b1);
        let (w2_grad, b2_grad) = rest.split_at_mut(w1);
        gelu_from_tanh_into(b.pre, b.t, act);
        act.matmul_tn_slice(b.dy, w2_grad, acc);
        b.dy.sum_rows_slice(b2_grad, acc);
        let dpre = act;
        gelu_backward_from_tanh_into(b.pre, b.t, dact, dpre);
        b.x.matmul_tn_slice(dpre, w1_grad, acc);
        dpre.sum_rows_slice(b1_grad, acc);
        dpre
    }
}

/// An engine slot's gradient: binary16 at 2 B/param under one exponent
/// `s`, picked from [`grad_bound`] ([`grad_exponent`]: the largest `s` with
/// `bound·2^s ≤ 2^15`) before either weight-gradient GEMM runs, so no
/// element can narrow to ±inf. Each GEMM narrows its f32 FMA chains ×2^s as
/// it stores them, and the bias sums narrow a stack block at a time: no f32
/// copy of the gradient exists, and no pass runs over it.
impl GradStorage for ScaledHalf {
    fn zeros(len: usize) -> Self {
        ScaledHalf::zeros(len)
    }
    fn len(&self) -> usize {
        self.len()
    }
    fn bytes(&self) -> usize {
        2 * self.len()
    }
    fn fill_zero(&mut self) {
        let (bits, exp) = self.parts_mut();
        bits.fill(0);
        *exp = 0;
    }
    fn values(&self) -> Vec<f32> {
        self.to_f32()
    }
    /// The activation and `dL/dpre` (in place over `dL/d act`) are formed
    /// first, their largest magnitudes folded into those two passes.
    ///
    /// # Panics
    /// Panics with `acc`: a binary16 gradient is written once per
    /// [`ExpertFfn::zero_grad`] — one backward per class and iteration,
    /// every token row of the class in it.
    fn write<'m>(
        &mut self,
        b: &BackwardInputs<'_>,
        act: &'m mut Matrix,
        dact: &'m mut Matrix,
        acc: bool,
    ) -> &'m Matrix {
        assert!(!acc, "a binary16 gradient is written once per zero_grad, never accumulated");
        let act_max = gelu_from_tanh_max_into(b.pre, b.t, act);
        let dpre = dact;
        let dpre_max = gelu_backward_from_tanh_in_place(b.pre, b.t, dpre);
        let [x_max, dy_max] = [b.x, b.dy].map(|f| max_abs(f.as_slice()));
        let s = grad_exponent(grad_bound(b.dy.rows(), [x_max, act_max, dy_max, dpre_max]));
        let [w1, b1, _] = b.blocks();
        let (bits, exp) = self.parts_mut();
        *exp = s;
        let (w1_grad, rest) = bits.split_at_mut(w1);
        let (b1_grad, rest) = rest.split_at_mut(b1);
        let (w2_grad, b2_grad) = rest.split_at_mut(w1);
        b.x.matmul_tn_half(dpre, w1_grad, s);
        dpre.sum_rows_half(b1_grad, s);
        act.matmul_tn_half(b.dy, w2_grad, s);
        b.dy.sum_rows_half(b2_grad, s);
        dpre
    }
}

/// How a parameter matrix of an [`ExpertFfn`] is stored: f32 [`Matrix`]
/// (the biases always; the weights of the `Trainer`'s experts), or binary16
/// [`HalfMatrix`] (the engines' slot weights). Offsets and lengths count
/// elements of the row-major matrix.
pub trait ParamStorage: BOperand {
    /// Bytes the elements occupy.
    fn bytes(&self) -> usize;
    /// Sets elements `at ..` from f32 values (binary16 storage rounds them
    /// to nearest even; exact on the fp16 grid).
    fn load_f32_at(&mut self, at: usize, src: &[f32]);
    /// Sets elements `at ..` from binary16 bits: a copy into binary16
    /// storage, an exact decode into f32.
    fn load_f16_at(&mut self, at: usize, src: &[u16]);
    /// Elements `at .. at + out.len()` as f32 (exact), into `out`.
    fn read_f32_at(&self, at: usize, out: &mut [f32]);
    /// Elements `at .. at + len` as a place an Adam step publishes to:
    /// binary16 storage as its bits, f32 storage as values on the fp16 grid
    /// — what [`ParamStorage::load_f16_at`] of the same bits would leave.
    fn dest(&mut self, at: usize, len: usize) -> Dest<'_>;
}

/// How an [`ExpertFfn`]'s two weight matrices are stored, and with them its
/// gradient: f32 weights keep an f32 gradient, binary16 weights a binary16
/// one ([`GradStorage`]).
pub trait WeightStorage: ParamStorage {
    /// How an expert with these weights keeps its flat gradient.
    type Grad: GradStorage;
    /// A `rows × cols` matrix of `+0.0`.
    fn zeros(rows: usize, cols: usize) -> Self;
}

impl WeightStorage for Matrix {
    type Grad = Vec<f32>;
    fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::zeros(rows, cols)
    }
}

impl ParamStorage for Matrix {
    fn bytes(&self) -> usize {
        4 * self.len()
    }
    fn load_f32_at(&mut self, at: usize, src: &[f32]) {
        self.as_mut_slice()[at..at + src.len()].copy_from_slice(src);
    }
    fn load_f16_at(&mut self, at: usize, src: &[u16]) {
        decode(src, &mut self.as_mut_slice()[at..at + src.len()]);
    }
    fn read_f32_at(&self, at: usize, out: &mut [f32]) {
        out.copy_from_slice(&self.as_slice()[at..at + out.len()]);
    }
    fn dest(&mut self, at: usize, len: usize) -> Dest<'_> {
        Dest::Grid(&mut self.as_mut_slice()[at..at + len])
    }
}

impl WeightStorage for HalfMatrix {
    type Grad = ScaledHalf;
    fn zeros(rows: usize, cols: usize) -> Self {
        HalfMatrix::zeros(rows, cols)
    }
}

impl ParamStorage for HalfMatrix {
    fn bytes(&self) -> usize {
        2 * self.len()
    }
    fn load_f32_at(&mut self, at: usize, src: &[f32]) {
        encode(src, &mut self.as_bits_mut()[at..at + src.len()]);
    }
    fn load_f16_at(&mut self, at: usize, src: &[u16]) {
        self.as_bits_mut()[at..at + src.len()].copy_from_slice(src);
    }
    fn read_f32_at(&self, at: usize, out: &mut [f32]) {
        decode(&self.as_bits()[at..at + out.len()], out);
    }
    fn dest(&mut self, at: usize, len: usize) -> Dest<'_> {
        Dest::Half(&mut self.as_bits_mut()[at..at + len])
    }
}

/// A two-layer GELU FFN: `y = gelu(x·W1 + b1)·W2 + b2`, its weights and
/// gradient stored as `W` says ([`WeightStorage`]; biases and caches are
/// f32 either way).
///
/// Forward/backward run on the blocked kernels through persistent caches
/// and per-thread scratch buffers (`*_into` entry points), so a steady-state
/// training step performs no heap allocation inside the expert. The forward
/// caches GELU's inner term `t = tanh(c·(x + a·x³))` of the pre-activation
/// instead of the activation: the activation is `0.5·pre·(1 + t)`, rebuilt
/// with [`symi_tensor::vmath::gelu`]'s own operations wherever it is needed,
/// and backward's GELU′ reads `t` rather than evaluating `tanh` again.
pub struct ExpertFfn<W: WeightStorage = Matrix> {
    pub w1: W,
    pub b1: Matrix,
    pub w2: W,
    pub b2: Matrix,
    /// The gradient, flat in the parameters' layout `[W1 | b1 | W2 | b2]`.
    /// Written by backward only, and only while no view shares it.
    grad: Arc<W::Grad>,
    /// Set by [`ExpertFfn::zero_grad`]: the gradient is all `+0.0` although
    /// `grad` still holds the previous step's values. The next backward
    /// overwrites them; any other reader zero-fills first.
    grad_zero: bool,
    /// Backward passes that found a view of the gradient still alive and
    /// wrote a fresh buffer instead.
    grad_fallbacks: u64,
    cached_x: Matrix,
    cached_pre: Matrix,
    /// `gelu_tanh(cached_pre)`.
    cached_tanh: Matrix,
}

/// An expert's four parameters, mutable, in the flat layout's order
/// `[W1 | b1 | W2 | b2]` ([`ExpertFfn::params_mut`]).
pub struct ParamsMut<'a>([&'a mut dyn ParamStorage; 4]);

/// Where flat elements `a` and `b` meet (an empty range when they do not).
fn meet(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    a.start.max(b.start)..a.end.min(b.end)
}

/// Calls `f(i, at, lo, hi)` for each of four parameters of `lens` elements,
/// laid out back to back, that elements `offset .. end` of the flat layout
/// overlap: parameter `i`'s own elements from `at`, the range's `lo .. hi`.
fn for_overlaps(
    lens: [usize; 4],
    offset: usize,
    end: usize,
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    assert!(end <= lens.iter().sum(), "range past the params");
    let mut base = 0;
    for (i, len) in lens.into_iter().enumerate() {
        let m = meet(offset..end, base..base + len);
        if !m.is_empty() {
            f(i, m.start - base, m.start - offset, m.end - offset);
        }
        base += len;
    }
}

/// Copies into `out` — flat elements from `start` — the part of `block` —
/// flat elements from `offset` — that falls in it: how a consumer of
/// [`init_params_in_blocks`] keeps one range of the stream.
pub fn copy_overlap(offset: usize, block: &[f32], start: usize, out: &mut [f32]) {
    let m = meet(offset..offset + block.len(), start..start + out.len());
    if !m.is_empty() {
        out[m.start - start..m.end - start]
            .copy_from_slice(&block[m.start - offset..m.end - offset]);
    }
}

impl ParamsMut<'_> {
    /// Calls `f(param, at, lo, hi)` for each parameter that elements
    /// `offset .. end` of the flat layout overlap: its own elements from
    /// `at`, the range's `lo .. hi`.
    fn for_range(
        &mut self,
        offset: usize,
        end: usize,
        mut f: impl FnMut(&mut dyn ParamStorage, usize, usize, usize),
    ) {
        let lens = self.0.each_ref().map(|p| p.rows() * p.cols());
        for_overlaps(lens, offset, end, |i, at, lo, hi| f(&mut *self.0[i], at, lo, hi));
    }

    /// Calls `publish(start, dest)` for each parameter that elements
    /// `offset .. end` of the flat layout overlap, `dest` being its storage
    /// of flat elements `start .. start + dest.len()`
    /// ([`ParamStorage::dest`]) — where the weight scatter's Adam step
    /// writes this rank's own chunk of a class it hosts.
    pub fn dests(&mut self, offset: usize, end: usize, mut publish: impl FnMut(usize, Dest<'_>)) {
        self.for_range(offset, end, |param, at, lo, hi| {
            publish(offset + lo, param.dest(at, hi - lo));
        });
    }
}

/// Scalar parameters of a `d_model × d_ff` expert, the length of its flat
/// `[W1 | b1 | W2 | b2]`: `2·d_model·d_ff + d_ff + d_model`.
pub fn param_count(d_model: usize, d_ff: usize) -> usize {
    2 * d_model * d_ff + d_ff + d_model
}

/// Elements per block of [`init_params_in_blocks`].
pub const INIT_BLOCK: usize = 4096;

/// The canonical initial flat parameters `[W1 | b1 | W2 | b2]` of a
/// `d_model × d_ff` expert drawn from `seed` — Kaiming-normal weights, zero
/// biases, what [`ExpertFfn::new`] holds — front to back, as
/// `sink(offset, block)` calls of at most [`INIT_BLOCK`] elements each, so
/// never more than one block of them is in memory.
pub fn init_params_in_blocks(
    d_model: usize,
    d_ff: usize,
    seed: u64,
    mut sink: impl FnMut(usize, &[f32]),
) {
    // Kaiming/He normal: std `sqrt(2 / fan_in)`.
    let kaiming =
        |fan_in: usize| Normal::new(0.0f32, (2.0 / fan_in as f32).sqrt()).expect("finite std");
    let mut rng = StdRng::seed_from_u64(seed);
    // Each section's length and distribution, in the flat order; the
    // biases are zeros and draw nothing.
    let sections = [
        (d_model * d_ff, Some(kaiming(d_model))),
        (d_ff, None),
        (d_ff * d_model, Some(kaiming(d_ff))),
        (d_model, None),
    ];
    let mut block = Vec::with_capacity(INIT_BLOCK.min(param_count(d_model, d_ff)));
    let mut offset = 0;
    for (len, dist) in sections {
        for _ in 0..len {
            block.push(dist.map_or(0.0, |d| d.sample(&mut rng)));
            if block.len() == INIT_BLOCK {
                sink(offset, &block);
                offset += INIT_BLOCK;
                block.clear();
            }
        }
    }
    if !block.is_empty() {
        sink(offset, &block);
    }
}

/// Elements `start .. start + out.len()` of [`init_params_in_blocks`]'
/// stream, into `out`, without the rest of it.
pub fn init_params_range(d_model: usize, d_ff: usize, seed: u64, start: usize, out: &mut [f32]) {
    assert!(start + out.len() <= param_count(d_model, d_ff), "range past the params");
    init_params_in_blocks(d_model, d_ff, seed, |offset, block| {
        copy_overlap(offset, block, start, out);
    });
}

impl ExpertFfn {
    /// An f32 expert with Kaiming-normal weights drawn from `seed` and zero
    /// biases: [`init_params_in_blocks`]' stream, loaded.
    pub fn new(d_model: usize, d_ff: usize, seed: u64) -> Self {
        let mut expert = Self::zeros(d_model, d_ff);
        init_params_in_blocks(d_model, d_ff, seed, |offset, block| {
            let load = |param: &mut dyn ParamStorage, at, lo, hi| {
                param.load_f32_at(at, &block[lo..hi]);
            };
            expert.params_mut().for_range(offset, offset + block.len(), load);
        });
        expert
    }
}

impl<W: WeightStorage> ExpertFfn<W> {
    /// An expert whose parameters are all `+0.0`, to be loaded
    /// ([`ExpertFfn::load_f16_at`], [`ExpertFfn::load_flat`]).
    pub fn zeros(d_model: usize, d_ff: usize) -> Self {
        Self::with_weights(W::zeros(d_model, d_ff), W::zeros(d_ff, d_model))
    }

    fn with_weights(w1: W, w2: W) -> Self {
        let (d_model, d_ff) = (w1.rows(), w1.cols());
        Self {
            w1,
            b1: Matrix::zeros(1, d_ff),
            w2,
            b2: Matrix::zeros(1, d_model),
            grad: Arc::new(W::Grad::zeros(param_count(d_model, d_ff))),
            grad_zero: true,
            grad_fallbacks: 0,
            cached_x: Matrix::zeros(0, 0),
            cached_pre: Matrix::zeros(0, 0),
            cached_tanh: Matrix::zeros(0, 0),
        }
    }

    pub fn d_model(&self) -> usize {
        self.w1.rows()
    }

    pub fn d_ff(&self) -> usize {
        self.w1.cols()
    }

    /// Total scalar parameters (`2·d·d_ff + d_ff + d`).
    pub fn param_count(&self) -> usize {
        self.grad.len()
    }

    /// Bytes the parameters occupy: `2·(W1 + W2) + 4·(b1 + b2)` for
    /// binary16 weights, `4·` everything for f32 ones.
    pub fn param_bytes(&self) -> usize {
        self.params().iter().map(|p| p.bytes()).sum()
    }

    /// The four parameters in the flat layout's order `[W1 | b1 | W2 | b2]`.
    fn params(&self) -> [&dyn ParamStorage; 4] {
        [&self.w1, &self.b1, &self.w2, &self.b2]
    }

    /// The four parameters, mutable.
    pub fn params_mut(&mut self) -> ParamsMut<'_> {
        ParamsMut([&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2])
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass into a reusable output buffer. The fused
    /// `linear_gelu_tanh` kernel fills the pre-activation and `tanh` caches
    /// in one pass; the activation is built from them in the thread's
    /// scratch for the second GEMM.
    pub fn forward_into(&mut self, x: &Matrix, y: &mut Matrix) {
        linear_gelu_tanh_into(x, &self.w1, &self.b1, &mut self.cached_pre, &mut self.cached_tanh);
        SCRATCH.with_borrow_mut(|(act, _)| {
            gelu_from_tanh_into(&self.cached_pre, &self.cached_tanh, act);
            act.matmul_bias_into(&self.w2, &self.b2, y);
        });
        self.cached_x.copy_from(x);
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(dy, Some(&mut dx));
        dx
    }

    /// Backward pass: the flat gradient, and `dL/dx` into `dx` when the
    /// caller wants it ([`GradStorage::write`] writes the gradient's four
    /// blocks). `None` skips only the last GEMM
    /// (`dpre · W1ᵀ`), for a caller whose input has no trainable layer
    /// upstream; every gradient element is the same bits either way. The
    /// first call after [`zero_grad`] *writes* the flat gradient — every
    /// element the fold from `+0.0`, bit for bit what zero-filling and
    /// accumulating gives, without the fill or the read-back — and later
    /// calls accumulate into it (an f32 gradient only:
    /// [`GradStorage::write`]).
    ///
    /// [`zero_grad`]: ExpertFfn::zero_grad
    ///
    /// # Panics
    /// Panics if it would accumulate into a gradient a view still reads
    /// ([`ExpertFfn::shared_grads`]): views are taken of a finished gradient.
    pub fn backward_into(&mut self, dy: &Matrix, dx: Option<&mut Matrix>) {
        let acc = !std::mem::take(&mut self.grad_zero);
        if !acc {
            self.reclaim_grads();
        }
        let grad = Arc::get_mut(&mut self.grad).expect("a view still reads the gradient");
        let (pre, t) = (&self.cached_pre, &self.cached_tanh);
        SCRATCH.with_borrow_mut(|(act, dact)| {
            dy.matmul_nt_into(&self.w2, dact);
            let inputs = BackwardInputs { x: &self.cached_x, pre, t, dy };
            let dpre = grad.write(&inputs, act, dact, acc);
            if let Some(dx) = dx {
                dpre.matmul_nt_into(&self.w1, dx);
            }
        });
    }

    /// Parameters as one flat buffer: `[W1 | b1 | W2 | b2]`.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.param_count()];
        self.read_params_at(0, &mut out);
        out
    }

    /// Parameters `offset .. offset + out.len()` of the flat layout as f32
    /// (exact), into `out`: a range of [`ExpertFfn::flat_params`] without
    /// the rest of it.
    ///
    /// # Panics
    /// Panics if the range runs past [`ExpertFfn::param_count`].
    pub fn read_params_at(&self, offset: usize, out: &mut [f32]) {
        let params = self.params();
        let lens = params.map(|p| p.rows() * p.cols());
        for_overlaps(lens, offset, offset + out.len(), |i, at, lo, hi| {
            params[i].read_f32_at(at, &mut out[lo..hi]);
        });
    }

    /// The gradient in the parameters' flat layout — the buffer backward
    /// writes, not a copy of it. `&mut self` because a gradient still marked
    /// zero by [`ExpertFfn::zero_grad`] is zero-filled before it is handed
    /// out: no reader ever sees the previous step's values.
    pub fn flat_grads(&mut self) -> &W::Grad {
        self.shared_grads()
    }

    /// [`ExpertFfn::flat_grads`]' values as f32 (a copy; binary16 widened
    /// and unscaled, exactly).
    pub fn grad_values(&mut self) -> Vec<f32> {
        self.flat_grads().values()
    }

    /// Bytes the gradient buffer occupies: 4 per parameter for an f32
    /// gradient, 2 for a binary16 one.
    pub fn grad_bytes(&self) -> usize {
        self.grad.bytes()
    }

    /// [`ExpertFfn::flat_grads`] as the shared buffer itself: a sender
    /// clones the `Arc` into read-only views of it, which the next backward
    /// waits for no one to drop ([`ExpertFfn::grad_fallbacks`]).
    pub fn shared_grads(&mut self) -> &Arc<W::Grad> {
        if std::mem::take(&mut self.grad_zero) {
            self.reclaim_grads().fill_zero();
        }
        &self.grad
    }

    /// [`ExpertFfn::flat_grads`], mutable.
    ///
    /// # Panics
    /// Panics if a view of the gradient is alive.
    pub fn flat_grads_mut(&mut self) -> &mut W::Grad {
        if std::mem::take(&mut self.grad_zero) {
            self.reclaim_grads().fill_zero();
        }
        self.owned_grads()
    }

    /// The gradient buffer, for a pass that adds to what it holds.
    fn owned_grads(&mut self) -> &mut W::Grad {
        Arc::get_mut(&mut self.grad).expect("a view still reads the gradient")
    }

    /// The gradient buffer, for a pass that overwrites every element: this
    /// expert's own again once every view of it is gone, else a fresh one —
    /// counted, and nothing copied into it.
    fn reclaim_grads(&mut self) -> &mut W::Grad {
        if Arc::get_mut(&mut self.grad).is_none() {
            self.grad_fallbacks += 1;
            self.grad = Arc::new(W::Grad::zeros(self.grad.len()));
        }
        self.owned_grads()
    }

    /// How many times a backward or a zero-fill found a view of the
    /// gradient still alive and took a fresh buffer instead of the shared
    /// one. A steady engine run leaves it at 0: every view is dropped before
    /// the peer's next backward can start.
    pub fn grad_fallbacks(&self) -> u64 {
        self.grad_fallbacks
    }

    /// Whether the gradient is known to be all `+0.0` without looking at it:
    /// [`ExpertFfn::zero_grad`] ran and neither a backward nor a reader has
    /// touched it since (an expert whose set received no token row).
    pub fn grad_is_zero(&self) -> bool {
        self.grad_zero
    }

    /// Loads parameters from a flat buffer produced by [`flat_params`]
    /// (binary16 weights round each value to nearest even).
    ///
    /// # Panics
    /// Panics if the buffer length differs from [`param_count`].
    ///
    /// [`flat_params`]: ExpertFfn::flat_params
    /// [`param_count`]: ExpertFfn::param_count
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count(), "flat parameter length mismatch");
        let load = |param: &mut dyn ParamStorage, at, lo, hi| param.load_f32_at(at, &flat[lo..hi]);
        self.params_mut().for_range(0, flat.len(), load);
    }

    /// Loads binary16 `half` into parameters `offset .. offset + half.len()`
    /// of the flat layout `[W1 | b1 | W2 | b2]` — the sink of the weight
    /// scatter: each received shard lands in the matrices it belongs to
    /// without a flat staging vector in between. Binary16 weights take the
    /// bits as they are (a copy); f32 ones and the biases decode them
    /// (exactly), the same values as [`load_flat`] of the decoded buffer.
    ///
    /// # Panics
    /// Panics if the range runs past [`param_count`].
    ///
    /// [`load_flat`]: ExpertFfn::load_flat
    /// [`param_count`]: ExpertFfn::param_count
    pub fn load_f16_at(&mut self, offset: usize, half: &[u16]) {
        let end = offset + half.len();
        assert!(end <= self.param_count(), "f16 shard runs past the parameters");
        let load = |param: &mut dyn ParamStorage, at, lo, hi| param.load_f16_at(at, &half[lo..hi]);
        self.params_mut().for_range(offset, end, load);
    }

    /// Marks the gradient zero without touching its memory (see
    /// [`ExpertFfn::backward_into`] and [`ExpertFfn::flat_grads`] for who
    /// pays for the zeros, and when nobody has to).
    pub fn zero_grad(&mut self) {
        self.grad_zero = true;
    }
}

/// Persistent per-class I/O of a distributed engine's expert phase.
///
/// A rank hosts a fixed number of expert slots, and the slots that hold the
/// same class are one *set*: one [`ExpertFfn`] executes them as one batch.
/// Every iteration each set is fed the token rows the dispatch all-to-all
/// delivered for any of its slots, the outputs go back in each source's send
/// order, and later the backward pass runs on the upstream gradients that
/// arrive in that same order. The input, output and gradient matrices live
/// here across iterations and the dispatch rows are assembled straight into
/// them, so at a steady batch shape the assemble → forward → backward section
/// performs no heap allocation and no copy beyond the one that places each
/// row (`tests/slot_batches.rs`).
pub struct SlotBatches {
    d_model: usize,
    /// One per set; set `g` is the `g`-th distinct class among the slots.
    io: Vec<SetIo>,
    /// The set each local slot belongs to.
    set_of_slot: Vec<usize>,
    /// `routing[src][j]` = (set, row) of source rank `src`'s `j`-th
    /// dispatched token.
    routing: Vec<Vec<(usize, usize)>>,
}

struct SetIo {
    x: Matrix,
    y: Matrix,
    dy: Matrix,
}

impl SlotBatches {
    /// `slots` local slots, each a set of its own until
    /// [`SlotBatches::regroup`] says otherwise.
    pub fn new(slots: usize, d_model: usize) -> Self {
        let empty = || Matrix::zeros(0, d_model);
        let io = (0..slots).map(|_| SetIo { x: empty(), y: empty(), dy: empty() }).collect();
        Self { d_model, io, set_of_slot: (0..slots).collect(), routing: Vec::new() }
    }

    /// Local slots per rank.
    pub fn slots(&self) -> usize {
        self.set_of_slot.len()
    }

    /// Groups the local slots into sets by the class each holds
    /// (`class_of(local slot)`), sets numbered in order of first appearance.
    pub fn regroup(&mut self, class_of: impl Fn(usize) -> usize) {
        let mut sets = 0;
        for local in 0..self.set_of_slot.len() {
            let twin = (0..local).find(|&earlier| class_of(earlier) == class_of(local));
            self.set_of_slot[local] = twin.map_or(sets, |twin| self.set_of_slot[twin]);
            sets += usize::from(twin.is_none());
        }
    }

    /// Assembles the dispatched token rows into the per-set input matrices,
    /// in arrival order (source rank ascending, then send order).
    /// `meta[src][j]` is the global slot id of the row
    /// `rows[src][j·d .. (j+1)·d]`; `first_slot` is this rank's first global
    /// slot.
    pub fn assemble_inputs(&mut self, first_slot: usize, meta: &[Vec<u64>], rows: &[Vec<f32>]) {
        let d = self.d_model;
        for io in &mut self.io {
            io.x.resize_to(0, d);
        }
        self.routing.resize_with(meta.len(), Vec::new);
        for ((route, meta), rows) in self.routing.iter_mut().zip(meta).zip(rows) {
            route.clear();
            for (j, &slot_id) in meta.iter().enumerate() {
                let set = self.set_of_slot[slot_id as usize - first_slot];
                let x = &mut self.io[set].x;
                let row = x.rows();
                x.resize_to(row + 1, d);
                x.row_mut(row).copy_from_slice(&rows[j * d..(j + 1) * d]);
                route.push((set, row));
            }
        }
    }

    /// Runs every set's expert (`experts[g]` for set `g`) on its assembled
    /// input; a set that received no row is skipped, and needs no expert.
    ///
    /// # Panics
    /// Panics if a set that received rows has no expert.
    pub fn forward<W: WeightStorage>(&mut self, experts: &mut [ExpertFfn<W>]) {
        for (g, io) in self.io.iter_mut().enumerate() {
            if io.x.rows() == 0 {
                io.y.resize_to(0, self.d_model);
            } else {
                let Some(expert) = experts.get_mut(g) else {
                    panic!("set {g} received rows but has no expert")
                };
                expert.forward_into(&io.x, &mut io.y);
            }
        }
    }

    /// Publishes how much expert work this rank drew this iteration as the
    /// per-rank gauges `expert_sets.rank{r}` (sets — distinct hosted classes
    /// — that were fed at least one token row, i.e. GEMM sets run) and
    /// `expert_rows.rank{r}` (rows over all sets): an uneven expert phase is
    /// per-rank load before it is per-rank speed.
    pub fn publish_load(&self, telemetry: &TelemetryHandle) {
        let rank = telemetry.rank();
        let rows = || self.io.iter().map(|io| io.x.rows());
        let sets = rows().filter(|&r| r > 0).count();
        telemetry.gauge(&format!("expert_sets.rank{rank}")).set(sets as f64);
        telemetry.gauge(&format!("expert_rows.rank{rank}")).set(rows().sum::<usize>() as f64);
    }

    /// Appends the outputs owed to source rank `src`, in its send order.
    pub fn append_outputs(&self, src: usize, out: &mut Vec<f32>) {
        for &(set, row) in &self.routing[src] {
            out.extend_from_slice(self.io[set].y.row(row));
        }
    }

    /// Scatters the returned upstream gradients (`grads[src]` in source
    /// `src`'s send order) into the per-set `dy` matrices.
    pub fn assemble_grads(&mut self, grads: &[Vec<f32>]) {
        let d = self.d_model;
        for io in &mut self.io {
            io.dy.resize_to(io.x.rows(), d);
        }
        for (route, grads) in self.routing.iter().zip(grads) {
            for (j, &(set, row)) in route.iter().enumerate() {
                self.io[set].dy.row_mut(row).copy_from_slice(&grads[j * d..(j + 1) * d]);
            }
        }
    }

    /// Marks every expert's gradient zero and backpropagates each set's
    /// assembled upstream gradient into its expert's: one write-mode pass
    /// per class, so the sum over a class's co-located slots is the `tn`
    /// GEMM's own accumulation over the merged rows. A set that received no
    /// row keeps its gradient marked ([`ExpertFfn::grad_is_zero`]). Only the
    /// weight gradient is computed: the dispatched rows have no trainable
    /// layer upstream, so no input gradient is formed.
    pub fn backward<W: WeightStorage>(&mut self, experts: &mut [ExpertFfn<W>]) {
        for (io, expert) in self.io.iter_mut().zip(experts) {
            expert.zero_grad();
            if io.dy.rows() > 0 {
                expert.backward_into(&io.dy, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_tensor::gradcheck::numerical_grad;

    #[test]
    fn backward_matches_numeric() {
        let mut e = ExpertFfn::new(6, 10, 5);
        let x = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32 * 0.29).sin());
        let dy = Matrix::from_fn(4, 6, |r, c| ((r + c) as f32 * 0.17).cos());

        let _ = e.forward(&x);
        let dx = e.backward(&dy);

        let mut probe = ExpertFfn::new(6, 10, 5);
        let ndx = numerical_grad(&x, &dy, |xp| probe.forward(xp));
        assert!(dx.max_abs_diff(&ndx) < 2e-2, "dx diff {}", dx.max_abs_diff(&ndx));

        // Spot-check W2's gradient numerically too.
        let w2 = e.w2.clone();
        let ndw2 = numerical_grad(&w2, &dy, |wp| {
            let mut p = ExpertFfn::new(6, 10, 5);
            p.w2 = wp.clone();
            p.forward(&x)
        });
        let w2_at = e.w1.len() + e.b1.len();
        let w2_grad = Matrix::from_vec(10, 6, e.flat_grads()[w2_at..w2_at + w2.len()].to_vec());
        assert!(w2_grad.max_abs_diff(&ndw2) < 2e-2);
    }

    #[test]
    fn flat_round_trip_is_identity() {
        let mut a = ExpertFfn::new(4, 8, 1);
        let b = ExpertFfn::new(4, 8, 2);
        let flat_b = b.flat_params();
        a.load_flat(&flat_b);
        assert_eq!(a.flat_params(), flat_b);
        // Behaviour follows the loaded weights.
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.3);
        let mut b2 = ExpertFfn::new(4, 8, 2);
        assert!(a.forward(&x).max_abs_diff(&b2.forward(&x)) < 1e-6);
    }

    #[test]
    fn f16_shards_land_where_load_flat_would_put_them() {
        use symi_tensor::half::{f16_to_f32, f32_to_f16};
        let mut direct = ExpertFfn::new(4, 8, 1);
        let mut via_flat = ExpertFfn::new(4, 8, 2);
        let n = direct.param_count();
        let half: Vec<u16> = (0..n).map(|i| f32_to_f16((i as f32 * 0.37).sin())).collect();
        via_flat.load_flat(&half.iter().map(|&h| f16_to_f32(h)).collect::<Vec<_>>());
        // Uneven shards whose edges cut through every parameter matrix.
        let cuts = [0, 5, 33, 39, 41, 70, n - 1, n];
        for w in cuts.windows(2) {
            direct.load_f16_at(w[0], &half[w[0]..w[1]]);
        }
        assert_eq!(direct.flat_params(), via_flat.flat_params());
    }

    #[test]
    fn binary16_shards_are_copied_where_load_flat_would_put_them() {
        use symi_tensor::half::f32_to_f16;
        let mut direct = ExpertFfn::<HalfMatrix>::zeros(4, 8);
        let mut via_flat = ExpertFfn::<HalfMatrix>::zeros(4, 8);
        let n = direct.param_count();
        let half: Vec<u16> = (0..n).map(|i| f32_to_f16((i as f32 * 0.37).sin())).collect();
        let mut decoded = vec![0.0; n];
        decode(&half, &mut decoded);
        via_flat.load_flat(&decoded);
        for w in [0, 5, 33, 39, 41, 70, n - 1, n].windows(2) {
            direct.load_f16_at(w[0], &half[w[0]..w[1]]);
        }
        assert_eq!(direct.w1.as_bits(), &half[..32]);
        assert_eq!(direct.w2.as_bits(), &half[40..72]);
        assert_eq!(direct.flat_params(), via_flat.flat_params());
        assert_eq!(direct.flat_params(), decoded);
    }

    #[test]
    fn binary16_weights_compute_what_their_decoded_f32_values_do() {
        let (d, ff) = (6, 20);
        let mut half = ExpertFfn::<HalfMatrix>::zeros(d, ff);
        half.load_flat(&ExpertFfn::new(d, ff, 9).flat_params());
        let mut decoded = ExpertFfn::new(d, ff, 0);
        decoded.load_flat(&half.flat_params());
        assert_eq!(half.param_bytes(), 2 * (2 * d * ff) + 4 * (ff + d));
        assert_eq!(decoded.param_bytes(), 4 * half.param_count());
        // Every GEMM folds a binary16 B as it folds the decoded f32 one, at
        // any row count, so forward and backward agree bit for bit.
        for rows in [3, 40] {
            let x = Matrix::from_fn(rows, d, |r, c| ((r * d + c) as f32 * 0.29).sin());
            let dy = Matrix::from_fn(rows, d, |r, c| ((r + c) as f32 * 0.17).cos());
            assert_eq!(bits(half.forward(&x).as_slice()), bits(decoded.forward(&x).as_slice()));
            let (dx_half, dx_f32) = (half.backward(&dy), decoded.backward(&dy));
            assert_eq!(bits(dx_half.as_slice()), bits(dx_f32.as_slice()), "dx at {rows} rows");
            // The binary16 gradient is the f32 one narrowed, bit for bit.
            let want = decoded.flat_grads().clone();
            let got = half.flat_grads();
            let mut narrowed = vec![0u16; want.len()];
            symi_tensor::half::narrow(&want, got.exp(), &mut narrowed);
            assert_eq!(got.bits(), &narrowed[..], "gradient at {rows} rows");
            half.zero_grad();
            decoded.zero_grad();
        }
    }

    /// A slot's backward narrows the f32 gradient of its factors — what an
    /// f32 gradient buffer would hold, bit for bit — under the exponent the
    /// factors' bound picks: the largest with `bound · 2^s ≤ 2^15`.
    #[test]
    fn a_slot_gradient_is_the_f32_one_narrowed_under_the_bounds_exponent() {
        use symi_tensor::half::narrow;
        use symi_tensor::ops::linear_gelu_tanh_into;
        let (rows, d, ff) = (5, 6, 20);
        let mut slot = ExpertFfn::<HalfMatrix>::zeros(d, ff);
        slot.load_flat(&ExpertFfn::new(d, ff, 9).flat_params());
        let x = Matrix::from_fn(rows, d, |r, c| ((r * d + c) as f32 * 0.29).sin() * 2.0);
        let dy = Matrix::from_fn(rows, d, |r, c| ((r + c) as f32 * 0.17).cos() * 1e-3);
        let _ = slot.forward(&x);
        slot.backward_into(&dy, None);
        // The f32 gradient of the same inputs, and the factors' maxima.
        let [mut pre, mut t, mut act, mut dact] = std::array::from_fn(|_| Matrix::zeros(0, 0));
        linear_gelu_tanh_into(&x, &slot.w1, &slot.b1, &mut pre, &mut t);
        dy.matmul_nt_into(&slot.w2, &mut dact);
        let mut f32_grad = vec![f32::NAN; slot.param_count()];
        let inputs = BackwardInputs { x: &x, pre: &pre, t: &t, dy: &dy };
        let mut activation = Matrix::zeros(0, 0);
        gelu_from_tanh_into(&pre, &t, &mut activation);
        let act_max = max_abs(activation.as_slice());
        let dpre_max = max_abs(f32_grad.write(&inputs, &mut act, &mut dact, false).as_slice());
        let maxima = [max_abs(x.as_slice()), act_max, max_abs(dy.as_slice()), dpre_max];
        let s = grad_exponent(grad_bound(rows, maxima));
        let bound = grad_bound(rows, maxima) * 2f64.powi(s);
        assert!(bound <= 32768.0 && bound * 2.0 > 32768.0, "bound {bound} under 2^{s}");
        let grad = slot.flat_grads();
        assert_eq!(grad.exp(), s, "the bound's exponent");
        let mut want = vec![0u16; f32_grad.len()];
        narrow(&f32_grad, s, &mut want);
        assert_eq!(grad.bits(), &want[..], "the f32 gradient narrowed");
    }

    /// `backward_into(dy, None)` is the `Some` form without its last GEMM:
    /// the same flat gradient bits in write mode and in accumulate mode
    /// over f32 weights, in write mode over binary16 ones (their gradient is
    /// never accumulated); and the `Some` form's `dx` is the allocating
    /// `backward`'s.
    #[test]
    fn weights_only_backward_writes_the_same_gradient() {
        fn check<W: WeightStorage>(make: impl Fn(usize, usize) -> ExpertFfn<W>, modes: usize) {
            // Each row count leaves a row-tile remainder on both x86
            // families (tiles of 6 and 12 rows), on either side of 32 rows.
            for (rows, d, ff) in [(3, 5, 19), (17, 7, 33), (41, 16, 40)] {
                let x = Matrix::from_fn(rows, d, |r, c| ((r * d + c) as f32 * 0.37).sin() * 3.0);
                let dys = [0.23f32, 0.41]
                    .map(|f| Matrix::from_fn(rows, d, |r, c| ((r + 3 * c) as f32 * f).cos() * 0.1));
                let (mut none, mut some, mut alloc) = (make(d, ff), make(d, ff), make(d, ff));
                let mut dx = Matrix::zeros(0, 0);
                for e in [&mut none, &mut some, &mut alloc] {
                    let _ = e.forward(&x);
                    let _ = e.backward(&dys[1]); // leave stale values behind
                    e.zero_grad();
                }
                for (mode, dy) in ["write", "accumulate"].iter().zip(&dys).take(modes) {
                    for e in [&mut none, &mut some, &mut alloc] {
                        let _ = e.forward(&x);
                    }
                    none.backward_into(dy, None);
                    some.backward_into(dy, Some(&mut dx));
                    let dx_alloc = alloc.backward(dy);
                    assert_eq!(bits(dx.as_slice()), bits(dx_alloc.as_slice()), "{rows}x{d}x{ff}");
                    assert_eq!(
                        bits(&none.grad_values()),
                        bits(&some.grad_values()),
                        "{rows}x{d}x{ff} {mode}"
                    );
                }
            }
        }
        check(|d, ff| ExpertFfn::new(d, ff, 11), 2);
        let half = |d, ff| {
            let mut half = ExpertFfn::<HalfMatrix>::zeros(d, ff);
            half.load_flat(&ExpertFfn::new(d, ff, 11).flat_params());
            half
        };
        check(half, 1);
    }

    #[test]
    #[should_panic(expected = "runs past the parameters")]
    fn f16_shard_past_the_end_panics() {
        let mut e = ExpertFfn::new(4, 8, 0);
        let n = e.param_count();
        e.load_f16_at(n - 2, &[0; 3]);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut e = ExpertFfn::new(16, 64, 0);
        assert_eq!(e.param_count(), 2 * 16 * 64 + 64 + 16);
        assert_eq!(e.param_count(), param_count(16, 64));
        assert_eq!(e.flat_params().len(), e.param_count());
        assert_eq!(e.flat_grads().len(), e.param_count());
    }

    /// FNV-1a over the little-endian bits of `v`.
    fn bits_hash(v: &[f32]) -> u64 {
        let bytes = v.iter().flat_map(|x| x.to_bits().to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn canonical_init_keeps_its_bits() {
        // One shape inside a single block, one that is a whole number of
        // blocks, and one that is not. The hashes are those of the weights
        // `ExpertFfn::new` drew as two whole Kaiming-normal matrices before
        // the stream replaced them: a change to the draws or their order
        // moves every run's exact metrics, and fails here first.
        let shapes = [
            (6, 10, 0x3b08_1596_1c2f_5e4e),
            (56, 72, 0x4f26_6290_e143_8efb),
            (48, 160, 0x8233_f2f3_ad53_bb71),
        ];
        assert!(param_count(6, 10) < INIT_BLOCK);
        assert_eq!(param_count(56, 72), 2 * INIT_BLOCK);
        assert_ne!(param_count(48, 160) % INIT_BLOCK, 0);
        assert!(param_count(48, 160) > 2 * INIT_BLOCK);
        for (d, ff, hash) in shapes {
            let mut streamed = Vec::new();
            init_params_in_blocks(d, ff, 0xe3, |offset, block| {
                assert_eq!(offset, streamed.len(), "{d}x{ff}: blocks arrive in order");
                assert!(!block.is_empty() && block.len() <= INIT_BLOCK, "{d}x{ff}");
                streamed.extend_from_slice(block);
            });
            assert_eq!(bits_hash(&streamed), hash, "{d}x{ff}: stream");
            assert_eq!(bits_hash(&ExpertFfn::new(d, ff, 0xe3).flat_params()), hash, "{d}x{ff}");
            let n = streamed.len();
            for (start, end) in [(0, n), (1, 3), (INIT_BLOCK - 2, INIT_BLOCK + 5), (n - 7, n)] {
                let (start, end) = (start.min(n), end.min(n));
                let mut out = vec![f32::NAN; end - start];
                init_params_range(d, ff, 0xe3, start, &mut out);
                assert_eq!(bits_hash(&out), bits_hash(&streamed[start..end]), "{d}x{ff} {start}..");
            }
        }
    }

    #[test]
    fn read_params_at_is_a_range_of_flat_params() {
        let (d, ff) = (4, 8);
        let mut half = ExpertFfn::<HalfMatrix>::zeros(d, ff);
        half.load_flat(&ExpertFfn::new(d, ff, 5).flat_params());
        let mut b1 = half.b1.clone();
        b1.as_mut_slice().iter_mut().enumerate().for_each(|(i, v)| *v = i as f32 * 0.25);
        half.b1 = b1;
        let flat = half.flat_params();
        let n = flat.len();
        // Ranges inside one parameter, across every boundary, and all of it.
        for (start, end) in [(0, 3), (d * ff - 2, d * ff + 3), (5, n - 1), (0, n), (n, n)] {
            let mut out = vec![f32::NAN; end - start];
            half.read_params_at(start, &mut out);
            assert_eq!(out, flat[start..end], "{start}..{end}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_flat_length_panics() {
        let mut e = ExpertFfn::new(4, 8, 0);
        e.load_flat(&[0.0; 3]);
    }

    #[test]
    fn grads_accumulate() {
        let mut e = ExpertFfn::new(4, 6, 3);
        let x = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let dy = Matrix::from_fn(2, 4, |_, _| 0.5);
        let _ = e.forward(&x);
        let _ = e.backward(&dy);
        let once = e.flat_grads().to_vec();
        let _ = e.forward(&x);
        let _ = e.backward(&dy);
        let twice = e.flat_grads();
        for (o, t) in once.iter().zip(twice) {
            assert!((t - 2.0 * o).abs() < 1e-4);
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn zero_grad_reads_back_as_positive_zeros_whatever_the_buffer_held() {
        let mut e = ExpertFfn::new(4, 6, 3);
        assert!(e.grad_is_zero(), "a fresh expert has no gradient");
        let x = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.4).sin());
        let _ = e.forward(&x);
        let _ = e.backward(&x);
        assert!(!e.grad_is_zero() && e.flat_grads().iter().any(|&g| g != 0.0));
        // Poison what `zero_grad` leaves in memory: no reader may see it.
        e.flat_grads_mut().fill(f32::NAN);
        e.zero_grad();
        assert!(e.grad_is_zero());
        assert!(e.flat_grads().iter().all(|g| g.to_bits() == 0), "expected +0.0 everywhere");
        assert!(!e.grad_is_zero(), "materialised zeros are ordinary values");
    }

    #[test]
    fn a_backward_reclaims_the_gradient_and_falls_back_only_while_a_view_lives() {
        let x = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.4).sin());
        let dy = Matrix::from_fn(3, 4, |r, c| ((r + 2 * c) as f32 * 0.3).cos());
        let (mut e, mut plain) = (ExpertFfn::new(4, 6, 3), ExpertFfn::new(4, 6, 3));
        let step = |ffn: &mut ExpertFfn, x: &Matrix| {
            ffn.zero_grad();
            let _ = ffn.forward(x);
            ffn.backward_into(&dy, None);
        };
        step(&mut e, &x);
        step(&mut plain, &x);
        // A view alive across the next backward: that backward writes a
        // fresh buffer, counted, and the view keeps what it saw.
        let view = Arc::clone(e.shared_grads());
        let seen = bits(&view);
        let x2 = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.9).cos());
        step(&mut e, &x2);
        step(&mut plain, &x2);
        assert_eq!(e.grad_fallbacks(), 1);
        assert_eq!(bits(&view), seen, "a view never sees a write");
        assert!(!Arc::ptr_eq(&view, e.shared_grads()));
        assert_eq!(bits(e.flat_grads()), bits(plain.flat_grads()));
        // No view: the next backward takes its buffer back.
        drop(view);
        let at = Arc::as_ptr(e.shared_grads());
        step(&mut e, &x);
        step(&mut plain, &x);
        assert_eq!(Arc::as_ptr(e.shared_grads()), at, "reclaimed, not reallocated");
        assert_eq!((e.grad_fallbacks(), plain.grad_fallbacks()), (1, 0));
        assert_eq!(bits(e.flat_grads()), bits(plain.flat_grads()));
    }

    #[test]
    #[should_panic(expected = "a view still reads the gradient")]
    fn accumulating_into_a_shared_gradient_panics() {
        let x = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let mut e = ExpertFfn::new(4, 6, 0);
        let _ = e.forward(&x);
        e.backward_into(&x, None);
        let _view = Arc::clone(e.shared_grads());
        e.backward_into(&x, None);
    }

    #[test]
    fn lazy_zero_then_backward_equals_eager_memset_then_backward_bitwise() {
        // Shapes that cut through full and edge tiles of both kernel
        // families; `-0.0` activations (deeply negative pre-activations)
        // and a zero `dy` row put signed zeros into the products.
        for (rows, d, ff) in [(1, 4, 6), (7, 5, 19), (33, 16, 40)] {
            let x = Matrix::from_fn(rows, d, |r, c| ((r * d + c) as f32 * 0.37).sin() * 8.0 - 4.0);
            let dy = Matrix::from_fn(rows, d, |r, c| {
                if r == 0 {
                    0.0
                } else {
                    ((r + 3 * c) as f32 * 0.23).cos() * 0.1
                }
            });
            let mut lazy = ExpertFfn::new(d, ff, 11);
            let mut eager = ExpertFfn::new(d, ff, 11);
            for round in 0..2 {
                // Stale values from the previous round are in both buffers.
                lazy.zero_grad();
                eager.flat_grads_mut().fill(0.0);
                assert!(!eager.grad_is_zero(), "the eager side accumulates into its zeros");
                for _ in 0..=round {
                    let (_, _) = (lazy.forward(&x), eager.forward(&x));
                    let dx_lazy = lazy.backward(&dy);
                    let dx_eager = eager.backward(&dy);
                    assert_eq!(bits(dx_lazy.as_slice()), bits(dx_eager.as_slice()));
                }
                assert_eq!(
                    bits(lazy.flat_grads()),
                    bits(eager.flat_grads()),
                    "{rows}x{d}x{ff} round {round}"
                );
            }
        }
    }
}
