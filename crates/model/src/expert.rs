//! Expert feed-forward network with flat parameter serialization.
//!
//! Experts are the unit SYMI replicates and re-places: their parameters
//! must round-trip through flat `f32` buffers because that is what the
//! optimizer shards, the gradient-collection phase gathers, and the
//! weight-communication phase scatters.
//!
//! The gradient never round-trips: it *is* one flat `[W1 | b1 | W2 | b2]`
//! buffer per expert. Backward writes it, the §4.1 replica sync all-reduces
//! it where it lies, and Adam steps from a slice of it
//! ([`ExpertFfn::flat_grads`]); nothing copies it in between.
//!
//! W1 and W2 are stored as the type parameter says ([`WeightStorage`]): f32
//! by default, or binary16 — §3.1's 2 B/param, what the engines' slots hold.
//! The GEMMs read a binary16 W where it lies, and the weight scatter's
//! binary16 shards are copied into it.

use std::cell::RefCell;
use symi_telemetry::TelemetryHandle;
use symi_tensor::half::{decode, encode};
use symi_tensor::ops::{gelu_backward_from_tanh_into, gelu_from_tanh_into, linear_gelu_tanh_into};
use symi_tensor::rng::StdRng;
use symi_tensor::{init, BOperand, Dest, HalfMatrix, Matrix};

thread_local! {
    /// Two `rows × d_ff` scratch matrices: the activation `gelu(pre)`, which
    /// both passes rebuild from the cached `tanh` term (backward then reuses
    /// the buffer for `dL/d act`), and `dL/d pre`. They are dead outside one
    /// [`ExpertFfn::forward_into`] / [`ExpertFfn::backward_into`] call, so a
    /// thread's experts share one pair sized by its largest batch instead of
    /// each keeping its own high-water mark.
    static SCRATCH: RefCell<(Matrix, Matrix)> =
        RefCell::new((Matrix::zeros(0, 0), Matrix::zeros(0, 0)));
}

/// How a parameter matrix of an [`ExpertFfn`] is stored: f32 [`Matrix`]
/// (the biases always; the weights of the `Trainer`'s experts), or binary16
/// [`HalfMatrix`] (the engines' slot weights). Offsets and lengths count
/// elements of the row-major matrix.
pub trait WeightStorage: BOperand {
    /// A `rows × cols` matrix of `+0.0`.
    fn zeros(rows: usize, cols: usize) -> Self
    where
        Self: Sized;
    /// Bytes the elements occupy.
    fn bytes(&self) -> usize;
    /// Sets elements `at ..` from f32 values (binary16 storage rounds them
    /// to nearest even; exact on the fp16 grid).
    fn load_f32_at(&mut self, at: usize, src: &[f32]);
    /// Sets elements `at ..` from binary16 bits: a copy into binary16
    /// storage, an exact decode into f32.
    fn load_f16_at(&mut self, at: usize, src: &[u16]);
    /// Appends the elements as f32 (exact).
    fn extend_f32(&self, out: &mut Vec<f32>);
    /// Elements `at .. at + len` as a place an Adam step publishes to:
    /// binary16 storage as its bits, f32 storage as values on the fp16 grid
    /// — what [`WeightStorage::load_f16_at`] of the same bits would leave.
    fn dest(&mut self, at: usize, len: usize) -> Dest<'_>;
}

impl WeightStorage for Matrix {
    fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::zeros(rows, cols)
    }
    fn bytes(&self) -> usize {
        4 * self.len()
    }
    fn load_f32_at(&mut self, at: usize, src: &[f32]) {
        self.as_mut_slice()[at..at + src.len()].copy_from_slice(src);
    }
    fn load_f16_at(&mut self, at: usize, src: &[u16]) {
        decode(src, &mut self.as_mut_slice()[at..at + src.len()]);
    }
    fn extend_f32(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.as_slice());
    }
    fn dest(&mut self, at: usize, len: usize) -> Dest<'_> {
        Dest::Grid(&mut self.as_mut_slice()[at..at + len])
    }
}

impl WeightStorage for HalfMatrix {
    fn zeros(rows: usize, cols: usize) -> Self {
        HalfMatrix::zeros(rows, cols)
    }
    fn bytes(&self) -> usize {
        2 * self.len()
    }
    fn load_f32_at(&mut self, at: usize, src: &[f32]) {
        encode(src, &mut self.as_bits_mut()[at..at + src.len()]);
    }
    fn load_f16_at(&mut self, at: usize, src: &[u16]) {
        self.as_bits_mut()[at..at + src.len()].copy_from_slice(src);
    }
    fn extend_f32(&self, out: &mut Vec<f32>) {
        let start = out.len();
        out.resize(start + self.len(), 0.0);
        decode(self.as_bits(), &mut out[start..]);
    }
    fn dest(&mut self, at: usize, len: usize) -> Dest<'_> {
        Dest::Half(&mut self.as_bits_mut()[at..at + len])
    }
}

/// A two-layer GELU FFN: `y = gelu(x·W1 + b1)·W2 + b2`, its weights stored
/// as `W` says ([`WeightStorage`]; biases, caches and the gradient are f32
/// either way).
///
/// Forward/backward run on the blocked kernels through persistent caches
/// and per-thread scratch buffers (`*_into` entry points), so a steady-state
/// training step performs no heap allocation inside the expert. The forward
/// caches GELU's inner term `t = tanh(c·(x + a·x³))` of the pre-activation
/// instead of the activation: the activation is `0.5·pre·(1 + t)`, rebuilt
/// with [`symi_tensor::vmath::gelu`]'s own operations wherever it is needed,
/// and backward's GELU′ reads `t` rather than evaluating `tanh` again.
pub struct ExpertFfn<W = Matrix> {
    pub w1: W,
    pub b1: Matrix,
    pub w2: W,
    pub b2: Matrix,
    /// The gradient, flat in the parameters' layout `[W1 | b1 | W2 | b2]`.
    grad: Vec<f32>,
    /// Set by [`ExpertFfn::zero_grad`]: the gradient is all `+0.0` although
    /// `grad` still holds the previous step's values. The next backward
    /// overwrites them; any other reader zero-fills first.
    grad_zero: bool,
    cached_x: Matrix,
    cached_pre: Matrix,
    /// `gelu_tanh(cached_pre)`.
    cached_tanh: Matrix,
}

/// An expert's four parameters, mutable, in the flat layout's order
/// `[W1 | b1 | W2 | b2]` ([`ExpertFfn::params_mut`]).
pub struct ParamsMut<'a>([&'a mut dyn WeightStorage; 4]);

impl ParamsMut<'_> {
    /// Calls `f(param, at, lo, hi)` for each parameter that elements
    /// `offset .. end` of the flat layout overlap: its own elements from
    /// `at`, the range's `lo .. hi`.
    fn for_range(
        &mut self,
        offset: usize,
        end: usize,
        mut f: impl FnMut(&mut dyn WeightStorage, usize, usize, usize),
    ) {
        assert!(end <= self.0.iter().map(|p| p.rows() * p.cols()).sum(), "range past the params");
        let mut base = 0;
        for param in &mut self.0 {
            let len = param.rows() * param.cols();
            let (a, b) = (offset.max(base), end.min(base + len));
            if a < b {
                f(&mut **param, a - base, a - offset, b - offset);
            }
            base += len;
        }
    }

    /// Calls `publish(start, dest)` for each parameter that elements
    /// `offset .. end` of the flat layout overlap, `dest` being its storage
    /// of flat elements `start .. start + dest.len()`
    /// ([`WeightStorage::dest`]) — where the weight scatter's Adam step
    /// writes this rank's own chunk of a class it hosts.
    pub fn dests(&mut self, offset: usize, end: usize, mut publish: impl FnMut(usize, Dest<'_>)) {
        self.for_range(offset, end, |param, at, lo, hi| {
            publish(offset + lo, param.dest(at, hi - lo));
        });
    }
}

impl ExpertFfn {
    /// An f32 expert with Kaiming-normal weights drawn from `seed` and zero
    /// biases.
    pub fn new(d_model: usize, d_ff: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w1 = init::kaiming_normal(d_model, d_ff, &mut rng);
        Self::with_weights(w1, init::kaiming_normal(d_ff, d_model, &mut rng))
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
            grad: vec![0.0; 2 * d_model * d_ff + d_ff + d_model],
            grad_zero: true,
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
    fn params(&self) -> [&dyn WeightStorage; 4] {
        [&self.w1, &self.b1, &self.w2, &self.b2]
    }

    /// The four parameters, mutable.
    pub fn params_mut(&mut self) -> ParamsMut<'_> {
        ParamsMut([&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2])
    }

    /// The gradient ([`ExpertFfn::flat_grads_mut`]) and the parameters,
    /// borrowed together: an Adam step that sums into the one publishes
    /// into the other.
    pub fn grads_and_params(&mut self) -> (&mut [f32], ParamsMut<'_>) {
        if std::mem::take(&mut self.grad_zero) {
            self.grad.fill(0.0);
        }
        let params = ParamsMut([&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]);
        (&mut self.grad, params)
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
    /// caller wants it. `None` skips only the last GEMM (`dpre · W1ᵀ`), for
    /// a caller whose input has no trainable layer upstream; every gradient
    /// element is the same bits either way. The first call after
    /// [`zero_grad`] *writes* the flat gradient — every element the fold
    /// from `+0.0`, bit for bit what zero-filling and accumulating gives,
    /// without the fill or the read-back — and later calls accumulate into
    /// it.
    ///
    /// [`zero_grad`]: ExpertFfn::zero_grad
    pub fn backward_into(&mut self, dy: &Matrix, dx: Option<&mut Matrix>) {
        let acc = !std::mem::take(&mut self.grad_zero);
        let weights = self.d_model() * self.d_ff(); // elements of W1, and of W2
        let (w1_grad, rest) = self.grad.split_at_mut(weights);
        let (b1_grad, rest) = rest.split_at_mut(self.b1.len());
        let (w2_grad, b2_grad) = rest.split_at_mut(weights);
        let (pre, t) = (&self.cached_pre, &self.cached_tanh);
        SCRATCH.with_borrow_mut(|(act, dpre)| {
            gelu_from_tanh_into(pre, t, act);
            act.matmul_tn_slice(dy, w2_grad, acc);
            dy.sum_rows_slice(b2_grad, acc);
            let dact = act;
            dy.matmul_nt_into(&self.w2, dact);
            gelu_backward_from_tanh_into(pre, t, dact, dpre);
            self.cached_x.matmul_tn_slice(dpre, w1_grad, acc);
            dpre.sum_rows_slice(b1_grad, acc);
            if let Some(dx) = dx {
                dpre.matmul_nt_into(&self.w1, dx);
            }
        });
    }

    /// Parameters as one flat buffer: `[W1 | b1 | W2 | b2]`.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flat_params_into(&mut out);
        out
    }

    /// [`ExpertFfn::flat_params`] into a reusable buffer.
    pub(crate) fn flat_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for param in self.params() {
            param.extend_f32(out);
        }
    }

    /// The gradient in the parameters' flat layout — the buffer backward
    /// writes, not a copy of it. `&mut self` because a gradient still marked
    /// zero by [`ExpertFfn::zero_grad`] is zero-filled before it is handed
    /// out: no reader ever sees the previous step's values.
    pub fn flat_grads(&mut self) -> &[f32] {
        self.flat_grads_mut()
    }

    /// [`ExpertFfn::flat_grads`], mutable: the replica sync reduces into the
    /// gradient in place.
    pub fn flat_grads_mut(&mut self) -> &mut [f32] {
        if std::mem::take(&mut self.grad_zero) {
            self.grad.fill(0.0);
        }
        &mut self.grad
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
        let load = |param: &mut dyn WeightStorage, at, lo, hi| param.load_f32_at(at, &flat[lo..hi]);
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
        let load = |param: &mut dyn WeightStorage, at, lo, hi| param.load_f16_at(at, &half[lo..hi]);
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
    /// input; a set that received no row is skipped.
    pub fn forward<W: WeightStorage>(&mut self, experts: &mut [ExpertFfn<W>]) {
        assert_eq!(experts.len(), self.io.len(), "one expert per possible set");
        for (io, expert) in self.io.iter_mut().zip(experts) {
            if io.x.rows() == 0 {
                io.y.resize_to(0, self.d_model);
            } else {
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
        // From 32 rows (`NT_TILE_MIN_ROWS` on x86) the f32 `nt` runs the
        // tile a binary16 one always runs, so backward agrees too; below
        // it only the forward (`nn`) is held to the same bits.
        for rows in [3, 40] {
            let x = Matrix::from_fn(rows, d, |r, c| ((r * d + c) as f32 * 0.29).sin());
            let dy = Matrix::from_fn(rows, d, |r, c| ((r + c) as f32 * 0.17).cos());
            assert_eq!(bits(half.forward(&x).as_slice()), bits(decoded.forward(&x).as_slice()));
            let (dx_half, dx_f32) = (half.backward(&dy), decoded.backward(&dy));
            if rows >= 32 {
                assert_eq!(bits(dx_half.as_slice()), bits(dx_f32.as_slice()));
                assert_eq!(bits(half.flat_grads()), bits(decoded.flat_grads()));
            } else {
                assert!(dx_half.max_abs_diff(&dx_f32) < 1e-5);
            }
            half.zero_grad();
            decoded.zero_grad();
        }
    }

    /// `backward_into(dy, None)` is the `Some` form without its last GEMM:
    /// the same flat gradient bits in write mode and in accumulate mode,
    /// over f32 and binary16 weights; and the `Some` form's `dx` is the
    /// allocating `backward`'s.
    #[test]
    fn weights_only_backward_writes_the_same_gradient() {
        fn check<W: WeightStorage>(make: impl Fn(usize, usize) -> ExpertFfn<W>) {
            // 3 and 17 rows are under the x86 `nt` tile's `NT_TILE_MIN_ROWS`.
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
                for (mode, dy) in ["write", "accumulate"].iter().zip(&dys) {
                    for e in [&mut none, &mut some, &mut alloc] {
                        let _ = e.forward(&x);
                    }
                    none.backward_into(dy, None);
                    some.backward_into(dy, Some(&mut dx));
                    let dx_alloc = alloc.backward(dy);
                    assert_eq!(bits(dx.as_slice()), bits(dx_alloc.as_slice()), "{rows}x{d}x{ff}");
                    assert_eq!(
                        bits(none.flat_grads()),
                        bits(some.flat_grads()),
                        "{rows}x{d}x{ff} {mode}"
                    );
                }
            }
        }
        check(|d, ff| ExpertFfn::new(d, ff, 11));
        check(|d, ff| {
            let mut half = ExpertFfn::<HalfMatrix>::zeros(d, ff);
            half.load_flat(&ExpertFfn::new(d, ff, 11).flat_params());
            half
        });
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
        assert_eq!(e.flat_params().len(), e.param_count());
        assert_eq!(e.flat_grads().len(), e.param_count());
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
        e.grad.fill(f32::NAN);
        e.zero_grad();
        assert!(e.grad_is_zero());
        assert!(e.flat_grads().iter().all(|g| g.to_bits() == 0), "expected +0.0 everywhere");
        assert!(!e.grad_is_zero(), "materialised zeros are ordinary values");
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
