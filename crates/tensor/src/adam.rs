//! Adam optimizer with sharding support and mixed-precision semantics.
//!
//! SYMI's whole design revolves around *where optimizer state lives*: each
//! expert's Adam state (fp32 master weights + first/second moments, 16 B per
//! parameter with fp32 gradients counted) is statically sharded across nodes,
//! while the working fp16 weights (2 B/param) move freely. [`AdamShard`]
//! models exactly one contiguous shard of one parameter group: it consumes a
//! gradient shard and emits the updated weights **as binary16 bits** — the
//! wire format of the paper's *Weight Communication Phase* — in the same
//! pass that updates `(master, m, v)`. No f32 copy of the published weights
//! exists between the optimizer and the wire.
//!
//! # The kernel
//!
//! One update sequence (`update`, below), written twice: scalar here (the
//! specification, the `SYMI_SIMD=scalar` and non-x86 path, and the tail
//! handler of the vector loop) and AVX2 8-lane in [`crate::simd`]. Both
//! perform, per element, the same IEEE-754 single-precision operations in
//! the same order — add, mul (never fused: the vector code enables `avx2`
//! and `f16c` only, so no FMA can be emitted), correctly rounded `div` and
//! `sqrt` — so the two encodings agree **bit for bit** on `(master, m, v)`
//! and on what they publish, and so does any split of the elements across
//! pool workers (`tests/adam_oracle.rs`; a NaN counts as a NaN — which
//! payload survives when two different ones meet is the compiler's operand
//! order, which Rust leaves open).
//!
//! The element's gradient is one f32 slice, or the left-to-right sum of one
//! or more binary16 terms, each widened and unscaled by its own power of
//! two, `((w(h₀) + w(h₁)) + w(h₂)) + …`, formed in registers and written
//! nowhere — a replica sum read from the binary16 buffers its partials lie
//! in instead of folded into one of them beforehand ([`Grad`]) — and the
//! updated master is
//! published to any number of destinations ([`Dest`]), each through one of
//! two stores:
//!
//! - f32 on the fp16 grid ([`Dest::Grid`]; [`AdamState::step`], the
//!   single-process `Trainer`'s dense and expert parameters):
//!   `f16_to_f32(f32_to_f16(w))`;
//! - raw binary16 bits ([`Dest::Half`]; [`AdamShard::step_into`], and the
//!   engines' send buffers and slot weights through [`ShardStep::run`]):
//!   `f32_to_f16(w)`, `VCVTPS2PH` on the vector path.
//!
//! The first is by construction the exact decode of the second. The loop is
//! bound by its divider — three divisions and a square root per element —
//! not by memory: the extra loads of a summed slice and the extra stores of
//! a destination ride in its shadow.

use crate::half::HalfTerm;
use std::ops::Range;

#[cfg(target_arch = "x86_64")]
use crate::kernels::f16_fast_path;

/// Adam hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// Full (unsharded) Adam state over a flat parameter vector. Used for the
/// dense (non-expert) parameters and as the reference implementation the
/// sharded path is tested against.
#[derive(Clone, Debug)]
pub struct AdamState {
    cfg: AdamConfig,
    /// fp32 master copy of the parameters.
    master: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamState {
    /// Initializes master state from the current working weights.
    pub fn new(cfg: AdamConfig, params: &[f32]) -> Self {
        Self {
            cfg,
            master: params.to_vec(),
            m: vec![0.0; params.len()],
            v: vec![0.0; params.len()],
            t: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.master.len()
    }

    pub fn is_empty(&self) -> bool {
        self.master.is_empty()
    }

    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// One Adam step. Writes the updated weights into `params_out` as f32
    /// values on the fp16 grid.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with the state length.
    pub fn step(&mut self, grads: &[f32], params_out: &mut [f32]) {
        assert_eq!(grads.len(), self.master.len(), "gradient length mismatch");
        assert_eq!(params_out.len(), self.master.len(), "param length mismatch");
        self.t += 1;
        let k = AdamCoeffs::new(&self.cfg, self.t);
        let out = &mut [Dest::Grid(params_out)];
        step_kernel(&k, &mut self.master, &mut self.m, &mut self.v, &Grad::Slice(grads), out);
    }

    /// fp32 master weights (what the optimizer believes the model is).
    pub fn master_weights(&self) -> &[f32] {
        &self.master
    }

    /// First and second moment vectors (aligned with
    /// [`AdamState::master_weights`]) — the checkpoint payload.
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// The hyperparameters this state steps with.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// Rebuilds a state from explicit parts — the checkpoint restore path.
    ///
    /// # Panics
    /// Panics if the moment vectors disagree with the master length.
    pub fn from_parts(cfg: AdamConfig, master: Vec<f32>, m: Vec<f32>, v: Vec<f32>, t: u64) -> Self {
        assert_eq!(m.len(), master.len(), "first-moment length mismatch");
        assert_eq!(v.len(), master.len(), "second-moment length mismatch");
        Self { cfg, master, m, v, t }
    }
}

/// One contiguous shard of Adam state for one parameter group.
///
/// A shard owns parameters `[offset, offset + len)` of the group's flat
/// parameter vector. SYMI constructs `N` of these per expert (one per node);
/// the static baseline constructs `r` per expert (one per EDP replica rank).
#[derive(Clone, Debug)]
pub struct AdamShard {
    cfg: AdamConfig,
    offset: usize,
    master: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamShard {
    /// Creates a shard covering `params[offset..offset+len]` of the group.
    pub fn new(cfg: AdamConfig, offset: usize, shard_params: &[f32]) -> Self {
        Self {
            cfg,
            offset,
            master: shard_params.to_vec(),
            m: vec![0.0; shard_params.len()],
            v: vec![0.0; shard_params.len()],
            t: 0,
        }
    }

    /// Rebuilds a shard from explicit state — the elastic re-shard path,
    /// where a survivor assembles its new slice from kept state, peer
    /// transfers, and reseeded segments.
    ///
    /// # Panics
    /// Panics if the moment vectors disagree with the master length.
    pub fn from_parts(
        cfg: AdamConfig,
        offset: usize,
        master: Vec<f32>,
        m: Vec<f32>,
        v: Vec<f32>,
        t: u64,
    ) -> Self {
        assert_eq!(m.len(), master.len(), "first-moment length mismatch");
        assert_eq!(v.len(), master.len(), "second-moment length mismatch");
        Self { cfg, offset, master, m, v, t }
    }

    /// Start of this shard within the parameter group.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// First and second moment vectors (aligned with
    /// [`AdamShard::master_weights`]).
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    pub fn len(&self) -> usize {
        self.master.len()
    }

    pub fn is_empty(&self) -> bool {
        self.master.is_empty()
    }

    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// One Adam step over this shard: consumes the matching gradient shard
    /// and writes the updated weights into `out` (resized to the shard
    /// length) as binary16 bits, ready for the wire.
    pub fn step_into(&mut self, grad_shard: &[f32], out: &mut Vec<u16>) {
        assert_eq!(grad_shard.len(), self.master.len(), "gradient shard length mismatch");
        out.resize(self.master.len(), 0);
        self.begin_step().run(0..out.len(), Grad::Slice(grad_shard), &mut [Dest::Half(out)]);
    }

    /// Starts one Adam step: advances the step counter and returns the
    /// step, which updates the shard range by range ([`ShardStep::run`]) —
    /// for a caller whose gradient arrives in several slices or whose
    /// destinations are split at boundaries of their own.
    pub fn begin_step(&mut self) -> ShardStep<'_> {
        self.t += 1;
        ShardStep {
            k: AdamCoeffs::new(&self.cfg, self.t),
            master: &mut self.master,
            m: &mut self.m,
            v: &mut self.v,
            next: 0,
        }
    }

    /// fp32 master weights of this shard.
    pub fn master_weights(&self) -> &[f32] {
        &self.master
    }

    /// Optimizer-state bytes this shard occupies under the paper's
    /// accounting (16 B per parameter: fp32 master weight, fp32 m, fp32 v,
    /// fp32 gradient staging).
    pub fn state_bytes(&self) -> u64 {
        self.master.len() as u64 * 16
    }
}

/// One Adam step of an [`AdamShard`] in progress ([`AdamShard::begin_step`]):
/// the step counter has advanced, and [`ShardStep::run`] updates the shard's
/// elements range by range, in order: each range starts where the previous
/// one ended, and they cover the shard by the time the step is dropped.
pub struct ShardStep<'a> {
    k: AdamCoeffs,
    master: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
    /// Where the next range starts: every element before it is updated.
    next: usize,
}

impl ShardStep<'_> {
    /// Updates elements `range` of the shard from `grad` (element
    /// `range.start + i` from element `i` of its slices) and publishes each
    /// updated weight to every one of `outs`. Every slice and destination
    /// holds `range.len()` elements.
    ///
    /// # Panics
    /// Panics if `range` does not start where the previous one ended (at 0
    /// for the first), or if a length disagrees with it.
    pub fn run(&mut self, range: Range<usize>, grad: Grad<'_>, outs: &mut [Dest<'_>]) {
        assert_eq!(range.start, self.next, "an Adam step runs its shard's ranges in order");
        self.next = range.end;
        let (master, m, v) =
            (&mut self.master[range.clone()], &mut self.m[range.clone()], &mut self.v[range]);
        step_kernel(&self.k, master, m, v, &grad, outs);
    }
}

impl Drop for ShardStep<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            assert_eq!(self.next, self.master.len(), "an Adam step covers its shard once");
        }
    }
}

/// The gradient of one Adam step, element by element. Read only: the step
/// writes no gradient back.
#[derive(Clone, Copy)]
pub enum Grad<'a> {
    /// One f32 slice, read as it is.
    Slice(&'a [f32]),
    /// The left-to-right sum of one or more binary16 terms, each widened and
    /// unscaled by its exponent first, `((w(h₀) + w(h₁)) + w(h₂)) + …` with
    /// `w(h) = f16_to_f32(h) · 2^-exp` ([`sum_half_into`]). That is how a
    /// host steps its own chunk of a replica sum — the hosts' binary16
    /// partials in ring order, its own among them at its position, each
    /// read where it lies — and, as a sum of one, a shard that arrived
    /// narrowed.
    Half(&'a [HalfTerm<'a>]),
}

impl Grad<'_> {
    /// Whether every slice holds `n` elements, and there is one.
    fn fits(&self, n: usize) -> bool {
        match self {
            Grad::Slice(g) => g.len() == n,
            Grad::Half(terms) => !terms.is_empty() && terms.iter().all(|t| t.len() == n),
        }
    }
}

/// `out = ((w(t₀) + w(t₁)) + w(t₂)) + …` over the binary16 terms `terms`
/// yields, element by element, `w` widening and unscaling
/// ([`crate::half::widen`]): the summation of a [`Grad::Half`] step, for a
/// caller that needs the sum itself (a replica sum sent on, or recomputed
/// to be checked).
///
/// # Panics
/// Panics if `terms` yields nothing or a term whose length differs from
/// `out`'s.
pub fn sum_half_into<'t>(terms: impl IntoIterator<Item = HalfTerm<'t>>, out: &mut [f32]) {
    let mut terms = terms.into_iter();
    terms.next().expect("a sum of at least one term").widen_into(out);
    for term in terms {
        assert_eq!(term.len(), out.len(), "summand length mismatch");
        let scale = crate::half::pow2(-term.exp);
        out.iter_mut().zip(term.bits).for_each(|(x, &h)| *x += f16_to_f32(h) * scale);
    }
}

/// One place an Adam step publishes the updated weights to, element `i` of
/// the destination receiving element `i` of the stepped range.
#[derive(Debug)]
pub enum Dest<'a> {
    /// Binary16 bits, `f32_to_f16(w)`: the wire format and the engines'
    /// slot weights.
    Half(&'a mut [u16]),
    /// f32 on the fp16 grid, `f16_to_f32(f32_to_f16(w))`: the exact decode
    /// of [`Dest::Half`].
    Grid(&'a mut [f32]),
}

impl Default for Dest<'_> {
    fn default() -> Self {
        Dest::Half(&mut [])
    }
}

impl<'a> Dest<'a> {
    pub fn len(&self) -> usize {
        match self {
            Dest::Half(h) => h.len(),
            Dest::Grid(g) => g.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements `r` of this destination, borrowed.
    pub fn sub(&mut self, r: Range<usize>) -> Dest<'_> {
        match self {
            Dest::Half(h) => Dest::Half(&mut h[r]),
            Dest::Grid(g) => Dest::Grid(&mut g[r]),
        }
    }

    /// The first `mid` elements and the rest.
    fn split_at(self, mid: usize) -> (Dest<'a>, Dest<'a>) {
        match self {
            Dest::Half(h) => {
                let (a, b) = h.split_at_mut(mid);
                (Dest::Half(a), Dest::Half(b))
            }
            Dest::Grid(g) => {
                let (a, b) = g.split_at_mut(mid);
                (Dest::Grid(a), Dest::Grid(b))
            }
        }
    }
}

/// The constants of one step: the hyperparameters and step `t`'s bias
/// corrections, each computed once in f32 exactly as the per-element
/// expression would.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdamCoeffs {
    pub weight_decay: f32,
    pub beta1: f32,
    pub one_minus_beta1: f32,
    pub beta2: f32,
    pub one_minus_beta2: f32,
    pub bias1: f32,
    pub bias2: f32,
    pub lr: f32,
    pub eps: f32,
}

impl AdamCoeffs {
    fn new(cfg: &AdamConfig, t: u64) -> Self {
        Self {
            weight_decay: cfg.weight_decay,
            beta1: cfg.beta1,
            one_minus_beta1: 1.0 - cfg.beta1,
            beta2: cfg.beta2,
            one_minus_beta2: 1.0 - cfg.beta2,
            bias1: 1.0 - cfg.beta1.powi(t as i32),
            bias2: 1.0 - cfg.beta2.powi(t as i32),
            lr: cfg.lr,
            eps: cfg.eps,
        }
    }
}

/// The update sequence — the specification [`crate::simd`]'s 8-lane code
/// follows operation for operation. Updates `(w, m, v)` in place and
/// returns the new master weight.
#[inline(always)]
pub(crate) fn update(k: &AdamCoeffs, g: f32, w: &mut f32, m: &mut f32, v: &mut f32) -> f32 {
    let g = g + k.weight_decay * *w;
    *m = k.beta1 * *m + k.one_minus_beta1 * g;
    *v = k.beta2 * *v + k.one_minus_beta2 * g * g;
    let mhat = *m / k.bias1;
    let vhat = *v / k.bias2;
    *w -= k.lr * mhat / (vhat.sqrt() + k.eps);
    *w
}

/// Elements `r` of `grad` into `g`: the slice, or the terms widened and
/// summed left to right ([`sum_half_into`]).
pub(crate) fn sum_block(grad: &Grad<'_>, r: Range<usize>, g: &mut [f32]) {
    match grad {
        Grad::Slice(slice) => g.copy_from_slice(&slice[r]),
        Grad::Half(terms) => sum_half_into(terms.iter().map(|t| t.sub(r.clone())), g),
    }
}

/// Elements per block of the scalar encoding.
const SCALAR_BLOCK: usize = 64;

/// The scalar encoding over elements `range` of one chunk, block by block:
/// each element's gradient summed ([`sum_block`]), updated, and published
/// to every one of `outs`.
pub(crate) fn chunk_scalar(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &Grad<'_>,
    outs: &mut [Dest<'_>],
    range: Range<usize>,
) {
    let (mut g, mut w) = ([0.0f32; SCALAR_BLOCK], [0.0f32; SCALAR_BLOCK]);
    for start in range.clone().step_by(SCALAR_BLOCK) {
        let r = start..range.end.min(start + SCALAR_BLOCK);
        let (g, w) = (&mut g[..r.len()], &mut w[..r.len()]);
        sum_block(grad, r.clone(), g);
        let state = master[r.clone()].iter_mut().zip(&mut m[r.clone()]).zip(&mut v[r.clone()]);
        for ((x, ((w, m), v)), &g) in w.iter_mut().zip(state).zip(g.iter()) {
            *x = update(k, g, w, m, v);
        }
        for out in outs.iter_mut() {
            match out {
                Dest::Half(o) => {
                    o[r.clone()].iter_mut().zip(&*w).for_each(|(o, &w)| *o = f32_to_f16(w))
                }
                Dest::Grid(o) => {
                    o[r.clone()].iter_mut().zip(&*w).for_each(|(o, &w)| *o = quantize_f16(w))
                }
            }
        }
    }
}

/// One chunk on the active encoding.
fn chunk(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &Grad<'_>,
    outs: &mut [Dest<'_>],
) {
    #[cfg(target_arch = "x86_64")]
    if f16_fast_path() {
        return crate::simd::adam_chunk(k, master, m, v, grad, outs);
    }
    chunk_scalar(k, master, m, v, grad, outs, 0..master.len());
}

/// Elements per worker share below which the Adam step stays sequential. The
/// vector kernel runs at ≈1.0–1.2 ns per parameter (`BENCH_kernels.json`,
/// `adam` rows), so a share is ≳65 µs of work — a pool wake-up costs tens of
/// microseconds, and anything smaller loses by splitting. (The scalar
/// encoding is 6–10× slower per element; its shares are merely longer.)
const MIN_ADAM_ELEMS_PER_SHARE: usize = 64 * 1024;

/// Most gradient terms, and most destinations, a step splits across pool
/// workers; a step with more runs on one, with the same bits.
const MAX_SPLIT_FAN: usize = 8;

/// One pool share of a step: its elements of the state, of the gradient (a
/// [`Grad::Slice`]'s slice, or every term of a [`Grad::Half`]) and of every
/// destination.
#[derive(Default)]
struct Share<'a> {
    master: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
    slice: &'a [f32],
    terms: [HalfTerm<'a>; MAX_SPLIT_FAN],
    outs: [Dest<'a>; MAX_SPLIT_FAN],
}

/// Runs the update over the state, split elementwise across the pool.
/// Every element is computed by the same operation sequence whichever share
/// (and whichever of a share's vector body or scalar tail) it falls in, so
/// the split cannot change any result bit.
fn step_kernel(
    k: &AdamCoeffs,
    mut master: &mut [f32],
    mut m: &mut [f32],
    mut v: &mut [f32],
    grad: &Grad<'_>,
    outs: &mut [Dest<'_>],
) {
    use crate::pool::{self, share_bounds, MAX_WORKERS};
    use std::sync::Mutex;
    let (slice, terms): (&[f32], &[HalfTerm]) = match *grad {
        Grad::Slice(slice) => (slice, &[]),
        Grad::Half(terms) => (&[], terms),
    };
    let (n, k_terms, k_outs) = (master.len(), terms.len(), outs.len());
    assert!(m.len() == n && v.len() == n, "moment length mismatch");
    assert!(grad.fits(n), "gradient length mismatch");
    assert!(outs.iter().all(|o| o.len() == n), "destination length mismatch");
    let p = if k_terms.max(k_outs) > MAX_SPLIT_FAN {
        1
    } else {
        pool::current_threads().min((n / MIN_ADAM_ELEMS_PER_SHARE).max(1))
    };
    if p == 1 {
        chunk(k, master, m, v, grad, outs);
        return;
    }
    let (bounds, p) = share_bounds(n, p);
    let mut shares: [Mutex<Share>; MAX_WORKERS] = Default::default();
    let mut rest: [Dest; MAX_SPLIT_FAN] = Default::default();
    for (r, out) in rest.iter_mut().zip(outs.iter_mut()) {
        *r = out.sub(0..n);
    }
    for (share, &(a, b)) in shares.iter_mut().zip(&bounds[..p]) {
        let share = share.get_mut().expect("fresh mutex");
        let len = b - a;
        (share.master, master) = std::mem::take(&mut master).split_at_mut(len);
        (share.m, m) = std::mem::take(&mut m).split_at_mut(len);
        (share.v, v) = std::mem::take(&mut v).split_at_mut(len);
        if let Grad::Slice(_) = grad {
            share.slice = &slice[a..b];
        }
        for (t, term) in share.terms.iter_mut().zip(terms) {
            *t = term.sub(a..b);
        }
        for (o, r) in share.outs.iter_mut().zip(&mut rest[..k_outs]) {
            (*o, *r) = std::mem::take(r).split_at(len);
        }
    }
    pool::global().run(p, &|w| {
        let mut share = shares[w].lock().expect("share mutex");
        let s = &mut *share;
        let grad = match grad {
            Grad::Slice(_) => Grad::Slice(s.slice),
            Grad::Half(_) => Grad::Half(&s.terms[..k_terms]),
        };
        chunk(k, s.master, s.m, s.v, &grad, &mut s.outs[..k_outs]);
    });
}

// The canonical binary16 conversions now live in [`crate::half`]; they are
// re-exported here because the wire codec, baselines, and older tests import
// them through the `adam` path.
pub use crate::half::{f16_to_f32, f32_to_f16, quantize_f16};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_decreases_quadratic_loss() {
        // Minimize f(w) = |w - target|^2 / 2; gradient = w - target.
        let target = [3.0f32, -2.0, 0.5];
        let mut w = vec![0.0f32; 3];
        let mut opt = AdamState::new(AdamConfig { lr: 0.05, ..Default::default() }, &w);
        for _ in 0..2000 {
            let grads: Vec<f32> =
                opt.master_weights().iter().zip(&target).map(|(w, t)| w - t).collect();
            opt.step(&grads, &mut w);
        }
        for (wv, tv) in w.iter().zip(&target) {
            assert!((wv - tv).abs() < 1e-2, "{wv} != {tv}");
        }
    }

    #[test]
    fn sharded_step_equals_unsharded_step() {
        let cfg = AdamConfig::default();
        let params: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let grads: Vec<f32> = (0..64).map(|i| (i as f32 * 0.11).cos()).collect();

        let mut full = AdamState::new(cfg, &params);
        let mut full_out = vec![0.0f32; 64];

        let mut shards: Vec<AdamShard> =
            (0..4).map(|s| AdamShard::new(cfg, s * 16, &params[s * 16..(s + 1) * 16])).collect();

        for _ in 0..5 {
            full.step(&grads, &mut full_out);
            let mut shard_out = vec![0.0f32; 64];
            let mut half = Vec::new();
            for shard in &mut shards {
                let o = shard.offset();
                shard.step_into(&grads[o..o + shard.len()], &mut half);
                crate::half::decode(&half, &mut shard_out[o..o + half.len()]);
            }
            assert_eq!(full_out, shard_out, "sharded Adam diverged from reference");
        }
    }

    #[test]
    fn f16_round_trip_exact_for_representable() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25] {
            assert_eq!(quantize_f16(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn f16_quantization_error_is_bounded() {
        for i in 0..1000 {
            let v = (i as f32 * 0.013).sin() * 10.0;
            let q = quantize_f16(v);
            // Relative error of binary16 is at most 2^-11 for normal values.
            assert!((q - v).abs() <= v.abs() * 0.0005 + 1e-7, "{v} -> {q}");
        }
    }

    #[test]
    fn f16_overflow_saturates_to_inf() {
        assert!(f16_to_f32(f32_to_f16(1e6)).is_infinite());
        assert!(f16_to_f32(f32_to_f16(-1e6)).is_infinite());
    }

    #[test]
    fn f16_handles_subnormals() {
        let tiny = 3.0e-7f32; // subnormal in f16
        let q = quantize_f16(tiny);
        assert!(q > 0.0 && (q - tiny).abs() < 1e-7);
    }

    #[test]
    fn f16_nan_stays_nan() {
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
    }

    #[test]
    fn state_bytes_is_16_per_param() {
        let shard = AdamShard::new(AdamConfig::default(), 0, &[0.0; 100]);
        assert_eq!(shard.state_bytes(), 1600);
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut w = vec![1.0f32];
        let mut opt =
            AdamState::new(AdamConfig { lr: 0.01, weight_decay: 0.1, ..Default::default() }, &w);
        for _ in 0..500 {
            opt.step(&[0.0], &mut w); // zero data gradient, only decay
        }
        assert!(w[0].abs() < 0.5, "weight decay should shrink weights, got {}", w[0]);
    }
}
