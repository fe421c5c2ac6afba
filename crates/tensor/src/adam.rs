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
//! order, which Rust leaves open). The updated master is published through
//! one of two stores:
//!
//! - f32 on the fp16 grid ([`AdamState::step`], the single-process
//!   `Trainer`'s dense and expert parameters): `f16_to_f32(f32_to_f16(w))`;
//! - raw binary16 bits ([`AdamShard::step_into`]): `f32_to_f16(w)`,
//!   `VCVTPS2PH` on the vector path.
//!
//! The first is by construction the exact decode of the second.

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
        step_kernel(&k, &mut self.master, &mut self.m, &mut self.v, grads, params_out, chunk_f32);
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
        self.t += 1;
        out.resize(self.master.len(), 0);
        let k = AdamCoeffs::new(&self.cfg, self.t);
        step_kernel(&k, &mut self.master, &mut self.m, &mut self.v, grad_shard, out, chunk_f16);
    }

    /// fp32 master weights of this shard.
    pub fn master_weights(&self) -> &[f32] {
        &self.master
    }

    /// Serializes the mutable optimizer state as `[master | m | v]` — what
    /// a *coupled* system (FlexMoE-style) must physically move when an
    /// expert is re-placed. SYMI never calls this on the rebalance path.
    pub fn export_state(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(3 * self.master.len());
        out.extend_from_slice(&self.master);
        out.extend_from_slice(&self.m);
        out.extend_from_slice(&self.v);
        out
    }

    /// Optimizer-state bytes this shard occupies under the paper's
    /// accounting (16 B per parameter: fp32 master weight, fp32 m, fp32 v,
    /// fp32 gradient staging).
    pub fn state_bytes(&self) -> u64 {
        self.master.len() as u64 * 16
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

/// Scalar encoding of one chunk; `publish` is the store.
#[inline(always)]
pub(crate) fn chunk_scalar<O>(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grads: &[f32],
    out: &mut [O],
    publish: impl Fn(f32) -> O,
) {
    for ((((w, m), v), &g), o) in master.iter_mut().zip(m).zip(v).zip(grads).zip(out) {
        *o = publish(update(k, g, w, m, v));
    }
}

/// One chunk, published as f32 on the fp16 grid.
fn chunk_f32(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grads: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if f16_fast_path() {
        return crate::simd::adam_chunk_f32(k, master, m, v, grads, out);
    }
    chunk_scalar(k, master, m, v, grads, out, quantize_f16);
}

/// One chunk, published as binary16 bits.
fn chunk_f16(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grads: &[f32],
    out: &mut [u16],
) {
    #[cfg(target_arch = "x86_64")]
    if f16_fast_path() {
        return crate::simd::adam_chunk_f16(k, master, m, v, grads, out);
    }
    chunk_scalar(k, master, m, v, grads, out, f32_to_f16);
}

/// Elements per worker share below which the Adam step stays sequential. The
/// vector kernel runs at ≈0.9 ns per parameter (`BENCH_kernels.json`, `adam`
/// rows), so a share is ≳60 µs of work — a pool wake-up costs tens of
/// microseconds, and anything smaller loses by splitting. (The scalar
/// encoding is 10–25× slower per element; its shares are merely longer.)
const MIN_ADAM_ELEMS_PER_SHARE: usize = 64 * 1024;

/// One encoding of the update over one chunk: `(coefficients, master, m, v,
/// grads, published)`.
type ChunkFn<O> = fn(&AdamCoeffs, &mut [f32], &mut [f32], &mut [f32], &[f32], &mut [O]);

/// Runs `chunk` over the state, split elementwise across the pool. Every
/// element is computed by the same operation sequence whichever share (and
/// whichever of a share's vector body or scalar tail) it falls in, so the
/// split cannot change any result bit.
fn step_kernel<O: Send>(
    k: &AdamCoeffs,
    master: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grads: &[f32],
    out: &mut [O],
    chunk: ChunkFn<O>,
) {
    use crate::pool::{self, share_bounds, Parts};
    let n = master.len();
    let p = pool::current_threads().min((n / MIN_ADAM_ELEMS_PER_SHARE).max(1));
    if p == 1 {
        chunk(k, master, m, v, grads, out);
        return;
    }
    let (bounds, p) = share_bounds(n, p);
    let master = Parts::split(master, &bounds[..p], 1);
    let m = Parts::split(m, &bounds[..p], 1);
    let v = Parts::split(v, &bounds[..p], 1);
    let out = Parts::split(out, &bounds[..p], 1);
    pool::global().run(p, &|w| {
        let (a, b) = bounds[w];
        if a < b {
            chunk(
                k,
                &mut master.lock(w),
                &mut m.lock(w),
                &mut v.lock(w),
                &grads[a..b],
                &mut out.lock(w),
            );
        }
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
