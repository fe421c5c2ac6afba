//! The per-(sequence, head) core of causal multi-head self-attention:
//! scores, causal softmax and the value mix forward, and the four products
//! and the softmax backward of the backward pass, for every (sequence, head)
//! pair of a batch in one call.
//!
//! The core reads each pair's Q, K, V (and, backward, `dO`) block where it
//! lies in the whole-batch `(seqs·L) × d_model` matrices, at their row
//! stride, and writes the pair's `O` (and `dQ`, `dK`, `dV`) rows straight
//! into the whole-batch outputs: no head block is copied out and back. It
//! caches every pair's probabilities in one flat buffer, key-major (`P(i, j)`
//! at `j·w + i`, `w` the sequence length rounded up to 16), so a
//! register holds one key's probabilities for consecutive query rows.
//!
//! # Bits
//!
//! Every output element is the value the per-head GEMM composition gives it
//! (`crates/model/tests/attention_oracle.rs` holds the two to `==`): Q·Kᵀ,
//! P·V, dO·Vᵀ, Pᵀ·dO, dS·K and dSᵀ·Q run as the [`crate::kernels`] family
//! would fold them for a `L×d_head` head.
//!
//! - **Products.** On both x86 families each element is one FMA chain over
//!   ascending k from `+0.0`, except an `nn` product's (`P·V`, `dS·K`)
//!   columns past the head's last full 16-column panel, which are the
//!   mul-then-add chain — the loop nest's column edge. On the scalar family
//!   every element is the mul-then-add chain. Every product folds every k,
//!   masked keys included (their probability is `+0.0`, and `0·NaN` poisons
//!   as it does in the GEMM).
//! - **Softmax.** Row `i` of the scores is `softmax(scale · s[i][..=i])`
//!   followed by `0 · (1/sum)`: scale; the max from `−inf` with `f32::max`'s
//!   NaN rule; `exp(s − max)` through [`crate::vmath`]'s lane code; the sum
//!   ascending over `j ≤ i` from `+0.0`; one reciprocal; every entry of the
//!   row multiplied by it. Masked scores are never read. Backward,
//!   `dot = Σ_j P·dP` from `Sum`'s start value, mul-then-add over every j,
//!   then `dS = P·(dP − dot)·scale`.
//!
//! The x86 families run the pass with one lane per query row: the softmax
//! folds each row in its own lane, in the row's order, so a 16-lane
//! register folds 16 rows at once where a row-at-a-time fold waits on each
//! add's latency. Lanes also run the scores (one key against 16 query rows,
//! from register-transposed head blocks) and, with a lane per head column,
//! the four mixes. It is safe `#[target_feature]` code over
//! [`crate::simd`]'s lane primitives; the scalar family runs the plain-Rust
//! specification below.

use crate::kernels::record_gemm;
use crate::matrix::Matrix;
use crate::vmath;
use std::time::Instant;

/// The query-axis padding of the key-major blocks: a whole 16-lane register
/// of query rows fits at every key.
pub(crate) const LANE_PAD: usize = 16;

/// A batch's attention geometry, as the kernels read it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Geom {
    /// Pairs: sequences × heads.
    pub(crate) pairs: usize,
    pub(crate) heads: usize,
    /// Rows per sequence (`L`).
    pub(crate) seq_len: usize,
    /// Query-axis stride of a key-major block: `L` rounded up to [`LANE_PAD`].
    pub(crate) lanes: usize,
    pub(crate) d_head: usize,
    /// `1/√d_head`.
    pub(crate) scale: f32,
}

impl Geom {
    /// Row stride of the whole-batch matrices.
    pub(crate) fn d_model(&self) -> usize {
        self.heads * self.d_head
    }

    /// Floats of one pair's key-major block.
    pub(crate) fn block(&self) -> usize {
        self.seq_len * self.lanes
    }

    /// Head columns an `nn` product folds by FMA: its full 16-column panels.
    pub(crate) fn fused_nn(&self) -> usize {
        self.d_head / 16 * 16
    }

    /// Offset of `pair`'s (row 0, head column 0) in a whole-batch matrix.
    pub(crate) fn origin(&self, pair: usize) -> usize {
        let (seq, head) = (pair / self.heads, pair % self.heads);
        seq * self.seq_len * self.d_model() + head * self.d_head
    }

    /// Scratch floats: two transposed `d_head × lanes` head blocks and
    /// three `L × lanes` blocks (scores or `dS`, and backward's query-major
    /// copies of P and `dS`).
    pub(crate) fn scratch(&self) -> usize {
        2 * self.d_head * self.lanes + 3 * self.block()
    }
}

/// Causal attention's per-(sequence, head) core for `seq_len`-row
/// sequences and `heads` heads, with the probabilities its last forward
/// cached. Buffers only grow, so steady-state calls at one batch shape
/// allocate nothing.
pub struct AttentionCore {
    seq_len: usize,
    heads: usize,
    /// Sequences the cache holds.
    seqs: usize,
    /// Every pair's key-major probabilities, pair `b·heads + h` at
    /// `pair·block` (only grows).
    probs: Vec<f32>,
    scratch: Vec<f32>,
}

impl AttentionCore {
    pub fn new(seq_len: usize, heads: usize) -> Self {
        assert!(seq_len > 0 && heads > 0, "attention needs a sequence length and a head");
        Self { seq_len, heads, seqs: 0, probs: Vec::new(), scratch: Vec::new() }
    }

    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Sequences the last forward cached.
    pub fn cached_seqs(&self) -> usize {
        self.seqs
    }

    /// The cached probability of query row `i` for key `j` of `head` in
    /// sequence `seq` (`0` for `j > i`).
    pub fn prob(&self, seq: usize, head: usize, i: usize, j: usize) -> f32 {
        assert!(seq < self.seqs && head < self.heads && i < self.seq_len && j < self.seq_len);
        let lanes = self.seq_len.next_multiple_of(LANE_PAD);
        self.probs[(seq * self.heads + head) * self.seq_len * lanes + j * lanes + i]
    }

    fn geom(&self, m: &Matrix) -> Geom {
        let (rows, d) = (m.rows(), m.cols());
        assert_eq!(rows % self.seq_len, 0, "input must tile whole sequences");
        assert_eq!(d % self.heads, 0, "d_model must divide by the heads");
        let d_head = d / self.heads;
        Geom {
            pairs: rows / self.seq_len * self.heads,
            heads: self.heads,
            seq_len: self.seq_len,
            lanes: self.seq_len.next_multiple_of(LANE_PAD),
            d_head,
            scale: 1.0 / (d_head as f32).sqrt(),
        }
    }

    /// `out` = every pair's `softmax(scale · Q Kᵀ, causal) · V`, its rows
    /// and head columns where the pair's Q rows are; caches the
    /// probabilities for [`AttentionCore::backward`].
    pub fn forward(&mut self, q: &Matrix, k: &Matrix, v: &Matrix, out: &mut Matrix) {
        let g = self.geom(q);
        same_shape(q, &[k, v]);
        let t0 = Instant::now();
        self.seqs = q.rows() / self.seq_len;
        grow(&mut self.probs, g.pairs * g.block());
        grow(&mut self.scratch, g.scratch());
        out.resize_to(q.rows(), q.cols());
        let (q, k, v) = (q.as_slice(), k.as_slice(), v.as_slice());
        let (probs, scratch, o) = (&mut self.probs[..], &mut self.scratch[..], out.as_mut_slice());
        #[cfg(target_arch = "x86_64")]
        if crate::kernels::avx2_encodings() {
            crate::simd::attention_forward(g, q, k, v, probs, scratch, o);
        } else {
            forward_spec(g, q, k, v, probs, scratch, o);
        }
        #[cfg(not(target_arch = "x86_64"))]
        forward_spec(g, q, k, v, probs, scratch, o);
        record_products(t0, g, 2);
    }

    /// The backward of [`AttentionCore::forward`] from `dout` (`dL/dO`):
    /// writes `dq`, `dk` and `dv`. It reads the cached probabilities and
    /// leaves them intact, so it may run again.
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &mut self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        dout: &Matrix,
        dq: &mut Matrix,
        dk: &mut Matrix,
        dv: &mut Matrix,
    ) {
        let g = self.geom(q);
        same_shape(q, &[k, v, dout]);
        assert_eq!(q.rows() / self.seq_len, self.seqs, "backward without matching forward");
        let t0 = Instant::now();
        grow(&mut self.scratch, g.scratch());
        for m in [&mut *dq, &mut *dk, &mut *dv] {
            m.resize_to(q.rows(), q.cols());
        }
        let ins = [q.as_slice(), k.as_slice(), v.as_slice(), dout.as_slice()];
        let outs = [dq.as_mut_slice(), dk.as_mut_slice(), dv.as_mut_slice()];
        let (probs, scratch) = (&self.probs[..], &mut self.scratch[..]);
        #[cfg(target_arch = "x86_64")]
        if crate::kernels::avx2_encodings() {
            crate::simd::attention_backward(g, ins, probs, scratch, outs);
        } else {
            backward_spec(g, ins, probs, scratch, outs);
        }
        #[cfg(not(target_arch = "x86_64"))]
        backward_spec(g, ins, probs, scratch, outs);
        record_products(t0, g, 4);
    }
}

fn same_shape(m: &Matrix, others: &[&Matrix]) {
    for o in others {
        assert_eq!(
            (o.rows(), o.cols()),
            (m.rows(), m.cols()),
            "attention operands differ in shape"
        );
    }
}

fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Books the call's wall time, softmax included, as GEMM time, with the
/// FLOPs of the `products` per-head GEMMs it replaces (2·L·L·d_head each,
/// per pair).
fn record_products(t0: Instant, g: Geom, products: u64) {
    let per_pair = 2 * (g.seq_len * g.seq_len * g.d_head) as u64;
    record_gemm(t0.elapsed().as_nanos() as u64, products * per_pair * g.pairs as u64);
}

/// `Sum`'s start value for `f32`: the backward's `dot` folds from it.
pub(crate) fn sum_start() -> f32 {
    std::iter::empty::<f32>().sum()
}

// ---------------------------------------------------------------------------
// The specification: the scalar family's folds
// ---------------------------------------------------------------------------
//
// Every product element is the mul-then-add chain over ascending k from
// `+0.0`. The loops run k outside the independent chains they advance (a
// row of scores over the keys, a row of a mix over the head columns), so
// each inner loop is an elementwise `+=` the compiler may vectorize without
// reordering any chain.

/// `t[c·w + r] = m[o + r·ld + c]` for a `rows × cols` block of `m`.
fn transpose(
    m: &[f32],
    o: usize,
    ld: usize,
    (rows, cols): (usize, usize),
    t: &mut [f32],
    w: usize,
) {
    for r in 0..rows {
        for (c, &x) in m[o + r * ld..][..cols].iter().enumerate() {
            t[c * w + r] = x;
        }
    }
}

/// `acc[j] += a[c] · bt[c·w + j]` over ascending `c`: a row of `a · bᵀ`
/// from B transposed.
fn dots(acc: &mut [f32], a: &[f32], bt: &[f32], w: usize) {
    for (c, &x) in a.iter().enumerate() {
        for (s, &y) in acc.iter_mut().zip(&bt[c * w..]) {
            *s += x * y;
        }
    }
}

/// `acc[c] += coef · row[c]`.
fn axpy(acc: &mut [f32], coef: f32, row: &[f32]) {
    for (s, &y) in acc.iter_mut().zip(row) {
        *s += coef * y;
    }
}

fn forward_spec(
    g: Geom,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    probs: &mut [f32],
    scratch: &mut [f32],
    out: &mut [f32],
) {
    let (l, w, dh, d) = (g.seq_len, g.lanes, g.d_head, g.d_model());
    let (kt, row) = scratch.split_at_mut(dh * w);
    for (pair, p) in probs.chunks_exact_mut(g.block()).take(g.pairs).enumerate() {
        let o = g.origin(pair);
        transpose(k, o, d, (l, dh), kt, w);
        for i in 0..l {
            let past = &mut row[..=i];
            past.fill(0.0);
            dots(past, &q[o + i * d..][..dh], kt, w);
            past.iter_mut().for_each(|s| *s *= g.scale);
            let max = past.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for s in past.iter_mut() {
                *s = vmath::exp(*s - max);
                sum += *s;
            }
            let inv = 1.0 / sum;
            for j in 0..l {
                let e = if j <= i { row[j] } else { 0.0 };
                p[j * w + i] = e * inv;
            }
        }
        for i in 0..l {
            let acc = &mut out[o + i * d..][..dh];
            acc.fill(0.0);
            for j in 0..l {
                axpy(acc, p[j * w + i], &v[o + j * d..][..dh]);
            }
        }
    }
}

fn backward_spec(
    g: Geom,
    [q, k, v, dout]: [&[f32]; 4],
    probs: &[f32],
    scratch: &mut [f32],
    [dq, dk, dv]: [&mut [f32]; 3],
) {
    let (l, w, dh, d) = (g.seq_len, g.lanes, g.d_head, g.d_model());
    // `dS(i, j)` query-major, at `i·w + j`.
    let (vt, ds) = scratch.split_at_mut(dh * w);
    for (pair, p) in probs.chunks_exact(g.block()).take(g.pairs).enumerate() {
        let o = g.origin(pair);
        transpose(v, o, d, (l, dh), vt, w);
        for i in 0..l {
            let dp = &mut ds[i * w..][..l];
            dp.fill(0.0);
            dots(dp, &dout[o + i * d..][..dh], vt, w);
            let dot: f32 = (0..l).map(|j| p[j * w + i] * dp[j]).sum();
            for (j, s) in dp.iter_mut().enumerate() {
                *s = p[j * w + i] * (*s - dot) * g.scale;
            }
        }
        for x in 0..l {
            let at = o + x * d;
            let (dvx, dkx, dqx) = (&mut dv[at..][..dh], &mut dk[at..][..dh], &mut dq[at..][..dh]);
            for m in [&mut *dvx, &mut *dkx, &mut *dqx] {
                m.fill(0.0);
            }
            for y in 0..l {
                let r = o + y * d..o + y * d + dh;
                axpy(dvx, p[x * w + y], &dout[r.clone()]);
                axpy(dkx, ds[y * w + x], &q[r.clone()]);
                axpy(dqx, ds[x * w + y], &k[r]);
            }
        }
    }
}
