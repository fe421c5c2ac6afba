//! The placement-independent part of an MoE-layer iteration: what happens
//! to a rank's tokens between the router and the expert gradients.
//!
//! The engine routes top-1 through a frozen router, then decides — from
//! its placement and the per-slot capacity rule — which tokens survive and
//! which global slot each goes to. From there the work is the
//! same whatever made that decision: dispatch all-to-all into the hosting
//! ranks, expert forward — one batch per hosted *class*, whichever of its
//! co-located slots a row was sent to — combine all-to-all, gated MSE against
//! the target, gradient-return all-to-all, per-class backward to the expert
//! weight gradients (the dispatched rows have no trainable layer upstream,
//! so no input gradient is formed). That is [`route`] and [`TokenPath`].
//! `MoeLayerEngine` runs on it in both of its configurations, SYMI's and
//! DeepSpeed's, so a comparison between them measures placement and
//! optimizer coupling — the paper's claim about what differs — and nothing
//! else.

use std::time::Instant;
use symi_collectives::{CommError, CommGroup, RankCtx, TagSpace, WirePhase};
use symi_model::expert::{ExpertFfn, SlotBatches, WeightStorage};
use symi_telemetry::{Phase, TelemetryHandle};
use symi_tensor::ops::softmax_rows_in_place;
use symi_tensor::Matrix;

/// Top-1 routing of one rank's tokens.
pub struct Routed {
    /// Expert class of each token.
    pub assignment: Vec<usize>,
    /// Router probability of each token's chosen class.
    pub gates: Vec<f32>,
    /// Tokens per class on this rank (not yet aggregated).
    pub popularity: Vec<u64>,
    /// NaN router probabilities seen (softmax of an inf/NaN logit).
    pub nan_probs: u64,
}

/// Routes every row of `x_local` to the class with the highest router
/// probability under the frozen router `router_w` (`d_model × classes`).
/// `probs` is the caller's buffer ([`TokenBuffers::router_probs`]): it takes
/// the logits and then, softmaxed in place, the probabilities, so at a
/// steady batch shape routing allocates neither.
///
/// The argmax sorts NaN last: a NaN probability must not panic the
/// iteration — it loses to every finite entry and is counted, so the
/// numeric trouble upstream stays loud. Ties go to the last class.
pub fn route(
    x_local: &Matrix,
    router_w: &Matrix,
    probs: &mut Matrix,
    telemetry: &TelemetryHandle,
) -> Routed {
    let _span = telemetry.span(Phase::Routing);
    let t_loc = x_local.rows();
    x_local.matmul_into(router_w, probs);
    softmax_rows_in_place(probs);
    let mut routed = Routed {
        assignment: Vec::with_capacity(t_loc),
        gates: Vec::with_capacity(t_loc),
        popularity: vec![0u64; router_w.cols()],
        nan_probs: 0,
    };
    for t in 0..t_loc {
        let row = probs.row(t);
        routed.nan_probs += row.iter().filter(|p| p.is_nan()).count() as u64;
        let (best, &p) = row
            .iter()
            .enumerate()
            .max_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                (false, false) => a.1.partial_cmp(b.1).expect("both finite"),
            })
            .expect("at least one class");
        routed.assignment.push(best);
        routed.gates.push(p);
        routed.popularity[best] += 1;
    }
    routed
}

/// What a rank's token path keeps from one iteration to the next: the
/// per-class expert I/O, the loss gradient, and the payloads of the
/// all-to-alls. What an exchange received is what the next exchange's sends
/// are built in — the three row exchanges (dispatch, combine, gradient
/// return) take turns on one payload set, each done with what it received
/// before the next one sends — so at a steady batch shape the path allocates
/// none of them.
pub struct TokenBuffers {
    pub batches: SlotBatches,
    /// The router's logits, then its probabilities, one row per local
    /// token ([`route`]).
    pub router_probs: Matrix,
    /// `dLoss/dy` of the last [`TokenPath::forward`], one row per local token.
    dy: Matrix,
    rows: Vec<Vec<f32>>,
    meta: Vec<Vec<u64>>,
    cursor: Vec<usize>,
}

impl TokenBuffers {
    pub fn new(slots_per_rank: usize, d_model: usize) -> Self {
        Self {
            batches: SlotBatches::new(slots_per_rank, d_model),
            router_probs: Matrix::zeros(0, 0),
            dy: Matrix::zeros(0, d_model),
            rows: Vec::new(),
            meta: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// `dLoss/dy` of the last [`TokenPath::forward`], one row per local
    /// token (a dropped token's `y` is zero, so its row is the target's pull
    /// alone).
    pub fn loss_grad(&self) -> &Matrix {
        &self.dy
    }
}

/// Takes the payload set `bufs` as `n` empty send buffers that keep their
/// capacity.
fn send_bufs<T>(bufs: &mut Vec<Vec<T>>, n: usize) -> Vec<Vec<T>> {
    let mut bufs = std::mem::take(bufs);
    bufs.resize_with(n, Vec::new);
    bufs.iter_mut().for_each(Vec::clear);
    bufs
}

/// One iteration's token exchange on one rank: who takes part, under which
/// tags, and where this rank's surviving tokens go. Slot `k` lives on member
/// `k / slots_per_rank` of `group`.
pub struct TokenPath<'a> {
    /// The ranks exchanging tokens, in slot-owner order.
    pub group: &'a CommGroup,
    /// This rank's index in `group`.
    pub rank: usize,
    /// The iteration's tag space.
    pub tags: TagSpace,
    /// Gate of every local token ([`Routed::gates`]).
    pub gates: &'a [f32],
    /// Local indices of the tokens that survived capacity, ascending.
    pub kept: &'a [usize],
    /// Global slot of each kept token.
    pub kept_slot: &'a [usize],
    pub telemetry: &'a TelemetryHandle,
}

impl TokenPath<'_> {
    /// Dispatches the kept rows of `x_local` to their slots, runs this
    /// rank's experts (one per set of `bufs.batches`, i.e. per hosted class)
    /// on what arrived, and combines the returned outputs:
    /// `y[t] = gate_t · expert(x_t)` for kept tokens, zero for dropped ones
    /// (residual semantics live outside).
    ///
    /// Leaves `dLoss/dy` of the global-mean squared error against
    /// `target_local` in `bufs` for [`TokenPath::backward`] and returns this
    /// rank's `Σ (y − target)²`. The loss scalar is advisory, so summing it
    /// over ranks is left to the caller.
    pub fn forward<W: WeightStorage>(
        &self,
        ctx: &mut RankCtx,
        x_local: &Matrix,
        target_local: &Matrix,
        experts: &mut [ExpertFfn<W>],
        bufs: &mut TokenBuffers,
    ) -> Result<f32, CommError> {
        let (n, s) = (self.group.size(), bufs.batches.slots());
        let (t_loc, d) = (x_local.rows(), x_local.cols());
        let tele = self.telemetry;

        let dispatch_span = tele.span(Phase::Dispatch);
        let mut rows = send_bufs(&mut bufs.rows, n);
        let mut meta = send_bufs(&mut bufs.meta, n);
        for (&t, &slot) in self.kept.iter().zip(self.kept_slot) {
            let dest = slot / s;
            rows[dest].extend_from_slice(x_local.row(t));
            meta[dest].push(slot as u64);
        }
        bufs.rows =
            ctx.alltoallv_f32(self.group, self.tags.phase_tag(WirePhase::DispatchRows), rows)?;
        bufs.meta =
            ctx.alltoallv_u64(self.group, self.tags.phase_tag(WirePhase::DispatchMeta), meta)?;
        // Assemble the rows straight into the sets' input matrices.
        bufs.batches.assemble_inputs(self.rank * s, &bufs.meta, &bufs.rows);
        drop(dispatch_span);

        {
            let _span = tele.span(Phase::ExpertFfn);
            bufs.batches.forward(experts);
        }

        // Return outputs in each source's original send order.
        let _span = tele.span(Phase::Combine);
        let mut outs = send_bufs(&mut bufs.rows, n);
        for (src, buf) in outs.iter_mut().enumerate() {
            bufs.batches.append_outputs(src, buf);
        }
        bufs.rows =
            ctx.alltoallv_f32(self.group, self.tags.phase_tag(WirePhase::CombineReturn), outs)?;
        let dy = &mut bufs.dy;
        dy.resize_to(t_loc, d);
        dy.fill_zero();
        bufs.cursor.clear();
        bufs.cursor.resize(n, 0);
        for (&t, &slot) in self.kept.iter().zip(self.kept_slot) {
            let dest = slot / s;
            let j = bufs.cursor[dest];
            bufs.cursor[dest] += 1;
            let row = &bufs.rows[dest][j * d..(j + 1) * d];
            let g = self.gates[t];
            for (y, &v) in dy.row_mut(t).iter_mut().zip(row) {
                *y += g * v;
            }
        }

        dy.axpy(-1.0, target_local);
        let local_sq: f32 = dy.as_slice().iter().map(|v| v * v).sum();
        // dLoss/dy = 2 (y - target) / (T_global · d) for the mean of
        // squares — the finite-difference probe in the engine's tests pins
        // the factor 2 the loss/gradient pair needs to stay consistent.
        dy.scale(2.0 / ((t_loc * n) as f32 * d as f32));
        Ok(local_sq)
    }

    /// Sends each kept token's gated upstream gradient (the `dLoss/dy`
    /// [`TokenPath::forward`] left in `bufs`) back to its slot and
    /// backpropagates every set into its expert's flat gradient, and no
    /// further: nothing upstream of the experts reads an input gradient. A
    /// set that received no token keeps its gradient marked zero. Publishes
    /// the `grad_return_ms` gauge and the rank's expert-load gauges.
    pub fn backward<W: WeightStorage>(
        &self,
        ctx: &mut RankCtx,
        experts: &mut [ExpertFfn<W>],
        bufs: &mut TokenBuffers,
    ) -> Result<(), CommError> {
        let tele = self.telemetry;
        let s = bufs.batches.slots();
        let t_return = Instant::now();
        let return_span = tele.span(Phase::GradComm);
        let mut grads = send_bufs(&mut bufs.rows, self.group.size());
        for (&t, &slot) in self.kept.iter().zip(self.kept_slot) {
            let g = self.gates[t];
            grads[slot / s].extend(bufs.dy.row(t).iter().map(|&v| v * g));
        }
        bufs.rows =
            ctx.alltoallv_f32(self.group, self.tags.phase_tag(WirePhase::GradReturn), grads)?;
        // Scatter into the sets' upstream matrices using the dispatch map.
        bufs.batches.assemble_grads(&bufs.rows);
        drop(return_span);
        let grad_return = t_return.elapsed();

        {
            let _span = tele.span(Phase::ExpertFfn);
            bufs.batches.backward(experts);
        }
        if tele.is_enabled() {
            tele.gauge("grad_return_ms").set(grad_return.as_secs_f64() * 1e3);
            bufs.batches.publish_load(tele);
        }
        Ok(())
    }
}
