//! The SYMI Optimizer (§3.2 steps 4–8, §4.3–§4.4).
//!
//! Every node owns the same `1/N` slice of **every** expert's optimizer
//! state — uniform static sharding, never relocated (Appendix A.1 proves
//! this optimal). Each iteration the optimizer:
//!
//! 1. **Grad Communication Phase** (Algorithm 2): collects its gradient
//!    shard for every class — locally when a replica is co-resident,
//!    otherwise from a source replica chosen by round-robin over the
//!    class's host ranks, spreading load so no replica becomes a hotspot.
//! 2. Steps Adam on each shard (host-side; the staging across PCIe is
//!    accounted via the traffic counters). The kernel publishes the updated
//!    weights as binary16 bits in the same pass — the wire format.
//! 3. **Weight Communication Phase**: scatters those fp16 shards to each
//!    rank hosting the class under the **next** iteration's placement, where
//!    they are decoded straight into the hosting slots. Because the slots
//!    must receive fresh weights anyway, re-placement is free — the paper's
//!    central claim.
//!
//! All geometry here runs over **logical** ranks `0..view.size()` of a
//! [`MembershipView`]; physical ranks appear only at the wire (send/recv
//! targets and tag `src` fields). On the initial full-world view logical
//! and physical coincide, so the healthy path is bit-identical to the
//! pre-elastic code. After a rank death, [`SymiOptimizer::reshard`]
//! recomputes the `1/N` chunk geometry over the survivors and rebuilds the
//! newly-acquired slices from the freshest surviving state.

use crate::placement::ExpertPlacement;
use symi_collectives::coll::chunk_range;
use symi_collectives::tag::with_step;
use symi_collectives::{
    decode_f16_into, encode_f16, CommError, MembershipView, RankCtx, RecvOp, SendOp, TagSpace,
    WirePhase,
};
use symi_model::expert::ExpertFfn;
use symi_telemetry::{Phase, TelemetryHandle};
use symi_tensor::{AdamConfig, AdamShard};

/// Algorithm 2's `get_source`: which host rank serves `for_rank`'s shard
/// of a class hosted on `host_ranks` (ascending).
pub fn get_source(host_ranks: &[usize], for_rank: usize) -> usize {
    debug_assert!(!host_ranks.is_empty(), "class must be hosted somewhere");
    if host_ranks.binary_search(&for_rank).is_ok() {
        return for_rank;
    }
    host_ranks[for_rank % host_ranks.len()]
}

/// Serializable state of one per-class Adam shard — the unit a snapshot
/// (and the elastic-recovery oracle test) moves around.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardState {
    pub offset: usize,
    pub master: Vec<f32>,
    pub m: Vec<f32>,
    pub v: Vec<f32>,
    pub t: u64,
}

impl ShardState {
    /// Parameters this shard covers.
    pub fn len(&self) -> usize {
        self.master.len()
    }

    pub fn is_empty(&self) -> bool {
        self.master.is_empty()
    }

    /// Validates this shard against the uniform chunk geometry of
    /// `(param_count, world, logical_rank)` and its own internal length
    /// invariants. Returns the name of the first offending field, which a
    /// checkpoint loader surfaces verbatim so a corrupt-but-CRC-valid blob
    /// is rejected naming the exact field.
    pub fn check_geometry(
        &self,
        param_count: usize,
        world: usize,
        logical_rank: usize,
    ) -> Result<(), &'static str> {
        let (start, end) = chunk_range(param_count, world, logical_rank);
        if self.offset != start {
            return Err("shard.offset");
        }
        if self.master.len() != end - start {
            return Err("shard.master");
        }
        if self.m.len() != self.master.len() {
            return Err("shard.m");
        }
        if self.v.len() != self.master.len() {
            return Err("shard.v");
        }
        Ok(())
    }
}

/// Accounting of one [`SymiOptimizer::reshard`]: how many parameters of
/// this rank's new shard were kept (old chunk overlap, moments intact),
/// how many were re-acquired with moments reset (the documented, bounded
/// degradation of a *shrink*), how many — of those — had to fall back to
/// canonical re-initialization because no surviving copy existed at all,
/// and how many arrived with their full fp32 Adam state over the wire (a
/// *grow* transfers shed slices moments-and-all, so a join never degrades
/// optimizer state).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReshardReport {
    pub kept_params: u64,
    pub reseeded_params: u64,
    pub reinitialized_params: u64,
    pub transferred_params: u64,
}

/// Where an acquired re-shard segment's master weights come from, in
/// freshness order (§3.3: the fp16 replicas are refreshed every iteration,
/// so they are the best surviving copy when the fp32 owner died).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PieceSource {
    /// fp16 working weights of the class's lowest surviving replica host.
    F16Replica { src: usize },
    /// fp32 master slice from the segment's previous chunk owner (only for
    /// classes whose every fp16 replica died with the lost rank).
    F32Master { src: usize },
    /// Canonical deterministic re-initialization: no surviving copy.
    Reinit,
}

/// One contiguous segment `[start, end)` of one class's flat parameters
/// that `dst` (physical) must acquire during a re-shard.
#[derive(Clone, Copy, Debug)]
struct ReshardPiece {
    class: usize,
    dst: usize,
    start: usize,
    end: usize,
    source: PieceSource,
}

/// Deterministic re-shard transfer plan, identical on every survivor: for
/// each class and each new chunk owner, the segments it does not already
/// hold and the freshest surviving source for each.
fn reshard_plan(
    old_view: &MembershipView,
    new_view: &MembershipView,
    old_placement: &ExpertPlacement,
    expert_classes: usize,
    param_count: usize,
) -> Vec<ReshardPiece> {
    let old_n = old_view.size();
    let new_n = new_view.size();
    let mut plan = Vec::new();
    for class in 0..expert_classes {
        // fp16 authority: lowest surviving *physical* rank hosting the
        // class under the old placement (all replicas are bit-identical,
        // so one canonical choice keeps every survivor's plan equal).
        let authority = old_placement
            .host_ranks(class)
            .iter()
            .map(|&l| old_view.physical_of(l))
            .filter(|&p| new_view.is_alive(p))
            .min();
        for dst_l in 0..new_n {
            let dst = new_view.physical_of(dst_l);
            let (ns, ne) = chunk_range(param_count, new_n, dst_l);
            let dst_old_l = old_view.logical_of(dst).expect("new-view ranks survive the old");
            let (os, oe) = chunk_range(param_count, old_n, dst_old_l);
            // Acquired = new chunk minus old chunk: at most two segments.
            let before = (ns, ne.min(os));
            let after = (ns.max(oe), ne);
            for (a, b) in [before, after] {
                if a >= b {
                    continue;
                }
                match authority {
                    Some(src) => {
                        plan.push(ReshardPiece {
                            class,
                            dst,
                            start: a,
                            end: b,
                            source: PieceSource::F16Replica { src },
                        });
                    }
                    None => {
                        // Orphan class: split by the *old* chunk geometry
                        // and pull each sub-piece's fp32 master from its
                        // previous owner when that owner survives.
                        for owner_l in 0..old_n {
                            let (cs, ce) = chunk_range(param_count, old_n, owner_l);
                            let (pa, pb) = (a.max(cs), b.min(ce));
                            if pa >= pb {
                                continue;
                            }
                            let owner = old_view.physical_of(owner_l);
                            let source = if new_view.is_alive(owner) {
                                PieceSource::F32Master { src: owner }
                            } else {
                                PieceSource::Reinit
                            };
                            plan.push(ReshardPiece { class, dst, start: pa, end: pb, source });
                        }
                    }
                }
            }
        }
    }
    plan
}

/// One contiguous segment `[start, end)` of the fp32 Adam state (identical
/// geometry for every class) that `dst` must acquire from `src` during a
/// *grow* re-shard. Both ranks are physical; `src` is the segment's old
/// chunk owner, which a pure grow guarantees is still alive.
#[derive(Clone, Copy, Debug)]
struct GrowPiece {
    dst: usize,
    start: usize,
    end: usize,
    src: usize,
}

/// Deterministic grow-transfer plan, identical on every member of the new
/// view (the joiner included — unlike the shrink plan it needs no old
/// placement, because shed fp32 state moves owner-to-owner rather than
/// being rebuilt from fp16 replicas): for each new chunk owner, the
/// segments its new chunk acquires beyond its old chunk (the whole chunk,
/// for a brand-new member), split by the old chunk geometry so each
/// segment has exactly one source.
fn grow_plan(
    old_view: &MembershipView,
    new_view: &MembershipView,
    param_count: usize,
) -> Vec<GrowPiece> {
    let old_n = old_view.size();
    let new_n = new_view.size();
    let mut plan = Vec::new();
    for dst_l in 0..new_n {
        let dst = new_view.physical_of(dst_l);
        let (ns, ne) = chunk_range(param_count, new_n, dst_l);
        let (os, oe) = match old_view.logical_of(dst) {
            Some(old_l) => chunk_range(param_count, old_n, old_l),
            None => (ns, ns), // the joiner held nothing: acquire everything
        };
        // Acquired = new chunk minus old chunk: at most two segments.
        let before = (ns, ne.min(os));
        let after = (ns.max(oe), ne);
        for (a, b) in [before, after] {
            if a >= b {
                continue;
            }
            for owner_l in 0..old_n {
                let (cs, ce) = chunk_range(param_count, old_n, owner_l);
                let (pa, pb) = (a.max(cs), b.min(ce));
                if pa >= pb {
                    continue;
                }
                plan.push(GrowPiece {
                    dst,
                    start: pa,
                    end: pb,
                    src: old_view.physical_of(owner_l),
                });
            }
        }
    }
    plan
}

/// This rank's shard of one class's synchronized gradient, as Algorithm 2
/// delivered it.
#[derive(Debug)]
pub(crate) enum GradShard {
    /// Sourced from this rank's own replica: the shard is
    /// [`SymiOptimizer::shard_range`] of the class's local synchronized
    /// gradient and stays there — Adam steps from that slice, nothing is
    /// copied.
    Local,
    /// Received from a remote host rank in a wire buffer (empty for a
    /// zero-length shard); hand it back with [`RankCtx::recycle_f32`] once
    /// Adam has consumed it.
    Wire(Vec<f32>),
}

/// Per-rank SYMI optimizer state: one Adam shard per expert class.
pub struct SymiOptimizer {
    view: MembershipView,
    /// Logical rank within `view` (== physical on the initial full view).
    lrank: usize,
    adam: AdamConfig,
    param_count: usize,
    shards: Vec<AdamShard>,
    telemetry: TelemetryHandle,
}

impl SymiOptimizer {
    /// Initializes this rank's shard of every class from the classes'
    /// initial flat parameters (identical across ranks by construction),
    /// over the full `nodes`-rank world.
    pub fn new(rank: usize, nodes: usize, adam: AdamConfig, class_params: &[Vec<f32>]) -> Self {
        Self::with_view(MembershipView::full(nodes), rank, adam, class_params)
    }

    /// Initializes this rank's shards over an explicit membership view —
    /// the standby-world entry point: a cluster can run `active < world`
    /// members (`MembershipView::partial`) with the idle ranks awaiting a
    /// later join.
    pub(crate) fn with_view(
        view: MembershipView,
        logical_rank: usize,
        adam: AdamConfig,
        class_params: &[Vec<f32>],
    ) -> Self {
        assert!(!class_params.is_empty(), "need at least one expert class");
        assert!(logical_rank < view.size(), "logical rank {logical_rank} out of the view");
        let param_count = class_params[0].len();
        assert!(class_params.iter().all(|p| p.len() == param_count), "uneven expert sizes");
        let (start, end) = chunk_range(param_count, view.size(), logical_rank);
        let shards =
            class_params.iter().map(|p| AdamShard::new(adam, start, &p[start..end])).collect();
        Self {
            view,
            lrank: logical_rank,
            adam,
            param_count,
            shards,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Rebuilds an optimizer from explicit shard state — the snapshot
    /// restore path (and the oracle side of the elastic recovery test).
    ///
    /// # Panics
    /// Panics if a state blob's offset/length disagrees with the chunk
    /// geometry of `logical_rank` under `view`.
    pub(crate) fn from_shard_states(
        view: MembershipView,
        logical_rank: usize,
        adam: AdamConfig,
        param_count: usize,
        states: Vec<ShardState>,
    ) -> Self {
        assert!(!states.is_empty(), "need at least one expert class");
        let (start, end) = chunk_range(param_count, view.size(), logical_rank);
        let shards = states
            .into_iter()
            .map(|s| {
                assert_eq!(s.offset, start, "shard offset disagrees with chunk geometry");
                assert_eq!(s.master.len(), end - start, "shard length disagrees with geometry");
                AdamShard::from_parts(adam, s.offset, s.master, s.m, s.v, s.t)
            })
            .collect();
        Self {
            view,
            lrank: logical_rank,
            adam,
            param_count,
            shards,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Installs a telemetry handle: the three optimizer phases then time
    /// themselves (GradComm / OptimizerStep / WeightComm spans) and report
    /// the per-rank state footprint as a gauge.
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// The membership view this optimizer's geometry is built over.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// This rank's logical rank within [`SymiOptimizer::view`].
    pub fn logical_rank(&self) -> usize {
        self.lrank
    }

    fn nodes(&self) -> usize {
        self.view.size()
    }

    fn my_phys(&self) -> usize {
        self.view.physical_of(self.lrank)
    }

    /// This rank's shard boundaries within a flat expert parameter vector.
    /// Zero-length shards (more survivors than parameters) are legal: such
    /// a rank simply neither sends nor receives in the shard phases.
    pub fn shard_range(&self) -> (usize, usize) {
        chunk_range(self.param_count, self.nodes(), self.lrank)
    }

    pub fn expert_classes(&self) -> usize {
        self.shards.len()
    }

    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Adam's step counter (uniform across classes: [`SymiOptimizer::step`]
    /// advances every class together; 0 before the first step). A join
    /// carries this in the agreement payload so the joiner's bias
    /// correction continues exactly where the cluster is.
    pub(crate) fn adam_step_count(&self) -> u64 {
        self.shards.first().map_or(0, AdamShard::step_count)
    }

    /// Optimizer-state bytes held on this rank (16 B/param accounting).
    pub fn state_bytes(&self) -> u64 {
        self.shards.iter().map(AdamShard::state_bytes).sum()
    }

    /// Serializes every per-class shard (snapshot support).
    pub(crate) fn export_shard_states(&self) -> Vec<ShardState> {
        self.shards
            .iter()
            .map(|sh| {
                let (m, v) = sh.moments();
                ShardState {
                    offset: sh.offset(),
                    master: sh.master_weights().to_vec(),
                    m: m.to_vec(),
                    v: v.to_vec(),
                    t: sh.step_count(),
                }
            })
            .collect()
    }

    /// Grad Communication Phase: every rank ends up with its shard of every
    /// class's (already EDP-synchronized) gradient.
    ///
    /// `local_grads[class]` is `Some(full flat gradient)` iff this rank
    /// hosts a replica of `class` under `placement` (logical ranks). `tags`
    /// is the iteration's structured tag space: every shard travels under
    /// `(GradCollect, class, src_physical)` with exclusive bit fields, and
    /// each receive validates the shard's element count at the wire.
    ///
    /// This is the owned-`Vec` convenience form for callers that hold no
    /// slots (traffic harnesses, tests): `SymiOptimizer::collect_grads_in_place`
    /// plus a copy of every locally-sourced shard. Outgoing shards and those
    /// copies are drawn from the wire-buffer free list; the caller owns the
    /// returned shards and should hand them back ([`RankCtx::recycle_f32`])
    /// once Adam has consumed them.
    pub fn collect_grads<G: AsRef<[f32]>>(
        &self,
        ctx: &mut RankCtx,
        placement: &ExpertPlacement,
        local_grads: &[Option<G>],
        tags: TagSpace,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let shards = self.collect_grads_in_place(ctx, placement, local_grads, tags)?;
        let (ms, mt) = self.shard_range();
        Ok(shards
            .into_iter()
            .zip(local_grads)
            .map(|(shard, local)| match shard {
                GradShard::Wire(shard) => shard,
                GradShard::Local => {
                    let grad = local.as_ref().expect("locally sourced, so hosted").as_ref();
                    ctx.pooled_copy_f32(&grad[ms..mt])
                }
            })
            .collect())
    }

    /// The Grad Communication Phase as the engine runs it: same sends, same
    /// receives, same accounting as [`SymiOptimizer::collect_grads`], but a
    /// shard Algorithm 2 sources from this rank is reported as
    /// [`GradShard::Local`] and left where it is — `shard_range` of
    /// `local_grads[class]` — for Adam to step from.
    pub(crate) fn collect_grads_in_place<G: AsRef<[f32]>>(
        &self,
        ctx: &mut RankCtx,
        placement: &ExpertPlacement,
        local_grads: &[Option<G>],
        tags: TagSpace,
    ) -> Result<Vec<GradShard>, CommError> {
        let _span = self.telemetry.span(Phase::GradComm);
        let e = self.shards.len();
        assert_eq!(local_grads.len(), e, "one (optional) gradient per class");
        let n = self.nodes();
        let me_phys = self.my_phys();
        ctx.begin_epoch(tags.iteration(), WirePhase::GradCollect);

        // Sends: for every class I host, serve the shard of every rank whose
        // get_source picks me. Zero-length destination shards never touch
        // the wire (both sides compute the same chunk geometry).
        let mut sends = Vec::new();
        for (class, maybe_grad) in local_grads.iter().enumerate() {
            let Some(grad) = maybe_grad.as_ref().map(AsRef::as_ref) else { continue };
            let hosts = placement.host_ranks(class);
            debug_assert!(hosts.contains(&self.lrank), "have grads only for hosted classes");
            for dst in 0..n {
                if dst == self.lrank {
                    continue;
                }
                if get_source(&hosts, dst) == self.lrank {
                    let (s, t) = chunk_range(self.param_count, n, dst);
                    if s == t {
                        continue;
                    }
                    sends.push(SendOp::new(
                        self.view.physical_of(dst),
                        tags.tag(WirePhase::GradCollect, class, me_phys),
                        ctx.pooled_copy_f32(&grad[s..t]),
                    ));
                }
            }
        }

        // Receives: my shard of every class, locally when possible.
        let (ms, mt) = self.shard_range();
        let mut recvs = Vec::new();
        let mut out: Vec<Option<GradShard>> = Vec::with_capacity(e);
        for (class, local) in local_grads.iter().enumerate() {
            if ms == mt {
                // Zero-length shard: nothing to collect for any class.
                out.push(Some(GradShard::Wire(Vec::new())));
                continue;
            }
            let hosts = placement.host_ranks(class);
            let src = get_source(&hosts, self.lrank);
            if src == self.lrank {
                debug_assert!(local.is_some(), "get_source returned self, so the class is local");
                out.push(Some(GradShard::Local));
            } else {
                let src_phys = self.view.physical_of(src);
                recvs.push(RecvOp::sized(
                    src_phys,
                    tags.tag(WirePhase::GradCollect, class, src_phys),
                    mt - ms,
                ));
                out.push(None);
            }
        }
        let retries_before = ctx.protocol_stats().retries;
        let mut received = ctx.batch_isend_irecv(sends, &recvs)?.into_iter();
        if self.telemetry.is_enabled() {
            // Retry attempts burned collecting this iteration's shards —
            // the first phase to stutter when a source replica straggles.
            let delta = ctx.protocol_stats().retries - retries_before;
            self.telemetry.gauge("grad_collect_retries").set(delta as f64);
        }

        // Stage every collected shard into host memory (PCIe leg of T_G;
        // gradients stay fp32 — only the weight phase travels fp16). Every
        // class's shard is `mt - ms` long, wherever it came from.
        ctx.record_host_device_bytes((e * (mt - ms)) as u64 * 4);
        out.into_iter()
            .map(|shard| match shard {
                Some(shard) => Ok(shard),
                None => received
                    .next()
                    .expect("one receive per remote class")
                    .into_f32()
                    .map(GradShard::Wire),
            })
            .collect()
    }

    /// Adam step over one class's shard — [`SymiOptimizer::step_into`] one
    /// class at a time, for a caller whose gradient shards are not all
    /// `Vec`s. Writes the updated fp16 weight shard into `out` (resized),
    /// reusing its allocation.
    pub(crate) fn step_class_into(&mut self, class: usize, grad_shard: &[f32], out: &mut Vec<u16>) {
        let _span = self.telemetry.span(Phase::OptimizerStep);
        self.shards[class].step_into(grad_shard, out);
    }

    /// Adam step over every class's shard; `out[class]` receives the updated
    /// weight shard as binary16 bits — what the kernel wrote, ready for
    /// [`SymiOptimizer::distribute_weights`] with no conversion pass.
    /// `out` is resized to one buffer per class and the buffers are reused.
    /// Each shard's elementwise update runs in parallel chunks on the shared
    /// worker pool (`symi_tensor::pool`), bit-exact for any worker count.
    pub fn step_into(&mut self, grad_shards: &[Vec<f32>], out: &mut Vec<Vec<u16>>) {
        let _span = self.telemetry.span(Phase::OptimizerStep);
        assert_eq!(grad_shards.len(), self.shards.len(), "one gradient shard per class");
        if self.telemetry.is_enabled() {
            self.telemetry.gauge("optimizer_state_bytes").set(self.state_bytes() as f64);
        }
        out.resize_with(self.shards.len(), Vec::new);
        for ((shard, grad), half) in self.shards.iter_mut().zip(grad_shards).zip(out) {
            shard.step_into(grad, half);
        }
    }

    /// [`SymiOptimizer::step_into`] into fresh buffers.
    pub fn step(&mut self, grad_shards: &[Vec<f32>]) -> Vec<Vec<u16>> {
        let mut out = Vec::new();
        self.step_into(grad_shards, &mut out);
        out
    }

    /// Weight Communication Phase: sends this rank's updated fp16 weight
    /// shard of every class **once per destination rank hosting the class**
    /// under the *new* placement, and returns one flat f32 weight vector per
    /// local slot (indexed by local slot id) — thereby *materializing* the
    /// new placement with zero extra traffic relative to a static system's
    /// weight update (§3.3-II).
    ///
    /// This is `SymiOptimizer::distribute_weights_into` with freshly
    /// allocated vectors as the sink, for callers that hold no slots
    /// (traffic harnesses, tests).
    pub fn distribute_weights(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        half_shards: &[Vec<u16>],
        tags: TagSpace,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let mut out = vec![vec![0.0f32; self.param_count]; new_placement.slots_per_rank()];
        let hosted = new_placement.classes_on_rank(self.lrank);
        self.scatter_weights(ctx, new_placement, half_shards, tags, |g, offset, half| {
            for &local in &hosted[g].1 {
                decode_f16_into(half, &mut out[local][offset..offset + half.len()]);
            }
        })?;
        Ok(out)
    }

    /// The Weight Communication Phase as the engine runs it: every shard —
    /// received, or this rank's own from `half_shards` — is decoded once,
    /// straight into the `W1 | b1 | W2 | b2` of the one expert that executes
    /// its class ([`ExpertFfn::load_f16_at`]). `experts[g]` takes the `g`-th
    /// class of `new_placement.classes_on_rank`, however many slots it fills.
    pub(crate) fn distribute_weights_into(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        half_shards: &[Vec<u16>],
        tags: TagSpace,
        experts: &mut [ExpertFfn],
    ) -> Result<(), CommError> {
        self.scatter_weights(ctx, new_placement, half_shards, tags, |g, offset, half| {
            experts[g].load_f16_at(offset, half);
        })
    }

    /// Advances the fencing epoch, sends every shard, receives this rank's
    /// classes' shards, and hands `sink` every `(index of the class in
    /// new_placement.classes_on_rank, offset in the flat parameters, fp16
    /// shard)` — once per hosted class and source chunk.
    ///
    /// `half_shards[class]` is this rank's shard of `class` as binary16
    /// bits — what [`SymiOptimizer::step_into`] wrote; nothing is converted
    /// here. A destination rank hosting several sibling slots of one class
    /// receives the shard once, and this rank's own classes are served
    /// straight from `half_shards` without touching the wire. Zero-length
    /// shards are skipped on the wire by both sides. The
    /// shards travel (and stage over PCIe) as 2 B/param [`Payload::F16`],
    /// each send in a buffer from the wire-buffer free list, and consumed
    /// wire buffers go back to it.
    ///
    /// [`Payload::F16`]: symi_collectives::Payload::F16
    fn scatter_weights(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        half_shards: &[Vec<u16>],
        tags: TagSpace,
        mut sink: impl FnMut(usize, usize, &[u16]),
    ) -> Result<(), CommError> {
        let _span = self.telemetry.span(Phase::WeightComm);
        let n = self.nodes();
        assert_eq!(half_shards.len(), self.shards.len(), "one weight shard per class");
        assert_eq!(new_placement.ranks(), n, "placement rank count mismatch");
        ctx.begin_epoch(tags.iteration(), WirePhase::WeightDistribute);
        let me_phys = self.my_phys();

        // The shards leave host memory over PCIe at their fp16 width.
        for shard in half_shards {
            ctx.record_host_device_bytes(shard.len() as u64 * 2);
        }

        // One send per (class, distinct remote host rank); my own slots are
        // fed locally below.
        let (ms, mt) = self.shard_range();
        let mut sends = Vec::new();
        if ms != mt {
            for (class, half) in half_shards.iter().enumerate() {
                assert_eq!(half.len(), mt - ms, "class {class}: weight shard length");
                for &dst in &new_placement.host_ranks(class) {
                    if dst == self.lrank {
                        continue;
                    }
                    sends.push(SendOp::new(
                        self.view.physical_of(dst),
                        tags.tag(WirePhase::WeightDistribute, class, me_phys),
                        ctx.pooled_copy_f16(half),
                    ));
                }
            }
        }

        // Receive each of my distinct classes' shard from every rank with a
        // non-empty chunk, length-checked at the wire.
        let my_classes = new_placement.classes_on_rank(self.lrank);
        let mut recvs = Vec::new();
        for &(class, _) in &my_classes {
            for src in 0..n {
                if src == self.lrank {
                    continue;
                }
                let (a, b) = chunk_range(self.param_count, n, src);
                if a == b {
                    continue;
                }
                let src_phys = self.view.physical_of(src);
                recvs.push(RecvOp::sized(
                    src_phys,
                    tags.tag(WirePhase::WeightDistribute, class, src_phys),
                    b - a,
                ));
            }
        }
        let retries_before = ctx.protocol_stats().retries;
        let mut received = ctx.batch_isend_irecv(sends, &recvs)?.into_iter();
        if self.telemetry.is_enabled() {
            // Retry attempts burned materializing the new placement — a
            // persistent nonzero here under a *healthy* plan would mean
            // ranks disagree about the placement (see engine degradation
            // notes), so it is worth its own gauge.
            let delta = ctx.protocol_stats().retries - retries_before;
            self.telemetry.gauge("weight_distribute_retries").set(delta as f64);
        }
        for (hosted, (class, _)) in my_classes.iter().enumerate() {
            for src in 0..n {
                let (a, b) = chunk_range(self.param_count, n, src);
                if a == b {
                    continue;
                }
                if src == self.lrank {
                    sink(hosted, a, &half_shards[*class]);
                } else {
                    let shard =
                        received.next().expect("one receive per (class, src)").into_f16()?;
                    sink(hosted, a, &shard);
                    ctx.recycle_f16(shard);
                }
            }
        }
        Ok(())
    }

    /// Re-shards optimizer ownership over the survivors of `new_view` —
    /// the core of elastic recovery (the tentpole of this change).
    ///
    /// The `1/N` chunk geometry recomputes over `new_view.size()` ranks.
    /// For the slice this rank still owns (old ∩ new chunk) the full fp32
    /// Adam state — master weights *and* both moments — is kept. For the
    /// newly-acquired remainder the master weights are reconstructed from
    /// the freshest surviving copy and the moments reset to zero (counted
    /// in [`ReshardReport::reseeded_params`] — a documented, bounded
    /// degradation equivalent to a warm restart of those coordinates, not
    /// silent divergence):
    ///
    /// 1. the class's fp16 replica weights on the lowest surviving physical
    ///    host under `old_placement` (replicas are bit-identical, refreshed
    ///    last iteration — the freshest copy there is);
    /// 2. for *orphan* classes (every replica lived on dead ranks): the
    ///    fp32 master slices of the segment's previous chunk owners, where
    ///    those survive;
    /// 3. canonical re-initialization via `canonical_init(class)` for
    ///    segments with no surviving copy at all (additionally counted in
    ///    [`ReshardReport::reinitialized_params`]).
    ///
    /// `local_class_weights` carries `(class, full fp16-grid weights)` for
    /// each class this rank hosts under `old_placement`. The transfer plan
    /// is a pure function of `(old view, new view, old placement, P)`, so
    /// every survivor computes it identically; pieces travel under `tags`
    /// (the recovery tag plane) with `WeightDistribute` phase and a per-
    /// piece step field, so they can never alias the membership rounds or
    /// the subsequent weight materialization.
    pub fn reshard(
        &mut self,
        ctx: &mut RankCtx,
        new_view: &MembershipView,
        old_placement: &ExpertPlacement,
        local_class_weights: &[(usize, Vec<f32>)],
        canonical_init: &dyn Fn(usize) -> Vec<f32>,
        tags: TagSpace,
    ) -> Result<ReshardReport, CommError> {
        assert!(new_view.epoch() > self.view.epoch(), "re-shard needs a successor view");
        if new_view.size() > self.nodes() {
            // The growing direction: shed slices transfer their full fp32
            // Adam state owner-to-owner, so the old placement, the fp16
            // replicas, and the canonical init never enter the geometry.
            return self.reshard_grow(ctx, new_view, tags);
        }
        let _span = self.telemetry.span(Phase::WeightComm);
        let e = self.shards.len();
        assert_eq!(old_placement.ranks(), self.nodes(), "old placement rank count mismatch");
        let me_phys = self.my_phys();
        assert!(new_view.is_alive(me_phys), "a dead rank cannot re-shard");
        let new_n = new_view.size();
        let new_l = new_view.logical_of(me_phys).expect("checked alive");
        let (os, oe) = self.shard_range();
        let (ns, ne) = chunk_range(self.param_count, new_n, new_l);
        ctx.begin_epoch(tags.iteration(), WirePhase::WeightDistribute);

        let plan = reshard_plan(&self.view, new_view, old_placement, e, self.param_count);

        // Per-(class, dst) wire-piece counters give every wire piece a
        // unique step field; sender and receiver walk the identical plan,
        // so the counters agree by construction.
        let mut piece_idx: std::collections::HashMap<(usize, usize), u64> =
            std::collections::HashMap::new();
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for piece in &plan {
            let src = match piece.source {
                PieceSource::F16Replica { src } | PieceSource::F32Master { src } => src,
                PieceSource::Reinit => continue,
            };
            if src == piece.dst {
                continue; // local copy, never on the wire
            }
            let idx = piece_idx.entry((piece.class, piece.dst)).or_insert(0);
            let tag = with_step(tags.tag(WirePhase::WeightDistribute, piece.class, src), *idx);
            *idx += 1;
            let len = piece.end - piece.start;
            if src == me_phys {
                match piece.source {
                    PieceSource::F16Replica { .. } => {
                        let (_, weights) = local_class_weights
                            .iter()
                            .find(|(c, _)| *c == piece.class)
                            .expect("authority hosts the class it serves");
                        sends.push(SendOp::new(
                            piece.dst,
                            tag,
                            encode_f16(&weights[piece.start..piece.end]),
                        ));
                    }
                    PieceSource::F32Master { .. } => {
                        let master = self.shards[piece.class].master_weights();
                        sends.push(SendOp::new(
                            piece.dst,
                            tag,
                            master[piece.start - os..piece.end - os].to_vec(),
                        ));
                    }
                    PieceSource::Reinit => unreachable!(),
                }
            } else if piece.dst == me_phys {
                recvs.push(RecvOp::sized(src, tag, len));
            }
        }
        let mut received = ctx.batch_isend_irecv(sends, &recvs)?.into_iter();

        // Assemble the new shards: kept overlap first, then acquired pieces
        // in plan order (consuming the received iterator in post order).
        let new_len = ne - ns;
        let keep = (ns.max(os), ne.min(oe));
        let mut report = ReshardReport::default();
        let mut new_shards = Vec::with_capacity(e);
        for old in &self.shards {
            let mut master = vec![0.0f32; new_len];
            let mut m = vec![0.0f32; new_len];
            let mut v = vec![0.0f32; new_len];
            if keep.0 < keep.1 {
                let (om, ov) = old.moments();
                let dst_r = keep.0 - ns..keep.1 - ns;
                let src_r = keep.0 - os..keep.1 - os;
                master[dst_r.clone()].copy_from_slice(&old.master_weights()[src_r.clone()]);
                m[dst_r.clone()].copy_from_slice(&om[src_r.clone()]);
                v[dst_r].copy_from_slice(&ov[src_r]);
                report.kept_params += (keep.1 - keep.0) as u64;
            }
            new_shards.push((master, m, v, old.step_count()));
        }
        for piece in &plan {
            if piece.dst != me_phys {
                continue;
            }
            let out = &mut new_shards[piece.class].0[piece.start - ns..piece.end - ns];
            match piece.source {
                PieceSource::F16Replica { src } if src == me_phys => {
                    let (_, weights) = local_class_weights
                        .iter()
                        .find(|(c, _)| *c == piece.class)
                        .expect("authority hosts the class it serves");
                    out.copy_from_slice(&weights[piece.start..piece.end]);
                }
                PieceSource::F16Replica { .. } => {
                    let half = received.next().expect("one receive per wire piece").into_f16()?;
                    decode_f16_into(&half, out);
                }
                PieceSource::F32Master { .. } => {
                    let full = received.next().expect("one receive per wire piece").into_f32()?;
                    out.copy_from_slice(&full);
                }
                PieceSource::Reinit => {
                    out.copy_from_slice(&canonical_init(piece.class)[piece.start..piece.end]);
                    report.reinitialized_params += (piece.end - piece.start) as u64;
                }
            }
            report.reseeded_params += (piece.end - piece.start) as u64;
        }

        self.shards = new_shards
            .into_iter()
            .map(|(master, m, v, t)| AdamShard::from_parts(self.adam, ns, master, m, v, t))
            .collect();
        self.view = new_view.clone();
        self.lrank = new_l;
        Ok(report)
    }

    /// The survivor side of a *grow* re-shard ([`SymiOptimizer::reshard`]
    /// dispatches here when `new_view` is larger): every member's chunk
    /// shrinks to `1/(N+1)`, and each shed slice travels to its new owner
    /// with its full fp32 Adam state — master weights **and** both moments
    /// — so a join never degrades optimizer state the way acquire-on-shrink
    /// legitimately does. Mixed join+death changes are rejected loudly:
    /// recover (shrink) first, then admit.
    fn reshard_grow(
        &mut self,
        ctx: &mut RankCtx,
        new_view: &MembershipView,
        tags: TagSpace,
    ) -> Result<ReshardReport, CommError> {
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span(Phase::WeightComm);
        let me_phys = self.my_phys();
        assert!(new_view.is_alive(me_phys), "a dropped rank cannot re-shard");
        for p in self.view.survivors() {
            assert!(
                new_view.is_alive(p),
                "mixed join+death membership change is unsupported: rank {p} was dropped \
                 while another joined — recover the death first, then admit the joiner"
            );
        }
        let (shards, report) = grow_exchange(
            ctx,
            &self.view,
            new_view,
            me_phys,
            self.shards.len(),
            self.param_count,
            self.adam,
            Some(&self.shards),
            0,
            tags,
        )?;
        self.shards = shards;
        self.lrank = new_view.logical_of(me_phys).expect("checked alive");
        self.view = new_view.clone();
        Ok(report)
    }

    /// The joiner's side of a grow re-shard: constructs a brand-new
    /// optimizer whose shards arrive over the wire with their full fp32
    /// Adam state, paired with the survivors' [`SymiOptimizer::reshard`]
    /// over the same `(old, new)` view pair. `step_count` is the
    /// survivors' Adam step counter (carried in the join agreement
    /// payload), so the joiner's bias correction continues exactly where
    /// the cluster is.
    #[allow(clippy::too_many_arguments)]
    pub fn join(
        ctx: &mut RankCtx,
        old_view: &MembershipView,
        new_view: &MembershipView,
        adam: AdamConfig,
        expert_classes: usize,
        param_count: usize,
        step_count: u64,
        tags: TagSpace,
    ) -> Result<(Self, ReshardReport), CommError> {
        let me_phys = ctx.rank();
        assert!(old_view.logical_of(me_phys).is_none(), "a joiner must be new to the old view");
        assert!(new_view.is_alive(me_phys), "the new view must admit the joiner");
        assert!(new_view.epoch() > old_view.epoch(), "join needs a successor view");
        assert!(expert_classes > 0, "need at least one expert class");
        let (shards, report) = grow_exchange(
            ctx,
            old_view,
            new_view,
            me_phys,
            expert_classes,
            param_count,
            adam,
            None,
            step_count,
            tags,
        )?;
        let lrank = new_view.logical_of(me_phys).expect("checked alive");
        Ok((
            Self {
                view: new_view.clone(),
                lrank,
                adam,
                param_count,
                shards,
                telemetry: TelemetryHandle::disabled(),
            },
            report,
        ))
    }

    /// This rank's current fp32 master weights of `class`'s shard (testing
    /// and checkpoint support).
    pub fn master_shard(&self, class: usize) -> &[f32] {
        self.shards[class].master_weights()
    }
}

/// The wire exchange both sides of a grow re-shard share: walk the
/// [`grow_plan`] (identical on every member), send each shed slice's
/// `[master | m | v]` triple per class, receive each acquired slice's, and
/// assemble the new chunk — kept overlap copied locally for survivors,
/// everything else filled from the wire. `old_shards` is `None` on the
/// joiner, whose old chunk is empty and whose Adam step counter comes from
/// `t_join`.
#[allow(clippy::too_many_arguments)]
fn grow_exchange(
    ctx: &mut RankCtx,
    old_view: &MembershipView,
    new_view: &MembershipView,
    me_phys: usize,
    expert_classes: usize,
    param_count: usize,
    adam: AdamConfig,
    old_shards: Option<&[AdamShard]>,
    t_join: u64,
    tags: TagSpace,
) -> Result<(Vec<AdamShard>, ReshardReport), CommError> {
    let e = expert_classes;
    let new_n = new_view.size();
    let new_l = new_view.logical_of(me_phys).expect("a grow keeps every member");
    let (ns, ne) = chunk_range(param_count, new_n, new_l);
    let old_span =
        old_view.logical_of(me_phys).map(|l| chunk_range(param_count, old_view.size(), l));
    ctx.begin_epoch(tags.iteration(), WirePhase::WeightDistribute);
    let plan = grow_plan(old_view, new_view, param_count);

    // Per-destination piece counters give every wire message a unique step
    // field; every member walks the identical plan, so the counters agree
    // by construction. Distinct destinations are distinct receive channels,
    // so counters never collide across them.
    let mut piece_idx: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    for piece in &plan {
        let idx = piece_idx.entry(piece.dst).or_insert(0);
        let k = *idx;
        *idx += 1;
        let len = piece.end - piece.start;
        if piece.src == me_phys {
            let (os, _) = old_span.expect("a source rank owned its old chunk");
            let shards = old_shards.expect("a source rank has old shards");
            let r = piece.start - os..piece.end - os;
            for (class, sh) in shards.iter().enumerate() {
                let tag = with_step(tags.tag(WirePhase::WeightDistribute, class, me_phys), k);
                let (m, v) = sh.moments();
                let mut buf = Vec::with_capacity(3 * len);
                buf.extend_from_slice(&sh.master_weights()[r.clone()]);
                buf.extend_from_slice(&m[r.clone()]);
                buf.extend_from_slice(&v[r.clone()]);
                sends.push(SendOp::new(piece.dst, tag, buf));
            }
        } else if piece.dst == me_phys {
            for class in 0..e {
                let tag = with_step(tags.tag(WirePhase::WeightDistribute, class, piece.src), k);
                recvs.push(RecvOp::sized(piece.src, tag, 3 * len));
            }
        }
    }
    let mut received = ctx.batch_isend_irecv(sends, &recvs)?.into_iter();

    // Per-class (master, m, v, step) accumulators for this rank's new chunk.
    type ShardParts = (Vec<f32>, Vec<f32>, Vec<f32>, u64);
    let new_len = ne - ns;
    let mut report = ReshardReport::default();
    let mut new_shards: Vec<ShardParts> = (0..e)
        .map(|class| {
            let t = old_shards.map_or(t_join, |sh| sh[class].step_count());
            (vec![0.0f32; new_len], vec![0.0f32; new_len], vec![0.0f32; new_len], t)
        })
        .collect();
    if let (Some((os, oe)), Some(shards)) = (old_span, old_shards) {
        let keep = (ns.max(os), ne.min(oe));
        if keep.0 < keep.1 {
            let dst_r = keep.0 - ns..keep.1 - ns;
            let src_r = keep.0 - os..keep.1 - os;
            for (class, sh) in shards.iter().enumerate() {
                let (om, ov) = sh.moments();
                new_shards[class].0[dst_r.clone()]
                    .copy_from_slice(&sh.master_weights()[src_r.clone()]);
                new_shards[class].1[dst_r.clone()].copy_from_slice(&om[src_r.clone()]);
                new_shards[class].2[dst_r.clone()].copy_from_slice(&ov[src_r.clone()]);
                report.kept_params += (keep.1 - keep.0) as u64;
            }
        }
    }
    for piece in plan.iter().filter(|p| p.dst == me_phys) {
        let len = piece.end - piece.start;
        let dst_r = piece.start - ns..piece.end - ns;
        for shard in new_shards.iter_mut() {
            let buf = received.next().expect("one receive per (piece, class)").into_f32()?;
            let (master, rest) = buf.split_at(len);
            let (m, v) = rest.split_at(len);
            shard.0[dst_r.clone()].copy_from_slice(master);
            shard.1[dst_r.clone()].copy_from_slice(m);
            shard.2[dst_r.clone()].copy_from_slice(v);
            report.transferred_params += len as u64;
        }
    }
    let shards = new_shards
        .into_iter()
        .map(|(master, m, v, t)| AdamShard::from_parts(adam, ns, master, m, v, t))
        .collect();
    Ok((shards, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_source_prefers_local() {
        assert_eq!(get_source(&[2, 5, 7], 5), 5);
    }

    #[test]
    fn get_source_round_robins_across_hosts() {
        let hosts = [2usize, 5, 7];
        // Algorithm 2 picks hosts[rank % len] for non-host ranks.
        let picks: Vec<usize> =
            (0..9).filter(|r| !hosts.contains(r)).map(|r| get_source(&hosts, r)).collect();
        assert_eq!(picks, vec![2, 5, 2, 5, 2, 7]);
        // No single host serves everyone (the hotspot §4.3 avoids).
        for &h in &hosts {
            assert!(picks.iter().filter(|&&p| p == h).count() < picks.len());
        }
    }

    #[test]
    fn shards_partition_the_parameter_space() {
        let params = [vec![0.5f32; 103]];
        let mut covered = [false; 103];
        for rank in 0..8 {
            let opt = SymiOptimizer::new(rank, 8, AdamConfig::default(), &params);
            let (a, b) = opt.shard_range();
            for c in covered.iter_mut().take(b).skip(a) {
                assert!(!*c, "overlap at rank {rank}");
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "every parameter must be sharded somewhere");
    }

    #[test]
    fn state_bytes_are_uniform_across_ranks_and_classes() {
        // §3.3-I: the footprint is EO in total, EO/N per node (±rounding).
        let params: Vec<Vec<f32>> = (0..4).map(|_| vec![0.0f32; 160]).collect();
        let per_rank: Vec<u64> = (0..8)
            .map(|r| SymiOptimizer::new(r, 8, AdamConfig::default(), &params).state_bytes())
            .collect();
        let total: u64 = per_rank.iter().sum();
        assert_eq!(total, 4 * 160 * 16, "EO total");
        let max = per_rank.iter().max().unwrap();
        let min = per_rank.iter().min().unwrap();
        assert!(max - min <= 4 * 16, "uniform within one element per class");
    }

    #[test]
    fn zero_length_shards_are_legal_when_ranks_exceed_params() {
        // 3 parameters over 5 ranks: ranks 3 and 4 own nothing, explicitly.
        let params = [vec![1.0f32, 2.0, 3.0]];
        let mut covered = [false; 3];
        for rank in 0..5 {
            let opt = SymiOptimizer::new(rank, 5, AdamConfig::default(), &params);
            let (a, b) = opt.shard_range();
            if rank >= 3 {
                assert_eq!(a, b, "rank {rank} must own a zero-length shard");
                assert_eq!(opt.state_bytes(), 0);
            }
            for c in covered.iter_mut().take(b).skip(a) {
                assert!(!*c);
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "nonzero shards still partition the space");
    }

    #[test]
    fn shard_state_round_trips_through_export_import() {
        let params: Vec<Vec<f32>> = (0..2).map(|c| vec![c as f32 + 0.5; 40]).collect();
        let mut opt = SymiOptimizer::new(1, 4, AdamConfig::default(), &params);
        let grads: Vec<Vec<f32>> =
            (0..2).map(|_| vec![0.1f32; opt.shard_range().1 - opt.shard_range().0]).collect();
        let _ = opt.step(&grads);
        let states = opt.export_shard_states();
        let restored = SymiOptimizer::from_shard_states(
            MembershipView::full(4),
            1,
            AdamConfig::default(),
            40,
            states.clone(),
        );
        assert_eq!(restored.export_shard_states(), states);
        assert_eq!(restored.master_shard(0), opt.master_shard(0));
    }

    #[test]
    fn grow_plan_covers_exactly_the_new_chunks() {
        let old = MembershipView::partial(4, 3);
        let new = old.with_joined(3).without(&[]); // epoch-bumped grown view
        let p = 29usize;
        let plan = grow_plan(&old, &new, p);
        for dl in 0..4 {
            let phys = new.physical_of(dl);
            let (ns, ne) = chunk_range(p, 4, dl);
            // Kept overlap (empty for the joiner) ∪ acquired pieces must
            // tile the new chunk exactly, each piece sourced from its old
            // owner.
            let (os, oe) = old.logical_of(phys).map(|l| chunk_range(p, 3, l)).unwrap_or((ns, ns));
            let mut covered: Vec<bool> = (ns..ne).map(|i| i >= os && i < oe).collect();
            for piece in plan.iter().filter(|pc| pc.dst == phys) {
                let (ss, se) = chunk_range(p, 3, old.logical_of(piece.src).expect("old owner"));
                assert!(piece.start >= ss && piece.end <= se, "piece outside its source chunk");
                for i in piece.start..piece.end {
                    assert!(!covered[i - ns], "param {i} doubly sourced for dst {phys}");
                    covered[i - ns] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "dst {phys} has holes");
        }
    }

    #[test]
    fn grow_reshard_transfers_full_adam_state_to_the_joiner() {
        use symi_collectives::{Cluster, ClusterSpec};
        const WORLD: usize = 3;
        const ACTIVE: usize = 2;
        const P: usize = 23; // deliberately indivisible by 2 and 3
        const E: usize = 2;
        let params: Vec<Vec<f32>> =
            (0..E).map(|c| (0..P).map(|i| (c * P + i) as f32 * 0.01).collect()).collect();
        let (results, _) = Cluster::run(ClusterSpec::flat(WORLD), {
            let params = params.clone();
            move |ctx| {
                let old = MembershipView::partial(WORLD, ACTIVE);
                let new = old.with_joined(2).without(&[]); // epoch-bumped grown view
                let tags = TagSpace::new(0, 7);
                if ctx.rank() < ACTIVE {
                    let mut opt = SymiOptimizer::with_view(
                        old.clone(),
                        ctx.rank(),
                        AdamConfig::default(),
                        &params,
                    );
                    // Three Adam steps make master, m and v all nonzero.
                    for s in 0..3usize {
                        let (a, b) = opt.shard_range();
                        let grads: Vec<Vec<f32>> = (0..E)
                            .map(|c| {
                                (a..b)
                                    .map(|i| ((c + 1) * (i + 1) * (s + 1)) as f32 * 1e-3)
                                    .collect()
                            })
                            .collect();
                        let _ = opt.step(&grads);
                    }
                    let before = opt.export_shard_states();
                    let report = opt
                        .reshard(
                            ctx,
                            &new,
                            &ExpertPlacement::uniform(E, ACTIVE, 1),
                            &[],
                            &|_| unreachable!("a grow never re-initializes"),
                            tags,
                        )
                        .expect("grow reshard");
                    (before, opt.export_shard_states(), report)
                } else {
                    let (opt, report) =
                        SymiOptimizer::join(ctx, &old, &new, AdamConfig::default(), E, P, 3, tags)
                            .expect("join");
                    (Vec::new(), opt.export_shard_states(), report)
                }
            }
        });
        // The joiner received real state over the wire, and survivors
        // report zero re-initialized params (a grow degrades nothing).
        assert!(results[2].2.transferred_params > 0, "the joiner must receive moments");
        for r in &results {
            assert_eq!(r.2.reinitialized_params, 0, "a grow never re-initializes");
        }
        for class in 0..E {
            // Concatenating the post-grow shards over the 3 new owners must
            // reproduce the pre-grow global state bit-exactly — master
            // weights AND both Adam moments AND the step counter.
            let mut master = Vec::new();
            let mut m = Vec::new();
            let mut v = Vec::new();
            for r in &results {
                let s = &r.1[class];
                assert_eq!(s.t, 3, "Adam step counter must carry over");
                master.extend_from_slice(&s.master);
                m.extend_from_slice(&s.m);
                v.extend_from_slice(&s.v);
            }
            let mut old_master = Vec::new();
            let mut old_m = Vec::new();
            let mut old_v = Vec::new();
            for r in &results[..ACTIVE] {
                let s = &r.0[class];
                old_master.extend_from_slice(&s.master);
                old_m.extend_from_slice(&s.m);
                old_v.extend_from_slice(&s.v);
            }
            assert_eq!(master, old_master, "class {class} master weights changed");
            assert_eq!(m, old_m, "class {class} first moment changed (must transfer, not zero)");
            assert_eq!(v, old_v, "class {class} second moment changed (must transfer, not zero)");
            assert!(m.iter().any(|&x| x != 0.0), "moments must be nontrivial for the test to bite");
        }
    }

    #[test]
    fn reshard_plan_covers_exactly_the_acquired_segments() {
        let old = MembershipView::full(4);
        let new = old.without(&[2]);
        // Uniform placement of 4 classes on 4 ranks × 2 slots: class c is
        // hosted only on rank c, so class 2 is orphaned by rank 2's death.
        let placement = ExpertPlacement::uniform(4, 4, 2);
        let p = 21usize;
        let plan = reshard_plan(&old, &new, &placement, 4, p);
        for class in 0..4 {
            // Every new owner's chunk must be covered by kept ∪ acquired.
            for dl in 0..3 {
                let phys = new.physical_of(dl);
                let (ns, ne) = chunk_range(p, 3, dl);
                let (os, oe) = chunk_range(p, 4, old.logical_of(phys).unwrap());
                let mut covered: Vec<bool> = (ns..ne).map(|i| i >= os && i < oe).collect();
                for piece in plan.iter().filter(|pc| pc.class == class && pc.dst == phys) {
                    for i in piece.start..piece.end {
                        assert!(!covered[i - ns], "class {class} param {i} doubly sourced");
                        covered[i - ns] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "class {class} dst {phys} has holes");
            }
        }
        // Non-orphan classes resolve to the fp16 authority…
        assert!(plan
            .iter()
            .filter(|pc| pc.class != 2)
            .all(|pc| matches!(pc.source, PieceSource::F16Replica { .. })));
        // …the orphan class falls back to fp32 masters or re-init, and the
        // dead rank's own old chunk is exactly the re-initialized part.
        let (ds, de) = chunk_range(p, 4, 2);
        for pc in plan.iter().filter(|pc| pc.class == 2) {
            match pc.source {
                PieceSource::Reinit => {
                    assert!(pc.start >= ds && pc.end <= de, "re-init outside dead chunk");
                }
                PieceSource::F32Master { src } => assert!(new.is_alive(src)),
                PieceSource::F16Replica { .. } => panic!("orphan class has no fp16 authority"),
            }
        }
        assert!(
            plan.iter().any(|pc| pc.class == 2 && matches!(pc.source, PieceSource::Reinit)),
            "the dead rank's chunk of the orphan class must be re-initialized somewhere"
        );
    }
}
