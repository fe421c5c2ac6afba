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
//!    they are copied straight into the hosting slots' binary16 weights.
//!    Because the slots
//!    must receive fresh weights anyway, re-placement is free — the paper's
//!    central claim.
//!
//! All geometry here runs over **logical** ranks `0..view.size()` of a
//! [`MembershipView`]; physical ranks appear only at the wire (send/recv
//! targets and tag `src` fields). On the initial full-world view logical
//! and physical coincide, so the healthy path is bit-identical to the
//! pre-elastic code. When the membership changes — a rank death or a join
//! — [`SymiOptimizer::reshard`] recomputes the `1/N` chunk geometry over
//! the new view and moves each acquired segment to its new owner through
//! one exchange: from its old owner with full Adam state where that owner
//! is alive, otherwise from the freshest surviving copy.

use crate::placement::ExpertPlacement;
use symi_collectives::coll::chunk_range;
use symi_collectives::tag::with_step;
use symi_collectives::{
    decode_f16_into, encode_f16, CommError, MembershipView, RankCtx, RecvOp, SendOp, TagSpace,
    WirePhase,
};
use symi_model::expert::ExpertFfn;
use symi_telemetry::{Phase, TelemetryHandle};
use symi_tensor::HalfMatrix;
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

/// Accounting of one re-shard on one rank ([`SymiOptimizer::reshard`] on a
/// member, [`SymiOptimizer::join`] on a joiner), in parameters summed over
/// every class: `kept + transferred + reseeded` is `E ×` the new chunk
/// length.
///
/// - `kept_params`: the overlap of the old and new chunk, kept in place
///   with its moments.
/// - `transferred_params`: acquired from a live old owner as the full fp32
///   `[master | m | v]`.
/// - `reseeded_params`: acquired where the old owner died — master weights
///   from the class's fp16 replica or canonical re-initialization, moments
///   zeroed (the documented, bounded degradation of a shrink).
/// - `reinitialized_params`: the part of `reseeded_params` that had no
///   surviving copy at all.
///
/// A grow loses no owner, so it never re-seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReshardReport {
    pub kept_params: u64,
    pub reseeded_params: u64,
    pub reinitialized_params: u64,
    pub transferred_params: u64,
}

/// Where an acquired re-shard segment comes from: the first of three rules
/// that applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PieceSource {
    /// 1. The segment's old chunk owner, alive in the new view, sends its
    ///    fp32 `[master | m | v]`.
    Owner { src: usize },
    /// 2. The owner died: the class's lowest surviving replica host under
    ///    the old placement sends its fp16 weights (§3.3: refreshed every
    ///    iteration, so the freshest copy left); the moments restart at 0.
    F16Replica { src: usize },
    /// 3. No surviving copy: canonical deterministic re-initialization.
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

/// The deterministic re-shard plan, identical on every member of
/// `new_view`, for a shrink and a grow alike: for each new chunk owner, the
/// segments its new chunk acquires beyond its old chunk (the whole chunk,
/// for a joiner), split by the old chunk geometry so each segment has one
/// old owner, and per class the source [`PieceSource`]'s rules pick.
/// `old_placement` is consulted only where an owner died, so a grow — the
/// joiner included — can pass `None`.
fn reshard_plan(
    old_view: &MembershipView,
    new_view: &MembershipView,
    old_placement: Option<&ExpertPlacement>,
    expert_classes: usize,
    param_count: usize,
) -> Vec<ReshardPiece> {
    let old_n = old_view.size();
    let new_n = new_view.size();
    let mut plan = Vec::new();
    for dst_l in 0..new_n {
        let dst = new_view.physical_of(dst_l);
        let (ns, ne) = chunk_range(param_count, new_n, dst_l);
        let (os, oe) = old_view
            .logical_of(dst)
            .map_or((ns, ns), |old_l| chunk_range(param_count, old_n, old_l));
        // Acquired = new chunk minus old chunk: at most two segments.
        for (a, b) in [(ns, ne.min(os)), (ns.max(oe), ne)] {
            for owner_l in 0..old_n {
                let (cs, ce) = chunk_range(param_count, old_n, owner_l);
                let (start, end) = (a.max(cs), b.min(ce));
                if start >= end {
                    continue;
                }
                let owner = old_view.physical_of(owner_l);
                for class in 0..expert_classes {
                    let source = if new_view.is_alive(owner) {
                        PieceSource::Owner { src: owner }
                    } else {
                        // Lowest surviving *physical* host: all replicas are
                        // bit-identical, so one canonical choice keeps every
                        // member's plan equal.
                        old_placement
                            .expect("an owner died, so the old placement decides")
                            .host_ranks(class)
                            .iter()
                            .map(|&l| old_view.physical_of(l))
                            .filter(|&p| new_view.is_alive(p))
                            .min()
                            .map_or(PieceSource::Reinit, |src| PieceSource::F16Replica { src })
                    };
                    plan.push(ReshardPiece { class, dst, start, end, source });
                }
            }
        }
    }
    plan
}

/// Rules 2 and 3's sources: what a member supplies for the segments whose
/// old owner died.
struct Fallback<'a> {
    old_placement: &'a ExpertPlacement,
    /// `(class, full fp16-grid weights)` of each class this rank hosts under
    /// `old_placement`.
    local_class_weights: &'a [(usize, Vec<f32>)],
    canonical_init: &'a dyn Fn(usize) -> Vec<f32>,
}

impl Fallback<'_> {
    fn weights(&self, class: usize) -> &[f32] {
        let (_, weights) = self
            .local_class_weights
            .iter()
            .find(|(c, _)| *c == class)
            .expect("a replica source hosts the class it serves");
        weights
    }
}

/// The one re-shard exchange every member of `new_view` runs, whichever way
/// the world changed: walk the [`reshard_plan`], send what this rank
/// sources, receive what it acquires, and assemble its new chunk of every
/// class — the kept overlap copied in place, each acquired piece filled by
/// its rule. `old_shards` holds this rank's old chunk per class; a joiner
/// passes zero-length shards that carry only the cluster's Adam step
/// count. `fallback` is `None` on a joiner, whose grow loses no owner.
/// Pieces travel under `tags` with `WeightDistribute` phase and a
/// per-`(class, dst)` step field, so they can never alias the membership
/// rounds or the weight materialization that follows.
#[allow(clippy::too_many_arguments)]
fn exchange(
    ctx: &mut RankCtx,
    old_view: &MembershipView,
    new_view: &MembershipView,
    old_shards: &[AdamShard],
    fallback: Option<&Fallback>,
    adam: AdamConfig,
    param_count: usize,
    tags: TagSpace,
) -> Result<(Vec<AdamShard>, ReshardReport), CommError> {
    assert!(new_view.epoch() > old_view.epoch(), "re-shard needs a successor view");
    let me = ctx.rank();
    let new_l = new_view.logical_of(me).expect("a dropped rank cannot re-shard");
    if new_view.survivors().into_iter().any(|p| old_view.logical_of(p).is_none()) {
        for p in old_view.survivors() {
            assert!(
                new_view.is_alive(p),
                "mixed join+death membership change is unsupported: rank {p} was dropped \
                 while another joined — recover the death first, then admit the joiner"
            );
        }
    }
    let (ns, ne) = chunk_range(param_count, new_view.size(), new_l);
    let old_span = old_view.logical_of(me).map(|l| chunk_range(param_count, old_view.size(), l));
    ctx.begin_epoch(tags.iteration(), WirePhase::WeightDistribute);
    let plan = reshard_plan(
        old_view,
        new_view,
        fallback.map(|f| f.old_placement),
        old_shards.len(),
        param_count,
    );
    let fallback = || fallback.expect("only a shrink sources from a replica or re-init");

    // Per-(class, dst) piece counters give every wire piece a unique step
    // field; every member walks the identical plan, so the counters agree
    // by construction.
    let mut piece_idx: std::collections::HashMap<(usize, usize), u64> =
        std::collections::HashMap::new();
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    for piece in &plan {
        let src = match piece.source {
            PieceSource::Owner { src } | PieceSource::F16Replica { src } if src != piece.dst => src,
            _ => continue, // re-init and local copies never touch the wire
        };
        let idx = piece_idx.entry((piece.class, piece.dst)).or_insert(0);
        let tag = with_step(tags.tag(WirePhase::WeightDistribute, piece.class, src), *idx);
        *idx += 1;
        let len = piece.end - piece.start;
        let triple = matches!(piece.source, PieceSource::Owner { .. });
        if src == me {
            if triple {
                let (os, _) = old_span.expect("an owner held its old chunk");
                let r = piece.start - os..piece.end - os;
                let shard = &old_shards[piece.class];
                let (m, v) = shard.moments();
                let mut buf = Vec::with_capacity(3 * len);
                buf.extend_from_slice(&shard.master_weights()[r.clone()]);
                buf.extend_from_slice(&m[r.clone()]);
                buf.extend_from_slice(&v[r]);
                sends.push(SendOp::new(piece.dst, tag, buf));
            } else {
                let weights = &fallback().weights(piece.class)[piece.start..piece.end];
                sends.push(SendOp::new(piece.dst, tag, encode_f16(weights)));
            }
        } else if piece.dst == me {
            recvs.push(RecvOp::sized(src, tag, if triple { 3 * len } else { len }));
        }
    }
    let mut received = ctx.batch_isend_irecv(sends, &recvs)?.into_iter();

    // Assemble the new shards: the kept overlap first, then the acquired
    // pieces in plan order (consuming the receives in posting order).
    let new_len = ne - ns;
    let mut report = ReshardReport::default();
    let mut parts = Vec::with_capacity(old_shards.len());
    for old in old_shards {
        let mut master = vec![0.0f32; new_len];
        let mut m = vec![0.0f32; new_len];
        let mut v = vec![0.0f32; new_len];
        if let Some((os, oe)) = old_span {
            let keep = (ns.max(os), ne.min(oe));
            if keep.0 < keep.1 {
                let (om, ov) = old.moments();
                let dst_r = keep.0 - ns..keep.1 - ns;
                let src_r = keep.0 - os..keep.1 - os;
                master[dst_r.clone()].copy_from_slice(&old.master_weights()[src_r.clone()]);
                m[dst_r.clone()].copy_from_slice(&om[src_r.clone()]);
                v[dst_r].copy_from_slice(&ov[src_r]);
                report.kept_params += (keep.1 - keep.0) as u64;
            }
        }
        parts.push((master, m, v, old.step_count()));
    }
    for piece in plan.iter().filter(|p| p.dst == me) {
        let (master, m, v, _) = &mut parts[piece.class];
        let len = piece.end - piece.start;
        let r = piece.start - ns..piece.end - ns;
        match piece.source {
            PieceSource::Owner { .. } => {
                let buf = received.next().expect("one receive per wire piece").into_f32()?;
                master[r.clone()].copy_from_slice(&buf[..len]);
                m[r.clone()].copy_from_slice(&buf[len..2 * len]);
                v[r].copy_from_slice(&buf[2 * len..]);
                report.transferred_params += len as u64;
            }
            PieceSource::F16Replica { src } => {
                if src == me {
                    master[r]
                        .copy_from_slice(&fallback().weights(piece.class)[piece.start..piece.end]);
                } else {
                    let half = received.next().expect("one receive per wire piece").into_f16()?;
                    decode_f16_into(&half, &mut master[r]);
                }
                report.reseeded_params += len as u64;
            }
            PieceSource::Reinit => {
                let init = (fallback().canonical_init)(piece.class);
                master[r].copy_from_slice(&init[piece.start..piece.end]);
                report.reinitialized_params += len as u64;
                report.reseeded_params += len as u64;
            }
        }
    }
    let shards = parts
        .into_iter()
        .map(|(master, m, v, t)| AdamShard::from_parts(adam, ns, master, m, v, t))
        .collect();
    Ok((shards, report))
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
    /// received, or this rank's own from `half_shards` — is copied once,
    /// straight into the binary16 `W1 | W2` (and the f32 `b1 | b2`) of the
    /// one expert that executes its class ([`ExpertFfn::load_f16_at`]); the
    /// weights are not decoded. `experts[g]` takes the `g`-th class of
    /// `new_placement.classes_on_rank`, however many slots it fills.
    pub(crate) fn distribute_weights_into(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        half_shards: &[Vec<u16>],
        tags: TagSpace,
        experts: &mut [ExpertFfn<HalfMatrix>],
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

    /// Re-shards optimizer ownership over `new_view` — a shrink after a
    /// rank death or a grow that admits a joiner — through the one
    /// exchange both directions share.
    ///
    /// The `1/N` chunk geometry recomputes over `new_view.size()` ranks. The
    /// slice this rank still owns (old ∩ new chunk) keeps its full fp32 Adam
    /// state. Every acquired segment takes the first source that applies:
    ///
    /// 1. its old chunk owner, if alive in `new_view`, which sends master
    ///    weights *and* both moments (counted in
    ///    [`ReshardReport::transferred_params`]);
    /// 2. else the class's fp16 replica on the lowest surviving physical
    ///    host under `old_placement` (bit-identical replicas, refreshed last
    ///    iteration), with the moments reset to zero;
    /// 3. else canonical re-initialization via `canonical_init(class)`
    ///    (additionally counted in [`ReshardReport::reinitialized_params`]).
    ///
    /// Rules 2 and 3 are counted in [`ReshardReport::reseeded_params`] — a
    /// documented, bounded degradation equivalent to a warm restart of
    /// those coordinates, not silent divergence. A grow loses no owner, so
    /// it transfers everything; a mixed join+death change is refused
    /// loudly (recover first, then admit).
    ///
    /// `local_class_weights` carries `(class, full fp16-grid weights)` for
    /// each class this rank hosts under `old_placement`. The transfer plan
    /// is a pure function of `(old view, new view, old placement, P)`, so
    /// every member computes it identically; the joiner's side is
    /// [`SymiOptimizer::join`].
    pub fn reshard(
        &mut self,
        ctx: &mut RankCtx,
        new_view: &MembershipView,
        old_placement: &ExpertPlacement,
        local_class_weights: &[(usize, Vec<f32>)],
        canonical_init: &dyn Fn(usize) -> Vec<f32>,
        tags: TagSpace,
    ) -> Result<ReshardReport, CommError> {
        let _span = self.telemetry.span(Phase::WeightComm);
        assert_eq!(old_placement.ranks(), self.nodes(), "old placement rank count mismatch");
        assert_eq!(ctx.rank(), self.my_phys(), "re-shard on another rank's optimizer");
        let fallback = Fallback { old_placement, local_class_weights, canonical_init };
        let (shards, report) = exchange(
            ctx,
            &self.view,
            new_view,
            &self.shards,
            Some(&fallback),
            self.adam,
            self.param_count,
            tags,
        )?;
        self.shards = shards;
        self.lrank = new_view.logical_of(ctx.rank()).expect("the exchange checked membership");
        self.view = new_view.clone();
        Ok(report)
    }

    /// The joiner's side of a grow: constructs a brand-new optimizer whose
    /// shards arrive through the same exchange as the members'
    /// [`SymiOptimizer::reshard`] over the same `(old, new)` view pair, with
    /// no old shards of its own — its whole chunk is transferred, Adam
    /// moments included. `step_count` is the members' Adam step counter
    /// (carried in the agreement payload), so the joiner's bias correction
    /// continues exactly where the cluster is.
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
        let me = ctx.rank();
        assert!(old_view.logical_of(me).is_none(), "a joiner must be new to the old view");
        assert!(expert_classes > 0, "need at least one expert class");
        let nothing: Vec<AdamShard> = (0..expert_classes)
            .map(|_| AdamShard::from_parts(adam, 0, Vec::new(), Vec::new(), Vec::new(), step_count))
            .collect();
        let (shards, report) =
            exchange(ctx, old_view, new_view, &nothing, None, adam, param_count, tags)?;
        let lrank = new_view.logical_of(me).expect("the exchange checked membership");
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

    /// Checks that the plan for `old → new` tiles every new chunk of every
    /// class exactly once and sources each piece by the three-way rule.
    fn assert_plan_tiles_and_follows_the_source_rule(
        old: &MembershipView,
        new: &MembershipView,
        old_placement: Option<&ExpertPlacement>,
        p: usize,
    ) {
        let plan = reshard_plan(old, new, old_placement, 4, p);
        for class in 0..4 {
            for dl in 0..new.size() {
                let dst = new.physical_of(dl);
                // Kept overlap (empty for the joiner) ∪ acquired pieces
                // must tile the new chunk exactly once.
                let (ns, ne) = chunk_range(p, new.size(), dl);
                let (os, oe) =
                    old.logical_of(dst).map_or((ns, ns), |l| chunk_range(p, old.size(), l));
                let mut covered: Vec<bool> = (ns..ne).map(|i| i >= os && i < oe).collect();
                for pc in plan.iter().filter(|pc| pc.class == class && pc.dst == dst) {
                    let owner_l = (0..old.size())
                        .find(|&l| {
                            let (cs, ce) = chunk_range(p, old.size(), l);
                            pc.start >= cs && pc.end <= ce
                        })
                        .expect("a piece lies inside one old chunk");
                    let owner = old.physical_of(owner_l);
                    // The three-way rule: live owner, else the lowest
                    // surviving replica host, else re-init.
                    let expected = if new.is_alive(owner) {
                        PieceSource::Owner { src: owner }
                    } else {
                        old_placement
                            .expect("only the shrink loses an owner")
                            .host_ranks(class)
                            .iter()
                            .map(|&l| old.physical_of(l))
                            .filter(|&r| new.is_alive(r))
                            .min()
                            .map_or(PieceSource::Reinit, |src| PieceSource::F16Replica { src })
                    };
                    assert_eq!(
                        pc.source, expected,
                        "class {class} dst {dst} [{}, {})",
                        pc.start, pc.end
                    );
                    for i in pc.start..pc.end {
                        assert!(!covered[i - ns], "class {class} param {i} doubly sourced");
                        covered[i - ns] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "class {class} dst {dst} has holes");
            }
        }
    }

    #[test]
    fn grow_plan_covers_exactly_the_new_chunks() {
        // 3 → 4: a standby joins; a grow never needs the old placement, and
        // every piece transfers from its live old owner.
        let p = 21usize;
        let partial = MembershipView::partial(4, 3);
        let grown = partial.with_joined(3).without(&[]); // epoch-bumped grown view
        assert_plan_tiles_and_follows_the_source_rule(&partial, &grown, None, p);
    }

    #[test]
    fn reshard_plan_covers_exactly_the_acquired_segments() {
        let p = 21usize;
        // 4 → 3: uniform placement of 4 classes on 4 ranks × 2 slots hosts
        // class c only on rank c, so rank 2's death orphans class 2.
        let full = MembershipView::full(4);
        let shrunk = full.without(&[2]);
        let placement = ExpertPlacement::uniform(4, 4, 2);
        assert_plan_tiles_and_follows_the_source_rule(&full, &shrunk, Some(&placement), p);
        // The shrink reaches every rule: rank 0's segment from live rank 1
        // transfers, rank 2's old chunk comes from the class's replica, and
        // the orphan's is re-initialized — exactly rank 2's old chunk.
        let plan = reshard_plan(&full, &shrunk, Some(&placement), 4, p);
        assert!(plan.iter().any(|pc| pc.dst == 0 && pc.source == PieceSource::Owner { src: 1 }));
        assert!(plan
            .iter()
            .any(|pc| pc.class == 3 && pc.source == PieceSource::F16Replica { src: 3 }));
        let (ds, de) = chunk_range(p, 4, 2);
        let reinit: usize = plan
            .iter()
            .filter(|pc| pc.source == PieceSource::Reinit)
            .inspect(|pc| assert!(pc.class == 2 && pc.start >= ds && pc.end <= de))
            .map(|pc| pc.end - pc.start)
            .sum();
        assert_eq!(reinit, de - ds, "the orphan re-initializes exactly the dead rank's chunk");
    }
}
