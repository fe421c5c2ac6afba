//! The SYMI Optimizer (§3.2 steps 4–8, §4.3–§4.4).
//!
//! Every node owns the same `1/N` slice of **every** expert's optimizer
//! state — uniform static sharding, never relocated (Appendix A.1 proves
//! this optimal). The same optimizer also runs the baselines' coupling,
//! where a class's host ranks own a `1/r` slice of it each (`Owners`): every
//! phase below reads one chunk geometry, a function of (class, rank). Each
//! iteration the optimizer:
//!
//! 1. **Grad Communication Phase** (Algorithm 2): collects its gradient
//!    shard for every class — locally when a replica is co-resident,
//!    otherwise from a source replica chosen by round-robin over the
//!    class's host ranks, spreading load so no replica becomes a hotspot.
//!    Before it, §4.1's replica sum runs per hosted class and leaves the
//!    sum only where the collect reads it: on each host, the chunks of the
//!    owners that Algorithm 2 sources from that host. A host's *own* chunk
//!    is summed by the Adam step itself, from the partials the reduce
//!    received.
//! 2. Steps Adam on each shard (host-side; the staging across PCIe is
//!    accounted via the traffic counters). The kernel publishes the updated
//!    weights as binary16 bits in the same pass — the wire format — straight
//!    into the weight scatter's send buffers and, where this rank hosts the
//!    class next, into its slot.
//! 3. **Weight Communication Phase**: sends those fp16 shards to each rank
//!    hosting the class under the **next** iteration's placement, where
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
//! is alive, otherwise from the freshest surviving copy. A coupled
//! re-placement is the same plan and exchange over the same view, from the
//! old owner groups to the new placement's ([`SymiOptimizer::follow`]).

use crate::placement::ExpertPlacement;
use symi_collectives::coll::chunk_range;
use symi_collectives::tag::{decode, with_step};
use symi_collectives::{
    decode_f16_into, encode_f16, CommError, MembershipView, Payload, RankCtx, RecvOp, SendOp,
    TagSpace, WirePhase,
};
use symi_model::expert::{ExpertFfn, ParamsMut};
use symi_telemetry::{Phase, TelemetryHandle};
use symi_tensor::HalfMatrix;
use symi_tensor::{AdamConfig, AdamShard, Dest, Grad};

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

/// Accounting of one re-shard on one rank ([`SymiOptimizer::reshard`] or
/// [`SymiOptimizer::follow`] on a member, [`SymiOptimizer::join`] on a
/// joiner), in parameters summed over every class: `kept + transferred +
/// reseeded` is the sum of this rank's new chunk lengths.
///
/// - `kept_params`: the overlap of the old and new chunk, kept in place
///   with its moments — all of a chunk that did not move.
/// - `transferred_params`: acquired from a live old owner as the full fp32
///   `[master | m | v]`, 12 B/param on the wire.
/// - `reseeded_params`: acquired where the old owner died — master weights
///   from the class's fp16 replica or canonical re-initialization, moments
///   zeroed (the documented, bounded degradation of a shrink).
/// - `reinitialized_params`: the part of `reseeded_params` that had no
///   surviving copy at all.
///
/// A grow or a re-placement loses no owner, so neither ever re-seeds.
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

/// One chunk geometry: owner groups over a membership view's logical ranks.
/// A re-shard maps one geometry onto another — a membership change moves
/// the view, a coupled re-placement the owner groups.
#[derive(Clone, Copy)]
struct Geometry<'a> {
    view: &'a MembershipView,
    owners: &'a Owners,
    param_count: usize,
}

impl Geometry<'_> {
    /// The chunk of `class` that logical rank `lrank` owns.
    fn chunk(&self, class: usize, lrank: usize) -> (usize, usize) {
        self.owners.chunk(class, lrank, self.view.size(), self.param_count)
    }

    /// The chunk of `class` that physical rank `phys` owns; empty outside
    /// the view.
    fn chunk_of(&self, class: usize, phys: usize) -> (usize, usize) {
        self.view.logical_of(phys).map_or((0, 0), |l| self.chunk(class, l))
    }
}

/// The deterministic re-shard plan, identical on every member of
/// `new.view`, for a shrink, a grow and a re-placement alike: for each of
/// `classes` and each of its new chunk owners, the segments the new chunk
/// acquires beyond the owner's old chunk (the whole chunk, for a joiner or
/// a new owner), split by the old geometry so each segment has one old
/// owner, with the source [`PieceSource`]'s rules pick. The plan is
/// class-major. `old_placement` is consulted only where an owner died, so
/// a grow or a re-placement can pass `None`.
fn reshard_plan(
    old: Geometry,
    new: Geometry,
    old_placement: Option<&ExpertPlacement>,
    classes: &[usize],
) -> Vec<ReshardPiece> {
    let mut plan = Vec::new();
    for &class in classes {
        for dst_l in 0..new.view.size() {
            let dst = new.view.physical_of(dst_l);
            let (ns, ne) = new.chunk(class, dst_l);
            let (os, oe) = old.chunk_of(class, dst);
            // Acquired = new chunk minus old chunk: at most two segments.
            for (a, b) in [(ns, ne.min(os)), (ns.max(oe), ne)] {
                for owner_l in 0..old.view.size() {
                    let (cs, ce) = old.chunk(class, owner_l);
                    let (start, end) = (a.max(cs), b.min(ce));
                    if start >= end {
                        continue;
                    }
                    let owner = old.view.physical_of(owner_l);
                    let source = if new.view.is_alive(owner) {
                        PieceSource::Owner { src: owner }
                    } else {
                        // Lowest surviving *physical* host: all replicas are
                        // bit-identical, so one canonical choice keeps every
                        // member's plan equal.
                        old_placement
                            .expect("an owner died, so the old placement decides")
                            .host_ranks(class)
                            .iter()
                            .map(|&l| old.view.physical_of(l))
                            .filter(|&p| new.view.is_alive(p))
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

/// The one re-shard exchange every member of `new.view` runs, whatever
/// changed: walk the [`reshard_plan`] of `classes`, send what this rank
/// sources, receive what it acquires, and assemble its new chunk of each of
/// those classes — the kept overlap copied in place, each acquired piece
/// filled by its rule, and stepping on from Adam step `step_count`.
/// `shards` holds this rank's old chunk of every class (a joiner's are
/// zero-length); it is written once every receive has landed, and only at
/// `classes`. `fallback` is `None` where no owner can have died: a joiner's
/// grow, or a re-placement. Pieces travel under `tags` with
/// `WeightDistribute` phase and a per-`(class, dst)` step field, so they can
/// never alias the membership rounds or the weight scatter.
#[allow(clippy::too_many_arguments)]
fn exchange(
    ctx: &mut RankCtx,
    old: Geometry,
    new: Geometry,
    classes: &[usize],
    shards: &mut [AdamShard],
    fallback: Option<&Fallback>,
    adam: AdamConfig,
    step_count: u64,
    tags: TagSpace,
) -> Result<ReshardReport, CommError> {
    let me = ctx.rank();
    let new_l = new.view.logical_of(me).expect("a dropped rank cannot re-shard");
    // A membership change is one shrink or one grow.
    if old.view != new.view {
        assert!(new.view.epoch() > old.view.epoch(), "re-shard needs a successor view");
        if new.view.survivors().into_iter().any(|p| old.view.logical_of(p).is_none()) {
            for p in old.view.survivors() {
                assert!(
                    new.view.is_alive(p),
                    "mixed join+death membership change is unsupported: rank {p} was dropped \
                     while another joined — recover the death first, then admit the joiner"
                );
            }
        }
    }
    ctx.begin_epoch(tags.iteration(), WirePhase::WeightDistribute);
    let plan = reshard_plan(old, new, fallback.map(|f| f.old_placement), classes);
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
                let (os, _) = old.chunk_of(piece.class, me);
                let r = piece.start - os..piece.end - os;
                let shard = &shards[piece.class];
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

    // Assemble the new shards class by class: the kept overlap first, then
    // the acquired pieces in plan order — the plan is class-major, so this
    // consumes the receives in posting order.
    let mut report = ReshardReport::default();
    let mut assembled = Vec::with_capacity(classes.len());
    for &class in classes {
        let old_shard = &shards[class];
        let (ns, ne) = new.chunk(class, new_l);
        let (os, oe) = old.chunk_of(class, me);
        let mut master = vec![0.0f32; ne - ns];
        let mut m = vec![0.0f32; ne - ns];
        let mut v = vec![0.0f32; ne - ns];
        let keep = (ns.max(os), ne.min(oe));
        if keep.0 < keep.1 {
            let (om, ov) = old_shard.moments();
            let dst_r = keep.0 - ns..keep.1 - ns;
            let src_r = keep.0 - os..keep.1 - os;
            master[dst_r.clone()].copy_from_slice(&old_shard.master_weights()[src_r.clone()]);
            m[dst_r.clone()].copy_from_slice(&om[src_r.clone()]);
            v[dst_r].copy_from_slice(&ov[src_r]);
            report.kept_params += (keep.1 - keep.0) as u64;
        }
        for piece in plan.iter().filter(|p| p.class == class && p.dst == me) {
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
                        master[r].copy_from_slice(
                            &fallback().weights(piece.class)[piece.start..piece.end],
                        );
                    } else {
                        let half =
                            received.next().expect("one receive per wire piece").into_f16()?;
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
        assembled.push(AdamShard::from_parts(adam, ns, master, m, v, step_count));
    }
    for (&class, shard) in classes.iter().zip(assembled) {
        shards[class] = shard;
    }
    Ok(report)
}

/// Which ranks own a class's optimizer state — the one choice that tells the
/// paper's systems apart (§3.1, §5). Within a class's owner group, the
/// `i`-th owner in ascending logical rank holds chunk `i` of its flat
/// parameters.
#[derive(Clone, Debug)]
pub(crate) enum Owners {
    /// Every member of the view owns a `1/N` chunk of every class (SYMI). No
    /// placement enters the geometry, so re-placing moves no optimizer state.
    World,
    /// `Hosts(h)`: class `c`'s host ranks `h[c]` under the current placement
    /// own a `1/r` chunk of it each — ZeRO-1 over the class's EDP group, as
    /// DeepSpeed and FlexMoE couple it. Every owner hosts its class, so
    /// Algorithm 2's collect is served locally, and the weight scatter to the
    /// class's other hosts is the EDP all-gather; a placement change moves
    /// the state with it ([`SymiOptimizer::follow`]).
    Hosts(Vec<Vec<usize>>),
}

impl Owners {
    /// Each class's host ranks under `placement` own its state.
    pub(crate) fn hosts_of(placement: &ExpertPlacement) -> Self {
        Owners::Hosts((0..placement.expert_classes()).map(|c| placement.host_ranks(c)).collect())
    }

    /// The chunk of `class`'s `param_count` flat parameters that logical
    /// rank `lrank` of an `n`-member view owns — the one geometry every
    /// phase reads. Empty for a rank outside the class's owner group.
    fn chunk(&self, class: usize, lrank: usize, n: usize, param_count: usize) -> (usize, usize) {
        match self {
            Owners::World => chunk_range(param_count, n, lrank),
            Owners::Hosts(hosts) => hosts[class]
                .iter()
                .position(|&h| h == lrank)
                .map_or((0, 0), |i| chunk_range(param_count, hosts[class].len(), i)),
        }
    }
}

/// This rank's shard of one class's synchronized gradient, as Algorithm 2
/// delivered it.
#[derive(Debug)]
pub(crate) enum GradShard {
    /// Sourced from this rank's own replica: the shard is
    /// [`SymiOptimizer::shard_range`] of the class's local gradient and
    /// stays there — Adam sums and steps it where it lies
    /// ([`ClassGrad::Reduced`]), nothing is copied.
    Local,
    /// Received from a remote host rank in a wire buffer (empty for a
    /// zero-length shard); hand it back with [`RankCtx::recycle_f32`] once
    /// Adam has consumed it.
    Wire(Vec<f32>),
}

/// One ring chunk `j`'s share of a reduce onto a source, in the ring's
/// association: the partials of host positions `j, j + 1, …, j + m − 1`
/// (mod m) summed left to right. `own` is position `me`'s partial and
/// receives the sum; `parts[q][w]` is position `q`'s (`parts[me]` unused).
/// The terms before `me` accumulate in `parts[j]`, which is then added to
/// `own` — `a + b` and `b + a` round alike — and the rest follow in place.
fn fold_ring_chunk(
    own: &mut [f32],
    parts: &mut [Vec<f32>],
    me: usize,
    j: usize,
    w: std::ops::Range<usize>,
) {
    let m = parts.len();
    let before = (me + m - j) % m;
    if before > 0 {
        let mut prefix = std::mem::take(&mut parts[j]);
        for q in (1..before).map(|k| (j + k) % m) {
            add_into(&mut prefix[w.clone()], &parts[q][w.clone()]);
        }
        add_into(own, &prefix[w.clone()]);
        parts[j] = prefix;
    }
    for q in (before + 1..m).map(|k| (j + k) % m) {
        add_into(own, &parts[q][w.clone()]);
    }
}

fn add_into(acc: &mut [f32], x: &[f32]) {
    for (a, v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// The other hosts' partials of the chunks a host serves, as
/// [`SymiOptimizer::reduce_grads_to_sources`] received them and left them
/// unfolded on the host's own chunk: its Adam step sums them there
/// ([`SymiOptimizer::step_reduced`]), in the ring's association, and hands
/// the buffers back with [`Partials::recycle`].
#[derive(Debug, Default)]
pub struct Partials {
    /// `parts[q]`: host position `q`'s partial of the ranges this host
    /// serves, packed; empty at this host's own position, and no entry at
    /// all when nothing arrived (one host, or nothing served here).
    parts: Vec<Vec<f32>>,
    /// This host's position among the class's hosts.
    me: usize,
    /// Where this rank's own chunk starts within the packing.
    own_at: usize,
}

impl Partials {
    /// Whether nothing arrived: the class has one host, or this host
    /// serves nothing of it.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Hands the received buffers back to the wire-buffer free list.
    pub fn recycle(self, ctx: &RankCtx) {
        for part in self.parts {
            ctx.recycle_f32(part);
        }
    }
}

/// Where the gradient of one class's Adam step comes from.
pub(crate) enum ClassGrad<'a> {
    /// This rank's shard, summed already: a wire buffer, or a caller's.
    Shard(&'a [f32]),
    /// A host's flat gradient of the class as the reduce left it, and what
    /// the reduce returned: the step sums this rank's own chunk from the
    /// two — element `i` of ring chunk `j` the partials of host positions
    /// `j, j + 1, …` (mod m), left to right, as `fold_ring_chunk` would —
    /// and leaves the sum in the gradient, where the fold would have.
    Reduced(&'a mut [f32], &'a Partials),
}

/// A binary16 buffer an Adam step publishes into.
pub(crate) trait HalfBuf {
    fn bits(&mut self) -> &mut [u16];
}

impl HalfBuf for Vec<u16> {
    fn bits(&mut self) -> &mut [u16] {
        self
    }
}

impl HalfBuf for SendOp {
    fn bits(&mut self) -> &mut [u16] {
        match &mut self.data {
            Payload::F16(bits) => bits,
            _ => unreachable!("a weight send carries binary16 bits"),
        }
    }
}

/// The Weight Communication Phase's sends of one iteration, taken before
/// Adam runs so the step publishes into them: per class whose chunk this
/// rank owns, one binary16 send to every other rank hosting the class
/// under the next placement, class-major ([`SymiOptimizer::weight_sends`]).
pub(crate) struct WeightSends {
    ops: Vec<SendOp>,
}

impl WeightSends {
    /// The sends of `class`.
    pub(crate) fn of_class(&mut self, class: usize) -> &mut [SendOp] {
        let class_of = |op: &SendOp| decode(op.tag).map_or(0, |f| f.entity as usize);
        let lo = self.ops.partition_point(|op| class_of(op) < class);
        let hi = self.ops.partition_point(|op| class_of(op) <= class);
        &mut self.ops[lo..hi]
    }
}

/// Runs `f` on `items` gathered into a slice — on the stack when there are
/// at most eight, else on the heap: a step's gradient terms and
/// destinations, collected without an allocation in the common case.
fn with_list<T: Default, R>(
    mut items: impl Iterator<Item = T>,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    let mut stack: [T; 8] = Default::default();
    for n in 0..stack.len() {
        match items.next() {
            Some(item) => stack[n] = item,
            None => return f(&mut stack[..n]),
        }
    }
    match items.next() {
        None => f(&mut stack),
        Some(item) => f(&mut stack.into_iter().chain([item]).chain(items).collect::<Vec<_>>()),
    }
}

/// Per-rank SYMI optimizer state: one Adam shard per expert class (empty
/// for a class whose owner group this rank is not in).
pub struct SymiOptimizer {
    view: MembershipView,
    /// Logical rank within `view` (== physical on the initial full view).
    lrank: usize,
    owners: Owners,
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
        Self::with_view(MembershipView::full(nodes), rank, Owners::World, adam, class_params)
    }

    /// DeepSpeed's coupling over the full `nodes`-rank world: each class's
    /// host ranks under the fixed `placement` own a `1/r` chunk of it each,
    /// and this rank holds the chunks of the classes it hosts.
    pub fn host_sharded(
        rank: usize,
        nodes: usize,
        adam: AdamConfig,
        placement: &ExpertPlacement,
        class_params: &[Vec<f32>],
    ) -> Self {
        let owners = Owners::hosts_of(placement);
        Self::with_view(MembershipView::full(nodes), rank, owners, adam, class_params)
    }

    /// Initializes this rank's shards over an explicit membership view and
    /// owner groups — also the standby-world entry point: a cluster can run
    /// `active < world` members (`MembershipView::partial`) with the idle
    /// ranks awaiting a later join.
    pub(crate) fn with_view(
        view: MembershipView,
        logical_rank: usize,
        owners: Owners,
        adam: AdamConfig,
        class_params: &[Vec<f32>],
    ) -> Self {
        assert!(!class_params.is_empty(), "need at least one expert class");
        assert!(logical_rank < view.size(), "logical rank {logical_rank} out of the view");
        let param_count = class_params[0].len();
        assert!(class_params.iter().all(|p| p.len() == param_count), "uneven expert sizes");
        let mut opt = Self {
            view,
            lrank: logical_rank,
            owners,
            adam,
            param_count,
            shards: Vec::new(),
            telemetry: TelemetryHandle::disabled(),
        };
        opt.shards = class_params
            .iter()
            .enumerate()
            .map(|(class, p)| {
                let (start, end) = opt.shard_range(class);
                AdamShard::new(adam, start, &p[start..end])
            })
            .collect();
        opt
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
            owners: Owners::World,
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

    /// Whether every member owns a chunk of every class (SYMI), so the
    /// geometry depends on the view alone — the only geometry a membership
    /// change or a snapshot re-shards today.
    pub(crate) fn is_world_owned(&self) -> bool {
        matches!(self.owners, Owners::World)
    }

    /// The chunk of `class`'s flat parameters logical rank `lrank` owns.
    fn chunk(&self, class: usize, lrank: usize) -> (usize, usize) {
        self.owners.chunk(class, lrank, self.nodes(), self.param_count)
    }

    /// This rank's shard boundaries within `class`'s flat parameters.
    /// Zero-length shards (more owners than parameters, or a class this rank
    /// does not own) are legal: such a rank simply neither sends nor
    /// receives that class in the shard phases.
    pub fn shard_range(&self, class: usize) -> (usize, usize) {
        self.chunk(class, self.lrank)
    }

    pub fn expert_classes(&self) -> usize {
        self.shards.len()
    }

    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Adam's step counter: the most steps any class's shard has taken (0
    /// before the first step). Every class steps once per iteration, so
    /// the classes agree — except after an iteration aborted between two
    /// of its steps, the engine's early ones and the rest, until a
    /// re-shard levels them ([`SymiOptimizer::reshard`]). A membership
    /// change carries this in the agreement payload, so the re-sharded and
    /// the joiner's bias correction continue where the furthest member is.
    pub(crate) fn adam_step_count(&self) -> u64 {
        self.shards.iter().map(AdamShard::step_count).max().unwrap_or(0)
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

    /// S_h of `class` hosted on `hosts` (logical, ascending): the chunks of
    /// every owner whose [`get_source`] is host `h`, ascending and non-empty
    /// — what Algorithm 2's collect reads from `h`'s gradient, so what the
    /// reduce must leave summed there. Over a class's hosts these ranges
    /// tile `[0, param_count)` once: every owner has one source.
    fn served<'a>(
        &'a self,
        hosts: &'a [usize],
        class: usize,
        h: usize,
    ) -> impl Iterator<Item = (usize, usize)> + Clone + 'a {
        (0..self.nodes())
            .filter(move |&o| get_source(hosts, o) == h)
            .map(move |o| self.chunk(class, o))
            .filter(|(s, t)| s < t)
    }

    /// The ranges of `class`'s flat gradient that host `host` (logical)
    /// serves under `placement` — where [`SymiOptimizer::reduce_grads_to_sources`]
    /// leaves the replica sum on that host (testing support).
    pub fn served_ranges(
        &self,
        placement: &ExpertPlacement,
        class: usize,
        host: usize,
    ) -> Vec<(usize, usize)> {
        self.served(&placement.host_ranks(class), class, host).collect()
    }

    /// §4.1's replica sum of one hosted class, reduced onto Algorithm 2's
    /// sources: on return, this rank's `grad` holds the sum over the class's
    /// host ranks on S_h — the chunks of every *other* owner whose
    /// [`get_source`] is this rank — and its own partial everywhere else.
    /// [`SymiOptimizer::collect_grads`] then serves those owners from S_h.
    /// This rank's own chunk is served here too, but the sum there is left
    /// to its Adam step ([`SymiOptimizer::step_reduced`]), which reads the
    /// returned [`Partials`] and leaves the sum in `grad` as it steps.
    ///
    /// Every other host sends this rank its partial of S_h in one sized
    /// message (`(GradSync, class, src_physical)`), and this rank sends each
    /// of them its partial of theirs; the class's hosts exchange
    /// `(m − 1) · param_count` elements in all, the reduce-scatter half of a
    /// ring all-reduce and none of its all-gather. The fold follows the
    /// ring's association, so each served element is bit for bit what
    /// `RankCtx::allreduce_sum` over the hosts leaves there: an element of
    /// ring chunk `j` (`chunk_range(param_count, m, j)`) sums the partials
    /// of host positions `j, j + 1, …` (mod m) left to right.
    ///
    /// # Errors
    /// Any wire error of the exchange.
    ///
    /// # Panics
    /// Panics if this rank does not host `class` under `placement`.
    pub fn reduce_grads_to_sources(
        &self,
        ctx: &mut RankCtx,
        placement: &ExpertPlacement,
        class: usize,
        grad: &mut [f32],
        tags: TagSpace,
    ) -> Result<Partials, CommError> {
        let _span = self.telemetry.span(Phase::GradComm);
        let hosts = placement.host_ranks(class);
        let me = hosts.binary_search(&self.lrank).expect("reduce only a hosted class");
        let m = hosts.len();
        assert_eq!(grad.len(), self.param_count, "class {class}: gradient length");
        if m == 1 {
            return Ok(Partials::default());
        }
        let me_phys = self.my_phys();
        let mut sends = Vec::with_capacity(m - 1);
        let mut recvs = Vec::with_capacity(m - 1);
        let mine = self.served(&hosts, class, self.lrank);
        let mine_len: usize = mine.clone().map(|(s, t)| t - s).sum();
        for (j, &h) in hosts.iter().enumerate() {
            if j == me {
                continue;
            }
            let peer = self.view.physical_of(h);
            let theirs = self.served(&hosts, class, h);
            let len = theirs.clone().map(|(s, t)| t - s).sum();
            if len > 0 {
                let mut buf = ctx.pooled_f32(len);
                for (s, t) in theirs {
                    buf.extend_from_slice(&grad[s..t]);
                }
                sends.push(SendOp::new(peer, tags.tag(WirePhase::GradSync, class, me_phys), buf));
            }
            if mine_len > 0 {
                recvs.push(RecvOp::sized(
                    peer,
                    tags.tag(WirePhase::GradSync, class, peer),
                    mine_len,
                ));
            }
        }
        let received = ctx.batch_isend_irecv(sends, &recvs)?;
        if mine_len == 0 {
            return Ok(Partials::default());
        }
        // `parts[j]` is host position j's partial of S_h, packed; mine stays
        // in `grad`.
        let mut parts = Vec::with_capacity(m);
        let mut received = received.into_iter();
        for j in 0..m {
            parts.push(if j == me {
                Vec::new()
            } else {
                received.next().expect("one per peer").into_f32()?
            });
        }
        let own = self.shard_range(class);
        let (mut packed, mut own_at) = (0, 0);
        for (s, t) in mine {
            if (s, t) == own {
                own_at = packed;
            } else {
                for j in 0..m {
                    let (cs, ce) = chunk_range(self.param_count, m, j);
                    let (a, b) = (s.max(cs), t.min(ce));
                    if a < b {
                        let w = packed + a - s..packed + b - s;
                        fold_ring_chunk(&mut grad[a..b], &mut parts, me, j, w);
                    }
                }
            }
            packed += t - s;
        }
        Ok(Partials { parts, me, own_at })
    }

    /// Grad Communication Phase: every rank ends up with its shard of every
    /// class's gradient, already summed over the class's hosts on the ranges
    /// each host serves ([`SymiOptimizer::reduce_grads_to_sources`]).
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
        Ok(shards
            .into_iter()
            .zip(local_grads)
            .enumerate()
            .map(|(class, (shard, local))| match shard {
                GradShard::Wire(shard) => shard,
                GradShard::Local => {
                    let grad = local.as_ref().expect("locally sourced, so hosted").as_ref();
                    let (ms, mt) = self.shard_range(class);
                    ctx.pooled_copy_f32(&grad[ms..mt])
                }
            })
            .collect())
    }

    /// The Grad Communication Phase as the engine runs it: same sends, same
    /// receives, same accounting as [`SymiOptimizer::collect_grads`], but a
    /// shard Algorithm 2 sources from this rank is reported as
    /// [`GradShard::Local`] and left where it is — `shard_range(class)` of
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
                    let (s, t) = self.chunk(class, dst);
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
        let mut recvs = Vec::new();
        let mut out: Vec<Option<GradShard>> = Vec::with_capacity(e);
        let mut staged = 0;
        for (class, local) in local_grads.iter().enumerate() {
            let (ms, mt) = self.shard_range(class);
            staged += mt - ms;
            if ms == mt {
                // Zero-length shard: nothing to collect for this class.
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
        // gradients stay fp32 — only the weight phase travels fp16).
        ctx.record_host_device_bytes(staged as u64 * 4);
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

    /// Adam step over every class's shard; element `class` of the result is
    /// the updated weight shard as binary16 bits — what the kernel wrote,
    /// ready for [`SymiOptimizer::distribute_weights`] with no conversion
    /// pass. Each shard's elementwise update runs in parallel chunks on the
    /// shared worker pool (`symi_tensor::pool`), bit-exact for any worker
    /// count.
    ///
    /// This is the owned-`Vec` convenience form, for callers that hold no
    /// slots (traffic harnesses, tests); the engine publishes each class's
    /// step straight into its weight-scatter buffers and slot.
    pub fn step(&mut self, grad_shards: &[Vec<f32>]) -> Vec<Vec<u16>> {
        assert_eq!(grad_shards.len(), self.shards.len(), "one gradient shard per class");
        if self.telemetry.is_enabled() {
            self.telemetry.gauge("optimizer_state_bytes").set(self.state_bytes() as f64);
        }
        let mut out = Vec::with_capacity(grad_shards.len());
        for (class, grad) in grad_shards.iter().enumerate() {
            let mut half = vec![0u16; grad.len()];
            self.step_class(class, ClassGrad::Shard(grad), std::slice::from_mut(&mut half), None);
            out.push(half);
        }
        out
    }

    /// Adam step of a class this rank hosts, from what
    /// [`SymiOptimizer::reduce_grads_to_sources`] left: `grad` is the class's
    /// flat gradient it reduced into, `partials` what it returned. The
    /// step sums this rank's own chunk of the replica sum as it goes and
    /// leaves it in `grad`, which then holds the sum on every range this
    /// rank serves. Returns the updated shard as binary16 bits (the
    /// owned-`Vec` convenience form, for tests: the engine publishes
    /// straight into its sends and slot).
    pub fn step_reduced(
        &mut self,
        class: usize,
        grad: &mut [f32],
        partials: &Partials,
    ) -> Vec<u16> {
        let (ms, mt) = self.shard_range(class);
        let mut half = vec![0u16; mt - ms];
        let grad = ClassGrad::Reduced(grad, partials);
        self.step_class(class, grad, std::slice::from_mut(&mut half), None);
        half
    }

    /// The Weight Communication Phase's send buffers toward
    /// `new_placement`: for each class this rank owns a non-empty chunk of,
    /// one pooled buffer of the chunk's length per other rank that hosts
    /// the class there. Their contents are stale until the class's Adam
    /// step ([`SymiOptimizer::step_class`]) publishes into them.
    pub(crate) fn weight_sends(
        &self,
        ctx: &RankCtx,
        new_placement: &ExpertPlacement,
        tags: TagSpace,
    ) -> WeightSends {
        let n = self.nodes();
        assert_eq!(new_placement.ranks(), n, "placement rank count mismatch");
        let me_phys = self.my_phys();
        let mut ops = Vec::new();
        for class in 0..self.shards.len() {
            let (ms, mt) = self.shard_range(class);
            if ms == mt {
                continue;
            }
            for dst in (0..n).filter(|&d| d != self.lrank && new_placement.rank_hosts(d, class)) {
                let tag = tags.tag(WirePhase::WeightDistribute, class, me_phys);
                let bits = ctx.pooled_f16_len(mt - ms);
                ops.push(SendOp::new(self.view.physical_of(dst), tag, bits));
            }
        }
        WeightSends { ops }
    }

    /// Adam step of `class`'s chunk — the one pass from gradient to
    /// published weights. The gradient comes from `grad`; the updated
    /// weights go, as binary16 bits, to each of `outs` (one chunk long
    /// each) and, through `slot`, into the parameters of the expert that
    /// hosts the class on this rank next ([`ParamsMut::dests`]). Every
    /// class steps once per iteration, a zero-length chunk included: the
    /// step counter advances for all classes together.
    pub(crate) fn step_class<B: HalfBuf>(
        &mut self,
        class: usize,
        grad: ClassGrad<'_>,
        outs: &mut [B],
        slot: Option<ParamsMut<'_>>,
    ) {
        let _span = self.telemetry.span(Phase::OptimizerStep);
        let (ms, mt) = self.shard_range(class);
        let param_count = self.param_count;
        let mut grad = match grad {
            ClassGrad::Reduced(full, partials) => {
                assert_eq!(full.len(), param_count, "class {class}: gradient length");
                if partials.is_empty() {
                    ClassGrad::Shard(&full[ms..mt])
                } else {
                    ClassGrad::Reduced(full, partials)
                }
            }
            ClassGrad::Shard(shard) => {
                assert_eq!(shard.len(), mt - ms, "class {class}: gradient shard length");
                ClassGrad::Shard(shard)
            }
        };
        let mut step = self.shards[class].begin_step();
        // Steps flat elements `a .. b`; `local`, when the class has a slot
        // here next, is the slot's storage of them.
        let mut run = |a: usize, b: usize, mut local: Option<Dest<'_>>| match &mut grad {
            ClassGrad::Shard(shard) => {
                let r = a - ms..b - ms;
                let half = outs.iter_mut().map(|o| Dest::Half(&mut o.bits()[r.clone()]));
                with_list(half.chain(local), |dests| {
                    step.run(r.clone(), Grad::Slice(&shard[r.clone()]), dests)
                });
            }
            ClassGrad::Reduced(full, partials) => {
                let m = partials.parts.len();
                let mut at = a;
                while at < b {
                    let j = (0..m)
                        .find(|&j| chunk_range(param_count, m, j).1 > at)
                        .expect("ring chunks tile the parameters");
                    let end = chunk_range(param_count, m, j).1.min(b);
                    let r = at - ms..end - ms;
                    let packed = partials.own_at + r.start..partials.own_at + r.end;
                    // Host positions j, j + 1, … (mod m); this rank's partial,
                    // the accumulator, takes its place among them.
                    let before = (partials.me + m - j) % m;
                    let terms = (0..m)
                        .map(|t| (j + t) % m)
                        .filter(|&q| q != partials.me)
                        .map(|q| &partials.parts[q][packed.clone()]);
                    let acc = &mut full[at..end];
                    let half = outs.iter_mut().map(|o| Dest::Half(&mut o.bits()[r.clone()]));
                    let local = local.as_mut().map(|d| d.sub(at - a..end - a));
                    with_list(terms, |terms| {
                        with_list(half.chain(local), |dests| {
                            step.run(r.clone(), Grad::accumulate(terms, acc, before), dests)
                        })
                    });
                    at = end;
                }
            }
        };
        match slot {
            Some(mut params) => {
                params.dests(ms, mt, |start, d| run(start, start + d.len(), Some(d)))
            }
            None => run(ms, mt, None),
        }
    }

    /// Weight Communication Phase: sends this rank's updated fp16 weight
    /// shard of every class **once per destination rank hosting the class**
    /// under the *new* placement, and returns one flat f32 weight vector per
    /// local slot (indexed by local slot id) — thereby *materializing* the
    /// new placement with zero extra traffic relative to a static system's
    /// weight update (§3.3-II).
    ///
    /// This is the owned-`Vec` convenience form, for callers that hold no
    /// slots (traffic harnesses, tests): each shard of `half_shards` (what
    /// [`SymiOptimizer::step`] returned) is copied into its sends, and the
    /// received and local chunks are decoded into fresh vectors.
    pub fn distribute_weights(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        half_shards: &[Vec<u16>],
        tags: TagSpace,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let mut out = vec![vec![0.0f32; self.param_count]; new_placement.slots_per_rank()];
        let hosted = new_placement.classes_on_rank(self.lrank);
        self.scatter_copies(ctx, new_placement, half_shards, tags, |g, offset, half| {
            for &local in &hosted[g].1 {
                decode_f16_into(half, &mut out[local][offset..offset + half.len()]);
            }
        })?;
        Ok(out)
    }

    /// [`SymiOptimizer::distribute_weights`] into slots: every chunk —
    /// received, or this rank's own from `half_shards` — is copied once,
    /// straight into the binary16 `W1 | W2` (and the f32 `b1 | b2`) of the
    /// one expert that executes its class ([`ExpertFfn::load_f16_at`]); the
    /// weights are not decoded. `experts[g]` takes the `g`-th class of
    /// `new_placement.classes_on_rank`, however many slots it fills. The
    /// path of a membership change or a restore, whose shards are encoded
    /// masters, not an Adam step's output.
    pub(crate) fn distribute_weights_into(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        half_shards: &[Vec<u16>],
        tags: TagSpace,
        experts: &mut [ExpertFfn<HalfMatrix>],
    ) -> Result<(), CommError> {
        self.scatter_copies(ctx, new_placement, half_shards, tags, |g, offset, half| {
            experts[g].load_f16_at(offset, half);
        })
    }

    /// The Weight Communication Phase as the engine runs it, after every
    /// class's Adam step published into `sends` and into this rank's own
    /// slots: sends them, and copies each received chunk straight into the
    /// expert that executes its class, as
    /// [`SymiOptimizer::distribute_weights_into`] does.
    pub(crate) fn scatter_weights_into(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        sends: WeightSends,
        tags: TagSpace,
        experts: &mut [ExpertFfn<HalfMatrix>],
    ) -> Result<(), CommError> {
        self.scatter_weights(ctx, new_placement, sends, tags, |g, offset, half| {
            experts[g].load_f16_at(offset, half);
        })
    }

    /// Copies `half_shards` — this rank's shard of every class as binary16
    /// bits — into the sends toward `new_placement`, hands `sink` this
    /// rank's own chunk of each class it hosts there, and scatters.
    fn scatter_copies(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        half_shards: &[Vec<u16>],
        tags: TagSpace,
        mut sink: impl FnMut(usize, usize, &[u16]),
    ) -> Result<(), CommError> {
        assert_eq!(half_shards.len(), self.shards.len(), "one weight shard per class");
        for (class, half) in half_shards.iter().enumerate() {
            let (ms, mt) = self.shard_range(class);
            assert_eq!(half.len(), mt - ms, "class {class}: weight shard length");
        }
        let mut sends = self.weight_sends(ctx, new_placement, tags);
        for (class, half) in half_shards.iter().enumerate() {
            for op in sends.of_class(class) {
                op.bits().copy_from_slice(half);
            }
        }
        for (g, (class, _)) in new_placement.classes_on_rank(self.lrank).into_iter().enumerate() {
            let (ms, mt) = self.shard_range(class);
            if ms < mt {
                sink(g, ms, &half_shards[class]);
            }
        }
        self.scatter_weights(ctx, new_placement, sends, tags, sink)
    }

    /// Advances the fencing epoch, sends `sends`' buffers, receives this
    /// rank's classes' chunks from every other owner, and hands `sink` each
    /// `(index of the class in new_placement.classes_on_rank, offset in the
    /// flat parameters, fp16 chunk)` — once per hosted class and remote
    /// source chunk. This rank's own chunks are not handed over: they are
    /// already in place.
    ///
    /// A destination rank hosting several sibling slots of one class
    /// receives the shard once. Zero-length shards are skipped on the wire
    /// by both sides. The shards travel (and stage over PCIe) as 2 B/param
    /// [`Payload::F16`], each send in a buffer from the wire-buffer free
    /// list, and consumed wire buffers go back to it.
    ///
    /// [`Payload::F16`]: symi_collectives::Payload::F16
    fn scatter_weights(
        &self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        sends: WeightSends,
        tags: TagSpace,
        mut sink: impl FnMut(usize, usize, &[u16]),
    ) -> Result<(), CommError> {
        let _span = self.telemetry.span(Phase::WeightComm);
        let n = self.nodes();
        assert_eq!(new_placement.ranks(), n, "placement rank count mismatch");
        ctx.begin_epoch(tags.iteration(), WirePhase::WeightDistribute);

        // The shards leave host memory over PCIe at their fp16 width.
        let owned: usize =
            (0..self.shards.len()).map(|c| self.shard_range(c)).map(|(s, t)| t - s).sum();
        ctx.record_host_device_bytes(owned as u64 * 2);

        // Receive each of my distinct classes' shard from every other owner
        // with a non-empty chunk, length-checked at the wire.
        let my_classes = new_placement.classes_on_rank(self.lrank);
        let mut recvs = Vec::new();
        for &(class, _) in &my_classes {
            for src in (0..n).filter(|&src| src != self.lrank) {
                let (a, b) = self.chunk(class, src);
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
        let mut received = ctx.batch_isend_irecv(sends.ops, &recvs)?.into_iter();
        if self.telemetry.is_enabled() {
            // Retry attempts burned materializing the new placement — a
            // persistent nonzero here under a *healthy* plan would mean
            // ranks disagree about the placement (see engine degradation
            // notes), so it is worth its own gauge.
            let delta = ctx.protocol_stats().retries - retries_before;
            self.telemetry.gauge("weight_distribute_retries").set(delta as f64);
        }
        for (hosted, (class, _)) in my_classes.iter().enumerate() {
            for src in (0..n).filter(|&src| src != self.lrank) {
                let (a, b) = self.chunk(*class, src);
                if a == b {
                    continue;
                }
                let shard = received.next().expect("one receive per (class, src)").into_f16()?;
                sink(hosted, a, &shard);
                ctx.recycle_f16(shard);
            }
        }
        Ok(())
    }

    /// Re-shards optimizer ownership over `new_view` — a shrink after a
    /// rank death or a grow that admits a joiner — through the one
    /// exchange every re-shard shares.
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
    /// each class this rank hosts under `old_placement`. Every re-sharded
    /// chunk steps on from `step_count`, the highest Adam step count among
    /// the members (the engine's agreement payload carries each one's): an
    /// iteration that aborted may have stepped some classes' chunks on some
    /// ranks and not others, and those steps stand, but no class or rank is
    /// left a step behind in its bias correction. The transfer plan
    /// is a pure function of `(old view, new view, old placement, P)`, so
    /// every member computes it identically; the joiner's side is
    /// [`SymiOptimizer::join`].
    #[allow(clippy::too_many_arguments)]
    pub fn reshard(
        &mut self,
        ctx: &mut RankCtx,
        new_view: &MembershipView,
        old_placement: &ExpertPlacement,
        local_class_weights: &[(usize, Vec<f32>)],
        canonical_init: &dyn Fn(usize) -> Vec<f32>,
        step_count: u64,
        tags: TagSpace,
    ) -> Result<ReshardReport, CommError> {
        let _span = self.telemetry.span(Phase::WeightComm);
        assert_eq!(old_placement.ranks(), self.nodes(), "old placement rank count mismatch");
        assert_eq!(ctx.rank(), self.my_phys(), "re-shard on another rank's optimizer");
        let fallback = Fallback { old_placement, local_class_weights, canonical_init };
        let classes: Vec<usize> = (0..self.shards.len()).collect();
        let old =
            Geometry { view: &self.view, owners: &self.owners, param_count: self.param_count };
        let new = Geometry { view: new_view, owners: &Owners::World, ..old };
        let fallback = Some(&fallback);
        let report = exchange(
            ctx,
            old,
            new,
            &classes,
            &mut self.shards,
            fallback,
            self.adam,
            step_count,
            tags,
        )?;
        self.owners = Owners::World;
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
        let mut shards: Vec<AdamShard> = (0..expert_classes)
            .map(|_| AdamShard::from_parts(adam, 0, Vec::new(), Vec::new(), Vec::new(), step_count))
            .collect();
        let classes: Vec<usize> = (0..expert_classes).collect();
        let old = Geometry { view: old_view, owners: &Owners::World, param_count };
        let new = Geometry { view: new_view, ..old };
        let report = exchange(ctx, old, new, &classes, &mut shards, None, adam, step_count, tags)?;
        let lrank = new_view.logical_of(me).expect("the exchange checked membership");
        Ok((
            Self {
                view: new_view.clone(),
                lrank,
                owners: Owners::World,
                adam,
                param_count,
                shards,
                telemetry: TelemetryHandle::disabled(),
            },
            report,
        ))
    }

    /// Moves this rank's optimizer state onto `new_placement`'s owner groups
    /// — the coupled migration FlexMoE pays on a re-placement — through the
    /// plan and exchange a membership change runs, over the same view. Every
    /// old owner is alive, so each acquired piece arrives as fp32
    /// `[master | m | v]` ([`ReshardReport::transferred_params`], 12 B/param).
    ///
    /// A class whose chunks did not move is not touched; it counts as kept.
    /// World ownership ignores the placement, so a SYMI optimizer's `follow`
    /// builds no plan, copies nothing and sends no byte. Call it on every
    /// member after the weight scatter to `new_placement`, which reads the
    /// old owners' chunks; its bytes are attributed to [`Phase::Rebalance`].
    pub fn follow(
        &mut self,
        ctx: &mut RankCtx,
        new_placement: &ExpertPlacement,
        tags: TagSpace,
    ) -> Result<ReshardReport, CommError> {
        let _span = self.telemetry.span(Phase::Rebalance);
        let n = self.nodes();
        assert_eq!(new_placement.ranks(), n, "placement rank count mismatch");
        let owners = match self.owners {
            Owners::World => Owners::World,
            Owners::Hosts(_) => Owners::hosts_of(new_placement),
        };
        let old =
            Geometry { view: &self.view, owners: &self.owners, param_count: self.param_count };
        let new = Geometry { owners: &owners, ..old };
        let moved = |class: usize| (0..n).any(|l| old.chunk(class, l) != new.chunk(class, l));
        let e = self.shards.len();
        let kept: usize = (0..e)
            .filter(|&class| !moved(class))
            .map(|class| old.chunk(class, self.lrank))
            .map(|(s, t)| t - s)
            .sum();
        let classes: Vec<usize> = (0..e).filter(|&class| moved(class)).collect();
        let mut report = ReshardReport::default();
        if !classes.is_empty() {
            let t = self.adam_step_count();
            report = exchange(ctx, old, new, &classes, &mut self.shards, None, self.adam, t, tags)?;
        }
        report.kept_params += kept as u64;
        self.owners = owners;
        Ok(report)
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
            let (a, b) = opt.shard_range(0);
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
            let (a, b) = opt.shard_range(0);
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
    fn host_group_owners_partition_each_class_over_its_hosts() {
        // DeepSpeed's stripe, 4 classes on 4 ranks × 2 slots: each class's
        // two hosts own half of it each; every other rank owns nothing.
        let placement = ExpertPlacement::striped(4, 4, 2);
        let params: Vec<Vec<f32>> = (0..4).map(|_| vec![0.0f32; 101]).collect();
        let opts: Vec<SymiOptimizer> = (0..4)
            .map(|rank| {
                let owners = Owners::hosts_of(&placement);
                SymiOptimizer::with_view(
                    MembershipView::full(4),
                    rank,
                    owners,
                    AdamConfig::default(),
                    &params,
                )
            })
            .collect();
        for class in 0..4 {
            let hosts = placement.host_ranks(class);
            let mut covered = [false; 101];
            for (rank, opt) in opts.iter().enumerate() {
                let (a, b) = opt.shard_range(class);
                if !hosts.contains(&rank) {
                    assert_eq!(a, b, "rank {rank} does not host class {class}");
                }
                for c in &mut covered[a..b] {
                    assert!(!*c, "class {class} doubly owned");
                    *c = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "class {class} has unowned parameters");
        }
        // s·16P/r per rank, as §3.1's 16PE/N at uniform replication (±1).
        for opt in &opts {
            assert!(opt.state_bytes().abs_diff(4 * 101 * 16 / 4) <= 2 * 16);
        }
    }

    #[test]
    fn shard_state_round_trips_through_export_import() {
        let params: Vec<Vec<f32>> = (0..2).map(|c| vec![c as f32 + 0.5; 40]).collect();
        let mut opt = SymiOptimizer::new(1, 4, AdamConfig::default(), &params);
        let grads: Vec<Vec<f32>> =
            (0..2).map(|c| vec![0.1f32; opt.shard_range(c).1 - opt.shard_range(c).0]).collect();
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
                        Owners::World,
                        AdamConfig::default(),
                        &params,
                    );
                    // Three Adam steps make master, m and v all nonzero.
                    for s in 0..3usize {
                        let (a, b) = opt.shard_range(0);
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
                            3,
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

    /// World ownership over `view`, at `P` parameters per class.
    fn world(view: &MembershipView, param_count: usize) -> Geometry<'_> {
        static WORLD: Owners = Owners::World;
        Geometry { view, owners: &WORLD, param_count }
    }

    /// Checks that the plan for `old → new` tiles every new chunk of every
    /// class exactly once and sources each piece by the three-way rule.
    fn assert_plan_tiles_and_follows_the_source_rule(
        old: Geometry,
        new: Geometry,
        old_placement: Option<&ExpertPlacement>,
    ) {
        let plan = reshard_plan(old, new, old_placement, &[0, 1, 2, 3]);
        for class in 0..4 {
            for dl in 0..new.view.size() {
                let dst = new.view.physical_of(dl);
                // Kept overlap (empty for the joiner) ∪ acquired pieces
                // must tile the new chunk exactly once.
                let (ns, ne) = new.chunk(class, dl);
                let (os, oe) = old.chunk_of(class, dst);
                let mut covered: Vec<bool> = (ns..ne).map(|i| i >= os && i < oe).collect();
                for pc in plan.iter().filter(|pc| pc.class == class && pc.dst == dst) {
                    let owner_l = (0..old.view.size())
                        .find(|&l| {
                            let (cs, ce) = old.chunk(class, l);
                            pc.start >= cs && pc.end <= ce
                        })
                        .expect("a piece lies inside one old chunk");
                    let owner = old.view.physical_of(owner_l);
                    // The three-way rule: live owner, else the lowest
                    // surviving replica host, else re-init.
                    let expected = if new.view.is_alive(owner) {
                        PieceSource::Owner { src: owner }
                    } else {
                        old_placement
                            .expect("only the shrink loses an owner")
                            .host_ranks(class)
                            .iter()
                            .map(|&l| old.view.physical_of(l))
                            .filter(|&r| new.view.is_alive(r))
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
        assert_plan_tiles_and_follows_the_source_rule(world(&partial, p), world(&grown, p), None);
    }

    #[test]
    fn reshard_plan_covers_exactly_the_acquired_segments() {
        let p = 21usize;
        // 4 → 3: uniform placement of 4 classes on 4 ranks × 2 slots hosts
        // class c only on rank c, so rank 2's death orphans class 2.
        let full = MembershipView::full(4);
        let shrunk = full.without(&[2]);
        let placement = ExpertPlacement::uniform(4, 4, 2);
        let (old, new) = (world(&full, p), world(&shrunk, p));
        assert_plan_tiles_and_follows_the_source_rule(old, new, Some(&placement));
        // The shrink reaches every rule: rank 0's segment from live rank 1
        // transfers, rank 2's old chunk comes from the class's replica, and
        // the orphan's is re-initialized — exactly rank 2's old chunk.
        let plan = reshard_plan(old, new, Some(&placement), &[0, 1, 2, 3]);
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

    /// `(N, A, B)` placement changes of 4 classes on which coupled state
    /// must follow its hosts. The first has a class of each kind: class 0's
    /// host group shrinks ({0, 1} → {0}), class 1's shifts ({2} → {1}),
    /// class 2's grows ({3} → {2, 3}) and class 3's stays ({4}). The second
    /// leaves DeepSpeed's non-contiguous stripe for a contiguous layout.
    fn placement_pairs() -> [(usize, ExpertPlacement, ExpertPlacement); 2] {
        [
            (
                5,
                ExpertPlacement::from_counts(&[2, 1, 1, 1], 1),
                ExpertPlacement::from_counts(&[1, 1, 2, 1], 1),
            ),
            (4, ExpertPlacement::striped(4, 4, 2), ExpertPlacement::from_counts(&[3, 1, 3, 1], 2)),
        ]
    }

    /// Concatenates one class's shards in offset order, checking they tile
    /// `[0, param_count)`: the class's global `[master | m | v]`.
    fn reassemble(mut shards: Vec<&ShardState>, param_count: usize) -> [Vec<f32>; 3] {
        shards.retain(|s| !s.is_empty());
        shards.sort_by_key(|s| s.offset);
        let mut whole: [Vec<f32>; 3] = Default::default();
        for s in shards {
            assert_eq!(s.offset, whole[0].len(), "shards must tile the class");
            whole[0].extend_from_slice(&s.master);
            whole[1].extend_from_slice(&s.m);
            whole[2].extend_from_slice(&s.v);
        }
        assert_eq!(whole[0].len(), param_count, "shards must cover the class");
        whole
    }

    #[test]
    fn owner_change_plans_tile_and_follow_the_source_rule() {
        let p = 23usize;
        for (n, a, b) in placement_pairs() {
            let view = MembershipView::full(n);
            let (from, to) = (Owners::hosts_of(&a), Owners::hosts_of(&b));
            let old = Geometry { view: &view, owners: &from, param_count: p };
            let new = Geometry { owners: &to, ..old };
            assert_plan_tiles_and_follows_the_source_rule(old, new, None);
        }
    }

    #[test]
    fn follow_migrates_the_coupled_state_losslessly() {
        use symi_collectives::{Cluster, ClusterSpec};
        const P: usize = 23; // indivisible by every group size here
        const E: usize = 4;
        const STEPS: u64 = 3;
        let params: Vec<Vec<f32>> =
            (0..E).map(|c| (0..P).map(|i| (c * P + i) as f32 * 0.01).collect()).collect();
        for (n, a, b) in placement_pairs() {
            let (results, traffic) = Cluster::run(ClusterSpec::flat(n), |ctx| {
                let adam = AdamConfig::default();
                let mut opt = SymiOptimizer::host_sharded(ctx.rank(), n, adam, &a, &params);
                // Nonzero gradients make master, m and v all differ from
                // their initial values.
                for s in 0..STEPS as usize {
                    let grads: Vec<Vec<f32>> = (0..E)
                        .map(|c| {
                            let (lo, hi) = opt.shard_range(c);
                            (lo..hi).map(|i| ((c + 1) * (i + 1) * (s + 1)) as f32 * 1e-3).collect()
                        })
                        .collect();
                    let _ = opt.step(&grads);
                }
                let before = opt.export_shard_states();
                let report = opt.follow(ctx, &b, TagSpace::new(0, 9)).expect("follow");
                let ranges: Vec<(usize, usize)> = (0..E).map(|c| opt.shard_range(c)).collect();
                (before, opt.export_shard_states(), report, ranges)
            });
            let transferred: u64 = results.iter().map(|r| r.2.transferred_params).sum();
            assert!(transferred > 0, "the pair must move some state");
            assert_eq!(
                traffic.total_bytes(),
                12 * transferred,
                "only the migration is on the wire"
            );
            let to = Owners::hosts_of(&b);
            for (rank, (_, after, report, ranges)) in results.iter().enumerate() {
                let new_len: usize = ranges.iter().map(|(s, t)| t - s).sum();
                assert_eq!(report.kept_params + report.transferred_params, new_len as u64);
                assert_eq!(report.reseeded_params, 0, "rank {rank}: every owner is alive");
                for (class, shard) in after.iter().enumerate() {
                    assert_eq!(
                        ranges[class],
                        to.chunk(class, rank, n, P),
                        "rank {rank} class {class}"
                    );
                    assert_eq!(shard.t, STEPS, "rank {rank} class {class}: Adam step carried");
                }
            }
            for class in 0..E {
                let before = reassemble(results.iter().map(|r| &r.0[class]).collect(), P);
                let after = reassemble(results.iter().map(|r| &r.1[class]).collect(), P);
                assert!(before[1].iter().all(|&m| m != 0.0), "class {class}: moments must bite");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for (field, (x, y)) in ["master", "m", "v"].iter().zip(before.iter().zip(&after)) {
                    assert_eq!(bits(x), bits(y), "{n} ranks, class {class}: {field} changed");
                }
            }
        }
    }

    #[test]
    fn world_owned_follow_builds_no_plan_and_sends_nothing() {
        use symi_collectives::{Cluster, ClusterSpec};
        let params: Vec<Vec<f32>> = (0..4).map(|c| vec![c as f32; 23]).collect();
        for (n, _, b) in placement_pairs() {
            let (results, traffic) = Cluster::run(ClusterSpec::flat(n), |ctx| {
                let mut opt = SymiOptimizer::new(ctx.rank(), n, AdamConfig::default(), &params);
                let before = opt.export_shard_states();
                let report = opt.follow(ctx, &b, TagSpace::new(0, 9)).expect("follow");
                let chunks: usize = (0..4).map(|c| opt.shard_range(c)).map(|(s, t)| t - s).sum();
                (before == opt.export_shard_states(), report, chunks)
            });
            assert_eq!(traffic.total_bytes(), 0, "SYMI's state never follows a placement");
            for (unchanged, report, chunks) in results {
                assert!(unchanged);
                let kept = ReshardReport { kept_params: chunks as u64, ..Default::default() };
                assert_eq!(report, kept);
            }
        }
    }
}
