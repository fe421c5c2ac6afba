//! The distributed SYMI MoE-layer engine: one instance per rank, executing
//! the full per-iteration pipeline of Figure 4 over real message-passing
//! collectives.
//!
//! Per iteration (numbers = the paper's step labels):
//!
//! 1. **Route** the rank's local tokens and ① all-reduce the per-class
//!    token counts (a tensor with one element per class — negligible cost)
//!    into the Layer Metadata Store.
//! 2. ② Enforce per-slot capacity (each slot's budget split evenly over
//!    the sender ranks) and load-balance surviving tokens across the class's
//!    replica slots, then dispatch via all-to-all.
//! 3. Run each hosted class's expert on the rows of all its local slots,
//!    return outputs via the reverse all-to-all, combine gated outputs, and
//!    evaluate the loss.
//! 4. ③ Backward through the experts and sum replica gradients (§4.1)
//!    over each class's host ranks — the contiguous groups of §4.2 —
//!    reduced onto the ranges Algorithm 2 will read from each host.
//! 5. ④⑤ Collect gradient shards to the statically-sharded optimizer
//!    (Algorithm 2), ⑦ step Adam, ⑥ ask the placement policy for the next
//!    placement (Algorithm 1 from the metadata store, for SYMI), and ⑧
//!    scatter updated weight shards according to the **new** placement —
//!    materializing the rebalance for free. Optimizer state owned by the
//!    hosts (the baselines) then follows the new placement.
//!
//! The unit of expert execution is the hosted *class*, not the slot, and so
//! is the unit of expert memory: a rank keeps one [`ExpertFfn`] — one weight
//! copy and one flat `[W1 | b1 | W2 | b2]` gradient, both binary16 as §3.1
//! has them (the gradient a [`ScaledHalf`](symi_tensor::ScaledHalf) under
//! one exponent) — per class it hosts, allocated when a placement first puts
//! that many classes on it, and the class's co-located slots are only its
//! capacity (§3.4) and its share of the dispatch. §4.1's intra-rank step
//! is therefore backward's own accumulation over the merged rows, and steps
//! 4–5 run on that one buffer: it is what backward writes, what the
//! reduce and the collect send read-only views of, and what Adam reads
//! this rank's own shard out of. Nothing zeroes, flattens, copies or writes
//! it on the way, until the next backward (DESIGN.md, "Gradient path in
//! place").
//!
//! The iteration is one straight line with no schedule to choose. Its
//! placement-independent middle — routing, and everything from the dispatch
//! all-to-all to the per-class backward — is [`crate::token_path`]; what is
//! written here is what the paper's systems do around it. They differ in
//! two independent choices, both made at construction
//! ([`MoeLayerEngine::build`]): the [`PlacementPolicy`] that picks each next
//! placement, and whether each class's optimizer state is sharded over
//! every rank or over the class's host ranks ([`Owners`]), where it follows
//! the placement ([`SymiOptimizer::follow`]). SYMI is Algorithm 1 over
//! world-owned state; DeepSpeed a placement that never moves over
//! host-owned state; FlexMoE an interval policy over host-owned state.
//!
//! The engine trains the expert MLPs against a caller-supplied regression
//! target (the surrounding dense transformer is orthogonal to SYMI's
//! contribution and is exercised by the functional trainer in
//! `symi-model`; the integration suite cross-checks the two).

use crate::metadata::LayerMetadataStore;
use crate::optimizer::{
    ClassGrad, GradShard, Owners, Partials, ReshardReport, ShardState, SymiOptimizer, WeightSends,
};
use crate::scheduler::{supports_world, SymiPolicy};
use crate::token_path::{route, Routed, TokenBuffers, TokenPath};
use crate::ExpertPlacement;
use std::time::Instant;
use symi_collectives::{CommError, MembershipView, RankCtx, TagSpace, WirePhase, RECOVERY_LAYER};
use symi_model::expert::{
    copy_overlap, init_params_in_blocks, init_params_range, param_count, ExpertFfn, INIT_BLOCK,
};
use symi_model::PlacementPolicy;
use symi_telemetry::{Phase, TelemetryHandle};
use symi_tensor::half::encode;
use symi_tensor::rng::StdRng;
use symi_tensor::{init, AdamConfig, HalfMatrix, Matrix};

/// Engine configuration (one MoE layer).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    pub d_model: usize,
    pub d_ff: usize,
    pub expert_classes: usize,
    pub slots_per_rank: usize,
    /// Tokens one expert slot can absorb per iteration (§3.4).
    pub slot_capacity: usize,
    pub adam: AdamConfig,
    pub seed: u64,
    /// Distinguishes the message tag space of multiple engines (one per
    /// transformer layer) sharing the same ranks. Must fit the structured
    /// tag's 6-bit layer field *below* the reserved recovery plane
    /// (< [`RECOVERY_LAYER`]).
    pub layer_id: usize,
}

impl EngineConfig {
    pub fn total_slots(&self, nodes: usize) -> usize {
        self.slots_per_rank * nodes
    }
}

/// Statistics from one engine iteration, identical on every rank.
#[derive(Clone, Debug)]
pub struct IterStats {
    /// Mean squared error of the gated expert outputs vs the targets
    /// (global mean over tokens). On a `degraded` iteration the advisory
    /// exchange that aggregates it may have starved, leaving a rank-local
    /// value.
    pub loss: f32,
    /// Globally aggregated per-class popularity.
    pub popularity: Vec<u64>,
    pub survived: usize,
    pub dropped: usize,
    /// Globally aggregated per-class kept assignments (≤ popularity; the
    /// difference is the class's drop count).
    pub kept_per_class: Vec<u64>,
    /// Replica counts used this iteration.
    pub replicas: Vec<usize>,
    /// Slots whose resident class changed in the placement computed for the
    /// *next* iteration (the rebalance SYMI materializes for free, and a
    /// host-owned optimizer migrates its state for).
    pub placement_churn: usize,
    /// Whether this iteration degraded gracefully: a popularity or stats
    /// all-reduce starved, so the engine reused the previous placement (a
    /// correct, merely-stale schedule per §3.4) instead of aborting. When
    /// set, `popularity`/`survived`/`dropped`/`kept_per_class` may be stale
    /// or rank-local — advisory only.
    pub degraded: bool,
}

/// What one successful [`MoeLayerEngine::recover`] call did, identical on
/// every survivor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Membership epoch agreed by the survivors (strictly increases).
    pub membership_epoch: u64,
    /// Surviving world size (`old_world − |dead_ranks|`).
    pub world_size: usize,
    /// Physical ranks declared dead by this agreement round.
    pub dead_ranks: Vec<usize>,
    /// First iteration the shrunk world will run. The iteration in flight
    /// when the failure hit is skipped, never re-run.
    pub resume_iteration: u64,
    /// Stale messages purged from the mailbox before resuming.
    pub stale_discarded: u64,
    /// Optimizer re-shard accounting: kept, transferred from live owners,
    /// and reseeded (of which reinitialized) where the owner died.
    pub reshard: ReshardReport,
}

/// What one successful scale-out did — identical on every member of the
/// grown world, survivors ([`MoeLayerEngine::admit`]) and joiner
/// ([`MoeLayerEngine::join`]) alike.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinStats {
    /// Membership epoch agreed by the grown world (strictly increases).
    pub membership_epoch: u64,
    /// Grown world size (`old_world + 1`).
    pub world_size: usize,
    /// Physical rank admitted by this agreement round.
    pub joiner: usize,
    /// First iteration the grown world will run. A join happens at a clean
    /// iteration boundary, so unlike recovery nothing is skipped: this is
    /// the iteration the survivors were about to run anyway.
    pub resume_iteration: u64,
    /// Stale messages purged from the mailbox before resuming.
    pub stale_discarded: u64,
    /// Optimizer re-shard accounting. On a grow, `reinitialized_params`
    /// and `reseeded_params` are always 0 and `transferred_params` counts
    /// the fp32 Adam slices moved to their new owners moments-and-all.
    pub reshard: ReshardReport,
}

/// A rank's full training state: enough to rebuild a bit-identical engine
/// on a fresh cluster via [`MoeLayerEngine::from_snapshot`]. Used by the
/// recovery oracle tests and as the natural checkpoint payload.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    pub iteration: u64,
    pub world_size: usize,
    pub logical_rank: usize,
    /// Per-class replica counts of the active placement.
    pub replica_counts: Vec<usize>,
    /// Latest globally-agreed popularity, if any iteration completed.
    pub popularity: Option<Vec<u64>>,
    /// This rank's fp32 optimizer shards (one per expert class).
    pub shards: Vec<ShardState>,
}

/// Sender-side capacity enforcement + replica load balancing (§3.4).
///
/// Each slot absorbs at most `slot_capacity` tokens per iteration, and the
/// budget is split deterministically over sender ranks (`slot_capacity / n`
/// each, remainder rotated across ranks by slot index so no rank
/// systematically wins the leftovers). A token starts at its class's slot
/// `gid % replicas` (the router extension of §3.2 step 2) and linearly
/// probes the class's other slots when that slot's budget is exhausted;
/// only when every replica is full is the token dropped.
///
/// This is a per-*slot* cap: the previous per-class quota
/// (`slot_capacity × replicas` split over ranks) let `gid % replicas`
/// collisions oversubscribe one slot far past `slot_capacity` while its
/// siblings idled.
///
/// Returns `(kept local token ids, their global slots, taken per class)`.
pub fn assign_token_slots(
    assignment: &[usize],
    placement: &ExpertPlacement,
    slot_capacity: usize,
    rank: usize,
    rank_token_offset: usize,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = placement.ranks();
    let e = placement.replica_counts().len();
    let mut slot_taken = vec![0usize; placement.total_slots()];
    let share =
        |slot: usize| slot_capacity / n + usize::from((rank + slot) % n < slot_capacity % n);
    let mut taken = vec![0usize; e];
    let mut kept = Vec::with_capacity(assignment.len());
    let mut kept_slot = Vec::with_capacity(assignment.len());
    let slots_of_class: Vec<Vec<usize>> = (0..e).map(|c| placement.slots_of_class(c)).collect();
    for (t, &class) in assignment.iter().enumerate() {
        let class_slots = &slots_of_class[class];
        let start = (rank_token_offset + t) % class_slots.len();
        let chosen = (0..class_slots.len())
            .map(|probe| class_slots[(start + probe) % class_slots.len()])
            .find(|&slot| slot_taken[slot] < share(slot));
        if let Some(slot) = chosen {
            slot_taken[slot] += 1;
            taken[class] += 1;
            kept.push(t);
            kept_slot.push(slot);
        }
    }
    (kept, kept_slot, taken)
}

/// Folds the agreement payloads of a membership change — one format for
/// every change, `[completed iterations, Adam step, popularity length,
/// popularity…]`, indexed by physical rank: the completed iteration and the
/// Adam step are the maxima, and the freshest popularity wins (ties to the
/// lowest physical rank, so every member picks the same). A joiner's
/// `[0, 0, 0]` moves none of the three.
fn fold_payloads(payloads: &[Option<Vec<u64>>]) -> (u64, u64, Option<Vec<u64>>) {
    let mut completed = 0u64;
    let mut adam_t = 0u64;
    let mut best: Option<(u64, Vec<u64>)> = None;
    for p in payloads.iter().flatten() {
        let it = p[0];
        completed = completed.max(it);
        adam_t = adam_t.max(p[1]);
        let len = p[2] as usize;
        debug_assert!(p.len() >= 3 + len, "malformed agreement payload");
        if len > 0 && best.as_ref().is_none_or(|(bi, _)| it > *bi) {
            best = Some((it, p[3..3 + len].to_vec()));
        }
    }
    (completed, adam_t, best.map(|(_, pop)| pop))
}

/// Which membership change [`MoeLayerEngine::transition`] completes.
#[derive(Clone, Copy)]
enum Change<'a> {
    /// A shrink after a rank death: the aborted iteration is skipped.
    Recovery,
    /// A grow, on a member: it brings its shards to the re-shard.
    Admission,
    /// A grow, on the joiner: it held nothing of `old_view`.
    Arrival { old_view: &'a MembershipView },
}

/// Per-rank SYMI engine for one MoE layer.
///
/// All internal geometry (placement, sharding, dispatch) runs over dense
/// **logical** ranks `0..view.size()`; physical ranks appear only at the
/// wire. On the initial full-world view the two coincide, so the healthy
/// path is bit-identical to the pre-elastic engine. After a permanent rank
/// loss, [`MoeLayerEngine::recover`] shrinks the view and every downstream
/// structure with it; [`MoeLayerEngine::admit`] and [`MoeLayerEngine::join`]
/// grow it back.
pub struct MoeLayerEngine {
    cfg: EngineConfig,
    /// Agreed cluster membership this engine's geometry is built over.
    view: MembershipView,
    /// This rank's logical rank within `view`.
    lrank: usize,
    /// What the reduce left of each class this rank hosted in the last
    /// iteration (`received[g]` the `g`-th of `classes_on_rank` of the
    /// placement it ran under; any past those released): its own gradient
    /// and the peers' views.
    /// Kept until the top of the next iteration, so the served-range sums
    /// can be recomputed ([`MoeLayerEngine::hosted_grads`]), and released
    /// there, before the first collective — so a peer's next backward finds
    /// its gradient unshared.
    received: Vec<Partials>,
    /// Expert instances: `experts[g]` executes the `g`-th class of
    /// `placement.classes_on_rank`, for all of that class's local slots.
    /// There are as many as the most distinct classes of any placement this
    /// rank has loaded ([`MoeLayerEngine::grow_experts`]); those past the
    /// current ones keep their memory for the next placement that spreads
    /// this rank as wide. W1 and W2 are binary16, the bits the weight
    /// scatter delivers.
    experts: Vec<ExpertFfn<HalfMatrix>>,
    /// The token path's persistent matrices and payload buffers.
    tokens: TokenBuffers,
    pub placement: ExpertPlacement,
    /// Picks each next placement's replica counts, and hears of every
    /// membership change.
    policy: Box<dyn PlacementPolicy>,
    optimizer: SymiOptimizer,
    pub metadata: LayerMetadataStore,
    /// Shared (replicated, frozen) router weights — router training is
    /// plain data parallelism and orthogonal to the mechanism under test.
    router_w: Matrix,
    iteration: u64,
    /// Iterations that fell back to the previous placement because a
    /// degradable collective (popularity/stats sync) starved.
    degraded_iterations: u64,
    /// Cumulative NaN router probabilities observed (exported as the
    /// `router.nan_logits` gauge). A NaN never panics the argmax — NaN
    /// sorts last — but it signals upstream numeric trouble loudly.
    nan_logits: u64,
    telemetry: TelemetryHandle,
}

impl MoeLayerEngine {
    /// The seed of `class`'s canonical initial weights
    /// ([`init_params_in_blocks`]) — deterministic in the class id,
    /// identical on every rank, and the re-init source of last resort during
    /// elastic recovery.
    fn class_seed(cfg: &EngineConfig, class: usize) -> u64 {
        cfg.seed ^ (0xe0 + class as u64)
    }

    /// SYMI's engine over the full `nodes`-rank world: a uniform start,
    /// Algorithm 1 picking every next placement, and every rank owning a
    /// `1/N` chunk of every class's optimizer state.
    pub fn new(rank: usize, nodes: usize, cfg: EngineConfig) -> Self {
        let placement = ExpertPlacement::uniform(cfg.expert_classes, nodes, cfg.slots_per_rank);
        let policy = Box::new(SymiPolicy { total_slots: cfg.total_slots(nodes) });
        Self::build(rank, MembershipView::full(nodes), cfg, placement, Owners::World, policy)
    }

    /// The engine constructor: a freshly initialized member of `view` at
    /// logical rank `lrank`, iteration 0, that starts from `placement`,
    /// keeps each class's optimizer state on `owners`, and asks `policy`
    /// for every next placement. The two axes are independent (§3.1): SYMI
    /// is Algorithm 1 ([`SymiPolicy`]) over [`Owners::World`]; DeepSpeed
    /// [`ExpertPlacement::striped`] under a uniform policy, which never
    /// moves it, over [`Owners::hosts_of`] the placement; FlexMoE a uniform
    /// start under [`crate::FlexMoePolicy`] over the hosts, whose state
    /// follows each re-placement ([`SymiOptimizer::follow`]). A view with
    /// standby ranks (`MembershipView::partial`) leaves them to a later
    /// [`MoeLayerEngine::join`].
    ///
    /// Every optimizer chunk `owners` gives this rank holds the canonical
    /// class weights, and every hosted class's expert their binary16 image
    /// — the bits [`MoeLayerEngine::materialize_slots`] scatters from those
    /// masters. Each class's canonical weights stream once, a block at a
    /// time ([`init_params_in_blocks`]), into this rank's chunk of the Adam
    /// master and, when the class is hosted here, into its expert: no class
    /// exists whole in f32, and the construction's transient memory is one
    /// block and its binary16 image.
    ///
    /// # Panics
    /// Panics when `placement` does not span `view`'s members with
    /// `cfg`'s classes and slots, or when `owners` names host groups other
    /// than `placement`'s. Host-owned engines refuse the elastic and
    /// snapshot paths ([`MoeLayerEngine::recover`], [`MoeLayerEngine::admit`],
    /// [`MoeLayerEngine::snapshot`]).
    pub fn build(
        lrank: usize,
        view: MembershipView,
        cfg: EngineConfig,
        placement: ExpertPlacement,
        owners: Owners,
        policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        assert_eq!(placement.ranks(), view.size(), "placement rank count mismatch");
        assert_eq!(placement.slots_per_rank(), cfg.slots_per_rank, "placement slot count mismatch");
        assert_eq!(placement.expert_classes(), cfg.expert_classes, "placement class mismatch");
        assert!(
            owners == Owners::World || owners == Owners::hosts_of(&placement),
            "host owners disagree with the placement's host groups"
        );
        let mut experts = Vec::new();
        Self::grow_experts(&mut experts, &cfg, placement.hosted_count(lrank));
        let params = param_count(cfg.d_model, cfg.d_ff);
        let mut half = vec![0u16; INIT_BLOCK.min(params)];
        let source = |class: usize, start: usize, master: &mut [f32]| {
            let expert = placement.hosted_index(lrank, class);
            if master.is_empty() && expert.is_none() {
                return;
            }
            let seed = Self::class_seed(&cfg, class);
            init_params_in_blocks(cfg.d_model, cfg.d_ff, seed, |offset, block| {
                copy_overlap(offset, block, start, master);
                if let Some(g) = expert {
                    let half = &mut half[..block.len()];
                    encode(block, half);
                    experts[g].load_f16_at(offset, half);
                }
            });
        };
        let (classes, adam) = (cfg.expert_classes, cfg.adam);
        let optimizer =
            SymiOptimizer::with_view(view.clone(), lrank, owners, adam, classes, params, source);
        Self { experts, ..Self::assemble(cfg, view, lrank, placement, policy, optimizer) }
    }

    /// The one struct literal every constructor goes through: no slots yet,
    /// an empty metadata store, iteration 0, and the shared router.
    fn assemble(
        cfg: EngineConfig,
        view: MembershipView,
        lrank: usize,
        placement: ExpertPlacement,
        policy: Box<dyn PlacementPolicy>,
        optimizer: SymiOptimizer,
    ) -> Self {
        assert!(
            cfg.layer_id < RECOVERY_LAYER,
            "layer {} collides with the recovery tag plane",
            cfg.layer_id
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x70c7);
        let router_w = init::normal(cfg.d_model, cfg.expert_classes, 0.3, &mut rng);
        Self {
            cfg,
            view,
            lrank,
            received: Vec::new(),
            experts: Vec::new(),
            tokens: TokenBuffers::new(cfg.slots_per_rank, cfg.d_model),
            placement,
            policy,
            optimizer,
            metadata: LayerMetadataStore::new(1, 64),
            router_w,
            iteration: 0,
            degraded_iterations: 0,
            nan_logits: 0,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// How many iterations so far degraded to the previous placement
    /// instead of aborting on a starved popularity/stats collective.
    pub fn degraded_iterations(&self) -> u64 {
        self.degraded_iterations
    }

    /// Cumulative NaN router probabilities observed (the `router.nan_logits`
    /// gauge). Nonzero means something upstream produced inf/NaN logits;
    /// routing survived by sorting NaN last.
    pub fn nan_logits(&self) -> u64 {
        self.nan_logits
    }

    /// The membership view the engine's geometry is currently built over.
    pub fn membership(&self) -> &MembershipView {
        &self.view
    }

    /// This rank's logical rank within [`MoeLayerEngine::membership`].
    pub fn logical_rank(&self) -> usize {
        self.lrank
    }

    /// Completed-iteration counter (also the next iteration's tag space).
    pub fn iteration_count(&self) -> u64 {
        self.iteration
    }

    /// The configuration this engine was built with. A checkpoint stamps
    /// these fields into its header so a restart against a different
    /// geometry is rejected loudly instead of corrupting the math.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Whether an error is survivable by falling back to stale state: a
    /// starved receive (plain or retry-escalated) can mean a transient
    /// stall somewhere in the cluster, and §3.4's schedule is only an
    /// optimization — running one more iteration on the old placement is
    /// always correct. A dead peer (`PeerGone`) or corrupt wire data
    /// (`LengthMismatch`) is not survivable and still aborts.
    fn is_degradable(e: &CommError) -> bool {
        matches!(e, CommError::RecvTimeout { .. } | CommError::Protocol(_))
    }

    /// The membership and snapshot paths re-shard over the world; a
    /// host-group optimizer ([`Owners::hosts_of`]) stops here, before
    /// anything touches the wire.
    fn refuse_host_group(&self, what: &str) {
        assert!(
            self.optimizer.is_world_owned(),
            "{what}: a host-group optimizer re-shards only onto a new placement, not onto a \
             new membership or from a snapshot yet (ROADMAP item 17)"
        );
    }

    /// Installs this rank's telemetry handle; the iteration pipeline then
    /// times itself under the phase taxonomy, and bytes sent while a span is
    /// open are attributed to that phase by the traffic counters.
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.optimizer.attach_telemetry(handle.clone());
        self.telemetry = handle;
    }

    /// Experts this rank holds memory for: the most distinct classes of any
    /// placement it has loaded, whatever its slot count (testing support).
    pub fn allocated_experts(&self) -> usize {
        self.experts.len()
    }

    /// Flat weights a local slot runs on — its class's one copy on this rank
    /// (testing support).
    pub fn slot_weights(&self, local_slot: usize) -> Vec<f32> {
        let hosted = self.placement.classes_on_rank(self.lrank);
        let expert = hosted.iter().position(|(_, locals)| locals.contains(&local_slot));
        self.experts[expert.expect("a local slot")].flat_params()
    }

    /// The optimizer's fp32 master shard for a class (testing support).
    pub fn master_shard(&self, class: usize) -> &[f32] {
        self.optimizer.master_shard(class)
    }

    /// `dLoss/dy` of the last iteration's gated, combined expert outputs, one
    /// row per local token (testing support: the dense-mixture oracle).
    pub fn loss_grad(&self) -> &Matrix {
        self.tokens.loss_grad()
    }

    /// The flat gradient the last iteration summed for the `hosted`-th
    /// class of the placement it *ran* under (its `classes_on_rank` order;
    /// `placement` has moved on to the next one): backward sums the class's
    /// local slots into one buffer, and §4.1's replica sum over the class's
    /// hosts holds on [`MoeLayerEngine::served_ranges`] — recomputed here
    /// from the kept partials with the fold the collect and the Adam step
    /// run ([`Partials::replica_sum`]); elsewhere it is this rank's own
    /// partial (testing support — the oracles and the finite-difference
    /// probe read it). Before any iteration, the expert's zero gradient.
    pub fn hosted_grads(&mut self, hosted: usize) -> Vec<f32> {
        match self.received.get(hosted).filter(|p| !p.is_released()) {
            Some(partials) => partials.replica_sum(),
            None => self.experts[hosted].grad_values(),
        }
    }

    /// Backward passes on this rank that found a view of their gradient
    /// still alive and wrote a fresh buffer ([`ExpertFfn::grad_fallbacks`]),
    /// over the current experts. 0 in a steady run.
    pub fn grad_buffer_fallbacks(&self) -> u64 {
        self.experts.iter().map(ExpertFfn::grad_fallbacks).sum()
    }

    /// The ranges of `class`'s flat gradient this rank serves to Algorithm
    /// 2's collect under `placement` — where [`MoeLayerEngine::hosted_grads`]
    /// holds the replica sum after an iteration run under it (testing
    /// support).
    pub fn served_ranges(&self, placement: &ExpertPlacement, class: usize) -> Vec<(usize, usize)> {
        self.optimizer.served_ranges(placement, class, self.lrank)
    }

    /// Whether an error is a candidate for **elastic recovery**: a dead
    /// peer, an escalated protocol failure, or a starved receive — the
    /// error classes a permanently-killed rank produces at its survivors.
    /// (Contrast degradation, which retries the old placement on the *same*
    /// world; recovery shrinks the world.)
    pub fn can_recover(err: &CommError) -> bool {
        matches!(
            err,
            CommError::PeerGone { .. } | CommError::Protocol(_) | CommError::RecvTimeout { .. }
        )
    }

    /// This rank's agreement payload, the one format every membership
    /// change exchanges: `[completed iterations, Adam step, popularity
    /// length, popularity…]`.
    fn agreement_payload(&self) -> Vec<u64> {
        let mut payload = vec![self.iteration, self.optimizer.adam_step_count(), 0];
        if let Some(pop) = self.metadata.latest(0) {
            payload[2] = pop.len() as u64;
            payload.extend_from_slice(pop);
        }
        payload
    }

    /// Elastic recovery from a permanent rank loss — the paper's "free
    /// re-placement" property (§3.3) extended to a shrinking world: because
    /// every slot receives fresh weights every iteration anyway, surviving
    /// a dead rank only requires agreeing on who is left and re-running the
    /// same placement + materialization machinery over `N−1` ranks.
    ///
    /// Survivors agree on the dead-rank set and a bumped **membership
    /// epoch** ([`RankCtx::agree_membership`]), and the shrunk world must
    /// still hold every class at the one-replica floor (`supports_world` —
    /// if not, stop loudly). The rest is the `transition` every membership
    /// change shares, with the resume iteration `max(completed) + 1`: the
    /// aborted iteration is *skipped*, never re-run, so its half-delivered
    /// traffic can never alias the resumed protocol. Adam steps it already
    /// took stand: a class with several hosts steps right after its own
    /// reduce, the rest after the collect, so a failure in between leaves
    /// some classes stepped and others not, and differently on different
    /// ranks. The re-shard levels every chunk's step counter to the
    /// furthest member's, so each class steps on from one count. Acquired
    /// optimizer slices whose owner died restart with zeroed moments (the
    /// `reseeded_params` gauge).
    ///
    /// On success the engine is ready for the next [`MoeLayerEngine::iteration`]
    /// call: same classes, fewer slots — degraded capacity, not a dead run.
    ///
    /// # Panics
    /// Panics when the shrunk world cannot host every expert class, when
    /// this rank is evicted by its peers (cluster split), or when the
    /// membership protocol fails to converge.
    pub fn recover(
        &mut self,
        ctx: &mut RankCtx,
        err: &CommError,
    ) -> Result<RecoveryStats, CommError> {
        self.refuse_host_group("recover");
        let me_phys = self.view.physical_of(self.lrank);
        // The peer the error names is a *hint*, not evidence: inside a ring
        // collective this rank may be starving behind a live survivor that
        // is itself stuck on the real corpse. `agree_membership` gives every
        // suspect a full round to answer and trusts only the wire (closed
        // channel / silence through the round budget) to declare death.
        let suspects: Vec<usize> = match err {
            CommError::PeerGone { rank } => vec![*rank],
            CommError::Protocol(f) => vec![f.from],
            CommError::RecvTimeout { from, .. } => vec![*from],
            other => panic!("recover() called on an unrecoverable error: {other:?}"),
        }
        .into_iter()
        .filter(|&r| r != me_phys && self.view.is_alive(r))
        .collect();

        let timeout = ctx.default_membership_timeout();
        let (new_view, payloads) =
            ctx.agree_membership(&self.view, &suspects, &self.agreement_payload(), timeout)?;
        // Namespace every post-agreement message under the new membership
        // generation (stragglers from the aborted epoch are dropped, a
        // later re-join of the same physical rank starts a fresh sequence
        // space), and record the epoch's world bound in the group registry.
        ctx.set_membership_gen(new_view.epoch());
        ctx.groups().register_epoch(new_view.epoch(), new_view.world());
        let dead_ranks: Vec<usize> = (0..self.view.world())
            .filter(|&r| self.view.is_alive(r) && !new_view.is_alive(r))
            .collect();
        let new_n = new_view.size();
        assert!(
            supports_world(self.cfg.expert_classes, self.cfg.slots_per_rank, new_n),
            "rank {me_phys}: {new_n} survivors x {} slots cannot host {} expert classes \
             at the one-replica floor — elastic recovery is not viable",
            self.cfg.slots_per_rank,
            self.cfg.expert_classes,
        );

        let (stale_discarded, reshard) =
            self.transition(ctx, new_view, &payloads, Change::Recovery)?;
        Ok(RecoveryStats {
            membership_epoch: self.view.epoch(),
            world_size: new_n,
            dead_ranks,
            resume_iteration: self.iteration,
            stale_discarded,
            reshard,
        })
    }

    /// The tail every membership change shares once its agreement is in —
    /// [`MoeLayerEngine::recover`], [`MoeLayerEngine::admit`] and
    /// [`MoeLayerEngine::join`] differ only in how they reach `new_view`:
    ///
    /// 1. fold the agreement payloads; the resume iteration is the latest
    ///    completed one, plus one after a recovery (the aborted iteration is
    ///    skipped) and as is after a boundary join (nothing was aborted);
    /// 2. purge everything older from the mailbox
    ///    ([`RankCtx::discard_stale_below`]) — a weight scatter that failed
    ///    half-way is abandoned with it, and step 7 re-materializes the
    ///    slots;
    /// 3. tell the placement policy the new view's `total_slots` and ask it
    ///    for the placement, from the freshest popularity;
    /// 4. re-shard the optimizer over `new_view` through the one exchange
    ///    ([`SymiOptimizer::reshard`] on a member, [`SymiOptimizer::join`]
    ///    on the joiner), every chunk stepping on from the payloads' highest
    ///    Adam step count;
    /// 5. adopt the view; 6. record the popularity; 7. materialize the new
    ///    placement from the re-sharded masters; 8. publish the gauges.
    ///
    /// Returns the stale messages purged and the re-shard's accounting.
    fn transition(
        &mut self,
        ctx: &mut RankCtx,
        new_view: MembershipView,
        payloads: &[Option<Vec<u64>>],
        change: Change,
    ) -> Result<(u64, ReshardReport), CommError> {
        let cfg = self.cfg;
        let me_phys = ctx.rank();
        let (completed, adam_t, popularity) = fold_payloads(payloads);
        let resume_iter = completed + u64::from(matches!(change, Change::Recovery));
        if let Change::Admission = change {
            debug_assert_eq!(self.iteration, resume_iter, "admit must run at a clean boundary");
            debug_assert_eq!(self.optimizer.adam_step_count(), adam_t, "member Adam steps differ");
        }

        let stale_discarded = ctx.discard_stale_below(resume_iter << 5);
        self.release_received(ctx);
        self.received.clear();

        let new_n = new_view.size();
        match change {
            Change::Recovery => self.policy.on_world_shrink(cfg.total_slots(new_n)),
            Change::Admission | Change::Arrival { .. } => {
                self.policy.on_world_grow(cfg.total_slots(new_n))
            }
        }
        let no_signal = vec![0u64; cfg.expert_classes];
        let counts =
            self.policy.next_replicas(0, popularity.as_deref().unwrap_or(&no_signal), resume_iter);
        let new_placement = ExpertPlacement::from_counts(&counts, cfg.slots_per_rank);

        let tags = TagSpace::new(RECOVERY_LAYER, resume_iter);
        let report = match change {
            Change::Arrival { old_view } => {
                let (optimizer, report) = SymiOptimizer::join(
                    ctx,
                    old_view,
                    &new_view,
                    cfg.adam,
                    cfg.expert_classes,
                    self.optimizer.param_count(),
                    adam_t,
                    tags,
                )?;
                self.optimizer = optimizer;
                report
            }
            Change::Recovery | Change::Admission => {
                // The re-shard reads only the segments it re-seeds: from the
                // expert that hosts the class here, or off the canonical
                // stream.
                let (placement, experts, lrank) = (&self.placement, &self.experts, self.lrank);
                let hosted = |class: usize, start: usize, out: &mut [f32]| {
                    let g = placement.hosted_index(lrank, class);
                    experts[g.expect("a replica source hosts the class it serves")]
                        .read_params_at(start, out);
                };
                let canonical = |class: usize, start: usize, out: &mut [f32]| {
                    let seed = Self::class_seed(&cfg, class);
                    init_params_range(cfg.d_model, cfg.d_ff, seed, start, out);
                };
                self.optimizer
                    .reshard(ctx, &new_view, placement, &hosted, &canonical, adam_t, tags)?
            }
        };

        self.lrank = new_view.logical_of(me_phys).expect("agreement keeps the caller alive");
        self.view = new_view;
        self.placement = new_placement;
        self.iteration = resume_iter;
        if let Some(pop) = popularity {
            self.metadata.record(0, pop);
        }
        self.materialize_slots(ctx)?;

        if self.telemetry.is_enabled() {
            let t = &self.telemetry;
            t.gauge("membership_epoch").set(self.view.epoch() as f64);
            t.gauge("world_size").set(new_n as f64);
            t.gauge("reseeded_params").set(report.reseeded_params as f64);
            t.gauge("reinitialized_params").set(report.reinitialized_params as f64);
            t.gauge("transferred_params").set(report.transferred_params as f64);
            match change {
                Change::Recovery => t.counter("recoveries_total").inc(),
                Change::Admission | Change::Arrival { .. } => t.counter("joins_total").inc(),
            }
        }
        Ok((stale_discarded, report))
    }

    /// Drops the views the last iteration kept ([`MoeLayerEngine::received`]).
    fn release_received(&mut self, ctx: &RankCtx) {
        for partials in &mut self.received {
            partials.release(ctx);
        }
    }

    /// Grows `experts` — never shrinks it — to `hosted` of them, the
    /// distinct classes of the placement about to be loaded into them: the
    /// new ones all-zero, each allocated when a placement first puts that
    /// many classes on this rank.
    fn grow_experts(experts: &mut Vec<ExpertFfn<HalfMatrix>>, cfg: &EngineConfig, hosted: usize) {
        let missing = hosted.saturating_sub(experts.len());
        experts.reserve_exact(missing);
        experts.extend((0..missing).map(|_| ExpertFfn::zeros(cfg.d_model, cfg.d_ff)));
    }

    /// Loads every local slot of the current placement with the fp16 image
    /// of the sharded fp32 masters, over the recovery tag plane. Used after
    /// every membership change (the new placement's weights) and after
    /// [`MoeLayerEngine::from_snapshot`] (the oracle side seeds its slots
    /// from the exact restored state the same way, which is what makes the
    /// post-recovery comparison bit-exact).
    pub fn materialize_slots(&mut self, ctx: &mut RankCtx) -> Result<(), CommError> {
        let tags = TagSpace::new(RECOVERY_LAYER, self.iteration);
        // Every chunk of every hosted class is loaded below, so an expert
        // kept from the last placement carries nothing over but its memory;
        // its gradient reads zero until the next backward, as a new one's.
        Self::grow_experts(&mut self.experts, &self.cfg, self.placement.hosted_count(self.lrank));
        self.experts.iter_mut().for_each(ExpertFfn::zero_grad);
        // Each owned master chunk goes where an Adam step would publish it.
        let mut sends = self.optimizer.weight_sends(ctx, &self.placement, tags);
        for class in 0..self.cfg.expert_classes {
            let hosted = self.placement.hosted_index(self.lrank, class);
            let slot = hosted.map(|g| self.experts[g].params_mut());
            self.optimizer.publish_master(class, sends.of_class(class), slot);
        }
        self.optimizer.scatter_weights_into(ctx, &self.placement, sends, tags, &mut self.experts)
    }

    /// The member side of **elastic scale-out** — the inverse of
    /// [`MoeLayerEngine::recover`]: admit a standby physical rank into the
    /// membership and grow every downstream structure with it. Call at a
    /// clean iteration boundary on every current member, paired with
    /// [`MoeLayerEngine::join`] on the joiner.
    ///
    /// The member bootstraps the joiner ([`RankCtx::send_join_bootstrap`]:
    /// it cannot know the current view or epoch on its own), then all
    /// members — joiner included — agree on the grown membership and a
    /// bumped epoch ([`RankCtx::agree_membership`]), whose generation bump
    /// namespaces every later message and whose world bound is registered
    /// so member↔joiner groups resolve. The rest is the shared
    /// `transition`: every old owner is alive, so each shed optimizer slice
    /// moves to its new owner **moments and all** — a join never degrades
    /// optimizer state.
    ///
    /// Because a boundary join aborts nothing, `resume_iteration` is the
    /// iteration the members were about to run anyway — zero degraded
    /// iterations, and the grown cluster is bit-exact with a fresh
    /// `N+1`-rank cluster restored from the post-join snapshots.
    ///
    /// # Panics
    /// Panics if `joiner` is already a member, or if a member died
    /// concurrently (mixed join+death changes must recover first).
    pub fn admit(&mut self, ctx: &mut RankCtx, joiner: usize) -> Result<JoinStats, CommError> {
        self.refuse_host_group("admit");
        assert!(!self.view.is_alive(joiner), "rank {joiner} is already a member");
        ctx.send_join_bootstrap(joiner, &self.view)?;
        let grown = self.view.with_joined(joiner);
        let timeout = ctx.default_membership_timeout();
        let (new_view, payloads) =
            ctx.agree_membership(&grown, &[], &self.agreement_payload(), timeout)?;
        ctx.set_membership_gen(new_view.epoch());
        ctx.groups().register_epoch(new_view.epoch(), new_view.world());
        for r in self.view.survivors() {
            assert!(
                new_view.is_alive(r),
                "rank {r} died during the admission of rank {joiner} — mixed join+death \
                 membership change is unsupported: recover the death first, then admit"
            );
        }
        assert!(new_view.is_alive(joiner), "the agreement evicted the joiner it was admitting");

        let (stale_discarded, reshard) =
            self.transition(ctx, new_view, &payloads, Change::Admission)?;
        Ok(JoinStats {
            membership_epoch: self.view.epoch(),
            world_size: self.view.size(),
            joiner,
            resume_iteration: self.iteration,
            stale_discarded,
            reshard,
        })
    }

    /// The joiner's side of elastic scale-out: blocks (up to `deadline`)
    /// for a member's bootstrap announcing the current view, enters the
    /// grown-membership agreement as a fresh member with no history, and
    /// runs the shared `transition` — its fp32 optimizer shards arrive over
    /// the wire, Adam moments included, and its fp16 slots materialize
    /// through the standard distribute path. Pairs with
    /// [`MoeLayerEngine::admit`] on every current member; on success the
    /// engine is ready for the next collective [`MoeLayerEngine::iteration`].
    pub fn join(
        ctx: &mut RankCtx,
        cfg: EngineConfig,
        deadline: std::time::Duration,
    ) -> Result<(Self, JoinStats), CommError> {
        let me = ctx.rank();
        let (boot_view, first_sender) = ctx.await_join_bootstrap(deadline)?;
        assert!(boot_view.logical_of(me).is_none(), "a joiner must be new to the old view");
        let grown = boot_view.with_joined(me);
        // The agreement commits epoch+1; bump the generation *before*
        // sending the first agreement message so this rank's traffic is
        // never mistaken for a stale incarnation's.
        ctx.set_membership_gen(grown.epoch() + 1);
        // A fresh member has no history: its payload is `[0, 0, 0]`, and the
        // transition replaces all of its state — the optimizer with
        // `SymiOptimizer::join`'s, and the placement with the agreed one,
        // which `materialize_slots` grows its experts to. Until then it
        // holds no optimizer chunk and no expert, and streams no class.
        let lrank = grown.logical_of(me).expect("the grown view holds the joiner");
        let mut policy = SymiPolicy { total_slots: cfg.total_slots(grown.size()) };
        let counts = policy.next_replicas(0, &vec![0; cfg.expert_classes], 0);
        let placement = ExpertPlacement::from_counts(&counts, cfg.slots_per_rank);
        let (classes, params) = (cfg.expert_classes, param_count(cfg.d_model, cfg.d_ff));
        let optimizer = SymiOptimizer::vacant(grown.clone(), lrank, cfg.adam, classes, params, 0);
        let mut engine =
            Self::assemble(cfg, grown.clone(), lrank, placement, Box::new(policy), optimizer);
        let timeout = ctx.default_membership_timeout();
        let (new_view, payloads) =
            ctx.agree_membership(&grown, &[], &engine.agreement_payload(), timeout)?;
        ctx.groups().register_epoch(new_view.epoch(), new_view.world());
        // Every member sent a bootstrap; only the first was consumed.
        let others: Vec<usize> =
            boot_view.survivors().into_iter().filter(|&p| p != first_sender).collect();
        ctx.drain_join_bootstraps(&others)?;

        let (stale_discarded, reshard) = engine.transition(
            ctx,
            new_view,
            &payloads,
            Change::Arrival { old_view: &boot_view },
        )?;
        let stats = JoinStats {
            membership_epoch: engine.view.epoch(),
            world_size: engine.view.size(),
            joiner: me,
            resume_iteration: engine.iteration,
            stale_discarded,
            reshard,
        };
        Ok((engine, stats))
    }

    /// Captures this rank's full training state (snapshot support and the
    /// oracle side of the elastic recovery tests).
    pub fn snapshot(&self) -> EngineSnapshot {
        self.refuse_host_group("snapshot");
        EngineSnapshot {
            iteration: self.iteration,
            world_size: self.view.size(),
            logical_rank: self.lrank,
            replica_counts: self.placement.replica_counts(),
            popularity: self.metadata.latest(0).map(|p| p.to_vec()),
            shards: self.optimizer.export_shard_states(),
        }
    }

    /// Rebuilds an engine from a snapshot on a fresh `world_size`-rank
    /// cluster (logical rank `snap.logical_rank`). The slots are *not* yet
    /// materialized — call [`MoeLayerEngine::materialize_slots`]
    /// collectively before the first iteration.
    pub fn from_snapshot(cfg: EngineConfig, snap: EngineSnapshot) -> Self {
        let view = MembershipView::full(snap.world_size);
        let placement = ExpertPlacement::from_counts(&snap.replica_counts, cfg.slots_per_rank);
        let optimizer = SymiOptimizer::from_shard_states(
            view.clone(),
            snap.logical_rank,
            cfg.adam,
            param_count(cfg.d_model, cfg.d_ff),
            snap.shards,
        );
        let policy = Box::new(SymiPolicy { total_slots: cfg.total_slots(snap.world_size) });
        let mut engine = Self::assemble(cfg, view, snap.logical_rank, placement, policy, optimizer);
        engine.iteration = snap.iteration;
        if let Some(pop) = snap.popularity {
            engine.metadata.record(0, pop);
        }
        engine
    }

    /// Adam step of one class: from `grad`, published into the class's
    /// `sends` and — when the next placement puts the class on this rank,
    /// as its `next`-th hosted class — straight into that expert's
    /// parameters.
    fn step_class(
        optimizer: &mut SymiOptimizer,
        experts: &mut [ExpertFfn<HalfMatrix>],
        class: usize,
        grad: ClassGrad<'_>,
        next: Option<usize>,
        sends: &mut WeightSends,
    ) {
        let slot = next.map(|s| experts[s].params_mut());
        optimizer.step_class(class, grad, sends.of_class(class), slot);
    }

    /// Runs one full training iteration on this rank's token shard.
    ///
    /// `x_local` is `T_loc × d_model`; `target_local` the regression target
    /// of the same shape. All ranks must call collectively with equal
    /// `T_loc`.
    pub fn iteration(
        &mut self,
        ctx: &mut RankCtx,
        x_local: &Matrix,
        target_local: &Matrix,
    ) -> Result<IterStats, CommError> {
        assert_eq!(x_local.cols(), self.cfg.d_model, "input width mismatch");
        assert_eq!(
            (x_local.rows(), x_local.cols()),
            (target_local.rows(), target_local.cols()),
            "target shape mismatch"
        );
        let e = self.cfg.expert_classes;
        let n = self.view.size();
        // Collectives run over the survivor group; on the full view this is
        // exactly the registry's world group. Ring order is group-index
        // (logical) order, so a shrunk world reproduces the same math.
        let world = self.view.group();
        let t_loc = x_local.rows();
        let tele = self.telemetry.clone();
        // Every message of this iteration lives in one structured tag
        // space: (layer | iteration | phase | entity | src) with exclusive
        // bit fields, so no two phases can alias on the wire.
        let tags = TagSpace::new(self.cfg.layer_id, self.iteration);
        // The last iteration's views of the peers' gradients go before the
        // first collective: every peer's next backward comes after it.
        self.release_received(ctx);

        // ---- Step 1: route locally, aggregate popularity globally. ----
        let Routed { assignment, gates, mut popularity, nan_probs } =
            route(x_local, &self.router_w, &mut self.tokens.router_probs, &tele);
        self.nan_logits += nan_probs;
        let mut degraded = false;
        {
            let _span = tele.span(Phase::PopularityAllReduce);
            match ctx.allreduce_u64_sum(
                &world,
                tags.phase_tag(WirePhase::PopularitySync),
                &mut popularity,
            ) {
                Ok(()) => self.metadata.record(0, popularity.clone()),
                Err(e) if Self::is_degradable(&e) => {
                    // Survive the starved all-reduce: the buffer may hold a
                    // partial aggregate, so restore the last *global*
                    // popularity as a consistent stale signal (and leave
                    // the metadata store untouched). Dispatch itself only
                    // needs the local routing + the current placement, so
                    // training proceeds.
                    degraded = true;
                    if let Some(prev) = self.metadata.latest(0) {
                        popularity.copy_from_slice(prev);
                    }
                }
                Err(e) => return Err(e),
            }
        }

        // ---- Step 2: capacity + replica load balancing. ----
        let assign_span = tele.span(Phase::Dispatch);
        let replicas = self.placement.replica_counts();
        let (kept, kept_slot, taken) = assign_token_slots(
            &assignment,
            &self.placement,
            self.cfg.slot_capacity,
            self.lrank,
            self.lrank * t_loc,
        );
        let survived_local = kept.len();
        drop(assign_span);

        // ---- Steps 2–4: dispatch, expert forward, combine, loss, gradient
        // return, expert backward — the same on every placement. The loss
        // scalar is purely advisory, so its all-reduce is deferred into the
        // single trailing advisory exchange (with the stats counts) instead
        // of barriering between the two halves.
        let first_slot = self.lrank * self.cfg.slots_per_rank;
        let placement = &self.placement;
        self.tokens.batches.regroup(|local| placement.class_of_slot(first_slot + local));
        let path = TokenPath {
            group: &world,
            rank: self.lrank,
            tags,
            gates: &gates,
            kept: &kept,
            kept_slot: &kept_slot,
            telemetry: &tele,
        };
        let local_sq =
            path.forward(ctx, x_local, target_local, &mut self.experts, &mut self.tokens)?;
        path.backward(ctx, &mut self.experts, &mut self.tokens)?;

        // The policy places the next iteration before any Adam step runs,
        // so each step publishes straight into the weight scatter's sends
        // and slots; it reads only the popularity synced above. The
        // placement is rebuilt only when its counts change. Every rank of a
        // degraded iteration keeps its placement: each observed the starved
        // popularity sync (the gather-root summed nobody's contribution or
        // the broadcast never arrived), so each skips the rebalance the same
        // way — stale but correct per §3.4. If ranks ever *disagreed*, the
        // sized weight-distribute receives of the diverging placements would
        // starve and escalate loudly; stale placement can never cause silent
        // divergence.
        let rebalance_span = tele.span(Phase::Rebalance);
        let next_placement = if degraded {
            None
        } else {
            let popularity = self.metadata.latest(0).expect("recorded this iteration");
            let counts = self.policy.next_replicas(0, popularity, self.iteration);
            (counts != replicas)
                .then(|| ExpertPlacement::from_counts(&counts, self.cfg.slots_per_rank))
        };
        let placement_churn = next_placement.as_ref().map_or(0, |p| self.placement.diff_slots(p));
        drop(rebalance_span);
        let next = next_placement.as_ref().unwrap_or(&self.placement);
        // The steps below publish into, and the scatter loads, the experts
        // of the next placement's classes.
        Self::grow_experts(&mut self.experts, &self.cfg, next.hosted_count(self.lrank));
        let mut sends = self.optimizer.weight_sends(ctx, next, tags);
        let slot_of = |class: usize| next.hosted_index(self.lrank, class);

        // ---- Step 4: §4.1's replica sum per class, one exchange each: every
        // host sends the others a view of its gradient on the ranges they
        // serve, and keeps theirs of its own ([`Partials`]). A class whose
        // reduce received partials of this rank's own chunk is stepped right
        // after it — the step sums them in registers as it goes; should a
        // later exchange fail, the step stands and recovery levels the step
        // counters ([`MoeLayerEngine::recover`]). Every other class steps
        // after the collect, as all did before: a class with one host has
        // nothing to consume early, and stepping it before the collect's
        // barrier would pile a busier host's Adam work ahead of it while its
        // peer waits. The intra-rank step already happened: backward summed
        // the class's co-located slots as rows of one batch. A class that
        // drew no token on this rank materializes its zeros here — its hosts
        // need them all the same. `Phase::GradComm` covers three different
        // things — the return of the upstream gradients above, this reduce,
        // and Algorithm 2's shard collection — so each is also timed on its
        // own and published as a gauge (`grad_sync_ms` with the early Adam
        // steps in it).
        let hosted = self.placement.classes_on_rank(self.lrank);
        // Never shrunk: a placement that hosts fewer classes leaves the
        // spare `Partials` released, with their buffers, for the next one
        // that hosts more.
        if self.received.len() < hosted.len() {
            self.received.resize_with(hosted.len(), Partials::default);
        }
        let mut deferred = Vec::with_capacity(hosted.len());
        let t0 = Instant::now();
        for (g, &(class, _)) in hosted.iter().enumerate() {
            let grad = self.experts[g].shared_grads();
            let partials = &mut self.received[g];
            self.optimizer.reduce_into(ctx, &self.placement, class, grad, tags, partials)?;
            if partials.is_empty() {
                deferred.push((g, class));
                continue;
            }
            let (experts, grad) = (&mut self.experts, ClassGrad::Reduced(partials));
            Self::step_class(&mut self.optimizer, experts, class, grad, slot_of(class), &mut sends);
        }
        let grad_sync = t0.elapsed();

        // ---- Step 5: collect gradient shards (Algorithm 2), then step the
        // classes this rank does not host from the wire and the deferred
        // hosted ones from their gradient. (The optimizer times its own
        // GradComm/OptimizerStep spans.)
        let t0 = Instant::now();
        let mut class_grads: Vec<Option<&Partials>> = vec![None; e];
        for ((class, _), partials) in hosted.iter().zip(&self.received) {
            class_grads[*class] = Some(partials);
        }
        let shards =
            self.optimizer.collect_grads_in_place(ctx, &self.placement, &class_grads, tags)?;
        let grad_collect = t0.elapsed();
        for (class, shard) in shards.into_iter().enumerate() {
            if let GradShard::Wire(payload) = shard {
                // A hosted class's zero-length chunk comes back as an empty
                // wire shard; it steps with the hosted classes.
                if !hosted.iter().any(|&(c, _)| c == class) {
                    let shard = payload.as_half_term()?;
                    let (experts, grad) = (&mut self.experts, ClassGrad::Half(shard));
                    Self::step_class(
                        &mut self.optimizer,
                        experts,
                        class,
                        grad,
                        slot_of(class),
                        &mut sends,
                    );
                }
                ctx.recycle_payload(payload);
            }
        }
        for (g, class) in deferred {
            let (experts, grad) = (&mut self.experts, ClassGrad::Reduced(&self.received[g]));
            Self::step_class(&mut self.optimizer, experts, class, grad, slot_of(class), &mut sends);
        }

        // ---- Step 8: scatter the updated weights under the new placement,
        // which the experts hold from here on; then the optimizer state
        // follows it where it is coupled to its hosts (SYMI's never moves).
        self.optimizer.scatter_weights_into(ctx, next, sends, tags, &mut self.experts)?;
        if let Some(p) = next_placement {
            self.optimizer.follow(ctx, &p, tags)?;
            self.placement = p;
        }
        self.iteration += 1;

        // ---- Single deferred advisory exchange (loss + stats). ----
        // One f32 ring all-reduce carries [Σdy², survived, dropped,
        // kept_0..kept_E) — the old mid-step loss barrier and the trailing
        // statistics all-reduce are folded into it. The counts are small
        // integers, exact in f32. The loss element is index 0 of chunk 0, so
        // its per-element summation order is identical to the old 1-element
        // LossSync buffer — the reported loss is bit-stable across the fold.
        let mut advisory = vec![local_sq, survived_local as f32, (t_loc - survived_local) as f32];
        advisory.extend(taken.iter().map(|&k| k as f32));
        let local_advisory = advisory.clone();
        // The first collective after the weight scatter: a rank that hosts
        // fewer classes has less to decode and waits here for its peer, so
        // the exchange is timed (as `Other`, where its bytes already land).
        let advisory_span = tele.span(Phase::Other);
        let exchanged =
            ctx.allreduce_sum(&world, tags.phase_tag(WirePhase::LossSync), &mut advisory);
        drop(advisory_span);
        match exchanged {
            Ok(()) => {}
            Err(e) if Self::is_degradable(&e) || matches!(e, CommError::PeerGone { .. }) => {
                // Loss and stats are advisory and every training-state
                // mutation of this iteration is already committed, so fall
                // back to the rank-local values rather than aborting a
                // fully-trained iteration — even for a dead peer: the next
                // iteration's mandatory collectives surface a real death
                // loudly.
                degraded = true;
                advisory = local_advisory;
            }
            Err(e) => return Err(e),
        }
        let loss = advisory[0] / ((t_loc * n) as f32 * self.cfg.d_model as f32);
        if degraded {
            self.degraded_iterations += 1;
        }

        // Wire-protocol health: fenced/stashed/timed-out messages flow into
        // the telemetry registry next to the phase timings.
        if tele.is_enabled() {
            let ps = ctx.protocol_stats();
            tele.gauge("protocol_fenced_messages").set(ps.fenced_messages as f64);
            tele.gauge("protocol_stash_peak").set(ps.stash_peak as f64);
            tele.gauge("protocol_recv_timeouts").set(ps.recv_timeouts as f64);
            tele.gauge("protocol_retries").set(ps.retries as f64);
            tele.gauge("protocol_duplicates_dropped").set(ps.duplicates_dropped as f64);
            tele.gauge("degraded_iterations").set(self.degraded_iterations as f64);
            tele.gauge("router.nan_logits").set(self.nan_logits as f64);
            if degraded {
                tele.counter("degraded_iterations_total").inc();
            }
            tele.gauge("grad_sync_ms").set(grad_sync.as_secs_f64() * 1e3);
            tele.gauge("grad_collect_ms").set(grad_collect.as_secs_f64() * 1e3);
            tele.gauge("optimizer_state_bytes").set(self.optimizer.state_bytes() as f64);
            let hosted = self.placement.hosted_count(self.lrank);
            let slot_bytes: usize = self.experts[..hosted].iter().map(ExpertFfn::param_bytes).sum();
            tele.gauge(&format!("mem.slot_param_bytes.rank{}", tele.rank())).set(slot_bytes as f64);
            let expert_bytes: usize =
                self.experts.iter().map(|e| e.param_bytes() + e.grad_bytes()).sum();
            tele.gauge(&format!("mem.expert_bytes.rank{}", tele.rank())).set(expert_bytes as f64);
        }

        Ok(IterStats {
            loss,
            popularity,
            survived: advisory[1] as usize,
            dropped: advisory[2] as usize,
            kept_per_class: advisory[3..].iter().map(|&k| k as u64).collect(),
            replicas,
            placement_churn,
            degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlexMoePolicy;
    use symi_collectives::{Cluster, ClusterSpec};
    use symi_model::UniformPolicy;

    fn cfg() -> EngineConfig {
        EngineConfig {
            d_model: 8,
            d_ff: 16,
            expert_classes: 4,
            slots_per_rank: 2,
            slot_capacity: 1_000_000, // no drops: exact cross-checks
            adam: AdamConfig::default(),
            seed: 31,
            layer_id: 0,
        }
    }

    fn token_matrix(rank: usize, t_loc: usize, d: usize) -> Matrix {
        Matrix::from_fn(t_loc, d, |r, c| (((rank * t_loc + r) * d + c) as f32 * 0.137).sin())
    }

    /// The paper's three systems, each a (placement, owners, policy) cell
    /// of the one constructor.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum System {
        Symi,
        DeepSpeed,
        FlexMoe,
    }

    const SYSTEMS: [System; 3] = [System::Symi, System::DeepSpeed, System::FlexMoe];

    /// `rank`'s engine of `system` over `nodes` ranks: SYMI's; DeepSpeed's,
    /// striped under a uniform policy over host owners; or FlexMoE's, a
    /// uniform start re-placed every two iterations over host owners.
    fn engine(system: System, rank: usize, nodes: usize, cfg: EngineConfig) -> MoeLayerEngine {
        let (e, s, total_slots) = (cfg.expert_classes, cfg.slots_per_rank, cfg.total_slots(nodes));
        let (placement, policy): (_, Box<dyn PlacementPolicy>) = match system {
            System::Symi => return MoeLayerEngine::new(rank, nodes, cfg),
            System::DeepSpeed => (
                ExpertPlacement::striped(e, nodes, s),
                Box::new(UniformPolicy { experts: e, total_slots }),
            ),
            System::FlexMoe => (
                ExpertPlacement::uniform(e, nodes, s),
                Box::new(FlexMoePolicy::new(total_slots, 2)),
            ),
        };
        let owners = Owners::hosts_of(&placement);
        MoeLayerEngine::build(rank, MembershipView::full(nodes), cfg, placement, owners, policy)
    }

    #[test]
    fn loss_decreases_over_iterations() {
        let nodes = 4;
        for system in SYSTEMS {
            let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
                let mut engine = engine(system, ctx.rank(), nodes, cfg());
                let x = token_matrix(ctx.rank(), 8, 8);
                let target = Matrix::zeros(8, 8); // drive outputs to zero
                let mut losses = Vec::new();
                for _ in 0..10 {
                    losses.push(engine.iteration(ctx, &x, &target).unwrap().loss);
                }
                losses
            });
            for (rank, losses) in results.iter().enumerate() {
                assert!(
                    losses.last().unwrap() < &(losses[0] * 0.8),
                    "{system:?} rank {rank}: loss must fall, got {losses:?}"
                );
            }
        }
    }

    #[test]
    fn all_ranks_agree_on_stats_and_placement() {
        // (ranks, tokens per rank, slot capacity, iterations): no drops, and
        // one token per slot.
        for system in SYSTEMS {
            for (nodes, t_loc, slot_capacity, iters) in [(4, 6, 1_000_000, 1), (2, 16, 1, 3)] {
                let c = EngineConfig { slot_capacity, ..cfg() };
                let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
                    let mut engine = engine(system, ctx.rank(), nodes, c);
                    let x = token_matrix(ctx.rank(), t_loc, 8);
                    let target = token_matrix(ctx.rank() + 100, t_loc, 8);
                    (0..iters)
                        .map(|_| {
                            let stats = engine.iteration(ctx, &x, &target).unwrap();
                            (stats, engine.placement.replica_counts())
                        })
                        .collect::<Vec<_>>()
                });
                for r in 1..nodes {
                    for ((a, placed_a), (b, placed_b)) in results[0].iter().zip(&results[r]) {
                        assert_eq!(a.popularity, b.popularity, "popularity must be global");
                        assert!((a.loss - b.loss).abs() < 1e-6, "loss must be global");
                        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{system:?}, {nodes} ranks");
                        assert_eq!((a.survived, a.dropped), (b.survived, b.dropped));
                        assert_eq!(a.kept_per_class, b.kept_per_class);
                        assert_eq!(placed_a, placed_b, "placement must be deterministic");
                    }
                }
                for (stats, _) in &results[0] {
                    assert_eq!(stats.survived + stats.dropped, nodes * t_loc);
                    assert_eq!(stats.kept_per_class.iter().sum::<u64>(), stats.survived as u64);
                }
            }
        }
    }

    #[test]
    fn placement_follows_popularity() {
        let nodes = 4;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut engine = MoeLayerEngine::new(ctx.rank(), nodes, cfg());
            let x = token_matrix(ctx.rank(), 16, 8);
            let target = Matrix::zeros(16, 8);
            let stats = engine.iteration(ctx, &x, &target).unwrap();
            let hottest = (0..4).max_by_key(|&c| stats.popularity[c]).expect("non-empty");
            let counts = engine.placement.replica_counts();
            (hottest, counts)
        });
        let (hottest, counts) = &results[0];
        let max_class = (0..4).max_by_key(|&c| counts[c]).unwrap();
        assert_eq!(
            *hottest, max_class,
            "the most popular class must get the most replicas: {counts:?}"
        );
    }

    #[test]
    fn replicas_of_a_class_hold_identical_weights() {
        for system in SYSTEMS {
            for (nodes, iters) in [(2, 1), (4, 3)] {
                let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
                    let mut engine = engine(system, ctx.rank(), nodes, cfg());
                    let x = token_matrix(ctx.rank(), 8, 8);
                    let target = Matrix::zeros(8, 8);
                    for _ in 0..iters {
                        let stats = engine.iteration(ctx, &x, &target).unwrap();
                        if system == System::DeepSpeed {
                            assert_eq!(
                                stats.placement_churn, 0,
                                "the static placement never moves"
                            );
                        }
                    }
                    // Report (class, weights) of each local slot.
                    let s = engine.placement.slots_per_rank();
                    (0..s)
                        .map(|l| {
                            let slot = ctx.rank() * s + l;
                            (engine.placement.class_of_slot(slot), engine.slot_weights(l))
                        })
                        .collect::<Vec<_>>()
                });
                let mut by_class: std::collections::HashMap<usize, Vec<f32>> =
                    std::collections::HashMap::new();
                for per_rank in &results {
                    for (class, weights) in per_rank {
                        match by_class.get(class) {
                            None => {
                                by_class.insert(*class, weights.clone());
                            }
                            Some(reference) => {
                                assert_eq!(
                                    reference, weights,
                                    "{system:?}, {nodes} ranks: all replicas of class {class} \
                                     must match bit-for-bit"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn after_every_iteration_each_hosted_slot_holds_the_binary16_image_of_the_masters() {
        // The Adam step publishes this rank's chunk of a class straight into
        // the slot that hosts it next, the scatter the other owners' chunks:
        // between them every chunk of every hosted class is fresh, under
        // placements that move classes between ranks and spread one class
        // over several.
        let nodes = 4;
        let iterations = 8;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut engine = MoeLayerEngine::new(ctx.rank(), nodes, cfg());
            let mut seen = Vec::new();
            for it in 0..iterations {
                let x = token_matrix(ctx.rank() + 3 * it, 12, 8);
                let target = token_matrix(ctx.rank() + 50, 12, 8);
                engine.iteration(ctx, &x, &target).unwrap();
                let slots: Vec<(usize, Vec<f32>)> = engine
                    .placement
                    .classes_on_rank(engine.lrank)
                    .into_iter()
                    .map(|(class, locals)| (class, engine.slot_weights(locals[0])))
                    .collect();
                let masters: Vec<Vec<f32>> =
                    (0..4).map(|c| engine.master_shard(c).to_vec()).collect();
                seen.push((engine.placement.clone(), slots, masters));
            }
            seen
        });
        let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut spread = false;
        for it in 0..iterations {
            for (rank, per_rank) in results.iter().enumerate() {
                let (placement, slots, _) = &per_rank[it];
                spread |= (0..4).any(|c| placement.host_ranks(c).len() > 1);
                for (class, weights) in slots {
                    // World owners: the class's masters are the ranks' chunks
                    // in rank order.
                    let image: Vec<f32> = results
                        .iter()
                        .flat_map(|r| &r[it].2[*class])
                        .map(|&w| symi_tensor::half::quantize_f16(w))
                        .collect();
                    assert_eq!(
                        bits(weights),
                        bits(&image),
                        "iteration {it}, rank {rank}, class {class}: a stale slot"
                    );
                }
            }
        }
        let placements: Vec<_> = results[0].iter().map(|s| &s.0).collect();
        assert!(placements.windows(2).any(|w| w[0] != w[1]), "the placement never moved");
        assert!(spread, "no class was ever hosted on two ranks");
    }

    #[test]
    fn fresh_slots_hold_the_bits_materialize_slots_scatters() {
        // One initial path: at iteration 0 a slot holds the binary16 image of
        // its class's canonical masters, whether `new` built it or
        // `materialize_slots` scattered it from a snapshot of those masters.
        let bits = |w: Vec<f32>| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for nodes in [2, 4] {
            let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
                let fresh = MoeLayerEngine::new(ctx.rank(), nodes, cfg());
                let mut restored = MoeLayerEngine::from_snapshot(cfg(), fresh.snapshot());
                restored.materialize_slots(ctx).expect("materialize");
                for (class, locals) in fresh.placement.classes_on_rank(ctx.rank()) {
                    let (c, seed) = (cfg(), MoeLayerEngine::class_seed(&cfg(), class));
                    let image: Vec<f32> = ExpertFfn::new(c.d_model, c.d_ff, seed)
                        .flat_params()
                        .into_iter()
                        .map(symi_tensor::half::quantize_f16)
                        .collect();
                    for local in locals {
                        let (f, r) = (fresh.slot_weights(local), restored.slot_weights(local));
                        assert_eq!(bits(f.clone()), bits(r), "{nodes} ranks, slot {local}");
                        assert_eq!(bits(f), bits(image.clone()), "{nodes} ranks, slot {local}");
                    }
                }
            });
            assert_eq!(results.len(), nodes);
        }
    }

    #[test]
    fn per_slot_capacity_is_enforced_where_the_old_quota_oversubscribed() {
        // Two classes, two replica slots each, across two ranks. Interleaved
        // routing puts every class-0 token at an even global index, so the
        // old `gid % replicas` router piled all of them onto one slot while
        // its sibling idled — the per-class quota never noticed.
        let nodes = 2;
        let t_loc = 16;
        let cap = 3;
        let placement = ExpertPlacement::uniform(2, nodes, 2);
        let assignment: Vec<usize> = (0..t_loc).map(|t| t % 2).collect();

        // Old scheme (regression fixture): per-class quota + modulo router.
        let replicas = placement.replica_counts();
        let mut old_load = vec![0usize; placement.total_slots()];
        for rank in 0..nodes {
            let quota: Vec<usize> = (0..2)
                .map(|c| {
                    let class_cap = cap * replicas[c];
                    class_cap / nodes + usize::from(rank < class_cap % nodes)
                })
                .collect();
            let mut taken = [0usize; 2];
            for (t, &class) in assignment.iter().enumerate() {
                if taken[class] >= quota[class] {
                    continue;
                }
                let class_slots = placement.slots_of_class(class);
                let gid = rank * t_loc + t;
                old_load[class_slots[gid % class_slots.len()]] += 1;
                taken[class] += 1;
            }
        }
        assert!(
            old_load.iter().any(|&l| l > cap),
            "fixture must reproduce the oversubscription: {old_load:?}"
        );

        // New scheme: no slot exceeds its capacity, and the probing fills
        // the sibling replica the old router left idle.
        let mut new_load = vec![0usize; placement.total_slots()];
        let mut new_kept = 0usize;
        for rank in 0..nodes {
            let (kept, kept_slot, _) =
                assign_token_slots(&assignment, &placement, cap, rank, rank * t_loc);
            new_kept += kept.len();
            for &slot in &kept_slot {
                new_load[slot] += 1;
            }
        }
        for (slot, &load) in new_load.iter().enumerate() {
            assert!(load <= cap, "slot {slot} over capacity: {load} > {cap}, {new_load:?}");
        }
        assert_eq!(
            new_kept,
            placement.total_slots() * cap,
            "all slots should fill exactly under adversarial demand: {new_load:?}"
        );
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        // Single rank, single class, single slot: gate = softmax over one
        // logit = 1 exactly, so loss(params) = Σ(ffn(x) − target)² / (T·d)
        // and the engine's backward must produce d loss / d params — pinning
        // the factor 2 in dLoss/dy = 2(y − target)/(T·d).
        let probe = EngineConfig {
            d_model: 4,
            d_ff: 8,
            expert_classes: 1,
            slots_per_rank: 1,
            slot_capacity: 1_000_000,
            adam: AdamConfig::default(),
            seed: 77,
            layer_id: 0,
        };
        let t_loc = 5;
        let (mut results, _) = Cluster::run(ClusterSpec::flat(1), move |ctx| {
            let mut engine = MoeLayerEngine::new(0, 1, probe);
            let x = token_matrix(0, t_loc, probe.d_model);
            let target = token_matrix(3, t_loc, probe.d_model);
            let stats = engine.iteration(ctx, &x, &target).unwrap();
            (stats.loss, engine.hosted_grads(0))
        });
        let (loss, analytic) = results.remove(0);

        let x = token_matrix(0, t_loc, probe.d_model);
        let target = token_matrix(3, t_loc, probe.d_model);
        let loss_of = |params: &[f32]| -> f64 {
            let mut ffn = ExpertFfn::new(probe.d_model, probe.d_ff, 0);
            ffn.load_flat(params);
            let y = ffn.forward(&x);
            let sq: f64 = y
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum();
            sq / (t_loc * probe.d_model) as f64
        };

        // The binary16 image of the canonical initial class weights: what
        // the engine built its slot from.
        let params0: Vec<f32> = ExpertFfn::new(probe.d_model, probe.d_ff, probe.seed ^ 0xe0)
            .flat_params()
            .into_iter()
            .map(symi_tensor::half::quantize_f16)
            .collect();
        assert!(
            (f64::from(loss) - loss_of(&params0)).abs() < 1e-5,
            "reported loss disagrees with direct evaluation"
        );

        let eps = 1e-2f32;
        for (i, &g) in analytic.iter().enumerate() {
            let mut p = params0.clone();
            p[i] = params0[i] + eps;
            let up = loss_of(&p);
            p[i] = params0[i] - eps;
            let down = loss_of(&p);
            let fd = ((up - down) / (2.0 * f64::from(eps))) as f32;
            assert!(
                (g - fd).abs() <= 1e-3 + 0.05 * fd.abs(),
                "param {i}: analytic grad {g} vs finite difference {fd}"
            );
        }
    }

    #[test]
    fn nan_logits_do_not_panic_the_routing_argmax() {
        // A NaN token row makes every router probability NaN (softmax of
        // NaN logits); before the NaN-last ordering this panicked inside
        // `partial_cmp(..).expect("finite probs")`. Now the iteration
        // completes, the gauge counts what it saw, and the NaN loss the row
        // produces reports it on every rank.
        let nodes = 2;
        for system in SYSTEMS {
            let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
                let mut engine = engine(system, ctx.rank(), nodes, cfg());
                let mut x = token_matrix(ctx.rank(), 4, 8);
                if ctx.rank() == 0 {
                    x[(2, 3)] = f32::NAN;
                }
                let target = Matrix::zeros(4, 8);
                let stats = engine.iteration(ctx, &x, &target).expect("NaN must not abort");
                (stats.popularity.iter().sum::<u64>(), engine.nan_logits(), stats.loss)
            });
            for &(routed, _, loss) in &results {
                assert_eq!(routed, 8, "{system:?}: every token still routes somewhere");
                assert!(loss.is_nan(), "{system:?}: the NaN row surfaces in the global loss");
            }
            assert_eq!(results[0].1, 4, "all four probs of rank 0's NaN row are NaN");
            assert_eq!(results[1].1, 0, "rank 1 saw only finite probs");
        }
    }

    #[test]
    fn capacity_quota_drops_excess_tokens() {
        let nodes = 2;
        let tight = EngineConfig { slot_capacity: 1, ..cfg() };
        for system in SYSTEMS {
            let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
                let mut engine = engine(system, ctx.rank(), nodes, tight);
                let x = token_matrix(ctx.rank(), 16, 8);
                let target = Matrix::zeros(16, 8);
                engine.iteration(ctx, &x, &target).unwrap()
            });
            let stats = &results[0];
            assert!(stats.dropped > 0, "{system:?}: capacity 1/slot must drop tokens");
            assert_eq!(stats.survived + stats.dropped, 32);
            // Survivors fit inside the total capacity (4 slots/rank... 4
            // classes × replicas × 1 token each).
            assert!(stats.survived <= tight.total_slots(nodes));
        }
    }

    #[test]
    #[should_panic(expected = "host owners disagree with the placement's host groups")]
    fn build_refuses_host_owners_of_another_placement() {
        let (nodes, c) = (4, cfg());
        let striped = ExpertPlacement::striped(c.expert_classes, nodes, c.slots_per_rank);
        let uniform = ExpertPlacement::uniform(c.expert_classes, nodes, c.slots_per_rank);
        assert_ne!(Owners::hosts_of(&striped), Owners::hosts_of(&uniform));
        let policy = Box::new(SymiPolicy { total_slots: c.total_slots(nodes) });
        let owners = Owners::hosts_of(&uniform);
        MoeLayerEngine::build(0, MembershipView::full(nodes), c, striped, owners, policy);
    }
}
