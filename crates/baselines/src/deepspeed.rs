//! The DeepSpeed-style static baseline engine.
//!
//! Differences from the SYMI engine, mirroring §5's experimental setup:
//!
//! - **Static uniform placement**, replicas of each class striped across
//!   *distinct* ranks (DeepSpeed does not support intra-rank expert data
//!   parallelism, §4.1), never re-placed.
//! - **Optimizer coupled to the EDP group**: each of the `r` host ranks of
//!   a class owns a `1/r` ZeRO-1 shard of that class's optimizer state —
//!   host-offloaded, like the paper's DeepSpeed configuration.
//! - Gradient sync is a plain ring all-reduce over the class's (striped,
//!   non-contiguous) host group; weight updates are an all-gather of the
//!   per-shard Adam results within the same group.

use std::time::Instant;
use symi::token_path::{route, Routed, TokenBuffers, TokenPath};
use symi_collectives::coll::chunk_range;
use symi_collectives::{CommError, CommGroup, RankCtx, TagSpace, WirePhase};
use symi_model::expert::ExpertFfn;
use symi_telemetry::{Phase, TelemetryHandle};
use symi_tensor::rng::StdRng;
use symi_tensor::{init, AdamConfig, AdamShard, Matrix};

/// Static striped placement: global slot `k` hosts class `k mod E`.
/// With `E` divisible by `s` this lands every replica of a class on a
/// different rank.
#[derive(Clone, Debug)]
pub struct StripedPlacement {
    expert_classes: usize,
    slots_per_rank: usize,
    ranks: usize,
}

impl StripedPlacement {
    pub fn new(expert_classes: usize, ranks: usize, slots_per_rank: usize) -> Self {
        let total = ranks * slots_per_rank;
        assert_eq!(total % expert_classes, 0, "uniform replication must divide");
        assert_eq!(
            expert_classes % slots_per_rank,
            0,
            "striping needs E divisible by s so replicas land on distinct ranks"
        );
        Self { expert_classes, slots_per_rank, ranks }
    }

    pub fn replicas(&self) -> usize {
        self.ranks * self.slots_per_rank / self.expert_classes
    }

    pub fn class_of_slot(&self, slot: usize) -> usize {
        slot % self.expert_classes
    }

    /// Global slots hosting `class`, ascending.
    pub fn slots_of_class(&self, class: usize) -> Vec<usize> {
        (0..self.ranks * self.slots_per_rank).filter(|&k| self.class_of_slot(k) == class).collect()
    }

    /// Host ranks of `class`, ascending (distinct by construction).
    pub fn host_ranks(&self, class: usize) -> Vec<usize> {
        self.slots_of_class(class).iter().map(|&k| k / self.slots_per_rank).collect()
    }

    /// Classes hosted on `rank` with their local slot index.
    pub fn classes_on_rank(&self, rank: usize) -> Vec<(usize, usize)> {
        (0..self.slots_per_rank)
            .map(|local| (self.class_of_slot(rank * self.slots_per_rank + local), local))
            .collect()
    }
}

/// Per-iteration statistics (matches `symi::engine::IterStats` in shape).
#[derive(Clone, Debug)]
pub struct IterStats {
    pub loss: f32,
    pub popularity: Vec<u64>,
    pub survived: usize,
    pub dropped: usize,
    /// Globally aggregated per-class kept assignments.
    pub kept_per_class: Vec<u64>,
}

/// Per-rank DeepSpeed-style engine for one MoE layer.
pub struct DeepSpeedMoeEngine {
    d_model: usize,
    expert_classes: usize,
    slot_capacity: usize,
    rank: usize,
    nodes: usize,
    placement: StripedPlacement,
    /// One expert per local slot: striping puts distinct classes on a rank,
    /// so every slot is a class-major execution set of its own.
    slots: Vec<ExpertFfn>,
    /// The token path's persistent matrices and payload buffers.
    tokens: TokenBuffers,
    /// ZeRO-1 shard of each *local* class's optimizer (one per local slot),
    /// covering this rank's position within the class's EDP group.
    opt_shards: Vec<AdamShard>,
    /// Per local slot: `(class, this rank's index in the class's EDP group,
    /// the group)`. The placement is static, so the groups DeepSpeed creates
    /// at init are built once, here.
    edp: Vec<(usize, usize, CommGroup)>,
    /// Per local slot: the updated fp16 shard the Adam step writes and the
    /// all-gather contributes. Lives across iterations.
    weight_shards: Vec<Vec<u16>>,
    router_w: Matrix,
    iteration: u64,
    telemetry: TelemetryHandle,
}

impl DeepSpeedMoeEngine {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        nodes: usize,
        d_model: usize,
        d_ff: usize,
        expert_classes: usize,
        slots_per_rank: usize,
        slot_capacity: usize,
        adam: AdamConfig,
        seed: u64,
    ) -> Self {
        let placement = StripedPlacement::new(expert_classes, nodes, slots_per_rank);
        let class_params: Vec<Vec<f32>> = (0..expert_classes)
            .map(|class| ExpertFfn::new(d_model, d_ff, seed ^ (0xe0 + class as u64)).flat_params())
            .collect();
        let mut slots = Vec::with_capacity(slots_per_rank);
        let mut opt_shards = Vec::with_capacity(slots_per_rank);
        let mut edp = Vec::with_capacity(slots_per_rank);
        let r = placement.replicas();
        for (class, _local) in placement.classes_on_rank(rank) {
            let mut e = ExpertFfn::new(d_model, d_ff, 0);
            e.load_flat(&class_params[class]);
            slots.push(e);
            // My index within the class's EDP group decides my ZeRO shard.
            let hosts = placement.host_ranks(class);
            let my_idx = hosts.iter().position(|&h| h == rank).expect("I host this class");
            let (a, b) = chunk_range(class_params[class].len(), r, my_idx);
            opt_shards.push(AdamShard::new(adam, a, &class_params[class][a..b]));
            edp.push((class, my_idx, CommGroup::new(hosts)));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70c7);
        let router_w = init::normal(d_model, expert_classes, 0.3, &mut rng);
        Self {
            d_model,
            expert_classes,
            slot_capacity,
            rank,
            nodes,
            placement,
            slots,
            tokens: TokenBuffers::new(slots_per_rank, d_model),
            opt_shards,
            edp,
            weight_shards: vec![Vec::new(); slots_per_rank],
            router_w,
            iteration: 0,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Installs this rank's telemetry handle (same phase taxonomy as the
    /// SYMI engine, so breakdowns are directly comparable).
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    pub fn placement(&self) -> &StripedPlacement {
        &self.placement
    }

    pub fn slot_weights(&self, local_slot: usize) -> Vec<f32> {
        self.slots[local_slot].flat_params()
    }

    /// The fp32 master weights of the ZeRO-1 shard this rank owns of local
    /// slot `local_slot`'s class (testing support).
    pub fn master_shard(&self, local_slot: usize) -> &[f32] {
        self.opt_shards[local_slot].master_weights()
    }

    /// One training iteration on this rank's token shard (same contract as
    /// the SYMI engine).
    pub fn iteration(
        &mut self,
        ctx: &mut RankCtx,
        x_local: &Matrix,
        target_local: &Matrix,
    ) -> Result<IterStats, CommError> {
        let e = self.expert_classes;
        let n = self.nodes;
        let world = ctx.groups().world();
        let t_loc = x_local.rows();
        let r = self.placement.replicas();
        let tele = self.telemetry.clone();
        let tags = TagSpace::new(0, self.iteration);

        let Routed { assignment, gates, mut popularity, .. } =
            route(x_local, &self.router_w, &mut self.tokens.router_probs, &tele);
        {
            let _span = tele.span(Phase::PopularityAllReduce);
            ctx.allreduce_u64_sum(
                &world,
                tags.phase_tag(WirePhase::PopularitySync),
                &mut popularity,
            )?;
        }

        // Static uniform capacity; sender-side even quota.
        let assign_span = tele.span(Phase::Dispatch);
        let quota: Vec<usize> = (0..e)
            .map(|_| {
                let cap = self.slot_capacity * r;
                cap / n + usize::from(self.rank < cap % n)
            })
            .collect();
        let mut taken = vec![0usize; e];
        let mut kept = Vec::new();
        let mut kept_slot = Vec::new();
        let slots_of_class: Vec<Vec<usize>> =
            (0..e).map(|c| self.placement.slots_of_class(c)).collect();
        for (t, &class) in assignment.iter().enumerate() {
            if taken[class] >= quota[class] {
                continue;
            }
            let class_slots = &slots_of_class[class];
            let gid = self.rank * t_loc + t;
            kept_slot.push(class_slots[gid % class_slots.len()]);
            kept.push(t);
            taken[class] += 1;
        }
        let survived_local = kept.len();
        drop(assign_span);

        // Dispatch, forward, combine, the loss gradient and its return. The
        // loss is advisory, so its sum waits for the trailing exchange.
        let path = TokenPath {
            group: &world,
            rank: self.rank,
            tags,
            gates: &gates,
            kept: &kept,
            kept_slot: &kept_slot,
            telemetry: &tele,
        };
        let local_sq =
            path.forward(ctx, x_local, target_local, &mut self.slots, &mut self.tokens)?;
        path.backward(ctx, &mut self.slots, &mut self.tokens)?;

        // EDP gradient all-reduce per local class over the striped
        // (non-contiguous) host group — the group DeepSpeed created at init
        // — in place on the slot's own flat gradient (an idle slot's zeros
        // are materialized here: the ring ships them all the same).
        let t_sync = Instant::now();
        let gradsync_span = tele.span(Phase::GradComm);
        for (slot, (class, _, group)) in self.slots.iter_mut().zip(&self.edp) {
            let tag = tags.tag(WirePhase::GradSync, *class, 0);
            ctx.allreduce_sum(group, tag, slot.flat_grads_mut())?;
        }
        drop(gradsync_span);
        if tele.is_enabled() {
            // The same split of `Phase::GradComm` the SYMI engine publishes
            // (this system has no shard collection: the EDP group that
            // synchronized the gradient also owns the optimizer shards).
            tele.gauge("grad_sync_ms").set(t_sync.elapsed().as_secs_f64() * 1e3);
        }

        // ZeRO-1 optimizer step: each EDP member steps its shard — the
        // kernel publishes the updated weights as binary16 bits — then the
        // group all-gathers the fp16 shards and every member decodes them
        // straight into its slot.
        for (local, &(class, my_idx, ref group)) in self.edp.iter().enumerate() {
            let mut half = std::mem::take(&mut self.weight_shards[local]);
            {
                let _span = tele.span(Phase::OptimizerStep);
                let grads = self.slots[local].flat_grads();
                let (a, b) = chunk_range(grads.len(), r, my_idx);
                // Staging the fp32 gradient shard to host and the fp16
                // weights back (PCIe).
                ctx.record_host_device_bytes((b - a) as u64 * 4);
                self.opt_shards[local].step_into(&grads[a..b], &mut half);
                ctx.record_host_device_bytes(half.len() as u64 * 2);
            }
            let _span = tele.span(Phase::WeightComm);
            let parts = ctx.all_gather_varsize_f16(
                group,
                tags.tag(WirePhase::WeightDistribute, class, 0),
                half,
            )?;
            let slot = &mut self.slots[local];
            for (idx, part) in parts.into_iter().enumerate() {
                let (pa, pb) = chunk_range(slot.param_count(), r, idx);
                assert_eq!(part.len(), pb - pa, "shard shape mismatch");
                slot.load_f16_at(pa, &part);
                if idx == my_idx {
                    self.weight_shards[local] = part; // my own buffer, back for the next step
                } else {
                    ctx.recycle_f16(part);
                }
            }
        }

        self.iteration += 1;
        // One deferred advisory exchange, as the SYMI engine's: an f32 ring
        // all-reduce of [Σ(y−t)², survived, dropped, kept_0..kept_E). The
        // counts are small integers, exact in f32; the loss is element 0 of
        // chunk 0, so it sums in the order a 1-element buffer would.
        let mut advisory = vec![local_sq, survived_local as f32, (t_loc - survived_local) as f32];
        advisory.extend(taken.iter().map(|&k| k as f32));
        {
            let _span = tele.span(Phase::Other);
            ctx.allreduce_sum(&world, tags.phase_tag(WirePhase::LossSync), &mut advisory)?;
        }
        Ok(IterStats {
            loss: advisory[0] / ((t_loc * n) as f32 * self.d_model as f32),
            popularity,
            survived: advisory[1] as usize,
            dropped: advisory[2] as usize,
            kept_per_class: advisory[3..].iter().map(|&k| k as u64).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_collectives::{Cluster, ClusterSpec};

    fn engine(rank: usize, nodes: usize, cap: usize) -> DeepSpeedMoeEngine {
        DeepSpeedMoeEngine::new(rank, nodes, 8, 16, 4, 2, cap, AdamConfig::default(), 31)
    }

    fn token_matrix(rank: usize, t_loc: usize, d: usize) -> Matrix {
        Matrix::from_fn(t_loc, d, |r, c| (((rank * t_loc + r) * d + c) as f32 * 0.137).sin())
    }

    #[test]
    fn striped_placement_spreads_replicas() {
        let p = StripedPlacement::new(4, 4, 2);
        assert_eq!(p.replicas(), 2);
        for class in 0..4 {
            let hosts = p.host_ranks(class);
            assert_eq!(hosts.len(), 2);
            assert_ne!(hosts[0], hosts[1], "replicas must land on distinct ranks");
        }
    }

    #[test]
    fn loss_decreases_over_iterations() {
        let nodes = 4;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1_000_000);
            let x = token_matrix(ctx.rank(), 8, 8);
            let target = Matrix::zeros(8, 8);
            let mut losses = Vec::new();
            for _ in 0..10 {
                losses.push(eng.iteration(ctx, &x, &target).unwrap().loss);
            }
            losses
        });
        for losses in &results {
            assert!(losses.last().unwrap() < &(losses[0] * 0.8), "{losses:?}");
        }
    }

    #[test]
    fn replicas_stay_identical_across_ranks() {
        let nodes = 4;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1_000_000);
            let x = token_matrix(ctx.rank(), 8, 8);
            let target = Matrix::zeros(8, 8);
            for _ in 0..3 {
                let _ = eng.iteration(ctx, &x, &target).unwrap();
            }
            eng.placement()
                .classes_on_rank(ctx.rank())
                .into_iter()
                .map(|(class, local)| (class, eng.slot_weights(local)))
                .collect::<Vec<_>>()
        });
        let mut by_class: std::collections::HashMap<usize, Vec<f32>> = Default::default();
        for per_rank in &results {
            for (class, w) in per_rank {
                match by_class.get(class) {
                    None => {
                        by_class.insert(*class, w.clone());
                    }
                    Some(reference) => {
                        let diff = reference
                            .iter()
                            .zip(w)
                            .map(|(a, b)| (a - b).abs())
                            .fold(0.0f32, f32::max);
                        assert!(diff < 1e-6, "class {class} replicas diverged by {diff}");
                    }
                }
            }
        }
    }

    #[test]
    fn nan_logits_do_not_panic_the_routing_argmax() {
        // The SYMI engine's case on the baseline: a NaN token row makes every
        // router probability NaN, and this engine's own argmax used to panic
        // the rank on `partial_cmp(..).expect("finite")`. Both engines route
        // through `symi::token_path::route` now, NaN last; the NaN loss the
        // row produces is what reports it here.
        let nodes = 2;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1_000_000);
            let mut x = token_matrix(ctx.rank(), 4, 8);
            if ctx.rank() == 0 {
                x[(2, 3)] = f32::NAN;
            }
            let target = Matrix::zeros(4, 8);
            eng.iteration(ctx, &x, &target).expect("NaN must not abort")
        });
        for stats in &results {
            assert_eq!(stats.popularity.iter().sum::<u64>(), 8, "every token routes somewhere");
            assert!(stats.loss.is_nan(), "the NaN row surfaces in the global loss");
        }
    }

    #[test]
    fn static_capacity_drops_under_skew() {
        let nodes = 2;
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1);
            let x = token_matrix(ctx.rank(), 16, 8);
            let target = Matrix::zeros(16, 8);
            eng.iteration(ctx, &x, &target).unwrap()
        });
        assert!(results[0].dropped > 0);
        assert_eq!(results[0].survived + results[0].dropped, 32);
    }

    #[test]
    fn advisory_exchange_reports_the_global_stats_on_every_rank() {
        let (nodes, t_loc) = (2, 16);
        let (results, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1);
            let x = token_matrix(ctx.rank(), t_loc, 8);
            let target = Matrix::zeros(t_loc, 8);
            (0..3).map(|_| eng.iteration(ctx, &x, &target).unwrap()).collect::<Vec<_>>()
        });
        for (a, b) in results[0].iter().zip(&results[1]) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!((a.survived, a.dropped), (b.survived, b.dropped));
            assert_eq!(a.kept_per_class, b.kept_per_class);
            assert_eq!(a.survived + a.dropped, nodes * t_loc);
            assert_eq!(a.kept_per_class.iter().sum::<u64>(), a.survived as u64);
        }
    }
}
