//! Per-iteration latency simulation for the three systems under study.
//!
//! The simulator composes one training iteration as a serial chain of
//! phases whose durations come from byte/FLOP accounting (α–β model for
//! communication, throughput model for compute). It produces the iteration
//! latency (Figure 11), the per-component breakdown (Figure 12), the token
//! survival fraction (Table 1 / Figure 8's analytic counterpart), and the
//! per-rank GPU memory footprint used for FlexMoE's OOM check (§5.3).
//!
//! The straggler effect is modeled faithfully: expert compute and
//! all-to-all phases take the **max over ranks**, driven by the actual
//! placement (contiguous slot assignment, as Algorithm 1 produces).

use crate::costmodel::{CommCostModel, ShardScope, TierPhase, TieredCostModel};
use crate::placement::ExpertPlacement;
use crate::topology::{HardwareSpec, ModelCostConfig, Topology};

/// Which system's iteration to simulate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimSystem {
    /// DeepSpeed: static uniform replication, replicas of one class on
    /// distinct ranks, optimizer sharded across the EDP group (ZeRO-1).
    DeepSpeedStatic,
    /// SYMI: per-iteration adaptive replication, hierarchical all-reduce,
    /// optimizer uniformly sharded across all nodes.
    Symi,
    /// FlexMoE: adaptive replication with optimizer state *coupled* to the
    /// instances; pays a blocking migration on rebalancing iterations.
    FlexMoE,
}

/// Extra work performed on a FlexMoE rebalancing iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RebalanceSpec {
    /// Expert replicas moved per layer this iteration (0 ⇒ plain iteration).
    pub moved_replicas_per_layer: usize,
}

/// One component of the simulated iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct Component {
    pub name: &'static str,
    pub seconds: f64,
}

/// Result of simulating one iteration.
#[derive(Clone, Debug)]
pub struct IterationBreakdown {
    pub components: Vec<Component>,
    /// Fraction of routed tokens that fit under capacity.
    pub survived_fraction: f64,
    /// Peak GPU bytes on the most loaded rank.
    pub gpu_peak_bytes: f64,
    /// Cluster-wide network bytes attributed to each topology tier
    /// (innermost first); one entry on the single-tier
    /// [`IterationSim::simulate`].
    pub comm_bytes_by_tier: Vec<f64>,
}

impl IterationBreakdown {
    /// Iteration latency: sum of components (the phases chain serially; the
    /// per-rank parallelism inside each phase is already folded into its
    /// duration via rank maxima).
    pub fn total_seconds(&self) -> f64 {
        self.components.iter().map(|c| c.seconds).sum()
    }

    /// Forward-pass latency only (Table 1's latency column).
    pub fn forward_seconds(&self) -> f64 {
        self.components
            .iter()
            .filter(|c| matches!(c.name, "dense_fwd" | "a2a_fwd" | "expert_fwd" | "router_meta"))
            .map(|c| c.seconds)
            .sum()
    }

    pub fn component(&self, name: &str) -> f64 {
        self.components.iter().filter(|c| c.name == name).map(|c| c.seconds).sum()
    }
}

/// Iteration simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct IterationSim {
    pub model: ModelCostConfig,
    pub hw: HardwareSpec,
    /// Nodes (= ranks; one GPU per node as in the paper's testbed).
    pub nodes: usize,
    /// Expert slots per rank (`s`).
    pub slots_per_rank: usize,
    /// Expert classes (`E`).
    pub expert_classes: usize,
    /// Capacity factor (the paper evaluates 1.0).
    pub capacity_factor: f64,
    /// Sequence length (attention cost term).
    pub seq_len: usize,
}

impl IterationSim {
    /// The paper's evaluation setup for a given model: 16 ranks, 16 expert
    /// classes, 4 slots per GPU, capacity factor 1.0, sequence length 512.
    pub fn paper_eval(model: ModelCostConfig) -> Self {
        Self {
            model,
            hw: HardwareSpec::paper_eval_cluster(),
            nodes: 16,
            slots_per_rank: 4,
            expert_classes: 16,
            capacity_factor: 1.0,
            seq_len: 512,
        }
    }

    fn total_slots(&self) -> usize {
        self.nodes * self.slots_per_rank
    }

    /// Per-slot token capacity (§3.4): `cf × tokens_per_batch / (sN)`.
    pub fn slot_capacity(&self) -> f64 {
        self.capacity_factor * self.model.tokens_per_batch as f64 / self.total_slots() as f64
    }

    /// Simulates one iteration on the paper's single-tier cluster: the
    /// tiered body on [`Topology::flat`] with SYMI's optimizer sharded
    /// cluster-wide (`k = 1`, §3.3).
    pub fn simulate(
        &self,
        tokens_per_class: &[f64],
        replicas_per_class: &[usize],
        system: SimSystem,
        rebalance: RebalanceSpec,
    ) -> IterationBreakdown {
        let topo = Topology::flat(self.nodes, &self.hw);
        let scope = ShardScope::Cluster;
        self.simulate_hier(&topo, tokens_per_class, replicas_per_class, system, rebalance, scope)
    }

    /// The slot placement each system's scheduler would produce.
    pub fn placement(&self, replicas_per_class: &[usize], system: SimSystem) -> ExpertPlacement {
        match system {
            SimSystem::Symi => {
                ExpertPlacement::from_counts(replicas_per_class, self.slots_per_rank)
            }
            SimSystem::DeepSpeedStatic => {
                ExpertPlacement::striped(self.expert_classes, self.nodes, self.slots_per_rank)
            }
            SimSystem::FlexMoE => {
                ExpertPlacement::spread(replicas_per_class, self.nodes, self.slots_per_rank)
            }
        }
    }

    /// Simulates one iteration on a hierarchical topology, pricing every
    /// network phase by the narrowest tier each transfer crosses.
    ///
    /// `symi_scope` selects SYMI's optimizer-sharding domain for the grad
    /// and weight phases — [`ShardScope::Cluster`] is the paper's uniform
    /// `k = 1` point, [`ShardScope::TierCell`] the pod-aligned k-group
    /// variant of Appendix A.1. It is ignored for the coupled baselines,
    /// whose shard lives inside the EDP group by construction.
    ///
    /// `tokens_per_class[i]` is the router's global assignment for class
    /// `i`; `replicas_per_class[i]` its replica count this iteration, from
    /// which the system builds its placement. Replica counts must be ≥ 1
    /// and sum to `sN`. Survival and per-rank load are priced on the
    /// placement built, so the static baseline's uniform stripe is priced
    /// as uniform whatever counts it was given. On a single-tier
    /// [`Topology::flat`] with zero latency the grad and weight phases are
    /// §3.3's [`CommCostModel::costs`] (see tests).
    pub fn simulate_hier(
        &self,
        topo: &Topology,
        tokens_per_class: &[f64],
        replicas_per_class: &[usize],
        system: SimSystem,
        rebalance: RebalanceSpec,
        symi_scope: ShardScope,
    ) -> IterationBreakdown {
        assert_eq!(topo.ranks(), self.nodes, "topology must cover exactly the simulated ranks");
        assert_eq!(tokens_per_class.len(), self.expert_classes, "one token count per class");
        assert_eq!(replicas_per_class.len(), self.expert_classes, "one replica count per class");
        let total_replicas: usize = replicas_per_class.iter().sum();
        assert_eq!(total_replicas, self.total_slots(), "replicas must fill all slots");
        assert!(replicas_per_class.iter().all(|&r| r >= 1), "every class needs ≥1 replica");

        let hw = &self.hw;
        let m = &self.model;
        let n = self.nodes;
        let s = self.slots_per_rank;
        let e = self.expert_classes;
        let layers = m.layers as f64;
        let g_bytes = m.expert_grad_bytes();
        let w_bytes = m.expert_weight_bytes();
        let o_bytes = m.expert_optimizer_bytes();
        let tiers = topo.num_tiers();
        let census = topo.tier_census();
        let flat_model = CommCostModel {
            nodes: n,
            expert_classes: e,
            slots_per_rank: s,
            grad_bytes: g_bytes,
            weight_bytes: w_bytes,
            optimizer_bytes: o_bytes,
            hw: *hw,
        };
        let tiered = TieredCostModel::from_flat(&flat_model, topo);
        let mut bytes_by_tier = vec![0.0f64; tiers];

        // ---- Placement: SYMI packs each class's replicas contiguously
        // (Algorithm 1); DeepSpeed stripes classes round-robin so replicas
        // land on distinct ranks (it has no intra-rank EDP, §4.1); FlexMoE
        // likewise spreads replicas across ranks, greedily. Everything below
        // reads the replica counts of the layout built, not the caller's:
        // DeepSpeed's stripe is uniform whatever counts were passed.
        let placement = self.placement(replicas_per_class, system);
        let replicas = placement.replica_counts();

        // ---- Token survival under per-class capacity (§3.4). ----
        let slot_cap = self.slot_capacity();
        let survived: Vec<f64> = tokens_per_class
            .iter()
            .zip(&replicas)
            .map(|(&t, &r)| t.min(slot_cap * r as f64))
            .collect();
        let total_tokens: f64 = tokens_per_class.iter().sum();
        let total_survived: f64 = survived.iter().sum();
        let survived_fraction =
            if total_tokens > 0.0 { total_survived / total_tokens } else { 1.0 };

        let host_ranks: Vec<Vec<usize>> = placement
            .hosts_with_counts()
            .iter()
            .map(|hosts| hosts.iter().map(|&(rank, _)| rank).collect())
            .collect();
        let mut rank_tokens = vec![0.0f64; n];
        for slot in 0..placement.total_slots() {
            let class = placement.class_of_slot(slot);
            rank_tokens[placement.rank_of_slot(slot)] += survived[class] / replicas[class] as f64;
        }

        // ---- Compute phases: topology-independent. ----
        let tokens_per_rank = m.tokens_per_batch as f64 / n as f64;
        let emb = m.token_embedding_bytes();
        let gpu = hw.gpu_flops;
        let dense_fwd = layers
            * (tokens_per_rank * m.dense_flops_per_token(self.seq_len) / gpu
                + hw.framework_layer_overhead);
        let dense_bwd = 2.0 * dense_fwd;
        let max_recv_tokens = rank_tokens.iter().copied().fold(0.0, f64::max);
        let max_rank_flops = max_recv_tokens * m.expert_flops_per_token();
        let expert_fwd = layers * max_rank_flops / gpu;
        let expert_bwd = 2.0 * expert_fwd;

        // ---- All-to-all: token routing is uniform over peers, so the
        // busiest rank's bytes split across tiers in census proportion —
        // the tier census says how many of its n−1 peers sit behind each
        // bandwidth class.
        let sent_tokens = total_survived / n as f64;
        let a2a_bytes = max_recv_tokens.max(sent_tokens) * emb;
        let mut a2a_once = 0.0;
        let peers = (n - 1).max(1) as f64; // a lone rank has no peers: shares are 0, not 0/0
        for t in 0..tiers {
            let share = a2a_bytes * census[t] as f64 / peers;
            a2a_once += share / topo.bw(t) + census[t] as f64 * topo.latency(t);
            // dispatch+combine, forward and backward: 4 traversals/layer.
            bytes_by_tier[t] += layers * 4.0 * n as f64 * share;
        }
        let a2a_fwd = layers * 2.0 * a2a_once;
        let a2a_bwd = layers * 2.0 * a2a_once;

        // ---- EDP gradient sync, priced per class over its host ranks.
        // The packed contiguous groups SYMI produces ring over fast inner
        // tiers (the ring shrinks to nothing when a whole class fits on one
        // rank); the striped/spread baselines ring across the spine. SYMI is
        // priced at the cheaper of ring and tier-tree per group — §4.1's
        // hierarchical all-reduce generalized to the topology; on one tier
        // the ring always wins.
        let mut class_sync: Vec<TierPhase> = Vec::with_capacity(e);
        for hosts in &host_ranks {
            let ring = tiered.ring_allreduce(hosts, g_bytes);
            let phase = match system {
                SimSystem::Symi => {
                    let tree = tiered.tree_allreduce(hosts, g_bytes);
                    if tree.seconds < ring.seconds {
                        tree
                    } else {
                        ring
                    }
                }
                _ => ring,
            };
            class_sync.push(phase);
        }
        let edp_sync = layers
            * (0..n)
                .map(|rank| {
                    let hosted = placement.classes_on_rank(rank);
                    hosted.iter().map(|&(c, _)| class_sync[c].seconds).sum::<f64>()
                })
                .fold(0.0, f64::max);
        for phase in &class_sync {
            for (acc, b) in bytes_by_tier.iter_mut().zip(&phase.bytes_by_tier) {
                *acc += layers * b;
            }
        }

        // ---- Grad and weight phases via the tiered shard exchange. ----
        let static_ring = self.total_slots() / e;
        let (grad_phase, weight_phase) = match system {
            SimSystem::Symi => {
                // Decoupled: every instance pushes shards to the owners
                // (§3.3's (sN−s)/N identity), owners push weights back.
                let grad = tiered.shard_exchange(&placement, symi_scope, g_bytes);
                let weight = tiered.shard_exchange(&placement, symi_scope, w_bytes);
                (grad, weight)
            }
            SimSystem::DeepSpeedStatic | SimSystem::FlexMoE => {
                // Coupled: the grad shard is local after the EDP all-reduce
                // (PCIe staging only); the weight all-gather spans the EDP
                // group wherever the stripe scattered it.
                let mut grad = TierPhase::zero(tiers);
                grad.pci_bytes_per_rank = s as f64 * g_bytes / static_ring as f64;
                grad.seconds = grad.pci_bytes_per_rank / hw.bw_pci;
                let weight = tiered.shard_exchange(&placement, ShardScope::EdpGroup, w_bytes);
                (grad, weight)
            }
        };
        let grad_comm = layers * grad_phase.seconds;
        let weight_comm = layers * weight_phase.seconds;
        for (t, acc) in bytes_by_tier.iter_mut().enumerate() {
            *acc += layers * (grad_phase.bytes_by_tier[t] + weight_phase.bytes_by_tier[t]);
        }

        // Offloaded optimizer step over this rank's share of state: E·O/N
        // bytes for every system (footprints are equal, §3.3-I).
        let opt_step = layers * (e as f64 * o_bytes / n as f64) / hw.host_opt_bytes_per_s;

        // ---- SYMI's control plane (popularity all-reduce + placement
        // scheduler + metadata updates, ~1% of the iteration in §5.3): the
        // all-reduce crosses the whole cluster, so it pays the outermost
        // tier's α and β.
        let router_meta = match system {
            SimSystem::Symi => {
                let pop_ar = 2.0 * (n as f64).log2().ceil() * topo.max_latency()
                    + e as f64 * 8.0 / topo.narrowest_bw();
                let scheduler = e as f64 * 2.0e-6 + 1.0e-4;
                let metadata = 5.0e-5;
                layers * (pop_ar + scheduler + metadata)
            }
            _ => 0.0,
        };

        // ---- FlexMoE's blocking rebalancing shuffle: each moved replica
        // drags its weights AND coupled optimizer state (§2.2) across
        // whatever tier separates source and destination — worst case, the
        // spine — and through PCIe, and the affected expert's communicator
        // group must be re-created, a blocking synchronization (§4.2).
        let migration = match system {
            SimSystem::FlexMoE => {
                let moved = rebalance.moved_replicas_per_layer as f64;
                let state_move = moved
                    * ((w_bytes + o_bytes) / topo.narrowest_bw() + (w_bytes + o_bytes) / hw.bw_pci);
                let group_rebuild = moved * hw.group_init_per_rank * (static_ring as f64 + 1.0);
                bytes_by_tier[tiers - 1] += layers * moved * (w_bytes + o_bytes);
                layers * (state_move + group_rebuild)
            }
            _ => 0.0,
        };

        // ---- GPU memory on the most loaded rank: weights+grads of the
        // hosted slots, dense parameters, activations, FlexMoE's optimizer
        // state coupled to the instance's device slot, and its transient
        // double-buffer of migrated state (current AND future copies
        // co-located during the move, §5.3).
        let dense_params_bytes = layers * 12.0 * (m.d_model * m.d_model) as f64 * 2.0;
        let activations = tokens_per_rank * m.d_model as f64 * layers * 34.0 * 2.0;
        let expert_mem = layers * s as f64 * (w_bytes + g_bytes);
        let coupled_opt_on_gpu = match system {
            SimSystem::FlexMoE => layers * s as f64 * o_bytes / static_ring as f64,
            _ => 0.0,
        };
        let migration_transient = match system {
            SimSystem::FlexMoE if rebalance.moved_replicas_per_layer > 0 => {
                layers * (w_bytes + o_bytes)
            }
            _ => 0.0,
        };
        let gpu_peak_bytes = dense_params_bytes
            + activations
            + expert_mem
            + coupled_opt_on_gpu
            + migration_transient;

        let mut components = vec![
            Component { name: "dense_fwd", seconds: dense_fwd },
            Component { name: "router_meta", seconds: router_meta },
            Component { name: "a2a_fwd", seconds: a2a_fwd },
            Component { name: "expert_fwd", seconds: expert_fwd },
            Component { name: "dense_bwd", seconds: dense_bwd },
            Component { name: "a2a_bwd", seconds: a2a_bwd },
            Component { name: "expert_bwd", seconds: expert_bwd },
            Component { name: "edp_sync", seconds: edp_sync },
            Component { name: "grad_comm", seconds: grad_comm },
            Component { name: "opt_step", seconds: opt_step },
            Component { name: "weight_comm", seconds: weight_comm },
        ];
        if migration > 0.0 {
            components.push(Component { name: "migration", seconds: migration });
        }

        IterationBreakdown {
            components,
            survived_fraction,
            gpu_peak_bytes,
            comm_bytes_by_tier: bytes_by_tier,
        }
    }

    /// Uniform static replication vector (`r = sN/E` each).
    pub fn uniform_replicas(&self) -> Vec<usize> {
        let r = self.total_slots() / self.expert_classes;
        assert_eq!(r * self.expert_classes, self.total_slots(), "sN must divide by E");
        vec![r; self.expert_classes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::SystemKind;

    fn sim() -> IterationSim {
        IterationSim::paper_eval(ModelCostConfig::gpt_small())
    }

    fn uniform_tokens(sim: &IterationSim) -> Vec<f64> {
        vec![sim.model.tokens_per_batch as f64 / sim.expert_classes as f64; sim.expert_classes]
    }

    fn skewed_tokens(sim: &IterationSim) -> Vec<f64> {
        // Zipf-ish: class 0 gets half the tokens.
        let e = sim.expert_classes;
        let total = sim.model.tokens_per_batch as f64;
        let mut t = vec![total * 0.5 / (e as f64 - 1.0); e];
        t[0] = total * 0.5;
        t
    }

    /// Popularity-proportional replicas for the skewed distribution (half
    /// the slots to class 0), respecting the ≥1 minimum.
    fn proportional_replicas(sim: &IterationSim, tokens: &[f64]) -> Vec<usize> {
        let slots = sim.nodes * sim.slots_per_rank;
        let total: f64 = tokens.iter().sum();
        let mut r: Vec<usize> =
            tokens.iter().map(|t| ((t / total * slots as f64).round() as usize).max(1)).collect();
        // Fix rounding drift.
        while r.iter().sum::<usize>() > slots {
            let i = (0..r.len()).max_by_key(|&i| r[i]).unwrap();
            r[i] -= 1;
        }
        while r.iter().sum::<usize>() < slots {
            let i = (0..r.len()).max_by_key(|&i| r[i]).unwrap();
            r[i] += 1;
        }
        r
    }

    #[test]
    fn uniform_load_survives_fully_at_cf1() {
        let s = sim();
        let b = s.simulate(
            &uniform_tokens(&s),
            &s.uniform_replicas(),
            SimSystem::DeepSpeedStatic,
            RebalanceSpec::default(),
        );
        assert!((b.survived_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_load_drops_tokens_under_static_replication() {
        let s = sim();
        let b = s.simulate(
            &skewed_tokens(&s),
            &s.uniform_replicas(),
            SimSystem::DeepSpeedStatic,
            RebalanceSpec::default(),
        );
        assert!(b.survived_fraction < 0.7, "got {}", b.survived_fraction);
    }

    #[test]
    fn proportional_replication_rescues_dropped_tokens() {
        let s = sim();
        let tokens = skewed_tokens(&s);
        let static_b = s.simulate(
            &tokens,
            &s.uniform_replicas(),
            SimSystem::DeepSpeedStatic,
            RebalanceSpec::default(),
        );
        let r = proportional_replicas(&s, &tokens);
        let symi_b = s.simulate(&tokens, &r, SimSystem::Symi, RebalanceSpec::default());
        assert!(
            symi_b.survived_fraction > static_b.survived_fraction + 0.2,
            "symi {} vs static {}",
            symi_b.survived_fraction,
            static_b.survived_fraction
        );
    }

    #[test]
    fn higher_capacity_factor_raises_survival_and_latency() {
        let mut s = sim();
        let tokens = skewed_tokens(&s);
        let mut prev_surv = 0.0;
        let mut prev_lat = 0.0;
        for cf in [1.0, 2.0, 4.0] {
            s.capacity_factor = cf;
            let b = s.simulate(
                &tokens,
                &s.uniform_replicas(),
                SimSystem::DeepSpeedStatic,
                RebalanceSpec::default(),
            );
            assert!(b.survived_fraction >= prev_surv);
            assert!(b.forward_seconds() >= prev_lat, "cf {cf}");
            prev_surv = b.survived_fraction;
            prev_lat = b.forward_seconds();
        }
        // Even ×4 capacity cannot absorb a class holding half the batch
        // (Table 1 tops out at ~75% survival too).
        assert!(prev_surv > 0.7 && prev_surv < 1.0, "cf=4 survival {prev_surv}");
    }

    #[test]
    fn flexmoe_rebalance_iteration_is_much_slower() {
        let s = sim();
        let tokens = skewed_tokens(&s);
        let r = s.uniform_replicas();
        let plain = s.simulate(&tokens, &r, SimSystem::FlexMoE, RebalanceSpec::default());
        let rebal = s.simulate(
            &tokens,
            &r,
            SimSystem::FlexMoE,
            RebalanceSpec { moved_replicas_per_layer: 2 },
        );
        let ratio = rebal.total_seconds() / plain.total_seconds();
        assert!(ratio > 1.5, "migration must dominate, got ratio {ratio}");
        assert!(rebal.component("migration") > 0.0);
        assert_eq!(plain.component("migration"), 0.0);
    }

    #[test]
    fn symi_router_meta_overhead_is_small() {
        let s = sim();
        let tokens = uniform_tokens(&s);
        let b =
            s.simulate(&tokens, &s.uniform_replicas(), SimSystem::Symi, RebalanceSpec::default());
        let frac = b.component("router_meta") / b.total_seconds();
        assert!(frac < 0.03, "router/scheduler/metadata must stay ~1%, got {frac}");
        assert!(frac > 0.0);
    }

    #[test]
    fn symi_iteration_beats_deepspeed_on_uniform_load() {
        // §5.3: SYMI is slightly faster than DeepSpeed thanks to the packed
        // hierarchical all-reduce (intra-rank replicas shrink the rings).
        for cfg in [
            ModelCostConfig::gpt_small(),
            ModelCostConfig::gpt_medium(),
            ModelCostConfig::gpt_large(),
        ] {
            let s = IterationSim::paper_eval(cfg);
            let tokens = uniform_tokens(&s);
            let r = s.uniform_replicas();
            let symi = s.simulate(&tokens, &r, SimSystem::Symi, RebalanceSpec::default());
            let ds = s.simulate(&tokens, &r, SimSystem::DeepSpeedStatic, RebalanceSpec::default());
            assert!(
                symi.total_seconds() < ds.total_seconds(),
                "{}: symi {} vs deepspeed {}",
                cfg.name,
                symi.total_seconds(),
                ds.total_seconds()
            );
            let gain = 1.0 - symi.total_seconds() / ds.total_seconds();
            assert!(
                (0.005..0.2).contains(&gain),
                "{}: the win must be modest (paper: 2.8–9.3%), got {gain}",
                cfg.name
            );
        }
    }

    #[test]
    fn flexmoe_migration_transient_raises_memory() {
        let s = IterationSim::paper_eval(ModelCostConfig::gpt_large());
        let tokens = uniform_tokens(&s);
        let r = s.uniform_replicas();
        let plain = s.simulate(&tokens, &r, SimSystem::FlexMoE, RebalanceSpec::default());
        let rebal = s.simulate(
            &tokens,
            &r,
            SimSystem::FlexMoE,
            RebalanceSpec { moved_replicas_per_layer: 1 },
        );
        assert!(rebal.gpu_peak_bytes > plain.gpu_peak_bytes);
        let symi = s.simulate(&tokens, &r, SimSystem::Symi, RebalanceSpec::default());
        assert!(symi.gpu_peak_bytes < plain.gpu_peak_bytes, "decoupled state uses less HBM");
    }

    #[test]
    fn larger_models_take_longer() {
        let tokens_of = |s: &IterationSim| uniform_tokens(s);
        let mut prev = 0.0;
        for cfg in [
            ModelCostConfig::gpt_small(),
            ModelCostConfig::gpt_medium(),
            ModelCostConfig::gpt_large(),
        ] {
            let s = IterationSim::paper_eval(cfg);
            let b = s.simulate(
                &tokens_of(&s),
                &s.uniform_replicas(),
                SimSystem::Symi,
                RebalanceSpec::default(),
            );
            assert!(b.total_seconds() > prev, "{}", cfg.name);
            prev = b.total_seconds();
        }
    }

    #[test]
    #[should_panic(expected = "replicas must fill all slots")]
    fn replica_sum_mismatch_panics() {
        let s = sim();
        let mut r = s.uniform_replicas();
        r[0] += 1;
        let _ = s.simulate(&uniform_tokens(&s), &r, SimSystem::Symi, RebalanceSpec::default());
    }

    #[test]
    fn a_single_rank_has_no_network_phases_and_stays_finite() {
        let s = IterationSim { nodes: 1, expert_classes: 4, ..sim() };
        for system in [SimSystem::DeepSpeedStatic, SimSystem::Symi, SimSystem::FlexMoE] {
            let b = s.simulate(
                &uniform_tokens(&s),
                &s.uniform_replicas(),
                system,
                RebalanceSpec::default(),
            );
            assert!(b.total_seconds().is_finite(), "{system:?}");
            assert_eq!(b.component("a2a_fwd") + b.component("edp_sync"), 0.0, "{system:?}");
            assert_eq!(b.comm_bytes_by_tier, vec![0.0], "{system:?}");
        }
    }

    #[test]
    #[should_panic(expected = "every class needs ≥1 replica")]
    fn zero_replica_class_panics_on_a_tiered_topology() {
        let s = sim();
        let topo = Topology::superpod(s.nodes);
        let mut r = s.uniform_replicas();
        r[1] += r[0];
        r[0] = 0;
        let _ = s.simulate_hier(
            &topo,
            &uniform_tokens(&s),
            &r,
            SimSystem::Symi,
            RebalanceSpec::default(),
            ShardScope::Cluster,
        );
    }

    #[test]
    fn flat_topology_prices_grad_and_weight_phases_by_section_3_3() {
        // On one tier at α = 0 the grad and weight phases are the paper's
        // per-rank expressions: SYMI pays T_G + T_W of `costs(Symi)`; the
        // coupled systems pay the static T_W and, their grad shard being
        // local after the EDP all-reduce, only T_G's PCIe term (E/N)·G/BW_pci.
        for cfg in [
            ModelCostConfig::gpt_small(),
            ModelCostConfig::gpt_medium(),
            ModelCostConfig::gpt_large(),
        ] {
            let mut s = IterationSim::paper_eval(cfg);
            s.hw.net_latency = 0.0;
            let model = CommCostModel {
                nodes: s.nodes,
                expert_classes: s.expert_classes,
                slots_per_rank: s.slots_per_rank,
                grad_bytes: cfg.expert_grad_bytes(),
                weight_bytes: cfg.expert_weight_bytes(),
                optimizer_bytes: cfg.expert_optimizer_bytes(),
                hw: s.hw,
            };
            let close = |got: f64, want: f64, what: &str| {
                assert!((got - want).abs() <= 1e-12 * want, "{} {what}: {got} vs {want}", cfg.name);
            };
            let layers = cfg.layers as f64;
            let tokens = uniform_tokens(&s);
            let r = s.uniform_replicas();
            let per_layer = |system, name| {
                let b = s.simulate(&tokens, &r, system, RebalanceSpec::default());
                assert_eq!(b.comm_bytes_by_tier.len(), 1);
                assert!(b.comm_bytes_by_tier[0].is_finite() && b.comm_bytes_by_tier[0] > 0.0);
                b.component(name) / layers
            };
            let symi =
                per_layer(SimSystem::Symi, "grad_comm") + per_layer(SimSystem::Symi, "weight_comm");
            close(symi, model.costs(SystemKind::Symi).total(), "symi grad+weight");
            let static_costs = model.costs(SystemKind::StaticBaseline);
            let grad_pci =
                s.expert_classes as f64 / s.nodes as f64 * model.grad_bytes / s.hw.bw_pci;
            for system in [SimSystem::DeepSpeedStatic, SimSystem::FlexMoE] {
                close(per_layer(system, "weight_comm"), static_costs.t_weight, "coupled weight");
                close(per_layer(system, "grad_comm"), grad_pci, "coupled grad");
            }
        }
    }

    #[test]
    fn hier_symi_beats_deepspeed_on_a_superpod_too() {
        // The packed-placement win survives (and grows) once the striped
        // baseline's EDP rings have to cross real tier boundaries.
        let s = sim();
        let topo = Topology::superpod(s.nodes);
        let tokens = uniform_tokens(&s);
        let r = s.uniform_replicas();
        let symi = s.simulate_hier(
            &topo,
            &tokens,
            &r,
            SimSystem::Symi,
            RebalanceSpec::default(),
            ShardScope::Cluster,
        );
        let ds = s.simulate_hier(
            &topo,
            &tokens,
            &r,
            SimSystem::DeepSpeedStatic,
            RebalanceSpec::default(),
            ShardScope::Cluster,
        );
        assert!(
            symi.component("edp_sync") < ds.component("edp_sync"),
            "packed rings must be cheaper: symi {} vs ds {}",
            symi.component("edp_sync"),
            ds.component("edp_sync")
        );
        for b in symi.comm_bytes_by_tier.iter().chain(&ds.comm_bytes_by_tier) {
            assert!(b.is_finite() && *b >= 0.0);
        }
        assert_eq!(symi.comm_bytes_by_tier.len(), topo.num_tiers());
    }
}
