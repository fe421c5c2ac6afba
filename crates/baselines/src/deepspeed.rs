//! The DeepSpeed-style static baseline: [`MoeLayerEngine`] configured the
//! way §5's DeepSpeed runs, not a second engine.
//!
//! The two choices that differ from SYMI, both made once at construction:
//!
//! - **Static uniform placement**, replicas of each class striped across
//!   *distinct* ranks ([`ExpertPlacement::striped`]: DeepSpeed does not
//!   support intra-rank expert data parallelism, §4.1), never re-placed.
//! - **Optimizer coupled to the EDP group**: each of the `r` host ranks of
//!   a class owns a `1/r` ZeRO-1 shard of that class's optimizer state —
//!   host-offloaded, like the paper's DeepSpeed configuration
//!   ([`Owners::hosts_of`]).
//!
//! Everything else is the one iteration: the same routing, per-slot
//! capacity rule, token path and advisory exchange; §4.1's reduce sums each
//! class's gradient over its (striped, non-contiguous) host group onto the
//! ranges each host serves, Algorithm 2's collect is served locally because
//! every owner hosts its class, and the weight scatter to the class's other
//! hosts is the EDP all-gather. The uniform policy returns the counts the
//! stripe already has, so the placement never moves and no optimizer state
//! ever follows it.

use std::ops::{Deref, DerefMut};
use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine, Owners};
use symi_collectives::MembershipView;
use symi_model::UniformPolicy;
use symi_tensor::AdamConfig;

/// Per-rank DeepSpeed-style engine for one MoE layer: a [`MoeLayerEngine`]
/// in DeepSpeed's configuration, reached through `Deref`.
pub struct DeepSpeedMoeEngine(MoeLayerEngine);

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
        let cfg = EngineConfig {
            d_model,
            d_ff,
            expert_classes,
            slots_per_rank,
            slot_capacity,
            adam,
            seed,
            layer_id: 0,
        };
        let placement = ExpertPlacement::striped(expert_classes, nodes, slots_per_rank);
        let policy = Box::new(UniformPolicy {
            experts: expert_classes,
            total_slots: cfg.total_slots(nodes),
        });
        let (view, owners) = (MembershipView::full(nodes), Owners::hosts_of(&placement));
        Self(MoeLayerEngine::build(rank, view, cfg, placement, owners, policy))
    }
}

impl Deref for DeepSpeedMoeEngine {
    type Target = MoeLayerEngine;

    fn deref(&self) -> &MoeLayerEngine {
        &self.0
    }
}

impl DerefMut for DeepSpeedMoeEngine {
    fn deref_mut(&mut self) -> &mut MoeLayerEngine {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_collectives::{Cluster, ClusterSpec, CommError};
    use symi_tensor::Matrix;

    fn engine(rank: usize, nodes: usize, cap: usize) -> DeepSpeedMoeEngine {
        DeepSpeedMoeEngine::new(rank, nodes, 8, 16, 4, 2, cap, AdamConfig::default(), 31)
    }

    fn token_matrix(rank: usize, t_loc: usize, d: usize) -> Matrix {
        Matrix::from_fn(t_loc, d, |r, c| (((rank * t_loc + r) * d + c) as f32 * 0.137).sin())
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
                let stats = eng.iteration(ctx, &x, &target).unwrap();
                assert_eq!(stats.placement_churn, 0, "the static placement never moves");
            }
            eng.placement
                .classes_on_rank(ctx.rank())
                .into_iter()
                .map(|(class, locals)| (class, eng.slot_weights(locals[0])))
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
        // router probability NaN, and the baseline's own argmax used to panic
        // the rank on `partial_cmp(..).expect("finite")`. Both systems route
        // through `symi::token_path::route`, NaN last; the NaN loss the row
        // produces is what reports it here.
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

    #[test]
    #[should_panic(expected = "ROADMAP item 17")]
    fn snapshot_refuses_the_host_group_optimizer() {
        let _ = engine(0, 2, 1_000_000).snapshot();
    }

    #[test]
    #[should_panic(expected = "ROADMAP item 17")]
    fn recover_refuses_the_host_group_optimizer() {
        // Every rank stops before the membership agreement sends a byte.
        let nodes = 2;
        Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let mut eng = engine(ctx.rank(), nodes, 1_000_000);
            let peer = 1 - ctx.rank();
            eng.recover(ctx, &CommError::PeerGone { rank: peer })
        });
    }
}
