//! FlexMoE: coarse-grained adaptive replication with coupled optimizer
//! state.
//!
//! Two pieces:
//!
//! - [`FlexMoePolicy`] — the scheduling policy of Nie et al. reimplemented
//!   per §5's description: rebalancing triggers every `interval` iterations
//!   (the paper evaluates i ∈ {10, 50, 100}); each trigger iteratively
//!   shifts one replica from the least-loaded to the most-loaded class
//!   until a cost threshold (load-ratio) is met or the move budget runs
//!   out.
//! - [`flexmoe_engine`] — FlexMoE on the rank runtime: `symi`'s engine with
//!   this policy and each class's optimizer state ZeRO-1-sharded over its
//!   host ranks. A re-placement lays the new counts out contiguously
//!   ([`ExpertPlacement::from_counts`]) and the moved classes' state
//!   follows its new hosts through the optimizer's one re-shard plan
//!   ([`symi::SymiOptimizer::follow`]), in the `Rebalance` phase.

use std::collections::HashMap;
use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine};
use symi_model::PlacementPolicy;

/// FlexMoE's interval-triggered, one-replica-at-a-time policy.
pub struct FlexMoePolicy {
    pub total_slots: usize,
    /// Rebalance every `interval` iterations (10/50/100 in the paper).
    pub interval: u64,
    /// Stop shifting when max/min load-per-replica falls below this.
    pub load_ratio_threshold: f64,
    /// Safety cap on replica moves per trigger.
    pub max_moves: usize,
    current: HashMap<usize, Vec<usize>>,
    /// Replica moves performed at the last trigger, per layer (what the
    /// coupled migration pays for).
    pub moves_last_trigger: HashMap<usize, usize>,
}

impl FlexMoePolicy {
    pub fn new(total_slots: usize, interval: u64) -> Self {
        Self {
            total_slots,
            interval,
            load_ratio_threshold: 1.5,
            max_moves: 16,
            current: HashMap::new(),
            moves_last_trigger: HashMap::new(),
        }
    }

    fn rebalance(&self, popularity: &[u64], counts: &mut [usize]) -> usize {
        let load = |pop: u64, c: usize| pop as f64 / c as f64;
        let mut moves = 0usize;
        for _ in 0..self.max_moves {
            let hot = (0..counts.len())
                .max_by(|&a, &b| {
                    load(popularity[a], counts[a]).total_cmp(&load(popularity[b], counts[b]))
                })
                .expect("non-empty");
            let cold = (0..counts.len()).filter(|&i| counts[i] > 1 && i != hot).min_by(|&a, &b| {
                load(popularity[a], counts[a]).total_cmp(&load(popularity[b], counts[b]))
            });
            let Some(cold) = cold else { break };
            let hot_load = load(popularity[hot], counts[hot]);
            let cold_load = load(popularity[cold], counts[cold]).max(1e-9);
            if hot_load / cold_load < self.load_ratio_threshold {
                break;
            }
            counts[cold] -= 1;
            counts[hot] += 1;
            moves += 1;
        }
        moves
    }
}

impl PlacementPolicy for FlexMoePolicy {
    fn name(&self) -> &'static str {
        "flexmoe"
    }

    fn next_replicas(&mut self, layer: usize, popularity: &[u64], iteration: u64) -> Vec<usize> {
        let e = popularity.len();
        let uniform = self.total_slots / e;
        assert_eq!(uniform * e, self.total_slots, "slots must divide for the initial layout");
        let counts = self.current.entry(layer).or_insert_with(|| vec![uniform; e]);
        if (iteration + 1).is_multiple_of(self.interval) {
            let mut next = counts.clone();
            let interval_moves = {
                let this = &*self;
                this.rebalance(popularity, &mut next)
            };
            self.moves_last_trigger.insert(layer, interval_moves);
            self.current.insert(layer, next.clone());
            next
        } else {
            counts.clone()
        }
    }
}

/// FlexMoE's configuration of the one engine: uniform replication to start
/// with, [`FlexMoePolicy`] re-placing every `interval` iterations, and each
/// class's optimizer state coupled to its host ranks, so a re-placement
/// migrates it ([`MoeLayerEngine::edp_sharded`]).
pub fn flexmoe_engine(
    rank: usize,
    nodes: usize,
    cfg: EngineConfig,
    interval: u64,
) -> MoeLayerEngine {
    let placement = ExpertPlacement::uniform(cfg.expert_classes, nodes, cfg.slots_per_rank);
    let policy = Box::new(FlexMoePolicy::new(cfg.total_slots(nodes), interval));
    MoeLayerEngine::edp_sharded(rank, nodes, cfg, placement, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_only_rebalances_on_interval() {
        let mut p = FlexMoePolicy::new(16, 10);
        let skewed = [1000u64, 10, 10, 10];
        for iter in 0..9 {
            let r = p.next_replicas(0, &skewed, iter);
            assert_eq!(r, vec![4, 4, 4, 4], "no rebalance before the interval");
        }
        let r = p.next_replicas(0, &skewed, 9);
        assert!(r[0] > 4, "interval hit: hot class must gain replicas, got {r:?}");
        assert_eq!(r.iter().sum::<usize>(), 16);
    }

    #[test]
    fn policy_respects_min_one_replica() {
        let mut p = FlexMoePolicy::new(8, 1);
        p.max_moves = 100;
        let extreme = [1_000_000u64, 0, 0, 0];
        let r = p.next_replicas(0, &extreme, 0);
        assert!(r.iter().all(|&c| c >= 1));
        assert_eq!(r.iter().sum::<usize>(), 8);
        assert_eq!(r[0], 5);
    }

    #[test]
    fn policy_moves_incrementally_not_all_at_once() {
        let mut p = FlexMoePolicy::new(64, 1);
        p.max_moves = 2;
        let skewed = [1000u64, 10, 10, 10, 10, 10, 10, 10];
        let r = p.next_replicas(0, &skewed, 0);
        // From uniform 8: at most 2 moves happened.
        assert_eq!(r[0], 10, "exactly max_moves replicas shifted, got {r:?}");
        assert_eq!(*p.moves_last_trigger.get(&0).unwrap(), 2);
    }

    #[test]
    fn policy_is_per_layer() {
        let mut p = FlexMoePolicy::new(16, 1);
        let a = p.next_replicas(0, &[100, 1, 1, 1], 0);
        let b = p.next_replicas(1, &[1, 100, 1, 1], 0);
        assert!(a[0] > a[1]);
        assert!(b[1] > b[0]);
    }
}
