//! One placement transition on the real optimizer, for the bytes-only
//! figures: Algorithm 2's collect under the old placement, the Adam step,
//! the weight scatter under the new one, and [`SymiOptimizer::follow`].
//! Each call opens its own phase span, so the traffic report carries the
//! bytes per phase.

use symi::optimizer::get_source;
use symi::{ExpertPlacement, SymiOptimizer};
use symi_collectives::coll::chunk_range;
use symi_collectives::{Cluster, ClusterSpec, TagSpace, TrafficReport};
use symi_tensor::AdamConfig;

/// A flat cluster of `nodes` ranks × `slots_per_rank` slots hosting
/// `expert_classes` classes of `param_count` parameters each.
#[derive(Clone, Copy, Debug)]
pub struct Transition {
    pub nodes: usize,
    pub slots_per_rank: usize,
    pub expert_classes: usize,
    pub param_count: usize,
}

impl Transition {
    /// Runs the optimizer phases from the contiguous placement of
    /// `old_counts` to that of `new_counts`, with the state sharded over
    /// every rank (SYMI) or, when `coupled`, over each class's hosts
    /// (FlexMoE). Returns the traffic and the parameters `follow` moved.
    pub fn run(
        &self,
        old_counts: &[usize],
        new_counts: &[usize],
        coupled: bool,
    ) -> (TrafficReport, u64) {
        let t = *self;
        let old = ExpertPlacement::from_counts(old_counts, t.slots_per_rank);
        let new = ExpertPlacement::from_counts(new_counts, t.slots_per_rank);
        let (transferred, traffic) = Cluster::run(ClusterSpec::flat(t.nodes), move |ctx| {
            let (rank, adam) = (ctx.rank(), AdamConfig::default());
            let params: Vec<Vec<f32>> =
                (0..t.expert_classes).map(|c| vec![c as f32; t.param_count]).collect();
            let mut opt = if coupled {
                SymiOptimizer::host_sharded(rank, t.nodes, adam, &old, &params)
            } else {
                SymiOptimizer::new(rank, t.nodes, adam, &params)
            };
            let grads: Vec<Option<Vec<f32>>> = (0..t.expert_classes)
                .map(|c| old.rank_hosts(rank, c).then(|| vec![0.01f32; t.param_count]))
                .collect();
            let tags = TagSpace::new(0, 0);
            let shards = opt.collect_grads(ctx, &old, &grads, tags).unwrap();
            let weights = opt.step(&shards);
            opt.distribute_weights(ctx, &new, &weights, tags).unwrap();
            opt.follow(ctx, &new, tags).unwrap().transferred_params
        });
        (traffic, transferred.iter().sum())
    }

    /// Inter-node bytes SYMI's phases ship for `old_counts → new_counts`,
    /// the de-duplicated schedule: a binary16 gradient shard per (class,
    /// rank) whose Algorithm 2 source under the old placement is remote, and an
    /// fp16 chunk per (class, host under the new placement, remote owner).
    /// A function of the host sets alone, never of how many slots moved.
    pub fn symi_schedule(&self, old_counts: &[usize], new_counts: &[usize]) -> u64 {
        let old = ExpertPlacement::from_counts(old_counts, self.slots_per_rank);
        let new = ExpertPlacement::from_counts(new_counts, self.slots_per_rank);
        let chunk = |rank| {
            let (a, b) = chunk_range(self.param_count, self.nodes, rank);
            (b - a) as u64
        };
        let mut total = 0;
        for class in 0..self.expert_classes {
            let old_hosts = old.host_ranks(class);
            let remote = (0..self.nodes).filter(|&r| get_source(&old_hosts, r) != r);
            total += 2 * remote.map(chunk).sum::<u64>();
            for dst in new.host_ranks(class) {
                total += 2 * (0..self.nodes).filter(|&src| src != dst).map(chunk).sum::<u64>();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symi_traffic_is_blind_to_slot_movement() {
        // The paper's central claim, measured in real bytes: a rebalance
        // ships exactly the weight-update traffic the *new* placement's
        // host sets require — zero bytes are attributable to slots having
        // moved.
        let t = Transition { nodes: 4, slots_per_rank: 2, expert_classes: 4, param_count: 64 };
        let old = [2usize, 2, 2, 2];
        for new in [[2usize, 2, 2, 2], [5, 1, 1, 1], [3, 1, 2, 2]] {
            let (measured, _) = t.run(&old, &new, false);
            assert_eq!(
                measured.inter_node_bytes,
                t.symi_schedule(&old, &new),
                "old {old:?} → new {new:?}: bytes must follow the host sets alone"
            );
        }
    }
}
