//! The intra+inter rank all-reduce of §4.1.
//!
//! Stock NCCL all-reduce synchronizes one tensor per *rank*, which forbids
//! placing two replicas of the same expert class on the same GPU — a
//! restriction the paper measured to cost up to 20% extra token drops.
//! SYMI's variant removes it (Figure 6):
//!
//! 1. each rank elects a *slot representative* for the expert class and sums
//!    its other local replicas into it (HBM-local, no link traffic);
//! 2. a standard ring all-reduce runs across the representative ranks only.
//!
//! The paper's step 3 — the representative writing the reduced tensor back
//! to its co-located replica slots — is deliberately absent: with the
//! optimizer decoupled from the replicas, Algorithm 2 sources exactly one
//! copy of a class's gradient per rank (the representative's), so nothing
//! ever reads a sibling's synchronized copy. Siblings are read-only here and
//! the wire carries the same bytes either way.
//!
//! Besides enabling arbitrary placements, step 2's ring spans fewer ranks
//! than instances, so inter-node traffic shrinks whenever the scheduler
//! packs replicas of one class onto one rank — exactly what Algorithm 1's
//! contiguous assignment does.

use crate::ctx::RankCtx;
use crate::error::CommError;
use crate::group::CommGroup;

/// Reduction semantics for replica synchronization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceMode {
    /// Plain sum over all instances — correct when each instance's gradient
    /// is already a partial sum over its share of tokens.
    Sum,
    /// Sum divided by the total instance count — classic data-parallel mean.
    Mean,
}

impl RankCtx {
    /// Reduces all instances of one expert class into this rank's
    /// representative.
    ///
    /// `rep` is the tensor of this rank's representative replica (ranks
    /// without a replica are not group members and must not call);
    /// `siblings` are its co-located replicas' tensors, read-only, folded
    /// into `rep` in iteration order (the caller fixes it — ascending slot
    /// order keeps the sum reproducible — and may leave out a sibling whose
    /// tensor is all zeros). `group` is the set of ranks hosting ≥1 replica;
    /// `total_instances` is the global replica count used by
    /// [`ReduceMode::Mean`].
    ///
    /// On return `rep` holds the synchronized value; the siblings are
    /// untouched (see the module docs for why nothing is written back).
    pub fn expert_allreduce<'a>(
        &mut self,
        group: &CommGroup,
        tag: u64,
        rep: &mut [f32],
        siblings: impl IntoIterator<Item = &'a [f32]>,
        total_instances: usize,
        mode: ReduceMode,
    ) -> Result<(), CommError> {
        assert!(total_instances >= 1, "total_instances must be positive");
        // Step 1: add each sibling into the representative, in the order given.
        for sibling in siblings {
            assert_eq!(sibling.len(), rep.len(), "replica tensors must have equal shape");
            for (r, v) in rep.iter_mut().zip(sibling) {
                *r += v;
            }
        }
        // Step 2: inter-rank ring all-reduce across representatives.
        self.allreduce_sum(group, tag, rep)?;
        if mode == ReduceMode::Mean {
            let inv = 1.0 / total_instances as f32;
            for v in rep.iter_mut() {
                *v *= inv;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};

    /// 4 ranks; expert hosted on ranks 1..3 with 2 replicas on rank 1 and
    /// one each on ranks 2, 3 (4 instances total).
    fn placement(rank: usize) -> usize {
        match rank {
            1 => 2,
            2 | 3 => 1,
            _ => 0,
        }
    }

    /// Syncs `locals[0]` (the representative) with `locals[1..]` as its
    /// co-located siblings, in slot order.
    fn sync(
        ctx: &mut RankCtx,
        group: &CommGroup,
        tag: u64,
        locals: &mut [Vec<f32>],
        total_instances: usize,
        mode: ReduceMode,
    ) {
        let (rep, rest) = locals.split_first_mut().expect("at least one local replica");
        let siblings = rest.iter().map(Vec::as_slice);
        ctx.expert_allreduce(group, tag, rep, siblings, total_instances, mode).unwrap();
    }

    #[test]
    fn sums_across_and_within_ranks() {
        let (results, _) = Cluster::run(ClusterSpec::flat(4), |ctx| {
            let n_local = placement(ctx.rank());
            if n_local == 0 {
                return vec![];
            }
            let group = ctx.groups().range(1, 3);
            // Instance value = 100*rank + slot.
            let mut locals: Vec<Vec<f32>> =
                (0..n_local).map(|s| vec![(100 * ctx.rank() + s) as f32; 3]).collect();
            sync(ctx, &group, 77, &mut locals, 4, ReduceMode::Sum);
            locals
        });
        // Sum = (100 + 101) + 200 + 300 = 701 in every element of every
        // representative.
        let expect = 701.0f32;
        for (rank, locals) in results.iter().enumerate().take(4).skip(1) {
            for v in &locals[0] {
                assert!((v - expect).abs() < 1e-3, "rank {rank}: {v}");
            }
        }
        assert_eq!(results[1][1], vec![101.0; 3], "the sibling is read, never written");
        assert!(results[0].is_empty());
    }

    #[test]
    fn mean_divides_by_instances() {
        let (results, _) = Cluster::run(ClusterSpec::flat(4), |ctx| {
            let n_local = placement(ctx.rank());
            if n_local == 0 {
                return 0.0;
            }
            let group = ctx.groups().range(1, 3);
            let mut locals: Vec<Vec<f32>> = (0..n_local).map(|_| vec![8.0f32]).collect();
            sync(ctx, &group, 78, &mut locals, 4, ReduceMode::Mean);
            locals[0][0]
        });
        for r in results.iter().take(4).skip(1) {
            assert!((r - 8.0).abs() < 1e-4, "mean of equal values is the value");
        }
    }

    #[test]
    fn single_rank_many_slots_needs_no_network() {
        let (results, report) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() != 0 {
                return 0.0;
            }
            let group = ctx.groups().range(0, 1);
            let mut locals = vec![vec![1.0f32], vec![2.0], vec![3.0]];
            sync(ctx, &group, 5, &mut locals, 3, ReduceMode::Sum);
            locals[0][0]
        });
        assert_eq!(results[0], 6.0);
        assert_eq!(report.total_bytes(), 0, "intra-rank folding must be link-free");
    }

    #[test]
    fn packed_placement_moves_fewer_inter_node_bytes_than_spread() {
        // 4 instances of one expert, tensor of 1024 floats.
        // Packed: 2 ranks x 2 slots -> ring over 2 ranks.
        // Spread: 4 ranks x 1 slot  -> ring over 4 ranks.
        let len = 1024usize;
        let (_, packed) = Cluster::run(ClusterSpec::flat(4), |ctx| {
            if ctx.rank() < 2 {
                let group = ctx.groups().range(0, 2);
                let mut locals = vec![vec![1.0f32; len], vec![2.0f32; len]];
                sync(ctx, &group, 1, &mut locals, 4, ReduceMode::Sum);
            }
        });
        let (_, spread) = Cluster::run(ClusterSpec::flat(4), |ctx| {
            let group = ctx.groups().range(0, 4);
            let mut locals = vec![vec![1.5f32; len]];
            sync(ctx, &group, 1, &mut locals, 4, ReduceMode::Sum);
        });
        assert!(
            packed.inter_node_bytes < spread.inter_node_bytes,
            "packed {} should beat spread {}",
            packed.inter_node_bytes,
            spread.inter_node_bytes
        );
        // Ring volume: per rank 2(m-1)/m * len * 4 bytes.
        assert_eq!(packed.inter_node_bytes, 2 * (2 * 1024 * 4 / 2));
        assert_eq!(spread.inter_node_bytes, 4 * (2 * 3 * 1024 * 4 / 4));
    }

    #[test]
    fn result_matches_flat_allreduce() {
        // The hierarchical reduce must produce numerically the same result
        // as a flat sum over all instance tensors.
        let (results, _) = Cluster::run(ClusterSpec::flat(3), |ctx| {
            let n_local = ctx.rank() + 1; // 1, 2, 3 instances
            let group = ctx.groups().range(0, 3);
            let mut locals: Vec<Vec<f32>> =
                (0..n_local).map(|s| vec![(ctx.rank() * 10 + s) as f32 * 0.5; 4]).collect();
            sync(ctx, &group, 3, &mut locals, 6, ReduceMode::Sum);
            locals[0][0]
        });
        // Instances: 0.0 | 5.0, 5.5 | 10.0, 10.5, 11.0 -> sum 42.0.
        for r in &results {
            assert!((r - 42.0).abs() < 1e-3, "{r}");
        }
    }

    #[test]
    fn single_member_group_mean_divides_by_local_instances() {
        // Degenerate shape: one rank hosts every replica. Mean must divide
        // by the *instance* count even though the ring never runs.
        let (results, report) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() != 0 {
                return vec![];
            }
            let group = ctx.groups().range(0, 1);
            let mut locals = vec![vec![3.0f32, 9.0], vec![6.0, 0.0], vec![0.0, 3.0]];
            sync(ctx, &group, 21, &mut locals, 3, ReduceMode::Mean);
            locals.into_iter().flatten().collect::<Vec<f32>>()
        });
        // Sums (9, 12) / 3 instances = (3, 4) in the representative; the
        // siblings keep what they held.
        assert_eq!(results[0], vec![3.0, 4.0, 6.0, 0.0, 0.0, 3.0]);
        assert_eq!(report.total_bytes(), 0, "single-member sync is link-free");
    }

    /// Per-rank-varying replica counts, checked against a naive all-gather
    /// oracle: every instance tensor is reconstructed independently and
    /// summed sequentially.
    #[test]
    fn varying_replica_counts_match_all_gather_oracle() {
        let replicas_of = |rank: usize| [3usize, 1, 2, 1][rank];
        let value_of =
            |rank: usize, slot: usize, i: usize| (rank * 100 + slot * 10 + i) as f32 * 0.25;
        let len = 5usize;
        for mode in [ReduceMode::Sum, ReduceMode::Mean] {
            let total: usize = (0..4).map(replicas_of).sum();
            let (results, _) = Cluster::run(ClusterSpec::flat(4), |ctx| {
                let group = ctx.groups().range(0, 4);
                let mut locals: Vec<Vec<f32>> = (0..replicas_of(ctx.rank()))
                    .map(|s| (0..len).map(|i| value_of(ctx.rank(), s, i)).collect())
                    .collect();
                sync(ctx, &group, 22, &mut locals, total, mode);
                locals
            });
            // Oracle: gather every instance, sum, normalize.
            let oracle: Vec<f32> = (0..len)
                .map(|i| {
                    let sum: f32 = (0..4)
                        .flat_map(|r| (0..replicas_of(r)).map(move |s| value_of(r, s, i)))
                        .sum();
                    if mode == ReduceMode::Mean {
                        sum / total as f32
                    } else {
                        sum
                    }
                })
                .collect();
            for (rank, per_rank) in results.iter().enumerate() {
                for (a, b) in per_rank[0].iter().zip(&oracle) {
                    assert!((a - b).abs() < 1e-4, "mode {mode:?} rank {rank}: {a} vs {b}");
                }
                for (s, sibling) in per_rank.iter().enumerate().skip(1) {
                    let untouched: Vec<f32> = (0..len).map(|i| value_of(rank, s, i)).collect();
                    assert_eq!(sibling, &untouched, "mode {mode:?} rank {rank} sibling {s}");
                }
            }
        }
    }
}
