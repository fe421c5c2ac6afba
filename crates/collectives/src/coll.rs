//! Collective operations: ring all-reduce and all-to-all(v).
//!
//! The ring algorithm is the one whose volume the paper reasons about:
//! a ring all-reduce over `r` ranks moves `2(r−1)/r` of the buffer per rank
//! (§4.1), half in its reduce-scatter and half in its all-gather. All
//! operations are SPMD: every member of the group must call the same
//! operation with the same base tag.

use crate::ctx::RankCtx;
use crate::error::CommError;
use crate::group::CommGroup;
use crate::payload::Payload;

/// Boundaries of chunk `i` when splitting `len` elements into `parts`
/// near-equal contiguous chunks (remainder spread over the first chunks).
pub fn chunk_range(len: usize, parts: usize, i: usize) -> (usize, usize) {
    debug_assert!(i < parts);
    let base = len / parts;
    let rem = len % parts;
    let start = i * base + i.min(rem);
    let size = base + usize::from(i < rem);
    (start, start + size)
}

impl RankCtx {
    /// In-place ring all-reduce (sum) of `data` across `group`.
    ///
    /// # Errors
    /// Returns [`CommError::NotInGroup`] if this rank is not a member.
    pub fn allreduce_sum(
        &mut self,
        group: &CommGroup,
        tag: u64,
        data: &mut [f32],
    ) -> Result<(), CommError> {
        let idx = group.index_of(self.rank()).ok_or(CommError::NotInGroup { rank: self.rank() })?;
        let m = group.size();
        if m == 1 || data.is_empty() {
            return Ok(());
        }
        let mut spare = Vec::new();
        self.reduce_scatter_in_place(group, idx, tag, data, &mut spare)?;
        self.all_gather_in_place(group, idx, Self::subop_tag(tag, 1), data, &mut spare)?;
        self.recycle_f32(spare);
        Ok(())
    }

    /// A copy of `src` to send, in `spare` — the buffer the ring's previous
    /// step received, which holds the chunk this step forwards, so it fits —
    /// or, at the first step, from the wire-buffer free list. A small
    /// all-reduce (the loss and statistics, every iteration) then draws one
    /// buffer per call from the allocator instead of one per step.
    fn ring_copy(&self, spare: &mut Vec<f32>, src: &[f32]) -> Vec<f32> {
        let mut out = std::mem::take(spare);
        if out.capacity() < src.len() {
            self.recycle_f32(out);
            return self.pooled_copy_f32(src);
        }
        out.clear();
        out.extend_from_slice(src);
        out
    }

    /// Ring reduce-scatter over the full buffer: on return, this rank's
    /// owned chunk (`chunk_range(len, m, (idx + 1) % m)`) holds the global
    /// sum; other regions hold partial sums and must be treated as scratch.
    fn reduce_scatter_in_place(
        &mut self,
        group: &CommGroup,
        idx: usize,
        tag: u64,
        data: &mut [f32],
        spare: &mut Vec<f32>,
    ) -> Result<(), CommError> {
        let m = group.size();
        let next = group.ranks()[(idx + 1) % m];
        let prev = group.ranks()[(idx + m - 1) % m];
        for step in 0..m - 1 {
            let send_chunk = (idx + m - step) % m;
            let recv_chunk = (idx + m - step - 1) % m;
            let (ss, se) = chunk_range(data.len(), m, send_chunk);
            let outgoing = self.ring_copy(spare, &data[ss..se]);
            self.send(next, Self::step_tag(tag, step as u64), outgoing)?;
            let incoming = self.recv_f32(prev, Self::step_tag(tag, step as u64))?;
            let (rs, re) = chunk_range(data.len(), m, recv_chunk);
            debug_assert_eq!(incoming.len(), re - rs);
            for (d, v) in data[rs..re].iter_mut().zip(&incoming) {
                *d += v;
            }
            *spare = incoming;
        }
        Ok(())
    }

    /// Ring all-gather assuming rank `idx` currently owns reduced chunk
    /// `(idx + 1) % m`; on return all chunks are globally reduced.
    fn all_gather_in_place(
        &mut self,
        group: &CommGroup,
        idx: usize,
        tag: u64,
        data: &mut [f32],
        spare: &mut Vec<f32>,
    ) -> Result<(), CommError> {
        let m = group.size();
        let next = group.ranks()[(idx + 1) % m];
        let prev = group.ranks()[(idx + m - 1) % m];
        for step in 0..m - 1 {
            let send_chunk = (idx + 1 + m - step) % m;
            let recv_chunk = (idx + m - step) % m;
            let (ss, se) = chunk_range(data.len(), m, send_chunk);
            let outgoing = self.ring_copy(spare, &data[ss..se]);
            self.send(next, Self::step_tag(tag, step as u64), outgoing)?;
            let incoming = self.recv_f32(prev, Self::step_tag(tag, step as u64))?;
            let (rs, re) = chunk_range(data.len(), m, recv_chunk);
            debug_assert_eq!(incoming.len(), re - rs);
            data[rs..re].copy_from_slice(&incoming);
            *spare = incoming;
        }
        Ok(())
    }

    /// All-reduce (sum) of small `u64` counters via gather-to-root +
    /// broadcast. Used for the per-iteration expert-popularity aggregation
    /// (§3.4) whose tensors hold one element per expert class.
    pub fn allreduce_u64_sum(
        &mut self,
        group: &CommGroup,
        tag: u64,
        data: &mut [u64],
    ) -> Result<(), CommError> {
        let idx = group.index_of(self.rank()).ok_or(CommError::NotInGroup { rank: self.rank() })?;
        let m = group.size();
        if m == 1 {
            return Ok(());
        }
        let root = group.ranks()[0];
        if idx == 0 {
            for &peer in &group.ranks()[1..] {
                let contrib = self.recv_u64(peer, tag)?;
                debug_assert_eq!(contrib.len(), data.len());
                for (d, v) in data.iter_mut().zip(&contrib) {
                    *d += v;
                }
            }
            for &peer in &group.ranks()[1..] {
                self.send(peer, Self::subop_tag(tag, 3), data.to_vec())?;
            }
        } else {
            self.send(root, tag, data.to_vec())?;
            let summed = self.recv_u64(root, Self::subop_tag(tag, 3))?;
            data.copy_from_slice(&summed);
        }
        Ok(())
    }

    /// Variable-size all-to-all of `f32` buffers: member `i` of the group
    /// receives `bufs[i]` from every member. `bufs.len()` must equal the
    /// group size. The exchange happens in place: the returned vector is
    /// `bufs` itself with every peer's entry replaced by what that peer
    /// sent, and this rank's own entry left where it was (moved, not
    /// copied).
    pub fn alltoallv_f32(
        &mut self,
        group: &CommGroup,
        tag: u64,
        bufs: Vec<Vec<f32>>,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        self.alltoallv(group, tag, bufs, Self::recv_f32)
    }

    /// [`RankCtx::alltoallv_f32`] for `u64` metadata buffers.
    pub fn alltoallv_u64(
        &mut self,
        group: &CommGroup,
        tag: u64,
        bufs: Vec<Vec<u64>>,
    ) -> Result<Vec<Vec<u64>>, CommError> {
        self.alltoallv(group, tag, bufs, Self::recv_u64)
    }

    fn alltoallv<T>(
        &mut self,
        group: &CommGroup,
        tag: u64,
        mut bufs: Vec<Vec<T>>,
        recv: fn(&mut Self, usize, u64) -> Result<Vec<T>, CommError>,
    ) -> Result<Vec<Vec<T>>, CommError>
    where
        Vec<T>: Into<Payload>,
    {
        let idx = group.index_of(self.rank()).ok_or(CommError::NotInGroup { rank: self.rank() })?;
        assert_eq!(bufs.len(), group.size(), "one send buffer per group member");
        for (j, &peer) in group.ranks().iter().enumerate() {
            if j != idx {
                self.send(peer, tag, std::mem::take(&mut bufs[j]))?;
            }
        }
        for (j, &peer) in group.ranks().iter().enumerate() {
            if j != idx {
                bufs[j] = recv(self, peer, tag)?;
            }
        }
        Ok(bufs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};
    use crate::group::CommGroup;

    #[test]
    fn chunk_range_covers_exactly() {
        for (len, parts) in [(10usize, 3usize), (7, 7), (5, 8), (16, 4), (0, 3)] {
            let mut covered = 0;
            for i in 0..parts {
                let (s, e) = chunk_range(len, parts, i);
                assert_eq!(s, covered, "chunks must be contiguous");
                covered = e;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn allreduce_sums_across_all_ranks() {
        for n in [2usize, 3, 4, 7, 16] {
            let (results, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
                let group = ctx.groups().world();
                let mut data: Vec<f32> = (0..10).map(|i| (ctx.rank() * 10 + i) as f32).collect();
                ctx.allreduce_sum(&group, 42, &mut data).unwrap();
                data
            });
            let expect: Vec<f32> =
                (0..10).map(|i| (0..n).map(|r| (r * 10 + i) as f32).sum()).collect();
            for (r, res) in results.iter().enumerate() {
                for (a, b) in res.iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-3, "n={n} rank={r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn allreduce_on_subgroup_leaves_others_untouched() {
        let (results, _) = Cluster::run(ClusterSpec::flat(4), |ctx| {
            let group = ctx.groups().range(1, 2); // ranks 1,2
            let mut data = vec![ctx.rank() as f32; 4];
            if group.contains(ctx.rank()) {
                ctx.allreduce_sum(&group, 7, &mut data).unwrap();
            }
            data[0]
        });
        assert_eq!(results, vec![0.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn allreduce_volume_matches_ring_formula() {
        // Ring all-reduce over m ranks moves 2(m-1)/m * L floats per rank.
        let n = 4;
        let len = 64usize;
        let (_, report) = Cluster::run(ClusterSpec::flat(n), |ctx| {
            let group = ctx.groups().world();
            let mut data = vec![1.0f32; len];
            ctx.allreduce_sum(&group, 3, &mut data).unwrap();
        });
        let expect = (n as u64) * 2 * (n as u64 - 1) / (n as u64) * (len as u64) * 4;
        assert_eq!(report.total_bytes(), expect);
    }

    #[test]
    fn packed_placement_moves_fewer_inter_node_bytes_than_spread() {
        // §4.1: 4 replicas of one class, tensor of 1024 floats. Packed onto
        // 2 ranks x 2 slots the ring spans 2 ranks; spread over 4 ranks x 1
        // slot it spans 4.
        let len = 1024usize;
        let ring_bytes = |ranks: usize| {
            let (_, report) = Cluster::run(ClusterSpec::flat(4), |ctx| {
                if ctx.rank() < ranks {
                    let group = ctx.groups().range(0, ranks);
                    let mut grad = vec![1.0f32; len];
                    ctx.allreduce_sum(&group, 1, &mut grad).unwrap();
                }
            });
            report.inter_node_bytes
        };
        let (packed, spread) = (ring_bytes(2), ring_bytes(4));
        assert!(packed < spread, "packed {packed} should beat spread {spread}");
        // Ring volume: per rank 2(m-1)/m * len * 4 bytes.
        assert_eq!(packed, 2 * (2 * 1024 * 4 / 2));
        assert_eq!(spread, 4 * (2 * 3 * 1024 * 4 / 4));
    }

    #[test]
    fn single_rank_many_slots_needs_no_network() {
        // Every replica on one rank: the class's host group has one member,
        // so the sync is the gradient as backward left it, and no link.
        let (results, report) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() != 0 {
                return Vec::new();
            }
            let group = ctx.groups().range(0, 1);
            let mut grad = vec![6.0f32, 9.0];
            ctx.allreduce_sum(&group, 5, &mut grad).unwrap();
            grad
        });
        assert_eq!(results[0], vec![6.0, 9.0]);
        assert_eq!(report.total_bytes(), 0, "a single-member sync must be link-free");
    }

    #[test]
    fn u64_allreduce_sums_popularity_counters() {
        let (results, _) = Cluster::run(ClusterSpec::flat(4), |ctx| {
            let group = ctx.groups().world();
            let mut counts = vec![ctx.rank() as u64, 1, 0];
            ctx.allreduce_u64_sum(&group, 13, &mut counts).unwrap();
            counts
        });
        for r in results {
            assert_eq!(r, vec![6, 4, 0]);
        }
    }

    #[test]
    fn alltoallv_routes_buffers() {
        let n = 3;
        let (results, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
            let group = ctx.groups().world();
            // Rank r sends [r*10 + j] to member j.
            let bufs: Vec<Vec<f32>> = (0..n).map(|j| vec![(ctx.rank() * 10 + j) as f32]).collect();
            ctx.alltoallv_f32(&group, 21, bufs).unwrap()
        });
        for (j, res) in results.iter().enumerate() {
            for (r, buf) in res.iter().enumerate() {
                assert_eq!(buf, &vec![(r * 10 + j) as f32], "dest {j} from {r}");
            }
        }
    }

    #[test]
    fn alltoallv_hands_back_the_own_buffer_itself() {
        Cluster::run(ClusterSpec::flat(2), |ctx| {
            let group = ctx.groups().world();
            let bufs: Vec<Vec<f32>> = (0..2).map(|j| vec![j as f32; 5]).collect();
            let meta: Vec<Vec<u64>> = (0..2).map(|j| vec![j as u64; 3]).collect();
            let (sent, sent_meta) = (bufs[ctx.rank()].as_ptr(), meta[ctx.rank()].as_ptr());
            let got = ctx.alltoallv_f32(&group, 21, bufs).unwrap();
            let got_meta = ctx.alltoallv_u64(&group, 22, meta).unwrap();
            assert_eq!(got[ctx.rank()].as_ptr(), sent, "own f32 share was reallocated");
            assert_eq!(got_meta[ctx.rank()].as_ptr(), sent_meta, "own u64 share was reallocated");
            assert_eq!(got, vec![vec![ctx.rank() as f32; 5]; 2]);
        });
    }

    #[test]
    fn alltoallv_with_empty_buffers() {
        let (results, _) = Cluster::run(ClusterSpec::flat(3), |ctx| {
            let group = ctx.groups().world();
            // Only rank 0 sends anything, and only to rank 2.
            let bufs: Vec<Vec<f32>> = (0..3)
                .map(|j| if ctx.rank() == 0 && j == 2 { vec![5.0] } else { vec![] })
                .collect();
            ctx.alltoallv_f32(&group, 33, bufs).unwrap()
        });
        assert_eq!(results[2][0], vec![5.0]);
        assert!(results[0].iter().all(|b| b.is_empty()));
        assert!(results[1].iter().all(|b| b.is_empty()));
    }

    #[test]
    fn non_member_gets_error() {
        let (results, _) = Cluster::run(ClusterSpec::flat(3), |ctx| {
            let group = CommGroup::range(0, 2);
            let mut data = vec![0.0f32];
            ctx.allreduce_sum(&group, 1, &mut data).is_err()
        });
        assert_eq!(results, vec![false, false, true]);
    }
}
