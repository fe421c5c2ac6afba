//! Thread-per-rank cluster runtime.

use crate::buffers::WireBuffers;
use crate::ctx::{Mailbox, RankCtx};
use crate::fault::{FaultInjector, FaultPlan};
use crate::group::GroupRegistry;
use crate::traffic::{TrafficReport, TrafficStats};
use std::any::Any;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};

/// Shape of the simulated cluster: how many ranks (GPUs) exist and how they
/// map onto nodes. The paper's testbed is 16 nodes × 1 GPU; its analytical
/// model generalizes to `s` slots per rank and multiple GPUs per node, which
/// this spec captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Total ranks (one rank ≙ one GPU).
    pub ranks: usize,
    /// GPUs co-located per node; ranks `[k·g, (k+1)·g)` share node `k`.
    pub gpus_per_node: usize,
}

impl ClusterSpec {
    /// One GPU per node (the paper's evaluation cluster shape).
    pub fn flat(ranks: usize) -> Self {
        Self { ranks, gpus_per_node: 1 }
    }

    /// Node hosting `rank`.
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_node
    }

    /// Whether two ranks share a node (→ intra-node link class).
    pub(crate) fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.gpus_per_node)
    }
}

/// What one rank's thread produced: the closure's value, or the payload of
/// the panic that killed it.
type RankResult<T> = Result<T, Box<dyn Any + Send>>;

/// The cluster executor: spawns one OS thread per rank and runs the same
/// SPMD closure on each.
///
/// ```
/// use symi_collectives::{Cluster, ClusterSpec};
///
/// let (sums, traffic) = Cluster::run(ClusterSpec::flat(4), |ctx| {
///     let world = ctx.groups().world();
///     let mut data = vec![ctx.rank() as f32];
///     ctx.allreduce_sum(&world, 1, &mut data).unwrap();
///     data[0]
/// });
/// assert_eq!(sums, vec![6.0; 4]); // 0 + 1 + 2 + 3 on every rank
/// assert!(traffic.inter_node_bytes > 0);
/// ```
pub struct Cluster;

impl Cluster {
    /// Runs `f` on every rank and returns the per-rank results (indexed by
    /// rank) together with the traffic report of the whole execution.
    ///
    /// A panic on any rank propagates to the caller after all threads are
    /// joined, so a failing SPMD test fails loudly instead of deadlocking.
    pub fn run<T, F>(spec: ClusterSpec, f: F) -> (Vec<T>, TrafficReport)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        let (results, report) = Self::run_inner(spec, None, f);
        let results = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        (results, report)
    }

    /// Runs `f` on every rank under a chaos [`FaultPlan`]. Unlike
    /// [`Cluster::run`], a rank's panic — notably one injected by
    /// `FaultKind::KillRank` — is captured as `Err(message)` for that rank
    /// instead of propagating, so the caller can assert on *how* the
    /// survivors observed the death. All threads are still joined before
    /// returning; surviving ranks need a recv timeout to guarantee that
    /// join terminates once a peer dies.
    pub fn run_with_faults<T, F>(
        spec: ClusterSpec,
        plan: FaultPlan,
        f: F,
    ) -> (Vec<Result<T, String>>, TrafficReport)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        let (results, report) = Self::run_inner(spec, Some(Arc::new(plan)), f);
        (results.into_iter().map(|r| r.map_err(panic_message)).collect(), report)
    }

    fn run_inner<T, F>(
        spec: ClusterSpec,
        plan: Option<Arc<FaultPlan>>,
        f: F,
    ) -> (Vec<RankResult<T>>, TrafficReport)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        assert!(spec.ranks > 0, "cluster needs at least one rank");
        assert!(spec.gpus_per_node > 0, "need at least one GPU per node");

        let traffic = TrafficStats::new(spec.ranks);
        let groups = Arc::new(GroupRegistry::contiguous(spec.ranks));
        let barrier = Arc::new(Barrier::new(spec.ranks));
        let buffers = Arc::new(WireBuffers::new());

        let mut senders = Vec::with_capacity(spec.ranks);
        let mut receivers = Vec::with_capacity(spec.ranks);
        for _ in 0..spec.ranks {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            receivers.push(Some(rx));
        }

        let results = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(spec.ranks);
            for (rank, rx_slot) in receivers.iter_mut().enumerate() {
                let rx = rx_slot.take().expect("receiver taken once");
                let senders = senders.clone();
                let traffic = Arc::clone(&traffic);
                let groups = Arc::clone(&groups);
                let barrier = Arc::clone(&barrier);
                let buffers = Arc::clone(&buffers);
                let injector = plan.as_ref().map(|p| FaultInjector::new(Arc::clone(p), rank));
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut ctx = RankCtx::new(
                        rank,
                        spec,
                        Mailbox::new(rank, senders, rx, injector),
                        barrier,
                        traffic,
                        groups,
                        buffers,
                    );
                    let out = f(&mut ctx);
                    ctx.finish();
                    out
                }));
            }
            // Every handle is joined explicitly, so a panicking rank never
            // re-panics out of the scope on its own.
            handles.into_iter().map(|h| h.join()).collect()
        });

        let report = traffic.report();
        (results, report)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(e: Box<dyn Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping_flat() {
        let spec = ClusterSpec::flat(4);
        assert_eq!(spec.node_of(3), 3);
        assert_eq!(spec.nodes(), 4);
        assert!(!spec.same_node(0, 1));
    }

    #[test]
    fn node_mapping_multi_gpu() {
        let spec = ClusterSpec { ranks: 8, gpus_per_node: 4 };
        assert_eq!(spec.nodes(), 2);
        assert!(spec.same_node(0, 3));
        assert!(!spec.same_node(3, 4));
    }

    #[test]
    fn run_collects_results_in_rank_order() {
        let (results, _) = Cluster::run(ClusterSpec::flat(6), |ctx| ctx.rank() * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn run_single_rank_works() {
        let (results, report) = Cluster::run(ClusterSpec::flat(1), |_| 42);
        assert_eq!(results, vec![42]);
        assert_eq!(report.total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "rank 2 says no")]
    fn rank_panic_propagates() {
        let _ = Cluster::run(ClusterSpec::flat(3), |ctx| {
            if ctx.rank() == 2 {
                panic!("rank 2 says no");
            }
        });
    }
}
