//! Thread-per-rank cluster runtime.

use crate::buffers::WireBuffers;
use crate::ctx::{Mailbox, RankCtx};
use crate::fault::{FaultInjector, FaultPlan};
use crate::group::GroupRegistry;
use crate::traffic::{TrafficReport, TrafficStats};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

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

/// The first panic of a [`Cluster::run`] rank, once one happened: from then
/// on every peer's receive fails with [`crate::CommError::PeerPanicked`]
/// and every barrier wait panics, naming that rank, instead of blocking on
/// a rank that will never send or arrive.
#[derive(Default)]
pub(crate) struct Poison(OnceLock<(usize, String)>);

impl Poison {
    /// The rank that panicked first, and its panic message.
    pub(crate) fn get(&self) -> Option<&(usize, String)> {
        self.0.get()
    }
}

/// A reusable barrier over every rank that a poisoned cluster breaks (a
/// `std::sync::Barrier` cannot be woken once a member is gone).
pub(crate) struct RankBarrier {
    ranks: usize,
    /// Ranks arrived at the current generation, and the generation.
    state: Mutex<(usize, u64)>,
    cv: Condvar,
    poison: Arc<Poison>,
}

impl RankBarrier {
    fn new(ranks: usize, poison: Arc<Poison>) -> Self {
        Self { ranks, state: Mutex::new((0, 0)), cv: Condvar::new(), poison }
    }

    fn lock(&self) -> MutexGuard<'_, (usize, u64)> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until every rank has arrived.
    ///
    /// # Panics
    /// Panics with "rank r panicked: …" once a rank of the cluster has.
    pub(crate) fn wait(&self) {
        let mut state = self.lock();
        let generation = state.1;
        state.0 += 1;
        if state.0 == self.ranks {
            *state = (0, generation + 1);
            self.cv.notify_all();
            return;
        }
        while state.1 == generation {
            if let Some((rank, message)) = self.poison.get() {
                drop(state);
                panic!("rank {rank} panicked: {message}");
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every waiter to look at the poison.
    fn wake(&self) {
        let _state = self.lock();
        self.cv.notify_all();
    }
}

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
    /// A panic on any rank poisons the cluster: every peer's next (or
    /// current) receive fails with [`crate::CommError::PeerPanicked`] and
    /// every barrier wait panics, both naming the rank, so the peers wind
    /// down instead of blocking. The first rank's panic then propagates to
    /// the caller, after all threads are joined: a failing SPMD test fails
    /// loudly and at once instead of deadlocking.
    pub fn run<T, F>(spec: ClusterSpec, f: F) -> (Vec<T>, TrafficReport)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        let poison = Arc::new(Poison::default());
        let (mut results, report) = Self::run_inner(spec, None, Some(&poison), f);
        if let Some(&(rank, _)) = poison.get() {
            let first = std::mem::replace(&mut results[rank], Err(Box::new(())));
            resume_unwind(first.err().expect("the poisoning rank panicked"));
        }
        let results = results.into_iter().map(|r| r.unwrap_or_else(|e| resume_unwind(e))).collect();
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
        let (results, report) = Self::run_inner(spec, Some(Arc::new(plan)), None, f);
        (results.into_iter().map(|r| r.map_err(|e| panic_message(&*e))).collect(), report)
    }

    /// Runs the ranks; with `poisons`, a rank's panic is recorded there
    /// and wakes every peer before it unwinds on.
    fn run_inner<T, F>(
        spec: ClusterSpec,
        plan: Option<Arc<FaultPlan>>,
        poisons: Option<&Arc<Poison>>,
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
        let poison = poisons.cloned().unwrap_or_default();
        let barrier = Arc::new(RankBarrier::new(spec.ranks, Arc::clone(&poison)));
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
                let poison = Arc::clone(&poison);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mailbox = Mailbox::new(rank, senders, rx, injector, Arc::clone(&poison));
                    let wake = Arc::clone(&barrier);
                    let mut ctx =
                        RankCtx::new(rank, spec, mailbox, barrier, traffic, groups, buffers);
                    let out = if poisons.is_some() {
                        catch_unwind(AssertUnwindSafe(|| f(&mut ctx))).unwrap_or_else(|e| {
                            if poison.0.set((rank, panic_message(&*e))).is_ok() {
                                ctx.wake_peers();
                                wake.wake();
                            }
                            resume_unwind(e)
                        })
                    } else {
                        f(&mut ctx)
                    };
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
fn panic_message(e: &(dyn Any + Send)) -> String {
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
    fn a_rank_panicking_mid_collective_ends_the_run_at_once_naming_it() {
        use crate::CommError;
        use std::time::{Duration, Instant};
        let seen = Mutex::new(Vec::new());
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            Cluster::run(ClusterSpec::flat(3), |ctx| {
                let world = ctx.groups().world();
                if ctx.rank() == 1 {
                    panic!("boom in the middle of the all-reduce");
                }
                // Rank 0 receives from rank 1 in the ring; rank 2 waits on
                // rank 0's forwarded chunk, then on the barrier.
                let mut data = vec![ctx.rank() as f32; 6];
                let result = ctx.allreduce_sum(&world, 1, &mut data);
                seen.lock().unwrap().push((ctx.rank(), result.map_err(|e| e.to_string())));
                if ctx.rank() == 2 {
                    ctx.barrier();
                }
            })
        }));
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
        let payload = run.expect_err("the run fails");
        assert_eq!(panic_message(&*payload), "boom in the middle of the all-reduce");
        let seen = seen.into_inner().unwrap();
        let rank0 = seen.iter().find(|(r, _)| *r == 0).expect("rank 0 came back");
        assert_eq!(rank0.1, Err("rank 1 panicked: boom in the middle of the all-reduce".into()));
        let err = CommError::PeerPanicked { rank: 1, message: "x".into() };
        assert_eq!(err.to_string(), "rank 1 panicked: x");
    }

    #[test]
    fn a_barrier_wait_breaks_when_a_rank_panics() {
        use std::time::{Duration, Instant};
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            Cluster::run(ClusterSpec::flat(2), |ctx| {
                if ctx.rank() == 1 {
                    std::thread::sleep(Duration::from_millis(20));
                    panic!("late");
                }
                let waited = catch_unwind(AssertUnwindSafe(|| ctx.barrier()));
                panic_message(&*waited.expect_err("the barrier breaks"))
            })
        }));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(panic_message(&*run.expect_err("rank 1's panic propagates")), "late");
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
