//! The paper's per-iteration phase taxonomy, thread-local span tracking, and
//! the `ScopedTimer` guard.
//!
//! Each rank runs on its own thread (the workspace's SPMD cluster runtime),
//! so the *active phase* is a thread-local. Entering a span pushes the phase
//! and starts a monotonic clock; dropping the guard pops back to the parent
//! phase and adds the elapsed nanoseconds to the rank's accumulator. Other
//! subsystems (e.g. the collectives traffic counter) read
//! [`current_phase`] to attribute bytes to whatever phase is active on the
//! calling thread — no plumbing through call signatures required.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Iteration phases, mirroring Fig. 12's latency breakdown taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Router gating: matmul + softmax + top-k selection.
    Routing = 0,
    /// Cluster-wide popularity all-reduce (one u64 per expert class).
    PopularityAllReduce = 1,
    /// Token dispatch all-to-all toward expert slots.
    Dispatch = 2,
    /// Expert FFN forward/backward compute.
    ExpertFfn = 3,
    /// Return all-to-all + weighted combine of expert outputs.
    Combine = 4,
    /// Expert gradient collection (Alg. 2 grad phase + EDP all-reduce).
    GradComm = 5,
    /// Adam/optimizer shard update.
    OptimizerStep = 6,
    /// Updated weight distribution to the new placement (Alg. 2 weight phase).
    WeightComm = 7,
    /// Placement scheduling + expert migration bookkeeping.
    Rebalance = 8,
    /// Anything not covered above (dense layers, glue, idle).
    Other = 9,
}

pub const NUM_PHASES: usize = 10;

/// All phases in index order (`PHASES[p as usize] == p`).
pub const PHASES: [Phase; NUM_PHASES] = [
    Phase::Routing,
    Phase::PopularityAllReduce,
    Phase::Dispatch,
    Phase::ExpertFfn,
    Phase::Combine,
    Phase::GradComm,
    Phase::OptimizerStep,
    Phase::WeightComm,
    Phase::Rebalance,
    Phase::Other,
];

impl Phase {
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Routing => "routing",
            Phase::PopularityAllReduce => "popularity_allreduce",
            Phase::Dispatch => "dispatch",
            Phase::ExpertFfn => "expert_ffn",
            Phase::Combine => "combine",
            Phase::GradComm => "grad_comm",
            Phase::OptimizerStep => "optimizer_step",
            Phase::WeightComm => "weight_comm",
            Phase::Rebalance => "rebalance",
            Phase::Other => "other",
        }
    }

    #[cfg(test)]
    pub(crate) fn from_name(name: &str) -> Option<Phase> {
        PHASES.iter().copied().find(|p| p.name() == name)
    }

    pub fn from_index(i: usize) -> Phase {
        PHASES[i]
    }
}

/// Classification of a link crossed by traffic, used to attribute bytes.
///
/// This is the canonical definition; `symi-collectives` re-exports it so the
/// rest of the workspace keeps importing it from either crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum LinkClass {
    /// NVLink-class: both endpoints on the same node.
    IntraNode = 0,
    /// Network-class: endpoints on different nodes.
    InterNode = 1,
    /// PCIe-class: host <-> device staging traffic.
    HostDevice = 2,
}

pub const NUM_LINK_CLASSES: usize = 3;

pub const LINK_CLASSES: [LinkClass; NUM_LINK_CLASSES] =
    [LinkClass::IntraNode, LinkClass::InterNode, LinkClass::HostDevice];

impl LinkClass {
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            LinkClass::IntraNode => "intra_node",
            LinkClass::InterNode => "inter_node",
            LinkClass::HostDevice => "host_device",
        }
    }

    #[cfg(test)]
    pub(crate) fn from_name(name: &str) -> Option<LinkClass> {
        LINK_CLASSES.iter().copied().find(|c| c.name() == name)
    }
}

thread_local! {
    static ACTIVE_PHASE: Cell<u8> = const { Cell::new(Phase::Other as u8) };
}

/// The phase currently active on this thread (rank). `Phase::Other` when no
/// span is open.
#[inline]
pub fn current_phase() -> Phase {
    Phase::from_index(ACTIVE_PHASE.with(|p| p.get()) as usize)
}

/// Per-rank accumulator of nanoseconds spent in each phase.
///
/// Written by that rank's `ScopedTimer`s; read (and drained) by whoever
/// assembles the cluster-wide `IterationReport`.
#[derive(Debug)]
pub(crate) struct PhaseAccumulator {
    ns: [AtomicU64; NUM_PHASES],
}

impl Default for PhaseAccumulator {
    fn default() -> Self {
        Self { ns: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl PhaseAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, phase: Phase, ns: u64) {
        self.ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
    }

    pub fn get(&self, phase: Phase) -> u64 {
        self.ns[phase.index()].load(Ordering::Relaxed)
    }

    /// Snapshot all phases and reset to zero (per-iteration drain).
    pub fn drain(&self) -> [u64; NUM_PHASES] {
        std::array::from_fn(|i| self.ns[i].swap(0, Ordering::Relaxed))
    }
}

/// RAII span guard: sets the thread's active phase on construction, and on
/// drop restores the parent phase and records elapsed ns into the
/// accumulator (when one is attached).
///
/// Nesting is supported: time spent in a child span is *not* subtracted from
/// the parent — each guard reports its own wall time — so top-level phase
/// spans should be disjoint (which is how the engines use them).
pub struct ScopedTimer<'a> {
    phase: Phase,
    prev: u8,
    start: Instant,
    acc: Option<&'a PhaseAccumulator>,
}

impl<'a> ScopedTimer<'a> {
    /// Open a span that records into `acc` when dropped.
    pub(crate) fn with_accumulator(phase: Phase, acc: &'a PhaseAccumulator) -> Self {
        Self::build(phase, Some(acc))
    }

    /// Open a span that only sets the thread-local phase (no timing sink).
    /// Byte attribution via [`current_phase`] still works.
    pub fn marker(phase: Phase) -> ScopedTimer<'static> {
        ScopedTimer::build(phase, None)
    }

    fn build(phase: Phase, acc: Option<&'a PhaseAccumulator>) -> ScopedTimer<'a> {
        let prev = ACTIVE_PHASE.with(|p| p.replace(phase as u8));
        ScopedTimer { phase, prev, start: Instant::now(), acc }
    }

    /// The phase this span tracks.
    pub fn phase(&self) -> Phase {
        self.phase
    }
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        ACTIVE_PHASE.with(|p| p.set(self.prev));
        if let Some(acc) = self.acc {
            acc.add(self.phase, self.start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for p in PHASES {
            assert_eq!(Phase::from_name(p.name()), Some(p));
            assert_eq!(Phase::from_index(p.index()), p);
        }
        for c in LINK_CLASSES {
            assert_eq!(LinkClass::from_name(c.name()), Some(c));
        }
    }

    #[test]
    fn spans_nest_and_restore() {
        assert_eq!(current_phase(), Phase::Other);
        let acc = PhaseAccumulator::new();
        {
            let _outer = ScopedTimer::with_accumulator(Phase::Dispatch, &acc);
            assert_eq!(current_phase(), Phase::Dispatch);
            {
                let _inner = ScopedTimer::with_accumulator(Phase::ExpertFfn, &acc);
                assert_eq!(current_phase(), Phase::ExpertFfn);
            }
            assert_eq!(current_phase(), Phase::Dispatch);
        }
        assert_eq!(current_phase(), Phase::Other);
        assert!(acc.get(Phase::Dispatch) > 0);
        assert!(acc.get(Phase::ExpertFfn) > 0);
    }

    #[test]
    fn drain_resets() {
        let acc = PhaseAccumulator::new();
        acc.add(Phase::Routing, 42);
        let snap = acc.drain();
        assert_eq!(snap[Phase::Routing.index()], 42);
        assert_eq!(acc.get(Phase::Routing), 0);
    }
}
