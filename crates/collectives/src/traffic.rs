//! Per-link-class traffic accounting with per-phase attribution.
//!
//! Every byte a rank sends is attributed to a [`LinkClass`] based on whether
//! the destination rank lives on the same node, *and* to the telemetry phase
//! active on the sending thread (see `symi_telemetry::current_phase`) — so a
//! dispatch all-to-all and a weight-distribution transfer of the same size
//! are distinguishable in the `IterationReport`. `symi-netsim` prices these
//! counters with the paper's bandwidth parameters; the counters are also how
//! the test suite verifies the paper's data-volume identities (e.g.
//! `D_G = sNG` for both SYMI and the static baseline, §3.3-II).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use symi_telemetry::{current_phase, Phase, NUM_LINK_CLASSES, NUM_PHASES};

use crate::tag::WirePhase;

const NUM_WIRE_PHASES: usize = WirePhase::ALL.len();

// Canonical definition lives in symi-telemetry (the bottom of the workspace
// graph); re-exported here so existing imports keep working.
pub use symi_telemetry::LinkClass;

/// Shared, thread-safe traffic counters for one cluster execution.
#[derive(Debug, Default)]
pub struct TrafficStats {
    intra_bytes: AtomicU64,
    inter_bytes: AtomicU64,
    host_dev_bytes: AtomicU64,
    intra_msgs: AtomicU64,
    inter_msgs: AtomicU64,
    /// `phase_bytes[phase][class]`, attributed via the sender thread's
    /// active telemetry span.
    phase_bytes: [[AtomicU64; NUM_LINK_CLASSES]; NUM_PHASES],
    /// Bytes and messages sent between ranks, by the [`WirePhase`] of their
    /// structured tag — the wire's own phase, which tells apart what one
    /// telemetry span covers (`Phase::GradComm` spans the gradient return,
    /// the replica reduce and Algorithm 2's collect).
    wire_bytes: [AtomicU64; NUM_WIRE_PHASES],
    wire_msgs: [AtomicU64; NUM_WIRE_PHASES],
    per_rank_sent: Mutex<Vec<u64>>,
    per_rank_recv: Mutex<Vec<u64>>,
}

impl TrafficStats {
    pub fn new(ranks: usize) -> Arc<Self> {
        Arc::new(Self {
            per_rank_sent: Mutex::new(vec![0; ranks]),
            per_rank_recv: Mutex::new(vec![0; ranks]),
            ..Default::default()
        })
    }

    #[inline]
    fn attribute(&self, class: LinkClass, bytes: u64) {
        self.phase_bytes[current_phase().index()][class.index()]
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a point-to-point transfer of `bytes` from `from` to `to`.
    pub fn record(&self, class: LinkClass, from: usize, to: usize, bytes: u64) {
        match class {
            LinkClass::IntraNode => {
                self.intra_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.intra_msgs.fetch_add(1, Ordering::Relaxed);
            }
            LinkClass::InterNode => {
                self.inter_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.inter_msgs.fetch_add(1, Ordering::Relaxed);
            }
            LinkClass::HostDevice => {
                self.host_dev_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        self.attribute(class, bytes);
        self.per_rank_sent.lock().expect("traffic poisoned")[from] += bytes;
        self.per_rank_recv.lock().expect("traffic poisoned")[to] += bytes;
    }

    /// Attributes a recorded transfer of `bytes` to its tag's wire phase.
    pub(crate) fn record_wire_phase(&self, phase: WirePhase, bytes: u64) {
        self.wire_bytes[phase as usize].fetch_add(bytes, Ordering::Relaxed);
        self.wire_msgs[phase as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// `(bytes, messages)` sent between ranks under `phase`'s tags so far.
    pub fn wire_phase(&self, phase: WirePhase) -> (u64, u64) {
        let i = phase as usize;
        (self.wire_bytes[i].load(Ordering::Relaxed), self.wire_msgs[i].load(Ordering::Relaxed))
    }

    /// Records a host↔device staging transfer on `rank` (optimizer offload
    /// traffic; does not involve a peer).
    pub(crate) fn record_host_device(&self, rank: usize, bytes: u64) {
        self.host_dev_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.attribute(LinkClass::HostDevice, bytes);
        self.per_rank_sent.lock().expect("traffic poisoned")[rank] += bytes;
    }

    fn phase_bytes_snapshot(&self) -> [[u64; NUM_LINK_CLASSES]; NUM_PHASES] {
        std::array::from_fn(|p| {
            std::array::from_fn(|c| self.phase_bytes[p][c].load(Ordering::Relaxed))
        })
    }

    /// Snapshot and reset only the per-phase attribution matrix — what the
    /// engines drain once per iteration to fill `IterationReport`.
    pub fn drain_phase_bytes(&self) -> [[u64; NUM_LINK_CLASSES]; NUM_PHASES] {
        std::array::from_fn(|p| {
            std::array::from_fn(|c| self.phase_bytes[p][c].swap(0, Ordering::Relaxed))
        })
    }

    /// Snapshot of the counters.
    pub fn report(&self) -> TrafficReport {
        TrafficReport {
            intra_node_bytes: self.intra_bytes.load(Ordering::Relaxed),
            inter_node_bytes: self.inter_bytes.load(Ordering::Relaxed),
            host_device_bytes: self.host_dev_bytes.load(Ordering::Relaxed),
            intra_node_msgs: self.intra_msgs.load(Ordering::Relaxed),
            inter_node_msgs: self.inter_msgs.load(Ordering::Relaxed),
            phase_bytes: self.phase_bytes_snapshot(),
            per_rank_sent_bytes: self.per_rank_sent.lock().expect("traffic poisoned").clone(),
            per_rank_recv_bytes: self.per_rank_recv.lock().expect("traffic poisoned").clone(),
        }
    }

    /// Resets all counters (used between measured phases).
    pub fn reset(&self) {
        self.intra_bytes.store(0, Ordering::Relaxed);
        self.inter_bytes.store(0, Ordering::Relaxed);
        self.host_dev_bytes.store(0, Ordering::Relaxed);
        self.intra_msgs.store(0, Ordering::Relaxed);
        self.inter_msgs.store(0, Ordering::Relaxed);
        for row in &self.phase_bytes {
            for cell in row {
                cell.store(0, Ordering::Relaxed);
            }
        }
        for cell in self.wire_bytes.iter().chain(&self.wire_msgs) {
            cell.store(0, Ordering::Relaxed);
        }
        self.per_rank_sent.lock().expect("traffic poisoned").iter_mut().for_each(|v| *v = 0);
        self.per_rank_recv.lock().expect("traffic poisoned").iter_mut().for_each(|v| *v = 0);
    }
}

/// Immutable snapshot of traffic counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficReport {
    pub intra_node_bytes: u64,
    pub inter_node_bytes: u64,
    pub host_device_bytes: u64,
    pub intra_node_msgs: u64,
    pub inter_node_msgs: u64,
    /// `phase_bytes[phase][class]` as attributed by active telemetry spans.
    /// Bytes recorded outside any span land in `Phase::Other`.
    pub phase_bytes: [[u64; NUM_LINK_CLASSES]; NUM_PHASES],
    pub per_rank_sent_bytes: Vec<u64>,
    pub per_rank_recv_bytes: Vec<u64>,
}

impl TrafficReport {
    /// Total bytes moved over any link.
    pub fn total_bytes(&self) -> u64 {
        self.intra_node_bytes + self.inter_node_bytes + self.host_device_bytes
    }

    /// Bytes attributed to one phase, summed over link classes.
    pub fn bytes_in_phase(&self, phase: Phase) -> u64 {
        self.phase_bytes[phase.index()].iter().sum()
    }

    /// Maximum bytes sent by any single rank — a hotspot indicator used by
    /// the gradient-collection load-balance ablation (§4.3).
    pub(crate) fn max_rank_sent(&self) -> u64 {
        self.per_rank_sent_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Ratio of the busiest sender to the mean sender (1.0 = perfectly
    /// balanced).
    pub fn send_imbalance(&self) -> f64 {
        let n = self.per_rank_sent_bytes.len();
        if n == 0 {
            return 1.0;
        }
        let total: u64 = self.per_rank_sent_bytes.iter().sum();
        if total == 0 {
            return 1.0;
        }
        self.max_rank_sent() as f64 / (total as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_telemetry::ScopedTimer;

    #[test]
    fn record_splits_by_class() {
        let t = TrafficStats::new(4);
        t.record(LinkClass::IntraNode, 0, 1, 100);
        t.record(LinkClass::InterNode, 1, 2, 250);
        t.record_host_device(3, 42);
        let r = t.report();
        assert_eq!(r.intra_node_bytes, 100);
        assert_eq!(r.inter_node_bytes, 250);
        assert_eq!(r.host_device_bytes, 42);
        assert_eq!(r.total_bytes(), 392);
        assert_eq!(r.per_rank_sent_bytes, vec![100, 250, 0, 42]);
        assert_eq!(r.per_rank_recv_bytes, vec![0, 100, 250, 0]);
    }

    #[test]
    fn imbalance_of_uniform_traffic_is_one() {
        let t = TrafficStats::new(4);
        for r in 0..4 {
            t.record(LinkClass::InterNode, r, (r + 1) % 4, 10);
        }
        assert!((t.report().send_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let t = TrafficStats::new(2);
        t.record(LinkClass::InterNode, 0, 1, 99);
        t.reset();
        assert_eq!(t.report().total_bytes(), 0);
        assert_eq!(t.report().per_rank_sent_bytes, vec![0, 0]);
        assert_eq!(t.report().bytes_in_phase(Phase::Other), 0);
    }

    #[test]
    fn sends_count_under_their_tags_wire_phase() {
        use crate::{Cluster, ClusterSpec, TagSpace};
        let (seen, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            let tags = TagSpace::new(0, 3);
            let sync = tags.tag(WirePhase::GradSync, 2, 0);
            let collect = tags.tag(WirePhase::GradCollect, 2, 0);
            if ctx.rank() == 0 {
                ctx.send(1, sync, vec![1.0f32; 5]).unwrap();
                ctx.send(1, collect, vec![1.0f32; 3]).unwrap();
                ctx.send(1, 77, vec![1.0f32; 4]).unwrap(); // raw tag: no phase
            } else {
                for tag in [sync, collect, 77] {
                    ctx.recv(0, tag).unwrap();
                }
            }
            ctx.barrier();
            let t = ctx.traffic();
            let seen = (t.wire_phase(WirePhase::GradSync), t.wire_phase(WirePhase::GradCollect));
            ctx.barrier();
            t.reset();
            (seen, t.wire_phase(WirePhase::GradSync))
        });
        assert_eq!(seen[0], (((20, 1), (12, 1)), (0, 0)));
    }

    #[test]
    fn bytes_attribute_to_active_phase() {
        let t = TrafficStats::new(2);
        t.record(LinkClass::InterNode, 0, 1, 10); // no span -> Other
        {
            let _span = ScopedTimer::marker(Phase::Dispatch);
            t.record(LinkClass::InterNode, 0, 1, 100);
            t.record(LinkClass::IntraNode, 0, 1, 7);
        }
        {
            let _span = ScopedTimer::marker(Phase::WeightComm);
            t.record_host_device(1, 1000);
        }
        let r = t.report();
        assert_eq!(r.bytes_in_phase(Phase::Other), 10);
        assert_eq!(r.bytes_in_phase(Phase::Dispatch), 107);
        assert_eq!(r.phase_bytes[Phase::Dispatch.index()][LinkClass::InterNode.index()], 100);
        assert_eq!(r.phase_bytes[Phase::WeightComm.index()][LinkClass::HostDevice.index()], 1000);
        // Drain returns the matrix and zeroes it; aggregate counters stay.
        let drained = t.drain_phase_bytes();
        assert_eq!(drained[Phase::Dispatch.index()][LinkClass::IntraNode.index()], 7);
        assert_eq!(t.report().bytes_in_phase(Phase::Dispatch), 0);
        assert_eq!(t.report().total_bytes(), 1117);
    }
}
