//! Cluster-level wiring: one `ClusterTelemetry` shared by all ranks, one
//! cheap `TelemetryHandle` per rank thread.
//!
//! The engines assemble an [`IterationReport`] at the end of each iteration
//! by draining the per-rank phase accumulators (and, in the distributed
//! engines, the traffic counters) and hand it to `emit`, which fans out to
//! every registered sink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, MetricRegistry};
use crate::phase::{Phase, PhaseAccumulator, ScopedTimer, NUM_PHASES};
use crate::report::IterationReport;
use crate::sink::Sink;

/// Shared telemetry state for one training cluster (or one single-process
/// trainer, which is just the 1-rank case).
pub struct ClusterTelemetry {
    registry: Arc<MetricRegistry>,
    ranks: Vec<Arc<PhaseAccumulator>>,
    sinks: Mutex<Vec<Arc<dyn Sink>>>,
    enabled: bool,
    iterations_emitted: AtomicU64,
}

impl ClusterTelemetry {
    pub fn new(num_ranks: usize) -> Arc<Self> {
        Self::build(num_ranks, true)
    }

    /// Telemetry-off twin: spans become thread-local markers with no timing
    /// sink and `emit` is a no-op. Lets call sites keep one code path.
    pub fn disabled(num_ranks: usize) -> Arc<Self> {
        Self::build(num_ranks, false)
    }

    fn build(num_ranks: usize, enabled: bool) -> Arc<Self> {
        Arc::new(Self {
            registry: MetricRegistry::new(),
            ranks: (0..num_ranks.max(1)).map(|_| Arc::new(PhaseAccumulator::new())).collect(),
            sinks: Mutex::new(Vec::new()),
            enabled,
            iterations_emitted: AtomicU64::new(0),
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn registry(&self) -> &Arc<MetricRegistry> {
        &self.registry
    }

    pub fn add_sink(&self, sink: Arc<dyn Sink>) {
        self.sinks.lock().expect("sinks poisoned").push(sink);
    }

    /// Per-rank handle; cheap to clone into the rank's thread.
    pub fn handle(self: &Arc<Self>, rank: usize) -> TelemetryHandle {
        TelemetryHandle {
            rank,
            enabled: self.enabled,
            acc: self.ranks[rank.min(self.ranks.len() - 1)].clone(),
            registry: self.registry.clone(),
        }
    }

    /// Drain every rank's per-phase ns, resetting the accumulators for the
    /// next iteration.
    pub fn drain_phase_ns(&self) -> Vec<[u64; NUM_PHASES]> {
        self.ranks.iter().map(|acc| acc.drain()).collect()
    }

    /// Fan a finished report out to all sinks (no-op when disabled).
    pub fn emit(&self, report: &IterationReport) {
        if !self.enabled {
            return;
        }
        self.iterations_emitted.fetch_add(1, Ordering::Relaxed);
        for sink in self.sinks.lock().expect("sinks poisoned").iter() {
            sink.emit(report);
        }
    }

    pub fn iterations_emitted(&self) -> u64 {
        self.iterations_emitted.load(Ordering::Relaxed)
    }

    pub fn flush(&self) {
        for sink in self.sinks.lock().expect("sinks poisoned").iter() {
            sink.flush();
        }
    }
}

/// One rank's entry point into the telemetry subsystem. Owns pre-resolved
/// `Arc`s so hot-path calls never touch the registry mutex.
#[derive(Clone)]
pub struct TelemetryHandle {
    rank: usize,
    enabled: bool,
    acc: Arc<PhaseAccumulator>,
    registry: Arc<MetricRegistry>,
}

impl TelemetryHandle {
    /// Standalone no-op handle for call sites constructed without telemetry.
    pub fn disabled() -> Self {
        TelemetryHandle {
            rank: 0,
            enabled: false,
            acc: Arc::new(PhaseAccumulator::new()),
            registry: MetricRegistry::new(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a phase span. Always sets the thread-local phase (so byte
    /// attribution works); records timing only when telemetry is enabled.
    pub fn span(&self, phase: Phase) -> ScopedTimer<'_> {
        if self.enabled {
            ScopedTimer::with_accumulator(phase, &self.acc)
        } else {
            ScopedTimer::marker(phase)
        }
    }

    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.acc.get(phase)
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    pub fn registry(&self) -> &Arc<MetricRegistry> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;

    #[test]
    fn handles_accumulate_per_rank() {
        let ct = ClusterTelemetry::new(2);
        let h0 = ct.handle(0);
        let h1 = ct.handle(1);
        {
            let _s = h0.span(Phase::Routing);
        }
        {
            let _s = h1.span(Phase::ExpertFfn);
        }
        let drained = ct.drain_phase_ns();
        assert!(drained[0][Phase::Routing.index()] > 0);
        assert_eq!(drained[0][Phase::ExpertFfn.index()], 0);
        assert!(drained[1][Phase::ExpertFfn.index()] > 0);
        // Drained: a second drain sees zeros.
        let again = ct.drain_phase_ns();
        assert_eq!(again[0][Phase::Routing.index()], 0);
    }

    #[test]
    fn disabled_cluster_skips_sinks() {
        let ct = ClusterTelemetry::disabled(1);
        let ring = Arc::new(RingBufferSink::new(4));
        ct.add_sink(ring.clone());
        ct.emit(&IterationReport::new("symi", 0));
        assert!(ring.is_empty());
        assert_eq!(ct.iterations_emitted(), 0);
    }

    #[test]
    fn emit_reaches_all_sinks() {
        let ct = ClusterTelemetry::new(1);
        let a = Arc::new(RingBufferSink::new(4));
        let b = Arc::new(RingBufferSink::new(4));
        ct.add_sink(a.clone());
        ct.add_sink(b.clone());
        ct.emit(&IterationReport::new("symi", 3));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(ct.iterations_emitted(), 1);
    }
}
