//! symi-telemetry: unified per-iteration observability for the SYMI
//! workspace.
//!
//! Zero external dependencies by design — this crate sits at the bottom of
//! the workspace graph so every other crate (collectives, core engine,
//! model trainer, baselines, benches) reports through the same registry and
//! the same `IterationReport` schema.
//!
//! Pieces:
//! - [`metrics`]: `MetricRegistry` with lock-free counters, gauges, and
//!   fixed-bucket log₂ histograms.
//! - [`phase`]: the paper's phase taxonomy ([`Phase`]), thread-local span
//!   tracking ([`current_phase`]), and the [`ScopedTimer`] RAII guard.
//!   Also the canonical [`LinkClass`] (re-exported by `symi-collectives`).
//! - [`cluster`]: [`ClusterTelemetry`] shared across ranks and the per-rank
//!   [`TelemetryHandle`].
//! - [`report`]: the cluster-wide [`IterationReport`] with derived metrics
//!   (popularity entropy, per-class drop rate, placement churn, straggler
//!   spread) and JSONL round-tripping.
//! - [`sink`]: JSONL / CSV / ring-buffer sinks; `symi-top` tails the JSONL
//!   form.
//! - [`json`]: the minimal JSON model the above are built on.

pub mod cluster;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod report;
pub mod sink;

pub use cluster::{ClusterTelemetry, TelemetryHandle};
pub use json::Value;
pub use metrics::{Counter, Gauge, Histogram, MetricRegistry};
pub use phase::{
    current_phase, LinkClass, Phase, ScopedTimer, LINK_CLASSES, NUM_LINK_CLASSES, NUM_PHASES,
    PHASES,
};
pub use report::IterationReport;
pub use sink::{JsonlSink, RingBufferSink, Sink};
