//! # symi-netsim
//!
//! Performance modeling for the SYMI reproduction: the cluster/hardware
//! descriptions, the paper's analytic communication-cost formulas (§3.3
//! items I–III, Appendix A.1 and A.2), and a per-iteration latency simulator
//! that turns byte and FLOP counts into the iteration latencies and
//! component breakdowns reported in Table 1, Table 3, Figure 11 and
//! Figure 12.
//!
//! Everything here is deterministic arithmetic over `f64` seconds and bytes;
//! no wall-clock time is ever consulted. The real data movement happens in
//! `symi-collectives`, whose traffic reports this crate prices.
//!
//! The slot layout both sides share, [`ExpertPlacement`], is defined here:
//! the runtime re-exports it as `symi::ExpertPlacement`, so the layouts the
//! simulator prices are built by the same constructors the engines run.

pub mod costmodel;
pub mod iteration;
pub mod placement;
pub mod topology;

pub use costmodel::{CommCostModel, CommCosts, ShardScope, SystemKind, TieredCostModel};
pub use iteration::{IterationBreakdown, IterationSim, RebalanceSpec, SimSystem};
pub use placement::ExpertPlacement;
pub use topology::{HardwareSpec, ModelCostConfig, TierSpec, Topology};
