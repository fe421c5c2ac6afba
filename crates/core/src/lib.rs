//! # symi — Efficient MoE Training via Model and Optimizer State Decoupling
//!
//! This crate implements the paper's primary contribution: **per-iteration
//! adaptive expert replication with zero extra data movement**, achieved by
//! decoupling each expert's parameters (fp16, replicated non-uniformly on
//! the accelerators, re-placed every iteration) from its optimizer state
//! (fp32 Adam state, statically and *uniformly* sharded across all `N`
//! nodes' host memory).
//!
//! Components, mapping one-to-one onto the paper's design (§3–§4):
//!
//! - [`scheduler`] — the Expert Placement Scheduler (Algorithm 1):
//!   popularity-proportional replica counts with a one-replica floor,
//!   floor-and-correct rounding, and contiguous slot assignment; plus
//!   [`scheduler::SymiPolicy`], the previous-iteration-popularity policy
//!   pluggable into any trainer.
//! - [`metadata`] — the Layer Metadata Store holding the globally
//!   consistent per-iteration popularity counters.
//! - [`ExpertPlacement`] — the expert-placement data model: slot↔class
//!   maps and per-class host-rank ranges. It is defined in `symi-netsim`,
//!   the dependency-free crate below this one, so the cost model prices
//!   the very layouts the engines run.
//! - [`optimizer`] — the SYMI Optimizer: per-node [`symi_tensor::AdamShard`]s
//!   covering a uniform `1/N` slice of *every* expert (or, in DeepSpeed's
//!   configuration, a `1/r` slice of each hosted one), the
//!   gradient-collection schedule of Algorithm 2 (locality-first,
//!   round-robin balanced), and the weight-materialization scatter that
//!   realizes next iteration's placement using only the weight-update
//!   traffic that static systems already pay (§3.3).
//! - [`token_path`] — what happens to a rank's tokens once it is decided
//!   which survive and where they go: routing, dispatch, expert
//!   forward/backward, combine, loss, gradient return. Independent of
//!   placement.
//! - [`engine`] — the distributed per-rank MoE-layer engine tying it all
//!   together over `symi-collectives`: route → popularity all-reduce →
//!   dispatch (all-to-all) → expert compute → combine → backward →
//!   intra+inter-rank gradient sum (§4.1), reduced onto Algorithm 2's
//!   sources → grad collection →
//!   sharded Adam step → weight scatter under the new placement. One
//!   constructor ([`MoeLayerEngine::build`]) takes the two independent
//!   choices §3.1 separates — the placement and its [`PlacementPolicy`],
//!   and the [`Owners`] of each class's optimizer state — so the paper's
//!   baselines are this engine configured: DeepSpeed a static striped
//!   placement ([`ExpertPlacement::striped`]), FlexMoE a uniform start
//!   under [`FlexMoePolicy`], each with its optimizer state sharded over
//!   each class's host ranks.
//!
//! [`PlacementPolicy`]: symi_model::PlacementPolicy

pub mod engine;
pub mod metadata;
pub mod optimizer;
pub mod policies;
pub mod scheduler;
pub mod token_path;

pub use engine::{EngineConfig, EngineSnapshot, JoinStats, MoeLayerEngine, RecoveryStats};
pub use metadata::LayerMetadataStore;
pub use optimizer::{Owners, Partials, ReshardReport, ShardState, SymiOptimizer};
pub use policies::{FlexMoePolicy, TracePolicy};
pub use scheduler::{compute_placement, valid_replica_counts, SymiPolicy};
pub use symi_netsim::ExpertPlacement;
