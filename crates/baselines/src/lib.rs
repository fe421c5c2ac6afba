//! # symi-baselines
//!
//! The two systems the SYMI paper compares against, as configurations of
//! `symi`'s own engine ([`symi::MoeLayerEngine::edp_sharded`]) — the same
//! routing, token path, collectives, kernels and optimizer — so every
//! difference in measured bytes, drops, and convergence comes from the two
//! choices that tell the systems apart: the placement policy, and each
//! class's optimizer state coupled to its EDP host group instead of sharded
//! over every rank.
//!
//! - [`deepspeed`] — the *static* baseline: uniform expert replication with
//!   replicas striped across distinct ranks (no intra-rank EDP), never
//!   re-placed. §4.1's reduce sums a class's gradient onto its hosts, each
//!   of which steps its ZeRO-1 shard, and the weight scatter to the other
//!   hosts is the EDP all-gather.
//! - [`flexmoe`] — the *coarse-grained adaptive* baseline: FlexMoE's
//!   interval-triggered policy (rebalance every `i` iterations, shifting
//!   one replica at a time from the least- to the most-loaded class). Its
//!   optimizer state is coupled to the expert instances, so every
//!   re-placement migrates the moved classes' fp32 `[master | m | v]` to
//!   their new hosts ([`symi::SymiOptimizer::follow`]) — the bytes SYMI's
//!   re-placement never pays.

pub mod deepspeed;
pub mod flexmoe;

pub use deepspeed::DeepSpeedMoeEngine;
pub use flexmoe::{flexmoe_engine, FlexMoePolicy};
