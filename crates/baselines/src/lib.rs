//! # symi-baselines
//!
//! Faithful reimplementations of the two systems the SYMI paper compares
//! against, built on the same substrates (`symi`, `symi-collectives`,
//! `symi-model`, `symi-tensor`) so every difference in measured bytes,
//! drops, and convergence is attributable to the system design rather than
//! the implementation:
//!
//! - [`deepspeed`] — the *static* baseline: uniform expert replication with
//!   replicas striped across distinct ranks (no intra-rank EDP) and the
//!   optimizer ZeRO-1-sharded across each expert's EDP group. No
//!   adaptivity. It is `symi`'s own engine in that configuration
//!   ([`symi::MoeLayerEngine::edp_sharded`]), not a second engine: the ring
//!   all-reduce over a class's hosts syncs its gradient, and the weight
//!   scatter to the other hosts is the EDP all-gather.
//! - [`flexmoe`] — the *coarse-grained adaptive* baseline: FlexMoE's
//!   interval-triggered policy (rebalance every `i` iterations, shifting
//!   one replica at a time from the least- to the most-loaded class), with
//!   the optimizer state **coupled** to the expert instances — so every
//!   move physically migrates `W + O` bytes, which [`flexmoe::RebalanceCostHarness`]
//!   measures against SYMI's zero-extra-byte re-placement.

pub mod deepspeed;
pub mod flexmoe;

pub use deepspeed::DeepSpeedMoeEngine;
pub use flexmoe::{FlexMoePolicy, RebalanceCostHarness};
