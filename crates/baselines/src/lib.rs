//! # symi-baselines
//!
//! The repository benchmark's name for DeepSpeed: [`DeepSpeedMoeEngine`],
//! `symi`'s one engine built in DeepSpeed's configuration
//! ([`symi::MoeLayerEngine::build`] over a striped placement, a uniform
//! policy and host-owned optimizer state). Everything else the paper's
//! baselines need lives in `symi` itself — FlexMoE is the same constructor
//! over [`symi::FlexMoePolicy`] — so this crate holds only the type the
//! benchmark names, and goes with the benchmark's next change.

pub mod deepspeed;

pub use deepspeed::DeepSpeedMoeEngine;
