//! # symi-model
//!
//! A from-scratch GPT-style Mixture-of-Experts transformer with manual
//! backpropagation, built for studying *training systems* rather than for
//! SOTA quality: token/positional embeddings, multi-head causal attention,
//! LayerNorm, a learned top-1 router, per-expert FFNs with the capacity /
//! token-dropping semantics of Switch Transformer (§2.1 of the SYMI paper),
//! and an Adam training loop.
//!
//! The architecture is deliberately scaled to laptop size (the paper's
//! 125M–760M GPT configurations exist in `symi-netsim` as *cost* configs for
//! latency modeling). What matters for the reproduction is preserved
//! exactly:
//!
//! - the router dynamically assigns every token to an expert class, so
//!   expert popularity is skewed and drifts as both the data distribution
//!   and the router itself evolve (Figure 2);
//! - each class has `capacity = slot_capacity × replicas`, and tokens over
//!   capacity are **dropped** — they bypass the expert through the residual
//!   connection and contribute no expert gradient (§3.4);
//! - consequently the *only* difference between training systems is which
//!   tokens get dropped, which is precisely the mechanism that makes
//!   adaptive replication converge faster (Figures 7/8).
//!
//! Every layer is a struct whose forward caches what its backward reads and
//! whose backward returns input gradients and accumulates parameter
//! gradients; the `*_into` forms write into buffers kept across steps, so a
//! steady training step allocates only its bookkeeping
//! (`tests/trainer_steady_state_allocs.rs`). Every backward pass is pinned by
//! a numerical-gradient test.

pub mod attention;
pub mod block;
pub mod config;
pub mod embedding;
pub mod expert;
pub mod layernorm;
pub mod model;
pub mod moe;
pub mod router;
pub mod train;

pub use config::ModelConfig;
pub use model::GptMoe;
pub use train::{Checkpoint, PlacementPolicy, TrainRecord, Trainer, UniformPolicy};
