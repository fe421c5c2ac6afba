//! `symi-checkpoint`: async consistent snapshots and bit-exact restart.
//!
//! SYMI's state decoupling (PAPER §3) makes checkpointing cheap: the fp32
//! masters + Adam moments are uniformly sharded 1/N per rank and *stay put*
//! across placement changes, while the fp16 replica weights rematerialize
//! bit-exactly from the masters via `materialize_slots`. A consistent
//! cluster checkpoint is therefore just each rank's [`symi::EngineSnapshot`]
//! — shards, placement counts, popularity, iteration stamp — with no
//! cross-rank weight gathering and no fp16 payload at all.
//!
//! The subsystem in five pieces:
//!
//! - [`format`](mod@format): versioned, CRC-checked, length-validated on-disk container
//!   (engine kind 1, whole-model trainer kind 2). Every decode failure
//!   names the file and the exact field.
//! - [`store`]: one checkpoint directory — atomic tmp/fsync/rename writes,
//!   per-iteration completeness over `world_size` rank files, newest-valid
//!   restore with loud fallback past torn or corrupted sets, retention.
//! - [`writer`]: double-buffered background writer; the training thread
//!   pays only for the snapshot copy.
//! - [`manager`]: cadence + epoch-fenced coordination round on
//!   [`symi_collectives::WirePhase::Control`] so every rank stamps the same
//!   completed iteration; `ckpt.*` telemetry.
//! - `symi-ckpt` (binary): `inspect` and `validate` for operators and CI.
//!
//! Restart contract, proven in `tests/checkpoint_restart.rs`: kill the
//! whole cluster mid-iteration, reload the latest complete set, resume via
//! `MoeLayerEngine::from_snapshot` + `materialize_slots`, and the losses
//! from the resume point match an uninterrupted same-seed oracle `==`
//! bit-for-bit.

pub mod crc32;
pub mod error;
pub mod format;
pub mod manager;
pub mod store;
pub mod writer;

pub use error::CkptError;
pub use format::{
    expert_param_count, inspect, kind_name, EngineFile, InspectInfo, RawCheckpoint, FORMAT_VERSION,
};
pub use manager::{CheckpointConfig, CheckpointManager, CheckpointStats};
pub use store::{
    parse_engine_file_name, parse_trainer_file_name, CheckpointStore, LatestEngine, LatestTrainer,
};
pub use writer::{AsyncCheckpointWriter, WriterStats};
