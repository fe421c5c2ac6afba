//! # symi-collectives
//!
//! A from-scratch, thread-per-rank SPMD cluster runtime with the collective
//! communication primitives the SYMI paper builds on — the stand-in for
//! NCCL/`torch.distributed` in this reproduction (the paper's cluster is
//! 16 A100 GPUs; here every rank is an OS thread and every link is a typed
//! channel, but the *algorithms* and therefore the data-volume formulas are
//! the real ones).
//!
//! What this crate provides:
//!
//! - [`cluster::Cluster`]: spawns one thread per rank and runs an SPMD
//!   closure on each, with panic propagation and deterministic teardown.
//! - [`ctx::RankCtx`]: per-rank handle with tagged point-to-point `send` /
//!   `recv`, barriers, and the collectives below.
//! - Ring all-reduce and all-to-all(v) ([`coll`]), matching the
//!   volume formulas in §3.3/A.2 of the paper (e.g. ring all-reduce moves
//!   `2(r−1)/r · G` per rank).
//!   The ring is also §4.1's inter-rank all-reduce: a class's gradient is
//!   reduced over the ranks hosting it, once per rank however many of its
//!   replicas that rank holds.
//! - Batched point-to-point transfers ([`p2p`]) — the paper's
//!   `batch_isend_irecv` used by the SYMI optimizer's gradient-collection
//!   and weight-materialization phases (§4.3–4.4): every send first, then
//!   the blocking receives in order, and a starved batch names the
//!   receives it was still waiting for.
//! - A contiguous-range communicator registry ([`group`]) — §4.2's
//!   `N(N−1)/2` pre-registered groups that make per-iteration regrouping
//!   free.
//! - Deterministic chaos ([`fault`]): seeded [`FaultPlan`]s that drop,
//!   duplicate, delay or reorder tagged messages and stall or kill ranks,
//!   paired with the mailbox's bounded retry-with-backoff and
//!   [`ProtocolFailure`] escalation so recovery is testable.
//! - A bounded, cluster-shared free list of wire buffers ([`buffers`]):
//!   receivers return the megabyte-sized shards they consumed, the ring and
//!   the optimizer phases send in them, and a steady iteration requests no
//!   large block from the allocator.
//! - Per-link-class traffic accounting ([`traffic`]): every payload byte is
//!   attributed to the intra-node (PCIe/NVLink-class) or inter-node
//!   (network-class) link it crossed, so `symi-netsim` can price a real
//!   execution with the paper's α–β model.

pub mod buffers;
pub mod cluster;
pub mod coll;
pub mod ctx;
pub mod error;
pub mod fault;
pub mod group;
pub mod membership;
pub mod p2p;
pub mod payload;
pub mod tag;
pub mod traffic;

pub use cluster::{Cluster, ClusterSpec};
pub use ctx::{ProtocolStats, RankCtx, RetryPolicy};
pub use error::{CommError, ProtocolFailure};
pub use fault::{FaultKind, FaultPlan, FaultStats, MsgMatch};
pub use group::{CommGroup, GroupRegistry};
pub use membership::{MembershipView, RECOVERY_LAYER};
pub use p2p::{RecvOp, SendOp};
pub use payload::{decode_f16_into, encode_f16, F16View, Payload};
pub use tag::{TagFields, TagSpace, WirePhase};
pub use traffic::{LinkClass, TrafficReport, TrafficStats};
