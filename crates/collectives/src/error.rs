//! Error type for the cluster runtime.

use std::fmt;

/// Errors surfaced by communication primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer's mailbox was closed (its rank thread exited or panicked).
    PeerGone { rank: usize },
    /// A rank of the cluster panicked (`Cluster::run` poisons the cluster
    /// on the first panic), so no receive can be relied on to complete.
    PeerPanicked { rank: usize, message: String },
    /// A collective was invoked by a rank that is not a member of the group.
    NotInGroup { rank: usize },
    /// Payload had a different variant or length than the receiver expected.
    PayloadMismatch { expected: &'static str, got: &'static str },
    /// A group lookup failed (range not registered).
    UnknownGroup { start: usize, len: usize },
    /// A received payload carried a different element count than the
    /// receive posted — corrupt or misrouted data caught at the wire
    /// instead of inside the optimizer. `tag` is the decoded tag
    /// description of the offending receive.
    LengthMismatch { from: usize, tag: String, expected: usize, got: usize },
    /// A receive exceeded the configured timeout. `tag` describes the
    /// receive that starved; `pending` is the decoded stash — every
    /// buffered `(from, tag, elems, epoch)` at expiry — followed, for a
    /// receive inside `batch_isend_irecv`, by the batch's receives still
    /// outstanding behind it `(from, tag, expect)`; `fenced` is the number
    /// of messages the epoch fence has refused so far. Together they make
    /// cross-phase deadlocks diagnosable from the error alone.
    RecvTimeout { from: usize, tag: String, waited_ms: u64, fenced: u64, pending: Vec<String> },
    /// A receive exhausted its bounded retry-with-backoff policy — the
    /// escalated form of [`CommError::RecvTimeout`] produced when a
    /// `RetryPolicy` is installed, carrying the full decoded tag/epoch
    /// context a postmortem needs (boxed: the diagnostics are large and
    /// the happy path should not pay for them).
    Protocol(Box<ProtocolFailure>),
}

/// Full diagnostics of a retry-exhausted receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolFailure {
    /// Rank whose receive starved.
    pub rank: usize,
    /// Peer the receive was posted against.
    pub from: usize,
    /// Decoded description of the starved tag.
    pub tag: String,
    /// Training iteration from the structured tag (`None` for raw tags).
    pub iteration: Option<u64>,
    /// Wire-phase name from the structured tag (`None` for raw tags).
    pub phase: Option<String>,
    /// Fencing epoch the receive belonged to.
    pub epoch: u64,
    /// Retry attempts that expired before escalation.
    pub retries: u32,
    /// Measured wall-clock wait across all attempts, in milliseconds.
    pub waited_ms: u64,
    /// Messages the epoch fence has refused on this rank so far.
    pub fenced: u64,
    /// Decoded summary of every message stashed at escalation time, then
    /// the starved batch's still-outstanding receives (as in
    /// [`CommError::RecvTimeout`]).
    pub pending: Vec<String>,
}

impl fmt::Display for ProtocolFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} starved receiving from rank {} tagged {}",
            self.rank, self.from, self.tag
        )?;
        if let (Some(it), Some(phase)) = (self.iteration, self.phase.as_deref()) {
            write!(f, " (iteration {it}, phase {phase})")?;
        }
        write!(
            f,
            ": {} retries exhausted over {} ms, epoch {}, {} fenced; {} pending: {}",
            self.retries,
            self.waited_ms,
            self.epoch,
            self.fenced,
            self.pending.len(),
            self.pending.join(", ")
        )
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerGone { rank } => write!(f, "peer rank {rank} is gone"),
            CommError::PeerPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            CommError::NotInGroup { rank } => {
                write!(f, "rank {rank} invoked a collective on a group it is not part of")
            }
            CommError::PayloadMismatch { expected, got } => {
                write!(f, "payload mismatch: expected {expected}, got {got}")
            }
            CommError::UnknownGroup { start, len } => {
                write!(f, "communicator group [{start}, {}) was never registered", start + len)
            }
            CommError::LengthMismatch { from, tag, expected, got } => {
                write!(
                    f,
                    "payload from rank {from} tagged {tag} carried {got} elements, \
                     receiver expected {expected}"
                )
            }
            CommError::RecvTimeout { from, tag, waited_ms, fenced, pending } => {
                write!(
                    f,
                    "recv from rank {from} tagged {tag} timed out after {waited_ms} ms \
                     ({fenced} messages fenced; {} pending: {})",
                    pending.len(),
                    pending.join(", ")
                )
            }
            CommError::Protocol(failure) => write!(f, "protocol failure: {failure}"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CommError::UnknownGroup { start: 3, len: 4 };
        assert!(e.to_string().contains("[3, 7)"));
        assert!(CommError::PeerGone { rank: 9 }.to_string().contains('9'));
    }

    #[test]
    fn protocol_failure_display_carries_the_decoded_context() {
        let e = CommError::Protocol(Box::new(ProtocolFailure {
            rank: 2,
            from: 1,
            tag: "[L0/it5/GradCollect/e3/src1]".into(),
            iteration: Some(5),
            phase: Some("GradCollect".into()),
            epoch: 168,
            retries: 3,
            waited_ms: 450,
            fenced: 0,
            pending: vec!["from=1 [raw:0x9] elems=4 epoch=0".into()],
        }));
        let s = e.to_string();
        for needle in ["rank 2", "rank 1", "GradCollect", "iteration 5", "3 retries", "450 ms"] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }
}
