//! Batched point-to-point transfers — the `batch_isend_irecv` primitive the
//! SYMI optimizer uses for its Grad Communication Phase (gradient shards →
//! optimizer partitions, §4.3) and Weight Communication Phase (updated
//! weight shards → expert slots under the *new* placement, §4.4).
//!
//! All sends are issued before any receive is blocked on, so an arbitrary
//! bipartite transfer schedule completes without deadlock as long as the
//! global send/recv sets match.
//!
//! Receives carry an optional expected element count: a payload of the
//! wrong length is rejected at the wire with a typed
//! [`CommError::LengthMismatch`] naming the decoded tag, instead of being
//! handed to the optimizer as silently corrupt data.
//!
//! Under a `RankCtx::set_retry_policy` + `set_recv_timeout` pair, a
//! starved receive in the batch retries with exponential backoff and, on
//! exhaustion, escalates to [`CommError::Protocol`] carrying the decoded
//! tag/iteration/phase of the missing transfer — the diagnosis path the
//! chaos harness leans on. A `LengthMismatch` is never retried: the data
//! *arrived*, it is simply wrong, and waiting longer cannot fix that.

use crate::ctx::RankCtx;
use crate::error::CommError;
use crate::payload::Payload;
use crate::tag;

/// One outbound transfer in a batch.
#[derive(Debug, Clone)]
pub struct SendOp {
    pub to: usize,
    pub tag: u64,
    pub data: Payload,
}

impl SendOp {
    pub fn new(to: usize, tag: u64, data: impl Into<Payload>) -> Self {
        Self { to, tag, data: data.into() }
    }
}

/// One inbound transfer in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvOp {
    pub from: usize,
    pub tag: u64,
    /// Expected element count; `None` accepts any length.
    pub expect: Option<usize>,
}

impl RecvOp {
    /// Receive accepting any payload length.
    pub fn new(from: usize, tag: u64) -> Self {
        Self { from, tag, expect: None }
    }

    /// Receive validating the payload's element count at the wire.
    pub fn sized(from: usize, tag: u64, elements: usize) -> Self {
        Self { from, tag, expect: Some(elements) }
    }
}

impl RankCtx {
    /// Issues every send, then completes the receives in order with the
    /// blocking receive, returning the received payloads in the order of
    /// `recvs`. Two receives on one `(from, tag)` stream therefore pair
    /// with its arrivals in FIFO order.
    ///
    /// A starved receive's diagnostics name the batch's receives still
    /// outstanding behind it (see [`CommError::RecvTimeout`]).
    ///
    /// Self-transfers (send to own rank) are legal and are delivered through
    /// the local mailbox without touching any link counter.
    pub fn batch_isend_irecv(
        &mut self,
        sends: Vec<SendOp>,
        recvs: &[RecvOp],
    ) -> Result<Vec<Payload>, CommError> {
        for op in sends {
            self.send(op.to, op.tag, op.data)?;
        }
        let mut out = Vec::with_capacity(recvs.len());
        for (i, op) in recvs.iter().enumerate() {
            let payload =
                self.recv(op.from, op.tag).map_err(|e| name_outstanding(e, &recvs[i + 1..]))?;
            if let Some(expected) = op.expect {
                if payload.elements() != expected {
                    return Err(CommError::LengthMismatch {
                        from: op.from,
                        tag: tag::describe(op.tag),
                        expected,
                        got: payload.elements(),
                    });
                }
            }
            out.push(payload);
        }
        Ok(out)
    }
}

/// Appends the batch's receives still outstanding behind a starved one to
/// its timeout diagnostics, so the error names the whole wedged batch.
fn name_outstanding(mut err: CommError, outstanding: &[RecvOp]) -> CommError {
    let pending = match &mut err {
        CommError::RecvTimeout { pending, .. } => pending,
        CommError::Protocol(failure) => &mut failure.pending,
        _ => return err,
    };
    pending.extend(outstanding.iter().map(|op| {
        let expect = op.expect.map_or_else(|| "any".to_string(), |n| n.to_string());
        format!("outstanding recv from={} {} expect={expect}", op.from, tag::describe(op.tag))
    }));
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};

    #[test]
    fn ring_exchange_via_batch() {
        let n = 4;
        let (results, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
            let me = ctx.rank();
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            let sends = vec![SendOp::new(next, 1, vec![me as f32])];
            let recvs = [RecvOp::sized(prev, 1, 1)];
            ctx.batch_isend_irecv(sends, &recvs).unwrap()[0].clone().into_f32().unwrap()[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn many_to_one_fan_in() {
        let n = 5;
        let (results, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
            let me = ctx.rank();
            if me == 0 {
                let recvs: Vec<RecvOp> = (1..n).map(|r| RecvOp::new(r, r as u64)).collect();
                let got = ctx.batch_isend_irecv(vec![], &recvs).unwrap();
                got.into_iter().map(|b| b.into_f32().unwrap()[0]).sum::<f32>()
            } else {
                let sends = vec![SendOp::new(0, me as u64, vec![me as f32])];
                ctx.batch_isend_irecv(sends, &[]).unwrap();
                0.0
            }
        });
        assert_eq!(results[0], 10.0);
    }

    #[test]
    fn self_transfer_in_batch() {
        let (results, report) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            let me = ctx.rank();
            let sends = vec![SendOp::new(me, 9, vec![me as f32 + 0.5])];
            let recvs = [RecvOp::sized(me, 9, 1)];
            ctx.batch_isend_irecv(sends, &recvs).unwrap()[0].clone().into_f32().unwrap()[0]
        });
        assert_eq!(results, vec![0.5, 1.5]);
        assert_eq!(report.total_bytes(), 0, "self transfers are free");
    }

    #[test]
    fn crossing_transfers_complete() {
        // Both ranks send to each other simultaneously — must not deadlock.
        let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            let other = 1 - ctx.rank();
            let sends = vec![SendOp::new(other, 2, vec![ctx.rank() as f32; 1000])];
            let recvs = [RecvOp::sized(other, 2, 1000)];
            ctx.batch_isend_irecv(sends, &recvs).unwrap()[0].clone().into_f32().unwrap()[0]
        });
        assert_eq!(results, vec![1.0, 0.0]);
    }

    #[test]
    fn wrong_length_is_rejected_at_the_wire() {
        let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.batch_isend_irecv(vec![SendOp::new(1, 4, vec![1.0f32; 3])], &[]).unwrap();
                None
            } else {
                Some(ctx.batch_isend_irecv(vec![], &[RecvOp::sized(0, 4, 8)]).unwrap_err())
            }
        });
        match results[1].as_ref().unwrap() {
            CommError::LengthMismatch { from, expected, got, .. } => {
                assert_eq!((*from, *expected, *got), (0, 8, 3));
            }
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_view_is_sized_and_counted_by_its_range() {
        use crate::payload::F16View;
        use crate::tag::{TagSpace, WirePhase};
        use std::sync::Arc;
        let tag = TagSpace::new(0, 3).tag(WirePhase::GradSync, 5, 0);
        let (results, report) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                let ramp = (0..64).map(|i| i as f32).collect::<Vec<f32>>();
                let buf = Arc::new(symi_tensor::ScaledHalf::from_f32(&ramp));
                let sends = vec![
                    SendOp::new(1, tag, F16View::new(buf.clone(), 8..24)),
                    SendOp::new(1, tag + 1, F16View::new(buf, 0..3)),
                ];
                ctx.batch_isend_irecv(sends, &[]).unwrap();
                None
            } else {
                let got = ctx.batch_isend_irecv(vec![], &[RecvOp::sized(0, tag, 16)]).unwrap();
                let first = got[0].as_half_term().unwrap().to_f32();
                let err = ctx.batch_isend_irecv(vec![], &[RecvOp::sized(0, tag + 1, 8)]);
                Some((first, err.unwrap_err()))
            }
        });
        assert_eq!(report.total_bytes(), 2 * (16 + 3), "a view's range is what crosses the wire");
        let (first, err) = results[1].as_ref().unwrap();
        assert_eq!(first, &(8..24).map(|i| i as f32).collect::<Vec<f32>>());
        match err {
            CommError::LengthMismatch { from, tag: described, expected, got } => {
                assert_eq!((*from, *expected, *got), (0, 8, 3));
                assert_eq!(described, &tag::describe(tag + 1), "the decoded tag is named");
                assert!(described.contains("GradSync"), "{described}");
            }
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn starved_sized_recv_escalates_to_protocol_error_under_retry() {
        use crate::ctx::RetryPolicy;
        use crate::tag::{TagSpace, WirePhase};
        use std::time::Duration;

        let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                return None; // never sends: rank 1's receive starves
            }
            ctx.set_recv_timeout(Some(Duration::from_millis(10)));
            ctx.set_retry_policy(Some(RetryPolicy::new(2, 2.0)));
            let tag = TagSpace::new(0, 3).tag(WirePhase::GradCollect, 1, 0);
            Some(ctx.batch_isend_irecv(vec![], &[RecvOp::sized(0, tag, 8)]).unwrap_err())
        });
        match results[1].as_ref().unwrap() {
            CommError::Protocol(fail) => {
                assert_eq!(fail.retries, 2, "both retries spent before escalation");
                assert_eq!(fail.iteration, Some(3));
                assert_eq!(fail.phase.as_deref(), Some("GradCollect"));
                assert_eq!((fail.rank, fail.from), (1, 0));
                // Measured wall clock across attempts: 10 + 20 + 40 ms.
                assert!(fail.waited_ms >= 60, "measured {} ms", fail.waited_ms);
            }
            other => panic!("expected Protocol escalation, got {other:?}"),
        }
        assert!(results[0].is_none());
    }

    #[test]
    fn a_fault_rule_fires_on_a_batched_receive_whose_message_already_arrived() {
        use crate::fault::{FaultPlan, MsgMatch};
        use crate::tag::{TagSpace, WirePhase};

        let plan = FaultPlan::new(1).stall(1, MsgMatch::any().phase(WirePhase::GradCollect), 1);
        let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(2), plan, |ctx| {
            let tag = TagSpace::new(0, 0).tag(WirePhase::GradCollect, 0, 0);
            if ctx.rank() == 0 {
                ctx.send(1, tag, vec![1.0f32]).unwrap();
            }
            // The message is in rank 1's channel before its receive starts.
            ctx.barrier();
            if ctx.rank() == 1 {
                ctx.batch_isend_irecv(vec![], &[RecvOp::sized(0, tag, 1)]).unwrap();
            }
            ctx.fault_stats().stalled
        });
        assert_eq!(results[1].as_ref().unwrap(), &1, "the receive-side rule must fire");
    }

    #[test]
    fn f16_payloads_travel_at_half_width() {
        let (results, report) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                let half: Vec<u16> = vec![0x3c00; 100]; // fp16 1.0
                ctx.batch_isend_irecv(vec![SendOp::new(1, 6, half)], &[]).unwrap();
                0
            } else {
                let got = ctx.batch_isend_irecv(vec![], &[RecvOp::sized(0, 6, 100)]).unwrap();
                got[0].clone().into_f16().unwrap().len()
            }
        });
        assert_eq!(results[1], 100);
        assert_eq!(report.inter_node_bytes, 200, "2 B per fp16 element");
    }
}
