//! Per-rank execution context: tagged point-to-point messaging and barriers.

use crate::buffers::WireBuffers;
use crate::cluster::{ClusterSpec, Poison, RankBarrier};
use crate::error::{CommError, ProtocolFailure};
use crate::fault::{FaultInjector, FaultStats, SendAction};
use crate::group::GroupRegistry;
use crate::payload::Payload;
use crate::tag::{self, WirePhase};
use crate::traffic::{LinkClass, TrafficStats};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone)]
pub(crate) struct Message {
    pub from: usize,
    pub tag: u64,
    /// Fencing epoch stamped at send time: the tag's own `(iteration,
    /// phase)` for structured tags, the sender's current epoch for raw
    /// ones.
    pub epoch: u64,
    /// Membership generation the sender was in when it stamped `seq`.
    /// Sequence numbers restart at 0 on every generation bump, so the
    /// generation namespaces the seq space: a joiner (or rejoiner) reusing
    /// a physical rank id sends `(gen+1, seq 0)` and is *not* mistaken for
    /// a duplicate of the old incarnation's `(gen, seq 0)`.
    pub gen: u64,
    /// Per-(sender → receiver) wire sequence number, stamped once per
    /// logical send. An injected duplicate re-sends the *same* seq, which
    /// is exactly what makes it detectable at the receiver.
    pub seq: u64,
    pub payload: Payload,
}

/// A message held back by a `Delay` fault, released after `remaining`
/// further sends by this rank.
struct Held {
    to: usize,
    msg: Message,
    remaining: u64,
}

/// Per-sender duplicate filter: a watermark below which every seq has been
/// delivered, plus the out-of-order seqs seen above it. Distinct logical
/// messages always carry distinct seqs, so FIFO same-tag streams are
/// untouched; only a re-delivery of an already-admitted seq is absorbed.
///
/// The watermark is namespaced by the sender's membership generation: a
/// higher-generation message resets the filter (the sender legitimately
/// restarted its seq stream after a membership change), while a
/// lower-generation straggler is dropped as stale. Without this, a rank id
/// reused by a joiner would start at seq 0 and every one of its messages
/// would be swallowed as a "duplicate echo" of the previous incarnation.
#[derive(Default)]
struct SeqTracker {
    /// Generation the watermark belongs to, adopted from received traffic.
    gen: u64,
    /// All seqs `< watermark` (within `gen`) have been admitted.
    watermark: u64,
    /// Admitted seqs `> watermark` (sparse, drained as the watermark
    /// advances).
    ahead: BTreeSet<u64>,
}

/// Verdict of the generation-aware duplicate filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SeqAdmit {
    /// First delivery — deliver it.
    Fresh,
    /// Re-delivery of an already-admitted seq — absorb it.
    Duplicate,
    /// Straggler from a pre-bump generation — drop it as stale.
    Stale,
}

impl SeqTracker {
    /// Admits `seq` under the sender's membership generation `gen`.
    fn admit_at(&mut self, gen: u64, seq: u64) -> SeqAdmit {
        if gen > self.gen {
            // The sender moved to a new membership generation and restarted
            // its seq stream; the old watermark no longer applies.
            self.gen = gen;
            self.watermark = 0;
            self.ahead.clear();
        } else if gen < self.gen {
            return SeqAdmit::Stale;
        }
        if self.admit(seq) {
            SeqAdmit::Fresh
        } else {
            SeqAdmit::Duplicate
        }
    }

    /// Returns `true` for a first delivery, `false` for a duplicate.
    fn admit(&mut self, seq: u64) -> bool {
        if seq < self.watermark || self.ahead.contains(&seq) {
            return false;
        }
        if seq == self.watermark {
            self.watermark += 1;
            while self.ahead.remove(&self.watermark) {
                self.watermark += 1;
            }
        } else {
            self.ahead.insert(seq);
        }
        true
    }
}

/// Bounded retry-with-backoff for timed-out receives. Attempt `k`
/// (1-based) waits `timeout · backoff^k` before expiring; after
/// `max_retries` extra attempts the receive escalates to
/// [`CommError::Protocol`] carrying the full decoded diagnostics instead
/// of the plain [`CommError::RecvTimeout`].
///
/// Only meaningful together with `RankCtx::set_recv_timeout` — with no
/// timeout a receive blocks forever and the policy never engages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Additional attempts after the first timeout (0 = escalate at once).
    pub max_retries: u32,
    /// Per-attempt budget multiplier (≥ 1.0; clamped at use).
    pub backoff: f64,
}

impl RetryPolicy {
    pub fn new(max_retries: u32, backoff: f64) -> Self {
        Self { max_retries, backoff }
    }
}

impl Default for RetryPolicy {
    /// Three retries at 2× growth: total patience 15× the base timeout.
    fn default() -> Self {
        Self { max_retries: 3, backoff: 2.0 }
    }
}

/// A buffered out-of-order arrival.
struct Stashed {
    payload: Payload,
    epoch: u64,
    /// Whether this message was already counted as fenced (counted once,
    /// the first time the epoch fence refuses to deliver it).
    fence_counted: bool,
}

/// Wire-protocol health counters, surfaced per rank through
/// `RankCtx::protocol_stats` and from there into symi-telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Messages the epoch fence refused to deliver at least once.
    pub fenced_messages: u64,
    /// High-water mark of buffered out-of-order messages.
    pub stash_peak: usize,
    /// Currently buffered messages.
    pub stash_depth: usize,
    /// Receives that expired their configured timeout (each retry attempt
    /// that expires counts once).
    pub recv_timeouts: u64,
    /// Timed-out receive attempts that were retried under a
    /// [`RetryPolicy`] instead of erroring out.
    pub retries: u64,
    /// Re-deliveries absorbed by the per-sender sequence filter.
    pub duplicates_dropped: u64,
    /// Pre-bump-generation stragglers dropped by the sequence filter after
    /// a membership-generation bump.
    pub stale_gen_dropped: u64,
}

/// Tagged mailbox: messages are matched on `(from, tag)`; out-of-order
/// arrivals are buffered. This is what lets independent collectives on
/// disjoint (or even overlapping) communicator groups proceed concurrently
/// without cross-talk, the way NCCL streams do.
///
/// On top of tag matching the mailbox enforces **epoch fencing**: every
/// message is stamped with the `(iteration, phase)` epoch it was sent
/// under, and a receive only accepts messages of its own epoch. For
/// structured tags the epoch is derived from the tag itself (so the fence
/// is consistent by construction); raw tags fall back to the rank-local
/// epoch advanced by `RankCtx::begin_epoch`, which turns cross-phase tag
/// aliasing — the bug class where a later phase's payload silently
/// satisfies an earlier phase's receive — into a loud, diagnosable stall
/// instead of corrupt data.
pub(crate) struct Mailbox {
    rank: usize,
    senders: Vec<Sender<Message>>,
    rx: Receiver<Message>,
    stash: HashMap<(usize, u64), VecDeque<Stashed>>,
    /// Rank-local epoch: stamped on raw-tag sends, required of raw-tag
    /// receives. Stays 0 unless `begin_epoch` is used, so plain tag-only
    /// code keeps its historical semantics.
    epoch: u64,
    recv_timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
    stats: ProtocolStats,
    /// This rank's membership generation, stamped on every send. Bumped by
    /// `RankCtx::set_membership_gen` when a membership agreement lands;
    /// the bump restarts `next_seq` so the generation namespaces the seq
    /// space end to end.
    gen: u64,
    /// Next wire seq per destination rank.
    next_seq: Vec<u64>,
    /// Per-sender duplicate filters.
    seen: Vec<SeqTracker>,
    /// Fault evaluator when running under a `FaultPlan`.
    faults: Option<FaultInjector>,
    /// Messages held back by `Delay` faults, in hold order.
    held: Vec<Held>,
    /// Set once a rank of the cluster panicked ([`crate::Cluster::run`]).
    poison: Arc<Poison>,
}

impl Mailbox {
    pub(crate) fn new(
        rank: usize,
        senders: Vec<Sender<Message>>,
        rx: Receiver<Message>,
        faults: Option<FaultInjector>,
        poison: Arc<Poison>,
    ) -> Self {
        let world = senders.len();
        Self {
            rank,
            senders,
            rx,
            stash: HashMap::new(),
            epoch: 0,
            recv_timeout: None,
            retry: None,
            stats: ProtocolStats::default(),
            gen: 0,
            next_seq: vec![0; world],
            seen: std::iter::repeat_with(SeqTracker::default).take(world).collect(),
            faults,
            held: Vec::new(),
            poison,
        }
    }

    /// The error every receive returns once a rank of the cluster
    /// panicked.
    fn poisoned(&self) -> Option<CommError> {
        let (rank, message) = self.poison.get()?;
        Some(CommError::PeerPanicked { rank: *rank, message: message.clone() })
    }

    /// Wakes every other rank blocked in a receive, to find the cluster
    /// poisoned: an empty message each (ranks that have finished are
    /// skipped).
    fn wake_peers(&self) {
        for (to, tx) in self.senders.iter().enumerate() {
            if to != self.rank {
                let payload = Payload::U64(Vec::new());
                let wake = Message { from: self.rank, tag: 0, payload, epoch: 0, gen: 0, seq: 0 };
                let _ = tx.send(wake);
            }
        }
    }

    /// Drains every message already sitting in the inbound channel into the
    /// stash, admitting seqs through the duplicate filter exactly as a
    /// blocking receive would, so the stale-epoch purge sees everything that
    /// has arrived.
    fn drain_channel(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            if !self.admit_msg(&msg) {
                continue;
            }
            self.stash_push(msg);
        }
    }

    /// Runs a message through the generation-aware duplicate filter,
    /// counting duplicates and stale-generation drops. `true` means
    /// deliver.
    fn admit_msg(&mut self, msg: &Message) -> bool {
        match self.seen[msg.from].admit_at(msg.gen, msg.seq) {
            SeqAdmit::Fresh => true,
            SeqAdmit::Duplicate => {
                self.stats.duplicates_dropped += 1;
                false
            }
            SeqAdmit::Stale => {
                self.stats.stale_gen_dropped += 1;
                false
            }
        }
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), CommError> {
        let epoch = tag::epoch_of(tag).unwrap_or(self.epoch);
        let seq = self.next_seq[to];
        self.next_seq[to] += 1;
        let msg = Message { from: self.rank, tag, payload, epoch, gen: self.gen, seq };
        let action = match &mut self.faults {
            Some(inj) => inj.on_send(to, tag, seq),
            None => SendAction::Deliver,
        };
        let result = match action {
            SendAction::Deliver => self.deliver(to, msg),
            SendAction::Drop => Ok(()),
            SendAction::Duplicate => {
                let first = self.deliver(to, msg.clone());
                // The echo is best-effort: the receiver may consume the
                // first copy, finish its run and drop its channel before
                // this copy lands — a race, not a protocol error.
                self.deliver_lossy(to, msg);
                first
            }
            // `+ 1` because this very send immediately ages the queue
            // below; net effect is `after_sends` *later* messages overtake
            // the held one.
            SendAction::Hold { after_sends } => {
                self.held.push(Held { to, msg, remaining: after_sends + 1 });
                Ok(())
            }
        };
        self.age_held();
        result
    }

    fn deliver(&self, to: usize, msg: Message) -> Result<(), CommError> {
        self.senders[to].send(msg).map_err(|_| CommError::PeerGone { rank: to })
    }

    /// Delivery for fault-injected extras (duplicate echoes, released
    /// holds): a closed channel means the receiver already finished
    /// without the message, so the copy simply evaporates. A receiver
    /// that genuinely needed it would still be alive waiting, and a dead
    /// peer still surfaces loudly through the next strict send or the
    /// starving receive.
    fn deliver_lossy(&self, to: usize, msg: Message) {
        let _ = self.senders[to].send(msg);
    }

    /// One send event elapsed: age every held message, releasing the ripe
    /// ones in hold order.
    fn age_held(&mut self) {
        if self.held.is_empty() {
            return;
        }
        for h in &mut self.held {
            h.remaining -= 1;
        }
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].remaining == 0 {
                let h = self.held.remove(i);
                self.deliver_lossy(h.to, h.msg);
            } else {
                i += 1;
            }
        }
    }

    /// Force-deliver every held message — called at epoch boundaries and
    /// closure exit so a `Delay` fault reorders within a phase but never
    /// swallows a message outright.
    fn flush_held(&mut self) {
        while !self.held.is_empty() {
            let h = self.held.remove(0);
            self.deliver_lossy(h.to, h.msg);
        }
    }

    fn stash_push(&mut self, msg: Message) {
        self.stash.entry((msg.from, msg.tag)).or_default().push_back(Stashed {
            payload: msg.payload,
            epoch: msg.epoch,
            fence_counted: false,
        });
        self.stats.stash_depth += 1;
        self.stats.stash_peak = self.stats.stash_peak.max(self.stats.stash_depth);
    }

    /// Decoded summary of every stashed message, sorted for determinism —
    /// the payload of [`CommError::RecvTimeout`]. A starved
    /// `batch_isend_irecv` appends its own still-outstanding receives.
    fn pending_summary(&self) -> Vec<String> {
        let mut entries: Vec<(&(usize, u64), &VecDeque<Stashed>)> = self.stash.iter().collect();
        entries.sort_by_key(|((from, tag), _)| (*from, *tag));
        entries
            .iter()
            .flat_map(|((from, tagv), queue)| {
                queue.iter().map(move |s| {
                    format!(
                        "from={from} {} elems={} epoch={}",
                        tag::describe(*tagv),
                        s.payload.elements(),
                        s.epoch
                    )
                })
            })
            .collect()
    }

    fn recv(&mut self, from: usize, tag: u64) -> Result<Payload, CommError> {
        if let Some(inj) = &mut self.faults {
            inj.on_recv(from, tag);
        }
        // A receive belongs to exactly one epoch: the tag's own for
        // structured tags, the rank-local epoch for raw ones. Only a
        // message stamped with that epoch may satisfy it — a colliding tag
        // from any other phase is fenced, never silently delivered.
        let allowed = tag::epoch_of(tag).unwrap_or(self.epoch);
        let start = Instant::now();
        let mut attempt: u32 = 0;
        let mut deadline = self.recv_timeout.map(|t| start + t);
        loop {
            if let Some(err) = self.poisoned() {
                return Err(err);
            }
            if let Some(queue) = self.stash.get_mut(&(from, tag)) {
                match queue.front_mut() {
                    Some(front) if front.epoch == allowed => {
                        let s = queue.pop_front().expect("front exists");
                        if queue.is_empty() {
                            self.stash.remove(&(from, tag));
                        }
                        self.stats.stash_depth -= 1;
                        return Ok(s.payload);
                    }
                    Some(front) if !front.fence_counted => {
                        front.fence_counted = true;
                        self.stats.fenced_messages += 1;
                    }
                    _ => {}
                }
            }
            let msg = match deadline {
                None => self.rx.recv().map_err(|_| CommError::PeerGone { rank: from })?,
                Some(d) => {
                    let budget = d.saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(budget) {
                        Ok(msg) => msg,
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(CommError::PeerGone { rank: from });
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            self.stats.recv_timeouts += 1;
                            let base = self.recv_timeout.expect("deadline implies timeout");
                            if let Some(policy) = self.retry {
                                if attempt < policy.max_retries {
                                    attempt += 1;
                                    self.stats.retries += 1;
                                    let grown =
                                        base.mul_f64(policy.backoff.max(1.0).powi(attempt as i32));
                                    deadline = Some(Instant::now() + grown);
                                    continue;
                                }
                            }
                            // Measured wall-clock wait across all attempts
                            // — not the configured timeout.
                            let waited_ms = start.elapsed().as_millis() as u64;
                            return Err(self.starved(from, tag, allowed, attempt, waited_ms));
                        }
                    }
                }
            };
            if let Some(err) = self.poisoned() {
                return Err(err);
            }
            if !self.admit_msg(&msg) {
                continue;
            }
            // Fast path: the awaited message, same epoch, nothing queued
            // ahead of it on this (from, tag) channel.
            if msg.from == from
                && msg.tag == tag
                && msg.epoch == allowed
                && self.stash.get(&(from, tag)).is_none_or(VecDeque::is_empty)
            {
                return Ok(msg.payload);
            }
            self.stash_push(msg);
        }
    }

    /// The terminal error of a starved receive. Under a retry policy the
    /// exhausted receive escalates to [`CommError::Protocol`] with full
    /// decoded context; without one it stays the historical
    /// [`CommError::RecvTimeout`].
    fn starved(
        &self,
        from: usize,
        tag: u64,
        epoch: u64,
        retries: u32,
        waited_ms: u64,
    ) -> CommError {
        if self.retry.is_none() {
            return CommError::RecvTimeout {
                from,
                tag: tag::describe(tag),
                waited_ms,
                fenced: self.stats.fenced_messages,
                pending: self.pending_summary(),
            };
        }
        let fields = tag::decode(tag);
        CommError::Protocol(Box::new(ProtocolFailure {
            rank: self.rank,
            from,
            tag: tag::describe(tag),
            iteration: fields.map(|f| f.iteration),
            phase: fields.and_then(|f| f.phase()).map(|p| p.to_string()),
            epoch,
            retries,
            waited_ms,
            fenced: self.stats.fenced_messages,
            pending: self.pending_summary(),
        }))
    }
}

/// Handle a rank's SPMD closure uses to communicate.
pub struct RankCtx {
    rank: usize,
    spec: ClusterSpec,
    mailbox: Mailbox,
    barrier: Arc<RankBarrier>,
    traffic: Arc<TrafficStats>,
    groups: Arc<GroupRegistry>,
    buffers: Arc<WireBuffers>,
}

impl RankCtx {
    pub(crate) fn new(
        rank: usize,
        spec: ClusterSpec,
        mailbox: Mailbox,
        barrier: Arc<RankBarrier>,
        traffic: Arc<TrafficStats>,
        groups: Arc<GroupRegistry>,
        buffers: Arc<WireBuffers>,
    ) -> Self {
        Self { rank, spec, mailbox, barrier, traffic, groups, buffers }
    }

    /// This rank's id in `[0, world_size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.spec.ranks
    }

    /// The cluster shape.
    pub fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// The pre-registered contiguous communicator groups (§4.2).
    pub fn groups(&self) -> &GroupRegistry {
        &self.groups
    }

    /// Sends `payload` to `to` under `tag`, recording its bytes against the
    /// link class connecting the two ranks. Self-sends are legal (delivered
    /// through the mailbox) and are counted as intra-node traffic with zero
    /// cost downstream.
    pub fn send(
        &mut self,
        to: usize,
        tag: u64,
        payload: impl Into<Payload>,
    ) -> Result<(), CommError> {
        let payload = payload.into();
        let class = if self.spec.same_node(self.rank, to) {
            LinkClass::IntraNode
        } else {
            LinkClass::InterNode
        };
        if to != self.rank {
            let bytes = payload.byte_len();
            self.traffic.record(class, self.rank, to, bytes);
            if let Some(phase) = tag::decode(tag).and_then(|f| f.phase()) {
                self.traffic.record_wire_phase(phase, bytes);
            }
        }
        self.mailbox.send(to, tag, payload)
    }

    /// Blocks until a message from `from` with `tag` arrives.
    pub fn recv(&mut self, from: usize, tag: u64) -> Result<Payload, CommError> {
        self.mailbox.recv(from, tag)
    }

    /// Convenience: receive and unwrap an `F32` payload.
    pub fn recv_f32(&mut self, from: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        self.recv(from, tag)?.into_f32()
    }

    /// Convenience: receive and unwrap a `U64` payload.
    pub(crate) fn recv_u64(&mut self, from: usize, tag: u64) -> Result<Vec<u64>, CommError> {
        self.recv(from, tag)?.into_u64()
    }

    /// Advances this rank's fencing epoch to `(iteration, phase)` (epochs
    /// are monotone: an older epoch never rewinds a newer one). The epoch
    /// is stamped on every raw-tag send and required of every raw-tag
    /// receive; structured tags carry their epoch in the tag itself and
    /// ignore this. Code that never calls `begin_epoch` stays at epoch 0
    /// on both sides of every raw exchange, preserving plain tag-matching
    /// semantics.
    pub fn begin_epoch(&mut self, iteration: u64, phase: WirePhase) {
        let key = tag::TagSpace::new(0, iteration).epoch(phase);
        self.mailbox.epoch = self.mailbox.epoch.max(key);
        // An epoch boundary force-releases messages held back by `Delay`
        // faults: reordering stays confined to a phase. A delivery failure
        // here means the peer died — its receivers will diagnose that
        // loudly; nothing useful to do on the sender.
        self.mailbox.flush_held();
    }

    /// Installs (or clears) the receive timeout. On expiry the receive
    /// returns [`CommError::RecvTimeout`] carrying the decoded pending
    /// stash — the deadlock diagnosis the fence makes possible.
    pub fn set_recv_timeout(&mut self, timeout: Option<Duration>) {
        self.mailbox.recv_timeout = timeout;
    }

    /// Installs (or clears) the bounded retry-with-backoff policy applied
    /// to timed-out receives. With a policy installed, an exhausted
    /// receive escalates to [`CommError::Protocol`] carrying the decoded
    /// tag/epoch diagnostics; without one it keeps returning the plain
    /// [`CommError::RecvTimeout`]. Requires a recv timeout to engage.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.mailbox.retry = policy;
    }

    /// The installed retry policy, if any.
    pub(crate) fn retry_policy(&self) -> Option<RetryPolicy> {
        self.mailbox.retry
    }

    /// The installed receive timeout, if any.
    pub(crate) fn recv_timeout(&self) -> Option<Duration> {
        self.mailbox.recv_timeout
    }

    /// Discards every buffered and in-flight message whose structured
    /// fencing epoch is strictly below `epoch_threshold` — the cleanup a
    /// membership change needs: after survivors agree on a new epoch, any
    /// half-delivered traffic from the aborted iteration (a dead rank's
    /// last sends, a survivor's pre-recovery sends) must never satisfy a
    /// post-recovery receive. Raw-tag (unstructured) messages are kept —
    /// they carry no iteration and are not part of the training protocol's
    /// fenced stream. Returns the number of messages discarded.
    ///
    /// Sound because channels are per-sender FIFO: once a rank has
    /// received a peer's recovery-protocol message, everything that peer
    /// sent before it has already been drained into the stash, so a single
    /// post-agreement purge observes all stale traffic that will ever
    /// arrive from a live peer. (A dead rank's traffic is either already
    /// buffered or lost with its channel.) No receive is left posted
    /// between calls — even `batch_isend_irecv` blocks on one receive at a
    /// time — so the stash is all there is to purge.
    pub fn discard_stale_below(&mut self, epoch_threshold: u64) -> u64 {
        let mb = &mut self.mailbox;
        // Pull everything already sitting in the channel into the stash so
        // the purge below sees it, admitting seqs through the duplicate
        // filter exactly as a normal receive would.
        mb.drain_channel();
        let mut discarded = 0u64;
        mb.stash.retain(|(_, tagv), queue| {
            if tag::epoch_of(*tagv).is_none() {
                return true; // raw-tag traffic is outside the fenced stream
            }
            let before = queue.len();
            queue.retain(|s| s.epoch >= epoch_threshold);
            discarded += (before - queue.len()) as u64;
            !queue.is_empty()
        });
        mb.stats.stash_depth -= discarded as usize;
        discarded
    }

    /// Moves this rank's *send side* to membership generation `gen`
    /// (monotone; an older generation never rewinds a newer one). The bump
    /// restarts the per-destination wire sequence numbers at 0 — receivers
    /// namespace their duplicate-filter watermarks by the generation
    /// carried on each message, so the restarted stream is admitted
    /// instead of being swallowed as duplicate echoes of the previous
    /// incarnation. Call this the moment a membership agreement commits a
    /// new epoch, *before* any post-agreement send.
    pub fn set_membership_gen(&mut self, gen: u64) {
        if gen > self.mailbox.gen {
            self.mailbox.gen = gen;
            self.mailbox.next_seq = vec![0; self.mailbox.next_seq.len()];
        }
    }

    /// This rank's current send-side membership generation.
    #[cfg(test)]
    pub(crate) fn membership_gen(&self) -> u64 {
        self.mailbox.gen
    }

    /// This rank's wire-protocol health counters (fenced messages, stash
    /// depth/peak, receive timeouts, retries, absorbed duplicates).
    pub fn protocol_stats(&self) -> ProtocolStats {
        self.mailbox.stats
    }

    /// Counters of the faults injected *by this rank's sender side* (plus
    /// its own stalls) when running under a `FaultPlan`; all-zero
    /// otherwise.
    pub fn fault_stats(&self) -> FaultStats {
        self.mailbox.faults.as_ref().map(FaultInjector::stats).unwrap_or_default()
    }

    /// End-of-closure hook: releases any still-held delayed messages so a
    /// `Delay` fault can never swallow a message outright.
    pub(crate) fn finish(&mut self) {
        self.mailbox.flush_held();
    }

    /// Wakes every peer blocked in a receive (this rank panicked, and the
    /// cluster is poisoned).
    pub(crate) fn wake_peers(&self) {
        self.mailbox.wake_peers();
    }

    /// Global barrier across all ranks.
    ///
    /// # Panics
    /// Panics with "rank r panicked: …" if a rank of a [`crate::Cluster::run`]
    /// panicked before every rank arrived.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Records optimizer host↔device staging traffic on this rank (the PCIe
    /// leg of the paper's Grad/Weight Communication Phases).
    pub fn record_host_device_bytes(&self, bytes: u64) {
        self.traffic.record_host_device(self.rank, bytes);
    }

    /// A buffer holding a copy of `src`, drawn from the cluster's free list
    /// of wire buffers ([`crate::buffers`]) when an idle one fits — what a
    /// sender whose data must outlive the send should put on the wire.
    pub fn pooled_copy_f32(&self, src: &[f32]) -> Vec<f32> {
        self.buffers.f32s.copy_of(src)
    }

    /// An empty `f32` buffer with room for `len` elements, from the same
    /// free list — for a sender that assembles its payload from several
    /// slices.
    pub fn pooled_f32(&self, len: usize) -> Vec<f32> {
        self.buffers.f32s.take(len)
    }

    /// A binary16 buffer of `len` elements from the same free list, for a
    /// sender that writes every element itself (the Adam step publishing
    /// into the weight scatter's sends): a reused buffer's stale bits are
    /// not cleared first, so whatever the caller leaves unwritten goes on
    /// the wire as it was.
    pub fn pooled_f16_len(&self, len: usize) -> Vec<u16> {
        self.buffers.f16s.take_len(len)
    }

    /// Hands a consumed buffer (a received payload, typically) to the free
    /// list; it is dropped instead if it is small or the list is full.
    pub fn recycle_f32(&self, buf: Vec<f32>) {
        self.buffers.f32s.put(buf);
    }

    /// Hands a consumed payload's buffer to the free list: an owned `F32`
    /// or `F16` one is recycled, a view (or anything else) just dropped.
    pub fn recycle_payload(&self, payload: Payload) {
        match payload {
            Payload::F32(buf) => self.recycle_f32(buf),
            Payload::F16(buf) | Payload::ScaledF16(buf, _) => self.recycle_f16(buf),
            _ => {}
        }
    }

    /// [`RankCtx::recycle_f32`] for binary16 bits.
    pub fn recycle_f16(&self, buf: Vec<u16>) {
        self.buffers.f16s.put(buf);
    }

    /// `(f32, binary16)` wire buffers idle in the cluster's free list.
    pub fn idle_wire_buffers(&self) -> (usize, usize) {
        (self.buffers.f32s.idle(), self.buffers.f16s.idle())
    }

    /// The cluster-shared traffic counters. A telemetry driver drains
    /// `traffic().drain_phase_bytes()` once per iteration (on one rank,
    /// behind a barrier) to attribute bytes to phases in its
    /// `IterationReport`.
    pub fn traffic(&self) -> &Arc<TrafficStats> {
        &self.traffic
    }

    /// Derives a per-step tag from a collective's base tag. Structured
    /// tags get the step written into their dedicated step field; raw tags
    /// keep the historical splitmix-style mix (with the structured marker
    /// bit masked off so a mixed raw tag can never masquerade as
    /// structured).
    pub(crate) fn step_tag(base: u64, step: u64) -> u64 {
        if tag::is_structured(base) {
            tag::with_step(base, step)
        } else {
            Self::raw_step_tag(base, step)
        }
    }

    /// Derives a sub-collective tag from a collective's base tag —
    /// distinguishes e.g. the all-gather half of an all-reduce from its
    /// reduce-scatter half when both run ring steps over one base tag.
    pub(crate) fn subop_tag(base: u64, subop: u8) -> u64 {
        if tag::is_structured(base) {
            tag::with_subop(base, subop)
        } else {
            // Historical raw salts, kept for tag-value stability of
            // hand-tagged test traffic.
            let salt = match subop {
                1 => 0x5151,
                2 => 0xa11c,
                s => s as u64,
            };
            Self::raw_step_tag(base, salt)
        }
    }

    fn raw_step_tag(base: u64, step: u64) -> u64 {
        (base ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(step.wrapping_add(1)))) & !tag::STRUCTURED
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, ClusterSpec};

    #[test]
    fn send_recv_round_trip() {
        let (results, report) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1.0f32, 2.0, 3.0]).unwrap();
                Vec::new()
            } else {
                ctx.recv_f32(0, 7).unwrap()
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0, 3.0]);
        assert_eq!(report.inter_node_bytes, 12);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1.0f32]).unwrap();
                ctx.send(1, 2, vec![2.0f32]).unwrap();
                ctx.send(1, 3, vec![3.0f32]).unwrap();
                0.0
            } else {
                // Receive in reverse order of sending.
                let a = ctx.recv_f32(0, 3).unwrap()[0];
                let b = ctx.recv_f32(0, 2).unwrap()[0];
                let c = ctx.recv_f32(0, 1).unwrap()[0];
                a * 100.0 + b * 10.0 + c
            }
        });
        assert_eq!(results[1], 321.0);
    }

    #[test]
    fn same_tag_messages_are_fifo() {
        let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..5 {
                    ctx.send(1, 9, vec![i as f32]).unwrap();
                }
                Vec::new()
            } else {
                (0..5).map(|_| ctx.recv_f32(0, 9).unwrap()[0]).collect()
            }
        });
        assert_eq!(results[1], vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn intra_node_traffic_is_classified() {
        let spec = ClusterSpec { ranks: 4, gpus_per_node: 2 };
        let (_, report) = Cluster::run(spec, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0.0f32; 10]).unwrap(); // same node
                ctx.send(2, 1, vec![0.0f32; 10]).unwrap(); // other node
            } else if ctx.rank() == 1 {
                ctx.recv(0, 0).unwrap();
            } else if ctx.rank() == 2 {
                ctx.recv(0, 1).unwrap();
            }
        });
        assert_eq!(report.intra_node_bytes, 40);
        assert_eq!(report.inter_node_bytes, 40);
    }

    #[test]
    fn self_send_is_free() {
        let (_, report) = Cluster::run(ClusterSpec::flat(1), |ctx| {
            ctx.send(0, 5, vec![9.0f32; 100]).unwrap();
            assert_eq!(ctx.recv_f32(0, 5).unwrap().len(), 100);
        });
        assert_eq!(report.total_bytes(), 0);
    }

    #[test]
    fn recv_timeout_reports_measured_wall_clock_wait() {
        use crate::error::CommError;
        use std::time::Duration;
        let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                return 0;
            }
            ctx.set_recv_timeout(Some(Duration::from_millis(25)));
            match ctx.recv(0, 7).unwrap_err() {
                CommError::RecvTimeout { waited_ms, .. } => waited_ms,
                other => panic!("expected RecvTimeout, got {other:?}"),
            }
        });
        assert!(results[1] >= 25, "measured wait {} ms < configured 25 ms", results[1]);
    }

    #[test]
    fn injected_duplicates_are_absorbed_and_fifo_is_preserved() {
        use crate::fault::{FaultPlan, MsgMatch};
        let plan = FaultPlan::new(7).duplicate(MsgMatch::any().to(1));
        let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(2), plan, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..5 {
                    ctx.send(1, 9, vec![i as f32]).unwrap();
                }
                (Vec::new(), 0, 0)
            } else {
                let vals: Vec<f32> = (0..5).map(|_| ctx.recv_f32(0, 9).unwrap()[0]).collect();
                let stats = ctx.protocol_stats();
                (vals, stats.duplicates_dropped, stats.fenced_messages)
            }
        });
        let (vals, dups, fenced) = results[1].as_ref().unwrap();
        assert_eq!(*vals, vec![0.0, 1.0, 2.0, 3.0, 4.0], "duplicates must not corrupt FIFO");
        // The 5th duplicate is still in the channel when the closure ends.
        assert_eq!(*dups, 4, "one duplicate absorbed per extra pull");
        assert_eq!(*fenced, 0);
    }

    #[test]
    fn a_delayed_message_is_overtaken_and_still_delivered() {
        use crate::fault::{FaultPlan, MsgMatch};
        use crate::tag::{TagSpace, WirePhase};
        let ts = TagSpace::new(0, 0);
        let plan = FaultPlan::new(0).delay(MsgMatch::any().phase(WirePhase::DispatchRows), 1);
        let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(2), plan, |ctx| {
            let ts = TagSpace::new(0, 0);
            if ctx.rank() == 0 {
                ctx.send(1, ts.phase_tag(WirePhase::DispatchRows), vec![1.0f32]).unwrap();
                ctx.send(1, ts.phase_tag(WirePhase::DispatchMeta), vec![2.0f32]).unwrap();
                (ctx.fault_stats().delayed, 0.0, 0.0)
            } else {
                let rows = ctx.recv_f32(0, ts.phase_tag(WirePhase::DispatchRows)).unwrap()[0];
                let meta = ctx.recv_f32(0, ts.phase_tag(WirePhase::DispatchMeta)).unwrap()[0];
                (0, rows, meta)
            }
        });
        let _ = ts;
        assert_eq!(results[0].as_ref().unwrap().0, 1, "the rows message was held back");
        let (_, rows, meta) = results[1].as_ref().unwrap();
        assert_eq!((*rows, *meta), (1.0, 2.0), "reordered traffic still matches by tag");
    }

    #[test]
    fn dropped_message_turns_into_a_loud_timeout() {
        use crate::error::CommError;
        use crate::fault::{FaultPlan, MsgMatch};
        use crate::tag::{TagSpace, WirePhase};
        use std::time::Duration;
        let plan = FaultPlan::new(0).drop_msgs(MsgMatch::any().phase(WirePhase::LossSync));
        let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(2), plan, |ctx| {
            let tag = TagSpace::new(0, 1).phase_tag(WirePhase::LossSync);
            if ctx.rank() == 0 {
                ctx.send(1, tag, vec![3.0f32]).unwrap();
                (ctx.fault_stats().dropped, true)
            } else {
                ctx.set_recv_timeout(Some(Duration::from_millis(20)));
                let timed_out =
                    matches!(ctx.recv(0, tag).unwrap_err(), CommError::RecvTimeout { .. });
                (0, timed_out)
            }
        });
        assert_eq!(results[0].as_ref().unwrap().0, 1, "the send was swallowed");
        assert!(results[1].as_ref().unwrap().1, "the receiver starved loudly, not silently");
    }

    #[test]
    fn rejoined_rank_first_message_is_delivered_after_gen_bump() {
        // A rank that sends, bumps its membership generation (as a joiner
        // reusing a rank id does), and sends again restarts at seq 0. The
        // receiver's generation-namespaced watermark must admit the new
        // stream instead of dropping it as a duplicate echo of the old
        // incarnation.
        let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..3 {
                    ctx.send(1, 9, vec![i as f32]).unwrap();
                }
                ctx.send(1, 11, vec![0.0f32]).unwrap(); // release the receiver
                ctx.recv(1, 12).unwrap(); // old-gen traffic fully consumed
                ctx.set_membership_gen(1);
                ctx.send(1, 9, vec![42.0f32]).unwrap(); // gen 1, seq 0
                (0.0, 0, 0)
            } else {
                for i in 0..3 {
                    assert_eq!(ctx.recv_f32(0, 9).unwrap()[0], i as f32);
                }
                ctx.recv(0, 11).unwrap();
                ctx.send(0, 12, vec![0.0f32]).unwrap();
                let rejoined = ctx.recv_f32(0, 9).unwrap()[0];
                let stats = ctx.protocol_stats();
                (rejoined, stats.duplicates_dropped, stats.stale_gen_dropped)
            }
        });
        let (rejoined, dups, stale) = results[1];
        assert_eq!(rejoined, 42.0, "the rejoined rank's first message must be delivered");
        assert_eq!(dups, 0, "a generation bump is not a duplicate");
        assert_eq!(stale, 0, "no pre-bump stragglers were in flight");
    }

    #[test]
    fn stale_generation_stragglers_are_dropped_not_replayed() {
        use super::{SeqAdmit, SeqTracker};
        let mut t = SeqTracker::default();
        assert_eq!(t.admit_at(0, 0), SeqAdmit::Fresh);
        assert_eq!(t.admit_at(0, 1), SeqAdmit::Fresh);
        assert_eq!(t.admit_at(0, 1), SeqAdmit::Duplicate);
        // Generation bump restarts the seq space.
        assert_eq!(t.admit_at(1, 0), SeqAdmit::Fresh);
        // A delayed gen-0 straggler (seq the new space has not reached)
        // must not leak into the new generation.
        assert_eq!(t.admit_at(0, 2), SeqAdmit::Stale);
        assert_eq!(t.admit_at(1, 1), SeqAdmit::Fresh);
    }

    #[test]
    fn membership_gen_is_monotone_and_restarts_seqs() {
        let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.set_membership_gen(3);
                ctx.set_membership_gen(1); // older gen must not rewind
                assert_eq!(ctx.membership_gen(), 3);
                ctx.send(1, 5, vec![7.0f32]).unwrap();
                0.0
            } else {
                ctx.recv_f32(0, 5).unwrap()[0]
            }
        });
        assert_eq!(results[1], 7.0);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let (results, _) = Cluster::run(ClusterSpec::flat(4), |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            counter.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&v| v == 4));
    }
}
