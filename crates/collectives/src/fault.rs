//! Deterministic fault injection for the cluster runtime.
//!
//! Real MoE clusters lose, delay and duplicate messages, and whole ranks
//! stall or die mid-iteration (MegaScale reports fault handling as the
//! dominant operational cost of large MoE training). The thread-per-rank
//! runtime is too well-behaved to exhibit any of that on its own, so this
//! module injects the misbehavior *on purpose*: a [`FaultPlan`] is a
//! seeded, declarative list of rules the mailbox consults on every send
//! and receive.
//!
//! Two properties make the plans usable in tests:
//!
//! - **Determinism.** Every probabilistic decision hashes
//!   `(seed, rule, from, to, tag, seq)` through splitmix64 — it depends
//!   only on the message's identity, never on thread scheduling, so a
//!   failing chaos seed replays exactly.
//! - **Locality.** Faults act at the sender's edge of the channel (drop,
//!   duplicate, hold-back) or as rank events (stall, kill); the receiving
//!   mailbox stays oblivious, which is exactly the position a NIC fault
//!   puts a real receiver in.
//!
//! What each kind models:
//!
//! | kind         | models                                              |
//! |--------------|-----------------------------------------------------|
//! | `Drop`       | lost packet with no retransmission layer            |
//! | `Duplicate`  | link-level retransmit delivering twice              |
//! | `Delay`      | congestion: message overtaken by later traffic      |
//! | `StallRank`  | straggler (GC pause, thermal throttle, page fault)  |
//! | `KillRank`   | hard failure: the rank's process dies mid-iteration |
//!
//! Held-back messages are released after the sender issues the configured
//! number of subsequent sends, and are force-flushed at every epoch
//! boundary (`RankCtx::begin_epoch`) and at closure exit, so a delay can
//! reorder traffic within a phase but can never leak a message out of the
//! run entirely (that would be a drop, a different fault).

use crate::tag::{self, WirePhase};
use std::sync::Arc;
use std::time::Duration;

/// What to do with a matched message or rank event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Discard the message at the sender's edge; the receiver never sees
    /// it. With no retransmission layer below the mailbox this is only
    /// recoverable by the *application* degrading, so chaos tests expect
    /// drops to surface as a loud `ProtocolError`/degraded iteration.
    Drop,
    /// Deliver the message twice under the same wire sequence number —
    /// the receiver's dedup watermark must absorb the second copy.
    Duplicate,
    /// Hold the message back until the sender has issued `after_sends`
    /// further sends (min 1), then deliver it late — later traffic
    /// overtakes it, exercising the stash/reorder path.
    Delay {
        /// How many subsequent sends overtake the held message.
        after_sends: u64,
    },
    /// Sleep `millis` on the first matching event at `rank` — a
    /// straggler, not a failure; everything still completes.
    StallRank { rank: usize, millis: u64 },
    /// Panic at the first matching event at `rank`, simulating a hard
    /// rank death mid-protocol. Use [`crate::Cluster::run_with_faults`]
    /// to observe the death instead of propagating it.
    KillRank { rank: usize },
    /// Panic at the first matching event at *every* rank — a full-cluster
    /// crash (power loss, coordinated preemption). Each rank dies at its
    /// own first matching event, so with a phase/iteration matcher the
    /// whole cluster goes down inside one protocol step; checkpoint
    /// restart scenarios are built on this.
    KillAll,
}

/// Selector deciding which messages (or rank events) a rule applies to.
/// Unset fields match everything; `layer`/`iteration`/`phase` constraints
/// only ever match structured tags (raw tags carry no such fields).
#[derive(Clone, Copy, Debug)]
pub struct MsgMatch {
    from: Option<usize>,
    to: Option<usize>,
    layer: Option<u64>,
    iteration: Option<u64>,
    phase: Option<WirePhase>,
    probability: f64,
}

impl MsgMatch {
    /// Matches every message with probability 1.
    pub fn any() -> Self {
        Self { from: None, to: None, layer: None, iteration: None, phase: None, probability: 1.0 }
    }

    /// Restrict to messages sent by `rank`.
    pub fn from(mut self, rank: usize) -> Self {
        self.from = Some(rank);
        self
    }

    /// Restrict to messages addressed to `rank`.
    pub fn to(mut self, rank: usize) -> Self {
        self.to = Some(rank);
        self
    }

    /// Restrict to structured tags of `layer`.
    pub fn layer(mut self, layer: u64) -> Self {
        self.layer = Some(layer);
        self
    }

    /// Restrict to structured tags of training `iteration` (pre-wrap
    /// value; compared against the tag's 18-bit field).
    pub fn iteration(mut self, iteration: u64) -> Self {
        self.iteration = Some(iteration & ((1 << 18) - 1));
        self
    }

    /// Restrict to structured tags of `phase`.
    pub fn phase(mut self, phase: WirePhase) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Fire on a matching message only with probability `p` (deterministic
    /// per message identity; see module docs).
    pub fn probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    fn matches(&self, from: usize, to: usize, tag: u64) -> bool {
        if self.from.is_some_and(|r| r != from) || self.to.is_some_and(|r| r != to) {
            return false;
        }
        if self.layer.is_none() && self.iteration.is_none() && self.phase.is_none() {
            return true;
        }
        let Some(fields) = tag::decode(tag) else {
            // Structured-field constraints can never match a raw tag.
            return false;
        };
        self.layer.is_none_or(|l| l == fields.layer)
            && self.iteration.is_none_or(|i| i == fields.iteration)
            && self.phase.is_none_or(|p| Some(p) == fields.phase())
    }
}

/// One (kind, selector) pair of a [`FaultPlan`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaultRule {
    pub kind: FaultKind,
    pub matcher: MsgMatch,
}

/// A seeded, declarative chaos schedule. Rules are evaluated in insertion
/// order; the first matching message rule wins, so put specific rules
/// before broad ones.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        Self { seed, rules: Vec::new() }
    }

    /// Append a rule.
    pub fn with(mut self, kind: FaultKind, matcher: MsgMatch) -> Self {
        self.rules.push(FaultRule { kind, matcher });
        self
    }

    /// Drop matching messages.
    pub fn drop_msgs(self, matcher: MsgMatch) -> Self {
        self.with(FaultKind::Drop, matcher)
    }

    /// Deliver matching messages twice.
    pub fn duplicate(self, matcher: MsgMatch) -> Self {
        self.with(FaultKind::Duplicate, matcher)
    }

    /// Hold matching messages back behind `after_sends` later sends.
    pub fn delay(self, matcher: MsgMatch, after_sends: u64) -> Self {
        self.with(FaultKind::Delay { after_sends: after_sends.max(1) }, matcher)
    }

    /// Sleep `millis` at `rank`'s first event matching `matcher`.
    pub fn stall(self, rank: usize, matcher: MsgMatch, millis: u64) -> Self {
        self.with(FaultKind::StallRank { rank, millis }, matcher)
    }

    /// Kill `rank` (panic) at its first event matching `matcher`.
    pub fn kill(self, rank: usize, matcher: MsgMatch) -> Self {
        self.with(FaultKind::KillRank { rank }, matcher)
    }

    /// Kill *every* rank at its first event matching `matcher` — the
    /// full-cluster crash of the checkpoint/restart scenarios.
    pub fn kill_all(self, matcher: MsgMatch) -> Self {
        self.with(FaultKind::KillAll, matcher)
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Per-rank injection counters, surfaced through `RankCtx::fault_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages discarded by a `Drop` rule.
    pub dropped: u64,
    /// Messages delivered twice by a `Duplicate` rule.
    pub duplicated: u64,
    /// Messages held back by a `Delay` rule.
    pub delayed: u64,
    /// `StallRank` sleeps taken on this rank.
    pub stalled: u64,
}

impl FaultStats {
    /// Total injected message faults (excludes stalls, which delay but do
    /// not alter traffic).
    pub fn message_faults(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed
    }
}

/// The sender-side verdict for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendAction {
    Deliver,
    Drop,
    Duplicate,
    Hold { after_sends: u64 },
}

/// Per-rank evaluator of a shared [`FaultPlan`]. Owned by the mailbox;
/// single-threaded like everything else rank-local.
pub(crate) struct FaultInjector {
    plan: Arc<FaultPlan>,
    rank: usize,
    /// Per-rule once-latch for `StallRank` (a straggler stalls once, not
    /// on every subsequent message).
    stall_fired: Vec<bool>,
    stats: FaultStats,
}

impl FaultInjector {
    pub(crate) fn new(plan: Arc<FaultPlan>, rank: usize) -> Self {
        let n = plan.rules.len();
        Self { plan, rank, stall_fired: vec![false; n], stats: FaultStats::default() }
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Sender-side hook: may panic (kill), sleep (stall), and returns the
    /// verdict for this message.
    pub(crate) fn on_send(&mut self, to: usize, tag: u64, seq: u64) -> SendAction {
        let from = self.rank;
        self.rank_event(from, to, tag);
        let plan = Arc::clone(&self.plan);
        for (i, rule) in plan.rules.iter().enumerate() {
            let action = match rule.kind {
                FaultKind::Drop => SendAction::Drop,
                FaultKind::Duplicate => SendAction::Duplicate,
                FaultKind::Delay { after_sends } => SendAction::Hold { after_sends },
                FaultKind::StallRank { .. } | FaultKind::KillRank { .. } | FaultKind::KillAll => {
                    continue
                }
            };
            if rule.matcher.matches(from, to, tag) && self.fires(i, rule, from, to, tag, seq) {
                match action {
                    SendAction::Drop => self.stats.dropped += 1,
                    SendAction::Duplicate => self.stats.duplicated += 1,
                    SendAction::Hold { .. } => self.stats.delayed += 1,
                    SendAction::Deliver => {}
                }
                return action;
            }
        }
        SendAction::Deliver
    }

    /// Receiver-side hook: stall/kill triggers only (a receiver cannot
    /// retroactively fault a message that was already sent).
    pub(crate) fn on_recv(&mut self, from: usize, tag: u64) {
        self.rank_event(from, self.rank, tag);
    }

    /// Fires stall/kill rules whose matcher covers this event at this rank.
    fn rank_event(&mut self, from: usize, to: usize, tag: u64) {
        let plan = Arc::clone(&self.plan);
        for (i, rule) in plan.rules.iter().enumerate() {
            match rule.kind {
                FaultKind::StallRank { rank, millis }
                    if rank == self.rank
                        && !self.stall_fired[i]
                        && rule.matcher.matches(from, to, tag) =>
                {
                    self.stall_fired[i] = true;
                    self.stats.stalled += 1;
                    std::thread::sleep(Duration::from_millis(millis));
                }
                FaultKind::KillRank { rank }
                    if rank == self.rank && rule.matcher.matches(from, to, tag) =>
                {
                    panic!("fault injection: rank {} killed at {}", self.rank, tag::describe(tag));
                }
                FaultKind::KillAll if rule.matcher.matches(from, to, tag) => {
                    panic!(
                        "fault injection: rank {} killed at {} (cluster-wide kill)",
                        self.rank,
                        tag::describe(tag)
                    );
                }
                _ => {}
            }
        }
    }

    /// Deterministic per-message bernoulli: hashes the message identity so
    /// the decision is independent of thread scheduling.
    fn fires(
        &self,
        rule_idx: usize,
        rule: &FaultRule,
        from: usize,
        to: usize,
        tag: u64,
        seq: u64,
    ) -> bool {
        let p = rule.matcher.probability;
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        let mut h = self.plan.seed ^ (rule_idx as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        h = splitmix64(h ^ ((from as u64) << 32) ^ to as u64);
        h = splitmix64(h ^ tag);
        h = splitmix64(h ^ seq);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::TagSpace;

    #[test]
    fn matcher_fields_constrain_and_raw_tags_skip_structured_rules() {
        let ts = TagSpace::new(2, 5);
        let t = ts.tag(WirePhase::GradCollect, 3, 1);
        let m = MsgMatch::any().from(1).phase(WirePhase::GradCollect).iteration(5);
        assert!(m.matches(1, 0, t));
        assert!(!m.matches(2, 0, t), "wrong sender");
        assert!(!m.matches(1, 0, ts.tag(WirePhase::LossSync, 3, 1)), "wrong phase");
        assert!(!m.matches(1, 0, 0x1234), "raw tag cannot satisfy a phase constraint");
        assert!(MsgMatch::any().matches(1, 0, 0x1234), "unconstrained matches raw");
    }

    #[test]
    fn probability_is_deterministic_per_message_identity() {
        let plan = Arc::new(FaultPlan::new(42).drop_msgs(MsgMatch::any().probability(0.5)));
        let mut a = FaultInjector::new(Arc::clone(&plan), 0);
        let mut b = FaultInjector::new(plan, 0);
        let verdicts_a: Vec<_> = (0..64).map(|s| a.on_send(1, 7, s)).collect();
        let verdicts_b: Vec<_> = (0..64).map(|s| b.on_send(1, 7, s)).collect();
        assert_eq!(verdicts_a, verdicts_b, "same identity, same verdict");
        let drops = verdicts_a.iter().filter(|v| **v == SendAction::Drop).count();
        assert!(drops > 8 && drops < 56, "p=0.5 over 64 messages, got {drops}");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan =
            Arc::new(FaultPlan::new(1).duplicate(MsgMatch::any().to(1)).drop_msgs(MsgMatch::any()));
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.on_send(1, 7, 0), SendAction::Duplicate);
        assert_eq!(inj.on_send(2, 7, 1), SendAction::Drop);
        assert_eq!(inj.stats().duplicated, 1);
        assert_eq!(inj.stats().dropped, 1);
    }

    #[test]
    fn stall_fires_once_and_only_on_its_rank() {
        let plan = Arc::new(FaultPlan::new(0).stall(1, MsgMatch::any(), 1));
        let mut wrong_rank = FaultInjector::new(Arc::clone(&plan), 0);
        wrong_rank.on_send(1, 7, 0);
        assert_eq!(wrong_rank.stats().stalled, 0);
        let mut right_rank = FaultInjector::new(plan, 1);
        right_rank.on_send(0, 7, 0);
        right_rank.on_send(0, 7, 1);
        assert_eq!(right_rank.stats().stalled, 1, "straggler stalls once");
    }

    #[test]
    #[should_panic(expected = "cluster-wide kill")]
    fn kill_all_fires_on_any_rank() {
        let ts = TagSpace::new(0, 5);
        let plan =
            Arc::new(FaultPlan::new(0).kill_all(MsgMatch::any().phase(WirePhase::DispatchRows)));
        // A rank the rule names nowhere still dies at its first matching
        // event: the kill is cluster-wide by construction.
        let mut inj = FaultInjector::new(plan, 7);
        inj.on_send(0, ts.phase_tag(WirePhase::LossSync), 0); // does not match
        inj.on_send(0, ts.phase_tag(WirePhase::DispatchRows), 1); // kills
    }

    #[test]
    #[should_panic(expected = "fault injection: rank 3 killed")]
    fn kill_panics_with_decoded_context() {
        let ts = TagSpace::new(0, 2);
        let plan =
            Arc::new(FaultPlan::new(0).kill(3, MsgMatch::any().phase(WirePhase::DispatchRows)));
        let mut inj = FaultInjector::new(plan, 3);
        inj.on_recv(0, ts.phase_tag(WirePhase::LossSync)); // does not match
        inj.on_recv(0, ts.phase_tag(WirePhase::DispatchRows)); // kills
    }
}
