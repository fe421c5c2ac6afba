//! Cluster membership for elastic recovery.
//!
//! When a rank dies permanently, its peers' receives starve and escalate
//! (PR 4 made that loud). This module is the next step: the survivors run a
//! small agreement protocol over the wire they already have, converge on
//! the same dead-rank set, and emerge with a new [`MembershipView`] — a
//! bumped **membership epoch** plus the surviving physical-rank set — from
//! which every downstream structure (placement, optimizer shards,
//! communicator groups) is rebuilt over *logical* ranks `0..survivors`.
//!
//! The protocol is deliberately simple (this runtime has reliable FIFO
//! channels and fail-stop ranks, no Byzantine behaviour):
//!
//! 1. Each participant broadcasts its current alive-set belief (a bitmap)
//!    plus an opaque `u64` payload to every rank it believes alive, then
//!    receives the same from each of them. A send into a closed channel or
//!    a timed-out receive marks that peer dead; received bitmaps are merged
//!    (a rank any peer believes dead is dead — deaths only propagate, a
//!    peer can never resurrect a rank).
//! 2. Rounds repeat until a round changes nothing: the belief at the start
//!    of the round survived it, and every received bitmap equals it. With
//!    symmetric death detection (a dead rank sends nothing to anyone) this
//!    converges in one round when the death is already cluster-wide
//!    knowledge and two rounds otherwise.
//!
//! The caller's *suspects* are treated as hints, never as evidence: inside
//! a training iteration a survivor can starve behind another **live**
//! survivor (a ring collective stalls transitively — rank 0 waits on rank 3
//! which waits on the actually-dead rank 2), so the rank named by its error
//! is not necessarily the dead one. Marking suspects dead upfront would let
//! such a mis-suspicion propagate and fork the cluster. Instead every
//! believed-alive rank — suspected or not — gets a full round to answer;
//! only the wire itself (a closed channel, or silence through the round
//! budget, which covers the training protocol's whole retry window several
//! times over) declares death.
//!
//! All membership traffic runs on the reserved [`RECOVERY_LAYER`] tag plane
//! with `WirePhase::Control`, so it can never alias training traffic, and
//! it is fenced by the *new* epoch — a survivor still starving inside the
//! training protocol simply stashes arriving membership messages and finds
//! them the moment it enters recovery itself.

use crate::ctx::RankCtx;
use crate::error::CommError;
use crate::group::CommGroup;
use crate::tag::{TagSpace, WirePhase};
use std::time::{Duration, Instant};

/// Tag-space layer reserved for recovery traffic (membership rounds and
/// state-reconstruction transfers). The layer field is 6 bits, so 63 is the
/// highest encodable layer; engines must keep their `layer_id` below it.
pub const RECOVERY_LAYER: usize = 63;

/// Iteration stamped on join-bootstrap tags: the maximum encodable
/// iteration, so the bootstrap's fencing epoch is above every training
/// epoch and `discard_stale_below` can never purge a bootstrap waiting in
/// a standby rank's stash. The bootstrap payload carries the real
/// membership epoch in-band.
pub(crate) const JOIN_BOOT_ITER: u64 = (1 << 18) - 1;

/// An agreed view of cluster membership: which physical ranks are alive,
/// under which membership epoch. Logical ranks `0..size()` are the alive
/// physical ranks in ascending order — all placement and sharding math
/// runs over logical ranks and translates at the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipView {
    epoch: u64,
    alive: Vec<bool>,
}

impl MembershipView {
    /// The initial view: every rank of a `world`-rank cluster alive,
    /// epoch 0.
    pub fn full(world: usize) -> Self {
        assert!(world > 0, "membership needs at least one rank");
        Self { epoch: 0, alive: vec![true; world] }
    }

    /// A view over a `world`-rank physical cluster with only the first
    /// `active` ranks participating, epoch 0 — the standby model for
    /// scale-out: ranks `active..world` exist (threads, channels) but are
    /// not members until a join admits them.
    pub fn partial(world: usize, active: usize) -> Self {
        assert!(active > 0, "membership needs at least one rank");
        assert!(active <= world, "active {active} exceeds physical world {world}");
        Self { epoch: 0, alive: (0..world).map(|r| r < active).collect() }
    }

    /// The view with `rank` additionally marked alive, **same epoch** —
    /// the pre-agreement grown view both the survivors and the joiner feed
    /// to [`RankCtx::agree_membership`], which bumps the epoch when the
    /// grown membership commits.
    pub fn with_joined(&self, rank: usize) -> Self {
        assert!(rank < self.alive.len(), "rank {rank} out of the {}-rank world", self.alive.len());
        assert!(!self.alive[rank], "rank {rank} is already a member");
        let mut alive = self.alive.clone();
        alive[rank] = true;
        Self { epoch: self.epoch, alive }
    }

    /// Membership epoch (0 = initial full world; +1 per agreement).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Physical world size (including dead ranks).
    pub fn world(&self) -> usize {
        self.alive.len()
    }

    /// Number of surviving ranks.
    pub fn size(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    pub fn is_alive(&self, physical: usize) -> bool {
        self.alive[physical]
    }

    /// Surviving physical ranks in ascending order (logical order).
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&r| self.alive[r]).collect()
    }

    /// Logical rank of a physical rank, if alive.
    pub fn logical_of(&self, physical: usize) -> Option<usize> {
        if !self.alive[physical] {
            return None;
        }
        Some(self.alive[..physical].iter().filter(|&&a| a).count())
    }

    /// Physical rank of a logical rank.
    ///
    /// # Panics
    /// Panics if `logical >= size()`.
    pub fn physical_of(&self, logical: usize) -> usize {
        self.survivors()
            .get(logical)
            .copied()
            .unwrap_or_else(|| panic!("logical rank {logical} out of {} survivors", self.size()))
    }

    /// Communicator group over all survivors (physical ranks).
    pub fn group(&self) -> CommGroup {
        CommGroup::new(self.survivors())
    }

    /// The view with `dead` additionally marked dead and the epoch bumped.
    pub fn without(&self, dead: &[usize]) -> Self {
        let mut alive = self.alive.clone();
        for &d in dead {
            alive[d] = false;
        }
        assert!(alive.iter().any(|&a| a), "membership view must keep at least one rank");
        Self { epoch: self.epoch + 1, alive }
    }

    fn from_alive(epoch: u64, alive: Vec<bool>) -> Self {
        Self { epoch, alive }
    }
}

fn bitmap_words(world: usize) -> usize {
    world.div_ceil(64)
}

fn encode_alive(alive: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bitmap_words(alive.len())];
    for (r, &a) in alive.iter().enumerate() {
        if a {
            words[r / 64] |= 1u64 << (r % 64);
        }
    }
    words
}

fn decode_alive(words: &[u64], world: usize) -> Vec<bool> {
    (0..world).map(|r| words[r / 64] >> (r % 64) & 1 == 1).collect()
}

/// Outcome of a membership agreement: the successor view plus each
/// survivor's opaque payload indexed by physical rank (dead ranks `None`).
pub(crate) type MembershipOutcome = (MembershipView, Vec<Option<Vec<u64>>>);

impl RankCtx {
    /// A membership-round receive budget derived from the installed
    /// training patience: a peer that is merely *slow to notice* the death
    /// (still burning its own retries inside the training protocol) must
    /// not be declared dead, so the membership timeout covers the full
    /// retry-with-backoff window several times over, clamped to
    /// `[200 ms, 10 s]`.
    pub fn default_membership_timeout(&self) -> Duration {
        let base = self.recv_timeout().unwrap_or(Duration::from_millis(50));
        let mut patience = base;
        if let Some(policy) = self.retry_policy() {
            let b = policy.backoff.max(1.0);
            for k in 1..=policy.max_retries {
                patience += base.mul_f64(b.powi(k as i32));
            }
        }
        (patience * 5).clamp(Duration::from_millis(200), Duration::from_secs(10))
    }

    /// Runs the membership agreement protocol among the ranks of `view`,
    /// and returns the agreed successor view (epoch bumped by one)
    /// together with each survivor's opaque `u64` payload, indexed by
    /// physical rank (the caller's own `payload` included at its own
    /// index; dead ranks are `None`).
    ///
    /// `suspects` (physical ranks the caller's failed receive pointed at)
    /// are advisory only — a live suspect clears itself by answering the
    /// first round, so a transitively-starved caller naming the wrong rank
    /// is harmless. Death detection inside the protocol is the wire
    /// itself: a send into a closed channel or a starved receive marks the
    /// peer dead. `timeout` bounds each round's receive; pass
    /// [`RankCtx::default_membership_timeout`] unless the test needs a
    /// specific patience. The caller's retry policy and receive timeout
    /// are saved and restored around the protocol.
    ///
    /// # Errors
    /// Only non-death wire errors (payload-type mismatches) propagate;
    /// death-class errors are absorbed into the agreement.
    ///
    /// # Panics
    /// Panics if a peer's bitmap declares *this* rank dead (an eviction
    /// means the cluster has split on timeouts and continuing would fork
    /// the run — a loud stop is the only safe outcome), or if the protocol
    /// fails to converge within `world + 2` rounds.
    pub fn agree_membership(
        &mut self,
        view: &MembershipView,
        suspects: &[usize],
        payload: &[u64],
        timeout: Duration,
    ) -> Result<MembershipOutcome, CommError> {
        let me = self.rank();
        let world = view.world();
        let words = bitmap_words(world);
        assert!(view.is_alive(me), "a dead rank cannot run membership agreement");

        // Suspects are hints, not evidence: a transitively-starved caller
        // (stuck behind a live peer in a ring) can name the wrong rank, so
        // every believed-alive rank keeps its seat until the wire itself
        // says otherwise.
        for &d in suspects {
            assert!(d != me, "a rank cannot suspect itself");
            assert!(d < world, "suspect {d} out of the {world}-rank world");
        }
        let mut alive = (0..world).map(|r| view.is_alive(r)).collect::<Vec<bool>>();

        let saved_timeout = self.recv_timeout();
        let saved_retry = self.retry_policy();
        self.set_recv_timeout(Some(timeout));
        // Starvation must stay a plain RecvTimeout here: the protocol
        // *expects* silence from dead peers and converts it to a death
        // mark, so burning retries on them would only slow agreement.
        self.set_retry_policy(None);

        let ts = TagSpace::new(RECOVERY_LAYER, view.epoch() + 1);
        let mut payloads: Vec<Option<Vec<u64>>> = vec![None; world];
        payloads[me] = Some(payload.to_vec());

        let result = (|| -> Result<Vec<bool>, CommError> {
            let max_rounds = world + 2;
            for round in 0..max_rounds {
                let belief_start = alive.clone();
                let mut msg = encode_alive(&alive);
                msg.extend_from_slice(payload);
                let my_tag = ts.tag(WirePhase::Control, round, me);
                for p in (0..world).filter(|&r| belief_start[r] && r != me) {
                    if let Err(CommError::PeerGone { .. }) = self.send(p, my_tag, msg.clone()) {
                        alive[p] = false;
                    }
                }
                let mut received: Vec<Vec<bool>> = Vec::new();
                for p in (0..world).filter(|&r| belief_start[r] && r != me) {
                    if !alive[p] {
                        continue;
                    }
                    let peer_tag = ts.tag(WirePhase::Control, round, p);
                    match self.recv_u64(p, peer_tag) {
                        Ok(data) => {
                            assert!(
                                data.len() >= words,
                                "membership message from rank {p} too short"
                            );
                            let peer_alive = decode_alive(&data[..words], world);
                            assert!(
                                peer_alive[me],
                                "rank {me} evicted from membership by rank {p}: \
                                 timeouts split the cluster; refusing to fork the run"
                            );
                            for q in 0..world {
                                if !peer_alive[q] {
                                    alive[q] = false;
                                }
                            }
                            payloads[p] = Some(data[words..].to_vec());
                            received.push(peer_alive);
                        }
                        Err(
                            CommError::RecvTimeout { .. }
                            | CommError::Protocol(_)
                            | CommError::PeerGone { .. },
                        ) => {
                            alive[p] = false;
                        }
                        Err(other) => return Err(other),
                    }
                }
                let converged =
                    alive == belief_start && received.iter().all(|bitmap| *bitmap == alive);
                if converged {
                    return Ok(alive.clone());
                }
            }
            panic!("rank {me}: membership agreement failed to converge in {} rounds", world + 2);
        })();

        self.set_recv_timeout(saved_timeout);
        self.set_retry_policy(saved_retry);

        let alive = result?;
        for (r, slot) in payloads.iter_mut().enumerate() {
            if !alive[r] {
                *slot = None;
            }
        }
        Ok((MembershipView::from_alive(view.epoch() + 1, alive), payloads))
    }

    /// Survivor side of the join handshake: hands `joiner` the current
    /// membership view (`[epoch, alive bitmap…]`) so it can enter the
    /// agreement round that admits it. Sent on the reserved
    /// `JOIN_BOOT_ITER` tag plane, whose fencing epoch sits above every
    /// training epoch — a standby rank can therefore receive it no matter
    /// how many stale-traffic purges happened while it waited.
    pub fn send_join_bootstrap(
        &mut self,
        joiner: usize,
        view: &MembershipView,
    ) -> Result<(), CommError> {
        let ts = TagSpace::new(RECOVERY_LAYER, JOIN_BOOT_ITER);
        let mut msg = vec![view.epoch()];
        msg.extend_from_slice(&encode_alive(&view.alive));
        self.send(joiner, ts.tag(WirePhase::Control, joiner, self.rank()), msg)
    }

    /// Joiner side of the join handshake: probes every other physical rank
    /// for a [`send_join_bootstrap`] message in short slices until one
    /// lands or `deadline` expires, and returns the decoded pre-join view
    /// plus the rank that sent it. The caller then builds
    /// [`MembershipView::with_joined`] over its own rank and enters
    /// [`agree_membership`] alongside the survivors.
    ///
    /// [`send_join_bootstrap`]: RankCtx::send_join_bootstrap
    /// [`agree_membership`]: RankCtx::agree_membership
    pub fn await_join_bootstrap(
        &mut self,
        deadline: Duration,
    ) -> Result<(MembershipView, usize), CommError> {
        let me = self.rank();
        let world = self.world_size();
        let ts = TagSpace::new(RECOVERY_LAYER, JOIN_BOOT_ITER);
        let saved_timeout = self.recv_timeout();
        let saved_retry = self.retry_policy();
        self.set_retry_policy(None);
        self.set_recv_timeout(Some(Duration::from_millis(50)));
        let start = Instant::now();
        let result = 'probe: loop {
            for p in (0..world).filter(|&p| p != me) {
                match self.recv_u64(p, ts.tag(WirePhase::Control, me, p)) {
                    Ok(data) => break 'probe Ok((data, p)),
                    Err(CommError::RecvTimeout { .. } | CommError::PeerGone { .. }) => continue,
                    Err(other) => break 'probe Err(other),
                }
            }
            if start.elapsed() >= deadline {
                break Err(CommError::RecvTimeout {
                    from: me,
                    tag: "join-bootstrap".to_string(),
                    waited_ms: start.elapsed().as_millis() as u64,
                    fenced: 0,
                    pending: Vec::new(),
                });
            }
        };
        self.set_recv_timeout(saved_timeout);
        self.set_retry_policy(saved_retry);
        let (data, from) = result?;
        let words = bitmap_words(world);
        assert!(data.len() == 1 + words, "join bootstrap from rank {from} has the wrong shape");
        let epoch = data[0];
        let alive = decode_alive(&data[1..], world);
        Ok((MembershipView::from_alive(epoch, alive), from))
    }

    /// Consumes the redundant join bootstraps from `senders` (every
    /// survivor sends one; the joiner acted on the first). They were sent
    /// before each survivor's first agreement message on the same FIFO
    /// channel, so once the agreement has converged they are already in
    /// the stash — this just keeps them from lingering there forever.
    pub fn drain_join_bootstraps(&mut self, senders: &[usize]) -> Result<(), CommError> {
        let me = self.rank();
        let ts = TagSpace::new(RECOVERY_LAYER, JOIN_BOOT_ITER);
        for &p in senders.iter().filter(|&&p| p != me) {
            self.recv_u64(p, ts.tag(WirePhase::Control, me, p))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_view_maps_logical_and_physical_identically() {
        let v = MembershipView::full(4);
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.size(), 4);
        assert_eq!(v.survivors(), vec![0, 1, 2, 3]);
        for r in 0..4 {
            assert_eq!(v.logical_of(r), Some(r));
            assert_eq!(v.physical_of(r), r);
        }
    }

    #[test]
    fn without_compacts_logical_ranks_and_bumps_epoch() {
        let v = MembershipView::full(4).without(&[2]);
        assert_eq!(v.epoch(), 1);
        assert_eq!(v.size(), 3);
        assert!(!v.is_alive(2));
        assert_eq!(v.survivors(), vec![0, 1, 3]);
        assert_eq!(v.logical_of(3), Some(2));
        assert_eq!(v.logical_of(2), None);
        assert_eq!(v.physical_of(2), 3);
        assert_eq!(v.group().ranks(), &[0, 1, 3]);
    }

    #[test]
    fn bitmap_round_trips() {
        for world in [1usize, 3, 64, 65, 130] {
            let alive: Vec<bool> = (0..world).map(|r| r % 3 != 1).collect();
            assert_eq!(decode_alive(&encode_alive(&alive), world), alive);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn view_cannot_lose_everyone() {
        let _ = MembershipView::full(2).without(&[0, 1]);
    }

    #[test]
    fn partial_view_activates_a_prefix_of_the_physical_world() {
        let v = MembershipView::partial(5, 3);
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.world(), 5);
        assert_eq!(v.size(), 3);
        assert_eq!(v.survivors(), vec![0, 1, 2]);
        assert_eq!(v.logical_of(2), Some(2));
        assert_eq!(v.logical_of(4), None);
    }

    #[test]
    fn with_joined_marks_alive_without_bumping_the_epoch() {
        let v = MembershipView::partial(5, 4).without(&[2]); // epoch 1, {0,1,3}
        let grown = v.with_joined(4);
        assert_eq!(grown.epoch(), v.epoch(), "the agreement bumps the epoch, not the pre-view");
        assert_eq!(grown.survivors(), vec![0, 1, 3, 4]);
        assert_eq!(grown.logical_of(4), Some(3), "the joiner takes the next logical rank");
        assert!(!v.is_alive(4), "with_joined does not mutate the source view");
    }

    #[test]
    #[should_panic(expected = "already a member")]
    fn with_joined_rejects_a_live_rank() {
        let _ = MembershipView::full(3).with_joined(1);
    }

    #[test]
    fn join_bootstrap_and_agreement_admit_a_standby_rank() {
        use crate::cluster::{Cluster, ClusterSpec};
        const WORLD: usize = 4;
        const ACTIVE: usize = 3;
        let (results, _) = Cluster::run(ClusterSpec::flat(WORLD), |ctx| {
            let me = ctx.rank();
            let view = MembershipView::partial(WORLD, ACTIVE);
            let timeout = Duration::from_millis(500);
            if me < ACTIVE {
                // Survivor: hand the standby rank the current view, then
                // run the admitting agreement over the grown pre-view.
                ctx.send_join_bootstrap(WORLD - 1, &view).unwrap();
                let pre = view.with_joined(WORLD - 1);
                let (new_view, payloads) =
                    ctx.agree_membership(&pre, &[], &[me as u64 + 10], timeout).unwrap();
                ctx.set_membership_gen(new_view.epoch());
                (new_view, payloads)
            } else {
                // Joiner: probe for the bootstrap, then enter the same
                // agreement with its own payload.
                let (boot, from) = ctx.await_join_bootstrap(Duration::from_secs(5)).unwrap();
                assert!(from < ACTIVE);
                assert_eq!(boot.epoch(), 0);
                assert_eq!(boot.survivors(), vec![0, 1, 2]);
                let pre = boot.with_joined(me);
                ctx.set_membership_gen(pre.epoch() + 1);
                let (new_view, payloads) =
                    ctx.agree_membership(&pre, &[], &[me as u64 + 10], timeout).unwrap();
                let others: Vec<usize> =
                    new_view.survivors().into_iter().filter(|&p| p != from && p != me).collect();
                ctx.drain_join_bootstraps(&others).unwrap();
                (new_view, payloads)
            }
        });
        for (rank, (view, payloads)) in results.iter().enumerate() {
            assert_eq!(view.epoch(), 1, "rank {rank}");
            assert_eq!(view.survivors(), vec![0, 1, 2, 3], "rank {rank}");
            for (p, payload) in payloads.iter().enumerate() {
                assert_eq!(
                    payload.as_deref(),
                    Some(&[p as u64 + 10][..]),
                    "rank {rank}: payload of rank {p}"
                );
            }
        }
    }
}
