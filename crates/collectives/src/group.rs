//! Communicator groups and the contiguous-range registry of §4.2.
//!
//! NCCL requires collectives to run over explicitly constructed communicator
//! groups, and constructing one is a blocking, cluster-wide operation — the
//! paper cites >1000 s for N=2048. Because SYMI's placement scheduler assigns
//! each expert's replicas to *consecutive* ranks (Algorithm 1), only
//! contiguous rank ranges can ever be needed, and there are just
//! `N(N−1)/2 + N` of those. [`GroupRegistry::contiguous`] registers them
//! **lazily**: a range is materialized and cached on first lookup, so
//! per-iteration re-grouping still costs a map hit, startup no longer pays
//! the quadratic sweep, and — crucially for elasticity — the registry's
//! world bound can *grow* when a membership epoch admits a joiner
//! ([`GroupRegistry::register_epoch`]), instead of being frozen at
//! construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// An ordered set of ranks participating in a collective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommGroup {
    ranks: Vec<usize>,
}

impl CommGroup {
    /// A group over an explicit rank list (must be non-empty, sorted,
    /// duplicate-free).
    pub fn new(ranks: Vec<usize>) -> Self {
        assert!(!ranks.is_empty(), "empty communicator group");
        assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks must be sorted and unique");
        Self { ranks }
    }

    /// Contiguous range `[start, start + len)`.
    pub fn range(start: usize, len: usize) -> Self {
        Self::new((start..start + len).collect())
    }

    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Position of `rank` inside the group, if a member.
    pub(crate) fn index_of(&self, rank: usize) -> Option<usize> {
        self.ranks.binary_search(&rank).ok()
    }

    pub fn contains(&self, rank: usize) -> bool {
        self.index_of(rank).is_some()
    }

    /// Whether the group is a contiguous rank range.
    #[cfg(test)]
    pub(crate) fn is_contiguous(&self) -> bool {
        self.ranks.windows(2).all(|w| w[1] == w[0] + 1)
    }
}

/// Lazily registered communicator groups for contiguous rank ranges, with
/// a world bound that can grow across membership epochs.
///
/// Shared read-mostly across every rank thread (each holds it through an
/// `Arc`), so lookups go through a mutex-guarded cache — one uncontended
/// lock plus a map hit, versus NCCL's cluster-wide construction round.
#[derive(Debug)]
pub struct GroupRegistry {
    /// Current world bound: the largest world any registered epoch has
    /// declared. Monotone — a shrink never invalidates smaller ranges.
    world: AtomicUsize,
    /// Materialized ranges, keyed by `(start, len)`.
    cache: Mutex<HashMap<(usize, usize), Arc<CommGroup>>>,
    /// Membership epochs whose world bound has been registered, as
    /// `(epoch, world)` in registration order.
    epochs: Mutex<Vec<(u64, usize)>>,
}

impl GroupRegistry {
    /// A registry bounded by a world of `n` ranks (epoch 0). Ranges are
    /// materialized on first lookup, not here.
    pub fn contiguous(n: usize) -> Self {
        Self {
            world: AtomicUsize::new(n),
            cache: Mutex::new(HashMap::new()),
            epochs: Mutex::new(vec![(0, n)]),
        }
    }

    /// Declares the world bound of a membership `epoch`, growing the
    /// registry's bound if the epoch's world is larger (a join) and
    /// leaving it in place otherwise (a shrink — smaller ranges stay
    /// valid, and stale larger lookups are fenced by the caller's view,
    /// not the registry). Idempotent per epoch; safe from every rank
    /// concurrently.
    pub fn register_epoch(&self, epoch: u64, world: usize) {
        self.world.fetch_max(world, Ordering::SeqCst);
        let mut epochs = self.epochs.lock().expect("registry lock");
        if !epochs.iter().any(|&(e, _)| e == epoch) {
            epochs.push((epoch, world));
        }
    }

    /// The world bound a registered membership epoch declared, if any.
    #[cfg(test)]
    pub(crate) fn world_of_epoch(&self, epoch: u64) -> Option<usize> {
        self.epochs
            .lock()
            .expect("registry lock")
            .iter()
            .find(|&&(e, _)| e == epoch)
            .map(|&(_, w)| w)
    }

    /// Number of ranges materialized so far (grows on demand; a full sweep
    /// of a `n`-rank world tops out at `n(n+1)/2`).
    pub fn count(&self) -> usize {
        self.cache.lock().expect("registry lock").len()
    }

    /// Looks up the group `[start, start + len)`, materializing and
    /// caching it on first use.
    pub fn range(&self, start: usize, len: usize) -> Arc<CommGroup> {
        let world = self.world.load(Ordering::SeqCst);
        assert!(
            len >= 1 && start + len <= world,
            "range [{start}, {}) out of world {world}",
            start + len,
        );
        let mut cache = self.cache.lock().expect("registry lock");
        Arc::clone(
            cache.entry((start, len)).or_insert_with(|| Arc::new(CommGroup::range(start, len))),
        )
    }

    /// The all-ranks group over the current world bound.
    pub fn world(&self) -> Arc<CommGroup> {
        self.range(0, self.world.load(Ordering::SeqCst))
    }

    pub fn world_size(&self) -> usize {
        self.world.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_materializes_lazily_and_dedups_to_the_triangular_count() {
        // Construction registers nothing; a full sweep materializes the
        // n singletons + n(n-1)/2 longer ranges = n(n+1)/2 total, and a
        // second sweep hits the cache without growing it.
        for n in [1usize, 2, 5, 16] {
            let reg = GroupRegistry::contiguous(n);
            assert_eq!(reg.count(), 0, "n = {n}: construction is lazy");
            for _ in 0..2 {
                for start in 0..n {
                    for len in 1..=(n - start) {
                        assert_eq!(reg.range(start, len).ranks().len(), len);
                    }
                }
                assert_eq!(reg.count(), n * (n + 1) / 2, "n = {n}");
            }
        }
    }

    #[test]
    fn post_shrink_lookups_still_resolve() {
        // After a shrink (epoch 1, world 3 of an initial 4) every range of
        // the smaller world must keep resolving — nothing is invalidated.
        let reg = GroupRegistry::contiguous(4);
        reg.register_epoch(1, 3);
        assert_eq!(reg.range(0, 3).ranks(), &[0, 1, 2]);
        assert_eq!(reg.range(1, 2).ranks(), &[1, 2]);
        assert_eq!(reg.world_size(), 4, "a shrink never lowers the bound");
        assert_eq!(reg.world_of_epoch(1), Some(3));
    }

    #[test]
    fn post_join_epoch_grows_the_world_bound() {
        // A join grows the world: ranges covering the new rank resolve
        // only after the grown epoch is registered.
        let reg = GroupRegistry::contiguous(3);
        let out_of_bound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.range(2, 2);
        }));
        assert!(out_of_bound.is_err(), "the joiner's range must not resolve before the epoch");
        reg.register_epoch(1, 4);
        assert_eq!(reg.range(2, 2).ranks(), &[2, 3]);
        assert_eq!(reg.range(3, 1).ranks(), &[3]);
        assert_eq!(reg.world().size(), 4);
        assert_eq!(reg.world_of_epoch(1), Some(4));
        // Idempotent re-registration (every rank registers the epoch).
        reg.register_epoch(1, 4);
        assert_eq!(reg.world_of_epoch(1), Some(4));
    }

    #[test]
    fn range_lookup_matches_construction() {
        let reg = GroupRegistry::contiguous(8);
        let g = reg.range(2, 3);
        assert_eq!(g.ranks(), &[2, 3, 4]);
        assert!(g.is_contiguous());
    }

    #[test]
    fn world_covers_all_ranks() {
        let reg = GroupRegistry::contiguous(4);
        assert_eq!(reg.world().size(), 4);
    }

    #[test]
    fn index_of_finds_members_only() {
        let g = CommGroup::range(3, 4); // ranks 3,4,5,6
        assert_eq!(g.index_of(5), Some(2));
        assert_eq!(g.index_of(7), None);
        assert!(g.contains(3));
        assert!(!g.contains(0));
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_group_rejected() {
        let _ = CommGroup::new(vec![3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of world")]
    fn out_of_range_lookup_panics() {
        let reg = GroupRegistry::contiguous(4);
        let _ = reg.range(2, 3);
    }

    #[test]
    fn non_contiguous_group_is_detectable() {
        let g = CommGroup::new(vec![0, 2, 4]);
        assert!(!g.is_contiguous());
    }
}
