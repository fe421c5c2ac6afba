//! The expert-placement data model: slot↔class maps and per-class host
//! ranks.

/// A global expert placement: which class occupies each of the `sN` slots.
///
/// Slots are numbered globally; slot `k` lives on rank `k / slots_per_rank`.
/// SYMI placements are contiguous by construction (Algorithm 1), which
/// [`ExpertPlacement::from_counts`] verifies so the contiguous-group
/// optimization of §4.2 is always sound. DeepSpeed's static stripe
/// ([`ExpertPlacement::striped`]) is the one placement that is not.
///
/// ```
/// use symi::ExpertPlacement;
///
/// // 2 classes over 2 ranks × 2 slots; class 0 holds 3 replicas.
/// let p = ExpertPlacement::from_counts(&[3, 1], 2);
/// assert_eq!(p.host_ranks(0), vec![0, 1]);
/// assert_eq!(p.host_range(1), (1, 1));
/// assert!(p.rank_hosts(0, 0) && !p.rank_hosts(0, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpertPlacement {
    slot_class: Vec<usize>,
    slots_per_rank: usize,
    expert_classes: usize,
}

impl ExpertPlacement {
    /// Builds a placement from replica counts (contiguous assignment).
    ///
    /// # Panics
    /// Panics unless the slots tile the ranks exactly and every class's
    /// slots form one contiguous run — §4.2's precondition, checked here
    /// because every Algorithm 1 placement passes through this constructor.
    pub fn from_counts(counts: &[usize], slots_per_rank: usize) -> Self {
        let slot_class = crate::scheduler::contiguous_assignment(counts);
        assert_eq!(slot_class.len() % slots_per_rank, 0, "slots must tile ranks exactly");
        let runs = slot_class.windows(2).filter(|w| w[0] != w[1]).count()
            + usize::from(!slot_class.is_empty());
        assert_eq!(
            runs,
            counts.iter().filter(|&&c| c > 0).count(),
            "§4.2: every class's slots must form one contiguous run"
        );
        Self { slot_class, slots_per_rank, expert_classes: counts.len() }
    }

    /// DeepSpeed's static stripe: global slot `k` hosts class `k mod E`.
    /// With `E` divisible by `s`, a rank's slots hold `s` distinct classes
    /// and every replica of a class lands on a different rank (DeepSpeed
    /// has no intra-rank expert data parallelism, §4.1). The one placement
    /// whose host groups are not contiguous.
    pub fn striped(expert_classes: usize, ranks: usize, slots_per_rank: usize) -> Self {
        let total = ranks * slots_per_rank;
        assert_eq!(total % expert_classes, 0, "uniform replication must divide");
        assert_eq!(
            expert_classes % slots_per_rank,
            0,
            "striping needs E divisible by s so replicas land on distinct ranks"
        );
        let slot_class = (0..total).map(|k| k % expert_classes).collect();
        Self { slot_class, slots_per_rank, expert_classes }
    }

    /// Uniform static placement (`r = sN/E` replicas each).
    pub fn uniform(expert_classes: usize, ranks: usize, slots_per_rank: usize) -> Self {
        let total = ranks * slots_per_rank;
        assert_eq!(total % expert_classes, 0, "uniform placement must divide");
        Self::from_counts(&vec![total / expert_classes; expert_classes], slots_per_rank)
    }

    pub fn total_slots(&self) -> usize {
        self.slot_class.len()
    }

    pub fn ranks(&self) -> usize {
        self.slot_class.len() / self.slots_per_rank
    }

    pub fn slots_per_rank(&self) -> usize {
        self.slots_per_rank
    }

    pub fn expert_classes(&self) -> usize {
        self.expert_classes
    }

    /// Class hosted in global slot `k`.
    pub fn class_of_slot(&self, slot: usize) -> usize {
        self.slot_class[slot]
    }

    /// Rank hosting global slot `k`.
    pub fn rank_of_slot(&self, slot: usize) -> usize {
        slot / self.slots_per_rank
    }

    /// Global slot ids on `rank`.
    pub(crate) fn slots_of_rank(&self, rank: usize) -> std::ops::Range<usize> {
        rank * self.slots_per_rank..(rank + 1) * self.slots_per_rank
    }

    /// Classes hosted on `rank`, with their local slot offsets.
    pub fn classes_on_rank(&self, rank: usize) -> Vec<(usize, Vec<usize>)> {
        let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
        for (local, slot) in self.slots_of_rank(rank).enumerate() {
            let class = self.slot_class[slot];
            match out.iter_mut().find(|(c, _)| *c == class) {
                Some((_, locals)) => locals.push(local),
                None => out.push((class, vec![local])),
            }
        }
        out
    }

    /// The index of `class` in [`ExpertPlacement::classes_on_rank`] of
    /// `rank` — which of the rank's hosted classes it is — if `rank` hosts
    /// it.
    pub fn hosted_index(&self, rank: usize, class: usize) -> Option<usize> {
        let slots = &self.slot_class[self.slots_of_rank(rank)];
        let first = slots.iter().position(|&c| c == class)?;
        Some((0..first).filter(|&i| !slots[..i].contains(&slots[i])).count())
    }

    /// Replica count per class.
    pub fn replica_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.expert_classes];
        for &c in &self.slot_class {
            counts[c] += 1;
        }
        counts
    }

    /// Global slot ids hosting `class`.
    pub fn slots_of_class(&self, class: usize) -> Vec<usize> {
        (0..self.total_slots()).filter(|&k| self.slot_class[k] == class).collect()
    }

    /// The distinct ranks hosting `class`, ascending.
    pub fn host_ranks(&self, class: usize) -> Vec<usize> {
        let mut ranks = Vec::new();
        for slot in self.slots_of_class(class) {
            let r = self.rank_of_slot(slot);
            if ranks.last() != Some(&r) {
                ranks.push(r);
            }
        }
        ranks
    }

    /// The contiguous rank range `(start, len)` hosting `class`.
    ///
    /// # Panics
    /// Panics if the class's hosts are not contiguous (cannot happen for
    /// placements built by [`ExpertPlacement::from_counts`]; always happens
    /// for a striped class hosted on two or more ranks).
    pub fn host_range(&self, class: usize) -> (usize, usize) {
        let ranks = self.host_ranks(class);
        assert!(!ranks.is_empty(), "class {class} is not placed anywhere");
        let start = ranks[0];
        let len = ranks.len();
        assert!(
            ranks.windows(2).all(|w| w[1] == w[0] + 1),
            "class {class} hosts are not contiguous"
        );
        (start, len)
    }

    /// Whether `rank` hosts at least one replica of `class`.
    pub fn rank_hosts(&self, rank: usize, class: usize) -> bool {
        self.slots_of_rank(rank).any(|s| self.slot_class[s] == class)
    }

    /// Number of slots whose class assignment differs from `other` — the
    /// volume a *coupled* system would migrate, and zero-extra-cost for
    /// SYMI (§3.3).
    pub fn diff_slots(&self, other: &ExpertPlacement) -> usize {
        assert_eq!(self.total_slots(), other.total_slots(), "placement shape mismatch");
        self.slot_class.iter().zip(&other.slot_class).filter(|(a, b)| a != b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosted_index_finds_a_class_among_the_ranks_hosted_classes() {
        let p = ExpertPlacement::from_counts(&[3, 1, 2, 2], 2);
        for rank in 0..4 {
            let hosted = p.classes_on_rank(rank);
            for class in 0..4 {
                let want = hosted.iter().position(|&(c, _)| c == class);
                assert_eq!(p.hosted_index(rank, class), want, "rank {rank} class {class}");
            }
        }
    }

    #[test]
    fn uniform_placement_shape() {
        let p = ExpertPlacement::uniform(4, 4, 2); // 8 slots, r = 2
        assert_eq!(p.replica_counts(), vec![2, 2, 2, 2]);
        assert_eq!(p.class_of_slot(0), 0);
        assert_eq!(p.class_of_slot(7), 3);
        assert_eq!(p.ranks(), 4);
    }

    #[test]
    fn classes_on_rank_groups_local_slots() {
        // counts [3, 1] over 2 ranks × 2 slots: rank0 = [0,0], rank1 = [0,1].
        let p = ExpertPlacement::from_counts(&[3, 1], 2);
        assert_eq!(p.classes_on_rank(0), vec![(0, vec![0, 1])]);
        assert_eq!(p.classes_on_rank(1), vec![(0, vec![0]), (1, vec![1])]);
    }

    #[test]
    fn host_range_is_contiguous() {
        let p = ExpertPlacement::from_counts(&[3, 1], 2);
        assert_eq!(p.host_range(0), (0, 2));
        assert_eq!(p.host_range(1), (1, 1));
    }

    #[test]
    fn host_ranks_dedupes() {
        let p = ExpertPlacement::from_counts(&[4, 2, 2], 4); // 8 slots, 2 ranks
        assert_eq!(p.host_ranks(0), vec![0]);
        assert_eq!(p.host_ranks(1), vec![1]);
        assert_eq!(p.host_ranks(2), vec![1]);
    }

    #[test]
    fn diff_counts_changed_slots() {
        let a = ExpertPlacement::from_counts(&[2, 2], 2);
        let b = ExpertPlacement::from_counts(&[3, 1], 2);
        assert_eq!(a.diff_slots(&b), 1);
        assert_eq!(a.diff_slots(&a), 0);
    }

    #[test]
    fn rank_hosts_checks_membership() {
        let p = ExpertPlacement::from_counts(&[2, 2], 2);
        assert!(p.rank_hosts(0, 0));
        assert!(!p.rank_hosts(0, 1));
        assert!(p.rank_hosts(1, 1));
    }

    #[test]
    fn striped_placement_spreads_replicas() {
        let p = ExpertPlacement::striped(4, 4, 2);
        assert_eq!(p.replica_counts(), vec![2; 4]);
        for class in 0..4 {
            let hosts = p.host_ranks(class);
            assert_eq!(hosts.len(), 2);
            assert_ne!(hosts[0], hosts[1], "replicas must land on distinct ranks");
        }
    }

    #[test]
    #[should_panic(expected = "E divisible by s")]
    fn striping_that_would_stack_replicas_is_rejected() {
        // 2 classes, 4 slots per rank: every rank would host each class twice.
        let _ = ExpertPlacement::striped(2, 2, 4);
    }

    #[test]
    #[should_panic(expected = "tile ranks exactly")]
    fn uneven_slot_total_rejected() {
        let _ = ExpertPlacement::from_counts(&[2, 1], 2);
    }
}
