//! The expert-placement data model: slot↔class maps and per-class host
//! ranks.

/// A global expert placement: which class occupies each of the `sN` slots.
///
/// Slots are numbered globally; slot `k` lives on rank `k / slots_per_rank`.
/// SYMI placements are contiguous by construction (Algorithm 1), which this
/// type verifies so the contiguous-group optimization of §4.2 is always
/// sound.
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
    pub fn from_counts(counts: &[usize], slots_per_rank: usize) -> Self {
        let slot_class = crate::scheduler::contiguous_assignment(counts);
        assert_eq!(slot_class.len() % slots_per_rank, 0, "slots must tile ranks exactly");
        Self { slot_class, slots_per_rank, expert_classes: counts.len() }
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
    /// placements built by [`ExpertPlacement::from_counts`]).
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
    #[should_panic(expected = "tile ranks exactly")]
    fn uneven_slot_total_rejected() {
        let _ = ExpertPlacement::from_counts(&[2, 1], 2);
    }
}
