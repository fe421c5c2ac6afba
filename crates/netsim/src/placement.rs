//! Slot-to-class placements for the simulated systems.
//!
//! The three systems under study differ in *where* expert replicas land:
//! SYMI packs each class's replicas contiguously (Algorithm 1), DeepSpeed
//! stripes classes round-robin so replicas sit on distinct ranks, and
//! FlexMoE spreads replicas greedily onto the emptiest ranks. The latency
//! simulator and the tiered cost model both price traffic off the same
//! placement, so the assignment logic lives here rather than in either.

/// A full assignment of `slots_per_rank × ranks` expert slots to classes.
/// Slot `k` lives on rank `k / slots_per_rank`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotPlacement {
    slots_per_rank: usize,
    slot_class: Vec<usize>,
}

impl SlotPlacement {
    /// SYMI's contiguous packing: class `c`'s replicas occupy consecutive
    /// slots (Algorithm 1's output shape).
    pub(crate) fn symi_contiguous(replicas_per_class: &[usize], slots_per_rank: usize) -> Self {
        let mut slot_class = Vec::with_capacity(replicas_per_class.iter().sum());
        for (class, &r) in replicas_per_class.iter().enumerate() {
            slot_class.extend(std::iter::repeat_n(class, r));
        }
        Self::checked(slots_per_rank, slot_class)
    }

    /// DeepSpeed's static stripe: slot `k` hosts class `k mod E`, so each
    /// class's replicas land on maximally spread-out ranks.
    pub fn striped(expert_classes: usize, ranks: usize, slots_per_rank: usize) -> Self {
        let slot_class = (0..ranks * slots_per_rank).map(|k| k % expert_classes).collect();
        Self::checked(slots_per_rank, slot_class)
    }

    /// FlexMoE's greedy spread: replicas of each class (most-replicated
    /// first) go to the currently emptiest ranks, avoiding ranks already
    /// hosting the class.
    pub(crate) fn greedy_spread(
        replicas_per_class: &[usize],
        ranks: usize,
        slots_per_rank: usize,
    ) -> Self {
        let e = replicas_per_class.len();
        let mut free = vec![slots_per_rank; ranks];
        let mut hosts: Vec<Vec<bool>> = vec![vec![false; e]; ranks];
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); ranks];
        let mut order: Vec<usize> = (0..e).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(replicas_per_class[c]));
        for &class in &order {
            for _ in 0..replicas_per_class[class] {
                let rank = (0..ranks)
                    .filter(|&r| free[r] > 0)
                    .max_by_key(|&r| (free[r], !hosts[r][class], std::cmp::Reverse(r)))
                    .expect("slots available by the sum invariant");
                free[rank] -= 1;
                hosts[rank][class] = true;
                assignment[rank].push(class);
            }
        }
        Self::checked(slots_per_rank, assignment.into_iter().flatten().collect())
    }

    fn checked(slots_per_rank: usize, slot_class: Vec<usize>) -> Self {
        assert!(slots_per_rank >= 1, "need at least one slot per rank");
        assert!(
            slot_class.len().is_multiple_of(slots_per_rank),
            "slot count {} must fill whole ranks of {} slots",
            slot_class.len(),
            slots_per_rank,
        );
        Self { slots_per_rank, slot_class }
    }

    pub fn slots_per_rank(&self) -> usize {
        self.slots_per_rank
    }

    pub fn total_slots(&self) -> usize {
        self.slot_class.len()
    }

    pub fn ranks(&self) -> usize {
        self.slot_class.len() / self.slots_per_rank
    }

    /// Class hosted by slot `k`.
    pub fn class_of_slot(&self, slot: usize) -> usize {
        self.slot_class[slot]
    }

    /// Rank hosting slot `k`.
    pub fn rank_of_slot(&self, slot: usize) -> usize {
        slot / self.slots_per_rank
    }

    /// Per-class distinct host ranks, in first-seen order (the EDP ring
    /// membership).
    pub fn host_ranks(&self, expert_classes: usize) -> Vec<Vec<usize>> {
        let mut hosts: Vec<Vec<usize>> = vec![Vec::new(); expert_classes];
        for (slot, &class) in self.slot_class.iter().enumerate() {
            let rank = slot / self.slots_per_rank;
            if hosts[class].last() != Some(&rank) && !hosts[class].contains(&rank) {
                hosts[class].push(rank);
            }
        }
        hosts
    }

    /// Per-class `(host rank, local replica count)` pairs.
    pub(crate) fn hosts_with_counts(&self, expert_classes: usize) -> Vec<Vec<(usize, usize)>> {
        let mut hosts: Vec<Vec<(usize, usize)>> = vec![Vec::new(); expert_classes];
        for (slot, &class) in self.slot_class.iter().enumerate() {
            let rank = slot / self.slots_per_rank;
            match hosts[class].iter_mut().find(|(r, _)| *r == rank) {
                Some((_, n)) => *n += 1,
                None => hosts[class].push((rank, 1)),
            }
        }
        hosts
    }

    /// Per-rank distinct classes hosted, in first-seen order.
    pub(crate) fn rank_classes(&self, expert_classes: usize) -> Vec<Vec<usize>> {
        let _ = expert_classes;
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.ranks()];
        for (slot, &class) in self.slot_class.iter().enumerate() {
            let rank = slot / self.slots_per_rank;
            if !out[rank].contains(&class) {
                out[rank].push(class);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_packing_minimizes_distinct_hosts() {
        // 4 ranks × 2 slots, classes with replicas [4, 2, 1, 1].
        let p = SlotPlacement::symi_contiguous(&[4, 2, 1, 1], 2);
        assert_eq!(p.ranks(), 4);
        let hosts = p.host_ranks(4);
        assert_eq!(hosts[0], vec![0, 1], "4 replicas pack onto 2 ranks");
        assert_eq!(hosts[1], vec![2]);
        assert_eq!(hosts[2], vec![3]);
        assert_eq!(hosts[3], vec![3]);
    }

    #[test]
    fn stripe_spreads_replicas_to_distinct_ranks() {
        // 4 ranks × 2 slots, 4 classes → r = 2, each class on 2 ranks.
        let p = SlotPlacement::striped(4, 4, 2);
        for hosts in p.host_ranks(4) {
            assert_eq!(hosts.len(), 2, "each replica on its own rank");
        }
    }

    #[test]
    fn greedy_spread_avoids_co_locating_a_class() {
        let p = SlotPlacement::greedy_spread(&[4, 2, 1, 1], 4, 2);
        assert_eq!(p.total_slots(), 8);
        let hosts = p.host_ranks(4);
        assert_eq!(hosts[0].len(), 4, "4 replicas of class 0 on 4 distinct ranks");
    }

    #[test]
    fn hosts_with_counts_tracks_multiplicity() {
        let p = SlotPlacement::symi_contiguous(&[4, 2, 1, 1], 2);
        let hc = p.hosts_with_counts(4);
        assert_eq!(hc[0], vec![(0, 2), (1, 2)]);
        assert_eq!(hc[3], vec![(3, 1)]);
        let total: usize = hc.iter().flatten().map(|&(_, n)| n).sum();
        assert_eq!(total, 8);
    }
}
