//! The Expert Placement Scheduler — Algorithm 1 of the paper.
//!
//! Replica counts are proportional to observed popularity, floored at one
//! replica per class (so every class stays reachable), rounded down, then
//! corrected so the total exactly fills the `G × S` expert slots. The
//! correction removes replicas from the classes with the largest positive
//! rounding surplus and adds to those with the largest deficit. Instances
//! are finally assigned to slots *contiguously*
//! ([`ExpertPlacement::from_counts`](crate::ExpertPlacement::from_counts)),
//! which (a) packs replicas of one class onto as few ranks as possible —
//! feeding the intra+inter rank gradient sum of §4.1 — and (b) guarantees
//! every EDP communicator is a contiguous rank range, enabling §4.2's
//! pre-registered groups.

use symi_model::PlacementPolicy;

/// Algorithm 1: popularity → replica counts.
///
/// `total_slots` is the paper's `G × S` (world size × slots per rank).
/// Returns one replica count per class, summing to `total_slots`, each ≥ 1.
///
/// ```
/// use symi::compute_placement;
///
/// // One very hot expert and three cold ones over 8 slots:
/// let counts = compute_placement(&[800, 100, 50, 50], 8);
/// assert_eq!(counts.iter().sum::<usize>(), 8);
/// assert_eq!(counts[0], 5); // ~80% of demand, capped by the 1-replica floors
/// assert!(counts.iter().all(|&c| c >= 1));
/// ```
///
/// # Panics
/// Panics if `total_slots < popularity.len()` (cannot give every class a
/// replica) or if `popularity` is empty.
pub fn compute_placement(popularity: &[u64], total_slots: usize) -> Vec<usize> {
    let e = popularity.len();
    assert!(e > 0, "no expert classes");
    assert!(total_slots >= e, "need at least one slot per expert class");

    // Saturating: popularity counts near u64::MAX must degrade to "all the
    // demand" rather than aborting the scheduler (the goals below are f64
    // ratios, so saturation only flattens already-astronomic inputs).
    let total_pop: u64 = popularity.iter().fold(0u64, |acc, &p| acc.saturating_add(p));
    // With no signal (e.g. iteration 0), fall back to uniform-ish.
    let goal: Vec<f64> = if total_pop == 0 {
        vec![total_slots as f64 / e as f64; e]
    } else {
        popularity.iter().map(|&p| p as f64 / total_pop as f64 * total_slots as f64).collect()
    };

    // Initial assignment: floor(max(goal, 1)).
    let mut counts: Vec<usize> = goal.iter().map(|&g| g.max(1.0).floor() as usize).collect();
    // diff = counts - goal: how far above its ideal share each class sits.
    let mut diff: Vec<f64> = counts.iter().zip(&goal).map(|(&c, &g)| c as f64 - g).collect();

    // Rounding correction (Algorithm 1's two while-loops).
    while counts.iter().sum::<usize>() > total_slots {
        // Remove from the class most above its goal that can still shrink.
        let i = (0..e)
            .filter(|&i| counts[i] > 1)
            .max_by(|&a, &b| diff[a].total_cmp(&diff[b]))
            .expect("some class must hold more than one replica");
        counts[i] -= 1;
        diff[i] -= 1.0;
    }
    while counts.iter().sum::<usize>() < total_slots {
        let i = (0..e).min_by(|&a, &b| diff[a].total_cmp(&diff[b])).expect("non-empty");
        counts[i] += 1;
        diff[i] += 1.0;
    }
    counts
}

/// Whether a world of `ranks` ranks with `slots_per_rank` slots each can
/// still place `expert_classes` classes at the one-replica floor — the
/// elastic-recovery viability check: a shrunk world that fails this cannot
/// host every class and must stop loudly instead of re-placing.
pub(crate) fn supports_world(expert_classes: usize, slots_per_rank: usize, ranks: usize) -> bool {
    ranks > 0 && slots_per_rank * ranks >= expert_classes
}

/// Whether a replica-count vector is a legal placement over `total_slots`:
/// non-empty, one-replica floor everywhere, and exactly filling the slots.
/// [`compute_placement`] guarantees this by construction; checkpoint
/// restore re-checks it on counts read from disk, where a CRC-valid but
/// semantically impossible vector must be rejected before it reaches
/// `ExpertPlacement::from_counts`.
pub fn valid_replica_counts(counts: &[usize], total_slots: usize) -> bool {
    !counts.is_empty()
        && counts.iter().all(|&c| c >= 1)
        && counts.iter().sum::<usize>() == total_slots
}

/// The paper's placement policy: next iteration's replication mimics the
/// popularity observed in the *previous* iteration (§3.4 — reshuffling
/// between router assignment and dispatch would be prohibitive, and the
/// previous iteration is a reliable proxy).
pub struct SymiPolicy {
    pub total_slots: usize,
}

impl PlacementPolicy for SymiPolicy {
    fn name(&self) -> &'static str {
        "symi"
    }

    fn next_replicas(&mut self, _layer: usize, popularity: &[u64], _iter: u64) -> Vec<usize> {
        compute_placement(popularity, self.total_slots)
    }

    fn on_world_shrink(&mut self, total_slots: usize) {
        self.total_slots = total_slots;
    }

    fn on_world_grow(&mut self, total_slots: usize) {
        self.total_slots = total_slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_fill_slots_exactly_and_respect_floor() {
        let pop = [100u64, 0, 50, 3, 0, 900, 20, 1];
        let counts = compute_placement(&pop, 64);
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn replicas_are_proportional_to_popularity() {
        let pop = [800u64, 100, 100];
        let counts = compute_placement(&pop, 10);
        assert_eq!(counts, vec![8, 1, 1]);
    }

    #[test]
    fn zero_popularity_classes_keep_one_replica() {
        let pop = [1000u64, 0, 0, 0];
        let counts = compute_placement(&pop, 8);
        assert_eq!(counts, vec![5, 1, 1, 1]);
    }

    #[test]
    fn uniform_popularity_gives_uniform_replicas() {
        let counts = compute_placement(&[25u64; 16], 64);
        assert_eq!(counts, vec![4usize; 16]);
    }

    #[test]
    fn no_popularity_signal_falls_back_to_uniform() {
        let counts = compute_placement(&[0u64; 4], 8);
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn extreme_skew_is_capped_by_the_floor() {
        // One class hogs everything; the others still get one slot each.
        let mut pop = vec![0u64; 32];
        pop[7] = 1_000_000;
        let counts = compute_placement(&pop, 64);
        assert_eq!(counts[7], 64 - 31);
        assert_eq!(counts.iter().sum::<usize>(), 64);
    }

    #[test]
    fn rounding_correction_conserves_totals_for_many_shapes() {
        for slots in [8usize, 17, 64, 100] {
            for seedish in 0..20u64 {
                let pop: Vec<u64> = (0..8).map(|i| (i as u64 * 37 + seedish * 101) % 500).collect();
                let counts = compute_placement(&pop, slots);
                assert_eq!(counts.iter().sum::<usize>(), slots, "slots={slots} seed={seedish}");
                assert!(counts.iter().all(|&c| c >= 1));
            }
        }
    }

    #[test]
    fn policy_tracks_previous_iteration() {
        use symi_model::PlacementPolicy;
        let mut p = SymiPolicy { total_slots: 16 };
        let r1 = p.next_replicas(0, &[100, 10, 10, 10], 0);
        assert!(r1[0] > r1[1], "popular class gets more replicas");
        let r2 = p.next_replicas(0, &[10, 100, 10, 10], 1);
        assert!(r2[1] > r2[0], "policy follows the shift immediately");
    }

    #[test]
    #[should_panic(expected = "at least one slot per expert class")]
    fn too_few_slots_panics() {
        let _ = compute_placement(&[1, 1, 1], 2);
    }

    #[test]
    fn supports_world_tracks_the_one_replica_floor() {
        assert!(supports_world(4, 2, 2)); // 4 slots, 4 classes: exactly viable
        assert!(!supports_world(4, 2, 1)); // 2 slots cannot host 4 classes
        assert!(!supports_world(1, 1, 0)); // an empty world hosts nothing
        assert!(supports_world(4, 2, 3)); // the elastic N−1 case
    }
}
