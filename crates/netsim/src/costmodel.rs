//! The paper's analytic communication-cost model: §3.3 items (I)–(III),
//! Appendix A.2's full derivation, and Appendix A.1's k-group partitioning
//! bound.
//!
//! Variables follow Table 2/4 of the paper:
//! `N` nodes, `E` expert classes, `s` expert slots per rank, `r` replicas
//! per expert (static baseline), `r_i` replicas of expert *i* (SYMI),
//! `G`/`W` gradient/weight bytes per expert instance, `O` optimizer bytes
//! per expert class.

use crate::placement::ExpertPlacement;
use crate::topology::{HardwareSpec, Topology};

/// Which system's cost expression to evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// Static uniform replication with the optimizer sharded across each
    /// expert's EDP group (DeepSpeed + ZeRO-1 offload).
    StaticBaseline,
    /// SYMI: optimizer uniformly sharded across all N nodes.
    Symi,
}

/// Inputs of the analytic model.
///
/// ```
/// use symi_netsim::{CommCostModel, SystemKind};
/// use symi_netsim::topology::HardwareSpec;
///
/// // §3.3's GPT3-175B worked example:
/// let m = CommCostModel {
///     nodes: 2048, expert_classes: 64, slots_per_rank: 2,
///     grad_bytes: 3.375e9, weight_bytes: 3.375e9, optimizer_bytes: 27.0e9,
///     hw: HardwareSpec::paper_analysis_example(),
/// };
/// // The adaptive system costs only ~1.52% more communication per rank…
/// assert!((m.symi_overhead_ratio() - 0.0152).abs() < 2e-4);
/// // …while the footprint and data volume are identical by construction.
/// assert_eq!(m.optimizer_footprint_bytes(), 64.0 * 27.0e9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommCostModel {
    /// Nodes in the cluster (`N`). One GPU per node, as in the paper's model.
    pub nodes: usize,
    /// Expert classes (`E`).
    pub expert_classes: usize,
    /// Expert slots per rank (`s`).
    pub slots_per_rank: usize,
    /// Gradient bytes per expert instance (`G`).
    pub grad_bytes: f64,
    /// Weight bytes per expert instance (`W`).
    pub weight_bytes: f64,
    /// Optimizer bytes per expert class (`O`).
    pub optimizer_bytes: f64,
    /// Hardware bandwidths.
    pub hw: HardwareSpec,
}

/// Evaluated per-phase costs, in seconds per rank, plus totals.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommCosts {
    /// Grad Communication Phase cost per rank (`T_G`).
    pub t_grad: f64,
    /// Weight Communication Phase cost per rank (`T_W`).
    pub t_weight: f64,
}

impl CommCosts {
    pub fn total(&self) -> f64 {
        self.t_grad + self.t_weight
    }
}

impl CommCostModel {
    /// Total expert instances in the system: `sN` (equations (1)/(2)).
    pub fn total_instances(&self) -> usize {
        self.slots_per_rank * self.nodes
    }

    /// Uniform replication degree of the static baseline: `r = sN / E`.
    ///
    /// # Panics
    /// Panics if `sN` is not divisible by `E` (the static baseline requires
    /// uniform replication).
    pub fn static_replicas(&self) -> usize {
        let total = self.total_instances();
        assert_eq!(
            total % self.expert_classes,
            0,
            "static baseline needs sN divisible by E ({total} vs {})",
            self.expert_classes
        );
        total / self.expert_classes
    }

    /// (I) Total optimizer memory footprint — identical for both systems:
    /// `M = E · O`.
    pub fn optimizer_footprint_bytes(&self) -> f64 {
        self.expert_classes as f64 * self.optimizer_bytes
    }

    /// (II) Total data transferred in the Grad Communication Phase —
    /// `D_G = sNG` for both systems.
    pub fn grad_data_bytes(&self) -> f64 {
        self.total_instances() as f64 * self.grad_bytes
    }

    /// (II) Total data transferred in the Weight Communication Phase —
    /// `D_W = sNW` for both systems.
    pub fn weight_data_bytes(&self) -> f64 {
        self.total_instances() as f64 * self.weight_bytes
    }

    /// (III) Per-rank communication cost of both phases (Appendix A.2).
    ///
    /// Static baseline:
    /// `T_X = (E/N)·X/BW_pci + ((sN−E)/N)·X/BW_net`
    ///
    /// SYMI:
    /// `T_X = (E/N)·X/BW_pci + ((sN−s)/N)·X/BW_net`
    pub fn costs(&self, system: SystemKind) -> CommCosts {
        let n = self.nodes as f64;
        let e = self.expert_classes as f64;
        let s = self.slots_per_rank as f64;
        let net_fraction = match system {
            SystemKind::StaticBaseline => (s * n - e) / n,
            SystemKind::Symi => (s * n - s) / n,
        };
        let pci_fraction = e / n;
        let per_phase =
            |x: f64| pci_fraction * x / self.hw.bw_pci + net_fraction * x / self.hw.bw_net;
        CommCosts { t_grad: per_phase(self.grad_bytes), t_weight: per_phase(self.weight_bytes) }
    }

    /// §3.3's closed-form relative overhead of SYMI over the static
    /// baseline:
    /// `ΔT/T_static = (E − s) / (sN − E(1 − BW_net/BW_pci))`.
    pub fn symi_overhead_ratio(&self) -> f64 {
        let n = self.nodes as f64;
        let e = self.expert_classes as f64;
        let s = self.slots_per_rank as f64;
        (e - s) / (s * n - e * (1.0 - self.hw.bw_net / self.hw.bw_pci))
    }

    /// Appendix A.1's upper bound on the per-rank cost when the optimizer is
    /// partitioned into `k` groups of `N/k` nodes each (each group owning
    /// `E/k` experts):
    /// `T_X ≤ (E/N)·X/BW_pci + k·((sN−s)/N)·X/BW_net`.
    ///
    /// The bound is attained by groups holding maximally popular experts;
    /// SYMI is the `k = 1` point, proving uniform partitioning optimal.
    pub fn kpart_cost_bound(&self, k: usize, phase_bytes: f64) -> f64 {
        assert!(k >= 1 && self.nodes.is_multiple_of(k), "k must divide N");
        let n = self.nodes as f64;
        let e = self.expert_classes as f64;
        let s = self.slots_per_rank as f64;
        e / n * phase_bytes / self.hw.bw_pci
            + k as f64 * (s * n - s) / n * phase_bytes / self.hw.bw_net
    }

    /// Exact k-group per-rank cost for a *given* replica distribution
    /// (Appendix A.1's pre-bound expression), for the group `g` owning
    /// experts `group_experts`, where `remote_instances[i]` is the number of
    /// instances of expert `i` hosted outside the nodes of group `g`.
    ///
    /// `T_X^g = (E/k)·(X/(N/k))/BW_pci + (X/(N/k))·Σ_{e_i∈g} remote_i /BW_net`
    pub fn kpart_cost_exact(
        &self,
        k: usize,
        group_experts: usize,
        remote_instances_sum: usize,
        phase_bytes: f64,
    ) -> f64 {
        assert!(k >= 1 && self.nodes.is_multiple_of(k), "k must divide N");
        let nodes_per_group = (self.nodes / k) as f64;
        let shard = phase_bytes / nodes_per_group;
        group_experts as f64 * shard / self.hw.bw_pci
            + remote_instances_sum as f64 * shard / self.hw.bw_net
    }

    /// Cost of migrating one expert's *coupled* state (weights + optimizer)
    /// across the network — what FlexMoE pays per moved replica (§2.2's
    /// rebalancing-cost discussion).
    pub fn coupled_migration_seconds(&self) -> f64 {
        (self.weight_bytes + self.optimizer_bytes) / self.hw.bw_net
    }
}

/// Where the optimizer state of each expert class is sharded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardScope {
    /// Uniformly over all `N` ranks — SYMI's `k = 1` point.
    Cluster,
    /// Appendix A.1's k-group partitioning aligned to the cells of tier
    /// `level`: cell `g` owns classes `[g·E/k, (g+1)·E/k)` and shards them
    /// over its own ranks. Footprint-preserving (`E·O` total), but traffic
    /// stays inside a cell whenever placement co-locates a class's replicas
    /// with its owner cell.
    TierCell {
        /// Tier whose cells form the partitioning groups.
        level: usize,
    },
    /// Coupled/ZeRO-style: each class's state is sharded across its own
    /// host ranks (the EDP group), so the gradient shard is local after the
    /// EDP all-reduce and only the weight all-gather crosses links.
    EdpGroup,
}

/// Per-tier byte attribution plus the bottleneck-rank α–β time of one
/// communication phase on a hierarchical topology.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TierPhase {
    /// Cluster-wide bytes crossing each tier (innermost first).
    pub bytes_by_tier: Vec<f64>,
    /// PCIe staging bytes on the busiest rank.
    pub pci_bytes_per_rank: f64,
    /// α–β seconds on the busiest rank (tier bytes over tier bandwidth,
    /// plus per-peer-message latency, plus the PCIe term).
    pub seconds: f64,
}

impl TierPhase {
    /// An all-zero phase over `tiers` bandwidth classes.
    pub fn zero(tiers: usize) -> Self {
        Self { bytes_by_tier: vec![0.0; tiers], pci_bytes_per_rank: 0.0, seconds: 0.0 }
    }

    /// Total network bytes across all tiers.
    #[cfg(test)]
    pub fn total_bytes(&self) -> f64 {
        self.bytes_by_tier.iter().sum()
    }
}

/// §3.3's cost expressions generalized to a multi-tier [`Topology`]: every
/// transfer is priced by the narrowest tier it crosses, and the result
/// carries per-tier byte attribution. On a one-tier [`Topology::flat`] with
/// zero latency this reproduces [`CommCostModel::costs`] exactly.
#[derive(Clone, Debug)]
pub struct TieredCostModel<'a> {
    pub topo: &'a Topology,
    /// Expert classes (`E`).
    pub expert_classes: usize,
    /// GPU↔host staging bandwidth, bytes/s.
    pub bw_pci: f64,
}

impl<'a> TieredCostModel<'a> {
    /// Wraps a flat [`CommCostModel`]'s parameters around a topology.
    ///
    /// # Panics
    /// Panics when the topology's rank count differs from the model's.
    pub(crate) fn from_flat(flat: &CommCostModel, topo: &'a Topology) -> Self {
        assert_eq!(flat.nodes, topo.ranks(), "topology must match the model's rank count");
        Self { topo, expert_classes: flat.expert_classes, bw_pci: flat.hw.bw_pci }
    }

    /// One shard-exchange phase: every instance moves `phase_bytes / |owners|`
    /// to (grad) or from (weight) each owner of its class's state. The two
    /// directions have identical per-pair volumes, so one routine prices
    /// both; the bottleneck rank is the owner side either way.
    ///
    /// `ShardScope::EdpGroup` models the *weight all-gather* of a coupled
    /// system (each host assembles the class from the other hosts' shards);
    /// its gradient phase is link-free after the EDP sync and should be
    /// priced as [`TierPhase::zero`] plus PCIe.
    pub(crate) fn shard_exchange(
        &self,
        placement: &ExpertPlacement,
        scope: ShardScope,
        phase_bytes: f64,
    ) -> TierPhase {
        let n = self.topo.ranks();
        assert_eq!(placement.ranks(), n, "placement must cover the topology");
        let tiers = self.topo.num_tiers();
        let e = self.expert_classes;
        let mut out = TierPhase::zero(tiers);

        match scope {
            ShardScope::Cluster => {
                // Owners = all ranks, shard = X/N; every rank hosts
                // `s` instances, so the exchange is rank-symmetric and the
                // census gives the per-tier split in closed form.
                let shard = phase_bytes / n as f64;
                let s = placement.slots_per_rank() as f64;
                let census = self.topo.tier_census();
                let mut secs = 0.0;
                for (t, &peers) in census.iter().enumerate() {
                    let per_rank = peers as f64 * s * shard;
                    out.bytes_by_tier[t] = n as f64 * per_rank;
                    secs += per_rank / self.topo.bw(t) + peers as f64 * self.topo.latency(t);
                }
                out.pci_bytes_per_rank = e as f64 * shard;
                out.seconds = secs + out.pci_bytes_per_rank / self.bw_pci;
            }
            ShardScope::TierCell { level } => {
                let cell = self.topo.cell_size(level);
                let k = n / cell;
                assert!(
                    e.is_multiple_of(k),
                    "tier-cell sharding needs E ({e}) divisible by the {k} cells"
                );
                let shard = phase_bytes / cell as f64;
                let classes_per_cell = e / k;
                self.pairwise(
                    placement,
                    |class| {
                        let owner_cell = class / classes_per_cell;
                        (owner_cell * cell, cell, shard)
                    },
                    &mut out,
                );
                out.pci_bytes_per_rank = classes_per_cell as f64 * shard;
                out.seconds += out.pci_bytes_per_rank / self.bw_pci;
            }
            ShardScope::EdpGroup => {
                // Owners = the class's own host ranks; used for the weight
                // all-gather (see the doc comment). Host sets are not
                // contiguous in general, so fall through to the host list.
                let mut per_rank_bytes = vec![vec![0.0f64; tiers]; n];
                let mut per_rank_msgs = vec![vec![0.0f64; tiers]; n];
                let mut pci = vec![0.0f64; n];
                for hosts in placement.hosts_with_counts() {
                    if hosts.is_empty() {
                        continue;
                    }
                    let shard = phase_bytes / hosts.len() as f64;
                    for &(h, count) in &hosts {
                        for &(o, _) in &hosts {
                            if o == h {
                                continue;
                            }
                            let t = self.topo.tier_between(h, o).expect("h != o");
                            out.bytes_by_tier[t] += count as f64 * shard;
                            per_rank_bytes[o][t] += count as f64 * shard;
                            per_rank_msgs[o][t] += 1.0;
                        }
                    }
                    for &(o, _) in &hosts {
                        pci[o] += shard;
                    }
                }
                out.seconds = self.busiest(&per_rank_bytes, &per_rank_msgs);
                out.pci_bytes_per_rank = pci.iter().copied().fold(0.0, f64::max);
                out.seconds += out.pci_bytes_per_rank / self.bw_pci;
            }
        }
        out
    }

    /// Pairwise accumulation for contiguous owner ranges: for each instance
    /// of each class, `owner_of(class)` yields `(first_owner, owner_count,
    /// shard_bytes)` and every (host, owner) pair is attributed to the tier
    /// it crosses.
    fn pairwise(
        &self,
        placement: &ExpertPlacement,
        owner_of: impl Fn(usize) -> (usize, usize, f64),
        out: &mut TierPhase,
    ) {
        let tiers = self.topo.num_tiers();
        let n = placement.ranks();
        let mut per_rank_bytes = vec![vec![0.0f64; tiers]; n];
        let mut per_rank_msgs = vec![vec![0.0f64; tiers]; n];
        for (class, hosts) in placement.hosts_with_counts().iter().enumerate() {
            let (first, count, shard) = owner_of(class);
            for &(h, mult) in hosts {
                for o in first..first + count {
                    if o == h {
                        continue;
                    }
                    let t = self.topo.tier_between(h, o).expect("h != o");
                    out.bytes_by_tier[t] += mult as f64 * shard;
                    per_rank_bytes[o][t] += mult as f64 * shard;
                    per_rank_msgs[o][t] += 1.0;
                }
            }
        }
        out.seconds += self.busiest(&per_rank_bytes, &per_rank_msgs);
    }

    fn busiest(&self, bytes: &[Vec<f64>], msgs: &[Vec<f64>]) -> f64 {
        bytes
            .iter()
            .zip(msgs)
            .map(|(b, m)| {
                b.iter()
                    .zip(m)
                    .enumerate()
                    .map(|(t, (bb, mm))| bb / self.topo.bw(t) + mm * self.topo.latency(t))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// α–β cost and per-tier bytes of a flat ring all-reduce over `hosts`.
    /// Every step is gated by the slowest link in the ring, so one strided
    /// hop across the spine poisons all `2(m−1)` steps — the failure mode
    /// the tree collective removes.
    pub(crate) fn ring_allreduce(&self, hosts: &[usize], bytes: f64) -> TierPhase {
        let tiers = self.topo.num_tiers();
        let m = hosts.len();
        let mut out = TierPhase::zero(tiers);
        if m <= 1 || bytes <= 0.0 {
            return out;
        }
        let per_rank = 2.0 * (m as f64 - 1.0) / m as f64 * bytes;
        let mut slowest_bw = f64::INFINITY;
        let mut worst_lat = 0.0f64;
        for i in 0..m {
            let next = hosts[(i + 1) % m];
            if hosts[i] == next {
                continue;
            }
            let t = self.topo.tier_between(hosts[i], next).expect("distinct hosts");
            out.bytes_by_tier[t] += per_rank;
            slowest_bw = slowest_bw.min(self.topo.bw(t));
            worst_lat = worst_lat.max(self.topo.latency(t));
        }
        out.seconds = 2.0 * (m as f64 - 1.0) * (bytes / m as f64 / slowest_bw + worst_lat);
        out
    }

    /// α–β cost and per-tier bytes of the topology-aware tree all-reduce
    /// (ring within each tier cell, representatives recurse up, fan back
    /// down). Priced only: no transport here has tiers, so the runtime
    /// executes the ring (DESIGN.md, *Hierarchical topology*).
    /// Moves `3(m_c−1)` buffers per cell instead of the flat ring's
    /// `2(m−1)`, but each stays on the fastest tier that contains it.
    pub(crate) fn tree_allreduce(&self, hosts: &[usize], bytes: f64) -> TierPhase {
        let tiers = self.topo.num_tiers();
        let mut out = TierPhase::zero(tiers);
        if hosts.len() <= 1 || bytes <= 0.0 {
            return out;
        }
        let mut active: Vec<usize> = hosts.to_vec();
        active.sort_unstable();
        for level in 0..tiers {
            if active.len() <= 1 {
                break;
            }
            // Partition the actives by their tier-`level` cell.
            let mut cells: Vec<Vec<usize>> = Vec::new();
            let mut cur_cell = usize::MAX;
            for &r in &active {
                let c = self.topo.cell_of(r, level);
                if c != cur_cell {
                    cells.push(Vec::new());
                    cur_cell = c;
                }
                cells.last_mut().expect("just pushed").push(r);
            }
            let mut level_secs = 0.0f64;
            let mut next_active = Vec::with_capacity(cells.len());
            for members in &cells {
                next_active.push(members[0]);
                let mc = members.len();
                if mc <= 1 {
                    continue;
                }
                // Ring among cell members (all cross exactly this tier)
                // plus the representative's fan-down of the final buffer.
                let ring = 2.0
                    * (mc as f64 - 1.0)
                    * (bytes / mc as f64 / self.topo.bw(level) + self.topo.latency(level));
                let down =
                    (mc as f64 - 1.0) * (bytes / self.topo.bw(level) + self.topo.latency(level));
                level_secs = level_secs.max(ring + down);
                out.bytes_by_tier[level] += 3.0 * (mc as f64 - 1.0) * bytes;
            }
            out.seconds += level_secs;
            active = next_active;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §3.3's running example: GPT3-175B layer with E = 64 experts,
    /// N = 2048, s = 2, PCIe 64 GB/s, IB 400 Gbps, G = W = 3.375 GB,
    /// O = 27 GB.
    fn paper_example() -> CommCostModel {
        CommCostModel {
            nodes: 2048,
            expert_classes: 64,
            slots_per_rank: 2,
            grad_bytes: 3.375e9,
            weight_bytes: 3.375e9,
            optimizer_bytes: 27.0e9,
            hw: HardwareSpec::paper_analysis_example(),
        }
    }

    #[test]
    fn footprint_is_1_7tb_per_layer() {
        // §3.3 (I): "~1.7 TB per layer" for both systems.
        let m = paper_example();
        let tb = m.optimizer_footprint_bytes() / 1e12;
        assert!((tb - 1.728).abs() < 0.01, "footprint {tb} TB");
    }

    #[test]
    fn data_volume_is_27tb_total() {
        // §3.3 (II): 2048 nodes × 2 slots × (3.375 + 3.375) GB ≈ 27 TB.
        let m = paper_example();
        let total = (m.grad_data_bytes() + m.weight_data_bytes()) / 1e12;
        assert!((total - 27.648).abs() < 0.1, "total {total} TB");
    }

    #[test]
    fn per_rank_costs_match_paper_numbers() {
        // §3.3 (III): "~0.273 s vs ~0.269 s total communication".
        let m = paper_example();
        let static_total = m.costs(SystemKind::StaticBaseline).total();
        let symi_total = m.costs(SystemKind::Symi).total();
        assert!((static_total - 0.269).abs() < 0.002, "static {static_total}");
        assert!((symi_total - 0.273).abs() < 0.002, "symi {symi_total}");
    }

    #[test]
    fn overhead_ratio_is_1_52_percent() {
        let m = paper_example();
        let ratio = m.symi_overhead_ratio();
        assert!((ratio - 0.0152).abs() < 2e-4, "overhead {ratio}");
        // Closed form must agree with the evaluated costs.
        let static_total = m.costs(SystemKind::StaticBaseline).total();
        let symi_total = m.costs(SystemKind::Symi).total();
        let measured = (symi_total - static_total) / static_total;
        assert!((ratio - measured).abs() < 1e-6);
    }

    #[test]
    fn data_volume_is_system_invariant() {
        // The paper's key claim: rebalancing moves zero extra data.
        let m = paper_example();
        // D_G and D_W do not take the system as a parameter at all — the
        // identity sN·X holds for any replica assignment summing to sN.
        assert_eq!(m.grad_data_bytes(), 2048.0 * 2.0 * 3.375e9);
        assert_eq!(m.weight_data_bytes(), 2048.0 * 2.0 * 3.375e9);
    }

    #[test]
    fn kpart_bound_grows_with_k_and_k1_matches_symi() {
        let m = paper_example();
        let symi = m.costs(SystemKind::Symi);
        let b1 = m.kpart_cost_bound(1, m.grad_bytes);
        assert!((b1 - symi.t_grad).abs() < 1e-9, "k=1 bound equals SYMI cost");
        let mut prev = b1;
        for k in [2usize, 4, 8, 16] {
            let b = m.kpart_cost_bound(k, m.grad_bytes);
            assert!(b > prev, "bound must increase with k");
            prev = b;
        }
    }

    #[test]
    fn kpart_exact_reduces_to_symi_at_k1() {
        let m = paper_example();
        // k = 1: one group owns all E experts; remote instances are sN − s
        // for a representative rank.
        let exact = m.kpart_cost_exact(
            1,
            m.expert_classes,
            m.total_instances() - m.slots_per_rank,
            m.grad_bytes,
        );
        let symi = m.costs(SystemKind::Symi).t_grad;
        assert!((exact - symi).abs() < 1e-9);
    }

    #[test]
    fn static_replicas_divides() {
        assert_eq!(paper_example().static_replicas(), 64);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn static_replicas_panics_when_uneven() {
        let mut m = paper_example();
        m.expert_classes = 63;
        let _ = m.static_replicas();
    }

    #[test]
    fn coupled_migration_matches_intro_example() {
        // §2.2: moving 3.375 GB weights over 400 Gbps ≈ 0.0675 s and 27 GB
        // of optimizer state ≈ 0.54 s.
        let m = paper_example();
        let w = m.weight_bytes / m.hw.bw_net;
        let o = m.optimizer_bytes / m.hw.bw_net;
        assert!((w - 0.0675).abs() < 1e-4);
        assert!((o - 0.54).abs() < 1e-3);
        assert!((m.coupled_migration_seconds() - (w + o)).abs() < 1e-9);
    }

    #[test]
    fn symi_overhead_shrinks_with_cluster_size() {
        let mut m = paper_example();
        let big = m.symi_overhead_ratio();
        m.nodes = 128;
        let small = m.symi_overhead_ratio();
        assert!(big < small, "relative overhead must vanish as N grows");
    }

    // ---- Tiered model. ----

    use crate::placement::ExpertPlacement;
    use crate::topology::Topology;

    /// A flat single-tier topology with zero latency reproduces
    /// `CommCostModel::costs` byte-for-byte — the compatibility contract.
    #[test]
    fn tiered_flat_zero_latency_matches_paper_formula() {
        let mut m = paper_example();
        m.hw.net_latency = 0.0;
        let topo = Topology::flat(m.nodes, &m.hw);
        let tiered = TieredCostModel::from_flat(&m, &topo);
        let placement =
            ExpertPlacement::from_counts(&vec![m.static_replicas(); 64], m.slots_per_rank);
        let phase = tiered.shard_exchange(&placement, ShardScope::Cluster, m.grad_bytes);
        let flat = m.costs(SystemKind::Symi).t_grad;
        assert!(
            (phase.seconds - flat).abs() / flat < 1e-12,
            "tiered {} vs flat {flat}",
            phase.seconds
        );
        // Global network volume = (N−1)/N · sN·G (the local shard stays put).
        let expect = (m.nodes as f64 - 1.0) / m.nodes as f64 * m.grad_data_bytes();
        assert!((phase.total_bytes() - expect).abs() / expect < 1e-12);
    }

    /// Tier-cell sharding with one cell spanning the whole world IS
    /// cluster-uniform sharding (k = 1 ⇒ SYMI).
    #[test]
    fn tier_cell_k1_equals_cluster_scope() {
        let mut m = paper_example();
        m.nodes = 64;
        m.hw.net_latency = 0.0;
        let topo = Topology::flat(m.nodes, &m.hw);
        let tiered = TieredCostModel::from_flat(&m, &topo);
        let placement = ExpertPlacement::from_counts(
            &vec![m.static_replicas(); m.expert_classes],
            m.slots_per_rank,
        );
        let a = tiered.shard_exchange(&placement, ShardScope::Cluster, m.grad_bytes);
        let b = tiered.shard_exchange(&placement, ShardScope::TierCell { level: 0 }, m.grad_bytes);
        assert!((a.seconds - b.seconds).abs() / a.seconds < 1e-9);
        assert!((a.total_bytes() - b.total_bytes()).abs() / a.total_bytes() < 1e-9);
    }

    /// On a hierarchical topology, pod-aligned sharding keeps the shard
    /// exchange inside pods when placement is contiguous — strictly fewer
    /// spine bytes than cluster-uniform sharding.
    #[test]
    fn pod_aligned_sharding_empties_the_spine() {
        let n = 1024;
        let topo = Topology::superpod(n); // 8 × 4 × 8 × 4: pods at level 2
        let m = CommCostModel {
            nodes: n,
            expert_classes: 64,
            slots_per_rank: 4,
            grad_bytes: 1.0e9,
            weight_bytes: 1.0e9,
            optimizer_bytes: 8.0e9,
            hw: HardwareSpec::paper_analysis_example(),
        };
        let tiered = TieredCostModel::from_flat(&m, &topo);
        let placement = ExpertPlacement::from_counts(
            &vec![m.static_replicas(); m.expert_classes],
            m.slots_per_rank,
        );
        let uniform = tiered.shard_exchange(&placement, ShardScope::Cluster, m.grad_bytes);
        let pod =
            tiered.shard_exchange(&placement, ShardScope::TierCell { level: 2 }, m.grad_bytes);
        let spine = topo.num_tiers() - 1;
        assert!(uniform.bytes_by_tier[spine] > 0.0, "uniform sharding crosses the spine");
        assert_eq!(pod.bytes_by_tier[spine], 0.0, "pod-aligned contiguous placement does not");
        assert!(pod.seconds < uniform.seconds);
        // Total footprint-preserving identity: both move the same PCIe bytes.
        assert!((pod.pci_bytes_per_rank - uniform.pci_bytes_per_rank).abs() < 1e-6);
    }

    /// The tree collective is member-order-insensitive and keeps its
    /// merges on the fastest containing tier. A ring whose member order
    /// alternates pods crosses the spine on *every* hop — the tree
    /// relocates those bytes inward and, for latency-bound buffers, beats
    /// the ring outright.
    #[test]
    fn tree_relocates_spine_bytes_of_a_hostile_ring_order() {
        let n = 256;
        let topo = Topology::superpod(n); // 8 × 4 × 8, "pod" spine at level 2
        let m = CommCostModel {
            nodes: n,
            expert_classes: 16,
            slots_per_rank: 2,
            grad_bytes: 1.0e9,
            weight_bytes: 1.0e9,
            optimizer_bytes: 8.0e9,
            hw: HardwareSpec::paper_analysis_example(),
        };
        let tiered = TieredCostModel::from_flat(&m, &topo);
        // Interleave two rack-distant node groups: every consecutive ring
        // pair crosses the spine.
        let hosts: Vec<usize> = (0..8).flat_map(|i| [i, 32 + i]).collect();
        let bytes = 1.0e6;
        let ring = tiered.ring_allreduce(&hosts, bytes);
        let tree = tiered.tree_allreduce(&hosts, bytes);
        let top = topo.num_tiers() - 1;
        assert!(ring.bytes_by_tier[top] > 0.9 * ring.total_bytes(), "hostile order: all spine");
        assert!(
            tree.bytes_by_tier[top] < 0.2 * ring.bytes_by_tier[top],
            "tree spine {} vs ring spine {}",
            tree.bytes_by_tier[top],
            ring.bytes_by_tier[top]
        );
        assert!(tree.seconds < ring.seconds, "tree {} vs ring {}", tree.seconds, ring.seconds);
        // A contiguous group never touches the outer tiers at all.
        let packed: Vec<usize> = (0..8).collect();
        let t2 = tiered.tree_allreduce(&packed, bytes);
        assert_eq!(t2.bytes_by_tier[top], 0.0);
        assert!(t2.bytes_by_tier[0] > 0.0);
    }

    /// Flat single-tier ring cost equals the `2(m−1)/m` formula used by the
    /// iteration simulator.
    #[test]
    fn flat_ring_matches_iteration_formula() {
        let hw = HardwareSpec::paper_eval_cluster();
        let topo = Topology::flat(16, &hw);
        let m = CommCostModel {
            nodes: 16,
            expert_classes: 16,
            slots_per_rank: 4,
            grad_bytes: 1.0e8,
            weight_bytes: 1.0e8,
            optimizer_bytes: 8.0e8,
            hw,
        };
        let tiered = TieredCostModel::from_flat(&m, &topo);
        let hosts: Vec<usize> = (0..4).collect();
        let got = tiered.ring_allreduce(&hosts, 1.0e8).seconds;
        let want = 2.0 * 3.0 / 4.0 * 1.0e8 / hw.bw_net + 2.0 * hw.net_latency * 3.0;
        assert!((got - want).abs() / want < 1e-12, "{got} vs {want}");
    }
}
