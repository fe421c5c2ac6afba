//! Hardware and model-scale descriptions used by the cost model and the
//! latency simulator.

/// Bandwidths, latencies, and compute throughputs of one cluster flavour.
///
/// Bandwidths are bytes/second; latencies are seconds; throughputs are
/// FLOP/s. Two presets matter for the reproduction:
/// [`HardwareSpec::paper_eval_cluster`] (the 16×A100 Azure testbed of §5)
/// and [`HardwareSpec::paper_analysis_example`] (the GPT3-175B/H100-class
/// example that §3.3 uses to instantiate its formulas).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HardwareSpec {
    /// GPU↔host interconnect bandwidth (PCIe), bytes/s.
    pub bw_pci: f64,
    /// Cross-node GPU↔GPU network bandwidth, bytes/s.
    pub bw_net: f64,
    /// Per-message network latency (the α in the α–β model), seconds.
    pub net_latency: f64,
    /// Per-transfer PCIe latency, seconds.
    pub pci_latency: f64,
    /// Achievable GPU throughput, FLOP/s (peak × efficiency).
    pub gpu_flops: f64,
    /// Host-side throughput for the offloaded optimizer step, bytes/s of
    /// optimizer state processed (memory-bandwidth-bound).
    pub host_opt_bytes_per_s: f64,
    /// GPU HBM capacity per rank, bytes (used for FlexMoE's OOM check).
    pub hbm_bytes: f64,
    /// Fixed framework overhead per transformer layer per forward pass
    /// (kernel launches, router bookkeeping, Python dispatch, offload
    /// synchronization), seconds. The backward pass pays twice this. This is
    /// what makes measured DeepSpeed iterations ~1.5 s for a 125M model on
    /// A100s — far above the raw FLOP/byte time.
    pub framework_layer_overhead: f64,
    /// Cost of constructing one NCCL-style communicator group, per member
    /// rank, seconds. Group creation is a blocking, single-threaded
    /// synchronization (§4.2 cites >1000 s to regroup an N=2048 cluster);
    /// FlexMoE pays it on every rebalance, SYMI pre-registers all contiguous
    /// groups at init and never pays it again.
    pub group_init_per_rank: f64,
}

impl HardwareSpec {
    /// §5's evaluation testbed: Azure NC24ads-v4 — one A100 80GB per node,
    /// PCIe 4.0 ×16 (~32 GB/s), 100 Gbps ConnectX-5.
    pub fn paper_eval_cluster() -> Self {
        Self {
            bw_pci: 32.0e9,
            bw_net: 100.0e9 / 8.0,
            net_latency: 10.0e-6,
            pci_latency: 5.0e-6,
            // A100 dense fp16 peak is 312 TFLOP/s; ~40% achieved efficiency
            // is typical for moderate-size MoE GEMMs.
            gpu_flops: 312.0e12 * 0.4,
            host_opt_bytes_per_s: 50.0e9,
            hbm_bytes: 80.0e9,
            framework_layer_overhead: 25.0e-3,
            group_init_per_rank: 10.0e-3,
        }
    }

    /// §3.3's large-scale analysis example: 64 GB/s GPU–CPU interconnect and
    /// 400 Gbps InfiniBand.
    pub fn paper_analysis_example() -> Self {
        Self {
            bw_pci: 64.0e9,
            bw_net: 400.0e9 / 8.0,
            net_latency: 5.0e-6,
            pci_latency: 5.0e-6,
            gpu_flops: 989.0e12 * 0.4,
            host_opt_bytes_per_s: 100.0e9,
            hbm_bytes: 80.0e9,
            framework_layer_overhead: 2.0e-3,
            group_init_per_rank: 10.0e-3,
        }
    }
}

/// Byte/FLOP scale of one model configuration — everything the latency
/// simulator needs to know about a GPT variant without running it.
///
/// Sizes follow the paper's accounting: weights and gradients are fp16
/// (2 B/param), optimizer state is 16 B/param (fp32 master + two Adam
/// moments + fp32 gradient staging, as in ZeRO/mixed-precision training).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelCostConfig {
    /// Human-readable name ("GPT-Small", …).
    pub name: &'static str,
    /// Transformer layers (each carrying one MoE block).
    pub layers: usize,
    /// Model (hidden) dimension.
    pub d_model: usize,
    /// Expert FFN inner dimension (usually 4 × d_model).
    pub d_ff: usize,
    /// Tokens per global batch (sequence length × global batch size).
    pub tokens_per_batch: usize,
}

impl ModelCostConfig {
    /// GPT-Small (125M dense): 12 layers, d_model 768; the paper trains it
    /// with sequence length 512 and global batch 64.
    pub fn gpt_small() -> Self {
        Self {
            name: "GPT-Small",
            layers: 12,
            d_model: 768,
            d_ff: 4 * 768,
            tokens_per_batch: 512 * 64,
        }
    }

    /// GPT-Medium (350M dense): 24 layers, d_model 1024.
    pub fn gpt_medium() -> Self {
        Self {
            name: "GPT-Medium",
            layers: 24,
            d_model: 1024,
            d_ff: 4 * 1024,
            tokens_per_batch: 512 * 64,
        }
    }

    /// GPT-Large (760M dense): 24 layers, d_model 1536.
    pub fn gpt_large() -> Self {
        Self {
            name: "GPT-Large",
            layers: 24,
            d_model: 1536,
            d_ff: 4 * 1536,
            tokens_per_batch: 512 * 64,
        }
    }

    /// Parameters in one expert FFN (two projection matrices + biases).
    pub fn expert_params(&self) -> u64 {
        (2 * self.d_model * self.d_ff + self.d_ff + self.d_model) as u64
    }

    /// fp16 weight bytes for one expert instance (the paper's `W`).
    pub(crate) fn expert_weight_bytes(&self) -> f64 {
        self.expert_params() as f64 * 2.0
    }

    /// fp16 gradient bytes for one expert instance (the paper's `G`).
    pub(crate) fn expert_grad_bytes(&self) -> f64 {
        self.expert_params() as f64 * 2.0
    }

    /// Optimizer-state bytes for one expert class (the paper's `O`,
    /// 16 B/param).
    pub(crate) fn expert_optimizer_bytes(&self) -> f64 {
        self.expert_params() as f64 * 16.0
    }

    /// FLOPs to push one token through one expert FFN (forward): two GEMVs.
    pub(crate) fn expert_flops_per_token(&self) -> f64 {
        2.0 * 2.0 * (self.d_model * self.d_ff) as f64
    }

    /// FLOPs per token per layer for the dense (attention + projections)
    /// part of the layer. Approximated as the standard 12·d² attention-block
    /// cost plus 2·L·d of score computation amortized per token.
    pub(crate) fn dense_flops_per_token(&self, seq_len: usize) -> f64 {
        let d = self.d_model as f64;
        2.0 * 12.0 * d * d + 2.0 * 2.0 * seq_len as f64 * d
    }

    /// Activation bytes for one token's embedding in fp16.
    pub(crate) fn token_embedding_bytes(&self) -> f64 {
        self.d_model as f64 * 2.0
    }
}

/// One level of a hierarchical interconnect.
///
/// A level-`t` *cell* groups `arity` cells of the level below (ranks, at
/// level 0). Crossing the boundary between two level-(t−1) cells inside the
/// same level-`t` cell uses this level's link class: `bw` bytes/s available
/// to each rank across the tier and `latency` seconds per message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierSpec {
    /// Human-readable tier name ("node", "rack", "pod", "cluster").
    pub name: &'static str,
    /// Sub-cells (ranks at level 0) per cell of this level.
    pub arity: usize,
    /// Per-rank bandwidth across this tier, bytes/s. Outer tiers are
    /// typically oversubscribed, so this shrinks going outward.
    pub bw: f64,
    /// Per-message latency across this tier, seconds.
    pub latency: f64,
}

/// A multi-tier cluster topology: ranks addressed by tier coordinates.
///
/// Tiers are listed innermost first; the rank count is the product of the
/// arities, and the cells of the outermost tier jointly cover the whole
/// world. Two ranks communicate over the link class of the *narrowest tier
/// they cross* — the innermost level at which they share a cell
/// (`Topology::tier_between`). A flat world is the one-level special case
/// ([`Topology::flat`]), which reproduces the single-`bw_net` pricing of
/// [`HardwareSpec`] exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    name: &'static str,
    levels: Vec<TierSpec>,
}

impl Topology {
    /// A topology from explicit tier levels (innermost first).
    ///
    /// # Panics
    /// Panics on an empty level list, a zero arity, or a non-finite /
    /// non-positive bandwidth.
    pub fn new(name: &'static str, levels: Vec<TierSpec>) -> Self {
        assert!(!levels.is_empty(), "topology needs at least one tier");
        for l in &levels {
            assert!(l.arity >= 1, "tier {} has zero arity", l.name);
            assert!(l.bw.is_finite() && l.bw > 0.0, "tier {} bandwidth must be positive", l.name);
            assert!(l.latency.is_finite() && l.latency >= 0.0, "tier {} latency invalid", l.name);
        }
        Self { name, levels }
    }

    /// Single-tier world pricing every cross-rank transfer at `hw.bw_net` —
    /// the pre-hierarchy behaviour, kept as the compatibility baseline.
    pub fn flat(ranks: usize, hw: &HardwareSpec) -> Self {
        Self::new(
            "flat",
            vec![TierSpec { name: "net", arity: ranks, bw: hw.bw_net, latency: hw.net_latency }],
        )
    }

    /// Four-tier "superpod" preset: 8-GPU NVLink nodes, 4-node racks on
    /// 400 Gbps IB, 8-rack pods at half that, and an oversubscribed
    /// cluster spine. Outer tiers are dropped when `ranks` is small.
    pub fn superpod(ranks: usize) -> Self {
        Self::from_template(
            "superpod",
            ranks,
            &[
                ("node", 8, 250.0e9, 1.5e-6),
                ("rack", 4, 50.0e9, 5.0e-6),
                ("pod", 8, 25.0e9, 7.0e-6),
            ],
            ("cluster", 12.5e9, 10.0e-6),
        )
    }

    /// Builds a topology by filling the template innermost-out: each entry
    /// takes `min(template arity, remaining)` ranks, and whatever is left
    /// becomes the outermost tier. `ranks` must be a power of two so every
    /// split divides evenly.
    fn from_template(
        name: &'static str,
        ranks: usize,
        inner: &[(&'static str, usize, f64, f64)],
        outer: (&'static str, f64, f64),
    ) -> Self {
        assert!(ranks >= 2 && ranks.is_power_of_two(), "preset needs a power-of-two rank count");
        let mut levels = Vec::new();
        let mut rem = ranks;
        for &(tier_name, arity, bw, latency) in inner {
            if rem == 1 {
                break;
            }
            let a = arity.min(rem);
            levels.push(TierSpec { name: tier_name, arity: a, bw, latency });
            rem /= a;
        }
        if rem > 1 {
            let (tier_name, bw, latency) = outer;
            levels.push(TierSpec { name: tier_name, arity: rem, bw, latency });
        }
        Self::new(name, levels)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn levels(&self) -> &[TierSpec] {
        &self.levels
    }

    pub fn num_tiers(&self) -> usize {
        self.levels.len()
    }

    /// Total ranks: the product of tier arities.
    pub fn ranks(&self) -> usize {
        self.levels.iter().map(|l| l.arity).product()
    }

    /// Ranks per cell of tier `level` (product of arities 0..=level).
    pub(crate) fn cell_size(&self, level: usize) -> usize {
        self.levels[..=level].iter().map(|l| l.arity).product()
    }

    /// Index of the tier-`level` cell containing `rank`.
    pub(crate) fn cell_of(&self, rank: usize, level: usize) -> usize {
        rank / self.cell_size(level)
    }

    /// The narrowest tier crossed between two ranks: the innermost level at
    /// which they share a cell. `None` when `a == b` (no link crossed).
    pub(crate) fn tier_between(&self, a: usize, b: usize) -> Option<usize> {
        if a == b {
            return None;
        }
        let mut size = 1;
        for (t, l) in self.levels.iter().enumerate() {
            size *= l.arity;
            if a / size == b / size {
                return Some(t);
            }
        }
        panic!("ranks {a}/{b} outside the {}-rank world", self.ranks());
    }

    /// For any rank: how many peers sit at each tier distance
    /// (`cell_size(t) − cell_size(t−1)` — position-independent because the
    /// topology is a full product of arities). Sums to `ranks() − 1`.
    pub(crate) fn tier_census(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.levels.len());
        let mut inner = 1;
        for l in &self.levels {
            let size = inner * l.arity;
            out.push(size - inner);
            inner = size;
        }
        out
    }

    /// Bandwidth of tier `level`, bytes/s.
    pub(crate) fn bw(&self, level: usize) -> f64 {
        self.levels[level].bw
    }

    /// Per-message latency of tier `level`, seconds.
    pub fn latency(&self, level: usize) -> f64 {
        self.levels[level].latency
    }

    /// The slowest (narrowest) bandwidth across any tier.
    pub(crate) fn narrowest_bw(&self) -> f64 {
        self.levels.iter().map(|l| l.bw).fold(f64::INFINITY, f64::min)
    }

    /// The largest per-message latency across any tier.
    pub(crate) fn max_latency(&self) -> f64 {
        self.levels.iter().map(|l| l.latency).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_is_8x_weights() {
        let cfg = ModelCostConfig::gpt_small();
        let ratio = cfg.expert_optimizer_bytes() / cfg.expert_weight_bytes();
        assert!((ratio - 8.0).abs() < 1e-9, "§2.1: optimizer is 8× model weights");
    }

    #[test]
    fn model_sizes_are_ordered() {
        let s = ModelCostConfig::gpt_small().expert_params();
        let m = ModelCostConfig::gpt_medium().expert_params();
        let l = ModelCostConfig::gpt_large().expert_params();
        assert!(s < m && m < l);
    }

    #[test]
    fn presets_have_sane_bandwidth_ordering() {
        for hw in [HardwareSpec::paper_eval_cluster(), HardwareSpec::paper_analysis_example()] {
            assert!(hw.bw_pci > hw.bw_net, "PCIe beats the network in both presets");
            assert!(hw.gpu_flops > 1e13);
        }
    }

    #[test]
    fn flat_topology_is_one_tier_at_net_bandwidth() {
        let hw = HardwareSpec::paper_eval_cluster();
        let t = Topology::flat(16, &hw);
        assert_eq!(t.num_tiers(), 1);
        assert_eq!(t.ranks(), 16);
        assert_eq!(t.bw(0), hw.bw_net);
        assert_eq!(t.tier_between(0, 15), Some(0));
        assert_eq!(t.tier_between(3, 3), None);
        assert_eq!(t.tier_census(), vec![15]);
    }

    #[test]
    fn superpod_factorizations_cover_the_sweep_grid() {
        for n in [16usize, 64, 256, 1024, 4096] {
            let t = Topology::superpod(n);
            assert_eq!(t.ranks(), n, "n = {n}");
            assert_eq!(t.tier_census().iter().sum::<usize>(), n - 1);
            // Bandwidth must shrink going outward (oversubscription).
            for w in t.levels().windows(2) {
                assert!(w[0].bw > w[1].bw, "n = {n}: outer tiers are narrower");
                assert!(w[0].latency < w[1].latency);
            }
        }
        // 4096 = 8 × 4 × 8 × 16: the full four-tier shape.
        assert_eq!(Topology::superpod(4096).num_tiers(), 4);
        // 16 = 8 × 2: small worlds drop the outer tiers.
        assert_eq!(Topology::superpod(16).num_tiers(), 2);
    }

    #[test]
    fn coords_round_trip_and_tier_between_is_the_first_shared_cell() {
        let t = Topology::superpod(256); // 8 × 4 × 8
        assert_eq!(t.tier_between(0, 1), Some(0), "same node");
        assert_eq!(t.tier_between(0, 8), Some(1), "same rack, different node");
        assert_eq!(t.tier_between(0, 32), Some(2), "same pod, different rack");
        assert_eq!(t.tier_between(0, 255), Some(2), "256 ranks = one pod");
        let big = Topology::superpod(1024);
        assert_eq!(big.tier_between(0, 256), Some(3), "different pod crosses the spine");
        assert!(big.narrowest_bw() < big.bw(0));
    }

    #[test]
    fn census_counts_peers_per_tier() {
        let t = Topology::superpod(1024); // 8 × 4 × 8 × 4
        assert_eq!(t.tier_census(), vec![7, 24, 224, 768]);
        assert_eq!(t.cell_size(2), 256);
        assert_eq!(t.cell_of(255, 2), 0);
        assert_eq!(t.cell_of(256, 2), 1);
    }

    #[test]
    #[should_panic(expected = "zero arity")]
    fn zero_arity_rejected() {
        let _ = Topology::new("bad", vec![TierSpec { name: "x", arity: 0, bw: 1.0, latency: 0.0 }]);
    }
}
