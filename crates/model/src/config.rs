//! Model configuration.

/// Hyperparameters of the GPT-MoE model and its training setup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelConfig {
    pub vocab_size: usize,
    pub d_model: usize,
    pub n_heads: usize,
    /// Expert FFN inner dimension.
    pub d_ff: usize,
    /// Transformer blocks (each contains one MoE FFN).
    pub layers: usize,
    /// Expert classes per MoE layer (`E`).
    pub experts: usize,
    /// Experts activated per token (the paper evaluates Top-1; GShard-style
    /// Top-2 is supported as an extension).
    pub top_k: usize,
    pub seq_len: usize,
    /// Sequences per global batch.
    pub batch_size: usize,
    /// Capacity factor (§2.1); the paper evaluates 1.0.
    pub capacity_factor: f32,
    /// Total expert slots in the system (`sN`); per-class capacity is
    /// `capacity_factor × tokens_per_batch / total_slots × replicas`.
    pub total_slots: usize,
    /// Switch-style load-balancing auxiliary loss coefficient.
    pub aux_loss_coef: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Parameter init seed.
    pub seed: u64,
}

impl ModelConfig {
    /// A deliberately tiny config for unit tests and gradient checks.
    pub fn tiny() -> Self {
        Self {
            vocab_size: 64,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            layers: 1,
            experts: 4,
            top_k: 1,
            seq_len: 8,
            batch_size: 4,
            capacity_factor: 1.0,
            total_slots: 8,
            aux_loss_coef: 0.01,
            lr: 3e-3,
            seed: 42,
        }
    }

    /// The scaled-down stand-in for the paper's GPT-Small + MoE training
    /// runs (DESIGN.md documents the substitution): 2 blocks, d_model 64,
    /// 16 expert classes over 64 slots — the paper's 16-GPU × 4-slot
    /// evaluation geometry.
    ///
    /// Calibration note: the capacity factor is 0.5, not the paper's nominal
    /// 1.0, because what must match is the *operating point* — the paper's
    /// cf = 1.0 yields ~45% token survival on its 125M model (Table 1),
    /// while this stand-in's router is less skewed and would survive ~80%
    /// at cf = 1.0. cf = 0.5 restores the static baseline to the paper's
    /// measured survival regime (see EXPERIMENTS.md).
    pub fn small_sim() -> Self {
        Self {
            vocab_size: 256,
            d_model: 64,
            n_heads: 4,
            d_ff: 128,
            layers: 2,
            experts: 16,
            top_k: 1,
            seq_len: 32,
            batch_size: 32,
            capacity_factor: 0.5,
            total_slots: 64,
            aux_loss_coef: 0.01,
            lr: 3e-3,
            seed: 42,
        }
    }

    /// Figure 2's geometry: 32 expert classes (over the same 64 slots).
    pub fn fig2_sim() -> Self {
        Self { experts: 32, ..Self::small_sim() }
    }

    /// Tokens per global batch.
    pub fn tokens_per_batch(&self) -> usize {
        self.seq_len * self.batch_size
    }

    /// Per-slot token capacity (§3.4's `slot_capacity`).
    pub fn slot_capacity(&self) -> f32 {
        self.capacity_factor * self.tokens_per_batch() as f32 / self.total_slots as f32
    }

    /// Uniform replicas per class (`r = sN / E`) for static systems.
    pub fn uniform_replicas(&self) -> usize {
        assert_eq!(
            self.total_slots % self.experts,
            0,
            "static replication needs total_slots divisible by experts"
        );
        self.total_slots / self.experts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math_matches_paper_formula() {
        let cfg = ModelConfig::small_sim();
        // capacity_factor × tokens_per_batch / (sN)
        let expect = 0.5 * (32.0 * 32.0) / 64.0;
        assert_eq!(cfg.slot_capacity(), expect);
        assert_eq!(cfg.uniform_replicas(), 4);
    }

    #[test]
    fn tiny_config_is_consistent() {
        let cfg = ModelConfig::tiny();
        assert_eq!(cfg.d_model % cfg.n_heads, 0);
        assert_eq!(cfg.uniform_replicas(), 2);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn uneven_slots_panic() {
        let cfg = ModelConfig { total_slots: 7, ..ModelConfig::tiny() };
        let _ = cfg.uniform_replicas();
    }
}
