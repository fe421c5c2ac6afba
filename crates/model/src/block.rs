//! One transformer block: pre-LN attention + pre-LN MoE FFN, both residual.
//!
//! The block runs in place on the model's residual stream: forward turns
//! the block's input into its output, backward turns the output's gradient
//! into the input's. Neither needs the stream's old values — each layer
//! caches what its own backward reads — and the two scratch matrices the
//! caller lends hold only what one layer hands the next, so every block of
//! a model shares them.

use crate::attention::CausalAttention;
use crate::config::ModelConfig;
use crate::layernorm::LayerNorm;
use crate::moe::{MoeLayer, MoeStats};
use symi_tensor::Matrix;

/// `x → x + Attn(LN1(x)) → h → h + MoE(LN2(h))`.
pub struct TransformerBlock {
    pub ln1: LayerNorm,
    pub attn: CausalAttention,
    pub ln2: LayerNorm,
    pub moe: MoeLayer,
}

impl TransformerBlock {
    pub fn new(cfg: &ModelConfig, layer_index: usize) -> Self {
        let seed = cfg.seed.wrapping_add(1000 * (layer_index as u64 + 1));
        Self {
            ln1: LayerNorm::new(cfg.d_model),
            attn: CausalAttention::new(cfg.d_model, cfg.n_heads, cfg.seq_len, seed),
            ln2: LayerNorm::new(cfg.d_model),
            moe: MoeLayer::new(
                cfg.d_model,
                cfg.d_ff,
                cfg.experts,
                cfg.top_k,
                cfg.slot_capacity(),
                cfg.aux_loss_coef,
                seed ^ 0xa5a5,
            ),
        }
    }

    /// `x ← x + Attn(LN1(x))`, then `x ← x + MoE(LN2(x))`. (`a + 1·b` is
    /// `a + b` exactly, so the in-place residual adds are the sums.)
    pub(crate) fn forward_in_place(
        &mut self,
        x: &mut Matrix,
        replicas: &[usize],
        scratch: &mut [Matrix; 2],
    ) -> MoeStats {
        let [s0, s1] = scratch;
        self.ln1.forward_into(x, s0);
        self.attn.forward_into(s0, s1);
        x.axpy(1.0, s1); // h
        self.ln2.forward_into(x, s0);
        let stats = self.moe.forward_into(s0, replicas, s1);
        x.axpy(1.0, s1);
        stats
    }

    /// `grad ← ∂L/∂x` from `grad = ∂L/∂y` of the last forward.
    pub(crate) fn backward_in_place(&mut self, grad: &mut Matrix, scratch: &mut [Matrix; 2]) {
        let [s0, dh] = scratch;
        // dy flows to both the residual and the MoE branch.
        self.moe.backward_into(grad, s0);
        self.ln2.backward_into(s0, dh);
        dh.axpy(1.0, grad);
        // dh flows to both the input residual and the attention branch.
        self.attn.backward_into(dh, s0);
        self.ln1.backward_into(s0, grad);
        grad.axpy(1.0, dh);
    }

    pub(crate) fn visit_dense_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &[f32])) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.moe.visit_dense_params(f);
    }

    pub fn zero_grad(&mut self) {
        self.ln1.zero_grad();
        self.attn.zero_grad();
        self.ln2.zero_grad();
        self.moe.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_tensor::gradcheck::numerical_grad_scalar;

    fn scratch() -> [Matrix; 2] {
        [Matrix::zeros(0, 0), Matrix::zeros(0, 0)]
    }

    /// One forward on a copy of `x`: the block's output and stats.
    fn forward(block: &mut TransformerBlock, x: &Matrix, replicas: &[usize]) -> (Matrix, MoeStats) {
        let mut y = x.clone();
        let stats = block.forward_in_place(&mut y, replicas, &mut scratch());
        (y, stats)
    }

    #[test]
    fn block_backward_matches_numeric() {
        let cfg = ModelConfig {
            capacity_factor: 100.0, // keep all tokens so the kept set is stable
            aux_loss_coef: 0.0,
            ..ModelConfig::tiny()
        };
        let mut block = TransformerBlock::new(&cfg, 0);
        let replicas = vec![2usize; cfg.experts];
        let rows = cfg.seq_len * 2;
        let x = Matrix::from_fn(rows, cfg.d_model, |r, c| ((r * 7 + c) as f32 * 0.13).sin());
        let dy = Matrix::from_fn(rows, cfg.d_model, |r, c| ((r + 3 * c) as f32 * 0.11).cos());

        let (_, _) = forward(&mut block, &x, &replicas);
        let mut dx = dy.clone();
        block.backward_in_place(&mut dx, &mut scratch());

        let ndx = numerical_grad_scalar(&x, |xp| {
            let mut probe = TransformerBlock::new(&cfg, 0);
            let (y, _) = forward(&mut probe, xp, &replicas);
            y.as_slice().iter().zip(dy.as_slice()).map(|(a, b)| a * b).sum()
        });
        assert!(dx.max_abs_diff(&ndx) < 5e-2, "diff {}", dx.max_abs_diff(&ndx));
    }

    #[test]
    fn residual_passes_dropped_tokens_through() {
        // With zero capacity the MoE contributes nothing: the block output
        // must equal the attention half alone.
        let cfg = ModelConfig { capacity_factor: 0.0, ..ModelConfig::tiny() };
        let mut block = TransformerBlock::new(&cfg, 0);
        let replicas = vec![2usize; cfg.experts];
        let x = Matrix::from_fn(cfg.seq_len, cfg.d_model, |r, c| ((r + c) as f32 * 0.2).sin());
        let (y, stats) = forward(&mut block, &x, &replicas);
        assert_eq!(stats.survived, 0);
        // y = h + 0 where h = x + attn(ln1 x).
        let mut probe = TransformerBlock::new(&cfg, 0);
        let mut a_in = Matrix::zeros(0, 0);
        probe.ln1.forward_into(&x, &mut a_in);
        let h = x.add(&probe.attn.forward(&a_in));
        assert!(y.max_abs_diff(&h) < 1e-6);
    }
}
