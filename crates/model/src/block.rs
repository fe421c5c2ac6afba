//! One transformer block: pre-LN attention + pre-LN MoE FFN, both residual.

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

    pub fn forward(&mut self, x: &Matrix, replicas: &[usize]) -> (Matrix, MoeStats) {
        let a_in = self.ln1.forward(x);
        let a_out = self.attn.forward(&a_in);
        let h = x.add(&a_out);
        let m_in = self.ln2.forward(&h);
        let (m_out, stats) = self.moe.forward(&m_in, replicas);
        (h.add(&m_out), stats)
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        // dy flows to both the residual and the MoE branch.
        let dm_in = self.moe.backward(dy);
        let mut dh = self.ln2.backward(&dm_in);
        dh.axpy(1.0, dy);
        // dh flows to both the input residual and the attention branch.
        let da_in = self.attn.backward(&dh);
        let mut dx = self.ln1.backward(&da_in);
        dx.axpy(1.0, &dh);
        dx
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

        let (_, _) = block.forward(&x, &replicas);
        let dx = block.backward(&dy);

        let ndx = numerical_grad_scalar(&x, |xp| {
            let mut probe = TransformerBlock::new(&cfg, 0);
            let (y, _) = probe.forward(xp, &replicas);
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
        let (y, stats) = block.forward(&x, &replicas);
        assert_eq!(stats.survived, 0);
        // y = h + 0 where h = x + attn(ln1 x).
        let mut probe = TransformerBlock::new(&cfg, 0);
        let a = probe.attn.forward(&probe.ln1.forward(&x));
        let h = x.add(&a);
        assert!(y.max_abs_diff(&h) < 1e-6);
    }
}
