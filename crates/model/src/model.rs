//! The full GPT-MoE model: embedding → blocks → final LN → LM head → loss.

use crate::block::TransformerBlock;
use crate::config::ModelConfig;
use crate::embedding::{Embedding, LmHead};
use crate::layernorm::LayerNorm;
use crate::moe::MoeStats;
use symi_tensor::ops::cross_entropy_in_place;
use symi_tensor::Matrix;
use symi_workload::Batch;

/// Per-step result of a combined forward/backward pass.
#[derive(Clone, Debug)]
pub struct StepStats {
    /// Cross-entropy loss (mean over tokens).
    pub ce_loss: f32,
    /// Total auxiliary (load-balancing) loss over layers.
    pub aux_loss: f32,
    /// Per-layer MoE statistics.
    pub layers: Vec<MoeStats>,
}

impl StepStats {
    /// Overall token survival rate across layers.
    pub fn survival_rate(&self) -> f64 {
        let survived: usize = self.layers.iter().map(|l| l.survived).sum();
        let total: usize = self.layers.iter().map(|l| l.survived + l.dropped).sum();
        if total == 0 {
            1.0
        } else {
            survived as f64 / total as f64
        }
    }
}

/// The GPT-MoE language model.
///
/// A step's activations live in buffers the model keeps across steps: one
/// residual stream the blocks update in place (activations forward, their
/// gradients backward), two scratch matrices every layer shares, and the
/// logits, which the loss overwrites with their own gradient.
pub struct GptMoe {
    pub cfg: ModelConfig,
    pub embedding: Embedding,
    pub blocks: Vec<TransformerBlock>,
    pub final_ln: LayerNorm,
    pub head: LmHead,
    stream: Matrix,
    scratch: [Matrix; 2],
    logits: Matrix,
    /// The batch's targets as row indices, for the loss.
    targets: Vec<usize>,
}

impl GptMoe {
    pub fn new(cfg: ModelConfig) -> Self {
        Self {
            embedding: Embedding::new(cfg.vocab_size, cfg.seq_len, cfg.d_model, cfg.seed),
            blocks: (0..cfg.layers).map(|i| TransformerBlock::new(&cfg, i)).collect(),
            final_ln: LayerNorm::new(cfg.d_model),
            head: LmHead::new(cfg.d_model, cfg.vocab_size, cfg.seed ^ 0xbeef),
            cfg,
            stream: Matrix::zeros(0, 0),
            scratch: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
            logits: Matrix::zeros(0, 0),
            targets: Vec::new(),
        }
    }

    /// Forward + backward over one batch under the given per-layer replica
    /// counts. Gradients accumulate into the layer objects; the caller owns
    /// zeroing and the optimizer step.
    pub(crate) fn forward_backward(&mut self, batch: &Batch, replicas: &[Vec<usize>]) -> StepStats {
        assert_eq!(replicas.len(), self.blocks.len(), "one replica vector per layer");
        assert_eq!(batch.seq_len, self.cfg.seq_len, "sequence length mismatch");
        let x = &mut self.stream;

        self.embedding.forward_into(&batch.tokens, x);
        let mut layer_stats = Vec::with_capacity(self.blocks.len());
        for (block, reps) in self.blocks.iter_mut().zip(replicas) {
            layer_stats.push(block.forward_in_place(x, reps, &mut self.scratch));
        }
        let [normed, _] = &mut self.scratch;
        self.final_ln.forward_into(x, normed);
        self.head.forward_into(normed, &mut self.logits);

        self.targets.clear();
        self.targets.extend(batch.targets.iter().map(|&t| t as usize));
        let ce_loss = cross_entropy_in_place(&mut self.logits, &self.targets);

        let dnormed = normed;
        self.head.backward_into(&self.logits, dnormed);
        self.final_ln.backward_into(dnormed, x);
        for block in self.blocks.iter_mut().rev() {
            block.backward_in_place(x, &mut self.scratch);
        }
        self.embedding.backward(x);

        let aux_loss = layer_stats.iter().map(|s| s.aux_loss).sum();
        StepStats { ce_loss, aux_loss, layers: layer_stats }
    }

    /// Visits all dense (non-expert) `(param, grad)` pairs in a
    /// deterministic order.
    pub(crate) fn visit_dense_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &[f32])) {
        self.embedding.visit_params(f);
        for b in &mut self.blocks {
            b.visit_dense_params(f);
        }
        self.final_ln.visit_params(f);
        self.head.visit_params(f);
    }

    pub fn zero_grad(&mut self) {
        self.embedding.zero_grad();
        for b in &mut self.blocks {
            b.zero_grad();
        }
        self.final_ln.zero_grad();
        self.head.zero_grad();
    }

    /// Number of scalar parameters in one expert.
    pub fn expert_param_count(&self) -> usize {
        self.blocks[0].moe.experts[0].param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_workload::{CorpusConfig, DriftingCorpus};

    fn tiny_setup() -> (GptMoe, DriftingCorpus, Vec<Vec<usize>>) {
        let cfg = ModelConfig::tiny();
        let corpus = DriftingCorpus::new(CorpusConfig {
            vocab_size: cfg.vocab_size,
            seq_len: cfg.seq_len,
            batch_size: cfg.batch_size,
            topics: 4,
            ..CorpusConfig::default()
        });
        let replicas = vec![vec![cfg.uniform_replicas(); cfg.experts]; cfg.layers];
        (GptMoe::new(cfg), corpus, replicas)
    }

    #[test]
    fn initial_loss_is_near_uniform_entropy() {
        let (mut model, mut corpus, replicas) = tiny_setup();
        let batch = corpus.next_batch();
        let stats = model.forward_backward(&batch, &replicas);
        let uniform = (model.cfg.vocab_size as f32).ln();
        assert!(
            (stats.ce_loss - uniform).abs() < 0.5,
            "fresh model CE {} should be near ln(V) = {}",
            stats.ce_loss,
            uniform
        );
    }

    #[test]
    fn gradients_are_finite_and_nonzero() {
        let (mut model, mut corpus, replicas) = tiny_setup();
        let batch = corpus.next_batch();
        let _ = model.forward_backward(&batch, &replicas);
        let mut total = 0.0f64;
        let mut count = 0usize;
        model.visit_dense_params(&mut |_, g| {
            for v in g {
                assert!(v.is_finite(), "gradient must be finite");
                total += (*v as f64).abs();
                count += 1;
            }
        });
        assert!(count > 0 && total > 0.0, "dense gradients must flow");
    }

    #[test]
    fn popularity_is_recorded_per_layer() {
        let (mut model, mut corpus, replicas) = tiny_setup();
        let batch = corpus.next_batch();
        let stats = model.forward_backward(&batch, &replicas);
        assert_eq!(stats.layers.len(), model.cfg.layers);
        for l in &stats.layers {
            assert_eq!(l.popularity.iter().sum::<u64>() as usize, batch.token_count());
        }
    }
}
