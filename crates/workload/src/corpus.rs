//! The drifting-topic synthetic corpus.
//!
//! Each sequence is drawn from one *topic*. A topic is a stochastic token
//! process with learnable structure: with probability `coherence` the next
//! token is a deterministic per-topic bigram successor of the current token,
//! otherwise it is sampled from the topic's Zipf-tilted unigram
//! distribution over the topic's vocabulary slice. A language model can
//! therefore reduce loss substantially by learning per-topic bigram tables —
//! and a mixture-of-experts router can reduce it further by dedicating
//! experts to topics.
//!
//! Topic mixture weights drift over training (smooth random walk in logit
//! space with occasional jolts), which is what turns expert popularity into
//! the highly dynamic signal of Figure 2.

use symi_tensor::rng::{Distribution, Rng, StdRng};

/// Corpus configuration.
#[derive(Clone, Copy, Debug)]
pub struct CorpusConfig {
    /// Token vocabulary size.
    pub vocab_size: usize,
    /// Number of latent topics.
    pub topics: usize,
    /// Sequence length of every sample.
    pub seq_len: usize,
    /// Sequences per global batch.
    pub batch_size: usize,
    /// Probability that a token follows its topic's bigram successor.
    pub coherence: f64,
    /// Zipf exponent of the topic-popularity prior (higher ⇒ more skew).
    pub topic_zipf: f64,
    /// Scale of the per-iteration random walk on topic logits.
    pub drift_sigma: f64,
    /// Probability per iteration of a sudden topic-popularity jolt
    /// (reproduces Figure 2's 16×-in-3-iterations swings).
    pub jolt_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            vocab_size: 256,
            topics: 8,
            seq_len: 32,
            batch_size: 32,
            coherence: 0.8,
            topic_zipf: 1.1,
            drift_sigma: 0.15,
            jolt_prob: 0.02,
            seed: 0x5e_ed,
        }
    }
}

/// One training batch: `batch_size` sequences of `seq_len` tokens, with
/// next-token targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    /// `batch_size × seq_len` token ids, row-major.
    pub tokens: Vec<u32>,
    /// Same shape; `targets[i] = tokens_shifted[i]` (next token).
    pub targets: Vec<u32>,
    /// Topic each sequence was drawn from (ground truth for diagnostics).
    pub topic_of_seq: Vec<usize>,
    pub seq_len: usize,
    pub batch_size: usize,
}

impl Batch {
    /// Total tokens in the batch.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }
}

/// Deterministic drifting-topic corpus generator.
pub struct DriftingCorpus {
    cfg: CorpusConfig,
    rng: StdRng,
    /// Per-topic deterministic bigram successor table.
    bigram: Vec<Vec<u32>>,
    /// Per-topic unigram sampling alias (cumulative distribution).
    unigram_cdf: Vec<Vec<f64>>,
    /// Current topic logits (drifted each iteration).
    topic_logits: Vec<f64>,
    iteration: u64,
}

impl DriftingCorpus {
    pub fn new(cfg: CorpusConfig) -> Self {
        assert!(cfg.vocab_size >= 2 && cfg.topics >= 1, "degenerate corpus config");
        assert!(cfg.vocab_size >= cfg.topics, "need at least one token per topic");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let v = cfg.vocab_size;

        // Every topic owns a contiguous vocab slice it prefers, with a long
        // Zipf tail over the whole vocabulary so topics overlap.
        let mut bigram = Vec::with_capacity(cfg.topics);
        let mut unigram_cdf = Vec::with_capacity(cfg.topics);
        for t in 0..cfg.topics {
            // Deterministic bigram: affine map with odd multiplier is a
            // permutation of Z_v, different per topic.
            let mult = (2 * (rng.gen_range(1..v / 2).max(1)) + 1) % v;
            let add = rng.gen_range(0..v);
            bigram.push((0..v).map(|c| ((c * mult + add + t) % v) as u32).collect::<Vec<u32>>());

            let slice_start = t * v / cfg.topics;
            let slice_len = v / cfg.topics;
            let mut weights: Vec<f64> = (0..v)
                .map(|tok| {
                    let in_slice = tok >= slice_start && tok < slice_start + slice_len;
                    let base = 1.0 / ((tok % slice_len + 1) as f64).powf(1.2);
                    if in_slice {
                        base
                    } else {
                        base * 0.02
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            for w in &mut weights {
                acc += *w / total;
                *w = acc;
            }
            unigram_cdf.push(weights);
        }

        // Zipf prior over topics (topic 0 most popular), randomized phase so
        // the ranking changes between seeds.
        let mut topic_logits: Vec<f64> =
            (0..cfg.topics).map(|t| -(cfg.topic_zipf) * ((t + 1) as f64).ln()).collect();
        // Shuffle which topic gets which prior mass.
        for i in (1..topic_logits.len()).rev() {
            let j = rng.gen_range(0..=i);
            topic_logits.swap(i, j);
        }

        Self { cfg, rng, bigram, unigram_cdf, topic_logits, iteration: 0 }
    }

    pub fn config(&self) -> &CorpusConfig {
        &self.cfg
    }

    /// Current topic mixture (softmax of the drifting logits).
    pub(crate) fn topic_mixture(&self) -> Vec<f64> {
        let max = self.topic_logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = self.topic_logits.iter().map(|l| (l - max).exp()).collect();
        let total: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / total).collect()
    }

    fn sample_topic(&mut self) -> usize {
        let mix = self.topic_mixture();
        let u: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (t, p) in mix.iter().enumerate() {
            acc += p;
            if u <= acc {
                return t;
            }
        }
        mix.len() - 1
    }

    fn sample_unigram(&mut self, topic: usize) -> u32 {
        let u: f64 = self.rng.gen();
        let cdf = &self.unigram_cdf[topic];
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaNs")) {
            Ok(i) | Err(i) => i.min(cdf.len() - 1) as u32,
        }
    }

    /// Advances the topic mixture by one iteration of drift.
    fn drift(&mut self) {
        let normal = symi_tensor::rng::Normal::new(0.0f64, self.cfg.drift_sigma)
            .expect("drift sigma is finite");
        for l in &mut self.topic_logits {
            *l += normal.sample(&mut self.rng);
        }
        if self.rng.gen::<f64>() < self.cfg.jolt_prob {
            // A jolt: one topic surges, another collapses.
            let k = self.topic_logits.len();
            let up = self.rng.gen_range(0..k);
            let down = self.rng.gen_range(0..k);
            self.topic_logits[up] += 2.5;
            self.topic_logits[down] -= 2.5;
        }
    }

    /// Generates the next global batch and advances the drift process.
    pub fn next_batch(&mut self) -> Batch {
        let cfg = self.cfg;
        let mut tokens = Vec::with_capacity(cfg.batch_size * cfg.seq_len);
        let mut targets = Vec::with_capacity(cfg.batch_size * cfg.seq_len);
        let mut topic_of_seq = Vec::with_capacity(cfg.batch_size);
        for _ in 0..cfg.batch_size {
            let topic = self.sample_topic();
            topic_of_seq.push(topic);
            let mut cur = self.sample_unigram(topic);
            let mut seq = Vec::with_capacity(cfg.seq_len + 1);
            seq.push(cur);
            for _ in 0..cfg.seq_len {
                let next = if self.rng.gen::<f64>() < cfg.coherence {
                    self.bigram[topic][cur as usize]
                } else {
                    self.sample_unigram(topic)
                };
                seq.push(next);
                cur = next;
            }
            tokens.extend_from_slice(&seq[..cfg.seq_len]);
            targets.extend_from_slice(&seq[1..=cfg.seq_len]);
        }
        self.drift();
        self.iteration += 1;
        Batch { tokens, targets, topic_of_seq, seq_len: cfg.seq_len, batch_size: cfg.batch_size }
    }

    /// Iterations generated so far.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_for_a_seed() {
        let mut a = DriftingCorpus::new(CorpusConfig::default());
        let mut b = DriftingCorpus::new(CorpusConfig::default());
        for _ in 0..3 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DriftingCorpus::new(CorpusConfig::default());
        let mut b = DriftingCorpus::new(CorpusConfig { seed: 99, ..CorpusConfig::default() });
        assert_ne!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn targets_are_shifted_tokens() {
        let mut c = DriftingCorpus::new(CorpusConfig::default());
        let b = c.next_batch();
        let s = b.seq_len;
        for seq in 0..b.batch_size {
            for i in 0..s - 1 {
                assert_eq!(b.targets[seq * s + i], b.tokens[seq * s + i + 1]);
            }
        }
    }

    #[test]
    fn tokens_stay_in_vocab() {
        let cfg = CorpusConfig { vocab_size: 64, ..CorpusConfig::default() };
        let mut c = DriftingCorpus::new(cfg);
        for _ in 0..5 {
            let b = c.next_batch();
            assert!(b.tokens.iter().all(|&t| (t as usize) < 64));
            assert!(b.targets.iter().all(|&t| (t as usize) < 64));
        }
    }

    #[test]
    fn sequences_are_bigram_coherent() {
        // With coherence 1.0 the sequence is fully deterministic given its
        // first token, so next-token entropy is zero — the learnable signal.
        let cfg = CorpusConfig { coherence: 1.0, ..CorpusConfig::default() };
        let mut c = DriftingCorpus::new(cfg);
        let b = c.next_batch();
        // Verify every transition matches some topic's bigram table (the
        // sequence's own topic's, in fact).
        let s = b.seq_len;
        for seq in 0..b.batch_size {
            let topic = b.topic_of_seq[seq];
            for i in 0..s - 1 {
                let cur = b.tokens[seq * s + i] as usize;
                let next = b.tokens[seq * s + i + 1];
                assert_eq!(next, c.bigram[topic][cur], "seq {seq} pos {i}");
            }
        }
    }

    #[test]
    fn mixture_is_a_distribution_and_drifts() {
        let mut c = DriftingCorpus::new(CorpusConfig::default());
        let m0 = c.topic_mixture();
        assert!((m0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for _ in 0..50 {
            let _ = c.next_batch();
        }
        let m1 = c.topic_mixture();
        let moved: f64 = m0.iter().zip(&m1).map(|(a, b)| (a - b).abs()).sum();
        assert!(moved > 1e-3, "mixture must drift over 50 iterations");
    }

    #[test]
    fn mixture_is_skewed() {
        let c = DriftingCorpus::new(CorpusConfig::default());
        let m = c.topic_mixture();
        let max = m.iter().cloned().fold(0.0, f64::max);
        let min = m.iter().cloned().fold(1.0, f64::min);
        assert!(max / min > 2.0, "Zipf prior must produce skew, got {max}/{min}");
    }

    #[test]
    fn topic_vocab_slices_separate_topics() {
        // Sequences from different topics should mostly use different
        // tokens: check the modal vocab slice matches the topic.
        let cfg =
            CorpusConfig { coherence: 0.0, topics: 4, vocab_size: 256, ..CorpusConfig::default() };
        let mut c = DriftingCorpus::new(cfg);
        let b = c.next_batch();
        let slice = 256 / 4;
        let mut hits = 0usize;
        let mut total = 0usize;
        for seq in 0..b.batch_size {
            let topic = b.topic_of_seq[seq];
            for i in 0..b.seq_len {
                let tok = b.tokens[seq * b.seq_len + i] as usize;
                total += 1;
                if tok / slice == topic {
                    hits += 1;
                }
            }
        }
        assert!(
            hits as f64 / total as f64 > 0.7,
            "tokens should concentrate in the topic slice: {hits}/{total}"
        );
    }
}
