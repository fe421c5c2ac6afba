//! Inputs of the workloads.
//!
//! # Engine workloads
//!
//! Tokens are drawn from `CLUSTERS` Gaussian clusters in model space. The
//! clusters' mixture weights follow the `DriftingCorpus` topic process: a
//! shuffled Zipf prior, a per-step random walk in logit space and an
//! occasional jolt, so the frozen router's class popularity is skewed and
//! keeps moving. Regression targets come from a frozen teacher FFN, so the
//! loss is learnable and a dropped token (output zero) costs its target's
//! energy. Each rank pregenerates a ring of `RING` batches and cycles
//! through it.
//!
//! The task — cluster centres, the mixture's path through the ring, the
//! teacher — is fixed by `TASK_SEED`; `--seed` draws the tokens, stratified
//! by cluster. Runs on different seeds therefore sample one distribution
//! and their losses, survival and step counts are comparable, which is what
//! lets a bound on them mean something.
//!
//! # `trainer_lm`
//!
//! The same split for the language-model workload: [`LmStream`] draws from
//! one fixed `DriftingCorpus` (its bigram tables, topic prior and drift path
//! are seeded together, so they stay fixed together) at twice the batch
//! size, and `--seed` picks which half of the sequences the step trains on.

use symi_model::expert::ExpertFfn;
use symi_model::ModelConfig;
use symi_tensor::rng::{Distribution, Normal, Rng, StdRng};
use symi_tensor::Matrix;
use symi_workload::{Batch, CorpusConfig, DriftingCorpus};

/// Ranks of every engine workload: with two cores, two rank threads are the
/// parallelism (the pool is pinned to one thread).
pub const RANKS: usize = 2;
/// Pregenerated batches per rank.
pub const RING: usize = 64;

const CLUSTERS: usize = 16;
const CLUSTER_NOISE: f32 = 0.5;
const ZIPF: f64 = 1.1;
const DRIFT_SIGMA: f64 = 0.15;
const JOLT_PROB: f64 = 0.02;
const JOLT: f64 = 2.5;
const TASK_SEED: u64 = 0x7a5c_5eed;

/// Shape of one engine workload.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    pub d_model: usize,
    pub d_ff: usize,
    pub classes: usize,
    pub slots_per_rank: usize,
    pub tokens_per_rank: usize,
}

impl Geometry {
    /// Flat parameters of one expert (`W` in the paper's sN·W identity).
    pub fn expert_params(&self) -> usize {
        2 * self.d_model * self.d_ff + self.d_ff + self.d_model
    }

    /// Capacity factor 1.0: the slots together hold exactly one step's
    /// tokens.
    pub fn slot_capacity(&self) -> usize {
        self.tokens_per_rank / self.slots_per_rank
    }
}

/// One rank's ring of `(tokens, targets)` batches.
pub struct RankInputs {
    batches: Vec<(Matrix, Matrix)>,
}

impl RankInputs {
    pub fn step(&self, step: usize) -> (&Matrix, &Matrix) {
        let (x, target) = &self.batches[step % RING];
        (x, target)
    }
}

/// Mixture weights of every batch of the ring.
fn mixtures(rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut logits: Vec<f64> = (0..CLUSTERS).map(|k| -ZIPF * ((k + 1) as f64).ln()).collect();
    for i in (1..CLUSTERS).rev() {
        logits.swap(i, rng.gen_range(0..=i));
    }
    let walk = Normal::new(0.0f64, DRIFT_SIGMA).expect("finite sigma");
    (0..RING)
        .map(|_| {
            let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
            let total: f64 = weights.iter().sum();
            for l in &mut logits {
                *l += walk.sample(rng);
            }
            if rng.gen::<f64>() < JOLT_PROB {
                logits[rng.gen_range(0..CLUSTERS)] += JOLT;
                logits[rng.gen_range(0..CLUSTERS)] -= JOLT;
            }
            weights.iter().map(|w| w / total).collect()
        })
        .collect()
}

/// Splits `tokens` over the clusters in proportion to `mixture` (largest
/// remainder), one cluster id per token. A stratified sample: a small batch
/// carries the mixture's skew exactly instead of a multinomial draw's noise
/// on top of it, so the 64-token steps of the parameter-heavy workloads see
/// the same popularity on every seed.
fn stratify(mixture: &[f64], tokens: usize) -> Vec<usize> {
    let ideal: Vec<f64> = mixture.iter().map(|p| p * tokens as f64).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..mixture.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (ideal[b] - ideal[b].floor()).total_cmp(&(ideal[a] - ideal[a].floor())));
    let short = tokens - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    counts.iter().enumerate().flat_map(|(k, &c)| std::iter::repeat_n(k, c)).collect()
}

/// Generates `rank`'s inputs. The same `(seed, rank, geometry)` always gives
/// the same ring.
pub fn generate(seed: u64, rank: usize, g: &Geometry) -> RankInputs {
    let d = g.d_model;
    let mut task = StdRng::seed_from_u64(TASK_SEED);
    // Token norm² ≈ 64·(1 + noise²) whatever the width, so the frozen
    // router's logits keep one scale across workloads.
    let scale = (64.0 / d as f32).sqrt();
    let centre = Normal::new(0.0f32, scale).expect("finite scale");
    let centres: Vec<Vec<f32>> =
        (0..CLUSTERS).map(|_| (0..d).map(|_| centre.sample(&mut task)).collect()).collect();
    let mixtures = mixtures(&mut task);

    // The seed orders the tokens (capacity is first come, first kept) and
    // places each one inside its cluster.
    let mut own = StdRng::seed_from_u64(seed.wrapping_mul(RANKS as u64).wrapping_add(rank as u64));
    let noise = Normal::new(0.0f32, scale * CLUSTER_NOISE).expect("finite scale");
    let mut teacher = ExpertFfn::new(d, 2 * d, TASK_SEED);
    let batches = mixtures
        .iter()
        .map(|mixture| {
            let mut clusters = stratify(mixture, g.tokens_per_rank);
            for i in (1..clusters.len()).rev() {
                clusters.swap(i, own.gen_range(0..=i));
            }
            let mut x = Matrix::zeros(g.tokens_per_rank, d);
            for (t, &k) in clusters.iter().enumerate() {
                for (v, &c) in x.row_mut(t).iter_mut().zip(&centres[k]) {
                    *v = c + noise.sample(&mut own);
                }
            }
            let target = teacher.forward(&x);
            (x, target)
        })
        .collect();
    RankInputs { batches }
}

/// `trainer_lm`'s batches: a seeded half of each double-sized batch of the
/// fixed corpus.
pub struct LmStream {
    corpus: DriftingCorpus,
    pick: StdRng,
    batch_size: usize,
}

impl LmStream {
    pub fn new(seed: u64, cfg: &ModelConfig) -> Self {
        let corpus = DriftingCorpus::new(CorpusConfig {
            vocab_size: cfg.vocab_size,
            seq_len: cfg.seq_len,
            batch_size: 2 * cfg.batch_size,
            seed: TASK_SEED,
            ..CorpusConfig::default()
        });
        Self { corpus, pick: StdRng::seed_from_u64(seed), batch_size: cfg.batch_size }
    }

    /// Advances the corpus by one batch and keeps one sequence of every
    /// consecutive pair.
    pub fn next_batch(&mut self) -> Batch {
        let pool = self.corpus.next_batch();
        let len = pool.seq_len;
        let mut batch = Batch {
            tokens: Vec::with_capacity(self.batch_size * len),
            targets: Vec::with_capacity(self.batch_size * len),
            topic_of_seq: Vec::with_capacity(self.batch_size),
            seq_len: len,
            batch_size: self.batch_size,
        };
        for pair in 0..self.batch_size {
            let seq = 2 * pair + usize::from(self.pick.gen::<bool>());
            batch.tokens.extend_from_slice(&pool.tokens[seq * len..(seq + 1) * len]);
            batch.targets.extend_from_slice(&pool.targets[seq * len..(seq + 1) * len]);
            batch.topic_of_seq.push(pool.topic_of_seq[seq]);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: Geometry =
        Geometry { d_model: 8, d_ff: 16, classes: 4, slots_per_rank: 4, tokens_per_rank: 16 };

    #[test]
    fn same_seed_same_inputs_and_ranks_differ() {
        let a = generate(7, 0, &G);
        let b = generate(7, 0, &G);
        let other_rank = generate(7, 1, &G);
        let other_seed = generate(8, 0, &G);
        for step in [0, 1, RING - 1] {
            assert_eq!(a.step(step).0.as_slice(), b.step(step).0.as_slice());
            assert_eq!(a.step(step).1.as_slice(), b.step(step).1.as_slice());
            assert_ne!(a.step(step).0.as_slice(), other_rank.step(step).0.as_slice());
            assert_ne!(a.step(step).0.as_slice(), other_seed.step(step).0.as_slice());
        }
        // The ring wraps.
        assert_eq!(a.step(RING + 3).0.as_slice(), a.step(3).0.as_slice());
    }

    #[test]
    fn lm_stream_is_seeded_and_well_formed() {
        let cfg = ModelConfig::tiny();
        let mut a = LmStream::new(5, &cfg);
        let mut b = LmStream::new(5, &cfg);
        let mut c = LmStream::new(6, &cfg);
        let (first, same, other) = (a.next_batch(), b.next_batch(), c.next_batch());
        assert_eq!(first, same);
        assert_ne!(first, other);
        assert_eq!(first.batch_size, cfg.batch_size);
        assert_eq!(first.tokens.len(), cfg.batch_size * cfg.seq_len);
        assert_eq!(first.targets.len(), first.tokens.len());
        assert_eq!(first.topic_of_seq.len(), cfg.batch_size);
        // Next-token targets survive the selection.
        assert_eq!(first.targets[0], first.tokens[1]);
    }

    #[test]
    fn mixtures_are_distributions_and_stratify_exactly() {
        let mixtures = mixtures(&mut StdRng::seed_from_u64(3));
        assert_eq!(mixtures.len(), RING);
        for m in &mixtures {
            assert!(m.iter().all(|&p| p > 0.0));
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(stratify(m, 37).len(), 37);
        }
        assert_ne!(mixtures[0], mixtures[RING - 1], "the mixture drifts");
        assert_eq!(stratify(&[0.5, 0.3, 0.2], 10), [0, 0, 0, 0, 0, 1, 1, 1, 2, 2]);
        // 3.3 / 3.3 / 3.4 of ten: the largest remainder takes the spare.
        assert_eq!(stratify(&[0.33, 0.33, 0.34], 10), [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]);
    }
}
