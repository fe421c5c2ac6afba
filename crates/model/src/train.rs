//! Training loop parameterized over a replica-placement policy.
//!
//! This is the *functional* training engine used for convergence
//! experiments (Figures 7–10, Tables 1/3): it maintains exactly one
//! canonical parameter set per expert class — mathematically identical to a
//! fully synchronized distributed run (all replicas of a class hold the
//! same weights after every optimizer step) — while the replica counts
//! produced by the [`PlacementPolicy`] drive class capacities and therefore
//! token drops. The physically-distributed engine in the `symi` crate
//! exercises the real communication paths and is cross-checked against
//! this one in the integration tests.

use crate::config::ModelConfig;
use crate::model::{GptMoe, StepStats};
use std::sync::Arc;
use symi_telemetry::{ClusterTelemetry, IterationReport, Phase};
use symi_tensor::{
    act_stats, kernel_stats, pool, ActStats, AdamConfig, AdamState, KernelStats, PoolStats,
};
use symi_workload::{DriftingCorpus, PopularityTrace};

/// Decides each layer's replica allocation for the next iteration.
///
/// Implementations: [`UniformPolicy`] (DeepSpeed-style static), the SYMI
/// Expert Placement Scheduler (`symi::scheduler::SymiPolicy`, Algorithm 1),
/// and the FlexMoE interval policy (`symi::policies::FlexMoePolicy`). Callers:
/// the [`Trainer`], and `symi::MoeLayerEngine`, which asks its policy for
/// every next placement and tells it of every membership change.
pub trait PlacementPolicy {
    /// Human-readable system name for reports.
    fn name(&self) -> &'static str;

    /// Returns next iteration's replica counts for `layer`, given the
    /// popularity the router just observed. Counts must sum to the total
    /// slot count and be ≥1 everywhere.
    fn next_replicas(&mut self, layer: usize, popularity: &[u64], iteration: u64) -> Vec<usize>;

    /// The world shrank (elastic recovery after a permanent rank loss):
    /// every subsequent [`PlacementPolicy::next_replicas`] must sum to
    /// `total_slots`. Policies that carry a slot budget override this;
    /// stateless ones can ignore it.
    fn on_world_shrink(&mut self, total_slots: usize) {
        let _ = total_slots;
    }

    /// The world grew (elastic scale-out admitted a joiner): every
    /// subsequent [`PlacementPolicy::next_replicas`] must sum to the
    /// enlarged `total_slots`. Same contract as
    /// [`PlacementPolicy::on_world_shrink`], opposite direction.
    fn on_world_grow(&mut self, total_slots: usize) {
        let _ = total_slots;
    }
}

/// Static uniform replication (`r = sN/E`), as DeepSpeed provisions.
pub struct UniformPolicy {
    pub experts: usize,
    pub total_slots: usize,
}

impl PlacementPolicy for UniformPolicy {
    fn name(&self) -> &'static str {
        "deepspeed-static"
    }

    fn next_replicas(&mut self, _layer: usize, _popularity: &[u64], _iter: u64) -> Vec<usize> {
        assert_eq!(self.total_slots % self.experts, 0, "uniform replication must divide");
        vec![self.total_slots / self.experts; self.experts]
    }

    fn on_world_shrink(&mut self, total_slots: usize) {
        // The divisibility assert above still applies: static uniform
        // replication only survives shrinks that keep `E | total_slots`.
        self.total_slots = total_slots;
    }

    fn on_world_grow(&mut self, total_slots: usize) {
        self.total_slots = total_slots;
    }
}

/// Everything recorded over a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainRecord {
    /// Cross-entropy loss per iteration.
    pub losses: Vec<f32>,
    /// Overall token survival per iteration.
    pub survival: Vec<f64>,
    /// Popularity trace per layer.
    pub popularity: Vec<PopularityTrace>,
    /// Replica allocation per layer per iteration (post-policy).
    pub replicas: Vec<Vec<Vec<usize>>>,
    /// Total replica moves (instances re-assigned) per iteration, summed
    /// over layers — what coupled systems pay migration for.
    pub moved_replicas: Vec<usize>,
}

impl TrainRecord {
    /// First iteration whose smoothed loss reaches `target`, if any.
    /// Smoothing: trailing mean over `window`.
    pub fn iterations_to_loss(&self, target: f32, window: usize) -> Option<usize> {
        let w = window.max(1);
        for i in 0..self.losses.len() {
            let lo = i.saturating_sub(w - 1);
            let mean: f32 = self.losses[lo..=i].iter().sum::<f32>() / (i - lo + 1) as f32;
            if mean <= target {
                return Some(i + 1);
            }
        }
        None
    }

    /// Mean survival over the whole run.
    pub fn mean_survival(&self) -> f64 {
        if self.survival.is_empty() {
            return 1.0;
        }
        self.survival.iter().sum::<f64>() / self.survival.len() as f64
    }
}

/// The training driver.
pub struct Trainer {
    pub model: GptMoe,
    policy: Box<dyn PlacementPolicy>,
    dense_opt: Vec<AdamState>,
    /// `[layer][class]` flat Adam over expert parameters.
    expert_opt: Vec<Vec<AdamState>>,
    /// Current replica allocation per layer.
    replicas: Vec<Vec<usize>>,
    pub record: TrainRecord,
    iteration: u64,
    /// Per-iteration observability (disabled by default; see
    /// [`Trainer::attach_telemetry`]).
    telemetry: Arc<ClusterTelemetry>,
    /// Reused updated-weight buffer for the expert optimizer loop (no
    /// per-class allocation in steady state).
    scratch_updated: Vec<f32>,
    /// Kernel/pool counter snapshots from the end of the previous step, so
    /// each iteration's gauges report per-step deltas.
    last_kernel: KernelStats,
    last_act: ActStats,
    last_pool: PoolStats,
}

impl Trainer {
    pub fn new(cfg: ModelConfig, policy: Box<dyn PlacementPolicy>) -> Self {
        let model = GptMoe::new(cfg);
        let adam = AdamConfig { lr: cfg.lr, ..AdamConfig::default() };
        let expert_opt = model
            .blocks
            .iter()
            .map(|b| b.moe.experts.iter().map(|e| AdamState::new(adam, &e.flat_params())).collect())
            .collect();
        let mut uniform = UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots };
        let initial = uniform.next_replicas(0, &[], 0);
        let replicas = vec![initial; cfg.layers];
        let record = TrainRecord {
            popularity: vec![PopularityTrace::new(); cfg.layers],
            ..Default::default()
        };
        Self {
            model,
            policy,
            dense_opt: Vec::new(),
            expert_opt,
            replicas,
            record,
            iteration: 0,
            telemetry: ClusterTelemetry::disabled(1),
            scratch_updated: Vec::new(),
            last_kernel: kernel_stats(),
            last_act: act_stats(),
            last_pool: pool::stats(),
        }
    }

    /// Installs a telemetry cluster (the functional trainer is the 1-rank
    /// case). Each subsequent [`Trainer::step`] times its phases and emits
    /// one [`IterationReport`] — per-class popularity, kept counts, and
    /// replica allocation summed over layers — to the cluster's sinks.
    pub fn attach_telemetry(&mut self, telemetry: Arc<ClusterTelemetry>) {
        self.telemetry = telemetry;
    }

    /// The installed telemetry cluster (disabled unless attached).
    pub fn telemetry(&self) -> &Arc<ClusterTelemetry> {
        &self.telemetry
    }

    /// Current per-layer replica allocation.
    pub fn replicas(&self) -> &[Vec<usize>] {
        &self.replicas
    }

    /// Completed training iterations — what a disk checkpoint stamps and a
    /// resumed run continues from.
    pub fn iteration_count(&self) -> u64 {
        self.iteration
    }

    /// Runs one training iteration: forward/backward, optimizer step,
    /// popularity bookkeeping, and placement update for the next iteration.
    pub fn step(&mut self, batch: &symi_workload::Batch) -> StepStats {
        let tele = self.telemetry.handle(0);
        self.model.zero_grad();
        let stats = {
            // The functional model interleaves routing, expert compute, and
            // combine inside one call; account it to the expert-FFN phase
            // (the dominant term in the single-process trainer).
            let _span = tele.span(Phase::ExpertFfn);
            self.model.forward_backward(batch, &self.replicas)
        };

        let opt_span = tele.span(Phase::OptimizerStep);
        // Dense parameters: one Adam state per tensor, built lazily in
        // visit order on the first step.
        let adam = AdamConfig { lr: self.model.cfg.lr, ..AdamConfig::default() };
        let dense_opt = &mut self.dense_opt;
        let mut idx = 0usize;
        self.model.visit_dense_params(&mut |param, grad| {
            if dense_opt.len() == idx {
                dense_opt.push(AdamState::new(adam, param.as_slice()));
            }
            let state = &mut dense_opt[idx];
            state.step(grad, param.as_mut_slice());
            idx += 1;
        });

        // Expert parameters: flat Adam per (layer, class), read from the
        // expert's own flat gradient; the updated weights are staged through
        // the trainer's reusable flat buffer.
        for (layer, block) in self.model.blocks.iter_mut().enumerate() {
            for (class, expert) in block.moe.experts.iter_mut().enumerate() {
                self.scratch_updated.resize(expert.param_count(), 0.0);
                self.expert_opt[layer][class].step(expert.flat_grads(), &mut self.scratch_updated);
                expert.load_flat(&self.scratch_updated);
            }
        }
        drop(opt_span);

        // Bookkeeping + placement for the next iteration.
        let replicas_used = self.telemetry.is_enabled().then(|| self.replicas.clone());
        let rebalance_span = tele.span(Phase::Rebalance);
        let mut moved_total = 0usize;
        let mut next_alloc = Vec::with_capacity(stats.layers.len());
        for (layer, layer_stats) in stats.layers.iter().enumerate() {
            self.record.popularity[layer].push(layer_stats.popularity.clone());
            let next = self.policy.next_replicas(layer, &layer_stats.popularity, self.iteration);
            assert_eq!(
                next.iter().sum::<usize>(),
                self.model.cfg.total_slots,
                "policy must fill all slots"
            );
            moved_total += self.replicas[layer]
                .iter()
                .zip(&next)
                .map(|(&old, &new)| new.saturating_sub(old))
                .sum::<usize>();
            next_alloc.push(next);
        }
        drop(rebalance_span);
        if self.record.replicas.is_empty() {
            self.record.replicas = vec![Vec::new(); self.model.cfg.layers];
        }
        for (layer, reps) in next_alloc.iter().enumerate() {
            self.record.replicas[layer].push(reps.clone());
        }
        self.replicas = next_alloc;
        self.record.losses.push(stats.ce_loss);
        self.record.survival.push(stats.survival_rate());
        self.record.moved_replicas.push(moved_total);

        if self.telemetry.is_enabled() {
            let e = self.model.cfg.experts;
            let mut report = IterationReport::new(self.policy.name(), self.iteration);
            report.loss = stats.ce_loss as f64;
            // Per-class vectors summed over layers; replicas are the counts
            // this step ran with (pre-policy).
            report.popularity = vec![0u64; e];
            report.kept_per_class = vec![0u64; e];
            report.replicas = vec![0u64; e];
            for layer_stats in &stats.layers {
                for (c, &p) in layer_stats.popularity.iter().enumerate() {
                    report.popularity[c] += p;
                }
                for (c, &k) in layer_stats.kept_per_class.iter().enumerate() {
                    report.kept_per_class[c] += k;
                }
            }
            for reps in replicas_used.as_deref().unwrap_or(&[]) {
                for (c, &r) in reps.iter().enumerate() {
                    report.replicas[c] += r as u64;
                }
            }
            report.placement_churn = moved_total as u64;
            report.phase_ns = self.telemetry.drain_phase_ns();

            // Per-step compute-kernel and thread-pool gauges (deltas vs the
            // previous step's counter snapshots).
            let kern = kernel_stats();
            let pstats = pool::stats();
            let gemm_ns = kern.gemm_ns.saturating_sub(self.last_kernel.gemm_ns);
            let gemm_flops = kern.gemm_flops.saturating_sub(self.last_kernel.gemm_flops);
            tele.gauge("kernel.gemm_ms").set(gemm_ns as f64 / 1e6);
            tele.gauge("kernel.gemm_gflops").set(if gemm_ns > 0 {
                gemm_flops as f64 / gemm_ns as f64
            } else {
                0.0
            });
            tele.gauge("kernel.seq_fallback")
                .set(kern.seq_fallback.saturating_sub(self.last_kernel.seq_fallback) as f64);
            tele.gauge("kernel.b_packs")
                .set(kern.b_packs.saturating_sub(self.last_kernel.b_packs) as f64);
            let act = act_stats();
            tele.gauge("kernel.act_ns").set(act.act_ns.saturating_sub(self.last_act.act_ns) as f64);
            tele.gauge("kernel.act_elems")
                .set(act.act_elems.saturating_sub(self.last_act.act_elems) as f64);
            tele.gauge("pool.threads").set(pstats.threads as f64);
            tele.gauge("pool.jobs").set(pstats.jobs.saturating_sub(self.last_pool.jobs) as f64);
            tele.gauge("pool.busy_ms")
                .set(pstats.busy_ns.saturating_sub(self.last_pool.busy_ns) as f64 / 1e6);
            tele.gauge("pool.env_invalid").set(f64::from(pstats.env_invalid));
            self.telemetry.emit(&report);
        }
        self.last_kernel = kernel_stats();
        self.last_act = act_stats();
        self.last_pool = pool::stats();

        self.iteration += 1;
        stats
    }

    /// Adapts the trainer to a smaller slot budget — the functional-side
    /// counterpart of the distributed engine's elastic recovery, where a
    /// permanent rank loss removes that rank's expert slots. The model's
    /// total slot count drops, each layer's live allocation is squeezed by
    /// removing replicas from its most-replicated classes (preserving the
    /// one-replica floor), and the policy is notified so its subsequent
    /// allocations sum to the new total.
    ///
    /// # Panics
    /// Panics when `new_total` cannot give every class one replica, or
    /// exceeds the current budget (elasticity here only shrinks).
    pub fn shrink_total_slots(&mut self, new_total: usize) {
        let e = self.model.cfg.experts;
        assert!(new_total >= e, "need at least one slot per expert class");
        assert!(new_total <= self.model.cfg.total_slots, "shrink cannot grow the world");
        self.model.cfg.total_slots = new_total;
        for layer in &mut self.replicas {
            while layer.iter().sum::<usize>() > new_total {
                let i = (0..e)
                    .filter(|&i| layer[i] > 1)
                    .max_by_key(|&i| layer[i])
                    .expect("sum > E implies some class holds more than one replica");
                layer[i] -= 1;
            }
        }
        self.policy.on_world_shrink(new_total);
    }

    /// Adapts the trainer to a larger slot budget — the functional-side
    /// counterpart of the distributed engine's scale-out, where a joining
    /// rank adds its expert slots. The model's total slot count grows,
    /// each layer's live allocation is padded by granting the freed slots
    /// to its *least*-replicated classes (the mirror of the shrink
    /// squeeze, so shrink-then-grow round-trips to a balanced allocation),
    /// and the policy is notified so its subsequent allocations sum to the
    /// new total.
    ///
    /// # Panics
    /// Panics when `new_total` is below the current budget (use
    /// [`Trainer::shrink_total_slots`] for that direction).
    pub fn grow_total_slots(&mut self, new_total: usize) {
        let e = self.model.cfg.experts;
        assert!(new_total >= self.model.cfg.total_slots, "grow cannot shrink the world");
        self.model.cfg.total_slots = new_total;
        for layer in &mut self.replicas {
            while layer.iter().sum::<usize>() < new_total {
                let i = (0..e).min_by_key(|&i| layer[i]).expect("at least one class");
                layer[i] += 1;
            }
        }
        self.policy.on_world_grow(new_total);
    }

    /// Runs `iterations` training steps against the corpus.
    pub fn train(&mut self, corpus: &mut DriftingCorpus, iterations: usize) {
        for _ in 0..iterations {
            let batch = corpus.next_batch();
            let _ = self.step(&batch);
        }
    }

    /// Snapshots everything needed to resume training exactly: parameters,
    /// optimizer states, the current placement, and the run record.
    pub fn checkpoint(&mut self) -> Checkpoint {
        let mut dense_params = Vec::new();
        self.model.visit_dense_params(&mut |param, _| dense_params.push(param.clone()));
        let expert_params: Vec<Vec<Vec<f32>>> = self
            .model
            .blocks
            .iter()
            .map(|b| b.moe.experts.iter().map(|e| e.flat_params()).collect())
            .collect();
        Checkpoint {
            iteration: self.iteration,
            dense_params,
            dense_opt: self.dense_opt.clone(),
            expert_params,
            expert_opt: self.expert_opt.clone(),
            replicas: self.replicas.clone(),
            record: self.record.clone(),
        }
    }

    /// Restores a [`Checkpoint`] taken from an identically configured
    /// trainer. Training resumed from here reproduces the original run
    /// bit-for-bit (given the same data stream).
    ///
    /// # Panics
    /// Panics if the checkpoint's shapes don't match this model.
    pub fn restore(&mut self, ckpt: Checkpoint) {
        let mut idx = 0usize;
        self.model.visit_dense_params(&mut |param, _| {
            let saved = &ckpt.dense_params[idx];
            assert_eq!(
                (param.rows(), param.cols()),
                (saved.rows(), saved.cols()),
                "dense parameter {idx} shape mismatch"
            );
            *param = saved.clone();
            idx += 1;
        });
        assert_eq!(idx, ckpt.dense_params.len(), "dense parameter count mismatch");
        assert_eq!(ckpt.expert_params.len(), self.model.blocks.len(), "layer count mismatch");
        for (block, layer_params) in self.model.blocks.iter_mut().zip(&ckpt.expert_params) {
            for (expert, params) in block.moe.experts.iter_mut().zip(layer_params) {
                expert.load_flat(params);
            }
        }
        self.dense_opt = ckpt.dense_opt;
        self.expert_opt = ckpt.expert_opt;
        self.replicas = ckpt.replicas;
        self.record = ckpt.record;
        self.iteration = ckpt.iteration;
    }
}

/// A resumable training snapshot (serializable with serde).
#[derive(Clone)]
pub struct Checkpoint {
    pub iteration: u64,
    /// Dense parameters in `visit_dense_params` order.
    pub dense_params: Vec<symi_tensor::Matrix>,
    pub dense_opt: Vec<AdamState>,
    /// `[layer][class]` flat expert parameters.
    pub expert_params: Vec<Vec<Vec<f32>>>,
    pub expert_opt: Vec<Vec<AdamState>>,
    pub replicas: Vec<Vec<usize>>,
    pub record: TrainRecord,
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_workload::CorpusConfig;

    fn corpus_for(cfg: &ModelConfig) -> DriftingCorpus {
        DriftingCorpus::new(CorpusConfig {
            vocab_size: cfg.vocab_size,
            seq_len: cfg.seq_len,
            batch_size: cfg.batch_size,
            topics: 4,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn loss_decreases_over_training() {
        let cfg = ModelConfig::tiny();
        let mut corpus = corpus_for(&cfg);
        let mut trainer = Trainer::new(
            cfg,
            Box::new(UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots }),
        );
        trainer.train(&mut corpus, 60);
        let first: f32 = trainer.record.losses[..10].iter().sum::<f32>() / 10.0;
        let last: f32 = trainer.record.losses[50..].iter().sum::<f32>() / 10.0;
        assert!(last < first - 0.2, "training must reduce loss: first {first:.3} last {last:.3}");
    }

    #[test]
    fn record_tracks_everything() {
        let cfg = ModelConfig::tiny();
        let mut corpus = corpus_for(&cfg);
        let mut trainer = Trainer::new(
            cfg,
            Box::new(UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots }),
        );
        trainer.train(&mut corpus, 5);
        assert_eq!(trainer.record.losses.len(), 5);
        assert_eq!(trainer.record.survival.len(), 5);
        assert_eq!(trainer.record.popularity.len(), cfg.layers);
        assert_eq!(trainer.record.popularity[0].len(), 5);
        assert_eq!(trainer.record.replicas[0].len(), 5);
        // Uniform policy never moves replicas.
        assert!(trainer.record.moved_replicas.iter().all(|&m| m == 0));
    }

    #[test]
    fn iterations_to_loss_finds_crossing() {
        let r = TrainRecord { losses: vec![5.0, 4.0, 3.0, 2.0], ..Default::default() };
        assert_eq!(r.iterations_to_loss(3.5, 1), Some(3));
        assert_eq!(r.iterations_to_loss(1.0, 1), None);
        // Smoothed over window 2: means are 5, 4.5, 3.5, 2.5.
        assert_eq!(r.iterations_to_loss(3.5, 2), Some(3));
    }

    #[test]
    fn shrinking_total_slots_keeps_training_consistent() {
        // A popularity-proportional stand-in that honours the shrink hook
        // (the real SymiPolicy lives downstream and can't be imported here).
        struct Greedy {
            total_slots: usize,
        }
        impl PlacementPolicy for Greedy {
            fn name(&self) -> &'static str {
                "test-greedy"
            }
            fn next_replicas(&mut self, _l: usize, pop: &[u64], _i: u64) -> Vec<usize> {
                let e = pop.len();
                let mut r = vec![1usize; e];
                let mut left = self.total_slots - e;
                while left > 0 {
                    let hot = (0..e).max_by_key(|&c| pop[c] / r[c] as u64).unwrap();
                    r[hot] += 1;
                    left -= 1;
                }
                r
            }
            fn on_world_shrink(&mut self, total_slots: usize) {
                self.total_slots = total_slots;
            }
        }

        let cfg = ModelConfig::tiny();
        let mut corpus = corpus_for(&cfg);
        let mut trainer = Trainer::new(cfg, Box::new(Greedy { total_slots: cfg.total_slots }));
        trainer.train(&mut corpus, 3);

        let new_total = cfg.total_slots - 2; // tiny(): 8 slots, 4 classes
        trainer.shrink_total_slots(new_total);
        for layer in trainer.replicas() {
            assert_eq!(layer.iter().sum::<usize>(), new_total, "squeeze fills the new budget");
            assert!(layer.iter().all(|&c| c >= 1), "squeeze respects the floor");
        }
        // Subsequent steps run against the shrunk budget (step() asserts the
        // policy fills exactly total_slots, so this also checks the hook).
        trainer.train(&mut corpus, 3);
        assert_eq!(trainer.record.losses.len(), 6);
    }

    #[test]
    fn growing_total_slots_keeps_training_consistent() {
        // Mirror of the shrink test: scale-out hands the trainer extra
        // slots, the padding keeps the floor, subsequent steps fill the
        // enlarged budget, and a shrink-then-grow round-trip balances.
        struct Greedy {
            total_slots: usize,
        }
        impl PlacementPolicy for Greedy {
            fn name(&self) -> &'static str {
                "test-greedy"
            }
            fn next_replicas(&mut self, _l: usize, pop: &[u64], _i: u64) -> Vec<usize> {
                let e = pop.len();
                let mut r = vec![1usize; e];
                let mut left = self.total_slots - e;
                while left > 0 {
                    let hot = (0..e).max_by_key(|&c| pop[c] / r[c] as u64).unwrap();
                    r[hot] += 1;
                    left -= 1;
                }
                r
            }
            fn on_world_shrink(&mut self, total_slots: usize) {
                self.total_slots = total_slots;
            }
            fn on_world_grow(&mut self, total_slots: usize) {
                self.total_slots = total_slots;
            }
        }

        let cfg = ModelConfig::tiny();
        let mut corpus = corpus_for(&cfg);
        let mut trainer = Trainer::new(cfg, Box::new(Greedy { total_slots: cfg.total_slots }));
        trainer.train(&mut corpus, 3);

        // Shrink (a rank died), train, then grow past the original budget
        // (two ranks joined).
        trainer.shrink_total_slots(cfg.total_slots - 2);
        trainer.train(&mut corpus, 2);
        let grown = cfg.total_slots + 2;
        trainer.grow_total_slots(grown);
        for layer in trainer.replicas() {
            assert_eq!(layer.iter().sum::<usize>(), grown, "padding fills the new budget");
            assert!(layer.iter().all(|&c| c >= 1), "padding respects the floor");
        }
        trainer.train(&mut corpus, 3);
        assert_eq!(trainer.record.losses.len(), 8);
    }

    #[test]
    fn survival_is_high_with_uniform_data_and_low_with_skew() {
        let cfg = ModelConfig::tiny();
        // capacity_factor 1.0: drops depend on router skew; just check the
        // rate is recorded in (0, 1].
        let mut corpus = corpus_for(&cfg);
        let mut trainer = Trainer::new(
            cfg,
            Box::new(UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots }),
        );
        trainer.train(&mut corpus, 3);
        for s in &trainer.record.survival {
            assert!(*s > 0.0 && *s <= 1.0);
        }
    }
}
