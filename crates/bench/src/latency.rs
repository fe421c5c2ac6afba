//! Latency composition: turns a convergence run's measured popularity,
//! replica history, and FlexMoE move counts into per-iteration latencies at
//! paper scale via `symi-netsim`'s iteration simulator.

use crate::runs::{RunResult, SystemChoice};
use symi_netsim::iteration::{RebalanceSpec, SimSystem};
use symi_netsim::{IterationSim, ModelCostConfig};

/// What the latency model consumes for one system.
#[derive(Clone, Debug)]
pub struct LatencyInputs {
    pub sim: IterationSim,
    pub system: SystemChoice,
}

impl LatencyInputs {
    pub fn paper_eval(model: ModelCostConfig, system: SystemChoice) -> Self {
        Self { sim: IterationSim::paper_eval(model), system }
    }

    /// The simulator geometry adapted to the run's expert-class count
    /// (training runs may use fewer classes than the paper's 16).
    fn sim_for(&self, expert_classes: usize) -> IterationSim {
        IterationSim { expert_classes, ..self.sim }
    }

    fn sim_system(&self) -> SimSystem {
        match self.system {
            SystemChoice::DeepSpeed => SimSystem::DeepSpeedStatic,
            SystemChoice::Symi => SimSystem::Symi,
            _ => SimSystem::FlexMoE,
        }
    }

    /// Scales a small-model popularity vector onto the cost model's token
    /// budget, preserving shape.
    fn scale_tokens(&self, popularity: &[u64]) -> Vec<f64> {
        let total: u64 = popularity.iter().sum();
        let budget = self.sim.model.tokens_per_batch as f64;
        if total == 0 {
            return vec![budget / popularity.len() as f64; popularity.len()];
        }
        popularity.iter().map(|&p| p as f64 / total as f64 * budget).collect()
    }

    /// The simulated iteration `t` of the given run (layer 0 drives the
    /// per-class shape; all layers share the same simulated geometry).
    pub fn iteration_breakdown(
        &self,
        run: &RunResult,
        t: usize,
    ) -> symi_netsim::IterationBreakdown {
        let rec = &run.record;
        let sim = self.sim_for(rec.popularity[0].iterations[t].len());
        let tokens = self.scale_tokens(&rec.popularity[0].iterations[t]);
        let replicas = match self.system {
            SystemChoice::DeepSpeed => sim.uniform_replicas(),
            _ => normalize_replicas(&rec.replicas[0][t], sim.nodes * sim.slots_per_rank),
        };
        let moved = if self.system.flexmoe_interval().is_some() {
            // Moves are recorded summed over model layers; express per layer.
            let layers = rec.popularity.len().max(1);
            RebalanceSpec { moved_replicas_per_layer: rec.moved_replicas[t].div_ceil(layers) }
        } else {
            RebalanceSpec::default()
        };
        sim.simulate(&tokens, &replicas, self.sim_system(), moved)
    }
}

/// Rescales replica counts from the training geometry to the cost-model
/// geometry (both fill all slots; shapes are preserved, floors respected).
fn normalize_replicas(counts: &[usize], target_slots: usize) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    if total == target_slots {
        return counts.to_vec();
    }
    let goal: Vec<f64> =
        counts.iter().map(|&c| c as f64 / total as f64 * target_slots as f64).collect();
    let mut out: Vec<usize> = goal.iter().map(|&g| g.max(1.0).floor() as usize).collect();
    let mut diff: Vec<f64> = out.iter().zip(&goal).map(|(&c, &g)| c as f64 - g).collect();
    while out.iter().sum::<usize>() > target_slots {
        let i = (0..out.len())
            .filter(|&i| out[i] > 1)
            .max_by(|&a, &b| diff[a].total_cmp(&diff[b]))
            .expect("shrinkable class");
        out[i] -= 1;
        diff[i] -= 1.0;
    }
    while out.iter().sum::<usize>() < target_slots {
        let i = (0..out.len()).min_by(|&a, &b| diff[a].total_cmp(&diff[b])).expect("non-empty");
        out[i] += 1;
        diff[i] += 1.0;
    }
    out
}

/// Mean per-iteration latency of a run under the cost model.
pub fn average_iteration_latency(inputs: &LatencyInputs, run: &RunResult) -> f64 {
    let n = run.record.losses.len();
    assert!(n > 0, "run has no iterations");
    (0..n).map(|t| inputs.iteration_breakdown(run, t).total_seconds()).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::run_system;
    use symi_model::ModelConfig;

    #[test]
    fn normalize_preserves_totals_and_floors() {
        let out = normalize_replicas(&[6, 1, 1], 64);
        assert_eq!(out.iter().sum::<usize>(), 64);
        assert!(out.iter().all(|&c| c >= 1));
        assert!(out[0] > out[1]);
    }

    #[test]
    fn flexmoe_pays_migration_in_composed_latency() {
        let cfg = ModelConfig::tiny();
        let run10 = run_system(SystemChoice::FlexMoe10, cfg, 25, None);
        let li = LatencyInputs::paper_eval(ModelCostConfig::gpt_small(), SystemChoice::FlexMoe10);
        // Find a rebalancing iteration (moves > 0) and a quiet one.
        let hot = (0..25).find(|&t| run10.record.moved_replicas[t] > 0);
        let cold = (0..25).find(|&t| run10.record.moved_replicas[t] == 0).expect("quiet iter");
        let latency = |t| li.iteration_breakdown(&run10, t).total_seconds();
        if let Some(hot) = hot {
            assert!(latency(hot) > latency(cold), "rebalancing iterations must be slower");
        }
    }

    #[test]
    fn symi_latency_is_stable_across_iterations() {
        let cfg = ModelConfig::tiny();
        let run = run_system(SystemChoice::Symi, cfg, 10, None);
        let li = LatencyInputs::paper_eval(ModelCostConfig::gpt_small(), SystemChoice::Symi);
        let lats: Vec<f64> =
            (0..10).map(|t| li.iteration_breakdown(&run, t).total_seconds()).collect();
        let max = lats.iter().cloned().fold(0.0, f64::max);
        let min = lats.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.6, "no migration spikes for SYMI: {lats:?}");
    }
}
