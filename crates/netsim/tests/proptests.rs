//! Randomized property tests for the cost model and iteration simulator.
//! Driven by `symi_tensor::rng` with fixed seeds.

use symi_netsim::iteration::{RebalanceSpec, SimSystem};
use symi_netsim::topology::HardwareSpec;
use symi_netsim::{CommCostModel, IterationSim, ModelCostConfig, SystemKind};
use symi_tensor::rng::{Rng, StdRng};

fn replicas_summing_to(tokens: &[f64], slots: usize) -> Vec<usize> {
    let e = tokens.len();
    let total: f64 = tokens.iter().sum();
    let mut counts: Vec<usize> = tokens
        .iter()
        .map(|&t| ((t / total.max(1.0) * slots as f64).floor() as usize).max(1))
        .collect();
    while counts.iter().sum::<usize>() > slots {
        let i = (0..e).max_by_key(|&i| counts[i]).unwrap();
        counts[i] -= 1;
    }
    while counts.iter().sum::<usize>() < slots {
        let i = (0..e).min_by_key(|&i| counts[i]).unwrap();
        counts[i] += 1;
    }
    counts
}

#[test]
fn simulated_iteration_is_finite_and_positive() {
    let mut rng = StdRng::seed_from_u64(501);
    for _ in 0..48 {
        let raw: Vec<f64> = (0..16).map(|_| rng.gen::<f64>() * 10_000.0).collect();
        let system_sel = rng.gen_range(0..3usize);
        let moved = rng.gen_range(0..4usize);
        let sim = IterationSim::paper_eval(ModelCostConfig::gpt_small());
        let total: f64 = raw.iter().sum();
        let budget = sim.model.tokens_per_batch as f64;
        let tokens: Vec<f64> = if total > 0.0 {
            raw.iter().map(|&t| t / total * budget).collect()
        } else {
            vec![budget / 16.0; 16]
        };
        let replicas = replicas_summing_to(&tokens, 64);
        let system = [SimSystem::DeepSpeedStatic, SimSystem::Symi, SimSystem::FlexMoE][system_sel];
        let b = sim.simulate(
            &tokens,
            &replicas,
            system,
            RebalanceSpec { moved_replicas_per_layer: moved },
        );
        assert!(b.total_seconds().is_finite());
        assert!(b.total_seconds() > 0.0);
        assert!((0.0..=1.0).contains(&b.survived_fraction));
        assert!(b.gpu_peak_bytes > 0.0);
        for c in &b.components {
            assert!(c.seconds >= 0.0, "{} must be nonnegative", c.name);
        }
    }
}

#[test]
fn survival_monotone_in_capacity_factor() {
    let mut rng = StdRng::seed_from_u64(502);
    for _ in 0..12 {
        let raw: Vec<f64> = (0..16).map(|_| 1.0 + rng.gen::<f64>() * 9_999.0).collect();
        let base = IterationSim::paper_eval(ModelCostConfig::gpt_small());
        let total: f64 = raw.iter().sum();
        let budget = base.model.tokens_per_batch as f64;
        let tokens: Vec<f64> = raw.iter().map(|&t| t / total * budget).collect();
        let replicas = base.uniform_replicas();
        let mut prev = 0.0;
        for cf in [0.5, 1.0, 2.0, 4.0, 16.0] {
            let sim = IterationSim { capacity_factor: cf, ..base };
            let b = sim.simulate(
                &tokens,
                &replicas,
                SimSystem::DeepSpeedStatic,
                RebalanceSpec::default(),
            );
            assert!(b.survived_fraction >= prev - 1e-12);
            prev = b.survived_fraction;
        }
    }
}

#[test]
fn analytic_costs_scale_linearly_in_bytes() {
    let mut rng = StdRng::seed_from_u64(503);
    for _ in 0..32 {
        let scale = 1.0 + rng.gen::<f64>() * 99.0;
        let base = CommCostModel {
            nodes: 64,
            expert_classes: 16,
            slots_per_rank: 2,
            grad_bytes: 1.0e6,
            weight_bytes: 1.0e6,
            optimizer_bytes: 8.0e6,
            hw: HardwareSpec::paper_eval_cluster(),
        };
        let scaled = CommCostModel {
            grad_bytes: base.grad_bytes * scale,
            weight_bytes: base.weight_bytes * scale,
            ..base
        };
        for kind in [SystemKind::StaticBaseline, SystemKind::Symi] {
            let a = base.costs(kind).total();
            let b = scaled.costs(kind).total();
            assert!((b / a - scale).abs() < 1e-9);
        }
        // The overhead ratio is scale-free.
        assert!((base.symi_overhead_ratio() - scaled.symi_overhead_ratio()).abs() < 1e-12);
    }
}
