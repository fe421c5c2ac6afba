//! Cluster latency exploration: prices one training iteration of each
//! system on the paper's 16×A100 testbed (and the §3.3 worked example) via
//! the analytic cost model and the iteration simulator — no training runs,
//! instant output.
//!
//! Run: `cargo run -p symi-examples --bin cluster_latency`

use symi_netsim::iteration::{RebalanceSpec, SimSystem};
use symi_netsim::topology::HardwareSpec;
use symi_netsim::{CommCostModel, IterationSim, ModelCostConfig, SystemKind};
use symi_workload::SyntheticTraceConfig;

fn main() {
    // A synthetic skewed-and-drifting popularity trace stands in for the
    // router (`symi-bench`'s `repro` prices measured traces).
    let trace = SyntheticTraceConfig {
        expert_classes: 16,
        iterations: 50,
        tokens_per_iteration: 512 * 64,
        ..Default::default()
    }
    .generate();

    println!("== Per-iteration latency on the paper's 16xA100 cluster ==\n");
    println!("{:<12} {:>12} {:>12} {:>12}", "system", "GPT-Small", "GPT-Medium", "GPT-Large");
    for (label, system, moved) in [
        ("DeepSpeed", SimSystem::DeepSpeedStatic, 0usize),
        ("SYMI", SimSystem::Symi, 0),
        ("FlexMoE*", SimSystem::FlexMoE, 2),
    ] {
        let mut cells = Vec::new();
        for model in [
            ModelCostConfig::gpt_small(),
            ModelCostConfig::gpt_medium(),
            ModelCostConfig::gpt_large(),
        ] {
            let sim = IterationSim::paper_eval(model);
            let avg: f64 = trace
                .iterations
                .iter()
                .map(|pop| {
                    let total: u64 = pop.iter().sum();
                    let tokens: Vec<f64> = pop
                        .iter()
                        .map(|&p| p as f64 / total as f64 * model.tokens_per_batch as f64)
                        .collect();
                    sim.simulate(
                        &tokens,
                        &sim.uniform_replicas(),
                        system,
                        RebalanceSpec { moved_replicas_per_layer: moved },
                    )
                    .total_seconds()
                })
                .sum::<f64>()
                / trace.iterations.len() as f64;
            cells.push(format!("{avg:>10.3}s"));
        }
        println!("{label:<12} {}", cells.join(" "));
    }
    println!("(* FlexMoE shown on a rebalancing iteration, 2 replicas moved per layer)\n");

    println!("== §3.3 worked example: GPT3-175B layer, N=2048, 400 Gb/s IB ==\n");
    let gb = 1.0e9f64; // the paper's worked example uses decimal GB
    let model = CommCostModel {
        nodes: 2048,
        expert_classes: 64,
        slots_per_rank: 2,
        grad_bytes: 3.375 * gb,
        weight_bytes: 3.375 * gb,
        optimizer_bytes: 27.0 * gb,
        hw: HardwareSpec::paper_analysis_example(),
    };
    println!(
        "optimizer footprint : {:.2} TB per layer (both systems)",
        model.optimizer_footprint_bytes() / 1e12
    );
    println!(
        "data per iteration  : {:.1} TB (invariant in the placement)",
        (model.grad_data_bytes() + model.weight_data_bytes()) / 1e12
    );
    println!(
        "per-rank comm cost  : static {:.4} s vs SYMI {:.4} s  (+{:.2}%)",
        model.costs(SystemKind::StaticBaseline).total(),
        model.costs(SystemKind::Symi).total(),
        model.symi_overhead_ratio() * 100.0
    );
    println!(
        "coupled migration   : {:.3} s to move ONE expert's weights+optimizer\n\
                       (vs zero extra for SYMI's re-placement)",
        model.coupled_migration_seconds()
    );
}
