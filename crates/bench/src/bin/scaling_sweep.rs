//! The 1k–4k-rank scaling sweep the paper's 16-node testbed could not run.
//!
//! Drives the hierarchical cost model (`symi-netsim::TieredCostModel` via
//! `IterationSim::simulate_hier`) from 16 to 4096 ranks across topology
//! presets and systems:
//!
//! - `symi` — decoupled optimizer, contiguous packing, cluster-uniform
//!   N-way sharding (the paper's k = 1 point, §3.3/A.1);
//! - `symi_pod` — same, but the shard domain is aligned to the pod tier
//!   (Appendix A.1's k-group partitioning, k = #pods);
//! - `deepspeed` — static stripe, coupled ZeRO-1 shard inside the EDP group;
//! - `flexmoe` — greedy spread, coupled state, pays a migration iteration.
//!
//! Emits `BENCH_scaling.json` at the repo root plus a markdown table, and
//! asserts the invariants CI gates on at every world: every cost finite,
//! per-tier bytes non-negative, total traffic monotone in world size. The
//! sweep is deterministic arithmetic (≈ 3 s in release), so CI runs all of
//! it and fails on any byte of the committed JSON that moves.

use std::path::Path;
use symi_netsim::topology::ModelCostConfig;
use symi_netsim::{HardwareSpec, IterationSim, RebalanceSpec, ShardScope, SimSystem, Topology};
use symi_telemetry::json::{Obj, Value};

struct SystemSpec {
    name: &'static str,
    system: SimSystem,
    pod_aligned: bool,
}

const SYSTEMS: [SystemSpec; 4] = [
    SystemSpec { name: "symi", system: SimSystem::Symi, pod_aligned: false },
    SystemSpec { name: "symi_pod", system: SimSystem::Symi, pod_aligned: true },
    SystemSpec { name: "deepspeed", system: SimSystem::DeepSpeedStatic, pod_aligned: false },
    SystemSpec { name: "flexmoe", system: SimSystem::FlexMoE, pod_aligned: false },
];

/// The pod-aligned shard scope: cells of the second-outermost tier (the
/// innermost tier on a flat topology, where it degenerates to k = 1).
fn pod_scope(topo: &Topology) -> ShardScope {
    ShardScope::TierCell { level: topo.num_tiers().saturating_sub(2) }
}

fn main() {
    let worlds: &[usize] = &[16, 64, 256, 1024, 4096];
    let presets: &[&str] = &["flat", "superpod"];
    let hw = HardwareSpec::paper_eval_cluster();
    let model = ModelCostConfig::gpt_medium();
    let expert_classes = 64usize;
    let slots_per_rank = 4usize;

    let mut results: Vec<Value> = Vec::new();
    let mut table_rows: Vec<String> = Vec::new();

    for &preset in presets {
        // traffic[system] from the previous (smaller) world, for the
        // monotonicity gate.
        let mut prev_traffic = vec![0.0f64; SYSTEMS.len()];
        for &n in worlds {
            let topo = match preset {
                "flat" => Topology::flat(n, &hw),
                "superpod" => Topology::superpod(n),
                other => unreachable!("unknown preset {other}"),
            };
            let sim = IterationSim {
                model,
                hw,
                nodes: n,
                slots_per_rank,
                expert_classes,
                capacity_factor: 1.0,
                seq_len: 512,
            };
            let tokens =
                vec![model.tokens_per_batch as f64 / expert_classes as f64; expert_classes];
            let replicas = sim.uniform_replicas();

            let mut row_cells: Vec<String> = vec![preset.into(), n.to_string()];
            let mut totals = Vec::new();
            let mut rebal_penalties = Vec::new();
            for (si, spec) in SYSTEMS.iter().enumerate() {
                let scope = if spec.pod_aligned { pod_scope(&topo) } else { ShardScope::Cluster };
                let b = sim.simulate_hier(
                    &topo,
                    &tokens,
                    &replicas,
                    spec.system,
                    RebalanceSpec::default(),
                    scope,
                );
                // A placement-change iteration: SYMI's sN·W materialization
                // already rebuilds every slot each step, so moving replicas
                // is free; coupled systems drag weights + optimizer state.
                let rb = sim.simulate_hier(
                    &topo,
                    &tokens,
                    &replicas,
                    spec.system,
                    RebalanceSpec { moved_replicas_per_layer: 2 },
                    scope,
                );
                let total_s = b.total_seconds();
                let rebal_s = rb.total_seconds();
                let traffic: f64 = b.comm_bytes_by_tier.iter().sum();
                let spine = *b.comm_bytes_by_tier.last().expect("at least one tier");

                assert!(
                    total_s.is_finite() && total_s > 0.0,
                    "{preset}/{n}/{} produced a non-finite iteration time",
                    spec.name
                );
                assert!(
                    b.comm_bytes_by_tier.iter().all(|v| v.is_finite() && *v >= 0.0),
                    "{preset}/{n}/{} produced bad tier bytes",
                    spec.name
                );
                assert!(
                    traffic > prev_traffic[si],
                    "{preset}/{} traffic not monotone in world size ({} -> {} bytes at n={n})",
                    spec.name,
                    prev_traffic[si],
                    traffic,
                );
                prev_traffic[si] = traffic;

                let mut o = Obj::new();
                o.set("preset", Value::str(preset));
                o.set("world", Value::u64(n as u64));
                o.set("system", Value::str(spec.name));
                o.set(
                    "tiers",
                    Value::Arr(topo.levels().iter().map(|t| Value::str(t.name)).collect()),
                );
                o.set("total_seconds", Value::Num(total_s));
                o.set("rebalance_seconds", Value::Num(rebal_s));
                o.set("edp_sync_s", Value::Num(b.component("edp_sync")));
                o.set("grad_comm_s", Value::Num(b.component("grad_comm")));
                o.set("weight_comm_s", Value::Num(b.component("weight_comm")));
                o.set("comm_bytes_by_tier", Value::arr_f64(&b.comm_bytes_by_tier));
                o.set("total_comm_bytes", Value::Num(traffic));
                o.set("spine_bytes", Value::Num(spine));
                results.push(Value::Obj(o));

                totals.push(total_s);
                rebal_penalties.push((rebal_s / total_s - 1.0) * 100.0);
                row_cells.push(format!("{total_s:.3}"));
            }
            // symi vs deepspeed, the k-group inversion (symi_pod vs symi),
            // and the placement-change premium each system pays.
            row_cells.push(format!("{:+.1}%", (totals[2] / totals[0] - 1.0) * 100.0));
            row_cells.push(if totals[1] < totals[0] * 0.999 { "pod" } else { "k=1" }.into());
            row_cells.push(format!("{:+.1}%", rebal_penalties[0]));
            row_cells.push(format!("{:+.1}%", rebal_penalties[3]));
            table_rows.push(format!("| {} |", row_cells.join(" | ")));
        }
    }

    println!("# Scaling sweep: 16 → 4096 ranks\n");
    println!(
        "| preset | ranks | symi s | symi_pod s | deepspeed s | flexmoe s | ds vs symi | best shard | symi rebal Δ | flexmoe rebal Δ |"
    );
    println!("|--------|-------|--------|------------|-------------|-----------|------------|------------|--------------|-----------------|");
    for row in &table_rows {
        println!("{row}");
    }

    let mut root = Obj::new();
    root.set("expert_classes", Value::u64(expert_classes as u64));
    root.set("slots_per_rank", Value::u64(slots_per_rank as u64));
    root.set("model", Value::str(model.name));
    root.set("worlds", Value::Arr(worlds.iter().map(|&w| Value::u64(w as u64)).collect()));
    root.set("presets", Value::Arr(presets.iter().map(|&p| Value::str(p)).collect()));
    root.set("results", Value::Arr(results));

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_scaling.json");
    std::fs::write(&path, Value::Obj(root).to_string()).expect("write scaling json");
    println!("\nwrote {}", path.display());
    println!("scaling gates passed: finite costs, traffic monotone in world size");
}
