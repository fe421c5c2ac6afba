//! The per-layer metrics of a traced run, assembled from the telemetry
//! phase spans the program already records, its public counters, and the
//! direct timings. Layers are the crates; a metric of a layer the workload
//! does not run stays 0.

use symi_telemetry::{LinkClass, Phase, NUM_PHASES, PHASES};

use crate::direct::{self, Named};
use crate::stats::{median, percentile};
use crate::workloads::{Kind, Rep, System, Workload};

/// `unattributed_share` above this prints a warning.
pub const UNATTRIBUTED_WARN: f64 = 0.10;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_over_steps(steps: usize, f: impl Fn(usize) -> f64) -> f64 {
    median(&(0..steps).map(f).collect::<Vec<_>>())
}

/// Bytes a phase put on the wire (host↔device staging is accounted to the
/// same phases but never crosses a channel).
pub fn wire_bytes(rep: &Rep, phase: Phase) -> u64 {
    let traffic = rep.window.traffic.as_ref().expect("engine workload");
    let by_class = &traffic.phase_bytes[phase.index()];
    by_class[LinkClass::IntraNode.index()] + by_class[LinkClass::InterNode.index()]
}

/// Every per-layer metric this workload produces, by full name.
pub fn per_layer(w: &Workload, untraced: &Rep, traced: &Rep) -> Vec<(String, f64)> {
    let trace = traced.window.trace.as_ref().expect("traced repetition");
    let steps = traced.steps();
    let per_step = |total: u64| total as f64 / steps as f64;
    let step_ms = traced.step_ms();
    let step_ms_p50 = median(&step_ms);
    let phase_ns = &trace.phase_ns;
    assert_eq!(phase_ns.len(), steps, "one phase record per timed step");
    // Rank 0 timed the step, so the remainder is taken against its spans.
    let rank0_sum = |s: usize| ms(phase_ns[s][0].iter().sum());
    let mut out: Vec<(String, f64)> = Vec::new();

    let direct: Named = match w.kind {
        Kind::Trainer => {
            for (name, phase) in [
                ("forward_backward_ms", Phase::ExpertFfn),
                ("optimizer_step_ms", Phase::OptimizerStep),
                ("rebalance_ms", Phase::Rebalance),
            ] {
                let p = phase.index();
                out.push((
                    format!("model.{name}"),
                    median_over_steps(steps, |s| ms(phase_ns[s][0][p])),
                ));
            }
            let unattributed =
                median_over_steps(steps, |s| step_ms[s] - trace.next_batch_ms[s] - rank0_sum(s));
            out.push(("model.unattributed_ms".into(), unattributed));
            out.push(("model.allocs_per_step".into(), trace.allocs_per_step));
            out.push(("workload.next_batch_ms".into(), median(&trace.next_batch_ms)));
            direct::model_layers()
        }
        Kind::Engine(system, g) => {
            let layer = match system {
                System::Symi => "core",
                System::DeepSpeed => "baselines",
            };
            // A phase takes as long as its slowest rank.
            for phase in PHASES {
                let p = phase.index();
                let slowest = |s: usize| phase_ns[s].iter().map(|r| r[p]).max().unwrap_or(0);
                out.push((
                    format!("{layer}.{}_ms", phase.name()),
                    median_over_steps(steps, |s| ms(slowest(s))),
                ));
            }
            let unattributed = median_over_steps(steps, |s| step_ms[s] - rank0_sum(s));
            out.push((format!("{layer}.unattributed_ms"), unattributed));
            out.push((format!("{layer}.unattributed_share"), unattributed / step_ms_p50));
            let rank_total = |r: &[u64; NUM_PHASES]| r.iter().sum::<u64>();
            let spread = |s: usize| {
                let totals = phase_ns[s].iter().map(rank_total);
                ms(totals.clone().max().unwrap_or(0) - totals.min().unwrap_or(0))
            };
            out.push((format!("{layer}.straggler_spread_ms"), median_over_steps(steps, spread)));
            let churn: usize = traced.outs.iter().map(|o| o.churn).sum();
            out.push((format!("{layer}.placement_churn_per_step"), per_step(churn as u64)));
            out.push((format!("{layer}.allocs_per_step"), trace.allocs_per_step));

            let traffic = traced.window.traffic.as_ref().expect("engine workload");
            let wire = traffic.intra_node_bytes + traffic.inter_node_bytes;
            let msgs = traffic.intra_node_msgs + traffic.inter_node_msgs;
            for (name, value) in [
                ("bytes_per_step", per_step(wire)),
                ("msgs_per_step", per_step(msgs)),
                ("dispatch_bytes_per_step", per_step(wire_bytes(traced, Phase::Dispatch))),
                ("combine_bytes_per_step", per_step(wire_bytes(traced, Phase::Combine))),
                ("grad_comm_bytes_per_step", per_step(wire_bytes(traced, Phase::GradComm))),
                ("weight_comm_bytes_per_step", per_step(wire_bytes(traced, Phase::WeightComm))),
                ("send_imbalance", traffic.send_imbalance()),
                ("fenced_msgs", traced.fenced_msgs as f64),
                ("recv_retries", traced.recv_retries as f64),
            ] {
                out.push((format!("collectives.{name}"), value));
            }
            direct::engine_layers(system, &g)
        }
    };

    // GEMM wall time is summed over the threads that submit GEMMs (the
    // ranks); per step and per rank it compares to the step time.
    let gemm_ms = ms(traced.window.kernel.gemm_ns) / steps as f64 / w.ranks() as f64;
    for (name, value) in [
        ("gemm_ms_per_step", gemm_ms),
        ("gemm_flops_per_step", per_step(traced.window.kernel.gemm_flops)),
        (
            "gemm_gflops",
            traced.window.kernel.gemm_flops as f64 / traced.window.kernel.gemm_ns as f64,
        ),
        ("gemm_share", gemm_ms / step_ms_p50),
        ("seq_fallback_per_step", per_step(traced.window.kernel.seq_fallback)),
    ] {
        out.push((format!("tensor.{name}"), value));
    }
    out.push(("run.step_ms_p98".into(), percentile(&untraced.step_ms(), 98.0)));
    let rate = |rep: &Rep| rep.steps() as f64 / rep.window_s();
    out.push(("telemetry.trace_overhead_share".into(), 1.0 - rate(traced) / rate(untraced)));
    out.extend(direct.into_iter().map(|(name, value)| (name.to_string(), value)));
    out
}
