//! The artifacts read from training runs: Figures 2 and 7–12, Tables 1 and
//! 3 and the placement-policy ablation. Each prints its tables, writes its
//! CSV under `out`, and asserts the claims that hold in this substrate.

use crate::latency::{average_iteration_latency, LatencyInputs};
use crate::output::{write_csv, Table};
use crate::runs::{target_loss, RunResult, SystemChoice, CAPACITIES};
use std::path::Path;
use symi::policies::evaluate_policy_on_trace;
use symi::TracePolicy;
use symi_model::{ModelConfig, TrainRecord};
use symi_netsim::{IterationSim, ModelCostConfig};
use symi_telemetry::{Phase, PHASES};

/// Smoothing window of every iterations-to-target count.
const TARGET_WINDOW: usize = 10;

/// Writes `value(record, t)` per run and iteration, one column per run:
/// the per-iteration series CSV of Figures 7 and 8.
fn write_series(
    out: &Path,
    name: &str,
    runs: &[RunResult],
    value: impl Fn(&TrainRecord, usize) -> String,
) {
    let header: Vec<&str> =
        std::iter::once("iteration").chain(runs.iter().map(|r| r.system.name())).collect();
    let rows: Vec<Vec<String>> = (0..runs[0].record.losses.len())
        .map(|t| {
            std::iter::once(t.to_string()).chain(runs.iter().map(|r| value(&r.record, t))).collect()
        })
        .collect();
    write_csv(out, name, &header, &rows);
}

/// `its` as a table cell: the count, or `>iters` when the target was missed.
fn iters_cell(its: Option<usize>, iters: usize) -> String {
    its.map(|i| i.to_string()).unwrap_or_else(|| format!(">{iters}"))
}

/// Figure 2: popularity dynamics of the 32-expert static run. Asserts the
/// paper's observation, a popularity swing above 16× within 3 iterations.
pub fn fig2_popularity(out: &Path, run: &RunResult) {
    let trace = &run.record.popularity[0];
    let iters = trace.len();
    let header: Vec<String> = std::iter::once("iteration".to_string())
        .chain((0..trace.expert_classes()).map(|e| format!("expert_{e}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..iters)
        .map(|t| {
            std::iter::once(t.to_string())
                .chain(trace.normalized(t).iter().map(|p| format!("{p:.5}")))
                .collect()
        })
        .collect();
    write_csv(out, "fig2_popularity.csv", &header_refs, &rows);

    println!(
        "# Figure 2 — expert popularity dynamics ({} experts, {iters} iterations)\n",
        trace.expert_classes()
    );
    let mut t = Table::new(&["window (iters)", "max popularity swing (x)"]);
    for k in [2usize, 3, 5, 10, 50] {
        t.row(vec![k.to_string(), format!("{:.1}", trace.max_shift_within(k))]);
    }
    println!("{}", t.render());
    let swing = trace.max_shift_within(3);
    println!(
        "Paper's observation: swings exceeding 16x within 3 iterations.\n\
         Measured here (synthetic drifting-topic corpus): {swing:.1}x within 3."
    );
    assert!(swing > 16.0, "Figure 2: the largest swing within 3 iterations is {swing:.1}x");

    // Show the skew at a few snapshots.
    let mut snap = Table::new(&["iteration", "max share", "min share", "skew (max/min)"]);
    for &t_at in &[0usize, iters / 4, iters / 2, iters.saturating_sub(1)] {
        let norm = trace.normalized(t_at);
        let max = norm.iter().cloned().fold(0.0, f64::max);
        let min = norm.iter().cloned().fold(1.0, f64::min).max(1e-9);
        snap.row(vec![
            t_at.to_string(),
            format!("{max:.3}"),
            format!("{min:.3}"),
            format!("{:.1}", max / min),
        ]);
    }
    println!("{}", snap.render());
}

/// Table 1: the convergence–latency tradeoff of expert capacity for the
/// static system — survival, iterations to target loss, and the forward
/// pass's latency at GPT-Small scale over the run's measured popularity.
pub fn table1_capacity(runs: &[RunResult]) {
    let iters = runs[0].record.losses.len();
    let target = target_loss(runs.iter().map(|r| &r.record));
    println!("# Table 1 — convergence-latency tradeoff (capacity x1 / x2 / x4)\n");
    let mut table = Table::new(&[
        "Expert Capacity",
        "Avg. Token Survival (%)",
        "Iters to Target Loss",
        "Forward Pass Latency (ms)",
    ]);
    for (&cf, run) in CAPACITIES.iter().zip(runs) {
        let li = LatencyInputs {
            sim: IterationSim {
                capacity_factor: cf as f64,
                ..IterationSim::paper_eval(ModelCostConfig::gpt_small())
            },
            system: SystemChoice::DeepSpeed,
        };
        let fwd_ms =
            (0..iters).map(|t| li.iteration_breakdown(run, t).forward_seconds()).sum::<f64>()
                / iters as f64
                * 1e3;
        table.row(vec![
            format!("x{cf}"),
            format!("{:.2}", run.record.mean_survival() * 100.0),
            iters_cell(run.record.iterations_to_loss(target, TARGET_WINDOW), iters),
            format!("{fwd_ms:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!("Target loss used: {target:.3} (slowest variant's smoothed loss at 80% of the run).");
    println!(
        "\nPaper's shape: higher capacity -> higher survival, fewer iterations,\n\
         higher forward latency (x1: 44.9% / 618 it / 455 ms ... x4: 74.9% / 478 it / 571 ms)."
    );
}

/// Figure 7: training-loss curves of the five systems, and iterations to
/// the common target loss.
pub fn fig7_loss(out: &Path, runs: &[RunResult]) {
    let iters = runs[0].record.losses.len();
    write_series(out, "fig7_loss.csv", runs, |r, t| format!("{:.4}", r.losses[t]));

    println!("# Figure 7 — training loss per system ({iters} iterations)\n");
    let mut t =
        Table::new(&["system", "loss @25%", "loss @50%", "loss @75%", "final (20-it mean)"]);
    for run in runs {
        let losses = &run.record.losses;
        let at = |f: f64| losses[((iters as f64 * f) as usize).min(iters - 1)];
        let tail = &losses[iters.saturating_sub(20)..];
        t.row(vec![
            run.system.name().to_string(),
            format!("{:.3}", at(0.25)),
            format!("{:.3}", at(0.5)),
            format!("{:.3}", at(0.75)),
            format!("{:.3}", tail.iter().sum::<f32>() / tail.len() as f32),
        ]);
    }
    println!("{}", t.render());

    // The paper: SYMI needs 28.5% fewer iterations than DeepSpeed to loss 4.0.
    let target = target_loss(runs.iter().map(|r| &r.record));
    let mut t2 = Table::new(&["system", "iterations to target", "vs DeepSpeed"]);
    let ds_iters = runs[0].record.iterations_to_loss(target, TARGET_WINDOW);
    for run in runs {
        let it = run.record.iterations_to_loss(target, TARGET_WINDOW);
        let vs = match (it, ds_iters) {
            (Some(i), Some(d)) => format!("{:+.1}%", (i as f64 / d as f64 - 1.0) * 100.0),
            _ => "n/a".to_string(),
        };
        t2.row(vec![run.system.name().to_string(), iters_cell(it, iters), vs]);
    }
    println!("{}", t2.render());
    println!("Target loss used: {target:.3}.");
}

/// Figure 8: token survival per system, and the paper's "SYMI dropped X%
/// fewer tokens" comparisons. Asserts SYMI's mean survival is strictly
/// above every baseline's.
pub fn fig8_survival(out: &Path, runs: &[RunResult]) {
    let iters = runs[0].record.losses.len();
    write_series(out, "fig8_survival.csv", runs, |r, t| format!("{:.4}", r.survival[t]));

    println!("# Figure 8 — token survival per system ({iters} iterations)\n");
    let mut t = Table::new(&["system", "mean survival (%)", "total dropped (%)"]);
    for run in runs {
        t.row(vec![
            run.system.name().to_string(),
            format!("{:.2}", run.record.mean_survival() * 100.0),
            format!("{:.2}", (1.0 - run.record.mean_survival()) * 100.0),
        ]);
    }
    println!("{}", t.render());

    let symi = runs.iter().find(|r| r.system == SystemChoice::Symi).expect("symi run");
    let symi_survival = symi.record.mean_survival();
    let symi_drop = 1.0 - symi_survival;
    let mut t2 = Table::new(&["vs system", "SYMI drops fewer tokens by (%)", "paper"]);
    let paper = [69.0, 64.0, 62.0, 43.0];
    for (other, paper_pct) in runs.iter().filter(|r| r.system != SystemChoice::Symi).zip(paper) {
        let other_drop = 1.0 - other.record.mean_survival();
        let fewer = (1.0 - symi_drop / other_drop.max(1e-9)) * 100.0;
        t2.row(vec![
            other.system.name().to_string(),
            format!("{fewer:.1}"),
            format!("{paper_pct:.0}"),
        ]);
    }
    println!("{}", t2.render());
    for other in runs.iter().filter(|r| r.system != SystemChoice::Symi) {
        let survival = other.record.mean_survival();
        assert!(
            symi_survival > survival,
            "Figure 8: SYMI's mean survival {:.2}% is not above {}'s {:.2}%",
            symi_survival * 100.0,
            other.system.name(),
            survival * 100.0
        );
    }
}

/// Picks the experts whose popularity best matches the three archetypes:
/// shrinking, growing, spiky.
fn archetypes(record: &TrainRecord) -> (usize, usize, usize) {
    let trace = &record.popularity[0];
    let n = trace.len();
    let half = n / 2;
    let mut shrink = (0usize, f64::MAX);
    let mut grow = (0usize, f64::MIN);
    let mut spiky = (0usize, f64::MIN);
    for exp in 0..trace.expert_classes() {
        let series = trace.series(exp);
        let first: f64 = series[..half].iter().map(|&v| v as f64).sum::<f64>() / half as f64;
        let second: f64 = series[half..].iter().map(|&v| v as f64).sum::<f64>() / (n - half) as f64;
        let trend = second - first;
        if trend < shrink.1 {
            shrink = (exp, trend);
        }
        if trend > grow.1 {
            grow = (exp, trend);
        }
        let mean: f64 = series.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let var: f64 = series.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean.max(1.0);
        if cv > spiky.1 {
            spiky = (exp, cv);
        }
    }
    (shrink.0, grow.0, spiky.0)
}

/// Correlation between normalized popularity and replica count for one
/// expert over the run.
fn tracking_correlation(record: &TrainRecord, expert: usize) -> f64 {
    let trace = &record.popularity[0];
    let n = trace.len();
    let xs: Vec<f64> = (0..n).map(|t| trace.normalized(t)[expert]).collect();
    // Replicas were computed FROM iteration t for t+1, so align r[t] with
    // popularity at t.
    let ys: Vec<f64> = (0..n).map(|t| record.replicas[0][t][expert] as f64).collect();
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Figure 9: normalized popularity vs replication degree for the three
/// archetype experts, under DeepSpeed (flat) and SYMI (adaptive).
pub fn fig9_replication(out: &Path, ds: &RunResult, symi: &RunResult) {
    let picks = archetypes(&symi.record);
    let experts = [picks.0, picks.1, picks.2];
    for (label, run) in [("deepspeed", ds), ("symi", symi)] {
        let trace = &run.record.popularity[0];
        let rows: Vec<Vec<String>> = (0..trace.len())
            .map(|t| {
                let norm = trace.normalized(t);
                let reps = &run.record.replicas[0][t];
                std::iter::once(t.to_string())
                    .chain(
                        experts
                            .iter()
                            .flat_map(|&e| [format!("{:.4}", norm[e]), reps[e].to_string()]),
                    )
                    .collect()
            })
            .collect();
        let header = [
            "iteration",
            "shrink_pop",
            "shrink_replicas",
            "grow_pop",
            "grow_replicas",
            "spiky_pop",
            "spiky_replicas",
        ];
        write_csv(out, &format!("fig9_{label}.csv"), &header, &rows);
    }

    println!("# Figure 9 — popularity vs replication degree\n");
    println!(
        "Archetype experts (from the SYMI run): shrinking = expert {}, growing = expert {}, spiky = expert {}\n",
        picks.0, picks.1, picks.2
    );
    let mut t = Table::new(&["system", "corr(popularity, replicas) shrink", "grow", "spiky"]);
    for run in [ds, symi] {
        let mut cells = vec![run.system.name().to_string()];
        cells.extend(
            experts.iter().map(|&e| format!("{:.3}", tracking_correlation(&run.record, e))),
        );
        t.row(cells);
    }
    println!("{}", t.render());
    println!(
        "Paper's shape: DeepSpeed's replication is flat (correlation ~0, large\n\
         popularity-replication divergence); SYMI tracks popularity closely\n\
         under all three behaviours (correlation near 1)."
    );
}

/// Figure 10: popularity vs replication on the spikiest window of the SYMI
/// run — whether previous-iteration popularity is a good replica-count
/// proxy even through spikes.
pub fn fig10_zoom(out: &Path, run: &RunResult) {
    let trace = &run.record.popularity[0];
    let n = trace.len();
    let total_slots = run.record.replicas[0][0].iter().sum::<usize>();

    // The spikiest (expert, iteration): the largest one-step popularity
    // jump anywhere in the run.
    let mut best = (0usize, 0usize, 0.0f64);
    for exp in 0..trace.expert_classes() {
        for t in 1..n {
            let jump = (trace.normalized(t)[exp] - trace.normalized(t - 1)[exp]).abs();
            if jump > best.2 {
                best = (exp, t, jump);
            }
        }
    }
    let (exp, center, jump) = best;
    let lo = center.saturating_sub(10);
    let hi = (center + 10).min(n);

    println!("# Figure 10 — zoomed popularity vs replication (spiky expert)\n");
    println!(
        "Spikiest expert: {exp}, iteration {center} (popularity share jumped {:.1} pp)\n",
        jump * 100.0
    );

    let header = ["iteration", "popularity_share", "replica_share", "lag_error"];
    let mut table = Table::new(&header);
    let mut rows = Vec::new();
    let mut total_err = 0.0f64;
    for t in lo..hi {
        let pop = trace.normalized(t)[exp];
        let rep = run.record.replicas[0][t][exp] as f64 / total_slots as f64;
        // replicas[t] were derived FROM popularity[t] and serve t+1, so the
        // realized lag error compares them against popularity at t+1.
        let realized = if t + 1 < n { trace.normalized(t + 1)[exp] } else { pop };
        let err = (rep - realized).abs();
        total_err += err;
        let row =
            vec![t.to_string(), format!("{pop:.4}"), format!("{rep:.4}"), format!("{err:.4}")];
        table.row(row.clone());
        rows.push(row);
    }
    write_csv(out, "fig10_zoom.csv", &header, &rows);
    println!("{}", table.render());
    println!(
        "Mean |replica share − next-iteration popularity| over the window: {:.4}\n\
         (small values mean the previous-iteration proxy tracks even spikes).",
        total_err / (hi - lo) as f64
    );
}

/// Effective per-rank HBM budget for Figure 11's OOM check: A100-80GB minus
/// the framework reserve/fragmentation the paper's setup exhibits
/// (calibrated; see DESIGN.md and EXPERIMENTS.md).
const HBM_BUDGET_BYTES: f64 = 16.0e9;

/// Figure 11: average iteration latency across GPT-Small/Medium/Large for
/// every system, including FlexMoE's out-of-memory failure on GPT-Large
/// (its migration transiently co-locates current and future coupled
/// optimizer state in the slot, §5.3).
pub fn fig11_latency(out: &Path, runs: &[RunResult]) {
    println!("# Figure 11 — average iteration latency by model size\n");
    let models =
        [ModelCostConfig::gpt_small(), ModelCostConfig::gpt_medium(), ModelCostConfig::gpt_large()];
    let mut table = Table::new(&["system", "GPT-Small (s)", "GPT-Medium (s)", "GPT-Large (s)"]);
    let mut csv_rows = Vec::new();
    for run in runs {
        let mut cells = vec![run.system.name().to_string()];
        let mut csv = cells.clone();
        for model in models {
            let li = LatencyInputs::paper_eval(model, run.system);
            // OOM check: peak GPU bytes on any simulated iteration.
            let peak = (0..run.record.losses.len())
                .map(|t| li.iteration_breakdown(run, t).gpu_peak_bytes)
                .fold(0.0f64, f64::max);
            if peak > HBM_BUDGET_BYTES {
                cells.push("OOM".to_string());
                csv.push("OOM".to_string());
                continue;
            }
            let avg = average_iteration_latency(&li, run);
            cells.push(format!("{avg:.3}"));
            csv.push(format!("{avg:.4}"));
        }
        table.row(cells);
        csv_rows.push(csv);
    }
    write_csv(
        out,
        "fig11_latency.csv",
        &["system", "gpt_small_s", "gpt_medium_s", "gpt_large_s"],
        &csv_rows,
    );
    println!("{}", table.render());
    println!(
        "Paper's shape: SYMI is slightly faster than DeepSpeed (2.8/3.2/9.3% on\n\
         S/M/L); FlexMoE's average latency grows with rebalancing frequency and\n\
         FlexMoE goes OOM on GPT-Large."
    );
}

/// Figure 12: per-phase breakdown of one training iteration for every
/// system, from the phase times each run's telemetry measured. For FlexMoE
/// it breaks down the rebalancing iteration with the most placement churn
/// (the last one on a tie); for the others it averages the whole run.
pub fn fig12_breakdown(out: &Path, runs: &[RunResult]) {
    println!("# Figure 12 — measured per-phase iteration breakdown\n");
    let mut header = vec!["system".to_string(), "iter (ms)".to_string()];
    header.extend(PHASES.iter().map(|p| format!("{}%", p.name())));
    header.push("drop%".to_string());
    header.push("churn".to_string());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    let mut csv_rows = Vec::new();

    for run in runs {
        let rec = &run.record;
        let picked: Vec<usize> = if run.system.flexmoe_interval().is_some() {
            vec![(0..rec.losses.len()).max_by_key(|&t| rec.moved_replicas[t]).expect("non-empty")]
        } else {
            (0..rec.losses.len()).collect()
        };
        let count = picked.len() as f64;
        let mut shares = [0.0f64; PHASES.len()];
        for &t in &picked {
            let total: u64 = run.phase_ns[t].iter().sum();
            for (share, &ns) in shares.iter_mut().zip(&run.phase_ns[t]) {
                *share += if total == 0 { 0.0 } else { ns as f64 / total as f64 };
            }
        }
        let mean_ns =
            picked.iter().map(|&t| run.phase_ns[t].iter().sum::<u64>() as f64).sum::<f64>() / count;
        let mean_drop = picked.iter().map(|&t| 1.0 - rec.survival[t]).sum::<f64>() / count;
        let churn = picked.iter().map(|&t| rec.moved_replicas[t]).max().unwrap_or(0);

        let mut cells = vec![run.system.name().to_string(), format!("{:.3}", mean_ns / 1e6)];
        cells.extend(shares.iter().map(|s| format!("{:.2}", s / count * 100.0)));
        cells.push(format!("{:.2}", mean_drop * 100.0));
        cells.push(churn.to_string());
        table.row(cells.clone());
        csv_rows.push(cells);
    }
    write_csv(out, "fig12_breakdown.csv", &header_refs, &csv_rows);
    println!("{}", table.render());
    println!(
        "Measured shape: compute ({}) dominates every system and SYMI's new\n\
         {} phase stays well under 1% of the iteration. The FlexMoE rows\n\
         are max-churn (rebalancing) iterations; the churn column shows the\n\
         slot moves whose traffic cost the rebalance-traffic sweep prices.\n\
         (The distributed engines additionally time routing/dispatch/\n\
         combine/comm phases — see tests/telemetry_pipeline.rs.)",
        Phase::ExpertFfn.name(),
        Phase::Rebalance.name(),
    );
}

/// Table 3: total training time to the target loss — iterations to target
/// (measured from the convergence runs) × average iteration latency
/// (composed at GPT-Small scale from the same runs' traces).
pub fn table3_convergence_time(out: &Path, runs: &[RunResult]) {
    let iters = runs[0].record.losses.len();
    let target = target_loss(runs.iter().map(|r| &r.record));
    println!("# Table 3 — total training time to target loss (minutes)\n");
    let header =
        ["system", "iters to target", "avg iteration (s)", "time to target (min)", "vs DeepSpeed"];
    let mut table = Table::new(&header);
    let mut rows = Vec::new();
    let mut ds_minutes = None;
    for run in runs {
        let li = LatencyInputs::paper_eval(ModelCostConfig::gpt_small(), run.system);
        let avg = average_iteration_latency(&li, run);
        let its = run.record.iterations_to_loss(target, TARGET_WINDOW);
        let minutes = its.map(|n| n as f64 * avg / 60.0);
        if run.system == SystemChoice::DeepSpeed {
            ds_minutes = minutes;
        }
        let vs = match (minutes, ds_minutes) {
            (Some(m), Some(d)) => format!("{:+.1}%", (m / d - 1.0) * 100.0),
            _ => "n/a".to_string(),
        };
        let row = vec![
            run.system.name().to_string(),
            iters_cell(its, iters),
            format!("{avg:.3}"),
            minutes.map(|m| format!("{m:.2}")).unwrap_or_else(|| "n/a".to_string()),
            vs,
        ];
        table.row(row.clone());
        rows.push(row);
    }
    write_csv(
        out,
        "table3_convergence_time.csv",
        &["system", "iters_to_target", "avg_iter_s", "minutes", "vs_deepspeed"],
        &rows,
    );
    println!("{}", table.render());
    println!("Target loss used: {target:.3}.");
    println!(
        "\nPaper's shape (target loss 4.0, GPT-Small): DeepSpeed 147.8 min,\n\
         FlexMoE-100 145.4, FlexMoE-50 141.6, FlexMoE-10 138.6, SYMI 102.7\n\
         (SYMI 30.5% faster than DeepSpeed, 25.9% faster than FlexMoE-10)."
    );
}

/// Placement-policy ablation (§3.4 / §6): replays the SYMI run's measured
/// popularity trace under different replica policies and scores token
/// survival against the unattainable same-iteration oracle.
pub fn ablation_policy(out: &Path, run: &RunResult) {
    let cfg = ModelConfig::small_sim();
    let trace = &run.record.popularity[0];
    let slot_capacity = cfg.slot_capacity() as f64;
    let survival = |policy| evaluate_policy_on_trace(trace, policy, cfg.total_slots, slot_capacity);

    println!("# Policy ablation — mean token survival on the measured trace\n");
    let policies = [
        TracePolicy::Static,
        TracePolicy::PrevIteration,
        TracePolicy::EmaPercent(30),
        TracePolicy::EmaPercent(70),
        TracePolicy::WindowMax(3),
        TracePolicy::WindowMax(10),
        TracePolicy::Oracle,
    ];
    let mut table = Table::new(&["policy", "mean survival (%)", "gap to oracle (pp)"]);
    let oracle = survival(TracePolicy::Oracle);
    let mut rows = Vec::new();
    for policy in policies {
        let s = survival(policy);
        let row = vec![
            policy.label(),
            format!("{:.2}", s * 100.0),
            format!("{:.2}", (oracle - s) * 100.0),
        ];
        table.row(row.clone());
        rows.push(row);
    }
    write_csv(out, "ablation_policy.csv", &["policy", "survival_pct", "oracle_gap_pp"], &rows);
    println!("{}", table.render());
    println!(
        "The paper's takeaway (§3.4): previous-iteration popularity is already\n\
         a reliable proxy — the gap to the same-iteration oracle is small, and\n\
         fancier estimators buy little. Static replication leaves the most on\n\
         the table."
    );
}
