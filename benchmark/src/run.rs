//! One workload run: the repetitions, the estimator over them, the
//! correctness checks, and the printed result.

use symi_telemetry::json::Obj;
use symi_telemetry::{Phase, Value};
use symi_tensor::kernels::simd_path_name;

use crate::inputs::RANKS;
use crate::layers::{self, UNATTRIBUTED_WARN};
use crate::procfs;
use crate::spec::{Metric, Spec};
use crate::stats::{self, best_of, median, percentile, Estimate};
use crate::workloads::{Kind, Rep, System, Workload, REPS, WARMUP_STEPS};

/// What a run found, ready to print.
pub struct Outcome {
    /// One estimate per metric of the mode's list in `BENCHMARK.json`, in
    /// its order.
    pub metrics: Vec<(Metric, Estimate)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// A best-of-repetitions timing whose typical repetition sat further
    /// from the best one than the metric's bound: the run cannot stand
    /// behind it. (`setup_s` reports its median repetition, so its distance
    /// to the best one says nothing about it.)
    pub fn unresolved(m: &Metric, e: &Estimate) -> bool {
        !m.is_exact() && !m.reports_median() && m.bound.is_some_and(|b| e.rep_spread > b)
    }

    /// The result line the driver reads; `None` when a metric has no value
    /// (the loss never reached its target), which a failed check explains.
    pub fn result_line(&self) -> Option<String> {
        let mut metrics = Obj::new();
        for (m, e) in &self.metrics {
            if !e.best.is_finite() {
                return None;
            }
            let mut entry = Obj::new();
            entry.set("value", Value::Num(e.best));
            entry.set("unit", Value::Str(m.unit.clone()));
            metrics.set(&m.name, Value::Obj(entry));
        }
        let mut line = Obj::new();
        line.set("correct", Value::Bool(self.correct()));
        line.set("attempted", Value::u64(self.attempted));
        line.set("failed", Value::u64(self.failed));
        line.set("metrics", Value::Obj(metrics));
        Some(Value::Obj(line).to_string())
    }

    /// Diagnostics beside the result line, for `--selftest`: which metrics
    /// the run could not resolve.
    pub fn unresolved_names(&self) -> Vec<&str> {
        self.metrics
            .iter()
            .filter(|(m, e)| Self::unresolved(m, e))
            .map(|(m, _)| m.name.as_str())
            .collect()
    }
}

/// The values one repetition contributes to the end-to-end metrics, or
/// `None` where its loss curve never reached the target.
fn rep_value(name: &str, w: &Workload, rep: &Rep) -> Option<f64> {
    let steps = rep.steps() as f64;
    let losses = rep.losses();
    Some(match name {
        "setup_s" => rep.window.setup_s,
        "tokens_per_s" => w.tokens_per_step() as f64 * steps / rep.window_s(),
        "step_ms_p50" => median(&rep.step_ms()),
        "cpu_ms_per_step" => rep.window.cpu_s * 1e3 / steps,
        "steps_to_target" => stats::steps_to_target(&losses, w.rho)? as f64,
        "time_to_target_s" => rep.window.spans[stats::steps_to_target(&losses, w.rho)? - 1].1,
        "token_survival" => {
            let survived: usize = rep.outs.iter().map(|o| o.survived).sum();
            let routed: usize = rep.outs.iter().map(|o| o.survived + o.dropped).sum();
            survived as f64 / routed as f64
        }
        "final_loss" => stats::final_loss(&losses),
        other => panic!("no end-to-end metric named {other}"),
    })
}

fn checks(w: &Workload, reps: &[Rep]) -> Vec<(String, bool)> {
    let all = |f: &dyn Fn(&Rep) -> bool| reps.iter().all(f);
    let routed = w.routed_per_step();
    let mut checks = vec![
        (
            "every loss finite, no degraded step".to_string(),
            all(&|r| r.outs.iter().all(|o| !o.failed())),
        ),
        (
            format!("survived + dropped = routed ({routed}) every step"),
            all(&|r| r.outs.iter().all(|o| o.survived + o.dropped == routed)),
        ),
        ("every rank returned identical step statistics".to_string(), all(&|r| r.ranks_agree)),
        (
            format!("the {} repetitions' loss curves and statistics are bit-identical", reps.len()),
            all(&|r| r.outs == reps[0].outs),
        ),
        (
            format!("loss reached {} x its initial 8-step mean", w.rho),
            all(&|r| stats::steps_to_target(&r.losses(), w.rho).is_some()),
        ),
    ];
    if let Kind::Engine(System::Symi, g) = w.kind {
        // §3.3-II: scattering every slot's fp16 weights once is sN·W·2 bytes;
        // SYMI materialises any new placement within that, and local or
        // sibling-shared deliveries only take away from it.
        let identity = (g.slots_per_rank * RANKS * g.expert_params() * 2) as u64;
        let within =
            |r: &Rep| layers::wire_bytes(r, Phase::WeightComm) <= identity * r.steps() as u64;
        checks.push((format!("weight_comm bytes/step <= sN*W fp16 = {identity}"), all(&within)));
    }
    checks
}

fn failed_steps(reps: &[Rep]) -> (u64, u64) {
    let attempted = reps.iter().map(|r| r.outs.len() as u64).sum();
    let failed = reps.iter().flat_map(|r| &r.outs).filter(|o| o.failed()).count() as u64;
    (attempted, failed)
}

/// `--trace 0`: `REPS` repetitions, every end-to-end metric.
pub fn end_to_end(w: &Workload, spec: &Spec, seed: u64, steps: usize) -> (Outcome, Vec<Rep>) {
    let reps: Vec<Rep> = (0..REPS).map(|_| w.run_rep(seed, steps, false)).collect();
    let peak_rss_mib = procfs::peak_rss_mib();
    let mut checks = checks(w, &reps);
    let metrics = spec
        .end_to_end
        .iter()
        .map(|m| {
            let estimate = if m.name == "peak_rss_mib" {
                Estimate { best: peak_rss_mib, median: peak_rss_mib, rep_spread: 0.0 }
            } else {
                // A repetition that missed the target has no value for the
                // target metrics; the check above already failed the run.
                let values: Vec<f64> =
                    reps.iter().filter_map(|r| rep_value(&m.name, w, r)).collect();
                if values.is_empty() {
                    Estimate { best: f64::NAN, median: f64::NAN, rep_spread: 0.0 }
                } else if m.reports_median() {
                    // Set-up runs cold once and warm four times; its median
                    // repetition is the steady figure a regression moves.
                    let mid = median(&values);
                    Estimate { best: mid, ..best_of(&values, m.better) }
                } else {
                    best_of(&values, m.better)
                }
            };
            if m.is_exact() {
                checks.push((
                    format!("{} identical in every repetition", m.name),
                    estimate.rep_spread == 0.0,
                ));
            }
            (m.clone(), estimate)
        })
        .collect();
    let (attempted, failed) = failed_steps(&reps);
    checks.push((format!("no failed step ({failed} of {attempted})"), failed == 0));
    (Outcome { metrics, attempted, failed, checks }, reps)
}

/// `--trace 1`: one untraced and one traced repetition, every per-layer
/// metric. Also returns the names of the metrics this workload produced; the
/// rest belong to layers it does not run and are 0 in the result line.
pub fn per_layer(w: &Workload, spec: &Spec, seed: u64, steps: usize) -> (Outcome, Vec<String>) {
    let reps = [w.run_rep(seed, steps, false), w.run_rep(seed, steps, true)];
    let values = layers::per_layer(w, &reps[0], &reps[1]);
    for (name, _) in &values {
        assert!(spec.per_layer.iter().any(|m| &m.name == name), "{name} not in BENCHMARK.json");
    }
    let metrics = spec
        .per_layer
        .iter()
        .map(|m| {
            let v = values.iter().find(|(name, _)| name == &m.name).map_or(0.0, |(_, v)| *v);
            (m.clone(), Estimate { best: v, median: v, rep_spread: 0.0 })
        })
        .collect();
    let (attempted, failed) = failed_steps(&reps);
    let mut checks = checks(w, &reps);
    checks.push((format!("no failed step ({failed} of {attempted})"), failed == 0));
    let produced = values.into_iter().map(|(name, _)| name).collect();
    (Outcome { metrics, attempted, failed, checks }, produced)
}

/// The configuration every printed number carries.
pub fn print_header(
    w: &Workload,
    pool_threads: usize,
    seed: u64,
    seconds: u64,
    traced: bool,
    steps: usize,
) {
    let overlap = std::env::var("SYMI_OVERLAP").unwrap_or_else(|_| "off".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("workload {}  seed {seed}  seconds {seconds}  trace {}", w.name, u8::from(traced));
    println!(
        "config: ranks {}  pool_threads {pool_threads}  simd_path {}  overlap {overlap}  nproc {nproc}",
        w.ranks(),
        simd_path_name(),
    );
    println!(
        "shape: {} repetitions x ({WARMUP_STEPS} warm-up + {steps} timed steps), closed loop, {} tokens/step",
        if traced { 2 } else { REPS },
        w.tokens_per_step(),
    );
}

pub fn print_end_to_end(outcome: &Outcome, reps: &[Rep]) {
    println!(
        "{:<18} {:<9} {:>14} {:>14} {:>10} {:>6}  samples",
        "metric", "unit", "value", "median_rep", "rep_spread", "bound"
    );
    let steps = reps[0].steps();
    for (m, e) in &outcome.metrics {
        let value = if Outcome::unresolved(m, e) {
            "unresolved".to_string()
        } else {
            format!("{:.6}", e.best)
        };
        let samples = match m.name.as_str() {
            "peak_rss_mib" => "1 per run".to_string(),
            "step_ms_p50" => format!("{steps} steps x {} reps", reps.len()),
            _ => format!("{} reps", reps.len()),
        };
        println!(
            "{:<18} {:<9} {:>14} {:>14.6} {:>9.2}% {:>5.0}%  {samples}",
            m.name,
            m.unit,
            value,
            e.median,
            e.rep_spread * 1e2,
            m.bound.unwrap_or(0.0) * 1e2,
        );
    }
    println!(
        "{:<18} {:<9} {:>14.6}  ({} of {} timed steps)",
        "failed_step_share",
        "ratio",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    // The slow tail does not repeat within a tenth on a shared VM, so it is
    // a diagnostic here and a per-layer metric of the traced run.
    let pooled: Vec<f64> = reps.iter().flat_map(Rep::step_ms).collect();
    println!(
        "{:<18} {:<9} {:>14.6}  ({} pooled steps)",
        "run.step_ms_p98",
        "ms",
        percentile(&pooled, 98.0),
        pooled.len()
    );
}

pub fn print_per_layer(outcome: &Outcome, produced: &[String]) {
    println!("{:<38} {:<9} {:>16}", "metric", "unit", "value");
    for (m, e) in outcome.metrics.iter().filter(|(m, _)| produced.contains(&m.name)) {
        println!("{:<38} {:<9} {:>16.6}", m.name, m.unit, e.best);
    }
    for (m, e) in &outcome.metrics {
        if m.name.ends_with("unattributed_share") && e.best > UNATTRIBUTED_WARN {
            println!(
                "warning: {} = {:.1}% of the step is outside every phase span (> {:.0}%)",
                m.name,
                e.best * 1e2,
                UNATTRIBUTED_WARN * 1e2
            );
        }
    }
}

pub fn print_checks(outcome: &Outcome) {
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
}
