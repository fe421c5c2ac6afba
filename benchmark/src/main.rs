//! The repository's benchmark: four training workloads sized for two
//! cores, five repetitions each with the most favourable one reported, and
//! a traced run that splits a step by layer. See `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! symi-benchmark                                   all four workloads, end to end
//! symi-benchmark --trace 1                         all four, per-layer split
//! symi-benchmark --workload engine_tokens          one workload
//! symi-benchmark --selftest                        two full sets, compared against the bounds
//! options: --seed <n> (default 1)  --seconds <s> (default run_seconds)
//! ```

mod alloc;
mod direct;
mod inputs;
mod layers;
mod procfs;
mod run;
mod spec;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use symi_telemetry::Value;
use symi_tensor::pool;

use spec::Spec;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed the step counts and loss targets were calibrated with.
const DEFAULT_SEED: u64 = 1;
/// A single-workload run that is still going after this long is hung (a
/// rank waiting on a message that will never come): stop it with a failing
/// status inside the driver's 180 s limit.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Prefix of the diagnostic line `--selftest` reads beside the result line.
const UNRESOLVED_PREFIX: &str = "unresolved:";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    selftest: bool,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        traced: false,
        selftest: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?).filter(|w| w != "all"),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", args.seconds));
    }
    Ok(args)
}

fn run_workload(w: &Workload, spec: &Spec, args: &Args) -> ExitCode {
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("watchdog: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let steps = w.steps_for(args.seconds);
    if steps < 2 * stats::LOSS_WINDOW {
        eprintln!("--seconds {} leaves {steps} timed steps; too few to measure", args.seconds);
        return ExitCode::from(2);
    }
    // One pool participant. For the engines the ranks are the parallelism:
    // a second participant per rank would make four runnable threads on two
    // cores. For `trainer_lm` a second participant makes the step time
    // bistable on a 2-vCPU guest — 42 or 65 ms depending on how dearly the
    // host sells a cross-vCPU wake-up that minute — which no estimator
    // repairs; one thread measures the model's own work.
    pool::set_threads(1);
    let pool_threads = pool::current_threads();
    run::print_header(w, pool_threads, args.seed, args.seconds, args.traced, steps);
    let outcome = if args.traced {
        let (outcome, produced) = run::per_layer(w, spec, args.seed, steps);
        run::print_per_layer(&outcome, &produced);
        outcome
    } else {
        let (outcome, reps) = run::end_to_end(w, spec, args.seed, steps);
        run::print_end_to_end(&outcome, &reps);
        outcome
    };
    run::print_checks(&outcome);
    println!("{UNRESOLVED_PREFIX} {}", outcome.unresolved_names().join(" "));
    let Some(line) = outcome.result_line() else {
        println!("no result: a metric has no value");
        return ExitCode::FAILURE;
    };
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run of one workload printed, parsed back.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
    unresolved: Vec<String>,
}

/// Runs one workload in a process of its own (its peak memory and its pool
/// configuration are per process), echoing what it prints.
fn spawn_workload(name: &str, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().ok_or_else(|| format!("{name}: printed nothing"))?;
    let line = Value::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    let metrics = line.get("metrics").as_obj().ok_or_else(|| format!("{name}: no metrics"))?;
    Ok(ChildResult {
        correct: output.status.success() && line.get("correct").as_bool() == Some(true),
        metrics: metrics
            .keys()
            .filter_map(|k| Some((k.clone(), metrics.get(k)?.get("value").as_f64()?)))
            .collect(),
        unresolved: stdout
            .lines()
            .find_map(|l| l.strip_prefix(UNRESOLVED_PREFIX))
            .map(|names| names.split_whitespace().map(String::from).collect())
            .unwrap_or_default(),
    })
}

fn run_set(spec: &Spec, args: &Args) -> Result<Vec<(String, ChildResult)>, String> {
    spec.workloads
        .iter()
        .map(|name| {
            println!();
            Ok((name.clone(), spawn_workload(name, args)?))
        })
        .collect()
}

fn value_of(set: &[(String, ChildResult)], workload: &str, metric: &str) -> Option<f64> {
    let (_, result) = set.iter().find(|(name, _)| name == workload)?;
    result.metrics.iter().find(|(name, _)| name == metric).map(|(_, v)| *v)
}

fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let set = run_set(spec, args)?;
    if !args.traced {
        // The paper's ordering (Fig 8, Fig 11, Table 3), reported and not
        // gated: same geometry, inputs and targets, decoupled vs coupled.
        println!("\nengine_params vs deepspeed_params (reported, not gated)");
        for metric in ["token_survival", "final_loss", "steps_to_target", "step_ms_p50"] {
            let of = |w| value_of(&set, w, metric).map_or("-".into(), |v| format!("{v:.6}"));
            println!("{metric:<18} {:>14} {:>14}", of("engine_params"), of("deepspeed_params"));
        }
    }
    Ok(set.iter().all(|(_, r)| r.correct))
}

/// Two full sets of the same code on the same seed: every end-to-end metric
/// must agree within its bound, every exact one exactly.
fn selftest(spec: &Spec, args: &Args) -> Result<bool, String> {
    let args = Args {
        workload: None,
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        selftest: false,
    };
    println!("selftest: set 1 of 2");
    let first = run_set(spec, &args)?;
    println!("\nselftest: set 2 of 2");
    let second = run_set(spec, &args)?;

    println!("\nselftest: second set against the first, seed {}", args.seed);
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "set_1", "set_2", "worse_by", "bound"
    );
    let mut pass = true;
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        pass &= a.correct && b.correct;
        for m in &spec.end_to_end {
            let get = |set| value_of(set, name, &m.name).ok_or(format!("{name}: no {}", m.name));
            let (va, vb) = (get(&first)?, get(&second)?);
            let bound = m.bound.expect("end-to-end bound");
            // Either order of the two sets must hold, so take the larger gap.
            let gap = stats::worsening(m.better, va, vb).max(stats::worsening(m.better, vb, va));
            let unresolved = [a, b].iter().any(|r| r.unresolved.contains(&m.name));
            let verdict = if unresolved {
                "UNRESOLVED"
            } else if m.is_exact() && va != vb {
                "DIFFERS (exact)"
            } else if gap > bound {
                "OUTSIDE BOUND"
            } else {
                "ok"
            };
            pass &= verdict == "ok";
            println!(
                "{name:<18} {:<18} {va:>14.6} {vb:>14.6} {:>8.2}% {:>5.0}%  {verdict}",
                m.name,
                gap * 1e2,
                bound * 1e2
            );
        }
    }
    println!("selftest: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn main() -> ExitCode {
    let spec = spec::load();
    let args = match parse_args(&spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace 0|1] [--selftest]");
            return ExitCode::from(2);
        }
    };
    let verdict = match &args.workload {
        _ if args.selftest => selftest(&spec, &args),
        None => run_all(&spec, &args),
        Some(name) => match Workload::by_name(name) {
            Some(w) => return run_workload(w, &spec, &args),
            None => Err(format!("no workload {name:?}; there are {}", spec.workloads.join(", "))),
        },
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
