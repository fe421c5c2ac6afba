//! Training-run management: one convergence run per system, cached on disk
//! so the seven figure/table binaries that share the same five runs don't
//! retrain.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use symi::SymiPolicy;
use symi_baselines::FlexMoePolicy;
use symi_model::{ModelConfig, PlacementPolicy, Trainer, UniformPolicy};
use symi_telemetry::{ClusterTelemetry, IterationReport, JsonlSink, RingBufferSink};
use symi_workload::{CorpusConfig, DriftingCorpus, PopularityTrace};

/// The five systems of §5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemChoice {
    DeepSpeed,
    FlexMoe100,
    FlexMoe50,
    FlexMoe10,
    Symi,
}

impl SystemChoice {
    pub const ALL: [SystemChoice; 5] = [
        SystemChoice::DeepSpeed,
        SystemChoice::FlexMoe100,
        SystemChoice::FlexMoe50,
        SystemChoice::FlexMoe10,
        SystemChoice::Symi,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            SystemChoice::DeepSpeed => "DeepSpeed",
            SystemChoice::FlexMoe100 => "FlexMoE-100",
            SystemChoice::FlexMoe50 => "FlexMoE-50",
            SystemChoice::FlexMoe10 => "FlexMoE-10",
            SystemChoice::Symi => "SYMI",
        }
    }

    /// FlexMoE rebalancing interval, if this is a FlexMoE variant.
    pub fn flexmoe_interval(&self) -> Option<u64> {
        match self {
            SystemChoice::FlexMoe100 => Some(100),
            SystemChoice::FlexMoe50 => Some(50),
            SystemChoice::FlexMoe10 => Some(10),
            _ => None,
        }
    }

    pub fn policy(&self, cfg: &ModelConfig) -> Box<dyn PlacementPolicy> {
        match self {
            SystemChoice::DeepSpeed => {
                Box::new(UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots })
            }
            SystemChoice::Symi => Box::new(SymiPolicy { total_slots: cfg.total_slots }),
            flex => Box::new(FlexMoePolicy::new(
                cfg.total_slots,
                flex.flexmoe_interval().expect("flexmoe variant"),
            )),
        }
    }
}

/// A serializable training-run result (mirror of `TrainRecord` plus the
/// config fingerprint used for cache validation).
#[derive(Clone, Debug)]
pub struct RunResult {
    pub system: String,
    pub iterations: usize,
    pub seed: u64,
    pub losses: Vec<f32>,
    pub survival: Vec<f64>,
    /// Per layer: popularity trace.
    pub popularity: Vec<PopularityTrace>,
    /// Per layer, per iteration: replica counts.
    pub replicas: Vec<Vec<Vec<usize>>>,
    /// Per iteration: replica moves summed over layers.
    pub moved_replicas: Vec<usize>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        use symi_telemetry::json::{Obj, Value};
        let mut o = Obj::new();
        o.set("system", Value::str(&self.system));
        o.set("iterations", Value::u64(self.iterations as u64));
        o.set("seed", Value::u64(self.seed));
        o.set("losses", Value::Arr(self.losses.iter().map(|&l| Value::Num(l as f64)).collect()));
        o.set("survival", Value::arr_f64(&self.survival));
        o.set(
            "popularity",
            Value::Arr(self.popularity.iter().map(|t| t.to_json_value()).collect()),
        );
        o.set(
            "replicas",
            Value::Arr(
                self.replicas
                    .iter()
                    .map(|layer| {
                        Value::Arr(
                            layer
                                .iter()
                                .map(|iter| {
                                    Value::Arr(iter.iter().map(|&r| Value::u64(r as u64)).collect())
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        );
        o.set(
            "moved_replicas",
            Value::Arr(self.moved_replicas.iter().map(|&m| Value::u64(m as u64)).collect()),
        );
        Value::Obj(o).to_string()
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        use symi_telemetry::Value;
        let v = Value::parse(s)?;
        let system = v.get("system").as_str().ok_or("missing system")?.to_string();
        let popularity = v
            .get("popularity")
            .as_arr()
            .ok_or("missing popularity")?
            .iter()
            .map(PopularityTrace::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        let replicas = v
            .get("replicas")
            .as_arr()
            .ok_or("missing replicas")?
            .iter()
            .map(|layer| {
                layer
                    .as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .map(|iter| iter.u64_vec().into_iter().map(|r| r as usize).collect())
                    .collect()
            })
            .collect();
        Ok(RunResult {
            system,
            iterations: v.get("iterations").as_usize().ok_or("missing iterations")?,
            seed: v.get("seed").as_u64().ok_or("missing seed")?,
            losses: v.get("losses").f64_vec().into_iter().map(|l| l as f32).collect(),
            survival: v.get("survival").f64_vec(),
            popularity,
            replicas,
            moved_replicas: v
                .get("moved_replicas")
                .u64_vec()
                .into_iter()
                .map(|m| m as usize)
                .collect(),
        })
    }

    /// First iteration whose `window`-smoothed loss reaches `target`.
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

    pub fn mean_survival(&self) -> f64 {
        if self.survival.is_empty() {
            return 1.0;
        }
        self.survival.iter().sum::<f64>() / self.survival.len() as f64
    }
}

/// The corpus every convergence experiment shares.
pub fn experiment_corpus(cfg: &ModelConfig) -> DriftingCorpus {
    DriftingCorpus::new(CorpusConfig {
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        batch_size: cfg.batch_size,
        topics: 8,
        coherence: 0.85,
        topic_zipf: 1.1,
        drift_sigma: 0.15,
        jolt_prob: 0.02,
        seed: 0x5e_ed,
    })
}

/// Trains `system` for `iterations` on the shared corpus and model config.
pub fn run_system(system: SystemChoice, cfg: ModelConfig, iterations: usize) -> RunResult {
    let mut corpus = experiment_corpus(&cfg);
    let mut trainer = Trainer::new(cfg, system.policy(&cfg));
    trainer.train(&mut corpus, iterations);
    let rec = trainer.record;
    RunResult {
        system: system.name().to_string(),
        iterations,
        seed: cfg.seed,
        losses: rec.losses,
        survival: rec.survival,
        popularity: rec.popularity,
        replicas: rec.replicas,
        moved_replicas: rec.moved_replicas,
    }
}

/// Trains `system` with telemetry enabled, emitting one `IterationReport`
/// per step. Reports go to an in-memory ring (returned) and, when
/// `jsonl_path` is given, to a JSONL file `symi-top` can tail. The figure
/// binaries that reconstruct phase shares / drop rates / churn consume
/// these reports instead of re-deriving them from `TrainRecord`.
pub(crate) fn run_system_with_telemetry(
    system: SystemChoice,
    cfg: ModelConfig,
    iterations: usize,
    jsonl_path: Option<&Path>,
) -> Vec<IterationReport> {
    let mut corpus = experiment_corpus(&cfg);
    let mut trainer = Trainer::new(cfg, system.policy(&cfg));
    let telemetry = ClusterTelemetry::new(1);
    let ring = Arc::new(RingBufferSink::new(iterations.max(1)));
    telemetry.add_sink(ring.clone());
    if let Some(path) = jsonl_path {
        let sink = JsonlSink::create(path).expect("telemetry jsonl must be creatable");
        telemetry.add_sink(Arc::new(sink));
    }
    trainer.attach_telemetry(telemetry.clone());
    trainer.train(&mut corpus, iterations);
    telemetry.flush();
    ring.contents()
}

/// Canonical JSONL location for one system's telemetry run.
pub(crate) fn telemetry_jsonl_path(dir: &Path, system: SystemChoice) -> PathBuf {
    dir.join(format!("telemetry_{}.jsonl", system.name().to_lowercase().replace('-', "_")))
}

/// Parses back a telemetry JSONL file written by
/// [`run_system_with_telemetry`] (or any `JsonlSink`).
pub(crate) fn read_telemetry_jsonl(path: &Path) -> Result<Vec<IterationReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    text.lines().filter(|l| !l.trim().is_empty()).map(IterationReport::parse_jsonl).collect()
}

/// Cached variant: reuses `telemetry_<system>.jsonl` in `dir` when it holds
/// exactly `iterations` reports for the right geometry (the JSONL itself is
/// the cache — there is no second serialization format).
pub fn load_or_run_telemetry(
    dir: &Path,
    system: SystemChoice,
    cfg: ModelConfig,
    iterations: usize,
) -> Vec<IterationReport> {
    std::fs::create_dir_all(dir).expect("results dir must be creatable");
    let path = telemetry_jsonl_path(dir, system);
    if let Ok(reports) = read_telemetry_jsonl(&path) {
        if reports.len() == iterations && reports.iter().all(|r| r.popularity.len() == cfg.experts)
        {
            eprintln!("[cache] telemetry {} from {}", system.name(), path.display());
            return reports;
        }
    }
    eprintln!("[train] {} for {iterations} iterations (telemetry on)…", system.name());
    run_system_with_telemetry(system, cfg, iterations, Some(&path))
}

fn cache_path(dir: &Path, system: SystemChoice, cfg: &ModelConfig, iterations: usize) -> PathBuf {
    // The key carries everything that changes the run: geometry, capacity,
    // horizon, and seed — so e.g. Figure 2's 32-expert runs never collide
    // with Figure 7's 16-expert runs.
    dir.join(format!(
        "run_{}_e{}k{}cf{}_{iterations}_{}.json",
        system.name().to_lowercase().replace('-', "_"),
        cfg.experts,
        cfg.top_k,
        (cfg.capacity_factor * 100.0).round() as u32,
        cfg.seed
    ))
}

/// Loads a cached run if present (same system/iterations/seed), otherwise
/// trains and caches.
pub fn load_or_run(
    dir: &Path,
    system: SystemChoice,
    cfg: ModelConfig,
    iterations: usize,
) -> RunResult {
    std::fs::create_dir_all(dir).expect("results dir must be creatable");
    let path = cache_path(dir, system, &cfg, iterations);
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(run) = RunResult::from_json(&text) {
            if run.iterations == iterations && run.seed == cfg.seed {
                eprintln!("[cache] {} from {}", system.name(), path.display());
                return run;
            }
        }
    }
    eprintln!("[train] {} for {iterations} iterations…", system.name());
    let run = run_system(system, cfg, iterations);
    std::fs::write(&path, run.to_json()).expect("cache write");
    run
}

/// Runs all five systems (in parallel threads) with caching.
pub fn load_or_run_all(dir: &Path, cfg: ModelConfig, iterations: usize) -> Vec<RunResult> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = SystemChoice::ALL
            .iter()
            .map(|&system| scope.spawn(move || load_or_run(dir, system, cfg, iterations)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("run thread")).collect()
    })
}

/// Standard CLI: `--iters N` and `--out DIR` (defaults: 400, ./results).
pub fn cli_args() -> (usize, PathBuf) {
    let mut iters = 400usize;
    let mut out = PathBuf::from("results");
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--iters needs a number"));
                i += 2;
            }
            "--out" => {
                out = PathBuf::from(args.get(i + 1).expect("--out needs a path"));
                i += 2;
            }
            other => panic!("unknown argument {other} (supported: --iters N, --out DIR)"),
        }
    }
    (iters, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_match_systems() {
        let cfg = ModelConfig::tiny();
        assert_eq!(SystemChoice::Symi.policy(&cfg).name(), "symi");
        assert_eq!(SystemChoice::DeepSpeed.policy(&cfg).name(), "deepspeed-static");
        assert_eq!(SystemChoice::FlexMoe50.policy(&cfg).name(), "flexmoe");
        assert_eq!(SystemChoice::FlexMoe50.flexmoe_interval(), Some(50));
        assert_eq!(SystemChoice::Symi.flexmoe_interval(), None);
    }

    #[test]
    fn run_system_produces_complete_record() {
        let cfg = ModelConfig::tiny();
        let run = run_system(SystemChoice::Symi, cfg, 4);
        assert_eq!(run.losses.len(), 4);
        assert_eq!(run.survival.len(), 4);
        assert_eq!(run.replicas[0].len(), 4);
        assert_eq!(run.popularity.len(), cfg.layers);
    }

    #[test]
    fn telemetry_run_emits_complete_reports() {
        let cfg = ModelConfig::tiny();
        let dir = std::env::temp_dir().join(format!("symi_tele_run_{}", std::process::id()));
        let path = telemetry_jsonl_path(&dir, SystemChoice::Symi);
        let reports = run_system_with_telemetry(SystemChoice::Symi, cfg, 3, Some(&path));
        assert_eq!(reports.len(), 3);
        let r = &reports[2];
        assert_eq!(r.system, "symi");
        assert_eq!(r.popularity.len(), cfg.experts);
        assert!(r.iteration_ns() > 0, "phase spans must have been recorded");
        // The JSONL on disk round-trips to the same reports.
        let back = read_telemetry_jsonl(&path).unwrap();
        assert_eq!(back, reports);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_round_trip() {
        let dir = std::env::temp_dir().join(format!("symi_bench_test_{}", std::process::id()));
        let cfg = ModelConfig::tiny();
        let first = load_or_run(&dir, SystemChoice::DeepSpeed, cfg, 3);
        let second = load_or_run(&dir, SystemChoice::DeepSpeed, cfg, 3);
        assert_eq!(first.losses, second.losses, "second call must hit the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
