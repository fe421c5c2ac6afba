//! Training-run management: every run the artifacts read, trained once with
//! telemetry attached and cached on disk, so a second `repro` into the same
//! directory trains nothing.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use symi::{FlexMoePolicy, SymiPolicy};
use symi_model::{ModelConfig, PlacementPolicy, TrainRecord, Trainer, UniformPolicy};
use symi_telemetry::json::{Obj, Value};
use symi_telemetry::{ClusterTelemetry, JsonlSink, RingBufferSink, NUM_PHASES};
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

/// One training run: the trainer's record plus the per-iteration phase
/// times its telemetry measured. This is everything any artifact reads,
/// and exactly what the run cache holds.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub system: SystemChoice,
    pub record: TrainRecord,
    /// Per iteration: nanoseconds per telemetry phase, in `PHASES` order
    /// (the trainer is one rank, so this is also the critical path).
    pub phase_ns: Vec<[u64; NUM_PHASES]>,
}

fn u64_arr(values: impl IntoIterator<Item = u64>) -> Value {
    Value::Arr(values.into_iter().map(Value::u64).collect())
}

impl RunResult {
    fn to_json(&self) -> String {
        let r = &self.record;
        let replicas = r.replicas.iter().map(|layer| {
            Value::Arr(layer.iter().map(|it| u64_arr(it.iter().map(|&c| c as u64))).collect())
        });
        let mut o = Obj::new();
        o.set("losses", Value::Arr(r.losses.iter().map(|&l| Value::Num(l as f64)).collect()));
        o.set("survival", Value::arr_f64(&r.survival));
        o.set("popularity", Value::Arr(r.popularity.iter().map(|t| t.to_json_value()).collect()));
        o.set("replicas", Value::Arr(replicas.collect()));
        o.set("moved_replicas", u64_arr(r.moved_replicas.iter().map(|&m| m as u64)));
        o.set("phase_ns", Value::Arr(self.phase_ns.iter().map(|ns| u64_arr(*ns)).collect()));
        Value::Obj(o).to_string()
    }

    /// Parses a cached run, rejecting one that is not `iterations` long in
    /// every per-iteration field.
    fn from_json(system: SystemChoice, s: &str, iterations: usize) -> Result<Self, String> {
        let v = Value::parse(s)?;
        let arr = |key: &str| v.get(key).as_arr().ok_or(format!("missing {key}"));
        let popularity = arr("popularity")?
            .iter()
            .map(PopularityTrace::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        let replicas = arr("replicas")?
            .iter()
            .map(|layer| {
                let iters = layer.as_arr().unwrap_or(&[]);
                iters
                    .iter()
                    .map(|it| it.u64_vec().into_iter().map(|c| c as usize).collect())
                    .collect()
            })
            .collect();
        let phase_ns = arr("phase_ns")?
            .iter()
            .map(|ns| <[u64; NUM_PHASES]>::try_from(ns.u64_vec()).map_err(|_| "phase_ns row"))
            .collect::<Result<Vec<_>, _>>()?;
        let record = TrainRecord {
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
        };
        let complete = [
            record.losses.len(),
            record.survival.len(),
            record.moved_replicas.len(),
            phase_ns.len(),
        ]
        .iter()
        .all(|&len| len == iterations);
        if !complete {
            return Err(format!("cached run is not {iterations} iterations long"));
        }
        Ok(RunResult { system, record, phase_ns })
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

/// Trains `system` for `iterations` on the shared corpus with telemetry
/// attached. When `jsonl` is given, every `IterationReport` also streams
/// there as it is made, for `symi-top` to tail; nothing reads it back.
pub fn run_system(
    system: SystemChoice,
    cfg: ModelConfig,
    iterations: usize,
    jsonl: Option<&Path>,
) -> RunResult {
    let mut corpus = experiment_corpus(&cfg);
    let mut trainer = Trainer::new(cfg, system.policy(&cfg));
    let telemetry = ClusterTelemetry::new(1);
    let ring = Arc::new(RingBufferSink::new(iterations.max(1)));
    telemetry.add_sink(ring.clone());
    if let Some(path) = jsonl {
        telemetry.add_sink(Arc::new(
            JsonlSink::create(path).expect("telemetry jsonl must be creatable"),
        ));
    }
    trainer.attach_telemetry(telemetry.clone());
    trainer.train(&mut corpus, iterations);
    telemetry.flush();
    let phase_ns = ring.contents().iter().map(|r| r.phase_ns[0]).collect();
    RunResult { system, record: trainer.record, phase_ns }
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

/// Loads the cached run if `dir` holds one under this run's key, otherwise
/// trains it — streaming its telemetry to the same key's `.jsonl` — and
/// caches it.
pub fn load_or_run(
    dir: &Path,
    system: SystemChoice,
    cfg: ModelConfig,
    iterations: usize,
) -> RunResult {
    std::fs::create_dir_all(dir).expect("results dir must be creatable");
    let path = cache_path(dir, system, &cfg, iterations);
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(run) = RunResult::from_json(system, &text, iterations) {
            eprintln!("[cache] {} from {}", system.name(), path.display());
            return run;
        }
    }
    eprintln!("[train] {} for {iterations} iterations…", system.name());
    let run = run_system(system, cfg, iterations, Some(&path.with_extension("jsonl")));
    std::fs::write(&path, run.to_json()).expect("cache write");
    run
}

/// [`load_or_run`] for each of `jobs` at once, one thread each, in order.
fn load_or_run_each(
    dir: &Path,
    jobs: impl Iterator<Item = (SystemChoice, ModelConfig)>,
    iterations: usize,
) -> Vec<RunResult> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .map(|(system, cfg)| scope.spawn(move || load_or_run(dir, system, cfg, iterations)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("run thread")).collect()
    })
}

/// Table 1's capacity factors.
pub(crate) const CAPACITIES: [f32; 3] = [1.0, 2.0, 4.0];

/// Every training run an artifact reads.
pub struct Runs {
    /// The five systems at the headline geometry, in [`SystemChoice::ALL`] order.
    pub systems: Vec<RunResult>,
    /// Figure 2's 32-expert static run.
    pub fig2: RunResult,
    /// Table 1's static runs at capacity ×1, ×2 and ×4.
    pub capacity: Vec<RunResult>,
}

impl Runs {
    /// Loads or trains every run, each in its own thread. The five systems
    /// train together and apart from the rest, so Figure 12's wall-clock
    /// columns compare them under the same concurrent load.
    pub fn load_or_train(dir: &Path, iterations: usize) -> Runs {
        let systems = load_or_run_each(
            dir,
            SystemChoice::ALL.iter().map(|&s| (s, ModelConfig::small_sim())),
            iterations,
        );
        let fig2 = ModelConfig::fig2_sim();
        // Table 1 runs Figure 2's geometry, seeded apart per capacity.
        let capacities = CAPACITIES.iter().map(|&cf| ModelConfig {
            capacity_factor: cf,
            seed: fig2.seed + cf as u64,
            ..fig2
        });
        let mut capacity = load_or_run_each(
            dir,
            std::iter::once(fig2).chain(capacities).map(|cfg| (SystemChoice::DeepSpeed, cfg)),
            iterations,
        );
        let fig2 = capacity.remove(0);
        Runs { systems, fig2, capacity }
    }

    pub fn system(&self, system: SystemChoice) -> &RunResult {
        &self.systems[SystemChoice::ALL.iter().position(|&s| s == system).expect("one of ALL")]
    }
}

/// The loss every one of `records` reaches: the slowest run's 10-iteration
/// smoothed loss at 80% of the run. It sits in the steep region where
/// convergence differences show, not in the flat tail.
pub(crate) fn target_loss<'a>(records: impl IntoIterator<Item = &'a TrainRecord>) -> f32 {
    records
        .into_iter()
        .map(|r| {
            let at = (r.losses.len() as f64 * 0.8) as usize;
            let lo = at.saturating_sub(9);
            r.losses[lo..=at].iter().sum::<f32>() / (at - lo + 1) as f32
        })
        .fold(f32::MIN, f32::max)
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
    use symi_telemetry::IterationReport;

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
        let run = run_system(SystemChoice::Symi, cfg, 4, None);
        assert_eq!(run.record.losses.len(), 4);
        assert_eq!(run.record.survival.len(), 4);
        assert_eq!(run.record.replicas[0].len(), 4);
        assert_eq!(run.record.popularity.len(), cfg.layers);
        assert_eq!(run.phase_ns.len(), 4);
    }

    #[test]
    fn telemetry_run_emits_complete_reports() {
        let cfg = ModelConfig::tiny();
        let dir = std::env::temp_dir().join(format!("symi_tele_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let run = run_system(SystemChoice::Symi, cfg, 3, Some(&path));
        // The live stream carries one report per iteration, whose phase
        // times are the ones the run kept.
        let text = std::fs::read_to_string(&path).unwrap();
        let reports: Vec<IterationReport> =
            text.lines().map(|l| IterationReport::parse_jsonl(l).unwrap()).collect();
        assert_eq!(reports.len(), 3);
        let r = &reports[2];
        assert_eq!(r.system, "symi");
        assert_eq!(r.popularity.len(), cfg.experts);
        assert!(r.iteration_ns() > 0, "phase spans must have been recorded");
        assert_eq!(reports.iter().map(|r| r.phase_ns[0]).collect::<Vec<_>>(), run.phase_ns);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_round_trip() {
        let dir = std::env::temp_dir().join(format!("symi_bench_test_{}", std::process::id()));
        let cfg = ModelConfig::tiny();
        let first = load_or_run(&dir, SystemChoice::DeepSpeed, cfg, 3);
        let second = load_or_run(&dir, SystemChoice::DeepSpeed, cfg, 3);
        assert_eq!(first.record.losses, second.record.losses, "second call must hit the cache");
        assert_eq!(first.record.survival, second.record.survival);
        assert_eq!(first.record.replicas, second.record.replicas);
        assert_eq!(first.phase_ns, second.phase_ns);
        // A cache of another length is not this run's.
        let text =
            std::fs::read_to_string(cache_path(&dir, SystemChoice::DeepSpeed, &cfg, 3)).unwrap();
        assert!(RunResult::from_json(SystemChoice::DeepSpeed, &text, 4).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
