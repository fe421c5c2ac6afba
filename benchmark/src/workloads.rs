//! The four workloads — what runs, at which shapes, for how many steps —
//! and one repetition of each: fresh state from the same seeds, pregenerated
//! inputs, untimed warm-up, then a fixed number of timed steps.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use symi::{EngineConfig, MoeLayerEngine, SymiPolicy};
use symi_baselines::DeepSpeedMoeEngine;
use symi_collectives::{Cluster, ClusterSpec, CommError, RankCtx, TrafficReport};
use symi_model::{ModelConfig, Trainer};
use symi_telemetry::{ClusterTelemetry, RingBufferSink, TelemetryHandle, NUM_PHASES};
use symi_tensor::{kernel_stats, AdamConfig, KernelStats, Matrix};

use crate::alloc;
use crate::inputs::{self, Geometry, LmStream, RANKS};
use crate::procfs;

/// Run length the step counts below were calibrated for; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;
/// Repetitions per run.
pub const REPS: usize = 5;
/// Untimed steps before the timed window of every repetition.
pub const WARMUP_STEPS: usize = 8;
/// Model-initialisation seed of the engine workloads (`trainer_lm` uses
/// `ModelConfig::small_sim`'s own). `--seed` never reaches the model.
pub const MODEL_SEED: u64 = 42;
/// Steps whose allocations the traced run counts, after its timed window
/// and with telemetry detached again.
const ALLOC_STEPS: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    Symi,
    DeepSpeed,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `Trainer::step` on `ModelConfig::small_sim()` with `SymiPolicy`.
    Trainer,
    /// A `RANKS`-rank engine iteration.
    Engine(System, Geometry),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Timed steps per repetition of a `RUN_SECONDS` run: fixed steps, not
    /// fixed time, so two commits do identical arithmetic. Calibrated on the
    /// 2-vCPU reference machine so the five windows fill the run.
    pub steps: usize,
    /// Target of `time_to_target_s`/`steps_to_target`: the trailing mean loss
    /// falls to `rho` × its value over the first timed steps.
    pub rho: f64,
}

const TOKEN_HEAVY: Geometry =
    Geometry { d_model: 64, d_ff: 256, classes: 4, slots_per_rank: 4, tokens_per_rank: 1024 };
const PARAM_HEAVY: Geometry =
    Geometry { d_model: 256, d_ff: 1024, classes: 4, slots_per_rank: 4, tokens_per_rank: 32 };

pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "trainer_lm", kind: Kind::Trainer, steps: 130, rho: 0.50 },
    Workload {
        name: "engine_tokens",
        kind: Kind::Engine(System::Symi, TOKEN_HEAVY),
        steps: 250,
        rho: 0.33,
    },
    Workload {
        name: "engine_params",
        kind: Kind::Engine(System::Symi, PARAM_HEAVY),
        steps: 110,
        rho: 0.70,
    },
    Workload {
        name: "deepspeed_params",
        kind: Kind::Engine(System::DeepSpeed, PARAM_HEAVY),
        steps: 110,
        rho: 0.79,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Timed steps per repetition of a `seconds`-long run.
    pub fn steps_for(&self, seconds: u64) -> usize {
        (self.steps as u64 * seconds / RUN_SECONDS) as usize
    }

    pub fn ranks(&self) -> usize {
        match self.kind {
            Kind::Trainer => 1,
            Kind::Engine(..) => RANKS,
        }
    }

    /// Tokens entering the router per step, over all ranks.
    pub fn tokens_per_step(&self) -> usize {
        match self.kind {
            Kind::Trainer => ModelConfig::small_sim().tokens_per_batch(),
            Kind::Engine(_, g) => g.tokens_per_rank * RANKS,
        }
    }

    /// `survived + dropped` of a healthy step: every MoE layer routes every
    /// token once.
    pub fn routed_per_step(&self) -> usize {
        match self.kind {
            Kind::Trainer => self.tokens_per_step() * ModelConfig::small_sim().layers,
            Kind::Engine(..) => self.tokens_per_step(),
        }
    }

    pub fn run_rep(&self, seed: u64, steps: usize, traced: bool) -> Rep {
        match self.kind {
            Kind::Trainer => trainer_rep(seed, steps, traced),
            Kind::Engine(system, g) => engine_rep(system, &g, seed, steps, traced),
        }
    }
}

/// What one step reported, reduced to what the checks compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepOut {
    pub loss_bits: u32,
    pub survived: usize,
    pub dropped: usize,
    pub churn: usize,
    pub degraded: bool,
    /// Hash of the step's popularity, kept-per-class and replica vectors.
    pub digest: u64,
}

impl StepOut {
    fn new(
        loss: f32,
        survived: usize,
        dropped: usize,
        churn: usize,
        degraded: bool,
        vectors: &[&[u64]],
    ) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        vectors.hash(&mut h);
        Self { loss_bits: loss.to_bits(), survived, dropped, churn, degraded, digest: h.finish() }
    }

    pub fn loss(&self) -> f32 {
        f32::from_bits(self.loss_bits)
    }

    /// A step that did not do its work: non-finite loss or degraded mode.
    pub fn failed(&self) -> bool {
        !self.loss().is_finite() || self.degraded
    }
}

/// Per-step data only the traced repetition records.
#[derive(Debug, Default)]
pub struct StepTrace {
    /// `[step][rank]` nanoseconds per telemetry phase.
    pub phase_ns: Vec<Vec<[u64; NUM_PHASES]>>,
    /// `LmStream::next_batch` (one `DriftingCorpus::next_batch`) per step
    /// (`trainer_lm`).
    pub next_batch_ms: Vec<f64>,
    /// Program allocations per step over all threads, telemetry detached.
    pub allocs_per_step: f64,
}

/// What the thread that times a repetition (rank 0) measures.
#[derive(Debug)]
pub struct Window {
    /// Build + input generation + warm-up steps.
    pub setup_s: f64,
    /// Process CPU (all threads) over the timed window.
    pub cpu_s: f64,
    /// `(start, end)` of every timed step, in seconds since the first one
    /// started. The two clock reads around the step are the only timing
    /// inside an untraced window.
    pub spans: Vec<(f64, f64)>,
    /// Window deltas of the program's own always-on counters.
    pub kernel: KernelStats,
    pub traffic: Option<TrafficReport>,
    pub trace: Option<StepTrace>,
}

/// One repetition's measurements.
#[derive(Debug)]
pub struct Rep {
    pub window: Window,
    /// What rank 0's steps reported.
    pub outs: Vec<StepOut>,
    /// Every rank reported the same `StepOut` for every step.
    pub ranks_agree: bool,
    /// Protocol counters over the window, summed over ranks.
    pub fenced_msgs: u64,
    pub recv_retries: u64,
}

impl Rep {
    pub fn steps(&self) -> usize {
        self.window.spans.len()
    }

    pub fn window_s(&self) -> f64 {
        self.window.spans.last().expect("at least one timed step").1
    }

    pub fn step_ms(&self) -> Vec<f64> {
        self.window.spans.iter().map(|(a, b)| (b - a) * 1e3).collect()
    }

    pub fn losses(&self) -> Vec<f32> {
        self.outs.iter().map(StepOut::loss).collect()
    }
}

fn kernel_delta(a: KernelStats, b: KernelStats) -> KernelStats {
    KernelStats {
        gemm_ns: b.gemm_ns - a.gemm_ns,
        gemm_flops: b.gemm_flops - a.gemm_flops,
        seq_fallback: b.seq_fallback - a.seq_fallback,
        b_packs: b.b_packs - a.b_packs,
    }
}

fn traffic_delta(a: &TrafficReport, b: &TrafficReport) -> TrafficReport {
    let sub = |x: &[u64], y: &[u64]| x.iter().zip(y).map(|(x, y)| y - x).collect();
    TrafficReport {
        intra_node_bytes: b.intra_node_bytes - a.intra_node_bytes,
        inter_node_bytes: b.inter_node_bytes - a.inter_node_bytes,
        host_device_bytes: b.host_device_bytes - a.host_device_bytes,
        intra_node_msgs: b.intra_node_msgs - a.intra_node_msgs,
        inter_node_msgs: b.inter_node_msgs - a.inter_node_msgs,
        phase_bytes: std::array::from_fn(|p| {
            std::array::from_fn(|c| b.phase_bytes[p][c] - a.phase_bytes[p][c])
        }),
        per_rank_sent_bytes: sub(&a.per_rank_sent_bytes, &b.per_rank_sent_bytes),
        per_rank_recv_bytes: sub(&a.per_rank_recv_bytes, &b.per_rank_recv_bytes),
    }
}

// ---------------------------------------------------------------------------
// trainer_lm
// ---------------------------------------------------------------------------

fn trainer_rep(seed: u64, steps: usize, traced: bool) -> Rep {
    let t_rep = Instant::now();
    let cfg = ModelConfig::small_sim();
    let mut trainer = Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }));
    let mut corpus = LmStream::new(seed, &cfg);
    for _ in 0..WARMUP_STEPS {
        trainer.step(&corpus.next_batch());
    }
    let sink = traced.then(|| {
        let telemetry = ClusterTelemetry::new(1);
        let sink = Arc::new(RingBufferSink::new(steps));
        telemetry.add_sink(sink.clone());
        trainer.attach_telemetry(telemetry);
        sink
    });
    let setup_s = t_rep.elapsed().as_secs_f64();

    let mut spans = Vec::with_capacity(steps);
    let mut outs = Vec::with_capacity(steps);
    let mut next_batch_ms = Vec::with_capacity(steps);
    let (cpu0, kernel0) = (procfs::cpu_seconds(), kernel_stats());
    let t_window = Instant::now();
    for _ in 0..steps {
        let t0 = t_window.elapsed();
        // Input generation is part of the step: a training loop pays it.
        let batch = corpus.next_batch();
        if traced {
            next_batch_ms.push((t_window.elapsed() - t0).as_secs_f64() * 1e3);
        }
        let stats = trainer.step(&batch);
        spans.push((t0.as_secs_f64(), t_window.elapsed().as_secs_f64()));
        let (survived, dropped) =
            stats.layers.iter().fold((0, 0), |(s, d), l| (s + l.survived, d + l.dropped));
        let vectors: Vec<&[u64]> = stats
            .layers
            .iter()
            .flat_map(|l| [l.popularity.as_slice(), l.kept_per_class.as_slice()])
            .collect();
        let churn = *trainer.record.moved_replicas.last().expect("step recorded");
        outs.push(StepOut::new(stats.ce_loss, survived, dropped, churn, false, &vectors));
    }
    let cpu_s = procfs::cpu_seconds() - cpu0;
    let kernel = kernel_delta(kernel0, kernel_stats());

    let trace = sink.map(|sink| {
        let phase_ns = sink.contents().iter().map(|r| r.phase_ns.clone()).collect();
        trainer.attach_telemetry(ClusterTelemetry::disabled(1));
        let batches: Vec<_> = (0..ALLOC_STEPS).map(|_| corpus.next_batch()).collect();
        alloc::set_counting(true);
        let a0 = alloc::allocations();
        for batch in &batches {
            trainer.step(batch);
        }
        let allocs = alloc::allocations() - a0;
        alloc::set_counting(false);
        StepTrace { phase_ns, next_batch_ms, allocs_per_step: allocs as f64 / ALLOC_STEPS as f64 }
    });
    Rep {
        window: Window { setup_s, cpu_s, spans, kernel, traffic: None, trace },
        outs,
        ranks_agree: true,
        fenced_msgs: 0,
        recv_retries: 0,
    }
}

// ---------------------------------------------------------------------------
// engine workloads
// ---------------------------------------------------------------------------

enum Engine {
    Symi(Box<MoeLayerEngine>),
    DeepSpeed(Box<DeepSpeedMoeEngine>),
}

impl Engine {
    fn new(system: System, g: &Geometry, rank: usize) -> Self {
        let adam = AdamConfig::default();
        match system {
            System::Symi => {
                Engine::Symi(Box::new(MoeLayerEngine::new(rank, RANKS, engine_config(g, adam))))
            }
            System::DeepSpeed => Engine::DeepSpeed(Box::new(DeepSpeedMoeEngine::new(
                rank,
                RANKS,
                g.d_model,
                g.d_ff,
                g.classes,
                g.slots_per_rank,
                g.slot_capacity(),
                adam,
                MODEL_SEED,
            ))),
        }
    }

    fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        match self {
            Engine::Symi(e) => e.attach_telemetry(handle),
            Engine::DeepSpeed(e) => e.attach_telemetry(handle),
        }
    }

    fn iteration(
        &mut self,
        ctx: &mut RankCtx,
        x: &Matrix,
        target: &Matrix,
    ) -> Result<StepOut, CommError> {
        Ok(match self {
            Engine::Symi(e) => {
                let s = e.iteration(ctx, x, target)?;
                let replicas: Vec<u64> = s.replicas.iter().map(|&r| r as u64).collect();
                StepOut::new(
                    s.loss,
                    s.survived,
                    s.dropped,
                    s.placement_churn,
                    s.degraded,
                    &[&s.popularity, &s.kept_per_class, &replicas],
                )
            }
            Engine::DeepSpeed(e) => {
                let s = e.iteration(ctx, x, target)?;
                StepOut::new(
                    s.loss,
                    s.survived,
                    s.dropped,
                    0,
                    false,
                    &[&s.popularity, &s.kept_per_class],
                )
            }
        })
    }
}

pub fn engine_config(g: &Geometry, adam: AdamConfig) -> EngineConfig {
    EngineConfig {
        d_model: g.d_model,
        d_ff: g.d_ff,
        expert_classes: g.classes,
        slots_per_rank: g.slots_per_rank,
        slot_capacity: g.slot_capacity(),
        adam,
        seed: MODEL_SEED,
        layer_id: 0,
    }
}

struct RankRun {
    outs: Vec<StepOut>,
    fenced_msgs: u64,
    recv_retries: u64,
    /// Rank 0 only.
    window: Option<Window>,
}

/// An `Err` from a collective step leaves the peer waiting on a message
/// that will never come, so there is nothing to continue: report and stop
/// the process with a failing status and no result line.
fn step_or_exit(
    engine: &mut Engine,
    ctx: &mut RankCtx,
    (x, target): (&Matrix, &Matrix),
) -> StepOut {
    engine.iteration(ctx, x, target).unwrap_or_else(|e| {
        eprintln!("rank {}: iteration failed: {e}", ctx.rank());
        std::process::exit(2);
    })
}

fn engine_rep(system: System, g: &Geometry, seed: u64, steps: usize, traced: bool) -> Rep {
    let t_rep = Instant::now();
    let telemetry = traced.then(|| ClusterTelemetry::new(RANKS));
    let (mut runs, _) = Cluster::run(ClusterSpec::flat(RANKS), |ctx| {
        let rank = ctx.rank();
        let first = rank == 0;
        let mut engine = Engine::new(system, g, rank);
        let inputs = inputs::generate(seed, rank, g);
        for step in 0..WARMUP_STEPS {
            step_or_exit(&mut engine, ctx, inputs.step(step));
        }
        if let Some(t) = &telemetry {
            engine.attach_telemetry(t.handle(rank));
        }
        ctx.barrier();
        let setup_s = t_rep.elapsed().as_secs_f64();

        let mut spans = Vec::with_capacity(steps);
        let mut outs = Vec::with_capacity(steps);
        let mut phase_ns = Vec::with_capacity(if traced { steps } else { 0 });
        let protocol0 = ctx.protocol_stats();
        // Rank 0 snapshots the shared counters between two barriers, so no
        // rank is inside a step while they are read.
        let start = first.then(|| (procfs::cpu_seconds(), kernel_stats(), ctx.traffic().report()));
        ctx.barrier();
        let t_window = Instant::now();
        for step in 0..steps {
            let t0 = t_window.elapsed();
            let out = step_or_exit(&mut engine, ctx, inputs.step(WARMUP_STEPS + step));
            spans.push((t0.as_secs_f64(), t_window.elapsed().as_secs_f64()));
            outs.push(out);
            if let Some(t) = &telemetry {
                ctx.barrier();
                if first {
                    phase_ns.push(t.drain_phase_ns());
                }
                ctx.barrier();
            }
        }
        ctx.barrier();
        let protocol = ctx.protocol_stats();
        let window = start.map(|(cpu0, kernel0, traffic0)| {
            (
                procfs::cpu_seconds() - cpu0,
                kernel_delta(kernel0, kernel_stats()),
                traffic_delta(&traffic0, &ctx.traffic().report()),
            )
        });

        let trace = traced.then(|| {
            engine.attach_telemetry(TelemetryHandle::disabled());
            ctx.barrier();
            let a0 = first.then(|| {
                alloc::set_counting(true);
                alloc::allocations()
            });
            ctx.barrier();
            for step in 0..ALLOC_STEPS {
                step_or_exit(&mut engine, ctx, inputs.step(WARMUP_STEPS + steps + step));
            }
            ctx.barrier();
            let allocs = a0.map_or(0, |a0| {
                alloc::set_counting(false);
                alloc::allocations() - a0
            });
            StepTrace {
                phase_ns,
                next_batch_ms: Vec::new(),
                allocs_per_step: allocs as f64 / ALLOC_STEPS as f64,
            }
        });
        RankRun {
            outs,
            fenced_msgs: protocol.fenced_messages - protocol0.fenced_messages,
            recv_retries: protocol.retries - protocol0.retries,
            window: window.map(|(cpu_s, kernel, traffic)| Window {
                setup_s,
                cpu_s,
                spans,
                kernel,
                traffic: Some(traffic),
                trace,
            }),
        }
    });
    let ranks_agree = runs.iter().all(|r| r.outs == runs[0].outs);
    let fenced_msgs = runs.iter().map(|r| r.fenced_msgs).sum();
    let recv_retries = runs.iter().map(|r| r.recv_retries).sum();
    let first = runs.swap_remove(0);
    Rep {
        window: first.window.expect("rank 0 measured the window"),
        outs: first.outs,
        ranks_agree,
        fenced_msgs,
        recv_retries,
    }
}
