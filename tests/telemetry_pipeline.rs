//! End-to-end telemetry: run SYMI and both baselines with telemetry
//! attached, emit `IterationReport` JSONL, and reconstruct the paper's
//! observability artifacts (fig-12-style phase shares, per-class drop
//! rates, placement churn) from the files alone.

use std::sync::Arc;

use symi::{EngineConfig, FlexMoePolicy, MoeLayerEngine};
use symi_collectives::{Cluster, ClusterSpec, RankCtx};
use symi_integration::deepspeed;
use symi_model::{ModelConfig, Trainer};
use symi_telemetry::{ClusterTelemetry, IterationReport, JsonlSink, Phase, LINK_CLASSES};
use symi_tensor::{AdamConfig, Matrix};

const NODES: usize = 4;
const D: usize = 8;
const E: usize = 4;
const ITERS: u64 = 3;

/// Every engine's configuration here, with experts `d_ff` wide.
fn engine_cfg(d_ff: usize) -> EngineConfig {
    EngineConfig {
        d_model: D,
        d_ff,
        expert_classes: E,
        slots_per_rank: 2,
        slot_capacity: 8,
        adam: AdamConfig::default(),
        seed: 77,
        layer_id: 0,
    }
}

fn tokens(rank: usize, t_loc: usize) -> Matrix {
    Matrix::from_fn(t_loc, D, |r, c| {
        ((c as f32 * 0.7).sin()) + 0.05 * (((rank * t_loc + r) * D + c) as f32 * 0.613).sin()
    })
}

/// The driver pattern for distributed engines: after each iteration rank 0
/// merges engine stats + drained phase timings + drained phase bytes into
/// one cluster-wide report.
#[allow(clippy::too_many_arguments)]
fn emit_report(
    ctx: &RankCtx,
    telemetry: &Arc<ClusterTelemetry>,
    system: &str,
    iteration: u64,
    loss: f32,
    popularity: Vec<u64>,
    kept_per_class: Vec<u64>,
    replicas: Vec<u64>,
    placement_churn: u64,
) {
    ctx.barrier();
    if ctx.rank() == 0 {
        let mut r = IterationReport::new(system, iteration);
        r.loss = loss as f64;
        r.popularity = popularity;
        r.kept_per_class = kept_per_class;
        r.replicas = replicas;
        r.placement_churn = placement_churn;
        r.phase_ns = telemetry.drain_phase_ns();
        r.phase_bytes = ctx.traffic().drain_phase_bytes();
        telemetry.emit(&r);
    }
    ctx.barrier();
}

fn run_symi(path: &std::path::Path) {
    let telemetry = ClusterTelemetry::new(NODES);
    telemetry.add_sink(Arc::new(JsonlSink::create(path).unwrap()));
    Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let cfg = engine_cfg(16);
        let mut e = MoeLayerEngine::new(ctx.rank(), NODES, cfg);
        e.attach_telemetry(telemetry.handle(ctx.rank()));
        let x = tokens(ctx.rank(), 16);
        let target = Matrix::zeros(16, D);
        for it in 0..ITERS {
            let s = e.iteration(ctx, &x, &target).unwrap();
            emit_report(
                ctx,
                &telemetry,
                "symi",
                it,
                s.loss,
                s.popularity,
                s.kept_per_class,
                s.replicas.iter().map(|&r| r as u64).collect(),
                s.placement_churn as u64,
            );
        }
    });
    telemetry.flush();
}

fn run_deepspeed(path: &std::path::Path) {
    let telemetry = ClusterTelemetry::new(NODES);
    telemetry.add_sink(Arc::new(JsonlSink::create(path).unwrap()));
    Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut e = deepspeed(ctx.rank(), NODES, engine_cfg(16));
        e.attach_telemetry(telemetry.handle(ctx.rank()));
        let x = tokens(ctx.rank(), 16);
        let target = Matrix::zeros(16, D);
        for it in 0..ITERS {
            let s = e.iteration(ctx, &x, &target).unwrap();
            let uniform = vec![(NODES * 2 / E) as u64; E];
            emit_report(
                ctx,
                &telemetry,
                "deepspeed",
                it,
                s.loss,
                s.popularity,
                s.kept_per_class,
                uniform,
                0, // static placement never churns
            );
        }
    });
    telemetry.flush();
}

fn run_flexmoe(path: &std::path::Path) {
    // The FlexMoE baseline trains through the functional model; its trainer
    // emits complete reports itself.
    let cfg = ModelConfig::tiny();
    let telemetry = ClusterTelemetry::new(1);
    telemetry.add_sink(Arc::new(JsonlSink::create(path).unwrap()));
    let mut trainer = Trainer::new(cfg, Box::new(FlexMoePolicy::new(cfg.total_slots, 2)));
    trainer.attach_telemetry(telemetry.clone());
    let mut corpus = symi_workload::DriftingCorpus::new(symi_workload::CorpusConfig {
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        batch_size: cfg.batch_size,
        topics: 4,
        coherence: 0.8,
        topic_zipf: 1.1,
        drift_sigma: 0.2,
        jolt_prob: 0.0,
        seed: 11,
    });
    trainer.train(&mut corpus, ITERS as usize);
    telemetry.flush();
}

fn read(path: &std::path::Path) -> Vec<IterationReport> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|l| IterationReport::parse_jsonl(l).unwrap())
        .collect()
}

#[test]
fn telemetry_reconstructs_paper_artifacts_for_all_systems() {
    let dir = std::env::temp_dir().join(format!("symi_tele_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let symi_path = dir.join("symi.jsonl");
    let ds_path = dir.join("deepspeed.jsonl");
    let flex_path = dir.join("flexmoe.jsonl");
    run_symi(&symi_path);
    run_deepspeed(&ds_path);
    run_flexmoe(&flex_path);

    for (system, path) in [("symi", &symi_path), ("deepspeed", &ds_path), ("flexmoe", &flex_path)] {
        let reports = read(path);
        assert_eq!(reports.len(), ITERS as usize, "{system}: one report per iteration");
        for r in &reports {
            // Fig-12-style phase shares: well-formed distribution.
            let shares = r.phase_shares();
            let sum: f64 = shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{system}: shares sum to 1, got {sum}");
            assert!(r.phase_ns_max(Phase::ExpertFfn) > 0, "{system}: expert compute must be timed");
            // Per-class drop rates: defined and within [0, 1].
            let drops = r.drop_rate_per_class();
            assert_eq!(drops.len(), r.popularity.len());
            assert!(drops.iter().all(|d| (0.0..=1.0).contains(d)), "{system}: {drops:?}");
            assert!(r.popularity.iter().sum::<u64>() > 0, "{system}: popularity routed");
            assert!(r.popularity_entropy().is_finite());
            assert!(r.straggler_spread_ns() <= r.iteration_ns());
        }
        let churn: u64 = reports.iter().map(|r| r.placement_churn).sum();
        match system {
            "deepspeed" => assert_eq!(churn, 0, "static placement must not churn"),
            _ => { /* adaptive systems may or may not move under this workload */ }
        }
    }

    // Distributed runs must attribute real bytes to phases per link class.
    let symi = read(&symi_path);
    let dispatch: u64 = symi.iter().map(|r| r.bytes_for_phase(Phase::Dispatch)).sum();
    assert!(dispatch > 0, "token dispatch must move bytes");
    let grad: u64 = symi.iter().map(|r| r.bytes_for_phase(Phase::GradComm)).sum();
    assert!(grad > 0, "gradient communication must move bytes");
    let weight: u64 = symi.iter().map(|r| r.bytes_for_phase(Phase::WeightComm)).sum();
    assert!(weight > 0, "weight distribution must move bytes");
    let total: u64 =
        LINK_CLASSES.iter().map(|&c| symi.iter().map(|r| r.bytes_for_class(c)).sum::<u64>()).sum();
    assert!(total >= dispatch + grad + weight);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expert_load_gauges_account_for_every_surviving_token_per_rank() {
    // Both engines publish, per rank and per iteration, how many expert sets
    // they ran (one per hosted class that drew a token, however many of its
    // slots did) and with how many rows. Over the cluster the rows are
    // exactly the tokens that survived capacity; `hosted[rank]` is how many
    // distinct classes the rank hosted.
    let check = |telemetry: &ClusterTelemetry, system: &str, survived: usize, hosted: &[usize]| {
        let gauge = |name: &str, rank: usize| {
            telemetry.registry().gauge(&format!("{name}.rank{rank}")).get() as usize
        };
        let rows: Vec<usize> = (0..NODES).map(|r| gauge("expert_rows", r)).collect();
        assert_eq!(rows.iter().sum::<usize>(), survived, "{system}: rows per rank {rows:?}");
        for (rank, &rows) in rows.iter().enumerate() {
            let sets = gauge("expert_sets", rank);
            assert!(
                sets <= hosted[rank] && sets <= rows && (rows == 0 || sets > 0),
                "{system} rank {rank}: {sets} sets, {rows} rows, {} classes hosted",
                hosted[rank]
            );
        }
    };
    let telemetry = ClusterTelemetry::new(NODES);
    let (ran, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let cfg = engine_cfg(16);
        let mut e = MoeLayerEngine::new(ctx.rank(), NODES, cfg);
        e.attach_telemetry(telemetry.handle(ctx.rank()));
        let (x, target) = (tokens(ctx.rank(), 16), Matrix::zeros(16, D));
        e.iteration(ctx, &x, &target).unwrap();
        let hosted = e.placement.classes_on_rank(ctx.rank()).len();
        (e.iteration(ctx, &x, &target).unwrap().survived, hosted)
    });
    let hosted: Vec<usize> = ran.iter().map(|r| r.1).collect();
    assert!(hosted.iter().any(|&h| h < 2), "no rank ever hosted two replicas of one class");
    check(&telemetry, "symi", ran[0].0, &hosted);

    let telemetry = ClusterTelemetry::new(NODES);
    let (survived, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut e = deepspeed(ctx.rank(), NODES, engine_cfg(16));
        e.attach_telemetry(telemetry.handle(ctx.rank()));
        let (x, target) = (tokens(ctx.rank(), 16), Matrix::zeros(16, D));
        e.iteration(ctx, &x, &target).unwrap().survived
    });
    check(&telemetry, "deepspeed", survived[0], &[2; NODES]);
}

#[test]
fn slot_param_bytes_are_binary16_weights_and_f32_biases_per_hosted_class() {
    // §3.1: slots hold 2 B/param weights. Both engines publish, per rank,
    // the bytes their hosted classes' parameters occupy: 2·(W1 + W2) +
    // 4·(b1 + b2) each.
    let ff = 16;
    let per_class = 2 * (2 * D * ff) + 4 * (ff + D);
    let check = |telemetry: &ClusterTelemetry, system: &str, hosted: &[usize]| {
        for (rank, &classes) in hosted.iter().enumerate() {
            let name = format!("mem.slot_param_bytes.rank{rank}");
            let bytes = telemetry.registry().gauge(&name).get() as usize;
            assert_eq!(bytes, classes * per_class, "{system} rank {rank}, {classes} classes");
        }
    };
    let telemetry = ClusterTelemetry::new(NODES);
    let (hosted, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let cfg = engine_cfg(ff);
        let mut e = MoeLayerEngine::new(ctx.rank(), NODES, cfg);
        e.attach_telemetry(telemetry.handle(ctx.rank()));
        let (x, target) = (tokens(ctx.rank(), 16), Matrix::zeros(16, D));
        for _ in 0..2 {
            e.iteration(ctx, &x, &target).unwrap();
        }
        e.placement.classes_on_rank(ctx.rank()).len()
    });
    assert!(hosted.iter().any(|&h| h < 2), "no rank ever hosted two replicas of one class");
    check(&telemetry, "symi", &hosted);

    let telemetry = ClusterTelemetry::new(NODES);
    Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut e = deepspeed(ctx.rank(), NODES, engine_cfg(ff));
        e.attach_telemetry(telemetry.handle(ctx.rank()));
        let (x, target) = (tokens(ctx.rank(), 16), Matrix::zeros(16, D));
        e.iteration(ctx, &x, &target).unwrap();
    });
    check(&telemetry, "deepspeed", &[2; NODES]);
}

#[test]
fn deepspeed_and_symi_pay_equal_optimizer_bytes_per_rank_at_uniform_replication() {
    // ROADMAP item 11's identities at uniform replication, r = sN/E = 2: a
    // rank holds its s classes' 1/r ZeRO-1 shards under DeepSpeed's
    // coupling and a 1/N shard of all E classes under SYMI's — s·16P/r =
    // 16PE/N = 4,480 B either way — and stages exactly those shards over
    // host-device every step, fp32 gradients in and binary16 weights out:
    // 6 B per shard parameter per rank. The traffic counter is cluster-wide,
    // so the per-rank staging is read as the total over N equal shards.
    const P: usize = 2 * D * 16 + 16 + D;
    let shard_params = P * E / NODES;
    let run = |deepspeed: bool| {
        let (state_bytes, report) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
            let mut e = if deepspeed {
                symi_integration::deepspeed(ctx.rank(), NODES, engine_cfg(16))
            } else {
                let cfg = engine_cfg(16);
                MoeLayerEngine::new(ctx.rank(), NODES, cfg)
            };
            // A registry per rank: the state gauge carries no rank suffix.
            let telemetry = ClusterTelemetry::new(NODES);
            e.attach_telemetry(telemetry.handle(ctx.rank()));
            let (x, target) = (tokens(ctx.rank(), 16), Matrix::zeros(16, D));
            for _ in 0..ITERS {
                e.iteration(ctx, &x, &target).unwrap();
            }
            telemetry.registry().gauge("optimizer_state_bytes").get() as usize
        });
        (state_bytes, report.host_device_bytes as usize)
    };
    for (system, (state_bytes, host_device)) in [("symi", run(false)), ("deepspeed", run(true))] {
        assert_eq!(state_bytes, vec![16 * shard_params; NODES], "{system}: state bytes per rank");
        assert_eq!(16 * shard_params, 4_480);
        assert_eq!(
            host_device,
            ITERS as usize * NODES * (2 + 2) * shard_params,
            "{system}: host-device bytes, N ranks staging their own binary16 gradient and \
             weight shards each step"
        );
    }
}

#[test]
fn symi_optimizer_bytes_never_move_while_flexmoe_migrates_them() {
    // ROADMAP item 11's first identity, on the runtime: SYMI re-places
    // without moving any optimizer state, so each rank's gauge stays put
    // through every placement change. FlexMoE's state is coupled to its
    // hosts: a re-placement moves shares between ranks, and the cluster
    // still holds 16 B per parameter of every class, 16·P·E.
    const P: usize = 2 * D * 16 + 16 + D;
    const ROUNDS: usize = 6;
    let run = |flexmoe: bool| {
        let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
            let cfg = engine_cfg(16);
            let mut e = if flexmoe {
                symi_integration::flexmoe(ctx.rank(), NODES, cfg, 2)
            } else {
                MoeLayerEngine::new(ctx.rank(), NODES, cfg)
            };
            // A registry per rank: the state gauge carries no rank suffix.
            let telemetry = ClusterTelemetry::new(NODES);
            e.attach_telemetry(telemetry.handle(ctx.rank()));
            let (x, target) = (tokens(ctx.rank(), 16), Matrix::zeros(16, D));
            (0..ROUNDS)
                .map(|_| {
                    let churn = e.iteration(ctx, &x, &target).unwrap().placement_churn;
                    (churn, telemetry.registry().gauge("optimizer_state_bytes").get() as usize)
                })
                .collect::<Vec<_>>()
        });
        assert!(per_rank[0].iter().any(|&(churn, _)| churn > 0), "the placement must move");
        per_rank
    };
    for (rank, rounds) in run(false).iter().enumerate() {
        assert!(rounds.iter().all(|&(_, b)| b == rounds[0].1), "SYMI rank {rank}: {rounds:?}");
    }
    let flexmoe = run(true);
    for round in 0..ROUNDS {
        let total: usize = flexmoe.iter().map(|rounds| rounds[round].1).sum();
        assert_eq!(total, 16 * P * E, "FlexMoE round {round}: the cluster holds every class once");
    }
    assert!(
        flexmoe.iter().any(|rounds| rounds.iter().any(|&(_, b)| b != rounds[0].1)),
        "a FlexMoE migration must change some rank's share: {flexmoe:?}"
    );
}
