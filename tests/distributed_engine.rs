//! Behavioural tests of the distributed engines under *skewed* load —
//! where the two systems genuinely differ.

use symi::{EngineConfig, MoeLayerEngine};
use symi_collectives::{Cluster, ClusterSpec};
use symi_tensor::{AdamConfig, Matrix};

const NODES: usize = 4;
const D: usize = 8;
const DFF: usize = 16;
const E: usize = 4;
const S: usize = 2;

/// Token embeddings engineered so the (seeded, shared) router sends most
/// tokens to few classes: all ranks draw from the same narrow distribution.
fn skewed_tokens(rank: usize, t_loc: usize) -> Matrix {
    Matrix::from_fn(t_loc, D, |r, c| {
        // Mostly one cluster in embedding space, with mild per-token noise.
        let base = (c as f32 * 0.7).sin();
        base + 0.05 * (((rank * t_loc + r) * D + c) as f32 * 0.613).sin()
    })
}

fn engine_cfg(slot_capacity: usize) -> EngineConfig {
    EngineConfig {
        d_model: D,
        d_ff: DFF,
        expert_classes: E,
        slots_per_rank: S,
        slot_capacity,
        adam: AdamConfig::default(),
        seed: 77,
        layer_id: 0,
    }
}

#[test]
fn symi_survives_more_tokens_under_skew() {
    let cap = 4usize; // tight: uniform replication cannot absorb the skew
    let (symi_stats, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut e = MoeLayerEngine::new(ctx.rank(), NODES, engine_cfg(cap));
        let x = skewed_tokens(ctx.rank(), 16);
        let target = Matrix::zeros(16, D);
        // Two iterations: the first observes popularity, the second runs
        // under the adapted placement.
        let _ = e.iteration(ctx, &x, &target).unwrap();
        e.iteration(ctx, &x, &target).unwrap()
    });
    let (ds_stats, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut e = symi_integration::deepspeed(ctx.rank(), NODES, engine_cfg(cap));
        let x = skewed_tokens(ctx.rank(), 16);
        let target = Matrix::zeros(16, D);
        let _ = e.iteration(ctx, &x, &target).unwrap();
        e.iteration(ctx, &x, &target).unwrap()
    });
    let symi = &symi_stats[0];
    let ds = &ds_stats[0];
    assert_eq!(symi.survived + symi.dropped, ds.survived + ds.dropped);
    assert!(
        symi.survived > ds.survived,
        "adaptive replication must survive more tokens: SYMI {} vs DeepSpeed {} (of {})",
        symi.survived,
        ds.survived,
        symi.survived + symi.dropped
    );
}

#[test]
fn symi_replication_tracks_the_hot_class() {
    let (results, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut e = MoeLayerEngine::new(ctx.rank(), NODES, engine_cfg(1_000_000));
        let x = skewed_tokens(ctx.rank(), 16);
        let target = Matrix::zeros(16, D);
        let stats = e.iteration(ctx, &x, &target).unwrap();
        (stats.popularity, e.placement.replica_counts())
    });
    let (popularity, counts) = &results[0];
    let hot = (0..E).max_by_key(|&c| popularity[c]).expect("non-empty");
    let total_pop: u64 = popularity.iter().sum();
    let share = popularity[hot] as f64 / total_pop as f64;
    let slots: usize = counts.iter().sum();
    // Algorithm 1 keeps one replica per class, so the hot class can hold at
    // most slots − (E−1) replicas regardless of its popularity.
    let attainable = (slots - (E - 1)) as f64 / slots as f64;
    let target_share = share.min(attainable);
    let replica_share = counts[hot] as f64 / slots as f64;
    assert!(
        (target_share - replica_share).abs() < 0.15,
        "replica share {replica_share:.2} should track min(popularity {share:.2}, floor cap {attainable:.2})"
    );
}

#[test]
fn engine_handles_every_token_on_one_class() {
    // Degenerate skew: identical tokens → a single class gets everything.
    let (results, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut e = MoeLayerEngine::new(ctx.rank(), NODES, engine_cfg(1_000_000));
        let x = Matrix::from_fn(8, D, |_, c| (c as f32 * 0.7).sin());
        let target = Matrix::zeros(8, D);
        let s1 = e.iteration(ctx, &x, &target).unwrap();
        let s2 = e.iteration(ctx, &x, &target).unwrap();
        (s1, s2, e.placement.replica_counts())
    });
    let (s1, _s2, counts) = &results[0];
    let hot = (0..E).max_by_key(|&c| s1.popularity[c]).unwrap();
    assert_eq!(s1.popularity[hot], (8 * NODES) as u64, "all tokens on one class");
    // The hot class absorbs all slots minus the one-replica floors.
    assert_eq!(counts[hot], NODES * S - (E - 1));
    assert!(counts.iter().all(|&c| c >= 1), "floor must hold");
}

#[test]
fn single_rank_cluster_works() {
    let (results, report) = Cluster::run(ClusterSpec::flat(1), |ctx| {
        let cfg = EngineConfig {
            d_model: D,
            d_ff: DFF,
            expert_classes: 2,
            slots_per_rank: 2,
            slot_capacity: 1_000_000,
            adam: AdamConfig::default(),
            seed: 5,
            layer_id: 0,
        };
        let mut e = MoeLayerEngine::new(ctx.rank(), 1, cfg);
        let x = Matrix::from_fn(8, D, |r, c| ((r * D + c) as f32 * 0.3).sin());
        let target = Matrix::zeros(8, D);
        let mut last = 0.0;
        for _ in 0..5 {
            last = e.iteration(ctx, &x, &target).unwrap().loss;
        }
        last
    });
    assert!(results[0].is_finite());
    assert_eq!(report.inter_node_bytes, 0, "one rank must never touch the network");
}

#[test]
fn iteration_is_deterministic_across_runs() {
    let run = || {
        let (results, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
            let mut e = MoeLayerEngine::new(ctx.rank(), NODES, engine_cfg(8));
            let x = skewed_tokens(ctx.rank(), 8);
            let target = Matrix::zeros(8, D);
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(e.iteration(ctx, &x, &target).unwrap().loss);
            }
            losses
        });
        results[0].clone()
    };
    assert_eq!(run(), run(), "the whole distributed pipeline must be deterministic");
}

#[test]
fn two_layer_engines_share_ranks_without_cross_talk() {
    // A real model runs one engine per MoE layer over the same ranks; the
    // layer_id tag salt must keep their collectives isolated. Interleaved
    // execution must produce exactly the results of each engine run alone.
    let run_interleaved = || {
        let (results, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
            let mut l0 = MoeLayerEngine::new(
                ctx.rank(),
                NODES,
                EngineConfig { layer_id: 0, ..engine_cfg(1_000_000) },
            );
            let mut l1 = MoeLayerEngine::new(
                ctx.rank(),
                NODES,
                EngineConfig { layer_id: 1, seed: 99, ..engine_cfg(1_000_000) },
            );
            let x0 = skewed_tokens(ctx.rank(), 8);
            let x1 = skewed_tokens(ctx.rank() + 7, 8);
            let target = Matrix::zeros(8, D);
            let mut out = Vec::new();
            for _ in 0..3 {
                out.push(l0.iteration(ctx, &x0, &target).unwrap().loss);
                out.push(l1.iteration(ctx, &x1, &target).unwrap().loss);
            }
            out
        });
        results[0].clone()
    };
    let run_alone = |layer_id: usize, seed: u64, shift: usize| {
        let (results, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
            let mut e = MoeLayerEngine::new(
                ctx.rank(),
                NODES,
                EngineConfig { layer_id, seed, ..engine_cfg(1_000_000) },
            );
            let x = skewed_tokens(ctx.rank() + shift, 8);
            let target = Matrix::zeros(8, D);
            (0..3).map(|_| e.iteration(ctx, &x, &target).unwrap().loss).collect::<Vec<_>>()
        });
        results[0].clone()
    };
    let interleaved = run_interleaved();
    let alone0 = run_alone(0, 77, 0);
    let alone1 = run_alone(1, 99, 7);
    assert_eq!(
        interleaved,
        vec![alone0[0], alone1[0], alone0[1], alone1[1], alone0[2], alone1[2]],
        "interleaving engines must not change either engine's math"
    );
}
