//! Elastic scale-OUT: a standby rank joins a running cluster.
//!
//! The acceptance bar is the mirror image of the scale-in oracle test in
//! `chaos_recovery.rs`: after a kill shrinks the world, admitting a fresh
//! rank back must leave a cluster that is **bit-exact** with a fresh
//! `N`-rank cluster restored from the post-join snapshots — zero degraded
//! iterations, and the joiner's fp32 Adam slices *transferred* from their
//! previous owners moments-and-all, never re-initialized. A join is a pure
//! re-partition of optimizer state: the concatenated global
//! `(master, m, v)` before and after the grow must match bit for bit.
//!
//! The physical cluster is `WORLD` ranks but only `ACTIVE` train from the
//! start (`MembershipView::partial`): the extra rank idles as a standby
//! until the driver pairs `MoeLayerEngine::admit` on every member with
//! `MoeLayerEngine::join` on the standby.

use std::sync::Arc;
use std::time::Duration;

use symi::{
    EngineConfig, EngineSnapshot, ExpertPlacement, JoinStats, MoeLayerEngine, Owners, SymiPolicy,
};
use symi_collectives::coll::chunk_range;
use symi_collectives::{
    Cluster, ClusterSpec, FaultPlan, MembershipView, MsgMatch, RetryPolicy, WirePhase,
};
use symi_integration::assert_reshard_accounts;
use symi_telemetry::ClusterTelemetry;
use symi_tensor::{AdamConfig, Matrix};

/// Physical cluster size (threads spawned).
const WORLD: usize = 5;
/// Ranks training from iteration 0; `WORLD - ACTIVE` standbys idle.
const ACTIVE: usize = 4;
/// The standby that joins mid-run.
const JOINER: usize = 4;
const D: usize = 8;
const DFF: usize = 16;
const E: usize = 4;
const S: usize = 2;
const T_LOC: usize = 8;
/// Boundary at which every member calls `admit` (and the standby `join`).
const JOIN_AT: u64 = 3;
const ITERS: u64 = 7;

fn cfg() -> EngineConfig {
    EngineConfig {
        d_model: D,
        d_ff: DFF,
        expert_classes: E,
        slots_per_rank: S,
        slot_capacity: 1_000_000,
        adam: AdamConfig::default(),
        seed: 31,
        layer_id: 0,
    }
}

/// SYMI's engine on one of the `ACTIVE` initial members of the `WORLD`-rank
/// cluster, the standbys left out of its view until they join.
fn active_member(rank: usize) -> MoeLayerEngine {
    let view = MembershipView::partial(WORLD, ACTIVE);
    let placement = ExpertPlacement::uniform(E, ACTIVE, S);
    let policy = Box::new(SymiPolicy { total_slots: cfg().total_slots(ACTIVE) });
    MoeLayerEngine::build(rank, view, cfg(), placement, Owners::World, policy)
}

/// Mildly skewed token embeddings so the placement actually rebalances.
fn tokens(rank: usize) -> Matrix {
    Matrix::from_fn(T_LOC, D, |r, c| {
        (c as f32 * 0.7).sin() + 0.05 * (((rank * T_LOC + r) * D + c) as f32 * 0.613).sin()
    })
}

fn param_count() -> usize {
    D * DFF + DFF + DFF * D + D
}

/// What one member of the grown world observed.
#[derive(Clone, Debug)]
struct Outcome {
    /// Snapshot taken right before `admit` — `None` on the joiner, which
    /// has no pre-join state by definition.
    pre: Option<EngineSnapshot>,
    stats: JoinStats,
    /// Snapshot taken right after the join landed (the oracle seed).
    post: EngineSnapshot,
    /// Losses of every iteration run by the grown world.
    post_losses: Vec<f32>,
}

/// Rebuilds the global per-class `(master, m, v)` state from a set of
/// snapshots by laying each rank's shard down at its recorded offset.
/// Asserts the shards tile the parameter space exactly.
fn global_state(snaps: &[&EngineSnapshot]) -> Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> {
    let p = param_count();
    let mut out = vec![(vec![f32::NAN; p], vec![f32::NAN; p], vec![f32::NAN; p]); E];
    for snap in snaps {
        for (class, shard) in snap.shards.iter().enumerate() {
            let (g_master, g_m, g_v) = &mut out[class];
            g_master[shard.offset..shard.offset + shard.len()].copy_from_slice(&shard.master);
            g_m[shard.offset..shard.offset + shard.len()].copy_from_slice(&shard.m);
            g_v[shard.offset..shard.offset + shard.len()].copy_from_slice(&shard.v);
        }
    }
    for (class, (g_master, g_m, g_v)) in out.iter().enumerate() {
        for buf in [g_master, g_m, g_v] {
            assert!(
                buf.iter().all(|x| !x.is_nan()),
                "class {class}: shards must tile the parameter space with no hole"
            );
        }
    }
    out
}

/// The grown-world tail every member runs after the join: train to the
/// budget, assert nothing degrades (a boundary join aborts nothing).
fn train_tail(
    ctx: &mut symi_collectives::RankCtx,
    engine: &mut MoeLayerEngine,
    x: &Matrix,
) -> Result<Vec<f32>, String> {
    let target = Matrix::zeros(T_LOC, D);
    let mut losses = Vec::new();
    while engine.iteration_count() < ITERS {
        let stats = engine.iteration(ctx, x, &target).map_err(|e| e.to_string())?;
        assert!(!stats.degraded, "post-join iterations must not degrade");
        losses.push(stats.loss);
    }
    Ok(losses)
}

/// Phase A of the oracle test: kill → shrink → admit → train out.
fn run_kill_then_join(
    telemetry: Arc<ClusterTelemetry>,
) -> Vec<Result<Result<Outcome, String>, String>> {
    // Rank 2 dies at its first dispatch event of iteration 1, exactly like
    // the scale-in chaos scenarios.
    let plan =
        FaultPlan::new(9).kill(2, MsgMatch::any().phase(WirePhase::DispatchRows).iteration(1));
    let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(WORLD), plan, move |ctx| {
        ctx.set_recv_timeout(Some(Duration::from_millis(60)));
        ctx.set_retry_policy(Some(RetryPolicy::new(1, 2.0)));
        let target = Matrix::zeros(T_LOC, D);

        if ctx.rank() == JOINER {
            // The standby: blocks until the survivors bootstrap it. The
            // deadline is generous — it spans the survivors' pre-join
            // training *and* the kill-recovery stall.
            let (mut engine, stats) = MoeLayerEngine::join(ctx, cfg(), Duration::from_secs(30))
                .map_err(|e| e.to_string())?;
            assert_reshard_accounts(&engine, &stats.reshard);
            engine.attach_telemetry(telemetry.handle(ctx.rank()));
            let post = engine.snapshot();
            let x = tokens(ctx.rank());
            let post_losses = train_tail(ctx, &mut engine, &x)?;
            return Ok(Outcome { pre: None, stats, post, post_losses });
        }

        // An initially-active rank: train, absorb the kill elastically,
        // then admit the standby at the JOIN_AT boundary.
        let mut engine = active_member(ctx.rank());
        engine.attach_telemetry(telemetry.handle(ctx.rank()));
        let x = tokens(ctx.rank());
        while engine.iteration_count() < JOIN_AT {
            match engine.iteration(ctx, &x, &target) {
                Ok(_) => {}
                Err(e) if MoeLayerEngine::can_recover(&e) => {
                    let rec = engine.recover(ctx, &e).map_err(|e| e.to_string())?;
                    assert_reshard_accounts(&engine, &rec.reshard);
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        let pre = engine.snapshot();
        let stats = engine.admit(ctx, JOINER).map_err(|e| e.to_string())?;
        assert_reshard_accounts(&engine, &stats.reshard);
        let post = engine.snapshot();
        let post_losses = train_tail(ctx, &mut engine, &x)?;
        Ok(Outcome { pre: Some(pre), stats, post, post_losses })
    });
    results
}

#[test]
fn kill_then_join_matches_a_fresh_oracle_with_transferred_moments() {
    let telemetry = ClusterTelemetry::new(WORLD);
    let results = run_kill_then_join(telemetry.clone());

    // Sort the grown world's members by post-join logical rank. Only the
    // killed rank may panic; everyone else must finish.
    let mut by_logical: Vec<Option<Outcome>> = vec![None; ACTIVE];
    let mut phys_of = vec![0usize; ACTIVE];
    for (phys, r) in results.into_iter().enumerate() {
        match r {
            Err(panic) if phys == 2 => {
                assert!(panic.contains("fault injection"), "rank 2 panic: {panic}");
            }
            Err(panic) => panic!("only the killed rank may panic, rank {phys} did: {panic}"),
            Ok(inner) => {
                let o = inner.unwrap_or_else(|e| panic!("rank {phys} errored: {e}"));
                let lrank = o.post.logical_rank;
                phys_of[lrank] = phys;
                by_logical[lrank] = Some(o);
            }
        }
    }
    let members: Vec<Outcome> =
        by_logical.into_iter().map(|o| o.expect("dense logical ranks")).collect();
    assert_eq!(phys_of, vec![0, 1, 3, JOINER], "survivors stay dense; the joiner appends");

    // Every member agreed on the same join: epoch 2 (kill bumped to 1),
    // back to the original ACTIVE-rank world, at the clean boundary.
    for (lrank, o) in members.iter().enumerate() {
        assert_eq!(o.stats.membership_epoch, 2, "logical {lrank}");
        assert_eq!(o.stats.world_size, ACTIVE, "logical {lrank}");
        assert_eq!(o.stats.joiner, JOINER, "logical {lrank}");
        assert_eq!(o.stats.resume_iteration, JOIN_AT, "logical {lrank}: boundary join");
        assert_eq!(
            o.stats.reshard.reinitialized_params, 0,
            "logical {lrank}: a join never re-initializes optimizer state"
        );
        assert_eq!(
            o.stats.reshard.reseeded_params, 0,
            "logical {lrank}: a join never re-seeds moments from masters"
        );
        assert_eq!(o.post.iteration, JOIN_AT, "logical {lrank}");
        assert_eq!(o.post.world_size, ACTIVE, "logical {lrank}");
        assert_eq!(
            o.post_losses.len(),
            (ITERS - JOIN_AT) as usize,
            "logical {lrank}: the grown world runs every remaining iteration"
        );
        assert!(o.post_losses.iter().all(|l| l.is_finite()), "logical {lrank}");
    }
    let joiner = members.last().expect("the joiner is the highest logical rank");
    assert!(
        joiner.stats.reshard.transferred_params > 0,
        "the joiner's Adam slices arrive over the wire"
    );
    assert_eq!(joiner.stats.reshard.kept_params, 0, "the joiner had nothing to keep");

    // The moment-transfer contract: a grow is a pure re-partition. The
    // global (master, m, v) reassembled from the survivors' *pre-admit*
    // shards must equal the one reassembled from all four *post-join*
    // shards, bit for bit — and the joiner's slice of it must be exactly
    // the uniform chunk of the grown geometry.
    let pre_snaps: Vec<&EngineSnapshot> = members.iter().filter_map(|o| o.pre.as_ref()).collect();
    assert_eq!(pre_snaps.len(), ACTIVE - 1, "three survivors exported pre-admit state");
    let post_snaps: Vec<&EngineSnapshot> = members.iter().map(|o| &o.post).collect();
    let pre_global = global_state(&pre_snaps);
    let post_global = global_state(&post_snaps);
    for class in 0..E {
        assert_eq!(
            pre_global[class], post_global[class],
            "class {class}: the grow must re-partition state without altering a bit"
        );
    }
    let (j_start, j_end) = chunk_range(param_count(), ACTIVE, ACTIVE - 1);
    for (class, shard) in joiner.post.shards.iter().enumerate() {
        assert_eq!(shard.offset, j_start, "class {class}: joiner owns the last uniform chunk");
        assert_eq!(shard.len(), j_end - j_start, "class {class}");
        let pre_t = pre_snaps[0].shards[class].t;
        assert_eq!(shard.t, pre_t, "class {class}: the Adam step count travels with the state");
    }
    // Live training state made it across the wire: some class's moments in
    // the joiner's slice are nonzero. (Per-class would be too strong — a
    // cold class that routed no tokens has legitimately zero moments.)
    assert!(
        joiner.post.shards.iter().any(|s| s.m.iter().any(|&x| x != 0.0))
            && joiner.post.shards.iter().any(|s| s.v.iter().any(|&x| x != 0.0)),
        "transferred moments are live training state, not a blanket re-init"
    );

    // Phase B: the oracle. A brand-new ACTIVE-rank cluster seeded from the
    // post-join snapshots, each logical rank feeding the token stream of
    // the physical rank it maps to. Bit-exact equality, not tolerance.
    let snaps = Arc::new(members.iter().map(|o| o.post.clone()).collect::<Vec<_>>());
    let phys = phys_of.clone();
    let (oracle, _) = Cluster::run(ClusterSpec::flat(ACTIVE), move |ctx| {
        let mut engine = MoeLayerEngine::from_snapshot(cfg(), snaps[ctx.rank()].clone());
        engine.materialize_slots(ctx).expect("oracle materialization is fault-free");
        let x = tokens(phys[ctx.rank()]);
        let target = Matrix::zeros(T_LOC, D);
        let mut losses = Vec::new();
        while engine.iteration_count() < ITERS {
            losses.push(engine.iteration(ctx, &x, &target).expect("oracle is fault-free").loss);
        }
        losses
    });
    for (lrank, (member, oracle)) in members.iter().zip(&oracle).enumerate() {
        assert_eq!(
            &member.post_losses, oracle,
            "logical rank {lrank}: the grown cluster must be bit-exact vs the fresh oracle"
        );
    }

    // The join must land in the telemetry registry (the JSONL surface).
    let json = telemetry.registry().snapshot().to_string();
    for key in ["membership_epoch", "world_size", "transferred_params", "joins_total"] {
        assert!(json.contains(key), "telemetry snapshot must carry `{key}`: {json}");
    }
}

#[test]
fn healthy_grow_admits_the_standby_without_a_preceding_kill() {
    // No fault at all: 4 active ranks of a 5-rank physical cluster train
    // two iterations, then grow to 5. The join path must not depend on a
    // recovery having happened first (epoch 0 → 1 directly), and all five
    // members must agree bit-for-bit on every post-join loss.
    const GROW_AT: u64 = 2;
    let (results, _) = Cluster::run(ClusterSpec::flat(WORLD), |ctx| {
        let target = Matrix::zeros(T_LOC, D);
        if ctx.rank() == JOINER {
            let (mut engine, stats) =
                MoeLayerEngine::join(ctx, cfg(), Duration::from_secs(30)).expect("join succeeds");
            assert_reshard_accounts(&engine, &stats.reshard);
            let x = tokens(ctx.rank());
            let post_losses = train_tail(ctx, &mut engine, &x).expect("joiner trains clean");
            assert_eq!(engine.membership().size(), WORLD);
            return (stats, post_losses, engine.degraded_iterations());
        }
        let mut engine = active_member(ctx.rank());
        let x = tokens(ctx.rank());
        while engine.iteration_count() < GROW_AT {
            engine.iteration(ctx, &x, &target).expect("healthy pre-grow iteration");
        }
        let stats = engine.admit(ctx, JOINER).expect("admit succeeds");
        assert_reshard_accounts(&engine, &stats.reshard);
        let post_losses = train_tail(ctx, &mut engine, &x).expect("survivor trains clean");
        assert_eq!(engine.membership().size(), WORLD);
        (stats, post_losses, engine.degraded_iterations())
    });

    let reference = &results[0].1;
    assert_eq!(reference.len(), (ITERS - GROW_AT) as usize);
    for (rank, (stats, losses, degraded)) in results.iter().enumerate() {
        assert_eq!(stats.membership_epoch, 1, "rank {rank}: a healthy grow is the first epoch");
        assert_eq!(stats.world_size, WORLD, "rank {rank}");
        assert_eq!(stats.joiner, JOINER, "rank {rank}");
        assert_eq!(stats.resume_iteration, GROW_AT, "rank {rank}: nothing is skipped");
        assert_eq!(stats.reshard.reinitialized_params, 0, "rank {rank}");
        assert_eq!(stats.reshard.reseeded_params, 0, "rank {rank}");
        assert_eq!(losses, reference, "rank {rank}: members agree on every loss");
        assert!(losses.iter().all(|l| l.is_finite()), "rank {rank}");
        assert_eq!(*degraded, 0, "rank {rank}: a boundary grow degrades nothing");
        if rank == JOINER {
            assert!(stats.reshard.transferred_params > 0, "joiner state arrives over the wire");
        }
    }
}
