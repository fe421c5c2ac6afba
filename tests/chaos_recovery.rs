//! Chaos harness: multi-iteration SYMI training under injected faults.
//!
//! The contract under test is the ISSUE's acceptance bar: for every fault
//! the plan can express, a run must end in exactly one of two states —
//!
//! 1. **bit-exact recovery**: the run completes and every per-iteration
//!    loss equals the no-fault oracle's bit for bit (delays absorbed by
//!    the stash, duplicates absorbed by the sequence filter), or
//! 2. **loud, fully diagnosed failure/degradation**: a decoded
//!    `ProtocolFailure` naming the starved phase, a rank death surfaced
//!    through `run_with_faults`, or a degraded iteration counted by the
//!    engine while training continues on the stale placement.
//!
//! Silent divergence (completing with different losses and no degraded
//! flag) and hangs are the two forbidden outcomes; every scenario below
//! asserts their absence.
//!
//! A third sanctioned outcome exists when the driver opts into **elastic
//! recovery** (`MoeLayerEngine::recover`): a permanently killed rank no
//! longer ends the run — survivors agree on a shrunk membership, re-shard
//! the optimizer, re-place the experts over `N−1` ranks, and finish
//! training at degraded capacity. The `elastic_*` scenarios pin that path,
//! up to bit-exactness against a fresh `N−1`-rank cluster seeded from the
//! recovered state.

use std::sync::Arc;
use std::time::Duration;

use symi::{EngineConfig, EngineSnapshot, MoeLayerEngine, RecoveryStats};
use symi_collectives::coll::chunk_range;
use symi_collectives::{
    Cluster, ClusterSpec, FaultPlan, FaultStats, MsgMatch, ProtocolStats, RetryPolicy, WirePhase,
};
use symi_integration::assert_reshard_accounts;
use symi_telemetry::ClusterTelemetry;
use symi_tensor::{AdamConfig, Matrix};

const NODES: usize = 4;
const D: usize = 8;
const DFF: usize = 16;
const E: usize = 4;
const S: usize = 2;
const T_LOC: usize = 8;
const ITERS: usize = 6;
/// Flat parameters of one expert class.
const P: usize = D * DFF + DFF + DFF * D + D;

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

/// Mildly skewed token embeddings so the placement actually rebalances.
fn tokens(rank: usize) -> Matrix {
    Matrix::from_fn(T_LOC, D, |r, c| {
        (c as f32 * 0.7).sin() + 0.05 * (((rank * T_LOC + r) * D + c) as f32 * 0.613).sin()
    })
}

/// What one rank observed over a full training run.
#[derive(Clone, Debug)]
struct RunOutcome {
    losses: Vec<f32>,
    degraded: u64,
    proto: ProtocolStats,
    faults: FaultStats,
}

/// The per-rank training loop every scenario drives.
fn train(
    ctx: &mut symi_collectives::RankCtx,
    timeout: Duration,
    retries: u32,
) -> Result<RunOutcome, String> {
    ctx.set_recv_timeout(Some(timeout));
    ctx.set_retry_policy(Some(RetryPolicy::new(retries, 2.0)));
    let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
    let x = tokens(ctx.rank());
    let target = Matrix::zeros(T_LOC, D);
    let mut losses = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        losses.push(engine.iteration(ctx, &x, &target).map_err(|e| e.to_string())?.loss);
    }
    Ok(RunOutcome {
        losses,
        degraded: engine.degraded_iterations(),
        proto: ctx.protocol_stats(),
        faults: ctx.fault_stats(),
    })
}

/// Runs the training loop under `plan`; outer `Err` is a rank panic
/// (kill fault), inner `Err` is a communication error string.
fn run_chaos(
    plan: FaultPlan,
    timeout: Duration,
    retries: u32,
) -> Vec<Result<Result<RunOutcome, String>, String>> {
    let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(NODES), plan, |ctx| {
        train(ctx, timeout, retries)
    });
    results
}

/// The no-fault oracle: plain runtime, no fault machinery, no timeouts.
fn oracle_losses() -> Vec<f32> {
    let (results, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        let x = tokens(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        (0..ITERS).map(|_| engine.iteration(ctx, &x, &target).unwrap().loss).collect::<Vec<f32>>()
    });
    results.into_iter().next().expect("rank 0 result")
}

/// What a rank observed over an elastic (recovery-enabled) training run.
#[derive(Clone, Debug)]
struct ElasticOutcome {
    losses: Vec<f32>,
    /// The engine iteration each loss came from (iterations skipped by a
    /// recovery leave gaps).
    loss_iters: Vec<u64>,
    /// Whether each loss's iteration degraded (a degraded loss may be
    /// rank-local — advisory, never compared bit-exact).
    loss_degraded: Vec<bool>,
    /// Final world size after all recoveries.
    world: usize,
    recoveries: Vec<RecoveryStats>,
}

/// The recovery-enabled per-rank loop: identical to [`train`] except that
/// a recoverable failure triggers `MoeLayerEngine::recover` instead of
/// ending the run. The iteration budget counts engine iterations, so the
/// aborted (skipped) iteration never yields a loss.
fn train_elastic(
    ctx: &mut symi_collectives::RankCtx,
    timeout: Duration,
    retries: u32,
    telemetry: Option<&Arc<ClusterTelemetry>>,
) -> Result<ElasticOutcome, String> {
    ctx.set_recv_timeout(Some(timeout));
    ctx.set_retry_policy(Some(RetryPolicy::new(retries, 2.0)));
    let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
    if let Some(t) = telemetry {
        engine.attach_telemetry(t.handle(ctx.rank()));
    }
    let x = tokens(ctx.rank());
    let target = Matrix::zeros(T_LOC, D);
    let mut losses = Vec::new();
    let mut loss_iters = Vec::new();
    let mut loss_degraded = Vec::new();
    let mut recoveries: Vec<RecoveryStats> = Vec::new();
    while engine.iteration_count() < ITERS as u64 {
        let iter = engine.iteration_count();
        match engine.iteration(ctx, &x, &target) {
            Ok(stats) => {
                losses.push(stats.loss);
                loss_iters.push(iter);
                loss_degraded.push(stats.degraded);
            }
            Err(e) if MoeLayerEngine::can_recover(&e) && recoveries.len() < NODES => {
                let rec = engine.recover(ctx, &e).map_err(|e| e.to_string())?;
                assert_reshard_accounts(&engine, &rec.reshard);
                recoveries.push(rec);
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(ElasticOutcome {
        losses,
        loss_iters,
        loss_degraded,
        world: engine.membership().size(),
        recoveries,
    })
}

fn run_elastic(
    plan: FaultPlan,
    timeout: Duration,
    retries: u32,
    telemetry: Option<Arc<ClusterTelemetry>>,
) -> Vec<Result<Result<ElasticOutcome, String>, String>> {
    let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(NODES), plan, move |ctx| {
        train_elastic(ctx, timeout, retries, telemetry.as_ref())
    });
    results
}

/// Splits an elastic chaos run into (killed-rank panics, survivor
/// outcomes), asserting only `dead` panicked and that its panic is the
/// self-described injection.
fn split_survivors(
    results: Vec<Result<Result<ElasticOutcome, String>, String>>,
    dead: usize,
) -> Vec<(usize, ElasticOutcome)> {
    let mut survivors = Vec::new();
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Err(panic) if rank == dead => {
                assert!(panic.contains("fault injection"), "rank {rank} panic: {panic}");
            }
            Err(panic) => panic!("only the killed rank may panic, rank {rank} did: {panic}"),
            Ok(inner) => {
                survivors.push((rank, inner.unwrap_or_else(|e| panic!("rank {rank} errored: {e}"))))
            }
        }
    }
    assert_eq!(survivors.len(), NODES - 1, "every survivor must finish");
    survivors
}

fn unwrap_ok(results: Vec<Result<Result<RunOutcome, String>, String>>) -> Vec<RunOutcome> {
    results
        .into_iter()
        .enumerate()
        .map(|(rank, r)| {
            r.unwrap_or_else(|p| panic!("rank {rank} panicked: {p}"))
                .unwrap_or_else(|e| panic!("rank {rank} errored: {e}"))
        })
        .collect()
}

#[test]
fn healthy_run_is_bit_exact_with_zero_protocol_noise() {
    let oracle = oracle_losses();
    let outcomes = unwrap_ok(run_chaos(FaultPlan::new(0), Duration::from_millis(200), 2));
    for (rank, o) in outcomes.iter().enumerate() {
        assert_eq!(o.losses, oracle, "rank {rank}: fault plumbing must not change the math");
        assert_eq!(o.degraded, 0, "rank {rank}");
        assert_eq!(o.proto.retries, 0, "rank {rank}: healthy runs never retry");
        assert_eq!(o.proto.fenced_messages, 0, "rank {rank}: healthy runs never fence");
        assert_eq!(o.proto.duplicates_dropped, 0, "rank {rank}");
        assert_eq!(o.faults, FaultStats::default(), "rank {rank}: empty plan injects nothing");
    }
}

#[test]
fn delayed_dispatch_messages_recover_bit_exact() {
    // Hold rank 0's dispatch traffic to rank 1 back behind two later sends:
    // the rows/meta all-to-all issues every send before blocking, so the
    // held message ages out within the phase and arrives out of order. The
    // receiver's stash must hide the reordering completely.
    let plan = FaultPlan::new(7)
        .delay(MsgMatch::any().from(0).to(1).phase(WirePhase::DispatchRows).iteration(2), 2)
        .delay(MsgMatch::any().from(0).to(1).phase(WirePhase::DispatchMeta).iteration(3), 1);
    let oracle = oracle_losses();
    let outcomes = unwrap_ok(run_chaos(plan, Duration::from_millis(200), 2));
    for (rank, o) in outcomes.iter().enumerate() {
        assert_eq!(o.losses, oracle, "rank {rank}: delays must recover bit-exact");
        assert_eq!(o.degraded, 0, "rank {rank}: a reorder is not a degradation");
    }
    assert_eq!(outcomes[0].faults.delayed, 2, "both delay rules fired at the sender");
}

#[test]
fn duplicated_messages_are_absorbed_bit_exact() {
    // Deliver *every* message twice, run-wide. The per-sender sequence
    // filter must drop each echo before it reaches tag matching.
    let plan = FaultPlan::new(11).duplicate(MsgMatch::any());
    let oracle = oracle_losses();
    let outcomes = unwrap_ok(run_chaos(plan, Duration::from_millis(200), 2));
    let mut dups_absorbed = 0;
    for (rank, o) in outcomes.iter().enumerate() {
        assert_eq!(o.losses, oracle, "rank {rank}: duplicates must recover bit-exact");
        assert_eq!(o.degraded, 0, "rank {rank}");
        assert!(o.faults.duplicated > 0, "rank {rank} sent traffic, so it duplicated some");
        dups_absorbed += o.proto.duplicates_dropped;
    }
    assert!(dups_absorbed > 0, "the sequence filter must have absorbed echoes");
}

#[test]
fn dropped_grad_messages_fail_loud_with_decoded_phase() {
    // Iteration 2's entire gradient-collection transfer set is silently
    // lost. There is no retransmission below the mailbox, so the receives
    // must starve and escalate to decoded ProtocolFailures; every other
    // rank then starves transitively (the advisory ring, weight transfers)
    // and errors too — as a Protocol escalation or, if its peers already
    // errored out and hung up, a peer-gone. Silence and hangs are the
    // bugs this scenario exists to catch.
    let plan =
        FaultPlan::new(3).drop_msgs(MsgMatch::any().phase(WirePhase::GradCollect).iteration(2));
    let results = run_chaos(plan, Duration::from_millis(60), 1);
    let mut decoded_grad_collect = 0;
    for (rank, r) in results.into_iter().enumerate() {
        let err = r
            .expect("drops starve ranks; they must not panic")
            .expect_err(&format!("rank {rank} must fail loudly, not diverge silently"));
        if err.contains("protocol failure") && err.contains("GradCollect") {
            decoded_grad_collect += 1;
        }
    }
    assert!(
        decoded_grad_collect > 0,
        "at least one rank must name the starved GradCollect transfer"
    );
}

#[test]
fn popularity_blackout_degrades_to_stale_placement_and_continues() {
    // Iteration 2's entire popularity sync — gather legs and the broadcast
    // (same phase bits under the subop) — vanishes. Every rank must starve
    // symmetrically, fall back to the previous iteration's placement, count
    // one degraded iteration, and keep training to the end.
    let plan =
        FaultPlan::new(5).drop_msgs(MsgMatch::any().phase(WirePhase::PopularitySync).iteration(2));
    let outcomes = unwrap_ok(run_chaos(plan, Duration::from_millis(60), 1));
    for (rank, o) in outcomes.iter().enumerate() {
        assert_eq!(o.losses.len(), ITERS, "rank {rank}: training must run to completion");
        assert!(o.losses.iter().all(|l| l.is_finite()), "rank {rank}: losses stay finite");
        assert_eq!(o.degraded, 1, "rank {rank}: exactly the blacked-out iteration degrades");
        assert!(o.proto.recv_timeouts > 0, "rank {rank}: degradation is triggered by starvation");
    }
}

#[test]
fn kill_without_recovery_opt_in_still_fails_loud() {
    // Rank 2 dies at its first dispatch event of iteration 1. Elastic
    // recovery is a *driver-level* opt-in: the plain training loop must
    // keep today's contract — survivors starve on the dead rank and error
    // out rather than hang (and never silently diverge).
    let plan =
        FaultPlan::new(9).kill(2, MsgMatch::any().phase(WirePhase::DispatchRows).iteration(1));
    let results = run_chaos(plan, Duration::from_millis(60), 1);
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Err(panic) if rank == 2 => {
                assert!(
                    panic.contains("fault injection"),
                    "rank 2's death is self-described: {panic}"
                );
            }
            Err(panic) => panic!("only the killed rank may panic, rank {rank} did: {panic}"),
            Ok(inner) => {
                let err = inner.expect_err(&format!(
                    "rank {rank} depends on the dead rank and must fail loudly"
                ));
                assert!(!err.is_empty(), "rank {rank}: error must carry a diagnosis");
            }
        }
    }
}

#[test]
fn elastic_recovery_survives_a_killed_rank_and_exports_gauges() {
    // The same kill as above, but with the recovery-enabled loop: the
    // survivors must agree rank 2 is dead, shrink to a 3-rank world, skip
    // the aborted iteration, and finish the full training budget. The
    // membership epoch and re-shard accounting must land in the telemetry
    // registry (the JSONL surface).
    let telemetry = ClusterTelemetry::new(NODES);
    let plan =
        FaultPlan::new(9).kill(2, MsgMatch::any().phase(WirePhase::DispatchRows).iteration(1));
    let results = run_elastic(plan, Duration::from_millis(60), 1, Some(telemetry.clone()));
    let survivors = split_survivors(results, 2);
    let reference = &survivors[0].1.losses;
    let mut reseeded_total = 0u64;
    for (rank, o) in &survivors {
        // Iteration 1 aborted and was skipped: 0 plus 2..ITERS yields one
        // loss fewer than the budget.
        assert_eq!(o.losses.len(), ITERS - 1, "rank {rank}: aborted iteration is skipped");
        assert!(o.losses.iter().all(|l| l.is_finite()), "rank {rank}: losses stay finite");
        assert_eq!(&o.losses, reference, "rank {rank}: survivors agree on every loss");
        assert_eq!(o.world, NODES - 1, "rank {rank}: the world shrank by the dead rank");
        assert_eq!(o.recoveries.len(), 1, "rank {rank}: exactly one recovery");
        let rec = &o.recoveries[0];
        assert_eq!(rec.dead_ranks, vec![2], "rank {rank}");
        assert_eq!(rec.membership_epoch, 1, "rank {rank}");
        assert_eq!(rec.world_size, NODES - 1, "rank {rank}");
        assert_eq!(rec.resume_iteration, 2, "rank {rank}: resume skips the aborted iteration");
        assert!(rec.reshard.kept_params > 0, "rank {rank}: overlapping slices kept their state");
        reseeded_total += rec.reshard.reseeded_params;
    }
    // Only the dead rank's chunk lost its fp32 owner, so exactly that chunk
    // of every class is re-seeded; what live owners held moves with its
    // moments.
    assert_eq!(reseeded_total as usize, E * P / NODES, "survivors re-seed the dead chunk only");
    let json = telemetry.registry().snapshot().to_string();
    for gauge in ["membership_epoch", "reseeded_params", "reinitialized_params", "world_size"] {
        assert!(json.contains(gauge), "telemetry snapshot must carry `{gauge}`: {json}");
    }
}

#[test]
fn elastic_shrink_moves_a_live_owners_slice_with_its_moments() {
    // Rank 2 dies at iteration 1's dispatch, so the world goes from 4 to 3
    // and the chunks of P = 280 from 70 to 94 / 93 / 93. Rank 0's chunk
    // grows from [0, 70) to [0, 94): [70, 94) was rank 1's, and rank 1 is
    // alive, so that slice must arrive as rank 1's fp32 master and Adam
    // moments bit for bit — not widened from an fp16 replica with the
    // moments zeroed. Only the dead rank's old chunk [140, 210) is
    // re-seeded: rank 1 acquires [140, 187), rank 3 [187, 210).
    let plan =
        FaultPlan::new(9).kill(2, MsgMatch::any().phase(WirePhase::DispatchRows).iteration(1));
    let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(NODES), plan, |ctx| {
        ctx.set_recv_timeout(Some(Duration::from_millis(60)));
        ctx.set_retry_policy(Some(RetryPolicy::new(1, 2.0)));
        let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        let x = tokens(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        let mut before = engine.snapshot();
        while engine.iteration_count() < ITERS as u64 {
            match engine.iteration(ctx, &x, &target) {
                Ok(_) => before = engine.snapshot(),
                Err(e) if MoeLayerEngine::can_recover(&e) => {
                    let rec = engine.recover(ctx, &e).map_err(|e| e.to_string())?;
                    return Ok((before, rec, engine.snapshot()));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("the kill must have triggered recovery".to_string())
    });
    let mut by_phys: Vec<Option<(EngineSnapshot, RecoveryStats, EngineSnapshot)>> =
        vec![None; NODES];
    for (phys, r) in results.into_iter().enumerate() {
        match r {
            Err(panic) => assert_eq!(phys, 2, "only the killed rank may panic: {panic}"),
            Ok(inner) => by_phys[phys] = Some(inner.unwrap_or_else(|e| panic!("rank {phys}: {e}"))),
        }
    }
    let reseeded: Vec<u64> = [0, 1, 3]
        .iter()
        .map(|&p| by_phys[p].as_ref().expect("a survivor").1.reshard.reseeded_params)
        .collect();
    assert_eq!(reseeded, vec![0, 188, 92], "per-survivor reseeded params on ranks 0 / 1 / 3");

    let (owner_before, _, _) = by_phys[1].as_ref().expect("rank 1 survives");
    let (_, rec0, rank0_after) = by_phys[0].as_ref().expect("rank 0 survives");
    assert_eq!(owner_before.iteration, 1, "rank 1's state at the end of iteration 0");
    let (slice_start, _) = chunk_range(P, NODES, 1);
    let (_, slice_end) = chunk_range(P, NODES - 1, 0);
    assert_eq!((slice_start, slice_end), (70, 94));
    assert_eq!(rec0.reshard.transferred_params as usize, E * (slice_end - slice_start));
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for class in 0..E {
        let got = &rank0_after.shards[class];
        let want = &owner_before.shards[class];
        let g = slice_start - got.offset..slice_end - got.offset;
        let w = slice_start - want.offset..slice_end - want.offset;
        assert_eq!(
            bits(&got.master[g.clone()]),
            bits(&want.master[w.clone()]),
            "class {class} master"
        );
        assert_eq!(bits(&got.m[g.clone()]), bits(&want.m[w.clone()]), "class {class} m");
        assert_eq!(bits(&got.v[g]), bits(&want.v[w]), "class {class} v");
    }
    assert!(
        owner_before
            .shards
            .iter()
            .any(|s| s.m[..slice_end - slice_start].iter().any(|&x| x != 0.0)),
        "the owner's moments must be live for the comparison to bite"
    );
}

#[test]
fn elastic_recovery_before_first_placement_reinitializes_the_orphan() {
    // Rank 2 dies during iteration 0's dispatch — before any rebalance, so
    // the placement is still the initial uniform one where class 2 lives
    // *only* on rank 2. Recovery must take the fp32-master path for the
    // orphan's surviving slices and canonical re-init for the slice that
    // died with rank 2's shard, and still finish training.
    let plan =
        FaultPlan::new(13).kill(2, MsgMatch::any().phase(WirePhase::DispatchRows).iteration(0));
    let survivors = split_survivors(run_elastic(plan, Duration::from_millis(60), 1, None), 2);
    let mut reinit_total = 0u64;
    for (rank, o) in &survivors {
        assert_eq!(o.losses.len(), ITERS - 1, "rank {rank}: iteration 0 is skipped");
        assert!(o.losses.iter().all(|l| l.is_finite()), "rank {rank}");
        assert_eq!(o.world, NODES - 1, "rank {rank}");
        assert_eq!(o.recoveries.len(), 1, "rank {rank}");
        let rec = &o.recoveries[0];
        assert_eq!(rec.resume_iteration, 1, "rank {rank}: resume right after the aborted start");
        assert!(
            rec.reshard.reinitialized_params <= rec.reshard.reseeded_params,
            "rank {rank}: re-init is a subset of re-seeding"
        );
        reinit_total += rec.reshard.reinitialized_params;
    }
    // Exactly the orphaned class's dead slice is re-initialized: class 2's
    // fp32 chunk on rank 2 had no surviving fp16 replica and no surviving
    // owner. Every other (class, slice) had a surviving source.
    assert_eq!(
        reinit_total as usize,
        P / NODES,
        "the survivors re-initialize exactly the orphan's dead quarter"
    );
}

#[test]
fn elastic_recovery_during_weight_distribute() {
    // Rank 2 dies mid-materialization: its Adam step for iteration 1 is
    // already applied locally, but its weight-distribute sends never leave.
    // Survivors starve in the distribute phase and must recover — this is
    // the worst case for state freshness (masters stepped, replicas stale),
    // which recovery absorbs by re-sharding from surviving copies. The
    // scatter completes inside iteration 1, so every survivor fails there
    // in lockstep.
    let plan =
        FaultPlan::new(17).kill(2, MsgMatch::any().phase(WirePhase::WeightDistribute).iteration(1));
    let survivors = split_survivors(run_elastic(plan, Duration::from_millis(60), 1, None), 2);
    let reference = &survivors[0].1;
    for (rank, o) in &survivors {
        assert!(o.losses.iter().all(|l| l.is_finite()), "rank {rank}");
        assert_eq!(o.world, NODES - 1, "rank {rank}");
        assert_eq!(o.recoveries.len(), 1, "rank {rank}");
        assert_eq!(
            o.recoveries[0].resume_iteration, 2,
            "rank {rank}: the torn iteration is skipped"
        );
        // Iteration 0 before the kill, then every iteration from the resume
        // point on the shrunk world.
        let expected: Vec<u64> = (0..ITERS as u64).filter(|&it| it != 1).collect();
        assert_eq!(o.loss_iters, expected, "rank {rank}: only the torn iteration is missing");
        assert!(!o.loss_degraded[0], "rank {rank}: the pre-kill iteration never degrades");
        assert_eq!(&o.losses, &reference.losses, "rank {rank}: survivors agree on every loss");
    }
}

#[test]
fn elastic_recovery_levels_the_adam_steps_of_a_kill_inside_the_reduce() {
    // A class with several hosts is stepped right after its own replica
    // reduce, so a rank that dies in the reduce of the second class it
    // shares leaves the iteration torn: the peer of its first class has
    // stepped that class and no other; ranks that share neither have
    // stepped theirs; the rest nothing. Those steps stand, but the
    // re-shard must level every chunk's step counter to the furthest
    // member's, so that after recovery every class on every survivor
    // steps on from one count — and the survivors agree on every later
    // loss.
    //
    // The kill needs a rank hosting two classes that each have another
    // host, which the initial placement (one class per rank) does not
    // have: a healthy run finds the first iteration that reduces under
    // such a placement.
    let spread = |rank: usize| {
        Matrix::from_fn(T_LOC, D, |r, c| (((rank * T_LOC + r) * D + c) as f32 * 0.917).sin())
    };
    let (placements, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        let x = spread(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        let mut seen = Vec::new();
        for _ in 0..ITERS {
            seen.push(engine.placement.clone());
            engine.iteration(ctx, &x, &target).expect("the probe is fault-free");
        }
        seen
    });
    let shared = |p: &symi::ExpertPlacement, rank: usize| -> Vec<usize> {
        let classes = p.classes_on_rank(rank).into_iter().map(|(class, _)| class);
        classes.filter(|&class| p.host_ranks(class).len() > 1).collect()
    };
    let (iteration, dead, class) = placements[0]
        .iter()
        .enumerate()
        .find_map(|(it, p)| {
            let rank = (0..NODES).find(|&r| shared(p, r).len() >= 2)?;
            Some((it as u64, rank, shared(p, rank)[1]))
        })
        .unwrap_or_else(|| {
            panic!(
                "no rank reduces two shared classes: {:?}",
                placements[0].iter().map(|p| p.replica_counts()).collect::<Vec<_>>()
            )
        });
    let plan = FaultPlan::new(29).kill(
        dead,
        MsgMatch::any().phase(WirePhase::GradSync).iteration(iteration).entity(class as u64),
    );
    let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(NODES), plan, |ctx| {
        ctx.set_recv_timeout(Some(Duration::from_millis(60)));
        ctx.set_retry_policy(Some(RetryPolicy::new(1, 2.0)));
        let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        let x = spread(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        let steps = |snap: EngineSnapshot| snap.shards.iter().map(|s| s.t).collect::<Vec<u64>>();
        let (mut torn, mut leveled, mut losses) = (None, None, Vec::new());
        while engine.iteration_count() < ITERS as u64 {
            match engine.iteration(ctx, &x, &target) {
                Ok(stats) if leveled.is_some() => losses.push((stats.loss, stats.degraded)),
                Ok(_) => {}
                Err(e) if MoeLayerEngine::can_recover(&e) && torn.is_none() => {
                    torn = Some(steps(engine.snapshot()));
                    engine.recover(ctx, &e).map_err(|e| e.to_string())?;
                    leveled = Some(steps(engine.snapshot()));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        let torn = torn.ok_or("the kill must have triggered recovery")?;
        Ok((torn, leveled.expect("recovered"), losses))
    });
    let mut survivors = Vec::new();
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Err(panic) => assert_eq!(rank, dead, "only the killed rank may panic: {panic}"),
            Ok(inner) => survivors.push(inner.unwrap_or_else(|e| panic!("rank {rank}: {e}"))),
        }
    }
    assert_eq!(survivors.len(), NODES - 1, "every survivor must finish");
    let torn_counts: Vec<&u64> = survivors.iter().flat_map(|(torn, _, _)| torn).collect();
    assert!(
        torn_counts.iter().any(|&&t| t != *torn_counts[0]),
        "the kill must tear the iteration's Adam steps for this test to bite: {torn_counts:?}"
    );
    let furthest = **torn_counts.iter().max().expect("survivors");
    assert_eq!(furthest, iteration + 1, "the torn iteration stepped some classes");
    for (rank, (torn, leveled, _)) in survivors.iter().enumerate() {
        assert!(
            leveled.iter().all(|&t| t == furthest),
            "survivor {rank}: step counts {torn:?} re-sharded to {leveled:?}, not all {furthest}"
        );
    }
    let clean = |losses: &[(f32, bool)]| -> Vec<f32> {
        losses.iter().filter(|(_, degraded)| !degraded).map(|(l, _)| *l).collect()
    };
    let reference = clean(&survivors[0].2);
    assert!(!reference.is_empty(), "recovery must leave iterations to compare");
    for (rank, (_, _, losses)) in survivors.iter().enumerate() {
        assert_eq!(clean(losses), reference, "survivor {rank}: the survivors agree on every loss");
        assert!(losses.iter().all(|(l, _)| l.is_finite()), "survivor {rank}");
    }
}

#[test]
fn weight_distribute_traffic_absorbs_delay_and_duplication() {
    // The weight scatter is the one phase whose messages install training
    // state directly into the slots. Hold rank 0's shards for rank 1 back
    // behind three later sends — the last of them past the end of the
    // scatter, into the advisory ring — and echo every other shard: the
    // structured tags' in-band epochs plus the per-sender sequence filter
    // must keep every landed shard exact. Stale-weight application would
    // show up as a loss divergence, which is the forbidden silent outcome.
    let plan = FaultPlan::new(23)
        .delay(MsgMatch::any().from(0).to(1).phase(WirePhase::WeightDistribute), 3)
        .duplicate(MsgMatch::any().phase(WirePhase::WeightDistribute));
    let oracle = oracle_losses();
    let outcomes = unwrap_ok(run_chaos(plan, Duration::from_millis(200), 2));
    for (rank, o) in outcomes.iter().enumerate() {
        assert_eq!(o.losses, oracle, "rank {rank}: faulted weight traffic must stay bit-exact");
        assert_eq!(o.degraded, 0, "rank {rank}: delays/echoes are absorbed, not degraded");
        assert!(o.faults.duplicated > 0, "rank {rank} scattered shards, so it echoed some");
    }
    assert!(outcomes[0].faults.delayed > 0, "rank 0's shards for rank 1 were held back");
    assert!(outcomes[1].proto.duplicates_dropped > 0, "the sequence filter absorbed echoes");
}

#[test]
fn elastic_recovery_matches_a_fresh_n_minus_one_oracle_bit_exact() {
    // The acceptance bar: after recovery, the surviving cluster must be
    // mathematically indistinguishable from a *fresh* 3-rank cluster seeded
    // with the recovered state. Phase A kills rank 2 and records every
    // post-recovery loss; phase B replays from the post-recovery snapshots
    // on a clean 3-rank runtime. Bit-exact equality, not tolerance.
    let plan =
        FaultPlan::new(9).kill(2, MsgMatch::any().phase(WirePhase::DispatchRows).iteration(1));
    let (results, _) = Cluster::run_with_faults(ClusterSpec::flat(NODES), plan, |ctx| {
        ctx.set_recv_timeout(Some(Duration::from_millis(60)));
        ctx.set_retry_policy(Some(RetryPolicy::new(1, 2.0)));
        let mut engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        let x = tokens(ctx.rank());
        let target = Matrix::zeros(T_LOC, D);
        let mut snap: Option<EngineSnapshot> = None;
        let mut post_losses = Vec::new();
        while engine.iteration_count() < ITERS as u64 {
            match engine.iteration(ctx, &x, &target) {
                Ok(stats) => {
                    if snap.is_some() {
                        post_losses.push(stats.loss);
                    }
                }
                Err(e) if MoeLayerEngine::can_recover(&e) => {
                    engine.recover(ctx, &e).map_err(|e| e.to_string())?;
                    assert!(snap.is_none(), "this plan kills exactly once");
                    snap = Some(engine.snapshot());
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok((snap.expect("the kill must have triggered recovery"), post_losses))
    });

    // Index survivors by their post-recovery logical rank.
    let mut by_logical: Vec<Option<(EngineSnapshot, Vec<f32>)>> = vec![None; NODES - 1];
    let mut phys_of = vec![0usize; NODES - 1];
    for (phys, r) in results.into_iter().enumerate() {
        match r {
            Err(panic) => {
                assert_eq!(phys, 2, "only the killed rank may panic: {panic}");
            }
            Ok(inner) => {
                let (snap, losses) = inner.unwrap_or_else(|e| panic!("rank {phys}: {e}"));
                let lrank = snap.logical_rank;
                phys_of[lrank] = phys;
                by_logical[lrank] = Some((snap, losses));
            }
        }
    }
    let survivors: Vec<(EngineSnapshot, Vec<f32>)> =
        by_logical.into_iter().map(|s| s.expect("dense logical ranks")).collect();
    assert_eq!(phys_of, vec![0, 1, 3], "survivors compact into dense logical ranks");
    assert!(
        survivors.iter().all(|(_, l)| !l.is_empty()),
        "recovery must leave iterations to compare"
    );

    // Phase B: the oracle. A brand-new 3-rank cluster, seeded from the
    // recovered snapshots, each logical rank feeding the token stream of
    // the physical rank it used to be.
    let snaps = Arc::new(survivors.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>());
    let phys = phys_of.clone();
    let (oracle, _) = Cluster::run(ClusterSpec::flat(NODES - 1), move |ctx| {
        let mut engine = MoeLayerEngine::from_snapshot(cfg(), snaps[ctx.rank()].clone());
        engine.materialize_slots(ctx).expect("oracle materialization is fault-free");
        let x = tokens(phys[ctx.rank()]);
        let target = Matrix::zeros(T_LOC, D);
        let mut losses = Vec::new();
        while engine.iteration_count() < ITERS as u64 {
            losses.push(engine.iteration(ctx, &x, &target).expect("oracle is fault-free").loss);
        }
        losses
    });
    for (lrank, ((_, recovered), oracle)) in survivors.iter().zip(&oracle).enumerate() {
        assert_eq!(
            recovered, oracle,
            "logical rank {lrank}: the recovered cluster must be bit-exact vs the fresh oracle"
        );
    }
}

#[test]
fn seeded_fault_matrix_recovers_bit_exact() {
    // CI smoke: a small matrix of recoverable chaos (probabilistic
    // duplicates everywhere, probabilistic dispatch reordering) across
    // seeds. Every cell must reach bit-exact parity with the oracle — a
    // failing seed replays deterministically by construction.
    let oracle = oracle_losses();
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::new(seed)
            .duplicate(MsgMatch::any().probability(0.5))
            .delay(MsgMatch::any().phase(WirePhase::DispatchRows).probability(0.25), 1)
            .delay(MsgMatch::any().phase(WirePhase::DispatchMeta).probability(0.25), 1);
        let outcomes = unwrap_ok(run_chaos(plan, Duration::from_millis(200), 2));
        for (rank, o) in outcomes.iter().enumerate() {
            assert_eq!(o.losses, oracle, "seed {seed}, rank {rank}: recoverable chaos diverged");
            assert_eq!(o.degraded, 0, "seed {seed}, rank {rank}");
        }
        let injected: u64 = outcomes.iter().map(|o| o.faults.message_faults()).sum();
        assert!(injected > 0, "seed {seed}: the plan must actually have injected faults");
    }
}
