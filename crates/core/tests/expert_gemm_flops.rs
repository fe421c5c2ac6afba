//! The engine's iteration runs exactly the GEMMs its maths needs.
//!
//! Per kept token row the expert phase runs five `2·d·d_ff` GEMMs: the
//! forward's `x·W1` and `act·W2`, and the backward's `actᵀ·dy` (dW2),
//! `dy·W2ᵀ` (d act) and `xᵀ·dpre` (dW1). The sixth GEMM of a full expert
//! backward, `dpre·W1ᵀ` (dX), is not run: the dispatched rows have no
//! trainable layer upstream. Per rank the frozen router adds one
//! `t_loc × d × E` GEMM. So one iteration issues
//! `survived·10·d·d_ff + N·2·t_loc·d·E` FLOPs, which this test reads from
//! the process-wide kernel counter around every iteration. It covers SYMI's
//! configuration (`MoeLayerEngine::new`) and DeepSpeed's (`build` over a
//! striped placement, host owners and a uniform policy), on 2 and 3 ranks, with
//! a slot capacity under which nothing drops and one under which tokens
//! drop. The counter is global to the process, so this binary holds this
//! one test.

use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine, Owners};
use symi_collectives::{Cluster, ClusterSpec, MembershipView};
use symi_model::train::UniformPolicy;
use symi_tensor::{kernel_stats, AdamConfig, Matrix};

const T_LOC: usize = 24;
const ITERATIONS: usize = 4;

fn cfg(slot_capacity: usize) -> EngineConfig {
    EngineConfig {
        d_model: 12,
        d_ff: 20,
        expert_classes: 4,
        slots_per_rank: 4,
        slot_capacity,
        adam: AdamConfig::default(),
        seed: 5,
        layer_id: 0,
    }
}

fn tokens(rank: usize, it: usize, d: usize) -> Matrix {
    Matrix::from_fn(T_LOC, d, |r, c| {
        (((it * 7 + rank) * T_LOC + r) as f32 * 0.91 + c as f32 * 0.37).sin()
    })
}

fn targets(rank: usize, it: usize, d: usize) -> Matrix {
    Matrix::from_fn(T_LOC, d, |r, c| (((rank + it) * T_LOC + r + 3 * c) as f32 * 0.13).cos() * 0.5)
}

/// Runs `ITERATIONS` iterations of the engine `make` builds on `nodes`
/// ranks and returns, per iteration, (GEMM FLOPs issued, tokens survived).
fn flops_per_iteration(
    nodes: usize,
    cfg: EngineConfig,
    make: impl Fn(usize) -> MoeLayerEngine + Sync,
) -> Vec<(u64, usize)> {
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
        let rank = ctx.rank();
        let mut engine = make(rank);
        let mut seen = Vec::new();
        for it in 0..ITERATIONS {
            let (x, target) = (tokens(rank, it, cfg.d_model), targets(rank, it, cfg.d_model));
            // Every rank is between iterations while rank 0 reads the counter.
            ctx.barrier();
            let before = kernel_stats().gemm_flops;
            ctx.barrier();
            let stats = engine.iteration(ctx, &x, &target).expect("iteration");
            ctx.barrier();
            assert!(!stats.degraded, "iteration {it} degraded");
            seen.push((kernel_stats().gemm_flops - before, stats.survived));
        }
        seen
    });
    per_rank.into_iter().next().expect("rank 0")
}

#[test]
fn an_iteration_runs_five_expert_gemms_per_kept_row_and_the_router() {
    let (d, ff, e) = (cfg(0).d_model, cfg(0).d_ff, cfg(0).expert_classes);
    for nodes in [2, 3] {
        for (capacity, drops) in [(1_000_000, false), (2, true)] {
            let cfg = cfg(capacity);
            let symi = |rank| MoeLayerEngine::new(rank, nodes, cfg);
            let deepspeed = |rank| {
                let placement = ExpertPlacement::striped(e, nodes, cfg.slots_per_rank);
                let owners = Owners::hosts_of(&placement);
                let policy = UniformPolicy { experts: e, total_slots: cfg.total_slots(nodes) };
                let view = MembershipView::full(nodes);
                MoeLayerEngine::build(rank, view, cfg, placement, owners, Box::new(policy))
            };
            let runs: [(&str, Vec<(u64, usize)>); 2] = [
                ("SYMI", flops_per_iteration(nodes, cfg, symi)),
                ("DeepSpeed", flops_per_iteration(nodes, cfg, deepspeed)),
            ];
            for (system, seen) in runs {
                for (it, &(flops, survived)) in seen.iter().enumerate() {
                    let at =
                        format!("{system}, {nodes} ranks, capacity {capacity}, iteration {it}");
                    assert!(survived > 0, "{at}: no token survived");
                    assert_eq!(survived < nodes * T_LOC, drops, "{at}: {survived} survived");
                    let expected = survived * 10 * d * ff + nodes * 2 * T_LOC * d * e;
                    assert_eq!(flops, expected as u64, "{at}: {survived} rows kept");
                }
            }
        }
    }
}
