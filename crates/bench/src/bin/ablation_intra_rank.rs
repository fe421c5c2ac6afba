//! §4.1 ablation: intra-rank replication and the gradient phase.
//!
//! Two effects are quantified:
//! 1. packing replicas of one class onto few ranks shrinks the host group
//!    its replica gradients are summed over, and with it the gradient
//!    phase's wire traffic. Measured on the engine: `MoeLayerEngine` as SYMI
//!    runs it (Algorithm 1's contiguous, packed placement; every rank owns
//!    `1/N` of every class's optimizer state) against its DeepSpeed
//!    configuration (`MoeLayerEngine::edp_sharded` over
//!    `ExpertPlacement::striped`: every replica on its own rank, each
//!    class's state sharded over its hosts), at one geometry, from the bytes
//!    and messages sent under the gradient phases' tags — §4.1's reduce
//!    (`GradSync`) and Algorithm 2's collect (`GradCollect`);
//! 2. forbidding intra-rank replication (stock NCCL semantics) constrains
//!    the scheduler — each class can hold at most N replicas instead of
//!    sN — which costs token survival under skew (the paper measured up to
//!    20% more drops).

use symi::{compute_placement, EngineConfig, ExpertPlacement, MoeLayerEngine};
use symi_bench::output::Table;
use symi_collectives::{Cluster, ClusterSpec, WirePhase};
use symi_model::UniformPolicy;
use symi_tensor::{AdamConfig, Matrix};

const NODES: usize = 4;
const SLOTS: usize = 4;
const CLASSES: usize = 4;
const T_LOC: usize = 64;
const ITERS: usize = 6;

fn cfg() -> EngineConfig {
    EngineConfig {
        d_model: 32,
        d_ff: 128,
        expert_classes: CLASSES,
        slots_per_rank: SLOTS,
        slot_capacity: 1_000_000,
        adam: AdamConfig::default(),
        seed: 41,
        layer_id: 0,
    }
}

/// What the gradient phase sent over `ITERS` iterations, summed over ranks.
struct GradPhase {
    /// Host ranks per class, summed over classes and iterations.
    hosts: usize,
    /// `(bytes, messages)` of §4.1's reduce and of Algorithm 2's collect.
    reduce: (u64, u64),
    collect: (u64, u64),
    /// The owner rule's floor for reduce + collect, in bytes: `m(N−1)/N · P`
    /// floats per class for SYMI, `(m − 1) · P` for DeepSpeed.
    floor: u64,
}

/// Runs `ITERS` iterations after one warm-up (so Algorithm 1's placement
/// follows the routed popularity) and reads the gradient phases' wire
/// counters around them.
fn measure(deepspeed: bool) -> GradPhase {
    let cfg = cfg();
    let params = (2 * cfg.d_model * cfg.d_ff + cfg.d_ff + cfg.d_model) as u64;
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let mut engine = if deepspeed {
            let striped = ExpertPlacement::striped(CLASSES, NODES, SLOTS);
            let uniform = UniformPolicy { experts: CLASSES, total_slots: NODES * SLOTS };
            MoeLayerEngine::edp_sharded(rank, NODES, cfg, striped, Box::new(uniform))
        } else {
            MoeLayerEngine::new(rank, NODES, cfg)
        };
        let x = Matrix::from_fn(T_LOC, cfg.d_model, |r, c| {
            (((rank * T_LOC + r) * cfg.d_model + c) as f32 * 0.137).sin()
        });
        let target = Matrix::zeros(T_LOC, cfg.d_model);
        engine.iteration(ctx, &x, &target).expect("warm-up iteration");
        let wire = |ctx: &mut symi_collectives::RankCtx| {
            // Between two barriers no rank is sending.
            ctx.barrier();
            let counts = [WirePhase::GradSync, WirePhase::GradCollect]
                .map(|phase| ctx.traffic().wire_phase(phase));
            ctx.barrier();
            counts
        };
        let before = wire(ctx);
        let (mut hosts, mut floor) = (0usize, 0u64);
        for _ in 0..ITERS {
            let n = NODES as u64;
            for class in 0..CLASSES {
                let m = engine.placement.host_ranks(class).len() as u64;
                hosts += m as usize;
                floor +=
                    if deepspeed { 4 * (m - 1) * params } else { 4 * m * (n - 1) * params / n };
            }
            engine.iteration(ctx, &x, &target).expect("iteration");
        }
        let after = wire(ctx);
        let delta = |i: usize| (after[i].0 - before[i].0, after[i].1 - before[i].1);
        (delta(0), delta(1), hosts, floor)
    });
    let (reduce, collect, hosts, floor) = per_rank[0];
    GradPhase { hosts, reduce, collect, floor }
}

fn main() {
    println!("# §4.1 ablation — intra-rank replication and the gradient phase\n");
    println!(
        "## (1) Gradient phase per iteration: SYMI (Algorithm 1, packed) vs DeepSpeed (striped)\n"
    );
    let c = cfg();
    println!(
        "{NODES} ranks x {SLOTS} slots, {CLASSES} classes of {} params, {T_LOC} tokens/rank, \
         mean of {ITERS} iterations\n",
        2 * c.d_model * c.d_ff + c.d_ff + c.d_model
    );
    let mut t = Table::new(&[
        "system",
        "hosts per class",
        "reduce bytes",
        "reduce msgs",
        "collect bytes",
        "collect msgs",
        "total bytes",
        "total msgs",
        "floor bytes",
    ]);
    for (name, deepspeed) in [("SYMI (packed)", false), ("DeepSpeed (striped)", true)] {
        let g = measure(deepspeed);
        let total = (g.reduce.0 + g.collect.0, g.reduce.1 + g.collect.1);
        assert_eq!(total.0, g.floor, "{name}: reduce + collect must move exactly the floor");
        let per_iter = |v: u64| format!("{:.1}", v as f64 / ITERS as f64);
        t.row(vec![
            name.to_string(),
            format!("{:.2}", g.hosts as f64 / (ITERS * CLASSES) as f64),
            per_iter(g.reduce.0),
            per_iter(g.reduce.1),
            per_iter(g.collect.0),
            per_iter(g.collect.1),
            per_iter(total.0),
            per_iter(total.1),
            per_iter(g.floor),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Packed replicas sum on their own rank: the fewer ranks a class spans,\n\
         the less its reduce sends. Algorithm 1's contiguous assignment packs;\n\
         DeepSpeed's stripe puts every replica on its own rank.\n"
    );

    // (2) Scheduling constraint: cap replicas at N (no intra-rank EDP).
    let nodes = 8usize;
    let slots_per_rank = 4usize;
    println!("## (2) Token survival: unconstrained vs replicas-capped-at-N scheduling\n");
    let total_slots = nodes * slots_per_rank; // 32
    let e = 8usize;
    let slot_capacity = 1000.0f64 / total_slots as f64 * 1.0; // cf = 1.0, 1000 tokens
    let mut t2 = Table::new(&[
        "skew",
        "survival unconstrained (%)",
        "survival capped (%)",
        "drop increase (%)",
    ]);
    for (label, hot_share) in [("mild (2x)", 0.25), ("strong (8x)", 0.5), ("extreme", 0.8)] {
        let mut pop = vec![((1.0 - hot_share) * 1000.0 / (e as f64 - 1.0)) as u64; e];
        pop[0] = (hot_share * 1000.0) as u64;

        let survival = |counts: &[usize]| -> f64 {
            let survived: f64 = pop
                .iter()
                .zip(counts)
                .map(|(&p, &r)| (p as f64).min(slot_capacity * r as f64))
                .sum();
            survived / pop.iter().sum::<u64>() as f64
        };

        // Unconstrained: Algorithm 1.
        let free = compute_placement(&pop, total_slots);
        // Constrained: replicas per class can't exceed N; surplus is
        // redistributed to the next-most-popular classes.
        let mut capped = free.clone();
        let mut surplus = 0usize;
        for c in capped.iter_mut() {
            if *c > nodes {
                surplus += *c - nodes;
                *c = nodes;
            }
        }
        while surplus > 0 {
            let i = (0..e)
                .filter(|&i| capped[i] < nodes)
                .max_by_key(|&i| pop[i])
                .expect("capacity remains");
            capped[i] += 1;
            surplus -= 1;
        }

        let s_free = survival(&free) * 100.0;
        let s_capped = survival(&capped) * 100.0;
        let drop_increase = ((100.0 - s_capped) / (100.0 - s_free).max(1e-9) - 1.0) * 100.0;
        t2.row(vec![
            label.to_string(),
            format!("{s_free:.1}"),
            format!("{s_capped:.1}"),
            format!("{drop_increase:.0}"),
        ]);
    }
    println!("{}", t2.render());
    println!(
        "The paper reports the N-replica constraint can increase token drops by\n\
         up to 20%; removing it is what intra-rank replication buys."
    );
}
