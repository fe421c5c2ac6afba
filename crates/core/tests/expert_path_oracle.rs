//! Engine runs held, bit for bit, to the token, gradient and parameter paths
//! the engine used to take.
//!
//! **Token path.** `MoeLayerEngine::iteration` assembles dispatch rows
//! straight into persistent per-slot matrices and runs
//! `forward_into`/`backward_into`. It used to collect a `Vec<f32>` per slot,
//! clone it into a fresh `Matrix` and call the allocating
//! `forward()`/`backward()`. The tests keep that old recipe as an oracle:
//! before every iteration the ranks publish their slot weights, each rank
//! then replays the *whole* world's token path the old way — route,
//! capacity-assign, gather rows per slot in arrival order, `from_vec(clone)`
//! and `forward`, combine, loss, gated upstream grads, then `zero_grad`,
//! `from_vec(clone)`, `backward` and an owned flat copy of the gradient.
//!
//! **Gradient path.** The slot's flat gradient is now *the* buffer: backward
//! writes it, the §4.1 sync folds busy co-located siblings into the
//! representative and ring-reduces it in place, Adam steps from a slice of
//! it. It used to be zero-filled, accumulated into, flattened into a staging
//! vector per slot, folded sibling by sibling (idle ones included), reduced,
//! copied back out to every sibling, and its local shard copied once more
//! for Adam. The first test holds the new path to the old one's *values* on
//! 2 ranks, every iteration: the loss, every busy non-representative
//! slot's gradient, every representative's synchronized
//! gradient (the old fold in ascending slot order, then the ring's sum —
//! one commutative add per element on two ranks), and `grad_is_zero()` on
//! every idle non-representative. The third runs 3 ranks, where the ring's
//! summation order matters, and replays the old path with the real
//! collectives (under a second layer's tags) into a second `SymiOptimizer`
//! per rank: after every iteration the engine's fp32 master shards must
//! equal that optimizer's, bit for bit. Placement rebalances between
//! iterations, so slots go busy and idle and change shape across the runs.
//!
//! **Parameter path.** The second test holds the *parameter* path to its old
//! recipe the same way. The optimizer used to publish an f32 shard on the fp16 grid,
//! `encode_f16` it, decode every source's chunk into a `full` vector per
//! class, clone that per sibling slot and `load_flat` it; now the Adam
//! kernel writes binary16 bits and the scatter decodes each chunk straight
//! into the hosting slots. After every iteration every slot's weights must
//! equal the old recipe replayed — with the scalar conversions — from the
//! masters the ranks hold.

use std::sync::{Barrier, Mutex};

use symi::engine::assign_token_slots;
use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine, SymiOptimizer};
use symi_collectives::{Cluster, ClusterSpec, TagSpace, WirePhase};
use symi_model::expert::ExpertFfn;
use symi_tensor::half::{f16_to_f32, f32_to_f16, quantize_f16};
use symi_tensor::ops::softmax_rows;
use symi_tensor::rng::StdRng;
use symi_tensor::{init, AdamConfig, Matrix};

const NODES: usize = 2;
const T_LOC: usize = 48;
const ITERS: usize = 6;

fn cfg() -> EngineConfig {
    EngineConfig {
        d_model: 8,
        d_ff: 24,
        expert_classes: 4,
        slots_per_rank: 4,
        // Tight enough that tokens spill to sibling replicas and some drop.
        slot_capacity: 10,
        adam: AdamConfig::default(),
        seed: 91,
        layer_id: 0,
    }
}

/// Mostly one cluster in embedding space (so the router skews the load and
/// the placement has something to rebalance), drifting with the iteration.
fn tokens(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        let id = ((rank * T_LOC + r) * 8 + c) as f32;
        if (r + it) % 6 == 5 {
            // A few stragglers pointing anywhere: classes the cluster has
            // drifted away from still draw a token or two, so some of their
            // replicas work while their co-located siblings sit idle.
            return 1.5 * (id * 1.913 + it as f32 * 2.3).sin();
        }
        let base = (c as f32 * 0.7 + it as f32 * 0.9).sin();
        base + 0.4 * (id * 0.613).sin()
    })
}

fn targets(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        (((rank * T_LOC + r) * 8 + c) as f32 * 0.097 - it as f32 * 0.19).cos() * 0.5
    })
}

/// What the old token path produces over the whole world.
struct OldPath {
    loss: f32,
    /// Every global slot's flat gradient (`zero_grad` + `backward` + an
    /// owned flat copy; all `+0.0` for an idle slot).
    grads: Vec<Vec<f32>>,
    /// Whether each global slot received any token.
    busy: Vec<bool>,
}

/// The old token path over the whole `nodes`-rank world. `weights[g]` are
/// the flat parameters loaded in global slot `g`.
fn old_path_oracle(
    cfg: &EngineConfig,
    placement: &ExpertPlacement,
    weights: &[Vec<f32>],
    it: usize,
) -> OldPath {
    let nodes = placement.ranks();
    let d = cfg.d_model;
    let total = placement.total_slots();
    // The engine's frozen router (identical on every rank by construction).
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x70c7);
    let router_w = init::normal(d, cfg.expert_classes, 0.3, &mut rng);

    // Route + capacity-assign each rank's tokens.
    struct Routed {
        kept: Vec<usize>,
        kept_slot: Vec<usize>,
        gates: Vec<f32>,
    }
    let routed: Vec<Routed> = (0..nodes)
        .map(|rank| {
            let probs = softmax_rows(&tokens(rank, it).matmul(&router_w));
            let mut assignment = Vec::new();
            let mut gates = Vec::new();
            for t in 0..T_LOC {
                let (best, &p) = probs
                    .row(t)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
                    .expect("at least one class");
                assignment.push(best);
                gates.push(p);
            }
            let (kept, kept_slot, _) =
                assign_token_slots(&assignment, placement, cfg.slot_capacity, rank, rank * T_LOC);
            Routed { kept, kept_slot, gates }
        })
        .collect();

    // Per-slot inputs in arrival order: source rank ascending, send order.
    let mut slot_inputs: Vec<Vec<f32>> = vec![Vec::new(); total];
    let mut slot_rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); total]; // (rank, token)
    for (rank, r) in routed.iter().enumerate() {
        let x = tokens(rank, it);
        for (&t, &slot) in r.kept.iter().zip(&r.kept_slot) {
            slot_inputs[slot].extend_from_slice(x.row(t));
            slot_rows[slot].push((rank, t));
        }
    }

    // Forward the old way.
    let mut experts: Vec<ExpertFfn> = weights
        .iter()
        .map(|w| {
            let mut e = ExpertFfn::new(d, cfg.d_ff, 0);
            e.load_flat(w);
            e
        })
        .collect();
    let slot_outputs: Vec<Matrix> = experts
        .iter_mut()
        .zip(&slot_inputs)
        .map(|(expert, flat)| {
            if flat.is_empty() {
                Matrix::zeros(0, d)
            } else {
                expert.forward(&Matrix::from_vec(flat.len() / d, d, flat.clone()))
            }
        })
        .collect();

    // Combine, loss, upstream gradient — per rank, as the engine does.
    let t_global = (T_LOC * nodes) as f32;
    let mut ys: Vec<Matrix> = (0..nodes).map(|_| Matrix::zeros(T_LOC, d)).collect();
    for (slot, rows) in slot_rows.iter().enumerate() {
        for (row, &(rank, t)) in rows.iter().enumerate() {
            let g = routed[rank].gates[t];
            for (c, &v) in slot_outputs[slot].row(row).iter().enumerate() {
                ys[rank][(t, c)] += g * v;
            }
        }
    }
    let mut sq_sum = 0.0f32;
    let mut dys = Vec::new();
    for (rank, y) in ys.iter().enumerate() {
        let mut dy = y.clone();
        dy.axpy(-1.0, &targets(rank, it));
        let local_sq: f32 = dy.as_slice().iter().map(|v| v * v).sum();
        sq_sum += local_sq;
        dy.scale(2.0 / (t_global * d as f32));
        dys.push(dy);
    }
    let loss = sq_sum / (t_global * d as f32);

    // Backward the old way.
    let grads = experts
        .iter_mut()
        .zip(&slot_rows)
        .map(|(expert, rows)| {
            expert.zero_grad();
            if !rows.is_empty() {
                let mut flat = Vec::with_capacity(rows.len() * d);
                for &(rank, t) in rows {
                    let g = routed[rank].gates[t];
                    flat.extend(dys[rank].row(t).iter().map(|&v| v * g));
                }
                let _ = expert.backward(&Matrix::from_vec(rows.len(), d, flat.clone()));
            }
            expert.flat_grads().to_vec()
        })
        .collect();
    OldPath { loss, grads, busy: slot_rows.iter().map(|rows| !rows.is_empty()).collect() }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The old §4.1 fold on one rank: the representative's staged copy plus
/// every co-located sibling's — idle ones' zeros included — in ascending
/// slot order. `slots` are the class's global slots on that rank.
fn old_fold(grads: &[Vec<f32>], slots: &[usize]) -> Vec<f32> {
    let mut rep = grads[slots[0]].clone();
    for &sibling in &slots[1..] {
        for (r, v) in rep.iter_mut().zip(&grads[sibling]) {
            *r += v;
        }
    }
    rep
}

/// Publishes this rank's slot weights and returns every rank's, by global
/// slot.
fn exchange_slot_weights(
    engine: &MoeLayerEngine,
    rank: usize,
    board: &Mutex<Vec<Vec<f32>>>,
    barrier: &Barrier,
) -> Vec<Vec<f32>> {
    let s = cfg().slots_per_rank;
    {
        let mut b = board.lock().expect("board");
        for local in 0..s {
            b[rank * s + local] = engine.slot_weights(local);
        }
    }
    barrier.wait();
    let weights = board.lock().expect("board").clone();
    barrier.wait(); // nobody overwrites the board before all have read it
    weights
}

/// What a run's placements and token loads happened to exercise.
#[derive(Clone, Copy, Default)]
struct Seen {
    idle_sibling: bool,
    idle_rep_beside_busy_sibling: bool,
    busy_rep_beside_idle_sibling: bool,
    busy_non_rep: bool,
    class_on_both_ranks: bool,
}

#[test]
fn two_rank_run_matches_the_from_vec_clone_oracle_bit_for_bit() {
    let cfg = cfg();
    let s = cfg.slots_per_rank;
    let board: Mutex<Vec<Vec<f32>>> = Mutex::new(vec![Vec::new(); NODES * s]);
    let barrier = Barrier::new(NODES);
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let mut engine = MoeLayerEngine::new(rank, NODES, cfg);
        let mut placements = Vec::new();
        let mut saw = Seen::default();
        for it in 0..ITERS {
            let weights = exchange_slot_weights(&engine, rank, &board, &barrier);
            let placement = engine.placement.clone();
            let want = old_path_oracle(&cfg, &placement, &weights, it);

            let stats =
                engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");
            let at = format!("rank {rank} iteration {it}");
            assert_eq!(
                stats.loss.to_bits(),
                want.loss.to_bits(),
                "{at}: loss {} vs oracle {}",
                stats.loss,
                want.loss
            );
            for (class, locals) in placement.classes_on_rank(rank) {
                // Every non-representative keeps its own backward's
                // gradient — or, idle, is never touched at all.
                for &local in &locals[1..] {
                    let global = rank * s + local;
                    if want.busy[global] {
                        assert_eq!(
                            bits(&engine.slot_grads(local)),
                            bits(&want.grads[global]),
                            "{at}: slot {local} gradients differ"
                        );
                        saw.busy_non_rep = true;
                    } else {
                        assert!(
                            engine.slot_grad_is_zero(local),
                            "{at}: idle slot {local} had its gradient touched"
                        );
                        assert!(engine.slot_grads(local).iter().all(|g| g.to_bits() == 0));
                        saw.idle_sibling = true;
                    }
                }
                // The representative holds the old recipe's synchronized
                // gradient: each host rank's fold, then the ring's sum.
                let hosts = placement.host_ranks(class);
                let mut synced: Option<Vec<f32>> = None;
                for &host in &hosts {
                    let slots: Vec<usize> = placement
                        .slots_of_class(class)
                        .into_iter()
                        .filter(|slot| slot / s == host)
                        .collect();
                    let folded = old_fold(&want.grads, &slots);
                    synced = Some(match synced {
                        None => folded,
                        Some(acc) => acc.iter().zip(&folded).map(|(a, b)| a + b).collect(),
                    });
                }
                assert_eq!(
                    bits(&engine.slot_grads(locals[0])),
                    bits(&synced.expect("hosted somewhere")),
                    "{at}: class {class}'s synchronized gradient differs"
                );
                let rep_busy = want.busy[rank * s + locals[0]];
                let siblings_busy = || locals[1..].iter().map(|l| want.busy[rank * s + l]);
                saw.idle_rep_beside_busy_sibling |= !rep_busy && siblings_busy().any(|b| b);
                saw.busy_rep_beside_idle_sibling |= rep_busy && siblings_busy().any(|b| !b);
                saw.class_on_both_ranks |= hosts.len() > 1;
            }
            assert!(stats.dropped > 0 && stats.survived > 0, "capacity must bind: {stats:?}");
            placements.push(placement.replica_counts());
        }
        (placements, saw)
    });
    // The scenario must actually exercise what it claims to.
    let (placements, _) = &per_rank[0];
    assert!(
        placements.iter().any(|p| p != &placements[0]),
        "placement never rebalanced: {placements:?}"
    );
    let saw = |what: fn(&Seen) -> bool| per_rank.iter().any(|(_, seen)| what(seen));
    assert!(saw(|s| s.idle_sibling), "no co-located sibling ever sat idle");
    assert!(
        saw(|s| s.idle_rep_beside_busy_sibling),
        "no representative ever sat idle beside a busy sibling"
    );
    assert!(
        saw(|s| s.busy_rep_beside_idle_sibling),
        "no busy representative ever had an idle sibling to skip"
    );
    assert!(saw(|s| s.busy_non_rep), "no busy non-representative slot was ever compared");
    assert!(saw(|s| s.class_on_both_ranks), "no class ever spanned both ranks");
}

/// 3 ranks: the ring's summation order is no longer one commutative add, so
/// the old gradient path is replayed with the real collectives — flatten,
/// fold every sibling, ring all-reduce, copy back out, collect with an owned
/// copy of the local shard, Adam — into a second optimizer per rank, under a
/// second layer's tags. The engine's masters must track it bit for bit.
#[test]
fn three_rank_masters_match_the_staged_gradient_path_replayed() {
    const RANKS: usize = 3;
    let cfg = cfg();
    let (s, e) = (cfg.slots_per_rank, cfg.expert_classes);
    let board: Mutex<Vec<Vec<f32>>> = Mutex::new(vec![Vec::new(); RANKS * s]);
    let barrier = Barrier::new(RANKS);
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(RANKS), |ctx| {
        let rank = ctx.rank();
        let mut engine = MoeLayerEngine::new(rank, RANKS, cfg);
        let class_params: Vec<Vec<f32>> = (0..e)
            .map(|class| {
                ExpertFfn::new(cfg.d_model, cfg.d_ff, cfg.seed ^ (0xe0 + class as u64))
                    .flat_params()
            })
            .collect();
        let mut old_optimizer = SymiOptimizer::new(rank, RANKS, cfg.adam, &class_params);
        let mut widest_ring = 0;
        let mut saw_half_idle_class = false;
        for it in 0..ITERS {
            let weights = exchange_slot_weights(&engine, rank, &board, &barrier);
            let placement = engine.placement.clone();
            let want = old_path_oracle(&cfg, &placement, &weights, it);
            engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");

            let old_tags = TagSpace::new(cfg.layer_id + 1, it as u64);
            let mut class_grads: Vec<Option<Vec<f32>>> = vec![None; e];
            for (class, locals) in placement.classes_on_rank(rank) {
                let mut staging: Vec<Vec<f32>> =
                    locals.iter().map(|l| want.grads[rank * s + l].clone()).collect();
                let busy = locals.iter().filter(|&l| want.busy[rank * s + l]).count();
                saw_half_idle_class |= 0 < busy && busy < locals.len();
                let (rep, rest) = staging.split_first_mut().expect("hosted class");
                for other in rest.iter() {
                    for (r, v) in rep.iter_mut().zip(other) {
                        *r += v;
                    }
                }
                let (start, len) = placement.host_range(class);
                widest_ring = widest_ring.max(len);
                let group = ctx.groups().range(start, len);
                ctx.allreduce_sum(&group, old_tags.tag(WirePhase::GradSync, class, 0), rep)
                    .expect("old grad sync");
                for other in rest.iter_mut() {
                    other.copy_from_slice(rep);
                }
                class_grads[class] = Some(staging.swap_remove(0));
            }
            let shards = old_optimizer
                .collect_grads(ctx, &placement, &class_grads, old_tags)
                .expect("old grad collection");
            old_optimizer.step(&shards);
            for class in 0..e {
                assert_eq!(
                    bits(engine.master_shard(class)),
                    bits(old_optimizer.master_shard(class)),
                    "rank {rank} iteration {it}: class {class}'s master \
                         shard left the staged path's"
                );
            }
        }
        (widest_ring, saw_half_idle_class)
    });
    assert!(per_rank.iter().any(|r| r.0 == RANKS), "no class ever spanned all three ranks");
    assert!(per_rank.iter().any(|r| r.1), "no class ever had busy and idle slots on one rank");
}

/// The old parameter path for one class: every rank's f32 shard on the fp16
/// grid → binary16 wire → `full` → `load_flat`. `master_shards[r]` is
/// logical rank `r`'s fp32 master shard of the class.
fn old_weight_path(cfg: &EngineConfig, master_shards: &[Vec<f32>]) -> Vec<f32> {
    let mut full = Vec::new();
    for master in master_shards {
        let published: Vec<f32> = master.iter().map(|&w| quantize_f16(w)).collect();
        let wire: Vec<u16> = published.iter().map(|&w| f32_to_f16(w)).collect();
        full.extend(wire.iter().map(|&h| f16_to_f32(h)));
    }
    let mut slot = ExpertFfn::new(cfg.d_model, cfg.d_ff, 0);
    slot.load_flat(&full);
    slot.flat_params()
}

#[test]
fn slot_weights_match_the_f32_shard_encode_assemble_load_flat_recipe() {
    let cfg = cfg();
    let e = cfg.expert_classes;
    // board[rank][class] = that rank's master shard after the step.
    let board: Mutex<Vec<Vec<Vec<f32>>>> = Mutex::new(vec![Vec::new(); NODES]);
    let barrier = Barrier::new(NODES);
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let mut engine = MoeLayerEngine::new(rank, NODES, cfg);
        let mut placements = Vec::new();
        let mut saw_colocated_siblings = false;
        let mut saw_a_class_on_both_ranks = false;
        for it in 0..ITERS {
            engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");
            board.lock().expect("board")[rank] =
                (0..e).map(|class| engine.master_shard(class).to_vec()).collect();
            barrier.wait();
            let masters = board.lock().expect("board").clone();
            barrier.wait(); // nobody overwrites the board before all have read it

            // The placement the scatter just materialised.
            let placement = engine.placement.clone();
            for (class, locals) in placement.classes_on_rank(rank) {
                let shards: Vec<Vec<f32>> = (0..NODES).map(|r| masters[r][class].clone()).collect();
                let want = old_weight_path(&cfg, &shards);
                for &local in &locals {
                    assert_eq!(
                        engine.slot_weights(local),
                        want,
                        "rank {rank} iteration {it}: slot {local} \
                             (class {class}) differs from the old recipe"
                    );
                }
                saw_colocated_siblings |= locals.len() > 1;
                saw_a_class_on_both_ranks |= placement.host_ranks(class).len() > 1;
            }
            placements.push(placement.replica_counts());
        }
        (placements, saw_colocated_siblings, saw_a_class_on_both_ranks)
    });
    // The scenario must actually exercise what it claims to.
    let (placements, _, _) = &per_rank[0];
    assert!(
        placements.iter().any(|p| p != &placements[0]),
        "placement never rebalanced: {placements:?}"
    );
    assert!(per_rank.iter().any(|r| r.1), "no rank ever hosted sibling replicas");
    assert!(per_rank.iter().any(|r| r.2), "no class ever spanned both ranks");
}
