//! 2-rank engine run held, bit for bit, to the pre-`SlotBatches` token path.
//!
//! `MoeLayerEngine::iteration` assembles dispatch rows straight into
//! persistent per-slot matrices and runs `forward_into`/`backward_into`. It
//! used to collect a `Vec<f32>` per slot, clone it into a fresh `Matrix` and
//! call the allocating `forward()`/`backward()`. This test keeps that old
//! recipe as an oracle: before every iteration the ranks publish their slot
//! weights, each rank then replays the *whole* 2-rank token path the old
//! way — route, capacity-assign, gather rows per slot in arrival order,
//! `from_vec(clone)` + `forward`, combine, loss, gated upstream grads,
//! `from_vec(clone)` + `backward` — and the engine's reported loss and slot
//! gradients must equal the oracle's exactly. Placement rebalances between
//! iterations, so slots go busy and idle and change shape across the run.
//!
//! The fp32 masters are a function of (previous masters, slot gradients)
//! through code this change leaves alone (grad sync, shard collection,
//! Adam), and every later iteration's oracle starts from the weights those
//! masters were scattered as — so equal gradients and losses all the way
//! down the run pin the masters as well.
//!
//! Runs under either overlap mode (`SYMI_OVERLAP=on` exercises the
//! per-class backward branch): `drain` lands the in-flight scatter before
//! the weights are read.
//!
//! The second test holds the *parameter* path to its old recipe the same
//! way. The optimizer used to publish an f32 shard on the fp16 grid,
//! `encode_f16` it, decode every source's chunk into a `full` vector per
//! class, clone that per sibling slot and `load_flat` it; now the Adam
//! kernel writes binary16 bits and the scatter decodes each chunk straight
//! into the hosting slots. After every iteration, in both overlap modes,
//! every slot's weights must equal the old recipe replayed — with the
//! scalar conversions — from the masters the ranks hold.

use std::sync::{Barrier, Mutex};

use symi::engine::assign_token_slots;
use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine};
use symi_collectives::{Cluster, ClusterSpec};
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
        let base = (c as f32 * 0.7 + it as f32 * 0.9).sin();
        base + 0.4 * (((rank * T_LOC + r) * 8 + c) as f32 * 0.613).sin()
    })
}

fn targets(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        (((rank * T_LOC + r) * 8 + c) as f32 * 0.097 - it as f32 * 0.19).cos() * 0.5
    })
}

/// The old token path over the whole 2-rank world. `weights[g]` are the
/// flat parameters loaded in global slot `g`. Returns the global loss and
/// every slot's flat gradient.
fn old_path_oracle(
    cfg: &EngineConfig,
    placement: &ExpertPlacement,
    weights: &[Vec<f32>],
    it: usize,
) -> (f32, Vec<Vec<f32>>) {
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
    let routed: Vec<Routed> = (0..NODES)
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
    let t_global = (T_LOC * NODES) as f32;
    let mut ys: Vec<Matrix> = (0..NODES).map(|_| Matrix::zeros(T_LOC, d)).collect();
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
            expert.flat_grads()
        })
        .collect();
    (loss, grads)
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
        let mut busy_slots = 0usize;
        for it in 0..ITERS {
            engine.drain(ctx).expect("drain");
            {
                let mut b = board.lock().expect("board");
                for local in 0..s {
                    b[rank * s + local] = engine.slot_weights(local);
                }
            }
            barrier.wait();
            let weights = board.lock().expect("board").clone();
            barrier.wait(); // nobody overwrites the board before all have read it
            let placement = engine.placement.clone();
            let (want_loss, want_grads) = old_path_oracle(&cfg, &placement, &weights, it);

            let stats =
                engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");
            assert_eq!(
                stats.loss.to_bits(),
                want_loss.to_bits(),
                "rank {rank} iteration {it}: loss {} vs oracle {want_loss}",
                stats.loss
            );
            for local in 0..s {
                let want = &want_grads[rank * s + local];
                assert_eq!(
                    &engine.slot_grads(local),
                    want,
                    "rank {rank} iteration {it}: slot {local} gradients differ"
                );
                busy_slots += usize::from(want.iter().any(|&g| g != 0.0));
            }
            assert!(stats.dropped > 0 && stats.survived > 0, "capacity must bind: {stats:?}");
            placements.push(placement.replica_counts());
        }
        (placements, busy_slots)
    });
    // The scenario must actually exercise what it claims to.
    let (placements, _) = &per_rank[0];
    assert!(
        placements.iter().any(|p| p != &placements[0]),
        "placement never rebalanced: {placements:?}"
    );
    assert!(per_rank.iter().all(|(_, busy)| *busy > 0));
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
    for overlap in [false, true] {
        // board[rank][class] = that rank's master shard after the step.
        let board: Mutex<Vec<Vec<Vec<f32>>>> = Mutex::new(vec![Vec::new(); NODES]);
        let barrier = Barrier::new(NODES);
        let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
            let rank = ctx.rank();
            let mut engine = MoeLayerEngine::new(rank, NODES, cfg);
            engine.set_overlap(overlap);
            let mut placements = Vec::new();
            let mut saw_colocated_siblings = false;
            let mut saw_a_class_on_both_ranks = false;
            for it in 0..ITERS {
                engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");
                engine.drain(ctx).expect("drain");
                board.lock().expect("board")[rank] =
                    (0..e).map(|class| engine.master_shard(class).to_vec()).collect();
                barrier.wait();
                let masters = board.lock().expect("board").clone();
                barrier.wait(); // nobody overwrites the board before all have read it

                // The placement the scatter just materialised.
                let placement = engine.placement.clone();
                for (class, locals) in placement.classes_on_rank(rank) {
                    let shards: Vec<Vec<f32>> =
                        (0..NODES).map(|r| masters[r][class].clone()).collect();
                    let want = old_weight_path(&cfg, &shards);
                    for &local in &locals {
                        assert_eq!(
                            engine.slot_weights(local),
                            want,
                            "overlap {overlap} rank {rank} iteration {it}: slot {local} \
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
}
