//! `DeepSpeedMoeEngine`'s gradient path held, bit for bit, to its old recipe.
//!
//! The slot's flat gradient is now the buffer backward writes, the EDP ring
//! reduces in place and the ZeRO-1 Adam shard steps from. It used to be
//! zero-filled, accumulated into four matrices, flattened into a staging
//! vector per slot, ring-reduced there, and sliced for Adam — the same
//! treatment the SYMI engine got, so the pair stays a controlled comparison
//! (`crates/core/tests/expert_path_oracle.rs` holds that one). This test
//! replays the old recipe next to the engine: before every iteration the
//! ranks publish their slot weights, each rank replays the whole world's
//! token path the old way — on the engine's binary16 experts, loaded from
//! the encoded bits of those (fp16-grid, so exactly encoded) weights (`from_vec(clone)` + `forward`, `zero_grad` +
//! `backward` + an owned flat copy per slot — the binary16 gradient the
//! slot's backward narrowed, widened and unscaled), runs the real ring over
//! its owned copy under a second layer's tags — the ring-order sum of the
//! widened partials — and steps a second `AdamShard` from it. After every iteration the engine's fp32 master shards must equal
//! that shard's. Six ranks make every EDP group a 3-rank ring, where the
//! summation order is not a single commutative add, and the drifting token
//! cluster leaves slots idle, so the lazily-zeroed gradient is materialized
//! for the ring as well as overwritten by backward. Which tokens survive and
//! which replica each lands on is `assign_token_slots`' per-slot rule, the
//! one both systems share, called here as the engine calls it.

use std::sync::{Barrier, Mutex};

use symi::engine::assign_token_slots;
use symi::ExpertPlacement;
use symi_baselines::DeepSpeedMoeEngine;
use symi_collectives::coll::chunk_range;
use symi_collectives::{Cluster, ClusterSpec, CommGroup, TagSpace, WirePhase};
use symi_model::expert::ExpertFfn;
use symi_tensor::half::{f16_to_f32, f32_to_f16};
use symi_tensor::ops::softmax_rows;
use symi_tensor::rng::StdRng;
use symi_tensor::{init, AdamConfig, AdamShard, HalfMatrix, Matrix};

const NODES: usize = 6;
const D: usize = 8;
const FF: usize = 24;
const CLASSES: usize = 4;
const SLOTS_PER_RANK: usize = 2;
const T_LOC: usize = 16;
const ITERS: usize = 5;
const SLOT_CAPACITY: usize = 12;
const SEED: u64 = 91;

/// Mostly one drifting cluster in embedding space: the router sends nearly
/// everything to one or two classes, the static capacity drops the excess,
/// and the other classes' slots sit idle.
fn tokens(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, D, |r, c| {
        let base = (c as f32 * 0.7 + it as f32 * 0.9).sin();
        base + 0.4 * (((rank * T_LOC + r) * D + c) as f32 * 0.613).sin()
    })
}

fn targets(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, D, |r, c| {
        (((rank * T_LOC + r) * D + c) as f32 * 0.097 - it as f32 * 0.19).cos() * 0.5
    })
}

/// The expert the engine runs for `flat`: binary16 weights, loaded from the
/// encoded bits of published weights — on the fp16 grid, so exact.
fn half_expert(flat: &[f32]) -> ExpertFfn<HalfMatrix> {
    let bits: Vec<u16> = flat.iter().map(|&w| f32_to_f16(w)).collect();
    assert!(
        bits.iter().zip(flat).all(|(&h, &w)| f16_to_f32(h).to_bits() == w.to_bits()),
        "published weights off the fp16 grid"
    );
    let mut e = ExpertFfn::zeros(D, FF);
    e.load_f16_at(0, &bits);
    e
}

/// The old token + backward path over the whole world. `weights[g]` are the
/// flat parameters loaded in global slot `g`. Returns every slot's flat
/// gradient (all `+0.0` for an idle slot), whether each slot was busy, and
/// how many tokens the static capacity dropped.
fn old_path_oracle(
    placement: &ExpertPlacement,
    weights: &[Vec<f32>],
    it: usize,
) -> (Vec<Vec<f32>>, Vec<bool>, usize) {
    let total = NODES * SLOTS_PER_RANK;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x70c7);
    let router_w = init::normal(D, CLASSES, 0.3, &mut rng);

    // Route, then the per-slot capacity rule picks the survivors and their
    // replicas.
    let mut slot_inputs: Vec<Vec<f32>> = vec![Vec::new(); total];
    let mut slot_rows: Vec<Vec<(usize, usize, f32)>> = vec![Vec::new(); total]; // (rank, token, gate)
    let mut dropped = 0;
    for rank in 0..NODES {
        let x = tokens(rank, it);
        let probs = softmax_rows(&x.matmul(&router_w));
        let routed: Vec<(usize, f32)> = (0..T_LOC)
            .map(|t| {
                let (class, &gate) = probs
                    .row(t)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .expect("non-empty");
                (class, gate)
            })
            .collect();
        let assignment: Vec<usize> = routed.iter().map(|&(class, _)| class).collect();
        let (kept, kept_slot, _) =
            assign_token_slots(&assignment, placement, SLOT_CAPACITY, rank, rank * T_LOC);
        dropped += T_LOC - kept.len();
        for (&t, &slot) in kept.iter().zip(&kept_slot) {
            slot_inputs[slot].extend_from_slice(x.row(t));
            slot_rows[slot].push((rank, t, routed[t].1));
        }
    }

    // Forward the old way.
    let mut experts: Vec<ExpertFfn<HalfMatrix>> = weights.iter().map(|w| half_expert(w)).collect();
    let slot_outputs: Vec<Matrix> = experts
        .iter_mut()
        .zip(&slot_inputs)
        .map(|(expert, flat)| {
            if flat.is_empty() {
                Matrix::zeros(0, D)
            } else {
                expert.forward(&Matrix::from_vec(flat.len() / D, D, flat.clone()))
            }
        })
        .collect();

    // Combine and upstream gradient — per rank, as the engine does.
    let t_global = (T_LOC * NODES) as f32;
    let mut dys: Vec<Matrix> = (0..NODES).map(|_| Matrix::zeros(T_LOC, D)).collect();
    for (slot, rows) in slot_rows.iter().enumerate() {
        for (row, &(rank, t, gate)) in rows.iter().enumerate() {
            for (c, &v) in slot_outputs[slot].row(row).iter().enumerate() {
                dys[rank][(t, c)] += gate * v;
            }
        }
    }
    for (rank, dy) in dys.iter_mut().enumerate() {
        dy.axpy(-1.0, &targets(rank, it));
        dy.scale(2.0 / (t_global * D as f32));
    }

    // Backward the old way.
    let grads = experts
        .iter_mut()
        .zip(&slot_rows)
        .map(|(expert, rows)| {
            expert.zero_grad();
            if !rows.is_empty() {
                let mut flat = Vec::with_capacity(rows.len() * D);
                for &(rank, t, gate) in rows {
                    flat.extend(dys[rank].row(t).iter().map(|&v| v * gate));
                }
                let _ = expert.backward(&Matrix::from_vec(rows.len(), D, flat.clone()));
            }
            expert.grad_values()
        })
        .collect();
    (grads, slot_rows.iter().map(|rows| !rows.is_empty()).collect(), dropped)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn master_shards_match_the_staged_gradient_path_replayed() {
    let s = SLOTS_PER_RANK;
    let board: Mutex<Vec<Vec<f32>>> = Mutex::new(vec![Vec::new(); NODES * s]);
    let barrier = Barrier::new(NODES);
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let adam = AdamConfig::default();
        let mut engine =
            DeepSpeedMoeEngine::new(rank, NODES, D, FF, CLASSES, s, SLOT_CAPACITY, adam, SEED);
        let placement = engine.placement.clone();
        let r = placement.replica_counts()[0];
        assert_eq!(r, 3, "every EDP ring must span three ranks");
        // The old path's ZeRO-1 shards, one per local slot like the engine's.
        let mut old_shards: Vec<(usize, usize, CommGroup, AdamShard)> = placement
            .classes_on_rank(rank)
            .into_iter()
            .map(|(class, _)| {
                let params = ExpertFfn::new(D, FF, SEED ^ (0xe0 + class as u64)).flat_params();
                let hosts = placement.host_ranks(class);
                let my_idx = hosts.iter().position(|&h| h == rank).expect("hosted");
                let (a, b) = chunk_range(params.len(), r, my_idx);
                (class, my_idx, CommGroup::new(hosts), AdamShard::new(adam, a, &params[a..b]))
            })
            .collect();
        let mut half = Vec::new();
        let (mut saw_idle, mut saw_busy, mut saw_drops) = (false, false, false);
        for it in 0..ITERS {
            {
                let mut b = board.lock().expect("board");
                for local in 0..s {
                    b[rank * s + local] = engine.slot_weights(local);
                }
            }
            barrier.wait();
            let weights = board.lock().expect("board").clone();
            barrier.wait(); // nobody overwrites the board before all have read it
            let (grads, busy, dropped) = old_path_oracle(&placement, &weights, it);
            saw_drops |= dropped > 0;

            engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");

            let old_tags = TagSpace::new(1, it as u64);
            for (local, (class, my_idx, group, shard)) in old_shards.iter_mut().enumerate() {
                let mut staging = grads[rank * s + local].clone();
                saw_idle |= !busy[rank * s + local];
                saw_busy |= busy[rank * s + local];
                ctx.allreduce_sum(
                    group,
                    old_tags.tag(WirePhase::GradSync, *class, 0),
                    &mut staging,
                )
                .expect("old grad sync");
                let (a, b) = chunk_range(staging.len(), r, *my_idx);
                shard.step_into(&staging[a..b], &mut half);
                assert_eq!(
                    bits(engine.master_shard(*class)),
                    bits(shard.master_weights()),
                    "rank {rank} iteration {it}: slot {local} (class {class}) left the staged \
                     path's master shard"
                );
            }
        }
        (saw_idle, saw_busy, saw_drops)
    });
    // The scenario must actually exercise what it claims to.
    assert!(per_rank.iter().any(|r| r.0), "no slot ever sat idle");
    assert!(per_rank.iter().any(|r| r.1), "no slot ever worked");
    assert!(per_rank.iter().any(|r| r.2), "the static capacity never dropped a token");
}
