//! `DeepSpeedMoeEngine`'s parameter path held, bit for bit, to its old recipe.
//!
//! The engine used to take an f32 weight shard on the fp16 grid from Adam,
//! narrow it element by element for the all-gather, copy the slot's
//! parameters out into a `full` vector, widen every gathered part into it
//! and `load_flat` the result. Now the Adam kernel writes binary16 bits and
//! every gathered part is copied straight into the slot's binary16 weights —
//! the same treatment the SYMI engine got, so the pair stays a controlled
//! comparison (`crates/core/tests/expert_path_oracle.rs` is this test's
//! twin). After every iteration each slot's weights must equal the old
//! recipe replayed, with the scalar conversions, from the master shards the
//! EDP group holds — into the same binary16 expert, loaded from the encoded
//! bits of `full`.

use std::sync::{Barrier, Mutex};

use symi_baselines::DeepSpeedMoeEngine;
use symi_collectives::{Cluster, ClusterSpec};
use symi_model::expert::ExpertFfn;
use symi_tensor::half::{f16_to_f32, f32_to_f16, quantize_f16};
use symi_tensor::{AdamConfig, HalfMatrix, Matrix};

const NODES: usize = 4;
const D: usize = 8;
const FF: usize = 24;
const CLASSES: usize = 4;
const SLOTS_PER_RANK: usize = 2;
const T_LOC: usize = 24;
const ITERS: usize = 5;

fn tokens(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, D, |r, c| {
        (((rank * T_LOC + r) * D + c) as f32 * 0.613 + it as f32 * 0.9).sin()
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

/// The old path: each EDP member's f32 shard on the fp16 grid → binary16
/// wire → `full` → the slot. `master_shards` is in EDP-group order.
fn old_weight_path(master_shards: &[Vec<f32>]) -> Vec<f32> {
    let mut full = Vec::new();
    for master in master_shards {
        let published: Vec<f32> = master.iter().map(|&w| quantize_f16(w)).collect();
        let wire: Vec<u16> = published.iter().map(|&w| f32_to_f16(w)).collect();
        full.extend(wire.iter().map(|&h| f16_to_f32(h)));
    }
    half_expert(&full).flat_params()
}

#[test]
fn slot_weights_match_the_f32_shard_gather_load_flat_recipe() {
    // board[rank][g] = that rank's master shard of its g-th hosted class
    // after the step.
    let board: Mutex<Vec<Vec<Vec<f32>>>> = Mutex::new(vec![Vec::new(); NODES]);
    let barrier = Barrier::new(NODES);
    Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let mut engine = DeepSpeedMoeEngine::new(
            rank,
            NODES,
            D,
            FF,
            CLASSES,
            SLOTS_PER_RANK,
            1_000_000,
            AdamConfig::default(),
            91,
        );
        let placement = engine.placement.clone();
        for it in 0..ITERS {
            engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");
            board.lock().expect("board")[rank] = placement
                .classes_on_rank(rank)
                .into_iter()
                .map(|(class, _)| engine.master_shard(class).to_vec())
                .collect();
            barrier.wait();
            let masters = board.lock().expect("board").clone();
            barrier.wait(); // nobody overwrites the board before all have read it
            for (class, locals) in placement.classes_on_rank(rank) {
                // The class's shards in EDP-group (host rank) order.
                let shards: Vec<Vec<f32>> = placement
                    .host_ranks(class)
                    .iter()
                    .map(|&host| {
                        let host_local = placement
                            .classes_on_rank(host)
                            .into_iter()
                            .position(|(c, _)| c == class)
                            .expect("host ranks host the class");
                        masters[host][host_local].clone()
                    })
                    .collect();
                assert!(shards.len() > 1, "the all-gather must have peers to gather from");
                let local = locals[0];
                assert_eq!(
                    engine.slot_weights(local),
                    old_weight_path(&shards),
                    "rank {rank} iteration {it}: slot {local} (class {class}) differs from \
                     the old recipe"
                );
            }
        }
    });
}
