//! Quickstart: the SYMI public API in three short acts.
//!
//! 1. Feed a popularity vector to the Expert Placement Scheduler
//!    (Algorithm 1) and inspect the resulting contiguous placement.
//! 2. Train a small GPT-MoE for a handful of iterations with SYMI's
//!    per-iteration adaptive replication and watch loss / survival /
//!    placement evolve.
//! 3. Run one fully distributed iteration (4 rank threads, real
//!    collectives) and print the traffic it generated.
//!
//! Run: `cargo run -p symi-examples --bin quickstart`

use symi::{compute_placement, EngineConfig, ExpertPlacement, MoeLayerEngine, SymiPolicy};
use symi_collectives::{Cluster, ClusterSpec};
use symi_model::{ModelConfig, Trainer};
use symi_tensor::{AdamConfig, Matrix};
use symi_workload::{CorpusConfig, DriftingCorpus};

fn main() {
    // ---- Act 1: the scheduler. ----
    println!("== Act 1: Expert Placement Scheduler (Algorithm 1) ==\n");
    let popularity = [900u64, 50, 30, 10, 5, 3, 1, 1];
    let counts = compute_placement(&popularity, 16);
    println!("popularity = {popularity:?}");
    println!("replicas   = {counts:?}  (16 slots, min 1 per class)\n");
    let placement = ExpertPlacement::from_counts(&counts, 4);
    for rank in 0..placement.ranks() {
        let classes: Vec<String> = placement
            .classes_on_rank(rank)
            .into_iter()
            .map(|(class, slots)| format!("e{class}x{}", slots.len()))
            .collect();
        println!("rank {rank}: [{}]", classes.join(", "));
    }

    // ---- Act 2: adaptive training. ----
    println!("\n== Act 2: training with per-iteration adaptive replication ==\n");
    let cfg = ModelConfig::tiny();
    let mut corpus = DriftingCorpus::new(CorpusConfig {
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        batch_size: cfg.batch_size,
        topics: 4,
        ..CorpusConfig::default()
    });
    let mut trainer = Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }));
    for step in 0..15 {
        let batch = corpus.next_batch();
        let stats = trainer.step(&batch);
        println!(
            "iter {step:>2}: loss {:.3}  survival {:>5.1}%  replicas(layer 0) {:?}",
            stats.ce_loss,
            stats.survival_rate() * 100.0,
            trainer.replicas()[0]
        );
    }

    // ---- Act 3: the distributed engine. ----
    println!("\n== Act 3: one distributed iteration over 4 rank threads ==\n");
    let engine_cfg = EngineConfig {
        d_model: 8,
        d_ff: 16,
        expert_classes: 4,
        slots_per_rank: 2,
        slot_capacity: 64,
        adam: AdamConfig::default(),
        seed: 42,
        layer_id: 0,
    };
    let (results, traffic) = Cluster::run(ClusterSpec::flat(4), |ctx| {
        let mut engine = MoeLayerEngine::new(ctx.rank(), 4, engine_cfg);
        let x = Matrix::from_fn(8, 8, |r, c| (((ctx.rank() * 8 + r) * 8 + c) as f32 * 0.137).sin());
        let target = Matrix::zeros(8, 8);
        let stats = engine.iteration(ctx, &x, &target).unwrap();
        (stats.loss, stats.popularity, engine.placement.replica_counts())
    });
    let (loss, popularity, replicas) = &results[0];
    println!("global loss       : {loss:.5}");
    println!("global popularity : {popularity:?}");
    println!("next placement    : {replicas:?}");
    println!(
        "traffic           : {} B inter-node, {} B intra-node, {} B host<->device",
        traffic.inter_node_bytes, traffic.intra_node_bytes, traffic.host_device_bytes
    );
    println!("\nDone. Explore `cargo run --release -p symi-bench --bin repro` next.");
}
