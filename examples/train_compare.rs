//! Head-to-head convergence: DeepSpeed's static replication vs FlexMoE's
//! interval rebalancing vs SYMI's per-iteration adaptation, on the same
//! drifting-topic corpus — the Figure 7/8 story at example scale.
//!
//! Run: `cargo run --release -p symi-examples --bin train_compare [iters]`

use symi::{FlexMoePolicy, SymiPolicy};
use symi_model::{ModelConfig, PlacementPolicy, Trainer, UniformPolicy};
use symi_workload::{CorpusConfig, DriftingCorpus};

fn corpus(cfg: &ModelConfig) -> DriftingCorpus {
    DriftingCorpus::new(CorpusConfig {
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        batch_size: cfg.batch_size,
        topics: 8,
        coherence: 0.85,
        topic_zipf: 1.1,
        ..CorpusConfig::default()
    })
}

fn main() {
    let iters: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(150);
    let cfg = ModelConfig::small_sim();

    let systems: Vec<(&str, Box<dyn PlacementPolicy>)> = vec![
        (
            "DeepSpeed ",
            Box::new(UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots }),
        ),
        ("FlexMoE-10", Box::new(FlexMoePolicy::new(cfg.total_slots, 10))),
        ("SYMI      ", Box::new(SymiPolicy { total_slots: cfg.total_slots })),
    ];

    println!(
        "Training {} iterations per system (GPT-MoE stand-in, 16 experts / 64 slots)…\n",
        iters
    );
    let mut summaries = Vec::new();
    for (name, policy) in systems {
        let mut trainer = Trainer::new(cfg, policy);
        let mut c = corpus(&cfg);
        trainer.train(&mut c, iters);
        let rec = &trainer.record;
        let tail = &rec.losses[rec.losses.len().saturating_sub(15)..];
        let final_loss: f32 = tail.iter().sum::<f32>() / tail.len() as f32;
        summaries.push((
            name,
            rec.mean_survival(),
            final_loss,
            rec.moved_replicas.iter().sum::<usize>(),
        ));
    }

    println!(
        "{:<11} {:>14} {:>12} {:>16}",
        "system", "survival (%)", "final loss", "replica moves"
    );
    for (name, survival, loss, moves) in &summaries {
        println!("{name:<11} {:>14.2} {loss:>12.3} {moves:>16}", survival * 100.0);
    }
    println!(
        "\nExpected shape: SYMI survives the most tokens (it re-places every\n\
         iteration for free); FlexMoE-10 sits between; DeepSpeed drops the most.\n\
         In a coupled system every replica move above would cost a blocking\n\
         weight+optimizer migration — see the rebalance-traffic sweep of\n\
         `cargo run --release -p symi-bench --bin repro`."
    );
}
