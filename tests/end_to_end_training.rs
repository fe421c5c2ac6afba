//! End-to-end convergence behaviour of the functional training stack:
//! the three placement policies plugged into the same model/corpus.

use symi::{FlexMoePolicy, SymiPolicy};
use symi_model::{ModelConfig, Trainer, UniformPolicy};
use symi_workload::{CorpusConfig, DriftingCorpus};

fn corpus(cfg: &ModelConfig, seed: u64) -> DriftingCorpus {
    DriftingCorpus::new(CorpusConfig {
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        batch_size: cfg.batch_size,
        topics: 4,
        seed,
        ..CorpusConfig::default()
    })
}

#[test]
fn symi_policy_trains_and_adapts() {
    let cfg = ModelConfig::tiny();
    let mut trainer = Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }));
    let mut c = corpus(&cfg, 1);
    trainer.train(&mut c, 50);

    // Loss decreases.
    let first: f32 = trainer.record.losses[..10].iter().sum::<f32>() / 10.0;
    let last: f32 = trainer.record.losses[40..].iter().sum::<f32>() / 10.0;
    assert!(last < first - 0.15, "first {first:.3} last {last:.3}");

    // Placement adapts: replica vectors change over the run and always
    // fill all slots with ≥1 per class.
    let reps = &trainer.record.replicas[0];
    assert!(reps.windows(2).any(|w| w[0] != w[1]), "SYMI must re-place experts");
    for r in reps {
        assert_eq!(r.iter().sum::<usize>(), cfg.total_slots);
        assert!(r.iter().all(|&c| c >= 1));
    }
}

#[test]
fn symi_survival_beats_static_and_flexmoe_sits_between() {
    let cfg = ModelConfig::tiny();
    let mut results = Vec::new();
    for (name, policy) in [
        (
            "deepspeed",
            Box::new(UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots })
                as Box<dyn symi_model::PlacementPolicy>,
        ),
        ("flexmoe-10", Box::new(FlexMoePolicy::new(cfg.total_slots, 10))),
        ("symi", Box::new(SymiPolicy { total_slots: cfg.total_slots })),
    ] {
        let mut trainer = Trainer::new(cfg, policy);
        let mut c = corpus(&cfg, 7);
        trainer.train(&mut c, 60);
        results.push((name, trainer.record.mean_survival()));
    }
    let ds = results[0].1;
    let flex = results[1].1;
    let symi = results[2].1;
    assert!(
        symi >= flex && flex >= ds - 0.02,
        "survival ordering violated: ds {ds:.3} flex {flex:.3} symi {symi:.3}"
    );
    assert!(symi > ds, "adaptive replication must beat static: {symi:.3} vs {ds:.3}");
}

#[test]
fn symi_moves_replicas_freely_while_flexmoe_moves_rarely() {
    let cfg = ModelConfig::tiny();
    let mut symi = Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }));
    let mut flex = Trainer::new(cfg, Box::new(FlexMoePolicy::new(cfg.total_slots, 10)));
    let mut c1 = corpus(&cfg, 3);
    let mut c2 = corpus(&cfg, 3);
    symi.train(&mut c1, 40);
    flex.train(&mut c2, 40);

    let symi_moving_iters = symi.record.moved_replicas.iter().filter(|&&m| m > 0).count();
    let flex_moving_iters = flex.record.moved_replicas.iter().filter(|&&m| m > 0).count();
    assert!(
        symi_moving_iters > flex_moving_iters,
        "SYMI re-places per iteration ({symi_moving_iters}) vs FlexMoE intervals ({flex_moving_iters})"
    );
    // FlexMoE only moves on multiples of its interval.
    for (t, &m) in flex.record.moved_replicas.iter().enumerate() {
        if m > 0 {
            assert_eq!((t + 1) % 10, 0, "FlexMoE moved outside its interval at iter {t}");
        }
    }
}

#[test]
fn capacity_factor_controls_survival_monotonically() {
    let base = ModelConfig::tiny();
    let mut prev = 0.0f64;
    for cf in [0.5f32, 1.0, 2.0, 8.0] {
        let cfg = ModelConfig { capacity_factor: cf, ..base };
        let mut trainer = Trainer::new(
            cfg,
            Box::new(UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots }),
        );
        let mut c = corpus(&cfg, 5);
        trainer.train(&mut c, 12);
        let s = trainer.record.mean_survival();
        assert!(s >= prev - 1e-9, "survival must grow with capacity: cf {cf} gave {s:.3}");
        prev = s;
    }
    assert!((prev - 1.0).abs() < 1e-9, "x8 capacity must keep every token here");
}

#[test]
fn deterministic_runs_reproduce_bit_for_bit() {
    let cfg = ModelConfig::tiny();
    let run = |seed: u64| {
        let mut t = Trainer::new(cfg, Box::new(SymiPolicy { total_slots: cfg.total_slots }));
        let mut c = corpus(&cfg, seed);
        t.train(&mut c, 10);
        t.record.losses.clone()
    };
    assert_eq!(run(9), run(9), "same seed, same losses");
    assert_ne!(run(9), run(10), "different data, different losses");
}
