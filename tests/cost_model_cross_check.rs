//! Cross-checks between the analytic cost model (§3.3 / A.2 formulas in
//! `symi-netsim`) and *measured* bytes from the real collectives — the two
//! must tell the same story about the paper's data-movement identities.

use symi::optimizer::get_source;
use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine, SymiOptimizer};
use symi_collectives::coll::chunk_range;
use symi_collectives::{Cluster, ClusterSpec, TagSpace, WirePhase};
use symi_netsim::topology::HardwareSpec;
use symi_netsim::{CommCostModel, SystemKind};
use symi_tensor::{AdamConfig, Matrix};

const NODES: usize = 8;
const E: usize = 4;
const S: usize = 2;
const L: usize = 512; // params per expert

/// Measured bytes of one SYMI weight-communication phase.
fn measured_weight_phase(new_counts: &[usize]) -> (u64, u64) {
    let new = ExpertPlacement::from_counts(new_counts, S);
    let (_, report) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let params: Vec<Vec<f32>> = (0..E).map(|_| vec![1.0f32; L]).collect();
        let opt = SymiOptimizer::new(ctx.rank(), NODES, AdamConfig::default(), &params);
        let shards: Vec<Vec<u16>> = (0..E)
            .map(|class| {
                let (a, b) = opt.shard_range(class);
                vec![0x3800u16; b - a] // fp16 0.5
            })
            .collect();
        let _ = opt.distribute_weights(ctx, &new, &shards, TagSpace::new(0, 0)).unwrap();
    });
    (report.inter_node_bytes, report.host_device_bytes)
}

/// The paper's per-slot charge: D_W = sN·W in total, sN·W·(N−1)/N over
/// links because each rank's own chunk arrives for free.
fn sn_w_identity() -> u64 {
    let w_bytes = (L * 2) as u64;
    (S * NODES) as u64 * w_bytes * (NODES as u64 - 1) / NODES as u64
}

/// The de-duplicated weight-phase schedule the distribute actually ships:
/// one fp16 chunk per (class, hosting destination rank, source rank)
/// triple — self-delivery and empty chunks skip the wire, and a rank
/// hosting several slots of one class fans the copy out locally.
fn predicted_weight_bytes(placement: &ExpertPlacement) -> u64 {
    let mut total = 0u64;
    for class in 0..E {
        for &dst in placement.host_ranks(class).iter() {
            for src in (0..NODES).filter(|&src| src != dst) {
                let (a, b) = chunk_range(L, NODES, src);
                total += ((b - a) * 2) as u64;
            }
        }
    }
    total
}

#[test]
fn weight_phase_volume_matches_the_dedup_schedule() {
    // Measured bytes must equal the per-(class, host) schedule exactly,
    // and stay under the per-slot sN·W identity (which charges a host once
    // per slot instead of once per class).
    let uniform = vec![NODES * S / E; E];
    let placement = ExpertPlacement::from_counts(&uniform, S);
    let (net, _) = measured_weight_phase(&uniform);
    let expected = predicted_weight_bytes(&placement);
    assert_eq!(net, expected, "measured {net} vs schedule {expected}");
    assert!(net <= sn_w_identity(), "dedup must not exceed the sN·W identity");
}

#[test]
fn weight_phase_volume_never_exceeds_the_sn_w_identity() {
    // §3.3-II's identity is placement-invariant because it charges every
    // slot its full weights. Shipping one copy per hosting rank makes the
    // measured bytes scale with distinct (class, host) pairs — placement-
    // dependent, but always bounded by the identity, which stays the
    // analytic model's (conservative) charge.
    for counts in [vec![NODES * S / E; E], vec![NODES * S - (E - 1), 1, 1, 1]] {
        let placement = ExpertPlacement::from_counts(&counts, S);
        let (net, _) = measured_weight_phase(&counts);
        assert_eq!(net, predicted_weight_bytes(&placement), "counts {counts:?}");
        let identity = sn_w_identity();
        assert!(net <= identity, "counts {counts:?}: measured {net} > identity {identity}");
    }
}

#[test]
fn pcie_staging_matches_e_w_over_n_per_rank() {
    // Host→device staging: each rank pushes its fp16 shard of every class
    // once: E · W/N bytes at 2 B/param (±chunk rounding).
    let uniform = vec![NODES * S / E; E];
    let (_, host_dev) = measured_weight_phase(&uniform);
    let mut expected = 0u64;
    for rank in 0..NODES {
        let (a, b) = chunk_range(L, NODES, rank);
        expected += (E * (b - a) * 2) as u64;
    }
    assert_eq!(host_dev, expected);
}

#[test]
fn grad_collection_bytes_match_algorithm_2_schedule_exactly() {
    // Measured inter-node bytes of the Grad Communication Phase must equal
    // what Algorithm 2's source selection predicts: one shard transfer per
    // (class, destination) pair whose chosen source is remote.
    for counts in [vec![NODES * S / E; E], vec![NODES * S - (E - 1), 1, 1, 1]] {
        let placement = ExpertPlacement::from_counts(&counts, S);
        let predict: u64 = (0..NODES)
            .map(|dst| {
                let (a, b) = chunk_range(L, NODES, dst);
                (0..E).filter(|&class| get_source(&placement.host_ranks(class), dst) != dst).count()
                    as u64
                    * ((b - a) * 2) as u64
            })
            .sum();
        let placement2 = placement.clone();
        let (_, report) = Cluster::run(ClusterSpec::flat(NODES), move |ctx| {
            let params: Vec<Vec<f32>> = (0..E).map(|_| vec![1.0f32; L]).collect();
            let opt = SymiOptimizer::new(ctx.rank(), NODES, AdamConfig::default(), &params);
            let local_grads: Vec<Option<Vec<f32>>> = (0..E)
                .map(|c| placement2.rank_hosts(ctx.rank(), c).then(|| vec![0.1f32; L]))
                .collect();
            let _ = opt.collect_grads(ctx, &placement2, &local_grads, TagSpace::new(0, 0)).unwrap();
        });
        assert_eq!(
            report.inter_node_bytes, predict,
            "counts {counts:?}: measured vs Algorithm 2 prediction"
        );
    }
}

#[test]
fn analytic_model_agrees_with_itself_at_measured_scale() {
    // Evaluate the closed forms at the toy scale used above and confirm the
    // SYMI-vs-static ordering and overhead sign match §3.3.
    let model = CommCostModel {
        nodes: NODES,
        expert_classes: E,
        slots_per_rank: S,
        grad_bytes: (L * 2) as f64, // binary16 gradients, as netsim prices them
        weight_bytes: (L * 2) as f64, // fp16 wire width
        optimizer_bytes: (L * 16) as f64,
        hw: HardwareSpec::paper_eval_cluster(),
    };
    let stat = model.costs(SystemKind::StaticBaseline).total();
    let symi = model.costs(SystemKind::Symi).total();
    assert!(symi >= stat, "SYMI's analytic cost is ≥ static (locality delta)");
    let ratio = model.symi_overhead_ratio();
    assert!((0.0..0.25).contains(&ratio), "small-cluster overhead stays modest: {ratio}");
    // And the closed form matches the evaluated difference.
    assert!((ratio - (symi - stat) / stat).abs() < 1e-9);
}

#[test]
fn optimizer_footprint_identity_holds_measured() {
    let (footprints, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let params: Vec<Vec<f32>> = (0..E).map(|_| vec![0.0f32; L]).collect();
        SymiOptimizer::new(ctx.rank(), NODES, AdamConfig::default(), &params).state_bytes()
    });
    let total: u64 = footprints.iter().sum();
    assert_eq!(total, (E * L * 16) as u64, "Σ per-rank state = E·O exactly");
}

#[test]
fn the_engines_gradient_wire_moves_exactly_the_2_byte_pricing() {
    // The same pricing, on the engine rather than the owned-`Vec` collect:
    // one iteration's `GradSync` (§4.1's reduce) plus `GradCollect`
    // (Algorithm 2) bytes. The reduce hands each host the other hosts'
    // binary16 partials of the ranges it serves, which tile a class once
    // over its hosts: 2·(m − 1)·P per class hosted on m ranks. The collect
    // ships a binary16 chunk to every owner whose source is remote. Both at
    // 2 B/param; the exponent rides outside the payload.
    const N: usize = 4;
    let cfg = EngineConfig {
        d_model: 8,
        d_ff: 24,
        expert_classes: 2,
        slots_per_rank: 1,
        slot_capacity: 64,
        adam: AdamConfig::default(),
        seed: 5,
        layer_id: 0,
    };
    let (ran, _) = Cluster::run(ClusterSpec::flat(N), |ctx| {
        let mut engine = MoeLayerEngine::new(ctx.rank(), N, cfg);
        let x =
            Matrix::from_fn(16, cfg.d_model, |r, c| ((ctx.rank() * 97 + r * 8 + c) as f32).sin());
        let placement = engine.placement.clone();
        engine.iteration(ctx, &x, &Matrix::zeros(16, cfg.d_model)).expect("iteration");
        ctx.barrier();
        let t = ctx.traffic();
        (placement, t.wire_phase(WirePhase::GradSync).0 + t.wire_phase(WirePhase::GradCollect).0)
    });
    let (placement, measured) = &ran[0];
    let p = 2 * cfg.d_model * cfg.d_ff + cfg.d_ff + cfg.d_model;
    let predict: usize = (0..cfg.expert_classes)
        .map(|class| {
            let hosts = placement.host_ranks(class);
            let collect: usize = (0..N)
                .filter(|&dst| get_source(&hosts, dst) != dst)
                .map(|dst| chunk_range(p, N, dst))
                .map(|(a, b)| 2 * (b - a))
                .sum();
            2 * (hosts.len() - 1) * p + collect
        })
        .sum();
    assert!(placement.host_ranks(0).len() > 1, "a class must span ranks for the reduce to move");
    assert_eq!(*measured, predict as u64, "placement {placement:?}");
}
