//! Direct timings for the traced run: calls into each layer's public
//! functions at the workload's own shapes, outside any training step. Each
//! value is the median of `SAMPLES` calls after one warm-up call, in the
//! unit its metric name carries.

use std::hint::black_box;
use std::time::Instant;

use symi::{compute_placement, ExpertPlacement, MoeLayerEngine, SymiOptimizer};
use symi_collectives::{Cluster, ClusterSpec, RecvOp, SendOp, TagSpace, WirePhase};
use symi_model::attention::CausalAttention;
use symi_model::embedding::{Embedding, LmHead};
use symi_model::expert::ExpertFfn;
use symi_model::moe::MoeLayer;
use symi_model::router::Router;
use symi_model::ModelConfig;
use symi_tensor::rng::StdRng;
use symi_tensor::{init, AdamConfig, AdamState};

use crate::inputs::{Geometry, RANKS};
use crate::stats::median;
use crate::workloads::{engine_config, System, MODEL_SEED};

const SAMPLES: usize = 15;

pub type Named = Vec<(&'static str, f64)>;

/// Milliseconds one call of `f` takes.
fn ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median of `SAMPLES` values of `sample`, after one discarded call. The
/// closure does its untimed preparation itself and returns what it timed.
fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    let samples: Vec<f64> = (0..SAMPLES).map(|_| sample()).collect();
    median(&samples)
}

/// Adam over `params` parameters, in nanoseconds per parameter.
fn adam_ns_per_param(params: usize) -> f64 {
    let mut state = AdamState::new(AdamConfig::default(), &vec![0.01; params]);
    let grads = vec![1e-3f32; params];
    let mut out = vec![0.0f32; params];
    median_of(|| ms(|| state.step(black_box(&grads), &mut out))) * 1e6 / params as f64
}

/// `model.*` and `tensor.adam_ns_per_param` on stand-alone layers at
/// `ModelConfig::small_sim()` shapes (`trainer_lm`).
pub fn model_layers() -> Named {
    let cfg = ModelConfig::small_sim();
    let tokens = cfg.tokens_per_batch();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let x = init::normal(tokens, cfg.d_model, 1.0, &mut rng);
    let dy = init::normal(tokens, cfg.d_model, 0.01, &mut rng);
    let replicas = vec![cfg.uniform_replicas(); cfg.experts];
    let mut out = Named::new();

    let mut attention = CausalAttention::new(cfg.d_model, cfg.n_heads, cfg.seq_len, MODEL_SEED);
    out.push(("model.attention_fwd_ms", median_of(|| ms(|| attention.forward(&x)))));
    out.push(("model.attention_bwd_ms", median_of(|| ms(|| attention.backward(&dy)))));

    let mut router =
        Router::new(cfg.d_model, cfg.experts, cfg.top_k, cfg.aux_loss_coef, MODEL_SEED);
    out.push(("model.router_fwd_ms", median_of(|| ms(|| router.forward(&x)))));

    let mut moe = MoeLayer::new(
        cfg.d_model,
        cfg.d_ff,
        cfg.experts,
        cfg.top_k,
        cfg.slot_capacity(),
        cfg.aux_loss_coef,
        MODEL_SEED,
    );
    out.push(("model.moe_fwd_ms", median_of(|| ms(|| moe.forward(&x, &replicas)))));
    // A backward consumes its forward's dispatch cache: redo it, untimed.
    out.push((
        "model.moe_bwd_ms",
        median_of(|| {
            moe.forward(&x, &replicas);
            ms(|| moe.backward(&dy))
        }),
    ));

    // One expert at its uniform share of the batch.
    let share = tokens / cfg.experts;
    let xe = init::normal(share, cfg.d_model, 1.0, &mut rng);
    let dye = init::normal(share, cfg.d_model, 0.01, &mut rng);
    let mut expert = ExpertFfn::new(cfg.d_model, cfg.d_ff, MODEL_SEED);
    out.push(("model.expert_fwd_ms", median_of(|| ms(|| expert.forward(&xe)))));
    out.push(("model.expert_bwd_ms", median_of(|| ms(|| expert.backward(&dye)))));

    let mut head = LmHead::new(cfg.d_model, cfg.vocab_size, MODEL_SEED);
    let dlogits = init::normal(tokens, cfg.vocab_size, 0.01, &mut rng);
    out.push((
        "model.lm_head_ms",
        median_of(|| ms(|| (head.forward(&x), head.backward(&dlogits)))),
    ));

    let mut embedding = Embedding::new(cfg.vocab_size, cfg.seq_len, cfg.d_model, MODEL_SEED);
    let ids: Vec<u32> = (0..tokens).map(|t| (t * 7 % cfg.vocab_size) as u32).collect();
    out.push((
        "model.embedding_ms",
        median_of(|| ms(|| (embedding.forward(&ids), embedding.backward(&dy)))),
    ));

    out.push(("tensor.adam_ns_per_param", adam_ns_per_param(expert.param_count())));
    out
}

/// `collectives.*` (and for SYMI `core.*`) direct timings on a fresh
/// `RANKS`-rank cluster at the workload's shapes, plus
/// `tensor.adam_ns_per_param` on one rank's optimizer shard of one class.
/// Every collective call is preceded by an untimed barrier, so the time is
/// the exchange and not the wait for a late peer; rank 0's clock is kept.
pub fn engine_layers(system: System, g: &Geometry) -> Named {
    let w = g.expert_params();
    let (mut per_rank, _) = Cluster::run(ClusterSpec::flat(RANKS), |ctx| {
        let rank = ctx.rank();
        let peer = (rank + 1) % RANKS;
        let world = ctx.groups().world();
        let mut out = Named::new();
        let mut iteration = 0u64;
        // A fresh structured tag space per call keeps every exchange in its
        // own epoch, the way consecutive engine iterations do.
        let mut tags = || {
            iteration += 1;
            TagSpace::new(1, iteration)
        };

        // One expert's gradient.
        let mut grad = vec![1e-3f32; w];
        out.push((
            "collectives.allreduce_ms",
            median_of(|| {
                let tag = tags().tag(WirePhase::GradSync, 0, 0);
                ctx.barrier();
                ms(|| ctx.allreduce_sum(&world, tag, &mut grad).expect("allreduce"))
            }),
        ));

        // A dispatch under uniform routing: each rank keeps 1/RANKS of its
        // tokens and sends the rest.
        let rows = vec![0.5f32; g.tokens_per_rank / RANKS * g.d_model];
        out.push((
            "collectives.alltoallv_ms",
            median_of(|| {
                let bufs = vec![rows.clone(); RANKS];
                let tag = tags().phase_tag(WirePhase::DispatchRows);
                ctx.barrier();
                ms(|| ctx.alltoallv_f32(&world, tag, bufs).expect("alltoallv"))
            }),
        ));

        // One class's fp16 weight shard, exchanged both ways at once; the
        // rate is what one rank receives.
        let shard = vec![0x3c00u16; w / RANKS];
        let exchange_ms = median_of(|| {
            let tag = tags().tag(WirePhase::WeightDistribute, 0, 0);
            let sends = vec![SendOp::new(peer, tag, shard.clone())];
            let recvs = [RecvOp::sized(peer, tag, shard.len())];
            ctx.barrier();
            ms(|| ctx.batch_isend_irecv(sends, &recvs).expect("p2p exchange"))
        });
        let gib = (shard.len() * 2) as f64 / (1u64 << 30) as f64;
        out.push(("collectives.p2p_gib_per_s", gib / (exchange_ms / 1e3)));

        out.push(("tensor.adam_ns_per_param", adam_ns_per_param(w / RANKS)));
        if system == System::DeepSpeed {
            return out;
        }

        let adam = AdamConfig::default();
        let class_params: Vec<Vec<f32>> = (0..g.classes)
            .map(|c| {
                ExpertFfn::new(g.d_model, g.d_ff, MODEL_SEED ^ (0xe0 + c as u64)).flat_params()
            })
            .collect();
        let mut optimizer = SymiOptimizer::new(rank, RANKS, adam, &class_params);
        let placement = ExpertPlacement::uniform(g.classes, RANKS, g.slots_per_rank);
        let local_grads: Vec<Option<Vec<f32>>> = (0..g.classes)
            .map(|c| placement.rank_hosts(rank, c).then(|| vec![1e-3f32; w]))
            .collect();
        let mut shards = Vec::new();
        out.push((
            "core.collect_grads_ms",
            median_of(|| {
                let tags = tags();
                ctx.barrier();
                ms(|| {
                    shards = optimizer
                        .collect_grads(ctx, &placement, &local_grads, tags)
                        .expect("collect_grads")
                })
            }),
        ));
        let mut weights = Vec::new();
        out.push((
            "core.adam_shard_step_ms",
            median_of(|| ms(|| weights = optimizer.step(&shards))),
        ));
        out.push((
            "core.distribute_weights_ms",
            median_of(|| {
                let tags = tags();
                ctx.barrier();
                ms(|| {
                    optimizer
                        .distribute_weights(ctx, &placement, &weights, tags)
                        .expect("distribute_weights")
                })
            }),
        ));

        // A popularity as skewed as the input mixture's Zipf prior. One
        // call is too short for the clock: time a hundred.
        let popularity: Vec<u64> = (0..g.classes).map(|c| 4096 / (c as u64 + 1)).collect();
        let total_slots = g.slots_per_rank * RANKS;
        let hundred_ms = median_of(|| {
            ms(|| {
                for _ in 0..100 {
                    black_box(compute_placement(black_box(&popularity), total_slots));
                }
            })
        });
        out.push(("core.compute_placement_us", hundred_ms * 1e3 / 100.0));

        let engine = MoeLayerEngine::new(rank, RANKS, engine_config(g, adam));
        out.push(("core.snapshot_ms", median_of(|| ms(|| engine.snapshot()))));
        out
    });
    per_rank.swap_remove(0)
}
