//! The differential oracle of the token path: a dense mixture of experts.
//!
//! With no capacity limit (cf = ∞, nothing dropped) a top-1 MoE layer is, by
//! definition, `y[t] = Σ_c w[t, c] · expert_c(x[t])` with `w[t, c]` the
//! router's gate where `c` is token `t`'s argmax class and zero elsewhere.
//! The dense side computes exactly that, with nothing distributed and nothing
//! sparse: every class's expert runs on *every* token of the world, the
//! outputs are weighted and summed, and each class's parameter gradient is
//! one backward pass over all tokens whose upstream rows are `w[t, c] ·
//! dLoss/dy[t]` — zero rows for the tokens of other classes, so it is the
//! sum over tokens of the per-token gradient.
//!
//! The engine reaches the same numbers through routing, per-slot capacity
//! assignment, the dispatch all-to-all, one batch per (rank, class), the
//! combine, the gradient return and §4.1's reduce. Agreement is what says
//! that no row was lost, duplicated, mis-gated or attributed to the wrong
//! class anywhere on that path — at world sizes 1, 2 and 3, before and after
//! the placement has rebalanced and replicas of one class share a rank.
//!
//! The two sides add the same products in different orders (rows tile
//! differently, zero rows sit in between, partial sums cross ranks), so they
//! agree within rounding, not bit for bit. Stated tolerance, per element:
//! `|engine − dense| ≤ 16 ε (|dense| + rms)`, `ε = 2⁻²⁴`, `rms` the root mean
//! square of the compared tensor — `dLoss/dy` per rank, the flat gradient per
//! class. A class's summed gradient is compared where the reduce leaves it —
//! on the ranges each host serves to Algorithm 2 — and those ranges must
//! tile the class once per iteration, so every element is compared on
//! exactly one rank.
//!
//! Both sides' gradients are binary16, each narrowed under its own
//! power-of-two exponent: the dense side's once over all tokens, the
//! engine's once per host before the reduce sums them. At one rank the two
//! narrowings are the same one, and the 16 ε bound stands. Across ranks each
//! side carries up to half a binary16 ulp (2⁻¹¹ relative) per narrowed
//! value, so there the gradient bound is `2⁻⁹ (|dense| + rms)`. A lost,
//! doubled or mis-gated row still moves an element by a whole term, far
//! past either bound. Measured: the outputs agree exactly (a row's GEMM
//! does not depend on its neighbours), the class gradients exactly at one
//! rank — class-major rows are in token order there, and a zero row adds
//! nothing — and within ≈ 6,800 ε at two ranks and ≈ 7,600 ε at three.

use std::sync::{Barrier, Mutex};

use symi::{EngineConfig, MoeLayerEngine};
use symi_collectives::{Cluster, ClusterSpec};
use symi_model::expert::ExpertFfn;
use symi_tensor::half::{f16_to_f32, f32_to_f16};
use symi_tensor::ops::softmax_rows;
use symi_tensor::rng::StdRng;
use symi_tensor::{init, AdamConfig, HalfMatrix, Matrix};

const T_LOC: usize = 24;
const ITERS: usize = 3;
const EPS: f32 = 1.0 / (1u32 << 24) as f32;
/// The class-gradient bound across ranks: two binary16 narrowings apart.
const HALF_TOL: f32 = 1.0 / 512.0;

fn cfg() -> EngineConfig {
    EngineConfig {
        d_model: 8,
        d_ff: 16,
        // Two classes over four slots per rank: replicas of a class share a
        // rank at every world size, one rank included.
        expert_classes: 2,
        slots_per_rank: 4,
        slot_capacity: 1_000_000, // cf = ∞
        adam: AdamConfig::default(),
        seed: 57,
        layer_id: 0,
    }
}

/// Mostly one drifting cluster in embedding space, so the router skews the
/// load and the placement has something to rebalance; every fourth token
/// points anywhere.
fn tokens(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        let id = ((rank * T_LOC + r) * 8 + c) as f32;
        if r % 4 == 3 {
            return 1.5 * (id * 1.913 + it as f32 * 2.3).sin();
        }
        (c as f32 * 0.7 + it as f32 * 0.9).sin() + 0.4 * (id * 0.613).sin()
    })
}

fn targets(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        (((rank * T_LOC + r) * 8 + c) as f32 * 0.113 - it as f32 * 0.7).cos() * 0.5
    })
}

/// The dense mixture over the whole `nodes`-rank world with class `c`'s
/// expert holding `weights[c]`: `dLoss/dy` per rank and the flat parameter
/// gradient per class.
fn dense_mixture(nodes: usize, weights: &[Vec<f32>], it: usize) -> (Vec<Matrix>, Vec<Vec<f32>>) {
    let cfg = cfg();
    let (d, t) = (cfg.d_model, nodes * T_LOC);
    let x = Matrix::from_fn(t, d, |r, c| tokens(r / T_LOC, it)[(r % T_LOC, c)]);
    let target = Matrix::from_fn(t, d, |r, c| targets(r / T_LOC, it)[(r % T_LOC, c)]);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x70c7);
    let router_w = init::normal(d, cfg.expert_classes, 0.3, &mut rng);
    let probs = softmax_rows(&x.matmul(&router_w));
    // w[t][c]: the top-1 gate (ties to the last class, as the engines break
    // them), zero for every other class.
    let w = Matrix::from_fn(t, cfg.expert_classes, |r, c| {
        let best = (0..cfg.expert_classes)
            .max_by(|&a, &b| probs[(r, a)].partial_cmp(&probs[(r, b)]).expect("finite"))
            .expect("a class");
        if c == best {
            probs[(r, c)]
        } else {
            0.0
        }
    });

    // The engine's experts: binary16 weights, loaded from the encoded bits of
    // the published weights (on the fp16 grid, so the encoding is exact).
    let mut experts: Vec<ExpertFfn<HalfMatrix>> = weights
        .iter()
        .map(|flat| {
            let bits: Vec<u16> = flat.iter().map(|&w| f32_to_f16(w)).collect();
            assert!(
                bits.iter().zip(flat).all(|(&h, &w)| f16_to_f32(h).to_bits() == w.to_bits()),
                "published weights off the fp16 grid"
            );
            let mut e = ExpertFfn::zeros(d, cfg.d_ff);
            e.load_f16_at(0, &bits);
            e
        })
        .collect();
    let mut dy = Matrix::zeros(t, d);
    for (class, expert) in experts.iter_mut().enumerate() {
        let out = expert.forward(&x); // every class on every token
        for r in 0..t {
            dy.axpy_row_from(r, w[(r, class)], &out, r);
        }
    }
    dy.axpy(-1.0, &target);
    dy.scale(2.0 / (t * d) as f32);

    let grads = experts
        .iter_mut()
        .enumerate()
        .map(|(class, expert)| {
            let upstream = Matrix::from_fn(t, d, |r, c| w[(r, class)] * dy[(r, c)]);
            expert.zero_grad();
            let _ = expert.backward(&upstream);
            expert.grad_values()
        })
        .collect();
    let per_rank = (0..nodes)
        .map(|rank| Matrix::from_fn(T_LOC, d, |r, c| dy[(rank * T_LOC + r, c)]))
        .collect();
    (per_rank, grads)
}

/// Largest `|got − want| / (|want| + rms(want))` over the elements of
/// `ranges`, `rms` taken over all of `want`.
fn worst_error(got: &[f32], want: &[f32], ranges: &[(usize, usize)]) -> f32 {
    assert_eq!(got.len(), want.len());
    let rms = (want.iter().map(|v| v * v).sum::<f32>() / want.len() as f32).sqrt();
    ranges.iter().flat_map(|&(s, t)| s..t).fold(0.0, |m, i| {
        let (a, b) = (got[i], want[i]);
        m.max((a - b).abs() / (b.abs() + rms))
    })
}

#[test]
fn dense_mixture_equals_dispatch_expert_combine_at_infinite_capacity() {
    let cfg = cfg();
    let e = cfg.expert_classes;
    for nodes in [1usize, 2, 3] {
        // board[class] = the class's weights, published by whoever hosts it.
        let board: Mutex<Vec<Vec<f32>>> = Mutex::new(vec![Vec::new(); e]);
        let barrier = Barrier::new(nodes);
        // Each rank returns, per iteration, the weights it ran on and what
        // the engine produced; the dense side is computed and compared once
        // the cluster run is over — a failed assertion inside it would leave
        // the other ranks blocked.
        let (ran, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
            let rank = ctx.rank();
            let mut engine = MoeLayerEngine::new(rank, nodes, cfg);
            let mut ran = Vec::new();
            for it in 0..ITERS {
                let placement = engine.placement.clone();
                let hosted = placement.classes_on_rank(rank);
                for (class, locals) in &hosted {
                    board.lock().expect("board")[*class] = engine.slot_weights(locals[0]);
                }
                barrier.wait();
                let weights = board.lock().expect("board").clone();
                barrier.wait(); // nobody overwrites the board before all have read it

                let stats = engine
                    .iteration(ctx, &tokens(rank, it), &targets(rank, it))
                    .expect("iteration");
                let dy = engine.loss_grad().as_slice().to_vec();
                let grads: Vec<_> = hosted
                    .iter()
                    .enumerate()
                    .map(|(g, (class, locals))| {
                        let ranges = engine.served_ranges(&placement, *class);
                        (*class, locals.len(), ranges, engine.hosted_grads(g))
                    })
                    .collect();
                let rebalanced = engine.placement != placement;
                ran.push((weights, placement, stats.dropped, dy, grads, rebalanced));
            }
            ran
        });
        let per_rank: Vec<_> = ran
            .iter()
            .enumerate()
            .map(|(rank, ran)| {
                let (mut worst_dy, mut worst_grad) = (0.0f32, 0.0f32);
                let (mut merged, mut ringed, mut rebalanced) = (false, false, false);
                let mut served = Vec::new();
                for (it, (weights, placement, dropped, dy, grads, moved)) in ran.iter().enumerate()
                {
                    let (want_dy, want_grads) = dense_mixture(nodes, weights, it);
                    assert_eq!(*dropped, 0, "{nodes} ranks iteration {it}: cf = ∞ drops nothing");
                    worst_dy =
                        worst_dy.max(worst_error(dy, want_dy[rank].as_slice(), &[(0, dy.len())]));
                    for (class, locals, ranges, got) in grads {
                        worst_grad = worst_grad.max(worst_error(got, &want_grads[*class], ranges));
                        served.push((it, *class, ranges.clone()));
                        merged |= *locals > 1;
                        ringed |= placement.host_ranks(*class).len() > 1;
                    }
                    rebalanced |= moved;
                }
                (worst_dy, worst_grad, merged, ringed, rebalanced, served)
            })
            .collect();
        // Per iteration and class, the hosts' served ranges tile the
        // gradient once: every element was compared, on one rank.
        let p = ExpertFfn::new(cfg.d_model, cfg.d_ff, 0).flat_params().len();
        for it in 0..ITERS {
            for class in 0..e {
                let mut covered = vec![0u32; p];
                let ranges =
                    per_rank.iter().flat_map(|r| &r.5).filter(|s| (s.0, s.1) == (it, class));
                for &(s, t) in ranges.flat_map(|s| &s.2) {
                    covered[s..t].iter_mut().for_each(|k| *k += 1);
                }
                assert!(
                    covered.iter().all(|&k| k == 1),
                    "{nodes} ranks iteration {it}: class {class}'s served ranges do not tile it"
                );
            }
        }
        let worst_dy = per_rank.iter().fold(0.0f32, |m, r| m.max(r.0));
        let worst_grad = per_rank.iter().fold(0.0f32, |m, r| m.max(r.1));
        println!(
            "{nodes} ranks: dLoss/dy within {:.1} eps, class gradients within {:.1} eps",
            worst_dy / EPS,
            worst_grad / EPS
        );
        assert!(worst_dy <= 16.0 * EPS, "{nodes} ranks: outputs off by {worst_dy:e}");
        let tol = if nodes == 1 { 16.0 * EPS } else { HALF_TOL };
        assert!(worst_grad <= tol, "{nodes} ranks: class gradients off by {worst_grad:e}");
        // The scenario must actually exercise what it claims to.
        assert!(per_rank.iter().any(|r| r.2), "{nodes} ranks: no class ever merged slots");
        assert!(per_rank.iter().any(|r| r.4), "{nodes} ranks: placement never rebalanced");
        assert!(nodes < 3 || per_rank.iter().any(|r| r.3), "no class ever spanned ranks");
    }
}
