//! Randomized property tests for the MoE model layer: routing/capacity/drop
//! invariants must hold for arbitrary inputs, replica allocations, and k.
//! Driven by `symi_tensor::rng` with fixed seeds.

use symi_model::moe::MoeLayer;
use symi_model::router::Router;
use symi_tensor::ops::softmax_rows;
use symi_tensor::rng::{Rng, StdRng};
use symi_tensor::Matrix;

fn input(t: usize, d: usize, seed: f32) -> Matrix {
    Matrix::from_fn(t, d, move |r, c| ((r * d + c) as f32 * 0.173 + seed).sin())
}

#[test]
fn token_accounting_is_exact() {
    let mut rng = StdRng::seed_from_u64(401);
    for _ in 0..32 {
        let t = rng.gen_range(1..40usize);
        let cap = rng.gen_range(0..10usize);
        let k = rng.gen_range(1..3usize);
        let seed = rng.gen_range(0..50u32);
        let e = 4usize;
        let mut layer = MoeLayer::new(6, 8, e, k, cap as f32, 0.0, seed as u64);
        let x = input(t, 6, seed as f32);
        let (_, stats) = layer.forward(&x, &[1, 1, 1, 1]);
        assert_eq!(stats.survived + stats.dropped, t);
        assert_eq!(stats.popularity.iter().sum::<u64>() as usize, t * k);
        assert_eq!(stats.assignments_kept + stats.assignments_dropped, t * k);
        // No class keeps more than its capacity.
        assert!(stats.assignments_kept <= e * cap);
    }
}

#[test]
fn outputs_are_finite_for_any_replica_allocation() {
    let mut rng = StdRng::seed_from_u64(402);
    for _ in 0..32 {
        let replicas: Vec<usize> = (0..4).map(|_| rng.gen_range(1..6usize)).collect();
        let t = rng.gen_range(1..24usize);
        let mut layer = MoeLayer::new(6, 8, 4, 1, 2.0, 0.01, 3);
        let x = input(t, 6, 0.5);
        let (y, _) = layer.forward(&x, &replicas);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let dy = input(t, 6, 1.5);
        let dx = layer.backward(&dy);
        assert!(dx.as_slice().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn survival_is_monotone_in_capacity() {
    let mut rng = StdRng::seed_from_u64(403);
    for _ in 0..16 {
        let t = rng.gen_range(4..32usize);
        let seed = rng.gen_range(0..20u32);
        let x = input(t, 6, seed as f32 * 0.1);
        let mut prev = 0usize;
        for cap in [0usize, 1, 2, 4, 100] {
            let mut layer = MoeLayer::new(6, 8, 4, 1, cap as f32, 0.0, seed as u64);
            let (_, stats) = layer.forward(&x, &[1, 1, 1, 1]);
            assert!(stats.survived >= prev, "cap {cap}");
            prev = stats.survived;
        }
        assert_eq!(prev, t, "unbounded capacity keeps everything");
    }
}

#[test]
fn more_replicas_never_hurt_survival() {
    let mut rng = StdRng::seed_from_u64(404);
    for _ in 0..16 {
        let t = rng.gen_range(8..32usize);
        let seed = rng.gen_range(0..20u32);
        let x = input(t, 6, seed as f32 * 0.07);
        let mut layer = MoeLayer::new(6, 8, 4, 1, 1.0, 0.0, seed as u64);
        let (_, low) = layer.forward(&x, &[1, 1, 1, 1]);
        let (_, high) = layer.forward(&x, &[3, 3, 3, 3]);
        assert!(high.survived >= low.survived);
    }
}

#[test]
fn gates_are_probabilities() {
    let mut rng = StdRng::seed_from_u64(405);
    for _ in 0..16 {
        let t = rng.gen_range(1..20usize);
        let k = rng.gen_range(1..4usize);
        let mut layer = MoeLayer::new(6, 8, 4, k, 100.0, 0.0, 9);
        let x = input(t, 6, 2.0);
        let routing = layer.router.forward(&x);
        assert_eq!(routing.assignment.len(), t * k, "k picks per token, flat");
        for picks in routing.assignment.chunks(k) {
            let mut seen = std::collections::HashSet::new();
            for &(class, gate) in picks {
                assert!(gate > 0.0 && gate <= 1.0);
                assert!(seen.insert(class), "classes must be distinct");
            }
            let total: f32 = picks.iter().map(|&(_, g)| g).sum();
            assert!(total <= 1.0 + 1e-5, "top-k gates cannot exceed the simplex");
        }
    }
}

/// Top-k as the router computed it before its picks became one flat vector:
/// a stable NaN-last descending sort of every class index, cut at `k`.
fn sorted_top_k(row: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut order: Vec<usize> = (0..row.len()).collect();
    order.sort_by(|&a, &b| match (row[a].is_nan(), row[b].is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => row[b].partial_cmp(&row[a]).expect("both finite"),
    });
    order[..k].iter().map(|&c| (c, row[c])).collect()
}

#[test]
fn flat_top_k_equals_the_stable_sort_for_every_k_with_ties_and_nan_rows() {
    let mut rng = StdRng::seed_from_u64(406);
    let bits = |p: &[(usize, f32)]| p.iter().map(|&(c, g)| (c, g.to_bits())).collect::<Vec<_>>();
    for round in 0..12 {
        let (d, e, t) = (6usize, rng.gen_range(2..9usize), rng.gen_range(1..24usize));
        let mut x = input(t, d, round as f32 * 0.31);
        // A NaN feature poisons its token's whole softmax row.
        for tok in (round % 3..t).step_by(5) {
            x[(tok, tok % d)] = f32::NAN;
        }
        for k in 1..=e {
            let mut router = Router::new(d, e, k, 0.0, round as u64);
            // Duplicated weight columns give every token tied gates.
            for c in (1..e).step_by(2) {
                for r in 0..d {
                    router.w[(r, c)] = router.w[(r, c - 1)];
                }
            }
            let probs = softmax_rows(&x.matmul(&router.w));
            let routing = router.forward(&x);
            assert_eq!(routing.assignment.len(), t * k);
            for (tok, picks) in routing.assignment.chunks(k).enumerate() {
                let want = sorted_top_k(probs.row(tok), k);
                assert_eq!(bits(picks), bits(&want), "round {round} k {k} token {tok}");
            }
        }
    }
}
