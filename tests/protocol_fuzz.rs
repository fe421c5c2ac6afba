//! Protocol stress fuzzer for the optimizer p2p wire protocol.
//!
//! The bug class under test: the retired XOR tag scheme let a GradCollect
//! message and a WeightDistribute message land on the *same* `(from, tag)`
//! channel (`tag(8) ^ tag(9) == 1 << 28`, exactly the bit that slot 16's
//! `<< 24` salt sets). In a sequential phase order the per-channel FIFO
//! hid the aliasing; in an overlapped batch — weight receives posted
//! before grad receives, as a fused Grad+Weight Communication Phase does —
//! the two identical-length shards silently swap.
//!
//! The suite drives the same overlapped exchange through three protocol
//! configurations:
//!
//! 1. the legacy XOR scheme, reproducing the silent corruption against a
//!    single-rank oracle (kept as a regression fixture);
//! 2. the legacy scheme under epoch fencing, which turns the swap into a
//!    loud [`CommError::RecvTimeout`] with a decoded stash dump;
//! 3. the structured [`TagSpace`], bit-exact against the oracle across
//!    skewed multi-layer ≥16-slot configs with injected per-rank delays.

use std::time::Duration;
use symi::optimizer::get_source;
use symi::{ExpertPlacement, SymiOptimizer};
use symi_collectives::coll::chunk_range;
use symi_collectives::p2p::{RecvOp, SendOp};
use symi_collectives::{Cluster, ClusterSpec, CommError, TagSpace, WirePhase};
use symi_tensor::AdamConfig;

/// Deterministic corruption config: 6 ranks × 3 slots = 18 slots, slot 16
/// on rank 5, class 0 hosted only on rank 0 (`get_source` → 0 everywhere).
const N: usize = 6;
const S: usize = 3;
const COUNTS: [usize; 6] = [1, 4, 4, 3, 3, 3];
/// Params per class: divisible by N so every chunk is the same length —
/// the precondition for the swap to pass the wire length check.
const L: usize = 24;

fn legacy_base(it: u64, phase: u64) -> u64 {
    (it << 32) ^ (phase << 28)
}

fn legacy_grad_tag(it: u64, class: usize) -> u64 {
    legacy_base(it, 8) ^ ((class as u64) << 20)
}

fn legacy_weight_tag(it: u64, slot: usize, src: usize) -> u64 {
    legacy_base(it, 9) ^ ((slot as u64) << 24) ^ ((src as u64) << 8)
}

/// Full flat gradient of `class`, identical on every rank (post-allreduce).
fn grad_of(class: usize) -> Vec<f32> {
    (0..L).map(|i| (class * 1000 + i) as f32 * 0.5).collect()
}

/// Full flat updated weights of `class` — distinct from every gradient so a
/// swap is detectable.
fn weights_of(class: usize) -> Vec<f32> {
    (0..L).map(|i| -((class * 1000 + i) as f32)).collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Scheme {
    /// Raw XOR tags, no epochs: the original protocol.
    LegacyXor,
    /// Raw XOR tags with `begin_epoch` fencing: aliasing becomes loud.
    LegacyXorFenced,
    /// Structured `TagSpace` tags: aliasing is impossible by construction.
    Structured,
}

/// One overlapped Grad+Weight exchange: every send of both phases is issued
/// before any receive, and the receive batch posts **weight receives
/// first** — the schedule a fused communication phase produces.
///
/// Returns `(grad chunk per class, full weights per local slot)`.
#[allow(clippy::type_complexity)]
fn overlapped_exchange(
    ctx: &mut symi_collectives::RankCtx,
    placement: &ExpertPlacement,
    scheme: Scheme,
    it: u64,
) -> Result<(Vec<Vec<f32>>, Vec<Vec<f32>>), CommError> {
    let me = ctx.rank();
    let n = placement.ranks();
    let s = placement.slots_per_rank();
    let e = placement.replica_counts().len();
    let tags = TagSpace::new(0, it);
    let grad_tag = |class: usize, src: usize| match scheme {
        Scheme::Structured => tags.tag(WirePhase::GradCollect, class, src),
        _ => legacy_grad_tag(it, class),
    };
    let weight_tag = |slot: usize, src: usize| match scheme {
        Scheme::Structured => tags.tag(WirePhase::WeightDistribute, slot, src),
        _ => legacy_weight_tag(it, slot, src),
    };

    if scheme == Scheme::LegacyXorFenced {
        ctx.begin_epoch(it, WirePhase::GradCollect);
    }
    let mut sends = Vec::new();
    for class in 0..e {
        let hosts = placement.host_ranks(class);
        if !hosts.contains(&me) {
            continue;
        }
        let grad = grad_of(class);
        for dst in 0..n {
            if dst != me && get_source(&hosts, dst) == me {
                let (a, b) = chunk_range(L, n, dst);
                sends.push(SendOp::new(dst, grad_tag(class, me), grad[a..b].to_vec()));
            }
        }
    }
    // Grad sends leave while the sender is still in the grad phase (so a
    // fencing sender stamps them with the grad epoch); only the receives
    // are deferred into the overlapped batch below.
    ctx.batch_isend_irecv(sends, &[])?;
    if scheme == Scheme::LegacyXorFenced {
        ctx.begin_epoch(it, WirePhase::WeightDistribute);
    }
    let mut sends = Vec::new();
    let (ma, mb) = chunk_range(L, n, me);
    for slot in 0..placement.total_slots() {
        let class = placement.class_of_slot(slot);
        sends.push(SendOp::new(
            placement.rank_of_slot(slot),
            weight_tag(slot, me),
            weights_of(class)[ma..mb].to_vec(),
        ));
    }

    // Weight receives first, then grad receives — the overlap that exposes
    // the aliasing.
    let mut recvs = Vec::new();
    for local in 0..s {
        let slot = me * s + local;
        for src in 0..n {
            let (a, b) = chunk_range(L, n, src);
            recvs.push(RecvOp::sized(src, weight_tag(slot, src), b - a));
        }
    }
    let mut grad_srcs = Vec::new();
    for class in 0..e {
        let src = get_source(&placement.host_ranks(class), me);
        grad_srcs.push(src);
        if src != me {
            recvs.push(RecvOp::sized(src, grad_tag(class, src), mb - ma));
        }
    }

    let mut received = ctx.batch_isend_irecv(sends, &recvs)?.into_iter();
    let mut slot_weights = Vec::with_capacity(s);
    for _local in 0..s {
        let mut full = vec![0.0f32; L];
        for src in 0..n {
            let (a, b) = chunk_range(L, n, src);
            full[a..b].copy_from_slice(&received.next().expect("weight recv").into_f32()?);
        }
        slot_weights.push(full);
    }
    let mut grad_chunks = Vec::with_capacity(e);
    for (class, &src) in grad_srcs.iter().enumerate() {
        if src == me {
            grad_chunks.push(grad_of(class)[ma..mb].to_vec());
        } else {
            grad_chunks.push(received.next().expect("grad recv").into_f32()?);
        }
    }
    Ok((grad_chunks, slot_weights))
}

/// What a correct exchange must produce on `rank` — computed locally with
/// no communication at all.
#[allow(clippy::type_complexity)]
fn oracle(placement: &ExpertPlacement, rank: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let n = placement.ranks();
    let s = placement.slots_per_rank();
    let e = placement.replica_counts().len();
    let (ma, mb) = chunk_range(L, n, rank);
    let grads = (0..e).map(|c| grad_of(c)[ma..mb].to_vec()).collect();
    let weights =
        (0..s).map(|local| weights_of(placement.class_of_slot(rank * s + local))).collect();
    (grads, weights)
}

#[test]
fn legacy_overlap_silently_swaps_identical_length_shards() {
    let placement = ExpertPlacement::from_counts(&COUNTS, S);
    assert_eq!(placement.rank_of_slot(16), 5);
    assert_eq!(placement.host_ranks(0), vec![0]);
    assert_eq!(legacy_grad_tag(3, 0), legacy_weight_tag(3, 16, 0), "the aliasing pair");

    let p = placement.clone();
    let (results, _) = Cluster::run(ClusterSpec::flat(N), move |ctx| {
        overlapped_exchange(ctx, &p, Scheme::LegacyXor, 3).expect("legacy run must NOT error")
    });

    let (g5, w5) = &results[5];
    let (oracle_g5, oracle_w5) = oracle(&placement, 5);
    // Slot 16 is local slot 1 on rank 5; its first chunk (src 0) took the
    // class-0 gradient chunk bound for rank 5, and the class-0 gradient
    // took slot 16's weight chunk — a silent, wire-legal swap.
    let (a5, b5) = chunk_range(L, N, 5);
    assert_eq!(w5[1][0..4], grad_of(0)[a5..b5], "slot 16 weights hold gradient data");
    assert_eq!(g5[0], weights_of(placement.class_of_slot(16))[0..4], "grad chunk holds weights");
    assert_ne!(w5[1], oracle_w5[1]);
    assert_ne!(g5[0], oracle_g5[0]);
    // Every other rank came out clean — nothing flags the corruption.
    for (rank, (g, w)) in results.iter().enumerate().take(5) {
        let (og, ow) = oracle(&placement, rank);
        assert_eq!((g, w), (&og, &ow), "rank {rank} should be (deceptively) intact");
    }
}

#[test]
fn epoch_fence_turns_the_swap_into_a_loud_timeout() {
    let placement = ExpertPlacement::from_counts(&COUNTS, S);
    let p = placement.clone();
    let (results, _) = Cluster::run(ClusterSpec::flat(N), move |ctx| {
        ctx.set_recv_timeout(Some(Duration::from_millis(100)));
        let out = overlapped_exchange(ctx, &p, Scheme::LegacyXorFenced, 3);
        (out.err(), ctx.protocol_stats())
    });
    // Rank 5's aliased weight receive finds the cross-phase gradient at
    // the front of its channel, fences it, and times out with the decoded
    // stash — corruption became diagnosis.
    let (err, stats) = &results[5];
    match err.as_ref().expect("fenced run must fail loudly") {
        CommError::RecvTimeout { from, tag, fenced, pending, .. } => {
            assert_eq!(*from, 0);
            assert!(tag.contains("raw:"), "raw tag must decode as raw: {tag}");
            assert!(*fenced >= 1, "the aliased message must be counted as fenced");
            assert!(!pending.is_empty(), "stash dump must name the stuck messages");
            assert!(
                pending.iter().any(|line| line.contains("epoch=")),
                "stash lines carry epochs: {pending:?}"
            );
        }
        other => panic!("expected RecvTimeout, got {other:?}"),
    }
    assert!(stats.fenced_messages >= 1);
    assert!(stats.recv_timeouts >= 1);
    // No rank anywhere accepted cross-phase data silently.
    for (rank, (err, _)) in results.iter().enumerate() {
        assert!(
            err.is_none() || matches!(err, Some(CommError::RecvTimeout { .. })),
            "rank {rank}: only loud timeouts are acceptable, got {err:?}"
        );
    }
}

#[test]
fn sequential_phases_with_epochs_stay_clean() {
    // Phased raw-tag code (grad recvs complete before the weight phase
    // begins) must not trip the fence: epochs agree on both sides of every
    // exchange.
    let placement = ExpertPlacement::from_counts(&COUNTS, S);
    let p = placement.clone();
    let (results, _) = Cluster::run(ClusterSpec::flat(N), move |ctx| {
        let me = ctx.rank();
        let n = p.ranks();
        let e = p.replica_counts().len();
        let it = 7u64;
        ctx.set_recv_timeout(Some(Duration::from_millis(500)));

        ctx.begin_epoch(it, WirePhase::GradCollect);
        let mut sends = Vec::new();
        for class in 0..e {
            let hosts = p.host_ranks(class);
            if !hosts.contains(&me) {
                continue;
            }
            let grad = grad_of(class);
            for dst in 0..n {
                if dst != me && get_source(&hosts, dst) == me {
                    let (a, b) = chunk_range(L, n, dst);
                    sends.push(SendOp::new(dst, legacy_grad_tag(it, class), grad[a..b].to_vec()));
                }
            }
        }
        let (ma, mb) = chunk_range(L, n, me);
        let recvs: Vec<RecvOp> = (0..e)
            .filter_map(|class| {
                let src = get_source(&p.host_ranks(class), me);
                (src != me).then(|| RecvOp::sized(src, legacy_grad_tag(it, class), mb - ma))
            })
            .collect();
        ctx.batch_isend_irecv(sends, &recvs).unwrap();

        ctx.begin_epoch(it, WirePhase::WeightDistribute);
        let mut sends = Vec::new();
        for slot in 0..p.total_slots() {
            let class = p.class_of_slot(slot);
            sends.push(SendOp::new(
                p.rank_of_slot(slot),
                legacy_weight_tag(it, slot, me),
                weights_of(class)[ma..mb].to_vec(),
            ));
        }
        let mut recvs = Vec::new();
        for local in 0..p.slots_per_rank() {
            let slot = me * p.slots_per_rank() + local;
            for src in 0..n {
                let (a, b) = chunk_range(L, n, src);
                recvs.push(RecvOp::sized(src, legacy_weight_tag(it, slot, src), b - a));
            }
        }
        ctx.batch_isend_irecv(sends, &recvs).unwrap();
        ctx.protocol_stats()
    });
    for (rank, stats) in results.iter().enumerate() {
        assert_eq!(stats.fenced_messages, 0, "rank {rank}: sequential phases must not fence");
        assert_eq!(stats.recv_timeouts, 0, "rank {rank}: no timeouts");
    }
}

#[test]
fn structured_tags_are_bit_exact_under_overlap_skew_and_delays() {
    // Fuzz the fixed corruption config and a second skewed ≥16-slot shape,
    // multiple iterations each, with per-rank delays injected between the
    // phases to scramble arrival order. Two layers share every rank's
    // mailbox in alternating order to stress the layer field too.
    let shapes: Vec<(usize, usize, Vec<usize>)> = vec![
        (N, S, COUNTS.to_vec()),
        (8, 2, vec![13, 1, 1, 1]), // 16 slots, extreme popularity skew
    ];
    for (n, s, counts) in shapes {
        let placement = ExpertPlacement::from_counts(&counts, s);
        assert!(placement.total_slots() >= 16);
        let p = placement.clone();
        let (results, _) = Cluster::run(ClusterSpec::flat(n), move |ctx| {
            let mut out = Vec::new();
            for it in 0..3u64 {
                // Skew: every rank stalls differently, so stash ordering
                // differs from send ordering on every channel.
                std::thread::sleep(Duration::from_millis((ctx.rank() as u64 * 7 + it) % 11));
                out.push(overlapped_exchange(ctx, &p, Scheme::Structured, it).unwrap());
            }
            out
        });
        for (rank, iters) in results.iter().enumerate() {
            let expect = oracle(&placement, rank);
            for (it, got) in iters.iter().enumerate() {
                assert_eq!(*got, expect, "rank {rank} iteration {it} must be bit-exact");
            }
        }
    }
}

#[test]
fn symi_optimizer_is_bit_exact_against_a_single_rank_oracle() {
    // The real optimizer pipeline — collect → Adam → fp16 distribute —
    // across skewed multi-rank configs with re-placement between
    // iterations, compared bit-for-bit against one optimizer instance that
    // owns everything.
    let shapes: Vec<(usize, usize, Vec<usize>, Vec<usize>)> = vec![
        (N, S, COUNTS.to_vec(), vec![4, 4, 4, 2, 2, 2]),
        (8, 2, vec![4, 4, 4, 4], vec![13, 1, 1, 1]),
    ];
    for (n, s, counts, new_counts) in shapes {
        let e = counts.len();
        let class_params: Vec<Vec<f32>> =
            (0..e).map(|c| (0..L).map(|i| ((c * 31 + i) as f32 * 0.07).sin()).collect()).collect();
        let grads: Vec<Vec<f32>> =
            (0..e).map(|c| (0..L).map(|i| ((c * 17 + i) as f32 * 0.13).cos()).collect()).collect();
        let placements = [
            ExpertPlacement::from_counts(&counts, s),
            ExpertPlacement::from_counts(&new_counts, s),
        ];

        let cp = class_params.clone();
        let gr = grads.clone();
        let pl = placements.clone();
        let (results, _) = Cluster::run(ClusterSpec::flat(n), move |ctx| {
            std::thread::sleep(Duration::from_millis((ctx.rank() as u64 * 5) % 9));
            let mut opt = SymiOptimizer::new(ctx.rank(), n, AdamConfig::default(), &cp);
            let mut latest = Vec::new();
            for it in 0..3u64 {
                // Collect under the iteration's placement, distribute under
                // the next one — SYMI's free re-placement.
                let collect_p = &pl[(it as usize) % 2];
                let distribute_p = &pl[(it as usize + 1) % 2];
                let tags = TagSpace::new(0, it);
                let local: Vec<Option<Vec<f32>>> = (0..e)
                    .map(|c| collect_p.rank_hosts(ctx.rank(), c).then(|| gr[c].clone()))
                    .collect();
                let shards = opt.collect_grads(ctx, collect_p, &local, tags).unwrap();
                let updated = opt.step(&shards);
                latest = opt.distribute_weights(ctx, distribute_p, &updated, tags).unwrap();
            }
            latest
        });

        // Single-rank oracle: one optimizer owns every shard; Adam is
        // elementwise, so chunked and whole-vector stepping agree exactly.
        let mut oracle_opt = SymiOptimizer::new(0, 1, AdamConfig::default(), &class_params);
        let mut oracle_weights: Vec<Vec<f32>> = Vec::new();
        for _ in 0..3 {
            // The optimizer publishes binary16 bits; widen them (exactly)
            // to compare with what the distribute delivered.
            oracle_weights = oracle_opt
                .step(&grads)
                .iter()
                .map(|half| half.iter().map(|&h| symi_tensor::half::f16_to_f32(h)).collect())
                .collect();
        }
        let final_p = &placements[1]; // distribute placement of it = 2
        for (rank, slots) in results.iter().enumerate() {
            for (local, got) in slots.iter().enumerate() {
                let class = final_p.class_of_slot(rank * s + local);
                assert_eq!(
                    got, &oracle_weights[class],
                    "rank {rank} slot {local}: fp16 distribute must be bit-exact"
                );
            }
        }
    }
}
