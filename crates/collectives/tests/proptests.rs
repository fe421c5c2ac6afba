//! Randomized property tests for the collective algorithms: for random world
//! sizes, buffer lengths, and contents, every collective must agree with its
//! sequential specification. Driven by `symi_tensor::rng` with fixed seeds.

use symi_collectives::{
    tag, Cluster, ClusterSpec, CommError, CommGroup, RecvOp, SendOp, TagSpace, WirePhase,
};
use symi_tensor::rng::{Rng, StdRng};

#[test]
fn allreduce_equals_sequential_sum() {
    let mut rng = StdRng::seed_from_u64(201);
    for _ in 0..24 {
        let n = rng.gen_range(1..9usize);
        let len = rng.gen_range(0..40usize);
        let seedv: Vec<f32> = (0..8 * 40).map(|_| rng.gen::<f32>() * 200.0 - 100.0).collect();
        let seedv_ref = &seedv;
        let (results, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
            let group = ctx.groups().world();
            let mut data: Vec<f32> = (0..len).map(|i| seedv_ref[ctx.rank() * 40 + i]).collect();
            ctx.allreduce_sum(&group, 1, &mut data).unwrap();
            data
        });
        let expect: Vec<f32> = (0..len).map(|i| (0..n).map(|r| seedv[r * 40 + i]).sum()).collect();
        for res in &results {
            for (a, b) in res.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-2 * (1.0 + b.abs()));
            }
        }
    }
}

#[test]
fn allreduce_grid_covers_buffers_shorter_than_the_group() {
    // Deterministic (len, group size) grid with len < m prominently
    // included: short buffers make `chunk_range` hand out *empty* chunks,
    // which every ring step must ship and apply without slipping an index.
    // Both the world group and a non-contiguous subgroup are exercised.
    for n in 1..=6usize {
        for len in [0usize, 1, 2, 3, n.saturating_sub(1), n, n + 1, 17] {
            let (results, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
                let group = ctx.groups().world();
                let mut data: Vec<f32> =
                    (0..len).map(|i| ((ctx.rank() * 31 + i * 7) % 23) as f32).collect();
                ctx.allreduce_sum(&group, 40, &mut data).unwrap();
                data
            });
            let expect: Vec<f32> =
                (0..len).map(|i| (0..n).map(|r| ((r * 31 + i * 7) % 23) as f32).sum()).collect();
            for (rank, res) in results.iter().enumerate() {
                // Integer-valued data: the sums are exact, compare bitwise.
                assert_eq!(res, &expect, "world n={n} len={len} rank={rank}");
            }
        }
    }
    // Sparse subgroup {0, 2, 5} of 6: same grid of short buffers.
    let members = [0usize, 2, 5];
    for len in [0usize, 1, 2, 4, 9] {
        let (results, _) = Cluster::run(ClusterSpec::flat(6), |ctx| {
            if !members.contains(&ctx.rank()) {
                return Vec::new();
            }
            let group = CommGroup::new(members.to_vec());
            let mut data: Vec<f32> = (0..len).map(|i| (ctx.rank() * 10 + i) as f32).collect();
            ctx.allreduce_sum(&group, 41, &mut data).unwrap();
            data
        });
        let expect: Vec<f32> =
            (0..len).map(|i| members.iter().map(|&r| (r * 10 + i) as f32).sum()).collect();
        for &r in &members {
            assert_eq!(results[r], expect, "subgroup len={len} rank={r}");
        }
    }
}

#[test]
fn alltoallv_is_a_transpose() {
    let mut rng = StdRng::seed_from_u64(203);
    for _ in 0..24 {
        let n = rng.gen_range(1..7usize);
        // out[dest][src] must equal in[src][dest] for arbitrary sizes.
        let (results, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
            let group = ctx.groups().world();
            let bufs: Vec<Vec<f32>> =
                (0..n).map(|j| vec![(ctx.rank() * 100 + j) as f32; (ctx.rank() + j) % 3]).collect();
            ctx.alltoallv_f32(&group, 3, bufs).unwrap()
        });
        for (dest, inbox) in results.iter().enumerate() {
            for (src, buf) in inbox.iter().enumerate() {
                assert_eq!(buf.len(), (src + dest) % 3);
                for v in buf {
                    assert_eq!(*v, (src * 100 + dest) as f32);
                }
            }
        }
    }
}

fn random_fields(rng: &mut StdRng) -> (usize, u64, WirePhase, usize, usize) {
    let layer = rng.gen_range(0..64usize);
    let iteration = rng.gen::<u64>() & ((1 << 18) - 1);
    let phase = WirePhase::ALL[rng.gen_range(0..WirePhase::ALL.len())];
    let entity = rng.gen_range(0..(1usize << 14));
    let src = rng.gen_range(0..256usize);
    (layer, iteration, phase, entity, src)
}

#[test]
fn tag_decode_inverts_encode() {
    let mut rng = StdRng::seed_from_u64(206);
    for _ in 0..2000 {
        let (layer, iteration, phase, entity, src) = random_fields(&mut rng);
        let mut t = TagSpace::new(layer, iteration).tag(phase, entity, src);
        let step = if rng.gen::<bool>() {
            let s = rng.gen_range(0..1023u64);
            t = tag::with_step(t, s);
            Some(s)
        } else {
            None
        };
        let subop = if rng.gen::<bool>() {
            let s = rng.gen_range(0..4u64) as u8;
            t = tag::with_subop(t, s);
            s
        } else {
            0
        };
        let f = tag::decode(t).expect("structured tags must decode");
        assert_eq!(
            (f.layer, f.iteration, f.phase(), f.entity, f.src, f.step, f.subop),
            (layer as u64, iteration, Some(phase), entity as u64, src as u64, step, subop),
            "round-trip failed for tag {t:#x}"
        );
    }
}

#[test]
fn tag_fields_are_disjoint() {
    // Changing exactly one field must leave every other decoded field
    // untouched — the whole point of positional bit fields over XOR mixing.
    let mut rng = StdRng::seed_from_u64(207);
    for _ in 0..2000 {
        let (layer, iteration, phase, entity, src) = random_fields(&mut rng);
        let base = TagSpace::new(layer, iteration).tag(phase, entity, src);
        let b = tag::decode(base).unwrap();
        let entity2 = (entity + 1 + rng.gen_range(0..100usize)) & ((1 << 14) - 1);
        let varied = TagSpace::new(layer, iteration).tag(phase, entity2, src);
        assert_ne!(base, varied, "distinct entities must produce distinct tags");
        let v = tag::decode(varied).unwrap();
        assert_eq!(
            (v.layer, v.iteration, v.phase(), v.src),
            (b.layer, b.iteration, b.phase(), b.src),
            "entity change leaked into sibling fields"
        );
        assert_eq!(v.entity, entity2 as u64);
    }
}

#[test]
fn structured_tags_never_collide_across_distinct_fields() {
    let mut rng = StdRng::seed_from_u64(208);
    let mut seen = std::collections::HashMap::new();
    for _ in 0..4000 {
        let key = random_fields(&mut rng);
        let (layer, iteration, phase, entity, src) = key;
        let t = TagSpace::new(layer, iteration).tag(phase, entity, src);
        if let Some(prev) = seen.insert(t, key) {
            assert_eq!(prev, key, "two field tuples mapped to one tag {t:#x}");
        }
    }
}

#[test]
fn legacy_xor_scheme_aliased_grad_and_weight_phases() {
    // Regression fixture for the silent-corruption bug: the retired tag
    // scheme mixed `(iteration << 32) ^ (phase << 28)` bases with
    // class/slot/src XOR salts, so a GradCollect message for class 0 and a
    // WeightDistribute message for slot 16 from src 0 differed by
    // `(8 << 28) ^ (9 << 28) == 1 << 28` — exactly the bit slot 16's
    // `<< 24` salt lands on. Same iteration, same wire tag.
    let legacy_base = |iteration: u64, phase: u64| (iteration << 32) ^ (phase << 28);
    let legacy_grad = |it: u64, class: u64| legacy_base(it, 8) ^ (class << 20);
    let legacy_weight =
        |it: u64, slot: u64, src: u64| legacy_base(it, 9) ^ (slot << 24) ^ (src << 8);
    assert_eq!(
        legacy_grad(3, 0),
        legacy_weight(3, 16, 0),
        "fixture must reproduce the historical collision"
    );

    // The structured space keeps the same coordinates apart — for every
    // (slot, src) in range, not just the historical (16, 0).
    let tags = TagSpace::new(0, 3);
    for slot in 0..64 {
        for src in 0..8 {
            assert_ne!(
                tags.tag(WirePhase::GradCollect, 0, 0),
                tags.tag(WirePhase::WeightDistribute, slot, src),
                "slot {slot} src {src}"
            );
        }
    }
}

/// Deterministic payload for message `i` of the `(src, dst)` stream — both
/// endpoints (and the oracle) compute it independently.
fn stream_payload(src: usize, dst: usize, i: usize) -> Vec<f32> {
    let len = (src * 3 + dst + i) % 7 + 1;
    (0..len).map(|k| (src * 10_000 + dst * 1_000 + i * 100 + k) as f32 * 0.251).collect()
}

/// Messages on the `(src, dst)` stream — fixed by the endpoints so every
/// rank agrees without communicating.
fn stream_depth(src: usize, dst: usize) -> usize {
    (src + dst) % 3 + 1
}

#[test]
fn repeated_streams_in_one_batch_pair_fifo() {
    // Every rank sends a multi-message stream to every other rank, with
    // several messages reusing one (from, tag) pair, so FIFO pairing inside
    // the batch is what puts each payload in its slot. Each receive is
    // sized, so a mispaired payload of another length fails at the wire.
    let mut rng = StdRng::seed_from_u64(209);
    for _ in 0..12 {
        let n = rng.gen_range(2..5usize);
        let (results, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
            let me = ctx.rank();
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for other in (0..n).filter(|&o| o != me) {
                for i in 0..stream_depth(me, other) {
                    // All messages of a stream share one tag: ordering
                    // within the stream comes from FIFO pairing alone.
                    sends.push(SendOp::new(other, 11, stream_payload(me, other, i)));
                }
                for i in 0..stream_depth(other, me) {
                    recvs.push(RecvOp::sized(other, 11, stream_payload(other, me, i).len()));
                }
            }
            let payloads = ctx.batch_isend_irecv(sends, &recvs).unwrap();
            payloads.into_iter().map(|p| p.into_f32().unwrap()).collect::<Vec<_>>()
        });
        for (rank, got) in results.iter().enumerate() {
            let expect: Vec<Vec<f32>> = (0..n)
                .filter(|&o| o != rank)
                .flat_map(|o| (0..stream_depth(o, rank)).map(move |i| stream_payload(o, rank, i)))
                .collect();
            assert_eq!(got, &expect, "n={n} rank {rank}");
        }
    }
}

#[test]
fn recv_timeout_diagnostic_names_pending_ops() {
    // A batch whose first receive starves must name the receives still
    // outstanding behind it — that listing is how a wedged batch is
    // diagnosed as "waiting on the wrong iteration's scatter" instead of a
    // bare timeout.
    use std::time::Duration;

    let (results, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
        if ctx.rank() == 0 {
            return None; // never sends anything: rank 1 starves
        }
        let tags = TagSpace::new(0, 7);
        let recvs = [
            RecvOp::new(0, tags.tag(WirePhase::GradCollect, 1, 0)),
            RecvOp::sized(0, tags.tag(WirePhase::WeightDistribute, 3, 0), 16),
        ];
        ctx.set_recv_timeout(Some(Duration::from_millis(10)));
        Some(ctx.batch_isend_irecv(vec![], &recvs).unwrap_err())
    });
    match results[1].as_ref().unwrap() {
        CommError::RecvTimeout { tag, pending, .. } => {
            assert!(tag.contains("GradCollect"), "the first receive starves: {tag}");
            let outstanding: Vec<&String> =
                pending.iter().filter(|line| line.starts_with("outstanding recv from=0")).collect();
            assert!(
                outstanding
                    .iter()
                    .any(|line| line.contains("WeightDistribute") && line.contains("expect=16")),
                "timeout must name the outstanding receive: {pending:?}"
            );
        }
        other => panic!("expected RecvTimeout with pending listing, got {other:?}"),
    }
}
