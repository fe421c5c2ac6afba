//! The parameter path requests no large heap block in steady state.
//!
//! Per iteration the engine used to allocate, per rank, a flat gradient per
//! slot (`flat_grads()`), a copy of every ring chunk and gradient shard it
//! sent (`to_vec()`), Adam's f32 output, its fp16 encoding, a clone of that
//! per destination, a `full` vector per hosted class and a clone of it per
//! sibling slot — megabytes at the benchmark's param-heavy geometry, which
//! the allocator returns to the kernel and faults back in every iteration.
//! Now the gradient never leaves the slot's own flat buffer, the optimizer's
//! fp16 shards live across iterations and wire buffers circulate through the
//! cluster's free list (`symi_collectives::buffers`).
//!
//! This test pins that with a counting allocator (pattern:
//! `crates/model/tests/slot_batches.rs`): a 2-rank engine at the param-heavy
//! geometry scaled down — few tokens, an expert big enough that both its f32
//! gradient shard and its fp16 weight shard exceed 64 KiB — is warmed up
//! until its placement settles (deliberately an uneven one: the ranks host
//! different numbers of classes, so each sends a different number of
//! buffers than it receives), and then no iteration may request a block of
//! 64 KiB or more on either rank thread. The largest and the total request
//! per iteration are printed.
//!
//! The gradient's sends are read-only views of the buffer the backward
//! wrote, kept by their receivers until the top of their next iteration; a
//! second test pins that no backward ever finds one of them still alive
//! (the fallback to a fresh buffer never fires) and that the number of
//! allocations per iteration does not grow, on 2 and 3 ranks under both
//! owner rules.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine, Owners};
use symi_collectives::buffers::{MAX_IDLE, MIN_POOLED_BYTES};
use symi_collectives::{Cluster, ClusterSpec, MembershipView};
use symi_tensor::{AdamConfig, Matrix};

struct CountingAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|c| c.set(c.get().max(size)));
    TOTAL.with(|c| c.set(c.get() + size));
    COUNT.with(|c| c.set(c.get() + 1));
}

/// Heap requests on this thread since the last call.
fn take_count() -> usize {
    COUNT.with(|c| c.replace(0))
}

/// `(largest, total)` bytes requested on this thread since the last call.
fn take_requests() -> (usize, usize) {
    (LARGEST.with(|c| c.replace(0)), TOTAL.with(|c| c.replace(0)))
}

// SAFETY: defers all real work to `System`; the bookkeeping touches only
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const NODES: usize = 2;
const T_LOC: usize = 32;
const WARMUP: usize = 6;
const MEASURED: usize = 8;
const LARGE: usize = 64 * 1024;

fn cfg() -> EngineConfig {
    EngineConfig {
        d_model: 64,
        d_ff: 512,
        expert_classes: 4,
        slots_per_rank: 4,
        slot_capacity: 16,
        adam: AdamConfig::default(),
        seed: 17,
        layer_id: 0,
    }
}

/// The same tokens every iteration, so the popularity — and with it the
/// placement — settles after the first one.
fn tokens(rank: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        (c as f32 * 0.7).sin() + 0.6 * (((rank * T_LOC + r) * 64 + c) as f32 * 0.613).sin()
    })
}

fn targets(rank: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        (((rank * T_LOC + r) * 64 + c) as f32 * 0.097).cos() * 0.5
    })
}

#[test]
fn a_steady_iteration_requests_no_block_of_64_kib_or_more() {
    let cfg = cfg();
    let params = 2 * cfg.d_model * cfg.d_ff + cfg.d_ff + cfg.d_model;
    assert!(params / NODES * 2 >= LARGE, "the fp16 weight shard must count as large");
    const { assert!(LARGE >= MIN_POOLED_BYTES, "what the test calls large, the free list keeps") };
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let mut engine = MoeLayerEngine::new(rank, NODES, cfg);
        let (x, target) = (tokens(rank), targets(rank));
        for _ in 0..WARMUP {
            engine.iteration(ctx, &x, &target).expect("warm-up iteration");
        }
        let settled = engine.placement.replica_counts();
        take_requests();
        let mut worst = (0usize, 0usize);
        for it in 0..MEASURED {
            let stats = engine.iteration(ctx, &x, &target).expect("iteration");
            let (largest, total) = take_requests();
            assert_eq!(stats.placement_churn, 0, "iteration {it}: the placement moved");
            assert!(
                largest < LARGE,
                "rank {rank} iteration {it}: a {largest}-byte request \
                     ({total} bytes requested in all)"
            );
            worst = (worst.0.max(largest), worst.1.max(total));
        }
        let (f32s, f16s) = ctx.idle_wire_buffers();
        assert!(f32s <= MAX_IDLE && f16s <= MAX_IDLE, "free list past its bound");
        println!(
            "rank {rank}: per steady iteration, largest request \
                 {} B, total {} B; placement {settled:?}",
            worst.0, worst.1
        );
        (settled, engine.placement.classes_on_rank(rank).len())
    });
    // The scenario must be the uneven one it claims to be.
    let hosted: Vec<usize> = per_rank.iter().map(|r| r.1).collect();
    assert_ne!(hosted[0], hosted[1], "ranks host equally many classes: {per_rank:?}");
}

#[test]
fn a_one_directional_flow_does_not_grow_the_free_list_without_limit() {
    // Rank 0 only ever sends freshly allocated buffers, rank 1 only ever
    // returns what it received: nothing draws from the list, so it fills to
    // its bound and every further buffer is freed.
    let big = vec![0.5f32; MIN_POOLED_BYTES];
    let (idle, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        for i in 0..3 * MAX_IDLE as u64 {
            if ctx.rank() == 0 {
                ctx.send(1, i, big.clone()).expect("send");
            } else {
                let got = ctx.recv_f32(0, i).expect("recv");
                ctx.recycle_f32(got);
            }
        }
        ctx.barrier();
        ctx.idle_wire_buffers()
    });
    assert_eq!(idle[1], (MAX_IDLE, 0));
}

#[test]
fn no_backward_finds_a_view_alive_and_allocations_per_iteration_do_not_grow() {
    let cfg = cfg();
    for nodes in [2, 3] {
        for edp in [false, true] {
            let at = format!("{nodes} ranks, {} owners", ["world", "host"][edp as usize]);
            let (per_rank, _) = Cluster::run(ClusterSpec::flat(nodes), |ctx| {
                let rank = ctx.rank();
                let mut engine = if edp {
                    let placement =
                        ExpertPlacement::striped(cfg.expert_classes, nodes, cfg.slots_per_rank);
                    let owners = Owners::hosts_of(&placement);
                    let total_slots = cfg.total_slots(nodes);
                    let policy =
                        symi_model::UniformPolicy { experts: cfg.expert_classes, total_slots };
                    let view = MembershipView::full(nodes);
                    MoeLayerEngine::build(rank, view, cfg, placement, owners, Box::new(policy))
                } else {
                    MoeLayerEngine::new(rank, nodes, cfg)
                };
                let (x, target) = (tokens(rank), targets(rank));
                let mut seen = Vec::new();
                for _ in 0..WARMUP + MEASURED {
                    let shared =
                        (0..cfg.expert_classes).any(|c| engine.placement.host_ranks(c).len() > 1);
                    take_count();
                    engine.iteration(ctx, &x, &target).expect("iteration");
                    seen.push((take_count(), engine.grad_buffer_fallbacks(), shared));
                }
                seen
            });
            for (rank, seen) in per_rank.iter().enumerate() {
                let counts: Vec<usize> = seen.iter().map(|s| s.0).collect();
                println!("{at}: rank {rank} allocations per iteration {counts:?}");
                for (it, &(_, fallbacks, _)) in seen.iter().enumerate() {
                    assert_eq!(fallbacks, 0, "{at}: rank {rank} iteration {it} found a view alive");
                }
                // The wire buffers' free list hands them out in arrival
                // order, which moves a steady count by a few either way; a
                // leak of one per iteration would pass any bound by now.
                let steady = &counts[WARMUP..];
                let (first, second) = steady.split_at(MEASURED / 2);
                let (early, late) = (first.iter().max().unwrap(), second.iter().max().unwrap());
                assert!(20 * late <= 21 * early, "{at}: rank {rank} allocations grew: {counts:?}");
            }
            let shared = per_rank.iter().flatten().any(|s| s.2);
            assert!(shared, "{at}: no class ever spanned ranks, so no view was ever sent");
        }
    }
}
