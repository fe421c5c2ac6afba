//! A rank's expert memory follows what it hosts and owns (§3.1: binary16
//! parameters for the classes a rank hosts, fp32 optimizer state for its
//! `1/N` chunk of every class, and nothing else).
//!
//! Three checks at `engine_params`' geometry (d 256, d_ff 1024, 4 classes,
//! 4 slots per rank, 2 ranks, 32 tokens per rank), with a counting allocator
//! that keeps each thread's live heap bytes, their high-water mark and the
//! bytes it has allocated in all:
//!
//! 1. **Construction allocates only what it keeps.** Building an engine
//!    streams each class's canonical weights a block at a time into the
//!    rank's chunk of the Adam master and into its hosted experts. On each
//!    rank thread, the live-heap high-water mark of the construction exceeds
//!    what the engine still holds after it by at most one block — its f32
//!    values and their binary16 image. The experts and each class's whole
//!    chunk are allocated before the stream that fills them, so only the
//!    router and token buffers, a few KiB, come after it and can hide a
//!    transient; one class's whole f32 weights are 2 MiB here, and building
//!    them, all at once or one class at a time, fails this.
//! 2. **One expert per hosted class, allocated when first placed.** After
//!    every iteration each rank holds exactly as many experts as the most
//!    distinct classes any placement so far has put on it. The tokens are
//!    skewed enough that the placement moves and some rank's expert count
//!    grows, yet no rank ever hosts as many classes as it has slots.
//! 3. **A joiner allocates only what it keeps and what it sends.** A
//!    standby rank joining the two members' world holds no optimizer chunk
//!    until the re-shard exchange delivers its shards, and loads its slots
//!    by publishing its masters straight into the weight scatter's sends
//!    and its experts. So the bytes its thread allocates during the join
//!    are those its engine holds after it, plus its binary16 weight sends,
//!    plus a few KiB of agreement and plan bookkeeping: a zeroed chunk of
//!    every class held until the exchange (8.4 MB here) fails this, and so
//!    does a binary16 copy of the masters encoded before the scatter copies
//!    it again (1.4 MB).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::time::Duration;
use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine, Owners, SymiPolicy};
use symi_collectives::{Cluster, ClusterSpec, MembershipView};
use symi_model::expert::{param_count, INIT_BLOCK};
use symi_tensor::{AdamConfig, Matrix};

struct LiveAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCATED: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    ALLOCATED.with(|c| c.set(c.get() + bytes as isize));
    let live = LIVE.with(|c| {
        c.set(c.get() + bytes as isize);
        c.get()
    });
    PEAK.with(|c| c.set(c.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|c| c.set(c.get() - bytes as isize));
}

/// This thread's live heap bytes; the high-water mark restarts from them.
fn restart_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live));
    live
}

// SAFETY: defers all real work to `System`; the bookkeeping touches only
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveAlloc = LiveAlloc;

const NODES: usize = 2;
const T_LOC: usize = 32;
const ITERATIONS: usize = 12;
/// What a membership change's agreement, plans and wire bookkeeping may
/// allocate and drop: well under one class's binary16 chunk (350 KB here).
const CONTROL_BYTES: isize = 64 << 10;

fn cfg() -> EngineConfig {
    EngineConfig {
        d_model: 256,
        d_ff: 1024,
        expert_classes: 4,
        slots_per_rank: 4,
        slot_capacity: 16,
        adam: AdamConfig::default(),
        seed: 42,
        layer_id: 0,
    }
}

#[test]
fn construction_peaks_at_most_one_block_above_what_it_keeps() {
    let block_bytes = (INIT_BLOCK * (4 + 2)) as isize;
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let before = restart_peak();
        let engine = MoeLayerEngine::new(ctx.rank(), NODES, cfg());
        let kept = LIVE.with(Cell::get) - before;
        let transient = PEAK.with(Cell::get) - before - kept;
        drop(engine);
        (kept, transient)
    });
    for (rank, &(kept, transient)) in per_rank.iter().enumerate() {
        println!("rank {rank}: construction keeps {kept} B, peaks {transient} B above that");
        assert!(
            transient <= block_bytes,
            "rank {rank}: construction peaked {transient} B above the {kept} B it keeps; \
             one block is {block_bytes} B"
        );
    }
}

/// Token rows that route unevenly: most of them lean on a few classes.
fn tokens(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        let t = (rank * T_LOC + r + 7 * it) as f32;
        (c as f32 * 0.31).sin() + 0.4 * (t * 0.173 + c as f32 * 0.613).sin()
    })
}

fn targets(rank: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        (((rank * T_LOC + r) * 64 + c) as f32 * 0.097).cos() * 0.5
    })
}

#[test]
fn each_rank_holds_one_expert_per_class_it_has_hosted_at_most() {
    let cfg = cfg();
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let mut engine = MoeLayerEngine::new(rank, NODES, cfg);
        let initial = engine.placement.hosted_count(rank);
        let mut most = initial;
        assert_eq!(engine.allocated_experts(), most, "rank {rank} at construction");
        let target = targets(rank);
        for it in 0..ITERATIONS {
            engine.iteration(ctx, &tokens(rank, it), &target).expect("iteration");
            most = most.max(engine.placement.hosted_count(rank));
            assert_eq!(engine.allocated_experts(), most, "rank {rank} after iteration {it}");
        }
        (initial, most)
    });
    println!("(hosted at construction, most hosted) per rank: {per_rank:?}");
    assert!(per_rank.iter().any(|&(initial, most)| most > initial), "no rank's experts grew");
    assert!(
        per_rank.iter().all(|&(_, most)| most < cfg.slots_per_rank),
        "a rank hosted as many classes as it has slots: {per_rank:?}"
    );
}

#[test]
fn a_joiner_allocates_only_what_it_keeps_and_what_it_sends() {
    const WORLD: usize = NODES + 1;
    let cfg = cfg();
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(WORLD), |ctx| {
        let rank = ctx.rank();
        if rank < NODES {
            let view = MembershipView::partial(WORLD, NODES);
            let placement = ExpertPlacement::uniform(cfg.expert_classes, NODES, cfg.slots_per_rank);
            let policy = Box::new(SymiPolicy { total_slots: cfg.total_slots(NODES) });
            let mut engine =
                MoeLayerEngine::build(rank, view, cfg, placement, Owners::World, policy);
            engine.admit(ctx, NODES).expect("admit");
            return None;
        }
        let before = ALLOCATED.with(Cell::get);
        let (engine, _) = MoeLayerEngine::join(ctx, cfg, Duration::from_secs(30)).expect("join");
        let allocated = ALLOCATED.with(Cell::get) - before;
        // Each owned chunk leaves once, as binary16, for every other host.
        let me = engine.logical_rank();
        let sent: isize = (0..cfg.expert_classes)
            .map(|c| {
                let others = engine.placement.host_ranks(c).iter().filter(|&&h| h != me).count();
                (2 * engine.master_shard(c).len() * others) as isize
            })
            .sum();
        let live = LIVE.with(Cell::get);
        drop(engine);
        let kept = live - LIVE.with(Cell::get);
        Some((allocated, kept, sent))
    });
    let (allocated, kept, sent) = per_rank[NODES].expect("the joiner reports");
    let rest = allocated - kept - sent;
    println!(
        "the joiner allocates {allocated} B: keeps {kept} B, sends {sent} B, and {rest} B more"
    );
    assert!(
        rest <= CONTROL_BYTES,
        "the joiner allocated {rest} B beyond the {kept} B it keeps and the {sent} B it sends; \
         one class's optimizer chunk is {} B",
        12 * param_count(cfg.d_model, cfg.d_ff) / WORLD
    );
}
