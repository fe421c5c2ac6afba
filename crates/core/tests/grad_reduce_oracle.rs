//! §4.1's replica sum reduced onto Algorithm 2's sources, held to the ring
//! all-reduce it replaced.
//!
//! `SymiOptimizer::reduce_grads_to_sources` sums one class's partial
//! gradients over the class's host ranks, but only onto S_h on each host
//! `h`: the chunks of the owners whose `get_source` is `h`, the ranges the
//! collect that follows reads. Host `h`'s own chunk is part of S_h, but the
//! sum there is the Adam step's: `SymiOptimizer::step_reduced` sums the
//! partials the reduce returned as it steps, and leaves the sum in place.
//! Three things are checked, on every world of up to five ranks and every
//! host count, for both owner rules — the whole world (SYMI) over
//! contiguous host ranges, and each class's hosts (DeepSpeed) over
//! `ExpertPlacement::striped` — and at parameter counts that do and do not
//! divide, down to fewer parameters than ranks:
//!
//! 1. On S_h the reduce and the step leave, bit for bit, what
//!    `RankCtx::allreduce_sum` over the hosts leaves there (the ring's
//!    association, not just its value); between the two, the host's own
//!    chunk still holds its own partial; everywhere else the rank's own
//!    partial is untouched. The step consumes that sum: the host's master
//!    weights after it equal, bit for bit, one Adam step on the all-reduced
//!    gradient.
//! 2. Over a class's hosts the served ranges tile `[0, P)` exactly once.
//! 3. Reduce plus collect move exactly `4 · m(N−1)/N · P` bytes per class
//!    between nodes for world owners (`4 · (m−1) · P` for host owners): the
//!    floor for reducing `m` partials onto `N` owners.

use symi::{ExpertPlacement, SymiOptimizer};
use symi_collectives::{Cluster, ClusterSpec, CommGroup, TagSpace, WirePhase};
use symi_tensor::{AdamConfig, AdamShard};

/// One class hosted on `m` contiguous ranks starting at `start`, every other
/// rank holding a class of its own (one slot per rank).
fn contiguous(n: usize, m: usize, start: usize) -> ExpertPlacement {
    let mut counts = vec![1; start];
    counts.push(m);
    counts.extend(std::iter::repeat_n(1, n - m - start));
    ExpertPlacement::from_counts(&counts, 1)
}

/// DeepSpeed's stripe with `m` replicas per class (`m` divides `n`).
fn striped(n: usize, m: usize) -> ExpertPlacement {
    ExpertPlacement::striped(n / m, n, 1)
}

/// Every placement the tests run, with its owner rule: world owners for
/// every `m ≤ n` at every start, host owners wherever a stripe exists.
fn cases() -> Vec<(usize, ExpertPlacement, bool)> {
    let mut out = Vec::new();
    for n in 1..=5 {
        for m in 1..=n {
            for start in 0..=n - m {
                out.push((n, contiguous(n, m, start), true));
            }
            if n % m == 0 {
                out.push((n, striped(n, m), false));
            }
        }
    }
    out
}

fn optimizer(
    rank: usize,
    n: usize,
    placement: &ExpertPlacement,
    world: bool,
    p: usize,
) -> SymiOptimizer {
    let params = vec![vec![0.0f32; p]; placement.expert_classes()];
    if world {
        SymiOptimizer::new(rank, n, AdamConfig::default(), &params)
    } else {
        SymiOptimizer::host_sharded(rank, n, AdamConfig::default(), placement, &params)
    }
}

/// A partial gradient whose elements span six binades, so the order of a
/// sum shows in its bits.
fn partial(rank: usize, class: usize, p: usize) -> Vec<f32> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ ((rank as u64) << 32) ^ class as u64;
    (0..p)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mantissa = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            mantissa * (1 << ((state >> 20) % 6)) as f32
        })
        .collect()
}

/// What one host saw of one class. Checked after the cluster run, so a
/// mismatch fails the test instead of leaving the other ranks waiting.
struct Seen {
    class: usize,
    /// This host's partial, and the ring all-reduce's result.
    mine: Vec<f32>,
    want: Vec<f32>,
    /// The gradient after the reduce, and after the step.
    reduced: Vec<f32>,
    stepped: Vec<f32>,
    ranges: Vec<(usize, usize)>,
    own: (usize, usize),
    /// Master shard and published bits after the step, and after one Adam
    /// step on the all-reduced gradient.
    master: [Vec<u32>; 2],
    published: [Vec<u16>; 2],
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn the_reduce_equals_the_ring_all_reduce_bitwise_on_what_each_host_serves() {
    for p in [60usize, 61, 3] {
        for (n, placement, world) in cases() {
            let at = format!(
                "P {p}, N {n}, {} owners, {placement:?}",
                ["host", "world"][world as usize]
            );
            let (seen, _) = Cluster::run(ClusterSpec::flat(n), |ctx| {
                let rank = ctx.rank();
                let mut opt = optimizer(rank, n, &placement, world, p);
                let mut seen = Vec::new();
                for (class, _) in placement.classes_on_rank(rank) {
                    let mine = partial(rank, class, p);
                    let mut want = mine.clone();
                    let hosts = placement.host_ranks(class);
                    let ring = TagSpace::new(1, 0).tag(WirePhase::GradSync, class, 0);
                    ctx.allreduce_sum(&CommGroup::new(hosts), ring, &mut want).expect("ring");
                    let mut got = mine.clone();
                    let tags = TagSpace::new(0, 0);
                    let partials = opt
                        .reduce_grads_to_sources(ctx, &placement, class, &mut got, tags)
                        .expect("reduce");
                    let reduced = got.clone();
                    let (os, ot) = opt.shard_range(class);
                    let half = opt.step_reduced(class, &mut got, &partials);
                    partials.recycle(ctx);
                    let mut adam = AdamShard::new(AdamConfig::default(), os, &vec![0.0; ot - os]);
                    let mut want_half = Vec::new();
                    adam.step_into(&want[os..ot], &mut want_half);
                    seen.push(Seen {
                        class,
                        mine,
                        want,
                        reduced,
                        stepped: got,
                        ranges: opt.served_ranges(&placement, class, rank),
                        own: (os, ot),
                        master: [bits(opt.master_shard(class)), bits(adam.master_weights())],
                        published: [half, want_half],
                    });
                }
                seen
            });
            for (rank, per_rank) in seen.iter().enumerate() {
                for s in per_rank {
                    let (class, (os, ot)) = (s.class, s.own);
                    let at = format!("{at}: rank {rank} class {class}");
                    assert!(os == ot || s.ranges.contains(&s.own), "{at}: a host serves itself");
                    let mut on_served = vec![false; p];
                    for &(a, b) in &s.ranges {
                        on_served[a..b].iter_mut().for_each(|x| *x = true);
                    }
                    for (got, stepped) in [(&s.reduced, false), (&s.stepped, true)] {
                        for i in 0..p {
                            let own = (os..ot).contains(&i);
                            let summed = on_served[i] && (stepped || !own);
                            let expect = if summed { s.want[i] } else { s.mine[i] };
                            assert_eq!(
                                got[i].to_bits(),
                                expect.to_bits(),
                                "{at} element {i} (served: {}, own: {own}, stepped: {stepped})",
                                on_served[i]
                            );
                        }
                    }
                    assert_eq!(s.master[0], s.master[1], "{at}: master after one step");
                    assert_eq!(s.published[0], s.published[1], "{at}: published");
                }
            }
            // Every class's hosts serve [0, P) exactly once between them.
            for class in 0..placement.expert_classes() {
                let mut covered = vec![0u32; p];
                let ranges = seen.iter().flatten().filter(|s| s.class == class);
                for &(a, b) in ranges.flat_map(|s| &s.ranges) {
                    covered[a..b].iter_mut().for_each(|x| *x += 1);
                }
                assert!(covered.iter().all(|&k| k == 1), "{at}: class {class} served {covered:?}");
            }
        }
    }
}

#[test]
fn reduce_and_collect_move_the_minimum_bytes_per_class() {
    // P divides by every N ≤ 5, so m(N−1)/N · P is whole.
    const P: usize = 60;
    for (n, placement, world) in cases() {
        let e = placement.expert_classes();
        let (_, traffic) = Cluster::run(ClusterSpec::flat(n), |ctx| {
            let rank = ctx.rank();
            let opt = optimizer(rank, n, &placement, world, P);
            let tags = TagSpace::new(0, 0);
            let mut grads: Vec<Option<Vec<f32>>> = vec![None; e];
            for (class, _) in placement.classes_on_rank(rank) {
                let mut grad = partial(rank, class, P);
                opt.reduce_grads_to_sources(ctx, &placement, class, &mut grad, tags)
                    .expect("reduce");
                grads[class] = Some(grad);
            }
            opt.collect_grads(ctx, &placement, &grads, tags).expect("collect");
        });
        let want: usize = placement
            .replica_counts()
            .iter()
            .map(|&m| if world { 4 * m * (n - 1) * P / n } else { 4 * (m - 1) * P })
            .sum();
        assert_eq!(
            traffic.inter_node_bytes,
            want as u64,
            "N {n}, {} owners, {placement:?}",
            ["host", "world"][world as usize]
        );
    }
}
