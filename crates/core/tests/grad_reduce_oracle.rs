//! §4.1's replica sum reduced onto Algorithm 2's sources, held to the ring
//! all-reduce it replaced.
//!
//! `SymiOptimizer::reduce_grads_to_sources` gathers, on each host `h` of a
//! class, the other hosts' binary16 partial gradients of S_h (each under its
//! own power-of-two exponent): the chunks of the
//! owners whose `get_source` is `h`, the ranges the collect that follows
//! reads. Nothing is summed into any buffer: the collect folds the other
//! owners' chunks into its send buffers, and `SymiOptimizer::step_reduced`
//! sums the host's own chunk as it steps, from the partials where they lie.
//! `Partials::replica_sum` recomputes the sum on S_h with the fold both
//! use. Three things are checked, on every world of up to five ranks and
//! every host count, for both owner rules — the whole world (SYMI) over
//! contiguous host ranges, and each class's hosts (DeepSpeed) over
//! `ExpertPlacement::striped` — and at parameter counts that do and do not
//! divide, down to fewer parameters than ranks:
//!
//! 1. On S_h the recompute leaves, bit for bit, what
//!    `RankCtx::allreduce_sum` over the hosts' partials — narrowed, then
//!    widened — leaves there (the ring's association, not just its value),
//!    and the rank's own widened partial everywhere else; the gradient the
//!    reduce sent views of still holds the rank's own partial, after the
//!    reduce and after the step. The step consumes the sum: the host's
//!    master weights after it equal, bit for bit, one Adam step on the
//!    all-reduced gradient. Against the ring all-reduce of the f32 partials
//!    the sum is off by at most what narrowing allows: per element
//!    `(2⁻¹¹ + m·2⁻²³)·Σ_h|p_h| + Σ_h 2^-(25 + s_h)` — half an ulp of
//!    binary16 on each partial, half its smallest subnormal under each
//!    exponent `s_h`, and the two f32 folds' own rounding.
//! 2. Over a class's hosts the served ranges tile `[0, P)` exactly once.
//! 3. Reduce plus collect move exactly `2 · m(N−1)/N · P` bytes per class
//!    between nodes for world owners (`2 · (m−1) · P` for host owners): the
//!    floor for reducing `m` binary16 partials onto `N` owners.

use std::sync::Arc;
use symi::{ExpertPlacement, SymiOptimizer};
use symi_collectives::{Cluster, ClusterSpec, CommGroup, TagSpace, WirePhase};
use symi_model::expert::ExpertFfn;
use symi_tensor::{AdamConfig, AdamShard, HalfMatrix, Matrix, ScaledHalf};

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

/// A partial gradient whose elements span twenty-four binades, so the
/// order of a sum shows in its bits: two hosts' widened binary16 partials
/// carry 11 significant bits each, and only terms more than 2¹³ apart make
/// an f32 sum of three round.
fn partial(rank: usize, class: usize, p: usize) -> Vec<f32> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ ((rank as u64) << 32) ^ class as u64;
    (0..p)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mantissa = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            mantissa * 2f32.powi(((state >> 20) % 24) as i32 - 12)
        })
        .collect()
}

/// What one host saw of one class. Checked after the cluster run, so a
/// mismatch fails the test instead of leaving the other ranks waiting.
struct Seen {
    class: usize,
    /// This host's partial narrowed and widened, and the ring all-reduce's
    /// result over the hosts' narrowed partials.
    mine: Vec<f32>,
    want: Vec<f32>,
    /// The ring all-reduce's result over the f32 partials, and the bound
    /// the narrowed sum keeps to it, per element.
    f32_sum: Vec<f32>,
    bound: Vec<f32>,
    /// The gradient after the reduce, and after the step.
    reduced: Vec<f32>,
    stepped: Vec<f32>,
    /// The replica sum the partials recompute ([`symi::Partials::replica_sum`]).
    summed: Vec<f32>,
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
                    let exact = partial(rank, class, p);
                    let got = Arc::new(ScaledHalf::from_f32(&exact));
                    let mine = got.to_f32();
                    let m = placement.host_ranks(class).len() as f32;
                    let hosts = CommGroup::new(placement.host_ranks(class));
                    let mut ring = |layer, data: &mut Vec<f32>| {
                        let tag = TagSpace::new(layer, 0).tag(WirePhase::GradSync, class, 0);
                        ctx.allreduce_sum(&hosts, tag, data).expect("ring");
                    };
                    let mut want = mine.clone();
                    ring(1, &mut want);
                    let mut f32_sum = exact.clone();
                    ring(2, &mut f32_sum);
                    let quantum = 2f32.powi(-25 - got.exp());
                    let mut bound: Vec<f32> = exact
                        .iter()
                        .map(|x| (2f32.powi(-11) + m * 2f32.powi(-23)) * x.abs() + quantum)
                        .collect();
                    ring(3, &mut bound);
                    let tags = TagSpace::new(0, 0);
                    let mut partials = opt
                        .reduce_grads_to_sources(ctx, &placement, class, &got, tags)
                        .expect("reduce");
                    let reduced = got.to_f32();
                    let (os, ot) = opt.shard_range(class);
                    let half = opt.step_reduced(class, &partials);
                    let summed = partials.replica_sum();
                    partials.release(ctx);
                    let mut adam = AdamShard::new(AdamConfig::default(), os, &vec![0.0; ot - os]);
                    let mut want_half = Vec::new();
                    adam.step_into(&want[os..ot], &mut want_half);
                    seen.push(Seen {
                        class,
                        mine,
                        want,
                        f32_sum,
                        bound,
                        reduced,
                        stepped: got.to_f32(),
                        summed,
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
                    for (got, what, sum) in [
                        (&s.reduced, "gradient after the reduce", false),
                        (&s.stepped, "gradient after the step", false),
                        (&s.summed, "recomputed replica sum", true),
                    ] {
                        for i in 0..p {
                            let own = (os..ot).contains(&i);
                            let summed = on_served[i] && sum;
                            let expect = if summed { s.want[i] } else { s.mine[i] };
                            assert_eq!(
                                got[i].to_bits(),
                                expect.to_bits(),
                                "{at} element {i} (served: {}, own: {own}): {what}",
                                on_served[i]
                            );
                        }
                    }
                    for i in (0..p).filter(|&i| on_served[i]) {
                        let off = (s.want[i] - s.f32_sum[i]).abs();
                        assert!(
                            off <= s.bound[i],
                            "{at} element {i}: the narrowed sum {} is {off:e} from the f32 \
                             one {}, past the bound {:e}",
                            s.want[i],
                            s.f32_sum[i],
                            s.bound[i]
                        );
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
                let grad = Arc::new(ScaledHalf::from_f32(&partial(rank, class, P)));
                let partials = opt
                    .reduce_grads_to_sources(ctx, &placement, class, &grad, tags)
                    .expect("reduce");
                grads[class] = Some(partials.replica_sum());
            }
            opt.collect_grads(ctx, &placement, &grads, tags).expect("collect");
        });
        let want: usize = placement
            .replica_counts()
            .iter()
            .map(|&m| if world { 2 * m * (n - 1) * P / n } else { 2 * (m - 1) * P })
            .sum();
        assert_eq!(
            traffic.inter_node_bytes,
            want as u64,
            "N {n}, {} owners, {placement:?}",
            ["host", "world"][world as usize]
        );
    }
}

#[test]
fn a_view_held_across_the_peers_next_backward_costs_a_fresh_buffer_not_a_copy() {
    // Two ranks host one class. Rank 1 keeps what the reduce gave it — a
    // view of rank 0's gradient — while rank 0 runs its next backward: that
    // backward must write a fresh buffer (counted), the view must still read
    // the old gradient, and the new one must be what an expert no view ever
    // touched computes. Once rank 1 lets go, rank 0's next backward takes
    // its buffer back.
    const D: usize = 4;
    const FF: usize = 6;
    let placement = contiguous(2, 2, 0);
    let input = |rank: usize, round: usize| {
        Matrix::from_fn(3, D, |r, c| ((rank * 31 + round * 7 + r * D + c) as f32 * 0.37).sin())
    };
    let slot = || {
        let mut e = ExpertFfn::<HalfMatrix>::zeros(D, FF);
        e.load_flat(&ExpertFfn::new(D, FF, 5).flat_params());
        e
    };
    let (seen, _) = Cluster::run(ClusterSpec::flat(2), |ctx| {
        let rank = ctx.rank();
        let (mut expert, mut plain) = (slot(), slot());
        let opt = optimizer(rank, 2, &placement, true, expert.param_count());
        let backward = |e: &mut ExpertFfn<HalfMatrix>, round: usize| {
            e.zero_grad();
            let x = input(rank, round);
            let _ = e.forward(&x);
            e.backward_into(&x, None);
        };
        let mut fallbacks = Vec::new();
        backward(&mut expert, 0);
        backward(&mut plain, 0);
        let tags = TagSpace::new(0, 0);
        let mut partials = opt
            .reduce_grads_to_sources(ctx, &placement, 0, expert.shared_grads(), tags)
            .expect("reduce");
        let held = partials.replica_sum();
        if rank == 0 {
            partials.release(ctx);
        }
        ctx.barrier();
        if rank == 0 {
            backward(&mut expert, 1);
            backward(&mut plain, 1);
            fallbacks.push(expert.grad_fallbacks());
        }
        ctx.barrier();
        // Rank 1 still reads rank 0's old gradient through its view.
        let still = if rank == 1 { partials.replica_sum() } else { held.clone() };
        partials.release(ctx);
        ctx.barrier();
        if rank == 0 {
            backward(&mut expert, 2);
            backward(&mut plain, 2);
            fallbacks.push(expert.grad_fallbacks());
        }
        let (got, want) = (bits(&expert.grad_values()), bits(&plain.grad_values()));
        (fallbacks, got, want, bits(&held), bits(&still))
    });
    let (fallbacks, got, want, _, _) = &seen[0];
    assert_eq!(fallbacks, &[1, 1], "one fresh buffer while the view lived, none after");
    assert_eq!(got, want, "rank 0's gradient is an untouched expert's, bit for bit");
    let (_, _, _, held, still) = &seen[1];
    assert_eq!(held, still, "rank 1's view saw no write");
}
