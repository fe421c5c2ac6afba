//! Engine runs held to plain replays of the token, gradient and parameter
//! paths: bit for bit to the recipe the engine implements, within a stated
//! bound to the recipe it replaced.
//!
//! **Token path, class-major.** `MoeLayerEngine::iteration` assembles the
//! dispatch rows of all of a class's co-located slots into one persistent
//! matrix per (rank, class) and runs one `forward_into`/`backward_into` per
//! hosted class. The oracle is that recipe with nothing clever in it: before
//! every iteration the ranks publish their slot weights, each rank then
//! replays the *whole* world's token path — route, capacity-assign per slot,
//! gather each (rank, class)'s rows in arrival order (source rank ascending,
//! then send order), `from_vec(clone)` and the allocating `forward`, combine,
//! loss, gated upstream grads, then `zero_grad`, `from_vec(clone)`,
//! `backward` and an owned flat copy of the gradient. Its experts are the
//! engine's: binary16 weights, loaded from the encoded bits of the
//! published slot weights (on the fp16 grid, so the encoding is exact), and
//! a binary16 gradient under one power-of-two exponent per backward — the
//! owned copy is its values widened and unscaled.
//!
//! **Gradient path.** The class's flat gradient is *the* buffer: backward
//! narrows it to binary16 (summing the class's local slots as rows of one
//! batch), §4.1's reduce sums the class's hosts' widened partials — on the
//! ranges each host serves to Algorithm 2, in the ring all-reduce's
//! association — and Adam steps from those sums. The gradient is compared on those served
//! ranges, and every test asserts that per iteration and class the hosts'
//! ranges tile the gradient once, so every element is still compared. The
//! first test holds that to the oracle's *values* on 2 ranks, every
//! iteration: the loss, every hosted class's summed gradient (one
//! commutative add per element on two ranks) and everything integer the
//! iteration reports. The second replays the staged path with the real
//! collectives (under a second layer's tags) — owned copy, ring all-reduce,
//! collect with an owned copy of the local shard, Adam — into a second
//! `SymiOptimizer` per rank, on 2 and on 3 ranks (where the ring's summation
//! order is no longer one commutative add): the engine's summed gradients,
//! and after every iteration its fp32 master shards, must equal that path's,
//! bit for bit. Placement rebalances between iterations, so
//! classes merge, split, go idle and change shape across the runs.
//!
//! **The per-slot recipe, as a bound.** Until PR 22 the unit of execution
//! was the slot: one batch per slot, then §4.1's intra-rank step as written —
//! the co-located slots' gradients folded into the first in ascending slot
//! order — then the ring. That is the same sum in another association (and
//! with other rows in the kernels' edge tiles), so the last test replays it
//! the same way and holds the engine to it within a stated bound instead of
//! `==`; everything integer (routing, capacity, popularity, replica counts)
//! is independent of expert arithmetic and must still be equal.
//!
//! **Parameter path.** The third test holds the *parameter* path to its old
//! recipe. The optimizer used to publish an f32 shard on the fp16 grid,
//! `encode_f16` it, decode every source's chunk into a `full` vector per
//! class, clone that per sibling slot and `load_flat` it; now the Adam
//! kernel writes binary16 bits and the scatter copies each chunk once,
//! straight into the binary16 weights of the class's one expert. After every
//! iteration every slot's weights must equal the old recipe replayed — with
//! the scalar conversions, into the same binary16 expert loaded from the
//! wire bits — from the masters the ranks hold.

use std::sync::{Barrier, Mutex};

use symi::engine::assign_token_slots;
use symi::engine::IterStats;
use symi::{EngineConfig, ExpertPlacement, MoeLayerEngine, SymiOptimizer};
use symi_collectives::{Cluster, ClusterSpec, TagSpace, WirePhase};
use symi_model::expert::ExpertFfn;
use symi_tensor::half::{f16_to_f32, f32_to_f16, quantize_f16};
use symi_tensor::ops::softmax_rows;
use symi_tensor::rng::StdRng;
use symi_tensor::{init, AdamConfig, HalfMatrix, Matrix};

const NODES: usize = 2;
const T_LOC: usize = 48;
const ITERS: usize = 6;

fn cfg() -> EngineConfig {
    EngineConfig {
        d_model: 8,
        d_ff: 24,
        expert_classes: 4,
        slots_per_rank: 4,
        // Tight enough that tokens spill to sibling replicas and some drop.
        slot_capacity: 10,
        adam: AdamConfig::default(),
        seed: 91,
        layer_id: 0,
    }
}

/// Mostly one cluster in embedding space (so the router skews the load and
/// the placement has something to rebalance), drifting with the iteration.
fn tokens(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        let id = ((rank * T_LOC + r) * 8 + c) as f32;
        if (r + it) % 6 == 5 {
            // A few stragglers pointing anywhere: classes the cluster has
            // drifted away from still draw a token or two, so some of their
            // replicas work while their co-located siblings sit idle.
            return 1.5 * (id * 1.913 + it as f32 * 2.3).sin();
        }
        let base = (c as f32 * 0.7 + it as f32 * 0.9).sin();
        base + 0.4 * (id * 0.613).sin()
    })
}

fn targets(rank: usize, it: usize) -> Matrix {
    Matrix::from_fn(T_LOC, cfg().d_model, |r, c| {
        (((rank * T_LOC + r) * 8 + c) as f32 * 0.097 - it as f32 * 0.19).cos() * 0.5
    })
}

/// The expert the engine runs for `flat`: binary16 weights, loaded from the
/// encoded bits of published weights — on the fp16 grid, so exact; the flag
/// says whether they were.
fn half_expert(cfg: &EngineConfig, flat: &[f32]) -> (ExpertFfn<HalfMatrix>, bool) {
    let bits: Vec<u16> = flat.iter().map(|&w| f32_to_f16(w)).collect();
    let on_grid = bits.iter().zip(flat).all(|(&h, &w)| f16_to_f32(h).to_bits() == w.to_bits());
    let mut e = ExpertFfn::zeros(cfg.d_model, cfg.d_ff);
    e.load_f16_at(0, &bits);
    (e, on_grid)
}

/// Asserts what a replay's experts were loaded from was on the fp16 grid.
fn assert_on_grid(on_grid: bool) {
    assert!(on_grid, "published weights off the fp16 grid");
}

/// The unit one `ExpertFfn` batch covers in a replay.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Unit {
    /// All of a class's slots on a rank: what the engine runs.
    Class,
    /// One slot, the class's slots folded afterwards: what it used to run.
    Slot,
}

/// What a replayed token path produces over the whole world.
struct Replay {
    loss: f32,
    /// `grads[rank]` = `(class, flat gradient)` per class hosted on `rank`,
    /// in `classes_on_rank` order, before the inter-rank ring: the one
    /// batch's gradient ([`Unit::Class`]) or the ascending fold of the
    /// slots' ([`Unit::Slot`]).
    grads: Vec<Vec<(usize, Vec<f32>)>>,
    /// Whether each global slot received any token.
    busy: Vec<bool>,
    /// Tokens routed to each class, before capacity.
    popularity: Vec<u64>,
    /// Tokens kept per class, after capacity.
    kept_per_class: Vec<u64>,
    /// Whether every published weight the experts were loaded from was on
    /// the fp16 grid ([`half_expert`]).
    on_grid: bool,
}

/// The plain allocating token path over the whole `nodes`-rank world.
/// `weights[g]` are the flat parameters global slot `g` runs on.
fn replay_token_path(
    cfg: &EngineConfig,
    placement: &ExpertPlacement,
    weights: &[Vec<f32>],
    it: usize,
    unit: Unit,
) -> Replay {
    let nodes = placement.ranks();
    let d = cfg.d_model;
    let s = cfg.slots_per_rank;
    let total = placement.total_slots();
    // The engine's frozen router (identical on every rank by construction).
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x70c7);
    let router_w = init::normal(d, cfg.expert_classes, 0.3, &mut rng);

    // Route + capacity-assign each rank's tokens (capacity is per slot).
    struct Routed {
        kept: Vec<usize>,
        kept_slot: Vec<usize>,
        gates: Vec<f32>,
    }
    let mut popularity = vec![0u64; cfg.expert_classes];
    let mut kept_per_class = vec![0u64; cfg.expert_classes];
    let routed: Vec<Routed> = (0..nodes)
        .map(|rank| {
            let probs = softmax_rows(&tokens(rank, it).matmul(&router_w));
            let mut assignment = Vec::new();
            let mut gates = Vec::new();
            for t in 0..T_LOC {
                let (best, &p) = probs
                    .row(t)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
                    .expect("at least one class");
                assignment.push(best);
                gates.push(p);
                popularity[best] += 1;
            }
            let (kept, kept_slot, taken) =
                assign_token_slots(&assignment, placement, cfg.slot_capacity, rank, rank * T_LOC);
            for (class, &k) in taken.iter().enumerate() {
                kept_per_class[class] += k as u64;
            }
            Routed { kept, kept_slot, gates }
        })
        .collect();

    // The batch each global slot's rows join: the first slot of its class on
    // its rank, or itself.
    let batch_of = |slot: usize| match unit {
        Unit::Slot => slot,
        Unit::Class => {
            let class = placement.class_of_slot(slot);
            let first = slot / s * s;
            (first..=slot).find(|&k| placement.class_of_slot(k) == class).expect("itself")
        }
    };

    // Per-batch inputs in arrival order: source rank ascending, send order.
    let mut inputs: Vec<Vec<f32>> = vec![Vec::new(); total];
    let mut rows_of: Vec<Vec<(usize, usize)>> = vec![Vec::new(); total]; // (rank, token)
    let mut busy = vec![false; total];
    for (rank, r) in routed.iter().enumerate() {
        let x = tokens(rank, it);
        for (&t, &slot) in r.kept.iter().zip(&r.kept_slot) {
            inputs[batch_of(slot)].extend_from_slice(x.row(t));
            rows_of[batch_of(slot)].push((rank, t));
            busy[slot] = true;
        }
    }

    // Forward, the allocating way.
    let (mut experts, on_grid): (Vec<ExpertFfn<HalfMatrix>>, Vec<bool>) =
        weights.iter().map(|w| half_expert(cfg, w)).unzip();
    let on_grid = on_grid.into_iter().all(|g| g);
    let outputs: Vec<Matrix> = experts
        .iter_mut()
        .zip(&inputs)
        .map(|(expert, flat)| {
            if flat.is_empty() {
                Matrix::zeros(0, d)
            } else {
                expert.forward(&Matrix::from_vec(flat.len() / d, d, flat.clone()))
            }
        })
        .collect();

    // Combine, loss, upstream gradient — per rank, as the engine does.
    let t_global = (T_LOC * nodes) as f32;
    let mut ys: Vec<Matrix> = (0..nodes).map(|_| Matrix::zeros(T_LOC, d)).collect();
    for (batch, rows) in rows_of.iter().enumerate() {
        for (row, &(rank, t)) in rows.iter().enumerate() {
            let g = routed[rank].gates[t];
            for (c, &v) in outputs[batch].row(row).iter().enumerate() {
                ys[rank][(t, c)] += g * v;
            }
        }
    }
    let mut sq_sum = 0.0f32;
    let mut dys = Vec::new();
    for (rank, y) in ys.iter().enumerate() {
        let mut dy = y.clone();
        dy.axpy(-1.0, &targets(rank, it));
        let local_sq: f32 = dy.as_slice().iter().map(|v| v * v).sum();
        sq_sum += local_sq;
        dy.scale(2.0 / (t_global * d as f32));
        dys.push(dy);
    }
    let loss = sq_sum / (t_global * d as f32);

    // Backward, the allocating way: every batch's owned flat gradient (all
    // `+0.0` for one that received nothing).
    let batch_grads: Vec<Vec<f32>> = experts
        .iter_mut()
        .zip(&rows_of)
        .map(|(expert, rows)| {
            expert.zero_grad();
            if !rows.is_empty() {
                let mut flat = Vec::with_capacity(rows.len() * d);
                for &(rank, t) in rows {
                    let g = routed[rank].gates[t];
                    flat.extend(dys[rank].row(t).iter().map(|&v| v * g));
                }
                let _ = expert.backward(&Matrix::from_vec(rows.len(), d, flat.clone()));
            }
            expert.grad_values()
        })
        .collect();

    // Per (rank, class): the one batch's gradient, or §4.1's intra-rank
    // fold as written — the first slot's copy plus every co-located
    // sibling's, idle ones' zeros included, in ascending slot order.
    let grads = (0..nodes)
        .map(|rank| {
            placement
                .classes_on_rank(rank)
                .into_iter()
                .map(|(class, locals)| {
                    let mut grad = batch_grads[rank * s + locals[0]].clone();
                    if unit == Unit::Slot {
                        for &sibling in &locals[1..] {
                            for (g, v) in grad.iter_mut().zip(&batch_grads[rank * s + sibling]) {
                                *g += v;
                            }
                        }
                    }
                    (class, grad)
                })
                .collect()
        })
        .collect();
    Replay { loss, grads, busy, popularity, kept_per_class, on_grid }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The elements of `v` in `ranges`, in order.
fn on(v: &[f32], ranges: &[(usize, usize)]) -> Vec<f32> {
    ranges.iter().flat_map(|&(s, t)| v[s..t].iter().copied()).collect()
}

/// Ranges of a class's flat gradient, ascending.
type Ranges = Vec<(usize, usize)>;

/// `(iteration, class, served ranges)` of one rank's hosted classes.
type Served = Vec<(usize, usize, Ranges)>;

/// Per iteration and class, the ranks' served ranges tile the class's flat
/// gradient exactly once — so comparing each rank on its own ranges
/// compares every element.
fn assert_served_ranges_tile<'a>(served: impl Iterator<Item = &'a Served> + Clone) {
    let cfg = cfg();
    let p = ExpertFfn::new(cfg.d_model, cfg.d_ff, 0).flat_params().len();
    for it in 0..ITERS {
        for class in 0..cfg.expert_classes {
            let mut covered = vec![0u32; p];
            let mine = served.clone().flatten().filter(|s| (s.0, s.1) == (it, class));
            for &(s, t) in mine.flat_map(|s| &s.2) {
                covered[s..t].iter_mut().for_each(|k| *k += 1);
            }
            assert!(
                covered.iter().all(|&k| k == 1),
                "iteration {it}: class {class}'s served ranges do not tile it"
            );
        }
    }
}

/// Publishes this rank's slot weights and returns every rank's, by global
/// slot.
fn exchange_slot_weights(
    engine: &MoeLayerEngine,
    rank: usize,
    board: &Mutex<Vec<Vec<f32>>>,
    barrier: &Barrier,
) -> Vec<Vec<f32>> {
    let s = cfg().slots_per_rank;
    {
        let mut b = board.lock().expect("board");
        for local in 0..s {
            b[rank * s + local] = engine.slot_weights(local);
        }
    }
    barrier.wait();
    let weights = board.lock().expect("board").clone();
    barrier.wait(); // nobody overwrites the board before all have read it
    weights
}

/// What a run's placements and token loads happened to exercise.
#[derive(Clone, Copy, Default)]
struct Seen {
    /// A class ran ≥ 2 busy co-located slots as one batch.
    merged_slots: bool,
    /// A class had busy and idle slots on one rank.
    half_idle_class: bool,
    class_on_both_ranks: bool,
}

/// One iteration of the two-rank run as a rank saw it: what it ran on and
/// what the engine reported, replayed and compared after the cluster run —
/// a failed assertion inside it would leave the other rank blocked.
struct Ran {
    weights: Vec<Vec<f32>>,
    placement: ExpertPlacement,
    stats: IterStats,
    /// `(class, local slots, served ranges, hosted_grads)` per hosted class.
    hosted: Vec<(usize, Vec<usize>, Ranges, Vec<f32>)>,
}

#[test]
fn two_rank_run_matches_the_from_vec_clone_oracle_bit_for_bit() {
    let cfg = cfg();
    let s = cfg.slots_per_rank;
    let board: Mutex<Vec<Vec<f32>>> = Mutex::new(vec![Vec::new(); NODES * s]);
    let barrier = Barrier::new(NODES);
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let mut engine = MoeLayerEngine::new(rank, NODES, cfg);
        let mut ran = Vec::new();
        for it in 0..ITERS {
            let weights = exchange_slot_weights(&engine, rank, &board, &barrier);
            let placement = engine.placement.clone();
            let stats =
                engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");
            let hosted = placement
                .classes_on_rank(rank)
                .into_iter()
                .enumerate()
                .map(|(hosted, (class, locals))| {
                    let ranges = engine.served_ranges(&placement, class);
                    (class, locals, ranges, engine.hosted_grads(hosted))
                })
                .collect();
            ran.push(Ran { weights, placement, stats, hosted });
        }
        ran
    });
    let mut saw = Seen::default();
    let mut served: Vec<Served> = vec![Vec::new(); NODES];
    for (rank, ran) in per_rank.iter().enumerate() {
        for (it, Ran { weights, placement, stats, hosted }) in ran.iter().enumerate() {
            let want = replay_token_path(&cfg, placement, weights, it, Unit::Class);
            assert_on_grid(want.on_grid);
            let at = format!("rank {rank} iteration {it}");
            assert_eq!(
                stats.loss.to_bits(),
                want.loss.to_bits(),
                "{at}: loss {} vs oracle {}",
                stats.loss,
                want.loss
            );
            assert_eq!(stats.popularity, want.popularity, "{at}: popularity");
            assert_eq!(stats.kept_per_class, want.kept_per_class, "{at}: kept per class");
            assert_eq!(stats.replicas, placement.replica_counts(), "{at}: replica counts");
            let kept = want.kept_per_class.iter().sum::<u64>() as usize;
            assert_eq!((stats.survived, stats.dropped), (kept, NODES * T_LOC - kept), "{at}");
            for (class, locals, ranges, got) in hosted {
                // The class's summed gradient where this rank serves it:
                // each host rank's batch, then the sum.
                let mut synced: Option<Vec<f32>> = None;
                for per_host in &want.grads {
                    let Some((_, grad)) = per_host.iter().find(|(c, _)| c == class) else {
                        continue;
                    };
                    synced = Some(match synced {
                        None => grad.clone(),
                        Some(acc) => acc.iter().zip(grad).map(|(a, b)| a + b).collect(),
                    });
                }
                assert_eq!(
                    bits(&on(got, ranges)),
                    bits(&on(&synced.expect("hosted somewhere"), ranges)),
                    "{at}: class {class}'s summed gradient differs"
                );
                served[rank].push((it, *class, ranges.clone()));
                let busy = locals.iter().filter(|&&l| want.busy[rank * s + l]).count();
                saw.merged_slots |= busy > 1;
                saw.half_idle_class |= 0 < busy && busy < locals.len();
                saw.class_on_both_ranks |= placement.host_ranks(*class).len() > 1;
            }
            assert!(stats.dropped > 0 && stats.survived > 0, "capacity must bind: {stats:?}");
        }
    }
    assert_served_ranges_tile(served.iter());
    // The scenario must actually exercise what it claims to.
    let placements: Vec<Vec<usize>> =
        per_rank[0].iter().map(|ran| ran.placement.replica_counts()).collect();
    assert!(
        placements.iter().any(|p| p != &placements[0]),
        "placement never rebalanced: {placements:?}"
    );
    assert!(saw.merged_slots, "no class ever ran several busy slots as one batch");
    assert!(saw.half_idle_class, "no class ever had busy and idle slots on one rank");
    assert!(saw.class_on_both_ranks, "no class ever spanned both ranks");
}

/// What one run of [`replay_gradient_path`] saw and measured, per rank.
struct Replayed {
    widest_ring: usize,
    half_idle_class: bool,
    /// A hosted class drew no token at all on this rank.
    idle_class: bool,
    /// Largest `|engine − replay| / (|engine| + rms)` over every served
    /// element of every summed gradient, `rms` the root mean square of the
    /// replay's whole summed gradient.
    grad_error: f32,
    /// Served elements of summed gradients that differed in bits.
    grad_bits_differing: usize,
    /// Largest `|engine − replay|` over the master shards after the last
    /// iteration, relative to the largest master weight.
    master_error: f32,
    served: Served,
    /// `(what, engine, replay)`: every equality the run checks, asserted
    /// once the cluster run is over — a failed assertion inside it would
    /// leave the other ranks blocked in their next receive.
    checks: Vec<(String, Vec<u64>, Vec<u64>)>,
}

/// Runs the engine on `ranks` ranks next to a replay of the staged gradient
/// path — each hosted class's [`replay_token_path`] gradient in an owned
/// vector, the real ring all-reduce over the class's host range, shard
/// collection with an owned copy of the local shard, Adam — into a second
/// optimizer per rank, under a second layer's tags. With `exact` the
/// engine's masters must track that optimizer's bit for bit after every
/// iteration; otherwise the differences are measured and returned.
fn replay_gradient_path(ranks: usize, unit: Unit, exact: bool) -> Vec<Replayed> {
    let cfg = cfg();
    let (s, e) = (cfg.slots_per_rank, cfg.expert_classes);
    let board: Mutex<Vec<Vec<f32>>> = Mutex::new(vec![Vec::new(); ranks * s]);
    let barrier = Barrier::new(ranks);
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(ranks), |ctx| {
        let rank = ctx.rank();
        let mut engine = MoeLayerEngine::new(rank, ranks, cfg);
        let class_params: Vec<Vec<f32>> = (0..e)
            .map(|class| {
                ExpertFfn::new(cfg.d_model, cfg.d_ff, cfg.seed ^ (0xe0 + class as u64))
                    .flat_params()
            })
            .collect();
        let mut replay_optimizer = SymiOptimizer::new(rank, ranks, cfg.adam, &class_params);
        let mut seen = Replayed {
            widest_ring: 0,
            half_idle_class: false,
            idle_class: false,
            grad_error: 0.0,
            grad_bits_differing: 0,
            master_error: 0.0,
            served: Vec::new(),
            checks: Vec::new(),
        };
        let widen = |v: &[u32]| v.iter().map(|&b| u64::from(b)).collect::<Vec<u64>>();
        let counts = |v: &[usize]| v.iter().map(|&k| k as u64).collect::<Vec<u64>>();
        for it in 0..ITERS {
            let weights = exchange_slot_weights(&engine, rank, &board, &barrier);
            let placement = engine.placement.clone();
            let mut want = replay_token_path(&cfg, &placement, &weights, it, unit);
            let stats =
                engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");
            let at = format!("rank {rank} iteration {it}");
            let on_grid = vec![u64::from(want.on_grid)];
            seen.checks.push((
                format!("{at}: published weights on the fp16 grid"),
                on_grid,
                vec![1],
            ));
            // Routing and capacity never see an expert weight.
            seen.checks.extend([
                (format!("{at}: popularity"), stats.popularity, want.popularity.clone()),
                (
                    format!("{at}: kept per class"),
                    stats.kept_per_class,
                    want.kept_per_class.clone(),
                ),
                (
                    format!("{at}: replica counts"),
                    counts(&stats.replicas),
                    counts(&placement.replica_counts()),
                ),
            ]);

            let replay_tags = TagSpace::new(cfg.layer_id + 1, it as u64);
            let mut class_grads: Vec<Option<Vec<f32>>> = vec![None; e];
            let hosted = placement.classes_on_rank(rank);
            let staged = want.grads.swap_remove(rank);
            for (g, ((class, locals), (_, mut staged))) in
                hosted.into_iter().zip(staged).enumerate()
            {
                let busy = locals.iter().filter(|&l| want.busy[rank * s + l]).count();
                seen.half_idle_class |= 0 < busy && busy < locals.len();
                seen.idle_class |= busy == 0;
                let (start, len) = placement.host_range(class);
                seen.widest_ring = seen.widest_ring.max(len);
                let group = ctx.groups().range(start, len);
                let tag = replay_tags.tag(WirePhase::GradSync, class, 0);
                ctx.allreduce_sum(&group, tag, &mut staged).expect("replayed grad sync");
                let ranges = engine.served_ranges(&placement, class);
                let (synced, replayed) =
                    (on(&engine.hosted_grads(g), &ranges), on(&staged, &ranges));
                if exact {
                    seen.checks.push((
                        format!("rank {rank} iteration {it}: class {class}'s summed gradient"),
                        widen(&bits(&synced)),
                        widen(&bits(&replayed)),
                    ));
                }
                seen.served.push((it, class, ranges));
                let rms = (staged.iter().map(|g| g * g).sum::<f32>() / staged.len() as f32).sqrt();
                for (a, b) in synced.iter().zip(&replayed) {
                    seen.grad_error = seen.grad_error.max((a - b).abs() / (a.abs() + rms));
                    seen.grad_bits_differing += usize::from(a.to_bits() != b.to_bits());
                }
                class_grads[class] = Some(staged);
            }
            let shards = replay_optimizer
                .collect_grads(ctx, &placement, &class_grads, replay_tags)
                .expect("replayed grad collection");
            replay_optimizer.step(&shards);
            for class in 0..e {
                let (ours, theirs) =
                    (engine.master_shard(class), replay_optimizer.master_shard(class));
                if exact {
                    seen.checks.push((
                        format!(
                            "rank {rank} iteration {it}: class {class}'s master shard left the \
                             staged path's"
                        ),
                        widen(&bits(ours)),
                        widen(&bits(theirs)),
                    ));
                }
                if it + 1 == ITERS {
                    let scale = ours.iter().fold(0.0f32, |m, w| m.max(w.abs()));
                    for (a, b) in ours.iter().zip(theirs) {
                        seen.master_error = seen.master_error.max((a - b).abs() / scale);
                    }
                }
            }
        }
        seen
    });
    for (what, engine, replay) in per_rank.iter().flat_map(|r| &r.checks) {
        assert_eq!(engine, replay, "{what}");
    }
    per_rank
}

/// The staged gradient path replayed class-major, on 2 ranks and on 3 —
/// where the ring's summation order is no longer one commutative add. The
/// engine's summed gradients (on the ranges each rank serves) and its fp32
/// masters must track it bit for bit.
#[test]
fn three_rank_masters_match_the_staged_gradient_path_replayed() {
    for ranks in [2, 3] {
        let per_rank = replay_gradient_path(ranks, Unit::Class, true);
        assert_served_ranges_tile(per_rank.iter().map(|r| &r.served));
        assert!(
            per_rank.iter().any(|r| r.widest_ring == ranks),
            "{ranks} ranks: no class ever spanned every rank"
        );
        assert!(
            per_rank.iter().any(|r| r.half_idle_class),
            "{ranks} ranks: no class ever had busy and idle slots on one rank"
        );
        // Its zeros are materialized for the reduce. (The 2-rank run's
        // stragglers reach every class on both ranks.)
        assert!(
            ranks == 2 || per_rank.iter().any(|r| r.idle_class),
            "{ranks} ranks: no hosted class ever sat idle on a rank"
        );
    }
}

/// The per-slot recipe — one batch per slot, §4.1's ascending intra-rank
/// fold, then the ring — as a second oracle. It computes the same sums in
/// another association, so the engine is held to it within a bound, not `==`
/// (the integer side — popularity, kept tokens, replica counts — is asserted
/// equal inside the replay).
///
/// Stated bounds. Summed gradients, per served element and iteration:
/// `|engine − per-slot| ≤ 2⁻⁹ (|engine| + rms)`, `rms` the root mean square
/// of that class's whole gradient (the floor where an element's terms
/// cancel). The two recipes narrow different partials to binary16 — the
/// per-slot one each slot's batch, the engine each rank's class batch — so
/// each side carries up to half a binary16 ulp (2⁻¹¹ relative) per narrowed
/// term; measured ≈ 8,700 ε (`ε = 2⁻²⁴`) on 2 ranks, ≈ 7,600 ε on 3.
/// Master shards after the 6 iterations, the replay's optimizer fed
/// per-slot gradients throughout: `|Δ| ≤ 1e-5 · max |w|`; measured 1.3e-6
/// and 2.0e-6. Adam
/// divides a gradient by its own running magnitude, so a relative gradient
/// error of a few ε moves an update by a few ε·lr; the bound leaves two
/// orders for that to compound and would still catch one step taken the
/// wrong way (2·lr = 2e-3).
#[test]
fn per_slot_fold_oracle_bounds_the_class_major_engine() {
    const EPS: f32 = 1.0 / (1u32 << 24) as f32;
    const HALF_TOL: f32 = 1.0 / 512.0;
    for ranks in [2, 3] {
        let per_rank = replay_gradient_path(ranks, Unit::Slot, false);
        assert_served_ranges_tile(per_rank.iter().map(|r| &r.served));
        let grad_error = per_rank.iter().fold(0.0f32, |m, r| m.max(r.grad_error));
        let master_error = per_rank.iter().fold(0.0f32, |m, r| m.max(r.master_error));
        let differing: usize = per_rank.iter().map(|r| r.grad_bits_differing).sum();
        println!(
            "{ranks} ranks: gradients within {:.1} eps (|g| + rms), {differing} elements \
             reassociated; masters within {master_error:.2e} of the largest weight",
            grad_error / EPS
        );
        assert!(grad_error <= HALF_TOL, "{ranks} ranks: gradient error {grad_error:e}");
        assert!(master_error <= 1e-5, "{ranks} ranks: master error {master_error:e}");
        assert!(differing > 0, "{ranks} ranks: the two recipes never differed — nothing bounded");
    }
}

/// The old parameter path for one class: every rank's f32 shard on the fp16
/// grid → binary16 wire → `full` → the slot. `master_shards[r]` is
/// logical rank `r`'s fp32 master shard of the class.
fn old_weight_path(cfg: &EngineConfig, master_shards: &[Vec<f32>]) -> Vec<f32> {
    let mut full = Vec::new();
    for master in master_shards {
        let published: Vec<f32> = master.iter().map(|&w| quantize_f16(w)).collect();
        let wire: Vec<u16> = published.iter().map(|&w| f32_to_f16(w)).collect();
        full.extend(wire.iter().map(|&h| f16_to_f32(h)));
    }
    let (expert, on_grid) = half_expert(cfg, &full);
    assert_on_grid(on_grid);
    expert.flat_params()
}

#[test]
fn slot_weights_match_the_f32_shard_encode_assemble_load_flat_recipe() {
    let cfg = cfg();
    let e = cfg.expert_classes;
    // board[rank][class] = that rank's master shard after the step.
    let board: Mutex<Vec<Vec<Vec<f32>>>> = Mutex::new(vec![Vec::new(); NODES]);
    let barrier = Barrier::new(NODES);
    // Per rank and iteration: every rank's master shards after the step,
    // the placement the scatter just materialised, and this rank's slot
    // weights — compared with the old recipe once the cluster run is over.
    let (per_rank, _) = Cluster::run(ClusterSpec::flat(NODES), |ctx| {
        let rank = ctx.rank();
        let mut engine = MoeLayerEngine::new(rank, NODES, cfg);
        let mut ran = Vec::new();
        for it in 0..ITERS {
            engine.iteration(ctx, &tokens(rank, it), &targets(rank, it)).expect("iteration");
            board.lock().expect("board")[rank] =
                (0..e).map(|class| engine.master_shard(class).to_vec()).collect();
            barrier.wait();
            let masters = board.lock().expect("board").clone();
            barrier.wait(); // nobody overwrites the board before all have read it
            let slots: Vec<Vec<f32>> =
                (0..cfg.slots_per_rank).map(|l| engine.slot_weights(l)).collect();
            ran.push((masters, engine.placement.clone(), slots));
        }
        ran
    });
    let mut placements = Vec::new();
    let (mut saw_colocated_siblings, mut saw_a_class_on_both_ranks) = (false, false);
    for (rank, ran) in per_rank.iter().enumerate() {
        for (it, (masters, placement, slots)) in ran.iter().enumerate() {
            for (class, locals) in placement.classes_on_rank(rank) {
                let shards: Vec<Vec<f32>> = (0..NODES).map(|r| masters[r][class].clone()).collect();
                let want = old_weight_path(&cfg, &shards);
                for &local in &locals {
                    assert_eq!(
                        slots[local], want,
                        "rank {rank} iteration {it}: slot {local} \
                             (class {class}) differs from the old recipe"
                    );
                }
                saw_colocated_siblings |= locals.len() > 1;
                saw_a_class_on_both_ranks |= placement.host_ranks(class).len() > 1;
            }
            if rank == 0 {
                placements.push(placement.replica_counts());
            }
        }
    }
    // The scenario must actually exercise what it claims to.
    assert!(
        placements.iter().any(|p| p != &placements[0]),
        "placement never rebalanced: {placements:?}"
    );
    assert!(saw_colocated_siblings, "no rank ever hosted sibling replicas");
    assert!(saw_a_class_on_both_ranks, "no class ever spanned both ranks");
}
