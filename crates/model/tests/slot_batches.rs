//! The engines' copy-free, class-major expert phase (`SlotBatches`).
//!
//! Five properties:
//!
//! 1. **Steady-state allocation regression** (pattern:
//!    `crates/collectives/tests/zero_alloc.rs`): at a steady batch shape the
//!    dispatch-assemble → expert forward → gradient-assemble → expert
//!    backward section performs zero heap allocations on the calling
//!    thread.
//! 2. **Bit-identity with the plain allocating recipe**: the same dispatch
//!    delivered to `SlotBatches` and to the reference kept here — gather
//!    each set's rows in arrival order into a `Vec`, `Matrix::from_vec(clone)`,
//!    allocating `forward`/`backward` — yields identical returned rows and
//!    identical expert gradients, both when co-located slots of one class
//!    are merged into one set and under the identity grouping (every slot a
//!    set of its own: the per-slot recipe the engines ran before, and what
//!    the striped baseline still is).
//! 3. **The per-slot recipe bounds the merged one**: running a class's slots
//!    one by one and folding their gradients in ascending slot order is the
//!    same sum in another association, so it agrees with the merged set
//!    within rounding — the bound is stated at the test.
//! 4. **A binary16 slot holds no f32 copy of its gradient**: the first
//!    backward of an engine slot allocates less than one weight block's f32
//!    size, and the gradient rests at 2 B per parameter.
//! 5. **Only a set that received rows needs an expert**: the forward runs
//!    with experts for the fed sets alone, and panics on a fed set without
//!    one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symi_model::expert::{ExpertFfn, SlotBatches};
use symi_tensor::{HalfMatrix, Matrix};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn bytes_allocated_on_this_thread() -> u64 {
    ALLOC_BYTES.with(|c| c.get())
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers all real work to `System`; the counter bumps touch only
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const D: usize = 16;
const FF: usize = 40;
const SLOTS: usize = 4;
const FIRST_SLOT: usize = 8; // this "rank" hosts global slots 8..12
/// Class of each local slot: slots 0 and 1 are co-located replicas.
const CLASSES: [usize; SLOTS] = [3, 3, 7, 9];

/// One iteration's wire input: (dispatch meta, dispatch rows, upstream grads),
/// each indexed by source rank.
type Round = (Vec<Vec<u64>>, Vec<Vec<f32>>, Vec<Vec<f32>>);

/// What the two dispatch all-to-alls deliver from `sources` ranks at
/// iteration `it`: per source, a slot id per row and the rows themselves.
/// Rows interleave over local slots 0, 1 and 2; slot 3 stays idle (the
/// empty-set path); row counts are odd on purpose.
fn dispatch(sources: usize, it: usize) -> (Vec<Vec<u64>>, Vec<Vec<f32>>) {
    let mut meta = Vec::new();
    let mut rows = Vec::new();
    for src in 0..sources {
        let count = 37 + 2 * src;
        let m: Vec<u64> = (0..count).map(|j| (FIRST_SLOT + (j + src) % 3) as u64).collect();
        let r: Vec<f32> =
            (0..count * D).map(|i| ((i + 31 * src + 7 * it) as f32 * 0.173).sin()).collect();
        meta.push(m);
        rows.push(r);
    }
    (meta, rows)
}

/// Upstream gradients returned in each source's send order.
fn upstream(meta: &[Vec<u64>], it: usize) -> Vec<Vec<f32>> {
    meta.iter()
        .enumerate()
        .map(|(src, m)| {
            (0..m.len() * D).map(|i| ((i + 13 * src + 5 * it) as f32 * 0.091).cos()).collect()
        })
        .collect()
}

/// One expert per possible set; set `g` holds the weights of the `g`-th
/// distinct class of `classes`.
fn experts(classes: &[usize; SLOTS]) -> Vec<ExpertFfn> {
    let sets = sets(classes);
    (0..SLOTS)
        .map(|g| {
            let class = (0..SLOTS).find(|&local| sets[local] == g).map_or(0, |l| classes[l]);
            ExpertFfn::new(D, FF, 40 + class as u64)
        })
        .collect()
}

/// The set of each local slot: distinct classes in order of first appearance.
fn sets(classes: &[usize; SLOTS]) -> [usize; SLOTS] {
    let mut distinct: Vec<usize> = Vec::new();
    classes.map(|class| {
        distinct.iter().position(|&c| c == class).unwrap_or_else(|| {
            distinct.push(class);
            distinct.len() - 1
        })
    })
}

#[test]
fn expert_phase_allocates_nothing_at_a_steady_batch_shape() {
    let sources = 2;
    let mut experts = experts(&CLASSES);
    let mut batches = SlotBatches::new(SLOTS, D);
    // Inputs for every round are built up front: the section under test is
    // regroup → assemble → forward → return rows → assemble grads → backward.
    let rounds: Vec<Round> = (0..6)
        .map(|it| {
            let (meta, rows) = dispatch(sources, it);
            let grads = upstream(&meta, it);
            (meta, rows, grads)
        })
        .collect();
    let mut back: Vec<Vec<f32>> = vec![Vec::new(); sources];
    let mut run = |(meta, rows, grads): &Round| {
        batches.regroup(|local| CLASSES[local]);
        batches.assemble_inputs(FIRST_SLOT, meta, rows);
        batches.forward(&mut experts);
        for (src, buf) in back.iter_mut().enumerate() {
            buf.clear();
            batches.append_outputs(src, buf);
        }
        batches.assemble_grads(grads);
        batches.backward(&mut experts);
    };
    // Warm-up sizes every persistent buffer (and the kernels' scratch).
    run(&rounds[0]);
    let before = allocs_on_this_thread();
    for round in &rounds[1..] {
        run(round);
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "the expert phase must be allocation-free in steady state");
}

/// The plain allocating recipe: flat per-set vectors gathered in arrival
/// order, `Matrix::from_vec(.., clone)`, allocating `forward`/`backward`.
/// `set_of_slot` names the execution unit of each local slot and `experts[u]`
/// runs unit `u`. Returns the rows owed to each source.
fn reference_path(
    experts: &mut [ExpertFfn],
    set_of_slot: &[usize; SLOTS],
    meta: &[Vec<u64>],
    rows: &[Vec<f32>],
    grads: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let n = meta.len();
    let mut set_inputs: Vec<Vec<f32>> = vec![Vec::new(); SLOTS];
    let mut routing_map: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for src in 0..n {
        for (j, &slot_id) in meta[src].iter().enumerate() {
            let set = set_of_slot[slot_id as usize - FIRST_SLOT];
            let row = set_inputs[set].len() / D;
            set_inputs[set].extend_from_slice(&rows[src][j * D..(j + 1) * D]);
            routing_map[src].push((set, row));
        }
    }
    let set_outputs: Vec<Matrix> = experts
        .iter_mut()
        .zip(&set_inputs)
        .map(|(expert, flat)| {
            if flat.is_empty() {
                Matrix::zeros(0, D)
            } else {
                expert.forward(&Matrix::from_vec(flat.len() / D, D, flat.clone()))
            }
        })
        .collect();
    let mut back: Vec<Vec<f32>> = vec![Vec::new(); n];
    for src in 0..n {
        for &(set, row) in &routing_map[src] {
            back[src].extend_from_slice(set_outputs[set].row(row));
        }
    }
    let mut set_dys: Vec<Vec<f32>> = set_inputs.iter().map(|f| vec![0.0f32; f.len()]).collect();
    for src in 0..n {
        for (j, &(set, row)) in routing_map[src].iter().enumerate() {
            set_dys[set][row * D..(row + 1) * D].copy_from_slice(&grads[src][j * D..(j + 1) * D]);
        }
    }
    for (set, expert) in experts.iter_mut().enumerate() {
        expert.zero_grad();
        if !set_dys[set].is_empty() {
            let rows = set_dys[set].len() / D;
            let _ = expert.backward(&Matrix::from_vec(rows, D, set_dys[set].clone()));
        }
    }
    back
}

#[test]
fn copy_free_path_is_bit_identical_to_the_from_vec_clone_path() {
    const IDENTITY: [usize; SLOTS] = [0, 1, 2, 3];
    for classes in [CLASSES, IDENTITY] {
        let mut new_experts = experts(&classes);
        let mut ref_experts = experts(&classes);
        let mut batches = SlotBatches::new(SLOTS, D);
        if classes != IDENTITY {
            batches.regroup(|local| classes[local]);
        } // else: a fresh `SlotBatches` is the identity grouping
        let mut merged_rows = false;
        // Varying source counts and shapes: buffers are reused across them.
        for (it, sources) in [2usize, 2, 3, 1, 2].into_iter().enumerate() {
            let (meta, rows) = dispatch(sources, it);
            let grads = upstream(&meta, it);

            batches.assemble_inputs(FIRST_SLOT, &meta, &rows);
            batches.forward(&mut new_experts);
            let mut back: Vec<Vec<f32>> = vec![Vec::new(); sources];
            for (src, buf) in back.iter_mut().enumerate() {
                batches.append_outputs(src, buf);
            }
            batches.assemble_grads(&grads);
            batches.backward(&mut new_experts);

            let want_back = reference_path(&mut ref_experts, &sets(&classes), &meta, &rows, &grads);
            assert_eq!(back, want_back, "{classes:?} round {it}: returned rows differ");
            for (set, (new, old)) in new_experts.iter_mut().zip(&mut ref_experts).enumerate() {
                assert_eq!(
                    new.grad_is_zero(),
                    old.grad_is_zero(),
                    "{classes:?} round {it}: set {set} idle on one side only"
                );
                assert_eq!(
                    new.flat_grads(),
                    old.flat_grads(),
                    "{classes:?} round {it}: set {set} gradients differ"
                );
            }
            merged_rows |= classes[0] == classes[1];
        }
        assert_eq!(merged_rows, classes == CLASSES);
    }
}

/// An engine allocates experts only for the classes it hosts, so the sets
/// past them have none: a set that receives no row needs no expert, and one
/// that receives rows without an expert stops the forward loudly.
#[test]
fn only_a_set_that_received_rows_needs_an_expert() {
    let (meta, rows) = dispatch(2, 0);
    let mut batches = SlotBatches::new(SLOTS, D);
    batches.regroup(|local| CLASSES[local]);
    batches.assemble_inputs(FIRST_SLOT, &meta, &rows);
    // Rows reach sets 0 and 1; set 2 (slot 3) stays idle.
    let mut experts = experts(&CLASSES);
    experts.truncate(2);
    batches.forward(&mut experts);
    batches.assemble_grads(&upstream(&meta, 0));
    batches.backward(&mut experts);
    assert!(experts.iter_mut().all(|e| !e.grad_is_zero()), "both fed sets ran backward");
}

#[test]
#[should_panic(expected = "set 1 received rows but has no expert")]
fn a_set_that_received_rows_without_an_expert_panics() {
    let (meta, rows) = dispatch(2, 0);
    let mut batches = SlotBatches::new(SLOTS, D);
    batches.regroup(|local| CLASSES[local]);
    batches.assemble_inputs(FIRST_SLOT, &meta, &rows);
    let mut experts = experts(&CLASSES);
    experts.truncate(1);
    batches.forward(&mut experts);
}

/// Class-major execution against the per-slot recipe it replaced. The
/// per-slot side runs slots 0 and 1 (one class) as two batches and folds
/// slot 1's gradient into slot 0's — §4.1's intra-rank step as written. Both
/// sides compute, per element, the same sum of per-row products; they differ
/// in association (and in which rows fall into a kernel's edge tile), so they
/// agree within rounding error of that sum, not bit for bit.
///
/// Stated bound, per element: `|merged − folded| ≤ 32 ε (|merged| + rms)`,
/// `ε = 2⁻²⁴`, `rms` the root mean square of the merged set's whole flat
/// gradient — the scale of a typical sum of the ≈ 40–80 row products here,
/// which floors the bound where an element's terms cancel (measured: up to
/// ≈ 20 ε·rms). Returned rows: `|Δ| ≤ 32 ε (|y| + rms(y))`.
#[test]
fn per_slot_fold_agrees_with_the_merged_set_within_rounding() {
    const EPS: f32 = 1.0 / (1u32 << 24) as f32;
    let within = |what: &str, merged: &[f32], folded: &[f32]| {
        assert_eq!(merged.len(), folded.len());
        let rms = (merged.iter().map(|v| v * v).sum::<f32>() / merged.len() as f32).sqrt();
        let mut differing = 0;
        for (i, (a, b)) in merged.iter().zip(folded).enumerate() {
            let bound = 32.0 * EPS * (a.abs() + rms);
            assert!((a - b).abs() <= bound, "{what}[{i}]: {a} vs {b} (bound {bound:e})");
            differing += usize::from(a.to_bits() != b.to_bits());
        }
        differing
    };
    let mut merged = experts(&CLASSES);
    let mut batches = SlotBatches::new(SLOTS, D);
    batches.regroup(|local| CLASSES[local]);
    // Per slot: slot 1 runs a second copy of slot 0's class.
    let mut per_slot = vec![
        ExpertFfn::new(D, FF, 40 + CLASSES[0] as u64),
        ExpertFfn::new(D, FF, 40 + CLASSES[1] as u64),
        ExpertFfn::new(D, FF, 40 + CLASSES[2] as u64),
        ExpertFfn::new(D, FF, 40 + CLASSES[3] as u64),
    ];
    let mut reassociated = 0;
    for (it, sources) in [2usize, 3, 1].into_iter().enumerate() {
        let (meta, rows) = dispatch(sources, it);
        let grads = upstream(&meta, it);
        batches.assemble_inputs(FIRST_SLOT, &meta, &rows);
        batches.forward(&mut merged);
        let mut back: Vec<Vec<f32>> = vec![Vec::new(); sources];
        for (src, buf) in back.iter_mut().enumerate() {
            batches.append_outputs(src, buf);
        }
        batches.assemble_grads(&grads);
        batches.backward(&mut merged);

        let slot_back = reference_path(&mut per_slot, &[0, 1, 2, 3], &meta, &rows, &grads);
        for (src, (a, b)) in back.iter().zip(&slot_back).enumerate() {
            within(&format!("round {it} rows to source {src}"), a, b);
        }
        let (rep, siblings) = per_slot.split_first_mut().expect("slots");
        let mut folded = rep.flat_grads().to_vec();
        for (f, g) in folded.iter_mut().zip(siblings[0].flat_grads()) {
            *f += g;
        }
        reassociated += within(&format!("round {it} class grads"), merged[0].flat_grads(), &folded);
        // A class alone on the rank is the same batch either way.
        assert_eq!(merged[1].flat_grads(), per_slot[2].flat_grads(), "round {it}: lone class");
    }
    assert!(reassociated > 0, "the merged sum never differed: the bound was not exercised");
}

#[test]
fn a_binary16_slot_backward_allocates_no_f32_copy_of_its_gradient() {
    // Few rows and a wide expert, so the per-thread activation scratch
    // (rows × d_ff floats) is small beside one weight block (d × d_ff).
    let (rows, d, ff) = (4, 64, 256);
    // A fresh thread: its scratch is sized during the measured pass.
    std::thread::spawn(move || {
        let mut slot = ExpertFfn::<HalfMatrix>::zeros(d, ff);
        slot.load_flat(&ExpertFfn::new(d, ff, 3).flat_params());
        let x = Matrix::from_fn(rows, d, |r, c| ((r * d + c) as f32 * 0.37).sin());
        let dy = Matrix::from_fn(rows, d, |r, c| ((r + 3 * c) as f32 * 0.11).cos() * 1e-2);
        let _ = slot.forward(&x);
        let before = bytes_allocated_on_this_thread();
        slot.zero_grad();
        slot.backward_into(&dy, None);
        let allocated = bytes_allocated_on_this_thread() - before;
        let block = (4 * d * ff) as u64;
        assert!(
            allocated < block,
            "the first backward allocated {allocated} B, an f32 weight block is {block} B"
        );
        assert_eq!(slot.grad_bytes(), 2 * slot.param_count(), "2 B per parameter at rest");
    })
    .join()
    .expect("the measuring thread");
}
