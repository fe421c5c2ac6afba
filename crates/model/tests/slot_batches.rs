//! The engines' copy-free expert phase (`SlotBatches`).
//!
//! Two properties:
//!
//! 1. **Steady-state allocation regression** (pattern:
//!    `crates/collectives/tests/zero_alloc.rs`): at a steady batch shape the
//!    dispatch-assemble → expert forward → gradient-assemble → expert
//!    backward section performs zero heap allocations on the calling
//!    thread. The engines used to build a `Vec<f32>` per slot, clone it
//!    into a `Matrix`, and take freshly allocated outputs from
//!    `forward()`/`backward()` — twice per slot per iteration.
//! 2. **Bit-identity with that old path**: the same dispatch delivered to
//!    `SlotBatches` and to the old recipe (kept here as the reference)
//!    yields identical returned rows and identical expert gradients.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symi_model::expert::{ExpertFfn, SlotBatches};
use symi_tensor::Matrix;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

// SAFETY: defers all real work to `System`; the counter bump touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const D: usize = 16;
const FF: usize = 40;
const SLOTS: usize = 3;
const FIRST_SLOT: usize = 6; // this "rank" hosts global slots 6, 7, 8

/// One iteration's wire input: (dispatch meta, dispatch rows, upstream grads),
/// each indexed by source rank.
type Round = (Vec<Vec<u64>>, Vec<Vec<f32>>, Vec<Vec<f32>>);

/// What the two dispatch all-to-alls deliver from `sources` ranks at
/// iteration `it`: per source, a slot id per row and the rows themselves.
/// Slot 8 stays idle (the empty-slot path); row counts are odd on purpose.
fn dispatch(sources: usize, it: usize) -> (Vec<Vec<u64>>, Vec<Vec<f32>>) {
    let mut meta = Vec::new();
    let mut rows = Vec::new();
    for src in 0..sources {
        let count = 37 + 2 * src;
        let m: Vec<u64> = (0..count).map(|j| (FIRST_SLOT + (j + src) % 2) as u64).collect();
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

fn experts() -> Vec<ExpertFfn> {
    (0..SLOTS).map(|l| ExpertFfn::new(D, FF, 40 + l as u64)).collect()
}

#[test]
fn expert_phase_allocates_nothing_at_a_steady_batch_shape() {
    let sources = 2;
    let mut experts = experts();
    let mut batches = SlotBatches::new(SLOTS, D);
    // Inputs for every round are built up front: the section under test is
    // assemble → forward → return rows → assemble grads → backward.
    let rounds: Vec<Round> = (0..6)
        .map(|it| {
            let (meta, rows) = dispatch(sources, it);
            let grads = upstream(&meta, it);
            (meta, rows, grads)
        })
        .collect();
    let mut back: Vec<Vec<f32>> = vec![Vec::new(); sources];
    let mut run = |(meta, rows, grads): &Round| {
        batches.assemble_inputs(FIRST_SLOT, meta, rows);
        batches.forward(&mut experts);
        for (src, buf) in back.iter_mut().enumerate() {
            buf.clear();
            batches.append_outputs(src, buf);
        }
        batches.assemble_grads(grads);
        for (local, expert) in experts.iter_mut().enumerate() {
            batches.backward(local, expert);
        }
    };
    // Warm-up sizes every persistent buffer (and the kernels' scratch).
    run(&rounds[0]);
    let before = allocs_on_this_thread();
    for round in &rounds[1..] {
        run(round);
    }
    let after = allocs_on_this_thread();
    // The old path measured 2 clones + 2 result matrices per busy slot per
    // round, plus the per-slot row vectors and the routing map.
    assert_eq!(after - before, 0, "the expert phase must be allocation-free in steady state");
}

/// The pre-`SlotBatches` engine code, verbatim in shape: flat per-slot
/// vectors, `Matrix::from_vec(.., clone)`, allocating `forward`/`backward`.
fn old_path(
    experts: &mut [ExpertFfn],
    meta: &[Vec<u64>],
    rows: &[Vec<f32>],
    grads: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let n = meta.len();
    let mut slot_inputs: Vec<Vec<f32>> = vec![Vec::new(); SLOTS];
    let mut routing_map: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for src in 0..n {
        for (j, &slot_id) in meta[src].iter().enumerate() {
            let local = slot_id as usize - FIRST_SLOT;
            let row = slot_inputs[local].len() / D;
            slot_inputs[local].extend_from_slice(&rows[src][j * D..(j + 1) * D]);
            routing_map[src].push((local, row));
        }
    }
    let slot_outputs: Vec<Matrix> = experts
        .iter_mut()
        .zip(&slot_inputs)
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
        for &(slot, row) in &routing_map[src] {
            back[src].extend_from_slice(slot_outputs[slot].row(row));
        }
    }
    let mut slot_dys: Vec<Vec<f32>> = slot_inputs.iter().map(|f| vec![0.0f32; f.len()]).collect();
    for src in 0..n {
        for (j, &(slot, row)) in routing_map[src].iter().enumerate() {
            slot_dys[slot][row * D..(row + 1) * D].copy_from_slice(&grads[src][j * D..(j + 1) * D]);
        }
    }
    for (local, expert) in experts.iter_mut().enumerate() {
        expert.zero_grad();
        if !slot_dys[local].is_empty() {
            let rows = slot_dys[local].len() / D;
            let _ = expert.backward(&Matrix::from_vec(rows, D, slot_dys[local].clone()));
        }
    }
    back
}

#[test]
fn copy_free_path_is_bit_identical_to_the_from_vec_clone_path() {
    let mut new_experts = experts();
    let mut old_experts = experts();
    let mut batches = SlotBatches::new(SLOTS, D);
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
        for (local, expert) in new_experts.iter_mut().enumerate() {
            batches.backward(local, expert);
        }

        let want_back = old_path(&mut old_experts, &meta, &rows, &grads);
        assert_eq!(back, want_back, "round {it}: returned rows differ");
        for (local, (new, old)) in new_experts.iter_mut().zip(&mut old_experts).enumerate() {
            assert_eq!(
                new.flat_grads(),
                old.flat_grads(),
                "round {it}: slot {local} gradients differ"
            );
        }
    }
}
