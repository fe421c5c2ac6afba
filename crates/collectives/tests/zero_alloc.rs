//! Steady-state allocation regression test for the grad-sync hot path.
//!
//! `expert_allreduce` used to snapshot the representative tensor with
//! `rep.to_vec()` before fanning it back out to the co-located replica
//! slots — one heap allocation per expert class per iteration, exactly the
//! kind of steady-state churn the training loop is engineered to avoid.
//! There is no fan-out any more (the siblings are read-only operands), and
//! this test keeps pinning the property: after warm-up, repeated
//! `expert_allreduce` calls perform **zero** heap allocations on the
//! calling thread.
//!
//! The counter is thread-local so the measuring rank thread only observes
//! its own allocations, keeping the assertion exact even if the test
//! harness runs other tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symi_collectives::cluster::{Cluster, ClusterSpec};
use symi_collectives::hier::ReduceMode;

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

#[test]
fn expert_allreduce_steady_state_allocates_nothing() {
    // A single-rank group takes the HBM-local path (fold into the
    // representative, normalize) with no link traffic — precisely the code
    // that held the `to_vec` snapshot.
    let (deltas, _) = Cluster::run(ClusterSpec::flat(1), |ctx| {
        let group = ctx.groups().range(0, 1);
        let mut locals: Vec<Vec<f32>> = (0..3).map(|s| vec![s as f32 + 1.0; 256]).collect();
        let (rep, rest) = locals.split_first_mut().expect("three replicas");
        let siblings = || rest.iter().map(Vec::as_slice);

        // Warm-up: first call may lazily initialize runtime state.
        ctx.expert_allreduce(&group, 1, rep, siblings(), 3, ReduceMode::Mean).unwrap();

        let before = allocs_on_this_thread();
        for step in 0..8u64 {
            ctx.expert_allreduce(&group, 2 + step, rep, siblings(), 3, ReduceMode::Mean).unwrap();
        }
        let after = allocs_on_this_thread();
        after - before
    });
    // Before the fix this measured one allocation per call (8 total).
    assert_eq!(deltas[0], 0, "expert_allreduce must be allocation-free in steady state");
}
