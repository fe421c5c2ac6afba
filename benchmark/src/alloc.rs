//! The benchmark's own counting allocator.
//!
//! Installed as the global allocator of the benchmark binary, it forwards
//! to the system allocator. Untraced runs leave the gate off, which costs
//! one relaxed load per allocation and counts nothing; the traced run
//! switches it on around the steps whose allocations it reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note() {
        // Relaxed: the gate and the count are statistics, they publish no
        // other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr` and `layout` come from a previous call into this
        // allocator, which handed out `System`'s pointer unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for every thread of the process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (`alloc`, `alloc_zeroed`, `realloc`) seen while counting.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test owns the process-wide gate, so parallel test threads cannot
    /// race on it; their allocations can only add to the count while it is
    /// on, which the assertions allow for.
    #[test]
    fn gate_controls_counting() {
        set_counting(true);
        let before = allocations();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        assert!(allocations() > before, "an allocation with the gate on is counted");

        set_counting(false);
        let frozen = allocations();
        for _ in 0..64 {
            std::hint::black_box(Box::new(7u64));
        }
        // Another test thread may have been between the gate load and the
        // increment when the gate closed: allow one straggler per thread.
        assert!(allocations() - frozen <= 8, "allocations with the gate off are not counted");
    }
}
