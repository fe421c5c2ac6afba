//! A bounded free list of wire buffers.
//!
//! A message moves its `Vec` from the sender to the receiver, so a rank that
//! sends every iteration allocates every iteration, and the receiver frees
//! what it consumed. For the megabyte-sized gradient and weight shards that
//! churn is not free: the allocator hands the pages back to the kernel and
//! the next iteration faults them in again. Receivers therefore return
//! consumed buffers here ([`RankCtx::recycle_f32`]/[`RankCtx::recycle_f16`])
//! and the collectives draw their outgoing copies from here, so a steady
//! iteration sends in the buffers the previous one received.
//!
//! The list is shared by the ranks of a cluster. Per iteration a rank may
//! send more buffers than it receives (it hosts more classes than its peer)
//! as long as some other rank receives more than it sends; over the cluster
//! the two always balance, which a per-rank list could not use.
//!
//! Bounded two ways: buffers under [`MIN_POOLED_BYTES`] are not kept (the
//! allocator serves those from its own bins without touching the kernel),
//! and at most [`MAX_IDLE`] buffers per element type sit idle — a flow that
//! only ever returns buffers fills the list and from then on frees them.
//!
//! [`RankCtx::recycle_f32`]: crate::ctx::RankCtx::recycle_f32
//! [`RankCtx::recycle_f16`]: crate::ctx::RankCtx::recycle_f16

use std::sync::Mutex;

/// Idle buffers kept per element type.
pub const MAX_IDLE: usize = 32;
/// Buffers with less capacity than this are dropped, not kept.
pub const MIN_POOLED_BYTES: usize = 64 * 1024;

/// Idle buffers of one element type.
pub(crate) struct FreeList<T> {
    idle: Mutex<Vec<Vec<T>>>,
}

impl<T: Copy> FreeList<T> {
    fn new() -> Self {
        Self { idle: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<T>>> {
        // Pushes and removals leave the list valid at every step, so a rank
        // that panicked while holding the lock poisons nothing.
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An empty buffer with room for `len` elements: the smallest idle one
    /// that fits, a fresh one of exactly that capacity otherwise.
    pub(crate) fn take(&self, len: usize) -> Vec<T> {
        let reused = {
            let mut idle = self.lock();
            let fit = idle
                .iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= len)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            fit.map(|i| idle.swap_remove(i))
        };
        let mut buf = reused.unwrap_or_else(|| Vec::with_capacity(len));
        buf.clear();
        buf
    }

    /// A buffer holding a copy of `src`, taken as [`FreeList::take`] does.
    pub(crate) fn copy_of(&self, src: &[T]) -> Vec<T> {
        let mut buf = self.take(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Keeps `buf` for a later [`FreeList::copy_of`], or drops it if it is
    /// small or the list is full.
    pub(crate) fn put(&self, buf: Vec<T>) {
        if buf.capacity() * std::mem::size_of::<T>() < MIN_POOLED_BYTES {
            return;
        }
        let mut idle = self.lock();
        if idle.len() < MAX_IDLE {
            idle.push(buf);
        }
    }

    pub(crate) fn idle(&self) -> usize {
        self.lock().len()
    }
}

/// The cluster's idle `f32` (gradient) and binary16 (weight) wire buffers.
pub(crate) struct WireBuffers {
    pub(crate) f32s: FreeList<f32>,
    pub(crate) f16s: FreeList<u16>,
}

impl WireBuffers {
    pub(crate) fn new() -> Self {
        Self { f32s: FreeList::new(), f16s: FreeList::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: usize = MIN_POOLED_BYTES / 4;

    #[test]
    fn a_returned_buffer_is_the_next_copy() {
        let pool = WireBuffers::new();
        let first = pool.f32s.copy_of(&vec![1.0; BIG]);
        let addr = first.as_ptr();
        pool.f32s.put(first);
        let second = pool.f32s.copy_of(&vec![2.0; BIG - 7]);
        assert_eq!(second.as_ptr(), addr, "the idle buffer is reused");
        assert_eq!(second, vec![2.0; BIG - 7]);
        assert_eq!((pool.f32s.idle(), pool.f16s.idle()), (0, 0));
    }

    #[test]
    fn the_smallest_buffer_that_fits_is_taken() {
        let pool = WireBuffers::new();
        for len in [4 * BIG, 2 * BIG, 3 * BIG] {
            pool.f16s.put(vec![0u16; len * 2]);
        }
        assert_eq!(pool.f16s.copy_of(&vec![7; 2 * BIG * 2 + 1]).capacity(), 3 * BIG * 2);
        // Nothing idle fits: a fresh buffer, the idle ones stay.
        assert_eq!(pool.f16s.copy_of(&vec![7; 9 * BIG]).len(), 9 * BIG);
        assert_eq!((pool.f32s.idle(), pool.f16s.idle()), (0, 2));
    }

    #[test]
    fn small_buffers_are_not_kept() {
        let pool = WireBuffers::new();
        pool.f32s.put(vec![0.0; BIG - 1]);
        pool.f16s.put(vec![0; 100]);
        assert_eq!((pool.f32s.idle(), pool.f16s.idle()), (0, 0));
    }

    #[test]
    fn a_one_way_flow_fills_the_list_and_no_further() {
        let pool = WireBuffers::new();
        for _ in 0..10 * MAX_IDLE {
            pool.f32s.put(vec![0.0; BIG]);
        }
        assert_eq!((pool.f32s.idle(), pool.f16s.idle()), (MAX_IDLE, 0));
    }
}
