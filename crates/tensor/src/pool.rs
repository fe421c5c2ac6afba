//! Fixed worker pool for data-parallel kernel execution.
//!
//! A std-only thread pool sized from `SYMI_THREADS` (falling back to the
//! machine's available parallelism). Work is dispatched as *indexed shares*:
//! a parallel region asks for `p` participants and every participant `w`
//! receives the pair `(w, p)`, from which it derives its own deterministic
//! contiguous chunk via [`chunk_range`]. Two invariants make threaded
//! results bit-exact against the sequential path:
//!
//! 1. **Disjoint outputs.** Every helper in this module hands each
//!    participant an exclusive, contiguous slice of the output; no output
//!    element is ever written by two participants.
//! 2. **No cross-participant reductions.** Kernels accumulate each output
//!    element locally in ascending index order; the pool never merges
//!    partial sums, so floating-point accumulation order is independent of
//!    the worker count.
//!
//! Consequently a kernel run with 1, 2, or 64 threads produces identical
//! bits — the worker count only decides *who* computes each chunk.
//!
//! The submitting thread always participates as share 0, so a pool of `t`
//! threads spawns `t - 1` OS workers. Workers are spawned lazily on first
//! use and then parked on a condvar; steady-state dispatch allocates
//! nothing. Nested parallel regions (a pool op issued from inside a worker
//! share) degrade to inline sequential execution rather than deadlocking.
//!
//! This module contains the workspace's only `unsafe` code: the classic
//! scoped-dispatch lifetime erasure. [`ThreadPool::run`] lends workers a
//! reference to a stack closure and **does not return until every share has
//! finished**, so the erased borrow never outlives the frame it points into.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Hard cap on pool participants; stack-allocated split tables use it.
pub(crate) const MAX_WORKERS: usize = 16;

/// Boundaries of chunk `i` when splitting `len` items into `parts`
/// near-equal contiguous chunks (remainder spread over the first chunks).
/// Mirrors `symi_collectives::coll::chunk_range` (tensor sits below the
/// collectives crate and cannot import it).
pub fn chunk_range(len: usize, parts: usize, i: usize) -> (usize, usize) {
    debug_assert!(i < parts);
    let base = len / parts;
    let rem = len % parts;
    let start = i * base + i.min(rem);
    let size = base + usize::from(i < rem);
    (start, start + size)
}

/// A job lent to the workers for the duration of one `run` call.
///
/// The pointer is a lifetime-erased borrow of the submitting frame's
/// closure; see the module docs for why that is sound.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    /// Total participants (submitter = share 0, workers take 1..shares).
    shares: usize,
}
// SAFETY: the closure behind `f` is `Sync` (shared calls from many threads
// are fine) and the submitter keeps it alive until every share completes.
unsafe impl Send for Job {}

struct Slot {
    /// Bumped once per job so parked workers can tell "new work" apart
    /// from spurious wakeups.
    seq: u64,
    job: Option<Job>,
    /// Worker shares still running for the current job.
    remaining: usize,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// Cumulative pool counters (monotonic; consumers diff between reads).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Threads that can currently participate (including the submitter).
    pub threads: usize,
    /// Parallel regions dispatched through the pool.
    pub jobs: u64,
    /// Nanoseconds of share execution summed over all participants.
    pub busy_ns: u64,
    /// `SYMI_THREADS` was set but unparseable when the pool was created;
    /// the value was ignored (with a one-time stderr warning) and the pool
    /// fell back to available parallelism.
    pub env_invalid: bool,
}

/// The fixed worker pool. Use [`global`]; constructing private pools is
/// intentionally unsupported so every subsystem shares one set of threads.
pub struct ThreadPool {
    shared: &'static Shared,
    /// OS workers spawned so far (grown lazily up to `threads() - 1`).
    spawned: Mutex<usize>,
    /// Serializes submissions from different threads.
    submit: Mutex<()>,
    /// Current participant budget (submitter + workers).
    threads: AtomicUsize,
    jobs: AtomicU64,
    busy_ns: AtomicU64,
    /// Set at creation when `SYMI_THREADS` held garbage (see `env_threads`).
    env_invalid: bool,
}

thread_local! {
    /// Set while this thread is executing a pool share; nested parallel
    /// regions check it and run inline instead of re-entering the pool.
    static IN_SHARE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Parses a `SYMI_THREADS` value: a positive integer, surrounding
/// whitespace tolerated. Returns a description of the problem otherwise.
pub(crate) fn parse_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value".to_string());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("thread count must be at least 1".to_string()),
        Ok(t) => Ok(t),
        Err(e) => Err(format!("not a positive integer: {e}")),
    }
}

/// Reads `SYMI_THREADS`. The second element reports whether the variable
/// was set but invalid — a misconfiguration that must not pass silently,
/// because the pool then sizes itself from the machine instead of the
/// operator's intent.
fn env_threads() -> (Option<usize>, bool) {
    let Ok(raw) = std::env::var("SYMI_THREADS") else {
        return (None, false);
    };
    match parse_threads(&raw) {
        Ok(t) => (Some(t), false),
        Err(why) => {
            eprintln!(
                "symi: ignoring invalid SYMI_THREADS={raw:?} ({why}); \
                 falling back to available parallelism"
            );
            (None, true)
        }
    }
}

/// The process-wide pool, created on first use with `SYMI_THREADS` threads
/// (default: available parallelism), capped at `MAX_WORKERS`.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (requested, env_invalid) = env_threads();
        let threads = requested
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .min(MAX_WORKERS);
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            slot: Mutex::new(Slot { seq: 0, job: None, remaining: 0 }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        ThreadPool {
            shared,
            spawned: Mutex::new(0),
            submit: Mutex::new(()),
            threads: AtomicUsize::new(threads),
            jobs: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            env_invalid,
        }
    })
}

/// Current participant budget of the global pool.
pub fn current_threads() -> usize {
    global().threads()
}

/// Overrides the participant budget (clamped to `1..=MAX_WORKERS`).
/// Intended for benches and tests that sweep thread counts; results are
/// bit-identical across budgets by construction.
pub fn set_threads(threads: usize) {
    global().threads.store(threads.clamp(1, MAX_WORKERS), Ordering::Relaxed);
}

/// Serializes in-crate tests that temporarily rewire the global budget via
/// [`set_threads`] (the pool is process-global, so concurrent sweeps race).
#[cfg(test)]
pub(crate) static TEST_POOL_LOCK: Mutex<()> = Mutex::new(());

/// Snapshot of the global pool's counters.
pub fn stats() -> PoolStats {
    let p = global();
    PoolStats {
        threads: p.threads(),
        jobs: p.jobs.load(Ordering::Relaxed),
        busy_ns: p.busy_ns.load(Ordering::Relaxed),
        env_invalid: p.env_invalid,
    }
}

impl ThreadPool {
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed).clamp(1, MAX_WORKERS)
    }

    fn worker_loop(shared: &'static Shared, id: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut slot = shared.slot.lock().expect("pool mutex");
                loop {
                    if slot.seq != seen {
                        seen = slot.seq;
                        if let Some(job) = slot.job {
                            if id < job.shares {
                                break job;
                            }
                        }
                    }
                    slot = shared.work_cv.wait(slot).expect("pool mutex");
                }
            };
            let t0 = Instant::now();
            IN_SHARE.with(|f| f.set(true));
            // SAFETY: the submitter blocks in `run` until `remaining`
            // reaches zero, so the borrowed closure is alive here.
            (unsafe { &*job.f })(id);
            IN_SHARE.with(|f| f.set(false));
            let elapsed = t0.elapsed().as_nanos() as u64;
            global().busy_ns.fetch_add(elapsed, Ordering::Relaxed);
            let mut slot = shared.slot.lock().expect("pool mutex");
            slot.remaining -= 1;
            if slot.remaining == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    fn ensure_spawned(&self, workers: usize) {
        let mut spawned = self.spawned.lock().expect("pool spawn mutex");
        while *spawned < workers {
            let id = *spawned + 1; // worker ids are 1-based; 0 is the submitter
            let shared = self.shared;
            std::thread::Builder::new()
                .name(format!("symi-pool-{id}"))
                .spawn(move || Self::worker_loop(shared, id))
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }

    /// Runs `f(share)` for every `share in 0..shares`, distributing shares
    /// `1..` to pool workers and running share 0 on the calling thread.
    /// Returns only after every share has completed.
    pub fn run(&self, shares: usize, f: &(dyn Fn(usize) + Sync)) {
        let shares = shares.clamp(1, self.threads());
        if shares == 1 || IN_SHARE.with(|s| s.get()) {
            // Sequential fallback — also the nested-region path, keeping the
            // pool deadlock-free. Callers have already partitioned their work
            // into `shares` chunks, so every share must still execute; doing
            // so in ascending order on one thread produces the same bits as
            // the parallel dispatch (disjoint outputs, per-element folds).
            let t0 = Instant::now();
            for w in 0..shares {
                f(w);
            }
            self.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return;
        }
        let _serial: MutexGuard<'_, ()> = self.submit.lock().expect("pool submit mutex");
        self.ensure_spawned(shares - 1);
        self.jobs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: lifetime erasure for scoped dispatch — the borrow is only
        // reachable through `Slot.job`, and this function does not return
        // until every worker share has finished (the `remaining == 0` wait
        // below), after which no worker dereferences the pointer again.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        {
            let mut slot = self.shared.slot.lock().expect("pool mutex");
            slot.seq += 1;
            slot.job = Some(Job { f: erased, shares });
            slot.remaining = shares - 1;
            self.shared.work_cv.notify_all();
        }
        let t0 = Instant::now();
        IN_SHARE.with(|s| s.set(true));
        f(0);
        IN_SHARE.with(|s| s.set(false));
        self.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut slot = self.shared.slot.lock().expect("pool mutex");
        while slot.remaining > 0 {
            slot = self.shared.done_cv.wait(slot).expect("pool mutex");
        }
        slot.job = None;
    }
}

/// How many participants a region of `items` work items deserves, keeping
/// at least `min_per_share` items per participant.
fn shares_for(items: usize, min_per_share: usize) -> usize {
    let budget = current_threads();
    let useful = items / min_per_share.max(1);
    budget.min(useful.max(1))
}

/// Parallel iteration over `0..items`: each participant receives one
/// contiguous [`chunk_range`] sub-range. Outputs written through captured
/// state must be disjoint per index (all helpers below guarantee this
/// structurally).
#[cfg(test)]
pub(crate) fn parallel_for(items: usize, min_per_share: usize, f: impl Fn(Range<usize>) + Sync) {
    if items == 0 {
        return;
    }
    let p = shares_for(items, min_per_share);
    if p == 1 {
        f(0..items);
        return;
    }
    global().run(p, &|w| {
        let (a, b) = chunk_range(items, p, w);
        if a < b {
            f(a..b);
        }
    });
}

/// A split table: per-share mutable sub-slices of one buffer, stored on the
/// stack. Shares lock only their own entry (uncontended by construction),
/// which is what lets safe code hand disjoint `&mut` chunks to the pool.
pub(crate) struct Parts<'a, T>([Option<Mutex<&'a mut [T]>>; MAX_WORKERS]);

impl<'a, T> Parts<'a, T> {
    /// Splits `data` so share `w` owns `bounds[w]` (item ranges scaled by
    /// `width` elements per item).
    pub fn split(mut data: &'a mut [T], bounds: &[(usize, usize)], width: usize) -> Self {
        let mut parts: [Option<Mutex<&'a mut [T]>>; MAX_WORKERS] = std::array::from_fn(|_| None);
        for (w, &(a, b)) in bounds.iter().enumerate() {
            let (head, tail) = data.split_at_mut((b - a) * width);
            parts[w] = Some(Mutex::new(head));
            data = tail;
        }
        Self(parts)
    }

    /// Exclusive access to share `w`'s chunk.
    pub fn lock(&self, w: usize) -> MutexGuard<'_, &'a mut [T]> {
        self.0[w].as_ref().expect("share index within split").lock().expect("parts mutex")
    }
}

/// The per-share bounds table for `items` split `p` ways.
pub(crate) fn share_bounds(items: usize, p: usize) -> ([(usize, usize); MAX_WORKERS], usize) {
    let mut bounds = [(0usize, 0usize); MAX_WORKERS];
    for (w, bound) in bounds.iter_mut().enumerate().take(p) {
        *bound = chunk_range(items, p, w);
    }
    (bounds, p)
}

/// Row bounds for `rows` rows split `shares` ways at `block`-row granularity:
/// every share boundary is a multiple of `block` (except the final `rows`
/// cap), so a kernel that tiles rows in `block`-high strips sees the *same
/// global tile decomposition* no matter how many shares execute it. That is
/// what keeps SIMD kernels — whose full-tile and edge-tile code round
/// differently (FMA vs mul-then-add) — bit-identical across worker counts.
fn block_share_bounds(
    rows: usize,
    block: usize,
    shares: usize,
) -> ([(usize, usize); MAX_WORKERS], usize) {
    let nblocks = rows.div_ceil(block.max(1));
    let p = shares.clamp(1, nblocks.max(1)).min(MAX_WORKERS);
    let mut bounds = [(0usize, 0usize); MAX_WORKERS];
    for (w, bound) in bounds.iter_mut().enumerate().take(p) {
        let (ba, bb) = chunk_range(nblocks, p, w);
        *bound = ((ba * block).min(rows), (bb * block).min(rows));
    }
    (bounds, p)
}

/// [`par_rows`] with an explicit share count (the caller's cost model
/// decides, e.g. `kernels::plan_shares`) and `block`-aligned boundaries.
/// `shares <= 1` runs inline on the calling thread with zero dispatch.
pub(crate) fn par_rows_planned<T: Send>(
    rows: usize,
    width: usize,
    block: usize,
    shares: usize,
    out: &mut [T],
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    debug_assert_eq!(out.len(), rows * width);
    if rows == 0 {
        return;
    }
    // `run` executes at most `threads()` shares; planning more would leave
    // bounds unvisited, so cap here rather than trusting the caller's model.
    let (bounds, p) = block_share_bounds(rows, block, shares.min(current_threads()));
    if p == 1 {
        f(0..rows, out);
        return;
    }
    let parts = Parts::split(out, &bounds[..p], width);
    global().run(p, &|w| {
        let (a, b) = bounds[w];
        if a < b {
            f(a..b, &mut parts.lock(w));
        }
    });
}

/// Like [`par_rows_planned`] with two output buffers sharing the same row
/// geometry (pre-activation + activation for the fused GEMM epilogue).
pub(crate) fn par_rows2_planned(
    rows: usize,
    width: usize,
    block: usize,
    shares: usize,
    out_a: &mut [f32],
    out_b: &mut [f32],
    f: impl Fn(Range<usize>, &mut [f32], &mut [f32]) + Sync,
) {
    debug_assert_eq!(out_a.len(), rows * width);
    debug_assert_eq!(out_b.len(), rows * width);
    if rows == 0 {
        return;
    }
    let (bounds, p) = block_share_bounds(rows, block, shares.min(current_threads()));
    if p == 1 {
        f(0..rows, out_a, out_b);
        return;
    }
    let parts_a = Parts::split(out_a, &bounds[..p], width);
    let parts_b = Parts::split(out_b, &bounds[..p], width);
    global().run(p, &|w| {
        let (a, b) = bounds[w];
        if a < b {
            f(a..b, &mut parts_a.lock(w), &mut parts_b.lock(w));
        }
    });
}

/// Parallel "rows" map: splits `out` into per-share row ranges (each row is
/// `width` elements) and calls `f(rows, out_rows)` per share. Disjointness
/// is structural, so this is a fully safe parallel-mutation primitive.
pub fn par_rows(
    rows: usize,
    width: usize,
    min_rows_per_share: usize,
    out: &mut [f32],
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    debug_assert_eq!(out.len(), rows * width);
    if rows == 0 {
        return;
    }
    let p = shares_for(rows, min_rows_per_share);
    if p == 1 {
        f(0..rows, out);
        return;
    }
    let (bounds, p) = share_bounds(rows, p);
    let parts = Parts::split(out, &bounds[..p], width);
    global().run(p, &|w| {
        let (a, b) = bounds[w];
        if a < b {
            f(a..b, &mut parts.lock(w));
        }
    });
}

/// Parallel element conversion `src -> dst` (fp16 wire encode/decode, gelu
/// sweeps, quantization): both slices are split at identical boundaries and
/// `f` maps each chunk pair.
pub fn par_convert<S: Sync, D: Send>(
    src: &[S],
    dst: &mut [D],
    min_per_share: usize,
    f: impl Fn(&[S], &mut [D]) + Sync,
) {
    assert_eq!(src.len(), dst.len(), "par_convert length mismatch");
    let n = src.len();
    if n == 0 {
        return;
    }
    let p = shares_for(n, min_per_share);
    if p == 1 {
        f(src, dst);
        return;
    }
    let (bounds, p) = share_bounds(n, p);
    let parts = Parts::split(dst, &bounds[..p], 1);
    global().run(p, &|w| {
        let (a, b) = bounds[w];
        if a < b {
            f(&src[a..b], &mut parts.lock(w));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition() {
        for len in [0usize, 1, 7, 64, 103] {
            for parts in 1..=8 {
                let mut next = 0usize;
                for i in 0..parts {
                    let (a, b) = chunk_range(len, parts, i);
                    assert_eq!(a, next);
                    next = b;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 1003;
        let hits: Vec<std::sync::atomic::AtomicU64> =
            (0..n).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
        parallel_for(n, 1, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_rows_writes_disjoint_rows() {
        let rows = 37;
        let width = 5;
        let mut out = vec![0.0f32; rows * width];
        par_rows(rows, width, 1, &mut out, |range, chunk| {
            for (local, r) in range.clone().enumerate() {
                for c in 0..width {
                    chunk[local * width + c] = (r * width + c) as f32;
                }
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn par_convert_maps_all_elements() {
        let src: Vec<f32> = (0..257).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 257];
        par_convert(&src, &mut dst, 8, |s, d| {
            for (x, y) in s.iter().zip(d.iter_mut()) {
                *y = x * 2.0;
            }
        });
        for (i, v) in dst.iter().enumerate() {
            assert_eq!(*v, i as f32 * 2.0);
        }
    }

    #[test]
    fn nested_regions_run_inline() {
        let outer = std::sync::atomic::AtomicU64::new(0);
        parallel_for(4, 1, |range| {
            for _ in range {
                // A nested region must not deadlock; it runs inline.
                parallel_for(8, 1, |inner| {
                    outer.fetch_add(inner.len() as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(outer.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn block_aligned_bounds_partition_and_align() {
        for rows in [1usize, 4, 5, 23, 64, 101] {
            for block in [1usize, 4, 6, 8] {
                for shares in 1..=8 {
                    let (bounds, p) = block_share_bounds(rows, block, shares);
                    let mut next = 0usize;
                    for &(a, b) in bounds.iter().take(p) {
                        assert_eq!(a, next, "rows={rows} block={block} shares={shares}");
                        assert!(b == rows || b % block == 0, "interior boundary not aligned");
                        next = b;
                    }
                    assert_eq!(next, rows);
                }
            }
        }
    }

    #[test]
    fn par_rows_planned_covers_every_row_once() {
        let _g = crate::pool::TEST_POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = current_threads();
        set_threads(4);
        let rows = 29;
        let width = 3;
        let mut out = vec![0.0f32; rows * width];
        par_rows_planned(rows, width, 4, 8, &mut out, |range, chunk| {
            for (local, r) in range.clone().enumerate() {
                for c in 0..width {
                    chunk[local * width + c] += (r * width + c) as f32 + 1.0;
                }
            }
        });
        set_threads(prev);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 + 1.0, "row element written exactly once");
        }
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert_eq!(parse_threads("64"), Ok(64));
    }

    #[test]
    fn parse_threads_rejects_garbage_loudly() {
        assert!(parse_threads("abc").is_err());
        assert!(parse_threads("0").is_err(), "zero threads cannot run anything");
        assert!(parse_threads("").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("4.5").is_err());
    }

    #[test]
    fn stats_accumulate() {
        let before = stats();
        parallel_for(1024, 1, |_| {});
        let after = stats();
        assert!(after.threads >= 1);
        assert!(after.jobs >= before.jobs);
    }
}
