//! A steady `Trainer` step allocates only its bookkeeping.
//!
//! Every activation of `GptMoe::forward_backward` — the residual stream, the
//! layers' caches, the logits the loss overwrites with their gradient, the
//! attention and MoE scratch — lives in a buffer kept across steps, so once a
//! few steps have sized them a `small_sim` step's heap requests are the
//! handful of small vectors it hands back or records (pattern:
//! `crates/core/tests/steady_state_allocs.rs`, counting process-wide so pool
//! workers count too):
//!
//! - the returned `StepStats`: its per-layer vector, and each layer's
//!   `MoeStats::{popularity, kept_per_class}` (1 + 2·layers);
//! - `Trainer::step`'s placement bookkeeping: the next allocation's outer
//!   vector, and per layer the policy's replica vector and the popularity and
//!   replica copies pushed onto `TrainRecord` (1 + 3·layers);
//! - when a record's length passes a power of two, the doubling of the
//!   `TrainRecord` vectors: the loss, survival and churn series and, per
//!   layer, the popularity trace and the replica history (3 + 2·layers).
//!
//! That is 12 per step at `small_sim`'s two layers and 19 on a doubling
//! step. Besides, a buffer sized by one class's rows grows when a class
//! first reaches a new high-water mark — up to its capacity of 32 rows
//! under the uniform policy, so the events thin out after warm-up. The test
//! holds most steps to exactly 12, every step to 24, and every request under
//! 64 KiB — one `small_sim` activation matrix is 256 KiB. The parent of this
//! test's change made 2,121 requests per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use symi_model::{ModelConfig, Trainer, UniformPolicy};
use symi_workload::{CorpusConfig, DriftingCorpus};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static REQUESTS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

/// `(requests, largest request in bytes)` since the last call.
fn take_requests() -> (usize, usize) {
    (REQUESTS.swap(0, Ordering::Relaxed), LARGEST.swap(0, Ordering::Relaxed))
}

// SAFETY: defers all real work to `System`; the bookkeeping touches only
// atomics, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WARMUP: usize = 10;
const MEASURED: usize = 8;
/// The bookkeeping requests of a step (module docs).
const BOOKKEEPING: usize = 12;
/// 12, plus 7 when the records double, plus a few high-water growths.
const MAX_REQUESTS: usize = 24;
const LARGE: usize = 64 * 1024;

#[test]
fn a_steady_small_sim_step_allocates_only_its_bookkeeping() {
    let cfg = ModelConfig::small_sim();
    let mut corpus = DriftingCorpus::new(CorpusConfig {
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        batch_size: cfg.batch_size,
        ..CorpusConfig::default()
    });
    let batches: Vec<_> = (0..WARMUP + MEASURED).map(|_| corpus.next_batch()).collect();
    let policy = UniformPolicy { experts: cfg.experts, total_slots: cfg.total_slots };
    let mut trainer = Trainer::new(cfg, Box::new(policy));
    for batch in &batches[..WARMUP] {
        trainer.step(batch);
    }
    let mut per_step = Vec::new();
    for batch in &batches[WARMUP..] {
        COUNTING.store(true, Ordering::Relaxed);
        let stats = trainer.step(batch);
        COUNTING.store(false, Ordering::Relaxed);
        drop(stats);
        per_step.push(take_requests());
    }
    println!("per steady step (requests, largest bytes): {per_step:?}");
    for (step, &(requests, largest)) in per_step.iter().enumerate() {
        assert!(
            requests <= MAX_REQUESTS,
            "step {step}: {requests} heap requests (at most {MAX_REQUESTS}): {per_step:?}"
        );
        assert!(largest < LARGE, "step {step}: a {largest}-byte request: {per_step:?}");
    }
    let plain = per_step.iter().filter(|&&(requests, _)| requests == BOOKKEEPING).count();
    assert!(plain * 2 >= MEASURED, "most steps make exactly {BOOKKEEPING} requests: {per_step:?}");
}
