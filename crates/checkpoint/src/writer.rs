//! Double-buffered asynchronous checkpoint writer.
//!
//! The training thread pays only for the in-memory snapshot copy; this
//! writer does serialization, `fsync`, and the atomic rename on a
//! background thread. The channel is bounded at one in-flight job — the
//! double buffer: one checkpoint being written while the next is being
//! produced. If the writer is still busy when the next cadence point
//! arrives, `AsyncCheckpointWriter::try_submit` refuses and the caller
//! skips that checkpoint (counted, never blocking the step).
//!
//! Dropping the writer flushes and joins, so every accepted job is durable
//! on disk before the owner finishes tearing down — including during panic
//! unwind, which is what makes checkpoints from a rank that subsequently
//! crashed trustworthy.

use std::path::PathBuf;
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::store::write_atomic;

type EncodeFn = Box<dyn FnOnce() -> Vec<u8> + Send>;
type AfterFn = Box<dyn FnOnce() + Send>;

struct Job {
    path: PathBuf,
    encode: EncodeFn,
    /// Runs after a successful write — retention pruning lives here, also
    /// off the training thread.
    after: Option<AfterFn>,
}

/// Cumulative counters, readable at any time via
/// [`AsyncCheckpointWriter::stats`].
#[derive(Clone, Debug, Default)]
pub struct WriterStats {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub bytes_written: u64,
    /// Background wall-clock spent encoding + writing + fsyncing.
    pub write_ns: u64,
    pub last_error: Option<String>,
}

impl WriterStats {
    fn settled(&self) -> bool {
        self.completed + self.failed >= self.submitted
    }
}

struct Shared {
    stats: Mutex<WriterStats>,
    done: Condvar,
    worker_dead: Mutex<bool>,
}

/// Sets `worker_dead` even if the worker loop panics, so a flush waiting on
/// a job the worker will never finish wakes up instead of hanging.
struct WorkerGuard(Arc<Shared>);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        *self.0.worker_dead.lock().expect("writer poisoned") = true;
        self.0.done.notify_all();
    }
}

pub struct AsyncCheckpointWriter {
    tx: Option<SyncSender<Job>>,
    handle: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl AsyncCheckpointWriter {
    pub fn new() -> Self {
        let (tx, rx) = mpsc::sync_channel::<Job>(1);
        let shared = Arc::new(Shared {
            stats: Mutex::new(WriterStats::default()),
            done: Condvar::new(),
            worker_dead: Mutex::new(false),
        });
        let worker_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("symi-ckpt-writer".into())
            .spawn(move || {
                let _guard = WorkerGuard(worker_shared.clone());
                for job in rx {
                    let t0 = Instant::now();
                    let bytes = (job.encode)();
                    let result = write_atomic(&job.path, &bytes);
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    {
                        let mut stats = worker_shared.stats.lock().expect("writer poisoned");
                        match result {
                            Ok(()) => {
                                stats.completed += 1;
                                stats.bytes_written += bytes.len() as u64;
                            }
                            Err(e) => {
                                stats.failed += 1;
                                stats.last_error = Some(e.to_string());
                            }
                        }
                        stats.write_ns += elapsed;
                    }
                    if let Some(after) = job.after {
                        after();
                    }
                    worker_shared.done.notify_all();
                }
            })
            .expect("spawn checkpoint writer thread");
        Self { tx: Some(tx), handle: Some(handle), shared }
    }

    /// Hands `encode` to the background thread for serialization + durable
    /// write to `path`. Returns `false` (and does nothing) if the previous
    /// checkpoint is still being written — the caller counts a skip.
    pub(crate) fn try_submit(
        &self,
        path: PathBuf,
        encode: EncodeFn,
        after: Option<AfterFn>,
    ) -> bool {
        let Some(tx) = &self.tx else { return false };
        // Count the submission before sending: the worker may finish the
        // job before we would otherwise get the lock, and `settled` must
        // never observe completed > submitted.
        {
            let mut stats = self.shared.stats.lock().expect("writer poisoned");
            stats.submitted += 1;
        }
        match tx.try_send(Job { path, encode, after }) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                let mut stats = self.shared.stats.lock().expect("writer poisoned");
                stats.submitted -= 1;
                false
            }
        }
    }

    /// Blocks until every accepted job has been written (or failed).
    pub fn flush(&self) {
        let mut stats = self.shared.stats.lock().expect("writer poisoned");
        while !stats.settled() {
            if *self.shared.worker_dead.lock().expect("writer poisoned") {
                return; // worker died; pending jobs will never settle
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(stats, std::time::Duration::from_millis(50))
                .expect("writer poisoned");
            stats = guard;
        }
    }

    pub fn stats(&self) -> WriterStats {
        self.shared.stats.lock().expect("writer poisoned").clone()
    }
}

impl Default for AsyncCheckpointWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncCheckpointWriter {
    fn drop(&mut self) {
        self.flush();
        drop(self.tx.take()); // closes the channel; worker loop exits
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("symi_ckpt_writer_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn accepted_jobs_are_durable_after_flush() {
        let dir = temp_dir("durable");
        let writer = AsyncCheckpointWriter::new();
        let path = dir.join("a.bin");
        assert!(writer.try_submit(path.clone(), Box::new(|| vec![1, 2, 3]), None));
        writer.flush();
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 2, 3]);
        let stats = writer.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.bytes_written, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes_pending_work() {
        let dir = temp_dir("drop");
        let path = dir.join("b.bin");
        {
            let writer = AsyncCheckpointWriter::new();
            assert!(writer.try_submit(path.clone(), Box::new(|| vec![9; 128]), None));
        }
        assert_eq!(std::fs::read(&path).unwrap().len(), 128);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn busy_writer_refuses_rather_than_blocks() {
        let dir = temp_dir("busy");
        let writer = AsyncCheckpointWriter::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate_w = gate.clone();
        // First job blocks in encode until released.
        assert!(writer.try_submit(
            dir.join("slow.bin"),
            Box::new(move || {
                let (lock, cv) = &*gate_w;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                vec![0]
            }),
            None,
        ));
        // Fill the 1-deep buffer, then the next submit must refuse.
        let second = writer.try_submit(dir.join("q.bin"), Box::new(|| vec![1]), None);
        let mut refused = false;
        for _ in 0..3 {
            if !writer.try_submit(dir.join("r.bin"), Box::new(|| vec![2]), None) {
                refused = true;
                break;
            }
        }
        assert!(refused || !second, "a stuffed writer must refuse new work");
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        writer.flush();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn after_hook_runs_post_write() {
        let dir = temp_dir("after");
        let writer = AsyncCheckpointWriter::new();
        let flag = Arc::new(Mutex::new(false));
        let flag_w = flag.clone();
        assert!(writer.try_submit(
            dir.join("c.bin"),
            Box::new(|| vec![7]),
            Some(Box::new(move || *flag_w.lock().unwrap() = true)),
        ));
        writer.flush();
        // flush waits for counter settle which happens before `after`; join
        // via drop to be deterministic.
        drop(writer);
        assert!(*flag.lock().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
