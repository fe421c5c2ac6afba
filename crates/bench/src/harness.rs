//! Minimal wall-clock micro-benchmark harness.
//!
//! The workspace is dependency-free, so instead of criterion the bench
//! binaries share this ~80-line timer: calibrate a batch size against a
//! per-sample time budget, take several samples, report mean and min
//! ns/iter. The `[[bench]]` targets keep `harness = false` and call
//! [`bench()`] from a plain `main`.

use std::time::Instant;

/// Result of one measured benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub name: String,
    /// Mean ns per iteration across samples.
    pub mean_ns: f64,
    /// Fastest sample's ns per iteration (least-noise estimate).
    pub min_ns: f64,
    /// Iterations per sample after calibration.
    pub batch: u64,
    pub samples: u64,
}

impl BenchResult {
    pub fn print(&self) {
        println!(
            "{:<44} {:>14}/iter   (min {:>12}, {} x {} iters)",
            self.name,
            fmt_ns(self.mean_ns),
            fmt_ns(self.min_ns),
            self.samples,
            self.batch,
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Per-sample time budget: long enough to dominate timer resolution, short
/// enough that a full bench binary finishes in seconds.
const SAMPLE_BUDGET_NS: u64 = 20_000_000;
const SAMPLES: u64 = 5;

/// Measures `f`, prints a criterion-style line, and returns the numbers.
/// One warmup call doubles as batch calibration.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once_ns = (t0.elapsed().as_nanos() as u64).max(1);
    let batch = (SAMPLE_BUDGET_NS / once_ns).clamp(1, 1 << 20);

    let mut mean_ns = 0.0f64;
    let mut min_ns = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let per_iter = t.elapsed().as_nanos() as f64 / batch as f64;
        mean_ns += per_iter / SAMPLES as f64;
        min_ns = min_ns.min(per_iter);
    }
    let result = BenchResult { name: name.to_string(), mean_ns, min_ns, batch, samples: SAMPLES };
    result.print();
    result
}

/// Section header so multi-group bench binaries read like criterion output.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let r = bench("noop_sum", || (0..100u64).sum::<u64>());
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns * 1.0001);
        assert!(r.batch >= 1);
    }
}
