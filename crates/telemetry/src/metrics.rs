//! Lock-free metric primitives and the `MetricRegistry`.
//!
//! The registry lives on the iteration hot path, so the design rule is:
//! name lookup (which takes a mutex) happens once at setup when a handle is
//! cloned out, and every subsequent update is a relaxed atomic op on a
//! pre-resolved `Arc`. Counters and gauges are single `AtomicU64`s;
//! histograms are 64 fixed log₂ buckets so merging across ranks is a
//! straight element-wise add with no allocation or rebinning.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{Obj, Value};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// Last-write-wins f64 gauge stored as raw bits in an `AtomicU64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// Fixed-bucket log₂ histogram over `u64` samples.
///
/// Bucket `i` holds samples whose value `v` satisfies `floor(log2(v)) == i`
/// (bucket 0 additionally holds `v == 0`). With 64 buckets the full `u64`
/// range is covered, so merge never rebins.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Element-wise merge of `other` into `self`; associative and
    /// commutative because buckets are fixed.
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..HISTOGRAM_BUCKETS {
            let v = other.buckets[i].load(Ordering::Relaxed);
            if v != 0 {
                self.buckets[i].fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// Upper edge (exclusive-ish representative) of bucket `i`: 2^(i+1)-1.
    pub(crate) fn bucket_upper(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Approximate quantile from bucket upper edges; q in [0,1].
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HISTOGRAM_BUCKETS - 1)
    }
}

#[derive(Default)]
struct Registered {
    counters: HashMap<String, Arc<Counter>>,
    gauges: HashMap<String, Arc<Gauge>>,
    histograms: HashMap<String, Arc<Histogram>>,
}

/// Named metric registry. `counter`/`gauge`/`histogram` are get-or-create and
/// return cached `Arc` handles; hold the handle across the hot loop rather
/// than re-looking it up per event.
#[derive(Default)]
pub struct MetricRegistry {
    inner: Mutex<Registered>,
}

impl MetricRegistry {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.counters.entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.gauges.entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Snapshot every metric into a JSON object (sorted by name).
    pub fn snapshot(&self) -> Value {
        let g = self.inner.lock().expect("registry poisoned");
        let mut counters: Vec<_> = g.counters.iter().collect();
        counters.sort_by(|a, b| a.0.cmp(b.0));
        let mut gauges: Vec<_> = g.gauges.iter().collect();
        gauges.sort_by(|a, b| a.0.cmp(b.0));
        let mut hists: Vec<_> = g.histograms.iter().collect();
        hists.sort_by(|a, b| a.0.cmp(b.0));

        let mut co = Obj::new();
        for (name, c) in counters {
            co.set(name, Value::u64(c.get()));
        }
        let mut go = Obj::new();
        for (name, gauge) in gauges {
            go.set(name, Value::Num(gauge.get()));
        }
        let mut ho = Obj::new();
        for (name, h) in hists {
            let mut entry = Obj::new();
            entry.set("count", Value::u64(h.count()));
            entry.set("sum", Value::u64(h.sum()));
            entry.set("p50", Value::u64(h.quantile(0.5)));
            entry.set("p99", Value::u64(h.quantile(0.99)));
            ho.set(name, Value::Obj(entry));
        }
        let mut root = Obj::new();
        root.set("counters", Value::Obj(co));
        root.set("gauges", Value::Obj(go));
        root.set("histograms", Value::Obj(ho));
        Value::Obj(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricRegistry::new();
        let c = reg.counter("iters");
        c.add(3);
        c.inc();
        assert_eq!(reg.counter("iters").get(), 4);
        let g = reg.gauge("loss");
        g.set(2.5);
        assert_eq!(reg.gauge("loss").get(), 2.5);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        let h = Histogram::new();
        h.record(5);
        h.record(7);
        h.record(1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 13);
        let b = h.bucket_counts();
        assert_eq!(b[2], 2);
        assert_eq!(b[0], 1);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(10);
        b.record(1000);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1020);
        assert_eq!(a.bucket_counts()[bucket_index(10)], 2);
    }

    #[test]
    fn quantile_is_monotone() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 1024] {
            h.record(v);
        }
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert!(h.quantile(0.99) >= 1024);
    }
}
