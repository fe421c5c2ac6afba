//! The Layer Metadata Store (§3.2 step 1).
//!
//! After the router's tiny popularity all-reduce, every rank holds the same
//! globally consistent token counts per expert class. The store keeps a
//! bounded history of them per layer — the Expert Placement Scheduler reads
//! the latest entry, and richer policies (EMA, windowed prediction) can read
//! deeper.

use std::collections::VecDeque;

/// Bounded per-layer history of globally consistent popularity counters.
#[derive(Clone, Debug)]
pub struct LayerMetadataStore {
    history: Vec<VecDeque<Vec<u64>>>,
    capacity: usize,
}

impl LayerMetadataStore {
    /// A store for `layers` layers keeping the last `capacity` iterations.
    pub fn new(layers: usize, capacity: usize) -> Self {
        assert!(capacity >= 1, "store must keep at least the latest iteration");
        Self { history: vec![VecDeque::new(); layers], capacity }
    }

    pub fn layers(&self) -> usize {
        self.history.len()
    }

    /// Records this iteration's popularity for `layer`.
    pub fn record(&mut self, layer: usize, popularity: Vec<u64>) {
        let h = &mut self.history[layer];
        if let Some(prev) = h.back() {
            assert_eq!(prev.len(), popularity.len(), "expert count changed mid-training");
        }
        if h.len() == self.capacity {
            h.pop_front();
        }
        h.push_back(popularity);
    }

    /// The most recent popularity for `layer`, if any iteration has run.
    pub fn latest(&self, layer: usize) -> Option<&[u64]> {
        self.history[layer].back().map(Vec::as_slice)
    }

    /// Popularity `k` iterations ago (0 = latest).
    #[cfg(test)]
    pub(crate) fn lookback(&self, layer: usize, k: usize) -> Option<&[u64]> {
        let h = &self.history[layer];
        h.len().checked_sub(1 + k).map(|i| h[i].as_slice())
    }

    /// Iterations recorded for `layer` (≤ capacity).
    pub fn len(&self, layer: usize) -> usize {
        self.history[layer].len()
    }

    pub fn is_empty(&self, layer: usize) -> bool {
        self.history[layer].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latest_and_lookback() {
        let mut s = LayerMetadataStore::new(2, 4);
        s.record(0, vec![1, 2]);
        s.record(0, vec![3, 4]);
        assert_eq!(s.latest(0), Some(&[3, 4][..]));
        assert_eq!(s.lookback(0, 1), Some(&[1, 2][..]));
        assert_eq!(s.lookback(0, 2), None);
        assert!(s.latest(1).is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = LayerMetadataStore::new(1, 2);
        s.record(0, vec![1]);
        s.record(0, vec![2]);
        s.record(0, vec![3]);
        assert_eq!(s.len(0), 2);
        assert_eq!(s.lookback(0, 1), Some(&[2u64][..]));
    }

    #[test]
    #[should_panic(expected = "expert count changed")]
    fn ragged_record_rejected() {
        let mut s = LayerMetadataStore::new(1, 2);
        s.record(0, vec![1, 2]);
        s.record(0, vec![1]);
    }
}
