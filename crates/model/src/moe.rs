//! The MoE layer: routing, capacity enforcement, token dropping, expert
//! execution, and gated combination — with full manual backprop.
//!
//! Capacity semantics follow §3.4 exactly:
//! `capacity(e) = slot_capacity × replicas(e)` where
//! `slot_capacity = capacity_factor × tokens_per_batch / (sN)`. Assignments
//! that arrive (in position order) after their class's capacity is
//! exhausted are **dropped**: the expert contributes nothing for them, so
//! the surrounding residual connection passes the token through unchanged
//! and no expert gradient flows. This is the mechanism that couples
//! replication policy to convergence speed (Figures 7/8).
//!
//! With `top_k > 1` each token fans out to several experts (GShard-style);
//! a token counts as *dropped* only when every one of its assignments
//! overflowed.

use crate::expert::ExpertFfn;
use crate::router::Router;
use std::cell::RefCell;
use symi_tensor::Matrix;

thread_local! {
    /// Dispatch scratch nothing reads once a pass returns — one class's
    /// gathered input rows, its upstream gradient rows, and its input
    /// gradient rows (then the router's `dX`) — shared by a thread's MoE
    /// layers.
    static SCRATCH: RefCell<[Matrix; 3]> =
        RefCell::new(std::array::from_fn(|_| Matrix::zeros(0, 0)));
}

/// Per-iteration statistics from one MoE layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MoeStats {
    /// Assignments the router made per class (pre-drop popularity — what
    /// the Layer Metadata Store records).
    pub popularity: Vec<u64>,
    /// Tokens with at least one surviving assignment.
    pub survived: usize,
    /// Tokens whose every assignment was dropped.
    pub dropped: usize,
    /// Individual expert assignments kept / dropped (equals the token
    /// counts when `top_k = 1`).
    pub assignments_kept: usize,
    pub assignments_dropped: usize,
    /// Assignments kept per class (`assignments_kept` = its sum); the gap
    /// to `popularity` is the class's capacity-drop count.
    pub kept_per_class: Vec<u64>,
    /// Switch auxiliary loss value.
    pub aux_loss: f32,
}

impl MoeStats {
    pub fn survival_rate(&self) -> f64 {
        let total = self.survived + self.dropped;
        if total == 0 {
            1.0
        } else {
            self.survived as f64 / total as f64
        }
    }
}

/// One MoE layer: a router plus `E` expert FFNs (one canonical instance per
/// class — replica count only affects capacity in this functional model;
/// the distributed engine in `symi` materializes physical replicas).
///
/// The dispatch state backward replays (`kept`, per-class expert outputs)
/// lives in persistent buffers and the gather/scatter scratch in a
/// per-thread set, so repeated forward/backward pairs at a fixed batch shape
/// allocate nothing but the two vectors of the [`MoeStats`] they return.
pub struct MoeLayer {
    pub router: Router,
    pub experts: Vec<ExpertFfn>,
    slot_capacity: f32,
    /// Per expert: kept `(assignment, gate)` entries in processing order
    /// (the dispatch cache backprop replays); an assignment is an index
    /// into the router's flat [`Routing::assignment`](crate::router::Routing),
    /// token `assignment / k`.
    kept: Vec<Vec<(usize, f32)>>,
    /// Expert output rows per expert, aligned with `kept`.
    expert_out: Vec<Matrix>,
    cache_valid: bool,
    scratch_caps: Vec<usize>,
    scratch_survived: Vec<bool>,
    scratch_indices: Vec<usize>,
    /// `∂L/∂gate` per assignment, aligned with the routing.
    scratch_dgates: Vec<f32>,
}

impl MoeLayer {
    pub fn new(
        d_model: usize,
        d_ff: usize,
        experts: usize,
        top_k: usize,
        slot_capacity: f32,
        aux_coef: f32,
        seed: u64,
    ) -> Self {
        Self {
            router: Router::new(d_model, experts, top_k, aux_coef, seed),
            experts: (0..experts)
                .map(|e| ExpertFfn::new(d_model, d_ff, seed ^ (0xe0 + e as u64)))
                .collect(),
            slot_capacity,
            kept: (0..experts).map(|_| Vec::new()).collect(),
            expert_out: (0..experts).map(|_| Matrix::zeros(0, 0)).collect(),
            cache_valid: false,
            scratch_caps: Vec::new(),
            scratch_survived: Vec::new(),
            scratch_indices: Vec::new(),
            scratch_dgates: Vec::new(),
        }
    }

    pub fn expert_classes(&self) -> usize {
        self.experts.len()
    }

    /// Per-class token capacity under `replicas`.
    pub fn capacity(&self, replicas: usize) -> usize {
        (self.slot_capacity * replicas as f32).floor() as usize
    }

    /// Forward pass. `replicas[e]` scales class `e`'s capacity.
    pub fn forward(&mut self, x: &Matrix, replicas: &[usize]) -> (Matrix, MoeStats) {
        let mut y = Matrix::zeros(0, 0);
        let stats = self.forward_into(x, replicas, &mut y);
        (y, stats)
    }

    /// [`MoeLayer::forward`] into a reusable output buffer.
    pub(crate) fn forward_into(
        &mut self,
        x: &Matrix,
        replicas: &[usize],
        y: &mut Matrix,
    ) -> MoeStats {
        assert_eq!(replicas.len(), self.experts.len(), "one replica count per class");
        let routing = self.router.forward(x);
        let (t, k) = (x.rows(), routing.k);

        // Capacity enforcement in arrival order, per assignment.
        self.scratch_caps.clear();
        self.scratch_caps
            .extend(replicas.iter().map(|&r| (self.slot_capacity * r as f32).floor() as usize));
        for v in &mut self.kept {
            v.clear();
        }
        self.scratch_survived.clear();
        self.scratch_survived.resize(t, false);
        let mut assignments_dropped = 0usize;
        for (a, &(class, gate)) in routing.assignment.iter().enumerate() {
            if self.kept[class].len() < self.scratch_caps[class] {
                self.kept[class].push((a, gate));
                self.scratch_survived[a / k] = true;
            } else {
                assignments_dropped += 1;
            }
        }
        let assignments_kept: usize = self.kept.iter().map(Vec::len).sum();
        let survived = self.scratch_survived.iter().filter(|&&s| s).count();

        // Run each expert on its surviving tokens; scale by the gate.
        y.resize_to(t, x.cols());
        y.fill_zero();
        SCRATCH.with_borrow_mut(|[xin, ..]| {
            for (class, expert) in self.experts.iter_mut().enumerate() {
                let kept = &self.kept[class];
                if kept.is_empty() {
                    self.expert_out[class].resize_to(0, x.cols());
                    continue;
                }
                self.scratch_indices.clear();
                self.scratch_indices.extend(kept.iter().map(|&(a, _)| a / k));
                x.gather_rows_into(&self.scratch_indices, xin);
                let out = &mut self.expert_out[class];
                expert.forward_into(xin, out);
                for (i, &(a, gate)) in kept.iter().enumerate() {
                    y.axpy_row_from(a / k, gate, out, i);
                }
            }
        });

        self.cache_valid = true;
        MoeStats {
            popularity: routing.popularity.clone(),
            survived,
            dropped: t - survived,
            assignments_kept,
            assignments_dropped,
            kept_per_class: self.kept.iter().map(|v| v.len() as u64).collect(),
            aux_loss: routing.aux_loss,
        }
    }

    /// Backward pass; returns `dX`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(dy, &mut dx);
        dx
    }

    /// [`MoeLayer::backward`] into a reusable `dx` buffer.
    pub(crate) fn backward_into(&mut self, dy: &Matrix, dx: &mut Matrix) {
        assert!(self.cache_valid, "backward before forward");
        self.cache_valid = false;
        let (t, k) = (dy.rows(), self.router.top_k());
        dx.resize_to(t, dy.cols());
        dx.fill_zero();

        // Gate gradients, per assignment: only kept ones are nonzero.
        self.scratch_dgates.clear();
        self.scratch_dgates.resize(t * k, 0.0);
        SCRATCH.with_borrow_mut(|[_, dexp, dxin]| {
            for (class, expert) in self.experts.iter_mut().enumerate() {
                let kept = &self.kept[class];
                if kept.is_empty() {
                    continue;
                }
                // Upstream into the expert: g_t · dy_t.
                dexp.resize_to(kept.len(), dy.cols());
                dexp.fill_zero();
                for (i, &(a, gate)) in kept.iter().enumerate() {
                    let tok = a / k;
                    dexp.axpy_row_from(i, gate, dy, tok);
                    let out_row = self.expert_out[class].row(i);
                    let dgate: f32 = dy.row(tok).iter().zip(out_row).map(|(a, b)| a * b).sum();
                    self.scratch_dgates[a] = dgate;
                }
                expert.backward_into(dexp, Some(dxin));
                for (i, &(a, _)) in kept.iter().enumerate() {
                    dx.axpy_row_from(a / k, 1.0, dxin, i);
                }
            }

            // Router path (gate + aux gradients): dX += dX_router.
            self.router.backward_into(&self.scratch_dgates, dxin);
            dx.axpy(1.0, dxin);
        });
    }

    pub fn zero_grad(&mut self) {
        self.router.zero_grad();
        for e in &mut self.experts {
            e.zero_grad();
        }
    }

    /// Visits dense parameters (the router) — expert parameters are owned
    /// by the expert optimizer machinery.
    pub(crate) fn visit_dense_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &[f32])) {
        self.router.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_tensor::gradcheck::numerical_grad_scalar;

    fn layer(slot_cap: f32) -> MoeLayer {
        MoeLayer::new(6, 10, 3, 1, slot_cap, 0.0, 9)
    }

    fn layer_topk(slot_cap: f32, k: usize) -> MoeLayer {
        MoeLayer::new(6, 10, 3, k, slot_cap, 0.0, 9)
    }

    #[test]
    fn no_drops_with_generous_capacity() {
        let mut l = layer(100.0);
        let x = Matrix::from_fn(12, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin());
        let (_, stats) = l.forward(&x, &[1, 1, 1]);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.survived, 12);
        assert_eq!(stats.popularity.iter().sum::<u64>(), 12);
        assert_eq!(stats.assignments_kept, 12);
    }

    #[test]
    fn capacity_caps_each_class() {
        let mut l = layer(2.0);
        let x = Matrix::from_fn(12, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin());
        let (_, stats) = l.forward(&x, &[1, 1, 1]);
        assert!(stats.assignments_kept <= 6);
        assert_eq!(stats.survived + stats.dropped, 12);
    }

    #[test]
    fn replicas_scale_capacity() {
        let mut l = layer(2.0);
        let x = Matrix::from_fn(12, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin());
        let (_, uniform) = l.forward(&x, &[1, 1, 1]);
        let (_, boosted) = l.forward(&x, &[4, 4, 4]);
        assert!(boosted.survived >= uniform.survived);
        assert_eq!(boosted.dropped, 0, "4 replicas × cap 2 ≥ 12 tokens total");
    }

    #[test]
    fn dropped_tokens_produce_zero_output_and_gradient() {
        let mut l = layer(0.0); // capacity zero: every token drops
        let x = Matrix::from_fn(6, 6, |r, c| ((r + c) as f32 * 0.3).cos());
        let (y, stats) = l.forward(&x, &[1, 1, 1]);
        assert_eq!(stats.survived, 0);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
        let dy = Matrix::from_fn(6, 6, |_, _| 1.0);
        let _ = l.backward(&dy);
        for e in &mut l.experts {
            assert!(e.flat_grads().iter().all(|&g| g == 0.0), "no expert grads on drops");
        }
    }

    #[test]
    fn backward_matches_numeric_loss() {
        // Scalar loss = Σ (y ⊙ dy) with capacity high enough to keep all
        // tokens (so the kept set — non-differentiable — is stable).
        let mut l = layer(100.0);
        let x = Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) as f32 * 0.21).sin());
        let dy = Matrix::from_fn(5, 6, |r, c| ((r + c) as f32 * 0.4).cos());

        let (_, _) = l.forward(&x, &[1, 1, 1]);
        let dx = l.backward(&dy);

        let ndx = numerical_grad_scalar(&x, |xp| {
            let mut probe = layer(100.0);
            let (y, _) = probe.forward(xp, &[1, 1, 1]);
            y.as_slice().iter().zip(dy.as_slice()).map(|(a, b)| a * b).sum()
        });
        assert!(dx.max_abs_diff(&ndx) < 3e-2, "diff {}", dx.max_abs_diff(&ndx));
    }

    #[test]
    fn top2_backward_matches_numeric_loss() {
        let mut l = layer_topk(100.0, 2);
        let x = Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) as f32 * 0.27).sin());
        let dy = Matrix::from_fn(5, 6, |r, c| ((r * 2 + c) as f32 * 0.33).cos());

        let (_, stats) = l.forward(&x, &[1, 1, 1]);
        assert_eq!(stats.popularity.iter().sum::<u64>(), 10, "2 assignments per token");
        let dx = l.backward(&dy);

        let ndx = numerical_grad_scalar(&x, |xp| {
            let mut probe = layer_topk(100.0, 2);
            let (y, _) = probe.forward(xp, &[1, 1, 1]);
            y.as_slice().iter().zip(dy.as_slice()).map(|(a, b)| a * b).sum()
        });
        assert!(dx.max_abs_diff(&ndx) < 3e-2, "diff {}", dx.max_abs_diff(&ndx));
    }

    #[test]
    fn top2_survives_partial_drops() {
        // Capacity 1 per class: most tokens keep at most one of their two
        // assignments; a token is only "dropped" if both overflowed.
        let mut l = layer_topk(1.0, 2);
        let x = Matrix::from_fn(9, 6, |r, c| ((r * 2 + c) as f32 * 0.5).sin());
        let (_, stats) = l.forward(&x, &[1, 1, 1]);
        assert_eq!(stats.assignments_kept + stats.assignments_dropped, 18);
        assert!(stats.assignments_kept <= 3, "one per class");
        assert!(
            stats.survived >= stats.assignments_kept.min(9) / 2,
            "kept assignments imply surviving tokens"
        );
    }

    #[test]
    fn popularity_counts_are_pre_drop() {
        let mut l = layer(0.0);
        let x = Matrix::from_fn(9, 6, |r, c| ((r * 2 + c) as f32 * 0.5).sin());
        let (_, stats) = l.forward(&x, &[1, 1, 1]);
        // Even though everything dropped, popularity reflects assignments.
        assert_eq!(stats.popularity.iter().sum::<u64>(), 9);
    }

    #[test]
    fn drop_order_is_positional() {
        // With capacity 1 per class, the *first* token routed to a class
        // survives and later ones drop.
        let mut l = layer(1.0);
        let x = Matrix::from_fn(8, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin());
        let (y, _) = l.forward(&x, &[1, 1, 1]);
        let cache_kept: Vec<usize> = {
            let mut probe = layer(1.0);
            let routing = probe.router.forward(&x);
            let mut first = vec![None; 3];
            for (t, &(a, _)) in routing.assignment.iter().enumerate() {
                if first[a].is_none() {
                    first[a] = Some(t);
                }
            }
            first.into_iter().flatten().collect()
        };
        for tok in cache_kept {
            assert!(
                y.row(tok).iter().any(|&v| v != 0.0),
                "first-arriving token {tok} must be processed"
            );
        }
    }
}
