//! The learned top-k router (gate network).
//!
//! The paper's evaluation uses Top-1 (Switch-style) routing; modern MoEs
//! (GShard, Mixtral) route each token to its top-k experts. This router
//! supports any `k ≥ 1`: each token receives `k` `(class, gate)`
//! assignments, where the gate is the class's raw softmax probability (so
//! `k = 1` reproduces Switch semantics exactly, gradients included). They
//! are chosen by one insertion selection per token into a flat `t·k`
//! vector the router keeps — no sort, no per-token vector — with ties to
//! the lower class and NaN last, as a stable sort would rank them.
//!
//! The popularity counters this router produces are exactly what SYMI's
//! Layer Metadata Store aggregates (§3.4); with `k > 1` each token
//! contributes `k` assignment counts.

use symi_tensor::ops::{softmax_rows_backward_into, softmax_rows_into};
use symi_tensor::rng::StdRng;
use symi_tensor::{init, Matrix};

/// Routing decision for one forward pass.
#[derive(Clone, Debug)]
pub struct Routing {
    /// Every token's top-k `(class, gate)` pairs, flat: token `t`'s picks,
    /// best first, are `assignment[t·k .. (t+1)·k]`. An index into this
    /// vector names one assignment.
    pub assignment: Vec<(usize, f32)>,
    /// Picks per token.
    pub k: usize,
    /// Assignments per class — the popularity counters.
    pub popularity: Vec<u64>,
    /// Switch auxiliary load-balancing loss (already scaled by the coef),
    /// computed over top-1 fractions.
    pub aux_loss: f32,
}

impl Routing {
    /// The primary (top-1) class of every token.
    #[cfg(test)]
    pub(crate) fn top1(&self) -> Vec<usize> {
        self.assignment.iter().step_by(self.k).map(|a| a.0).collect()
    }
}

/// Whether probability `a` ranks before `b` in the routing order:
/// descending, NaN after every number, equal values neither way.
fn ranks_before(a: f32, b: f32) -> bool {
    !a.is_nan() && (b.is_nan() || a > b)
}

/// Writes the top `picks.len()` classes of `row` into `picks`, best first:
/// a stable insertion selection in class order, so ties keep the lower
/// class first and NaN ranks last — exactly the first `k` entries of a
/// stable sort by [`ranks_before`]. A class that cannot beat the last pick
/// of a full list is passed over at once.
fn select_top_k(row: &[f32], picks: &mut [(usize, f32)]) {
    let k = picks.len();
    let mut len = 0;
    for (class, &p) in row.iter().enumerate() {
        if len == k {
            if !ranks_before(p, picks[k - 1].1) {
                continue;
            }
            len -= 1; // the last pick falls off
        }
        let mut at = len;
        while at > 0 && ranks_before(p, picks[at - 1].1) {
            picks[at] = picks[at - 1];
            at -= 1;
        }
        picks[at] = (class, p);
        len += 1;
    }
}

/// Linear router: logits = `x · Wr`.
///
/// The routing it returns is its own persistent buffer, refilled by every
/// forward pass and read back by backward.
pub struct Router {
    pub w: Matrix,
    pub w_grad: Matrix,
    aux_coef: f32,
    top_k: usize,
    cached_x: Matrix,
    cached_probs: Matrix,
    routing: Routing,
    scratch_logits: Matrix,
    scratch_dprobs: Matrix,
    scratch_dlogits: Matrix,
    scratch_f: Vec<f32>,
    /// Cumulative NaN probabilities observed across forward passes (the
    /// `router.nan_logits` telemetry gauge). A NaN never panics the top-k
    /// selection — NaN ranks last — but it flags numeric trouble upstream.
    nan_logits: u64,
}

impl Router {
    pub fn new(d_model: usize, experts: usize, top_k: usize, aux_coef: f32, seed: u64) -> Self {
        assert!(top_k >= 1 && top_k <= experts, "top_k must be in [1, experts]");
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            w: init::normal(d_model, experts, 0.02, &mut rng),
            w_grad: Matrix::zeros(d_model, experts),
            aux_coef,
            top_k,
            cached_x: Matrix::zeros(0, 0),
            cached_probs: Matrix::zeros(0, 0),
            routing: Routing {
                assignment: Vec::new(),
                k: top_k,
                popularity: vec![0; experts],
                aux_loss: 0.0,
            },
            scratch_logits: Matrix::zeros(0, 0),
            scratch_dprobs: Matrix::zeros(0, 0),
            scratch_dlogits: Matrix::zeros(0, 0),
            scratch_f: Vec::new(),
            nan_logits: 0,
        }
    }

    pub fn experts(&self) -> usize {
        self.w.cols()
    }

    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Cumulative NaN probabilities observed across forward passes — the
    /// value the trainer exports as the `router.nan_logits` gauge. Nonzero
    /// means inf/NaN logits reached the router and were routed around.
    pub fn nan_logits(&self) -> u64 {
        self.nan_logits
    }

    /// Routes every token (row of `x`) to its top-k experts.
    pub fn forward(&mut self, x: &Matrix) -> &Routing {
        x.matmul_into(&self.w, &mut self.scratch_logits);
        softmax_rows_into(&self.scratch_logits, &mut self.cached_probs);
        let e = self.experts();
        let t = x.rows();
        let k = self.top_k;

        let routing = &mut self.routing;
        routing.assignment.resize(t * k, (0, 0.0));
        routing.popularity.fill(0);
        for (r, picks) in routing.assignment.chunks_exact_mut(k).enumerate() {
            let row = self.cached_probs.row(r);
            // A NaN probability (softmax of an inf/NaN logit) must not
            // panic routing — it ranks after every finite entry and is
            // tallied for the `router.nan_logits` gauge instead.
            self.nan_logits += row.iter().filter(|p| p.is_nan()).count() as u64;
            select_top_k(row, picks);
            for &(c, _) in picks.iter() {
                routing.popularity[c] += 1;
            }
        }

        // Switch aux loss over top-1 fractions: coef · E · Σ_e f_e · P_e.
        let tf = t as f32;
        let mut aux = 0.0f32;
        top1_fractions(routing, &mut self.scratch_f, e);
        for class in 0..e {
            let p_e: f32 = (0..t).map(|r| self.cached_probs[(r, class)]).sum::<f32>() / tf;
            aux += self.scratch_f[class] * p_e;
        }
        routing.aux_loss = aux * (self.aux_coef * e as f32);

        self.cached_x.copy_from(x);
        &self.routing
    }

    /// Backward pass. `dgates[a]` is `∂L/∂gate` of assignment `a` of the
    /// last forward's [`Routing::assignment`] (zero for a dropped one); the
    /// auxiliary-loss gradient (with `f_e` constant, as in Switch) is added
    /// internally. Returns `dX`.
    pub fn backward(&mut self, dgates: &[f32]) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(dgates, &mut dx);
        dx
    }

    /// [`Router::backward`] into a reusable `dx` buffer.
    pub fn backward_into(&mut self, dgates: &[f32], dx: &mut Matrix) {
        let t = self.cached_x.rows();
        let k = self.top_k;
        assert_eq!(dgates.len(), t * k, "one gate gradient per assignment");
        let e = self.experts();
        let tf = t as f32;

        top1_fractions(&self.routing, &mut self.scratch_f, e);

        self.scratch_dprobs.resize_to(t, e);
        self.scratch_dprobs.fill_zero();
        let assignment = &self.routing.assignment;
        for (r, (picks, dgates)) in
            assignment.chunks_exact(k).zip(dgates.chunks_exact(k)).enumerate()
        {
            for (&(c, _), &dg) in picks.iter().zip(dgates) {
                self.scratch_dprobs[(r, c)] += dg;
            }
            for c in 0..e {
                self.scratch_dprobs[(r, c)] += self.aux_coef * e as f32 * self.scratch_f[c] / tf;
            }
        }
        softmax_rows_backward_into(
            &self.cached_probs,
            &self.scratch_dprobs,
            &mut self.scratch_dlogits,
        );
        self.cached_x.matmul_tn_acc(&self.scratch_dlogits, &mut self.w_grad);
        self.scratch_dlogits.matmul_nt_into(&self.w, dx);
    }

    pub(crate) fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &[f32])) {
        f(&mut self.w, self.w_grad.as_slice());
    }

    pub fn zero_grad(&mut self) {
        self.w_grad.fill_zero();
    }
}

/// `f[e]` = fraction of tokens whose top pick is class `e`, accumulated in
/// token order.
fn top1_fractions(routing: &Routing, f: &mut Vec<f32>, experts: usize) {
    let tf = (routing.assignment.len() / routing.k) as f32;
    f.clear();
    f.resize(experts, 0.0);
    for &(a, _) in routing.assignment.iter().step_by(routing.k) {
        f[a] += 1.0 / tf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_tensor::gradcheck::numerical_grad_scalar;
    use symi_tensor::ops::softmax_rows;

    #[test]
    fn top1_assignment_is_argmax_and_popularity_sums() {
        let mut r = Router::new(4, 3, 1, 0.0, 1);
        let x = Matrix::from_fn(10, 4, |i, c| ((i * 4 + c) as f32 * 0.37).sin());
        let routing = r.forward(&x).clone();
        assert_eq!(routing.assignment.len(), 10);
        assert_eq!(routing.popularity.iter().sum::<u64>(), 10);
        for (t, picks) in routing.assignment.chunks(1).enumerate() {
            assert_eq!(picks.len(), 1);
            let probs = r.cached_probs.row(t);
            let best =
                probs.iter().enumerate().max_by(|x, y| x.1.partial_cmp(y.1).unwrap()).unwrap().0;
            assert_eq!(picks[0].0, best);
            assert!((picks[0].1 - probs[best]).abs() < 1e-7);
        }
    }

    #[test]
    fn top2_selects_two_distinct_descending_classes() {
        let mut r = Router::new(4, 5, 2, 0.0, 3);
        let x = Matrix::from_fn(12, 4, |i, c| ((i + 2 * c) as f32 * 0.41).cos());
        let routing = r.forward(&x);
        assert_eq!(routing.popularity.iter().sum::<u64>(), 24, "two counts per token");
        for picks in routing.assignment.chunks(2) {
            assert_eq!(picks.len(), 2);
            assert_ne!(picks[0].0, picks[1].0);
            assert!(picks[0].1 >= picks[1].1, "gates ordered descending");
        }
    }

    #[test]
    fn gate_gradient_matches_numeric_top1() {
        let mut r = Router::new(4, 3, 1, 0.0, 2);
        let x = Matrix::from_fn(6, 4, |i, c| ((i + c) as f32 * 0.23).cos());
        let assignment = r.forward(&x).top1();
        let dx = r.backward(&[1.0; 6]);

        let w = r.w.clone();
        let ndx = numerical_grad_scalar(&x, |xp| {
            let probs = softmax_rows(&xp.matmul(&w));
            (0..6).map(|t| probs[(t, assignment[t])]).sum()
        });
        assert!(dx.max_abs_diff(&ndx) < 1e-2, "diff {}", dx.max_abs_diff(&ndx));
    }

    #[test]
    fn gate_gradient_matches_numeric_top2() {
        let mut r = Router::new(4, 4, 2, 0.0, 5);
        let x = Matrix::from_fn(5, 4, |i, c| ((2 * i + c) as f32 * 0.31).sin());
        let picks: Vec<Vec<usize>> = r
            .forward(&x)
            .assignment
            .chunks(2)
            .map(|p| p.iter().map(|&(c, _)| c).collect())
            .collect();
        // Loss = sum of both gates per token.
        let dx = r.backward(&[1.0; 10]);

        let w = r.w.clone();
        let ndx = numerical_grad_scalar(&x, |xp| {
            let probs = softmax_rows(&xp.matmul(&w));
            (0..5).map(|t| picks[t].iter().map(|&c| probs[(t, c)]).sum::<f32>()).sum()
        });
        assert!(dx.max_abs_diff(&ndx) < 1e-2, "diff {}", dx.max_abs_diff(&ndx));
    }

    #[test]
    fn aux_loss_gradient_matches_numeric() {
        let coef = 0.5f32;
        let mut r = Router::new(4, 3, 1, coef, 3);
        let x = Matrix::from_fn(8, 4, |i, c| ((i * 2 + c) as f32 * 0.19).sin());
        let assignment = r.forward(&x).top1();
        let _ = r.backward(&[0.0; 8]); // only aux gradient
        let dw = r.w_grad.clone();

        let ndw = numerical_grad_scalar(&r.w.clone(), |wp| {
            let probs = softmax_rows(&x.matmul(wp));
            let e = 3usize;
            let tf = 8.0f32;
            let mut f = vec![0.0f32; e];
            for &a in &assignment {
                f[a] += 1.0 / tf;
            }
            let mut aux = 0.0f32;
            for c in 0..e {
                let p_c: f32 = (0..8).map(|t| probs[(t, c)]).sum::<f32>() / tf;
                aux += f[c] * p_c;
            }
            aux * coef * e as f32
        });
        assert!(dw.max_abs_diff(&ndw) < 1e-2, "diff {}", dw.max_abs_diff(&ndw));
    }

    #[test]
    fn aux_loss_sits_near_one_for_near_uniform_routing() {
        let mut r = Router::new(8, 4, 1, 1.0, 4);
        let x = Matrix::from_fn(64, 8, |i, c| ((i * 8 + c) as f32 * 0.61).sin());
        let routing = r.forward(&x);
        assert!(
            (0.8..=4.0).contains(&routing.aux_loss),
            "aux {:.4} out of plausible range",
            routing.aux_loss
        );
    }

    #[test]
    #[should_panic(expected = "top_k must be in")]
    fn oversized_k_rejected() {
        let _ = Router::new(4, 3, 4, 0.0, 1);
    }

    #[test]
    fn nan_probs_route_to_a_finite_class_without_panicking() {
        // A NaN feature makes the whole row's softmax NaN; a partially
        // huge feature can make *some* probs NaN. The sort used to panic
        // on `partial_cmp(..).expect("finite probs")` — now NaN orders
        // last, the token routes to the best finite class when one exists,
        // and the counter reports what it saw.
        let mut r = Router::new(4, 3, 2, 0.0, 7);
        let mut x = Matrix::from_fn(5, 4, |i, c| ((i * 4 + c) as f32 * 0.37).sin());
        x[(1, 2)] = f32::NAN; // row 1: every prob NaN
        let routing = r.forward(&x).clone();
        assert_eq!(routing.assignment.len(), 10);
        assert_eq!(routing.popularity.iter().sum::<u64>(), 10, "two counts per token");
        assert_eq!(r.nan_logits(), 3, "row 1 contributes one NaN per class");
        // Finite rows are untouched by the NaN-aware ranking.
        for (t, picks) in routing.assignment.chunks(2).enumerate() {
            if t != 1 {
                assert!(picks.iter().all(|&(_, g)| g.is_finite()), "token {t} gates finite");
                assert!(picks[0].1 >= picks[1].1, "gates ordered descending");
            }
        }

        // An inf logit also poisons its whole softmax row (the NaN row sum
        // propagates) — still no panic, deterministic pick, counted.
        let mut r2 = Router::new(2, 3, 1, 0.0, 9);
        r2.w[(0, 0)] = f32::INFINITY;
        let x2 = Matrix::from_fn(1, 2, |_, _| 1.0);
        assert_eq!(r2.forward(&x2).assignment.len(), 1, "the token still routes");
        assert_eq!(r2.nan_logits(), 3, "the inf logit must surface in the counter");
    }

    /// The selection it replaced: a stable NaN-last descending sort of the
    /// class indices, cut at `k`.
    fn sorted_top_k(row: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut order: Vec<usize> = (0..row.len()).collect();
        order.sort_by(|&a, &b| match (row[a].is_nan(), row[b].is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => row[b].partial_cmp(&row[a]).expect("both finite"),
        });
        order[..k].iter().map(|&c| (c, row[c])).collect()
    }

    #[test]
    fn insertion_selection_equals_the_stable_sort_with_ties_and_nan() {
        use symi_tensor::rng::{Rng, StdRng};
        // Few distinct values, so most rows tie; NaN and both zeros mixed in.
        const VALUES: [f32; 7] = [0.1, 0.25, 0.25, 0.5, 0.0, -0.0, f32::NAN];
        let mut rng = StdRng::seed_from_u64(31);
        let bits =
            |p: &[(usize, f32)]| p.iter().map(|&(c, g)| (c, g.to_bits())).collect::<Vec<_>>();
        for _ in 0..2000 {
            let e = rng.gen_range(1..10usize);
            let row: Vec<f32> = (0..e).map(|_| VALUES[rng.gen_range(0..VALUES.len())]).collect();
            for k in 1..=e {
                let mut picks = vec![(usize::MAX, 0.0f32); k];
                select_top_k(&row, &mut picks);
                assert_eq!(bits(&picks), bits(&sorted_top_k(&row, k)), "row {row:?} k {k}");
            }
        }
    }
}
