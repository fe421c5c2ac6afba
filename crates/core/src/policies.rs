//! Extended placement policies (§6: "the dynamic replication policy in
//! SYMI is flexible — the expert scheduler may incorporate prediction,
//! historical statistics, or even disregard popularity").
//!
//! All of these produce replica counts through the same Algorithm 1
//! machinery; they differ only in the popularity *estimate* they feed it:
//!
//! - [`SymiPolicy`] (in `scheduler`):
//!   previous iteration, the paper's choice;
//! - `EmaPolicy`: exponential moving average — smoother, trades lag for
//!   noise rejection;
//! - `WindowMaxPolicy`: per-class peak over a trailing window —
//!   conservative over-provisioning for spiky experts;
//! - [`evaluate_policy_on_trace`]: an offline evaluator that drives these
//!   live policies over a recorded popularity trace (plus the static and
//!   same-iteration-oracle bounds) and scores token survival — the
//!   policy-ablation harness, and the two estimators' only caller until
//!   one of them earns a training run.

use crate::scheduler::{compute_placement, SymiPolicy};
use std::collections::HashMap;
use symi_model::PlacementPolicy;
use symi_workload::PopularityTrace;

/// Clamps a caller-supplied EMA weight into `[0, 1]`. Non-finite weights
/// degrade to `1.0` (prev-iteration behaviour) instead of poisoning the
/// accumulators: `EmaPolicy.alpha` is a public field, and the trace
/// evaluator's percent-encoded alpha can exceed 100, so the constructor
/// assert alone cannot keep hostile weights out of the arithmetic.
fn sanitized_alpha(alpha: f64) -> f64 {
    if alpha.is_finite() {
        alpha.clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// f64 EMA accumulator → u64 popularity: NaN and negatives clamp to zero,
/// overflow saturates. (`as u64` already saturates in Rust, but routing
/// every conversion through one place keeps the clamping policy auditable.)
fn popularity_from_ema(e: f64) -> u64 {
    if e.is_nan() {
        0
    } else {
        e.round().clamp(0.0, u64::MAX as f64) as u64
    }
}

/// EMA update with a self-healing accumulator: a non-finite result (alpha
/// abuse, astronomically large counts) resets to the direct observation
/// rather than sticking at NaN/±inf for the rest of the run.
fn ema_step(state: f64, alpha: f64, p: u64) -> f64 {
    let next = alpha * p as f64 + (1.0 - alpha) * state;
    if next.is_finite() {
        next
    } else {
        p as f64
    }
}

/// EMA-smoothed popularity estimate.
pub(crate) struct EmaPolicy {
    pub total_slots: usize,
    /// Weight of the newest observation (1.0 degenerates to SymiPolicy).
    pub alpha: f64,
    state: HashMap<usize, Vec<f64>>,
}

impl EmaPolicy {
    pub fn new(total_slots: usize, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be a weight");
        Self { total_slots, alpha, state: HashMap::new() }
    }
}

impl PlacementPolicy for EmaPolicy {
    fn name(&self) -> &'static str {
        "symi-ema"
    }

    fn next_replicas(&mut self, layer: usize, popularity: &[u64], _iter: u64) -> Vec<usize> {
        let ema = self
            .state
            .entry(layer)
            .or_insert_with(|| popularity.iter().map(|&p| p as f64).collect());
        assert_eq!(ema.len(), popularity.len(), "expert count changed");
        let alpha = sanitized_alpha(self.alpha);
        for (e, &p) in ema.iter_mut().zip(popularity) {
            *e = ema_step(*e, alpha, p);
        }
        let rounded: Vec<u64> = ema.iter().map(|&e| popularity_from_ema(e)).collect();
        compute_placement(&rounded, self.total_slots)
    }

    fn on_world_shrink(&mut self, total_slots: usize) {
        self.total_slots = total_slots;
    }
}

/// Peak-demand estimate over a trailing window.
pub(crate) struct WindowMaxPolicy {
    pub total_slots: usize,
    pub window: usize,
    history: HashMap<usize, Vec<Vec<u64>>>,
}

impl WindowMaxPolicy {
    pub fn new(total_slots: usize, window: usize) -> Self {
        assert!(window >= 1, "window must be at least one iteration");
        Self { total_slots, window, history: HashMap::new() }
    }
}

impl PlacementPolicy for WindowMaxPolicy {
    fn name(&self) -> &'static str {
        "symi-windowmax"
    }

    fn next_replicas(&mut self, layer: usize, popularity: &[u64], _iter: u64) -> Vec<usize> {
        let h = self.history.entry(layer).or_default();
        h.push(popularity.to_vec());
        if h.len() > self.window {
            h.remove(0);
        }
        let peak: Vec<u64> =
            (0..popularity.len()).map(|e| h.iter().map(|row| row[e]).max().unwrap_or(0)).collect();
        compute_placement(&peak, self.total_slots)
    }

    fn on_world_shrink(&mut self, total_slots: usize) {
        self.total_slots = total_slots;
    }
}

/// Token survival if class `e` is provisioned `replicas[e]` slots of
/// capacity `slot_capacity` against demand `popularity[e]`.
pub(crate) fn survival_for_replicas(
    popularity: &[u64],
    replicas: &[usize],
    slot_capacity: f64,
) -> f64 {
    assert_eq!(popularity.len(), replicas.len(), "shape mismatch");
    // Saturating for the same reason as `compute_placement`: astronomically
    // large counts must flatten the ratio, not abort the evaluator.
    let total: u64 = popularity.iter().fold(0u64, |acc, &p| acc.saturating_add(p));
    if total == 0 {
        return 1.0;
    }
    let survived: f64 = popularity
        .iter()
        .zip(replicas)
        .map(|(&p, &r)| (p as f64).min(slot_capacity * r as f64))
        .sum();
    survived / total as f64
}

/// Offline policy evaluation modes for [`evaluate_policy_on_trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePolicy {
    /// Uniform static replication.
    Static,
    /// Previous-iteration popularity (the paper's SYMI policy).
    PrevIteration,
    /// EMA with the given alpha (in percent to stay `Eq`-friendly).
    EmaPercent(u8),
    /// Trailing-window max.
    WindowMax(usize),
    /// Same-iteration popularity — the unattainable upper bound (the
    /// placement a system would pick if it could reshuffle *after*
    /// routing, §3.4).
    Oracle,
}

impl TracePolicy {
    pub fn label(&self) -> String {
        match self {
            TracePolicy::Static => "static-uniform".into(),
            TracePolicy::PrevIteration => "prev-iteration (SYMI)".into(),
            TracePolicy::EmaPercent(a) => format!("ema-{:.2}", *a as f64 / 100.0),
            TracePolicy::WindowMax(w) => format!("window-max-{w}"),
            TracePolicy::Oracle => "oracle (same iteration)".into(),
        }
    }
}

/// Replays `trace` under `policy` and returns the mean token survival at
/// the given geometry. Iteration 0 always runs uniform (no history yet);
/// the causal policies are the live [`PlacementPolicy`] objects, fed
/// iteration `t − 1`'s popularity to place iteration `t`.
pub fn evaluate_policy_on_trace(
    trace: &PopularityTrace,
    policy: TracePolicy,
    total_slots: usize,
    slot_capacity: f64,
) -> f64 {
    let e = trace.expert_classes();
    assert!(e > 0, "empty trace");
    let uniform = vec![total_slots / e; e];
    let mut live: Option<Box<dyn PlacementPolicy>> = match policy {
        TracePolicy::Static | TracePolicy::Oracle => None,
        TracePolicy::PrevIteration => Some(Box::new(SymiPolicy { total_slots })),
        TracePolicy::EmaPercent(a) => {
            Some(Box::new(EmaPolicy::new(total_slots, sanitized_alpha(a as f64 / 100.0))))
        }
        TracePolicy::WindowMax(w) => Some(Box::new(WindowMaxPolicy::new(total_slots, w))),
    };
    let mut survival_sum = 0.0;
    for (t, popularity) in trace.iterations.iter().enumerate() {
        let replicas = match &mut live {
            Some(live) if t > 0 => live.next_replicas(0, &trace.iterations[t - 1], t as u64 - 1),
            None if policy == TracePolicy::Oracle => compute_placement(popularity, total_slots),
            _ => uniform.clone(),
        };
        survival_sum += survival_for_replicas(popularity, &replicas, slot_capacity);
    }
    survival_sum / trace.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use symi_workload::SyntheticTraceConfig;

    fn trace() -> PopularityTrace {
        SyntheticTraceConfig {
            expert_classes: 8,
            iterations: 120,
            tokens_per_iteration: 4096,
            zipf: 1.2,
            drift_sigma: 0.2,
            jolt_prob: 0.05,
            seed: 11,
        }
        .generate()
    }

    const SLOTS: usize = 32;
    const CAP: f64 = 4096.0 / SLOTS as f64;

    #[test]
    fn oracle_dominates_everything() {
        let t = trace();
        let oracle = evaluate_policy_on_trace(&t, TracePolicy::Oracle, SLOTS, CAP);
        for policy in [
            TracePolicy::Static,
            TracePolicy::PrevIteration,
            TracePolicy::EmaPercent(50),
            TracePolicy::WindowMax(5),
        ] {
            let s = evaluate_policy_on_trace(&t, policy, SLOTS, CAP);
            assert!(
                oracle >= s - 1e-9,
                "{} ({s:.4}) must not beat the oracle ({oracle:.4})",
                policy.label()
            );
        }
    }

    #[test]
    fn prev_iteration_beats_static_on_skewed_traces() {
        let t = trace();
        let stat = evaluate_policy_on_trace(&t, TracePolicy::Static, SLOTS, CAP);
        let prev = evaluate_policy_on_trace(&t, TracePolicy::PrevIteration, SLOTS, CAP);
        assert!(prev > stat + 0.02, "prev {prev:.4} vs static {stat:.4}");
    }

    #[test]
    fn prev_iteration_is_near_oracle() {
        // §3.4's claim: the previous iteration is a reliable proxy.
        let t = trace();
        let prev = evaluate_policy_on_trace(&t, TracePolicy::PrevIteration, SLOTS, CAP);
        let oracle = evaluate_policy_on_trace(&t, TracePolicy::Oracle, SLOTS, CAP);
        assert!(oracle - prev < 0.08, "gap to oracle too large: {:.4}", oracle - prev);
    }

    #[test]
    fn ema_with_alpha_one_equals_prev_iteration() {
        let t = trace();
        let prev = evaluate_policy_on_trace(&t, TracePolicy::PrevIteration, SLOTS, CAP);
        let ema = evaluate_policy_on_trace(&t, TracePolicy::EmaPercent(100), SLOTS, CAP);
        assert!((prev - ema).abs() < 1e-9);
    }

    #[test]
    fn live_policies_fill_slots_and_respect_floor() {
        use symi_model::PlacementPolicy;
        let t = trace();
        let mut ema = EmaPolicy::new(SLOTS, 0.4);
        let mut wmax = WindowMaxPolicy::new(SLOTS, 4);
        for (i, popularity) in t.iterations.iter().enumerate().take(20) {
            for r in [
                ema.next_replicas(0, popularity, i as u64),
                wmax.next_replicas(0, popularity, i as u64),
            ] {
                assert_eq!(r.iter().sum::<usize>(), SLOTS);
                assert!(r.iter().all(|&c| c >= 1));
            }
        }
    }

    #[test]
    fn window_max_overprovisions_spiky_experts() {
        // A class that spikes every 3rd iteration: window-max keeps its
        // replicas high between spikes, prev-iteration drops them.
        let mut t = PopularityTrace::new();
        for i in 0..30 {
            let hot = if i % 3 == 0 { 3000u64 } else { 100 };
            t.push(vec![hot, 500, 500, 500]);
        }
        let prev = evaluate_policy_on_trace(&t, TracePolicy::PrevIteration, 16, 4600.0 / 16.0);
        let wmax = evaluate_policy_on_trace(&t, TracePolicy::WindowMax(3), 16, 4600.0 / 16.0);
        assert!(wmax > prev, "window-max {wmax:.4} should beat prev {prev:.4} on spikes");
    }

    #[test]
    fn adversarial_alphas_and_popularity_never_panic() {
        use symi_model::PlacementPolicy;
        use symi_tensor::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xeea);
        // `alpha` is a public field, so the constructor's range assert is
        // advisory at best: hostile weights must clamp, not poison.
        let evil = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 2.55, 1e300, -0.0, 1.0];
        for &alpha in &evil {
            let mut p = EmaPolicy::new(8, 0.5);
            p.alpha = alpha;
            for iter in 0..16u64 {
                let pop: Vec<u64> = (0..4)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => u64::MAX,
                        2 => u64::MAX / 2,
                        _ => rng.gen_range(0..1_000_000u64),
                    })
                    .collect();
                let r = p.next_replicas(0, &pop, iter);
                assert_eq!(r.iter().sum::<usize>(), 8, "alpha={alpha}");
                assert!(r.iter().all(|&c| c >= 1), "alpha={alpha}");
            }
        }
        // The trace evaluator's percent-encoded alpha reaches 2.55, which
        // used to diverge the accumulator; with extreme counts in the trace
        // the result must stay a finite survival fraction for every alpha.
        let mut t = PopularityTrace::new();
        for i in 0..24 {
            t.push(vec![if i % 2 == 0 { u64::MAX } else { 0 }, 1, u64::MAX / 3, 7]);
        }
        for a in [0u8, 1, 100, 200, 255] {
            let s = evaluate_policy_on_trace(&t, TracePolicy::EmaPercent(a), 8, 100.0);
            assert!(s.is_finite() && (0.0..=1.0).contains(&s), "alpha%={a} survival={s}");
        }
    }

    #[test]
    fn survival_for_replicas_edges() {
        assert_eq!(survival_for_replicas(&[0, 0], &[1, 1], 10.0), 1.0);
        assert_eq!(survival_for_replicas(&[10, 10], &[1, 1], 10.0), 1.0);
        assert_eq!(survival_for_replicas(&[20, 0], &[1, 1], 10.0), 0.5);
    }
}
