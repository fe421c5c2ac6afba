//! The harness's own arithmetic: percentiles, the best-of-R estimator and
//! its spread, and target-crossing detection on a loss curve.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// One metric over the repetitions of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// The most favourable repetition: interference on a shared machine
    /// only ever slows a deterministic program, so the best repetition is
    /// the one least disturbed.
    pub best: f64,
    /// The median repetition, a diagnostic printed beside `best`.
    pub median: f64,
    /// `|median − best| / best`: how far a typical repetition sat from the
    /// best one. Above the metric's bound the run cannot resolve a change
    /// of the size the bound guards against.
    pub rep_spread: f64,
}

pub fn best_of(reps: &[f64], better: Better) -> Estimate {
    assert!(!reps.is_empty(), "estimate of no repetitions");
    let best = match better {
        Better::Lower => reps.iter().copied().fold(f64::INFINITY, f64::min),
        Better::Higher => reps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    let median = median(reps);
    Estimate { best, median, rep_spread: ((median - best) / best).abs() }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Width of the trailing window of the loss means below.
pub const LOSS_WINDOW: usize = 8;

fn window_mean(losses: &[f32], end: usize) -> f64 {
    losses[end - LOSS_WINDOW..end].iter().map(|&l| l as f64).sum::<f64>() / LOSS_WINDOW as f64
}

/// Mean loss over the first `LOSS_WINDOW` steps.
pub fn initial_loss(losses: &[f32]) -> f64 {
    window_mean(losses, LOSS_WINDOW)
}

/// Mean loss over the last `LOSS_WINDOW` steps.
pub fn final_loss(losses: &[f32]) -> f64 {
    window_mean(losses, losses.len())
}

/// Steps taken until the trailing `LOSS_WINDOW`-step mean loss first falls
/// to `rho` × the mean over the first `LOSS_WINDOW` steps; `None` if the
/// curve never gets there.
pub fn steps_to_target(losses: &[f32], rho: f64) -> Option<usize> {
    if losses.len() < LOSS_WINDOW {
        return None;
    }
    let target = rho * initial_loss(losses);
    (LOSS_WINDOW..=losses.len()).find(|&end| window_mean(losses, end) <= target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 98.0), 5.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 98.0), 98.0);
    }

    #[test]
    fn best_of_picks_the_favourable_end() {
        let reps = [10.0, 12.0, 11.0, 10.5, 30.0];
        let low = best_of(&reps, Better::Lower);
        assert_eq!((low.best, low.median), (10.0, 11.0));
        assert!((low.rep_spread - 0.1).abs() < 1e-12);
        let high = best_of(&reps, Better::Higher);
        assert_eq!((high.best, high.median), (30.0, 11.0));
        assert!((high.rep_spread - 19.0 / 30.0).abs() < 1e-12);
        assert_eq!(best_of(&[4.0; 5], Better::Lower).rep_spread, 0.0);
        assert_eq!(worsening(Better::Lower, 10.0, 12.0), 0.2);
        assert_eq!(worsening(Better::Higher, 10.0, 12.0), -0.2);
    }

    #[test]
    fn target_crossing_on_a_synthetic_curve() {
        // 8 steps at 4.0 (the reference window), then a linear descent by
        // 0.125 per step: descent step k has loss 4 − 0.125·k.
        let mut losses = vec![4.0f32; 8];
        losses.extend((1..=24).map(|k| 4.0 - 0.125 * k as f32));
        assert_eq!(initial_loss(&losses), 4.0);
        // rho = 1 is met by the reference window itself.
        assert_eq!(steps_to_target(&losses, 1.0), Some(8));
        // The window ending at step 8+k (k ≥ 8) has mean 4 − 0.125·(k − 3.5);
        // it reaches 2.0 = 0.5 × 4.0 first at k = 19.5 → k = 20.
        assert_eq!(steps_to_target(&losses, 0.5), Some(28));
        // Last window: k = 17..=24, mean 4 − 0.125·20.5 = 0.359 × 4.0.
        assert_eq!(final_loss(&losses), 4.0 - 0.125 * 20.5);
        assert_eq!(steps_to_target(&losses, 0.36), Some(32));
        assert_eq!(steps_to_target(&losses, 0.35), None);
        assert_eq!(steps_to_target(&losses[..7], 0.5), None);
    }
}
