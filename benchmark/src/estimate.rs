//! Estimators over a run's per-round samples.
//!
//! The gated value of a timing is the **best** (minimum) round: the
//! work is bit-identical every round and host noise only ever adds
//! time, so the minimum converges on the undisturbed cost while the
//! median follows whatever else the shared host is doing (README, "noise
//! study"). The quartiles ride along in every record so the spread
//! stays visible.

/// Best / quartiles / worst of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub best: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarises `samples` (lower is better). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` — the rule the driver applies to
/// repeated runs — so spreads quoted here and there mean the same thing.
///
/// # Panics
///
/// Panics on an empty sample: a workload that produced no round has
/// nothing to report and must fail before it gets here.
pub fn spread(samples: &[f64]) -> Spread {
    assert!(!samples.is_empty(), "spread of an empty sample");
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let quartile = |i: usize| {
        if n == 1 {
            return xs[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    Spread {
        best: xs[0],
        q1: quartile(1),
        median: quartile(2),
        q3: quartile(3),
        max: xs[n - 1],
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_quantiles_on_hand_made_samples() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let s = spread(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!(
            (s.best, s.q1, s.median, s.q3, s.max),
            (1.0, 2.5, 5.0, 7.5, 9.0)
        );
        assert_eq!(s.n, 9);
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        let s = spread(&[80.0, 10.0, 40.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 30.0, 70.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = spread(&[5.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
    }

    #[test]
    fn best_ignores_one_sided_noise_the_median_follows() {
        // Nine rounds of the same 75 ns/hop work; five are disturbed.
        let quiet = spread(&[75.0, 75.2, 75.1, 75.4, 75.3, 75.0, 75.2, 75.1, 75.3]);
        let noisy = spread(&[75.0, 92.0, 88.0, 75.4, 95.0, 91.0, 75.2, 97.0, 90.0]);
        assert_eq!(noisy.best, quiet.best);
        assert!(noisy.median > quiet.median * 1.15);
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = spread(&[4.2]);
        assert_eq!(
            (s.best, s.q1, s.median, s.q3, s.max, s.n),
            (4.2, 4.2, 4.2, 4.2, 4.2, 1)
        );
    }
}
