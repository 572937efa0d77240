//! Property tests for the linear `Histogram`: recording is one bucket
//! increment (or an exact push past the cap), and everything it reports
//! — count, mean, moments, quantiles and their saturation flag — equals
//! what a per-value reference gives, on both sides of the cap.

use proptest::prelude::*;
use pstar_stats::{Histogram, IntMoments};

/// The `q`-quantile of `sorted` the way the histogram defines it: the
/// value of rank `⌈q·n⌉` (at least 1), a value at or above `cap`
/// standing as `cap` and flagged saturated.
fn reference_quantile(sorted: &[u64], cap: u64, q: f64) -> (u64, bool) {
    if sorted.is_empty() {
        return (0, false);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    let v = sorted[rank - 1];
    if v >= cap {
        (cap, true)
    } else {
        (v, false)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn derived_statistics_equal_a_per_value_reference(
        cap in 1u64..48,
        vals in prop::collection::vec(0u64..96, 0..200),
        big in prop::collection::vec(0u64..1 << 40, 0..4),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new(cap as usize);
        let mut pushed = IntMoments::new();
        let mut sorted: Vec<u64> = vals.iter().chain(&big).copied().collect();
        for &v in &sorted {
            h.record(v);
            pushed.push(v);
        }
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        prop_assert_eq!(h.count(), n);
        prop_assert_eq!(h.moments(), pushed);
        prop_assert_eq!(h.mean().to_bits(), pushed.summary().mean.to_bits());
        let over = sorted.iter().filter(|&&v| v >= cap).count() as u64;
        prop_assert_eq!(h.overflow_count(), over);
        for q in [q, 0.0, 0.5, 0.95, 0.99, 1.0] {
            let want = reference_quantile(&sorted, cap, q);
            prop_assert_eq!(h.quantile_checked(q), want);
            prop_assert_eq!(h.quantile(q), want.0);
        }
    }

    /// Splitting the stream over two histograms and merging gives the
    /// histogram of the whole stream.
    #[test]
    fn merge_equals_recording_the_whole_stream(
        cap in 1usize..32,
        xs in prop::collection::vec(0u64..64, 0..100),
        ys in prop::collection::vec(0u64..64, 0..100),
    ) {
        let hist_of = |vals: &[u64]| {
            let mut h = Histogram::new(cap);
            for &v in vals {
                h.record(v);
            }
            h
        };
        let mut merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let all: Vec<u64> = xs.iter().chain(&ys).copied().collect();
        let whole = hist_of(&all);
        prop_assert_eq!(merged.moments(), whole.moments());
        prop_assert_eq!(merged.overflow_count(), whole.overflow_count());
        for v in 0..cap as u64 {
            prop_assert_eq!(merged.bucket(v), whole.bucket(v));
        }
    }
}

#[test]
fn an_empty_histogram_reports_zeros() {
    let h = Histogram::new(8);
    assert_eq!((h.count(), h.overflow_count()), (0, 0));
    assert_eq!(h.mean(), 0.0);
    assert_eq!(h.quantile_checked(0.5), (0, false));
    assert_eq!(h.moments(), IntMoments::new());
}
