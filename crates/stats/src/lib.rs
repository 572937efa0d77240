//! # pstar-stats
//!
//! Streaming statistics for the simulator: numerically stable moment
//! accumulators (Welford; exact integer sums for slot-valued data),
//! integer histograms for delay distributions,
//! time-weighted averages (for queue lengths and concurrent-task counts à
//! la Little's law), and normal-approximation confidence intervals.
//!
//! Everything is allocation-free on the hot path and `f64`-exact enough for
//! simulation horizons of `~10^9` samples.

#![warn(missing_docs)]

mod batch;
mod histogram;
mod loghist;
mod moments;
mod mser;
mod timeavg;

pub use batch::{BatchMeans, BATCHES};
pub use histogram::Histogram;
pub use loghist::{LogHistogram, DEFAULT_SUB_BITS};
pub use moments::{IntMoments, Moments, Summary};
pub use mser::{mser_truncation, mser_truncation_batched};
pub use timeavg::TimeWeighted;

/// Two-sided normal-approximation confidence half-width for the mean of
/// `count` i.i.d. samples with the given sample variance.
///
/// `z` is the standard-normal quantile (e.g. 1.96 for 95%). Returns 0 for
/// fewer than two samples.
pub fn ci_half_width(variance: f64, count: u64, z: f64) -> f64 {
    if count < 2 {
        return 0.0;
    }
    z * (variance / count as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_shrinks_with_samples() {
        let a = ci_half_width(4.0, 100, 1.96);
        let b = ci_half_width(4.0, 10_000, 1.96);
        assert!(a > b);
        assert!((a - 1.96 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn ci_zero_for_tiny_counts() {
        assert_eq!(ci_half_width(4.0, 0, 1.96), 0.0);
        assert_eq!(ci_half_width(4.0, 1, 1.96), 0.0);
    }
}
