//! Integer-valued histogram with an exact overflow tail.

use crate::IntMoments;

/// Histogram over non-negative integer observations (e.g. slot-valued
/// delays). Values below the configured cap are counted in their own
/// bucket; values at or above it go to an exact [`IntMoments`] tail, so
/// count, mean and moments stay exact while quantile queries treat them
/// as `cap`.
///
/// Recording is one bucket increment: count, sum and moments are derived
/// from the buckets when asked for, which is what lets the simulator
/// keep one per-reception counter instead of three.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: IntMoments,
}

impl Histogram {
    /// Histogram tracking values `0..cap` exactly.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "histogram cap must be positive");
        Self {
            buckets: vec![0; cap],
            overflow: IntMoments::new(),
        }
    }

    /// Records one observation.
    #[inline(always)]
    pub fn record(&mut self, value: u64) {
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow.push(value),
        }
    }

    /// Exact moments of every observation, overflowed ones included:
    /// what pushing each into one [`IntMoments`] would have given.
    pub fn moments(&self) -> IntMoments {
        let mut m = self.overflow;
        m.add_counts(&self.buckets);
        m
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow.count()
    }

    /// Number of observations that exceeded the cap.
    pub fn overflow_count(&self) -> u64 {
        self.overflow.count()
    }

    /// Fraction of observations that exceeded the cap (0 when empty).
    ///
    /// Any quantile `q` with `q > 1 - overflow_fraction()` is saturated:
    /// the true value lies somewhere above the cap and
    /// [`Histogram::quantile`] can only clamp it. Check this before
    /// trusting a tail percentile from the linear histogram.
    pub fn overflow_fraction(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            count => self.overflow_count() as f64 / count as f64,
        }
    }

    /// Exact mean of all observations (including overflowed ones).
    pub fn mean(&self) -> f64 {
        self.moments().summary().mean
    }

    /// `q`-quantile (0 ≤ q ≤ 1) by bucket walk; overflowed values count as
    /// the cap. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_checked(q).0
    }

    /// Like [`Histogram::quantile`], but flags saturation: the second
    /// component is `true` when the requested rank fell into the
    /// overflow bucket, i.e. the returned value is the cap standing in
    /// for an unknown larger observation.
    pub fn quantile_checked(&self, q: f64) -> (u64, bool) {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let count = self.count();
        if count == 0 {
            return (0, false);
        }
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (value, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (value as u64, false);
            }
        }
        (self.buckets.len() as u64, true)
    }

    /// Count in an exact bucket (`None` past the cap).
    pub fn bucket(&self, value: u64) -> Option<u64> {
        self.buckets.get(value as usize).copied()
    }

    /// Merges another histogram with the same cap.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "cap mismatch");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow.merge(&other.overflow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new(16);
        for v in [1u64, 2, 3, 4, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_still_counts_toward_mean() {
        let mut h = Histogram::new(4);
        h.record(2);
        h.record(100);
        assert_eq!(h.overflow_count(), 1);
        assert!((h.mean() - 51.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let mut h = Histogram::new(32);
        for v in 0..10u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 9);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let h = Histogram::new(4);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn saturated_quantiles_are_flagged() {
        // 10 observations, 3 above the cap: everything past q = 0.7 is
        // saturated and must say so instead of silently reporting `cap`.
        let mut h = Histogram::new(8);
        for v in [0u64, 1, 2, 3, 4, 5, 6, 20, 30, 40] {
            h.record(v);
        }
        assert!((h.overflow_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(h.quantile_checked(0.5), (4, false));
        assert_eq!(h.quantile_checked(0.7), (6, false));
        let (v, saturated) = h.quantile_checked(0.99);
        assert_eq!(v, 8);
        assert!(saturated, "p99 inside overflow must be flagged");
        // The legacy API still clamps (pinned for compatibility).
        assert_eq!(h.quantile(0.99), 8);
    }

    #[test]
    fn overflow_fraction_of_empty_is_zero() {
        assert_eq!(Histogram::new(4).overflow_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(8);
        let mut b = Histogram::new(8);
        a.record(1);
        b.record(3);
        b.record(9); // overflow
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket(1), Some(1));
        assert_eq!(a.bucket(3), Some(1));
        assert_eq!(a.overflow_count(), 1);
    }
}
