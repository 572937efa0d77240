//! Streaming moments: Welford for floats, exact sums for slot counts.

/// Numerically stable streaming accumulator for mean and variance.
///
/// ```
/// use pstar_stats::Moments;
///
/// let mut m = Moments::new();
/// for x in [1.0, 2.0, 3.0] {
///     m.push(x);
/// }
/// assert_eq!(m.mean(), 2.0);
/// assert_eq!(m.variance(), 1.0); // unbiased (n − 1)
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Moments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Moments {
    /// The empty accumulator of [`Moments::new`] (`±inf` extremes, not
    /// the all-zero state a derive would give).
    fn default() -> Self {
        Self::new()
    }
}

impl Moments {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline(always)]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (0 when empty).
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Snapshot of the accumulated statistics.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            variance: self.variance(),
            min: self.min,
            max: self.max,
        }
    }
}

/// Immutable snapshot of a [`Moments`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// 95% normal-approximation confidence half-width for the mean.
    pub fn ci95(&self) -> f64 {
        crate::ci_half_width(self.variance, self.count, 1.96)
    }
}

/// Exact integer moment accumulator for slot-valued observations
/// (waits, delays and recovery times measured in whole slots).
///
/// [`Moments`] carries float state that depends on push order; integer
/// sums commute exactly, so this accumulator is order-free: any
/// partition of a sample stream over any number of accumulators, merged
/// in any order, yields bit-identical summaries. The simulator's serial
/// engine, sharded engine and thread-per-core runtime accumulate every
/// slot-valued statistic through it, which is what makes their
/// summaries equal field for field.
///
/// Exact while `count · max < 2^64` (the variance numerator
/// `n·Σv² − (Σv)²` must fit `u128`) — slot counts are nowhere near it.
///
/// ```
/// use pstar_stats::IntMoments;
///
/// let mut m = IntMoments::new();
/// for v in [1, 2, 3] {
///     m.push(v);
/// }
/// let s = m.summary();
/// assert_eq!((s.mean, s.variance, s.min, s.max), (2.0, 1.0, 1.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntMoments {
    count: u64,
    sum: u128,
    sumsq: u128,
    min: u64,
    max: u64,
}

impl Default for IntMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl IntMoments {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            sumsq: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.count += 1;
        self.sum += v as u128;
        self.sumsq += (v as u128) * (v as u128);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another accumulator into this one (exact, commutative,
    /// associative).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Snapshot with the same conventions as [`Moments::summary`]
    /// (unbiased variance, `±inf` extremes when empty).
    pub fn summary(&self) -> Summary {
        if self.count == 0 {
            return Moments::new().summary();
        }
        let n = self.count as f64;
        let variance = if self.count < 2 {
            0.0
        } else {
            let num = self.count as u128 * self.sumsq - self.sum * self.sum;
            num as f64 / (n * (n - 1.0))
        };
        Summary {
            count: self.count,
            mean: self.sum as f64 / n,
            variance,
            min: self.min as f64,
            max: self.max as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_match_closed_form() {
        let mut m = Moments::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance_population() - 4.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let m = Moments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.count(), 0);
    }

    /// An idle and a defaulted accumulator are the same empty state, of
    /// either kind, and a single sample is its own minimum and maximum.
    #[test]
    fn default_is_the_empty_accumulator() {
        let idle = Moments::new().summary();
        assert_eq!(Moments::default().summary(), idle);
        assert_eq!(IntMoments::default().summary(), idle);
        assert_eq!((idle.min, idle.max), (f64::INFINITY, f64::NEG_INFINITY));
        let mut one = Moments::default();
        one.push(7.0);
        assert_eq!((one.min(), one.max()), (7.0, 7.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Moments::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Moments::new();
        let mut b = Moments::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Moments::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.summary();
        a.merge(&Moments::new());
        assert_eq!(a.summary(), before);

        let mut empty = Moments::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Classic catastrophic-cancellation stress: tiny variance around 1e9.
        let mut m = Moments::new();
        for i in 0..1000 {
            m.push(1e9 + (i % 2) as f64);
        }
        assert!((m.mean() - (1e9 + 0.5)).abs() < 1e-3);
        assert!((m.variance_population() - 0.25).abs() < 1e-6);
    }
}
