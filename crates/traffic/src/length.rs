//! Packet-length distributions (service slots per link transmission).
//!
//! The paper's analysis assumes unit lengths but explicitly notes the
//! scheme "can be applied, without modifications, to general cases where
//! packets may have different lengths"; the variable-length ablation
//! (EXPERIMENTS.md, A3) exercises these distributions.

use rand::Rng;

/// A distribution over packet lengths, in whole slots ≥ 1.
pub trait LengthDistribution {
    /// Samples one packet length.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u16;

    /// Mean length `E[S]`.
    fn mean(&self) -> f64;

    /// Second moment `E[S²]` (drives the residual-service term `W0` of the
    /// HOL priority formulas).
    fn second_moment(&self) -> f64;
}

/// All packets have the same fixed length (the paper's default, length 1).
#[derive(Debug, Clone, Copy)]
pub struct DeterministicLength(pub u16);

impl DeterministicLength {
    /// Creates the fixed length `len ≥ 1`.
    pub fn new(len: u16) -> Self {
        assert!(len >= 1, "fixed packet length must be >= 1");
        Self(len)
    }
}

impl LengthDistribution for DeterministicLength {
    #[inline(always)]
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> u16 {
        self.0
    }

    fn mean(&self) -> f64 {
        self.0 as f64
    }

    fn second_moment(&self) -> f64 {
        (self.0 as f64).powi(2)
    }
}

/// Geometric length on `{1, 2, …}` with the given mean: each additional
/// slot occurs with probability `1 − 1/mean`.
#[derive(Debug, Clone, Copy)]
pub struct GeometricLength {
    continue_p: f64,
    mean: f64,
}

impl GeometricLength {
    /// Creates a geometric distribution with mean ≥ 1.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean >= 1.0, "geometric mean length must be >= 1");
        Self {
            continue_p: 1.0 - 1.0 / mean,
            mean,
        }
    }
}

impl LengthDistribution for GeometricLength {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        let mut len = 1u16;
        while len < u16::MAX && rng.gen::<f64>() < self.continue_p {
            len += 1;
        }
        len
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn second_moment(&self) -> f64 {
        // For X ~ Geom(p) on {1,2,…} with success prob p = 1/mean:
        // E[X²] = (2 − p) / p².
        let p = 1.0 / self.mean;
        (2.0 - p) / (p * p)
    }
}

/// Uniform integer length on `[min, max]`.
#[derive(Debug, Clone, Copy)]
pub struct UniformLength {
    min: u16,
    max: u16,
}

impl UniformLength {
    /// Creates a uniform distribution; `1 ≤ min ≤ max`.
    pub fn new(min: u16, max: u16) -> Self {
        assert!(min >= 1 && min <= max, "invalid length range");
        Self { min, max }
    }
}

impl LengthDistribution for UniformLength {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        rng.gen_range(self.min..=self.max)
    }

    fn mean(&self) -> f64 {
        (self.min as f64 + self.max as f64) / 2.0
    }

    fn second_moment(&self) -> f64 {
        // E[X²] over the integers min..=max.
        let (a, b) = (self.min as f64, self.max as f64);
        let n = b - a + 1.0;
        // Σ k² from a to b = (b(b+1)(2b+1) − (a−1)a(2a−1)) / 6.
        let sum_sq = (b * (b + 1.0) * (2.0 * b + 1.0) - (a - 1.0) * a * (2.0 * a - 1.0)) / 6.0;
        sum_sq / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical<L: LengthDistribution>(l: &L, n: usize) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..n).map(|_| l.sample(&mut rng) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let m2 = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
        (mean, m2)
    }

    #[test]
    fn deterministic_is_constant() {
        let l = DeterministicLength(3);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(l.sample(&mut rng), 3);
        }
        assert_eq!(l.mean(), 3.0);
        assert_eq!(l.second_moment(), 9.0);
    }

    /// A fixed length of zero is refused like a geometric mean or a
    /// uniform minimum below one — a zero mean length would divide the
    /// arrival rates into infinity.
    #[test]
    #[should_panic(expected = "fixed packet length must be >= 1")]
    fn fixed_length_zero_is_rejected() {
        crate::WorkloadSpec::Fixed(0).mean();
    }

    #[test]
    fn geometric_moments_converge() {
        let l = GeometricLength::with_mean(2.5);
        let (mean, m2) = empirical(&l, 300_000);
        assert!((mean - 2.5).abs() < 0.03, "mean {mean}");
        assert!((m2 - l.second_moment()).abs() < 0.2, "m2 {m2}");
    }

    #[test]
    fn geometric_mean_one_is_always_one() {
        let l = GeometricLength::with_mean(1.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(l.sample(&mut rng), 1);
        }
    }

    #[test]
    fn uniform_moments_converge() {
        let l = UniformLength::new(1, 5);
        let (mean, m2) = empirical(&l, 200_000);
        assert!((mean - 3.0).abs() < 0.02);
        // E[X²] = (1+4+9+16+25)/5 = 11.
        assert!((l.second_moment() - 11.0).abs() < 1e-12);
        assert!((m2 - 11.0).abs() < 0.1);
    }

    #[test]
    fn lengths_are_at_least_one() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = GeometricLength::with_mean(4.0);
        let u = UniformLength::new(2, 7);
        for _ in 0..1000 {
            assert!(g.sample(&mut rng) >= 1);
            assert!(u.sample(&mut rng) >= 2);
        }
    }
}
