//! Workload specifications combining arrival rates and length laws.

use crate::{
    ArrivalProcess, BernoulliArrivals, DeterministicLength, GeometricLength, LengthDistribution,
    PoissonArrivals, UniformLength,
};
use rand::Rng;

/// Per-node arrival configuration of a heterogeneous workload (§4):
/// broadcast and unicast tasks arrive independently at every node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficMix {
    /// Broadcast source packets per node per slot (`λ_B`), averaged over
    /// nodes (the source distribution may redistribute it spatially).
    pub lambda_broadcast: f64,
    /// Unicast source packets per node per slot (`λ_R`), averaged over
    /// nodes.
    pub lambda_unicast: f64,
    /// Use Bernoulli instead of Poisson arrivals (ablation).
    pub bernoulli: bool,
    /// Where tasks originate (uniform in the paper's model).
    pub sources: crate::SourceDistribution,
}

impl TrafficMix {
    /// Poisson broadcast-only mix.
    pub fn broadcast_only(lambda_broadcast: f64) -> Self {
        Self {
            lambda_broadcast,
            lambda_unicast: 0.0,
            bernoulli: false,
            sources: crate::SourceDistribution::Uniform,
        }
    }

    /// Poisson unicast-only mix.
    pub fn unicast_only(lambda_unicast: f64) -> Self {
        Self {
            lambda_broadcast: 0.0,
            lambda_unicast,
            bernoulli: false,
            sources: crate::SourceDistribution::Uniform,
        }
    }

    /// Poisson mix with both traffic types.
    pub fn mixed(lambda_broadcast: f64, lambda_unicast: f64) -> Self {
        Self {
            lambda_broadcast,
            lambda_unicast,
            bernoulli: false,
            sources: crate::SourceDistribution::Uniform,
        }
    }
}

/// Packet-length law, as plain data (serializable into experiment records).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// Fixed length (the paper's default is `Fixed(1)`).
    Fixed(u16),
    /// Geometric on `{1, 2, …}` with the given mean.
    Geometric(f64),
    /// Uniform integer on `[min, max]`.
    Uniform(u16, u16),
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::Fixed(1)
    }
}

impl WorkloadSpec {
    /// Samples one packet length.
    #[inline]
    pub fn sample_length<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        match *self {
            WorkloadSpec::Fixed(l) => DeterministicLength::new(l).sample(rng),
            WorkloadSpec::Geometric(mean) => GeometricLength::with_mean(mean).sample(rng),
            WorkloadSpec::Uniform(a, b) => UniformLength::new(a, b).sample(rng),
        }
    }

    /// Mean length.
    pub fn mean(&self) -> f64 {
        match *self {
            WorkloadSpec::Fixed(l) => DeterministicLength::new(l).mean(),
            WorkloadSpec::Geometric(mean) => GeometricLength::with_mean(mean).mean(),
            WorkloadSpec::Uniform(a, b) => UniformLength::new(a, b).mean(),
        }
    }

    /// Second moment of the length.
    pub fn second_moment(&self) -> f64 {
        match *self {
            WorkloadSpec::Fixed(l) => DeterministicLength::new(l).second_moment(),
            WorkloadSpec::Geometric(mean) => GeometricLength::with_mean(mean).second_moment(),
            WorkloadSpec::Uniform(a, b) => UniformLength::new(a, b).second_moment(),
        }
    }
}

/// Samples the number of arrivals in one slot for a rate, honoring the
/// mix's arrival-process choice.
#[inline]
pub(crate) fn sample_arrivals<R: Rng + ?Sized>(rng: &mut R, lambda: f64, bernoulli: bool) -> u32 {
    if lambda <= 0.0 {
        0
    } else if bernoulli {
        BernoulliArrivals::new(lambda).sample(rng)
    } else {
        PoissonArrivals::new(lambda).sample(rng)
    }
}

impl TrafficMix {
    /// Samples (broadcast, unicast) arrival counts for one node-slot.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (u32, u32) {
        (
            sample_arrivals(rng, self.lambda_broadcast, self.bernoulli),
            sample_arrivals(rng, self.lambda_unicast, self.bernoulli),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn broadcast_only_mix_never_generates_unicast() {
        let mix = TrafficMix::broadcast_only(0.2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let (_, u) = mix.sample(&mut rng);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn mixed_rates_converge() {
        let mix = TrafficMix::mixed(0.05, 0.2);
        let mut rng = StdRng::seed_from_u64(2);
        let (mut sb, mut su) = (0u64, 0u64);
        let trials = 200_000;
        for _ in 0..trials {
            let (b, u) = mix.sample(&mut rng);
            sb += b as u64;
            su += u as u64;
        }
        assert!((sb as f64 / trials as f64 - 0.05).abs() < 0.005);
        assert!((su as f64 / trials as f64 - 0.2).abs() < 0.01);
    }

    #[test]
    fn default_spec_is_unit_length() {
        let spec = WorkloadSpec::default();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(spec.sample_length(&mut rng), 1);
        assert_eq!(spec.mean(), 1.0);
        assert_eq!(spec.second_moment(), 1.0);
    }

    #[test]
    fn spec_moments_match_underlying_distributions() {
        assert_eq!(WorkloadSpec::Fixed(4).mean(), 4.0);
        assert!((WorkloadSpec::Geometric(3.0).mean() - 3.0).abs() < 1e-12);
        assert_eq!(WorkloadSpec::Uniform(1, 3).mean(), 2.0);
    }

    #[test]
    fn bernoulli_mix_caps_arrivals_at_one() {
        let mix = TrafficMix {
            lambda_broadcast: 0.9,
            lambda_unicast: 0.9,
            bernoulli: true,
            sources: crate::SourceDistribution::Uniform,
        };
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..2000 {
            let (b, u) = mix.sample(&mut rng);
            assert!(b <= 1 && u <= 1);
        }
    }
}
