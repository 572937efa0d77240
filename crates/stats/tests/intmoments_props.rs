//! Property tests for `IntMoments`: its merge is *exactly* commutative
//! and associative (the reason the simulator's wait summaries are
//! identical however service starts are partitioned over shards or
//! workers), it agrees with the Welford `Moments` it stands in for, and
//! a table of counts folds in as exactly that many pushes.

use proptest::prelude::*;
use pstar_stats::{IntMoments, Moments};

fn int_of(vals: &[u64]) -> IntMoments {
    let mut m = IntMoments::new();
    for &v in vals {
        m.push(v);
    }
    m
}

/// A deterministic `u64` stream of `len` values below `2^bits` (an LCG;
/// generating a million-element `Vec` strategy per case would dominate
/// the test's runtime).
fn stream(seed: u64, len: usize, bits: u32) -> impl Iterator<Item = u64> {
    let mut state = seed | 1;
    (0..len).map(move |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) & ((1u64 << bits) - 1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any grouping and order of three accumulators merges to the same
    /// state, bit for bit — floats of the summary included.
    #[test]
    fn merge_is_exactly_commutative_and_associative(
        xs in prop::collection::vec(0u64..1 << 40, 0..200),
        ys in prop::collection::vec(0u64..1 << 40, 0..200),
        zs in prop::collection::vec(0u64..1 << 40, 0..200),
    ) {
        let (a, b, c) = (int_of(&xs), int_of(&ys), int_of(&zs));
        // (a ⊕ b) ⊕ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (c ⊕ b), the other association and order.
        let mut cb = c;
        cb.merge(&b);
        let mut right = cb;
        right.merge(&a);
        prop_assert_eq!(left, right);
        // ... and both equal one accumulator fed the whole stream.
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(left, int_of(&all));
        let (l, r) = (left.summary(), right.summary());
        prop_assert_eq!(l.mean.to_bits(), r.mean.to_bits());
        prop_assert_eq!(l.variance.to_bits(), r.variance.to_bits());
    }

    /// `add_counts` is exactly `counts[v]` pushes of each value `v` on
    /// top of what the accumulator already held, empty tables included.
    #[test]
    fn add_counts_equals_one_push_per_count(
        before in prop::collection::vec(0u64..1 << 40, 0..50),
        counts in prop::collection::vec(0u64..4, 0..300),
    ) {
        let mut counted = int_of(&before);
        counted.add_counts(&counts);
        let mut pushed = int_of(&before);
        for (v, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                pushed.push(v as u64);
            }
        }
        prop_assert_eq!(counted, pushed);
        let (c, p) = (counted.summary(), pushed.summary());
        prop_assert_eq!(c.mean.to_bits(), p.mean.to_bits());
        prop_assert_eq!(c.variance.to_bits(), p.variance.to_bits());
    }

    /// `count`/`min`/`max` equal `Moments` exactly; mean and variance
    /// agree within 1e-9 relative, over streams of up to 2^20 samples.
    #[test]
    fn agrees_with_welford_moments(
        seed in any::<u64>(),
        len_bits in 0u32..21,
        len_frac in 0.0f64..1.0,
        bits in 1u32..41,
    ) {
        // Lengths spread over every magnitude up to 2^20.
        let len = 1 + (((1u64 << len_bits) - 1) as f64 * len_frac) as usize;
        let mut exact = IntMoments::new();
        let mut welford = Moments::new();
        for v in stream(seed, len, bits) {
            exact.push(v);
            welford.push(v as f64);
        }
        let (e, w) = (exact.summary(), welford.summary());
        prop_assert_eq!(e.count, w.count);
        prop_assert_eq!(e.min, w.min);
        prop_assert_eq!(e.max, w.max);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        prop_assert!(close(e.mean, w.mean), "mean {} vs {}", e.mean, w.mean);
        prop_assert!(
            close(e.variance, w.variance),
            "variance {} vs {}",
            e.variance,
            w.variance
        );
    }
}

#[test]
fn empty_and_single_sample_follow_the_moments_conventions() {
    assert_eq!(IntMoments::new().summary(), Moments::new().summary());
    let mut one = IntMoments::new();
    one.push(7);
    let mut w = Moments::new();
    w.push(7.0);
    assert_eq!(one.summary(), w.summary());
}

#[test]
fn an_empty_or_all_zero_table_adds_nothing() {
    for before in [IntMoments::new(), int_of(&[3, 9])] {
        let mut m = before;
        m.add_counts(&[]);
        assert_eq!(m, before);
        m.add_counts(&[0; 64]);
        assert_eq!(m, before);
    }
}
