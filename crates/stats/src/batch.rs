//! Batch-means confidence intervals for correlated (steady-state
//! simulation) output.
//!
//! Delay observations from a queueing simulation are serially correlated,
//! so the i.i.d. CI `z·σ/√n` underestimates the error. The method of
//! batch means groups the stream into consecutive batches and treats the
//! batch averages as (approximately) independent; with batches well
//! above the correlation time the resulting CI is honest. The experiment
//! harness reports these alongside the naive CIs.
//!
//! A batch here is a *slice of time*, not a run of consecutive
//! observations: the observation window is cut into [`BATCHES`] equal
//! slices and an observation lands in the slice of the slot it is
//! attributed to. Which batch an observation joins then does not depend
//! on the order observations arrive in, so accumulators fed any
//! partition of a stream merge, by element-wise addition, into exactly
//! the accumulator fed the whole stream.

use crate::Moments;

/// Slices the observation window is cut into (batch-means practice is
/// 10 to 30 batches; more, shorter ones start to correlate).
pub const BATCHES: usize = 32;

/// Batch-means accumulator for slot-valued observations over the window
/// `[start, start + span)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMeans {
    start: u64,
    span: u64,
    /// `⌈BATCHES · 2^64 / span⌉`: offset `x` into the window lies in
    /// slice `(x · scale) >> 64` — no division per observation, and
    /// equal to `⌊x · BATCHES / span⌋` for any window below `2^32` slots.
    scale: u128,
    sums: [u64; BATCHES],
    counts: [u64; BATCHES],
}

impl BatchMeans {
    /// An empty accumulator over the window `[start, start + span)`.
    pub fn new(start: u64, span: u64) -> Self {
        let span = span.max(1);
        Self {
            start,
            span,
            scale: ((BATCHES as u128) << 64).div_ceil(span as u128),
            sums: [0; BATCHES],
            counts: [0; BATCHES],
        }
    }

    /// Adds the observation `x`, attributed to slot `at` (slots outside
    /// the window join its first or last slice).
    #[inline]
    pub fn push(&mut self, at: u64, x: u64) {
        let offset = at.saturating_sub(self.start).min(self.span - 1);
        let slice = (((offset as u128 * self.scale) >> 64) as usize).min(BATCHES - 1);
        self.sums[slice] += x;
        self.counts[slice] += 1;
    }

    /// Folds in what another accumulator over the same window saw
    /// (exact, commutative, associative).
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!((self.start, self.span), (other.start, other.span));
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The averages of the non-empty slices, in time order.
    fn batch_stats(&self) -> Moments {
        let mut stats = Moments::new();
        for (&sum, &count) in self.sums.iter().zip(&self.counts) {
            if count > 0 {
                stats.push(sum as f64 / count as f64);
            }
        }
        stats
    }

    /// 95% half-width from the batch means (normal approximation across
    /// batches). Returns `None` with fewer than 2 non-empty batches.
    pub fn ci95(&self) -> Option<f64> {
        let stats = self.batch_stats();
        (stats.count() >= 2).then(|| crate::ci_half_width(stats.variance(), stats.count(), 1.96))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_matches_plain_average_for_full_batches() {
        let mut b = BatchMeans::new(100, 320);
        for at in 100..420 {
            b.push(at, at - 100);
        }
        assert_eq!(b.counts, [10; BATCHES]);
        assert_eq!(b.batch_stats().count(), BATCHES as u64);
        // Mean of 0..320 = 159.5, and every slice holds equally many.
        assert!((b.batch_stats().mean() - 159.5).abs() < 1e-12);
    }

    #[test]
    fn a_window_that_does_not_divide_evenly_still_fills_every_slice() {
        let mut b = BatchMeans::new(7, 1_000);
        for at in 7..1_007 {
            b.push(at, 1);
        }
        assert!(
            b.counts.iter().all(|&c| c == 31 || c == 32),
            "{:?}",
            b.counts
        );
        assert_eq!(b.counts.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn slots_outside_the_window_join_its_edge_slices() {
        let mut b = BatchMeans::new(50, 64);
        b.push(0, 3);
        b.push(1_000_000, 5);
        assert_eq!((b.counts[0], b.counts[BATCHES - 1]), (1, 1));
        // A window shorter than the slice count leaves slices empty.
        let mut tiny = BatchMeans::new(0, 4);
        for at in 0..4 {
            tiny.push(at, at);
        }
        assert_eq!(tiny.batch_stats().count(), 4);
    }

    #[test]
    fn merge_equals_the_whole_stream_whatever_the_order() {
        let obs: Vec<(u64, u64)> = (0..500u64).map(|i| ((i * 37) % 400, i % 23)).collect();
        let mut whole = BatchMeans::new(0, 400);
        let mut parts = [BatchMeans::new(0, 400), BatchMeans::new(0, 400)];
        for (i, &(at, x)) in obs.iter().enumerate() {
            whole.push(at, x);
            parts[i % 2].push(at, x);
        }
        let [a, mut b] = parts;
        b.merge(&a);
        assert_eq!(b, whole);
        assert_eq!(b.ci95().map(f64::to_bits), whole.ci95().map(f64::to_bits));
    }

    #[test]
    fn iid_ci_matches_naive_ci_up_to_batching() {
        // For i.i.d. data, batch-means CI ≈ naive CI.
        let mut state = 1u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 54
        };
        let mut b = BatchMeans::new(0, 50_000);
        let mut m = Moments::new();
        for at in 0..50_000 {
            let x = next();
            b.push(at, x);
            m.push(x as f64);
        }
        let naive = crate::ci_half_width(m.variance(), m.count(), 1.96);
        let batched = b.ci95().unwrap();
        assert!(
            (batched / naive - 1.0).abs() < 0.4,
            "batched {batched} vs naive {naive}"
        );
    }

    #[test]
    fn correlated_stream_widens_ci() {
        // A slowly varying level under the noise: the batch-means CI
        // must be substantially wider than the naive i.i.d. CI.
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 58
        };
        let mut b = BatchMeans::new(0, 100_000);
        let mut m = Moments::new();
        for at in 0..100_000u64 {
            let x = 100 * ((at / 5_000) % 3) + next();
            b.push(at, x);
            m.push(x as f64);
        }
        let naive = crate::ci_half_width(m.variance(), m.count(), 1.96);
        let batched = b.ci95().unwrap();
        assert!(
            batched > 2.0 * naive,
            "correlation should widen CI: batched {batched} vs naive {naive}"
        );
    }

    #[test]
    fn too_few_batches_yield_none() {
        let mut b = BatchMeans::new(0, 3_200);
        for _ in 0..150 {
            b.push(10, 1);
        }
        assert_eq!(b.batch_stats().count(), 1);
        assert!(b.ci95().is_none());
    }
}
