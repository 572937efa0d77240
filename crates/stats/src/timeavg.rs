//! Time-weighted averages of piecewise-constant processes.
//!
//! Used for the Fig. 8 concurrent-task counts
//! (`E[#tasks in system] = λ_N · E[delay]` by Little's law, which the
//! integration tests verify against this accumulator).

/// Accumulates the time integral of a piecewise-constant integer process
/// over the window `[start, end)`, yielding its time average.
///
/// A level change of `delta` stamped `at` adds `delta · (end − at)` to
/// the integral, with `at` clamped into the window — a sum of integers,
/// so changes may be recorded in any order (a completion may be learnt
/// of after later events), split over any number of accumulators and
/// merged in any order, and the average comes out bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWeighted {
    start: u64,
    end: u64,
    /// `Σ delta` over the changes stamped before `end`.
    level: i64,
    /// `Σ delta · max(at, start)` over the same changes.
    moment: i128,
}

impl TimeWeighted {
    /// An accumulator at level 0 observing the window `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        Self {
            start,
            end,
            level: 0,
            moment: 0,
        }
    }

    /// Records that the level changed by `delta` at time `at`. Changes at
    /// or after the window's end do not touch the average.
    #[inline]
    pub fn add(&mut self, at: u64, delta: i64) {
        if at < self.end {
            self.level += delta;
            self.moment += delta as i128 * at.max(self.start) as i128;
        }
    }

    /// Folds in the changes another accumulator of the same window saw
    /// (exact, commutative, associative).
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!((self.start, self.end), (other.start, other.end));
        self.level += other.level;
        self.moment += other.moment;
    }

    /// Time average over the window, cut short at `now` when the
    /// observation ended before the window did (every recorded change
    /// must then be stamped before `now`). 0 for an empty window.
    pub fn average(&self, now: u64) -> f64 {
        let until = now.min(self.end);
        let span = until.saturating_sub(self.start);
        if span == 0 {
            return 0.0;
        }
        (self.level as i128 * until as i128 - self.moment) as f64 / span as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_process_average_is_level() {
        let mut tw = TimeWeighted::new(0, 10);
        tw.add(0, 3);
        assert_eq!(tw.average(10), 3.0);
    }

    #[test]
    fn step_process_average() {
        let mut tw = TimeWeighted::new(0, 10);
        tw.add(5, 2); // level 0 on [0,5), 2 on [5,10)
        assert_eq!(tw.average(10), 1.0);
    }

    #[test]
    fn add_tracks_queue_like_process() {
        let mut tw = TimeWeighted::new(0, 8);
        tw.add(1, 1); // 0 for [0,1)
        tw.add(3, 1); // 1 for [1,3)
        tw.add(4, -2); // 2 for [3,4), 0 after: integral 0 + 2 + 2 = 4
        assert_eq!(tw.average(8), 0.5);
    }

    /// What happened before the window only sets its starting level,
    /// and changes from its end on leave it alone.
    #[test]
    fn reset_window_discards_history() {
        let mut tw = TimeWeighted::new(100, 200);
        tw.add(0, 10);
        tw.add(40, -7);
        assert_eq!(tw.average(200), 3.0);
        tw.add(200, 50);
        assert_eq!(tw.average(250), 3.0);
    }

    #[test]
    fn an_observation_cut_short_averages_what_it_saw() {
        let mut tw = TimeWeighted::new(10, 1_000);
        tw.add(10, 4);
        tw.add(15, -4);
        assert_eq!(tw.average(20), 2.0);
    }

    #[test]
    fn empty_window_is_zero() {
        let mut tw = TimeWeighted::new(7, 1_000);
        tw.add(0, 5);
        assert_eq!(tw.average(7), 0.0);
        assert_eq!(tw.average(3), 0.0, "ended before the window began");
    }

    /// A change learnt of late, split accumulators, any merge order: the
    /// integral is a sum, so nothing moves.
    #[test]
    fn order_and_partition_do_not_matter() {
        let changes = [(3u64, 1i64), (7, 1), (9, -1), (12, 1), (12, -1), (30, -1)];
        let mut whole = TimeWeighted::new(5, 25);
        for &(at, delta) in &changes {
            whole.add(at, delta);
        }
        let (mut a, mut b) = (TimeWeighted::new(5, 25), TimeWeighted::new(5, 25));
        for (i, &(at, delta)) in changes.iter().rev().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.add(at, delta);
        }
        b.merge(&a);
        assert_eq!(b, whole);
        assert_eq!(b.average(40).to_bits(), whole.average(40).to_bits());
    }
}
