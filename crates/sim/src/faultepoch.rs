//! Shared fault-epoch bookkeeping, used by both the slotted engine and
//! the `pstar-net` thread-per-core runtime.
//!
//! The engine and the runtime must agree *exactly* on fault accounting
//! (the cross-backend agreement gate covers faulted runs), so the
//! subtle rules live here once instead of being re-implemented per
//! backend. The two rules captured so far:
//!
//! * **Time-to-recovery** ([`RecoveryTracker`]): a repaired link has
//!   *recovered* once it has carried traffic again **and** its backlog
//!   first clears. Links that never see traffic again before the run
//!   ends are censored (no sample), matching standard survival-analysis
//!   practice.
//! * **Fault-loss attribution** ([`LossCause`]): which drops count
//!   toward the fault report (`!is_retry` fault losses), shared via the
//!   cause vocabulary.

use pstar_stats::Moments;

/// Why a packet is being taken out of circulation. Shared between the
/// engine and the runtime so both backends attribute losses — and
/// therefore fault-report counters — identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Lost to a dead link (counts toward the fault report).
    Fault,
    /// Lost to a full bounded queue (tail drop or eviction).
    Overflow,
    /// A retransmission attempt that could not be re-injected (link
    /// still dead / queue still full). No transmission happened, so it
    /// does not count as a new packet drop.
    Retry,
}

impl From<LossCause> for pstar_obs::DropKind {
    /// How a loss reads in a trace.
    fn from(cause: LossCause) -> Self {
        match cause {
            LossCause::Fault => Self::Fault,
            LossCause::Overflow => Self::Overflow,
            LossCause::Retry => Self::RetryFailed,
        }
    }
}

/// Watches repaired links until each one counts as *recovered*, and
/// accumulates the time-to-recovery samples.
///
/// Protocol, identical in both backends:
/// 1. On repair: [`RecoveryTracker::on_repair`] — the link enters the
///    watch list with `served = false`.
/// 2. On a (re-)death of a watched link: [`RecoveryTracker::on_death`]
///    — the pending measurement is abandoned.
/// 3. Every slot while [`RecoveryTracker::is_watching`]:
///    [`RecoveryTracker::tick`] with a `busy` probe (queue non-empty or
///    transmission in flight). A busy link is marked served; an idle
///    link that has served yields `now - repair_slot` and leaves the
///    list.
/// 4. At run end: [`RecoveryTracker::finalize`] — served-and-clear
///    links yield their sample, everything else is censored.
#[derive(Debug, Clone, Default)]
pub struct RecoveryTracker {
    /// `(link, repair_slot, served_since_repair)`.
    pending: Vec<(u32, u64, bool)>,
    samples: Moments,
}

impl RecoveryTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The link was just repaired at `slot`: start (or restart) the
    /// recovery watch.
    pub fn on_repair(&mut self, link: u32, slot: u64) {
        self.pending.retain(|&(l, ..)| l != link);
        self.pending.push((link, slot, false));
    }

    /// The link died (again): abandon any pending measurement.
    pub fn on_death(&mut self, link: u32) {
        self.pending.retain(|&(l, ..)| l != link);
    }

    /// `true` while any link is on the watch list — the cue to call
    /// [`RecoveryTracker::tick`] this slot.
    #[inline]
    pub fn is_watching(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Per-slot progress: `busy(link)` must report whether the link has
    /// a backlog or an in-flight transmission *right now*.
    pub fn tick(&mut self, now: u64, mut busy: impl FnMut(u32) -> bool) {
        let samples = &mut self.samples;
        self.pending.retain_mut(|&mut (l, since, ref mut served)| {
            if busy(l) {
                *served = true;
                return true;
            }
            if *served {
                samples.push((now - since) as f64);
                false
            } else {
                true
            }
        });
    }

    /// End-of-run closure: links whose backlog drained on the final
    /// slots (after the last tick) yield their sample; links that never
    /// carried traffic again are censored. Empties the watch list.
    pub fn finalize(&mut self, now: u64, mut busy: impl FnMut(u32) -> bool) {
        let samples = &mut self.samples;
        self.pending.retain(|&(l, since, served)| {
            if served && !busy(l) {
                samples.push((now - since) as f64);
            }
            false
        });
    }

    /// The accumulated time-to-recovery samples.
    pub fn samples(&self) -> &Moments {
        &self.samples
    }

    /// Folds another tracker's *samples* in (worker-sharded runtimes
    /// merge per-worker trackers; watch lists are disjoint by link
    /// ownership, so only samples need merging).
    pub fn merge_samples(&mut self, other: &RecoveryTracker) {
        self.samples.merge(&other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_needs_service_then_clear() {
        let mut tr = RecoveryTracker::new();
        tr.on_repair(3, 100);
        assert!(tr.is_watching());
        // Idle before serving: no sample, still watched.
        tr.tick(101, |_| false);
        assert!(tr.is_watching());
        assert_eq!(tr.samples().count(), 0);
        // Busy: marked served.
        tr.tick(102, |l| l == 3);
        assert!(tr.is_watching());
        // Clear after serving: sample = now - repair_slot.
        tr.tick(110, |_| false);
        assert!(!tr.is_watching());
        assert_eq!(tr.samples().count(), 1);
        assert_eq!(tr.samples().summary().mean, 10.0);
    }

    #[test]
    fn redeath_abandons_measurement() {
        let mut tr = RecoveryTracker::new();
        tr.on_repair(7, 10);
        tr.tick(11, |_| true);
        tr.on_death(7);
        tr.tick(12, |_| false);
        assert_eq!(tr.samples().count(), 0);
        assert!(!tr.is_watching());
    }

    #[test]
    fn finalize_samples_served_and_censors_the_rest() {
        let mut tr = RecoveryTracker::new();
        tr.on_repair(1, 50); // will serve, then clear at finalize
        tr.on_repair(2, 60); // never serves: censored
        tr.tick(70, |l| l == 1);
        tr.finalize(80, |_| false);
        assert!(!tr.is_watching());
        assert_eq!(tr.samples().count(), 1);
        assert_eq!(tr.samples().summary().mean, 30.0);
        // Served but still busy at the end: also censored.
        let mut tr = RecoveryTracker::new();
        tr.on_repair(4, 0);
        tr.tick(1, |_| true);
        tr.finalize(2, |_| true);
        assert_eq!(tr.samples().count(), 0);
    }

    #[test]
    fn repair_restarts_the_clock() {
        let mut tr = RecoveryTracker::new();
        tr.on_repair(9, 10);
        tr.tick(11, |_| true);
        // A second repair event for the same link restarts the watch.
        tr.on_repair(9, 20);
        tr.tick(21, |_| true);
        tr.tick(25, |_| false);
        assert_eq!(tr.samples().summary().mean, 5.0);
    }

    #[test]
    fn merge_folds_samples_only() {
        let mut a = RecoveryTracker::new();
        a.on_repair(0, 0);
        a.tick(1, |_| true);
        a.tick(4, |_| false);
        let mut b = RecoveryTracker::new();
        b.on_repair(1, 0);
        b.tick(1, |_| true);
        b.tick(8, |_| false);
        b.on_repair(2, 100); // still pending in b
        a.merge_samples(&b);
        assert_eq!(a.samples().count(), 2);
        assert_eq!(a.samples().summary().mean, 6.0);
        assert!(!a.is_watching(), "merge does not import watch lists");
    }
}
