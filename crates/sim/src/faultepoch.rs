//! Fault epochs, written once: [`FaultClock`].
//!
//! A fault plan is a fixed, sorted timeline and [`FaultRuntime`] draws
//! nothing, so every owner of a [`LinkKernel`] — the serial engine, each
//! shard of the sharded engine, each `pstar-net` worker — runs a
//! *replica* of the plan's clock over the links its kernel owns, and the
//! sharded coordinator, which owns none, one it only
//! [`FaultClock::advance`]s for the liveness view. Replicas agree by
//! construction: no epoch is ever sent anywhere, every replica counts
//! the same events and fault slots, and the time-to-recovery samples of
//! disjoint link ranges add up ([`FaultTotals::merge`]).
//!
//! One slot of a replica is [`FaultClock::tick`]:
//!
//! 1. [`FaultClock::advance`] — apply the plan events due at the slot.
//! 2. Kill the newly dead links the kernel owns, in
//!    [`FaultDelta::newly_dead`] order; what the dead-link policy loses
//!    comes back as [`FaultLoss`]es in settle order, each tagged
//!    `(death, seq)` so that the losses of kernels over disjoint link
//!    ranges merge into the order one kernel over all links produces.
//!    Revive the repaired links the kernel owns — where the view says
//!    alive: a link forced up and down again inside one epoch stays
//!    dead.
//! 3. Time-to-recovery bookkeeping: a death abandons the link's pending
//!    measurement, a repair that holds starts one.
//! 4. Count the fault slot and probe the watched links (busy =
//!    backlogged or transmitting), *after* the dying links were drained
//!    and *before* the slot's deliveries. A repaired
//!    link has recovered once it has carried traffic again and its
//!    backlog first clears; links that never see traffic again before
//!    the run ends are censored (no sample).
//!
//! What an epoch *means* stays with the driver: it settles each
//! [`FaultLoss`] against its scheme **as it still is** and only then
//! hands the scheme the new view (`Scheme::on_liveness_change`). A
//! driver must not tick a slot it has not decided to run: events due at
//! the slot a run stops at are never applied.
//!
//! [`LossCause`] is the loss vocabulary every backend shares, so fault
//! report counters (`!is_retry` fault losses) attribute identically.

use crate::kernel::LinkKernel;
use crate::ledger::FaultTotals;
use crate::packet::Packet;
use pstar_faults::{FaultDelta, FaultPlan, FaultRuntime, LivenessView};
use pstar_stats::IntMoments;
use pstar_topology::{LinkId, Network, NodeId};

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
/// accumulates the time-to-recovery samples ([`FaultClock`] drives it).
///
/// 1. On repair: `on_repair` — the link enters the watch list with
///    `served = false`.
/// 2. On a (re-)death of a watched link: `on_death` — the pending
///    measurement is abandoned.
/// 3. Every slot while `is_watching`: `tick` with a `busy` probe (queue
///    non-empty or transmission in flight). A busy link is marked
///    served; an idle link that has served yields `now - repair_slot`
///    and leaves the list.
/// 4. At run end: `finalize` — served-and-clear links yield their
///    sample, everything else is censored.
#[derive(Debug, Clone, Default)]
struct RecoveryTracker {
    /// `(link, repair_slot, served_since_repair)`.
    pending: Vec<(u32, u64, bool)>,
    samples: IntMoments,
}

impl RecoveryTracker {
    /// An empty tracker.
    fn new() -> Self {
        Self::default()
    }

    /// The link was just repaired at `slot`: start (or restart) the
    /// recovery watch.
    fn on_repair(&mut self, link: u32, slot: u64) {
        self.pending.retain(|&(l, ..)| l != link);
        self.pending.push((link, slot, false));
    }

    /// The link died (again): abandon any pending measurement.
    fn on_death(&mut self, link: u32) {
        self.pending.retain(|&(l, ..)| l != link);
    }

    /// `true` while any link is on the watch list — the cue to call
    /// `tick` this slot.
    #[inline]
    fn is_watching(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Per-slot progress: `busy(link)` must report whether the link has
    /// a backlog or an in-flight transmission *right now*.
    fn tick(&mut self, now: u64, mut busy: impl FnMut(u32) -> bool) {
        let samples = &mut self.samples;
        self.pending.retain_mut(|&mut (l, since, ref mut served)| {
            if busy(l) {
                *served = true;
                return true;
            }
            if *served {
                samples.push(now - since);
                false
            } else {
                true
            }
        });
    }

    /// End-of-run closure: links whose backlog drained on the final
    /// slots (after the last tick) yield their sample; links that never
    /// carried traffic again are censored. Empties the watch list.
    fn finalize(&mut self, now: u64, mut busy: impl FnMut(u32) -> bool) {
        let samples = &mut self.samples;
        self.pending.retain(|&(l, since, served)| {
            if served && !busy(l) {
                samples.push(now - since);
            }
            false
        });
    }
}

/// One packet a dying link lost in a fault epoch, with its place in the
/// epoch's settle order: sorting the losses of any set of kernels over
/// disjoint link ranges by `(death, seq)` gives the order one kernel
/// over all of the links produces.
#[derive(Debug, Clone, Copy)]
pub struct FaultLoss {
    /// Index of the dying link in the epoch's
    /// [`FaultDelta::newly_dead`].
    pub death: u32,
    /// Position among that link's losses: the interrupted transmission
    /// first, then the backlog in service order.
    pub seq: u32,
    /// Global id of the dying link.
    pub link: u32,
    /// The lost packet.
    pub pkt: Packet,
}

/// One replica of a fault plan's clock (see the module docs): the plan
/// cursor and liveness view, the fault totals a report carries, and the
/// time-to-recovery watches of the links its driver's kernel owns.
#[derive(Debug, Clone)]
pub struct FaultClock {
    runtime: FaultRuntime,
    /// Cached `runtime.view().any_faults()` for the hot paths.
    any_now: bool,
    events_applied: u64,
    fault_slots: u64,
    recovery: RecoveryTracker,
    /// Scratch for the packets one dying link loses.
    lost: Vec<Packet>,
}

impl FaultClock {
    /// A clock at slot 0 of `plan` over `topo`'s links and nodes,
    /// everything alive.
    pub fn new<N: Network>(plan: FaultPlan, topo: &N) -> Self {
        Self {
            runtime: FaultRuntime::new(
                plan,
                topo.link_source_table(),
                topo.link_target_table(),
                topo.node_count(),
            ),
            any_now: false,
            events_applied: 0,
            fault_slots: 0,
            recovery: RecoveryTracker::new(),
            lost: Vec::new(),
        }
    }

    /// The effective liveness after the last advance.
    pub fn view(&self) -> &LivenessView {
        self.runtime.view()
    }

    /// `true` while anything is dead (what service starts are told).
    #[inline]
    pub fn any_now(&self) -> bool {
        self.any_now
    }

    /// `true` when `link` cannot transmit.
    #[inline]
    pub fn link_dead(&self, link: u32) -> bool {
        self.any_now && !self.view().link_alive(LinkId(link))
    }

    /// `true` when `node` is crashed (and generates no traffic).
    #[inline]
    pub fn node_dead(&self, node: NodeId) -> bool {
        self.any_now && !self.view().node_alive(node)
    }

    /// One slot of a replica whose driver owns `kernel`: the four steps
    /// of the module docs. Returns `true` when effective liveness
    /// changed — the driver then settles what was appended to `losses`
    /// and hands its scheme [`FaultClock::view`].
    pub fn tick(&mut self, t: u64, kernel: &mut LinkKernel, losses: &mut Vec<FaultLoss>) -> bool {
        let delta = self.advance(t);
        if let Some(delta) = &delta {
            for (death, &link) in delta.newly_dead.iter().enumerate() {
                if !kernel.owns(link.0) {
                    continue;
                }
                kernel.kill(link.0, &mut self.lost);
                losses.extend(self.lost.drain(..).enumerate().map(|(seq, pkt)| FaultLoss {
                    death: death as u32,
                    seq: seq as u32,
                    link: link.0,
                    pkt,
                }));
                self.recovery.on_death(link.0);
            }
            for &link in &delta.repaired {
                if kernel.owns(link.0) && self.runtime.view().link_alive(link) {
                    kernel.revive(link.0);
                    self.recovery.on_repair(link.0, t);
                }
            }
        }
        if self.any_now {
            self.fault_slots += 1;
        }
        if self.recovery.is_watching() {
            self.recovery.tick(t, |link| kernel.is_active(link));
        }
        delta.is_some()
    }

    /// Applies the plan events due at `t`; `Some` when effective
    /// liveness changed. All of a slot for a replica that owns no kernel
    /// and is kept for its view (the sharded coordinator).
    pub fn advance(&mut self, t: u64) -> Option<FaultDelta> {
        if self.runtime.next_event_slot().is_none_or(|s| s > t) {
            return None;
        }
        let delta = self.runtime.advance_to(t);
        self.events_applied += u64::from(delta.events_applied);
        self.any_now = self.view().any_faults();
        delta.changed().then_some(delta)
    }

    /// Closes the run after `now` slots: watched links whose backlog
    /// drained on the final slots (after the last tick) yield their
    /// sample, links that never carried traffic again are censored.
    pub fn finish(mut self, now: u64, busy: impl FnMut(u32) -> bool) -> FaultTotals {
        self.recovery.finalize(now, busy);
        FaultTotals {
            events_applied: self.events_applied,
            fault_slots: self.fault_slots,
            recovery_time: self.recovery.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::packet::PacketKind;
    use pstar_faults::{DeadLinkPolicy, FaultEvent, FaultKind};
    use pstar_topology::Torus;

    fn pkt(task: u32, priority: u8, len: u16) -> Packet {
        Packet {
            task,
            gen_time: 0,
            enqueue_time: 0,
            len,
            priority,
            vc: 1,
            attempt: 0,
            kind: PacketKind::Unicast { dest: NodeId(0) },
        }
    }

    fn plan(events: &[(u64, FaultKind)]) -> FaultPlan {
        FaultPlan::scripted(
            events
                .iter()
                .map(|&(slot, kind)| FaultEvent { slot, kind })
                .collect(),
        )
    }

    /// One loss of a driven run: `(slot, death, seq, link, task)`.
    type Lost = (u64, u32, u32, u32, u32);

    /// Kernels over the consecutive link ranges `bounds` cuts a 3×3
    /// torus' 36 links into, every link dropping when dead.
    fn kernels(topo: &Torus, bounds: &[u32]) -> Vec<LinkKernel> {
        bounds
            .windows(2)
            .map(|w| {
                let mut k = LinkKernel::new(&SimConfig::quick(1), topo.d(), w[0], w[1]);
                k.set_dead_link_policy(DeadLinkPolicy::Drop);
                k
            })
            .collect()
    }

    /// Drives one replica per kernel through `slots` slots of `plan` —
    /// fault tick, deliveries, fresh packets, service starts, the same
    /// on every link whatever kernel owns it —
    /// and returns each slot's losses ([`Lost`]), the kernels' losses
    /// concatenated and sorted by `(death, seq)`, plus every replica's
    /// totals.
    fn drive(
        topo: &Torus,
        plan: &FaultPlan,
        bounds: &[u32],
        slots: u64,
    ) -> (Vec<Lost>, Vec<FaultTotals>) {
        let mut kernels = kernels(topo, bounds);
        let mut clocks = vec![FaultClock::new(plan.clone(), topo); kernels.len()];
        let mut all = Vec::new();
        for t in 0..slots {
            let mut losses = Vec::new();
            for (clock, kernel) in clocks.iter_mut().zip(&mut kernels) {
                clock.tick(t, kernel, &mut losses);
            }
            losses.sort_by_key(|l| (l.death, l.seq));
            all.extend(
                losses
                    .iter()
                    .map(|l| (t, l.death, l.seq, l.link, l.pkt.task)),
            );
            for (clock, kernel) in clocks.iter().zip(&mut kernels) {
                let mut scan = kernel.finish_scan();
                while kernel.next_finished(&mut scan, t).is_some() {}
                for link in 0..topo.link_count() {
                    if !kernel.owns(link) {
                        continue;
                    }
                    assert_eq!(kernel.is_alive(link), !clock.link_dead(link));
                    // Load while the plan runs, then let the links drain
                    // so that repaired ones recover.
                    for k in 0..if t < 10 { 2 } else { 0 } {
                        let task = (t as u32 * 100 + link) * 2 + k;
                        kernel.admit(link, pkt(task, (task % 3) as u8, 1 + (link % 2) as u16));
                    }
                }
                kernel.start(t, clock.any_now(), |_, _| {});
            }
        }
        let totals = clocks
            .into_iter()
            .zip(&kernels)
            .map(|(clock, kernel)| clock.finish(slots, |l| kernel.is_active(l)))
            .collect();
        (all, totals)
    }

    /// Replicas over a split link range lose what one replica over the
    /// whole range loses, and `(death, seq)` merges the split losses
    /// into the whole one's order — what the sharded engine's stage-0
    /// keys rely on. Every replica counts the same events and fault
    /// slots; recovery samples are per owned link.
    #[test]
    fn split_replicas_lose_what_the_whole_one_loses_in_its_order() {
        let topo = Torus::new(&[3, 3]);
        let links = topo.link_count();
        let plan = plan(&[
            (1, FaultKind::LinkDown(LinkId(2))),
            (1, FaultKind::LinkDown(LinkId(29))),
            (1, FaultKind::NodeCrash(NodeId(4))),
            (2, FaultKind::LinkUp(LinkId(2))),
            (3, FaultKind::LinkDown(LinkId(11))),
            (3, FaultKind::NodeRecover(NodeId(4))),
            (5, FaultKind::LinkUp(LinkId(29))),
            (5, FaultKind::LinkDown(LinkId(2))),
            (5, FaultKind::LinkUp(LinkId(11))),
            (7, FaultKind::LinkUp(LinkId(2))),
        ]);
        let (whole, whole_totals) = drive(&topo, &plan, &[0, links], 80);
        assert!(whole.len() > 20, "the plan lost too little: {whole:?}");
        for bounds in [vec![0, 16, links], vec![0, 3, 12, 30, links]] {
            let (split, totals) = drive(&topo, &plan, &bounds, 80);
            assert_eq!(split, whole, "split at {bounds:?}");
            let mut samples = 0;
            for t in &totals {
                assert_eq!(t.events_applied, whole_totals[0].events_applied);
                assert_eq!(t.fault_slots, whole_totals[0].fault_slots);
                samples += t.recovery_time.count();
            }
            assert_eq!(samples, whole_totals[0].recovery_time.count());
        }
        assert_eq!(whole_totals[0].events_applied, 10);
        assert_eq!(whole_totals[0].fault_slots, 6, "slots 1 to 6");
        assert!(whole_totals[0].recovery_time.count() > 0);
    }

    /// The view is the authority on whether a repair holds: a link
    /// forced up and down again inside one epoch stays dead in the
    /// kernel and in the view, and no recovery watch starts.
    #[test]
    fn a_link_repaired_and_killed_in_one_epoch_stays_dead() {
        let topo = Torus::new(&[3, 3]);
        let plan = plan(&[
            (1, FaultKind::LinkDown(LinkId(3))),
            (3, FaultKind::LinkUp(LinkId(3))),
            (3, FaultKind::LinkDown(LinkId(3))),
        ]);
        let mut kernel = kernels(&topo, &[0, topo.link_count()]).remove(0);
        let mut clock = FaultClock::new(plan, &topo);
        let mut losses = Vec::new();
        for t in 0..3 {
            clock.tick(t, &mut kernel, &mut losses);
        }
        assert!(clock.tick(3, &mut kernel, &mut losses), "an epoch");
        assert!(!kernel.is_alive(3) && clock.link_dead(3));
        assert!(!clock.recovery.is_watching());
        let totals = clock.finish(4, |_| false);
        assert_eq!((totals.events_applied, totals.fault_slots), (3, 3));
    }

    /// Probes are taken after the epoch's dying links were drained and
    /// before the slot's deliveries: a link that blinks (down and up in
    /// one epoch) loses its transmission and its backlog — in that
    /// order — and is probed idle; a watched link whose transmission
    /// completes in the probing slot is probed busy.
    #[test]
    fn probes_are_taken_after_the_drain_and_before_the_deliveries() {
        let topo = Torus::new(&[3, 3]);
        let plan = plan(&[
            (0, FaultKind::LinkDown(LinkId(7))),
            (1, FaultKind::LinkUp(LinkId(7))),
            (3, FaultKind::LinkDown(LinkId(5))),
            (3, FaultKind::LinkUp(LinkId(5))),
        ]);
        let mut kernel = kernels(&topo, &[0, topo.link_count()]).remove(0);
        let mut clock = FaultClock::new(plan, &topo);
        let mut losses = Vec::new();
        for t in 0..3 {
            clock.tick(t, &mut kernel, &mut losses);
            if t == 2 {
                // Link 7 (repaired at 1, watched) transmits over slot 2
                // and completes at 3; link 5 gets a transmission and a
                // two-class backlog.
                kernel.admit(7, pkt(70, 0, 1));
                for (task, class) in [(50, 1), (51, 1), (52, 0), (53, 1)] {
                    kernel.admit(5, pkt(task, class, 4));
                }
            }
            kernel.start(t, clock.any_now(), |_, _| {});
        }
        assert!(losses.is_empty());
        assert!(clock.tick(3, &mut kernel, &mut losses));
        let lost: Vec<_> = losses.iter().map(|l| (l.seq, l.link, l.pkt.task)).collect();
        // Class 0 was served first; the backlog follows in service order.
        assert_eq!(lost, [(0, 5, 52), (1, 5, 50), (2, 5, 51), (3, 5, 53)]);
        assert!(kernel.is_alive(5), "the repair held");
        // `(link, repaired at, busy when probed)`.
        assert_eq!(clock.recovery.pending, [(7, 1, true), (5, 3, false)]);
    }

    /// A driver checks whether slot `t` runs before it ticks slot `t`:
    /// a run that stops at an event's slot never applied it (the
    /// `4x4 faulted horizon` pin of `tests/net.rs`, at the clock).
    #[test]
    fn a_run_that_stops_at_an_event_slot_never_applied_it() {
        let topo = Torus::new(&[4, 4]);
        let down = |slot, link| (slot, FaultKind::LinkDown(LinkId(link)));
        let plan = plan(&[down(150, 3), down(300, 17), down(400, 40)]);
        let mut kernel = kernels(&topo, &[0, topo.link_count()]).remove(0);
        let mut clock = FaultClock::new(plan, &topo);
        let mut losses = Vec::new();
        let epochs = (0..400)
            .filter(|&t| clock.tick(t, &mut kernel, &mut losses))
            .count();
        assert_eq!(epochs, 2);
        assert!(kernel.is_alive(40) && !clock.link_dead(40));
        let totals = clock.finish(400, |_| false);
        assert_eq!((totals.events_applied, totals.fault_slots), (2, 250));
    }

    #[test]
    fn recovery_needs_service_then_clear() {
        let mut tr = RecoveryTracker::new();
        tr.on_repair(3, 100);
        assert!(tr.is_watching());
        // Idle before serving: no sample, still watched.
        tr.tick(101, |_| false);
        assert!(tr.is_watching());
        assert_eq!(tr.samples.count(), 0);
        // Busy: marked served.
        tr.tick(102, |l| l == 3);
        assert!(tr.is_watching());
        // Clear after serving: sample = now - repair_slot.
        tr.tick(110, |_| false);
        assert!(!tr.is_watching());
        // One sample is its own minimum and maximum (the derived
        // all-zero `Moments::default()` used to make `min` read 0).
        let s = tr.samples.summary();
        assert_eq!((s.count, s.mean, s.min, s.max), (1, 10.0, 10.0, 10.0));
    }

    #[test]
    fn redeath_abandons_measurement() {
        let mut tr = RecoveryTracker::new();
        tr.on_repair(7, 10);
        tr.tick(11, |_| true);
        tr.on_death(7);
        tr.tick(12, |_| false);
        assert_eq!(tr.samples.count(), 0);
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
        assert_eq!(tr.samples.count(), 1);
        assert_eq!(tr.samples.summary().mean, 30.0);
        // Served but still busy at the end: also censored.
        let mut tr = RecoveryTracker::new();
        tr.on_repair(4, 0);
        tr.tick(1, |_| true);
        tr.finalize(2, |_| true);
        assert_eq!(tr.samples.count(), 0);
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
        assert_eq!(tr.samples.summary().mean, 5.0);
    }
}
