//! The hop rule, written once: what happens to a copy at a node.
//!
//! The paper's model is one rule applied at every node: a copy finishes
//! its link, the node counts the reception and forwards the copy along
//! the STAR tree or the e-cube next hop, and a copy that cannot be placed
//! is lost. [`Hop`] holds the state every owner of a [`LinkKernel`]
//! carries for that — the scheme, the kernel, the ARQ layer, its replica
//! of the fault clock, the trace sink, the forward and loss scratch and
//! the link-target table — and writes the five rules once:
//!
//! 1. [`Hop::deliver`] — a copy finished its link: trace it, count the
//!    ARQ ack, record the reception, ask the scheme for the forwards and
//!    offer them.
//! 2. [`Hop::offer`] — transmissions are offered to a node's links: the
//!    kernel queues, evicts for or refuses each one, and whatever it
//!    turns away is lost.
//! 3. [`Hop::lose`] — a copy is lost: ARQ arms a retry, or the loss
//!    settles for good against the scheme's receptions at stake.
//! 4. [`Hop::fire_retransmissions`] — due ARQ timers re-admit their
//!    copies at the hop that lost them.
//! 5. [`Hop::fault_tick`] — a fault epoch: what it loses settles against
//!    the scheme as it still is, then the scheme sees the new view.
//!
//! The serial [`crate::Engine`] runs one `Hop` over every link and each
//! `pstar-net` worker one over the links of its nodes. A driver lends the
//! rules a [`HopCtx`] — its topology, its [`Homes`] (where a task's
//! completion record lives), the stream unicast ties are drawn from, and
//! the slot — and keeps only its slot order, its arrivals and its
//! transport.

use crate::config::SimConfig;
use crate::faultepoch::{FaultClock, FaultLoss, LossCause};
use crate::kernel::{Admit, LinkKernel};
use crate::ledger::{ArqCounters, FaultTotals, LinkCounters, TaskLedger};
use crate::packet::{Emit, Packet, PacketKind};
use crate::recovery::{Arq, ARQ_SEED_SALT};
use crate::scheme::Scheme;
use pstar_faults::DeadLinkPolicy;
use pstar_obs::{TraceEvent, TraceRecord, TraceSink};
use pstar_topology::{Network, NodeId};
use rand::rngs::StdRng;

/// `(is_broadcast, receptions)` a lost copy was still responsible for —
/// what a loss settles. Must be evaluated against the scheme state *at
/// the loss* (degraded-mode subtrees differ).
pub(crate) fn receptions_at_stake<S: Scheme>(scheme: &S, pkt: &Packet) -> (bool, u32) {
    match pkt.kind {
        PacketKind::Broadcast(state) => {
            let lost = scheme.subtree_receptions(&state);
            debug_assert!(lost >= 1);
            (true, lost)
        }
        PacketKind::Unicast { .. } => (false, 1),
    }
}

/// Where a driver keeps a task's completion record, and what it counts
/// where a reception or a loss is seen. The serial engine keeps every
/// task in its [`TaskLedger`]'s own table (the impl below); a `pstar-net`
/// worker counts the delivery- and loss-site rules in its share of the
/// ledger and tells the task's home worker the rest.
pub trait Homes {
    /// The driver's ledger, for the site rules that do not depend on
    /// where a home is.
    fn ledger(&mut self) -> &mut TaskLedger;

    /// A copy of broadcast `pkt.task` was received at slot `t`, `dist()`
    /// hops from its source.
    fn broadcast_received(&mut self, t: u64, pkt: &Packet, dist: impl FnOnce() -> u32);

    /// Unicast `pkt` reached its destination at slot `t`.
    fn unicast_arrived(&mut self, t: u64, pkt: &Packet);

    /// A copy of `pkt.task` was scheduled for retransmission.
    fn retransmitting(&mut self, pkt: &Packet);

    /// `pkt` was lost for good at slot `t`: `receptions` of its task
    /// will never happen. Returns how many of them were measured.
    fn lost_for_good(
        &mut self,
        t: u64,
        pkt: &Packet,
        broadcast: bool,
        receptions: u32,
        cause: LossCause,
    ) -> u64;
}

/// One table, every site at once: the ledger's composed rules. A task's
/// measured tag is the one it was opened with, so a task injected by
/// [`crate::Engine::inject_broadcast`] is measured whatever the window.
impl Homes for TaskLedger {
    fn ledger(&mut self) -> &mut TaskLedger {
        self
    }

    #[inline]
    fn broadcast_received(&mut self, t: u64, pkt: &Packet, dist: impl FnOnce() -> u32) {
        self.reception(t, pkt.task, pkt.priority, dist);
    }

    #[inline]
    fn unicast_arrived(&mut self, t: u64, pkt: &Packet) {
        self.unicast_done(t, pkt.task);
    }

    fn retransmitting(&mut self, pkt: &Packet) {
        self.mark_retx(pkt.task);
    }

    fn lost_for_good(
        &mut self,
        t: u64,
        pkt: &Packet,
        _broadcast: bool,
        receptions: u32,
        cause: LossCause,
    ) -> u64 {
        self.settle(t, pkt.task, receptions, cause)
    }
}

/// What a driver lends the hop rules: its topology, its [`Homes`], the
/// stream a unicast's tie coin is drawn from, and the slot.
pub struct HopCtx<'a, N, H> {
    /// The topology (link ids, hop distances).
    pub topo: &'a N,
    /// Where the driver's tasks are completed.
    pub homes: &'a mut H,
    /// The stream `Scheme::on_unicast_arrival` draws its tie coin from.
    pub ties: &'a mut StdRng,
    /// The current slot.
    pub t: u64,
}

/// The hop rules' state for the links `lo .. hi` (see the module docs).
pub struct Hop<S> {
    /// The routing scheme (a per-owner clone on faulted `pstar-net`
    /// runs, so degraded-mode re-solves stay local).
    pub scheme: S,
    /// Queueing and service for the links.
    pub kernel: LinkKernel,
    /// ARQ recovery; `None` keeps every loss permanent.
    pub(crate) arq: Option<Box<Arq>>,
    /// This owner's replica of the fault clock; `None` on a fault-free
    /// run, which then never touches it.
    pub faults: Option<Box<FaultClock>>,
    /// Observability sink; `None` keeps every trace site at a single
    /// never-taken branch.
    pub obs: Option<Box<dyn TraceSink>>,
    /// Receiving node of every link of the topology.
    link_target: Vec<NodeId>,
    /// Scratch for one delivery's forwards.
    emits: Vec<Emit>,
    /// Scratch for a fault epoch's losses.
    losses: Vec<FaultLoss>,
}

impl<S: Scheme> Hop<S> {
    /// Idle state for the global links `lo .. hi` of `topo`, with ARQ as
    /// `cfg` says and no fault plan.
    pub fn new<N: Network>(topo: &N, scheme: S, cfg: &SimConfig, lo: u32, hi: u32) -> Self {
        Self {
            scheme,
            kernel: LinkKernel::new(cfg, topo.d(), lo, hi),
            arq: cfg
                .arq
                .map(|a| Box::new(Arq::new(a, cfg.seed ^ ARQ_SEED_SALT))),
            faults: None,
            obs: None,
            link_target: topo.link_target_table(),
            emits: Vec::with_capacity(64),
            losses: Vec::new(),
        }
    }

    /// Installs this owner's replica of a fault plan's clock and what
    /// dead links do with their packets.
    pub fn install_faults(&mut self, clock: FaultClock, policy: DeadLinkPolicy) {
        self.kernel.set_dead_link_policy(policy);
        self.faults = Some(Box::new(clock));
    }

    /// The node `link` delivers to.
    #[inline]
    pub fn target(&self, link: u32) -> NodeId {
        self.link_target[link as usize]
    }

    /// The forward scratch (a steady-state slot reuses it as it is).
    pub fn emit_scratch(&self) -> &Vec<Emit> {
        &self.emits
    }

    /// Records one trace event — the single branch a site pays when
    /// tracing is off.
    #[inline]
    fn record(&mut self, slot: u64, event: TraceEvent) {
        if let Some(sink) = self.obs.as_deref_mut() {
            sink.record(TraceRecord { slot, event });
        }
    }

    /// A delivered copy of a task was acknowledged over the ARQ control
    /// plane.
    #[inline]
    fn acked(&mut self, pkt: &Packet) {
        if let Some(arq) = self.arq.as_deref_mut() {
            arq.counters.acked(pkt.attempt);
        }
    }

    /// Rule 1: `pkt` finished `link` at slot `cx.t`. A broadcast copy is
    /// a reception and forwards along its tree; a unicast at its
    /// destination completes, elsewhere it takes the next hop.
    #[inline]
    pub fn deliver<N: Network, H: Homes>(
        &mut self,
        cx: &mut HopCtx<'_, N, H>,
        link: u32,
        pkt: Packet,
    ) {
        let t = cx.t;
        self.record(
            t,
            TraceEvent::Delivery {
                link,
                class: pkt.priority,
                age: t - pkt.gen_time,
                task: pkt.task,
            },
        );
        let node = self.link_target[link as usize];
        self.emits.clear();
        match pkt.kind {
            PacketKind::Broadcast(state) => {
                // Every reception is ACKed to the source over the
                // (contention-free) control plane while ARQ is on.
                self.acked(&pkt);
                let topo = cx.topo;
                cx.homes
                    .broadcast_received(t, &pkt, || topo.distance(state.src, node));
                self.scheme
                    .on_broadcast_arrival(node, &state, &mut self.emits);
            }
            PacketKind::Unicast { dest } if node == dest => {
                self.acked(&pkt);
                cx.homes.unicast_arrived(t, &pkt);
                return;
            }
            PacketKind::Unicast { dest } => {
                self.scheme
                    .on_unicast_arrival(node, dest, cx.ties, &mut self.emits);
                debug_assert!(!self.emits.is_empty(), "unicast stranded at {node}");
            }
        }
        // Offering never re-enters forward generation: the scratch is
        // lent out for the loop and comes back with its allocation.
        let emits = std::mem::take(&mut self.emits);
        self.offer(cx, node, &emits, pkt.task, pkt.gen_time, pkt.len);
        self.emits = emits;
    }

    /// Rule 2: offers `emits` — transmissions of `task`, generated at
    /// `gen_time`, `len` slots long — to `from`'s outgoing links at slot
    /// `cx.t`. A packet the kernel refuses or evicts is lost.
    ///
    /// Always inlined: it runs for every delivered copy and every new
    /// task, and a call there passes seven arguments, two on the stack.
    #[inline(always)]
    pub fn offer<N: Network, H: Homes>(
        &mut self,
        cx: &mut HopCtx<'_, N, H>,
        from: NodeId,
        emits: &[Emit],
        task: u32,
        gen_time: u64,
        len: u16,
    ) {
        for emit in emits {
            debug_assert!(
                (emit.priority as usize) < self.scheme.num_priorities(),
                "emit priority out of range"
            );
            let link = cx.topo.link_id(emit.link_from(from)).0;
            let pkt = emit.packet(task, gen_time, len, cx.t);
            match self.kernel.admit(link, pkt) {
                Admit::Queued => {}
                Admit::Evicted(victim) => self.lose(cx, link, victim, LossCause::Overflow),
                Admit::Lost(pkt, cause) => {
                    self.lose(cx, link, pkt, cause);
                    continue;
                }
            }
            self.record(
                cx.t,
                TraceEvent::Enqueue {
                    link,
                    class: pkt.priority,
                    task,
                },
            );
        }
    }

    /// Rule 3: `pkt` was lost at `link` in slot `cx.t`. With ARQ the
    /// copy's receptions stay alive and a backoff timer is armed;
    /// without it — or once the retry budget is spent, the `GaveUp`
    /// terminal state — the loss settles for good. A
    /// [`LossCause::Retry`] is a failed re-injection, not a new drop.
    pub fn lose<N, H: Homes>(
        &mut self,
        cx: &mut HopCtx<'_, N, H>,
        link: u32,
        pkt: Packet,
        cause: LossCause,
    ) {
        let t = cx.t;
        // A copy lost at this hop — possibly recovered later by ARQ;
        // terminal losses are told apart by a missing `Retransmit` for
        // the same link and class.
        self.record(
            t,
            TraceEvent::Drop {
                link,
                class: pkt.priority,
                cause: cause.into(),
                task: pkt.task,
            },
        );
        if let Some(arq) = self.arq.as_deref_mut() {
            // Re-inject at the failed hop: the source's retransmission
            // would be duplicate-suppressed along the already-ACKed tree
            // prefix, so the effective retransmission starts where the
            // copy was lost; the prefix traversal is folded into the
            // timeout.
            let boosted = self.scheme.retransmit_priority(pkt.priority);
            debug_assert!(
                (boosted as usize) < self.scheme.num_priorities(),
                "retransmit_priority out of range"
            );
            if arq.on_loss(t, link, pkt, boosted) {
                cx.homes.retransmitting(&pkt);
                cx.homes.ledger().packet_dropped(cause);
                return;
            }
        }
        cx.homes.ledger().packet_dropped(cause);
        let (broadcast, receptions) = receptions_at_stake(&self.scheme, &pkt);
        let lost_measured = cx
            .homes
            .lost_for_good(t, &pkt, broadcast, receptions, cause);
        if let Some(arq) = self.arq.as_deref_mut() {
            arq.counters.gave_up_receptions += lost_measured;
        }
    }

    /// Rule 4: fires the ARQ timers due at `cx.t`, re-injecting each copy
    /// at the hop that lost it — or, if the kernel refuses it (link
    /// still dead, bounded queue still full), losing it again, which
    /// arms the next backoff round or gives up.
    pub fn fire_retransmissions<N, H: Homes>(&mut self, cx: &mut HopCtx<'_, N, H>) {
        let Some(arq) = self.arq.as_deref_mut().filter(|a| !a.is_idle()) else {
            return;
        };
        let t = cx.t;
        let due = arq.take_due(t);
        let mut fired = 0;
        for e in &due {
            if let Admit::Lost(pkt, cause) = self.kernel.readmit(e.link, e.pkt, t) {
                self.lose(cx, e.link, pkt, cause);
                continue;
            }
            self.record(
                t,
                TraceEvent::Retransmit {
                    link: e.link,
                    class: e.pkt.priority,
                    attempt: e.pkt.attempt,
                    task: e.pkt.task,
                },
            );
            fired += 1;
        }
        let arq = self.arq.as_deref_mut().expect("still installed");
        arq.counters.retransmissions += fired;
        arq.give_back(due);
    }

    /// Rule 5: one slot of the fault clock, before anything else in the
    /// slot (a link dying at `t` fails the delivery it would have made
    /// at `t`). What an epoch loses settles against the scheme as it
    /// still is; then the scheme sees the new view. Returns `true` when
    /// liveness changed. A fault-free owner does nothing.
    pub fn fault_tick<N, H: Homes>(&mut self, cx: &mut HopCtx<'_, N, H>) -> bool {
        let Some(mut clock) = self.faults.take() else {
            return false;
        };
        let mut losses = std::mem::take(&mut self.losses);
        let changed = clock.tick(cx.t, &mut self.kernel, &mut losses);
        if changed {
            for loss in losses.drain(..) {
                self.lose(cx, loss.link, loss.pkt, LossCause::Fault);
            }
            self.scheme.on_liveness_change(clock.view());
            if self.obs.is_some() {
                let view = clock.view();
                let event = TraceEvent::FaultEpoch {
                    dead_links: view.dead_link_count(),
                    dead_nodes: view.dead_node_count(),
                };
                self.record(cx.t, event);
            }
        }
        self.losses = losses;
        self.faults = Some(clock);
        changed
    }

    /// Starts service on every idle link with a backlog
    /// ([`LinkKernel::start`]) and traces it; `each` sees every
    /// `(link, packet)` as it starts.
    #[inline]
    pub fn start(&mut self, t: u64, mut each: impl FnMut(u32, &Packet)) {
        let faulted = self.faults.as_ref().is_some_and(|f| f.any_now());
        let obs = &mut self.obs;
        self.kernel.start(t, faulted, |link, pkt| {
            if let Some(sink) = obs.as_deref_mut() {
                sink.record(TraceRecord {
                    slot: t,
                    event: TraceEvent::ServiceStart {
                        link,
                        class: pkt.priority,
                        wait: t - pkt.enqueue_time,
                        len: pkt.len,
                        task: pkt.task,
                    },
                });
            }
            each(link, pkt);
        });
    }

    /// Closes the books after `now` slots: the links' counters, the
    /// fault clock's totals and the ARQ counters (timers still armed
    /// recorded).
    pub fn finish(self, now: u64) -> (LinkCounters, Option<FaultTotals>, Option<ArqCounters>) {
        let kernel = self.kernel;
        let faults = self.faults.map(|f| f.finish(now, |l| kernel.is_active(l)));
        (kernel.into_counters(), faults, self.arq.map(|a| a.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::BroadcastState;
    use crate::recovery::ArqConfig;
    use pstar_topology::Torus;
    use rand::SeedableRng;

    /// A scheme whose forwards the test never asks for.
    struct NoForwards;

    impl Scheme for NoForwards {
        fn num_priorities(&self) -> usize {
            1
        }

        fn on_broadcast_generated(&self, _: NodeId, _: &mut StdRng, _: &mut Vec<Emit>) {}

        fn on_broadcast_arrival(&self, _: NodeId, _: &BroadcastState, _: &mut Vec<Emit>) {}

        fn on_unicast_generated(&self, _: NodeId, _: NodeId, _: &mut StdRng, _: &mut Vec<Emit>) {}

        fn on_unicast_arrival(&self, _: NodeId, _: NodeId, _: &mut StdRng, _: &mut Vec<Emit>) {}

        fn subtree_receptions(&self, _: &BroadcastState) -> u32 {
            1
        }
    }

    /// Rules 3 and 4 together: a lost copy arms a retry at the hop that
    /// lost it, a retry the kernel refuses is lost again, and once the
    /// budget is spent the loss settles — exactly once.
    #[test]
    fn a_lost_copy_retries_at_its_hop_then_settles_once() {
        let topo = Torus::new(&[4]);
        let cfg = SimConfig {
            queue_capacity: Some(1),
            arq: Some(ArqConfig {
                base_timeout: 2,
                max_backoff_exp: 0,
                jitter: 0,
                max_retries: Some(1),
            }),
            ..SimConfig::quick(1)
        };
        let mut hop = Hop::new(&topo, NoForwards, &cfg, 0, topo.link_count());
        let mut ledger = TaskLedger::new(&cfg, 4, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let t = cfg.warmup_slots;
        let task = ledger.open_task(t, t, false, true);
        let pkt = |task| Packet {
            task,
            gen_time: t,
            enqueue_time: t,
            len: 1,
            priority: 0,
            vc: 0,
            attempt: 0,
            kind: PacketKind::Unicast { dest: NodeId(1) },
        };
        let mut cx = HopCtx {
            topo: &topo,
            homes: &mut ledger,
            ties: &mut rng,
            t,
        };
        hop.lose(&mut cx, 0, pkt(task), LossCause::Overflow);
        // Another packet fills link 0 for as long as the retry waits.
        assert!(matches!(hop.kernel.admit(0, pkt(99)), Admit::Queued));
        for now in t + 1..=t + 2 {
            cx.t = now;
            hop.fire_retransmissions(&mut cx);
        }
        let arq = hop.arq.as_deref().expect("ARQ is on");
        let c = &arq.counters;
        assert!(arq.is_idle(), "the budget of one retry is spent");
        assert_eq!((c.timeouts_scheduled, c.retransmissions), (1, 0));
        assert_eq!((c.gave_up_copies, c.gave_up_receptions), (1, 1));
        assert_eq!(ledger.outstanding_measured(), 0, "settled exactly once");
        assert_eq!(ledger.active_tasks().0, 0, "and completed");
    }
}
