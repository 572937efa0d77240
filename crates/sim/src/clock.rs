//! The slot clock, written once: the order every driver takes a slot in,
//! and the rule that decides whether the next one runs.
//!
//! The paper's model is one synchronous slot clock over every node. A
//! [`Clock`] runs it for one owner of links — the serial
//! [`crate::Engine`], owner of every link, or one `pstar-net` worker,
//! owner of its nodes' links — around the one slot body, [`Hop::slot`].
//! What differs between one owner and a fleet of threads is the
//! [`Transport`]: where a slot's deliveries, tasks and control travel,
//! and who decides. The engine's transport is inline — nothing travels,
//! and the stop is decided in place — and pstar-net's is its mailboxes
//! and its rendezvous.
//!
//! Slot `t`, in order ([`Clock::open`], then [`Clock::close`]):
//!
//! 1. **Seal** — the top of the slot: control the previous slot produced
//!    joins this slot's hand-over ([`Transport::seal`]).
//! 2. **Decide first** — whether slot `t` runs is decided here, ahead of
//!    the fault tick, whose drops and probes a report sees, unless the
//!    transport sends ahead of the decision ([`Transport::SENDS_AHEAD`])
//!    and no fault plan is installed ([`Transport::decide`]).
//! 3. **Fault tick** — [`Hop::fault_tick`], through
//!    [`Transport::fault_tick`].
//! 4. **Send** — what the owner ships collects ([`Transport::collect`]),
//!    the one [`Injector`] draws the slot's tasks into it, and it is
//!    handed over ([`Transport::send`]).
//! 5. **Decide** — on a transport that sends ahead, without a fault plan,
//!    whether slot `t` runs is decided here: a fleet overlaps the send
//!    with the decision. The send ran ahead of it, so it counts nothing a
//!    report sees until the commit.
//! 6. **Samples** — the queue trace ([`SimConfig::queue_sampled_at`]) of
//!    what the owner's links hold, and the observability snapshot.
//! 7. **Commit** — what the send counted joins the report: the admission
//!    gate's rejections, and the transport's own ([`Transport::commit`]).
//! 8. **Process** — the transport's inputs ([`Transport::inputs`])
//!    through [`Hop::slot`].
//! 9. **Gauge** — what the slot leaves for the next decision ([`Gauge`]),
//!    published to the transport ([`Transport::publish`]).
//!
//! When a decision says slot `t` does not exist, nothing of it is
//! committed: the run ends and the transport delivers what the previous
//! slot still owes ([`Transport::last`]). A decision is one rule,
//! [`Gauge::decide`], over a whole network's gauge: the queue peak and
//! [`stop_verdict`].

use crate::arrivals::{InjectBatch, Injector};
use crate::config::{stop_verdict, SimConfig, Stop};
use crate::hop::{Deliveries, Homes, Hop, HopCtx};
use crate::kernel::LinkKernel;
use crate::packet::{Packet, MAX_PRIORITY_CLASSES};
use crate::scheme::Scheme;
use pstar_obs::{SlotSample, TraceSink};
use pstar_topology::{Network, NodeId};
use pstar_traffic::{ScenarioError, TrafficMix};
use std::borrow::BorrowMut;
use std::fmt;
use std::ops::{ControlFlow, Range};

/// A configuration a driver refuses before its first slot.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The scheme declares more priority classes than the packet format
    /// carries.
    TooManyPriorityClasses {
        /// Classes the scheme wants.
        requested: usize,
        /// The `MAX_PRIORITY_CLASSES` ceiling.
        max: usize,
    },
    /// The workload scenario is invalid for this topology/arrival model
    /// (wrapping [`pstar_traffic::ScenarioError`]).
    Scenario(ScenarioError),
    /// The topology's dense link ids are not grouped by source node, so
    /// a worker's links would not form one contiguous range.
    LinksNotNodeContiguous,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooManyPriorityClasses { requested, max } => write!(
                f,
                "scheme uses {requested} priority classes; the packet format carries at most {max}"
            ),
            Self::Scenario(e) => write!(f, "invalid scenario config: {e}"),
            Self::LinksNotNodeContiguous => write!(
                f,
                "the topology's link ids are not node-contiguous; \
                 pstar-net partitions links by contiguous id ranges"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// What one owner's links and books hold after a slot: the inputs of the
/// decision on the next one. A network's gauge is the sum of its
/// owners' ([`Gauge::add`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Packets queued on the owner's links.
    pub queued: i64,
    /// The same before the slot's service starts: what the queue peak is
    /// taken over.
    pub pre_service: i64,
    /// Measured receptions still due (`TaskLedger::outstanding_measured`)
    /// plus measured tasks waiting at the owner's sources. One owner's
    /// balance may be negative — a reception is counted where it is
    /// delivered, its task where it opened — but a network's is not.
    pub outstanding: i64,
    /// Tasks waiting at the owner's sources under backpressure:
    /// occupancy the fleet-wide guard counts beside `queued`.
    pub deferred: i64,
    /// The single-queue divergence guard tripped on the owner's links.
    pub unstable: bool,
}

impl Gauge {
    /// Adds another owner's gauge.
    pub fn add(&mut self, other: &Self) {
        self.queued += other.queued;
        self.pre_service += other.pre_service;
        self.outstanding += other.outstanding;
        self.deferred += other.deferred;
        self.unstable |= other.unstable;
    }

    /// Decides from a whole network's gauge whether slot `t` runs: raises
    /// `peak` to the pre-service population of the slot the gauge closed,
    /// then applies the stop rule, [`stop_verdict`]. Tasks waiting at
    /// their sources count as occupancy and, when measured, as due.
    #[inline]
    pub fn decide(
        &self,
        cfg: &SimConfig,
        queue_limit: i64,
        t: u64,
        peak: &mut i64,
    ) -> Option<Stop> {
        *peak = (*peak).max(self.pre_service);
        debug_assert!(
            self.outstanding >= 0,
            "more measured receptions settled than opened"
        );
        stop_verdict(
            cfg,
            t,
            self.outstanding as u64,
            self.queued + self.deferred,
            queue_limit,
            || self.unstable,
        )
    }
}

/// What differs between one owner of every link and a fleet of owners on
/// threads: where a slot's traffic goes and who decides. [`Clock`] calls
/// these in the order of the module docs; the defaults are what one
/// owner, which ships nothing and meets no one, does.
pub trait Transport {
    /// Where the owner's tasks are completed.
    type Homes: Homes;
    /// What the injector draws a slot's tasks into: one per owner.
    type Out: BorrowMut<InjectBatch>;

    /// Whether slot `t`'s send may run before it is decided whether slot
    /// `t` runs, so that one rendezvous carries both; an owner that meets
    /// no one decides first and draws no task of a slot that does not
    /// exist.
    const SENDS_AHEAD: bool = false;

    /// The owner's homes.
    fn homes(&mut self) -> &mut Self::Homes;

    /// The top of slot `t`: control the previous slot produced joins this
    /// slot's hand-over. Returns `true` when the run must end at once (a
    /// fleet that gave up).
    fn seal(&mut self, _t: u64) -> bool {
        false
    }

    /// Whether slot `t` runs, decided by [`Gauge::decide`] over the
    /// gauges every owner published after slot `t − 1` (or before the
    /// first slot): `Continue` runs it, `Break(Some(stop))` ends the run
    /// before it, `Break(None)` abandons the run. `first` is set when the
    /// decision comes ahead of the fault tick and the send.
    fn decide(&mut self, t: u64, first: bool) -> ControlFlow<Option<Stop>>;

    /// Runs slot `t`'s fault tick over the owner's homes; `tick` returns
    /// whether liveness changed.
    fn fault_tick(&mut self, t: u64, tick: impl FnOnce(&mut Self::Homes) -> bool);

    /// Slot `t`'s send begins: what the owner ships of the deliveries
    /// `kernel` makes at `t` collects. Returns what the injector draws
    /// into, with the index each source's tasks go to.
    fn collect(
        &mut self,
        t: u64,
        kernel: &LinkKernel,
    ) -> (&mut [Self::Out], impl Fn(NodeId) -> usize);

    /// Hands slot `t`'s send over. Returns `true` when the run must end.
    fn send(&mut self, _t: u64) -> bool {
        false
    }

    /// After a send the clock decided ahead of: a fleet still meets here,
    /// with nothing to decide, so that every hand-over of the slot is in
    /// before any is taken. Returns `true` when the run must end.
    fn exchange(&mut self, _t: u64) -> bool {
        false
    }

    /// Slot `t` runs: what its send counted joins the report.
    fn commit(&mut self, _t: u64) {}

    /// Slot `t`'s inputs to [`Hop::slot`]: the homes, the deliveries
    /// other owners made to the owner's nodes (one run per owner in owner
    /// order, `None` in the owner's own place), the tasks at its sources,
    /// and what sees each service start.
    fn inputs(
        &mut self,
        t: u64,
    ) -> (
        &mut Self::Homes,
        impl IntoIterator<Item = Option<&mut Deliveries>>,
        &mut InjectBatch,
        impl FnMut(u32, &Packet),
    );

    /// The owner's gauge after a slot, for the next decision.
    fn publish(&mut self, gauge: &Gauge);

    /// The run ends before slot `t`: what slot `t − 1` owes other owners
    /// still reaches them. `sent` says whether slot `t`'s send ran.
    fn last(&mut self, _t: u64, _sent: bool) {}
}

/// The slot clock of one owner of links: its hop rules, its transport,
/// the injector when it draws, and the queue trace (see the module
/// docs).
pub struct Clock<S, T> {
    /// The hop rules over the owner's links: the scheme, the kernel, ARQ,
    /// the fault clock replica and the trace sink.
    pub hop: Hop<S>,
    /// Where the owner's slot traffic goes.
    pub transport: T,
    /// The task generator, on the owner that draws every source's tasks.
    pub(crate) injector: Option<Injector>,
    cfg: SimConfig,
    now: u64,
    /// `(slot, packets queued on the owner's links)` samples
    /// ([`SimConfig::trace_interval`]); a network's trace is the sum of
    /// its owners'.
    queue_trace: Vec<(u64, u64)>,
    /// The sink's `decimation()`; 0 disables slot sampling.
    obs_decim: u64,
    /// Scratch for the decimated per-link queue snapshot; swapped into
    /// each [`SlotSample`] and back so sampling allocates once per run.
    sample_links: Vec<u32>,
}

impl<S: Scheme, T: Transport> Clock<S, T> {
    /// The clock of the owner of `links` of `topo`, before its first
    /// slot, with no fault plan and no trace sink; with `draws`, it draws
    /// every source's tasks from `mix`.
    ///
    /// Refuses a scheme with more than [`MAX_PRIORITY_CLASSES`] classes
    /// and a scenario that does not fit `topo` and `mix`.
    pub fn new<N: Network>(
        topo: &N,
        scheme: S,
        mix: TrafficMix,
        cfg: &SimConfig,
        links: Range<u32>,
        draws: bool,
        transport: T,
    ) -> Result<Self, ConfigError> {
        let requested = scheme.num_priorities();
        if requested > MAX_PRIORITY_CLASSES {
            return Err(ConfigError::TooManyPriorityClasses {
                requested,
                max: MAX_PRIORITY_CLASSES,
            });
        }
        let dims = topo.dim_sizes();
        cfg.scenario
            .validate(&dims, mix.bernoulli)
            .map_err(ConfigError::Scenario)?;
        Ok(Self {
            hop: Hop::new(topo, scheme, cfg, links.start, links.end),
            transport,
            injector: draws.then(|| Injector::new(&dims, mix, cfg)),
            cfg: *cfg,
            now: 0,
            queue_trace: Vec::new(),
            obs_decim: 0,
            sample_links: Vec::new(),
        })
    }

    /// Installs an observability sink; its decimation is queried once,
    /// here.
    pub fn trace(&mut self, sink: Box<dyn TraceSink>) {
        self.obs_decim = sink.decimation();
        self.hop.obs = Some(sink);
    }

    /// The next slot to run: the slots run so far.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The run's configuration.
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// The hop rules, the transport and the queue trace.
    pub fn into_parts(self) -> (Hop<S>, T, Vec<(u64, u64)>) {
        (self.hop, self.transport, self.queue_trace)
    }

    /// Runs slots until one is decided not to exist. Returns the stop, or
    /// `None` when the transport abandoned the run.
    pub fn run<N: Network>(&mut self, topo: &N) -> Option<Stop> {
        // The state the run starts from is decided as a slot's end is.
        let gauge = self.gauge(self.now, 0);
        self.transport.publish(&gauge);
        loop {
            if let ControlFlow::Break(stop) = self.open(topo, true) {
                return stop;
            }
            self.close(topo);
        }
    }

    /// Runs one slot with no arrivals and no decision: a drain step.
    pub fn step<N: Network>(&mut self, topo: &N) {
        if self.open(topo, false).is_continue() {
            self.close(topo);
        }
    }

    /// The first half of slot `now`: seal, the fault tick and the send,
    /// and — when `live` — the injector's draw and the decision whether
    /// the slot runs, in the order of the module docs. `Break` ends the
    /// run: with the stop, or `None` when the transport abandoned it.
    pub fn open<N: Network>(&mut self, topo: &N, live: bool) -> ControlFlow<Option<Stop>> {
        let t = self.now;
        let faulted = self.hop.faults.is_some();
        let first = faulted || !T::SENDS_AHEAD;
        let tr = &mut self.transport;
        if tr.seal(t) {
            return ControlFlow::Break(None);
        }
        if live && first {
            if let ControlFlow::Break(stop) = tr.decide(t, true) {
                tr.last(t, false);
                return ControlFlow::Break(stop);
            }
        }
        if faulted {
            let hop = &mut self.hop;
            tr.fault_tick(t, |homes| hop.fault_tick(&mut HopCtx { topo, homes, t }));
        }
        // No draw reads a queue, only the fault clock, which has ticked.
        {
            let (out, owner) = tr.collect(t, &self.hop.kernel);
            if let Some(injector) = self.injector.as_mut().filter(|_| live) {
                let (scheme, faults) = (&self.hop.scheme, self.hop.faults.as_deref());
                injector.slot(t, scheme, faults, out, owner);
            }
        }
        if tr.send(t) || (first && tr.exchange(t)) {
            return ControlFlow::Break(None);
        }
        if live && !first {
            if let ControlFlow::Break(stop) = tr.decide(t, false) {
                tr.last(t, true);
                return ControlFlow::Break(stop);
            }
        }
        ControlFlow::Continue(())
    }

    /// The second half of slot `now`, which runs: the samples, the
    /// commit, the slot body and the gauge.
    pub fn close<N: Network>(&mut self, topo: &N) {
        let t = self.now;
        if self.cfg.queue_sampled_at(t) {
            self.queue_trace.push((t, self.hop.kernel.queued()));
        }
        if self.obs_decim > 0 && t.is_multiple_of(self.obs_decim) {
            self.obs_sample(t);
        }
        self.transport.commit(t);
        if let Some(gate) = self.injector.as_ref().and_then(Injector::gate) {
            self.hop.flow.rejected_broadcasts = gate.rejected_broadcasts;
            self.hop.flow.rejected_unicasts = gate.rejected_unicasts;
        }
        let (homes, runs, arrivals, each_start) = self.transport.inputs(t);
        let mut cx = HopCtx { topo, homes, t };
        let pre_service = self.hop.slot(&mut cx, runs, arrivals, each_start);
        self.now = t + 1;
        let gauge = self.gauge(t + 1, pre_service);
        self.transport.publish(&gauge);
    }

    /// The owner's gauge before slot `next`, whose predecessor sampled
    /// `pre_service` packets before its service starts.
    fn gauge(&mut self, next: u64, pre_service: u64) -> Gauge {
        let (deferred, deferred_measured) = self.hop.deferred();
        let kernel = &self.hop.kernel;
        Gauge {
            queued: kernel.queued() as i64,
            pre_service: pre_service as i64,
            outstanding: self.transport.homes().ledger().outstanding_measured()
                + deferred_measured as i64,
            deferred: deferred as i64,
            unstable: self.cfg.single_queue_tripped(next, || kernel.max_qlen()),
        }
    }

    /// Builds and delivers one decimated queue-state snapshot. Only
    /// called at sampling instants, so the O(links) scan never touches
    /// an untraced run.
    fn obs_sample(&mut self, slot: u64) {
        let kernel = &self.hop.kernel;
        let links = kernel.n_links() as u32;
        let mut queued_by_link = std::mem::take(&mut self.sample_links);
        queued_by_link.clear();
        queued_by_link.reserve(links as usize);
        let mut sample = SlotSample {
            slot,
            queued_total: kernel.queued(),
            in_flight_links: 0,
            queued_by_class: [0; MAX_PRIORITY_CLASSES],
            queued_by_link,
        };
        for l in 0..links {
            let mut qlen = 0;
            for (c, acc) in sample.queued_by_class.iter_mut().enumerate() {
                let n = kernel.class_len(l, c);
                *acc += n as u64;
                qlen += n;
            }
            sample.queued_by_link.push(qlen as u32);
            if kernel.is_busy(l) {
                sample.in_flight_links += 1;
            }
        }
        if let Some(sink) = self.hop.obs.as_deref_mut() {
            sink.on_slot_sample(&sample);
        }
        self.sample_links = sample.queued_by_link;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultepoch::FaultClock;
    use crate::ledger::TaskLedger;
    use crate::packet::{BroadcastState, Emit, PacketKind};
    use crate::recovery::AdmissionConfig;
    use pstar_faults::{DeadLinkPolicy, FaultPlan};
    use pstar_topology::{Direction, LinkId, Torus};
    use rand::rngs::StdRng;

    /// A scheme whose tasks make one hop and go no further.
    struct OneHop;

    impl Scheme for OneHop {
        fn num_priorities(&self) -> usize {
            1
        }

        fn on_broadcast_generated(&self, src: NodeId, _: &mut StdRng, out: &mut Vec<Emit>) {
            let state = BroadcastState {
                src,
                ending_dim: 0,
                phase: 0,
                dir: Direction::Plus,
                hops_left: 1,
                flip: false,
            };
            out.push(Emit {
                dim: 0,
                dir: Direction::Plus,
                kind: PacketKind::Broadcast(state),
                priority: 0,
                vc: 1,
            });
        }

        fn on_broadcast_arrival(&self, _: NodeId, _: &BroadcastState, _: &mut Vec<Emit>) {}

        fn on_unicast_generated(&self, _: NodeId, _: NodeId, _: &mut StdRng, _: &mut Vec<Emit>) {}

        fn on_unicast_arrival(&self, _: NodeId, _: NodeId, _: &mut StdRng, _: &mut Vec<Emit>) {}

        fn subtree_receptions(&self, _: &BroadcastState) -> u32 {
            1
        }
    }

    /// A transport that records the clock's calls as `(what, slot)` — a
    /// decision as the slot it decides on, the one before the slot that
    /// asks — and decides that slot `stop_at` does not run. With `AHEAD`
    /// it sends ahead of the decision, as a fleet does.
    struct Recorder<const AHEAD: bool> {
        ledger: TaskLedger,
        arrivals: InjectBatch,
        stop_at: u64,
        calls: Vec<(&'static str, i64)>,
    }

    impl<const AHEAD: bool> Transport for Recorder<AHEAD> {
        type Homes = TaskLedger;
        type Out = InjectBatch;
        const SENDS_AHEAD: bool = AHEAD;

        fn homes(&mut self) -> &mut TaskLedger {
            &mut self.ledger
        }

        fn seal(&mut self, t: u64) -> bool {
            self.calls.push(("seal", t as i64));
            false
        }

        fn decide(&mut self, t: u64, _first: bool) -> ControlFlow<Option<Stop>> {
            self.calls.push(("decide", t as i64 - 1));
            match t == self.stop_at {
                true => ControlFlow::Break(Some(Stop::Horizon)),
                false => ControlFlow::Continue(()),
            }
        }

        fn fault_tick(&mut self, t: u64, tick: impl FnOnce(&mut TaskLedger) -> bool) {
            tick(&mut self.ledger);
            self.calls.push(("fault tick", t as i64));
        }

        fn collect(
            &mut self,
            t: u64,
            _kernel: &LinkKernel,
        ) -> (&mut [InjectBatch], impl Fn(NodeId) -> usize) {
            self.calls.push(("send", t as i64));
            (std::slice::from_mut(&mut self.arrivals), |_| 0)
        }

        fn commit(&mut self, t: u64) {
            self.calls.push(("commit", t as i64));
        }

        fn inputs(
            &mut self,
            t: u64,
        ) -> (
            &mut TaskLedger,
            impl IntoIterator<Item = Option<&mut Deliveries>>,
            &mut InjectBatch,
            impl FnMut(u32, &Packet),
        ) {
            self.calls.push(("process", t as i64));
            (&mut self.ledger, [None], &mut self.arrivals, |_, _| {})
        }

        fn publish(&mut self, _gauge: &Gauge) {}

        fn last(&mut self, t: u64, _sent: bool) {
            self.calls.push(("last", t as i64));
        }
    }

    /// A clock on an 8-node ring whose transport decides that slot
    /// `stop_at` does not run, drawing broadcasts at rate 2 a node.
    fn recorded<const AHEAD: bool>(
        cfg: SimConfig,
        stop_at: u64,
        faulted: bool,
    ) -> (Torus, Clock<OneHop, Recorder<AHEAD>>) {
        let topo = Torus::new(&[8]);
        let recorder = Recorder {
            ledger: TaskLedger::new(&cfg, 8, topo.diameter()),
            arrivals: InjectBatch::default(),
            stop_at,
            calls: Vec::new(),
        };
        let mix = TrafficMix::broadcast_only(2.0);
        let links = 0..topo.link_count();
        let mut clock = Clock::new(&topo, OneHop, mix, &cfg, links, true, recorder).unwrap();
        if faulted {
            let plan = FaultPlan::link_outage_window(&[LinkId(0)], 1, 2);
            let faults = FaultClock::new(plan, &topo);
            clock.hop.install_faults(faults, DeadLinkPolicy::Drop);
        }
        (topo, clock)
    }

    /// The calls of a run whose slot 3 does not exist, when slot `t`
    /// begins with `top(t)`.
    fn three_slots(top: impl Fn(i64) -> Vec<(&'static str, i64)>) -> Vec<(&'static str, i64)> {
        let mut expected = Vec::new();
        for t in 0..3 {
            expected.extend(top(t));
            expected.extend([("commit", t), ("process", t)]);
        }
        let last = top(3);
        let decided = last.iter().position(|c| c.0 == "decide").unwrap();
        expected.extend_from_slice(&last[..=decided]);
        expected.push(("last", 3));
        expected
    }

    /// A fleet without a fault plan sends slot `t` before slot `t − 1` is
    /// decided; with one, or on one owner, the decision comes first,
    /// ahead of the fault tick and the draw. The slot decided last is
    /// followed by nothing but what it owes.
    #[test]
    fn a_slot_runs_in_the_one_order() {
        let ahead = |t: i64| vec![("seal", t), ("send", t), ("decide", t - 1)];
        let first = |t: i64| vec![("seal", t), ("decide", t - 1), ("send", t)];
        let faulted = |t: i64| {
            let tick = ("fault tick", t);
            vec![("seal", t), ("decide", t - 1), tick, ("send", t)]
        };
        let (topo, mut fleet) = recorded::<true>(SimConfig::quick(5), 3, false);
        assert_eq!(fleet.run(&topo), Some(Stop::Horizon));
        assert_eq!(fleet.now(), 3);
        assert_eq!(fleet.transport.calls, three_slots(ahead));
        let (topo, mut fleet) = recorded::<true>(SimConfig::quick(5), 3, true);
        assert_eq!(fleet.run(&topo), Some(Stop::Horizon));
        assert_eq!(fleet.transport.calls, three_slots(faulted));
        let (topo, mut owner) = recorded::<false>(SimConfig::quick(5), 3, false);
        assert_eq!(owner.run(&topo), Some(Stop::Horizon));
        assert_eq!(owner.transport.calls, three_slots(first));
    }

    /// A fleet's send of the slot after the last one runs ahead of the
    /// decision and draws its tasks through the admission gate, but its
    /// rejections never reach the report: only a committed slot's do.
    /// One owner draws nothing for a slot that does not exist.
    #[test]
    fn an_uncommitted_send_leaves_nothing_in_the_report() {
        let cfg = SimConfig {
            admission: Some(AdmissionConfig {
                rate: 0.01,
                burst: 1.0,
            }),
            warmup_slots: 0,
            ..SimConfig::quick(5)
        };
        let (topo, mut fleet) = recorded::<true>(cfg, 6, false);
        assert_eq!(fleet.run(&topo), Some(Stop::Horizon));
        let reported = fleet.hop.flow.rejected_broadcasts;
        let drawn = fleet.injector.as_ref().and_then(Injector::gate).unwrap();
        assert!(reported > 0, "committed slots reject at this rate");
        assert!(
            drawn.rejected_broadcasts > reported,
            "slot 6's draw rejected more: {} vs {reported}",
            drawn.rejected_broadcasts
        );
        let calls = &fleet.transport.calls;
        assert!(!calls.contains(&("commit", 6)) && !calls.contains(&("process", 6)));
        let (topo, mut owner) = recorded::<false>(cfg, 6, false);
        assert_eq!(owner.run(&topo), Some(Stop::Horizon));
        let drawn = owner.injector.as_ref().and_then(Injector::gate).unwrap();
        assert_eq!(drawn.rejected_broadcasts, reported);
        assert_eq!(owner.hop.flow.rejected_broadcasts, reported);
    }
}
