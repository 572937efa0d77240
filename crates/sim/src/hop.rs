//! The hop rule, written once: what happens to a copy at a node, and
//! the order a slot applies it in.
//!
//! The paper's model is one rule applied at every node: a copy finishes
//! its link, the node counts the reception and forwards the copy along
//! the STAR tree or the e-cube next hop, and a copy that cannot be placed
//! is lost. [`Hop`] holds the state every owner of a [`LinkKernel`]
//! carries for that — the scheme, the kernel, the ARQ layer, its replica
//! of the fault clock, the trace sink, the tasks waiting at its sources,
//! the forward and loss scratch and the link-target table — and writes
//! the rules once:
//!
//! 1. [`Hop::deliver`] — a copy finished its link: trace it, count the
//!    ARQ ack, record the reception, and offer each forward as the scheme
//!    hands it over ([`Scheme::each_broadcast_forward`]).
//! 2. `Offer::offer` — a transmission is offered to a node's link: the
//!    kernel queues, evicts for or refuses it, and whatever it turns
//!    away is lost.
//! 3. `Offer::lose` — a copy is lost: ARQ arms a retry, or the loss
//!    settles for good against the scheme's receptions at stake.
//! 4. [`Hop::fire_retransmissions`] — due ARQ timers re-admit their
//!    copies at the hop that lost them.
//! 5. [`Hop::fault_tick`] — a fault epoch: what it loses settles against
//!    the scheme as it still is, then the scheme sees the new view.
//! 6. [`Hop::arrive`] — a task arrives at its source: under source
//!    backpressure it waits while an out-link of the source is full;
//!    otherwise it opens at its home and offers its first transmissions
//!    ([`Hop::inject`]).
//!
//! [`Hop::slot`] is the one slot body: deliveries in ascending link
//! order, due retransmissions, arrivals, the occupancy sample, service
//! starts. The serial [`crate::Engine`] runs one `Hop` over every link
//! and each `pstar-net` worker one over the links of its nodes; the one
//! slot clock around it ([`crate::Clock`]) ticks the fault clock, then
//! calls `Hop::slot` once a slot. A driver lends it a [`HopCtx`] — its topology, its [`Homes`] (where a task's
//! completion record lives) and the slot — the deliveries other owners
//! made to its nodes, and the slot's tasks from the one
//! [`crate::Injector`]; it keeps only its transport and where a task's
//! home is.
//!
//! A transit unicast's tie coin (§4: an n/2 wrap tie goes + or −
//! uniformly at random) is the one draw made after a task's arrival. It
//! comes from a stream of the node it is delivered to ([`TieCoins`]),
//! so every driver draws the same coin for the same delivery.

use crate::arrivals::{InjectBatch, InjectMsg};
use crate::config::SimConfig;
use crate::faultepoch::{FaultClock, FaultLoss, LossCause};
use crate::kernel::{Admit, LinkKernel};
use crate::ledger::{ArqCounters, FaultTotals, FlowCounters, LinkCounters, TaskLedger};
use crate::packet::{Emit, Packet, PacketKind};
use crate::recovery::{splitmix64, Arq, FullQueuePolicy, ARQ_SEED_SALT};
use crate::scheme::Scheme;
use pstar_faults::DeadLinkPolicy;
use pstar_obs::{TraceEvent, TraceRecord, TraceSink};
use pstar_topology::{Network, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Seed perturbation of the tie coins: XOR it into the run seed, so the
/// coins share no stream with a traffic stream's seed or the ARQ
/// jitter's.
const TIE_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// The tie coins of transit unicasts: one stream per node, the stream of
/// node `v` seeded from `splitmix64(splitmix64(seed ^ TIE_SALT) ^ v)`.
/// The run seed is hashed before the node is mixed in, so two seeds
/// share no node's stream. A stream is seeded when its node first needs
/// it, so building an engine seeds nothing.
///
/// Every driver handles the deliveries to a node in the same order —
/// slot by slot, each slot's in ascending link order, by the node's
/// owner — because the queues' insertion order depends on it. So a
/// node's ties are drawn in the same order, from the same stream, at any
/// partition, and the scheme is asked once per delivery.
pub(crate) struct TieCoins {
    /// `splitmix64(seed ^ TIE_SALT)`.
    salt: u64,
    /// Each node's stream, once seeded.
    streams: Vec<Option<StdRng>>,
}

impl TieCoins {
    /// The coins of run `seed` on a topology of `nodes` nodes.
    pub(crate) fn new(seed: u64, nodes: u32) -> Self {
        Self {
            salt: splitmix64(seed ^ TIE_SALT),
            streams: vec![None; nodes as usize],
        }
    }

    /// The stream a transit unicast at `node` draws its tie from.
    #[inline]
    pub(crate) fn at(&mut self, node: NodeId) -> &mut StdRng {
        let salt = self.salt;
        self.streams[node.index()]
            .get_or_insert_with(|| StdRng::seed_from_u64(splitmix64(salt ^ u64::from(node.0))))
    }
}

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

    /// Task `msg` starts at its source at slot `t`: count it there and
    /// keep its record at its home. Returns the id its packets carry.
    fn open(&mut self, t: u64, msg: &InjectMsg) -> u32;

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

    fn open(&mut self, t: u64, msg: &InjectMsg) -> u32 {
        self.open_task(t, msg.gen_time, msg.dest.is_none(), msg.measured)
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

/// One owner's deliveries to another owner's nodes in one slot, as
/// `(link, packet)` in ascending link order: a run [`Hop::slot`] takes.
pub type Deliveries = Vec<(u32, Packet)>;

/// What a driver lends the hop rules: its topology, its [`Homes`] and
/// the slot.
pub struct HopCtx<'a, N, H> {
    /// The topology (link ids, hop distances).
    pub topo: &'a N,
    /// Where the driver's tasks are completed.
    pub homes: &'a mut H,
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
    /// Source backpressure's waiting tasks; `None` unless
    /// [`FullQueuePolicy::Backpressure`] bounds the queues.
    deferral: Option<Box<Deferral>>,
    /// Transit unicasts' tie coins, one stream per node.
    coins: TieCoins,
    /// Deferrals and the occupancy the driver samples; the driver sets
    /// the admission rejections its injector counted.
    pub flow: FlowCounters,
    /// Receiving node of every link of the topology.
    link_target: Vec<NodeId>,
    /// The nodes this owner's links leave from, and so the deliveries
    /// its finish scan makes: another owner holds the rest.
    nodes: Range<u32>,
    /// The measurement window, whose slots' occupancy is sampled.
    window: Range<u64>,
    /// Scratch for one delivery's forwards, where the scheme collects
    /// them: a transit unicast's, or a broadcast's under a scheme that
    /// keeps [`Scheme::each_broadcast_forward`]'s default.
    emits: Vec<Emit>,
    /// Scratch for a fault epoch's losses.
    losses: Vec<FaultLoss>,
}

/// The tasks waiting at this owner's sources under source backpressure.
/// A source's out-links all belong to one owner (link ids are
/// node-major), so whether its tasks wait depends on that owner's queues
/// alone, and different sources never interact.
struct Deferral {
    /// The bound a full out-link is at.
    capacity: usize,
    /// This owner's out-links of each node.
    out_links: Vec<Vec<u32>>,
    /// The waiting tasks in arrival order, drawn in full.
    tasks: InjectBatch,
    /// Scratch the retry pass refills.
    spare: InjectBatch,
    /// How many of them are measured.
    measured: u64,
}

impl Deferral {
    /// `true` while an out-link of `src` is at capacity.
    fn blocked(&self, kernel: &LinkKernel, src: NodeId) -> bool {
        self.out_links[src.index()]
            .iter()
            .any(|&l| kernel.qlen(l) >= self.capacity)
    }
}

/// Records one trace event — the single branch a site pays when
/// tracing is off.
#[inline]
fn record(obs: &mut Option<Box<dyn TraceSink>>, slot: u64, event: TraceEvent) {
    if let Some(sink) = obs.as_deref_mut() {
        sink.record(TraceRecord { slot, event });
    }
}

/// What rules 2 and 3 touch of a [`Hop`]: the scheme, shared, and the
/// kernel, the ARQ layer and the trace sink. Borrowed apart from the
/// forward scratch, so the scheme can hand a delivery's forwards over
/// while each is offered.
struct Offer<'h, S> {
    scheme: &'h S,
    kernel: &'h mut LinkKernel,
    arq: &'h mut Option<Box<Arq>>,
    obs: &'h mut Option<Box<dyn TraceSink>>,
}

impl<S: Scheme> Offer<'_, S> {
    /// Rule 2: offers `emit` — a transmission of `task`, generated at
    /// `gen_time`, `len` slots long — to `from`'s outgoing link at slot
    /// `cx.t`. A packet the kernel refuses or evicts is lost.
    ///
    /// Always inlined: it runs for every forward and every new task's
    /// transmission, and a call there passes eight arguments.
    #[inline(always)]
    fn offer<N: Network, H: Homes>(
        &mut self,
        cx: &mut HopCtx<'_, N, H>,
        from: NodeId,
        emit: Emit,
        task: u32,
        gen_time: u64,
        len: u16,
    ) {
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
                return;
            }
        }
        let class = pkt.priority;
        record(self.obs, cx.t, TraceEvent::Enqueue { link, class, task });
    }

    /// Rule 3: `pkt` was lost at `link` in slot `cx.t`. With ARQ the
    /// copy's receptions stay alive and a backoff timer is armed;
    /// without it — or once the retry budget is spent, the `GaveUp`
    /// terminal state — the loss settles for good. A
    /// [`LossCause::Retry`] is a failed re-injection, not a new drop.
    ///
    /// Never inlined: losses are rare, and inlined into a `pstar-net`
    /// worker's slot loop this grew the delivery path.
    #[inline(never)]
    fn lose<N, H: Homes>(
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
        record(
            self.obs,
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
        let (broadcast, receptions) = receptions_at_stake(self.scheme, &pkt);
        let lost_measured = cx
            .homes
            .lost_for_good(t, &pkt, broadcast, receptions, cause);
        if let Some(arq) = self.arq.as_deref_mut() {
            arq.counters.gave_up_receptions += lost_measured;
        }
    }
}

impl<S: Scheme> Hop<S> {
    /// Idle state for the global links `lo .. hi` of `topo`, with ARQ and
    /// source backpressure as `cfg` says and no fault plan.
    pub fn new<N: Network>(topo: &N, scheme: S, cfg: &SimConfig, lo: u32, hi: u32) -> Self {
        let n = topo.node_count();
        // Link ids are node-major: a part of the links leaves from the
        // nodes from its first link's source up to the next part's. The
        // whole network is built without the source table, which is
        // costly on a large topology.
        let nodes = if hi - lo == topo.link_count() {
            0..n
        } else {
            let sources = topo.link_source_table();
            sources[lo as usize].0..sources.get(hi as usize).map_or(n, |v| v.0)
        };
        let deferral = cfg
            .queue_capacity
            .filter(|_| cfg.full_queue_policy == FullQueuePolicy::Backpressure)
            .map(|capacity| {
                let mut out_links = vec![Vec::new(); n as usize];
                let sources = topo.link_source_table();
                for l in lo..hi {
                    out_links[sources[l as usize].index()].push(l);
                }
                Box::new(Deferral {
                    capacity: capacity as usize,
                    out_links,
                    tasks: InjectBatch::default(),
                    spare: InjectBatch::default(),
                    measured: 0,
                })
            });
        Self {
            scheme,
            kernel: LinkKernel::new(cfg, topo.d(), lo, hi),
            arq: cfg
                .arq
                .map(|a| Box::new(Arq::new(a, cfg.seed ^ ARQ_SEED_SALT))),
            faults: None,
            obs: None,
            deferral,
            coins: TieCoins::new(cfg.seed, n),
            flow: FlowCounters::default(),
            link_target: topo.link_target_table(),
            nodes,
            window: cfg.warmup_slots..cfg.measure_end(),
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

    /// The forward scratch (a steady-state slot reuses it as it is).
    pub fn emit_scratch(&self) -> &Vec<Emit> {
        &self.emits
    }

    /// Records one trace event (see [`record`]).
    #[inline]
    fn record(&mut self, slot: u64, event: TraceEvent) {
        record(&mut self.obs, slot, event);
    }

    /// The part of this owner a transmission offered to its links
    /// touches, and the forward scratch beside it.
    #[inline]
    fn offering(&mut self) -> (Offer<'_, S>, &mut Vec<Emit>) {
        let Hop {
            scheme,
            kernel,
            arq,
            obs,
            emits,
            ..
        } = self;
        let to = Offer {
            scheme,
            kernel,
            arq,
            obs,
        };
        (to, emits)
    }

    /// A delivered copy of a task was acknowledged over the ARQ control
    /// plane.
    #[inline]
    fn acked(&mut self, pkt: &Packet) {
        if let Some(arq) = self.arq.as_deref_mut() {
            arq.counters.acked(pkt.attempt);
        }
    }

    /// Tasks waiting at this owner's sources, and how many of them are
    /// measured: occupancy the links have not accepted yet, and tasks the
    /// drain waits for.
    pub fn deferred(&self) -> (u64, u64) {
        self.deferral
            .as_ref()
            .map_or((0, 0), |d| (d.tasks.msgs.len() as u64, d.measured))
    }

    /// `true` when no link holds a packet, no task waits at its source
    /// and no retransmission timer is armed — the drain condition.
    pub(crate) fn is_idle(&self) -> bool {
        self.kernel.is_idle()
            && self.deferred().0 == 0
            && self.arq.as_ref().is_none_or(|a| a.is_idle())
    }

    /// One slot `cx.t` of this owner, after its fault tick, in the
    /// model's phase order:
    ///
    /// 1. The slot's deliveries, in ascending link order (`Hop::deliver`):
    ///    `runs` holds one entry per owner in owner order — the ascending
    ///    run of deliveries another owner made to this owner's nodes, or
    ///    `None` in this owner's own place, once, where its finish scan
    ///    delivers, skipping the deliveries whose targets another owner
    ///    holds. That order is the one every driver shares: a node's
    ///    same-slot forwards enter each queue alike, and its tie coins
    ///    fall alike.
    /// 2. Due ARQ retransmissions (`Hop::fire_retransmissions`).
    /// 3. The slot's `arrivals` at this owner's sources (`Hop::arrive`),
    ///    after the recovered and the waiting work, which keeps its age
    ///    order.
    /// 4. The occupancy sample: the packets queued after the slot's
    ///    enqueues and before its service.
    /// 5. Service starts (`Hop::start`); `each_start` sees each.
    ///
    /// The runs are drained and the arrivals emptied. Returns the sampled
    /// occupancy, which the queue peak is taken over.
    ///
    /// Always inlined: each driver calls it once, and inlined, its
    /// context stays in registers across the deliveries instead of being
    /// reloaded through a reference (out of line, serial `ucast16_rho30`
    /// ran about 15 % slower on a 2-core VM).
    #[inline(always)]
    pub fn slot<'r, N: Network, H: Homes>(
        &mut self,
        cx: &mut HopCtx<'_, N, H>,
        runs: impl IntoIterator<Item = Option<&'r mut Deliveries>>,
        arrivals: &mut InjectBatch,
        each_start: impl FnMut(u32, &Packet),
    ) -> u64 {
        let mut last_link = None;
        for run in runs {
            let Some(run) = run else {
                let mut scan = self.kernel.finish_scan();
                while let Some((link, pkt)) = self.kernel.next_finished(&mut scan, cx.t) {
                    if self.nodes.contains(&self.link_target[link as usize].0) {
                        let pkt = *pkt;
                        debug_assert!(last_link < Some(link), "deliveries out of link order");
                        last_link = Some(link);
                        self.deliver(cx, link, pkt);
                    }
                }
                continue;
            };
            for (link, pkt) in run.drain(..) {
                debug_assert!(last_link < Some(link), "deliveries out of link order");
                last_link = Some(link);
                self.deliver(cx, link, pkt);
            }
        }
        self.fire_retransmissions(cx);
        self.arrive(cx, arrivals);
        arrivals.clear();
        let queued = self.kernel.queued();
        if self.window.contains(&cx.t) {
            self.flow.occupancy_sum += queued as u128;
        }
        self.start(cx.t, each_start);
        queued
    }

    /// Rule 6: slot `cx.t`'s `arrivals` at this owner's sources, in draw
    /// order, after the tasks that wait from earlier slots have retried
    /// in theirs. Under source backpressure a task whose source has a
    /// full out-link waits — as drawn, its arrival slot kept as its
    /// generation time so the wait counts inside its delays; any other
    /// task is injected.
    pub(crate) fn arrive<N: Network, H: Homes>(
        &mut self,
        cx: &mut HopCtx<'_, N, H>,
        arrivals: &InjectBatch,
    ) {
        let Some(mut d) = self.deferral.take() else {
            for (msg, emits) in arrivals.iter() {
                self.inject(cx, msg, emits);
            }
            return;
        };
        // Within the arrival phase queues only grow, so a task that still
        // waits here blocks every later arrival at its source as well.
        let mut waiting = std::mem::take(&mut d.spare);
        for (msg, emits) in d.tasks.iter() {
            if d.blocked(&self.kernel, msg.src) {
                waiting.push(msg, emits);
                continue;
            }
            if msg.measured {
                d.measured -= 1;
                self.flow.deferred_injections += 1;
                self.flow.defer_delay.push(cx.t - msg.gen_time);
            }
            self.inject(cx, msg, emits);
        }
        d.tasks.clear();
        d.spare = std::mem::replace(&mut d.tasks, waiting);
        for (msg, emits) in arrivals.iter() {
            if d.blocked(&self.kernel, msg.src) {
                d.measured += u64::from(msg.measured);
                d.tasks.push(msg, emits);
            } else {
                self.inject(cx, msg, emits);
            }
        }
        self.deferral = Some(d);
    }

    /// Rule 6 past its gate: opens `msg`'s task at its home
    /// ([`Homes::open`]) and offers its initial transmissions `emits` at
    /// its source. Returns the task's id.
    pub(crate) fn inject<N: Network, H: Homes>(
        &mut self,
        cx: &mut HopCtx<'_, N, H>,
        msg: &InjectMsg,
        emits: &[Emit],
    ) -> u32 {
        let task = cx.homes.open(cx.t, msg);
        let (mut to, _) = self.offering();
        for &emit in emits {
            to.offer(cx, msg.src, emit, task, msg.gen_time, msg.len);
        }
        task
    }

    /// Rule 1: `pkt` finished `link` at slot `cx.t`. A broadcast copy is
    /// a reception and forwards along its tree; a unicast at its
    /// destination completes, elsewhere it takes the next hop.
    ///
    /// A broadcast's forwards are offered as the scheme hands them over
    /// ([`Scheme::each_broadcast_forward`]), so a scheme that builds them
    /// one by one writes each once, into its queue node, and no forward
    /// is stored and read back in between (on a 2-core VM the read-back
    /// of a just-written forward stalled on store-to-load forwarding).
    ///
    /// Always inlined: it runs for every delivered copy, and
    /// [`Hop::slot`] calls it for its peers' runs and for its own
    /// finish scan, where it would otherwise stay out of line.
    #[inline(always)]
    pub(crate) fn deliver<N: Network, H: Homes>(
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
        let (task, gen_time, len) = (pkt.task, pkt.gen_time, pkt.len);
        match pkt.kind {
            PacketKind::Broadcast(state) => {
                // Every reception is ACKed to the source over the
                // (contention-free) control plane while ARQ is on.
                self.acked(&pkt);
                let topo = cx.topo;
                cx.homes
                    .broadcast_received(t, &pkt, || topo.distance(state.src, node));
                let (mut to, emits) = self.offering();
                let scheme = to.scheme;
                scheme.each_broadcast_forward(
                    node,
                    &state,
                    emits,
                    // Without the attribute the closure stays out of line:
                    // a call per forward, the `Emit` passed in memory.
                    #[inline(always)]
                    |emit| to.offer(cx, node, emit, task, gen_time, len),
                );
            }
            PacketKind::Unicast { dest } if node == dest => {
                self.acked(&pkt);
                cx.homes.unicast_arrived(t, &pkt);
            }
            PacketKind::Unicast { dest } => {
                self.emits.clear();
                let rng = self.coins.at(node);
                self.scheme
                    .on_unicast_arrival(node, dest, rng, &mut self.emits);
                debug_assert!(!self.emits.is_empty(), "unicast stranded at {node}");
                let (mut to, emits) = self.offering();
                for &emit in emits.iter() {
                    to.offer(cx, node, emit, task, gen_time, len);
                }
            }
        }
    }

    /// Rule 3 (see [`Offer::lose`]).
    pub(crate) fn lose<N, H: Homes>(
        &mut self,
        cx: &mut HopCtx<'_, N, H>,
        link: u32,
        pkt: Packet,
        cause: LossCause,
    ) {
        self.offering().0.lose(cx, link, pkt, cause);
    }

    /// Rule 4: fires the ARQ timers due at `cx.t`, re-injecting each copy
    /// at the hop that lost it — or, if the kernel refuses it (link
    /// still dead, bounded queue still full), losing it again, which
    /// arms the next backoff round or gives up.
    pub(crate) fn fire_retransmissions<N, H: Homes>(&mut self, cx: &mut HopCtx<'_, N, H>) {
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
    pub(crate) fn start(&mut self, t: u64, mut each: impl FnMut(u32, &Packet)) {
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
    use pstar_topology::{Direction, Torus};
    use rand::Rng;
    use std::cell::RefCell;

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

    /// A scheme at an exact tie on every transit hop: it draws `next_hop`'s
    /// coin and records it, so its length is how often it was asked.
    #[derive(Default)]
    struct Tied {
        coins: RefCell<Vec<bool>>,
    }

    impl Scheme for Tied {
        fn num_priorities(&self) -> usize {
            1
        }

        fn on_broadcast_generated(&self, _: NodeId, _: &mut StdRng, _: &mut Vec<Emit>) {}

        fn on_broadcast_arrival(&self, _: NodeId, _: &BroadcastState, _: &mut Vec<Emit>) {}

        fn on_unicast_generated(&self, _: NodeId, _: NodeId, _: &mut StdRng, _: &mut Vec<Emit>) {}

        fn on_unicast_arrival(
            &self,
            _: NodeId,
            dest: NodeId,
            rng: &mut StdRng,
            out: &mut Vec<Emit>,
        ) {
            let plus = rng.gen::<bool>();
            self.coins.borrow_mut().push(plus);
            out.push(Emit {
                dim: 0,
                dir: if plus {
                    Direction::Plus
                } else {
                    Direction::Minus
                },
                kind: PacketKind::Unicast { dest },
                priority: 0,
                vc: 0,
            });
        }

        fn subtree_receptions(&self, _: &BroadcastState) -> u32 {
            1
        }
    }

    /// `Hop::deliver` asks the scheme once per transit delivery and lends
    /// it the stream of the node delivered to: a node's coins follow its
    /// own deliveries, whatever the other nodes' ties in between.
    #[test]
    fn a_transit_tie_draws_once_from_its_node_s_stream() {
        let topo = Torus::new(&[8]);
        let cfg = SimConfig::quick(7);
        let mut hop = Hop::new(&topo, Tied::default(), &cfg, 0, topo.link_count());
        let mut ledger = TaskLedger::new(&cfg, 8, 2);
        let t = cfg.warmup_slots;
        let task = ledger.open_task(t, t, false, true);
        let targets = topo.link_target_table();
        // Deliveries to nodes other than the destination, node 0 among
        // them several times, interleaved with the others.
        let links: Vec<u32> = (0..topo.link_count())
            .filter(|&l| targets[l as usize] != NodeId(4))
            .cycle()
            .take(40)
            .collect();
        let mut cx = HopCtx {
            topo: &topo,
            homes: &mut ledger,
            t,
        };
        for &link in &links {
            let pkt = Packet {
                task,
                gen_time: t,
                enqueue_time: t,
                len: 1,
                priority: 0,
                vc: 0,
                attempt: 0,
                kind: PacketKind::Unicast { dest: NodeId(4) },
            };
            hop.deliver(&mut cx, link, pkt);
        }
        let drawn = hop.scheme.coins.borrow().clone();
        assert_eq!(drawn.len(), links.len(), "one ask per delivery");
        let mut fresh = TieCoins::new(7, topo.node_count());
        for (&link, &coin) in links.iter().zip(&drawn) {
            let node = targets[link as usize];
            assert_eq!(coin, fresh.at(node).gen::<bool>(), "link {link}");
        }
    }

    /// Pearson's χ² of a 2×2 contingency table against independence of
    /// its rows and columns (one degree of freedom).
    fn chi2_2x2(n: [[u64; 2]; 2]) -> f64 {
        let row = n.map(|r| (r[0] + r[1]) as f64);
        let col = [0, 1].map(|j| (n[0][j] + n[1][j]) as f64);
        let total = row[0] + row[1];
        let mut chi2 = 0.0;
        for (i, r) in n.iter().enumerate() {
            for (j, &count) in r.iter().enumerate() {
                let expected = row[i] * col[j] / total;
                chi2 += (count as f64 - expected).powi(2) / expected;
            }
        }
        chi2
    }

    /// The first `draws` coins of each of `nodes` nodes under `seed`.
    fn coin_grid(seed: u64, nodes: u32, draws: usize) -> Vec<Vec<bool>> {
        let mut c = TieCoins::new(seed, nodes);
        (0..nodes)
            .map(|v| (0..draws).map(|_| c.at(NodeId(v)).gen::<bool>()).collect())
            .collect()
    }

    /// The coins are fair, and independent of the next coin of the same
    /// node, of the neighbouring node's coin at the same draw, and of the
    /// coin of another seed: over a 64-node × 2 000-draw grid every χ²
    /// (one degree of freedom) stays under 10.83, the 0.1 % point. The
    /// other seed is `seed ^ 1` at node `v ^ 1`, the pair a seed XORed
    /// straight into the node key would make equal.
    #[test]
    fn the_tie_coins_are_fair_and_independent() {
        const NODES: u32 = 64;
        const DRAWS: usize = 2_000;
        let seed = 0xC0FFEE;
        let coins = coin_grid(seed, NODES, DRAWS);
        let other = coin_grid(seed ^ 1, NODES, DRAWS);
        let plus = coins.iter().flatten().filter(|&&p| p).count() as u64;
        let n = DRAWS as u64 * u64::from(NODES);
        let fair = (2.0 * plus as f64 - n as f64).powi(2) / n as f64;
        assert!(fair < 10.83, "+ {plus} of {n}: χ² {fair:.2}");
        let mut next_draw = [[0u64; 2]; 2];
        let mut next_node = [[0u64; 2]; 2];
        let mut next_seed = [[0u64; 2]; 2];
        for v in 0..NODES as usize {
            for i in 0..DRAWS {
                let here = usize::from(coins[v][i]);
                if i + 1 < DRAWS {
                    next_draw[here][usize::from(coins[v][i + 1])] += 1;
                }
                if v + 1 < NODES as usize {
                    next_node[here][usize::from(coins[v + 1][i])] += 1;
                }
                next_seed[here][usize::from(other[v ^ 1][i])] += 1;
            }
        }
        for (name, table) in [
            ("next draw", next_draw),
            ("next node", next_node),
            ("next seed", next_seed),
        ] {
            let chi2 = chi2_2x2(table);
            assert!(chi2 < 10.83, "{name}: {table:?} χ² {chi2:.2}");
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
