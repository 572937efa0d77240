//! The slotted simulation engine.

use crate::arrivals::{generate_arrivals_into, ArrivalSink};
use crate::config::{stop_verdict, SimConfig, Stop};
use crate::faultepoch::{FaultClock, FaultLoss, LossCause as DropCause};
use crate::kernel::{Admit, LinkKernel};
use crate::ledger::{assemble, receptions_at_stake, FlowCounters, RunOutcome, TaskLedger};
use crate::metrics::SimReport;
use crate::packet::{Emit, Packet, PacketKind, MAX_PRIORITY_CLASSES};
use crate::recovery::{Arq, FullQueuePolicy, TokenGate, ARQ_SEED_SALT};
use crate::scheme::Scheme;
use pstar_faults::{DeadLinkPolicy, FaultPlan};
use pstar_obs::{SlotSample, TraceEvent, TraceRecord, TraceSink};
use pstar_topology::{Network, NodeId};
use pstar_traffic::{DestSampler, ScenarioCursor, TrafficMix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

// `DropCause` is the crate-shared `LossCause` (see `faultepoch`): the
// runtime backend attributes losses with the identical vocabulary.

/// A task arrival deferred by source backpressure: it re-attempts
/// injection each slot, and its eventual `gen_time` stays the arrival
/// slot so defer time shows up in the delay statistics.
#[derive(Clone, Copy)]
struct DeferredTask {
    src: NodeId,
    dest: Option<NodeId>,
    arrival: u64,
    measured: bool,
}

/// Flow-control state (admission tokens, backpressure queue, overload
/// counters). Always present but empty/zero-cost when the features are
/// off.
struct FlowState {
    /// The admission gate; `None` unless admission control is on.
    gate: Option<TokenGate>,
    /// Arrival-ordered backpressured tasks; only ever non-empty under
    /// `FullQueuePolicy::Backpressure` with a finite capacity.
    deferred: VecDeque<DeferredTask>,
    /// Measured tasks currently deferred (keeps the drain loop alive
    /// until they inject).
    deferred_measured: u64,
    /// Outgoing links per node; built only for backpressure.
    out_links: Vec<Vec<u32>>,
    counters: FlowCounters,
}

/// The simulator: a torus, a routing scheme, a workload, and per-link
/// priority queues stepped slot by slot.
///
/// The queues, the in-flight transmissions and the service discipline
/// live in one [`LinkKernel`] over every link; the engine drives it and
/// owns what a delivery, a loss and an arrival mean. See the crate docs
/// for the timing model. Construction is cheap; `run` consumes the
/// engine and returns a [`SimReport`].
pub struct Engine<N: Network, S: Scheme> {
    topo: N,
    scheme: S,
    mix: TrafficMix,
    cfg: SimConfig,
    rng: StdRng,
    now: u64,

    /// Queueing and service for every link (dense `LinkId` order).
    kernel: LinkKernel,
    link_target: Vec<NodeId>,
    link_dim: Vec<u8>,

    dests: DestSampler,
    /// Scenario modulation cursor, advanced once per slot through the
    /// shared arrival generator.
    scenario: ScenarioCursor,

    // Measurement state (see `crate::ledger`).
    ledger: TaskLedger,
    tx_by_dim: Vec<u64>,
    peak_queue: i64,

    emit_buf: Vec<Emit>,
    /// Scratch for a fault epoch's losses; swapped out around the
    /// settle loop so fault bursts never allocate per event.
    loss_buf: Vec<FaultLoss>,
    /// Scratch for the decimated per-link queue snapshot; swapped into
    /// each [`SlotSample`] and back so sampling allocates once per run,
    /// not once per sample.
    sample_links: Vec<u32>,
    queue_trace: Vec<(u64, u64)>,
    unstable: bool,
    /// The fault clock of an engine with a non-empty plan. Behind an
    /// `Option` so the fault-free path pays nothing and — crucially —
    /// never touches the engine RNG: a run with no plan is
    /// bit-identical to one built before fault support existed.
    faults: Option<Box<FaultClock>>,
    /// ARQ recovery; behind an `Option` so the recovery-free path pays
    /// nothing and stays bit-identical to the pre-recovery engine.
    arq: Option<Box<Arq>>,
    flow: Box<FlowState>,
    /// Observability sink; `None` (default) keeps every trace site at a
    /// single never-taken branch and the run bit-identical to an engine
    /// built before tracing existed (pinned by the `tests/obs.rs`
    /// proptest). Sinks receive copies of engine state and can never
    /// influence the simulation (in particular: never the RNG).
    obs: Option<Box<dyn TraceSink>>,
    /// Cached `obs.decimation()`; 0 disables slot sampling.
    obs_decim: u64,
}

impl<N: Network, S: Scheme> Engine<N, S> {
    /// Builds an engine ready to run.
    pub fn new(topo: N, scheme: S, mix: TrafficMix, cfg: SimConfig) -> Self {
        assert!(
            scheme.num_priorities() <= MAX_PRIORITY_CLASSES,
            "scheme uses too many priority classes"
        );
        let dims = topo.dim_sizes();
        if let Err(e) = cfg.scenario.validate(&dims, mix.bernoulli) {
            panic!("invalid scenario config: {e}");
        }
        let dests = cfg
            .scenario
            .resolve_dests(&dims)
            .expect("validated just above");
        let n = topo.node_count();
        let flow = Box::new(FlowState {
            gate: cfg.admission.map(|adm| TokenGate::new(adm, n as usize)),
            deferred: VecDeque::new(),
            deferred_measured: 0,
            out_links: if matches!(cfg.full_queue_policy, FullQueuePolicy::Backpressure)
                && cfg.queue_capacity.is_some()
            {
                let mut out = vec![Vec::new(); n as usize];
                for (l, src) in topo.link_source_table().iter().enumerate() {
                    out[src.index()].push(l as u32);
                }
                out
            } else {
                Vec::new()
            },
            counters: FlowCounters::default(),
        });
        Self {
            kernel: LinkKernel::new(&cfg, topo.d(), 0, topo.link_count()),
            link_target: topo.link_target_table(),
            link_dim: topo.link_dim_table(),
            dests,
            scenario: ScenarioCursor::new(cfg.scenario),
            ledger: TaskLedger::new(&cfg, n, topo.diameter()),
            tx_by_dim: vec![0; topo.d()],
            peak_queue: 0,
            emit_buf: Vec::with_capacity(64),
            loss_buf: Vec::new(),
            sample_links: Vec::new(),
            queue_trace: Vec::new(),
            unstable: false,
            faults: None,
            arq: cfg
                .arq
                .map(|a| Box::new(Arq::new(a, cfg.seed ^ ARQ_SEED_SALT))),
            flow,
            obs: None,
            obs_decim: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            now: 0,
            topo,
            scheme,
            mix,
            cfg,
        }
    }

    /// Installs a fault plan (builder style). An empty plan is a no-op —
    /// the engine stays on the fault-free path and produces bit-identical
    /// results to an engine that never saw this call.
    ///
    /// `policy` selects what happens to packets on (or emitted toward) a
    /// dead link: dropped with full loss accounting, or held until
    /// repair.
    pub fn with_fault_plan(mut self, plan: FaultPlan, policy: DeadLinkPolicy) -> Self {
        if plan.is_empty() {
            self.faults = None;
            return self;
        }
        self.kernel.set_dead_link_policy(policy);
        self.faults = Some(Box::new(FaultClock::new(plan, &self.topo)));
        self
    }

    /// Installs an observability sink (builder style). The sink's
    /// decimation is queried once here; see [`pstar_obs::TraceSink`].
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.obs_decim = sink.decimation();
        self.obs = Some(sink);
        self
    }

    /// Records one trace event — the single branch the hot loop pays
    /// when tracing is disabled.
    #[inline]
    fn obs_record(&mut self, event: TraceEvent) {
        if let Some(sink) = self.obs.as_deref_mut() {
            let slot = self.now;
            sink.record(TraceRecord { slot, event });
        }
    }

    /// Builds and delivers one decimated queue-state snapshot. Only
    /// called at sampling instants (`obs_decim > 0`), so the O(links)
    /// scan never touches an untraced run.
    fn obs_sample(&mut self, slot: u64) {
        let links = self.kernel.n_links() as u32;
        let mut queued_by_link = std::mem::take(&mut self.sample_links);
        queued_by_link.clear();
        queued_by_link.reserve(links as usize);
        let mut sample = SlotSample {
            slot,
            queued_total: self.kernel.queued(),
            in_flight_links: 0,
            queued_by_class: [0; MAX_PRIORITY_CLASSES],
            queued_by_link,
        };
        for l in 0..links {
            let mut qlen = 0;
            for (c, acc) in sample.queued_by_class.iter_mut().enumerate() {
                let n = self.kernel.class_len(l, c);
                *acc += n as u64;
                qlen += n;
            }
            sample.queued_by_link.push(qlen as u32);
            if self.kernel.is_busy(l) {
                sample.in_flight_links += 1;
            }
        }
        if let Some(sink) = self.obs.as_deref_mut() {
            sink.on_slot_sample(&sample);
        }
        self.sample_links = sample.queued_by_link;
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of tasks currently in progress (and the slab's high-water
    /// allocation footprint).
    pub fn active_tasks(&self) -> (usize, usize) {
        self.ledger.active_tasks()
    }

    /// The simulated topology.
    pub fn topology(&self) -> &N {
        &self.topo
    }

    /// Total transmissions performed per dimension since construction
    /// (always counted, unlike the window-gated statistics) — used by the
    /// tree-shape tests that verify the `a_{i,l}` counts of Eq. (1).
    pub fn transmissions_per_dim(&self) -> &[u64] {
        &self.tx_by_dim
    }

    /// Injects a single broadcast task at `src`, tagged for measurement
    /// regardless of the window. Returns the task's slot id. Intended for
    /// deterministic tree/latency tests together with
    /// [`Engine::run_until_idle`].
    pub fn inject_broadcast(&mut self, src: NodeId) -> u32 {
        let now = self.now;
        self.new_task(src, None, true, None, now)
    }

    /// Injects a single unicast task, tagged for measurement.
    pub fn inject_unicast(&mut self, src: NodeId, dest: NodeId) -> u32 {
        assert_ne!(src, dest, "unicast to self");
        let now = self.now;
        self.new_task(src, Some(dest), true, None, now)
    }

    /// Queue occupancy as the divergence guard counts it:
    /// backpressure-deferred arrivals are occupancy the links haven't
    /// accepted yet.
    fn guarded_occupancy(&self) -> i64 {
        (self.kernel.queued() + self.flow.deferred.len() as u64) as i64
    }

    /// Replays a recorded workload trace instead of sampling arrivals.
    ///
    /// Events fire at their recorded slots with their recorded lengths;
    /// tasks generated inside the configured measurement window are
    /// tagged exactly as in a live run, so trace replays produce
    /// comparable reports. After the last event the network drains.
    pub fn replay(mut self, trace: &pstar_traffic::Trace) -> SimReport {
        let queue_limit = self.cfg.queue_limit(self.kernel.n_links());
        let mut next = 0;
        let events = trace.events();
        let mut completed = true;
        loop {
            while next < events.len() && events[next].slot == self.now {
                let ev = events[next];
                let measured = self.in_measure_window();
                let src = NodeId(ev.src);
                let dest = ev.dest.map(NodeId);
                if dest == Some(src) {
                    // Malformed external trace entry; skip rather than
                    // loop a self-addressed packet forever.
                    next += 1;
                    continue;
                }
                let now = self.now;
                self.new_task(src, dest, measured, Some(ev.len.max(1)), now);
                next += 1;
            }
            if next >= events.len() && self.fully_idle() {
                break;
            }
            if self.now >= self.cfg.max_slots {
                completed = false;
                break;
            }
            if self.guarded_occupancy() > queue_limit {
                self.unstable = true;
                completed = false;
                break;
            }
            self.step(false);
        }
        self.report(completed)
    }

    /// Steps until the network is completely idle (no queued or in-flight
    /// packets), without generating any arrivals. Returns the number of
    /// slots stepped. Panics after `max_slots` as a safety net.
    pub fn run_until_idle(&mut self) -> u64 {
        let start = self.now;
        while !self.fully_idle() {
            assert!(self.now < self.cfg.max_slots, "drain did not terminate");
            self.step(false);
        }
        self.now - start
    }

    /// `true` when no link holds a packet, no recovery timer is armed
    /// and no injection is deferred — the drain condition.
    #[inline]
    fn fully_idle(&self) -> bool {
        self.kernel.is_idle()
            && self.flow.deferred.is_empty()
            && self.arq.as_ref().is_none_or(|a| a.is_idle())
    }

    /// Runs the full warmup → measure → drain protocol and reports.
    pub fn run(self) -> SimReport {
        self.run_observed().0
    }

    /// As [`Engine::run`], but also hands back the installed
    /// observability sink (if any) so collected traces, samples, and
    /// counters can be read after the run (downcast via
    /// [`pstar_obs::TraceSink::into_any`]).
    pub fn run_observed(mut self) -> (SimReport, Option<Box<dyn TraceSink>>) {
        let queue_limit = self.cfg.queue_limit(self.kernel.n_links());
        let stop = loop {
            let verdict = stop_verdict(
                &self.cfg,
                self.now,
                self.ledger.outstanding_measured() as u64 + self.flow.deferred_measured,
                self.guarded_occupancy(),
                queue_limit,
                || {
                    self.cfg
                        .single_queue_tripped(self.now, || self.kernel.max_qlen())
                },
            );
            match verdict {
                Some(stop) => break stop,
                None => self.step(true),
            }
        };
        self.unstable = stop == Stop::Unstable;
        let sink = self.obs.take();
        (self.report(stop == Stop::Completed), sink)
    }

    // ------------------------------------------------------------------
    // Core stepping
    // ------------------------------------------------------------------

    fn step(&mut self, arrivals: bool) {
        let t = self.now;

        // Fault transitions take effect before anything else in the slot:
        // a link dying at `t` fails the delivery it would have made at
        // `t`. Fault-free engines never enter this branch.
        if self.faults.is_some() {
            self.fault_tick(t);
        }

        if let Some(k) = self.cfg.trace_interval {
            if t % k == 0 {
                self.queue_trace.push((t, self.kernel.queued()));
            }
        }

        // Decimated observability snapshot of the state the previous
        // slot left behind. `obs_decim > 0` only with a sink installed.
        if self.obs_decim > 0 && t % self.obs_decim == 0 {
            self.obs_sample(t);
        }

        // Phase 1: deliveries, in ascending link order — a deterministic
        // tie-break shared with the sharded engine's merge and
        // pstar-net's receiver-side merge, so every backend enqueues
        // same-slot forwards into each queue in the same order and
        // per-packet trajectories agree exactly (which the
        // fault-agreement gate relies on: boundary-straddling drops are
        // order-sensitive).
        let mut scan = self.kernel.finish_scan();
        while let Some((link, pkt)) = self.kernel.next_finished(&mut scan, t) {
            let pkt = *pkt;
            self.deliver(link, pkt);
        }

        // Phase 2: re-injections, then new tasks. Retransmission timers
        // and deferred (backpressured) injections fire before fresh
        // arrivals so recovered / older work keeps its age order.
        if self.arq.as_ref().is_some_and(|a| !a.is_idle()) {
            self.fire_retransmissions();
        }
        if !self.flow.deferred.is_empty() {
            self.retry_deferred();
        }
        if arrivals {
            if let Some(gate) = self.flow.gate.as_mut() {
                gate.refill();
            }
            self.generate_arrivals();
        }

        // Phase 3: service starts. The queued population is sampled
        // here, after the slot's enqueues and before its service.
        self.peak_queue = self.peak_queue.max(self.kernel.queued() as i64);
        if self.in_measure_window() {
            self.flow.counters.occupancy_sum += self.kernel.queued() as u128;
        }
        let faulted = self.faults.as_ref().is_some_and(|f| f.any_now());
        let (obs, tx_by_dim, link_dim) = (&mut self.obs, &mut self.tx_by_dim, &self.link_dim);
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
            tx_by_dim[link_dim[link as usize] as usize] += 1;
        });

        self.now = t + 1;
    }

    /// `true` when the node is crashed (never without faults).
    #[inline]
    fn node_dead(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.node_dead(node))
    }

    /// One slot of the engine's fault clock (only called with a plan):
    /// what an epoch loses settles against the scheme as it still is,
    /// then the scheme sees the new view.
    fn fault_tick(&mut self, t: u64) {
        let mut clock = self.faults.take().expect("fault_tick without plan");
        let mut losses = std::mem::take(&mut self.loss_buf);
        if clock.tick(t, &mut self.kernel, &mut losses) {
            for loss in losses.drain(..) {
                self.handle_loss(loss.link, loss.pkt, DropCause::Fault);
            }
            self.scheme.on_liveness_change(clock.view());
            if self.obs.is_some() {
                let view = clock.view();
                self.obs_record(TraceEvent::FaultEpoch {
                    dead_links: view.dead_link_count(),
                    dead_nodes: view.dead_node_count(),
                });
            }
        }
        self.loss_buf = losses;
        self.faults = Some(clock);
    }

    /// Central loss handler: with ARQ recovery the packet's receptions
    /// stay alive and a backoff timer is armed; without it (or once the
    /// retry budget is exhausted — the `GaveUp` terminal state) the loss
    /// is settled permanently.
    fn handle_loss(&mut self, link: u32, pkt: Packet, cause: DropCause) {
        if self.obs.is_some() {
            // A copy lost at this hop — possibly recovered later by ARQ;
            // terminal losses are distinguishable by a missing follow-up
            // `Retransmit` for the same link/class.
            self.obs_record(TraceEvent::Drop {
                link,
                class: pkt.priority,
                cause: cause.into(),
                task: pkt.task,
            });
        }
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
            if arq.on_loss(self.now, link, pkt, boosted) {
                self.ledger.mark_retx(pkt.task);
                self.ledger.packet_dropped(cause);
                return;
            }
        }
        // Terminal loss: settle the packet's future receptions.
        self.ledger.packet_dropped(cause);
        let (_, lost) = receptions_at_stake(&self.scheme, &pkt);
        let lost_measured = self.ledger.settle(self.now, pkt.task, lost, cause);
        if let Some(arq) = self.arq.as_deref_mut() {
            arq.counters.gave_up_receptions += lost_measured;
        }
    }

    fn deliver(&mut self, link: u32, pkt: Packet) {
        if self.obs.is_some() {
            self.obs_record(TraceEvent::Delivery {
                link,
                class: pkt.priority,
                age: self.now - pkt.gen_time,
                task: pkt.task,
            });
        }
        let node = self.link_target[link as usize];
        match pkt.kind {
            PacketKind::Broadcast(state) => {
                // Every broadcast reception is ACKed to the source over
                // the (contention-free) control plane while ARQ is on.
                if let Some(arq) = self.arq.as_deref_mut() {
                    arq.counters.acked(pkt.attempt);
                }
                self.ledger.reception(self.now, pkt.task, pkt.priority, || {
                    self.topo.distance(state.src, node)
                });
                self.emit_buf.clear();
                self.scheme
                    .on_broadcast_arrival(node, &state, &mut self.emit_buf);
                self.flush_emits(node, pkt.task, pkt.gen_time, pkt.len);
            }
            PacketKind::Unicast { dest } => {
                if node == dest {
                    if let Some(arq) = self.arq.as_deref_mut() {
                        arq.counters.acked(pkt.attempt);
                    }
                    self.ledger.unicast_done(self.now, pkt.task);
                } else {
                    self.emit_buf.clear();
                    self.scheme
                        .on_unicast_arrival(node, dest, &mut self.rng, &mut self.emit_buf);
                    debug_assert!(!self.emit_buf.is_empty(), "unicast stranded at {node}");
                    self.flush_emits(node, pkt.task, pkt.gen_time, pkt.len);
                }
            }
        }
    }

    /// Fires due retransmission timers: re-injects each copy at the hop
    /// where it was lost, or — if the kernel refuses it (link still
    /// dead, bounded queue still full) — arms the next backoff round
    /// (or gives up once the retry budget is spent).
    fn fire_retransmissions(&mut self) {
        let now = self.now;
        let due = self
            .arq
            .as_deref_mut()
            .expect("fire without ARQ")
            .take_due(now);
        for e in &due {
            if let Admit::Lost(pkt, cause) = self.kernel.readmit(e.link, e.pkt, now) {
                self.handle_loss(e.link, pkt, cause);
                continue;
            }
            if self.obs.is_some() {
                self.obs_record(TraceEvent::Retransmit {
                    link: e.link,
                    class: e.pkt.priority,
                    attempt: e.pkt.attempt,
                    task: e.pkt.task,
                });
            }
            self.arq
                .as_deref_mut()
                .expect("still installed")
                .counters
                .retransmissions += 1;
        }
        self.arq
            .as_deref_mut()
            .expect("still installed")
            .give_back(due);
    }

    /// Re-attempts backpressure-deferred injections in arrival order;
    /// tasks whose source still has a full output queue keep waiting.
    fn retry_deferred(&mut self) {
        let mut i = 0;
        while i < self.flow.deferred.len() {
            let d = self.flow.deferred[i];
            if self.source_blocked(d.src) {
                i += 1;
                continue;
            }
            self.flow.deferred.remove(i);
            if d.measured {
                self.flow.deferred_measured -= 1;
                self.flow.counters.deferred_injections += 1;
                self.flow.counters.defer_delay.push(self.now - d.arrival);
            }
            self.new_task(d.src, d.dest, d.measured, None, d.arrival);
        }
    }

    /// `true` when backpressure is on and any of `src`'s output queues
    /// is at capacity, so new injections from `src` must wait.
    #[inline]
    fn source_blocked(&self, src: NodeId) -> bool {
        if self.flow.out_links.is_empty() {
            return false;
        }
        let cap = self
            .cfg
            .queue_capacity
            .expect("backpressure without capacity") as usize;
        self.flow.out_links[src.index()]
            .iter()
            .any(|&l| self.kernel.qlen(l) >= cap)
    }

    /// Admission-control and backpressure gate in front of task
    /// creation. With both features off this is exactly `new_task`.
    fn arrive(&mut self, src: NodeId, dest: Option<NodeId>, measured: bool) {
        let gate = self.flow.gate.as_mut();
        if gate.is_some_and(|g| !g.admit(src.index(), dest.is_none(), measured)) {
            return;
        }
        if self.source_blocked(src) {
            if measured {
                self.flow.deferred_measured += 1;
            }
            self.flow.deferred.push_back(DeferredTask {
                src,
                dest,
                arrival: self.now,
                measured,
            });
            return;
        }
        self.new_task(src, dest, measured, None, self.now);
    }

    fn generate_arrivals(&mut self) {
        // The draw order lives in `arrivals::generate_arrivals_into`,
        // shared with the sharded engine's coordinator so both consume
        // the seed stream variate-for-variate. The cursor is copied out
        // and back because the engine itself is the sink.
        let n = self.topo.node_count();
        let mix = self.mix;
        let slot = self.now;
        let mut cursor = self.scenario;
        generate_arrivals_into(self, &mut cursor, mix, n, slot);
        self.scenario = cursor;
    }

    fn in_measure_window(&self) -> bool {
        self.now >= self.cfg.warmup_slots && self.now < self.cfg.measure_end()
    }

    /// Registers a task and enqueues its initial transmissions.
    /// `dest = None` is a broadcast; `len_override` bypasses the
    /// configured length law (trace replay). `gen_time` is normally the
    /// current slot, but a backpressure-deferred task keeps its original
    /// arrival slot so the defer time counts inside its delays.
    fn new_task(
        &mut self,
        src: NodeId,
        dest: Option<NodeId>,
        measured: bool,
        len_override: Option<u16>,
        gen_time: u64,
    ) -> u32 {
        let task = self
            .ledger
            .open_task(self.now, gen_time, dest.is_none(), measured);
        let len = len_override.unwrap_or_else(|| self.cfg.lengths.sample_length(&mut self.rng));
        self.emit_buf.clear();
        match dest {
            None => self
                .scheme
                .on_broadcast_generated(src, &mut self.rng, &mut self.emit_buf),
            Some(dest) => {
                self.scheme
                    .on_unicast_generated(src, dest, &mut self.rng, &mut self.emit_buf)
            }
        }
        debug_assert!(!self.emit_buf.is_empty(), "task with no transmissions");
        self.flush_emits(src, task, gen_time, len);
        task
    }

    /// Offers `emit_buf`'s transmissions to `from`'s outgoing links; a
    /// packet the kernel refuses or evicts is a loss.
    fn flush_emits(&mut self, from: NodeId, task: u32, gen_time: u64, len: u16) {
        let t = self.now;
        // Swap the buffer out to appease the borrow checker without
        // allocating: flushing never re-enters emit generation.
        let mut buf = std::mem::take(&mut self.emit_buf);
        for emit in &buf {
            debug_assert!(
                (emit.priority as usize) < self.scheme.num_priorities(),
                "emit priority out of range"
            );
            let link = self.topo.link_id(emit.link_from(from)).0;
            let packet = emit.packet(task, gen_time, len, t);
            match self.kernel.admit(link, packet) {
                Admit::Queued => {}
                Admit::Evicted(victim) => {
                    self.flow.counters.evicted += 1;
                    self.handle_loss(link, victim, DropCause::Overflow);
                }
                Admit::Lost(pkt, cause) => {
                    self.handle_loss(link, pkt, cause);
                    continue;
                }
            }
            if self.obs.is_some() {
                self.obs_record(TraceEvent::Enqueue {
                    link,
                    class: packet.priority,
                    task: packet.task,
                });
            }
        }
        buf.clear();
        self.emit_buf = buf;
    }

    fn report(mut self, completed: bool) -> SimReport {
        let (now, kernel) = (self.now, &self.kernel);
        let faults = self
            .faults
            .take()
            .map(|f| f.finish(now, |l| kernel.is_active(l)));
        let arq = self.arq.map(|a| a.finish());
        if let Some(gate) = &self.flow.gate {
            self.flow.counters.rejected_broadcasts = gate.rejected_broadcasts;
            self.flow.counters.rejected_unicasts = gate.rejected_unicasts;
        }
        assemble(
            self.ledger,
            self.kernel.into_counters(),
            RunOutcome {
                cfg: &self.cfg,
                link_dim: &self.link_dim,
                d: self.topo.d(),
                num_classes: self.scheme.num_priorities(),
                slots_run: self.now,
                stable: !self.unstable,
                completed,
                peak_queue_total: self.peak_queue,
                queue_trace: self.queue_trace,
                faults,
                arq: arq.as_ref(),
                flow: &self.flow.counters,
            },
        )
    }
}

impl<N: Network, S: Scheme> ArrivalSink for Engine<N, S> {
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler) {
        (&mut self.rng, &self.dests)
    }

    fn source_dead(&self, node: NodeId) -> bool {
        self.node_dead(node)
    }

    fn spawn(&mut self, src: NodeId, dest: Option<NodeId>) {
        let measured = self.in_measure_window();
        self.arrive(src, dest, measured);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::BroadcastState;
    use pstar_topology::Direction;
    use pstar_topology::Torus;

    /// Minimal correct scheme used to exercise the engine without the
    /// priority-star crate: ring broadcast on dimension 0 of a 1-D torus
    /// plus deterministic e-cube unicast (shorter way, ties → Plus).
    struct TestScheme {
        topo: Torus,
    }

    impl TestScheme {
        fn ring_emits(&self, out: &mut Vec<Emit>) {
            let n = self.topo.dim_size(0);
            let fwd = n / 2;
            let back = n - 1 - fwd;
            if fwd > 0 {
                out.push(Emit {
                    dim: 0,
                    dir: Direction::Plus,
                    kind: PacketKind::Broadcast(BroadcastState {
                        src: NodeId(0),
                        ending_dim: 0,
                        phase: 0,
                        dir: Direction::Plus,
                        hops_left: fwd as u16,
                        flip: false,
                    }),
                    priority: 0,
                    vc: 1,
                });
            }
            if back > 0 {
                out.push(Emit {
                    dim: 0,
                    dir: Direction::Minus,
                    kind: PacketKind::Broadcast(BroadcastState {
                        src: NodeId(0),
                        ending_dim: 0,
                        phase: 0,
                        dir: Direction::Minus,
                        hops_left: back as u16,
                        flip: false,
                    }),
                    priority: 0,
                    vc: 1,
                });
            }
        }
    }

    impl Scheme for TestScheme {
        fn num_priorities(&self) -> usize {
            1
        }

        fn on_broadcast_generated(&self, _src: NodeId, _rng: &mut StdRng, out: &mut Vec<Emit>) {
            self.ring_emits(out);
        }

        fn on_broadcast_arrival(&self, _node: NodeId, st: &BroadcastState, out: &mut Vec<Emit>) {
            if st.hops_left > 1 {
                out.push(Emit {
                    dim: 0,
                    dir: st.dir,
                    kind: PacketKind::Broadcast(BroadcastState {
                        hops_left: st.hops_left - 1,
                        ..*st
                    }),
                    priority: 0,
                    vc: 1,
                });
            }
        }

        fn on_unicast_generated(
            &self,
            src: NodeId,
            dest: NodeId,
            _rng: &mut StdRng,
            out: &mut Vec<Emit>,
        ) {
            self.unicast_hop(src, dest, out);
        }

        fn on_unicast_arrival(
            &self,
            node: NodeId,
            dest: NodeId,
            _rng: &mut StdRng,
            out: &mut Vec<Emit>,
        ) {
            self.unicast_hop(node, dest, out);
        }

        fn subtree_receptions(&self, state: &BroadcastState) -> u32 {
            // Single-dimension ring: a copy covers exactly its remaining
            // segment.
            state.hops_left as u32
        }
    }

    impl TestScheme {
        fn unicast_hop(&self, node: NodeId, dest: NodeId, out: &mut Vec<Emit>) {
            let c = self.topo.coords();
            for dim in 0..self.topo.d() {
                let a = c.digit(node, dim);
                let b = c.digit(dest, dim);
                if a == b {
                    continue;
                }
                let n = self.topo.dim_size(dim);
                let fwd = (b + n - a) % n;
                let dir = if fwd <= n - fwd {
                    Direction::Plus
                } else {
                    Direction::Minus
                };
                let dir = if n == 2 { Direction::Plus } else { dir };
                out.push(Emit {
                    dim: dim as u8,
                    dir,
                    kind: PacketKind::Unicast { dest },
                    priority: 0,
                    vc: 1,
                });
                return;
            }
            unreachable!("unicast_hop called at destination");
        }
    }

    fn ring(n: u32) -> (Torus, TestScheme) {
        let t = Torus::new(&[n]);
        let s = TestScheme { topo: t.clone() };
        (t, s)
    }

    #[test]
    fn single_broadcast_reaches_everyone_once() {
        let (t, s) = ring(7);
        let mut e = Engine::new(t, s, TrafficMix::broadcast_only(0.0), SimConfig::quick(1));
        e.inject_broadcast(NodeId(0));
        e.run_until_idle();
        // 6 receptions, tree transmissions on dim 0 only.
        assert_eq!(e.transmissions_per_dim(), &[6]);
    }

    #[test]
    fn zero_load_delays_equal_hop_counts() {
        let (t, s) = ring(5);
        let mut e = Engine::new(t, s, TrafficMix::broadcast_only(0.0), SimConfig::quick(2));
        e.inject_broadcast(NodeId(0));
        e.run_until_idle();
        let rep = e2_report(e);
        // Ring of 5 from node 0: nodes at hop 1,1,2,2.
        assert_eq!(rep.reception_delay.count, 4);
        assert!((rep.reception_delay.mean - 1.5).abs() < 1e-12);
        assert!((rep.broadcast_delay.mean - 2.0).abs() < 1e-12);
    }

    /// Finalizes an engine into a report for injection-style tests.
    fn e2_report(e: Engine<Torus, TestScheme>) -> SimReport {
        e.report(true)
    }

    #[test]
    fn zero_load_unicast_delay_is_distance() {
        let (t, s) = ring(8);
        let topo = t.clone();
        let mut e = Engine::new(t, s, TrafficMix::broadcast_only(0.0), SimConfig::quick(3));
        e.inject_unicast(NodeId(1), NodeId(5));
        e.run_until_idle();
        let rep = e2_report(e);
        assert_eq!(rep.unicast_delay.count, 1);
        assert_eq!(
            rep.unicast_delay.mean,
            topo.distance(NodeId(1), NodeId(5)) as f64
        );
    }

    #[test]
    fn fcfs_queueing_delays_grow_with_load() {
        let low = run_ring_at(0.2, 11);
        let high = run_ring_at(0.8, 11);
        assert!(low.ok() && high.ok());
        assert!(
            high.reception_delay.mean > low.reception_delay.mean + 0.5,
            "high-load delay {} should exceed low-load {}",
            high.reception_delay.mean,
            low.reception_delay.mean
        );
    }

    fn run_ring_at(rho: f64, seed: u64) -> SimReport {
        let (t, s) = ring(8);
        // Ring broadcast: N-1 transmissions over 2N links → λ = ρ·2/(N−1).
        let lambda = rho * 2.0 / (t.node_count() as f64 - 1.0);
        crate::run(
            &t,
            s,
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(seed),
        )
    }

    #[test]
    fn measured_utilization_matches_offered_rho() {
        let rep = run_ring_at(0.6, 17);
        assert!(rep.ok());
        assert!(
            (rep.mean_link_utilization - 0.6).abs() < 0.05,
            "measured {} vs offered 0.6",
            rep.mean_link_utilization
        );
    }

    #[test]
    fn overload_is_detected_as_unstable() {
        let (t, s) = ring(8);
        let lambda = 1.4 * 2.0 / (t.node_count() as f64 - 1.0); // ρ = 1.4
        let mut cfg = SimConfig::quick(23);
        cfg.unstable_queue_per_link = 50.0;
        let rep = crate::run(&t, s, TrafficMix::broadcast_only(lambda), cfg);
        assert!(!rep.stable || !rep.completed);
    }

    #[test]
    fn unicast_traffic_completes_and_measures_distance() {
        let (t, s) = ring(8);
        let d_ave = t.avg_distance();
        // ρ = λ·D_ave/2 → λ = 2ρ/D_ave.
        let lambda = 2.0 * 0.3 / d_ave;
        let rep = crate::run(
            &t,
            s,
            TrafficMix::unicast_only(lambda),
            SimConfig::quick(31),
        );
        assert!(rep.ok());
        assert!(rep.measured_unicasts > 1000);
        // At ρ=0.3 queueing is mild: delay ≈ distance + small wait.
        assert!(rep.unicast_delay.mean >= d_ave - 0.2);
        assert!(rep.unicast_delay.mean < d_ave + 2.0);
    }

    #[test]
    fn concurrent_task_counts_obey_littles_law() {
        let (t, s) = ring(8);
        let lambda = 0.5 * 2.0 / (t.node_count() as f64 - 1.0);
        let mut cfg = SimConfig::quick(41);
        cfg.measure_slots = 30_000;
        let rep = crate::run(&t, s, TrafficMix::broadcast_only(lambda), cfg);
        assert!(rep.ok());
        // L = λ_total · W with W = mean broadcast (time-in-system) delay.
        let little = lambda * 8.0 * rep.broadcast_delay.mean;
        let measured = rep.avg_concurrent_broadcasts;
        assert!(
            (measured - little).abs() / little < 0.15,
            "Little's law: measured {measured} vs λW {little}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_ring_at(0.5, 99);
        let b = run_ring_at(0.5, 99);
        assert_eq!(a.reception_delay.mean, b.reception_delay.mean);
        assert_eq!(a.window_transmissions, b.window_transmissions);
        let c = run_ring_at(0.5, 100);
        assert_ne!(a.window_transmissions, c.window_transmissions);
    }

    #[test]
    fn backlogged_link_serves_one_packet_per_slot_in_fifo_order() {
        // Ten unicasts over the same single link, injected simultaneously:
        // deliveries must land at slots 1, 2, ..., 10 (work conservation +
        // FIFO), so the mean delay is (1 + 10) / 2.
        let (t, s) = ring(8);
        let mut e = Engine::new(t, s, TrafficMix::broadcast_only(0.0), SimConfig::quick(61));
        for _ in 0..10 {
            e.inject_unicast(NodeId(0), NodeId(1));
        }
        e.run_until_idle();
        let rep = e.report(true);
        assert_eq!(rep.unicast_delay.count, 10);
        assert_eq!(rep.unicast_delay.min, 1.0);
        assert_eq!(rep.unicast_delay.max, 10.0);
        assert!((rep.unicast_delay.mean - 5.5).abs() < 1e-12);
    }

    fn ring_lambda(t: &Torus, rho: f64) -> f64 {
        rho * 2.0 / (t.node_count() as f64 - 1.0)
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.5);
        let base = crate::run(
            &t,
            TestScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(42),
        );
        let faulted = crate::run_with_faults(
            &t,
            s,
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(42),
            pstar_faults::FaultPlan::none(),
            pstar_faults::DeadLinkPolicy::Drop,
        );
        assert_eq!(base.reception_delay.mean, faulted.reception_delay.mean);
        assert_eq!(base.window_transmissions, faulted.window_transmissions);
        assert_eq!(base.peak_queue_total, faulted.peak_queue_total);
        assert_eq!(faulted.faults.events_applied, 0);
        assert_eq!(faulted.faults.delivered_reception_fraction, 1.0);
        // A fault-free engine holds no clock at all.
        let engine = Engine::new(
            t.clone(),
            TestScheme { topo: t },
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(42),
        )
        .with_fault_plan(
            pstar_faults::FaultPlan::none(),
            pstar_faults::DeadLinkPolicy::Drop,
        );
        assert!(engine.faults.is_none());
    }

    #[test]
    fn same_seed_and_plan_reproduce_identically() {
        let (t, _) = ring(8);
        let lambda = ring_lambda(&t, 0.5);
        let plan = || {
            pstar_faults::FaultPlan::link_outage_window(
                &[pstar_topology::LinkId(0), pstar_topology::LinkId(5)],
                2_500,
                6_000,
            )
        };
        let run = || {
            crate::run_with_faults(
                &t,
                TestScheme { topo: t.clone() },
                TrafficMix::broadcast_only(lambda),
                SimConfig::quick(7),
                plan(),
                pstar_faults::DeadLinkPolicy::Drop,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.reception_delay.mean, b.reception_delay.mean);
        assert_eq!(a.window_transmissions, b.window_transmissions);
        assert_eq!(a.dropped_packets, b.dropped_packets);
        assert_eq!(
            a.faults.fault_dropped_packets,
            b.faults.fault_dropped_packets
        );
        assert_eq!(
            a.faults.delivered_reception_fraction,
            b.faults.delivered_reception_fraction
        );
        assert_eq!(a.faults.recovery_time.count, b.faults.recovery_time.count);
    }

    #[test]
    fn link_outage_drops_and_damages_under_drop_policy() {
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.5);
        let links: Vec<_> = (0..4).map(pstar_topology::LinkId).collect();
        let rep = crate::run_with_faults(
            &t,
            s,
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(9),
            pstar_faults::FaultPlan::link_outage_window(&links, 3_000, 7_000),
            pstar_faults::DeadLinkPolicy::Drop,
        );
        assert!(rep.stable, "{rep}");
        assert!(
            rep.faults.events_applied == 8,
            "{}",
            rep.faults.events_applied
        );
        assert!(rep.faults.fault_dropped_packets > 0);
        assert!(rep.dropped_packets >= rep.faults.fault_dropped_packets);
        assert!(rep.faults.delivered_reception_fraction < 1.0);
        assert!(rep.faults.delivered_reception_fraction > 0.5);
        assert!(rep.faults.fault_slots >= 4_000);
        // Conservation still holds with fault losses folded in.
        assert_eq!(
            rep.reception_delay.count + rep.lost_receptions,
            rep.measured_broadcasts * 7
        );
        // All four links carry traffic again after the slot-7000 repair,
        // so each contributes a time-to-recovery sample.
        assert_eq!(rep.faults.recovery_time.count, 4);
        assert!(rep.faults.recovery_time.mean >= 0.0);
    }

    #[test]
    fn requeue_policy_holds_packets_until_repair() {
        // One unicast aimed across a link that is down when it arrives:
        // under requeue it waits out the outage and still delivers.
        let (t, s) = ring(8);
        let cfg = SimConfig::quick(11);
        let mut e = Engine::new(t, s, TrafficMix::broadcast_only(0.0), cfg).with_fault_plan(
            pstar_faults::FaultPlan::link_outage_window(&[pstar_topology::LinkId(0)], 0, 50),
            pstar_faults::DeadLinkPolicy::Requeue,
        );
        // Link 0 is node 0's Plus link on this ring layout; inject a
        // neighbor-bound unicast that must use it.
        e.inject_unicast(NodeId(0), NodeId(1));
        e.run_until_idle();
        let rep = e.report(true);
        assert_eq!(rep.dropped_packets, 0);
        assert_eq!(rep.unicast_delay.count, 1);
        // Delivered only after the slot-50 repair.
        assert!(rep.unicast_delay.mean >= 50.0, "{}", rep.unicast_delay.mean);
        assert_eq!(rep.faults.recovery_time.count, 1);
    }

    #[test]
    fn node_crash_stops_arrivals_and_recovers() {
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.4);
        let rep = crate::run_with_faults(
            &t,
            s,
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(13),
            pstar_faults::FaultPlan::scripted(vec![
                pstar_faults::FaultEvent {
                    slot: 3_000,
                    kind: pstar_faults::FaultKind::NodeCrash(NodeId(3)),
                },
                pstar_faults::FaultEvent {
                    slot: 6_000,
                    kind: pstar_faults::FaultKind::NodeRecover(NodeId(3)),
                },
            ]),
            pstar_faults::DeadLinkPolicy::Drop,
        );
        assert!(rep.stable);
        assert_eq!(rep.faults.events_applied, 2);
        // The crash kills the node's 4 incident links for 3000 slots.
        assert!(rep.faults.fault_slots >= 3_000);
        assert!(rep.faults.delivered_reception_fraction < 1.0);
    }

    /// Two-class wrapper around the ring scheme: broadcasts ride class
    /// 0, unicasts class 1, and retransmissions are boosted to class 0 —
    /// exercises the drop-lowest-class policy and the ARQ priority hook.
    struct TwoClassScheme(TestScheme);

    impl Scheme for TwoClassScheme {
        fn num_priorities(&self) -> usize {
            2
        }

        fn on_broadcast_generated(&self, src: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>) {
            self.0.on_broadcast_generated(src, rng, out);
        }

        fn on_broadcast_arrival(&self, node: NodeId, st: &BroadcastState, out: &mut Vec<Emit>) {
            self.0.on_broadcast_arrival(node, st, out);
        }

        fn on_unicast_generated(
            &self,
            src: NodeId,
            dest: NodeId,
            rng: &mut StdRng,
            out: &mut Vec<Emit>,
        ) {
            self.0.on_unicast_generated(src, dest, rng, out);
            for e in out.iter_mut() {
                e.priority = 1;
            }
        }

        fn on_unicast_arrival(
            &self,
            node: NodeId,
            dest: NodeId,
            rng: &mut StdRng,
            out: &mut Vec<Emit>,
        ) {
            self.0.on_unicast_arrival(node, dest, rng, out);
            for e in out.iter_mut() {
                e.priority = 1;
            }
        }

        fn subtree_receptions(&self, state: &BroadcastState) -> u32 {
            self.0.subtree_receptions(state)
        }

        fn retransmit_priority(&self, _original: u8) -> u8 {
            0
        }
    }

    #[test]
    fn requeue_overflows_capacity_by_at_most_one() {
        // Satellite regression: a fault requeue re-admits the
        // interrupted in-service packet even into a full queue — the
        // documented one-slot overflow — and the bound never grows past
        // capacity + 1 because at most one packet is in service.
        let (t, s) = ring(8);
        let mut cfg = SimConfig::quick(5);
        cfg.queue_capacity = Some(2);
        let mut e = Engine::new(t, s, TrafficMix::broadcast_only(0.0), cfg).with_fault_plan(
            pstar_faults::FaultPlan::link_outage_window(&[pstar_topology::LinkId(0)], 1, 10),
            pstar_faults::DeadLinkPolicy::Requeue,
        );
        // Slot 0 (link alive): A enters service.
        e.inject_unicast(NodeId(0), NodeId(1));
        e.step(false);
        // Slot 1: B and C fill the queue to capacity...
        e.inject_unicast(NodeId(0), NodeId(1));
        e.inject_unicast(NodeId(0), NodeId(1));
        assert_eq!(e.kernel.qlen(0), 2);
        // ...then the link dies: A is requeued head-of-line, one over.
        e.step(false);
        assert_eq!(e.kernel.qlen(0), 3, "capacity + 1 after requeue");
        // A further emit toward the (full, dead) queue is dropped — the
        // overflow never compounds.
        e.inject_unicast(NodeId(0), NodeId(1));
        assert_eq!(e.kernel.qlen(0), 3);
        e.run_until_idle();
        let rep = e.report(true);
        assert_eq!(rep.dropped_packets, 1, "only the post-overflow emit");
        assert_eq!(rep.unicast_delay.count, 3);
        // The interrupted packet resumed head-of-line after repair.
        assert!(rep.unicast_delay.min >= 9.0, "{}", rep.unicast_delay.min);
    }

    #[test]
    fn arq_recovers_fault_losses_completely() {
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.5);
        let mut cfg = SimConfig::quick(19);
        cfg.arq = Some(crate::recovery::ArqConfig {
            base_timeout: 16,
            max_backoff_exp: 4,
            jitter: 5,
            max_retries: None,
        });
        let links: Vec<_> = (0..3).map(pstar_topology::LinkId).collect();
        let rep = crate::run_with_faults(
            &t,
            s,
            TrafficMix::broadcast_only(lambda),
            cfg,
            pstar_faults::FaultPlan::link_outage_window(&links, 2_500, 6_000),
            pstar_faults::DeadLinkPolicy::Drop,
        );
        assert!(rep.ok(), "{rep}");
        // Every drop was recovered: nothing lost, delivered fraction 1.
        assert_eq!(rep.lost_receptions, 0);
        assert_eq!(rep.faults.delivered_reception_fraction, 1.0);
        assert_eq!(rep.reception_delay.count, rep.measured_broadcasts * 7);
        assert!(rep.dropped_packets > 0, "outage must actually drop");
        assert!(rep.recovery.enabled);
        assert!(rep.recovery.retransmissions > 0);
        assert!(rep.recovery.recovered_deliveries > 0);
        assert_eq!(rep.recovery.gave_up_copies, 0);
        assert!(rep.recovery.timeouts_scheduled >= rep.recovery.retransmissions);
        assert!(rep.recovery.backoff_histogram[0] > 0);
        assert_eq!(rep.recovery.pending_at_end, 0);
        // ACKs cover every delivered reception.
        assert!(rep.recovery.acked_receptions >= rep.reception_delay.count);
        // Recovered tasks completed, later than the fault-free mean.
        assert!(rep.recovery.recovered_task_delay.count > 0);
        assert!(rep.recovery.recovered_task_delay.mean > rep.broadcast_delay.mean);
    }

    #[test]
    fn arq_bounded_retries_give_up() {
        // One retry against an outage much longer than the backoff:
        // copies reach the GaveUp terminal state and the loss is settled
        // exactly like the recovery-free engine.
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.4);
        let mut cfg = SimConfig::quick(29);
        cfg.arq = Some(crate::recovery::ArqConfig {
            base_timeout: 8,
            max_backoff_exp: 1,
            jitter: 0,
            max_retries: Some(1),
        });
        let rep = crate::run_with_faults(
            &t,
            s,
            TrafficMix::broadcast_only(lambda),
            cfg,
            pstar_faults::FaultPlan::link_outage_window(&[pstar_topology::LinkId(0)], 2_500, 7_000),
            pstar_faults::DeadLinkPolicy::Drop,
        );
        assert!(rep.ok(), "{rep}");
        assert!(rep.recovery.gave_up_copies > 0);
        assert!(rep.recovery.gave_up_receptions > 0);
        assert!(rep.lost_receptions >= rep.recovery.gave_up_receptions);
        assert!(rep.faults.delivered_reception_fraction < 1.0);
        // Conservation: every measured reception is delivered or lost.
        assert_eq!(
            rep.reception_delay.count + rep.lost_receptions,
            rep.measured_broadcasts * 7
        );
    }

    #[test]
    fn idle_arq_layer_is_bit_identical_to_disabled() {
        // Recovery enabled but never triggered (no faults, infinite
        // queues) must not perturb a single statistic.
        let (t, _) = ring(8);
        let lambda = ring_lambda(&t, 0.6);
        let base = crate::run(
            &t,
            TestScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(77),
        );
        let mut cfg = SimConfig::quick(77);
        cfg.arq = Some(crate::recovery::ArqConfig::default());
        let armed = crate::run(
            &t,
            TestScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            cfg,
        );
        assert_eq!(base.reception_delay.mean, armed.reception_delay.mean);
        assert_eq!(base.window_transmissions, armed.window_transmissions);
        assert_eq!(base.peak_queue_total, armed.peak_queue_total);
        assert!(armed.recovery.enabled);
        assert_eq!(armed.recovery.retransmissions, 0);
        assert_eq!(armed.recovery.timeouts_scheduled, 0);
        // ACKs cover the whole run (warmup and drain included), so they
        // dominate the measured-window reception count.
        assert!(armed.recovery.acked_receptions >= armed.reception_delay.count);
    }

    #[test]
    fn admission_control_keeps_overload_stable() {
        // ρ = 1.4 diverges without protection (see
        // overload_is_detected_as_unstable); a token bucket admitting
        // ~0.7 keeps queues bounded and degrades goodput smoothly.
        let (t, s) = ring(8);
        let lambda_offered = ring_lambda(&t, 1.4);
        let lambda_admit = ring_lambda(&t, 0.7);
        let mut cfg = SimConfig::quick(23);
        cfg.unstable_queue_per_link = 50.0;
        cfg.admission = Some(crate::recovery::AdmissionConfig {
            rate: lambda_admit,
            burst: 2.0,
        });
        let rep = crate::run(&t, s, TrafficMix::broadcast_only(lambda_offered), cfg);
        assert!(rep.ok(), "{rep}");
        assert!(rep.flow.rejected_broadcasts > 0);
        assert!(
            rep.flow.goodput_fraction > 0.3 && rep.flow.goodput_fraction < 0.75,
            "goodput {} should reflect ~0.7/1.4 admitted",
            rep.flow.goodput_fraction
        );
        let per_link = rep.flow.mean_queued_packets / 16.0;
        assert!(per_link < 50.0, "occupancy bounded: {per_link}");
        // Nothing admitted is ever lost with infinite queues.
        assert_eq!(rep.lost_receptions, 0);
    }

    #[test]
    fn backpressure_defers_injection_instead_of_dropping() {
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.8);
        let mut cfg = SimConfig::quick(37);
        cfg.queue_capacity = Some(2);
        cfg.full_queue_policy = crate::recovery::FullQueuePolicy::Backpressure;
        let rep = crate::run(&t, s, TrafficMix::broadcast_only(lambda), cfg);
        assert!(rep.ok(), "{rep}");
        assert_eq!(rep.dropped_packets, 0, "backpressure never drops");
        assert_eq!(rep.lost_receptions, 0);
        assert!(rep.flow.deferred_injections > 0);
        assert_eq!(rep.flow.defer_delay.count, rep.flow.deferred_injections);
        assert!(rep.flow.defer_delay.mean >= 1.0);
    }

    #[test]
    fn drop_lowest_class_evicts_for_higher_priority() {
        let t = Torus::new(&[8]);
        let s = TwoClassScheme(TestScheme { topo: t.clone() });
        let mut cfg = SimConfig::quick(41);
        cfg.queue_capacity = Some(2);
        cfg.full_queue_policy = crate::recovery::FullQueuePolicy::DropLowestClass;
        let mut e = Engine::new(t, s, TrafficMix::broadcast_only(0.0), cfg);
        // Three class-1 unicasts at node 0's Plus link: two fit, the
        // third finds nothing lower-priority to evict and is dropped.
        e.inject_unicast(NodeId(0), NodeId(1));
        e.inject_unicast(NodeId(0), NodeId(1));
        e.inject_unicast(NodeId(0), NodeId(1));
        assert_eq!(e.kernel.qlen(0), 2);
        // A class-0 broadcast copy evicts the newest queued unicast.
        e.inject_broadcast(NodeId(0));
        assert_eq!(e.kernel.qlen(0), 2);
        e.run_until_idle();
        let rep = e.report(true);
        assert_eq!(rep.flow.evicted_packets, 1);
        assert_eq!(rep.dropped_unicasts, 2, "one tail-dropped, one evicted");
        assert_eq!(rep.unicast_delay.count, 1);
        // The broadcast itself is untouched by the full queue.
        assert_eq!(rep.reception_delay.count, 7);
    }

    #[test]
    fn variable_length_packets_scale_delay() {
        let (t, s) = ring(8);
        let mut cfg = SimConfig::quick(7);
        cfg.lengths = pstar_traffic::WorkloadSpec::Fixed(3);
        // Keep utilization low: λ·(N−1)·len/(2N per-node links…) —
        // transmissions occupy 3 slots each, so scale λ down by 3.
        let lambda = 0.3 * 2.0 / (7.0 * 3.0);
        let rep = crate::run(&t, s, TrafficMix::broadcast_only(lambda), cfg);
        assert!(rep.ok());
        // Hop latency is 3 slots: mean reception ≥ 3·(average hops ≈ 1.7).
        assert!(rep.reception_delay.mean > 4.0);
    }

    #[test]
    fn truncated_run_normalizes_utilization_by_realized_window() {
        // Cut the horizon mid-measurement: only 4000 of the configured
        // 8000 measure slots run. Utilization must be normalized by the
        // realized window — dividing by the configured one reported
        // roughly ρ/2 here before the fix.
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.6);
        let mut cfg = SimConfig::quick(17);
        cfg.max_slots = cfg.warmup_slots + 4000; // < measure_end()
        let rep = crate::run(&t, s, TrafficMix::broadcast_only(lambda), cfg);
        assert!(!rep.completed, "horizon must cut the window short");
        assert!(
            (rep.mean_link_utilization - 0.6).abs() < 0.05,
            "measured {} vs offered 0.6 over the realized window",
            rep.mean_link_utilization
        );
        // Per-class utilizations are normalized consistently: their sum
        // over links equals the mean.
        let class_sum: f64 = rep.class.iter().map(|c| c.utilization).sum();
        assert!((class_sum - rep.mean_link_utilization).abs() < 1e-9);
    }

    #[test]
    fn trace_sink_sees_events_and_samples() {
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.5);
        let cfg = SimConfig::quick(11);
        let horizon = cfg.measure_end();
        let (rep, sink) = Engine::new(t, s, TrafficMix::broadcast_only(lambda), cfg)
            .with_trace(Box::new(pstar_obs::ObsCollector::new(1024, 64)))
            .run_observed();
        assert!(rep.ok());
        let obs = sink
            .expect("sink returned")
            .into_any()
            .downcast::<pstar_obs::ObsCollector>()
            .expect("collector comes back out");
        assert!(obs.counts.enqueues > 0, "saw enqueues");
        assert!(obs.counts.service_starts > 0, "saw service starts");
        assert!(obs.counts.deliveries > 0, "saw deliveries");
        assert_eq!(obs.counts.drops, 0, "lossless run");
        assert!(obs.samples.len() as u64 >= horizon / 64 - 1);
        // Utilization reconstructed from ServiceStart events matches the
        // report's busy accounting over the full run span.
        let util = obs.link_utilization();
        assert_eq!(util.len(), 16);
        assert!(util.iter().all(|&u| u > 0.0 && u <= 1.0));
    }

    #[test]
    fn traced_run_report_is_bit_identical_to_untraced() {
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.6);
        let base = crate::run(
            &t,
            TestScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(29),
        );
        let (traced, _) = Engine::new(
            t,
            s,
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(29),
        )
        .with_trace(Box::new(pstar_obs::NullSink::with_decimation(8)))
        .run_observed();
        assert_eq!(format!("{base:?}"), format!("{traced:?}"));
    }

    #[test]
    fn trace_sees_drops_and_faults() {
        let (t, s) = ring(8);
        let lambda = ring_lambda(&t, 0.5);
        let plan = pstar_faults::FaultPlan::scripted(vec![pstar_faults::FaultEvent {
            slot: 3000,
            kind: pstar_faults::FaultKind::LinkDown(pstar_topology::LinkId(0)),
        }]);
        let (rep, sink) = Engine::new(
            t,
            s,
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(13),
        )
        .with_fault_plan(plan, DeadLinkPolicy::Drop)
        .with_trace(Box::new(pstar_obs::ObsCollector::new(4096, 0)))
        .run_observed();
        let obs = sink
            .unwrap()
            .into_any()
            .downcast::<pstar_obs::ObsCollector>()
            .unwrap();
        assert!(rep.faults.fault_dropped_packets > 0);
        assert!(obs.counts.fault_epochs >= 1, "liveness change recorded");
        assert!(obs.counts.drops > 0, "fault losses traced");
    }
}
