//! The slotted simulation engine.

use crate::arrivals::{generate_arrivals_into, ArrivalSink};
use crate::config::{stop_verdict, SimConfig, Stop};
use crate::faultepoch::FaultClock;
use crate::hop::{Hop, HopCtx};
use crate::ledger::{assemble, FlowCounters, RunOutcome, TaskLedger};
use crate::metrics::SimReport;
use crate::packet::{Emit, MAX_PRIORITY_CLASSES};
use crate::recovery::{FullQueuePolicy, TokenGate};
use crate::scheme::Scheme;
use pstar_faults::{DeadLinkPolicy, FaultPlan};
use pstar_obs::{SlotSample, TraceSink};
use pstar_topology::{Network, NodeId};
use pstar_traffic::{DestSampler, ScenarioCursor, TrafficMix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

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

/// Which field of a trace event named a node the topology does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceField {
    /// The source node.
    Src,
    /// The unicast destination.
    Dest,
}

/// Why [`Engine::replay`] refused a trace: its first event that names a
/// node outside the topology. (`Trace::load` checks only the syntax of
/// the fields it reads.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceError {
    /// Index of the event in the trace (slot order).
    pub event: usize,
    /// The event's slot.
    pub slot: u64,
    /// Which of its fields is out of range.
    pub field: TraceField,
    /// The node it names.
    pub node: u32,
    /// Nodes the topology has.
    pub nodes: u32,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let field = match self.field {
            TraceField::Src => "source",
            TraceField::Dest => "destination",
        };
        write!(
            f,
            "trace event {} (slot {}) names {field} node {}, but the topology has {} nodes",
            self.event, self.slot, self.node, self.nodes
        )
    }
}

impl std::error::Error for TraceError {}

/// The simulator: a torus, a routing scheme, a workload, and per-link
/// priority queues stepped slot by slot.
///
/// The queues, the in-flight transmissions and the service discipline
/// live in one [`LinkKernel`](crate::LinkKernel) over every link, and
/// what a delivery, a forward and a loss mean in one [`Hop`]; the engine
/// owns the slot order, the arrivals and the task table. See the crate
/// docs for the timing model. Construction is cheap; `run` consumes the
/// engine and returns a [`SimReport`].
pub struct Engine<N: Network, S: Scheme> {
    topo: N,
    mix: TrafficMix,
    cfg: SimConfig,
    rng: StdRng,
    now: u64,

    /// The hop rules over every link (dense `LinkId` order), with the
    /// scheme, the kernel, ARQ, the fault clock and the trace sink.
    hop: Hop<S>,
    link_dim: Vec<u8>,

    dests: DestSampler,
    /// Scenario modulation cursor, advanced once per slot through the
    /// shared arrival generator.
    scenario: ScenarioCursor,

    // Measurement state (see `crate::ledger`).
    ledger: TaskLedger,
    tx_by_dim: Vec<u64>,
    peak_queue: i64,

    /// Scratch for a new task's first transmissions.
    emit_buf: Vec<Emit>,
    /// Scratch for the decimated per-link queue snapshot; swapped into
    /// each [`SlotSample`] and back so sampling allocates once per run,
    /// not once per sample.
    sample_links: Vec<u32>,
    queue_trace: Vec<(u64, u64)>,
    unstable: bool,
    flow: Box<FlowState>,
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
            hop: Hop::new(&topo, scheme, &cfg, 0, topo.link_count()),
            link_dim: topo.link_dim_table(),
            dests,
            scenario: ScenarioCursor::new(cfg.scenario),
            ledger: TaskLedger::new(&cfg, n, topo.diameter()),
            tx_by_dim: vec![0; topo.d()],
            peak_queue: 0,
            emit_buf: Vec::with_capacity(64),
            sample_links: Vec::new(),
            queue_trace: Vec::new(),
            unstable: false,
            flow,
            obs_decim: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            now: 0,
            topo,
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
        if !plan.is_empty() {
            let clock = FaultClock::new(plan, &self.topo);
            self.hop.install_faults(clock, policy);
        }
        self
    }

    /// Installs an observability sink (builder style). The sink's
    /// decimation is queried once here; see [`pstar_obs::TraceSink`].
    /// Sinks receive copies of engine state and can never influence the
    /// simulation (in particular: never the RNG); without one every
    /// trace site is a single never-taken branch.
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.obs_decim = sink.decimation();
        self.hop.obs = Some(sink);
        self
    }

    /// Builds and delivers one decimated queue-state snapshot. Only
    /// called at sampling instants (`obs_decim > 0`), so the O(links)
    /// scan never touches an untraced run.
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
        (self.hop.kernel.queued() + self.flow.deferred.len() as u64) as i64
    }

    /// Replays a recorded workload trace instead of sampling arrivals.
    ///
    /// Events fire at their recorded slots with their recorded lengths;
    /// tasks generated inside the configured measurement window are
    /// tagged exactly as in a live run, so trace replays produce
    /// comparable reports. After the last event the network drains. A
    /// self-addressed unicast is skipped; a trace whose events name a
    /// node the topology does not have is refused before the first slot,
    /// naming the first such event.
    pub fn replay(mut self, trace: &pstar_traffic::Trace) -> Result<SimReport, TraceError> {
        let events = trace.events();
        let nodes = self.topo.node_count();
        for (event, ev) in events.iter().enumerate() {
            let bad = [(TraceField::Src, Some(ev.src)), (TraceField::Dest, ev.dest)]
                .into_iter()
                .find_map(|(field, node)| node.filter(|&v| v >= nodes).map(|v| (field, v)));
            if let Some((field, node)) = bad {
                return Err(TraceError {
                    event,
                    slot: ev.slot,
                    field,
                    node,
                    nodes,
                });
            }
        }
        let queue_limit = self.cfg.queue_limit(self.hop.kernel.n_links());
        let mut next = 0;
        let mut completed = true;
        loop {
            while next < events.len() && events[next].slot == self.now {
                let ev = events[next];
                next += 1;
                let src = NodeId(ev.src);
                let dest = ev.dest.map(NodeId);
                if dest == Some(src) {
                    // Malformed external trace entry; skip rather than
                    // loop a self-addressed packet forever.
                    continue;
                }
                let (now, measured) = (self.now, self.cfg.in_window(self.now));
                self.new_task(src, dest, measured, Some(ev.len.max(1)), now);
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
        Ok(self.report(completed))
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
        self.hop.kernel.is_idle()
            && self.flow.deferred.is_empty()
            && self.hop.arq.as_ref().is_none_or(|a| a.is_idle())
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
        let queue_limit = self.cfg.queue_limit(self.hop.kernel.n_links());
        let stop = loop {
            let verdict = stop_verdict(
                &self.cfg,
                self.now,
                self.ledger.outstanding_measured() as u64 + self.flow.deferred_measured,
                self.guarded_occupancy(),
                queue_limit,
                || {
                    self.cfg
                        .single_queue_tripped(self.now, || self.hop.kernel.max_qlen())
                },
            );
            match verdict {
                Some(stop) => break stop,
                None => self.step(true),
            }
        };
        self.unstable = stop == Stop::Unstable;
        let sink = self.hop.obs.take();
        (self.report(stop == Stop::Completed), sink)
    }

    // ------------------------------------------------------------------
    // Core stepping
    // ------------------------------------------------------------------

    /// The hop rules' view of this engine at slot `t`: its topology, its
    /// ledger as the one home of every task, its stream for unicast ties.
    fn hop_ctx<'a>(
        topo: &'a N,
        ledger: &'a mut TaskLedger,
        rng: &'a mut StdRng,
        t: u64,
    ) -> HopCtx<'a, N, TaskLedger> {
        HopCtx {
            topo,
            homes: ledger,
            ties: rng,
            t,
        }
    }

    fn step(&mut self, arrivals: bool) {
        let t = self.now;

        // Fault transitions take effect before anything else in the
        // slot: a link dying at `t` fails the delivery it would have made
        // at `t`. Fault-free engines hold no clock and tick nothing.
        if self.hop.faults.is_some() {
            let mut cx = Self::hop_ctx(&self.topo, &mut self.ledger, &mut self.rng, t);
            self.hop.fault_tick(&mut cx);
        }

        if let Some(k) = self.cfg.trace_interval {
            if t % k == 0 {
                self.queue_trace.push((t, self.hop.kernel.queued()));
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
        let mut cx = Self::hop_ctx(&self.topo, &mut self.ledger, &mut self.rng, t);
        let mut scan = self.hop.kernel.finish_scan();
        while let Some((link, pkt)) = self.hop.kernel.next_finished(&mut scan, t) {
            let pkt = *pkt;
            self.hop.deliver(&mut cx, link, pkt);
        }

        // Phase 2: re-injections, then new tasks. Retransmission timers
        // and deferred (backpressured) injections fire before fresh
        // arrivals so recovered / older work keeps its age order.
        self.hop.fire_retransmissions(&mut cx);
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
        let queued = self.hop.kernel.queued();
        self.peak_queue = self.peak_queue.max(queued as i64);
        if self.cfg.in_window(t) {
            self.flow.counters.occupancy_sum += queued as u128;
        }
        let (tx_by_dim, link_dim) = (&mut self.tx_by_dim, &self.link_dim);
        self.hop.start(t, |link, _| {
            tx_by_dim[link_dim[link as usize] as usize] += 1;
        });

        self.now = t + 1;
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
            .any(|&l| self.hop.kernel.qlen(l) >= cap)
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

    /// Registers a task and offers its initial transmissions.
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
        let t = self.now;
        let task = self.ledger.open_task(t, gen_time, dest.is_none(), measured);
        let len = len_override.unwrap_or_else(|| self.cfg.lengths.sample_length(&mut self.rng));
        let (scheme, emits) = (&self.hop.scheme, &mut self.emit_buf);
        emits.clear();
        match dest {
            None => scheme.on_broadcast_generated(src, &mut self.rng, emits),
            Some(dest) => scheme.on_unicast_generated(src, dest, &mut self.rng, emits),
        }
        debug_assert!(!emits.is_empty(), "task with no transmissions");
        let mut cx = Self::hop_ctx(&self.topo, &mut self.ledger, &mut self.rng, t);
        self.hop
            .offer(&mut cx, src, &self.emit_buf, task, gen_time, len);
        task
    }

    fn report(self, completed: bool) -> SimReport {
        let num_classes = self.hop.scheme.num_priorities();
        let (links, faults, arq) = self.hop.finish(self.now);
        let mut flow = self.flow.counters;
        if let Some(gate) = &self.flow.gate {
            flow.rejected_broadcasts = gate.rejected_broadcasts;
            flow.rejected_unicasts = gate.rejected_unicasts;
        }
        assemble(
            self.ledger,
            links,
            RunOutcome {
                cfg: &self.cfg,
                link_dim: &self.link_dim,
                d: self.topo.d(),
                num_classes,
                slots_run: self.now,
                stable: !self.unstable,
                completed,
                peak_queue_total: self.peak_queue,
                queue_trace: self.queue_trace,
                faults,
                arq: arq.as_ref(),
                flow: &flow,
            },
        )
    }
}

impl<N: Network, S: Scheme> ArrivalSink for Engine<N, S> {
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler) {
        (&mut self.rng, &self.dests)
    }

    fn source_dead(&self, node: NodeId) -> bool {
        self.hop.faults.as_ref().is_some_and(|f| f.node_dead(node))
    }

    fn spawn(&mut self, src: NodeId, dest: Option<NodeId>) {
        let measured = self.cfg.in_window(self.now);
        self.arrive(src, dest, measured);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{BroadcastState, PacketKind};
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
        assert!(engine.hop.faults.is_none());
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
        assert_eq!(e.hop.kernel.qlen(0), 2);
        // ...then the link dies: A is requeued head-of-line, one over.
        e.step(false);
        assert_eq!(e.hop.kernel.qlen(0), 3, "capacity + 1 after requeue");
        // A further emit toward the (full, dead) queue is dropped — the
        // overflow never compounds.
        e.inject_unicast(NodeId(0), NodeId(1));
        assert_eq!(e.hop.kernel.qlen(0), 3);
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
        assert_eq!(e.hop.kernel.qlen(0), 2);
        // A class-0 broadcast copy evicts the newest queued unicast.
        e.inject_broadcast(NodeId(0));
        assert_eq!(e.hop.kernel.qlen(0), 2);
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

    /// Replays `events` on the 8-node ring.
    fn replay(events: Vec<pstar_traffic::TraceEvent>) -> Result<SimReport, TraceError> {
        let (t, s) = ring(8);
        let trace = pstar_traffic::Trace::new(events);
        let cfg = SimConfig {
            warmup_slots: 0,
            measure_slots: 100,
            ..SimConfig::quick(3)
        };
        Engine::new(t, s, TrafficMix::broadcast_only(0.0), cfg).replay(&trace)
    }

    fn event(slot: u64, src: u32, dest: Option<u32>) -> pstar_traffic::TraceEvent {
        pstar_traffic::TraceEvent {
            slot,
            src,
            dest,
            len: 1,
        }
    }

    /// A trace source outside the topology is refused, naming the first
    /// such event; a self-addressed unicast before it is still skipped.
    #[test]
    fn replay_refuses_a_source_outside_the_topology() {
        let err = replay(vec![
            event(1, 2, Some(2)),
            event(2, 0, None),
            event(3, 8, None),
            event(4, 9, Some(1)),
        ])
        .expect_err("node 8 is not on an 8-node ring");
        assert_eq!(
            err,
            TraceError {
                event: 2,
                slot: 3,
                field: TraceField::Src,
                node: 8,
                nodes: 8
            }
        );
        assert!(err.to_string().contains("source node 8"), "{err}");
    }

    /// A unicast destination outside the topology is refused too — it
    /// would otherwise wrap to a node the packet is already at.
    #[test]
    fn replay_refuses_a_destination_outside_the_topology() {
        let err = replay(vec![event(3, 1, Some(8))]).expect_err("node 8 is off the ring");
        assert_eq!((err.event, err.field, err.node), (0, TraceField::Dest, 8));
        let rep = replay(vec![event(3, 1, Some(1)), event(3, 1, Some(5))]).expect("in range");
        assert_eq!(
            rep.unicast_delay.count, 1,
            "the self-addressed one is skipped"
        );
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
