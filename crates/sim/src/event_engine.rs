//! An independent event-driven implementation of the same slotted model.
//!
//! [`EventEngine`] reproduces the semantics of the step-based [`crate::Engine`]
//! — slotted time, all-port output queueing, non-preemptive HOL
//! priorities, the deliveries → arrivals → service-starts intra-slot
//! ordering — but advances time through a calendar of pending events
//! instead of stepping every slot. Empty slots are skipped entirely, so
//! low-load simulations run in time proportional to the *traffic*, not
//! the horizon.
//!
//! Its real purpose, though, is **cross-validation**: two independently
//! written engines that agree (exactly at zero load, statistically under
//! load, and closely on identical replayed traces) are strong evidence
//! that neither mis-implements the model. The `engines_agree_*` tests in
//! this module and in `tests/extensions.rs` enforce that agreement.
//!
//! The event engine tracks the core metrics (delays, utilization,
//! per-class waits); the step engine remains the full-featured one
//! (finite buffers, histograms, traces, distance profiles).

use crate::config::SimConfig;
use crate::ledger::TailsState;
use crate::metrics::{ClassStats, SimReport, TailReport};
use crate::packet::{Emit, Packet, PacketKind, MAX_PRIORITY_CLASSES};
use crate::queue::PriorityQueue;
use crate::scheme::Scheme;
use crate::task::{TaskKind, TaskSlot, TaskTable};
use pstar_obs::{SlotSample, TraceEvent, TraceRecord, TraceSink};
use pstar_stats::Moments;
use pstar_topology::{Link, Network, NodeId};
use pstar_traffic::{TrafficMix, UniformDestinations};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Calendar entry: a link completes service at `time`.
///
/// Ordered by time, then link id (deterministic given the seed).
type Completion = Reverse<(u64, u32)>;

/// Event-driven twin of [`crate::Engine`]. Construct, then call
/// [`EventEngine::run`].
pub struct EventEngine<N: Network, S: Scheme> {
    topo: N,
    scheme: S,
    mix: TrafficMix,
    cfg: SimConfig,
    rng: StdRng,
    now: u64,

    queues: Vec<PriorityQueue>,
    in_flight: Vec<Option<Packet>>,
    link_target: Vec<NodeId>,
    calendar: BinaryHeap<Completion>,
    /// Links touched this instant (fresh enqueue or completion): the only
    /// service-start candidates.
    pending: Vec<u32>,
    next_arrival_slot: u64,

    tasks: TaskTable,
    dests: UniformDestinations,

    reception_delay: Moments,
    broadcast_delay: Moments,
    unicast_delay: Moments,
    wait_by_class: [Moments; MAX_PRIORITY_CLASSES],
    busy_by_class: [u64; MAX_PRIORITY_CLASSES],
    busy_total: u64,
    queued_total: i64,
    peak_queue: i64,
    window_transmissions: u64,
    outstanding_measured: u64,
    measured_broadcasts: u64,
    measured_unicasts: u64,
    emit_buf: Vec<Emit>,
    unstable: bool,

    /// Observability sink; same contract as the step engine's — `None`
    /// keeps every trace site at one never-taken branch, and sinks only
    /// ever receive copies of state (never the RNG).
    obs: Option<Box<dyn TraceSink>>,
    /// Cached `obs.decimation()`; 0 disables slot sampling.
    obs_decim: u64,
    /// Next slot at or after which a sample is due. The event engine
    /// skips empty slots, so sampling is sparse: the first *visited*
    /// instant at or past each decimation boundary is sampled.
    next_sample_slot: u64,
    /// Tail-latency instrumentation; same contract as the step
    /// engine's (`None` ⇒ one never-taken branch per record site).
    tails: Option<Box<TailsState>>,
}

impl<N: Network, S: Scheme> EventEngine<N, S> {
    /// Builds an event engine ready to run.
    pub fn new(topo: N, scheme: S, mix: TrafficMix, cfg: SimConfig) -> Self {
        assert!(
            scheme.num_priorities() <= MAX_PRIORITY_CLASSES,
            "scheme uses too many priority classes"
        );
        assert!(
            !mix.bernoulli,
            "the event engine implements Poisson arrivals only"
        );
        // Reject configs enabling features this engine does not
        // simulate. Silently accepting them used to yield reports with
        // defaulted `recovery`/`flow` sections that looked like "no
        // losses, nothing rejected" instead of "not simulated".
        assert!(
            cfg.arq.is_none(),
            "the event engine does not simulate ARQ recovery; use crate::Engine"
        );
        assert!(
            cfg.admission.is_none(),
            "the event engine does not simulate admission control; use crate::Engine"
        );
        assert!(
            cfg.queue_capacity.is_none(),
            "the event engine models infinite queues only; use crate::Engine"
        );
        assert!(
            cfg.scenario.is_default(),
            "the event engine does not simulate workload scenarios \
             (rate modulation, destination matrices, all-to-all); use crate::Engine"
        );
        let links = topo.link_count() as usize;
        let n = topo.node_count();
        Self {
            queues: (0..links).map(|_| PriorityQueue::new()).collect(),
            in_flight: vec![None; links],
            link_target: topo.link_target_table(),
            calendar: BinaryHeap::new(),
            pending: Vec::with_capacity(64),
            next_arrival_slot: 0,
            tasks: TaskTable::new(),
            dests: UniformDestinations::new(n),
            reception_delay: Moments::new(),
            broadcast_delay: Moments::new(),
            unicast_delay: Moments::new(),
            wait_by_class: [Moments::new(); MAX_PRIORITY_CLASSES],
            busy_by_class: [0; MAX_PRIORITY_CLASSES],
            busy_total: 0,
            queued_total: 0,
            peak_queue: 0,
            window_transmissions: 0,
            outstanding_measured: 0,
            measured_broadcasts: 0,
            measured_unicasts: 0,
            emit_buf: Vec::with_capacity(64),
            unstable: false,
            obs: None,
            obs_decim: 0,
            next_sample_slot: 0,
            tails: cfg.tails.then(TailsState::new),
            rng: StdRng::seed_from_u64(cfg.seed),
            now: 0,
            topo,
            scheme,
            mix,
            cfg,
        }
    }

    /// Installs an observability sink (see [`crate::Engine::with_trace`]).
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.obs_decim = sink.decimation();
        self.obs = Some(sink);
        self
    }

    /// Records one trace event; a single branch when no sink is installed.
    #[inline]
    fn obs_record(&mut self, event: TraceEvent) {
        if let Some(sink) = self.obs.as_deref_mut() {
            sink.record(TraceRecord {
                slot: self.now,
                event,
            });
        }
    }

    /// Delivers a queue-state snapshot of the current instant.
    fn obs_sample(&mut self, slot: u64) {
        let mut sample = SlotSample {
            slot,
            queued_total: self.queued_total.max(0) as u64,
            in_flight_links: self.in_flight.iter().filter(|p| p.is_some()).count() as u32,
            queued_by_class: [0; MAX_PRIORITY_CLASSES],
            queued_by_link: Vec::with_capacity(self.queues.len()),
        };
        for q in &self.queues {
            sample.queued_by_link.push(q.len() as u32);
            for (k, acc) in sample.queued_by_class.iter_mut().enumerate() {
                *acc += q.class_len(k) as u64;
            }
        }
        if let Some(sink) = self.obs.as_deref_mut() {
            sink.on_slot_sample(&sample);
        }
    }

    /// Runs the warmup → measure → drain protocol and reports.
    pub fn run(self) -> SimReport {
        self.run_observed().0
    }

    /// Like [`EventEngine::run`], returning the installed trace sink so
    /// collected data can be downcast back out.
    pub fn run_observed(mut self) -> (SimReport, Option<Box<dyn TraceSink>>) {
        let end_measure = self.cfg.measure_end();
        let queue_limit = (self.cfg.unstable_queue_per_link * self.queues.len() as f64) as i64;
        let total_rate =
            (self.mix.lambda_broadcast + self.mix.lambda_unicast) * self.topo.node_count() as f64;
        self.schedule_next_arrival_slot(total_rate, 0);

        let mut completed = true;
        loop {
            // Next instant anything happens.
            let next_completion = self.calendar.peek().map(|Reverse((t, _))| *t);
            let next_arrival = if total_rate > 0.0 {
                Some(self.next_arrival_slot)
            } else {
                None
            };
            let next = match (next_completion, next_arrival) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    // Fully idle and no more traffic will ever arrive.
                    break;
                }
            };
            if next >= end_measure && self.outstanding_measured == 0 {
                self.now = self.now.max(end_measure);
                break;
            }
            if next >= self.cfg.max_slots {
                completed = false;
                break;
            }
            if self.queued_total > queue_limit {
                self.unstable = true;
                completed = false;
                break;
            }
            self.now = next;

            // Decimated snapshot of the state the previous instant left
            // behind; because empty slots are skipped, this fires at the
            // first visited instant past each boundary.
            if self.obs_decim > 0 && next >= self.next_sample_slot {
                self.obs_sample(next);
                self.next_sample_slot = (next / self.obs_decim + 1) * self.obs_decim;
            }

            // Phase 1: completions at `now` (deliveries + freeing links).
            while let Some(&Reverse((t, link))) = self.calendar.peek() {
                if t != self.now {
                    break;
                }
                self.calendar.pop();
                let pkt = self.in_flight[link as usize]
                    .take()
                    .expect("completion for idle link");
                self.deliver(link as usize, pkt);
                // The freed link may have backlog to restart.
                self.pending.push(link);
            }

            // Phase 2: arrivals at `now`.
            if total_rate > 0.0 && self.next_arrival_slot == self.now {
                self.generate_arrivals();
                self.schedule_next_arrival_slot(total_rate, self.now + 1);
            }

            // Phase 3: start service wherever possible. Only links touched
            // this instant can have become serviceable; conservatively we
            // try every link that got an enqueue or completion. We track
            // them via a small scan of freed links + freshly enqueued ones
            // collected in `emit targets`; for simplicity and correctness
            // we try to start on every idle link with backlog by checking
            // the queues touched this round (recorded during enqueue).
            self.start_pending();
        }
        let sink = self.obs.take();
        (self.report(completed), sink)
    }

    /// Skips ahead to the next slot that contains at least one arrival:
    /// the number of empty slots is geometric with `p = 1 − e^{−Λ}`.
    fn schedule_next_arrival_slot(&mut self, total_rate: f64, from: u64) {
        if total_rate <= 0.0 {
            self.next_arrival_slot = u64::MAX;
            return;
        }
        let p_any = 1.0 - (-total_rate).exp();
        // Geometric number of empty slots before the next busy one.
        let u: f64 = self.rng.gen();
        let gap = if p_any >= 1.0 {
            0
        } else {
            (u.ln() / (1.0 - p_any).ln()).floor() as u64
        };
        self.next_arrival_slot = from + gap;
    }

    fn generate_arrivals(&mut self) {
        // Conditioned on "at least one arrival this slot": rejection-free
        // via a zero-truncated total count split between the two types.
        let n = self.topo.node_count();
        let lb = self.mix.lambda_broadcast * n as f64;
        let lu = self.mix.lambda_unicast * n as f64;
        let total = lb + lu;
        let count = sample_zero_truncated_poisson(&mut self.rng, total);
        let measured = self.in_measure_window();
        for _ in 0..count {
            let src = self.mix.sources.sample(&mut self.rng, n);
            let is_broadcast = self.rng.gen::<f64>() < lb / total;
            if is_broadcast {
                self.new_task(src, None, measured);
            } else {
                let dest = self.dests.sample(&mut self.rng, src);
                self.new_task(src, Some(dest), measured);
            }
        }
    }

    fn in_measure_window(&self) -> bool {
        self.now >= self.cfg.warmup_slots && self.now < self.cfg.measure_end()
    }

    fn new_task(&mut self, src: NodeId, dest: Option<NodeId>, measured: bool) {
        let t = self.now;
        let slot = TaskSlot::new(t, dest.is_none(), self.topo.node_count() - 1, measured);
        let task = self.tasks.insert(slot);
        if measured {
            self.outstanding_measured += 1;
            match slot.kind {
                TaskKind::Broadcast => self.measured_broadcasts += 1,
                TaskKind::Unicast => self.measured_unicasts += 1,
            }
        }
        let len = self.cfg.lengths.sample_length(&mut self.rng);
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
        self.flush_emits(src, task, t, len);
    }

    fn deliver(&mut self, link: usize, pkt: Packet) {
        if self.obs.is_some() {
            self.obs_record(TraceEvent::Delivery {
                link: link as u32,
                class: pkt.priority,
                age: self.now - pkt.gen_time,
                task: pkt.task,
            });
        }
        let node = self.link_target[link];
        match pkt.kind {
            PacketKind::Broadcast(state) => {
                self.record_broadcast_reception(pkt.task, pkt.priority);
                self.emit_buf.clear();
                self.scheme
                    .on_broadcast_arrival(node, &state, &mut self.emit_buf);
                self.flush_emits(node, pkt.task, pkt.gen_time, pkt.len);
            }
            PacketKind::Unicast { dest } => {
                if node == dest {
                    self.record_unicast_delivery(pkt.task);
                } else {
                    self.emit_buf.clear();
                    self.scheme
                        .on_unicast_arrival(node, dest, &mut self.rng, &mut self.emit_buf);
                    self.flush_emits(node, pkt.task, pkt.gen_time, pkt.len);
                }
            }
        }
    }

    /// `class` is the delivering packet's priority, used only by the
    /// tails decomposition (mirrors the step engine).
    fn record_broadcast_reception(&mut self, task: u32, class: u8) {
        let t = self.now;
        let slot = *self.tasks.get(task);
        if slot.measured {
            self.reception_delay.push((t - slot.gen_time) as f64);
            if let Some(tl) = self.tails.as_deref_mut() {
                tl.record_reception(class, t - slot.gen_time);
            }
        }
        if self.tasks.get_mut(task).receive(t) {
            self.tasks.remove(task);
            if slot.measured {
                self.broadcast_delay.push((t - slot.gen_time) as f64);
                self.outstanding_measured -= 1;
            }
        }
    }

    fn record_unicast_delivery(&mut self, task: u32) {
        let t = self.now;
        let slot = *self.tasks.get(task);
        if slot.measured {
            self.unicast_delay.push((t - slot.gen_time) as f64);
            self.outstanding_measured -= 1;
        }
        let done = self.tasks.get_mut(task).receive(t);
        debug_assert!(done);
        self.tasks.remove(task);
    }

    /// Links with fresh enqueues this instant (service-start candidates).
    fn start_pending(&mut self) {
        while let Some(link) = self.pending.pop() {
            self.try_start(link as usize);
        }
    }

    fn try_start(&mut self, link: usize) {
        if self.in_flight[link].is_some() {
            return;
        }
        let Some(pkt) = self.queues[link].pop() else {
            return;
        };
        self.queued_total -= 1;
        let t = self.now;
        if self.obs.is_some() {
            self.obs_record(TraceEvent::ServiceStart {
                link: link as u32,
                class: pkt.priority,
                wait: t - pkt.enqueue_time,
                len: pkt.len,
                task: pkt.task,
            });
        }
        if self.in_measure_window() {
            self.wait_by_class[pkt.priority as usize].push((t - pkt.enqueue_time) as f64);
            if self.tails.is_some() {
                let d = self.topo.d();
                if let Some(tl) = self.tails.as_deref_mut() {
                    tl.record_service(&pkt, t - pkt.enqueue_time, d);
                }
            }
            self.window_transmissions += 1;
            let end = self.cfg.measure_end();
            let busy = (t + pkt.len as u64).min(end) - t;
            self.busy_by_class[pkt.priority as usize] += busy;
            self.busy_total += busy;
        }
        let finish = t + pkt.len as u64;
        self.in_flight[link] = Some(pkt);
        self.calendar.push(Reverse((finish, link as u32)));
    }

    fn flush_emits(&mut self, from: NodeId, task: u32, gen_time: u64, len: u16) {
        let t = self.now;
        let mut buf = std::mem::take(&mut self.emit_buf);
        for emit in &buf {
            let link = self
                .topo
                .link_id(Link {
                    from,
                    dim: emit.dim,
                    dir: emit.dir,
                })
                .index();
            if self.obs.is_some() {
                self.obs_record(TraceEvent::Enqueue {
                    link: link as u32,
                    class: emit.priority,
                    task,
                });
            }
            self.queues[link].push(Packet {
                task,
                gen_time,
                enqueue_time: t,
                len,
                priority: emit.priority,
                vc: emit.vc,
                attempt: 0,
                kind: emit.kind,
            });
            self.queued_total += 1;
            self.pending.push(link as u32);
        }
        self.peak_queue = self.peak_queue.max(self.queued_total);
        buf.clear();
        self.emit_buf = buf;
    }

    fn report(mut self, completed: bool) -> SimReport {
        // Same realized-window normalization as the step engine: runs
        // cut short by the horizon measured fewer than `measure_slots`
        // slots (see `Engine::report`).
        let realized = self
            .now
            .min(self.cfg.measure_end())
            .saturating_sub(self.cfg.warmup_slots);
        let window = realized.max(1) as f64;
        let links = self.queues.len() as f64;
        let num_classes = self.scheme.num_priorities();
        let class = (0..num_classes)
            .map(|k| ClassStats {
                utilization: self.busy_by_class[k] as f64 / (window * links),
                wait: self.wait_by_class[k].summary(),
            })
            .collect();
        SimReport {
            stable: !self.unstable,
            completed,
            slots_run: self.now,
            measured_broadcasts: self.measured_broadcasts,
            measured_unicasts: self.measured_unicasts,
            reception_delay: self.reception_delay.summary(),
            reception_quantiles: (0, 0, 0),
            reception_ci_batch: None,
            dropped_packets: 0,
            lost_receptions: 0,
            damaged_broadcasts: 0,
            dropped_unicasts: 0,
            broadcast_delay: self.broadcast_delay.summary(),
            unicast_delay: self.unicast_delay.summary(),
            class,
            mean_link_utilization: self.busy_total as f64 / (window * links),
            max_link_utilization: f64::NAN, // not tracked by the twin
            per_dim_utilization: Vec::new(),
            avg_concurrent_broadcasts: f64::NAN,
            avg_concurrent_unicasts: f64::NAN,
            peak_queue_total: self.peak_queue,
            window_transmissions: self.window_transmissions,
            vc_transmissions: [0; 4],
            delay_by_distance: Vec::new(),
            queue_trace: Vec::new(),
            faults: Default::default(),
            recovery: Default::default(),
            flow: Default::default(),
            tails: match self.tails.as_deref_mut() {
                Some(tl) => tl.report(),
                None => TailReport::default(),
            },
        }
    }
}

/// Samples a Poisson(λ) variate conditioned on being ≥ 1.
fn sample_zero_truncated_poisson(rng: &mut StdRng, lambda: f64) -> u32 {
    debug_assert!(lambda > 0.0);
    // Inverse-CDF walk starting at k = 1:
    // P(k | k ≥ 1) = λ^k e^{−λ} / (k! (1 − e^{−λ})).
    let norm = 1.0 - (-lambda).exp();
    let mut u: f64 = rng.gen::<f64>() * norm;
    let mut k = 1u32;
    let mut p = lambda * (-lambda).exp();
    loop {
        if u < p || k > 10_000 {
            return k;
        }
        u -= p;
        k += 1;
        p *= lambda / k as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::BroadcastState;
    use pstar_topology::Direction;
    use pstar_topology::Torus;

    /// Same minimal correct scheme as the step engine's tests: ring
    /// broadcast on a 1-D torus + deterministic e-cube unicast.
    struct RingScheme {
        topo: Torus,
    }

    impl Scheme for RingScheme {
        fn num_priorities(&self) -> usize {
            1
        }

        fn on_broadcast_generated(&self, _src: NodeId, _rng: &mut StdRng, out: &mut Vec<Emit>) {
            let n = self.topo.dim_size(0);
            let fwd = n / 2;
            let back = n - 1 - fwd;
            let mk = |dir, hops| Emit {
                dim: 0,
                dir,
                kind: PacketKind::Broadcast(BroadcastState {
                    src: NodeId(0),
                    ending_dim: 0,
                    phase: 0,
                    dir,
                    hops_left: hops,
                    flip: false,
                }),
                priority: 0,
                vc: 1,
            };
            if fwd > 0 {
                out.push(mk(Direction::Plus, fwd as u16));
            }
            if back > 0 {
                out.push(mk(Direction::Minus, back as u16));
            }
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
            self.hop(src, dest, out);
        }

        fn on_unicast_arrival(
            &self,
            node: NodeId,
            dest: NodeId,
            _rng: &mut StdRng,
            out: &mut Vec<Emit>,
        ) {
            self.hop(node, dest, out);
        }

        fn subtree_receptions(&self, state: &BroadcastState) -> u32 {
            state.hops_left as u32
        }
    }

    impl RingScheme {
        fn hop(&self, node: NodeId, dest: NodeId, out: &mut Vec<Emit>) {
            let n = self.topo.dim_size(0);
            let a = self.topo.coords().digit(node, 0);
            let b = self.topo.coords().digit(dest, 0);
            let fwd = (b + n - a) % n;
            let dir = if fwd <= n - fwd {
                Direction::Plus
            } else {
                Direction::Minus
            };
            out.push(Emit {
                dim: 0,
                dir,
                kind: PacketKind::Unicast { dest },
                priority: 0,
                vc: 1,
            });
        }
    }

    fn ring(n: u32) -> (Torus, RingScheme) {
        let t = Torus::new(&[n]);
        let s = RingScheme { topo: t.clone() };
        (t, s)
    }

    #[test]
    fn engines_agree_statistically_on_broadcast_delays() {
        // Identical model, independent implementations: the means must
        // agree within a few percent at the same load.
        let (t, _) = ring(8);
        let lambda = 0.7 * 2.0 / 7.0; // rho = 0.7
        let cfg = SimConfig {
            warmup_slots: 3_000,
            measure_slots: 20_000,
            ..SimConfig::quick(5)
        };
        let step = crate::run(
            &t,
            RingScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            cfg,
        );
        let event = EventEngine::new(
            t.clone(),
            RingScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            cfg,
        )
        .run();
        assert!(step.ok() && event.ok());
        let rel = (step.reception_delay.mean - event.reception_delay.mean).abs()
            / step.reception_delay.mean;
        assert!(
            rel < 0.04,
            "step {} vs event {}",
            step.reception_delay.mean,
            event.reception_delay.mean
        );
        let du = (step.mean_link_utilization - event.mean_link_utilization).abs();
        assert!(
            du < 0.03,
            "util {} vs {}",
            step.mean_link_utilization,
            event.mean_link_utilization
        );
    }

    #[test]
    fn engines_agree_on_unicast_delays() {
        let (t, _) = ring(8);
        let lambda = 2.0 * 0.5 / t.avg_distance();
        let cfg = SimConfig {
            warmup_slots: 3_000,
            measure_slots: 20_000,
            ..SimConfig::quick(6)
        };
        let step = crate::run(
            &t,
            RingScheme { topo: t.clone() },
            TrafficMix::unicast_only(lambda),
            cfg,
        );
        let event = EventEngine::new(
            t.clone(),
            RingScheme { topo: t.clone() },
            TrafficMix::unicast_only(lambda),
            cfg,
        )
        .run();
        assert!(step.ok() && event.ok());
        let rel =
            (step.unicast_delay.mean - event.unicast_delay.mean).abs() / step.unicast_delay.mean;
        assert!(
            rel < 0.04,
            "step {} vs event {}",
            step.unicast_delay.mean,
            event.unicast_delay.mean
        );
    }

    #[test]
    fn event_engine_is_fast_at_low_load() {
        // At tiny loads the event engine touches only the busy slots.
        let (t, s) = ring(8);
        let cfg = SimConfig {
            warmup_slots: 100_000,
            measure_slots: 400_000,
            max_slots: 2_000_000,
            ..SimConfig::quick(7)
        };
        let started = std::time::Instant::now();
        let rep = EventEngine::new(t, s, TrafficMix::broadcast_only(1e-4), cfg).run();
        assert!(rep.ok());
        assert!(rep.measured_broadcasts > 50);
        // Half a million near-idle slots in well under a second.
        assert!(started.elapsed().as_secs_f64() < 1.0);
    }

    #[test]
    fn event_engine_detects_overload() {
        let (t, s) = ring(8);
        let lambda = 1.5 * 2.0 / 7.0;
        let mut cfg = SimConfig::quick(8);
        cfg.unstable_queue_per_link = 50.0;
        let rep = EventEngine::new(t, s, TrafficMix::broadcast_only(lambda), cfg).run();
        assert!(!rep.ok());
    }

    #[test]
    fn engines_agree_near_saturation_without_warmup() {
        // The hardest regime for cross-validation: ρ = 0.95 queues are
        // long and warmup_slots = 0 folds the entire transient into the
        // window, so any intra-slot ordering discrepancy between the
        // implementations is amplified rather than averaged away.
        let (t, _) = ring(8);
        let lambda = 0.95 * 2.0 / 7.0;
        let cfg = SimConfig {
            warmup_slots: 0,
            measure_slots: 40_000,
            // Near-critical queues make excursions far beyond their mean;
            // loosen the divergence guard so a legitimate ρ = 0.95 run is
            // not declared unstable mid-excursion.
            unstable_queue_per_link: 10_000.0,
            ..SimConfig::quick(9)
        };
        let step = crate::run(
            &t,
            RingScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            cfg,
        );
        let event = EventEngine::new(
            t.clone(),
            RingScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            cfg,
        )
        .run();
        assert!(
            step.ok() && event.ok(),
            "step ok={} stable={} completed={} slots={}; event ok={} stable={} completed={} slots={}",
            step.ok(),
            step.stable,
            step.completed,
            step.slots_run,
            event.ok(),
            event.stable,
            event.completed,
            event.slots_run
        );
        // Delay means are noisy this close to saturation (they are
        // dominated by the queue-length distribution's heavy tail);
        // utilization is not.
        let du = (step.mean_link_utilization - event.mean_link_utilization).abs();
        assert!(
            du < 0.03,
            "util {} vs {}",
            step.mean_link_utilization,
            event.mean_link_utilization
        );
        let rel = (step.reception_delay.mean - event.reception_delay.mean).abs()
            / step.reception_delay.mean;
        assert!(
            rel < 0.15,
            "step {} vs event {}",
            step.reception_delay.mean,
            event.reception_delay.mean
        );
    }

    #[test]
    #[should_panic(expected = "does not simulate ARQ")]
    fn rejects_arq_configs() {
        let (t, s) = ring(8);
        let mut cfg = SimConfig::quick(1);
        cfg.arq = Some(crate::recovery::ArqConfig::default());
        EventEngine::new(t, s, TrafficMix::broadcast_only(0.1), cfg);
    }

    #[test]
    #[should_panic(expected = "does not simulate admission")]
    fn rejects_admission_configs() {
        let (t, s) = ring(8);
        let mut cfg = SimConfig::quick(1);
        cfg.admission = Some(crate::recovery::AdmissionConfig {
            rate: 0.1,
            burst: 1.0,
        });
        EventEngine::new(t, s, TrafficMix::broadcast_only(0.1), cfg);
    }

    #[test]
    #[should_panic(expected = "infinite queues only")]
    fn rejects_bounded_queue_configs() {
        let (t, s) = ring(8);
        let mut cfg = SimConfig::quick(1);
        cfg.queue_capacity = Some(4);
        EventEngine::new(t, s, TrafficMix::broadcast_only(0.1), cfg);
    }

    #[test]
    #[should_panic(expected = "does not simulate workload scenarios")]
    fn rejects_scenario_configs() {
        let (t, s) = ring(8);
        let mut cfg = SimConfig::quick(1);
        cfg.scenario.all_to_all_at = Some(0);
        EventEngine::new(t, s, TrafficMix::broadcast_only(0.1), cfg);
    }

    #[test]
    fn traced_event_run_is_bit_identical_and_sampled() {
        let (t, _) = ring(8);
        let lambda = 0.6 * 2.0 / 7.0;
        let cfg = SimConfig::quick(12);
        let base = EventEngine::new(
            t.clone(),
            RingScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            cfg,
        )
        .run();
        let (traced, sink) = EventEngine::new(
            t.clone(),
            RingScheme { topo: t.clone() },
            TrafficMix::broadcast_only(lambda),
            cfg,
        )
        .with_trace(Box::new(pstar_obs::ObsCollector::new(256, 32)))
        .run_observed();
        assert_eq!(format!("{base:?}"), format!("{traced:?}"));
        let obs = sink
            .unwrap()
            .into_any()
            .downcast::<pstar_obs::ObsCollector>()
            .unwrap();
        assert!(obs.counts.enqueues > 0);
        // All but the post-measurement residue gets served (the run ends
        // once measured tasks complete; unmeasured backlog stays queued).
        assert!(obs.counts.service_starts <= obs.counts.enqueues);
        assert!(obs.counts.enqueues - obs.counts.service_starts < 1000);
        assert!(
            !obs.samples.is_empty(),
            "sparse sampling still fires under load"
        );
        // Samples respect decimation boundaries: strictly increasing slots.
        assert!(obs.samples.windows(2).all(|w| w[0].slot < w[1].slot));
    }

    #[test]
    fn zero_truncated_poisson_is_at_least_one_and_has_right_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let lambda = 0.7;
        let n = 200_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let k = sample_zero_truncated_poisson(&mut rng, lambda);
            assert!(k >= 1);
            sum += k as u64;
        }
        // E[K | K >= 1] = λ / (1 − e^{−λ}).
        let expect = lambda / (1.0 - (-lambda).exp());
        let mean = sum as f64 / n as f64;
        assert!((mean - expect).abs() < 0.01, "mean {mean} vs {expect}");
    }
}
