//! The slotted simulation engine.

use crate::arrivals::{InjectBatch, Injector, TraceError};
use crate::clock::{Clock, Gauge, Transport};
use crate::config::{SimConfig, Stop};
use crate::faultepoch::FaultClock;
use crate::hop::{Deliveries, HopCtx};
use crate::kernel::LinkKernel;
use crate::ledger::{assemble, RunOutcome, TaskLedger};
use crate::metrics::SimReport;
use crate::packet::Packet;
use crate::scheme::Scheme;
use pstar_faults::{DeadLinkPolicy, FaultPlan};
use pstar_obs::TraceSink;
use pstar_topology::{Network, NodeId};
use pstar_traffic::TrafficMix;
use std::ops::ControlFlow;

/// The simulator: a torus, a routing scheme, a workload, and per-link
/// priority queues stepped slot by slot.
///
/// The engine is one [`Clock`] over every link with an inline transport:
/// the queues, the in-flight transmissions and the service discipline
/// live in one [`LinkKernel`], what an arrival, a delivery, a forward and
/// a loss mean and the order a slot applies them in in one
/// [`crate::Hop`], task creation in one [`Injector`], and the slot order
/// and the stop rule in the clock; the engine keeps the topology and the
/// task ledger. See the crate docs for the timing model. Construction is
/// cheap; `run` consumes the engine and returns a [`SimReport`].
pub struct Engine<N: Network, S: Scheme> {
    topo: N,
    clock: Clock<S, Inline>,
}

/// The engine's transport: one owner of every link, so nothing travels,
/// and the stop is decided in place from the gauge the last slot left.
pub(crate) struct Inline {
    /// The one home of every task (see `crate::ledger`).
    ledger: TaskLedger,
    /// The slot's tasks, drawn in one go.
    arrivals: InjectBatch,
    link_dim: Vec<u8>,
    /// Transmissions started per dimension, whatever the window.
    tx_by_dim: Vec<u64>,
    gauge: Gauge,
    peak: i64,
    cfg: SimConfig,
    queue_limit: i64,
}

impl Transport for Inline {
    type Homes = TaskLedger;
    type Out = InjectBatch;

    fn homes(&mut self) -> &mut TaskLedger {
        &mut self.ledger
    }

    #[inline]
    fn decide(&mut self, t: u64, _first: bool) -> ControlFlow<Option<Stop>> {
        let verdict = self
            .gauge
            .decide(&self.cfg, self.queue_limit, t, &mut self.peak);
        match verdict {
            Some(stop) => ControlFlow::Break(Some(stop)),
            None => ControlFlow::Continue(()),
        }
    }

    fn fault_tick(&mut self, _t: u64, tick: impl FnOnce(&mut TaskLedger) -> bool) {
        tick(&mut self.ledger);
    }

    fn collect(
        &mut self,
        _t: u64,
        _kernel: &LinkKernel,
    ) -> (&mut [InjectBatch], impl Fn(NodeId) -> usize) {
        (std::slice::from_mut(&mut self.arrivals), |_| 0)
    }

    #[inline(always)]
    fn inputs(
        &mut self,
        _t: u64,
    ) -> (
        &mut TaskLedger,
        impl IntoIterator<Item = Option<&mut Deliveries>>,
        &mut InjectBatch,
        impl FnMut(u32, &Packet),
    ) {
        let (tx_by_dim, link_dim) = (&mut self.tx_by_dim, &self.link_dim);
        let each_start = |link: u32, _: &Packet| {
            tx_by_dim[link_dim[link as usize] as usize] += 1;
        };
        (&mut self.ledger, [None], &mut self.arrivals, each_start)
    }

    #[inline]
    fn publish(&mut self, gauge: &Gauge) {
        self.gauge = *gauge;
    }
}

impl<N: Network, S: Scheme> Engine<N, S> {
    /// Builds an engine ready to run. Panics on a configuration the
    /// clock refuses ([`crate::ConfigError`]).
    pub fn new(topo: N, scheme: S, mix: TrafficMix, cfg: SimConfig) -> Self {
        let inline = Inline {
            ledger: TaskLedger::new(&cfg, topo.node_count(), topo.diameter()),
            arrivals: InjectBatch::default(),
            link_dim: topo.link_dim_table(),
            tx_by_dim: vec![0; topo.d()],
            gauge: Gauge::default(),
            peak: 0,
            cfg,
            queue_limit: cfg.queue_limit(topo.link_count() as usize),
        };
        let links = 0..topo.link_count();
        let clock = Clock::new(&topo, scheme, mix, &cfg, links, true, inline)
            .unwrap_or_else(|e| panic!("{e}"));
        Self { topo, clock }
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
            self.clock.hop.install_faults(clock, policy);
        }
        self
    }

    /// Installs an observability sink (builder style). The sink's
    /// decimation is queried once here; see [`pstar_obs::TraceSink`].
    /// Sinks receive copies of engine state and can never influence the
    /// simulation (in particular: never the RNG); without one every
    /// trace site is a single never-taken branch.
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.clock.trace(sink);
        self
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Number of tasks currently in progress (and the slab's high-water
    /// allocation footprint).
    pub fn active_tasks(&self) -> (usize, usize) {
        self.clock.transport.ledger.active_tasks()
    }

    /// The simulated topology.
    pub fn topology(&self) -> &N {
        &self.topo
    }

    /// Total transmissions performed per dimension since construction
    /// (always counted, unlike the window-gated statistics) — used by the
    /// tree-shape tests that verify the `a_{i,l}` counts of Eq. (1).
    pub fn transmissions_per_dim(&self) -> &[u64] {
        &self.clock.transport.tx_by_dim
    }

    /// Injects a single broadcast task at `src`, tagged for measurement
    /// regardless of the window. Returns the task's slot id. Intended for
    /// deterministic tree/latency tests together with
    /// [`Engine::run_until_idle`].
    pub fn inject_broadcast(&mut self, src: NodeId) -> u32 {
        self.inject(src, None)
    }

    /// Injects a single unicast task, tagged for measurement.
    pub fn inject_unicast(&mut self, src: NodeId, dest: NodeId) -> u32 {
        assert_ne!(src, dest, "unicast to self");
        self.inject(src, Some(dest))
    }

    /// Draws one measured task at `src` now and injects it past every
    /// gate (`Hop::inject`).
    fn inject(&mut self, src: NodeId, dest: Option<NodeId>) -> u32 {
        let t = self.clock.now();
        let clock = &mut self.clock;
        let inline = &mut clock.transport;
        let injector = clock.injector.as_mut().expect("the engine draws");
        injector.draw(
            t,
            &clock.hop.scheme,
            src,
            dest,
            true,
            None,
            &mut inline.arrivals,
        );
        let (msg, emits) = inline.arrivals.iter().next().expect("one task drawn");
        let mut cx = HopCtx {
            topo: &self.topo,
            homes: &mut inline.ledger,
            t,
        };
        let task = clock.hop.inject(&mut cx, msg, emits);
        inline.arrivals.clear();
        task
    }

    /// Replays a recorded workload trace instead of sampling arrivals
    /// ([`Injector::replaying`]), under the run loop and stop rule of
    /// [`Engine::run`].
    ///
    /// Each event is a task arriving at its recorded slot with its
    /// recorded length, exactly as a live arrival: tagged for
    /// measurement inside the configured window, through the admission
    /// gate, suppressed at a crashed source, waiting at its source under
    /// backpressure. The run stops as a live one does: once the window
    /// is over and every measured task is done, at the horizon, or when
    /// a divergence guard trips — later events never fire. A
    /// self-addressed unicast is skipped; a trace whose events name a
    /// node the topology does not have is refused before the first
    /// slot, naming the first such event.
    pub fn replay(mut self, trace: &pstar_traffic::Trace) -> Result<SimReport, TraceError> {
        let replaying = Injector::replaying(&self.topo.dim_sizes(), trace, self.clock.cfg())?;
        self.clock.injector = Some(replaying);
        Ok(self.run())
    }

    /// Steps until the network is completely idle (no queued or in-flight
    /// packets), without generating any arrivals. Returns the number of
    /// slots stepped. Panics after `max_slots` as a safety net.
    pub fn run_until_idle(&mut self) -> u64 {
        let start = self.clock.now();
        while !self.clock.hop.is_idle() {
            assert!(
                self.clock.now() < self.clock.cfg().max_slots,
                "drain did not terminate"
            );
            self.clock.step(&self.topo);
        }
        self.clock.now() - start
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
        let stop = self.clock.run(&self.topo);
        let sink = self.clock.hop.obs.take();
        (
            self.report(stop.expect("one owner never abandons a run")),
            sink,
        )
    }

    fn report(self, stop: Stop) -> SimReport {
        let num_classes = self.clock.hop.scheme.num_priorities();
        let (slots_run, cfg) = (self.clock.now(), *self.clock.cfg());
        let (hop, inline, queue_trace) = self.clock.into_parts();
        let flow = hop.flow;
        let (links, faults, arq) = hop.finish(slots_run);
        assemble(
            inline.ledger,
            links,
            RunOutcome {
                cfg: &cfg,
                link_dim: &inline.link_dim,
                d: self.topo.d(),
                num_classes,
                slots_run,
                stable: stop != Stop::Unstable,
                completed: stop == Stop::Completed,
                peak_queue_total: inline.peak,
                queue_trace,
                faults,
                arq: arq.as_ref(),
                flow: &flow,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::TraceField;
    use crate::packet::{BroadcastState, Emit, PacketKind};
    use pstar_topology::Direction;
    use pstar_topology::Torus;
    use rand::rngs::StdRng;

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
        e.report(Stop::Completed)
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
        let rep = e.report(Stop::Completed);
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
        assert!(engine.clock.hop.faults.is_none());
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
        let rep = e.report(Stop::Completed);
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
        e.clock.step(&e.topo);
        // Slot 1: B and C fill the queue to capacity...
        e.inject_unicast(NodeId(0), NodeId(1));
        e.inject_unicast(NodeId(0), NodeId(1));
        assert_eq!(e.clock.hop.kernel.qlen(0), 2);
        // ...then the link dies: A is requeued head-of-line, one over.
        e.clock.step(&e.topo);
        assert_eq!(e.clock.hop.kernel.qlen(0), 3, "capacity + 1 after requeue");
        // A further emit toward the (full, dead) queue is dropped — the
        // overflow never compounds.
        e.inject_unicast(NodeId(0), NodeId(1));
        assert_eq!(e.clock.hop.kernel.qlen(0), 3);
        e.run_until_idle();
        let rep = e.report(Stop::Completed);
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
        // ρ 0.6 of broadcasts plus ρ 0.2 of unicasts, in packets of a
        // length drawn per task: 1 or 2 slots, mean 1.5.
        let mix = TrafficMix::mixed(ring_lambda(&t, 0.4), 0.8 / 3.0 / t.avg_distance());
        let mut cfg = SimConfig::quick(37);
        cfg.lengths = pstar_traffic::WorkloadSpec::Uniform(1, 2);
        cfg.queue_capacity = Some(2);
        cfg.full_queue_policy = crate::recovery::FullQueuePolicy::Backpressure;
        let rep = crate::run(&t, s, mix, cfg);
        assert!(rep.ok(), "{rep}");
        assert_eq!(rep.dropped_packets, 0, "backpressure never drops");
        assert_eq!(rep.lost_receptions, 0);
        assert!(rep.flow.deferred_injections > 0);
        assert_eq!(rep.flow.defer_delay.count, rep.flow.deferred_injections);
        assert!(rep.flow.defer_delay.mean >= 1.0);
        // Every draw is taken at the arrival, so which tasks exist does
        // not depend on what the queues held: the unbounded run of the
        // same seed creates the same ones.
        let unbounded = SimConfig {
            queue_capacity: None,
            ..cfg
        };
        let unbounded = crate::run(&t, TestScheme { topo: t.clone() }, mix, unbounded);
        assert!(unbounded.ok(), "{unbounded}");
        assert_eq!(
            (rep.measured_broadcasts, rep.measured_unicasts),
            (unbounded.measured_broadcasts, unbounded.measured_unicasts)
        );
        assert!(rep.measured_unicasts > 0);
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
        assert_eq!(e.clock.hop.kernel.qlen(0), 2);
        // A class-0 broadcast copy evicts the newest queued unicast.
        e.inject_broadcast(NodeId(0));
        assert_eq!(e.clock.hop.kernel.qlen(0), 2);
        e.run_until_idle();
        let rep = e.report(Stop::Completed);
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

    /// Replays `events` on the 8-node ring under `cfg` and `plan`, with
    /// a 100-slot window from slot 0.
    fn replay_under(
        cfg: SimConfig,
        plan: FaultPlan,
        events: Vec<pstar_traffic::TraceEvent>,
    ) -> Result<SimReport, TraceError> {
        let (t, s) = ring(8);
        let trace = pstar_traffic::Trace::new(events);
        let cfg = SimConfig {
            warmup_slots: 0,
            measure_slots: 100,
            ..cfg
        };
        Engine::new(t, s, TrafficMix::broadcast_only(0.0), cfg)
            .with_fault_plan(plan, DeadLinkPolicy::Drop)
            .replay(&trace)
    }

    /// Replays `events` on the 8-node ring.
    fn replay(events: Vec<pstar_traffic::TraceEvent>) -> Result<SimReport, TraceError> {
        replay_under(SimConfig::quick(3), FaultPlan::none(), events)
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

    /// A replayed task arrives as a live one does: a source crashed for
    /// the whole run opens none of its tasks, so none of their copies is
    /// lost either.
    #[test]
    fn replay_opens_no_task_at_a_crashed_source() {
        let plan = FaultPlan::scripted(vec![pstar_faults::FaultEvent {
            slot: 0,
            kind: pstar_faults::FaultKind::NodeCrash(NodeId(3)),
        }]);
        let events = (0..20)
            .map(|k| event(k * 4, 3, (k % 2 == 0).then_some(6)))
            .collect();
        let rep = replay_under(SimConfig::quick(3), plan, events).expect("in range");
        assert_eq!((rep.measured_broadcasts, rep.measured_unicasts), (0, 0));
        assert_eq!(rep.dropped_packets, 0, "{rep}");
    }

    /// Replayed tasks pass the admission gate: a burst beyond the bucket
    /// is rejected and counted.
    #[test]
    fn replay_goes_through_the_admission_gate() {
        let cfg = SimConfig {
            admission: Some(crate::recovery::AdmissionConfig {
                rate: 0.05,
                burst: 2.0,
            }),
            ..SimConfig::quick(3)
        };
        let events = (0..10).map(|_| event(5, 0, None)).collect();
        let rep = replay_under(cfg, FaultPlan::none(), events).expect("in range");
        assert!(rep.flow.rejected_broadcasts > 0, "{rep}");
        assert_eq!(
            rep.measured_broadcasts + rep.flow.rejected_broadcasts,
            10,
            "every event is admitted or rejected"
        );
    }

    /// Replayed tasks wait at their source under backpressure: behind a
    /// full out-link of capacity 1 the rest of a burst is deferred, and
    /// nothing is dropped.
    #[test]
    fn replay_defers_at_a_full_source_under_backpressure() {
        let cfg = SimConfig {
            queue_capacity: Some(1),
            full_queue_policy: crate::recovery::FullQueuePolicy::Backpressure,
            ..SimConfig::quick(3)
        };
        let events = (0..10).map(|_| event(5, 0, Some(1))).collect();
        let rep = replay_under(cfg, FaultPlan::none(), events).expect("in range");
        assert!(rep.flow.deferred_injections > 0, "{rep}");
        assert_eq!(rep.dropped_packets, 0);
        assert_eq!(rep.unicast_delay.count, 10);
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
