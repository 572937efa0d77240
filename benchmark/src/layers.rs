//! The traced pass: per-layer numbers, all measured from outside.
//!
//! After the timed rounds each arm runs again instrumented — the serial
//! engine with a counting [`TraceSink`] and a counting [`Scheme`]
//! wrapper, the sharded engine and the runtime with their own telemetry
//! switched on — and then every layer's public functions are timed on an
//! operation stream shaped like the workload's (same torus, scheme,
//! class mix and task rate). `*.share_of_serial` multiplies a kernel's
//! cost per call by the calls the traced serial run counted and divides
//! by the untraced serial wall; `sim.engine.residual_share` is what is
//! left for the engine's own loop. End-to-end values never come from
//! here.

use crate::arms::{guarded, Case, Compared, Tally};
use crate::metrics::PER_LAYER;
use crate::spans::SpanLog;
use priority_star::prelude::*;
use priority_star::{balance_broadcast_only, balance_mixed, StarScheme};
use pstar_net::{Channel, NetWorkerPerf};
use pstar_obs::{TraceEvent, TraceRecord, TraceSink};
use pstar_sim::{
    generate_arrivals_into, ArrivalSink, BroadcastState, Emit, Packet, PacketKind, PriorityQueue,
    Scheme,
};
use pstar_stats::{LogHistogram, Moments};
use pstar_traffic::{DestSampler, ScenarioConfig, ScenarioCursor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// What the timed rounds hand to the traced pass.
pub struct Baseline<'a> {
    pub serial: &'a SimReport,
    pub compared: &'a Compared,
    /// Best untraced wall of each arm, in round order.
    pub best_wall_ns: [f64; 3],
}

// ---------------------------------------------------------------------
// Counting sink: the serial engine's events, seen from outside
// ---------------------------------------------------------------------

/// How the sink tells a unicast packet from a broadcast copy (the trace
/// events carry a class, not a kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnicastMark {
    /// Broadcast-only workload.
    None,
    /// Unicast-only workload.
    All,
    /// The three-class discipline gives unicast a class of its own.
    Class(u8),
}

impl UnicastMark {
    pub fn of(case: &Case) -> Self {
        let w = case.workload;
        match (w.has_broadcast(), w.has_unicast()) {
            (true, false) => UnicastMark::None,
            (false, _) => UnicastMark::All,
            (true, true) => {
                assert_eq!(
                    w.scheme,
                    SchemeKind::ThreeClass,
                    "a mixed workload needs the three-class scheme for its unicast to be countable"
                );
                UnicastMark::Class(1)
            }
        }
    }

    fn is_unicast(self, class: u8) -> bool {
        match self {
            UnicastMark::None => false,
            UnicastMark::All => true,
            UnicastMark::Class(c) => c == class,
        }
    }
}

/// Counts enqueues, service starts and deliveries, and sums per-class
/// waits over the measurement window.
pub struct CountingSink {
    window: std::ops::Range<u64>,
    unicast: UnicastMark,
    pub enqueues: u64,
    pub service_starts: u64,
    /// Service starts whose packet never waited: pushed to an empty queue
    /// on an idle link.
    pub zero_wait_starts: u64,
    pub window_service_starts: u64,
    /// Deliveries as the report counts them: receptions and unicast
    /// arrivals of tasks generated inside the window.
    pub deliveries: u64,
    pub window_wait_sum: [u64; 3],
    pub window_wait_n: [u64; 3],
    /// Generation slot of the unicast task last seen delivering under
    /// each task id. A hop arrival and a final arrival look the same in
    /// the trace, so a unicast task is counted once, at its first
    /// delivery; ids are reused, but never by a task generated in the
    /// same slot as its predecessor.
    unicast_gen_by_task: Vec<u64>,
}

impl CountingSink {
    pub fn new(cfg: &SimConfig, unicast: UnicastMark) -> Self {
        Self {
            window: cfg.warmup_slots..cfg.measure_end(),
            unicast,
            enqueues: 0,
            service_starts: 0,
            zero_wait_starts: 0,
            window_service_starts: 0,
            deliveries: 0,
            window_wait_sum: [0; 3],
            window_wait_n: [0; 3],
            unicast_gen_by_task: Vec::new(),
        }
    }

    pub fn wait_mean(&self, class: usize) -> f64 {
        match self.window_wait_n[class] {
            0 => 0.0,
            n => self.window_wait_sum[class] as f64 / n as f64,
        }
    }

    /// The lowest-priority class that carried packets in the window: 1
    /// under priority-star broadcast, 2 under the three-class discipline,
    /// 0 when unicast alone rides the high class.
    pub fn lowest_class(&self) -> usize {
        self.window_wait_n.iter().rposition(|&n| n > 0).unwrap_or(0)
    }

    pub fn wait_mean_all(&self) -> f64 {
        let n: u64 = self.window_wait_n.iter().sum();
        self.window_wait_sum.iter().sum::<u64>() as f64 / n as f64
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, rec: TraceRecord) {
        match rec.event {
            TraceEvent::Enqueue { .. } => self.enqueues += 1,
            TraceEvent::ServiceStart { class, wait, .. } => {
                self.service_starts += 1;
                self.zero_wait_starts += u64::from(wait == 0);
                if self.window.contains(&rec.slot) {
                    self.window_service_starts += 1;
                    if let Some(sum) = self.window_wait_sum.get_mut(class as usize) {
                        *sum += wait;
                        self.window_wait_n[class as usize] += 1;
                    }
                }
            }
            TraceEvent::Delivery {
                class, age, task, ..
            } => {
                let generated = rec.slot - age;
                let first_of_its_task = !self.unicast.is_unicast(class) || {
                    let task = task as usize;
                    if self.unicast_gen_by_task.len() <= task {
                        self.unicast_gen_by_task.resize(task + 1, u64::MAX);
                    }
                    std::mem::replace(&mut self.unicast_gen_by_task[task], generated) != generated
                };
                if first_of_its_task && self.window.contains(&generated) {
                    self.deliveries += 1;
                }
            }
            _ => {}
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

// ---------------------------------------------------------------------
// Counting scheme: calls into core.scheme, seen from outside
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
pub struct SchemeCalls {
    pub bcast_gen: u64,
    pub bcast_arrival: u64,
    pub ucast_gen: u64,
    pub ucast_arrival: u64,
    pub emits: u64,
}

impl SchemeCalls {
    pub fn total(&self) -> u64 {
        self.bcast_gen + self.bcast_arrival + self.ucast_gen + self.ucast_arrival
    }
}

/// Delegates to the real scheme and counts calls and emits. The serial
/// engine is single-threaded, so plain `Cell`s do.
struct CountingScheme<'a> {
    inner: &'a StarScheme,
    calls: Cell<SchemeCalls>,
}

impl CountingScheme<'_> {
    fn bump(&self, out: &[Emit], before: usize, f: impl FnOnce(&mut SchemeCalls)) {
        let mut c = self.calls.get();
        f(&mut c);
        c.emits += (out.len() - before) as u64;
        self.calls.set(c);
    }
}

impl Scheme for CountingScheme<'_> {
    fn num_priorities(&self) -> usize {
        self.inner.num_priorities()
    }

    fn on_broadcast_generated(&self, src: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>) {
        let before = out.len();
        self.inner.on_broadcast_generated(src, rng, out);
        self.bump(out, before, |c| c.bcast_gen += 1);
    }

    fn on_broadcast_arrival(&self, node: NodeId, state: &BroadcastState, out: &mut Vec<Emit>) {
        let before = out.len();
        self.inner.on_broadcast_arrival(node, state, out);
        self.bump(out, before, |c| c.bcast_arrival += 1);
    }

    fn on_unicast_generated(
        &self,
        src: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    ) {
        let before = out.len();
        self.inner.on_unicast_generated(src, dest, rng, out);
        self.bump(out, before, |c| c.ucast_gen += 1);
    }

    fn on_unicast_arrival(
        &self,
        node: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    ) {
        let before = out.len();
        self.inner.on_unicast_arrival(node, dest, rng, out);
        self.bump(out, before, |c| c.ucast_arrival += 1);
    }

    fn subtree_receptions(&self, state: &BroadcastState) -> u32 {
        self.inner.subtree_receptions(state)
    }

    fn retransmit_priority(&self, original: u8) -> u8 {
        self.inner.retransmit_priority(original)
    }
}

/// One serial run through the counting scheme and the counting sink.
pub fn counted_serial_run(case: &Case) -> (SimReport, SchemeCalls, CountingSink) {
    let scheme = case.spec.build_scheme(&case.topo);
    let counting = CountingScheme {
        inner: &scheme,
        calls: Cell::default(),
    };
    let sink = Box::new(CountingSink::new(&case.cfg, UnicastMark::of(case)));
    let engine = pstar_sim::Engine::new(
        case.topo.clone(),
        &counting,
        case.spec.mix(&case.topo),
        case.engine_cfg(),
    );
    let (report, sink) = engine.with_trace(sink).run_observed();
    let sink = sink
        .expect("engine returns the installed sink")
        .into_any()
        .downcast::<CountingSink>()
        .expect("the sink installed above");
    (report, counting.calls.get(), *sink)
}

// ---------------------------------------------------------------------
// Kernels: each layer's public functions on a workload-shaped stream
// ---------------------------------------------------------------------

/// Best of seven batches, each sized to about 4 ms, in ns per operation;
/// `pass` performs `ops_per_pass` operations. Best-of for the same reason
/// as the timed rounds: the work repeats exactly, noise only adds.
fn bench(ops_per_pass: u64, mut pass: impl FnMut()) -> f64 {
    let t = Instant::now();
    pass();
    let one_ns = t.elapsed().as_nanos().max(1) as u64;
    let passes = (4_000_000 / one_ns).clamp(1, 100_000);
    (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..passes {
                pass();
            }
            t.elapsed().as_nanos() as f64 / (passes * ops_per_pass) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn broadcast_state(e: &Emit) -> BroadcastState {
    match e.kind {
        PacketKind::Broadcast(state) => state,
        PacketKind::Unicast { .. } => unreachable!("broadcast callbacks emit broadcast copies"),
    }
}

/// Every `(node, state)` the scheme's arrival callback sees while whole
/// broadcast trees expand from random sources; errors if a tree does
/// not reach each other node exactly once.
fn broadcast_arrival_pool(
    topo: &Torus,
    scheme: &StarScheme,
    rng: &mut StdRng,
) -> Result<Vec<(NodeId, BroadcastState)>, String> {
    let n = topo.node_count();
    let mut pool = Vec::new();
    let (mut out, mut stack) = (Vec::new(), Vec::new());
    while pool.len() < 4096 {
        let src = NodeId(rng.gen_range(0..n));
        let before = pool.len();
        let mut seen = vec![false; n as usize];
        out.clear();
        scheme.on_broadcast_generated(src, rng, &mut out);
        stack.extend(out.iter().map(|e| {
            (
                topo.neighbor(src, e.dim as usize, e.dir),
                broadcast_state(e),
            )
        }));
        while let Some((node, state)) = stack.pop() {
            if node == src || std::mem::replace(&mut seen[node.index()], true) {
                return Err(format!("broadcast tree from {src} reaches {node} twice"));
            }
            pool.push((node, state));
            out.clear();
            scheme.on_broadcast_arrival(node, &state, &mut out);
            stack.extend(out.iter().map(|e| {
                (
                    topo.neighbor(node, e.dim as usize, e.dir),
                    broadcast_state(e),
                )
            }));
        }
        if pool.len() - before != n as usize - 1 {
            return Err(format!(
                "broadcast tree from {src} made {} receptions, not {}",
                pool.len() - before,
                n - 1
            ));
        }
    }
    Ok(pool)
}

/// `(node, dest, first_hop)` for every unicast callback along random
/// shortest paths.
fn unicast_call_pool(
    topo: &Torus,
    scheme: &StarScheme,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId, bool)> {
    let n = topo.node_count();
    let mut pool = Vec::new();
    let mut out = Vec::new();
    while pool.len() < 4096 {
        let src = NodeId(rng.gen_range(0..n));
        let dest = NodeId((src.0 + rng.gen_range(1..n)) % n);
        let mut node = src;
        while node != dest {
            pool.push((node, dest, node == src));
            out.clear();
            if node == src {
                scheme.on_unicast_generated(node, dest, rng, &mut out);
            } else {
                scheme.on_unicast_arrival(node, dest, rng, &mut out);
            }
            node = topo.neighbor(node, out[0].dim as usize, out[0].dir);
        }
    }
    pool
}

/// An [`ArrivalSink`] that only counts what it is asked to spawn.
struct CountingArrivals {
    rng: StdRng,
    dests: DestSampler,
    spawned: u64,
}

impl ArrivalSink for CountingArrivals {
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler) {
        (&mut self.rng, &self.dests)
    }

    fn source_dead(&self, _node: NodeId) -> bool {
        false
    }

    fn spawn(&mut self, src: NodeId, dest: Option<NodeId>) {
        black_box((src, dest));
        self.spawned += 1;
    }
}

fn packet(task: u32, priority: u8) -> Packet {
    Packet {
        task,
        gen_time: 0,
        enqueue_time: 0,
        len: 1,
        priority,
        vc: 0,
        attempt: 0,
        kind: PacketKind::Unicast { dest: NodeId(0) },
    }
}

/// Push-then-pop pairs over one queue per link, visited in a scattered
/// order as the engine's deliveries do, each queue holding `depth`
/// packets of the scheme's classes beforehand.
fn queue_kernel(links: usize, classes: u8, depth: u32, rng: &mut StdRng) -> f64 {
    let mut queues: Vec<PriorityQueue> = (0..links).map(|_| PriorityQueue::new()).collect();
    for q in &mut queues {
        for i in 0..depth {
            q.push(packet(i, (i % u32::from(classes)) as u8));
        }
    }
    let visits: Vec<(u32, u8)> = (0..8192)
        .map(|_| (rng.gen_range(0..links as u32), rng.gen_range(0..classes)))
        .collect();
    bench(visits.len() as u64, || {
        for &(link, class) in &visits {
            let q = &mut queues[link as usize];
            q.push(packet(link, class));
            black_box(q.pop());
        }
    })
}

struct Kernels {
    topology_build_ns: f64,
    balance_solve_ns: f64,
    scheme_build_ns: f64,
    bcast_gen_ns: f64,
    bcast_arrival_ns: f64,
    ucast_ns_per_hop: f64,
    arrivals_ns_per_slot: f64,
    arrivals_tasks_per_slot: f64,
    queue_deep_ns: f64,
    queue_shallow_ns: f64,
    moments_push_ns: f64,
    loghist_record_ns: f64,
    channel_ns_per_msg: f64,
}

/// Packets each queue holds in the deep-queue kernel.
const DEEP_QUEUE: u32 = 8;

fn run_kernels(case: &Case, spans: &mut SpanLog) -> Result<Kernels, String> {
    let (topo, spec) = (&case.topo, &case.spec);
    let dims = case.workload.dims;
    let mix = spec.mix(topo);
    let scheme = spec.build_scheme(topo);
    // The kernels' own stream: derived from the seed, never shared with
    // a simulated run.
    let mut rng = StdRng::seed_from_u64(case.cfg.seed ^ 0x6b65_726e_656c_7321);

    let (topology_build_ns, _) = spans.time("topology.build", |_| {
        bench(1, || drop(black_box(Torus::new(black_box(dims)))))
    });
    let (balance_solve_ns, _) = spans.time("core.balance.solve", |_| {
        bench(1, || {
            // The system `build_scheme` solves for this mix: Eq. (4) when
            // both kinds of traffic are offered, Eq. (2) otherwise.
            if mix.lambda_broadcast > 0.0 && mix.lambda_unicast > 0.0 {
                black_box(balance_mixed(
                    topo,
                    mix.lambda_broadcast,
                    mix.lambda_unicast,
                    false,
                ));
            } else {
                black_box(balance_broadcast_only(topo));
            }
        })
    });
    let (scheme_build_ns, _) = spans.time("core.scheme.build", |_| {
        bench(1, || drop(black_box(spec.build_scheme(topo))))
    });

    let sources: Vec<NodeId> = (0..1024)
        .map(|_| NodeId(rng.gen_range(0..topo.node_count())))
        .collect();
    let mut out: Vec<Emit> = Vec::with_capacity(16);
    let (bcast_gen_ns, _) = spans.time("core.scheme.bcast_gen", |_| {
        bench(sources.len() as u64, || {
            for &src in &sources {
                out.clear();
                scheme.on_broadcast_generated(src, &mut rng, &mut out);
                black_box(&out);
            }
        })
    });
    let arrivals = broadcast_arrival_pool(topo, &scheme, &mut rng)?;
    let (bcast_arrival_ns, _) = spans.time("core.scheme.bcast_arrival", |_| {
        bench(arrivals.len() as u64, || {
            for (node, state) in &arrivals {
                out.clear();
                scheme.on_broadcast_arrival(*node, state, &mut out);
                black_box(&out);
            }
        })
    });
    let hops = unicast_call_pool(topo, &scheme, &mut rng);
    let (ucast_ns_per_hop, _) = spans.time("core.scheme.ucast", |_| {
        bench(hops.len() as u64, || {
            for &(node, dest, first) in &hops {
                out.clear();
                if first {
                    scheme.on_unicast_generated(node, dest, &mut rng, &mut out);
                } else {
                    scheme.on_unicast_arrival(node, dest, &mut rng, &mut out);
                }
                black_box(&out);
            }
        })
    });

    let dests = ScenarioConfig::default()
        .resolve_dests(dims)
        .map_err(|e| e.to_string())?;
    let mut sink = CountingArrivals {
        rng: StdRng::seed_from_u64(case.cfg.seed),
        dests,
        spawned: 0,
    };
    let mut cursor = ScenarioCursor::new(ScenarioConfig::default());
    let (mut slot, slots_per_pass) = (0u64, 512u64);
    let (arrivals_ns_per_slot, _) = spans.time("sim.arrivals.generate", |_| {
        bench(slots_per_pass, || {
            for _ in 0..slots_per_pass {
                generate_arrivals_into(&mut sink, &mut cursor, mix, topo.node_count(), slot);
                slot += 1;
            }
        })
    });
    let arrivals_tasks_per_slot = sink.spawned as f64 / slot as f64;

    let links = topo.link_count() as usize;
    let classes = scheme.num_priorities() as u8;
    let (queue_deep_ns, _) = spans.time("sim.queue.deep", |_| {
        queue_kernel(links, classes, DEEP_QUEUE, &mut rng)
    });
    let (queue_shallow_ns, _) = spans.time("sim.queue.shallow", |_| {
        queue_kernel(links, classes, 0, &mut rng)
    });

    // Delay-like values: a geometric-ish spread around the run's mean.
    let mean = case.workload.rho / (1.0 - case.workload.rho) + topo.diameter() as f64 / 2.0;
    let delays: Vec<u64> = (0..4096)
        .map(|_| (-(rng.gen::<f64>().max(1e-12)).ln() * mean) as u64 + 1)
        .collect();
    let mut moments = Moments::new();
    let (moments_push_ns, _) = spans.time("stats.moments_push", |_| {
        bench(delays.len() as u64, || {
            for &d in &delays {
                moments.push(d as f64);
            }
            black_box(&moments);
        })
    });
    let mut hist = LogHistogram::new();
    let (loghist_record_ns, _) = spans.time("stats.loghist_record", |_| {
        bench(delays.len() as u64, || {
            for &d in &delays {
                hist.record(d);
            }
            black_box(&hist);
        })
    });

    let channel: Channel<u64> = Channel::bounded(1024);
    let mut drained = Vec::with_capacity(512);
    let (channel_ns_per_msg, _) = spans.time("net.channel.send_drain", |_| {
        bench(512, || {
            for i in 0..512 {
                channel.send(i);
            }
            drained.clear();
            channel.drain_into(&mut drained);
            black_box(&drained);
        })
    });

    Ok(Kernels {
        topology_build_ns,
        balance_solve_ns,
        scheme_build_ns,
        bcast_gen_ns,
        bcast_arrival_ns,
        ucast_ns_per_hop,
        arrivals_ns_per_slot,
        arrivals_tasks_per_slot,
        queue_deep_ns,
        queue_shallow_ns,
        moments_push_ns,
        loghist_record_ns,
        channel_ns_per_msg,
    })
}

// ---------------------------------------------------------------------
// The pass itself
// ---------------------------------------------------------------------

/// Instrumented arms run this many times; overheads compare best wall to
/// best wall.
const TRACED_REPS: usize = 3;

/// Runs `run` `reps` times under `tally`; returns the last successful
/// output and the best wall.
fn traced_reps<T>(
    name: &str,
    spans: &mut SpanLog,
    tally: &mut Tally,
    reps: usize,
    mut run: impl FnMut() -> Result<T, String>,
) -> Option<(T, f64)> {
    let mut kept = None;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (out, wall_ns) = spans.time(name, |_| guarded(name, &mut run));
        if let Some(v) = tally.record(out) {
            best = best.min(wall_ns as f64);
            kept = Some(v);
        }
    }
    kept.map(|v| (v, best))
}

/// Everything the traced pass produced.
pub struct Traced {
    /// All of [`PER_LAYER`], in declaration order. Not-a-number
    /// throughout when an instrumented run failed: the failure is in the
    /// tally and the run is incorrect whatever the rest measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Barrier-protocol spans of the 2-thread sharded run, as a Chrome
    /// trace document.
    pub phases_chrome_json: Option<String>,
}

pub fn traced_pass(case: &Case, base: &Baseline, spans: &mut SpanLog, tally: &mut Tally) -> Traced {
    let (pass, _) = spans.time("traced_pass", |spans| {
        traced_pass_inner(case, base, spans, tally)
    });
    pass.unwrap_or_else(|| Traced {
        metrics: PER_LAYER.iter().map(|l| (l.name, f64::NAN)).collect(),
        phases_chrome_json: None,
    })
}

fn traced_pass_inner(
    case: &Case,
    base: &Baseline,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Option<Traced> {
    let [serial_ns, sharded_ns, net_ns] = base.best_wall_ns;
    let hops = base.serial.window_transmissions;
    let delivered = base.compared.delivered();
    let same_report = |what: &str, r: &SimReport| Compared::of(r).same_as(base.compared, what);

    // obs: run_scenario_observed with the counting sink, for the cost of
    // tracing itself.
    let observed = traced_reps("serial_observed", spans, tally, TRACED_REPS, || {
        let sink = Box::new(CountingSink::new(&case.cfg, UnicastMark::of(case)));
        let (report, _) = run_scenario_observed(&case.topo, &case.spec, case.cfg, sink);
        same_report("observed serial run differs from the untraced one", &report)
    });

    // sim.engine: counts from one run through both counters.
    let counted = traced_reps("serial_counted", spans, tally, 1, || {
        let (report, calls, sink) = counted_serial_run(case);
        same_report("counted serial run differs from the untraced one", &report)?;
        if sink.deliveries != delivered {
            return Err(format!(
                "sink counted {} deliveries, the report {delivered}",
                sink.deliveries
            ));
        }
        if sink.window_service_starts != hops {
            return Err(format!(
                "sink counted {} window service starts, the report {} hops",
                sink.window_service_starts, hops
            ));
        }
        Ok((calls, sink))
    });

    let (kernels, _) = spans.time("kernels", |spans| {
        guarded("kernels", || run_kernels(case, spans))
    });
    let kernels = tally.record(kernels);

    // sim.sharded: the engine's own telemetry, one shard then two.
    let sharded_perf = |shards: usize, threads: usize| {
        let (report, perf) = run_scenario_sharded_perf(
            &case.topo,
            &case.spec,
            case.cfg,
            shards,
            threads,
            None,
            EnginePerfConfig::default(),
        );
        same_report("instrumented sharded run differs from serial", &report).map(|()| perf)
    };
    let s1 = traced_reps("sharded_s1_perf", spans, tally, TRACED_REPS, || {
        sharded_perf(1, 1)
    });
    let t2 = traced_reps("sharded_t2_perf", spans, tally, 1, || sharded_perf(2, 2));

    // net.runtime: NetConfig { perf: true }.
    let net = traced_reps("net_w2_perf", spans, tally, TRACED_REPS, || {
        let report = case.run_net(true).map_err(|e| e.to_string())?;
        crate::arms::check_net(case, base.compared, &report.report, None)?;
        let perf = report.perf.ok_or("perf run returned no telemetry")?;
        Ok((perf, report.messages_sent))
    });

    let ((), observed_ns) = observed?;
    let ((calls, sink), _) = counted?;
    let k = kernels?;
    let (s1, s1_ns) = s1?;
    let (t2, _) = t2?;
    let ((net, messages_sent), net_perf_ns) = net?;

    let mut m: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, value: f64| m.push((name, value));

    put("topology.build_ns", k.topology_build_ns);
    put("core.balance.solve_ns", k.balance_solve_ns);
    put("core.scheme.build_ns", k.scheme_build_ns);

    put("core.scheme.bcast_gen_ns_per_call", k.bcast_gen_ns);
    put("core.scheme.bcast_arrival_ns_per_call", k.bcast_arrival_ns);
    put("core.scheme.ucast_ns_per_hop", k.ucast_ns_per_hop);
    put(
        "core.scheme.emits_per_call",
        calls.emits as f64 / calls.total() as f64,
    );
    put("core.scheme.calls", calls.total() as f64);
    let scheme_share = (calls.bcast_gen as f64 * k.bcast_gen_ns
        + calls.bcast_arrival as f64 * k.bcast_arrival_ns
        + (calls.ucast_gen + calls.ucast_arrival) as f64 * k.ucast_ns_per_hop)
        / serial_ns;
    put("core.scheme.share_of_serial", scheme_share);

    let slots = base.serial.slots_run as f64;
    put("sim.arrivals.ns_per_slot", k.arrivals_ns_per_slot);
    put(
        "sim.arrivals.ns_per_task",
        k.arrivals_ns_per_slot / k.arrivals_tasks_per_slot,
    );
    put("sim.arrivals.tasks_per_slot", k.arrivals_tasks_per_slot);
    let arrivals_share = slots * k.arrivals_ns_per_slot / serial_ns;
    put("sim.arrivals.share_of_serial", arrivals_share);

    put("sim.queue.push_pop_ns_deep", k.queue_deep_ns);
    put("sim.queue.push_pop_ns_shallow", k.queue_shallow_ns);
    put("sim.queue.ops", sink.enqueues as f64);
    // A packet served the slot it arrived found its queue empty; the
    // rest joined a backlog.
    let shallow = sink.zero_wait_starts as f64;
    let queue_share = (shallow * k.queue_shallow_ns
        + (sink.enqueues as f64 - shallow) * k.queue_deep_ns)
        / serial_ns;
    put("sim.queue.share_of_serial", queue_share);

    // Every delay and wait the serial engine records is a moments push;
    // each measured delivery also lands in a histogram.
    let r = base.serial;
    let moment_pushes =
        delivered + r.broadcast_delay.count + r.class.iter().map(|c| c.wait.count).sum::<u64>();
    put("stats.moments_push_ns", k.moments_push_ns);
    put("stats.loghist_record_ns", k.loghist_record_ns);
    put("stats.records", moment_pushes as f64);
    let stats_share = (moment_pushes as f64 * k.moments_push_ns
        + delivered as f64 * k.loghist_record_ns)
        / serial_ns;
    put("stats.share_of_serial", stats_share);

    put("sim.engine.slots", slots);
    put("sim.engine.enqueues", sink.enqueues as f64);
    put("sim.engine.service_starts", sink.service_starts as f64);
    put("sim.engine.deliveries", sink.deliveries as f64);
    put("sim.engine.peak_queue_total", r.peak_queue_total as f64);
    put("sim.engine.wait_mean_slots_c0", sink.wait_mean(0));
    // Not one metric per class: a class the workload does not use would
    // read 0 on every run.
    put(
        "sim.engine.wait_mean_slots_lowest",
        sink.wait_mean(sink.lowest_class()),
    );
    put("sim.engine.wait_mean_slots", sink.wait_mean_all());
    put("sim.engine.ns_per_slot", serial_ns / slots);
    let residual = 1.0 - (scheme_share + arrivals_share + queue_share + stats_share);
    put("sim.engine.residual_share", residual);
    tally.record(if residual >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "kernel estimates exceed the serial wall (residual share {residual})"
        ))
    });

    let over_workers = |p: &EnginePerf, f: &dyn Fn(&pstar_sim::WorkerPhases) -> u64| {
        p.worker_phases.iter().map(f).sum::<u64>() as f64
    };
    put(
        "sim.sharded.s1_coord_share",
        s1.coord.work_total() as f64 / s1.wall_ns as f64,
    );
    put("sim.sharded.t2_ns_per_hop", t2.wall_ns as f64 / hops as f64);
    put("sim.sharded.t2_over_serial", t2.wall_ns as f64 / serial_ns);
    // Barriers gamma and epsilon gate no worker work, only waits.
    for (i, name) in [
        (0, "sim.sharded.work_ns.alpha"),
        (1, "sim.sharded.work_ns.beta"),
        (3, "sim.sharded.work_ns.delta"),
    ] {
        put(name, over_workers(&t2, &|w| w.work_ns[i]));
    }
    for (i, name) in [
        "sim.sharded.wait_ns.alpha",
        "sim.sharded.wait_ns.beta",
        "sim.sharded.wait_ns.gamma",
        "sim.sharded.wait_ns.delta",
        "sim.sharded.wait_ns.epsilon",
    ]
    .into_iter()
    .enumerate()
    {
        put(name, over_workers(&t2, &|w| w.wait_ns[i]));
    }
    put("sim.sharded.coord_merge_ns", s1.coord.merge_ns as f64);
    put("sim.sharded.coord_mid_ns", s1.coord.mid_ns as f64);
    put("sim.sharded.coord_end_ns", s1.coord.end_ns as f64);
    put("sim.sharded.coord_wait_ns", t2.coord.wait_ns as f64);
    put("sim.sharded.boundary_packets", t2.boundary_packets as f64);
    put("sim.sharded.merged_msgs", s1.merged_msgs as f64);
    put("sim.sharded.serial_fraction", s1.serial_fraction());
    let t2_wait = over_workers(&t2, &|w| w.wait_total());
    put(
        "sim.sharded.wait_share",
        t2_wait / (t2_wait + over_workers(&t2, &|w| w.work_total())),
    );

    let over_net = |f: fn(&NetWorkerPerf) -> u64| net.workers.iter().map(f).sum::<u64>() as f64;
    // The worst worker: the slowest sets the pace of a slot-synchronous
    // fleet, the deepest inbox is the channel pressure.
    let worst = |f: fn(&NetWorkerPerf) -> u64| net.workers.iter().map(f).max().unwrap_or(0) as f64;
    let barrier_wait = over_net(|w| w.wait_ns_total());
    put("net.runtime.barrier_wait_ns", barrier_wait);
    put("net.runtime.phase_a_ns", over_net(|w| w.phase_a_ns));
    put("net.runtime.phase_b_ns", over_net(|w| w.phase_b_ns));
    put("net.runtime.decide_ns", over_net(|w| w.decide_ns));
    // Channel pressure as depth: no send blocks on these workloads, so
    // `blocked_send_ns` would read 0 on every run.
    put(
        "net.channel.depth_high",
        worst(|w| w.data_depth_high as u64),
    );
    put("net.runtime.messages_sent", messages_sent as f64);
    put("net.runtime.slot_ns_median", worst(|w| w.slot_ns_median));
    put("net.runtime.slot_ns_max", worst(|w| w.slot_ns_max));
    put(
        "net.runtime.wait_share",
        barrier_wait / over_net(|w| w.slot_ns_sum),
    );
    put("net.channel.send_drain_ns_per_msg", k.channel_ns_per_msg);

    put("obs.trace_overhead_frac", observed_ns / serial_ns - 1.0);
    put("sim.sharded.perf_overhead_frac", s1_ns / sharded_ns - 1.0);
    put("net.runtime.perf_overhead_frac", net_perf_ns / net_ns - 1.0);

    let declared: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
    let emitted: Vec<&str> = m.iter().map(|(name, _)| *name).collect();
    assert_eq!(emitted, declared, "traced pass and PER_LAYER disagree");

    Some(Traced {
        metrics: m,
        phases_chrome_json: Some(pstar_obs::chrome_trace_phases(&t2.spans)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Mode, WORKLOADS};

    #[test]
    fn counting_sink_deliveries_equal_the_reports_delivered_count() {
        for w in &WORKLOADS {
            let case = Case::new(w, 1, Mode::Smoke);
            let (report, calls, sink) = counted_serial_run(&case);
            let plain = run_scenario(&case.topo, &case.spec, case.cfg);
            let compared = Compared::of(&report);
            compared.same_as(&Compared::of(&plain), w.name).unwrap();
            assert_eq!(sink.deliveries, compared.delivered(), "{}", w.name);
            assert_eq!(
                sink.window_service_starts, report.window_transmissions,
                "{}",
                w.name
            );
            // Every enqueue is an emit of some scheme call.
            assert_eq!(calls.emits, sink.enqueues, "{}", w.name);
            assert!(sink.service_starts <= sink.enqueues);
            for (class, stats) in report.class.iter().enumerate().take(3) {
                assert_eq!(
                    sink.window_wait_n[class], stats.wait.count,
                    "{} class {class}",
                    w.name
                );
                assert!((sink.wait_mean(class) - stats.wait.mean).abs() < 1e-9);
            }
            assert_eq!(calls.ucast_gen > 0, w.has_unicast());
            assert_eq!(calls.bcast_gen > 0, w.has_broadcast());
        }
    }

    /// A class, phase or channel a workload does not use must not be a
    /// metric: it would read 0 on every run.
    #[test]
    fn no_layer_metric_is_zero_on_any_workload() {
        for w in &WORKLOADS {
            let case = Case::new(w, 1, Mode::Smoke);
            let serial = run_scenario(&case.topo, &case.spec, case.cfg);
            let compared = Compared::of(&serial);
            let base = Baseline {
                serial: &serial,
                compared: &compared,
                best_wall_ns: [10e9, 10e9, 10e9],
            };
            let mut tally = Tally::default();
            let traced = traced_pass(&case, &base, &mut SpanLog::new(false), &mut tally);
            assert_eq!(tally.failed, 0, "{}: {:?}", w.name, tally.failures);
            for (name, v) in &traced.metrics {
                assert!(v.is_finite() && *v != 0.0, "{} {name} = {v}", w.name);
            }
        }
    }

    #[test]
    fn traced_pass_emits_every_declared_layer_metric_and_reconciles() {
        let case = Case::new(&WORKLOADS[1], 1, Mode::Smoke);
        let serial = run_scenario(&case.topo, &case.spec, case.cfg);
        let compared = Compared::of(&serial);
        // A generous serial wall: the test checks bookkeeping, not speed.
        let base = Baseline {
            serial: &serial,
            compared: &compared,
            best_wall_ns: [10e9, 10e9, 10e9],
        };
        let mut spans = SpanLog::new(true);
        let mut tally = Tally::default();
        let traced = traced_pass(&case, &base, &mut spans, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        assert_eq!(traced.metrics.len(), 63);
        let get = |name: &str| traced.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(traced.metrics.iter().all(|(_, v)| v.is_finite()));
        assert_eq!(get("sim.engine.deliveries"), compared.delivered() as f64);
        assert!(get("sim.engine.residual_share") > 0.0 && get("sim.engine.residual_share") < 1.0);
        assert!(get("sim.sharded.boundary_packets") > 0.0);
        assert!(get("core.scheme.emits_per_call") > 0.5);
        assert!(traced.phases_chrome_json.is_some());
        // Every kernel and every instrumented run sits under the pass.
        let root = spans
            .spans
            .iter()
            .position(|s| s.name == "traced_pass")
            .unwrap();
        assert!(spans.spans.iter().any(|s| s.name == "sim.queue.deep"));
        assert!(
            spans
                .spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .count()
                >= 6
        );
    }
}
