//! The thread-per-core slot-synchronous runtime.
//!
//! Topology nodes are sharded into contiguous ranges over `W` worker
//! threads; each worker owns its nodes' outgoing links — one
//! [`pstar_sim::LinkKernel`] over their contiguous id range, the same
//! queueing and service code the simulator's engines run — a private
//! [`crate::stats::WorkerStats`] accumulator, and — with ARQ on — its
//! own [`pstar_sim::Arq`] timers.
//! Workers never share mutable state: everything crosses core
//! boundaries as messages over [`crate::channel::Channel`]s, handed
//! over one batch per lane per phase — a worker appends a phase's
//! messages to per-destination outboxes it owns and passes each
//! non-empty outbox through one `Channel::send_batch`, so no lock is
//! taken per message and none at all for a lane nothing was sent on.
//!
//! # Slot protocol
//!
//! Every slot `t` runs two barrier-separated phases and a one-way
//! decision hand-off:
//!
//! * **Phase A (send)** — each worker moves deliveries finishing at `t`
//!   off its links into the data outbox of the target
//!   node's owner, and traffic is injected (virtual mode: worker 0 runs
//!   the global [`crate::inject::VirtualInjector`] and scatters
//!   [`crate::inject::InjectMsg`]s to source owners; wall-clock mode:
//!   every worker injects for its own nodes). The phase ends by
//!   flushing the data and inject outboxes; **barrier A** follows.
//! * **Phase B (process)** — each worker drains control messages
//!   (acks/losses/registrations from slot `t − 1`), then data channels
//!   (this slot's deliveries, applying scheme forwarding), then fires
//!   its due ARQ retransmissions, then processes injections, and
//!   finally starts service on idle owned links — the same
//!   deliveries → retransmissions → arrivals → service order as one
//!   `Engine::step`. The phase ends by flushing the ctrl outboxes (what
//!   this phase and this slot's fault tick produced) into generation
//!   `(t + 1) % 2`; **barrier B** follows.
//! * **Decision hand-off** — worker 0 totals the per-worker queue gauges
//!   and decides whether the run completed, hit the horizon, or went
//!   unstable, with the simulator's exact criteria, then publishes the
//!   decided slot; every other worker waits on that word alone. No
//!   third barrier is needed: what the decision reads (the queue gauges
//!   and the outstanding-task count) is written only in phase B and in
//!   the fault tick, and a peer reaches neither before it has seen the
//!   decision — while worker 0 running ahead into slot `t + 1` can get
//!   no further than barrier A, and all it hands over before that goes
//!   to data and inject lanes every peer drained before barrier B.
//!
//! # Determinism
//!
//! Channels are drained at barriers in a fixed sender order, each
//! channel is FIFO per sender, and control channels are split into two
//! slot-parity generations so a generation is never flushed into while
//! it is being drained: generation `(t + 1) % 2` is flushed at the end
//! of phase B of slot `t` and drained in phase B of slot `t + 1`, with
//! barrier B of `t` and barrier A of `t + 1` in between, and the next
//! flush into it (end of phase B of `t + 2`) lies behind barrier A of
//! `t + 2`, which no worker passes before every peer has left phase B
//! of `t + 1`. Every RNG is seeded from `SimConfig::seed`, so a run is
//! bit-reproducible for a given `(seed, workers, mode)` triple. In
//! virtual mode the injector consumes its RNG in the engine's exact
//! draw order, which makes the measured task population identical to a
//! simulator run of the same config —
//! the sim-vs-net agreement tests in `tests/net.rs` assert equality of
//! delivered-reception counts on exactly that basis. The agreement
//! extends to *faulted* runs: [`run_net_with_faults`] reproduces the
//! engine's delivered and fault-drop counts exactly under the same
//! [`FaultPlan`].
//!
//! # Runtime faults
//!
//! Worker 0 owns the fault clock ([`pstar_faults::FaultRuntime`]): at
//! the top of each slot that has a due plan event it advances the clock
//! and broadcasts the [`FaultDelta`] to every worker over dedicated
//! channels, separated by a dedicated barrier (deltas must take effect
//! *this* slot — they cannot ride the parity ctrl lanes, which deliver
//! with a one-slot lag). Each worker applies the delta to its private
//! [`LivenessView`] replica, disposes of packets stranded on its
//! newly-dead links per the [`DeadLinkPolicy`], and hands the new epoch
//! to its owned scheme clone (`Scheme::on_liveness_change` — the
//! degraded-mode re-solve). Fault-free slots cost one atomic load.
//!
//! # Supervised shutdown
//!
//! `run_net` never lets a panic or a deadlock escape. Each worker body
//! runs under `catch_unwind`; a panic records the first
//! [`NetError::WorkerPanic`], trips the shared poison flag, and halts
//! the bounded data channels so blocked peers unblock, abort at their
//! next poison-aware wait (a barrier or the decision word), and exit
//! cleanly. The main thread acts as supervisor: it polls per-worker
//! progress words and converts a fleet that stops progressing for
//! [`NetConfig::watchdog_ms`] into [`NetError::BarrierTimeout`] with
//! every worker's last position. [`ChaosConfig`] injects exactly these
//! failures deterministically.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pstar_faults::{DeadLinkPolicy, FaultDelta, FaultPlan, FaultRuntime, LivenessView};
use pstar_obs::{MetricsRegistry, TraceEvent, TraceRecord};
use pstar_sim::{
    assemble, receptions_at_stake, Admit, Arq, Emit, FaultTotals, FullQueuePolicy, LinkCounters,
    LinkKernel, LossCause, Packet, PacketKind, RecoveryTracker, RunOutcome, Scheme, SimConfig,
    SimReport, ARQ_SEED_SALT, MAX_PRIORITY_CLASSES,
};
use pstar_stats::LogHistogram;
use pstar_topology::{Network, NodeId};
use pstar_traffic::TrafficMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::channel::Channel;
use crate::error::{ChaosConfig, NetConfigError, NetError, WorkerPosition};
use crate::inject::{node_stream_seed, InjectMsg, VirtualInjector, WallInjector};
use crate::stats::WorkerStats;

/// Salt of the per-worker unicast-forwarding RNG streams.
const FWD_SEED_SALT: u64 = 0x5BF0_3635_0D52_A34F;

/// How simulated time is driven (both modes are slot-synchronous and
/// deterministic; they differ in who generates traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Worker 0 runs a single global injector that mirrors the
    /// simulator's RNG draw order — bit-comparable measured task sets,
    /// the mode the CI agreement gates run in.
    #[default]
    Virtual,
    /// Every worker injects for its own nodes from independent per-node
    /// RNG streams — no serialized coordinator, the mode for throughput
    /// benchmarking. Statistically equivalent to `Virtual`, but not
    /// draw-for-draw comparable with the simulator.
    WallClock,
}

/// Configuration of one runtime execution.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// The simulation parameters (window, seed, ARQ, admission, …) —
    /// the same struct the simulator runs from.
    /// [`FullQueuePolicy::Backpressure`] is not supported (injection is
    /// distributed; there is no global source gate) and is rejected as
    /// [`NetConfigError::Backpressure`].
    pub sim: SimConfig,
    /// Worker threads; `0` uses the machine's available parallelism.
    /// Clamped to the node count (and to 64 in wall-clock mode, the
    /// task-id tag width).
    pub workers: usize,
    /// Traffic generation mode.
    pub mode: ClockMode,
    /// Per-worker cap on collected [`TraceRecord`]s (the first
    /// `trace_capacity` events are kept); `0` disables tracing. Feed
    /// the collected tracks to `pstar_obs::chrome_trace_workers`.
    pub trace_capacity: usize,
    /// Supervisor watchdog: a fleet that makes no progress for this
    /// long is poisoned and reported as [`NetError::BarrierTimeout`].
    pub watchdog_ms: u64,
    /// Deterministic failure injection for testing the teardown paths;
    /// inert by default.
    pub chaos: ChaosConfig,
    /// Collect per-worker phase timings, barrier waits, and channel
    /// telemetry into [`NetReport::perf`]. Off (the default), the slot
    /// loop pays one never-taken branch per phase and the report is
    /// bit-identical to an uninstrumented run — timing never touches
    /// any RNG.
    pub perf: bool,
}

impl NetConfig {
    /// A runtime config wrapping `sim` with the default mode and worker
    /// count, a 10-second watchdog, and no chaos.
    pub fn new(sim: SimConfig) -> Self {
        Self {
            sim,
            workers: 0,
            mode: ClockMode::Virtual,
            trace_capacity: 0,
            watchdog_ms: 10_000,
            chaos: ChaosConfig::default(),
            perf: false,
        }
    }
}

/// A runtime execution's outcome: the simulator-shaped [`SimReport`]
/// plus runtime-level measurements.
#[derive(Debug)]
pub struct NetReport {
    /// The run's measurements, same shape and normalization as the
    /// simulator's (crate docs list the documented deviations).
    pub report: SimReport,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock execution time.
    pub wall_secs: f64,
    /// Simulated slots per wall-clock second.
    pub slots_per_sec: f64,
    /// Cross-worker messages sent (data + control + injection).
    pub messages_sent: u64,
    /// Per-worker trace tracks `(worker, records)`, when
    /// [`NetConfig::trace_capacity`] is nonzero.
    pub worker_traces: Vec<(u32, Vec<TraceRecord>)>,
    /// Per-worker phase timings and channel telemetry, when
    /// [`NetConfig::perf`] is set.
    pub perf: Option<NetPerf>,
}

/// Runtime telemetry of one [`NetConfig::perf`] run: one
/// [`NetWorkerPerf`] per worker, ordered by worker id. The per-worker
/// slot-time spread (min/median/max) is what makes stragglers visible —
/// aggregate slots/sec alone cannot distinguish one slow worker from a
/// uniformly slow fleet.
#[derive(Debug, Clone)]
pub struct NetPerf {
    /// One entry per worker, index = worker id.
    pub workers: Vec<NetWorkerPerf>,
}

/// One worker's accumulated timings over a whole run. All durations are
/// wall nanoseconds summed across slots.
#[derive(Debug, Clone)]
pub struct NetWorkerPerf {
    /// Worker id (its index in [`NetPerf::workers`]).
    pub worker: u32,
    /// Slots this worker timed (= slots run).
    pub slots: u64,
    /// Total per-slot wall time (sum over slots).
    pub slot_ns_sum: u64,
    /// Fastest single slot.
    pub slot_ns_min: u64,
    /// Median slot time (log-histogram estimate, ~3% relative error).
    pub slot_ns_median: u64,
    /// Slowest single slot.
    pub slot_ns_max: u64,
    /// Time spent waiting per slot: at barrier A, at barrier B, and for
    /// worker 0's decision (index 2; always 0 on worker 0, which
    /// decides instead of waiting).
    pub barrier_wait_ns: [u64; 3],
    /// Time spent waiting at the fault barrier (faulted runs only).
    pub fault_barrier_wait_ns: u64,
    /// Phase A (send + inject) work time.
    pub phase_a_ns: u64,
    /// Phase B (drain + process) work time.
    pub phase_b_ns: u64,
    /// Time spent deciding the slot's outcome between barrier B and
    /// publishing the decision (nonzero only on worker 0).
    pub decide_ns: u64,
    /// Fault-epoch application latency: time inside
    /// `apply_fault_delta` (liveness replica update, stranded-packet
    /// disposal, degraded-mode re-solve).
    pub fault_apply_ns: u64,
    /// Time this worker's data sends spent blocked on a full channel.
    pub blocked_send_ns: u64,
    /// Deepest any data channel *into* this worker ever got.
    pub data_depth_high: usize,
}

impl NetWorkerPerf {
    /// Mean slot time in nanoseconds (0 when no slots ran).
    pub fn slot_ns_mean(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.slot_ns_sum as f64 / self.slots as f64
        }
    }

    /// Total wait (slot barriers + decision wait + fault barrier).
    pub fn wait_ns_total(&self) -> u64 {
        self.barrier_wait_ns.iter().sum::<u64>() + self.fault_barrier_wait_ns
    }
}

impl NetPerf {
    /// Publishes every worker's timings into `reg` as labeled counters
    /// (`net_slot_ns{worker=N}`, `net_barrier_wait_ns{worker,barrier}` —
    /// `barrier="c"` is the wait for worker 0's decision, the label kept
    /// from the barrier it replaced — `net_phase_ns{worker,phase}`,
    /// `net_blocked_send_ns{worker}`) and
    /// gauges (`net_data_depth_high{worker}`), so net runs land in the
    /// same registry/exporter pipeline as the sharded engine.
    pub fn publish(&self, reg: &MetricsRegistry) {
        for wp in &self.workers {
            let wid = wp.worker.to_string();
            let wl = [("worker", wid.as_str())];
            reg.counter("net_slots", &wl).add(wp.slots);
            reg.counter("net_slot_ns", &wl).add(wp.slot_ns_sum);
            for (i, name) in ["a", "b", "c"].iter().enumerate() {
                reg.counter(
                    "net_barrier_wait_ns",
                    &[("worker", wid.as_str()), ("barrier", name)],
                )
                .add(wp.barrier_wait_ns[i]);
            }
            for (name, ns) in [
                ("phase_a", wp.phase_a_ns),
                ("phase_b", wp.phase_b_ns),
                ("decide", wp.decide_ns),
                ("fault_apply", wp.fault_apply_ns),
                ("fault_barrier_wait", wp.fault_barrier_wait_ns),
            ] {
                reg.counter("net_phase_ns", &[("worker", wid.as_str()), ("phase", name)])
                    .add(ns);
            }
            reg.counter("net_blocked_send_ns", &wl)
                .add(wp.blocked_send_ns);
            reg.gauge("net_data_depth_high", &wl)
                .set(wp.data_depth_high as i64);
        }
    }
}

// Stop codes in the shared stop flag.
const RUN: u8 = 0;
const COMPLETED: u8 = 1;
const HORIZON: u8 = 2;
const UNSTABLE: u8 = 3;

/// The fleet's one waiting policy: spins briefly, then yields, until
/// `ready()` — or until `poison` trips, in which case it returns `true`
/// and the caller abandons the run. All workers run in lockstep, so
/// waits are short and a futex-free spin wins over a mutex+condvar on
/// the per-slot path.
fn spin_until(poison: &AtomicBool, ready: impl Fn() -> bool) -> bool {
    let mut spins = 0u32;
    while !ready() {
        if poison.load(Ordering::Acquire) {
            return true;
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    false
}

/// A sense-reversing spin barrier on [`spin_until`]'s waiting policy.
pub(crate) struct SlotBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SlotBarrier {
    pub fn new(total: usize) -> Self {
        Self {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    /// Waits for the fleet, aborting when `poison` trips — returns
    /// `true` when the caller should abandon the run instead of
    /// continuing. Once poisoned, the barrier's counters may be left
    /// inconsistent; that is fine because every worker also aborts and
    /// never waits again.
    pub fn wait_poisoned(&self, poison: &AtomicBool) -> bool {
        if poison.load(Ordering::Acquire) {
            return true;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            false
        } else {
            spin_until(poison, || self.generation.load(Ordering::Acquire) != gen)
        }
    }
}

/// The one-way hand-off that ends a slot: worker 0 decides the slot's
/// outcome after barrier B and publishes it here; every other worker
/// waits on this word instead of meeting worker 0 at a third barrier.
pub(crate) struct DecisionWord {
    /// Slots decided so far: `t + 1` once slot `t`'s outcome stands.
    decided: AtomicU64,
}

impl DecisionWord {
    pub fn new() -> Self {
        Self {
            decided: AtomicU64::new(0),
        }
    }

    /// Worker 0, after `decide(slot)`. The Release store pairs with the
    /// Acquire load in [`DecisionWord::wait_poisoned`], so a peer that
    /// sees the slot decided also sees the stop code the decision
    /// stored.
    pub fn publish(&self, slot: u64) {
        self.decided.store(slot + 1, Ordering::Release);
    }

    /// Waits until `slot` is decided, aborting when `poison` trips —
    /// returns `true` when the caller should abandon the run, which is
    /// how a worker 0 that dies before publishing releases its peers.
    pub fn wait_poisoned(&self, slot: u64, poison: &AtomicBool) -> bool {
        spin_until(poison, || self.decided.load(Ordering::Acquire) > slot)
    }
}

/// A delivery crossing a worker boundary (or looped back locally).
struct DataMsg {
    link: u32,
    pkt: Packet,
}

/// Control-plane traffic: task registration, acks, loss settlements.
/// Mirrors the simulator's contention-free ARQ control plane — these
/// channels are unbounded and never modeled as carrying load.
enum CtrlMsg {
    /// A unicast task registered at its home (the destination's owner).
    Register {
        task: u32,
        gen_time: u64,
        measured: bool,
    },
    /// One broadcast reception delivered at `slot`, acked to the home.
    Ack { task: u32, slot: u64 },
    /// `receptions` of the task settled as permanently lost. `fault`
    /// carries the loss attribution (dead link vs. overflow) so the
    /// home can count fault-damaged broadcasts like the engine does.
    Lost {
        task: u32,
        receptions: u32,
        fault: bool,
    },
    /// The task had a copy retransmitted (ARQ bookkeeping at the home).
    MarkRetx { task: u32 },
}

/// Completion bookkeeping of one task at its home worker (broadcast:
/// the source's owner; unicast: the destination's owner).
struct TaskState {
    gen_time: u64,
    remaining: u32,
    measured: bool,
    broadcast: bool,
    lost: u32,
    retx: bool,
    /// Largest delivery slot acked so far (the broadcast completion
    /// time, since acks arrive in slot batches).
    last_slot: u64,
}

/// Hasher of the task-home table. Task ids are sequential counters
/// generated inside this program (never outside input, so there is no
/// collision attack to defend against), and one multiplication spreads
/// them over both the bucket bits (low) and the control-byte bits (high)
/// — SipHash on every ack and loss bought nothing.
#[derive(Default)]
struct TaskIdHasher(u64);

impl Hasher for TaskIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("task ids hash through write_u32");
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type TaskTable = HashMap<u32, TaskState, BuildHasherDefault<TaskIdHasher>>;

/// Hands every outbox (index = destination worker) over to its lane —
/// one lock per non-empty lane, none for an empty one — counting the
/// messages, not the batches, as sent.
fn flush_outboxes<'c, T: 'c>(
    outboxes: &mut [Vec<T>],
    lane_to: impl Fn(usize) -> &'c Channel<T>,
    messages_sent: &mut u64,
) {
    for (to, outbox) in outboxes.iter_mut().enumerate() {
        *messages_sent += outbox.len() as u64;
        lane_to(to).send_batch(outbox);
    }
}

/// Everything the workers share. Channels are indexed `from * W + to`.
struct Shared {
    workers: usize,
    node_owner: Vec<u32>,
    link_target: Vec<NodeId>,
    link_dim: Vec<u8>,
    barrier_a: SlotBarrier,
    barrier_b: SlotBarrier,
    decision: DecisionWord,
    data: Vec<Channel<DataMsg>>,
    /// Two slot-parity generations: messages produced during slot `t`
    /// are flushed at the end of its phase B into generation
    /// `(t + 1) % 2` and drained in phase B of slot `t + 1` (which reads
    /// generation `(t + 1) % 2`), so a generation is never written and
    /// drained concurrently.
    ctrl: [Vec<Channel<CtrlMsg>>; 2],
    inject: Vec<Channel<InjectMsg>>,
    /// Measured tasks not yet completed, incremented by the *creating*
    /// worker at injection (so the count can never transiently read
    /// zero between creation and registration).
    outstanding: AtomicI64,
    stop: AtomicU8,
    /// End-of-slot queued-packet gauge per worker.
    queued_by_worker: Vec<AtomicI64>,
    peak_queue: AtomicI64,
    /// Fault-epoch coordination; `None` on fault-free runs.
    faults: Option<SharedFaults>,
    /// Supervised-shutdown latch: once `true`, every worker aborts at
    /// its next barrier or decision wait (and halted data channels
    /// unblock any worker stuck mid-hand-over).
    poison: AtomicBool,
    /// First failure observed (panic or watchdog timeout); later
    /// failures are secondary casualties of the teardown.
    first_error: Mutex<Option<NetError>>,
    /// Per-worker progress words `(slot << 3) | phase`, stored at every
    /// phase boundary; the supervisor's watchdog input and the
    /// [`WorkerPosition`] context of a timeout.
    progress: Vec<AtomicU64>,
    /// Workers whose thread body (including panic handling) finished.
    done: AtomicUsize,
}

/// Fault-epoch coordination: worker 0 advances the fault clock and
/// broadcasts each [`FaultDelta`].
struct SharedFaults {
    /// Separates the delta broadcast from its application. Deltas must
    /// take effect at the top of *this* slot (a link dying at `t` kills
    /// the delivery it would have made at `t`), so they cannot ride the
    /// parity ctrl lanes, which deliver with a one-slot lag.
    barrier: SlotBarrier,
    /// Per-worker delta channels (worker 0 sends to `1..w`).
    deltas: Vec<Channel<FaultMsg>>,
}

/// A fault epoch as broadcast to the fleet: the delta plus the slot of
/// the next plan event, which re-arms every receiver's *local* gate.
/// The gate cannot live in shared state: worker 0 would overwrite it
/// with the next event's slot while a slower worker is still deciding
/// whether the *current* slot has an exchange, and the two would then
/// disagree about whether the fault barrier is entered at all.
struct FaultMsg {
    delta: FaultDelta,
    /// Slot of the next unapplied plan event (`u64::MAX` once
    /// exhausted).
    next: u64,
}

/// Per-worker fault state: the liveness replica (kept identical across
/// workers by the delta broadcast), recovery bookkeeping for owned
/// links, and — on worker 0 — the fault clock itself.
struct WorkerFaults {
    view: LivenessView,
    recovery: RecoveryTracker,
    /// Cached `view.any_faults()` for the hot paths.
    any_now: bool,
    /// Local copy of the next plan-event slot: every worker decides
    /// `t >= next_fault` from its own state, so the whole fleet takes
    /// the fault barrier on exactly the same slots.
    next_fault: u64,
    /// Worker 0 owns the plan cursor and broadcasts deltas.
    rt: Option<FaultRuntime>,
}

enum Injector {
    Virtual(VirtualInjector),
    Wall(WallInjector),
    /// Virtual-mode workers other than 0 generate nothing.
    Passive,
}

/// One worker thread's whole state. The scheme is held by value: on
/// fault-free runs `SS` is `&S` (the blanket `Scheme for &S` impl, zero
/// cost, shared); on faulted runs each worker owns a clone so
/// `Scheme::on_liveness_change` can mutate degraded-mode state.
/// Thread-local perf accumulator of one worker ([`NetConfig::perf`]
/// runs only). Plain fields, no atomics: the worker owns it for the
/// whole run and it is published into [`NetPerf`] after join.
#[derive(Debug)]
struct NetWorkerAcc {
    /// Per-slot wall-time distribution (min/median/max come from here).
    slot_hist: LogHistogram,
    barrier_wait_ns: [u64; 3],
    fault_barrier_wait_ns: u64,
    phase_a_ns: u64,
    phase_b_ns: u64,
    decide_ns: u64,
    fault_apply_ns: u64,
}

impl NetWorkerAcc {
    fn new() -> Self {
        Self {
            slot_hist: LogHistogram::new(),
            barrier_wait_ns: [0; 3],
            fault_barrier_wait_ns: 0,
            phase_a_ns: 0,
            phase_b_ns: 0,
            decide_ns: 0,
            fault_apply_ns: 0,
        }
    }
}

struct Worker<'a, N: Network + Sync, SS: Scheme> {
    id: usize,
    topo: &'a N,
    scheme: SS,
    cfg: SimConfig,
    shared: &'a Shared,
    /// Queueing and service for the owned links (a contiguous id
    /// range: link ids are node-major).
    kernel: LinkKernel,
    tasks: TaskTable,
    injector: Injector,
    arq: Option<Arq>,
    fwd_rng: StdRng,
    stats: WorkerStats,
    trace: Vec<TraceRecord>,
    trace_cap: usize,
    /// Outboxes, index = destination worker: a phase's cross-worker
    /// messages collect here and are handed over one batch per lane
    /// when the phase ends (data and inject after phase A, ctrl after
    /// phase B). Reused across slots, so a slot allocates nothing.
    out_data: Vec<Vec<DataMsg>>,
    out_ctrl: Vec<Vec<CtrlMsg>>,
    out_inject: Vec<Vec<InjectMsg>>,
    // Drain scratch buffers, reused across slots.
    inject_gen: Vec<InjectMsg>,
    inject_buf: Vec<InjectMsg>,
    deliver_local: Vec<DataMsg>,
    data_buf: Vec<DataMsg>,
    ctrl_buf: Vec<CtrlMsg>,
    emit_buf: Vec<Emit>,
    /// Scratch for the packets a dying link loses.
    loss_buf: Vec<Packet>,
    /// `Some` on faulted runs: this worker's liveness replica.
    faults: Option<WorkerFaults>,
    /// Chaos: from this slot on, remote data channels are not drained
    /// (a "deaf" worker, for exercising the watchdog).
    deaf_from: Option<u64>,
    /// `Some` on [`NetConfig::perf`] runs: this worker's timing
    /// accumulator. `None` costs one never-taken branch per phase.
    perf: Option<Box<NetWorkerAcc>>,
}

impl<'a, N: Network + Sync, SS: Scheme> Worker<'a, N, SS> {
    #[inline]
    fn owner_of(&self, node: NodeId) -> usize {
        self.shared.node_owner[node.index()] as usize
    }

    #[inline]
    fn in_window(&self, slot: u64) -> bool {
        slot >= self.cfg.warmup_slots && slot < self.cfg.measure_end()
    }

    #[inline]
    fn record_trace(&mut self, slot: u64, event: TraceEvent) {
        if self.trace.len() < self.trace_cap {
            self.trace.push(TraceRecord { slot, event });
        }
    }

    /// Queues `msg` for `to`'s ctrl lane; it is handed over with the
    /// rest of the slot's control traffic when phase B ends.
    fn send_ctrl(&mut self, to: usize, msg: CtrlMsg) {
        debug_assert_ne!(to, self.id, "local ctrl must be applied directly");
        self.out_ctrl[to].push(msg);
    }

    // ---------------------------------------------------------------
    // Phase A: move finished deliveries + inject traffic
    // ---------------------------------------------------------------

    fn phase_a(&mut self, t: u64) {
        self.stats.tasks.window_tick(t);
        let mut scan = self.kernel.finish_scan();
        while let Some((link, pkt)) = self.kernel.next_finished(&mut scan, t) {
            let target = self.shared.link_target[link as usize];
            let to = self.shared.node_owner[target.index()] as usize;
            let msg = DataMsg { link, pkt: *pkt };
            if to == self.id {
                self.deliver_local.push(msg);
            } else {
                self.out_data[to].push(msg);
            }
        }
        let mut gen = std::mem::take(&mut self.inject_gen);
        gen.clear();
        {
            // Disjoint borrows: the injector consumes the scheme and the
            // liveness view (dead nodes generate no traffic, in the
            // engine's exact RNG draw order).
            let Self {
                injector,
                faults,
                scheme,
                ..
            } = &mut *self;
            let view = faults.as_ref().map(|f| &f.view);
            match injector {
                Injector::Virtual(inj) => inj.slot(t, &*scheme, view, &mut gen),
                Injector::Wall(inj) => inj.slot(t, &*scheme, view, &mut gen),
                Injector::Passive => {}
            }
        }
        match &self.injector {
            Injector::Virtual(_) => {
                for msg in gen.drain(..) {
                    let to = self.owner_of(msg.src);
                    if to == self.id {
                        self.inject_buf.push(msg);
                    } else {
                        self.out_inject[to].push(msg);
                    }
                }
            }
            Injector::Wall(_) => self.inject_buf.append(&mut gen),
            Injector::Passive => {}
        }
        self.inject_gen = gen;
        let (shared, w, id) = (self.shared, self.shared.workers, self.id);
        let sent = &mut self.stats.messages_sent;
        flush_outboxes(&mut self.out_data, |to| &shared.data[id * w + to], sent);
        flush_outboxes(&mut self.out_inject, |to| &shared.inject[to], sent);
    }

    // ---------------------------------------------------------------
    // Phase B: drain + process, engine step order
    // ---------------------------------------------------------------

    fn phase_b(&mut self, t: u64) {
        let w = self.shared.workers;
        // 1. Control plane from slot t − 1: registrations must precede
        //    the data drain so a task's home record always exists
        //    before its first ack or loss can arrive.
        let mut ctrl = std::mem::take(&mut self.ctrl_buf);
        for from in 0..w {
            if from == self.id {
                continue;
            }
            ctrl.clear();
            self.shared.ctrl[(t % 2) as usize][from * w + self.id].drain_into(&mut ctrl);
            for msg in ctrl.drain(..) {
                self.handle_ctrl(msg, t);
            }
        }
        self.ctrl_buf = ctrl;
        // 2. Deliveries of slot t, merged into ascending link order —
        //    the engine's delivery-scan order. A link carries at most
        //    one delivery per slot, so the sort is a total order; it
        //    makes same-slot forwards enqueue identically to the
        //    engine, which the fault-agreement gate relies on
        //    (boundary-straddling drops are order-sensitive).
        let mut data = std::mem::take(&mut self.data_buf);
        data.clear();
        let deaf = self.deaf_from.is_some_and(|s| t >= s);
        for from in 0..w {
            if from == self.id {
                data.append(&mut self.deliver_local);
            } else if deaf {
                // Chaos: a deaf worker stops draining its peers, so
                // their bounded sends eventually block — the hang the
                // watchdog exists to catch.
                continue;
            } else {
                self.shared.data[from * w + self.id].drain_into(&mut data);
            }
        }
        data.sort_unstable_by_key(|m| m.link);
        for msg in data.drain(..) {
            self.process_deliver(msg.link, msg.pkt, t);
        }
        self.data_buf = data;
        // 3. Due retransmissions (before arrivals, like the engine).
        if self.arq.as_ref().is_some_and(|a| !a.is_idle()) {
            self.fire_retx(t);
        }
        // 4. Injections of slot t.
        let mut inj = std::mem::take(&mut self.inject_buf);
        if matches!(self.injector, Injector::Passive) {
            self.shared.inject[self.id].drain_into(&mut inj);
        }
        for msg in inj.drain(..) {
            self.process_inject(msg, t);
        }
        self.inject_buf = inj;
        // 5. Occupancy sample at the engine's exact point: after
        //    arrivals, before service starts.
        if self.in_window(t) {
            self.stats.flow.occupancy_sum += self.kernel.queued() as u128;
        }
        // 6. Service starts on the owned links, link-id order.
        let faulted = self.faults.as_ref().is_some_and(|f| f.any_now);
        let (trace, cap) = (&mut self.trace, self.trace_cap);
        self.kernel.start(t, faulted, |link, pkt| {
            if trace.len() < cap {
                trace.push(TraceRecord {
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
        });
        // 7. Local single-queue divergence guard (engine scans every
        //    4096 slots; each worker scans its own links).
        if (t + 1) % 4096 == 0 && self.kernel.max_qlen() as f64 > self.cfg.unstable_single_queue {
            let _ = self.shared.stop.compare_exchange(
                RUN,
                UNSTABLE,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
        // 8. Hand over the slot's control traffic — the fault tick's and
        //    this phase's — to the generation phase B of slot t + 1
        //    drains.
        let (shared, id) = (self.shared, self.id);
        let ctrl_next = &shared.ctrl[((t + 1) % 2) as usize];
        flush_outboxes(
            &mut self.out_ctrl,
            |to| &ctrl_next[id * w + to],
            &mut self.stats.messages_sent,
        );
        self.shared.queued_by_worker[self.id].store(self.kernel.queued() as i64, Ordering::Release);
    }

    fn handle_ctrl(&mut self, msg: CtrlMsg, t: u64) {
        match msg {
            CtrlMsg::Register {
                task,
                gen_time,
                measured,
            } => self.home_register_unicast(task, gen_time, measured),
            CtrlMsg::Ack { task, slot } => self.home_ack(task, slot, t),
            CtrlMsg::Lost {
                task,
                receptions,
                fault,
            } => self.home_lost(task, receptions, fault, t),
            CtrlMsg::MarkRetx { task } => {
                if let Some(s) = self.tasks.get_mut(&task) {
                    s.retx = true;
                }
            }
        }
    }

    fn home_register_unicast(&mut self, task: u32, gen_time: u64, measured: bool) {
        let prev = self.tasks.insert(
            task,
            TaskState {
                gen_time,
                remaining: 1,
                measured,
                broadcast: false,
                lost: 0,
                retx: false,
                last_slot: 0,
            },
        );
        debug_assert!(prev.is_none(), "duplicate task id {task}");
    }

    /// One broadcast reception acked to the task's home.
    fn home_ack(&mut self, task: u32, slot: u64, t: u64) {
        let state = self.tasks.get_mut(&task).expect("ack for unknown task");
        state.last_slot = state.last_slot.max(slot);
        state.remaining -= 1;
        if state.remaining == 0 {
            let state = self.tasks.remove(&task).expect("just present");
            if state.measured {
                if state.lost == 0 {
                    let delay = (state.last_slot - state.gen_time) as f64;
                    self.stats.tasks.broadcast_delay.push(delay);
                    if state.retx && self.cfg.arq.is_some() {
                        self.stats.tasks.recovered_task_delay.push(delay);
                    }
                } else {
                    self.stats.tasks.damaged_broadcasts += 1;
                }
                self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
            }
            self.stats.tasks.concurrent_bcast.add(t, -1);
        }
    }

    /// Permanently lost receptions settled against the task's home.
    /// `fault` attributes the loss to a dead link, mirroring the
    /// engine's fault-damaged delta: a measured broadcast whose
    /// completing settlement was a fault loss counts as fault-damaged.
    fn home_lost(&mut self, task: u32, receptions: u32, fault: bool, t: u64) {
        let state = self.tasks.get_mut(&task).expect("loss for unknown task");
        debug_assert!(state.remaining >= receptions);
        state.remaining -= receptions;
        state.lost += receptions;
        if state.remaining == 0 {
            let state = self.tasks.remove(&task).expect("just present");
            if state.measured {
                if state.broadcast {
                    self.stats.tasks.damaged_broadcasts += 1;
                    if fault {
                        self.stats.tasks.fault_damaged += 1;
                    }
                }
                self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
            }
            if state.broadcast {
                self.stats.tasks.concurrent_bcast.add(t, -1);
            } else {
                self.stats.tasks.concurrent_ucast.add(t, -1);
            }
        }
    }

    fn process_inject(&mut self, msg: InjectMsg, t: u64) {
        if msg.broadcast {
            let prev = self.tasks.insert(
                msg.task,
                TaskState {
                    gen_time: msg.gen_time,
                    remaining: self.topo.node_count() - 1,
                    measured: msg.measured,
                    broadcast: true,
                    lost: 0,
                    retx: false,
                    last_slot: 0,
                },
            );
            debug_assert!(prev.is_none(), "duplicate task id {}", msg.task);
            self.stats.tasks.concurrent_bcast.add(t, 1);
        } else {
            let dest = match msg.emits.first().map(|e| e.kind) {
                Some(PacketKind::Unicast { dest }) => dest,
                _ => unreachable!("unicast inject without unicast emit"),
            };
            let home = self.owner_of(dest);
            if home == self.id {
                self.home_register_unicast(msg.task, msg.gen_time, msg.measured);
            } else {
                self.send_ctrl(
                    home,
                    CtrlMsg::Register {
                        task: msg.task,
                        gen_time: msg.gen_time,
                        measured: msg.measured,
                    },
                );
            }
            self.stats.tasks.concurrent_ucast.add(t, 1);
        }
        if msg.measured {
            self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
            if msg.broadcast {
                self.stats.tasks.measured_broadcasts += 1;
            } else {
                self.stats.tasks.measured_unicasts += 1;
            }
        }
        self.emit_buf = msg.emits;
        self.enqueue_emits(msg.src, msg.task, msg.gen_time, msg.len, t);
    }

    fn process_deliver(&mut self, link: u32, pkt: Packet, t: u64) {
        if self.trace_cap > 0 {
            self.record_trace(
                t,
                TraceEvent::Delivery {
                    link,
                    class: pkt.priority,
                    age: t - pkt.gen_time,
                    task: pkt.task,
                },
            );
        }
        let node = self.shared.link_target[link as usize];
        let measured = self.in_window(pkt.gen_time);
        match pkt.kind {
            PacketKind::Broadcast(state) => {
                if let Some(arq) = self.arq.as_mut() {
                    arq.counters.acked(pkt.attempt);
                }
                if measured {
                    let topo = self.topo;
                    self.stats
                        .tasks
                        .measured_reception(t - pkt.gen_time, pkt.priority, || {
                            topo.distance(state.src, node)
                        });
                }
                let home = self.owner_of(state.src);
                if home == self.id {
                    self.home_ack(pkt.task, t, t);
                } else {
                    self.send_ctrl(
                        home,
                        CtrlMsg::Ack {
                            task: pkt.task,
                            slot: t,
                        },
                    );
                }
                self.emit_buf.clear();
                self.scheme
                    .on_broadcast_arrival(node, &state, &mut self.emit_buf);
                self.enqueue_emits(node, pkt.task, pkt.gen_time, pkt.len, t);
            }
            PacketKind::Unicast { dest } => {
                if node == dest {
                    // The destination's owner *is* the unicast home, so
                    // completion is settled locally.
                    if let Some(arq) = self.arq.as_mut() {
                        arq.counters.acked(pkt.attempt);
                    }
                    let state = self
                        .tasks
                        .remove(&pkt.task)
                        .expect("unicast delivered before registration");
                    if state.measured {
                        let delay = (t - state.gen_time) as f64;
                        self.stats.tasks.unicast_delay.push(delay);
                        if state.retx && self.cfg.arq.is_some() {
                            self.stats.tasks.recovered_task_delay.push(delay);
                        }
                        self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
                    }
                    self.stats.tasks.concurrent_ucast.add(t, -1);
                } else {
                    self.emit_buf.clear();
                    self.scheme.on_unicast_arrival(
                        node,
                        dest,
                        &mut self.fwd_rng,
                        &mut self.emit_buf,
                    );
                    debug_assert!(!self.emit_buf.is_empty(), "unicast stranded");
                    self.enqueue_emits(node, pkt.task, pkt.gen_time, pkt.len, t);
                }
            }
        }
    }

    /// Offers `self.emit_buf`'s transmissions to `from`'s outgoing links
    /// (the engine's `flush_emits`); a packet the kernel refuses or
    /// evicts is a loss.
    fn enqueue_emits(&mut self, from: NodeId, task: u32, gen_time: u64, len: u16, t: u64) {
        let buf = std::mem::take(&mut self.emit_buf);
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
                    self.stats.flow.evicted += 1;
                    self.lose_packet(link, victim, t, LossCause::Overflow);
                }
                Admit::Lost(pkt, cause) => {
                    self.lose_packet(link, pkt, t, cause);
                    continue;
                }
            }
            if self.trace_cap > 0 {
                self.record_trace(
                    t,
                    TraceEvent::Enqueue {
                        link,
                        class: packet.priority,
                        task: packet.task,
                    },
                );
            }
        }
        self.emit_buf = buf;
        self.emit_buf.clear();
    }

    /// The engine's `handle_loss`: ARQ arms a backoff timer, otherwise
    /// (or once the retry budget is spent) the loss is settled
    /// permanently. `LossCause::Retry` marks a failed re-injection,
    /// which is not a new packet drop; `LossCause::Fault` feeds the
    /// fault counters.
    fn lose_packet(&mut self, link: u32, pkt: Packet, t: u64, cause: LossCause) {
        if self.trace_cap > 0 {
            self.record_trace(
                t,
                TraceEvent::Drop {
                    link,
                    class: pkt.priority,
                    cause: cause.into(),
                    task: pkt.task,
                },
            );
        }
        if let Some(arq) = self.arq.as_mut() {
            let boosted = self.scheme.retransmit_priority(pkt.priority);
            debug_assert!((boosted as usize) < self.scheme.num_priorities());
            if arq.on_loss(t, link, pkt, boosted) {
                let home = self.task_home(&pkt);
                if home == self.id {
                    if let Some(s) = self.tasks.get_mut(&pkt.task) {
                        s.retx = true;
                    }
                } else {
                    self.send_ctrl(home, CtrlMsg::MarkRetx { task: pkt.task });
                }
                self.stats.tasks.packet_dropped(cause);
                return;
            }
        }
        self.stats.tasks.packet_dropped(cause);
        let before_lost = self.stats.tasks.lost_receptions;
        // The ledger's fault-damaged attribution travels as the `fault`
        // flag to the task's home (see `home_lost`).
        self.settle_drop(&pkt, t, cause == LossCause::Fault);
        if let Some(arq) = self.arq.as_mut() {
            arq.counters.gave_up_receptions += self.stats.tasks.lost_receptions - before_lost;
        }
    }

    /// The worker owning a packet's task-completion record.
    fn task_home(&self, pkt: &Packet) -> usize {
        match pkt.kind {
            PacketKind::Broadcast(state) => self.owner_of(state.src),
            PacketKind::Unicast { dest } => self.owner_of(dest),
        }
    }

    /// Settles a terminally lost packet: loss-site counters here, the
    /// completion record updated at the task's home. `fault` carries the
    /// loss attribution to the home's fault-damaged accounting.
    fn settle_drop(&mut self, pkt: &Packet, t: u64, fault: bool) {
        let (broadcast, receptions) = receptions_at_stake(&self.scheme, pkt);
        if self.in_window(pkt.gen_time) {
            self.stats.tasks.lost_receptions += u64::from(receptions);
            if !broadcast {
                self.stats.tasks.dropped_unicasts += 1;
            }
        }
        let home = self.task_home(pkt);
        if home == self.id {
            self.home_lost(pkt.task, receptions, fault, t);
        } else {
            self.send_ctrl(
                home,
                CtrlMsg::Lost {
                    task: pkt.task,
                    receptions,
                    fault,
                },
            );
        }
    }

    /// Fires due ARQ timers — the engine's `fire_retransmissions` for
    /// this worker's links.
    fn fire_retx(&mut self, t: u64) {
        let due = self.arq.as_mut().expect("fire without ARQ").take_due(t);
        for e in &due {
            if let Admit::Lost(pkt, cause) = self.kernel.readmit(e.link, e.pkt, t) {
                self.lose_packet(e.link, pkt, t, cause);
                continue;
            }
            if self.trace_cap > 0 {
                self.record_trace(
                    t,
                    TraceEvent::Retransmit {
                        link: e.link,
                        class: e.pkt.priority,
                        attempt: e.pkt.attempt,
                        task: e.pkt.task,
                    },
                );
            }
            self.arq
                .as_mut()
                .expect("still installed")
                .counters
                .retransmissions += 1;
        }
        self.arq.as_mut().expect("still installed").give_back(due);
    }

    // ---------------------------------------------------------------
    // Fault epochs (the engine's `fault_tick`, sharded)
    // ---------------------------------------------------------------

    /// Top-of-slot fault exchange — the engine's `fault_tick`, run
    /// before phase A so a delta lands exactly where the engine applies
    /// it: before this slot's deliveries, arrivals, and service. Worker
    /// 0 advances the fault clock and broadcasts the delta; everyone
    /// applies it behind the dedicated fault barrier, then ticks the
    /// per-slot fault accounting. Returns `true` when the run was
    /// poisoned at the fault barrier.
    fn fault_slot_top(&mut self, t: u64) -> bool {
        let shared = self.shared;
        let Some(sf) = shared.faults.as_ref() else {
            return false;
        };
        if t >= self.faults.as_ref().map_or(u64::MAX, |f| f.next_fault) {
            if self.id == 0 {
                let (delta, next) = {
                    let rt = self
                        .faults
                        .as_mut()
                        .and_then(|f| f.rt.as_mut())
                        .expect("worker 0 owns the fault clock");
                    let delta = rt.advance_to(t);
                    (delta, rt.next_event_slot().unwrap_or(u64::MAX))
                };
                for ch in &sf.deltas[1..] {
                    ch.send(FaultMsg {
                        delta: delta.clone(),
                        next,
                    });
                    self.stats.messages_sent += 1;
                }
                self.faults.as_mut().expect("faulted run").next_fault = next;
                self.stats.fault_events_applied += u64::from(delta.events_applied);
                let mark = self.perf.as_ref().map(|_| Instant::now());
                self.apply_fault_delta(&delta, t);
                if let (Some(p), Some(m)) = (self.perf.as_mut(), mark) {
                    p.fault_apply_ns += m.elapsed().as_nanos() as u64;
                }
                let mark = self.perf.as_ref().map(|_| Instant::now());
                if sf.barrier.wait_poisoned(&shared.poison) {
                    return true;
                }
                if let (Some(p), Some(m)) = (self.perf.as_mut(), mark) {
                    p.fault_barrier_wait_ns += m.elapsed().as_nanos() as u64;
                }
            } else {
                // The send above happens before worker 0's barrier
                // arrival, so after release the message is guaranteed
                // present.
                let mark = self.perf.as_ref().map(|_| Instant::now());
                if sf.barrier.wait_poisoned(&shared.poison) {
                    return true;
                }
                if let (Some(p), Some(m)) = (self.perf.as_mut(), mark) {
                    p.fault_barrier_wait_ns += m.elapsed().as_nanos() as u64;
                }
                let mut msgs = Vec::new();
                sf.deltas[self.id].drain_into(&mut msgs);
                let mark = self.perf.as_ref().map(|_| Instant::now());
                for msg in &msgs {
                    self.faults.as_mut().expect("faulted run").next_fault = msg.next;
                    self.apply_fault_delta(&msg.delta, t);
                }
                if let (Some(p), Some(m)) = (self.perf.as_mut(), mark) {
                    p.fault_apply_ns += m.elapsed().as_nanos() as u64;
                }
            }
        }
        // Per-slot fault accounting, engine order: the global
        // fault-exposure gauge (worker 0, to avoid W-fold counting),
        // then recovery probes over this worker's watched links.
        let Self {
            id,
            faults,
            kernel,
            stats,
            ..
        } = self;
        if let Some(f) = faults.as_mut() {
            if *id == 0 && f.any_now {
                stats.fault_slots += 1;
            }
            if f.recovery.is_watching() {
                f.recovery.tick(t, |link| kernel.is_active(link));
            }
        }
        false
    }

    /// Applies one epoch delta to this worker's replica: the liveness
    /// view, stranded-packet disposal on newly dead *owned* links,
    /// recovery bookkeeping, and the scheme's degraded-mode re-solve.
    fn apply_fault_delta(&mut self, delta: &FaultDelta, t: u64) {
        self.faults
            .as_mut()
            .expect("faulted run")
            .view
            .apply_delta(delta);
        if delta.changed() {
            for &l in &delta.newly_dead {
                if self.kernel.owns(l.0) {
                    self.on_link_death(l.0, t);
                }
            }
            let Self {
                faults,
                kernel,
                scheme,
                ..
            } = self;
            let f = faults.as_mut().expect("faulted run");
            for &l in &delta.repaired {
                if kernel.owns(l.0) {
                    kernel.revive(l.0);
                    f.recovery.on_repair(l.0, t);
                }
            }
            // Every worker re-solves on its own clone: same view, same
            // deterministic result as the engine's single re-solve.
            scheme.on_liveness_change(&f.view);
        }
        let f = self.faults.as_mut().expect("faulted run");
        f.any_now = f.view.any_faults();
    }

    /// The engine's `on_link_death` for one owned link: whatever the
    /// kernel's dead-link policy loses is a fault loss.
    fn on_link_death(&mut self, link: u32, t: u64) {
        self.faults
            .as_mut()
            .expect("faulted run")
            .recovery
            .on_death(link);
        let mut lost = std::mem::take(&mut self.loss_buf);
        self.kernel.kill(link, &mut lost);
        for pkt in lost.drain(..) {
            self.lose_packet(link, pkt, t, LossCause::Fault);
        }
        self.loss_buf = lost;
    }

    // ---------------------------------------------------------------
    // Decision hand-off: worker 0 decides
    // ---------------------------------------------------------------

    fn decide(&mut self, t: u64, queue_limit: i64, queue_trace: &mut Vec<(u64, u64)>) {
        let total: i64 = self
            .shared
            .queued_by_worker
            .iter()
            .map(|q| q.load(Ordering::Acquire))
            .sum();
        self.shared.peak_queue.fetch_max(total, Ordering::AcqRel);
        if self.shared.stop.load(Ordering::Acquire) == RUN {
            let next = t + 1;
            let decision = if next >= self.cfg.measure_end()
                && self.shared.outstanding.load(Ordering::Acquire) == 0
            {
                COMPLETED
            } else if next >= self.cfg.max_slots {
                HORIZON
            } else if total > queue_limit {
                UNSTABLE
            } else {
                RUN
            };
            if decision != RUN {
                self.shared.stop.store(decision, Ordering::Release);
            } else if let Some(k) = self.cfg.trace_interval {
                if (t + 1) % k == 0 {
                    queue_trace.push((t + 1, total.max(0) as u64));
                }
            }
        }
    }
}

/// What each worker thread hands back.
struct WorkerOutput {
    stats: WorkerStats,
    /// Service-start counters of the worker's own link range.
    links: LinkCounters,
    trace: Vec<TraceRecord>,
    /// Worker 0 only.
    queue_trace: Vec<(u64, u64)>,
    slots_run: u64,
    /// Perf runs only.
    perf: Option<Box<NetWorkerAcc>>,
}

/// Runs the full warmup → measure → drain protocol on the
/// thread-per-core runtime and reports. See the module docs for the
/// phase protocol; see [`NetConfig`] for knobs.
///
/// Never panics and never hangs: invalid configs are rejected as
/// [`NetError::Config`], a panicking worker becomes
/// [`NetError::WorkerPanic`], and a hung fleet becomes
/// [`NetError::BarrierTimeout`] after [`NetConfig::watchdog_ms`].
pub fn run_net<N, S>(
    topo: &N,
    scheme: S,
    mix: TrafficMix,
    cfg: NetConfig,
) -> Result<NetReport, NetError>
where
    N: Network + Sync,
    S: Scheme + Sync,
{
    // Fault-free runs share the scheme by reference across workers (the
    // blanket `Scheme for &S` impl): zero clone cost, identical behavior.
    let scheme = &scheme;
    run_net_inner(topo, scheme.num_priorities(), |_| scheme, mix, cfg, None)
}

/// [`run_net`] under a scripted [`FaultPlan`]: links die and heal and
/// nodes crash at planned slots, exactly as in the engine's
/// `run_with_faults` — a virtual-clock run reproduces the engine's
/// delivered and fault-drop counts bit-for-bit under the same plan.
///
/// The scheme must be `Clone`: each worker owns a clone so
/// `Scheme::on_liveness_change` can re-solve degraded-mode state
/// per epoch (all clones see identical [`LivenessView`]s, so they stay
/// in agreement deterministically).
pub fn run_net_with_faults<N, S>(
    topo: &N,
    scheme: S,
    mix: TrafficMix,
    cfg: NetConfig,
    plan: FaultPlan,
    policy: DeadLinkPolicy,
) -> Result<NetReport, NetError>
where
    N: Network + Sync,
    S: Scheme + Clone + Send + Sync,
{
    let scheme = &scheme;
    run_net_inner(
        topo,
        scheme.num_priorities(),
        |_| scheme.clone(),
        mix,
        cfg,
        Some((plan, policy)),
    )
}

/// Halts every bounded data channel (the only blocking hand-overs in
/// the runtime) so workers stuck mid-`send_batch` unblock during
/// teardown.
fn halt_data(shared: &Shared) {
    for ch in &shared.data {
        ch.halt();
    }
}

/// Records `err` as the run's failure if it is the first, then poisons
/// the fleet and unblocks every blocked sender.
fn poison_with(shared: &Shared, err: NetError) {
    {
        let mut first = shared.first_error.lock().unwrap_or_else(|e| e.into_inner());
        if first.is_none() {
            *first = Some(err);
        }
    }
    shared.poison.store(true, Ordering::Release);
    halt_data(shared);
}

/// Stringifies a panic payload (`&str` and `String` pass through).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The engine room behind [`run_net`] and [`run_net_with_faults`]:
/// `make_scheme(id)` builds each worker's scheme instance on the main
/// thread before its thread spawns.
fn run_net_inner<N, SS>(
    topo: &N,
    num_priorities: usize,
    mut make_scheme: impl FnMut(usize) -> SS,
    mix: TrafficMix,
    cfg: NetConfig,
    faults: Option<(FaultPlan, DeadLinkPolicy)>,
) -> Result<NetReport, NetError>
where
    N: Network + Sync,
    SS: Scheme + Send,
{
    if num_priorities > MAX_PRIORITY_CLASSES {
        return Err(NetConfigError::TooManyPriorityClasses {
            requested: num_priorities,
            max: MAX_PRIORITY_CLASSES,
        }
        .into());
    }
    if cfg.sim.queue_capacity.is_some()
        && matches!(cfg.sim.full_queue_policy, FullQueuePolicy::Backpressure)
    {
        return Err(NetConfigError::Backpressure.into());
    }
    let dims = topo.dim_sizes();
    if let Err(e) = cfg.sim.scenario.validate(&dims, mix.bernoulli) {
        return Err(NetConfigError::Scenario(e).into());
    }
    if matches!(cfg.mode, ClockMode::WallClock) && !cfg.sim.scenario.is_default() {
        return Err(NetConfigError::WallClockScenario.into());
    }
    let sim = cfg.sim;
    let n = topo.node_count();
    let links = topo.link_count() as usize;
    let mut workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        cfg.workers
    };
    workers = workers.clamp(1, n as usize);
    if matches!(cfg.mode, ClockMode::WallClock) {
        workers = workers.min(64);
    }
    let w = workers;

    // Contiguous node shards; owner tables for nodes and links.
    let ranges: Vec<std::ops::Range<u32>> = (0..w)
        .map(|i| (i as u32 * n / w as u32)..((i as u32 + 1) * n / w as u32))
        .collect();
    let mut node_owner = vec![0u32; n as usize];
    for (i, r) in ranges.iter().enumerate() {
        for v in r.clone() {
            node_owner[v as usize] = i as u32;
        }
    }
    let link_target = topo.link_target_table();
    let link_source = topo.link_source_table();
    let link_dim = topo.link_dim_table();
    // A worker's links must be one contiguous id range (the kernel's
    // `[lo, hi)`), which node-major link ids give — the same rule the
    // sharded engine partitions by.
    if link_source.windows(2).any(|w| w[0].0 > w[1].0) {
        return Err(NetConfigError::LinksNotNodeContiguous.into());
    }
    let first_link_of = |node: u32| link_source.partition_point(|src| src.0 < node) as u32;

    let faults_enabled = faults.is_some();
    let policy = faults.as_ref().map(|(_, p)| *p).unwrap_or_default();
    // Worker 0's fault clock, built before `link_target` moves into the
    // shared state.
    let mut rt0 = faults
        .map(|(plan, _)| FaultRuntime::new(plan, link_source.clone(), link_target.clone(), n));
    // Every worker's local gate starts at the plan's first event slot.
    let first_fault = rt0
        .as_ref()
        .and_then(|rt| rt.next_event_slot())
        .unwrap_or(u64::MAX);

    // Data channels bounded by the link count between each worker pair:
    // at most one delivery per link per slot, so a correctly sized
    // channel never blocks — the bound is an enforced invariant.
    let mut pair_links = vec![0usize; w * w];
    for l in 0..links {
        let from = node_owner[link_source[l].index()] as usize;
        let to = node_owner[link_target[l].index()] as usize;
        pair_links[from * w + to] += 1;
    }
    let shared = Shared {
        workers: w,
        node_owner,
        link_target,
        link_dim,
        barrier_a: SlotBarrier::new(w),
        barrier_b: SlotBarrier::new(w),
        decision: DecisionWord::new(),
        data: pair_links
            .iter()
            .map(|&c| {
                let ch = Channel::bounded(c.max(1));
                if cfg.perf {
                    ch.with_stats()
                } else {
                    ch
                }
            })
            .collect(),
        ctrl: [
            (0..w * w).map(|_| Channel::unbounded()).collect(),
            (0..w * w).map(|_| Channel::unbounded()).collect(),
        ],
        inject: (0..w).map(|_| Channel::unbounded()).collect(),
        outstanding: AtomicI64::new(0),
        stop: AtomicU8::new(RUN),
        queued_by_worker: (0..w).map(|_| AtomicI64::new(0)).collect(),
        peak_queue: AtomicI64::new(0),
        faults: rt0.as_ref().map(|_| SharedFaults {
            barrier: SlotBarrier::new(w),
            deltas: (0..w).map(|_| Channel::unbounded()).collect(),
        }),
        poison: AtomicBool::new(false),
        first_error: Mutex::new(None),
        progress: (0..w).map(|_| AtomicU64::new(0)).collect(),
        done: AtomicUsize::new(0),
    };
    let new_stats = || WorkerStats::new(&sim, n, topo.diameter());
    let new_link_counters = || LinkCounters::new(&sim, topo.d(), 0, links);
    let queue_limit = (sim.unstable_queue_per_link * links as f64) as i64;
    // The one report rule (`pstar_sim::assemble`) over merged worker
    // counters; the net-specific inputs are the end-of-slot queue peak
    // and the stop code.
    let report_of = |merged: WorkerStats,
                     link_counters: LinkCounters,
                     slots_run: u64,
                     stop: u8,
                     peak_queue_total: i64,
                     queue_trace: Vec<(u64, u64)>| {
        assemble(
            merged.tasks,
            link_counters,
            RunOutcome {
                cfg: &sim,
                link_dim: &shared.link_dim,
                d: topo.d(),
                num_classes: num_priorities,
                slots_run,
                stable: stop != UNSTABLE,
                completed: stop == COMPLETED,
                peak_queue_total,
                queue_trace,
                faults: faults_enabled.then(|| FaultTotals {
                    events_applied: merged.fault_events_applied,
                    fault_slots: merged.fault_slots,
                    recovery_time: merged.fault_recovery.summary(),
                }),
                arq: sim.arq.map(|_| &merged.arq),
                flow: &merged.flow,
            },
        )
    };

    // Zero-slot configs mirror the engine's pre-step checks.
    if sim.measure_end() == 0 || sim.max_slots == 0 {
        let stop = if sim.measure_end() == 0 {
            COMPLETED
        } else {
            HORIZON
        };
        return Ok(NetReport {
            report: report_of(new_stats(), new_link_counters(), 0, stop, 0, Vec::new()),
            workers: w,
            wall_secs: 0.0,
            slots_per_sec: 0.0,
            messages_sent: 0,
            worker_traces: Vec::new(),
            perf: cfg.perf.then(|| NetPerf {
                workers: Vec::new(),
            }),
        });
    }

    let shared_ref = &shared;
    let started = std::time::Instant::now();
    let outputs: Vec<Option<WorkerOutput>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w)
            .map(|id| {
                let range = ranges[id].clone();
                let mut kernel = LinkKernel::new(
                    &sim,
                    topo.d(),
                    first_link_of(range.start),
                    first_link_of(range.end),
                );
                kernel.set_dead_link_policy(policy);
                let dims = dims.clone();
                // Built on the main thread: `make_scheme` is `FnMut` and
                // worker 0 takes the fault clock.
                let scheme_inst = make_scheme(id);
                let rt = if id == 0 { rt0.take() } else { None };
                s.spawn(move || {
                    let body = move || {
                        let injector = match cfg.mode {
                            ClockMode::Virtual if id == 0 => {
                                Injector::Virtual(VirtualInjector::new(&dims, mix, sim))
                            }
                            ClockMode::Virtual => Injector::Passive,
                            ClockMode::WallClock => {
                                Injector::Wall(WallInjector::new(id, range, n, mix, sim))
                            }
                        };
                        let worker_faults = faults_enabled.then(|| WorkerFaults {
                            view: LivenessView::healthy(links as u32, n),
                            recovery: RecoveryTracker::new(),
                            any_now: false,
                            next_fault: first_fault,
                            rt,
                        });
                        let mut worker = Worker {
                            id,
                            topo,
                            scheme: scheme_inst,
                            cfg: sim,
                            shared: shared_ref,
                            kernel,
                            tasks: TaskTable::default(),
                            injector,
                            arq: sim.arq.map(|a| {
                                Arq::new(a, node_stream_seed(sim.seed ^ ARQ_SEED_SALT, id as u32))
                            }),
                            fwd_rng: StdRng::seed_from_u64(node_stream_seed(
                                sim.seed ^ FWD_SEED_SALT,
                                id as u32,
                            )),
                            stats: new_stats(),
                            trace: Vec::new(),
                            trace_cap: cfg.trace_capacity,
                            out_data: (0..w).map(|_| Vec::new()).collect(),
                            out_ctrl: (0..w).map(|_| Vec::new()).collect(),
                            out_inject: (0..w).map(|_| Vec::new()).collect(),
                            inject_gen: Vec::new(),
                            inject_buf: Vec::new(),
                            deliver_local: Vec::new(),
                            data_buf: Vec::new(),
                            ctrl_buf: Vec::new(),
                            emit_buf: Vec::with_capacity(64),
                            loss_buf: Vec::new(),
                            faults: worker_faults,
                            deaf_from: cfg
                                .chaos
                                .deaf_from_slot
                                .filter(|_| cfg.chaos.victim(2, w) == id),
                            perf: cfg.perf.then(|| Box::new(NetWorkerAcc::new())),
                        };
                        let mut queue_trace: Vec<(u64, u64)> = Vec::new();
                        if id == 0 {
                            if let Some(k) = sim.trace_interval {
                                if 0 % k == 0 {
                                    queue_trace.push((0, 0));
                                }
                            }
                        }
                        let chaos_panic = cfg
                            .chaos
                            .panic_at_slot
                            .filter(|_| cfg.chaos.victim(0, w) == id);
                        let chaos_delay = cfg
                            .chaos
                            .delay_at_slot
                            .filter(|(_, _)| cfg.chaos.victim(1, w) == id);
                        let poison = &shared_ref.poison;
                        let mut t: u64 = 0;
                        loop {
                            shared_ref.progress[id].store(t << 3, Ordering::Release);
                            if poison.load(Ordering::Acquire) {
                                break;
                            }
                            if let Some((slot, ms)) = chaos_delay {
                                if slot == t {
                                    std::thread::sleep(Duration::from_millis(ms));
                                }
                            }
                            // Perf marks are `None` on uninstrumented
                            // runs: one never-taken branch per phase,
                            // no `Instant` reads, no RNG contact.
                            let slot_t0 = worker.perf.as_ref().map(|_| Instant::now());
                            if worker.fault_slot_top(t) {
                                break;
                            }
                            shared_ref.progress[id].store((t << 3) | 1, Ordering::Release);
                            let mark = slot_t0.map(|_| Instant::now());
                            worker.phase_a(t);
                            if let (Some(p), Some(m)) = (worker.perf.as_mut(), mark) {
                                p.phase_a_ns += m.elapsed().as_nanos() as u64;
                            }
                            let mark = slot_t0.map(|_| Instant::now());
                            if shared_ref.barrier_a.wait_poisoned(poison) {
                                break;
                            }
                            if let (Some(p), Some(m)) = (worker.perf.as_mut(), mark) {
                                p.barrier_wait_ns[0] += m.elapsed().as_nanos() as u64;
                            }
                            shared_ref.progress[id].store((t << 3) | 2, Ordering::Release);
                            let mark = slot_t0.map(|_| Instant::now());
                            worker.phase_b(t);
                            if let (Some(p), Some(m)) = (worker.perf.as_mut(), mark) {
                                p.phase_b_ns += m.elapsed().as_nanos() as u64;
                            }
                            let mark = slot_t0.map(|_| Instant::now());
                            if shared_ref.barrier_b.wait_poisoned(poison) {
                                break;
                            }
                            if let (Some(p), Some(m)) = (worker.perf.as_mut(), mark) {
                                p.barrier_wait_ns[1] += m.elapsed().as_nanos() as u64;
                            }
                            shared_ref.progress[id].store((t << 3) | 3, Ordering::Release);
                            // Chaos panics strike here: on worker 0
                            // that is after barrier B and before the
                            // decision is published, the one stretch
                            // where peers wait on a single worker.
                            if chaos_panic == Some(t) {
                                panic!("chaos: injected panic at slot {t} on worker {id}");
                            }
                            let mark = slot_t0.map(|_| Instant::now());
                            if id == 0 {
                                worker.decide(t, queue_limit, &mut queue_trace);
                                if let (Some(p), Some(m)) = (worker.perf.as_mut(), mark) {
                                    p.decide_ns += m.elapsed().as_nanos() as u64;
                                }
                                shared_ref.decision.publish(t);
                            } else {
                                if shared_ref.decision.wait_poisoned(t, poison) {
                                    break;
                                }
                                if let (Some(p), Some(m)) = (worker.perf.as_mut(), mark) {
                                    p.barrier_wait_ns[2] += m.elapsed().as_nanos() as u64;
                                }
                            }
                            if let (Some(p), Some(t0)) = (worker.perf.as_mut(), slot_t0) {
                                p.slot_hist.record(t0.elapsed().as_nanos() as u64);
                            }
                            if shared_ref.stop.load(Ordering::Acquire) != RUN {
                                break;
                            }
                            t += 1;
                        }
                        shared_ref.progress[id].store((t << 3) | 4, Ordering::Release);
                        let slots_run = t + 1;
                        worker.stats.tasks.freeze_concurrency(slots_run);
                        worker.stats.arq = worker.arq.take().map(Arq::finish).unwrap_or_default();
                        let (rejected_b, rejected_u) = match &worker.injector {
                            Injector::Virtual(inj) => inj.rejected,
                            Injector::Wall(inj) => inj.rejected,
                            Injector::Passive => (0, 0),
                        };
                        worker.stats.flow.rejected_broadcasts = rejected_b;
                        worker.stats.flow.rejected_unicasts = rejected_u;
                        // Close out recovery measurements whose backlog
                        // drained on the final slots, like the engine's
                        // report-time finalize; merge the samples into the
                        // mergeable stats shard.
                        {
                            let Worker {
                                faults,
                                kernel,
                                stats,
                                ..
                            } = &mut worker;
                            if let Some(f) = faults.as_mut() {
                                f.recovery
                                    .finalize(slots_run, |link| kernel.is_active(link));
                                stats.fault_recovery.merge(f.recovery.samples());
                            }
                        }
                        WorkerOutput {
                            stats: worker.stats,
                            links: worker.kernel.into_counters(),
                            trace: worker.trace,
                            queue_trace,
                            slots_run,
                            perf: worker.perf,
                        }
                    };
                    match catch_unwind(AssertUnwindSafe(body)) {
                        Ok(out) => {
                            shared_ref.done.fetch_add(1, Ordering::AcqRel);
                            Some(out)
                        }
                        Err(payload) => {
                            // Order matters: record the error and poison
                            // *before* bumping `done`, so the supervisor
                            // can never observe a finished fleet with a
                            // missing output and no recorded failure.
                            poison_with(
                                shared_ref,
                                NetError::WorkerPanic {
                                    worker: id as u32,
                                    message: panic_message(payload),
                                },
                            );
                            shared_ref.done.fetch_add(1, Ordering::AcqRel);
                            None
                        }
                    }
                })
            })
            .collect();
        // Supervisor: the main thread polls the per-worker progress
        // words; a fleet that stops moving for `watchdog_ms` is hung
        // (blocked send into a dead consumer, lost barrier) and gets
        // converted into a structured timeout instead of a deadlock.
        let mut last: Vec<u64> = Vec::new();
        let mut idle_ms: u64 = 0;
        while shared_ref.done.load(Ordering::Acquire) < w {
            std::thread::sleep(Duration::from_millis(10));
            if shared_ref.poison.load(Ordering::Acquire) {
                continue; // teardown already under way; just wait
            }
            let snap: Vec<u64> = shared_ref
                .progress
                .iter()
                .map(|p| p.load(Ordering::Acquire))
                .collect();
            if snap == last {
                idle_ms += 10;
                if idle_ms >= cfg.watchdog_ms && shared_ref.done.load(Ordering::Acquire) < w {
                    let workers_pos = snap
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| WorkerPosition {
                            worker: i as u32,
                            slot: v >> 3,
                            phase: (v & 7) as u8,
                        })
                        .collect();
                    poison_with(
                        shared_ref,
                        NetError::BarrierTimeout {
                            waited_ms: idle_ms,
                            workers: workers_pos,
                        },
                    );
                }
            } else {
                last = snap;
                idle_ms = 0;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().ok().flatten())
            .collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    if let Some(err) = shared
        .first_error
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    {
        return Err(err);
    }
    let mut results: Vec<WorkerOutput> = Vec::with_capacity(w);
    for out in outputs {
        match out {
            Some(o) => results.push(o),
            // Defensive: a missing output always records an error first.
            None => {
                return Err(NetError::WorkerPanic {
                    worker: u32::MAX,
                    message: "worker produced no output but recorded no error".into(),
                })
            }
        }
    }

    let stop = shared.stop.load(Ordering::Acquire);
    let slots_run = results[0].slots_run;
    // Perf assembly: per-worker accumulators plus channel telemetry.
    // Blocked-send time of channel `data[s*w + r]` belongs to sender
    // `s`; the depth high-water belongs to receiver `r` (it measures
    // backlog the receiver let build up before draining).
    let perf = cfg.perf.then(|| NetPerf {
        workers: results
            .iter()
            .enumerate()
            .map(|(i, out)| {
                let acc = out.perf.as_deref().expect("perf run collects accumulators");
                NetWorkerPerf {
                    worker: i as u32,
                    slots: acc.slot_hist.count(),
                    slot_ns_sum: (acc.slot_hist.mean() * acc.slot_hist.count() as f64).round()
                        as u64,
                    slot_ns_min: acc.slot_hist.min(),
                    slot_ns_median: acc.slot_hist.quantile(0.5),
                    slot_ns_max: acc.slot_hist.max(),
                    barrier_wait_ns: acc.barrier_wait_ns,
                    fault_barrier_wait_ns: acc.fault_barrier_wait_ns,
                    phase_a_ns: acc.phase_a_ns,
                    phase_b_ns: acc.phase_b_ns,
                    decide_ns: acc.decide_ns,
                    fault_apply_ns: acc.fault_apply_ns,
                    blocked_send_ns: (0..w)
                        .map(|to| shared.data[i * w + to].blocked_send_ns())
                        .sum(),
                    data_depth_high: (0..w)
                        .map(|from| shared.data[from * w + i].depth_high_water())
                        .max()
                        .unwrap_or(0),
                }
            })
            .collect(),
    });
    // Worker 0's stats seed the merge and the others fold in, in worker
    // order; the link counters are exact integers over disjoint ranges,
    // so they fold into a zeroed whole-network set.
    let mut iter = results.into_iter();
    let first = iter.next().expect("at least one worker");
    let (mut merged, queue_trace) = (first.stats, first.queue_trace);
    let mut link_counters = new_link_counters();
    link_counters.merge(&first.links);
    let mut worker_traces = Vec::new();
    if cfg.trace_capacity > 0 {
        worker_traces.push((0u32, first.trace));
    }
    for (i, out) in iter.enumerate() {
        merged.merge(&out.stats);
        link_counters.merge(&out.links);
        if cfg.trace_capacity > 0 {
            worker_traces.push((i as u32 + 1, out.trace));
        }
    }
    let messages_sent = merged.messages_sent;
    let peak_queue_total = shared.peak_queue.load(Ordering::Acquire);
    Ok(NetReport {
        report: report_of(
            merged,
            link_counters,
            slots_run,
            stop,
            peak_queue_total,
            queue_trace,
        ),
        workers: w,
        wall_secs,
        slots_per_sec: if wall_secs > 0.0 {
            slots_run as f64 / wall_secs
        } else {
            0.0
        },
        messages_sent,
        worker_traces,
        perf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use priority_star::{ScenarioSpec, SchemeKind};
    use pstar_topology::Torus;

    fn run(
        scheme: SchemeKind,
        rho: f64,
        mut sim: SimConfig,
        workers: usize,
        mode: ClockMode,
    ) -> NetReport {
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec {
            scheme,
            rho,
            ..ScenarioSpec::default()
        };
        sim.lengths = spec.lengths;
        run_net(
            &topo,
            spec.build_scheme(&topo),
            spec.mix(&topo),
            NetConfig {
                workers,
                mode,
                ..NetConfig::new(sim)
            },
        )
        .expect("run_net failed")
    }

    /// Every measured broadcast reaches all 15 other nodes of the 4×4
    /// torus, and with infinite queues nothing is ever lost.
    #[test]
    fn virtual_run_completes_and_conserves_receptions() {
        let net = run(
            SchemeKind::PriorityStar,
            0.5,
            SimConfig::quick(7),
            3,
            ClockMode::Virtual,
        );
        let r = &net.report;
        assert!(r.completed, "drain did not finish: {r:?}");
        assert!(r.stable);
        assert!(r.measured_broadcasts > 0);
        assert_eq!(r.reception_delay.count, r.measured_broadcasts * 15);
        assert_eq!(r.lost_receptions, 0);
        assert_eq!(r.dropped_packets, 0);
        assert_eq!(r.damaged_broadcasts, 0);
        assert!(r.mean_link_utilization > 0.0);
    }

    /// Perf instrumentation never perturbs a run: the report of a
    /// [`NetConfig::perf`] run is bit-identical to the uninstrumented
    /// one, and the telemetry itself is populated per worker.
    #[test]
    fn perf_run_is_bit_identical_and_populated() {
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho: 0.5,
            ..ScenarioSpec::default()
        };
        let mut sim = SimConfig::quick(11);
        sim.lengths = spec.lengths;
        let go = |perf: bool| {
            run_net(
                &topo,
                spec.build_scheme(&topo),
                spec.mix(&topo),
                NetConfig {
                    workers: 3,
                    perf,
                    ..NetConfig::new(sim)
                },
            )
            .expect("run_net failed")
        };
        let base = go(false);
        let inst = go(true);
        assert_eq!(
            format!("{:?}", base.report),
            format!("{:?}", inst.report),
            "telemetry must not change any reported number"
        );
        assert!(base.perf.is_none(), "perf off leaves the field None");
        let p = inst.perf.expect("perf on populates NetReport::perf");
        assert_eq!(p.workers.len(), inst.workers);
        for (i, wp) in p.workers.iter().enumerate() {
            assert_eq!(wp.worker as usize, i);
            assert!(wp.slots > 0, "worker {i} timed no slots");
            assert!(wp.slot_ns_sum > 0);
            assert!(wp.slot_ns_min <= wp.slot_ns_median);
            assert!(wp.slot_ns_median <= wp.slot_ns_max);
            assert!(
                wp.phase_a_ns + wp.phase_b_ns > 0,
                "worker {i} recorded no work time"
            );
            assert_eq!(wp.fault_apply_ns, 0, "fault-free run");
            assert!(wp.slot_ns_mean() > 0.0);
        }
        // All workers ran the same number of slots in lockstep, and only
        // worker 0 decides.
        assert!(p.workers.iter().all(|wp| wp.slots == p.workers[0].slots));
        assert!(p.workers[0].decide_ns > 0);
        assert_eq!(p.workers[1].decide_ns, 0);
        // Publishing lands the per-worker counters in a registry.
        let reg = MetricsRegistry::new();
        p.publish(&reg);
        let text = reg.prometheus_text();
        assert!(text.contains("net_slot_ns{worker=\"0\"}"), "{text}");
        assert!(text.contains("net_barrier_wait_ns"), "{text}");
    }

    #[test]
    fn same_seed_same_workers_is_bit_deterministic() {
        let a = run(
            SchemeKind::ThreeClass,
            0.7,
            SimConfig::quick(21),
            4,
            ClockMode::Virtual,
        );
        let b = run(
            SchemeKind::ThreeClass,
            0.7,
            SimConfig::quick(21),
            4,
            ClockMode::Virtual,
        );
        assert_eq!(a.report.measured_broadcasts, b.report.measured_broadcasts);
        assert_eq!(
            a.report.reception_delay.count,
            b.report.reception_delay.count
        );
        assert_eq!(
            a.report.reception_delay.mean.to_bits(),
            b.report.reception_delay.mean.to_bits()
        );
        assert_eq!(a.report.window_transmissions, b.report.window_transmissions);
        assert_eq!(a.report.slots_run, b.report.slots_run);
    }

    /// In virtual mode the measured task set comes from one global RNG
    /// stream, so the delivered counts cannot depend on the sharding.
    #[test]
    fn worker_count_does_not_change_delivered_counts() {
        let a = run(
            SchemeKind::FcfsDirect,
            0.6,
            SimConfig::quick(3),
            1,
            ClockMode::Virtual,
        );
        let b = run(
            SchemeKind::FcfsDirect,
            0.6,
            SimConfig::quick(3),
            4,
            ClockMode::Virtual,
        );
        assert_eq!(a.report.measured_broadcasts, b.report.measured_broadcasts);
        assert_eq!(
            a.report.reception_delay.count,
            b.report.reception_delay.count
        );
        // The delay multiset is identical; only the float summation
        // order differs across worker counts.
        let (ma, mb) = (a.report.reception_delay.mean, b.report.reception_delay.mean);
        assert!(
            (ma - mb).abs() <= 1e-9 * ma.abs().max(1.0),
            "per-reception delays should be worker-independent: {ma} vs {mb}"
        );
    }

    #[test]
    fn wall_clock_mode_completes_and_conserves() {
        let net = run(
            SchemeKind::PriorityStar,
            0.5,
            SimConfig::quick(11),
            4,
            ClockMode::WallClock,
        );
        let r = &net.report;
        assert!(r.completed);
        assert!(r.measured_broadcasts > 0);
        assert_eq!(r.reception_delay.count, r.measured_broadcasts * 15);
        assert_eq!(r.lost_receptions, 0);
    }

    /// Bounded queues with tail drop: every measured reception is
    /// either delivered or settled lost — none double counted, none
    /// missing.
    #[test]
    fn drop_tail_conservation() {
        let mut sim = SimConfig::quick(5);
        sim.queue_capacity = Some(1);
        let net = run(SchemeKind::FcfsDirect, 0.9, sim, 3, ClockMode::Virtual);
        let r = &net.report;
        assert!(r.completed, "losses must not strand the drain");
        assert!(r.dropped_packets > 0, "capacity 1 at rho .9 must drop");
        assert_eq!(
            r.reception_delay.count + r.lost_receptions,
            r.measured_broadcasts * 15
        );
        assert!(r.damaged_broadcasts > 0);
        assert!(r.flow.goodput_fraction < 1.0);
    }

    #[test]
    fn arq_retransmits_and_still_conserves() {
        let mut sim = SimConfig::quick(13);
        sim.queue_capacity = Some(1);
        sim.arq = Some(pstar_sim::ArqConfig::default());
        let net = run(SchemeKind::PriorityStar, 0.7, sim, 4, ClockMode::Virtual);
        let r = &net.report;
        assert!(r.completed);
        assert!(r.recovery.enabled);
        assert!(r.recovery.retransmissions > 0);
        assert_eq!(
            r.reception_delay.count + r.lost_receptions,
            r.measured_broadcasts * 15
        );
        // Recovered deliveries arrived on attempt > 0.
        assert!(r.recovery.recovered_deliveries > 0);
    }

    #[test]
    fn overload_is_flagged_unstable() {
        let net = run(
            SchemeKind::FcfsDirect,
            3.0,
            SimConfig::quick(2),
            2,
            ClockMode::Virtual,
        );
        assert!(!net.report.stable);
        assert!(!net.report.completed);
    }

    #[test]
    fn zero_slot_configs_return_empty_reports() {
        let mut sim = SimConfig::quick(1);
        sim.warmup_slots = 0;
        sim.measure_slots = 0;
        let net = run(SchemeKind::PriorityStar, 0.5, sim, 2, ClockMode::Virtual);
        assert!(net.report.completed);
        assert_eq!(net.report.slots_run, 0);
        assert_eq!(net.report.measured_broadcasts, 0);

        let mut sim = SimConfig::quick(1);
        sim.max_slots = 0;
        let net = run(SchemeKind::PriorityStar, 0.5, sim, 2, ClockMode::Virtual);
        assert!(!net.report.completed);
        assert_eq!(net.report.slots_run, 0);
    }

    /// Invalid configs come back as structured errors, not panics.
    #[test]
    fn backpressure_is_rejected() {
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec::default();
        let mut sim = SimConfig::quick(1);
        sim.lengths = spec.lengths;
        sim.queue_capacity = Some(4);
        sim.full_queue_policy = FullQueuePolicy::Backpressure;
        let err = run_net(
            &topo,
            spec.build_scheme(&topo),
            spec.mix(&topo),
            NetConfig::new(sim),
        )
        .expect_err("Backpressure must be rejected");
        assert_eq!(err, NetError::Config(NetConfigError::Backpressure));
        assert!(err.to_string().contains("Backpressure"));
    }

    #[test]
    fn traces_are_collected_per_worker() {
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec::default();
        let mut sim = SimConfig::quick(9);
        sim.lengths = spec.lengths;
        let net = run_net(
            &topo,
            spec.build_scheme(&topo),
            spec.mix(&topo),
            NetConfig {
                workers: 3,
                trace_capacity: 500,
                ..NetConfig::new(sim)
            },
        )
        .expect("run_net failed");
        assert_eq!(net.worker_traces.len(), 3);
        let total: usize = net.worker_traces.iter().map(|(_, t)| t.len()).sum();
        assert!(total > 0, "tracing produced nothing");
        for (_, track) in &net.worker_traces {
            assert!(track.len() <= 500);
            // Slot-monotone within a worker.
            assert!(track.windows(2).all(|w| w[0].slot <= w[1].slot));
        }
    }

    fn chaos_run(
        chaos: ChaosConfig,
        watchdog_ms: u64,
        workers: usize,
    ) -> Result<NetReport, NetError> {
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec::default();
        let mut sim = SimConfig::quick(17);
        sim.lengths = spec.lengths;
        run_net(
            &topo,
            spec.build_scheme(&topo),
            spec.mix(&topo),
            NetConfig {
                workers,
                watchdog_ms,
                chaos,
                ..NetConfig::new(sim)
            },
        )
    }

    /// A panicking worker becomes a structured error; peers drain and
    /// join cleanly instead of deadlocking or re-panicking.
    #[test]
    fn chaos_panic_becomes_worker_panic_error() {
        let chaos = ChaosConfig {
            seed: 3,
            panic_at_slot: Some(100),
            ..Default::default()
        };
        match chaos_run(chaos, 10_000, 3) {
            Err(NetError::WorkerPanic { message, .. }) => {
                assert!(
                    message.contains("chaos: injected panic at slot 100"),
                    "{message}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// Worker 0 dying after barrier B and before it publishes the
    /// decision — the stretch where every peer waits on that one worker
    /// — releases the peers through the poison flag: the run ends as
    /// worker 0's `WorkerPanic`, at every fleet size.
    #[test]
    fn worker0_panic_before_publishing_releases_every_peer() {
        for workers in 2..=4 {
            let seed = (0..)
                .find(|&seed| {
                    let chaos = ChaosConfig {
                        seed,
                        ..Default::default()
                    };
                    chaos.victim(0, workers) == 0
                })
                .expect("some seed picks worker 0");
            let chaos = ChaosConfig {
                seed,
                panic_at_slot: Some(100),
                ..Default::default()
            };
            match chaos_run(chaos, 2_000, workers) {
                Err(NetError::WorkerPanic { worker: 0, message }) => {
                    assert!(message.contains("slot 100 on worker 0"), "{message}");
                }
                other => panic!("W={workers}: expected worker 0's panic, got {other:?}"),
            }
        }
    }

    /// A stall shorter than the watchdog interval is NOT a failure —
    /// the watchdog must not produce false positives.
    #[test]
    fn chaos_delay_below_watchdog_still_completes() {
        let chaos = ChaosConfig {
            seed: 5,
            delay_at_slot: Some((50, 100)),
            ..Default::default()
        };
        let net = chaos_run(chaos, 10_000, 3).expect("a short stall must not fail the run");
        assert!(net.report.completed);
    }

    /// A worker that stops draining its peers hangs the fleet; the
    /// watchdog converts the hang into a timeout with positions.
    #[test]
    fn chaos_deaf_worker_trips_the_watchdog() {
        let chaos = ChaosConfig {
            seed: 9,
            deaf_from_slot: Some(10),
            ..Default::default()
        };
        match chaos_run(chaos, 300, 4) {
            Err(NetError::BarrierTimeout { waited_ms, workers }) => {
                assert!(waited_ms >= 300);
                assert_eq!(workers.len(), 4);
            }
            other => panic!("expected BarrierTimeout, got {other:?}"),
        }
    }

    #[test]
    fn slot_barrier_keeps_threads_in_lockstep() {
        use std::sync::atomic::AtomicU64;
        const THREADS: usize = 4;
        const ROUNDS: u64 = 2000;
        let enter = SlotBarrier::new(THREADS);
        let exit = SlotBarrier::new(THREADS);
        let counter = AtomicU64::new(0);
        let poison = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::AcqRel);
                        assert!(!enter.wait_poisoned(&poison));
                        assert_eq!(
                            counter.load(Ordering::Acquire),
                            (round + 1) * THREADS as u64,
                            "a thread raced past the barrier"
                        );
                        assert!(!exit.wait_poisoned(&poison));
                    }
                });
            }
        });
    }

    /// The decision word releases a waiter when its slot is published,
    /// lets a late waiter through at once, and aborts a waiter whose
    /// slot will never be published once the fleet is poisoned.
    #[test]
    fn decision_word_releases_on_publish_and_on_poison() {
        let word = DecisionWord::new();
        let poison = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| word.wait_poisoned(0, &poison));
            word.publish(0);
            assert!(!waiter.join().unwrap(), "published slot: carry on");
            assert!(!word.wait_poisoned(0, &poison), "already decided");
            let waiter = s.spawn(|| word.wait_poisoned(1, &poison));
            poison.store(true, Ordering::Release);
            assert!(
                waiter.join().unwrap(),
                "waiter must abort, not spin forever"
            );
        });
    }

    /// A poisoned barrier releases a waiter that would otherwise spin
    /// forever.
    #[test]
    fn poisoned_barrier_releases_waiters() {
        let barrier = SlotBarrier::new(2);
        let poison = AtomicBool::new(false);
        std::thread::scope(|s| {
            let h = s.spawn(|| barrier.wait_poisoned(&poison));
            std::thread::sleep(std::time::Duration::from_millis(50));
            poison.store(true, Ordering::Release);
            assert!(h.join().unwrap(), "waiter must abort, not spin forever");
        });
    }
}
