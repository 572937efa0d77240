//! The thread-per-core slot-synchronous runtime.
//!
//! Topology nodes are sharded into contiguous ranges over `W` worker
//! threads; each worker owns its nodes' outgoing links — one
//! [`pstar_sim::LinkKernel`] over their contiguous id range, the same
//! queueing and service code the simulator's engines run — a private
//! [`crate::stats::WorkerStats`] accumulator, and — with ARQ on — its
//! own [`pstar_sim::Arq`] timers.
//! Workers never share mutable state: everything crosses core
//! boundaries in [`crate::channel::Mailbox`]es, one hand-over per peer
//! per slot — a worker collects what it has for each peer (control,
//! deliveries, injections) in one outbox it owns and swaps the whole
//! outbox into the pair's mailbox, so no lock is taken per message and
//! none at all towards a peer it has nothing for.
//!
//! # Slot protocol
//!
//! Every slot `t` is one exchange — *send*, **one rendezvous**,
//! *process*:
//!
//! * **Send** — each worker moves the deliveries finishing at `t` off
//!   its links into the outbox of the target node's owner, and traffic
//!   is injected (worker 0 runs the global
//!   [`crate::inject::VirtualInjector`] straight into the source
//!   owners' outboxes). Each non-empty outbox — the control messages slot
//!   `t − 1` produced, slot `t`'s deliveries and slot `t`'s injections —
//!   then goes to its peer in one hand-over, into the pair's mailbox of
//!   parity `t % 2`.
//! * **Rendezvous** — the one barrier of the slot. Its *last arriver*,
//!   before it releases the others, decides slot `t − 1`: it totals the
//!   per-worker gauge lines (queued packets, measured receptions still
//!   due, the single-queue guard's flag) and settles completed /
//!   horizon / unstable by the simulator's exact criteria. Everyone
//!   leaves the rendezvous knowing both that slot `t`'s traffic is in
//!   the mailboxes and whether slot `t` exists.
//! * **Process** — each worker takes its peers' mailboxes of parity
//!   `t % 2`, then handles control (acks/losses/registrations from slot
//!   `t − 1`, each carrying the slot it happened in), then this slot's
//!   deliveries in ascending link order
//!   (applying scheme forwarding), then fires its due ARQ
//!   retransmissions, then processes injections, and finally starts
//!   service on idle owned links — the same deliveries →
//!   retransmissions → arrivals → service order as one `Engine::step` —
//!   and publishes its gauge line.
//!
//! *Why one rendezvous is enough.* Mailbox `t % 2` is written before
//! rendezvous `t` and read after it, and its next write (send of
//! `t + 2`) lies behind rendezvous `t + 1`, which nobody passes before
//! every peer has finished processing `t`. The gauge lines are written
//! at the end of process and read by the last arriver of the next
//! rendezvous, when every writer is waiting or about to arrive.
//!
//! *The commit rule.* Send of `t` runs before slot `t − 1`'s outcome is
//! known, so when `t − 1` turns out to be the last slot, send of `t` has
//! already run. Nothing a report can see happens in it: the data and
//! injection share of [`NetReport::messages_sent`] and the injectors'
//! admission-rejection counters are held back until the rendezvous says
//! *run* (control messages are counted where they are produced); and
//! control produced by slot `t` itself — its fault tick included — ships
//! with send of `t + 1`, never with send of `t`. The control of the last
//! slot still reaches the homes: of what send of `t` handed over, the
//! workers apply the control and drop the rest (a faulted run, which has
//! not sent, hands it over on its own), so a task whose last reception
//! fell in the last slot completes in the report as it does in the
//! engine's.
//!
//! # Determinism
//!
//! A mailbox holds one sender's batch in send order, batches are taken
//! after the rendezvous in a fixed sender order, and a worker's links
//! are one contiguous id range, so the senders' delivery runs — each
//! ascending, a finish scan's order — concatenate into one ascending
//! sequence. Every RNG is seeded from `SimConfig::seed`, and the
//! injector consumes its RNG in the engine's exact draw order, which
//! makes the task population identical to a simulator run of the same
//! config. Every statistic is an order-free integer sum
//! (`pstar_sim::TaskLedger`), so on a run without unicast traffic the
//! whole report equals the simulator's bit for bit at any worker count
//! (`SimReport::first_difference` is `None`; `tests/net.rs`), under a
//! [`FaultPlan`] ([`run_net_with_faults`]), bounded queues, admission
//! control and ARQ included. Unicast forwarding still draws its tie
//! coins from per-worker streams, so a run with unicast traffic is
//! reproducible for a given `(seed, workers)` pair and agrees with the
//! simulator statistically.
//!
//! # Runtime faults
//!
//! No fault epoch ever crosses a thread: a [`FaultPlan`] is a fixed,
//! sorted timeline, so every worker runs its own replica of the fault
//! clock ([`pstar_sim::FaultClock`]) over the links its kernel owns, and
//! the replicas agree by construction. At the top of each slot a worker
//! ticks its replica — the plan events due, the packets stranded on its
//! newly dead links disposed of per the [`DeadLinkPolicy`], the recovery
//! probes of its watched links — settles what the epoch lost, and hands
//! the new view to its owned scheme clone
//! (`Scheme::on_liveness_change` — the degraded-mode re-solve). The
//! report carries one replica's event and fault-slot totals (every
//! replica counts the same ones) and every worker's time-to-recovery
//! samples. The fault tick drops packets, counts fault
//! slots and probes link state *before* the slot's finish scan — all of
//! it visible in a report — so a run with a plan installed does not
//! send ahead of the decision: slot `t − 1` is decided at a rendezvous
//! of its own at the top of slot `t`, ahead of the fault tick, and the
//! exchange rendezvous decides nothing — two waits a slot, where a
//! fault-free run makes one. Which of the two shapes runs follows from
//! whether a plan is installed.
//!
//! # Supervised shutdown
//!
//! `run_net` never lets a panic or a deadlock escape. Each worker body
//! runs under `catch_unwind`; a panic — in the combiner of a rendezvous
//! as anywhere else — records the first [`NetError::WorkerPanic`] and
//! trips the shared poison flag, and every wait of the slot path (the
//! barrier, a put into an occupied mailbox) checks that flag, so peers
//! abort where they stand and exit cleanly. The main thread acts as
//! supervisor: parked between watchdog ticks, it reads per-worker
//! progress words and converts a fleet that stops progressing for
//! [`NetConfig::watchdog_ms`] into [`NetError::BarrierTimeout`] with
//! every worker's last position; the last worker to finish wakes it, so
//! a run returns when its work does. [`ChaosConfig`] injects exactly
//! these failures deterministically.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

use pstar_faults::{DeadLinkPolicy, FaultPlan};
use pstar_obs::{MetricsRegistry, TraceEvent, TraceRecord};
use pstar_sim::{
    assemble, receptions_at_stake, splitmix64, stop_verdict, Admit, Arq, Emit, FaultClock,
    FaultLoss, FullQueuePolicy, LinkCounters, LinkKernel, LossCause, Packet, PacketKind,
    RunOutcome, Scheme, SimConfig, SimReport, Stop, TaskSlot, ARQ_SEED_SALT, MAX_PRIORITY_CLASSES,
};
use pstar_stats::LogHistogram;
use pstar_topology::{Network, NodeId};
use pstar_traffic::TrafficMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::channel::{spin_until, Mailbox};
use crate::error::{ChaosConfig, NetConfigError, NetError, WorkerPosition};
use crate::inject::{InjectBatch, InjectMsg, InjectRoute, VirtualInjector};
use crate::stats::WorkerStats;

/// Salt of the per-worker unicast-forwarding RNG streams.
const FWD_SEED_SALT: u64 = 0x5BF0_3635_0D52_A34F;

/// How traffic is generated. There is one way; the enum and
/// [`NetConfig::mode`] remain only because `benchmark/src/arms.rs`
/// names them (ROADMAP `[benchmark]` (c) lists both for release).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Worker 0 runs a single global injector that mirrors the
    /// simulator's RNG draw order, so both generate the same tasks.
    #[default]
    Virtual,
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
    /// Clamped to the node count.
    pub workers: usize,
    /// Traffic generation mode (see [`ClockMode`]: there is one).
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
    /// Collect per-worker phase timings, barrier waits, and mailbox
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
    /// The run's measurements: the simulator's report of the same run
    /// (crate docs state the contract and its one exception).
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
    /// Per-worker phase timings and mailbox telemetry, when
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
    /// Time spent waiting per slot: at the slot's rendezvous (index 0),
    /// and at the rendezvous of its own that a run with a fault plan
    /// decides the previous slot at (index 1; 0 on fault-free runs).
    /// Index 2 is unused and reads 0; it keeps the array, and the
    /// `barrier="c"` series [`NetPerf::publish`] writes, in shape. Time
    /// spent inside the rendezvous' combiner is [`Self::decide_ns`], not
    /// wait.
    pub barrier_wait_ns: [u64; 3],
    /// Send work time (phase A): finish scan, injection and the
    /// hand-overs.
    pub phase_a_ns: u64,
    /// Process work time (phase B): taking the mailboxes and everything
    /// after, up to the gauge update.
    pub phase_b_ns: u64,
    /// Time spent deciding slot outcomes inside the rendezvous'
    /// combiner. Whichever worker arrives last runs it, so the time
    /// lands on a different worker from slot to slot; the sum over
    /// workers is the run's decision cost.
    pub decide_ns: u64,
    /// Fault-epoch application latency: time inside the worker's fault
    /// tick on the slots where liveness changed (plan events,
    /// stranded-packet disposal, loss settlement, degraded-mode
    /// re-solve).
    pub fault_apply_ns: u64,
    /// Time this worker's puts waited on a mailbox whose previous batch
    /// had not been taken (0 unless a receiver falls a whole slot
    /// behind).
    pub blocked_send_ns: u64,
    /// Deepest delivery batch any mailbox *into* this worker ever held.
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

    /// Total wait over the slot path's rendezvous.
    pub fn wait_ns_total(&self) -> u64 {
        self.barrier_wait_ns.iter().sum()
    }
}

impl NetPerf {
    /// Publishes every worker's timings into `reg` as labeled counters
    /// (`net_slot_ns{worker=N}`, `net_barrier_wait_ns{worker,barrier}` —
    /// `barrier="a"` is the slot's rendezvous, `"b"` the decision
    /// rendezvous of runs with a fault plan, and `"c"` is unused and
    /// reads 0 —
    /// `net_phase_ns{worker,phase}`, `net_blocked_send_ns{worker}`) and
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

/// A value alone on its cache lines, so that no two workers ever write
/// — or one spins on what another writes — within one line. 128 bytes
/// covers the adjacent-line prefetch pair of x86-64 and the line of the
/// aarch64 parts that have a 128-byte one.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// A sense-reversing spin barrier on [`spin_until`]'s waiting policy
/// that can *combine*: the last arriver runs a closure before anyone is
/// released. The arrival count is the one read-modify-write the slot
/// path makes on shared state.
#[repr(align(128))]
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

    /// Waits for the fleet; the last arriver runs `combine` first, so
    /// every waiter returns to a world in which it has run — exactly
    /// once per generation. Returns `true` when `poison` tripped and the
    /// caller should abandon the run instead of continuing. Once
    /// poisoned, the barrier's counters may be left inconsistent; that
    /// is fine because every worker also aborts and never waits again.
    /// A `combine` that panics leaves the generation where it was: the
    /// waiters are released by the poison flag the panicking worker's
    /// supervision trips.
    ///
    /// Memory ordering: every arrival is an `AcqRel` read-modify-write
    /// of `count`, so the last arriver has acquired everything each
    /// earlier arriver wrote before arriving, and the `Release` store of
    /// `generation` pairs with the waiters' `Acquire` loads, so they see
    /// everything `combine` wrote. That chain is what orders the plain
    /// (`Relaxed`) gauge, tally and stop words around a rendezvous.
    pub fn wait_with(&self, poison: &AtomicBool, combine: impl FnOnce()) -> bool {
        if poison.load(Ordering::Acquire) {
            return true;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            combine();
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            false
        } else {
            spin_until(poison, || self.generation.load(Ordering::Acquire) != gen)
        }
    }
}

/// What a worker publishes at the end of process for the next
/// rendezvous' combiner: one line per worker, written by its owner only.
/// `Relaxed` throughout — [`SlotBarrier::wait_with`] orders the accesses.
#[derive(Default)]
#[repr(align(128))]
struct GaugeLine {
    /// Packets queued on the worker's links, at the end of process —
    /// and, on a faulted run, again after the next slot's fault tick.
    queued: AtomicI64,
    /// The same before the slot's service starts: what the queue peak is
    /// taken over.
    pre_service: AtomicI64,
    /// The worker's balance of measured receptions
    /// (`TaskLedger::outstanding_measured`): plus a task's receptions
    /// where it is injected, minus one where a reception is delivered
    /// or lost. One worker's balance may be negative; the sum over
    /// workers is the number of measured receptions still due.
    outstanding: AtomicI64,
    /// Set once the worker's single-queue divergence guard trips.
    unstable: AtomicBool,
}

/// The combiner's running totals, written by the last arriver of a
/// deciding rendezvous before it releases the fleet and read after it —
/// so also `Relaxed`, and never written by two threads at once. Apart
/// from the stop code ([`Shared::stop`]), which every worker reads every
/// slot and which is written once a run: on a line of its own it stays
/// in every cache until then.
#[derive(Default)]
#[repr(align(128))]
struct Tally {
    /// Fleet-wide queued packets as last published (what worker 0
    /// samples into the queue trace).
    total: AtomicI64,
    /// Largest fleet-wide pre-service population of any decided slot.
    peak: AtomicI64,
}

/// A delivery crossing a worker boundary (or looped back locally).
struct DataMsg {
    link: u32,
    pkt: Packet,
}

/// Control-plane traffic: task registration, acks, loss settlements.
/// Mirrors the simulator's contention-free ARQ control plane — a
/// mailbox takes any number of them and they are never modeled as
/// carrying load.
enum CtrlMsg {
    /// A unicast task registered at its home (the destination's owner).
    Register {
        task: u32,
        gen_time: u64,
        measured: bool,
    },
    /// One broadcast reception delivered at `slot`, acked to the home.
    Ack { task: u32, slot: u64 },
    /// `receptions` of the task settled as permanently lost at `slot`.
    /// `fault` carries the loss attribution (dead link vs. overflow) so
    /// the home can count fault-damaged broadcasts like the engine does.
    Lost {
        task: u32,
        receptions: u32,
        fault: bool,
        slot: u64,
    },
    /// The task had a copy retransmitted (ARQ bookkeeping at the home).
    MarkRetx { task: u32 },
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

/// The tasks a worker is home to (broadcast: the source's owner;
/// unicast: the destination's owner), by the injector's task id.
type TaskTable = HashMap<u32, TaskSlot, BuildHasherDefault<TaskIdHasher>>;

/// Everything one worker has for one peer in one slot — what a single
/// mailbox hand-over carries. The outbox a worker keeps for *itself*
/// (index = its own id) is the same type: its deliveries and injections
/// loop back without leaving the thread, its `ctrl` stays empty (local
/// control is applied directly).
#[derive(Default)]
struct Batch {
    /// Control messages of the *previous* slot (sealed at the top of the
    /// slot that sends them).
    ctrl: Vec<CtrlMsg>,
    /// This slot's deliveries, ascending in link id (finish-scan order).
    data: Vec<DataMsg>,
    /// This slot's injections.
    inject: InjectBatch,
}

impl Batch {
    fn is_empty(&self) -> bool {
        self.ctrl.is_empty() && self.data.is_empty() && self.inject.is_empty()
    }
}

/// Everything the workers share. What is written during a run sits in
/// 128-byte-aligned homes of its own ([`Padded`], [`SlotBarrier`],
/// [`GaugeLine`], [`Tally`], [`Mailbox`]); the rest is read-only once
/// the threads run.
struct Shared {
    workers: usize,
    node_owner: Vec<u32>,
    link_target: Vec<NodeId>,
    link_dim: Vec<u8>,
    /// The first link id of each worker's node range, plus the link
    /// count (`workers + 1` entries): worker `i` owns links
    /// `[link_lo[i], link_lo[i + 1])`.
    link_lo: Vec<u32>,
    /// The decision criteria (`pstar_sim::stop_verdict`): the run's
    /// configuration and the fleet-wide queued-packet limit.
    sim: SimConfig,
    queue_limit: i64,
    /// The slot's rendezvous (and, on faulted runs, the decision
    /// rendezvous: the fleet goes through every wait in the same order,
    /// so one barrier serves both).
    barrier: SlotBarrier,
    /// Mailboxes by slot parity, indexed `from * W + to`.
    mail: [Vec<Mailbox<Batch>>; 2],
    gauges: Vec<GaugeLine>,
    tally: Tally,
    /// `RUN` until the combiner decides a slot to be the last.
    stop: Padded<AtomicU8>,
    /// Supervised-shutdown latch: once `true`, every worker aborts at
    /// its next barrier wait or blocked put.
    poison: Padded<AtomicBool>,
    /// First failure observed (panic or watchdog timeout); later
    /// failures are secondary casualties of the teardown.
    first_error: Mutex<Option<NetError>>,
    /// Per-worker progress words `(slot << 3) | phase`, stored at every
    /// phase boundary; the supervisor's watchdog input and the
    /// [`WorkerPosition`] context of a timeout.
    progress: Vec<Padded<AtomicU64>>,
    /// Workers whose thread body (including panic handling) finished.
    done: AtomicUsize,
    /// The supervising thread, parked between watchdog ticks; every
    /// finishing worker unparks it.
    supervisor: Thread,
}

impl Shared {
    /// Partitions `topo` over `w` workers and lays out the shared state.
    fn new<N: Network>(topo: &N, w: usize, sim: &SimConfig) -> Result<Self, NetConfigError> {
        let n = topo.node_count();
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
        let link_source = topo.link_source_table();
        // A worker's links must be one contiguous id range (the kernel's
        // `[lo, hi)`), which node-major link ids give — the same rule the
        // sharded engine partitions by. It is also what makes the
        // senders' delivery runs concatenate in ascending link order.
        if link_source.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(NetConfigError::LinksNotNodeContiguous);
        }
        let first_link_of = |node: u32| link_source.partition_point(|src| src.0 < node) as u32;
        let mut link_lo: Vec<u32> = ranges.iter().map(|r| first_link_of(r.start)).collect();
        link_lo.push(link_source.len() as u32);
        Ok(Self {
            workers: w,
            node_owner,
            link_target: topo.link_target_table(),
            link_dim: topo.link_dim_table(),
            link_lo,
            sim: *sim,
            queue_limit: sim.queue_limit(link_source.len()),
            barrier: SlotBarrier::new(w),
            mail: [(); 2].map(|()| (0..w * w).map(|_| Mailbox::new()).collect()),
            gauges: (0..w).map(|_| GaugeLine::default()).collect(),
            tally: Tally::default(),
            stop: Padded::default(),
            poison: Padded::default(),
            first_error: Mutex::new(None),
            progress: (0..w).map(|_| Padded::default()).collect(),
            done: AtomicUsize::new(0),
            supervisor: std::thread::current(),
        })
    }

    /// Totals the queued packets the workers last published (a
    /// combiner's job, like [`Shared::decide`]).
    fn total_queued(&self) -> i64 {
        let total = self
            .gauges
            .iter()
            .map(|g| g.queued.load(Ordering::Relaxed))
            .sum();
        self.tally.total.store(total, Ordering::Relaxed);
        total
    }

    /// Decides `slot` — the combiner of the rendezvous that follows it,
    /// run by the last arriver alone — by the simulator's stop rule
    /// (`pstar_sim::stop_verdict`). The queue peak is sampled on every
    /// decided slot, the last included.
    fn decide(&self, slot: u64) {
        let total = self.total_queued();
        let (mut pre_service, mut outstanding, mut tripped) = (0i64, 0i64, false);
        for g in &self.gauges {
            pre_service += g.pre_service.load(Ordering::Relaxed);
            outstanding += g.outstanding.load(Ordering::Relaxed);
            tripped |= g.unstable.load(Ordering::Relaxed);
        }
        if pre_service > self.tally.peak.load(Ordering::Relaxed) {
            self.tally.peak.store(pre_service, Ordering::Relaxed);
        }
        debug_assert!(
            outstanding >= 0,
            "more measured receptions settled than opened"
        );
        let verdict = stop_verdict(
            &self.sim,
            slot + 1,
            outstanding as u64,
            total,
            self.queue_limit,
            || tripped,
        );
        if let Some(stop) = verdict {
            let code = match stop {
                Stop::Completed => COMPLETED,
                Stop::Horizon => HORIZON,
                Stop::Unstable => UNSTABLE,
            };
            self.stop.store(code, Ordering::Relaxed);
        }
    }
}

/// Thread-local perf accumulator of one worker ([`NetConfig::perf`]
/// runs only). Plain fields, no atomics: the worker owns it for the
/// whole run and it is published into [`NetPerf`] after join.
#[derive(Debug)]
struct NetWorkerAcc {
    /// Per-slot wall-time distribution (min/median/max come from here).
    slot_hist: LogHistogram,
    barrier_wait_ns: [u64; 3],
    phase_a_ns: u64,
    phase_b_ns: u64,
    decide_ns: u64,
    fault_apply_ns: u64,
    blocked_send_ns: u64,
    data_depth_high: usize,
}

impl NetWorkerAcc {
    fn new() -> Self {
        Self {
            slot_hist: LogHistogram::new(),
            barrier_wait_ns: [0; 3],
            phase_a_ns: 0,
            phase_b_ns: 0,
            decide_ns: 0,
            fault_apply_ns: 0,
            blocked_send_ns: 0,
            data_depth_high: 0,
        }
    }
}

/// Adds the time since `mark` to the accumulator field `field` picks.
/// Both are `None` on uninstrumented runs: one never-taken branch, no
/// `Instant` reads, no RNG contact.
#[inline]
fn lap(
    perf: &mut Option<Box<NetWorkerAcc>>,
    mark: Option<Instant>,
    field: impl FnOnce(&mut NetWorkerAcc) -> &mut u64,
) {
    if let (Some(p), Some(m)) = (perf.as_mut(), mark) {
        *field(p) += m.elapsed().as_nanos() as u64;
    }
}

/// One worker thread's whole state. The scheme is held by value: on
/// fault-free runs `SS` is `&S` (the blanket `Scheme for &S` impl, zero
/// cost, shared); on faulted runs each worker owns a clone so
/// `Scheme::on_liveness_change` can mutate degraded-mode state.
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
    /// Worker 0 only: the global injector.
    injector: Option<VirtualInjector>,
    arq: Option<Arq>,
    fwd_rng: StdRng,
    stats: WorkerStats,
    trace: Vec<TraceRecord>,
    trace_cap: usize,
    /// Worker 0 only: the sampled fleet-wide queue totals.
    queue_trace: Vec<(u64, u64)>,
    /// Outboxes, index = destination worker (`out[id]` loops back): the
    /// slot's deliveries and injections collect here during send, beside
    /// the control sealed at the top of the slot, and each non-empty one
    /// is swapped into its mailbox in one hand-over. What comes back is
    /// a batch the receiver emptied, so a slot allocates nothing.
    out: Vec<Batch>,
    /// Control messages the current slot has produced so far, index =
    /// destination worker; sealed into `out` at the top of the next slot.
    pending_ctrl: Vec<Vec<CtrlMsg>>,
    /// Taken batches, index = source worker; emptied by process, then
    /// swapped back into the mailbox by the next take.
    inbox: Vec<Batch>,
    /// Data and injection messages of the send not yet committed: they
    /// count as sent once the rendezvous says the slot runs.
    uncommitted_sent: u64,
    /// Scratch for one delivery's forwards.
    emit_buf: Vec<Emit>,
    /// Scratch for a fault epoch's losses.
    loss_buf: Vec<FaultLoss>,
    /// `Some` on faulted runs: this worker's replica of the fault clock.
    faults: Option<Box<FaultClock>>,
    /// Chaos, resolved for this worker: panic right after the rendezvous
    /// that decides this slot; stall `(slot, millis)` once; from this
    /// slot on take no peer's mailbox (a "deaf" worker, for exercising
    /// the watchdog).
    chaos_panic: Option<u64>,
    chaos_delay: Option<(u64, u64)>,
    deaf_from: Option<u64>,
    /// `Some` on [`NetConfig::perf`] runs: this worker's timing
    /// accumulator. `None` costs one never-taken branch per phase.
    perf: Option<Box<NetWorkerAcc>>,
}

/// Routes a generated task to the outbox of its source node's owner.
struct OwnerRoute<'a> {
    node_owner: &'a [u32],
    out: &'a mut [Batch],
}

impl InjectRoute for OwnerRoute<'_> {
    fn batch_for(&mut self, src: NodeId) -> &mut InjectBatch {
        &mut self.out[self.node_owner[src.index()] as usize].inject
    }
}

impl<'a, N: Network + Sync, SS: Scheme> Worker<'a, N, SS> {
    /// Worker `id` of `shared`'s partition, before its first slot.
    /// `clock` is its replica of the fault clock on a faulted run.
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: usize,
        topo: &'a N,
        scheme: SS,
        shared: &'a Shared,
        cfg: &NetConfig,
        mix: TrafficMix,
        policy: DeadLinkPolicy,
        clock: Option<FaultClock>,
    ) -> Self {
        let (sim, w) = (cfg.sim, shared.workers);
        let n = topo.node_count();
        let mut kernel =
            LinkKernel::new(&sim, topo.d(), shared.link_lo[id], shared.link_lo[id + 1]);
        kernel.set_dead_link_policy(policy);
        let injector = (id == 0).then(|| VirtualInjector::new(&topo.dim_sizes(), mix, sim));
        // Worker `id`'s unicast tie coins: a stream of its own.
        let fwd_seed = splitmix64(
            sim.seed ^ FWD_SEED_SALT ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let chaos = &cfg.chaos;
        Self {
            id,
            topo,
            scheme,
            cfg: sim,
            shared,
            kernel,
            tasks: TaskTable::default(),
            injector,
            arq: sim.arq.map(|a| Arq::new(a, sim.seed ^ ARQ_SEED_SALT)),
            fwd_rng: StdRng::seed_from_u64(fwd_seed),
            stats: WorkerStats::new(&sim, n, topo.diameter()),
            trace: Vec::new(),
            trace_cap: cfg.trace_capacity,
            queue_trace: Vec::new(),
            out: (0..w).map(|_| Batch::default()).collect(),
            pending_ctrl: (0..w).map(|_| Vec::new()).collect(),
            inbox: (0..w).map(|_| Batch::default()).collect(),
            uncommitted_sent: 0,
            emit_buf: Vec::with_capacity(64),
            loss_buf: Vec::new(),
            faults: clock.map(Box::new),
            chaos_panic: chaos.panic_at_slot.filter(|_| chaos.victim(0, w) == id),
            chaos_delay: chaos.delay_at_slot.filter(|_| chaos.victim(1, w) == id),
            deaf_from: chaos.deaf_from_slot.filter(|_| chaos.victim(2, w) == id),
            perf: cfg.perf.then(|| Box::new(NetWorkerAcc::new())),
        }
    }

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

    /// Queues `msg` for `to`: it ships with the next slot's hand-over —
    /// the one-slot lag of the control plane, the run's last slot
    /// included (`take_last_ctrl`) — and counts as sent here, where it is
    /// produced.
    fn send_ctrl(&mut self, to: usize, msg: CtrlMsg) {
        debug_assert_ne!(to, self.id, "local ctrl must be applied directly");
        self.pending_ctrl[to].push(msg);
        self.stats.messages_sent += 1;
    }

    // ---------------------------------------------------------------
    // The slot loop
    // ---------------------------------------------------------------

    /// Runs slots until one is decided to be the last (or the fleet is
    /// poisoned) and returns how many ran.
    fn run(&mut self) -> u64 {
        let (shared, id) = (self.shared, self.id);
        // With a fault plan installed the fault tick of slot `t` is
        // visible in the report, so slot `t − 1` must be decided before
        // it; without one, the decision rides the slot's rendezvous.
        let decide_first = self.faults.is_some();
        let mut t: u64 = 0;
        loop {
            shared.progress[id].store(t << 3, Ordering::Release);
            if shared.poison.load(Ordering::Acquire) {
                break;
            }
            if let Some((slot, ms)) = self.chaos_delay {
                if slot == t {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
            let slot_t0 = self.perf.as_ref().map(|_| Instant::now());
            if decide_first && t > 0 && self.rendezvous(Some(t - 1), 1) {
                // Slot `t − 1` was the last and nothing of slot `t` has
                // happened: hand its control over on its own.
                self.seal_ctrl();
                if !self.hand_over(t) && !self.rendezvous(None, 0) {
                    self.take_last_ctrl(t);
                }
                break;
            }
            self.seal_ctrl();
            if decide_first {
                self.fault_tick(t);
            }
            shared.progress[id].store((t << 3) | 1, Ordering::Release);
            let mark = slot_t0.map(|_| Instant::now());
            let aborted = self.send(t);
            lap(&mut self.perf, mark, |p| &mut p.phase_a_ns);
            if aborted {
                break;
            }
            shared.progress[id].store((t << 3) | 3, Ordering::Release);
            let decides = (!decide_first && t > 0).then(|| t - 1);
            if self.rendezvous(decides, 0) {
                // Slot `t − 1` was the last: of what send of `t` handed
                // over, its control is still to be applied.
                self.take_last_ctrl(t);
                break;
            }
            // The slot runs. What the links held at its top — after its
            // fault tick, before its deliveries — is the total the
            // rendezvous just took.
            if id == 0 && self.cfg.trace_interval.is_some_and(|k| t % k == 0) {
                let total = shared.tally.total.load(Ordering::Relaxed);
                self.queue_trace.push((t, total.max(0) as u64));
            }
            shared.progress[id].store((t << 3) | 2, Ordering::Release);
            let mark = slot_t0.map(|_| Instant::now());
            self.commit_send();
            self.process(t);
            lap(&mut self.perf, mark, |p| &mut p.phase_b_ns);
            if let (Some(p), Some(t0)) = (self.perf.as_mut(), slot_t0) {
                p.slot_hist.record(t0.elapsed().as_nanos() as u64);
            }
            t += 1;
        }
        shared.progress[id].store((t << 3) | 4, Ordering::Release);
        t
    }

    /// One barrier wait of the slot path, telemetry index `which`. With
    /// `decides`, the last arriver decides that slot before releasing
    /// the fleet, and every worker then acts on the verdict; without, it
    /// only re-totals the queued packets (a faulted run's exchange
    /// rendezvous, after the fault ticks). Returns `true` when the loop
    /// must end: the fleet is poisoned, or the decided slot was the
    /// last.
    fn rendezvous(&mut self, decides: Option<u64>, which: usize) -> bool {
        let shared = self.shared;
        let mark = self.perf.as_ref().map(|_| Instant::now());
        let mut decide_ns = 0u64;
        let aborted = shared.barrier.wait_with(&shared.poison, || {
            let m = mark.map(|_| Instant::now());
            match decides {
                Some(slot) => shared.decide(slot),
                None => {
                    shared.total_queued();
                }
            }
            decide_ns = m.map_or(0, |m| m.elapsed().as_nanos() as u64);
        });
        if aborted {
            return true;
        }
        if let (Some(p), Some(m)) = (self.perf.as_mut(), mark) {
            p.decide_ns += decide_ns;
            p.barrier_wait_ns[which] += (m.elapsed().as_nanos() as u64).saturating_sub(decide_ns);
        }
        let Some(slot) = decides else {
            return false;
        };
        if self.chaos_panic == Some(slot) {
            panic!("chaos: injected panic at slot {slot} on worker {}", self.id);
        }
        shared.stop.load(Ordering::Relaxed) != RUN
    }

    /// After the last slot: the control it produced (the acks and loss
    /// notices of its deliveries, its registrations) reaches the homes,
    /// so that a task whose last settlement was in the run's last slot
    /// completes in the report as it does in the engine's. The slot-`t`
    /// traffic a fault-free run's send handed over with it never runs.
    fn take_last_ctrl(&mut self, t: u64) {
        let (shared, w, id) = (self.shared, self.shared.workers, self.id);
        if shared.poison.load(Ordering::Acquire) {
            return;
        }
        let mail = &shared.mail[(t % 2) as usize];
        for from in (0..w).filter(|&from| from != id) {
            let mut batch = std::mem::take(&mut self.inbox[from]);
            if mail[from * w + id].take(&mut batch) {
                for msg in batch.ctrl.drain(..) {
                    self.handle_ctrl(msg);
                }
            }
            self.inbox[from] = batch;
        }
    }

    /// Top of slot: the control messages produced so far — the previous
    /// slot's — move into the outboxes this slot's send hands over.
    /// Whatever the slot itself produces from here on, its fault tick
    /// included, collects in `pending_ctrl` for the next send.
    fn seal_ctrl(&mut self) {
        for (batch, pending) in self.out.iter_mut().zip(&mut self.pending_ctrl) {
            debug_assert!(batch.ctrl.is_empty(), "outbox came back unemptied");
            std::mem::swap(&mut batch.ctrl, pending);
        }
    }

    // ---------------------------------------------------------------
    // Send: move finished deliveries + inject traffic, hand over
    // ---------------------------------------------------------------

    /// Slot `t`'s send. It runs before slot `t − 1` is decided (on
    /// fault-free runs), so it must not do anything a report can see:
    /// what it counts stays uncommitted until [`Worker::commit_send`].
    /// Returns `true` when the run was poisoned during a hand-over.
    fn send(&mut self, t: u64) -> bool {
        let shared = self.shared;
        let mut scan = self.kernel.finish_scan();
        while let Some((link, pkt)) = self.kernel.next_finished(&mut scan, t) {
            let target = shared.link_target[link as usize];
            let to = shared.node_owner[target.index()] as usize;
            self.out[to].data.push(DataMsg { link, pkt: *pkt });
        }
        {
            // Disjoint borrows: the injector consumes the scheme and the
            // liveness view (dead nodes generate no traffic, in the
            // engine's exact RNG draw order).
            let Self {
                injector,
                faults,
                scheme,
                out,
                ..
            } = &mut *self;
            if let Some(inj) = injector {
                let view = faults.as_ref().map(|f| f.view());
                let mut route = OwnerRoute {
                    node_owner: &shared.node_owner,
                    out,
                };
                inj.slot(t, &*scheme, view, &mut route)
            }
        }
        self.hand_over(t)
    }

    /// Swaps each non-empty outbox into its peer's mailbox of slot `t`'s
    /// parity. Returns `true` when the run was poisoned meanwhile.
    fn hand_over(&mut self, t: u64) -> bool {
        let (shared, w, id) = (self.shared, self.shared.workers, self.id);
        let mail = &shared.mail[(t % 2) as usize][id * w..(id + 1) * w];
        for (to, batch) in self.out.iter_mut().enumerate() {
            if to == id || batch.is_empty() {
                continue;
            }
            self.uncommitted_sent += (batch.data.len() + batch.inject.msgs.len()) as u64;
            let blocked_ns = self.perf.as_mut().map(|p| &mut p.blocked_send_ns);
            if mail[to].put(batch, &shared.poison, blocked_ns) {
                return true;
            }
        }
        false
    }

    /// The rendezvous said the slot runs: what its send counted becomes
    /// part of the report.
    fn commit_send(&mut self) {
        self.stats.messages_sent += std::mem::take(&mut self.uncommitted_sent);
        if let Some(gate) = self.injector.as_ref().and_then(|inj| inj.gate.as_ref()) {
            self.stats.flow.rejected_broadcasts = gate.rejected_broadcasts;
            self.stats.flow.rejected_unicasts = gate.rejected_unicasts;
        }
    }

    // ---------------------------------------------------------------
    // Process: take + handle, engine step order
    // ---------------------------------------------------------------

    fn process(&mut self, t: u64) {
        let (shared, w, id) = (self.shared, self.shared.workers, self.id);
        // 0. One take per peer; what this worker sent itself loops back
        //    by the same swap, without a mailbox. A deaf worker (chaos)
        //    stops taking, so its peers' next put of this parity finds
        //    the mailbox occupied and waits — the hang the watchdog
        //    exists to catch.
        let deaf = self.deaf_from.is_some_and(|s| t >= s);
        let mail = &shared.mail[(t % 2) as usize];
        for (from, batch) in self.inbox.iter_mut().enumerate() {
            debug_assert!(batch.is_empty(), "inbox not emptied by the last process");
            if from == id {
                std::mem::swap(batch, &mut self.out[id]);
            } else if !deaf && mail[from * w + id].take(batch) {
                if let Some(p) = self.perf.as_mut() {
                    p.data_depth_high = p.data_depth_high.max(batch.data.len());
                }
            }
        }
        // 1. Control plane from slot t − 1: registrations must precede
        //    the deliveries so a task's home record always exists before
        //    its first ack or loss can arrive.
        for from in 0..w {
            let mut ctrl = std::mem::take(&mut self.inbox[from].ctrl);
            for msg in ctrl.drain(..) {
                self.handle_ctrl(msg);
            }
            self.inbox[from].ctrl = ctrl;
        }
        // 2. Deliveries of slot t in ascending link order — the engine's
        //    delivery-scan order, which makes same-slot forwards enqueue
        //    identically to the engine; the fault-agreement gate relies
        //    on it (boundary-straddling drops are order-sensitive). Each
        //    sender's run is ascending (its finish scan's order) and
        //    holds only its own links, and workers own ascending,
        //    disjoint link ranges: the k-way merge of the runs is their
        //    concatenation in sender order, each processed where it lies.
        let mut last_link = None;
        for from in 0..w {
            let mut run = std::mem::take(&mut self.inbox[from].data);
            for msg in run.drain(..) {
                debug_assert!(last_link < Some(msg.link), "deliveries out of link order");
                last_link = Some(msg.link);
                self.process_deliver(msg.link, msg.pkt, t);
            }
            self.inbox[from].data = run;
        }
        // 3. Due retransmissions (before arrivals, like the engine).
        if self.arq.as_ref().is_some_and(|a| !a.is_idle()) {
            self.fire_retx(t);
        }
        // 4. Injections of slot t (worker 0's injector is the one
        //    source).
        for from in 0..w {
            let mut batch = std::mem::take(&mut self.inbox[from].inject);
            for msg in batch.msgs.drain(..) {
                let emits = &batch.emits[msg.emits.start as usize..msg.emits.end as usize];
                self.process_inject(&msg, emits, t);
            }
            batch.emits.clear();
            self.inbox[from].inject = batch;
        }
        // 5. The queued population, sampled at the engine's point: after
        //    arrivals, before service starts.
        let pre_service = self.kernel.queued();
        if self.in_window(t) {
            self.stats.flow.occupancy_sum += pre_service as u128;
        }
        // 6. Service starts on the owned links, link-id order.
        let faulted = self.faults.as_ref().is_some_and(|f| f.any_now());
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
        // 7. The slot's gauges for the next rendezvous' combiner, with
        //    the local single-queue divergence guard (each worker scans
        //    its own links on the engine's scan slots).
        let gauge = &shared.gauges[id];
        gauge
            .queued
            .store(self.kernel.queued() as i64, Ordering::Relaxed);
        gauge
            .pre_service
            .store(pre_service as i64, Ordering::Relaxed);
        gauge
            .outstanding
            .store(self.stats.tasks.outstanding_measured(), Ordering::Relaxed);
        if self
            .cfg
            .single_queue_tripped(t + 1, || self.kernel.max_qlen())
        {
            gauge.unstable.store(true, Ordering::Relaxed);
        }
    }

    fn handle_ctrl(&mut self, msg: CtrlMsg) {
        match msg {
            CtrlMsg::Register {
                task,
                gen_time,
                measured,
            } => self.home_register(TaskSlot::new(gen_time, false, 1, measured), task),
            CtrlMsg::Ack { task, slot } => self.home_ack(task, slot),
            CtrlMsg::Lost {
                task,
                receptions,
                fault,
                slot,
            } => self.home_lost(task, receptions, fault, slot),
            CtrlMsg::MarkRetx { task } => self.home_retx(task),
        }
    }

    /// `task` starts being tracked at this worker, its home.
    fn home_register(&mut self, slot: TaskSlot, task: u32) {
        let prev = self.tasks.insert(task, slot);
        debug_assert!(prev.is_none(), "duplicate task id {task}");
    }

    /// One reception of `task` — a broadcast copy, or the unicast at its
    /// destination — delivered at slot `at`.
    fn home_ack(&mut self, task: u32, at: u64) {
        self.home_settle(task, |slot| slot.receive(at));
    }

    /// `receptions` of `task` lost for good at slot `at` (`fault`: to a
    /// dead link).
    fn home_lost(&mut self, task: u32, receptions: u32, fault: bool, at: u64) {
        self.home_settle(task, |slot| slot.lose(at, receptions, fault));
    }

    /// Applies one settlement to `task`'s record; the one that completes
    /// the task takes the record out and counts it — one table lookup
    /// either way (a unicast's only settlement is its completion).
    fn home_settle(&mut self, task: u32, settle: impl FnOnce(&mut TaskSlot) -> bool) {
        let Entry::Occupied(mut record) = self.tasks.entry(task) else {
            panic!("settlement for unknown task {task}");
        };
        if settle(record.get_mut()) {
            self.stats.tasks.completed(record.remove());
        }
    }

    /// A copy of `task` was scheduled for retransmission.
    fn home_retx(&mut self, task: u32) {
        if let Some(slot) = self.tasks.get_mut(&task) {
            slot.retx = true;
        }
    }

    fn process_inject(&mut self, msg: &InjectMsg, emits: &[Emit], t: u64) {
        // Counted by the *creating* worker, at injection: the task's
        // receptions are due from this slot on, wherever its home is.
        self.stats.tasks.opened(t, msg.broadcast, msg.measured);
        if msg.broadcast {
            let receivers = self.topo.node_count() - 1;
            let slot = TaskSlot::new(msg.gen_time, true, receivers, msg.measured);
            self.home_register(slot, msg.task);
        } else {
            let dest = match emits.first().map(|e| e.kind) {
                Some(PacketKind::Unicast { dest }) => dest,
                _ => unreachable!("unicast inject without unicast emit"),
            };
            let home = self.owner_of(dest);
            if home == self.id {
                let slot = TaskSlot::new(msg.gen_time, false, 1, msg.measured);
                self.home_register(slot, msg.task);
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
        }
        self.enqueue_emits(emits, msg.src, msg.task, msg.gen_time, msg.len, t);
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
                        .measured_reception(pkt.gen_time, t, pkt.priority, || {
                            topo.distance(state.src, node)
                        });
                }
                let home = self.owner_of(state.src);
                if home == self.id {
                    self.home_ack(pkt.task, t);
                } else {
                    self.send_ctrl(
                        home,
                        CtrlMsg::Ack {
                            task: pkt.task,
                            slot: t,
                        },
                    );
                }
                let mut emits = std::mem::take(&mut self.emit_buf);
                emits.clear();
                self.scheme.on_broadcast_arrival(node, &state, &mut emits);
                self.enqueue_emits(&emits, node, pkt.task, pkt.gen_time, pkt.len, t);
                self.emit_buf = emits;
            }
            PacketKind::Unicast { dest } => {
                if node == dest {
                    // The destination's owner *is* the unicast home, so
                    // completion is settled locally.
                    if let Some(arq) = self.arq.as_mut() {
                        arq.counters.acked(pkt.attempt);
                    }
                    self.home_ack(pkt.task, t);
                } else {
                    let mut emits = std::mem::take(&mut self.emit_buf);
                    emits.clear();
                    self.scheme
                        .on_unicast_arrival(node, dest, &mut self.fwd_rng, &mut emits);
                    debug_assert!(!emits.is_empty(), "unicast stranded");
                    self.enqueue_emits(&emits, node, pkt.task, pkt.gen_time, pkt.len, t);
                    self.emit_buf = emits;
                }
            }
        }
    }

    /// Offers `emits` to `from`'s outgoing links (the engine's
    /// `flush_emits`); a packet the kernel refuses or evicts is a loss.
    fn enqueue_emits(
        &mut self,
        emits: &[Emit],
        from: NodeId,
        task: u32,
        gen_time: u64,
        len: u16,
        t: u64,
    ) {
        for emit in emits {
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
                    self.home_retx(pkt.task);
                } else {
                    self.send_ctrl(home, CtrlMsg::MarkRetx { task: pkt.task });
                }
                self.stats.tasks.packet_dropped(cause);
                return;
            }
        }
        self.stats.tasks.packet_dropped(cause);
        let lost_measured = self.settle_drop(&pkt, t, cause == LossCause::Fault);
        if let Some(arq) = self.arq.as_mut() {
            arq.counters.gave_up_receptions += lost_measured;
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
    /// completion record updated at the task's home (`fault` carries the
    /// loss attribution to its fault-damaged accounting). Returns how
    /// many measured receptions were lost.
    fn settle_drop(&mut self, pkt: &Packet, t: u64, fault: bool) -> u64 {
        let (broadcast, receptions) = receptions_at_stake(&self.scheme, pkt);
        let measured = self.in_window(pkt.gen_time);
        let lost_measured = self.stats.tasks.lost(measured, broadcast, receptions);
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
                    slot: t,
                },
            );
        }
        lost_measured
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
    // Fault epochs
    // ---------------------------------------------------------------

    /// Top of slot: one tick of this worker's fault-clock replica — the
    /// engine's `fault_tick`, run before send so an epoch lands exactly
    /// where the engine applies it: before this slot's deliveries,
    /// arrivals, and service. What the epoch loses on owned links
    /// settles against the scheme as it still is; then every worker
    /// re-solves on its own clone: same view, same deterministic result
    /// as the engine's single re-solve.
    fn fault_tick(&mut self, t: u64) {
        let mark = self.perf.as_ref().map(|_| Instant::now());
        let mut clock = self.faults.take().expect("fault_tick without plan");
        let mut losses = std::mem::take(&mut self.loss_buf);
        if clock.tick(t, &mut self.kernel, &mut losses) {
            for loss in losses.drain(..) {
                self.lose_packet(loss.link, loss.pkt, t, LossCause::Fault);
            }
            self.scheme.on_liveness_change(clock.view());
            lap(&mut self.perf, mark, |p| &mut p.fault_apply_ns);
        }
        self.loss_buf = losses;
        self.faults = Some(clock);
        // What the links hold now is what the slot starts from.
        self.shared.gauges[self.id]
            .queued
            .store(self.kernel.queued() as i64, Ordering::Relaxed);
    }

    /// Closes the books after `slots_run` slots.
    fn finish(mut self, slots_run: u64) -> WorkerOutput {
        self.stats.arq = self.arq.take().map(Arq::finish).unwrap_or_default();
        let kernel = &self.kernel;
        self.stats.faults = self
            .faults
            .take()
            .map(|f| f.finish(slots_run, |link| kernel.is_active(link)));
        WorkerOutput {
            stats: self.stats,
            links: self.kernel.into_counters(),
            trace: self.trace,
            queue_trace: self.queue_trace,
            slots_run,
            perf: self.perf,
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
/// per epoch (all clones see identical `LivenessView`s, so they stay
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

/// Records `err` as the run's failure if it is the first, then poisons
/// the fleet: every wait of the slot path checks the flag, so nobody
/// stays blocked.
fn poison_with(shared: &Shared, err: NetError) {
    {
        let mut first = shared.first_error.lock().unwrap_or_else(|e| e.into_inner());
        if first.is_none() {
            *first = Some(err);
        }
    }
    shared.poison.store(true, Ordering::Release);
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

/// Runs worker `id`'s thread body under supervision: a panic becomes the
/// run's [`NetError::WorkerPanic`] and poisons the fleet, and either way
/// the supervisor is told the worker is done.
fn supervised<T>(shared: &Shared, id: usize, body: impl FnOnce() -> T) -> Option<T> {
    let out = match catch_unwind(AssertUnwindSafe(body)) {
        Ok(out) => Some(out),
        Err(payload) => {
            // Order matters: record the error and poison *before*
            // bumping `done`, so the supervisor can never observe a
            // finished fleet with a missing output and no recorded
            // failure.
            poison_with(
                shared,
                NetError::WorkerPanic {
                    worker: id as u32,
                    message: panic_message(payload),
                },
            );
            None
        }
    };
    shared.done.fetch_add(1, Ordering::AcqRel);
    shared.supervisor.unpark();
    out
}

/// The supervisor's watchdog tick.
const WATCHDOG_TICK: Duration = Duration::from_millis(10);

/// The supervisor, on the thread that built `shared`: parked until the
/// last worker is done, it wakes every [`WATCHDOG_TICK`] to read the
/// per-worker progress words; a fleet that stops moving for
/// `watchdog_ms` is hung (a put nobody takes, a lost barrier) and gets
/// converted into a structured timeout instead of a deadlock.
fn supervise(shared: &Shared, watchdog_ms: u64) {
    let w = shared.workers;
    let mut last: Vec<u64> = Vec::new();
    let mut idle_ms: u64 = 0;
    let mut tick_start = Instant::now();
    while shared.done.load(Ordering::Acquire) < w {
        // A finishing worker's unpark (or a spurious wake-up) ends the
        // park early; that is a reason to look at `done`, not a tick.
        match WATCHDOG_TICK.checked_sub(tick_start.elapsed()) {
            Some(left) if !left.is_zero() => {
                std::thread::park_timeout(left);
                continue;
            }
            _ => tick_start = Instant::now(),
        }
        if shared.poison.load(Ordering::Acquire) {
            continue; // teardown already under way; just wait
        }
        let snap: Vec<u64> = shared
            .progress
            .iter()
            .map(|p| p.load(Ordering::Acquire))
            .collect();
        if snap != last {
            last = snap;
            idle_ms = 0;
            continue;
        }
        idle_ms += WATCHDOG_TICK.as_millis() as u64;
        if idle_ms >= watchdog_ms && shared.done.load(Ordering::Acquire) < w {
            let workers = snap
                .iter()
                .enumerate()
                .map(|(i, &v)| WorkerPosition {
                    worker: i as u32,
                    slot: v >> 3,
                    phase: (v & 7) as u8,
                })
                .collect();
            poison_with(
                shared,
                NetError::BarrierTimeout {
                    waited_ms: idle_ms,
                    workers,
                },
            );
        }
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
    if let Err(e) = cfg.sim.scenario.validate(&topo.dim_sizes(), mix.bernoulli) {
        return Err(NetConfigError::Scenario(e).into());
    }
    let sim = cfg.sim;
    let n = topo.node_count();
    let links = topo.link_count() as usize;
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        cfg.workers
    };
    let w = workers.clamp(1, n as usize);

    // An empty plan is no plan, as on the engines: the run is the
    // fault-free one, report included.
    let faults = faults.filter(|(plan, _)| !plan.is_empty());
    let policy = faults.as_ref().map(|(_, p)| *p).unwrap_or_default();
    // The fault clock every worker starts a replica of.
    let clock = faults.map(|(plan, _)| FaultClock::new(plan, topo));
    let shared = Shared::new(topo, w, &sim)?;
    let new_link_counters = || LinkCounters::new(&sim, topo.d(), 0, links);
    // The one report rule (`pstar_sim::assemble`) over merged worker
    // counters; the net-specific inputs are the combiner's queue peak
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
                faults: merged.faults,
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
        let mut stats = WorkerStats::new(&sim, n, topo.diameter());
        stats.faults = clock.map(|c| c.finish(0, |_| false));
        return Ok(NetReport {
            report: report_of(stats, new_link_counters(), 0, stop, 0, Vec::new()),
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
                // Built on the main thread: `make_scheme` is `FnMut`.
                let scheme = make_scheme(id);
                let clock = clock.clone();
                s.spawn(move || {
                    supervised(shared_ref, id, move || {
                        let mut worker =
                            Worker::new(id, topo, scheme, shared_ref, &cfg, mix, policy, clock);
                        let slots_run = worker.run();
                        worker.finish(slots_run)
                    })
                })
            })
            .collect();
        supervise(shared_ref, cfg.watchdog_ms);
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
                    phase_a_ns: acc.phase_a_ns,
                    phase_b_ns: acc.phase_b_ns,
                    decide_ns: acc.decide_ns,
                    fault_apply_ns: acc.fault_apply_ns,
                    blocked_send_ns: acc.blocked_send_ns,
                    data_depth_high: acc.data_depth_high,
                }
            })
            .collect(),
    });
    // Worker 0's stats seed the merge and the others fold in — exact
    // integer sums, so the order is immaterial; the link counters are
    // the same over disjoint ranges and fold into a zeroed
    // whole-network set.
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
    let peak_queue_total = shared.tally.peak.load(Ordering::Acquire);
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

    fn run(scheme: SchemeKind, rho: f64, mut sim: SimConfig, workers: usize) -> NetReport {
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
                ..NetConfig::new(sim)
            },
        )
        .expect("run_net failed")
    }

    /// Every measured broadcast reaches all 15 other nodes of the 4×4
    /// torus, and with infinite queues nothing is ever lost.
    #[test]
    fn virtual_run_completes_and_conserves_receptions() {
        let net = run(SchemeKind::PriorityStar, 0.5, SimConfig::quick(7), 3);
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
        // All workers ran the same number of slots in lockstep, and the
        // decisions were taken by whichever worker arrived last.
        assert!(p.workers.iter().all(|wp| wp.slots == p.workers[0].slots));
        assert_eq!(p.workers[0].slots, inst.report.slots_run);
        assert!(p.workers.iter().map(|wp| wp.decide_ns).sum::<u64>() > 0);
        assert!(p.workers.iter().all(|wp| wp.barrier_wait_ns[1..] == [0, 0]));
        // Publishing lands the per-worker counters in a registry.
        let reg = MetricsRegistry::new();
        p.publish(&reg);
        let text = reg.prometheus_text();
        assert!(text.contains("net_slot_ns{worker=\"0\"}"), "{text}");
        assert!(text.contains("net_barrier_wait_ns"), "{text}");
    }

    #[test]
    fn same_seed_same_workers_is_bit_deterministic() {
        let a = run(SchemeKind::ThreeClass, 0.7, SimConfig::quick(21), 4);
        let b = run(SchemeKind::ThreeClass, 0.7, SimConfig::quick(21), 4);
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

    /// The task set comes from one global RNG stream and accounting is
    /// order-free, so the report cannot depend on the sharding.
    #[test]
    fn worker_count_does_not_change_delivered_counts() {
        let a = run(SchemeKind::FcfsDirect, 0.6, SimConfig::quick(3), 1);
        let b = run(SchemeKind::FcfsDirect, 0.6, SimConfig::quick(3), 4);
        // The events are the same and every statistic is an exact
        // integer sum: who counted what cannot show.
        assert_eq!(a.report.first_difference(&b.report), None);
        assert!(a.messages_sent == 0 && b.messages_sent > 0);
    }

    /// Bounded queues with tail drop: every measured reception is
    /// either delivered or settled lost — none double counted, none
    /// missing.
    #[test]
    fn drop_tail_conservation() {
        let mut sim = SimConfig::quick(5);
        sim.queue_capacity = Some(1);
        let net = run(SchemeKind::FcfsDirect, 0.9, sim, 3);
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
        let net = run(SchemeKind::PriorityStar, 0.7, sim, 4);
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
        let net = run(SchemeKind::FcfsDirect, 3.0, SimConfig::quick(2), 2);
        assert!(!net.report.stable);
        assert!(!net.report.completed);
    }

    #[test]
    fn zero_slot_configs_return_empty_reports() {
        let mut sim = SimConfig::quick(1);
        sim.warmup_slots = 0;
        sim.measure_slots = 0;
        let net = run(SchemeKind::PriorityStar, 0.5, sim, 2);
        assert!(net.report.completed);
        assert_eq!(net.report.slots_run, 0);
        assert_eq!(net.report.measured_broadcasts, 0);

        let mut sim = SimConfig::quick(1);
        sim.max_slots = 0;
        let net = run(SchemeKind::PriorityStar, 0.5, sim, 2);
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

    /// A worker that stops taking its peers' mailboxes hangs the fleet
    /// two slots on — the next put of the untaken parity waits, and the
    /// rendezvous waits for the putter; the watchdog converts the hang
    /// into a timeout with positions.
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
                assert!(workers.iter().all(|p| p.slot == 12), "{workers:?}");
                assert!(
                    workers.iter().any(|p| p.phase == 1),
                    "somebody must be stuck in a hand-over: {workers:?}"
                );
            }
            other => panic!("expected BarrierTimeout, got {other:?}"),
        }
    }

    /// The supervisor wakes when the last worker finishes, not at its
    /// next watchdog tick: fifty back-to-back eight-slot runs must not
    /// cost fifty ticks (10 ms each — half a second — when the
    /// supervisor slept through every run's end).
    #[test]
    fn short_runs_return_when_their_workers_do() {
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec::default();
        let scheme = spec.build_scheme(&topo);
        let sim = SimConfig {
            warmup_slots: 2,
            measure_slots: 4,
            max_slots: 8,
            lengths: spec.lengths,
            ..SimConfig::quick(23)
        };
        let started = Instant::now();
        for _ in 0..50 {
            let net = run_net(
                &topo,
                &scheme,
                spec.mix(&topo),
                NetConfig {
                    workers: 2,
                    ..NetConfig::new(sim)
                },
            )
            .expect("run_net failed");
            assert!(net.report.slots_run <= 8);
        }
        let took = started.elapsed();
        assert!(took < Duration::from_millis(250), "50 runs took {took:?}");
    }

    /// Every buffer of a stepped fleet — outboxes, pending control,
    /// inboxes, both parities of every mailbox, the forward scratch —
    /// as `(address, capacity in bytes)`, sorted: hand-overs move
    /// buffers between owners, so the multiset is what stays put.
    fn fleet_buffers<N: Network + Sync, SS: Scheme>(
        shared: &Shared,
        fleet: &[Worker<'_, N, SS>],
    ) -> Vec<(usize, usize)> {
        fn of<T>(v: &Vec<T>) -> (usize, usize) {
            (v.as_ptr() as usize, v.capacity() * std::mem::size_of::<T>())
        }
        fn of_batch(b: &Batch) -> [(usize, usize); 4] {
            [
                of(&b.ctrl),
                of(&b.data),
                of(&b.inject.msgs),
                of(&b.inject.emits),
            ]
        }
        let mut all = Vec::new();
        for worker in fleet {
            all.push(of(&worker.emit_buf));
            all.extend(worker.pending_ctrl.iter().map(of));
            all.extend(worker.out.iter().flat_map(of_batch));
            all.extend(worker.inbox.iter().flat_map(of_batch));
        }
        for parity in &shared.mail {
            all.extend(parity.iter().flat_map(|mb| mb.peek(of_batch)));
        }
        all.sort_unstable();
        all
    }

    /// A steady-state slot allocates nothing on the message plane: with
    /// the fleet stepped on one thread in the order the rendezvous
    /// enforces (every send, the decision, every process), after the
    /// warm-up the outboxes, inject arenas, mailbox batches and the
    /// forward scratch are the same allocations at the same capacities
    /// 100 slots later — while every share of the hand-over (control,
    /// deliveries, injections with their emits) carries traffic.
    #[test]
    fn steady_state_slots_reuse_every_buffer() {
        const WARM: u64 = 400;
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec {
            scheme: SchemeKind::ThreeClass,
            rho: 0.6,
            broadcast_load_fraction: 0.5,
            ..ScenarioSpec::default()
        };
        let scheme = spec.build_scheme(&topo);
        let cfg = NetConfig {
            workers: 2,
            ..NetConfig::new(SimConfig {
                lengths: spec.lengths,
                ..SimConfig::quick(29)
            })
        };
        let shared = Shared::new(&topo, 2, &cfg.sim).unwrap();
        let mut fleet: Vec<_> = (0..2)
            .map(|id| {
                let policy = DeadLinkPolicy::default();
                Worker::new(
                    id,
                    &topo,
                    &scheme,
                    &shared,
                    &cfg,
                    spec.mix(&topo),
                    policy,
                    None,
                )
            })
            .collect();
        let step = |fleet: &mut Vec<Worker<'_, _, _>>, t: u64| {
            let mut crossed = [0usize; 3];
            for worker in fleet.iter_mut() {
                worker.seal_ctrl();
                let peer = &worker.out[1 - worker.id];
                crossed[0] += peer.ctrl.len();
                assert!(!worker.send(t), "no put may wait in a stepped fleet");
            }
            for parity in &shared.mail {
                for mb in parity {
                    let (data, inject) = mb.peek(|b| (b.data.len(), b.inject.emits.len()));
                    crossed[1] += data;
                    crossed[2] += inject;
                }
            }
            if t > 0 {
                shared.decide(t - 1);
                assert_eq!(shared.stop.load(Ordering::Relaxed), RUN);
            }
            for worker in fleet.iter_mut() {
                worker.commit_send();
                worker.process(t);
            }
            crossed
        };
        for t in 0..WARM {
            step(&mut fleet, t);
        }
        let warm = fleet_buffers(&shared, &fleet);
        let emit_buf: Vec<_> = fleet.iter().map(|w| w.emit_buf.as_ptr()).collect();
        let mut crossed = [0usize; 3];
        for t in WARM..WARM + 100 {
            for (sum, c) in crossed.iter_mut().zip(step(&mut fleet, t)) {
                *sum += c;
            }
        }
        assert!(crossed.iter().all(|&c| c > 100), "idle share: {crossed:?}");
        assert_eq!(fleet_buffers(&shared, &fleet), warm);
        for (worker, ptr) in fleet.iter().zip(emit_buf) {
            assert_eq!(worker.emit_buf.as_ptr(), ptr);
            assert_eq!(worker.emit_buf.capacity(), 64);
        }
        let sent: u64 = fleet.iter().map(|w| w.stats.messages_sent).sum();
        assert!(sent > 0 && fleet.iter().all(|w| w.uncommitted_sent == 0));
    }

    /// The stop rule is the simulator's, in its order: a run whose last
    /// measured task completes on a guard-scan slot with the guard
    /// tripped has completed — the guard is asked last.
    #[test]
    fn a_completed_run_wins_over_a_tripped_single_queue_guard() {
        let topo = Torus::new(&[4, 4]);
        let sim = SimConfig {
            warmup_slots: 96,
            measure_slots: 4_000,
            ..SimConfig::quick(1)
        };
        assert_eq!(sim.measure_end(), pstar_sim::SINGLE_QUEUE_SCAN_PERIOD);
        let shared = Shared::new(&topo, 2, &sim).unwrap();
        shared.gauges[1].unstable.store(true, Ordering::Relaxed);
        shared.decide(4_095);
        assert_eq!(shared.stop.load(Ordering::Relaxed), COMPLETED);
        // With a measured task outstanding the same slot is unstable.
        let shared = Shared::new(&topo, 2, &sim).unwrap();
        shared.gauges[0].outstanding.store(1, Ordering::Relaxed);
        shared.gauges[1].unstable.store(true, Ordering::Relaxed);
        shared.decide(4_095);
        assert_eq!(shared.stop.load(Ordering::Relaxed), UNSTABLE);
    }

    #[test]
    fn shared_words_have_cache_lines_of_their_own() {
        use std::mem::{align_of, size_of};
        assert!(align_of::<Padded<AtomicBool>>() >= 128);
        assert!(align_of::<Padded<AtomicU64>>() >= 128);
        assert!(align_of::<GaugeLine>() >= 128);
        assert!(align_of::<Tally>() >= 128);
        assert!(align_of::<Padded<AtomicU8>>() >= 128);
        assert!(align_of::<SlotBarrier>() >= 128);
        assert!(align_of::<Mailbox<Batch>>() >= 128);
        // Arrays of them keep every element apart.
        assert_eq!(size_of::<Padded<AtomicU64>>() % 128, 0);
        assert_eq!(size_of::<GaugeLine>() % 128, 0);
        assert_eq!(size_of::<Mailbox<Batch>>() % 128, 0);
    }

    /// The combiner runs exactly once per generation, on the last
    /// arriver, and before any waiter returns.
    #[test]
    fn combiner_runs_once_on_the_last_arriver_before_any_release() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 2000;
        let barrier = SlotBarrier::new(THREADS as usize);
        let (arrived, combined) = (AtomicU64::new(0), AtomicU64::new(0));
        let poison = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for round in 0..ROUNDS {
                        arrived.fetch_add(1, Ordering::AcqRel);
                        let aborted = barrier.wait_with(&poison, || {
                            assert_eq!(
                                arrived.load(Ordering::Acquire),
                                (round + 1) * THREADS,
                                "the combiner ran before the last arrival"
                            );
                            combined.fetch_add(1, Ordering::AcqRel);
                        });
                        assert!(!aborted);
                        assert_eq!(
                            combined.load(Ordering::Acquire),
                            round + 1,
                            "a waiter was released before (or the combiner ran twice)"
                        );
                        // Nobody starts the next round's arrivals while
                        // a peer still checks this round's counts.
                        assert!(!barrier.wait_with(&poison, || ()));
                    }
                });
            }
        });
    }

    /// A panic inside the combiner — the one stretch where the whole
    /// fleet waits on a single worker — becomes that worker's
    /// `WorkerPanic`, and the poison flag releases every waiting peer,
    /// at every fleet size.
    #[test]
    fn combiner_panic_becomes_worker_panic_and_releases_every_peer() {
        let topo = Torus::new(&[4, 4]);
        for workers in 2..=4 {
            let shared = Shared::new(&topo, workers, &SimConfig::quick(1)).unwrap();
            let outcomes: Vec<Option<bool>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|id| {
                        let shared = &shared;
                        s.spawn(move || {
                            supervised(shared, id, || {
                                assert!(!shared.barrier.wait_with(&shared.poison, || ()));
                                shared
                                    .barrier
                                    .wait_with(&shared.poison, || panic!("combiner gave up"))
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let panicked = outcomes.iter().filter(|o| o.is_none()).count();
            assert_eq!(panicked, 1, "W={workers}: one last arriver");
            assert!(
                outcomes.iter().flatten().all(|&aborted| aborted),
                "W={workers}: every peer must be told to abandon the run"
            );
            assert_eq!(shared.done.load(Ordering::Acquire), workers);
            let first_error = shared.first_error.lock().unwrap().take();
            match first_error {
                Some(NetError::WorkerPanic { worker, message }) => {
                    assert_eq!(outcomes[worker as usize], None);
                    assert!(message.contains("combiner gave up"), "{message}");
                }
                other => panic!("W={workers}: expected WorkerPanic, got {other:?}"),
            }
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
                        assert!(!enter.wait_with(&poison, || ()));
                        assert_eq!(
                            counter.load(Ordering::Acquire),
                            (round + 1) * THREADS as u64,
                            "a thread raced past the barrier"
                        );
                        assert!(!exit.wait_with(&poison, || ()));
                    }
                });
            }
        });
    }

    /// A poisoned barrier releases a waiter that would otherwise spin
    /// forever.
    #[test]
    fn poisoned_barrier_releases_waiters() {
        let barrier = SlotBarrier::new(2);
        let poison = AtomicBool::new(false);
        std::thread::scope(|s| {
            let h = s.spawn(|| barrier.wait_with(&poison, || ()));
            std::thread::sleep(std::time::Duration::from_millis(50));
            poison.store(true, Ordering::Release);
            assert!(h.join().unwrap(), "waiter must abort, not spin forever");
        });
    }
}
