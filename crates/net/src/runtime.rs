//! The thread-per-core slot-synchronous runtime.
//!
//! Topology nodes are sharded into contiguous ranges over `W` worker
//! threads; each worker owns its nodes' outgoing links — one
//! [`pstar_sim::Hop`] over their contiguous id range: the same queueing,
//! service, delivery, forwarding, loss and ARQ code the serial engine
//! runs — and its books: a private [`crate::stats::WorkerStats`]
//! accumulator and the records of the tasks it is home to, the tasks it
//! opened at its sources. A record lives in the serial engine's
//! [`pstar_sim::TaskTable`] slab, and the handle every copy of the task
//! carries ([`pstar_sim::Packet::task`]) is `slot << b | home` with
//! `b = ⌈log₂ W⌉`: at one worker exactly the engine's ledger slot, and
//! at any worker count a home found by a mask and a record by an index.
//! Workers never share mutable state: everything crosses core
//! boundaries in [`crate::channel::Mailbox`]es, one hand-over per peer
//! per slot — a worker collects what it has for each peer (control,
//! deliveries, injections) in one outbox it owns and swaps the whole
//! outbox into the pair's mailbox, so no lock is taken per message and
//! none at all towards a peer it has nothing for. What stays on a
//! worker never enters an outbox: the deliveries to its own nodes are
//! taken off its kernel where they are processed, and a notice to a
//! home it is itself is applied at once.
//!
//! # Slot protocol
//!
//! A worker is a [`pstar_sim::Clock`] over its links with the threaded
//! transport `Worker`: the clock owns the slot order, the fault tick,
//! the injector's draw (worker 0's), the commit, `Hop::slot`, the gauge
//! and the one decision rule ([`pstar_sim::Gauge::decide`]); the worker
//! owns where things travel and who decides. Every slot `t` is one
//! exchange — *send*, **one rendezvous**, *process*:
//!
//! * **Send** — each worker copies the deliveries finishing at `t` on
//!   its links whose target node another worker owns into that owner's
//!   outbox, leaving them on its kernel, and worker 0's clock draws the
//!   slot's tasks straight into the source owners' outboxes. Each
//!   non-empty outbox — the control messages slot `t − 1` produced, slot
//!   `t`'s deliveries and slot `t`'s tasks — then goes to its peer in one
//!   hand-over, into the pair's mailbox of parity `t % 2`.
//! * **Rendezvous** — the one barrier of the slot. Its *last arriver*,
//!   before it releases the others, sums the per-worker gauge lines and
//!   decides whether slot `t` runs. Everyone leaves knowing both that
//!   slot `t`'s traffic is in the mailboxes and whether slot `t` exists.
//! * **Process** — each worker takes its peers' mailboxes of parity
//!   `t % 2`, applies their control (acks, loss and retransmission
//!   notices from slot `t − 1`, each carrying the slot it happened in),
//!   and its clock runs `Hop::slot` over the peers' delivery runs and
//!   the tasks worker 0 drew for its sources, then publishes its gauge.
//!
//! *Why one rendezvous is enough.* Mailbox `t % 2` is written before
//! rendezvous `t` and read after it, and its next write (send of
//! `t + 2`) lies behind rendezvous `t + 1`, which nobody passes before
//! every peer has finished processing `t`. The gauge lines are written
//! at the end of process and read by the last arriver of the next
//! rendezvous, when every writer is waiting or about to arrive.
//!
//! *The commit rule* is the clock's: send of `t` runs before the
//! decision, so nothing a report can see happens in it — its data and
//! injection messages count in [`NetReport::messages_sent`] only at the
//! commit (control counts where it is produced), and control slot `t`
//! produces, its fault tick's included, ships with send of `t + 1`.
//! When slot `t` does not run, the workers still apply the control that
//! send of `t` handed over (a faulted run, which has not sent, hands it
//! over on its own), so a task whose last reception fell in the last
//! slot completes in the report as it does in the engine's.
//!
//! # Determinism
//!
//! A mailbox holds one sender's batch in send order, batches are taken
//! after the rendezvous in a fixed sender order, and a worker's links
//! are one contiguous id range, so the senders' delivery runs — each
//! ascending, a finish scan's order, the worker's own run at its own
//! place — concatenate into one ascending sequence. Every RNG is seeded
//! from `SimConfig::seed`, and the
//! injector is the engine's, drawing every task in full at its arrival,
//! which makes the task population identical to a simulator run of the
//! same config whatever the queues hold. A source's out-links belong to
//! one worker, so whether a task waits at its source under backpressure
//! is decided where the engine decides it, against the same queues.
//! A transit unicast's tie coin comes from the stream of the node it is
//! delivered to, drawn in that delivery order by the node's owner, so no
//! partition changes it. Every statistic is an order-free integer
//! sum (`pstar_sim::TaskLedger`), so the whole report equals the
//! simulator's bit for bit at any worker count
//! (`SimReport::first_difference` is `None`; `tests/net.rs`), unicast
//! traffic, a [`FaultPlan`] ([`run_net_with_faults`]), bounded queues
//! under every full-queue policy, admission control and ARQ included.
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
//! samples. The fault tick is visible in a report, so the clock of a
//! run with a plan installed decides first: at a rendezvous of its own
//! at the top of slot `t`, ahead of the fault tick, and the exchange
//! rendezvous decides nothing — two waits a slot, where a fault-free
//! run makes one.
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

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

use pstar_faults::{DeadLinkPolicy, FaultPlan};
use pstar_obs::{MetricsRegistry, TraceRecord, TraceSink};
use pstar_sim::{
    assemble, Clock, ConfigError, Deliveries, FaultClock, Gauge, Homes, InjectBatch, InjectMsg,
    LinkCounters, LinkKernel, LossCause, Packet, RunOutcome, Scheme, SimConfig, SimReport, Stop,
    TaskLedger, TaskSlot, TaskTable, Transport,
};
use pstar_stats::LogHistogram;
use pstar_topology::{Network, NodeId};
use pstar_traffic::TrafficMix;

use crate::channel::{spin_until, Mailbox};
use crate::error::{ChaosConfig, NetError, WorkerPosition};
use crate::stats::WorkerStats;

/// How traffic is generated. There is one way; the enum and
/// [`NetConfig::mode`] remain only because `benchmark/src/arms.rs`
/// names them (ROADMAP `[benchmark]` (c) lists both for release).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Worker 0 draws every task with the simulator's injector, so both
    /// generate the same tasks.
    #[default]
    Virtual,
}

/// Configuration of one runtime execution.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// The simulation parameters (window, seed, ARQ, admission, bounded
    /// queues, …) — the same struct the simulator runs from, every field
    /// honoured as the simulator honours it.
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
    /// Cross-worker messages sent (data + control + injection). A slot's
    /// acks of one task to one home count once: they travel as one
    /// message.
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
#[derive(Debug, Clone, Default)]
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
    /// Time spent inside the rendezvous' combiner is
    /// [`Self::decide_ns`], not wait.
    pub barrier_wait_ns: [u64; 2],
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
    /// rendezvous of runs with a fault plan —
    /// `net_phase_ns{worker,phase}`, `net_blocked_send_ns{worker}`) and
    /// gauges (`net_data_depth_high{worker}`), so net runs land in the
    /// same registry/exporter pipeline as the sharded engine.
    pub fn publish(&self, reg: &MetricsRegistry) {
        for wp in &self.workers {
            let wid = wp.worker.to_string();
            let wl = [("worker", wid.as_str())];
            reg.counter("net_slots", &wl).add(wp.slots);
            reg.counter("net_slot_ns", &wl).add(wp.slot_ns_sum);
            for (name, ns) in ["a", "b"].into_iter().zip(wp.barrier_wait_ns) {
                reg.counter(
                    "net_barrier_wait_ns",
                    &[("worker", wid.as_str()), ("barrier", name)],
                )
                .add(ns);
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

// The shared stop flag: `RUN`, or the stop's index in `STOPS` plus one.
const RUN: u8 = 0;
const STOPS: [Stop; 3] = [Stop::Completed, Stop::Horizon, Stop::Unstable];

fn stop_code(stop: Stop) -> u8 {
    STOPS
        .iter()
        .position(|&s| s == stop)
        .expect("every stop has a code") as u8
        + 1
}

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
    /// (`Relaxed`) gauge, peak and stop words around a rendezvous.
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

/// A worker's [`Gauge`] as it publishes it at the end of process for the
/// next rendezvous' combiner: one line per worker, written by its owner
/// only. `queued` is written again after a faulted run's fault tick.
/// `Relaxed` throughout — [`SlotBarrier::wait_with`] orders the accesses.
#[derive(Default)]
#[repr(align(128))]
struct GaugeLine {
    queued: AtomicI64,
    pre_service: AtomicI64,
    outstanding: AtomicI64,
    deferred: AtomicI64,
    unstable: AtomicBool,
}

impl GaugeLine {
    fn store(&self, g: &Gauge) {
        self.queued.store(g.queued, Ordering::Relaxed);
        self.pre_service.store(g.pre_service, Ordering::Relaxed);
        self.outstanding.store(g.outstanding, Ordering::Relaxed);
        self.deferred.store(g.deferred, Ordering::Relaxed);
        self.unstable.store(g.unstable, Ordering::Relaxed);
    }

    fn load(&self) -> Gauge {
        Gauge {
            queued: self.queued.load(Ordering::Relaxed),
            pre_service: self.pre_service.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            unstable: self.unstable.load(Ordering::Relaxed),
        }
    }
}

/// Control-plane traffic: what a worker tells the home of a task it saw
/// a copy of, by the handle the copies carry. Mirrors the simulator's
/// contention-free ARQ control plane — a mailbox takes any number of
/// them and they are never modeled as carrying load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlMsg {
    /// `count` receptions of the task delivered at `slot` on the
    /// sender's nodes: one message per (task, slot, home), which the
    /// home applies as `count` receptions ([`TaskSlot::receive_n`]: its
    /// record is an order-free maximum and sum).
    Ack { task: u32, slot: u64, count: u32 },
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

/// Everything one worker has for one peer in one slot — what a single
/// mailbox hand-over carries. The outbox a worker keeps for *itself*
/// (index = its own id) is the same type, and only worker 0's is ever
/// used: the tasks its injector drew for its own sources loop back
/// without leaving the thread.
#[derive(Default)]
pub(crate) struct Batch {
    /// Control messages of the *previous* slot (sealed at the top of the
    /// slot that sends them).
    ctrl: Vec<CtrlMsg>,
    /// This slot's deliveries to the receiver's nodes as `(link,
    /// packet)`, ascending in link id (finish-scan order): one run of
    /// `Hop::slot`.
    data: Deliveries,
    /// This slot's tasks at the receiver's sources (from worker 0).
    inject: InjectBatch,
}

impl Batch {
    fn is_empty(&self) -> bool {
        self.ctrl.is_empty() && self.data.is_empty() && self.inject.is_empty()
    }
}

/// The injector draws straight into the outboxes.
impl std::borrow::Borrow<InjectBatch> for Batch {
    fn borrow(&self) -> &InjectBatch {
        &self.inject
    }
}

impl std::borrow::BorrowMut<InjectBatch> for Batch {
    fn borrow_mut(&mut self) -> &mut InjectBatch {
        &mut self.inject
    }
}

/// Everything the workers share. What is written during a run sits in
/// 128-byte-aligned homes of its own ([`Padded`], [`SlotBarrier`],
/// [`GaugeLine`], [`Mailbox`]); the rest is read-only once
/// the threads run.
struct Shared {
    workers: usize,
    node_owner: Vec<u32>,
    /// The owner of every link's target node: where a delivery goes.
    target_owner: Vec<u32>,
    /// `⌈log₂ W⌉`: a task handle is `slab slot << home_bits | home`.
    home_bits: u32,
    link_dim: Vec<u8>,
    /// The first link id of each worker's node range, plus the link
    /// count (`workers + 1` entries): worker `i` owns links
    /// `[link_lo[i], link_lo[i + 1])`.
    link_lo: Vec<u32>,
    /// The decision criteria (`pstar_sim::Gauge::decide`): the run's
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
    /// The largest fleet-wide pre-service population of any decided
    /// slot: written by the last arriver of a deciding rendezvous before
    /// it releases the fleet — so also `Relaxed`, and never by two
    /// threads at once — and read after the run.
    peak: Padded<AtomicI64>,
    /// `RUN` until the combiner decides a slot to be the last. Every
    /// worker reads it every slot and it is written once a run: on a
    /// line of its own it stays in every cache until then.
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
    fn new<N: Network>(topo: &N, w: usize, sim: &SimConfig) -> Result<Self, ConfigError> {
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
            return Err(ConfigError::LinksNotNodeContiguous);
        }
        let first_link_of = |node: u32| link_source.partition_point(|src| src.0 < node) as u32;
        let mut link_lo: Vec<u32> = ranges.iter().map(|r| first_link_of(r.start)).collect();
        link_lo.push(link_source.len() as u32);
        let owner_of = |v: &NodeId| node_owner[v.index()];
        Ok(Self {
            workers: w,
            target_owner: topo.link_target_table().iter().map(owner_of).collect(),
            node_owner,
            home_bits: w.next_power_of_two().trailing_zeros(),
            link_dim: topo.link_dim_table(),
            link_lo,
            sim: *sim,
            queue_limit: sim.queue_limit(link_source.len()),
            barrier: SlotBarrier::new(w),
            mail: [(); 2].map(|()| (0..w * w).map(|_| Mailbox::new()).collect()),
            gauges: (0..w).map(|_| GaugeLine::default()).collect(),
            peak: Padded::default(),
            stop: Padded::default(),
            poison: Padded::default(),
            first_error: Mutex::new(None),
            progress: (0..w).map(|_| Padded::default()).collect(),
            done: AtomicUsize::new(0),
            supervisor: std::thread::current(),
        })
    }

    /// Decides whether slot `t` runs — the combiner of a deciding
    /// rendezvous, run by the last arriver alone — by the clock's one
    /// rule over the fleet's gauge ([`Gauge::decide`]), which also takes
    /// the queue peak on every decided slot, the last included.
    fn decide(&self, t: u64) {
        let mut fleet = Gauge::default();
        for line in &self.gauges {
            fleet.add(&line.load());
        }
        let before = self.peak.load(Ordering::Relaxed);
        let mut peak = before;
        let verdict = fleet.decide(&self.sim, self.queue_limit, t, &mut peak);
        if peak != before {
            self.peak.store(peak, Ordering::Relaxed);
        }
        if let Some(stop) = verdict {
            self.stop.store(stop_code(stop), Ordering::Relaxed);
        }
    }
}

/// Thread-local perf accumulator of one worker ([`NetConfig::perf`]
/// runs only): the per-slot wall-time distribution, from which the
/// slot-time fields of its [`NetWorkerPerf`] come after join, and the
/// rest of them. Plain fields, no atomics: the worker owns it for the
/// whole run.
#[derive(Debug, Default)]
struct NetWorkerAcc {
    slot_hist: LogHistogram,
    perf: NetWorkerPerf,
}

/// Adds the time since `mark` to the accumulator field `field` picks.
/// Both are `None` on uninstrumented runs: one never-taken branch, no
/// `Instant` reads, no RNG contact.
#[inline]
fn lap(
    perf: &mut Option<Box<NetWorkerAcc>>,
    mark: Option<Instant>,
    field: impl FnOnce(&mut NetWorkerPerf) -> &mut u64,
) {
    if let (Some(p), Some(m)) = (perf.as_mut(), mark) {
        *field(&mut p.perf) += m.elapsed().as_nanos() as u64;
    }
}

/// A worker's trace track: the first [`NetConfig::trace_capacity`]
/// records its hop rules and service starts produce.
struct Track {
    records: Vec<TraceRecord>,
    cap: usize,
}

impl TraceSink for Track {
    fn record(&mut self, rec: TraceRecord) {
        if self.records.len() < self.cap {
            self.records.push(rec);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// What a worker counts and where its tasks' homes are: its share of the
/// ledger, the records of the tasks it is home to (those it opened, at
/// its sources), and the control notices it owes other homes. The hop
/// rules reach it as their [`Homes`]: the delivery- and loss-site rules
/// count here, the home-site ones are applied here or sent to the home.
struct Books<'a> {
    id: usize,
    shared: &'a Shared,
    stats: WorkerStats,
    tasks: TaskTable,
    /// Control messages the current slot has produced so far, index =
    /// home worker; sealed into the outboxes at the top of the next slot.
    pending: Vec<Vec<CtrlMsg>>,
    /// This slot's receptions of tasks homed elsewhere, by task handle
    /// (unique over all homes), and those handles in the order of their
    /// first reception: the slot's `Ack`s, one per task
    /// ([`Books::seal_acks`]).
    acks: Vec<u32>,
    acked: Vec<u32>,
}

impl Books<'_> {
    /// The worker keeping the record of the task with handle `task`.
    #[inline]
    fn home_of(&self, task: u32) -> usize {
        (task & ((1 << self.shared.home_bits) - 1)) as usize
    }

    /// The slab slot of `task`'s record at its home.
    fn index_of(&self, task: u32) -> u32 {
        task >> self.shared.home_bits
    }

    /// Settles `msg` at `task`'s home: here and now when that is this
    /// worker; otherwise it ships with the next slot's hand-over — the
    /// one-slot lag of the control plane, the run's last slot included
    /// (`take_last_ctrl`) — and counts as sent here, where it is
    /// produced.
    fn tell(&mut self, task: u32, msg: CtrlMsg) {
        let home = self.home_of(task);
        if home == self.id {
            self.apply(msg);
        } else {
            self.pending[home].push(msg);
            self.stats.messages_sent += 1;
        }
    }

    /// One reception of `task` delivered at slot `t`: settled here when
    /// this worker is its home, otherwise counted towards the slot's
    /// `Ack` of the task, which counts as sent at its first reception.
    #[inline]
    fn ack(&mut self, t: u64, task: u32) {
        if self.home_of(task) == self.id {
            return self.settle(task, |s| s.receive(t));
        }
        let at = task as usize;
        if at >= self.acks.len() {
            self.acks.resize(at + 1, 0);
        }
        if self.acks[at] == 0 {
            self.acked.push(task);
            self.stats.messages_sent += 1;
        }
        self.acks[at] += 1;
    }

    /// The receptions slot `slot` delivered of tasks homed elsewhere —
    /// every one counted since the last seal — become one
    /// `Ack { task, slot, count }` per (task, slot, home), behind the
    /// notices already pending for that home.
    fn seal_acks(&mut self, slot: u64) {
        let mask = (1 << self.shared.home_bits) - 1;
        for task in self.acked.drain(..) {
            let ack = CtrlMsg::Ack {
                task,
                slot,
                count: std::mem::take(&mut self.acks[task as usize]),
            };
            self.pending[(task & mask) as usize].push(ack);
        }
    }

    /// Applies one control message at this worker, the task's home.
    ///
    /// A `MarkRetx` always finds its task's record: the copy it marks
    /// was lost with its receptions still outstanding, and they stay so
    /// until that copy is delivered in a later slot or lost for good by
    /// the same worker (its ARQ timers re-admit at the hop that lost
    /// it), whose `Lost` follows the `MarkRetx` in that worker's FIFO
    /// batch. So the task cannot complete, and its slot cannot be
    /// reused, before the mark arrives.
    fn apply(&mut self, msg: CtrlMsg) {
        match msg {
            CtrlMsg::Ack { task, slot, count } => self.settle(task, |s| s.receive_n(slot, count)),
            CtrlMsg::Lost {
                task,
                receptions,
                fault,
                slot,
            } => self.settle(task, |s| s.lose(slot, receptions, fault)),
            CtrlMsg::MarkRetx { task } => self.settle(task, |s| {
                s.retx = true;
                false
            }),
        }
    }

    /// Applies one notice to `task`'s record, which must be live; the
    /// settlement that completes the task takes the record out, frees
    /// its slot and counts it.
    #[inline]
    fn settle(&mut self, task: u32, settle: impl FnOnce(&mut TaskSlot) -> bool) {
        let index = self.index_of(task);
        let record = self.tasks.get_mut(index);
        debug_assert!(record.remaining > 0, "notice for finished task {task}");
        if settle(record) {
            self.stats.tasks.completed(self.tasks.remove(index));
        }
    }
}

impl Homes for Books<'_> {
    fn ledger(&mut self) -> &mut TaskLedger {
        &mut self.stats.tasks
    }

    /// Counted and kept here, the source's owner, at injection: the
    /// task's receptions are due from this slot on, and this worker is
    /// its home. The handle is the record's slab slot tagged with this
    /// worker's id.
    fn open(&mut self, t: u64, msg: &InjectMsg) -> u32 {
        let broadcast = msg.dest.is_none();
        self.stats.tasks.opened(t, broadcast, msg.measured);
        let receivers = self.shared.node_owner.len() as u32 - 1;
        let record = TaskSlot::new(msg.gen_time, broadcast, receivers, msg.measured);
        let index = self.tasks.insert(record);
        debug_assert!(index.leading_zeros() >= self.shared.home_bits);
        index << self.shared.home_bits | self.id as u32
    }

    #[inline(always)]
    fn broadcast_received(&mut self, t: u64, pkt: &Packet, dist: impl FnOnce() -> u32) {
        if self.shared.sim.in_window(pkt.gen_time) {
            self.stats
                .tasks
                .measured_reception(pkt.gen_time, t, pkt.priority, dist);
        }
        self.ack(t, pkt.task);
    }

    #[inline]
    fn unicast_arrived(&mut self, t: u64, pkt: &Packet) {
        let measured = self.shared.sim.in_window(pkt.gen_time);
        self.stats.tasks.unicast_delivered(measured);
        self.ack(t, pkt.task);
    }

    fn retransmitting(&mut self, pkt: &Packet) {
        self.tell(pkt.task, CtrlMsg::MarkRetx { task: pkt.task });
    }

    fn lost_for_good(
        &mut self,
        t: u64,
        pkt: &Packet,
        broadcast: bool,
        receptions: u32,
        cause: LossCause,
    ) -> u64 {
        let measured = self.shared.sim.in_window(pkt.gen_time);
        let lost_measured = self.stats.tasks.lost(measured, broadcast, receptions);
        let lost = CtrlMsg::Lost {
            task: pkt.task,
            receptions,
            fault: cause == LossCause::Fault,
            slot: t,
        };
        self.tell(pkt.task, lost);
        lost_measured
    }
}

/// One worker thread's transport: its books, its outboxes and inboxes,
/// and what it tells the fleet. The hop rules over its links, worker 0's
/// injector and the slot order live in the worker's [`Clock`], which
/// calls these at the phase boundaries of the module docs; the progress
/// words, perf laps and chaos points sit at those boundaries.
struct Worker<'a> {
    id: usize,
    shared: &'a Shared,
    books: Books<'a>,
    /// Outboxes, index = destination worker (`out[id]` loops worker 0's
    /// injections back): the slot's cross-worker deliveries and
    /// injections collect here during send, beside the control sealed at
    /// the top of the slot, and each non-empty one is swapped into its
    /// mailbox in one hand-over. What comes back is a batch the receiver
    /// emptied, so a slot allocates nothing.
    out: Vec<Batch>,
    /// Taken batches, index = source worker; emptied by process, then
    /// swapped back into the mailbox by the next take.
    inbox: Vec<Batch>,
    /// Data and injection messages of the send not yet committed: they
    /// count as sent once the rendezvous says the slot runs.
    uncommitted_sent: u64,
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
    /// Perf runs only: when the slot began (after a chaos stall) and when
    /// its current phase did.
    slot_t0: Option<Instant>,
    mark: Option<Instant>,
}

impl<'a> Worker<'a> {
    /// Worker `id` of `shared`'s partition of `topo`, before its first
    /// slot.
    fn new<N: Network>(id: usize, topo: &N, shared: &'a Shared, cfg: &NetConfig) -> Self {
        let (sim, w, chaos) = (cfg.sim, shared.workers, &cfg.chaos);
        Self {
            id,
            shared,
            books: Books {
                id,
                shared,
                stats: WorkerStats::new(&sim, topo.node_count(), topo.diameter()),
                tasks: TaskTable::new(),
                pending: (0..w).map(|_| Vec::new()).collect(),
                acks: Vec::new(),
                acked: Vec::new(),
            },
            out: (0..w).map(|_| Batch::default()).collect(),
            inbox: (0..w).map(|_| Batch::default()).collect(),
            uncommitted_sent: 0,
            chaos_panic: chaos.panic_at_slot.filter(|_| chaos.victim(0, w) == id),
            chaos_delay: chaos.delay_at_slot.filter(|_| chaos.victim(1, w) == id),
            deaf_from: chaos.deaf_from_slot.filter(|_| chaos.victim(2, w) == id),
            perf: cfg.perf.then(Box::default),
            slot_t0: None,
            mark: None,
        }
    }

    /// Marks the worker at `phase` of slot `t` for the watchdog.
    fn progress(&self, t: u64, phase: u64) {
        self.shared.progress[self.id].store((t << 3) | phase, Ordering::Release);
    }

    /// One barrier wait of the slot path, telemetry index `which`. With
    /// `decides`, the last arriver decides whether that slot runs before
    /// releasing the fleet, and every worker then acts on the verdict;
    /// without (a faulted run's exchange rendezvous), it combines
    /// nothing. `Break(None)` when the fleet is poisoned.
    fn rendezvous(&mut self, decides: Option<u64>, which: usize) -> ControlFlow<Option<Stop>> {
        let shared = self.shared;
        let mark = self.perf.as_ref().map(|_| Instant::now());
        let mut decide_ns = 0u64;
        let aborted = shared.barrier.wait_with(&shared.poison, || {
            if let Some(t) = decides {
                let m = mark.map(|_| Instant::now());
                shared.decide(t);
                decide_ns = m.map_or(0, |m| m.elapsed().as_nanos() as u64);
            }
        });
        if aborted {
            return ControlFlow::Break(None);
        }
        if let (Some(p), Some(m)) = (self.perf.as_mut(), mark) {
            p.perf.decide_ns += decide_ns;
            let waited = m.elapsed().as_nanos() as u64;
            p.perf.barrier_wait_ns[which] += waited.saturating_sub(decide_ns);
        }
        let Some(t) = decides else {
            return ControlFlow::Continue(());
        };
        if let Some(slot) = self.chaos_panic.filter(|&slot| slot + 1 == t) {
            panic!("chaos: injected panic at slot {slot} on worker {}", self.id);
        }
        match shared.stop.load(Ordering::Relaxed) {
            RUN => ControlFlow::Continue(()),
            code => ControlFlow::Break(Some(STOPS[code as usize - 1])),
        }
    }

    /// One take per peer of slot `t`'s parity, their control (of slot
    /// `t − 1`) applied; the tasks worker 0 drew for its own sources loop
    /// back by the same swap, without a mailbox. A deaf worker (chaos)
    /// stops taking, so its peers' next put of this parity finds the
    /// mailbox occupied and waits — the hang the watchdog exists to
    /// catch.
    fn take(&mut self, t: u64) {
        let (shared, w, id) = (self.shared, self.shared.workers, self.id);
        let deaf = self.deaf_from.is_some_and(|s| t >= s);
        let mail = &shared.mail[(t % 2) as usize];
        for (from, batch) in self.inbox.iter_mut().enumerate() {
            debug_assert!(batch.is_empty(), "inbox not emptied by the last process");
            if from == id {
                std::mem::swap(batch, &mut self.out[id]);
            } else if !deaf && mail[from * w + id].take(batch) {
                if let Some(p) = self.perf.as_mut() {
                    p.perf.data_depth_high = p.perf.data_depth_high.max(batch.data.len());
                }
            }
            for msg in batch.ctrl.drain(..) {
                self.books.apply(msg);
            }
        }
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
            let blocked_ns = self.perf.as_mut().map(|p| &mut p.perf.blocked_send_ns);
            if mail[to].put(batch, &shared.poison, blocked_ns) {
                return true;
            }
        }
        false
    }
}

impl<'a> Transport for Worker<'a> {
    type Homes = Books<'a>;
    type Out = Batch;
    const SENDS_AHEAD: bool = true;

    fn homes(&mut self) -> &mut Books<'a> {
        &mut self.books
    }

    /// Top of slot `t`: the control messages produced so far — slot
    /// `t − 1`'s, its receptions' acks now sealed — move into the
    /// outboxes this slot's send hands over. Whatever the slot itself
    /// produces from here on, its fault tick included, collects in the
    /// books' pending control for the next send.
    fn seal(&mut self, t: u64) -> bool {
        self.progress(t, 0);
        if self.shared.poison.load(Ordering::Acquire) {
            return true;
        }
        if let Some((slot, ms)) = self.chaos_delay {
            if slot == t {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        self.slot_t0 = self.perf.as_ref().map(|_| Instant::now());
        self.books.seal_acks(t.saturating_sub(1));
        for (batch, pending) in self.out.iter_mut().zip(&mut self.books.pending) {
            debug_assert!(batch.ctrl.is_empty(), "outbox came back unemptied");
            std::mem::swap(&mut batch.ctrl, pending);
        }
        false
    }

    fn decide(&mut self, t: u64, first: bool) -> ControlFlow<Option<Stop>> {
        self.rendezvous(Some(t), usize::from(first))
    }

    /// One tick of this worker's fault-clock replica, timed when it
    /// changed liveness.
    fn fault_tick(&mut self, _t: u64, tick: impl FnOnce(&mut Books<'a>) -> bool) {
        let mark = self.perf.as_ref().map(|_| Instant::now());
        if tick(&mut self.books) {
            lap(&mut self.perf, mark, |p| &mut p.fault_apply_ns);
        }
    }

    /// Slot `t`'s send: the deliveries finishing at `t` on this worker's
    /// links whose target another worker owns are copied into its
    /// outbox, left on the kernel, which process takes them off. The
    /// injector of worker 0 draws into the source owners' outboxes.
    fn collect(&mut self, t: u64, kernel: &LinkKernel) -> (&mut [Batch], impl Fn(NodeId) -> usize) {
        let (shared, id) = (self.shared, self.id);
        self.progress(t, 1);
        self.mark = self.slot_t0.map(|_| Instant::now());
        if shared.workers > 1 {
            for (link, pkt) in kernel.finishing(t) {
                let to = shared.target_owner[link as usize] as usize;
                if to != id {
                    self.out[to].data.push((link, *pkt));
                }
            }
        }
        (&mut self.out, move |v: NodeId| {
            shared.node_owner[v.index()] as usize
        })
    }

    fn send(&mut self, t: u64) -> bool {
        let aborted = self.hand_over(t);
        lap(&mut self.perf, self.mark.take(), |p| &mut p.phase_a_ns);
        self.progress(t, 3);
        aborted
    }

    fn exchange(&mut self, _t: u64) -> bool {
        self.rendezvous(None, 0).is_break()
    }

    fn commit(&mut self, t: u64) {
        self.progress(t, 2);
        self.mark = self.slot_t0.map(|_| Instant::now());
        self.books.stats.messages_sent += std::mem::take(&mut self.uncommitted_sent);
    }

    /// Slot `t`'s take, then the slot body's inputs: the senders'
    /// delivery runs in sender order with this worker's finish scan in its
    /// own place — workers own ascending, disjoint link ranges, so that is
    /// ascending link order — and the tasks worker 0 drew for this
    /// worker's sources.
    ///
    /// Always inlined, so that the clock's slot body sees the books as a
    /// field of its own state, apart from the hop rules, and keeps its
    /// context in registers across the deliveries (`Hop::slot`).
    #[inline(always)]
    fn inputs(
        &mut self,
        t: u64,
    ) -> (
        &mut Books<'a>,
        impl IntoIterator<Item = Option<&mut Deliveries>>,
        &mut InjectBatch,
        impl FnMut(u32, &Packet),
    ) {
        self.take(t);
        let id = self.id;
        let (first, rest) = self.inbox.split_first_mut().expect("one inbox per worker");
        let data = std::iter::once(&mut first.data).chain(rest.iter_mut().map(|b| &mut b.data));
        let runs = data
            .enumerate()
            .map(move |(from, data)| (from != id).then_some(data));
        (&mut self.books, runs, &mut first.inject, |_, _| {})
    }

    /// The slot's gauge line for the next rendezvous' combiner.
    fn publish(&mut self, gauge: &Gauge) {
        self.shared.gauges[self.id].store(gauge);
        lap(&mut self.perf, self.mark.take(), |p| &mut p.phase_b_ns);
        if let (Some(p), Some(t0)) = (self.perf.as_mut(), self.slot_t0.take()) {
            p.slot_hist.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// After the last slot: the control it produced (the acks and loss
    /// notices of its deliveries and losses) reaches the homes, so that a
    /// task whose last settlement was in the run's last slot completes in
    /// the report as it does in the engine's. A faulted run, which has not
    /// sent, hands it over on its own; the slot-`t` traffic a fault-free
    /// run's send handed over with it never runs.
    fn last(&mut self, t: u64, sent: bool) {
        let poisoned = self.shared.poison.load(Ordering::Acquire);
        if poisoned || !sent && (self.hand_over(t) || self.rendezvous(None, 0).is_break()) {
            return;
        }
        let (shared, w, id) = (self.shared, self.shared.workers, self.id);
        let mail = &shared.mail[(t % 2) as usize];
        for from in (0..w).filter(|&from| from != id) {
            let mut batch = std::mem::take(&mut self.inbox[from]);
            if mail[from * w + id].take(&mut batch) {
                for msg in batch.ctrl.drain(..) {
                    self.books.apply(msg);
                }
            }
            self.inbox[from] = batch;
        }
    }
}

/// Closes a worker's books after its clock stopped with `stop`.
fn finish<SS: Scheme>(mut clock: Clock<SS, Worker<'_>>, stop: Option<Stop>) -> WorkerOutput {
    let slots_run = clock.now();
    let trace = clock.hop.obs.take().map_or_else(Vec::new, |sink| {
        let track = sink.into_any().downcast::<Track>();
        track.expect("a worker traces into its own track").records
    });
    let (hop, worker, queue_trace) = clock.into_parts();
    let flow = hop.flow;
    let (links, faults, arq) = hop.finish(slots_run);
    let mut stats = worker.books.stats;
    stats.flow = flow;
    stats.faults = faults;
    stats.arq = arq.unwrap_or_default();
    WorkerOutput {
        stats,
        links,
        trace,
        queue_trace,
        slots_run,
        stop,
        perf: worker.perf,
    }
}

/// What each worker thread hands back.
struct WorkerOutput {
    stats: WorkerStats,
    /// Service-start counters of the worker's own link range.
    links: LinkCounters,
    trace: Vec<TraceRecord>,
    /// What the worker's links held at the trace's sampling slots.
    queue_trace: Vec<(u64, u64)>,
    slots_run: u64,
    /// `None` when the fleet was poisoned.
    stop: Option<Stop>,
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
    // The fault clock every worker starts a replica of.
    let faults = faults
        .filter(|(plan, _)| !plan.is_empty())
        .map(|(plan, policy)| (FaultClock::new(plan, topo), policy));
    let shared = Shared::new(topo, w, &sim)?;

    let shared_ref = &shared;
    let started = std::time::Instant::now();
    let outputs: Vec<Option<Result<WorkerOutput, ConfigError>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w)
            .map(|id| {
                // Built on the main thread: `make_scheme` is `FnMut`.
                let scheme = make_scheme(id);
                let faults = faults.clone();
                s.spawn(move || {
                    supervised(shared_ref, id, move || {
                        // Every worker's clock refuses a bad config alike,
                        // before its first rendezvous.
                        let links = shared_ref.link_lo[id]..shared_ref.link_lo[id + 1];
                        let worker = Worker::new(id, topo, shared_ref, &cfg);
                        let mut clock =
                            Clock::new(topo, scheme, mix, &sim, links, id == 0, worker)?;
                        if let Some((faults, policy)) = faults {
                            clock.hop.install_faults(faults, policy);
                        }
                        if cfg.trace_capacity > 0 {
                            clock.trace(Box::new(Track {
                                records: Vec::new(),
                                cap: cfg.trace_capacity,
                            }));
                        }
                        let stop = clock.run(topo);
                        clock.transport.progress(clock.now(), 4);
                        Ok(finish(clock, stop))
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
            Some(Ok(o)) => results.push(o),
            Some(Err(refused)) => return Err(refused.into()),
            // Defensive: a missing output always records an error first.
            None => {
                return Err(NetError::WorkerPanic {
                    worker: u32::MAX,
                    message: "worker produced no output but recorded no error".into(),
                })
            }
        }
    }

    let (slots_run, stop) = (results[0].slots_run, results[0].stop);
    let perf = cfg.perf.then(|| NetPerf {
        workers: results
            .iter()
            .enumerate()
            .map(|(i, out)| {
                let acc = out.perf.as_deref().expect("perf run collects accumulators");
                let hist = &acc.slot_hist;
                NetWorkerPerf {
                    worker: i as u32,
                    slots: hist.count(),
                    slot_ns_sum: (hist.mean() * hist.count() as f64).round() as u64,
                    slot_ns_min: hist.min(),
                    slot_ns_median: hist.quantile(0.5),
                    slot_ns_max: hist.max(),
                    ..acc.perf.clone()
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
    let (mut merged, mut queue_trace) = (first.stats, first.queue_trace);
    let mut link_counters = LinkCounters::new(&sim, topo.d(), 0, links);
    link_counters.merge(&first.links);
    let mut worker_traces = Vec::new();
    if cfg.trace_capacity > 0 {
        worker_traces.push((0u32, first.trace));
    }
    for (i, out) in iter.enumerate() {
        merged.merge(&out.stats);
        link_counters.merge(&out.links);
        for (total, (_, queued)) in queue_trace.iter_mut().zip(out.queue_trace) {
            total.1 += queued;
        }
        if cfg.trace_capacity > 0 {
            worker_traces.push((i as u32 + 1, out.trace));
        }
    }
    let messages_sent = merged.messages_sent;
    // The one report rule (`pstar_sim::assemble`) over merged worker
    // counters; the net-specific inputs are the combiner's queue peak
    // and the stop.
    let report = assemble(
        merged.tasks,
        link_counters,
        RunOutcome {
            cfg: &sim,
            link_dim: &shared.link_dim,
            d: topo.d(),
            num_classes: num_priorities,
            slots_run,
            stable: stop != Some(Stop::Unstable),
            completed: stop == Some(Stop::Completed),
            peak_queue_total: shared.peak.load(Ordering::Acquire),
            queue_trace,
            faults: merged.faults,
            arq: sim.arq.map(|_| &merged.arq),
            flow: &merged.flow,
        },
    );
    Ok(NetReport {
        report,
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
    use pstar_topology::{LinkId, Torus};

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
        assert!(p.workers.iter().all(|wp| wp.barrier_wait_ns[1] == 0));
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

    /// Every worker samples the queue trace over its own links, after its
    /// fault tick: the traces add up to the engine's, under a fault plan
    /// too.
    #[test]
    fn worker_queue_traces_add_up_to_the_engines() {
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec {
            rho: 0.7,
            ..ScenarioSpec::default()
        };
        let sim = SimConfig {
            trace_interval: Some(7),
            lengths: spec.lengths,
            ..SimConfig::quick(9)
        };
        let plan = || FaultPlan::link_outage_window(&[LinkId(3), LinkId(20)], 2_500, 4_000);
        let policy = DeadLinkPolicy::Requeue;
        let (scheme, mix) = (spec.build_scheme(&topo), spec.mix(&topo));
        let serial = pstar_sim::run_with_faults(&topo, &scheme, mix, sim, plan(), policy);
        assert!(serial.queue_trace.len() > 1_000);
        for workers in [2, 3] {
            let cfg = NetConfig {
                workers,
                ..NetConfig::new(sim)
            };
            let net = run_net_with_faults(&topo, &scheme, mix, cfg, plan(), policy);
            let report = net.expect("run_net failed").report;
            assert_eq!(report.first_difference(&serial), None, "W={workers}");
        }
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

    /// Every buffer of a stepped fleet — outboxes, pending control, the
    /// slot's list of acked tasks, inboxes, both parities of every
    /// mailbox, the forward scratch — as `(address, capacity in bytes)`,
    /// sorted: hand-overs move buffers between owners, so the multiset
    /// is what stays put. Per-task state — the slabs and the reception
    /// counts indexed by task handle — grows with the homes' slabs
    /// and is not part of it.
    fn fleet_buffers<SS: Scheme>(
        shared: &Shared,
        fleet: &[Clock<SS, Worker<'_>>],
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
        for clock in fleet {
            let worker = &clock.transport;
            all.push(of(clock.hop.emit_scratch()));
            all.extend(worker.books.pending.iter().map(of));
            all.push(of(&worker.books.acked));
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
    /// the fleet's clocks stepped on one thread in the order the
    /// rendezvous enforces (every send and decision, then every process),
    /// after the warm-up the outboxes, inject arenas, mailbox batches and
    /// the forward scratch are the same allocations at the same capacities
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
        let mut shared = Shared::new(&topo, 2, &cfg.sim).unwrap();
        // One thread steps the fleet, so every rendezvous is a party of
        // one: each worker's decision combines the same published gauges.
        shared.barrier = SlotBarrier::new(1);
        let shared = &shared;
        let mut fleet: Vec<_> = (0..2)
            .map(|id| {
                let links = shared.link_lo[id]..shared.link_lo[id + 1];
                let worker = Worker::new(id, &topo, shared, &cfg);
                Clock::new(
                    &topo,
                    &scheme,
                    spec.mix(&topo),
                    &cfg.sim,
                    links,
                    id == 0,
                    worker,
                )
                .unwrap()
            })
            .collect();
        let step = |fleet: &mut Vec<Clock<_, Worker<'_>>>| {
            for clock in fleet.iter_mut() {
                assert!(clock.open(&topo, true).is_continue(), "the slot runs");
            }
            let mut crossed = [0usize; 3];
            for parity in &shared.mail {
                for mb in parity {
                    let counts = mb.peek(|b| [b.ctrl.len(), b.data.len(), b.inject.emits.len()]);
                    for (sum, c) in crossed.iter_mut().zip(counts) {
                        *sum += c;
                    }
                }
            }
            for clock in fleet.iter_mut() {
                clock.close(&topo);
            }
            crossed
        };
        for _ in 0..WARM {
            step(&mut fleet);
        }
        let warm = fleet_buffers(shared, &fleet);
        let emit_buf: Vec<_> = fleet
            .iter()
            .map(|c| c.hop.emit_scratch().as_ptr())
            .collect();
        let mut crossed = [0usize; 3];
        for _ in 0..100 {
            for (sum, c) in crossed.iter_mut().zip(step(&mut fleet)) {
                *sum += c;
            }
        }
        assert!(crossed.iter().all(|&c| c > 100), "idle share: {crossed:?}");
        assert_eq!(fleet_buffers(shared, &fleet), warm);
        for (clock, ptr) in fleet.iter().zip(emit_buf) {
            assert_eq!(clock.hop.emit_scratch().as_ptr(), ptr);
            assert_eq!(clock.hop.emit_scratch().capacity(), 64);
        }
        let sent: u64 = fleet
            .iter()
            .map(|c| c.transport.books.stats.messages_sent)
            .sum();
        assert!(sent > 0 && fleet.iter().all(|c| c.transport.uncommitted_sent == 0));
    }

    /// Books of worker `id` of `shared`'s fleet, over a 4×4 torus.
    fn books(shared: &Shared, id: usize) -> Books<'_> {
        Books {
            id,
            shared,
            stats: WorkerStats::new(&shared.sim, 16, 4),
            tasks: TaskTable::new(),
            pending: (0..shared.workers).map(|_| Vec::new()).collect(),
            acks: Vec::new(),
            acked: Vec::new(),
        }
    }

    /// A task opened at slot `t`: a broadcast from node 0, or a unicast
    /// to node 9.
    fn opened(books: &mut Books<'_>, t: u64, broadcast: bool) -> u32 {
        let msg = InjectMsg {
            src: NodeId(0),
            dest: (!broadcast).then_some(NodeId(9)),
            gen_time: t,
            len: 1,
            measured: true,
            emits: 0..1,
        };
        books.open(t, &msg)
    }

    /// A slot's receptions of one task at one home travel as one `Ack`
    /// with their count; another slot, another home or another task
    /// takes a message of its own, and only a new message counts.
    #[test]
    fn acks_coalesce_per_task_slot_and_home() {
        let topo = Torus::new(&[4, 4]);
        let shared = Shared::new(&topo, 3, &SimConfig::quick(1)).unwrap();
        let ack = |task, slot, count| CtrlMsg::Ack { task, slot, count };
        // Three workers: a handle is `slab slot << 2 | home`.
        let (a, b, c) = (5 << 2 | 1, 5 << 2 | 2, 6 << 2 | 1);
        let mut books = books(&shared, 0);
        for _ in 0..4 {
            books.ack(7, a);
        }
        books.ack(7, b);
        books.ack(7, c);
        books.ack(7, a);
        assert_eq!(books.stats.messages_sent, 3);
        books.seal_acks(7);
        assert_eq!(books.pending[1], [ack(a, 7, 5), ack(c, 7, 1)]);
        assert_eq!(books.pending[2], [ack(b, 7, 1)]);
        let sealed = std::mem::take(&mut books.pending[1]);
        books.ack(8, a);
        books.ack(8, a);
        books.seal_acks(8);
        assert_eq!(books.pending[1], [ack(a, 8, 2)], "another slot");
        assert_eq!(sealed, [ack(a, 7, 5), ack(c, 7, 1)]);
        assert_eq!(books.stats.messages_sent, 4);
    }

    /// A home applies a coalesced `Ack` as the receptions it counts:
    /// the ledger and the slab end up as after one `Ack` per reception.
    /// Handles carry the home, and a completed task's slot is reused.
    #[test]
    fn a_coalesced_ack_settles_like_its_receptions() {
        let topo = Torus::new(&[4, 4]);
        let sim = SimConfig::quick(1);
        let shared = Shared::new(&topo, 2, &sim).unwrap();
        let t = sim.warmup_slots;
        let (mut once, mut each) = (books(&shared, 1), books(&shared, 1));
        let task = opened(&mut once, t, true);
        assert_eq!(opened(&mut each, t, true), task);
        assert_eq!((once.home_of(task), once.index_of(task)), (1, 0));
        once.apply(CtrlMsg::Ack {
            task,
            slot: t + 3,
            count: 14,
        });
        for _ in 0..14 {
            each.apply(CtrlMsg::Ack {
                task,
                slot: t + 3,
                count: 1,
            });
        }
        assert_eq!(format!("{:?}", once.tasks), format!("{:?}", each.tasks));
        for books in [&mut once, &mut each] {
            books.apply(CtrlMsg::Ack {
                task,
                slot: t + 5,
                count: 1,
            });
            assert_eq!(books.tasks.active(), 0, "15 receptions complete it");
        }
        assert_eq!(
            format!("{:?}", once.stats.tasks),
            format!("{:?}", each.stats.tasks)
        );
        assert_eq!(opened(&mut once, t, false), task, "the slot is reused");
    }

    /// A settlement or a retransmission mark addressed to a task that
    /// has completed — its slab slot free — panics in a debug build.
    #[test]
    fn a_stale_handle_panics_in_debug_builds() {
        let topo = Torus::new(&[4, 4]);
        let sim = SimConfig::quick(1);
        let shared = Shared::new(&topo, 2, &sim).unwrap();
        let stale = [
            CtrlMsg::Ack {
                task: 0,
                slot: 1,
                count: 1,
            },
            CtrlMsg::Lost {
                task: 0,
                receptions: 1,
                fault: false,
                slot: 1,
            },
            CtrlMsg::MarkRetx { task: 0 },
        ];
        for msg in stale {
            let mut home = books(&shared, 0);
            let task = opened(&mut home, 0, false);
            home.ack(1, task);
            assert_eq!(home.tasks.active(), 0, "the unicast completed");
            let outcome = catch_unwind(AssertUnwindSafe(|| home.apply(msg)));
            assert_eq!(outcome.is_err(), cfg!(debug_assertions), "{msg:?}");
        }
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
        shared.decide(4_096);
        assert_eq!(
            shared.stop.load(Ordering::Relaxed),
            stop_code(Stop::Completed)
        );
        // With a measured task outstanding the same slot is unstable.
        let shared = Shared::new(&topo, 2, &sim).unwrap();
        shared.gauges[0].outstanding.store(1, Ordering::Relaxed);
        shared.gauges[1].unstable.store(true, Ordering::Relaxed);
        shared.decide(4_096);
        assert_eq!(
            shared.stop.load(Ordering::Relaxed),
            stop_code(Stop::Unstable)
        );
    }

    #[test]
    fn shared_words_have_cache_lines_of_their_own() {
        use std::mem::{align_of, size_of};
        assert!(align_of::<Padded<AtomicBool>>() >= 128);
        assert!(align_of::<Padded<AtomicU64>>() >= 128);
        assert!(align_of::<GaugeLine>() >= 128);
        assert!(align_of::<Padded<AtomicI64>>() >= 128);
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
