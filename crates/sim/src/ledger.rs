//! The accounting ledger: how a run is counted and how the counters
//! become a [`SimReport`] — written once for the serial [`crate::Engine`],
//! the [`crate::ShardedEngine`] and the `pstar-net` runtime.
//!
//! * [`TaskLedger`] owns everything read off task generation, reception,
//!   completion and loss. Its rules are split by the *site* an event is
//!   seen at — creation ([`TaskLedger::opened`]), delivery
//!   ([`TaskLedger::measured_reception`]), loss
//!   ([`TaskLedger::packet_dropped`], [`TaskLedger::lost`]) and the
//!   task's home ([`TaskLedger::completed`], fed the [`TaskSlot`] a
//!   [`TaskSlot::receive`] / [`TaskSlot::lose`] just completed). The
//!   serial engine and the sharded coordinator see every site at once
//!   and go through the composed [`TaskLedger::open_task`] /
//!   [`TaskLedger::reception`] / [`TaskLedger::unicast_done`] /
//!   [`TaskLedger::settle`] over the ledger's own task table;
//!   `pstar-net` keeps a task's record at its home worker, calls each
//!   rule at the worker that sees the site, and merges one ledger per
//!   worker.
//! * [`LinkCounters`] owns everything per link: waits, busy slots,
//!   transmission counts. Every backend calls
//!   [`LinkCounters::service_start`] where a link starts a transmission.
//! * [`assemble`] is the only place the counters are normalized into a
//!   report.
//!
//! Every statistic is a sum of integers (or a maximum, or a flag that
//! only ever turns on), so accounting is **order-free**: the events of a
//! run may be applied in any order, split over any number of ledgers,
//! and merged in any order, and [`assemble`] returns the same report bit
//! for bit (proptested in `crates/sim/tests/order_free.rs`). The definitions
//! that make it so:
//!
//! 1. *Delays, waits, recovery times* are whole slots, accumulated as
//!    [`IntMoments`] (count, sum, sum of squares, extremes).
//! 2. *Concurrent tasks* ([`TimeWeighted`]) integrate `+1` at the slot a
//!    task is injected and `−1` at the slot of its last settlement
//!    ([`TaskSlot::last`]), wherever and whenever that is learnt of.
//! 3. *Batch means* put a measured reception in the slice of the
//!    measurement window its task was generated in ([`BatchMeans`]).
//! 4. *Queue population* — its peak, its window sum — is sampled once a
//!    slot, after the slot's enqueues and before its service starts.
//! 5. *A fault-damaged broadcast* is a measured damaged broadcast with
//!    at least one reception lost to a dead link
//!    ([`TaskSlot::fault_lost`]), whichever loss came last.
//!
//! The event engine deliberately does not use this module: it is the
//! independently written oracle the step engine is validated against.

use crate::config::SimConfig;
use crate::faultepoch::LossCause;
use crate::metrics::{
    ClassStats, FaultReport, FlowReport, HopPhase, RecoveryReport, SimReport, TailQuantiles,
    TailReport,
};
use crate::packet::{Packet, PacketKind, MAX_PRIORITY_CLASSES};
use crate::scheme::Scheme;
use crate::task::{TaskKind, TaskSlot, TaskTable};
use pstar_stats::{BatchMeans, Histogram, IntMoments, LogHistogram, TimeWeighted};

/// Tail-latency instrumentation carried by a backend with
/// [`SimConfig::tails`] set: log-bucketed reception-delay and hop-wait
/// histograms (`pstar_stats::LogHistogram`, full `u64` range — no
/// overflow clamp, unlike the linear reception histogram).
///
/// Kept behind an `Option` so the disabled path pays exactly one
/// never-taken branch per record site, and the recorders never touch
/// the RNG: a run with tails on is bit-identical to one without, apart
/// from [`SimReport::tails`] itself (pinned by `tests/tails.rs`).
#[derive(Debug)]
pub struct TailsState {
    /// Flat per-class counts for reception delays below
    /// [`FLAT_COUNT_LIMIT`] — the reception fast path.
    small_reception: Vec<[u32; MAX_PRIORITY_CLASSES]>,
    /// Reception delays at or above the flat-array limit (rare).
    reception_overflow: [LogHistogram; MAX_PRIORITY_CLASSES],
    /// Flat per-phase counts for hop waits below [`FLAT_COUNT_LIMIT`]
    /// (column = `HopPhase` value) — the service-start fast path.
    small_wait: Vec<[u32; 3]>,
    /// Hop waits at or above the flat-array limit (rare), by phase.
    wait_overflow: [LogHistogram; 3],
    /// Flat counts for service times (packet lengths) below
    /// [`FLAT_COUNT_LIMIT`]; lengths are tiny, so overflow is unheard of.
    small_service: Vec<u32>,
    /// Service times at or above the flat-array limit.
    service_overflow: LogHistogram,
}

/// Values below this take the flat-count fast path.
///
/// Receptions and service starts are the simulator's highest-frequency
/// events (~163 each per slot on an 8×8 at ρ = 0.7), and full per-event
/// `LogHistogram::record`s on those paths measurably slow the engine
/// (~10–15% each, dominated by the chain of dependent loads into the
/// boxed histograms). Small values — all of them, in any stable run —
/// instead bump one flat `u32` counter, and the counts are folded into
/// the histograms once at report time via [`LogHistogram::record_n`].
/// The fold is value-exact and histograms are order-independent, so the
/// resulting report is identical to what per-event recording would have
/// produced.
const FLAT_COUNT_LIMIT: usize = 4096;

impl TailsState {
    /// An empty recorder (boxed: it is ~130 KiB of flat counters).
    pub fn new() -> Box<Self> {
        Box::new(Self {
            small_reception: vec![[0; MAX_PRIORITY_CLASSES]; FLAT_COUNT_LIMIT],
            reception_overflow: std::array::from_fn(|_| LogHistogram::new()),
            small_wait: vec![[0; 3]; FLAT_COUNT_LIMIT],
            wait_overflow: std::array::from_fn(|_| LogHistogram::new()),
            small_service: vec![0; FLAT_COUNT_LIMIT],
            service_overflow: LogHistogram::new(),
        })
    }

    /// Records an in-window service start: wait decomposed by path
    /// phase (the packet's ending dimension is its last rotation phase,
    /// `d - 1`), plus the service time.
    #[inline]
    pub fn record_service(&mut self, pkt: &Packet, wait: u64, d: usize) {
        let phase = match pkt.kind {
            PacketKind::Broadcast(state) => {
                if state.phase as usize == d - 1 {
                    HopPhase::Ending
                } else {
                    HopPhase::Trunk
                }
            }
            PacketKind::Unicast { .. } => HopPhase::Unicast,
        };
        match self.small_wait.get_mut(wait as usize) {
            Some(row) => row[phase as usize] += 1,
            None => self.wait_overflow[phase as usize].record(wait),
        }
        let len = pkt.len as u64;
        match self.small_service.get_mut(len as usize) {
            Some(n) => *n += 1,
            None => self.service_overflow.record(len),
        }
    }

    /// Records a measured reception delay under the delivering class.
    #[inline]
    pub fn record_reception(&mut self, class: u8, delay: u64) {
        // Rows are `[count; class]` per delay value, so the common case
        // is one indexed increment; `get_mut` doubles as the range test.
        match self.small_reception.get_mut(delay as usize) {
            Some(row) => row[class as usize] += 1,
            None => self.reception_overflow[class as usize].record(delay),
        }
    }

    /// One class's reception histogram: the flat small-delay counts
    /// folded (value-exactly) over the overflow records.
    fn class_reception_hist(&self, class: usize) -> LogHistogram {
        let mut h = self.reception_overflow[class].clone();
        for (delay, row) in self.small_reception.iter().enumerate() {
            if row[class] > 0 {
                h.record_n(delay as u64, u64::from(row[class]));
            }
        }
        h
    }

    /// One phase's hop-wait histogram, folded the same way.
    fn phase_wait_hist(&self, phase: usize) -> LogHistogram {
        let mut h = self.wait_overflow[phase].clone();
        for (wait, row) in self.small_wait.iter().enumerate() {
            if row[phase] > 0 {
                h.record_n(wait as u64, u64::from(row[phase]));
            }
        }
        h
    }

    /// Folds another recorder's counts into this one. Value-exact:
    /// flat arrays add element-wise and overflow histograms merge
    /// bucket-wise, so report quantiles are independent of how events
    /// were partitioned across recorders (per shard, per worker, or
    /// reception side vs service side).
    pub fn merge_from(&mut self, other: &TailsState) {
        for (row, src) in self.small_reception.iter_mut().zip(&other.small_reception) {
            for (a, b) in row.iter_mut().zip(src) {
                *a += *b;
            }
        }
        for (h, o) in self
            .reception_overflow
            .iter_mut()
            .zip(&other.reception_overflow)
        {
            h.merge(o);
        }
        for (row, src) in self.small_wait.iter_mut().zip(&other.small_wait) {
            for (a, b) in row.iter_mut().zip(src) {
                *a += *b;
            }
        }
        for (h, o) in self.wait_overflow.iter_mut().zip(&other.wait_overflow) {
            h.merge(o);
        }
        for (a, b) in self.small_service.iter_mut().zip(&other.small_service) {
            *a += *b;
        }
        self.service_overflow.merge(&other.service_overflow);
    }

    pub(crate) fn report(&self) -> TailReport {
        let by_class: Vec<LogHistogram> = (0..MAX_PRIORITY_CLASSES)
            .map(|c| self.class_reception_hist(c))
            .collect();
        let mut all = LogHistogram::new();
        for h in &by_class {
            all.merge(h);
        }
        let hop_wait: [LogHistogram; 3] = std::array::from_fn(|i| self.phase_wait_hist(i));
        let mut service = self.service_overflow.clone();
        for (len, &n) in self.small_service.iter().enumerate() {
            if n > 0 {
                service.record_n(len as u64, u64::from(n));
            }
        }
        TailReport {
            enabled: true,
            reception_by_class: by_class.iter().map(TailQuantiles::from_hist).collect(),
            reception_all: TailQuantiles::from_hist(&all),
            reception_cdf: all.cdf_points(),
            hop_wait: std::array::from_fn(|i| TailQuantiles::from_hist(&hop_wait[i])),
            hop_wait_cdf: std::array::from_fn(|i| hop_wait[i].cdf_points()),
            service: TailQuantiles::from_hist(&service),
        }
    }
}

/// Merges `other`'s recorder into `own` when both are installed (they
/// always are together: both follow [`SimConfig::tails`]).
fn merge_tails(own: &mut Option<Box<TailsState>>, other: &Option<Box<TailsState>>) {
    if let (Some(a), Some(b)) = (own.as_deref_mut(), other.as_deref()) {
        a.merge_from(b);
    }
}

/// `(is_broadcast, receptions)` a lost copy was still responsible for —
/// what [`TaskLedger::lost`] and [`TaskSlot::lose`] are told. Must be
/// evaluated against the scheme state *at the loss* (degraded-mode
/// subtrees differ).
pub fn receptions_at_stake<S: Scheme>(scheme: &S, pkt: &Packet) -> (bool, u32) {
    match pkt.kind {
        PacketKind::Broadcast(state) => {
            let lost = scheme.subtree_receptions(&state);
            debug_assert!(lost >= 1);
            (true, lost)
        }
        PacketKind::Unicast { .. } => (false, 1),
    }
}

/// Task-level accounting: every statistic read off task generation,
/// reception, completion and loss (see the module docs for the site
/// rules and why their order does not matter).
#[derive(Debug)]
pub struct TaskLedger {
    /// The tasks in progress of a driver that keeps them all in one
    /// place (the composed methods); empty under `pstar-net`.
    tasks: TaskTable,
    /// Receptions of measured tasks opened by this ledger, less those it
    /// saw delivered or lost for good: non-negative where one ledger
    /// sees everything, any sign per `pstar-net` worker, and the number
    /// still due once summed. Counted in receptions, not tasks, because
    /// a reception's fate is known where and when it happens — a task's
    /// completion only at its home, once the notice has travelled.
    outstanding_measured: i64,
    /// Receptions that complete a broadcast (`N − 1`).
    receivers: u32,
    /// Broadcast tasks tagged for measurement.
    measured_broadcasts: u64,
    /// Unicast tasks tagged for measurement.
    measured_unicasts: u64,
    /// Generation → reception delay of measured broadcast receptions.
    reception_delay: IntMoments,
    /// Linear histogram of the same delays (p50/p95/p99).
    reception_hist: Histogram,
    /// The same delays by the window slice their task was generated in.
    reception_batch: BatchMeans,
    /// Reception delay by hop distance from the source (empty unless
    /// [`SimConfig::profile_by_distance`]).
    delay_by_distance: Vec<IntMoments>,
    /// Reception-side tail recorder.
    tails: Option<Box<TailsState>>,
    /// Generation → last reception of undamaged measured broadcasts.
    broadcast_delay: IntMoments,
    /// Generation → delivery of measured unicasts.
    unicast_delay: IntMoments,
    /// Completion delay of measured tasks that needed a retransmission.
    recovered_task_delay: IntMoments,
    /// Packets taken out of circulation (failed retries excluded).
    dropped_packets: u64,
    /// Subset of `dropped_packets` lost to dead links.
    fault_dropped: u64,
    /// Measured receptions that will never happen.
    lost_receptions: u64,
    /// Measured unicasts lost before delivery.
    dropped_unicasts: u64,
    /// Measured broadcasts that completed with at least one loss.
    damaged_broadcasts: u64,
    /// Subset of `damaged_broadcasts` with a reception lost to a fault.
    fault_damaged: u64,
    /// Broadcast tasks in progress over the measurement window.
    concurrent_bcast: TimeWeighted,
    /// Unicast tasks in progress over the measurement window.
    concurrent_ucast: TimeWeighted,
}

impl TaskLedger {
    /// An empty ledger for a network of `node_count` nodes.
    pub fn new(cfg: &SimConfig, node_count: u32, diameter: u32) -> Self {
        let window = TimeWeighted::new(cfg.warmup_slots, cfg.measure_end());
        Self {
            tasks: TaskTable::new(),
            outstanding_measured: 0,
            receivers: node_count - 1,
            measured_broadcasts: 0,
            measured_unicasts: 0,
            reception_delay: IntMoments::new(),
            reception_hist: Histogram::new(cfg.delay_histogram_cap),
            reception_batch: BatchMeans::new(cfg.warmup_slots, cfg.measure_slots),
            delay_by_distance: if cfg.profile_by_distance {
                vec![IntMoments::new(); diameter as usize + 1]
            } else {
                Vec::new()
            },
            tails: cfg.tails.then(TailsState::new),
            broadcast_delay: IntMoments::new(),
            unicast_delay: IntMoments::new(),
            recovered_task_delay: IntMoments::new(),
            dropped_packets: 0,
            fault_dropped: 0,
            lost_receptions: 0,
            dropped_unicasts: 0,
            damaged_broadcasts: 0,
            fault_damaged: 0,
            concurrent_bcast: window,
            concurrent_ucast: window,
        }
    }

    /// Measured receptions opened less those delivered or lost (summed
    /// over a run's ledgers: those still due — zero is the drain
    /// condition).
    #[inline]
    pub fn outstanding_measured(&self) -> i64 {
        self.outstanding_measured
    }

    /// `(active tasks, slab high-water mark)` of the task table.
    pub fn active_tasks(&self) -> (usize, usize) {
        (self.tasks.active(), self.tasks.capacity())
    }

    // -----------------------------------------------------------------
    // The rules, by site
    // -----------------------------------------------------------------

    /// Creation site: a task was injected at slot `t`.
    #[inline]
    pub fn opened(&mut self, t: u64, broadcast: bool, measured: bool) {
        if broadcast {
            self.measured_broadcasts += u64::from(measured);
            self.outstanding_measured += i64::from(measured) * i64::from(self.receivers);
            self.concurrent_bcast.add(t, 1);
        } else {
            self.measured_unicasts += u64::from(measured);
            self.outstanding_measured += i64::from(measured);
            self.concurrent_ucast.add(t, 1);
        }
    }

    /// Delivery site: one reception, at slot `t`, of a *measured*
    /// broadcast generated at `gen_time` (moments, histogram, batch
    /// means, by-distance profile, reception tails). `class` is the
    /// delivering packet's priority (tails only: which class pays which
    /// reception tail); `dist` is evaluated only when distance profiling
    /// wants it.
    #[inline]
    pub fn measured_reception(
        &mut self,
        gen_time: u64,
        t: u64,
        class: u8,
        dist: impl FnOnce() -> u32,
    ) {
        let delay = t - gen_time;
        self.outstanding_measured -= 1;
        if !self.delay_by_distance.is_empty() {
            self.delay_by_distance[dist() as usize].push(delay);
        }
        self.reception_delay.push(delay);
        self.reception_hist.record(delay);
        self.reception_batch.push(gen_time, delay);
        if let Some(tl) = self.tails.as_deref_mut() {
            tl.record_reception(class, delay);
        }
    }

    /// Loss site: a packet left circulation. A failed retry is not a new
    /// drop (no transmission happened).
    #[inline]
    pub fn packet_dropped(&mut self, cause: LossCause) {
        if cause != LossCause::Retry {
            self.dropped_packets += 1;
            if cause == LossCause::Fault {
                self.fault_dropped += 1;
            }
        }
    }

    /// Loss site: `receptions` of a task (see [`receptions_at_stake`])
    /// will never happen. Returns how many of them were measured.
    #[inline]
    pub fn lost(&mut self, measured: bool, broadcast: bool, receptions: u32) -> u64 {
        if !measured {
            return 0;
        }
        self.outstanding_measured -= i64::from(receptions);
        self.lost_receptions += u64::from(receptions);
        self.dropped_unicasts += u64::from(!broadcast);
        u64::from(receptions)
    }

    /// Home site: `slot`'s last outstanding reception was just settled
    /// ([`TaskSlot::receive`] / [`TaskSlot::lose`] returned `true`), at
    /// slot `slot.last`. Damaged tasks (some receptions lost) are
    /// excluded from the completion statistics — they never actually
    /// reached everyone. (A unicast's home is its delivery site: its
    /// one reception is counted as delivered here.)
    #[inline]
    pub fn completed(&mut self, slot: TaskSlot) {
        debug_assert_eq!(slot.remaining, 0, "completing an unsettled task");
        let broadcast = slot.kind == TaskKind::Broadcast;
        if slot.measured {
            if slot.lost == 0 {
                let delay = slot.last - slot.gen_time;
                if broadcast {
                    self.broadcast_delay.push(delay);
                } else {
                    self.unicast_delay.push(delay);
                    self.outstanding_measured -= 1;
                }
                if slot.retx {
                    self.recovered_task_delay.push(delay);
                }
            } else if broadcast {
                self.damaged_broadcasts += 1;
                self.fault_damaged += u64::from(slot.fault_lost);
            }
        }
        if broadcast {
            self.concurrent_bcast.add(slot.last, -1);
        } else {
            self.concurrent_ucast.add(slot.last, -1);
        }
    }

    // -----------------------------------------------------------------
    // The rules composed over one task table (the engines)
    // -----------------------------------------------------------------

    /// Registers a task generated at `gen_time` and injected at `t`
    /// (they differ only for backpressure-deferred tasks); returns its
    /// id.
    pub fn open_task(&mut self, t: u64, gen_time: u64, broadcast: bool, measured: bool) -> u32 {
        self.opened(t, broadcast, measured);
        self.tasks
            .insert(TaskSlot::new(gen_time, broadcast, self.receivers, measured))
    }

    /// One broadcast reception of `task` at slot `t` (`class`, `dist`:
    /// see [`TaskLedger::measured_reception`]).
    #[inline]
    pub fn reception(&mut self, t: u64, task: u32, class: u8, dist: impl FnOnce() -> u32) {
        let slot = self.tasks.get_mut(task);
        let done = slot.receive(t);
        let (gen_time, measured) = (slot.gen_time, slot.measured);
        if measured {
            self.measured_reception(gen_time, t, class, dist);
        }
        if done {
            self.complete(task);
        }
    }

    /// Unicast `task` reached its destination at slot `t`.
    #[inline]
    pub fn unicast_done(&mut self, t: u64, task: u32) {
        debug_assert_eq!(self.tasks.get(task).kind, TaskKind::Unicast);
        let done = self.tasks.get_mut(task).receive(t);
        debug_assert!(done);
        self.complete(task);
    }

    /// Takes the just-settled `task` out of the table and counts it.
    #[inline]
    fn complete(&mut self, task: u32) {
        let slot = self.tasks.remove(task);
        self.completed(slot);
    }

    /// A copy of `task` was scheduled for retransmission.
    #[inline]
    pub fn mark_retx(&mut self, task: u32) {
        self.tasks.get_mut(task).retx = true;
    }

    /// Settles a copy of `task` lost for good at slot `t`: `lost`
    /// receptions will never happen. Returns how many were measured.
    pub fn settle(&mut self, t: u64, task: u32, lost: u32, cause: LossCause) -> u64 {
        let slot = self.tasks.get_mut(task);
        let done = slot.lose(t, lost, cause == LossCause::Fault);
        let (measured, broadcast) = (slot.measured, slot.kind == TaskKind::Broadcast);
        if done {
            self.complete(task);
        }
        self.lost(measured, broadcast, lost)
    }

    /// Folds another ledger's counters into this one: exact, commutative
    /// and associative (the task tables are not merged — a merged ledger
    /// is for [`assemble`]).
    pub fn merge(&mut self, other: &Self) {
        self.outstanding_measured += other.outstanding_measured;
        self.measured_broadcasts += other.measured_broadcasts;
        self.measured_unicasts += other.measured_unicasts;
        self.reception_delay.merge(&other.reception_delay);
        self.reception_hist.merge(&other.reception_hist);
        self.reception_batch.merge(&other.reception_batch);
        for (a, b) in self
            .delay_by_distance
            .iter_mut()
            .zip(&other.delay_by_distance)
        {
            a.merge(b);
        }
        merge_tails(&mut self.tails, &other.tails);
        self.broadcast_delay.merge(&other.broadcast_delay);
        self.unicast_delay.merge(&other.unicast_delay);
        self.recovered_task_delay.merge(&other.recovered_task_delay);
        self.dropped_packets += other.dropped_packets;
        self.fault_dropped += other.fault_dropped;
        self.lost_receptions += other.lost_receptions;
        self.dropped_unicasts += other.dropped_unicasts;
        self.damaged_broadcasts += other.damaged_broadcasts;
        self.fault_damaged += other.fault_damaged;
        self.concurrent_bcast.merge(&other.concurrent_bcast);
        self.concurrent_ucast.merge(&other.concurrent_ucast);
    }
}

/// Link-level accounting: per-class waits and busy slots, per-link busy
/// slots, transmission counts. Covers the contiguous link range
/// `lo_link .. lo_link + n_links` (the whole network for the serial
/// engine and `pstar-net` workers, a shard's range for the sharded
/// engine); [`LinkCounters::merge`] is exact and order-free.
#[derive(Debug)]
pub struct LinkCounters {
    lo_link: usize,
    warmup_slots: u64,
    measure_end: u64,
    /// Topology dimension count (the tails' ending-phase test).
    d: usize,
    wait_by_class: [IntMoments; MAX_PRIORITY_CLASSES],
    wait_fault: [IntMoments; MAX_PRIORITY_CLASSES],
    busy_by_class: [u64; MAX_PRIORITY_CLASSES],
    busy_by_link: Vec<u64>,
    tx_by_vc: [u64; 4],
    window_transmissions: u64,
    tails: Option<Box<TailsState>>,
}

impl LinkCounters {
    /// Zeroed counters for links `lo_link .. lo_link + n_links` of a
    /// `d`-dimensional topology.
    pub fn new(cfg: &SimConfig, d: usize, lo_link: usize, n_links: usize) -> Self {
        Self {
            lo_link,
            warmup_slots: cfg.warmup_slots,
            measure_end: cfg.measure_end(),
            d,
            wait_by_class: [IntMoments::new(); MAX_PRIORITY_CLASSES],
            wait_fault: [IntMoments::new(); MAX_PRIORITY_CLASSES],
            busy_by_class: [0; MAX_PRIORITY_CLASSES],
            busy_by_link: vec![0; n_links],
            tx_by_vc: [0; 4],
            window_transmissions: 0,
            tails: cfg.tails.then(TailsState::new),
        }
    }

    /// Link `link` (an index into this range) starts transmitting `pkt`
    /// at slot `t`. `faulted` says whether any fault is live right now
    /// (feeds the fault-epoch waits). Window-gated statistics are
    /// recorded only for `t` inside the measurement window.
    #[inline]
    pub fn service_start(&mut self, link: usize, pkt: &Packet, t: u64, faulted: bool) {
        self.tx_by_vc[(pkt.vc as usize).min(3)] += 1;
        if t < self.warmup_slots || t >= self.measure_end {
            return;
        }
        let class = pkt.priority as usize;
        let wait = t - pkt.enqueue_time;
        self.wait_by_class[class].push(wait);
        if faulted {
            self.wait_fault[class].push(wait);
        }
        if let Some(tl) = self.tails.as_deref_mut() {
            tl.record_service(pkt, wait, self.d);
        }
        self.window_transmissions += 1;
        // Credit busy slots only for the part of the service that
        // overlaps the window, so utilizations stay exact estimates.
        let busy = (t + pkt.len as u64).min(self.measure_end) - t;
        self.busy_by_class[class] += busy;
        self.busy_by_link[link] += busy;
    }

    /// Folds `other` (a sub-range of this range, or the same range) in.
    pub fn merge(&mut self, other: &Self) {
        for k in 0..MAX_PRIORITY_CLASSES {
            self.wait_by_class[k].merge(&other.wait_by_class[k]);
            self.wait_fault[k].merge(&other.wait_fault[k]);
            self.busy_by_class[k] += other.busy_by_class[k];
        }
        let at = other.lo_link - self.lo_link;
        for (a, b) in self.busy_by_link[at..].iter_mut().zip(&other.busy_by_link) {
            *a += b;
        }
        for (a, b) in self.tx_by_vc.iter_mut().zip(&other.tx_by_vc) {
            *a += b;
        }
        self.window_transmissions += other.window_transmissions;
        merge_tails(&mut self.tails, &other.tails);
    }
}

/// How many attempt buckets the backoff histogram tracks (the last
/// bucket saturates).
pub const BACKOFF_HIST_BUCKETS: usize = 32;

/// ARQ recovery counters (mergeable across `pstar-net` workers).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArqCounters {
    /// Copies re-injected into a queue.
    pub retransmissions: u64,
    /// Backoff timers armed.
    pub timeouts_scheduled: u64,
    /// Timers armed per failed attempt number.
    pub backoff_hist: [u64; BACKOFF_HIST_BUCKETS],
    /// Receptions acknowledged over the control plane.
    pub acked_receptions: u64,
    /// Deliveries performed by a retransmitted copy.
    pub recovered_deliveries: u64,
    /// Copies that exhausted their retry budget.
    pub gave_up_copies: u64,
    /// Measured receptions lost to give-ups.
    pub gave_up_receptions: u64,
    /// Timers still armed when the run ended.
    pub pending_at_end: usize,
}

impl ArqCounters {
    /// A delivery was acknowledged; `attempt > 0` means a retransmitted
    /// copy made it.
    #[inline]
    pub fn acked(&mut self, attempt: u8) {
        self.acked_receptions += 1;
        if attempt > 0 {
            self.recovered_deliveries += 1;
        }
    }

    /// A backoff timer was armed after failed attempt number `attempt`.
    #[inline]
    pub fn timer_armed(&mut self, attempt: u32) {
        self.backoff_hist[(attempt as usize).min(BACKOFF_HIST_BUCKETS - 1)] += 1;
        self.timeouts_scheduled += 1;
    }

    /// Folds another worker's counters in.
    pub fn merge(&mut self, other: &Self) {
        self.retransmissions += other.retransmissions;
        self.timeouts_scheduled += other.timeouts_scheduled;
        for (a, b) in self.backoff_hist.iter_mut().zip(&other.backoff_hist) {
            *a += b;
        }
        self.acked_receptions += other.acked_receptions;
        self.recovered_deliveries += other.recovered_deliveries;
        self.gave_up_copies += other.gave_up_copies;
        self.gave_up_receptions += other.gave_up_receptions;
        self.pending_at_end += other.pending_at_end;
    }
}

/// Flow-control and occupancy counters (mergeable across `pstar-net`
/// workers).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowCounters {
    /// Measured broadcast arrivals rejected by admission control.
    pub rejected_broadcasts: u64,
    /// Measured unicast arrivals rejected by admission control.
    pub rejected_unicasts: u64,
    /// Measured injections deferred by source backpressure.
    pub deferred_injections: u64,
    /// Arrival → injection delay of those.
    pub defer_delay: IntMoments,
    /// Packets evicted by the drop-lowest-class policy.
    pub evicted: u64,
    /// Sum over window slots of the queued-packet population, sampled
    /// after arrivals and before service starts.
    pub occupancy_sum: u128,
}

impl FlowCounters {
    /// Folds another worker's counters in.
    pub fn merge(&mut self, other: &Self) {
        self.rejected_broadcasts += other.rejected_broadcasts;
        self.rejected_unicasts += other.rejected_unicasts;
        self.deferred_injections += other.deferred_injections;
        self.defer_delay.merge(&other.defer_delay);
        self.evicted += other.evicted;
        self.occupancy_sum += other.occupancy_sum;
    }
}

/// Fault-clock totals of a run that had a plan installed.
#[derive(Debug, Clone, Copy)]
pub struct FaultTotals {
    /// Plan events that took effect.
    pub events_applied: u64,
    /// Slots with at least one live fault.
    pub fault_slots: u64,
    /// Time-to-recovery samples of the repaired links the replica's
    /// kernel owns.
    pub recovery_time: IntMoments,
}

impl FaultTotals {
    /// Folds in the totals of another replica of the same plan, over
    /// other links: every replica counts the same events and fault
    /// slots, so those stand — never a sum; only the time-to-recovery
    /// samples are per owned link and add up.
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!(
            (self.events_applied, self.fault_slots),
            (other.events_applied, other.fault_slots),
            "replicas of one plan disagree"
        );
        self.recovery_time.merge(&other.recovery_time);
    }
}

/// What [`assemble`] needs beyond the ledger and the link counters:
/// how the run ended and the backend-specific inputs.
#[derive(Debug)]
pub struct RunOutcome<'a> {
    /// The run's configuration.
    pub cfg: &'a SimConfig,
    /// Dimension of each link (`Network::link_dim_table`).
    pub link_dim: &'a [u8],
    /// Topology dimension count.
    pub d: usize,
    /// The scheme's priority-class count.
    pub num_classes: usize,
    /// Slots simulated.
    pub slots_run: u64,
    /// The queue-blowup guards never tripped.
    pub stable: bool,
    /// Every measured task completed before the horizon.
    pub completed: bool,
    /// Largest queued-packet population of any slot, sampled after the
    /// slot's enqueues and before its service starts.
    pub peak_queue_total: i64,
    /// `(slot, queued packets)` samples.
    pub queue_trace: Vec<(u64, u64)>,
    /// `Some` when a fault plan was installed.
    pub faults: Option<FaultTotals>,
    /// `Some` when ARQ recovery was on.
    pub arq: Option<&'a ArqCounters>,
    /// Flow-control and occupancy counters.
    pub flow: &'a FlowCounters,
}

/// Turns a finished run's counters into its [`SimReport`] — the one
/// normalization rule every backend shares.
pub fn assemble(ledger: TaskLedger, links: LinkCounters, run: RunOutcome<'_>) -> SimReport {
    let cfg = run.cfg;
    // Normalize by the *realized* measurement window: a run cut short
    // by `max_slots` (overload bail-out) has measured fewer than
    // `measure_slots` slots, and dividing busy time by the configured
    // window would understate utilization. For completed runs
    // `slots_run >= measure_end()`, so this is exactly `measure_slots`.
    let realized = run
        .slots_run
        .min(cfg.measure_end())
        .saturating_sub(cfg.warmup_slots);
    let window = realized.max(1) as f64;
    let n_links = links.busy_by_link.len() as f64;
    let per_link: Vec<f64> = links
        .busy_by_link
        .iter()
        .map(|&b| b as f64 / window)
        .collect();
    let mean_util = per_link.iter().sum::<f64>() / n_links;
    let max_util = per_link.iter().fold(0.0f64, |m, &u| m.max(u));
    let mut per_dim = vec![0.0; run.d];
    let mut links_in_dim = vec![0u32; run.d];
    for (l, &u) in per_link.iter().enumerate() {
        let dim = run.link_dim[l] as usize;
        per_dim[dim] += u;
        links_in_dim[dim] += 1;
    }
    for i in 0..run.d {
        per_dim[i] /= links_in_dim[i] as f64;
    }
    let class = (0..run.num_classes)
        .map(|k| ClassStats {
            utilization: links.busy_by_class[k] as f64 / (window * n_links),
            wait: links.wait_by_class[k].summary(),
        })
        .collect();
    let fraction = |delivered: u64, offered: u64| {
        if offered == 0 {
            1.0
        } else {
            delivered as f64 / offered as f64
        }
    };
    let delivered = ledger.reception_delay.count() + ledger.unicast_delay.count();
    let offered = delivered + ledger.lost_receptions;
    let faults = match run.faults {
        Some(f) => FaultReport {
            events_applied: f.events_applied,
            delivered_reception_fraction: fraction(delivered, offered),
            fault_dropped_packets: ledger.fault_dropped,
            fault_damaged_broadcasts: ledger.fault_damaged,
            recovery_time: f.recovery_time.summary(),
            fault_slots: f.fault_slots,
            class_wait_fault: (0..run.num_classes)
                .map(|k| links.wait_fault[k].summary())
                .collect(),
        },
        None => FaultReport::default(),
    };
    let recovery = match run.arq {
        Some(arq) => RecoveryReport {
            enabled: true,
            retransmissions: arq.retransmissions,
            timeouts_scheduled: arq.timeouts_scheduled,
            backoff_histogram: arq.backoff_hist.to_vec(),
            acked_receptions: arq.acked_receptions,
            recovered_deliveries: arq.recovered_deliveries,
            gave_up_copies: arq.gave_up_copies,
            gave_up_receptions: arq.gave_up_receptions,
            recovered_task_delay: ledger.recovered_task_delay.summary(),
            pending_at_end: arq.pending_at_end,
        },
        None => RecoveryReport::default(),
    };
    let rejected_receptions =
        run.flow.rejected_broadcasts * u64::from(ledger.receivers) + run.flow.rejected_unicasts;
    let flow = FlowReport {
        rejected_broadcasts: run.flow.rejected_broadcasts,
        rejected_unicasts: run.flow.rejected_unicasts,
        deferred_injections: run.flow.deferred_injections,
        defer_delay: run.flow.defer_delay.summary(),
        evicted_packets: run.flow.evicted,
        mean_queued_packets: if realized == 0 {
            0.0
        } else {
            run.flow.occupancy_sum as f64 / realized as f64
        },
        goodput_fraction: fraction(delivered, offered + rejected_receptions),
    };
    let mut tails = ledger.tails;
    merge_tails(&mut tails, &links.tails);
    SimReport {
        stable: run.stable,
        completed: run.completed,
        slots_run: run.slots_run,
        measured_broadcasts: ledger.measured_broadcasts,
        measured_unicasts: ledger.measured_unicasts,
        reception_delay: ledger.reception_delay.summary(),
        reception_quantiles: (
            ledger.reception_hist.quantile(0.5),
            ledger.reception_hist.quantile(0.95),
            ledger.reception_hist.quantile(0.99),
        ),
        reception_ci_batch: ledger.reception_batch.ci95(),
        dropped_packets: ledger.dropped_packets,
        lost_receptions: ledger.lost_receptions,
        damaged_broadcasts: ledger.damaged_broadcasts,
        dropped_unicasts: ledger.dropped_unicasts,
        broadcast_delay: ledger.broadcast_delay.summary(),
        unicast_delay: ledger.unicast_delay.summary(),
        class,
        mean_link_utilization: mean_util,
        max_link_utilization: max_util,
        per_dim_utilization: per_dim,
        avg_concurrent_broadcasts: ledger.concurrent_bcast.average(run.slots_run),
        avg_concurrent_unicasts: ledger.concurrent_ucast.average(run.slots_run),
        peak_queue_total: run.peak_queue_total,
        window_transmissions: links.window_transmissions,
        vc_transmissions: links.tx_by_vc,
        delay_by_distance: ledger
            .delay_by_distance
            .iter()
            .map(|m| m.summary())
            .collect(),
        queue_trace: run.queue_trace,
        faults,
        recovery,
        flow,
        tails: tails.map_or_else(TailReport::default, |t| t.report()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node network: broadcasts complete after 3 receptions.
    fn ledger() -> TaskLedger {
        TaskLedger::new(&SimConfig::quick(1), 4, 2)
    }

    #[test]
    fn settle_on_the_last_outstanding_reception_damages_the_broadcast() {
        let mut l = ledger();
        let task = l.open_task(10, 10, true, true);
        assert_eq!(l.outstanding_measured(), 3);
        l.reception(11, task, 0, || 1);
        l.reception(12, task, 0, || 1);
        assert_eq!(l.outstanding_measured(), 1, "one reception still due");
        // The copy carrying the last reception is lost for good.
        l.packet_dropped(LossCause::Fault);
        assert_eq!(l.settle(13, task, 1, LossCause::Fault), 1);
        assert_eq!(l.outstanding_measured(), 0, "settled exactly once");
        assert_eq!(l.damaged_broadcasts, 1);
        assert_eq!(l.fault_damaged, 1);
        assert_eq!((l.dropped_packets, l.fault_dropped), (1, 1));
        assert_eq!(l.lost_receptions, 1);
        assert_eq!(l.reception_delay.count(), 2);
        assert_eq!(l.broadcast_delay.count(), 0, "a damaged task has no delay");
        assert_eq!(l.active_tasks().0, 0, "the task slot was recycled");
    }

    #[test]
    fn a_loss_before_the_last_reception_damages_at_completion() {
        let mut l = ledger();
        let task = l.open_task(0, 0, true, true);
        assert_eq!(l.settle(1, task, 2, LossCause::Overflow), 2);
        assert_eq!((l.damaged_broadcasts, l.outstanding_measured()), (0, 1));
        l.reception(2, task, 0, || 1);
        assert_eq!((l.damaged_broadcasts, l.outstanding_measured()), (1, 0));
        assert_eq!(l.fault_damaged, 0, "overflow losses are not fault damage");
        assert_eq!(l.broadcast_delay.count(), 0);
    }

    /// Fault damage is a property of the task, not of its last
    /// settlement: one reception lost to a dead link marks the broadcast,
    /// whether an overflow loss or a delivery completes it.
    #[test]
    fn one_fault_loss_marks_the_broadcast_whatever_completes_it() {
        let mut l = ledger();
        for completing_loss in [true, false] {
            let task = l.open_task(0, 0, true, true);
            l.settle(1, task, 1, LossCause::Fault);
            l.reception(2, task, 0, || 1);
            if completing_loss {
                l.settle(3, task, 1, LossCause::Overflow);
            } else {
                l.reception(3, task, 0, || 1);
            }
        }
        assert_eq!((l.damaged_broadcasts, l.fault_damaged), (2, 2));
        assert_eq!(l.outstanding_measured(), 0);
    }

    #[test]
    fn unmeasured_tasks_touch_only_the_gauges() {
        let mut l = ledger();
        let w = SimConfig::quick(1).warmup_slots;
        let b = l.open_task(w, w, true, false);
        let u = l.open_task(w, w, false, false);
        assert_eq!(l.outstanding_measured(), 0);
        l.unicast_done(w + 3, u);
        assert_eq!(l.settle(w + 4, b, 3, LossCause::Fault), 0);
        assert_eq!(l.measured_broadcasts + l.measured_unicasts, 0);
        assert_eq!(l.unicast_delay.count() + l.lost_receptions, 0);
        assert_eq!(l.damaged_broadcasts + l.fault_damaged, 0);
        assert_eq!(l.concurrent_bcast.average(w + 10), 0.4);
        assert_eq!(l.concurrent_ucast.average(w + 10), 0.3);
    }

    #[test]
    fn link_counters_gate_on_the_window_and_merge_by_range() {
        let cfg = SimConfig::quick(1);
        let (w, end) = (cfg.warmup_slots, cfg.measure_end());
        let pkt = |enqueue_time, len| Packet {
            task: 0,
            gen_time: 0,
            enqueue_time,
            len,
            priority: 1,
            vc: 2,
            attempt: 0,
            kind: PacketKind::Unicast {
                dest: pstar_topology::NodeId(0),
            },
        };
        let mut whole = LinkCounters::new(&cfg, 2, 0, 6);
        let mut hi = LinkCounters::new(&cfg, 2, 4, 2);
        whole.service_start(0, &pkt(w - 5, 1), w - 1, false); // before the window
        whole.service_start(0, &pkt(w - 5, 1), w, true);
        hi.service_start(1, &pkt(end - 3, 4), end - 1, false); // service straddles the end
        hi.service_start(1, &pkt(end - 3, 1), end, false); // after the window
        whole.merge(&hi);
        assert_eq!(whole.tx_by_vc, [0, 0, 4, 0], "counted over the whole run");
        assert_eq!(whole.window_transmissions, 2);
        assert_eq!(
            whole.busy_by_link,
            [1, 0, 0, 0, 0, 1],
            "clipped at the window end"
        );
        assert_eq!(whole.busy_by_class[1], 2);
        let waits = whole.wait_by_class[1].summary();
        assert_eq!((waits.count, waits.min, waits.max), (2, 2.0, 5.0));
        assert_eq!(whole.wait_fault[1].count(), 1);
    }
}
