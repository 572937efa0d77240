//! Per-worker measurement state.
//!
//! Each worker accumulates its own [`WorkerStats`] with zero sharing
//! during the run; after the last slot the runtime merges them **in
//! worker order** (deterministic) and hands the merged counters to
//! `pstar_sim::assemble` — the same report assembler the simulator's
//! engines finish through, so normalization (realized measurement
//! window, per-link busy fractions, per-dimension averages) cannot
//! drift. Counters live at well-defined sites so no event is double
//! counted across workers:
//!
//! * **creation site** (the worker that injects a task): measured-task
//!   counts, admission rejections, concurrency `+1`;
//! * **delivery site** (the worker owning the receiving node): reception
//!   delay/histograms/tails, ARQ ack bookkeeping;
//! * **loss site** (the worker owning the full or dropping link):
//!   dropped/evicted/lost counters;
//! * **home site** (the worker owning the task's completion record):
//!   broadcast/unicast delay, damaged counts, concurrency `-1`.
//!
//! Because task records live at per-task home workers rather than in
//! one table, the workers record reception delays through
//! [`TaskLedger::measured_reception`] and write the ledger's public
//! counters directly instead of going through its task-table methods;
//! the batch-means accumulator is therefore never fed and
//! `reception_ci_batch` comes out `None` (it needs a single serial
//! reception stream).

use pstar_sim::{ArqCounters, FlowCounters, SimConfig, TaskLedger};
use pstar_stats::Moments;

/// One worker's private measurement accumulator.
#[derive(Debug)]
pub(crate) struct WorkerStats {
    /// Task-level counters (creation / delivery / loss / home sites).
    pub tasks: TaskLedger,
    /// ARQ counters (losing / retransmitting worker; all zero with ARQ
    /// off), taken from the worker's `pstar_sim::Arq` when it finishes.
    pub arq: ArqCounters,
    /// Admission rejections (creation site), evictions (loss site) and
    /// the window-bounded occupancy sum.
    pub flow: FlowCounters,
    /// Time-to-recovery samples of this worker's owned links (tracker
    /// watch lists are disjoint by link ownership, so merging samples
    /// suffices).
    pub fault_recovery: Moments,
    /// Fault-plan events applied (worker 0 only; it owns the clock).
    pub fault_events_applied: u64,
    /// Slots with ≥1 active fault (worker 0 only).
    pub fault_slots: u64,
    /// Cross-worker messages sent (runtime accounting).
    pub messages_sent: u64,
}

impl WorkerStats {
    pub fn new(cfg: &SimConfig, node_count: u32, diameter: u32) -> Self {
        Self {
            tasks: TaskLedger::new(cfg, node_count, diameter),
            arq: ArqCounters::default(),
            flow: FlowCounters::default(),
            fault_recovery: Moments::new(),
            fault_events_applied: 0,
            fault_slots: 0,
            messages_sent: 0,
        }
    }

    /// Folds `other` into `self`. Worker order is fixed by the caller,
    /// so the merged moments are deterministic for a given worker count.
    pub fn merge(&mut self, other: &Self) {
        self.tasks.merge(&other.tasks);
        self.arq.merge(&other.arq);
        self.flow.merge(&other.flow);
        self.fault_recovery.merge(&other.fault_recovery);
        self.fault_events_applied += other.fault_events_applied;
        self.fault_slots += other.fault_slots;
        self.messages_sent += other.messages_sent;
    }
}
