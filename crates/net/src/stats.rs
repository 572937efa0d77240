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

use pstar_sim::{ArqCounters, FaultTotals, FlowCounters, SimConfig, TaskLedger};

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
    /// What this worker's replica of the fault clock totalled
    /// (`pstar_sim::FaultClock::finish`); `None` on fault-free runs.
    pub faults: Option<FaultTotals>,
    /// Cross-worker messages sent (runtime accounting).
    pub messages_sent: u64,
}

impl WorkerStats {
    pub fn new(cfg: &SimConfig, node_count: u32, diameter: u32) -> Self {
        Self {
            tasks: TaskLedger::new(cfg, node_count, diameter),
            arq: ArqCounters::default(),
            flow: FlowCounters::default(),
            faults: None,
            messages_sent: 0,
        }
    }

    /// Folds `other` into `self`. Worker order is fixed by the caller,
    /// so the merged moments are deterministic for a given worker count.
    pub fn merge(&mut self, other: &Self) {
        self.tasks.merge(&other.tasks);
        self.arq.merge(&other.arq);
        self.flow.merge(&other.flow);
        // Every replica counts the same events and fault slots, so the
        // first worker's stand — never a sum; only the time-to-recovery
        // samples are per owned link (watch lists are disjoint by link
        // ownership) and fold in.
        if let (Some(mine), Some(theirs)) = (&mut self.faults, &other.faults) {
            mine.recovery_time.merge(&theirs.recovery_time);
        }
        self.messages_sent += other.messages_sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstar_stats::Moments;

    /// Every worker's replica of the fault clock counts the same events
    /// and fault slots: the merged totals are one replica's, never a
    /// sum, and only the per-link recovery samples fold in.
    #[test]
    fn fault_totals_are_one_replicas_and_recovery_samples_fold_in() {
        let cfg = SimConfig::quick(1);
        let worker = |sample: f64| {
            let mut stats = WorkerStats::new(&cfg, 16, 4);
            let mut recovery_time = Moments::new();
            recovery_time.push(sample);
            stats.faults = Some(FaultTotals {
                events_applied: 6,
                fault_slots: 250,
                recovery_time,
            });
            stats
        };
        let mut merged = worker(10.0);
        merged.merge(&worker(20.0));
        merged.merge(&worker(60.0));
        let totals = merged.faults.expect("a faulted run");
        assert_eq!((totals.events_applied, totals.fault_slots), (6, 250));
        assert_eq!(totals.recovery_time.count(), 3);
        assert_eq!(totals.recovery_time.mean(), 30.0);
    }
}
