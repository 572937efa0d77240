//! Per-worker measurement state.
//!
//! Each worker accumulates its own [`WorkerStats`] with zero sharing
//! during the run; after the last slot the runtime merges them and hands
//! the merged counters to `pstar_sim::assemble` — the same report
//! assembler the simulator's engines finish through, so normalization
//! (realized measurement window, per-link busy fractions, per-dimension
//! averages) cannot drift. Every counter is an exact integer sum
//! (`pstar_sim::TaskLedger`'s order-free definitions), so neither the
//! order the workers saw their events in nor the order they merge in
//! reaches the report. Counters live at well-defined sites so no event
//! is double counted across workers, and each site calls the ledger
//! rule the simulator's engines call — the delivery and loss sites
//! through the hop rule (`pstar_sim::Hop`), which reaches a worker's
//! books as its `pstar_sim::Homes`:
//!
//! * **creation site** (the worker that injects a task):
//!   `TaskLedger::opened` — measured-task counts, concurrency `+1`;
//!   admission rejections;
//! * **delivery site** (the worker owning the receiving node):
//!   `TaskLedger::measured_reception` — reception
//!   delay/histograms/batch means/tails — and
//!   `TaskLedger::unicast_delivered`; ARQ ack bookkeeping;
//! * **loss site** (the worker owning the full or dropping link):
//!   `TaskLedger::packet_dropped` / `lost` — dropped/lost counters (the
//!   link's kernel counts its evictions);
//! * **home site** (the worker that opened the task and keeps its
//!   `TaskSlot`):
//!   `TaskLedger::completed` — broadcast/unicast delay, damaged counts,
//!   concurrency `-1` at the slot of the task's last settlement, which
//!   acks and loss notices carry.

use pstar_sim::{ArqCounters, FaultTotals, FlowCounters, SimConfig, TaskLedger};

/// One worker's private measurement accumulator.
#[derive(Debug)]
pub(crate) struct WorkerStats {
    /// Task-level counters (creation / delivery / loss / home sites).
    pub tasks: TaskLedger,
    /// ARQ counters (losing / retransmitting worker; all zero with ARQ
    /// off), taken from the worker's `pstar_sim::Arq` when it finishes.
    pub arq: ArqCounters,
    /// Admission rejections (creation site) and the window-bounded
    /// occupancy sum.
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

    /// Folds `other` into `self`: exact, commutative and associative.
    pub fn merge(&mut self, other: &Self) {
        self.tasks.merge(&other.tasks);
        self.arq.merge(&other.arq);
        self.flow.merge(&other.flow);
        if let (Some(mine), Some(theirs)) = (&mut self.faults, &other.faults) {
            mine.merge(theirs);
        }
        self.messages_sent += other.messages_sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstar_stats::IntMoments;

    /// Every worker's replica of the fault clock counts the same events
    /// and fault slots: the merged totals are one replica's, never a
    /// sum, and only the per-link recovery samples fold in.
    #[test]
    fn fault_totals_are_one_replicas_and_recovery_samples_fold_in() {
        let cfg = SimConfig::quick(1);
        let worker = |sample: u64| {
            let mut stats = WorkerStats::new(&cfg, 16, 4);
            let mut recovery_time = IntMoments::new();
            recovery_time.push(sample);
            stats.faults = Some(FaultTotals {
                events_applied: 6,
                fault_slots: 250,
                recovery_time,
            });
            stats
        };
        let mut merged = worker(10);
        merged.merge(&worker(20));
        merged.merge(&worker(60));
        let totals = merged.faults.expect("a faulted run");
        assert_eq!((totals.events_applied, totals.fault_slots), (6, 250));
        let recovery = totals.recovery_time.summary();
        assert_eq!((recovery.count, recovery.mean), (3, 30.0));
        assert_eq!((recovery.min, recovery.max), (10.0, 60.0));
    }
}
