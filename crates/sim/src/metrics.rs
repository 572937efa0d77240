//! Simulation output report.

use pstar_stats::{IntMoments, LogHistogram, Summary};

/// Per-priority-class measurements.
#[derive(Debug, Clone, Copy)]
pub struct ClassStats {
    /// Fraction of link-slots spent serving this class during the window
    /// (network-wide average) — the `ρ_k` of the queueing analysis.
    pub utilization: f64,
    /// Per-hop waiting time (slots between enqueue and service start).
    pub wait: Summary,
}

/// Resilience measurements, populated when a fault plan is installed
/// (see `Engine::with_fault_plan`). The [`Default`] value is the
/// fault-free report: everything delivered, nothing recovered from.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Fault events that took effect during the run.
    pub events_applied: u64,
    /// Fraction of offered *measured* receptions actually delivered:
    /// `delivered / (delivered + lost)`; `1.0` when nothing was offered.
    pub delivered_reception_fraction: f64,
    /// Drops attributable to dead links (subset of
    /// [`SimReport::dropped_packets`], which also counts buffer
    /// overflows).
    pub fault_dropped_packets: u64,
    /// Measured damaged broadcasts with at least one reception lost to a
    /// fault drop (subset of [`SimReport::damaged_broadcasts`]).
    pub fault_damaged_broadcasts: u64,
    /// Time-to-recovery: slots from a link's repair until it has carried
    /// traffic again and its backlog first clears (at most one sample
    /// per repaired link; links that never see traffic again are
    /// censored and contribute no sample).
    pub recovery_time: Summary,
    /// Slots of the run during which at least one link or node was dead.
    pub fault_slots: u64,
    /// Per-class waiting times of services started during fault epochs
    /// (window only) — the degraded-mode counterpart of
    /// [`SimReport::class`].
    pub class_wait_fault: Vec<Summary>,
}

impl Default for FaultReport {
    fn default() -> Self {
        Self {
            events_applied: 0,
            delivered_reception_fraction: 1.0,
            fault_dropped_packets: 0,
            fault_damaged_broadcasts: 0,
            recovery_time: IntMoments::new().summary(),
            fault_slots: 0,
            class_wait_fault: Vec::new(),
        }
    }
}

/// End-to-end ARQ loss-recovery measurements, populated when
/// [`crate::SimConfig::arq`] is set. The [`Default`] value is the
/// recovery-disabled report.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// `true` when the ARQ layer was installed for this run.
    pub enabled: bool,
    /// Retransmitted copies actually re-injected into a queue.
    pub retransmissions: u64,
    /// Backoff timers armed (= losses intercepted + failed retries
    /// rescheduled); always ≥ `retransmissions`.
    pub timeouts_scheduled: u64,
    /// Timers armed per attempt number (index = the attempt that just
    /// failed, saturated at the last bucket) — the backoff histogram.
    pub backoff_histogram: Vec<u64>,
    /// Receptions acknowledged to the source over the control plane
    /// (every broadcast reception and unicast delivery while ARQ is on).
    pub acked_receptions: u64,
    /// Deliveries performed by a retransmitted copy (`attempt > 0`).
    pub recovered_deliveries: u64,
    /// Copies that exhausted their retry budget — the `GaveUp` terminal
    /// state; their receptions are settled as lost.
    pub gave_up_copies: u64,
    /// Measured receptions lost to give-ups (subset of
    /// [`SimReport::lost_receptions`]).
    pub gave_up_receptions: u64,
    /// Time-to-full-delivery of measured tasks that completed *and*
    /// needed at least one retransmission — the price of recovery in
    /// completion delay.
    pub recovered_task_delay: Summary,
    /// Timers still armed when the run ended (unmeasured stragglers).
    pub pending_at_end: usize,
}

impl Default for RecoveryReport {
    fn default() -> Self {
        Self {
            enabled: false,
            retransmissions: 0,
            timeouts_scheduled: 0,
            backoff_histogram: Vec::new(),
            acked_receptions: 0,
            recovered_deliveries: 0,
            gave_up_copies: 0,
            gave_up_receptions: 0,
            recovered_task_delay: IntMoments::new().summary(),
            pending_at_end: 0,
        }
    }
}

/// Flow-control and overload-protection measurements (admission control,
/// backpressure, eviction). The [`Default`] value is the
/// everything-admitted report.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Measured broadcast arrivals rejected by the admission token
    /// bucket (tasks never created).
    pub rejected_broadcasts: u64,
    /// Measured unicast arrivals rejected by admission control.
    pub rejected_unicasts: u64,
    /// Measured task injections deferred at least one slot by source
    /// backpressure.
    pub deferred_injections: u64,
    /// Slots between a backpressured task's arrival and its actual
    /// injection (measured tasks; the defer time also counts inside the
    /// task's delay statistics, since `gen_time` is the arrival slot).
    pub defer_delay: Summary,
    /// Packets evicted from full queues by the drop-lowest-class policy
    /// (whole run).
    pub evicted_packets: u64,
    /// Time-average total queued-packet population over the measurement
    /// window (divide by the link count for a per-link occupancy).
    pub mean_queued_packets: f64,
    /// Goodput: measured receptions delivered, over receptions offered
    /// *including* those of admission-rejected tasks —
    /// `delivered / (delivered + lost + rejected)`; `1.0` when nothing
    /// was offered. Equals the fault report's delivered fraction when
    /// admission control is off.
    pub goodput_fraction: f64,
}

impl Default for FlowReport {
    fn default() -> Self {
        Self {
            rejected_broadcasts: 0,
            rejected_unicasts: 0,
            deferred_injections: 0,
            defer_delay: IntMoments::new().summary(),
            evicted_packets: 0,
            mean_queued_packets: 0.0,
            goodput_fraction: 1.0,
        }
    }
}

/// Path-phase of a hop, for the per-hop wait decomposition of
/// [`TailReport`]. The paper's mechanism lives in this split: priority
/// STAR pays o(1) waits on trunk hops and O(1/(1−ρ)) only on the
/// ending-dimension hops (§3.2, Theorems 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopPhase {
    /// Broadcast hop in a non-ending dimension (high priority under
    /// priority STAR).
    Trunk = 0,
    /// Broadcast hop in the packet's ending dimension (low priority
    /// under priority STAR).
    Ending = 1,
    /// Unicast routing hop (never part of a broadcast tree).
    Unicast = 2,
}

impl HopPhase {
    /// All phases, in index order.
    pub const ALL: [HopPhase; 3] = [HopPhase::Trunk, HopPhase::Ending, HopPhase::Unicast];

    /// Stable lowercase label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            HopPhase::Trunk => "trunk",
            HopPhase::Ending => "ending",
            HopPhase::Unicast => "unicast",
        }
    }
}

/// Quantile digest of one log-bucketed delay distribution. Quantiles
/// come from [`LogHistogram`] and never underestimate; their relative
/// overestimate is bounded by `2^-DEFAULT_SUB_BITS` (< 0.79%).
#[derive(Debug, Clone, Copy, Default)]
pub struct TailQuantiles {
    /// Observations recorded.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median (slots).
    pub p50: u64,
    /// 90th percentile (slots).
    pub p90: u64,
    /// 99th percentile (slots).
    pub p99: u64,
    /// 99.9th percentile (slots).
    pub p999: u64,
    /// Largest observation (slots).
    pub max: u64,
}

impl TailQuantiles {
    /// Digest of a histogram (all-zero when the histogram is empty).
    pub fn from_hist(h: &LogHistogram) -> Self {
        Self {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
        }
    }
}

/// Tail-latency measurements, populated when [`crate::SimConfig::tails`]
/// is set. The [`Default`] value is the disabled report (all zeros).
///
/// Reception delays are split by the delivering packet's priority class;
/// per-hop waits are split by [`HopPhase`]. CDF point lists carry the
/// full empirical distributions for plotting (upper bucket edges,
/// cumulative fraction).
#[derive(Debug, Clone, Default)]
pub struct TailReport {
    /// `true` when tail instrumentation was on for this run.
    pub enabled: bool,
    /// Reception-delay digest per priority class of the delivering
    /// packet (index 0 = highest priority; length
    /// `MAX_PRIORITY_CLASSES`, classes a scheme never uses stay empty).
    pub reception_by_class: Vec<TailQuantiles>,
    /// Reception-delay digest over all classes combined.
    pub reception_all: TailQuantiles,
    /// Reception-delay empirical CDF over all classes.
    pub reception_cdf: Vec<(u64, f64)>,
    /// Per-hop wait digest by path phase (index = [`HopPhase`] value).
    pub hop_wait: [TailQuantiles; 3],
    /// Per-hop wait empirical CDF by path phase.
    pub hop_wait_cdf: [Vec<(u64, f64)>; 3],
    /// Service-time digest (degenerate under the paper's unit lengths;
    /// informative for mixed-length workloads).
    pub service: TailQuantiles,
}

/// Everything a run measures.
///
/// All delay statistics cover tasks *generated inside the measurement
/// window* and tracked to completion; waiting times and utilizations are
/// sampled over the window itself.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// `false` when the queue-blowup guard tripped (offered load above the
    /// scheme's sustainable throughput).
    pub stable: bool,
    /// `true` when every tagged task completed before the horizon.
    pub completed: bool,
    /// Slots actually simulated.
    pub slots_run: u64,
    /// Broadcast tasks tagged for measurement.
    pub measured_broadcasts: u64,
    /// Unicast tasks tagged for measurement.
    pub measured_unicasts: u64,
    /// Reception delay: generation → arrival at each individual node
    /// (broadcast traffic; the paper's primary metric, Figs. 2–4).
    pub reception_delay: Summary,
    /// Reception-delay tail quantiles `(p50, p95, p99)` in slots.
    pub reception_quantiles: (u64, u64, u64),
    /// Batch-means 95% half-width for the reception delay — honest under
    /// serial correlation, unlike `reception_delay.ci95()`. A batch is
    /// the receptions of the tasks generated in one of
    /// [`pstar_stats::BATCHES`] equal slices of the measurement window;
    /// `None` with fewer than two non-empty batches.
    pub reception_ci_batch: Option<f64>,
    /// Packets dropped at full finite buffers (0 with infinite queues).
    pub dropped_packets: u64,
    /// Receptions of *measured* tasks that never happened due to drops.
    pub lost_receptions: u64,
    /// Measured broadcasts that failed to reach every node (damaged by
    /// drops; excluded from `broadcast_delay`).
    pub damaged_broadcasts: u64,
    /// Measured unicasts dropped before delivery (excluded from
    /// `unicast_delay`).
    pub dropped_unicasts: u64,
    /// Broadcast delay: generation → last node reached (Figs. 5–7).
    pub broadcast_delay: Summary,
    /// Unicast delay: generation → delivery (§4, T3).
    pub unicast_delay: Summary,
    /// Per-priority-class waits and loads (index 0 = highest priority).
    pub class: Vec<ClassStats>,
    /// Mean link utilization over the window — should match the offered
    /// throughput factor ρ when the scheme is minimal and balanced.
    pub mean_link_utilization: f64,
    /// Utilization of the most-loaded link (balance diagnostic).
    pub max_link_utilization: f64,
    /// Mean utilization of links of each dimension (balance diagnostic;
    /// the quantity Eq. (2)/(4) equalize).
    pub per_dim_utilization: Vec<f64>,
    /// Time-average number of broadcast tasks in progress (Fig. 8).
    pub avg_concurrent_broadcasts: f64,
    /// Time-average number of unicast tasks in progress (Fig. 8).
    pub avg_concurrent_unicasts: f64,
    /// Largest total queued-packet population of any slot, sampled after
    /// the slot's enqueues and before its service starts (where
    /// [`FlowReport::mean_queued_packets`] samples too).
    pub peak_queue_total: i64,
    /// Transmissions started during the window.
    pub window_transmissions: u64,
    /// Transmissions per virtual-channel tag (index = VC id, §3.1's
    /// deadlock-freedom bookkeeping: VC1 for dimensions after the
    /// rotation point, VC2 for wrapped dimensions, 0 for unicast).
    /// Counted over the whole run.
    pub vc_transmissions: [u64; 4],
    /// Mean reception delay of nodes at each hop distance from the source
    /// (index = distance; empty unless
    /// [`crate::SimConfig::profile_by_distance`] is set). Entry 0 is
    /// unused (the source does not receive).
    pub delay_by_distance: Vec<Summary>,
    /// `(slot, total queued packets)` samples, when
    /// [`crate::SimConfig::trace_interval`] is set (empty otherwise).
    /// Bounded queues ⇔ stability; linear growth ⇔ offered load above the
    /// scheme's sustainable throughput (§2).
    pub queue_trace: Vec<(u64, u64)>,
    /// Resilience measurements (the [`Default`] fault-free report unless
    /// a fault plan was installed).
    pub faults: FaultReport,
    /// ARQ loss-recovery measurements (the [`Default`] disabled report
    /// unless [`crate::SimConfig::arq`] was set).
    pub recovery: RecoveryReport,
    /// Flow-control measurements (admission, backpressure, eviction,
    /// queue occupancy).
    pub flow: FlowReport,
    /// Tail-latency decomposition (the [`Default`] disabled report
    /// unless [`crate::SimConfig::tails`] was set).
    pub tails: TailReport,
}

/// Returns from the enclosing function with `Some("<path>: a != b")` for
/// the first listed field on which `$a` and `$b` — two values of struct
/// `$ty` — differ. The fields (and after `in`, the nested reports the
/// caller descends into itself) are named by destructuring `$ty`
/// without a rest pattern, so a field added to the struct and not listed
/// here is a compile error, not a field silently left out of the
/// comparison. `Debug` text is the comparison: it spells an `f64` with
/// the shortest digits that round-trip, so two floats print alike only
/// when their bits do.
macro_rules! return_first_difference {
    ($ty:ident, $a:expr, $b:expr, $path:expr; $($field:ident),+ $(; in $($nested:ident),+)?) => {{
        let $ty { $($field: _),+ $(, $($nested: _),+)? } = $a;
        $(
            let (a, b) = (format!("{:?}", $a.$field), format!("{:?}", $b.$field));
            if a != b {
                return Some(format!("{}{}: {a} != {b}", $path, stringify!($field)));
            }
        )+
    }};
}

impl SimReport {
    /// `true` when the run is usable: stable and fully drained.
    pub fn ok(&self) -> bool {
        self.stable && self.completed
    }

    /// The one cross-backend comparison: `None` when `other` reports the
    /// same run bit for bit, else the first field that differs (by its
    /// path, e.g. `faults.recovery_time`) with both values. Every field
    /// is compared; there is no tolerance.
    pub fn first_difference(&self, other: &Self) -> Option<String> {
        return_first_difference!(SimReport, self, other, "";
            stable, completed, slots_run, measured_broadcasts, measured_unicasts,
            reception_delay, reception_quantiles, reception_ci_batch, dropped_packets,
            lost_receptions, damaged_broadcasts, dropped_unicasts, broadcast_delay,
            unicast_delay, class, mean_link_utilization, max_link_utilization,
            per_dim_utilization, avg_concurrent_broadcasts, avg_concurrent_unicasts,
            peak_queue_total, window_transmissions, vc_transmissions, delay_by_distance,
            queue_trace; in faults, recovery, flow, tails);
        return_first_difference!(FaultReport, &self.faults, &other.faults, "faults.";
            events_applied, delivered_reception_fraction, fault_dropped_packets,
            fault_damaged_broadcasts, recovery_time, fault_slots, class_wait_fault);
        return_first_difference!(RecoveryReport, &self.recovery, &other.recovery, "recovery.";
            enabled, retransmissions, timeouts_scheduled, backoff_histogram, acked_receptions,
            recovered_deliveries, gave_up_copies, gave_up_receptions, recovered_task_delay,
            pending_at_end);
        return_first_difference!(FlowReport, &self.flow, &other.flow, "flow.";
            rejected_broadcasts, rejected_unicasts, deferred_injections, defer_delay,
            evicted_packets, mean_queued_packets, goodput_fraction);
        return_first_difference!(TailReport, &self.tails, &other.tails, "tails.";
            enabled, reception_by_class, reception_all, reception_cdf, hop_wait, hop_wait_cdf,
            service);
        None
    }

    /// Load-weighted average wait `Σ ρ_k W_k / ρ` across classes — the
    /// conservation-law aggregate (equals the FCFS wait for any
    /// work-conserving discipline).
    pub fn conservation_aggregate(&self) -> f64 {
        let rho: f64 = self.class.iter().map(|c| c.utilization).sum();
        if rho == 0.0 {
            return 0.0;
        }
        self.class
            .iter()
            .map(|c| c.utilization * c.wait.mean)
            .sum::<f64>()
            / rho
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "stable={} completed={} slots={} util(mean/max)={:.3}/{:.3}",
            self.stable,
            self.completed,
            self.slots_run,
            self.mean_link_utilization,
            self.max_link_utilization
        )?;
        writeln!(
            f,
            "reception={:.2} broadcast={:.2} unicast={:.2} (means, slots)",
            self.reception_delay.mean, self.broadcast_delay.mean, self.unicast_delay.mean
        )?;
        if self.dropped_packets > 0 {
            writeln!(
                f,
                "drops: {} packets, {} receptions lost, {} broadcasts damaged",
                self.dropped_packets, self.lost_receptions, self.damaged_broadcasts
            )?;
        }
        if self.faults.events_applied > 0 {
            writeln!(
                f,
                "faults: {} events over {} slots, delivered={:.4}, recovery={:.1} (mean slots, n={})",
                self.faults.events_applied,
                self.faults.fault_slots,
                self.faults.delivered_reception_fraction,
                self.faults.recovery_time.mean,
                self.faults.recovery_time.count
            )?;
        }
        if self.recovery.enabled {
            writeln!(
                f,
                "arq: {} retx ({} timers), {} recovered deliveries, {} gave up ({} receptions lost)",
                self.recovery.retransmissions,
                self.recovery.timeouts_scheduled,
                self.recovery.recovered_deliveries,
                self.recovery.gave_up_copies,
                self.recovery.gave_up_receptions
            )?;
        }
        if self.flow.rejected_broadcasts + self.flow.rejected_unicasts > 0
            || self.flow.deferred_injections > 0
            || self.flow.evicted_packets > 0
        {
            writeln!(
                f,
                "flow: rejected {}b/{}u, deferred {} (mean {:.1} slots), evicted {}, goodput={:.4}",
                self.flow.rejected_broadcasts,
                self.flow.rejected_unicasts,
                self.flow.deferred_injections,
                self.flow.defer_delay.mean,
                self.flow.evicted_packets,
                self.flow.goodput_fraction
            )?;
        }
        for (k, c) in self.class.iter().enumerate() {
            writeln!(
                f,
                "  class {k}: rho={:.4} wait={:.3}",
                c.utilization, c.wait.mean
            )?;
        }
        if self.tails.enabled {
            let r = &self.tails.reception_all;
            writeln!(
                f,
                "tails: reception p50/p90/p99/p99.9 = {}/{}/{}/{} (n={})",
                r.p50, r.p90, r.p99, r.p999, r.count
            )?;
            for phase in HopPhase::ALL {
                let w = &self.tails.hop_wait[phase as usize];
                if w.count > 0 {
                    writeln!(
                        f,
                        "  {} wait: p50={} p99={} max={} (n={})",
                        phase.label(),
                        w.p50,
                        w.p99,
                        w.max,
                        w.count
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A statistic nothing was recorded into reads the same whether the
    /// report was defaulted (feature off) or assembled from an idle
    /// accumulator (feature on, no sample): the empty summary, `±inf`
    /// extremes included.
    #[test]
    fn defaulted_and_idle_statistics_read_alike() {
        let idle = IntMoments::new().summary();
        assert_eq!(FaultReport::default().recovery_time, idle);
        assert_eq!(RecoveryReport::default().recovered_task_delay, idle);
        assert_eq!(FlowReport::default().defer_delay, idle);
        assert_eq!(pstar_stats::Moments::default().summary(), idle);
        assert_eq!(
            (idle.count, idle.min, idle.max),
            (0, f64::INFINITY, f64::NEG_INFINITY)
        );
    }
}
