//! Simulation run configuration.

use crate::recovery::{AdmissionConfig, ArqConfig, FullQueuePolicy};
use pstar_traffic::{ScenarioConfig, WorkloadSpec};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Slots to run before measurement starts (reach steady state).
    pub warmup_slots: u64,
    /// Length of the measurement window: tasks *generated* during it are
    /// tagged and fully tracked to completion.
    pub measure_slots: u64,
    /// Hard horizon; exceeding it marks the run unstable/incomplete.
    pub max_slots: u64,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Declare instability when the total number of queued packets
    /// exceeds `unstable_queue_per_link × link_count`.
    pub unstable_queue_per_link: f64,
    /// Declare instability when any single link's queue exceeds this many
    /// packets (catches localized divergence, e.g. mesh corners, long
    /// before the global guard).
    pub unstable_single_queue: f64,
    /// Packet-length law (the paper's default is unit length).
    pub lengths: WorkloadSpec,
    /// Per-link output-buffer capacity in packets. `None` models the
    /// paper's default infinite queues; `Some(k)` applies
    /// [`SimConfig::full_queue_policy`] to packets arriving at a full
    /// buffer (§2 notes finite queues overflow past saturation — this
    /// mode measures how much). Two documented exceptions may briefly
    /// exceed the bound by in-transit packets that cannot be refused: a
    /// fault requeue re-admitting an interrupted in-service packet
    /// ([`crate::LinkKernel::kill`]), and transit forwards
    /// under [`FullQueuePolicy::Backpressure`].
    pub queue_capacity: Option<u32>,
    /// What a full bounded queue does with an arriving packet (ignored
    /// when `queue_capacity` is `None`).
    pub full_queue_policy: FullQueuePolicy,
    /// End-to-end ARQ loss recovery; `None` (default) keeps every drop
    /// permanent, bit-identical to the pre-recovery engine.
    pub arq: Option<ArqConfig>,
    /// Per-node token-bucket admission control; `None` (default) admits
    /// every arrival.
    pub admission: Option<AdmissionConfig>,
    /// Exact-bucket range of the reception-delay histogram (delays at or
    /// above land in the overflow bucket and saturate the quantiles).
    pub delay_histogram_cap: usize,
    /// Record reception delays bucketed by the receiving node's distance
    /// from the broadcast source ([`crate::SimReport::delay_by_distance`]).
    /// Visualizes §3.2's mechanism: trunk hops are nearly free, the final
    /// (ending-dimension) hops absorb the queueing. Off by default (costs
    /// one distance computation per reception).
    pub profile_by_distance: bool,
    /// When `Some(k)`, sample the total queued-packet population every `k`
    /// slots into [`crate::SimReport::queue_trace`] — the §2 "queues grow
    /// unbounded past saturation" diagnostic. `None` (default) disables
    /// tracing.
    pub trace_interval: Option<u64>,
    /// Tail-latency instrumentation: per-class reception-delay
    /// percentiles and the trunk/ending/unicast hop-wait decomposition
    /// ([`crate::SimReport::tails`]). Off by default; when disabled the
    /// hot loop pays one never-taken branch per record site and the
    /// report is bit-identical to a run without the flag (pinned by
    /// `tests/tails.rs`).
    pub tails: bool,
    /// Workload scenario: rate modulation, destination matrix, and the
    /// optional all-to-all broadcast phase. The default scenario
    /// consumes zero extra RNG draws, so it reproduces pre-scenario
    /// seeded runs bit for bit (pinned by `tests/scenarios.rs`).
    pub scenario: ScenarioConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warmup_slots: 20_000,
            measure_slots: 50_000,
            max_slots: 2_000_000,
            seed: 0xB02A_57A2,
            unstable_queue_per_link: 400.0,
            unstable_single_queue: 20_000.0,
            lengths: WorkloadSpec::Fixed(1),
            queue_capacity: None,
            full_queue_policy: FullQueuePolicy::default(),
            arq: None,
            admission: None,
            delay_histogram_cap: 4096,
            profile_by_distance: false,
            trace_interval: None,
            tails: false,
            scenario: ScenarioConfig::default(),
        }
    }
}

impl SimConfig {
    /// A short configuration for unit tests and smoke benches.
    pub fn quick(seed: u64) -> Self {
        Self {
            warmup_slots: 2_000,
            measure_slots: 8_000,
            max_slots: 400_000,
            seed,
            ..Self::default()
        }
    }

    /// End of the measurement window.
    pub fn measure_end(&self) -> u64 {
        self.warmup_slots + self.measure_slots
    }

    /// The fleet-wide divergence guard's threshold, in queued packets,
    /// for a network of `links` links.
    pub fn queue_limit(&self, links: usize) -> i64 {
        (self.unstable_queue_per_link * links as f64) as i64
    }

    /// The periodic single-queue divergence guard, as the stop check of
    /// `next_slot` sees it: single-link divergence (e.g. a mesh corner)
    /// grows far more slowly than the fleet-wide guard can see, so every
    /// [`SINGLE_QUEUE_SCAN_PERIOD`] slots the longest queue (`max_qlen`,
    /// an O(links) scan, only then evaluated) is held against
    /// [`SimConfig::unstable_single_queue`].
    pub fn single_queue_tripped(&self, next_slot: u64, max_qlen: impl FnOnce() -> usize) -> bool {
        next_slot > 0
            && next_slot % SINGLE_QUEUE_SCAN_PERIOD == 0
            && max_qlen() as f64 > self.unstable_single_queue
    }
}

/// Slots between two scans of the single-queue divergence guard.
pub const SINGLE_QUEUE_SCAN_PERIOD: u64 = 4096;

/// Why a run ends before its next slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The measurement window is over and every measured task is done.
    Completed,
    /// The horizon ([`SimConfig::max_slots`]) is reached.
    Horizon,
    /// A divergence guard tripped.
    Unstable,
}

/// The stop rule every driver applies between slot `next_slot − 1` and
/// `next_slot`, in this order: completed, horizon, the fleet-wide queue
/// limit, the periodic single-queue guard. `outstanding_measured` counts
/// measured tasks not yet complete (created or deferred), `queued` the
/// occupancy the fleet-wide guard counts, and `guard_tripped` is asked
/// last, only when nothing else stops the run
/// ([`SimConfig::single_queue_tripped`]).
#[inline]
pub fn stop_verdict(
    cfg: &SimConfig,
    next_slot: u64,
    outstanding_measured: u64,
    queued: i64,
    queue_limit: i64,
    guard_tripped: impl FnOnce() -> bool,
) -> Option<Stop> {
    if next_slot >= cfg.measure_end() && outstanding_measured == 0 {
        Some(Stop::Completed)
    } else if next_slot >= cfg.max_slots {
        Some(Stop::Horizon)
    } else if queued > queue_limit || guard_tripped() {
        Some(Stop::Unstable)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered() {
        let c = SimConfig::default();
        assert!(c.warmup_slots < c.measure_end());
        assert!(c.measure_end() < c.max_slots);
    }

    #[test]
    fn quick_is_shorter() {
        let q = SimConfig::quick(1);
        assert!(q.measure_end() < SimConfig::default().measure_end());
        assert_eq!(q.seed, 1);
    }
}
