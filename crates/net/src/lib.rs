//! # pstar-net — a thread-per-core runtime executing priority STAR for real
//!
//! The simulator (`pstar-sim`) models the torus as data structures
//! updated by one sequential loop. This crate *executes* the same
//! protocol stack — the trunk/ending priority split of Eq. (2)/(4), the
//! ARQ retransmit-priority hook, token-bucket admission, bounded-queue
//! drop policies — on an actual concurrent runtime: torus nodes are
//! sharded across OS threads, every worker queues and serves its
//! links through the *same* [`pstar_sim::LinkKernel`] the simulator's
//! engines run, a slot's traffic crosses workers in one mailbox
//! hand-over per worker pair around one rendezvous that also decides
//! whether the run goes on, and routing decisions come from the
//! *same* [`pstar_sim::Scheme`] implementations the simulator runs. A
//! simulator validates the paper's analysis; this runtime validates the
//! simulator — and gives the schemes a harness whose costs (cache
//! traffic, synchronization, skew) are real.
//!
//! ## Clock modes
//!
//! * [`ClockMode::Virtual`] — slot-synchronous with a global injector
//!   mirroring the engine's RNG draw order. For broadcast-only
//!   workloads (the paper's random-broadcasting model and the default
//!   `ScenarioSpec`) the measured task population is *identical* to a
//!   simulator run with the same seed, so delivered-reception counts
//!   agree exactly, for any worker count. Unicast forwarding draws
//!   tie-break randomness mid-slot, which the engine interleaves with
//!   arrival draws — mixed workloads agree statistically, not
//!   draw-for-draw.
//! * [`ClockMode::WallClock`] — still slot-synchronous (results stay
//!   deterministic and reproducible) but injection is sharded: each
//!   worker generates arrivals for its own nodes from independent
//!   per-node streams, removing the coordinator bottleneck. This is the
//!   throughput-benchmarking mode.
//!
//! ## Faults and supervised shutdown
//!
//! [`run_net_with_faults`] executes a scripted `pstar_faults::FaultPlan`
//! at runtime: every worker runs its own replica of the plan's clock
//! (`pstar_sim::FaultClock`, the fault tick the simulator's engines run)
//! — no epoch crosses a thread — disposes of packets on its dead links
//! per `DeadLinkPolicy`, suppresses injection at dead nodes, and
//! re-solves degraded-mode routing on its own scheme clone.
//! Virtual-clock faulted runs reproduce the engine's delivered and
//! fault-drop counts exactly under the same plan.
//!
//! Execution is panic-safe: [`run_net`] returns
//! `Result<NetReport, NetError>` — a panicking worker poisons the fleet
//! and peers drain cleanly ([`NetError::WorkerPanic`]), a hung fleet is
//! converted by the supervisor's watchdog into
//! [`NetError::BarrierTimeout`] with per-worker positions, and
//! [`ChaosConfig`] injects exactly these failures deterministically for
//! testing.
//!
//! ## Known, documented deviations from the engine
//!
//! * `FullQueuePolicy::Backpressure` is unsupported (rejected as
//!   [`NetConfigError::Backpressure`]): deferral needs a global
//!   injection gate, which distributed injection does not have.
//!   `DropTail` and `DropLowestClass` are supported exactly.
//! * `reception_ci_batch` is `None` — batch-means confidence intervals
//!   require a single serial reception stream.
//! * `peak_queue_total` is the end-of-slot peak (the engine tracks the
//!   intra-slot peak); `mean_queued_packets` sampling is identical.
//! * Concurrency time-averages account task completions at the slot the
//!   home worker *processes* the ack, which can lag the delivery slot by
//!   one control hop — a ≤ 1-slot smear on `avg_concurrent_*` only;
//!   every delay and count statistic uses exact event slots.

#![warn(missing_docs)]

mod channel;
mod error;
mod inject;
mod runtime;
mod stats;

pub use channel::Channel;
pub use error::{ChaosConfig, NetConfigError, NetError, WorkerPosition};
pub use runtime::{
    run_net, run_net_with_faults, ClockMode, NetConfig, NetPerf, NetReport, NetWorkerPerf,
};
