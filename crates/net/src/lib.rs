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
//! ## The contract
//!
//! A global injector on worker 0 mirrors the engine's RNG draw order,
//! workers deliver in the engine's ascending-link order, and every
//! statistic is one of `pstar_sim::TaskLedger`'s order-free integer
//! sums. So for a workload without unicast traffic (the paper's
//! random-broadcasting model and the default `ScenarioSpec`) a run
//! reports what the simulator reports for the same seed, **bit for bit
//! and field for field, at any worker count** —
//! `SimReport::first_difference` is `None` — under fault plans, bounded
//! queues (`DropTail`, `DropLowestClass`), admission control, ARQ and
//! truncated runs alike. Unicast forwarding draws tie-break randomness
//! mid-slot, which the engine interleaves with arrival draws and the
//! workers take from per-worker streams: workloads with unicast traffic
//! agree statistically, not draw-for-draw.
//!
//! ## Faults and supervised shutdown
//!
//! [`run_net_with_faults`] executes a scripted `pstar_faults::FaultPlan`
//! at runtime: every worker runs its own replica of the plan's clock
//! (`pstar_sim::FaultClock`, the fault tick the simulator's engines run)
//! — no epoch crosses a thread — disposes of packets on its dead links
//! per `DeadLinkPolicy`, suppresses injection at dead nodes, and
//! re-solves degraded-mode routing on its own scheme clone.
//! Faulted runs reproduce the engine's report under the same plan.
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
