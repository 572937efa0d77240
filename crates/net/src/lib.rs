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
//! Worker 0 draws every task with the engine's own injector
//! (`pstar_sim::Injector`), every worker runs the engine's one slot body
//! (`pstar_sim::Hop::slot`) — a task waiting at its source under
//! backpressure included, since a source's out-links belong to one
//! worker — over the deliveries to its nodes in the engine's
//! ascending-link order, and every statistic is
//! one of `pstar_sim::TaskLedger`'s order-free integer sums; a transit
//! unicast's tie coin comes from its node's stream, which the node's
//! owner draws in that same order at every worker count. So a run
//! reports what the simulator reports for the same seed, **bit for bit
//! and field for field, at any worker count** —
//! `SimReport::first_difference` is `None` — broadcast, unicast and
//! mixed workloads, under fault plans, bounded queues under every
//! full-queue policy, admission control, ARQ and truncated runs alike.
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

#![warn(missing_docs)]

mod channel;
mod error;
mod runtime;
mod stats;

pub use channel::Channel;
pub use error::{ChaosConfig, NetConfigError, NetError, WorkerPosition};
pub use runtime::{
    run_net, run_net_with_faults, ClockMode, NetConfig, NetPerf, NetReport, NetWorkerPerf,
};
