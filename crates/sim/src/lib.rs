//! # pstar-sim
//!
//! A slotted, store-and-forward, all-port network simulator for tori —
//! the evaluation vehicle of the Priority STAR paper.
//!
//! ## Model
//!
//! * Time advances in unit slots. A packet of length `L` occupies a
//!   directed link for `L` consecutive slots (the paper's analysis uses
//!   `L = 1`; variable lengths are supported).
//! * **All-port**: every node owns an output queue per outgoing directed
//!   link and may transmit on all of them simultaneously.
//! * **Priority queues**: each link has one FIFO per priority class
//!   (up to [`MAX_PRIORITY_CLASSES`]); service is non-preemptive
//!   head-of-line: the lowest-numbered non-empty class is served first.
//! * **Within a slot**: deliveries happen first, then new task arrivals,
//!   then service starts. A packet enqueued at slot `t` on an idle link is
//!   delivered at `t + L`, so the zero-load delay of an `h`-hop path is
//!   exactly `h·L`.
//!
//! Routing behaviour is pluggable through the [`Scheme`] trait; the
//! `priority-star` crate provides the paper's schemes (priority STAR, the
//! FCFS direct-scheme baseline, dimension-ordered broadcast, …).
//!
//! ## Measurement protocol
//!
//! A run consists of a warmup period, a measurement window during which
//! generated tasks are tagged, and a drain phase (traffic keeps flowing)
//! that lasts until every tagged task completes. Queue blow-ups and
//! horizon overruns are reported as instability rather than hanging.
//!
//! ## One kernel, one hop rule, one ledger
//!
//! The per-link state — queues, the transmission in flight, admission,
//! link death, service starts — is written once, in [`LinkKernel`], and
//! the ARQ timers once, in [`Arq`]; what a delivery, a forward, a loss
//! and a retransmission mean is written once, in [`Hop`]; how a run is
//! counted and how the counters become a [`SimReport`] is written once,
//! in the ledger ([`TaskLedger`], [`LinkCounters`], [`assemble`]).
//! [`Engine`] and the `pstar-net` runtime are drivers of those, and
//! [`ShardedEngine`] of the kernel and the ledger; [`EventEngine`] keeps
//! its own [`PriorityQueue`]s and accounting because it is the oracle the
//! step engine is cross-validated against.

#![warn(missing_docs)]

mod arrivals;
mod config;
mod engine;
mod event_engine;
mod faultepoch;
mod hop;
mod kernel;
mod ledger;
mod metrics;
mod packet;
mod perf;
mod queue;
mod recovery;
mod scheme;
mod sharded;
mod task;

pub use arrivals::{generate_arrivals_into, sample_poisson, ArrivalSink};
pub use config::{stop_verdict, SimConfig, Stop, SINGLE_QUEUE_SCAN_PERIOD};
pub use engine::{Engine, TraceError, TraceField};
pub use event_engine::EventEngine;
pub use faultepoch::{FaultClock, FaultLoss, LossCause};
pub use hop::{Homes, Hop, HopCtx};
pub use kernel::{Admit, FinishScan, LinkKernel};
pub use ledger::{
    assemble, ArqCounters, FaultTotals, FlowCounters, LinkCounters, RunOutcome, TailsState,
    TaskLedger, BACKOFF_HIST_BUCKETS,
};
pub use metrics::{
    ClassStats, FaultReport, FlowReport, HopPhase, RecoveryReport, SimReport, TailQuantiles,
    TailReport,
};
pub use packet::{rotated_dim, BroadcastState, Emit, Packet, PacketKind, MAX_PRIORITY_CLASSES};
pub use perf::{CoordPhases, EnginePerf, EnginePerfConfig, WorkerPhases, PHASE_NAMES};
pub use queue::PriorityQueue;
pub use recovery::{
    splitmix64, AdmissionConfig, Arq, ArqConfig, FullQueuePolicy, RetxEntry, TokenGate,
    ARQ_SEED_SALT,
};
pub use scheme::Scheme;
pub use sharded::ShardedEngine;
pub use task::{TaskKind, TaskSlot};

// Fault-injection vocabulary, re-exported so downstream crates need not
// depend on `pstar-faults` directly.
pub use pstar_faults::{
    shuffled_links, DeadLinkPolicy, FaultEvent, FaultKind, FaultPlan, LivenessView,
    StochasticFaultConfig,
};

// Observability vocabulary, re-exported for the same reason: a test or
// experiment installing a [`pstar_obs::TraceSink`] via
// [`Engine::with_trace`] needs only this crate.
pub use pstar_obs::{
    DropKind, NullSink, ObsCollector, RingTrace, SlotSample, TraceEvent, TraceRecord, TraceSink,
};

// `SlotSample::queued_by_class` is sized by the obs crate independently
// of the packet format; the engines copy between the two arrays
// index-for-index.
const _: () = assert!(
    MAX_PRIORITY_CLASSES == pstar_obs::MAX_OBS_CLASSES,
    "pstar-obs class array out of sync with packet format"
);

/// Replays a recorded workload trace through a fresh engine; a trace
/// naming a node `topo` does not have is refused ([`Engine::replay`]).
pub fn run_trace<N, S: Scheme>(
    topo: &N,
    scheme: S,
    trace: &pstar_traffic::Trace,
    cfg: SimConfig,
) -> Result<SimReport, TraceError>
where
    N: pstar_topology::Network + Clone,
{
    Engine::new(
        topo.clone(),
        scheme,
        pstar_traffic::TrafficMix::broadcast_only(0.0),
        cfg,
    )
    .replay(trace)
}

/// Runs a complete simulation: builds an engine, executes it, returns the
/// report. Convenience for experiments and tests.
pub fn run<N, S: Scheme>(
    topo: &N,
    scheme: S,
    mix: pstar_traffic::TrafficMix,
    cfg: SimConfig,
) -> SimReport
where
    N: pstar_topology::Network + Clone,
{
    Engine::new(topo.clone(), scheme, mix, cfg).run()
}

/// Runs a simulation under a fault plan. With an empty plan this is
/// exactly [`run`] (bit-identical report).
pub fn run_with_faults<N, S: Scheme>(
    topo: &N,
    scheme: S,
    mix: pstar_traffic::TrafficMix,
    cfg: SimConfig,
    plan: FaultPlan,
    policy: DeadLinkPolicy,
) -> SimReport
where
    N: pstar_topology::Network + Clone,
{
    Engine::new(topo.clone(), scheme, mix, cfg)
        .with_fault_plan(plan, policy)
        .run()
}
