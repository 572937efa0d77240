//! # pstar-obs
//!
//! Observability for the pstar simulators: a structured event trace, a
//! per-slot time-series sampler, run manifests, and a link-load heatmap
//! renderer. The engines know nothing about *what* is observed — they
//! push typed records through the [`TraceSink`] trait, and a disabled
//! sink costs the hot loop exactly one `Option` branch per potential
//! record (asserted bit-identical by the `tests/obs.rs` proptest).
//!
//! The three layers:
//!
//! * **Event trace** — [`TraceEvent`] records (enqueue, service start,
//!   delivery, drop, retransmit, fault epoch) timestamped into
//!   [`TraceRecord`]s and kept in a bounded [`RingTrace`] so a
//!   long run's trace memory is fixed.
//! * **Time series** — [`SlotSample`] snapshots of per-link / per-class
//!   queue occupancy and in-flight counts at a configurable decimation
//!   ([`TraceSink::decimation`]), feeding CSV columns, the
//!   [`render_heatmap`] renderer, and the MSER time-to-steady-state estimate
//!   ([`ObsCollector::steady_state_slot`]).
//! * **Run manifests** — [`RunManifest`] sidecar JSON documents (seed,
//!   config hash, git revision, wall-clock per phase, slots/sec) written
//!   next to every experiments artifact.
//! * **Runtime metrics** — the [`metrics`] registry: lock-free
//!   [`Counter`]/[`Gauge`]/[`Timer`] instruments labeled by
//!   shard/worker/phase id, with Prometheus-text and streaming-JSONL
//!   exporters, observing the *execution machinery* (barrier phases,
//!   channel depths, arena occupancy) rather than the simulated network.

#![warn(missing_docs)]

mod chrome;
mod heatmap;
mod manifest;
pub mod metrics;
mod series;
mod trace;

pub use chrome::{chrome_trace, chrome_trace_phases, chrome_trace_workers};
pub use heatmap::{render_heatmap, HeatPanel};
pub use manifest::{
    config_hash, escape_json, fnv1a64, git_rev, json_f64, PhaseTiming, RunManifest,
};
pub use metrics::{Counter, Gauge, JsonlSink, MetricsRegistry, PhaseSpan, Timer, COORD_TRACK};
pub use series::{SeriesStats, SlotSample, MAX_OBS_CLASSES};
pub use trace::{DropKind, NullSink, ObsCollector, RingTrace, TraceEvent, TraceRecord, TraceSink};
