//! Execution-machinery telemetry for the sharded engine.
//!
//! [`crate::ShardedEngine::run_perf`] times the 5-barrier slot protocol
//! itself — not the simulated network — and returns an [`EnginePerf`]
//! next to the (bit-identical) [`crate::SimReport`]: per-worker work
//! vs. wait at each barrier, the coordinator's k-way-merge / mid-slot /
//! end-slot serial section, boundary-exchange volume, and arena
//! high-water marks. From the work/wait split it derives an Amdahl
//! decomposition: the measured serial fraction and the predicted
//! speedup at k cores, which is the number the ROADMAP's "attack the
//! serial fraction" item needs to watch.
//!
//! All timing uses `Instant` only and never touches the RNG; the
//! un-instrumented [`crate::ShardedEngine::run`] path pays one
//! never-taken branch per potential record (the house telemetry rule,
//! pinned by the `tests/perf.rs` proptests).

use pstar_obs::metrics::{JsonlSink, MetricsRegistry, PhaseSpan, COORD_TRACK};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The five slot-protocol barriers, in order. "Work" at a barrier is
/// the computation a worker does *before* reaching it (α ← A1 + ship,
/// β ← A2, δ ← B; γ and ε gate no worker work — they exist so the
/// coordinator's serial section and the control word publish cleanly).
pub const PHASE_NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Span names for the worker work segments, aligned with
/// [`PHASE_NAMES`] (γ/ε have no work segment).
const WORK_SPAN_NAMES: [&str; 5] = ["a1_ship", "a2", "", "b", ""];

/// Span names for the barrier waits.
const WAIT_SPAN_NAMES: [&str; 5] = [
    "wait_alpha",
    "wait_beta",
    "wait_gamma",
    "wait_delta",
    "wait_epsilon",
];

/// Configuration of one instrumented run.
#[derive(Debug, Clone)]
pub struct EnginePerfConfig {
    /// Capture per-slot [`PhaseSpan`]s (for the Chrome trace and the
    /// stacked SVG) for the first `span_slots` slots only, so span
    /// memory is bounded no matter how long the run is.
    pub span_slots: u64,
    /// Stream one JSONL registry snapshot every `sample_every` slots
    /// (when [`EnginePerfConfig::jsonl_path`] is set).
    pub sample_every: u64,
    /// Where to stream JSONL snapshots; `None` disables streaming.
    pub jsonl_path: Option<PathBuf>,
}

impl Default for EnginePerfConfig {
    fn default() -> Self {
        Self {
            span_slots: 64,
            sample_every: 1_000,
            jsonl_path: None,
        }
    }
}

/// Per-worker work/wait nanoseconds at each of the five barriers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerPhases {
    /// Work preceding each barrier (see [`PHASE_NAMES`]).
    pub work_ns: [u64; 5],
    /// Time spent inside each barrier wait.
    pub wait_ns: [u64; 5],
}

impl WorkerPhases {
    /// Total work across all phases.
    pub fn work_total(&self) -> u64 {
        self.work_ns.iter().sum()
    }

    /// Total barrier-wait time.
    pub fn wait_total(&self) -> u64 {
        self.wait_ns.iter().sum()
    }
}

/// The coordinator's per-run time decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordPhases {
    /// K-way merge of the shard message streams (including taking the
    /// stream locks and collecting the A1 side data).
    pub merge_ns: u64,
    /// `mid_slot`: arrivals, deliveries, task accounting — the bulk of
    /// the order-sensitive serial section.
    pub mid_ns: u64,
    /// `end_slot`: stop checks, fault-clock advance, queue accounting
    /// (plus collecting the B reports and publishing commands/control).
    pub end_ns: u64,
    /// Time the coordinator spent blocked in barrier waits (worker
    /// phases executing).
    pub wait_ns: u64,
}

impl CoordPhases {
    /// Total serial work (merge + mid + end; waits excluded — that is
    /// the workers' time).
    pub fn work_total(&self) -> u64 {
        self.merge_ns + self.mid_ns + self.end_ns
    }
}

/// Telemetry of one instrumented sharded run.
#[derive(Debug)]
pub struct EnginePerf {
    /// Shard count of the run.
    pub shards: usize,
    /// Worker threads actually used (1 = sequential driver; the
    /// coordinator then shares the single thread).
    pub workers: usize,
    /// Slots executed.
    pub slots: u64,
    /// Wall-clock nanoseconds of the whole run.
    pub wall_ns: u64,
    /// Per-worker phase decomposition, indexed by worker.
    pub worker_phases: Vec<WorkerPhases>,
    /// Coordinator decomposition.
    pub coord: CoordPhases,
    /// Packets shipped across a shard boundary (inter-shard exchange
    /// volume; intra-shard deliveries don't count).
    pub boundary_packets: u64,
    /// Messages fed through the coordinator's k-way merge.
    pub merged_msgs: u64,
    /// Per-shard packet-arena high-water marks: the peak of *queued*
    /// packets (in-flight ones leave the arena at service start, and the
    /// arena never shrinks, so its final length is that peak).
    pub arena_slots: Vec<u32>,
    /// Per-shard free-list length at run end (arena slots allocated at
    /// peak but idle at the end).
    pub free_list_len: Vec<u32>,
    /// Captured phase spans (first
    /// [`EnginePerfConfig::span_slots`] slots).
    pub spans: Vec<PhaseSpan>,
    /// JSONL snapshot lines streamed.
    pub jsonl_lines: u64,
    /// The registry every number above was also published into —
    /// render with
    /// [`prometheus_text`](MetricsRegistry::prometheus_text).
    pub registry: Arc<MetricsRegistry>,
}

impl EnginePerf {
    /// Measured Amdahl serial fraction: coordinator work over total
    /// work (coordinator + all workers). Barrier waits are excluded
    /// from both sides — they are the *consequence* of the serial
    /// fraction, not part of the workload.
    pub fn serial_fraction(&self) -> f64 {
        let serial = self.coord.work_total() as f64;
        let parallel: u64 = self.worker_phases.iter().map(|w| w.work_total()).sum();
        let total = serial + parallel as f64;
        if total == 0.0 {
            0.0
        } else {
            serial / total
        }
    }

    /// Amdahl's-law speedup prediction at `k` cores from the measured
    /// serial fraction: `1 / (s + (1 - s) / k)`.
    pub fn predicted_speedup(&self, k: usize) -> f64 {
        let s = self.serial_fraction();
        1.0 / (s + (1.0 - s) / k.max(1) as f64)
    }
}

/// Live handles the coordinator records through (pre-resolved once so
/// the slot loop never touches the registry mutex).
pub(crate) struct CoordHooks {
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) epoch: Instant,
    pub(crate) span_slots: u64,
    pub(crate) t0: u64,
    pub(crate) coord: CoordPhases,
    pub(crate) merged_msgs: u64,
    pub(crate) spans: Vec<PhaseSpan>,
    pub(crate) sink: Option<JsonlSink<std::io::BufWriter<std::fs::File>>>,
    pub(crate) sample_every: u64,
    merge_timer: Arc<pstar_obs::Timer>,
    mid_timer: Arc<pstar_obs::Timer>,
    end_timer: Arc<pstar_obs::Timer>,
    wait_ctr: Arc<pstar_obs::Counter>,
    merged_ctr: Arc<pstar_obs::Counter>,
    slots_ctr: Arc<pstar_obs::Counter>,
}

impl CoordHooks {
    pub(crate) fn new(cfg: &EnginePerfConfig, t0: u64) -> std::io::Result<Self> {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = match &cfg.jsonl_path {
            Some(p) => {
                let f = std::fs::File::create(p)?;
                Some(JsonlSink::new(std::io::BufWriter::new(f), cfg.sample_every))
            }
            None => None,
        };
        Ok(Self {
            merge_timer: registry.timer("engine_coord_merge_ns", &[]),
            mid_timer: registry.timer("engine_coord_mid_slot_ns", &[]),
            end_timer: registry.timer("engine_coord_end_slot_ns", &[]),
            wait_ctr: registry.counter("engine_coord_wait_ns", &[]),
            merged_ctr: registry.counter("engine_merged_msgs", &[]),
            slots_ctr: registry.counter("engine_slots", &[]),
            registry,
            epoch: Instant::now(),
            span_slots: cfg.span_slots,
            t0,
            coord: CoordPhases::default(),
            merged_msgs: 0,
            spans: Vec::new(),
            sink,
            sample_every: cfg.sample_every.max(1),
        })
    }

    /// Nanoseconds since the instrumentation epoch (spans divide down
    /// to µs only at the edge; accumulators keep full ns precision).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn spans_on(&self, t: u64) -> bool {
        t - self.t0 < self.span_slots
    }

    pub(crate) fn push_span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(PhaseSpan {
            track: COORD_TRACK,
            name,
            start_us: start_ns / 1_000,
            dur_us: end_ns.saturating_sub(start_ns) / 1_000,
        });
    }

    pub(crate) fn record_merge(&mut self, ns: u64, msgs: u64) {
        self.coord.merge_ns += ns;
        self.merged_msgs += msgs;
        self.merge_timer.record_ns(ns);
        self.merged_ctr.add(msgs);
    }

    pub(crate) fn record_mid(&mut self, ns: u64) {
        self.coord.mid_ns += ns;
        self.mid_timer.record_ns(ns);
    }

    pub(crate) fn record_end(&mut self, ns: u64) {
        self.coord.end_ns += ns;
        self.end_timer.record_ns(ns);
    }

    pub(crate) fn record_wait(&mut self, ns: u64) {
        self.coord.wait_ns += ns;
        self.wait_ctr.add(ns);
    }

    /// Per-slot bookkeeping: bumps the slot counter and streams a JSONL
    /// snapshot when the slot lands on the sampling grid. I/O errors
    /// here must not kill a simulation mid-run; the stream just stops
    /// (the line count in [`EnginePerf`] makes that visible).
    pub(crate) fn end_of_slot(&mut self, t: u64) {
        self.slots_ctr.inc();
        if let Some(sink) = self.sink.as_mut() {
            if (t - self.t0).is_multiple_of(self.sample_every) {
                let _ = sink.sample(t, &self.registry);
            }
        }
    }
}

/// One worker's thread-local accumulator (no atomics on the hot path;
/// totals are published into the registry after the join).
pub(crate) struct WorkerPerf {
    pub(crate) track: u32,
    pub(crate) epoch: Instant,
    pub(crate) span_slots: u64,
    pub(crate) t0: u64,
    pub(crate) phases: WorkerPhases,
    pub(crate) boundary_packets: u64,
    pub(crate) spans: Vec<PhaseSpan>,
}

impl WorkerPerf {
    pub(crate) fn new(track: u32, epoch: Instant, span_slots: u64, t0: u64) -> Self {
        Self {
            track,
            epoch,
            span_slots,
            t0,
            phases: WorkerPhases::default(),
            boundary_packets: 0,
            spans: Vec::new(),
        }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn spans_on(&self, t: u64) -> bool {
        t - self.t0 < self.span_slots
    }

    /// Records work preceding barrier `phase` over `[start_ns, end_ns]`.
    pub(crate) fn record_work(&mut self, phase: usize, t: u64, start_ns: u64, end_ns: u64) {
        self.phases.work_ns[phase] += end_ns.saturating_sub(start_ns);
        if self.spans_on(t) && !WORK_SPAN_NAMES[phase].is_empty() {
            self.spans.push(PhaseSpan {
                track: self.track,
                name: WORK_SPAN_NAMES[phase],
                start_us: start_ns / 1_000,
                dur_us: end_ns.saturating_sub(start_ns) / 1_000,
            });
        }
    }

    /// Records the wait at barrier `phase` over `[start_ns, end_ns]`.
    pub(crate) fn record_wait(&mut self, phase: usize, t: u64, start_ns: u64, end_ns: u64) {
        self.phases.wait_ns[phase] += end_ns.saturating_sub(start_ns);
        if self.spans_on(t) {
            self.spans.push(PhaseSpan {
                track: self.track,
                name: WAIT_SPAN_NAMES[phase],
                start_us: start_ns / 1_000,
                dur_us: end_ns.saturating_sub(start_ns) / 1_000,
            });
        }
    }
}

/// Folds worker results and the final arena state into the registry and
/// builds the [`EnginePerf`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_perf(
    mut hooks: CoordHooks,
    workers: Vec<WorkerPerf>,
    arena: Vec<(u32, u32)>,
    shards: usize,
    slots: u64,
    wall_ns: u64,
) -> EnginePerf {
    let mut worker_phases = Vec::with_capacity(workers.len());
    let mut boundary_packets = 0u64;
    let mut spans = std::mem::take(&mut hooks.spans);
    for w in &workers {
        let id = w.track.to_string();
        for (p, name) in PHASE_NAMES.iter().enumerate() {
            hooks
                .registry
                .counter("engine_phase_work_ns", &[("worker", &id), ("phase", name)])
                .add(w.phases.work_ns[p]);
            hooks
                .registry
                .counter("engine_phase_wait_ns", &[("worker", &id), ("phase", name)])
                .add(w.phases.wait_ns[p]);
        }
        hooks
            .registry
            .counter("engine_boundary_packets", &[("worker", &id)])
            .add(w.boundary_packets);
        worker_phases.push(w.phases);
        boundary_packets += w.boundary_packets;
        spans.extend_from_slice(&w.spans);
    }
    let mut arena_slots = Vec::with_capacity(shards);
    let mut free_list_len = Vec::with_capacity(shards);
    for (s, &(occ, free)) in arena.iter().enumerate() {
        let id = s.to_string();
        hooks
            .registry
            .gauge("engine_arena_slots", &[("shard", &id)])
            .set(occ as i64);
        hooks
            .registry
            .gauge("engine_free_list", &[("shard", &id)])
            .set(free as i64);
        arena_slots.push(occ);
        free_list_len.push(free);
    }
    let mut jsonl_lines = 0;
    if let Some(mut sink) = hooks.sink.take() {
        // Final snapshot so the stream always ends with the totals.
        let _ = sink.sample(hooks.t0 + slots, &hooks.registry);
        jsonl_lines = sink.lines_written();
        if let Ok(mut w) = sink.finish() {
            let _ = w.flush();
        }
    }
    EnginePerf {
        shards,
        workers: workers.len(),
        slots,
        wall_ns,
        worker_phases,
        coord: hooks.coord,
        boundary_packets,
        merged_msgs: hooks.merged_msgs,
        arena_slots,
        free_list_len,
        spans,
        jsonl_lines,
        registry: hooks.registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf_with(coord_work: u64, worker_work: &[u64]) -> EnginePerf {
        EnginePerf {
            shards: worker_work.len().max(1),
            workers: worker_work.len(),
            slots: 0,
            wall_ns: 0,
            worker_phases: worker_work
                .iter()
                .map(|&w| WorkerPhases {
                    work_ns: [w, 0, 0, 0, 0],
                    wait_ns: [0; 5],
                })
                .collect(),
            coord: CoordPhases {
                merge_ns: coord_work / 2,
                mid_ns: coord_work - coord_work / 2,
                end_ns: 0,
                wait_ns: 999, // waits must not affect the fraction
            },
            boundary_packets: 0,
            merged_msgs: 0,
            arena_slots: Vec::new(),
            free_list_len: Vec::new(),
            spans: Vec::new(),
            jsonl_lines: 0,
            registry: Arc::new(MetricsRegistry::new()),
        }
    }

    #[test]
    fn serial_fraction_and_speedup() {
        // 25 serial + 75 parallel → s = 0.25.
        let p = perf_with(25, &[25, 25, 25]);
        assert!((p.serial_fraction() - 0.25).abs() < 1e-12);
        // Amdahl: k→∞ tends to 1/s = 4; at k=1 speedup is 1.
        assert!((p.predicted_speedup(1) - 1.0).abs() < 1e-12);
        let s4 = p.predicted_speedup(4);
        assert!((s4 - 1.0 / (0.25 + 0.75 / 4.0)).abs() < 1e-12);
        assert!(p.predicted_speedup(1_000_000) < 4.0);
        assert!(p.predicted_speedup(1_000_000) > 3.9);
    }

    #[test]
    fn serial_fraction_edge_cases() {
        assert_eq!(perf_with(0, &[]).serial_fraction(), 0.0);
        assert_eq!(perf_with(100, &[0]).serial_fraction(), 1.0);
        // Fully serial: no speedup at any k.
        assert!((perf_with(100, &[0]).predicted_speedup(8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worker_perf_accumulates_and_caps_spans() {
        let epoch = Instant::now();
        let mut w = WorkerPerf::new(2, epoch, 2, 10);
        w.record_work(0, 10, 0, 5_000); // slot 10: spans on
        w.record_wait(0, 10, 5_000, 7_000);
        w.record_work(3, 11, 7_000, 9_000); // slot 11: spans on
        w.record_work(0, 12, 9_000, 20_000); // slot 12: beyond span_slots
        assert_eq!(w.phases.work_ns[0], 16_000);
        assert_eq!(w.phases.work_ns[3], 2_000);
        assert_eq!(w.phases.wait_ns[0], 2_000);
        assert_eq!(w.spans.len(), 3, "slot 12 must not add spans");
        assert_eq!(w.spans[0].name, "a1_ship");
        assert_eq!(w.spans[1].name, "wait_alpha");
        assert_eq!(w.spans[2].name, "b");
        assert!(w.spans.iter().all(|s| s.track == 2));
    }

    #[test]
    fn assemble_publishes_into_registry() {
        let cfg = EnginePerfConfig {
            span_slots: 0,
            sample_every: 1,
            jsonl_path: None,
        };
        let hooks = CoordHooks::new(&cfg, 0).unwrap();
        let epoch = hooks.epoch;
        let mut w0 = WorkerPerf::new(0, epoch, 0, 0);
        w0.phases.work_ns = [10, 20, 0, 30, 0];
        w0.boundary_packets = 7;
        let perf = assemble_perf(hooks, vec![w0], vec![(5, 2)], 1, 100, 1_000);
        assert_eq!(perf.boundary_packets, 7);
        assert_eq!(perf.arena_slots, vec![5]);
        assert_eq!(perf.free_list_len, vec![2]);
        let text = perf.registry.prometheus_text();
        assert!(text.contains("engine_phase_work_ns{phase=\"beta\",worker=\"0\"} 20"));
        assert!(text.contains("engine_boundary_packets{worker=\"0\"} 7"));
        assert!(text.contains("engine_arena_slots{shard=\"0\"} 5"));
    }
}
