//! A lock-free metrics registry for *execution-machinery* telemetry.
//!
//! The trace/series/manifest layers of this crate observe the *simulated
//! network*; this module observes the machinery that runs it — the
//! sharded engine's 5-barrier slot protocol and `pstar-net`'s worker
//! loop. Three primitive instruments, all recordable concurrently
//! without locks:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`;
//! * [`Gauge`] — a signed level with a high-water mark;
//! * [`Timer`] — a duration recorder backed by the same log-linear
//!   bucket layout as [`pstar_stats::LogHistogram`], but with atomic
//!   bucket counts so many threads can record into one instrument;
//!   [`Timer::to_log_histogram`] converts back for quantile plumbing.
//!
//! Instruments are created through a [`MetricsRegistry`], keyed by
//! `(name, labels)` — labels carry shard / worker / phase ids. The
//! *registration* path takes a mutex (it runs once, at setup); the
//! *recording* path is plain atomics, which is what "lock-free" means
//! here. Two exporters:
//!
//! * [`MetricsRegistry::prometheus_text`] — the Prometheus text
//!   exposition format, for a file or stdout snapshot;
//! * [`JsonlSink`] — a streaming snapshot sink: one JSON line per
//!   sample, written every N slots. Memory is bounded regardless of run
//!   length because nothing is retained — lines go straight to the
//!   writer.
//!
//! The house telemetry rule applies to every integration point: when
//! disabled the engines pay one never-taken branch, recording never
//! touches the RNG, and reports are bit-identical on/off (pinned by the
//! `tests/perf.rs` proptests, the same way `tests/obs.rs` pins traces).

use pstar_stats::LogHistogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-buckets-per-octave precision of [`Timer`]s: `2^5` sub-buckets,
/// so quantile relative error is at most `2^-5 ≈ 3.1%` at ~15 KiB per
/// timer — coarse enough to afford one timer per (worker, phase) label
/// set, precise enough for phase-breakdown tables.
pub const TIMER_SUB_BITS: u32 = 5;

/// Number of atomic buckets a [`Timer`] carries (the
/// [`pstar_stats::LogHistogram`] layout at [`TIMER_SUB_BITS`]).
const TIMER_BUCKETS: usize = ((64 - TIMER_SUB_BITS as usize) + 1) << TIMER_SUB_BITS;

/// Bucket index for `value` — the same mapping
/// [`pstar_stats::LogHistogram`] uses at [`TIMER_SUB_BITS`] precision,
/// reimplemented here because the histogram's indexing is private and
/// its bucket array is not atomic.
#[inline(always)]
fn timer_index(value: u64) -> usize {
    let m = TIMER_SUB_BITS;
    if value < (1 << m) {
        value as usize
    } else {
        let e = 63 - value.leading_zeros();
        let sub = (value ^ (1u64 << e)) >> (e - m);
        (((e - m + 1) as usize) << m) + sub as usize
    }
}

/// Upper inclusive edge of bucket `i` (largest value mapping to it).
fn timer_upper_edge(i: usize) -> u64 {
    let m = TIMER_SUB_BITS;
    if i < (1usize << m) {
        i as u64
    } else {
        let e = (i >> m) as u32 + m - 1;
        let sub = (i & ((1 << m) - 1)) as u64;
        (1u64 << e) - 1 + ((sub + 1) << (e - m))
    }
}

/// A monotonically increasing event count. All operations are single
/// atomic instructions; any thread holding the `Arc` may record.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level (queue depth, arena occupancy) with a high-water
/// mark maintained on every raise.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
            high: AtomicI64::new(0),
        }
    }

    /// Sets the level, updating the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta`, updating the high-water mark.
    #[inline]
    pub fn add(&self, delta: i64) {
        let v = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest level ever set/reached.
    pub fn high_water(&self) -> i64 {
        self.high.load(Ordering::Relaxed)
    }
}

/// A concurrent duration recorder: atomic count/sum/min/max plus
/// [`pstar_stats::LogHistogram`]-layout atomic buckets for quantiles.
///
/// Many threads may [`Timer::record_ns`] concurrently; a snapshot taken
/// while recorders are active is a coherent histogram of *some* prefix
/// of the recorded values (each bucket is atomically consistent), which
/// is exactly what a streaming sampler needs.
#[derive(Debug)]
pub struct Timer {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Timer {
    /// An empty timer.
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: (0..TIMER_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one duration in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[timer_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations (ns).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Smallest recorded duration (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min_ns.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded duration.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// `q`-quantile from the atomic buckets (upper bucket edge, clamped
    /// to the recorded max — same contract as
    /// [`pstar_stats::LogHistogram::quantile`]). Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return timer_upper_edge(i).min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Converts the atomic buckets into a [`pstar_stats::LogHistogram`]
    /// (at [`TIMER_SUB_BITS`] precision) by replaying each bucket's
    /// count at its upper edge — the edge maps back into the same
    /// bucket, so quantiles agree with [`Timer::quantile_ns`] exactly.
    pub fn to_log_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::with_sub_bits(TIMER_SUB_BITS);
        for (i, b) in self.buckets.iter().enumerate() {
            h.record_n(timer_upper_edge(i), b.load(Ordering::Relaxed));
        }
        h
    }
}

impl Default for Timer {
    fn default() -> Self {
        Self::new()
    }
}

/// The instrument behind one registry entry.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Timer(Arc<Timer>),
}

/// One registered metric: name, sorted labels, instrument.
#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

impl Entry {
    /// `name{k="v",…}` identity string (Prometheus-style), used both as
    /// the JSONL key and for dedup.
    fn identity(&self) -> String {
        let mut s = self.name.clone();
        if !self.labels.is_empty() {
            s.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{k}=\"{v}\"");
            }
            s.push('}');
        }
        s
    }
}

/// A registry of labeled instruments.
///
/// Creation ([`MetricsRegistry::counter`] and friends) takes an
/// internal mutex and deduplicates by `(name, labels)`: asking twice
/// returns the same `Arc`, so families are implicit — register
/// `phase_work_ns{worker="3", phase="a1"}` from wherever is convenient.
/// Recording through the returned `Arc`s never takes the mutex.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn find_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return e.instrument.clone();
        }
        let instrument = make();
        entries.push(Entry {
            name: name.to_string(),
            labels,
            instrument: instrument.clone(),
        });
        instrument
    }

    /// The counter `name{labels}`, created on first use.
    ///
    /// # Panics
    /// Panics if `name{labels}` is already registered as a different
    /// instrument kind — that is a programming error, not a data race.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.find_or_insert(name, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// The gauge `name{labels}`, created on first use. Panics on a kind
    /// mismatch like [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.find_or_insert(name, labels, || Instrument::Gauge(Arc::new(Gauge::new()))) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// The timer `name{labels}`, created on first use. Panics on a kind
    /// mismatch like [`MetricsRegistry::counter`].
    pub fn timer(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Timer> {
        match self.find_or_insert(name, labels, || Instrument::Timer(Arc::new(Timer::new()))) {
            Instrument::Timer(t) => t,
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registry in the Prometheus text exposition format: one
    /// `# TYPE` header per metric name (first-registration order),
    /// counters/gauges as plain samples, gauges with a companion
    /// `<name>_high_water` series, timers as summaries
    /// (`quantile="0.5"/"0.99"` samples plus `_sum`/`_count`, sums in
    /// seconds per Prometheus convention).
    pub fn prometheus_text(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(entries.len() * 64);
        let mut seen: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if seen.contains(&e.name.as_str()) {
                continue;
            }
            seen.push(&e.name);
            let kind = match e.instrument {
                Instrument::Counter(_) => "counter",
                Instrument::Gauge(_) => "gauge",
                Instrument::Timer(_) => "summary",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", e.name);
            for s in entries.iter().filter(|s| s.name == e.name) {
                let labels = |extra: &str| -> String {
                    let mut l = String::new();
                    for (k, v) in &s.labels {
                        if !l.is_empty() {
                            l.push(',');
                        }
                        let _ = write!(l, "{k}=\"{v}\"");
                    }
                    if !extra.is_empty() {
                        if !l.is_empty() {
                            l.push(',');
                        }
                        l.push_str(extra);
                    }
                    if l.is_empty() {
                        l
                    } else {
                        format!("{{{l}}}")
                    }
                };
                match &s.instrument {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", s.name, labels(""), c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", s.name, labels(""), g.get());
                        let _ = writeln!(
                            out,
                            "{}_high_water{} {}",
                            s.name,
                            labels(""),
                            g.high_water()
                        );
                    }
                    Instrument::Timer(t) => {
                        for q in [0.5, 0.99] {
                            let _ = writeln!(
                                out,
                                "{}{} {:e}",
                                s.name,
                                labels(&format!("quantile=\"{q}\"")),
                                t.quantile_ns(q) as f64 / 1e9
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{} {:e}",
                            s.name,
                            labels(""),
                            t.sum_ns() as f64 / 1e9
                        );
                        let _ = writeln!(out, "{}_count{} {}", s.name, labels(""), t.count());
                    }
                }
            }
        }
        out
    }

    /// One snapshot of every instrument as a single JSON object (no
    /// trailing newline): `{"slot":N,"metrics":{"<identity>":…}}` with
    /// counters as integers, gauges as `{"value","high_water"}` and
    /// timers as `{"count","sum_ns","min_ns","max_ns","p50_ns","p99_ns"}`.
    pub fn snapshot_json(&self, slot: u64) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = String::with_capacity(entries.len() * 48);
        let _ = write!(s, "{{\"slot\":{slot},\"metrics\":{{");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":", e.identity());
            match &e.instrument {
                Instrument::Counter(c) => {
                    let _ = write!(s, "{}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = write!(
                        s,
                        "{{\"value\":{},\"high_water\":{}}}",
                        g.get(),
                        g.high_water()
                    );
                }
                Instrument::Timer(t) => {
                    let _ = write!(
                        s,
                        "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\
                         \"p50_ns\":{},\"p99_ns\":{}}}",
                        t.count(),
                        t.sum_ns(),
                        t.min_ns(),
                        t.max_ns(),
                        t.quantile_ns(0.5),
                        t.quantile_ns(0.99)
                    );
                }
            }
        }
        s.push_str("}}");
        s
    }
}

/// A streaming JSONL snapshot exporter: every `every` slots, one
/// [`MetricsRegistry::snapshot_json`] line goes straight to the writer.
/// Nothing is retained, so memory is bounded regardless of run length —
/// the property the multi-million-node constellation runs need.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    w: W,
    every: u64,
    lines: u64,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// A sink sampling every `every` slots (`every` is clamped to ≥ 1).
    pub fn new(w: W, every: u64) -> Self {
        Self {
            w,
            every: every.max(1),
            lines: 0,
        }
    }

    /// Writes one snapshot line if `slot` is on the sampling grid;
    /// returns whether a line was written.
    pub fn maybe_sample(&mut self, slot: u64, registry: &MetricsRegistry) -> std::io::Result<bool> {
        if !slot.is_multiple_of(self.every) {
            return Ok(false);
        }
        self.sample(slot, registry)?;
        Ok(true)
    }

    /// Unconditionally writes one snapshot line.
    pub fn sample(&mut self, slot: u64, registry: &MetricsRegistry) -> std::io::Result<()> {
        let line = registry.snapshot_json(slot);
        self.w.write_all(line.as_bytes())?;
        self.w.write_all(b"\n")?;
        self.lines += 1;
        Ok(())
    }

    /// Lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Track id marking a [`PhaseSpan`] as the coordinator's (engine) or
/// the deciding worker's (runtime) rather than an ordinary worker's.
pub const COORD_TRACK: u32 = u32::MAX;

/// One timed slice of a slot on one execution track — the raw material
/// of the phase-breakdown Chrome trace
/// ([`crate::chrome_trace_phases`]) and the stacked phase-time SVG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Worker index, or [`COORD_TRACK`] for the coordinator.
    pub track: u32,
    /// Phase name (`"a1"`, `"wait_alpha"`, `"merge"`, …).
    pub name: &'static str,
    /// Microseconds since the run's instrumentation epoch.
    pub start_us: u64,
    /// Span length in microseconds.
    pub dur_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(5);
        g.add(-3);
        g.add(10);
        assert_eq!(g.get(), 12);
        assert_eq!(g.high_water(), 12);
        g.set(1);
        assert_eq!(g.high_water(), 12, "high-water survives a drop");
    }

    #[test]
    fn timer_quantiles_match_loghistogram() {
        let t = Timer::new();
        let mut reference = LogHistogram::with_sub_bits(TIMER_SUB_BITS);
        for v in [0u64, 1, 17, 100, 1_000, 65_535, 1 << 33, u64::MAX] {
            t.record_ns(v);
            reference.record(v);
        }
        assert_eq!(t.count(), 8);
        assert_eq!(t.min_ns(), 0);
        assert_eq!(t.max_ns(), u64::MAX);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(t.quantile_ns(q), reference.quantile(q), "q={q}");
        }
        // Round-tripping through a LogHistogram preserves quantiles.
        let h = t.to_log_histogram();
        assert_eq!(h.count(), 8);
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(h.quantile(q), t.quantile_ns(q), "roundtrip q={q}");
        }
    }

    #[test]
    fn timer_empty_reads_zero() {
        let t = Timer::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.min_ns(), 0);
        assert_eq!(t.max_ns(), 0);
        assert_eq!(t.quantile_ns(0.5), 0);
    }

    #[test]
    fn registry_dedups_by_name_and_labels() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("worker", "0"), ("phase", "a1")]);
        // Label order must not matter: the key is sorted.
        let b = reg.counter("x", &[("phase", "a1"), ("worker", "0")]);
        assert!(Arc::ptr_eq(&a, &b));
        let c = reg.counter("x", &[("worker", "1"), ("phase", "a1")]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_mismatch() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", &[]);
        let _ = reg.gauge("x", &[]);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter("phase_work_ns", &[("worker", "0"), ("phase", "a1")])
            .add(100);
        reg.counter("phase_work_ns", &[("worker", "1"), ("phase", "a1")])
            .add(200);
        reg.gauge("arena_slots", &[("shard", "0")]).set(7);
        reg.timer("slot_time_ns", &[]).record_ns(1_000);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE phase_work_ns counter"));
        assert!(text.contains("phase_work_ns{phase=\"a1\",worker=\"0\"} 100"));
        assert!(text.contains("phase_work_ns{phase=\"a1\",worker=\"1\"} 200"));
        assert!(text.contains("# TYPE arena_slots gauge"));
        assert!(text.contains("arena_slots{shard=\"0\"} 7"));
        assert!(text.contains("arena_slots_high_water{shard=\"0\"} 7"));
        assert!(text.contains("# TYPE slot_time_ns summary"));
        assert!(text.contains("slot_time_ns{quantile=\"0.5\"}"));
        assert!(text.contains("slot_time_ns_count 1"));
        // One TYPE header per name, not per labeled series.
        assert_eq!(text.matches("# TYPE phase_work_ns").count(), 1);
    }

    #[test]
    fn jsonl_sink_samples_on_grid_and_streams() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("slots", &[]);
        let mut sink = JsonlSink::new(Vec::new(), 10);
        for slot in 0..25u64 {
            c.inc();
            sink.maybe_sample(slot, &reg).unwrap();
        }
        assert_eq!(sink.lines_written(), 3, "slots 0, 10, 20");
        let buf = sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"slot\":0,"));
        assert!(lines[1].starts_with("{\"slot\":10,"));
        assert!(lines[2].contains("\"slots\":21"));
    }

    #[test]
    fn snapshot_json_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("k", "v")]).add(3);
        reg.gauge("g", &[]).set(-4);
        reg.timer("t", &[]).record_ns(500);
        let json = reg.snapshot_json(7);
        assert!(json.starts_with("{\"slot\":7,\"metrics\":{"));
        assert!(json.contains("\"c{k=\"v\"}\":3"));
        assert!(json.contains("\"g\":{\"value\":-4,\"high_water\":0}"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"sum_ns\":500"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for w in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("ops", &[]);
                let t = reg.timer("lat", &[("worker", &w.to_string())]);
                for i in 0..1_000u64 {
                    c.inc();
                    t.record_ns(i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("ops", &[]).get(), 4_000);
        for w in 0..4 {
            assert_eq!(
                reg.timer("lat", &[("worker", &w.to_string())]).count(),
                1_000
            );
        }
    }
}
