//! Spans around every call the benchmark makes into a layer: name,
//! start, end, and the span that caused it. They are kept in memory and
//! written once, when the run ends, as a Chrome trace-event document
//! (open in `chrome://tracing` or Perfetto).

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The run's span log. Ids are indices into [`SpanLog::spans`]; the
/// currently open spans form a stack, so a span's parent is whichever
/// span was open when it started.
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A disabled log still times calls (the timed rounds read the
    /// duration) but keeps nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// wall time in nanoseconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> T) -> (T, u64) {
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start_ns: 0,
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        if let Some(id) = id {
            self.open.push(id);
        }
        let start = Instant::now();
        let out = f(self);
        let wall_ns = start.elapsed().as_nanos() as u64;
        if let Some(id) = id {
            self.open.pop();
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans[id].start_ns = start_ns;
            self.spans[id].end_ns = start_ns + wall_ns;
        }
        (out, wall_ns)
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span on a
    /// single track, with the span id, its parent, its self time and the
    /// workload in `args` so the tree survives the export.
    pub fn chrome_json(&self, workload: &str) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj([
                    ("name", Value::str(s.name.as_str())),
                    ("ph", Value::str("X")),
                    ("pid", Value::count(1)),
                    ("tid", Value::count(1)),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::count(id as u64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::count(p as u64)),
                            ),
                            ("self_us", Value::Num(self.self_ns(id) as f64 / 1e3)),
                            ("workload", Value::str(workload)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::str("ms")),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut log = SpanLog::new(true);
        log.time("outer", |log| {
            log.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            log.time("inner2", |_| ());
        });
        log.time("sibling", |_| ());
        let parents: Vec<_> = log.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        let outer = log.spans[0].end_ns - log.spans[0].start_ns;
        assert!(log.self_ns(0) < outer && log.self_ns(1) >= 2_000_000);

        let doc = json::parse(&log.chrome_json("w")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn disabled_log_times_but_keeps_nothing() {
        let mut log = SpanLog::new(false);
        let (v, ns) = log.time("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(ns >= 1_000_000 && log.spans.is_empty());
    }
}
