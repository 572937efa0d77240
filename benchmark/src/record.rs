//! Record sets on disk and `--compare`.
//!
//! A set file holds one record per workload. Running a workload replaces
//! that workload's record and leaves the others; a smoke run refuses to
//! replace a full one, so a committed or carefully measured set cannot
//! be clobbered by a test run.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::run::SCHEMA;
use std::path::Path;

pub fn read_set(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} record set", path.display()));
    }
    doc.get("records")
        .and_then(|r| r.as_arr())
        .map(|r| r.to_vec())
        .ok_or_else(|| format!("{}: no records", path.display()))
}

fn text<'a>(record: &'a Value, key: &str) -> &'a str {
    record.get(key).and_then(|v| v.as_str()).unwrap_or("")
}

/// Puts `record` into the set at `path`, replacing its workload's
/// previous record. An unreadable or foreign file is an error, not
/// something to overwrite, and so is a smoke record where a full one is.
pub fn write_into_set(path: &Path, record: &Value) -> Result<(), String> {
    let mut records = if path.exists() {
        read_set(path)?
    } else {
        Vec::new()
    };
    let workload = text(record, "workload").to_string();
    let holds_full = records
        .iter()
        .any(|r| text(r, "workload") == workload && text(r, "mode") == "full");
    if text(record, "mode") == "smoke" && holds_full {
        return Err(format!(
            "{}: holds a full record for {workload}; a smoke run will not replace it",
            path.display()
        ));
    }
    records.retain(|r| text(r, "workload") != workload);
    records.push(record.clone());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // One record per line keeps the file diffable.
    let mut out = format!("{{\"schema\": \"{SCHEMA}\", \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&r.render());
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// One compared value.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`: positive is worse (every end-to-end metric is
    /// lower-is-better).
    pub rel: f64,
    pub bound: f64,
}

impl Row {
    pub fn regressed(&self) -> bool {
        // A missing value cannot be shown to be within bound.
        self.rel.is_nan() || self.rel > self.bound
    }
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose simulated statistics (either window's digest)
    /// differ although seed and mode are the same: routing changed,
    /// whatever the timings say.
    pub digest_mismatches: Vec<String>,
    /// Workloads present in only one set.
    pub unmatched: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|r| !r.regressed())
            && self.digest_mismatches.is_empty()
            && self.unmatched.is_empty()
    }
}

/// Compares set `b` (the change) against set `a` (the parent), workload
/// by workload and end-to-end metric by metric.
pub fn compare(a: &[Value], b: &[Value]) -> Comparison {
    let mut out = Comparison {
        rows: Vec::new(),
        digest_mismatches: Vec::new(),
        unmatched: Vec::new(),
    };
    let value = |r: &Value, metric: &str| {
        r.get("end_to_end")
            .and_then(|e| e.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN)
    };
    for ra in a {
        let workload = text(ra, "workload");
        let Some(rb) = b.iter().find(|r| text(r, "workload") == workload) else {
            out.unmatched.push(workload.to_string());
            continue;
        };
        for m in &END_TO_END {
            let (va, vb) = (value(ra, m.name), value(rb, m.name));
            out.rows.push(Row {
                workload: workload.to_string(),
                metric: m.name,
                a: va,
                b: vb,
                rel: (vb - va) / va,
                bound: m.bound,
            });
        }
        let same_inputs = ra.get("seed") == rb.get("seed") && ra.get("mode") == rb.get("mode");
        let digests_differ = ["serial_report_digest", "sim_report_digest"]
            .iter()
            .any(|digest| ra.get(digest) != rb.get(digest));
        if same_inputs && digests_differ {
            out.digest_mismatches.push(workload.to_string());
        }
    }
    for rb in b {
        if !a
            .iter()
            .any(|r| text(r, "workload") == text(rb, "workload"))
        {
            out.unmatched.push(text(rb, "workload").to_string());
        }
    }
    out
}

pub fn print_comparison(c: &Comparison) {
    println!(
        "{:<20} {:<32} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "rel", "bound"
    );
    for r in &c.rows {
        println!(
            "{:<20} {:<32} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.rel * 100.0,
            r.bound * 100.0,
            if r.regressed() { "  REGRESSED" } else { "" }
        );
    }
    for w in &c.digest_mismatches {
        println!("{w}: a report digest differs under the same seed and mode — simulated statistics changed");
    }
    for w in &c.unmatched {
        println!("{w}: present in only one set");
    }
    println!("{}", if c.passed() { "PASS" } else { "FAIL" });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record with every end-to-end metric at `base`, except
    /// `serial_ns_per_hop` scaled by `serial_scale`.
    fn record(workload: &str, mode: &str, serial_scale: f64, digest: &str) -> Value {
        let metrics = END_TO_END.iter().map(|m| {
            let v = if m.name == "serial_ns_per_hop" {
                80.0 * serial_scale
            } else {
                80.0
            };
            (
                m.name,
                Value::obj([("value", Value::Num(v)), ("unit", Value::str(m.unit))]),
            )
        });
        Value::obj([
            ("workload", Value::str(workload)),
            ("mode", Value::str(mode)),
            ("seed", Value::count(1)),
            ("serial_report_digest", Value::str(digest)),
            ("end_to_end", Value::obj(metrics)),
        ])
    }

    fn serial_bound() -> f64 {
        END_TO_END
            .iter()
            .find(|m| m.name == "serial_ns_per_hop")
            .unwrap()
            .bound
    }

    #[test]
    fn flags_a_regression_just_over_the_bound_and_passes_one_just_under() {
        let a = [record("w", "full", 1.0, "d")];
        let over = compare(&a, &[record("w", "full", 1.0 + serial_bound() + 0.01, "d")]);
        assert!(!over.passed());
        let bad: Vec<_> = over.rows.iter().filter(|r| r.regressed()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "serial_ns_per_hop");
        let under = compare(&a, &[record("w", "full", 1.0 + serial_bound() - 0.01, "d")]);
        assert!(under.passed());
        // Getting faster is never a regression.
        assert!(compare(&a, &[record("w", "full", 0.5, "d")]).passed());
    }

    #[test]
    fn changed_simulated_statistics_fail_whatever_the_timings_say() {
        let c = compare(
            &[record("w", "full", 1.0, "d1")],
            &[record("w", "full", 1.0, "d2")],
        );
        assert_eq!(c.digest_mismatches, ["w"]);
        assert!(!c.passed());
    }

    #[test]
    fn missing_values_and_missing_workloads_fail() {
        let mut broken = record("w", "full", 1.0, "d");
        if let Value::Obj(fields) = &mut broken {
            fields.retain(|(k, _)| k != "end_to_end");
        }
        assert!(!compare(&[record("w", "full", 1.0, "d")], &[broken]).passed());
        let c = compare(
            &[record("w", "full", 1.0, "d")],
            &[record("x", "full", 1.0, "d")],
        );
        assert_eq!(c.unmatched, ["w", "x"]);
        assert!(!c.passed());
        assert!(!compare(&[], &[]).passed());
    }

    #[test]
    fn sets_round_trip_and_smoke_never_replaces_full() {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let path = dir.join("set.json");
        write_into_set(&path, &record("w1", "full", 1.0, "d")).unwrap();
        write_into_set(&path, &record("w2", "smoke", 1.0, "d")).unwrap();
        // Same workload again: replaced, not appended.
        write_into_set(&path, &record("w2", "smoke", 2.0, "d")).unwrap();
        let set = read_set(&path).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set[1], record("w2", "smoke", 2.0, "d"));

        assert!(write_into_set(&path, &record("w1", "smoke", 1.0, "d")).is_err());
        assert_eq!(read_set(&path).unwrap()[0], record("w1", "full", 1.0, "d"));

        // A file that is not a record set is refused, not overwritten.
        let foreign = dir.join("foreign.json");
        std::fs::write(&foreign, "{\"schema\": \"other\"}").unwrap();
        assert!(write_into_set(&foreign, &record("w", "full", 1.0, "d")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
