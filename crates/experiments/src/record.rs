//! JSON-lines run records, for downstream tooling (plotting scripts,
//! regression dashboards) that wants more than the per-figure CSV
//! columns.
//!
//! Serialization is hand-rolled (field order = declaration order, like a
//! serde derive would emit) because the offline build has no serde.

use pstar_obs::{escape_json, json_f64};
use pstar_sim::SimReport;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

/// One simulation point, flattened for serialization.
#[derive(Debug)]
pub struct PointRecord {
    /// Experiment id (e.g. "fig2").
    pub experiment: String,
    /// Topology, e.g. "torus(8x8)".
    pub topology: String,
    /// Scheme label.
    pub scheme: String,
    /// Offered throughput factor.
    pub rho: f64,
    /// Broadcast share of the offered load.
    pub broadcast_fraction: f64,
    /// Run outcome.
    pub stable: bool,
    /// All tagged tasks completed.
    pub completed: bool,
    /// Mean reception delay (slots).
    pub reception_delay: f64,
    /// Mean broadcast delay (slots).
    pub broadcast_delay: f64,
    /// Mean unicast delay (slots).
    pub unicast_delay: f64,
    /// Measured mean link utilization.
    pub mean_utilization: f64,
    /// Measured max link utilization.
    pub max_utilization: f64,
    /// Per-class (utilization, mean wait).
    pub classes: Vec<(f64, f64)>,
    /// Time-average concurrent broadcast tasks.
    pub concurrent_broadcasts: f64,
    /// Time-average concurrent unicast tasks.
    pub concurrent_unicasts: f64,
    /// Packets dropped (buffer overflow or faulted links).
    pub dropped_packets: u64,
    /// Receptions cancelled by those drops.
    pub lost_receptions: u64,
    /// Broadcasts that lost at least one reception.
    pub damaged_broadcasts: u64,
    /// ARQ retransmissions re-injected (0 when recovery is disabled).
    pub retransmissions: u64,
    /// Receptions abandoned after exhausting the retry budget.
    pub gave_up_receptions: u64,
    /// Broadcast tasks refused by admission control.
    pub rejected_broadcasts: u64,
    /// Task injections deferred by source backpressure.
    pub deferred_injections: u64,
    /// Packets evicted by the drop-lowest-class full-queue policy.
    pub evicted_packets: u64,
    /// Delivered receptions / (offered + admission-rejected) receptions.
    pub goodput_fraction: f64,
    /// Time-average network-wide queued packets over the window.
    pub mean_queued_packets: f64,
}

impl PointRecord {
    /// Builds a record from a report.
    pub fn new(
        experiment: &str,
        topology: &str,
        scheme: &str,
        rho: f64,
        broadcast_fraction: f64,
        rep: &SimReport,
    ) -> Self {
        Self {
            experiment: experiment.to_string(),
            topology: topology.to_string(),
            scheme: scheme.to_string(),
            rho,
            broadcast_fraction,
            stable: rep.stable,
            completed: rep.completed,
            reception_delay: rep.reception_delay.mean,
            broadcast_delay: rep.broadcast_delay.mean,
            unicast_delay: rep.unicast_delay.mean,
            mean_utilization: rep.mean_link_utilization,
            max_utilization: rep.max_link_utilization,
            classes: rep
                .class
                .iter()
                .map(|c| (c.utilization, c.wait.mean))
                .collect(),
            concurrent_broadcasts: rep.avg_concurrent_broadcasts,
            concurrent_unicasts: rep.avg_concurrent_unicasts,
            dropped_packets: rep.dropped_packets,
            lost_receptions: rep.lost_receptions,
            damaged_broadcasts: rep.damaged_broadcasts,
            retransmissions: rep.recovery.retransmissions,
            gave_up_receptions: rep.recovery.gave_up_receptions,
            rejected_broadcasts: rep.flow.rejected_broadcasts,
            deferred_injections: rep.flow.deferred_injections,
            evicted_packets: rep.flow.evicted_packets,
            goodput_fraction: rep.flow.goodput_fraction,
            mean_queued_packets: rep.flow.mean_queued_packets,
        }
    }

    /// The record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(384);
        let str_field = |s: &mut String, key: &str, val: &str| {
            let _ = write!(s, "\"{key}\":\"");
            escape_json(val, s);
            s.push('"');
            s.push(',');
        };
        s.push('{');
        str_field(&mut s, "experiment", &self.experiment);
        str_field(&mut s, "topology", &self.topology);
        str_field(&mut s, "scheme", &self.scheme);
        let num_field = |s: &mut String, key: &str, val: f64| {
            let _ = write!(s, "\"{key}\":");
            json_f64(val, s);
            s.push(',');
        };
        num_field(&mut s, "rho", self.rho);
        num_field(&mut s, "broadcast_fraction", self.broadcast_fraction);
        let _ = write!(s, "\"stable\":{},", self.stable);
        let _ = write!(s, "\"completed\":{},", self.completed);
        num_field(&mut s, "reception_delay", self.reception_delay);
        num_field(&mut s, "broadcast_delay", self.broadcast_delay);
        num_field(&mut s, "unicast_delay", self.unicast_delay);
        num_field(&mut s, "mean_utilization", self.mean_utilization);
        num_field(&mut s, "max_utilization", self.max_utilization);
        s.push_str("\"classes\":[");
        for (i, (util, wait)) in self.classes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            json_f64(*util, &mut s);
            s.push(',');
            json_f64(*wait, &mut s);
            s.push(']');
        }
        s.push_str("],");
        num_field(&mut s, "concurrent_broadcasts", self.concurrent_broadcasts);
        num_field(&mut s, "concurrent_unicasts", self.concurrent_unicasts);
        let _ = write!(s, "\"dropped_packets\":{},", self.dropped_packets);
        let _ = write!(s, "\"lost_receptions\":{},", self.lost_receptions);
        let _ = write!(s, "\"damaged_broadcasts\":{},", self.damaged_broadcasts);
        let _ = write!(s, "\"retransmissions\":{},", self.retransmissions);
        let _ = write!(s, "\"gave_up_receptions\":{},", self.gave_up_receptions);
        let _ = write!(s, "\"rejected_broadcasts\":{},", self.rejected_broadcasts);
        let _ = write!(s, "\"deferred_injections\":{},", self.deferred_injections);
        let _ = write!(s, "\"evicted_packets\":{},", self.evicted_packets);
        num_field(&mut s, "goodput_fraction", self.goodput_fraction);
        num_field(&mut s, "mean_queued_packets", self.mean_queued_packets);
        // Strip the trailing comma left by num_field.
        s.pop();
        s.push('}');
        s
    }
}

/// Appends records to `<name>.jsonl` in `dir`, propagating I/O errors.
pub fn try_write_jsonl(dir: &Path, name: &str, records: &[PointRecord]) -> std::io::Result<()> {
    let path = dir.join(format!("{name}.jsonl"));
    let mut fh = std::fs::File::create(&path)?;
    for r in records {
        writeln!(fh, "{}", r.to_json())?;
    }
    fh.flush()
}

/// As [`try_write_jsonl`], but exits with a clear message on failure —
/// a sweep's results are gone if its record stream cannot be written,
/// so carrying on (or panicking with a bare `unwrap`) helps nobody.
pub fn write_jsonl(dir: &Path, name: &str, records: &[PointRecord]) {
    if let Err(e) = try_write_jsonl(dir, name, records) {
        crate::fatal(&format!("writing {name}.jsonl"), &e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priority_star::prelude::*;
    use pstar_sim::SimConfig;
    use pstar_traffic::TrafficMix;

    #[test]
    fn record_roundtrips_report_fields() {
        let topo = Torus::new(&[4, 4]);
        let rep = pstar_sim::run(
            &topo,
            StarScheme::priority_star(&topo),
            TrafficMix::broadcast_only(0.01),
            SimConfig::quick(5),
        );
        let rec = PointRecord::new("unit", "torus(4x4)", "priority-star", 0.1, 1.0, &rep);
        assert_eq!(rec.reception_delay, rep.reception_delay.mean);
        assert_eq!(rec.classes.len(), 2);
        let json = rec.to_json();
        assert!(json.contains("\"experiment\":\"unit\""));
        assert!(json.contains("\"dropped_packets\":0"));
        // Recovery/flow fields are present (and inert on a healthy run).
        assert!(json.contains("\"retransmissions\":0"));
        assert!(json.contains("\"rejected_broadcasts\":0"));
        assert!(json.contains("\"goodput_fraction\":1"));
        assert!(json.ends_with('}') && !json.contains(",}"), "{json}");
    }

    #[test]
    fn jsonl_file_has_one_line_per_record() {
        let topo = Torus::new(&[4, 4]);
        let rep = pstar_sim::run(
            &topo,
            StarScheme::fcfs_direct(&topo),
            TrafficMix::broadcast_only(0.01),
            SimConfig::quick(6),
        );
        let recs = vec![
            PointRecord::new("unit", "t", "s", 0.1, 1.0, &rep),
            PointRecord::new("unit", "t", "s", 0.2, 1.0, &rep),
        ];
        let dir = std::env::temp_dir().join("pstar-jsonl-test");
        std::fs::create_dir_all(&dir).unwrap();
        write_jsonl(&dir, "unit", &recs);
        let body = std::fs::read_to_string(dir.join("unit.jsonl")).unwrap();
        assert_eq!(body.lines().count(), 2);
    }

    #[test]
    fn json_handles_escapes_and_non_finite() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
        let mut t = String::new();
        json_f64(f64::NAN, &mut t);
        assert_eq!(t, "null");
    }
}
