//! The three timed arms and the correctness gate every run passes
//! through. A run that panics, returns a `NetError` or disagrees with
//! the serial engine is a *failed run* — counted, reported, never a
//! crash of the benchmark and never a timing sample.

use crate::spans::SpanLog;
use crate::workloads::{Mode, Window, Workload};
use priority_star::prelude::*;
use pstar_net::{run_net, ClockMode, NetConfig, NetReport};
use pstar_stats::Summary;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One workload instantiated for a seed.
pub struct Case {
    pub workload: &'static Workload,
    pub topo: Torus,
    pub spec: ScenarioSpec,
    /// The timed window: what every arm of every round runs.
    pub cfg: SimConfig,
    /// The full window of the one run the simulated metrics come from.
    pub sim_cfg: SimConfig,
}

impl Case {
    pub fn new(workload: &'static Workload, seed: u64, mode: Mode) -> Self {
        Self {
            workload,
            topo: workload.topo(),
            spec: workload.spec(),
            cfg: workload.sim_config(seed, mode, Window::Timed),
            sim_cfg: workload.sim_config(seed, mode, Window::Simulated),
        }
    }

    /// The configuration `run_scenario` hands its engine: the spec's
    /// packet-length law and scenario override the config's.
    pub fn engine_cfg(&self) -> SimConfig {
        SimConfig {
            lengths: self.spec.lengths,
            scenario: self.spec.scenario,
            ..self.cfg
        }
    }

    /// `run_net` on the virtual clock, the arm's configuration with
    /// telemetry on or off.
    pub fn run_net(&self, perf: bool) -> Result<NetReport, pstar_net::NetError> {
        run_net(
            &self.topo,
            self.spec.build_scheme(&self.topo),
            self.spec.mix(&self.topo),
            NetConfig {
                workers: 2,
                mode: ClockMode::Virtual,
                perf,
                ..NetConfig::new(self.engine_cfg())
            },
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Serial,
    ShardedS1,
    NetW2,
}

impl Arm {
    /// Round order: the arms run back to back so drift hits all alike.
    pub const ALL: [Arm; 3] = [Arm::Serial, Arm::ShardedS1, Arm::NetW2];

    pub fn label(self) -> &'static str {
        match self {
            Arm::Serial => "serial",
            Arm::ShardedS1 => "sharded_s1",
            Arm::NetW2 => "net_w2",
        }
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(out) => out.map_err(|e| format!("{what}: {e}")),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("{what}: panicked: {msg}"))
        }
    }
}

/// One untraced run of `arm`: its report and host wall time.
pub fn run_arm(case: &Case, arm: Arm, spans: &mut SpanLog) -> Result<(SimReport, u64), String> {
    let (out, wall_ns) = spans.time(arm.label(), |_| {
        guarded(arm.label(), || match arm {
            Arm::Serial => Ok(run_scenario(&case.topo, &case.spec, case.cfg)),
            Arm::ShardedS1 => Ok(run_scenario_sharded(
                &case.topo, &case.spec, case.cfg, 1, 1, None,
            )),
            Arm::NetW2 => case
                .run_net(false)
                .map(|r| r.report)
                .map_err(|e| e.to_string()),
        })
    });
    out.map(|report| (report, wall_ns))
}

/// The serial engine once over the full window, untimed: where the two
/// simulated metrics come from, so that their seed-to-seed spread is that
/// of ISSUE 11's slot counts and not of the timed quarter.
pub fn run_sim_window(case: &Case, spans: &mut SpanLog) -> Result<SimReport, String> {
    let name = "serial_sim_window";
    let (out, _) = spans.time(name, |_| {
        guarded(name, || {
            Ok(run_scenario(&case.topo, &case.spec, case.sim_cfg))
        })
    });
    out.and_then(|report| {
        check_serial(&report, None)?;
        Ok(report)
    })
}

/// The report fields the arms are compared on, and the digest's input.
#[derive(Debug, Clone, PartialEq)]
pub struct Compared {
    pub stable: bool,
    pub completed: bool,
    pub slots_run: u64,
    pub measured_broadcasts: u64,
    pub measured_unicasts: u64,
    pub window_transmissions: u64,
    pub dropped_packets: u64,
    pub lost_receptions: u64,
    pub damaged_broadcasts: u64,
    pub dropped_unicasts: u64,
    pub reception_delay: Summary,
    pub unicast_delay: Summary,
    pub broadcast_delay: Summary,
}

impl Compared {
    pub fn of(r: &SimReport) -> Self {
        Self {
            stable: r.stable,
            completed: r.completed,
            slots_run: r.slots_run,
            measured_broadcasts: r.measured_broadcasts,
            measured_unicasts: r.measured_unicasts,
            window_transmissions: r.window_transmissions,
            dropped_packets: r.dropped_packets,
            lost_receptions: r.lost_receptions,
            damaged_broadcasts: r.damaged_broadcasts,
            dropped_unicasts: r.dropped_unicasts,
            reception_delay: r.reception_delay,
            unicast_delay: r.unicast_delay,
            broadcast_delay: r.broadcast_delay,
        }
    }

    /// The `Debug` text is the canonical form: it spells every float
    /// with all its digits and is NaN-safe where `==` is not.
    fn canonical(&self) -> String {
        format!("{self:?}")
    }

    /// FNV-1a of the compared fields, so two commits' simulated
    /// statistics can be diffed from their printed records.
    pub fn digest(&self) -> String {
        format!("{:016x}", pstar_obs::fnv1a64(self.canonical().as_bytes()))
    }

    /// Measured deliveries: broadcast receptions plus unicast arrivals.
    pub fn delivered(&self) -> u64 {
        self.reception_delay.count + self.unicast_delay.count
    }

    /// Mean delay over all measured deliveries — the paper's Figs. 2–8
    /// quantity, for whichever traffic kinds the workload carries.
    pub fn delivery_delay_mean(&self) -> f64 {
        let (r, u) = (&self.reception_delay, &self.unicast_delay);
        let weighted = |s: &Summary| {
            if s.count == 0 {
                0.0
            } else {
                s.mean * s.count as f64
            }
        };
        (weighted(r) + weighted(u)) / self.delivered() as f64
    }

    pub fn same_as(&self, other: &Compared, what: &str) -> Result<(), String> {
        if self.canonical() == other.canonical() {
            Ok(())
        } else {
            Err(format!("{what}: {self:?} != {other:?}"))
        }
    }
}

pub fn check_serial(report: &SimReport, first: Option<&Compared>) -> Result<(), String> {
    if !report.ok() {
        return Err(format!(
            "serial run not ok (stable={}, completed={})",
            report.stable, report.completed
        ));
    }
    match first {
        Some(first) => Compared::of(report).same_as(first, "serial differs from its first round"),
        None => Ok(()),
    }
}

/// The sharded engine's contract is bit-identity with serial.
pub fn check_sharded(serial: &Compared, sharded: &SimReport) -> Result<(), String> {
    Compared::of(sharded).same_as(serial, "sharded_s1 differs from serial")
}

/// Whether two counts of the same Poisson stream, drawn on independent
/// sample paths, are within five standard deviations of each other.
fn poisson_close(a: u64, b: u64) -> bool {
    (a as f64 - b as f64).abs() <= 5.0 * ((a + b) as f64).sqrt()
}

/// The runtime's documented contract: exact delivered and measured
/// counts on broadcast-only workloads. With unicast in the mix its
/// tie-break draws interleave with the arrival draws differently, so the
/// two backends see different sample paths of the same process:
/// agreement is statistical (task counts within 5 sigma, mean delivery
/// delay within 10 %), every measured task must still be delivered in
/// full, and a seeded run must repeat itself exactly.
pub fn check_net(
    case: &Case,
    serial: &Compared,
    net: &SimReport,
    first: Option<&Compared>,
) -> Result<(), String> {
    let got = Compared::of(net);
    if !case.workload.has_unicast() {
        let counts = |c: &Compared| {
            (
                c.measured_broadcasts,
                c.measured_unicasts,
                c.reception_delay.count,
                c.unicast_delay.count,
            )
        };
        if counts(&got) != counts(serial) {
            return Err(format!(
                "net_w2 counts {:?} != serial {:?}",
                counts(&got),
                counts(serial)
            ));
        }
        return Ok(());
    }
    if !net.ok() {
        return Err("net_w2 run not ok".to_string());
    }
    let receivers = u64::from(case.topo.node_count()) - 1;
    if got.delivered() != got.measured_broadcasts * receivers + got.measured_unicasts {
        return Err(format!(
            "net_w2 did not deliver every measured task in full: {got:?}"
        ));
    }
    if !poisson_close(got.measured_broadcasts, serial.measured_broadcasts)
        || !poisson_close(got.measured_unicasts, serial.measured_unicasts)
    {
        return Err(format!(
            "net_w2 measured task counts more than 5 sigma off: {got:?} vs {serial:?}"
        ));
    }
    let (d_net, d_serial) = (got.delivery_delay_mean(), serial.delivery_delay_mean());
    if (d_net - d_serial).abs() > 0.10 * d_serial {
        return Err(format!(
            "net_w2 mean delivery delay {d_net} vs serial {d_serial} (more than 10 % apart)"
        ));
    }
    match first {
        Some(first) => got.same_as(first, "net_w2 differs from its first round"),
        None => Ok(()),
    }
}

/// Runs attempted and failed, with the first few reasons kept for the
/// record.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one run; hands back what it produced if it passed.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED RUN: {why}");
                if self.failures.len() < 8 {
                    self.failures.push(why);
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn serial(case: &Case) -> SimReport {
        run_arm(case, Arm::Serial, &mut SpanLog::new(false))
            .unwrap()
            .0
    }

    #[test]
    fn every_workload_is_stable_and_every_arm_agrees_at_smoke_size() {
        for w in &WORKLOADS {
            for seed in [1, 2] {
                let case = Case::new(w, seed, Mode::Smoke);
                let mut tally = Tally::default();
                let reference = serial(&case);
                tally.record(check_serial(&reference, None));
                let reference = Compared::of(&reference);
                assert!(reference.delivered() > 0 && reference.delivery_delay_mean() >= 1.0);
                let (sharded, _) =
                    run_arm(&case, Arm::ShardedS1, &mut SpanLog::new(false)).unwrap();
                tally.record(check_sharded(&reference, &sharded));
                let (net, _) = run_arm(&case, Arm::NetW2, &mut SpanLog::new(false)).unwrap();
                tally.record(check_net(&case, &reference, &net, None));
                let (again, _) = run_arm(&case, Arm::NetW2, &mut SpanLog::new(false)).unwrap();
                let first = Compared::of(&net);
                tally.record(check_net(&case, &reference, &again, Some(&first)));
                assert_eq!(
                    (tally.attempted, tally.failed),
                    (4, 0),
                    "{} seed {seed}: {:?}",
                    w.name,
                    tally.failures
                );
            }
        }
    }

    #[test]
    fn a_report_from_another_seed_is_a_failed_run_not_a_pass_or_an_abort() {
        let w = &WORKLOADS[0];
        let reference = Compared::of(&serial(&Case::new(w, 1, Mode::Smoke)));
        let other = Case::new(w, 2, Mode::Smoke);
        let (sharded, _) = run_arm(&other, Arm::ShardedS1, &mut SpanLog::new(false)).unwrap();
        let (net, _) = run_arm(&other, Arm::NetW2, &mut SpanLog::new(false)).unwrap();
        let mut tally = Tally::default();
        assert!(tally.record(check_sharded(&reference, &sharded)).is_none());
        assert!(tally
            .record(check_net(&other, &reference, &net, None))
            .is_none());
        assert!(tally
            .record(check_serial(&serial(&other), Some(&reference)))
            .is_none());
        assert_eq!(
            (tally.attempted, tally.failed, tally.failures.len()),
            (3, 3, 3)
        );
        assert_ne!(reference.digest(), Compared::of(&sharded).digest());
    }

    #[test]
    fn a_panicking_run_is_an_error_not_a_crash() {
        let out: Result<(), String> = guarded("arm", || panic!("boom"));
        assert_eq!(out.unwrap_err(), "arm: panicked: boom");
        let mut tally = Tally::default();
        assert!(tally
            .record(guarded("arm", || Err::<(), _>("refused".to_string())))
            .is_none());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn digest_is_stable_across_identical_runs() {
        let case = Case::new(&WORKLOADS[3], 1, Mode::Smoke);
        let (a, b) = (Compared::of(&serial(&case)), Compared::of(&serial(&case)));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest().len(), 16);
    }
}
