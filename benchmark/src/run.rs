//! One workload, start to finish: set-up timing, the full-window serial
//! run behind the simulated metrics, the interleaved timed rounds, memory,
//! the optional traced pass, and the record.

use crate::arms::{
    check_net, check_serial, check_sharded, run_arm, run_sim_window, Arm, Case, Compared, Tally,
};
use crate::estimate::{spread, Spread};
use crate::json::Value;
use crate::layers::{traced_pass, Baseline, Traced};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::workloads::{Mode, Workload};
use priority_star::prelude::*;
use std::hint::black_box;
use std::time::Instant;

pub const SCHEMA: &str = "pstar-benchmark/1";

/// How a timing's gated value is chosen from its rounds.
pub const ESTIMATOR: &str = "best-of-rounds";

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Time budget for measuring, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub mode: Mode,
    /// Exactly this many rounds instead of as many as fit the budget:
    /// what smoke runs and the tests set. The command line has only
    /// `--seconds`.
    pub rounds: Option<usize>,
}

/// A budgeted run never stops before this many rounds.
const MIN_ROUNDS: usize = 3;

/// With `--trace`, the untraced baseline rounds get this share of the
/// budget; the instrumented runs and kernels (fixed work) take the rest.
const TRACED_BASELINE_SHARE: f64 = 0.6;

pub struct Outcome {
    /// The full record, for `benchmark/out/`.
    pub record: Value,
    /// The last line of standard output.
    pub result_line: Value,
    pub correct: bool,
    pub spans: SpanLog,
    pub traced: Option<Traced>,
}

/// Set-up as a caller of the library pays it: the torus, the scheme
/// (the Eq. (2)/(4) solve), the rates, and both engines' construction.
/// Repeated for at least 201 repetitions and a fifth of a second.
fn time_setup(case: &Case) -> Spread {
    let w = case.workload;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 201 || (started.elapsed().as_secs_f64() < 0.2 && samples.len() < 20_001) {
        let t = Instant::now();
        let topo = Torus::new(black_box(w.dims));
        let scheme = case.spec.build_scheme(&topo);
        let mix = case.spec.mix(&topo);
        let engine = pstar_sim::Engine::new(topo.clone(), scheme.clone(), mix, case.cfg);
        let sharded = ShardedEngine::new(topo.clone(), scheme, mix, case.cfg, 1);
        samples.push(t.elapsed().as_secs_f64());
        black_box((&engine, &sharded));
    }
    spread(&samples)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

struct Rounds {
    /// Wall nanoseconds of every passing run, per arm in round order.
    wall_ns: [Vec<f64>; 3],
    /// The first passing serial report and its compared fields: the
    /// reference for every check.
    reference: Option<(SimReport, Compared)>,
    rounds: usize,
}

/// One round: the three arms back to back, each run checked and tallied;
/// only passing runs leave a timing sample.
fn one_round(
    case: &Case,
    out: &mut Rounds,
    first_net: &mut Option<Compared>,
    spans: &mut SpanLog,
    tally: &mut Tally,
) {
    // Serial first: the other arms are checked against it.
    let first_serial = out.reference.as_ref().map(|(_, compared)| compared);
    let serial = run_arm(case, Arm::Serial, spans).and_then(|(report, wall)| {
        check_serial(&report, first_serial)?;
        Ok((report, wall))
    });
    let Some((serial, wall)) = tally.record(serial) else {
        return;
    };
    out.wall_ns[0].push(wall as f64);
    let (_, compared) = out.reference.get_or_insert_with(|| {
        let compared = Compared::of(&serial);
        (serial, compared)
    });

    let sharded = run_arm(case, Arm::ShardedS1, spans).and_then(|(report, wall)| {
        check_sharded(compared, &report)?;
        Ok(wall)
    });
    if let Some(wall) = tally.record(sharded) {
        out.wall_ns[1].push(wall as f64);
    }

    let net = run_arm(case, Arm::NetW2, spans).and_then(|(report, wall)| {
        check_net(case, compared, &report, first_net.as_ref())?;
        first_net.get_or_insert_with(|| Compared::of(&report));
        Ok(wall)
    });
    if let Some(wall) = tally.record(net) {
        out.wall_ns[2].push(wall as f64);
    }
}

fn timed_rounds(
    case: &Case,
    opts: &Options,
    started: Instant,
    budget_s: f64,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Rounds {
    let mut out = Rounds {
        wall_ns: [Vec::new(), Vec::new(), Vec::new()],
        reference: None,
        rounds: 0,
    };
    let mut first_net = None;
    let rounds_started = Instant::now();
    loop {
        spans.time("round", |spans| {
            one_round(case, &mut out, &mut first_net, spans, tally)
        });
        out.rounds += 1;
        let done = match opts.rounds {
            Some(n) => out.rounds >= n,
            None => {
                let per_round = rounds_started.elapsed().as_secs_f64() / out.rounds as f64;
                let next_ends = started.elapsed().as_secs_f64() + per_round;
                out.rounds >= MIN_ROUNDS && next_ends > budget_s
            }
        };
        if done {
            return out;
        }
    }
}

fn timing_json(s: &Spread, value: f64, unit: &str) -> Value {
    // `scale` maps the samples' unit to the reported one.
    let scale = value / s.best;
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
        ("median", Value::Num(s.median * scale)),
        ("q1", Value::Num(s.q1 * scale)),
        ("q3", Value::Num(s.q3 * scale)),
        ("max", Value::Num(s.max * scale)),
        ("rounds", Value::count(s.n as u64)),
    ])
}

fn plain_json(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

/// Runs the workload and assembles its record.
pub fn run(opts: &Options) -> Outcome {
    let started = Instant::now();
    let w = opts.workload;
    let case = Case::new(w, opts.seed, opts.mode);
    let mut spans = SpanLog::new(opts.trace);
    let mut tally = Tally::default();

    let (setup, _) = spans.time("setup", |_| time_setup(&case));
    // Before the rounds, so that they get what is left of the budget.
    let simulated = tally.record(run_sim_window(&case, &mut spans));
    let budget = if opts.trace {
        opts.seconds * TRACED_BASELINE_SHARE
    } else {
        opts.seconds
    };
    let rounds = timed_rounds(&case, opts, started, budget, &mut spans, &mut tally);
    let peak_rss = peak_rss_mib();

    let mut fields: Vec<(String, Value)> = vec![
        ("schema".into(), Value::str(SCHEMA)),
        (
            "git_rev".into(),
            // Only a checkout that is itself a repository is asked: the
            // helper walks up from the working directory and would
            // otherwise leave the checkout.
            if crate::manifest_dir().join("../.git").exists() {
                pstar_obs::git_rev()
            } else {
                None
            }
            .map_or(Value::Null, Value::Str),
        ),
        (
            "host_cores".into(),
            Value::count(std::thread::available_parallelism().map_or(1, |p| p.get()) as u64),
        ),
        ("workload".into(), Value::str(w.name)),
        ("seed".into(), Value::count(opts.seed)),
        ("mode".into(), Value::str(opts.mode.label())),
        ("traced".into(), Value::Bool(opts.trace)),
        ("rounds".into(), Value::count(rounds.rounds as u64)),
        ("estimator".into(), Value::str(ESTIMATOR)),
        ("topology".into(), Value::str(w.topology_label())),
        ("scheme".into(), Value::str(w.scheme.label())),
        ("rho".into(), Value::Num(w.rho)),
        ("broadcast_share".into(), Value::Num(w.broadcast_share)),
        ("warmup_slots".into(), Value::count(case.cfg.warmup_slots)),
        ("measure_slots".into(), Value::count(case.cfg.measure_slots)),
        (
            "sim_warmup_slots".into(),
            Value::count(case.sim_cfg.warmup_slots),
        ),
        (
            "sim_measure_slots".into(),
            Value::count(case.sim_cfg.measure_slots),
        ),
    ];

    let mut end_to_end: Vec<(String, Value)> = Vec::new();
    let mut traced = None;
    let every_arm_ran = rounds.wall_ns.iter().all(|walls| !walls.is_empty());
    if let (Some((serial, compared)), Some(simulated), true) =
        (&rounds.reference, &simulated, every_arm_ran)
    {
        let hops = serial.window_transmissions;
        let sim_compared = Compared::of(simulated);
        let walls: Vec<Spread> = rounds.wall_ns.iter().map(|walls| spread(walls)).collect();
        fields.push(("hops".into(), Value::count(hops)));
        fields.push(("serial_report_digest".into(), Value::str(compared.digest())));
        fields.push((
            "sim_hops".into(),
            Value::count(simulated.window_transmissions),
        ));
        fields.push((
            "sim_report_digest".into(),
            Value::str(sim_compared.digest()),
        ));

        // Values in END_TO_END order; the table supplies names and units.
        let per_hop = |arm: usize| (walls[arm].best / hops as f64, Some(&walls[arm]));
        let values = [
            per_hop(0),
            per_hop(1),
            per_hop(2),
            (setup.best, Some(&setup)),
            (peak_rss, None),
            (sim_compared.delivery_delay_mean(), None),
            (
                simulated.max_link_utilization / simulated.mean_link_utilization,
                None,
            ),
        ];
        for (m, (value, rounds)) in END_TO_END.iter().zip(values) {
            let json = match rounds {
                Some(s) => timing_json(s, value, m.unit),
                None => plain_json(value, m.unit),
            };
            end_to_end.push((m.name.to_string(), json));
        }

        // Printed for readers, not gated: proportional to ns/hop on a
        // fixed workload.
        let mut derived = Vec::new();
        for (arm, s) in Arm::ALL.iter().zip(&walls) {
            let secs = s.best / 1e9;
            derived.push((
                format!("{}_slots_per_s", arm.label()),
                plain_json(serial.slots_run as f64 / secs, "1/s"),
            ));
            derived.push((
                format!("{}_deliveries_per_s", arm.label()),
                plain_json(compared.delivered() as f64 / secs, "1/s"),
            ));
        }
        fields.push(("derived".into(), Value::Obj(derived)));

        if opts.trace {
            let base = Baseline {
                serial,
                compared,
                best_wall_ns: [walls[0].best, walls[1].best, walls[2].best],
            };
            traced = Some(traced_pass(&case, &base, &mut spans, &mut tally));
        }
    }

    let per_layer: Option<Vec<(String, Value)>> = traced.as_ref().map(|t| {
        t.metrics
            .iter()
            .zip(&PER_LAYER)
            .map(|((name, value), decl)| (name.to_string(), plain_json(*value, decl.unit)))
            .collect()
    });

    fields.push(("runs_attempted".into(), Value::count(tally.attempted)));
    fields.push(("runs_failed".into(), Value::count(tally.failed)));
    fields.push((
        "failures".into(),
        Value::Arr(
            tally
                .failures
                .iter()
                .map(|f| Value::str(f.as_str()))
                .collect(),
        ),
    ));
    fields.push(("wall_s".into(), Value::Num(started.elapsed().as_secs_f64())));
    fields.push(("end_to_end".into(), Value::Obj(end_to_end.clone())));
    if let Some(per_layer) = &per_layer {
        fields.push(("per_layer".into(), Value::Obj(per_layer.clone())));
    }

    // A run that produced no metrics (every round failed) is incorrect
    // even if the tally somehow is not.
    let correct = tally.failed == 0 && !end_to_end.is_empty();
    let reported = per_layer.unwrap_or(end_to_end);
    let result_line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::count(tally.attempted.max(1))),
        ("failed", Value::count(tally.failed)),
        (
            "metrics",
            Value::Obj(
                reported
                    .into_iter()
                    .map(|(name, v)| {
                        let brief = Value::obj([
                            ("value", v.get("value").cloned().unwrap_or(Value::Null)),
                            ("unit", v.get("unit").cloned().unwrap_or(Value::Null)),
                        ]);
                        (name, brief)
                    })
                    .collect(),
            ),
        ),
    ]);

    Outcome {
        record: Value::Obj(fields),
        result_line,
        correct,
        spans,
        traced,
    }
}

/// The record as lines a person reads: every metric by name with its
/// unit, then the stamps.
pub fn print_record(record: &Value) {
    let text = |k: &str| record.get(k).map_or(String::new(), |v| v.render());
    println!(
        "workload {} seed {} mode {} rounds {} host_cores {} git_rev {}",
        text("workload"),
        text("seed"),
        text("mode"),
        text("rounds"),
        text("host_cores"),
        text("git_rev")
    );
    println!(
        "topology {} scheme {} rho {} broadcast_share {}",
        text("topology"),
        text("scheme"),
        text("rho"),
        text("broadcast_share")
    );
    println!(
        "timed window {}+{} slots hops {} serial_report_digest {}",
        text("warmup_slots"),
        text("measure_slots"),
        text("hops"),
        text("serial_report_digest")
    );
    println!(
        "simulated window {}+{} slots sim_hops {} sim_report_digest {}",
        text("sim_warmup_slots"),
        text("sim_measure_slots"),
        text("sim_hops"),
        text("sim_report_digest")
    );
    for section in ["end_to_end", "derived", "per_layer"] {
        let Some(metrics) = record.get(section).and_then(|s| s.as_obj()) else {
            continue;
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
            match (m.get("median"), m.get("q1"), m.get("q3"), m.get("max")) {
                (Some(med), Some(q1), Some(q3), Some(max)) => println!(
                    "{section} {name} {value} {unit}  (median {} q1 {} q3 {} max {})",
                    med.render(),
                    q1.render(),
                    q3.render(),
                    max.render()
                ),
                _ => println!("{section} {name} {value} {unit}"),
            }
        }
    }
    println!(
        "runs_attempted {} runs_failed {} wall_s {}",
        text("runs_attempted"),
        text("runs_failed"),
        text("wall_s")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::valid_name;
    use crate::workloads::WORKLOADS;

    fn smoke(workload: usize, trace: bool) -> Outcome {
        run(&Options {
            workload: &WORKLOADS[workload],
            seed: 1,
            seconds: 1.0,
            trace,
            mode: Mode::Smoke,
            rounds: Some(1),
        })
    }

    fn names(v: &Value) -> Vec<String> {
        v.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn emitted_json_parses_back_and_carries_every_declared_metric_once() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let out = smoke(i, i == 0);
            assert!(out.correct, "{}", w.name);
            let record = json::parse(&out.record.render()).unwrap();
            assert_eq!(record, out.record);
            for stamp in [
                "schema",
                "git_rev",
                "host_cores",
                "seed",
                "rounds",
                "mode",
                "topology",
                "scheme",
                "rho",
                "hops",
                "serial_report_digest",
                "sim_hops",
                "sim_report_digest",
                "estimator",
            ] {
                assert!(record.get(stamp).is_some(), "{stamp}");
            }
            // Stamped with the commit whenever the checkout is a repository.
            if crate::manifest_dir().join("../.git").exists() {
                let rev = record.get("git_rev").unwrap().as_str().expect("a revision");
                assert!(rev.len() >= 7 && rev.chars().all(|c| c.is_ascii_hexdigit()));
            }
            assert_eq!(record.get("mode").unwrap().as_str(), Some("smoke"));
            let e2e = names(record.get("end_to_end").unwrap());
            assert_eq!(e2e, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            assert_eq!(e2e.len(), 7);
            for (name, m) in record.get("end_to_end").unwrap().as_obj().unwrap() {
                let v = m.get("value").unwrap().as_f64().unwrap();
                assert!(valid_name(name) && v.is_finite() && v > 0.0, "{name} = {v}");
            }

            let line = json::parse(&out.result_line.render()).unwrap();
            assert_eq!(names(&line), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
            let reported = names(line.get("metrics").unwrap());
            if i == 0 {
                // --trace 1: the last line carries the per-layer metrics.
                assert_eq!(
                    reported,
                    PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
                );
                assert_eq!(reported.len(), 63);
                assert_eq!(names(record.get("per_layer").unwrap()), reported);
                assert_eq!(line.get("attempted").unwrap().as_f64(), Some(4.0 + 13.0));
            } else {
                assert_eq!(reported, e2e);
                assert!(record.get("per_layer").is_none());
                assert_eq!(line.get("attempted").unwrap().as_f64(), Some(4.0));
            }
        }
    }

    #[test]
    fn budgeted_rounds_stop_at_the_budget_but_not_before_three() {
        let out = run(&Options {
            workload: &WORKLOADS[3],
            seed: 2,
            seconds: 0.0,
            trace: false,
            mode: Mode::Smoke,
            rounds: None,
        });
        assert!(out.correct);
        assert_eq!(out.record.get("rounds").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            out.record.get("runs_attempted").unwrap().as_f64(),
            Some(1.0 + 9.0)
        );
    }
}
