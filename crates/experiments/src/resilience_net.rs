//! The `resilience_net` command: the `resilience` fault sweep executed
//! on the *runtime*. Every (scheme × fault-rate) arm runs once on the
//! slotted simulator and then on the `pstar-net` thread-per-core runtime
//! at 1, 2 and 4 workers — same plan, same seed — and the runtime must
//! report what the simulator reports, **every field, bit for bit**
//! (`SimReport::first_difference`): both backends deliver in ascending
//! link order, so per-packet trajectories are identical, and every
//! statistic is an order-free integer sum.
//!
//! Design for comparability, shared with `resilience`:
//!
//! * **Nested outages** — fault rate `f` kills the first `⌈f·L⌉` links
//!   of one seeded permutation, so the delivered fraction is monotone
//!   non-increasing in `f` by construction.
//! * **Common random numbers** — one traffic seed per scheme across all
//!   fault rates and worker counts.
//! * **Mid-run outage window** — links die at `warmup + measure/4` and
//!   recover at `warmup + 3·measure/4`.
//!
//! Artifacts: `results/resilience_net.csv` + `.jsonl`,
//! `results/resilience_net_delivered.svg` (delivered fraction vs fault
//! rate, sim dashed vs net solid) and
//! `results/resilience_net_recovery.svg` (time-to-recovery vs fault
//! rate). Under `--smoke` the run is a CI gate: sim/net report identity
//! on every faulted arm at every worker count, plus the monotone
//! delivered fraction.

use crate::csvout::Table;
use crate::record::{write_jsonl, PointRecord};
use crate::resilience::FAULT_RATES;
use crate::svg::{write_svg, Chart, Series};
use crate::sweep::{broadcast_arm, dead_count, nested_outage};
use crate::{fatal, Ctx, Gate};
use priority_star::prelude::*;
use priority_star::run_scenario_with_faults;
use pstar_net::{run_net_with_faults, NetConfig, NetReport};
use pstar_sim::{shuffled_links, DeadLinkPolicy, FaultPlan, SimConfig, SimReport};

/// Offered load of the sweep (one ρ: the fault axis is the story here).
const RHO: f64 = 0.7;

/// Worker counts every arm is executed at.
const WORKERS: [usize; 3] = [1, 2, 4];

/// Per-scheme series colors (same tab palette as `plot`/`net`).
const COLORS: [&str; 5] = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"];

fn net_fault_point(
    topo: &Torus,
    spec: &ScenarioSpec,
    mut cfg: SimConfig,
    workers: usize,
    plan: FaultPlan,
) -> NetReport {
    cfg.lengths = spec.lengths;
    match run_net_with_faults(
        topo,
        spec.build_scheme(topo),
        spec.mix(topo),
        NetConfig {
            workers,
            ..NetConfig::new(cfg)
        },
        plan,
        DeadLinkPolicy::Drop,
    ) {
        Ok(net) => net,
        Err(e) => fatal("running pstar-net under faults", &e),
    }
}

/// Runs the sweep and writes `resilience_net.csv` / `.jsonl` + SVGs;
/// under `--smoke`, enforces the agreement and monotonicity gates.
pub fn resilience_net(ctx: &Ctx) {
    let topo = if ctx.smoke {
        Torus::new(&[4, 4])
    } else {
        Torus::new(&[8, 8])
    };
    let cfg0 = if ctx.smoke {
        SimConfig::quick(0)
    } else {
        ctx.cfg
    };
    let down = cfg0.warmup_slots + cfg0.measure_slots / 4;
    let up = cfg0.warmup_slots + 3 * cfg0.measure_slots / 4;
    let perm = shuffled_links(topo.link_count(), ctx.seed("resilience-net-links", 0));
    let schemes = [
        SchemeKind::PriorityStar,
        SchemeKind::ThreeClass,
        SchemeKind::FcfsDirect,
        SchemeKind::FcfsBalanced,
    ];

    // (scheme, rate) → one sim reference + one net run per worker count.
    // The runtime spreads each run over several cores already, so the
    // sweep itself is serial.
    let mut arms: Vec<(SchemeKind, f64, SimReport, Vec<NetReport>)> = Vec::new();
    for (si, &scheme) in schemes.iter().enumerate() {
        for &rate in &FAULT_RATES {
            let t0 = std::time::Instant::now();
            let mut cfg = cfg0;
            cfg.seed = ctx.seed("resilience-net", si);
            let plan = nested_outage(&perm, rate, down, up);
            let spec = broadcast_arm(scheme, RHO);
            let sim =
                run_scenario_with_faults(&topo, &spec, cfg, plan.clone(), DeadLinkPolicy::Drop);
            let nets: Vec<NetReport> = WORKERS
                .iter()
                .map(|&w| net_fault_point(&topo, &spec, cfg, w, plan.clone()))
                .collect();
            let slots = sim.slots_run + nets.iter().map(|n| n.report.slots_run).sum::<u64>();
            ctx.push_phase(
                &format!("{}:f{rate}", scheme.label()),
                t0.elapsed().as_secs_f64(),
                Some(slots),
            );
            arms.push((scheme, rate, sim, nets));
        }
    }

    let mut table = Table::new(&[
        "scheme",
        "fault_rate",
        "dead_links",
        "workers",
        "sim_delivered",
        "net_delivered",
        "agree",
        "delivered_fraction",
        "fault_dropped",
        "damaged_broadcasts",
        "recovery_mean",
        "recovery_n",
        "net_kslots_per_sec",
    ]);
    let mut records = Vec::new();
    let label = topo.to_string();
    for (scheme, rate, sim, nets) in &arms {
        for (wi, net) in nets.iter().enumerate() {
            let r = &net.report;
            table.row(vec![
                scheme.label().to_string(),
                format!("{rate:.2}"),
                dead_count(topo.link_count(), *rate).to_string(),
                WORKERS[wi].to_string(),
                sim.reception_delay.count.to_string(),
                r.reception_delay.count.to_string(),
                sim.first_difference(r).is_none().to_string(),
                Table::f(r.faults.delivered_reception_fraction),
                r.faults.fault_dropped_packets.to_string(),
                r.damaged_broadcasts.to_string(),
                Table::f(r.faults.recovery_time.mean),
                r.faults.recovery_time.count.to_string(),
                Table::f(net.slots_per_sec / 1e3),
            ]);
            records.push(PointRecord::new(
                "resilience_net",
                &label,
                scheme.label(),
                RHO,
                1.0,
                r,
            ));
        }
    }
    table.emit(&ctx.out, "resilience_net");
    write_jsonl(&ctx.out, "resilience_net", &records);
    write_charts(ctx, &schemes, &arms);

    if ctx.smoke {
        let mut gate = Gate::default();
        for (scheme, rate, sim, nets) in &arms {
            for (wi, net) in nets.iter().enumerate() {
                let line = format!(
                    "{} f={rate} W={}: net reports the sim's run ({} delivered, {} fault-dropped)",
                    scheme.label(),
                    WORKERS[wi],
                    sim.reception_delay.count,
                    sim.faults.fault_dropped_packets,
                );
                gate.same_report("fault-agreement", sim, &net.report, line);
            }
        }
        // Nested outages + CRN: the delivered fraction must be monotone
        // non-increasing in the fault rate, per scheme and worker count.
        for (si, scheme) in schemes.iter().enumerate() {
            for (wi, &w) in WORKERS.iter().enumerate() {
                let fracs: Vec<f64> = (0..FAULT_RATES.len())
                    .map(|k| {
                        arms[si * FAULT_RATES.len() + k].3[wi]
                            .report
                            .faults
                            .delivered_reception_fraction
                    })
                    .collect();
                let ok = fracs.windows(2).all(|p| p[1] <= p[0] + 1e-12);
                let line = format!("{} W={w}: {fracs:?}", scheme.label());
                gate.check("delivered-monotone", ok, line);
            }
        }
        gate.finish("resilience_net");
    }
}

/// Delivered fraction and time-to-recovery vs fault rate: simulator
/// dashed, runtime (highest worker count) solid, same color per scheme.
fn write_charts(
    ctx: &Ctx,
    schemes: &[SchemeKind],
    arms: &[(SchemeKind, f64, SimReport, Vec<NetReport>)],
) {
    let w_hi = WORKERS.len() - 1;
    let mut delivered = Vec::new();
    let mut recovery = Vec::new();
    for (si, scheme) in schemes.iter().enumerate() {
        let color = COLORS[si % COLORS.len()];
        let row = &arms[si * FAULT_RATES.len()..(si + 1) * FAULT_RATES.len()];
        delivered.push(Series {
            label: format!("{} (sim)", scheme.label()),
            points: row
                .iter()
                .map(|(_, rate, sim, _)| (*rate, sim.faults.delivered_reception_fraction))
                .collect(),
            color: color.to_string(),
            dashed: true,
        });
        delivered.push(Series {
            label: format!("{} (net)", scheme.label()),
            points: row
                .iter()
                .map(|(_, rate, _, nets)| {
                    (*rate, nets[w_hi].report.faults.delivered_reception_fraction)
                })
                .collect(),
            color: color.to_string(),
            dashed: false,
        });
        let rec: Vec<(f64, f64)> = row
            .iter()
            .filter(|(_, _, _, nets)| nets[w_hi].report.faults.recovery_time.count > 0)
            .map(|(_, rate, _, nets)| (*rate, nets[w_hi].report.faults.recovery_time.mean))
            .collect();
        if !rec.is_empty() {
            recovery.push(Series {
                label: scheme.label().to_string(),
                points: rec,
                color: color.to_string(),
                dashed: false,
            });
        }
    }
    let charts = [
        (
            "resilience_net_delivered",
            Chart {
                title: format!(
                    "delivered fraction vs fault rate at rho={RHO}: sim (dashed) vs net (solid)"
                ),
                x_label: "fault rate (fraction of links down)".into(),
                y_label: "delivered reception fraction".into(),
                series: delivered,
            },
        ),
        (
            "resilience_net_recovery",
            Chart {
                title: format!("runtime time-to-recovery vs fault rate at rho={RHO}"),
                x_label: "fault rate (fraction of links down)".into(),
                y_label: "mean slots to recovery after repair".into(),
                series: recovery,
            },
        ),
    ];
    for (name, chart) in &charts {
        if chart.series.is_empty() {
            continue;
        }
        write_svg(ctx, name, chart);
    }
}
