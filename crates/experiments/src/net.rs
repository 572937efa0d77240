//! `experiments net` — sim-vs-runtime validation.
//!
//! Runs every (scheme × ρ) arm on *both* backends — the slotted
//! simulator and the `pstar-net` thread-per-core runtime in virtual-time
//! mode — with identical seeds, and writes:
//!
//! * `results/net_agreement.csv` — the agreement table: delivered
//!   receptions and measured tasks per backend, whether the two reports
//!   are one (`SimReport::first_difference`), mean/p99 delays side by
//!   side, plus the runtime's worker count and cross-worker messages.
//!   Every column is a function of the
//!   seed and the fixed worker count, so two runs on any host write the
//!   same bytes (runtime timings are read in `benchmark/`);
//! * `results/net_cdf_reception.svg` — reception-delay CDF overlay at
//!   the highest swept ρ: simulator dashed, runtime solid;
//! * `results/net_cdf_wait.svg` — priority STAR trunk vs ending-dim
//!   HOL-wait CDFs, both backends overlaid the same way;
//! * `results/net_trace.chrome.json` — a Chrome trace of the runtime's
//!   per-worker tracks (open in `chrome://tracing` / ui.perfetto.dev).
//!
//! Under `--smoke` the run is the CI gate for the runtime: the two
//! backends must report the same run, **every field bit for bit**, for
//! every arm (the injector mirrors the engine's RNG draw order and
//! accounting is order-free, so any divergence is a bug, not noise), and
//! priority STAR must beat FCFS-direct on p99 reception delay at
//! ρ = 0.9 *on the real runtime* — the paper's discipline surviving an
//! actual concurrent harness, not just the simulator.
//!
//! The agreement sweep covers the four schemes that are stable across
//! the swept loads; dimension-ordered saturates below ρ = 0.9 (that is
//! the point of Table 2).

use crate::csvout::Table;
use crate::record::{write_jsonl, PointRecord};
use crate::svg::{write_svg, Chart, Series};
use crate::sweep::{broadcast_arm, scheme_rho_points};
use crate::{fatal, Ctx, Gate};
use priority_star::prelude::*;
use pstar_net::{run_net, NetConfig, NetReport};
use pstar_obs::chrome_trace_workers;
use pstar_sim::{HopPhase, SimConfig, SimReport};

/// Per-scheme series colors (same tab palette as `plot`/`tails`).
const COLORS: [&str; 5] = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"];

/// Worker count of the agreement sweep. Fixed rather than taken from the
/// host so `net_messages` — and with it the whole CSV — is the same on
/// every machine.
const WORKERS: usize = 2;

/// One virtual-mode runtime run of the agreement sweep.
fn net_point(topo: &Torus, spec: &ScenarioSpec, mut cfg: SimConfig) -> NetReport {
    cfg.lengths = spec.lengths;
    match run_net(
        topo,
        spec.build_scheme(topo),
        spec.mix(topo),
        NetConfig {
            workers: WORKERS,
            ..NetConfig::new(cfg)
        },
    ) {
        Ok(net) => net,
        Err(e) => fatal("running pstar-net", &e),
    }
}

/// Runs the agreement sweep, the CDF overlays and the trace export;
/// under `--smoke`, enforces the runtime gates.
pub fn net(ctx: &Ctx) {
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
    let rhos: &[f64] = if ctx.smoke {
        &[0.5, 0.9]
    } else {
        &[0.3, 0.5, 0.7, 0.9]
    };
    let rho_hi = *rhos.last().expect("nonempty grid");
    let schemes = [
        SchemeKind::PriorityStar,
        SchemeKind::ThreeClass,
        SchemeKind::FcfsDirect,
        SchemeKind::FcfsBalanced,
    ];
    let points = scheme_rho_points(&schemes, rhos);

    // Each backend pair shares one seed per ρ index (common random
    // numbers across schemes, and — the whole point — across backends).
    // The runtime runs its own worker threads, so the sweep itself runs
    // serially.
    let pairs: Vec<(SimReport, NetReport)> = points
        .iter()
        .enumerate()
        .map(|(i, &(scheme, rho))| {
            let t0 = std::time::Instant::now();
            let mut cfg = cfg0;
            cfg.tails = true;
            cfg.seed = ctx.seed("net", i % rhos.len());
            let spec = broadcast_arm(scheme, rho);
            let sim = run_scenario(&topo, &spec, cfg);
            let net = net_point(&topo, &spec, cfg);
            ctx.push_phase(
                &format!("{}:rho{rho}", scheme.label()),
                t0.elapsed().as_secs_f64(),
                Some(sim.slots_run + net.report.slots_run),
            );
            (sim, net)
        })
        .collect();

    let mut table = Table::new(&[
        "scheme",
        "rho",
        "sim_delivered",
        "net_delivered",
        "reports_equal",
        "sim_measured",
        "net_measured",
        "sim_mean_delay",
        "net_mean_delay",
        "sim_p99",
        "net_p99",
        "net_workers",
        "net_messages",
    ]);
    let mut records = Vec::new();
    let label = topo.to_string();
    for (&(scheme, rho), (sim, net)) in points.iter().zip(&pairs) {
        let r = &net.report;
        table.row(vec![
            scheme.label().to_string(),
            format!("{rho:.2}"),
            sim.reception_delay.count.to_string(),
            r.reception_delay.count.to_string(),
            sim.first_difference(r).is_none().to_string(),
            sim.measured_broadcasts.to_string(),
            r.measured_broadcasts.to_string(),
            Table::f(sim.reception_delay.mean),
            Table::f(r.reception_delay.mean),
            sim.tails.reception_all.p99.to_string(),
            r.tails.reception_all.p99.to_string(),
            net.workers.to_string(),
            net.messages_sent.to_string(),
        ]);
        records.push(PointRecord::new("net", &label, scheme.label(), rho, 1.0, r));
    }
    table.emit(&ctx.out, "net_agreement");
    write_jsonl(&ctx.out, "net_agreement", &records);

    write_overlays(ctx, &points, &pairs, rho_hi);
    export_trace(ctx, &topo, cfg0);

    if ctx.smoke {
        let mut gate = Gate::default();
        for (&(scheme, rho), (sim, net)) in points.iter().zip(&pairs) {
            gate.same_report(
                "report-agreement",
                sim,
                &net.report,
                format!(
                    "{} rho={rho}: net reports the sim's run ({} delivered receptions)",
                    scheme.label(),
                    sim.reception_delay.count,
                ),
            );
        }
        let at = |scheme: SchemeKind| {
            let i = points
                .iter()
                .position(|&(s, r)| s == scheme && r == rho_hi)
                .expect("swept point");
            &pairs[i].1.report.tails
        };
        let pstar = at(SchemeKind::PriorityStar);
        let fcfs = at(SchemeKind::FcfsDirect);
        gate.check(
            "runtime-p99-reception",
            pstar.reception_all.p99 < fcfs.reception_all.p99,
            format!(
                "on the runtime: priority-star p99 {} < fcfs-direct p99 {} at rho={rho_hi}",
                pstar.reception_all.p99, fcfs.reception_all.p99
            ),
        );
        gate.finish("net");
    }
}

/// Sim-vs-net CDF overlays at the highest swept ρ: simulator dashed,
/// runtime solid, same color per series.
fn write_overlays(
    ctx: &Ctx,
    points: &[(SchemeKind, f64)],
    pairs: &[(SimReport, NetReport)],
    rho_hi: f64,
) {
    let cdf_series = |cdf: &[(u64, f64)], label: &str, color: &str, dashed: bool| {
        let pts: Vec<(f64, f64)> = cdf.iter().map(|&(x, y)| (x as f64, y)).collect();
        (!pts.is_empty()).then(|| Series {
            label: label.to_string(),
            points: pts,
            color: color.to_string(),
            dashed,
        })
    };

    let mut series = Vec::new();
    for (i, &(scheme, rho)) in points.iter().enumerate() {
        if rho != rho_hi {
            continue;
        }
        let color = COLORS[(series.len() / 2) % COLORS.len()];
        let (sim, net) = &pairs[i];
        series.extend(cdf_series(
            &sim.tails.reception_cdf,
            &format!("{} (sim)", scheme.label()),
            color,
            true,
        ));
        series.extend(cdf_series(
            &net.report.tails.reception_cdf,
            &format!("{} (net)", scheme.label()),
            color,
            false,
        ));
    }
    if !series.is_empty() {
        let chart = Chart {
            title: format!("reception-delay CDF at rho={rho_hi}: sim (dashed) vs net (solid)"),
            x_label: "reception delay (slots)".into(),
            y_label: "cumulative fraction".into(),
            series,
        };
        write_svg(ctx, "net_cdf_reception", &chart);
    }

    // Trunk vs ending-dimension wait decomposition for priority STAR,
    // both backends: the queueing asymmetry must also exist for real.
    if let Some(i) = points
        .iter()
        .position(|&(s, r)| s == SchemeKind::PriorityStar && r == rho_hi)
    {
        let (sim, net) = &pairs[i];
        let mut series = Vec::new();
        for (phase, color) in [(HopPhase::Trunk, COLORS[0]), (HopPhase::Ending, COLORS[1])] {
            series.extend(cdf_series(
                &sim.tails.hop_wait_cdf[phase as usize],
                &format!("{} (sim)", phase.label()),
                color,
                true,
            ));
            series.extend(cdf_series(
                &net.report.tails.hop_wait_cdf[phase as usize],
                &format!("{} (net)", phase.label()),
                color,
                false,
            ));
        }
        if !series.is_empty() {
            let chart = Chart {
                title: format!(
                    "priority STAR HOL-wait CDFs at rho={rho_hi}: sim (dashed) vs net (solid)"
                ),
                x_label: "queueing wait (slots)".into(),
                y_label: "cumulative fraction".into(),
                series,
            };
            write_svg(ctx, "net_cdf_wait", &chart);
        }
    }
}

/// Exports one short traced runtime run as Chrome trace-event JSON with
/// per-worker tracks.
fn export_trace(ctx: &Ctx, topo: &Torus, cfg0: SimConfig) {
    let mut cfg = cfg0;
    cfg.seed = ctx.seed("net-trace", 0);
    cfg.warmup_slots = 100;
    cfg.measure_slots = 400;
    let spec = broadcast_arm(SchemeKind::PriorityStar, 0.7);
    cfg.lengths = spec.lengths;
    let net = match run_net(
        topo,
        spec.build_scheme(topo),
        spec.mix(topo),
        NetConfig {
            workers: 4,
            trace_capacity: 20_000,
            ..NetConfig::new(cfg)
        },
    ) {
        Ok(net) => net,
        Err(e) => fatal("running pstar-net trace export", &e),
    };
    let json = chrome_trace_workers(&net.worker_traces);
    let path = ctx.out.join("net_trace.chrome.json");
    if let Err(e) = std::fs::write(&path, json) {
        fatal(&format!("writing {}", path.display()), &e);
    }
    println!("exported {}", path.display());
}
