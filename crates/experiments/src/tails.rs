//! `experiments tails`: tail-latency decomposition sweep, delay-CDF
//! figures, and the `trace export` Chrome converter.
//!
//! The sweep crosses every scheme with a ρ grid and runs each point with
//! [`SimConfig::tails`] enabled, reporting log-bucketed reception-delay
//! percentiles (p50/p90/p99/p99.9) next to the per-hop HOL-wait
//! decomposition — trunk hops vs ending-dimension hops vs unicast — and
//! service time. Artifacts:
//!
//! * `results/tails.csv` — the decomposition table;
//! * `results/tails_cdf_reception.svg` — reception-delay CDFs per scheme
//!   at the highest swept ρ;
//! * `results/tails_cdf_wait.svg` — trunk vs ending-dimension wait CDFs
//!   for priority STAR at the same ρ.
//!
//! Under `--smoke` the run doubles as a CI regression gate: priority
//! STAR must beat the FCFS direct scheme on p99 reception delay at
//! ρ = 0.9, and its trunk-hop p99 wait must sit below its
//! ending-dimension p99 wait — the queueing asymmetry the priority
//! discipline exists to produce (trunk packets preempt ending-dimension
//! packets at every head-of-line decision).
//!
//! `experiments trace export [--chrome]` runs a short instrumented pilot
//! per scheme and converts the retained ring-trace records into Chrome
//! trace-event JSON (`results/trace_<scheme>.chrome.json`), viewable in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::csvout::Table;
use crate::svg::{write_svg, Chart, Series};
use crate::sweep::{broadcast_arm, parallel_map, scheme_rho_points};
use crate::{fatal, Ctx, Gate};
use priority_star::prelude::*;
use pstar_obs::{chrome_trace, ObsCollector};
use pstar_sim::{HopPhase, SimConfig, SimReport};

/// Per-scheme series colors (matplotlib "tab" palette, as in `plot`).
const COLORS: [&str; 5] = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"];

/// Runs the decomposition sweep, writes the artifacts, and (under
/// `--smoke`) enforces the tail-ordering acceptance criteria.
pub fn tails(ctx: &Ctx) {
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
        &[0.3, 0.5, 0.7, 0.8, 0.9]
    };
    let schemes = SchemeKind::all();

    // scheme-major point grid; common random numbers across schemes at
    // the same ρ (seed depends only on the ρ index).
    let points = scheme_rho_points(&schemes, rhos);
    let reports: Vec<SimReport> = parallel_map(&points, |i, &(scheme, rho)| {
        let t0 = std::time::Instant::now();
        let mut cfg = cfg0;
        cfg.tails = true;
        cfg.seed = ctx.seed("tails", i % rhos.len());
        let rep = run_scenario(&topo, &broadcast_arm(scheme, rho), cfg);
        ctx.push_phase(
            &format!("{}:rho{rho}", scheme.label()),
            t0.elapsed().as_secs_f64(),
            Some(rep.slots_run),
        );
        rep
    });

    // Decomposition table.
    let mut table = Table::new(&[
        "scheme",
        "rho",
        "recv_p50",
        "recv_p90",
        "recv_p99",
        "recv_p999",
        "recv_max",
        "c0_p99",
        "c1_p99",
        "wait_trunk_p50",
        "wait_trunk_p99",
        "wait_ending_p50",
        "wait_ending_p99",
        "wait_unicast_p99",
        "service_p99",
        "ok",
    ]);
    for (i, &(scheme, rho)) in points.iter().enumerate() {
        let t = &reports[i].tails;
        table.row(vec![
            scheme.label().to_string(),
            Table::f(rho),
            t.reception_all.p50.to_string(),
            t.reception_all.p90.to_string(),
            t.reception_all.p99.to_string(),
            t.reception_all.p999.to_string(),
            t.reception_all.max.to_string(),
            t.reception_by_class[0].p99.to_string(),
            t.reception_by_class[1].p99.to_string(),
            t.hop_wait[HopPhase::Trunk as usize].p50.to_string(),
            t.hop_wait[HopPhase::Trunk as usize].p99.to_string(),
            t.hop_wait[HopPhase::Ending as usize].p50.to_string(),
            t.hop_wait[HopPhase::Ending as usize].p99.to_string(),
            t.hop_wait[HopPhase::Unicast as usize].p99.to_string(),
            t.service.p99.to_string(),
            reports[i].ok().to_string(),
        ]);
    }
    table.emit(&ctx.out, "tails");

    let rho_hi = *rhos.last().expect("non-empty rho grid");
    write_cdf_figures(ctx, &points, &reports, rho_hi);

    if ctx.smoke {
        let mut gate = Gate::default();
        let at = |scheme: SchemeKind| {
            let i = points
                .iter()
                .position(|&(s, r)| s == scheme && r == rho_hi)
                .expect("swept point");
            &reports[i].tails
        };
        let pstar = at(SchemeKind::PriorityStar);
        let fcfs = at(SchemeKind::FcfsDirect);
        gate.check(
            "p99-reception",
            pstar.reception_all.p99 < fcfs.reception_all.p99,
            format!(
                "priority-star p99 {} < fcfs-direct p99 {} at rho={rho_hi}",
                pstar.reception_all.p99, fcfs.reception_all.p99
            ),
        );
        let trunk = pstar.hop_wait[HopPhase::Trunk as usize].p99;
        let ending = pstar.hop_wait[HopPhase::Ending as usize].p99;
        gate.check(
            "wait-decomposition",
            trunk < ending,
            format!("priority-star trunk p99 wait {trunk} < ending-dim p99 wait {ending} at rho={rho_hi}"),
        );
        gate.finish("tails");
    }
}

/// Reception-delay CDFs per scheme and the trunk/ending wait CDFs for
/// priority STAR, both at the highest swept ρ.
fn write_cdf_figures(ctx: &Ctx, points: &[(SchemeKind, f64)], reports: &[SimReport], rho_hi: f64) {
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
        let color = COLORS[series.len() % COLORS.len()];
        series.extend(cdf_series(
            &reports[i].tails.reception_cdf,
            scheme.label(),
            color,
            false,
        ));
    }
    if !series.is_empty() {
        let chart = Chart {
            title: format!("reception-delay CDF at rho={rho_hi}"),
            x_label: "reception delay (slots)".into(),
            y_label: "cumulative fraction".into(),
            series,
        };
        write_svg(ctx, "tails_cdf_reception", &chart);
    }

    let Some(pi) = points
        .iter()
        .position(|&(s, r)| s == SchemeKind::PriorityStar && r == rho_hi)
    else {
        return;
    };
    let t = &reports[pi].tails;
    let mut series = Vec::new();
    series.extend(cdf_series(
        &t.hop_wait_cdf[HopPhase::Trunk as usize],
        "trunk-hop wait",
        COLORS[0],
        false,
    ));
    series.extend(cdf_series(
        &t.hop_wait_cdf[HopPhase::Ending as usize],
        "ending-dim wait",
        COLORS[1],
        true,
    ));
    if !series.is_empty() {
        let chart = Chart {
            title: format!("priority STAR HOL-wait decomposition at rho={rho_hi}"),
            x_label: "queueing wait (slots)".into(),
            y_label: "cumulative fraction".into(),
            series,
        };
        write_svg(ctx, "tails_cdf_wait", &chart);
    }
}

/// `experiments trace export [--chrome]`: short instrumented pilot per
/// scheme, retained ring records converted to Chrome trace-event JSON.
pub fn trace_cmd(ctx: &Ctx, args: &[String]) {
    if args.first().map(String::as_str) != Some("export") {
        eprintln!("usage: experiments trace export [--chrome]");
        std::process::exit(2);
    }
    for a in &args[1..] {
        match a.as_str() {
            // Chrome trace-event JSON is (currently) the only format, so
            // the flag is accepted but not required.
            "--chrome" => {}
            other => {
                eprintln!("trace export: unknown option `{other}` (only --chrome)");
                std::process::exit(2);
            }
        }
    }

    let topo = if ctx.smoke {
        Torus::new(&[4, 4])
    } else {
        Torus::new(&[8, 8])
    };
    // Short windows: the point is a readable timeline, not statistics,
    // and the ring should retain the whole measured span.
    let base_cfg = SimConfig {
        warmup_slots: 100,
        measure_slots: if ctx.smoke { 400 } else { 1_000 },
        max_slots: 100_000,
        ..SimConfig::default()
    };
    let ring_capacity = if ctx.smoke { 65_536 } else { 262_144 };

    for (i, scheme) in SchemeKind::all().into_iter().enumerate() {
        let label = scheme.label();
        let mut cfg = base_cfg;
        cfg.seed = ctx.seed("trace", i);
        let spec = broadcast_arm(scheme, 0.6);
        let (rep, sink) = run_scenario_observed(
            &topo,
            &spec,
            cfg,
            Box::new(ObsCollector::new(ring_capacity, 0)),
        );
        let obs = sink
            .into_any()
            .downcast::<ObsCollector>()
            .expect("collector comes back from the engine");
        let json = chrome_trace(obs.ring.iter());
        let path = ctx.out.join(format!("trace_{label}.chrome.json"));
        if let Err(e) = std::fs::write(&path, &json) {
            fatal(&format!("writing {}", path.display()), &e);
        }
        println!(
            "exported {} ({} of {} records retained, {} slots, ok={})",
            path.display(),
            obs.ring.len(),
            obs.ring.total_recorded(),
            rep.slots_run,
            rep.ok(),
        );
    }
}
