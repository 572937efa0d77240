//! `experiments profile`: instrumented pilot runs over the five schemes.
//!
//! Per scheme this produces:
//!
//! * `profile_series_<scheme>.csv` — the decimated queue-population /
//!   in-flight time series from an instrumented pilot run (warmup 0, so
//!   the initialization transient is visible);
//! * `profile_heatmap_<scheme>.svg` — per-link utilization laid out on
//!   the torus grid, one panel per (dimension, direction);
//! * an MSER steady-state estimate (a measured replacement for the
//!   hardcoded warmup guess — `results/profile.csv` puts the two side by
//!   side).
//!
//! Every artifact is a function of the seeds alone; engine and tracing
//! timings are read in `benchmark/` (`obs.trace_overhead_frac`).

use crate::csvout::Table;
use crate::{fatal, Ctx};
use priority_star::prelude::*;
use priority_star::run_scenario_observed;
use pstar_obs::{render_heatmap, HeatPanel, ObsCollector};
use pstar_topology::{Direction, Link, NodeId};

/// Runs the full profile sweep (see module docs).
pub fn profile(ctx: &Ctx) {
    let dims: &[u32] = if ctx.smoke { &[4, 4] } else { &[8, 8] };
    let topo = Torus::new(dims);
    let rho = 0.5;
    let decim = if ctx.smoke { 16 } else { 32 };

    // Pilot: no warmup, so the transient the MSER estimate should find
    // is actually in the series.
    let pilot_cfg = SimConfig {
        warmup_slots: 0,
        measure_slots: if ctx.smoke { 4_000 } else { 16_000 },
        max_slots: 400_000,
        ..SimConfig::default()
    };

    let mut table = Table::new(&["scheme", "steady_state_slot", "configured_warmup"]);
    for (i, scheme) in SchemeKind::all().into_iter().enumerate() {
        let label = scheme.label();
        let spec = crate::sweep::broadcast_arm(scheme, rho);

        let t0 = std::time::Instant::now();
        let mut cfg = pilot_cfg;
        cfg.seed = ctx.seed("profile-pilot", i);
        let (pilot_rep, sink) =
            run_scenario_observed(&topo, &spec, cfg, Box::new(ObsCollector::new(4096, decim)));
        let obs = sink
            .into_any()
            .downcast::<ObsCollector>()
            .expect("collector comes back from the engine");
        ctx.push_phase(
            &format!("pilot:{label}"),
            t0.elapsed().as_secs_f64(),
            Some(pilot_rep.slots_run),
        );
        write_series_csv(ctx, label, &obs);
        write_heatmap(ctx, label, &topo, &obs);
        table.row(vec![
            label.to_string(),
            obs.steady_state_slot()
                .map_or("n/a".to_string(), |s| s.to_string()),
            ctx.cfg.warmup_slots.to_string(),
        ]);
    }
    table.emit(&ctx.out, "profile");
}

/// The pilot's decimated queue-state series as CSV columns.
fn write_series_csv(ctx: &Ctx, label: &str, obs: &ObsCollector) {
    let mut table = Table::new(&[
        "slot",
        "queued_total",
        "in_flight_links",
        "q_class0",
        "q_class1",
        "q_class2",
        "q_class3",
    ]);
    for s in &obs.samples {
        table.row(vec![
            s.slot.to_string(),
            s.queued_total.to_string(),
            s.in_flight_links.to_string(),
            s.queued_by_class[0].to_string(),
            s.queued_by_class[1].to_string(),
            s.queued_by_class[2].to_string(),
            s.queued_by_class[3].to_string(),
        ]);
    }
    if let Err(e) = table.try_write_csv(&ctx.out, &format!("profile_series_{label}")) {
        fatal(&format!("writing profile_series_{label}.csv"), &e);
    }
}

/// Per-link utilization on the torus grid: one panel per (dim, dir),
/// cell (row, col) = the link leaving node (col, row) in that direction.
fn write_heatmap(ctx: &Ctx, label: &str, topo: &Torus, obs: &ObsCollector) {
    if topo.d() != 2 {
        return; // the grid layout is only meaningful for 2-D tori
    }
    let util = obs.link_utilization();
    if util.is_empty() {
        return;
    }
    let cols = topo.dim_size(0) as usize;
    let rows = topo.dim_size(1) as usize;
    let mut panels = Vec::new();
    for dim in 0..2 {
        for dir in [Direction::Plus, Direction::Minus] {
            let mut values = vec![0.0; rows * cols];
            for node in 0..topo.node_count() {
                let node = NodeId(node);
                let r = topo.coords().digit(node, 1) as usize;
                let c = topo.coords().digit(node, 0) as usize;
                let l = topo
                    .link_id(Link {
                        from: node,
                        dim,
                        dir,
                    })
                    .index();
                values[r * cols + c] = util.get(l).copied().unwrap_or(0.0);
            }
            let sign = if dir == Direction::Plus { '+' } else { '-' };
            panels.push(HeatPanel {
                label: format!("dim {dim} {sign}"),
                rows,
                cols,
                values,
            });
        }
    }
    let svg = render_heatmap(&format!("link utilization — {label}"), &panels);
    let path = ctx.out.join(format!("profile_heatmap_{label}.svg"));
    if let Err(e) = std::fs::write(&path, svg) {
        fatal(&format!("writing {}", path.display()), &e);
    }
}
