//! `experiments perf` — where the time goes inside the two threaded
//! backends, from one instrumented run of each.
//!
//! Runs the reference scenario (16×16 torus, priority STAR, ρ = 0.9;
//! 8×8 under `--smoke`) once through the sharded engine with
//! [`EnginePerfConfig`] telemetry and once through the pstar-net runtime
//! with [`pstar_net::NetConfig::perf`], and writes:
//!
//! * a phase-breakdown table on stdout: per-barrier work vs wait time
//!   summed over the engine workers, the coordinator's
//!   k-way-merge/mid/end serial section, and the per-worker net slot
//!   times (stragglers show there);
//! * `results/perf_phases.svg` — stacked per-worker phase-time bars;
//! * `results/perf_metrics.prom` — a Prometheus text-exposition
//!   snapshot of the whole metrics registry (engine + net);
//! * `results/perf_stream.jsonl` — the bounded streaming snapshot sink
//!   sampled every N slots.
//!
//! This is a picture of one run, not a measurement: nothing here is
//! repeated, compared or gated. Telemetry's report-neutrality is pinned
//! by `tests/perf.rs`; its cost and the threaded backends' speed against
//! serial are `sim.sharded.perf_overhead_frac`,
//! `net.runtime.perf_overhead_frac` and `sim.sharded.t2_over_serial` in
//! `benchmark/`.

use crate::{fatal, Ctx};
use priority_star::prelude::*;
use pstar_net::{run_net, NetConfig, NetPerf};
use pstar_sim::PHASE_NAMES;
use std::fmt::Write as _;

/// Shard count of the instrumented sharded run (threads are clamped to
/// the host).
const SHARDS: usize = 4;

/// Worker count of the instrumented net run.
const NET_WORKERS: usize = 4;

/// Tab-palette colors for the stacked phase bars: the five barrier
/// phases, then aggregate wait.
const PHASE_COLORS: [&str; 6] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#9467bd", "#8c564b", "#c7c7c7",
];

/// Runs the two instrumented arms, prints the phase tables, and writes
/// the stacked SVG, the Prometheus snapshot and the JSONL stream.
pub fn perf(ctx: &Ctx) {
    let topo = if ctx.smoke {
        Torus::new(&[8, 8])
    } else {
        Torus::new(&[16, 16])
    };
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.9,
        ..Default::default()
    };
    let mut cfg = if ctx.smoke {
        SimConfig::quick(0)
    } else {
        SimConfig {
            warmup_slots: 2_000,
            measure_slots: 10_000,
            max_slots: 400_000,
            ..SimConfig::default()
        }
    };
    cfg.seed = ctx.seed("perf", 0);
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = SHARDS.min(host_cores);

    let stream_path = ctx.out.join("perf_stream.jsonl");
    let t0 = std::time::Instant::now();
    let (rep, eperf) = run_scenario_sharded_perf(
        &topo,
        &spec,
        cfg,
        SHARDS,
        threads,
        None,
        EnginePerfConfig {
            sample_every: ((cfg.warmup_slots + cfg.measure_slots) / 16).max(1),
            jsonl_path: Some(stream_path.clone()),
            ..EnginePerfConfig::default()
        },
    );
    ctx.push_phase("sharded", t0.elapsed().as_secs_f64(), Some(rep.slots_run));
    if !rep.ok() {
        fatal(
            "perf",
            &"the instrumented sharded run did not complete cleanly",
        );
    }

    let mut net_cfg = cfg;
    net_cfg.lengths = spec.lengths;
    let net = match run_net(
        &topo,
        spec.build_scheme(&topo),
        spec.mix(&topo),
        NetConfig {
            workers: NET_WORKERS.min(host_cores.max(2)),
            perf: true,
            ..NetConfig::new(net_cfg)
        },
    ) {
        Ok(net) => net,
        Err(e) => fatal("perf: net arm", &e),
    };
    ctx.push_phase("net", net.wall_secs, Some(net.report.slots_run));
    let net_perf = net.perf.as_ref().expect("perf arm collects telemetry");

    print_phase_table(&eperf);
    print_net_table(net_perf);

    // Net telemetry lands in the engine run's registry so one Prometheus
    // snapshot covers both layers.
    net_perf.publish(&eperf.registry);
    let prom_path = ctx.out.join("perf_metrics.prom");
    if let Err(e) = std::fs::write(&prom_path, eperf.registry.prometheus_text()) {
        fatal(&format!("writing {}", prom_path.display()), &e);
    }
    println!(
        "wrote {} ({} jsonl samples in {})",
        prom_path.display(),
        eperf.jsonl_lines,
        stream_path.display()
    );

    write_phase_svg(ctx, &topo, &eperf);
}

/// The stdout phase table: one row per barrier phase with summed
/// work/wait across engine workers, then the coordinator's serial
/// section.
fn print_phase_table(p: &EnginePerf) {
    println!(
        "perf: engine phase breakdown (s={} t={}, {} slots, wall {:.3}s)",
        p.shards,
        p.workers,
        p.slots,
        p.wall_ns as f64 / 1e9
    );
    println!("  {:<10} {:>12} {:>12}", "phase", "work_ms", "wait_ms");
    for (i, name) in PHASE_NAMES.iter().enumerate() {
        let work: u64 = p.worker_phases.iter().map(|w| w.work_ns[i]).sum();
        let wait: u64 = p.worker_phases.iter().map(|w| w.wait_ns[i]).sum();
        println!(
            "  {:<10} {:>12.3} {:>12.3}",
            name,
            work as f64 / 1e6,
            wait as f64 / 1e6
        );
    }
    println!(
        "  {:<10} {:>12.3} {:>12}  (k-way merge of {} msgs)",
        "coord:merge",
        p.coord.merge_ns as f64 / 1e6,
        "-",
        p.merged_msgs
    );
    println!(
        "  {:<10} {:>12.3} {:>12}",
        "coord:mid",
        p.coord.mid_ns as f64 / 1e6,
        "-"
    );
    println!(
        "  {:<10} {:>12.3} {:>12.3}",
        "coord:end",
        p.coord.end_ns as f64 / 1e6,
        p.coord.wait_ns as f64 / 1e6
    );
    let arena_high = p.arena_slots.iter().copied().max().unwrap_or(0);
    let free_high = p.free_list_len.iter().copied().max().unwrap_or(0);
    println!(
        "  boundary packets {} | arena high-water {} slots/shard | free-list high {} ",
        p.boundary_packets, arena_high, free_high
    );
}

/// The stdout straggler table: per-net-worker slot-time spread. A
/// straggler shows as one worker whose median/max run away from the
/// fleet while everyone else's barrier waits balloon.
fn print_net_table(p: &NetPerf) {
    println!("perf: net per-worker slot times (stragglers show here)");
    println!(
        "  {:<7} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "worker", "min_us", "median_us", "max_us", "wait_ms", "blocked_ms"
    );
    for w in &p.workers {
        println!(
            "  {:<7} {:>10.1} {:>10.1} {:>10.1} {:>12.3} {:>12.3}",
            w.worker,
            w.slot_ns_min as f64 / 1e3,
            w.slot_ns_median as f64 / 1e3,
            w.slot_ns_max as f64 / 1e3,
            w.wait_ns_total() as f64 / 1e6,
            w.blocked_send_ns as f64 / 1e6
        );
    }
}

/// Stacked horizontal bars, one per engine worker plus the coordinator:
/// the five barrier phases' work time in palette colors, aggregate wait
/// in gray. Hand-rolled — `svg::Chart` draws line charts.
fn write_phase_svg(ctx: &Ctx, topo: &Torus, p: &EnginePerf) {
    const W: f64 = 640.0;
    const BAR_H: f64 = 26.0;
    const LEFT: f64 = 110.0;
    const TOP: f64 = 56.0;
    let rows: Vec<(String, Vec<u64>, u64)> = std::iter::once((
        "coordinator".to_string(),
        vec![p.coord.merge_ns, p.coord.mid_ns, p.coord.end_ns, 0, 0],
        p.coord.wait_ns,
    ))
    .chain(
        p.worker_phases
            .iter()
            .enumerate()
            .map(|(i, w)| (format!("worker {i}"), w.work_ns.to_vec(), w.wait_total())),
    )
    .collect();
    let max_total = rows
        .iter()
        .map(|(_, work, wait)| work.iter().sum::<u64>() + wait)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let height = TOP + rows.len() as f64 * (BAR_H + 10.0) + 40.0;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
         viewBox=\"0 0 {} {}\" font-family=\"sans-serif\" font-size=\"12\">",
        W as u32, height as u32, W as u32, height as u32
    );
    let _ = writeln!(
        s,
        "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"14\">\
         phase time per track, {topo} rho=0.9, {} slots</text>",
        W / 2.0,
        p.slots
    );
    // Legend: phase colors, then wait.
    let mut lx = LEFT;
    for (i, name) in PHASE_NAMES.iter().chain(["wait"].iter()).enumerate() {
        let color = PHASE_COLORS[i.min(PHASE_COLORS.len() - 1)];
        let _ = writeln!(
            s,
            "<rect x=\"{lx}\" y=\"30\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{}\" y=\"39\">{name}</text>",
            lx + 14.0
        );
        lx += 14.0 + 9.0 * name.len() as f64 + 14.0;
    }
    for (row, (label, work, wait)) in rows.iter().enumerate() {
        let y = TOP + row as f64 * (BAR_H + 10.0);
        let _ = writeln!(
            s,
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{label}</text>",
            LEFT - 8.0,
            y + BAR_H * 0.7
        );
        let mut x = LEFT;
        let scale = (W - LEFT - 20.0) / max_total;
        for (i, &ns) in work.iter().enumerate() {
            let seg = ns as f64 * scale;
            if seg > 0.0 {
                let _ = writeln!(
                    s,
                    "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{seg:.1}\" \
                     height=\"{BAR_H}\" fill=\"{}\"/>",
                    PHASE_COLORS[i]
                );
            }
            x += seg;
        }
        let seg = *wait as f64 * scale;
        if seg > 0.0 {
            let _ = writeln!(
                s,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{seg:.1}\" height=\"{BAR_H}\" \
                 fill=\"{}\"/>",
                PHASE_COLORS[5]
            );
        }
    }
    let _ = writeln!(s, "</svg>");
    let path = ctx.out.join("perf_phases.svg");
    if let Err(e) = std::fs::write(&path, s) {
        fatal(&format!("writing {}", path.display()), &e);
    }
    println!("plotted {}", path.display());
}
