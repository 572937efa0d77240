//! `experiments scenarios`: the workload-scenario matrix — bursty
//! (MMPP, ON-OFF), diurnal, hot-spot, permutation (transpose,
//! bit-reversal, shuffle) and all-to-all workloads crossed with every
//! scheme and a ρ grid.
//!
//! Every scenario runs through the same [`ScenarioConfig`] layer the
//! engines consume (`pstar_traffic::scenario`), so this sweep exercises
//! exactly the code path the cross-backend differential tests pin.
//! Artifacts:
//!
//! * `results/scenarios.csv` — scheme × scenario × ρ reception table;
//! * `results/scenarios_cdf.svg` — priority-STAR reception-delay CDF
//!   per scenario at the highest swept ρ;
//! * `results/scenario_findings.md` — stamped with the revision and
//!   mode that produced it: the all-to-all completion measurement
//!   against the analytic bound, and every (scenario, ρ) point where
//!   FCFS-direct beat priority STAR on p99 reception delay, with the
//!   delta (inversions are recorded loudly, not papered over).
//!
//! Under `--smoke` the run is the CI gate:
//!
//! 1. **Cross-backend differential**: each scenario runs on the serial
//!    engine, the sharded engine at 2 and 4 shards (on the scenario's
//!    own mix) and the pstar-net runtime at 2 and 3 workers (on the
//!    scenario's broadcast-only projection — the runtime's documented
//!    contract excludes unicast forwarding draws), and every one must
//!    report the serial run bit for bit
//!    (`SimReport::first_difference`).
//! 2. **All-to-all bound**: the measured completion of a simultaneous
//!    all-node broadcast phase must sit between the Jung & Sakho-style
//!    lower bound `max(⌈(N−1)/degree⌉, diameter)` and
//!    [`ALL_TO_ALL_SLACK`]× that bound.
//! 3. **Stability**: the steady baseline must be clean at every swept ρ.

use crate::csvout::Table;
use crate::svg::{write_svg, Chart, Series};
use crate::sweep::{mixed_arm, parallel_map};
use crate::{fatal, Ctx, Gate};
use priority_star::prelude::*;
use pstar_net::{run_net, NetConfig};
use pstar_obs::git_rev;
use pstar_sim::{SimConfig, SimReport};
use std::fmt::Write as _;

/// Per-scenario series colors (matplotlib "tab" palette).
const COLORS: [&str; 8] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#ff7f0e", "#17becf", "#7f7f7f",
];

/// Smoke slack on the all-to-all completion: measured completion must
/// not exceed this multiple of the analytic lower bound. Store-and-
/// forward contention of N simultaneous broadcasts genuinely costs a
/// small constant factor over the bound; 6× is loose enough to be
/// machine-independent and tight enough to catch a broken spawn path
/// (which either injects nothing — completion 0 < bound — or serializes
/// and blows far past it).
const ALL_TO_ALL_SLACK: u64 = 6;

/// One named workload scenario: a [`ScenarioConfig`] plus the traffic
/// mix it is interesting under (destination matrices only matter when
/// unicast traffic exists).
struct Scenario {
    label: &'static str,
    cfg: ScenarioConfig,
    broadcast_load_fraction: f64,
}

/// The scenario matrix. Every entry is valid on the square
/// power-of-two-node tori the sweep uses (4×4 smoke, 8×8 full):
/// transpose needs palindromic dims, bit-reversal and shuffle need
/// power-of-two node counts.
fn catalog() -> Vec<Scenario> {
    let dest = |label, dests| Scenario {
        label,
        cfg: ScenarioConfig {
            dests,
            ..Default::default()
        },
        // 50/50 mix: destination matrices shape the unicast half.
        broadcast_load_fraction: 0.5,
    };
    let load = |label, modulation| Scenario {
        label,
        cfg: ScenarioConfig {
            modulation,
            ..Default::default()
        },
        broadcast_load_fraction: 1.0,
    };
    vec![
        load("steady", RateModulation::Steady),
        // Mean-1 normalized: 4× hi/lo burst ratio, ~50-slot sojourns.
        load("mmpp", RateModulation::mmpp_normalized(0.02, 0.02, 4.0)),
        // Duty 0.5 → ON offers 2× the configured rate, OFF is silent.
        load(
            "onoff",
            RateModulation::OnOff {
                p_on: 0.02,
                p_off: 0.02,
            },
        ),
        load(
            "diurnal",
            RateModulation::Diurnal {
                period: 500,
                amplitude: 0.5,
            },
        ),
        dest(
            "hotspot",
            DestMatrix::HotSpot {
                node: 0,
                weight: 8.0,
            },
        ),
        dest("transpose", DestMatrix::Permutation(PermKind::Transpose)),
        dest("bitrev", DestMatrix::Permutation(PermKind::BitReversal)),
        dest("shuffle", DestMatrix::Permutation(PermKind::Shuffle)),
    ]
}

/// The spec of one sweep point.
fn point_spec(s: &Scenario, scheme: SchemeKind, rho: f64) -> ScenarioSpec {
    let mut spec = mixed_arm(scheme, rho, s.broadcast_load_fraction);
    spec.scenario = s.cfg;
    spec
}

/// Runs the scenario matrix, writes the artifacts, and (under
/// `--smoke`) enforces the differential and all-to-all gates.
pub fn scenarios(ctx: &Ctx) {
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
    // Bursty modulation doubles the instantaneous load while ON, so the
    // grid tops out below where a 2× excursion saturates outright.
    let rhos: &[f64] = if ctx.smoke {
        &[0.4, 0.7]
    } else {
        &[0.3, 0.5, 0.7, 0.85]
    };
    let scens = catalog();
    let schemes = SchemeKind::all();

    // scenario-major × scheme × ρ grid; common random numbers across
    // schemes AND scenarios at the same ρ (seed depends only on the ρ
    // index), so paired p99 comparisons subtract arrival noise.
    let mut points: Vec<(usize, SchemeKind, f64)> = Vec::new();
    for (si, _) in scens.iter().enumerate() {
        for &scheme in &schemes {
            for &rho in rhos {
                points.push((si, scheme, rho));
            }
        }
    }
    let reports: Vec<SimReport> = parallel_map(&points, |i, &(si, scheme, rho)| {
        let t0 = std::time::Instant::now();
        let mut cfg = cfg0;
        cfg.tails = true;
        cfg.seed = ctx.seed("scenarios", i % rhos.len());
        let rep = run_scenario(&topo, &point_spec(&scens[si], scheme, rho), cfg);
        ctx.push_phase(
            &format!("{}:{}:rho{rho}", scens[si].label, scheme.label()),
            t0.elapsed().as_secs_f64(),
            Some(rep.slots_run),
        );
        rep
    });

    let mut table = Table::new(&[
        "scenario",
        "scheme",
        "rho",
        "measured_bcast",
        "measured_uni",
        "recv_mean",
        "recv_p99",
        "recv_max",
        "util",
        "ok",
    ]);
    for (i, &(si, scheme, rho)) in points.iter().enumerate() {
        let r = &reports[i];
        table.row(vec![
            scens[si].label.to_string(),
            scheme.label().to_string(),
            Table::f(rho),
            r.measured_broadcasts.to_string(),
            r.measured_unicasts.to_string(),
            Table::f(r.reception_delay.mean),
            r.tails.reception_all.p99.to_string(),
            r.tails.reception_all.max.to_string(),
            Table::f(r.mean_link_utilization),
            r.ok().to_string(),
        ]);
    }
    table.emit(&ctx.out, "scenarios");

    let rho_hi = *rhos.last().expect("non-empty rho grid");
    write_cdf_figure(ctx, &scens, &points, &reports, rho_hi);

    let a2a = all_to_all_gate(ctx, &topo);
    println!(
        "all-to-all: bound {} slots, measured {} slots (slack budget {}x)",
        a2a.bound, a2a.measured, ALL_TO_ALL_SLACK
    );
    write_findings(ctx, &topo, &scens, &points, &reports, &a2a);

    if ctx.smoke {
        let mut gate = Gate::default();
        differential_gate(ctx, &topo, &scens, &mut gate);
        gate.check(
            "alltoall-bound",
            a2a.measured >= a2a.bound && a2a.measured <= ALL_TO_ALL_SLACK * a2a.bound,
            format!(
                "bound {} <= measured {} <= {} (slack {}x)",
                a2a.bound,
                a2a.measured,
                ALL_TO_ALL_SLACK * a2a.bound,
                ALL_TO_ALL_SLACK
            ),
        );
        for (i, &(si, scheme, rho)) in points.iter().enumerate() {
            // Dimension-ordered is the §2 strawman: it saturates well
            // below the rotation schemes by design, so only the low-ρ
            // point is gated for it.
            let gated = scens[si].label == "steady"
                && (scheme != SchemeKind::DimensionOrdered || rho <= 0.5);
            if gated {
                gate.check(
                    "steady-stable",
                    reports[i].ok(),
                    format!("{} clean at rho={rho}", scheme.label()),
                );
            }
        }
        gate.finish("scenarios");
    }
}

/// Priority-STAR reception-delay CDF per scenario at the top of the ρ
/// grid — the figure that makes burstiness visible (heavier tail, same
/// mean load).
fn write_cdf_figure(
    ctx: &Ctx,
    scens: &[Scenario],
    points: &[(usize, SchemeKind, f64)],
    reports: &[SimReport],
    rho_hi: f64,
) {
    let mut series = Vec::new();
    for (i, &(si, scheme, rho)) in points.iter().enumerate() {
        if scheme != SchemeKind::PriorityStar || rho != rho_hi {
            continue;
        }
        let pts: Vec<(f64, f64)> = reports[i]
            .tails
            .reception_cdf
            .iter()
            .map(|&(x, y)| (x as f64, y))
            .collect();
        if !pts.is_empty() {
            series.push(Series {
                label: scens[si].label.to_string(),
                points: pts,
                color: COLORS[series.len() % COLORS.len()].to_string(),
                dashed: false,
            });
        }
    }
    if series.is_empty() {
        return;
    }
    let chart = Chart {
        title: format!("priority STAR reception-delay CDF by scenario at rho={rho_hi}"),
        x_label: "reception delay (slots)".into(),
        y_label: "cumulative fraction".into(),
        series,
    };
    write_svg(ctx, "scenarios_cdf", &chart);
}

/// Writes `scenario_findings.md`: a stamp line (revision, mode,
/// topology), the all-to-all measurement against its bound, and every
/// (scenario, ρ) point where FCFS-direct beat priority STAR on p99
/// reception delay — the comparisons are CRN-paired, so an inversion is
/// a property of the workload, not arrival noise.
fn write_findings(
    ctx: &Ctx,
    topo: &Torus,
    scens: &[Scenario],
    points: &[(usize, SchemeKind, f64)],
    reports: &[SimReport],
    a2a: &AllToAll,
) {
    let p99 = |si: usize, scheme: SchemeKind, rho: f64| {
        points
            .iter()
            .position(|&(s, k, r)| s == si && k == scheme && r == rho)
            .map(|i| reports[i].tails.reception_all.p99)
    };
    let mut rows = Vec::new();
    for (si, s) in scens.iter().enumerate() {
        let mut rhos: Vec<f64> = points
            .iter()
            .filter(|&&(i, k, _)| i == si && k == SchemeKind::PriorityStar)
            .map(|&(_, _, r)| r)
            .collect();
        rhos.dedup();
        for rho in rhos {
            let (Some(ps), Some(fc)) = (
                p99(si, SchemeKind::PriorityStar, rho),
                p99(si, SchemeKind::FcfsDirect, rho),
            ) else {
                continue;
            };
            if ps > fc {
                rows.push((s.label, rho, ps, fc));
            }
        }
    }

    let mut md = String::new();
    let _ = writeln!(
        md,
        "Produced by `experiments{} scenarios` on {topo} at git_rev `{}`.\n",
        if ctx.smoke { " --smoke" } else { "" },
        git_rev().as_deref().unwrap_or("unknown"),
    );
    md.push_str("# Scenario findings\n\n## All-to-all completion\n\n");
    let _ = writeln!(
        md,
        "Every node broadcasts at slot 0 over a 5% background: the last\n\
         reception lands at slot **{}** against the Jung & Sakho-style lower\n\
         bound `max(ceil((N-1)/degree), diameter)` = **{}** slots ({:.2}x the\n\
         bound; the smoke gate allows {ALL_TO_ALL_SLACK}x).\n",
        a2a.measured,
        a2a.bound,
        a2a.measured as f64 / a2a.bound as f64,
    );
    let _ = writeln!(md, "## p99 inversions: {}\n", rows.len());
    md.push_str(
        "CRN-paired points where **FCFS-direct beat priority STAR** on p99\n\
         reception delay. The priority discipline optimizes the broadcast\n\
         trunk; workloads dominated by other effects (a saturated hot node,\n\
         adversarial permutations) can invert the ordering — such points\n\
         are recorded here rather than hidden.\n\n",
    );
    if rows.is_empty() {
        md.push_str("No inversions observed on this sweep.\n");
    } else {
        md.push_str("| scenario | rho | priority-star p99 | fcfs-direct p99 | delta |\n");
        md.push_str("|---|---|---|---|---|\n");
        for &(label, rho, ps, fc) in &rows {
            let _ = writeln!(md, "| {label} | {rho} | {ps} | {fc} | +{} |", ps - fc);
        }
    }
    let path = ctx.out.join("scenario_findings.md");
    if let Err(e) = std::fs::write(&path, &md) {
        fatal(&format!("writing {}", path.display()), &e);
    }
    println!(
        "recorded {} p99 inversion(s) in {}",
        rows.len(),
        path.display()
    );
}

/// All-to-all measurement: every node injects one broadcast at slot 0
/// over a near-idle background, and the completion time (max reception
/// delay, measured from slot 0 with no warmup) is compared against the
/// analytic lower bound `max(⌈(N−1)/degree⌉, diameter)`.
struct AllToAll {
    bound: u64,
    measured: u64,
}

fn all_to_all_gate(ctx: &Ctx, topo: &Torus) -> AllToAll {
    let dims: Vec<u32> = (0..topo.d()).map(|i| topo.dim_size(i)).collect();
    let bound = all_to_all_lower_bound(&dims);
    let mut spec = mixed_arm(SchemeKind::PriorityStar, 0.05, 1.0);
    spec.scenario.all_to_all_at = Some(0);
    let cfg = SimConfig {
        warmup_slots: 0,
        measure_slots: 500,
        max_slots: 100_000,
        tails: true,
        seed: ctx.seed("scenarios-a2a", 0),
        ..SimConfig::default()
    };
    let t0 = std::time::Instant::now();
    let rep = run_scenario(topo, &spec, cfg);
    ctx.push_phase("alltoall", t0.elapsed().as_secs_f64(), Some(rep.slots_run));
    assert!(
        rep.ok(),
        "the all-to-all phase over a 5% background must drain cleanly"
    );
    AllToAll {
        bound,
        // The burst dominates the maximum: the background is ~idle.
        measured: rep.tails.reception_all.max,
    }
}

/// Every scenario through serial, sharded (2 and 4 shards, the
/// scenario's own mix) and the pstar-net runtime (2 and 3 workers),
/// asserting report identity. The net legs run each scenario's
/// **broadcast-only projection**: draw-for-draw agreement on mixed
/// workloads is a documented non-goal of the runtime (unicast
/// forwarding tie-breaks come from per-worker streams, which the
/// engine interleaves into its single stream — see `pstar-net`'s crate
/// docs), so net agreement is contractual only without unicast.
/// Destination matrices shape unicast traffic, so on the net legs
/// their samplers sit constructed-but-idle; serial ≡ sharded covers
/// them cross-backend on the full mix. The heavyweight version of this
/// gate — more grids, fault plans, CRN ordering, proptests — lives in
/// `tests/scenarios.rs`; this is the CI smoke echo.
fn differential_gate(ctx: &Ctx, topo: &Torus, scens: &[Scenario], gate: &mut Gate) {
    for (si, s) in scens.iter().enumerate() {
        let spec = point_spec(s, SchemeKind::PriorityStar, 0.5);
        let mut cfg = SimConfig::quick(0);
        cfg.seed = ctx.seed("scenarios-diff", si);
        let t0 = std::time::Instant::now();
        let serial = run_scenario(topo, &spec, cfg);
        for shards in [2usize, 4] {
            let sharded = run_scenario_sharded(topo, &spec, cfg, shards, 2, None);
            gate.same_report(
                "differential",
                &serial,
                &sharded,
                format!("{}: serial == sharded@{shards}", s.label),
            );
        }
        let mut bspec = spec;
        bspec.broadcast_load_fraction = 1.0;
        let serial_b = run_scenario(topo, &bspec, cfg);
        // The runtime takes the scenario through `SimConfig`, so the
        // spec must be applied to the config by hand (the run_scenario_*
        // wrappers do this internally).
        let mut net_sim = cfg;
        net_sim.lengths = bspec.lengths;
        net_sim.scenario = bspec.scenario;
        let mix = bspec.mix(topo);
        for workers in [2usize, 3] {
            let net = run_net(
                topo,
                bspec.build_scheme(topo),
                mix,
                NetConfig {
                    workers,
                    ..NetConfig::new(net_sim)
                },
            )
            .unwrap_or_else(|e| fatal(&format!("net run for {}", s.label), &e));
            let r = &net.report;
            gate.same_report(
                "differential",
                &serial_b,
                r,
                format!(
                    "{}: serial == net@{workers}, broadcast-only ({} bcast, {} recv)",
                    s.label, r.measured_broadcasts, r.reception_delay.count
                ),
            );
        }
        ctx.push_phase(
            &format!("diff:{}", s.label),
            t0.elapsed().as_secs_f64(),
            Some(serial.slots_run),
        );
    }
}
