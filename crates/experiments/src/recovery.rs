//! The `recovery` command: end-to-end loss recovery (ARQ) and overload
//! protection, evaluated for all five schemes.
//!
//! Two sweeps, two artifacts:
//!
//! * **Part A — `recovery.csv`/`.jsonl`**: fault-rate × ρ × recovery-arm
//!   grid under mid-run link outages (same nested-outage + common-random-
//!   numbers design as the `resilience` sweep). The arms compare the
//!   no-recovery baseline against ARQ with each full-queue policy:
//!
//!   | arm | ARQ | queue bound | full-queue policy |
//!   |---|---|---|---|
//!   | `no-arq`          | off | ∞  | — |
//!   | `arq-drop-tail`   | on  | ∞  | drop-tail |
//!   | `arq-drop-lowest` | on  | 16 | evict lowest class |
//!   | `arq-backpressure`| on  | 16 | defer injection |
//!
//!   ARQ uses an unbounded retry budget; with a *transient* fault plan
//!   (checked via [`pstar_sim::FaultPlan::is_transient`]) that makes full delivery a
//!   guarantee, so the ARQ arms' delivered fraction must be exactly 1.
//!
//! * **Part B — `recovery_overload.csv`/`.jsonl`**: offered ρ ∈
//!   {0.8, 1.0, 1.2} with and without token-bucket admission control
//!   (bucket rate = the ρ = 0.7 arrival rate, burst 4). Without
//!   admission, ρ ≥ 1 diverges; with it, queues stay bounded and goodput
//!   degrades smoothly toward admitted/offered.
//!
//! `--smoke` shrinks both grids to a 4×4 torus and *asserts* the
//! acceptance criteria (full ARQ delivery under 1% faults at ρ = 0.5;
//! bounded queues + smooth goodput at ρ = 1.2), exiting nonzero on any
//! violation — the CI gate for the recovery subsystem.

use crate::csvout::Table;
use crate::record::{write_jsonl, PointRecord};
use crate::sweep::{broadcast_arm, nested_outage, parallel_map};
use crate::{Ctx, Gate};
use priority_star::prelude::*;
use priority_star::run_scenario_with_faults;
use pstar_sim::{shuffled_links, AdmissionConfig, ArqConfig, DeadLinkPolicy, FullQueuePolicy};

/// Fraction of links killed during the outage window (full mode).
pub const FAULT_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Offered throughput factors for the fault sweep (full mode).
pub const RHOS: [f64; 3] = [0.3, 0.5, 0.7];

/// Offered throughput factors for the overload sweep.
pub const OVERLOAD_RHOS: [f64; 3] = [0.8, 1.0, 1.2];

/// Throughput factor the admission token bucket admits. Chosen inside
/// every scheme's stable region — including dimension-ordered, whose
/// load imbalance saturates it well below the balanced schemes' ρ = 1
/// (its §2 role), so one bucket rate serves the whole comparison.
pub const ADMITTED_RHO: f64 = 0.5;

/// Queue bound for the bounded-queue arms.
const QUEUE_CAP: u32 = 16;

/// One recovery configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// Losses are final — the pre-recovery engine.
    NoArq,
    /// ARQ with infinite queues (drop-tail never fires).
    ArqDropTail,
    /// ARQ + bounded queues evicting the lowest class when full.
    ArqDropLowest,
    /// ARQ + bounded queues deferring injection at the source.
    ArqBackpressure,
}

const ARMS: [Arm; 4] = [
    Arm::NoArq,
    Arm::ArqDropTail,
    Arm::ArqDropLowest,
    Arm::ArqBackpressure,
];

impl Arm {
    fn label(self) -> &'static str {
        match self {
            Arm::NoArq => "no-arq",
            Arm::ArqDropTail => "arq-drop-tail",
            Arm::ArqDropLowest => "arq-drop-lowest",
            Arm::ArqBackpressure => "arq-backpressure",
        }
    }

    /// Applies the arm to a config. The unbounded retry budget turns
    /// "eventual delivery under transient faults" into a hard guarantee
    /// the smoke gate can assert as an exact 1.0.
    fn apply(self, cfg: &mut SimConfig) {
        let arq = ArqConfig {
            base_timeout: 16,
            max_backoff_exp: 5,
            jitter: 7,
            max_retries: None,
        };
        match self {
            Arm::NoArq => {}
            Arm::ArqDropTail => cfg.arq = Some(arq),
            Arm::ArqDropLowest => {
                cfg.arq = Some(arq);
                cfg.queue_capacity = Some(QUEUE_CAP);
                cfg.full_queue_policy = FullQueuePolicy::DropLowestClass;
            }
            Arm::ArqBackpressure => {
                cfg.arq = Some(arq);
                cfg.queue_capacity = Some(QUEUE_CAP);
                cfg.full_queue_policy = FullQueuePolicy::Backpressure;
            }
        }
    }
}

/// Runs both sweeps, writes the artifacts, and (under `--smoke`)
/// enforces the recovery acceptance criteria.
pub fn recovery(ctx: &Ctx) {
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
    let mut gate = Gate::default();

    fault_sweep(ctx, &topo, cfg0, &mut gate);
    overload_sweep(ctx, &topo, &mut gate);

    gate.finish("recovery");
}

/// Part A: fault-rate × ρ × arm.
fn fault_sweep(ctx: &Ctx, topo: &Torus, cfg0: SimConfig, gate: &mut Gate) {
    let rhos: &[f64] = if ctx.smoke { &[0.5] } else { &RHOS };
    let rates: &[f64] = if ctx.smoke {
        &[0.0, 0.01]
    } else {
        &FAULT_RATES
    };

    let down = cfg0.warmup_slots + cfg0.measure_slots / 4;
    let up = cfg0.warmup_slots + 3 * cfg0.measure_slots / 4;
    let perm = shuffled_links(topo.link_count(), ctx.seed("recovery-links", 0));

    let points: Vec<(SchemeKind, f64, f64, Arm)> = SchemeKind::all()
        .iter()
        .flat_map(|&s| {
            rhos.iter().flat_map(move |&rho| {
                rates
                    .iter()
                    .flat_map(move |&fr| ARMS.iter().map(move |&arm| (s, rho, fr, arm)))
            })
        })
        .collect();

    let arms_per_row = ARMS.len() * rates.len();
    let reports = parallel_map(&points, |i, &(scheme, rho, rate, arm)| {
        let mut cfg = cfg0;
        // Common random numbers: one traffic seed per (scheme, ρ) row,
        // so fault rates and arms differ only through losses & recovery.
        cfg.seed = ctx.seed("recovery", i / arms_per_row);
        // Tail percentiles ride along for free (no RNG impact), so the
        // legacy columns and the CRN pairing are unchanged.
        cfg.tails = true;
        arm.apply(&mut cfg);
        let plan = nested_outage(&perm, rate, down, up);
        // The completeness guarantee asserted below only holds for
        // transient plans; an outage window is transient by construction.
        debug_assert!(plan.is_transient());
        run_scenario_with_faults(
            topo,
            &broadcast_arm(scheme, rho),
            cfg,
            plan,
            DeadLinkPolicy::Drop,
        )
    });

    let mut table = Table::new(&[
        "scheme",
        "rho",
        "fault_rate",
        "arm",
        "delivered_fraction",
        "dropped_packets",
        "lost_receptions",
        "retransmissions",
        "timeouts",
        "gave_up_receptions",
        "recovered_deliveries",
        "recovered_task_delay",
        "broadcast_delay",
        "reception_delay",
        "deferred_injections",
        "evicted_packets",
        "ok",
        "recv_p50",
        "recv_p99",
    ]);
    let mut records = Vec::new();
    for (pi, &(scheme, rho, rate, arm)) in points.iter().enumerate() {
        let rep = &reports[pi];
        table.row(vec![
            scheme.label().to_string(),
            format!("{rho:.2}"),
            format!("{rate:.2}"),
            arm.label().to_string(),
            Table::f(rep.faults.delivered_reception_fraction),
            rep.dropped_packets.to_string(),
            rep.lost_receptions.to_string(),
            rep.recovery.retransmissions.to_string(),
            rep.recovery.timeouts_scheduled.to_string(),
            rep.recovery.gave_up_receptions.to_string(),
            rep.recovery.recovered_deliveries.to_string(),
            Table::f(rep.recovery.recovered_task_delay.mean),
            Table::f(rep.broadcast_delay.mean),
            Table::f(rep.reception_delay.mean),
            rep.flow.deferred_injections.to_string(),
            rep.flow.evicted_packets.to_string(),
            rep.ok().to_string(),
            rep.tails.reception_all.p50.to_string(),
            rep.tails.reception_all.p99.to_string(),
        ]);
        let mut rec =
            PointRecord::new("recovery", &topo.to_string(), scheme.label(), rho, 1.0, rep);
        // Disambiguate the grid cell: encode rate+arm in the scheme
        // label, matching the CSV's (scheme, fault_rate, arm) key.
        rec.scheme = format!("{}/{}/{}", scheme.label(), rate, arm.label());
        records.push(rec);
    }
    table.emit(&ctx.out, "recovery");
    write_jsonl(&ctx.out, "recovery", &records);

    // ARQ with unbounded retries under a transient plan must deliver
    // everything — in any mode a violation is a bug, not noise.
    for (pi, &(scheme, rho, rate, arm)) in points.iter().enumerate() {
        if arm != Arm::NoArq && reports[pi].lost_receptions > 0 {
            eprintln!(
                "[recovery] WARNING: {} rho={rho} rate={rate} {} lost {} receptions despite ARQ",
                scheme.label(),
                arm.label(),
                reports[pi].lost_receptions,
            );
        }
    }

    if !ctx.smoke {
        return;
    }
    // Smoke acceptance (i): at ρ = 0.5 under the 1% outage, every ARQ
    // arm delivers everything while the no-ARQ baseline loses receptions.
    for (pi, &(scheme, _rho, rate, arm)) in points.iter().enumerate() {
        if rate == 0.0 {
            continue;
        }
        let rep = &reports[pi];
        let frac = rep.faults.delivered_reception_fraction;
        let name = format!("recovery/{}/{}", scheme.label(), arm.label());
        if arm == Arm::NoArq {
            gate.check(
                &name,
                rep.ok() && frac < 1.0,
                format!("baseline loses under faults: delivered {frac:.4} < 1"),
            );
        } else {
            gate.check(
                &name,
                rep.ok() && frac == 1.0 && rep.recovery.retransmissions > 0,
                format!(
                    "delivered {frac:.4} (want exactly 1), {} retransmissions",
                    rep.recovery.retransmissions
                ),
            );
        }
    }
}

/// Part B: offered ρ × admission control.
fn overload_sweep(ctx: &Ctx, topo: &Torus, gate: &mut Gate) {
    let mut cfg0 = if ctx.smoke {
        SimConfig::quick(0)
    } else {
        ctx.sat_cfg
    };
    // A tight divergence bound keeps the (deliberately unstable)
    // no-admission overload points cheap.
    cfg0.unstable_queue_per_link = 150.0;

    // Bucket rate = the per-node arrival rate of an admitted ρ.
    let admitted_lambda = broadcast_arm(SchemeKind::PriorityStar, ADMITTED_RHO)
        .mix(topo)
        .lambda_broadcast;

    let points: Vec<(SchemeKind, f64, bool)> = SchemeKind::all()
        .iter()
        .flat_map(|&s| {
            OVERLOAD_RHOS
                .iter()
                .flat_map(move |&rho| [false, true].map(move |adm| (s, rho, adm)))
        })
        .collect();

    let reports = parallel_map(&points, |i, &(scheme, rho, admission)| {
        let mut cfg = cfg0;
        cfg.seed = ctx.seed("recovery-overload", i / 2);
        cfg.tails = true;
        if admission {
            cfg.admission = Some(AdmissionConfig {
                rate: admitted_lambda,
                burst: 4.0,
            });
        }
        run_scenario(topo, &broadcast_arm(scheme, rho), cfg)
    });

    let links = topo.link_count() as f64;
    let mut table = Table::new(&[
        "scheme",
        "rho",
        "admission",
        "stable",
        "completed",
        "goodput_fraction",
        "rejected_broadcasts",
        "mean_queued_per_link",
        "peak_queue_total",
        "reception_delay",
        "ok",
        "recv_p50",
        "recv_p99",
    ]);
    let mut records = Vec::new();
    for (pi, &(scheme, rho, admission)) in points.iter().enumerate() {
        let rep = &reports[pi];
        table.row(vec![
            scheme.label().to_string(),
            format!("{rho:.2}"),
            admission.to_string(),
            rep.stable.to_string(),
            rep.completed.to_string(),
            Table::f(rep.flow.goodput_fraction),
            rep.flow.rejected_broadcasts.to_string(),
            Table::f(rep.flow.mean_queued_packets / links),
            rep.peak_queue_total.to_string(),
            Table::f(rep.reception_delay.mean),
            rep.ok().to_string(),
            rep.tails.reception_all.p50.to_string(),
            rep.tails.reception_all.p99.to_string(),
        ]);
        let mut rec = PointRecord::new(
            "recovery_overload",
            &topo.to_string(),
            scheme.label(),
            rho,
            1.0,
            rep,
        );
        rec.scheme = format!(
            "{}/{}",
            scheme.label(),
            if admission { "admission" } else { "open" }
        );
        records.push(rec);
    }
    table.emit(&ctx.out, "recovery_overload");
    write_jsonl(&ctx.out, "recovery_overload", &records);

    if !ctx.smoke {
        return;
    }
    // Smoke acceptance (ii): with admission control at ρ = 1.2 the run
    // stays stable with bounded queues, and goodput degrades smoothly
    // (strictly below the ρ = 0.8 goodput, but nowhere near collapse).
    let idx = |scheme: SchemeKind, rho: f64, adm: bool| {
        points
            .iter()
            .position(|&(s, r, a)| s == scheme && r == rho && a == adm)
            .expect("point grid covers the queried cell")
    };
    for &scheme in SchemeKind::all().iter() {
        let hot = &reports[idx(scheme, 1.2, true)];
        let cool = &reports[idx(scheme, 0.8, true)];
        let per_link = hot.flow.mean_queued_packets / links;
        let name = format!("overload/{}", scheme.label());
        gate.check(
            &format!("{name}/bounded"),
            hot.ok() && per_link < cfg0.unstable_queue_per_link,
            format!(
                "ρ=1.2 admitted: ok={}, {per_link:.2} queued/link < {}",
                hot.ok(),
                cfg0.unstable_queue_per_link
            ),
        );
        gate.check(
            &format!("{name}/graceful"),
            hot.flow.rejected_broadcasts > 0
                && hot.flow.goodput_fraction > 0.3
                && hot.flow.goodput_fraction < cool.flow.goodput_fraction,
            format!(
                "goodput degrades smoothly: {:.3} (ρ=1.2) < {:.3} (ρ=0.8), {} rejected",
                hot.flow.goodput_fraction, cool.flow.goodput_fraction, hot.flow.rejected_broadcasts
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_sorted_and_sane() {
        assert!(FAULT_RATES.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(FAULT_RATES[0], 0.0);
        assert!(RHOS.windows(2).all(|w| w[0] < w[1]));
        assert!(OVERLOAD_RHOS.windows(2).all(|w| w[0] < w[1]));
        assert!(OVERLOAD_RHOS.last().unwrap() > &1.0, "must cover overload");
        assert!(ADMITTED_RHO < *OVERLOAD_RHOS.first().unwrap());
    }

    #[test]
    fn arm_labels_are_unique() {
        let labels: Vec<&str> = ARMS.iter().map(|a| a.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn arms_only_add_recovery_machinery() {
        // The no-arq arm must leave the config untouched so its runs are
        // bit-identical to the pre-recovery engine.
        let mut cfg = SimConfig::quick(1);
        Arm::NoArq.apply(&mut cfg);
        assert_eq!(cfg, SimConfig::quick(1));
        let mut cfg = SimConfig::quick(1);
        Arm::ArqBackpressure.apply(&mut cfg);
        assert!(cfg.arq.is_some());
        assert_eq!(cfg.queue_capacity, Some(QUEUE_CAP));
        assert_eq!(cfg.full_queue_policy, FullQueuePolicy::Backpressure);
        // Unbounded retries: the completeness guarantee's precondition.
        assert!(cfg.arq.unwrap().max_retries.is_none());
    }
}
