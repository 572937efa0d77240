//! The `resilience` command: delivered fraction, fault drops and
//! recovery time under link-outage fault plans, for all five schemes
//! across a fault-rate × ρ grid.
//!
//! Design for comparability:
//!
//! * **Nested outages.** One seeded permutation of the link set is drawn
//!   per invocation; fault rate `f` kills the first `⌈f·L⌉` links of that
//!   permutation. Higher rates therefore kill a *superset* of the links
//!   killed by lower rates, so the delivered fraction is monotone
//!   non-increasing in `f` by construction (up to routing adaptation).
//! * **Common random numbers.** Each (scheme, ρ) pair uses one traffic
//!   seed across every fault rate, so curves differ only through the
//!   faults themselves.
//! * **Mid-run outage window.** Links die at `warmup + measure/4` and
//!   recover at `warmup + 3·measure/4`: the window observes healthy
//!   operation, the degraded epoch, and post-repair recovery.

use crate::csvout::Table;
use crate::record::{write_jsonl, PointRecord};
use crate::sweep::{broadcast_arm, dead_count, nested_outage, parallel_map};
use crate::Ctx;
use priority_star::prelude::*;
use priority_star::run_scenario_with_faults;
use pstar_sim::{shuffled_links, DeadLinkPolicy};

/// Fraction of links killed during the outage window.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// Offered throughput factors.
pub const RHOS: [f64; 3] = [0.3, 0.5, 0.7];

/// Runs the sweep and writes `resilience.csv` + `resilience.jsonl`.
pub fn resilience(ctx: &Ctx) {
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
    let perm = shuffled_links(topo.link_count(), ctx.seed("resilience-links", 0));

    let schemes = SchemeKind::all();
    let points: Vec<(SchemeKind, f64, f64)> = schemes
        .iter()
        .flat_map(|&s| {
            RHOS.iter()
                .flat_map(move |&rho| FAULT_RATES.iter().map(move |&fr| (s, rho, fr)))
        })
        .collect();

    let reports = parallel_map(&points, |i, &(scheme, rho, rate)| {
        let mut cfg = cfg0;
        // One traffic seed per (scheme, ρ): rates on the same row of the
        // sweep see identical offered workloads.
        cfg.seed = ctx.seed("resilience", i / FAULT_RATES.len());
        // Tail percentiles ride along for free (no RNG impact), so the
        // legacy columns and the CRN pairing are unchanged.
        cfg.tails = true;
        run_scenario_with_faults(
            &topo,
            &broadcast_arm(scheme, rho),
            cfg,
            nested_outage(&perm, rate, down, up),
            DeadLinkPolicy::Drop,
        )
    });

    let mut table = Table::new(&[
        "scheme",
        "rho",
        "fault_rate",
        "dead_links",
        "delivered_fraction",
        "fault_dropped",
        "lost_receptions",
        "damaged_broadcasts",
        "recovery_mean",
        "recovery_n",
        "reception_delay",
        "wait_fault_hi",
        "wait_fault_lo",
        "ok",
        "recv_p50",
        "recv_p99",
    ]);
    let mut records = Vec::new();
    for (pi, &(scheme, rho, rate)) in points.iter().enumerate() {
        let rep = &reports[pi];
        let f = &rep.faults;
        let wait_fault = |idx: Option<usize>| {
            idx.and_then(|i| f.class_wait_fault.get(i))
                .map_or(0.0, |s| s.mean)
        };
        table.row(vec![
            scheme.label().to_string(),
            format!("{rho:.2}"),
            format!("{rate:.2}"),
            dead_count(topo.link_count(), rate).to_string(),
            Table::f(f.delivered_reception_fraction),
            f.fault_dropped_packets.to_string(),
            rep.lost_receptions.to_string(),
            rep.damaged_broadcasts.to_string(),
            Table::f(f.recovery_time.mean),
            f.recovery_time.count.to_string(),
            Table::f(rep.reception_delay.mean),
            Table::f(wait_fault(Some(0))),
            Table::f(wait_fault(f.class_wait_fault.len().checked_sub(1))),
            rep.ok().to_string(),
            rep.tails.reception_all.p50.to_string(),
            rep.tails.reception_all.p99.to_string(),
        ]);
        records.push(PointRecord::new(
            "resilience",
            &topo.to_string(),
            scheme.label(),
            rho,
            1.0,
            rep,
        ));
    }
    table.emit(&ctx.out, "resilience");
    write_jsonl(&ctx.out, "resilience", &records);

    // Sanity: with nested outages and common random numbers, the
    // delivered fraction must not increase with the fault rate.
    for (si, &scheme) in schemes.iter().enumerate() {
        for (ri, &rho) in RHOS.iter().enumerate() {
            let base = (si * RHOS.len() + ri) * FAULT_RATES.len();
            let fracs: Vec<f64> = (0..FAULT_RATES.len())
                .map(|k| reports[base + k].faults.delivered_reception_fraction)
                .collect();
            if fracs.windows(2).any(|w| w[1] > w[0] + 1e-12) {
                eprintln!(
                    "[resilience] WARNING: delivered fraction not monotone for {} rho={}: {:?}",
                    scheme.label(),
                    rho,
                    fracs
                );
            }
        }
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
        assert!(RHOS.iter().all(|&r| r > 0.0 && r < 1.0));
    }
}
