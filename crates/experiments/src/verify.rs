//! The `verify` command: a self-contained reproduction gate.
//!
//! Re-runs a scaled-down version of every headline claim and prints
//! PASS/FAIL per claim, exiting nonzero on any failure — the thing CI
//! runs to ensure the reproduction stays reproduced.

use crate::{Ctx, Gate};
use priority_star::prelude::*;
use pstar_traffic::TrafficMix;

fn quick(seed: u64) -> SimConfig {
    SimConfig {
        warmup_slots: 2_000,
        measure_slots: 10_000,
        max_slots: 300_000,
        unstable_queue_per_link: 150.0,
        seed,
        ..SimConfig::default()
    }
}

fn run(topo: &Torus, kind: SchemeKind, rho: f64, frac: f64, seed: u64) -> SimReport {
    run_scenario(topo, &crate::sweep::mixed_arm(kind, rho, frac), quick(seed))
}

/// Runs the full gate; exits the process with status 1 on any failure.
pub fn verify(_ctx: &Ctx) {
    let mut gate = Gate::default();

    // Claim 1 (Figs. 2–7): priority STAR beats FCFS at high load, on both
    // delay metrics.
    {
        let topo = Torus::new(&[8, 8]);
        let fcfs = run(&topo, SchemeKind::FcfsDirect, 0.85, 1.0, 1);
        let pstar = run(&topo, SchemeKind::PriorityStar, 0.85, 1.0, 1);
        gate.check(
            "figs2-7/ordering",
            fcfs.ok()
                && pstar.ok()
                && pstar.reception_delay.mean < fcfs.reception_delay.mean
                && pstar.broadcast_delay.mean < fcfs.broadcast_delay.mean,
            format!(
                "reception {:.2} < {:.2}, broadcast {:.2} < {:.2}",
                pstar.reception_delay.mean,
                fcfs.reception_delay.mean,
                pstar.broadcast_delay.mean,
                fcfs.broadcast_delay.mean
            ),
        );
    }

    // Claim 2 (Fig. 4 caption): the queueing speedup grows with dimension.
    {
        let speedup = |dims: &[u32], seed| {
            let topo = Torus::new(dims);
            let fcfs = run(&topo, SchemeKind::FcfsDirect, 0.9, 1.0, seed);
            let pstar = run(&topo, SchemeKind::PriorityStar, 0.9, 1.0, seed);
            (fcfs.reception_delay.mean - topo.avg_distance())
                / (pstar.reception_delay.mean - topo.avg_distance())
        };
        let s2 = speedup(&[8, 8], 2);
        let s3 = speedup(&[8, 8, 8], 2);
        gate.check(
            "fig4/dimension-trend",
            s3 > s2,
            format!("queueing speedup d=3 ({s3:.2}) > d=2 ({s2:.2})"),
        );
    }

    // Claim 3 (T1): asymmetric torus, 50/50 mix — oblivious caps, Eq. (4)
    // balancing sustains.
    {
        let topo = Torus::new(&[4, 4, 8]);
        let oblivious = run(&topo, SchemeKind::FcfsDirect, 0.85, 0.5, 3);
        let balanced = run(&topo, SchemeKind::PriorityStar, 0.85, 0.5, 3);
        gate.check(
            "t1/asymmetric-balance",
            !oblivious.ok() && balanced.ok(),
            format!(
                "oblivious ok={} (should be false), balanced ok={}",
                oblivious.ok(),
                balanced.ok()
            ),
        );
    }

    // Claim 4 (T2): dimension-ordered saturates near 2/d.
    {
        let topo = Torus::hypercube(5);
        let cap = 31.0 / (5.0 * 16.0); // exact (2^d−1)/(d·2^{d−1})
        let below = run(&topo, SchemeKind::DimensionOrdered, cap * 0.8, 1.0, 4);
        let above = run(&topo, SchemeKind::DimensionOrdered, cap * 1.3, 1.0, 5);
        gate.check(
            "t2/two-over-d",
            below.ok() && !above.ok(),
            format!("stable at {:.2}, unstable at {:.2}", cap * 0.8, cap * 1.3),
        );
    }

    // Claim 5 (T3): unicast delay stays near the distance under priority.
    {
        let topo = Torus::new(&[8, 8]);
        let rep = run(&topo, SchemeKind::PriorityStar, 0.9, 0.5, 6);
        gate.check(
            "t3/unicast-flat",
            rep.ok() && rep.unicast_delay.mean < topo.avg_distance() + 2.5,
            format!(
                "unicast {:.2} vs distance {:.2}",
                rep.unicast_delay.mean,
                topo.avg_distance()
            ),
        );
    }

    // Claim 6 (T6): the open mesh caps near its corner bound.
    {
        let mesh = Mesh::new(&[8, 8]);
        let lambda = |rho: f64| rho * mesh.avg_degree() / (mesh.node_count() as f64 - 1.0);
        let mut cfg = quick(7);
        cfg.unstable_single_queue = 300.0;
        let low = pstar_sim::run(
            &mesh,
            MeshStarScheme::fcfs(&mesh),
            TrafficMix::broadcast_only(lambda(0.4)),
            cfg,
        );
        let high = pstar_sim::run(
            &mesh,
            MeshStarScheme::fcfs(&mesh),
            TrafficMix::broadcast_only(lambda(0.8)),
            cfg,
        );
        gate.check(
            "t6/mesh-cap",
            low.ok() && !high.ok(),
            format!("mesh ok at 0.4: {}, ok at 0.8: {}", low.ok(), high.ok()),
        );
    }

    // Claim 7: engine cross-validation.
    {
        let topo = Torus::new(&[8, 8]);
        let spec = crate::sweep::broadcast_arm(SchemeKind::PriorityStar, 0.8);
        let step = run_scenario(&topo, &spec, quick(8));
        let event = pstar_sim::EventEngine::new(
            topo.clone(),
            spec.build_scheme(&topo),
            spec.mix(&topo),
            quick(8),
        )
        .run();
        let rel = (step.reception_delay.mean - event.reception_delay.mean).abs()
            / step.reception_delay.mean;
        gate.check(
            "v1/engine-agreement",
            step.ok() && event.ok() && rel < 0.05,
            format!(
                "step {:.3} vs event {:.3} ({:.1}% apart)",
                step.reception_delay.mean,
                event.reception_delay.mean,
                rel * 100.0
            ),
        );
    }

    // Claim 8: MNB with rotation sits near the bandwidth bound.
    {
        let topo = Torus::new(&[8, 8]);
        let res = multinode_broadcast(&topo, StarScheme::fcfs_balanced(&topo), 9);
        gate.check(
            "collective/mnb-bound",
            res.efficiency_gap() < 2.5,
            format!(
                "completion {} vs bound {:.1} (gap {:.2}x)",
                res.completion_slots,
                res.lower_bound_slots,
                res.efficiency_gap()
            ),
        );
    }

    gate.finish("verify");
    println!("verify: all claims reproduced");
}
