//! Workload traces and engine cross-validation.
//!
//! Records one concrete random workload (a morning's worth of broadcast
//! requests on an 8×8 torus), then replays the *identical* request
//! stream under both the FCFS baseline and priority STAR — an
//! apples-to-apples comparison impossible with independent stochastic
//! runs — and finally cross-checks the step-based engine against the
//! independent event-driven implementation.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use priority_star::prelude::*;
use pstar_traffic::Trace;
use rand::SeedableRng;

fn main() {
    let topo = Torus::new(&[8, 8]);
    let rho = 0.85;
    let spec = ScenarioSpec {
        rho,
        ..Default::default()
    };
    let mix = spec.mix(&topo);

    // Record the workload once.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    let trace = Trace::synthesize(
        &mut rng,
        topo.node_count(),
        mix,
        WorkloadSpec::Fixed(1),
        40_000,
    );
    println!(
        "recorded {} broadcast requests over {} slots on {topo} (rho = {rho})",
        trace.len(),
        trace.horizon() + 1
    );

    // Optionally persist/reload — the text format round-trips exactly.
    let path = std::env::temp_dir().join("pstar-demo.trace");
    trace.save(&path).expect("save trace");
    let trace = Trace::load(&path).expect("load trace");
    println!("trace saved to and reloaded from {}\n", path.display());

    // Replay the identical workload under both schemes.
    let cfg = SimConfig {
        warmup_slots: 5_000,
        measure_slots: 30_000,
        ..SimConfig::default()
    };
    println!("{:<16} {:>10} {:>10}", "scheme", "reception", "broadcast");
    let mut star_mean = 0.0;
    for (label, scheme) in [
        ("fcfs-direct", StarScheme::fcfs_direct(&topo)),
        ("priority-star", StarScheme::priority_star(&topo)),
    ] {
        let rep = pstar_sim::run_trace(&topo, scheme, &trace, cfg)
            .expect("every trace node is on the torus");
        assert!(rep.ok(), "replay did not converge: {rep}");
        println!(
            "{label:<16} {:>10.2} {:>10.2}",
            rep.reception_delay.mean, rep.broadcast_delay.mean
        );
        star_mean = rep.reception_delay.mean;
    }
    println!("(same request stream for both rows — no sampling noise in the comparison)\n");

    // Cross-validate the two engine implementations on a live run.
    let step = run_scenario(&topo, &spec, cfg);
    let event =
        pstar_sim::EventEngine::new(topo.clone(), spec.build_scheme(&topo), spec.mix(&topo), cfg)
            .run();
    println!("engine cross-validation at rho = {rho} (independent implementations):");
    println!(
        "  step-based engine:   reception {:.3} slots",
        step.reception_delay.mean
    );
    println!(
        "  event-driven engine: reception {:.3} slots",
        event.reception_delay.mean
    );
    println!(
        "  trace replay above:  reception {star_mean:.3} slots (same distribution, one instance)"
    );
}
