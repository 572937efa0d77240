//! End-to-end tests of the extension features layered on the paper's
//! model: finite buffers, hot-spot sources, replication control,
//! batch-means CIs, delay quantiles and queue traces.

use priority_star::prelude::*;
use pstar_traffic::SourceDistribution;

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_slots: 3_000,
        measure_slots: 12_000,
        max_slots: 600_000,
        seed,
        ..SimConfig::default()
    }
}

/// Finite buffers: lossless below saturation, lossy-but-live above it.
#[test]
fn finite_buffers_graceful_overload() {
    let topo = Torus::new(&[8, 8]);
    let mut c = cfg(1);
    c.queue_capacity = Some(16);

    let under = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.6,
        ..Default::default()
    };
    let rep = run_scenario(&topo, &under, c);
    assert!(rep.ok());
    assert_eq!(
        rep.dropped_packets, 0,
        "no drops at rho=0.6 with 16-deep buffers"
    );

    let over = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 1.3,
        ..Default::default()
    };
    let mut c = cfg(2);
    c.queue_capacity = Some(16);
    c.max_slots = 100_000;
    let rep = run_scenario(&topo, &over, c);
    // Drops bound the queues, so the run completes instead of diverging.
    assert!(rep.completed, "{rep}");
    assert!(rep.dropped_packets > 1000);
    assert!(rep.damaged_broadcasts > 0);
    // Goodput accounting stays exact.
    assert_eq!(
        rep.reception_delay.count + rep.lost_receptions,
        rep.measured_broadcasts * 63
    );
}

/// Smaller buffers can only drop more.
#[test]
fn drop_count_monotone_in_buffer_depth() {
    let topo = Torus::new(&[8, 8]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::FcfsDirect,
        rho: 1.1,
        ..Default::default()
    };
    let mut drops = Vec::new();
    for cap in [2u32, 8, 32] {
        let mut c = cfg(3);
        c.queue_capacity = Some(cap);
        c.max_slots = 100_000;
        drops.push(run_scenario(&topo, &spec, c).dropped_packets);
    }
    assert!(
        drops[0] > drops[1] && drops[1] > drops[2],
        "drops should shrink with depth: {drops:?}"
    );
}

/// Hot-spot sources degrade delay gracefully and eventually saturate —
/// and the uniform case matches weight = 1 statistically.
#[test]
fn hotspot_skew_degrades_gracefully() {
    let topo = Torus::new(&[8, 8]);
    let run_w = |weight: f64, seed: u64| {
        let spec = ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho: 0.7,
            sources: SourceDistribution::HotSpot { node: 27, weight },
            ..Default::default()
        };
        run_scenario(&topo, &spec, cfg(seed))
    };
    let w1 = run_w(1.0, 5);
    let w8 = run_w(8.0, 6);
    assert!(w1.ok() && w8.ok());
    // Skew costs delay but moderately at rho=0.7.
    assert!(w8.reception_delay.mean > w1.reception_delay.mean);
    assert!(w8.reception_delay.mean < w1.reception_delay.mean * 2.5);
    // The hot node's neighborhood is the hottest part of the network.
    assert!(w8.max_link_utilization > w1.max_link_utilization + 0.05);
}

/// Replication control reaches its confidence target and the replicated
/// mean agrees with a long single run.
#[test]
fn replication_agrees_with_long_run() {
    let topo = Torus::new(&[8, 8]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::FcfsDirect,
        rho: 0.7,
        ..Default::default()
    };
    let replicated = run_replicated(
        &topo,
        &spec,
        SimConfig::quick(77),
        TargetMetric::ReceptionDelay,
        0.03,
        12,
    );
    assert!(replicated.all_ok);
    assert!(replicated.relative_ci() <= 0.03);
    let long = run_scenario(&topo, &spec, cfg(78));
    let diff = (replicated.mean - long.reception_delay.mean).abs();
    assert!(
        diff < replicated.ci95 + 0.35,
        "replicated {} vs long {}",
        replicated.mean,
        long.reception_delay.mean
    );
}

/// Delay quantiles are ordered and bracket the mean sensibly.
#[test]
fn reception_quantiles_are_ordered() {
    let topo = Torus::new(&[8, 8]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::FcfsDirect,
        rho: 0.8,
        ..Default::default()
    };
    let rep = run_scenario(&topo, &spec, cfg(9));
    assert!(rep.ok());
    let (p50, p95, p99) = rep.reception_quantiles;
    assert!(p50 <= p95 && p95 <= p99);
    assert!((p50 as f64) < rep.reception_delay.mean * 1.5);
    assert!((p99 as f64) > rep.reception_delay.mean);
    // The batch-means CI exists and is honest (wider than ~0).
    let ci = rep.reception_ci_batch.expect("enough batches at rho=0.8");
    assert!(ci > 0.0 && ci < rep.reception_delay.mean);
}

/// Queue traces: flat below saturation, growing above.
#[test]
fn queue_trace_distinguishes_stable_from_overload() {
    let topo = Torus::new(&[8, 8]);
    let trace_at = |rho: f64| {
        let c = SimConfig {
            warmup_slots: 0,
            measure_slots: 8_000,
            max_slots: 8_001,
            unstable_queue_per_link: f64::INFINITY,
            trace_interval: Some(400),
            seed: 11,
            ..SimConfig::default()
        };
        let spec = ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho,
            ..Default::default()
        };
        run_scenario(&topo, &spec, c).queue_trace
    };
    let stable = trace_at(0.8);
    let overload = trace_at(1.3);
    assert!(stable.len() >= 10);
    // Stable: the last sample is of the same order as the median sample.
    let stable_last = stable.last().unwrap().1 as f64;
    let mut mids: Vec<u64> = stable.iter().map(|&(_, q)| q).collect();
    mids.sort_unstable();
    let stable_mid = mids[mids.len() / 2] as f64;
    assert!(stable_last < stable_mid * 4.0 + 200.0);
    // Overload: clear monotone growth, final queue far above anything the
    // stable run ever saw.
    let overload_last = overload.last().unwrap().1;
    assert!(overload_last as f64 > 10.0 * mids[mids.len() - 1] as f64);
}

/// Delay-by-distance profiling reflects §3.2's mechanism: under priority
/// STAR the marginal cost of a hop is well below FCFS's, because only
/// the ending-dimension share of each path pays the low-class wait.
#[test]
fn delay_profile_shows_cheaper_hops_under_priority() {
    let topo = Torus::new(&[8, 8]);
    let run_p = |scheme, seed| {
        let mut c = cfg(seed);
        c.profile_by_distance = true;
        let spec = ScenarioSpec {
            scheme,
            rho: 0.85,
            ..Default::default()
        };
        run_scenario(&topo, &spec, c)
    };
    let fcfs = run_p(SchemeKind::FcfsDirect, 21);
    let pstar = run_p(SchemeKind::PriorityStar, 22);
    assert!(fcfs.ok() && pstar.ok());
    let diameter = topo.diameter() as usize;
    assert_eq!(fcfs.delay_by_distance.len(), diameter + 1);
    // Profiles are increasing in distance and every profiled delay is at
    // least the distance itself (service time lower bound).
    for rep in [&fcfs, &pstar] {
        for d in 1..=diameter {
            let s = rep.delay_by_distance[d];
            assert!(s.count > 0, "distance {d} unobserved");
            assert!(s.mean >= d as f64 - 1e-9);
            if d > 1 {
                assert!(s.mean > rep.delay_by_distance[d - 1].mean);
            }
        }
    }
    // Marginal hop cost (slope of the profile) is smaller under priority.
    let slope = |rep: &SimReport| {
        (rep.delay_by_distance[diameter].mean - rep.delay_by_distance[1].mean)
            / (diameter - 1) as f64
    };
    assert!(
        slope(&pstar) < 0.8 * slope(&fcfs),
        "pstar slope {} vs fcfs {}",
        slope(&pstar),
        slope(&fcfs)
    );
    // Off by default: no profile collected.
    let plain = run_scenario(&topo, &ScenarioSpec::default(), SimConfig::quick(23));
    assert!(plain.delay_by_distance.is_empty());
}

/// Trace replay: the same recorded workload gives identical reports, and
/// different schemes can be compared on the *same workload instance*.
#[test]
fn trace_replay_is_deterministic_and_comparable() {
    use pstar_traffic::{Trace, TrafficMix};
    let topo = Torus::new(&[8, 8]);
    let mix = ScenarioSpec {
        rho: 0.7,
        ..Default::default()
    }
    .mix(&topo);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    let trace = Trace::synthesize(
        &mut rng,
        topo.node_count(),
        TrafficMix {
            sources: pstar_traffic::SourceDistribution::Uniform,
            ..mix
        },
        WorkloadSpec::Fixed(1),
        16_000,
    );
    let c = cfg(31);

    let a = pstar_sim::run_trace(&topo, StarScheme::priority_star(&topo), &trace, c)
        .expect("every trace node is on the torus");
    let b = pstar_sim::run_trace(&topo, StarScheme::priority_star(&topo), &trace, c)
        .expect("every trace node is on the torus");
    assert!(a.ok(), "{a}");
    assert_eq!(a.reception_delay.mean, b.reception_delay.mean);
    assert_eq!(a.window_transmissions, b.window_transmissions);

    // Same instance, different scheme: the FCFS baseline is strictly
    // slower on this very workload.
    let f = pstar_sim::run_trace(&topo, StarScheme::fcfs_direct(&topo), &trace, c)
        .expect("every trace node is on the torus");
    assert!(f.ok());
    assert!(f.reception_delay.mean > a.reception_delay.mean);
    // Identical offered workload → identical measured task counts.
    assert_eq!(f.measured_broadcasts, a.measured_broadcasts);
}

/// A trace survives a save/load round-trip through the text format and
/// replays to the same result.
#[test]
fn trace_file_roundtrip_replays_identically() {
    use pstar_traffic::{Trace, TrafficMix};
    let topo = Torus::new(&[4, 4]);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let trace = Trace::synthesize(
        &mut rng,
        topo.node_count(),
        TrafficMix::mixed(0.01, 0.05),
        WorkloadSpec::Uniform(1, 3),
        8_000,
    );
    let dir = std::env::temp_dir().join("pstar-replay-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.trace");
    trace.save(&path).unwrap();
    let loaded = Trace::load(&path).unwrap();

    let c = cfg(32);
    let a = pstar_sim::run_trace(&topo, StarScheme::priority_star(&topo), &trace, c)
        .expect("every trace node is on the torus");
    let b = pstar_sim::run_trace(&topo, StarScheme::priority_star(&topo), &loaded, c)
        .expect("every trace node is on the torus");
    assert_eq!(a.reception_delay.mean, b.reception_delay.mean);
    assert_eq!(a.unicast_delay.mean, b.unicast_delay.mean);
}

/// The step-based and event-driven engines — two independent
/// implementations of the same slotted model — agree on priority STAR's
/// delays, utilizations and per-class waits.
#[test]
fn engines_cross_validate_on_priority_star() {
    let topo = Torus::new(&[8, 8]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.8,
        ..Default::default()
    };
    // The engines use independent RNG streams, so at ρ = 0.8 the delay
    // estimators need a longer window than the other tests to sit
    // comfortably inside the 5% agreement band.
    let c = SimConfig {
        measure_slots: 30_000,
        ..cfg(41)
    };
    let step = run_scenario(&topo, &spec, c);
    let event =
        pstar_sim::EventEngine::new(topo.clone(), spec.build_scheme(&topo), spec.mix(&topo), c)
            .run();
    assert!(step.ok() && event.ok());

    let rel = |a: f64, b: f64| (a - b).abs() / a.max(1e-9);
    assert!(
        rel(step.reception_delay.mean, event.reception_delay.mean) < 0.05,
        "reception: step {} vs event {}",
        step.reception_delay.mean,
        event.reception_delay.mean
    );
    assert!(
        rel(step.broadcast_delay.mean, event.broadcast_delay.mean) < 0.05,
        "broadcast: step {} vs event {}",
        step.broadcast_delay.mean,
        event.broadcast_delay.mean
    );
    assert!(rel(step.mean_link_utilization, event.mean_link_utilization) < 0.05);
    // Class structure must match too: tiny trunk wait, heavy leaf wait.
    for k in 0..2 {
        assert!(
            rel(step.class[k].utilization, event.class[k].utilization) < 0.08,
            "class {k} load: {} vs {}",
            step.class[k].utilization,
            event.class[k].utilization
        );
    }
    assert!(
        (step.class[1].wait.mean - event.class[1].wait.mean).abs()
            < 0.15 * step.class[1].wait.mean + 0.05,
        "W_L: {} vs {}",
        step.class[1].wait.mean,
        event.class[1].wait.mean
    );
}

/// Bernoulli arrivals (lower variance) never do worse than Poisson.
#[test]
fn bernoulli_arrivals_reduce_delay_slightly() {
    let topo = Torus::new(&[8, 8]);
    let run_b = |bernoulli: bool| {
        let spec = ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho: 0.85,
            bernoulli,
            ..Default::default()
        };
        run_scenario(&topo, &spec, cfg(13)).reception_delay.mean
    };
    let poisson = run_b(false);
    let bernoulli = run_b(true);
    assert!(
        bernoulli < poisson + 0.2,
        "bernoulli {bernoulli} vs poisson {poisson}"
    );
}
