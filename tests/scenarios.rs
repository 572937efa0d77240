//! The scenario matrix, differentially tested across every backend.
//!
//! PR-level contract for the workload-scenario layer (rate modulation,
//! destination matrices, the all-to-all phase):
//!
//! * **Sharded** — for every scenario in the catalog, the sharded SoA
//!   engine reproduces the serial engine's full report (every field
//!   exact, wait summaries included) at two shard counts, threaded and
//!   not, on the scenario's own traffic mix.
//! * **Net** — for every scenario in the catalog, on its own traffic
//!   mix, the runtime reproduces the serial engine's full report at two
//!   worker counts.
//! * **Ordering** — under common random numbers, priority STAR's p99
//!   reception delay beats FCFS-direct's on the steady scenario at high
//!   load. (Scenario-dependent inversions — hot-spot saturation, bursty
//!   tails — are genuine findings and are recorded by the
//!   `experiments scenarios` sweep, not asserted away here.)
//! * **All-to-all** — the measured completion time of the all-to-all
//!   broadcast phase respects the bandwidth/latency lower bound and
//!   stays within a small constant factor of it.
//! * **Rejection** — engines that cannot honor a scenario say so
//!   loudly: the event engine refuses all non-default scenarios, and
//!   invalid configs never run anywhere — on the runtime, by a typed
//!   error.
//! * **Statistics** — the modulators actually deliver their advertised
//!   long-run behavior: MMPP's realized mean multiplier is 1, ON-OFF
//!   realizes its duty cycle, permutations are bijections on any
//!   feasible dimension vector.

mod common;

use common::{crn_seed, cross_backend_agree, Backend};
use priority_star::prelude::*;
use proptest::prelude::*;
use pstar_net::{run_net, NetConfig, NetConfigError, NetError};
use pstar_sim::EventEngine;
use pstar_traffic::ScenarioCursor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The scenario catalog under differential test: every modulation
/// variant and every destination matrix, with the traffic mix each one
/// needs to be non-vacuous (destination matrices only matter when
/// unicast traffic exists).
fn catalog() -> Vec<(&'static str, ScenarioConfig, f64)> {
    vec![
        ("steady", ScenarioConfig::default(), 1.0),
        (
            "mmpp",
            ScenarioConfig {
                modulation: RateModulation::mmpp_normalized(0.02, 0.02, 4.0),
                ..Default::default()
            },
            1.0,
        ),
        (
            "onoff",
            ScenarioConfig {
                modulation: RateModulation::OnOff {
                    p_on: 0.02,
                    p_off: 0.02,
                },
                ..Default::default()
            },
            1.0,
        ),
        (
            "diurnal",
            ScenarioConfig {
                modulation: RateModulation::Diurnal {
                    period: 500,
                    amplitude: 0.5,
                },
                ..Default::default()
            },
            1.0,
        ),
        (
            "hotspot",
            ScenarioConfig {
                dests: DestMatrix::HotSpot {
                    node: 0,
                    weight: 8.0,
                },
                ..Default::default()
            },
            0.5,
        ),
        (
            "transpose",
            ScenarioConfig {
                dests: DestMatrix::Permutation(PermKind::Transpose),
                ..Default::default()
            },
            0.5,
        ),
        (
            "bitrev",
            ScenarioConfig {
                dests: DestMatrix::Permutation(PermKind::BitReversal),
                ..Default::default()
            },
            0.5,
        ),
        (
            "shuffle",
            ScenarioConfig {
                dests: DestMatrix::Permutation(PermKind::Shuffle),
                ..Default::default()
            },
            0.5,
        ),
    ]
}

fn spec_for(scenario: ScenarioConfig, frac: f64, scheme: SchemeKind, rho: f64) -> ScenarioSpec {
    ScenarioSpec {
        scheme,
        rho,
        broadcast_load_fraction: frac,
        scenario,
        ..ScenarioSpec::default()
    }
}

/// Every scenario, on its own mix (unicast included where the
/// destination matrix needs it), reproduces the serial report on the
/// sharded engine at two shard counts — one of them threaded.
#[test]
fn every_scenario_agrees_on_the_sharded_engine() {
    let topo = Torus::new(&[4, 4]);
    for (si, (name, scenario, frac)) in catalog().into_iter().enumerate() {
        let spec = spec_for(scenario, frac, SchemeKind::PriorityStar, 0.5);
        let mut cfg = SimConfig::quick(crn_seed(si));
        cfg.tails = true;
        let serial = cross_backend_agree(
            &topo,
            &spec,
            cfg,
            None,
            &[
                Backend::Sharded {
                    shards: 2,
                    threads: 1,
                },
                Backend::Sharded {
                    shards: 4,
                    threads: 2,
                },
            ],
            name,
        );
        // Hot-spot traffic saturates the hot node's links at this load
        // and trips the instability guard — that is the scenario's
        // point, and the congested regime is exactly where divergence
        // bugs hide, so the saturating run is kept as a differential
        // vector (the agreement above already ran). The guard must
        // fire identically everywhere; every other scenario stays clean.
        if name == "hotspot" {
            assert!(!serial.stable, "{name}: expected hot-node saturation");
        } else {
            assert!(serial.ok(), "{name}: serial run not clean");
        }
        if frac < 1.0 {
            assert!(serial.measured_unicasts > 0, "{name}: matrix never sampled");
        }
    }
}

/// Every scenario, on its own mix (unicast included where the
/// destination matrix needs it — the permutations tie on 4×4),
/// reproduces the serial engine's report on the runtime at two worker
/// counts.
#[test]
fn every_scenario_agrees_on_the_net_runtime() {
    let topo = Torus::new(&[4, 4]);
    for (si, (name, scenario, frac)) in catalog().into_iter().enumerate() {
        let spec = spec_for(scenario, frac, SchemeKind::PriorityStar, 0.5);
        let cfg = SimConfig::quick(crn_seed(si) ^ 0x9E37);
        cross_backend_agree(
            &topo,
            &spec,
            cfg,
            None,
            &[
                Backend::NetVirtual { workers: 2 },
                Backend::NetVirtual { workers: 3 },
            ],
            name,
        );
    }
}

/// A run cut short by `max_slots` mid-measurement normalizes busy time
/// and queue occupancy by the *realized* window on every backend — the
/// rule lives once, in `pstar_sim::assemble`. (Dividing by the
/// configured window would report about half the offered load here.)
#[test]
fn truncated_runs_normalize_by_the_realized_window_on_every_backend() {
    let topo = Torus::new(&[4, 4]);
    let rho = 0.6;
    let spec = spec_for(
        ScenarioConfig::default(),
        1.0,
        SchemeKind::PriorityStar,
        rho,
    );
    let full = SimConfig::quick(crn_seed(5));
    let mut cut = full;
    cut.max_slots = cut.warmup_slots + cut.measure_slots / 2;
    let reference = run_scenario(&topo, &spec, full);
    assert!(reference.ok());
    let serial = cross_backend_agree(
        &topo,
        &spec,
        cut,
        None,
        &[
            Backend::Sharded {
                shards: 2,
                threads: 1,
            },
            Backend::NetVirtual { workers: 2 },
        ],
        "truncated",
    );
    // Every backend reports the serial run, so its checks cover them all.
    assert!(!serial.completed, "the horizon must cut the window");
    assert_eq!(serial.slots_run, cut.max_slots);
    assert!(
        (serial.mean_link_utilization - rho).abs() < 0.05,
        "utilization {} vs offered {rho} over the realized window",
        serial.mean_link_utilization
    );
    let class_sum: f64 = serial.class.iter().map(|c| c.utilization).sum();
    assert!((class_sum - serial.mean_link_utilization).abs() < 1e-9);
    let ratio = serial.flow.mean_queued_packets / reference.flow.mean_queued_packets;
    assert!(
        (0.75..1.25).contains(&ratio),
        "mean queued packets {} vs {} of the full run",
        serial.flow.mean_queued_packets,
        reference.flow.mean_queued_packets
    );
}

/// CRN-paired ordering on the steady scenario at high load: priority
/// STAR's p99 reception delay is no worse than FCFS-direct's with the
/// same seeds. (This is the regime the paper's discipline targets;
/// adversarial scenarios may legitimately invert it — those points are
/// findings, recorded by the experiments sweep, not test failures.)
#[test]
fn priority_star_p99_beats_fcfs_on_steady_crn() {
    let topo = Torus::new(&[4, 4]);
    let mut cfg = SimConfig::quick(crn_seed(0));
    cfg.tails = true;
    let p99 = |scheme| {
        let rep = run_scenario(
            &topo,
            &spec_for(ScenarioConfig::default(), 1.0, scheme, 0.9),
            cfg,
        );
        assert!(rep.ok(), "{scheme:?}: run not clean");
        rep.tails.reception_all.p99
    };
    let pstar = p99(SchemeKind::PriorityStar);
    let fcfs = p99(SchemeKind::FcfsDirect);
    assert!(
        pstar <= fcfs,
        "priority STAR p99 {pstar} should not exceed FCFS-direct p99 {fcfs} \
         on the steady scenario at rho 0.9 under common random numbers"
    );
}

/// The all-to-all broadcast phase completes no faster than the
/// bandwidth/latency lower bound and within a small constant factor of
/// it — on the serial engine, and identically on the sharded engine and
/// the runtime (the phase spawns deterministically, so it is inside the
/// exact-agreement contract of every backend).
#[test]
fn all_to_all_respects_lower_bound_on_every_backend() {
    let dims = [4u32, 4];
    let topo = Torus::new(&dims);
    let mut spec = spec_for(
        ScenarioConfig::default(),
        1.0,
        SchemeKind::PriorityStar,
        0.05,
    );
    spec.scenario.all_to_all_at = Some(0);
    let mut cfg = SimConfig::quick(crn_seed(3));
    // Measure from slot 0 so the phase itself is tagged and tracked.
    cfg.warmup_slots = 0;
    cfg.measure_slots = 500;
    cfg.tails = true;
    let serial = cross_backend_agree(
        &topo,
        &spec,
        cfg,
        None,
        &[
            Backend::Sharded {
                shards: 4,
                threads: 2,
            },
            Backend::NetVirtual { workers: 2 },
        ],
        "all-to-all",
    );
    assert!(serial.ok(), "all-to-all run not clean");
    let n = u64::from(topo.node_count());
    assert!(
        serial.measured_broadcasts >= n,
        "all-to-all phase missing: {} measured broadcasts < {n} nodes",
        serial.measured_broadcasts
    );
    let bound = all_to_all_lower_bound(&dims);
    let measured = serial.tails.reception_all.max;
    assert!(
        measured >= bound,
        "measured completion {measured} beats the lower bound {bound} — \
         the bound or the measurement is wrong"
    );
    assert!(
        measured <= 6 * bound,
        "all-to-all completion {measured} exceeds 6x the lower bound {bound}"
    );
}

// ---------------------------------------------------------------------
// Loud rejection: engines that cannot honor a scenario must say so
// ---------------------------------------------------------------------

/// The serial engine validates the scenario against the topology before
/// running: a hot destination that does not exist is a panic, not a
/// silently-uniform run.
#[test]
#[should_panic(expected = "invalid scenario config")]
fn serial_engine_rejects_invalid_scenarios() {
    let topo = Torus::new(&[4, 4]);
    let scenario = ScenarioConfig {
        dests: DestMatrix::HotSpot {
            node: 999,
            weight: 4.0,
        },
        ..Default::default()
    };
    let spec = spec_for(scenario, 0.5, SchemeKind::PriorityStar, 0.5);
    run_scenario(&topo, &spec, SimConfig::quick(1));
}

/// The event-driven engine does not implement the scenario layer and
/// refuses every non-default scenario loudly instead of running the
/// wrong workload.
#[test]
#[should_panic(expected = "does not simulate workload scenarios")]
fn event_engine_rejects_scenarios() {
    let topo = Torus::new(&[4, 4]);
    let spec = spec_for(
        ScenarioConfig {
            modulation: RateModulation::Diurnal {
                period: 100,
                amplitude: 0.3,
            },
            ..Default::default()
        },
        1.0,
        SchemeKind::PriorityStar,
        0.5,
    );
    let mut cfg = SimConfig::quick(2);
    cfg.scenario = spec.scenario;
    let _ = EventEngine::new(topo.clone(), spec.build_scheme(&topo), spec.mix(&topo), cfg);
}

/// The runtime returns typed errors instead of panicking: an invalid
/// scenario is `NetConfigError::Scenario`.
#[test]
fn runtime_rejects_scenarios_with_typed_errors() {
    let topo = Torus::new(&[4, 4]);

    let bad = spec_for(
        ScenarioConfig {
            dests: DestMatrix::HotSpot {
                node: 999,
                weight: 4.0,
            },
            ..Default::default()
        },
        0.5,
        SchemeKind::PriorityStar,
        0.5,
    );
    let mut sim = SimConfig::quick(3);
    sim.scenario = bad.scenario;
    let err = run_net(
        &topo,
        bad.build_scheme(&topo),
        bad.mix(&topo),
        NetConfig::new(sim),
    )
    .expect_err("invalid scenario must not run");
    assert!(
        matches!(
            err,
            NetError::Config(NetConfigError::Scenario(ScenarioError::HotNodeOutOfRange {
                node: 999,
                ..
            }))
        ),
        "wrong error: {err:?}"
    );
}

// ---------------------------------------------------------------------
// Statistical contracts of the modulators and matrices
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A normalized MMPP's realized mean multiplier converges on 1 for
    /// any transition probabilities and burst ratio: the configured ρ
    /// really is the long-run offered load.
    #[test]
    fn mmpp_realized_mean_is_one(
        p_up in 0.02f64..0.3,
        p_down in 0.02f64..0.3,
        ratio in 1.0f64..8.0,
        seed in any::<u64>(),
    ) {
        let modulation = RateModulation::mmpp_normalized(p_up, p_down, ratio);
        prop_assert!((modulation.stationary_mean() - 1.0).abs() < 1e-12);
        let mut cur = ScenarioCursor::new(ScenarioConfig {
            modulation,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let slots = 60_000u64;
        let mean = (0..slots).map(|t| cur.advance(&mut rng, t)).sum::<f64>() / slots as f64;
        prop_assert!(
            (mean - 1.0).abs() < 0.2,
            "realized mean {mean} for p_up={p_up} p_down={p_down} ratio={ratio}"
        );
    }

    /// An ON-OFF source realizes its stationary duty cycle, and its ON
    /// multiplier is exactly 1/duty — burstiness redistributes the load
    /// in time without changing its total.
    #[test]
    fn onoff_realizes_its_duty_cycle(
        p_on in 0.02f64..0.3,
        p_off in 0.02f64..0.3,
        seed in any::<u64>(),
    ) {
        let modulation = RateModulation::OnOff { p_on, p_off };
        let duty = modulation.duty_cycle().expect("ON-OFF has a duty cycle");
        let mut cur = ScenarioCursor::new(ScenarioConfig {
            modulation,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let slots = 60_000u64;
        let mut on = 0u64;
        for t in 0..slots {
            let mult = cur.advance(&mut rng, t);
            if mult > 0.0 {
                on += 1;
                prop_assert!((mult - 1.0 / duty).abs() < 1e-9, "ON multiplier {mult}");
            }
        }
        let realized = on as f64 / slots as f64;
        prop_assert!(
            (realized - duty).abs() < 0.1,
            "realized duty {realized} vs stationary {duty}"
        );
    }

    /// Transpose is a bijection on every palindromic dimension vector.
    #[test]
    fn transpose_is_a_bijection_on_palindromic_dims(
        a in 2u32..5,
        b in 2u32..5,
        three_d in any::<bool>(),
    ) {
        let dims = if three_d { vec![a, b, a] } else { vec![a, a] };
        let table = PermKind::Transpose.table(&dims).expect("palindromic dims");
        let mut seen = vec![false; table.len()];
        for d in &table {
            prop_assert!(!seen[d.index()], "not injective on {dims:?}");
            seen[d.index()] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "not surjective on {dims:?}");
    }

    /// Bit-reversal and shuffle are bijections on every power-of-two
    /// node count, whatever the dimension split.
    #[test]
    fn bit_permutations_are_bijections_on_pow2_dims(
        a in 1u32..4,
        b in 1u32..4,
        reversal in any::<bool>(),
    ) {
        let dims = vec![1u32 << a, 1u32 << b];
        let kind = if reversal { PermKind::BitReversal } else { PermKind::Shuffle };
        let table = kind.table(&dims).expect("power-of-two node count");
        let mut seen = vec![false; table.len()];
        for d in &table {
            prop_assert!(!seen[d.index()], "{} not injective on {dims:?}", kind.label());
            seen[d.index()] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "{} not surjective on {dims:?}", kind.label());
    }
}
