//! Bit-identity of the sharded SoA engine against the serial engine.
//!
//! The sharded engine's whole design contract is that sharding is a
//! *performance* transform, not a semantic one: for a given seed the
//! coordinator consumes shard messages in the exact order the serial
//! engine would have processed the same events, so every report field —
//! delivered/measured counts, delay moments, loss and fault counters,
//! queue peaks/traces, tails digests, per-class service-wait summaries —
//! is identical at any shard count, threaded or not. Both engines
//! account through the same ledger (`pstar_sim::TaskLedger` in the
//! serial engine and the coordinator, `pstar_sim::LinkCounters` per
//! engine / per shard); waits are exact integer moments, so their merge
//! is order-free and no tolerance is needed anywhere.

//! The comparison itself — [`common::assert_reports_match`] — is shared
//! with the scenario differential suite (`tests/scenarios.rs`), so the
//! contract above is stated in exactly one place.

mod common;

use common::assert_reports_match;
use priority_star::prelude::*;
use pstar_sim::{DeadLinkPolicy, FaultEvent, FaultKind, FaultPlan};
use pstar_topology::LinkId;

fn cfg_with(seed: u64, tails: bool, trace: bool, by_distance: bool) -> SimConfig {
    let mut cfg = SimConfig::quick(seed);
    cfg.tails = tails;
    if trace {
        cfg.trace_interval = Some(64);
    }
    cfg.profile_by_distance = by_distance;
    cfg
}

/// A transient two-link outage inside the measurement window, on links
/// chosen to straddle shard boundaries at every tested shard count.
fn outage_plan(topo: &Torus) -> FaultPlan {
    let links = topo.link_count();
    FaultPlan::scripted(vec![
        FaultEvent {
            slot: 2_500,
            kind: FaultKind::LinkDown(LinkId(1)),
        },
        FaultEvent {
            slot: 2_600,
            kind: FaultKind::LinkDown(LinkId(links - 2)),
        },
        FaultEvent {
            slot: 3_300,
            kind: FaultKind::LinkUp(LinkId(1)),
        },
        FaultEvent {
            slot: 3_400,
            kind: FaultKind::LinkUp(LinkId(links - 2)),
        },
    ])
}

/// Healthy runs: every scheme × ρ ∈ {0.5, 0.9} × shard counts
/// {1, 2, 4, 8}, with tails, queue traces and distance profiling on so
/// every supported subsystem is exercised.
#[test]
fn sharded_matches_serial_healthy() {
    let topo = Torus::new(&[4, 4]);
    for (i, scheme) in SchemeKind::all().into_iter().enumerate() {
        for (ri, rho) in [0.5, 0.9].into_iter().enumerate() {
            let spec = ScenarioSpec {
                scheme,
                rho,
                ..ScenarioSpec::default()
            };
            let cfg = cfg_with(0x5AA5_0000 + (i * 2 + ri) as u64, true, true, true);
            let serial = run_scenario(&topo, &spec, cfg);
            // Dimension-ordered broadcast saturates at rho=0.9 (the §2
            // strawman has no rotation to spread load): the run ends
            // unstable — in both engines, identically. Every other
            // combination must be clean.
            assert!(
                serial.ok() || scheme == SchemeKind::DimensionOrdered,
                "{scheme:?} rho={rho}: serial not clean"
            );
            for shards in [1usize, 2, 4, 8] {
                let sharded = run_scenario_sharded(&topo, &spec, cfg, shards, 1, None);
                assert_reports_match(
                    &serial,
                    &sharded,
                    &format!("{scheme:?} rho={rho} shards={shards}"),
                );
            }
        }
    }
}

/// Mixed broadcast/unicast traffic takes the unicast routing path
/// (coordinator-side RNG forwarding), which the broadcast-only suite
/// never touches.
#[test]
fn sharded_matches_serial_mixed_traffic() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.8,
        broadcast_load_fraction: 0.5,
        ..ScenarioSpec::default()
    };
    let cfg = cfg_with(0x31ED_0001, true, false, false);
    let serial = run_scenario(&topo, &spec, cfg);
    assert!(serial.ok(), "serial mixed run not clean");
    assert!(serial.measured_unicasts > 0, "no unicast traffic measured");
    for shards in [1usize, 3, 8] {
        let sharded = run_scenario_sharded(&topo, &spec, cfg, shards, 1, None);
        assert_reports_match(&serial, &sharded, &format!("mixed shards={shards}"));
    }
}

/// Faulted runs, both dead-link policies: loss settlement, degraded
/// routing, recovery tracking and the fault counters all cross the
/// shard boundary.
#[test]
fn sharded_matches_serial_under_faults() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.6,
        ..ScenarioSpec::default()
    };
    for (pi, policy) in [DeadLinkPolicy::Drop, DeadLinkPolicy::Requeue]
        .into_iter()
        .enumerate()
    {
        let cfg = cfg_with(0xFA17_0000 + pi as u64, true, true, false);
        let serial = run_scenario_with_faults(&topo, &spec, cfg, outage_plan(&topo), policy);
        assert!(serial.completed, "{policy:?}: serial did not complete");
        assert!(
            serial.faults.events_applied >= 4,
            "{policy:?}: outage never applied"
        );
        for shards in [1usize, 2, 4, 8] {
            let sharded = run_scenario_sharded(
                &topo,
                &spec,
                cfg,
                shards,
                1,
                Some((outage_plan(&topo), policy)),
            );
            assert_reports_match(&serial, &sharded, &format!("{policy:?} shards={shards}"));
        }
    }
}

/// Worker threads move shards between OS threads but cannot move any
/// event across a barrier: the threaded run is bit-identical to the
/// sequential sharded run *and* to the serial engine.
#[test]
fn threaded_matches_sequential_and_serial() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.9,
        ..ScenarioSpec::default()
    };
    let cfg = cfg_with(0x7EAD_0002, true, true, false);
    let serial = run_scenario(&topo, &spec, cfg);
    for threads in [2usize, 4, 8] {
        let sharded = run_scenario_sharded(&topo, &spec, cfg, 8, threads, None);
        assert_reports_match(&serial, &sharded, &format!("threads={threads}"));
    }
    // Threaded + faulted, both policies.
    for policy in [DeadLinkPolicy::Drop, DeadLinkPolicy::Requeue] {
        let serial = run_scenario_with_faults(&topo, &spec, cfg, outage_plan(&topo), policy);
        let sharded =
            run_scenario_sharded(&topo, &spec, cfg, 8, 4, Some((outage_plan(&topo), policy)));
        assert_reports_match(&serial, &sharded, &format!("threaded {policy:?}"));
    }
}

/// Sharded runs must be bit-identical to *each other* on every field,
/// whole-report `Debug` text included.
#[test]
fn sharded_runs_are_shard_count_invariant() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::ThreeClass,
        rho: 0.9,
        ..ScenarioSpec::default()
    };
    let cfg = cfg_with(0x1DE7_0003, true, true, true);
    let base = run_scenario_sharded(&topo, &spec, cfg, 1, 1, None);
    for (shards, threads) in [(2usize, 1usize), (4, 2), (8, 4)] {
        let other = run_scenario_sharded(&topo, &spec, cfg, shards, threads, None);
        assert_eq!(
            format!("{base:?}"),
            format!("{other:?}"),
            "shards={shards} threads={threads} diverged from single-shard run"
        );
    }
}
