//! Cross-backend validation: the thread-per-core runtime (`pstar-net`)
//! against the slotted simulator (`pstar-sim`).
//!
//! The runtime's injector mirrors the engine's RNG draw order, its
//! workers deliver in the engine's ascending-link order, and both
//! account through the same order-free ledger, so for a workload without
//! unicast traffic the two backends report the same run **bit for bit,
//! field for field, at any worker count**
//! (`common::assert_reports_match`, i.e. `SimReport::first_difference`
//! is `None`) — fault plans, bounded queues, admission control, ARQ and
//! truncated runs included. A bookkeeping bug, a reordered delivery or a
//! statistic that depends on who counted it breaks the identity.
//!
//! The suite also checks the paper's headline ordering under common
//! random numbers on the *runtime*: priority STAR's mean reception
//! delay beats FCFS-direct's at high load, same seeds — the Eq. (2)/(4)
//! discipline has to survive contact with a real concurrent harness,
//! not just the simulator.

//! Seeding and the runtime invocation itself come from the shared
//! harness in `tests/common` (`crn_seed`, `net_run`), which the
//! scenario differential suite reuses.

mod common;

use common::{assert_reports_match, crn_seed, net_run, net_run_under};
use priority_star::{run_scenario, ScenarioSpec, SchemeKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use pstar_net::{
    run_net, run_net_with_faults, Channel, ChaosConfig, NetConfig, NetError, NetReport,
};
use pstar_sim::{
    run_with_faults, Admit, DeadLinkPolicy, Engine, FaultEvent, FaultKind, FaultPlan,
    FullQueuePolicy, LinkKernel, LossCause, ObsCollector, Packet, PacketKind, PriorityQueue,
    SimConfig, TraceEvent, TraceRecord,
};
use pstar_topology::{LinkId, NodeId, Torus};

/// Net and sim report the same run, per scheme × ρ.
#[test]
fn sim_and_net_agree_on_delivered_counts() {
    let topo = Torus::new(&[4, 4]);
    let schemes = [
        SchemeKind::PriorityStar,
        SchemeKind::ThreeClass,
        SchemeKind::FcfsDirect,
        SchemeKind::FcfsBalanced,
    ];
    for (ri, rho) in [0.5, 0.9].into_iter().enumerate() {
        for scheme in schemes {
            let spec = ScenarioSpec {
                scheme,
                rho,
                ..ScenarioSpec::default()
            };
            let cfg = SimConfig::quick(crn_seed(ri));
            let sim = run_scenario(&topo, &spec, cfg);
            let net = net_run(&spec, &topo, cfg, 3);
            let label = format!("{scheme:?} rho={rho}");
            assert!(sim.completed, "{label}: sim did not complete");
            assert_reports_match(&sim, &net.report, &label);
            assert_eq!(net.report.lost_receptions, 0, "{label}: phantom losses");
            assert_eq!(
                net.report.reception_delay.count,
                net.report.measured_broadcasts * (topo.node_count() as u64 - 1),
                "{label}: not every measured broadcast fully delivered"
            );
        }
    }
}

/// The agreement is independent of the worker count — sharding moves
/// work between threads, never creates or destroys it.
#[test]
fn agreement_holds_across_worker_counts() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.9,
        ..ScenarioSpec::default()
    };
    let cfg = SimConfig::quick(crn_seed(1));
    let sim = run_scenario(&topo, &spec, cfg);
    for workers in [1, 2, 5, 16] {
        let net = net_run(&spec, &topo, cfg, workers);
        assert!(net.report.completed, "W={workers}");
        assert_reports_match(&sim, &net.report, &format!("W={workers}"));
        assert_eq!(net.workers, workers.min(16));
    }
}

/// CRN-paired ordering on the real runtime: at high load, priority STAR
/// delivers receptions faster than FCFS-direct with the same seeds, and
/// its class-0 (trunk) service wait is below FCFS's single-class wait.
#[test]
fn priority_star_beats_fcfs_on_the_runtime_crn() {
    let topo = Torus::new(&[4, 4]);
    let cfg = SimConfig::quick(crn_seed(1));
    let pstar = net_run(
        &ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho: 0.9,
            ..ScenarioSpec::default()
        },
        &topo,
        cfg,
        4,
    );
    let fcfs = net_run(
        &ScenarioSpec {
            scheme: SchemeKind::FcfsDirect,
            rho: 0.9,
            ..ScenarioSpec::default()
        },
        &topo,
        cfg,
        4,
    );
    assert!(pstar.report.completed && fcfs.report.completed);
    assert!(
        pstar.report.reception_delay.mean < fcfs.report.reception_delay.mean,
        "priority STAR should beat FCFS mean reception delay at rho .9: {} vs {}",
        pstar.report.reception_delay.mean,
        fcfs.report.reception_delay.mean
    );
    assert!(
        pstar.report.broadcast_delay.mean < fcfs.report.broadcast_delay.mean,
        "and full-broadcast completion delay: {} vs {}",
        pstar.report.broadcast_delay.mean,
        fcfs.report.broadcast_delay.mean
    );
}

// ---------------------------------------------------------------------
// Faulted agreement: the gate extends to runs under a FaultPlan
// ---------------------------------------------------------------------

fn fault_net_run(
    spec: &ScenarioSpec,
    topo: &Torus,
    sim: SimConfig,
    workers: usize,
    plan: FaultPlan,
    policy: DeadLinkPolicy,
) -> NetReport {
    net_run_under(spec, topo, sim, workers, Some((plan, policy)))
}

fn fault_sim_run(
    spec: &ScenarioSpec,
    topo: &Torus,
    mut sim: SimConfig,
    plan: FaultPlan,
    policy: DeadLinkPolicy,
) -> pstar_sim::SimReport {
    sim.lengths = spec.lengths;
    run_with_faults(
        topo,
        spec.build_scheme(topo),
        spec.mix(topo),
        sim,
        plan,
        policy,
    )
}

/// The scripted plans of the CI fault-agreement gate. All are transient
/// and fully repaired inside the measurement window, so fault losses
/// cannot leak into the timing-jittered drain slots.
fn scripted_plans(topo: &Torus) -> Vec<(&'static str, FaultPlan)> {
    let links: Vec<LinkId> = pstar_sim::shuffled_links(topo.link_count(), 0xFA)
        .into_iter()
        .take(6)
        .collect();
    let outage = FaultPlan::link_outage_window(&links[..3], 2_500, 4_000);
    let staggered = FaultPlan::scripted(vec![
        FaultEvent {
            slot: 2_200,
            kind: FaultKind::LinkDown(links[0]),
        },
        FaultEvent {
            slot: 2_600,
            kind: FaultKind::LinkDown(links[3]),
        },
        FaultEvent {
            slot: 3_500,
            kind: FaultKind::LinkUp(links[0]),
        },
        FaultEvent {
            slot: 3_900,
            kind: FaultKind::LinkDown(links[5]),
        },
        FaultEvent {
            slot: 4_500,
            kind: FaultKind::LinkUp(links[3]),
        },
        FaultEvent {
            slot: 5_200,
            kind: FaultKind::LinkUp(links[5]),
        },
    ]);
    let node_crash = FaultPlan::scripted(vec![
        FaultEvent {
            slot: 2_200,
            kind: FaultKind::NodeCrash(NodeId(5)),
        },
        FaultEvent {
            slot: 3_000,
            kind: FaultKind::LinkDown(links[4]),
        },
        FaultEvent {
            slot: 3_800,
            kind: FaultKind::NodeRecover(NodeId(5)),
        },
        FaultEvent {
            slot: 4_600,
            kind: FaultKind::LinkUp(links[4]),
        },
    ]);
    vec![
        ("outage-window", outage),
        ("staggered", staggered),
        ("node-crash", node_crash),
    ]
}

/// The CI fault-agreement gate: under each scripted plan, every scheme,
/// and 1/2/4 workers, the runtime reproduces the engine's report.
#[test]
fn sim_and_net_agree_under_faults() {
    let topo = Torus::new(&[4, 4]);
    let schemes = [
        SchemeKind::PriorityStar,
        SchemeKind::ThreeClass,
        SchemeKind::FcfsDirect,
        SchemeKind::FcfsBalanced,
    ];
    for (pi, (name, plan)) in scripted_plans(&topo).into_iter().enumerate() {
        for scheme in schemes {
            let spec = ScenarioSpec {
                scheme,
                rho: 0.7,
                ..ScenarioSpec::default()
            };
            let cfg = SimConfig::quick(crn_seed(pi));
            let sim = fault_sim_run(&spec, &topo, cfg, plan.clone(), DeadLinkPolicy::Drop);
            assert!(
                sim.faults.fault_dropped_packets > 0,
                "{name} {scheme:?}: plan drew no fault losses — gate is vacuous"
            );
            for workers in [1, 2, 4] {
                let net = fault_net_run(
                    &spec,
                    &topo,
                    cfg,
                    workers,
                    plan.clone(),
                    DeadLinkPolicy::Drop,
                );
                let label = format!("{name} {scheme:?} W={workers}");
                assert_reports_match(&sim, &net.report, &label);
            }
        }
    }
}

/// Under `Requeue` nothing is lost to faults — packets wait out the
/// outage — and the two backends still report the same run.
#[test]
fn sim_and_net_agree_under_requeue_policy() {
    let topo = Torus::new(&[4, 4]);
    let (_, plan) = scripted_plans(&topo).swap_remove(0);
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.7,
        ..ScenarioSpec::default()
    };
    let cfg = SimConfig::quick(crn_seed(2));
    let sim = fault_sim_run(&spec, &topo, cfg, plan.clone(), DeadLinkPolicy::Requeue);
    assert_eq!(sim.faults.fault_dropped_packets, 0, "Requeue must not drop");
    for workers in [1, 4] {
        let net = fault_net_run(
            &spec,
            &topo,
            cfg,
            workers,
            plan.clone(),
            DeadLinkPolicy::Requeue,
        );
        let label = format!("W={workers}");
        assert_eq!(net.report.faults.fault_dropped_packets, 0, "{label}");
        assert_reports_match(&sim, &net.report, &label);
    }
}

/// Losses that are not faults: bounded queues under both drop policies,
/// admission control past saturation, and ARQ recovery over capacity-1
/// queues (timers armed at one worker, jitter a function of the loss
/// alone) — at every worker count the runtime reports the engine's run.
#[test]
fn sim_and_net_agree_under_bounded_queues_admission_and_arq() {
    let topo = Torus::new(&[4, 4]);
    let at_rho = |rho| ScenarioSpec {
        rho,
        ..ScenarioSpec::default()
    };
    let bounded = |policy, seed| SimConfig {
        queue_capacity: Some(2),
        full_queue_policy: policy,
        ..SimConfig::quick(seed)
    };
    let arq = |seed| SimConfig {
        queue_capacity: Some(1),
        arq: Some(pstar_sim::ArqConfig::default()),
        ..SimConfig::quick(seed)
    };
    let admitted = SimConfig {
        admission: Some(pstar_sim::AdmissionConfig {
            rate: at_rho(0.8).mix(&topo).lambda_broadcast,
            burst: 4.0,
        }),
        ..SimConfig::quick(63)
    };
    let cases = [
        (
            "DropTail",
            at_rho(0.9),
            bounded(FullQueuePolicy::DropTail, 61),
        ),
        (
            "DropLowestClass",
            at_rho(0.9),
            bounded(FullQueuePolicy::DropLowestClass, 62),
        ),
        ("admission", at_rho(1.2), admitted),
        ("ARQ", at_rho(0.7), arq(64)),
        (
            "ARQ three-class",
            ScenarioSpec {
                scheme: SchemeKind::ThreeClass,
                ..at_rho(0.6)
            },
            arq(65),
        ),
    ];
    for (name, spec, cfg) in cases {
        let sim = run_scenario(&topo, &spec, cfg);
        assert!(sim.completed, "{name}: sim did not complete");
        let lossy = sim.dropped_packets + sim.flow.rejected_broadcasts;
        assert!(lossy > 0, "{name}: nothing was lost — the case is vacuous");
        for workers in 1..=4 {
            let net = net_run(&spec, &topo, cfg, workers);
            assert_reports_match(&sim, &net.report, &format!("{name} W={workers}"));
        }
    }
    // ARQ under a fault plan: timers armed by the fault tick too.
    let (_, plan) = scripted_plans(&topo).swap_remove(1);
    let sim = fault_sim_run(
        &at_rho(0.7),
        &topo,
        arq(66),
        plan.clone(),
        DeadLinkPolicy::Drop,
    );
    assert!(sim.recovery.recovered_deliveries > 0 && sim.faults.fault_dropped_packets > 0);
    for workers in [1, 2, 4] {
        let net = fault_net_run(
            &at_rho(0.7),
            &topo,
            arq(66),
            workers,
            plan.clone(),
            DeadLinkPolicy::Drop,
        );
        assert_reports_match(&sim, &net.report, &format!("ARQ + faults W={workers}"));
    }
}

// ---------------------------------------------------------------------
// One hop rule: both drivers trace the same events
// ---------------------------------------------------------------------

/// `rec` with its task id masked: the engine's ids are slab indices,
/// the runtime's the injector's counter.
fn masked(rec: &TraceRecord) -> TraceRecord {
    let event = match rec.event {
        TraceEvent::Enqueue { link, class, .. } => TraceEvent::Enqueue {
            link,
            class,
            task: 0,
        },
        TraceEvent::ServiceStart {
            link,
            class,
            wait,
            len,
            ..
        } => TraceEvent::ServiceStart {
            link,
            class,
            wait,
            len,
            task: 0,
        },
        TraceEvent::Delivery {
            link, class, age, ..
        } => TraceEvent::Delivery {
            link,
            class,
            age,
            task: 0,
        },
        TraceEvent::Drop {
            link, class, cause, ..
        } => TraceEvent::Drop {
            link,
            class,
            cause,
            task: 0,
        },
        TraceEvent::Retransmit {
            link,
            class,
            attempt,
            ..
        } => TraceEvent::Retransmit {
            link,
            class,
            attempt,
            task: 0,
        },
        epoch @ TraceEvent::FaultEpoch { .. } => epoch,
    };
    TraceRecord {
        slot: rec.slot,
        event,
    }
}

/// `records`, masked, as one sorted multiset of `(slot, event)`.
fn slot_multiset<'a>(records: impl Iterator<Item = &'a TraceRecord>) -> Vec<(u64, String)> {
    let mut all: Vec<(u64, String)> = records
        .map(|rec| (rec.slot, format!("{:?}", masked(rec).event)))
        .collect();
    all.sort_unstable();
    all
}

/// The serial engine and every `pstar-net` worker run one hop rule —
/// deliver, forward, lose, retransmit, settle a fault epoch — so a
/// faulted broadcast-only run traces the same events on both: record
/// for record at one worker, and slot by slot at two, where each worker's
/// replica of the fault clock records the epochs it applies. Plain
/// queues, and capacity-1 queues evicting the lowest class with ARQ
/// retrying, under both dead-link policies.
#[test]
fn serial_and_net_trace_the_same_hops() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec::default();
    let links: Vec<LinkId> = pstar_sim::shuffled_links(topo.link_count(), 0xFA)
        .into_iter()
        .take(3)
        .collect();
    let plan = FaultPlan::link_outage_window(&links, 300, 700);
    let plain = |seed| SimConfig {
        warmup_slots: 200,
        measure_slots: 1_000,
        lengths: spec.lengths,
        ..SimConfig::quick(seed)
    };
    let lossy = SimConfig {
        queue_capacity: Some(1),
        full_queue_policy: FullQueuePolicy::DropLowestClass,
        arq: Some(pstar_sim::ArqConfig::default()),
        ..plain(6)
    };
    for (name, cfg) in [("plain", plain(5)), ("lossy", lossy)] {
        for policy in [DeadLinkPolicy::Drop, DeadLinkPolicy::Requeue] {
            let label = format!("{name} {policy:?}");
            let (serial, sink) =
                Engine::new(topo.clone(), spec.build_scheme(&topo), spec.mix(&topo), cfg)
                    .with_fault_plan(plan.clone(), policy)
                    .with_trace(Box::new(ObsCollector::new(1 << 20, 0)))
                    .run_observed();
            let obs = sink
                .expect("the sink comes back")
                .into_any()
                .downcast::<ObsCollector>()
                .expect("an ObsCollector");
            assert_eq!(obs.ring.total_recorded(), obs.ring.len() as u64);
            let records: Vec<TraceRecord> = obs.ring.iter().copied().collect();
            assert_eq!(obs.counts.fault_epochs, 2, "{label}");
            if name == "lossy" {
                assert!(
                    obs.counts.drops > 0 && obs.counts.retransmits > 0,
                    "{label}"
                );
            }
            for workers in [1, 2] {
                let net = run_net_with_faults(
                    &topo,
                    spec.build_scheme(&topo),
                    spec.mix(&topo),
                    NetConfig {
                        workers,
                        trace_capacity: 1 << 20,
                        ..NetConfig::new(cfg)
                    },
                    plan.clone(),
                    policy,
                )
                .expect("the runtime failed");
                let at = format!("{label} W={workers}");
                assert_reports_match(&serial, &net.report, &at);
                if workers == 1 {
                    let track = &net.worker_traces[0].1;
                    let first = records
                        .iter()
                        .zip(track)
                        .position(|(s, n)| masked(s) != masked(n));
                    assert_eq!(first, None, "{at}: first differing record");
                    assert_eq!(track.len(), records.len(), "{at}: record count");
                } else {
                    let tracks = net.worker_traces.iter().flat_map(|(_, t)| t);
                    // Every worker records each epoch its replica applies.
                    let epochs = records
                        .iter()
                        .filter(|r| matches!(r.event, TraceEvent::FaultEpoch { .. }));
                    let want = slot_multiset(records.iter().chain(epochs));
                    assert!(slot_multiset(tracks) == want, "{at}: per-slot multisets");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bit-identity pin: the message plane may change, the reports may not
// ---------------------------------------------------------------------

/// What a run is pinned by: FNV-1a over the `Debug` text of the whole
/// `SimReport` — every field, and `{:?}` spells an `f64` with the
/// shortest text that round-trips, so two floats print alike only when
/// their bits are equal — and, per worker count, the runtime's message
/// count (the one reported number that depends on the partition).
struct Pin {
    label: &'static str,
    report: u64,
    /// `(workers, messages_sent)`.
    sent: &'static [(usize, u64)],
}

/// Runs one pinned case at each of its worker counts. The reports must
/// be one report — equal to each other field for field, and to
/// `serial`'s if the case has a serial twin — with the pinned digest.
fn assert_pin(pin: &Pin, serial: Option<&pstar_sim::SimReport>, run: impl Fn(usize) -> NetReport) {
    let label = pin.label;
    let mut first: Option<pstar_sim::SimReport> = None;
    for &(workers, want_sent) in pin.sent {
        let net = run(workers);
        let reference = serial.or(first.as_ref()).unwrap_or(&net.report);
        assert_reports_match(reference, &net.report, &format!("{label} W={workers}"));
        assert_eq!(
            net.messages_sent, want_sent,
            "{label} W={workers}: messages_sent"
        );
        first.get_or_insert(net.report);
    }
    let digest = pstar_obs::fnv1a64(format!("{:?}", first.expect("a worker count")).as_bytes());
    assert_eq!(
        digest, pin.report,
        "{label}: the report differs from the pinned one (got {digest:#018x})"
    );
}

/// How messages cross workers and how the fleet synchronizes are
/// host-time matters: drain points, per-sender order and the
/// ascending-link merge fix every reported number for a given seed, so
/// any difference here is a protocol bug. The digests were re-pinned
/// once, when accounting became order-free (integer delay moments,
/// slice-bucketed batch means, one pre-service queue sample, completion
/// stamped at its event slot): since then a run without unicast traffic
/// has *one* report at every worker count — the serial engine's, whose
/// pins in `tests/sharded.rs` carry the same digests for the same runs.
/// Re-pin only for a change that means to alter what a run reports.
#[test]
fn net_reports_match_the_pinned_per_message_plane() {
    let short = |seed| SimConfig {
        warmup_slots: 500,
        measure_slots: 2_000,
        ..SimConfig::quick(seed)
    };
    let [p8x8, mixed_pin, drop_pin, requeue_pin, arq_pin] = &PINNED_RUNS;

    let torus8 = Torus::new(&[8, 8]);
    let pstar = ScenarioSpec {
        rho: 0.7,
        ..ScenarioSpec::default()
    };
    let serial = run_scenario(&torus8, &pstar, short(41));
    assert_eq!(
        serial.peak_queue_total, 613,
        "the pre-service peak is the intra-slot peak the engine tracked before"
    );
    assert_pin(p8x8, Some(&serial), |w| {
        net_run(&pstar, &torus8, short(41), w)
    });

    // Unicast traffic: reproducible, outside the serial-identity contract.
    let mixed = ScenarioSpec {
        scheme: SchemeKind::ThreeClass,
        rho: 0.7,
        broadcast_load_fraction: 0.5,
        ..ScenarioSpec::default()
    };
    let torus448 = Torus::new(&[4, 4, 8]);
    assert_pin(mixed_pin, None, |w| {
        net_run(&mixed, &torus448, short(42), w)
    });

    let torus4 = Torus::new(&[4, 4]);
    let (_, staggered) = scripted_plans(&torus4).swap_remove(1);
    for (pin, policy) in [
        (drop_pin, DeadLinkPolicy::Drop),
        (requeue_pin, DeadLinkPolicy::Requeue),
    ] {
        let cfg = SimConfig::quick(43);
        let serial = fault_sim_run(&pstar, &torus4, cfg, staggered.clone(), policy);
        assert!(serial.faults.events_applied > 0, "plan never fired");
        assert_pin(pin, Some(&serial), |w| {
            fault_net_run(&pstar, &torus4, cfg, w, staggered.clone(), policy)
        });
    }

    let lossy = SimConfig {
        queue_capacity: Some(1),
        arq: Some(pstar_sim::ArqConfig::default()),
        ..SimConfig::quick(44)
    };
    let serial = run_scenario(&torus4, &pstar, lossy);
    assert!(serial.recovery.retransmissions > 0, "ARQ never fired");
    assert_pin(arq_pin, Some(&serial), |w| {
        net_run(&pstar, &torus4, lossy, w)
    });
}

const PINNED_RUNS: [Pin; 5] = [
    Pin {
        label: "8x8 pstar rho.7",
        report: 0x38c6_fe0e_dc8e_80c4,
        sent: &[(1, 0), (2, 286_459), (3, 404_855), (4, 457_620)],
    },
    Pin {
        label: "4x4x8 three-class mixed",
        report: 0xb782_76e2_2cc5_8292,
        sent: &[(2, 630_631)],
    },
    Pin {
        label: "4x4 staggered faults Drop",
        report: 0x490d_6604_bb9c_3837,
        sent: &[(3, 558_894)],
    },
    Pin {
        label: "4x4 staggered faults Requeue",
        report: 0x98c1_40d8_5923_48a3,
        sent: &[(3, 565_142)],
    },
    Pin {
        label: "4x4 capacity-1 ARQ",
        report: 0x7aea_0280_1b85_6773,
        sent: &[(1, 0), (2, 828_417), (4, 1_366_546)],
    },
];

/// Runs that end early — at the horizon, by the fleet-wide queue limit,
/// by the single-queue guard — or end with faults live. The runtime
/// learns that slot `t − 1` was the last only at the rendezvous of slot
/// `t`, after the send of `t` has already run, so these cases pin that
/// the send ahead of the decision leaves no mark: a rejection, a sent
/// message or a fault tick counted for the slot that never ran changes
/// the report or the message count — and every one of these reports is
/// the serial engine's, which stops before the slot.
#[test]
fn early_stops_match_the_pinned_decide_then_send_protocol() {
    let (torus8, torus4) = (Torus::new(&[8, 8]), Torus::new(&[4, 4]));
    let at_rho = |rho| ScenarioSpec {
        rho,
        ..ScenarioSpec::default()
    };
    let (overload, degraded) = (at_rho(1.3), at_rho(0.7));
    let window = |seed, measure_slots| SimConfig {
        warmup_slots: 100,
        measure_slots,
        ..SimConfig::quick(seed)
    };
    let admission = Some(pstar_sim::AdmissionConfig {
        rate: 0.01,
        burst: 1.0,
    });
    let [horizon_pin, limit_pin, guard_pin, boundary_pin, drop_pin, requeue_pin, crashes_pin] =
        &PINNED_EARLY_STOPS;

    // Horizon inside the measurement window, admission rejecting.
    let horizon = SimConfig {
        max_slots: 777,
        admission,
        trace_interval: Some(50),
        ..window(51, 2_000)
    };
    let serial = run_scenario(&torus8, &overload, horizon);
    assert!(serial.stable && !serial.completed && serial.slots_run == 777);
    assert_eq!(serial.flow.rejected_broadcasts, 3_184);
    assert_pin(horizon_pin, Some(&serial), |w| {
        net_run(&overload, &torus8, horizon, w)
    });

    // Fleet-wide queue limit, a few slots in.
    let limit = SimConfig {
        unstable_queue_per_link: 3.0,
        ..window(52, 5_000)
    };
    let serial = run_scenario(&torus8, &overload, limit);
    assert!(!serial.stable && serial.slots_run == 21);
    assert_pin(limit_pin, Some(&serial), |w| {
        net_run(&overload, &torus8, limit, w)
    });

    // The single-queue guard, which only looks every 4096 slots.
    let guard = SimConfig {
        unstable_queue_per_link: 1e9,
        unstable_single_queue: 5.0,
        ..window(53, 9_000)
    };
    let serial = run_scenario(&torus4, &overload, guard);
    assert!(!serial.stable && serial.slots_run == 4_096);
    assert_pin(guard_pin, Some(&serial), |w| {
        net_run(&overload, &torus4, guard, w)
    });

    // Horizon at the warm-up boundary: the measurement window never
    // opens, so every window statistic — the concurrency averages
    // included — reads zero.
    let boundary = SimConfig {
        max_slots: 100,
        ..window(56, 2_000)
    };
    let serial = run_scenario(&torus4, &degraded, boundary);
    assert_eq!(serial.slots_run, 100);
    assert_eq!(serial.avg_concurrent_broadcasts, 0.0);
    assert_pin(boundary_pin, Some(&serial), |w| {
        net_run(&degraded, &torus4, boundary, w)
    });

    // Horizon with faults live, the third event due at the slot that
    // never runs.
    let down = |slot, link| FaultEvent {
        slot,
        kind: FaultKind::LinkDown(LinkId(link)),
    };
    let plan = FaultPlan::scripted(vec![down(150, 3), down(300, 17), down(400, 40)]);
    let faulted = SimConfig {
        max_slots: 400,
        ..window(55, 2_000)
    };
    for (pin, policy) in [
        (drop_pin, DeadLinkPolicy::Drop),
        (requeue_pin, DeadLinkPolicy::Requeue),
    ] {
        let serial = fault_sim_run(&degraded, &torus4, faulted, plan.clone(), policy);
        let f = &serial.faults;
        assert_eq!((serial.slots_run, f.events_applied), (400, 2));
        assert_eq!(f.fault_slots, 250);
        assert_pin(pin, Some(&serial), |w| {
            fault_net_run(&degraded, &torus4, faulted, w, plan.clone(), policy)
        });
    }

    // Mass fault losses (two node crashes, six link outages at rho 0.9)
    // whose settlements cross workers: a task's acks and loss notices
    // reach its home in another order than the engine settles them in,
    // and which of them comes last differs. What a fault-damaged
    // broadcast is does not depend on it.
    let mut events = vec![
        FaultEvent {
            slot: 300,
            kind: FaultKind::NodeCrash(NodeId(5)),
        },
        FaultEvent {
            slot: 420,
            kind: FaultKind::NodeCrash(NodeId(10)),
        },
    ];
    events.extend([1, 9, 22, 37, 50, 61].map(|link| down(350, link)));
    let crashes = SimConfig {
        max_slots: 600,
        ..window(57, 2_000)
    };
    let plan = FaultPlan::scripted(events);
    let serial = fault_sim_run(
        &at_rho(0.9),
        &torus4,
        crashes,
        plan.clone(),
        DeadLinkPolicy::Drop,
    );
    assert!(
        serial.faults.fault_damaged_broadcasts > 0,
        "no fault damage"
    );
    assert_pin(crashes_pin, Some(&serial), |w| {
        let net = fault_net_run(
            &at_rho(0.9),
            &torus4,
            crashes,
            w,
            plan.clone(),
            DeadLinkPolicy::Drop,
        );
        assert_eq!(
            net.report.faults.fault_damaged_broadcasts,
            serial.faults.fault_damaged_broadcasts
        );
        net
    });
}

const PINNED_EARLY_STOPS: [Pin; 7] = [
    Pin {
        label: "8x8 horizon",
        report: 0xa32b_3563_0467_3f7b,
        sent: &[(2, 18_710), (3, 26_439)],
    },
    Pin {
        label: "8x8 queue limit",
        report: 0x4057_162a_51fb_f86c,
        sent: &[(2, 2_339), (4, 3_892)],
    },
    Pin {
        label: "4x4 single-queue guard",
        report: 0x64af_bd97_1578_1ee1,
        sent: &[(2, 209_650)],
    },
    Pin {
        label: "4x4 horizon at warm-up",
        report: 0x4a8e_1ff7_9c3f_bbce,
        sent: &[(2, 3_639)],
    },
    Pin {
        label: "4x4 faulted horizon Drop",
        report: 0x6864_71ca_7db5_1c14,
        sent: &[(3, 20_934)],
    },
    Pin {
        label: "4x4 faulted horizon Requeue",
        report: 0xcee0_23c8_14d7_0d55,
        sent: &[(3, 20_868)],
    },
    Pin {
        label: "4x4 crashes, losses cross workers",
        report: 0x001b_e15f_4302_82ef,
        sent: &[(4, 38_135)],
    },
];

fn packet(task: u32, priority: u8) -> Packet {
    Packet {
        task,
        gen_time: 0,
        enqueue_time: 0,
        len: 1,
        priority,
        vc: 0,
        attempt: 0,
        kind: PacketKind::Unicast { dest: NodeId(0) },
    }
}

/// First global link id of the property-tested kernel: not a multiple
/// of 64, so global ids and bitset positions differ.
const KERNEL_LO: u32 = 37;

/// The links the kernel proptest drives: both ends of the range and the
/// ones around the first 64-bit word boundary of the kernel's bitsets.
const KERNEL_LINKS: [u32; 7] = [
    KERNEL_LO,
    KERNEL_LO + 1,
    KERNEL_LO + 62,
    KERNEL_LO + 63,
    KERNEL_LO + 64,
    KERNEL_LO + 65,
    KERNEL_LO + 69,
];

/// An `Admit` reduced to what the reference model predicts: `Ok(evicted
/// task)` when the packet was queued, `Err(cause)` when it was refused.
fn outcome(admit: Admit) -> Result<Option<u32>, LossCause> {
    match admit {
        Admit::Queued => Ok(None),
        Admit::Evicted(victim) => Ok(Some(victim.task)),
        Admit::Lost(_, cause) => Err(cause),
    }
}

/// One link of the reference model: the queue, in-flight register and
/// liveness flag every backend kept per link before the kernel.
struct ReferenceLink {
    id: u32,
    queue: PriorityQueue,
    in_flight: Option<(Packet, u64)>,
    alive: bool,
}

impl ReferenceLink {
    fn is_full(&self, capacity: Option<u32>) -> bool {
        capacity.is_some_and(|c| self.queue.len() >= c as usize)
    }
}

/// The pre-kernel engines' per-link state and decisions, kept here as
/// the model `LinkKernel` is checked against.
struct ReferenceLinks {
    links: Vec<ReferenceLink>,
    policy: DeadLinkPolicy,
    capacity: Option<u32>,
    full_policy: FullQueuePolicy,
}

impl ReferenceLinks {
    fn new(policy: DeadLinkPolicy, capacity: Option<u32>, full_policy: FullQueuePolicy) -> Self {
        Self {
            links: KERNEL_LINKS
                .iter()
                .map(|&id| ReferenceLink {
                    id,
                    queue: PriorityQueue::new(),
                    in_flight: None,
                    alive: true,
                })
                .collect(),
            policy,
            capacity,
            full_policy,
        }
    }

    fn at(&mut self, link: u32) -> &mut ReferenceLink {
        self.links
            .iter_mut()
            .find(|l| l.id == link)
            .expect("a driven link")
    }

    /// The engine's `flush_emits` decision.
    fn admit(&mut self, link: u32, pkt: Packet) -> Result<Option<u32>, LossCause> {
        let (policy, capacity, full_policy) = (self.policy, self.capacity, self.full_policy);
        let l = self.at(link);
        if !l.alive && policy == DeadLinkPolicy::Drop {
            return Err(LossCause::Fault);
        }
        let mut evicted = None;
        if l.is_full(capacity) {
            match full_policy {
                FullQueuePolicy::Backpressure => {}
                FullQueuePolicy::DropLowestClass => match l.queue.evict_lower_tail(pkt.priority) {
                    Some(victim) => evicted = Some(victim.task),
                    None => return Err(LossCause::Overflow),
                },
                FullQueuePolicy::DropTail => return Err(LossCause::Overflow),
            }
        }
        l.queue.push(pkt);
        Ok(evicted)
    }

    /// The engine's `fire_retransmissions` decision.
    fn readmit(&mut self, link: u32, pkt: Packet) -> Result<Option<u32>, LossCause> {
        let (capacity, full_policy) = (self.capacity, self.full_policy);
        let l = self.at(link);
        if !l.alive || (l.is_full(capacity) && full_policy != FullQueuePolicy::Backpressure) {
            return Err(LossCause::Retry);
        }
        l.queue.push(pkt);
        Ok(None)
    }

    /// The engine's `on_link_death`: the tasks lost, in order.
    fn kill(&mut self, link: u32) -> Vec<u32> {
        let policy = self.policy;
        let l = self.at(link);
        l.alive = false;
        let mut lost = Vec::new();
        if let Some((pkt, _)) = l.in_flight.take() {
            match policy {
                DeadLinkPolicy::Drop => lost.push(pkt.task),
                DeadLinkPolicy::Requeue => l.queue.push_front(pkt),
            }
        }
        if policy == DeadLinkPolicy::Drop {
            lost.extend(l.queue.drain_all().map(|p| p.task));
        }
        lost
    }

    /// One slot on both sides: the deliveries finishing at `t`, then the
    /// service starts, each in ascending link order.
    fn slot(&mut self, kernel: &mut LinkKernel, t: u64) -> Result<(), TestCaseError> {
        let mut want = Vec::new();
        for l in &mut self.links {
            if l.in_flight.is_some_and(|(_, finish)| finish == t) {
                want.push((l.id, l.in_flight.take().expect("checked").0.task));
            }
        }
        let mut got = Vec::new();
        let mut scan = kernel.finish_scan();
        while let Some((link, pkt)) = kernel.next_finished(&mut scan, t) {
            got.push((link, pkt.task));
        }
        prop_assert_eq!(got, want, "deliveries of slot {}", t);

        let mut want = Vec::new();
        for l in &mut self.links {
            if l.in_flight.is_none() && l.alive {
                if let Some(pkt) = l.queue.pop() {
                    want.push((l.id, pkt.task));
                    l.in_flight = Some((pkt, t + pkt.len as u64));
                }
            }
        }
        let mut got = Vec::new();
        kernel.start(t, false, |link, pkt| got.push((link, pkt.task)));
        prop_assert_eq!(got, want, "service starts of slot {}", t);
        Ok(())
    }

    /// Lengths and the backlog / busy / alive sets agree link by link.
    fn assert_same_state(&self, kernel: &LinkKernel) -> Result<(), TestCaseError> {
        let mut queued = 0;
        for l in &self.links {
            prop_assert_eq!(kernel.qlen(l.id), l.queue.len(), "len of link {}", l.id);
            for class in 0..4 {
                prop_assert_eq!(kernel.class_len(l.id, class), l.queue.class_len(class));
            }
            prop_assert_eq!(kernel.has_backlog(l.id), !l.queue.is_empty());
            prop_assert_eq!(kernel.is_busy(l.id), l.in_flight.is_some());
            prop_assert_eq!(kernel.is_alive(l.id), l.alive);
            queued += l.queue.len() as u64;
        }
        prop_assert_eq!(kernel.queued(), queued);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The per-link priority queue against a reference model, under a
    /// random interleaving of pushes and pops: within a class strictly
    /// FIFO (never reorders), across classes strict head-of-line
    /// priority (class 0 is never starved while present — it is always
    /// served first). Then the same queue *as* the reference model:
    /// `LinkKernel` against one `PriorityQueue` + in-flight register per
    /// link and the decisions the engines used to spell out themselves,
    /// over random admits, slots, link deaths, repairs and re-admissions.
    #[test]
    fn priority_queue_fifo_per_class_and_no_class0_starvation(
        ops in prop::collection::vec((any::<bool>(), 0u8..4), 1..200),
        kernel_ops in prop::collection::vec((0u8..8, 0usize..7, 0u8..4), 1..300),
        requeue in any::<bool>(),
        capacity in 0u32..4,
        full_policy in 0u8..3,
    ) {
        let mut q = PriorityQueue::new();
        let mut model: Vec<std::collections::VecDeque<u32>> =
            vec![std::collections::VecDeque::new(); 4];
        let mut next_id = 0u32;
        for (push, class) in ops {
            if push {
                q.push(packet(next_id, class));
                model[class as usize].push_back(next_id);
                next_id += 1;
            } else {
                let got = q.pop();
                let want = model
                    .iter_mut()
                    .find(|c| !c.is_empty())
                    .and_then(|c| c.pop_front());
                prop_assert_eq!(got.map(|p| p.task), want);
            }
        }
        // Drain: the remainder comes out in class order, FIFO within.
        while let Some(p) = q.pop() {
            let want = model
                .iter_mut()
                .find(|c| !c.is_empty())
                .and_then(|c| c.pop_front());
            prop_assert_eq!(Some(p.task), want);
        }
        prop_assert!(model.iter().all(|c| c.is_empty()));

        let policy = if requeue { DeadLinkPolicy::Requeue } else { DeadLinkPolicy::Drop };
        let full_policy = [
            FullQueuePolicy::DropTail,
            FullQueuePolicy::DropLowestClass,
            FullQueuePolicy::Backpressure,
        ][full_policy as usize];
        let capacity = (capacity > 0).then_some(capacity);
        let mut reference = ReferenceLinks::new(policy, capacity, full_policy);
        let mut kernel = LinkKernel::new(
            &SimConfig { queue_capacity: capacity, full_queue_policy: full_policy, ..SimConfig::quick(1) },
            2,
            KERNEL_LO,
            KERNEL_LO + 70,
        );
        kernel.set_dead_link_policy(policy);
        let mut lost = Vec::new();
        let mut t = 0u64;
        for (i, (op, link, class)) in kernel_ops.into_iter().enumerate() {
            let link = KERNEL_LINKS[link];
            // Every other packet occupies its link for two slots.
            let pkt = Packet { len: 1 + (i % 2) as u16, ..packet(i as u32, class) };
            match op {
                0..=2 => prop_assert_eq!(outcome(kernel.admit(link, pkt)), reference.admit(link, pkt)),
                3 | 4 => {
                    t += 1;
                    reference.slot(&mut kernel, t)?;
                }
                5 => {
                    lost.clear();
                    kernel.kill(link, &mut lost);
                    let got: Vec<u32> = lost.iter().map(|p| p.task).collect();
                    prop_assert_eq!(got, reference.kill(link));
                }
                6 => {
                    kernel.revive(link);
                    reference.at(link).alive = true;
                }
                _ => prop_assert_eq!(
                    outcome(kernel.readmit(link, pkt, t)),
                    reference.readmit(link, pkt)
                ),
            }
            reference.assert_same_state(&kernel)?;
        }
        // Drain: repaired, every link serves what it still holds, in
        // the reference's order.
        for &link in &KERNEL_LINKS {
            kernel.revive(link);
            reference.at(link).alive = true;
        }
        while !kernel.is_idle() {
            t += 1;
            reference.slot(&mut kernel, t)?;
            reference.assert_same_state(&kernel)?;
        }
        prop_assert!(reference.links.iter().all(|l| l.queue.is_empty() && l.in_flight.is_none()));
    }

    /// The runtime's channel is a FIFO: any run of sends, split across
    /// drains anywhere, comes out in send order.
    #[test]
    fn channel_never_reorders(
        ops in prop::collection::vec((0u32..40, any::<bool>()), 1..12)
    ) {
        let ch = Channel::bounded(512);
        let mut sent = 0u32;
        let mut received = Vec::new();
        for (count, drain) in ops {
            for v in sent..sent + count {
                ch.send(v);
            }
            sent += count;
            if drain {
                ch.drain_into(&mut received);
            }
        }
        ch.drain_into(&mut received);
        prop_assert_eq!(received, (0..sent).collect::<Vec<_>>());
    }
}

proptest! {
    // Each case runs one engine pass plus three full runtime passes, so
    // the case budget is deliberately small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized *transient* plans (a link-outage window plus an
    /// optional node outage, all repaired inside the measurement
    /// window): sim and net report the same run at 1, 2, and 4 workers.
    #[test]
    fn randomized_transient_plans_agree(
        seed in 0u64..1_000,
        nlinks in 1usize..6,
        down in 2_100u64..5_000,
        dur in 100u64..2_000,
        node in 0u32..16,
        node_down in 2_100u64..5_000,
        node_dur in 100u64..2_000,
        use_node in any::<bool>(),
    ) {
        let topo = Torus::new(&[4, 4]);
        let links: Vec<LinkId> = pstar_sim::shuffled_links(topo.link_count(), seed)
            .into_iter()
            .take(nlinks)
            .collect();
        let mut events = Vec::new();
        for &l in &links {
            events.push(FaultEvent { slot: down, kind: FaultKind::LinkDown(l) });
            events.push(FaultEvent { slot: down + dur, kind: FaultKind::LinkUp(l) });
        }
        if use_node {
            events.push(FaultEvent {
                slot: node_down,
                kind: FaultKind::NodeCrash(NodeId(node)),
            });
            events.push(FaultEvent {
                slot: node_down + node_dur,
                kind: FaultKind::NodeRecover(NodeId(node)),
            });
        }
        let plan = FaultPlan::scripted(events);
        prop_assert!(plan.is_transient());
        let spec = ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho: 0.6,
            ..ScenarioSpec::default()
        };
        let cfg = SimConfig::quick(seed ^ 0xDEAD);
        let sim = fault_sim_run(&spec, &topo, cfg, plan.clone(), DeadLinkPolicy::Drop);
        for workers in [1usize, 2, 4] {
            let net = fault_net_run(&spec, &topo, cfg, workers, plan.clone(), DeadLinkPolicy::Drop);
            prop_assert_eq!(sim.first_difference(&net.report), None, "W={}", workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A chaos-injected worker panic — any seed, any slot, any fleet
    /// size — always terminates as a structured `WorkerPanic` within
    /// the watchdog budget: no hang, no raw panic escaping `run_net`.
    #[test]
    fn chaos_panic_always_terminates_with_net_error(
        chaos_seed in any::<u64>(),
        panic_slot in 0u64..1_500,
        workers in 2usize..5,
    ) {
        let topo = Torus::new(&[4, 4]);
        let spec = ScenarioSpec::default();
        let mut sim = SimConfig::quick(chaos_seed);
        sim.lengths = spec.lengths;
        let result = run_net(
            &topo,
            spec.build_scheme(&topo),
            spec.mix(&topo),
            NetConfig {
                workers,
                chaos: ChaosConfig {
                    seed: chaos_seed,
                    panic_at_slot: Some(panic_slot),
                    ..Default::default()
                },
                ..NetConfig::new(sim)
            },
        );
        match result {
            Err(NetError::WorkerPanic { message, .. }) => {
                prop_assert!(message.contains("chaos: injected panic"), "{}", message);
            }
            other => prop_assert!(false, "expected WorkerPanic, got {:?}", other.map(|n| n.workers)),
        }
    }
}
