//! Cross-backend validation: the thread-per-core runtime (`pstar-net`)
//! against the slotted simulator (`pstar-sim`).
//!
//! In virtual-time mode the runtime's injector mirrors the engine's RNG
//! draw order, so for a broadcast-only workload the *measured task set*
//! of both backends is identical for a given seed — and since both run
//! the drain protocol to completion with unbounded queues, the
//! delivered-reception counts must agree **exactly**, for any worker
//! count. Per-reception delays differ (the runtime's intra-slot service
//! order is worker-sharded, the engine's is global), which is precisely
//! why count agreement is the right invariant: it survives legitimate
//! scheduling differences and breaks on any bookkeeping bug.
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

use common::{assert_net_counts_match, crn_seed, net_run, net_run_under};
use priority_star::{run_scenario, ScenarioSpec, SchemeKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use pstar_net::{run_net, Channel, ChaosConfig, NetConfig, NetError};
use pstar_sim::{
    run_with_faults, Admit, DeadLinkPolicy, FaultEvent, FaultKind, FaultPlan, FullQueuePolicy,
    LinkKernel, LossCause, Packet, PacketKind, PriorityQueue, SimConfig,
};
use pstar_topology::{LinkId, NodeId, Torus};

/// Virtual-time net and sim agree exactly on the measured task set and
/// the delivered-reception counts, per scheme × ρ.
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
            assert!(net.report.completed, "{label}: net did not complete");
            assert_eq!(
                sim.measured_broadcasts, net.report.measured_broadcasts,
                "{label}: measured task sets diverged — RNG mirror broken"
            );
            assert_eq!(
                sim.reception_delay.count, net.report.reception_delay.count,
                "{label}: delivered-reception counts diverged"
            );
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
        assert_eq!(
            sim.reception_delay.count, net.report.reception_delay.count,
            "W={workers}: delivered counts diverged"
        );
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
) -> pstar_net::NetReport {
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
/// and 1/2/4 workers, the virtual-clock runtime reproduces the engine's
/// counts exactly (`common::assert_net_counts_match`).
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
                assert_net_counts_match(&sim, &net.report, &label);
            }
        }
    }
}

/// Under `Requeue` nothing is lost to faults — packets wait out the
/// outage — and the two backends still agree on delivered counts.
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
        assert_eq!(
            sim.reception_delay.count, net.report.reception_delay.count,
            "{label}: delivered counts diverged"
        );
        assert_eq!(sim.lost_receptions, net.report.lost_receptions, "{label}");
    }
}

// ---------------------------------------------------------------------
// Bit-identity pin: the message plane may change, the reports may not
// ---------------------------------------------------------------------

/// FNV-1a over everything a run reports: the `Debug` text of the whole
/// `SimReport` — every field, and `{:?}` spells an `f64` with the
/// shortest text that round-trips, so two floats print alike only when
/// their bits are equal — plus the runtime's message count.
fn net_digest(net: &pstar_net::NetReport) -> u64 {
    pstar_obs::fnv1a64(format!("{:?} sent={}", net.report, net.messages_sent).as_bytes())
}

/// What a faulted run is pinned by beside [`net_digest`]: the digest of
/// the `SimReport` alone, and the message count on its own.
fn report_and_sent(net: &pstar_net::NetReport) -> (u64, u64) {
    let report = pstar_obs::fnv1a64(format!("{:?}", net.report).as_bytes());
    (report, net.messages_sent)
}

/// Checks the faulted runs of a pin test against [`PINNED_FAULTED`].
fn assert_faulted_pins(got: &[(String, (u64, u64))]) {
    for (label, (report, sent)) in got {
        let (_, want_report, want_sent) = PINNED_FAULTED
            .iter()
            .find(|(want_label, ..)| want_label == label)
            .unwrap_or_else(|| panic!("{label}: no report-only pin"));
        assert_eq!(
            report, want_report,
            "{label}: the report itself differs from commit b81f95b (got {report:#018x})"
        );
        assert_eq!(sent, want_sent, "{label}: messages_sent");
    }
}

/// The five runs under a fault plan, by `SimReport` alone. The report
/// digests were captured at commit b81f95b, the last one where worker 0
/// owned the fault clock and sent every other worker each epoch's delta
/// as a message: a replica per worker changes no reported number, so
/// they are that commit's, while `messages_sent` is that commit's less
/// `(W − 1) ·` the epochs that ran (558 957 − 12, 565 205 − 12,
/// 20 938 − 4, 20 872 − 4, 38 144 − 9) — which is all that moved the
/// full digests of these runs in [`PINNED_DIGESTS`] and
/// [`PINNED_EARLY_STOPS`].
const PINNED_FAULTED: [(&str, u64, u64); 5] = [
    (
        "4x4 staggered faults Drop W=3",
        0xc539_cbd2_70d4_9f68,
        558_945,
    ),
    (
        "4x4 staggered faults Requeue W=3",
        0x6d1f_77c5_2aeb_3ce4,
        565_193,
    ),
    (
        "4x4 faulted horizon Drop W=3",
        0x619d_1681_2092_650c,
        20_934,
    ),
    (
        "4x4 faulted horizon Requeue W=3",
        0x3665_51bd_70d4_17cc,
        20_868,
    ),
    (
        "4x4 crashes, losses cross workers W=4",
        0x2a3a_f36b_c878_334a,
        38_135,
    ),
];

/// The digests below were captured at commit 18cea4f, where every
/// message took its own channel lock and the slot ended in a third
/// barrier. How messages cross workers and how the fleet synchronizes
/// are host-time matters: drain points, per-sender order and the
/// ascending-link merge fix every reported number for a given
/// `(seed, workers, mode)`, so any difference here is a protocol bug.
/// Re-pin only for a change that means to alter what a run reports —
/// as the two faulted runs were when fault epochs stopped being
/// messages ([`PINNED_FAULTED`]).
#[test]
fn net_reports_match_the_pinned_per_message_plane() {
    let short = |seed| SimConfig {
        warmup_slots: 500,
        measure_slots: 2_000,
        ..SimConfig::quick(seed)
    };
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut faulted: Vec<(String, (u64, u64))> = Vec::new();

    let torus8 = Torus::new(&[8, 8]);
    let pstar = ScenarioSpec {
        rho: 0.7,
        ..ScenarioSpec::default()
    };
    for workers in 1..=4 {
        let net = net_run(&pstar, &torus8, short(41), workers);
        got.push((format!("8x8 pstar rho.7 W={workers}"), net_digest(&net)));
    }

    let mixed = ScenarioSpec {
        scheme: SchemeKind::ThreeClass,
        rho: 0.7,
        broadcast_load_fraction: 0.5,
        ..ScenarioSpec::default()
    };
    let net = net_run(&mixed, &Torus::new(&[4, 4, 8]), short(42), 2);
    got.push(("4x4x8 three-class mixed W=2".into(), net_digest(&net)));

    let torus4 = Torus::new(&[4, 4]);
    let (_, staggered) = scripted_plans(&torus4).swap_remove(1);
    for policy in [DeadLinkPolicy::Drop, DeadLinkPolicy::Requeue] {
        let net = fault_net_run(
            &pstar,
            &torus4,
            SimConfig::quick(43),
            3,
            staggered.clone(),
            policy,
        );
        assert!(net.report.faults.events_applied > 0, "plan never fired");
        let label = format!("4x4 staggered faults {policy:?} W=3");
        faulted.push((label.clone(), report_and_sent(&net)));
        got.push((label, net_digest(&net)));
    }

    let lossy = SimConfig {
        queue_capacity: Some(1),
        arq: Some(pstar_sim::ArqConfig::default()),
        ..SimConfig::quick(44)
    };
    let net = net_run(&pstar, &torus4, lossy, 2);
    assert!(net.report.recovery.retransmissions > 0, "ARQ never fired");
    got.push(("4x4 capacity-1 ARQ W=2".into(), net_digest(&net)));

    assert_faulted_pins(&faulted);
    assert_eq!(got.len(), PINNED_DIGESTS.len());
    for ((label, digest), (want_label, want)) in got.iter().zip(PINNED_DIGESTS) {
        assert_eq!(label, want_label);
        assert_eq!(
            *digest, want,
            "{label}: report or message count differs from the pinned parent \
             (got {digest:#018x})"
        );
    }
}

const PINNED_DIGESTS: [(&str, u64); 8] = [
    ("8x8 pstar rho.7 W=1", 0x0a0e_0b5a_3072_5c31),
    ("8x8 pstar rho.7 W=2", 0x1feb_0ac1_041e_c838),
    ("8x8 pstar rho.7 W=3", 0x3de4_de58_72eb_03b5),
    ("8x8 pstar rho.7 W=4", 0x4ccd_f673_01a3_fe4e),
    ("4x4x8 three-class mixed W=2", 0x5b3f_f2f1_8cc3_64c2),
    ("4x4 staggered faults Drop W=3", 0xcc8d_4f2e_d1ab_325b),
    ("4x4 staggered faults Requeue W=3", 0x4e36_212a_09c6_f23c),
    ("4x4 capacity-1 ARQ W=2", 0x7849_2ec8_3c07_3b00),
];

/// Runs that end early — at the horizon, by the fleet-wide queue limit,
/// by the single-queue guard — or end with faults live. The runtime
/// learns that slot `t − 1` was the last only at the rendezvous of slot
/// `t`, after the send of `t` has already run, so these cases pin that
/// the send ahead of the decision leaves no mark: a rejection, a sent
/// message, a window tick or a fault tick counted for the slot that
/// never ran changes the digest. Captured at commit 866ac3b, where every
/// slot was decided before the next one began (the three faulted runs
/// re-pinned with [`PINNED_FAULTED`]): the eight cases the issue
/// that introduced the protocol named, plus the two its own mutation
/// checks needed — the warm-up boundary, the one stop a misplaced window
/// tick shows at, and a plan whose fault losses cross workers, where
/// control shipped a slot early shows.
#[test]
fn early_stops_match_the_pinned_decide_then_send_protocol() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut faulted_runs: Vec<(String, (u64, u64))> = Vec::new();
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

    // Horizon inside the measurement window, admission rejecting.
    let horizon = SimConfig {
        max_slots: 777,
        admission,
        trace_interval: Some(50),
        ..window(51, 2_000)
    };
    for workers in [2, 3] {
        let net = net_run(&overload, &torus8, horizon, workers);
        let r = &net.report;
        assert!(r.stable && !r.completed && r.slots_run == 777, "{r:?}");
        assert_eq!(r.flow.rejected_broadcasts, 3_184);
        got.push((format!("8x8 horizon W={workers}"), net_digest(&net)));
    }

    // Fleet-wide queue limit, a few slots in.
    let limit = SimConfig {
        unstable_queue_per_link: 3.0,
        ..window(52, 5_000)
    };
    for workers in [2, 4] {
        let net = net_run(&overload, &torus8, limit, workers);
        assert!(!net.report.stable && net.report.slots_run == 21);
        got.push((format!("8x8 queue limit W={workers}"), net_digest(&net)));
    }

    // The single-queue guard, which only looks every 4096 slots.
    let guard = SimConfig {
        unstable_queue_per_link: 1e9,
        unstable_single_queue: 5.0,
        ..window(53, 9_000)
    };
    let net = net_run(&overload, &torus4, guard, 2);
    assert!(!net.report.stable && net.report.slots_run == 4_096);
    got.push(("4x4 single-queue guard W=2".into(), net_digest(&net)));

    // Horizon at the warm-up boundary: the slot that never runs is the
    // one whose window tick would restart the concurrency gauges.
    let boundary = SimConfig {
        max_slots: 100,
        ..window(56, 2_000)
    };
    let net = net_run(&degraded, &torus4, boundary, 2);
    assert_eq!(net.report.slots_run, 100);
    assert!(net.report.avg_concurrent_broadcasts > 0.0);
    got.push(("4x4 horizon at warm-up W=2".into(), net_digest(&net)));

    // Horizon in wall-clock mode: every worker's injector rejects.
    let wall = SimConfig {
        max_slots: 555,
        admission,
        ..window(54, 2_000)
    };
    let net = run_net(
        &torus8,
        overload.build_scheme(&torus8),
        overload.mix(&torus8),
        NetConfig {
            workers: 2,
            mode: pstar_net::ClockMode::WallClock,
            ..NetConfig::new(wall)
        },
    )
    .expect("run_net failed");
    assert!(net.report.slots_run == 555 && net.report.flow.rejected_broadcasts > 0);
    got.push(("8x8 wall-clock horizon W=2".into(), net_digest(&net)));

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
    for policy in [DeadLinkPolicy::Drop, DeadLinkPolicy::Requeue] {
        let net = fault_net_run(&degraded, &torus4, faulted, 3, plan.clone(), policy);
        let f = &net.report.faults;
        assert_eq!((net.report.slots_run, f.events_applied), (400, 2));
        assert_eq!(f.fault_slots, 250);
        let label = format!("4x4 faulted horizon {policy:?} W=3");
        faulted_runs.push((label.clone(), report_and_sent(&net)));
        got.push((label, net_digest(&net)));
    }

    // Mass fault losses (two node crashes, six link outages at rho 0.9)
    // whose settlements cross workers: a loss notice the fault tick of
    // slot `t` produces must reach the task's home in slot `t + 1`, with
    // the notices slot `t`'s deliveries produce — a slot earlier, some
    // task's last settlement swaps between an ack and a fault loss.
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
    let net = fault_net_run(
        &at_rho(0.9),
        &torus4,
        crashes,
        4,
        FaultPlan::scripted(events),
        DeadLinkPolicy::Drop,
    );
    assert_eq!(net.report.faults.fault_damaged_broadcasts, 78);
    let label = "4x4 crashes, losses cross workers W=4".to_string();
    faulted_runs.push((label.clone(), report_and_sent(&net)));
    got.push((label, net_digest(&net)));

    assert_faulted_pins(&faulted_runs);
    assert_eq!(got.len(), PINNED_EARLY_STOPS.len());
    for ((label, digest), (want_label, want)) in got.iter().zip(PINNED_EARLY_STOPS) {
        assert_eq!(label, want_label);
        assert_eq!(
            *digest, want,
            "{label}: report or message count differs from the pinned parent \
             (got {digest:#018x})"
        );
    }
}

const PINNED_EARLY_STOPS: [(&str, u64); 10] = [
    ("8x8 horizon W=2", 0xd3d5_c6f0_cfb0_f53f),
    ("8x8 horizon W=3", 0x6bd9_5fb1_57f5_21df),
    ("8x8 queue limit W=2", 0x78db_d92b_7efa_a5ad),
    ("8x8 queue limit W=4", 0xcfe1_f934_3d30_c086),
    ("4x4 single-queue guard W=2", 0x8817_6949_e2b3_aca4),
    ("4x4 horizon at warm-up W=2", 0x99f9_c3b1_9960_d493),
    ("8x8 wall-clock horizon W=2", 0x83b1_7578_7eb2_d85c),
    ("4x4 faulted horizon Drop W=3", 0xa39f_6cc1_e9f4_9115),
    ("4x4 faulted horizon Requeue W=3", 0xa109_a1b9_f99b_a533),
    (
        "4x4 crashes, losses cross workers W=4",
        0xf3d5_1bab_40c1_6a6f,
    ),
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

    /// The runtime's channel preserves per-sender FIFO order for any
    /// mix of single sends and batch hand-overs (empty ones included),
    /// split across drains anywhere.
    #[test]
    fn channel_never_reorders(
        ops in prop::collection::vec((0u32..40, any::<bool>(), any::<bool>()), 1..12)
    ) {
        let ch = Channel::unbounded();
        let mut outbox = Vec::new();
        let mut sent = 0u32;
        let mut received = Vec::new();
        for (count, batched, drain) in ops {
            if batched {
                outbox.extend(sent..sent + count);
                ch.send_batch(&mut outbox);
                prop_assert!(outbox.is_empty());
            } else {
                for v in sent..sent + count {
                    ch.send(v);
                }
            }
            sent += count;
            if drain {
                ch.drain_into(&mut received);
            }
        }
        ch.drain_into(&mut received);
        prop_assert_eq!(received, (0..sent).collect::<Vec<_>>());
        prop_assert!(ch.is_empty());
    }
}

proptest! {
    // Each case runs one engine pass plus three full runtime passes, so
    // the case budget is deliberately small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized *transient* plans (a link-outage window plus an
    /// optional node outage, all repaired inside the measurement
    /// window): sim and net agree exactly on delivered and fault-drop
    /// counts at 1, 2, and 4 workers.
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
            prop_assert_eq!(sim.measured_broadcasts, net.report.measured_broadcasts);
            prop_assert_eq!(sim.reception_delay.count, net.report.reception_delay.count);
            prop_assert_eq!(sim.lost_receptions, net.report.lost_receptions);
            prop_assert_eq!(
                sim.faults.fault_dropped_packets,
                net.report.faults.fault_dropped_packets
            );
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
