//! Bit-identity of the sharded SoA engine against the serial engine.
//!
//! The sharded engine's whole design contract is that sharding is a
//! *performance* transform, not a semantic one: for a given seed the
//! coordinator draws what the serial engine draws, and every report
//! field — delivered/measured counts, delay moments, loss and fault
//! counters, queue peaks/traces, tails digests, per-class service-wait
//! summaries — is identical at any shard count, threaded or not. Both
//! engines account through the same ledger (`pstar_sim::TaskLedger` in
//! the serial engine and the coordinator, `pstar_sim::LinkCounters` per
//! engine / per shard), whose statistics are exact integer sums, so
//! their merge is order-free and no tolerance is needed anywhere.

//! The comparison itself — [`common::assert_reports_match`], i.e.
//! `SimReport::first_difference` — is shared with every other
//! cross-backend suite, so the contract above is stated in exactly one
//! place.

mod common;

use common::{assert_reports_match, cross_backend_agree, Backend};
use priority_star::prelude::*;
use pstar_sim::{
    BroadcastState, DeadLinkPolicy, Emit, FaultEvent, FaultKind, FaultPlan, LivenessView, Scheme,
    SimReport,
};
use pstar_topology::{LinkId, NodeId};
use rand::rngs::StdRng;
use std::sync::{Arc, Mutex};

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

// ---------------------------------------------------------------------
// One fault clock: the rules every driver's replica must keep
// ---------------------------------------------------------------------

/// Every driver under differential test: shards 1/2/4/8 on one and two
/// threads, and the runtime at 1/2/3/4 workers.
fn every_backend() -> Vec<Backend> {
    let mut backends = Vec::new();
    for threads in [1, 2] {
        for shards in [1, 2, 4, 8] {
            backends.push(Backend::Sharded { shards, threads });
        }
    }
    backends.extend([1, 2, 3, 4].map(|workers| Backend::NetVirtual { workers }));
    backends
}

fn scripted(events: &[(u64, FaultKind)]) -> FaultPlan {
    FaultPlan::scripted(
        events
            .iter()
            .map(|&(slot, kind)| FaultEvent { slot, kind })
            .collect(),
    )
}

/// A link repaired and killed again inside one epoch stays dead: the
/// clock's view is the authority on whether a repair holds. (Before
/// the drivers shared one fault tick, only the serial engine asked it:
/// the other two revived link 5 at slot 3000 and carried traffic over
/// a dead link for 600 slots — 363 fault-dropped packets on one shard
/// against the serial engine's 638 at this seed.)
#[test]
fn a_link_repaired_and_killed_in_one_epoch_stays_dead_on_every_backend() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec {
        rho: 0.6,
        ..ScenarioSpec::default()
    };
    let flap = scripted(&[
        (2_500, FaultKind::LinkDown(LinkId(5))),
        (3_000, FaultKind::LinkUp(LinkId(5))),
        (3_000, FaultKind::LinkDown(LinkId(5))),
        (3_600, FaultKind::LinkUp(LinkId(5))),
    ]);
    for policy in [DeadLinkPolicy::Drop, DeadLinkPolicy::Requeue] {
        let serial = cross_backend_agree(
            &topo,
            &spec,
            cfg_with(0xF1A9, true, true, false),
            Some(&(flap.clone(), policy)),
            &every_backend(),
            &format!("flap {policy:?}"),
        );
        assert_eq!(serial.faults.events_applied, 4);
        assert_eq!(serial.faults.fault_slots, 1_100, "dead from 2500 to 3600");
        assert_eq!(serial.faults.recovery_time.count, 1, "one repair held");
    }
}

/// The stop check of slot `t − 1` precedes the fault tick of slot `t`
/// on every driver: a run that ends at the horizon never applies the
/// event due at the slot it did not run. And the totals are one
/// replica's, not a sum over shards or workers.
#[test]
fn a_run_that_stops_at_an_event_slot_never_applies_it_on_any_backend() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec {
        rho: 0.7,
        ..ScenarioSpec::default()
    };
    let down = |slot, link| (slot, FaultKind::LinkDown(LinkId(link)));
    let plan = scripted(&[down(150, 3), down(300, 17), down(400, 40)]);
    let cfg = SimConfig {
        warmup_slots: 100,
        measure_slots: 2_000,
        max_slots: 400,
        ..cfg_with(55, true, true, false)
    };
    for policy in [DeadLinkPolicy::Drop, DeadLinkPolicy::Requeue] {
        let serial = cross_backend_agree(
            &topo,
            &spec,
            cfg,
            Some(&(plan.clone(), policy)),
            &every_backend(),
            &format!("horizon at an event slot {policy:?}"),
        );
        assert_eq!(serial.slots_run, 400);
        assert_eq!(serial.faults.events_applied, 2);
        assert_eq!(serial.faults.fault_slots, 250);
    }
}

/// A scheme that counts, per fault epoch it has been told of so far,
/// how many lost copies it was asked to price
/// (`Scheme::subtree_receptions`, which only loss settlement calls).
#[derive(Clone)]
struct EpochLedger<S> {
    inner: S,
    epochs_seen: usize,
    /// Shared by every clone: `settles[k]` = copies priced by a clone
    /// that had seen `k` epochs.
    settles: Arc<Mutex<Vec<u64>>>,
}

impl<S: Scheme> Scheme for EpochLedger<S> {
    fn num_priorities(&self) -> usize {
        self.inner.num_priorities()
    }

    fn on_broadcast_generated(&self, src: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>) {
        self.inner.on_broadcast_generated(src, rng, out)
    }

    fn on_broadcast_arrival(&self, node: NodeId, state: &BroadcastState, out: &mut Vec<Emit>) {
        self.inner.on_broadcast_arrival(node, state, out)
    }

    fn on_unicast_generated(
        &self,
        src: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    ) {
        self.inner.on_unicast_generated(src, dest, rng, out)
    }

    fn on_unicast_arrival(
        &self,
        node: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    ) {
        self.inner.on_unicast_arrival(node, dest, rng, out)
    }

    fn subtree_receptions(&self, state: &BroadcastState) -> u32 {
        self.settles.lock().unwrap()[self.epochs_seen] += 1;
        self.inner.subtree_receptions(state)
    }

    fn on_liveness_change(&mut self, view: &LivenessView) {
        self.epochs_seen += 1;
        self.inner.on_liveness_change(view);
    }
}

/// What a fault epoch loses settles against the scheme *as it still
/// is*; only then does the scheme see the new view — on every driver.
/// The plan blinks links (down and up again inside one epoch): the
/// dying links lose their packets, but no link is ever dead when a
/// packet is offered to it, so every copy the scheme prices is an
/// epoch's own loss, priced by a scheme that has seen exactly the
/// epochs before it.
#[test]
fn fault_losses_settle_before_the_scheme_sees_the_epoch_on_every_backend() {
    let topo = Torus::new(&[4, 4]);
    let spec = ScenarioSpec {
        rho: 0.7,
        ..ScenarioSpec::default()
    };
    let epochs = [2_500u64, 3_000, 3_500];
    let mut events = Vec::new();
    for (e, &slot) in epochs.iter().enumerate() {
        // A third of the links each epoch, spread over every shard.
        for link in (e as u32..topo.link_count()).step_by(3) {
            events.push((slot, FaultKind::LinkDown(LinkId(link))));
            events.push((slot, FaultKind::LinkUp(LinkId(link))));
        }
    }
    let plan = scripted(&events);
    let cfg = SimConfig {
        lengths: spec.lengths,
        ..SimConfig::quick(0xB11C)
    };
    let priced = |run: &dyn Fn(EpochLedger<_>)| {
        let settles = Arc::new(Mutex::new(vec![0u64; epochs.len() + 1]));
        run(EpochLedger {
            inner: spec.build_scheme(&topo),
            epochs_seen: 0,
            settles: settles.clone(),
        });
        let settles = settles.lock().unwrap().clone();
        settles
    };
    let (mix, drop) = (spec.mix(&topo), DeadLinkPolicy::Drop);

    let serial = priced(&|scheme| {
        let rep = pstar_sim::run_with_faults(&topo, scheme, mix, cfg, plan.clone(), drop);
        assert_eq!(rep.faults.events_applied as usize, events.len());
    });
    assert!(
        serial[..epochs.len()].iter().all(|&n| n > 0),
        "an epoch lost nothing — the test is vacuous: {serial:?}"
    );
    assert_eq!(serial[epochs.len()], 0, "a loss after the last epoch");
    for (shards, threads) in [(1, 1), (4, 1), (8, 2)] {
        let sharded = priced(&|scheme| {
            pstar_sim::ShardedEngine::new(topo.clone(), scheme, mix, cfg, shards)
                .with_threads(threads)
                .with_fault_plan(plan.clone(), drop)
                .run();
        });
        assert_eq!(sharded, serial, "shards={shards} threads={threads}");
    }
    for workers in [1, 3] {
        let net = priced(&|scheme| {
            let cfg = pstar_net::NetConfig {
                workers,
                ..pstar_net::NetConfig::new(cfg)
            };
            pstar_net::run_net_with_faults(&topo, scheme, mix, cfg, plan.clone(), drop)
                .expect("the runtime failed");
        });
        assert_eq!(net, serial, "workers={workers}");
    }
}

// ---------------------------------------------------------------------
// Bit-identity pin: the serial engine may move, its reports may not
// ---------------------------------------------------------------------

/// FNV-1a over the `Debug` text of the whole report — every field, and
/// `{:?}` spells an `f64` with the shortest text that round-trips, so
/// two floats print alike only when their bits are equal (the
/// `tests/net.rs::net_digest` form).
fn report_digest(report: &SimReport) -> u64 {
    pstar_obs::fnv1a64(format!("{report:?}").as_bytes())
}

/// The serial and the sharded engine run on the same `LinkKernel`, so
/// the serial ≡ sharded suites above cannot show that *neither* moved.
/// These digests cover the unbounded hot path, both dead-link policies,
/// ARQ, every full-queue policy and admission control. They were
/// re-pinned once, when accounting became order-free (CHANGES.md PR 22
/// lists, per run, what moved against the reports of commit bdfaa3a:
/// mean and variance of the delay moments within 1e-9 relative, the
/// batch-means CI, `recovery_time.min`, fault-damage attribution, the
/// ARQ jitter's downstream — nothing else). Re-pin only for a change
/// that means to alter what a run reports.
#[test]
fn serial_reports_match_the_pinned_pre_kernel_engine() {
    let short = |seed| SimConfig {
        warmup_slots: 500,
        measure_slots: 2_000,
        ..SimConfig::quick(seed)
    };
    let pstar = |rho| ScenarioSpec {
        rho,
        ..ScenarioSpec::default()
    };
    let torus4 = Torus::new(&[4, 4]);
    let mut got: Vec<(&str, u64)> = Vec::new();

    let torus8 = Torus::new(&[8, 8]);
    let rep = run_scenario(&torus8, &pstar(0.7), short(41));
    assert!(rep.ok());
    // The queue peak is sampled once a slot, before service: on a
    // fault-free run that is the intra-slot peak the engine tracked at
    // commit bdfaa3a, here and on the sharded engine.
    assert_eq!(rep.peak_queue_total, 613);
    let sharded = run_scenario_sharded(&torus8, &pstar(0.7), short(41), 4, 2, None);
    assert_eq!(sharded.peak_queue_total, 613);
    got.push(("8x8 pstar rho.7", report_digest(&rep)));

    let mixed = ScenarioSpec {
        scheme: SchemeKind::ThreeClass,
        rho: 0.7,
        broadcast_load_fraction: 0.5,
        ..ScenarioSpec::default()
    };
    let rep = run_scenario(&Torus::new(&[4, 4, 8]), &mixed, short(42));
    assert!(rep.ok() && rep.measured_unicasts > 0);
    got.push(("4x4x8 three-class mixed", report_digest(&rep)));

    // The staggered plan of `tests/net.rs::scripted_plans`.
    let links: Vec<LinkId> = pstar_sim::shuffled_links(torus4.link_count(), 0xFA)
        .into_iter()
        .take(6)
        .collect();
    let staggered = || {
        FaultPlan::scripted(
            [
                (2_200, FaultKind::LinkDown(links[0])),
                (2_600, FaultKind::LinkDown(links[3])),
                (3_500, FaultKind::LinkUp(links[0])),
                (3_900, FaultKind::LinkDown(links[5])),
                (4_500, FaultKind::LinkUp(links[3])),
                (5_200, FaultKind::LinkUp(links[5])),
            ]
            .into_iter()
            .map(|(slot, kind)| FaultEvent { slot, kind })
            .collect(),
        )
    };
    for (label, policy) in [
        ("4x4 staggered faults Drop", DeadLinkPolicy::Drop),
        ("4x4 staggered faults Requeue", DeadLinkPolicy::Requeue),
    ] {
        let cfg = SimConfig::quick(43);
        let rep = run_scenario_with_faults(&torus4, &pstar(0.7), cfg, staggered(), policy);
        assert_eq!(rep.faults.events_applied, 6, "{label}: plan never fired");
        got.push((label, report_digest(&rep)));
    }

    let lossy = SimConfig {
        queue_capacity: Some(1),
        arq: Some(pstar_sim::ArqConfig::default()),
        ..SimConfig::quick(44)
    };
    let rep = run_scenario(&torus4, &pstar(0.7), lossy);
    assert!(rep.recovery.retransmissions > 0, "ARQ never fired");
    got.push(("4x4 capacity-1 ARQ", report_digest(&rep)));

    let bounded = |policy, seed| SimConfig {
        queue_capacity: Some(2),
        full_queue_policy: policy,
        ..SimConfig::quick(seed)
    };
    let rep = run_scenario(
        &torus4,
        &pstar(0.9),
        bounded(pstar_sim::FullQueuePolicy::DropLowestClass, 45),
    );
    assert!(rep.flow.evicted_packets > 0, "nothing was evicted");
    got.push(("4x4 capacity-2 DropLowestClass", report_digest(&rep)));

    let rep = run_scenario(
        &torus4,
        &pstar(0.9),
        bounded(pstar_sim::FullQueuePolicy::Backpressure, 46),
    );
    assert!(rep.flow.deferred_injections > 0, "nothing was deferred");
    got.push(("4x4 capacity-2 Backpressure", report_digest(&rep)));

    let admitted = SimConfig {
        admission: Some(pstar_sim::AdmissionConfig {
            rate: pstar(0.8).mix(&torus4).lambda_broadcast,
            burst: 4.0,
        }),
        ..SimConfig::quick(47)
    };
    let rep = run_scenario(&torus4, &pstar(1.2), admitted);
    assert!(rep.flow.rejected_broadcasts > 0, "nothing was rejected");
    got.push(("4x4 rho1.2 admission", report_digest(&rep)));

    assert_eq!(got.len(), PINNED_SERIAL_DIGESTS.len());
    for ((label, digest), (want_label, want)) in got.iter().zip(PINNED_SERIAL_DIGESTS) {
        assert_eq!(*label, want_label);
        assert_eq!(
            *digest, want,
            "{label}: serial report differs from the pinned parent (got {digest:#018x})"
        );
    }
}

const PINNED_SERIAL_DIGESTS: [(&str, u64); 8] = [
    ("8x8 pstar rho.7", 0x38c6_fe0e_dc8e_80c4),
    ("4x4x8 three-class mixed", 0xd9c0_1150_02ba_1d48),
    ("4x4 staggered faults Drop", 0x490d_6604_bb9c_3837),
    ("4x4 staggered faults Requeue", 0x98c1_40d8_5923_48a3),
    ("4x4 capacity-1 ARQ", 0x7aea_0280_1b85_6773),
    ("4x4 capacity-2 DropLowestClass", 0x6085_a202_879f_eb8a),
    ("4x4 capacity-2 Backpressure", 0x2e4e_763e_03ae_4c9f),
    ("4x4 rho1.2 admission", 0xe570_3a07_a5d4_e29b),
];

/// The coordinate arithmetic under every hop — `Coordinates::digit` /
/// `step`, `unicast::next_hop`'s ring offset, the tree rotation — is
/// division-free; these three runs are the ones that lean on it hardest
/// (unicast-only at even radix with tie coins, the asymmetric three-class
/// mix, an odd radix with no ties). Re-pinned with
/// [`PINNED_SERIAL_DIGESTS`]; against commit ac895e7, where all three
/// were still `/` and `%`, only the delay moments' low bits and the
/// batch-means CI moved.
#[test]
fn serial_reports_match_the_pinned_hardware_division_routing() {
    let short = |seed| SimConfig {
        warmup_slots: 500,
        measure_slots: 2_000,
        ..SimConfig::quick(seed)
    };
    let runs = [
        (
            "16x16 unicast-only rho.3",
            &[16, 16][..],
            SchemeKind::PriorityStar,
            0.3,
            0.0,
            51,
        ),
        (
            "8x8x16 three-class mixed rho.7",
            &[8, 8, 16],
            SchemeKind::ThreeClass,
            0.7,
            0.5,
            52,
        ),
        (
            "5x5 three-class mixed rho.6",
            &[5, 5],
            SchemeKind::ThreeClass,
            0.6,
            0.5,
            53,
        ),
    ];
    let got = runs.map(
        |(label, dims, scheme, rho, broadcast_load_fraction, seed)| {
            let spec = ScenarioSpec {
                scheme,
                rho,
                broadcast_load_fraction,
                ..ScenarioSpec::default()
            };
            let rep = run_scenario(&Torus::new(dims), &spec, short(seed));
            assert!(rep.ok() && rep.measured_unicasts > 0, "{label}");
            (label, report_digest(&rep))
        },
    );
    assert_eq!(
        got, PINNED_DIVISION_DIGESTS,
        "a serial report differs from the pinned parent (got {got:#018x?})"
    );
}

const PINNED_DIVISION_DIGESTS: [(&str, u64); 3] = [
    ("16x16 unicast-only rho.3", 0xf8eb_0b05_5ce3_8ed4),
    ("8x8x16 three-class mixed rho.7", 0x0b90_4ecd_57da_2c33),
    ("5x5 three-class mixed rho.6", 0xa02e_f5c7_6806_7edb),
];
