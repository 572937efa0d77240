//! Shared cross-backend test harness.
//!
//! Every integration suite that compares engines goes through these
//! helpers so the comparison contract lives in exactly one place:
//!
//! * serial vs **sharded**: full-report identity via
//!   [`assert_reports_match`] — every field exact, the wait summaries
//!   included: both engines account through the same ledger
//!   (`pstar_sim::TaskLedger` / `LinkCounters`), and waits accumulate
//!   as exact integer moments, which merge order-free.
//! * serial vs **pstar-net** (virtual clock): exact count agreement via
//!   [`assert_net_counts_match`] — the runtime's documented contract
//!   for broadcast-only workloads. Mixed workloads agree statistically
//!   only (unicast forwarding draws come from per-worker streams), so
//!   the net helpers refuse specs with unicast traffic.
//!
//! [`Backend`] + [`run_backend`] + [`cross_backend_agree`] compose the
//! two into a one-call differential gate over a backend list — under an
//! optional fault plan ([`Faults`]), which every backend accepts — and
//! [`scheme_rho_grid`] builds the scheme × ρ point set with a
//! common-random-numbers seed per ρ index.

#![allow(dead_code)]

use priority_star::prelude::*;
use pstar_net::{run_net, run_net_with_faults, NetConfig};
use pstar_sim::{DeadLinkPolicy, FaultPlan, SimReport};

/// A fault plan and what dead links do with their packets.
pub type Faults = (FaultPlan, DeadLinkPolicy);

/// Common-random-numbers seed for a sweep point: one seed per ρ index,
/// shared by every scheme arm at that load.
pub fn crn_seed(rho_idx: usize) -> u64 {
    0xC0FF_EE00 + rho_idx as u64
}

/// A simulation backend under differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The serial reference engine.
    Serial,
    /// The sharded SoA engine (bit-identical to serial by contract).
    Sharded { shards: usize, threads: usize },
    /// The thread-per-core runtime in virtual-clock mode (exact count
    /// agreement for broadcast-only workloads).
    NetVirtual { workers: usize },
}

impl Backend {
    pub fn label(self) -> String {
        match self {
            Backend::Serial => "serial".into(),
            Backend::Sharded { shards, threads } => format!("sharded(s={shards},t={threads})"),
            Backend::NetVirtual { workers } => format!("net(w={workers})"),
        }
    }
}

/// Runs `spec` on `backend`, under `faults` if given, and returns the
/// simulator-shaped report. The spec's length law and scenario are
/// applied on every path (the `run_scenario*` wrappers do it
/// internally; the net path needs it done on the `SimConfig` by hand).
pub fn run_backend(
    topo: &Torus,
    spec: &ScenarioSpec,
    cfg: SimConfig,
    backend: Backend,
    faults: Option<Faults>,
) -> SimReport {
    match backend {
        Backend::Serial => match faults {
            Some((plan, policy)) => run_scenario_with_faults(topo, spec, cfg, plan, policy),
            None => run_scenario(topo, spec, cfg),
        },
        Backend::Sharded { shards, threads } => {
            run_scenario_sharded(topo, spec, cfg, shards, threads, faults)
        }
        Backend::NetVirtual { workers } => net_run_under(spec, topo, cfg, workers, faults).report,
    }
}

/// Runs `spec` on the virtual-clock runtime and returns the full
/// [`pstar_net::NetReport`] (for suites that need runtime-level fields
/// like the worker count).
pub fn net_run(
    spec: &ScenarioSpec,
    topo: &Torus,
    sim: SimConfig,
    workers: usize,
) -> pstar_net::NetReport {
    net_run_under(spec, topo, sim, workers, None)
}

/// [`net_run`] under `faults`, if given.
pub fn net_run_under(
    spec: &ScenarioSpec,
    topo: &Torus,
    mut sim: SimConfig,
    workers: usize,
    faults: Option<Faults>,
) -> pstar_net::NetReport {
    sim.lengths = spec.lengths;
    sim.scenario = spec.scenario;
    let (scheme, mix) = (spec.build_scheme(topo), spec.mix(topo));
    let cfg = NetConfig {
        workers,
        ..NetConfig::new(sim)
    };
    match faults {
        Some((plan, policy)) => run_net_with_faults(topo, scheme, mix, cfg, plan, policy),
        None => run_net(topo, scheme, mix, cfg),
    }
    .expect("the runtime failed")
}

/// Field-for-field serial-vs-sharded comparison; everything is
/// required to match exactly.
pub fn assert_reports_match(serial: &SimReport, sharded: &SimReport, label: &str) {
    assert_eq!(serial.stable, sharded.stable, "{label}: stable");
    assert_eq!(serial.completed, sharded.completed, "{label}: completed");
    assert_eq!(serial.slots_run, sharded.slots_run, "{label}: slots_run");
    assert_eq!(
        serial.measured_broadcasts, sharded.measured_broadcasts,
        "{label}: measured_broadcasts"
    );
    assert_eq!(
        serial.measured_unicasts, sharded.measured_unicasts,
        "{label}: measured_unicasts"
    );
    // Reception/task delay statistics live in the coordinator and are
    // pushed in serial order: bit-exact, variance included.
    assert_eq!(
        serial.reception_delay, sharded.reception_delay,
        "{label}: reception_delay"
    );
    assert_eq!(
        serial.reception_quantiles, sharded.reception_quantiles,
        "{label}: reception_quantiles"
    );
    assert_eq!(
        serial.reception_ci_batch, sharded.reception_ci_batch,
        "{label}: reception_ci_batch"
    );
    assert_eq!(
        serial.broadcast_delay, sharded.broadcast_delay,
        "{label}: broadcast_delay"
    );
    assert_eq!(
        serial.unicast_delay, sharded.unicast_delay,
        "{label}: unicast_delay"
    );
    assert_eq!(
        serial.dropped_packets, sharded.dropped_packets,
        "{label}: dropped_packets"
    );
    assert_eq!(
        serial.lost_receptions, sharded.lost_receptions,
        "{label}: lost_receptions"
    );
    assert_eq!(
        serial.damaged_broadcasts, sharded.damaged_broadcasts,
        "{label}: damaged_broadcasts"
    );
    assert_eq!(
        serial.dropped_unicasts, sharded.dropped_unicasts,
        "{label}: dropped_unicasts"
    );
    // Utilizations come from integer busy-slot counters in both engines,
    // reduced in the same order: exact.
    assert_eq!(
        serial.mean_link_utilization, sharded.mean_link_utilization,
        "{label}: mean_link_utilization"
    );
    assert_eq!(
        serial.max_link_utilization, sharded.max_link_utilization,
        "{label}: max_link_utilization"
    );
    assert_eq!(
        serial.per_dim_utilization, sharded.per_dim_utilization,
        "{label}: per_dim_utilization"
    );
    assert_eq!(
        serial.avg_concurrent_broadcasts, sharded.avg_concurrent_broadcasts,
        "{label}: avg_concurrent_broadcasts"
    );
    assert_eq!(
        serial.avg_concurrent_unicasts, sharded.avg_concurrent_unicasts,
        "{label}: avg_concurrent_unicasts"
    );
    assert_eq!(
        serial.peak_queue_total, sharded.peak_queue_total,
        "{label}: peak_queue_total"
    );
    assert_eq!(
        serial.window_transmissions, sharded.window_transmissions,
        "{label}: window_transmissions"
    );
    assert_eq!(
        serial.vc_transmissions, sharded.vc_transmissions,
        "{label}: vc_transmissions"
    );
    assert_eq!(
        serial.queue_trace, sharded.queue_trace,
        "{label}: queue_trace"
    );
    assert_eq!(
        serial.delay_by_distance, sharded.delay_by_distance,
        "{label}: delay_by_distance"
    );
    // Per-class service stats: utilization from integer busy slots,
    // waits from exact integer moments — both merge order-free.
    assert_eq!(serial.class.len(), sharded.class.len(), "{label}: classes");
    for (k, (a, b)) in serial.class.iter().zip(&sharded.class).enumerate() {
        assert_eq!(
            a.utilization, b.utilization,
            "{label}: class {k} utilization"
        );
        assert_eq!(a.wait, b.wait, "{label}: class {k} wait");
    }
    // Resilience counters: all integer, all coordinator-side — exact.
    assert_eq!(
        serial.faults.events_applied, sharded.faults.events_applied,
        "{label}: events_applied"
    );
    assert_eq!(
        serial.faults.fault_dropped_packets, sharded.faults.fault_dropped_packets,
        "{label}: fault_dropped_packets"
    );
    assert_eq!(
        serial.faults.fault_damaged_broadcasts, sharded.faults.fault_damaged_broadcasts,
        "{label}: fault_damaged_broadcasts"
    );
    assert_eq!(
        serial.faults.fault_slots, sharded.faults.fault_slots,
        "{label}: fault_slots"
    );
    assert_eq!(
        serial.faults.delivered_reception_fraction, sharded.faults.delivered_reception_fraction,
        "{label}: delivered_reception_fraction"
    );
    assert_eq!(
        serial.faults.recovery_time, sharded.faults.recovery_time,
        "{label}: recovery_time"
    );
    assert_eq!(
        serial.faults.class_wait_fault, sharded.faults.class_wait_fault,
        "{label}: class_wait_fault"
    );
    // Flow accounting (exact integer occupancy sums) and tails digests
    // (integer bucket counters, merge-order free).
    assert_eq!(
        format!("{:?}", serial.flow),
        format!("{:?}", sharded.flow),
        "{label}: flow"
    );
    assert_eq!(
        format!("{:?}", serial.tails),
        format!("{:?}", sharded.tails),
        "{label}: tails"
    );
}

/// Exact count agreement between the simulator and the virtual-clock
/// runtime: the measured task set, every delivery/loss counter and the
/// fault counters. (Fault-*damaged* attribution is deliberately
/// excluded: whether a task's completing settlement is the ack or the
/// loss can swap under the runtime's one-slot control lag.)
pub fn assert_net_counts_match(sim: &SimReport, net: &SimReport, label: &str) {
    assert_eq!(
        sim.measured_broadcasts, net.measured_broadcasts,
        "{label}: measured task sets diverged — RNG mirror broken"
    );
    assert_eq!(
        sim.reception_delay.count, net.reception_delay.count,
        "{label}: delivered-reception counts diverged"
    );
    assert_eq!(
        sim.lost_receptions, net.lost_receptions,
        "{label}: lost-reception counts diverged"
    );
    assert_eq!(
        sim.dropped_packets, net.dropped_packets,
        "{label}: dropped-packet counts diverged"
    );
    assert_eq!(
        sim.damaged_broadcasts, net.damaged_broadcasts,
        "{label}: damaged-broadcast counts diverged"
    );
    assert_eq!(
        sim.faults.fault_dropped_packets, net.faults.fault_dropped_packets,
        "{label}: fault-drop counts diverged"
    );
    assert_eq!(
        sim.faults.events_applied, net.faults.events_applied,
        "{label}: applied fault events diverged"
    );
    assert_eq!(
        sim.faults.fault_slots, net.faults.fault_slots,
        "{label}: fault-slot counts diverged"
    );
}

/// One-call differential gate: runs `spec` — under `faults`, if given —
/// on the serial engine and on every listed backend, asserting each
/// backend's agreement contract against the serial reference
/// (full-report identity for sharded, exact counts for net).
///
/// Panics if a `NetVirtual` backend is listed for a spec with unicast
/// traffic: mixed workloads are outside the runtime's draw-for-draw
/// contract, and a gate that silently weakens itself is worse than one
/// that refuses.
pub fn cross_backend_agree(
    topo: &Torus,
    spec: &ScenarioSpec,
    cfg: SimConfig,
    faults: Option<&Faults>,
    backends: &[Backend],
    label: &str,
) -> SimReport {
    let serial = run_backend(topo, spec, cfg, Backend::Serial, faults.cloned());
    for &backend in backends {
        let sub = format!("{label} [{}]", backend.label());
        match backend {
            Backend::Serial => {}
            Backend::Sharded { .. } => {
                let rep = run_backend(topo, spec, cfg, backend, faults.cloned());
                assert_reports_match(&serial, &rep, &sub);
            }
            Backend::NetVirtual { .. } => {
                assert!(
                    spec.broadcast_load_fraction >= 1.0,
                    "{sub}: net exact-count agreement is contractual only for \
                     broadcast-only workloads (unicast forwarding draws are \
                     per-worker streams); use a broadcast-only projection"
                );
                let rep = run_backend(topo, spec, cfg, backend, faults.cloned());
                assert_net_counts_match(&serial, &rep, &sub);
            }
        }
    }
    serial
}

/// The scheme × ρ point set with its CRN seed index: every scheme at
/// the same ρ shares a seed, so paired comparisons subtract arrival
/// noise.
pub fn scheme_rho_grid(schemes: &[SchemeKind], rhos: &[f64]) -> Vec<(SchemeKind, f64, u64)> {
    let mut out = Vec::with_capacity(schemes.len() * rhos.len());
    for &scheme in schemes {
        for (ri, &rho) in rhos.iter().enumerate() {
            out.push((scheme, rho, crn_seed(ri)));
        }
    }
    out
}
