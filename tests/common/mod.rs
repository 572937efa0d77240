//! Shared cross-backend test harness.
//!
//! Every integration suite that compares engines goes through these
//! helpers so the comparison contract lives in exactly one place —
//! [`assert_reports_match`], which is `SimReport::first_difference`:
//! every field, no tolerance. All three drivers account through the
//! same ledger (`pstar_sim::TaskLedger` / `LinkCounters`), whose
//! statistics are exact integer sums that merge order-free, so
//!
//! * serial ≡ **sharded** at any shard and thread count, on everything
//!   the sharded engine accepts;
//! * serial ≡ **pstar-net** at any worker count, on every run — a
//!   transit unicast's tie coin comes from its node's stream, which no
//!   partition changes.
//!
//! [`Backend`] + [`run_backend`] + [`cross_backend_agree`] compose that
//! into a one-call differential gate over a backend list — under an
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
    /// The thread-per-core runtime (bit-identical to serial by contract).
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

/// The one comparison: `other` reports the run `serial` reports, every
/// field bit for bit.
pub fn assert_reports_match(serial: &SimReport, other: &SimReport, label: &str) {
    if let Some(difference) = serial.first_difference(other) {
        panic!("{label}: {difference}");
    }
}

/// One-call differential gate: runs `spec` — under `faults`, if given —
/// on the serial engine and on every listed backend, asserting
/// [`assert_reports_match`] against the serial reference.
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
        let rep = run_backend(topo, spec, cfg, backend, faults.cloned());
        assert_reports_match(&serial, &rep, &sub);
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
