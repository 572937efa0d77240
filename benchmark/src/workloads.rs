//! The four workloads. Each is one torus, scheme, load and traffic mix,
//! with two windows: the full one (ISSUE 11's slot counts) that the two
//! simulated metrics are measured over once per process, and the timed
//! one, a quarter of it, so that one three-arm round costs about a second
//! on a 2-core host and a run of `--seconds` holds a dozen rounds or
//! more. README.md says why each was chosen and which layer does most of
//! its work.

use priority_star::prelude::*;

/// Full-size runs are what the gated numbers come from; smoke runs (one
/// round at a twentieth of the full window) exist for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Full,
    Smoke,
}

/// Which of a workload's two windows a run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The three timed arms of every round: a quarter of the full window.
    Timed,
    /// The one serial run the simulated metrics come from: all of it.
    Simulated,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Smoke => "smoke",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub dims: &'static [u32],
    pub scheme: SchemeKind,
    pub rho: f64,
    /// Share of the offered load that is broadcast traffic.
    pub broadcast_share: f64,
    /// The full window, in slots.
    pub warmup_slots: u64,
    pub measure_slots: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bcast16_rho90",
        dims: &[16, 16],
        scheme: SchemeKind::PriorityStar,
        rho: 0.9,
        broadcast_share: 1.0,
        warmup_slots: 2_000,
        measure_slots: 20_000,
    },
    Workload {
        name: "mixed8x8x16_rho70",
        dims: &[8, 8, 16],
        scheme: SchemeKind::ThreeClass,
        rho: 0.7,
        broadcast_share: 0.5,
        warmup_slots: 1_000,
        measure_slots: 3_000,
    },
    Workload {
        name: "ucast16_rho30",
        dims: &[16, 16],
        scheme: SchemeKind::PriorityStar,
        rho: 0.3,
        broadcast_share: 0.0,
        warmup_slots: 2_000,
        measure_slots: 40_000,
    },
    Workload {
        name: "small4_rho90",
        dims: &[4, 4],
        scheme: SchemeKind::PriorityStar,
        rho: 0.9,
        broadcast_share: 1.0,
        warmup_slots: 5_000,
        measure_slots: 100_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn topo(&self) -> Torus {
        Torus::new(self.dims)
    }

    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            scheme: self.scheme,
            rho: self.rho,
            broadcast_load_fraction: self.broadcast_share,
            ..ScenarioSpec::default()
        }
    }

    /// The run configuration. `seed` reaches the program only here.
    pub fn sim_config(&self, seed: u64, mode: Mode, window: Window) -> SimConfig {
        let div = match (mode, window) {
            (Mode::Full, Window::Simulated) => 1,
            (Mode::Full, Window::Timed) => 4,
            (Mode::Smoke, _) => 20,
        };
        let warmup_slots = self.warmup_slots / div;
        let measure_slots = self.measure_slots / div;
        SimConfig {
            warmup_slots,
            measure_slots,
            // Drain is a few dozen slots on every workload; the horizon
            // only has to be out of the way.
            max_slots: warmup_slots + measure_slots + 200_000,
            seed,
            ..SimConfig::default()
        }
    }

    pub fn topology_label(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(u32::to_string).collect();
        dims.join("x")
    }

    pub fn has_broadcast(&self) -> bool {
        self.broadcast_share > 0.0
    }

    pub fn has_unicast(&self) -> bool {
        self.broadcast_share < 1.0
    }
}
