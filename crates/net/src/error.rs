//! Structured runtime errors and deterministic chaos injection.
//!
//! The runtime's failure contract: [`crate::run_net`] returns
//! `Result<NetReport, NetError>` and **never** lets a raw panic or a
//! deadlock escape. Config problems are rejected up front
//! ([`NetConfigError`]); a worker that panics mid-run — inside the
//! combiner of a rendezvous included — trips the shared poison flag so
//! its peers abort at their next barrier wait or blocked hand-over
//! ([`NetError::WorkerPanic`]); a worker that silently stops making
//! progress is converted into [`NetError::BarrierTimeout`] by the
//! supervisor's watchdog, with every worker's last known position
//! attached.
//!
//! [`ChaosConfig`] injects exactly these failures deterministically so
//! the whole teardown path is testable: the affected worker is chosen
//! from the chaos seed, and a given `(seed, workers)` pair always picks
//! the same victims.

use std::fmt;

/// A configuration the runtime cannot execute: the topology's link ids
/// are not node-contiguous, refused before any thread is spawned, or
/// every worker's clock refuses the scheme or the scenario before its
/// first slot. It is the clock's own [`pstar_sim::ConfigError`].
pub use pstar_sim::ConfigError as NetConfigError;

/// Where a worker was when its progress was last observed — the
/// per-worker context attached to [`NetError::BarrierTimeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPosition {
    /// Worker id.
    pub worker: u32,
    /// Slot the worker was executing.
    pub slot: u64,
    /// Phase within the slot, in the order a slot goes through them:
    /// 0 = loop top (on a run with a fault plan: the rendezvous deciding
    /// the previous slot, then the fault exchange), 1 = phase A (send:
    /// finish scan, injection, one hand-over per peer — a worker stuck
    /// here is waiting on a mailbox its peer stopped taking), 3 = the
    /// slot's rendezvous (waiting for the fleet, or — as its last
    /// arriver — deciding the previous slot), 2 = phase B (process),
    /// 4 = done.
    pub phase: u8,
}

impl fmt::Display for WorkerPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            0 => "loop-top",
            1 => "phase-a",
            2 => "phase-b",
            3 => "rendezvous",
            _ => "done",
        };
        write!(f, "worker {} @ slot {} ({phase})", self.worker, self.slot)
    }
}

/// A runtime execution failure. Every failure mode of the worker fleet
/// maps onto one of these — `run_net` never panics and never hangs.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Rejected before execution started.
    Config(NetConfigError),
    /// A worker thread panicked; its peers were poisoned and drained
    /// cleanly. Carries the first panic observed (others, if any, are
    /// secondary casualties of the teardown).
    WorkerPanic {
        /// The panicking worker's id.
        worker: u32,
        /// The panic payload, stringified.
        message: String,
    },
    /// No worker made progress for the watchdog interval — a hung
    /// barrier or a hand-over into a mailbox nobody takes. The
    /// supervisor poisoned the fleet, which releases every wait of the
    /// slot path, so the threads were still joined cleanly.
    BarrierTimeout {
        /// The watchdog interval that elapsed without progress.
        waited_ms: u64,
        /// Every worker's last observed position.
        workers: Vec<WorkerPosition>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid runtime config: {e}"),
            Self::WorkerPanic { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            Self::BarrierTimeout { waited_ms, workers } => {
                write!(f, "no worker progress for {waited_ms} ms; positions: ")?;
                for (i, w) in workers.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<NetConfigError> for NetError {
    fn from(e: NetConfigError) -> Self {
        Self::Config(e)
    }
}

/// Deterministic failure injection for testing the supervised-teardown
/// path. Inert by default; each armed fault targets one worker chosen
/// from [`ChaosConfig::seed`], so runs are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosConfig {
    /// Selects the victim worker of each armed fault (independently per
    /// fault kind, via a splitmix64 finalizer over `seed ^ kind`).
    pub seed: u64,
    /// Panic the chosen worker right after the rendezvous that decides
    /// this slot (the next slot's rendezvous; on a run with a fault
    /// plan, the decision rendezvous at the top of the next slot),
    /// whatever the verdict — exercises `catch_unwind` → poison → peer
    /// drain → [`NetError::WorkerPanic`]. The victim's peers have left
    /// the same rendezvous and abort at their next wait.
    pub panic_at_slot: Option<u64>,
    /// `(slot, millis)`: stall the chosen worker once, at the top of
    /// that slot. A stall below the watchdog interval must NOT fail the
    /// run — this arms the false-positive test of the watchdog.
    pub delay_at_slot: Option<(u64, u64)>,
    /// From this slot on, the chosen worker stops taking its peers'
    /// mailboxes (a "deaf" worker). A mailbox holds one batch and is
    /// never overwritten, so two slots later the peers' next put of the
    /// same parity waits, global progress stalls, and the watchdog must
    /// convert the hang into [`NetError::BarrierTimeout`].
    pub deaf_from_slot: Option<u64>,
}

/// splitmix64 finalizer (same constants as the injector seeding).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosConfig {
    /// `true` when nothing is armed (the hot loop pays one branch).
    pub fn is_inert(&self) -> bool {
        self.panic_at_slot.is_none()
            && self.delay_at_slot.is_none()
            && self.deaf_from_slot.is_none()
    }

    /// The victim worker of fault kind `kind` (0 = panic, 1 = delay,
    /// 2 = deaf) in a fleet of `workers`.
    pub(crate) fn victim(&self, kind: u64, workers: usize) -> usize {
        (splitmix64(self.seed ^ (kind + 1)) % workers as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_are_deterministic_and_in_range() {
        let c = ChaosConfig {
            seed: 42,
            ..Default::default()
        };
        for kind in 0..3 {
            for w in 1..9 {
                let v = c.victim(kind, w);
                assert!(v < w);
                assert_eq!(v, c.victim(kind, w), "deterministic");
            }
        }
        assert!(c.is_inert());
        assert!(!ChaosConfig {
            panic_at_slot: Some(5),
            ..Default::default()
        }
        .is_inert());
    }

    #[test]
    fn errors_render_context() {
        let e = NetError::BarrierTimeout {
            waited_ms: 500,
            workers: vec![
                WorkerPosition {
                    worker: 0,
                    slot: 10,
                    phase: 2,
                },
                WorkerPosition {
                    worker: 1,
                    slot: 9,
                    phase: 1,
                },
                WorkerPosition {
                    worker: 2,
                    slot: 10,
                    phase: 3,
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("500 ms"));
        assert!(s.contains("worker 0 @ slot 10 (phase-b)"));
        assert!(s.contains("worker 1 @ slot 9 (phase-a)"));
        assert!(s.contains("worker 2 @ slot 10 (rendezvous)"));
        let c: NetError = NetConfigError::LinksNotNodeContiguous.into();
        assert!(c.to_string().contains("node-contiguous"));
    }
}
