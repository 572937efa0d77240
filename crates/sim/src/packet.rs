//! In-flight packet representation.

use pstar_topology::{Direction, Link, NodeId};

/// Maximum number of priority classes a scheme may use.
///
/// The paper needs at most three (high trunk / medium unicast / low
/// ending-dimension); a fourth is headroom for ablations.
pub const MAX_PRIORITY_CLASSES: usize = 4;

/// Routing state of a broadcast copy travelling inside one ring segment of
/// the rotated dimension-ordered (STAR/SDC) spanning tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BroadcastState {
    /// Source node of the broadcast task.
    pub src: NodeId,
    /// Ending dimension `l` chosen at generation time (0-based).
    pub ending_dim: u8,
    /// Position of the *current* travel dimension within the rotated
    /// order: phase `p` means the copy travels `order[p]` where
    /// `order[t] = (l + 1 + t) mod d`. The ending dimension is phase
    /// `d − 1`.
    pub phase: u8,
    /// Ring travel direction.
    pub dir: Direction,
    /// Number of nodes this copy must still cover in its ring segment,
    /// *including* the next node it will be delivered to. Always ≥ 1 while
    /// in flight.
    pub hops_left: u16,
    /// Per-task coin flip orienting the uneven ring split (even `n`):
    /// `true` sends the extra node the `+` way. Sampled once per task so
    /// that `+` and `−` links carry equal load over random sources.
    pub flip: bool,
}

impl BroadcastState {
    /// The dimension this copy is currently travelling in (0-based).
    #[inline(always)]
    pub fn current_dim(&self, d: usize) -> usize {
        rotated_dim(self.ending_dim as usize, self.phase as usize, d)
    }
}

/// The dimension travelled in phase `phase` of the rotated order of a
/// `d`-dimensional tree with ending dimension `ending_dim`:
/// `(l + 1 + p) mod d`. Both operands are `< d`, so the sum is `< 2d` and
/// the reduction is one compare and subtract — every broadcast arrival
/// takes it.
#[inline(always)]
pub fn rotated_dim(ending_dim: usize, phase: usize, d: usize) -> usize {
    debug_assert!(ending_dim < d && phase < d);
    let dim = ending_dim + 1 + phase;
    if dim >= d {
        dim - d
    } else {
        dim
    }
}

/// What kind of task a packet belongs to, with its routing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A copy of a broadcast task's packet.
    Broadcast(BroadcastState),
    /// A unicast packet heading to `dest`.
    Unicast {
        /// Final destination.
        dest: NodeId,
    },
}

/// A packet occupying a link queue or a link.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// Slot index into the engine's active-task slab.
    pub task: u32,
    /// Generation time of the task (slots).
    pub gen_time: u64,
    /// Time this packet was enqueued at its current link (for waiting-time
    /// statistics).
    pub enqueue_time: u64,
    /// Transmission time in slots (≥ 1).
    pub len: u16,
    /// Priority class, 0 = highest.
    pub priority: u8,
    /// Virtual channel (informational; see §3.1 of the paper).
    pub vc: u8,
    /// Retransmission attempt this copy is on (0 = the original
    /// transmission; only ever nonzero with ARQ recovery enabled).
    /// Forwards emitted after a successful delivery start back at 0.
    pub attempt: u8,
    /// Task kind and routing state.
    pub kind: PacketKind,
}

/// A transmission requested by a [`crate::Scheme`]: the engine resolves
/// `(dim, dir)` against the emitting node to find the link, stamps times
/// and enqueues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emit {
    /// Travel dimension (0-based).
    pub dim: u8,
    /// Travel direction.
    pub dir: Direction,
    /// Routing state the packet carries *while travelling this link*.
    pub kind: PacketKind,
    /// Priority class, 0 = highest; must be `< MAX_PRIORITY_CLASSES` and
    /// `< scheme.num_priorities()`.
    pub priority: u8,
    /// Virtual channel tag.
    pub vc: u8,
}

impl Emit {
    /// The directed link this transmission leaves node `from` on.
    #[inline]
    pub fn link_from(&self, from: NodeId) -> Link {
        Link {
            from,
            dim: self.dim,
            dir: self.dir,
        }
    }

    /// The packet this transmission offers its link at slot `now`: a
    /// first attempt of `len` slots for task `task`, generated at
    /// `gen_time`.
    #[inline]
    pub fn packet(&self, task: u32, gen_time: u64, len: u16, now: u64) -> Packet {
        Packet {
            task,
            gen_time,
            enqueue_time: now,
            len,
            priority: self.priority,
            vc: self.vc,
            attempt: 0,
            kind: self.kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_dim_rotates_from_ending_dim() {
        // d = 3, ending dim l = 1: order is (2, 0, 1).
        let mk = |phase| BroadcastState {
            src: NodeId(0),
            ending_dim: 1,
            phase,
            dir: Direction::Plus,
            hops_left: 1,
            flip: false,
        };
        assert_eq!(mk(0).current_dim(3), 2);
        assert_eq!(mk(1).current_dim(3), 0);
        assert_eq!(mk(2).current_dim(3), 1); // last phase = ending dim
    }

    #[test]
    fn rotated_dim_is_the_sum_mod_d() {
        for d in 1..=8 {
            for l in 0..d {
                for p in 0..d {
                    assert_eq!(rotated_dim(l, p, d), (l + 1 + p) % d, "d={d} l={l} p={p}");
                }
            }
        }
    }

    #[test]
    fn last_phase_is_always_ending_dim() {
        for d in 1..6u8 {
            for l in 0..d {
                let st = BroadcastState {
                    src: NodeId(0),
                    ending_dim: l,
                    phase: d - 1,
                    dir: Direction::Plus,
                    hops_left: 1,
                    flip: false,
                };
                assert_eq!(st.current_dim(d as usize), l as usize);
            }
        }
    }

    #[test]
    fn packet_is_small() {
        // The hot queues hold millions of these; keep them compact.
        assert!(std::mem::size_of::<Packet>() <= 48);
    }
}
