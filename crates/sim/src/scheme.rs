//! The routing-scheme extension point.

use crate::packet::{BroadcastState, Emit};
use pstar_faults::LivenessView;
use pstar_topology::NodeId;
use rand::rngs::StdRng;

/// A dynamic routing scheme: decides the initial transmissions of a new
/// task and the forwards triggered by each delivery.
///
/// Implementations live in the `priority-star` crate (priority STAR, the
/// FCFS direct baseline of Stamoulis–Tsitsiklis, dimension-ordered
/// broadcast, …). The engine owns all queueing, timing and metrics; a
/// scheme only translates *routing state* into [`Emit`]s.
///
/// Invariants the engine relies on (and the test-suite enforces for the
/// provided schemes):
///
/// * a broadcast task's emits, followed transitively, deliver the packet
///   to every node except the source **exactly once**;
/// * a unicast emit sequence reaches `dest` along a shortest path;
/// * every emitted priority is `< num_priorities()`.
pub trait Scheme {
    /// Number of priority classes used (1 = pure FCFS).
    fn num_priorities(&self) -> usize;

    /// Initial transmissions of a broadcast generated at `src`.
    fn on_broadcast_generated(&self, src: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>);

    /// Forwards triggered by the delivery of a broadcast copy at `node`.
    /// `state` is the copy's state *as it travelled the incoming link*
    /// (so `state.hops_left ≥ 1` counts `node` itself).
    fn on_broadcast_arrival(&self, node: NodeId, state: &BroadcastState, out: &mut Vec<Emit>);

    /// The forwards of [`Scheme::on_broadcast_arrival`], handed to `f` by
    /// value one by one, in the same order. The hop rule takes a
    /// delivery's forwards here, so a scheme that overrides it writes
    /// each forward once, straight into its queue node, instead of into
    /// a vector the hop rule reads back. The default collects into
    /// `scratch` (cleared first) and replays it.
    #[inline]
    fn each_broadcast_forward(
        &self,
        node: NodeId,
        state: &BroadcastState,
        scratch: &mut Vec<Emit>,
        mut f: impl FnMut(Emit),
    ) {
        scratch.clear();
        self.on_broadcast_arrival(node, state, scratch);
        for &emit in scratch.iter() {
            f(emit);
        }
    }

    /// Initial transmission(s) of a unicast from `src` to `dest ≠ src`.
    fn on_unicast_generated(
        &self,
        src: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    );

    /// Forward for a unicast delivered at intermediate `node ≠ dest`.
    fn on_unicast_arrival(&self, node: NodeId, dest: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>);

    /// Number of receptions an in-flight broadcast copy is still
    /// responsible for (itself plus its entire future subtree). Used by
    /// the finite-buffer mode to settle a task's completion accounting
    /// when a copy is dropped at a full queue.
    ///
    /// For tree-structured broadcasts this is the subtree leaf count; the
    /// copy's own pending receptions (`hops_left`) times the coverage of
    /// every later phase.
    fn subtree_receptions(&self, state: &BroadcastState) -> u32;

    /// Priority class a *retransmitted* copy rides in, given the class
    /// it was originally emitted at (ARQ recovery). The default keeps
    /// the original class, which preserves every baseline discipline
    /// exactly; priority schemes may boost recovery copies (they are
    /// the oldest outstanding work, so serving them first bounds
    /// time-to-full-delivery). Must return a class `< num_priorities()`.
    ///
    /// Called only when a retransmission is scheduled — never on the
    /// recovery-free path.
    fn retransmit_priority(&self, original: u8) -> u8 {
        original
    }

    /// Notification that the set of dead links/nodes changed (fault
    /// injection). Schemes may re-balance their routing around the
    /// surviving links (degraded mode); the default ignores faults.
    ///
    /// Called by the engine only when liveness actually changes, never on
    /// the fault-free path — so a scheme's healthy behaviour (including
    /// its RNG consumption) is untouched when no plan is installed.
    fn on_liveness_change(&mut self, _view: &LivenessView) {}
}

impl<S: Scheme> Scheme for &S {
    fn num_priorities(&self) -> usize {
        (**self).num_priorities()
    }

    fn on_broadcast_generated(&self, src: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>) {
        (**self).on_broadcast_generated(src, rng, out)
    }

    fn on_broadcast_arrival(&self, node: NodeId, state: &BroadcastState, out: &mut Vec<Emit>) {
        (**self).on_broadcast_arrival(node, state, out)
    }

    #[inline(always)]
    fn each_broadcast_forward(
        &self,
        node: NodeId,
        state: &BroadcastState,
        scratch: &mut Vec<Emit>,
        f: impl FnMut(Emit),
    ) {
        (**self).each_broadcast_forward(node, state, scratch, f)
    }

    fn on_unicast_generated(
        &self,
        src: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    ) {
        (**self).on_unicast_generated(src, dest, rng, out)
    }

    fn on_unicast_arrival(
        &self,
        node: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    ) {
        (**self).on_unicast_arrival(node, dest, rng, out)
    }

    fn subtree_receptions(&self, state: &BroadcastState) -> u32 {
        (**self).subtree_receptions(state)
    }

    fn retransmit_priority(&self, original: u8) -> u8 {
        (**self).retransmit_priority(original)
    }

    // `on_liveness_change` keeps its no-op default: a shared reference
    // cannot mutate the underlying scheme, so borrowed schemes simply
    // never enter degraded mode.
}
