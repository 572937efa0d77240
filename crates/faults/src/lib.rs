//! # pstar-faults
//!
//! Deterministic fault injection for the Priority STAR simulator.
//!
//! A [`FaultPlan`] is a pre-generated, seed-driven schedule of link and
//! node failure/repair events. Plans are built either from stochastic
//! per-slot fail/repair probabilities (geometric up/down times, sampled
//! once at construction with the plan's own RNG) or from an explicit
//! scripted timeline for targeted scenarios. Because every event is fixed
//! before the simulation starts, fault injection never consumes the
//! engine's RNG stream: a run with an empty plan is bit-identical to a
//! run without fault support at all, and the same seed + plan always
//! reproduces the same report.
//!
//! At runtime a driver owns a [`FaultRuntime`], advances it each slot,
//! and reads the effective [`LivenessView`]: a link is dead when it was
//! forced down *or* either endpoint node is crashed. Routing schemes get
//! the same view through `Scheme::on_liveness_change` so they can
//! re-balance around the surviving links (degraded mode). A runtime is
//! `Clone` and a function of its plan and the slots it was advanced to
//! alone, so a backend with several workers gives each a replica of its
//! own instead of sending anyone a [`FaultDelta`].

#![warn(missing_docs)]

use pstar_topology::{LinkId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What happens to a fault event's subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The directed link stops transmitting.
    LinkDown(LinkId),
    /// The directed link is repaired.
    LinkUp(LinkId),
    /// The node crashes: every incident link (both directions) dies and
    /// the node stops generating traffic.
    NodeCrash(NodeId),
    /// The node comes back (links recover unless independently down).
    NodeRecover(NodeId),
}

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Slot at which the transition takes effect (applied before
    /// deliveries of that slot).
    pub slot: u64,
    /// The transition.
    pub kind: FaultKind,
}

/// How the engine treats packets bound for (or riding) a dead link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadLinkPolicy {
    /// Drop the packet and settle its task accounting (models a lossy
    /// interconnect; the default).
    #[default]
    Drop,
    /// Keep the packet queued (head of line for interrupted service)
    /// until the link is repaired (models lossless retry hardware).
    Requeue,
}

/// A deterministic schedule of fault events, sorted by slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Stochastic fault-process parameters: per-slot transition
/// probabilities of independent two-state (up/down) Markov chains, one
/// per link and one per node. Up/down durations are geometric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticFaultConfig {
    /// Per-slot probability an up link fails (0 disables link faults).
    pub link_fail_p: f64,
    /// Per-slot probability a down link is repaired.
    pub link_repair_p: f64,
    /// Per-slot probability an up node crashes (0 disables node faults).
    pub node_fail_p: f64,
    /// Per-slot probability a crashed node recovers.
    pub node_repair_p: f64,
    /// Seed of the plan's private RNG (independent of the engine seed).
    pub seed: u64,
}

impl Default for StochasticFaultConfig {
    fn default() -> Self {
        Self {
            link_fail_p: 0.0,
            link_repair_p: 0.01,
            node_fail_p: 0.0,
            node_repair_p: 0.01,
            seed: 0xFA17,
        }
    }
}

/// A geometric duration on {1, 2, …} with success probability `p`;
/// `None` when `p ≤ 0` (the transition never happens).
fn geometric(rng: &mut StdRng, p: f64) -> Option<u64> {
    if p <= 0.0 {
        return None;
    }
    if p >= 1.0 {
        return Some(1);
    }
    let u: f64 = rng.gen();
    // Inverse CDF; `1 - u` is in (0, 1] so the log is finite and < 0.
    Some(((1.0 - u).ln() / (1.0 - p).ln()).ceil().max(1.0) as u64)
}

impl FaultPlan {
    /// The empty plan (no faults; guaranteed zero simulation overhead).
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule, sorted by slot.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// A plan from an explicit timeline (sorted internally; ties keep
    /// their given order).
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.slot);
        Self { events }
    }

    /// A plan taking `links` down at `down_slot` and back up at
    /// `up_slot` — the workhorse of controlled outage experiments.
    pub fn link_outage_window(links: &[LinkId], down_slot: u64, up_slot: u64) -> Self {
        assert!(down_slot < up_slot, "outage window is empty");
        let mut events = Vec::with_capacity(2 * links.len());
        for &l in links {
            events.push(FaultEvent {
                slot: down_slot,
                kind: FaultKind::LinkDown(l),
            });
        }
        for &l in links {
            events.push(FaultEvent {
                slot: up_slot,
                kind: FaultKind::LinkUp(l),
            });
        }
        Self::scripted(events)
    }

    /// `true` when every fault in the plan is eventually repaired: each
    /// `LinkDown` is followed by a later `LinkUp` of the same link and
    /// each `NodeCrash` by a later `NodeRecover` of the same node.
    ///
    /// Transient plans are the precondition for the ARQ completeness
    /// guarantee (unbounded retries eventually deliver everything): a
    /// permanently dead link can starve retransmissions forever.
    pub fn is_transient(&self) -> bool {
        let mut down_links = std::collections::HashSet::new();
        let mut down_nodes = std::collections::HashSet::new();
        // Events are slot-sorted, so "later" is simply "after" — a
        // repair scheduled before (or tied with) the failure does not
        // clear it, because `scripted` keeps tie order and the engine
        // applies ties in sequence.
        for e in &self.events {
            match e.kind {
                FaultKind::LinkDown(l) => {
                    down_links.insert(l);
                }
                FaultKind::LinkUp(l) => {
                    down_links.remove(&l);
                }
                FaultKind::NodeCrash(n) => {
                    down_nodes.insert(n);
                }
                FaultKind::NodeRecover(n) => {
                    down_nodes.remove(&n);
                }
            }
        }
        down_links.is_empty() && down_nodes.is_empty()
    }

    /// A plan sampled from independent geometric up/down processes per
    /// link and node, covering `[0, horizon)`. Deterministic in
    /// `cfg.seed`; the engine RNG is never touched.
    pub fn stochastic(
        cfg: &StochasticFaultConfig,
        link_count: u32,
        node_count: u32,
        horizon: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut events = Vec::new();
        let chain = |fail_p: f64,
                     repair_p: f64,
                     count: u32,
                     rng: &mut StdRng,
                     down: &mut dyn FnMut(u32) -> FaultKind,
                     up: &mut dyn FnMut(u32) -> FaultKind,
                     events: &mut Vec<FaultEvent>| {
            if fail_p <= 0.0 {
                return;
            }
            for id in 0..count {
                let mut t = 0u64;
                while let Some(up_dur) = geometric(rng, fail_p) {
                    t = t.saturating_add(up_dur);
                    if t >= horizon {
                        break;
                    }
                    events.push(FaultEvent {
                        slot: t,
                        kind: down(id),
                    });
                    let down_dur = geometric(rng, repair_p).unwrap_or(u64::MAX);
                    t = t.saturating_add(down_dur);
                    if t >= horizon {
                        break;
                    }
                    events.push(FaultEvent {
                        slot: t,
                        kind: up(id),
                    });
                }
            }
        };
        chain(
            cfg.link_fail_p,
            cfg.link_repair_p,
            link_count,
            &mut rng,
            &mut |id| FaultKind::LinkDown(LinkId(id)),
            &mut |id| FaultKind::LinkUp(LinkId(id)),
            &mut events,
        );
        chain(
            cfg.node_fail_p,
            cfg.node_repair_p,
            node_count,
            &mut rng,
            &mut |id| FaultKind::NodeCrash(NodeId(id)),
            &mut |id| FaultKind::NodeRecover(NodeId(id)),
            &mut events,
        );
        Self::scripted(events)
    }
}

/// A deterministic shuffle of all link ids. Taking the first `k` ids of
/// the same seed yields *nested* fault sets as `k` grows — the property
/// the resilience sweep uses so higher fault rates strictly extend the
/// dead set (keeping delivered fractions monotone).
pub fn shuffled_links(link_count: u32, seed: u64) -> Vec<LinkId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<LinkId> = (0..link_count).map(LinkId).collect();
    // Fisher–Yates.
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    ids
}

/// The effective liveness of every link and node: what the engine masks
/// by and what schemes see in degraded mode. A link is dead when it was
/// forced down or either endpoint node is crashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessView {
    dead_links: Vec<bool>,
    dead_nodes: Vec<bool>,
    dead_link_count: u32,
    dead_node_count: u32,
}

impl LivenessView {
    /// A fully healthy view.
    pub fn healthy(link_count: u32, node_count: u32) -> Self {
        Self {
            dead_links: vec![false; link_count as usize],
            dead_nodes: vec![false; node_count as usize],
            dead_link_count: 0,
            dead_node_count: 0,
        }
    }

    /// `true` when the link can transmit.
    #[inline]
    pub fn link_alive(&self, link: LinkId) -> bool {
        !self.dead_links[link.index()]
    }

    /// `true` when the node is up.
    #[inline]
    pub fn node_alive(&self, node: NodeId) -> bool {
        !self.dead_nodes[node.0 as usize]
    }

    /// `true` when anything is currently dead.
    #[inline]
    pub fn any_faults(&self) -> bool {
        self.dead_link_count > 0 || self.dead_node_count > 0
    }

    /// Number of currently dead links (node crashes included).
    pub fn dead_link_count(&self) -> u32 {
        self.dead_link_count
    }

    /// Number of currently crashed nodes.
    pub fn dead_node_count(&self) -> u32 {
        self.dead_node_count
    }

    fn set_link(&mut self, link: usize, dead: bool) -> bool {
        if self.dead_links[link] == dead {
            return false;
        }
        self.dead_links[link] = dead;
        if dead {
            self.dead_link_count += 1;
        } else {
            self.dead_link_count -= 1;
        }
        true
    }

    fn set_node(&mut self, node: usize, dead: bool) -> bool {
        if self.dead_nodes[node] == dead {
            return false;
        }
        self.dead_nodes[node] = dead;
        if dead {
            self.dead_node_count += 1;
        } else {
            self.dead_node_count -= 1;
        }
        true
    }
}

/// What changed when the runtime advanced to a slot: every flip of
/// effective liveness, in the order the events made them. A link (or
/// node) flipped twice by one advance is on both of its lists — the
/// [`FaultRuntime::view`] says which state it ended in. Replicas of one
/// runtime that advance to the same event slots produce equal deltas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultDelta {
    /// Events that took effect.
    pub events_applied: u32,
    /// Links whose effective state flipped to dead.
    pub newly_dead: Vec<LinkId>,
    /// Links whose effective state flipped back to alive.
    pub repaired: Vec<LinkId>,
    /// Nodes whose state flipped to crashed.
    pub crashed: Vec<NodeId>,
    /// Nodes whose state flipped back to up.
    pub recovered: Vec<NodeId>,
}

impl FaultDelta {
    /// `true` when any effective liveness changed.
    pub fn changed(&self) -> bool {
        !self.newly_dead.is_empty()
            || !self.repaired.is_empty()
            || !self.crashed.is_empty()
            || !self.recovered.is_empty()
    }
}

/// Runtime cursor over a [`FaultPlan`]: tracks forced link states, node
/// states, and the composed effective [`LivenessView`].
#[derive(Debug, Clone)]
pub struct FaultRuntime {
    plan: FaultPlan,
    cursor: usize,
    forced_link_down: Vec<bool>,
    link_src: Vec<NodeId>,
    link_dst: Vec<NodeId>,
    view: LivenessView,
}

impl FaultRuntime {
    /// Builds the runtime from a plan and the link endpoint tables
    /// (dense `LinkId` order, as produced by
    /// `Network::link_source_table` / `Network::link_target_table`).
    pub fn new(
        plan: FaultPlan,
        link_src: Vec<NodeId>,
        link_dst: Vec<NodeId>,
        node_count: u32,
    ) -> Self {
        assert_eq!(link_src.len(), link_dst.len());
        let link_count = link_src.len() as u32;
        Self {
            plan,
            cursor: 0,
            forced_link_down: vec![false; link_count as usize],
            link_src,
            link_dst,
            view: LivenessView::healthy(link_count, node_count),
        }
    }

    /// The current effective liveness.
    pub fn view(&self) -> &LivenessView {
        &self.view
    }

    /// Slot of the next unapplied event.
    pub fn next_event_slot(&self) -> Option<u64> {
        self.plan.events.get(self.cursor).map(|e| e.slot)
    }

    /// `true` when no events remain and nothing is currently dead.
    pub fn finished(&self) -> bool {
        self.cursor >= self.plan.events.len() && !self.view.any_faults()
    }

    fn effective_dead(&self, link: usize) -> bool {
        self.forced_link_down[link]
            || !self.view.node_alive(self.link_src[link])
            || !self.view.node_alive(self.link_dst[link])
    }

    /// Applies every event scheduled at or before `slot`; returns the
    /// effective changes.
    pub fn advance_to(&mut self, slot: u64) -> FaultDelta {
        let mut delta = FaultDelta::default();
        while let Some(ev) = self.plan.events.get(self.cursor) {
            if ev.slot > slot {
                break;
            }
            let ev = *ev;
            self.cursor += 1;
            delta.events_applied += 1;
            match ev.kind {
                FaultKind::LinkDown(l) => {
                    self.forced_link_down[l.index()] = true;
                    self.refresh_link(l.index(), &mut delta);
                }
                FaultKind::LinkUp(l) => {
                    self.forced_link_down[l.index()] = false;
                    self.refresh_link(l.index(), &mut delta);
                }
                FaultKind::NodeCrash(n) => {
                    if self.view.set_node(n.0 as usize, true) {
                        delta.crashed.push(n);
                        self.refresh_node_links(n, &mut delta);
                    }
                }
                FaultKind::NodeRecover(n) => {
                    if self.view.set_node(n.0 as usize, false) {
                        delta.recovered.push(n);
                        self.refresh_node_links(n, &mut delta);
                    }
                }
            }
        }
        delta
    }

    fn refresh_link(&mut self, link: usize, delta: &mut FaultDelta) {
        let dead = self.effective_dead(link);
        if self.view.set_link(link, dead) {
            if dead {
                delta.newly_dead.push(LinkId(link as u32));
            } else {
                delta.repaired.push(LinkId(link as u32));
            }
        }
    }

    fn refresh_node_links(&mut self, node: NodeId, delta: &mut FaultDelta) {
        // Incident links are sparse in the dense table; a full scan is
        // fine because node events are rare (they cost O(L) only when
        // they actually happen).
        for link in 0..self.link_src.len() {
            if self.link_src[link] == node || self.link_dst[link] == node {
                self.refresh_link(link, delta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_plans_are_recognised() {
        assert!(FaultPlan::none().is_transient(), "vacuously transient");
        assert!(FaultPlan::link_outage_window(&[LinkId(0), LinkId(3)], 10, 20).is_transient());
        // A down without a later up is permanent.
        let permanent = FaultPlan::scripted(vec![FaultEvent {
            slot: 5,
            kind: FaultKind::LinkDown(LinkId(1)),
        }]);
        assert!(!permanent.is_transient());
        // An up *before* the down does not repair it.
        let wrong_order = FaultPlan::scripted(vec![
            FaultEvent {
                slot: 3,
                kind: FaultKind::LinkUp(LinkId(1)),
            },
            FaultEvent {
                slot: 5,
                kind: FaultKind::LinkDown(LinkId(1)),
            },
        ]);
        assert!(!wrong_order.is_transient());
        // Node crashes need a recover of the same node.
        let crash = FaultPlan::scripted(vec![
            FaultEvent {
                slot: 1,
                kind: FaultKind::NodeCrash(NodeId(2)),
            },
            FaultEvent {
                slot: 9,
                kind: FaultKind::NodeRecover(NodeId(3)),
            },
        ]);
        assert!(!crash.is_transient());
        let recovered = FaultPlan::scripted(vec![
            FaultEvent {
                slot: 1,
                kind: FaultKind::NodeCrash(NodeId(2)),
            },
            FaultEvent {
                slot: 9,
                kind: FaultKind::NodeRecover(NodeId(2)),
            },
        ]);
        assert!(recovered.is_transient());
    }

    fn ring4_tables() -> (Vec<NodeId>, Vec<NodeId>) {
        // 4-ring with 2 directed links per node: link 2i = i→i+1,
        // link 2i+1 = i→i−1 (mod 4).
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for i in 0u32..4 {
            src.push(NodeId(i));
            dst.push(NodeId((i + 1) % 4));
            src.push(NodeId(i));
            dst.push(NodeId((i + 3) % 4));
        }
        (src, dst)
    }

    #[test]
    fn scripted_plans_sort_and_apply_in_order() {
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                slot: 20,
                kind: FaultKind::LinkUp(LinkId(0)),
            },
            FaultEvent {
                slot: 10,
                kind: FaultKind::LinkDown(LinkId(0)),
            },
        ]);
        assert_eq!(plan.events()[0].slot, 10);
        let (src, dst) = ring4_tables();
        let mut rt = FaultRuntime::new(plan, src, dst, 4);
        assert!(rt.view().link_alive(LinkId(0)));
        let d = rt.advance_to(10);
        assert_eq!(d.newly_dead, vec![LinkId(0)]);
        assert!(!rt.view().link_alive(LinkId(0)));
        let d = rt.advance_to(20);
        assert_eq!(d.repaired, vec![LinkId(0)]);
        assert!(rt.view().link_alive(LinkId(0)));
        assert!(rt.finished());
    }

    #[test]
    fn node_crash_kills_incident_links_and_recovers() {
        let (src, dst) = ring4_tables();
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                slot: 5,
                kind: FaultKind::NodeCrash(NodeId(1)),
            },
            FaultEvent {
                slot: 9,
                kind: FaultKind::NodeRecover(NodeId(1)),
            },
        ]);
        let mut rt = FaultRuntime::new(plan, src.clone(), dst.clone(), 4);
        let d = rt.advance_to(5);
        // Node 1's own 2 outgoing links plus the 2 links into it.
        assert_eq!(d.newly_dead.len(), 4);
        assert!(!rt.view().node_alive(NodeId(1)));
        assert_eq!(rt.view().dead_link_count(), 4);
        for l in 0..src.len() {
            let touches = src[l] == NodeId(1) || dst[l] == NodeId(1);
            assert_eq!(!rt.view().link_alive(LinkId(l as u32)), touches);
        }
        let d = rt.advance_to(9);
        assert_eq!(d.repaired.len(), 4);
        assert!(!rt.view().any_faults());
    }

    #[test]
    fn crash_does_not_mask_independent_link_fault() {
        let (src, dst) = ring4_tables();
        // Link 2 (node 1 → node 2) independently down; node 1 crashes and
        // recovers; link 2 must stay dead until its own repair.
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                slot: 1,
                kind: FaultKind::LinkDown(LinkId(2)),
            },
            FaultEvent {
                slot: 2,
                kind: FaultKind::NodeCrash(NodeId(1)),
            },
            FaultEvent {
                slot: 3,
                kind: FaultKind::NodeRecover(NodeId(1)),
            },
            FaultEvent {
                slot: 4,
                kind: FaultKind::LinkUp(LinkId(2)),
            },
        ]);
        let mut rt = FaultRuntime::new(plan, src, dst, 4);
        rt.advance_to(2);
        assert_eq!(rt.view().dead_link_count(), 4);
        rt.advance_to(3);
        assert!(!rt.view().link_alive(LinkId(2)), "own fault persists");
        assert_eq!(rt.view().dead_link_count(), 1);
        rt.advance_to(4);
        assert!(!rt.view().any_faults());
    }

    #[test]
    fn stochastic_plans_are_deterministic_and_alternate() {
        let cfg = StochasticFaultConfig {
            link_fail_p: 0.01,
            link_repair_p: 0.05,
            seed: 7,
            ..Default::default()
        };
        let a = FaultPlan::stochastic(&cfg, 16, 8, 5_000);
        let b = FaultPlan::stochastic(&cfg, 16, 8, 5_000);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "1% over 5000 slots × 16 links must fire");
        assert!(a.events().windows(2).all(|w| w[0].slot <= w[1].slot));
        // Per link, events strictly alternate Down, Up, Down, …
        for link in 0..16u32 {
            let seq: Vec<_> = a
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        FaultKind::LinkDown(LinkId(l)) | FaultKind::LinkUp(LinkId(l)) if l == link
                    )
                })
                .collect();
            for (i, e) in seq.iter().enumerate() {
                let expect_down = i % 2 == 0;
                assert_eq!(
                    matches!(e.kind, FaultKind::LinkDown(_)),
                    expect_down,
                    "link {link} event {i}"
                );
            }
        }
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        let cfg = StochasticFaultConfig::default();
        assert!(FaultPlan::stochastic(&cfg, 64, 16, 100_000).is_empty());
    }

    #[test]
    fn shuffled_links_nest_and_cover() {
        let a = shuffled_links(100, 9);
        let b = shuffled_links(100, 9);
        assert_eq!(a, b, "deterministic");
        let mut sorted: Vec<u32> = a.iter().map(|l| l.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "a permutation");
        assert_ne!(a[..10], shuffled_links(100, 10)[..10], "seed matters");
        // Nesting is by construction: first k of the same shuffle.
        assert_eq!(a[..5], a[..10][..5]);
    }

    #[test]
    fn deltas_report_node_flips() {
        let (src, dst) = ring4_tables();
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                slot: 0,
                kind: FaultKind::NodeCrash(NodeId(2)),
            },
            // A second crash of an already-dead node is not a flip.
            FaultEvent {
                slot: 1,
                kind: FaultKind::NodeCrash(NodeId(2)),
            },
            FaultEvent {
                slot: 2,
                kind: FaultKind::NodeRecover(NodeId(2)),
            },
        ]);
        let mut rt = FaultRuntime::new(plan, src, dst, 4);
        let d = rt.advance_to(0);
        assert_eq!(d.crashed, vec![NodeId(2)]);
        assert!(d.recovered.is_empty());
        let d = rt.advance_to(1);
        assert!(d.crashed.is_empty(), "no flip on repeated crash");
        assert!(!d.changed());
        let d = rt.advance_to(2);
        assert_eq!(d.recovered, vec![NodeId(2)]);
        assert!(d.changed());
    }

    #[test]
    fn outage_window_covers_given_links() {
        let links = vec![LinkId(3), LinkId(7)];
        let plan = FaultPlan::link_outage_window(&links, 100, 200);
        assert_eq!(plan.events().len(), 4);
        assert!(plan
            .events()
            .iter()
            .take(2)
            .all(|e| matches!(e.kind, FaultKind::LinkDown(_)) && e.slot == 100));
        assert!(plan
            .events()
            .iter()
            .skip(2)
            .all(|e| matches!(e.kind, FaultKind::LinkUp(_)) && e.slot == 200));
    }

    /// Random scripted timelines over the 4-ring: any mix of the four
    /// event kinds, repeats and same-slot ties included.
    fn scripted_events() -> impl proptest::strategy::Strategy<Value = Vec<FaultEvent>> {
        use proptest::prelude::*;
        prop::collection::vec((0u64..60, 0u8..4, 0u32..8), 0..40).prop_map(|raw| {
            raw.into_iter()
                .map(|(slot, kind, id)| FaultEvent {
                    slot,
                    kind: match kind {
                        0 => FaultKind::LinkDown(LinkId(id)),
                        1 => FaultKind::LinkUp(LinkId(id)),
                        2 => FaultKind::NodeCrash(NodeId(id % 4)),
                        _ => FaultKind::NodeRecover(NodeId(id % 4)),
                    },
                })
                .collect()
        })
    }

    /// What replicas rest on: a runtime is a function of its plan and
    /// of the event slots it was advanced to. One clone advances every
    /// slot, the other only where an event is due plus wherever `extra`
    /// says: at every event slot both yield the same delta and hold the
    /// same view, and in between nothing changes.
    fn assert_replicas_agree(plan: FaultPlan, extra: &[bool]) {
        let (src, dst) = ring4_tables();
        let mut every_slot = FaultRuntime::new(plan, src, dst, 4);
        let mut sparse = every_slot.clone();
        for slot in 0..extra.len() as u64 {
            let due = every_slot.next_event_slot().is_some_and(|s| s <= slot);
            let delta = every_slot.advance_to(slot);
            assert_eq!(delta.events_applied > 0, due, "slot {slot}");
            if due || extra[slot as usize] {
                assert_eq!(sparse.advance_to(slot), delta, "delta at slot {slot}");
            }
            assert_eq!(sparse.view(), every_slot.view(), "view at slot {slot}");
        }
        assert_eq!(
            every_slot.next_event_slot(),
            None,
            "events past the horizon"
        );
    }

    proptest::proptest! {
        #[test]
        fn replicas_of_a_scripted_plan_agree_whatever_slots_they_skip(
            events in scripted_events(),
            extra in proptest::collection::vec(proptest::prelude::any::<bool>(), 60..61),
        ) {
            assert_replicas_agree(FaultPlan::scripted(events), &extra);
        }

        #[test]
        fn replicas_of_a_stochastic_plan_agree_whatever_slots_they_skip(
            seed in 0u64..1_000_000,
            link_fail in 0u32..20,
            node_fail in 0u32..10,
            extra in proptest::collection::vec(proptest::prelude::any::<bool>(), 200..201),
        ) {
            let cfg = StochasticFaultConfig {
                link_fail_p: f64::from(link_fail) / 100.0,
                link_repair_p: 0.1,
                node_fail_p: f64::from(node_fail) / 100.0,
                node_repair_p: 0.2,
                seed,
            };
            assert_replicas_agree(FaultPlan::stochastic(&cfg, 8, 4, 200), &extra);
        }
    }
}
