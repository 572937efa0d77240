//! Plug-in [`Scheme`] implementations for every routing scheme the paper
//! evaluates.

use crate::balance::{balance_broadcast_only, balance_mixed};
use crate::discipline::{Discipline, TrafficClass};
use crate::distribution::EndingDimDistribution;
use crate::tree::{star_forward_each, star_forward_emits, star_initial_emits};
use crate::unicast;
use pstar_sim::{rotated_dim, BroadcastState, Emit, PacketKind, Scheme};
use pstar_topology::{NodeId, Torus};
use rand::rngs::StdRng;

/// How a scheme's rotation reacts when fault injection kills links or
/// nodes (see `pstar-faults`). Each of the paper's schemes degrades in a
/// way that preserves its identity: balanced rotations re-balance,
/// uniform rotations stay uniform (over what survives), and the
/// non-adaptive strawman does not react at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Re-solve the Eq. (2) balance over the surviving links, with a
    /// uniform-over-alive fallback when the system is singular — the
    /// default for every balanced scheme.
    #[default]
    Rebalance,
    /// Switch to a uniform rotation over the dimensions that still have
    /// live links (for schemes whose healthy rotation is uniform).
    UniformAlive,
    /// Keep the healthy rotation unchanged (non-adaptive baseline).
    Frozen,
}

/// The STAR scheme family: a rotated dimension-ordered broadcast tree with
/// a configurable ending-dimension distribution and priority discipline,
/// plus shortest-path e-cube unicast.
///
/// Every scheme in the paper's evaluation is an instance:
///
/// | constructor | rotation | discipline | paper role |
/// |---|---|---|---|
/// | [`StarScheme::priority_star`] | Eq. (2) balanced | 2-class | the contribution (§3.2) |
/// | [`StarScheme::priority_star_mixed`] | Eq. (4) balanced | 2-class | §4 heterogeneous |
/// | [`StarScheme::three_class_mixed`] | Eq. (4) balanced | 3-class | §4 refinement |
/// | [`StarScheme::fcfs_direct`] | uniform | FCFS | baseline: direct scheme of \[12\] |
/// | [`StarScheme::fcfs_balanced`] | Eq. (2) balanced | FCFS | STAR without priority |
/// | [`StarScheme::fcfs_balanced_mixed`] | Eq. (4) balanced | FCFS | balance-only ablation |
/// | [`StarScheme::dimension_ordered`] | degenerate | FCFS | §2 strawman (max ρ = 2/d) |
#[derive(Debug, Clone)]
pub struct StarScheme {
    topo: Torus,
    dist: EndingDimDistribution,
    discipline: Discipline,
    /// Replacement rotation while links are dead (degraded mode); `None`
    /// on the healthy path so fault-free behaviour is bit-identical.
    degraded: Option<EndingDimDistribution>,
    /// How the rotation reacts to faults.
    degraded_policy: DegradedPolicy,
}

impl StarScheme {
    /// Fully custom scheme.
    pub fn new(topo: Torus, dist: EndingDimDistribution, discipline: Discipline) -> Self {
        assert_eq!(dist.d(), topo.d(), "distribution arity mismatch");
        Self {
            topo,
            dist,
            discipline,
            degraded: None,
            degraded_policy: DegradedPolicy::Rebalance,
        }
    }

    /// Overrides how the rotation reacts to fault injection (the
    /// constructors pick the policy matching each scheme's identity).
    pub fn with_degraded_policy(mut self, policy: DegradedPolicy) -> Self {
        self.degraded_policy = policy;
        self
    }

    /// Priority STAR for broadcast-dominated traffic: Eq. (2) balanced
    /// rotation, ending-dimension transmissions demoted to low priority.
    pub fn priority_star(topo: &Torus) -> Self {
        let x = balance_broadcast_only(topo).x;
        Self::new(
            topo.clone(),
            EndingDimDistribution::from_probabilities(&x),
            Discipline::PriorityStar,
        )
    }

    /// Priority STAR for heterogeneous traffic (§4): Eq. (4) balanced
    /// rotation for the given rates; unicast rides in the high class.
    pub fn priority_star_mixed(topo: &Torus, lambda_broadcast: f64, lambda_unicast: f64) -> Self {
        let x = balance_mixed(topo, lambda_broadcast, lambda_unicast, false).x;
        Self::new(
            topo.clone(),
            EndingDimDistribution::from_probabilities(&x),
            Discipline::PriorityStar,
        )
    }

    /// §4's three-class refinement: trunk > unicast > ending dimension.
    pub fn three_class_mixed(topo: &Torus, lambda_broadcast: f64, lambda_unicast: f64) -> Self {
        let x = balance_mixed(topo, lambda_broadcast, lambda_unicast, false).x;
        Self::new(
            topo.clone(),
            EndingDimDistribution::from_probabilities(&x),
            Discipline::ThreeClass,
        )
    }

    /// The paper's baseline: FCFS generalization of the direct scheme of
    /// Stamoulis–Tsitsiklis \[12\] — uniform rotation, single FCFS class.
    pub fn fcfs_direct(topo: &Torus) -> Self {
        Self::new(
            topo.clone(),
            EndingDimDistribution::uniform(topo.d()),
            Discipline::Fcfs,
        )
        .with_degraded_policy(DegradedPolicy::UniformAlive)
    }

    /// STAR without priority: Eq. (2) balanced rotation, FCFS queues.
    /// Identical to [`StarScheme::fcfs_direct`] on symmetric tori.
    pub fn fcfs_balanced(topo: &Torus) -> Self {
        let x = balance_broadcast_only(topo).x;
        Self::new(
            topo.clone(),
            EndingDimDistribution::from_probabilities(&x),
            Discipline::Fcfs,
        )
    }

    /// Eq. (4) balanced rotation with FCFS queues: isolates the balance
    /// contribution from the priority contribution under mixed traffic.
    pub fn fcfs_balanced_mixed(topo: &Torus, lambda_broadcast: f64, lambda_unicast: f64) -> Self {
        let x = balance_mixed(topo, lambda_broadcast, lambda_unicast, false).x;
        Self::new(
            topo.clone(),
            EndingDimDistribution::from_probabilities(&x),
            Discipline::Fcfs,
        )
    }

    /// Classical dimension-ordered broadcast (no rotation; §2 notes its
    /// maximum throughput factor is only `2/d`).
    pub fn dimension_ordered(topo: &Torus) -> Self {
        let d = topo.d();
        Self::new(
            topo.clone(),
            EndingDimDistribution::degenerate(d, d - 1),
            Discipline::Fcfs,
        )
        .with_degraded_policy(DegradedPolicy::Frozen)
    }

    /// The policy governing the rotation's reaction to faults.
    pub fn degraded_policy(&self) -> DegradedPolicy {
        self.degraded_policy
    }

    /// The ending-dimension distribution in use (the healthy one even
    /// while degraded; see [`StarScheme::degraded_distribution`]).
    pub fn distribution(&self) -> &EndingDimDistribution {
        &self.dist
    }

    /// The degraded-mode replacement rotation, when faults are active.
    pub fn degraded_distribution(&self) -> Option<&EndingDimDistribution> {
        self.degraded.as_ref()
    }

    /// The rotation broadcasts sample from right now.
    fn active_distribution(&self) -> &EndingDimDistribution {
        self.degraded.as_ref().unwrap_or(&self.dist)
    }

    /// The priority discipline in use.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// The topology the scheme was built for.
    pub fn topology(&self) -> &Torus {
        &self.topo
    }
}

impl Scheme for StarScheme {
    fn num_priorities(&self) -> usize {
        self.discipline.num_classes()
    }

    fn on_broadcast_generated(&self, src: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>) {
        // `sample` draws exactly one variate whichever distribution is
        // active, so entering/leaving degraded mode never shifts the RNG
        // stream of subsequent tasks.
        let ending_dim = self.active_distribution().sample(rng);
        let flip = rand::Rng::gen::<bool>(rng);
        star_initial_emits(&self.topo, src, ending_dim, flip, self.discipline, out);
    }

    fn on_broadcast_arrival(&self, _node: NodeId, state: &BroadcastState, out: &mut Vec<Emit>) {
        star_forward_emits(&self.topo, state, self.discipline, out);
    }

    /// One tree walk, each forward handed over as it is built: the
    /// scratch is never touched.
    #[inline(always)]
    fn each_broadcast_forward(
        &self,
        _node: NodeId,
        state: &BroadcastState,
        _scratch: &mut Vec<Emit>,
        f: impl FnMut(Emit),
    ) {
        star_forward_each(&self.topo, state, self.discipline, f);
    }

    fn on_unicast_generated(
        &self,
        src: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    ) {
        self.unicast_emit(src, dest, rng, out);
    }

    fn on_unicast_arrival(
        &self,
        node: NodeId,
        dest: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<Emit>,
    ) {
        self.unicast_emit(node, dest, rng, out);
    }

    fn subtree_receptions(&self, state: &BroadcastState) -> u32 {
        // A copy still covers `hops_left` nodes of its ring segment, and
        // each of them initiates full ring broadcasts in every later
        // phase of the rotated order.
        let d = self.topo.d();
        let later_coverage: u64 = (state.phase as usize + 1..d)
            .map(|q| {
                self.topo
                    .dim_size(rotated_dim(state.ending_dim as usize, q, d)) as u64
            })
            .product();
        (state.hops_left as u64 * later_coverage) as u32
    }

    fn retransmit_priority(&self, _original: u8) -> u8 {
        // A recovered copy is the oldest outstanding work of its task:
        // serving it at the highest class bounds time-to-full-delivery
        // instead of letting it queue behind fresh ending-dimension
        // traffic. For the FCFS instances (one class) every packet is
        // already class 0, so this is the identity and the baselines'
        // recovery behaviour matches their healthy discipline exactly.
        0
    }

    fn on_liveness_change(&mut self, view: &pstar_faults::LivenessView) {
        self.degraded = if view.any_faults() {
            match self.degraded_policy {
                DegradedPolicy::Rebalance => {
                    Some(crate::degraded::degraded_distribution(&self.topo, view))
                }
                DegradedPolicy::UniformAlive => Some(crate::degraded::uniform_alive_distribution(
                    &self.topo, view,
                )),
                DegradedPolicy::Frozen => None,
            }
        } else {
            None
        };
    }
}

impl StarScheme {
    fn unicast_emit(&self, node: NodeId, dest: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>) {
        let (dim, dir) = unicast::next_hop(&self.topo, node, dest, rng);
        out.push(Emit {
            dim: dim as u8,
            dir,
            kind: PacketKind::Unicast { dest },
            priority: self.discipline.class_of(TrafficClass::Unicast),
            vc: 0,
        });
    }
}

/// `StarScheme` is plain immutable data once built, so one instance can be
/// shared by every worker thread of a parallel backend (`pstar-net`). This
/// assertion keeps that property from regressing silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StarScheme>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coefficients::star_dim_transmissions;
    use pstar_queueing::{lambda_broadcast_for_rho, rates_for_rho};
    use pstar_sim::{Engine, SimConfig};
    use pstar_traffic::TrafficMix;

    #[test]
    fn retransmissions_ride_the_highest_class() {
        let topo = Torus::new(&[4, 4]);
        let star = StarScheme::priority_star(&topo);
        // Priority STAR demotes ending-dimension copies to class 1; a
        // recovered copy is boosted back to class 0.
        assert_eq!(star.retransmit_priority(1), 0);
        assert_eq!(star.retransmit_priority(0), 0);
        // FCFS has a single class, so the boost is the identity and the
        // baseline discipline is preserved under recovery.
        let fcfs = StarScheme::fcfs_direct(&topo);
        assert_eq!(fcfs.num_priorities(), 1);
        assert_eq!(fcfs.retransmit_priority(0), 0);
    }

    #[test]
    fn injected_broadcast_matches_eq1_counts() {
        let topo = Torus::new(&[4, 4, 8]);
        for l in 0..topo.d() {
            let scheme = StarScheme::new(
                topo.clone(),
                EndingDimDistribution::degenerate(topo.d(), l),
                Discipline::PriorityStar,
            );
            let mut e = Engine::new(
                topo.clone(),
                scheme,
                TrafficMix::broadcast_only(0.0),
                SimConfig::quick(1),
            );
            e.inject_broadcast(NodeId(3));
            e.run_until_idle();
            assert_eq!(
                e.transmissions_per_dim(),
                &star_dim_transmissions(&topo, l)[..],
                "l={l}"
            );
        }
    }

    #[test]
    fn zero_load_reception_delay_is_avg_distance() {
        let topo = Torus::new(&[8, 8]);
        let scheme = StarScheme::priority_star(&topo);
        let mut e = Engine::new(
            topo.clone(),
            scheme,
            TrafficMix::broadcast_only(0.0),
            SimConfig::quick(2),
        );
        e.inject_broadcast(NodeId(0));
        let slots = e.run_until_idle();
        // Deepest leaf = diameter (8 hops), delivered at slot 8; the
        // drain loop needs one further step to observe the idle network.
        assert_eq!(slots, topo.diameter() as u64 + 1);
    }

    #[test]
    fn priority_star_beats_fcfs_at_high_load() {
        let topo = Torus::new(&[8, 8]);
        let lambda = lambda_broadcast_for_rho(&topo, 0.85);
        let cfg = SimConfig::quick(33);
        let fcfs = pstar_sim::run(
            &topo,
            StarScheme::fcfs_direct(&topo),
            TrafficMix::broadcast_only(lambda),
            cfg,
        );
        let pstar = pstar_sim::run(
            &topo,
            StarScheme::priority_star(&topo),
            TrafficMix::broadcast_only(lambda),
            cfg,
        );
        assert!(fcfs.ok(), "{fcfs}");
        assert!(pstar.ok(), "{pstar}");
        assert!(
            pstar.reception_delay.mean < fcfs.reception_delay.mean,
            "priority {} vs fcfs {}",
            pstar.reception_delay.mean,
            fcfs.reception_delay.mean
        );
    }

    #[test]
    fn trunk_class_waits_are_tiny() {
        let topo = Torus::new(&[8, 8]);
        let lambda = lambda_broadcast_for_rho(&topo, 0.85);
        let rep = pstar_sim::run(
            &topo,
            StarScheme::priority_star(&topo),
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(44),
        );
        assert!(rep.ok());
        // §3.2: ρ_H < 1/n ⇒ W_H = O(1/n): far below the low-class wait.
        assert!(
            rep.class[0].wait.mean < 0.5,
            "W_H = {}",
            rep.class[0].wait.mean
        );
        assert!(
            rep.class[1].wait.mean > 1.0,
            "W_L = {}",
            rep.class[1].wait.mean
        );
        // Load split: high class carries ~1/n of the traffic.
        assert!(rep.class[0].utilization < 0.2 * rep.class[1].utilization);
    }

    #[test]
    fn balanced_rotation_equalizes_dim_utilization_in_asymmetric_torus() {
        let topo = Torus::new(&[4, 8]);
        let lambda = lambda_broadcast_for_rho(&topo, 0.7);
        let balanced = pstar_sim::run(
            &topo,
            StarScheme::fcfs_balanced(&topo),
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(55),
        );
        assert!(balanced.ok());
        let u = &balanced.per_dim_utilization;
        assert!(
            (u[0] - u[1]).abs() < 0.05,
            "balanced rotation should equalize: {u:?}"
        );
        // Uniform rotation leaves the dimensions visibly unequal.
        let uniform = pstar_sim::run(
            &topo,
            StarScheme::fcfs_direct(&topo),
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(55),
        );
        let v = &uniform.per_dim_utilization;
        assert!((v[0] - v[1]).abs() > 0.1, "uniform should be skewed: {v:?}");
    }

    #[test]
    fn mixed_traffic_unicast_rides_high_class() {
        let topo = Torus::new(&[8, 8]);
        let rates = rates_for_rho(&topo, 0.8, 0.5);
        let scheme =
            StarScheme::priority_star_mixed(&topo, rates.lambda_broadcast, rates.lambda_unicast);
        let rep = pstar_sim::run(
            &topo,
            scheme,
            TrafficMix::mixed(rates.lambda_broadcast, rates.lambda_unicast),
            SimConfig::quick(66),
        );
        assert!(rep.ok(), "{rep}");
        // Unicast delay ≈ distance + small waits (O(d)), far from the
        // FCFS 1/(1−ρ) blowup.
        assert!(
            rep.unicast_delay.mean < topo.avg_distance() + 3.0,
            "unicast delay {}",
            rep.unicast_delay.mean
        );
    }

    #[test]
    fn dimension_ordered_saturates_early() {
        let topo = Torus::new(&[8, 8]);
        // ρ = 0.8 ≫ 2/d = 1: for d=2 the cap is 1.0... use a 3-D torus
        // where the cap is 2/3.
        let topo3 = Torus::new(&[4, 4, 4]);
        let lambda = lambda_broadcast_for_rho(&topo3, 0.85); // above 2/3 cap
        let mut cfg = SimConfig::quick(77);
        cfg.unstable_queue_per_link = 60.0;
        let rep = pstar_sim::run(
            &topo3,
            StarScheme::dimension_ordered(&topo3),
            TrafficMix::broadcast_only(lambda),
            cfg,
        );
        assert!(!rep.ok(), "dimension-ordered should be unstable at ρ=0.85");
        // Sanity: the rotated scheme handles the same load.
        let rep2 = pstar_sim::run(
            &topo3,
            StarScheme::priority_star(&topo3),
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(77),
        );
        assert!(rep2.ok());
        let _ = topo; // 2-D case documented above
    }

    #[test]
    fn three_class_orders_waits() {
        let topo = Torus::new(&[8, 8]);
        let rates = rates_for_rho(&topo, 0.85, 0.5);
        let scheme =
            StarScheme::three_class_mixed(&topo, rates.lambda_broadcast, rates.lambda_unicast);
        let rep = pstar_sim::run(
            &topo,
            scheme,
            TrafficMix::mixed(rates.lambda_broadcast, rates.lambda_unicast),
            SimConfig::quick(88),
        );
        assert!(rep.ok());
        assert!(rep.class[0].wait.mean <= rep.class[1].wait.mean + 0.1);
        assert!(rep.class[1].wait.mean < rep.class[2].wait.mean);
    }

    #[test]
    fn subtree_receptions_partition_the_torus() {
        // The source's initial emits must account for exactly N − 1
        // future receptions, for every topology and ending dimension.
        for topo in [
            Torus::new(&[5, 5]),
            Torus::new(&[4, 4, 8]),
            Torus::hypercube(5),
        ] {
            for l in 0..topo.d() {
                let scheme = StarScheme::new(
                    topo.clone(),
                    EndingDimDistribution::degenerate(topo.d(), l),
                    Discipline::Fcfs,
                );
                let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(1);
                let mut emits = Vec::new();
                scheme.on_broadcast_generated(NodeId(0), &mut rng, &mut emits);
                let total: u64 = emits
                    .iter()
                    .map(|e| match e.kind {
                        pstar_sim::PacketKind::Broadcast(st) => {
                            scheme.subtree_receptions(&st) as u64
                        }
                        _ => unreachable!(),
                    })
                    .sum();
                assert_eq!(total, topo.node_count() as u64 - 1, "{topo} l={l}");
            }
        }
    }

    #[test]
    fn finite_buffers_drop_only_past_saturation() {
        let topo = Torus::new(&[8, 8]);
        // Generous buffers at moderate load: no drops, same results as
        // the unbounded queue.
        let mut cfg = SimConfig::quick(7);
        cfg.queue_capacity = Some(200);
        let lambda = lambda_broadcast_for_rho(&topo, 0.7);
        let rep = pstar_sim::run(
            &topo,
            StarScheme::priority_star(&topo),
            TrafficMix::broadcast_only(lambda),
            cfg,
        );
        assert!(rep.ok());
        assert_eq!(rep.dropped_packets, 0);
        assert_eq!(rep.lost_receptions, 0);

        // Overload with small buffers: the run completes (drops bound the
        // queues) but loses a large fraction of receptions.
        let mut cfg = SimConfig::quick(7);
        cfg.queue_capacity = Some(4);
        let lambda = lambda_broadcast_for_rho(&topo, 1.4);
        let rep = pstar_sim::run(
            &topo,
            StarScheme::priority_star(&topo),
            TrafficMix::broadcast_only(lambda),
            cfg,
        );
        assert!(rep.completed, "{rep}");
        assert!(rep.dropped_packets > 0);
        assert!(rep.damaged_broadcasts > 0);
        // Conservation of receptions: delivered + lost = offered.
        assert_eq!(
            rep.reception_delay.count + rep.lost_receptions,
            rep.measured_broadcasts * (topo.node_count() as u64 - 1)
        );
    }

    #[test]
    fn degraded_policies_match_scheme_identities() {
        use pstar_faults::{FaultEvent, FaultKind, FaultPlan, FaultRuntime, LivenessView};
        use pstar_sim::Scheme as _;
        use pstar_topology::{LinkId, Network};

        let topo = Torus::new(&[4, 8]);
        let plan = FaultPlan::scripted(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::LinkDown(LinkId(0)),
        }]);
        let mut rt = FaultRuntime::new(
            plan,
            topo.link_source_table(),
            topo.link_target_table(),
            topo.node_count(),
        );
        rt.advance_to(0);
        let faulty = rt.view().clone();

        // Balanced scheme: re-solves Eq. (2), so the degraded rotation
        // differs from the healthy one.
        let mut pstar = StarScheme::priority_star(&topo);
        assert_eq!(pstar.degraded_policy(), DegradedPolicy::Rebalance);
        pstar.on_liveness_change(&faulty);
        let deg = pstar.degraded_distribution().expect("degraded installed");
        assert_ne!(deg.probabilities(), pstar.distribution().probabilities());

        // Uniform baseline: stays uniform (all dims still have live
        // links), merely restricted to alive dimensions.
        let mut fcfs = StarScheme::fcfs_direct(&topo);
        assert_eq!(fcfs.degraded_policy(), DegradedPolicy::UniformAlive);
        fcfs.on_liveness_change(&faulty);
        let deg = fcfs.degraded_distribution().expect("degraded installed");
        for &p in deg.probabilities() {
            assert!((p - 0.5).abs() < 1e-12, "{:?}", deg.probabilities());
        }

        // Strawman: does not adapt at all.
        let mut dimord = StarScheme::dimension_ordered(&topo);
        assert_eq!(dimord.degraded_policy(), DegradedPolicy::Frozen);
        dimord.on_liveness_change(&faulty);
        assert!(dimord.degraded_distribution().is_none());

        // Recovery clears the degraded rotation everywhere.
        let healthy = LivenessView::healthy(topo.link_count(), topo.node_count());
        pstar.on_liveness_change(&healthy);
        assert!(pstar.degraded_distribution().is_none());
    }

    #[test]
    fn hypercube_broadcast_works() {
        let topo = Torus::hypercube(6);
        let lambda = lambda_broadcast_for_rho(&topo, 0.8);
        let rep = pstar_sim::run(
            &topo,
            StarScheme::priority_star(&topo),
            TrafficMix::broadcast_only(lambda),
            SimConfig::quick(99),
        );
        assert!(rep.ok(), "{rep}");
        assert!((rep.mean_link_utilization - 0.8).abs() < 0.06);
    }

    /// Every broadcast state a STAR tree of `topo` reaches, from every
    /// source, ending dimension and split orientation.
    fn reachable_states(topo: &Torus) -> Vec<BroadcastState> {
        let scheme = StarScheme::fcfs_direct(topo);
        let mut out = Vec::new();
        for src in topo.coords().nodes() {
            for l in 0..topo.d() {
                for flip in [false, true] {
                    star_initial_emits(topo, src, l, flip, Discipline::Fcfs, &mut out);
                }
            }
        }
        let state = |e: &Emit| match e.kind {
            PacketKind::Broadcast(st) => st,
            PacketKind::Unicast { .. } => unreachable!("a tree emits broadcasts"),
        };
        let mut todo: Vec<BroadcastState> = out.iter().map(state).collect();
        let mut seen = std::collections::HashSet::new();
        while let Some(st) = todo.pop() {
            if seen.insert(st) {
                out.clear();
                scheme.on_broadcast_arrival(st.src, &st, &mut out);
                todo.extend(out.iter().map(state));
            }
        }
        seen.into_iter().collect()
    }

    /// The hop rule takes a delivery's forwards from
    /// `each_broadcast_forward`: for every reachable state, under every
    /// discipline, directly and through a shared reference (what
    /// `pstar-net` workers run), it hands over exactly the emits of
    /// `on_broadcast_arrival`, in the same order, and leaves the
    /// scratch alone.
    #[test]
    fn each_broadcast_forward_hands_over_the_arrival_emits_in_order() {
        for topo in [
            Torus::new(&[4, 4]),
            Torus::new(&[5, 5]),
            Torus::new(&[8, 8, 16]),
            Torus::hypercube(4),
        ] {
            let states = reachable_states(&topo);
            assert!(states.len() > topo.node_count() as usize, "{topo}");
            for discipline in [
                Discipline::Fcfs,
                Discipline::PriorityStar,
                Discipline::ThreeClass,
            ] {
                let scheme = StarScheme::new(
                    topo.clone(),
                    EndingDimDistribution::uniform(topo.d()),
                    discipline,
                );
                let (mut want, mut got, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
                for st in &states {
                    want.clear();
                    scheme.on_broadcast_arrival(st.src, st, &mut want);
                    got.clear();
                    scheme.each_broadcast_forward(st.src, st, &mut scratch, |e| got.push(e));
                    assert_eq!(got, want, "{topo} {discipline:?} {st:?}");
                    got.clear();
                    let shared = <&StarScheme as Scheme>::each_broadcast_forward;
                    shared(&&scheme, st.src, st, &mut scratch, |e| got.push(e));
                    assert_eq!(got, want, "{topo} {discipline:?} {st:?} through &S");
                }
                assert!(scratch.is_empty(), "the override writes no scratch");
            }
        }
    }

    /// A scheme that implements only the required methods: its forwards
    /// reach the hop rule through the provided, collecting
    /// `each_broadcast_forward`.
    struct Collecting(StarScheme);

    impl Scheme for Collecting {
        fn num_priorities(&self) -> usize {
            self.0.num_priorities()
        }

        fn on_broadcast_generated(&self, src: NodeId, rng: &mut StdRng, out: &mut Vec<Emit>) {
            self.0.on_broadcast_generated(src, rng, out);
        }

        fn on_broadcast_arrival(&self, node: NodeId, state: &BroadcastState, out: &mut Vec<Emit>) {
            self.0.on_broadcast_arrival(node, state, out);
        }

        fn on_unicast_generated(
            &self,
            src: NodeId,
            dest: NodeId,
            rng: &mut StdRng,
            out: &mut Vec<Emit>,
        ) {
            self.0.on_unicast_generated(src, dest, rng, out);
        }

        fn on_unicast_arrival(
            &self,
            node: NodeId,
            dest: NodeId,
            rng: &mut StdRng,
            out: &mut Vec<Emit>,
        ) {
            self.0.on_unicast_arrival(node, dest, rng, out);
        }

        fn subtree_receptions(&self, state: &BroadcastState) -> u32 {
            self.0.subtree_receptions(state)
        }
    }

    /// The default method delivers: a run of a scheme without the
    /// override is the run of the scheme with it, report for report.
    #[test]
    fn a_scheme_without_the_override_delivers_through_the_default() {
        let topo = Torus::new(&[5, 5]);
        let rates = rates_for_rho(&topo, 0.8, 0.7);
        let mix = TrafficMix::mixed(rates.lambda_broadcast, rates.lambda_unicast);
        let scheme =
            || StarScheme::priority_star_mixed(&topo, rates.lambda_broadcast, rates.lambda_unicast);
        let cfg = SimConfig::quick(12);
        let direct = pstar_sim::run(&topo, scheme(), mix, cfg);
        let collected = pstar_sim::run(&topo, Collecting(scheme()), mix, cfg);
        assert!(direct.ok() && direct.measured_broadcasts > 0, "{direct}");
        assert_eq!(direct.first_difference(&collected), None);
    }
}
