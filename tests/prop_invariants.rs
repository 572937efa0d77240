//! Property-based tests (proptest) over random torus shapes: the
//! combinatorial core of the paper must hold for *every* valid topology,
//! not just the simulated ones.

use priority_star::balance::predicted_dim_loads;
use priority_star::prelude::*;
use priority_star::{balance_broadcast_only, balance_mixed, star_dim_transmissions};
use proptest::prelude::*;

/// Random torus shapes: 1–4 dimensions of 2–7 nodes, capped at ~600
/// nodes so tree walks stay fast.
fn torus_strategy() -> impl Strategy<Value = Torus> {
    prop::collection::vec(2u32..=7, 1..=4)
        .prop_filter("node count bounded", |dims| {
            dims.iter().map(|&n| n as u64).product::<u64>() <= 600
        })
        .prop_map(|dims| Torus::new(&dims))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. (3): the per-dimension counts of Eq. (1) always sum to N − 1.
    #[test]
    fn eq1_counts_sum_to_n_minus_one(topo in torus_strategy(), l_seed in 0usize..16) {
        let l = l_seed % topo.d();
        let counts = star_dim_transmissions(&topo, l);
        prop_assert_eq!(
            counts.iter().sum::<u64>(),
            topo.node_count() as u64 - 1
        );
    }

    /// The STAR tree spans every node exactly once, from any source, for
    /// any ending dimension and either split orientation, and the
    /// simulated per-dimension transmission counts equal Eq. (1).
    #[test]
    fn star_tree_spans_with_eq1_counts(
        topo in torus_strategy(),
        src_seed in 0u32..10_000,
        l_seed in 0usize..16,
        flip in any::<bool>(),
    ) {
        let src = NodeId(src_seed % topo.node_count());
        let l = l_seed % topo.d();
        let tree = SpanningTree::build_with(&topo, src, l, flip);
        prop_assert_eq!(tree.transmissions_per_dim(), star_dim_transmissions(&topo, l));
        // Tree paths are shortest paths: depth == torus distance.
        for node in topo.coords().nodes() {
            prop_assert_eq!(tree.depth(node), topo.distance(src, node));
        }
    }

    /// The Eq. (2) raw solution always sums to 1 (the paper's guarantee),
    /// and whenever it is feasible the predicted per-link loads are equal
    /// across dimensions.
    #[test]
    fn eq2_solution_properties(topo in torus_strategy()) {
        let sol = balance_broadcast_only(&topo);
        let sum: f64 = sol.raw.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "raw sum {}", sum);
        prop_assert!((sol.x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(sol.x.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        if sol.feasible {
            let loads = &sol.predicted_dim_loads;
            let (min, max) = loads.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
            prop_assert!(max - min < 1e-6 * max.max(1.0), "{:?}", loads);
        }
    }

    /// Eq. (4) with any rate mix: solution is a probability vector; when
    /// feasible, combined per-link loads are equal and match the offered
    /// mean load.
    #[test]
    fn eq4_solution_properties(
        topo in torus_strategy(),
        rho in 0.05f64..0.95,
        frac in 0.05f64..1.0,
    ) {
        let rates = rates_for_rho(&topo, rho, frac);
        prop_assume!(rates.lambda_broadcast > 0.0);
        let sol = balance_mixed(&topo, rates.lambda_broadcast, rates.lambda_unicast, false);
        prop_assert!((sol.x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        if sol.feasible {
            let loads = predicted_dim_loads(
                &topo,
                &sol.x,
                rates.lambda_broadcast,
                rates.lambda_unicast,
            );
            for &l in &loads {
                prop_assert!((l - rho).abs() < 1e-6, "load {} vs rho {}", l, rho);
            }
        }
    }

    /// Unicast next-hop always strictly decreases the distance to the
    /// destination (so paths are shortest and loop-free), regardless of
    /// RNG tie-breaks.
    #[test]
    fn unicast_hops_strictly_decrease_distance(
        topo in torus_strategy(),
        a_seed in 0u32..10_000,
        b_seed in 0u32..10_000,
        seed in any::<u64>(),
    ) {
        let a = NodeId(a_seed % topo.node_count());
        let b = NodeId(b_seed % topo.node_count());
        prop_assume!(a != b);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let mut cur = a;
        while cur != b {
            let before = topo.distance(cur, b);
            let (dim, dir) = priority_star::unicast::next_hop(&topo, cur, b, &mut rng);
            cur = topo.neighbor(cur, dim, dir);
            prop_assert_eq!(topo.distance(cur, b), before - 1);
        }
    }

    /// Reciprocal-multiply digit extraction equals `(id / stride) % n` on
    /// any radix vector whose node count fits a `u32` — radices from 2 to
    /// past 2¹⁶, ids anywhere in the range — and a hop each way returns.
    #[test]
    fn coordinate_digits_match_hardware_division(
        raw in prop::collection::vec(any::<u32>(), 1..=8),
        scale in 0usize..4,
        id_seed in any::<u32>(),
    ) {
        // The longest prefix of the drawn radices that still fits.
        let mut dims = Vec::new();
        let mut nodes = 1u64;
        for r in raw {
            let n = 2 + r % [7, 63, 1_023, 70_000][scale];
            if nodes * n as u64 > u32::MAX as u64 {
                break;
            }
            nodes *= n as u64;
            dims.push(n);
        }
        let c = pstar_topology::Coordinates::new(&dims);
        let id = NodeId((id_seed as u64 % nodes) as u32);
        let mut stride = 1u32;
        for (dim, &n) in dims.iter().enumerate() {
            prop_assert_eq!(c.digit(id, dim), (id.0 / stride) % n);
            for forward in [true, false] {
                let there = c.step(id, dim, forward);
                let moved = (c.digit(id, dim) + if forward { 1 } else { n - 1 }) % n;
                prop_assert_eq!(c.with_digit(id, dim, moved), there);
                prop_assert_eq!(c.step(there, dim, !forward), id);
            }
            stride *= n;
        }
    }

    /// The throughput-factor ↔ rates mapping round-trips for any mix.
    #[test]
    fn rates_roundtrip(topo in torus_strategy(), rho in 0.01f64..1.5, frac in 0.0f64..1.0) {
        let rates = rates_for_rho(&topo, rho, frac);
        let back = throughput_factor(&topo, rates);
        prop_assert!((back - rho).abs() < 1e-9);
    }

    /// A short simulation at moderate load completes with exactly-once
    /// delivery on any topology (end-to-end engine × scheme fuzz).
    #[test]
    fn short_sim_delivers_exactly_once(topo in torus_strategy(), seed in any::<u64>()) {
        let spec = ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho: 0.4,
            ..Default::default()
        };
        let mut cfg = SimConfig::quick(seed);
        cfg.warmup_slots = 200;
        cfg.measure_slots = 800;
        let rep = run_scenario(&topo, &spec, cfg);
        prop_assert!(rep.ok());
        prop_assert_eq!(
            rep.reception_delay.count,
            rep.measured_broadcasts * (topo.node_count() as u64 - 1)
        );
    }

    /// Every scheme kind runs panic-free at a benign load on any topology
    /// (including dimension-ordered, whose 2/d cap exceeds ρ = 0.15 for
    /// all d ≤ 4) and never violates the exactly-once property.
    #[test]
    fn every_scheme_fuzzes_clean(
        topo in torus_strategy(),
        kind_idx in 0usize..5,
        frac_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let kind = SchemeKind::all()[kind_idx];
        let frac = [1.0, 0.5, 0.0][frac_idx];
        let spec = ScenarioSpec {
            scheme: kind,
            rho: 0.15,
            broadcast_load_fraction: frac,
            ..Default::default()
        };
        let mut cfg = SimConfig::quick(seed);
        cfg.warmup_slots = 100;
        cfg.measure_slots = 600;
        let rep = run_scenario(&topo, &spec, cfg);
        prop_assert!(rep.ok(), "{} frac={} on {}", kind.label(), frac, topo);
        prop_assert_eq!(
            rep.reception_delay.count,
            rep.measured_broadcasts * (topo.node_count() as u64 - 1)
        );
        prop_assert_eq!(rep.unicast_delay.count, rep.measured_unicasts);
    }

    /// Trace replay is deterministic and bit-identical across repeats on
    /// any topology.
    #[test]
    fn trace_replay_fuzz_deterministic(topo in torus_strategy(), seed in any::<u64>()) {
        use pstar_traffic::{Trace, TrafficMix};
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let trace = Trace::synthesize(
            &mut rng,
            topo.node_count(),
            TrafficMix::mixed(0.002, 0.01),
            WorkloadSpec::Fixed(1),
            1_000,
        );
        let mut cfg = SimConfig::quick(seed ^ 1);
        cfg.warmup_slots = 0;
        cfg.measure_slots = 1_000;
        let a = pstar_sim::run_trace(&topo, StarScheme::priority_star(&topo), &trace, cfg);
        let b = pstar_sim::run_trace(&topo, StarScheme::priority_star(&topo), &trace, cfg);
        prop_assert!(a.completed);
        prop_assert_eq!(a.reception_delay.mean, b.reception_delay.mean);
        prop_assert_eq!(a.window_transmissions, b.window_transmissions);
    }

    /// Open meshes: broadcast reaches every node exactly once and unicast
    /// follows shortest paths, for random shapes, sources and ending
    /// dimensions.
    #[test]
    fn mesh_broadcast_and_unicast_invariants(
        dims in prop::collection::vec(2u32..=6, 1..=3),
        src_seed in 0u32..10_000,
        l_seed in 0usize..8,
        seed in any::<u64>(),
    ) {
        prop_assume!(dims.iter().map(|&n| n as u64).product::<u64>() <= 300);
        let mesh = pstar_topology::Mesh::new(&dims);
        let l = l_seed % mesh.d();
        let src = NodeId(src_seed % mesh.node_count());
        let scheme = MeshStarScheme::new(
            mesh.clone(),
            EndingDimDistribution::degenerate(mesh.d(), l),
            Discipline::PriorityStar,
        );
        let mut engine = pstar_sim::Engine::new(
            mesh.clone(),
            scheme.clone(),
            pstar_traffic::TrafficMix::broadcast_only(0.0),
            SimConfig::quick(seed),
        );
        engine.inject_broadcast(src);
        engine.run_until_idle();
        // Exactly N − 1 transmissions == exactly-once coverage.
        let total: u64 = engine.transmissions_per_dim().iter().sum();
        prop_assert_eq!(total, mesh.node_count() as u64 - 1);

        // A random unicast arrives in exactly distance slots at zero load.
        let dest = NodeId((src_seed.wrapping_mul(31) + 7) % mesh.node_count());
        if dest != src {
            let mut engine = pstar_sim::Engine::new(
                mesh.clone(),
                scheme,
                pstar_traffic::TrafficMix::broadcast_only(0.0),
                SimConfig::quick(seed ^ 1),
            );
            engine.inject_unicast(src, dest);
            let slots = engine.run_until_idle();
            prop_assert_eq!(slots, mesh.distance(src, dest) as u64 + 1);
        }
    }

    /// A fault-free [`pstar_sim::FaultPlan`] is free scaffolding: the
    /// report is *bit-identical* to a run without any plan, for every
    /// scheme, topology and seed (the engine keeps its fast path and the
    /// fault machinery never touches the traffic RNG stream).
    #[test]
    fn fault_free_plan_reproduces_baseline_exactly(
        topo in torus_strategy(),
        kind_idx in 0usize..5,
        seed in any::<u64>(),
    ) {
        let kind = SchemeKind::all()[kind_idx];
        let spec = ScenarioSpec {
            scheme: kind,
            rho: 0.15,
            broadcast_load_fraction: 0.7,
            ..Default::default()
        };
        let mut cfg = SimConfig::quick(seed);
        cfg.warmup_slots = 100;
        cfg.measure_slots = 500;
        let mix = spec.mix(&topo);
        let base = pstar_sim::run(&topo, spec.build_scheme(&topo), mix, cfg);
        let faulted = pstar_sim::run_with_faults(
            &topo,
            spec.build_scheme(&topo),
            mix,
            cfg,
            pstar_sim::FaultPlan::none(),
            pstar_sim::DeadLinkPolicy::Drop,
        );
        prop_assert_eq!(base.reception_delay.mean, faulted.reception_delay.mean);
        prop_assert_eq!(base.broadcast_delay.mean, faulted.broadcast_delay.mean);
        prop_assert_eq!(base.unicast_delay.mean, faulted.unicast_delay.mean);
        prop_assert_eq!(base.window_transmissions, faulted.window_transmissions);
        prop_assert_eq!(base.peak_queue_total, faulted.peak_queue_total);
        prop_assert_eq!(base.vc_transmissions, faulted.vc_transmissions);
        prop_assert_eq!(faulted.faults.events_applied, 0);
        prop_assert_eq!(faulted.faults.delivered_reception_fraction, 1.0);
    }

    /// Under a scripted mid-run outage with the drop policy, goodput
    /// accounting stays exact on any topology: every measured reception
    /// is either delivered or counted lost, and the delivered fraction
    /// is a genuine fraction.
    #[test]
    fn fault_drop_accounting_is_conserved(
        topo in torus_strategy(),
        seed in any::<u64>(),
        eighths in 1usize..4,
    ) {
        let links = pstar_sim::shuffled_links(topo.link_count(), seed ^ 0xF00D);
        let dead = &links[..(links.len() * eighths / 8).max(1)];
        let plan = pstar_sim::FaultPlan::link_outage_window(dead, 200, 400);
        let spec = ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho: 0.2,
            ..Default::default()
        };
        let mut cfg = SimConfig::quick(seed);
        cfg.warmup_slots = 100;
        cfg.measure_slots = 500;
        let rep = pstar_sim::run_with_faults(
            &topo,
            StarScheme::priority_star(&topo),
            spec.mix(&topo),
            cfg,
            plan,
            pstar_sim::DeadLinkPolicy::Drop,
        );
        prop_assert!(rep.completed, "{} on {}", rep, topo);
        prop_assert_eq!(
            rep.reception_delay.count + rep.lost_receptions,
            rep.measured_broadcasts * (topo.node_count() as u64 - 1)
        );
        let frac = rep.faults.delivered_reception_fraction;
        prop_assert!((0.0..=1.0).contains(&frac), "fraction {}", frac);
        prop_assert_eq!(rep.faults.events_applied, 2 * dead.len() as u64);
    }

    /// ARQ completeness: with an unbounded retry budget and a *transient*
    /// fault plan (every failure repaired — the guarantee's
    /// precondition, checked via `FaultPlan::is_transient`), every
    /// measured reception is eventually delivered exactly once, on any
    /// topology, for any outage size and seed.
    #[test]
    fn arq_eventually_delivers_exactly_once_under_transient_faults(
        topo in torus_strategy(),
        seed in any::<u64>(),
        eighths in 1usize..4,
    ) {
        let links = pstar_sim::shuffled_links(topo.link_count(), seed ^ 0xF00D);
        let dead = &links[..(links.len() * eighths / 8).max(1)];
        let plan = pstar_sim::FaultPlan::link_outage_window(dead, 200, 400);
        prop_assert!(plan.is_transient());
        let spec = ScenarioSpec {
            scheme: SchemeKind::PriorityStar,
            rho: 0.2,
            ..Default::default()
        };
        let mut cfg = SimConfig::quick(seed);
        cfg.warmup_slots = 100;
        cfg.measure_slots = 500;
        cfg.arq = Some(pstar_sim::ArqConfig {
            base_timeout: 8,
            max_backoff_exp: 4,
            jitter: 3,
            max_retries: None,
        });
        let rep = pstar_sim::run_with_faults(
            &topo,
            StarScheme::priority_star(&topo),
            spec.mix(&topo),
            cfg,
            plan,
            pstar_sim::DeadLinkPolicy::Drop,
        );
        prop_assert!(rep.completed, "{} on {}", rep, topo);
        // Nothing lost, nothing duplicated: the delivered count equals
        // the offered count exactly.
        prop_assert_eq!(rep.lost_receptions, 0);
        prop_assert_eq!(
            rep.reception_delay.count,
            rep.measured_broadcasts * (topo.node_count() as u64 - 1)
        );
        prop_assert_eq!(rep.faults.delivered_reception_fraction, 1.0);
        prop_assert_eq!(rep.recovery.gave_up_receptions, 0);
        prop_assert_eq!(rep.recovery.pending_at_end, 0);
    }

    /// Zero-overhead guard: an installed-but-idle recovery layer (ARQ
    /// armed, no faults, infinite queues) is slot-for-slot identical to
    /// the recovery-free engine, for every scheme, topology and seed.
    #[test]
    fn idle_recovery_layer_is_bit_identical(
        topo in torus_strategy(),
        kind_idx in 0usize..5,
        seed in any::<u64>(),
    ) {
        let kind = SchemeKind::all()[kind_idx];
        let spec = ScenarioSpec {
            scheme: kind,
            rho: 0.15,
            broadcast_load_fraction: 0.7,
            ..Default::default()
        };
        let mut cfg = SimConfig::quick(seed);
        cfg.warmup_slots = 100;
        cfg.measure_slots = 500;
        let mix = spec.mix(&topo);
        let base = pstar_sim::run(&topo, spec.build_scheme(&topo), mix, cfg);
        let mut armed_cfg = cfg;
        armed_cfg.arq = Some(pstar_sim::ArqConfig::default());
        let armed = pstar_sim::run(&topo, spec.build_scheme(&topo), mix, armed_cfg);
        prop_assert_eq!(base.reception_delay.mean, armed.reception_delay.mean);
        prop_assert_eq!(base.broadcast_delay.mean, armed.broadcast_delay.mean);
        prop_assert_eq!(base.unicast_delay.mean, armed.unicast_delay.mean);
        prop_assert_eq!(base.window_transmissions, armed.window_transmissions);
        prop_assert_eq!(base.peak_queue_total, armed.peak_queue_total);
        prop_assert_eq!(base.vc_transmissions, armed.vc_transmissions);
        prop_assert_eq!(armed.recovery.retransmissions, 0);
        prop_assert_eq!(armed.recovery.timeouts_scheduled, 0);
        prop_assert!(armed.recovery.enabled && !base.recovery.enabled);
    }

    /// Variable lengths: the offered utilization is preserved for any
    /// length law, because the runner rescales task rates by the mean.
    #[test]
    fn utilization_invariant_under_length_law(
        mean_len in 1u16..5,
        seed in any::<u64>(),
    ) {
        let topo = Torus::new(&[6, 6]);
        let spec = ScenarioSpec {
            scheme: SchemeKind::FcfsDirect,
            rho: 0.5,
            lengths: WorkloadSpec::Fixed(mean_len),
            ..Default::default()
        };
        let rep = run_scenario(&topo, &spec, SimConfig::quick(seed));
        prop_assert!(rep.ok());
        prop_assert!(
            (rep.mean_link_utilization - 0.5).abs() < 0.08,
            "len={} util={}", mean_len, rep.mean_link_utilization
        );
    }
}
