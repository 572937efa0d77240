//! Embarrassingly parallel sweep execution and shared arm construction.

use priority_star::{ScenarioSpec, SchemeKind};
use pstar_sim::FaultPlan;
use pstar_topology::LinkId;

/// Maps `f` over `items` on all available cores, preserving order.
///
/// Simulation points are independent runs, so a work-stealing-free static
/// round-robin over a shared index is plenty. Each worker accumulates its
/// results locally and hands them back through its join handle — no
/// shared lock on the completion path, and a panicking worker's payload
/// is re-raised verbatim in the caller (a poisoned-lock message used to
/// mask the original panic).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, r) in local {
                        results[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

/// The ρ grid used by the figure sweeps (matches the paper's x-axes,
/// which run from light load up to near saturation).
pub fn rho_grid() -> Vec<f64> {
    vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95]
}

/// The broadcast-only experiment arm (the paper's random-broadcasting
/// model): one scheme at one offered load, everything else the
/// scenario default. Every sweep builds its arms through this (or
/// [`mixed_arm`]) so the spec shape is defined in exactly one place.
pub fn broadcast_arm(scheme: SchemeKind, rho: f64) -> ScenarioSpec {
    ScenarioSpec {
        scheme,
        rho,
        broadcast_load_fraction: 1.0,
        ..Default::default()
    }
}

/// A mixed broadcast/unicast arm: like [`broadcast_arm`] but with the
/// given fraction of the offered load contributed by broadcasts.
pub fn mixed_arm(scheme: SchemeKind, rho: f64, broadcast_load_fraction: f64) -> ScenarioSpec {
    ScenarioSpec {
        scheme,
        rho,
        broadcast_load_fraction,
        ..Default::default()
    }
}

/// Scheme-major `(scheme, ρ)` sweep grid. With a seed derived from
/// `i % rhos.len()`, every scheme arm at the same ρ sees common random
/// numbers — the pairing the delay-comparison sweeps rely on.
pub fn scheme_rho_points(schemes: &[SchemeKind], rhos: &[f64]) -> Vec<(SchemeKind, f64)> {
    schemes
        .iter()
        .flat_map(|&s| rhos.iter().map(move |&r| (s, r)))
        .collect()
}

/// ρ-major `(ρ, scheme)` sweep grid — the figure sweeps' row order
/// (one output row per ρ, scheme columns side by side).
pub fn rho_scheme_points(rhos: &[f64], schemes: &[SchemeKind]) -> Vec<(f64, SchemeKind)> {
    rhos.iter()
        .flat_map(|&r| schemes.iter().map(move |&s| (r, s)))
        .collect()
}

/// Links killed at fault rate `rate` on a network with `link_count`
/// links: the first `⌈rate·L⌉` entries of a sweep's link permutation.
pub fn dead_count(link_count: u32, rate: f64) -> usize {
    (rate * link_count as f64).ceil() as usize
}

/// The outage of fault rate `rate`: the first [`dead_count`] links of
/// `perm` — a sweep's `shuffled_links` permutation of every link, so a
/// higher rate strictly extends the dead set — down over `[down, up)`;
/// no plan at rate 0.
pub fn nested_outage(perm: &[LinkId], rate: f64, down: u64, up: u64) -> FaultPlan {
    match dead_count(perm.len() as u32, rate) {
        0 => FaultPlan::none(),
        k => FaultPlan::link_outage_window(&perm[..k], down, up),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::FAULT_RATES;

    #[test]
    fn dead_counts_nest_and_round_up() {
        let l = 256; // 8x8 torus link count
        let counts: Vec<usize> = FAULT_RATES.iter().map(|&f| dead_count(l, f)).collect();
        assert_eq!(counts[0], 0);
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
        assert_eq!(counts[3], 26); // ceil(0.10 * 256)
        let perm = pstar_sim::shuffled_links(l, 7);
        assert!(nested_outage(&perm, 0.0, 10, 20).is_empty());
        assert_eq!(nested_outage(&perm, 0.10, 10, 20).events().len(), 2 * 26);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let out = parallel_map(&items, |_, &x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_propagates_original_panic_payload() {
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, |i, &x| {
                if i == 2 {
                    panic!("boom at {i}");
                }
                x
            })
        }));
        let payload = caught.expect_err("must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic! with args carries a String");
        assert_eq!(msg, "boom at 2");
    }

    #[test]
    fn grid_is_sorted_and_subcritical() {
        let g = rho_grid();
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(g.iter().all(|&r| r > 0.0 && r < 1.0));
    }

    #[test]
    fn arm_helpers_set_only_the_named_fields() {
        let b = broadcast_arm(SchemeKind::PriorityStar, 0.8);
        assert_eq!(b.scheme, SchemeKind::PriorityStar);
        assert_eq!(b.rho, 0.8);
        assert_eq!(b.broadcast_load_fraction, 1.0);
        let d = ScenarioSpec::default();
        assert_eq!(b.lengths, d.lengths);

        let m = mixed_arm(SchemeKind::FcfsDirect, 0.5, 0.25);
        assert_eq!(m.scheme, SchemeKind::FcfsDirect);
        assert_eq!(m.rho, 0.5);
        assert_eq!(m.broadcast_load_fraction, 0.25);
    }

    #[test]
    fn point_grids_cover_the_product_in_major_order() {
        let schemes = [SchemeKind::PriorityStar, SchemeKind::FcfsDirect];
        let rhos = [0.3, 0.9];
        let sm = scheme_rho_points(&schemes, &rhos);
        assert_eq!(
            sm,
            vec![
                (SchemeKind::PriorityStar, 0.3),
                (SchemeKind::PriorityStar, 0.9),
                (SchemeKind::FcfsDirect, 0.3),
                (SchemeKind::FcfsDirect, 0.9),
            ]
        );
        let rm = rho_scheme_points(&rhos, &schemes);
        assert_eq!(
            rm,
            vec![
                (0.3, SchemeKind::PriorityStar),
                (0.3, SchemeKind::FcfsDirect),
                (0.9, SchemeKind::PriorityStar),
                (0.9, SchemeKind::FcfsDirect),
            ]
        );
    }
}
