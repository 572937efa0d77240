//! Microbenchmarks of the library's hot kernels, independent of any
//! particular figure: simulator slot throughput, tree construction,
//! balance solving, queue operations, and sampling.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use priority_star::prelude::*;
use priority_star::{balance_broadcast_only, balance_mixed, star_dim_transmissions};
use std::time::Duration;

fn sim_throughput(c: &mut Criterion) {
    // End-to-end slots/second at a realistic operating point.
    let topo = Torus::new(&[8, 8]);
    let mut g = c.benchmark_group("sim_throughput");
    for rho in [0.5, 0.9] {
        g.bench_function(format!("8x8_pstar_rho{:02}", (rho * 10.0) as u32), |b| {
            b.iter(|| {
                let spec = ScenarioSpec {
                    scheme: SchemeKind::PriorityStar,
                    rho,
                    ..Default::default()
                };
                let cfg = SimConfig {
                    warmup_slots: 500,
                    measure_slots: 2_000,
                    max_slots: 100_000,
                    seed: 9,
                    ..SimConfig::default()
                };
                run_scenario(&topo, &spec, cfg)
            })
        });
    }
    g.finish();
}

fn tree_kernels(c: &mut Criterion) {
    let big = Torus::new(&[16, 16]);
    c.bench_function("spanning_tree_16x16", |b| {
        b.iter(|| SpanningTree::build(black_box(&big), NodeId(77), 1))
    });
    let cube = Torus::hypercube(10);
    c.bench_function("spanning_tree_hypercube10", |b| {
        b.iter(|| SpanningTree::build(black_box(&cube), NodeId(511), 3))
    });
    c.bench_function("eq1_coefficients_d6", |b| {
        let topo = Torus::new(&[3, 4, 5, 6, 7, 8]);
        b.iter(|| star_dim_transmissions(black_box(&topo), 3))
    });
}

fn balance_kernels(c: &mut Criterion) {
    let topo = Torus::new(&[3, 4, 5, 6, 7, 8]);
    c.bench_function("balance_broadcast_only_d6", |b| {
        b.iter(|| balance_broadcast_only(black_box(&topo)))
    });
    c.bench_function("balance_mixed_d6", |b| {
        b.iter(|| balance_mixed(black_box(&topo), 0.001, 0.1, false))
    });
}

fn engine_twins(c: &mut Criterion) {
    // Step vs event engine at low load: the calendar engine skips idle
    // slots, so it should win by a wide margin here.
    let topo = Torus::new(&[8, 8]);
    let spec = ScenarioSpec {
        scheme: SchemeKind::PriorityStar,
        rho: 0.05,
        ..Default::default()
    };
    let cfg = SimConfig {
        warmup_slots: 5_000,
        measure_slots: 40_000,
        max_slots: 500_000,
        seed: 11,
        ..SimConfig::default()
    };
    let mut g = c.benchmark_group("engine_twins_low_load");
    g.bench_function("step_engine", |b| {
        b.iter(|| run_scenario(&topo, &spec, cfg))
    });
    g.bench_function("event_engine", |b| {
        b.iter(|| {
            pstar_sim::EventEngine::new(
                topo.clone(),
                spec.build_scheme(&topo),
                spec.mix(&topo),
                cfg,
            )
            .run()
        })
    });
    g.finish();
}

fn link_kernel(c: &mut Criterion) {
    // The per-link state every backend drives, on its own: one slot's
    // finish scan, the forwards' admits and the service starts over 1024
    // links, next to the reference `PriorityQueue` doing the same
    // push/pop volume.
    use pstar_sim::{Admit, LinkKernel, Packet, PacketKind, PriorityQueue};
    const LINKS: u32 = 1024;
    const SLOTS: u64 = 64;
    let packet = |task: u32| Packet {
        task,
        gen_time: 0,
        enqueue_time: 0,
        len: 1,
        priority: (task % 3) as u8,
        vc: 0,
        attempt: 0,
        kind: PacketKind::Unicast { dest: NodeId(0) },
    };
    // Where a delivery on `link` forwards to (any fixed scatter does).
    let forward = |link: u32, t: u64| (link * 7 + 13 + t as u32) % LINKS;
    let mut g = c.benchmark_group("link_kernel");
    for depth in [1u32, 8] {
        g.bench_function(format!("finish_admit_start_depth{depth}"), |b| {
            let mut kernel = LinkKernel::new(&SimConfig::default(), 2, 0, LINKS);
            for task in 0..depth * LINKS {
                kernel.admit(task % LINKS, packet(task));
            }
            let mut t = 0;
            b.iter(|| {
                for _ in 0..SLOTS {
                    let mut scan = kernel.finish_scan();
                    while let Some((link, pkt)) = kernel.next_finished(&mut scan, t) {
                        let pkt = *pkt;
                        let outcome = kernel.admit(forward(link, t), pkt);
                        debug_assert!(matches!(outcome, Admit::Queued));
                    }
                    kernel.start(t, false, |_, _| {});
                    t += 1;
                }
                black_box(kernel.queued())
            })
        });
        g.bench_function(format!("reference_queue_push_pop_depth{depth}"), |b| {
            let mut queues: Vec<PriorityQueue> = (0..LINKS).map(|_| PriorityQueue::new()).collect();
            for task in 0..depth * LINKS {
                queues[(task % LINKS) as usize].push(packet(task));
            }
            let mut t = 0;
            b.iter(|| {
                for _ in 0..SLOTS {
                    for link in 0..LINKS {
                        if let Some(pkt) = queues[link as usize].pop() {
                            queues[forward(link, t) as usize].push(pkt);
                        }
                    }
                    t += 1;
                }
                black_box(queues[0].len())
            })
        });
    }
    g.finish();
}

fn unicast_kernel(c: &mut Criterion) {
    let topo = Torus::new(&[16, 16, 16]);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    c.bench_function("unicast_next_hop", |b| {
        b.iter(|| {
            priority_star::unicast::next_hop(black_box(&topo), NodeId(0), NodeId(2049), &mut rng)
        })
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = kernels;
    config = configured();
    targets = sim_throughput, tree_kernels, balance_kernels, engine_twins, link_kernel,
        unicast_kernel
}
criterion_main!(kernels);
