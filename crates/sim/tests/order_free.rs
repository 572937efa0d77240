//! Accounting is order-free: one stream of task events, split at random
//! over up to six [`TaskLedger`]s the way `pstar-net` splits it over its
//! workers — each event's site rule at some ledger, each task's record
//! at the ledger that is its home, every ledger seeing its share in a
//! shuffled order, completions therefore learnt of late — and merged in
//! a random order, assembles to the report of one ledger that saw every
//! event as it happened, bit for bit. That covers the integer delay
//! moments, the concurrency gauges with out-of-order completion stamps,
//! the slice-bucketed batch means, fault-damage attribution and the
//! fault and flow totals' folds.

use proptest::prelude::*;
use pstar_sim::{
    assemble, FaultTotals, FlowCounters, LinkCounters, LossCause, RunOutcome, SimConfig, SimReport,
    TaskLedger, TaskSlot,
};
use pstar_stats::IntMoments;

/// A 4-node network: a broadcast completes after 3 receptions.
const RECEIVERS: u32 = 3;

/// One reception of a task, `after` slots past its generation: delivered
/// (by a packet of `class`, `dist` hops out) or lost for good.
#[derive(Debug, Clone, Copy)]
struct Unit {
    after: u64,
    lost: bool,
    fault: bool,
    class: u8,
    dist: u32,
}

#[derive(Debug, Clone)]
struct Task {
    gen_time: u64,
    broadcast: bool,
    units: Vec<Unit>,
}

fn unit() -> impl Strategy<Value = Unit> {
    (1u64..90, 0u8..4, any::<bool>(), 0u8..4).prop_map(|(after, fate, fault, how)| Unit {
        after,
        lost: fate == 0,
        fault,
        class: how & 1,
        dist: 1 + u32::from(how >> 1),
    })
}

fn task() -> impl Strategy<Value = Task> {
    (
        0u64..330,
        any::<bool>(),
        prop::collection::vec(unit(), RECEIVERS as usize),
    )
        .prop_map(|(gen_time, broadcast, mut units)| {
            units.truncate(if broadcast { RECEIVERS as usize } else { 1 });
            Task {
                gen_time,
                broadcast,
                units,
            }
        })
}

/// Window `[50, 250)`: tasks are generated, and settle, before, inside
/// and after it.
fn config() -> SimConfig {
    SimConfig {
        warmup_slots: 50,
        measure_slots: 200,
        profile_by_distance: true,
        tails: true,
        ..SimConfig::quick(1)
    }
}

/// A deterministic shuffle (the proptest stub has none).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = pstar_sim::splitmix64(seed);
        items.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

fn report(
    cfg: &SimConfig,
    ledger: TaskLedger,
    slots_run: u64,
    faults: FaultTotals,
    flow: &FlowCounters,
) -> SimReport {
    assemble(
        ledger,
        LinkCounters::new(cfg, 2, 0, 4),
        RunOutcome {
            cfg,
            link_dim: &[0, 0, 1, 1],
            d: 2,
            num_classes: 2,
            slots_run,
            stable: true,
            completed: true,
            peak_queue_total: 0,
            queue_trace: Vec::new(),
            faults: Some(faults),
            arq: None,
            flow,
        },
    )
}

/// What one ledger is asked to do.
#[derive(Debug, Clone, Copy)]
enum Step {
    Opened(usize),
    Delivered(usize, Unit),
    Dropped(usize, Unit),
    /// The home's share of a settlement.
    Settled(usize, Unit),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_partition_and_merge_order_assembles_the_single_ledger_report(
        tasks in prop::collection::vec(task(), 1..40),
        recoveries in prop::collection::vec(0u64..500, 0..12),
        deferrals in prop::collection::vec(0u64..40, 0..12),
        k in 1usize..7,
        seed in any::<u64>(),
    ) {
        let cfg = config();
        let measured = |t: &Task| t.gen_time >= cfg.warmup_slots && t.gen_time < cfg.measure_end();
        let slots_run = tasks
            .iter()
            .flat_map(|t| t.units.iter().map(|u| t.gen_time + u.after))
            .max()
            .expect("a task has a unit")
            + 1;

        // One ledger, every event as it happens (the serial engine).
        let mut one = TaskLedger::new(&cfg, RECEIVERS + 1, 2);
        let mut events: Vec<(u64, usize, Option<Unit>)> = Vec::new();
        for (id, t) in tasks.iter().enumerate() {
            events.push((t.gen_time, id, None));
            events.extend(t.units.iter().map(|&u| (t.gen_time + u.after, id, Some(u))));
        }
        events.sort_by_key(|&(at, id, unit)| (at, id, unit.is_some()));
        let mut ids = vec![0u32; tasks.len()];
        for &(at, id, unit) in &events {
            let t = &tasks[id];
            match unit {
                None => ids[id] = one.open_task(at, at, t.broadcast, measured(t)),
                Some(u) if u.lost => {
                    let cause = if u.fault { LossCause::Fault } else { LossCause::Overflow };
                    one.packet_dropped(cause);
                    one.settle(at, ids[id], 1, cause);
                }
                Some(u) if t.broadcast => one.reception(at, ids[id], u.class, || u.dist),
                Some(_) => one.unicast_done(at, ids[id]),
            }
        }
        prop_assert_eq!(one.outstanding_measured(), 0);
        prop_assert_eq!(one.active_tasks().0, 0);

        // The same events by site, over `k` ledgers, shuffled.
        let mut rng = seed;
        let mut pick = |n: usize| {
            rng = pstar_sim::splitmix64(rng);
            (rng % n as u64) as usize
        };
        let mut steps: Vec<(usize, Step)> = Vec::new();
        let mut homes = Vec::new();
        for (id, t) in tasks.iter().enumerate() {
            let home = pick(k);
            homes.push((home, TaskSlot::new(t.gen_time, t.broadcast, RECEIVERS, measured(t))));
            steps.push((pick(k), Step::Opened(id)));
            for &u in &t.units {
                // A unicast is delivered at its home; anything else is
                // seen wherever it happens.
                let site = if t.broadcast || u.lost { pick(k) } else { home };
                steps.push((site, if u.lost { Step::Dropped(id, u) } else { Step::Delivered(id, u) }));
                steps.push((home, Step::Settled(id, u)));
            }
        }
        shuffle(&mut steps, seed ^ 1);
        let mut ledgers: Vec<TaskLedger> =
            (0..k).map(|_| TaskLedger::new(&cfg, RECEIVERS + 1, 2)).collect();
        for &(at_ledger, step) in &steps {
            let ledger = &mut ledgers[at_ledger];
            match step {
                Step::Opened(id) => {
                    let t = &tasks[id];
                    ledger.opened(t.gen_time, t.broadcast, measured(t));
                }
                Step::Delivered(id, u) => {
                    let t = &tasks[id];
                    if t.broadcast && measured(t) {
                        ledger.measured_reception(t.gen_time, t.gen_time + u.after, u.class, || u.dist);
                    }
                }
                Step::Dropped(id, u) => {
                    let t = &tasks[id];
                    ledger.packet_dropped(if u.fault { LossCause::Fault } else { LossCause::Overflow });
                    ledger.lost(measured(t), t.broadcast, 1);
                }
                Step::Settled(id, u) => {
                    let (_, slot) = &mut homes[id];
                    let at = tasks[id].gen_time + u.after;
                    let done = if u.lost { slot.lose(at, 1, u.fault) } else { slot.receive(at) };
                    if done {
                        ledger.completed(*slot);
                    }
                }
            }
        }

        // The run-level folds, over the same `k` owners.
        let totals = |samples: &[u64]| {
            let mut recovery_time = IntMoments::new();
            samples.iter().for_each(|&s| recovery_time.push(s));
            FaultTotals { events_applied: 4, fault_slots: 99, recovery_time }
        };
        let flow_of = |samples: &[u64]| {
            let mut flow = FlowCounters::default();
            for &s in samples {
                flow.deferred_injections += 1;
                flow.defer_delay.push(s);
                flow.occupancy_sum += u128::from(s) * 1_000;
            }
            flow
        };
        let mut owners: Vec<(TaskLedger, FaultTotals, FlowCounters)> = ledgers
            .into_iter()
            .map(|l| (l, totals(&[]), FlowCounters::default()))
            .collect();
        for &s in &recoveries {
            owners[pick(k)].1.recovery_time.push(s);
        }
        for &s in &deferrals {
            let part = flow_of(&[s]);
            owners[pick(k)].2.merge(&part);
        }

        // Any merge order: fold the shuffled owners into the first.
        shuffle(&mut owners, seed ^ 2);
        let mut owners = owners.into_iter();
        let (mut ledger, mut faults, mut flow) = owners.next().expect("k >= 1");
        for (l, f, w) in owners {
            ledger.merge(&l);
            faults.merge(&f);
            flow.merge(&w);
        }
        prop_assert_eq!(ledger.outstanding_measured(), 0);

        let whole = report(&cfg, one, slots_run, totals(&recoveries), &flow_of(&deferrals));
        let merged = report(&cfg, ledger, slots_run, faults, &flow);
        prop_assert_eq!(whole.first_difference(&merged), None);
        prop_assert_eq!(
            whole.reception_delay.count + whole.unicast_delay.count + whole.lost_receptions,
            tasks.iter().filter(|t| measured(t)).map(|t| t.units.len() as u64).sum::<u64>()
        );
    }
}
