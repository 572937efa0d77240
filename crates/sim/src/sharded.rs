//! The sharded engine: the serial [`crate::Engine`] split spatially for
//! single-run throughput.
//!
//! Nodes are split into contiguous ranges, one shard per range; a link
//! belongs to the shard owning its *source* node (link ids are
//! node-major, so each shard owns a contiguous link range). Each shard
//! runs one [`LinkKernel`] — the same queueing, in-flight and service
//! code the serial engine runs over all links — plus the scheme's
//! broadcast forwarding for its nodes, and exchanges boundary
//! deliveries per slot. The global state — the RNG and the task table —
//! lives in a single coordinator that consumes shard messages in
//! **ascending `(stage, link, seq)` key order**. That order equals the
//! serial engine's processing order (the ascending-link-id merge rule
//! shared with `pstar-net`), so the coordinator draws what the serial
//! engine draws and a seeded run is bit-identical to it at any shard
//! count, threaded or not, on every report field. The coordinator
//! embeds the same [`TaskLedger`] the serial engine does and each
//! shard's kernel the same [`crate::LinkCounters`] (see
//! `crate::ledger`), so the accounting rules exist once.
//!
//! Fault epochs are never sent to a shard: each shard ticks a replica
//! of the plan's [`FaultClock`] in phase A1 over the links its kernel
//! owns — the report reads shard 0's event and fault-slot totals and
//! every shard's time-to-recovery samples — and the coordinator advances
//! one at the head of `mid_slot` for the liveness view alone.
//!
//! Scope: the sharded engine covers the measurement configurations the
//! benchmarks run — fault plans (both dead-link policies), tails
//! instrumentation, queue traces and distance profiling are supported;
//! ARQ recovery, admission control, bounded queues and observability
//! sinks stay on the serial engine (construction asserts they are off).

use crate::arrivals::{generate_arrivals_into, ArrivalSink};
use crate::config::{stop_verdict, SimConfig, Stop};
use crate::faultepoch::{FaultClock, FaultLoss, LossCause};
use crate::hop::receptions_at_stake;
use crate::kernel::{Admit, LinkKernel};
use crate::ledger::{assemble, FaultTotals, FlowCounters, LinkCounters, RunOutcome, TaskLedger};
use crate::metrics::SimReport;
use crate::packet::{Emit, Packet, PacketKind, MAX_PRIORITY_CLASSES};
use crate::perf::{assemble_perf, CoordHooks, EnginePerf, EnginePerfConfig, WorkerPerf};
use crate::scheme::Scheme;
use pstar_faults::{DeadLinkPolicy, FaultPlan};
use pstar_topology::{Network, NodeId};
use pstar_traffic::{DestSampler, ScenarioCursor, TrafficMix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

/// Deterministic merge key for everything a shard sends the
/// coordinator within one slot: `(stage, major, minor)`.
///
/// * stage 0 — fault-tick loss settlements (`major`, `minor` = the
///   [`FaultLoss`]'s `(death, seq)`);
/// * stage 1 — delivery events (`major` = delivering global link id;
///   `minor` 0 = the arrival itself, `1 + i` = its `i`-th emitted
///   forward);
/// * stage 2 — task generation (`major` = per-slot generation
///   sequence, `minor` = `1 + i` for the `i`-th initial emit).
///
/// Ordering this key reproduces the serial engine's within-slot
/// processing order exactly: fault disposal, then deliveries in
/// ascending link order (each followed by its own forwards), then
/// arrivals in draw order. Packed into one integer (stage in bits
/// 96–97, major in 32–95, minor in 0–31) so the per-slot merge
/// compares single words; every producer pushes in strictly ascending
/// key order, so merging the per-shard streams never needs a sort.
type Key = u128;

/// Packs a `(stage, major, minor)` triple into a [`Key`].
#[inline]
fn key(stage: u8, major: u64, minor: u32) -> Key {
    ((stage as u128) << 96) | ((major as u128) << 32) | minor as u128
}

/// First key of stage 1; everything below it is a fault settlement.
const STAGE1_BASE: Key = 1 << 96;

/// Extracts the `major` field of a packed [`Key`].
#[inline]
fn key_major(k: Key) -> u64 {
    (k >> 32) as u64
}

/// Payload of a shard→coordinator message.
#[derive(Clone, Copy)]
enum MsgBody {
    /// A broadcast copy was delivered by a link.
    Reception { task: u32, class: u8, dist: u32 },
    /// A unicast packet reached its destination.
    UnicastDone { task: u32 },
    /// A packet was lost to a dead link (`lost` = receptions the copy
    /// was still responsible for, computed against the shard's scheme
    /// state *at the loss*).
    Settle { task: u32, lost: u32 },
    /// A unicast was delivered at a transit node; the coordinator must
    /// draw the next hop (scheme + RNG are global state).
    RouteReq {
        node: NodeId,
        dest: NodeId,
        task: u32,
        gen_time: u64,
        len: u16,
    },
}

/// A keyed shard→coordinator message.
#[derive(Clone, Copy)]
struct Msg {
    key: Key,
    body: MsgBody,
}

/// A keyed coordinator→shard (or shard-local) enqueue command.
#[derive(Clone, Copy)]
struct Cmd {
    key: Key,
    link: u32,
    pkt: Packet,
}

/// The flow identity a forwarded packet inherits from its task.
#[derive(Clone, Copy)]
struct FlowMeta {
    task: u32,
    gen_time: u64,
    len: u16,
}

/// Per-slot phase-B counters a shard reports to the coordinator.
#[derive(Clone, Copy, Default)]
struct BReport {
    /// Queued packets after all enqueues, before service (the serial
    /// engine's occupancy/peak sampling point).
    pre_service: u64,
    /// Queued packets after service starts (the loop-head guard value).
    end_total: u64,
    /// The periodic single-queue guard tripped on this shard's links.
    guard_tripped: bool,
}

/// Read-only per-run context shared by every shard and the coordinator.
struct ShardCtx<'a, N> {
    topo: &'a N,
    cfg: SimConfig,
    link_target: &'a [NodeId],
    node_shard: &'a [u32],
    shard_lo_link: &'a [u32],
}

impl<N> Clone for ShardCtx<'_, N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<N> Copy for ShardCtx<'_, N> {}

impl<N> ShardCtx<'_, N> {
    /// Shard owning global link `gid`.
    #[inline]
    fn shard_of(&self, gid: u32) -> usize {
        self.shard_lo_link.partition_point(|&lo| lo <= gid) - 1
    }
}

/// The receptions a lost copy was still responsible for, as a keyed
/// settle payload. Must be computed against the scheme state at the
/// loss (the caller chooses pre- or post-liveness-update, matching the
/// serial engine's call sites).
fn settle_pkt<S: Scheme>(scheme: &S, pkt: &Packet) -> MsgBody {
    let (_, lost) = receptions_at_stake(scheme, pkt);
    MsgBody::Settle {
        task: pkt.task,
        lost,
    }
}

/// One spatial shard: the [`LinkKernel`] of a contiguous range of
/// links, the scheme replica that forwards their deliveries, and the
/// per-slot exchange buffers.
struct Shard<S> {
    id: u32,
    scheme: S,
    kernel: LinkKernel,

    // Per-slot buffers.
    local_arrivals: Vec<(u32, Packet)>,
    enq_local: Vec<Cmd>,
    msgs: Vec<Msg>,
    out: Vec<Vec<(u32, Packet)>>,
    emit_buf: Vec<Emit>,
    /// Scratch for a fault epoch's losses.
    loss_buf: Vec<FaultLoss>,
    /// Net change this slot's fault tick made to the shard's
    /// queued-packet population (requeues − drained backlog), needed to
    /// reconstruct the serial engine's post-fault queue-trace sample.
    fault_qdelta: i64,
    b: BReport,

    /// Broadcast-only fast path: with no unicast traffic the
    /// coordinator never issues stage-1 commands, so shard-local emits
    /// (produced in key order) can enqueue immediately in phase A2 and
    /// phase B merely appends the coordinator's stage-2 generation
    /// commands — the per-slot key merge disappears.
    direct: bool,
    /// This shard's replica of the fault clock; `None` without a plan.
    clock: Option<Box<FaultClock>>,
}

impl<S: Scheme> Shard<S> {
    /// A shard among `shards`.
    fn new(id: u32, kernel: LinkKernel, scheme: S, shards: usize, direct: bool) -> Self {
        Self {
            id,
            scheme,
            kernel,
            local_arrivals: Vec::new(),
            enq_local: Vec::new(),
            msgs: Vec::new(),
            out: (0..shards).map(|_| Vec::new()).collect(),
            emit_buf: Vec::with_capacity(64),
            loss_buf: Vec::new(),
            fault_qdelta: 0,
            b: BReport::default(),
            direct,
            clock: None,
        }
    }

    /// Phase A1: tick this shard's fault clock (what the epoch loses on
    /// owned links becomes stage-0 settles), then scan for finishing
    /// transmissions and route each delivery to the shard owning the
    /// target node.
    fn phase_a1<N: Network>(&mut self, t: u64, ctx: &ShardCtx<'_, N>) {
        self.msgs.clear();
        self.local_arrivals.clear();
        self.enq_local.clear();
        self.fault_qdelta = 0;

        if let Some(clock) = self.clock.as_deref_mut() {
            let before = self.kernel.queued();
            if clock.tick(t, &mut self.kernel, &mut self.loss_buf) {
                self.fault_qdelta = self.kernel.queued() as i64 - before as i64;
                // The settles use the *pre-update* scheme, as the serial
                // fault tick does; degraded routing applies from here on.
                for loss in self.loss_buf.drain(..) {
                    self.msgs.push(Msg {
                        key: key(0, u64::from(loss.death), loss.seq),
                        body: settle_pkt(&self.scheme, &loss.pkt),
                    });
                }
                self.scheme.on_liveness_change(clock.view());
            }
        }

        // Delivery scan in ascending link order. Single-shard runs have
        // no remote arrivals that could interleave, so the scan order is
        // already the merged arrival order — handle deliveries on the
        // spot instead of buffering them for phase A2.
        let solo = self.out.len() == 1;
        let mut scan = self.kernel.finish_scan();
        while let Some((gid, pkt)) = self.kernel.next_finished(&mut scan, t) {
            if solo {
                let pkt = *pkt;
                self.handle_arrival(t, ctx, gid, pkt);
                continue;
            }
            let target = ctx.link_target[gid as usize];
            let ts = ctx.node_shard[target.0 as usize];
            if ts == self.id {
                self.local_arrivals.push((gid, *pkt));
            } else {
                self.out[ts as usize].push((gid, *pkt));
            }
        }
    }

    /// Phase A2: process this shard's arrivals (remote inbox merged
    /// with local ones in ascending delivering-link order), running the
    /// scheme's broadcast forwarding locally and deferring everything
    /// task-/RNG-touching to the coordinator via keyed messages.
    fn phase_a2<N: Network>(
        &mut self,
        t: u64,
        ctx: &ShardCtx<'_, N>,
        inbox: &mut Vec<(u32, Packet)>,
    ) {
        inbox.sort_unstable_by_key(|&(gid, _)| gid);
        let local = std::mem::take(&mut self.local_arrivals);
        let (mut i, mut j) = (0, 0);
        loop {
            let pick_local = match (local.get(i), inbox.get(j)) {
                (Some(a), Some(b)) => a.0 < b.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (gid, pkt) = if pick_local {
                i += 1;
                local[i - 1]
            } else {
                j += 1;
                inbox[j - 1]
            };
            self.handle_arrival(t, ctx, gid, pkt);
        }
        inbox.clear();
        self.local_arrivals = local;
    }

    fn handle_arrival<N: Network>(&mut self, t: u64, ctx: &ShardCtx<'_, N>, gid: u32, pkt: Packet) {
        let node = ctx.link_target[gid as usize];
        match pkt.kind {
            PacketKind::Broadcast(state) => {
                let dist = if ctx.cfg.profile_by_distance {
                    ctx.topo.distance(state.src, node)
                } else {
                    0
                };
                self.msgs.push(Msg {
                    key: key(1, gid as u64, 0),
                    body: MsgBody::Reception {
                        task: pkt.task,
                        class: pkt.priority,
                        dist,
                    },
                });
                let mut buf = std::mem::take(&mut self.emit_buf);
                buf.clear();
                self.scheme.on_broadcast_arrival(node, &state, &mut buf);
                self.queue_emits(
                    t,
                    ctx,
                    node,
                    FlowMeta {
                        task: pkt.task,
                        gen_time: pkt.gen_time,
                        len: pkt.len,
                    },
                    gid as u64,
                    &buf,
                );
                self.emit_buf = buf;
            }
            PacketKind::Unicast { dest } => {
                if node == dest {
                    self.msgs.push(Msg {
                        key: key(1, gid as u64, 0),
                        body: MsgBody::UnicastDone { task: pkt.task },
                    });
                } else {
                    self.msgs.push(Msg {
                        key: key(1, gid as u64, 0),
                        body: MsgBody::RouteReq {
                            node,
                            dest,
                            task: pkt.task,
                            gen_time: pkt.gen_time,
                            len: pkt.len,
                        },
                    });
                }
            }
        }
    }

    /// Stages a delivery's forwards for enqueue: emits toward dead
    /// links become keyed loss settles under the drop policy (using the
    /// post-update scheme, like the serial flush path); everything else
    /// becomes a local enqueue command merged in phase B.
    fn queue_emits<N: Network>(
        &mut self,
        t: u64,
        ctx: &ShardCtx<'_, N>,
        from: NodeId,
        meta: FlowMeta,
        gid: u64,
        emits: &[Emit],
    ) {
        for (i, emit) in emits.iter().enumerate() {
            let link = ctx.topo.link_id(emit.link_from(from)).0;
            debug_assert!(
                self.kernel.owns(link),
                "emit link not owned by the emitting node's shard"
            );
            let key = key(1, gid, 1 + i as u32);
            let pkt = emit.packet(meta.task, meta.gen_time, meta.len, t);
            if self.kernel.drops(link) {
                self.msgs.push(Msg {
                    key,
                    body: settle_pkt(&self.scheme, &pkt),
                });
            } else if self.direct {
                // Broadcast-only: no stage-1 coordinator commands can
                // interleave, so the A2 processing order IS the merged
                // key order for this link — enqueue on the spot.
                self.admit(link, pkt);
            } else {
                self.enq_local.push(Cmd { key, link, pkt });
            }
        }
    }

    /// Enqueues a packet that is known to stay: queues are unbounded
    /// here, and emits toward a dropping link were settled when staged
    /// (liveness cannot change between staging and phase B).
    #[inline]
    fn admit(&mut self, link: u32, pkt: Packet) {
        let outcome = self.kernel.admit(link, pkt);
        debug_assert!(matches!(outcome, Admit::Queued), "unbounded admit refused");
    }

    /// Phase B: merge local and coordinator enqueues in key order
    /// (reproducing the serial per-queue insertion order), then start
    /// service on every backlogged, idle, alive link.
    fn phase_b(&mut self, t: u64, cfg: &SimConfig, cmds: &mut Vec<Cmd>) {
        let local = std::mem::take(&mut self.enq_local);
        let (mut i, mut j) = (0, 0);
        loop {
            let pick_local = match (local.get(i), cmds.get(j)) {
                (Some(a), Some(b)) => a.key < b.key,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let cmd = if pick_local {
                i += 1;
                local[i - 1]
            } else {
                j += 1;
                cmds[j - 1]
            };
            self.admit(cmd.link, cmd.pkt);
        }
        cmds.clear();
        self.enq_local = local;

        self.b.pre_service = self.kernel.queued();
        let faulted = self.clock.as_ref().is_some_and(|c| c.any_now());
        self.kernel.start(t, faulted, |_, _| {});
        self.b.end_total = self.kernel.queued();
        self.b.guard_tripped = cfg.single_queue_tripped(t + 1, || self.kernel.max_qlen());
    }
}

/// All global state: the RNG and the task ledger. Consumes shard
/// messages in key order, which equals serial processing order.
struct Coordinator<S> {
    scheme: S,
    cfg: SimConfig,
    rng: StdRng,
    dests: DestSampler,
    /// Scenario modulation cursor (coordinator-owned, like the RNG).
    scenario: ScenarioCursor,
    ledger: TaskLedger,
    node_count: u32,
    mix: TrafficMix,

    queue_trace: Vec<(u64, u64)>,
    peak_queue: i64,
    /// Only `occupancy_sum` is ever nonzero (flow control is asserted
    /// off at construction).
    flow: FlowCounters,
    queued_end: u64,

    emit_buf: Vec<Emit>,
    /// The coordinator's replica of the fault clock, advanced for its
    /// liveness view alone, and what dead links do to emits.
    faults: Option<Box<FaultClock>>,
    dead_policy: DeadLinkPolicy,
    now: u64,

    /// Per-shard staged enqueue commands (route forwards, generation).
    cmds: Vec<Vec<Cmd>>,
    gen_seq: u64,
}

impl<S: Scheme> Coordinator<S> {
    /// Mid-slot global processing, in exact serial order: the fault
    /// epoch's stage-0 settles, queue trace, delivery events (stage 1),
    /// then arrivals.
    fn mid_slot<N: Network>(
        &mut self,
        ctx: &ShardCtx<'_, N>,
        t: u64,
        fault_qdelta: i64,
        msgs: &[Msg],
    ) {
        self.gen_seq = 0;

        // The coordinator's replica owns no kernel — the shards killed,
        // drained (stage 0) and watch their own links: what the epoch
        // lost settles against the scheme as it still is, then the
        // scheme sees the new view.
        let split = msgs.partition_point(|m| m.key < STAGE1_BASE);
        if let Some(mut clock) = self.faults.take() {
            let changed = clock.advance(t).is_some();
            for m in &msgs[..split] {
                if let MsgBody::Settle { task, lost } = m.body {
                    self.settle(t, task, lost);
                }
            }
            if changed {
                self.scheme.on_liveness_change(clock.view());
            }
            self.faults = Some(clock);
        }

        if let Some(k) = self.cfg.trace_interval {
            if t % k == 0 {
                self.queue_trace
                    .push((t, (self.queued_end as i64 + fault_qdelta) as u64));
            }
        }

        for m in &msgs[split..] {
            match m.body {
                MsgBody::Reception { task, class, dist } => {
                    self.ledger.reception(t, task, class, || dist);
                }
                MsgBody::UnicastDone { task } => self.ledger.unicast_done(t, task),
                MsgBody::Settle { task, lost } => self.settle(t, task, lost),
                MsgBody::RouteReq {
                    node,
                    dest,
                    task,
                    gen_time,
                    len,
                } => {
                    let mut buf = std::mem::take(&mut self.emit_buf);
                    buf.clear();
                    self.scheme
                        .on_unicast_arrival(node, dest, &mut self.rng, &mut buf);
                    debug_assert!(!buf.is_empty(), "unicast stranded at {node}");
                    self.flush_cmds(
                        ctx,
                        t,
                        (1, key_major(m.key)),
                        node,
                        FlowMeta {
                            task,
                            gen_time,
                            len,
                        },
                        &buf,
                    );
                    self.emit_buf = buf;
                }
            }
        }

        let n = self.node_count;
        let mix = self.mix;
        let mut cursor = self.scenario;
        let mut sink = GenSink {
            co: self,
            ctx: *ctx,
            t,
        };
        generate_arrivals_into(&mut sink, &mut cursor, mix, n, t);
        self.scenario = cursor;
    }

    /// Serial `new_task`, minus the flow-control gates (asserted off).
    fn new_task<N: Network>(
        &mut self,
        ctx: &ShardCtx<'_, N>,
        t: u64,
        src: NodeId,
        dest: Option<NodeId>,
        measured: bool,
    ) {
        let task = self.ledger.open_task(t, t, dest.is_none(), measured);
        let len = self.cfg.lengths.sample_length(&mut self.rng);
        let mut buf = std::mem::take(&mut self.emit_buf);
        buf.clear();
        match dest {
            None => self
                .scheme
                .on_broadcast_generated(src, &mut self.rng, &mut buf),
            Some(dest) => self
                .scheme
                .on_unicast_generated(src, dest, &mut self.rng, &mut buf),
        }
        debug_assert!(!buf.is_empty(), "task with no transmissions");
        let seq = self.gen_seq;
        self.flush_cmds(
            ctx,
            t,
            (2, seq),
            src,
            FlowMeta {
                task,
                gen_time: t,
                len,
            },
            &buf,
        );
        self.emit_buf = buf;
        self.gen_seq += 1;
    }

    /// Resolves emits to links and stages enqueue commands for the
    /// owning shards; emits toward dead links are settled inline under
    /// the drop policy (exactly where the serial flush would).
    fn flush_cmds<N: Network>(
        &mut self,
        ctx: &ShardCtx<'_, N>,
        t: u64,
        prefix: (u8, u64),
        from: NodeId,
        meta: FlowMeta,
        emits: &[Emit],
    ) {
        for (i, emit) in emits.iter().enumerate() {
            debug_assert!(
                (emit.priority as usize) < self.scheme.num_priorities(),
                "emit priority out of range"
            );
            let gid = ctx.topo.link_id(emit.link_from(from)).0;
            let pkt = emit.packet(meta.task, meta.gen_time, meta.len, t);
            if matches!(self.dead_policy, DeadLinkPolicy::Drop)
                && self.faults.as_ref().is_some_and(|f| f.link_dead(gid))
            {
                let (_, lost) = receptions_at_stake(&self.scheme, &pkt);
                self.settle(t, pkt.task, lost);
                continue;
            }
            self.cmds[ctx.shard_of(gid)].push(Cmd {
                key: key(prefix.0, prefix.1, 1 + i as u32),
                link: gid,
                pkt,
            });
        }
    }

    /// A fault-caused terminal loss (the only loss cause the sharded
    /// engine has): one dropped packet, its receptions settled.
    fn settle(&mut self, t: u64, task: u32, lost: u32) {
        self.ledger.packet_dropped(LossCause::Fault);
        self.ledger.settle(t, task, lost, LossCause::Fault);
    }

    /// End-of-slot accounting (peak, occupancy, trace baseline), then
    /// the stop rule for the next slot.
    fn end_slot(
        &mut self,
        t: u64,
        pre_service: u64,
        end_total: u64,
        guard_tripped: bool,
        queue_limit: i64,
    ) -> Option<Stop> {
        self.peak_queue = self.peak_queue.max(pre_service as i64);
        if self.cfg.in_window(t) {
            self.flow.occupancy_sum += pre_service as u128;
        }
        self.queued_end = end_total;
        self.now = t + 1;
        self.check_stop(queue_limit, guard_tripped)
    }

    /// The stop rule between slot `self.now − 1` and `self.now`.
    fn check_stop(&self, queue_limit: i64, guard_tripped: bool) -> Option<Stop> {
        stop_verdict(
            &self.cfg,
            self.now,
            self.ledger.outstanding_measured() as u64,
            self.queued_end as i64,
            queue_limit,
            || guard_tripped,
        )
    }
}

/// Adapter giving the coordinator the serial engine's arrival-draw
/// sequence (`arrivals::generate_arrivals_into`).
struct GenSink<'a, N, S> {
    co: &'a mut Coordinator<S>,
    ctx: ShardCtx<'a, N>,
    t: u64,
}

impl<N: Network, S: Scheme> ArrivalSink for GenSink<'_, N, S> {
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler) {
        (&mut self.co.rng, &self.co.dests)
    }

    fn source_dead(&self, node: NodeId) -> bool {
        self.co.faults.as_ref().is_some_and(|f| f.node_dead(node))
    }

    fn spawn(&mut self, src: NodeId, dest: Option<NodeId>) {
        let measured = self.co.cfg.in_window(self.t);
        let ctx = self.ctx;
        self.co.new_task(&ctx, self.t, src, dest, measured);
    }
}

/// Shared state of the threaded driver.
struct Exchange {
    barrier: Barrier,
    /// Set by the coordinator before barrier ε of the last slot.
    stop: AtomicBool,
    inboxes: Vec<Mutex<Vec<(u32, Packet)>>>,
    /// Each shard's `fault_qdelta` of the slot.
    fault_qdelta: Vec<Mutex<i64>>,
    /// Per-shard published message streams (each ascending), merged by
    /// the coordinator without sorting.
    msgs: Vec<Mutex<Vec<Msg>>>,
    cmds: Vec<Mutex<Vec<Cmd>>>,
    b: Vec<Mutex<BReport>>,
}

/// The sharded structure-of-arrays step engine (see module docs).
///
/// Seeded runs are bit-identical to [`crate::Engine`] on every report
/// field at any shard/thread count. Build with [`ShardedEngine::new`],
/// optionally install a fault plan and worker threads, then
/// [`ShardedEngine::run`].
pub struct ShardedEngine<N, S> {
    topo: N,
    cfg: SimConfig,
    shards: Vec<Shard<S>>,
    coord: Coordinator<S>,
    threads: usize,
    link_target: Vec<NodeId>,
    link_dim: Vec<u8>,
    node_shard: Vec<u32>,
    shard_lo_link: Vec<u32>,
}

impl<N: Network + Sync, S: Scheme + Clone + Send> ShardedEngine<N, S> {
    /// Builds an engine with `shards` spatial shards (≥ 1, at most one
    /// per node).
    ///
    /// Panics if the configuration uses features the sharded engine
    /// does not cover (ARQ, admission control, bounded queues) or the
    /// topology's link ids are not contiguous per source node.
    pub fn new(topo: N, scheme: S, mix: TrafficMix, cfg: SimConfig, shards: usize) -> Self {
        assert!(
            scheme.num_priorities() <= MAX_PRIORITY_CLASSES,
            "scheme uses too many priority classes"
        );
        assert!(shards >= 1, "at least one shard");
        let n = topo.node_count();
        assert!(shards as u32 <= n, "more shards than nodes");
        assert!(cfg.arq.is_none(), "ARQ recovery requires the serial engine");
        assert!(
            cfg.admission.is_none(),
            "admission control requires the serial engine"
        );
        assert!(
            cfg.queue_capacity.is_none(),
            "bounded queues require the serial engine"
        );
        let dims = topo.dim_sizes();
        if let Err(e) = cfg.scenario.validate(&dims, mix.bernoulli) {
            panic!("invalid scenario config: {e}");
        }
        let dests = cfg
            .scenario
            .resolve_dests(&dims)
            .expect("validated just above");
        let links = topo.link_count();
        let link_source = topo.link_source_table();
        assert!(
            link_source.windows(2).all(|w| w[0].0 <= w[1].0),
            "sharded engine requires node-contiguous link ids"
        );

        let mut node_shard = vec![0u32; n as usize];
        let mut shard_lo_link = Vec::with_capacity(shards + 1);
        let mut shard_vec = Vec::with_capacity(shards);
        for s in 0..shards {
            let lo_node = (s as u64 * n as u64 / shards as u64) as u32;
            let hi_node = ((s as u64 + 1) * n as u64 / shards as u64) as u32;
            for node in lo_node..hi_node {
                node_shard[node as usize] = s as u32;
            }
            let lo_link = link_source.partition_point(|src| src.0 < lo_node) as u32;
            shard_lo_link.push(lo_link);
        }
        shard_lo_link.push(links);
        for s in 0..shards {
            let (lo, hi) = (shard_lo_link[s], shard_lo_link[s + 1]);
            shard_vec.push(Shard::new(
                s as u32,
                LinkKernel::new(&cfg, topo.d(), lo, hi),
                scheme.clone(),
                shards,
                mix.lambda_unicast == 0.0,
            ));
        }

        let coord = Coordinator {
            scheme,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            dests,
            scenario: ScenarioCursor::new(cfg.scenario),
            ledger: TaskLedger::new(&cfg, n, topo.diameter()),
            node_count: n,
            mix,
            queue_trace: Vec::new(),
            peak_queue: 0,
            flow: FlowCounters::default(),
            queued_end: 0,
            emit_buf: Vec::with_capacity(64),
            faults: None,
            dead_policy: DeadLinkPolicy::default(),
            now: 0,
            cmds: (0..shards).map(|_| Vec::new()).collect(),
            gen_seq: 0,
        };
        let link_target = topo.link_target_table();
        let link_dim = topo.link_dim_table();
        Self {
            topo,
            cfg,
            shards: shard_vec,
            coord,
            threads: 1,
            link_target,
            link_dim,
            node_shard,
            shard_lo_link,
        }
    }

    /// Installs a fault plan (builder style; an empty plan is a no-op,
    /// exactly as on the serial engine).
    pub fn with_fault_plan(mut self, plan: FaultPlan, policy: DeadLinkPolicy) -> Self {
        if plan.is_empty() {
            return self;
        }
        // Every kernel owner, and the coordinator for its view, runs a
        // replica.
        let clock = Box::new(FaultClock::new(plan, &self.topo));
        for sh in &mut self.shards {
            sh.kernel.set_dead_link_policy(policy);
            sh.clock = Some(clock.clone());
        }
        self.coord.faults = Some(clock);
        self.coord.dead_policy = policy;
        self
    }

    /// Sets the worker-thread count for the run (builder style). The
    /// default of 1 runs every phase on the calling thread; results
    /// are identical either way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread");
        self.threads = threads;
        self
    }

    /// Runs the warmup → measure → drain protocol and reports; the
    /// report mirrors the serial engine's field for field.
    pub fn run(self) -> SimReport {
        self.run_inner(None).0
    }

    /// Runs like [`ShardedEngine::run`] with execution-machinery
    /// telemetry enabled, returning the (bit-identical) report plus the
    /// [`EnginePerf`] phase decomposition. Timing never touches the
    /// RNG, so the report is exactly what [`ShardedEngine::run`] would
    /// have produced — `tests/perf.rs` pins this.
    ///
    /// Panics if [`EnginePerfConfig::jsonl_path`] names a file that
    /// cannot be created.
    pub fn run_perf(self, perf: EnginePerfConfig) -> (SimReport, EnginePerf) {
        let (report, perf) = self.run_inner(Some(&perf));
        (report, perf.expect("perf was requested"))
    }

    fn run_inner(self, pcfg: Option<&EnginePerfConfig>) -> (SimReport, Option<EnginePerf>) {
        let Self {
            topo,
            cfg,
            mut shards,
            mut coord,
            threads,
            link_target,
            link_dim,
            node_shard,
            shard_lo_link,
        } = self;
        let ctx = ShardCtx {
            topo: &topo,
            cfg,
            link_target: &link_target,
            node_shard: &node_shard,
            shard_lo_link: &shard_lo_link,
        };
        let links = topo.link_count() as usize;
        let queue_limit = cfg.queue_limit(links);

        let t0 = coord.now;
        let mut hooks = pcfg
            .map(|c| CoordHooks::new(c, t0).expect("creating the perf JSONL snapshot sink failed"));
        let mut worker_perfs: Vec<WorkerPerf> = Vec::new();

        let stop = match coord.check_stop(queue_limit, false) {
            Some(stop) => stop,
            None => {
                let workers = threads.min(shards.len());
                let (stop, wp) = if workers <= 1 {
                    run_sequential(&mut coord, &mut shards, &ctx, queue_limit, &mut hooks)
                } else {
                    run_threaded(
                        &mut coord,
                        &mut shards,
                        &ctx,
                        queue_limit,
                        workers,
                        &mut hooks,
                    )
                };
                worker_perfs = wp;
                stop
            }
        };

        let perf = hooks.map(|h| {
            let arena: Vec<(u32, u32)> = shards.iter().map(|sh| sh.kernel.arena_stats()).collect();
            let wall_ns = h.now_ns();
            let nsh = shards.len();
            assemble_perf(h, worker_perfs, arena, nsh, coord.now - t0, wall_ns)
        });

        // Every shard's replica closes against its own final queue
        // state; the totals fold like `pstar-net`'s.
        let mut faults: Option<FaultTotals> = None;
        let mut link_counters = LinkCounters::new(&cfg, topo.d(), 0, links);
        for sh in &mut shards {
            link_counters.merge(sh.kernel.counters());
            if let Some(clock) = sh.clock.take() {
                let totals = clock.finish(coord.now, |l| sh.kernel.is_active(l));
                match &mut faults {
                    Some(all) => all.merge(&totals),
                    None => faults = Some(totals),
                }
            }
        }
        let report = assemble(
            coord.ledger,
            link_counters,
            RunOutcome {
                cfg: &cfg,
                link_dim: &link_dim,
                d: topo.d(),
                num_classes: coord.scheme.num_priorities(),
                slots_run: coord.now,
                stable: stop != Stop::Unstable,
                completed: stop == Stop::Completed,
                peak_queue_total: coord.peak_queue,
                queue_trace: coord.queue_trace,
                faults,
                arq: None,
                flow: &coord.flow,
            },
        );
        (report, perf)
    }
}

/// Merges per-shard message streams — each strictly ascending by
/// construction — into one key-ordered stream. Linear scan over the
/// stream heads per output element; shard counts are small and the
/// packed keys compare as single words, so this beats re-sorting the
/// concatenation by a wide margin.
fn kway_merge(streams: &[&[Msg]], out: &mut Vec<Msg>, idx: &mut Vec<usize>) {
    out.clear();
    idx.clear();
    idx.resize(streams.len(), 0);
    out.reserve(streams.iter().map(|s| s.len()).sum());
    loop {
        let mut best: Option<(Key, usize)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(m) = stream.get(idx[s]) {
                if best.is_none_or(|(k, _)| m.key < k) {
                    best = Some((m.key, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        out.push(streams[s][idx[s]]);
        idx[s] += 1;
    }
}

/// Single-threaded driver: all phases on the calling thread, in the
/// same barrier order the threaded driver uses.
///
/// Under perf telemetry the thread plays both roles: its A1/A2/B time
/// is attributed to a single "worker 0" track (the parallelizable
/// portion) and the merge/mid-slot/end-slot time to the coordinator
/// (the serial portion) — which is precisely how a 1-thread run
/// measures the Amdahl serial fraction without needing real threads.
fn run_sequential<N: Network, S: Scheme>(
    coord: &mut Coordinator<S>,
    shards: &mut [Shard<S>],
    ctx: &ShardCtx<'_, N>,
    queue_limit: i64,
    hooks: &mut Option<CoordHooks>,
) -> (Stop, Vec<WorkerPerf>) {
    let nsh = shards.len();
    let mut wp = hooks
        .as_ref()
        .map(|h| WorkerPerf::new(0, h.epoch, h.span_slots, h.t0));
    let mut inboxes: Vec<Vec<(u32, Packet)>> = (0..nsh).map(|_| Vec::new()).collect();
    let mut msgs: Vec<Msg> = Vec::new();
    let mut merge_idx: Vec<usize> = Vec::new();
    let mut t = coord.now;
    let stop = loop {
        let mut mark = wp.as_ref().map(|w| w.now_ns());
        for sh in shards.iter_mut() {
            sh.phase_a1(t, ctx);
        }
        for (si, sh) in shards.iter_mut().enumerate() {
            for (ti, inbox) in inboxes.iter_mut().enumerate() {
                if !sh.out[ti].is_empty() {
                    if ti != si {
                        if let Some(w) = wp.as_mut() {
                            w.boundary_packets += sh.out[ti].len() as u64;
                        }
                    }
                    let mut batch = std::mem::take(&mut sh.out[ti]);
                    inbox.append(&mut batch);
                    sh.out[ti] = batch;
                }
            }
        }
        if let Some(w) = wp.as_mut() {
            let now = w.now_ns();
            w.record_work(0, t, mark.unwrap(), now);
            mark = Some(now);
        }
        for (si, sh) in shards.iter_mut().enumerate() {
            sh.phase_a2(t, ctx, &mut inboxes[si]);
        }
        if let Some(w) = wp.as_mut() {
            let now = w.now_ns();
            w.record_work(1, t, mark.unwrap(), now);
            mark = Some(now);
        }
        let fault_qdelta: i64 = shards.iter().map(|sh| sh.fault_qdelta).sum();
        let merged_len = if nsh == 1 {
            // Single shard: the stream is already in key order; it will
            // feed through below without copying.
            shards[0].msgs.len()
        } else {
            let streams: Vec<&[Msg]> = shards.iter().map(|sh| sh.msgs.as_slice()).collect();
            kway_merge(&streams, &mut msgs, &mut merge_idx);
            msgs.len()
        };
        if let Some(h) = hooks.as_mut() {
            let now = h.now_ns();
            h.record_merge(now - mark.unwrap(), merged_len as u64);
            if h.spans_on(t) {
                h.push_span("merge", mark.unwrap(), now);
            }
            mark = Some(now);
        }
        if nsh == 1 {
            coord.mid_slot(ctx, t, fault_qdelta, &shards[0].msgs);
        } else {
            coord.mid_slot(ctx, t, fault_qdelta, &msgs);
        }
        if let Some(h) = hooks.as_mut() {
            let now = h.now_ns();
            h.record_mid(now - mark.unwrap());
            if h.spans_on(t) {
                h.push_span("mid_slot", mark.unwrap(), now);
            }
            mark = Some(now);
        }
        let mut pre = 0u64;
        let mut end = 0u64;
        let mut tripped = false;
        for (si, sh) in shards.iter_mut().enumerate() {
            sh.phase_b(t, &ctx.cfg, &mut coord.cmds[si]);
            pre += sh.b.pre_service;
            end += sh.b.end_total;
            tripped |= sh.b.guard_tripped;
        }
        if let Some(w) = wp.as_mut() {
            let now = w.now_ns();
            w.record_work(3, t, mark.unwrap(), now);
            mark = Some(now);
        }
        let res = coord.end_slot(t, pre, end, tripped, queue_limit);
        if let Some(h) = hooks.as_mut() {
            let now = h.now_ns();
            h.record_end(now - mark.unwrap());
            if h.spans_on(t) {
                h.push_span("end_slot", mark.unwrap(), now);
            }
            h.end_of_slot(t);
        }
        if let Some(stop) = res {
            break stop;
        }
        t += 1;
    };
    (stop, wp.into_iter().collect())
}

/// Multi-threaded driver: shards split into contiguous chunks, one
/// worker per chunk, with the coordinator on the calling thread and a
/// five-barrier slot protocol (A1 → ship → A2 → mid-slot → B → end).
fn run_threaded<N: Network + Sync, S: Scheme + Clone + Send>(
    coord: &mut Coordinator<S>,
    shards: &mut Vec<Shard<S>>,
    ctx: &ShardCtx<'_, N>,
    queue_limit: i64,
    workers: usize,
    hooks: &mut Option<CoordHooks>,
) -> (Stop, Vec<WorkerPerf>) {
    let nsh = shards.len();
    let ex = Exchange {
        barrier: Barrier::new(workers + 1),
        stop: AtomicBool::new(false),
        inboxes: (0..nsh).map(|_| Mutex::new(Vec::new())).collect(),
        fault_qdelta: (0..nsh).map(|_| Mutex::new(0)).collect(),
        msgs: (0..nsh).map(|_| Mutex::new(Vec::new())).collect(),
        cmds: (0..nsh).map(|_| Mutex::new(Vec::new())).collect(),
        b: (0..nsh).map(|_| Mutex::new(BReport::default())).collect(),
    };
    let t0 = coord.now;

    // Split the shards into contiguous chunks, remembering each chunk's
    // first global shard index.
    let mut chunks: Vec<(usize, Vec<Shard<S>>)> = Vec::with_capacity(workers);
    {
        let mut rest = std::mem::take(shards);
        let mut base = 0usize;
        for w in 0..workers {
            let take = (nsh - base).div_ceil(workers - w);
            let tail = rest.split_off(take);
            chunks.push((base, rest));
            rest = tail;
            base += take;
        }
        debug_assert!(rest.is_empty());
    }

    let mut worker_perfs: Vec<WorkerPerf> = Vec::new();
    let stop = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (w, (base, chunk)) in chunks.into_iter().enumerate() {
            let ex = &ex;
            let wperf = hooks
                .as_ref()
                .map(|h| WorkerPerf::new(w as u32, h.epoch, h.span_slots, h.t0));
            handles.push(scope.spawn(move || worker_loop(chunk, base, ex, ctx, t0, nsh, wperf)));
        }

        let mut msgs: Vec<Msg> = Vec::new();
        let mut merge_idx: Vec<usize> = Vec::new();
        let mut t = t0;
        let stop = loop {
            let mut mark = hooks.as_ref().map(|h| h.now_ns());
            ex.barrier.wait(); // α: A1 + shipping done
            ex.barrier.wait(); // β: A2 done, msgs/fault_qdelta published
            if let Some(h) = hooks.as_mut() {
                let now = h.now_ns();
                h.record_wait(now - mark.unwrap());
                if h.spans_on(t) {
                    h.push_span("wait_a", mark.unwrap(), now);
                }
                mark = Some(now);
            }
            let fault_qdelta: i64 = ex.fault_qdelta.iter().map(|q| *q.lock().unwrap()).sum();
            {
                let guards: Vec<_> = ex.msgs.iter().map(|m| m.lock().unwrap()).collect();
                let streams: Vec<&[Msg]> = guards.iter().map(|g| g.as_slice()).collect();
                kway_merge(&streams, &mut msgs, &mut merge_idx);
            }
            if let Some(h) = hooks.as_mut() {
                let now = h.now_ns();
                h.record_merge(now - mark.unwrap(), msgs.len() as u64);
                if h.spans_on(t) {
                    h.push_span("merge", mark.unwrap(), now);
                }
                mark = Some(now);
            }
            coord.mid_slot(ctx, t, fault_qdelta, &msgs);
            if let Some(h) = hooks.as_mut() {
                let now = h.now_ns();
                h.record_mid(now - mark.unwrap());
                if h.spans_on(t) {
                    h.push_span("mid_slot", mark.unwrap(), now);
                }
                mark = Some(now);
            }
            for s in 0..nsh {
                std::mem::swap(&mut coord.cmds[s], &mut *ex.cmds[s].lock().unwrap());
            }
            ex.barrier.wait(); // γ: cmds published
            ex.barrier.wait(); // δ: B done
            if let Some(h) = hooks.as_mut() {
                let now = h.now_ns();
                h.record_wait(now - mark.unwrap());
                if h.spans_on(t) {
                    h.push_span("wait_b", mark.unwrap(), now);
                }
                mark = Some(now);
            }
            let mut pre = 0u64;
            let mut end = 0u64;
            let mut tripped = false;
            for s in 0..nsh {
                let b = *ex.b[s].lock().unwrap();
                pre += b.pre_service;
                end += b.end_total;
                tripped |= b.guard_tripped;
            }
            let res = coord.end_slot(t, pre, end, tripped, queue_limit);
            ex.stop.store(res.is_some(), Ordering::Release);
            if let Some(h) = hooks.as_mut() {
                let now = h.now_ns();
                h.record_end(now - mark.unwrap());
                if h.spans_on(t) {
                    h.push_span("end_slot", mark.unwrap(), now);
                }
                mark = Some(now);
            }
            ex.barrier.wait(); // ε: control word published
            if let Some(h) = hooks.as_mut() {
                let now = h.now_ns();
                h.record_wait(now - mark.unwrap());
                h.end_of_slot(t);
            }
            if let Some(stop) = res {
                break stop;
            }
            t += 1;
        };

        for h in handles {
            let (mut chunk, wperf) = h.join().expect("worker thread panicked");
            shards.append(&mut chunk);
            if let Some(wp) = wperf {
                worker_perfs.push(wp);
            }
        }
        stop
    });
    (stop, worker_perfs)
}

/// One worker's slot loop over its contiguous shard chunk.
fn worker_loop<N: Network, S: Scheme>(
    mut chunk: Vec<Shard<S>>,
    base: usize,
    ex: &Exchange,
    ctx: &ShardCtx<'_, N>,
    t0: u64,
    nsh: usize,
    mut perf: Option<WorkerPerf>,
) -> (Vec<Shard<S>>, Option<WorkerPerf>) {
    let mut t = t0;
    loop {
        let mut mark = perf.as_ref().map(|w| w.now_ns());
        if ex.stop.load(Ordering::Acquire) {
            break;
        }
        for (i, sh) in chunk.iter_mut().enumerate() {
            sh.phase_a1(t, ctx);
            for ti in 0..nsh {
                if !sh.out[ti].is_empty() {
                    if ti != base + i {
                        if let Some(w) = perf.as_mut() {
                            w.boundary_packets += sh.out[ti].len() as u64;
                        }
                    }
                    let mut batch = std::mem::take(&mut sh.out[ti]);
                    ex.inboxes[ti].lock().unwrap().append(&mut batch);
                    sh.out[ti] = batch;
                }
            }
            *ex.fault_qdelta[base + i].lock().unwrap() = sh.fault_qdelta;
        }
        if let Some(w) = perf.as_mut() {
            let now = w.now_ns();
            w.record_work(0, t, mark.unwrap(), now);
            mark = Some(now);
        }
        ex.barrier.wait(); // α
        if let Some(w) = perf.as_mut() {
            let now = w.now_ns();
            w.record_wait(0, t, mark.unwrap(), now);
            mark = Some(now);
        }
        for (i, sh) in chunk.iter_mut().enumerate() {
            let mut inbox = std::mem::take(&mut *ex.inboxes[base + i].lock().unwrap());
            sh.phase_a2(t, ctx, &mut inbox);
            *ex.inboxes[base + i].lock().unwrap() = inbox;
            std::mem::swap(&mut *ex.msgs[base + i].lock().unwrap(), &mut sh.msgs);
        }
        if let Some(w) = perf.as_mut() {
            let now = w.now_ns();
            w.record_work(1, t, mark.unwrap(), now);
            mark = Some(now);
        }
        ex.barrier.wait(); // β
        if let Some(w) = perf.as_mut() {
            let now = w.now_ns();
            w.record_wait(1, t, mark.unwrap(), now);
            mark = Some(now);
        }
        ex.barrier.wait(); // γ
        if let Some(w) = perf.as_mut() {
            let now = w.now_ns();
            w.record_wait(2, t, mark.unwrap(), now);
            mark = Some(now);
        }
        for (i, sh) in chunk.iter_mut().enumerate() {
            let mut cmds = std::mem::take(&mut *ex.cmds[base + i].lock().unwrap());
            sh.phase_b(t, &ctx.cfg, &mut cmds);
            *ex.cmds[base + i].lock().unwrap() = cmds;
            *ex.b[base + i].lock().unwrap() = sh.b;
        }
        if let Some(w) = perf.as_mut() {
            let now = w.now_ns();
            w.record_work(3, t, mark.unwrap(), now);
            mark = Some(now);
        }
        ex.barrier.wait(); // δ
        if let Some(w) = perf.as_mut() {
            let now = w.now_ns();
            w.record_wait(3, t, mark.unwrap(), now);
            mark = Some(now);
        }
        ex.barrier.wait(); // ε
        if let Some(w) = perf.as_mut() {
            let now = w.now_ns();
            w.record_wait(4, t, mark.unwrap(), now);
        }
        t += 1;
    }
    (chunk, perf)
}
