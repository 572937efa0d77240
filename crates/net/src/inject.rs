//! Traffic injection for the runtime.
//!
//! [`VirtualInjector`] is the virtual-time coordinator: one global
//! generator that consumes its RNG in **exactly** the order
//! `pstar_sim::Engine::generate_arrivals` does (Poisson totals → per-task
//! source/destination draws → admission gate → length draw → scheme
//! generation draws). Seeded with the same `SimConfig::seed`, it
//! therefore produces the *identical* measured task set as a simulator
//! run of the same spec — the foundation of the sim-vs-net agreement
//! gates. The mirror is exact for workloads whose forwarding consumes no
//! randomness (broadcast-only mixes: `on_broadcast_arrival` takes no
//! RNG); unicast forwarding draws tie-break bits mid-slot
//! (`unicast::next_hop`), which the simulator interleaves with arrival
//! draws, so mixed workloads agree statistically but not per-task.

use pstar_sim::{
    generate_arrivals_into, ArrivalSink, Emit, LivenessView, Scheme, SimConfig, TokenGate,
};
use pstar_topology::NodeId;
use pstar_traffic::{DestSampler, ScenarioCursor, TrafficMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A freshly generated task, routed to the owner of its source node for
/// enqueueing (and, for broadcasts, registration — unicast tasks are
/// registered at the owner of their destination via a control message).
#[derive(Debug)]
pub(crate) struct InjectMsg {
    pub task: u32,
    pub src: NodeId,
    pub gen_time: u64,
    pub len: u16,
    pub measured: bool,
    pub broadcast: bool,
    /// The task's initial transmissions, as a range of the
    /// [`InjectBatch::emits`] arena the message travels with.
    pub emits: std::ops::Range<u32>,
}

/// One slot's injections for one owner: the tasks and, in one arena
/// beside them, every task's initial transmissions. The batch travels
/// whole (a mailbox hand-over swaps it) and comes back emptied with its
/// allocations, so generating a task allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct InjectBatch {
    pub msgs: Vec<InjectMsg>,
    pub emits: Vec<Emit>,
}

impl InjectBatch {
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// Where the global injector puts a task: the batch bound for the owner
/// of its source node.
pub(crate) trait InjectRoute {
    fn batch_for(&mut self, src: NodeId) -> &mut InjectBatch;
}

/// Dead-node injection suppression probe. `None` = no fault plan (the
/// branch costs nothing); the check sites mirror
/// `Engine::generate_arrivals` exactly — see each caller.
#[inline]
fn node_dead(view: Option<&LivenessView>, node: NodeId) -> bool {
    view.is_some_and(|v| !v.node_alive(node))
}

/// Shared per-arrival generation: admission gate (`bucket` is the
/// source's index in it), then the length and scheme draws in the
/// engine's exact order.
#[allow(clippy::too_many_arguments)]
fn generate_task<S: Scheme + ?Sized>(
    rng: &mut StdRng,
    cfg: &SimConfig,
    scheme: &S,
    gate: Option<&mut TokenGate>,
    bucket: usize,
    task: u32,
    src: NodeId,
    dest: Option<NodeId>,
    t: u64,
    measured: bool,
    out: &mut InjectBatch,
) -> bool {
    // The gate fires *before* the length/scheme draws, exactly like
    // `Engine::arrive` — a rejected arrival leaves the RNG stream
    // untouched.
    if gate.is_some_and(|g| !g.admit(bucket, dest.is_none(), measured)) {
        return false;
    }
    let len = cfg.lengths.sample_length(rng);
    // Schemes append to `out`, so the arena is handed to them as it is.
    let first = out.emits.len() as u32;
    match dest {
        None => scheme.on_broadcast_generated(src, rng, &mut out.emits),
        Some(d) => scheme.on_unicast_generated(src, d, rng, &mut out.emits),
    }
    let emits = first..out.emits.len() as u32;
    debug_assert!(!emits.is_empty(), "task with no transmissions");
    out.msgs.push(InjectMsg {
        task,
        src,
        gen_time: t,
        len,
        measured,
        broadcast: dest.is_none(),
        emits,
    });
    true
}

/// The virtual-time global injector (see module docs).
pub(crate) struct VirtualInjector {
    rng: StdRng,
    mix: TrafficMix,
    dests: DestSampler,
    /// Scenario modulation cursor, advanced through the shared generator.
    cursor: ScenarioCursor,
    cfg: SimConfig,
    n: u32,
    /// The admission gate (and its rejection counters); `None` unless
    /// admission control is on.
    pub gate: Option<TokenGate>,
    next_task: u32,
}

impl VirtualInjector {
    /// Builds the global injector for a network with the given
    /// per-dimension extents. The caller (`run_net_inner`) has already
    /// validated `cfg.scenario` against the topology.
    pub fn new(dims: &[u32], mix: TrafficMix, cfg: SimConfig) -> Self {
        let n: u32 = dims.iter().product();
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            mix,
            dests: cfg
                .scenario
                .resolve_dests(dims)
                .expect("scenario validated by run_net"),
            cursor: ScenarioCursor::new(cfg.scenario),
            gate: cfg.admission.map(|adm| TokenGate::new(adm, n as usize)),
            cfg,
            n,
            next_task: 0,
        }
    }

    fn measured_at(&self, t: u64) -> bool {
        t >= self.cfg.warmup_slots && t < self.cfg.measure_end()
    }

    /// Generates slot `t`'s arrivals into `route`'s batches, mirroring
    /// `Engine::step`'s phase-2 order: token refill, then the arrival
    /// draws. The draw sequence itself is not mirrored by hand — it *is*
    /// the engine's, via `pstar_sim::generate_arrivals_into`, with this
    /// injector plugged in as the [`ArrivalSink`]. `view` suppresses
    /// injection at dead nodes at exactly the points the engine does
    /// (the sink's `source_dead` probe), so the RNG stream stays aligned
    /// with the simulator under the same fault plan — for any scenario.
    pub fn slot<S: Scheme + ?Sized, R: InjectRoute>(
        &mut self,
        t: u64,
        scheme: &S,
        view: Option<&LivenessView>,
        route: &mut R,
    ) {
        if let Some(gate) = self.gate.as_mut() {
            gate.refill();
        }
        let n = self.n;
        let mix = self.mix;
        let mut cursor = self.cursor;
        let mut sink = VirtualSink {
            inj: self,
            scheme,
            view,
            t,
            route,
        };
        generate_arrivals_into(&mut sink, &mut cursor, mix, n, t);
        self.cursor = cursor;
    }
}

/// [`ArrivalSink`] adapter: the shared generator owns the draw order;
/// `spawn` performs the per-task admission gate and length/scheme draws
/// in the engine's exact order (`generate_task`).
struct VirtualSink<'a, S: Scheme + ?Sized, R: InjectRoute> {
    inj: &'a mut VirtualInjector,
    scheme: &'a S,
    view: Option<&'a LivenessView>,
    t: u64,
    route: &'a mut R,
}

impl<S: Scheme + ?Sized, R: InjectRoute> ArrivalSink for VirtualSink<'_, S, R> {
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler) {
        let inj = &mut *self.inj;
        (&mut inj.rng, &inj.dests)
    }

    fn source_dead(&self, node: NodeId) -> bool {
        node_dead(self.view, node)
    }

    fn spawn(&mut self, src: NodeId, dest: Option<NodeId>) {
        let task = self.inj.next_task;
        let measured = self.inj.measured_at(self.t);
        if generate_task(
            &mut self.inj.rng,
            &self.inj.cfg,
            self.scheme,
            self.inj.gate.as_mut(),
            src.index(),
            task,
            src,
            dest,
            self.t,
            measured,
            self.route.batch_for(src),
        ) {
            self.inj.next_task += 1;
        }
    }
}
