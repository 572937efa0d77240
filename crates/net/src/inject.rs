//! Traffic injection for the runtime.
//!
//! [`VirtualInjector`] is the runtime's one injector: worker 0 runs it
//! for the whole network, and it consumes its RNG in **exactly** the
//! order `pstar_sim::Engine` does — the draw sequence is the shared
//! `pstar_sim::generate_arrivals_into` (Poisson totals → per-task
//! source/destination draws), then, per arrival, the admission gate, the
//! length draw and the scheme's generation draws. Seeded with the same
//! `SimConfig::seed`, it therefore produces the *identical* task set as
//! a simulator run of the same spec. Each task goes to the owner of its
//! source node, in that owner's slice of the slot's hand-over.
//!
//! Generation is the only place the mirror has to hold: the forwarding
//! workers draw nothing from it. A broadcast copy's forwards take no
//! randomness at all, so broadcast-only runs agree with the simulator
//! bit for bit; a unicast hop's tie coin comes from the forwarding
//! worker's own stream, so runs with unicast traffic agree with it
//! statistically.

use pstar_sim::{
    generate_arrivals_into, ArrivalSink, Emit, LivenessView, Scheme, SimConfig, TokenGate,
};
use pstar_topology::NodeId;
use pstar_traffic::{DestSampler, ScenarioCursor, TrafficMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runtime::Batch;

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

/// The global injector (see module docs).
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

    /// Generates slot `t`'s arrivals into `out`, the outbox of each
    /// source's owner (`node_owner`), mirroring `Engine::step`'s phase-2
    /// order: token refill, then the arrival draws. The draw sequence
    /// itself is not mirrored by hand — it *is* the engine's, via
    /// `pstar_sim::generate_arrivals_into`, with this injector plugged in
    /// as the [`ArrivalSink`]. `view` suppresses injection at dead nodes
    /// at exactly the points the engine does (the sink's `source_dead`
    /// probe), so the RNG stream stays aligned with the simulator under
    /// the same fault plan — for any scenario.
    pub fn slot<S: Scheme + ?Sized>(
        &mut self,
        t: u64,
        scheme: &S,
        view: Option<&LivenessView>,
        node_owner: &[u32],
        out: &mut [Batch],
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
            node_owner,
            out,
        };
        generate_arrivals_into(&mut sink, &mut cursor, mix, n, t);
        self.cursor = cursor;
    }
}

/// [`ArrivalSink`] adapter: the shared generator owns the draw order;
/// `spawn` takes each arrival through the admission gate and the length
/// and scheme draws, in the engine's exact order.
struct VirtualSink<'a, S: Scheme + ?Sized> {
    inj: &'a mut VirtualInjector,
    scheme: &'a S,
    view: Option<&'a LivenessView>,
    t: u64,
    node_owner: &'a [u32],
    out: &'a mut [Batch],
}

impl<S: Scheme + ?Sized> ArrivalSink for VirtualSink<'_, S> {
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler) {
        let inj = &mut *self.inj;
        (&mut inj.rng, &inj.dests)
    }

    /// Dead nodes generate nothing; without a fault plan (`view` is
    /// `None`) the probe costs nothing.
    fn source_dead(&self, node: NodeId) -> bool {
        self.view.is_some_and(|v| !v.node_alive(node))
    }

    fn spawn(&mut self, src: NodeId, dest: Option<NodeId>) {
        let inj = &mut *self.inj;
        let measured = inj.cfg.in_window(self.t);
        // The gate fires *before* the length/scheme draws, exactly like
        // `Engine::arrive` — a rejected arrival leaves the RNG stream
        // untouched.
        let gate = inj.gate.as_mut();
        if gate.is_some_and(|g| !g.admit(src.index(), dest.is_none(), measured)) {
            return;
        }
        let len = inj.cfg.lengths.sample_length(&mut inj.rng);
        let out = &mut self.out[self.node_owner[src.index()] as usize].inject;
        // Schemes append to the arena, so it is handed to them as it is.
        let first = out.emits.len() as u32;
        match dest {
            None => self
                .scheme
                .on_broadcast_generated(src, &mut inj.rng, &mut out.emits),
            Some(d) => self
                .scheme
                .on_unicast_generated(src, d, &mut inj.rng, &mut out.emits),
        }
        let emits = first..out.emits.len() as u32;
        debug_assert!(!emits.is_empty(), "task with no transmissions");
        out.msgs.push(InjectMsg {
            task: inj.next_task,
            src,
            gen_time: self.t,
            len,
            measured,
            broadcast: dest.is_none(),
            emits,
        });
        inj.next_task += 1;
    }
}
