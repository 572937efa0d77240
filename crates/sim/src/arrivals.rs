//! Task creation, written once.
//!
//! Every driver — the serial [`crate::Engine`], the sharded engine's
//! coordinator and `pstar-net`'s worker 0 — takes a slot's tasks from one
//! [`Injector`]: the arrival draws of [`generate_arrivals_into`], then,
//! per arrival, the admission gate, the length draw and the scheme's
//! generation draws, all at the arrival. Seeded alike, every driver
//! therefore creates the same tasks, whatever its queues hold; whether a
//! task then waits at its source is the hop rule's business
//! (`Hop::arrive`). The scenario layer (rate modulation, destination
//! matrices, the all-to-all phase) threads through the same code, which
//! is why seeded scenario runs stay bit-identical across serial, sharded
//! and net.
//!
//! A recorded [`pstar_traffic::Trace`] is the other arrival source
//! ([`Injector::replaying`]): its events take the place of the draws of
//! [`generate_arrivals_into`], and from there on a replayed task arrives
//! as a live one does — through the admission gate, suppressed at a
//! crashed source, with its recorded length in place of the length draw.

use crate::config::SimConfig;
use crate::faultepoch::FaultClock;
use crate::packet::Emit;
use crate::recovery::TokenGate;
use crate::scheme::Scheme;
use pstar_topology::NodeId;
use pstar_traffic::{
    ArrivalProcess, DestSampler, PoissonArrivals, ScenarioCursor, Trace, TraceEvent, TrafficMix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::BorrowMut;

/// Above this rate the exact product method is replaced by a normal
/// approximation. Knuth's method consumes Θ(λ) uniforms — a λ in the
/// millions (large-torus aggregate rates) would burn megadraws per slot
/// — and its chunked product underflows nothing but costs everything.
/// At λ = 10⁴ the CLT's relative error is already O(λ^{-1/2}) ≈ 1%, far
/// below the sampling noise of any window we measure.
const NORMAL_APPROX_THRESHOLD: f64 = 10_000.0;

/// Poisson sampling with chunking so that very large aggregate rates never
/// underflow Knuth's product method, switching to a two-draw normal
/// approximation above `NORMAL_APPROX_THRESHOLD` (λ = 10⁴).
///
/// The accumulator is 64-bit and the result saturates at `u32::MAX`
/// instead of wrapping — the overflow cliff the old 32-bit sum had at
/// λ ≈ 4.3·10⁹ (debug panic, silent wrap in release). Which branch runs
/// depends only on λ, so every backend consumes the same draw count for
/// the same rate.
pub fn sample_poisson(rng: &mut StdRng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda >= NORMAL_APPROX_THRESHOLD {
        // Box–Muller: exactly two uniforms. `1 - u` keeps ln's argument
        // in (0, 1] (StdRng's f64s live in [0, 1)).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let k = lambda + z * lambda.sqrt();
        if k <= 0.0 {
            return 0;
        }
        return k.round().min(f64::from(u32::MAX)) as u32;
    }
    let mut remaining = lambda;
    let mut total = 0u64;
    while remaining > 200.0 {
        total += u64::from(PoissonArrivals::new(200.0).sample(rng));
        remaining -= 200.0;
    }
    total += u64::from(PoissonArrivals::new(remaining).sample(rng));
    u32::try_from(total).unwrap_or(u32::MAX)
}

/// Consumer side of the per-slot arrival draw sequence.
///
/// The [`Injector`] implements it for every driver, so there is one copy
/// of the draw *order* — the part that must match variate-for-variate
/// for seeded runs to be bit-identical. Dead sources still consume their
/// draws; only the resulting task is suppressed.
pub trait ArrivalSink {
    /// Splits out the RNG and the destination sampler (both owned by
    /// the implementor) for the next draw.
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler);
    /// Whether `node` is currently crashed (all its links dead).
    fn source_dead(&self, node: NodeId) -> bool;
    /// Registers one arrival (`dest = None` is a broadcast).
    fn spawn(&mut self, src: NodeId, dest: Option<NodeId>);
}

/// One slot's worth of arrivals, in the one draw order.
///
/// Per slot, in order: (1) the modulator advances — zero draws for
/// steady/diurnal scenarios, one for MMPP/ON-OFF; (2) if this is the
/// scheduled all-to-all slot, every live node spawns one broadcast
/// (zero draws); (3) the background mix arrives at `multiplier ×` the
/// configured rate. A destination matrix that assigns a source no
/// destination (a permutation fixed point) suppresses the task without
/// consuming extra draws. Under the default scenario the sequence is
/// draw-for-draw identical to the pre-scenario engines.
pub fn generate_arrivals_into<C: ArrivalSink>(
    sink: &mut C,
    cursor: &mut ScenarioCursor,
    mix: TrafficMix,
    n: u32,
    slot: u64,
) {
    let mult = {
        let (rng, _) = sink.draw_ctx();
        cursor.advance(rng, slot)
    };
    if cursor.cfg.all_to_all_at == Some(slot) {
        for node in 0..n {
            if !sink.source_dead(NodeId(node)) {
                sink.spawn(NodeId(node), None);
            }
        }
    }
    if mix.bernoulli {
        // Modulated Bernoulli is rejected at validation (a multiplier
        // could push a per-slot probability past 1).
        debug_assert_eq!(mult, 1.0, "modulation must be Steady under Bernoulli");
        debug_assert!(
            matches!(mix.sources, pstar_traffic::SourceDistribution::Uniform),
            "Bernoulli arrivals only support uniform sources"
        );
        // Bernoulli arrivals are per-node by definition. Crashed nodes
        // generate nothing — but their variates are still drawn, so
        // fault and fault-free runs share the same randomness for every
        // surviving node.
        for node in 0..n {
            let (b, u) = {
                let (rng, _) = sink.draw_ctx();
                mix.sample(rng)
            };
            if sink.source_dead(NodeId(node)) {
                continue;
            }
            for _ in 0..b {
                sink.spawn(NodeId(node), None);
            }
            for _ in 0..u {
                let src = NodeId(node);
                let dest = {
                    let (rng, dests) = sink.draw_ctx();
                    dests.sample(rng, src)
                };
                if let Some(dest) = dest {
                    sink.spawn(src, Some(dest));
                }
            }
        }
    } else {
        // Superposition of independent Poissons: sample the aggregate
        // count once and scatter uniformly — exactly equivalent and
        // much faster than N per-node draws. An OFF-phase multiplier
        // zeroes the rate, and `sample_poisson(_, 0)` draws nothing —
        // consistently in every backend, since the multiplier is itself
        // part of the shared stream.
        let sources = mix.sources;
        let total_b = {
            let (rng, _) = sink.draw_ctx();
            sample_poisson(rng, mix.lambda_broadcast * mult * n as f64)
        };
        for _ in 0..total_b {
            let src = {
                let (rng, _) = sink.draw_ctx();
                sources.sample(rng, n)
            };
            if sink.source_dead(src) {
                continue;
            }
            sink.spawn(src, None);
        }
        let total_u = {
            let (rng, _) = sink.draw_ctx();
            sample_poisson(rng, mix.lambda_unicast * mult * n as f64)
        };
        for _ in 0..total_u {
            let (src, dest) = {
                let (rng, dests) = sink.draw_ctx();
                let src = sources.sample(rng, n);
                let dest = dests.sample(rng, src);
                (src, dest)
            };
            if sink.source_dead(src) {
                continue;
            }
            if let Some(dest) = dest {
                sink.spawn(src, Some(dest));
            }
        }
    }
}

/// A task as drawn at its arrival: everything its source needs to open
/// it, now or — deferred by source backpressure — in a later slot.
#[derive(Debug, Clone)]
pub struct InjectMsg {
    /// The source node.
    pub src: NodeId,
    /// The unicast destination; `None` for a broadcast.
    pub dest: Option<NodeId>,
    /// The arrival slot, which stays the task's generation time if it
    /// waits at its source.
    pub gen_time: u64,
    /// Packet length in slots.
    pub len: u16,
    /// Tagged for measurement (generated inside the window).
    pub measured: bool,
    /// The task's initial transmissions, as a range of the
    /// [`InjectBatch::emits`] arena the message travels with.
    pub emits: std::ops::Range<u32>,
}

/// Tasks and, in one arena beside them, every task's initial
/// transmissions. A batch is reused slot after slot (and travels whole
/// through a `pstar-net` mailbox hand-over), so drawing a task allocates
/// nothing.
#[derive(Debug, Default)]
pub struct InjectBatch {
    /// The tasks, in draw order.
    pub msgs: Vec<InjectMsg>,
    /// Their initial transmissions.
    pub emits: Vec<Emit>,
}

impl InjectBatch {
    /// `true` when the batch holds no task.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Empties the batch, keeping its allocations.
    pub fn clear(&mut self) {
        self.msgs.clear();
        self.emits.clear();
    }

    /// The tasks with their initial transmissions, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&InjectMsg, &[Emit])> {
        self.msgs
            .iter()
            .map(|m| (m, &self.emits[m.emits.start as usize..m.emits.end as usize]))
    }

    /// Appends a copy of `msg` with its transmissions `emits`.
    pub(crate) fn push(&mut self, msg: &InjectMsg, emits: &[Emit]) {
        let first = self.emits.len() as u32;
        self.emits.extend_from_slice(emits);
        self.msgs.push(InjectMsg {
            emits: first..self.emits.len() as u32,
            ..msg.clone()
        });
    }
}

/// Which field of a trace event named a node the topology does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceField {
    /// The source node.
    Src,
    /// The unicast destination.
    Dest,
}

/// Why [`Injector::replaying`] refused a trace: its first event that
/// names a node outside the topology. (`Trace::load` checks only the
/// syntax of the fields it reads.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceError {
    /// Index of the event in the trace (slot order).
    pub event: usize,
    /// The event's slot.
    pub slot: u64,
    /// Which of its fields is out of range.
    pub field: TraceField,
    /// The node it names.
    pub node: u32,
    /// Nodes the topology has.
    pub nodes: u32,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let field = match self.field {
            TraceField::Src => "source",
            TraceField::Dest => "destination",
        };
        write!(
            f,
            "trace event {} (slot {}) names {field} node {}, but the topology has {} nodes",
            self.event, self.slot, self.node, self.nodes
        )
    }
}

impl std::error::Error for TraceError {}

/// The one task generator (module docs): the seeded stream, the
/// destination sampler, the scenario cursor or a trace, and the
/// admission gate.
#[derive(Debug)]
pub struct Injector {
    rng: StdRng,
    mix: TrafficMix,
    dests: DestSampler,
    cursor: ScenarioCursor,
    /// `Some` when the tasks come from a trace instead of `mix`: its
    /// events not yet due, in slot order.
    replay: Option<std::iter::Peekable<std::vec::IntoIter<TraceEvent>>>,
    cfg: SimConfig,
    n: u32,
    gate: Option<TokenGate>,
}

impl Injector {
    /// The injector of a network with per-dimension extents `dims`,
    /// seeded from `cfg.seed`.
    ///
    /// Panics if `cfg.scenario` does not fit `dims`; the slot clock
    /// ([`crate::Clock::new`]) and the sharded engine validate it first.
    pub fn new(dims: &[u32], mix: TrafficMix, cfg: &SimConfig) -> Self {
        let n: u32 = dims.iter().product();
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            mix,
            dests: cfg
                .scenario
                .resolve_dests(dims)
                .expect("scenario validated by the driver"),
            cursor: ScenarioCursor::new(cfg.scenario),
            replay: None,
            gate: cfg.admission.map(|adm| TokenGate::new(adm, n as usize)),
            cfg: *cfg,
            n,
        }
    }

    /// The injector of a recorded `trace` on a network with
    /// per-dimension extents `dims`: each event is a task arriving at
    /// its slot with its recorded length, through the admission gate,
    /// and suppressed at a crashed source, as a live arrival is. A
    /// self-addressed unicast is skipped (it would never leave its
    /// source). A trace whose events name a node the network does not
    /// have is refused, naming the first such event.
    pub fn replaying(dims: &[u32], trace: &Trace, cfg: &SimConfig) -> Result<Self, TraceError> {
        let inj = Self::new(dims, TrafficMix::broadcast_only(0.0), cfg);
        for (event, ev) in trace.events().iter().enumerate() {
            let bad = [(TraceField::Src, Some(ev.src)), (TraceField::Dest, ev.dest)]
                .into_iter()
                .find_map(|(field, node)| node.filter(|&v| v >= inj.n).map(|v| (field, v)));
            if let Some((field, node)) = bad {
                return Err(TraceError {
                    event,
                    slot: ev.slot,
                    field,
                    node,
                    nodes: inj.n,
                });
            }
        }
        let replay = Some(trace.events().to_vec().into_iter().peekable());
        Ok(Self { replay, ..inj })
    }

    /// The admission gate and its rejection counts; `None` unless
    /// admission control is on.
    pub fn gate(&self) -> Option<&TokenGate> {
        self.gate.as_ref()
    }

    /// Draws slot `t`'s tasks into `out[owner(src)]`: the token refill,
    /// then [`generate_arrivals_into`]'s draws — or the trace's events
    /// due by `t` — each arrival through the admission gate and then its
    /// length and generation draws. A source `faults` says is crashed
    /// generates nothing (its draws are still taken).
    pub fn slot<S, B>(
        &mut self,
        t: u64,
        scheme: &S,
        faults: Option<&FaultClock>,
        out: &mut [B],
        owner: impl Fn(NodeId) -> usize,
    ) where
        S: Scheme + ?Sized,
        B: BorrowMut<InjectBatch>,
    {
        if let Some(gate) = self.gate.as_mut() {
            gate.refill();
        }
        let (mix, n) = (self.mix, self.n);
        let mut cursor = self.cursor;
        let mut replay = self.replay.take();
        let mut draws = SlotDraws {
            inj: self,
            scheme,
            faults,
            t,
            out,
            owner,
            len: None,
        };
        match replay.as_mut() {
            None => generate_arrivals_into(&mut draws, &mut cursor, mix, n, t),
            Some(events) => {
                while let Some(ev) = events.next_if(|ev| ev.slot <= t) {
                    if ev.dest != Some(ev.src) && !draws.source_dead(NodeId(ev.src)) {
                        draws.len = Some(ev.len.max(1));
                        draws.spawn(NodeId(ev.src), ev.dest.map(NodeId));
                    }
                }
            }
        }
        self.cursor = cursor;
        self.replay = replay;
    }

    /// Draws one task arriving at `src` in slot `t` into `out`, past
    /// every gate: its length (`len`, when given, overrides the length
    /// law) and the scheme's generation draws.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn draw<S: Scheme + ?Sized>(
        &mut self,
        t: u64,
        scheme: &S,
        src: NodeId,
        dest: Option<NodeId>,
        measured: bool,
        len: Option<u16>,
        out: &mut InjectBatch,
    ) {
        let len = len.unwrap_or_else(|| self.cfg.lengths.sample_length(&mut self.rng));
        // Schemes append to the arena, so it is handed to them as it is.
        let first = out.emits.len() as u32;
        match dest {
            None => scheme.on_broadcast_generated(src, &mut self.rng, &mut out.emits),
            Some(d) => scheme.on_unicast_generated(src, d, &mut self.rng, &mut out.emits),
        }
        let emits = first..out.emits.len() as u32;
        debug_assert!(!emits.is_empty(), "task with no transmissions");
        out.msgs.push(InjectMsg {
            src,
            dest,
            gen_time: t,
            len,
            measured,
            emits,
        });
    }
}

/// [`ArrivalSink`] of one slot's draws: the shared generator — or the
/// trace — owns the draw order, `spawn` takes each arrival through the
/// admission gate — which draws nothing, so a rejection leaves the
/// stream untouched — and then [`Injector::draw`].
struct SlotDraws<'a, S: ?Sized, B, F> {
    inj: &'a mut Injector,
    scheme: &'a S,
    faults: Option<&'a FaultClock>,
    t: u64,
    out: &'a mut [B],
    owner: F,
    /// The recorded length of the arrival spawned next, which overrides
    /// the length law.
    len: Option<u16>,
}

impl<S, B, F> ArrivalSink for SlotDraws<'_, S, B, F>
where
    S: Scheme + ?Sized,
    B: BorrowMut<InjectBatch>,
    F: Fn(NodeId) -> usize,
{
    fn draw_ctx(&mut self) -> (&mut StdRng, &DestSampler) {
        (&mut self.inj.rng, &self.inj.dests)
    }

    fn source_dead(&self, node: NodeId) -> bool {
        self.faults.is_some_and(|f| f.node_dead(node))
    }

    fn spawn(&mut self, src: NodeId, dest: Option<NodeId>) {
        let len = self.len.take();
        let measured = self.inj.cfg.in_window(self.t);
        let gate = self.inj.gate.as_mut();
        if gate.is_some_and(|g| !g.admit(src.index(), dest.is_none(), measured)) {
            return;
        }
        let out = self.out[(self.owner)(src)].borrow_mut();
        self.inj
            .draw(self.t, self.scheme, src, dest, measured, len, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_and_negative_rates_yield_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        assert_eq!(sample_poisson(&mut rng, -3.0), 0);
    }

    #[test]
    fn chunked_mean_matches_large_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let lambda = 1000.0;
        let trials = 2_000;
        let total: u64 = (0..trials)
            .map(|_| sample_poisson(&mut rng, lambda) as u64)
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - lambda).abs() < 0.02 * lambda, "mean {mean}");
    }

    #[test]
    fn normal_approx_mean_and_variance_track_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        let lambda = 5_000_000.0;
        let trials = 4_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| f64::from(sample_poisson(&mut rng, lambda)))
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
        // Poisson: mean = var = λ. Tolerances sized for n = 4000 draws.
        assert!((mean - lambda).abs() < 4.0 * (lambda / trials as f64).sqrt() * 3.0);
        assert!(
            (var / lambda - 1.0).abs() < 0.1,
            "variance ratio {}",
            var / lambda
        );
    }

    #[test]
    fn normal_approx_uses_exactly_two_draws() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let _ = sample_poisson(&mut a, 1e7);
        let _: f64 = b.gen();
        let _: f64 = b.gen();
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn huge_lambda_saturates_instead_of_wrapping() {
        let mut rng = StdRng::seed_from_u64(4);
        // λ far beyond u32: the old 32-bit accumulator wrapped (release)
        // or panicked (debug); the fix saturates.
        let k = sample_poisson(&mut rng, 1e12);
        assert_eq!(k, u32::MAX);
    }
}
