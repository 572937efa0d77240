//! Loss recovery (end-to-end ARQ) and overload-protection vocabulary.
//!
//! The engine's default behaviour treats every drop — dead link, full
//! finite buffer — as permanent: the receptions a packet was responsible
//! for are cancelled and the task is damaged. The types here configure
//! the optional recovery layer that turns those losses into *retries*:
//!
//! * [`ArqConfig`] — an end-to-end ARQ protocol. Receptions are
//!   acknowledged (instantly, on a contention-free control plane); a lost
//!   copy is parked in a retransmit buffer and re-injected at the failed
//!   hop after a deterministic exponential-backoff timeout with seeded
//!   jitter. A bounded retry budget ends in a `GaveUp` terminal state
//!   that settles the loss exactly like the non-ARQ engine.
//! * [`FullQueuePolicy`] — what a *full* bounded output queue does with a
//!   newcomer: drop the newcomer (tail drop), evict the lowest-priority
//!   backlogged packet, or defer injection at the source (backpressure).
//! * [`AdmissionConfig`] — a per-node token bucket gating task creation,
//!   so offered loads at or above saturation (ρ ≥ 1) degrade goodput
//!   smoothly instead of diverging.
//!
//! Everything is seeded and slot-driven — no wall clock — so runs remain
//! bit-for-bit reproducible, and the whole layer is carried behind
//! `Option`s so a run with recovery disabled is bit-identical to one on
//! an engine built before this module existed (enforced by the
//! zero-overhead proptests).

use crate::ledger::ArqCounters;
use crate::packet::Packet;
use std::collections::HashMap;

/// End-to-end ARQ (retransmission) configuration; install via
/// [`crate::SimConfig::arq`].
///
/// A lost copy's attempt `a` (0 = the original transmission) waits
/// `base_timeout << min(a, max_backoff_exp)` slots plus a uniform jitter
/// in `0..=jitter` before being re-injected at the hop where it was
/// lost. The jitter is a hash of the run seed and of where and when the
/// copy was lost ([`Arq::on_loss`]) — no stream is drawn from, so
/// enabling ARQ never perturbs traffic randomness and a timer fires at
/// the same slot whichever driver armed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Slots before the first retransmission attempt (must be ≥ 1; 0 is
    /// clamped to 1 so a retransmission never fires in its loss slot).
    pub base_timeout: u64,
    /// Exponential-backoff cap: attempt `a` waits
    /// `base_timeout << min(a, max_backoff_exp)`.
    pub max_backoff_exp: u32,
    /// Maximum extra jitter slots added to every timeout (uniform over
    /// `0..=jitter`), decorrelating synchronized losses.
    pub jitter: u64,
    /// Retry budget per lost copy: after this many failed
    /// retransmissions the copy enters the `GaveUp` terminal state and
    /// its receptions are settled as lost. `None` retries forever.
    pub max_retries: Option<u32>,
}

impl Default for ArqConfig {
    fn default() -> Self {
        Self {
            base_timeout: 32,
            max_backoff_exp: 5,
            jitter: 7,
            max_retries: Some(16),
        }
    }
}

impl ArqConfig {
    /// The deterministic (pre-jitter) backoff delay of attempt `a`.
    #[inline]
    pub fn backoff(&self, attempt: u32) -> u64 {
        let exp = attempt.min(self.max_backoff_exp).min(63);
        self.base_timeout.saturating_mul(1u64 << exp).max(1)
    }
}

/// Policy applied when a packet arrives at a full bounded output queue
/// (only meaningful with [`crate::SimConfig::queue_capacity`] set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FullQueuePolicy {
    /// Drop the arriving packet (the engine's historical behaviour).
    #[default]
    DropTail,
    /// Evict the tail of the lowest-priority backlogged class that is
    /// strictly below the arriving packet's class, then enqueue the
    /// arrival; if nothing lower is queued, the arrival is dropped.
    DropLowestClass,
    /// Never drop at the queue: new tasks are *deferred at the source*
    /// while any of the source node's output queues is full, and
    /// re-attempted each slot in arrival order — each as drawn at its
    /// arrival, length and tree included. In-transit forwards may
    /// briefly exceed the bound (a store-and-forward hop cannot refuse a
    /// packet already on the wire), exactly like the documented
    /// one-slot overflow of a fault requeue.
    Backpressure,
}

/// Per-node token-bucket admission control; install via
/// [`crate::SimConfig::admission`].
///
/// Each node holds a fractional token balance, refilled by `rate`
/// tokens per slot and capped at `burst`. Creating a task consumes one
/// token; an arrival finding an empty bucket is *rejected* (counted,
/// never created). With `rate` below the per-node saturation task rate,
/// admitted load stays in the stable region for any offered ρ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Tokens added per slot (tasks per slot per node).
    pub rate: f64,
    /// Bucket depth (maximum burst of back-to-back admissions).
    pub burst: f64,
}

/// The admission gate of one injector: [`AdmissionConfig`]'s token
/// buckets for the nodes it generates for, and the rejections it counted.
/// It consumes no randomness, so a rejected arrival leaves every RNG
/// stream untouched.
#[derive(Debug, Clone)]
pub struct TokenGate {
    tokens: Vec<f64>,
    rate: f64,
    burst: f64,
    /// Measured broadcasts rejected so far.
    pub rejected_broadcasts: u64,
    /// Measured unicasts rejected so far.
    pub rejected_unicasts: u64,
}

impl TokenGate {
    /// A gate over `nodes` full buckets.
    pub fn new(cfg: AdmissionConfig, nodes: usize) -> Self {
        Self {
            tokens: vec![cfg.burst; nodes],
            rate: cfg.rate,
            burst: cfg.burst,
            rejected_broadcasts: 0,
            rejected_unicasts: 0,
        }
    }

    /// The per-slot refill, before the slot's arrivals.
    pub fn refill(&mut self) {
        for tok in &mut self.tokens {
            *tok = (*tok + self.rate).min(self.burst);
        }
    }

    /// Takes a token from bucket `node` for one arrival; an empty bucket
    /// rejects it (counted by kind when `measured`).
    pub fn admit(&mut self, node: usize, broadcast: bool, measured: bool) -> bool {
        let tok = &mut self.tokens[node];
        if *tok < 1.0 {
            if measured {
                if broadcast {
                    self.rejected_broadcasts += 1;
                } else {
                    self.rejected_unicasts += 1;
                }
            }
            return false;
        }
        *tok -= 1.0;
        true
    }
}

/// A lost transmission parked in the retransmit buffer, waiting for its
/// backoff timer: the packet re-enters service at `link` when the timer
/// fires (its `attempt` counter has already been advanced).
#[derive(Debug, Clone, Copy)]
pub struct RetxEntry {
    /// Dense id of the link the copy was lost at.
    pub link: u32,
    /// The copy to re-inject (with `attempt` already incremented).
    pub pkt: Packet,
}

const WHEEL_BUCKETS: usize = 256;

/// A hashed timing wheel holding armed retransmission timers.
///
/// `schedule` and per-slot `drain_due` are O(bucket occupancy); with
/// 256 buckets and backoff delays that rarely exceed a few thousand
/// slots, buckets stay short. Within a slot, timers fire in the order
/// they were armed, keeping runs deterministic.
///
/// Public so that external runtimes (`pstar-net`) can reuse the exact
/// retransmission data path instead of reimplementing it.
#[derive(Debug)]
pub struct TimeoutWheel {
    buckets: Vec<Vec<(u64, RetxEntry)>>,
    len: usize,
}

impl TimeoutWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        Self {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    /// Number of armed timers.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no timer is armed.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms a timer firing at slot `fire` (must be in the future).
    pub fn schedule(&mut self, fire: u64, entry: RetxEntry) {
        self.buckets[(fire as usize) & (WHEEL_BUCKETS - 1)].push((fire, entry));
        self.len += 1;
    }

    /// Moves every entry due exactly at `now` into `out`, preserving
    /// arming order; entries for later rounds of the wheel stay put.
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<RetxEntry>) {
        if self.len == 0 {
            return;
        }
        let bucket = &mut self.buckets[(now as usize) & (WHEEL_BUCKETS - 1)];
        let mut kept = 0;
        for i in 0..bucket.len() {
            let (fire, entry) = bucket[i];
            if fire == now {
                out.push(entry);
                self.len -= 1;
            } else {
                bucket[kept] = (fire, entry);
                kept += 1;
            }
        }
        bucket.truncate(kept);
    }
}

/// Seed perturbation of the ARQ jitter: XOR it into the run seed before
/// [`Arq::new`], so the jitter hash shares no input with a traffic
/// stream's seed.
pub const ARQ_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijection on `u64` whose output bits all
/// depend on all input bits. Decorrelates seeds derived from a counter
/// (the tie coins' node streams) and is the mixing step of the ARQ jitter
/// hash.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The ARQ recovery state of one driver (the serial engine, or one
/// `pstar-net` worker for the links it owns): armed timers, the jitter
/// seed, and the counters. What arming a timer means for the task
/// (marking it retransmitted) and what giving up means (settling the
/// loss) stay with the caller.
#[derive(Debug)]
pub struct Arq {
    cfg: ArqConfig,
    wheel: TimeoutWheel,
    jitter_seed: u64,
    /// Per link: the last slot a timer was armed in for a loss on it,
    /// and how many were.
    armed: HashMap<u32, (u64, u32)>,
    /// Scratch lent out by [`Arq::take_due`].
    due: Vec<RetxEntry>,
    /// What the layer did so far; the caller adds the events it alone
    /// sees (acks, successful re-injections, receptions given up).
    pub counters: ArqCounters,
}

impl Arq {
    /// An idle layer hashing jitter from `jitter_seed` (the run seed
    /// salted with [`ARQ_SEED_SALT`] — the same for every driver of a
    /// run, whatever links it owns).
    pub fn new(cfg: ArqConfig, jitter_seed: u64) -> Self {
        Self {
            cfg,
            wheel: TimeoutWheel::new(),
            jitter_seed,
            armed: HashMap::new(),
            due: Vec::new(),
            counters: ArqCounters::default(),
        }
    }

    /// `true` when no timer is armed.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.wheel.is_empty()
    }

    /// The copy `pkt` was lost at `link` in slot `now`: arms its next
    /// backoff timer — the copy will come back one attempt older, in
    /// class `boosted` — and returns `true`, or returns `false` once
    /// the retry budget is spent (the `GaveUp` terminal state: the
    /// caller settles the loss for good). The timeout's jitter is a pure
    /// function of `(jitter seed, link, now, k)` for the `k`-th timer
    /// armed for a loss on `link` in slot `now` — the order a link loses
    /// packets in is the same under every driver, and copies lost
    /// together get jitters of their own. (A function of the attempt, or
    /// of what the packet carries, would not do: two tasks of one source
    /// and slot look alike hop after hop and would retry in lockstep.)
    pub fn on_loss(&mut self, now: u64, link: u32, pkt: Packet, boosted: u8) -> bool {
        let attempt = pkt.attempt as u32;
        if self.cfg.max_retries.is_some_and(|m| attempt >= m) {
            self.counters.gave_up_copies += 1;
            return false;
        }
        let jitter = match self.cfg.jitter.checked_add(1) {
            Some(span) if span > 1 => {
                let armed = self.armed.entry(link).or_default();
                if armed.0 != now {
                    *armed = (now, 0);
                }
                armed.1 += 1;
                let at = splitmix64(self.jitter_seed ^ now);
                splitmix64(at ^ (u64::from(link) << 32 | u64::from(armed.1))) % span
            }
            _ => 0,
        };
        self.counters.timer_armed(attempt);
        let pkt = Packet {
            attempt: pkt.attempt.saturating_add(1),
            priority: boosted,
            ..pkt
        };
        self.wheel.schedule(
            now + self.cfg.backoff(attempt) + jitter,
            RetxEntry { link, pkt },
        );
        true
    }

    /// The timers firing at `now`, in arming order, in a buffer to hand
    /// back through [`Arq::give_back`] (so firing allocates nothing).
    pub fn take_due(&mut self, now: u64) -> Vec<RetxEntry> {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        self.wheel.drain_due(now, &mut due);
        due
    }

    /// Returns the buffer lent by [`Arq::take_due`].
    pub fn give_back(&mut self, due: Vec<RetxEntry>) {
        self.due = due;
    }

    /// Closes the layer at the end of a run: the counters, with the
    /// timers still armed recorded.
    pub fn finish(mut self) -> ArqCounters {
        self.counters.pending_at_end = self.wheel.len();
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use pstar_topology::NodeId;

    fn entry(link: u32, task: u32) -> RetxEntry {
        RetxEntry {
            link,
            pkt: Packet {
                task,
                gen_time: 0,
                enqueue_time: 0,
                len: 1,
                priority: 0,
                vc: 0,
                attempt: 1,
                kind: PacketKind::Unicast { dest: NodeId(0) },
            },
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let cfg = ArqConfig {
            base_timeout: 8,
            max_backoff_exp: 3,
            jitter: 0,
            max_retries: None,
        };
        assert_eq!(cfg.backoff(0), 8);
        assert_eq!(cfg.backoff(1), 16);
        assert_eq!(cfg.backoff(3), 64);
        assert_eq!(cfg.backoff(10), 64, "capped at max_backoff_exp");
    }

    #[test]
    fn zero_base_timeout_still_waits_a_slot() {
        let cfg = ArqConfig {
            base_timeout: 0,
            max_backoff_exp: 0,
            jitter: 0,
            max_retries: None,
        };
        assert_eq!(cfg.backoff(0), 1);
    }

    #[test]
    fn wheel_fires_at_exact_slot_in_arming_order() {
        let mut w = TimeoutWheel::new();
        w.schedule(10, entry(1, 1));
        w.schedule(12, entry(2, 2));
        w.schedule(10, entry(3, 3));
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        w.drain_due(9, &mut out);
        assert!(out.is_empty());
        w.drain_due(10, &mut out);
        assert_eq!(out.iter().map(|e| e.link).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(w.len(), 1);
        out.clear();
        w.drain_due(12, &mut out);
        assert_eq!(out[0].link, 2);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_wraparound_keeps_later_rounds() {
        // Two timers that hash to the same bucket, one full wheel
        // revolution apart: only the earlier one fires at its slot.
        let mut w = TimeoutWheel::new();
        w.schedule(5, entry(1, 1));
        w.schedule(5 + WHEEL_BUCKETS as u64, entry(2, 2));
        let mut out = Vec::new();
        w.drain_due(5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].link, 1);
        assert_eq!(w.len(), 1);
        out.clear();
        w.drain_due(5 + WHEEL_BUCKETS as u64, &mut out);
        assert_eq!(out[0].link, 2);
        assert!(w.is_empty());
    }

    /// The jitter is a function of the loss — the link, the slot, and
    /// the loss's place among that link's losses of the slot — not of
    /// who armed the timer or of what it armed elsewhere: two layers
    /// that saw different histories fire the same losses at the same
    /// slots, within `backoff ..= backoff + jitter`, and losses that
    /// look alike in every field do not all pick the same slot.
    #[test]
    fn jitter_depends_on_the_loss_alone() {
        let cfg = ArqConfig::default();
        let arm = |arq: &mut Arq, now, link| {
            let pkt = Packet {
                attempt: 0,
                ..entry(link, 9).pkt
            };
            assert!(arq.on_loss(now, link, pkt, 0));
        };
        let fire_slots = |arq: &mut Arq| -> Vec<(u64, u32)> {
            let mut fired = Vec::new();
            for t in 100..200 {
                let due = arq.take_due(t);
                fired.extend(due.iter().map(|e| (t, e.link)));
                arq.give_back(due);
            }
            fired.retain(|&(_, link)| link == 5);
            fired
        };
        let (mut alone, mut busy) = (Arq::new(cfg, 77), Arq::new(cfg, 77));
        for k in 0..40 {
            arm(&mut alone, 100, 5);
            // The other layer also owns links 0 to 19, and loses on them
            // in between.
            arm(&mut busy, 100, k % 20 + 6 * (k % 20 / 5));
            arm(&mut busy, 100, 5);
        }
        let slots = fire_slots(&mut alone);
        assert_eq!(slots, fire_slots(&mut busy));
        assert_eq!(slots.len(), 40);
        let distinct: std::collections::BTreeSet<u64> = slots.iter().map(|&(t, _)| t).collect();
        assert_eq!(
            distinct.into_iter().collect::<Vec<_>>(),
            (132..=139).collect::<Vec<_>>(),
            "every jitter value is drawn"
        );
    }
}
