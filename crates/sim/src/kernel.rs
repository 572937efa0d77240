//! The link kernel: the model's one moving part, written once.
//!
//! Every directed link is a multi-class head-of-line priority queue that
//! serves one packet at a time (DESIGN.md §3). [`LinkKernel`] owns that
//! state for a contiguous range of links — the queued packets, the
//! transmission in flight, which links are backlogged, busy and alive,
//! and the service-start statistics ([`LinkCounters`]) — and makes the
//! five decisions every backend needs: **admit** a packet, **kill** or
//! **revive** a link, **finish** the transmissions completing in a slot,
//! **start** service on idle links, and **re-admit** a retransmission.
//! The serial [`crate::Engine`] runs one kernel over every link, each
//! shard of [`crate::ShardedEngine`] and each `pstar-net` worker one
//! over the links of its nodes.
//!
//! The kernel reports outcomes ([`Admit`]) and never touches a task
//! ledger, a scheme, a random stream or a channel: what a delivery or a
//! terminal loss *means* stays with the driver, so the kernel does not
//! branch on who calls it. Links are named by their global id
//! throughout; the range offset never leaves this module.
//!
//! Layout: every packet of the range, queued or in flight, lives in one
//! arena of intrusively linked nodes with a LIFO free list — a packet is
//! written once when admitted and read in place until delivered. A
//! (link, class) FIFO is a head, a tail and a length; a link has a class
//! mask, the node it is transmitting and that transmission's finish
//! slot; and one `u64` bitset each for *backlogged*, *busy* and *alive*
//! lets the finish and start scans walk set bits in ascending link order
//! a word at a time. Everything but the arena is all-zero when idle, so
//! building a kernel touches almost no memory.
//! [`crate::PriorityQueue`] is the reference model this is
//! property-tested against (`tests/net.rs`).
//!
//! `admit`, `next_finished` and `start` are `#[inline(always)]`: they
//! run once per packet-hop inside the drivers' largest functions, where
//! a plain `#[inline]` hint was declined and cost the sharded engine
//! 10 % on `ucast16_rho30`.

use crate::config::SimConfig;
use crate::faultepoch::LossCause;
use crate::ledger::LinkCounters;
use crate::packet::{Packet, MAX_PRIORITY_CLASSES};
use crate::recovery::FullQueuePolicy;
use pstar_faults::DeadLinkPolicy;

/// Sentinel for "no node" in the arena's intrusive lists.
const NIL: u32 = u32::MAX;

/// What the kernel did with a packet offered to a link.
#[derive(Debug, Clone, Copy)]
pub enum Admit {
    /// The packet is queued.
    Queued,
    /// The packet is queued in place of this victim, the newest packet
    /// of the least important backlog
    /// ([`FullQueuePolicy::DropLowestClass`]); the victim is lost to
    /// [`LossCause::Overflow`].
    Evicted(Packet),
    /// The packet was refused and is handed back with the cause.
    Lost(Packet, LossCause),
}

/// One queued packet and the node behind it in its class FIFO (or in
/// the free list).
#[derive(Clone, Copy)]
struct Node {
    pkt: Packet,
    next: u32,
}

#[inline]
fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] & (1u64 << (i & 63)) != 0
}

#[inline]
fn bit_set(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1u64 << (i & 63);
}

#[inline]
fn bit_clear(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1u64 << (i & 63));
}

/// Progress of one pass over the busy links (see
/// [`LinkKernel::next_finished`]): the word being walked and its
/// not-yet-visited busy bits.
#[derive(Debug)]
pub struct FinishScan {
    word: usize,
    mask: u64,
}

/// Queueing, in-flight state and service for the links `lo .. hi` (see
/// the module docs).
pub struct LinkKernel {
    lo: u32,
    capacity: Option<u32>,
    full_policy: FullQueuePolicy,
    dead_policy: DeadLinkPolicy,

    arena: Vec<Node>,
    free_head: u32,
    /// The (link, class) FIFOs threaded through the arena, indexed
    /// `link * MAX_PRIORITY_CLASSES + class`; head and tail mean
    /// something only while the length is nonzero.
    fifo_head: Vec<u32>,
    fifo_tail: Vec<u32>,
    fifo_len: Vec<u32>,
    /// Bit `c` set ⇔ class `c` of the link is non-empty.
    class_mask: Vec<u8>,

    backlog: Vec<u64>,
    busy: Vec<u64>,
    alive: Vec<u64>,
    /// The node a link is transmitting and the slot it completes in;
    /// meaningful while the link's busy bit is set.
    flight_node: Vec<u32>,
    flight_finish: Vec<u64>,

    queued: u64,
    counters: LinkCounters,
}

impl LinkKernel {
    /// An idle kernel for the global links `lo .. hi` of a
    /// `d`-dimensional topology: every link alive, the queue bound and
    /// full-queue policy taken from `cfg`, dead links dropping
    /// ([`DeadLinkPolicy::default`]) until
    /// [`LinkKernel::set_dead_link_policy`] says otherwise.
    pub fn new(cfg: &SimConfig, d: usize, lo: u32, hi: u32) -> Self {
        let n = (hi - lo) as usize;
        let words = n.div_ceil(64);
        Self {
            lo,
            capacity: cfg.queue_capacity,
            full_policy: cfg.full_queue_policy,
            dead_policy: DeadLinkPolicy::default(),
            arena: Vec::new(),
            free_head: NIL,
            fifo_head: vec![0; n * MAX_PRIORITY_CLASSES],
            fifo_tail: vec![0; n * MAX_PRIORITY_CLASSES],
            fifo_len: vec![0; n * MAX_PRIORITY_CLASSES],
            class_mask: vec![0; n],
            backlog: vec![0; words],
            busy: vec![0; words],
            alive: vec![u64::MAX; words],
            flight_node: vec![0; n],
            flight_finish: vec![0; n],
            queued: 0,
            counters: LinkCounters::new(cfg, d, lo as usize, n),
        }
    }

    /// Chooses what a dying link does with its packets, and what
    /// [`LinkKernel::admit`] does with a packet offered to a dead link.
    pub fn set_dead_link_policy(&mut self, policy: DeadLinkPolicy) {
        self.dead_policy = policy;
    }

    /// Number of links in the range.
    #[inline]
    pub fn n_links(&self) -> usize {
        self.class_mask.len()
    }

    /// `true` when global link `link` belongs to this kernel.
    #[inline]
    pub fn owns(&self, link: u32) -> bool {
        link >= self.lo && ((link - self.lo) as usize) < self.n_links()
    }

    #[inline]
    fn local(&self, link: u32) -> usize {
        debug_assert!(self.owns(link), "link {link} outside the kernel's range");
        link.wrapping_sub(self.lo) as usize
    }

    /// Packets queued on all links (in-flight ones excluded).
    #[inline]
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Packets queued on `link`.
    #[inline]
    pub fn qlen(&self, link: u32) -> usize {
        self.local_qlen(self.local(link))
    }

    #[inline]
    fn local_qlen(&self, li: usize) -> usize {
        let at = li * MAX_PRIORITY_CLASSES;
        self.fifo_len[at..at + MAX_PRIORITY_CLASSES]
            .iter()
            .map(|&len| len as usize)
            .sum()
    }

    /// Packets queued on `link` in one priority class.
    pub fn class_len(&self, link: u32, class: usize) -> usize {
        self.fifo_len[self.local(link) * MAX_PRIORITY_CLASSES + class] as usize
    }

    /// The longest queue of the range (the divergence guard's probe).
    pub fn max_qlen(&self) -> usize {
        (0..self.n_links())
            .map(|li| self.local_qlen(li))
            .max()
            .unwrap_or(0)
    }

    /// `true` when `link` has at least one queued packet.
    #[inline]
    pub fn has_backlog(&self, link: u32) -> bool {
        bit_get(&self.backlog, self.local(link))
    }

    /// `true` when `link` is transmitting.
    #[inline]
    pub fn is_busy(&self, link: u32) -> bool {
        bit_get(&self.busy, self.local(link))
    }

    /// `true` when `link` can transmit.
    #[inline]
    pub fn is_alive(&self, link: u32) -> bool {
        bit_get(&self.alive, self.local(link))
    }

    /// `true` when `link` holds a packet, queued or in flight.
    #[inline]
    pub fn is_active(&self, link: u32) -> bool {
        let li = self.local(link);
        bit_get(&self.backlog, li) || bit_get(&self.busy, li)
    }

    /// `true` when no link holds a packet.
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.busy.iter().all(|&w| w == 0)
    }

    /// `true` when a packet offered to `link` now would be lost to a
    /// fault: the link is dead and dead links drop.
    #[inline]
    pub fn drops(&self, link: u32) -> bool {
        self.local_drops(self.local(link))
    }

    #[inline]
    fn local_drops(&self, li: usize) -> bool {
        !bit_get(&self.alive, li) && matches!(self.dead_policy, DeadLinkPolicy::Drop)
    }

    /// The service-start statistics of the range.
    pub fn counters(&self) -> &LinkCounters {
        &self.counters
    }

    /// Consumes the kernel, keeping the statistics.
    pub fn into_counters(self) -> LinkCounters {
        self.counters
    }

    /// `(nodes ever allocated, nodes free now)`. The arena never
    /// shrinks, so the first is the range's peak population of queued
    /// and in-flight packets.
    pub fn arena_stats(&self) -> (u32, u32) {
        let mut free = 0;
        let mut cur = self.free_head;
        while cur != NIL {
            free += 1;
            cur = self.arena[cur as usize].next;
        }
        (self.arena.len() as u32, free)
    }

    // -----------------------------------------------------------------
    // Class FIFOs over the arena
    // -----------------------------------------------------------------

    #[inline]
    fn alloc(&mut self, pkt: Packet) -> u32 {
        let node = Node { pkt, next: NIL };
        if self.free_head != NIL {
            let slot = self.free_head;
            self.free_head = self.arena[slot as usize].next;
            self.arena[slot as usize] = node;
            slot
        } else {
            self.arena.push(node);
            (self.arena.len() - 1) as u32
        }
    }

    #[inline]
    fn free(&mut self, slot: u32) {
        self.arena[slot as usize].next = self.free_head;
        self.free_head = slot;
    }

    /// Index of the class FIFO node `slot`'s packet belongs to on `li`.
    #[inline]
    fn fifo_of(&self, li: usize, slot: u32) -> usize {
        let class = self.arena[slot as usize].pkt.priority as usize;
        debug_assert!(class < MAX_PRIORITY_CLASSES);
        li * MAX_PRIORITY_CLASSES + class
    }

    #[inline]
    fn grew(&mut self, li: usize, idx: usize) {
        self.fifo_len[idx] += 1;
        self.class_mask[li] |= 1 << (idx % MAX_PRIORITY_CLASSES);
        bit_set(&mut self.backlog, li);
        self.queued += 1;
    }

    #[inline]
    fn shrank(&mut self, li: usize, idx: usize) {
        self.fifo_len[idx] -= 1;
        if self.fifo_len[idx] == 0 {
            self.class_mask[li] &= !(1 << (idx % MAX_PRIORITY_CLASSES));
            if self.class_mask[li] == 0 {
                bit_clear(&mut self.backlog, li);
            }
        }
        self.queued -= 1;
    }

    /// Links node `slot` at the tail of its class FIFO.
    #[inline]
    fn link_back(&mut self, li: usize, slot: u32) {
        let idx = self.fifo_of(li, slot);
        if self.fifo_len[idx] > 0 {
            self.arena[self.fifo_tail[idx] as usize].next = slot;
        } else {
            self.fifo_head[idx] = slot;
        }
        self.fifo_tail[idx] = slot;
        self.grew(li, idx);
    }

    /// Links node `slot` — an interrupted transmission — at the *head*
    /// of its class FIFO, so it resumes first after repair.
    /// Deliberately not subject to the capacity bound: the packet was
    /// admitted to this queue once, and a full queue may hold
    /// `capacity + 1` packets after a requeue — bounded, because a link
    /// has one packet in service.
    fn link_front(&mut self, li: usize, slot: u32) {
        let idx = self.fifo_of(li, slot);
        if self.fifo_len[idx] > 0 {
            self.arena[slot as usize].next = self.fifo_head[idx];
        } else {
            self.fifo_tail[idx] = slot;
        }
        self.fifo_head[idx] = slot;
        self.grew(li, idx);
    }

    /// Unlinks the head of the lowest-numbered non-empty class:
    /// non-preemptive head-of-line priority, FIFO within a class.
    #[inline]
    fn unlink_head(&mut self, li: usize) -> Option<u32> {
        let mask = self.class_mask[li];
        if mask == 0 {
            return None;
        }
        let idx = li * MAX_PRIORITY_CLASSES + mask.trailing_zeros() as usize;
        let slot = self.fifo_head[idx];
        self.fifo_head[idx] = self.arena[slot as usize].next;
        self.shrank(li, idx);
        Some(slot)
    }

    /// Unlinks the *tail* of the least important non-empty class
    /// strictly below `than`'s, if any: the newest packet of the least
    /// important backlog makes room for a more important arrival.
    fn unlink_lower_tail(&mut self, li: usize, than: u8) -> Option<u32> {
        let class = (than as usize + 1..MAX_PRIORITY_CLASSES)
            .rev()
            .find(|&c| self.class_mask[li] & (1 << c) != 0)?;
        let idx = li * MAX_PRIORITY_CLASSES + class;
        let tail = self.fifo_tail[idx];
        // Singly linked: walk to the tail's predecessor. Bounded queues
        // are short, and only they evict.
        let mut cur = self.fifo_head[idx];
        while cur != tail {
            self.fifo_tail[idx] = cur;
            cur = self.arena[cur as usize].next;
        }
        self.shrank(li, idx);
        Some(tail)
    }

    /// Frees node `slot` and hands its packet out.
    #[inline]
    fn take(&mut self, slot: u32) -> Packet {
        self.free(slot);
        self.arena[slot as usize].pkt
    }

    // -----------------------------------------------------------------
    // The five decisions
    // -----------------------------------------------------------------

    /// Offers `pkt` to `link`'s queue. A dead link under
    /// [`DeadLinkPolicy::Drop`] loses it to the fault (under `Requeue`
    /// it queues and waits out the repair); only then does the bound
    /// apply: at `queue_capacity` the full-queue policy drops the
    /// arrival, evicts for it, or — `Backpressure`, where injection is
    /// gated at the source and a forward already on the wire cannot be
    /// refused — lets it exceed the bound.
    #[inline(always)]
    pub fn admit(&mut self, link: u32, pkt: Packet) -> Admit {
        let li = self.local(link);
        if self.local_drops(li) {
            return Admit::Lost(pkt, LossCause::Fault);
        }
        let mut outcome = Admit::Queued;
        if self.is_full(li) {
            match self.full_policy {
                FullQueuePolicy::Backpressure => {}
                FullQueuePolicy::DropLowestClass => {
                    match self.unlink_lower_tail(li, pkt.priority) {
                        Some(victim) => outcome = Admit::Evicted(self.take(victim)),
                        None => return Admit::Lost(pkt, LossCause::Overflow),
                    }
                }
                FullQueuePolicy::DropTail => return Admit::Lost(pkt, LossCause::Overflow),
            }
        }
        let slot = self.alloc(pkt);
        self.link_back(li, slot);
        outcome
    }

    #[inline]
    fn is_full(&self, li: usize) -> bool {
        self.capacity
            .is_some_and(|cap| self.local_qlen(li) >= cap as usize)
    }

    /// Offers a retransmission to the link it was lost at, stamped as
    /// enqueued at `now`. A link that is still dead, or still full under
    /// a dropping policy, fails the attempt ([`LossCause::Retry`]) —
    /// the caller arms the next backoff round or gives up.
    pub fn readmit(&mut self, link: u32, mut pkt: Packet, now: u64) -> Admit {
        let li = self.local(link);
        let refused = !bit_get(&self.alive, li)
            || (self.is_full(li) && !matches!(self.full_policy, FullQueuePolicy::Backpressure));
        if refused {
            return Admit::Lost(pkt, LossCause::Retry);
        }
        pkt.enqueue_time = now;
        let slot = self.alloc(pkt);
        self.link_back(li, slot);
        Admit::Queued
    }

    /// `link` just died: its transmission is interrupted — requeued at
    /// the head of its class under [`DeadLinkPolicy::Requeue`], lost
    /// under `Drop` — and under `Drop` its backlog is drained. Lost
    /// packets are appended to `lost`, the interrupted one first, then
    /// the backlog in service order; the caller owns the buffer, so a
    /// fault burst allocates nothing.
    pub fn kill(&mut self, link: u32, lost: &mut Vec<Packet>) {
        let li = self.local(link);
        bit_clear(&mut self.alive, li);
        let drop = matches!(self.dead_policy, DeadLinkPolicy::Drop);
        if bit_get(&self.busy, li) {
            bit_clear(&mut self.busy, li);
            let slot = self.flight_node[li];
            if drop {
                lost.push(self.take(slot));
            } else {
                self.link_front(li, slot);
            }
        }
        if drop {
            while let Some(slot) = self.unlink_head(li) {
                lost.push(self.take(slot));
            }
        }
    }

    /// `link` was repaired and may transmit again.
    pub fn revive(&mut self, link: u32) {
        let li = self.local(link);
        bit_set(&mut self.alive, li);
    }

    /// A scan over the links busy right now, for
    /// [`LinkKernel::next_finished`].
    #[inline]
    pub fn finish_scan(&self) -> FinishScan {
        FinishScan {
            word: 0,
            mask: self.busy.first().copied().unwrap_or(0),
        }
    }

    /// Takes the next transmission completing at slot `t` off its link.
    /// Called until `None` on one [`LinkKernel::finish_scan`], it yields
    /// the slot's deliveries in ascending link order. The packet is
    /// lent from its arena node, which the next admission may reuse:
    /// copy it to keep it. The caller may [`LinkKernel::admit`] between
    /// calls (a delivery's forwards never make a link busy) but not
    /// [`LinkKernel::start`].
    #[inline(always)]
    pub fn next_finished(&mut self, scan: &mut FinishScan, t: u64) -> Option<(u32, &Packet)> {
        loop {
            while scan.mask == 0 {
                scan.word += 1;
                if scan.word >= self.busy.len() {
                    return None;
                }
                scan.mask = self.busy[scan.word];
            }
            let b = scan.mask.trailing_zeros() as usize;
            scan.mask &= scan.mask - 1;
            let li = (scan.word << 6) | b;
            if self.flight_finish[li] == t {
                self.busy[scan.word] &= !(1u64 << b);
                let slot = self.flight_node[li];
                self.free(slot);
                return Some((self.lo + li as u32, &self.arena[slot as usize].pkt));
            }
        }
    }

    /// Starts service on every backlogged, idle, alive link, in
    /// ascending link order: the head-of-line packet leaves the queue
    /// (not the arena), is counted by the one
    /// [`LinkCounters::service_start`], and occupies the link until slot
    /// `t + len`. `faulted` says whether
    /// any fault is live anywhere (it feeds the fault-epoch waits);
    /// `each` sees every `(link, packet)` as it starts.
    #[inline(always)]
    pub fn start(&mut self, t: u64, faulted: bool, mut each: impl FnMut(u32, &Packet)) {
        for w in 0..self.backlog.len() {
            let mut m = self.backlog[w] & !self.busy[w] & self.alive[w];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let li = (w << 6) | b;
                let slot = self.unlink_head(li).expect("backlogged link has a packet");
                let pkt = &self.arena[slot as usize].pkt;
                each(self.lo + li as u32, pkt);
                self.counters.service_start(li, pkt, t, faulted);
                self.flight_node[li] = slot;
                self.flight_finish[li] = t + pkt.len as u64;
                self.busy[w] |= 1u64 << b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use pstar_topology::NodeId;

    fn pkt(priority: u8, task: u32) -> Packet {
        Packet {
            task,
            gen_time: 0,
            enqueue_time: 0,
            len: 1,
            priority,
            vc: 1,
            attempt: 0,
            kind: PacketKind::Unicast { dest: NodeId(0) },
        }
    }

    fn kernel(cfg: &SimConfig, lo: u32, hi: u32, policy: DeadLinkPolicy) -> LinkKernel {
        let mut k = LinkKernel::new(cfg, 1, lo, hi);
        k.set_dead_link_policy(policy);
        k
    }

    fn finished(k: &mut LinkKernel, t: u64) -> Vec<(u32, u32)> {
        let mut scan = k.finish_scan();
        let mut out = Vec::new();
        while let Some((link, p)) = k.next_finished(&mut scan, t) {
            out.push((link, p.task));
        }
        out
    }

    #[test]
    fn admit_checks_the_dead_link_before_the_bound() {
        // A full queue on a dead link: under `Drop` the arrival is a
        // fault loss, not an overflow, and nothing is evicted for it.
        let cfg = SimConfig {
            queue_capacity: Some(1),
            full_queue_policy: FullQueuePolicy::DropLowestClass,
            ..SimConfig::quick(1)
        };
        let mut k = kernel(&cfg, 0, 4, DeadLinkPolicy::Requeue);
        assert!(matches!(k.admit(2, pkt(1, 10)), Admit::Queued));
        let mut lost = Vec::new();
        k.kill(2, &mut lost);
        assert!(lost.is_empty(), "requeue loses nothing");
        k.set_dead_link_policy(DeadLinkPolicy::Drop);
        assert!(matches!(
            k.admit(2, pkt(0, 11)),
            Admit::Lost(p, LossCause::Fault) if p.task == 11
        ));
        assert_eq!(k.qlen(2), 1, "the class-1 packet was not evicted");
        // Alive again, the bound applies: class 0 evicts class 1,
        // class 1 finds nothing below it.
        k.revive(2);
        assert!(matches!(k.admit(2, pkt(0, 12)), Admit::Evicted(v) if v.task == 10));
        assert!(matches!(
            k.admit(2, pkt(1, 13)),
            Admit::Lost(p, LossCause::Overflow) if p.task == 13
        ));
        // A retransmission is refused by a full or a dead link alike.
        assert!(matches!(
            k.readmit(2, pkt(0, 14), 9),
            Admit::Lost(_, LossCause::Retry)
        ));
        k.set_dead_link_policy(DeadLinkPolicy::Requeue);
        k.kill(3, &mut lost);
        assert!(matches!(
            k.readmit(3, pkt(0, 15), 9),
            Admit::Lost(_, LossCause::Retry)
        ));
        assert_eq!(k.queued(), 1);
    }

    #[test]
    fn requeue_overflows_the_bound_by_at_most_one() {
        let cfg = SimConfig {
            queue_capacity: Some(2),
            ..SimConfig::quick(2)
        };
        let mut k = kernel(&cfg, 8, 12, DeadLinkPolicy::Requeue);
        assert!(matches!(k.admit(9, pkt(0, 1)), Admit::Queued));
        k.start(0, false, |_, _| {});
        assert!(k.is_busy(9) && !k.has_backlog(9));
        assert!(matches!(k.admit(9, pkt(0, 2)), Admit::Queued));
        assert!(matches!(k.admit(9, pkt(0, 3)), Admit::Queued));
        // The link dies mid-transmission: packet 1 returns head-of-line,
        // one over the bound.
        let mut lost = Vec::new();
        k.kill(9, &mut lost);
        assert!(lost.is_empty());
        assert_eq!(k.qlen(9), 3);
        assert!(!k.is_busy(9) && k.is_active(9));
        // The overflow never compounds: the next arrival is refused.
        assert!(matches!(
            k.admit(9, pkt(0, 4)),
            Admit::Lost(_, LossCause::Overflow)
        ));
        // A dead link does not serve; repaired, it resumes with packet 1.
        k.start(5, true, |_, _| panic!("dead link started service"));
        k.revive(9);
        let mut order = Vec::new();
        for t in 6..9 {
            k.start(t, false, |link, p| order.push((link, p.task)));
            assert_eq!(finished(&mut k, t + 1).len(), 1);
        }
        assert_eq!(order, [(9, 1), (9, 2), (9, 3)]);
        assert!(k.is_idle());
        assert_eq!(k.arena_stats(), (3, 3));
    }

    #[test]
    fn finish_and_start_visit_links_in_ascending_id_across_a_word() {
        // Local indices 60..70 straddle the first 64-bit word; the
        // range starts at a nonzero global id.
        let cfg = SimConfig::quick(3);
        let mut k = kernel(&cfg, 100, 200, DeadLinkPolicy::Drop);
        let links = [169u32, 160, 164, 163, 199, 100];
        for (i, &l) in links.iter().enumerate() {
            assert!(matches!(k.admit(l, pkt(0, i as u32)), Admit::Queued));
        }
        // Link 163 carries a two-slot packet.
        let long = Packet {
            len: 2,
            ..pkt(1, 99)
        };
        assert!(matches!(k.admit(163, long), Admit::Queued));
        let mut started = Vec::new();
        k.start(0, false, |link, _| started.push(link));
        assert_eq!(started, [100, 160, 163, 164, 169, 199]);
        // A forward admitted between two deliveries does not disturb
        // the scan.
        let mut scan = k.finish_scan();
        let mut seen = Vec::new();
        while let Some((link, _)) = k.next_finished(&mut scan, 1) {
            seen.push(link);
            assert!(matches!(k.admit(199, pkt(0, 7)), Admit::Queued));
        }
        assert_eq!(seen, [100, 160, 163, 164, 169, 199]);
        assert!(k.next_finished(&mut scan, 1).is_none());
        // Slot 1: 163 starts its long packet; slot 2: nothing of 163's
        // finishes, slot 3 it does.
        k.start(1, false, |_, _| {});
        assert_eq!(finished(&mut k, 2), [(199, 7)]);
        assert_eq!(finished(&mut k, 3), [(163, 99)]);
        assert_eq!(k.max_qlen(), 5);
        assert_eq!(k.class_len(199, 0), 5);
    }

    #[test]
    fn kill_under_drop_hands_back_flight_then_backlog_in_service_order() {
        let cfg = SimConfig::quick(4);
        let mut k = kernel(&cfg, 0, 2, DeadLinkPolicy::Drop);
        for (task, class) in [(1, 2), (2, 0), (3, 1), (4, 0)] {
            k.admit(1, pkt(class, task));
        }
        k.start(0, false, |_, _| {});
        let mut lost = vec![pkt(0, 77)];
        k.kill(1, &mut lost);
        let tasks: Vec<u32> = lost.iter().map(|p| p.task).collect();
        assert_eq!(tasks, [77, 2, 4, 3, 1], "appended after what was there");
        assert!(k.is_idle() && !k.is_alive(1) && k.drops(1) && !k.drops(0));
    }
}
