//! The link kernel: the model's one moving part, written once.
//!
//! Every directed link is a multi-class head-of-line priority queue that
//! serves one packet at a time (DESIGN.md §3). [`LinkKernel`] owns that
//! state for a contiguous range of links — the queued packets, the
//! transmission in flight, which links are backlogged, busy and alive,
//! and the service-start and eviction statistics ([`LinkCounters`]) — and makes the
//! five decisions every backend needs: **admit** a packet, **kill** or
//! **revive** a link, **finish** the transmissions completing in a slot,
//! **start** service on idle links, and **re-admit** a retransmission.
//! The serial [`crate::Engine`] runs one kernel over every link, each
//! shard of [`crate::ShardedEngine`] and each `pstar-net` worker one
//! over the links of its nodes.
//!
//! The kernel reports outcomes ([`Admit`]) and never touches a task
//! ledger, a scheme, a random stream or a channel: what a delivery or a
//! loss *means* is the hop rule's ([`crate::Hop`]), so the kernel does
//! not branch on who calls it. Links are named by their global id
//! throughout; the range offset never leaves this module.
//!
//! Layout. A packet-hop is one admission, one service start and one
//! delivery; the storage is chosen so that each touches few cache lines
//! and takes no branch that depends on the traffic (DESIGN.md §3.2):
//! - A *queued* packet lives in one arena of intrusively linked nodes
//!   with a LIFO free list. It is written once when admitted and read in
//!   place when its service starts.
//! - At service start the packet is copied once into the *in-flight
//!   list*: one `Flight` per busy link, in ascending link order. Its
//!   node is freed at once, so the arena holds queued packets only. The
//!   finish scan reads the slot's deliveries from this list in order; a
//!   flight that outlives the slot is carried over and merged with the
//!   next slot's starts.
//! - A link's FIFO state — a head, a tail and a length per class, and
//!   the class mask — is one 64-byte record (`LinkFifos`), so an
//!   admission or a service start reads one record instead of four
//!   arrays.
//! - Arena node 0 is a sink: it is the tail of every empty FIFO, so
//!   linking a packet at the tail is the same stores whether or not the
//!   FIFO was empty, and unlinking one leaves no branch on what is left.
//!   Under load, whether a class FIFO is empty is close to a coin flip;
//!   the mispredicted branches this replaces were the kernel's largest
//!   cost.
//! - One `u64` bitset each for *backlogged*, *busy* and *alive* lets the
//!   start scan walk set bits in ascending link order a word at a time.
//!
//! The records come from small zeroed allocations, where all-zero means
//! every class empty, so building a kernel touches almost no memory.
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
use crate::packet::{Packet, PacketKind, MAX_PRIORITY_CLASSES};
use crate::recovery::FullQueuePolicy;
use pstar_faults::DeadLinkPolicy;
use pstar_topology::NodeId;
// A plain `if` or a mask is turned back into a branch by the optimizer;
// this hint keeps the FIFO updates branch-free.
use std::hint::select_unpredictable;

/// Sentinel for "no node" in the free list.
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

/// The arena node that is the tail of every empty class FIFO. It is
/// never allocated, and what is linked behind it is never read.
const SINK: u32 = 0;

const SINK_NODE: Node = Node {
    pkt: Packet {
        task: 0,
        gen_time: 0,
        enqueue_time: 0,
        len: 0,
        priority: 0,
        vc: 0,
        attempt: 0,
        kind: PacketKind::Unicast { dest: NodeId(0) },
    },
    next: NIL,
};

/// A transmission in progress: the busy link (global id), the slot it
/// completes in and its packet. The slot is kept modulo 2³², which
/// keeps a flight at 48 bytes and loses nothing: a flight lasts at most
/// `u16::MAX` slots, so no slot a finish scan compares it with is 2³²
/// away from its own.
#[derive(Clone, Copy)]
struct Flight {
    link: u32,
    finish: u32,
    pkt: Packet,
}

/// One link's FIFO state, 16 words: word [`MASK`] is the class mask
/// (bit `c` set ⇔ class `c` is non-empty), then each class's head, tail
/// and length side by side ([`HEAD`], [`TAIL`], [`LEN`] plus
/// [`class_at`]). An empty class's tail is [`SINK`] and its head is
/// stale. All-zero is a record with every class empty.
type LinkFifos = [u32; 16];

const _: () = assert!(
    std::mem::size_of::<LinkFifos>() == 64 && class_at(MAX_PRIORITY_CLASSES - 1) + LEN < 16,
    "a link's FIFO record is 64 bytes and holds every class"
);
const _: () = assert!(MAX_PRIORITY_CLASSES.is_power_of_two());

const MASK: usize = 0;
const HEAD: usize = 0;
const TAIL: usize = 1;
const LEN: usize = 2;

/// Where class `class`'s head, tail and length start in a record.
#[inline(always)]
const fn class_at(class: usize) -> usize {
    1 + 3 * class
}

/// `class` as a record index the compiler can see is in range, so that
/// indexing a record needs no bounds check.
#[inline(always)]
fn class_index(class: usize) -> usize {
    debug_assert!(class < MAX_PRIORITY_CLASSES);
    class & (MAX_PRIORITY_CLASSES - 1)
}

/// Class `class` of `rec` gained a packet.
#[inline(always)]
fn grew(rec: &mut LinkFifos, class: usize) {
    rec[class_at(class) + LEN] += 1;
    rec[MASK] |= 1 << class;
}

/// Class `class` of `rec` lost a packet; `true` when no class of the
/// link has one left.
#[inline(always)]
fn shrank(rec: &mut LinkFifos, class: usize) -> bool {
    let at = class_at(class);
    rec[at + LEN] -= 1;
    let emptied = rec[at + LEN] == 0;
    rec[at + TAIL] = select_unpredictable(emptied, SINK, rec[at + TAIL]);
    rec[MASK] &= !(u32::from(emptied) << class);
    rec[MASK] == 0
}

/// Records per block of [`FifoRecords`], a power of two.
const BLOCK: usize = 1 << 7;

/// The [`LinkFifos`] records of a range, in zeroed 8 KiB blocks.
///
/// Blocks, not one allocation: glibc maps an allocation of 128 KiB or
/// more on its own, and once such a mapping is freed it serves later
/// ones from reused heap memory that `calloc` must clear by writing it,
/// so building a kernel would cost time in proportion to its links. An
/// 8 KiB block stays below that threshold and wastes little on a small
/// range. (Aligning records to cache lines was measured and bought
/// nothing.)
struct FifoRecords {
    blocks: Vec<Box<[LinkFifos; BLOCK]>>,
    len: usize,
}

impl FifoRecords {
    fn new(n: usize) -> Self {
        let blocks = (0..n.div_ceil(BLOCK))
            .map(|_| {
                vec![[0; 16]; BLOCK]
                    .into_boxed_slice()
                    .try_into()
                    .expect("a whole block")
            })
            .collect();
        Self { blocks, len: n }
    }

    #[inline(always)]
    fn get(&self, li: usize) -> &LinkFifos {
        &self.blocks[li / BLOCK][li % BLOCK]
    }

    #[inline(always)]
    fn get_mut(&mut self, li: usize) -> &mut LinkFifos {
        &mut self.blocks[li / BLOCK][li % BLOCK]
    }
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

/// Clears bit `i` when `cond`, without a branch on it.
#[inline]
fn bit_clear_if(bits: &mut [u64], i: usize, cond: bool) {
    bits[i >> 6] &= !(u64::from(cond) << (i & 63));
}

/// Progress of one pass over the in-flight list (see
/// [`LinkKernel::next_finished`]): the next flight to read, and where
/// the next one that outlives the slot is carried to.
#[derive(Debug)]
pub struct FinishScan {
    read: usize,
    carry: usize,
}

/// Queueing, in-flight state and service for the links `lo .. hi` (see
/// the module docs).
pub struct LinkKernel {
    lo: u32,
    capacity: Option<u32>,
    full_policy: FullQueuePolicy,
    dead_policy: DeadLinkPolicy,

    /// The queued packets, [`SINK`] first; the (link, class) FIFOs are
    /// threaded through it.
    arena: Vec<Node>,
    free_head: u32,
    fifos: FifoRecords,

    backlog: Vec<u64>,
    busy: Vec<u64>,
    alive: Vec<u64>,
    /// One flight per busy link, in ascending link order (between a
    /// finish scan's first call and its `None`, the slot's finished
    /// flights are still in it).
    flights: Vec<Flight>,
    /// Where [`LinkKernel::start`] merges carried-over flights with new
    /// ones; empty between calls and kept only for its capacity.
    merged: Vec<Flight>,

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
            arena: vec![SINK_NODE],
            free_head: NIL,
            fifos: FifoRecords::new(n),
            backlog: vec![0; words],
            busy: vec![0; words],
            alive: vec![u64::MAX; words],
            flights: Vec::new(),
            merged: Vec::new(),
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
        self.fifos.len
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
        let rec = self.fifos.get(li);
        (0..MAX_PRIORITY_CLASSES)
            .map(|c| rec[class_at(c) + LEN] as usize)
            .sum()
    }

    /// Packets queued on `link` in one priority class.
    pub fn class_len(&self, link: u32, class: usize) -> usize {
        self.fifos.get(self.local(link))[class_at(class_index(class)) + LEN] as usize
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

    /// `(nodes ever allocated, nodes free now)`. The arena holds queued
    /// packets only and never shrinks, so the first is the range's peak
    /// population of queued packets.
    pub fn arena_stats(&self) -> (u32, u32) {
        let mut free = 0;
        let mut cur = self.free_head;
        while cur != NIL {
            free += 1;
            cur = self.arena[cur as usize].next;
        }
        (self.arena.len() as u32 - 1, free)
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

    /// Frees node `slot` and hands its packet out.
    #[inline]
    fn take(&mut self, slot: u32) -> Packet {
        let node = &mut self.arena[slot as usize];
        node.next = self.free_head;
        self.free_head = slot;
        node.pkt
    }

    /// Links node `slot` at the tail of class `class`'s FIFO on `li`:
    /// behind the old tail, which is [`SINK`] when the FIFO was empty.
    #[inline(always)]
    fn link_back(&mut self, li: usize, class: usize, slot: u32) {
        let class = class_index(class);
        let at = class_at(class);
        let rec = self.fifos.get_mut(li);
        self.arena[rec[at + TAIL] as usize].next = slot;
        rec[at + HEAD] = select_unpredictable(rec[at + LEN] == 0, slot, rec[at + HEAD]);
        rec[at + TAIL] = slot;
        grew(rec, class);
        bit_set(&mut self.backlog, li);
        self.queued += 1;
    }

    /// Links node `slot` — an interrupted transmission of class `class` —
    /// at the *head* of its class FIFO, so it resumes first after
    /// repair. Deliberately not subject to the capacity bound: the packet
    /// was admitted to this queue once, and a full queue may hold
    /// `capacity + 1` packets after a requeue — bounded, because a link
    /// has one packet in service.
    fn link_front(&mut self, li: usize, class: usize, slot: u32) {
        let class = class_index(class);
        let at = class_at(class);
        let rec = self.fifos.get_mut(li);
        if rec[at + LEN] > 0 {
            self.arena[slot as usize].next = rec[at + HEAD];
        } else {
            rec[at + TAIL] = slot;
        }
        rec[at + HEAD] = slot;
        grew(rec, class);
        bit_set(&mut self.backlog, li);
        self.queued += 1;
    }

    /// Unlinks the head of the lowest-numbered non-empty class:
    /// non-preemptive head-of-line priority, FIFO within a class.
    #[inline]
    fn unlink_head(&mut self, li: usize) -> Option<u32> {
        let rec = self.fifos.get_mut(li);
        if rec[MASK] == 0 {
            return None;
        }
        let class = class_index(rec[MASK].trailing_zeros() as usize);
        let at = class_at(class);
        let slot = rec[at + HEAD];
        rec[at + HEAD] = self.arena[slot as usize].next;
        bit_clear_if(&mut self.backlog, li, shrank(rec, class));
        self.queued -= 1;
        Some(slot)
    }

    /// Unlinks the *tail* of the least important non-empty class
    /// strictly below `than`'s, if any: the newest packet of the least
    /// important backlog makes room for a more important arrival.
    fn unlink_lower_tail(&mut self, li: usize, than: u8) -> Option<u32> {
        let rec = self.fifos.get_mut(li);
        let class = (than as usize + 1..MAX_PRIORITY_CLASSES)
            .rev()
            .find(|&c| rec[MASK] & (1 << c) != 0)?;
        let at = class_at(class);
        let tail = rec[at + TAIL];
        // Singly linked: walk to the tail's predecessor. Bounded queues
        // are short, and only they evict.
        let mut cur = rec[at + HEAD];
        while cur != tail {
            rec[at + TAIL] = cur;
            cur = self.arena[cur as usize].next;
        }
        bit_clear_if(&mut self.backlog, li, shrank(rec, class));
        self.queued -= 1;
        Some(tail)
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
                        Some(victim) => {
                            self.counters.evicted();
                            outcome = Admit::Evicted(self.take(victim));
                        }
                        None => return Admit::Lost(pkt, LossCause::Overflow),
                    }
                }
                FullQueuePolicy::DropTail => return Admit::Lost(pkt, LossCause::Overflow),
            }
        }
        let slot = self.alloc(pkt);
        self.link_back(li, pkt.priority as usize, slot);
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
        self.link_back(li, pkt.priority as usize, slot);
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
            let at = self
                .flights
                .binary_search_by_key(&link, |f| f.link)
                .expect("a busy link has a flight");
            let pkt = self.flights.remove(at).pkt;
            if drop {
                lost.push(pkt);
            } else {
                let slot = self.alloc(pkt);
                self.link_front(li, pkt.priority as usize, slot);
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
        FinishScan { read: 0, carry: 0 }
    }

    /// The transmissions completing at slot `t`, in ascending link order,
    /// left where they are: what the next [`LinkKernel::finish_scan`]
    /// for `t` will take, seen ahead of it (a `pstar-net` worker ships
    /// the ones bound for another worker's nodes before it runs the
    /// scan).
    pub fn finishing(&self, t: u64) -> impl Iterator<Item = (u32, &Packet)> + '_ {
        let due = self.flights.iter().filter(move |f| f.finish == t as u32);
        due.map(|f| (f.link, &f.pkt))
    }

    /// Takes the next transmission completing at slot `t` off its link.
    /// Called until `None` on one [`LinkKernel::finish_scan`], it yields
    /// the slot's deliveries in ascending link order; a scan once begun
    /// must reach `None` before the next [`LinkKernel::start`] or
    /// [`LinkKernel::kill`]. The packet is lent from the in-flight list,
    /// which the next call may overwrite: copy it to keep it. The caller
    /// may [`LinkKernel::admit`] between calls (a delivery's forwards
    /// never make a link busy).
    #[inline(always)]
    pub fn next_finished(&mut self, scan: &mut FinishScan, t: u64) -> Option<(u32, &Packet)> {
        while scan.read < self.flights.len() {
            let at = scan.read;
            scan.read += 1;
            let f = &self.flights[at];
            if f.finish == t as u32 {
                let li = self.local(f.link);
                bit_clear(&mut self.busy, li);
                let f = &self.flights[at];
                return Some((f.link, &f.pkt));
            }
            // Still transmitting: carried over, in order, for `start`.
            self.flights[scan.carry] = self.flights[at];
            scan.carry += 1;
        }
        self.flights.truncate(scan.carry);
        None
    }

    /// Starts service on every backlogged, idle, alive link, in
    /// ascending link order: the head-of-line packet leaves the queue
    /// and the arena for the in-flight list, is counted by the one
    /// [`LinkCounters::service_start`], and occupies the link until slot
    /// `t + len`. `faulted` says whether
    /// any fault is live anywhere (it feeds the fault-epoch waits);
    /// `each` sees every `(link, packet)` as it starts.
    #[inline(always)]
    pub fn start(&mut self, t: u64, faulted: bool, mut each: impl FnMut(u32, &Packet)) {
        // The new in-flight list: the flights carried over from the
        // finish scan merged with this slot's starts, both ascending.
        // With nothing carried over, the starts go straight into it.
        if self.flights.capacity() == 0 {
            // Room for a flight on every link, reserved once: a list
            // grown by doubling beside the arena leaves its old copies in
            // the heap. Not in `new`, which allocates only small blocks
            // (see `FifoRecords`).
            self.flights.reserve_exact(self.n_links());
        }
        let carry = !self.flights.is_empty();
        let mut flights = if carry {
            std::mem::take(&mut self.merged)
        } else {
            std::mem::take(&mut self.flights)
        };
        let mut carried = 0;
        for w in 0..self.backlog.len() {
            let mut m = self.backlog[w] & !self.busy[w] & self.alive[w];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let li = (w << 6) | b;
                let link = self.lo + li as u32;
                while carried < self.flights.len() && self.flights[carried].link < link {
                    flights.push(self.flights[carried]);
                    carried += 1;
                }
                let slot = self.unlink_head(li).expect("backlogged link has a packet");
                flights.push(Flight {
                    link,
                    finish: 0,
                    pkt: self.take(slot),
                });
                let f = flights.last_mut().expect("just pushed");
                f.finish = (t + u64::from(f.pkt.len)) as u32;
                each(link, &f.pkt);
                self.counters.service_start(li, &f.pkt, t, faulted);
                self.busy[w] |= 1u64 << b;
            }
        }
        if carry {
            flights.extend_from_slice(&self.flights[carried..]);
            self.flights.clear();
            self.merged = std::mem::replace(&mut self.flights, flights);
        } else {
            self.flights = flights;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn carried_flights_merge_with_new_starts_across_record_blocks() {
        // Local links 127 | 128 and 255 | 256 sit in different record
        // blocks; the range starts at a nonzero global id.
        let cfg = SimConfig::quick(5);
        let mut k = kernel(&cfg, 1000, 1300, DeadLinkPolicy::Requeue);
        let long = |task, len| Packet {
            len,
            ..pkt(0, task)
        };
        for (link, task, len) in [
            (1127, 1, 3),
            (1128, 2, 1),
            (1256, 3, 2),
            (1255, 7, 1),
            (1127, 4, 1),
            (1128, 5, 1),
            (1256, 6, 1),
        ] {
            assert!(matches!(k.admit(link, long(task, len)), Admit::Queued));
        }
        let mut started = Vec::new();
        k.start(0, false, |link, p| started.push((link, p.task)));
        assert_eq!(started, [(1127, 1), (1128, 2), (1255, 7), (1256, 3)]);
        assert_eq!(finished(&mut k, 1), [(1128, 2), (1255, 7)]);
        // 1127 and 1256 are still transmitting; 1128 starts between them.
        k.start(1, false, |_, _| {});
        assert_eq!(finished(&mut k, 2), [(1128, 5), (1256, 3)]);
        k.start(2, false, |_, _| {});
        // Between two slots 1127 dies and is repaired: its carried-over
        // flight returns to the head of its queue and starts afresh.
        let mut lost = Vec::new();
        k.kill(1127, &mut lost);
        k.revive(1127);
        assert!(lost.is_empty() && !k.is_busy(1127) && k.qlen(1127) == 2);
        assert_eq!(finished(&mut k, 3), [(1256, 6)]);
        k.start(3, false, |_, _| {});
        for t in 4..6 {
            assert_eq!(finished(&mut k, t), []);
            k.start(t, false, |_, _| panic!("1127 is busy"));
        }
        assert_eq!(finished(&mut k, 6), [(1127, 1)]);
        k.start(6, false, |_, _| {});
        assert_eq!(finished(&mut k, 7), [(1127, 4)]);
        assert!(k.is_idle());
        let (nodes, free) = k.arena_stats();
        assert_eq!(nodes, free, "the arena holds queued packets only");
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
