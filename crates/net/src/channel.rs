//! The runtime's two hand-over primitives: the one-batch [`Mailbox`] of
//! the slot path and the mutex + condvar [`Channel`].
//!
//! The workspace is offline (no crossbeam, no tokio — see the
//! `compat-*` stub precedent), so both are small and built on `std`.
//!
//! **[`Mailbox`]** is what a slot's traffic crosses workers in. Each
//! ordered worker pair owns two of them, one per slot parity, and a
//! mailbox holds at most one batch: the sender swaps its whole outbox in
//! ([`Mailbox::put`]), the receiver swaps an emptied batch back
//! ([`Mailbox::take`]), so the buffers circulate and a steady-state
//! hand-over allocates and copies nothing. The slot protocol of
//! [`crate::runtime`] puts before the slot's rendezvous and takes after
//! it, and does not reuse a parity before every peer has taken the
//! previous batch, so the lock inside is never contended and a put never
//! finds the mailbox occupied — unless the receiver stopped taking, in
//! which case the put waits (poison-aware) rather than grow or drop.
//!
//! **[`Channel`]** is a `Mutex<VecDeque>` with a condvar for bounded
//! use. No path of the runtime runs it any more (its last lane carried
//! fault-epoch deltas from worker 0; every worker now ticks a replica of
//! the fault clock instead): it stays exported and tested because
//! `benchmark/` times it (`net.channel.send_drain_ns_per_msg`), until a
//! `benchmark` change releases it (ROADMAP "One benchmark" (c)). It
//! serves callers that hand over once per phase, not once per message:
//! a sender collects a phase's messages in an outbox it owns and passes
//! the whole outbox through [`Channel::send_batch`] under one lock
//! ([`Channel::send`] is the single-message form). Consumers call
//! [`Channel::drain_into`] at points where every hand-over of the phase
//! has completed, so there is no `recv`-blocking path at all — and a
//! lane nobody wrote to costs them one atomic load, no lock.
//!
//! Two robustness properties back the supervised-shutdown protocol:
//!
//! * **Poison recovery.** A panicking worker can leave any mutex
//!   poisoned. Our queue state is a plain `VecDeque` (a mailbox: one
//!   batch, changed by a swap that cannot unwind) that is valid after
//!   every push/extend/drain, so a poisoned lock is recovered
//!   (`into_inner` on the guard) instead of propagating the panic into
//!   innocent peers — the panic itself is reported once, through the
//!   supervisor, not N times through lock poisoning.
//! * **No wait outlives the run.** Every mailbox wait goes through
//!   [`spin_until`], which gives up when the fleet's poison flag trips.
//!   [`Channel::halt`] is the condvar counterpart: it flips a teardown
//!   latch and wakes every blocked sender; from then on `send` and
//!   `send_batch` drop their messages instead of waiting for room.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// The fleet's one waiting policy: spins briefly, then yields, until
/// `ready()` — or until `poison` trips, in which case it returns `true`
/// and the caller abandons the run. All workers run in lockstep, so
/// waits are short and a futex-free spin wins over a mutex+condvar on
/// the per-slot path; the yield is what lets a fleet time-sliced on
/// fewer cores than workers make progress.
pub(crate) fn spin_until(poison: &AtomicBool, ready: impl Fn() -> bool) -> bool {
    let mut spins = 0u32;
    while !ready() {
        if poison.load(Ordering::Acquire) {
            return true;
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    false
}

/// A one-batch hand-over slot between one sender and one receiver, alone
/// on its cache lines (128 bytes: the adjacent-line prefetch pair).
///
/// `full` is the protocol: the sender writes the batch, then sets it
/// (`Release`); the receiver sees it set (`Acquire`), takes the batch,
/// then clears it (`Release`), which is what lets the next put in. The
/// mutex is there for safe interior mutability, not for arbitration — by
/// the time either side locks it the other is done, so it is never
/// contended.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Mailbox<B> {
    full: AtomicBool,
    batch: Mutex<B>,
}

impl<B: Default> Mailbox<B> {
    pub fn new() -> Self {
        Self {
            full: AtomicBool::new(false),
            batch: Mutex::new(B::default()),
        }
    }

    /// A swap cannot unwind and leaves a valid batch on both sides, so a
    /// lock poisoned by a panic elsewhere on its holder's stack is
    /// recovered, like [`Channel`]'s.
    fn lock(&self) -> MutexGuard<'_, B> {
        self.batch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands `batch` over and leaves in its place the emptied batch the
    /// receiver returned with its last take, allocations intact. A
    /// mailbox whose previous batch was never taken is not overwritten:
    /// the put waits for the take, adding the wait to `blocked_ns` when
    /// given, and returns `true` — `batch` untouched — if `poison`
    /// trips first.
    pub fn put(&self, batch: &mut B, poison: &AtomicBool, blocked_ns: Option<&mut u64>) -> bool {
        if self.full.load(Ordering::Acquire) {
            // Only the genuinely blocking path is timed.
            let t0 = blocked_ns.is_some().then(Instant::now);
            if spin_until(poison, || !self.full.load(Ordering::Acquire)) {
                return true;
            }
            if let (Some(ns), Some(t0)) = (blocked_ns, t0) {
                *ns += t0.elapsed().as_nanos() as u64;
            }
        }
        std::mem::swap(&mut *self.lock(), batch);
        self.full.store(true, Ordering::Release);
        false
    }

    /// Takes the waiting batch into `into` and returns `true`; `into`
    /// must come in emptied — it is what the sender's next put gets
    /// back. With nothing waiting, returns `false` and takes no lock.
    pub fn take(&self, into: &mut B) -> bool {
        if !self.full.load(Ordering::Acquire) {
            return false;
        }
        std::mem::swap(&mut *self.lock(), into);
        self.full.store(false, Ordering::Release);
        true
    }

    /// Looks at whatever batch the mailbox holds, taken or not.
    #[cfg(test)]
    pub fn peek<R>(&self, look: impl FnOnce(&B) -> R) -> R {
        look(&self.lock())
    }
}

/// Optional telemetry of one channel, attached by
/// [`Channel::with_stats`]: total nanoseconds senders spent blocked on
/// a full buffer, and the deepest the buffer ever got. Atomic so
/// senders record without extending the critical section; absent (the
/// default), the hot path pays one never-taken branch per send.
#[derive(Debug, Default)]
pub struct ChannelStats {
    blocked_ns: AtomicU64,
    depth_high: AtomicUsize,
}

/// A multi-producer channel drained in batches.
///
/// Two flavors:
/// * [`Channel::bounded`] — senders block while the buffer holds
///   `capacity` messages (for a lane whose traffic has a known ceiling,
///   where the bound is an enforced invariant, not a throttle).
/// * [`Channel::unbounded`] — senders never block.
#[derive(Debug)]
pub struct Channel<T> {
    inner: Mutex<VecDeque<T>>,
    not_full: Condvar,
    capacity: usize,
    halted: AtomicBool,
    /// Mirror of the queue length, stored (`Release`) under the lock
    /// after every change; [`Channel::drain_into`] loads it (`Acquire`)
    /// to skip the lock on an empty lane.
    queued: AtomicUsize,
    stats: Option<Box<ChannelStats>>,
}

impl<T> Channel<T> {
    /// A channel whose `send` blocks at `capacity` queued messages.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            halted: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            stats: None,
        }
    }

    /// A channel whose `send` never blocks.
    pub fn unbounded() -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            not_full: Condvar::new(),
            capacity: usize::MAX,
            halted: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            stats: None,
        }
    }

    /// Attaches blocked-send-time and depth-high-water telemetry
    /// (builder style; only at construction, before the channel is
    /// shared).
    pub fn with_stats(mut self) -> Self {
        self.stats = Some(Box::default());
        self
    }

    /// Total nanoseconds senders spent blocked on a full buffer (0
    /// without [`Channel::with_stats`]).
    pub fn blocked_send_ns(&self) -> u64 {
        self.stats
            .as_ref()
            .map_or(0, |s| s.blocked_ns.load(Ordering::Relaxed))
    }

    /// Deepest the buffer ever got (0 without [`Channel::with_stats`]).
    pub fn depth_high_water(&self) -> usize {
        self.stats
            .as_ref()
            .map_or(0, |s| s.depth_high.load(Ordering::Relaxed))
    }

    /// Locks the queue, recovering from poisoning: the deque is valid
    /// after every atomic operation, and panics are reported through the
    /// supervisor rather than re-thrown at innocent lock sites.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits until the queue has room for one more message. `None` on a
    /// [`Channel::halt`]ed channel: the run is already dead and nobody
    /// will drain it, so the caller drops what it meant to enqueue.
    fn wait_for_room<'a>(
        &'a self,
        mut q: MutexGuard<'a, VecDeque<T>>,
    ) -> Option<MutexGuard<'a, VecDeque<T>>> {
        if q.len() >= self.capacity {
            // Only the genuinely-blocking path is timed, so the
            // telemetry cost scales with contention, not traffic.
            let t0 = self.stats.as_ref().map(|_| Instant::now());
            while q.len() >= self.capacity {
                if self.halted.load(Ordering::Acquire) {
                    return None;
                }
                q = self.not_full.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if let (Some(s), Some(t0)) = (self.stats.as_ref(), t0) {
                s.blocked_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        if self.halted.load(Ordering::Acquire) {
            return None;
        }
        Some(q)
    }

    /// Publishes the queue's new length after an enqueue: the length
    /// mirror for [`Channel::drain_into`]'s empty-lane check and the
    /// depth high-water mark.
    fn note_enqueued(&self, q: &VecDeque<T>) {
        // Release: pairs with the Acquire load in `drain_into`.
        self.queued.store(q.len(), Ordering::Release);
        if let Some(s) = self.stats.as_ref() {
            s.depth_high.fetch_max(q.len(), Ordering::Relaxed);
        }
    }

    /// Enqueues one message, blocking while the channel is full. On a
    /// [`Channel::halt`]ed channel the message is dropped instead — the
    /// run is already dead, nobody will drain it.
    pub fn send(&self, value: T) {
        if let Some(mut q) = self.wait_for_room(self.lock()) {
            q.push_back(value);
            self.note_enqueued(&q);
        }
    }

    /// Enqueues every message of `batch`, in order, and leaves `batch`
    /// empty with its allocation intact. The whole batch goes in under
    /// one lock acquisition when it fits; on a bounded channel the part
    /// that does not fit blocks exactly as that many [`Channel::send`]s
    /// would, and [`Channel::halt`] drops whatever is still waiting. An
    /// empty batch takes no lock.
    pub fn send_batch(&self, batch: &mut Vec<T>) {
        if batch.is_empty() {
            return;
        }
        let mut guard = self.lock();
        while !batch.is_empty() {
            let Some(mut q) = self.wait_for_room(guard) else {
                batch.clear();
                return;
            };
            let fits = (self.capacity - q.len()).min(batch.len());
            q.extend(batch.drain(..fits));
            self.note_enqueued(&q);
            guard = q;
        }
    }

    /// Moves every queued message into `out`, preserving send order, and
    /// wakes any sender blocked on a full buffer. An empty channel is
    /// left without taking the lock.
    pub fn drain_into(&self, out: &mut Vec<T>) {
        // Acquire: pairs with the Release stores made under the lock.
        // A zero means no completed enqueue is visible to this thread,
        // so the drain is ordered before any enqueue still in flight;
        // a sender blocked on a full buffer stored a non-zero length
        // before it began to wait, so it is never passed over.
        if self.queued.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut q = self.lock();
        let was_full = q.len() >= self.capacity;
        out.extend(q.drain(..));
        self.queued.store(0, Ordering::Release);
        drop(q);
        if was_full {
            self.not_full.notify_all();
        }
    }

    /// Teardown latch: wakes every blocked sender and makes all future
    /// `send`s and `send_batch`es drop their messages. Irreversible;
    /// for a supervisor to call once the run has already failed.
    pub fn halt(&self) {
        self.halted.store(true, Ordering::Release);
        // Take the lock so a sender between its full-check and its wait
        // cannot miss the wakeup.
        drop(self.lock());
        self.not_full.notify_all();
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A batch shaped like the runtime's: three shares that travel
    /// together (control, deliveries, injections).
    type Shares = (Vec<u32>, Vec<u32>, Vec<u32>);

    fn buffers(b: &Shares) -> [(*const u32, usize); 3] {
        [
            (b.0.as_ptr(), b.0.capacity()),
            (b.1.as_ptr(), b.1.capacity()),
            (b.2.as_ptr(), b.2.capacity()),
        ]
    }

    #[test]
    fn mailbox_sits_alone_on_its_cache_lines() {
        assert!(std::mem::align_of::<Mailbox<Shares>>() >= 128);
        assert!(std::mem::size_of::<Mailbox<Shares>>() % 128 == 0);
    }

    /// One hand-over carries all three shares, each in send order; an
    /// empty mailbox is left alone.
    #[test]
    fn one_hand_over_returns_every_share_in_send_order() {
        let mb: Mailbox<Shares> = Mailbox::new();
        let poison = AtomicBool::new(false);
        let mut inbox = Shares::default();
        assert!(!mb.take(&mut inbox), "nothing was put");
        let mut outbox: Shares = (vec![1, 2, 3], (10..20).collect(), vec![7]);
        assert!(!mb.put(&mut outbox, &poison, None));
        assert_eq!(outbox, Shares::default(), "the outbox comes back empty");
        assert!(mb.take(&mut inbox));
        assert_eq!(inbox, (vec![1, 2, 3], (10..20).collect(), vec![7]));
        assert!(!mb.take(&mut Shares::default()), "one batch, taken once");
    }

    /// The batch a take leaves behind is what the next put gets back, so
    /// the same allocations go round for ever: over 100 slots of a
    /// two-parity pair of mailboxes, no buffer is allocated, grown or
    /// dropped.
    #[test]
    fn buffers_circulate_without_reallocating() {
        let mail: [Mailbox<Shares>; 2] = [Mailbox::new(), Mailbox::new()];
        let poison = AtomicBool::new(false);
        let (mut outbox, mut inbox) = (Shares::default(), Shares::default());
        let mut received = Vec::new();
        let all_buffers = |outbox: &Shares, inbox: &Shares| {
            let mut all = Vec::new();
            all.extend(buffers(outbox));
            all.extend(buffers(inbox));
            all.extend(mail[0].peek(buffers));
            all.extend(mail[1].peek(buffers));
            all.sort_unstable();
            all
        };
        let mut warm = Vec::new();
        for slot in 0..108u32 {
            // A slot's batch never exceeds 16 messages a share; the four
            // batches of the cycle have all been through it by slot 8.
            let len = if slot < 8 { 16 } else { slot % 17 };
            outbox.0.extend(slot..slot + len);
            outbox.1.extend(0..len);
            outbox.2.push(slot);
            assert!(!mail[(slot % 2) as usize].put(&mut outbox, &poison, None));
            assert!(mail[(slot % 2) as usize].take(&mut inbox));
            assert_eq!(inbox.0, (slot..slot + len).collect::<Vec<_>>());
            received.push(inbox.2[0]);
            inbox.0.clear();
            inbox.1.clear();
            inbox.2.clear();
            if slot == 7 {
                warm = all_buffers(&outbox, &inbox);
            }
        }
        assert_eq!(received, (0..108).collect::<Vec<_>>());
        assert_eq!(all_buffers(&outbox, &inbox), warm);
        assert!(warm.iter().all(|&(_, capacity)| capacity > 0));
    }

    /// A put into a mailbox whose batch was never taken waits — it
    /// neither overwrites nor drops — and is released by the take, or,
    /// when no take ever comes, by the poison flag. No sleeps: the
    /// mailbox's own state says whether the put waited — a put that did
    /// not would have swapped the untaken batch out and reported
    /// success.
    #[test]
    fn put_into_an_untaken_mailbox_waits_for_the_take_or_for_poison() {
        let mb: Arc<Mailbox<Vec<u32>>> = Arc::new(Mailbox::new());
        let poison = Arc::new(AtomicBool::new(false));
        let put_on_a_thread = |mut batch: Vec<u32>| {
            let (mb, poison) = (Arc::clone(&mb), Arc::clone(&poison));
            std::thread::spawn(move || {
                let aborted = mb.put(&mut batch, &poison, Some(&mut 0));
                (aborted, batch)
            })
        };
        assert!(!mb.put(&mut vec![1], &poison, None));
        let second = put_on_a_thread(vec![2]);
        assert!(!second.is_finished(), "nobody took the first batch yet");
        let mut inbox = Vec::new();
        assert!(mb.take(&mut inbox));
        assert_eq!(inbox, vec![1], "the waiting put must not overwrite");
        let (aborted, returned) = second.join().unwrap();
        assert!(!aborted && returned.is_empty());
        // The second batch now occupies the mailbox and is never taken.
        let third = put_on_a_thread(vec![3]);
        assert!(!third.is_finished());
        poison.store(true, Ordering::Release);
        let (aborted, returned) = third.join().unwrap();
        assert!(aborted, "poison must release the put");
        assert_eq!(returned, vec![3], "an abandoned put keeps its batch");
        inbox.clear();
        assert!(mb.take(&mut inbox));
        assert_eq!(inbox, vec![2], "and leaves the untaken one alone");
    }

    #[test]
    fn drain_preserves_send_order() {
        let ch = Channel::unbounded();
        for i in 0..100 {
            ch.send(i);
        }
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(ch.is_empty());
    }

    /// Single sends and batch hand-offs share one FIFO: whatever the
    /// interleaving, a drain returns the messages in hand-over order,
    /// and a handed-over batch comes back empty with its allocation.
    #[test]
    fn interleaved_sends_and_batches_keep_order() {
        let ch = Channel::unbounded();
        let mut batch = Vec::with_capacity(16);
        let mut out = Vec::new();
        let mut next = 0u32;
        for round in 0..20u32 {
            ch.send(next);
            next += 1;
            batch.extend(next..next + round % 5);
            next += round % 5;
            ch.send_batch(&mut batch); // empty every fifth round
            assert!(batch.is_empty());
            assert!(batch.capacity() >= 16, "outbox allocation is reused");
            if round % 3 == 0 {
                ch.drain_into(&mut out);
            }
        }
        ch.drain_into(&mut out);
        assert_eq!(out, (0..next).collect::<Vec<_>>());
        assert!(ch.is_empty());
        ch.drain_into(&mut out); // empty lane: nothing appended
        assert_eq!(out.len(), next as usize);
    }

    /// Hands `batch` to `ch` on a second thread and returns once the
    /// channel holds `full_at` messages — its capacity, so the sender
    /// cannot return before the test drains or halts. The interleaving
    /// is forced by the channel's own state, not by sleeping; the
    /// thread yields the batch as it got it back.
    fn blocked_batch(
        ch: &Arc<Channel<u32>>,
        mut batch: Vec<u32>,
        full_at: usize,
    ) -> std::thread::JoinHandle<Vec<u32>> {
        let ch2 = Arc::clone(ch);
        let sender = std::thread::spawn(move || {
            ch2.send_batch(&mut batch);
            batch
        });
        while ch.len() < full_at {
            std::thread::yield_now();
        }
        sender
    }

    /// A batch larger than the room left fills the lane to capacity and
    /// blocks with the rest, like that many `send`s; the next drain
    /// lets the rest in, in order.
    #[test]
    fn bounded_batch_blocks_for_the_part_that_does_not_fit() {
        let ch = Arc::new(Channel::bounded(4).with_stats());
        ch.send(0);
        let sender = blocked_batch(&ch, vec![1, 2, 3, 4, 5], 4);
        assert!(
            !sender.is_finished(),
            "two messages cannot fit: the hand-over must still be blocked"
        );
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        let batch = sender.join().unwrap();
        assert!(batch.is_empty(), "a completed hand-over empties the batch");
        ch.drain_into(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(ch.depth_high_water(), 4);
        assert!(ch.blocked_send_ns() > 0, "the blocked part was timed");
    }

    /// `halt` releases a blocked batch hand-over: the part still waiting
    /// is dropped, and later batches are dropped without blocking.
    #[test]
    fn halt_releases_a_blocked_batch() {
        let ch = Arc::new(Channel::bounded(2));
        let sender = blocked_batch(&ch, vec![0, 1, 2, 3], 2);
        assert!(!sender.is_finished(), "blocked at 2 of 2");
        ch.halt();
        let batch = sender.join().unwrap(); // must return
        assert!(batch.is_empty(), "the waiting part is dropped");
        let mut late = vec![7, 8, 9];
        ch.send_batch(&mut late); // full and halted: drops, no wait
        assert!(late.is_empty());
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        assert_eq!(out, vec![0, 1], "only what fit before the halt");
    }

    #[test]
    fn bounded_send_blocks_until_drained() {
        let ch = Arc::new(Channel::bounded(4));
        for i in 0..4 {
            ch.send(i);
        }
        let unblocked = Arc::new(AtomicBool::new(false));
        let t = {
            let ch = Arc::clone(&ch);
            let unblocked = Arc::clone(&unblocked);
            std::thread::spawn(move || {
                ch.send(99); // must block: channel holds 4 of 4
                unblocked.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !unblocked.load(Ordering::SeqCst),
            "send should block on a full bounded channel"
        );
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        t.join().unwrap();
        assert!(unblocked.load(Ordering::SeqCst));
        assert_eq!(out, vec![0, 1, 2, 3]);
        out.clear();
        ch.drain_into(&mut out);
        assert_eq!(out, vec![99]);
    }

    /// Two senders use `send`, two hand over batches of 8, all at once.
    #[test]
    fn concurrent_senders_lose_no_messages() {
        let ch = Arc::new(Channel::bounded(1024));
        let start = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        for s in 0..4u64 {
            let ch = Arc::clone(&ch);
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                start.wait();
                if s % 2 == 0 {
                    for i in 0..200u64 {
                        ch.send(s * 1000 + i);
                    }
                } else {
                    let mut batch = Vec::new();
                    for chunk in 0..25u64 {
                        batch.extend((chunk * 8..chunk * 8 + 8).map(|i| s * 1000 + i));
                        ch.send_batch(&mut batch);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        assert_eq!(out.len(), 800);
        // Per-sender FIFO: each sender's messages appear in its order.
        for s in 0..4u64 {
            let mine: Vec<u64> = out.iter().copied().filter(|v| v / 1000 == s).collect();
            assert_eq!(mine, (0..200).map(|i| s * 1000 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn halt_unblocks_a_stuck_sender() {
        let ch = Arc::new(Channel::bounded(1));
        ch.send(0);
        let t = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || ch.send(1)) // blocks: 1 of 1 queued
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        ch.halt();
        t.join().unwrap(); // must return, message dropped
        ch.send(2); // post-halt sends drop instead of blocking
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        assert_eq!(out, vec![0], "halted channel drops late sends");
    }

    #[test]
    fn stats_track_depth_and_blocked_time() {
        let ch = Arc::new(Channel::bounded(2).with_stats());
        ch.send(1);
        assert_eq!(ch.depth_high_water(), 1);
        ch.send(2);
        assert_eq!(ch.depth_high_water(), 2);
        assert_eq!(ch.blocked_send_ns(), 0, "no send has blocked yet");
        let t = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || ch.send(3)) // blocks: 2 of 2
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        t.join().unwrap();
        assert!(
            ch.blocked_send_ns() >= 10_000_000,
            "blocked ~30ms, recorded {}ns",
            ch.blocked_send_ns()
        );
        // High-water survives the drain.
        assert_eq!(ch.depth_high_water(), 2);
    }

    #[test]
    fn stats_absent_reads_zero() {
        let ch = Channel::bounded(4);
        ch.send(1);
        assert_eq!(ch.blocked_send_ns(), 0);
        assert_eq!(ch.depth_high_water(), 0);
    }

    #[test]
    fn poisoned_channel_still_works() {
        let ch = Arc::new(Channel::bounded(8));
        ch.send(7);
        let ch2 = Arc::clone(&ch);
        // Poison the mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = ch2.inner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(ch.inner.is_poisoned());
        ch.send(8); // recovered, not propagated
        ch.send_batch(&mut vec![9, 10]);
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        assert_eq!(out, vec![7, 8, 9, 10]);
        assert_eq!(ch.len(), 0);
    }
}
