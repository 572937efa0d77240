//! Mutex + condvar channels for the slot-synchronous message plane.
//!
//! The workspace is offline (no crossbeam, no tokio — see the
//! `compat-*` stub precedent), so the runtime's channels are a small
//! `Mutex<VecDeque>` with a condvar for the bounded data plane. The
//! runtime's senders hand over once per phase, not once per message:
//! a worker collects a phase's messages for each destination in an
//! outbox it owns and passes the whole outbox through
//! [`Channel::send_batch`] under one lock ([`Channel::send`] is the
//! one-message form, used by the rare fault-delta lane). The phase
//! protocol of [`crate::runtime`] guarantees that receivers only drain
//! at barriers where every hand-over of the phase has completed, so
//! there is no `recv`-blocking path at all: consumers call
//! [`Channel::drain_into`] and always observe a complete, deterministic
//! batch — and a lane nobody wrote to costs them one atomic load, no
//! lock.
//!
//! Two robustness properties back the supervised-shutdown protocol:
//!
//! * **Poison recovery.** A panicking worker can leave any mutex
//!   poisoned. Our queue state is a plain `VecDeque` that is valid after
//!   every push/extend/drain, so a poisoned lock is recovered
//!   (`into_inner` on the guard) instead of propagating the panic into
//!   innocent peers — the panic itself is reported once, through the
//!   supervisor, not N times through lock poisoning.
//! * **Halt.** [`Channel::halt`] flips a teardown latch and wakes every
//!   blocked sender; from then on `send` and `send_batch` drop their
//!   messages instead of waiting for room. The supervisor halts all
//!   channels when a worker dies so peers blocked mid-hand-over unblock
//!   and reach the poisoned barrier check instead of deadlocking on a
//!   consumer that will never drain again.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

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
///   `capacity` messages (the data plane: one slot's deliveries between
///   a worker pair can never exceed the number of links between them,
///   so a correctly sized channel never actually blocks — the bound is
///   an enforced invariant, not a throttle).
/// * [`Channel::unbounded`] — senders never block (the control and
///   injection lanes, mirroring the simulator's contention-free ARQ
///   control plane).
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
    /// only the supervisor calls this, after the run has already failed.
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
