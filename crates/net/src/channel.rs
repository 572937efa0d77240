//! The runtime's hand-over primitive, the one-batch [`Mailbox`] of the
//! slot path, and the bounded [`Channel`].
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
//! which case the put waits (poison-aware, through [`spin_until`])
//! rather than grow or drop.
//!
//! **[`Channel`]** is a `Mutex<VecDeque>` with a condvar: `send` blocks
//! at capacity, `drain_into` takes everything. No path of the runtime
//! runs it; it stays exported because `benchmark/` times it
//! (`net.channel.send_drain_ns_per_msg`), until a `benchmark` change
//! releases it.
//!
//! Both recover a lock poisoned by a panic elsewhere instead of
//! propagating it into innocent peers: their state is valid after every
//! operation, and the panic itself is reported once, through the
//! supervisor.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// recovered.
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

/// A bounded multi-producer FIFO drained in batches: a
/// `Mutex<VecDeque>` whose senders block while it holds `capacity`
/// messages, and whose consumer takes everything queued at once.
#[derive(Debug)]
pub struct Channel<T> {
    inner: Mutex<VecDeque<T>>,
    not_full: Condvar,
    capacity: usize,
}

impl<T> Channel<T> {
    /// A channel whose `send` blocks at `capacity` queued messages.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Locks the queue, recovering from poisoning: the deque is valid
    /// after every push and drain, and panics are reported through the
    /// supervisor rather than re-thrown at innocent lock sites.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues one message, blocking while the channel is full.
    pub fn send(&self, value: T) {
        let mut q = self.lock();
        while q.len() >= self.capacity {
            q = self.not_full.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        q.push_back(value);
    }

    /// Moves every queued message into `out`, preserving send order, and
    /// wakes any sender blocked on a full buffer.
    pub fn drain_into(&self, out: &mut Vec<T>) {
        let mut q = self.lock();
        let was_full = q.len() >= self.capacity;
        out.extend(q.drain(..));
        drop(q);
        if was_full {
            self.not_full.notify_all();
        }
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
        let ch = Channel::bounded(128);
        for i in 0..100 {
            ch.send(i);
        }
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        ch.drain_into(&mut out); // drained: nothing more
        assert_eq!(out.len(), 100);
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

    /// Four senders at once: nothing is lost, and each sender's messages
    /// come out in its order.
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
                for i in 0..200u64 {
                    ch.send(s * 1000 + i);
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
        ch.send(9);
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        assert_eq!(out, vec![7, 8, 9]);
    }
}
