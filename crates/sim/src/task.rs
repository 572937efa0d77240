//! Active-task slab: tracks outstanding receptions per task.

/// Task classification for completion accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Broadcast: completes after `N − 1` receptions.
    Broadcast,
    /// Unicast: completes on delivery at the destination.
    Unicast,
}

/// One active task's bookkeeping: the record its *home* keeps until the
/// last outstanding reception is settled, by a delivery or by a loss.
/// The serial engine and the sharded coordinator keep every task in one
/// table; `pstar-net` keeps a task at the worker owning its
/// source (broadcast) or destination (unicast). Either way a settlement
/// goes through [`TaskSlot::receive`] / [`TaskSlot::lose`], and the
/// record of a task they complete through
/// [`crate::TaskLedger::completed`].
#[derive(Debug, Clone, Copy)]
pub struct TaskSlot {
    /// Generation time.
    pub gen_time: u64,
    /// Latest slot a reception or a loss of this task was settled at —
    /// once `remaining` is 0, the slot the task completed in. A maximum,
    /// so settlements may be applied in any order.
    pub last: u64,
    /// Outstanding receptions before completion.
    pub remaining: u32,
    /// Receptions lost for good (the task is "damaged" and excluded from
    /// completion-delay statistics when > 0).
    pub lost: u32,
    /// Generated inside the measurement window (counts toward statistics).
    pub measured: bool,
    /// Broadcast or unicast.
    pub kind: TaskKind,
    /// At least one of the lost receptions was lost to a dead link.
    pub fault_lost: bool,
    /// At least one copy of this task was retransmitted (ARQ recovery);
    /// completed tasks with this flag contribute to the recovered
    /// time-to-full-delivery statistic.
    pub retx: bool,
}

impl TaskSlot {
    /// The record of a task generated at `gen_time`; a broadcast
    /// completes after `receivers` receptions, a unicast after one.
    pub fn new(gen_time: u64, broadcast: bool, receivers: u32, measured: bool) -> Self {
        let (kind, remaining) = if broadcast {
            (TaskKind::Broadcast, receivers)
        } else {
            (TaskKind::Unicast, 1)
        };
        Self {
            gen_time,
            last: gen_time,
            remaining,
            lost: 0,
            measured,
            kind,
            fault_lost: false,
            retx: false,
        }
    }

    /// One reception delivered at slot `t`; `true` when that completed
    /// the task.
    #[inline(always)]
    pub fn receive(&mut self, t: u64) -> bool {
        debug_assert!(self.remaining > 0, "reception after completion");
        self.last = self.last.max(t);
        self.remaining -= 1;
        self.remaining == 0
    }

    /// `lost` receptions will never happen (the copy responsible for
    /// them was lost for good at slot `t`, to a dead link when `fault`);
    /// `true` when that completed the task.
    #[inline]
    pub fn lose(&mut self, t: u64, lost: u32, fault: bool) -> bool {
        debug_assert!(self.remaining >= lost, "cancelling more than remain");
        self.last = self.last.max(t);
        self.remaining -= lost;
        self.lost += lost;
        self.fault_lost |= fault;
        self.remaining == 0
    }
}

/// Slab of active tasks with slot reuse. Completed slots are recycled so
/// long runs keep the table at the size of the *concurrent* task
/// population (Θ(thousands)), not the total generated population
/// (Θ(millions)).
#[derive(Debug, Default)]
pub struct TaskTable {
    slots: Vec<TaskSlot>,
    free: Vec<u32>,
    active: usize,
}

impl TaskTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a task, returning its slot index.
    pub fn insert(&mut self, slot: TaskSlot) -> u32 {
        self.active += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = slot;
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(slot);
            idx
        }
    }

    /// Read access to a task.
    #[inline(always)]
    pub fn get(&self, idx: u32) -> &TaskSlot {
        &self.slots[idx as usize]
    }

    /// Write access to a task.
    #[inline(always)]
    pub fn get_mut(&mut self, idx: u32) -> &mut TaskSlot {
        &mut self.slots[idx as usize]
    }

    /// Takes a completed task out of the table (its index is then free
    /// and must not be used again).
    #[inline]
    pub fn remove(&mut self, idx: u32) -> TaskSlot {
        self.free.push(idx);
        self.active -= 1;
        self.slots[idx as usize]
    }

    /// Number of currently active tasks.
    pub fn active(&self) -> usize {
        self.active
    }

    /// High-water slot count (allocation footprint).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(broadcast: bool, receivers: u32) -> TaskSlot {
        TaskSlot::new(5, broadcast, receivers, true)
    }

    #[test]
    fn cancelled_receptions_complete_and_mark_lost() {
        let mut s = slot(true, 10);
        assert!(!s.receive(6));
        assert!(!s.lose(9, 4, false));
        assert_eq!((s.lost, s.remaining, s.fault_lost), (4, 5, false));
        assert!(s.lose(7, 5, true));
        assert_eq!((s.lost, s.fault_lost), (9, true));
        assert_eq!(s.last, 9, "the latest settlement, whatever the order");
    }

    #[test]
    fn unicast_completes_after_one_reception() {
        let mut t = TaskTable::new();
        let id = t.insert(slot(false, 15));
        assert_eq!(t.active(), 1);
        assert!(t.get_mut(id).receive(8));
        assert_eq!(t.remove(id).last, 8);
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn broadcast_completes_after_all_receptions() {
        let mut s = slot(true, 3);
        assert!(!s.receive(6));
        assert!(!s.receive(9));
        assert!(s.receive(7));
        assert_eq!(s.last, 9);
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = TaskTable::new();
        let a = t.insert(slot(false, 1));
        t.remove(a);
        let b = t.insert(slot(false, 1));
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(t.capacity(), 1);
    }

    #[test]
    fn distinct_active_tasks_get_distinct_slots() {
        let mut t = TaskTable::new();
        let a = t.insert(slot(true, 5));
        let b = t.insert(slot(false, 1));
        assert_ne!(a, b);
        assert_eq!(t.get(a).remaining, 5);
        assert_eq!(t.get(b).kind, TaskKind::Unicast);
    }
}
