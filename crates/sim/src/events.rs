//! The discrete-event calendar: a binary-heap queue keyed by
//! `(wake_cycle, stable tie-break id)`.
//!
//! The event-driven engine replaces tick-the-world with clock jumps to
//! the next scheduled event. Data-network deliveries live in an
//! [`EventQueue`]; the other wake sources (bus arbitration, directory
//! banks, retry and idle timers) each report their next cycle through
//! a method of their own, which the machine reads directly.
//! Determinism requires a *total* order on events: two events
//! scheduled for the same cycle pop in the order they were pushed,
//! because each push is assigned a monotonically increasing tie-break
//! id. This reproduces exactly the iteration order of the
//! `BTreeMap<(Cycle, u64), T>` the data network used when the machine
//! was cycle-stepped, so swapping the container changes no delivery
//! order anywhere.
//!
//! The queue deliberately has no `remove` or `reschedule`: stale
//! entries are the classic source of calendar-queue nondeterminism,
//! so consumers that need revocable wakes (the machine's per-node
//! scheduler) keep authoritative state outside the queue and treat a
//! pop as a hint, never as a command.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// One scheduled entry: the key is `(cycle, id)` and the ordering is
/// on the key alone, so `T` needs no `Ord`.
#[derive(Debug, Clone)]
struct Entry<T> {
    cycle: Cycle,
    id: u64,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cycle == other.cycle && self.id == other.id
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (cycle, id) on top.
        (other.cycle, other.id).cmp(&(self.cycle, self.id))
    }
}

/// A deterministic future-event queue ordered by
/// `(wake_cycle, push order)`.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_id: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_id: 0 }
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `value` for cycle `cycle` and returns its tie-break
    /// id. Ids increase monotonically across the queue's lifetime, so
    /// same-cycle entries pop in push order even across interleaved
    /// pushes and pops.
    pub fn push(&mut self, cycle: Cycle, value: T) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Entry { cycle, id, value });
        id
    }

    /// The cycle of the earliest scheduled event, if any.
    pub fn next_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.cycle)
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.cycle <= now) {
            Some(self.heap.pop().expect("peeked entry").value)
        } else {
            None
        }
    }

    /// Pops the earliest event unconditionally, with its key.
    pub fn pop(&mut self) -> Option<(Cycle, u64, T)> {
        self.heap.pop().map(|e| (e.cycle, e.id, e.value))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled — the queue-level analogue of a
    /// machine's `is_quiesced`: an empty calendar means nothing will
    /// ever happen again without external stimulus.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn pops_in_cycle_then_id_order() {
        let mut q = EventQueue::new();
        q.push(30, "c30-first");
        q.push(10, "c10");
        q.push(30, "c30-second");
        q.push(20, "c20");
        let mut out = Vec::new();
        while let Some((cy, _, v)) = q.pop() {
            out.push((cy, v));
        }
        assert_eq!(
            out,
            vec![(10, "c10"), (20, "c20"), (30, "c30-first"), (30, "c30-second")]
        );
    }

    #[test]
    fn same_cycle_ties_resolve_by_push_order() {
        let mut q = EventQueue::new();
        let ids: Vec<u64> = (0..100).map(|i| q.push(7, i)).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "ids are monotone");
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop_due(7)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_never_reorders_equal_keys() {
        // Property: under any interleaving of pushes (at random cycles)
        // and drains, events with equal cycles always pop in push
        // order, and the full pop sequence matches a stable sort by
        // (cycle, push index).
        let mut rng = SimRng::new(0xca1e_da12);
        for round in 0..50 {
            let mut q = EventQueue::new();
            let mut pushed: Vec<(Cycle, u64)> = Vec::new(); // (cycle, push index)
            let mut popped: Vec<(Cycle, u64)> = Vec::new();
            let mut idx = 0u64;
            for _ in 0..200 {
                if rng.below(3) < 2 {
                    let cycle = rng.below(16);
                    q.push(cycle, idx);
                    pushed.push((cycle, idx));
                    idx += 1;
                } else if let Some((cy, _, v)) = q.pop() {
                    popped.push((cy, v));
                }
            }
            while let Some((cy, _, v)) = q.pop() {
                popped.push((cy, v));
            }
            // Every push is popped exactly once.
            let mut seen = popped.clone();
            seen.sort_unstable_by_key(|&(_, i)| i);
            let mut expect = pushed.clone();
            expect.sort_unstable_by_key(|&(_, i)| i);
            assert_eq!(seen, expect, "round {round}: drained set matches pushed set");
            // Equal cycles pop in push order within any drain run. A
            // pop can interleave with later pushes, so the global
            // sequence is only piecewise sorted — but for a fixed
            // cycle, indices must ascend.
            for c in 0..16 {
                let at_c: Vec<u64> =
                    popped.iter().filter(|&&(cy, _)| cy == c).map(|&(_, i)| i).collect();
                let mut sorted = at_c.clone();
                sorted.sort_unstable();
                assert_eq!(at_c, sorted, "round {round}: cycle {c} ties kept push order");
            }
        }
    }

    #[test]
    fn pop_due_respects_the_clock() {
        let mut q = EventQueue::new();
        q.push(5, 'a');
        q.push(9, 'b');
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some('a'));
        assert_eq!(q.pop_due(5), None);
        assert_eq!(q.pop_due(100), Some('b'));
        assert_eq!(q.pop_due(100), None);
    }

    #[test]
    fn empty_queue_quiesce_matches_is_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_cycle(), None, "empty calendar never wakes");
        q.push(3, 1);
        assert!(!q.is_empty());
        assert_eq!(q.next_cycle(), Some(3));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.next_cycle(), None);
        assert_eq!(q.len(), 0);
    }
}
