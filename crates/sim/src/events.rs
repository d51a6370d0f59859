//! The discrete-event calendar: a ring of per-cycle FIFO buckets (a
//! calendar queue, after Brown, "Calendar queues", CACM 1988) keyed
//! by `(wake_cycle, stable tie-break id)`.
//!
//! The event-driven engine replaces tick-the-world with clock jumps to
//! the next scheduled event. Data-network deliveries and directory
//! request flights live in an [`EventQueue`]; the other wake sources
//! (bus arbitration, directory banks, retry and idle timers) each
//! report their next cycle through a method of their own, which the
//! machine reads directly.
//!
//! Determinism requires a *total* order on events: two events
//! scheduled for the same cycle pop in the order they were pushed,
//! because each push is assigned a monotonically increasing tie-break
//! id. This reproduces exactly the iteration order of the
//! `BTreeMap<(Cycle, u64), T>` the data network used when the machine
//! was cycle-stepped, so swapping the container changes no delivery
//! order anywhere.
//!
//! The order is exact by construction, not by sorting. Every queued
//! cycle lies in `[earliest, earliest + ring size)`, so bucket
//! `cycle & mask` holds exactly one cycle, and each bucket is a FIFO
//! list in push order. A push that would stretch the queued span to
//! the ring's size doubles the ring first, so the ring follows the
//! delays that actually occur (memory latency, network latency, fault
//! jitter) with no overflow structure beside it.
//!
//! The queue deliberately has no `remove` or `reschedule`: stale
//! entries are the classic source of calendar-queue nondeterminism,
//! so consumers that need revocable wakes (the machine's per-node
//! scheduler) keep authoritative state outside the queue and treat a
//! pop as a hint, never as a command.

use crate::Cycle;

/// The ring size a queue starts with; it doubles on demand.
const INITIAL_BUCKETS: usize = 64;

/// The end of a slot list.
const NIL: u32 = u32::MAX;

/// One queued event, or a free slot (then `value` is `None` and
/// `next` threads the free list).
#[derive(Debug, Clone)]
struct Slot<T> {
    id: u64,
    next: u32,
    value: Option<T>,
}

/// One cycle's FIFO: the first and last slot of its list. `cycle` is
/// meaningful only while the bucket's occupancy bit is set.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    cycle: Cycle,
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket { cycle: 0, head: NIL, tail: NIL };

/// A deterministic future-event queue ordered by
/// `(wake_cycle, push order)`.
///
/// A push, a pop and [`EventQueue::next_cycle`] cost O(1) apart from
/// the occupancy-bitmap scan that finds the next non-empty bucket
/// (one word per 64 cycles of ring). Events live in one slab whose
/// freed slots are reused, so a queue in steady state does not
/// allocate.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: u32,
    /// The ring; its length is a power of two.
    buckets: Vec<Bucket>,
    /// One bit per bucket: set while the bucket holds events.
    occupied: Vec<u64>,
    /// The earliest and latest queued cycles (valid while `len > 0`).
    min: Cycle,
    max: Cycle,
    len: usize,
    next_id: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY; INITIAL_BUCKETS],
            occupied: vec![0; INITIAL_BUCKETS / 64],
            min: 0,
            max: 0,
            len: 0,
            next_id: 0,
        }
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
    /// pushes and pops. `cycle` may precede every queued cycle.
    pub fn push(&mut self, cycle: Cycle, value: T) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.len == 0 {
            (self.min, self.max) = (cycle, cycle);
        } else {
            (self.min, self.max) = (self.min.min(cycle), self.max.max(cycle));
            if self.max - self.min >= self.buckets.len() as u64 {
                self.grow();
            }
        }
        let slot = match self.free {
            NIL => {
                self.slots.push(Slot { id, next: NIL, value: Some(value) });
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 queued events")
            }
            s => {
                let free = &mut self.slots[s as usize];
                self.free = free.next;
                *free = Slot { id, next: NIL, value: Some(value) };
                s
            }
        };
        let b = self.bucket_of(cycle);
        let bucket = &mut self.buckets[b];
        if bucket.head == NIL {
            *bucket = Bucket { cycle, head: slot, tail: slot };
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            debug_assert_eq!(bucket.cycle, cycle, "a bucket holds one cycle");
            self.slots[bucket.tail as usize].next = slot;
            bucket.tail = slot;
        }
        self.len += 1;
        id
    }

    /// The cycle of the earliest scheduled event, if any.
    pub fn next_cycle(&self) -> Option<Cycle> {
        (self.len > 0).then_some(self.min)
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<T> {
        if self.len > 0 && self.min <= now {
            self.pop().map(|(_, _, value)| value)
        } else {
            None
        }
    }

    /// Pops the earliest event unconditionally, with its key.
    pub fn pop(&mut self) -> Option<(Cycle, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let cycle = self.min;
        let b = self.bucket_of(cycle);
        let s = self.buckets[b].head;
        let slot = &mut self.slots[s as usize];
        let (id, next) = (slot.id, slot.next);
        let value = slot.value.take().expect("a queued slot holds a value");
        slot.next = self.free;
        self.free = s;
        self.len -= 1;
        if next != NIL {
            self.buckets[b].head = next;
        } else {
            self.buckets[b] = EMPTY;
            self.occupied[b / 64] &= !(1 << (b % 64));
            if self.len > 0 {
                self.min = self.buckets[self.first_occupied_from(b + 1)].cycle;
            }
        }
        Some((cycle, id, value))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are scheduled — the queue-level analogue of a
    /// machine's `is_quiesced`: an empty calendar means nothing will
    /// ever happen again without external stimulus.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, cycle: Cycle) -> usize {
        (cycle & (self.buckets.len() as u64 - 1)) as usize
    }

    /// The first occupied bucket at or after `start`, wrapping around
    /// the ring. Scanning forward from the earliest cycle's bucket
    /// visits cycles in ascending order, because every queued cycle is
    /// less than one ring size past the earliest. The queue must not
    /// be empty.
    fn first_occupied_from(&self, start: usize) -> usize {
        let start = start & (self.buckets.len() - 1);
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0u64 << (start % 64));
        while bits == 0 {
            w = (w + 1) % self.occupied.len();
            bits = self.occupied[w];
        }
        w * 64 + bits.trailing_zeros() as usize
    }

    /// Doubles the ring until the queued span `[min, max]` fits in it.
    /// Each old bucket holds one cycle and moves whole, so every cycle
    /// keeps its list, and with it its push order.
    fn grow(&mut self) {
        let mut size = self.buckets.len();
        while self.max - self.min >= size as u64 {
            size *= 2;
        }
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY; size]);
        self.occupied = vec![0; size / 64];
        for bucket in old.into_iter().filter(|b| b.head != NIL) {
            let b = self.bucket_of(bucket.cycle);
            self.buckets[b] = bucket;
            self.occupied[b / 64] |= 1 << (b % 64);
        }
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
    fn ring_grows_past_wide_delays_and_keeps_order() {
        let mut q = EventQueue::new();
        q.push(100, "late-a");
        q.push(5, "early"); // below the earliest queued cycle
        q.push(1_000 + 100, "far"); // forces the ring past 1,000 buckets
        q.push(100, "late-b");
        q.push(5 + 64, "wraps"); // same bucket as `early` in a 64-ring
        assert!(q.buckets.len() > 1_000, "ring doubled to fit the span");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(cy, _, v)| (cy, v))).collect();
        assert_eq!(
            order,
            vec![(5, "early"), (69, "wraps"), (100, "late-a"), (100, "late-b"), (1_100, "far")]
        );
        // Freed slots are reused: refilling allocates no new slot.
        let slots = q.slots.len();
        for i in 0..slots as u64 {
            q.push(2_000 + i, "again");
        }
        assert_eq!(q.slots.len(), slots);
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
