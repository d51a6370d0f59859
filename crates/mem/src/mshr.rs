//! Miss Status Handling Registers.
//!
//! §3.1.1: "On a miss, a processor allocates a pending buffer, a miss
//! status handling register (MSHR) and tracks the request. If the
//! processor receives a request (an intervention) from another
//! processor for the outstanding block, an intervention buffer or the
//! MSHR tracks the incoming request. When the processor receives data
//! for the block, the processor operates upon the data and sends it to
//! the requestor based on the information stored in the local MSHR."
//!
//! The MSHR also remembers the *marker* sender — the upstream
//! neighbour in the coherence chain — so probes can be forwarded
//! toward the cache that actually holds the data.

use tlr_sim::{Cycle, NodeId};

use crate::addr::LineAddr;
use crate::timestamp::{Prio, Timestamp};

/// An external request ordered behind this node's outstanding miss,
/// to be serviced (or deferred) once the data arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Intervention {
    /// The downstream requester.
    pub from: NodeId,
    /// Whether the downstream request is exclusive (GetX) rather than
    /// shared (GetS).
    pub exclusive: bool,
    /// The downstream request's timestamp, if transactional.
    pub ts: Option<Timestamp>,
    /// The downstream request's contention-manager credit (karma
    /// policy only; 0 otherwise).
    pub karma: u32,
}

/// The interventions chained behind one miss, in arrival order. The
/// first is held inline and only later ones go to the heap, so the
/// common one-link chain never allocates.
#[derive(Debug, Clone, Default)]
pub struct Interventions {
    first: Option<Intervention>,
    /// Non-empty only when `first` is set.
    rest: Vec<Intervention>,
}

impl Interventions {
    /// Appends `iv` at the end of the chain.
    pub fn push(&mut self, iv: Intervention) {
        if self.first.is_none() {
            self.first = Some(iv);
        } else {
            self.rest.push(iv);
        }
    }

    /// The chain in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Intervention> {
        self.first.iter().chain(&self.rest)
    }
}

impl IntoIterator for Interventions {
    type Item = Intervention;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Intervention>, std::vec::IntoIter<Intervention>>;

    /// Consumes the chain in arrival order.
    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// One outstanding miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// The missing line.
    pub line: LineAddr,
    /// Whether we requested exclusive ownership.
    pub exclusive: bool,
    /// Our transaction timestamp at issue, if transactional.
    pub ts: Option<Timestamp>,
    /// Set once the request has been handed to bus arbitration.
    pub issued: bool,
    /// Set once the request has been *ordered* on the address bus
    /// (protocol ownership may now precede data arrival — the
    /// request-response decoupling of §3.1.1).
    pub ordered: bool,
    /// The bus cycle at which the request was ordered (valid when
    /// `ordered`); the fill inherits it as the line's coherence
    /// position.
    pub ordered_at: u64,
    /// A store arrived while a GetS was pending: after the fill,
    /// upgrade to exclusive.
    pub upgrade_after_fill: bool,
    /// External requests ordered after ours, serviced in order once
    /// data arrives.
    pub interventions: Interventions,
    /// The upstream neighbour that sent us a marker for this line
    /// (it holds or precedes us in the chain), used to forward probes.
    pub marker_from: Option<NodeId>,
    /// A conflicting higher-priority request that must be propagated
    /// upstream as a probe once the upstream neighbour is known.
    pub pending_probe: Option<Prio>,
    /// How many times this request has been NACKed at the ordering
    /// point and re-issued. Feeds the conflict policy's retry pacing
    /// (the backoff policy grows its delay window with this count);
    /// the entry — and with it the count — survives transaction
    /// aborts, so repeated losers keep backing off further.
    pub retries: u32,
    /// A later exclusive request was ordered while this (shared) miss
    /// was outstanding: the fill may be consumed once and must then be
    /// invalidated immediately, keeping the cache coherent.
    pub invalidate_after_fill: bool,
}

impl MshrEntry {
    /// Creates an entry for a miss on `line`.
    pub fn new(line: LineAddr, exclusive: bool, ts: Option<Timestamp>) -> Self {
        MshrEntry {
            line,
            exclusive,
            ts,
            issued: false,
            ordered: false,
            ordered_at: 0,
            upgrade_after_fill: false,
            interventions: Interventions::default(),
            marker_from: None,
            pending_probe: None,
            retries: 0,
            invalidate_after_fill: false,
        }
    }
}

/// The node's file of outstanding misses.
///
/// Storage grows with use: the first miss reserves one entry and each
/// growth doubles it, capped at the configured register count, so a
/// node with one miss in flight owns one 168-byte entry (its first
/// chained intervention inline), not the four an empty `Vec` reserves
/// at its first push.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    /// High-water mark of simultaneously outstanding misses.
    peak: usize,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        MshrFile { entries: Vec::new(), capacity, peak: 0 }
    }

    /// The entry tracking `line`, if any.
    pub fn get(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// Mutable access to the entry tracking `line`.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut MshrEntry> {
        self.entries.iter_mut().find(|e| e.line == line)
    }

    /// Allocates a new entry. Returns `None` (and does nothing) if the
    /// file is full or the line is already tracked.
    pub fn alloc(&mut self, entry: MshrEntry) -> Option<&mut MshrEntry> {
        let len = self.entries.len();
        if len == self.capacity || self.get(entry.line).is_some() {
            return None;
        }
        if len == self.entries.capacity() {
            // Double, starting from one entry and capped at `capacity`.
            self.entries.reserve_exact(len.max(1).min(self.capacity - len));
        }
        self.entries.push(entry);
        self.peak = self.peak.max(self.entries.len());
        self.entries.last_mut()
    }

    /// Removes and returns the entry for `line`.
    pub fn remove(&mut self, line: LineAddr) -> Option<MshrEntry> {
        let pos = self.entries.iter().position(|e| e.line == line)?;
        Some(self.entries.remove(pos))
    }

    /// Iterates over outstanding entries.
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.entries.iter()
    }

    /// Iterates mutably over outstanding entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut MshrEntry> {
        self.entries.iter_mut()
    }

    /// Number of outstanding misses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no outstanding misses.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file is at capacity (further misses stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// High-water mark of simultaneously outstanding misses over the
    /// file's lifetime (the profiler's MSHR-pressure gauge).
    pub fn peak_outstanding(&self) -> usize {
        self.peak
    }

    /// Whether any outstanding transactional (timestamped) miss
    /// exists — used by the §3.2 single-block relaxation: deferring
    /// out of timestamp order is only safe when the transaction has no
    /// other block in flight that could form a cyclic wait.
    pub fn has_transactional_miss(&self) -> bool {
        self.entries.iter().any(|e| e.ts.is_some())
    }
}

/// Per-node retry timers for NACKed outstanding misses (NACK
/// retention, §3): each entry is a line whose bus request was annulled
/// at the ordering point and must be re-issued once its randomized
/// backoff expires.
///
/// Due entries are released in insertion order among themselves and
/// the not-yet-due tail keeps its insertion order — the exact
/// semantics of the `Vec` partition this replaces, so the engine swap
/// moves the timer without reordering a single retry.
#[derive(Debug, Clone, Default)]
pub struct RetryTimers {
    timers: Vec<(Cycle, LineAddr)>,
}

impl RetryTimers {
    /// Creates an empty timer file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a retry of `line` at cycle `due`.
    pub fn schedule(&mut self, due: Cycle, line: LineAddr) {
        self.timers.push((due, line));
    }

    /// Releases every retry due at or before `now`, in insertion
    /// order; later timers stay queued. Allocation-free unless
    /// something is actually due (this runs on every node tick).
    pub fn take_due(&mut self, now: Cycle) -> Vec<LineAddr> {
        if !self.timers.iter().any(|&(t, _)| t <= now) {
            return Vec::new();
        }
        let mut ready = Vec::new();
        self.timers.retain(|&(t, l)| {
            if t <= now {
                ready.push(l);
                false
            } else {
                true
            }
        });
        ready
    }

    /// The earliest scheduled due cycle, unclamped (may be in the
    /// past if a retry is overdue).
    pub fn next_due(&self) -> Option<Cycle> {
        self.timers.iter().map(|&(t, _)| t).min()
    }

    /// Whether no retries are pending.
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty()
    }

    /// Number of pending retries.
    pub fn len(&self) -> usize {
        self.timers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_lookup() {
        let mut f = MshrFile::new(2);
        assert!(f.alloc(MshrEntry::new(LineAddr(1), true, None)).is_some());
        assert!(f.get(LineAddr(1)).is_some());
        assert!(f.get(LineAddr(2)).is_none());
        assert_eq!(f.len(), 1);
        assert_eq!(f.peak_outstanding(), 1);
        f.remove(LineAddr(1));
        assert_eq!(f.peak_outstanding(), 1, "peak is a high-water mark");
    }

    #[test]
    fn alloc_rejects_duplicates_and_overflow() {
        let mut f = MshrFile::new(1);
        assert!(f.alloc(MshrEntry::new(LineAddr(1), false, None)).is_some());
        assert!(f.alloc(MshrEntry::new(LineAddr(1), true, None)).is_none(), "duplicate");
        assert!(f.alloc(MshrEntry::new(LineAddr(2), true, None)).is_none(), "full");
        assert!(f.is_full());
    }

    #[test]
    fn storage_doubles_from_one_entry_up_to_capacity() {
        // Storage capacity after each alloc, allocating until full.
        fn capacities(registers: usize) -> Vec<usize> {
            let mut f = MshrFile::new(registers);
            (0..registers as u64)
                .map(|l| {
                    assert!(f.alloc(MshrEntry::new(LineAddr(l), false, None)).is_some());
                    f.entries.capacity()
                })
                .collect()
        }
        assert_eq!(MshrFile::new(16).entries.capacity(), 0, "no storage before the first miss");
        // Table 2's 16 MSHRs: the 2nd, 3rd, 5th and 9th allocs grow it.
        let mut growths = capacities(16);
        growths.dedup();
        assert_eq!(growths, vec![1, 2, 4, 8, 16], "never past the register count");
        // The cap applies mid-doubling: 2 entries grow by 1, not 2.
        assert_eq!(capacities(3), vec![1, 2, 3]);
        // A full file, or a line already tracked, still allocates nothing.
        let mut f = MshrFile::new(3);
        for l in 0..3 {
            f.alloc(MshrEntry::new(LineAddr(l), false, None));
        }
        assert!(f.alloc(MshrEntry::new(LineAddr(9), false, None)).is_none(), "full");
        assert_eq!((f.len(), f.entries.capacity()), (3, 3));
        f.remove(LineAddr(1));
        assert!(f.alloc(MshrEntry::new(LineAddr(0), true, None)).is_none(), "duplicate");
        // Freed registers are reused in place.
        let before = f.entries.as_ptr();
        assert!(f.alloc(MshrEntry::new(LineAddr(9), false, None)).is_some());
        assert_eq!((f.entries.capacity(), f.entries.as_ptr()), (3, before), "no reallocation");
    }

    #[test]
    fn interventions_queue_in_order() {
        let mut f = MshrFile::new(2);
        let e = f.alloc(MshrEntry::new(LineAddr(1), true, None)).unwrap();
        e.interventions.push(Intervention { from: 2, exclusive: true, ts: None, karma: 0 });
        e.interventions.push(Intervention { from: 3, exclusive: false, ts: None, karma: 0 });
        let e = f.remove(LineAddr(1)).unwrap();
        let froms: Vec<_> = e.interventions.iter().map(|i| i.from).collect();
        assert_eq!(froms, vec![2, 3]);
    }

    #[test]
    fn intervention_chain_keeps_the_first_inline() {
        let iv = |from| Intervention { from, exclusive: from % 2 == 0, ts: None, karma: from as u32 };
        let mut chain = Interventions::default();
        assert!(chain.iter().next().is_none());
        chain.push(iv(7));
        assert_eq!((chain.first, chain.rest.capacity()), (Some(iv(7)), 0), "one link, no heap");
        for from in 8..12 {
            chain.push(iv(from));
        }
        let borrowed: Vec<_> = chain.iter().copied().collect();
        assert_eq!(borrowed, (7..12).map(iv).collect::<Vec<_>>(), "push order");
        // Consuming after the first: the tail follows in order.
        let mut it = chain.into_iter();
        assert_eq!(it.next(), Some(iv(7)));
        assert_eq!(it.collect::<Vec<_>>(), (8..12).map(iv).collect::<Vec<_>>());
    }

    #[test]
    fn retry_timers_release_in_insertion_order_and_report_wakes() {
        let mut t = RetryTimers::new();
        assert!(t.is_empty());
        assert_eq!(t.next_due(), None);
        t.schedule(10, LineAddr(1));
        t.schedule(5, LineAddr(2));
        t.schedule(10, LineAddr(3));
        assert_eq!(t.len(), 3);
        assert_eq!(t.next_due(), Some(5));
        assert!(t.take_due(4).is_empty());
        assert_eq!(t.take_due(10), vec![LineAddr(1), LineAddr(2), LineAddr(3)], "insertion order, not due order");
        assert!(t.is_empty());
        t.schedule(9, LineAddr(4));
        t.schedule(3, LineAddr(5));
        assert_eq!(t.take_due(3), vec![LineAddr(5)]);
        assert_eq!(t.next_due(), Some(9), "tail keeps its timer");
    }

    #[test]
    fn transactional_miss_detection() {
        let mut f = MshrFile::new(2);
        f.alloc(MshrEntry::new(LineAddr(1), true, None));
        assert!(!f.has_transactional_miss());
        f.alloc(MshrEntry::new(LineAddr(2), true, Some(Timestamp::new(0, 1))));
        assert!(f.has_transactional_miss());
        f.remove(LineAddr(2));
        assert!(!f.has_transactional_miss());
    }
}
