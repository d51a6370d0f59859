//! Set-associative cache with LRU replacement.
//!
//! Models the 128 KB, 4-way, 64-byte-line L1 data cache of Table 2
//! (and, with different geometry, the shared L2's tag/state side).
//! Replacement prefers lines without transactional access bits so that
//! a transaction's footprint survives as long as possible before the
//! victim cache (§3.3) has to absorb it.

use crate::addr::LineAddr;
use crate::line::CacheLine;

/// A set-associative cache of [`CacheLine`]s.
///
/// Within a set, lines are kept in LRU order: index 0 is the most
/// recently used.
///
/// Host memory follows the sets a run touches rather than the
/// configured geometry. Each set has a `u16` slot (1 KiB for the
/// 512-set L1) indexing a store of set storage: slot 0 is a shared,
/// always-empty set that every untouched set points at, and a set's
/// first insert gives it its own storage, appended in first-touch
/// order. That storage grows with ordinary `Vec` growth; `ways` alone
/// bounds a set's occupancy.
#[derive(Debug, Clone)]
pub struct Cache {
    slots: Vec<u16>,
    touched: Vec<Vec<CacheLine>>,
    ways: usize,
    set_mask: u64,
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, either parameter is
    /// zero, or `sets` exceeds the `u16` slot index.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two() && sets > 0, "sets must be a power of two");
        assert!(sets <= u16::MAX as usize, "at most {} sets fit the u16 slot index", u16::MAX);
        assert!(ways > 0, "ways must be nonzero");
        Cache { slots: vec![0; sets], touched: vec![Vec::new()], ways, set_mask: sets as u64 - 1 }
    }

    /// The lines of `line`'s set, MRU first.
    fn set(&self, line: LineAddr) -> &[CacheLine] {
        &self.touched[self.slots[(line.0 & self.set_mask) as usize] as usize]
    }

    /// The storage of `line`'s set. Only [`Cache::insert`] may add a
    /// line: an untouched set's storage is the shared empty set.
    fn set_mut(&mut self, line: LineAddr) -> &mut Vec<CacheLine> {
        &mut self.touched[self.slots[(line.0 & self.set_mask) as usize] as usize]
    }

    /// Looks up a line without updating LRU order.
    pub fn peek(&self, line: LineAddr) -> Option<&CacheLine> {
        self.set(line).iter().find(|l| l.line == line)
    }

    /// Mutable lookup without updating LRU order.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        self.set_mut(line).iter_mut().find(|l| l.line == line)
    }

    /// Looks up a line, updating LRU order on a hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        let ways = self.set_mut(line);
        let pos = ways.iter().position(|l| l.line == line)?;
        ways[..=pos].rotate_right(1);
        Some(&mut ways[0])
    }

    /// Whether the line is present (in any valid state).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Whether the line is the most recently used entry of its set —
    /// then a repeated [`Cache::get_mut`] leaves the LRU order
    /// unchanged (the event engine's spin fast-forward relies on
    /// this to skip re-touching hits).
    pub fn is_mru(&self, line: LineAddr) -> bool {
        self.set(line).first().is_some_and(|l| l.line == line)
    }

    /// Inserts a line, evicting the LRU entry if the set is full.
    /// Among eviction candidates, lines *without* transactional access
    /// bits are preferred; if every way is transactional the true LRU
    /// line is evicted (the caller sends it to the victim cache or
    /// abandons the transaction, §3.3).
    ///
    /// Returns the evicted line, if any.
    pub fn insert(&mut self, entry: CacheLine) -> Option<CacheLine> {
        let index = (entry.line.0 & self.set_mask) as usize;
        if self.slots[index] == 0 {
            // `new` bounds the set count, and so every slot, by u16::MAX.
            self.slots[index] = self.touched.len() as u16;
            self.touched.push(Vec::new());
        }
        let (ways, set) = (self.ways, &mut self.touched[self.slots[index] as usize]);
        debug_assert!(!set.iter().any(|l| l.line == entry.line), "inserting duplicate line {}", entry.line);
        let mut evicted = None;
        if set.len() == ways {
            // Search from LRU end for a non-transactional victim.
            let victim_pos = set.iter().rposition(|l| !l.spec_accessed()).unwrap_or(set.len() - 1);
            evicted = Some(set.remove(victim_pos));
        }
        set.insert(0, entry);
        evicted
    }

    /// Removes and returns a line.
    pub fn take(&mut self, line: LineAddr) -> Option<CacheLine> {
        let set = self.set_mut(line);
        let pos = set.iter().position(|l| l.line == line)?;
        Some(set.remove(pos))
    }

    /// Iterates over all resident lines: by set index, then MRU to LRU.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> {
        self.slots.iter().flat_map(|&s| &self.touched[s as usize])
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.touched.iter().map(Vec::len).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets that own line storage: those touched by an insert. Checks
    /// on the way that the shared empty set stayed empty and unallocated.
    #[cfg(test)]
    fn touched_sets(&self) -> Vec<usize> {
        assert_eq!(self.touched[0].capacity(), 0, "the shared empty set never holds a line");
        assert_eq!(self.touched.len(), 1 + self.slots.iter().filter(|&&s| s != 0).count());
        (0..self.slots.len()).filter(|&i| self.slots[i] != 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{LineData, Moesi};

    fn mk(line: u64, state: Moesi) -> CacheLine {
        CacheLine::new(LineAddr(line), state, LineData::zeroed())
    }

    #[test]
    fn hit_and_miss() {
        let mut c = Cache::new(4, 2);
        assert!(c.is_empty());
        c.insert(mk(5, Moesi::Shared));
        assert!(c.contains(LineAddr(5)));
        assert!(!c.contains(LineAddr(9))); // same set (4 sets), absent
        assert_eq!(c.get_mut(LineAddr(5)).unwrap().state, Moesi::Shared);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = Cache::new(4, 2);
        // Lines 1, 5, 9 all map to set 1.
        assert!(c.insert(mk(1, Moesi::Shared)).is_none());
        assert!(c.insert(mk(5, Moesi::Shared)).is_none());
        // Touch 1 so that 5 becomes LRU.
        c.get_mut(LineAddr(1)).unwrap();
        let evicted = c.insert(mk(9, Moesi::Shared)).expect("must evict");
        assert_eq!(evicted.line, LineAddr(5));
        assert!(c.contains(LineAddr(1)) && c.contains(LineAddr(9)));
        assert!(!c.contains(LineAddr(5)), "the evicted line is gone");
    }

    #[test]
    fn eviction_prefers_non_transactional_lines() {
        let mut c = Cache::new(4, 2);
        let mut spec = mk(1, Moesi::Modified);
        spec.spec_written = true;
        c.insert(spec);
        c.insert(mk(5, Moesi::Shared));
        // Line 1 (spec) is MRU? No: 5 was inserted later, so 5 is MRU
        // and 1 is LRU — but 1 is transactional, so 5 is chosen.
        // Re-order: touch 5 then insert 9. LRU is 1 (spec); eviction
        // must skip it and take 5.
        c.get_mut(LineAddr(5)).unwrap();
        let evicted = c.insert(mk(9, Moesi::Shared)).unwrap();
        assert_eq!(evicted.line, LineAddr(5));
        assert!(c.contains(LineAddr(1)));
    }

    #[test]
    fn all_transactional_set_evicts_lru() {
        let mut c = Cache::new(4, 2);
        for l in [1u64, 5] {
            let mut e = mk(l, Moesi::Modified);
            e.spec_read = true;
            c.insert(e);
        }
        let evicted = c.insert(mk(9, Moesi::Shared)).unwrap();
        assert_eq!(evicted.line, LineAddr(1), "true LRU evicted when all are transactional");
        assert!(evicted.spec_read);
    }

    #[test]
    fn take_removes() {
        let mut c = Cache::new(4, 2);
        c.insert(mk(3, Moesi::Exclusive));
        let t = c.take(LineAddr(3)).unwrap();
        assert_eq!(t.state, Moesi::Exclusive);
        assert!(!c.contains(LineAddr(3)));
        assert!(c.take(LineAddr(3)).is_none());
    }

    #[test]
    fn peek_mut_keeps_lru_order() {
        let mut c = Cache::new(4, 2);
        // Lines 1 and 5 share set 1; 5 is MRU, 1 is LRU.
        c.insert(mk(1, Moesi::Shared));
        c.insert(mk(5, Moesi::Shared));
        c.peek_mut(LineAddr(1)).unwrap().spec_read = true;
        assert!(c.is_mru(LineAddr(5)));
        assert!(c.peek(LineAddr(1)).unwrap().spec_read);
        assert!(c.peek_mut(LineAddr(9)).is_none());
    }

    #[test]
    fn set_storage_is_allocated_at_first_insert() {
        // The shared L2's geometry: 8192 sets of 8 ways.
        let mut c = Cache::new(8192, 8);
        assert!(c.touched_sets().is_empty(), "a fresh cache owns no line storage");
        assert!(!c.contains(LineAddr(3)) && c.take(LineAddr(3)).is_none());
        assert!(c.get_mut(LineAddr(3)).is_none() && c.peek_mut(LineAddr(3)).is_none());
        assert!(c.touched_sets().is_empty(), "lookups of untouched sets allocate nothing");
        c.insert(mk(3, Moesi::Shared));
        assert_eq!(c.touched_sets(), vec![3], "one insert creates exactly its own set");
        // Fill set 3 with a transactional LRU line and seven others;
        // the next insert still evicts the LRU non-transactional line.
        c.peek_mut(LineAddr(3)).unwrap().spec_read = true;
        for k in 1..8u64 {
            assert!(c.insert(mk(3 + 8192 * k, Moesi::Shared)).is_none());
        }
        let evicted = c.insert(mk(3 + 8192 * 8, Moesi::Shared)).expect("a full set evicts");
        assert_eq!(evicted.line, LineAddr(3 + 8192), "LRU non-transactional line");
        assert!(c.contains(LineAddr(3)), "the transactional line survives");
        assert_eq!(c.len(), 8);
        assert_eq!(c.touched_sets(), vec![3], "one set's storage held all nine inserts");
    }

    #[test]
    fn iter_runs_by_set_index_not_first_touch() {
        let mut c = Cache::new(4, 2);
        for l in [2u64, 1, 6, 5] {
            c.insert(mk(l, Moesi::Shared));
        }
        // Set 2 was touched first, but set 1 iterates first; each set
        // runs MRU to LRU.
        assert_eq!(c.iter().map(|l| l.line.0).collect::<Vec<_>>(), vec![5, 1, 6, 2]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        Cache::new(3, 2);
    }

    #[test]
    #[should_panic(expected = "u16 slot index")]
    fn oversized_geometry_panics() {
        Cache::new(1 << 16, 1);
    }
}
