//! Victim cache (§3.3).
//!
//! "Victim caches are small, fast, fully associative structures that
//! buffer cache lines evicted from the main cache due to conflict and
//! capacity misses. The victim cache can be extended with a
//! speculative access bit per entry to achieve the same functionality
//! as a regular cache." — the paper uses a 16-entry victim cache in
//! its stability discussion (§4).

use crate::addr::LineAddr;
use crate::line::CacheLine;

/// A small fully-associative victim cache with LRU replacement.
///
/// Entry storage is allocated at the first insert; `capacity` alone
/// bounds occupancy.
#[derive(Debug, Clone)]
pub struct VictimCache {
    entries: Vec<CacheLine>,
    capacity: usize,
}

impl VictimCache {
    /// Creates a victim cache holding up to `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        VictimCache { entries: Vec::new(), capacity }
    }

    /// Inserts an evicted L1 line. If full, the least recently used
    /// entry is evicted and returned (the caller writes it back if
    /// dirty — or, if it is transactional, the transaction has run out
    /// of buffering and must fall back to the lock).
    pub fn insert(&mut self, entry: CacheLine) -> Option<CacheLine> {
        debug_assert!(
            !self.entries.iter().any(|l| l.line == entry.line),
            "duplicate line in victim cache"
        );
        let mut evicted = None;
        if self.entries.len() == self.capacity {
            // Prefer evicting non-transactional entries.
            let pos =
                self.entries.iter().rposition(|l| !l.spec_accessed()).unwrap_or(self.entries.len() - 1);
            evicted = Some(self.entries.remove(pos));
        }
        self.entries.insert(0, entry);
        evicted
    }

    /// Removes and returns the entry for `line` (a victim-cache hit:
    /// the line is swapped back into the L1 by the caller).
    pub fn take(&mut self, line: LineAddr) -> Option<CacheLine> {
        let pos = self.entries.iter().position(|l| l.line == line)?;
        Some(self.entries.remove(pos))
    }

    /// Looks at the entry for `line` without removing it.
    pub fn peek(&self, line: LineAddr) -> Option<&CacheLine> {
        self.entries.iter().find(|l| l.line == line)
    }

    /// Mutable access without changing LRU order.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        self.entries.iter_mut().find(|l| l.line == line)
    }

    /// Iterates over resident entries.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> {
        self.entries.iter()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the victim cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the victim cache is full.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Configured capacity in lines. Under a chaos capacity squeeze
    /// ([`tlr_sim::fault::FaultConfig::effective_victim_entries`])
    /// this is smaller than the nominal `MachineConfig` value.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{LineData, Moesi};

    fn mk(line: u64) -> CacheLine {
        CacheLine::new(LineAddr(line), Moesi::Modified, LineData::zeroed())
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut v = VictimCache::new(2);
        v.insert(mk(1));
        assert_eq!(v.len(), 1);
        assert!(v.peek(LineAddr(1)).is_some());
        let got = v.take(LineAddr(1)).unwrap();
        assert_eq!(got.line, LineAddr(1));
        assert!(v.is_empty());
    }

    #[test]
    fn overflow_evicts_lru_non_transactional_first() {
        let mut v = VictimCache::new(2);
        let mut spec = mk(1);
        spec.spec_written = true;
        v.insert(spec);
        v.insert(mk(2));
        // Full; LRU is line 1 but it is transactional, so line 2 goes.
        let e = v.insert(mk(3)).unwrap();
        assert_eq!(e.line, LineAddr(2));
        assert!(v.peek(LineAddr(1)).is_some());
    }

    #[test]
    fn overflow_of_all_transactional_returns_transactional_line() {
        let mut v = VictimCache::new(1);
        let mut spec = mk(1);
        spec.spec_read = true;
        v.insert(spec);
        let e = v.insert(mk(2)).unwrap();
        assert!(e.spec_accessed(), "caller detects transactional overflow -> fallback");
    }

    #[test]
    fn fullness_tracking() {
        let mut v = VictimCache::new(2);
        assert_eq!(v.capacity(), 2);
        assert_eq!(v.entries.capacity(), 0, "no storage before the first entry");
        assert!(!v.is_full());
        v.insert(mk(1));
        v.insert(mk(2));
        assert!(v.is_full());
    }

    #[test]
    fn chaos_squeeze_keeps_a_usable_cache() {
        use tlr_sim::fault::FaultConfig;
        let f = FaultConfig::intensity(1, FaultConfig::MAX_INTENSITY);
        for node in 0..8 {
            let mut v = VictimCache::new(f.effective_victim_entries(node, 4));
            assert!((1..=4).contains(&v.capacity()));
            // Even a fully squeezed cache still admits a line.
            assert!(v.insert(mk(1)).is_none());
        }
    }
}
