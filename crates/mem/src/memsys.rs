//! Shared L2 cache and backing memory (Table 2: 4 MB L2 at 12 cycles,
//! memory at 70 cycles).
//!
//! The L2 is shared by all processors and sits behind the address
//! bus: when no L1 can supply a requested line, the L2 (on a hit) or
//! memory supplies it. Dirty L1 evictions write back into the L2;
//! dirty L2 evictions spill to backing memory. Backing memory is a
//! sparse map so arbitrarily laid-out workload images are cheap.

use std::collections::HashMap;

use crate::addr::{Addr, LineAddr};
use crate::cache::Cache;
use crate::line::{CacheLine, LineData, Moesi};

/// The shared L2 plus backing memory.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l2: Cache,
    backing: HashMap<LineAddr, LineData>,
    l2_latency: u64,
    mem_latency: u64,
}

/// The outcome of a memory-side access: when the data is ready and
/// whether the L2 supplied it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessResult {
    /// Additional latency beyond the request reaching the memory
    /// system.
    pub latency: u64,
    /// Whether the L2 hit (12 cycles) rather than memory (70 cycles).
    pub l2_hit: bool,
}

impl MemorySystem {
    /// Creates a memory system with an L2 of `l2_sets` x `l2_ways`
    /// lines and the given access latencies.
    pub fn new(l2_sets: usize, l2_ways: usize, l2_latency: u64, mem_latency: u64) -> Self {
        MemorySystem { l2: Cache::new(l2_sets, l2_ways), backing: HashMap::new(), l2_latency, mem_latency }
    }

    /// Writes one word of the initial memory image (used by workloads
    /// before simulation starts; bypasses timing).
    pub fn init_word(&mut self, addr: Addr, val: u64) {
        let line = addr.line();
        if let Some(l) = self.l2.get_mut(line) {
            l.data.set_word(addr, val);
            return;
        }
        self.backing.entry(line).or_default().set_word(addr, val);
    }

    /// Reads a line for a requester, filling the L2 on a miss.
    /// Returns the data and the supply latency.
    pub fn supply(&mut self, line: LineAddr) -> (LineData, MemAccessResult) {
        if let Some(l) = self.l2.get_mut(line) {
            return (l.data, MemAccessResult { latency: self.l2_latency, l2_hit: true });
        }
        let data = self.backing.get(&line).copied().unwrap_or_default();
        self.fill_l2(line, data, false);
        (data, MemAccessResult { latency: self.mem_latency, l2_hit: false })
    }

    /// Accepts a writeback of a dirty line from an L1.
    pub fn writeback(&mut self, line: LineAddr, data: LineData) {
        if let Some(l) = self.l2.get_mut(line) {
            l.data = data;
            l.state = Moesi::Modified; // dirty-in-L2 marker
            return;
        }
        self.fill_l2(line, data, true);
    }

    fn fill_l2(&mut self, line: LineAddr, data: LineData, dirty: bool) {
        let state = if dirty { Moesi::Modified } else { Moesi::Exclusive };
        if let Some(evicted) = self.l2.insert(CacheLine::new(line, state, data)) {
            if evicted.state == Moesi::Modified {
                self.backing.insert(evicted.line, evicted.data);
            } else {
                // Clean eviction: keep backing in sync so later misses
                // observe the line's data.
                self.backing.entry(evicted.line).or_insert(evicted.data);
            }
        }
    }

    /// The memory system's current value of a word (L2 if present,
    /// else backing). Used for end-of-run validation together with
    /// dirty lines still held in L1s.
    pub fn word(&self, addr: Addr) -> u64 {
        let line = addr.line();
        if let Some(l) = self.l2.peek(line) {
            return l.data.word(addr);
        }
        self.backing.get(&line).map(|d| d.word(addr)).unwrap_or(0)
    }

    /// Configured L2 hit latency.
    pub fn l2_latency(&self) -> u64 {
        self.l2_latency
    }

    /// Configured memory latency.
    pub fn mem_latency(&self) -> u64 {
        self.mem_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(4, 2, 12, 70)
    }

    #[test]
    fn cold_supply_comes_from_memory_then_l2() {
        let mut m = sys();
        m.init_word(Addr(8), 42);
        let (data, r) = m.supply(LineAddr(0));
        assert_eq!(data.word(Addr(8)), 42);
        assert!(!r.l2_hit);
        assert_eq!(r.latency, 70);
        let (_, r2) = m.supply(LineAddr(0));
        assert!(r2.l2_hit);
        assert_eq!(r2.latency, 12);
    }

    #[test]
    fn writeback_visible_to_later_supply() {
        let mut m = sys();
        let mut d = LineData::zeroed();
        d.set_word(Addr(0), 7);
        m.writeback(LineAddr(0), d);
        let (got, r) = m.supply(LineAddr(0));
        assert_eq!(got.word(Addr(0)), 7);
        assert!(r.l2_hit);
    }

    #[test]
    fn dirty_l2_eviction_spills_to_backing() {
        let mut m = sys();
        // 4 sets x 2 ways; lines 0, 4, 8 share set 0.
        let mut d = LineData::zeroed();
        d.set_word(Addr(0), 1);
        m.writeback(LineAddr(0), d);
        m.supply(LineAddr(4));
        m.supply(LineAddr(8)); // evicts LRU (line 0, dirty)
        assert_eq!(m.word(Addr(0)), 1, "dirty eviction reached backing");
        let (got, _) = m.supply(LineAddr(0));
        assert_eq!(got.word(Addr(0)), 1);
    }

    #[test]
    fn init_word_updates_resident_l2_line() {
        let mut m = sys();
        m.supply(LineAddr(1)); // brings zeroed line into L2
        m.init_word(Addr(64), 9);
        assert_eq!(m.word(Addr(64)), 9);
        let (got, _) = m.supply(LineAddr(1));
        assert_eq!(got.word(Addr(64)), 9);
    }

    #[test]
    fn unknown_addresses_read_zero() {
        let m = sys();
        assert_eq!(m.word(Addr(0xdead00)), 0);
    }
}
