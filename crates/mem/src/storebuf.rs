//! Non-speculative store buffer.
//!
//! The paper's processors implement an aggressive Total Store Ordering
//! memory model with a 64-entry write buffer (Table 2). Outside of
//! transactions, retired stores enter this FIFO and drain to the cache
//! as ownership is obtained; younger loads forward from it (TSO allows
//! a load to bypass older stores as long as it sees its own
//! processor's stores).

use std::collections::VecDeque;

use crate::addr::Addr;

/// A FIFO store buffer with store-to-load forwarding.
///
/// Entry storage is allocated at the first push; `capacity` alone
/// bounds occupancy.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: VecDeque<(Addr, u64)>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates a buffer with the given entry capacity.
    pub fn new(capacity: usize) -> Self {
        StoreBuffer { entries: VecDeque::new(), capacity }
    }

    /// Enqueues a retired store.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full; callers must check
    /// [`StoreBuffer::is_full`] first (the core stalls instead).
    pub fn push(&mut self, addr: Addr, val: u64) {
        assert!(!self.is_full(), "store buffer overflow");
        self.entries.push_back((addr, val));
    }

    /// The oldest store, next to drain to the cache.
    pub fn head(&self) -> Option<(Addr, u64)> {
        self.entries.front().copied()
    }

    /// Removes the oldest store after it has been written to the
    /// cache.
    pub fn pop(&mut self) -> Option<(Addr, u64)> {
        self.entries.pop_front()
    }

    /// Store-to-load forwarding: the youngest buffered value for
    /// `addr`, if any.
    pub fn forward(&self, addr: Addr) -> Option<u64> {
        self.entries.iter().rev().find(|(a, _)| *a == addr).map(|&(_, v)| v)
    }

    /// Whether any buffered store targets the given address's line.
    pub fn has_store_to_line(&self, line: crate::addr::LineAddr) -> bool {
        self.entries.iter().any(|(a, _)| a.line() == line)
    }

    /// Number of buffered stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty (memory fences and SC wait for
    /// this).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is at capacity (the core must stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut sb = StoreBuffer::new(4);
        sb.push(Addr(0), 1);
        sb.push(Addr(8), 2);
        assert_eq!(sb.head(), Some((Addr(0), 1)));
        assert_eq!(sb.pop(), Some((Addr(0), 1)));
        assert_eq!(sb.pop(), Some((Addr(8), 2)));
        assert_eq!(sb.pop(), None);
    }

    #[test]
    fn forwarding_returns_youngest() {
        let mut sb = StoreBuffer::new(4);
        sb.push(Addr(8), 1);
        sb.push(Addr(16), 2);
        sb.push(Addr(8), 3);
        assert_eq!(sb.forward(Addr(8)), Some(3));
        assert_eq!(sb.forward(Addr(16)), Some(2));
        assert_eq!(sb.forward(Addr(24)), None);
    }

    #[test]
    fn line_membership() {
        let mut sb = StoreBuffer::new(4);
        sb.push(Addr(8), 1);
        assert!(sb.has_store_to_line(Addr(56).line()));
        assert!(!sb.has_store_to_line(Addr(64).line()));
    }

    #[test]
    fn capacity() {
        let mut sb = StoreBuffer::new(2);
        assert_eq!(sb.entries.capacity(), 0, "no storage before the first entry");
        sb.push(Addr(0), 0);
        assert!(!sb.is_full());
        sb.push(Addr(8), 0);
        assert!(sb.is_full());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_when_full_panics() {
        let mut sb = StoreBuffer::new(1);
        sb.push(Addr(0), 0);
        sb.push(Addr(8), 0);
    }
}
