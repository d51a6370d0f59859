//! The direct-mapped, PC-indexed confidence table behind both
//! predictors: the read-modify-write predictor (§3.1.2) and the
//! silent store-pair predictor (Table 2).

/// One slot: a PC and its confidence in 8 bytes. An `Option<(u32,
/// u8)>` would take 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    pc: u32,
    conf: u8,
}

impl Slot {
    /// The confidence value that marks an unused slot. Confidences
    /// saturate at 3, so an occupied slot never holds it, and an
    /// occupied slot at confidence 0 stays distinct from an empty one.
    const EMPTY: Slot = Slot { pc: 0, conf: u8::MAX };
}

/// A direct-mapped table of `(pc, confidence)` entries; a PC maps to
/// slot `pc mod entries`, and a PC that aliases an occupied slot
/// replaces its entry.
#[derive(Debug, Clone)]
pub(crate) struct PcTable {
    slots: Vec<Slot>,
}

impl PcTable {
    /// A table of `entries` empty slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub(crate) fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "predictor entries must be a power of two");
        PcTable { slots: vec![Slot::EMPTY; entries] }
    }

    fn index(&self, pc: u32) -> usize {
        pc as usize & (self.slots.len() - 1)
    }

    /// The confidence held for `pc`, if its slot holds `pc`.
    pub(crate) fn confidence(&self, pc: u32) -> Option<u8> {
        let slot = self.slots[self.index(pc)];
        (slot != Slot::EMPTY && slot.pc == pc).then_some(slot.conf)
    }

    /// Sets `pc`'s slot to `(pc, conf)`, replacing whatever it held.
    pub(crate) fn set(&mut self, pc: u32, conf: u8) {
        debug_assert!(conf != Slot::EMPTY.conf, "confidence {conf} is the empty marker");
        let i = self.index(pc);
        self.slots[i] = Slot { pc, conf };
    }

    /// Empties `pc`'s slot.
    pub(crate) fn clear(&mut self, pc: u32) {
        let i = self.index(pc);
        self.slots[i] = Slot::EMPTY;
    }

    /// Number of occupied slots, whatever their confidence.
    pub(crate) fn occupied(&self) -> usize {
        self.slots.iter().filter(|&&s| s != Slot::EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }

    #[test]
    fn confidence_zero_is_occupied_not_empty() {
        let mut t = PcTable::new(4);
        assert_eq!((t.confidence(0), t.occupied()), (None, 0));
        t.set(0, 0);
        assert_eq!((t.confidence(0), t.occupied()), (Some(0), 1));
        // pc 4 aliases slot 0 but does not match it; setting it replaces.
        assert_eq!(t.confidence(4), None);
        t.set(4, 2);
        assert_eq!((t.confidence(0), t.confidence(4), t.occupied()), (None, Some(2), 1));
        t.clear(4);
        assert_eq!((t.confidence(4), t.occupied()), (None, 0));
    }
}
