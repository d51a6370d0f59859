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

/// A direct-mapped table of `(pc, confidence)` entries; a PC maps to
/// slot `pc mod entries`, and a PC that aliases an occupied slot
/// replaces its entry.
///
/// Only occupied slots own storage. The paper's tables stay nearly
/// empty (radiosity trains just under 100 of 128 RMW entries, every
/// other application fewer than 30), so the occupied slots sit in a
/// `Vec` sorted by slot index and a lookup binary-searches it; at
/// most one slot per index keeps the direct-mapped semantics exact.
#[derive(Debug, Clone)]
pub(crate) struct PcTable {
    slots: Vec<Slot>,
    /// `entries - 1`: a PC's slot index is `pc & mask`.
    mask: usize,
}

impl PcTable {
    /// A table of `entries` empty slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub(crate) fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "predictor entries must be a power of two");
        PcTable { slots: Vec::new(), mask: entries - 1 }
    }

    /// Where `pc`'s slot index sits in `slots`: `Ok` if occupied (by
    /// `pc` or an alias), `Err` with the insertion point if empty.
    fn find(&self, pc: u32) -> Result<usize, usize> {
        let index = pc as usize & self.mask;
        self.slots.binary_search_by_key(&index, |s| s.pc as usize & self.mask)
    }

    /// The confidence held for `pc`, if its slot holds `pc`.
    pub(crate) fn confidence(&self, pc: u32) -> Option<u8> {
        let slot = self.slots[self.find(pc).ok()?];
        (slot.pc == pc).then_some(slot.conf)
    }

    /// Sets `pc`'s slot to `(pc, conf)`, replacing whatever it held.
    pub(crate) fn set(&mut self, pc: u32, conf: u8) {
        match self.find(pc) {
            Ok(i) => self.slots[i] = Slot { pc, conf },
            Err(i) => self.slots.insert(i, Slot { pc, conf }),
        }
    }

    /// Empties `pc`'s slot.
    pub(crate) fn clear(&mut self, pc: u32) {
        if let Ok(i) = self.find(pc) {
            self.slots.remove(i);
        }
    }

    /// Number of occupied slots, whatever their confidence.
    pub(crate) fn occupied(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_sim::SimRng;

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

    /// The table as it was before it stored only occupied slots: every
    /// slot reserved up front, `u8::MAX` marking an empty one.
    struct DirectMapped {
        slots: Vec<(u32, u8)>,
    }

    impl DirectMapped {
        const EMPTY: (u32, u8) = (0, u8::MAX);

        fn index(&self, pc: u32) -> usize {
            pc as usize & (self.slots.len() - 1)
        }

        fn confidence(&self, pc: u32) -> Option<u8> {
            let slot = self.slots[self.index(pc)];
            (slot != Self::EMPTY && slot.0 == pc).then_some(slot.1)
        }

        fn set(&mut self, pc: u32, conf: u8) {
            let i = self.index(pc);
            self.slots[i] = (pc, conf);
        }

        fn clear(&mut self, pc: u32) {
            let i = self.index(pc);
            self.slots[i] = Self::EMPTY;
        }

        fn occupied(&self) -> usize {
            self.slots.iter().filter(|&&s| s != Self::EMPTY).count()
        }
    }

    #[test]
    fn matches_the_direct_mapped_reference() {
        for entries in [4usize, 64, 128] {
            for seed in 0..32u64 {
                let mut rng = SimRng::new(seed ^ ((entries as u64) << 32));
                let mut table = PcTable::new(entries);
                let mut reference = DirectMapped { slots: vec![DirectMapped::EMPTY; entries] };
                // PCs over four times the table's span, so most alias.
                let span = 4 * entries as u32;
                for step in 0..2_000 {
                    let pc = rng.below(u64::from(span)) as u32;
                    let at = (entries, seed, step, pc);
                    match rng.below(4) {
                        0 => {
                            // Every confidence but the reference's empty marker.
                            let conf = rng.below(u64::from(u8::MAX)) as u8;
                            table.set(pc, conf);
                            reference.set(pc, conf);
                        }
                        1 => {
                            table.clear(pc);
                            reference.clear(pc);
                        }
                        2 => assert_eq!(table.confidence(pc), reference.confidence(pc), "(entries, seed, step, pc) {at:?}"),
                        _ => assert_eq!(table.occupied(), reference.occupied(), "(entries, seed, step, pc) {at:?}"),
                    }
                }
                for pc in 0..span {
                    assert_eq!(table.confidence(pc), reference.confidence(pc), "entries {entries}, seed {seed}, pc {pc}");
                }
                let index = |s: &Slot| s.pc as usize & table.mask;
                assert!(table.slots.windows(2).all(|w| index(&w[0]) < index(&w[1])), "sorted, one slot per index");
            }
        }
    }
}
