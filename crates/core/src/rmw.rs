//! The instruction-based read-modify-write predictor (§3.1.2).
//!
//! "Load operations within a critical section are recorded and any
//! store operations within the critical section to the same address
//! results in the predictor update occurring corresponding to the
//! appropriate load operation. ... The predictor is indexed by
//! instruction address." A predicted load fetches its line in
//! exclusive state directly, avoiding the later upgrade whose
//! invalidations cannot be deferred and would otherwise misspeculate
//! sharers.
//!
//! The paper uses a 128-entry PC-indexed predictor for *all*
//! experiments (BASE, SLE, TLR and MCS); the `exp_rmw_predictor`
//! harness reproduces the §6.3 BASE vs BASE-no-opt comparison by
//! disabling it.

use tlr_mem::addr::LineAddr;

use crate::pc_table::PcTable;

/// How many recent loads are remembered for matching stores against.
const HISTORY: usize = 16;

/// How many lock lines (targets of store-conditionals) are remembered
/// and excluded from training.
const ATOMIC_EXCLUSIONS: usize = 8;

/// PC-indexed read-modify-write predictor with a small recent-load
/// history used for training.
///
/// Lines targeted by store-conditionals are excluded: the predictor
/// optimizes read-modify-write of *data* within critical sections,
/// not the lock acquire/release idiom itself (turning a spin load
/// into an exclusive fetch would defeat test&test&set's local
/// spinning).
#[derive(Debug, Clone)]
pub struct RmwPredictor {
    /// Direct-mapped table of load PCs predicted to be followed by a
    /// store to the same line. Entries hold (pc, confidence 1..=3).
    table: PcTable,
    /// Recently committed loads: (pc, line).
    recent_loads: Vec<(u32, LineAddr)>,
    /// Recently observed store-conditional target lines (lock words).
    atomic_lines: Vec<LineAddr>,
    enabled: bool,
}

impl RmwPredictor {
    /// Creates a predictor with `entries` table slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, enabled: bool) -> Self {
        RmwPredictor { table: PcTable::new(entries), recent_loads: Vec::new(), atomic_lines: Vec::new(), enabled }
    }

    /// Records a committed (plain) load so later stores can train
    /// against it. Load-linked operations are not recorded.
    pub fn record_load(&mut self, pc: u32, line: LineAddr) {
        if !self.enabled || self.atomic_lines.contains(&line) {
            return;
        }
        if self.recent_loads.len() == HISTORY {
            self.recent_loads.remove(0);
        }
        self.recent_loads.push((pc, line));
    }

    /// Replays `count` identical spin-loop loads in one call — exactly
    /// equivalent to `count` [`RmwPredictor::record_load`]`(pc, line)`
    /// calls, because after `HISTORY` identical pushes the history
    /// holds only `(pc, line)` and further pushes change nothing. The
    /// event engine uses this to settle a fast-forwarded spin window.
    pub fn replay_spin_loads(&mut self, pc: u32, line: LineAddr, count: u64) {
        for _ in 0..count.min(HISTORY as u64) {
            self.record_load(pc, line);
        }
    }

    /// Records a store-conditional target: the line is a lock word,
    /// excluded from training so spin loads never fetch exclusive.
    pub fn record_atomic(&mut self, line: LineAddr) {
        if !self.enabled || self.atomic_lines.contains(&line) {
            return;
        }
        if self.atomic_lines.len() == ATOMIC_EXCLUSIONS {
            self.atomic_lines.remove(0);
        }
        self.atomic_lines.push(line);
        self.recent_loads.retain(|&(_, l)| l != line);
    }

    /// Records a committed store: any recent load of the same line
    /// trains the predictor for that load's PC.
    pub fn record_store(&mut self, line: LineAddr) {
        if !self.enabled || self.atomic_lines.contains(&line) {
            return;
        }
        let mut trained = Vec::new();
        self.recent_loads.retain(|&(pc, l)| {
            if l == line {
                trained.push(pc);
                false
            } else {
                true
            }
        });
        for pc in trained {
            let conf = self.table.confidence(pc).map_or(1, |c| (c + 1).min(3));
            self.table.set(pc, conf);
        }
    }

    /// Whether a load at `pc` should fetch exclusive ownership
    /// directly.
    pub fn predicts_store(&self, pc: u32) -> bool {
        if !self.enabled {
            return false;
        }
        self.table.confidence(pc).is_some_and(|c| c >= 1)
    }

    /// Weakens the prediction for `pc` (a predicted-exclusive load
    /// that was never followed by a store wastes ownership).
    pub fn mispredicted(&mut self, pc: u32) {
        match self.table.confidence(pc) {
            Some(c) if c <= 1 => self.table.clear(pc),
            Some(c) => self.table.set(pc, c - 1),
            None => {}
        }
    }

    /// Number of trained entries (the paper reports usage: radiosity
    /// used just under 100 of 128, others fewer than 30).
    pub fn trained_entries(&self) -> usize {
        self.table.occupied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_on_load_then_store_to_same_line() {
        let mut p = RmwPredictor::new(8, true);
        assert!(!p.predicts_store(5));
        p.record_load(5, LineAddr(100));
        p.record_store(LineAddr(100));
        assert!(p.predicts_store(5));
        assert_eq!(p.trained_entries(), 1);
    }

    #[test]
    fn no_training_on_unrelated_store() {
        let mut p = RmwPredictor::new(8, true);
        p.record_load(5, LineAddr(100));
        p.record_store(LineAddr(200));
        assert!(!p.predicts_store(5));
    }

    #[test]
    fn history_is_bounded() {
        let mut p = RmwPredictor::new(64, true);
        p.record_load(1, LineAddr(1));
        for i in 0..HISTORY as u32 {
            p.record_load(10 + i, LineAddr(500 + i as u64));
        }
        // The oldest load (pc 1) has fallen out of the history.
        p.record_store(LineAddr(1));
        assert!(!p.predicts_store(1));
    }

    #[test]
    fn misprediction_decays_and_clears() {
        let mut p = RmwPredictor::new(8, true);
        p.record_load(3, LineAddr(9));
        p.record_store(LineAddr(9));
        assert!(p.predicts_store(3));
        p.mispredicted(3);
        assert!(!p.predicts_store(3));
        assert_eq!(p.trained_entries(), 0, "a cleared entry is no longer trained");
        // Retrains after more evidence.
        p.record_load(3, LineAddr(9));
        p.record_store(LineAddr(9));
        assert!(p.predicts_store(3));
    }

    #[test]
    fn disabled_predictor_never_predicts() {
        let mut p = RmwPredictor::new(8, false);
        p.record_load(5, LineAddr(100));
        p.record_store(LineAddr(100));
        assert!(!p.predicts_store(5));
        assert_eq!(p.trained_entries(), 0);
    }

    #[test]
    fn atomic_lines_are_excluded_from_training() {
        let mut p = RmwPredictor::new(8, true);
        // A spin load of a lock line, then the SC marks the line.
        p.record_load(5, LineAddr(100));
        p.record_atomic(LineAddr(100));
        // The release store to the lock line must not train pc 5.
        p.record_store(LineAddr(100));
        assert!(!p.predicts_store(5));
        // Even loads recorded after the exclusion are ignored.
        p.record_load(6, LineAddr(100));
        p.record_store(LineAddr(100));
        assert!(!p.predicts_store(6));
        // Data lines are unaffected.
        p.record_load(7, LineAddr(200));
        p.record_store(LineAddr(200));
        assert!(p.predicts_store(7));
    }

    #[test]
    fn atomic_exclusion_list_is_bounded() {
        let mut p = RmwPredictor::new(8, true);
        for i in 0..(ATOMIC_EXCLUSIONS as u64 + 4) {
            p.record_atomic(LineAddr(i));
        }
        // The oldest exclusion fell out; line 0 trains again.
        p.record_load(1, LineAddr(0));
        p.record_store(LineAddr(0));
        assert!(p.predicts_store(1));
    }

    #[test]
    fn aliasing_replaces_entry() {
        let mut p = RmwPredictor::new(2, true);
        p.record_load(0, LineAddr(1));
        p.record_store(LineAddr(1));
        assert!(p.predicts_store(0));
        // pc 2 aliases slot 0.
        p.record_load(2, LineAddr(3));
        p.record_store(LineAddr(3));
        assert!(p.predicts_store(2));
        assert!(!p.predicts_store(0), "aliased entry was replaced");
    }
}
