//! Speculative Lock Elision support (Rajwar & Goodman \[30\], used by
//! TLR as its enabling mechanism).
//!
//! SLE identifies critical sections "by exploiting silent store-pairs:
//! a pair of store operations where the second store undoes the
//! effects of the first store" (§2.2). For a test&test&set lock the
//! first store is the successful store-conditional writing the held
//! value and the second is the ordinary store restoring the free
//! value.
//!
//! The [`StorePairPredictor`] is trained by observing actual lock
//! acquire/release executions (one un-elided execution per static lock
//! site), then predicts elision at the acquiring store-conditional's
//! PC. Repeated SLE failures at a site lower its confidence, which is
//! how plain SLE "detects frequent data conflicts, turns off
//! speculation, and falls back to the BASE scheme" (§6.2).

use tlr_mem::addr::Addr;
use tlr_sim::Cycle;

/// Reasons a transaction ends without committing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// Lost a data conflict (restart, keep timestamp under TLR).
    Conflict,
    /// A shared-state block with an access bit set was invalidated
    /// and could not be deferred (§3.1.2).
    SharerInvalidation,
    /// Another thread wrote the elided lock variable itself.
    LockWrite,
    /// Speculative buffering resources exhausted (§3.3) — fall back.
    Resource,
    /// An operation that cannot be undone (I/O) — fall back.
    Io,
    /// Elision nesting depth exceeded — fall back.
    Nesting,
    /// The thread was de-scheduled or killed (§4 stability).
    Descheduled,
    /// Annulled by the fault-injection layer (chaos runs): behaves as
    /// a conflict the node lost at an adversarially chosen cycle, so
    /// the elision is retried, never abandoned.
    Injected,
}

impl AbortKind {
    /// Whether this abort forces actually acquiring the lock rather
    /// than retrying the elision.
    pub fn forces_fallback(self) -> bool {
        matches!(self, AbortKind::Resource | AbortKind::Io | AbortKind::Nesting)
    }
}

/// One elided lock within the current transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElidedLock {
    /// Address of the lock variable.
    pub addr: Addr,
    /// The lock's free value, read by the load-linked and to be
    /// restored by the release store (making the pair silent).
    pub free_value: u64,
    /// The value the elided store-conditional would have written.
    pub held_value: u64,
    /// PC of the eliding store-conditional (predictor index).
    pub pc: u32,
    /// Whether the matching release store has been seen.
    pub closed: bool,
}

/// A candidate silent store-pair being watched during *non-elided*
/// execution, used to train the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCandidate {
    /// Address written by the atomic store.
    pub addr: Addr,
    /// Value the location held before the store.
    pub old_value: u64,
    /// PC of the store-conditional.
    pub pc: u32,
}

/// PC-indexed predictor of elidable lock acquires (Table 2: 64-entry
/// silent store-pair predictor).
#[derive(Debug, Clone)]
pub struct StorePairPredictor {
    /// Direct-mapped entries: (pc, confidence 0..=3).
    table: Vec<Option<(u32, u8)>>,
    /// Open candidates awaiting their silent second store.
    candidates: Vec<PairCandidate>,
    enabled: bool,
}

/// Maximum simultaneously watched candidates (matches the elision
/// nesting depth).
const MAX_CANDIDATES: usize = 8;

impl StorePairPredictor {
    /// Creates a predictor with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, enabled: bool) -> Self {
        assert!(entries.is_power_of_two(), "predictor entries must be a power of two");
        StorePairPredictor { table: vec![None; entries], candidates: Vec::new(), enabled }
    }

    fn slot(&self, pc: u32) -> usize {
        pc as usize & (self.table.len() - 1)
    }

    /// Whether the store-conditional at `pc` should be elided.
    pub fn should_elide(&self, pc: u32) -> bool {
        self.enabled
            && matches!(self.table[self.slot(pc)], Some((p, conf)) if p == pc && conf >= 2)
    }

    /// Observes a *real* (non-elided) successful store-conditional
    /// that changed `addr` from `old_value`, opening a pair candidate.
    pub fn observe_atomic_store(&mut self, pc: u32, addr: Addr, old_value: u64, new_value: u64) {
        if !self.enabled || old_value == new_value {
            return;
        }
        if self.candidates.len() == MAX_CANDIDATES {
            self.candidates.remove(0);
        }
        self.candidates.push(PairCandidate { addr, old_value, pc });
    }

    /// Observes an ordinary committed store; if it silently undoes an
    /// open candidate, the candidate's PC is trained.
    pub fn observe_store(&mut self, addr: Addr, value: u64) {
        if !self.enabled {
            return;
        }
        if let Some(pos) =
            self.candidates.iter().position(|c| c.addr == addr && c.old_value == value)
        {
            let pc = self.candidates.remove(pos).pc;
            let s = self.slot(pc);
            match &mut self.table[s] {
                Some((p, conf)) if *p == pc => *conf = (*conf + 2).min(3),
                e => *e = Some((pc, 2)),
            }
        }
    }

    /// Lowers confidence after an elision at `pc` failed (SLE's
    /// adaptive fallback under frequent conflicts).
    pub fn elision_failed(&mut self, pc: u32) {
        let s = self.slot(pc);
        if let Some((p, conf)) = &mut self.table[s] {
            if *p == pc {
                *conf = conf.saturating_sub(1);
            }
        }
    }

    /// Raises confidence after a successful lock-free commit.
    pub fn elision_succeeded(&mut self, pc: u32) {
        let s = self.slot(pc);
        match &mut self.table[s] {
            Some((p, conf)) if *p == pc => *conf = (*conf + 1).min(3),
            _ => {}
        }
    }

    /// Discards open pair candidates (e.g. on a context switch).
    pub fn clear_candidates(&mut self) {
        self.candidates.clear();
    }
}

/// The state of one in-flight lock-free transaction.
#[derive(Debug, Clone)]
pub struct Txn {
    /// Core checkpoint for misspeculation recovery.
    pub checkpoint: tlr_cpu::CoreCheckpoint,
    /// Stack of elided locks (outermost first).
    pub elided: Vec<ElidedLock>,
    /// Whether the transaction has entered its commit phase (all
    /// pairs closed; waiting for write-buffer lines to be writable).
    pub committing: bool,
    /// Cycle the transaction (first attempt) started.
    pub started_at: Cycle,
    /// Cycle the commit phase was entered, once `committing` is set
    /// (observability: commit latency = commit cycle − this).
    pub commit_entered_at: Option<Cycle>,
    /// Number of conflict-induced restarts so far (the timestamp is
    /// retained across these).
    pub restarts: u32,
    /// Lazy-subscription flag: an elided lock line was invalidated (or
    /// supplied away) mid-transaction instead of aborting eagerly; the
    /// commit must re-fetch and re-check every elided lock word before
    /// it may proceed. Only ever set by the lazy-subscription policy.
    pub lock_recheck: bool,
}

impl Txn {
    /// Starts a transaction at the first elided lock.
    pub fn new(checkpoint: tlr_cpu::CoreCheckpoint, first: ElidedLock, now: Cycle) -> Self {
        Txn {
            checkpoint,
            elided: vec![first],
            committing: false,
            started_at: now,
            commit_entered_at: None,
            restarts: 0,
            lock_recheck: false,
        }
    }

    /// Whether a store of `value` to `addr` is the release store of an
    /// open elided lock; if so marks it closed and returns `true`.
    pub fn try_close(&mut self, addr: Addr, value: u64) -> bool {
        if let Some(e) = self
            .elided
            .iter_mut()
            .rev()
            .find(|e| !e.closed && e.addr == addr && e.free_value == value)
        {
            e.closed = true;
            true
        } else {
            false
        }
    }

    /// Whether `addr` is one of the currently *open* elided locks.
    pub fn is_open_lock(&self, addr: Addr) -> bool {
        self.elided.iter().any(|e| !e.closed && e.addr == addr)
    }

    /// Whether every elided pair has been closed (commit may begin).
    pub fn all_closed(&self) -> bool {
        self.elided.iter().all(|e| e.closed)
    }

    /// Current open nesting depth.
    pub fn open_depth(&self) -> usize {
        self.elided.iter().filter(|e| !e.closed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(p: &mut StorePairPredictor, pc: u32, addr: Addr) {
        p.observe_atomic_store(pc, addr, 0, 1);
        p.observe_store(addr, 0);
    }

    #[test]
    fn predictor_trains_on_silent_pair() {
        let mut p = StorePairPredictor::new(64, true);
        assert!(!p.should_elide(10));
        train(&mut p, 10, Addr(64));
        assert!(p.should_elide(10));
    }

    #[test]
    fn non_silent_store_does_not_train() {
        let mut p = StorePairPredictor::new(64, true);
        p.observe_atomic_store(10, Addr(64), 0, 1);
        p.observe_store(Addr(64), 7); // writes a third value
        assert!(!p.should_elide(10));
    }

    #[test]
    fn unchanged_atomic_store_is_not_a_pair_start() {
        let mut p = StorePairPredictor::new(64, true);
        p.observe_atomic_store(10, Addr(64), 1, 1);
        p.observe_store(Addr(64), 1);
        assert!(!p.should_elide(10));
    }

    #[test]
    fn failures_decay_confidence_then_retrain() {
        let mut p = StorePairPredictor::new(64, true);
        train(&mut p, 10, Addr(64));
        p.elision_failed(10);
        assert!(!p.should_elide(10), "confidence dropped below threshold");
        p.elision_succeeded(10); // e.g. a later fallback-free run
        assert!(p.should_elide(10));
    }

    #[test]
    fn disabled_predictor_inert() {
        let mut p = StorePairPredictor::new(64, false);
        train(&mut p, 10, Addr(64));
        assert!(!p.should_elide(10));
    }

    #[test]
    fn candidate_buffer_bounded() {
        let mut p = StorePairPredictor::new(64, true);
        for i in 0..(MAX_CANDIDATES as u32 + 4) {
            p.observe_atomic_store(i, Addr(64 * (i as u64 + 1)), 0, 1);
        }
        // Oldest candidates dropped; the newest still trains.
        p.observe_store(Addr(64 * (MAX_CANDIDATES as u64 + 4)), 0);
        assert!(p.should_elide(MAX_CANDIDATES as u32 + 3));
    }

    #[test]
    fn abort_kinds_fallback_classification() {
        assert!(!AbortKind::Conflict.forces_fallback());
        assert!(!AbortKind::LockWrite.forces_fallback());
        assert!(!AbortKind::SharerInvalidation.forces_fallback());
        assert!(AbortKind::Resource.forces_fallback());
        assert!(AbortKind::Io.forces_fallback());
        assert!(AbortKind::Nesting.forces_fallback());
        assert!(!AbortKind::Injected.forces_fallback(), "chaos aborts must retry, not fall back");
    }

    fn mk_lock(addr: u64, pc: u32) -> ElidedLock {
        ElidedLock { addr: Addr(addr), free_value: 0, held_value: 1, pc, closed: false }
    }

    #[test]
    fn txn_close_matches_value_and_addr() {
        let cp_src = {
            use std::sync::Arc;
            let mut a = tlr_cpu::Asm::new("t");
            a.done();
            tlr_cpu::Core::new(Arc::new(a.finish()), tlr_sim::SimRng::new(0))
        };
        let mut t = Txn::new(cp_src.checkpoint(), mk_lock(64, 1), 0);
        assert!(t.is_open_lock(Addr(64)));
        assert!(!t.try_close(Addr(64), 5), "wrong value is not the release");
        assert!(!t.try_close(Addr(128), 0), "wrong address");
        assert!(t.try_close(Addr(64), 0));
        assert!(t.all_closed());
        assert!(!t.is_open_lock(Addr(64)));
        assert!(!t.try_close(Addr(64), 0), "already closed");
    }

    #[test]
    fn txn_nesting_closes_innermost_first() {
        let cp_src = {
            use std::sync::Arc;
            let mut a = tlr_cpu::Asm::new("t");
            a.done();
            tlr_cpu::Core::new(Arc::new(a.finish()), tlr_sim::SimRng::new(0))
        };
        let mut t = Txn::new(cp_src.checkpoint(), mk_lock(64, 1), 0);
        t.elided.push(mk_lock(128, 2));
        assert_eq!(t.open_depth(), 2);
        assert!(t.try_close(Addr(128), 0));
        assert!(!t.all_closed());
        assert!(t.try_close(Addr(64), 0));
        assert!(t.all_closed());
    }
}
