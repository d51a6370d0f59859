//! Per-processor node state: core, L1, victim cache, buffers, MSHRs,
//! predictors, logical clock, transaction state and the deferred
//! request queue of Figure 5.
//!
//! Nodes are passive containers; the coherence-controller *logic*
//! operating on them lives in [`crate::machine`], because most
//! decisions need machine-global context (the ordering fabric, the
//! data network).

use std::collections::VecDeque;

use tlr_cpu::{Core, MemAccess};
use tlr_mem::addr::LineAddr;
use tlr_mem::line::{CacheLine, LineData, Moesi};
use tlr_mem::mshr::{MshrFile, RetryTimers};
use tlr_mem::storebuf::StoreBuffer;
use tlr_mem::timestamp::{LogicalClock, Timestamp};
use tlr_mem::victim::VictimCache;
use tlr_mem::wb::WriteBuffer;
use tlr_mem::{Cache, BusRequest};
use tlr_sim::config::MachineConfig;
use tlr_sim::{Cycle, NodeId};

use crate::rmw::RmwPredictor;
use crate::sle::{StorePairPredictor, Txn};

/// An incoming request whose response this node is deferring until
/// its transaction commits (or aborts): the hardware queue of
/// Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeferredReq {
    /// The contested block.
    pub line: LineAddr,
    /// The waiting requester.
    pub from: NodeId,
    /// Whether the waiting request is exclusive.
    pub exclusive: bool,
    /// The waiting request's timestamp.
    pub ts: Option<Timestamp>,
    /// The waiting request's contention-manager credit (karma policy
    /// only; 0 otherwise).
    pub karma: u32,
}

/// Why the core is blocked, used for retrying and for Figure 11's
/// stall attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Waiting for a fill of `line`; `is_lock` when the target address
    /// is a lock variable.
    Fill {
        /// The missing line.
        line: LineAddr,
        /// Whether the blocked access targets a lock variable.
        is_lock: bool,
    },
    /// Store stalled on a full store buffer.
    StoreBufFull,
    /// Store/SC stalled on a full MSHR file.
    MshrFull {
        /// Whether the blocked access targets a lock variable.
        is_lock: bool,
    },
    /// Store-conditional or fence draining the store buffer.
    Drain {
        /// Whether the blocked access targets a lock variable.
        is_lock: bool,
    },
    /// The release store is waiting for the transaction commit (all
    /// write-buffer lines writable).
    Commit,
    /// An I/O operation completes at the given cycle.
    Io {
        /// Completion cycle.
        until: Cycle,
    },
}

/// A dirty line evicted from the victim cache, parked here until its
/// WriteBack transaction is ordered (it can still supply snoops).
#[derive(Debug, Clone)]
pub struct PendingWriteback {
    /// The evicted line.
    pub line: LineAddr,
    /// Its dirty data.
    pub data: LineData,
    /// Set when a later request was supplied from this buffer and the
    /// writeback must not overwrite the new owner's data.
    pub cancelled: bool,
}

/// A snooped bus transaction awaiting processing at this node
/// (delivered `snoop` cycles after bus order).
#[derive(Debug, Clone)]
pub struct SnoopEvent {
    /// Cycle at which the snoop is processed.
    pub due: Cycle,
    /// Cycle at which the request was ordered on the bus (its
    /// coherence-order position).
    pub order_cycle: Cycle,
    /// The ordered request.
    pub req: BusRequest,
    /// The node the owner ledger designated as supplier, if any.
    pub supplier: Option<NodeId>,
    /// The directed snoop target set, when the request was ordered by
    /// the home-node directory. `None` on bus machines (broadcast:
    /// every cache snoops).
    pub targets: Option<tlr_mem::NodeSet>,
}

/// One processor node.
#[derive(Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// The processor core.
    pub core: Core,
    /// L1 data cache.
    pub l1: Cache,
    /// Victim cache (§3.3).
    pub victim: VictimCache,
    /// Speculative write buffer.
    pub wb: WriteBuffer,
    /// Non-speculative store buffer (TSO).
    pub sb: StoreBuffer,
    /// Outstanding misses.
    pub mshrs: MshrFile,
    /// Deferred incoming requests (Figure 5's hardware queue).
    pub deferred: VecDeque<DeferredReq>,
    /// Capacity of the deferred queue.
    pub deferred_cap: usize,
    /// In-flight transaction, if any.
    pub txn: Option<Txn>,
    /// The transaction timestamp, frozen at transaction start and
    /// reused across restarts (§2.1.2).
    pub clock: LogicalClock,
    /// Silent store-pair predictor (SLE).
    pub sle_pred: StorePairPredictor,
    /// Read-modify-write predictor (§3.1.2).
    pub rmw_pred: RmwPredictor,
    /// Why the core is blocked, if it is.
    pub wait: Option<Wait>,
    /// The access the core is blocked on (kept for completion).
    pub waiting_access: Option<MemAccess>,
    /// Suppress elision once for the SC at this PC (fallback: "expose
    /// the elided writes and exit speculative mode").
    pub suppress_elide_at: Option<u32>,
    /// Core stalled until this cycle (restart penalty).
    pub stall_until: Cycle,
    /// De-scheduled by the OS (§4 stability experiments).
    pub paused: bool,
    /// Dirty victim-cache evictions awaiting WriteBack order.
    pub pending_wb: Vec<PendingWriteback>,
    /// Lines whose transactional access bits were set in the current
    /// transaction (each recorded when its first bit goes up), so
    /// [`Node::clear_spec_bits`] visits only these instead of the
    /// whole cache.
    pub(crate) spec_lines: Vec<LineAddr>,
    /// Transactional stores whose exclusive request could not be
    /// issued yet (MSHR pressure / pending shared fill); retried each
    /// cycle and required before commit.
    pub txn_pending_x: Vec<LineAddr>,
    /// NACKed requests awaiting retry after a randomized backoff.
    pub nack_retries: RetryTimers,
    /// Consecutive restarts caused by undeferrable invalidations of
    /// shared-state blocks. After repeated violations the node
    /// escalates: transactional reads fetch exclusive ownership so
    /// that external requests become deferrable, which §3.1.2 notes
    /// "guarantees a successful TLR execution".
    pub sharer_inval_streak: u32,
    /// Restarts absorbed since the current critical section first
    /// started eliding (observability: the restarts-per-transaction
    /// histogram samples and resets this on commit/fallback).
    pub restart_streak: u32,
    /// Contention-manager credit under the karma policy: the
    /// accumulated speculative footprint of this node's *aborted*
    /// attempts. Accumulated at abort (so it is constant within an
    /// attempt — see `tlr_core::policy`), reset at commit or lock
    /// fallback, and always 0 under every other policy.
    pub karma: u32,
    /// Cycle the core finished, if it has.
    pub done_at: Option<Cycle>,
}

impl Node {
    /// Builds a node from the machine configuration.
    pub fn new(id: NodeId, core: Core, cfg: &MachineConfig) -> Self {
        Node {
            id,
            core,
            l1: Cache::new(cfg.l1_sets, cfg.l1_ways),
            victim: VictimCache::new(cfg.faults.effective_victim_entries(id, cfg.victim_entries)),
            wb: WriteBuffer::new(
                cfg.faults.effective_write_buffer_lines(id, cfg.write_buffer_lines),
            ),
            sb: StoreBuffer::new(cfg.store_buffer_entries),
            mshrs: MshrFile::new(cfg.mshrs),
            deferred: VecDeque::new(),
            deferred_cap: cfg
                .faults
                .effective_deferred_queue_entries(id, cfg.deferred_queue_entries),
            txn: None,
            clock: LogicalClock::new(id, cfg.timestamp_bits),
            sle_pred: StorePairPredictor::new(
                cfg.sle_predictor_entries,
                cfg.scheme.elision_enabled(),
            ),
            rmw_pred: RmwPredictor::new(cfg.rmw_predictor_entries, cfg.rmw_predictor_enabled),
            wait: None,
            waiting_access: None,
            suppress_elide_at: None,
            stall_until: 0,
            paused: false,
            pending_wb: Vec::new(),
            spec_lines: Vec::new(),
            txn_pending_x: Vec::new(),
            nack_retries: RetryTimers::new(),
            sharer_inval_streak: 0,
            restart_streak: 0,
            karma: 0,
            done_at: None,
        }
    }

    /// The node's current transaction timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.clock.timestamp()
    }

    /// Looks up a line in L1 or victim cache.
    pub fn line(&self, line: LineAddr) -> Option<&CacheLine> {
        self.l1.peek(line).or_else(|| self.victim.peek(line))
    }

    /// Mutable lookup in L1 (an access: it refreshes LRU order) or
    /// victim cache.
    pub fn line_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        match self.l1.get_mut(line) {
            Some(l) => Some(l),
            None => self.victim.peek_mut(line),
        }
    }

    /// The coherence state of a line ([`Moesi::Invalid`] when absent).
    pub fn line_state(&self, line: LineAddr) -> Moesi {
        self.line(line).map_or(Moesi::Invalid, |l| l.state)
    }

    /// Sets a transactional access bit (`written` picks which) on the
    /// resident `line`, leaving LRU order untouched, and records the
    /// line for [`Node::clear_spec_bits`] when it had neither bit.
    ///
    /// # Panics
    ///
    /// Panics if the line is in neither the L1 nor the victim cache.
    pub fn mark_spec(&mut self, line: LineAddr, written: bool) {
        let l = match self.l1.peek_mut(line) {
            Some(l) => l,
            None => self.victim.peek_mut(line).expect("marking a line that is not resident"),
        };
        if !l.spec_accessed() {
            self.spec_lines.push(line);
        }
        if written {
            l.spec_written = true;
        } else {
            l.spec_read = true;
        }
    }

    /// Clears transactional access bits everywhere (transaction end —
    /// the `end_defer` of Figure 5): only the lines
    /// [`Node::mark_spec`] recorded can carry a bit. A recorded line
    /// that has since left both caches took its bits with it.
    pub fn clear_spec_bits(&mut self) {
        for line in self.spec_lines.drain(..) {
            if let Some(l) = self.l1.peek_mut(line).or_else(|| self.victim.peek_mut(line)) {
                l.clear_spec();
            }
        }
        debug_assert!(
            self.l1.iter().chain(self.victim.iter()).all(|l| !l.spec_accessed()),
            "node {}: a transactional bit was set outside Node::mark_spec",
            self.id
        );
    }

    /// Whether repeated shared-block invalidations have escalated
    /// this node's transactional reads to exclusive fetches (§3.1.2).
    pub fn reads_exclusive(&self) -> bool {
        self.sharer_inval_streak >= 2
    }

    /// Whether this node has deferred requests for any line other
    /// than `line` (the §3.2 single-block eligibility check).
    pub fn defers_other_lines(&self, line: LineAddr) -> bool {
        self.deferred.iter().any(|d| d.line != line)
    }

    /// Finds a (non-cancelled) pending writeback for `line`.
    pub fn pending_wb_mut(&mut self, line: LineAddr) -> Option<&mut PendingWriteback> {
        self.pending_wb.iter_mut().find(|p| p.line == line && !p.cancelled)
    }

    /// Counts the transactional footprint: lines with the speculative
    /// read/write bit set across L1 and victim cache. A cache scan —
    /// callers gate it on tracing being enabled.
    pub fn spec_footprint(&self) -> (u32, u32) {
        let mut reads = 0;
        let mut writes = 0;
        for l in self.l1.iter().chain(self.victim.iter()) {
            if l.spec_read {
                reads += 1;
            }
            if l.spec_written {
                writes += 1;
            }
        }
        (reads, writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tlr_sim::config::Scheme;
    use tlr_sim::SimRng;

    fn mk_node() -> Node {
        let cfg = MachineConfig::small(Scheme::Tlr, 2);
        let mut a = tlr_cpu::Asm::new("t");
        a.done();
        let core = Core::new(Arc::new(a.finish()), SimRng::new(0));
        Node::new(0, core, &cfg)
    }

    #[test]
    fn line_lookup_spans_l1_and_victim() {
        let mut n = mk_node();
        assert_eq!(n.line_state(LineAddr(1)), Moesi::Invalid);
        n.l1.insert(CacheLine::new(LineAddr(1), Moesi::Shared, LineData::zeroed()));
        n.victim.insert(CacheLine::new(LineAddr(2), Moesi::Modified, LineData::zeroed()));
        assert_eq!(n.line_state(LineAddr(1)), Moesi::Shared);
        assert_eq!(n.line_state(LineAddr(2)), Moesi::Modified);
        assert!(n.line_mut(LineAddr(2)).is_some());
    }

    #[test]
    fn clear_spec_bits_spans_both_structures() {
        let mut n = mk_node();
        n.l1.insert(CacheLine::new(LineAddr(1), Moesi::Shared, LineData::zeroed()));
        n.victim.insert(CacheLine::new(LineAddr(2), Moesi::Modified, LineData::zeroed()));
        n.mark_spec(LineAddr(1), false);
        n.mark_spec(LineAddr(2), true);
        n.mark_spec(LineAddr(2), false);
        assert_eq!(n.spec_lines, [LineAddr(1), LineAddr(2)], "each line recorded once");
        assert!(n.line(LineAddr(1)).unwrap().spec_read);
        assert!(n.line(LineAddr(2)).unwrap().spec_written);
        n.clear_spec_bits();
        assert!(!n.line(LineAddr(1)).unwrap().spec_accessed());
        assert!(!n.line(LineAddr(2)).unwrap().spec_accessed());
    }

    #[test]
    fn single_block_eligibility() {
        let mut n = mk_node();
        n.deferred.push_back(DeferredReq { line: LineAddr(5), from: 1, exclusive: true, ts: None, karma: 0 });
        assert!(!n.defers_other_lines(LineAddr(5)));
        assert!(n.defers_other_lines(LineAddr(6)));
    }

    #[test]
    fn pending_writeback_lookup_skips_cancelled() {
        let mut n = mk_node();
        n.pending_wb.push(PendingWriteback { line: LineAddr(3), data: LineData::zeroed(), cancelled: true });
        assert!(n.pending_wb_mut(LineAddr(3)).is_none());
        n.pending_wb.push(PendingWriteback { line: LineAddr(3), data: LineData::zeroed(), cancelled: false });
        assert!(n.pending_wb_mut(LineAddr(3)).is_some());
    }
}
