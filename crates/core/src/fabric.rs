//! The machine's ordering point, over either coherence fabric.
//!
//! TLR needs one thing from the fabric: an ordering point per block,
//! where an incoming request meets a timestamp and a deferral decision
//! (§3). The snooping bus orders every block at its one arbitration
//! slot; the directory orders each block at its home bank. Both decide
//! who supplies and who becomes owner through the one rule
//! [`protocol::dir_order`]: the bus feeds it its owner ledger and an
//! exact scan of the caches, the directory its home entry. Beyond that
//! rule, the machine sees only the directed snoop targets a directory
//! decision carries.

use std::collections::HashMap;

use tlr_mem::protocol::{self, DirOutcome};
use tlr_mem::{Bus, BusRequest, Directory, LineAddr, NodeSet, OrderDecision, WordHash};
use tlr_sim::config::{Interconnect, MachineConfig};
use tlr_sim::prof::{Gauges, WakeSource};
use tlr_sim::{Cycle, MachineStats, NodeId};

/// The ordering fabric a machine runs on ([`Interconnect`]).
#[derive(Debug)]
pub(crate) enum Fabric {
    /// The broadcast snooping bus. `owner` is its protocol-owner
    /// ledger: the node last granted exclusive (or clean-exclusive)
    /// ownership of a line; absent means memory owns it. In the real
    /// broadcast system every snooper derives this from the observed
    /// request stream; centralizing it changes no ordering or timing
    /// (see `DESIGN.md`).
    Bus { bus: Bus, owner: HashMap<LineAddr, NodeId, WordHash> },
    /// The banked home directory: requests fly point-to-point to their
    /// home bank, and its entry directs the snoop.
    Directory(Directory),
}

impl Fabric {
    /// The fabric `cfg.interconnect` selects, with the chaos layer's
    /// fault hooks installed (none unless `cfg.faults` enables them).
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        match cfg.interconnect {
            Interconnect::Snooping => {
                let mut bus = Bus::new(cfg.num_procs, cfg.latency.bus_occupancy);
                bus.set_fault(cfg.faults.bus_fault());
                Fabric::Bus { bus, owner: HashMap::default() }
            }
            Interconnect::Directory => {
                let banks = if cfg.dir_banks == 0 { cfg.num_procs } else { cfg.dir_banks };
                let mut dir =
                    Directory::new(cfg.num_procs, banks, cfg.latency.bus_occupancy, cfg.req_network);
                // The request network gets its own jitter stream, so
                // the data network's draws are untouched.
                dir.set_fault(cfg.faults.net_fault());
                Fabric::Directory(dir)
            }
        }
    }

    /// Home banks (zero on the bus).
    pub(crate) fn banks(&self) -> usize {
        match self {
            Fabric::Bus { .. } => 0,
            Fabric::Directory(dir) => dir.banks(),
        }
    }

    /// Routes a request to its ordering point, the single choke point
    /// for every request a node issues: arbitration from the
    /// requester's bus queue, or a flight to the home bank leaving at
    /// the request's issue cycle.
    pub(crate) fn send(&mut self, req: BusRequest) {
        match self {
            Fabric::Bus { bus, .. } => bus.enqueue(req.requester, req),
            Fabric::Directory(dir) => dir.send(req.enqueued_at, req),
        }
    }

    /// Requests issued and not yet ordered.
    pub(crate) fn pending(&self) -> usize {
        match self {
            Fabric::Bus { bus, .. } => bus.pending(),
            Fabric::Directory(dir) => dir.pending(),
        }
    }

    /// The next cycle the ordering point can make progress, tagged
    /// with its wake source; `None` when nothing is pending (then
    /// [`Fabric::tick_into`] is a no-op that draws no randomness).
    pub(crate) fn next_order_cycle(&self, now: Cycle) -> Option<(Cycle, WakeSource)> {
        match self {
            Fabric::Bus { bus, .. } => bus.next_order_cycle(now).map(|c| (c, WakeSource::Bus)),
            Fabric::Directory(dir) => dir.next_order_cycle(now).map(|c| (c, WakeSource::Directory)),
        }
    }

    /// Appends this cycle's ordered requests to `out`: at most one
    /// from the bus, or one per free home bank in bank-index order.
    pub(crate) fn tick_into(&mut self, now: Cycle, out: &mut Vec<BusRequest>) {
        match self {
            Fabric::Bus { bus, .. } => out.extend(bus.tick(now)),
            Fabric::Directory(dir) => dir.tick_into(now, out),
        }
    }

    /// The decision for an ordered GetS/GetX, not yet committed: the
    /// rule's outcome (supplier, other sharers, self-ownership and the
    /// ownership transfer), and the caches the snoop is directed at
    /// (`None` on the bus, which broadcasts to every cache).
    /// `exact_holders` reports whether any cache but the requester's
    /// holds a valid copy; the bus, which sees every cache, asks it
    /// only when no owner supplies.
    pub(crate) fn decide(
        &self,
        req: &BusRequest,
        exact_holders: impl FnOnce() -> bool,
    ) -> (DirOutcome, Option<NodeSet>) {
        match self {
            Fabric::Bus { owner, .. } => {
                let owner = owner.get(&req.line).copied();
                (protocol::dir_order(req.kind, req.requester, owner, exact_holders), None)
            }
            Fabric::Directory(dir) => {
                let OrderDecision { rule, targets } = dir.peek_order(req);
                (rule, Some(targets))
            }
        }
    }

    /// Commits a decision from [`Fabric::decide`]: ownership moves as
    /// the rule says. Never called for a NACK-annulled request, so an
    /// annulled transaction transfers nothing in either fabric.
    pub(crate) fn commit(&mut self, req: &BusRequest, rule: &DirOutcome) {
        match self {
            Fabric::Bus { owner, .. } => {
                if rule.take_ownership {
                    owner.insert(req.line, req.requester);
                }
            }
            Fabric::Directory(dir) => dir.commit_order(req),
        }
    }

    /// Retires `node`'s non-cancelled writeback of `line`: the writer
    /// stops being its owner (and, in the directory, a sharer).
    pub(crate) fn retire_writeback(&mut self, line: LineAddr, node: NodeId) {
        match self {
            Fabric::Bus { owner, .. } => {
                if owner.get(&line) == Some(&node) {
                    owner.remove(&line);
                }
            }
            Fabric::Directory(dir) => dir.retire_writeback(line, node),
        }
    }

    /// Faults injected so far: (reordered bus arbitration rounds,
    /// delayed request flights).
    pub(crate) fn fault_injections(&self) -> (u64, u64) {
        match self {
            Fabric::Bus { bus, .. } => (bus.fault_injections(), 0),
            Fabric::Directory(dir) => (0, dir.fault_injections()),
        }
    }

    /// The profiler's ordering-point gauges; every other field zero.
    pub(crate) fn gauges(&self) -> Gauges {
        match self {
            Fabric::Bus { bus, .. } => Gauges { bus_ordered: bus.ordered_count(), ..Gauges::default() },
            Fabric::Directory(dir) => Gauges {
                dir_ordered: dir.ordered_count(),
                dir_depth: dir.pending(),
                ..Gauges::default()
            },
        }
    }

    /// Writes the directory's end-of-run request counts into `stats`.
    pub(crate) fn finalize_stats(&self, stats: &mut MachineStats) {
        if let Fabric::Directory(dir) = self {
            stats.dir.requests_ordered = dir.ordered_count();
            stats.dir.requests_sent = dir.sent_count();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_mem::BusReqKind::{GetS, GetX};

    /// For every request kind, owner (none, the requester, another
    /// node) and extra holder (absent, present), the bus (ledger plus
    /// exact cache scan) and a directory whose sharer set is exact
    /// reach the same decision and move ownership the same way.
    #[test]
    fn bus_and_exact_directory_share_the_ordering_rule() {
        let line = LineAddr(7);
        let req = |requester, kind| {
            BusRequest { requester, line, kind, ts: None, karma: 0, wb_data: None, enqueued_at: 0 }
        };
        let owner_of = |f: &Fabric| match f {
            Fabric::Bus { owner, .. } => owner.get(&line).copied(),
            Fabric::Directory(dir) => dir.owner(line),
        };
        for kind in [GetS, GetX] {
            for owner in [None, Some(0), Some(1)] {
                for extra in [false, true] {
                    // Node 2 is the extra holder; an ownerless entry is
                    // left by node 3's retired writeback.
                    let mut dir = Directory::new(4, 1, 1, 0);
                    dir.commit_order(&req(owner.unwrap_or(3), GetX));
                    if extra {
                        dir.commit_order(&req(2, GetS));
                    }
                    if owner.is_none() {
                        dir.retire_writeback(line, 3);
                    }
                    let mut dir = Fabric::Directory(dir);
                    let ledger = owner.map(|o| (line, o)).into_iter().collect();
                    let mut bus = Fabric::Bus { bus: Bus::new(4, 1), owner: ledger };
                    assert_eq!(owner_of(&dir), owner, "setup");

                    let r = req(0, kind);
                    let case = format!("{kind:?}, owner {owner:?}, extra holder {extra}");
                    let (on_bus, _) = bus.decide(&r, || owner == Some(1) || extra);
                    let (on_dir, _) = dir.decide(&r, || unreachable!("the directory scans no caches"));
                    assert_eq!(on_bus, on_dir, "{case}");
                    bus.commit(&r, &on_bus);
                    dir.commit(&r, &on_dir);
                    assert_eq!(owner_of(&bus), owner_of(&dir), "{case}: ownership transfer");
                }
            }
        }
    }
}
