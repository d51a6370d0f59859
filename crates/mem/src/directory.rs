//! Home-node directory coherence: the scalable alternative to the
//! broadcast snooping bus.
//!
//! The snooping machine has a single ordering point (bus arbitration)
//! and discovers conflicts by broadcasting every request to every
//! cache. That tops out around 16 processors (§5.3 evaluates exactly
//! there). A directory machine instead interleaves lines across home
//! banks; each bank holds a per-line entry — the registered owner plus
//! a sharer bit-vector — and *orders* the requests for its lines
//! independently of every other bank. Requests travel point-to-point
//! to the home (reusing the [`crate::network`] delivery calendar), are
//! ordered one per bank per occupancy window, and coherence actions
//! (interventions, invalidations, TLR's marker/probe deferral traffic
//! of §3.1.1) are *directed* at the registered owner and sharers
//! instead of broadcast — which is what lets TLR's timestamp-ordered
//! conflict resolution run at 32–256 processors.
//!
//! The ordering rule is the one the snooping bus applies
//! ([`crate::protocol::dir_order`]): the bus feeds it its owner ledger
//! and an exact cache scan, the directory its explicit entry. The
//! paper's claim is that TLR needs *no new protocol states*, only the
//! ability to carry a timestamp and direct a probe — so the directory
//! adds bookkeeping, never new coherence semantics. The sharer vector
//! is imprecise in the standard way: silent clean evictions are never
//! reported, so a stale sharer bit can downgrade a grant from Exclusive
//! to Shared or direct a spurious (no-op) invalidation, but never lets
//! two owners coexist.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use tlr_sim::config::Interconnect;
use tlr_sim::fault::NetFault;
use tlr_sim::{Cycle, NodeId};

use crate::addr::LineAddr;
use crate::msg::BusRequest;
use crate::network::Network;
use crate::protocol::{self, DirOutcome};

/// The most nodes a [`NodeSet`] holds: the directory lab's 256-way
/// machine, the largest any interconnect supports.
const NODE_SET_CAPACITY: usize = Interconnect::Directory.max_procs();

/// A fixed-capacity bit-set of node ids — the directory's sharer
/// vector, the snoop target set and the event engine's active set.
/// An inline `Copy` value of 256 bits, so making, copying and
/// dropping one never touches the heap; insert, remove and membership
/// are O(1), iteration is O(words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeSet {
    words: [u64; NODE_SET_CAPACITY / 64],
}

impl NodeSet {
    /// An empty set able to hold ids `0..nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the 256-node capacity.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes <= NODE_SET_CAPACITY, "a NodeSet holds at most {NODE_SET_CAPACITY} nodes, not {nodes}");
        NodeSet::default()
    }

    /// Adds `id`; returns whether it was newly inserted.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (w, b) = (id / 64, id % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (w, b) = (id / 64, id % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: NodeId) -> bool {
        self.words.get(id / 64).is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether any member other than `id` is present.
    pub fn any_other(&self, id: NodeId) -> bool {
        self.words.iter().enumerate().any(|(w, &word)| {
            let masked = if w == id / 64 { word & !(1 << (id % 64)) } else { word };
            masked != 0
        })
    }

    /// Members in ascending id order; O(words + members).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (mut w, mut bits) = (0, self.words[0]);
        std::iter::from_fn(move || {
            while bits == 0 {
                w += 1;
                bits = *self.words.get(w)?;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * 64 + b)
        })
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words = [0; NODE_SET_CAPACITY / 64];
    }
}

/// One line's directory entry: the registered owner (the cache
/// designated to supply and the target of probes) and the sharer
/// vector (every node registered as holding a valid copy — the owner
/// included, which is the invariant the property tests pin).
#[derive(Debug, Clone)]
pub struct DirEntry {
    /// Registered owner, mirroring the snooping machine's ledger.
    pub owner: Option<NodeId>,
    /// Registered holders of valid copies (imprecise: never shrinks on
    /// silent clean evictions).
    pub sharers: NodeSet,
}

/// What the directory decides for a request at its ordering point,
/// before the decision is committed: the entry rule's outcome, and
/// exactly which caches must observe the request (the directed
/// replacement for a broadcast snoop).
#[derive(Debug, Clone)]
pub struct OrderDecision {
    /// [`protocol::dir_order`] over the entry: supplier, other
    /// sharers, self-ownership and the ownership transfer.
    pub rule: DirOutcome,
    /// The caches that must process this ordered request: the
    /// requester, the supplier, and — for exclusive requests — every
    /// registered sharer (they hold copies to invalidate, or in-flight
    /// shared fills to mark).
    pub targets: NodeSet,
}

/// One home bank: a FIFO of arrived-but-unordered requests plus its
/// occupancy window. Banks order independently — that multiplicity of
/// ordering points is the entire scalability argument.
#[derive(Debug, Clone)]
struct Bank {
    queue: VecDeque<BusRequest>,
    busy_until: Cycle,
}

/// The banked home directory. Requests are [`Directory::send`]-ed into
/// a point-to-point request network (fixed flight latency, same-cycle
/// sends delivered in send order), land in their home bank's FIFO, and
/// are ordered at most one per bank per occupancy window by
/// [`Directory::tick_into`]. The ordering decision is split into a
/// pure [`Directory::peek_order`] and a mutating
/// [`Directory::commit_order`] so the machine can annul a NACKed
/// request *before* any state transfers — exactly as the snooping
/// ordering point returns before its ledger update.
#[derive(Debug, Clone)]
pub struct Directory {
    nodes: usize,
    entries: HashMap<LineAddr, DirEntry>,
    inbound: Network<BusRequest>,
    banks: Vec<Bank>,
    occupancy: u64,
    req_latency: u64,
    /// The ready set: one `(busy_until, bank)` entry for every bank
    /// with a non-empty FIFO, keyed by the end of its occupancy window.
    /// A bank's `busy_until` changes only when it orders, and it is
    /// then out of the heap, so no entry is ever stale.
    ready: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Scratch: the banks free to order at the current tick.
    due_scratch: Vec<usize>,
    /// Requests sitting in bank FIFOs (arrived, not yet ordered).
    queued: usize,
    /// Total requests ordered across all banks.
    ordered: u64,
}

impl Directory {
    /// A directory for `nodes` processors with `banks` home banks
    /// (clamped to at least one), per-bank ordering `occupancy`, and a
    /// `req_latency`-cycle request flight to the home.
    pub fn new(nodes: usize, banks: usize, occupancy: u64, req_latency: u64) -> Self {
        Directory {
            nodes,
            entries: HashMap::new(),
            inbound: Network::new(),
            banks: (0..banks.max(1)).map(|_| Bank { queue: VecDeque::new(), busy_until: 0 }).collect(),
            occupancy,
            req_latency,
            ready: BinaryHeap::new(),
            due_scratch: Vec::new(),
            queued: 0,
            ordered: 0,
        }
    }

    /// Installs a delivery-jitter fault hook on the request network
    /// (chaos runs only): individual request flights are delayed by a
    /// bounded, seed-derived amount, which can reorder the home bank's
    /// arrival order — the directory analogue of perturbed bus
    /// arbitration. Nothing is ever dropped.
    pub fn set_fault(&mut self, fault: Option<NetFault>) {
        self.inbound.set_fault(fault);
    }

    /// Number of request flights the fault hook has delayed.
    pub fn fault_injections(&self) -> u64 {
        self.inbound.fault_injections()
    }

    /// Sends `req` toward its home bank; it arrives `req_latency`
    /// cycles later (plus any fault-injected jitter).
    pub fn send(&mut self, now: Cycle, req: BusRequest) {
        self.inbound.send(now + self.req_latency, req);
    }

    /// Delivers every request flight due at or before `now` into its
    /// home bank FIFO, then orders at most one request per free bank
    /// (bank-index order, which keeps both engines byte-identical),
    /// appending the ordered requests to `out`. Costs O(arrivals +
    /// free banks), not O(banks): only the ready set is consulted.
    pub fn tick_into(&mut self, now: Cycle, out: &mut Vec<BusRequest>) {
        let nbanks = self.banks.len();
        while let Some(req) = self.inbound.pop_ready(now) {
            let b = req.home_bank(nbanks);
            let bank = &mut self.banks[b];
            if bank.queue.is_empty() {
                self.ready.push(Reverse((bank.busy_until, b)));
            }
            bank.queue.push_back(req);
            self.queued += 1;
        }
        let mut due = std::mem::take(&mut self.due_scratch);
        while let Some(&Reverse((t, b))) = self.ready.peek() {
            if t > now {
                break;
            }
            self.ready.pop();
            due.push(b);
        }
        due.sort_unstable();
        for &b in &due {
            let bank = &mut self.banks[b];
            let req = bank.queue.pop_front().expect("ready banks are non-empty");
            bank.busy_until = now + self.occupancy;
            if !bank.queue.is_empty() {
                self.ready.push(Reverse((bank.busy_until, b)));
            }
            self.queued -= 1;
            self.ordered += 1;
            out.push(req);
        }
        due.clear();
        self.due_scratch = due;
    }

    /// The ordering decision for `req` against the current entry,
    /// without committing it. `req` must be a GetS or GetX (upgrades
    /// are modeled as GetX; writebacks retire via
    /// [`Directory::retire_writeback`]).
    pub fn peek_order(&self, req: &BusRequest) -> OrderDecision {
        let entry = self.entries.get(&req.line);
        let rule = protocol::dir_order(req.kind, req.requester, entry.and_then(|e| e.owner), || {
            entry.is_some_and(|e| e.sharers.any_other(req.requester))
        });
        let mut targets = NodeSet::new(self.nodes);
        targets.insert(req.requester);
        if let Some(s) = rule.supplier {
            targets.insert(s);
        }
        if req.kind.is_exclusive() {
            if let Some(e) = entry {
                for s in e.sharers.iter() {
                    targets.insert(s);
                }
            }
        }
        OrderDecision { rule, targets }
    }

    /// Commits `req`'s ordering decision to the entry: registers the
    /// requester as a sharer, moves ownership per
    /// [`protocol::dir_order`], and — for exclusive requests — clears
    /// every other sharer bit (their copies are being invalidated).
    /// Not called for NACK-annulled requests: their entry is untouched.
    pub fn commit_order(&mut self, req: &BusRequest) {
        let nodes = self.nodes;
        let entry = self
            .entries
            .entry(req.line)
            .or_insert_with(|| DirEntry { owner: None, sharers: NodeSet::new(nodes) });
        let others = entry.sharers.any_other(req.requester);
        let decision = protocol::dir_order(req.kind, req.requester, entry.owner, || others);
        if req.kind.is_exclusive() {
            entry.sharers.clear();
        }
        entry.sharers.insert(req.requester);
        if decision.take_ownership {
            entry.owner = Some(req.requester);
        }
    }

    /// Retires a non-cancelled writeback ordered at the home: the
    /// writer no longer holds the line, so its ownership (if still
    /// registered) and sharer bit are dropped. A cancelled writeback —
    /// the writer re-acquired the line before the writeback ordered —
    /// never reaches here, matching the snooping retirement rule.
    pub fn retire_writeback(&mut self, line: LineAddr, node: NodeId) {
        if let Some(entry) = self.entries.get_mut(&line) {
            if entry.owner == Some(node) {
                entry.owner = None;
            }
            entry.sharers.remove(node);
        }
    }

    /// The registered owner of `line`, if any.
    pub fn owner(&self, line: LineAddr) -> Option<NodeId> {
        self.entries.get(&line).and_then(|e| e.owner)
    }

    /// The registered sharers of `line` (empty for untracked lines).
    pub fn sharers(&self, line: LineAddr) -> NodeSet {
        self.entries.get(&line).map_or_else(|| NodeSet::new(self.nodes), |e| e.sharers)
    }

    /// Requests in flight or queued at a bank, awaiting ordering.
    /// Drain-timing-invariant (in-flight and bank-queued are summed),
    /// so both engines report the same depth at the same cycle.
    pub fn pending(&self) -> usize {
        self.inbound.len() + self.queued
    }

    /// Whether no requests are in flight or queued — the directory's
    /// contribution to machine quiescence.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total requests ordered across all banks. Each ordered request
    /// occupies its bank for `occupancy` cycles, so per-bank occupancy
    /// is `ordered * occupancy / (banks * elapsed)` — the directory's
    /// saturation metric, the analogue of bus utilization.
    pub fn ordered_count(&self) -> u64 {
        self.ordered
    }

    /// Number of home banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// The configured per-bank ordering occupancy in cycles.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// The configured request-network flight latency in cycles.
    pub fn req_latency(&self) -> u64 {
        self.req_latency
    }

    /// Total request flights ever sent toward the home banks.
    pub fn sent_count(&self) -> u64 {
        self.inbound.sent_count()
    }

    /// The next cycle at which [`Directory::tick_into`] can make
    /// progress: the earliest in-flight arrival, or the earliest
    /// busy-window expiry of a bank with queued work (the ready set's
    /// minimum). `None` when nothing is pending (then a tick is a
    /// guaranteed no-op).
    pub fn next_order_cycle(&self, now: Cycle) -> Option<Cycle> {
        let bank = self.ready.peek().map(|&Reverse((t, _))| t);
        [self.inbound.next_ready(), bank].into_iter().flatten().min().map(|c| c.max(now + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::BusReqKind;

    fn req(node: NodeId, line: u64, kind: BusReqKind) -> BusRequest {
        BusRequest { requester: node, line: LineAddr(line), kind, ts: None, karma: 0, wb_data: None, enqueued_at: 0 }
    }

    fn ordered_at(dir: &mut Directory, now: Cycle) -> Vec<BusRequest> {
        let mut out = Vec::new();
        dir.tick_into(now, &mut out);
        out
    }

    #[test]
    fn node_set_basics() {
        let mut s = NodeSet::new(200);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(199));
        assert!(!s.insert(199), "re-insert reports not fresh");
        assert!(s.contains(0) && s.contains(199) && !s.contains(100));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 199]);
        assert!(s.any_other(0) && s.any_other(5));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.any_other(199), "only 199 left");
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 256 nodes")]
    fn node_set_beyond_256_nodes_panics() {
        NodeSet::new(257);
    }

    #[test]
    fn node_set_iterates_ascending_across_all_words() {
        let mut s = NodeSet::new(256);
        for id in [255, 64, 3, 191, 128, 63, 0, 200] {
            s.insert(id);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 128, 191, 200, 255]);
    }

    #[test]
    fn node_set_word_edges() {
        let edges = [0, 63, 64, 255];
        let mut s = NodeSet::new(256);
        for (k, &id) in edges.iter().enumerate() {
            s.insert(id);
            assert_eq!(s.len(), k + 1);
            assert_eq!(s.any_other(id), k > 0, "any_other({id}) ignores {id} itself");
        }
        for &id in &edges {
            let mut t = s;
            assert!(t.remove(id) && !t.contains(id));
            assert_eq!(t.len(), 3);
            assert!(!t.remove(id), "second remove of {id} finds nothing");
            assert!(t.iter().all(|m| m != id) && s.contains(id), "the copy is independent");
        }
        let mut only = NodeSet::new(256);
        only.insert(255);
        assert!(!only.any_other(255) && only.any_other(0) && only.any_other(64));
        s.clear();
        assert!(s.is_empty() && s.iter().next().is_none());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(256), "ids past the capacity are never members");
    }

    #[test]
    fn requests_fly_then_order_one_per_bank_window() {
        let mut dir = Directory::new(4, 2, 4, 10);
        dir.send(0, req(0, 0, BusReqKind::GetS)); // bank 0
        dir.send(0, req(1, 1, BusReqKind::GetS)); // bank 1
        dir.send(0, req(2, 2, BusReqKind::GetS)); // bank 0, behind node 0
        assert!(ordered_at(&mut dir, 9).is_empty(), "still in flight");
        assert_eq!(dir.pending(), 3);
        // At arrival, both banks order in parallel — two per tick.
        let first = ordered_at(&mut dir, 10);
        assert_eq!(first.len(), 2);
        assert_eq!((first[0].requester, first[1].requester), (0, 1));
        assert!(ordered_at(&mut dir, 13).is_empty(), "banks busy until 14");
        let second = ordered_at(&mut dir, 14);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].requester, 2);
        assert_eq!(dir.ordered_count(), 3);
        assert!(dir.is_empty());
    }

    #[test]
    fn entry_transitions_mirror_the_snooping_ledger() {
        let mut dir = Directory::new(4, 1, 1, 0);
        // Cold GetS: exclusive grant, requester becomes owner.
        let g = req(0, 7, BusReqKind::GetS);
        let d = dir.peek_order(&g).rule;
        assert_eq!((d.supplier, d.other_sharers), (None, false));
        dir.commit_order(&g);
        assert_eq!(dir.owner(LineAddr(7)), Some(0));
        assert!(dir.sharers(LineAddr(7)).contains(0));
        // Second reader: owner supplies and keeps ownership.
        let g1 = req(1, 7, BusReqKind::GetS);
        let d = dir.peek_order(&g1);
        assert_eq!((d.rule.supplier, d.rule.other_sharers), (Some(0), true));
        assert!(d.targets.contains(0) && d.targets.contains(1));
        assert!(!d.targets.contains(2), "GetS is directed, not broadcast");
        dir.commit_order(&g1);
        assert_eq!(dir.owner(LineAddr(7)), Some(0));
        assert_eq!(dir.sharers(LineAddr(7)).len(), 2);
        // Writer: every registered sharer is targeted, ownership moves,
        // the sharer vector collapses to the writer.
        let x = req(2, 7, BusReqKind::GetX);
        let d = dir.peek_order(&x);
        assert_eq!(d.rule.supplier, Some(0));
        for n in [0, 1, 2] {
            assert!(d.targets.contains(n), "node {n} targeted");
        }
        dir.commit_order(&x);
        assert_eq!(dir.owner(LineAddr(7)), Some(2));
        assert_eq!(dir.sharers(LineAddr(7)).iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn writeback_retirement_clears_the_writer() {
        let mut dir = Directory::new(4, 1, 1, 0);
        dir.commit_order(&req(3, 9, BusReqKind::GetX));
        dir.retire_writeback(LineAddr(9), 3);
        assert_eq!(dir.owner(LineAddr(9)), None);
        assert!(dir.sharers(LineAddr(9)).is_empty());
        // Retiring someone else's writeback never steals ownership.
        dir.commit_order(&req(1, 9, BusReqKind::GetX));
        dir.retire_writeback(LineAddr(9), 3);
        assert_eq!(dir.owner(LineAddr(9)), Some(1));
    }

    #[test]
    fn owner_is_always_a_sharer() {
        // The invariant the property wall leans on: any registered
        // owner appears in its own sharer vector.
        let mut dir = Directory::new(8, 2, 2, 5);
        let kinds = [BusReqKind::GetS, BusReqKind::GetX];
        for i in 0..40u64 {
            let r = req((i % 8) as usize, i % 5, kinds[(i % 2) as usize]);
            dir.commit_order(&r);
            for line in 0..5 {
                if let Some(o) = dir.owner(LineAddr(line)) {
                    assert!(dir.sharers(LineAddr(line)).contains(o));
                }
            }
        }
    }

    #[test]
    fn nack_annulment_leaves_the_entry_untouched() {
        let mut dir = Directory::new(4, 1, 1, 0);
        dir.commit_order(&req(0, 3, BusReqKind::GetX));
        // Peek for a conflicting request, then *don't* commit (NACK).
        let d = dir.peek_order(&req(1, 3, BusReqKind::GetX));
        assert_eq!(d.rule.supplier, Some(0));
        assert_eq!(dir.owner(LineAddr(3)), Some(0), "annulled request transfers nothing");
        assert_eq!(dir.sharers(LineAddr(3)).iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn next_order_cycle_tracks_flights_and_busy_banks() {
        let mut dir = Directory::new(4, 1, 4, 10);
        assert_eq!(dir.next_order_cycle(0), None, "idle directory never wakes");
        dir.send(0, req(0, 0, BusReqKind::GetS));
        dir.send(0, req(1, 0, BusReqKind::GetS));
        assert_eq!(dir.next_order_cycle(0), Some(10), "wake at arrival");
        assert_eq!(ordered_at(&mut dir, 10).len(), 1);
        // Second request queued behind the busy bank.
        assert_eq!(dir.next_order_cycle(10), Some(14), "wake at window expiry");
        assert_eq!(ordered_at(&mut dir, 14).len(), 1);
        assert_eq!(dir.next_order_cycle(14), None);
    }

    #[test]
    fn free_banks_order_in_bank_index_order_not_expiry_order() {
        let mut dir = Directory::new(4, 2, 4, 0);
        dir.send(0, req(0, 1, BusReqKind::GetS)); // bank 1, busy until 4
        assert_eq!(ordered_at(&mut dir, 0).len(), 1);
        dir.send(2, req(1, 0, BusReqKind::GetS)); // bank 0, busy until 6
        assert_eq!(ordered_at(&mut dir, 2).len(), 1);
        dir.send(3, req(2, 1, BusReqKind::GetS));
        dir.send(3, req(3, 0, BusReqKind::GetS));
        assert!(ordered_at(&mut dir, 3).is_empty(), "both banks busy");
        assert_eq!(dir.next_order_cycle(3), Some(4), "bank 1 frees first");
        // Bank 1's window expired first, but bank 0 orders first.
        let both = ordered_at(&mut dir, 10);
        assert_eq!(both.iter().map(|r| r.requester).collect::<Vec<_>>(), vec![3, 2]);
        assert_eq!(dir.next_order_cycle(10), None);
    }

    #[test]
    fn fault_hook_jitters_arrivals_but_drops_nothing() {
        use tlr_sim::fault::FaultConfig;
        let mut fair = Directory::new(4, 1, 1, 5);
        let mut chaos = Directory::new(4, 1, 1, 5);
        chaos.set_fault(FaultConfig::intensity(0x5eed, 4).net_fault());
        for i in 0..200u64 {
            fair.send(i, req((i % 4) as usize, i, BusReqKind::GetS));
            chaos.send(i, req((i % 4) as usize, i, BusReqKind::GetS));
        }
        let (mut fair_order, mut chaos_order) = (Vec::new(), Vec::new());
        for now in 0..600 {
            fair.tick_into(now, &mut fair_order);
            chaos.tick_into(now, &mut chaos_order);
        }
        assert_eq!(fair_order.len(), 200);
        assert_eq!(chaos_order.len(), 200, "jitter must not lose requests");
        assert!(chaos.fault_injections() > 0);
        let f: Vec<u64> = fair_order.iter().map(|r| r.line.0).collect();
        let c: Vec<u64> = chaos_order.iter().map(|r| r.line.0).collect();
        assert_ne!(f, c, "arrival order must actually change");
        assert_eq!(fair.fault_injections(), 0);
    }
}
