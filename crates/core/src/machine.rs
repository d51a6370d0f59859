//! The simulated multiprocessor machine.
//!
//! Assembles N [`Node`]s (core + L1 + victim cache + buffers + TLR
//! controller), the ordered broadcast address bus, the point-to-point
//! data network, and the shared L2/memory into the target system of
//! §5.3 / Table 2, and runs the TLR algorithm of Figure 3 on top of
//! the plain MOESI protocol:
//!
//! * lock elision at predicted store-conditionals (SLE),
//! * timestamped transactional misses,
//! * deferral of later-timestamp conflicting requests at the owner,
//! * marker/probe propagation along coherence chains (§3.1.1),
//! * the §3.2 single-block timestamp relaxation,
//! * resource-exhaustion fallback to actual lock acquisition (§3.3),
//! * restartable critical sections and de-scheduling (§4).
//!
//! One step kernel runs under one of two schedulers (the engine is
//! selected by [`tlr_sim::config::Engine`]): the cycle-stepped oracle,
//! which ticks every node every cycle, and the default discrete-event
//! engine, which jumps the clock straight to the next scheduled wake
//! and lazily charges idle-cycle statistics. Both are fully
//! deterministic for a given configuration and seed and produce
//! byte-identical statistics and traces (see `DESIGN.md` §12).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::sync::Arc;

use tlr_cpu::{AccessKind, Core, CoreStep, MemAccess, Op, Program};
use tlr_mem::addr::{Addr, LineAddr};
use tlr_mem::line::{CacheLine, Moesi};
use tlr_mem::mshr::{Intervention, Interventions, MshrEntry};
use tlr_mem::msg::{BusReqKind, BusRequest, DataGrant, NetMsg};
use tlr_mem::protocol;
use tlr_mem::timestamp::{Prio, Timestamp};
use tlr_mem::{MemorySystem, Network, NodeSet, WordHash};
use tlr_sim::config::{Engine, MachineConfig, UntimestampedPolicy};
use tlr_sim::fault::FaultPlan;
use tlr_sim::prof::{EngineProf, Gauges, Profiler, WakeSource};
use tlr_sim::trace::{Trace, TraceKind};
use tlr_sim::{Cycle, MachineStats, NodeId, NodeStats, SimRng};

use crate::fabric::Fabric;
use crate::node::{DeferredReq, Node, PendingWriteback, SnoopEvent, Wait};
use crate::policy::{policy_for, ConflictPolicy, RetryEnv, RetryPacing};
use crate::sle::{AbortKind, ElidedLock, Txn};

/// Cycles an [`tlr_cpu::Op::Io`] operation takes outside speculation.
const IO_LATENCY: u64 = 30;

/// Error returned when a run exceeds the configured cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTimeout {
    /// The cycle at which the run was abandoned.
    pub cycle: Cycle,
}

impl std::fmt::Display for SimTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation did not quiesce within {} cycles", self.cycle)
    }
}

impl std::error::Error for SimTimeout {}

/// Machine-global context threaded through the controller logic so a
/// node can be mutated while the shared structures stay reachable.
struct Ctx<'a> {
    cfg: &'a MachineConfig,
    now: Cycle,
    net: &'a mut Network<NetMsg>,
    memsys: &'a mut MemorySystem,
    fabric: &'a mut Fabric,
    stats: &'a mut MachineStats,
    trace: &'a mut Trace,
    rng: &'a mut SimRng,
    lock_addrs: &'a HashSet<Addr, WordHash>,
    /// The conflict-resolution policy every decision point consults
    /// (stateless; resolved once from `cfg.policy`).
    policy: &'static dyn ConflictPolicy,
    /// Spurious-abort stream, present only on chaos runs; its own RNG,
    /// so the machine's `rng` sequences are untouched by fault draws.
    fault: Option<&'a mut FaultPlan>,
    /// Whether the node tick in progress has charged its cycle to a
    /// category ([`Ctx::charge`]); [`tick_node`] clears and reads it.
    charged: bool,
}

impl Ctx<'_> {
    fn data_latency(&mut self) -> u64 {
        self.cfg.latency.data_network + self.rng.below(self.cfg.latency_jitter + 1)
    }

    fn ts_bits(&self) -> u32 {
        self.cfg.timestamp_bits
    }

    /// Whether the chaos layer annuls the open transaction at this
    /// node-cycle. `false` (without advancing anything) when faults
    /// are off.
    fn fault_fires_spurious_abort(&mut self) -> bool {
        self.fault.as_mut().is_some_and(|f| f.spurious_abort_fires())
    }

    /// Charges this tick's cycle of node `id` to one cycle category.
    fn charge(&mut self, id: NodeId, category: impl FnOnce(&mut NodeStats) -> &mut u64) {
        *category(self.stats.node_mut(id)) += 1;
        self.charged = true;
    }
}

/// What one cycle of an idle node would have charged to its stats had
/// the cycle-stepped engine ticked it. The event engine caches this at
/// classification time and settles `charge x window` on wake, so the
/// per-node cycle breakdown stays byte-identical to the stepped run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleCharge {
    /// No counter moves (paused nodes).
    Nothing,
    /// `done_cycles` (finished thread waiting for the others).
    Done,
    /// `data_stall_cycles`.
    DataStall,
    /// `lock_stall_cycles`.
    LockStall,
    /// `store_buffer_full_cycles`.
    SbFull,
    /// `commit_wait_cycles` (committing, write set not yet writable).
    CommitWait,
}

/// The two schedulers of the one step kernel ([`Machine::step_to`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheduler {
    /// The cycle-stepped oracle ([`Machine::step`]): nodes are never
    /// re-classified after their tick, so all stay `Active` and every
    /// node runs every cycle.
    EveryNode,
    /// The event engine ([`Machine::advance_within`]): each live node
    /// is re-classified after its tick and may park until a wake.
    WokenSet,
}

/// The event engine's per-node schedule state.
///
/// A node is `Active` when its next tick can make progress (execute an
/// instruction, drain a buffer, issue or retry a request, draw fault
/// randomness) and must therefore run every cycle, exactly as under
/// the cycle-stepped engine. It is `Idle` when its tick is provably a
/// pure stall-accounting no-op until some external event (a fill, a
/// snoop, a timer) arrives; such cycles are skipped and their charge
/// settled lazily. Misclassifying toward `Active` is always safe — a
/// live tick replicates the stepped engine bit for bit — so every
/// uncertain case classifies as `Active`.
#[derive(Debug, Clone, Copy)]
enum NodeSched {
    /// Ticks every cycle.
    Active,
    /// Skipped until woken; `since` is the last cycle this node ran.
    Idle {
        /// Idle charges are settled through this cycle already.
        since: Cycle,
        /// Per-cycle stat charge for the skipped window.
        charge: IdleCharge,
        /// Self-wake deadline (restart penalty, I/O completion), if
        /// any; external events may wake the node sooner.
        timer: Option<Cycle>,
    },
    /// Fast-forwarded spin loop (`load` from a resident line whose
    /// value keeps a backward branch taken): the node is executing,
    /// but every iteration's effect is a fixed counter delta, so the
    /// skipped ticks are replayed arithmetically on wake. The loop can
    /// only exit when the spun-on line changes, and any such change
    /// arrives as a snoop or delivery — a wake.
    Spin {
        /// Charges are settled through this cycle already.
        since: Cycle,
        /// The per-iteration deltas proven at detection time.
        info: SpinInfo,
    },
}

/// Per-iteration facts about a detected spin loop, captured when the
/// node enters [`NodeSched::Spin`]. See [`Machine::detect_spin`] for
/// the proof obligations.
#[derive(Debug, Clone, Copy)]
struct SpinInfo {
    /// Whether the virtual tick at `since + 1` executes the load
    /// (`true`) or the backward branch (`false`); subsequent ticks
    /// alternate.
    next_is_load: bool,
    /// The spun-on address is a lock variable: the load tick charges
    /// `lock_busy_cycles` instead of `busy_cycles`.
    is_lock: bool,
    /// The line is resident in the victim cache, so each load also
    /// counts a `victim_hits`.
    victim_hit: bool,
    /// The spun-on line, for replaying the predictor's load history.
    line: LineAddr,
    /// Program counter of the load instruction (the branch is at
    /// `load_pc + 1`).
    load_pc: u32,
}

/// The node state an `Idle` class rests on, as far as a snoop can
/// change it. A parked `Idle` node whose key a snoop left unchanged
/// keeps its class and settle window: a snoop never makes a line
/// writable and never retires an MSHR, so the buffer probes the class
/// was proved with ([`sb_drain_idle`], [`pending_x_idle`], commit
/// readiness) can only stay true, and every other input of
/// [`Machine::classify`] is in the key. The node's armed deadlines
/// ([`Machine::wake_deadlines`]) also stay valid: the timer comes from
/// the class, done and paused are in the key, and a snoop never
/// schedules or cancels NACK retries (`nack_retries` changes only in
/// a NACK delivery and the live tick's retry pass), which is why
/// `nack_retries` is not in the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedKey {
    done: bool,
    done_at: bool,
    paused: bool,
    /// `None` outside a transaction, else whether it is committing.
    txn: Option<bool>,
    wait: Option<Wait>,
    stall_until: Cycle,
    sb: usize,
    mshrs: usize,
    pending_x: usize,
}

impl SchedKey {
    fn of(node: &Node) -> Self {
        SchedKey {
            done: node.core.is_done(),
            done_at: node.done_at.is_some(),
            paused: node.paused,
            txn: node.txn.as_ref().map(|t| t.committing),
            wait: node.wait,
            stall_until: node.stall_until,
            sb: node.sb.len(),
            mshrs: node.mshrs.len(),
            pending_x: node.txn_pending_x.len(),
        }
    }
}

/// A node a due snoop involves, by its schedule class going in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touched {
    /// Ticks this cycle anyway.
    Live,
    /// Parked `Idle`. If it still says so after the snoop, the snoop
    /// changed its [`SchedKey`]: it is settled and re-classified.
    Idle,
    /// Parked `Idle` and the snoop left its [`SchedKey`] alone: it
    /// keeps its class and settle window.
    Kept,
    /// Parked in a spin loop: the snoop may change the spun line's
    /// value or LRU position, so it is settled and re-classified.
    Spin,
}

/// Whether draining the store buffer is provably a no-op: nothing
/// buffered, or the head store's fill is already in flight (the drain
/// returns without touching the bus, caches, or RNG until that fill
/// lands — a wake event).
fn sb_drain_idle(node: &Node) -> bool {
    let Some((addr, _)) = node.sb.head() else { return true };
    let line = addr.line();
    let writable = node.line(line).is_some_and(|l| l.state.writable());
    !writable && node.mshrs.get(line).is_some()
}

/// Whether retrying pending transactional exclusive upgrades is
/// provably a no-op: every pending line is still unwritable with its
/// fill in flight, so the retry requeues them unchanged.
fn pending_x_idle(node: &Node) -> bool {
    node.txn_pending_x.iter().all(|&line| {
        !node.line(line).is_some_and(|l| l.state.writable()) && node.mshrs.get(line).is_some()
    })
}

/// The wake source each per-node deadline slot reports, in the order
/// the full scan considered them (idle timer before NACK retry).
const DEADLINE_SOURCES: [WakeSource; 2] = [WakeSource::IdleTimer, WakeSource::RetryTimer];

/// A node's self-wake deadlines: `[idle timer, NACK retry]`.
type NodeDeadlines = [Option<Cycle>; 2];

/// The event engine's index of self-wake deadlines: a min-heap of
/// `(cycle, node, slot, generation)` with lazy invalidation, the
/// delayed-delivery queue idiom. Re-arming a node bumps its
/// generation, which turns every older entry of that node stale;
/// stale entries are dropped when they surface at the top (or in bulk
/// once they outnumber the live ones). Only `Idle` nodes have armed
/// deadlines, so the live minimum is exactly the earliest timer the
/// old full scan over `sched` found.
#[derive(Debug)]
struct Deadlines {
    heap: BinaryHeap<Reverse<(Cycle, usize, usize, u64)>>,
    /// Per node: the currently armed deadlines and their generation.
    armed: Vec<(NodeDeadlines, u64)>,
}

impl Deadlines {
    fn new(nodes: usize) -> Self {
        Deadlines { heap: BinaryHeap::new(), armed: vec![([None, None], 0); nodes] }
    }

    fn is_live(&self, &Reverse((_, i, _, generation)): &Reverse<(Cycle, usize, usize, u64)>) -> bool {
        self.armed[i].1 == generation
    }

    /// Re-arms node `i`. A no-op when the deadlines are unchanged, so
    /// re-classifying a parked node into the same state costs nothing.
    fn arm(&mut self, i: usize, deadlines: NodeDeadlines) {
        let slot = &mut self.armed[i];
        if slot.0 == deadlines {
            return;
        }
        *slot = (deadlines, slot.1 + 1);
        let generation = slot.1;
        for (k, c) in deadlines.into_iter().enumerate() {
            if let Some(c) = c {
                self.heap.push(Reverse((c, i, k, generation)));
            }
        }
        if self.heap.len() > 4 * self.armed.len() + 64 {
            let armed = &self.armed;
            self.heap.retain(|&Reverse((_, i, _, g))| armed[i].1 == g);
        }
    }

    /// Drops stale entries from the top, so `peek` sees a live one.
    fn prune(&mut self) {
        while self.heap.peek().is_some_and(|e| !self.is_live(e)) {
            self.heap.pop();
        }
    }

    /// The earliest armed deadline, unclamped.
    fn earliest(&mut self) -> Option<Cycle> {
        self.prune();
        self.heap.peek().map(|&Reverse((c, ..))| c)
    }

    /// Pops the next node with an armed deadline at or before `now`.
    /// A node armed in both slots may come out twice; callers make it
    /// live, which disarms it, so the second entry is stale by then.
    fn pop_due(&mut self, now: Cycle) -> Option<usize> {
        self.prune();
        let &Reverse((c, i, ..)) = self.heap.peek()?;
        (c <= now).then(|| {
            self.heap.pop();
            i
        })
    }

    /// The earliest deadline clamped to `floor`, with the source the
    /// full scan would have reported: among equal clamped cycles, the
    /// lowest node wins, its idle timer before its retry. The heap
    /// order gives that directly unless some deadline is overdue
    /// (below `floor`); every overdue deadline then clamps to `floor`
    /// and the winner is searched among them.
    fn next_wake(&mut self, floor: Cycle) -> Option<(Cycle, WakeSource)> {
        self.prune();
        let &Reverse((c, _, k, _)) = self.heap.peek()?;
        if c >= floor {
            return Some((c, DEADLINE_SOURCES[k]));
        }
        let (_, k) = self
            .heap
            .iter()
            .filter(|e| self.is_live(e))
            .filter_map(|&Reverse((c, i, k, _))| (c <= floor).then_some((i, k)))
            .min()
            .expect("the live top is overdue");
        Some((floor, DEADLINE_SOURCES[k]))
    }
}

/// The simulated multiprocessor.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    cycle: Cycle,
    nodes: Vec<Node>,
    /// The ordering point: the snooping bus or the home directory.
    fabric: Fabric,
    net: Network<NetMsg>,
    memsys: MemorySystem,
    stats: MachineStats,
    trace: Trace,
    rng: SimRng,
    lock_addrs: HashSet<Addr, WordHash>,
    /// The conflict-resolution policy (stateless, shared static),
    /// resolved from `cfg.policy` at construction.
    policy: &'static dyn ConflictPolicy,
    /// Spurious-abort fault stream; `None` unless chaos is enabled.
    fault: Option<FaultPlan>,
    /// Snooped bus transactions awaiting their due cycle. One global
    /// queue: snoops are broadcast, so every node observes the same
    /// events at the same cycles; the per-node `supplier` designation
    /// lives in the event itself.
    snoops: VecDeque<SnoopEvent>,
    /// Event-engine schedule state per node. Stays all-`Active` under
    /// [`Machine::step`], which makes the lazy settling a no-op there.
    /// Written only through [`Machine::set_sched`], which keeps
    /// `active` and `deadlines` in step with it.
    sched: Vec<NodeSched>,
    /// The nodes whose `sched` is `Active`, in index order.
    active: NodeSet,
    /// The armed self-wake deadlines of `Idle` nodes.
    deadlines: Deadlines,
    /// Nodes the ordering point or a delivery touched this step, in
    /// touch order; `woken_set` mirrors it for O(1) dedup. Emptied by
    /// the step's promotion, one member at a time.
    woken: Vec<usize>,
    woken_set: NodeSet,
    /// Scratch: this cycle's network deliveries (capacity reuse).
    net_scratch: Vec<NetMsg>,
    /// Scratch: this cycle's ordered requests (capacity reuse).
    order_scratch: Vec<BusRequest>,
    /// Scratch: the nodes ticking this step or burst (capacity reuse).
    live_scratch: Vec<usize>,
    /// Scratch: the nodes involved in the snoop being processed, each
    /// with its class going in (capacity reuse).
    snoop_touch: Vec<(usize, Touched)>,
    /// Every node below this index has a finished core: the
    /// quiescence check's early-out. Cores never un-finish, so it
    /// only moves forward (amortized O(1) per check).
    quiesce_cursor: Cell<usize>,
    /// Engine self-profiling counters (steps, live ticks, closed-form
    /// settle and burst usage). Plain u64 adds on paths that already
    /// do bookkeeping, so they stay unconditional; moved into the
    /// profiler by [`Machine::take_profile`].
    engine: EngineProf,
    /// The profiler, present only when [`tlr_sim::prof::ProfConfig`]
    /// enables it; `None` costs one pointer test per step.
    prof: Option<Box<Profiler>>,
}

impl Machine {
    /// Builds a machine running one program per processor.
    ///
    /// `lock_addrs` is the set of lock-variable addresses, used only
    /// for the Figure 11 stall attribution — the hardware itself never
    /// consults it.
    ///
    /// # Panics
    ///
    /// Panics if the number of programs differs from
    /// `cfg.num_procs`, or the configured line size is not 64 bytes.
    pub fn new(cfg: MachineConfig, programs: Vec<Arc<Program>>, lock_addrs: HashSet<Addr>) -> Self {
        assert_eq!(programs.len(), cfg.num_procs, "one program per processor required");
        assert_eq!(cfg.line_bytes(), tlr_mem::LINE_BYTES, "line size fixed at 64 bytes");
        assert!(
            cfg.num_procs <= cfg.interconnect.max_procs(),
            "{} processors exceed the {} interconnect's supported maximum of {} \
             (use Interconnect::Directory for larger machines)",
            cfg.num_procs,
            cfg.interconnect.label(),
            cfg.interconnect.max_procs(),
        );
        let mut rng = SimRng::new(cfg.seed);
        let nodes = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Node::new(i, Core::new(p, rng.fork(i as u64)), &cfg))
            .collect::<Vec<_>>();
        let mut stats = MachineStats::new(cfg.num_procs);
        let fabric = Fabric::new(&cfg);
        let dir_banks = fabric.banks();
        // Every node starts `Active`.
        let mut active = NodeSet::new(cfg.num_procs);
        for i in 0..cfg.num_procs {
            active.insert(i);
        }
        stats.dir.banks = dir_banks as u64;
        let mut net = Network::new();
        if cfg.faults.enabled {
            net.set_fault(cfg.faults.net_fault());
            // Capacity squeezes are static configuration; record what
            // was withheld so degradation curves can report it.
            for i in 0..cfg.num_procs {
                stats.faults.victim_entries_withheld += (cfg.victim_entries
                    - cfg.faults.effective_victim_entries(i, cfg.victim_entries))
                    as u64;
                stats.faults.write_buffer_lines_withheld += (cfg.write_buffer_lines
                    - cfg.faults.effective_write_buffer_lines(i, cfg.write_buffer_lines))
                    as u64;
                stats.faults.deferral_entries_withheld += (cfg.deferred_queue_entries
                    - cfg.faults.effective_deferred_queue_entries(i, cfg.deferred_queue_entries))
                    as u64;
            }
        }
        Machine {
            fabric,
            net,
            memsys: MemorySystem::new(cfg.l2_sets, cfg.l2_ways, cfg.latency.l2, cfg.latency.memory),
            stats,
            trace: Trace::new(),
            rng,
            lock_addrs: lock_addrs.into_iter().collect(),
            policy: policy_for(cfg.policy),
            nodes,
            cycle: 0,
            fault: cfg.faults.plan(),
            sched: vec![NodeSched::Active; cfg.num_procs],
            active,
            deadlines: Deadlines::new(cfg.num_procs),
            snoops: VecDeque::new(),
            woken: Vec::new(),
            woken_set: NodeSet::new(cfg.num_procs),
            net_scratch: Vec::new(),
            order_scratch: Vec::new(),
            live_scratch: Vec::new(),
            snoop_touch: Vec::new(),
            quiesce_cursor: Cell::new(0),
            engine: EngineProf::default(),
            prof: cfg.profile.profiler().map(|mut p| {
                p.bus_occupancy = cfg.latency.bus_occupancy;
                p.dir_banks = dir_banks;
                p
            }),
            cfg,
        }
    }

    /// Writes one word of the initial memory image.
    pub fn init_word(&mut self, addr: Addr, val: u64) {
        self.memsys.init_word(addr, val);
    }

    /// Enables event tracing (used by the worked-example tests).
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
    }

    /// Enables event tracing with a bounded ring capacity (`tlr-trace`
    /// and long fuzz runs).
    pub fn enable_trace_with_capacity(&mut self, capacity: usize) {
        self.trace = Trace::enabled_with_capacity(capacity);
    }

    /// Reconstructs the transaction-span view of the event trace.
    pub fn span_log(&self) -> tlr_sim::SpanLog {
        tlr_sim::SpanLog::build(&self.trace)
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Run statistics collected so far.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Sets an initial register of one core (harnesses pass per-thread
    /// parameters this way).
    pub fn set_reg(&mut self, node: NodeId, reg: tlr_cpu::Reg, val: u64) {
        self.nodes[node].core.set_reg(reg, val);
    }

    /// Reads a register of one core (tests and demos).
    pub fn reg(&self, node: NodeId, reg: tlr_cpu::Reg) -> u64 {
        self.nodes[node].core.reg(reg)
    }

    /// Whether node `id` is currently executing a speculative
    /// lock-free transaction.
    pub fn in_txn(&self, id: NodeId) -> bool {
        self.nodes[id].txn.is_some()
    }

    /// Whether node `id`'s thread has finished.
    pub fn is_done(&self, id: NodeId) -> bool {
        self.nodes[id].core.is_done()
    }

    /// Whether every thread has finished and the memory system is
    /// idle. O(1) amortized while some thread still runs.
    pub fn is_quiesced(&self) -> bool {
        let mut first_running = self.quiesce_cursor.get();
        while self.nodes.get(first_running).is_some_and(|n| n.core.is_done()) {
            first_running += 1;
        }
        self.quiesce_cursor.set(first_running);
        if first_running < self.nodes.len() {
            return false;
        }
        self.nodes.iter().all(|n| {
            n.core.is_done()
                && n.sb.is_empty()
                && n.mshrs.is_empty()
                && n.pending_wb.is_empty()
                && n.deferred.is_empty()
                && n.nack_retries.is_empty()
                && n.txn.is_none()
        }) && self.fabric.pending() == 0
            && self.net.is_empty()
            && self.snoops.is_empty()
    }

    /// Runs until quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimTimeout`] if the configured `max_cycles` budget is
    /// exhausted first (livelock would show up here; TLR's guarantees
    /// make that a bug, and the integration tests rely on it).
    pub fn run(&mut self) -> Result<(), SimTimeout> {
        while !self.is_quiesced() {
            if self.cycle >= self.cfg.max_cycles {
                // The oracle charged idle nodes through the final
                // cycle before giving up; settle to match.
                self.settle_idle_charges();
                return Err(SimTimeout { cycle: self.cycle });
            }
            self.advance(self.cfg.max_cycles);
        }
        self.settle_idle_charges();
        self.finalize_stats();
        Ok(())
    }

    /// One advance under the configured engine, never past `bound`:
    /// [`Machine::step`] for the cycle-stepped oracle,
    /// [`Machine::advance_within`] for the event engine. The only place
    /// the engine choice is made.
    pub(crate) fn advance(&mut self, bound: Cycle) {
        match self.cfg.engine {
            Engine::CycleStepped => self.step(),
            Engine::EventDriven => self.advance_within(bound),
        }
    }

    /// One event-engine advance: jumps to the earliest scheduled wake,
    /// clamped to `bound` (external driver loops — preemption, cycle
    /// budgets — pass the next cycle at which *they* must intervene).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `bound` is not in the future.
    pub fn advance_within(&mut self, bound: Cycle) {
        debug_assert!(bound > self.cycle, "advance bound must be in the future");
        let next = self.next_event_cycle();
        #[cfg(debug_assertions)]
        self.audit_schedule(next);
        let target = next.map_or(bound, |(t, _)| t.min(bound)).max(self.cycle + 1);
        if let Some(p) = self.prof.as_deref_mut() {
            p.engine.record_wake(match next {
                Some((t, src)) if t <= bound => src,
                _ => WakeSource::Bound,
            });
        }
        self.step_to(target, Scheduler::WokenSet);
        self.burst_within(bound);
        self.maybe_sample();
    }

    /// Burst mode: after a full step, as long as the only runnable
    /// components are `Active` nodes — no due snoop, idle timer, NACK
    /// retry, bus arbitration, or delivery anywhere before a horizon —
    /// tick just those nodes cycle by cycle without the per-step
    /// machinery (wake bookkeeping, bus/network polls, snoop scans).
    /// This is where the event engine wins on compute phases: a lone
    /// lock holder grinding through its critical section costs one
    /// core tick per cycle instead of a full machine sweep.
    ///
    /// Soundness: snoops and deliveries are only created at the bus
    /// ordering point and on the data network, and both are quiet
    /// below the horizon — so sleeping nodes cannot gain new wake
    /// sources and their cached classes stay valid. Active nodes may
    /// enqueue bus requests or send messages, which is why the bus and
    /// network horizons are re-polled every burst cycle. Nodes that
    /// classify out of `Active` fold their fresh timers into the
    /// horizon and drop from the set; nodes can only *join* the active
    /// set through a wake, which ends the burst.
    fn burst_within(&mut self, bound: Cycle) {
        // Cheap bail-outs first: this runs after every step, and in
        // bus- or network-saturated phases the next cycle always has
        // machine-level work, so the scan below would be wasted.
        if self.cycle + 1 >= bound
            || self.fabric.pending() > 0
            || self.net.next_ready().is_some_and(|c| c <= self.cycle + 2)
        {
            return;
        }
        // The step just run may have finished the last thread: the
        // driver loop stops at quiescence, so no burst cycle may follow.
        if self.is_quiesced() {
            return;
        }
        // Fault-injection tracing records per-cycle injection deltas in
        // `step_to`'s epilogue; burst cycles would misplace them.
        if self.cfg.faults.enabled && self.trace.is_enabled() {
            return;
        }
        let mut active = std::mem::take(&mut self.live_scratch);
        active.clear();
        active.extend(self.active.iter());
        if active.is_empty() {
            self.live_scratch = active;
            return;
        }
        let (burst_from, ticks_before) = (self.cycle, self.engine.live_ticks);
        // The passive horizon: the snoop queue is FIFO in due cycle
        // and cannot grow during the burst, and sleeping nodes' timers
        // cannot move, so this part is computed once.
        let mut horizon = bound;
        if let Some(ev) = self.snoops.front() {
            horizon = horizon.min(ev.due);
        }
        if let Some(t) = self.deadlines.earliest() {
            horizon = horizon.min(t);
        }
        loop {
            let mut h = horizon;
            if let Some((c, _)) = self.fabric.next_order_cycle(self.cycle) {
                h = h.min(c);
            }
            if let Some(c) = self.net.next_ready() {
                h = h.min(c.max(self.cycle + 1));
            }
            let next = self.cycle + 1;
            if next >= h {
                break;
            }
            self.cycle = next;
            self.engine.steps += 1;
            // A core finishing may complete quiescence; the driver
            // loop checks that between advances, so the burst must
            // yield before running any further cycle.
            self.engine.live_ticks += active.len() as u64;
            let finished = self.with_ctx(|nodes, ctx| {
                let mut finished = false;
                for &i in &active {
                    tick_node(&mut nodes[i], ctx);
                    let n = &nodes[i];
                    finished |= n.core.is_done() && n.done_at.is_none();
                }
                finished
            });
            let mut w = 0;
            for k in 0..active.len() {
                let i = active[k];
                if matches!(self.reclassify(i, self.cycle), NodeSched::Active) {
                    active[w] = i;
                    w += 1;
                } else if let Some(t) = self.deadlines.armed[i].0.into_iter().flatten().min() {
                    horizon = horizon.min(t);
                }
            }
            active.truncate(w);
            if active.is_empty() || finished {
                break;
            }
        }
        if self.cycle > burst_from {
            self.engine.burst_entries += 1;
            self.engine.burst_cycles += self.cycle - burst_from;
            self.engine.burst_ticks += self.engine.live_ticks - ticks_before;
        }
        self.live_scratch = active;
    }

    /// Settles cached idle charges through the current cycle for every
    /// idle node. Event-engine exit paths (quiescence, timeout, and
    /// external driver loops such as [`crate::os::run_preemptive`])
    /// must call this before reading [`Machine::stats`]; under the
    /// cycle-stepped engine it is a no-op.
    pub fn settle_idle_charges(&mut self) {
        for i in 0..self.nodes.len() {
            self.settle_through(i, self.cycle);
        }
    }

    /// The earliest cycle at which anything in the machine can make
    /// progress — tagged with the wake source that pins it, for the
    /// profiler's wake histogram — or `None` when no wake is scheduled
    /// (then the run is either quiesced or timed out). Ties keep the
    /// first source considered, so the attribution is deterministic.
    /// O(log deadlines): the active set and the deadline heap stand in
    /// for a scan over every node.
    fn next_event_cycle(&mut self) -> Option<(Cycle, WakeSource)> {
        let floor = self.cycle + 1;
        // Any active node forces a step at the very next cycle; no
        // other source can schedule anything earlier.
        if !self.active.is_empty() {
            return Some((floor, WakeSource::ActiveFloor));
        }
        let mut next: Option<(Cycle, WakeSource)> = None;
        let mut consider = |c: Cycle, src: WakeSource| {
            let c = c.max(floor);
            if next.is_none_or(|(n, _)| c < n) {
                next = Some((c, src));
            }
        };
        if let Some((c, src)) = self.fabric.next_order_cycle(self.cycle) {
            consider(c, src);
        }
        if let Some(c) = self.net.next_ready() {
            consider(c, WakeSource::Network);
        }
        // Snoops process unconditionally (phase 3 runs even for done
        // and paused nodes), and wake a spinner's only exit path.
        if let Some(ev) = self.snoops.front() {
            consider(ev.due, WakeSource::SnoopFront);
        }
        // Per-node timers come last, exactly as the node scan did; a
        // spinner has none (only a snoop or a delivery ends a spin).
        if let Some((c, src)) = self.deadlines.next_wake(floor) {
            consider(c, src);
        }
        next
    }

    /// Node `i`'s self-wake deadlines under schedule state `s`: an
    /// `Idle` node's timer, and its earliest NACK retry. Retries only
    /// fire inside a live tick, which done and paused nodes never
    /// reach — waking them for a retry would spin to no effect.
    fn wake_deadlines(&self, i: usize, s: &NodeSched) -> NodeDeadlines {
        let NodeSched::Idle { timer, .. } = *s else { return [None, None] };
        let n = &self.nodes[i];
        let retry = if n.core.is_done() || n.paused { None } else { n.nack_retries.next_due() };
        [timer, retry]
    }

    /// The single write path for `sched[i]`: keeps the active set and
    /// the deadline heap in step with the node's new class. Every
    /// change to a node's timers, retries, done or paused state
    /// happens in a live tick, a snoop, a delivery or ordering-point
    /// visit (both wake the node), or an external touch. Each of those
    /// ends here, except a snoop that leaves a parked `Idle` node's
    /// [`SchedKey`] alone: its timer, done and paused inputs are in
    /// the key, and a snoop never schedules or cancels NACK retries
    /// (only a NACK delivery and the live tick's retry pass do), so
    /// the node's armed deadlines still hold. Either way they never go
    /// stale.
    fn set_sched(&mut self, i: usize, s: NodeSched) {
        if matches!(s, NodeSched::Active) {
            self.active.insert(i);
        } else {
            self.active.remove(i);
        }
        let deadlines = self.wake_deadlines(i, &s);
        self.deadlines.arm(i, deadlines);
        self.sched[i] = s;
    }

    /// Classifies node `i` (see [`Machine::classify`]) and records the
    /// result through [`Machine::set_sched`]. A node that stays
    /// `Active` is already in the active set with nothing armed, so
    /// that common case writes nothing.
    fn reclassify(&mut self, i: usize, anchor: Cycle) -> NodeSched {
        let s = self.classify(i, anchor);
        if !matches!((s, self.sched[i]), (NodeSched::Active, NodeSched::Active)) {
            self.set_sched(i, s);
        }
        s
    }

    /// Marks node `i` for promotion in the current step (the ordering
    /// point or a delivery mutated it).
    fn wake(&mut self, i: usize) {
        if self.woken_set.insert(i) {
            self.woken.push(i);
        }
    }

    /// Debug cross-check of the incremental schedule: the active set,
    /// every node's armed deadlines and the next wake `incremental`
    /// must equal what a full scan over `sched` and the nodes computes,
    /// and every parked `Idle` node must re-classify to its cached
    /// charge and timer (snoops that leave its [`SchedKey`] alone do
    /// not re-classify it).
    #[cfg(debug_assertions)]
    fn audit_schedule(&self, incremental: Option<(Cycle, WakeSource)>) {
        let floor = self.cycle + 1;
        let mut next: Option<(Cycle, WakeSource)> = None;
        let mut consider = |c: Cycle, src: WakeSource| {
            let c = c.max(floor);
            if next.is_none_or(|(n, _)| c < n) {
                next = Some((c, src));
            }
        };
        if self.sched.iter().any(|s| matches!(s, NodeSched::Active)) {
            consider(floor, WakeSource::ActiveFloor);
        }
        if let Some((c, src)) = self.fabric.next_order_cycle(self.cycle) {
            consider(c, src);
        }
        if let Some(c) = self.net.next_ready() {
            consider(c, WakeSource::Network);
        }
        if let Some(ev) = self.snoops.front() {
            consider(ev.due, WakeSource::SnoopFront);
        }
        for (i, (s, n)) in self.sched.iter().zip(&self.nodes).enumerate() {
            // Written out rather than via `wake_deadlines`, so the
            // audit does not share the logic it checks.
            let deadlines = match *s {
                NodeSched::Idle { since, charge, timer } => {
                    match self.classify(i, since) {
                        NodeSched::Idle { charge: c, timer: t, .. } => assert!(
                            (c, t) == (charge, timer),
                            "node {i}: cached idle class {charge:?}/{timer:?} is stale \
                             ({c:?}/{t:?}) at cycle {}",
                            self.cycle
                        ),
                        fresh => panic!(
                            "node {i}: parked idle but classifies {fresh:?} at cycle {}",
                            self.cycle
                        ),
                    }
                    [timer, (!n.core.is_done() && !n.paused).then(|| n.nack_retries.next_due()).flatten()]
                }
                _ => [None, None],
            };
            assert_eq!(
                self.active.contains(i),
                matches!(s, NodeSched::Active),
                "node {i}: active set disagrees with sched {s:?} at cycle {}",
                self.cycle
            );
            assert_eq!(
                self.deadlines.armed[i].0, deadlines,
                "node {i}: armed deadlines are stale at cycle {}",
                self.cycle
            );
            for (c, src) in deadlines.into_iter().zip(DEADLINE_SOURCES) {
                if let Some(c) = c {
                    consider(c, src);
                }
            }
        }
        assert_eq!(incremental, next, "incremental next wake disagrees with the full scan");
    }

    /// Settles node `i`'s cached idle charge (or fast-forwards its
    /// spin loop) for the skipped window up to and including
    /// `through`. No-op for active nodes.
    fn settle_through(&mut self, i: usize, through: Cycle) {
        match self.sched[i] {
            NodeSched::Active => {}
            NodeSched::Idle { since, charge, .. } => {
                if through <= since {
                    return;
                }
                let dt = through - since;
                self.engine.idle_settles += 1;
                self.engine.idle_settle_cycles += dt;
                let ns = self.stats.node_mut(i);
                match charge {
                    // A paused node's tick is a pure return; the
                    // skipped window is still elapsed time and the
                    // cycle-accounting identity needs it charged.
                    IdleCharge::Nothing => ns.paused_cycles += dt,
                    IdleCharge::Done => ns.done_cycles += dt,
                    IdleCharge::DataStall => ns.data_stall_cycles += dt,
                    IdleCharge::LockStall => ns.lock_stall_cycles += dt,
                    IdleCharge::SbFull => ns.store_buffer_full_cycles += dt,
                    IdleCharge::CommitWait => ns.commit_wait_cycles += dt,
                }
                if let NodeSched::Idle { since, .. } = &mut self.sched[i] {
                    *since = through;
                }
            }
            NodeSched::Spin { since, info } => {
                if through <= since {
                    return;
                }
                let w = through - since;
                self.engine.spin_settles += 1;
                self.engine.spin_settle_cycles += w;
                // Ticks alternate load/branch starting with
                // `info.next_is_load` at `since + 1`.
                let first = u64::from(info.next_is_load);
                let loads = (w + first) / 2;
                let branches = w - loads;
                // Parity of the tick at `through` decides where the
                // core resumes: after a load the branch is next
                // (pc = load_pc + 1), after a branch the load is
                // (pc = load_pc).
                let ends_on_load = if info.next_is_load { w % 2 == 1 } else { w % 2 == 0 };
                let pc = if ends_on_load { info.load_pc + 1 } else { info.load_pc };
                let node = &mut self.nodes[i];
                node.core.fast_forward(w, pc);
                node.rmw_pred.replay_spin_loads(info.load_pc, info.line, loads);
                let instructions = node.core.instructions;
                let ns = self.stats.node_mut(i);
                ns.loads += loads;
                ns.l1_hits += loads;
                if info.victim_hit {
                    ns.victim_hits += loads;
                }
                if info.is_lock {
                    ns.lock_busy_cycles += loads;
                } else {
                    ns.busy_cycles += loads;
                }
                ns.busy_cycles += branches;
                // Each skipped tick would have refreshed the committed
                // instruction count.
                ns.instructions = instructions;
                if let NodeSched::Spin { since, info } = &mut self.sched[i] {
                    *since = through;
                    info.next_is_load = !ends_on_load;
                }
            }
        }
    }

    /// Promotes node `i` to live for the current cycle: the skipped
    /// window ends at `cycle - 1` (this cycle's tick charges itself).
    fn make_live(&mut self, i: usize) {
        self.settle_through(i, self.cycle - 1);
        self.set_sched(i, NodeSched::Active);
    }

    /// An external driver mutated node `i` at the current cycle
    /// *between* steps (deschedule, kill, reschedule): settle the idle
    /// window through now and force the node live so the next step
    /// observes the change.
    fn external_touch(&mut self, i: usize) {
        self.settle_through(i, self.cycle);
        self.set_sched(i, NodeSched::Active);
    }

    /// Classifies node `i`, mirroring `node_tick`'s branch order
    /// exactly: each arm either proves the next tick is a pure
    /// stall-accounting no-op (idle, with the charge that tick would
    /// have made) or keeps the node live. See the [`NodeSched`] safety
    /// note: every uncertain case stays `Active`.
    ///
    /// `anchor` is the cycle through which the node's charges are
    /// already settled: the current cycle when classifying after a
    /// live tick, the previous cycle when re-classifying a sleeping
    /// node after lazily processing its due snoops (its tick at the
    /// current cycle was skipped and will be charged by settling).
    ///
    /// Most classifications follow a tick that executed an
    /// instruction, so the conclusive-`Active` test runs first (see
    /// [`Machine::surely_active`]); debug builds check it against the
    /// full branch walk.
    fn classify(&self, i: usize, anchor: Cycle) -> NodeSched {
        if self.surely_active(i) {
            debug_assert!(
                matches!(self.classify_full(i, anchor), NodeSched::Active),
                "node {i}: conclusive-Active test disagrees with classify at cycle {}",
                self.cycle
            );
            return NodeSched::Active;
        }
        self.classify_full(i, anchor)
    }

    /// Whether node `i` is `Active` by a short test: it runs (not done,
    /// not paused), waits on nothing (no wait record, stall expired, no
    /// committing transaction), and its next instruction cannot start
    /// a spin loop (the core is not ready, or the op is neither a load
    /// nor a branch). Every later arm of [`Machine::classify_full`]
    /// returns `Active` for such a node: the fault and buffer-probe
    /// arms only ever return `Active`, the commit, stall and wait arms
    /// are excluded, and [`Machine::detect_spin`] needs a ready core at
    /// a load or branch.
    fn surely_active(&self, i: usize) -> bool {
        let node = &self.nodes[i];
        let core = &node.core;
        if core.is_done()
            || node.paused
            || node.wait.is_some()
            || self.cycle < node.stall_until
            || node.txn.as_ref().is_some_and(|t| t.committing)
        {
            return false;
        }
        !core.is_ready()
            || !matches!(
                core.program().op(core.pc()),
                Some(Op::Load(..) | Op::Beq(..) | Op::Bne(..) | Op::Blt(..) | Op::Bge(..))
            )
    }

    /// The full classification walk behind [`Machine::classify`].
    fn classify_full(&self, i: usize, anchor: Cycle) -> NodeSched {
        let node = &self.nodes[i];
        let now = self.cycle;
        let idle = |charge, timer| NodeSched::Idle { since: anchor, charge, timer };
        let stall = |is_lock: bool| if is_lock { IdleCharge::LockStall } else { IdleCharge::DataStall };
        if node.core.is_done() {
            // First done tick records `done_at`; afterwards the tick
            // charges `done_cycles` and drains the store buffer.
            if node.done_at.is_none() || !sb_drain_idle(node) {
                return NodeSched::Active;
            }
            return idle(IdleCharge::Done, None);
        }
        if node.paused {
            return idle(IdleCharge::Nothing, None);
        }
        // Chaos runs draw one spurious-abort value per tick of a node
        // with an open non-committing transaction; skipping any such
        // tick would shift the fault stream.
        if self.fault.is_some() && node.txn.as_ref().is_some_and(|t| !t.committing) {
            return NodeSched::Active;
        }
        if !pending_x_idle(node) || !sb_drain_idle(node) {
            return NodeSched::Active;
        }
        if node.txn.as_ref().is_some_and(|t| t.committing) {
            let ready = node.txn_pending_x.is_empty()
                && node
                    .wb
                    .entries()
                    .iter()
                    .all(|e| node.line(e.line).is_some_and(|l| l.state.writable()));
            return if ready { NodeSched::Active } else { idle(IdleCharge::CommitWait, None) };
        }
        if now < node.stall_until {
            return idle(IdleCharge::DataStall, Some(node.stall_until));
        }
        match node.wait {
            None => match self.detect_spin(i) {
                Some(info) => NodeSched::Spin { since: anchor, info },
                None => NodeSched::Active,
            },
            Some(Wait::Fill { is_lock, .. }) => idle(stall(is_lock), None),
            Some(Wait::StoreBufFull) => {
                // `sb_drain_idle` held above, so the buffer cannot
                // shrink until the head's fill lands (a wake).
                if node.sb.is_full() {
                    idle(IdleCharge::SbFull, None)
                } else {
                    NodeSched::Active
                }
            }
            Some(Wait::MshrFull { is_lock }) => {
                if node.mshrs.is_full() {
                    idle(stall(is_lock), None)
                } else {
                    NodeSched::Active
                }
            }
            Some(Wait::Drain { is_lock }) => {
                if node.sb.is_empty() {
                    NodeSched::Active
                } else {
                    idle(stall(is_lock), None)
                }
            }
            Some(Wait::Commit) => NodeSched::Active,
            Some(Wait::Io { until }) => {
                if now >= until {
                    NodeSched::Active
                } else {
                    idle(IdleCharge::DataStall, Some(until))
                }
            }
        }
    }

    /// Tries to prove node `i` sits in a stable two-instruction wait
    /// loop — a plain `load` from a resident line followed by a
    /// conditional branch back to the load, taken as long as the
    /// loaded value holds (the test&test&set and MCS spin idioms).
    ///
    /// Such ticks execute real instructions, so they cannot be idled —
    /// but their effect is a fixed per-iteration counter delta, which
    /// [`Machine::settle_through`] replays arithmetically. The proof
    /// obligations, each checked here:
    ///
    /// * the node is otherwise quiescent: no transaction (so no chaos
    ///   draw), no wait record, empty store buffer / MSHRs / NACK
    ///   timers / pending upgrades — the pre-dispatch phases of
    ///   `node_tick` are no-ops and the loop draws no randomness and
    ///   records no trace events;
    /// * the loaded value equals the destination register already (a
    ///   register fixed point, so the branch outcome never changes);
    /// * the load is not load-linked (those arm the link register and
    ///   order against the store buffer);
    /// * skipped hits leave cache state unchanged: an L1 hit only
    ///   re-touches an already-MRU line and a victim hit never
    ///   reorders. (The RMW predictor's load history *does* change,
    ///   but identically-repeated loads saturate it, so settling
    ///   replays them exactly via `replay_spin_loads`.)
    ///
    /// The loop can then only exit when the spun-on line changes, and
    /// in an invalidation protocol every such change arrives as a
    /// snoop or delivery — a wake.
    fn detect_spin(&self, i: usize) -> Option<SpinInfo> {
        let node = &self.nodes[i];
        if node.txn.is_some()
            || node.wait.is_some()
            || !node.sb.is_empty()
            || !node.mshrs.is_empty()
            || !node.nack_retries.is_empty()
            || !node.txn_pending_x.is_empty()
            || !node.core.is_ready()
        {
            return None;
        }
        let prog = node.core.program();
        let pc = node.core.pc();
        // Anchor on the load: the core is either about to execute it
        // (post-branch) or about to execute the branch (post-load).
        let (load_pc, next_is_load) = match prog.op(pc) {
            Some(Op::Load(..)) => (pc, true),
            Some(Op::Beq(..) | Op::Bne(..) | Op::Blt(..) | Op::Bge(..)) if pc > 0 => {
                (pc - 1, false)
            }
            _ => {
                return None;
            }
        };
        let Some(Op::Load(rd, ra, off)) = prog.op(load_pc) else {
            return None;
        };
        let reg = |r| node.core.reg(r);
        let taken_target = match prog.op(load_pc + 1) {
            Some(Op::Beq(a, b, t)) if reg(a) == reg(b) => t,
            Some(Op::Bne(a, b, t)) if reg(a) != reg(b) => t,
            Some(Op::Blt(a, b, t)) if reg(a) < reg(b) => t,
            Some(Op::Bge(a, b, t)) if reg(a) >= reg(b) => t,
            _ => {
                return None;
            }
        };
        if taken_target != load_pc {
            return None;
        }
        let addr = Addr(reg(ra).wrapping_add(off as u64));
        let line = addr.line();
        let Some(l) = node.line(line) else {
            return None;
        };
        if reg(rd) != l.data.word(addr) {
            return None;
        }
        let victim_hit = !node.l1.contains(line);
        if !victim_hit && !node.l1.is_mru(line) {
            return None;
        }
        Some(SpinInfo {
            next_is_load,
            is_lock: self.lock_addrs.contains(&addr),
            victim_hit,
            line,
            load_pc,
        })
    }

    /// The step kernel: advances the machine to cycle `target` and
    /// runs the four phases (order, deliver, snoop, tick) for the live
    /// components. Nodes not live were classified idle and draw no
    /// randomness, record no events, and change no state — their
    /// skipped cycles are settled from the cached charge when they
    /// next wake. The cost is O(woken nodes + due events): the live set
    /// is the active set once the woken and due nodes are promoted into
    /// it. Under [`Scheduler::EveryNode`] no node ever leaves the
    /// active set, so every phase visits every node, exactly as the
    /// cycle-stepped loop did.
    fn step_to(&mut self, target: Cycle, scheduler: Scheduler) {
        debug_assert!(target > self.cycle);
        self.cycle = target;
        self.engine.steps += 1;
        // Fabric fault hooks count injections internally; traced chaos
        // runs surface each step's delta as events at node 0.
        let fault_traced = self.cfg.faults.enabled && self.trace.is_enabled();
        let (net_before, bus_before) = if fault_traced { self.fault_counts() } else { (0, 0) };
        // 1. Order at most one address-bus transaction (or, on
        //    directory machines, up to one request per free home
        //    bank); the ordering point mutates the requester (and the
        //    NACKing owner), so `order_request` wakes them.
        self.order_phase();
        // 2. Deliver data-network messages; each delivery mutates its
        //    destination. Drained through a reused scratch buffer —
        //    snapshot semantics (messages sent while handling these
        //    deliveries wait for the next cycle) without a per-step
        //    allocation.
        let mut msgs = std::mem::take(&mut self.net_scratch);
        while let Some(msg) = self.net.pop_ready(self.cycle) {
            msgs.push(msg);
        }
        for msg in msgs.drain(..) {
            self.wake(msg.destination());
            self.handle_net(msg);
        }
        self.net_scratch = msgs;
        // Promote everything that must run this cycle: the woken
        // nodes, and the idle nodes whose timer or NACK retry is due.
        // Promotion settles only the node's own counters, so its order
        // is free; afterwards the live set is exactly `active`.
        while let Some(i) = self.woken.pop() {
            self.woken_set.remove(i);
            self.make_live(i);
        }
        while let Some(i) = self.deadlines.pop_due(self.cycle) {
            self.make_live(i);
        }
        // 3. Due snoops, processed at each involved node in node
        //    order (snoop handlers may record trace events and send
        //    network messages, so the oracle's order must be
        //    preserved; bus dues are strictly increasing, so at most
        //    one event is due per step and the per-event node loop
        //    matches the per-node event loop exactly). A sleeping
        //    involved node whose class the snoop may have changed
        //    settles its skipped window and re-classifies: if the
        //    snoop made it runnable it joins this cycle's tick phase,
        //    otherwise it stays asleep anchored at `cycle - 1` so the
        //    tick it skips this cycle is charged on the next settle.
        //    An `Idle` node whose [`SchedKey`] the snoop left alone
        //    keeps its class, so its settle window simply continues.
        //    Uninvolved nodes are untouched by the event (see
        //    [`node_involved`]), so their cached class — and their
        //    settle anchor — stay valid as-is. A directory snoop is
        //    directed: only its target set is examined.
        while self.snoops.front().is_some_and(|ev| ev.due <= self.cycle) {
            let ev = self.snoops.pop_front().unwrap();
            let mut touch = std::mem::take(&mut self.snoop_touch);
            touch.clear();
            let (nodes, sched) = (&self.nodes, &self.sched);
            let involved = |i: usize| {
                node_involved(&nodes[i], &ev).then(|| {
                    let class = match sched[i] {
                        NodeSched::Active => Touched::Live,
                        NodeSched::Idle { .. } => Touched::Idle,
                        NodeSched::Spin { .. } => Touched::Spin,
                    };
                    (i, class)
                })
            };
            // A directory request is directed: only its targets see
            // it. A stale sharer bit (silent clean eviction) among them
            // names a node that the predicate proves uninvolved.
            match &ev.targets {
                Some(t) => touch.extend(t.iter().filter_map(involved)),
                None => touch.extend((0..nodes.len()).filter_map(involved)),
            }
            // A spinner settles before the snoop, whose change to the
            // spun line would end the loop. Settling is order-safe: it
            // touches only own-node state and counters and draws no
            // randomness, records no events. An idle settle reads only
            // the cached charge, so it may follow the snoop.
            for &(i, class) in &touch {
                if class == Touched::Spin {
                    self.settle_through(i, self.cycle - 1);
                }
            }
            self.with_ctx(|nodes, ctx| {
                for (i, class) in &mut touch {
                    let node = &mut nodes[*i];
                    if *class == Touched::Idle {
                        let key = SchedKey::of(node);
                        snoop_one(node, ctx, &ev);
                        if SchedKey::of(node) == key {
                            *class = Touched::Kept;
                        }
                    } else {
                        snoop_one(node, ctx, &ev);
                    }
                }
            });
            for &(i, class) in &touch {
                match class {
                    Touched::Live | Touched::Kept => {}
                    Touched::Idle => {
                        self.settle_through(i, self.cycle - 1);
                        self.reclassify(i, self.cycle - 1);
                    }
                    Touched::Spin => {
                        self.reclassify(i, self.cycle - 1);
                    }
                }
            }
            self.snoop_touch = touch;
        }
        // 4. Tick the live nodes in index order: every node under the
        //    oracle (all `Active`, without walking the bitset), else
        //    the active set.
        let mut live = std::mem::take(&mut self.live_scratch);
        live.clear();
        match scheduler {
            Scheduler::EveryNode => live.extend(0..self.nodes.len()),
            Scheduler::WokenSet => live.extend(self.active.iter()),
        }
        self.with_ctx(|nodes, ctx| {
            for &i in &live {
                tick_node(&mut nodes[i], ctx);
            }
        });
        self.engine.live_ticks += live.len() as u64;
        if scheduler == Scheduler::WokenSet {
            for &i in &live {
                self.reclassify(i, self.cycle);
            }
        }
        self.live_scratch = live;
        if fault_traced {
            let (net_now, bus_now) = self.fault_counts();
            let deltas = [("bus_arbitration", bus_now - bus_before), ("net_delay", net_now - net_before)];
            for (kind, payload) in deltas {
                if payload > 0 {
                    self.trace.record(self.cycle, 0, TraceKind::FaultInjected { kind, payload });
                }
            }
        }
    }

    /// Interconnect faults injected so far: (delayed flights, reordered
    /// bus arbitration rounds). Directory request-flight jitter rides
    /// the data network's knob, so both networks count as net delays.
    fn fault_counts(&self) -> (u64, u64) {
        let (reorders, request_delays) = self.fabric.fault_injections();
        (self.net.fault_injections() + request_delays, reorders)
    }

    /// Takes one instantaneous reading of the shared structures for
    /// the profiler. The scheduling mix comes from [`Machine::classify`]
    /// (pure), so both engines report the same mix at the same cycle
    /// regardless of the cached `sched` state.
    fn prof_gauges(&self) -> Gauges {
        let (mut active, mut idle, mut spin) = (0usize, 0usize, 0usize);
        for i in 0..self.nodes.len() {
            match self.classify(i, self.cycle) {
                NodeSched::Active => active += 1,
                NodeSched::Idle { .. } => idle += 1,
                NodeSched::Spin { .. } => spin += 1,
            }
        }
        Gauges {
            net_sent: self.net.sent_count(),
            net_depth: self.net.len(),
            snoop_depth: self.snoops.len(),
            mshrs: self.nodes.iter().map(|n| n.mshrs.len()).sum(),
            deferred: self.nodes.iter().map(|n| n.deferred.len()).sum(),
            active_nodes: active,
            idle_nodes: idle,
            spin_nodes: spin,
            ..self.fabric.gauges()
        }
    }

    /// Closes a timeline epoch if the clock has crossed the next
    /// boundary. One pointer test when profiling is off.
    fn maybe_sample(&mut self) {
        if self.prof.as_deref().is_some_and(|p| self.cycle >= p.next_boundary()) {
            let g = self.prof_gauges();
            if let Some(p) = self.prof.as_deref_mut() {
                p.sample(self.cycle, g);
            }
        }
    }

    /// Detaches the profiler (with its engine counters filled in) for
    /// reporting. `None` unless the configuration enabled profiling.
    /// Call after the run; the remaining machine keeps no profile.
    pub fn take_profile(&mut self) -> Option<Box<Profiler>> {
        if self.prof.is_some() {
            let g = self.prof_gauges();
            let elapsed = self.cycle;
            let mut engine = std::mem::take(&mut self.engine);
            engine.skipped_cycles = elapsed.saturating_sub(engine.steps);
            if let Some(p) = self.prof.as_deref_mut() {
                p.finish(elapsed, g);
                p.engine = EngineProf { wake: p.engine.wake, ..engine };
            }
        }
        self.prof.take()
    }

    /// Fills in end-of-run aggregates (the parallel cycle count).
    /// Called automatically by [`Machine::run`]; external driver loops
    /// (e.g. [`crate::os::run_preemptive`]) call it after quiescence.
    pub fn finalize_stats(&mut self) {
        self.stats.parallel_cycles =
            self.nodes.iter().filter_map(|n| n.done_at).max().unwrap_or(self.cycle);
        self.stats.elapsed_cycles = self.cycle;
        (self.stats.faults.net_delays, self.stats.faults.bus_reorders) = self.fault_counts();
        self.fabric.finalize_stats(&mut self.stats);
        // Every started elision must have ended exactly one way; drift
        // here means a counter was forgotten somewhere in this file.
        if self.nodes.iter().all(|n| n.txn.is_none()) {
            if let Err(e) = self.stats.check_txn_accounting() {
                panic!("{e}");
            }
        }
        // Every elapsed node-cycle must be charged to exactly one
        // category. Only checkable once all idle charges are settled,
        // which quiescence-path callers guarantee.
        if self.is_quiesced() {
            if let Err(e) = self.stats.check_cycle_accounting() {
                panic!("{e}");
            }
        }
    }

    /// The architecturally current value of a word after (or during)
    /// a run: a dirty cached copy wins over the memory system.
    pub fn final_word(&self, addr: Addr) -> u64 {
        let line = addr.line();
        for n in &self.nodes {
            if let Some(l) = n.line(line) {
                if l.state.dirty() || l.state == Moesi::Exclusive || l.state == Moesi::Modified {
                    return l.data.word(addr);
                }
            }
            if let Some(p) = n.pending_wb.iter().find(|p| p.line == line && !p.cancelled) {
                return p.data.word(addr);
            }
        }
        // Fall back to any clean shared copy, then the memory system.
        for n in &self.nodes {
            if let Some(l) = n.line(line) {
                if l.state.is_valid() {
                    return l.data.word(addr);
                }
            }
        }
        self.memsys.word(addr)
    }

    /// De-schedules a thread (§4): an in-flight transaction is
    /// discarded (the lock stays free), then the core stops ticking
    /// until [`Machine::reschedule`].
    pub fn deschedule(&mut self, id: NodeId) {
        self.external_touch(id);
        self.with_ctx(|nodes, ctx| {
            let node = &mut nodes[id];
            if node.txn.is_some() {
                abort_txn(node, ctx, AbortKind::Descheduled, None);
            }
            node.paused = true;
        });
    }

    /// Resumes a de-scheduled thread.
    pub fn reschedule(&mut self, id: NodeId) {
        self.external_touch(id);
        self.nodes[id].paused = false;
    }

    /// Kills a thread (§4 restartable critical sections): speculative
    /// updates are discarded, deferred requests are serviced, and the
    /// core halts. Shared state is left consistent.
    pub fn kill(&mut self, id: NodeId) {
        self.external_touch(id);
        self.with_ctx(|nodes, ctx| {
            let node = &mut nodes[id];
            if node.txn.is_some() {
                abort_txn(node, ctx, AbortKind::Descheduled, None);
            }
            node.core.halt();
            node.wait = None;
            node.waiting_access = None;
        });
    }

    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut [Node], &mut Ctx) -> R) -> R {
        let mut ctx = Ctx {
            cfg: &self.cfg,
            now: self.cycle,
            net: &mut self.net,
            memsys: &mut self.memsys,
            fabric: &mut self.fabric,
            stats: &mut self.stats,
            trace: &mut self.trace,
            rng: &mut self.rng,
            lock_addrs: &self.lock_addrs,
            policy: self.policy,
            fault: self.fault.as_mut(),
            charged: false,
        };
        f(&mut self.nodes, &mut ctx)
    }

    /// Advances the machine by one cycle, ticking every node: the
    /// cycle-stepped oracle, whatever `cfg.engine` selects. The event
    /// engine's wake sources, classification, settling and burst mode
    /// play no part, so the differential walls check them against it.
    pub fn step(&mut self) {
        debug_assert_eq!(
            self.active.len(),
            self.nodes.len(),
            "step() on a machine whose event engine parked nodes"
        );
        self.step_to(self.cycle + 1, Scheduler::EveryNode);
        self.maybe_sample();
    }

    /// Runs this cycle's ordering point(s): the single address-bus
    /// slot, or — on directory machines — every home bank whose
    /// occupancy window has expired, in bank-index order. The fixed
    /// bank order keeps the cycle-stepped and event engines' RNG draw
    /// sequences identical.
    // Out of line on purpose: the step kernel is the only caller, and
    // inlined there this body bloats the per-step loop (slower ticks on
    // both schedulers under tlr-perf).
    #[inline(never)]
    fn order_phase(&mut self) {
        let mut ordered = std::mem::take(&mut self.order_scratch);
        self.fabric.tick_into(self.cycle, &mut ordered);
        for req in ordered.drain(..) {
            self.order_request(req);
        }
        self.order_scratch = ordered;
    }

    /// Handles one ordered request at its ordering point (the bus slot
    /// or its home bank).
    fn order_request(&mut self, req: BusRequest) {
        let now = self.cycle;
        // The ordering point mutates the requester's state (writeback
        // retirement, self-supply cancellation, the owner ledger): the
        // event engine must run it this cycle.
        self.wake(req.requester);
        self.stats.bus.arbitration_wait_cycles += now.saturating_sub(req.enqueued_at);
        match req.kind {
            BusReqKind::WriteBack => {
                self.stats.bus.writebacks += 1;
                let node = &mut self.nodes[req.requester];
                if let Some(pos) = node.pending_wb.iter().position(|p| p.line == req.line) {
                    let p = node.pending_wb.remove(pos);
                    if !p.cancelled {
                        self.memsys.writeback(req.line, p.data);
                        self.fabric.retire_writeback(req.line, req.requester);
                    }
                }
            }
            BusReqKind::GetS | BusReqKind::GetX => {
                if req.kind == BusReqKind::GetX {
                    self.stats.bus.get_x += 1;
                } else {
                    self.stats.bus.get_s += 1;
                }
                // The bus snoops every cache, so its holder scan is
                // exact; the directory consults its (conservatively
                // imprecise) sharer vector instead and yields the
                // directed target set for the snoop phase.
                let nodes = &self.nodes;
                let (rule, targets) = self.fabric.decide(&req, || {
                    let holds = |(j, n): (usize, &Node)| j != req.requester && n.line_state(req.line).is_valid();
                    nodes.iter().enumerate().any(holds)
                });
                let protocol::DirOutcome { supplier, other_sharers, self_owner, .. } = rule;
                // NACK retention (§3): the owner's refusal is asserted
                // at the ordering point — the transaction is annulled,
                // no ownership transfers, every snooper ignores it.
                // The policy may override the configured retention
                // (backoff forces NACKs: deferral deadlocks under
                // requester-always-loses).
                if self.policy.effective_retention(self.cfg.retention)
                    == tlr_sim::config::RetentionPolicy::Nack
                {
                    if let Some(o) = supplier {
                        // The refusal check advances the owner's
                        // logical clock either way.
                        self.wake(o);
                        if self.nack_at_order(o, &req) {
                            let deliver = now + self.cfg.latency.snoop;
                            self.net.send(
                                deliver,
                                NetMsg::Nack { to: req.requester, line: req.line },
                            );
                            return;
                        }
                    }
                }
                // A NACKed request returned above: an annulled
                // transaction transfers no ownership.
                self.fabric.commit(&req, &rule);
                if supplier.is_none() {
                    // The requester's own un-ordered writeback holds
                    // newer data than memory: serve (and cancel) it.
                    // Otherwise a requester that is itself the owner
                    // holds a dirty-but-unwritable (Owned) copy: this
                    // is an upgrade, granted without a data transfer —
                    // memory may be stale. Its own data rides along so
                    // the fill path stays uniform.
                    let node = &mut self.nodes[req.requester];
                    let own_data = match node.pending_wb_mut(req.line) {
                        Some(p) => {
                            p.cancelled = true;
                            Some(p.data)
                        }
                        None => self_owner.then(|| node.line(req.line).map(|l| l.data)).flatten(),
                    };
                    if let Some(data) = own_data {
                        // One cycle after the requester processes its
                        // own ordering snoop, so the fill records the
                        // correct coherence position.
                        let deliver = now + self.cfg.latency.snoop + 1;
                        self.net.send(
                            deliver,
                            NetMsg::Data {
                                to: req.requester,
                                line: req.line,
                                data,
                                grant: DataGrant::Modified,
                            },
                        );
                    } else {
                        let after = self.cfg.latency.snoop;
                        self.with_ctx(|_, ctx| supply_from_memory(ctx, &req, other_sharers, after));
                    }
                }
                let due = now + self.cfg.latency.snoop;
                self.snoops.push_back(SnoopEvent {
                    due,
                    order_cycle: now,
                    req,
                    supplier,
                    targets,
                });
            }
            BusReqKind::Upgrade => {
                unreachable!("upgrades are modeled as GetX (see node documentation)")
            }
        }
    }

    /// Decides, at the bus ordering point, whether owner `o` refuses
    /// the request (NACK retention): it must be inside a transaction
    /// the request conflicts with, hold the block with data *or* have
    /// its own transactional fill for it in flight, and win the
    /// timestamp comparison outright (no §3.2 relaxation — a NACKed
    /// earlier-timestamp waiter would starve).
    ///
    /// The in-flight case matters for forward progress: without it,
    /// two transactions conflicting on two blocks can perpetually
    /// steal each block from each other during the fill window —
    /// neither request can be refused at the ordering point, and by
    /// snoop time a win degrades to a loss (see `owner_conflict`), so
    /// both sides restart forever. Resolving conflicts against
    /// outstanding requests exactly like conflicts against held
    /// blocks (§3.1.1) restores the timestamp order.
    fn nack_at_order(&mut self, o: NodeId, req: &BusRequest) -> bool {
        let bits = self.cfg.timestamp_bits;
        let policy = self.policy;
        let node = &mut self.nodes[o];
        if node.txn.is_none() {
            return false;
        }
        // A lazily-subscribed lock line is never retained: the holder
        // surrenders it and re-checks the lock word at commit.
        if policy.lazy_subscription() && is_lock_line(node, req.line) {
            return false;
        }
        match node.mshrs.get(req.line) {
            Some(m) => {
                if m.ts.is_none() || !(req.kind.is_exclusive() || m.exclusive) {
                    return false;
                }
            }
            None => {
                let Some(l) = node.line(req.line) else { return false };
                if !l.state.retainable() || !l.conflicts_with(req.kind.is_exclusive()) {
                    return false;
                }
            }
        }
        let wins = match req.ts {
            None => {
                self.cfg.untimestamped_policy == UntimestampedPolicy::DeferAsLowestPriority
            }
            Some(in_ts) => {
                node.clock.observe_conflicting(in_ts);
                let ours = Prio::new(node.timestamp(), node.karma);
                policy.nack_requester(ours, Prio::new(in_ts, req.karma), bits)
            }
        };
        if wins {
            self.stats.node_mut(o).nacks_sent += 1;
            self.stats.obs.conflicts.record(req.line.0);
            self.trace.record(
                self.cycle,
                o,
                TraceKind::NackSent { line: req.line.0, to: req.requester },
            );
        }
        wins
    }

    /// Delivers one data-network message.
    // Out of line on purpose, like `order_phase`.
    #[inline(never)]
    fn handle_net(&mut self, msg: NetMsg) {
        self.with_ctx(|nodes, ctx| deliver_one(nodes, ctx, msg));
    }
}

/// Delivers one data-network message to its destination node.
fn deliver_one(nodes: &mut [Node], ctx: &mut Ctx, msg: NetMsg) {
    let to = msg.destination();
    let node = &mut nodes[to];
    match msg {
        NetMsg::Data { line, data, grant, .. } => handle_fill(node, ctx, line, data, grant),
        NetMsg::Marker { from, line, .. } => handle_marker(node, ctx, line, from),
        NetMsg::Nack { line, .. } => handle_nack(node, ctx, line),
        NetMsg::Probe { line, ts, karma, .. } => handle_probe(node, ctx, line, Prio::new(ts, karma)),
    }
}

/// Whether a snooped transaction can touch this node at all.
///
/// An uninvolved node — not the requester, not the designated
/// supplier, no MSHRs, no parked writebacks, no copy of the line —
/// provably no-ops through every branch of [`snoop_one`] (no state
/// change, no stats, no trace, no randomness), so skipping the call
/// is exact.
fn node_involved(node: &Node, ev: &SnoopEvent) -> bool {
    ev.req.requester == node.id
        || ev.supplier == Some(node.id)
        || !node.mshrs.is_empty()
        || !node.pending_wb.is_empty()
        || node.line(ev.req.line).is_some()
}

/// One cycle of a node: buffer drains, commit progress, core
/// execution, with the cycle-accounting backstop. The dispatch below
/// charges at most one stall/busy category per tick; the transition
/// ticks it leaves uncharged (recording `done_at`, completing a
/// commit, an injected abort, issuing a miss, dispatching I/O) are
/// one-offs that belong to no ongoing activity, so they are swept
/// into `other_cycles` — and a paused node's skipped tick into
/// `paused_cycles` — keeping every category's historical value intact
/// while the per-node sum lands exactly on the run's elapsed cycles
/// ([`tlr_sim::stats::NodeStats::check_cycle_accounting`]).
///
/// That identity also holds *before* every tick: both schedulers
/// settle a node's skipped cycles through `now - 1` before it runs at
/// `now`. Every per-tick charge goes through [`Ctx::charge`], which
/// flags it, so the sweep needs no category sum.
fn tick_node(node: &mut Node, ctx: &mut Ctx) {
    debug_assert_eq!(
        ctx.stats.node_mut(node.id).attributed_cycles(),
        ctx.now - 1,
        "node {}: cycles before the tick at {} are not all charged",
        node.id,
        ctx.now
    );
    ctx.charged = false;
    tick_node_inner(node, ctx);
    if !ctx.charged {
        let ns = ctx.stats.node_mut(node.id);
        if node.paused && !node.core.is_done() {
            ns.paused_cycles += 1;
        } else {
            ns.other_cycles += 1;
        }
    }
    debug_assert_eq!(
        ctx.stats.node_mut(node.id).attributed_cycles(),
        ctx.now,
        "node {}: the tick at {} charged several cycle categories",
        node.id,
        ctx.now
    );
}

fn tick_node_inner(node: &mut Node, ctx: &mut Ctx) {
    if node.core.is_done() {
        if node.done_at.is_none() {
            node.done_at = Some(ctx.now);
        } else {
            ctx.charge(node.id, |s| &mut s.done_cycles);
        }
        drain_store_buffer(node, ctx);
        return;
    }
    if node.paused {
        return;
    }
    // Chaos: annul an open (non-committing) transaction at a
    // seed-chosen node-cycle. Guarded on transaction state, so
    // the fault stream advances deterministically; skipping
    // committing transactions mirrors the hardware, where a
    // transaction past its commit point can no longer abort.
    if node.txn.as_ref().is_some_and(|t| !t.committing) && ctx.fault_fires_spurious_abort()
    {
        ctx.stats.faults.spurious_aborts += 1;
        ctx.trace.record(
            ctx.now,
            node.id,
            TraceKind::FaultInjected { kind: "spurious_abort", payload: 0 },
        );
        abort_txn(node, ctx, AbortKind::Injected, None);
        return;
    }
    retry_nacked(node, ctx);
    retry_txn_pending_x(node, ctx);
    drain_store_buffer(node, ctx);
    if node.txn.as_ref().is_some_and(|t| t.committing) {
        try_commit(node, ctx);
        if node.txn.is_some() {
            ctx.charge(node.id, |s| &mut s.commit_wait_cycles);
        }
        return;
    }
    if ctx.now < node.stall_until {
        ctx.charge(node.id, |s| &mut s.data_stall_cycles);
        return;
    }
    if node.wait.is_some() {
        retry_wait(node, ctx);
        return;
    }
    match node.core.tick() {
        CoreStep::Busy => ctx.charge(node.id, |s| &mut s.busy_cycles),
        CoreStep::Waiting => {
            // Core blocked without a wait record: only possible
            // transiently; charge as a data stall.
            ctx.charge(node.id, |s| &mut s.data_stall_cycles);
        }
        CoreStep::Access(acc) => handle_access(node, ctx, acc),
        CoreStep::Io => {
            if node.txn.is_some() {
                abort_txn(node, ctx, AbortKind::Io, None);
            } else {
                node.wait = Some(Wait::Io { until: ctx.now + IO_LATENCY });
            }
        }
        CoreStep::Done => {
            assert!(
                node.txn.is_none(),
                "thread {} finished inside a critical section",
                node.id
            );
        }
    }
    node.commit_instructions(ctx.stats);
}

impl Node {
    fn commit_instructions(&mut self, stats: &mut MachineStats) {
        stats.node_mut(self.id).instructions = self.core.instructions;
    }
}

// ---------------------------------------------------------------------------
// Controller logic (free functions over Node + Ctx).
// ---------------------------------------------------------------------------

/// Issues a miss: allocates an MSHR and queues the bus request.
/// Returns `false` when the MSHR file is full.
fn issue_miss(node: &mut Node, ctx: &mut Ctx, line: LineAddr, exclusive: bool, ts: Option<Timestamp>) -> bool {
    if node.mshrs.is_full() || node.mshrs.get(line).is_some() {
        return false;
    }
    let e = node.mshrs.alloc(MshrEntry::new(line, exclusive, ts)).expect("mshr alloc");
    e.issued = true;
    ctx.fabric.send(BusRequest {
        requester: node.id,
        line,
        kind: if exclusive { BusReqKind::GetX } else { BusReqKind::GetS },
        ts,
        karma: if ts.is_some() { node.karma } else { 0 },
        wb_data: None,
        enqueued_at: ctx.now,
    });
    ctx.stats.node_mut(node.id).l1_misses += 1;
    true
}

/// Installs a line into the L1, spilling evictions into the victim
/// cache and dirty victim evictions into the writeback path.
///
/// Returns `Err(())` when a transactional line would be lost (the
/// caller must abandon the elision, §3.3).
fn install_line(node: &mut Node, ctx: &mut Ctx, entry: CacheLine) -> Result<(), ()> {
    // Never allow two copies of one line to coexist across the L1 and
    // victim cache: drop any stale resident copy first.
    node.l1.take(entry.line);
    node.victim.take(entry.line);
    let Some(evicted) = node.l1.insert(entry) else { return Ok(()) };
    let Some(evicted2) = node.victim.insert(evicted) else { return Ok(()) };
    // The victim cache overflowed; evicted2 leaves the hierarchy.
    if node.core.link() == Some(evicted2.line) {
        node.core.clear_link();
    }
    // Transactional lines are parked in the writeback buffer even when
    // clean: the node may still owe a deferred response for them.
    if evicted2.state.dirty() || evicted2.spec_accessed() {
        node.pending_wb.push(PendingWriteback { line: evicted2.line, data: evicted2.data, cancelled: false });
        ctx.fabric.send(BusRequest {
            requester: node.id,
            line: evicted2.line,
            kind: BusReqKind::WriteBack,
            ts: None,
            karma: 0,
            wb_data: Some(evicted2.data),
            enqueued_at: ctx.now,
        });
    }
    if evicted2.spec_accessed() {
        return Err(());
    }
    Ok(())
}

/// Supplies a line to a requester from this node's cached copy,
/// applying the protocol transition.
fn supply_from_line(node: &mut Node, ctx: &mut Ctx, line: LineAddr, to: NodeId, exclusive: bool) {
    let kind = if exclusive { BusReqKind::GetX } else { BusReqKind::GetS };
    let delay = ctx.data_latency();
    if node.line(line).is_none() {
        // The line was evicted into the writeback buffer while we
        // still owed a (deferred) response: supply from there.
        let p = node
            .pending_wb_mut(line)
            .unwrap_or_else(|| panic!("supplying line {line} that is not resident"));
        let data = p.data;
        if exclusive {
            p.cancelled = true;
        }
        let grant = if exclusive { DataGrant::Modified } else { DataGrant::Shared };
        ctx.net.send(ctx.now + delay, NetMsg::Data { to, line, data, grant });
        ctx.stats.cache_to_cache_transfers += 1;
        return;
    }
    let l = node
        .line_mut(line)
        .unwrap_or_else(|| panic!("supplying line {line} that is not resident"));
    let outcome = protocol::snoop(l.state, kind);
    debug_assert!(outcome.supply, "supply_from_line on non-owning state {:?}", l.state);
    let data = l.data;
    let grant = if exclusive { DataGrant::Modified } else { DataGrant::Shared };
    if outcome.next == Moesi::Invalid {
        let la = l.line;
        node.l1.take(la);
        node.victim.take(la);
        if node.core.link() == Some(la) {
            node.core.clear_link();
        }
    } else {
        l.state = outcome.next;
    }
    ctx.net.send(ctx.now + delay, NetMsg::Data { to, line, data, grant });
    ctx.stats.cache_to_cache_transfers += 1;
}

/// Services the whole deferred queue in order (transaction end, or a
/// lost conflict: "service earlier deferred requests in-order").
fn service_deferred_all(node: &mut Node, ctx: &mut Ctx) {
    while let Some(d) = node.deferred.pop_front() {
        ctx.trace.record(ctx.now, node.id, TraceKind::ServiceDeferred { line: d.line.0, to: d.from });
        supply_from_line(node, ctx, d.line, d.from, d.exclusive);
    }
}

/// Ends the current transaction without committing. `line` attributes
/// the abort to the conflicting block when one is known.
fn abort_txn(node: &mut Node, ctx: &mut Ctx, kind: AbortKind, line: Option<LineAddr>) {
    let Some(txn) = node.txn.take() else { return };
    let ns = ctx.stats.node_mut(node.id);
    match kind {
        AbortKind::Conflict => ns.restarts_conflict += 1,
        AbortKind::SharerInvalidation => ns.restarts_sharer_invalidation += 1,
        AbortKind::LockWrite => ns.restarts_lock_write += 1,
        AbortKind::Resource => ns.fallbacks_resource += 1,
        AbortKind::Io => ns.fallbacks_io += 1,
        AbortKind::Nesting => ns.fallbacks_nesting += 1,
        AbortKind::Descheduled => ns.aborts_descheduled += 1,
        AbortKind::Injected => ns.aborts_injected += 1,
    }
    // All speculative work since this attempt began is discarded.
    ns.wasted_cycles += ctx.now.saturating_sub(txn.started_at);
    let outer_pc = txn.elided[0].pc;
    let sle_conflict_fallback = !ctx.cfg.scheme.tlr_enabled()
        && matches!(kind, AbortKind::Conflict | AbortKind::SharerInvalidation);
    if kind.forces_fallback() || sle_conflict_fallback {
        if sle_conflict_fallback {
            ctx.stats.node_mut(node.id).fallbacks_conflict += 1;
        }
        // The critical section gives up on elision: sample how many
        // restarts it absorbed first (the conflict that triggers an
        // SLE fallback is itself counted as a restart).
        let absorbed = node.restart_streak + u32::from(sle_conflict_fallback);
        ctx.stats.obs.restarts_per_txn.record(absorbed as u64);
        node.restart_streak = 0;
        node.suppress_elide_at = Some(outer_pc);
        node.sle_pred.elision_failed(outer_pc);
        ctx.trace.record(
            ctx.now,
            node.id,
            TraceKind::TxnFallback {
                reason: match kind {
                    AbortKind::Resource => "resource",
                    AbortKind::Io => "io",
                    AbortKind::Nesting => "nesting",
                    _ => "conflict",
                },
            },
        );
    } else {
        if kind == AbortKind::Descheduled {
            // The critical section will re-run from scratch later.
            node.restart_streak = 0;
        } else {
            node.restart_streak += 1;
        }
        ctx.trace.record(
            ctx.now,
            node.id,
            TraceKind::TxnRestart { line: line.map_or(0, |l| l.0) },
        );
    }
    if kind == AbortKind::SharerInvalidation {
        node.sharer_inval_streak += 1;
    } else if kind.forces_fallback() {
        node.sharer_inval_streak = 0;
    }
    if ctx.policy.uses_karma() {
        if kind.forces_fallback() || sle_conflict_fallback {
            node.karma = 0;
        } else {
            // Size priority: karma is the *largest* footprint any
            // aborted attempt reached, not a running sum. Frozen for
            // the whole next attempt (consistent order among live
            // txns) and bounded by the transaction's footprint, so it
            // saturates — a running sum would let the loser of every
            // round come back outranking the winner, and two symmetric
            // contenders would flip priority and kill each other
            // forever.
            let (r, w) = node.spec_footprint();
            node.karma = node.karma.max(r.saturating_add(w));
        }
    }
    node.core.restore(&txn.checkpoint);
    node.wait = None;
    node.waiting_access = None;
    node.stall_until = ctx.now + ctx.cfg.latency.restart_penalty;
    node.wb.clear();
    node.clear_spec_bits();
    node.txn_pending_x.clear();
    node.sle_pred.clear_candidates();
    // "Give up any retained ownerships."
    service_deferred_all(node, ctx);
}

/// Attempts to finish a committing transaction: all write-buffer lines
/// must be resident and writable; then buffered words become visible
/// atomically, deferred requests are serviced in order, and the
/// logical clock advances (Figure 3, step 4).
fn try_commit(node: &mut Node, ctx: &mut Ctx) {
    retry_txn_pending_x(node, ctx);
    let ready = node.txn_pending_x.is_empty()
        && node
            .wb
            .entries()
            .iter()
            .all(|e| node.line(e.line).is_some_and(|l| l.state.writable()));
    if !ready {
        return;
    }
    if node.txn.as_ref().is_some_and(|t| t.lock_recheck) {
        // Lazy subscription: a lock line was touched by a remote
        // writer during the attempt; revalidate every elided lock at
        // commit instead of having aborted eagerly.
        match revalidate_elided_locks(node, ctx) {
            LockRecheck::Valid => {}
            LockRecheck::Waiting => return,
            LockRecheck::Held => {
                abort_txn(node, ctx, AbortKind::LockWrite, None);
                return;
            }
        }
    }
    let txn = node.txn.take().expect("commit without transaction");
    // The caches are borrowed apart from the write buffer so its
    // entries apply in place; the lookup is `Node::line_mut`'s (an L1
    // hit refreshes LRU order).
    let Node { wb, l1, victim, .. } = node;
    for e in wb.entries() {
        let l = l1
            .get_mut(e.line)
            .or_else(|| victim.peek_mut(e.line))
            .expect("writable line vanished at commit");
        tlr_mem::WriteBuffer::apply_entry(e, &mut l.data);
        l.state = Moesi::Modified;
    }
    // Footprint scan before the spec bits are cleared; the cache walk
    // only runs when the trace is on.
    let (read_set, write_set) =
        if ctx.trace.is_enabled() { node.spec_footprint() } else { (0, 0) };
    node.wb.clear();
    node.clear_spec_bits();
    for el in &txn.elided {
        node.sle_pred.elision_succeeded(el.pc);
    }
    node.sharer_inval_streak = 0;
    if ctx.policy.uses_karma() {
        node.karma = 0;
    }
    let commit_wait = txn.commit_entered_at.map_or(0, |c| ctx.now.saturating_sub(c));
    ctx.stats.node_mut(node.id).commits += 1;
    ctx.stats.obs.cs_length.record(ctx.now.saturating_sub(txn.started_at));
    ctx.stats.obs.commit_latency.record(commit_wait);
    ctx.stats.obs.restarts_per_txn.record(node.restart_streak as u64);
    node.restart_streak = 0;
    // Service the deferral queue before the commit event so the
    // ServiceDeferred instants nest inside the committing span.
    service_deferred_all(node, ctx);
    ctx.trace.record(
        ctx.now,
        node.id,
        TraceKind::TxnCommit { read_set, write_set, commit_wait },
    );
    node.clock.advance();
    // The release store that triggered the commit now completes.
    node.core.complete_store();
    node.wait = None;
    node.waiting_access = None;
}

/// Outcome of the commit-time lock revalidation under lazy
/// subscription.
enum LockRecheck {
    /// Every elided lock is resident and free: commit may proceed.
    Valid,
    /// A lock line is not resident; a refetch was issued and commit
    /// retries once it lands.
    Waiting,
    /// A lock word no longer holds its free value: someone acquired
    /// the lock for real, so the speculative work must be discarded.
    Held,
}

/// Lazy-subscription commit check: instead of aborting on any remote
/// lock write during the attempt, the transaction validates at commit
/// that every elided lock is still free. A resident copy is
/// coherence-current, so residency plus a value check suffices;
/// validated lines get their spec-read bit re-armed so a racing lock
/// write between validation and the atomic commit still aborts.
fn revalidate_elided_locks(node: &mut Node, ctx: &mut Ctx) -> LockRecheck {
    let locks: Vec<(Addr, u64)> = node
        .txn
        .as_ref()
        .expect("recheck without transaction")
        .elided
        .iter()
        .map(|e| (e.addr, e.free_value))
        .collect();
    for &(addr, _) in &locks {
        let line = addr.line();
        if node.line(line).is_none() {
            if node.mshrs.get(line).is_none() {
                let ts = Some(node.timestamp());
                issue_miss(node, ctx, line, false, ts);
            }
            return LockRecheck::Waiting;
        }
    }
    for &(addr, free) in &locks {
        let line = addr.line();
        if node.line_mut(line).expect("checked resident above").data.word(addr) != free {
            return LockRecheck::Held;
        }
        node.mark_spec(line, false);
    }
    if let Some(t) = node.txn.as_mut() {
        t.lock_recheck = false;
    }
    LockRecheck::Valid
}

/// Retries exclusive-ownership requests for transactional stores that
/// could not be issued earlier (MSHR pressure or a shared fill in
/// flight).
fn retry_txn_pending_x(node: &mut Node, ctx: &mut Ctx) {
    if node.txn_pending_x.is_empty() {
        return;
    }
    let ts = node.txn.as_ref().map(|_| node.timestamp());
    let lines = std::mem::take(&mut node.txn_pending_x);
    for line in lines {
        if node.line(line).is_some_and(|l| l.state.writable()) {
            continue;
        }
        if node.mshrs.get(line).is_some() {
            // A shared fill is in flight; we must re-request exclusive
            // after it lands.
            node.txn_pending_x.push(line);
            continue;
        }
        if enforce_ts_order_before_miss(node, ctx, line) {
            return; // transaction aborted; remaining lines are moot
        }
        if !issue_miss(node, ctx, line, true, ts) {
            node.txn_pending_x.push(line);
        }
    }
}

/// Drains at most one store-buffer entry into the cache per cycle.
fn drain_store_buffer(node: &mut Node, ctx: &mut Ctx) {
    let Some((addr, val)) = node.sb.head() else { return };
    let line = addr.line();
    if let Some(l) = node.line_mut(line) {
        if l.state.writable() {
            l.data.set_word(addr, val);
            l.state = Moesi::Modified;
            node.sb.pop();
            return;
        }
    }
    if node.mshrs.get(line).is_some() {
        return; // fill in flight
    }
    if node.line(line).is_none() {
        if let Some(p) = node.pending_wb_mut(line) {
            // Re-acquire a line parked in the writeback buffer.
            p.cancelled = true;
            let data = p.data;
            let mut entry = CacheLine::new(line, Moesi::Modified, data);
            entry.acquired_at = ctx.now;
            let _ = install_line(node, ctx, entry);
            return;
        }
    }
    issue_miss(node, ctx, line, true, None);
}

/// Decides a transactional conflict at a node that currently owns the
/// contested block (Figure 3, step 3).
enum ConflictDecision {
    Defer { relaxed: bool },
    Lose,
}

fn decide_conflict(node: &mut Node, ctx: &mut Ctx, line: LineAddr, incoming: Option<Prio>) -> ConflictDecision {
    if !ctx.cfg.scheme.tlr_enabled() {
        // Plain SLE: any conflict restarts and falls back to the lock.
        return ConflictDecision::Lose;
    }
    match incoming {
        None => match ctx.cfg.untimestamped_policy {
            // Un-timestamped requests are assumed to have the latest
            // timestamp in the system (lowest priority).
            UntimestampedPolicy::DeferAsLowestPriority => ConflictDecision::Defer { relaxed: false },
            UntimestampedPolicy::Restart => ConflictDecision::Lose,
        },
        Some(inp) => {
            node.clock.observe_conflicting(inp.ts);
            let ours = Prio::new(node.timestamp(), node.karma);
            if ctx.policy.holder_retains(ours, inp, ctx.ts_bits()) {
                ConflictDecision::Defer { relaxed: false }
            } else if ctx.cfg.scheme.relax_single_block()
                && ctx.policy.effective_retention(ctx.cfg.retention)
                    == tlr_sim::config::RetentionPolicy::Deferral
                && !node.mshrs.has_transactional_miss()
                && node.txn_pending_x.is_empty()
                && !node.defers_other_lines(line)
            {
                // The relaxation is deferral-specific: a deferred
                // earlier-timestamp request is still queued and will
                // be answered at commit; a NACKed one would be refused
                // indefinitely, breaking starvation freedom.
                // §3.2: deadlock is impossible with a single contended
                // block, so the timestamp-induced restart is avoided.
                ConflictDecision::Defer { relaxed: true }
            } else {
                ConflictDecision::Lose
            }
        }
    }
}

/// Handles a conflicting request at the owner that holds the data.
fn owner_conflict(node: &mut Node, ctx: &mut Ctx, req: &BusRequest) {
    let line = req.line;
    let exclusive = req.kind.is_exclusive();
    // If we have our own exclusive request in flight for this line
    // (an Owned-copy upgrade), the incoming request was ordered
    // *before* ours: deferring it would make our own upgrade wait on
    // our own commit. We must lose.
    let upgrade_in_flight = node.mshrs.get(line).is_some();
    // Lazy subscription: an elided lock line is surrendered without
    // aborting or deferring; the commit re-checks the lock word.
    if !upgrade_in_flight && ctx.policy.lazy_subscription() && is_lock_line(node, line) {
        if let Some(t) = node.txn.as_mut() {
            t.lock_recheck = true;
        }
        supply_from_line(node, ctx, line, req.requester, exclusive);
        return;
    }
    let decision = if upgrade_in_flight {
        ConflictDecision::Lose
    } else {
        decide_conflict(node, ctx, line, req.ts.map(|t| Prio::new(t, req.karma)))
    };
    let decision = match decision {
        // Under NACK retention the refusal must happen at the bus
        // ordering point (order_request); by snoop time the transfer
        // is architecturally committed, so a late win degrades to a
        // loss (service and restart).
        ConflictDecision::Defer { .. }
            if ctx.policy.effective_retention(ctx.cfg.retention)
                == tlr_sim::config::RetentionPolicy::Nack =>
        {
            ConflictDecision::Lose
        }
        d => d,
    };
    match decision {
        ConflictDecision::Defer { relaxed } if node.deferred.len() < node.deferred_cap => {
            node.deferred.push_back(DeferredReq {
                line,
                from: req.requester,
                exclusive,
                ts: req.ts,
                karma: req.karma,
            });
            let depth = node.deferred.len() as u32;
            let ns = ctx.stats.node_mut(node.id);
            ns.requests_deferred += 1;
            ns.markers_sent += 1;
            if relaxed {
                ns.single_block_relaxations += 1;
            }
            ctx.stats.obs.deferral_depth.record(depth as u64);
            ctx.stats.obs.conflicts.record(line.0);
            ctx.trace.record(
                ctx.now,
                node.id,
                TraceKind::Defer { line: line.0, from: req.requester, depth },
            );
            let delay = ctx.data_latency();
            ctx.net.send(delay + ctx.now, NetMsg::Marker { to: req.requester, from: node.id, line });
        }
        _ => {
            // Lose (or deferred queue full): service earlier deferred
            // requests in order, then the conflicting request, then
            // restart.
            ctx.stats.node_mut(node.id).conflicts_lost += 1;
            ctx.stats.obs.conflicts.record(line.0);
            ctx.trace.record(ctx.now, node.id, TraceKind::ConflictLost { line: line.0, to: req.requester });
            service_deferred_all(node, ctx);
            supply_from_line(node, ctx, line, req.requester, exclusive);
            abort_txn(node, ctx, AbortKind::Conflict, Some(line));
        }
    }
}

/// Processes one snooped bus transaction at this node.
// Out of line on purpose, like `Machine::order_phase`.
#[inline(never)]
fn snoop_one(node: &mut Node, ctx: &mut Ctx, ev: &SnoopEvent) {
    let req = &ev.req;
    let line = req.line;
    let exclusive = req.kind.is_exclusive();
    let supplier = ev.supplier == Some(node.id);
    if req.requester == node.id {
        if let Some(m) = node.mshrs.get_mut(line) {
            m.ordered = true;
            m.ordered_at = ev.order_cycle;
        }
        return;
    }
    // 1a. We have an ordered shared miss outstanding and a later
    //     exclusive request is passing by (routed to someone else):
    //     our fill will be stale the moment it arrives.
    if !supplier && exclusive {
        if let Some(m) = node.mshrs.get_mut(line) {
            if m.ordered && !m.exclusive {
                m.invalidate_after_fill = true;
            }
        }
    }
    // 1b. Our own ordered request precedes this one and the ledger
    //     routed it to us: it chains at our MSHR.
    if supplier && node.mshrs.get(line).is_some_and(|m| m.ordered) {
        let our_exclusive;
        let our_ts;
        {
            let m = node.mshrs.get_mut(line).unwrap();
            our_exclusive = m.exclusive;
            our_ts = m.ts;
            m.interventions.push(Intervention {
                from: req.requester,
                exclusive,
                ts: req.ts,
                karma: req.karma,
            });
        }
        ctx.stats.node_mut(node.id).markers_sent += 1;
        ctx.trace.record(ctx.now, node.id, TraceKind::Marker { line: line.0, to: req.requester });
        let delay = ctx.data_latency();
        ctx.net.send(ctx.now + delay, NetMsg::Marker { to: req.requester, from: node.id, line });
        // Probe propagation (§3.1.1): if our transactional request is
        // going to lose to the incoming one, push the conflict
        // upstream toward the data holder.
        if node.txn.is_some() && our_ts.is_some() {
            let conflict = exclusive || our_exclusive;
            if conflict {
                if let Some(in_ts) = req.ts {
                    node.clock.observe_conflicting(in_ts);
                    let ours = Prio::new(node.timestamp(), node.karma);
                    let inp = Prio::new(in_ts, req.karma);
                    if ctx.policy.challenger_preempts(inp, ours, ctx.ts_bits()) {
                        let m = node.mshrs.get_mut(line).unwrap();
                        if let Some(up) = m.marker_from {
                            ctx.stats.node_mut(node.id).probes_sent += 1;
                            ctx.trace.record(ctx.now, node.id, TraceKind::Probe { line: line.0, to: up });
                            let delay = ctx.data_latency();
                            ctx.net.send(
                                ctx.now + delay,
                                NetMsg::Probe { to: up, line, ts: inp.ts, karma: inp.karma },
                            );
                        } else {
                            m.pending_probe = Some(inp);
                        }
                    }
                }
            }
        }
        return;
    }
    // 2. Line resident?
    if let Some(l) = node.line(line) {
        let (state, conflicts, acquired_at) =
            (l.state, node.txn.is_some() && l.conflicts_with(exclusive), l.acquired_at);
        // Stale snoop: this copy was produced by a request ordered
        // *after* the snooped one, which was therefore satisfied by
        // the chain upstream of us. It cannot touch this copy.
        if acquired_at > ev.order_cycle {
            if supplier {
                supply_from_memory(ctx, req, true, 0);
            }
            return;
        }
        if supplier && state.supplies() {
            if conflicts && state.retainable() {
                owner_conflict(node, ctx, req);
            } else {
                supply_from_line(node, ctx, line, req.requester, exclusive);
            }
            return;
        }
        if state.supplies() {
            // We hold the line exclusively but the ledger routed this
            // request elsewhere: we are in the middle of a coherence
            // chain, our successor is already recorded (deferred or as
            // an intervention), and this later request will be
            // satisfied downstream of us. Not our business.
            return;
        }
        // Plain snooper: state is Shared.
        if conflicts {
            // A shared block's invalidation cannot be deferred
            // (§3.1.2): misspeculate. A write to the elided lock
            // itself means another thread is *acquiring* it — restart
            // and re-elide once it is free again (§2.2), without
            // punishing the elision predictor. Under lazy subscription
            // a lock write instead arms the commit-time re-check.
            if is_lock_line(node, line) {
                if ctx.policy.lazy_subscription() {
                    if let Some(t) = node.txn.as_mut() {
                        t.lock_recheck = true;
                    }
                } else {
                    abort_txn(node, ctx, AbortKind::LockWrite, Some(line));
                }
            } else {
                abort_txn(node, ctx, AbortKind::SharerInvalidation, Some(line));
            }
        }
        let outcome = protocol::snoop(state, req.kind);
        if outcome.next == Moesi::Invalid {
            node.l1.take(line);
            node.victim.take(line);
            // The link register is cleared only by writes ordered
            // *before* our own pending exclusive request: if our GetX
            // is already ordered, this (later) request cannot break
            // the LL/SC atomicity of the store-conditional whose write
            // occupies our ordering slot.
            let our_x_ordered =
                node.mshrs.get(line).is_some_and(|m| m.ordered && m.exclusive);
            if node.core.link() == Some(line) && !our_x_ordered {
                node.core.clear_link();
            }
        } else if let Some(l) = node.line_mut(line) {
            l.state = outcome.next;
        }
        if supplier {
            supply_from_memory(ctx, req, true, 0);
        }
        return;
    }
    // 3. Parked in the writeback buffer?
    if node.pending_wb_mut(line).is_some() {
        if supplier {
            let p = node.pending_wb_mut(line).unwrap();
            let data = p.data;
            if exclusive {
                p.cancelled = true;
            }
            let grant = if exclusive { DataGrant::Modified } else { DataGrant::Shared };
            let delay = ctx.data_latency();
            ctx.net.send(ctx.now + delay, NetMsg::Data { to: req.requester, line, data, grant });
            ctx.stats.cache_to_cache_transfers += 1;
        }
        return;
    }
    // 4. Nothing here; if the ledger pointed at us it is stale (a
    //    silently evicted clean line): memory supplies.
    if supplier {
        supply_from_memory(ctx, req, true, 0);
    }
}

/// Supplies a request from the memory side, `after` cycles from now:
/// at its ordering point when no cache supplies, or after a
/// stale-owner snoop miss. A redirect passes `other_sharers = true`:
/// the designated cache could not supply, other caches may have picked
/// up Shared copies since the request was ordered, so a shared request
/// must never be granted Exclusive there (the order-time sharers
/// snapshot is stale).
fn supply_from_memory(ctx: &mut Ctx, req: &BusRequest, other_sharers: bool, after: u64) {
    let (data, res) = ctx.memsys.supply(req.line);
    if res.l2_hit {
        ctx.stats.l2_supplies += 1;
    } else {
        ctx.stats.memory_supplies += 1;
    }
    let grant = protocol::fill_grant(req.kind, other_sharers, false);
    let delay = after + res.latency + ctx.data_latency();
    ctx.net.send(
        ctx.now + delay,
        NetMsg::Data { to: req.requester, line: req.line, data, grant },
    );
}

/// Handles an arriving data response: installs the line, completes the
/// blocked core access, then services the intervention chain in order.
fn handle_fill(node: &mut Node, ctx: &mut Ctx, line: LineAddr, data: tlr_mem::LineData, grant: DataGrant) {
    let mshr = node.mshrs.remove(line).expect("fill without MSHR");
    // Replace any existing copy (e.g. the Shared copy an exclusive
    // request upgraded over), carrying over its transactional access
    // bits — the upgrade is part of the same transaction. A dirty
    // local copy also keeps its data: it is newer than anything the
    // memory side could have supplied. The link register is *not*
    // cleared by our own upgrade.
    let old_copy = node.l1.take(line).or_else(|| node.victim.take(line));
    let mut entry = CacheLine::new(line, protocol::grant_state(grant), data);
    entry.acquired_at = if mshr.ordered { mshr.ordered_at } else { ctx.now };
    if let Some(old) = old_copy {
        if old.state.dirty() {
            entry.data = old.data;
        }
        entry.spec_read = old.spec_read;
        entry.spec_written = old.spec_written;
    }
    let spec_write = node.txn.is_some() && node.wb.contains_line(line);
    if install_line(node, ctx, entry).is_err() {
        // A transactional line fell out of the victim cache: resource
        // fallback (§3.3). Speculative bits are cleared by the abort,
        // so the installed line stays resident as a normal line.
        abort_txn(node, ctx, AbortKind::Resource, Some(line));
    } else if spec_write {
        node.mark_spec(line, true);
    }
    // Complete the blocked core access, if it targets this line.
    if let (Some(acc), Some(Wait::Fill { line: wline, is_lock })) = (node.waiting_access, node.wait) {
        if wline == line {
            complete_access_after_fill(node, ctx, acc, line, is_lock);
        }
    }
    // Retire store-buffer entries that were waiting for this fill
    // *atomically with it* — otherwise a snoop arriving between the
    // fill and the next drain tick could steal the line before the
    // store lands, and under contention that race can repeat forever.
    loop {
        let before = node.sb.len();
        drain_store_buffer(node, ctx);
        if node.sb.len() == before {
            break;
        }
    }
    // A later exclusive request was ordered while this shared miss was
    // in flight: the waiting access consumed the (coherence-ordered-
    // correct) value above; the copy itself is already stale.
    if mshr.invalidate_after_fill {
        let was_spec = node.line(line).is_some_and(|l| l.spec_accessed());
        let lock = is_lock_line(node, line);
        node.l1.take(line);
        node.victim.take(line);
        if node.core.link() == Some(line) {
            node.core.clear_link();
        }
        if was_spec && node.txn.is_some() {
            if lock && ctx.policy.lazy_subscription() {
                // Lazy subscription: the overtaking lock write arms
                // the commit-time re-check instead of aborting.
                if let Some(t) = node.txn.as_mut() {
                    t.lock_recheck = true;
                }
            } else {
                let kind = if lock { AbortKind::LockWrite } else { AbortKind::SharerInvalidation };
                abort_txn(node, ctx, kind, Some(line));
            }
        }
    }
    // Service the intervention chain in order.
    process_interventions(node, ctx, line, mshr.interventions);
}

fn complete_access_after_fill(node: &mut Node, ctx: &mut Ctx, acc: MemAccess, line: LineAddr, is_lock: bool) {
    match acc.kind {
        AccessKind::Load { .. } | AccessKind::LoadLinked { .. } => {
            let v = node.line_mut(line).expect("filled line resident").data.word(acc.addr);
            if node.txn.is_some() {
                node.mark_spec(line, false);
            }
            node.core.complete_load(v);
            if matches!(acc.kind, AccessKind::Load { .. }) {
                node.rmw_pred.record_load(acc.pc, line);
            }
            ctx.stats.node_mut(node.id).loads += 1;
        }
        AccessKind::StoreCond { val, .. } => {
            if node.core.link() != Some(line) {
                node.core.complete_sc(false);
                ctx.stats.node_mut(node.id).sc_fail += 1;
                node.wait = None;
                node.waiting_access = None;
                return;
            }
            if !node.line(line).is_some_and(|l| l.state.writable()) {
                // The fill that completed was a shared grant (the SC
                // piggybacked on an earlier GetS miss): exclusive
                // ownership is still required before the write.
                if node.mshrs.get(line).is_some() || issue_miss(node, ctx, line, true, None) {
                    // keep waiting on the new exclusive fill
                } else {
                    node.wait = Some(Wait::MshrFull { is_lock });
                }
                return;
            }
            {
                let l = node.line_mut(line).expect("filled line resident");
                let old = l.data.word(acc.addr);
                l.data.set_word(acc.addr, val);
                l.state = Moesi::Modified;
                node.core.complete_sc(true);
                let ns = ctx.stats.node_mut(node.id);
                ns.sc_success += 1;
                ns.stores += 1;
                node.sle_pred.observe_atomic_store(acc.pc, acc.addr, old, val);
                if node.suppress_elide_at == Some(acc.pc) {
                    node.suppress_elide_at = None;
                }
                if ctx.lock_addrs.contains(&acc.addr) {
                    ctx.trace.record(ctx.now, node.id, TraceKind::LockAcquired { lock_addr: acc.addr.0 });
                }
            }
        }
        AccessKind::Store { .. } | AccessKind::Fence => {
            unreachable!("stores and fences never block on fills")
        }
    }
    node.wait = None;
    node.waiting_access = None;
}

/// Services interventions queued behind a completed miss, applying the
/// same conflict rules as direct snoops.
fn process_interventions(node: &mut Node, ctx: &mut Ctx, line: LineAddr, ivs: Interventions) {
    let mut ivs = ivs.into_iter();
    while let Some(iv) = ivs.next() {
        let conflicts = node.txn.is_some()
            && node.line(line).is_some_and(|l| l.conflicts_with(iv.exclusive));
        if !conflicts {
            chain_supply(node, ctx, line, &iv);
            continue;
        }
        // Lazy subscription: a chained request for an elided lock line
        // is supplied without aborting; the commit re-checks the word.
        if ctx.policy.lazy_subscription() && is_lock_line(node, line) {
            if let Some(t) = node.txn.as_mut() {
                t.lock_recheck = true;
            }
            chain_supply(node, ctx, line, &iv);
            continue;
        }
        // Note: even under NACK retention, interventions use the
        // deferral machinery — they were ordered into the coherence
        // chain before this node had data, i.e. before any NACK could
        // have been asserted at the bus. Only order-point refusals
        // (`nack_at_order`) implement the NACK policy proper.
        match decide_conflict(node, ctx, line, iv.ts.map(|t| Prio::new(t, iv.karma))) {
            ConflictDecision::Defer { relaxed } if node.deferred.len() < node.deferred_cap => {
                node.deferred.push_back(DeferredReq {
                    line,
                    from: iv.from,
                    exclusive: iv.exclusive,
                    ts: iv.ts,
                    karma: iv.karma,
                });
                let depth = node.deferred.len() as u32;
                let ns = ctx.stats.node_mut(node.id);
                ns.requests_deferred += 1;
                if relaxed {
                    ns.single_block_relaxations += 1;
                }
                ctx.stats.obs.deferral_depth.record(depth as u64);
                ctx.stats.obs.conflicts.record(line.0);
                ctx.trace.record(
                    ctx.now,
                    node.id,
                    TraceKind::Defer { line: line.0, from: iv.from, depth },
                );
                // The marker was already sent when the intervention was
                // queued.
            }
            _ => {
                ctx.stats.node_mut(node.id).conflicts_lost += 1;
                ctx.stats.obs.conflicts.record(line.0);
                ctx.trace.record(ctx.now, node.id, TraceKind::ConflictLost { line: line.0, to: iv.from });
                service_deferred_all(node, ctx);
                chain_supply(node, ctx, line, &iv);
                abort_txn(node, ctx, AbortKind::Conflict, Some(line));
                // Remaining interventions are serviced outside any
                // transaction.
                for later in ivs {
                    chain_supply(node, ctx, line, &later);
                }
                return;
            }
        }
    }
}

/// Supplies an intervention from the current copy, even when the local
/// state would not normally supply (request-response decoupling: the
/// chain made us the temporary owner).
fn chain_supply(node: &mut Node, ctx: &mut Ctx, line: LineAddr, iv: &Intervention) {
    let delay = ctx.data_latency();
    if node.line(line).is_none() {
        // The line was evicted into the writeback buffer, or (under
        // NACK retention, where retried orderings can stack several
        // exclusive interventions on one MSHR) already handed to an
        // earlier intervener.
        if let Some(p) = node.pending_wb_mut(line) {
            let data = p.data;
            if iv.exclusive {
                p.cancelled = true;
            }
            let grant = if iv.exclusive { DataGrant::Modified } else { DataGrant::Shared };
            ctx.net.send(ctx.now + delay, NetMsg::Data { to: iv.from, line, data, grant });
            ctx.stats.cache_to_cache_transfers += 1;
            return;
        }
        debug_assert!(
            ctx.policy.effective_retention(ctx.cfg.retention) == tlr_sim::config::RetentionPolicy::Nack,
            "chain supply for line {line} that is not resident"
        );
        ctx.stats.node_mut(node.id).nacks_sent += 1;
        ctx.net.send(ctx.now + delay, NetMsg::Nack { to: iv.from, line });
        return;
    }
    let l = node
        .line_mut(line)
        .unwrap_or_else(|| panic!("chain supply for line {line} that is not resident"));
    let data = l.data;
    let grant = if iv.exclusive { DataGrant::Modified } else { DataGrant::Shared };
    if iv.exclusive {
        node.l1.take(line);
        node.victim.take(line);
        if node.core.link() == Some(line) {
            node.core.clear_link();
        }
    } else if l.state == Moesi::Modified {
        l.state = Moesi::Owned;
    } else if l.state == Moesi::Exclusive {
        l.state = Moesi::Shared;
    }
    ctx.net.send(ctx.now + delay, NetMsg::Data { to: iv.from, line, data, grant });
    ctx.stats.cache_to_cache_transfers += 1;
}

/// Handles an arriving marker: remembers the upstream neighbour and
/// forwards any pending probe (or a losing queued intervention's
/// timestamp) toward it.
fn handle_marker(node: &mut Node, ctx: &mut Ctx, line: LineAddr, from: NodeId) {
    let in_txn = node.txn.is_some();
    let ours = Prio::new(node.timestamp(), node.karma);
    let bits = ctx.ts_bits();
    let policy = ctx.policy;
    let Some(m) = node.mshrs.get_mut(line) else { return };
    m.marker_from = Some(from);
    let mut fwd: Option<Prio> = m.pending_probe.take();
    if in_txn && m.ts.is_some() {
        let our_exclusive = m.exclusive;
        for iv in m.interventions.iter() {
            if let Some(ts) = iv.ts {
                let cand = Prio::new(ts, iv.karma);
                if (iv.exclusive || our_exclusive)
                    && policy.challenger_preempts(cand, ours, bits)
                    && fwd.is_none_or(|f| policy.outranks(cand, f, bits))
                {
                    fwd = Some(cand);
                }
            }
        }
    }
    if let Some(pr) = fwd {
        ctx.stats.node_mut(node.id).probes_sent += 1;
        ctx.trace.record(ctx.now, node.id, TraceKind::Probe { line: line.0, to: from });
        let delay = ctx.data_latency();
        ctx.net.send(ctx.now + delay, NetMsg::Probe { to: from, line, ts: pr.ts, karma: pr.karma });
    }
}

/// Handles an arriving probe (§3.1.1): a conflicting earlier
/// timestamp is chasing the data. If we hold the block and are
/// deferring, we lose and release; if we are also pending, forward the
/// probe upstream.
fn handle_probe(node: &mut Node, ctx: &mut Ctx, line: LineAddr, prio: Prio) {
    ctx.stats.node_mut(node.id).probes_received += 1;
    if node.txn.is_none() {
        return;
    }
    node.clock.observe_conflicting(prio.ts);
    let ours = Prio::new(node.timestamp(), node.karma);
    if !ctx.policy.challenger_preempts(prio, ours, ctx.ts_bits()) {
        return; // we have priority; the prober waits
    }
    if node.deferred.iter().any(|d| d.line == line) {
        ctx.stats.node_mut(node.id).conflicts_lost += 1;
        ctx.stats.obs.conflicts.record(line.0);
        ctx.trace.record(ctx.now, node.id, TraceKind::ConflictLost { line: line.0, to: usize::MAX });
        service_deferred_all(node, ctx);
        abort_txn(node, ctx, AbortKind::Conflict, Some(line));
    } else if let Some(m) = node.mshrs.get_mut(line) {
        if let Some(up) = m.marker_from {
            ctx.stats.node_mut(node.id).probes_sent += 1;
            let delay = ctx.data_latency();
            ctx.net.send(ctx.now + delay, NetMsg::Probe { to: up, line, ts: prio.ts, karma: prio.karma });
        } else {
            m.pending_probe = Some(prio);
        }
    }
}

/// Retries the wait the core is blocked on.
fn retry_wait(node: &mut Node, ctx: &mut Ctx) {
    match node.wait.expect("retry without wait") {
        Wait::Fill { is_lock, .. } => charge_stall(node, ctx, is_lock),
        Wait::StoreBufFull => {
            if node.sb.is_full() {
                ctx.charge(node.id, |s| &mut s.store_buffer_full_cycles);
            } else {
                redo_access(node, ctx);
            }
        }
        Wait::MshrFull { is_lock } => {
            if node.mshrs.is_full() {
                charge_stall(node, ctx, is_lock);
            } else {
                redo_access(node, ctx);
            }
        }
        Wait::Drain { is_lock } => {
            if node.sb.is_empty() {
                redo_access(node, ctx);
            } else {
                charge_stall(node, ctx, is_lock);
            }
        }
        Wait::Commit => unreachable!("commit wait handled before core dispatch"),
        Wait::Io { until } => {
            if ctx.now >= until {
                node.core.complete_io();
                node.wait = None;
            } else {
                ctx.charge(node.id, |s| &mut s.data_stall_cycles);
            }
        }
    }
}

fn charge_stall(node: &mut Node, ctx: &mut Ctx, is_lock: bool) {
    ctx.charge(node.id, |s| if is_lock { &mut s.lock_stall_cycles } else { &mut s.data_stall_cycles });
}

fn redo_access(node: &mut Node, ctx: &mut Ctx) {
    node.wait = None;
    let acc = node.waiting_access.take().expect("redo without access");
    handle_access(node, ctx, acc);
}

fn charge_busy(node: &mut Node, ctx: &mut Ctx, is_lock: bool) {
    ctx.charge(node.id, |s| if is_lock { &mut s.lock_busy_cycles } else { &mut s.busy_cycles });
}

/// Sends a negative acknowledgement for `line` to `to` and reverts
/// protocol ownership to this node (NACK retention, §3).
/// Handles an incoming NACK (the request's bus transaction was
/// annulled at the ordering point, so no chain ever formed behind
/// it): simply retry after a randomized backoff.
fn handle_nack(node: &mut Node, ctx: &mut Ctx, line: LineAddr) {
    ctx.stats.node_mut(node.id).nacks_received += 1;
    if node.mshrs.get(line).is_some() {
        let attempt = {
            let m = node.mshrs.get_mut(line).expect("checked above");
            m.retries += 1;
            m.retries
        };
        let env = RetryEnv {
            seed: ctx.cfg.seed,
            node: node.id,
            line: line.0,
            attempt,
            base: ctx.cfg.latency.data_network,
        };
        match ctx.policy.retry_pacing(&env, ctx.rng) {
            RetryPacing::Retry { delay } => {
                node.nack_retries.schedule(ctx.now + delay, line);
            }
            RetryPacing::Restart { delay } => {
                // Backoff's probabilistic cycle breaker: the repeated
                // loser restarts its own transaction (the MSHR and its
                // retry count survive, so the delay keeps growing).
                node.nack_retries.schedule(ctx.now + delay, line);
                abort_txn(node, ctx, AbortKind::Conflict, Some(line));
            }
        }
    }
}

/// Re-issues NACKed requests whose backoff has expired.
fn retry_nacked(node: &mut Node, ctx: &mut Ctx) {
    for line in node.nack_retries.take_due(ctx.now) {
        if let Some(m) = node.mshrs.get(line) {
            ctx.fabric.send(BusRequest {
                requester: node.id,
                line,
                kind: if m.exclusive { BusReqKind::GetX } else { BusReqKind::GetS },
                ts: m.ts,
                karma: if m.ts.is_some() { node.karma } else { 0 },
                wb_data: None,
                enqueued_at: ctx.now,
            });
        }
    }
}

/// Whether `line` holds one of the transaction's elided lock words.
fn is_lock_line(node: &Node, line: LineAddr) -> bool {
    node.txn
        .as_ref()
        .is_some_and(|t| t.elided.iter().any(|e| e.addr.line() == line))
}

/// §3.2 enforcement: the single-block relaxation may have deferred a
/// request with an *earlier* timestamp; that is deadlock-free only
/// while the transaction touches no other contested block. The moment
/// it is about to generate another transactional miss, strict
/// timestamp order must be restored: lose the held conflict now.
/// Returns `true` if the transaction was aborted (the caller's access
/// was squashed by the restore).
fn enforce_ts_order_before_miss(node: &mut Node, ctx: &mut Ctx, line: LineAddr) -> bool {
    if node.txn.is_none() || node.deferred.is_empty() {
        return false;
    }
    let ours = Prio::new(node.timestamp(), node.karma);
    // Losing cases: (a) a deferred request has a higher priority
    // (the §3.2 relaxation must now yield), or (b) the new exclusive
    // request targets a line we are deferring — it would be ordered
    // *behind* the deferred requester and wait on our own commit.
    let must_lose = node.deferred.iter().any(|d| {
        d.line == line
            || d.ts.is_some_and(|t| {
                ctx.policy.deferred_blocks_miss(Prio::new(t, d.karma), ours, ctx.ts_bits())
            })
    });
    if !must_lose {
        return false;
    }
    ctx.stats.node_mut(node.id).conflicts_lost += 1;
    ctx.stats.obs.conflicts.record(line.0);
    service_deferred_all(node, ctx);
    abort_txn(node, ctx, AbortKind::Conflict, Some(line));
    true
}

/// Dispatches a fresh core memory access.
fn handle_access(node: &mut Node, ctx: &mut Ctx, acc: MemAccess) {
    let is_lock = ctx.lock_addrs.contains(&acc.addr);
    match acc.kind {
        AccessKind::Fence => {
            if node.sb.is_empty() {
                node.core.complete_fence();
                charge_busy(node, ctx, false);
            } else {
                node.wait = Some(Wait::Drain { is_lock: false });
                node.waiting_access = Some(acc);
            }
        }
        AccessKind::Load { .. } | AccessKind::LoadLinked { .. } => {
            handle_load(node, ctx, acc, is_lock)
        }
        AccessKind::Store { val } => handle_store(node, ctx, acc, val, is_lock),
        AccessKind::StoreCond { val, .. } => handle_sc(node, ctx, acc, val, is_lock),
    }
}

fn handle_load(node: &mut Node, ctx: &mut Ctx, acc: MemAccess, is_lock: bool) {
    let line = acc.addr.line();
    let is_ll = matches!(acc.kind, AccessKind::LoadLinked { .. });
    let in_txn = node.txn.is_some();
    ctx.stats.node_mut(node.id).loads += 1;
    if is_ll {
        ctx.stats.node_mut(node.id).ll_ops += 1;
        // LL orders after older stores to the same line (link
        // semantics require observing memory, not the store buffer).
        if node.sb.has_store_to_line(line) {
            ctx.stats.node_mut(node.id).loads -= 1;
            node.wait = Some(Wait::Drain { is_lock });
            node.waiting_access = Some(acc);
            return;
        }
    }
    // Transactional loads see the transaction's own buffered stores.
    if in_txn {
        if let Some(v) = node.wb.read_word(acc.addr) {
            node.core.complete_load(v);
            if !is_ll {
                node.rmw_pred.record_load(acc.pc, line);
            }
            ctx.stats.node_mut(node.id).l1_hits += 1;
            charge_busy(node, ctx, is_lock);
            return;
        }
    } else if !is_ll {
        if let Some(v) = node.sb.forward(acc.addr) {
            node.core.complete_load(v);
            node.rmw_pred.record_load(acc.pc, line);
            ctx.stats.node_mut(node.id).l1_hits += 1;
            charge_busy(node, ctx, is_lock);
            return;
        }
    }
    // One lookup per structure: an L1 hit refreshes LRU order, a
    // victim-cache hit does not.
    let hit = match node.l1.get_mut(line) {
        Some(l) => Some((l.state, l.data.word(acc.addr), false)),
        None => node.victim.peek(line).map(|l| (l.state, l.data.word(acc.addr), true)),
    };
    if let Some((state, v, hit_in_victim)) = hit {
        if in_txn {
            node.mark_spec(line, false);
        }
        node.core.complete_load(v);
        if !is_ll {
            node.rmw_pred.record_load(acc.pc, line);
        }
        let ns = ctx.stats.node_mut(node.id);
        ns.l1_hits += 1;
        if hit_in_victim {
            ns.victim_hits += 1;
        }
        // Escalation (§3.1.2): after repeated shared-block
        // invalidations, convert read-shared transactional blocks to
        // owned state so external requests become deferrable. The
        // elided lock line itself stays shared — upgrading it would
        // needlessly restart every other eliding processor.
        if in_txn
            && ctx.cfg.scheme.tlr_enabled()
            && node.reads_exclusive()
            && state == Moesi::Shared
            && !is_lock_line(node, line)
            && node.mshrs.get(line).is_none()
            && !enforce_ts_order_before_miss(node, ctx, line)
        {
            let ts = Some(node.timestamp());
            issue_miss(node, ctx, line, true, ts);
        }
        charge_busy(node, ctx, is_lock);
        return;
    }
    if node.pending_wb_mut(line).is_some() {
        // Re-acquire the dirty line from the writeback buffer.
        let p = node.pending_wb_mut(line).unwrap();
        p.cancelled = true;
        let data = p.data;
        let mut entry = CacheLine::new(line, Moesi::Modified, data);
        entry.acquired_at = ctx.now;
        let v = data.word(acc.addr);
        if install_line(node, ctx, entry).is_err() {
            abort_txn(node, ctx, AbortKind::Resource, Some(line));
            return;
        }
        if in_txn {
            node.mark_spec(line, false);
        }
        node.core.complete_load(v);
        if !is_ll {
            node.rmw_pred.record_load(acc.pc, line);
        }
        charge_busy(node, ctx, is_lock);
        return;
    }
    // Miss.
    if node.mshrs.get(line).is_some() {
        node.wait = Some(Wait::Fill { line, is_lock });
        node.waiting_access = Some(acc);
        return;
    }
    if node.mshrs.is_full() {
        node.wait = Some(Wait::MshrFull { is_lock });
        node.waiting_access = Some(acc);
        return;
    }
    if in_txn && enforce_ts_order_before_miss(node, ctx, line) {
        return;
    }
    let escalated = in_txn
        && ctx.cfg.scheme.tlr_enabled()
        && node.reads_exclusive()
        && !is_lock_line(node, line);
    let exclusive = node.rmw_pred.predicts_store(acc.pc) || escalated;
    if exclusive {
        ctx.stats.node_mut(node.id).rmw_upgraded_loads += 1;
    }
    let ts = if in_txn { Some(node.timestamp()) } else { None };
    issue_miss(node, ctx, line, exclusive, ts);
    node.wait = Some(Wait::Fill { line, is_lock });
    node.waiting_access = Some(acc);
}

fn handle_store(node: &mut Node, ctx: &mut Ctx, acc: MemAccess, val: u64, is_lock: bool) {
    let line = acc.addr.line();
    ctx.stats.node_mut(node.id).stores += 1;
    if node.txn.is_some() {
        // Release-store detection: the second, silent store of the
        // elided pair.
        let closed = node.txn.as_mut().unwrap().try_close(acc.addr, val);
        if closed {
            if ctx.lock_addrs.contains(&acc.addr) {
                ctx.trace.record(ctx.now, node.id, TraceKind::LockReleased { lock_addr: acc.addr.0 });
            }
            if node.txn.as_ref().unwrap().all_closed() {
                // Transaction end: hold the release store until commit.
                let txn = node.txn.as_mut().unwrap();
                txn.committing = true;
                txn.commit_entered_at = Some(ctx.now);
                node.wait = Some(Wait::Commit);
                node.waiting_access = Some(acc);
                try_commit(node, ctx);
            } else {
                node.core.complete_store();
                charge_busy(node, ctx, is_lock);
            }
            return;
        }
        // Ordinary speculative data store: buffer in the write buffer
        // and request exclusive ownership asynchronously.
        if node.wb.write(acc.addr, val).is_err() {
            abort_txn(node, ctx, AbortKind::Resource, Some(line));
            return;
        }
        node.rmw_pred.record_store(line);
        let writable = match node.line_mut(line) {
            Some(l) => {
                let writable = l.state.writable();
                node.mark_spec(line, true);
                writable
            }
            None => false,
        };
        if !writable {
            if node.mshrs.get(line).is_none() && enforce_ts_order_before_miss(node, ctx, line) {
                return;
            }
            let ts = Some(node.timestamp());
            if node.mshrs.get(line).is_some_and(|m| m.exclusive) {
                // Exclusive request already in flight.
            } else if node.mshrs.get(line).is_some() || !issue_miss(node, ctx, line, true, ts) {
                node.txn_pending_x.push(line);
            }
        }
        node.core.complete_store();
        charge_busy(node, ctx, is_lock);
        return;
    }
    // Non-speculative store: retire into the store buffer.
    if node.sb.is_full() {
        node.wait = Some(Wait::StoreBufFull);
        node.waiting_access = Some(acc);
        return;
    }
    node.sb.push(acc.addr, val);
    node.rmw_pred.record_store(line);
    node.sle_pred.observe_store(acc.addr, val);
    if ctx.lock_addrs.contains(&acc.addr) {
        ctx.trace.record(ctx.now, node.id, TraceKind::LockReleased { lock_addr: acc.addr.0 });
    }
    node.core.complete_store();
    charge_busy(node, ctx, is_lock);
}

fn handle_sc(node: &mut Node, ctx: &mut Ctx, acc: MemAccess, val: u64, is_lock: bool) {
    let line = acc.addr.line();
    // The SC marks its line as a lock word: the read-modify-write
    // predictor must never turn spin loads of it into exclusive
    // fetches (§3.1.2 optimizes data inside critical sections).
    node.rmw_pred.record_atomic(line);
    // Atomic operations drain the store buffer first.
    if !node.sb.is_empty() {
        node.wait = Some(Wait::Drain { is_lock });
        node.waiting_access = Some(acc);
        return;
    }
    let in_txn = node.txn.is_some();
    let link_ok = node.core.link() == Some(line);
    let cur_val = node.line(line).map(|l| l.data.word(acc.addr));
    // --- Elision decision (Figure 3, step 2) ---
    let may_elide = ctx.cfg.scheme.elision_enabled()
        && node.suppress_elide_at != Some(acc.pc)
        && node.sle_pred.should_elide(acc.pc)
        && link_ok
        && cur_val.is_some_and(|old| old != val);
    if may_elide {
        let old = cur_val.unwrap();
        if let Some(txn) = node.txn.as_mut() {
            if txn.open_depth() < ctx.cfg.max_elision_depth {
                // Nested elision.
                txn.elided.push(ElidedLock {
                    addr: acc.addr,
                    free_value: old,
                    held_value: val,
                    pc: acc.pc,
                    closed: false,
                });
                // The elided store-conditional is an access: it refreshes the
                // lock line's LRU position, then joins it to the read set.
                node.line_mut(line).expect("lock line resident");
                node.mark_spec(line, false);
                node.core.complete_sc(true);
                ctx.stats.node_mut(node.id).sc_elided += 1;
                charge_busy(node, ctx, is_lock);
                return;
            }
            // Nesting exhausted: "the inner lock is treated as data"
            // (§4) — fall through to the transactional-write path.
        } else {
            let cp = node.core.checkpoint();
            node.txn = Some(Txn::new(
                cp,
                ElidedLock {
                    addr: acc.addr,
                    free_value: old,
                    held_value: val,
                    pc: acc.pc,
                    closed: false,
                },
                ctx.now,
            ));
            // The elided store-conditional is an access: it refreshes the
            // lock line's LRU position, then joins it to the read set.
            node.line_mut(line).expect("lock line resident");
            node.mark_spec(line, false);
            node.core.complete_sc(true);
            let ns = ctx.stats.node_mut(node.id);
            ns.sc_elided += 1;
            ns.elisions_started += 1;
            ctx.trace.record(ctx.now, node.id, TraceKind::TxnStart { lock_addr: acc.addr.0 });
            charge_busy(node, ctx, is_lock);
            return;
        }
    }
    if in_txn {
        // A store-conditional executed inside a transaction that is
        // not (or cannot be) elided is a speculative data write.
        if !link_ok {
            node.core.complete_sc(false);
            ctx.stats.node_mut(node.id).sc_fail += 1;
            charge_busy(node, ctx, is_lock);
            return;
        }
        if node.wb.write(acc.addr, val).is_err() {
            abort_txn(node, ctx, AbortKind::Resource, Some(line));
            return;
        }
        node.rmw_pred.record_store(line);
        let needs_issue = match node.line_mut(line) {
            Some(l) => {
                let writable = l.state.writable();
                node.mark_spec(line, true);
                !writable && node.mshrs.get(line).is_none()
            }
            None => node.mshrs.get(line).is_none(),
        };
        if needs_issue {
            if enforce_ts_order_before_miss(node, ctx, line) {
                return;
            }
            let ts = Some(node.timestamp());
            if !issue_miss(node, ctx, line, true, ts) {
                node.txn_pending_x.push(line);
            }
        }
        node.core.complete_sc(true);
        ctx.stats.node_mut(node.id).sc_success += 1;
        charge_busy(node, ctx, is_lock);
        return;
    }
    // --- Real (non-elided) store-conditional ---
    if !link_ok {
        node.core.complete_sc(false);
        ctx.stats.node_mut(node.id).sc_fail += 1;
        charge_busy(node, ctx, is_lock);
        return;
    }
    if node.line(line).is_some_and(|l| l.state.writable()) {
        let l = node.line_mut(line).unwrap();
        let old = l.data.word(acc.addr);
        l.data.set_word(acc.addr, val);
        l.state = Moesi::Modified;
        node.core.complete_sc(true);
        let ns = ctx.stats.node_mut(node.id);
        ns.sc_success += 1;
        ns.stores += 1;
        node.sle_pred.observe_atomic_store(acc.pc, acc.addr, old, val);
        if node.suppress_elide_at == Some(acc.pc) {
            node.suppress_elide_at = None;
        }
        if ctx.lock_addrs.contains(&acc.addr) {
            ctx.trace.record(ctx.now, node.id, TraceKind::LockAcquired { lock_addr: acc.addr.0 });
        }
        charge_busy(node, ctx, is_lock);
        return;
    }
    // Need exclusive ownership first.
    if node.mshrs.get(line).is_some() {
        node.wait = Some(Wait::Fill { line, is_lock });
        node.waiting_access = Some(acc);
        return;
    }
    if node.mshrs.is_full() {
        node.wait = Some(Wait::MshrFull { is_lock });
        node.waiting_access = Some(acc);
        return;
    }
    issue_miss(node, ctx, line, true, None);
    node.wait = Some(Wait::Fill { line, is_lock });
    node.waiting_access = Some(acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_cpu::Asm;
    use tlr_sim::config::Scheme;

    type ProgramBuilder = Box<dyn FnOnce(&mut Asm)>;

    fn machine_with(scheme: Scheme, builders: Vec<ProgramBuilder>) -> Machine {
        let n = builders.len();
        let mut cfg = MachineConfig::small(scheme, n);
        cfg.max_cycles = 2_000_000;
        let programs = builders
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let mut a = Asm::new(format!("p{i}"));
                b(&mut a);
                a.done();
                Arc::new(a.finish())
            })
            .collect();
        Machine::new(cfg, programs, HashSet::new())
    }

    #[test]
    fn single_node_store_then_load_roundtrip() {
        let mut m = machine_with(
            Scheme::Base,
            vec![Box::new(|a: &mut Asm| {
                let (v, addr, out) = (a.reg(), a.reg(), a.reg());
                a.li(addr, 0x1000);
                a.li(v, 77);
                a.store(v, addr, 0);
                a.load(out, addr, 0);
                a.li(addr, 0x2000);
                a.store(out, addr, 0);
            })],
        );
        m.run().unwrap();
        assert_eq!(m.final_word(Addr(0x1000)), 77);
        assert_eq!(m.final_word(Addr(0x2000)), 77);
    }

    #[test]
    fn initial_image_is_visible() {
        let mut m = machine_with(
            Scheme::Base,
            vec![Box::new(|a: &mut Asm| {
                let (addr, v, dst) = (a.reg(), a.reg(), a.reg());
                a.li(addr, 0x40);
                a.load(v, addr, 0);
                a.li(dst, 0x2000);
                a.store(v, dst, 0);
            })],
        );
        m.init_word(Addr(0x40), 1234);
        m.run().unwrap();
        assert_eq!(m.final_word(Addr(0x2000)), 1234);
    }

    #[test]
    fn two_nodes_transfer_modified_line() {
        // Node 0 stores, node 1 spins until it observes the value.
        let mut m = machine_with(
            Scheme::Base,
            vec![
                Box::new(|a: &mut Asm| {
                    let (v, addr) = (a.reg(), a.reg());
                    a.li(addr, 0x1000);
                    a.li(v, 9);
                    a.store(v, addr, 0);
                }),
                Box::new(|a: &mut Asm| {
                    let (v, addr, nine) = (a.reg(), a.reg(), a.reg());
                    a.li(addr, 0x1000);
                    a.li(nine, 9);
                    let spin = a.here();
                    a.load(v, addr, 0);
                    a.bne(v, nine, spin);
                }),
            ],
        );
        m.run().unwrap();
        assert_eq!(m.final_word(Addr(0x1000)), 9);
        assert!(m.stats().cache_to_cache_transfers + m.stats().memory_supplies > 0);
    }

    #[test]
    fn ll_sc_increments_atomically_across_nodes() {
        // Two nodes each perform 50 LL/SC increments of one word.
        let builder = |a: &mut Asm| {
            let (count, zero, addr, v, flag, one) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
            a.li(count, 50);
            a.li(zero, 0);
            a.li(one, 1);
            a.li(addr, 0x1000);
            let top = a.here();
            let retry = a.here();
            a.ll(v, addr, 0);
            a.add(v, v, one);
            a.sc(flag, v, addr, 0);
            a.beq(flag, zero, retry);
            a.addi(count, count, -1);
            a.bne(count, zero, top);
        };
        let mut m = machine_with(Scheme::Base, vec![Box::new(builder), Box::new(builder)]);
        m.run().unwrap();
        assert_eq!(m.final_word(Addr(0x1000)), 100);
    }

    #[test]
    fn quiesce_waits_for_store_buffer_and_writebacks() {
        let mut m = machine_with(
            Scheme::Base,
            vec![Box::new(|a: &mut Asm| {
                let (v, addr) = (a.reg(), a.reg());
                a.li(v, 5);
                // Store to many distinct lines to force evictions and
                // writebacks in the small test cache.
                for i in 0..64u64 {
                    a.li(addr, 0x1_0000 + i * 64);
                    a.store(v, addr, 0);
                }
            })],
        );
        m.run().unwrap();
        for i in 0..64u64 {
            assert_eq!(m.final_word(Addr(0x1_0000 + i * 64)), 5, "line {i}");
        }
    }

    #[test]
    fn timeout_reported() {
        let mut m = machine_with(
            Scheme::Base,
            vec![Box::new(|a: &mut Asm| {
                let (z, addr, v) = (a.reg(), a.reg(), a.reg());
                a.li(z, 0);
                a.li(addr, 0x40);
                let spin = a.here();
                a.load(v, addr, 0);
                a.beq(v, z, spin); // spins forever on zero
            })],
        );
        // Shrink the budget.
        m.cfg.max_cycles = 5_000;
        let err = m.run().unwrap_err();
        assert!(err.cycle >= 5_000);
        assert!(err.to_string().contains("did not quiesce"));
    }

    #[test]
    fn deadline_heap_breaks_ties_like_the_node_scan() {
        let mut d = Deadlines::new(4);
        d.arm(2, [Some(10), None]);
        d.arm(1, [Some(12), Some(10)]);
        // Equal cycles: the lower node wins, whatever its slot.
        assert_eq!(d.next_wake(5), Some((10, WakeSource::RetryTimer)));
        // Re-arming retires the node's older entries.
        d.arm(1, [Some(12), None]);
        assert_eq!(d.next_wake(5), Some((10, WakeSource::IdleTimer)));
        assert_eq!(d.earliest(), Some(10));
        // Overdue deadlines clamp to the floor, and the lowest node
        // among everything at the floor wins — not the earliest entry
        // (node 3's overdue timer tops the heap).
        d.arm(3, [Some(4), None]);
        d.arm(0, [None, Some(11)]);
        assert_eq!(d.next_wake(11), Some((11, WakeSource::RetryTimer)));
        // Promotion pops every node due by `now`, in heap order.
        assert_eq!(d.pop_due(10), Some(3));
        assert_eq!(d.pop_due(10), Some(2));
        assert_eq!(d.pop_due(10), None);
    }

    #[test]
    fn oracle_step_ticks_every_node_every_cycle() {
        // Node 1 spins on a line node 0 writes late, so the event
        // engine would park it; `step` must tick it anyway, even on a
        // machine configured for the event engine.
        let mut cfg = MachineConfig::small(Scheme::Tlr, 2);
        cfg.engine = Engine::EventDriven;
        cfg.profile = tlr_sim::prof::ProfConfig::on();
        let writer = |a: &mut Asm| {
            let (v, addr) = (a.reg(), a.reg());
            for _ in 0..200 {
                a.li(v, 1);
            }
            a.li(addr, 0x1000);
            a.li(v, 9);
            a.store(v, addr, 0);
        };
        let spinner = |a: &mut Asm| {
            let (v, addr, nine) = (a.reg(), a.reg(), a.reg());
            a.li(addr, 0x1000);
            a.li(nine, 9);
            let spin = a.here();
            a.load(v, addr, 0);
            a.bne(v, nine, spin);
        };
        let programs = [writer as fn(&mut Asm), spinner]
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let mut a = Asm::new(format!("p{i}"));
                b(&mut a);
                a.done();
                Arc::new(a.finish())
            })
            .collect();
        let mut m = Machine::new(cfg, programs, HashSet::new());
        while !m.is_quiesced() {
            m.step();
        }
        m.finalize_stats();
        let elapsed = m.stats().elapsed_cycles;
        let e = m.take_profile().expect("profiling is on").engine;
        assert!(elapsed > 200);
        assert_eq!(e.steps, elapsed);
        assert_eq!(e.live_ticks, elapsed * 2);
        assert_eq!(e.skipped_cycles, 0);
    }
}
