//! Machine configuration, modeled on Table 2 of the paper.
//!
//! The paper's target system is a 16-way chip multiprocessor with
//! snooping L1 caches over a Sun Gigaplane-like MOESI split-transaction
//! broadcast protocol, a shared L2, and point-to-point data network.
//! [`MachineConfig::paper_default`] reproduces those parameters;
//! [`MachineConfig::builder`] offers a fluent surface for everything
//! else, including the [`crate::fault`] chaos knobs.

use crate::fault::FaultConfig;
use crate::prof::ProfConfig;

/// Which main-loop implementation drives the machine.
///
/// Both engines are bit-for-bit equivalent — same statistics, same
/// trace, same serialized output — for every configuration; the
/// differential harness in `crates/check` enforces this. The
/// cycle-stepped loop is kept as the in-repo oracle and for
/// micro-debugging (one call per cycle is easier to breakpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Jump the clock straight to the next scheduled event (data
    /// delivery, bus grant, per-node timer); idle stretches are
    /// charged to the stall counters in bulk. The default.
    #[default]
    EventDriven,
    /// Advance every node, bus, and network queue one cycle at a time
    /// (the original loop; `--engine cycle` from the binaries).
    CycleStepped,
}

impl Engine {
    /// Parses a `--engine` flag value.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "event" | "event-driven" => Ok(Engine::EventDriven),
            "cycle" | "cycle-stepped" => Ok(Engine::CycleStepped),
            other => Err(format!("unknown engine {other:?} (expected \"event\" or \"cycle\")")),
        }
    }

    /// Short label for logs and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Engine::EventDriven => "event",
            Engine::CycleStepped => "cycle",
        }
    }
}

/// Which coherence interconnect orders requests.
///
/// The paper's machine is a 16-way broadcast snooping bus
/// (Gigaplane-like, Table 2); the directory interconnect is the
/// NUMA-scale alternative ROADMAP item 2 calls for: per-line home
/// banks with owner + sharer-vector state, directed invalidations
/// instead of broadcast snoops, and point-to-point request delivery.
/// Both interconnects order every request at exactly one point, so
/// TLR's timestamp deferral, markers, and probes work unchanged on
/// either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interconnect {
    /// Broadcast snooping over the split-transaction address bus (the
    /// paper's machine). One global ordering point.
    #[default]
    Snooping,
    /// Home-node directory: per-bank ordering points, owner + sharer
    /// vector per line, directed request forwarding. Scales past the
    /// bus's 16-processor knee.
    Directory,
}

impl Interconnect {
    /// Parses an `--interconnect` flag value.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "snoop" | "snooping" | "bus" => Ok(Interconnect::Snooping),
            "dir" | "directory" => Ok(Interconnect::Directory),
            other => Err(format!(
                "unknown interconnect {other:?} (expected \"snooping\" or \"directory\")"
            )),
        }
    }

    /// Short label for logs and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Interconnect::Snooping => "snooping",
            Interconnect::Directory => "directory",
        }
    }

    /// The largest processor count this interconnect supports: the
    /// broadcast bus is the paper's 16-way Gigaplane-class machine,
    /// the directory's sharer vectors are sized for 256-way NUMA.
    pub const fn max_procs(self) -> usize {
        match self {
            Interconnect::Snooping => 16,
            Interconnect::Directory => 256,
        }
    }
}

impl std::fmt::Display for Interconnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which contention-management policy resolves transactional
/// conflicts.
///
/// The paper fixes timestamp-order conflict resolution (§3.1.1); the
/// [`crate`]-level mechanism (deferral queues, markers, probes) is
/// policy-agnostic, and `tlr-core` resolves every conflict through a
/// `ConflictPolicy` implementation selected by this kind. See
/// `tlr_core::policy` for the decision points and per-policy livelock
/// analysis (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// The paper's policy: earlier timestamp wins, losers defer or
    /// restart, retained timestamps give starvation freedom. The
    /// default, byte-identical to the pre-policy-trait code.
    #[default]
    Timestamp,
    /// Requester always loses; NACKed requesters retry after a salted,
    /// seeded exponential backoff instead of a fixed pacing window.
    Backoff,
    /// Karma-style size priority: the transaction with the larger
    /// speculative read/write-set footprint wins, timestamp order
    /// breaks ties.
    Karma,
    /// Lazy-subscription SLE: lock-line invalidations no longer abort
    /// eagerly; the elided lock word is re-checked at commit time.
    /// Data conflicts still resolve in timestamp order.
    LazySub,
}

impl PolicyKind {
    /// Parses a `--policy` flag value.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "timestamp" | "ts" => Ok(PolicyKind::Timestamp),
            "backoff" => Ok(PolicyKind::Backoff),
            "karma" => Ok(PolicyKind::Karma),
            "lazysub" | "lazy-sub" | "lazy-subscription" => Ok(PolicyKind::LazySub),
            other => Err(format!(
                "unknown policy {other:?} (expected \"timestamp\", \"backoff\", \"karma\" or \"lazysub\")"
            )),
        }
    }

    /// Short label for logs and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Timestamp => "timestamp",
            PolicyKind::Backoff => "backoff",
            PolicyKind::Karma => "karma",
            PolicyKind::LazySub => "lazysub",
        }
    }

    /// All policies, timestamp (the paper's) first.
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::Timestamp, PolicyKind::Backoff, PolicyKind::Karma, PolicyKind::LazySub];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which of the paper's four evaluated hardware/software configurations
/// a run uses (§5: BASE, BASE+SLE, BASE+SLE+TLR, MCS), plus the
/// `TLR-strict-ts` ablation of §3.2 / Figure 9.
///
/// `Base`, `Sle`, `Tlr` and `TlrStrictTs` all execute the *same*
/// test&test&set binary; `Mcs` executes an MCS-lock binary on `Base`
/// hardware (exactly the paper's methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Plain hardware; locks are actually acquired.
    Base,
    /// Plain hardware; the benchmark uses MCS queue locks.
    Mcs,
    /// Speculative Lock Elision only: elide locks, but any data
    /// conflict restarts the critical section and acquires the lock.
    Sle,
    /// Transactional Lock Removal (this paper): SLE plus
    /// timestamp-based conflict resolution with request deferral.
    Tlr,
    /// TLR with the single-block relaxation of §3.2 disabled:
    /// timestamp order is always enforced, even when only one block is
    /// contended. Shown in Figure 9 as `BASE+SLE+TLR-strict-ts`.
    TlrStrictTs,
}

impl Scheme {
    /// Whether the hardware attempts to elide lock acquisitions (SLE).
    pub fn elision_enabled(self) -> bool {
        matches!(self, Scheme::Sle | Scheme::Tlr | Scheme::TlrStrictTs)
    }

    /// Whether timestamp-based deferral (TLR proper) is active.
    pub fn tlr_enabled(self) -> bool {
        matches!(self, Scheme::Tlr | Scheme::TlrStrictTs)
    }

    /// Whether the §3.2 single-block timestamp relaxation is active.
    pub fn relax_single_block(self) -> bool {
        matches!(self, Scheme::Tlr)
    }

    /// Whether the benchmark program should be emitted with MCS locks
    /// instead of test&test&set locks.
    pub fn uses_mcs_locks(self) -> bool {
        matches!(self, Scheme::Mcs)
    }

    /// Short label used in benchmark output, matching the paper's
    /// figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Base => "BASE",
            Scheme::Mcs => "MCS",
            Scheme::Sle => "BASE+SLE",
            Scheme::Tlr => "BASE+SLE+TLR",
            Scheme::TlrStrictTs => "BASE+SLE+TLR-strict-ts",
        }
    }

    /// All schemes in the order the paper's figures present them.
    pub const ALL: [Scheme; 5] =
        [Scheme::Base, Scheme::Mcs, Scheme::Sle, Scheme::Tlr, Scheme::TlrStrictTs];
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a conflict-winning processor retains ownership of a contested
/// block (§3): "Two policies to retain exclusive ownership of cache
/// blocks are NACK-based and deferral-based."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Buffer the incoming request and respond after commit (the
    /// paper's choice: needs no coherence-protocol support and hands
    /// the data directly to the waiter).
    #[default]
    Deferral,
    /// Refuse the request with a negative acknowledgement asserted at
    /// the bus ordering point (the transaction is annulled and the
    /// requester retries) — the coherence-protocol support the paper
    /// notes NACKs require. Requests already inside a coherence chain
    /// when the conflict arises still ride the deferral machinery.
    Nack,
}

/// How requests without timestamps (issued from outside any critical
/// section) interact with in-flight transactions (§2.2, last paragraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UntimestampedPolicy {
    /// Treat the un-timestamped request as having the latest timestamp
    /// in the system: it is deferrable and ordered after the current
    /// transaction. This is the paper's second option and our default.
    #[default]
    DeferAsLowestPriority,
    /// Trigger a misspeculation whenever an un-timestamped request
    /// conflicts; TLR is not applied in the presence of data races.
    Restart,
}

/// Memory-system latencies in cycles (Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 access time on a hit.
    pub l1_hit: u64,
    /// Shared L2 access time.
    pub l2: u64,
    /// Main memory access time.
    pub memory: u64,
    /// Snoop latency on the broadcast address network.
    pub snoop: u64,
    /// Point-to-point pipelined data network latency.
    pub data_network: u64,
    /// Address-bus occupancy per transaction (arbitration + issue).
    pub bus_occupancy: u64,
    /// Pipeline redirection penalty charged on a misspeculation
    /// restart (the paper charges its 3-cycle branch-mispredict
    /// redirection penalty).
    pub restart_penalty: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1_hit: 1,
            l2: 12,
            memory: 70,
            snoop: 20,
            data_network: 20,
            bus_occupancy: 4,
            restart_penalty: 3,
        }
    }
}

/// Full machine configuration (Table 2 of the paper plus the TLR
/// parameters of §3.3 and §5.3).
///
/// Construct through [`MachineConfig::builder`] (or the
/// [`MachineConfig::paper_default`] / [`MachineConfig::small`]
/// wrappers, which are equality-tested against their builder forms).
/// The struct is `#[non_exhaustive]`: literal construction outside
/// this crate does not compile, so new knobs can be added without
/// breaking downstream code. Direct field *mutation* after `build()`
/// is deprecated in favor of builder setters and will lose `pub`
/// access in a future revision.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MachineConfig {
    /// Number of processors (the paper evaluates 2..16).
    pub num_procs: usize,
    /// Which hardware scheme is active.
    pub scheme: Scheme,
    /// Log2 of the cache line size in bytes (64-byte lines).
    pub line_bytes_log2: u32,
    /// Number of L1 data-cache sets (128 KB, 4-way, 64-byte lines
    /// = 512 sets).
    pub l1_sets: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Victim cache entries (fully associative; §3.3).
    pub victim_entries: usize,
    /// Speculative write-buffer capacity in unique cache lines
    /// (Table 2: 64-entry, 64 bytes wide).
    pub write_buffer_lines: usize,
    /// Non-speculative store-buffer entries (word-granularity stores).
    pub store_buffer_entries: usize,
    /// Outstanding misses per node (MSHRs).
    pub mshrs: usize,
    /// Entries in the hardware queue buffering deferred incoming
    /// requests (Figure 5).
    pub deferred_queue_entries: usize,
    /// Silent store-pair predictor entries (Table 2: 64).
    pub sle_predictor_entries: usize,
    /// Maximum simultaneously elided store pairs, i.e. lock nesting
    /// depth (Table 2: 8).
    pub max_elision_depth: usize,
    /// Entries in the PC-indexed read-modify-write predictor
    /// (Table 2: 128).
    pub rmw_predictor_entries: usize,
    /// Whether the read-modify-write predictor is enabled. The paper
    /// enables it for all experiments; `exp_rmw_predictor` turns it
    /// off to reproduce the BASE-no-opt comparison of §6.3.
    pub rmw_predictor_enabled: bool,
    /// Number of L2 sets (4 MB, 8-way, 64-byte lines = 8192 sets).
    pub l2_sets: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Width in bits of the timestamp logical-clock field, for the
    /// fixed-size rollover handling discussed in §2.1.2.
    pub timestamp_bits: u32,
    /// Policy for conflicting un-timestamped requests.
    pub untimestamped_policy: UntimestampedPolicy,
    /// How conflict winners retain contested blocks (§3).
    pub retention: RetentionPolicy,
    /// Which contention-management policy resolves conflicts
    /// (`tlr_core::policy`). [`PolicyKind::Timestamp`] is the paper's
    /// and the default.
    pub policy: PolicyKind,
    /// Which coherence interconnect orders requests (snooping bus or
    /// home-node directory).
    pub interconnect: Interconnect,
    /// Directory home banks (independent ordering points). `0` means
    /// one bank per processor; ignored on the snooping bus.
    pub dir_banks: usize,
    /// Point-to-point request-network latency in cycles for directory
    /// mode: the flight time from a requester to a line's home bank.
    /// Matches the data network's 20 cycles by default; ignored on the
    /// snooping bus (whose requests arbitrate in place).
    pub req_network: u64,
    /// Memory-system latencies.
    pub latency: LatencyConfig,
    /// Maximum uniform random perturbation (cycles) added to memory
    /// latencies, per Alameldeen et al.; 0 disables perturbation.
    pub latency_jitter: u64,
    /// RNG seed for the run.
    pub seed: u64,
    /// Safety net: abort the simulation after this many cycles.
    pub max_cycles: u64,
    /// Fault-injection knobs ([`crate::fault`]). Defaults to
    /// [`FaultConfig::off`], which is bit-identical to a build without
    /// the chaos layer.
    pub faults: FaultConfig,
    /// Profiling knobs ([`crate::prof`]). Defaults to
    /// [`ProfConfig::off`], which is byte-identical to a build without
    /// the profiling layer.
    pub profile: ProfConfig,
    /// Which main loop drives the run. Both produce byte-identical
    /// results; see [`Engine`].
    pub engine: Engine,
}

impl MachineConfig {
    /// The paper's Table 2 parameter values, the base every builder
    /// starts from: the event engine, the snooping bus, the timestamp
    /// policy and profiling off. These are constants; a caller that
    /// wants another engine, fabric, policy or profiling states it
    /// through the builder (the bench binaries do so once, from their
    /// parsed flags).
    fn table2(scheme: Scheme, num_procs: usize) -> Self {
        MachineConfig {
            num_procs,
            scheme,
            line_bytes_log2: 6,
            l1_sets: 512,
            l1_ways: 4,
            victim_entries: 16,
            write_buffer_lines: 64,
            store_buffer_entries: 64,
            mshrs: 16,
            deferred_queue_entries: 64,
            sle_predictor_entries: 64,
            max_elision_depth: 8,
            rmw_predictor_entries: 128,
            rmw_predictor_enabled: true,
            l2_sets: 8192,
            l2_ways: 8,
            timestamp_bits: 32,
            untimestamped_policy: UntimestampedPolicy::default(),
            retention: RetentionPolicy::default(),
            policy: PolicyKind::Timestamp,
            interconnect: Interconnect::Snooping,
            dir_banks: 0,
            req_network: 20,
            latency: LatencyConfig::default(),
            latency_jitter: 2,
            seed: 0x7a3d_5eed,
            max_cycles: 2_000_000_000,
            faults: FaultConfig::off(),
            profile: ProfConfig::off(),
            engine: Engine::EventDriven,
        }
    }

    /// A fluent builder starting from the Table 2 defaults
    /// (single-processor `Base`; set [`MachineConfigBuilder::scheme`]
    /// and [`MachineConfigBuilder::procs`] as needed).
    ///
    /// # Example
    ///
    /// ```
    /// use tlr_sim::config::{MachineConfig, Scheme};
    ///
    /// let cfg = MachineConfig::builder().scheme(Scheme::Tlr).procs(8).build();
    /// assert_eq!(cfg, MachineConfig::paper_default(Scheme::Tlr, 8));
    /// ```
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder { cfg: Self::table2(Scheme::Base, 1) }
    }

    /// The paper's Table 2 configuration for `num_procs` processors
    /// under `scheme`.
    pub fn paper_default(scheme: Scheme, num_procs: usize) -> Self {
        Self::builder().scheme(scheme).procs(num_procs).build()
    }

    /// A scaled-down configuration useful in unit tests: tiny caches
    /// so that capacity and victim-cache paths are easy to exercise.
    pub fn small(scheme: Scheme, num_procs: usize) -> Self {
        Self::builder().scheme(scheme).procs(num_procs).small_caches().build()
    }

    /// The architecturally guaranteed transaction footprint (§4): the
    /// number of distinct cache lines a critical section may *access*
    /// and still be assured a lock-free execution. "If the system has
    /// a 16 entry victim cache and a 4-way data cache, the programmer
    /// can be sure any transaction accessing 20 cache lines or less is
    /// ensured a lock-free execution." Worst case, every accessed line
    /// maps to one L1 set: its `l1_ways` ways plus the victim cache.
    pub fn guaranteed_txn_lines(&self) -> usize {
        self.l1_ways + self.victim_entries
    }

    /// The architecturally guaranteed number of distinct lines a
    /// critical section may *write*: additionally bounded by the
    /// speculative write buffer (§3.3).
    pub fn guaranteed_txn_written_lines(&self) -> usize {
        self.guaranteed_txn_lines().min(self.write_buffer_lines)
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_bytes_log2
    }

    /// Words (u64) per cache line.
    pub fn words_per_line(&self) -> usize {
        (self.line_bytes() / 8) as usize
    }
}

/// Fluent builder for [`MachineConfig`], created by
/// [`MachineConfig::builder`]. Starts from the Table 2 defaults so a
/// builder chain only states what differs from the paper's machine —
/// and fault knobs never become a fourth positional constructor
/// argument.
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Sets the hardware scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the processor count.
    #[must_use]
    pub fn procs(mut self, num_procs: usize) -> Self {
        self.cfg.num_procs = num_procs;
        self
    }

    /// Replaces the memory-system latencies.
    #[must_use]
    pub fn latencies(mut self, latency: LatencyConfig) -> Self {
        self.cfg.latency = latency;
        self
    }

    /// Sets the conflict-winner retention policy.
    #[must_use]
    pub fn retention(mut self, retention: RetentionPolicy) -> Self {
        self.cfg.retention = retention;
        self
    }

    /// Selects the coherence interconnect (the snooping bus default or
    /// the home-node directory).
    #[must_use]
    pub fn interconnect(mut self, interconnect: Interconnect) -> Self {
        self.cfg.interconnect = interconnect;
        self
    }

    /// Sets the number of directory home banks (`0` = one per
    /// processor). Only meaningful with
    /// [`Interconnect::Directory`].
    #[must_use]
    pub fn dir_banks(mut self, banks: usize) -> Self {
        self.cfg.dir_banks = banks;
        self
    }

    /// Sets the directory request-network latency in cycles.
    #[must_use]
    pub fn req_network(mut self, latency: u64) -> Self {
        self.cfg.req_network = latency;
        self
    }

    /// Sets the policy for conflicting un-timestamped requests.
    #[must_use]
    pub fn untimestamped(mut self, policy: UntimestampedPolicy) -> Self {
        self.cfg.untimestamped_policy = policy;
        self
    }

    /// Selects the contention-management policy (the paper's
    /// [`PolicyKind::Timestamp`] default, or one of the alternatives
    /// in `tlr_core::policy`).
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Installs fault-injection knobs ([`crate::fault`]).
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Installs profiling knobs ([`crate::prof`]).
    #[must_use]
    pub fn profile(mut self, profile: ProfConfig) -> Self {
        self.cfg.profile = profile;
        self
    }

    /// Sets the machine RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the runaway-simulation safety net.
    #[must_use]
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.cfg.max_cycles = max_cycles;
        self
    }

    /// Sets the timestamp logical-clock width in bits.
    #[must_use]
    pub fn timestamp_bits(mut self, bits: u32) -> Self {
        self.cfg.timestamp_bits = bits;
        self
    }

    /// Sets the maximum uniform latency perturbation in cycles.
    #[must_use]
    pub fn latency_jitter(mut self, jitter: u64) -> Self {
        self.cfg.latency_jitter = jitter;
        self
    }

    /// Selects the main-loop engine (the event-driven default or the
    /// cycle-stepped oracle).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Shrinks caches and buffers to the unit-test geometry of
    /// [`MachineConfig::small`] and disables latency jitter.
    #[must_use]
    pub fn small_caches(mut self) -> Self {
        self.cfg.l1_sets = 16;
        self.cfg.l1_ways = 2;
        self.cfg.victim_entries = 4;
        self.cfg.write_buffer_lines = 8;
        self.cfg.l2_sets = 64;
        self.cfg.l2_ways = 4;
        self.cfg.latency_jitter = 0;
        self
    }

    /// Finishes the chain.
    #[must_use]
    pub fn build(self) -> MachineConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let cfg = MachineConfig::paper_default(Scheme::Base, 16);
        assert_eq!(cfg.line_bytes(), 64);
        assert_eq!(cfg.words_per_line(), 8);
        // 128 KB 4-way with 64 B lines.
        assert_eq!(cfg.l1_sets * cfg.l1_ways * 64, 128 * 1024);
        // 4 MB 8-way with 64 B lines.
        assert_eq!(cfg.l2_sets * cfg.l2_ways * 64, 4 * 1024 * 1024);
        assert_eq!(cfg.latency.l2, 12);
        assert_eq!(cfg.latency.memory, 70);
        assert_eq!(cfg.latency.snoop, 20);
        assert_eq!(cfg.latency.data_network, 20);
        assert_eq!(cfg.sle_predictor_entries, 64);
        assert_eq!(cfg.max_elision_depth, 8);
        assert_eq!(cfg.rmw_predictor_entries, 128);
    }

    #[test]
    fn guaranteed_footprints_follow_the_paper_example() {
        let cfg = MachineConfig::paper_default(Scheme::Tlr, 16);
        // 4-way L1 + 16-entry victim cache = the paper's "20 cache
        // lines or less".
        assert_eq!(cfg.guaranteed_txn_lines(), 20);
        assert_eq!(cfg.guaranteed_txn_written_lines(), 20);
        let mut tiny = cfg.clone();
        tiny.write_buffer_lines = 8;
        assert_eq!(tiny.guaranteed_txn_written_lines(), 8);
    }

    #[test]
    fn scheme_flags() {
        assert!(!Scheme::Base.elision_enabled());
        assert!(!Scheme::Mcs.elision_enabled());
        assert!(Scheme::Sle.elision_enabled());
        assert!(!Scheme::Sle.tlr_enabled());
        assert!(Scheme::Tlr.tlr_enabled());
        assert!(Scheme::Tlr.relax_single_block());
        assert!(Scheme::TlrStrictTs.tlr_enabled());
        assert!(!Scheme::TlrStrictTs.relax_single_block());
        assert!(Scheme::Mcs.uses_mcs_locks());
    }

    #[test]
    fn scheme_labels_match_figures() {
        assert_eq!(Scheme::Tlr.to_string(), "BASE+SLE+TLR");
        assert_eq!(Scheme::TlrStrictTs.label(), "BASE+SLE+TLR-strict-ts");
    }

    #[test]
    fn builder_reproduces_the_named_constructors() {
        for scheme in Scheme::ALL {
            for procs in [1, 4, 16] {
                assert_eq!(
                    MachineConfig::builder().scheme(scheme).procs(procs).build(),
                    MachineConfig::paper_default(scheme, procs)
                );
                assert_eq!(
                    MachineConfig::builder().scheme(scheme).procs(procs).small_caches().build(),
                    MachineConfig::small(scheme, procs)
                );
            }
        }
    }

    #[test]
    fn builder_setters_land_on_the_right_fields() {
        let faults = FaultConfig::intensity(0xfa17, 2);
        let cfg = MachineConfig::builder()
            .scheme(Scheme::Tlr)
            .procs(8)
            .retention(RetentionPolicy::Nack)
            .untimestamped(UntimestampedPolicy::Restart)
            .timestamp_bits(16)
            .latency_jitter(0)
            .seed(42)
            .max_cycles(1_000)
            .faults(faults.clone())
            .build();
        assert_eq!(cfg.scheme, Scheme::Tlr);
        assert_eq!(cfg.num_procs, 8);
        assert_eq!(cfg.retention, RetentionPolicy::Nack);
        assert_eq!(cfg.untimestamped_policy, UntimestampedPolicy::Restart);
        assert_eq!(cfg.timestamp_bits, 16);
        assert_eq!(cfg.latency_jitter, 0);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.max_cycles, 1_000);
        assert_eq!(cfg.faults, faults);
    }

    #[test]
    fn engine_defaults_to_event_driven_and_builder_overrides() {
        assert_eq!(MachineConfig::paper_default(Scheme::Tlr, 4).engine, Engine::EventDriven);
        let cfg = MachineConfig::builder().engine(Engine::CycleStepped).build();
        assert_eq!(cfg.engine, Engine::CycleStepped);
        assert_eq!(Engine::parse("event"), Ok(Engine::EventDriven));
        assert_eq!(Engine::parse("cycle-stepped"), Ok(Engine::CycleStepped));
        assert!(Engine::parse("warp").is_err());
        assert_eq!(Engine::EventDriven.label(), "event");
    }

    #[test]
    fn interconnect_defaults_to_snooping_and_builder_overrides() {
        let cfg = MachineConfig::paper_default(Scheme::Tlr, 4);
        assert_eq!(cfg.interconnect, Interconnect::Snooping);
        assert_eq!(cfg.dir_banks, 0);
        assert_eq!(cfg.req_network, 20);
        let cfg = MachineConfig::builder()
            .interconnect(Interconnect::Directory)
            .dir_banks(8)
            .req_network(12)
            .build();
        assert_eq!(cfg.interconnect, Interconnect::Directory);
        assert_eq!(cfg.dir_banks, 8);
        assert_eq!(cfg.req_network, 12);
    }

    #[test]
    fn interconnect_parse_labels_and_limits() {
        assert_eq!(Interconnect::parse("snooping"), Ok(Interconnect::Snooping));
        assert_eq!(Interconnect::parse("bus"), Ok(Interconnect::Snooping));
        assert_eq!(Interconnect::parse("dir"), Ok(Interconnect::Directory));
        assert_eq!(Interconnect::parse("directory"), Ok(Interconnect::Directory));
        assert!(Interconnect::parse("mesh").is_err());
        assert_eq!(Interconnect::Snooping.label(), "snooping");
        assert_eq!(Interconnect::Directory.to_string(), "directory");
        assert_eq!(Interconnect::Snooping.max_procs(), 16);
        assert_eq!(Interconnect::Directory.max_procs(), 256);
    }

    #[test]
    fn policy_defaults_to_timestamp_and_builder_overrides() {
        let cfg = MachineConfig::paper_default(Scheme::Tlr, 4);
        assert_eq!(cfg.policy, PolicyKind::Timestamp);
        let cfg = MachineConfig::builder().policy(PolicyKind::Karma).build();
        assert_eq!(cfg.policy, PolicyKind::Karma);
    }

    #[test]
    fn policy_parse_labels_and_order() {
        assert_eq!(PolicyKind::parse("timestamp"), Ok(PolicyKind::Timestamp));
        assert_eq!(PolicyKind::parse("ts"), Ok(PolicyKind::Timestamp));
        assert_eq!(PolicyKind::parse("backoff"), Ok(PolicyKind::Backoff));
        assert_eq!(PolicyKind::parse("karma"), Ok(PolicyKind::Karma));
        assert_eq!(PolicyKind::parse("lazysub"), Ok(PolicyKind::LazySub));
        assert_eq!(PolicyKind::parse("lazy-subscription"), Ok(PolicyKind::LazySub));
        assert!(PolicyKind::parse("polite").is_err());
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.label()), Ok(p), "labels must round-trip");
        }
        assert_eq!(PolicyKind::Timestamp.to_string(), "timestamp");
    }

    #[test]
    fn default_faults_are_off() {
        assert_eq!(MachineConfig::paper_default(Scheme::Base, 1).faults, FaultConfig::off());
        assert_eq!(MachineConfig::small(Scheme::Tlr, 2).faults, FaultConfig::off());
    }

    #[test]
    fn default_profiling_is_off_and_builder_installs_it() {
        assert_eq!(MachineConfig::paper_default(Scheme::Base, 1).profile, ProfConfig::off());
        let cfg = MachineConfig::builder().profile(ProfConfig::on()).build();
        assert_eq!(cfg.profile, ProfConfig::on());
    }
}
