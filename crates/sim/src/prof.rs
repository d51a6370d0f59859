//! Bottleneck-attribution profiling.
//!
//! Three observation layers over one run, all deterministic and all
//! zero-overhead when disabled (the machine holds an
//! `Option<Box<Profiler>>` that is `None` unless [`ProfConfig`]
//! enables it — the same pattern as [`crate::fault::FaultConfig`],
//! and like it the off path is byte-identical to a build without this
//! module):
//!
//! 1. **Cycle accounting** lives in [`crate::stats`]: every node-cycle
//!    is charged to exactly one category and
//!    `MachineStats::check_cycle_accounting` audits the identity.
//! 2. **Utilization timelines** live here: fixed-epoch samples of bus
//!    occupancy, queue depths, MSHR pressure, and the scheduling mix,
//!    held in a downsampling ring so memory stays bounded no matter
//!    how long the run is.
//! 3. **Engine self-profiling** lives here too: which wake source
//!    fired each event-engine step, how many node ticks the engine
//!    skipped, and how much work the closed-form settle paths
//!    absorbed — the per-cell answer to "why does the event engine
//!    only skip 14% of steps on the paper sweep".

use crate::Cycle;

/// Profiling knobs. [`ProfConfig::off`] (the default) builds no
/// profiler at all; the machine's per-step cost is then a single
/// `Option` test on a field that is always `None`, and every output
/// byte matches a build that predates the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfConfig {
    /// Master switch.
    pub enabled: bool,
    /// Log2 of the initial sampling epoch in cycles. Epochs double
    /// whenever the ring fills, so this only sets the finest
    /// resolution (default 2^12 = 4096 cycles).
    pub epoch_log2: u32,
    /// Ring capacity: the timeline never holds more samples than
    /// this. On overflow adjacent samples merge pairwise and the
    /// epoch doubles.
    pub max_samples: usize,
}

impl ProfConfig {
    /// Profiling disabled — the byte-identical-to-HEAD configuration.
    pub const fn off() -> Self {
        ProfConfig { enabled: false, epoch_log2: 12, max_samples: 512 }
    }

    /// Profiling enabled with the default epoch and ring size.
    pub const fn on() -> Self {
        ProfConfig { enabled: true, epoch_log2: 12, max_samples: 512 }
    }

    /// Builds the profiler, or `None` when disabled (then nothing is
    /// allocated and the machine's hot path never branches on epoch
    /// boundaries).
    pub fn profiler(&self) -> Option<Box<Profiler>> {
        self.enabled.then(|| Box::new(Profiler::new(*self)))
    }
}

impl Default for ProfConfig {
    fn default() -> Self {
        ProfConfig::off()
    }
}

/// Which wake source (or engine rule) determined the cycle an
/// event-engine step jumped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSource {
    /// A node was Active, pinning the wake floor to the next cycle.
    ActiveFloor,
    /// The address bus could order a queued request.
    Bus,
    /// A data-network delivery came due.
    Network,
    /// The global snoop queue's front entry came due.
    SnoopFront,
    /// A node's idle timer (fill arrival, backoff expiry) fired.
    IdleTimer,
    /// A NACK retry timer fired.
    RetryTimer,
    /// A directory request flight arrived or a home bank's occupancy
    /// window expired with queued work.
    Directory,
    /// Nothing was scheduled: the step ran to the caller's bound.
    Bound,
}

impl WakeSource {
    /// Number of variants (the histogram's array size).
    pub const COUNT: usize = 8;

    /// Every variant, in display order.
    pub const ALL: [WakeSource; WakeSource::COUNT] = [
        WakeSource::ActiveFloor,
        WakeSource::Bus,
        WakeSource::Network,
        WakeSource::SnoopFront,
        WakeSource::IdleTimer,
        WakeSource::RetryTimer,
        WakeSource::Directory,
        WakeSource::Bound,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            WakeSource::ActiveFloor => "active floor",
            WakeSource::Bus => "bus grant",
            WakeSource::Network => "network delivery",
            WakeSource::SnoopFront => "snoop front",
            WakeSource::IdleTimer => "idle timer",
            WakeSource::RetryTimer => "retry timer",
            WakeSource::Directory => "directory order",
            WakeSource::Bound => "bound (nothing scheduled)",
        }
    }
}

/// An instantaneous reading of the machine's shared structures, taken
/// by the machine at an epoch boundary. Counter fields
/// (`bus_ordered`, `net_sent`) are cumulative; the profiler
/// differences them against the previous boundary itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Cumulative bus transactions ordered (`Bus::ordered_count`).
    pub bus_ordered: u64,
    /// Cumulative data-network messages sent (`Network::sent_count`).
    pub net_sent: u64,
    /// Cumulative directory requests ordered
    /// (`Directory::ordered_count`; zero on snooping machines).
    pub dir_ordered: u64,
    /// Directory requests in flight or queued at a home bank.
    pub dir_depth: usize,
    /// Data-network messages currently in flight.
    pub net_depth: usize,
    /// Global snoop queue depth.
    pub snoop_depth: usize,
    /// Outstanding MSHR entries, summed over nodes.
    pub mshrs: usize,
    /// Deferred-queue entries, summed over nodes.
    pub deferred: usize,
    /// Nodes the engine classifies as Active.
    pub active_nodes: usize,
    /// Nodes idle (blocked on a miss, backoff, or finished).
    pub idle_nodes: usize,
    /// Nodes in a recognized spin loop.
    pub spin_nodes: usize,
}

/// One timeline sample: the deltas and high-water gauges for one
/// epoch. Epochs are contiguous and non-overlapping; the last sample
/// of a run may be shorter than the nominal epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// First cycle the sample covers.
    pub start: Cycle,
    /// Cycles covered.
    pub cycles: u64,
    /// Bus transactions ordered within the epoch (delta). Multiplied
    /// by the configured occupancy this is the exact count of busy
    /// address-bus cycles — occupancy windows never overlap.
    pub bus_ordered: u64,
    /// Data-network messages sent within the epoch (delta).
    pub net_sent: u64,
    /// Directory requests ordered within the epoch (delta).
    pub dir_ordered: u64,
    /// High-water directory pending depth observed at a boundary.
    pub dir_depth: usize,
    /// High-water data-network depth observed at a boundary.
    pub net_depth: usize,
    /// High-water global snoop queue depth.
    pub snoop_depth: usize,
    /// High-water outstanding MSHRs (all nodes).
    pub mshrs: usize,
    /// High-water deferred-queue depth (all nodes).
    pub deferred: usize,
    /// High-water Active node count.
    pub active_nodes: usize,
    /// High-water Idle node count.
    pub idle_nodes: usize,
    /// High-water Spin node count.
    pub spin_nodes: usize,
}

impl Sample {
    /// Bus utilization within this sample, given the per-transaction
    /// occupancy.
    pub fn bus_utilization(&self, occupancy: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.bus_ordered * occupancy) as f64 / self.cycles as f64
        }
    }

    /// Merges the immediately following sample into this one: deltas
    /// add, gauges keep the high-water mark.
    fn absorb(&mut self, next: &Sample) {
        self.cycles += next.cycles;
        self.bus_ordered += next.bus_ordered;
        self.net_sent += next.net_sent;
        self.dir_ordered += next.dir_ordered;
        self.dir_depth = self.dir_depth.max(next.dir_depth);
        self.net_depth = self.net_depth.max(next.net_depth);
        self.snoop_depth = self.snoop_depth.max(next.snoop_depth);
        self.mshrs = self.mshrs.max(next.mshrs);
        self.deferred = self.deferred.max(next.deferred);
        self.active_nodes = self.active_nodes.max(next.active_nodes);
        self.idle_nodes = self.idle_nodes.max(next.idle_nodes);
        self.spin_nodes = self.spin_nodes.max(next.spin_nodes);
    }
}

/// Engine self-profiling counters. The cycle engine leaves most of
/// these zero (it has no steps to skip); the event engine fills them
/// in and they explain, per cell, how much the engine actually
/// short-circuits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineProf {
    /// Event-engine steps taken (calls that advanced the clock).
    pub steps: u64,
    /// Node ticks actually executed.
    pub live_ticks: u64,
    /// Cycles the clock jumped over without stepping (the engine's
    /// savings; `elapsed - steps` on a pure event run).
    pub skipped_cycles: u64,
    /// Wake-source histogram, indexed by [`WakeSource`] position in
    /// [`WakeSource::ALL`]: which schedulable pinned each step's
    /// target cycle.
    pub wake: [u64; WakeSource::COUNT],
    /// Burst-mode entries (quiet windows handed to the dense loop).
    pub burst_entries: u64,
    /// Cycles executed inside burst mode.
    pub burst_cycles: u64,
    /// Node ticks executed inside burst mode.
    pub burst_ticks: u64,
    /// Spin fast-forwards: closed-form settles of a recognized spin
    /// loop (loads and branches replayed arithmetically).
    pub spin_settles: u64,
    /// Cycles absorbed by spin fast-forwards.
    pub spin_settle_cycles: u64,
    /// Idle-charge settles (a blocked stretch charged in bulk).
    pub idle_settles: u64,
    /// Cycles absorbed by idle-charge settles.
    pub idle_settle_cycles: u64,
}

impl EngineProf {
    /// Records a step woken by `source`.
    pub fn record_wake(&mut self, source: WakeSource) {
        let idx = WakeSource::ALL.iter().position(|&s| s == source).unwrap();
        self.wake[idx] += 1;
    }

    /// Total steps recorded in the wake histogram.
    pub fn total_wakes(&self) -> u64 {
        self.wake.iter().sum()
    }

    /// Wake counts as `(label, count)` pairs in display order.
    pub fn wake_breakdown(&self) -> [(&'static str, u64); WakeSource::COUNT] {
        let mut out = [("", 0u64); WakeSource::COUNT];
        for (slot, (&s, &c)) in out.iter_mut().zip(WakeSource::ALL.iter().zip(self.wake.iter())) {
            *slot = (s.label(), c);
        }
        out
    }
}

/// The run profiler: owns the timeline ring and the engine counters.
/// Lives behind `Option<Box<_>>` on the machine so the disabled path
/// costs one pointer test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profiler {
    /// The configuration that built this profiler.
    pub config: ProfConfig,
    /// Current epoch length in cycles (doubles on ring overflow).
    epoch: u64,
    /// First cycle of the epoch currently being accumulated.
    epoch_start: Cycle,
    /// Next boundary at or past which the machine must call
    /// [`Profiler::sample`].
    next_boundary: Cycle,
    /// Closed samples, oldest first.
    samples: Vec<Sample>,
    /// Cumulative-counter snapshots at the last closed boundary.
    last_bus_ordered: u64,
    last_net_sent: u64,
    last_dir_ordered: u64,
    /// Per-transaction address-bus occupancy in cycles, filled in by
    /// the machine from its latency configuration so downstream
    /// reports can convert ordered-transaction counts to busy cycles
    /// without re-threading the config.
    pub bus_occupancy: u64,
    /// Home-bank count of the directory, when one is installed (zero
    /// on snooping machines). Divides into per-bank occupancy:
    /// `dir_ordered * bus_occupancy / (dir_banks * cycles)`.
    pub dir_banks: usize,
    /// Engine self-profiling counters.
    pub engine: EngineProf,
}

impl Profiler {
    /// Creates a profiler at cycle 0.
    pub fn new(config: ProfConfig) -> Self {
        let epoch = 1u64 << config.epoch_log2;
        Profiler {
            config,
            epoch,
            epoch_start: 0,
            next_boundary: epoch,
            samples: Vec::new(),
            last_bus_ordered: 0,
            last_net_sent: 0,
            last_dir_ordered: 0,
            bus_occupancy: 0,
            dir_banks: 0,
            engine: EngineProf::default(),
        }
    }

    /// The cycle at or past which the machine should take the next
    /// sample — the hot path's only check.
    pub fn next_boundary(&self) -> Cycle {
        self.next_boundary
    }

    /// Closes the epoch(s) ending at `now` with the given gauges. The
    /// machine calls this whenever its clock reaches
    /// [`Profiler::next_boundary`]; an event-engine jump over several
    /// boundaries produces one (longer) sample, which loses nothing —
    /// the skipped window's state was constant or the engine would
    /// have woken inside it.
    pub fn sample(&mut self, now: Cycle, g: Gauges) {
        if now <= self.epoch_start {
            return;
        }
        let s = Sample {
            start: self.epoch_start,
            cycles: now - self.epoch_start,
            bus_ordered: g.bus_ordered - self.last_bus_ordered,
            net_sent: g.net_sent - self.last_net_sent,
            dir_ordered: g.dir_ordered - self.last_dir_ordered,
            dir_depth: g.dir_depth,
            net_depth: g.net_depth,
            snoop_depth: g.snoop_depth,
            mshrs: g.mshrs,
            deferred: g.deferred,
            active_nodes: g.active_nodes,
            idle_nodes: g.idle_nodes,
            spin_nodes: g.spin_nodes,
        };
        self.samples.push(s);
        self.last_bus_ordered = g.bus_ordered;
        self.last_net_sent = g.net_sent;
        self.last_dir_ordered = g.dir_ordered;
        self.epoch_start = now;
        // Next boundary: the next multiple of `epoch` past `now`.
        self.next_boundary = (now / self.epoch + 1) * self.epoch;
        if self.samples.len() >= self.config.max_samples {
            self.downsample();
        }
    }

    /// Closes the final partial epoch at end of run.
    pub fn finish(&mut self, now: Cycle, g: Gauges) {
        self.sample(now, g);
    }

    /// Halves the ring by merging adjacent samples and doubles the
    /// epoch, keeping memory bounded by `max_samples`.
    fn downsample(&mut self) {
        let mut merged = Vec::with_capacity(self.samples.len() / 2 + 1);
        let mut it = self.samples.chunks_exact(2);
        for pair in &mut it {
            let mut a = pair[0];
            a.absorb(&pair[1]);
            merged.push(a);
        }
        if let [odd] = it.remainder() {
            merged.push(*odd);
        }
        self.samples = merged;
        self.epoch *= 2;
        self.next_boundary = (self.epoch_start / self.epoch + 1) * self.epoch;
    }

    /// Closed samples, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Current epoch length in cycles (after any doublings).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whole-run bus utilization in `0.0 ..= 1.0`, given the
    /// per-transaction occupancy: exact, because occupancy windows
    /// never overlap.
    pub fn bus_utilization(&self, occupancy: u64) -> f64 {
        let cycles: u64 = self.samples.iter().map(|s| s.cycles).sum();
        let ordered: u64 = self.samples.iter().map(|s| s.bus_ordered).sum();
        if cycles == 0 {
            0.0
        } else {
            (ordered * occupancy) as f64 / cycles as f64
        }
    }

    /// High-water mark of a gauge across the whole timeline.
    pub fn peak<F: Fn(&Sample) -> usize>(&self, f: F) -> usize {
        self.samples.iter().map(f).max().unwrap_or(0)
    }

    /// [`Profiler::bus_utilization`] with the machine-installed
    /// occupancy ([`Profiler::bus_occupancy`]).
    pub fn utilization(&self) -> f64 {
        self.bus_utilization(self.bus_occupancy)
    }

    /// Whole-run mean per-bank directory occupancy in `0.0 ..= 1.0`,
    /// or 0 on snooping machines: each ordered request holds its home
    /// bank for the occupancy window, and banks order independently,
    /// so busy bank-cycles divide by `banks * elapsed`.
    pub fn dir_utilization(&self) -> f64 {
        if self.dir_banks == 0 {
            return 0.0;
        }
        let cycles: u64 = self.samples.iter().map(|s| s.cycles).sum();
        let ordered: u64 = self.samples.iter().map(|s| s.dir_ordered).sum();
        if cycles == 0 {
            0.0
        } else {
            (ordered * self.bus_occupancy) as f64 / (cycles * self.dir_banks as u64) as f64
        }
    }

    /// [`Profiler::saturation_verdict`] with the machine-installed
    /// occupancy.
    pub fn verdict(&self, procs: usize) -> String {
        self.saturation_verdict(self.bus_occupancy, procs)
    }

    /// A one-line saturation verdict for the report: names the
    /// resource that bounds the run.
    ///
    /// The thresholds are heuristic but deliberately simple: a bus
    /// past 80% utilization is the classic knee of a split-transaction
    /// bus; failing that, a majority-spin scheduling mix means the
    /// machine mostly waits on lock hand-offs; otherwise the cell is
    /// compute-bound.
    pub fn saturation_verdict(&self, occupancy: u64, procs: usize) -> String {
        // Directory machines have no bus; the saturating resource is
        // the mean home-bank occupancy instead.
        if self.dir_banks > 0 {
            let dir = self.dir_utilization();
            if dir >= 0.80 {
                return format!(
                    "directory-bound: {:.0}% mean bank occupancy ({} banks)",
                    dir * 100.0,
                    self.dir_banks
                );
            }
            let peak_spin = self.peak(|s| s.spin_nodes);
            if procs > 0 && peak_spin * 2 >= procs {
                return format!(
                    "contention-bound: up to {peak_spin}/{procs} nodes spinning, dir {:.0}%",
                    dir * 100.0
                );
            }
            return format!("compute-bound: dir {:.0}% mean bank occupancy", dir * 100.0);
        }
        let bus = self.bus_utilization(occupancy);
        if bus >= 0.80 {
            return format!("bus-bound: {:.0}% occupancy", bus * 100.0);
        }
        let peak_spin = self.peak(|s| s.spin_nodes);
        if procs > 0 && peak_spin * 2 >= procs {
            return format!(
                "contention-bound: up to {peak_spin}/{procs} nodes spinning, bus {:.0}%",
                bus * 100.0
            );
        }
        format!("compute-bound: bus {:.0}% occupancy", bus * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(bus_ordered: u64, active: usize) -> Gauges {
        Gauges { bus_ordered, active_nodes: active, ..Default::default() }
    }

    #[test]
    fn off_builds_no_profiler() {
        assert!(ProfConfig::off().profiler().is_none());
        assert_eq!(ProfConfig::default(), ProfConfig::off());
        assert!(ProfConfig::on().profiler().is_some());
    }

    #[test]
    fn samples_are_contiguous_and_delta_based() {
        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        assert_eq!(p.next_boundary(), 16);
        p.sample(16, g(3, 2));
        p.sample(32, g(10, 1));
        let s = p.samples();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].start, s[0].cycles, s[0].bus_ordered), (0, 16, 3));
        assert_eq!((s[1].start, s[1].cycles, s[1].bus_ordered), (16, 16, 7), "deltas, not totals");
        assert_eq!(p.next_boundary(), 48);
    }

    #[test]
    fn jumping_over_boundaries_produces_one_long_sample() {
        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        // The event engine slept from 0 to 100: one sample, aligned
        // boundary afterwards.
        p.sample(100, g(5, 0));
        assert_eq!(p.samples().len(), 1);
        assert_eq!(p.samples()[0].cycles, 100);
        assert_eq!(p.next_boundary(), 112);
        // Duplicate calls at the same cycle are no-ops.
        p.sample(100, g(5, 0));
        assert_eq!(p.samples().len(), 1);
    }

    #[test]
    fn ring_overflow_doubles_the_epoch() {
        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 2, max_samples: 4 });
        for i in 1..=4u64 {
            p.sample(i * 4, g(i, (i % 2) as usize));
        }
        // Fourth push hit max_samples: merged down to 2, epoch 4 -> 8.
        assert_eq!(p.samples().len(), 2);
        assert_eq!(p.epoch(), 8);
        let s = p.samples();
        assert_eq!((s[0].start, s[0].cycles), (0, 8));
        assert_eq!(s[0].bus_ordered, 2, "deltas add on merge");
        assert_eq!(s[0].active_nodes, 1, "gauges keep the high-water mark");
        assert_eq!(p.next_boundary(), 24);
        // Total coverage and totals survive any number of merges.
        let covered: u64 = s.iter().map(|x| x.cycles).sum();
        assert_eq!(covered, 16);
        let ordered: u64 = s.iter().map(|x| x.bus_ordered).sum();
        assert_eq!(ordered, 4);
    }

    #[test]
    fn bus_utilization_is_exact_from_deltas() {
        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        // 16 cycles, 2 transactions at occupancy 4 = 8 busy cycles.
        p.sample(16, g(2, 0));
        assert!((p.samples()[0].bus_utilization(4) - 0.5).abs() < 1e-12);
        p.sample(32, g(2, 0));
        assert!((p.bus_utilization(4) - 0.25).abs() < 1e-12);
        assert_eq!(Sample::default().bus_utilization(4), 0.0);
    }

    #[test]
    fn wake_histogram_and_breakdown() {
        let mut e = EngineProf::default();
        e.record_wake(WakeSource::Bus);
        e.record_wake(WakeSource::Bus);
        e.record_wake(WakeSource::IdleTimer);
        assert_eq!(e.total_wakes(), 3);
        let b = e.wake_breakdown();
        assert_eq!(b[1], ("bus grant", 2));
        assert_eq!(b[4], ("idle timer", 1));
        assert_eq!(WakeSource::ALL.len(), WakeSource::COUNT);
    }

    #[test]
    fn saturation_verdicts() {
        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        // 16 cycles, 4 transactions x occupancy 4 = 100% busy.
        p.sample(16, g(4, 0));
        assert!(p.saturation_verdict(4, 16).starts_with("bus-bound"));

        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        p.sample(16, Gauges { spin_nodes: 12, ..Default::default() });
        assert!(p.saturation_verdict(4, 16).starts_with("contention-bound"));

        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        p.sample(16, g(0, 1));
        assert!(p.saturation_verdict(4, 16).starts_with("compute-bound"));
    }

    #[test]
    fn directory_utilization_and_verdict() {
        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        p.bus_occupancy = 4;
        assert_eq!(p.dir_utilization(), 0.0, "snooping machines report zero");
        p.dir_banks = 2;
        // 16 cycles, 8 orders x occupancy 4 over 2 banks = 100% busy.
        p.sample(16, Gauges { dir_ordered: 8, ..Default::default() });
        assert!((p.dir_utilization() - 1.0).abs() < 1e-12);
        assert!(p.verdict(16).starts_with("directory-bound"), "{}", p.verdict(16));

        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        p.bus_occupancy = 4;
        p.dir_banks = 8;
        p.sample(16, Gauges { dir_ordered: 1, spin_nodes: 12, ..Default::default() });
        assert!(p.verdict(16).starts_with("contention-bound"));

        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        p.bus_occupancy = 4;
        p.dir_banks = 8;
        p.sample(16, Gauges { dir_ordered: 1, ..Default::default() });
        assert!(p.verdict(16).starts_with("compute-bound"));
    }

    #[test]
    fn dir_samples_are_delta_based_and_merge() {
        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 2, max_samples: 4 });
        for i in 1..=4u64 {
            p.sample(i * 4, Gauges { dir_ordered: i * 3, dir_depth: i as usize, ..Default::default() });
        }
        // Overflow merged 4 samples to 2: deltas add, depth high-waters.
        let s = p.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].dir_ordered, 6);
        assert_eq!(s[0].dir_depth, 2);
        let total: u64 = s.iter().map(|x| x.dir_ordered).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn peak_gauges() {
        let mut p = Profiler::new(ProfConfig { enabled: true, epoch_log2: 4, max_samples: 512 });
        p.sample(16, Gauges { mshrs: 3, ..Default::default() });
        p.sample(32, Gauges { mshrs: 9, ..Default::default() });
        p.sample(48, Gauges { mshrs: 1, ..Default::default() });
        assert_eq!(p.peak(|s| s.mshrs), 9);
        assert_eq!(p.peak(|s| s.net_depth), 0);
    }
}
