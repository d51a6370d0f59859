//! Shared command-line parsing for the figure/table/exp binaries.
//!
//! Every binary accepts the same core surface — `--quick`, `--check`,
//! `--procs`, `--seeds`, `--csv`, `--json`, `--out`, `--jobs`, and the
//! four machine flags `--engine`, `--interconnect`, `--policy`,
//! `--profile`. [`Args`] parses it once; binaries with extra flags
//! (`tlr-trace`'s workload selection, `exp_robustness`'s
//! `--faults`/`--fault-seed`) layer them on top through the `extra`
//! hook of [`Args::parse_with`] without re-implementing the core.
//!
//! The machine flags reach the simulator by value: [`Args::base`]
//! turns them into one [`MachineConfigBuilder`], and every experiment
//! cell, check and tool derives its configuration from that base.
//! There is no process-wide default to set or to read.

use std::path::PathBuf;

use tlr_core::run::WorkloadSpec;
use tlr_sim::config::{
    Engine, Interconnect, MachineConfig, MachineConfigBuilder, PolicyKind, Scheme,
};
use tlr_sim::fault::FaultConfig;
use tlr_sim::pool::Pool;
use tlr_sim::prof::ProfConfig;
use tlr_workloads::apps::{mp3d, mp3d_coarse};
use tlr_workloads::micro::{doubly_linked_list, multiple_counter, single_counter};

/// Default root seed for the chaos sweep's fault streams (arbitrary,
/// fixed so `exp_robustness` output is reproducible out of the box).
pub const DEFAULT_FAULT_SEED: u64 = 0xc4a0_5eed;

/// The runaway-simulation budget every experiment cell runs under
/// (far above any real cell; `exp_policies` tightens it so a
/// livelocking policy fails in wall-clock reach).
pub const SWEEP_MAX_CYCLES: u64 = 60_000_000_000;

/// The shared flag surface, printed by `--help`. Binaries with extra
/// flags print their own section first and append this one.
pub const CORE_USAGE: &str = "\
shared flags:
  --quick         smaller work totals (CI-sized, ~seconds per series)
  --check         run the golden-shape check instead of the sweep
  --procs A,B,..  processor counts to sweep
  --seeds N       seeds to average over
  --csv PATH      also write the results as CSV
  --json PATH     also write the results as JSON
  --out PATH      generic output path
  --jobs N        worker threads (default: TLR_JOBS or host parallelism)
  --engine E      simulation engine: event (default) | cycle
  --interconnect I  coherence interconnect: snooping (bus, <= 16 procs)
                  | directory (home-node banks, <= 256 procs);
                  binaries pick their own default
  --profile       collect utilization timelines, engine self-profiling,
                  and saturation columns (off: byte-identical output)
  --policy P      conflict policy: timestamp (default, the paper's
                  ordering) | backoff | karma | lazy-sub";

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Processor counts to sweep (x-axis of Figures 8-10).
    pub procs: Vec<usize>,
    /// Work scale divisor: 1 for the default, larger for `--quick`.
    pub quick: bool,
    /// Number of seeds to average over (the Alameldeen methodology:
    /// perturbed runs instead of a single sample).
    pub seeds: u64,
    /// Optional path to also write the results as CSV (for plotting).
    pub csv: Option<PathBuf>,
    /// Optional path to also write the results as JSON (for tooling;
    /// with `--check`, the check verdict is written instead).
    pub json: Option<PathBuf>,
    /// Optional generic output path (`--out`; `tlr-trace` writes its
    /// Perfetto trace here).
    pub out: Option<PathBuf>,
    /// Run the binary's golden-shape check instead of the full sweep.
    pub check: bool,
    /// Worker count for the parallel execution engine (`--jobs N`);
    /// `None` falls back to `TLR_JOBS` or the host parallelism.
    pub jobs: Option<usize>,
    /// Maximum fault intensity for chaos sweeps (`--faults`, parsed
    /// only by [`chaos_flags`]; `exp_robustness` sweeps levels
    /// `0..=faults`).
    pub faults: u32,
    /// Root seed for the fault streams (`--fault-seed`, parsed only by
    /// [`chaos_flags`]).
    pub fault_seed: u64,
    /// Simulation engine (`--engine event|cycle`); the discrete-event
    /// engine is the default, the cycle-stepped oracle is kept for
    /// differential checks and benchmarking.
    pub engine: Engine,
    /// Coherence interconnect (`--interconnect snooping|directory`).
    /// The snooping bus is the paper's 16-way machine; the home-node
    /// directory scales to 256 processors (`exp_scalability` defaults
    /// to it). Every entry of `procs` must fit the selected
    /// interconnect's `max_procs`.
    pub interconnect: Interconnect,
    /// Enable the profiling layer (`--profile`): every machine the
    /// binary builds collects the utilization timeline and engine
    /// self-profile, and sweep outputs grow saturation columns.
    /// Off by default — unprofiled output is byte-identical to a
    /// build without the profiler.
    pub profile: bool,
    /// Conflict policy (`--policy timestamp|backoff|karma|lazy-sub`):
    /// which contention manager every machine the binary builds uses.
    /// The default, timestamp order, is the paper's algorithm and is
    /// byte-identical to a build without the policy layer.
    pub policy: PolicyKind,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            procs: vec![1, 2, 4, 8, 12, 16],
            quick: false,
            seeds: 1,
            csv: None,
            json: None,
            out: None,
            check: false,
            jobs: None,
            faults: FaultConfig::MAX_INTENSITY,
            fault_seed: DEFAULT_FAULT_SEED,
            engine: Engine::default(),
            interconnect: Interconnect::Snooping,
            profile: false,
            policy: PolicyKind::Timestamp,
        }
    }
}

/// Cursor over the raw argument tokens, handed to the `extra` hook of
/// [`Args::parse_with`] so binary-specific flags can pull their
/// values with the same error style as the core flags.
pub struct ArgStream {
    tokens: Vec<String>,
    i: usize,
}

impl ArgStream {
    /// Next token, consumed as the value of `flag`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message when the value is missing.
    pub fn value(&mut self, flag: &str) -> String {
        let v = self.tokens.get(self.i).unwrap_or_else(|| panic!("{flag} needs a value"));
        self.i += 1;
        v.clone()
    }
}

impl Args {
    /// Parses the process arguments, starting from `defaults` (an
    /// experiment's own defaults, e.g. `exp_scalability`'s directory
    /// sweep, or [`Args::default`]) and offering each flag to `extra`
    /// first, so binaries can both add flags and override a core
    /// flag's meaning; unclaimed flags fall through to the core
    /// parser. `extra` returns whether it consumed the flag.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse_with(defaults: Args, extra: impl FnMut(&mut Args, Flag<'_>) -> bool) -> Self {
        Self::parse_tokens_with(defaults, std::env::args().skip(1).collect(), extra)
    }

    /// [`Args::parse_with`] from [`Args::default`] over an explicit
    /// token list (tests).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse_tokens(
        tokens: Vec<String>,
        extra: impl FnMut(&mut Args, Flag<'_>) -> bool,
    ) -> Self {
        Self::parse_tokens_with(Args::default(), tokens, extra)
    }

    /// [`Args::parse_with`] over an explicit token list.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments, including a
    /// `--procs` entry above the selected interconnect's processor
    /// maximum.
    pub fn parse_tokens_with(
        defaults: Args,
        tokens: Vec<String>,
        mut extra: impl FnMut(&mut Args, Flag<'_>) -> bool,
    ) -> Self {
        let mut opts = defaults;
        let mut s = ArgStream { tokens, i: 0 };
        while s.i < s.tokens.len() {
            let arg = s.tokens[s.i].clone();
            s.i += 1;
            if extra(&mut opts, Flag { name: &arg, stream: &mut s }) {
                continue;
            }
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--check" => opts.check = true,
                "--procs" => {
                    opts.procs = s
                        .value("--procs")
                        .split(',')
                        .map(|p| p.parse().unwrap_or_else(|_| panic!("bad proc count {p:?}")))
                        .collect();
                }
                "--seeds" => {
                    opts.seeds = s.value("--seeds").parse().expect("bad seed count");
                    assert!(opts.seeds >= 1, "--seeds must be at least 1");
                }
                "--csv" => opts.csv = Some(PathBuf::from(s.value("--csv"))),
                "--json" => opts.json = Some(PathBuf::from(s.value("--json"))),
                "--out" => opts.out = Some(PathBuf::from(s.value("--out"))),
                "--jobs" => {
                    let n: usize = s.value("--jobs").parse().expect("bad job count");
                    assert!(n >= 1, "--jobs must be at least 1");
                    opts.jobs = Some(n);
                }
                "--engine" => {
                    opts.engine = Engine::parse(&s.value("--engine")).unwrap_or_else(|e| panic!("{e}"));
                }
                "--interconnect" => {
                    opts.interconnect = Interconnect::parse(&s.value("--interconnect"))
                        .unwrap_or_else(|e| panic!("{e}"));
                }
                "--profile" => opts.profile = true,
                "--policy" => {
                    opts.policy =
                        PolicyKind::parse(&s.value("--policy")).unwrap_or_else(|e| panic!("{e}"));
                }
                "--help" | "-h" => {
                    println!("{CORE_USAGE}");
                    std::process::exit(0);
                }
                other => {
                    panic!(
                        "unknown argument {other:?} (supported: --quick, --check, --procs, \
                         --seeds, --csv, --json, --out, --jobs, --engine, --interconnect, \
                         --profile, --policy, plus any binary-specific flags)"
                    )
                }
            }
        }
        for &p in &opts.procs {
            assert!(
                p <= opts.interconnect.max_procs(),
                "--procs {p} exceeds the {} interconnect's {}-processor maximum{}",
                opts.interconnect,
                opts.interconnect.max_procs(),
                if opts.interconnect == Interconnect::Snooping {
                    " (pass --interconnect directory for larger machines)"
                } else {
                    ""
                }
            );
        }
        opts
    }

    /// The machine every cell of this invocation starts from: Table 2
    /// with the `--engine`, `--interconnect`, `--policy` and
    /// `--profile` choices applied and the [`SWEEP_MAX_CYCLES`]
    /// budget. Cells derive from it with builder setters (scheme,
    /// processor count, the knob under study).
    pub fn base(&self) -> MachineConfigBuilder {
        MachineConfig::builder()
            .engine(self.engine)
            .interconnect(self.interconnect)
            .policy(self.policy)
            .profile(if self.profile { ProfConfig::on() } else { ProfConfig::off() })
            .max_cycles(SWEEP_MAX_CYCLES)
    }

    /// Scales a default work total down for quick mode.
    pub fn scale(&self, full: u64) -> u64 {
        if self.quick {
            (full / 16).max(64)
        } else {
            full
        }
    }

    /// The worker pool these options select (`--jobs`, then `TLR_JOBS`,
    /// then the host's available parallelism).
    pub fn pool(&self) -> Pool {
        Pool::new(tlr_sim::pool::resolve_jobs(self.jobs))
    }

    /// The fault configuration at one intensity `level` of the chaos
    /// sweep, rooted at this invocation's `--fault-seed`.
    pub fn fault_config(&self, level: u32) -> FaultConfig {
        FaultConfig::intensity(self.fault_seed, level)
    }
}

/// One flag offered to an [`Args::parse_with`] hook: its name and the
/// stream to pull values from.
pub struct Flag<'a> {
    /// The flag token, e.g. `--workload`.
    pub name: &'a str,
    /// Cursor for consuming the flag's value(s).
    pub stream: &'a mut ArgStream,
}

impl Flag<'_> {
    /// Consumes and returns this flag's value.
    ///
    /// # Panics
    ///
    /// Panics with a usage message when the value is missing.
    pub fn value(&mut self) -> String {
        let name = self.name.to_string();
        self.stream.value(&name)
    }
}

/// The `--scheme` value of the single-machine tools (`tlr-trace`,
/// `tlr-profile`).
///
/// # Panics
///
/// Panics with the accepted spellings on an unknown scheme.
pub fn parse_scheme(s: &str) -> Scheme {
    match s {
        "base" => Scheme::Base,
        "mcs" => Scheme::Mcs,
        "sle" => Scheme::Sle,
        "tlr" => Scheme::Tlr,
        "tlr_strict_ts" => Scheme::TlrStrictTs,
        other => panic!("unknown scheme {other:?} (base|mcs|sle|tlr|tlr_strict_ts)"),
    }
}

/// The `--workload` of the single-machine tools: `total` work items
/// over `procs` processors (`cells` sizes the mp3d kernels).
///
/// # Panics
///
/// Panics with the accepted names on an unknown workload.
pub fn tool_workload(name: &str, procs: usize, total: u64, cells: u64) -> Box<dyn WorkloadSpec> {
    match name {
        "single_counter" => Box::new(single_counter(procs, total)),
        "multiple_counter" => Box::new(multiple_counter(procs, total)),
        "linked_list" => Box::new(doubly_linked_list(procs, total)),
        "mp3d" => Box::new(mp3d(procs, total, cells)),
        "mp3d_coarse" => Box::new(mp3d_coarse(procs, total, cells)),
        other => panic!(
            "unknown workload {other:?} \
             (single_counter|multiple_counter|linked_list|mp3d|mp3d_coarse)"
        ),
    }
}

/// The `extra` hook of binaries without flags of their own.
pub fn no_extra_flags(_: &mut Args, _: Flag<'_>) -> bool {
    false
}

/// The `extra` hook implementing `--faults` / `--fault-seed`.
pub fn chaos_flags(opts: &mut Args, mut flag: Flag<'_>) -> bool {
    match flag.name {
        "--faults" => {
            opts.faults = flag.value().parse().expect("bad fault intensity");
            assert!(
                opts.faults <= FaultConfig::MAX_INTENSITY,
                "--faults must be at most {}",
                FaultConfig::MAX_INTENSITY
            );
            true
        }
        "--fault-seed" => {
            let v = flag.value();
            opts.fault_seed = v
                .strip_prefix("0x")
                .map_or_else(|| v.parse(), |h| u64::from_str_radix(h, 16))
                .expect("bad fault seed");
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn core_flags_parse() {
        let a = Args::parse_tokens(
            toks("--quick --check --procs 1,2,4 --seeds 3 --jobs 2 --json x.json --out t.json"),
            |_, _| false,
        );
        assert!(a.quick && a.check);
        assert_eq!(a.procs, vec![1, 2, 4]);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.jobs, Some(2));
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("x.json")));
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("t.json")));
    }

    #[test]
    fn engine_flag_parses_both_engines_and_defaults_to_event() {
        assert_eq!(Args::parse_tokens(vec![], |_, _| false).engine, Engine::EventDriven);
        let a = Args::parse_tokens(toks("--engine cycle"), |_, _| false);
        assert_eq!(a.engine, Engine::CycleStepped);
        let b = Args::parse_tokens(toks("--engine event-driven"), |_, _| false);
        assert_eq!(b.engine, Engine::EventDriven);
        let c = Args::parse_tokens(toks("--engine cycle-stepped --quick"), |_, _| false);
        assert_eq!(c.engine, Engine::CycleStepped);
        assert!(c.quick);
    }

    #[test]
    #[should_panic(expected = "unknown engine")]
    fn bad_engine_value_is_rejected() {
        Args::parse_tokens(toks("--engine warp"), |_, _| false);
    }

    #[test]
    fn policy_flag_parses_all_kinds_and_defaults_to_timestamp() {
        assert_eq!(Args::parse_tokens(vec![], |_, _| false).policy, PolicyKind::Timestamp);
        for (tok, want) in [
            ("timestamp", PolicyKind::Timestamp),
            ("backoff", PolicyKind::Backoff),
            ("karma", PolicyKind::Karma),
            ("lazy-sub", PolicyKind::LazySub),
        ] {
            let a = Args::parse_tokens(toks(&format!("--policy {tok}")), |_, _| false);
            assert_eq!(a.policy, want, "--policy {tok}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn bad_policy_value_is_rejected() {
        Args::parse_tokens(toks("--policy coinflip"), |_, _| false);
    }

    #[test]
    fn profile_flag_parses_and_defaults_off() {
        assert!(!Args::parse_tokens(vec![], |_, _| false).profile);
        let a = Args::parse_tokens(toks("--profile --quick"), |_, _| false);
        assert!(a.profile && a.quick);
    }

    #[test]
    fn machine_flags_reach_the_base_config() {
        let a = Args::parse_tokens(
            toks("--engine cycle --interconnect directory --policy karma --profile"),
            |_, _| false,
        );
        let cfg = a.base().build();
        assert_eq!(cfg.engine, Engine::CycleStepped);
        assert_eq!(cfg.interconnect, Interconnect::Directory);
        assert_eq!(cfg.policy, PolicyKind::Karma);
        assert_eq!(cfg.profile, ProfConfig::on());
        assert_eq!(cfg.max_cycles, SWEEP_MAX_CYCLES);
        // Without the flags the base is the paper's machine.
        assert_eq!(
            Args::default().base().build(),
            MachineConfig::builder().max_cycles(SWEEP_MAX_CYCLES).build()
        );
    }

    #[test]
    fn defaults_match_the_old_bench_opts() {
        let a = Args::parse_tokens(vec![], |_, _| false);
        assert_eq!(a.procs, vec![1, 2, 4, 8, 12, 16]);
        assert!(!a.quick && !a.check);
        assert_eq!(a.seeds, 1);
        assert_eq!(a.jobs, None);
        assert_eq!(a.faults, FaultConfig::MAX_INTENSITY);
        assert_eq!(a.fault_seed, DEFAULT_FAULT_SEED);
        assert_eq!(a.interconnect, Interconnect::Snooping);
    }

    #[test]
    fn interconnect_flag_parses_and_lifts_the_proc_ceiling() {
        let a = Args::parse_tokens(toks("--interconnect directory --procs 32,64,256"), |_, _| false);
        assert_eq!(a.interconnect, Interconnect::Directory);
        assert_eq!(a.procs, vec![32, 64, 256]);
        let b = Args::parse_tokens(toks("--interconnect bus --procs 16"), |_, _| false);
        assert_eq!(b.interconnect, Interconnect::Snooping);
    }

    #[test]
    #[should_panic(expected = "exceeds the snooping interconnect's 16-processor maximum")]
    fn procs_above_the_bus_limit_are_rejected() {
        Args::parse_tokens(toks("--procs 32"), |_, _| false);
    }

    #[test]
    #[should_panic(expected = "exceeds the directory interconnect's 256-processor maximum")]
    fn procs_above_the_directory_limit_are_rejected() {
        Args::parse_tokens(toks("--interconnect directory --procs 512"), |_, _| false);
    }

    #[test]
    #[should_panic(expected = "unknown interconnect")]
    fn bad_interconnect_value_is_rejected() {
        Args::parse_tokens(toks("--interconnect mesh"), |_, _| false);
    }

    #[test]
    fn binary_defaults_seed_the_parse_and_flags_still_override() {
        let scalability = || Args {
            procs: vec![32, 64, 128, 256],
            interconnect: Interconnect::Directory,
            ..Default::default()
        };
        let a = Args::parse_tokens_with(scalability(), vec![], |_, _| false);
        assert_eq!(a.procs, vec![32, 64, 128, 256]);
        assert_eq!(a.interconnect, Interconnect::Directory);
        let b = Args::parse_tokens_with(scalability(), toks("--procs 8,48 --quick"), |_, _| false);
        assert_eq!(b.procs, vec![8, 48]);
        assert!(b.quick);
        assert_eq!(b.interconnect, Interconnect::Directory, "defaults survive other flags");
    }

    #[test]
    #[should_panic(expected = "pass --interconnect directory for larger machines")]
    fn binary_defaults_still_validate_the_proc_ceiling() {
        // Forcing the bus back on under a 32-proc default sweep must
        // fail loudly, not overflow the broadcast fabric.
        let defaults = Args { procs: vec![32, 64], ..Default::default() };
        Args::parse_tokens_with(defaults, vec![], |_, _| false);
    }

    #[test]
    fn chaos_flags_parse_decimal_and_hex() {
        let a = Args::parse_tokens(toks("--faults 2 --fault-seed 0xdead --quick"), chaos_flags);
        assert_eq!(a.faults, 2);
        assert_eq!(a.fault_seed, 0xdead);
        assert!(a.quick);
        let b = Args::parse_tokens(toks("--fault-seed 17"), chaos_flags);
        assert_eq!(b.fault_seed, 17);
        assert_eq!(b.fault_config(0), FaultConfig::off());
        assert_eq!(b.fault_config(2), FaultConfig::intensity(17, 2));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flags_are_rejected() {
        Args::parse_tokens(toks("--bogus"), |_, _| false);
    }

    #[test]
    #[should_panic(expected = "--faults must be at most")]
    fn overlarge_fault_intensity_is_rejected() {
        Args::parse_tokens(toks("--faults 9"), chaos_flags);
    }

    #[test]
    fn extra_hook_wins_over_core() {
        // A binary may claim a core flag for itself (tlr-trace's
        // single-valued --procs).
        let mut seen = None;
        let a = Args::parse_tokens(toks("--procs 7 --quick"), |_, mut f| {
            if f.name == "--procs" {
                seen = Some(f.value());
                true
            } else {
                false
            }
        });
        assert_eq!(seen.as_deref(), Some("7"));
        assert_eq!(a.procs, vec![1, 2, 4, 8, 12, 16], "core never saw it");
        assert!(a.quick);
    }

    #[test]
    fn scaling() {
        let quick = Args { quick: true, ..Default::default() };
        let full = Args::default();
        assert_eq!(full.scale(1 << 14), 1 << 14);
        assert_eq!(quick.scale(1 << 14), 1 << 10);
        assert_eq!(quick.scale(100), 64, "quick floor");
    }
}
