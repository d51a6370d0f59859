//! Simulation kernel for the TLR reproduction.
//!
//! This crate holds the pieces shared by every other crate in the
//! workspace: the machine configuration ([`config::MachineConfig`],
//! modeled on Table 2 of the paper), a deterministic random number
//! generator ([`rng::SimRng`]), cycle statistics and histogram
//! aggregates ([`stats`]), a bounded event trace ([`trace`]), the
//! span layer that folds it into transaction lifecycles ([`span`]),
//! zero-dependency JSON export backends ([`export`], [`json`]), the
//! deterministic parallel execution engine that fans independent
//! simulation cells out to worker threads with submission-order
//! result merging ([`pool`]), and the seed-derived fault-injection
//! layer that perturbs the memory fabric off its happy path
//! ([`fault`]).
//!
//! The simulator is deterministic by construction: every source of
//! "randomness" (fairness delays after lock releases, latency
//! perturbation per Alameldeen et al. \[1\]) is driven by [`rng::SimRng`]
//! seeded from the run configuration.
//!
//! # Example
//!
//! ```
//! use tlr_sim::config::{MachineConfig, Scheme};
//!
//! let cfg = MachineConfig::paper_default(Scheme::Tlr, 16);
//! assert_eq!(cfg.num_procs, 16);
//! assert!(cfg.scheme.elision_enabled());
//! ```

pub mod config;
pub mod events;
pub mod export;
pub mod fault;
pub mod json;
pub mod pool;
pub mod prof;
pub mod rng;
pub mod span;
pub mod stats;
pub mod trace;

pub use config::{
    Engine, LatencyConfig, MachineConfig, MachineConfigBuilder, Scheme, UntimestampedPolicy,
};
pub use events::EventQueue;
pub use fault::{BusFault, FaultConfig, FaultPlan, NetFault};
pub use pool::{CancelToken, CellCoords, CellError, CellResult, Job, Pool};
pub use prof::{ProfConfig, Profiler, WakeSource};
pub use rng::SimRng;
pub use span::{SpanLog, SpanOutcome, TxnSpan};
pub use stats::{FaultStats, MachineStats, NodeStats};

/// A simulation cycle number. The whole machine advances in lockstep,
/// one [`Cycle`] at a time.
pub type Cycle = u64;

/// Identifies a processor node (core + L1 + coherence controller).
pub type NodeId = usize;
