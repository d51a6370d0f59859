//! Hermetic verification subsystem for the TLR reproduction.
//!
//! Everything the repository previously outsourced to `proptest`,
//! `rand` and `criterion` lives here, with zero external dependencies,
//! so the whole workspace builds and tests offline:
//!
//! * [`source`] / [`gen`] — a minimal property-testing engine:
//!   composable generators draw from a recorded *choice stream* backed
//!   by [`tlr_sim::SimRng`] (SplitMix64), so every generated case is a
//!   pure function of a printed seed;
//! * [`shrink`] — a greedy choice-sequence shrinker: failures are
//!   minimized by deleting, zeroing and lowering recorded draws, which
//!   shrinks *through* any combinator composition;
//! * [`prop`] — the case runner: configurable case counts
//!   (`TLR_CHECK_CASES`), seed override (`TLR_CHECK_SEED`), panics
//!   converted into failures, and a reproduction line printed with
//!   every minimized counterexample. Case seeds are a pure function of
//!   (root seed, case index), so [`prop::check_with_pool`] can fan
//!   cases out across the [`tlr_sim::pool`] worker threads while
//!   reporting exactly what the serial runner would;
//! * [`oracle`] — the serializability oracle: a workload family whose
//!   critical sections are replayed under a single global lock in
//!   Rust (the serial reference) and additionally replayed in the
//!   machine's observed commit order, both compared word-for-word
//!   against the simulated machine's final memory;
//! * [`fuzz`] — the schedule-exploration fuzzer: perturbs seeds,
//!   per-run latencies, schemes, retention policies, processor counts
//!   and cache geometries, and reports the smallest failing
//!   (seed, config) pair via the shrinker;
//! * [`timing`] — a small host-time benchmark harness (mean / median /
//!   iteration counts, optional JSON output) replacing `criterion` for
//!   `tlr-perf`'s kernel suite;
//! * [`diff`] — the differential engine-equivalence harness: runs a
//!   machine under both the discrete-event engine and the
//!   cycle-stepped oracle and demands byte-identical stats, traces,
//!   and final cycles, with a lockstep replay that reports the first
//!   divergent cycle.

pub mod diff;
pub mod fuzz;
pub mod gen;
pub mod oracle;
pub mod prop;
pub mod shrink;
pub mod source;
pub mod timing;

pub use prop::{check, check_with, check_with_pool, Config};
pub use source::Source;
