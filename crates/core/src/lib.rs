//! Transactional Lock Removal (TLR).
//!
//! This crate implements the paper's primary contribution — Rajwar &
//! Goodman, *Transactional Lock-Free Execution of Lock-Based
//! Programs*, ASPLOS 2002 — on top of the substrate crates:
//!
//! * [`sle`] — Speculative Lock Elision: the silent store-pair
//!   predictor, elision stack and misspeculation classification;
//! * [`rmw`] — the PC-indexed read-modify-write predictor of §3.1.2;
//! * [`node`] — per-processor coherence-controller state (Figure 5);
//! * [`machine`] — the simulated multiprocessor running the TLR
//!   algorithm of Figure 3: timestamped transactional misses,
//!   deferral of later-timestamp conflicting requests, marker/probe
//!   priority propagation (§3.1.1), the single-block relaxation
//!   (§3.2), resource fallback (§3.3) and the §4 stability hooks;
//! * [`run`] — the workload harness used by tests, examples and the
//!   benchmark suite.
//!
//! # Quickstart
//!
//! ```
//! use std::collections::HashSet;
//! use std::sync::Arc;
//! use tlr_core::Machine;
//! use tlr_cpu::Asm;
//! use tlr_mem::Addr;
//! use tlr_sim::config::{MachineConfig, Scheme};
//!
//! // One processor stores 42 and reads it back.
//! let mut a = Asm::new("demo");
//! let (v, addr) = (a.reg(), a.reg());
//! a.li(v, 42);
//! a.li(addr, 0x1000);
//! a.store(v, addr, 0);
//! a.done();
//!
//! let cfg = MachineConfig::paper_default(Scheme::Tlr, 1);
//! let mut m = Machine::new(cfg, vec![Arc::new(a.finish())], HashSet::new());
//! m.run().expect("quiesces");
//! assert_eq!(m.final_word(Addr(0x1000)), 42);
//! ```

mod fabric;
pub mod machine;
pub mod node;
pub mod os;
pub mod policy;
pub mod rmw;
pub mod run;
pub mod sle;

pub use machine::{Machine, SimTimeout};
pub use os::{run_preemptive, Preemption, PreemptionReport};
pub use policy::{
    policy_for, ConflictPolicy, KarmaSize, LazySubscription, SeededBackoff, TimestampOrder,
};
pub use rmw::RmwPredictor;
pub use run::{build_machine, run_workload, RunReport, WorkloadSpec};
pub use sle::{AbortKind, ElidedLock, StorePairPredictor, Txn};

// Re-export the timestamp types: conceptually they belong to TLR
// (§2.1.2) even though they live in `tlr-mem` so coherence messages
// can carry them.
pub use tlr_mem::timestamp::{LogicalClock, Prio, Timestamp};
