//! Memory system for the TLR reproduction.
//!
//! This crate contains the passive building blocks of the simulated
//! shared-memory multiprocessor of §5.3 / Table 2 of the paper:
//!
//! * [`addr`] — addresses and 64-byte cache-line geometry,
//! * [`line`](mod@line) — MOESI states and cache lines with the per-line
//!   transactional *access bits* of Figure 5,
//! * [`cache`] — set-associative L1 with LRU replacement,
//! * [`victim`] — the small fully-associative victim cache of §3.3,
//! * [`wb`] — the speculative write buffer that holds transactional
//!   updates until commit,
//! * [`storebuf`] — the non-speculative store buffer (TSO),
//! * [`mshr`] — miss status handling registers, including the
//!   intervention chains of §3.1.1,
//! * [`msg`] — coherence requests, data responses, and the marker and
//!   probe messages of §3.1.1,
//! * [`protocol`] — the pure MOESI transition rules,
//! * [`bus`] — the ordered, split-transaction broadcast address bus,
//! * [`directory`] — the banked home-node directory, the scalable
//!   alternative ordering fabric to the bus,
//! * [`network`] — the point-to-point pipelined data network,
//! * [`memsys`] — the shared L2 and backing memory,
//! * [`timestamp`] — TLR's globally unique timestamps (§2.1.2),
//!   including fixed-width rollover comparison.
//!
//! The *active* logic — who defers whom, when transactions restart —
//! lives in `tlr-core`, which assembles these parts into a machine.
//! Everything here is individually unit-tested.

pub mod addr;
pub mod bus;
pub mod cache;
pub mod directory;
pub mod line;
pub mod memsys;
pub mod mshr;
pub mod msg;
pub mod network;
pub mod protocol;
pub mod storebuf;
pub mod timestamp;
pub mod victim;
pub mod wb;

pub use addr::{Addr, LineAddr, WordHash, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use bus::Bus;
pub use cache::Cache;
pub use directory::{DirEntry, Directory, NodeSet, OrderDecision};
pub use line::{CacheLine, LineData, Moesi};
pub use memsys::MemorySystem;
pub use mshr::{Intervention, Interventions, MshrEntry, MshrFile, RetryTimers};
pub use msg::{BusReqKind, BusRequest, DataGrant, NetMsg};
pub use network::Network;
pub use storebuf::StoreBuffer;
pub use timestamp::Timestamp;
pub use victim::VictimCache;
pub use wb::WriteBuffer;
