//! Coherence messages.
//!
//! The address network carries [`BusRequest`]s (broadcast, ordered);
//! the data network carries [`NetMsg`]s point-to-point: data
//! responses, and the TLR-specific *marker* and *probe* messages of
//! §3.1.1 ("Marker messages are directed messages sent in response to
//! a request for a block under conflict for which data is not provided
//! immediately"; probes "propagate a conflict request upstream in a
//! cache coherence protocol chain").

use tlr_sim::{Cycle, NodeId};

use crate::addr::LineAddr;
use crate::line::LineData;
use crate::timestamp::Timestamp;

/// The kind of an address-bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusReqKind {
    /// Read a shared copy.
    GetS,
    /// Read an exclusive copy (the paper's `rd_X`).
    GetX,
    /// Upgrade an existing Shared copy to Modified without a data
    /// transfer.
    Upgrade,
    /// Write a dirty evicted line back to the shared L2/memory.
    WriteBack,
}

impl BusReqKind {
    /// Whether the request demands exclusive ownership.
    pub fn is_exclusive(self) -> bool {
        matches!(self, BusReqKind::GetX | BusReqKind::Upgrade)
    }
}

/// One address-bus transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusRequest {
    /// The requesting node.
    pub requester: NodeId,
    /// The line concerned.
    pub line: LineAddr,
    /// Transaction kind.
    pub kind: BusReqKind,
    /// The requester's transaction timestamp, if the request was
    /// generated within a transaction ("Misses generated within a
    /// transaction carry a timestamp", §3).
    pub ts: Option<Timestamp>,
    /// Contention-manager credit riding along with the timestamp
    /// (meaningful only under the karma conflict policy; 0 otherwise).
    pub karma: u32,
    /// Writeback payload (present only for [`BusReqKind::WriteBack`]).
    pub wb_data: Option<LineData>,
    /// Cycle the request entered bus arbitration (for queueing
    /// statistics).
    pub enqueued_at: Cycle,
}

impl BusRequest {
    /// The home directory bank responsible for ordering this request:
    /// lines are interleaved across banks by low-order line address,
    /// so hot lines on different addresses land on different ordering
    /// points.
    pub fn home_bank(&self, banks: usize) -> usize {
        (self.line.0 % banks as u64) as usize
    }
}

/// The coherence state granted to a requester when its data arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataGrant {
    /// Install in Shared.
    Shared,
    /// Install in Exclusive (clean, no other sharers).
    Exclusive,
    /// Install in Modified (response to GetX/Upgrade).
    Modified,
}

/// A point-to-point message on the data network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMsg {
    /// A data response completing an outstanding miss.
    Data {
        /// Destination node.
        to: NodeId,
        /// The filled line.
        line: LineAddr,
        /// Line contents.
        data: LineData,
        /// State to install the line in.
        grant: DataGrant,
    },
    /// Marker (§3.1.1): tells `to` that `from` holds the block (or is
    /// ordered before it) and is not supplying data immediately, so
    /// `to` knows its upstream neighbour in the chain.
    Marker {
        /// Destination (the downstream requester).
        to: NodeId,
        /// Sender (the upstream holder).
        from: NodeId,
        /// The block concerned.
        line: LineAddr,
    },
    /// Negative acknowledgement (the NACK-based retention policy of
    /// §3): the owner refuses to supply; the requester must retry its
    /// bus request.
    Nack {
        /// Destination (the refused requester).
        to: NodeId,
        /// The block concerned.
        line: LineAddr,
    },
    /// Probe (§3.1.1): propagates a conflicting request's timestamp
    /// upstream toward the cache that actually holds the data, so that
    /// a lower-priority holder releases ownership and breaks the
    /// cyclic wait.
    Probe {
        /// Destination (the upstream neighbour).
        to: NodeId,
        /// The block concerned.
        line: LineAddr,
        /// Timestamp of the conflicting (downstream) request.
        ts: Timestamp,
        /// Contention-manager credit of the conflicting request
        /// (karma policy only; 0 otherwise).
        karma: u32,
    },
}

impl NetMsg {
    /// The destination node of the message.
    pub fn destination(&self) -> NodeId {
        match *self {
            NetMsg::Data { to, .. }
            | NetMsg::Marker { to, .. }
            | NetMsg::Probe { to, .. }
            | NetMsg::Nack { to, .. } => to,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusivity() {
        assert!(!BusReqKind::GetS.is_exclusive());
        assert!(BusReqKind::GetX.is_exclusive());
        assert!(BusReqKind::Upgrade.is_exclusive());
        assert!(!BusReqKind::WriteBack.is_exclusive());
    }

    #[test]
    fn destinations() {
        let d = NetMsg::Data {
            to: 3,
            line: LineAddr(1),
            data: LineData::zeroed(),
            grant: DataGrant::Modified,
        };
        assert_eq!(d.destination(), 3);
        let m = NetMsg::Marker { to: 1, from: 0, line: LineAddr(9) };
        assert_eq!(m.destination(), 1);
        let p = NetMsg::Probe { to: 2, line: LineAddr(9), ts: Timestamp::new(0, 0), karma: 0 };
        assert_eq!(p.destination(), 2);
    }
}
