//! Pure MOESI transition rules.
//!
//! These functions encode, as side-effect-free tables, what a snooping
//! cache does to its own copy when another node's request is ordered
//! on the address bus, and what state a requester installs a fill in.
//! The *policy* decisions layered on top by TLR (defer vs. service)
//! live in `tlr-core`; the rules here are the plain protocol the paper
//! builds on without modification ("We do not require changes to the
//! coherence protocol state transitions", §3).

use tlr_sim::NodeId;

use crate::line::Moesi;
use crate::msg::{BusReqKind, DataGrant};

/// What a snooping cache must do to its copy of a line when another
/// node's request is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopOutcome {
    /// The state the local copy transitions to.
    pub next: Moesi,
    /// Whether this cache is responsible for supplying the data
    /// (it was the protocol owner).
    pub supply: bool,
}

/// Snoop transition for a *remote* request of `kind` against a local
/// copy in `state`.
///
/// # Panics
///
/// Panics on an impossible combination (e.g. snooping a remote
/// `Upgrade` while holding the line in Modified — the protocol cannot
/// produce it because an upgrade requester holds a Shared copy, which
/// excludes remote M/E).
pub fn snoop(state: Moesi, kind: BusReqKind) -> SnoopOutcome {
    use BusReqKind::*;
    use Moesi::*;
    match (state, kind) {
        (Invalid, _) => SnoopOutcome { next: Invalid, supply: false },
        // Writebacks from other nodes never touch our copy: the
        // writer held the only valid cached copy (M) or is the owner
        // of a shared line (O) and the write-back does not invalidate
        // sharers.
        (s, WriteBack) => SnoopOutcome { next: s, supply: false },
        // Remote GetS: owners supply; M degrades to Owned (dirty
        // shared), E degrades to Shared (clean), O and S stay.
        (Modified, GetS) => SnoopOutcome { next: Owned, supply: true },
        (Owned, GetS) => SnoopOutcome { next: Owned, supply: true },
        (Exclusive, GetS) => SnoopOutcome { next: Shared, supply: true },
        (Shared, GetS) => SnoopOutcome { next: Shared, supply: false },
        // Remote GetX: everyone invalidates; owners supply.
        (Modified, GetX) => SnoopOutcome { next: Invalid, supply: true },
        (Owned, GetX) => SnoopOutcome { next: Invalid, supply: true },
        (Exclusive, GetX) => SnoopOutcome { next: Invalid, supply: true },
        (Shared, GetX) => SnoopOutcome { next: Invalid, supply: false },
        // Remote Upgrade: requester already has data; sharers and the
        // owner invalidate without supplying.
        (Shared, Upgrade) => SnoopOutcome { next: Invalid, supply: false },
        (Owned, Upgrade) => SnoopOutcome { next: Invalid, supply: false },
        (Modified | Exclusive, Upgrade) => {
            unreachable!("remote Upgrade while holding M/E: requester would hold S, impossible")
        }
    }
}

/// The state a requester installs a fill in, given the request kind
/// and whether other caches held copies at order time.
pub fn fill_grant(kind: BusReqKind, other_sharers: bool, from_cache: bool) -> DataGrant {
    match kind {
        BusReqKind::GetX | BusReqKind::Upgrade => DataGrant::Modified,
        BusReqKind::GetS => {
            if other_sharers || from_cache {
                // A cache supplied (it retains O or degrades to S), or
                // other Shared copies exist.
                DataGrant::Shared
            } else {
                DataGrant::Exclusive
            }
        }
        BusReqKind::WriteBack => unreachable!("writebacks receive no fill"),
    }
}

/// What an ordering point decides for a data request: who supplies,
/// whether the grant must be Shared, and whether ownership moves. One
/// rule for both fabrics ([`dir_order`]): the snooping bus applies it
/// to its owner ledger and an exact scan of every cache, the directory
/// to the home entry's (owner, sharer-vector) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirOutcome {
    /// The cache designated to supply (the registered owner, when it
    /// is not the requester itself). `None` means memory supplies.
    pub supplier: Option<NodeId>,
    /// Whether any node other than the requester holds a copy —
    /// decides Shared vs. Exclusive grants. The bus's cache scan is
    /// exact; the directory's sharer vector is imprecise (silent clean
    /// evictions are never reported), so there this may be a stale
    /// positive; that only downgrades a grant from Exclusive to
    /// Shared, never the reverse.
    pub other_sharers: bool,
    /// Whether the requester is itself the registered owner (an Owned
    /// copy upgrading without a data transfer).
    pub self_owner: bool,
    /// Whether ownership moves to the requester at the ordering point:
    /// always for an exclusive request, and for a GetS granted with no
    /// supplier and no other sharers (the Exclusive grant).
    pub take_ownership: bool,
}

/// The ordering decision for a request of `kind` from `requester`,
/// given the registered `owner` and whether any *other* node holds a
/// copy (`other_holders`). `other_holders` is consulted only when
/// there is no supplier (a supplier already makes the grant Shared),
/// so a costly exact scan runs only where it can change the outcome.
///
/// Writebacks never come through here: they retire at the ordering
/// point without a grant (see `Directory::retire_writeback`).
pub fn dir_order(
    kind: BusReqKind,
    requester: NodeId,
    owner: Option<NodeId>,
    other_holders: impl FnOnce() -> bool,
) -> DirOutcome {
    debug_assert!(
        matches!(kind, BusReqKind::GetS | BusReqKind::GetX),
        "only data requests consult the ordering point's owner"
    );
    let supplier = owner.filter(|&o| o != requester);
    let other_sharers = supplier.is_some() || other_holders();
    DirOutcome {
        supplier,
        other_sharers,
        self_owner: owner == Some(requester),
        take_ownership: kind == BusReqKind::GetX || (supplier.is_none() && !other_sharers),
    }
}

/// The state a granted fill installs as.
pub fn grant_state(grant: DataGrant) -> Moesi {
    match grant {
        DataGrant::Shared => Moesi::Shared,
        DataGrant::Exclusive => Moesi::Exclusive,
        DataGrant::Modified => Moesi::Modified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BusReqKind::*;
    use Moesi::*;

    #[test]
    fn gets_snoop_table() {
        assert_eq!(snoop(Modified, GetS), SnoopOutcome { next: Owned, supply: true });
        assert_eq!(snoop(Owned, GetS), SnoopOutcome { next: Owned, supply: true });
        assert_eq!(snoop(Exclusive, GetS), SnoopOutcome { next: Shared, supply: true });
        assert_eq!(snoop(Shared, GetS), SnoopOutcome { next: Shared, supply: false });
        assert_eq!(snoop(Invalid, GetS), SnoopOutcome { next: Invalid, supply: false });
    }

    #[test]
    fn getx_snoop_table() {
        for (s, supplies) in [(Modified, true), (Owned, true), (Exclusive, true), (Shared, false)] {
            let out = snoop(s, GetX);
            assert_eq!(out.next, Invalid);
            assert_eq!(out.supply, supplies, "{s:?}");
        }
    }

    #[test]
    fn upgrade_snoop_table() {
        assert_eq!(snoop(Shared, Upgrade), SnoopOutcome { next: Invalid, supply: false });
        assert_eq!(snoop(Owned, Upgrade), SnoopOutcome { next: Invalid, supply: false });
        assert_eq!(snoop(Invalid, Upgrade), SnoopOutcome { next: Invalid, supply: false });
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn upgrade_against_modified_is_impossible() {
        snoop(Modified, Upgrade);
    }

    #[test]
    fn writeback_leaves_others_untouched() {
        for s in [Invalid, Shared, Exclusive, Owned, Modified] {
            assert_eq!(snoop(s, WriteBack).next, s);
            assert!(!snoop(s, WriteBack).supply);
        }
    }

    #[test]
    fn fill_grants() {
        assert_eq!(fill_grant(GetX, true, true), DataGrant::Modified);
        assert_eq!(fill_grant(Upgrade, false, false), DataGrant::Modified);
        assert_eq!(fill_grant(GetS, true, false), DataGrant::Shared);
        assert_eq!(fill_grant(GetS, false, true), DataGrant::Shared);
        assert_eq!(fill_grant(GetS, false, false), DataGrant::Exclusive);
    }

    #[test]
    fn grant_states() {
        assert_eq!(grant_state(DataGrant::Shared), Shared);
        assert_eq!(grant_state(DataGrant::Exclusive), Exclusive);
        assert_eq!(grant_state(DataGrant::Modified), Modified);
    }

    #[test]
    fn dir_order_mirrors_the_snooping_ledger() {
        // No owner, no sharers: GetS takes ownership (Exclusive grant).
        let d = dir_order(GetS, 1, None, || false);
        assert_eq!((d.supplier, d.other_sharers, d.self_owner, d.take_ownership), (None, false, false, true));
        // A remote owner supplies and keeps ownership on GetS...
        let d = dir_order(GetS, 1, Some(0), || true);
        assert_eq!(d.supplier, Some(0));
        assert!(d.other_sharers && !d.take_ownership && !d.self_owner);
        // ...but loses it on GetX.
        let d = dir_order(GetX, 1, Some(0), || true);
        assert_eq!(d.supplier, Some(0));
        assert!(d.other_sharers && d.take_ownership);
        // The requester re-reading its own line is not its own supplier.
        let d = dir_order(GetS, 0, Some(0), || false);
        assert_eq!(d.supplier, None);
        assert!(d.self_owner);
        assert!(!d.other_sharers, "self-ownership is not an other-sharer");
        // Sharers without an owner force a Shared grant, no ownership.
        let d = dir_order(GetS, 1, None, || true);
        assert_eq!((d.supplier, d.other_sharers, d.self_owner, d.take_ownership), (None, true, false, false));
        // GetX always takes ownership, even from a cold entry.
        assert!(dir_order(GetX, 2, None, || false).take_ownership);
        // A supplier decides the grant alone: no holder scan runs.
        let d = dir_order(GetS, 1, Some(0), || unreachable!("scanned despite a supplier"));
        assert!(d.other_sharers);
    }

    #[test]
    fn snoop_never_invents_permissions() {
        // Property: a snoop outcome never grants more rights than the
        // original state had.
        fn rank(s: Moesi) -> u8 {
            match s {
                Invalid => 0,
                Shared => 1,
                Owned => 2,
                Exclusive => 3,
                Modified => 4,
            }
        }
        for s in [Invalid, Shared, Owned] {
            for k in [GetS, GetX, Upgrade, WriteBack] {
                assert!(rank(snoop(s, k).next) <= rank(s));
            }
        }
        for s in [Exclusive, Modified] {
            for k in [GetS, GetX, WriteBack] {
                assert!(rank(snoop(s, k).next) <= rank(s));
            }
        }
    }
}
