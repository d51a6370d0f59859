//! Point-to-point pipelined data network (Table 2: 20-cycle latency).
//!
//! Messages are delivered exactly `latency` cycles after being sent,
//! in sending order among messages delivered on the same cycle, which
//! keeps the whole simulation deterministic. An installed
//! [`NetFault`] hook may delay individual deliveries by a bounded,
//! seed-derived amount — which reorders them relative to later sends
//! within the jitter window — while the whole run stays a pure
//! function of the configuration.

use tlr_sim::events::EventQueue;
use tlr_sim::fault::NetFault;
use tlr_sim::Cycle;

/// A delayed delivery queue over the [`EventQueue`] calendar: the
/// queue's monotone tie-break id *is* the send order, so same-cycle
/// deliveries drain in sending order by construction.
#[derive(Debug, Clone)]
pub struct Network<T> {
    inflight: EventQueue<T>,
    /// Total messages ever sent (the profiler's traffic counter).
    sent: u64,
    fault: Option<NetFault>,
}

impl<T> Default for Network<T> {
    fn default() -> Self {
        Network { inflight: EventQueue::new(), sent: 0, fault: None }
    }
}

impl<T> Network<T> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a delivery-jitter fault hook (chaos runs only).
    pub fn set_fault(&mut self, fault: Option<NetFault>) {
        self.fault = fault;
    }

    /// Number of deliveries the fault hook has delayed.
    pub fn fault_injections(&self) -> u64 {
        self.fault.as_ref().map_or(0, NetFault::injected)
    }

    /// Schedules `msg` for delivery at cycle `deliver_at` (or later,
    /// when an installed fault hook delays it).
    pub fn send(&mut self, deliver_at: Cycle, msg: T) {
        let deliver_at = match &mut self.fault {
            Some(f) => f.perturb(deliver_at),
            None => deliver_at,
        };
        self.sent += 1;
        self.inflight.push(deliver_at, msg);
    }

    /// Total messages ever sent over this network's lifetime.
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Removes and returns every message due at or before `now`,
    /// ordered by (delivery cycle, send order).
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<T> {
        let mut ready = Vec::new();
        while let Some(msg) = self.inflight.pop_due(now) {
            ready.push(msg);
        }
        ready
    }

    /// Removes and returns the earliest message due at or before
    /// `now`, if any — the allocation-free form of
    /// [`Network::drain_ready`] for per-cycle delivery loops.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        self.inflight.pop_due(now)
    }

    /// The delivery cycle of the earliest in-flight message, if any
    /// (the event engine's wake source for the data network).
    pub fn next_ready(&self) -> Option<Cycle> {
        self.inflight.next_cycle()
    }

    /// Number of undelivered messages.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_at_due_cycle() {
        let mut n = Network::new();
        n.send(10, "a");
        n.send(5, "b");
        assert!(n.drain_ready(4).is_empty());
        assert_eq!(n.drain_ready(5), vec!["b"]);
        assert_eq!(n.drain_ready(100), vec!["a"]);
        assert!(n.is_empty());
    }

    #[test]
    fn same_cycle_preserves_send_order() {
        let mut n = Network::new();
        n.send(3, 1);
        n.send(3, 2);
        n.send(3, 3);
        assert_eq!(n.drain_ready(3), vec![1, 2, 3]);
    }

    #[test]
    fn next_ready_reports_the_earliest_delivery() {
        let mut n = Network::new();
        assert_eq!(n.next_ready(), None);
        n.send(10, "a");
        n.send(5, "b");
        assert_eq!(n.next_ready(), Some(5));
        n.drain_ready(5);
        assert_eq!(n.next_ready(), Some(10));
    }

    #[test]
    fn len_tracks_inflight() {
        let mut n = Network::new();
        n.send(1, ());
        n.send(2, ());
        assert_eq!(n.len(), 2);
        assert_eq!(n.sent_count(), 2);
        n.drain_ready(1);
        assert_eq!(n.len(), 1);
        assert_eq!(n.sent_count(), 2, "sent_count never decreases");
    }

    #[test]
    fn fault_hook_delays_but_never_drops() {
        use tlr_sim::fault::FaultConfig;
        let mut n = Network::new();
        n.set_fault(FaultConfig::intensity(3, 4).net_fault());
        let total = 500u64;
        for i in 0..total {
            n.send(i, i);
        }
        assert_eq!(n.len(), total as usize, "jitter must not lose messages");
        assert!(n.fault_injections() > 0, "intensity 4 must delay some sends");
        let window = FaultConfig::intensity(3, 4).net_delay_max + 1;
        let mut delivered: Vec<u64> = Vec::new();
        for now in 0..total + window {
            delivered.extend(n.drain_ready(now));
        }
        assert_eq!(delivered.len(), total as usize);
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        assert_ne!(delivered, sorted, "some deliveries must be reordered");
        // Reordering is bounded by the jitter window.
        for (pos, &msg) in delivered.iter().enumerate() {
            assert!((pos as u64).abs_diff(msg) <= window + 1);
        }
    }

    #[test]
    fn no_fault_hook_is_the_identity() {
        let mut a = Network::new();
        let mut b = Network::new();
        b.set_fault(None);
        for i in 0..100u64 {
            a.send(i, i);
            b.send(i, i);
        }
        assert_eq!(a.drain_ready(200), b.drain_ready(200));
        assert_eq!(a.fault_injections(), 0);
    }
}
