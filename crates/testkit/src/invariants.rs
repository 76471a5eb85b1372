//! Runtime validation of engine invariants.

use std::collections::{HashMap, HashSet};

use cavenet_net::{DropReason, EventKind, FaultKind, MacState, NodeId, SimObserver, SimTime};

/// Cap on recorded violation messages (counters keep counting past it).
const MAX_RECORDED: usize = 64;

/// Final balance of the packet-conservation ledger.
///
/// Every data packet that enters the network (`originated`) must end in
/// exactly one *first* fate: `delivered` or `dropped`; packets still
/// buffered when the simulation stops are `outstanding`. Later fates of an
/// already-fated uid (possible at the MAC layer: a lost ACK makes the
/// sender retransmit a frame the receiver already delivered) are counted as
/// `duplicate_fates`, not violations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerReport {
    /// Data packets that entered the network.
    pub originated: u64,
    /// Packets whose first fate was delivery to the destination app.
    pub delivered: u64,
    /// Packets whose first fate was a drop (any [`DropReason`]).
    pub dropped: u64,
    /// Packets originated but unfated when observation ended.
    pub outstanding: u64,
    /// Additional fates observed for already-fated uids (MAC duplicates).
    pub duplicate_fates: u64,
}

impl LedgerReport {
    /// Whether the ledger balances: `originated = delivered + dropped +
    /// outstanding`.
    pub fn balanced(&self) -> bool {
        self.originated == self.delivered + self.dropped + self.outstanding
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Delivered,
    Dropped,
}

/// A [`SimObserver`] that checks engine invariants as the simulation runs:
///
/// 1. **Monotonic time** — dispatched events never move the clock backwards.
/// 2. **Unique sequence numbers** — no event is dispatched twice.
/// 3. **Legal MAC transitions** — each node's DCF state machine only takes
///    edges that exist in the 802.11 DCF implementation.
/// 4. **Packet conservation** — see [`LedgerReport`].
///
/// Violations are collected (up to a cap), not panicked on, so a test can
/// report all of them at once via [`assert_clean`](Self::assert_clean).
#[derive(Debug, Default)]
pub struct InvariantChecker {
    last_dispatch: Option<SimTime>,
    dispatched: u64,
    seen_seq: HashSet<u64>,
    mac_state: HashMap<u32, MacState>,
    mac_transitions: u64,
    live: HashSet<u64>,
    fated: HashMap<u64, Fate>,
    duplicate_fates: u64,
    crashes: u64,
    recoveries: u64,
    down_nodes: HashSet<u32>,
    violation_count: u64,
    violations: Vec<String>,
}

impl InvariantChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total violations detected (may exceed the recorded messages).
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Recorded violation messages (the first 64).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Number of events dispatched while observing.
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of MAC state transitions observed.
    pub fn mac_transitions(&self) -> u64 {
        self.mac_transitions
    }

    /// Fault events observed: `(crashes, recoveries)`.
    pub fn faults(&self) -> (u64, u64) {
        (self.crashes, self.recoveries)
    }

    /// The current conservation-ledger balance.
    pub fn ledger(&self) -> LedgerReport {
        let delivered = self
            .fated
            .values()
            .filter(|&&f| f == Fate::Delivered)
            .count() as u64;
        let dropped = self.fated.values().filter(|&&f| f == Fate::Dropped).count() as u64;
        LedgerReport {
            originated: self.live.len() as u64 + self.fated.len() as u64,
            delivered,
            dropped,
            outstanding: self.live.len() as u64,
            duplicate_fates: self.duplicate_fates,
        }
    }

    /// Panic with every recorded violation if any invariant was broken.
    pub fn assert_clean(&self) {
        assert!(
            self.violation_count == 0,
            "{} invariant violation(s):\n{}",
            self.violation_count,
            self.violations.join("\n")
        );
        let ledger = self.ledger();
        assert!(ledger.balanced(), "ledger does not balance: {ledger:?}");
    }

    fn violation(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(msg);
        }
    }

    fn settle(&mut self, uid: u64, fate: Fate, what: &str, node: NodeId, now: SimTime) {
        if self.live.remove(&uid) {
            self.fated.insert(uid, fate);
        } else if self.fated.contains_key(&uid) {
            // A MAC-layer duplicate (e.g. retransmission after a lost ACK)
            // reached a second fate. Informational, not a violation.
            self.duplicate_fates += 1;
        } else {
            self.violation(format!(
                "packet {uid} {what} at node {} t={now:?} without origination",
                node.0
            ));
        }
    }
}

/// The legal edges of the DCF state machine in `cavenet-net::mac`.
///
/// `WaitIdle -> Idle` exists only on the crash-flush path: a node that
/// crashes while parked behind a busy medium snaps straight back to `Idle`.
fn legal_transition(from: MacState, to: MacState) -> bool {
    use MacState::*;
    matches!(
        (from, to),
        (Idle, WaitIdle)
            | (Idle, WaitDifs)
            | (WaitIdle, WaitDifs)
            | (WaitIdle, Idle)
            | (WaitDifs, Backoff)
            | (WaitDifs, Transmitting)
            | (WaitDifs, WaitIdle)
            | (WaitDifs, Idle)
            | (Backoff, Transmitting)
            | (Backoff, WaitIdle)
            | (Backoff, Idle)
            | (Transmitting, WaitAck)
            | (Transmitting, WaitCts)
            | (Transmitting, Idle)
            | (Transmitting, WaitIdle)
            | (Transmitting, WaitDifs)
            | (WaitAck, Idle)
            | (WaitAck, WaitIdle)
            | (WaitAck, WaitDifs)
            | (WaitCts, Idle)
            | (WaitCts, WaitIdle)
            | (WaitCts, WaitDifs)
            | (WaitCts, Transmitting)
    )
}

impl SimObserver for InvariantChecker {
    fn on_event_dispatched(&mut self, now: SimTime, seq: u64, node: usize, kind: EventKind) {
        self.dispatched += 1;
        if let Some(last) = self.last_dispatch {
            if now < last {
                self.violation(format!(
                    "time went backwards: {now:?} after {last:?} (seq {seq}, node {node}, {kind:?})"
                ));
            }
        }
        self.last_dispatch = Some(now);
        if !self.seen_seq.insert(seq) {
            self.violation(format!(
                "event seq {seq} dispatched twice (node {node}, {kind:?})"
            ));
        }
    }

    fn on_mac_transition(&mut self, now: SimTime, node: NodeId, from: MacState, to: MacState) {
        self.mac_transitions += 1;
        let current = *self.mac_state.get(&node.0).unwrap_or(&MacState::Idle);
        if current != from {
            self.violation(format!(
                "node {} transition {from:?}->{to:?} at {now:?} but tracked state is {current:?}",
                node.0
            ));
        }
        if !legal_transition(from, to) {
            self.violation(format!(
                "node {} illegal MAC transition {from:?}->{to:?} at {now:?}",
                node.0
            ));
        }
        self.mac_state.insert(node.0, to);
    }

    fn on_packet_originated(&mut self, now: SimTime, node: NodeId, uid: u64) {
        if self.live.contains(&uid) {
            self.violation(format!(
                "uid {uid} re-originated at node {} t={now:?} while still live",
                node.0
            ));
            return;
        }
        if self.fated.contains_key(&uid) {
            self.violation(format!(
                "uid {uid} re-originated at node {} t={now:?} after its fate",
                node.0
            ));
            return;
        }
        self.live.insert(uid);
    }

    fn on_packet_delivered(&mut self, now: SimTime, node: NodeId, uid: u64) {
        self.settle(uid, Fate::Delivered, "delivered", node, now);
    }

    fn on_packet_dropped(&mut self, now: SimTime, node: NodeId, uid: u64, reason: DropReason) {
        self.settle(uid, Fate::Dropped, "dropped", node, now);
        let _ = reason;
    }

    fn on_fault(&mut self, now: SimTime, node: NodeId, kind: FaultKind) {
        match kind {
            FaultKind::Crash => {
                self.crashes += 1;
                if !self.down_nodes.insert(node.0) {
                    self.violation(format!(
                        "node {} crashed at {now:?} while already down",
                        node.0
                    ));
                }
            }
            FaultKind::Recover => {
                self.recoveries += 1;
                if !self.down_nodes.remove(&node.0) {
                    self.violation(format!(
                        "node {} recovered at {now:?} without a preceding crash",
                        node.0
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_passes() {
        let mut c = InvariantChecker::new();
        c.on_event_dispatched(SimTime::from_nanos(1), 1, 0, EventKind::MacTimer);
        c.on_event_dispatched(SimTime::from_nanos(2), 2, 0, EventKind::TxEnd);
        c.on_mac_transition(
            SimTime::from_nanos(1),
            NodeId(0),
            MacState::Idle,
            MacState::WaitDifs,
        );
        c.on_packet_originated(SimTime::from_nanos(1), NodeId(0), 10);
        c.on_packet_delivered(SimTime::from_nanos(2), NodeId(1), 10);
        c.assert_clean();
        let l = c.ledger();
        assert_eq!(l.originated, 1);
        assert_eq!(l.delivered, 1);
        assert_eq!(l.outstanding, 0);
        assert!(l.balanced());
    }

    #[test]
    fn backwards_time_is_caught() {
        let mut c = InvariantChecker::new();
        c.on_event_dispatched(SimTime::from_nanos(5), 1, 0, EventKind::MacTimer);
        c.on_event_dispatched(SimTime::from_nanos(4), 2, 0, EventKind::MacTimer);
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn duplicate_seq_is_caught() {
        let mut c = InvariantChecker::new();
        c.on_event_dispatched(SimTime::from_nanos(1), 7, 0, EventKind::MacTimer);
        c.on_event_dispatched(SimTime::from_nanos(1), 7, 0, EventKind::MacTimer);
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn illegal_mac_transition_is_caught() {
        let mut c = InvariantChecker::new();
        // Idle -> Transmitting skips carrier sensing: not an edge.
        c.on_mac_transition(
            SimTime::ZERO,
            NodeId(0),
            MacState::Idle,
            MacState::Transmitting,
        );
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn fate_without_origination_is_caught() {
        let mut c = InvariantChecker::new();
        c.on_packet_delivered(SimTime::ZERO, NodeId(0), 99);
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn mac_duplicate_fate_is_informational() {
        let mut c = InvariantChecker::new();
        c.on_packet_originated(SimTime::ZERO, NodeId(0), 1);
        c.on_packet_delivered(SimTime::ZERO, NodeId(1), 1);
        c.on_packet_delivered(SimTime::ZERO, NodeId(1), 1); // retransmit dup
        assert_eq!(c.violation_count(), 0);
        assert_eq!(c.ledger().duplicate_fates, 1);
        assert!(c.ledger().balanced());
    }

    /// Regression for the crash-time ledger fix. The pre-fix checker failed
    /// this stream twice over: `WaitIdle -> Idle` (the crash-flush edge of a
    /// node parked behind a busy medium) was not in the legal-transition
    /// map, and the flushed packet reached no fate, leaving the ledger with
    /// a phantom outstanding packet after the run drained.
    #[test]
    fn crash_flush_stream_settles_the_ledger() {
        let mut c = InvariantChecker::new();
        c.on_packet_originated(SimTime::from_nanos(1), NodeId(0), 1);
        c.on_mac_transition(
            SimTime::from_nanos(1),
            NodeId(0),
            MacState::Idle,
            MacState::WaitIdle,
        );
        c.on_fault(SimTime::from_nanos(2), NodeId(0), FaultKind::Crash);
        // Crash flush: the MAC snaps back to Idle and the held packet gets
        // its terminal fate.
        c.on_mac_transition(
            SimTime::from_nanos(2),
            NodeId(0),
            MacState::WaitIdle,
            MacState::Idle,
        );
        c.on_packet_dropped(SimTime::from_nanos(2), NodeId(0), 1, DropReason::NodeDown);
        c.on_fault(SimTime::from_nanos(5), NodeId(0), FaultKind::Recover);
        c.assert_clean();
        let l = c.ledger();
        assert_eq!(l.outstanding, 0, "crashed-node packet must be fated");
        assert!(l.balanced());
        assert_eq!(c.faults(), (1, 1));
    }

    #[test]
    fn unmatched_fault_lifecycle_is_caught() {
        let mut c = InvariantChecker::new();
        c.on_fault(SimTime::ZERO, NodeId(3), FaultKind::Recover);
        assert_eq!(c.violation_count(), 1);
        let mut c = InvariantChecker::new();
        c.on_fault(SimTime::ZERO, NodeId(3), FaultKind::Crash);
        c.on_fault(SimTime::from_nanos(1), NodeId(3), FaultKind::Crash);
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn outstanding_packets_balance() {
        let mut c = InvariantChecker::new();
        c.on_packet_originated(SimTime::ZERO, NodeId(0), 1);
        c.on_packet_originated(SimTime::ZERO, NodeId(0), 2);
        c.on_packet_dropped(SimTime::ZERO, NodeId(0), 1, DropReason::NoRoute);
        let l = c.ledger();
        assert_eq!(l.originated, 2);
        assert_eq!(l.dropped, 1);
        assert_eq!(l.outstanding, 1);
        assert!(l.balanced());
    }
}
