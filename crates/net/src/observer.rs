//! Zero-cost engine observation hooks.
//!
//! A [`SimObserver`] is attached to a [`Simulator`](crate::Simulator) at
//! build time and receives a callback for every engine-level occurrence:
//! events being scheduled and dispatched, frames entering and leaving the
//! air, MAC state transitions, and the life cycle of data packets
//! (origination, delivery, drop). The observer is a *type parameter* of the
//! simulator, so the default [`NoopObserver`] monomorphizes every hook to
//! nothing — the release hot path is identical to a simulator without hooks.
//!
//! [`GoldenDigest`](crate::GoldenDigest) folds the observed event stream
//! into a digest, and the `cavenet-testkit` crate builds an invariant
//! checker on top of this trait.

use crate::fault::FaultKind;
use crate::mac::MacState;
use crate::packet::Frame;
use crate::{NodeId, SimTime};
use cavenet_rng::wire::{WireError, WireReader, WireWriter};

/// Classes of engine events, mirroring the internal event enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// A signal starts arriving at a receiver.
    RxStart = 0,
    /// A signal finishes arriving at a receiver.
    RxEnd = 1,
    /// A transmission leaves the sender's antenna completely.
    TxEnd = 2,
    /// A MAC-layer timer (DIFS, backoff, ACK timeout, NAV, …).
    MacTimer = 3,
    /// A routing-protocol timer.
    RoutingTimer = 4,
    /// An application timer.
    AppTimer = 5,
    /// A scheduled fault (node crash or recovery) from a
    /// [`FaultPlan`](crate::FaultPlan).
    Fault = 6,
}

/// Why a frame that was on the air never became a reception at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FrameDropReason {
    /// The frame was corrupted by overlapping transmissions (or the
    /// receiver transmitted over it).
    Collision = 0,
    /// The signal was sensed but never locked onto (below the reception
    /// threshold, or the receiver was already locked elsewhere).
    BelowThreshold = 1,
    /// The receiver crashed while the frame was in flight.
    NodeDown = 2,
}

/// Why a network-layer data packet was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DropReason {
    /// The MAC interface queue was full.
    QueueOverflow = 0,
    /// The MAC exhausted its retry limit and the routing protocol did not
    /// salvage the packet.
    RetryLimit = 1,
    /// No route to the destination (and the protocol does not buffer).
    NoRoute = 2,
    /// The packet's TTL reached zero.
    TtlExpired = 3,
    /// The packet waited in a routing buffer longer than allowed.
    QueueTimeout = 4,
    /// Route discovery gave up after its retry budget.
    DiscoveryFailed = 5,
    /// The node holding the packet (in its MAC queue or routing buffer)
    /// crashed.
    NodeDown = 6,
}

/// Milestones in the life of an on-demand route discovery, reported through
/// [`SimObserver::on_route_event`].
///
/// Proactive protocols (OLSR, DSDV) maintain routes continuously and emit
/// no route events; reactive protocols (AODV, DYMO) report the full
/// discovery life cycle, which is what lets a telemetry layer count
/// discovery storms without parsing control packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RouteEventKind {
    /// A fresh route discovery towards a destination began (first RREQ).
    DiscoveryStart = 0,
    /// An ongoing discovery was retried (expanding-ring or flood retry).
    DiscoveryRetry = 1,
    /// A discovery completed: the origin installed a route.
    DiscoverySuccess = 2,
    /// A discovery exhausted its retry budget without a route.
    DiscoveryFailure = 3,
}

/// Observer of engine-level activity.
///
/// All methods have empty default bodies; implement only what you need.
/// Packet-level hooks (`on_packet_*`) fire for application **data** packets
/// only — routing control traffic is visible through the frame-level hooks.
///
/// Implementations are monomorphized into the simulator: with the
/// [`NoopObserver`] every call site compiles away, and the engine skips its
/// own bookkeeping (the scheduled-event log) when [`SimObserver::ENABLED`]
/// is `false`.
pub trait SimObserver {
    /// Compile-time switch: when `false` the engine does not even record
    /// the data the hooks would receive. Leave at the default `true` for
    /// any real observer.
    const ENABLED: bool = true;

    /// An event was pushed onto the future event list.
    fn on_event_scheduled(&mut self, at: SimTime, seq: u64, node: usize, kind: EventKind) {
        let _ = (at, seq, node, kind);
    }

    /// An event reached the head of the queue and is about to execute.
    fn on_event_dispatched(&mut self, now: SimTime, seq: u64, node: usize, kind: EventKind) {
        let _ = (now, seq, node, kind);
    }

    /// Node `node` put `frame` on the air.
    fn on_frame_tx(&mut self, now: SimTime, node: usize, frame: &Frame) {
        let _ = (now, node, frame);
    }

    /// Node `node` decoded `frame` cleanly.
    fn on_frame_rx(&mut self, now: SimTime, node: usize, frame: &Frame) {
        let _ = (now, node, frame);
    }

    /// A reception at `node` ended without a decode.
    fn on_frame_drop(&mut self, now: SimTime, node: usize, reason: FrameDropReason) {
        let _ = (now, node, reason);
    }

    /// The DCF state machine of `node` moved from `from` to `to`.
    fn on_mac_transition(&mut self, now: SimTime, node: NodeId, from: MacState, to: MacState) {
        let _ = (now, node, from, to);
    }

    /// A data packet entered the network (assigned its unique id).
    fn on_packet_originated(&mut self, now: SimTime, node: NodeId, uid: u64) {
        let _ = (now, node, uid);
    }

    /// A data packet reached its destination application.
    fn on_packet_delivered(&mut self, now: SimTime, node: NodeId, uid: u64) {
        let _ = (now, node, uid);
    }

    /// A data packet was discarded at `node`.
    fn on_packet_dropped(&mut self, now: SimTime, node: NodeId, uid: u64, reason: DropReason) {
        let _ = (now, node, uid, reason);
    }

    /// A [`FaultPlan`](crate::FaultPlan) event took effect: `node` crashed
    /// or recovered. Fires after the engine applied the state change (so a
    /// crash's `NodeDown` packet drops arrive *after* this hook).
    fn on_fault(&mut self, now: SimTime, node: NodeId, kind: FaultKind) {
        let _ = (now, node, kind);
    }

    /// A routing protocol at `node` reported a route-discovery milestone
    /// towards `dst` (see [`NodeApi::note_route_event`](crate::NodeApi::note_route_event)).
    fn on_route_event(&mut self, now: SimTime, node: NodeId, dst: NodeId, kind: RouteEventKind) {
        let _ = (now, node, dst, kind);
    }

    /// Serialize the observer's accumulated state for a checkpoint, so
    /// that an observer resumed in a fresh process continues exactly where
    /// the captured one stopped (a resumed digest must equal the digest of
    /// an uninterrupted run). Stateless observers keep the empty default.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the state cannot be serialized.
    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        let _ = w;
        Ok(())
    }

    /// Overwrite the observer's state from a snapshot produced by
    /// [`capture_state`](Self::capture_state).
    ///
    /// # Errors
    ///
    /// [`WireError`] on a truncated or malformed stream.
    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let _ = r;
        Ok(())
    }
}

/// The default observer: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_disabled() {
        const { assert!(!NoopObserver::ENABLED) }
    }

    #[test]
    fn default_methods_are_callable() {
        struct Minimal;
        impl SimObserver for Minimal {}
        const { assert!(Minimal::ENABLED) }
        let mut m = Minimal;
        m.on_event_scheduled(SimTime::ZERO, 1, 0, EventKind::MacTimer);
        m.on_frame_drop(SimTime::ZERO, 0, FrameDropReason::Collision);
        m.on_packet_dropped(SimTime::ZERO, NodeId(0), 1, DropReason::NoRoute);
    }

    #[test]
    fn reason_codes_are_stable() {
        // The golden digest folds these discriminants; they are part of
        // the golden-fixture contract and must never be renumbered.
        assert_eq!(EventKind::RxStart as u8, 0);
        assert_eq!(EventKind::AppTimer as u8, 5);
        assert_eq!(EventKind::Fault as u8, 6);
        assert_eq!(FrameDropReason::BelowThreshold as u8, 1);
        assert_eq!(FrameDropReason::NodeDown as u8, 2);
        assert_eq!(DropReason::DiscoveryFailed as u8, 5);
        assert_eq!(DropReason::NodeDown as u8, 6);
        assert_eq!(FaultKind::Crash as u8, 0);
        assert_eq!(FaultKind::Recover as u8, 1);
        assert_eq!(RouteEventKind::DiscoveryStart as u8, 0);
        assert_eq!(RouteEventKind::DiscoveryFailure as u8, 3);
    }
}
