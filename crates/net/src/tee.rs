//! Combining two observers into one.

use cavenet_rng::wire::{WireError, WireReader, WireWriter};

use crate::fault::FaultKind;
use crate::mac::MacState;
use crate::observer::{DropReason, EventKind, FrameDropReason, RouteEventKind, SimObserver};
use crate::packet::Frame;
use crate::{NodeId, SimTime};

/// An observer that forwards every hook to both of its members, letting a
/// single run feed e.g. a telemetry observer and a
/// [`GoldenDigest`](crate::GoldenDigest) simultaneously. Nest it for more
/// than two.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: SimObserver, B: SimObserver> SimObserver for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_event_scheduled(&mut self, at: SimTime, seq: u64, node: usize, kind: EventKind) {
        self.0.on_event_scheduled(at, seq, node, kind);
        self.1.on_event_scheduled(at, seq, node, kind);
    }

    fn on_event_dispatched(&mut self, now: SimTime, seq: u64, node: usize, kind: EventKind) {
        self.0.on_event_dispatched(now, seq, node, kind);
        self.1.on_event_dispatched(now, seq, node, kind);
    }

    fn on_frame_tx(&mut self, now: SimTime, node: usize, frame: &Frame) {
        self.0.on_frame_tx(now, node, frame);
        self.1.on_frame_tx(now, node, frame);
    }

    fn on_frame_rx(&mut self, now: SimTime, node: usize, frame: &Frame) {
        self.0.on_frame_rx(now, node, frame);
        self.1.on_frame_rx(now, node, frame);
    }

    fn on_frame_drop(&mut self, now: SimTime, node: usize, reason: FrameDropReason) {
        self.0.on_frame_drop(now, node, reason);
        self.1.on_frame_drop(now, node, reason);
    }

    fn on_mac_transition(&mut self, now: SimTime, node: NodeId, from: MacState, to: MacState) {
        self.0.on_mac_transition(now, node, from, to);
        self.1.on_mac_transition(now, node, from, to);
    }

    fn on_packet_originated(&mut self, now: SimTime, node: NodeId, uid: u64) {
        self.0.on_packet_originated(now, node, uid);
        self.1.on_packet_originated(now, node, uid);
    }

    fn on_packet_delivered(&mut self, now: SimTime, node: NodeId, uid: u64) {
        self.0.on_packet_delivered(now, node, uid);
        self.1.on_packet_delivered(now, node, uid);
    }

    fn on_packet_dropped(&mut self, now: SimTime, node: NodeId, uid: u64, reason: DropReason) {
        self.0.on_packet_dropped(now, node, uid, reason);
        self.1.on_packet_dropped(now, node, uid, reason);
    }

    fn on_fault(&mut self, now: SimTime, node: NodeId, kind: FaultKind) {
        self.0.on_fault(now, node, kind);
        self.1.on_fault(now, node, kind);
    }

    fn on_route_event(&mut self, now: SimTime, node: NodeId, dst: NodeId, kind: RouteEventKind) {
        self.0.on_route_event(now, node, dst, kind);
        self.1.on_route_event(now, node, dst, kind);
    }

    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.0.capture_state(w)?;
        self.1.capture_state(w)
    }

    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.0.restore_state(r)?;
        self.1.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GoldenDigest;

    #[test]
    fn tee_feeds_both() {
        let mut tee = Tee(GoldenDigest::new(), GoldenDigest::new());
        tee.on_event_dispatched(SimTime::from_nanos(1), 1, 0, EventKind::MacTimer);
        assert_eq!(tee.0.value(), tee.1.value());
        assert_eq!(tee.0.events(), 1);
        assert_ne!(tee.0.value(), GoldenDigest::new().value());
    }
}
