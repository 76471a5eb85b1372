//! Folding an observed event stream into a stable 64-bit digest.

use cavenet_rng::fnv::Fnv64;
use cavenet_rng::wire::{WireError, WireReader, WireWriter};

use crate::fault::FaultKind;
use crate::mac::{MacState, MacStats};
use crate::node::NodeStats;
use crate::observer::{DropReason, EventKind, FrameDropReason, SimObserver};
use crate::packet::Frame;
use crate::sim::Simulator;
use crate::stats::GlobalStats;
use crate::{NodeId, SimTime};

/// Per-hook tags folded before the hook's payload, so that streams which
/// differ only in *which* hook fired cannot collide trivially.
mod tag {
    pub const SCHEDULED: u8 = 1;
    pub const DISPATCHED: u8 = 2;
    pub const FRAME_TX: u8 = 3;
    pub const FRAME_RX: u8 = 4;
    pub const FRAME_DROP: u8 = 5;
    pub const MAC_TRANSITION: u8 = 6;
    pub const ORIGINATED: u8 = 7;
    pub const DELIVERED: u8 = 8;
    pub const DROPPED: u8 = 9;
    pub const GLOBAL_STATS: u8 = 10;
    pub const NODE_STATS: u8 = 11;
    pub const FAULT: u8 = 12;
}

/// A [`SimObserver`] that folds every observed occurrence into an FNV-1a
/// 64-bit hash, in observation order.
///
/// Two runs produce the same digest iff they observed byte-identical event
/// streams — which is the engine-level definition of "the same simulation".
/// [`finalize`](Self::finalize) additionally folds in the run's final
/// statistics, so even a hypothetical counter-only divergence is caught.
///
/// The encoding (tags, field order, enum discriminants) is part of the
/// golden-fixture contract in `tests/golden/` and must not change without
/// regenerating the fixtures.
///
/// It lives beside [`SimObserver`] rather than in the conformance testkit
/// because the campaign supervisor stamps the same digest on every trial
/// it completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDigest {
    hash: Fnv64,
    events: u64,
}

impl Default for GoldenDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl GoldenDigest {
    /// An empty digest.
    pub fn new() -> Self {
        GoldenDigest {
            hash: Fnv64::new(),
            events: 0,
        }
    }

    /// A digest resumed from a checkpointed `(value, events)` pair.
    ///
    /// FNV-1a's running state is its output (see
    /// [`Fnv64::from_state`]), so a digest captured mid-run by a snapshot
    /// can continue in a fresh process and still equal the digest of an
    /// uninterrupted run.
    pub fn from_state(value: u64, events: u64) -> Self {
        GoldenDigest {
            hash: Fnv64::from_state(value),
            events,
        }
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.hash.finish()
    }

    /// Number of engine events dispatched while this digest observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The finished run's `(digest, events)`: this event-stream digest
    /// with `sim`'s final global and per-node statistics folded in. Every
    /// golden digest closes this way, whether the run went straight
    /// through, resumed from a checkpoint or completed under supervision.
    pub fn finalize<O: SimObserver>(&self, sim: &Simulator<O>) -> (u64, u64) {
        let mut digest = self.clone();
        digest.absorb_stats(&sim.global_stats());
        for i in 0..sim.node_count() {
            digest.absorb_node(i, &sim.node_stats(i), &sim.mac_stats(i));
        }
        (digest.value(), digest.events())
    }

    /// Fold a single byte.
    pub fn absorb_u8(&mut self, b: u8) {
        self.hash.write_u8(b);
    }

    /// Fold a 64-bit value, little-endian.
    pub fn absorb_u64(&mut self, v: u64) {
        self.hash.write(&v.to_le_bytes());
    }

    /// Fold a float by its exact bit pattern.
    pub fn absorb_f64(&mut self, v: f64) {
        self.absorb_u64(v.to_bits());
    }

    fn absorb_time(&mut self, t: SimTime) {
        self.absorb_u64(t.as_nanos());
    }

    fn absorb_frame(&mut self, frame: &Frame) {
        self.absorb_u64(u64::from(frame.mac_src.0));
        self.absorb_u64(u64::from(frame.mac_dst.0));
        self.absorb_u8(frame.kind as u8);
        self.absorb_u64(u64::from(frame.size_bytes));
        self.absorb_u64(frame.ack_uid);
        match &frame.packet {
            None => self.absorb_u8(0),
            Some(p) => {
                self.absorb_u8(1);
                self.absorb_u64(p.uid);
                self.absorb_u64(u64::from(p.src.0));
                self.absorb_u64(u64::from(p.dst.0));
                self.absorb_u8(p.ttl);
            }
        }
    }

    /// Fold the engine's final global counters.
    fn absorb_stats(&mut self, g: &GlobalStats) {
        self.absorb_u8(tag::GLOBAL_STATS);
        self.absorb_u64(g.transmissions);
        self.absorb_u64(g.decoded);
        self.absorb_u64(g.collisions);
        self.absorb_u64(g.rx_while_tx);
        self.absorb_u64(g.events_processed);
    }

    /// Fold one node's final network-layer and MAC counters.
    fn absorb_node(&mut self, i: usize, ns: &NodeStats, ms: &MacStats) {
        self.absorb_u8(tag::NODE_STATS);
        self.absorb_u64(i as u64);
        self.absorb_u64(ns.control_sent);
        self.absorb_u64(ns.control_bytes_sent);
        self.absorb_u64(ns.data_originated);
        self.absorb_u64(ns.data_forwarded);
        self.absorb_u64(ns.data_delivered);
        self.absorb_u64(ns.data_dropped);
        self.absorb_u64(ms.data_tx);
        self.absorb_u64(ms.broadcast_tx);
        self.absorb_u64(ms.ack_tx);
        self.absorb_u64(ms.retries);
        self.absorb_u64(ms.retry_drops);
        self.absorb_u64(ms.queue_drops);
        self.absorb_u64(ms.data_rx);
        self.absorb_u64(ms.ack_rx);
        self.absorb_u64(ms.overheard);
        self.absorb_u64(ms.rts_tx);
        self.absorb_u64(ms.cts_tx);
    }
}

impl SimObserver for GoldenDigest {
    fn on_event_scheduled(&mut self, at: SimTime, seq: u64, node: usize, kind: EventKind) {
        self.absorb_u8(tag::SCHEDULED);
        self.absorb_time(at);
        self.absorb_u64(seq);
        self.absorb_u64(node as u64);
        self.absorb_u8(kind as u8);
    }

    fn on_event_dispatched(&mut self, now: SimTime, seq: u64, node: usize, kind: EventKind) {
        self.events += 1;
        self.absorb_u8(tag::DISPATCHED);
        self.absorb_time(now);
        self.absorb_u64(seq);
        self.absorb_u64(node as u64);
        self.absorb_u8(kind as u8);
    }

    fn on_frame_tx(&mut self, now: SimTime, node: usize, frame: &Frame) {
        self.absorb_u8(tag::FRAME_TX);
        self.absorb_time(now);
        self.absorb_u64(node as u64);
        self.absorb_frame(frame);
    }

    fn on_frame_rx(&mut self, now: SimTime, node: usize, frame: &Frame) {
        self.absorb_u8(tag::FRAME_RX);
        self.absorb_time(now);
        self.absorb_u64(node as u64);
        self.absorb_frame(frame);
    }

    fn on_frame_drop(&mut self, now: SimTime, node: usize, reason: FrameDropReason) {
        self.absorb_u8(tag::FRAME_DROP);
        self.absorb_time(now);
        self.absorb_u64(node as u64);
        self.absorb_u8(reason as u8);
    }

    fn on_mac_transition(&mut self, now: SimTime, node: NodeId, from: MacState, to: MacState) {
        self.absorb_u8(tag::MAC_TRANSITION);
        self.absorb_time(now);
        self.absorb_u64(u64::from(node.0));
        self.absorb_u8(from as u8);
        self.absorb_u8(to as u8);
    }

    fn on_packet_originated(&mut self, now: SimTime, node: NodeId, uid: u64) {
        self.absorb_u8(tag::ORIGINATED);
        self.absorb_time(now);
        self.absorb_u64(u64::from(node.0));
        self.absorb_u64(uid);
    }

    fn on_packet_delivered(&mut self, now: SimTime, node: NodeId, uid: u64) {
        self.absorb_u8(tag::DELIVERED);
        self.absorb_time(now);
        self.absorb_u64(u64::from(node.0));
        self.absorb_u64(uid);
    }

    fn on_packet_dropped(&mut self, now: SimTime, node: NodeId, uid: u64, reason: DropReason) {
        self.absorb_u8(tag::DROPPED);
        self.absorb_time(now);
        self.absorb_u64(u64::from(node.0));
        self.absorb_u64(uid);
        self.absorb_u8(reason as u8);
    }

    fn on_fault(&mut self, now: SimTime, node: NodeId, kind: FaultKind) {
        self.absorb_u8(tag::FAULT);
        self.absorb_time(now);
        self.absorb_u64(u64::from(node.0));
        self.absorb_u8(kind as u8);
    }

    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u64(self.value());
        w.put_u64(self.events);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let value = r.get_u64()?;
        let events = r.get_u64()?;
        *self = GoldenDigest::from_state(value, events);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_rng::fnv::FNV_OFFSET;

    #[test]
    fn empty_digest_is_fnv_offset() {
        assert_eq!(GoldenDigest::new().value(), FNV_OFFSET);
        assert_eq!(GoldenDigest::new().events(), 0);
    }

    #[test]
    fn resumed_digest_continues_the_stream() {
        // Absorbing A then B straight through equals absorbing A,
        // checkpointing (value, events), and resuming with B.
        let mut straight = GoldenDigest::new();
        straight.on_packet_originated(SimTime::ZERO, NodeId(1), 1);
        straight.on_event_dispatched(SimTime::from_nanos(9), 4, 0, EventKind::MacTimer);

        let mut first = GoldenDigest::new();
        first.on_packet_originated(SimTime::ZERO, NodeId(1), 1);
        let mut resumed = GoldenDigest::from_state(first.value(), first.events());
        resumed.on_event_dispatched(SimTime::from_nanos(9), 4, 0, EventKind::MacTimer);

        assert_eq!(resumed.value(), straight.value());
        assert_eq!(resumed.events(), straight.events());
    }

    #[test]
    fn digest_is_deterministic() {
        let mut a = GoldenDigest::new();
        let mut b = GoldenDigest::new();
        for d in [&mut a, &mut b] {
            d.on_event_dispatched(SimTime::from_nanos(5), 1, 0, EventKind::MacTimer);
            d.on_packet_originated(SimTime::from_nanos(5), NodeId(1), 42);
        }
        assert_eq!(a.value(), b.value());
        assert_eq!(a.events(), 1);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = GoldenDigest::new();
        a.on_packet_originated(SimTime::ZERO, NodeId(1), 1);
        a.on_packet_delivered(SimTime::ZERO, NodeId(2), 1);
        let mut b = GoldenDigest::new();
        b.on_packet_delivered(SimTime::ZERO, NodeId(2), 1);
        b.on_packet_originated(SimTime::ZERO, NodeId(1), 1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn fault_hook_flips_digest() {
        let mut a = GoldenDigest::new();
        a.on_fault(SimTime::from_secs(1), NodeId(2), FaultKind::Crash);
        let mut b = GoldenDigest::new();
        b.on_fault(SimTime::from_secs(1), NodeId(2), FaultKind::Recover);
        assert_ne!(a.value(), b.value());
        assert_ne!(a.value(), GoldenDigest::new().value());
    }

    #[test]
    fn single_field_change_flips_digest() {
        let mut a = GoldenDigest::new();
        a.on_packet_dropped(SimTime::ZERO, NodeId(3), 7, DropReason::NoRoute);
        let mut b = GoldenDigest::new();
        b.on_packet_dropped(SimTime::ZERO, NodeId(3), 7, DropReason::TtlExpired);
        assert_ne!(a.value(), b.value());
    }
}
